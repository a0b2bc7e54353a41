//! Horizontal and vertical handoff latency (Eq. 17).
//!
//! The paper computes the average handoff latency during a frame's processing
//! time as `L_HO = l_HO · P(HO)`, with `l_HO` taken from 802.11 mobile-IP
//! fast-handoff measurements \[50\] for horizontal handoffs and from integrated
//! WLAN/UMTS analyses \[51\] for vertical handoffs.

use crate::mobility::RandomWalkMobility;
use serde::{Deserialize, Serialize};
use xr_types::Seconds;

/// The kind of handoff an XR device performs when leaving a coverage zone.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum HandoffKind {
    /// Same access technology / sub-network (e.g. Wi-Fi AP to Wi-Fi AP).
    Horizontal,
    /// Different access technology or sub-network (e.g. Wi-Fi to LTE), the
    /// paper's focus for XR service migration.
    Vertical,
}

/// Handoff latency model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HandoffModel {
    horizontal_latency: Seconds,
    vertical_latency: Seconds,
}

impl HandoffModel {
    /// Default latencies drawn from the literature the paper cites:
    /// ≈ 65 ms for an 802.11 horizontal handoff (scan + re-association +
    /// mobile-IP binding update, \[50\]) and ≈ 1.2 s for a vertical
    /// WLAN↔cellular handoff (\[51\]).
    #[must_use]
    pub fn literature_defaults() -> Self {
        Self {
            horizontal_latency: Seconds::new(0.065),
            vertical_latency: Seconds::new(1.2),
        }
    }

    /// Creates a model from explicit per-kind latencies.
    ///
    /// # Panics
    ///
    /// Panics if either latency is negative.
    #[must_use]
    pub fn new(horizontal_latency: Seconds, vertical_latency: Seconds) -> Self {
        assert!(
            horizontal_latency.as_f64() >= 0.0 && vertical_latency.as_f64() >= 0.0,
            "handoff latencies must be non-negative"
        );
        Self {
            horizontal_latency,
            vertical_latency,
        }
    }

    /// The raw handoff execution latency `l_HO` for a handoff kind.
    #[must_use]
    pub fn latency(&self, kind: HandoffKind) -> Seconds {
        match kind {
            HandoffKind::Horizontal => self.horizontal_latency,
            HandoffKind::Vertical => self.vertical_latency,
        }
    }

    /// The expected handoff latency contribution to one frame (Eq. 17):
    /// `L_HO^q = l_HO · P(HO)` where `P(HO)` comes from the mobility model
    /// evaluated over the frame's processing window.
    #[must_use]
    pub fn expected_latency(
        &self,
        kind: HandoffKind,
        mobility: &RandomWalkMobility,
        frame_window: Seconds,
    ) -> Seconds {
        self.latency(kind) * mobility.handoff_probability(frame_window)
    }
}

impl Default for HandoffModel {
    fn default() -> Self {
        Self::literature_defaults()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mobility::CoverageZone;
    use xr_types::{Meters, MetersPerSecond};

    #[test]
    fn vertical_handoff_is_slower_than_horizontal() {
        let m = HandoffModel::literature_defaults();
        assert!(m.latency(HandoffKind::Vertical) > m.latency(HandoffKind::Horizontal));
    }

    #[test]
    fn expected_latency_scales_with_probability() {
        let m = HandoffModel::new(Seconds::new(0.1), Seconds::new(1.0));
        let window = Seconds::new(0.5);
        for speed in [1.0, 5.0, 20.0] {
            let mobility = RandomWalkMobility::new(
                MetersPerSecond::new(speed),
                Seconds::new(0.1),
                CoverageZone::new(Meters::new(30.0)),
            );
            let probability = mobility.handoff_probability(window);
            let expected = m.expected_latency(HandoffKind::Vertical, &mobility, window);
            assert!((expected.as_f64() - probability).abs() < 1e-12);
        }
    }

    #[test]
    fn static_device_contributes_no_handoff_latency() {
        let m = HandoffModel::literature_defaults();
        let mobility = RandomWalkMobility::new(
            MetersPerSecond::new(0.0),
            Seconds::new(0.1),
            CoverageZone::new(Meters::new(30.0)),
        );
        let l = m.expected_latency(HandoffKind::Vertical, &mobility, Seconds::new(0.5));
        assert_eq!(l, Seconds::ZERO);
    }

    #[test]
    fn mobile_device_contributes_bounded_latency() {
        let m = HandoffModel::literature_defaults();
        let mobility = RandomWalkMobility::new(
            MetersPerSecond::new(10.0),
            Seconds::new(0.1),
            CoverageZone::new(Meters::new(30.0)),
        );
        let l = m.expected_latency(HandoffKind::Vertical, &mobility, Seconds::new(0.5));
        assert!(l > Seconds::ZERO);
        assert!(l <= m.latency(HandoffKind::Vertical));
    }

    #[test]
    #[should_panic(expected = "handoff latencies must be non-negative")]
    fn negative_latency_rejected() {
        let _ = HandoffModel::new(Seconds::new(-0.1), Seconds::new(1.0));
    }
}
