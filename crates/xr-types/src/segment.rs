//! The XR application pipeline segments of Fig. 1 and the execution target
//! (local / remote / split) decision.

use serde::{Deserialize, Serialize};
use std::fmt;

/// One segment of the XR object-detection pipeline described in Section III
/// of the paper (Fig. 1).
///
/// The end-to-end latency (Eq. 1) and energy (Eq. 19) models attribute a
/// per-frame cost to each of these segments. Some segments only contribute
/// under local execution (`FrameConversion`, `LocalInference`), some only
/// under remote execution (`FrameEncoding`, `RemoteInference`, `Transmission`,
/// `Handoff`), and `XrCooperation` usually runs in parallel with rendering and
/// may be excluded.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Segment {
    /// Camera capture, Bayer filtering, and image signal processing (Eq. 2).
    FrameGeneration,
    /// Inertial data, 6-DoF localisation and 3D point-cloud extraction (Eq. 4).
    VolumetricDataGeneration,
    /// External control/environment information from sensors and devices (Eq. 5).
    ExternalSensorInformation,
    /// YUV→RGB conversion, scaling and cropping for the local CNN (Eq. 9).
    FrameConversion,
    /// H.264 encoding of frames destined for the edge server (Eq. 10).
    FrameEncoding,
    /// On-device inference with the lightweight CNN (Eq. 11).
    LocalInference,
    /// Edge-side decode + inference with the large CNN (Eqs. 13–15).
    RemoteInference,
    /// Composition of frame, volumetric data, control info, and results (Eq. 8).
    FrameRendering,
    /// Uplink/downlink transfer between XR device and edge server (Eq. 16).
    Transmission,
    /// Horizontal or vertical handoff while the device is mobile (Eq. 17).
    Handoff,
    /// Scene/fragment exchange with cooperative XR devices (Eq. 18).
    XrCooperation,
}

impl Segment {
    /// All segments, in the order of the pipeline diagram in Fig. 1.
    pub const ALL: [Segment; 11] = [
        Segment::FrameGeneration,
        Segment::VolumetricDataGeneration,
        Segment::ExternalSensorInformation,
        Segment::FrameConversion,
        Segment::FrameEncoding,
        Segment::LocalInference,
        Segment::RemoteInference,
        Segment::FrameRendering,
        Segment::Transmission,
        Segment::Handoff,
        Segment::XrCooperation,
    ];

    /// The segment's index in [`Segment::ALL`] — the column slot used by
    /// structure-of-arrays per-segment storage (the testbed's frame
    /// engines and [`xr_testbed::GroundTruthFrame`]'s per-segment arrays).
    /// `ALL` lists the segments in declaration (= `Ord`) order, so slots
    /// ascend exactly like a `BTreeMap<Segment, _>` iterates.
    ///
    /// [`xr_testbed::GroundTruthFrame`]: https://docs.rs/xr-testbed
    #[must_use]
    pub const fn slot(self) -> usize {
        self as usize
    }
}

#[cfg(test)]
mod slot_tests {
    use super::Segment;

    #[test]
    fn slots_are_the_positions_in_all_and_ascend_in_ord_order() {
        for (index, segment) in Segment::ALL.iter().enumerate() {
            assert_eq!(segment.slot(), index, "{segment:?} slot drifted");
        }
        let mut sorted = Segment::ALL;
        sorted.sort();
        assert_eq!(sorted, Segment::ALL, "ALL must stay in Ord order");
    }
}

impl fmt::Display for Segment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Segment::FrameGeneration => "frame generation",
            Segment::VolumetricDataGeneration => "volumetric data generation",
            Segment::ExternalSensorInformation => "external sensor information generation",
            Segment::FrameConversion => "frame conversion",
            Segment::FrameEncoding => "frame encoding",
            Segment::LocalInference => "local inference",
            Segment::RemoteInference => "remote inference",
            Segment::FrameRendering => "frame rendering",
            Segment::Transmission => "transmission",
            Segment::Handoff => "handoff",
            Segment::XrCooperation => "XR cooperation",
        };
        f.write_str(name)
    }
}

/// Where the inference task of a frame executes.
///
/// The paper encodes this with the binary decision `ω_loc ∈ {0, 1}` plus a
/// task-split `ω_client + Σ_e ω_edge^e = ω_task` for distributed execution.
/// `ExecutionTarget` captures the three cases explicitly.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub enum ExecutionTarget {
    /// `ω_loc = 1`: the whole inference task runs on the XR device.
    #[default]
    Local,
    /// `ω_loc = 0`: the whole inference task runs on one or more edge servers.
    Remote,
    /// The task is split: `client_share` runs on the device, the rest on the
    /// edge server(s). `client_share` is the paper's `ω_client`.
    Split {
        /// Fraction of the task executed on the XR device, `ω_client ∈ [0, 1]`.
        client_share: f64,
    },
}

impl ExecutionTarget {
    /// Fraction of the task executed on the XR device (`ω_client`).
    #[must_use]
    pub fn client_share(self) -> f64 {
        match self {
            ExecutionTarget::Local => 1.0,
            ExecutionTarget::Remote => 0.0,
            ExecutionTarget::Split { client_share } => client_share.clamp(0.0, 1.0),
        }
    }

    /// Fraction of the task executed on the edge side (`Σ_e ω_edge^e`).
    #[must_use]
    pub fn edge_share(self) -> f64 {
        1.0 - self.client_share()
    }

    /// Returns `true` when any part of the task is offloaded.
    #[must_use]
    pub fn uses_edge(self) -> bool {
        self.edge_share() > 0.0
    }

    /// Returns `true` when any part of the task runs on the device.
    #[must_use]
    pub fn uses_client(self) -> bool {
        self.client_share() > 0.0
    }
}

impl fmt::Display for ExecutionTarget {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecutionTarget::Local => f.write_str("local"),
            ExecutionTarget::Remote => f.write_str("remote"),
            ExecutionTarget::Split { client_share } => {
                write!(f, "split(client={client_share:.2})")
            }
        }
    }
}

/// A set of segments included in an end-to-end computation.
///
/// Applications differ in whether XR cooperation or handoff are part of the
/// critical path (Section IV-B); `SegmentSet` lets callers express that
/// choice once and reuse it across the latency and energy models. The set
/// is one bit per [`Segment::slot`], so it is `Copy` and building one
/// allocates nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SegmentSet {
    /// Bit `segment.slot()` is set when `segment` is included.
    included: u16,
}

impl SegmentSet {
    /// The default end-to-end set used in the paper's evaluation: everything
    /// except XR cooperation (assumed parallel with rendering).
    #[must_use]
    pub fn standard() -> Self {
        Self::full().without(Segment::XrCooperation)
    }

    /// Every segment, including XR cooperation.
    #[must_use]
    pub fn full() -> Self {
        Segment::ALL
            .into_iter()
            .fold(Self::empty(), |set, segment| set.with(segment))
    }

    /// An empty set; use [`SegmentSet::with`] to add segments.
    #[must_use]
    pub fn empty() -> Self {
        Self { included: 0 }
    }

    /// Returns a copy of this set with `segment` added (idempotent).
    #[must_use]
    pub fn with(mut self, segment: Segment) -> Self {
        self.included |= 1 << segment.slot();
        self
    }

    /// Returns a copy of this set with `segment` removed.
    #[must_use]
    pub fn without(mut self, segment: Segment) -> Self {
        self.included &= !(1 << segment.slot());
        self
    }

    /// Returns `true` when `segment` is part of the end-to-end calculation.
    #[must_use]
    pub fn contains(&self, segment: Segment) -> bool {
        self.included & (1 << segment.slot()) != 0
    }

    /// Iterates over the included segments in pipeline order.
    pub fn iter(&self) -> impl Iterator<Item = Segment> + '_ {
        Segment::ALL
            .into_iter()
            .filter(|&segment| self.contains(segment))
    }

    /// Number of included segments.
    #[must_use]
    pub fn len(&self) -> usize {
        self.included.count_ones() as usize
    }

    /// Returns `true` when no segment is included.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.included == 0
    }
}

impl Default for SegmentSet {
    fn default() -> Self {
        Self::standard()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_segments_enumerated_once() {
        let mut seen = std::collections::HashSet::new();
        for s in Segment::ALL {
            assert!(seen.insert(s), "duplicate segment {s}");
        }
        assert_eq!(seen.len(), 11);
    }

    #[test]
    fn standard_set_excludes_cooperation() {
        let set = SegmentSet::standard();
        assert!(!set.contains(Segment::XrCooperation));
        assert!(set.contains(Segment::FrameGeneration));
        assert_eq!(set.len(), 10);
        assert_eq!(SegmentSet::full().len(), 11);
    }

    #[test]
    fn with_and_without_round_trip() {
        let set = SegmentSet::standard()
            .with(Segment::XrCooperation)
            .with(Segment::XrCooperation);
        assert_eq!(set.len(), 11);
        let set = set.without(Segment::Handoff);
        assert!(!set.contains(Segment::Handoff));
        assert!(!SegmentSet::empty().contains(Segment::FrameGeneration));
        assert!(SegmentSet::empty().is_empty());
    }

    #[test]
    fn iteration_follows_the_pipeline_whatever_the_insertion_order() {
        let set = SegmentSet::empty()
            .with(Segment::Handoff)
            .with(Segment::FrameGeneration)
            .with(Segment::LocalInference);
        assert_eq!(
            set.iter().collect::<Vec<_>>(),
            [
                Segment::FrameGeneration,
                Segment::LocalInference,
                Segment::Handoff
            ]
        );
        assert_eq!(SegmentSet::full().iter().collect::<Vec<_>>(), Segment::ALL);
    }

    #[test]
    fn execution_target_shares_sum_to_one() {
        for target in [
            ExecutionTarget::Local,
            ExecutionTarget::Remote,
            ExecutionTarget::Split { client_share: 0.3 },
        ] {
            let total = target.client_share() + target.edge_share();
            assert!((total - 1.0).abs() < 1e-12, "{target}: {total}");
        }
    }

    #[test]
    fn omega_loc_matches_paper_semantics() {
        // The paper's indicator ω_loc is 1 exactly when nothing is offloaded.
        for (target, omega_loc) in [
            (ExecutionTarget::Local, true),
            (ExecutionTarget::Remote, false),
            (ExecutionTarget::Split { client_share: 0.5 }, false),
        ] {
            assert_eq!(!target.uses_edge(), omega_loc, "{target}");
        }
        assert!(ExecutionTarget::Remote.uses_edge());
        assert!(!ExecutionTarget::Remote.uses_client());
        assert!(ExecutionTarget::Local.uses_client());
        assert!(!ExecutionTarget::Local.uses_edge());
    }

    #[test]
    fn split_share_is_clamped() {
        let t = ExecutionTarget::Split { client_share: 1.4 };
        assert_eq!(t.client_share(), 1.0);
        let t = ExecutionTarget::Split { client_share: -0.4 };
        assert_eq!(t.client_share(), 0.0);
    }
}
