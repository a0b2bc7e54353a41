//! Optional path-loss models.
//!
//! The paper's default latency/AoI models assume no path loss, shadowing or
//! fading, but explicitly note that these effects "can be incorporated into
//! the model according to system requirements". This module supplies the two
//! standard models needed for that extension: free-space path loss and the
//! log-distance model, plus a helper to derate link throughput as the
//! received power drops.

use serde::{Deserialize, Serialize};
use xr_types::{MegaBitsPerSecond, Meters};

/// A propagation path-loss model: given a distance, return attenuation in dB.
pub trait PathLoss {
    /// Path loss in dB at `distance`.
    fn loss_db(&self, distance: Meters) -> f64;

    /// Derates a nominal throughput by the fraction of link margin consumed.
    ///
    /// A simple, monotone throughput model: full throughput while the loss is
    /// below `floor_db`, zero at `ceiling_db`, linear in between. This is not
    /// a Shannon-capacity argument — it is the kind of coarse rate-adaptation
    /// behaviour the testbed router exhibits, which is all the analytic model
    /// consumes.
    fn derated_throughput(
        &self,
        nominal: MegaBitsPerSecond,
        distance: Meters,
        floor_db: f64,
        ceiling_db: f64,
    ) -> MegaBitsPerSecond {
        assert!(ceiling_db > floor_db, "ceiling must exceed floor");
        let loss = self.loss_db(distance);
        let fraction = if loss <= floor_db {
            1.0
        } else if loss >= ceiling_db {
            0.0
        } else {
            1.0 - (loss - floor_db) / (ceiling_db - floor_db)
        };
        MegaBitsPerSecond::new(nominal.as_f64() * fraction)
    }
}

/// Free-space path loss: `20·log10(d) + 20·log10(f) − 147.55` dB with `d` in
/// meters and `f` in Hz.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FreeSpacePathLoss {
    /// Carrier frequency in Hz.
    pub frequency_hz: f64,
}

impl FreeSpacePathLoss {
    /// Creates a free-space model at the given carrier frequency.
    ///
    /// # Panics
    ///
    /// Panics if the frequency is not strictly positive.
    #[must_use]
    pub fn new(frequency_hz: f64) -> Self {
        assert!(frequency_hz > 0.0, "carrier frequency must be positive");
        Self { frequency_hz }
    }
}

impl PathLoss for FreeSpacePathLoss {
    fn loss_db(&self, distance: Meters) -> f64 {
        let d = distance.as_f64().max(1.0);
        20.0 * d.log10() + 20.0 * self.frequency_hz.log10() - 147.55
    }
}

/// Log-distance path loss with exponent `n`:
/// `PL(d) = PL(d0) + 10·n·log10(d/d0)`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LogDistancePathLoss {
    reference: FreeSpacePathLoss,
    reference_distance: Meters,
    exponent: f64,
}

impl LogDistancePathLoss {
    /// Creates a log-distance model anchored at `reference_distance` with the
    /// given path-loss exponent (2.0 = free space, ~3.0 = indoor office,
    /// ~4.0 = dense obstruction).
    ///
    /// # Panics
    ///
    /// Panics if the exponent is below 1 or the reference distance is not
    /// positive.
    #[must_use]
    pub fn new(reference: FreeSpacePathLoss, reference_distance: Meters, exponent: f64) -> Self {
        assert!(exponent >= 1.0, "path-loss exponent must be at least 1");
        assert!(
            reference_distance.is_positive(),
            "reference distance must be positive"
        );
        Self {
            reference,
            reference_distance,
            exponent,
        }
    }
}

impl PathLoss for LogDistancePathLoss {
    fn loss_db(&self, distance: Meters) -> f64 {
        let d = distance.as_f64().max(self.reference_distance.as_f64());
        self.reference.loss_db(self.reference_distance)
            + 10.0 * self.exponent * (d / self.reference_distance.as_f64()).log10()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn free_space_loss_increases_with_distance_and_frequency() {
        let m = FreeSpacePathLoss::new(2.4e9);
        assert!(m.loss_db(Meters::new(100.0)) > m.loss_db(Meters::new(10.0)));
        let hi = FreeSpacePathLoss::new(5.0e9);
        assert!(hi.loss_db(Meters::new(10.0)) > m.loss_db(Meters::new(10.0)));
    }

    #[test]
    fn free_space_reference_value() {
        // Classic check: 2.4 GHz at 1 m ≈ 40.05 dB.
        let m = FreeSpacePathLoss::new(2.4e9);
        let loss = m.loss_db(Meters::new(1.0));
        assert!((loss - 40.05).abs() < 0.2, "loss {loss}");
    }

    #[test]
    fn log_distance_exceeds_free_space_indoors() {
        let fs = FreeSpacePathLoss::new(5.0e9);
        let indoor = LogDistancePathLoss::new(fs, Meters::new(1.0), 3.0);
        assert!(indoor.loss_db(Meters::new(20.0)) > fs.loss_db(Meters::new(20.0)));
    }

    #[test]
    fn derated_throughput_is_monotone_in_distance() {
        let model = LogDistancePathLoss::new(FreeSpacePathLoss::new(5.0e9), Meters::new(1.0), 3.0);
        let nominal = MegaBitsPerSecond::new(200.0);
        let near = model.derated_throughput(nominal, Meters::new(2.0), 60.0, 110.0);
        let mid = model.derated_throughput(nominal, Meters::new(20.0), 60.0, 110.0);
        let far = model.derated_throughput(nominal, Meters::new(500.0), 60.0, 110.0);
        assert!(near >= mid);
        assert!(mid >= far);
        assert_eq!(far.as_f64(), 0.0);
        assert!(near.as_f64() <= 200.0);
    }

    #[test]
    fn short_distances_clamp_to_reference() {
        let m = FreeSpacePathLoss::new(2.4e9);
        assert_eq!(m.loss_db(Meters::new(0.1)), m.loss_db(Meters::new(1.0)));
        let ld = LogDistancePathLoss::new(m, Meters::new(1.0), 2.5);
        assert_eq!(ld.loss_db(Meters::new(0.5)), ld.loss_db(Meters::new(1.0)));
    }

    #[test]
    #[should_panic(expected = "carrier frequency must be positive")]
    fn zero_frequency_rejected() {
        let _ = FreeSpacePathLoss::new(0.0);
    }

    #[test]
    #[should_panic(expected = "ceiling must exceed floor")]
    fn bad_derating_bounds_rejected() {
        let m = FreeSpacePathLoss::new(5.0e9);
        let _ = m.derated_throughput(MegaBitsPerSecond::new(10.0), Meters::new(5.0), 100.0, 90.0);
    }
}
