//! A Monsoon-style power monitor.
//!
//! The paper measures energy with a Monsoon Power Monitor sampling the supply
//! rail once every 0.2 ms. [`PowerMonitor`] reproduces that observable: given
//! the sequence of pipeline phases a frame goes through (each with a nominal
//! power level and a duration), it samples a noisy power value every 0.2 ms
//! and integrates the samples to energy — which is how the ground-truth
//! energy numbers of Figs. 4(c)/(d) are produced.

use rand::rngs::StdRng;
use rand::SeedableRng;
use rand_distr::{Distribution, Normal};
use serde::{Deserialize, Serialize};
use xr_types::{Joules, Seconds, Watts};

/// One sampled point of the power trace.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PowerSample {
    /// Time since the start of the frame.
    pub time: Seconds,
    /// Instantaneous power.
    pub power: Watts,
}

/// A complete sampled power trace for one frame.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PowerTrace {
    samples: Vec<PowerSample>,
    sampling_interval: Seconds,
}

impl PowerTrace {
    /// The samples in time order.
    #[must_use]
    pub fn samples(&self) -> &[PowerSample] {
        &self.samples
    }

    /// The sampling interval used.
    #[must_use]
    pub fn sampling_interval(&self) -> Seconds {
        self.sampling_interval
    }

    /// Total traced duration.
    #[must_use]
    pub fn duration(&self) -> Seconds {
        self.sampling_interval * self.samples.len() as f64
    }

    /// Integrates the trace to energy (rectangle rule over the fixed-interval
    /// samples, exactly what the Monsoon tooling does).
    #[must_use]
    pub fn energy(&self) -> Joules {
        let sum_power: f64 = self.samples.iter().map(|s| s.power.as_f64()).sum();
        Joules::new(sum_power * self.sampling_interval.as_f64())
    }

    /// Mean power over the trace (zero for an empty trace).
    #[must_use]
    pub fn mean_power(&self) -> Watts {
        if self.samples.is_empty() {
            return Watts::ZERO;
        }
        Watts::new(
            self.samples.iter().map(|s| s.power.as_f64()).sum::<f64>() / self.samples.len() as f64,
        )
    }

    /// Peak power over the trace.
    #[must_use]
    pub fn peak_power(&self) -> Watts {
        self.samples
            .iter()
            .map(|s| s.power)
            .fold(Watts::ZERO, Watts::max)
    }
}

/// The simulated power monitor.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PowerMonitor {
    sampling_interval: Seconds,
    /// Relative standard deviation of the sampling noise (combined supply
    /// ripple and ADC noise).
    noise_fraction: f64,
}

impl PowerMonitor {
    /// The Monsoon configuration used in the paper: one sample every 0.2 ms,
    /// ≈2 % combined measurement noise.
    #[must_use]
    pub fn monsoon() -> Self {
        Self {
            sampling_interval: Seconds::new(0.2e-3),
            noise_fraction: 0.02,
        }
    }

    /// Creates a monitor with an explicit sampling interval and noise level.
    ///
    /// # Panics
    ///
    /// Panics if the interval is not positive or the noise fraction is
    /// negative.
    #[must_use]
    pub fn new(sampling_interval: Seconds, noise_fraction: f64) -> Self {
        assert!(
            sampling_interval.is_positive(),
            "sampling interval must be positive"
        );
        assert!(noise_fraction >= 0.0, "noise fraction must be non-negative");
        Self {
            sampling_interval,
            noise_fraction,
        }
    }

    /// The sampling interval.
    #[must_use]
    pub fn sampling_interval(&self) -> Seconds {
        self.sampling_interval
    }

    /// Records a trace for a frame described as a sequence of
    /// `(nominal power, duration)` phases, adding `baseline` (the base power
    /// that is always drawn) to every sample.
    #[must_use]
    pub fn record(&self, phases: &[(Watts, Seconds)], baseline: Watts, seed: u64) -> PowerTrace {
        let mut rng = StdRng::seed_from_u64(seed);
        let noise = Normal::new(1.0, self.noise_fraction.max(f64::MIN_POSITIVE))
            .expect("valid normal distribution");
        let dt = self.sampling_interval.as_f64();
        let mut samples = Vec::new();
        let mut time = 0.0;

        for (power, duration) in phases {
            if duration.as_f64() <= 0.0 {
                continue;
            }
            let end = time + duration.as_f64();
            while time < end {
                let factor = if self.noise_fraction > 0.0 {
                    noise.sample(&mut rng).max(0.0)
                } else {
                    1.0
                };
                let level = (power.as_f64() + baseline.as_f64()) * factor;
                samples.push(PowerSample {
                    time: Seconds::new(time),
                    power: Watts::new(level.max(0.0)),
                });
                time += dt;
            }
        }

        PowerTrace {
            samples,
            sampling_interval: self.sampling_interval,
        }
    }

    /// Integrates the energy of a frame's phase sequence in **closed form**:
    /// the exact distribution of [`PowerMonitor::record`] followed by
    /// [`PowerTrace::energy`], at a tiny fraction of the cost.
    ///
    /// Recording draws one `N(1, σ²)` noise factor per 0.2 ms sample and
    /// sums `k ≈ duration/Δt` of them per phase; but the mean of `k` iid
    /// normal factors is itself exactly `N(1, σ²/k)`, so one aggregated
    /// draw per phase reproduces the *same energy distribution* (mean and
    /// variance both exact, up to the astronomically improbable per-sample
    /// zero clamp) with `k`-times fewer draws. This is the form the frame
    /// simulator integrates ground-truth energy with — the hot path of
    /// every measurement campaign; [`PowerMonitor::record`] remains the
    /// full-trace observable for tests and trace inspection. Statistical
    /// agreement between the two forms is pinned by a unit test.
    #[must_use]
    pub fn measure_energy(
        &self,
        phases: &[(Watts, Seconds)],
        baseline: Watts,
        seed: u64,
    ) -> Joules {
        let mut rng = StdRng::seed_from_u64(seed);
        // One Box–Muller pair cache across the frame's phases: each phase
        // applies its own aggregated σ to the next *standard* variate, so
        // consecutive phases share one word pair (and one transcendental
        // set) while keeping the exact per-phase distribution. Phases that
        // span no samples draw nothing, as before.
        let mut pairs = rand_distr::StandardNormalPairs::new();
        let mut energy = 0.0;
        for &(power, duration) in phases {
            if let Some(phase) =
                self.phase_energy(power, baseline, duration, || pairs.next(&mut rng))
            {
                energy += phase;
            }
        }
        Joules::new(energy)
    }

    /// The column form of [`PowerMonitor::measure_energy`]: one energy per
    /// lane (frame), from the frame's phases laid out as columns.
    ///
    /// `phases[p]` is phase `p`'s nominal power and its duration column
    /// (one entry per lane), in the order the scalar form would see the
    /// phases. `normals` holds the pre-drawn standard-normal variates, draw
    /// `d` of lane `i` at `normals[d * lanes + i]`: the sequence the scalar
    /// form's pair cache would hand out on that lane's stream. Each lane
    /// keeps its own draw cursor, which advances only on phases that draw,
    /// so a lane whose phases span fewer samples leaves its trailing
    /// variates unread. A noiseless monitor reads no variate, and `normals`
    /// may then be empty.
    ///
    /// Both forms evaluate every phase through the same expression, so
    /// `out[i]` equals `measure_energy` on lane `i`'s phases and stream bit
    /// for bit.
    ///
    /// # Panics
    ///
    /// Panics if a duration column's length differs from `out`'s, or if a
    /// noisy monitor gets fewer than one variate per phase per lane.
    pub(crate) fn measure_energy_columns(
        &self,
        phases: &[(Watts, &[Seconds])],
        baseline: Watts,
        normals: &[f64],
        out: &mut [Joules],
    ) {
        let lanes = out.len();
        for (_, durations) in phases {
            assert_eq!(durations.len(), lanes, "phase column length mismatch");
        }
        if self.is_noisy() {
            assert!(
                normals.len() >= phases.len() * lanes,
                "a noisy monitor needs one variate per phase per lane"
            );
        }
        for (i, out) in out.iter_mut().enumerate() {
            let mut drawn = 0;
            let mut energy = 0.0;
            for &(power, durations) in phases {
                let draw = || {
                    let z = normals[drawn * lanes + i];
                    drawn += 1;
                    z
                };
                if let Some(phase) = self.phase_energy(power, baseline, durations[i], draw) {
                    energy += phase;
                }
            }
            *out = Joules::new(energy);
        }
    }

    /// One phase's integrated energy, or `None` when the phase spans no
    /// monitor sample (and so draws nothing). `draw` yields the phase's
    /// standard-normal variate and is called once, only on a noisy monitor.
    /// Both [`PowerMonitor::measure_energy`] forms go through here.
    fn phase_energy(
        &self,
        power: Watts,
        baseline: Watts,
        duration: Seconds,
        draw: impl FnOnce() -> f64,
    ) -> Option<f64> {
        if duration.as_f64() <= 0.0 {
            return None;
        }
        // The number of monitor samples the phase spans, on the same Δt
        // grid as the recorded trace (rounded, so quantisation is unbiased
        // across phases).
        let dt = self.sampling_interval.as_f64();
        let samples = (duration.as_f64() / dt).round();
        if samples < 1.0 {
            return None;
        }
        let factor = if self.is_noisy() {
            let aggregated = Normal::new(1.0, self.noise_fraction / samples.sqrt())
                .expect("valid normal distribution");
            aggregated.from_standard(draw()).max(0.0)
        } else {
            1.0
        };
        Some((power.as_f64() + baseline.as_f64()) * factor * samples * dt)
    }

    /// Whether the monitor draws noise at all (a noiseless monitor
    /// integrates the nominal power levels exactly).
    #[must_use]
    pub(crate) fn is_noisy(&self) -> bool {
        self.noise_fraction > 0.0
    }
}

impl Default for PowerMonitor {
    fn default() -> Self {
        Self::monsoon()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noiseless_trace_integrates_exactly() {
        let monitor = PowerMonitor::new(Seconds::new(0.2e-3), 0.0);
        let phases = [
            (Watts::new(2.0), Seconds::new(0.1)),
            (Watts::new(1.0), Seconds::new(0.2)),
        ];
        let trace = monitor.record(&phases, Watts::ZERO, 1);
        // Expected energy: 2·0.1 + 1·0.2 = 0.4 J (±one sample of quantisation).
        let e = trace.energy().as_f64();
        assert!((e - 0.4).abs() < 2.0 * 0.2e-3 * 2.0, "energy {e}");
        assert_eq!(trace.sampling_interval(), Seconds::new(0.2e-3));
        assert!((trace.duration().as_f64() - 0.3).abs() < 1e-3);
    }

    #[test]
    fn monsoon_noise_stays_within_a_few_percent() {
        let monitor = PowerMonitor::monsoon();
        let phases = [(Watts::new(2.5), Seconds::new(0.5))];
        let trace = monitor.record(&phases, Watts::new(0.5), 7);
        let expected = 3.0 * 0.5;
        let rel_err = (trace.energy().as_f64() - expected).abs() / expected;
        assert!(rel_err < 0.02, "relative error {rel_err}");
        assert!((trace.mean_power().as_f64() - 3.0).abs() < 0.1);
        assert!(trace.peak_power() >= trace.mean_power());
    }

    #[test]
    fn baseline_is_added_to_every_sample() {
        let monitor = PowerMonitor::new(Seconds::new(1e-3), 0.0);
        let trace = monitor.record(&[(Watts::new(1.0), Seconds::new(0.01))], Watts::new(0.5), 3);
        for s in trace.samples() {
            assert!((s.power.as_f64() - 1.5).abs() < 1e-12);
        }
    }

    #[test]
    fn zero_duration_phases_are_skipped() {
        let monitor = PowerMonitor::monsoon();
        let trace = monitor.record(
            &[
                (Watts::new(5.0), Seconds::ZERO),
                (Watts::new(1.0), Seconds::new(0.01)),
            ],
            Watts::ZERO,
            9,
        );
        assert!(trace.peak_power().as_f64() < 2.0);
        assert!(!trace.samples().is_empty());
    }

    #[test]
    fn deterministic_per_seed() {
        let monitor = PowerMonitor::monsoon();
        let phases = [(Watts::new(2.0), Seconds::new(0.05))];
        let a = monitor.record(&phases, Watts::ZERO, 11);
        let b = monitor.record(&phases, Watts::ZERO, 11);
        let c = monitor.record(&phases, Watts::ZERO, 12);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn measure_energy_matches_the_recorded_trace_distribution() {
        // The closed form must agree with the sampled trace in mean *and*
        // spread: the aggregated per-phase factor is N(1, σ²/k), exactly the
        // distribution of the mean of the k per-sample factors.
        let monitor = PowerMonitor::monsoon();
        // Durations on the scale of real frame phases, so the ±1-sample grid
        // quantisation of the recorded trace stays well under the tolerance.
        let phases = [
            (Watts::new(2.1), Seconds::new(0.13)),
            (Watts::new(0.0), Seconds::ZERO),
            (Watts::new(0.9), Seconds::new(0.041)),
            (Watts::new(1.4), Seconds::new(0.062)),
        ];
        let baseline = Watts::new(0.85);
        let seeds = 400u64;
        let stats = |values: &[f64]| {
            let mean = values.iter().sum::<f64>() / values.len() as f64;
            let var =
                values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / (values.len() - 1) as f64;
            (mean, var.sqrt())
        };
        let recorded: Vec<f64> = (0..seeds)
            .map(|s| monitor.record(&phases, baseline, s).energy().as_f64())
            .collect();
        let measured: Vec<f64> = (0..seeds)
            .map(|s| monitor.measure_energy(&phases, baseline, s).as_f64())
            .collect();
        let (rec_mean, rec_std) = stats(&recorded);
        let (mes_mean, mes_std) = stats(&measured);
        // The two forms may disagree by at most one Δt sample per phase
        // (the recorded trace's grid drifts across phase boundaries).
        let total: f64 = phases.iter().map(|(_, d)| d.as_f64()).sum();
        let quantisation_bound = 2.0 * phases.len() as f64 * 0.2e-3 / total;
        let mean_gap = (rec_mean - mes_mean).abs() / rec_mean;
        assert!(
            mean_gap < quantisation_bound,
            "means diverged by {mean_gap} (bound {quantisation_bound})"
        );
        assert!(
            0.5 < mes_std / rec_std && mes_std / rec_std < 2.0,
            "spread diverged: recorded {rec_std}, measured {mes_std}"
        );
        // The noiseless branch integrates exactly (up to the shared Δt
        // quantisation of phase boundaries).
        let quiet = PowerMonitor::new(Seconds::new(0.2e-3), 0.0);
        let exact = quiet.measure_energy(&phases, Watts::ZERO, 3).as_f64();
        let trace = quiet.record(&phases, Watts::ZERO, 3).energy().as_f64();
        assert!(
            (exact - trace).abs() / trace < 0.02,
            "noiseless forms diverged: {exact} vs {trace}"
        );
    }

    #[test]
    fn energy_columns_match_per_frame_measure_energy_bit_for_bit() {
        // Lanes draw different numbers of variates: zero-duration phases
        // and phases under Δt/2 (0 samples) draw nothing, and the handoff
        // phase runs on some frames only.
        use rand::RngCore;
        let dt = 0.2e-3;
        let lanes = 9;
        let powers = [
            Watts::new(2.1),
            Watts::new(0.7),
            Watts::new(1.3),
            Watts::new(3.9),
        ];
        let columns: [Vec<Seconds>; 4] = [
            (0..lanes)
                .map(|i| Seconds::new(0.031 + 0.004 * i as f64))
                .collect(),
            (0..lanes)
                .map(|i| Seconds::new(if i % 3 == 0 { 0.0 } else { 0.012 }))
                .collect(),
            (0..lanes)
                .map(|i| Seconds::new(if i % 2 == 0 { 0.4 * dt } else { 0.6 * dt }))
                .collect(),
            (0..lanes)
                .map(|i| Seconds::new(if i % 4 == 1 { 0.065 } else { 0.0 }))
                .collect(),
        ];
        let baseline = Watts::new(0.85);
        let seed = |i: usize| 0xC0FF_EE00 + i as u64;

        // Pre-draw the variates the way the batched finalizer does: one
        // raw word pair per pair column, both halves kept.
        let pair_columns = columns.len().div_ceil(2);
        let mut rngs: Vec<StdRng> = (0..lanes).map(|i| StdRng::seed_from_u64(seed(i))).collect();
        let mut normals = vec![0.0; 2 * pair_columns * lanes];
        for pair in 0..pair_columns {
            let mut raw_a = vec![0u64; lanes];
            let mut raw_b = vec![0u64; lanes];
            for (i, rng) in rngs.iter_mut().enumerate() {
                raw_a[i] = rng.next_u64();
                raw_b[i] = rng.next_u64();
            }
            let (cos, sin) = normals[2 * pair * lanes..(2 * pair + 2) * lanes].split_at_mut(lanes);
            rand_distr::column::fill_standard_normal_pair(&raw_a, &raw_b, cos, sin);
        }

        let phases: Vec<(Watts, &[Seconds])> = powers
            .iter()
            .zip(&columns)
            .map(|(&power, column)| (power, column.as_slice()))
            .collect();
        for (monitor, normals) in [
            (PowerMonitor::monsoon(), normals.as_slice()),
            (PowerMonitor::new(Seconds::new(dt), 0.0), &[][..]),
        ] {
            let mut out = vec![Joules::ZERO; lanes];
            monitor.measure_energy_columns(&phases, baseline, normals, &mut out);
            for (i, energy) in out.iter().enumerate() {
                let frame: Vec<(Watts, Seconds)> = phases
                    .iter()
                    .map(|&(power, column)| (power, column[i]))
                    .collect();
                let expected = monitor.measure_energy(&frame, baseline, seed(i));
                assert_eq!(
                    energy.as_f64().to_bits(),
                    expected.as_f64().to_bits(),
                    "lane {i} diverged (noisy: {})",
                    monitor.is_noisy()
                );
            }
        }
    }

    #[test]
    fn empty_trace_behaves() {
        let monitor = PowerMonitor::monsoon();
        let trace = monitor.record(&[], Watts::ZERO, 1);
        assert_eq!(trace.energy(), Joules::ZERO);
        assert_eq!(trace.mean_power(), Watts::ZERO);
        assert_eq!(trace.samples().len(), 0);
    }

    #[test]
    #[should_panic(expected = "sampling interval must be positive")]
    fn zero_interval_rejected() {
        let _ = PowerMonitor::new(Seconds::ZERO, 0.01);
    }
}
