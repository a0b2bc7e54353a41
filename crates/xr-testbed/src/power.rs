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
use rand_distr::math::Tier;
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
    /// Panics if the interval is not positive and finite, or the noise
    /// fraction is negative or not finite.
    #[must_use]
    pub fn new(sampling_interval: Seconds, noise_fraction: f64) -> Self {
        assert!(
            sampling_interval.is_positive(),
            "sampling interval must be positive and finite"
        );
        assert!(
            noise_fraction >= 0.0 && noise_fraction.is_finite(),
            "noise fraction must be non-negative and finite"
        );
        Self {
            sampling_interval,
            noise_fraction,
        }
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
    ///
    /// A NaN or infinite phase duration yields a non-finite energy rather
    /// than a panic, so the caller can report the broken measurement.
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
        let mut energy = Joules::ZERO;
        for &(power, duration) in phases {
            let (samples, spans) = self.phase_samples(duration);
            if spans {
                let z = if self.is_noisy() {
                    pairs.next(&mut rng)
                } else {
                    0.0
                };
                energy += self.phase_energy(power + baseline, samples, z);
            }
        }
        energy
    }

    /// The column form of [`PowerMonitor::measure_energy`], one phase at a
    /// time: adds the phase's integrated energy to every lane (frame) of
    /// `energy`.
    ///
    /// A frame batch integrates by calling this once per phase, in the
    /// order the scalar form would see the phases, after rewinding
    /// `cursors` to the batch width and zeroing `energy`. `phase` is the
    /// phase's nominal power and its duration column (one entry per lane).
    /// `normals` holds the pre-drawn standard-normal variates, draw `d` of
    /// lane `i` at `normals[d * lanes + i]`: the sequence the scalar form's
    /// pair cache would hand out on that lane's stream. Each lane keeps its
    /// own draw cursor, which advances only on phases that draw, so a lane
    /// whose phases span fewer samples leaves its trailing variates unread.
    /// A noiseless monitor reads no variate, and `normals` may then be
    /// empty.
    ///
    /// Every phase goes through the expressions of the scalar form
    /// ([`PowerMonitor::phase_samples`] and [`PowerMonitor::phase_energy`]),
    /// with its early return as a select, so after the last phase
    /// `energy[i]` equals `measure_energy` on lane `i`'s phases and stream
    /// bit for bit. The pass is one plain loop over the lanes, compiled
    /// once per tier and run on `tier`: 8 lanes per vector on AVX-512, 4 on
    /// AVX2. The batched finalizer passes its driver call's tier.
    ///
    /// # Panics
    ///
    /// Panics if the duration column or `cursors` does not match `energy`'s
    /// length, if a noisy monitor gets fewer than one variate per lane for
    /// each phase integrated since the rewind, or if the host cannot run
    /// `tier`.
    pub(crate) fn add_phase_energy(
        &self,
        tier: Tier,
        (power, durations): (Watts, &[Seconds]),
        baseline: Watts,
        normals: &[f64],
        cursors: &mut DrawCursors,
        energy: &mut [Joules],
    ) {
        let lanes = energy.len();
        assert_eq!(durations.len(), lanes, "phase column length mismatch");
        assert_eq!(
            cursors.next.len(),
            lanes,
            "draw cursors must be rewound to the batch width"
        );
        cursors.phases += 1;
        let noisy = self.is_noisy();
        if noisy {
            assert!(
                normals.len() >= cursors.phases * lanes,
                "a noisy monitor needs one variate per phase per lane"
            );
        }
        // On a noisy monitor every cursor stays below `cursors.phases *
        // lanes <= normals.len()` (the `DrawCursors` invariant), so the
        // clamp in the loop never moves an index: it only lets the compiler
        // drop the bounds check that would keep the loop from vectorizing.
        // A noiseless monitor reads a dummy variate that it never uses.
        let normals = if noisy && !normals.is_empty() {
            normals
        } else {
            &[0.0]
        };
        let level = power + baseline;
        let next = &mut cursors.next;
        tier.run(
            #[inline(always)]
            || self.phase_pass(level, durations, normals, next, energy),
        );
    }

    /// The lane loop of [`PowerMonitor::add_phase_energy`], compiled
    /// once per tier. `normals` is never empty, and every `next[i]` below
    /// its length is read as is (the clamp only proves the bound). Taking
    /// the columns as arguments tells the compiler they do not overlap,
    /// which the read of `normals` at a data-dependent index needs to
    /// vectorize.
    #[inline(always)]
    fn phase_pass(
        &self,
        level: Watts,
        durations: &[Seconds],
        normals: &[f64],
        next: &mut [usize],
        energy: &mut [Joules],
    ) {
        let lanes = energy.len();
        // A copy, so the loop reads σ and Δt from registers, not through a
        // pointer its stores might alias.
        let monitor = self.clone();
        let last = normals.len().checked_sub(1).expect("a variate");
        for ((&duration, next), energy) in durations.iter().zip(next).zip(energy) {
            let (samples, spans) = monitor.phase_samples(duration);
            let phase = monitor.phase_energy(level, samples, normals[(*next).min(last)]);
            // The scalar form's `if spans`, as selects.
            *energy = if spans { *energy + phase } else { *energy };
            *next += if spans { lanes } else { 0 };
        }
    }

    /// The number of monitor samples a phase of `duration` spans, on the
    /// same Δt grid as the recorded trace (rounded, so quantisation is
    /// unbiased across phases), and whether the phase spans any sample at
    /// all. A phase that spans none contributes no energy and draws
    /// nothing; a NaN or infinite duration counts as spanning, so its
    /// energy comes out non-finite.
    #[inline(always)]
    fn phase_samples(&self, duration: Seconds) -> (f64, bool) {
        let samples = (duration / self.sampling_interval).round();
        let spans_none = duration.as_f64() <= 0.0 || samples < 1.0;
        (samples, !spans_none)
    }

    /// One spanning phase's integrated energy at `level` (the phase's power
    /// plus the baseline) over `samples` monitor samples, given the phase's
    /// standard-normal variate `z` (read only on a noisy monitor). Both
    /// [`PowerMonitor::measure_energy`] forms go through here.
    #[inline(always)]
    fn phase_energy(&self, level: Watts, samples: f64, z: f64) -> Joules {
        let factor = if self.is_noisy() {
            // `Normal::from_standard` for N(1, σ²/k). The constructor keeps
            // σ finite and k is at least 1 (or NaN), so the scale is finite
            // (or NaN) and needs no per-phase validation.
            (1.0 + self.noise_fraction / samples.sqrt() * z).max(0.0)
        } else {
            1.0
        };
        level * factor * samples * self.sampling_interval
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

/// The per-lane draw cursors of the column-form monitor: where each lane
/// of a frame batch reads its next standard-normal variate. A batch
/// rewinds them once, then every [`PowerMonitor::add_phase_energy`] call
/// advances the lanes whose phase draws. Lives with the batch's draw
/// columns and is reused across batches.
///
/// Invariant (what keeps every read of the draw columns in bounds): after
/// `phases` phases, lane `i`'s cursor is `i + drawn * lanes` with `drawn <=
/// phases`, so it stays below `(phases + 1) * lanes`. Only this module
/// writes the fields.
#[derive(Debug, Default)]
pub(crate) struct DrawCursors {
    /// Lane `i`'s next variate index into the draw columns.
    next: Vec<usize>,
    /// Phases integrated since the last rewind.
    phases: usize,
}

impl DrawCursors {
    /// Points every one of `lanes` lanes at its first variate (draw column
    /// 0), reusing the cursor storage.
    pub(crate) fn rewind(&mut self, lanes: usize) {
        self.next.clear();
        self.next.extend(0..lanes);
        self.phases = 0;
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
        let duration = 0.2e-3 * trace.samples().len() as f64;
        assert!((duration - 0.3).abs() < 1e-3, "duration {duration}");
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
        assert!(trace
            .samples()
            .iter()
            .any(|s| s.power >= trace.mean_power()));
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
        assert!(trace.samples().iter().all(|s| s.power.as_f64() < 2.0));
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

    /// The variates the batched finalizer pre-draws for lanes on the
    /// streams `seeds`: one raw word pair per pair column, both halves
    /// kept, enough pair columns for `phases` draws per lane.
    fn pre_drawn_normals(seeds: &[u64], phases: usize) -> Vec<f64> {
        use rand::RngCore;
        let lanes = seeds.len();
        if lanes == 0 {
            return Vec::new();
        }
        let pair_columns = phases.div_ceil(2);
        let mut rngs: Vec<StdRng> = seeds.iter().map(|&s| StdRng::seed_from_u64(s)).collect();
        let mut normals = vec![0.0; 2 * pair_columns * lanes];
        for columns in normals.chunks_exact_mut(2 * lanes) {
            let mut raw_a = vec![0u64; lanes];
            let mut raw_b = vec![0u64; lanes];
            for (i, rng) in rngs.iter_mut().enumerate() {
                raw_a[i] = rng.next_u64();
                raw_b[i] = rng.next_u64();
            }
            let (cos, sin) = columns.split_at_mut(lanes);
            rand_distr::column::fill_standard_normal_pair(Tier::Portable, &raw_a, &raw_b, cos, sin);
        }
        normals
    }

    /// Integrates a whole batch through the column form on `tier`, one
    /// `add_phase_energy` call per phase.
    fn energy_columns(
        monitor: &PowerMonitor,
        tier: Tier,
        phases: &[(Watts, &[Seconds])],
        baseline: Watts,
        normals: &[f64],
    ) -> Vec<Joules> {
        let lanes = phases.first().map_or(0, |(_, column)| column.len());
        let mut cursors = DrawCursors::default();
        cursors.rewind(lanes);
        let mut energy = vec![Joules::ZERO; lanes];
        for &phase in phases {
            monitor.add_phase_energy(tier, phase, baseline, normals, &mut cursors, &mut energy);
        }
        energy
    }

    /// Asserts that the column pass on each tier the CPU runs gives each
    /// lane exactly the per-frame `measure_energy` of its phases and
    /// stream. Bits must match, except that any two NaNs match: Rust
    /// leaves NaN payloads unspecified.
    fn assert_columns_match_per_frame(
        monitor: &PowerMonitor,
        phases: &[(Watts, &[Seconds])],
        baseline: Watts,
        seeds: &[u64],
        context: &str,
    ) {
        let normals = if monitor.is_noisy() {
            pre_drawn_normals(seeds, phases.len())
        } else {
            Vec::new()
        };
        let same = |a: Joules, b: Joules| {
            let (a, b) = (a.as_f64(), b.as_f64());
            a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
        };
        for tier in Tier::ALL.into_iter().filter(|tier| tier.supported()) {
            let out = energy_columns(monitor, tier, phases, baseline, &normals);
            for (i, &energy) in out.iter().enumerate() {
                let frame: Vec<(Watts, Seconds)> = phases
                    .iter()
                    .map(|&(power, column)| (power, column[i]))
                    .collect();
                let expected = monitor.measure_energy(&frame, baseline, seeds[i]);
                assert!(
                    same(energy, expected),
                    "{context}: lane {i} of {} diverged on pass {tier:?} \
                     (noisy: {}): {energy:?} vs {expected:?}, phases {frame:?}",
                    out.len(),
                    monitor.is_noisy()
                );
            }
        }
    }

    #[test]
    fn energy_columns_match_per_frame_measure_energy_bit_for_bit() {
        // Lanes draw different numbers of variates: zero-duration phases
        // and phases under Δt/2 (0 samples) draw nothing, and the handoff
        // phase runs on some frames only.
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
        let phases: Vec<(Watts, &[Seconds])> = powers
            .iter()
            .zip(&columns)
            .map(|(&power, column)| (power, column.as_slice()))
            .collect();
        let seeds: Vec<u64> = (0..lanes).map(|i| 0xC0FF_EE00 + i as u64).collect();
        for monitor in [
            PowerMonitor::monsoon(),
            PowerMonitor::new(Seconds::new(dt), 0.0),
        ] {
            assert_columns_match_per_frame(&monitor, &phases, Watts::new(0.85), &seeds, "fixed");
        }
    }

    /// One random phase duration for a lane: an edge case of the lane body
    /// or an ordinary frame-phase duration, mostly zero when `sparse`.
    fn random_duration(rng: &mut StdRng, sparse: bool) -> Seconds {
        use rand::Rng;
        let dt = 0.2e-3;
        let k = f64::from(rng.gen_range(0..400u32));
        let seconds = match rng.gen_range(0..if sparse { 4 } else { 16u32 }) {
            0..=1 => 0.0,
            2 => rng.gen_range(0.01..0.2),
            3 => (k + 0.5) * dt,
            4 => -rng.gen_range(0.0..0.01),
            5 => rng.gen_range(0.0..0.5) * dt,
            6 => 0.5 * dt,
            7 => (2f64.powi(52) + k % 7.0 - 3.0) * dt,
            8 => (2f64.powi(52) - 0.5) * dt,
            9 => f64::INFINITY,
            10 => return Seconds::new(1.0) * f64::NAN,
            11 => k * dt * (1.0 + f64::EPSILON),
            12 => f64::NEG_INFINITY,
            _ => rng.gen_range(0.0..0.05),
        };
        Seconds::new(seconds)
    }

    #[test]
    fn column_passes_match_per_frame_measure_energy_on_random_batches() {
        // Every lane count from 0 to 37 runs every tail length of the AVX2
        // (mod 4) and AVX-512 (mod 8) passes, on every tier the host runs.
        // Each duration is drawn from edge cases of the lane body — exact
        // (k + 1/2)·Δt ties, zero, negative, under Δt/2 (no sample, so no
        // draw), near 2^52·Δt, ±infinite, NaN — or from ordinary
        // frame-phase durations, and sparse handoff-like phases leave the
        // lanes' draw cursors ragged.
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(0x5EED_F1A1);
        let monitors = [
            PowerMonitor::monsoon(),
            PowerMonitor::new(Seconds::new(1e-3), 0.3),
            PowerMonitor::new(Seconds::new(0.2e-3), 0.0),
        ];
        for lanes in 0..=37usize {
            for round in 0..4 {
                let phase_count = rng.gen_range(1..12usize);
                let columns: Vec<(Watts, Vec<Seconds>)> = (0..phase_count)
                    .map(|p| {
                        let sparse = p % 3 == 2;
                        let column = (0..lanes)
                            .map(|_| random_duration(&mut rng, sparse))
                            .collect();
                        (Watts::new(rng.gen_range(0.0..4.0)), column)
                    })
                    .collect();
                let phases: Vec<(Watts, &[Seconds])> = columns
                    .iter()
                    .map(|(power, column)| (*power, column.as_slice()))
                    .collect();
                let baseline = Watts::new(rng.gen_range(0.0..1.0));
                let seeds: Vec<u64> = (0..lanes).map(|_| rng.gen::<u64>()).collect();
                for monitor in &monitors {
                    let context = format!("lanes {lanes} round {round}");
                    assert_columns_match_per_frame(monitor, &phases, baseline, &seeds, &context);
                }
            }
        }
    }

    #[test]
    fn non_finite_durations_measure_non_finite_energy_in_both_forms() {
        // A broken phase duration must come out as a non-finite energy (the
        // campaign reports it as an error naming the point), never as a
        // panic inside the noisy monitor.
        let nan = Seconds::new(1.0) * f64::NAN;
        let inf = Seconds::new(f64::INFINITY);
        for monitor in [
            PowerMonitor::monsoon(),
            PowerMonitor::new(Seconds::new(1e-3), 0.0),
        ] {
            for broken in [nan, inf] {
                let phases = [
                    (Watts::new(1.2), Seconds::new(0.03)),
                    (Watts::new(2.0), broken),
                ];
                let energy = monitor.measure_energy(&phases, Watts::new(0.5), 17);
                assert!(!energy.as_f64().is_finite(), "{broken:?} gave {energy:?}");
                let columns: Vec<(Watts, Vec<Seconds>)> = phases
                    .iter()
                    .map(|&(power, d)| (power, vec![d; 5]))
                    .collect();
                let phases: Vec<(Watts, &[Seconds])> = columns
                    .iter()
                    .map(|(power, column)| (*power, column.as_slice()))
                    .collect();
                assert_columns_match_per_frame(&monitor, &phases, Watts::new(0.5), &[17; 5], "");
            }
        }
    }

    #[test]
    #[should_panic(expected = "noise fraction must be non-negative and finite")]
    fn infinite_noise_rejected() {
        let _ = PowerMonitor::new(Seconds::new(0.2e-3), f64::INFINITY);
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
