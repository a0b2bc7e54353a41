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
            if let Some(phase) =
                self.phase_energy(power + baseline, duration, || pairs.next(&mut rng))
            {
                energy += phase;
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
    /// Every phase goes through the expression of the scalar form (the
    /// portable pass calls it per lane; the AVX2 and AVX-512 passes
    /// evaluate it with correctly rounded or exact vector operations), so
    /// after the last phase `energy[i]` equals `measure_energy` on lane
    /// `i`'s phases and stream bit for bit. The pass follows the draw
    /// layer's tier (`rand_distr::math::Tier::dispatched`), one pass per
    /// tier: 8 lanes per step on AVX-512, 4 on AVX2, and the portable one
    /// under `XR_FORCE_PORTABLE`.
    ///
    /// # Panics
    ///
    /// Panics if the duration column or `cursors` does not match `energy`'s
    /// length, or if a noisy monitor gets fewer than one variate per lane
    /// for each phase integrated since the rewind.
    pub(crate) fn add_phase_energy(
        &self,
        phase: (Watts, &[Seconds]),
        baseline: Watts,
        normals: &[f64],
        cursors: &mut DrawCursors,
        energy: &mut [Joules],
    ) {
        self.add_phase_energy_at(
            Tier::dispatched(),
            phase,
            baseline,
            normals,
            cursors,
            energy,
        );
    }

    /// [`PowerMonitor::add_phase_energy`] on an explicit tier's pass.
    ///
    /// # Panics
    ///
    /// As [`PowerMonitor::add_phase_energy`], and if the host cannot run
    /// `tier`.
    fn add_phase_energy_at(
        &self,
        tier: Tier,
        (power, durations): (Watts, &[Seconds]),
        baseline: Watts,
        normals: &[f64],
        cursors: &mut DrawCursors,
        energy: &mut [Joules],
    ) {
        assert!(tier.supported(), "this host cannot run the {tier:?} tier");
        let lanes = energy.len();
        assert_eq!(durations.len(), lanes, "phase column length mismatch");
        assert_eq!(
            cursors.next.len(),
            lanes,
            "draw cursors must be rewound to the batch width"
        );
        cursors.phases += 1;
        if self.is_noisy() {
            assert!(
                normals.len() >= cursors.phases * lanes,
                "a noisy monitor needs one variate per phase per lane"
            );
        }
        let level = power + baseline;
        let next = &mut cursors.next;
        // Each SIMD arm's contract holds: the host runs the tier (asserted
        // above), the asserts above give `durations`, `next` and `energy`
        // one entry per lane, and on a noisy monitor every cursor is below
        // `cursors.phases * lanes <= normals.len()` (the `DrawCursors`
        // invariant).
        match tier {
            #[cfg(target_arch = "x86_64")]
            #[allow(unsafe_code)]
            // SAFETY: see above.
            Tier::Avx512 => unsafe {
                avx512::add_phase_energy(self, level, durations, normals, next, energy);
            },
            #[cfg(target_arch = "x86_64")]
            #[allow(unsafe_code)]
            // SAFETY: see above.
            Tier::Avx2 => unsafe {
                avx2::add_phase_energy(self, level, durations, normals, next, energy);
            },
            _ => {
                let lanes_iter = durations.iter().zip(next).zip(energy);
                for ((&duration, next), energy) in lanes_iter {
                    self.add_lane_energy(level, duration, normals, lanes, next, energy);
                }
            }
        }
    }

    /// One lane of the column form: adds the phase's energy at `level`
    /// (power plus baseline) over `duration` to `energy`, drawing the
    /// lane's next variate at `normals[*next]` and stepping the cursor one
    /// draw column (`lanes` entries) on. The portable pass runs every lane
    /// through here; the AVX2 pass runs its tail lanes.
    fn add_lane_energy(
        &self,
        level: Watts,
        duration: Seconds,
        normals: &[f64],
        lanes: usize,
        next: &mut usize,
        energy: &mut Joules,
    ) {
        let draw = || {
            let z = normals[*next];
            *next += lanes;
            z
        };
        if let Some(phase) = self.phase_energy(level, duration, draw) {
            *energy += phase;
        }
    }

    /// One phase's integrated energy at `level` (the phase's power plus the
    /// baseline), or `None` when the phase spans no monitor sample (and so
    /// draws nothing). `draw` yields the phase's standard-normal variate
    /// and is called once, only on a noisy monitor. Both
    /// [`PowerMonitor::measure_energy`] forms go through here.
    fn phase_energy(
        &self,
        level: Watts,
        duration: Seconds,
        draw: impl FnOnce() -> f64,
    ) -> Option<Joules> {
        if duration.as_f64() <= 0.0 {
            return None;
        }
        // The number of monitor samples the phase spans, on the same Δt
        // grid as the recorded trace (rounded, so quantisation is unbiased
        // across phases).
        let dt = self.sampling_interval;
        let samples = (duration / dt).round();
        if samples < 1.0 {
            return None;
        }
        let factor = if self.is_noisy() {
            // `Normal::from_standard` for N(1, σ²/k). The constructor keeps
            // σ finite and k is at least 1 (or NaN), so the scale is finite
            // (or NaN) and needs no per-phase validation.
            (1.0 + self.noise_fraction / samples.sqrt() * draw()).max(0.0)
        } else {
            1.0
        };
        Some(level * factor * samples * dt)
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
/// Invariant (what keeps the SIMD gathers in bounds): after `phases`
/// phases, lane `i`'s cursor is `i + drawn * lanes` with `drawn <=
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

/// The four-lane AVX2 pass of [`PowerMonitor::add_phase_energy`]. Every
/// operation of the scalar lane expression has a correctly rounded or
/// exact vector form: the division by Δt, the round (below), `sqrt`, the
/// division of σ by `√k`, the affine `1 + s·z`, the zero clamp and the
/// three multiplies in the scalar order. So the pass is bit-identical to
/// the portable one by construction, and pinned by the unit tests. It
/// exists because the portable loop does not vectorize: `f64::round` is a
/// libm call at baseline x86-64, and the per-lane early returns branch.
/// Isolated in one module so the `unsafe` SIMD surface stays small; the
/// workspace otherwise denies `unsafe_code`.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
#[deny(unsafe_op_in_unsafe_fn)]
mod avx2 {
    use super::PowerMonitor;
    use core::arch::x86_64::{
        __m256i, _mm256_add_epi64, _mm256_add_pd, _mm256_and_pd, _mm256_and_si256,
        _mm256_blendv_pd, _mm256_castpd_si256, _mm256_cmp_pd, _mm256_div_pd, _mm256_i64gather_pd,
        _mm256_loadu_pd, _mm256_loadu_si256, _mm256_max_pd, _mm256_mul_pd, _mm256_round_pd,
        _mm256_set1_epi64x, _mm256_set1_pd, _mm256_setzero_pd, _mm256_sqrt_pd, _mm256_storeu_pd,
        _mm256_storeu_si256, _mm256_sub_pd, _CMP_GE_OQ, _CMP_NLE_UQ, _CMP_NLT_UQ,
        _MM_FROUND_NO_EXC, _MM_FROUND_TO_ZERO,
    };
    use xr_types::{Joules, Seconds, Watts};

    /// Adds one phase's energy at `level` (power plus baseline) to every
    /// lane, four lanes per iteration with a scalar tail.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2. `durations`, `next` and `energy` must
    /// have the same length, and on a noisy monitor every `next[i]` must
    /// be below `normals.len()`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn add_phase_energy(
        monitor: &PowerMonitor,
        level: Watts,
        durations: &[Seconds],
        normals: &[f64],
        next: &mut [usize],
        energy: &mut [Joules],
    ) {
        let lanes = energy.len();
        let noisy = monitor.is_noisy();
        let dt = _mm256_set1_pd(monitor.sampling_interval.as_f64());
        let sigma = _mm256_set1_pd(monitor.noise_fraction);
        let level_v = _mm256_set1_pd(level.as_f64());
        let zero = _mm256_setzero_pd();
        let half = _mm256_set1_pd(0.5);
        let one = _mm256_set1_pd(1.0);
        let stride = _mm256_set1_epi64x(lanes as i64);
        let chunks = lanes / 4;
        for c in 0..chunks {
            let at = c * 4;
            // SAFETY: `at + 4 <= lanes == durations.len()`, and `Seconds`
            // is a `repr(transparent)` `f64`.
            let d = unsafe { _mm256_loadu_pd(durations.as_ptr().add(at).cast::<f64>()) };
            let q = _mm256_div_pd(d, dt);
            // `f64::round` (half away from zero) as trunc plus one when the
            // fraction is at least 1/2: for q >= 0 the fraction `q - t` is
            // exact and `t + 1` only happens below 2^52, where it is exact.
            // Infinite q gives a NaN fraction and keeps `t`; NaN stays NaN.
            // Lanes with q < 0 (d <= 0) are masked off below.
            let t = _mm256_round_pd::<{ _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC }>(q);
            let up = _mm256_cmp_pd::<_CMP_GE_OQ>(_mm256_sub_pd(q, t), half);
            let k = _mm256_add_pd(t, _mm256_and_pd(up, one));
            // `!(d <= 0) && !(k < 1)`: the scalar early returns, negated so
            // that NaN lanes stay valid exactly as they do there.
            let valid = _mm256_and_pd(
                _mm256_cmp_pd::<_CMP_NLE_UQ>(d, zero),
                _mm256_cmp_pd::<_CMP_NLT_UQ>(k, one),
            );
            let factor = if noisy {
                let cursor = next[at..at + 4].as_mut_ptr().cast::<__m256i>();
                // SAFETY: `cursor` points at four `usize`s, 64 bits each on
                // x86_64.
                let idx = unsafe { _mm256_loadu_si256(cursor) };
                // SAFETY: every cursor is below `normals.len()` (caller
                // contract), so each gathered element is in bounds.
                let z = unsafe { _mm256_i64gather_pd::<8>(normals.as_ptr(), idx) };
                let step = _mm256_and_si256(_mm256_castpd_si256(valid), stride);
                // SAFETY: the same four lanes as the load above.
                unsafe { _mm256_storeu_si256(cursor, _mm256_add_epi64(idx, step)) };
                let s = _mm256_div_pd(sigma, _mm256_sqrt_pd(k));
                // `max(x, 0)` returns its second operand for a NaN x, as
                // `f64::max(NaN, 0.0)` returns 0.
                _mm256_max_pd(_mm256_add_pd(one, _mm256_mul_pd(s, z)), zero)
            } else {
                one
            };
            let phase = _mm256_mul_pd(_mm256_mul_pd(_mm256_mul_pd(level_v, factor), k), dt);
            let out = energy[at..at + 4].as_mut_ptr().cast::<f64>();
            // SAFETY: `out` points at four `Joules`, each a
            // `repr(transparent)` `f64`.
            unsafe {
                let acc = _mm256_loadu_pd(out);
                _mm256_storeu_pd(out, _mm256_blendv_pd(acc, _mm256_add_pd(acc, phase), valid));
            }
        }
        for lane in chunks * 4..lanes {
            monitor.add_lane_energy(
                level,
                durations[lane],
                normals,
                lanes,
                &mut next[lane],
                &mut energy[lane],
            );
        }
    }
}

/// The eight-lane AVX-512 pass of [`PowerMonitor::add_phase_energy`]: the
/// AVX2 pass's operations in the same order, eight lanes per step. Lane
/// masks replace the AVX2 blend and scalar tail: a masked load and store
/// cover the last `lanes % 8` lanes, and the `valid` mask (the scalar early
/// returns, negated) gates both the cursor step and the energy store.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
#[deny(unsafe_op_in_unsafe_fn)]
mod avx512 {
    use super::PowerMonitor;
    use core::arch::x86_64::{
        __mmask8, _mm512_add_pd, _mm512_div_pd, _mm512_i64gather_pd, _mm512_mask_add_epi64,
        _mm512_mask_add_pd, _mm512_mask_cmp_pd_mask, _mm512_mask_storeu_epi64,
        _mm512_mask_storeu_pd, _mm512_maskz_loadu_epi64, _mm512_maskz_loadu_pd, _mm512_max_pd,
        _mm512_mul_pd, _mm512_roundscale_pd, _mm512_set1_epi64, _mm512_set1_pd, _mm512_setzero_pd,
        _mm512_sqrt_pd, _mm512_sub_pd, _CMP_GE_OQ, _CMP_NLE_UQ, _CMP_NLT_UQ, _MM_FROUND_NO_EXC,
        _MM_FROUND_TO_ZERO,
    };
    use xr_types::{Joules, Seconds, Watts};

    /// Adds one phase's energy at `level` (power plus baseline) to every
    /// lane, eight lanes per iteration, the last chunk masked.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX-512F and AVX-512DQ. `durations`, `next`
    /// and `energy` must have the same length, and on a noisy monitor
    /// every `next[i]` must be below `normals.len()`.
    #[target_feature(enable = "avx512f,avx512dq")]
    pub(super) unsafe fn add_phase_energy(
        monitor: &PowerMonitor,
        level: Watts,
        durations: &[Seconds],
        normals: &[f64],
        next: &mut [usize],
        energy: &mut [Joules],
    ) {
        let lanes = energy.len();
        let noisy = monitor.is_noisy();
        let dt = _mm512_set1_pd(monitor.sampling_interval.as_f64());
        let sigma = _mm512_set1_pd(monitor.noise_fraction);
        let level_v = _mm512_set1_pd(level.as_f64());
        let zero = _mm512_setzero_pd();
        let half = _mm512_set1_pd(0.5);
        let one = _mm512_set1_pd(1.0);
        let stride = _mm512_set1_epi64(lanes as i64);
        for at in (0..lanes).step_by(8) {
            // The lanes of this chunk inside the column: all eight, or the
            // low `lanes - at`.
            let mask: __mmask8 = match lanes - at {
                rest @ 0..8 => (1u8 << rest) - 1,
                _ => u8::MAX,
            };
            // SAFETY: every lane set in `mask` is below `lanes ==
            // durations.len()`, masked-off lanes are not accessed, and
            // `Seconds` is a `repr(transparent)` `f64`.
            let d =
                unsafe { _mm512_maskz_loadu_pd(mask, durations.as_ptr().add(at).cast::<f64>()) };
            let q = _mm512_div_pd(d, dt);
            // `f64::round` as in the AVX2 pass: trunc, plus one when the
            // fraction is at least 1/2.
            let t = _mm512_roundscale_pd::<{ _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC }>(q);
            let up = _mm512_mask_cmp_pd_mask::<_CMP_GE_OQ>(mask, _mm512_sub_pd(q, t), half);
            let k = _mm512_mask_add_pd(t, up, t, one);
            // `!(d <= 0) && !(k < 1)` on the lanes inside the column: the
            // scalar early returns, negated so that NaN lanes stay valid
            // exactly as they do there.
            let valid = _mm512_mask_cmp_pd_mask::<_CMP_NLE_UQ>(mask, d, zero)
                & _mm512_mask_cmp_pd_mask::<_CMP_NLT_UQ>(mask, k, one);
            let factor = if noisy {
                let cursor = next[at..].as_mut_ptr().cast::<i64>();
                // SAFETY: as for the duration load; `usize` is 64 bits on
                // x86_64.
                let idx = unsafe { _mm512_maskz_loadu_epi64(mask, cursor) };
                // SAFETY: every cursor is below `normals.len()` (caller
                // contract), and the masked-off lanes index 0, which is in
                // bounds too: a noisy monitor with lanes has variates.
                let z = unsafe { _mm512_i64gather_pd::<8>(idx, normals.as_ptr()) };
                let step = _mm512_mask_add_epi64(idx, valid, idx, stride);
                // SAFETY: the same lanes as the load above.
                unsafe { _mm512_mask_storeu_epi64(cursor, mask, step) };
                let s = _mm512_div_pd(sigma, _mm512_sqrt_pd(k));
                // `max(x, 0)` returns its second operand for a NaN x, as
                // `f64::max(NaN, 0.0)` returns 0.
                _mm512_max_pd(_mm512_add_pd(one, _mm512_mul_pd(s, z)), zero)
            } else {
                one
            };
            let phase = _mm512_mul_pd(_mm512_mul_pd(_mm512_mul_pd(level_v, factor), k), dt);
            let out = energy[at..].as_mut_ptr().cast::<f64>();
            // SAFETY: as for the duration load; `Joules` is a
            // `repr(transparent)` `f64`, and `valid` lies inside `mask`.
            unsafe {
                let acc = _mm512_maskz_loadu_pd(mask, out);
                _mm512_mask_storeu_pd(out, valid, _mm512_add_pd(acc, phase));
            }
        }
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
            rand_distr::column::fill_standard_normal_pair(&raw_a, &raw_b, cos, sin);
        }
        normals
    }

    /// Integrates a whole batch through the column form, one
    /// `add_phase_energy` call per phase: `Some(tier)` runs that tier's
    /// pass, `None` the dispatched one.
    fn energy_columns(
        monitor: &PowerMonitor,
        tier: Option<Tier>,
        phases: &[(Watts, &[Seconds])],
        baseline: Watts,
        normals: &[f64],
    ) -> Vec<Joules> {
        let lanes = phases.first().map_or(0, |(_, column)| column.len());
        let mut cursors = DrawCursors::default();
        cursors.rewind(lanes);
        let mut energy = vec![Joules::ZERO; lanes];
        for &phase in phases {
            match tier {
                Some(tier) => monitor.add_phase_energy_at(
                    tier,
                    phase,
                    baseline,
                    normals,
                    &mut cursors,
                    &mut energy,
                ),
                None => {
                    monitor.add_phase_energy(phase, baseline, normals, &mut cursors, &mut energy);
                }
            }
        }
        energy
    }

    /// Asserts that every column pass (each tier the CPU runs, then the
    /// dispatched one) gives each lane exactly the per-frame
    /// `measure_energy` of its phases and stream. Bits must match, except
    /// that any two NaNs match: Rust leaves NaN payloads unspecified.
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
        let tiers = Tier::ALL.into_iter().filter(|tier| tier.supported());
        for tier in tiers.map(Some).chain([None]) {
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
