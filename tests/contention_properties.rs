//! Property harness pinning the multi-tenant contention pipeline against
//! M/M/1 closed form.
//!
//! The contended edge stage deliberately draws its sojourn **without** a
//! measurement-noise factor, so the simulated remote-inference segment of a
//! noiseless testbed is a raw sample of the shared queue's sojourn
//! distribution — its empirical mean must converge to
//! `MM1Queue::mean_time_in_system` at the Monte-Carlo rate, with the
//! tolerance scaled like a confidence interval (`k·σ/√n`, and an
//! exponential's σ equals its mean). A lone tenant at negligible load must
//! reproduce the uncontended pipeline: the queue term collapses to the
//! deterministic service time, and every other segment is bit-identical
//! because each pipeline stage owns a private RNG stream.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rand_distr::{Distribution, Exp};
use xr_core::{CheckedScenario, Scenario};
use xr_queueing::MM1Queue;
use xr_testbed::TestbedSimulator;
use xr_types::{ExecutionTarget, Hertz, Segment};

fn contended_scenario(users: u32, rate_hz: f64) -> CheckedScenario {
    Scenario::builder()
        .execution(ExecutionTarget::Remote)
        .frame_side(300.0)
        .frame_rate(Hertz::new(rate_hz))
        .contention(users)
        .build()
        .expect("contended scenario is valid")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // For random `(λ, µ)` with `ρ < 0.9`, the empirical mean of sojourn
    // draws converges to the closed-form `1/(µ − λ)`.
    #[test]
    fn empirical_sojourn_converges_to_the_closed_form(
        mu in 0.5..500.0_f64,
        rho in 0.05..0.9_f64,
        seed in 0u64..1_000_000,
    ) {
        let lambda = rho * mu;
        let queue = MM1Queue::new(lambda, mu).unwrap();
        let closed = queue.mean_time_in_system().as_f64();
        let n = 20_000usize;
        let sojourn = Exp::new(mu - lambda).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let mean = (0..n).map(|_| sojourn.sample(&mut rng)).sum::<f64>() / n as f64;
        let tolerance = 5.0 * closed / (n as f64).sqrt();
        prop_assert!(
            (mean - closed).abs() < tolerance,
            "empirical {mean} vs closed form {closed} (ρ = {rho:.3}, tolerance {tolerance})"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // The simulated contended remote stage is itself such a sample: for
    // populations keeping `ρ < 0.9`, the session's mean remote-inference
    // latency converges to the snapshot's analytic mean contention delay.
    #[test]
    fn contended_remote_stage_converges_to_the_closed_form(
        users in 1u32..9,
        seed in 0u64..1_000_000,
    ) {
        let scenario = contended_scenario(users, 5.0);
        let testbed = TestbedSimulator::new(seed).with_noise(0.0);
        let snapshot = testbed
            .contention_snapshot(&scenario)
            .unwrap()
            .expect("contention configured");
        prop_assert!(snapshot.utilization() < 0.9, "sweep must stay stable");
        let closed = snapshot.mean_contention_delay().as_f64();
        let frames = 4_000u64;
        let session = testbed.simulate_session(&scenario, frames).unwrap();
        let mean = session
            .mean_segment_latency(Segment::RemoteInference)
            .as_f64();
        #[allow(clippy::cast_precision_loss)]
        let tolerance = 5.0 * closed / (frames as f64).sqrt();
        prop_assert!(
            (mean - closed).abs() < tolerance,
            "simulated {mean} vs closed form {closed} ({users} users, tolerance {tolerance})"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // A single tenant at negligible load reproduces the uncontended
    // pipeline: the remote stage collapses to the deterministic service
    // time (within the CI-scaled Monte-Carlo tolerance plus the `ρ/(1−ρ)`
    // queueing excess) and every other segment matches bit for bit.
    #[test]
    fn a_lone_light_tenant_reproduces_the_uncontended_latencies(
        seed in 0u64..1_000_000,
    ) {
        let contended = contended_scenario(1, 0.5);
        let mut uncontended = contended.clone().into_inner();
        uncontended.contention = None;
        let uncontended = CheckedScenario::new(uncontended).expect("uncontended scenario is valid");
        let testbed = TestbedSimulator::new(seed).with_noise(0.0);
        let snapshot = testbed
            .contention_snapshot(&contended)
            .unwrap()
            .expect("contention configured");
        let rho = snapshot.utilization();
        prop_assert!(rho < 0.02, "0.5 fps must be negligible load, got ρ = {rho}");

        let frames = 4_000u64;
        let with_queue = testbed.simulate_session(&contended, frames).unwrap();
        let without = testbed.simulate_session(&uncontended, frames).unwrap();

        // The noiseless uncontended remote stage is the deterministic
        // service time the queue was built on.
        let service = without
            .mean_segment_latency(Segment::RemoteInference)
            .as_f64();
        let bottleneck = snapshot.bottleneck();
        prop_assert!((service - bottleneck.service_time().as_f64()).abs() < 1e-15);

        let queued = with_queue
            .mean_segment_latency(Segment::RemoteInference)
            .as_f64();
        #[allow(clippy::cast_precision_loss)]
        let tolerance = service * (5.0 / (frames as f64).sqrt() + rho / (1.0 - rho));
        prop_assert!(
            (queued - service).abs() < tolerance,
            "light-load queue {queued} vs service time {service} (tolerance {tolerance})"
        );

        // Stream isolation: contention only touches the remote term. Every
        // other segment — including transmission, whose jitter shares the
        // UPLINK_EDGE stream — is bit-identical between the two sessions.
        for segment in Segment::ALL {
            if segment == Segment::RemoteInference {
                continue;
            }
            prop_assert!(
                with_queue.mean_segment_latency(segment) == without.mean_segment_latency(segment),
                "segment {segment:?} diverged under a light lone tenant"
            );
        }
        // Consequently the end-to-end gap is exactly the remote gap.
        let total_gap =
            with_queue.mean_latency().as_f64() - without.mean_latency().as_f64();
        prop_assert!((total_gap - (queued - service)).abs() < 1e-12);
    }
}
