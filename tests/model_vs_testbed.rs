//! Validation of the analytical framework against the simulated testbed —
//! the integration-level counterpart of §VIII-A/B.

use xr_experiments::figures::{energy_sweep, latency_sweep};
use xr_experiments::ExperimentContext;
use xr_integration::evaluation_scenario;
use xr_testbed::{GroundTruthSession, TestbedSimulator};
use xr_types::ExecutionTarget;

/// Population standard deviation of a session's per-frame total latency.
fn latency_spread(session: &GroundTruthSession) -> f64 {
    let frames = session.frames();
    let mean = frames.iter().map(|f| f.total_latency.as_f64()).sum::<f64>() / frames.len() as f64;
    let variance = frames
        .iter()
        .map(|f| (f.total_latency.as_f64() - mean).powi(2))
        .sum::<f64>()
        / frames.len() as f64;
    variance.sqrt()
}

#[test]
fn calibrated_model_tracks_ground_truth_across_the_full_sweep() {
    let ctx = ExperimentContext::quick(101).unwrap();
    for target in [ExecutionTarget::Local, ExecutionTarget::Remote] {
        let latency = latency_sweep(&ctx, target).unwrap();
        assert!(
            latency.mean_error_percent() < 15.0,
            "{target}: latency mean error {}%",
            latency.mean_error_percent()
        );
        let energy = energy_sweep(&ctx, target).unwrap();
        assert!(
            energy.mean_error_percent() < 20.0,
            "{target}: energy mean error {}%",
            energy.mean_error_percent()
        );
    }
}

#[test]
fn ground_truth_and_model_agree_on_the_clock_frequency_ordering() {
    let ctx = ExperimentContext::quick(102).unwrap();
    let sweep = latency_sweep(&ctx, ExecutionTarget::Local).unwrap();
    for size in ExperimentContext::FRAME_SIZES {
        let at = |clock: f64| {
            sweep
                .points
                .iter()
                .find(|p| {
                    (p.cpu_clock_ghz - clock).abs() < 1e-9 && (p.frame_size - size).abs() < 1e-9
                })
                .copied()
                .unwrap()
        };
        let (one, three) = (at(1.0), at(3.0));
        assert!(
            one.ground_truth > three.ground_truth,
            "GT ordering at {size}"
        );
        assert!(one.proposed > three.proposed, "model ordering at {size}");
    }
}

#[test]
fn per_segment_ground_truth_matches_model_structure() {
    // The testbed and the model must agree on which segments run under each
    // execution target — otherwise the error metrics compare apples to
    // oranges.
    let testbed = TestbedSimulator::new(103);
    let model = xr_core::LatencyModel::published();
    for target in [ExecutionTarget::Local, ExecutionTarget::Remote] {
        let scenario = evaluation_scenario(500.0, 2.0, target);
        let session = testbed.simulate_session(&scenario, 1).unwrap();
        let gt = &session.frames()[0];
        let analytic = model.analyze(&scenario).unwrap();
        for segment in xr_types::Segment::ALL {
            let gt_runs = gt.segment_latency(segment).as_f64() > 0.0;
            let model_runs = analytic.segment(segment).as_f64() > 0.0;
            assert_eq!(gt_runs, model_runs, "{target}: segment {segment} mismatch");
        }
    }
}

#[test]
fn session_noise_shrinks_with_more_frames() {
    let testbed = TestbedSimulator::new(104);
    let scenario = evaluation_scenario(500.0, 2.0, ExecutionTarget::Local);
    let short = testbed.simulate_session(&scenario, 5).unwrap();
    let long = testbed.simulate_session(&scenario, 80).unwrap();
    // Means from the longer session are closer to each other than the spread
    // of the short one — a loose but meaningful convergence check.
    let short_spread = latency_spread(&short);
    let long_spread = latency_spread(&long);
    assert!(long_spread < short_spread * 3.0);
    assert!(long.mean_latency().as_f64() > 0.0);
}

#[test]
fn regression_refit_beats_published_coefficients_on_the_simulated_testbed() {
    // The calibrated (refit) model should track the simulated ground truth at
    // least as well as the paper's published coefficients, which were fitted
    // on different (real) hardware.
    let ctx = ExperimentContext::quick(105).unwrap();
    let scenario = evaluation_scenario(500.0, 2.0, ExecutionTarget::Local);
    let gt = ctx
        .testbed()
        .simulate_session(&scenario, 40)
        .unwrap()
        .mean_latency()
        .as_f64();
    let calibrated = ctx
        .proposed()
        .analyze(&scenario)
        .unwrap()
        .latency
        .total()
        .as_f64();
    let published = xr_core::XrPerformanceModel::published()
        .analyze(&scenario)
        .unwrap()
        .latency
        .total()
        .as_f64();
    let err = |v: f64| ((v - gt) / gt).abs();
    assert!(
        err(calibrated) <= err(published) + 0.02,
        "calibrated error {} vs published error {}",
        err(calibrated),
        err(published)
    );
}
