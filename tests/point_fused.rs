//! The point engine's contract: for every scenario, point seed,
//! replication count, session length, and batch width, `simulate_point`
//! produces exactly the sessions that R standalone runs of the scalar
//! reference engine produce — bit-identical, not statistically equal.
//!
//! The batched engine always fuses a point's replications: each pass
//! gives every replication an equal segment of the batch width, so the
//! widths and session lengths below cover one-pass points, multi-pass
//! points with a shorter tail pass, and segments clamped to one lane.
//! Fusion is safe for the same reason batching is: a draw depends only on
//! `(replication_seed, stage_id, frame_index)`. Error behaviour must match
//! too: a point whose scenario saturates a queue refuses identically.

use proptest::prelude::*;
use xr_core::{CheckedScenario, MobilityConfig, Scenario};
use xr_integration::EngineCase;
use xr_testbed::{
    GroundTruthSession, SessionTotals, SimulationEngine, TestbedSimulator, DEFAULT_BATCH_WIDTH,
};
use xr_types::{ExecutionTarget, Hertz, Meters, MetersPerSecond};
use xr_wireless::HandoffKind;

/// The scalar oracle: one standalone scalar-engine session per replication
/// seed of the point.
fn scalar_sessions(
    testbed: &TestbedSimulator,
    scenario: &CheckedScenario,
    point_seed: u64,
    reps: usize,
    frames: u64,
) -> xr_types::Result<Vec<GroundTruthSession>> {
    (0..reps)
        .map(|rep| {
            testbed
                .reseeded(xr_types::seed::mix(point_seed, rep as u64))
                .simulate_session_scalar(scenario, frames)
        })
        .collect()
}

/// Asserts that `simulate_point` and the scalar oracle agree on `scenario`
/// — on every frame when the point is simulable, on the refusal when it is
/// not.
fn assert_fused_matches_per_rep(
    fused: &TestbedSimulator,
    scenario: &CheckedScenario,
    point_seed: u64,
    reps: usize,
    frames: u64,
    label: &str,
) -> Result<(), TestCaseError> {
    let per_rep = scalar_sessions(fused, scenario, point_seed, reps, frames);
    match (
        fused.simulate_point(scenario, point_seed, reps, frames),
        per_rep,
    ) {
        (Ok(fused_sessions), Ok(reference_sessions)) => {
            prop_assert!(
                fused_sessions == reference_sessions,
                "point diverged from the scalar sessions ({label})"
            );
        }
        (Err(fused_err), Err(reference_err)) => {
            prop_assert!(
                format!("{fused_err:?}") == format!("{reference_err:?}"),
                "point refused differently ({label}): {fused_err:?} vs {reference_err:?}"
            );
        }
        (fused, reference) => {
            return Err(TestCaseError::fail(format!(
                "one path failed where the other succeeded ({label}): point {} vs scalar {}",
                if fused.is_ok() { "ok" } else { "err" },
                if reference.is_ok() { "ok" } else { "err" },
            )));
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn fused_points_are_bit_identical_to_per_rep_sessions(
        size in 300.0..700.0_f64,
        clock in 1.0..3.2_f64,
        share in 0.0..1.0_f64,
        fps in 15.0..60.0_f64,
        target in prop::sample::select(vec![0u8, 1, 2]),
        updates in 1u32..8,
        speed in 0.0..30.0_f64,
        radius in 5.0..60.0_f64,
        point_seed in 0u64..1_000_000,
        frames in 1u64..48,
        reps in 1usize..9,
        width in prop::sample::select(vec![1usize, 7, 64, 256]),
        users in prop::sample::select(vec![0u32, 1, 2, 3, 5]),
        layout in prop::sample::select(vec![0u8, 1, 2, 3]),
        density in 50.0..3000.0_f64,
        lazy in prop::sample::select(vec![false, true]),
    ) {
        // Sessions of 1..48 frames against widths 1..256 run in one pass
        // or in several, with segments down to one lane.
        let fused = TestbedSimulator::new(9).with_engine(SimulationEngine::Batched { width });

        let case = EngineCase {
            size, clock, share, fps, target, updates, speed, radius, users, layout, density, lazy,
        };
        assert_fused_matches_per_rep(
            &fused, &case.plain(), point_seed, reps, frames,
            &format!("plain, reps {reps}, width {width}, frames {frames}"),
        )?;

        // Multi-tenant contention, with a mix of stable and saturated
        // queues (a saturated point must refuse identically on both
        // paths).
        if let Some(contended) = case.contended() {
            assert_fused_matches_per_rep(
                &fused, &contended, point_seed, reps, frames,
                &format!("contended, users {users}, reps {reps}, width {width}"),
            )?;
        }

        // Edge topology: per-rep walkers and migration state live in
        // rep-indexed banks on the fused path, so roaming sessions are the
        // sharpest divergence detector.
        let topologized = case.topologized();
        assert_fused_matches_per_rep(
            &fused, &topologized, point_seed, reps, frames,
            &format!("topologized layout {layout}, density {density:.0}, reps {reps}, width {width}"),
        )?;
    }
}

#[test]
fn tail_frames_and_narrow_widths_fuse_exactly() {
    // Deterministic corners the proptest may not pin every run: a lane
    // budget narrower than the rep count (per-rep width clamps to 1), a
    // tail where the last pass is shorter than the others, R=1 (a point is
    // one standalone session), sessions around one segment's lane share,
    // and multi-rep sessions spanning many passes at the default width —
    // a roaming, contended one among them, whose walkers and migration
    // clocks carry across every pass boundary.
    let testbed = TestbedSimulator::new(4242);
    let plain = Scenario::builder()
        .frame_side(512.0)
        .execution(ExecutionTarget::Remote)
        .build()
        .expect("scenario is valid");
    // At 6 fps a frame window is not a whole number of walker steps, so
    // each walker carries a fractional step across every pass boundary.
    let roaming = Scenario::builder()
        .frame_side(300.0)
        .frame_rate(Hertz::new(6.0))
        .execution(ExecutionTarget::Remote)
        .contention(3)
        .topology(xr_core::TopologyConfig {
            layout: xr_types::TopologyLayout::Hex,
            site_density: 1600.0,
            migration_policy: xr_types::MigrationPolicy::Lazy,
        })
        .mobility(MobilityConfig {
            speed: MetersPerSecond::new(25.0),
            coverage_radius: Meters::new(8.0),
            handoff_kind: HandoffKind::Vertical,
        })
        .build()
        .expect("roaming scenario is valid");
    let default = DEFAULT_BATCH_WIDTH;
    for (label, scenario, reps, frames, width) in [
        ("plain", &plain, 5usize, 13u64, 2usize),
        ("plain", &plain, 3, 1, 256),
        ("plain", &plain, 8, 19, 7),
        ("plain", &plain, 1, 33, 64),
        ("plain", &plain, 4, 20, 4),
        ("plain", &plain, 5, 13, 14),
        ("plain", &plain, 5, 13, 13),
        ("plain", &plain, 5, 13, 12),
        ("plain", &plain, 3, 255, 256),
        ("plain", &plain, 3, 256, 256),
        ("plain", &plain, 3, 257, 256),
        ("plain", &plain, 4, 600, default),
        ("roaming", &roaming, 4, 300, default),
        ("roaming", &roaming, 3, 1000, default),
    ] {
        let point_seed = 77_000 + reps as u64;
        let context = format!("{label}, reps {reps}, frames {frames}, width {width}");
        let engine = testbed
            .clone()
            .with_engine(SimulationEngine::Batched { width });
        let sessions = engine
            .simulate_point(scenario, point_seed, reps, frames)
            .unwrap();
        let reference = scalar_sessions(&testbed, scenario, point_seed, reps, frames).unwrap();
        assert_eq!(sessions.len(), reps);
        for (rep, (session, standalone)) in sessions.iter().zip(&reference).enumerate() {
            assert_eq!(session, standalone, "rep {rep} diverged ({context})");
        }
        if label == "roaming" {
            assert!(
                reference.iter().all(|session| session.sites_visited() > 1),
                "a roaming replication never migrated ({context})"
            );
        }
        // The campaign's totals are the same sessions' totals, one per
        // replication, in replication order.
        let mut totals = Vec::new();
        engine
            .point_totals(scenario, point_seed, reps, frames, &mut totals)
            .unwrap();
        let expected: Vec<_> = reference.iter().map(SessionTotals::of).collect();
        assert_eq!(totals, expected, "totals diverged ({context})");
        for (totals, session) in totals.iter().zip(&reference) {
            assert_eq!(
                totals.mean_latency().as_f64().to_bits(),
                session.mean_latency().as_f64().to_bits()
            );
            assert_eq!(
                totals.mean_energy().as_f64().to_bits(),
                session.mean_energy().as_f64().to_bits()
            );
        }
    }
}
