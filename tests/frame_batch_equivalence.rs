//! The batched frame engine's contract: for every scenario, seed, session
//! length, and batch width — including widths that do not divide the frame
//! count — the structure-of-arrays engine produces a `GroundTruthFrame`
//! stream **bit-identical** to the scalar frame-by-frame reference.
//!
//! This is the property that makes per-stage RNG streams load-bearing: a
//! stage's draws depend only on `(session_seed, stage_id, frame_index)`,
//! never on the evaluation order, so the two engines must agree on every
//! `f64` they emit, not just statistically.

use proptest::prelude::*;
use xr_core::{CheckedScenario, MobilityConfig, Scenario};
use xr_integration::EngineCase;
use xr_testbed::{SimulationEngine, TestbedSimulator};
use xr_types::{ExecutionTarget, GigaHertz, Meters, MetersPerSecond};
use xr_wireless::HandoffKind;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn batched_sessions_are_bit_identical_to_the_scalar_reference(
        size in 300.0..700.0_f64,
        clock in 1.0..3.2_f64,
        share in 0.0..1.0_f64,
        fps in 15.0..60.0_f64,
        target in prop::sample::select(vec![0u8, 1, 2]),
        updates in 1u32..8,
        speed in 0.0..30.0_f64,
        radius in 5.0..60.0_f64,
        seed in 0u64..1_000_000,
        frames in 1u64..64,
        width in 1usize..80,
        users in prop::sample::select(vec![0u32, 1, 2, 3, 5]),
        layout in prop::sample::select(vec![0u8, 1, 2, 3]),
        density in 50.0..3000.0_f64,
        lazy in prop::sample::select(vec![false, true]),
    ) {
        let case = EngineCase {
            size, clock, share, fps, target, updates, speed, radius, users, layout, density, lazy,
        };
        let scenario = case.plain();
        let testbed = TestbedSimulator::new(seed);
        let at_width = testbed.clone().with_engine(SimulationEngine::Batched { width });
        let scalar = testbed.simulate_session_scalar(&scenario, frames).unwrap();
        let batched = at_width.simulate_session(&scenario, frames).unwrap();
        // Bit-identity, not approximate agreement: `GroundTruthFrame`
        // derives `PartialEq` over its raw f64 measurements.
        prop_assert!(
            batched == scalar,
            "engines diverged (frames {frames}, width {width})"
        );
        // The default dispatch (batched at the default width) agrees too.
        let default = testbed.simulate_session(&scenario, frames).unwrap();
        prop_assert_eq!(&default, &scalar);
        // And an explicitly configured scalar engine round-trips through
        // the public dispatch.
        let via_engine = testbed
            .clone()
            .with_engine(SimulationEngine::Scalar)
            .simulate_session(&scenario, frames)
            .unwrap();
        prop_assert_eq!(&via_engine, &scalar);

        // Multi-tenant contention: the same property with the edge shared
        // by `users` sessions (0 keeps contention off — covered above).
        // The generator produces a mix of stable queues and saturated
        // ones; a saturated queue must refuse to run identically in both
        // engines.
        if let Some(contended) = case.contended() {
            match testbed.simulate_session_scalar(&contended, frames) {
                Ok(scalar) => {
                    let batched = at_width.simulate_session(&contended, frames).unwrap();
                    prop_assert!(
                        batched == scalar,
                        "contended engines diverged (users {users}, frames {frames}, width {width})"
                    );
                }
                Err(scalar_err) => {
                    let batched_err = at_width.simulate_session(&contended, frames).unwrap_err();
                    // A saturated queue must refuse identically in both
                    // engines.
                    prop_assert_eq!(format!("{scalar_err:?}"), format!("{batched_err:?}"));
                }
            }
        }

        // Edge topology: the same property with the session roaming a
        // multi-site map — random layout, site density, migration policy,
        // and (sometimes) per-site contention. Saturation of a *site's*
        // queue (tenant populations cycle around the base) must refuse
        // identically in both engines too.
        let topologized = case.topologized();
        match testbed.simulate_session_scalar(&topologized, frames) {
            Ok(scalar) => {
                let batched = at_width.simulate_session(&topologized, frames).unwrap();
                prop_assert!(
                    batched == scalar,
                    "topologized engines diverged (layout {layout}, density {density}, frames {frames}, width {width})"
                );
            }
            Err(scalar_err) => {
                let batched_err = at_width.simulate_session(&topologized, frames).unwrap_err();
                prop_assert_eq!(format!("{scalar_err:?}"), format!("{batched_err:?}"));
            }
        }
    }
}

#[test]
fn multi_server_uplink_keeps_the_pair_parity_across_engines() {
    // The uplink stage draws one lognormal noise factor per edge server
    // from a single per-frame stream: even-indexed servers consume a fresh
    // Box–Muller pair (cosine half), odd-indexed servers reuse the cached
    // sine half — with a uniform jitter word interleaved between servers.
    // Odd and even server counts end the frame in different cache states,
    // so run both against the scalar reference at awkward widths.
    let mut cases: Vec<(String, CheckedScenario, u64, u64, &[usize])> = Vec::new();
    for server_count in [1usize, 2, 3, 4, 5] {
        let servers: Vec<_> = (0..server_count)
            .map(|i| {
                let mut server = xr_core::EdgeServerConfig::jetson_xavier();
                server.task_share = 1.0 / (i + 1) as f64;
                server.distance = Meters::new(10.0 + 5.0 * i as f64);
                server
            })
            .collect();
        let scenario = Scenario::builder()
            .frame_side(512.0)
            .execution(ExecutionTarget::Remote)
            .edge_servers(servers)
            .build()
            .expect("multi-server scenario is valid");
        let label = format!("{server_count} servers");
        cases.push((label, scenario, 4242, 70, &[1, 7, 64, 128]));
    }
    // The three shapes campaigns sweep most (local, remote, remote on a
    // moving device) at 512 frames, where the proptest above never goes:
    // widths of 256 and 512 lanes, and a session that runs a second
    // 256-lane batch.
    let shape = |execution| {
        Scenario::builder()
            .frame_side(500.0)
            .cpu_clock(GigaHertz::new(2.0))
            .execution(execution)
    };
    let mobile = shape(ExecutionTarget::Remote).mobility(MobilityConfig {
        speed: MetersPerSecond::new(25.0),
        coverage_radius: Meters::new(10.0),
        handoff_kind: HandoffKind::Vertical,
    });
    for (label, builder) in [
        ("local", shape(ExecutionTarget::Local)),
        ("remote", shape(ExecutionTarget::Remote)),
        ("mobile", mobile),
    ] {
        let scenario = builder.build().expect("shape scenario is valid");
        cases.push((label.into(), scenario, 2024, 512, &[1, 7, 64, 256, 512]));
    }
    for (label, scenario, seed, frames, widths) in cases {
        let testbed = TestbedSimulator::new(seed);
        let scalar = testbed.simulate_session_scalar(&scenario, frames).unwrap();
        for &width in widths {
            let batched = testbed
                .clone()
                .with_engine(SimulationEngine::Batched { width })
                .simulate_session(&scenario, frames)
                .unwrap();
            assert_eq!(
                batched, scalar,
                "{label}: engines diverged over {frames} frames at width {width}"
            );
        }
    }
}
