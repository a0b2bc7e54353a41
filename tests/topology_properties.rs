//! Property harness for the multi-site edge topology: the single-site map
//! must be invisible, and the per-site contention queues must match M/M/1
//! closed form.
//!
//! Four contracts pin the topology generalisation to the legacy
//! single-zone stack:
//!
//! 1. **Walker equivalence.** Over [`EdgeTopology::single`] the
//!    [`TopologyWalker`] replays [`RandomWalker`] on the same RNG stream
//!    bit for bit — same positions, same crossing counts, and the stream
//!    itself left in the same state (checked by drawing more steps from
//!    both afterwards).
//! 2. **Session equivalence.** A scenario whose topology is the explicit
//!    `Single` layout produces a `GroundTruthSession` bit-identical to the
//!    same scenario with no topology at all, in both engines, with and
//!    without contention (the single site hosts exactly `users_per_edge`
//!    tenants, so its per-site queue equals the base queue).
//! 3. **Per-site queue closed form.** A static session attached to one
//!    site of a tiled map draws its remote stage from that site's M/M/1
//!    queue: over many frames the noiseless empirical mean converges to
//!    the snapshot's per-site analytic mean sojourn at the Monte-Carlo
//!    rate, exactly as `tests/contention_properties.rs` pins the
//!    single-queue stage against `MM1Queue::mean_time_in_system`.
//! 4. **Walk oracle.** Every session walks a [`TopologyWalker`], so
//!    contract 2 compares that walk with itself. An untopologized mobile
//!    session is therefore also checked against an independent replay: a
//!    [`RandomWalker`] over the coverage zone, on the session's walker
//!    stream, advanced one frame window per frame. Every frame hands off
//!    exactly when the replay crosses, in the scalar engine, the batched
//!    engine with a tail batch, and a fused three-replication point.

use proptest::prelude::*;
use xr_core::{MobilityConfig, Scenario, TopologyConfig};
use xr_testbed::simulator::stream;
use xr_testbed::{GroundTruthSession, SimulationEngine, TestbedSimulator};
use xr_types::seed::{mix, stage_stream_seed};
use xr_types::{
    ExecutionTarget, Hertz, Meters, MetersPerSecond, MigrationPolicy, Seconds, Segment,
    TopologyLayout,
};
use xr_wireless::{
    AccessTechnology, CoverageZone, EdgeTopology, HandoffKind, RandomWalkMobility, RandomWalker,
};

fn mobile_scenario(speed: f64, radius: f64, users: Option<u32>) -> Scenario {
    let mut builder = Scenario::builder()
        .execution(ExecutionTarget::Remote)
        .frame_side(300.0)
        .frame_rate(Hertz::new(5.0))
        .mobility(MobilityConfig {
            speed: MetersPerSecond::new(speed),
            coverage_radius: Meters::new(radius),
            handoff_kind: HandoffKind::Horizontal,
        });
    if let Some(users) = users {
        builder = builder.contention(users);
    }
    builder.build().expect("scenario is valid")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    // Contract 1: the single-site TopologyWalker replays RandomWalker on
    // the same stream — positions, crossings, and the stream itself.
    #[test]
    fn single_site_walker_replays_the_legacy_walker(
        speed in 0.5..40.0_f64,
        radius in 3.0..60.0_f64,
        seed in 0u64..1_000_000,
        windows in prop::collection::vec(0.0..2.5_f64, 1..60),
    ) {
        let step_interval = Seconds::new(1.0);
        let zone = CoverageZone::new(Meters::new(radius));
        let mobility =
            RandomWalkMobility::new(MetersPerSecond::new(speed), step_interval, zone);
        let mut legacy = RandomWalker::new(&mobility, seed);
        let map = EdgeTopology::single(zone, AccessTechnology::WiFi5GHz, 1);
        let mut topo = map.walker(MetersPerSecond::new(speed), step_interval, seed);

        for (i, &w) in windows.iter().enumerate() {
            let window = Seconds::new(w);
            let crossings = legacy.advance(window);
            let events = topo.advance(window);
            prop_assert!(
                events.crossings == crossings,
                "crossing counts diverged at window {}", i
            );
            prop_assert!(events.migrations == 0, "a 1-site map cannot migrate");
            prop_assert_eq!(events.site, 0);
            prop_assert!(
                (legacy.radius().as_f64() - topo.radius().as_f64()).abs() < 1e-12,
                "positions diverged at window {}: legacy r {} vs topology r {}",
                i, legacy.radius().as_f64(), topo.radius().as_f64()
            );
        }
        prop_assert_eq!(topo.site_index(), 0);
        prop_assert_eq!(topo.sites_visited(), 1);
        // The RNG streams are in lockstep: further draws agree bit for bit.
        for _ in 0..16 {
            prop_assert!(legacy.step() == topo.step(), "streams fell out of lockstep");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // Contract 2: the explicit Single layout is invisible — same session,
    // bit for bit, in both engines, contended or not.
    #[test]
    fn single_layout_sessions_match_the_untopologized_reference(
        speed in 0.0..35.0_f64,
        radius in 4.0..40.0_f64,
        seed in 0u64..1_000_000,
        frames in 1u64..96,
        width in 1usize..64,
        users in prop::sample::select(vec![0u32, 1, 3, 5]),
    ) {
        let users = (users > 0).then_some(users);
        let legacy = mobile_scenario(speed, radius, users);
        let mut single = legacy.clone();
        single.topology = Some(TopologyConfig {
            layout: TopologyLayout::Single,
            site_density: 0.0,
            migration_policy: MigrationPolicy::Eager,
        });
        let testbed = TestbedSimulator::new(seed);
        let reference = testbed.simulate_session_scalar(&legacy, frames).unwrap();
        let scalar = testbed.simulate_session_scalar(&single, frames).unwrap();
        prop_assert!(scalar == reference, "scalar single-layout session diverged");
        prop_assert_eq!(scalar.sites_visited(), 1);
        prop_assert!(scalar.migration_time() == Seconds::ZERO);
        let batched = testbed
            .with_engine(SimulationEngine::Batched { width })
            .simulate_session(&single, frames)
            .unwrap();
        prop_assert!(batched == reference, "batched single-layout session diverged");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    // Contract 3: a static session on a tiled map draws its remote stage
    // from its start site's repopulated M/M/1 queue — the noiseless
    // empirical mean converges to that site's analytic mean sojourn.
    #[test]
    fn static_site_queue_converges_to_the_per_site_closed_form(
        users in 2u32..8,
        density in 100.0..2500.0_f64,
        seed in 0u64..1_000_000,
    ) {
        let mut scenario = mobile_scenario(0.0, 30.0, Some(users));
        scenario.topology = Some(TopologyConfig {
            layout: TopologyLayout::Square,
            site_density: density,
            migration_policy: MigrationPolicy::Eager,
        });
        scenario.validate().expect("topologized scenario is valid");
        let testbed = TestbedSimulator::new(seed).with_noise(0.0);
        let snapshot = testbed
            .contention_snapshot(&scenario)
            .unwrap()
            .expect("contention configured");
        let map =
            TestbedSimulator::edge_topology(&scenario).expect("topology configured");
        let start = map.start_site();
        let (tenants, queues) = &snapshot.site_queues()[start];
        prop_assert_eq!(*tenants, map.sites()[start].tenants());
        // The site's analytic mean contention delay: the max over the
        // scenario's edge servers of the tagged session's weighted mean
        // sojourn, mirroring ContentionSnapshot::mean_contention_delay.
        let closed = queues
            .iter()
            .fold(0.0_f64, |acc, &(weight, contention)| {
                acc.max(contention.mean_sojourn().as_f64() * weight)
            });
        prop_assert!(closed > 0.0);
        let frames = 4_000u64;
        let session = testbed.simulate_session(&scenario, frames).unwrap();
        let mean = session
            .mean_segment_latency(Segment::RemoteInference)
            .as_f64();
        #[allow(clippy::cast_precision_loss)]
        let tolerance = 5.0 * closed / (frames as f64).sqrt();
        prop_assert!(
            (mean - closed).abs() < tolerance,
            "simulated {} vs site closed form {} ({} tenants, tolerance {})",
            mean, closed, tenants, tolerance
        );
    }
}

/// Contract 4's oracle: which frames of a session seeded `session_seed`
/// cross the coverage boundary, replayed on a [`RandomWalker`] that shares
/// no code with the testbed's walk. The walker stream, the uniform start and
/// the 0.1 s walk step are the testbed's documented walk.
fn replayed_handoffs(scenario: &Scenario, session_seed: u64, frames: u64) -> Vec<bool> {
    let mobility = RandomWalkMobility::new(
        scenario.mobility.speed,
        Seconds::new(0.1),
        CoverageZone::new(scenario.mobility.coverage_radius),
    );
    let mut walker = RandomWalker::new(
        &mobility,
        stage_stream_seed(session_seed, stream::WALKER, 0),
    );
    walker.reset_uniform();
    (0..frames)
        .map(|_| walker.advance(scenario.frame_window()) > 0)
        .collect()
}

fn handoffs(session: &GroundTruthSession) -> Vec<bool> {
    session
        .frames()
        .iter()
        .map(|f| f.handoff_occurred)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    // Contract 4: untopologized mobile sessions hand off exactly on the
    // frames an independent RandomWalker replay crosses, in every engine.
    #[test]
    fn untopologized_sessions_hand_off_where_a_random_walker_replay_crosses(
        speed in 5.0..40.0_f64,
        radius in 2.0..25.0_f64,
        frame_rate in 2.0..30.0_f64,
        seed in 0u64..1_000_000,
        frames in 20u64..120,
    ) {
        let scenario = Scenario::builder()
            .execution(ExecutionTarget::Remote)
            .frame_side(300.0)
            .frame_rate(Hertz::new(frame_rate))
            .mobility(MobilityConfig {
                speed: MetersPerSecond::new(speed),
                coverage_radius: Meters::new(radius),
                handoff_kind: HandoffKind::Vertical,
            })
            .build()
            .expect("scenario is valid");
        let expected = replayed_handoffs(&scenario, seed, frames);

        let scalar = TestbedSimulator::new(seed)
            .with_engine(SimulationEngine::Scalar)
            .simulate_session(&scenario, frames)
            .unwrap();
        prop_assert_eq!(handoffs(&scalar), expected.clone());

        // Two batches, the second one shorter.
        let testbed = TestbedSimulator::new(seed);
        let width = (frames / 2 + 1) as usize;
        let batched = testbed
            .clone()
            .with_engine(SimulationEngine::Batched { width })
            .simulate_session(&scenario, frames)
            .unwrap();
        prop_assert_eq!(handoffs(&batched), expected);

        // A fused three-replication point at the default width: 85 lanes
        // each, so sessions past 85 frames take a second pass.
        let reps = testbed.simulate_point(&scenario, seed, 3, frames).unwrap();
        prop_assert_eq!(reps.len(), 3);
        for (rep, session) in reps.iter().enumerate() {
            prop_assert_eq!(
                handoffs(session),
                replayed_handoffs(&scenario, mix(seed, rep as u64), frames)
            );
        }
    }
}

#[test]
fn eager_migration_costs_more_than_lazy_on_the_same_walk() {
    // Same map, same walk, same noise streams — only the per-migration
    // base differs, so the eager session's migration bill strictly
    // dominates the lazy one's while every migration count matches.
    let mut eager = mobile_scenario(25.0, 8.0, None);
    eager.topology = Some(TopologyConfig {
        layout: TopologyLayout::Hex,
        site_density: 1600.0,
        migration_policy: MigrationPolicy::Eager,
    });
    let mut lazy = eager.clone();
    lazy.topology = Some(TopologyConfig {
        migration_policy: MigrationPolicy::Lazy,
        ..eager.topology.unwrap()
    });
    let testbed = TestbedSimulator::new(7);
    let eager_session = testbed.simulate_session(&eager, 400).unwrap();
    let lazy_session = testbed.simulate_session(&lazy, 400).unwrap();
    assert!(eager_session.sites_visited() > 1, "walker never migrated");
    assert_eq!(
        eager_session.sites_visited(),
        lazy_session.sites_visited(),
        "policies must not change the walk"
    );
    assert!(eager_session.migration_time() > lazy_session.migration_time());
    assert!(lazy_session.migration_time() > Seconds::ZERO);
}

/// The checked-in bits of [`walker_libm_fingerprint`] at campaign seed 2024.
const WALKER_LIBM_GOLDEN: &str = include_str!("golden/walker-libm-2024.txt");

/// The platform libm's `cos` and `sin` at the first 64 angles the walker
/// of the first walking session of `configs/campaign-roam.grid` passes
/// them at campaign seed `seed` (point 0, replication 0: hex map, walking
/// at 1.4 m/s), one `function angle output` line each, as IEEE-754 bits in
/// hex. The angles come from a replay of the walker's own stream: its
/// uniform re-entry draws a radius word and an angle, each step one angle.
/// The walker is advanced one step at a time beside the replay, and every
/// step that crosses no boundary must move it by exactly
/// `step_len · (cos θ, sin θ)`, so the replay cannot drift from the walk.
fn walker_libm_fingerprint(seed: u64) -> String {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::f64::consts::TAU;
    use std::fmt::Write as _;

    let spec = xr_integration::config_spec("campaign-roam.grid");
    let grid = xr_sweep::parse_grid_spec(&spec).unwrap();
    let ctx = xr_experiments::ExperimentContext::quick(seed).unwrap();
    let (index, scenario) = grid
        .points()
        .unwrap()
        .iter()
        .map(|point| (point.index, ctx.scenario_for(point).unwrap()))
        .find(|(_, s)| s.execution.uses_edge() && s.mobility.speed.as_f64() > 0.0)
        .expect("the roaming grid has a walking session");
    let session_seed = xr_types::seed::replication_seed(seed, index, 0);
    let walker_seed = stage_stream_seed(session_seed, stream::WALKER, 0);
    let map = TestbedSimulator::edge_topology(&scenario).expect("a topologized grid");
    let step = Seconds::new(0.1);
    let step_len = scenario.mobility.speed.as_f64() * step.as_f64();
    let mut walker = map.walker(scenario.mobility.speed, step, walker_seed);
    let mut replay = StdRng::seed_from_u64(walker_seed);

    walker.reset_uniform();
    replay.gen::<f64>();
    let mut angles = vec![replay.gen_range(0.0..TAU)];
    // The engine's session starts from the same re-entry.
    let engine = xr_testbed::SessionState::new(&TestbedSimulator::new(session_seed), &scenario);
    assert_eq!(
        engine.walker().map(xr_wireless::TopologyWalker::position),
        Some(walker.position()),
        "the replay starts where the engine's walker does"
    );
    while angles.len() < 64 {
        let (x, y) = walker.position();
        let events = walker.advance(step);
        let theta = replay.gen_range(0.0..TAU);
        angles.push(theta);
        if events.crossings == 0 {
            assert_eq!(
                walker.position(),
                (x + step_len * theta.cos(), y + step_len * theta.sin()),
                "the replay drifted from the walk at angle {}",
                angles.len()
            );
        } else if events.crossings > events.migrations {
            // No site covers the exit: re-entry into the current site.
            replay.gen::<f64>();
            angles.push(replay.gen_range(0.0..TAU));
        }
    }
    let mut out = String::new();
    for &angle in &angles[..64] {
        for (name, value) in [("cos", angle.cos()), ("sin", angle.sin())] {
            let _ = writeln!(
                out,
                "{name} {:016x} {:016x}",
                angle.to_bits(),
                value.to_bits()
            );
        }
    }
    out
}

#[test]
fn walker_libm_matches_the_checked_in_bits() {
    let actual = walker_libm_fingerprint(2024);
    for (line, (got, want)) in actual.lines().zip(WALKER_LIBM_GOLDEN.lines()).enumerate() {
        // `function angle` first, then the output bits.
        let (got_call, got_bits) = got.rsplit_once(' ').expect("function angle output");
        let (want_call, want_bits) = want.rsplit_once(' ').expect("function angle output");
        assert_eq!(
            got_call,
            want_call,
            "walker libm golden line {}: the walker's angles moved, so this is a code \
             change, not a libm difference",
            line + 1
        );
        assert_eq!(
            got_bits,
            want_bits,
            "walker libm golden line {}: this host's libm gives other bits than the libm \
             the goldens were made with (glibc 2.36), so no golden with a moving \
             session can match here",
            line + 1
        );
    }
    assert_eq!(
        actual.lines().count(),
        WALKER_LIBM_GOLDEN.lines().count(),
        "walker libm golden line count"
    );
}
