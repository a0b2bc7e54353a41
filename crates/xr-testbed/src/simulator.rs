//! The discrete-event ground-truth simulator of the XR pipeline.
//!
//! For every frame the simulator walks the same pipeline structure as Fig. 1,
//! but evaluates the *true hardware laws* of [`crate::laws`] instead of the
//! analytical regressions, draws stochastic queueing/wireless/measurement
//! noise, and measures energy through the simulated Monsoon monitor. The
//! output plays the role of the "Ground Truth (GT)" curves in Figs. 4–5.
//!
//! ## The staged frame pipeline
//!
//! A frame flows through explicit stages. Each stage draws from its **own
//! named RNG stream**, seeded as a pure function of
//! `(session_seed, stage_id, frame_index)` via
//! [`xr_types::seed::stage_stream_seed`] (the [`stream`] module names the
//! stage ids). Because no stage's draws depend on how many draws another
//! stage consumed, the stages of different frames can be evaluated in any
//! order — frame-by-frame (the scalar reference implementation) or
//! column-by-column over a whole batch of frames (the structure-of-arrays
//! engine in [`crate::batch`], the default for sessions) — and produce
//! bit-identical [`GroundTruthFrame`]s:
//!
//! 1. **generate** — capture, ISP compute, volumetric data;
//! 2. **sense** — external sensor updates and propagation;
//! 3. **buffer** — M/M/1 input-buffer sojourn sampling;
//! 4. **encode** — frame conversion (local path) / H.264 encoding (edge path);
//! 5. **local inference** — the on-device CNN share;
//! 6. **uplink + edge compute** — wireless transmission and remote
//!    decode/infer over every edge server; with multi-tenant contention
//!    enabled ([`xr_core::ContentionConfig`]), the decode/infer term is a
//!    sojourn drawn from the serving site's M/M/1 queue
//!    ([`xr_queueing::EdgeContention`]; the aggregate queue without a
//!    topology) on its own [`stream::CONTENTION`] stream;
//! 7. **handoff** — mobility: the session's [`TopologyWalker`] advances one
//!    frame window and every coverage-boundary crossing is a real handoff
//!    event. It walks the scenario's multi-site [`EdgeTopology`] (a
//!    [`xr_core::TopologyConfig`]), or the paper's single coverage zone as
//!    a one-site map when the scenario has none. A crossing that lands
//!    inside another site's coverage becomes an edge-to-edge handoff that
//!    additionally pays state-migration latency (eager vs lazy re-offload,
//!    drawn on [`stream::MIGRATION`]); a one-site map never migrates;
//! 8. **render + downlink** — result delivery and display rendering;
//! 9. **cooperate** — XR-cooperation exchange;
//! 10. **finalize** — Eq. 1 gating of the end-to-end total and the
//!     Monsoon-style energy measurement.
//!
//! Stages 1–9 append to the frame's private `FrameState`; session-scoped
//! state (the mobility walker, the migration time) lives in [`SessionState`]
//! and is threaded through [`TestbedSimulator::simulate_session`] frame by
//! frame, which is why [`GroundTruthSession::handoff_rate`] is nonzero for
//! a moving user.

use crate::batch::SimulationEngine;
use crate::laws::{DeviceBias, TrueLaws};
use crate::power::PowerMonitor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rand_distr::{Distribution, Exp, Normal, StandardNormalPairs};
use serde::{Deserialize, Serialize};
use xr_core::Scenario;
use xr_devices::DeviceCatalog;
use xr_queueing::EdgeContention;
use xr_types::seed::stage_stream_seed;
use xr_types::{
    Joules, MigrationPolicy, Ratio, Result, Seconds, Segment, TopologyLayout, Watts, SPEED_OF_LIGHT,
};
use xr_wireless::{
    AccessTechnology, CoverageZone, EdgeTopology, HandoffKind, TopologyWalker, WirelessLink,
};

/// Stable identifiers of the simulator's named RNG streams.
///
/// Every stochastic draw of the frame pipeline comes from the stream
/// `stage_stream_seed(session_seed, stage_id, frame_index)` of its stage;
/// the ids below are part of the determinism contract (changing one re-keys
/// that stage's noise everywhere) and must never be reused.
pub mod stream {
    /// Stage 1 — frame generation noise.
    pub const GENERATE: u64 = 0;
    /// Stage 2 — external-sensor propagation jitter.
    pub const SENSE: u64 = 1;
    /// Stage 3 — M/M/1 input-buffer sojourn sampling.
    pub const BUFFER: u64 = 2;
    /// Stage 4 — conversion/encoding measurement noise.
    pub const ENCODE: u64 = 3;
    /// Stage 5 — local-inference measurement noise.
    pub const LOCAL_INFERENCE: u64 = 4;
    /// Stage 6 — edge-compute noise and wireless jitter.
    pub const UPLINK_EDGE: u64 = 5;
    /// Stage 7 — handoff-latency noise.
    pub const HANDOFF: u64 = 6;
    /// Stage 8 — rendering measurement noise.
    pub const RENDER: u64 = 7;
    /// Stage 9 — cooperation measurement noise.
    pub const COOPERATE: u64 = 8;
    /// Stage 10 — the Monsoon-style power monitor's sampling noise.
    pub const MONITOR: u64 = 9;
    /// Session-scoped stream of the mobility walker (frame index 0: the
    /// walker lives across frames and owns one stream per session).
    pub const WALKER: u64 = 10;
    /// Stage 6, contended mode — the tagged session's M/M/1 sojourn at each
    /// shared edge server. A separate stream (not [`UPLINK_EDGE`]) so the
    /// wireless jitter draws keep their position when contention toggles.
    pub const CONTENTION: u64 = 11;
    /// Stage 7, topology mode — the state-migration latency noise of an
    /// inter-site handoff. A separate stream (not [`HANDOFF`]) so the legacy
    /// crossing-latency draws keep their position when a topology is
    /// configured, and a 1-site topology stays byte-identical to the
    /// single-zone pipeline (one site can never migrate, so this stream is
    /// then never touched).
    pub const MIGRATION: u64 = 12;
}

/// Ground-truth measurements for one frame.
///
/// Per-segment measurements are stored structure-of-arrays style — one
/// fixed slot per [`Segment`] in [`Segment::ALL`] order
/// ([`Segment::slot`]) — so emitting a frame costs two array copies
/// instead of two heap-allocated map builds (the frame emit path is the
/// hot path of every measurement campaign). Read them through
/// [`GroundTruthFrame::segment_latency`] /
/// [`GroundTruthFrame::segment_energy`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GroundTruthFrame {
    /// Measured latency per segment, indexed by [`Segment::slot`].
    pub(crate) latency: [Seconds; Segment::ALL.len()],
    /// Measured end-to-end latency (gated the same way as Eq. 1).
    pub total_latency: Seconds,
    /// Measured energy per segment, indexed by [`Segment::slot`].
    pub(crate) energy: [Joules; Segment::ALL.len()],
    /// Measured total energy (power-monitor integral plus thermal share).
    pub total_energy: Joules,
    /// Whether a handoff occurred during this frame.
    pub handoff_occurred: bool,
}

impl GroundTruthFrame {
    /// Latency of one segment (zero when the segment did not run).
    #[must_use]
    pub fn segment_latency(&self, segment: Segment) -> Seconds {
        self.latency[segment.slot()]
    }

    /// Energy of one segment.
    #[must_use]
    pub fn segment_energy(&self, segment: Segment) -> Joules {
        self.energy[segment.slot()]
    }
}

/// Ground-truth measurements for a whole session (many frames).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GroundTruthSession {
    pub(crate) frames: Vec<GroundTruthFrame>,
    /// Total inter-site state-migration latency paid over the session
    /// (zero without a multi-edge topology).
    pub(crate) migration_time: Seconds,
    /// Number of distinct edge sites the session attached to (1 without a
    /// multi-edge topology, or when it never left its start site).
    pub(crate) sites_visited: u32,
}

impl GroundTruthSession {
    /// The per-frame measurements.
    #[must_use]
    pub fn frames(&self) -> &[GroundTruthFrame] {
        &self.frames
    }

    /// Mean end-to-end latency over the session.
    #[must_use]
    pub fn mean_latency(&self) -> Seconds {
        Seconds::new(frame_mean(
            frame_sum(self.frames.iter().map(|f| f.total_latency.as_f64())),
            self.frames.len() as u64,
        ))
    }

    /// Mean per-frame energy over the session.
    #[must_use]
    pub fn mean_energy(&self) -> Joules {
        Joules::new(frame_mean(
            frame_sum(self.frames.iter().map(|f| f.total_energy.as_f64())),
            self.frames.len() as u64,
        ))
    }

    /// Mean latency of one segment over the session.
    #[must_use]
    pub fn mean_segment_latency(&self, segment: Segment) -> Seconds {
        Seconds::new(frame_mean(
            frame_sum(
                self.frames
                    .iter()
                    .map(|f| f.segment_latency(segment).as_f64()),
            ),
            self.frames.len() as u64,
        ))
    }

    /// Fraction of frames that experienced a handoff.
    #[must_use]
    pub fn handoff_rate(&self) -> f64 {
        frame_mean(
            self.frames.iter().filter(|f| f.handoff_occurred).count() as f64,
            self.frames.len() as u64,
        )
    }

    /// Total inter-site state-migration latency paid over the session. Zero
    /// unless the scenario roams a multi-edge topology and actually changed
    /// sites.
    #[must_use]
    pub fn migration_time(&self) -> Seconds {
        self.migration_time
    }

    /// Mean per-frame state-migration latency (total migration time over
    /// the frame count).
    #[must_use]
    pub fn mean_migration_latency(&self) -> Seconds {
        Seconds::new(frame_mean(
            self.migration_time.as_f64(),
            self.frames.len() as u64,
        ))
    }

    /// Number of distinct edge sites the session attached to, including the
    /// start site (1 without a multi-edge topology).
    #[must_use]
    pub fn sites_visited(&self) -> u32 {
        self.sites_visited
    }
}

/// Where every per-session frame sum starts: the value `Iterator::sum`
/// folds `f64`s from. A running total that starts here and adds frames in
/// frame order is bit-identical to [`frame_sum`] over the same frames.
const FRAME_SUM_START: f64 = -0.0;

/// Sums per-frame values in frame order from [`FRAME_SUM_START`].
fn frame_sum(values: impl Iterator<Item = f64>) -> f64 {
    values.fold(FRAME_SUM_START, |sum, value| sum + value)
}

/// `sum / frames`, or zero for an empty session.
fn frame_mean(sum: f64, frames: u64) -> f64 {
    if frames == 0 {
        return 0.0;
    }
    sum / frames as f64
}

/// The per-session totals a campaign keeps of a session: frame count,
/// latency and energy sums, handoff-frame count, migration time and sites
/// visited. The batched engine folds each finished frame into these in
/// frame order instead of building a [`GroundTruthFrame`], so its means are
/// bit-identical to the matching [`GroundTruthSession`] means (the two
/// share the summation start, order and division).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SessionTotals {
    pub(crate) frames: u64,
    pub(crate) latency_sum: f64,
    pub(crate) energy_sum: f64,
    pub(crate) handoff_frames: u64,
    pub(crate) migration_time: Seconds,
    pub(crate) sites_visited: u32,
}

impl SessionTotals {
    /// Totals with no frame folded in yet.
    pub(crate) fn empty() -> Self {
        Self {
            frames: 0,
            latency_sum: FRAME_SUM_START,
            energy_sum: FRAME_SUM_START,
            handoff_frames: 0,
            migration_time: Seconds::ZERO,
            sites_visited: 1,
        }
    }

    /// Folds in the next frame (frames must arrive in frame order).
    pub(crate) fn add_frame(&mut self, latency: Seconds, energy: Joules, handoff: bool) {
        self.frames += 1;
        self.latency_sum += latency.as_f64();
        self.energy_sum += energy.as_f64();
        self.handoff_frames += u64::from(handoff);
    }

    /// The totals of a finished session.
    #[must_use]
    pub fn of(session: &GroundTruthSession) -> Self {
        let mut totals = Self::empty();
        for frame in &session.frames {
            totals.add_frame(
                frame.total_latency,
                frame.total_energy,
                frame.handoff_occurred,
            );
        }
        totals.migration_time = session.migration_time;
        totals.sites_visited = session.sites_visited;
        totals
    }

    /// As [`GroundTruthSession::mean_latency`].
    #[must_use]
    pub fn mean_latency(&self) -> Seconds {
        Seconds::new(frame_mean(self.latency_sum, self.frames))
    }

    /// As [`GroundTruthSession::mean_energy`].
    #[must_use]
    pub fn mean_energy(&self) -> Joules {
        Joules::new(frame_mean(self.energy_sum, self.frames))
    }

    /// As [`GroundTruthSession::handoff_rate`].
    #[must_use]
    pub fn handoff_rate(&self) -> f64 {
        frame_mean(self.handoff_frames as f64, self.frames)
    }

    /// As [`GroundTruthSession::mean_migration_latency`].
    #[must_use]
    pub fn mean_migration_latency(&self) -> Seconds {
        Seconds::new(frame_mean(self.migration_time.as_f64(), self.frames))
    }

    /// As [`GroundTruthSession::sites_visited`].
    #[must_use]
    pub fn sites_visited(&self) -> u32 {
        self.sites_visited
    }
}

/// The testbed simulator.
#[derive(Debug, Clone)]
pub struct TestbedSimulator {
    pub(crate) laws: TrueLaws,
    pub(crate) monitor: PowerMonitor,
    pub(crate) seed: u64,
    /// True radio power levels (transmit, receive, idle-wait) — close to, but
    /// not identical with, the analytical model's defaults.
    pub(crate) radio_tx: Watts,
    pub(crate) radio_rx: Watts,
    pub(crate) radio_idle: Watts,
    pub(crate) base_power: Watts,
    pub(crate) thermal_fraction: f64,
    /// Relative standard deviation of per-segment measurement noise.
    pub(crate) noise_sigma: f64,
    /// Which engine [`TestbedSimulator::simulate_session`] dispatches to.
    engine: SimulationEngine,
}

impl TestbedSimulator {
    /// Creates a simulator with the standard true laws and the Monsoon
    /// monitor.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self {
            laws: TrueLaws::standard(),
            monitor: PowerMonitor::monsoon(),
            seed,
            radio_tx: Watts::new(1.3),
            radio_rx: Watts::new(0.95),
            radio_idle: Watts::new(0.38),
            base_power: Watts::new(0.85),
            thermal_fraction: 0.045,
            noise_sigma: 0.04,
            engine: SimulationEngine::default(),
        }
    }

    /// Overrides the session-simulation engine (sessions default to the
    /// batched structure-of-arrays engine; [`SimulationEngine::Scalar`] is
    /// the frame-by-frame reference both must match bit for bit).
    #[must_use]
    pub fn with_engine(mut self, engine: SimulationEngine) -> Self {
        self.engine = engine;
        self
    }

    /// The session-simulation engine in effect.
    #[must_use]
    pub fn engine(&self) -> SimulationEngine {
        self.engine
    }

    /// Overrides the measurement-noise level.
    ///
    /// # Panics
    ///
    /// Panics if `sigma` is negative.
    #[must_use]
    pub fn with_noise(mut self, sigma: f64) -> Self {
        assert!(sigma >= 0.0, "noise sigma must be non-negative");
        self.noise_sigma = sigma;
        self
    }

    /// A copy of this simulator with a different seed but identical laws,
    /// monitor and noise configuration — one per replication of a campaign
    /// operating point.
    #[must_use]
    pub fn reseeded(&self, seed: u64) -> Self {
        let mut simulator = self.clone();
        simulator.seed = seed;
        simulator
    }

    /// The simulator's base seed.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The true laws in effect.
    #[must_use]
    pub fn laws(&self) -> &TrueLaws {
        &self.laws
    }

    /// One multiplicative measurement-noise factor `exp(N(0, σ))`, drawn
    /// through the stage's [`StandardNormalPairs`] cache: odd draws on a
    /// stream consume one raw word pair (the cosine Box–Muller half), even
    /// draws consume nothing (the cached sine half). Stages that draw two
    /// factors from one stream therefore pay **one** `ln`/`sqrt`/`sincos`
    /// set for both — the PR-8 sanctioned re-key. Noiseless simulators
    /// draw nothing, as before.
    pub(crate) fn noise(&self, rng: &mut StdRng, pairs: &mut StandardNormalPairs) -> f64 {
        if self.noise_sigma <= 0.0 {
            return 1.0;
        }
        let normal = Normal::new(0.0, self.noise_sigma).expect("valid sigma");
        rand_distr::math::exp(normal.from_standard(pairs.next(rng)))
    }

    /// The RNG for one named stage stream of one frame: a pure function of
    /// `(session_seed, stage_id, frame_index)`, shared by the scalar and
    /// batched pipelines so both draw identical noise.
    pub(crate) fn stage_rng(&self, stage: u64, frame_index: u64) -> StdRng {
        StdRng::seed_from_u64(stage_stream_seed(self.seed, stage, frame_index))
    }

    pub(crate) fn ms(pixels_equiv: f64, resource: f64) -> Seconds {
        Seconds::from_millis(pixels_equiv / resource.max(f64::MIN_POSITIVE))
    }

    pub(crate) fn edge_resource(
        &self,
        scenario: &Scenario,
        index: usize,
        client_resource: f64,
    ) -> f64 {
        let Some(server) = scenario.edge_servers.get(index) else {
            return client_resource * self.laws.edge_speedup;
        };
        if let Some(explicit) = server.compute_resource {
            return explicit;
        }
        let catalog = DeviceCatalog::table1();
        if let Ok(spec) = catalog.device(server.name) {
            // Edge inference is GPU-dominated.
            self.laws.compute_resource(
                spec.cpu_clock,
                spec.gpu_clock,
                Ratio::new(0.15),
                DeviceBias::for_device(server.name),
            )
        } else {
            client_resource * self.laws.edge_speedup
        }
    }

    /// The deterministic per-frame service time of edge server `index` at
    /// this operating point: remote CNN inference + memory transfer + H.264
    /// decode — exactly the noise-free factor of the uncontended edge stage,
    /// and the `1/µ` the multi-tenant contention queue is built on.
    pub(crate) fn edge_service_time(
        &self,
        scenario: &Scenario,
        index: usize,
        client_resource: f64,
        encode_work: f64,
    ) -> Seconds {
        let server = &scenario.edge_servers[index];
        let c_edge = self.edge_resource(scenario, index, client_resource);
        let remote_complexity = self.laws.cnn_complexity(scenario.remote_cnn);
        let decode = Self::ms(encode_work * self.laws.decode_discount(), c_edge);
        Self::ms(
            scenario.frame.encoded_size.as_f64() * remote_complexity,
            c_edge,
        ) + scenario.frame.encoded_data / server.memory_bandwidth
            + decode
    }

    /// Resolves the scenario's multi-tenant contention into one aggregate
    /// M/M/1 queue per edge server: arrival rate `users_per_edge × frame
    /// rate`, service rate the reciprocal of the noise-free edge service
    /// time (remote inference + memory transfer + decode).
    ///
    /// Returns `Ok(None)` when the scenario has no contention configured or
    /// never touches an edge server (local execution, no servers) — the
    /// pipeline then keeps the paper's private-edge behaviour bit for bit.
    ///
    /// # Errors
    ///
    /// Returns [`xr_types::Error::UnstableQueue`] when the offered load of
    /// the population saturates an edge server (`ρ ≥ 1`).
    pub fn contention_snapshot(&self, scenario: &Scenario) -> Result<Option<ContentionSnapshot>> {
        let mut servers = Vec::new();
        let Some(users) = self.aggregate_queues(scenario, &mut servers)? else {
            return Ok(None);
        };
        // With a multi-edge topology the aggregate queues above are only the
        // map-wide baseline: each *site* hosts its own tenant population, so
        // resolve one queue set per site by repopulating the per-server
        // queues (same server, same per-session rate, the site's tenants).
        let sites = match Self::edge_topology(scenario) {
            Some(map) => map
                .sites()
                .iter()
                .map(|site| {
                    servers
                        .iter()
                        .map(|(weight, contention)| {
                            Ok((*weight, contention.with_users(site.tenants())?))
                        })
                        .collect::<Result<Vec<_>>>()
                        .map(|queues| (site.tenants(), queues))
                })
                .collect::<Result<Vec<_>>>()?,
            None => Vec::new(),
        };
        Ok(Some(ContentionSnapshot {
            users,
            servers,
            sites,
        }))
    }

    /// Pushes onto `queues` the aggregate M/M/1 queue of each edge server,
    /// in scenario order, with the tagged session's task weight, and
    /// returns the population behind them; `Ok(None)`, pushing nothing,
    /// when the scenario has no contention or never touches an edge server.
    fn aggregate_queues(
        &self,
        scenario: &Scenario,
        queues: &mut Vec<(f64, EdgeContention)>,
    ) -> Result<Option<u32>> {
        let Some(config) = scenario.contention else {
            return Ok(None);
        };
        if !scenario.execution.uses_edge() || scenario.edge_servers.is_empty() {
            return Ok(None);
        }
        let client = &scenario.client;
        let bias = DeviceBias::for_device(client.name);
        let c_true =
            self.laws
                .compute_resource(client.cpu_clock, client.gpu_clock, client.cpu_share, bias);
        let encode_work = self
            .laws
            .encoding_work(&scenario.encoding, &scenario.frame, bias);
        let total_share: f64 = scenario.edge_servers.iter().map(|srv| srv.task_share).sum();
        let edge_share = scenario.execution.edge_share();
        let per_session_rate = scenario.frame.frame_rate.as_f64();
        for (i, server) in scenario.edge_servers.iter().enumerate() {
            let weight = if total_share > 0.0 {
                server.task_share / total_share * edge_share
            } else {
                0.0
            };
            let service = self.edge_service_time(scenario, i, c_true, encode_work);
            let contention = EdgeContention::new(config.users_per_edge, per_session_rate, service)?;
            queues.push((weight, contention));
        }
        Ok(Some(config.users_per_edge))
    }

    /// Refills `plans` with the sampling plans of the contended edge stage,
    /// one per serving site, shared by the scalar and batched engines so
    /// the two cannot drift. `map` must be the scenario's
    /// [`TestbedSimulator::edge_topology`]. With one, the plan of each site
    /// is that of the queue population resident there, so the tagged
    /// session's utilisation ρ genuinely changes as it migrates; without
    /// one, `plans` holds the aggregate plan alone, for site 0 (the only
    /// site an untopologized session ever attaches to). Either way the
    /// engines read the plan of `session.site_index()`. Its queues, and so
    /// its errors, are those of [`TestbedSimulator::contention_snapshot`],
    /// and refilling reuses the storage `plans` already holds.
    ///
    /// `plans` is left empty when the scenario has no contention or never
    /// touches an edge server: the pipeline then keeps the paper's
    /// private-edge behaviour bit for bit.
    ///
    /// # Errors
    ///
    /// Returns [`xr_types::Error::UnstableQueue`] when any site's tenant
    /// population saturates an edge server.
    pub(crate) fn contention_plans_into(
        &self,
        scenario: &Scenario,
        map: Option<&EdgeTopology>,
        plans: &mut ContentionPlans,
    ) -> Result<()> {
        let ContentionPlans { queues, pairs } = plans;
        queues.clear();
        pairs.clear();
        if self.aggregate_queues(scenario, queues)?.is_none() {
            return Ok(());
        }
        let plan = |weight: f64, contention: &EdgeContention| {
            let rate = contention.sojourn_rate();
            assert!(
                rate > 0.0 && rate.is_finite(),
                "a stable queue has a positive, finite sojourn rate"
            );
            (weight, rate)
        };
        match map {
            Some(map) => {
                for site in map.sites() {
                    for (weight, contention) in queues.iter() {
                        pairs.push(plan(*weight, &contention.with_users(site.tenants())?));
                    }
                }
            }
            None => pairs.extend(queues.iter().map(|(weight, q)| plan(*weight, q))),
        }
        Ok(())
    }

    /// The contention plans of a session of `scenario`, resolved once for
    /// the scalar reference on `map`, the session's
    /// [`TestbedSimulator::session_map`]: that is the scenario's edge
    /// topology whenever it has one.
    ///
    /// # Errors
    ///
    /// As [`TestbedSimulator::contention_plans_into`].
    fn session_plans(
        &self,
        scenario: &Scenario,
        map: Option<&EdgeTopology>,
    ) -> Result<ContentionPlans> {
        let mut plans = ContentionPlans::default();
        let topology = map.filter(|_| scenario.topology.is_some());
        self.contention_plans_into(scenario, topology, &mut plans)?;
        Ok(plans)
    }

    /// The multi-edge site map of a scenario, or `None` when it keeps the
    /// paper's single-coverage-zone mobility model.
    ///
    /// The mapping: every site runs the scenario's first edge link budget
    /// (falling back to 5 GHz Wi-Fi without edge servers) and hosts a tenant
    /// population cycled around `contention.users_per_edge` (1 when
    /// uncontended). [`TopologyLayout::Single`] reuses the mobility
    /// coverage radius — the bit-identity pin against the legacy walker —
    /// while the tiled layouts derive their per-site radii from
    /// `site_density` and ignore it.
    ///
    /// # Panics
    ///
    /// Panics when a tiled layout carries a non-positive site density —
    /// unreachable for scenarios that passed [`Scenario::validate`].
    #[must_use]
    pub fn edge_topology(scenario: &Scenario) -> Option<EdgeTopology> {
        let config = scenario.topology?;
        let technology = scenario
            .edge_servers
            .first()
            .map_or(AccessTechnology::WiFi5GHz, |server| server.technology);
        let tenants = scenario.contention.map_or(1, |c| c.users_per_edge);
        Some(match config.layout {
            TopologyLayout::Single => EdgeTopology::single(
                CoverageZone::new(scenario.mobility.coverage_radius),
                technology,
                tenants,
            ),
            layout => EdgeTopology::tiled(layout, config.site_density, technology, tenants)
                .expect("scenario validation rejects non-positive site densities"),
        })
    }

    /// The map a session of `scenario` attaches to and walks: its
    /// [`TestbedSimulator::edge_topology`], or, for a walking session
    /// without one, the paper's single coverage zone as a one-site map
    /// (only its geometry is read, so its link and tenants are
    /// placeholders). `None` for a session without a topology that never
    /// walks.
    pub(crate) fn session_map(scenario: &Scenario) -> Option<EdgeTopology> {
        // Every field read here and in `edge_topology` is in `MapKey`.
        Self::edge_topology(scenario).or_else(|| {
            SessionState::walks(scenario).then(|| {
                EdgeTopology::single(
                    CoverageZone::new(scenario.mobility.coverage_radius),
                    AccessTechnology::WiFi5GHz,
                    1,
                )
            })
        })
    }

    /// The deterministic base latency of one inter-site state migration
    /// under the scenario's re-offload policy: eager re-offload pushes the
    /// full session state (decoder context, CNN activations, render
    /// surfaces) inline with the handoff; lazy re-offload only redirects the
    /// uplink and defers the state fetches. A scenario without a topology
    /// walks a one-site map, which never migrates.
    pub(crate) fn migration_base(scenario: &Scenario) -> Seconds {
        let policy = scenario
            .topology
            .map_or(MigrationPolicy::Eager, |t| t.migration_policy);
        match policy {
            MigrationPolicy::Eager => Seconds::new(0.25),
            MigrationPolicy::Lazy => Seconds::new(0.06),
        }
    }

    /// Whether `segment` runs on the compute rail (CPU/GPU work that feeds
    /// the thermal share) as opposed to a radio rail — the classification
    /// shared by the scalar finalizer and the batched engine's precomputed
    /// per-segment tables, so the two can never drift apart.
    pub(crate) fn segment_is_compute(segment: Segment) -> bool {
        matches!(
            segment,
            Segment::FrameGeneration
                | Segment::VolumetricDataGeneration
                | Segment::FrameConversion
                | Segment::FrameEncoding
                | Segment::LocalInference
                | Segment::FrameRendering
        )
    }

    /// The power level drawn while `segment` runs: the device's mean
    /// compute power for compute segments, otherwise the matching radio
    /// rail. Shared by both engines like
    /// [`TestbedSimulator::segment_is_compute`].
    pub(crate) fn segment_power(&self, segment: Segment, compute_power: Watts) -> Watts {
        if Self::segment_is_compute(segment) {
            return compute_power;
        }
        match segment {
            Segment::ExternalSensorInformation => self.radio_rx,
            Segment::Transmission | Segment::XrCooperation | Segment::Handoff => self.radio_tx,
            _ => self.radio_idle, // RemoteInference: the device waits.
        }
    }

    /// Whether `segment` contributes to this scenario's end-to-end totals
    /// (the Eq. 1 gating shared by the latency and energy finalizers).
    pub(crate) fn segment_included(
        scenario: &Scenario,
        segment: Segment,
        uses_local: bool,
        uses_edge: bool,
    ) -> bool {
        scenario.segments.contains(segment)
            && match segment {
                Segment::FrameConversion | Segment::LocalInference => uses_local,
                Segment::FrameEncoding
                | Segment::RemoteInference
                | Segment::Transmission
                | Segment::Handoff => uses_edge,
                Segment::XrCooperation => scenario.cooperation.include_in_totals,
                _ => true,
            }
    }

    /// Simulates one frame as part of an ongoing session, advancing the
    /// session's mobility walker by one frame window. `plans` are the
    /// session's contention plans ([`TestbedSimulator::contention_plans_into`]
    /// on its [`TestbedSimulator::edge_topology`]), and `scenario` has
    /// passed [`Scenario::validate`].
    fn simulate_frame_in_session(
        &self,
        scenario: &Scenario,
        frame_index: u64,
        plans: &ContentionPlans,
        session: &mut SessionState,
    ) -> GroundTruthFrame {
        // The contended queue population is the *serving site's*, read
        // before the handoff stage advances the walker — so the uplink of
        // frame `f` is priced at the site where the window opened, exactly
        // like the batched engine's recorded pre-advance site.
        let contention = (!plans.is_empty()).then(|| plans.site(session.site_index()));
        let mut state = FrameState::new(self, scenario, frame_index);
        self.stage_generate(&mut state);
        self.stage_sense(&mut state);
        self.stage_buffer(&mut state);
        self.stage_encode(&mut state);
        self.stage_local_inference(&mut state);
        self.stage_uplink_and_edge(&mut state, contention);
        self.stage_handoff(&mut state, session);
        self.stage_render(&mut state);
        self.stage_cooperate(&mut state);
        self.finalize(state, frame_index)
    }

    /// Stage 1 — frame generation (capture interval + ISP compute + memory
    /// writes) and volumetric data generation. The two noise factors are
    /// the two halves of one Box–Muller pair (one word pair per frame).
    fn stage_generate(&self, s: &mut FrameState<'_>) {
        let mut rng = self.stage_rng(stream::GENERATE, s.frame_index);
        let mut pairs = StandardNormalPairs::new();
        let frame = &s.scenario.frame;
        let generation = (frame.frame_rate.period()
            + Self::ms(frame.raw_size.as_f64(), s.c_true)
            + frame.raw_data / s.memory)
            * self.noise(&mut rng, &mut pairs);
        s.latency[Segment::FrameGeneration.slot()] = generation;
        let volumetric = (Self::ms(frame.scene_size.as_f64(), s.c_true)
            + frame.volumetric_data / s.memory)
            * self.noise(&mut rng, &mut pairs);
        s.latency[Segment::VolumetricDataGeneration.slot()] = volumetric;
    }

    /// Stage 2 — external sensor information: per-update generation +
    /// propagation with jitter; slowest sensor dominates.
    fn stage_sense(&self, s: &mut FrameState<'_>) {
        let mut rng = self.stage_rng(stream::SENSE, s.frame_index);
        let mut ext = Seconds::ZERO;
        for sensor in s.scenario.sensors.iter() {
            let mut sensor_total = Seconds::ZERO;
            for _ in 0..s.scenario.updates_per_frame {
                let jitter = 1.0 + rng.gen_range(-0.05..0.05);
                sensor_total += sensor.generation_frequency.period() * jitter
                    + sensor.distance / SPEED_OF_LIGHT;
            }
            ext = ext.max(sensor_total);
        }
        s.latency[Segment::ExternalSensorInformation.slot()] = ext;
    }

    /// Stage 3 — input-buffer waiting: each flow's sojourn time is
    /// exponentially distributed with rate (µ − λ) in a stable M/M/1 queue.
    /// The sampled sojourn is consumed by the render stage.
    fn stage_buffer(&self, s: &mut FrameState<'_>) {
        let mut rng = self.stage_rng(stream::BUFFER, s.frame_index);
        let mu = s.scenario.buffer.service_rate;
        let frame_rate = s.scenario.frame.frame_rate.as_f64();
        for lambda in [
            s.scenario.buffer.frame_arrival_rate.unwrap_or(frame_rate),
            s.scenario
                .buffer
                .volumetric_arrival_rate
                .unwrap_or(frame_rate),
            s.scenario.external_arrival_rate(),
        ] {
            if lambda <= 0.0 || lambda >= mu {
                continue;
            }
            let exp = Exp::new(mu - lambda).expect("positive rate");
            s.buffering += Seconds::new(exp.sample(&mut rng));
        }
    }

    /// Stage 4 — frame conversion (local path) and H.264 encoding (edge
    /// path), using the true encoder law.
    fn stage_encode(&self, s: &mut FrameState<'_>) {
        let mut rng = self.stage_rng(stream::ENCODE, s.frame_index);
        // One pair cache across both paths: a split scenario's conversion
        // and encoding factors are the two halves of one word pair.
        let mut pairs = StandardNormalPairs::new();
        let frame = &s.scenario.frame;
        let conversion = if s.uses_local {
            (Self::ms(frame.raw_size.as_f64(), s.c_true) + frame.raw_data / s.memory)
                * self.noise(&mut rng, &mut pairs)
        } else {
            Seconds::ZERO
        };
        s.latency[Segment::FrameConversion.slot()] = conversion;
        s.encode_work = self.laws.encoding_work(&s.scenario.encoding, frame, s.bias);
        let encoding = if s.uses_edge {
            (Self::ms(s.encode_work, s.c_true) + frame.raw_data / s.memory)
                * self.noise(&mut rng, &mut pairs)
        } else {
            Seconds::ZERO
        };
        s.latency[Segment::FrameEncoding.slot()] = encoding;
    }

    /// Stage 5 — the on-device CNN share.
    fn stage_local_inference(&self, s: &mut FrameState<'_>) {
        let mut rng = self.stage_rng(stream::LOCAL_INFERENCE, s.frame_index);
        let mut pairs = StandardNormalPairs::new();
        let frame = &s.scenario.frame;
        let local_complexity = self.laws.cnn_complexity(s.scenario.local_cnn);
        let local = if s.uses_local && s.client_share > 0.0 {
            (Self::ms(frame.converted_size.as_f64() * local_complexity, s.c_true)
                + frame.converted_data / s.memory)
                * s.client_share
                * self.noise(&mut rng, &mut pairs)
        } else {
            Seconds::ZERO
        };
        s.latency[Segment::LocalInference.slot()] = local;
    }

    /// Stage 6 — uplink transmission and remote inference: weighted-slowest
    /// edge server (decode + infer) and slowest uplink.
    ///
    /// With a contention plan (one `(weight, rate)` per edge server, from
    /// [`ContentionPlans::site`]) the decode/infer term becomes a sojourn
    /// (waiting + service) drawn from the shared queue's dedicated
    /// [`stream::CONTENTION`] stream — with **no** measurement-noise factor,
    /// so the empirical mean stays pinned to the M/M/1 closed form the
    /// property tests check — while the uplink keeps its jitter draw from
    /// the [`stream::UPLINK_EDGE`] stream.
    fn stage_uplink_and_edge(&self, s: &mut FrameState<'_>, contention: Option<&[(f64, f64)]>) {
        let mut rng = self.stage_rng(stream::UPLINK_EDGE, s.frame_index);
        // One pair cache across the server loop: even-indexed servers draw
        // a fresh word pair, odd-indexed servers reuse the cached sine half
        // (the interleaved jitter words leave the cache untouched).
        let mut pairs = StandardNormalPairs::new();
        let scenario = s.scenario;
        let frame = &scenario.frame;
        let mut remote = Seconds::ZERO;
        let mut transmission = Seconds::ZERO;
        if s.uses_edge && !scenario.edge_servers.is_empty() {
            if let Some(plan) = contention {
                let mut contention_rng = self.stage_rng(stream::CONTENTION, s.frame_index);
                for (&(weight, rate), server) in plan.iter().zip(&scenario.edge_servers) {
                    let sojourn = Exp::new(rate).expect("plan rates are positive and finite");
                    let drawn = Seconds::new(sojourn.sample(&mut contention_rng));
                    remote = remote.max(drawn * weight);

                    let link = WirelessLink::new(server.technology, server.distance);
                    let link = match server.throughput {
                        Some(t) => link.with_throughput(t),
                        None => link,
                    };
                    let wireless_jitter = 1.0 + rng.gen_range(0.0..0.12);
                    let tx = link.transmission_latency(frame.encoded_data) * wireless_jitter;
                    transmission = transmission.max(tx);
                }
            } else {
                let remote_complexity = self.laws.cnn_complexity(scenario.remote_cnn);
                let total_share: f64 = scenario.edge_servers.iter().map(|srv| srv.task_share).sum();
                for (i, server) in scenario.edge_servers.iter().enumerate() {
                    let c_edge = self.edge_resource(scenario, i, s.c_true);
                    let weight = if total_share > 0.0 {
                        server.task_share / total_share * s.edge_share
                    } else {
                        0.0
                    };
                    let decode = Self::ms(s.encode_work * self.laws.decode_discount(), c_edge);
                    let infer = Self::ms(frame.encoded_size.as_f64() * remote_complexity, c_edge)
                        + frame.encoded_data / server.memory_bandwidth
                        + decode;
                    remote = remote.max(infer * weight * self.noise(&mut rng, &mut pairs));

                    let link = WirelessLink::new(server.technology, server.distance);
                    let link = match server.throughput {
                        Some(t) => link.with_throughput(t),
                        None => link,
                    };
                    let wireless_jitter = 1.0 + rng.gen_range(0.0..0.12);
                    let tx = link.transmission_latency(frame.encoded_data) * wireless_jitter;
                    transmission = transmission.max(tx);
                }
            }
        }
        s.latency[Segment::RemoteInference.slot()] = remote;
        s.latency[Segment::Transmission.slot()] = transmission;
    }

    /// Stage 7 — mobility and handoff. The session's walker advances one
    /// frame window and any coverage-boundary crossing is a handoff; a
    /// crossing that re-attaches to a neighbouring site of a multi-edge map
    /// additionally pays the **state-migration** latency of the configured
    /// re-offload policy, drawn from the dedicated [`stream::MIGRATION`]
    /// stream (so the crossing noise keeps its [`stream::HANDOFF`] position;
    /// a one-site map never migrates and never touches that stream). A
    /// static device, or one whose frames never reach the edge, pays none.
    fn stage_handoff(&self, s: &mut FrameState<'_>, session: &mut SessionState) {
        let Some(walker) = session.walker.as_mut() else {
            return;
        };
        let scenario = s.scenario;
        let events = walker.advance(scenario.frame_window());
        let mut latency = Seconds::ZERO;
        if events.crossings > 0 {
            // A sub-10-fps frame window spans several walk steps, so one
            // frame can cross more than once; each crossing pays the handoff
            // latency.
            s.handoff_occurred = true;
            let base = match scenario.mobility.handoff_kind {
                HandoffKind::Horizontal => Seconds::new(0.065),
                HandoffKind::Vertical => Seconds::new(1.2),
            };
            let mut rng = self.stage_rng(stream::HANDOFF, s.frame_index);
            let mut pairs = StandardNormalPairs::new();
            latency += base * events.crossings as f64 * self.noise(&mut rng, &mut pairs);
        }
        if events.migrations > 0 {
            let mut rng = self.stage_rng(stream::MIGRATION, s.frame_index);
            let mut pairs = StandardNormalPairs::new();
            let migration = Self::migration_base(scenario)
                * events.migrations as f64
                * self.noise(&mut rng, &mut pairs);
            session.migration_time += migration;
            latency += migration;
        }
        s.latency[Segment::Handoff.slot()] = latency;
    }

    /// Stage 8 — rendering and downlink: compute + memory + buffered input +
    /// result delivery over the first edge link (or local memory).
    fn stage_render(&self, s: &mut FrameState<'_>) {
        let mut rng = self.stage_rng(stream::RENDER, s.frame_index);
        let mut pairs = StandardNormalPairs::new();
        let scenario = s.scenario;
        let frame = &scenario.frame;
        let result_payload = xr_types::MegaBytes::new(0.01);
        let result_delivery = if s.uses_edge && !scenario.edge_servers.is_empty() {
            let server = &scenario.edge_servers[0];
            let link = WirelessLink::new(server.technology, server.distance);
            let link = match server.throughput {
                Some(t) => link.with_throughput(t),
                None => link,
            };
            link.transmission_latency(result_payload)
        } else {
            result_payload / s.memory
        };
        let rendering = (Self::ms(frame.raw_size.as_f64(), s.c_true) + frame.raw_data / s.memory)
            * self.noise(&mut rng, &mut pairs)
            + s.buffering
            + result_delivery;
        s.latency[Segment::FrameRendering.slot()] = rendering;
    }

    /// Stage 9 — XR cooperation exchange.
    fn stage_cooperate(&self, s: &mut FrameState<'_>) {
        let mut rng = self.stage_rng(stream::COOPERATE, s.frame_index);
        let mut pairs = StandardNormalPairs::new();
        let cooperation = &s.scenario.cooperation;
        let coop = (cooperation.payload / cooperation.throughput
            + cooperation.distance / SPEED_OF_LIGHT)
            * self.noise(&mut rng, &mut pairs);
        s.latency[Segment::XrCooperation.slot()] = coop;
    }

    /// Stage 10 — Eq. 1 gating of the end-to-end total and the Monsoon-style
    /// energy measurement over the per-segment durations (integrated in the
    /// closed form of [`PowerMonitor::measure_energy`], which reproduces the
    /// sampled trace's energy distribution exactly).
    fn finalize(&self, s: FrameState<'_>, frame_index: u64) -> GroundTruthFrame {
        let scenario = s.scenario;
        // Every stage wrote its slot, so walking `Segment::ALL` here visits
        // exactly the (segment, value) pairs the old per-frame BTreeMap
        // iterated, in the same ascending order — the floating-point sums
        // below accumulate identically.
        let mut total_latency = Seconds::ZERO;
        for (slot, &segment) in Segment::ALL.iter().enumerate() {
            if Self::segment_included(scenario, segment, s.uses_local, s.uses_edge) {
                total_latency += s.latency[slot];
            }
        }

        let client = &scenario.client;
        let compute_power =
            self.laws
                .mean_power(client.cpu_clock, client.gpu_clock, client.cpu_share, s.bias);
        let mut energy = [Joules::ZERO; Segment::ALL.len()];
        let mut phases: Vec<(Watts, Seconds)> = Vec::new();
        let mut compute_energy = Joules::ZERO;
        for (slot, &segment) in Segment::ALL.iter().enumerate() {
            let duration = s.latency[slot];
            let included = Self::segment_included(scenario, segment, s.uses_local, s.uses_edge);
            let power = self.segment_power(segment, compute_power);
            let seg_energy = power * duration;
            energy[slot] = seg_energy;
            if included {
                phases.push((power, duration));
                if Self::segment_is_compute(segment) {
                    compute_energy += seg_energy;
                }
            }
        }
        let trace_energy = self.monitor.measure_energy(
            &phases,
            self.base_power,
            stage_stream_seed(self.seed, stream::MONITOR, frame_index),
        );
        let thermal = compute_energy * self.thermal_fraction;
        let total_energy = trace_energy + thermal;

        GroundTruthFrame {
            latency: s.latency,
            total_latency,
            energy,
            total_energy,
            handoff_occurred: s.handoff_occurred,
        }
    }

    /// The scalar reference implementation of
    /// [`TestbedSimulator::simulate_session`]: one frame at a time through
    /// the staged pipeline. The batched engine must reproduce this stream of
    /// [`GroundTruthFrame`]s bit for bit (pinned by property tests and a CI
    /// artifact diff).
    ///
    /// # Errors
    ///
    /// Returns scenario-validation errors; `frames` must be at least 1.
    pub fn simulate_session_scalar(
        &self,
        scenario: &Scenario,
        frames: u64,
    ) -> Result<GroundTruthSession> {
        check_frames(frames)?;
        // Validate before building SessionState: an invalid topology must
        // surface as an error here, not a panic in the site-map construction.
        scenario.validate()?;
        // One map for the session: the walker's and the contention plans'.
        let map = Self::session_map(scenario);
        let mut session = SessionState::on_map(self.seed, scenario, map.as_ref());
        let mut record = frame_buffer(frames)?;
        // After the record, as on the batched engine: a session too long
        // to record fails before any model error.
        let plans = self.session_plans(scenario, map.as_ref())?;
        for i in 1..=frames {
            record.push(self.simulate_frame_in_session(scenario, i, &plans, &mut session));
        }
        Ok(GroundTruthSession {
            frames: record,
            migration_time: session.migration_time,
            sites_visited: session.sites_visited(),
        })
    }
}

/// An empty frame record with room for a session of `frames` frames, shared
/// by both engines, so a session too long to record fails with a typed
/// error naming `frames` before any frame runs, instead of a
/// capacity-overflow panic or an allocation abort.
pub(crate) fn frame_buffer(frames: u64) -> Result<Vec<GroundTruthFrame>> {
    let mut buffer = Vec::new();
    usize::try_from(frames)
        .ok()
        .and_then(|frames| buffer.try_reserve_exact(frames).ok())
        .ok_or_else(|| {
            xr_types::Error::invalid_parameter(
                "frames",
                format!("a record of {frames} frames does not fit in memory"),
            )
        })?;
    Ok(buffer)
}

/// Rejects empty sessions: every session engine needs at least one frame.
pub(crate) fn check_frames(frames: u64) -> Result<()> {
    if frames == 0 {
        return Err(xr_types::Error::invalid_parameter(
            "frames",
            "must be at least 1",
        ));
    }
    Ok(())
}

/// Session-scoped simulation state threaded through the staged frame
/// pipeline: the stateful mobility walker (present for a session that
/// walks), the start site of any other session on a multi-edge map, and
/// the migration time paid so far.
#[derive(Debug, Clone)]
pub struct SessionState {
    pub(crate) walker: Option<TopologyWalker>,
    /// The site a static session stays attached to (its map's start site,
    /// 0 without a topology). A walking session's site is its walker's.
    site: usize,
    pub(crate) migration_time: Seconds,
}

impl SessionState {
    /// Session state for `scenario` under `simulator`: a session that
    /// walks (its device moves and its frames reach the edge) gets a
    /// [`TopologyWalker`] over the scenario's site map, or over the paper's
    /// single coverage zone as a one-site map when the scenario has no
    /// topology. The walker draws from its own session-scoped
    /// [`stream::WALKER`] stream (decorrelated from every per-frame
    /// measurement stream) and starts from a uniformly random position in
    /// its start site's coverage — the distribution the analytic `P(HO)`
    /// assumes. Any other topologized session still attaches to the map's
    /// start site.
    ///
    /// # Panics
    ///
    /// Panics when the scenario carries a topology that fails
    /// [`Scenario::validate`] (non-positive tiled site density) — the
    /// session entry points validate first.
    #[must_use]
    pub fn new(simulator: &TestbedSimulator, scenario: &Scenario) -> Self {
        Self::on_map(
            simulator.seed,
            scenario,
            TestbedSimulator::session_map(scenario).as_ref(),
        )
    }

    /// [`SessionState::new`] for the session seed `seed`, on the scenario's
    /// prebuilt [`TestbedSimulator::session_map`], so a point's
    /// replications share one map.
    pub(crate) fn on_map(seed: u64, scenario: &Scenario, map: Option<&EdgeTopology>) -> Self {
        let walker = map.filter(|_| Self::walks(scenario)).map(|map| {
            let mut walker = map.walker(
                scenario.mobility.speed,
                Seconds::new(0.1),
                stage_stream_seed(seed, stream::WALKER, 0),
            );
            walker.reset_uniform();
            walker
        });
        Self {
            walker,
            site: map.map_or(0, EdgeTopology::start_site),
            migration_time: Seconds::ZERO,
        }
    }

    /// Whether a session of `scenario` walks: its device moves and its
    /// frames reach the edge. Only then does either engine advance a
    /// walker (the handoff stage prices edge re-attachment), so no other
    /// session builds one; its start site and `sites_visited` are the same
    /// either way.
    pub(crate) fn walks(scenario: &Scenario) -> bool {
        scenario.execution.uses_edge() && scenario.mobility.speed.as_f64() > 0.0
    }

    /// Total state-migration latency paid so far.
    #[must_use]
    pub fn migration_time(&self) -> Seconds {
        self.migration_time
    }

    /// Index of the edge site currently serving the session.
    #[must_use]
    pub fn site_index(&self) -> usize {
        self.walker
            .as_ref()
            .map_or(self.site, TopologyWalker::site_index)
    }

    /// Number of distinct edge sites attached to so far (1 for a static
    /// device).
    #[must_use]
    pub fn sites_visited(&self) -> u32 {
        self.walker.as_ref().map_or(1, |w| w.sites_visited() as u32)
    }

    /// The mobility walker, when the device is moving.
    #[must_use]
    pub fn walker(&self) -> Option<&TopologyWalker> {
        self.walker.as_ref()
    }
}

/// The resolved multi-tenant contention state of one scenario: per edge
/// server, the tagged session's task-share weight and the aggregate M/M/1
/// queue shared by the whole population. Produced by
/// [`TestbedSimulator::contention_snapshot`]; campaigns read utilisation and
/// expected contention delay from it without running any frames.
#[derive(Debug, Clone, PartialEq)]
pub struct ContentionSnapshot {
    users: u32,
    servers: Vec<(f64, EdgeContention)>,
    /// Per edge *site* of a multi-edge topology (site order): the site's
    /// tenant population and its repopulated per-server queues. Empty when
    /// the scenario keeps the single-zone model.
    sites: Vec<(u32, Vec<(f64, EdgeContention)>)>,
}

impl ContentionSnapshot {
    /// Number of sessions sharing each edge server.
    #[must_use]
    pub fn users(&self) -> u32 {
        self.users
    }

    /// Per edge server (scenario order): the tagged session's weight and
    /// the shared queue.
    #[must_use]
    pub fn servers(&self) -> &[(f64, EdgeContention)] {
        &self.servers
    }

    /// Per edge site of the scenario's multi-edge topology (site order):
    /// the site's tenant population and its per-server queues — what the
    /// tagged session's frames draw from while attached there. Empty when
    /// the scenario has no topology.
    #[must_use]
    pub fn site_queues(&self) -> &[(u32, Vec<(f64, EdgeContention)>)] {
        &self.sites
    }

    /// The most utilised edge queue — where the latency knee appears first.
    /// With a topology, the per-site queues compete too (the densest tenant
    /// population sets the knee).
    ///
    /// # Panics
    ///
    /// Never panics: a snapshot always holds at least one server.
    #[must_use]
    pub fn bottleneck(&self) -> &EdgeContention {
        self.servers
            .iter()
            .map(|(_, contention)| contention)
            .chain(
                self.sites
                    .iter()
                    .flat_map(|(_, queues)| queues.iter().map(|(_, contention)| contention)),
            )
            .max_by(|a, b| a.utilization().total_cmp(&b.utilization()))
            .expect("snapshot always holds at least one server")
    }

    /// Utilisation `ρ` of the bottleneck queue.
    #[must_use]
    pub fn utilization(&self) -> f64 {
        self.bottleneck().utilization()
    }

    /// Expected contended remote-inference latency of the tagged session:
    /// the largest weighted mean sojourn across servers (exact for one
    /// server, a lower bound on the expected per-frame max for several).
    #[must_use]
    pub fn mean_contention_delay(&self) -> Seconds {
        self.servers
            .iter()
            .fold(Seconds::ZERO, |acc, &(weight, contention)| {
                acc.max(contention.mean_sojourn() * weight)
            })
    }
}

/// The sampling plans the contended edge stage executes, one per serving
/// site: per edge server (scenario order), the tagged session's weight and
/// the rate `µ − λ` of its exponential sojourn. Both engines fill them
/// through [`TestbedSimulator::contention_plans_into`] (the scalar
/// reference once per session, the batched engine once per driver call
/// into storage its worker reuses), so they cannot drift.
#[derive(Debug, Clone, Default)]
pub(crate) struct ContentionPlans {
    /// The aggregate queue of each edge server, with its task weight.
    queues: Vec<(f64, EdgeContention)>,
    /// `(weight, rate)` per site and edge server, site-major.
    pairs: Vec<(f64, f64)>,
}

impl ContentionPlans {
    /// Whether the scenario runs without contention (no plan at all).
    pub(crate) fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// The plan at serving site `site`: one `(weight, rate)` per edge
    /// server.
    pub(crate) fn site(&self, site: usize) -> &[(f64, f64)] {
        let servers = self.queues.len();
        &self.pairs[site * servers..(site + 1) * servers]
    }
}

/// Per-frame working state of the staged pipeline: the frame's position in
/// the session (each stage derives its own RNG stream from it), the derived
/// operating-point quantities, and the accumulating per-segment latency map.
#[derive(Debug)]
struct FrameState<'a> {
    scenario: &'a Scenario,
    /// Frame index within the session; combined with the session seed and a
    /// stage id, it addresses every RNG stream of the frame.
    frame_index: u64,
    bias: DeviceBias,
    /// True compute resource of the client at this operating point.
    c_true: f64,
    memory: xr_types::GigaBytesPerSecond,
    uses_local: bool,
    uses_edge: bool,
    client_share: f64,
    edge_share: f64,
    /// Encoder workload (pixel-equivalents), produced by the encode stage
    /// and consumed by the edge-compute stage.
    encode_work: f64,
    /// Sampled input-buffer sojourn, produced by the buffer stage and
    /// consumed by the render stage.
    buffering: Seconds,
    /// Per-segment latency, indexed by `Segment::slot()` (stages write
    /// their slots; unwritten slots stay zero, like the old map's
    /// missing-entry default).
    latency: [Seconds; Segment::ALL.len()],
    handoff_occurred: bool,
}

impl<'a> FrameState<'a> {
    fn new(simulator: &TestbedSimulator, scenario: &'a Scenario, frame_index: u64) -> Self {
        let client = &scenario.client;
        let bias = DeviceBias::for_device(client.name);
        Self {
            scenario,
            frame_index,
            bias,
            c_true: simulator.laws.compute_resource(
                client.cpu_clock,
                client.gpu_clock,
                client.cpu_share,
                bias,
            ),
            memory: client.memory_bandwidth,
            uses_local: scenario.execution.uses_client(),
            uses_edge: scenario.execution.uses_edge(),
            client_share: scenario.execution.client_share(),
            edge_share: scenario.execution.edge_share(),
            encode_work: 0.0,
            buffering: Seconds::ZERO,
            latency: [Seconds::ZERO; Segment::ALL.len()],
            handoff_occurred: false,
        }
    }
}

/// The scenario fields [`TestbedSimulator::session_map`] reads, compared
/// to reuse a worker's map across points: two scenarios with equal keys
/// get equal maps.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct MapKey {
    topology: Option<xr_core::TopologyConfig>,
    technology: Option<AccessTechnology>,
    tenants: Option<u32>,
    coverage_radius: xr_types::Meters,
    walks: bool,
}

impl MapKey {
    pub(crate) fn of(scenario: &Scenario) -> Self {
        Self {
            topology: scenario.topology,
            technology: scenario
                .edge_servers
                .first()
                .map(|server| server.technology),
            tenants: scenario.contention.map(|c| c.users_per_edge),
            coverage_radius: scenario.mobility.coverage_radius,
            walks: SessionState::walks(scenario),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xr_core::{LatencyModel, Scenario};
    use xr_types::{ExecutionTarget, GigaHertz, MetersPerSecond};

    fn scenario(side: f64, clock: f64, target: ExecutionTarget) -> Scenario {
        Scenario::builder()
            .frame_side(side)
            .cpu_clock(GigaHertz::new(clock))
            .execution(target)
            .build()
            .unwrap()
    }

    #[test]
    fn simulator_is_shareable_across_campaign_workers() {
        // The xr-sweep campaign engine evaluates operating points on scoped
        // worker threads holding `&TestbedSimulator`; this locks in the
        // Send + Sync bound a future field (e.g. interior-mutable caches)
        // could silently break.
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<TestbedSimulator>();
        assert_send_sync::<GroundTruthSession>();
    }

    #[test]
    fn session_statistics_are_positive_and_stable() {
        let testbed = TestbedSimulator::new(1);
        let s = scenario(500.0, 2.5, ExecutionTarget::Local);
        let session = testbed.simulate_session(&s, 30).unwrap();
        assert_eq!(session.frames().len(), 30);
        assert!(session.mean_latency().as_f64() > 0.0);
        assert!(session.mean_energy().as_f64() > 0.0);
        let mean = session.mean_latency().as_f64();
        let variance = session
            .frames()
            .iter()
            .map(|f| (f.total_latency.as_f64() - mean).powi(2))
            .sum::<f64>()
            / 30.0;
        assert!(variance.sqrt() < mean);
        assert_eq!(session.handoff_rate(), 0.0);
    }

    #[test]
    fn ground_truth_grows_with_frame_size_and_falls_with_clock() {
        let testbed = TestbedSimulator::new(2);
        for target in [ExecutionTarget::Local, ExecutionTarget::Remote] {
            let small = testbed
                .simulate_session(&scenario(300.0, 2.0, target), 20)
                .unwrap()
                .mean_latency();
            let large = testbed
                .simulate_session(&scenario(700.0, 2.0, target), 20)
                .unwrap()
                .mean_latency();
            assert!(large > small);
            let slow = testbed
                .simulate_session(&scenario(500.0, 1.0, target), 20)
                .unwrap()
                .mean_latency();
            let fast = testbed
                .simulate_session(&scenario(500.0, 3.0, target), 20)
                .unwrap()
                .mean_latency();
            assert!(fast < slow, "{target:?}: fast {fast} vs slow {slow}");
        }
    }

    #[test]
    fn remote_frames_skip_local_segments_and_vice_versa() {
        let testbed = TestbedSimulator::new(3);
        let remote = testbed
            .simulate_session(&scenario(500.0, 2.5, ExecutionTarget::Remote), 1)
            .unwrap();
        let remote = &remote.frames()[0];
        assert_eq!(
            remote.segment_latency(Segment::LocalInference),
            Seconds::ZERO
        );
        assert!(remote.segment_latency(Segment::RemoteInference).as_f64() > 0.0);
        assert!(remote.segment_latency(Segment::Transmission).as_f64() > 0.0);
        let local = testbed
            .simulate_session(&scenario(500.0, 2.5, ExecutionTarget::Local), 1)
            .unwrap();
        let local = &local.frames()[0];
        assert_eq!(
            local.segment_latency(Segment::RemoteInference),
            Seconds::ZERO
        );
        assert!(local.segment_latency(Segment::LocalInference).as_f64() > 0.0);
        assert!(local.segment_energy(Segment::LocalInference).as_f64() > 0.0);
    }

    #[test]
    fn simulation_is_deterministic_per_seed() {
        let s = scenario(500.0, 2.0, ExecutionTarget::Remote);
        let a = TestbedSimulator::new(9).simulate_session(&s, 5).unwrap();
        let b = TestbedSimulator::new(9).simulate_session(&s, 5).unwrap();
        let c = TestbedSimulator::new(10).simulate_session(&s, 5).unwrap();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn analytical_model_tracks_ground_truth_within_ten_percent() {
        // The published model (not even refit) should land in the right
        // ballpark because both follow the same pipeline structure.
        let testbed = TestbedSimulator::new(4);
        let model = LatencyModel::published();
        let s = scenario(500.0, 2.5, ExecutionTarget::Local);
        let gt = testbed.simulate_session(&s, 40).unwrap().mean_latency();
        let predicted = model.analyze(&s).unwrap().total();
        let rel = (gt.as_f64() - predicted.as_f64()).abs() / gt.as_f64();
        assert!(
            rel < 0.5,
            "relative gap {rel} too large (gt {gt}, model {predicted})"
        );
    }

    fn mobile_scenario(speed: f64, radius: f64) -> Scenario {
        Scenario::builder()
            .execution(ExecutionTarget::Remote)
            .mobility(xr_core::MobilityConfig {
                speed: MetersPerSecond::new(speed),
                coverage_radius: xr_types::Meters::new(radius),
                handoff_kind: HandoffKind::Vertical,
            })
            .build()
            .unwrap()
    }

    #[test]
    fn mobile_sessions_record_handoffs() {
        // Regression: a fast walker in a small zone must actually cross the
        // coverage boundary during a session — before the session loop
        // threaded a stateful walker, `handoff_rate` came from independent
        // per-frame Bernoulli draws and sessions never tracked real mobility.
        let testbed = TestbedSimulator::new(5);
        let session = testbed
            .simulate_session(&mobile_scenario(25.0, 8.0), 300)
            .unwrap();
        assert!(session.handoff_rate() > 0.0);
        assert!(session.handoff_rate() < 1.0);
    }

    #[test]
    fn session_handoffs_come_from_the_walker_and_scale_with_mobility() {
        let testbed = TestbedSimulator::new(6);
        // Static sessions never hand off.
        let static_session = testbed
            .simulate_session(&mobile_scenario(0.0, 8.0), 100)
            .unwrap();
        assert_eq!(static_session.handoff_rate(), 0.0);
        // A larger zone at the same speed hands off less often.
        let small = testbed
            .simulate_session(&mobile_scenario(25.0, 6.0), 400)
            .unwrap()
            .handoff_rate();
        let large = testbed
            .simulate_session(&mobile_scenario(25.0, 60.0), 400)
            .unwrap()
            .handoff_rate();
        assert!(
            small > large,
            "small-zone rate {small} should exceed large-zone rate {large}"
        );
    }

    #[test]
    fn session_state_tracks_handoffs_incrementally() {
        // Threading one `SessionState` through the frames one at a time
        // hands off on exactly the frames the whole-session run does.
        let testbed = TestbedSimulator::new(8);
        let s = mobile_scenario(25.0, 8.0);
        let session = testbed.simulate_session(&s, 300).unwrap();
        let mut state = SessionState::new(&testbed, &s);
        assert!(state.walker().is_some());
        let map = TestbedSimulator::session_map(&s);
        let plans = testbed.session_plans(&s, map.as_ref()).unwrap();
        for (i, recorded) in (1..=300).zip(session.frames()) {
            let frame = testbed.simulate_frame_in_session(&s, i, &plans, &mut state);
            assert_eq!(
                frame.handoff_occurred, recorded.handoff_occurred,
                "frame {i}"
            );
        }
        assert!(session.handoff_rate() > 0.0);
    }

    #[test]
    fn only_sessions_that_reach_the_edge_walk() {
        let testbed = TestbedSimulator::new(8);
        let mut local = mobile_scenario(25.0, 8.0);
        local.execution = ExecutionTarget::Local;
        let state = SessionState::new(&testbed, &local);
        assert!(state.walker().is_none());
        assert_eq!((state.site_index(), state.sites_visited()), (0, 1));
        let session = testbed.simulate_session(&local, 50).unwrap();
        assert_eq!(session.handoff_rate(), 0.0);
        assert_eq!(session.sites_visited(), 1);
        assert_eq!(
            session,
            testbed.simulate_session_scalar(&local, 50).unwrap()
        );
    }

    #[test]
    fn zero_frames_rejected_and_noise_control() {
        let testbed = TestbedSimulator::new(6).with_noise(0.0);
        let s = scenario(400.0, 2.0, ExecutionTarget::Local);
        assert!(testbed.simulate_session(&s, 0).is_err());
        let session = testbed.simulate_session(&s, 2).unwrap();
        let [a, b] = session.frames() else {
            panic!("a two-frame session has two frames");
        };
        // With zero measurement noise only the queueing/jitter terms differ.
        let gap = (a.segment_latency(Segment::FrameGeneration).as_f64()
            - b.segment_latency(Segment::FrameGeneration).as_f64())
        .abs();
        assert!(gap < 1e-12);
        assert!(testbed.laws().edge_speedup > 1.0);
    }

    fn contended_scenario(users: u32) -> Scenario {
        // A small frame at a relaxed frame rate: the default edge then hosts
        // ~10 sessions before the shared queue saturates, leaving room to
        // sweep the population on both sides of the knee.
        Scenario::builder()
            .execution(ExecutionTarget::Remote)
            .frame_side(300.0)
            .frame_rate(xr_types::Hertz::new(5.0))
            .contention(users)
            .build()
            .unwrap()
    }

    #[test]
    fn contention_snapshot_reports_the_shared_queue() {
        let testbed = TestbedSimulator::new(11);
        // No contention configured, or no edge in the loop → no snapshot.
        assert!(testbed
            .contention_snapshot(&scenario(500.0, 2.5, ExecutionTarget::Local))
            .unwrap()
            .is_none());
        assert!(testbed
            .contention_snapshot(&scenario(500.0, 2.5, ExecutionTarget::Remote))
            .unwrap()
            .is_none());
        let local_contended = Scenario::builder().contention(4).build().unwrap();
        assert!(testbed
            .contention_snapshot(&local_contended)
            .unwrap()
            .is_none());

        let four = testbed
            .contention_snapshot(&contended_scenario(4))
            .unwrap()
            .unwrap();
        assert_eq!(four.users(), 4);
        assert_eq!(four.servers().len(), 1);
        let single = testbed
            .contention_snapshot(&contended_scenario(1))
            .unwrap()
            .unwrap();
        // Utilisation scales linearly in the population; the delay grows.
        assert!((four.utilization() / single.utilization() - 4.0).abs() < 1e-9);
        assert!(four.mean_contention_delay() > single.mean_contention_delay());
        // The shared service time is the noise-free factor of the edge stage.
        let (weight, queue) = &single.servers()[0];
        assert!((*weight - 1.0).abs() < 1e-12);
        assert!((queue.per_session_rate() - 5.0).abs() < 1e-12);
        assert!(queue.service_time().as_f64() > 0.0);
    }

    #[test]
    fn contended_sessions_slow_the_remote_stage_monotonically() {
        let testbed = TestbedSimulator::new(12);
        let single = testbed
            .contention_snapshot(&contended_scenario(1))
            .unwrap()
            .unwrap();
        // Users at which the shared queue saturates (ρ = 1).
        let capacity = 1.0 / single.utilization();
        assert!(capacity > 4.0, "default edge must host a small population");
        let mut last = Seconds::ZERO;
        #[allow(clippy::cast_sign_loss, clippy::cast_possible_truncation)]
        for users in [1u32, (capacity * 0.5) as u32, (capacity * 0.9) as u32] {
            let session = testbed
                .simulate_session(&contended_scenario(users), 300)
                .unwrap();
            let remote = session.mean_segment_latency(Segment::RemoteInference);
            assert!(remote > last, "users {users}: {remote} vs {last}");
            last = remote;
        }
        // Past capacity the session refuses to run rather than diverge.
        #[allow(clippy::cast_sign_loss, clippy::cast_possible_truncation)]
        let over = capacity.ceil() as u32 + 1;
        let err = testbed
            .simulate_session(&contended_scenario(over), 4)
            .unwrap_err();
        assert!(matches!(err, xr_types::Error::UnstableQueue { .. }));
    }

    #[test]
    fn contended_sessions_are_deterministic_per_seed() {
        let s = contended_scenario(3);
        let a = TestbedSimulator::new(21).simulate_session(&s, 8).unwrap();
        let b = TestbedSimulator::new(21).simulate_session(&s, 8).unwrap();
        let c = TestbedSimulator::new(22).simulate_session(&s, 8).unwrap();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn energy_totals_include_base_and_thermal_overhead() {
        let testbed = TestbedSimulator::new(7);
        let s = scenario(500.0, 2.5, ExecutionTarget::Local);
        let session = testbed.simulate_session(&s, 1).unwrap();
        let frame = &session.frames()[0];
        let sum_segments: f64 = Segment::ALL
            .iter()
            .filter(|seg| s.segments.contains(**seg))
            .map(|seg| frame.segment_energy(*seg).as_f64())
            .sum();
        // The measured total includes base power and thermal conversion, so
        // it must exceed the bare sum of included compute/radio segments that
        // actually ran (local segments only here).
        assert!(frame.total_energy.as_f64() > 0.5 * sum_segments);
    }
}
