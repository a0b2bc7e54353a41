//! The batched structure-of-arrays frame engine.
//!
//! [`TestbedSimulator::simulate_session`] runs through this engine by
//! default: frames are simulated in batches of [`SimulationEngine`] width,
//! and each stage runs as a tight loop over one *column* of the batch (all
//! frames' frame-generation noise, then all frames' sensor jitter, …, then
//! all frames' power-monitor integrals) instead of walking one frame
//! through the whole pipeline at a time. A batch runs eleven `batch_*`
//! column stages: the ten stages of the scalar pipeline (generate through
//! finalize) plus the mobility walk pre-pass that `batch_walk` hoists out
//! of the handoff stage.
//!
//! Two properties make this reordering legal without changing a single
//! random draw:
//!
//! 1. **Per-stage RNG streams.** Every draw of stage `s` at frame `f` comes
//!    from the stream `stage_stream_seed(session_seed, s, f)`
//!    ([`xr_types::seed`]), so a stage never observes how many draws another
//!    stage consumed and columns can be evaluated in any order.
//! 2. **Explicit carry for the sequential stage.** The only cross-frame
//!    state — the mobility walker of a moving session — is advanced as one
//!    in-order scan per batch over the scenario's
//!    [`xr_wireless::EdgeTopology`] (or the single coverage zone as a
//!    one-site map), with its fractional-step carry preserved across batch
//!    boundaries. The scan's step angles are one
//!    [`xr_wireless::StepColumn`] per batch: every fused walker draws the
//!    words of the steps its windows take, their `cos`/`sin` are evaluated
//!    in angle order, and each walker then steps through its own words in
//!    stream order, so every draw and value is the one a per-window
//!    `TopologyWalker::advance` gives. This walk pre-pass records each frame's
//!    attachment site and [`SiteEvents`]; the handoff column then prices
//!    zone crossings and edge-to-edge state migrations from those records,
//!    and on a contended map the edge column divides each lane's unit-rate
//!    sojourn draw by its serving *site's* M/M/1 rate.
//!
//! ## The lane-oriented draw layer
//!
//! The stages do not draw from per-frame RNG objects. Each stochastic stage
//! seeds one [`crate::lanes::LaneStreams`] bank per batch — lane `j`
//! replays frame `first_index + j`'s own stage stream — and pre-fills its
//! draw columns *by draw index*: one block `fill_next` per draw group (a
//! Box–Muller word pair, the monitor's `2 × pairs` words, a sensor's
//! `updates_per_frame` jitter words, or a single word), which steps each
//! lane through the group two words per load and store of its state; then
//! one `rand_distr::column` transform per sampled column (Box–Muller
//! normals, exponential sojourns) or per sensor's block of uniform jitter
//! columns, then a multiply-accumulate pass
//! against the hoisted per-session `BatchConsts` base latencies. Seeding, raw
//! word generation and every column transform run as contiguous passes,
//! and the per-frame loops reduce to straight-line float arithmetic.
//! Because every frame's words come only from its own lane, the draw
//! scheme is **lane-count invariant by construction** — the same invariant
//! per-stage streams pinned for batching, pushed down to the raw `u64`
//! level.
//!
//! ## One tier decision
//!
//! Each public driver call reads `rand_distr::math::Tier::dispatched` once:
//! the widest SIMD tier the CPU supports (AVX-512, AVX2 or portable), or
//! the portable one under `XR_FORCE_PORTABLE`. Every batch then runs its
//! eleven stages as one `Tier::run` pass on that tier, so the fold and sum
//! loops between the transforms are built for it, and the same tier goes
//! to the lane bank, every column fill and the monitor pass inside. Rust
//! never contracts or reassociates floating-point operations, so every
//! tier computes the same bits, and unit tests here run whole driver
//! calls on each tier the host supports against the scalar reference.
//!
//! The finalize stage is a column stage too, and runs phase-major: the
//! Monsoon monitor's per-phase noise comes from the `MONITOR` lanes through
//! `rand_distr::column::fill_standard_normal_pair`, then one pass per
//! included slot reads that slot's latency column once and adds it to the
//! Eq. 1 totals, the thermal-share compute energy and, through
//! `PowerMonitor::add_phase_energy` (one lane loop with one draw cursor
//! per lane), the energy column. Stage 9 (cooperation) is skipped when
//! the caller keeps only totals and the scenario leaves cooperation out of
//! them.
//! What a finalized frame then becomes depends on the caller: a session
//! ([`TestbedSimulator::simulate_session`],
//! [`TestbedSimulator::simulate_point`]) copies it into a
//! [`GroundTruthFrame`], while the campaign path
//! ([`TestbedSimulator::point_totals`]) only folds it, in frame order, into
//! the replication's [`SessionTotals`] and builds no frame at all.
//!
//! ## One driver
//!
//! Every batched entry point runs one driver over a list of session seeds:
//! one seed for a session, one per replication for a point. All of a
//! point's replications run *fused*, whatever the session length: each
//! pass holds an equal lane segment per replication, laid out rep-major,
//! and every segment replays its own session's per-stage streams, so a
//! fused replication is bit-identical to the same session run alone. The
//! engine choice (scalar reference or batched) is made in that driver and
//! nowhere else.
//!
//! All column storage (`FrameBatch`, `DrawColumns`, the walker's step
//! column and per-frame events) and a point's set-up (its session seeds,
//! session states, the vectors of the hoisted constants and the contention
//! plans) are allocated once
//! per worker thread and reused by every driver call on it and across
//! batches — the steady-state frame loop performs **no** per-frame heap
//! allocation, and a point grows the storage only when it needs more
//! than every earlier one on its thread. Each driver call refills the
//! set-up and starts by re-zeroing every latency column, so a stage that
//! is gated off for one point reads zeros, never an earlier point's
//! values.
//!
//! Bit-identity with the scalar reference
//! ([`TestbedSimulator::simulate_session_scalar`]) is pinned by unit tests
//! here, a cross-crate property test over random scenarios and batch
//! widths, a draw-layer property test (`tests/draw_columns.rs`) pinning
//! wide-lane fills against per-frame `stage_rng` draws, and the `grid_pins`
//! integration test, which runs every checked-in grid file through both
//! engines and diffs the CSVs.

use crate::lanes::LaneStreams;
use crate::laws::DeviceBias;
use crate::power::DrawCursors;
use crate::simulator::{
    check_frames, frame_buffer, stream, ContentionPlans, GroundTruthFrame, GroundTruthSession,
    MapKey, SessionState, SessionTotals, TestbedSimulator,
};
use rand_distr::math::Tier;
use rand_distr::{column, Exp, Normal, StandardNormalPairs};
use std::cell::RefCell;
use std::ops::Range;
use xr_core::Scenario;
use xr_types::{Joules, Result, Seconds, Segment, Watts, SPEED_OF_LIGHT};
use xr_wireless::{
    EdgeTopology, HandoffKind, SiteEvents, StepColumn, TopologyWalker, WirelessLink,
};

/// Default number of frames simulated per batch. Sessions shorter than the
/// width still run batched (one partial batch); longer sessions amortise
/// the per-batch column setup over this many frames. 256 keeps the whole
/// working set (batch columns plus draw columns, ~50 KiB) inside L2 while
/// amortising per-batch reseeds further than the original width of 64;
/// results are bit-identical at every width, so this is purely a
/// throughput default.
pub const DEFAULT_BATCH_WIDTH: usize = 256;

/// Which implementation [`TestbedSimulator::simulate_session`] runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimulationEngine {
    /// The frame-by-frame reference pipeline
    /// ([`TestbedSimulator::simulate_session_scalar`]).
    Scalar,
    /// The structure-of-arrays engine: stages run as column loops over
    /// `width` frames at a time (clamped to at least 1). Bit-identical to
    /// [`SimulationEngine::Scalar`] for every width. A point's
    /// replications share each pass, `width / reps` lanes apiece (at
    /// least one).
    Batched {
        /// Lanes per pass, shared by all replications of a point.
        width: usize,
    },
}

impl Default for SimulationEngine {
    fn default() -> Self {
        SimulationEngine::Batched {
            width: DEFAULT_BATCH_WIDTH,
        }
    }
}

/// Everything about one `(simulator, scenario)` pair that is constant
/// across frames, hoisted out of the per-frame loops: the deterministic
/// base latency of every stage (the scalar pipeline recomputes these per
/// frame), the contended edge stage's sampling plans (one per serving
/// site), the per-segment power levels and Eq. 1 inclusion flags of the
/// finalizer, and the handoff-stage mobility parameters. The per-worker
/// [`Scratch`] holds one, refilled by every driver call; its `Default` is
/// the empty storage before the first.
#[derive(Default)]
struct BatchConsts {
    noise: Option<Normal>,
    // Stage 1 — generate.
    generation_base: Seconds,
    volumetric_base: Seconds,
    // Stage 2 — sense: per sensor, (generation period, propagation delay).
    sensors: Vec<(Seconds, Seconds)>,
    updates_per_frame: u32,
    // Stage 3 — buffer: one sojourn distribution per stable flow.
    flows: Vec<Exp>,
    // Stage 4 — encode (`None` when the path is gated off: no base latency
    // *and no noise draw*, matching the scalar gating).
    conversion_base: Option<Seconds>,
    encoding_base: Option<Seconds>,
    // Stage 5 — local inference (includes the client share factor).
    local_base: Option<Seconds>,
    // Stage 6 — uplink + edge: per server, (weighted inference base,
    // transmission base).
    edges: Vec<(Seconds, Seconds)>,
    // Stage 6, contended mode — `contention.site(site)` is the sampling
    // plan of the multi-tenant M/M/1 queues while the session is attached
    // to `site` (one plan, for site 0, without a topology; empty keeps the
    // private-edge path).
    contention: ContentionPlans,
    // Stage 7 — handoff. `map` is the map every replication attaches to
    // (`None` for a session without a topology that does not walk), built
    // from the inputs `map_key` holds; a point with the same key keeps it.
    mobile: bool,
    window: Seconds,
    handoff_base: Seconds,
    migration_base: Seconds,
    map: Option<EdgeTopology>,
    map_key: Option<MapKey>,
    // Stage 8 — render.
    render_base: Seconds,
    result_delivery: Seconds,
    // Stage 9 — cooperate.
    cooperation_base: Seconds,
    // Stage 10 — finalize: per segment (in `Segment::ALL` order, the
    // iteration order of the scalar finalizer's BTreeMap), the power level,
    // the Eq. 1 inclusion flag, and whether it counts as compute for the
    // thermal share.
    segment_power: [Watts; Segment::ALL.len()],
    segment_included: [bool; Segment::ALL.len()],
    segment_is_compute: [bool; Segment::ALL.len()],
    /// `mix(session_seed, stage_id)` per stage — the first half of
    /// [`stage_stream_seed`], hoisted so the per-frame stream derivation is
    /// a single `mix` against the frame index. Each entry is a pure function
    /// of `(session_seed, stage_id)`, so growing the inner array for a new
    /// stream id cannot re-key any existing stage. One outer entry per
    /// fused replication (a plain session has exactly one); everything
    /// *else* in this struct is seed-independent, which is what lets the
    /// fused point engine hoist one `BatchConsts` across all replications.
    stage_bases: Vec<[u64; 13]>,
}

impl BatchConsts {
    /// Hoists the constants once for every session of one driver call:
    /// `session_seeds[r]` is the session seed of fused replication `r`.
    /// Every field is rewritten (one struct literal); the vectors keep
    /// their capacity from the worker's earlier calls. Everything outside
    /// `stage_bases` is a pure function of `(simulator, scenario)` —
    /// including the contention-plan construction, so its errors (e.g.
    /// `UnstableQueue`) do not depend on the seeds, and a point refuses
    /// exactly as each of its sessions run alone would.
    fn refill(
        &mut self,
        simulator: &TestbedSimulator,
        scenario: &Scenario,
        session_seeds: &[u64],
    ) -> Result<()> {
        // Each reused vector is taken, cleared and refilled.
        fn reuse<T>(vector: &mut Vec<T>) -> Vec<T> {
            let mut vector = std::mem::take(vector);
            vector.clear();
            vector
        }
        let client = &scenario.client;
        let bias = DeviceBias::for_device(client.name);
        let c_true = simulator.laws.compute_resource(
            client.cpu_clock,
            client.gpu_clock,
            client.cpu_share,
            bias,
        );
        let memory = client.memory_bandwidth;
        let uses_local = scenario.execution.uses_client();
        let uses_edge = scenario.execution.uses_edge();
        let client_share = scenario.execution.client_share();
        let edge_share = scenario.execution.edge_share();
        let frame = &scenario.frame;
        let ms = TestbedSimulator::ms;

        let mu = scenario.buffer.service_rate;
        let frame_rate = frame.frame_rate.as_f64();
        let mut flows = reuse(&mut self.flows);
        flows.extend(
            [
                scenario.buffer.frame_arrival_rate.unwrap_or(frame_rate),
                scenario
                    .buffer
                    .volumetric_arrival_rate
                    .unwrap_or(frame_rate),
                scenario.external_arrival_rate(),
            ]
            .into_iter()
            .filter(|&lambda| lambda > 0.0 && lambda < mu)
            .map(|lambda| Exp::new(mu - lambda).expect("positive rate")),
        );

        let encode_work = simulator
            .laws
            .encoding_work(&scenario.encoding, frame, bias);
        let local_complexity = simulator.laws.cnn_complexity(scenario.local_cnn);
        let remote_complexity = simulator.laws.cnn_complexity(scenario.remote_cnn);

        let mut edges = reuse(&mut self.edges);
        if uses_edge && !scenario.edge_servers.is_empty() {
            let total_share: f64 = scenario.edge_servers.iter().map(|srv| srv.task_share).sum();
            for (i, server) in scenario.edge_servers.iter().enumerate() {
                let c_edge = simulator.edge_resource(scenario, i, c_true);
                let weight = if total_share > 0.0 {
                    server.task_share / total_share * edge_share
                } else {
                    0.0
                };
                let decode = ms(encode_work * simulator.laws.decode_discount(), c_edge);
                let infer = ms(frame.encoded_size.as_f64() * remote_complexity, c_edge)
                    + frame.encoded_data / server.memory_bandwidth
                    + decode;
                let link = WirelessLink::new(server.technology, server.distance);
                let link = match server.throughput {
                    Some(t) => link.with_throughput(t),
                    None => link,
                };
                edges.push((
                    infer * weight,
                    link.transmission_latency(frame.encoded_data),
                ));
            }
        }

        let mobile = SessionState::walks(scenario);
        let window = scenario.frame_window();
        let handoff_base = match scenario.mobility.handoff_kind {
            HandoffKind::Horizontal => Seconds::new(0.065),
            HandoffKind::Vertical => Seconds::new(1.2),
        };

        let result_payload = xr_types::MegaBytes::new(0.01);
        let result_delivery = if uses_edge && !scenario.edge_servers.is_empty() {
            let server = &scenario.edge_servers[0];
            let link = WirelessLink::new(server.technology, server.distance);
            let link = match server.throughput {
                Some(t) => link.with_throughput(t),
                None => link,
            };
            link.transmission_latency(result_payload)
        } else {
            result_payload / memory
        };

        // All three per-segment tables precompute the *shared* finalizer
        // classification helpers, so the engines cannot drift apart.
        let compute_power =
            simulator
                .laws
                .mean_power(client.cpu_clock, client.gpu_clock, client.cpu_share, bias);
        let mut segment_power = [Watts::ZERO; Segment::ALL.len()];
        let mut segment_included = [false; Segment::ALL.len()];
        let mut segment_is_compute = [false; Segment::ALL.len()];
        for (slot, &segment) in Segment::ALL.iter().enumerate() {
            segment_is_compute[slot] = TestbedSimulator::segment_is_compute(segment);
            segment_power[slot] = simulator.segment_power(segment, compute_power);
            segment_included[slot] =
                TestbedSimulator::segment_included(scenario, segment, uses_local, uses_edge);
        }

        let mut sensors = reuse(&mut self.sensors);
        sensors.extend(
            scenario
                .sensors
                .iter()
                .map(|s| (s.generation_frequency.period(), s.distance / SPEED_OF_LIGHT)),
        );
        let mut stage_bases = reuse(&mut self.stage_bases);
        stage_bases.extend(
            session_seeds
                .iter()
                .map(|&seed| std::array::from_fn(|stage| xr_types::seed::mix(seed, stage as u64))),
        );
        let map_key = MapKey::of(scenario);
        if self.map_key != Some(map_key) {
            self.map = TestbedSimulator::session_map(scenario);
            self.map_key = Some(map_key);
        }
        // The session map is the scenario's edge topology whenever it has
        // one.
        let topology = self.map.as_ref().filter(|_| scenario.topology.is_some());
        let mut contention = std::mem::take(&mut self.contention);
        simulator.contention_plans_into(scenario, topology, &mut contention)?;

        *self = Self {
            noise: (simulator.noise_sigma > 0.0)
                .then(|| Normal::new(0.0, simulator.noise_sigma).expect("valid sigma")),
            generation_base: frame.frame_rate.period()
                + ms(frame.raw_size.as_f64(), c_true)
                + frame.raw_data / memory,
            volumetric_base: ms(frame.scene_size.as_f64(), c_true) + frame.volumetric_data / memory,
            sensors,
            updates_per_frame: scenario.updates_per_frame,
            flows,
            conversion_base: uses_local
                .then(|| ms(frame.raw_size.as_f64(), c_true) + frame.raw_data / memory),
            encoding_base: uses_edge.then(|| ms(encode_work, c_true) + frame.raw_data / memory),
            local_base: (uses_local && client_share > 0.0).then(|| {
                (ms(frame.converted_size.as_f64() * local_complexity, c_true)
                    + frame.converted_data / memory)
                    * client_share
            }),
            edges,
            contention,
            mobile,
            window,
            handoff_base,
            migration_base: TestbedSimulator::migration_base(scenario),
            map: self.map.take(),
            map_key: self.map_key,
            render_base: ms(frame.raw_size.as_f64(), c_true) + frame.raw_data / memory,
            result_delivery,
            cooperation_base: scenario.cooperation.payload / scenario.cooperation.throughput
                + scenario.cooperation.distance / SPEED_OF_LIGHT,
            segment_power,
            segment_included,
            segment_is_compute,
            stage_bases,
        };
        Ok(())
    }

    /// `mix(session_seed, stage)` of fused replication `rep`.
    fn base(&self, rep: usize, stage: u64) -> u64 {
        self.stage_bases[rep][stage as usize]
    }

    /// One multiplicative noise factor, drawing through the stream's
    /// [`StandardNormalPairs`] cache exactly like the scalar pipeline's
    /// `TestbedSimulator::noise` (no draw when noiseless). Only the sparse
    /// handoff path still draws frame-at-a-time; the dense stages consume
    /// pre-filled [`DrawColumns`] instead.
    fn noise(&self, rng: &mut rand::rngs::StdRng, pairs: &mut StandardNormalPairs) -> f64 {
        match &self.noise {
            Some(normal) => rand_distr::math::exp(normal.from_standard(pairs.next(rng))),
            None => 1.0,
        }
    }

    /// The stage's RNG stream for one frame of replication `rep` —
    /// bit-identical to [`TestbedSimulator::stage_rng`] on that
    /// replication's session seed, with the stage half of the seed
    /// derivation precomputed.
    fn rng(&self, rep: usize, stage: u64, frame_index: u64) -> rand::rngs::StdRng {
        use rand::SeedableRng;
        rand::rngs::StdRng::seed_from_u64(xr_types::seed::mix(self.base(rep, stage), frame_index))
    }
}

/// The lane-oriented draw layer of one session: a wide xoshiro bank (one
/// lane per frame of the current batch) plus the raw-word block and the
/// transformed draw columns the stages pre-fill and consume by index.
/// Kept per worker thread with its `FrameBatch`; `reseed` only rewrites
/// lane state and column lengths.
struct DrawColumns {
    /// The tier every draw pass runs on: the driver call's, set at its
    /// start.
    tier: Tier,
    lanes: LaneStreams,
    /// The raw words of the current draw group, one block: draw `d` of
    /// lane `i` at `raw[d * n + i]` for a batch of `n` lanes. A group is a
    /// Box–Muller word pair (two columns), the monitor's `2 × pairs`
    /// columns, a sensor's `updates_per_frame` jitter columns, or a single
    /// uniform or exponential column. Grown to the session's largest group
    /// and never shrunk, so the groups of one batch reuse it without
    /// re-zeroing.
    raw: Vec<u64>,
    /// Transformed draw columns. `fac_a` holds single-word transforms
    /// (uniform jitter, exponential sojourns) and the first noise factor;
    /// `fac_b` holds a second concurrent noise factor where a stage needs
    /// two live columns at once (the edge loop).
    fac_a: Vec<f64>,
    fac_b: Vec<f64>,
    /// Transformed multi-column blocks, draw `d` of lane `i` at
    /// `block[d * n + i]`: a sensor's jitter block, or the monitor's
    /// standard normals with both Box–Muller halves of each word pair
    /// kept. Each fill overwrites what it hands out.
    block: Vec<f64>,
    /// The monitor's per-lane draw cursors into `block`.
    cursors: DrawCursors,
    /// Per-frame accumulator for the sensor stage's update loop.
    acc: Vec<Seconds>,
    /// Scratch: the current stage's seed base of each fused replication,
    /// rebuilt on each reseed.
    bases: Vec<u64>,
}

impl DrawColumns {
    fn new() -> Self {
        Self {
            tier: Tier::Portable,
            lanes: LaneStreams::new(),
            raw: Vec::new(),
            fac_a: Vec::new(),
            fac_b: Vec::new(),
            block: Vec::new(),
            cursors: DrawCursors::default(),
            acc: Vec::new(),
            bases: Vec::new(),
        }
    }

    /// Points the lane bank at `stage`'s streams for the frames of `b` and
    /// sizes the draw columns to the batch. The columns are pure scratch —
    /// every `fill_*` overwrites them end to end before anything reads
    /// them — so their contents are only touched when the batch shape
    /// changes (once per driver call plus the tail batch). The bank is
    /// seeded as one contiguous lane segment per replication, each
    /// replaying its own session's stage streams.
    fn reseed(&mut self, k: &BatchConsts, stage: u64, b: &FrameBatch) {
        self.bases.clear();
        self.bases
            .extend(k.stage_bases.iter().map(|bases| bases[stage as usize]));
        self.lanes
            .reseed(self.tier, &self.bases, b.first_index, b.per_rep);
        if self.fac_a.len() != b.n {
            self.fac_a.resize(b.n, 0.0);
            self.fac_b.resize(b.n, 0.0);
        }
    }

    /// Draws the next `columns` raw-word columns of every lane as one
    /// block (one `fill_next`) into the front of `raw`, and returns the
    /// batch width `n`: column `c` is `raw[c * n..(c + 1) * n]`.
    fn draw(&mut self, columns: usize) -> usize {
        let n = self.fac_a.len();
        let words = columns * n;
        if self.raw.len() < words {
            self.raw.resize(words, 0);
        }
        self.lanes.fill_next(self.tier, &mut self.raw[..words]);
        n
    }

    /// Fills `fac_a` with the next multiplicative noise factor column —
    /// `exp(N(0, σ))` from the cosine Box–Muller half of one word pair
    /// (two raw words per frame), bit-identical to a stage whose scalar
    /// form draws **one** factor from a fresh pair cache.
    fn noise_a(&mut self, normal: &Normal) {
        let n = self.draw(2);
        let (a, b) = self.raw[..2 * n].split_at(n);
        column::fill_lognormal(self.tier, normal, a, b, &mut self.fac_a);
    }

    /// Fills `fac_a` (cosine halves) **and** `fac_b` (sine halves) with the
    /// two noise factors of the next word pair — still two raw words per
    /// frame, but one `ln`/`sqrt`/`sincos` set now feeds both columns.
    /// Bit-identical to two consecutive draws through the scalar pipeline's
    /// pair cache on the same stream.
    fn noise_pair(&mut self, normal: &Normal) {
        let n = self.draw(2);
        let (a, b) = self.raw[..2 * n].split_at(n);
        column::fill_lognormal_pair(self.tier, normal, a, b, &mut self.fac_a, &mut self.fac_b);
    }

    /// Fills `block` with the next `pairs` word pairs' standard variates,
    /// two draw columns per pair: the sequence a scalar pair cache hands
    /// out on each lane's stream, up to draw `2 * pairs`. All `2 * pairs`
    /// raw columns come from one block.
    fn standard_normals(&mut self, pairs: usize) {
        let n = self.draw(2 * pairs);
        self.block.resize(2 * pairs * n, 0.0);
        let words = self.raw[..2 * pairs * n].chunks_exact(2 * n);
        for (words, columns) in words.zip(self.block.chunks_exact_mut(2 * n)) {
            let (a, b) = words.split_at(n);
            let (cos, sin) = columns.split_at_mut(n);
            column::fill_standard_normal_pair(self.tier, a, b, cos, sin);
        }
    }

    /// Fills `block` with the next `columns` `gen_range(lo..hi)` columns —
    /// one raw word per frame and column, drawn as one block and
    /// transformed in one pass — and returns the batch width `n`: column
    /// `c` is `block[c * n..(c + 1) * n]`.
    fn uniform_block(&mut self, columns: usize, lo: f64, hi: f64) -> usize {
        let n = self.draw(columns);
        let words = columns * n;
        self.block.resize(words, 0.0);
        column::fill_uniform_range(self.tier, lo, hi, &self.raw[..words], &mut self.block);
        n
    }

    /// Fills `fac_a` with the next `gen_range(lo..hi)` column — one raw
    /// word per frame.
    fn uniform_a(&mut self, lo: f64, hi: f64) {
        let n = self.draw(1);
        column::fill_uniform_range(self.tier, lo, hi, &self.raw[..n], &mut self.fac_a);
    }

    /// Fills `fac_a` with the next exponential-sojourn column — one raw
    /// word per frame.
    fn exp_a(&mut self, flow: &Exp) {
        let n = self.draw(1);
        column::fill_exp(self.tier, flow, &self.raw[..n], &mut self.fac_a);
    }
}

/// One batch of frames in structure-of-arrays layout: a column per pipeline
/// output plus the scratch buffers the stages reuse across batches. Columns
/// are indexed by position within the batch.
///
/// A batch holds `per_rep` frames of each of `n / per_rep` fused
/// replications, laid out **rep-major**: lane `i` is frame
/// `first_index + (i % per_rep)` of replication `i / per_rep`, so each
/// replication's lanes form one contiguous segment that is exactly the
/// batch a standalone run of that session would build. A single session is
/// the one-replication case (`per_rep == n`).
struct FrameBatch {
    first_index: u64,
    /// Frames per replication in this batch.
    per_rep: usize,
    /// Total lane count: `per_rep ×` the number of fused replications.
    n: usize,
    /// One latency column per segment, in `Segment::ALL` order.
    latency: [Vec<Seconds>; Segment::ALL.len()],
    buffering: Vec<Seconds>,
    handoff_occurred: Vec<bool>,
    /// Scratch: one replication's per-frame observation windows, the walk
    /// pre-pass's windows for every walker.
    windows: Vec<Seconds>,
    /// The walk pre-pass's step-angle column: every fused walker's steps
    /// in this batch, drawn ahead and evaluated in angle order.
    steps: StepColumn,
    /// Each frame's walk events from the walk pre-pass: the site serving
    /// its uplink (the site at the frame window's start) and its
    /// crossing/migration counts, priced later by the handoff stage.
    /// Written for a moving session, and for a static one only when the
    /// edge stage reads its site.
    events: Vec<SiteEvents>,
    /// The finalizer's Eq. 1 latency totals, one per frame.
    totals: Vec<Seconds>,
    /// Scratch: the finalizer's thermal-share compute energy, one per frame.
    compute: Vec<Joules>,
    /// The finalizer's total energy (monitor integral plus thermal share),
    /// one per frame.
    energy: Vec<Joules>,
}

/// Column positions in `Segment::ALL` order, kept as named constants so the
/// stage loops read like the scalar pipeline.
const GENERATION: usize = 0;
const VOLUMETRIC: usize = 1;
const EXTERNAL: usize = 2;
const CONVERSION: usize = 3;
const ENCODING: usize = 4;
const LOCAL_INFERENCE: usize = 5;
const REMOTE_INFERENCE: usize = 6;
const RENDERING: usize = 7;
const TRANSMISSION: usize = 8;
const HANDOFF: usize = 9;
const COOPERATION: usize = 10;

impl FrameBatch {
    fn new() -> Self {
        Self {
            first_index: 0,
            per_rep: 0,
            n: 0,
            latency: Default::default(),
            buffering: Vec::new(),
            handoff_occurred: Vec::new(),
            windows: Vec::new(),
            steps: StepColumn::default(),
            events: Vec::new(),
            totals: Vec::new(),
            compute: Vec::new(),
            energy: Vec::new(),
        }
    }

    /// Starts a driver call on storage that an earlier call, possibly for
    /// another point, may have filled: every latency column is emptied, so
    /// the first [`FrameBatch::reset`] of the call refills it with zeros.
    fn begin_call(&mut self) {
        for column in &mut self.latency {
            column.clear();
        }
    }

    /// Rewinds the batch onto `per_rep` frames starting at absolute frame
    /// index `first_index`, for each of `reps` fused replications
    /// (rep-major lane layout).
    ///
    /// Only the columns a stage *reads before writing* are re-zeroed each
    /// batch: the `max`-accumulators (`EXTERNAL`, `REMOTE_INFERENCE`,
    /// `TRANSMISSION`), the `+=`-accumulator (`buffering`), and the
    /// sparsely written handoff outputs. Every other column is either
    /// fully overwritten by its stage on every batch or its stage is gated
    /// off for the whole driver call (gating lives in the per-call
    /// [`BatchConsts`]), in which case the column keeps the zeros that
    /// [`FrameBatch::begin_call`] left it with — so skipping their memsets
    /// cannot leak a stale value, not even one from an earlier point on
    /// the same thread.
    fn reset(&mut self, first_index: u64, per_rep: usize, reps: usize) {
        let n = per_rep * reps;
        self.first_index = first_index;
        self.per_rep = per_rep;
        self.n = n;
        for column in &mut self.latency {
            column.resize(n, Seconds::ZERO);
        }
        for slot in [EXTERNAL, REMOTE_INFERENCE, TRANSMISSION, HANDOFF] {
            self.latency[slot].fill(Seconds::ZERO);
        }
        self.buffering.resize(n, Seconds::ZERO);
        self.buffering.fill(Seconds::ZERO);
        self.handoff_occurred.resize(n, false);
        self.handoff_occurred.fill(false);
    }

    /// Absolute frame index of lane `i` (rep-major layout).
    fn frame_index(&self, i: usize) -> u64 {
        self.first_index + (i % self.per_rep) as u64
    }

    /// Which fused replication lane `i` belongs to.
    fn rep(&self, i: usize) -> usize {
        i / self.per_rep
    }
}

/// The engine's per-worker storage: every driver call on the thread
/// reuses it, so a campaign allocates its columns and point set-up once
/// per worker instead of once per point. Each call rewrites what it reads
/// before reading it: the seeds and sessions are cleared and refilled,
/// [`BatchConsts::refill`] rewrites every constant, and
/// [`FrameBatch::begin_call`] empties the latency columns.
struct Scratch {
    batch: FrameBatch,
    draws: DrawColumns,
    /// The session seed of each replication of the current call.
    seeds: Vec<u64>,
    /// The session state of each replication of the current call.
    sessions: Vec<SessionState>,
    /// The current call's hoisted constants.
    consts: BatchConsts,
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch {
        batch: FrameBatch::new(),
        draws: DrawColumns::new(),
        seeds: Vec::new(),
        sessions: Vec::new(),
        consts: BatchConsts::default(),
    });
}

/// The sessions one driver call runs.
#[derive(Debug, Clone, Copy)]
enum SessionSeeds {
    /// One session under this seed.
    One(u64),
    /// All `reps` replications of the point under this point seed: seeds
    /// `mix(point_seed, r)` for `r` in `0..reps`.
    Point { point_seed: u64, reps: usize },
}

impl SessionSeeds {
    /// Writes the session seeds into `seeds`, replacing its contents.
    fn fill(self, seeds: &mut Vec<u64>) -> Result<()> {
        seeds.clear();
        match self {
            SessionSeeds::One(seed) => seeds.push(seed),
            SessionSeeds::Point { point_seed, reps } => {
                if reps == 0 {
                    return Err(xr_types::Error::invalid_parameter(
                        "reps",
                        "must be at least 1",
                    ));
                }
                seeds.try_reserve_exact(reps).map_err(|_| {
                    xr_types::Error::invalid_parameter(
                        "reps",
                        format!("{reps} replications do not fit in memory"),
                    )
                })?;
                seeds.extend((0..reps as u64).map(|rep| xr_types::seed::mix(point_seed, rep)));
            }
        }
        Ok(())
    }
}

/// What the driver builds for one replication out of its finalized frames:
/// the full [`GroundTruthSession`] (for
/// [`TestbedSimulator::simulate_session`] and
/// [`TestbedSimulator::simulate_point`]) or the campaign's running
/// [`SessionTotals`] (for [`TestbedSimulator::point_totals`]).
trait RepOutput: Sized {
    /// Whether the output reads every segment's latency column. When it
    /// does not, it reads only the Eq. 1 totals, so a stage whose segment
    /// the scenario leaves out of them can skip its column fill.
    const READS_EVERY_SEGMENT: bool;
    /// An empty output for a session of `frames` frames, or a typed error
    /// when it cannot hold that many.
    fn new(frames: u64) -> Result<Self>;
    /// Takes the finalized frames on `lanes` of `b` — one replication's
    /// contiguous segment, in frame order.
    fn take(&mut self, k: &BatchConsts, b: &FrameBatch, lanes: Range<usize>);
    /// Closes the replication with its session-scoped state.
    fn finish(&mut self, session: &SessionState);
    /// The same result from the scalar reference engine's session.
    fn of_scalar(session: GroundTruthSession) -> Self;
}

impl RepOutput for GroundTruthSession {
    const READS_EVERY_SEGMENT: bool = true;

    fn new(frames: u64) -> Result<Self> {
        Ok(GroundTruthSession {
            frames: frame_buffer(frames)?,
            migration_time: Seconds::ZERO,
            sites_visited: 1,
        })
    }

    /// Copies each lane's slots into a [`GroundTruthFrame`]. The segment
    /// energies are `power × duration` per slot in `Segment::ALL` order,
    /// as the scalar finalizer writes them.
    fn take(&mut self, k: &BatchConsts, b: &FrameBatch, lanes: Range<usize>) {
        for i in lanes {
            let latency: [Seconds; Segment::ALL.len()] =
                std::array::from_fn(|slot| b.latency[slot][i]);
            self.frames.push(GroundTruthFrame {
                latency,
                total_latency: b.totals[i],
                energy: std::array::from_fn(|slot| k.segment_power[slot] * latency[slot]),
                total_energy: b.energy[i],
                handoff_occurred: b.handoff_occurred[i],
            });
        }
    }

    fn finish(&mut self, session: &SessionState) {
        self.migration_time = session.migration_time;
        self.sites_visited = session.sites_visited();
    }

    fn of_scalar(session: GroundTruthSession) -> GroundTruthSession {
        session
    }
}

impl RepOutput for SessionTotals {
    const READS_EVERY_SEGMENT: bool = false;

    fn new(_frames: u64) -> Result<Self> {
        Ok(SessionTotals::empty())
    }

    fn take(&mut self, _k: &BatchConsts, b: &FrameBatch, lanes: Range<usize>) {
        for i in lanes {
            self.add_frame(b.totals[i], b.energy[i], b.handoff_occurred[i]);
        }
    }

    fn finish(&mut self, session: &SessionState) {
        self.migration_time = session.migration_time;
        self.sites_visited = session.sites_visited();
    }

    fn of_scalar(session: GroundTruthSession) -> SessionTotals {
        SessionTotals::of(&session)
    }
}

impl TestbedSimulator {
    /// Simulates a session of `frames` frames under the simulator's seed,
    /// threading a fresh [`SessionState`] through the staged pipeline so
    /// device mobility (and therefore
    /// [`GroundTruthSession::handoff_rate`]) evolves across frames.
    ///
    /// Runs on the configured [`SimulationEngine`] — by default the
    /// batched structure-of-arrays engine, which is bit-identical to (and
    /// considerably faster than) the scalar frame-by-frame reference.
    ///
    /// # Errors
    ///
    /// Returns scenario-validation errors; `frames` must be at least 1.
    pub fn simulate_session(&self, scenario: &Scenario, frames: u64) -> Result<GroundTruthSession> {
        let mut sessions = Vec::with_capacity(1);
        self.run_sessions(
            scenario,
            SessionSeeds::One(self.seed),
            frames,
            Tier::dispatched(),
            &mut sessions,
        )?;
        Ok(sessions.pop().expect("one seed runs one session"))
    }

    /// The eleven column stages over one prepared batch, in pipeline
    /// order, with one session state and one output per fused replication.
    /// Stage 9 is skipped when nothing reads its column: the output keeps
    /// only the totals, and the scenario leaves cooperation out of them
    /// (the paper's default, as it runs in parallel with rendering). Every
    /// stage draws from its own stream, so no other draw moves. Always
    /// inlined, like every stage, so each tier's build of the driver's
    /// `Tier::run` pass compiles its own copy of the stage bodies.
    #[inline(always)]
    fn batch_stages<O: RepOutput>(
        &self,
        consts: &BatchConsts,
        batch: &mut FrameBatch,
        draws: &mut DrawColumns,
        sessions: &mut [SessionState],
        outs: &mut [O],
    ) {
        self.batch_walk(consts, batch, sessions);
        self.batch_generate(consts, batch, draws);
        self.batch_sense(consts, batch, draws);
        self.batch_buffer(consts, batch, draws);
        self.batch_encode(consts, batch, draws);
        self.batch_local_inference(consts, batch, draws);
        self.batch_uplink_and_edge(consts, batch, draws);
        self.batch_handoff(consts, batch, sessions);
        self.batch_render(consts, batch, draws);
        if O::READS_EVERY_SEGMENT || consts.segment_included[COOPERATION] {
            self.batch_cooperate(consts, batch, draws);
        }
        self.batch_finalize(consts, batch, draws, outs);
    }

    /// Evaluates all `reps` replications of one operating point and returns
    /// one full [`GroundTruthSession`] per replication, in replication
    /// order. Same driver and seeds as [`TestbedSimulator::point_totals`],
    /// which keeps only each session's totals.
    ///
    /// # Errors
    ///
    /// As [`TestbedSimulator::point_totals`].
    pub fn simulate_point(
        &self,
        scenario: &Scenario,
        point_seed: u64,
        reps: usize,
        frames: u64,
    ) -> Result<Vec<GroundTruthSession>> {
        let mut sessions = Vec::new();
        self.run_sessions(
            scenario,
            SessionSeeds::Point { point_seed, reps },
            frames,
            Tier::dispatched(),
            &mut sessions,
        )?;
        Ok(sessions)
    }

    /// Evaluates all `reps` replications of one operating point — the
    /// replicated unit of work of a campaign — and writes each
    /// replication's [`SessionTotals`] into `totals`, in replication order,
    /// replacing its contents (a campaign worker passes the same buffer for
    /// every point). Replication
    /// `r` runs under session seed `mix(point_seed, r)` (what
    /// `xr_sweep::replication_seed` derives), and its totals are
    /// **bit-identical to** `SessionTotals::of` a standalone
    /// `self.reseeded(mix(point_seed, r)).simulate_session(scenario,
    /// frames)` by construction. No [`GroundTruthFrame`] is built: the
    /// batched engine folds each finalized frame into the totals in frame
    /// order.
    ///
    /// Under [`SimulationEngine::Batched`] the replications run fused: one
    /// `BatchConsts` hoist for the whole point, one rep-major
    /// `FrameBatch`/`DrawColumns` pass per batch of frames (each
    /// replication's lanes form a contiguous segment replaying its own
    /// per-stage streams), and the sparse per-rep state (walkers, handoff
    /// tallies, migration clocks) banked behind rep-indexed arrays. Under
    /// the [`SimulationEngine::Scalar`] reference each replication is
    /// `SessionTotals::of(&simulate_session_scalar(…))`, so the scalar
    /// engine stays the oracle.
    ///
    /// # Errors
    ///
    /// Returns scenario-validation and model errors (identical on both
    /// engines — every fallible hoist is seed-independent); `reps` and
    /// `frames` must each be at least 1. On an error the contents of
    /// `totals` are unspecified.
    pub fn point_totals(
        &self,
        scenario: &Scenario,
        point_seed: u64,
        reps: usize,
        frames: u64,
        totals: &mut Vec<SessionTotals>,
    ) -> Result<()> {
        self.run_sessions(
            scenario,
            SessionSeeds::Point { point_seed, reps },
            frames,
            Tier::dispatched(),
            totals,
        )
    }

    /// The one session driver: runs a session of `frames` frames under
    /// each of `seeds` on the configured [`SimulationEngine`] and writes
    /// their outputs into `outs` in seed order, replacing its contents.
    /// The scalar reference runs the seeds one after another; the batched
    /// engine runs them all fused, the `width` lanes of each pass split
    /// evenly across the seeds so a pass touches about as much column
    /// memory as one session would. Each batch's stages run as one
    /// [`Tier::run`] pass on `tier`, which also goes to every draw pass
    /// inside. The seeds, session states and constants live in the
    /// worker's [`Scratch`].
    ///
    /// # Panics
    ///
    /// Panics if the host's CPU cannot run `tier`.
    fn run_sessions<O: RepOutput>(
        &self,
        scenario: &Scenario,
        seeds: SessionSeeds,
        frames: u64,
        tier: Tier,
        outs: &mut Vec<O>,
    ) -> Result<()> {
        outs.clear();
        SCRATCH.with_borrow_mut(|scratch| {
            let Scratch {
                batch,
                draws,
                seeds: seed_list,
                sessions,
                consts,
            } = scratch;
            seeds.fill(seed_list)?;
            let width = match self.engine() {
                SimulationEngine::Scalar => {
                    for &seed in seed_list.iter() {
                        let session = self
                            .reseeded(seed)
                            .simulate_session_scalar(scenario, frames)?;
                        outs.push(O::of_scalar(session));
                    }
                    return Ok(());
                }
                SimulationEngine::Batched { width } => width.max(1),
            };
            check_frames(frames)?;
            scenario.validate()?;
            // Outputs first, so a session too long to record fails as on
            // the scalar engine, before any model error.
            for _ in seed_list.iter() {
                outs.push(O::new(frames)?);
            }
            consts.refill(self, scenario, seed_list)?;
            sessions.clear();
            sessions.extend(
                seed_list
                    .iter()
                    .map(|&seed| SessionState::on_map(seed, scenario, consts.map.as_ref())),
            );
            let per_rep_width = (width / seed_list.len()).max(1) as u64;
            batch.begin_call();
            draws.tier = tier;
            let mut first = 1u64;
            while first <= frames {
                let per_rep = per_rep_width.min(frames - first + 1) as usize;
                batch.reset(first, per_rep, seed_list.len());
                tier.run(
                    #[inline(always)]
                    || self.batch_stages(consts, batch, draws, sessions, outs),
                );
                first += per_rep as u64;
            }
            for (out, session) in outs.iter_mut().zip(sessions.iter()) {
                out.finish(session);
            }
            Ok(())
        })
    }

    /// The walk pre-pass — the one sequential scan: advance each moving
    /// session's walker through the whole batch in frame order (preserving
    /// the fractional-step carry across batches), recording per frame its
    /// [`SiteEvents`]: the site serving its uplink (the site at the window
    /// start) and its crossing/migration counts. The walker stream is
    /// session-sequential, but because every stage draws from its own
    /// per-(stage, frame) stream, hoisting the walk before the uplink stage
    /// cannot change any stage's draws — only the walk's in-order totals
    /// matter, and those are identical to the scalar's frame-interleaved
    /// advances. A fused batch walks each replication over that
    /// replication's contiguous lane segment — each walker's in-order
    /// advance sequence is exactly its standalone session's.
    ///
    /// The steps' angles are one [`StepColumn`] for the whole batch: each
    /// walker first draws the words of the steps its windows take, the
    /// column evaluates their `cos`/`sin` in angle order, and then each
    /// walker steps through its segment in stream order. A static session
    /// does not walk; when contended, where the edge stage reads the
    /// frame's site, it serves every frame from its start site.
    #[inline(always)]
    fn batch_walk(&self, k: &BatchConsts, b: &mut FrameBatch, sessions: &mut [SessionState]) {
        fn walker(session: &mut SessionState) -> &mut TopologyWalker {
            session
                .walker
                .as_mut()
                .expect("a moving session always carries a walker")
        }
        b.events.clear();
        if !k.mobile {
            if !k.contention.is_empty() {
                for session in sessions.iter() {
                    let events = SiteEvents {
                        site: session.site_index(),
                        ..SiteEvents::default()
                    };
                    b.events.extend(std::iter::repeat_n(events, b.per_rep));
                }
            }
            return;
        }
        b.windows.clear();
        b.windows.resize(b.per_rep, k.window);
        b.steps.clear();
        for session in sessions.iter_mut() {
            b.steps.draw(walker(session), &b.windows);
        }
        b.steps.evaluate();
        for session in sessions.iter_mut() {
            b.steps.advance(walker(session), &b.windows, &mut b.events);
        }
        debug_assert!(b.steps.is_consumed());
    }

    /// Stage 1 column loop — frame/volumetric generation noise: the two
    /// factors are the two halves of one Box–Muller pair (one word pair
    /// per frame), matching the scalar stage's shared pair cache.
    /// Noiseless sessions draw nothing, and `base * 1.0 == base` bit for
    /// bit, so the constant fill matches the scalar multiply.
    #[inline(always)]
    fn batch_generate(&self, k: &BatchConsts, b: &mut FrameBatch, d: &mut DrawColumns) {
        match &k.noise {
            Some(normal) => {
                d.reseed(k, stream::GENERATE, b);
                d.noise_pair(normal);
                for (latency, &factor) in b.latency[GENERATION].iter_mut().zip(&d.fac_a) {
                    *latency = k.generation_base * factor;
                }
                for (latency, &factor) in b.latency[VOLUMETRIC].iter_mut().zip(&d.fac_b) {
                    *latency = k.volumetric_base * factor;
                }
            }
            None => {
                b.latency[GENERATION].fill(k.generation_base);
                b.latency[VOLUMETRIC].fill(k.volumetric_base);
            }
        }
    }

    /// Stage 2 column loop — per-update sensor jitter, slowest sensor wins.
    /// Each sensor draws and transforms its `updates_per_frame` jitter
    /// columns as one block, then folds them one column per update, in the
    /// scalar's sensor-major draw and summation order.
    #[inline(always)]
    fn batch_sense(&self, k: &BatchConsts, b: &mut FrameBatch, d: &mut DrawColumns) {
        if k.sensors.is_empty() {
            return; // Like the scalar max over no sensors: EXTERNAL stays 0.
        }
        d.reseed(k, stream::SENSE, b);
        let updates = k.updates_per_frame as usize;
        for &(period, propagation) in &k.sensors {
            d.acc.clear();
            d.acc.resize(b.n, Seconds::ZERO);
            let n = d.uniform_block(updates, -0.05, 0.05);
            for jitters in d.block[..updates * n].chunks_exact(n) {
                for (acc, &jitter) in d.acc.iter_mut().zip(jitters) {
                    *acc += period * (1.0 + jitter) + propagation;
                }
            }
            for (ext, &acc) in b.latency[EXTERNAL].iter_mut().zip(&d.acc) {
                *ext = ext.max(acc);
            }
        }
    }

    /// Stage 3 column loop — M/M/1 sojourn sampling per stable flow, one
    /// exponential column per flow in the scalar's flow order.
    #[inline(always)]
    fn batch_buffer(&self, k: &BatchConsts, b: &mut FrameBatch, d: &mut DrawColumns) {
        if k.flows.is_empty() {
            return;
        }
        d.reseed(k, stream::BUFFER, b);
        for flow in &k.flows {
            d.exp_a(flow);
            for (buffering, &sojourn) in b.buffering.iter_mut().zip(&d.fac_a) {
                *buffering += Seconds::new(sojourn);
            }
        }
    }

    /// Stage 4 column loop — conversion (local path) and encoding (edge
    /// path) noise; gated paths draw nothing, like the scalar stage. A
    /// split scenario's two factors are the two halves of one word pair
    /// (the scalar stage shares one pair cache across both paths); a
    /// single active path takes the cosine half only.
    #[inline(always)]
    fn batch_encode(&self, k: &BatchConsts, b: &mut FrameBatch, d: &mut DrawColumns) {
        let Some(normal) = &k.noise else {
            if let Some(base) = k.conversion_base {
                b.latency[CONVERSION].fill(base);
            }
            if let Some(base) = k.encoding_base {
                b.latency[ENCODING].fill(base);
            }
            return;
        };
        if k.conversion_base.is_none() && k.encoding_base.is_none() {
            return;
        }
        d.reseed(k, stream::ENCODE, b);
        match (k.conversion_base, k.encoding_base) {
            (Some(conversion), Some(encoding)) => {
                d.noise_pair(normal);
                for (latency, &factor) in b.latency[CONVERSION].iter_mut().zip(&d.fac_a) {
                    *latency = conversion * factor;
                }
                for (latency, &factor) in b.latency[ENCODING].iter_mut().zip(&d.fac_b) {
                    *latency = encoding * factor;
                }
            }
            (Some(base), None) => {
                d.noise_a(normal);
                for (latency, &factor) in b.latency[CONVERSION].iter_mut().zip(&d.fac_a) {
                    *latency = base * factor;
                }
            }
            (None, Some(base)) => {
                d.noise_a(normal);
                for (latency, &factor) in b.latency[ENCODING].iter_mut().zip(&d.fac_a) {
                    *latency = base * factor;
                }
            }
            (None, None) => unreachable!("gated above"),
        }
    }

    /// Stage 5 column loop — the on-device CNN share.
    #[inline(always)]
    fn batch_local_inference(&self, k: &BatchConsts, b: &mut FrameBatch, d: &mut DrawColumns) {
        let Some(base) = k.local_base else { return };
        match &k.noise {
            Some(normal) => {
                d.reseed(k, stream::LOCAL_INFERENCE, b);
                d.noise_a(normal);
                for (latency, &factor) in b.latency[LOCAL_INFERENCE].iter_mut().zip(&d.fac_a) {
                    *latency = base * factor;
                }
            }
            None => b.latency[LOCAL_INFERENCE].fill(base),
        }
    }

    /// Stage 6 column loop — weighted-slowest edge compute and slowest
    /// uplink. Per pair of edge servers: one paired noise-factor fill (two
    /// words per frame, when noisy) whose halves serve consecutive
    /// servers (an unpaired last server takes the single-factor fill of
    /// the same two words), interleaved with one wireless-jitter column per
    /// server — matching the scalar's per-frame word order and pair-cache
    /// state.
    ///
    /// In contended mode the remote term instead consumes one exponential
    /// sojourn column per server from the dedicated [`stream::CONTENTION`]
    /// streams (noise-free, pinning the mean to the M/M/1 closed form),
    /// while the wireless jitter keeps its own [`stream::UPLINK_EDGE`]
    /// columns — per stream, the per-frame word order is exactly the
    /// scalar's server order. The sojourn rate is the frame's serving
    /// site's (recorded by the walk pre-pass), so it may change from lane
    /// to lane; each column is therefore drawn at unit rate and every lane
    /// divided by its own site's rate. `Exp::sample` computes
    /// `-ln(1 - u) / λ` and `x / 1.0 == x` exactly, so the two steps give
    /// the scalar's sample bit for bit.
    #[inline(always)]
    fn batch_uplink_and_edge(&self, k: &BatchConsts, b: &mut FrameBatch, d: &mut DrawColumns) {
        if k.edges.is_empty() {
            return;
        }
        if !k.contention.is_empty() {
            let unit = Exp::new(1.0).expect("unit rate");
            d.reseed(k, stream::CONTENTION, b);
            for server in 0..k.edges.len() {
                d.exp_a(&unit);
                let lanes = b.latency[REMOTE_INFERENCE].iter_mut().zip(&d.fac_a);
                for ((remote, &drawn), events) in lanes.zip(&b.events) {
                    let (weight, rate) = k.contention.site(events.site)[server];
                    *remote = remote.max(Seconds::new(drawn / rate) * weight);
                }
            }
            d.reseed(k, stream::UPLINK_EDGE, b);
            for &(_, tx_base) in &k.edges {
                d.uniform_a(0.0, 0.12);
                for (tx, &jitter) in b.latency[TRANSMISSION].iter_mut().zip(&d.fac_a) {
                    *tx = tx.max(tx_base * (1.0 + jitter));
                }
            }
            return;
        }
        d.reseed(k, stream::UPLINK_EDGE, b);
        for (index, &(infer_weighted, tx_base)) in k.edges.iter().enumerate() {
            if let Some(normal) = &k.noise {
                // The scalar stage shares one pair cache across the server
                // loop: even-indexed servers draw a fresh word pair, odd
                // ones reuse its cached sine half (the jitter column in
                // between leaves the cache untouched — it lives in `fac_a`,
                // and the pair's sine half in `fac_b`). An unpaired last
                // server draws the same word pair but reads only its
                // cosine half, so it skips the sine half's `exp`.
                if index % 2 == 0 {
                    if index + 1 < k.edges.len() {
                        d.noise_pair(normal);
                    } else {
                        d.noise_a(normal);
                    }
                }
                let factors = if index % 2 == 0 { &d.fac_a } else { &d.fac_b };
                for (remote, &factor) in b.latency[REMOTE_INFERENCE].iter_mut().zip(factors) {
                    *remote = remote.max(infer_weighted * factor);
                }
            } else {
                // `infer_weighted * 1.0 == infer_weighted` bit for bit.
                for remote in &mut b.latency[REMOTE_INFERENCE] {
                    *remote = remote.max(infer_weighted);
                }
            }
            d.uniform_a(0.0, 0.12);
            for (tx, &jitter) in b.latency[TRANSMISSION].iter_mut().zip(&d.fac_a) {
                *tx = tx.max(tx_base * (1.0 + jitter));
            }
        }
    }

    /// Stage 7 — price each frame's walk events, recorded by the walk
    /// pre-pass. Crossing noise comes from the HANDOFF stream and migration
    /// noise from the MIGRATION stream — the same per-stream draw sequence
    /// as the scalar stage (one sample per stream, only when its count is
    /// nonzero). In a fused batch each lane's streams and session tallies
    /// belong to its own replication. Crossings are sparse, so this stage
    /// keeps the frame-at-a-time draw path.
    #[inline(always)]
    fn batch_handoff(&self, k: &BatchConsts, b: &mut FrameBatch, sessions: &mut [SessionState]) {
        if !k.mobile {
            return;
        }
        for i in 0..b.n {
            let events = b.events[i];
            if events.crossings == 0 {
                continue;
            }
            let rep = b.rep(i);
            let session = &mut sessions[rep];
            let mut rng = k.rng(rep, stream::HANDOFF, b.frame_index(i));
            let mut pairs = StandardNormalPairs::new();
            b.handoff_occurred[i] = true;
            let mut latency =
                k.handoff_base * events.crossings as f64 * k.noise(&mut rng, &mut pairs);
            if events.migrations > 0 {
                let mut migration_rng = k.rng(rep, stream::MIGRATION, b.frame_index(i));
                let mut migration_pairs = StandardNormalPairs::new();
                let migration = k.migration_base
                    * events.migrations as f64
                    * k.noise(&mut migration_rng, &mut migration_pairs);
                session.migration_time += migration;
                latency += migration;
            }
            b.latency[HANDOFF][i] = latency;
        }
    }

    /// Stage 8 column loop — rendering noise plus the frame's buffered
    /// input and the (constant) result delivery.
    #[inline(always)]
    fn batch_render(&self, k: &BatchConsts, b: &mut FrameBatch, d: &mut DrawColumns) {
        match &k.noise {
            Some(normal) => {
                d.reseed(k, stream::RENDER, b);
                d.noise_a(normal);
                for ((latency, &factor), &buffering) in b.latency[RENDERING]
                    .iter_mut()
                    .zip(&d.fac_a)
                    .zip(&b.buffering)
                {
                    *latency = k.render_base * factor + buffering + k.result_delivery;
                }
            }
            None => {
                for (latency, &buffering) in b.latency[RENDERING].iter_mut().zip(&b.buffering) {
                    *latency = k.render_base + buffering + k.result_delivery;
                }
            }
        }
    }

    /// Stage 9 column loop — cooperation-exchange noise.
    #[inline(always)]
    fn batch_cooperate(&self, k: &BatchConsts, b: &mut FrameBatch, d: &mut DrawColumns) {
        match &k.noise {
            Some(normal) => {
                d.reseed(k, stream::COOPERATE, b);
                d.noise_a(normal);
                for (latency, &factor) in b.latency[COOPERATION].iter_mut().zip(&d.fac_a) {
                    *latency = k.cooperation_base * factor;
                }
            }
            None => b.latency[COOPERATION].fill(k.cooperation_base),
        }
    }

    /// Stage 10 column loop — Eq. 1 gating and the Monsoon-style energy
    /// measurement, in one pass per included phase (slot-ascending, the
    /// scalar finalizer's `Segment::ALL` order). Each phase's latency
    /// column feeds three per-lane accumulators while it is hot: the Eq. 1
    /// latency total, the thermal-share compute energy (compute slots
    /// only), and the monitor energy through
    /// `PowerMonitor::add_phase_energy`. Every accumulator sees its terms
    /// in the scalar order, so the frames match the scalar finalizer bit
    /// for bit; the thermal share is added once after the last phase. The
    /// monitor noise comes from the [`stream::MONITOR`] lanes:
    /// `ceil(included / 2)` word pairs per frame, both Box–Muller halves
    /// kept, which covers the at most one variate each included phase
    /// draws; a frame that draws fewer leaves its trailing words unread,
    /// and nothing else reads that stream. Each replication's lane segment
    /// then goes to its output in frame order.
    #[inline(always)]
    fn batch_finalize<O: RepOutput>(
        &self,
        k: &BatchConsts,
        b: &mut FrameBatch,
        d: &mut DrawColumns,
        outs: &mut [O],
    ) {
        if self.monitor.is_noisy() {
            let included = k.segment_included.iter().filter(|&&on| on).count();
            d.reseed(k, stream::MONITOR, b);
            d.standard_normals(included.div_ceil(2));
        }
        d.cursors.rewind(b.n);
        b.totals.clear();
        b.totals.resize(b.n, Seconds::ZERO);
        b.compute.clear();
        b.compute.resize(b.n, Joules::ZERO);
        b.energy.clear();
        b.energy.resize(b.n, Joules::ZERO);
        for slot in (0..Segment::ALL.len()).filter(|&slot| k.segment_included[slot]) {
            let latency = &b.latency[slot][..];
            let power = k.segment_power[slot];
            if k.segment_is_compute[slot] {
                let sums = b.totals.iter_mut().zip(&mut b.compute);
                for ((total, compute), &duration) in sums.zip(latency) {
                    *total += duration;
                    *compute += power * duration;
                }
            } else {
                for (total, &duration) in b.totals.iter_mut().zip(latency) {
                    *total += duration;
                }
            }
            self.monitor.add_phase_energy(
                d.tier,
                (power, latency),
                self.base_power,
                &d.block,
                &mut d.cursors,
                &mut b.energy,
            );
        }
        for (energy, &compute) in b.energy.iter_mut().zip(&b.compute) {
            *energy += compute * self.thermal_fraction;
        }

        for (rep, out) in outs.iter_mut().enumerate() {
            out.take(k, b, rep * b.per_rep..(rep + 1) * b.per_rep);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xr_types::{ExecutionTarget, GigaHertz, Meters, MetersPerSecond};

    fn scenario(side: f64, clock: f64, target: ExecutionTarget) -> Scenario {
        Scenario::builder()
            .frame_side(side)
            .cpu_clock(GigaHertz::new(clock))
            .execution(target)
            .build()
            .unwrap()
    }

    fn mobile_scenario(speed: f64, radius: f64) -> Scenario {
        Scenario::builder()
            .execution(ExecutionTarget::Remote)
            .mobility(xr_core::MobilityConfig {
                speed: MetersPerSecond::new(speed),
                coverage_radius: Meters::new(radius),
                handoff_kind: HandoffKind::Vertical,
            })
            .build()
            .unwrap()
    }

    /// `testbed` on the batched engine at `width`.
    fn at_width(testbed: &TestbedSimulator, width: usize) -> TestbedSimulator {
        testbed
            .clone()
            .with_engine(SimulationEngine::Batched { width })
    }

    /// The driver's outputs for `seeds`, with every pass on `tier`.
    fn run<O: RepOutput>(
        testbed: &TestbedSimulator,
        s: &Scenario,
        seeds: SessionSeeds,
        frames: u64,
        tier: Tier,
    ) -> Vec<O> {
        let mut outs = Vec::new();
        testbed
            .run_sessions(s, seeds, frames, tier, &mut outs)
            .unwrap();
        outs
    }

    /// Every tier this host can run, narrowest first; each tier it cannot
    /// run is skipped with a note on stderr.
    fn tiers() -> Vec<Tier> {
        let (runs, skipped): (Vec<Tier>, Vec<Tier>) =
            Tier::ALL.into_iter().partition(|tier| tier.supported());
        for tier in skipped {
            eprintln!("skipping the {tier:?} tier: this host cannot run it");
        }
        runs
    }

    /// [`TestbedSimulator::point_totals`] into a fresh buffer.
    fn totals_of(
        testbed: &TestbedSimulator,
        s: &Scenario,
        point_seed: u64,
        reps: usize,
        frames: u64,
    ) -> Vec<SessionTotals> {
        let mut totals = Vec::new();
        testbed
            .point_totals(s, point_seed, reps, frames, &mut totals)
            .unwrap();
        totals
    }

    #[test]
    fn batched_sessions_match_the_scalar_reference_bit_for_bit() {
        let testbed = TestbedSimulator::new(42);
        for target in [
            ExecutionTarget::Local,
            ExecutionTarget::Remote,
            ExecutionTarget::Split { client_share: 0.3 },
        ] {
            let s = scenario(500.0, 2.0, target);
            let scalar = testbed.simulate_session_scalar(&s, 37).unwrap();
            for width in [1, 2, 7, 37, 64, 100] {
                let batched = at_width(&testbed, width).simulate_session(&s, 37).unwrap();
                assert_eq!(batched, scalar, "{target:?} diverged at width {width}");
            }
        }
    }

    #[test]
    fn batched_mobile_sessions_preserve_the_walker_carry_across_batches() {
        // The sequential handoff scan is the only cross-frame state; widths
        // that chop the session mid-walk must not lose the fractional-step
        // carry or re-seed the walker.
        let testbed = TestbedSimulator::new(5);
        let s = mobile_scenario(25.0, 8.0);
        let scalar = testbed.simulate_session_scalar(&s, 101).unwrap();
        assert!(scalar.handoff_rate() > 0.0, "mobile session never crossed");
        for width in [1, 3, 16, 101, 128] {
            let batched = at_width(&testbed, width).simulate_session(&s, 101).unwrap();
            assert_eq!(batched, scalar, "mobile session diverged at width {width}");
        }
    }

    #[test]
    fn default_engine_is_batched_and_dispatch_honors_overrides() {
        let testbed = TestbedSimulator::new(9);
        assert_eq!(
            testbed.engine(),
            SimulationEngine::Batched {
                width: DEFAULT_BATCH_WIDTH
            }
        );
        let s = scenario(400.0, 2.5, ExecutionTarget::Remote);
        let default = testbed.simulate_session(&s, 23).unwrap();
        let scalar = testbed
            .clone()
            .with_engine(SimulationEngine::Scalar)
            .simulate_session(&s, 23)
            .unwrap();
        let narrow = at_width(&testbed, 0).simulate_session(&s, 23).unwrap();
        assert_eq!(default, scalar);
        assert_eq!(narrow, scalar, "width 0 clamps to 1");
        // The engine survives reseeding (campaign replications keep their
        // configured engine).
        assert_eq!(testbed.reseeded(77).engine(), testbed.engine());
    }

    #[test]
    fn batched_rejects_zero_frames_and_invalid_scenarios() {
        let testbed = at_width(&TestbedSimulator::new(3), 8);
        let s = scenario(500.0, 2.0, ExecutionTarget::Local);
        assert!(testbed.simulate_session(&s, 0).is_err());
        let mut broken = s;
        broken.updates_per_frame = 0;
        assert!(testbed.simulate_session(&broken, 5).is_err());
    }

    #[test]
    fn contended_batches_match_the_scalar_reference_bit_for_bit() {
        // The contended edge stage reroutes the remote term through the
        // CONTENTION streams; every width (including tails) must still
        // reproduce the scalar reference exactly, for full and split
        // offloading and for a noiseless simulator.
        let testbed = TestbedSimulator::new(31);
        for target in [
            ExecutionTarget::Remote,
            ExecutionTarget::Split { client_share: 0.4 },
        ] {
            let s = Scenario::builder()
                .execution(target)
                .frame_side(300.0)
                .frame_rate(xr_types::Hertz::new(5.0))
                .contention(3)
                .build()
                .unwrap();
            let scalar = testbed.simulate_session_scalar(&s, 41).unwrap();
            for width in [1, 2, 5, 41, 64] {
                let batched = at_width(&testbed, width).simulate_session(&s, 41).unwrap();
                assert_eq!(batched, scalar, "{target:?} diverged at width {width}");
            }
        }
        let noiseless = TestbedSimulator::new(32).with_noise(0.0);
        let s = Scenario::builder()
            .execution(ExecutionTarget::Remote)
            .frame_side(300.0)
            .frame_rate(xr_types::Hertz::new(5.0))
            .contention(5)
            .build()
            .unwrap();
        let scalar = noiseless.simulate_session_scalar(&s, 17).unwrap();
        let batched = at_width(&noiseless, 6).simulate_session(&s, 17).unwrap();
        assert_eq!(batched, scalar);
    }

    #[test]
    fn contended_saturation_errors_identically_in_both_engines() {
        let testbed = TestbedSimulator::new(33);
        let s = Scenario::builder()
            .execution(ExecutionTarget::Remote)
            .contention(100_000)
            .build()
            .unwrap();
        let scalar = testbed.simulate_session_scalar(&s, 3).unwrap_err();
        let batched = at_width(&testbed, 2).simulate_session(&s, 3).unwrap_err();
        assert!(matches!(scalar, xr_types::Error::UnstableQueue { .. }));
        assert!(matches!(batched, xr_types::Error::UnstableQueue { .. }));
    }

    fn topology_scenario(
        layout: xr_types::TopologyLayout,
        policy: xr_types::MigrationPolicy,
        density: f64,
        users: Option<u32>,
    ) -> Scenario {
        let mut builder = Scenario::builder()
            .execution(ExecutionTarget::Remote)
            .frame_side(300.0)
            .frame_rate(xr_types::Hertz::new(5.0))
            .mobility(xr_core::MobilityConfig {
                speed: MetersPerSecond::new(25.0),
                coverage_radius: Meters::new(8.0),
                handoff_kind: HandoffKind::Horizontal,
            })
            .topology(xr_core::TopologyConfig {
                layout,
                site_density: density,
                migration_policy: policy,
            });
        if let Some(users) = users {
            builder = builder.contention(users);
        }
        builder.build().unwrap()
    }

    #[test]
    fn topologized_batches_match_the_scalar_reference_bit_for_bit() {
        // Stage 7's edge-to-edge arm reroutes the walk through the batch
        // pre-pass and prices migrations on their own stream; every layout,
        // policy, and width (including tails) must reproduce the scalar
        // reference exactly — contended sessions included, since they pull
        // per-site M/M/1 plans instead of the base plan.
        use xr_types::{MigrationPolicy, TopologyLayout};
        let testbed = TestbedSimulator::new(51);
        for layout in [
            TopologyLayout::Square,
            TopologyLayout::Hex,
            TopologyLayout::Voronoi,
        ] {
            for policy in [MigrationPolicy::Eager, MigrationPolicy::Lazy] {
                for users in [None, Some(3)] {
                    let s = topology_scenario(layout, policy, 2500.0, users);
                    let scalar = testbed.simulate_session_scalar(&s, 97).unwrap();
                    for width in [1, 3, 17, 97, 128] {
                        let batched = at_width(&testbed, width).simulate_session(&s, 97).unwrap();
                        assert_eq!(
                            batched, scalar,
                            "{layout:?}/{policy:?}/users {users:?} diverged at width {width}"
                        );
                    }
                }
            }
        }
        // Density 2500 sites/km² makes sites ~20 m apart, so a 25 m/s
        // walker genuinely roams — the arm under test actually fired.
        let s = topology_scenario(
            TopologyLayout::Square,
            MigrationPolicy::Eager,
            2500.0,
            Some(3),
        );
        let session = testbed.simulate_session_scalar(&s, 97).unwrap();
        assert!(session.sites_visited() > 1, "walker never migrated");
        assert!(session.migration_time() > Seconds::ZERO);
    }

    #[test]
    fn single_layout_topology_replays_the_legacy_session_bit_for_bit() {
        // A 1-site topology must be indistinguishable from no topology at
        // all: same walker stream, no MIGRATION draws, and (when contended)
        // a per-site plan equal to the base plan — in both engines.
        use xr_types::{MigrationPolicy, TopologyLayout};
        let testbed = TestbedSimulator::new(52);
        for users in [None, Some(4)] {
            let mut legacy = Scenario::builder()
                .execution(ExecutionTarget::Remote)
                .frame_side(300.0)
                .frame_rate(xr_types::Hertz::new(5.0))
                .mobility(xr_core::MobilityConfig {
                    speed: MetersPerSecond::new(25.0),
                    coverage_radius: Meters::new(8.0),
                    handoff_kind: HandoffKind::Horizontal,
                });
            if let Some(users) = users {
                legacy = legacy.contention(users);
            }
            let legacy = legacy.build().unwrap();
            let mut single = legacy.clone();
            single.topology = Some(xr_core::TopologyConfig {
                layout: TopologyLayout::Single,
                site_density: 0.0,
                migration_policy: MigrationPolicy::Eager,
            });
            let reference = testbed.simulate_session_scalar(&legacy, 73).unwrap();
            assert!(reference.handoff_rate() > 0.0);
            assert_eq!(
                testbed.simulate_session_scalar(&single, 73).unwrap(),
                reference,
                "scalar single-site diverged (users {users:?})"
            );
            for width in [1, 9, 73] {
                assert_eq!(
                    at_width(&testbed, width)
                        .simulate_session(&single, 73)
                        .unwrap(),
                    reference,
                    "batched single-site diverged at width {width} (users {users:?})"
                );
            }
        }
    }

    #[test]
    fn noiseless_topologized_batches_still_match() {
        use xr_types::{MigrationPolicy, TopologyLayout};
        let testbed = TestbedSimulator::new(53).with_noise(0.0);
        let s = topology_scenario(TopologyLayout::Hex, MigrationPolicy::Lazy, 2500.0, Some(2));
        let scalar = testbed.simulate_session_scalar(&s, 48).unwrap();
        for width in [1, 7, 48] {
            let batched = at_width(&testbed, width).simulate_session(&s, 48).unwrap();
            assert_eq!(batched, scalar, "noiseless topology diverged at {width}");
        }
    }

    /// The oracle `simulate_point` must reproduce: one standalone session
    /// per replication seed through the scalar reference engine, which
    /// shares no batching or fusion code with either branch.
    fn scalar_reference(
        testbed: &TestbedSimulator,
        s: &Scenario,
        point_seed: u64,
        reps: usize,
        frames: u64,
    ) -> Vec<GroundTruthSession> {
        (0..reps)
            .map(|rep| {
                testbed
                    .reseeded(xr_types::seed::mix(point_seed, rep as u64))
                    .simulate_session_scalar(s, frames)
                    .unwrap()
            })
            .collect()
    }

    #[test]
    fn fused_points_match_per_rep_sessions_bit_for_bit() {
        let point_seed = xr_types::seed::mix(2024, 17);
        for (label, s) in [
            ("local", scenario(500.0, 2.0, ExecutionTarget::Local)),
            ("remote", scenario(500.0, 2.0, ExecutionTarget::Remote)),
            ("mobile", mobile_scenario(25.0, 8.0)),
        ] {
            let testbed = TestbedSimulator::new(42);
            let reference = scalar_reference(&testbed, &s, point_seed, 4, 37);
            // Widths 1 and 7 give each replication one lane (several passes
            // of one frame, or of one and a tail); 64 and 256 cover the
            // whole session in one pass.
            for width in [1, 7, 64, 256] {
                let point = at_width(&testbed, width)
                    .simulate_point(&s, point_seed, 4, 37)
                    .unwrap();
                assert_eq!(point, reference, "{label} diverged at width {width}");
            }
            // At width 111 each of 3 replications gets 37 lanes: sessions
            // one frame short of a pass, exactly one pass, and one frame
            // past it (a one-frame tail pass).
            for frames in [36, 37, 38] {
                let point = at_width(&testbed, 111)
                    .simulate_point(&s, point_seed, 3, frames)
                    .unwrap();
                assert_eq!(
                    point,
                    scalar_reference(&testbed, &s, point_seed, 3, frames),
                    "{label} diverged at {frames} frames of 37 lanes"
                );
            }
        }
    }

    #[test]
    fn fused_topologized_and_contended_points_match_per_rep_sessions() {
        use xr_types::{MigrationPolicy, TopologyLayout};
        let testbed = at_width(&TestbedSimulator::new(51), 96);
        let point_seed = xr_types::seed::mix(7, 3);
        let topo = topology_scenario(
            TopologyLayout::Square,
            MigrationPolicy::Eager,
            2500.0,
            Some(3),
        );
        let reference = scalar_reference(&testbed, &topo, point_seed, 3, 53);
        assert!(reference.iter().any(|s| s.sites_visited() > 1));
        assert_eq!(
            testbed.simulate_point(&topo, point_seed, 3, 53).unwrap(),
            reference,
            "topologized point diverged"
        );
        let contended = Scenario::builder()
            .execution(ExecutionTarget::Remote)
            .frame_side(300.0)
            .frame_rate(xr_types::Hertz::new(5.0))
            .contention(3)
            .build()
            .unwrap();
        let reference = scalar_reference(&testbed, &contended, point_seed, 5, 41);
        assert_eq!(
            testbed
                .simulate_point(&contended, point_seed, 5, 41)
                .unwrap(),
            reference,
            "contended point diverged"
        );
    }

    #[test]
    fn fused_point_fallbacks_and_errors_match_per_rep_dispatch() {
        let s = scenario(400.0, 2.5, ExecutionTarget::Remote);
        let point_seed = 99;
        // One replication, sessions longer than their lane share, and the
        // scalar engine must each equal the scalar oracle.
        let batched = at_width(&TestbedSimulator::new(9), 32);
        assert_eq!(
            batched.simulate_point(&s, point_seed, 1, 23).unwrap(),
            scalar_reference(&batched, &s, point_seed, 1, 23)
        );
        assert_eq!(
            batched.simulate_point(&s, point_seed, 3, 40).unwrap(),
            scalar_reference(&batched, &s, point_seed, 3, 40)
        );
        let scalar = TestbedSimulator::new(9).with_engine(SimulationEngine::Scalar);
        assert_eq!(
            scalar.simulate_point(&s, point_seed, 3, 23).unwrap(),
            scalar_reference(&scalar, &s, point_seed, 3, 23)
        );
        // Degenerate inputs are rejected on both engines.
        assert!(batched.simulate_point(&s, point_seed, 0, 23).is_err());
        assert!(batched.simulate_point(&s, point_seed, 3, 0).is_err());
        assert!(scalar.simulate_point(&s, point_seed, 0, 23).is_err());
        assert!(scalar.simulate_point(&s, point_seed, 3, 0).is_err());
        // Saturated queues error identically on a fused point and in a
        // standalone session.
        let saturated = Scenario::builder()
            .execution(ExecutionTarget::Remote)
            .contention(100_000)
            .build()
            .unwrap();
        let fused_err = batched
            .simulate_point(&saturated, point_seed, 3, 5)
            .unwrap_err();
        let per_rep_err = batched
            .reseeded(xr_types::seed::mix(point_seed, 0))
            .simulate_session_scalar(&saturated, 5)
            .unwrap_err();
        assert_eq!(format!("{fused_err:?}"), format!("{per_rep_err:?}"));
    }

    #[test]
    fn oversized_sessions_and_replication_counts_fail_with_typed_errors() {
        fn names(result: Result<impl std::fmt::Debug>, key: &str) {
            match result {
                Err(xr_types::Error::InvalidParameter { name, .. }) => assert_eq!(name, key),
                other => panic!("expected an invalid `{key}`, got {other:?}"),
            }
        }
        let s = scenario(400.0, 2.5, ExecutionTarget::Remote);
        for testbed in [
            TestbedSimulator::new(9),
            TestbedSimulator::new(9).with_engine(SimulationEngine::Scalar),
        ] {
            // Neither count fits in the address space, so both fail before
            // any allocation or frame.
            for reps in [usize::MAX, 1 << 61] {
                names(
                    testbed.point_totals(&s, 1, reps, 20, &mut Vec::new()),
                    "reps",
                );
                names(testbed.simulate_point(&s, 1, reps, 20), "reps");
            }
            for frames in [u64::MAX, 1 << 60] {
                names(testbed.simulate_session(&s, frames), "frames");
                names(testbed.simulate_point(&s, 1, 2, frames), "frames");
            }
        }
    }

    #[test]
    fn reused_scratch_cannot_leak_between_points() {
        use xr_types::{MigrationPolicy, TopologyLayout};
        // Consecutive points of different shapes on one thread share its
        // column storage and its point set-up (seeds, session states, the
        // hoisted constants), and every point's totals go into one reused
        // buffer, as on a campaign worker. The totals alone cannot show a
        // leak (a gated-off stage's slot is left out of Eq. 1), so every
        // point also runs as full sessions, which read every slot. The
        // shapes alternate replication counts, sensors, edge paths,
        // walkers and contention plans, so each set-up vector both grows
        // and shrinks; the refused point in the middle leaves the set-up
        // half refilled.
        let (local, remote) = (ExecutionTarget::Local, ExecutionTarget::Remote);
        let split = ExecutionTarget::Split { client_share: 0.5 };
        let mut no_sensors = scenario(400.0, 2.5, remote);
        no_sensors.sensors = Vec::new().into();
        let mut saturated = scenario(400.0, 2.5, remote);
        saturated.contention = Some(xr_core::ContentionConfig {
            users_per_edge: 1_000_000,
        });
        let points = [
            ("local", scenario(400.0, 2.5, local), 3, 20),
            ("remote", scenario(400.0, 2.5, remote), 3, 20),
            ("split", scenario(400.0, 2.5, split), 6, 20),
            ("static", scenario(300.0, 1.0, remote), 3, 20),
            ("walk", mobile_scenario(1.4, 20.0), 3, 20),
            ("no sensors", no_sensors, 2, 20),
            ("vehicle", mobile_scenario(25.0, 10.0), 5, 20),
            (
                "contended topology",
                topology_scenario(TopologyLayout::Hex, MigrationPolicy::Lazy, 1600.0, Some(3)),
                3,
                40,
            ),
            ("saturated", saturated, 4, 20),
            ("local after refusal", scenario(400.0, 2.5, local), 3, 20),
            ("long", scenario(500.0, 2.0, local), 1, 20_000),
            ("short", scenario(700.0, 3.0, remote), 3, 3),
        ];
        let testbed = TestbedSimulator::new(21);
        let scalar = testbed.clone().with_engine(SimulationEngine::Scalar);
        let mut reused_totals = vec![SessionTotals::empty(); 7];
        let mut run = |testbed: &TestbedSimulator, s: &Scenario, reps: usize, frames: u64| {
            let totals = testbed
                .point_totals(s, 8, reps, frames, &mut reused_totals)
                .map(|()| reused_totals.clone());
            (totals, testbed.simulate_point(s, 8, reps, frames))
        };
        for (label, s, reps, frames) in &points {
            let reused = run(&testbed, s, *reps, *frames);
            let fresh = std::thread::scope(|scope| {
                scope
                    .spawn(|| {
                        let totals = testbed
                            .point_totals(s, 8, *reps, *frames, &mut Vec::new())
                            .map(|()| totals_of(&testbed, s, 8, *reps, *frames));
                        (totals, testbed.simulate_point(s, 8, *reps, *frames))
                    })
                    .join()
                    .expect("fresh-thread run")
            });
            let oracle = run(&scalar, s, *reps, *frames);
            assert_eq!(
                reused.0.is_ok(),
                *label != "saturated",
                "{label}: only the saturated point is refused"
            );
            assert_eq!(
                format!("{reused:?}"),
                format!("{oracle:?}"),
                "{label}: scalar"
            );
            assert_eq!(
                format!("{reused:?}"),
                format!("{fresh:?}"),
                "{label}: fresh thread"
            );
        }
    }

    #[test]
    fn fused_engine_runs_single_sessions_like_batched() {
        // A one-replication point is exactly one standalone session.
        let testbed = at_width(&TestbedSimulator::new(9), 64);
        let s = scenario(400.0, 2.5, ExecutionTarget::Remote);
        let point = testbed.simulate_point(&s, 5, 1, 23).unwrap();
        assert_eq!(
            point,
            vec![testbed
                .reseeded(xr_types::seed::mix(5, 0))
                .simulate_session(&s, 23)
                .unwrap()]
        );
        assert_eq!(point, scalar_reference(&testbed, &s, 5, 1, 23));
    }

    #[test]
    fn the_point_visitor_sees_each_replication_once_in_order() {
        // `point_totals` returns one totals per replication, in
        // replication order. Width 64 gives each of the 4 replications 16
        // lanes (two passes, the second a 14-frame tail); width 16 gives
        // each 4 lanes (eight passes).
        let s = mobile_scenario(25.0, 8.0);
        let testbed = TestbedSimulator::new(3);
        let expected: Vec<_> = scalar_reference(&testbed, &s, 11, 4, 30)
            .iter()
            .map(SessionTotals::of)
            .collect();
        for width in [64, 16] {
            let totals = totals_of(&at_width(&testbed, width), &s, 11, 4, 30);
            assert_eq!(totals, expected, "width {width}");
        }
    }

    /// Asserts every mean of `totals` is bit-identical to the scalar
    /// session's.
    fn assert_totals_match(totals: &SessionTotals, session: &GroundTruthSession, label: &str) {
        let bits = |value: f64| value.to_bits();
        assert_eq!(totals.frames, session.frames().len() as u64, "{label}");
        assert_eq!(
            bits(totals.mean_latency().as_f64()),
            bits(session.mean_latency().as_f64()),
            "{label}: mean latency"
        );
        assert_eq!(
            bits(totals.mean_energy().as_f64()),
            bits(session.mean_energy().as_f64()),
            "{label}: mean energy"
        );
        assert_eq!(
            bits(totals.handoff_rate()),
            bits(session.handoff_rate()),
            "{label}: handoff rate"
        );
        assert_eq!(
            bits(totals.mean_migration_latency().as_f64()),
            bits(session.mean_migration_latency().as_f64()),
            "{label}: migration latency"
        );
        assert_eq!(
            totals.sites_visited(),
            session.sites_visited(),
            "{label}: sites"
        );
    }

    #[test]
    fn visited_totals_match_the_scalar_session_means_bit_for_bit() {
        // Each of 3 replications gets 8 lanes of the 24: sessions one frame
        // short of, exactly at, and one frame past three passes. The
        // scalar engine folds its own sessions.
        use xr_types::{MigrationPolicy, TopologyLayout};
        let width = 24usize;
        let contended = Scenario::builder()
            .execution(ExecutionTarget::Remote)
            .frame_side(300.0)
            .frame_rate(xr_types::Hertz::new(5.0))
            .contention(3)
            .build()
            .unwrap();
        let topology = topology_scenario(
            TopologyLayout::Square,
            MigrationPolicy::Eager,
            2500.0,
            Some(3),
        );
        // Cooperation is out of the totals by default, so the campaign
        // path skips stage 9; counting it in pins the other side of that
        // gate.
        let mut cooperating = scenario(500.0, 2.0, ExecutionTarget::Remote);
        cooperating.segments = xr_types::SegmentSet::full();
        cooperating.cooperation.include_in_totals = true;
        let testbed = TestbedSimulator::new(61);
        let mut roamed = false;
        for (label, s) in [
            (
                "static",
                scenario(500.0, 2.0, ExecutionTarget::Split { client_share: 0.3 }),
            ),
            ("cooperating", cooperating),
            ("mobile", mobile_scenario(25.0, 8.0)),
            ("topology", topology),
            ("contended", contended),
        ] {
            for frames in [width as u64 - 1, width as u64, width as u64 + 1] {
                let reference = scalar_reference(&testbed, &s, 19, 3, frames);
                roamed |= reference.iter().any(|session| session.sites_visited() > 1);
                for engine in [
                    SimulationEngine::Batched { width },
                    SimulationEngine::Scalar,
                ] {
                    let totals = totals_of(&testbed.clone().with_engine(engine), &s, 19, 3, frames);
                    assert_eq!(totals.len(), 3);
                    for (rep, (totals, session)) in totals.iter().zip(&reference).enumerate() {
                        let label = format!("{label} rep {rep}, {frames} frames, {engine:?}");
                        assert_totals_match(totals, session, &label);
                    }
                }
            }
        }
        assert!(roamed, "the topology scenario never migrated");
    }

    #[test]
    fn every_tier_runs_whole_driver_calls_to_the_scalar_reference_bits() {
        // Whole driver calls on each tier the host runs, pinned in-process:
        // the entry points only ever take the dispatched tier, so without
        // this an AVX-512 host would never run the portable or AVX2 build
        // of the stages, lane banks, fills and monitor pass. A single
        // session at width 16 over 37 frames leaves a 5-frame tail batch;
        // width 64 gives each of a point's 3 × 20-frame replications 21
        // lanes, one pass; both outputs (frames and the campaign totals,
        // which skip stage 9) are checked.
        use xr_types::{MigrationPolicy, TopologyLayout};
        let noisy = TestbedSimulator::new(71);
        let noiseless = TestbedSimulator::new(72).with_noise(0.0);
        let contended = Scenario::builder()
            .execution(ExecutionTarget::Remote)
            .frame_side(300.0)
            .frame_rate(xr_types::Hertz::new(5.0))
            .contention(3)
            .build()
            .unwrap();
        let topology = topology_scenario(
            TopologyLayout::Square,
            MigrationPolicy::Eager,
            2500.0,
            Some(3),
        );
        let split = scenario(500.0, 2.0, ExecutionTarget::Split { client_share: 0.3 });
        let cases = [
            (
                "local",
                &noisy,
                scenario(500.0, 2.0, ExecutionTarget::Local),
            ),
            ("split", &noisy, split.clone()),
            ("mobile", &noisy, mobile_scenario(25.0, 8.0)),
            ("contended", &noisy, contended),
            ("topology", &noisy, topology.clone()),
            ("noiseless split", &noiseless, split),
            ("noiseless topology", &noiseless, topology),
        ];
        for (label, testbed, s) in cases {
            let scalar = testbed.simulate_session_scalar(&s, 37).unwrap();
            let point_seed = xr_types::seed::mix(2024, 20);
            let reference = scalar_reference(testbed, &s, point_seed, 3, 20);
            let seeds = SessionSeeds::Point {
                point_seed,
                reps: 3,
            };
            let one = SessionSeeds::One(testbed.seed);
            let (narrow, fused) = (at_width(testbed, 16), at_width(testbed, 64));
            for tier in tiers() {
                let session: Vec<GroundTruthSession> = run(&narrow, &s, one, 37, tier);
                assert_eq!(
                    session,
                    std::slice::from_ref(&scalar),
                    "{label}: {tier:?} session diverged"
                );
                let totals: Vec<SessionTotals> = run(&narrow, &s, one, 37, tier);
                assert_eq!(
                    totals,
                    [SessionTotals::of(&scalar)],
                    "{label}: {tier:?} totals diverged"
                );
                let point: Vec<GroundTruthSession> = run(&fused, &s, seeds, 20, tier);
                assert_eq!(point, reference, "{label}: {tier:?} fused point diverged");
            }
        }
    }

    #[test]
    fn noiseless_batches_still_match() {
        let testbed = TestbedSimulator::new(11).with_noise(0.0);
        let s = scenario(600.0, 1.5, ExecutionTarget::Remote);
        let scalar = testbed.simulate_session_scalar(&s, 10).unwrap();
        let batched = at_width(&testbed, 4).simulate_session(&s, 10).unwrap();
        assert_eq!(batched, scalar);
    }

    #[test]
    fn noiseless_mobile_and_split_batches_still_match() {
        // The noiseless paths skip whole column fills (no seeding at all);
        // make sure every gated combination still matches the scalar
        // reference, including the handoff stage's 1.0 factor.
        let testbed = TestbedSimulator::new(13).with_noise(0.0);
        let mobile = mobile_scenario(25.0, 8.0);
        let scalar = testbed.simulate_session_scalar(&mobile, 64).unwrap();
        assert!(scalar.handoff_rate() > 0.0);
        for width in [1, 5, 64] {
            let batched = at_width(&testbed, width)
                .simulate_session(&mobile, 64)
                .unwrap();
            assert_eq!(batched, scalar, "noiseless mobile diverged at {width}");
        }
        let split = scenario(450.0, 2.2, ExecutionTarget::Split { client_share: 0.5 });
        let scalar = testbed.simulate_session_scalar(&split, 33).unwrap();
        let batched = at_width(&testbed, 8).simulate_session(&split, 33).unwrap();
        assert_eq!(batched, scalar);
    }

    #[test]
    fn contended_roaming_lanes_draw_at_their_own_sites_rates() {
        // On a contended hex or voronoi map the sites host different
        // tenant counts, so one batch may hold lanes served at different
        // sojourn rates. Sessions and 3-replication fused points, at widths
        // with tail batches and on every tier the host runs, must match
        // the scalar engine; and some batch must serve lanes from two
        // sites with different tenant counts, or the pin would hold with a
        // single rate per batch.
        use xr_types::{MigrationPolicy, TopologyLayout};
        let testbed = TestbedSimulator::new(81);
        let frames = 300u64;
        let reps = 3;
        let point_seed = xr_types::seed::mix(2024, 25);
        let point_seeds = SessionSeeds::Point { point_seed, reps };
        let mut seeds = Vec::new();
        point_seeds.fill(&mut seeds).unwrap();
        for layout in [TopologyLayout::Hex, TopologyLayout::Voronoi] {
            let s = topology_scenario(layout, MigrationPolicy::Lazy, 1600.0, Some(4));
            let map = TestbedSimulator::session_map(&s).unwrap();
            // The tenant count of each frame's serving site, from one walk
            // over the whole session (the walker's carry makes it the
            // batches' walk too).
            let tenants = |seed: u64| -> Vec<u32> {
                let mut session = SessionState::on_map(seed, &s, Some(&map));
                let walker = session.walker.as_mut().unwrap();
                (0..frames)
                    .map(|_| map.sites()[walker.advance(s.frame_window()).site].tenants())
                    .collect()
            };
            let session_tenants = tenants(testbed.seed);
            let rep_tenants: Vec<Vec<u32>> = seeds.iter().map(|&seed| tenants(seed)).collect();
            let scalar = testbed.simulate_session_scalar(&s, frames).unwrap();
            let reference = scalar_reference(&testbed, &s, point_seed, reps, frames);
            for width in [1, 7, 64, 256] {
                // The lanes of one batch: a session's `width` consecutive
                // frames, or each replication's `width / reps` frames.
                let mixed = |lanes: &[u32]| lanes.iter().any(|&t| t != lanes[0]);
                let per_rep = (width / reps).max(1);
                let point_mixed = (0..frames as usize).step_by(per_rep).any(|first| {
                    let last = (first + per_rep).min(frames as usize);
                    let lanes: Vec<u32> = rep_tenants
                        .iter()
                        .flat_map(|t| t[first..last].iter().copied())
                        .collect();
                    mixed(&lanes)
                });
                if width > 1 {
                    assert!(
                        session_tenants.chunks(width).any(mixed) && point_mixed,
                        "{layout:?}: no batch at width {width} mixes tenant counts"
                    );
                }
                let engine = at_width(&testbed, width);
                for tier in tiers() {
                    let label = format!("{layout:?} width {width} {tier:?}");
                    let session: Vec<GroundTruthSession> =
                        run(&engine, &s, SessionSeeds::One(testbed.seed), frames, tier);
                    assert_eq!(session, std::slice::from_ref(&scalar), "{label}: session");
                    let point: Vec<GroundTruthSession> =
                        run(&engine, &s, point_seeds, frames, tier);
                    assert_eq!(point, reference, "{label}: fused point");
                }
            }
        }
    }
}
