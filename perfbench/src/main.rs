//! In-process half of the campaign benchmark.
//!
//! ```text
//! perfbench setup --grid <file> --seed <n> [--paper-scale] [--library]
//! perfbench trace --grid <file> --seed <n> --seconds <s> --workdir <dir>
//!                 [--paper-scale] [--checkpoint-every <rows>]
//! ```
//!
//! `setup` times, once and cold, the set-up the `campaign` binary does
//! before its first point (read and parse the grid spec, build the
//! experiment context), and prints the time with the grid's point and frame
//! counts. With `--library` it then also times one run of the library path
//! the binary uses (`run_campaign_streaming_with`).
//!
//! `trace` runs the campaign in process for `s` seconds. Each round runs,
//! in rotating order, the library path the binary uses
//! (`run_campaign_streaming_with`) and the decomposed pipeline twice, once
//! untraced and once traced. The decomposed pipeline calls each layer
//! through its public function inside `CampaignRunner::run_streaming`:
//! `scenario_for` → `analyze` → `contention_snapshot` → `simulate_point`
//! (default engine) → session means → `ReplicateStats::of` →
//! `render_csv_into`. All three must render the same CSV bytes. Spans stay
//! in memory; the last traced run's spans go to `<dir>/spans.tsv` and its
//! CSV to `<dir>/traced.csv` at the end. With `--checkpoint-every`, it also
//! times the durable shard-1/1 writer against the in-memory evaluator on
//! the same points. It prints one JSON object of
//! per-layer metrics (medians over the traced runs).

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::{Duration, Instant};
use xr_devices::DeviceCatalog;
use xr_experiments::campaign::{
    run_campaign_streaming_with, run_campaign_subset_streaming_with, CampaignRow, CAMPAIGN_HEADER,
};
use xr_experiments::shard_campaign::{checkpoint_path, manifest_path};
use xr_experiments::{run_campaign_shard_with, ExperimentContext, ReplicateStats};
use xr_sweep::{parse_grid_spec, CampaignRunner, OperatingPoint, ShardSpec, SweepGrid};
use xr_testbed::{CalibratedModels, GroundTruthFrame, MeasurementCampaign, TestbedSimulator};
use xr_types::Result;

/// Command-line options shared by both subcommands.
#[derive(Debug, Default)]
struct Options {
    grid: PathBuf,
    seed: u64,
    paper_scale: bool,
    library: bool,
    seconds: f64,
    workdir: PathBuf,
    checkpoint_every: Option<usize>,
}

fn parse_options(args: &[String]) -> std::result::Result<Options, String> {
    let mut options = Options::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--paper-scale" => {
                options.paper_scale = true;
                continue;
            }
            "--library" => {
                options.library = true;
                continue;
            }
            _ => {}
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = |what: &str| format!("{flag}: `{value}` is not {what}");
        match flag.as_str() {
            "--grid" => options.grid = PathBuf::from(value),
            "--seed" => options.seed = value.parse().map_err(|_| number("a seed"))?,
            "--seconds" => options.seconds = value.parse().map_err(|_| number("a duration"))?,
            "--workdir" => options.workdir = PathBuf::from(value),
            "--checkpoint-every" => {
                options.checkpoint_every = Some(value.parse().map_err(|_| number("a row count"))?);
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if options.grid.as_os_str().is_empty() {
        return Err("--grid is required".to_string());
    }
    Ok(options)
}

fn load_grid(path: &Path) -> Result<SweepGrid> {
    let text = std::fs::read_to_string(path).map_err(|e| {
        xr_types::Error::InvalidConfiguration(format!("cannot read {}: {e}", path.display()))
    })?;
    parse_grid_spec(&text)
}

fn context(options: &Options) -> Result<ExperimentContext> {
    if options.paper_scale {
        ExperimentContext::paper_scale(options.seed)
    } else {
        ExperimentContext::quick(options.seed)
    }
}

fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n == 0 {
        return 0.0;
    }
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `q` (0–1) of sorted `values`.
fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn csv_header() -> String {
    let mut csv = CAMPAIGN_HEADER.join(",");
    csv.push('\n');
    csv
}

fn setup(options: &Options) -> Result<()> {
    let start = Instant::now();
    let grid = load_grid(&options.grid)?;
    let ctx = context(options)?;
    let setup_s = start.elapsed().as_secs_f64();
    let library_s = if options.library {
        library_run(&ctx, &grid)?.1.as_secs_f64()
    } else {
        0.0
    };
    let points = grid.points()?;
    let frames: u64 = points.iter().map(|p| ctx.frames_for(p)).sum();
    println!(
        "{{\"setup_s\": {setup_s:.9}, \"library_s\": {library_s:.9}, \"points\": {}, \"frames\": {}}}",
        points.len(),
        frames * grid.replications().max(1) as u64
    );
    Ok(())
}

/// The pipeline layers a traced run times, each around one public call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Layer {
    /// The runner's evaluation closure for one point (parent of the next
    /// five).
    Eval,
    Scenario,
    Model,
    Contention,
    Engine,
    /// Reducing each replication's session to its means.
    Reduce,
    /// The runner's in-order sink for one point (parent of the next two).
    Sink,
    Aggregate,
    Render,
}

impl Layer {
    /// Number of layers; `layer as usize` indexes per-layer tables.
    const COUNT: usize = Layer::Render as usize + 1;

    fn name(self) -> &'static str {
        match self {
            Layer::Eval => "eval",
            Layer::Scenario => "scenario",
            Layer::Model => "model",
            Layer::Contention => "contention",
            Layer::Engine => "engine",
            Layer::Reduce => "reduce",
            Layer::Sink => "sink",
            Layer::Aggregate => "aggregate",
            Layer::Render => "render",
        }
    }

    fn parent(self) -> &'static str {
        match self {
            Layer::Eval | Layer::Sink => "campaign",
            Layer::Aggregate | Layer::Render => "sink",
            _ => "eval",
        }
    }
}

/// One timed call: offsets from the run's start.
#[derive(Debug, Clone, Copy)]
struct Span {
    layer: Layer,
    point: usize,
    start: Duration,
    end: Duration,
}

/// In-memory span store for one run; a disabled tracer reads no clock and
/// records nothing.
#[derive(Debug)]
struct Tracer {
    epoch: Instant,
    enabled: bool,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    fn new(enabled: bool, capacity: usize) -> Self {
        Self {
            epoch: Instant::now(),
            enabled,
            spans: Mutex::new(Vec::with_capacity(if enabled { capacity } else { 0 })),
        }
    }

    fn now(&self) -> Duration {
        if self.enabled {
            self.epoch.elapsed()
        } else {
            Duration::ZERO
        }
    }

    /// Records consecutive spans of one point: `marks[i]..marks[i + 1]` is
    /// `layers[i]`, and `parent` covers the whole range.
    fn record(&self, point: usize, parent: Layer, layers: &[Layer], marks: &[Duration]) {
        if !self.enabled {
            return;
        }
        let mut spans = self.spans.lock().expect("span store lock");
        spans.push(Span {
            layer: parent,
            point,
            start: marks[0],
            end: marks[marks.len() - 1],
        });
        for (i, &layer) in layers.iter().enumerate() {
            spans.push(Span {
                layer,
                point,
                start: marks[i],
                end: marks[i + 1],
            });
        }
    }
}

/// One replication's means, as the campaign reduces them.
#[derive(Debug, Clone, Copy)]
struct Sample {
    latency_ms: f64,
    energy_mj: f64,
    handoff_rate: f64,
    migration_ms: f64,
    sites_visited: u32,
}

/// What the evaluation closure hands the sink for one point.
#[derive(Debug)]
struct PointResult {
    samples: Vec<Sample>,
    proposed: (f64, f64),
    contention: (f64, f64),
}

/// One run of the decomposed pipeline: its CSV, wall time, spans (none
/// when untraced) and materialised frames.
#[derive(Debug)]
struct TracedRun {
    csv: String,
    wall: Duration,
    spans: Vec<Span>,
    frames: u64,
}

fn pipeline_run(ctx: &ExperimentContext, grid: &SweepGrid, traced: bool) -> Result<TracedRun> {
    let reps = grid.replications().max(1);
    let tracer = Tracer::new(traced, grid.len() * 10);
    let frames = Mutex::new(0u64);
    let mut csv = csv_header();
    let mut line = String::new();
    let start = Instant::now();
    let points = grid.points()?;
    let runner = CampaignRunner::new(1).with_campaign_seed(ctx.seed());
    runner.run_streaming(
        &points,
        |point_ctx, point: &OperatingPoint| {
            let t0 = tracer.now();
            let scenario = ctx.scenario_for(point)?;
            let t1 = tracer.now();
            let report = ctx.proposed().analyze(&scenario)?;
            let proposed = (report.latency_ms().as_f64(), report.energy_mj().as_f64());
            let t2 = tracer.now();
            let contention =
                ctx.testbed()
                    .contention_snapshot(&scenario)?
                    .map_or((0.0, 0.0), |snapshot| {
                        (
                            snapshot.utilization(),
                            snapshot.mean_contention_delay().as_f64() * 1e3,
                        )
                    });
            let t3 = tracer.now();
            let sessions = ctx.testbed().simulate_point(
                &scenario,
                point_ctx.seed,
                reps,
                ctx.frames_for(point),
            )?;
            let t4 = tracer.now();
            let samples: Vec<Sample> = sessions
                .iter()
                .map(|session| Sample {
                    latency_ms: session.mean_latency().as_f64() * 1e3,
                    energy_mj: session.mean_energy().as_f64() * 1e3,
                    handoff_rate: session.handoff_rate(),
                    migration_ms: session.mean_migration_latency().as_f64() * 1e3,
                    sites_visited: session.sites_visited(),
                })
                .collect();
            *frames.lock().expect("frame counter lock") += sessions
                .iter()
                .map(|session| session.frames().len() as u64)
                .sum::<u64>();
            drop(sessions);
            let t5 = tracer.now();
            tracer.record(
                point_ctx.index,
                Layer::Eval,
                &[
                    Layer::Scenario,
                    Layer::Model,
                    Layer::Contention,
                    Layer::Engine,
                    Layer::Reduce,
                ],
                &[t0, t1, t2, t3, t4, t5],
            );
            Ok(PointResult {
                samples,
                proposed,
                contention,
            })
        },
        |index, result: PointResult| {
            let t0 = tracer.now();
            let point = &points[index];
            let samples = &result.samples;
            let n = samples.len() as f64;
            let latencies: Vec<f64> = samples.iter().map(|s| s.latency_ms).collect();
            let energies: Vec<f64> = samples.iter().map(|s| s.energy_mj).collect();
            let row = CampaignRow {
                point: point.clone(),
                frames_per_session: ctx.frames_for(point),
                replications: samples.len(),
                gt_latency_ms: ReplicateStats::of(&latencies),
                gt_energy_mj: ReplicateStats::of(&energies),
                gt_handoff_rate: samples.iter().map(|s| s.handoff_rate).sum::<f64>() / n,
                gt_migration_ms_mean: samples.iter().map(|s| s.migration_ms).sum::<f64>() / n,
                sites_visited: samples.iter().map(|s| s.sites_visited).max().unwrap_or(1),
                edge_utilization: result.contention.0,
                gt_contention_ms_mean: result.contention.1,
                proposed_latency_ms: result.proposed.0,
                proposed_energy_mj: result.proposed.1,
            };
            let t1 = tracer.now();
            row.render_csv_into(&mut line);
            csv.push_str(&line);
            csv.push('\n');
            let t2 = tracer.now();
            tracer.record(
                index,
                Layer::Sink,
                &[Layer::Aggregate, Layer::Render],
                &[t0, t1, t2],
            );
        },
    )?;
    let wall = start.elapsed();
    Ok(TracedRun {
        csv,
        wall,
        spans: tracer.spans.into_inner().expect("span store lock"),
        frames: frames.into_inner().expect("frame counter lock"),
    })
}

/// The library path the `campaign` binary runs in process, untraced.
fn library_run(ctx: &ExperimentContext, grid: &SweepGrid) -> Result<(String, Duration)> {
    let runner = CampaignRunner::new(1).with_campaign_seed(ctx.seed());
    let mut csv = csv_header();
    let mut line = String::new();
    let start = Instant::now();
    run_campaign_streaming_with(ctx, grid, &runner, |_, row| {
        row.render_csv_into(&mut line);
        csv.push_str(&line);
        csv.push('\n');
    })?;
    Ok((csv, start.elapsed()))
}

/// Per-layer busy time (s) and call count of one traced run.
fn layer_totals(spans: &[Span]) -> Vec<(f64, usize)> {
    let mut totals = vec![(0.0, 0usize); Layer::COUNT];
    for span in spans {
        let total = &mut totals[span.layer as usize];
        total.0 += (span.end - span.start).as_secs_f64();
        total.1 += 1;
    }
    totals
}

fn write_spans(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = String::from("layer\tparent\tpoint\tstart_ns\tend_ns\n");
    for span in spans {
        let _ = writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}",
            span.layer.name(),
            span.layer.parent(),
            span.point,
            span.start.as_nanos(),
            span.end.as_nanos()
        );
    }
    std::fs::write(path, out)
}

/// Median `collect` and `fit` times of the context's calibration data set.
fn dataset_timings(options: &Options) -> Result<(f64, f64)> {
    let reps = if options.paper_scale { 5 } else { 15 };
    let (mut collect, mut fit) = (Vec::new(), Vec::new());
    for _ in 0..reps {
        let testbed = TestbedSimulator::new(options.seed);
        let campaign = if options.paper_scale {
            MeasurementCampaign::paper_scale(options.seed)
        } else {
            MeasurementCampaign::small(options.seed)
        };
        let t0 = Instant::now();
        let train = campaign.collect(testbed.laws(), &DeviceCatalog::training_devices());
        let t1 = Instant::now();
        let calibrated = CalibratedModels::fit(&train)?;
        let t2 = Instant::now();
        std::hint::black_box(&calibrated);
        collect.push((t1 - t0).as_secs_f64());
        fit.push((t2 - t1).as_secs_f64());
    }
    Ok((median(&mut collect), median(&mut fit)))
}

/// Durable shard-1/1 writer cost: median wall of `run_campaign_shard_with`
/// minus median wall of the in-memory evaluator on the same points, with
/// the two alternated. Returns the cost and whether the shard CSV equals
/// `expected`.
fn writer_cost(
    ctx: &ExperimentContext,
    grid: &SweepGrid,
    every: usize,
    workdir: &Path,
    expected: &str,
) -> Result<(f64, bool)> {
    let runner = CampaignRunner::new(1).with_campaign_seed(ctx.seed());
    let shard = ShardSpec::new(1, 1)?;
    let subset: Vec<(usize, OperatingPoint)> = grid.points()?.into_iter().enumerate().collect();
    let csv_path = workdir.join("writer.csv");
    let (mut durable, mut in_memory) = (Vec::new(), Vec::new());
    let mut matches = true;
    for _ in 0..9 {
        for path in [
            csv_path.clone(),
            checkpoint_path(&csv_path),
            manifest_path(&csv_path),
        ] {
            let _ = std::fs::remove_file(path);
        }
        let start = Instant::now();
        run_campaign_shard_with(ctx, grid, &runner, shard, &csv_path, every)?;
        durable.push(start.elapsed().as_secs_f64());
        matches &= std::fs::read_to_string(&csv_path).is_ok_and(|text| text == expected);

        let mut line = String::new();
        let mut bytes = 0usize;
        let start = Instant::now();
        run_campaign_subset_streaming_with(ctx, grid, &runner, &subset, |_, row| {
            row.render_csv_into(&mut line);
            bytes += line.len() + 1;
        })?;
        in_memory.push(start.elapsed().as_secs_f64());
        std::hint::black_box(bytes);
    }
    Ok((median(&mut durable) - median(&mut in_memory), matches))
}

fn trace(options: &Options) -> Result<()> {
    let grid = load_grid(&options.grid)?;
    let (collect_s, fit_s) = dataset_timings(options)?;
    let ctx = context(options)?;
    let deadline = Instant::now() + Duration::from_secs_f64(options.seconds.max(0.0));

    let mut traced_walls = Vec::new();
    let mut untraced_walls = Vec::new();
    let mut library_walls = Vec::new();
    let mut busy: Vec<Vec<f64>> = vec![Vec::new(); Layer::COUNT];
    let mut calls = [0usize; Layer::COUNT];
    let mut engine_calls_us = Vec::new();
    let mut frames = 0u64;
    let mut rows_match = true;
    let mut reference: Option<String> = None;
    let mut last_spans = Vec::new();
    for round in 0usize.. {
        // Rotate which of the three runs goes first, so none of them always
        // runs on a cold cache.
        let (mut traced, mut untraced, mut library) = (None, None, None);
        for turn in 0..3 {
            match (round + turn) % 3 {
                0 => traced = Some(pipeline_run(&ctx, &grid, true)?),
                1 => untraced = Some(pipeline_run(&ctx, &grid, false)?),
                _ => library = Some(library_run(&ctx, &grid)?),
            }
        }
        let (traced, untraced) = (
            traced.expect("ran this round"),
            untraced.expect("ran this round"),
        );
        let (csv, wall) = library.expect("ran this round");
        library_walls.push(wall.as_secs_f64());
        untraced_walls.push(untraced.wall.as_secs_f64());
        traced_walls.push(traced.wall.as_secs_f64());
        let reference = reference.get_or_insert_with(|| csv.clone());
        rows_match &= traced.csv == *reference && untraced.csv == *reference && csv == *reference;
        if round == 0 {
            std::fs::write(options.workdir.join("traced.csv"), &traced.csv).map_err(|e| {
                xr_types::Error::InvalidConfiguration(format!("cannot write traced.csv: {e}"))
            })?;
        }
        for (slot, (seconds, count)) in layer_totals(&traced.spans).into_iter().enumerate() {
            busy[slot].push(seconds);
            calls[slot] = count;
        }
        engine_calls_us.extend(
            traced
                .spans
                .iter()
                .filter(|s| s.layer == Layer::Engine)
                .map(|s| (s.end - s.start).as_secs_f64() * 1e6),
        );
        frames = traced.frames;
        last_spans = traced.spans;
        if round >= 2 && Instant::now() >= deadline {
            break;
        }
    }
    let reference = reference.expect("at least one round ran");
    write_spans(&options.workdir.join("spans.tsv"), &last_spans).map_err(|e| {
        xr_types::Error::InvalidConfiguration(format!("cannot write spans.tsv: {e}"))
    })?;

    let (writer_s, writer_syncs, writer_match) = match options.checkpoint_every {
        Some(every) => {
            let every = every.max(1);
            let (cost, matches) = writer_cost(&ctx, &grid, every, &options.workdir, &reference)?;
            // Checkpoint header, one CSV and one checkpoint fdatasync per
            // `every` rows, and the closing sync of each file.
            let syncs = 1 + 2 * (grid.len() / every) + 2;
            (cost, syncs, matches)
        }
        None => (0.0, 0, true),
    };

    let busy_of = |layer: Layer| median(&mut busy[layer as usize].clone());
    let traced_wall = median(&mut traced_walls.clone());
    let untraced_wall = median(&mut untraced_walls.clone());
    let library_wall = median(&mut library_walls.clone());
    let engine_busy = busy_of(Layer::Engine);
    engine_calls_us.sort_by(f64::total_cmp);
    let share = |layer: Layer| busy_of(layer) / traced_wall;

    let mut metrics: Vec<(&str, f64)> = vec![
        ("dataset.collect_s", collect_s),
        ("dataset.fit_s", fit_s),
        ("scenario.busy_s", busy_of(Layer::Scenario)),
        ("scenario.calls", calls[Layer::Scenario as usize] as f64),
        ("model.busy_s", busy_of(Layer::Model)),
        ("contention.busy_s", busy_of(Layer::Contention)),
        ("engine.busy_s", engine_busy),
        ("engine.calls", calls[Layer::Engine as usize] as f64),
        ("engine.frames", frames as f64),
        (
            "engine.ns_per_frame",
            engine_busy * 1e9 / frames.max(1) as f64,
        ),
        ("engine.call_p50_us", percentile(&engine_calls_us, 0.5)),
        ("engine.call_p90_us", percentile(&engine_calls_us, 0.9)),
        (
            "engine.frame_bytes",
            (frames as usize * std::mem::size_of::<GroundTruthFrame>()) as f64,
        ),
        ("reduce.busy_s", busy_of(Layer::Reduce)),
        ("aggregate.busy_s", busy_of(Layer::Aggregate)),
        (
            "aggregate.calls",
            2.0 * calls[Layer::Aggregate as usize] as f64,
        ),
        ("render.busy_s", busy_of(Layer::Render)),
        (
            "render.bytes",
            (reference.len() - csv_header().len()) as f64,
        ),
        (
            "runner.self_s",
            traced_wall - busy_of(Layer::Eval) - busy_of(Layer::Sink),
        ),
        ("writer.busy_s", writer_s),
        ("writer.syncs", writer_syncs as f64),
        ("trace.wall_s", traced_wall),
        ("trace.overhead", traced_wall / untraced_wall),
        ("library.wall_s", library_wall),
        ("pipeline.vs_library", untraced_wall / library_wall),
    ];
    for (name, layer) in [
        ("scenario.share", Layer::Scenario),
        ("model.share", Layer::Model),
        ("contention.share", Layer::Contention),
        ("engine.share", Layer::Engine),
        ("aggregate.share", Layer::Aggregate),
        ("render.share", Layer::Render),
    ] {
        metrics.push((name, share(layer)));
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value)| format!("\"{name}\": {value:.9}"))
        .collect();
    println!(
        "{{\"traced_runs\": {}, \"rows_match\": {}, \"writer_rows_match\": {}, \"metrics\": {{{}}}}}",
        traced_walls.len(),
        rows_match,
        writer_match,
        body.join(", ")
    );
    Ok(())
}

fn main() -> std::process::ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let usage = "usage: perfbench setup|trace --grid <file> --seed <n> [options]";
    let Some((command, rest)) = args.split_first() else {
        eprintln!("{usage}");
        return std::process::ExitCode::from(2);
    };
    let options = match parse_options(rest) {
        Ok(options) => options,
        Err(message) => {
            eprintln!("perfbench: {message}\n{usage}");
            return std::process::ExitCode::from(2);
        }
    };
    let outcome = match command.as_str() {
        "setup" => setup(&options),
        "trace" => trace(&options),
        _ => {
            eprintln!("{usage}");
            return std::process::ExitCode::from(2);
        }
    };
    match outcome {
        Ok(()) => std::process::ExitCode::SUCCESS,
        Err(error) => {
            eprintln!("perfbench: {error}");
            std::process::ExitCode::from(1)
        }
    }
}
