#!/usr/bin/env python3
"""Campaign benchmark for the xr-perf `campaign` binary.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. It builds the `campaign` binary (root
workspace) and this directory's `perfbench` package offline into
`$CARGO_TARGET_DIR` (default `.bench_build`), then:

* `--trace 0` times the real `campaign` process end to end, over and over
  for `--seconds`, each run in a fresh working directory, and reports the
  end-to-end metrics of BENCHMARK.json;
* `--trace 1` runs `perfbench trace`, which breaks the same campaign down by
  layer in process, and reports the per-layer metrics of BENCHMARK.json.

Every campaign CSV, and the traced run's CSV, is checked row by row against
the expected bytes: checked-in row digests at the default seed 2024
(`perfbench/expected/`), or one untimed `--scalar-sessions` run of the same
grid and seed otherwise. The last stdout line is one JSON object with the
keys `correct`, `attempted`, `failed` (grid points) and `metrics`; the line
before it is the host fingerprint. Full results also go to
`$CARGO_TARGET_DIR/perfbench/results/`, and to `--out <file>` when given.

`--make-expected` regenerates the checked-in digests at seed 2024 after
checking that the default and the scalar engine write the same bytes.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEFAULT_SEED = 2024

# name -> (grid file, extra campaign flags, checkpoint cadence of a sharded run)
WORKLOADS = {
    "sweep-wide": ("sweep-wide.grid", [], None),
    "session-long": ("session-long.grid", ["--paper-scale"], None),
    "roam-durable": ("roam-durable.grid", [], 16),
}

# Least number of timed campaign runs, however short `--seconds` is.
MIN_RUNS = 5
# Campaign runs behind `process.residual_s` in a traced run.
TRACE_E2E_RUNS = 9


class BenchError(Exception):
    """A failure that makes the run's figures meaningless."""


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def target_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return target if target.is_absolute() else ROOT / target


def build(target):
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    for command in (
        ["cargo", "build", "--release", "--offline", "-p", "xr-experiments", "--bin", "campaign"],
        ["cargo", "build", "--release", "--offline", "--manifest-path", str(HERE / "Cargo.toml")],
    ):
        done = subprocess.run(command, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            raise BenchError(f"build failed: {' '.join(command)}")
    release = target / "release"
    return release / "campaign", release / "perfbench", release / "perfbench-launch"


def child_env(seed):
    """The whole environment of every measured process: one worker, the
    workload seed, and nothing that selects another engine or dispatch
    (`XR_FUSED_POINTS`, `XR_SESSION_CHUNKS`, `XR_FORCE_PORTABLE` and
    `XR_REORDER_CAP` are left out on purpose)."""
    return {
        "PATH": os.environ.get("PATH", "/usr/local/bin:/usr/bin:/bin"),
        "XR_SWEEP_WORKERS": "1",
        "XR_CAMPAIGN_SEED": str(seed),
    }


def row_digest(line):
    return hashlib.sha256(line).hexdigest()[:16]


def csv_digests(data):
    if not data.endswith(b"\n"):
        raise BenchError("reference CSV does not end with a newline")
    return [row_digest(line) for line in data[:-1].split(b"\n")]


def failed_points(data, expected):
    """Grid points whose row is missing or differs from the expected bytes."""
    points = len(expected) - 1
    if data is None or not data.endswith(b"\n"):
        return points
    lines = data[:-1].split(b"\n")
    if row_digest(lines[0]) != expected[0]:
        return points
    rows = lines[1:]
    bad = sum(
        1
        for i, want in enumerate(expected[1:])
        if i >= len(rows) or row_digest(rows[i]) != want
    )
    return min(points, bad + max(0, len(rows) - points))


class Bench:
    def __init__(self, workload, seed, target):
        self.workload = workload
        self.seed = seed
        grid_name, self.flags, self.checkpoint_every = WORKLOADS[workload]
        self.grid = HERE / "grids" / grid_name
        self.campaign, self.perfbench, self.launcher = build(target)
        self.work = target / "perfbench" / "work" / f"{workload}-{os.getpid()}"
        self.results = target / "perfbench" / "results"
        self.runs = 0

    def workdir(self):
        self.runs += 1
        path = self.work / f"run{self.runs}"
        shutil.rmtree(path, ignore_errors=True)
        path.mkdir(parents=True)
        return path

    def launch(self, program, args, csv_name=None):
        """Runs `program` through the launcher in a fresh directory; returns
        the launcher's measurement plus the CSV the program wrote."""
        wd = self.workdir()
        stderr = wd / "stderr.txt"
        done = subprocess.run(
            [str(self.launcher), "run", str(wd), str(stderr), "--", str(program), *args],
            env=child_env(self.seed),
            capture_output=True,
            text=True,
        )
        if done.returncode != 0:
            raise BenchError(f"launcher failed: {done.stderr.strip()}")
        result = json.loads(done.stdout)
        result["stderr"] = stderr.read_text(errors="replace")[-2000:]
        result["csv"] = None
        if csv_name is not None:
            path = wd / "target" / "experiments" / csv_name
            if path.exists():
                result["csv"] = path.read_bytes()
        shutil.rmtree(wd, ignore_errors=True)
        return result

    def campaign_args(self, scalar=False):
        args = ["--grid", str(self.grid), *self.flags]
        if scalar:
            return [*args, "--scalar-sessions"]
        if self.checkpoint_every is not None:
            args += ["--shard", "1/1", "--checkpoint-every", str(self.checkpoint_every)]
        return args

    def csv_name(self, scalar=False):
        return "campaign_shard_1of1.csv" if self.checkpoint_every and not scalar else "campaign.csv"

    def run_campaign(self, scalar=False):
        return self.launch(self.campaign, self.campaign_args(scalar), self.csv_name(scalar))

    def expected_path(self):
        return HERE / "expected" / f"{self.workload}.sha256"

    def reference_csv(self):
        """One untimed run of the scalar reference engine, unsharded."""
        run = self.run_campaign(scalar=True)
        if run["exit_code"] != 0 or run["csv"] is None:
            raise BenchError(f"scalar reference run failed: {run['stderr']}")
        return run["csv"]

    def expected(self):
        path = self.expected_path()
        if self.seed == DEFAULT_SEED and path.exists():
            return [
                line for line in path.read_text().splitlines() if line and not line.startswith("#")
            ]
        return csv_digests(self.reference_csv())

    def probe_memory(self):
        """The peak-memory reading must see a known 32 MiB allocation."""
        run = self.launch(self.launcher, ["touch", "32"])
        if run["exit_code"] != 0 or run["peak_rss_kb"] < 32 * 1024:
            raise BenchError(f"peak-memory probe missed a 32 MiB allocation: {run}")

    def perfbench_json(self, args):
        done = subprocess.run(
            [str(self.perfbench), *args, "--grid", str(self.grid), "--seed", str(self.seed)]
            + (["--paper-scale"] if "--paper-scale" in self.flags else []),
            env=child_env(self.seed),
            capture_output=True,
            text=True,
        )
        if done.returncode != 0:
            raise BenchError(f"perfbench {args[0]} failed: {done.stderr.strip()}")
        return json.loads(done.stdout.strip().splitlines()[-1])

    def setup_time(self, library=False):
        """One cold set-up in a fresh process, as the binary pays it; with
        `library`, also one in-process run of the campaign after it."""
        return self.perfbench_json(["setup", *(["--library"] if library else [])])

    def timed_runs(self, expected, seconds, at_least, library=False):
        """Campaign runs for `seconds` (at least `at_least` of them), each
        followed by one cold set-up timing (and library run)."""
        runs = []
        deadline = time.monotonic() + seconds
        while len(runs) < at_least or time.monotonic() < deadline:
            run = self.run_campaign()
            run.update(self.setup_time(library))
            run["failed"] = (
                len(expected) - 1 if run["exit_code"] != 0 else failed_points(run["csv"], expected)
            )
            if run["exit_code"] == 0 and run["peak_rss_kb"] <= run["launcher_hwm_kb"]:
                raise BenchError(f"peak memory {run} is not above the launcher's own footprint")
            del run["csv"]
            runs.append(run)
        return runs

    def end_to_end(self, seconds):
        self.probe_memory()
        expected = self.expected()
        shape = self.setup_time()
        runs = self.timed_runs(expected, seconds, MIN_RUNS)
        # Times are the fastest of the run: co-tenants on a shared host only
        # ever slow a process down, in phases of seconds and by up to half,
        # and the host's speed drifts over minutes; the fastest sample
        # tracks the program's own cost (see README.md for the spreads).
        walls = [r["wall_s"] for r in runs]
        campaign_s = min(walls)
        metrics = {
            "campaign_s": campaign_s,
            "campaign_rel": campaign_s / min(r["probe_s"] for r in runs),
            "frames_per_s": shape["frames"] / campaign_s,
            "setup_s": min(r["setup_s"] for r in runs),
            "peak_rss_mb": statistics.median(r["peak_rss_kb"] for r in runs) / 1024,
        }
        detail = {
            "points": shape["points"],
            "frames": shape["frames"],
            "campaign_runs": len(runs),
            "campaign_s_median": statistics.median(walls),
            "campaign_s_p90": statistics.quantiles(walls, n=10)[-1],
        }
        return metrics, shape["points"] * len(runs), sum(r["failed"] for r in runs), runs, detail

    def per_layer(self, seconds):
        self.probe_memory()
        expected = self.expected()
        wd = self.workdir()
        args = ["trace", "--seconds", str(seconds), "--workdir", str(wd)]
        if self.checkpoint_every is not None:
            args += ["--checkpoint-every", str(self.checkpoint_every)]
        trace = self.perfbench_json(args)
        points = len(expected) - 1
        traced_failed = failed_points((wd / "traced.csv").read_bytes(), expected)
        if not (trace["rows_match"] and trace["writer_rows_match"]):
            traced_failed = max(traced_failed, 1)
        spans = self.results / f"{self.workload}-seed{self.seed}.spans.tsv"
        spans.parent.mkdir(parents=True, exist_ok=True)
        shutil.copyfile(wd / "spans.tsv", spans)
        shutil.rmtree(wd, ignore_errors=True)

        # Each campaign process is paired with the set-up and library run
        # timed right after it, so both sides see the same host phase.
        runs = self.timed_runs(expected, 0, TRACE_E2E_RUNS, library=True)
        metrics = dict(trace["metrics"])
        metrics["process.residual_s"] = statistics.median(
            r["wall_s"] - r["setup_s"] - r["library_s"] for r in runs
        )
        attempted = points * (1 + len(runs))
        failed = traced_failed + sum(r["failed"] for r in runs)
        detail = {"traced_runs": trace["traced_runs"], "spans": spans.name}
        return metrics, attempted, failed, runs, detail

    def cleanup(self):
        shutil.rmtree(self.work, ignore_errors=True)


def command_output(command):
    try:
        done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def source_digest():
    """Digest of the sources the campaign builds from, for checkouts that are
    not git repositories."""
    files = [ROOT / "Cargo.toml", ROOT / "Cargo.lock"]
    files += sorted(p for p in (ROOT / "crates").rglob("*") if p.suffix in (".rs", ".toml"))
    digest = hashlib.sha256()
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def host_fingerprint(workload, seed):
    cpuinfo = Path("/proc/cpuinfo").read_text() if Path("/proc/cpuinfo").exists() else ""
    model = next(
        (line.split(":", 1)[1].strip() for line in cpuinfo.splitlines() if line.startswith("model name")),
        "unknown",
    )
    flags = next((line for line in cpuinfo.splitlines() if line.startswith("flags")), "")
    return {
        "cpu_model": model,
        "nproc": len(os.sched_getaffinity(0)),
        "dispatch": "avx2" if " avx2" in flags else "portable",
        "rustc": command_output(["rustc", "--version"]),
        "workers": int(child_env(seed)["XR_SWEEP_WORKERS"]),
        "workload": workload,
        "seed": seed,
        "git_commit": command_output(["git", "rev-parse", "HEAD"]) if (ROOT / ".git").exists() else "unknown",
        "source_digest": source_digest(),
    }


def declared_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def make_expected(target, workloads):
    for workload in workloads:
        bench = Bench(workload, DEFAULT_SEED, target)
        try:
            run = bench.run_campaign()
            if run["exit_code"] != 0 or run["csv"] is None:
                raise BenchError(f"{workload}: campaign failed: {run['stderr']}")
            reference = bench.reference_csv()
            if run["csv"] != reference:
                raise BenchError(f"{workload}: default and scalar engines disagree")
            digests = csv_digests(reference)
            header = (
                f"# {workload} at XR_CAMPAIGN_SEED={DEFAULT_SEED}: sha256 (first 16 hex digits)\n"
                f"# of each CSV line, header first; checked equal to --scalar-sessions.\n"
                f"# whole file: {hashlib.sha256(reference).hexdigest()}\n"
            )
            bench.expected_path().parent.mkdir(exist_ok=True)
            bench.expected_path().write_text(header + "\n".join(digests) + "\n")
            log(f"{workload}: {len(digests) - 1} rows -> {bench.expected_path()}")
        finally:
            bench.cleanup()


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="also write the full result JSON here")
    parser.add_argument("--make-expected", action="store_true")
    args = parser.parse_args()

    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "crates" / "xr-experiments").is_dir():
        log(f"no xr-perf workspace at {ROOT}: nothing to build or measure")
        return 2
    target = target_dir()
    if args.make_expected:
        make_expected(target, [args.workload] if args.workload else list(WORKLOADS))
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    declared = declared_metrics(args.trace)
    bench = Bench(args.workload, args.seed, target)
    try:
        measure = bench.per_layer if args.trace else bench.end_to_end
        values, attempted, failed, runs, detail = measure(args.seconds)
    finally:
        bench.cleanup()
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise BenchError(f"metrics declared in BENCHMARK.json but not measured: {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    host = host_fingerprint(args.workload, args.seed)
    full = dict(result, host=host, detail=detail, point_error_rate=failed / attempted, runs=runs)
    bench.results.mkdir(parents=True, exist_ok=True)
    text = json.dumps(full, indent=1) + "\n"
    (bench.results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(text)
    if args.out:
        args.out.write_text(text)
    for m in declared:
        print(f"{m['name']:>22} = {values[m['name']]:.6g} {m['unit']}")
    print(f"{'point_error_rate':>22} = {failed / attempted:.6g} ({failed} of {attempted} points)")
    print("host " + json.dumps(host))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as error:
        log(str(error))
        sys.exit(1)
