//! Every checked-in grid file, pinned in process.
//!
//! 1. **Campaign predictions.** Campaign rows take the model's latency and
//!    energy from `XrPerformanceModel::predict`, which skips the AoI report
//!    that `analyze` adds. Over every point of every `configs/*.grid` and
//!    `perfbench/grids/*.grid`, in the quick and the paper-scale context,
//!    `predict` gives `analyze`'s totals bit for bit and fails exactly when
//!    `analyze` does, so no row moves and no failing point passes.
//! 2. **Benchmark bytes.** The three `perfbench/grids/*.grid` workloads run
//!    as the benchmark runs them (`roam-durable` as durable shard 1/1 with a
//!    checkpoint every 16 rows, `session-long` at paper scale), and the
//!    SHA-256 of each CSV line, cut to 16 hex digits, must equal the
//!    checked-in `perfbench/expected/<workload>.sha256`, header first.
//! 3. **Config grid bytes.** Every `configs/*.grid` runs in the quick
//!    context on the batched engine at 1 and at 3 workers (the second with
//!    `--progress`), which must write the scalar engine's bytes at 1
//!    worker; and those must equal `baselines/grids/<name>.csv`, written by
//!    the release `campaign --grid configs/<name>.grid`.
//! 4. **Student-t libm bits.** The CI columns of every campaign golden come
//!    from `students_t_quantile`, which calls the platform libm. Its output
//!    at every key those goldens reach, and the libm's bits at every
//!    argument it passes, must equal `tests/golden/students-t-libm.txt`.

use std::collections::BTreeSet;
use std::f64::consts::PI;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use xr_experiments::campaign::quick_grid;
use xr_experiments::shard_campaign::{checkpoint_path, manifest_path};
use xr_experiments::{
    run_campaign_shard_with, run_campaign_shard_with_progress, ExperimentContext,
};
use xr_stats::inference::students_t_cdf;
use xr_stats::students_t_quantile;
use xr_sweep::{parse_grid_spec, CampaignRunner, ShardSpec, SweepGrid};

/// The seed the benchmark digests were made at.
const SEED: u64 = 2024;

fn repo_path(relative: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(relative)
}

fn quick() -> &'static ExperimentContext {
    static CTX: OnceLock<ExperimentContext> = OnceLock::new();
    CTX.get_or_init(|| ExperimentContext::quick(SEED).unwrap())
}

fn paper_scale() -> &'static ExperimentContext {
    static CTX: OnceLock<ExperimentContext> = OnceLock::new();
    CTX.get_or_init(|| ExperimentContext::paper_scale(SEED).unwrap())
}

/// Every `*.grid` file of a repository directory, by name.
fn grid_files(dir: &str) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(repo_path(dir))
        .unwrap_or_else(|e| panic!("cannot list {dir}: {e}"))
        .map(|entry| entry.unwrap().path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "grid"))
        .collect();
    files.sort();
    files
}

fn grid(path: &Path) -> SweepGrid {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    parse_grid_spec(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

#[test]
fn predict_matches_analyze_on_every_grid_point() {
    let files: Vec<PathBuf> = grid_files("configs")
        .into_iter()
        .chain(grid_files("perfbench/grids"))
        .collect();
    assert!(files.len() >= 12, "nine configs and three benchmark grids");
    let mut points = 0usize;
    for ctx in [quick(), paper_scale()] {
        for path in &files {
            for point in grid(path).points().unwrap() {
                let label = format!("{} point {}", path.display(), point.index);
                let scenario = ctx.scenario_for(&point).unwrap();
                let model = ctx.proposed();
                match (model.predict(&scenario), model.analyze(&scenario)) {
                    (Ok((latency, energy)), Ok(report)) => {
                        let bits = |value: f64| value.to_bits();
                        assert_eq!(
                            bits(latency.total().to_millis().as_f64()),
                            bits(report.latency_ms().as_f64()),
                            "{label}: latency"
                        );
                        assert_eq!(
                            bits(energy.total().to_millijoules().as_f64()),
                            bits(report.energy_mj().as_f64()),
                            "{label}: energy"
                        );
                    }
                    (Err(_), Err(_)) => {}
                    (predicted, analysed) => panic!(
                        "{label}: predict {:?} but analyze {:?}",
                        predicted.map(|_| ()),
                        analysed.map(|_| ())
                    ),
                }
                points += 1;
            }
        }
    }
    assert!(points > 4000, "only {points} points checked");
}

/// SHA-256 (FIPS 180-4) of `data`, enough to read the benchmark's digests.
fn sha256(data: &[u8]) -> [u8; 32] {
    const K: [u32; 64] = [
        0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4,
        0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe,
        0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f,
        0x4a7484aa, 0x5cb0a9dc, 0x76f988da, 0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7,
        0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc,
        0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
        0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070, 0x19a4c116,
        0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
        0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7,
        0xc67178f2,
    ];
    let mut h: [u32; 8] = [
        0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab,
        0x5be0cd19,
    ];
    // Padding: a 1 bit, zeros to 56 mod 64 bytes, the bit length.
    let mut message = data.to_vec();
    message.push(0x80);
    while message.len() % 64 != 56 {
        message.push(0);
    }
    message.extend_from_slice(&(data.len() as u64 * 8).to_be_bytes());
    for block in message.chunks_exact(64) {
        let mut w = [0u32; 64];
        for (t, word) in block.chunks_exact(4).enumerate() {
            w[t] = u32::from_be_bytes(word.try_into().unwrap());
        }
        for t in 16..64 {
            let s0 = w[t - 15].rotate_right(7) ^ w[t - 15].rotate_right(18) ^ (w[t - 15] >> 3);
            let s1 = w[t - 2].rotate_right(17) ^ w[t - 2].rotate_right(19) ^ (w[t - 2] >> 10);
            w[t] = w[t - 16]
                .wrapping_add(s0)
                .wrapping_add(w[t - 7])
                .wrapping_add(s1);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut hh] = h;
        for t in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let t1 = hh
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[t])
                .wrapping_add(w[t]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = s0.wrapping_add(maj);
            hh = g;
            g = f;
            f = e;
            e = d.wrapping_add(t1);
            d = c;
            c = b;
            b = a;
            a = t1.wrapping_add(t2);
        }
        for (state, value) in h.iter_mut().zip([a, b, c, d, e, f, g, hh]) {
            *state = state.wrapping_add(value);
        }
    }
    let mut digest = [0u8; 32];
    for (bytes, word) in digest.chunks_exact_mut(4).zip(h) {
        bytes.copy_from_slice(&word.to_be_bytes());
    }
    digest
}

/// The benchmark's row digest: the first 16 hex digits of the line's
/// SHA-256, newline excluded.
fn row_digest(line: &[u8]) -> String {
    sha256(line)[..8]
        .iter()
        .map(|byte| format!("{byte:02x}"))
        .collect()
}

#[test]
fn sha256_matches_the_fips_180_4_vectors() {
    let hex = |digest: [u8; 32]| -> String { digest.iter().map(|b| format!("{b:02x}")).collect() };
    assert_eq!(
        hex(sha256(b"abc")),
        "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    );
    // Two blocks: the padding spills into a second one.
    assert_eq!(
        hex(sha256(
            b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
        )),
        "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
    );
    assert_eq!(row_digest(b"abc"), "ba7816bf8f01cfea");
}

/// Asserts that every line of `csv` hashes to the checked-in digest of
/// `workload`, header first, and that the line counts agree.
fn assert_matches_expected(workload: &str, csv: &[u8]) {
    let path = repo_path(&format!("perfbench/expected/{workload}.sha256"));
    let expected: Vec<String> = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()))
        .lines()
        .filter(|line| !line.is_empty() && !line.starts_with('#'))
        .map(str::to_owned)
        .collect();
    let body = csv
        .strip_suffix(b"\n")
        .unwrap_or_else(|| panic!("{workload}: the CSV does not end with a newline"));
    let lines: Vec<&[u8]> = body.split(|&byte| byte == b'\n').collect();
    for (index, (line, want)) in lines.iter().zip(&expected).enumerate() {
        assert_eq!(
            row_digest(line),
            *want,
            "{workload}: line {} (0 is the header) differs: {}",
            index,
            String::from_utf8_lossy(line)
        );
    }
    assert_eq!(lines.len(), expected.len(), "{workload}: line count");
}

fn workload_grid(workload: &str) -> SweepGrid {
    grid(&repo_path(&format!("perfbench/grids/{workload}.grid")))
}

fn runner(workers: usize) -> CampaignRunner {
    CampaignRunner::new(workers).with_campaign_seed(SEED)
}

/// The CSV bytes the `campaign` binary writes for `grid` on `workers`
/// workers, with or without `--progress`: a run without `--shard`, shard
/// 1/1 synced at the end, into a file of its own.
fn campaign_csv(
    ctx: &ExperimentContext,
    grid: &SweepGrid,
    workers: usize,
    progress: bool,
) -> Vec<u8> {
    static RUNS: AtomicUsize = AtomicUsize::new(0);
    let run = RUNS.fetch_add(1, Ordering::Relaxed);
    let csv_path =
        std::env::temp_dir().join(format!("xr-grid-pins-{}-{run}.csv", std::process::id()));
    run_campaign_shard_with_progress(
        ctx,
        grid,
        &runner(workers),
        ShardSpec::full(),
        &csv_path,
        usize::MAX,
        progress,
    )
    .unwrap();
    let csv = std::fs::read(&csv_path).unwrap();
    for path in [
        checkpoint_path(&csv_path),
        manifest_path(&csv_path),
        csv_path,
    ] {
        std::fs::remove_file(path).unwrap();
    }
    csv
}

#[test]
fn sweep_wide_matches_its_benchmark_digests() {
    let csv = campaign_csv(quick(), &workload_grid("sweep-wide"), 2, false);
    assert_matches_expected("sweep-wide", &csv);
}

#[test]
fn session_long_matches_its_benchmark_digests() {
    let csv = campaign_csv(paper_scale(), &workload_grid("session-long"), 2, false);
    assert_matches_expected("session-long", &csv);
}

#[test]
fn roam_durable_matches_its_benchmark_digests() {
    let dir = std::env::temp_dir().join(format!("xr-grid-pins-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let csv_path = dir.join("campaign_shard_1of1.csv");
    run_campaign_shard_with(
        quick(),
        &workload_grid("roam-durable"),
        &runner(2),
        ShardSpec::parse("1/1").unwrap(),
        &csv_path,
        16,
    )
    .unwrap();
    let csv = std::fs::read(&csv_path).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    assert_matches_expected("roam-durable", &csv);
}

/// Asserts that `csv` is `want`, line by line, naming the first line that
/// differs.
fn assert_same_lines(label: &str, csv: &str, want: &str) {
    for (index, (got, want)) in csv.lines().zip(want.lines()).enumerate() {
        assert_eq!(got, want, "{label}: line {index} (0 is the header)");
    }
    assert_eq!(
        csv.lines().count(),
        want.lines().count(),
        "{label}: line count"
    );
    assert_eq!(csv, want, "{label}: line endings");
}

#[test]
fn config_grids_match_their_goldens_on_both_engines() {
    let scalar = ExperimentContext::quick(SEED)
        .unwrap()
        .with_scalar_sessions();
    let files = grid_files("configs");
    let goldens = std::fs::read_dir(repo_path("baselines/grids"))
        .unwrap()
        .filter(|entry| {
            let path = entry.as_ref().unwrap().path();
            path.extension().is_some_and(|ext| ext == "csv")
        })
        .count();
    assert_eq!(goldens, files.len(), "one golden per configs/*.grid");
    for path in &files {
        let name = path.file_stem().unwrap().to_str().unwrap();
        let grid = grid(path);
        let text = |csv: Vec<u8>| String::from_utf8(csv).expect("campaign CSV is UTF-8");
        let reference = text(campaign_csv(&scalar, &grid, 1, false));
        for (workers, progress) in [(1, false), (3, true)] {
            let batched = text(campaign_csv(quick(), &grid, workers, progress));
            assert_same_lines(
                &format!("{name}: batched engine at {workers} worker(s) vs the scalar engine"),
                &batched,
                &reference,
            );
        }
        let golden = format!("baselines/grids/{name}.csv");
        let want = std::fs::read_to_string(repo_path(&golden))
            .unwrap_or_else(|e| panic!("cannot read {golden}: {e}"));
        assert_same_lines(
            &format!("{name}: both engines vs {golden}"),
            &reference,
            &want,
        );
    }
}

/// The checked-in bits of [`students_t_libm_fingerprint`].
const STUDENTS_T_LIBM_GOLDEN: &str = include_str!("golden/students-t-libm.txt");

/// The platform libm calls of one replayed quantile, each distinct
/// `(function, argument)` once, in first-call order.
#[derive(Default)]
struct LibmCalls(Vec<(&'static str, u64, u64)>);

impl LibmCalls {
    fn call(&mut self, name: &'static str, f: fn(f64) -> f64, x: f64) -> f64 {
        let y = f(x);
        if !self
            .0
            .iter()
            .any(|&(n, a, _)| n == name && a == x.to_bits())
        {
            self.0.push((name, x.to_bits(), y.to_bits()));
        }
        y
    }
}

/// `xr_stats::inference`'s `ln_gamma`, operation for operation, with its
/// libm calls recorded.
fn replay_ln_gamma(x: f64, libm: &mut LibmCalls) -> f64 {
    const COEFFICIENTS: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        let sin = libm.call("sin", f64::sin, PI * x);
        return libm.call("ln", f64::ln, PI / sin) - replay_ln_gamma(1.0 - x, libm);
    }
    let x = x - 1.0;
    let mut acc = COEFFICIENTS[0];
    for (i, c) in COEFFICIENTS.iter().enumerate().skip(1) {
        acc += c / (x + i as f64);
    }
    let t = x + 7.5;
    0.5 * libm.call("ln", f64::ln, 2.0 * PI) + (x + 0.5) * libm.call("ln", f64::ln, t) - t
        + libm.call("ln", f64::ln, acc)
}

/// `students_t_cdf(t, dof)`, recording the libm calls of its incomplete
/// beta `I_x(ν/2, ½)`: the `ln Γ` terms and the `exp` of its front factor.
/// The continued fraction calls no libm.
fn replay_cdf(t: f64, dof: f64, libm: &mut LibmCalls) -> f64 {
    let x = dof / (dof + t * t);
    if x != 0.0 && x != 1.0 {
        let (a, b) = (dof / 2.0, 0.5);
        let front =
            replay_ln_gamma(a + b, libm) - replay_ln_gamma(a, libm) - replay_ln_gamma(b, libm)
                + a * libm.call("ln", f64::ln, x)
                + b * libm.call("ln", f64::ln, 1.0 - x);
        libm.call("exp", f64::exp, front);
    }
    students_t_cdf(t, dof)
}

/// The Student-t quantiles behind the CI columns of every campaign golden,
/// and the platform libm's results at every argument they pass it, one
/// `function input… output` line each, as IEEE-754 bits in hex.
///
/// A row's 95 % interval takes `students_t_quantile(0.975, R − 1)`, so
/// the keys are the replication counts R ≥ 2 of every checked-in grid
/// (`configs/`, `perfbench/grids/`) and of the default quick grid. For
/// each key, ascending, the bisection is replayed along the path the
/// library's `students_t_cdf` takes on this host, recording the `ln`,
/// `exp` and `sin` calls of each CDF evaluation; then comes the quantile.
fn students_t_libm_fingerprint() -> String {
    let replications: BTreeSet<usize> = grid_files("configs")
        .into_iter()
        .chain(grid_files("perfbench/grids"))
        .map(|path| grid(&path).replications())
        .chain([quick_grid().replications()])
        .filter(|&r| r >= 2)
        .collect();
    // `mean_confidence_interval(samples, 0.95)`'s upper-tail probability.
    let level = 0.95;
    let p = 0.5 + level / 2.0;
    let mut out = String::new();
    for r in replications {
        let dof = (r - 1) as f64;
        let mut libm = LibmCalls::default();
        let (mut lo, mut hi) = (0.0_f64, 1.0_f64);
        while replay_cdf(hi, dof, &mut libm) < p {
            hi *= 2.0;
        }
        for _ in 0..200 {
            let mid = 0.5 * (lo + hi);
            if replay_cdf(mid, dof, &mut libm) < p {
                lo = mid;
            } else {
                hi = mid;
            }
            if hi - lo <= f64::EPSILON * hi.max(1.0) {
                break;
            }
        }
        for (name, x, y) in libm.0 {
            let _ = writeln!(out, "{name} {x:016x} {y:016x}");
        }
        let _ = writeln!(
            out,
            "t_quantile {:016x} {:016x} {:016x}",
            p.to_bits(),
            dof.to_bits(),
            students_t_quantile(p, dof).to_bits()
        );
    }
    out
}

#[test]
fn students_t_libm_matches_the_checked_in_bits() {
    let actual = students_t_libm_fingerprint();
    for (line, (got, want)) in actual
        .lines()
        .zip(STUDENTS_T_LIBM_GOLDEN.lines())
        .enumerate()
    {
        // `function inputs` first, then the output bits.
        let (got_call, got_bits) = got.rsplit_once(' ').expect("function input output");
        let (want_call, want_bits) = want.rsplit_once(' ').expect("function input output");
        assert_eq!(
            got_call,
            want_call,
            "Student-t libm golden line {}: the quantile's keys or the arguments it passes \
             libm moved, so this is a code change, not a libm difference",
            line + 1
        );
        let cause = if got_call.starts_with("t_quantile") {
            "the quantile moved while this host's libm gives the checked-in bits at every \
             argument it passes, so this is a code change"
        } else {
            "this host's libm gives other bits than the libm the goldens were made with \
             (glibc 2.36), so no campaign golden's CI columns can be trusted to match here"
        };
        assert_eq!(
            got_bits,
            want_bits,
            "Student-t libm golden line {}: {cause}",
            line + 1
        );
    }
    assert_eq!(
        actual.lines().count(),
        STUDENTS_T_LIBM_GOLDEN.lines().count(),
        "Student-t libm golden line count"
    );
}
