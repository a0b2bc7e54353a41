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

use std::path::{Path, PathBuf};
use std::sync::OnceLock;
use xr_experiments::campaign::write_campaign_csv;
use xr_experiments::{run_campaign_shard_with, ExperimentContext};
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

fn runner() -> CampaignRunner {
    CampaignRunner::new(2).with_campaign_seed(SEED)
}

/// The CSV bytes the `campaign` binary writes for `grid`.
fn campaign_csv(ctx: &ExperimentContext, grid: &SweepGrid) -> Vec<u8> {
    let mut csv = Vec::new();
    write_campaign_csv(ctx, grid, &runner(), &mut csv, false).unwrap();
    csv
}

#[test]
fn sweep_wide_matches_its_benchmark_digests() {
    let csv = campaign_csv(quick(), &workload_grid("sweep-wide"));
    assert_matches_expected("sweep-wide", &csv);
}

#[test]
fn session_long_matches_its_benchmark_digests() {
    let csv = campaign_csv(paper_scale(), &workload_grid("session-long"));
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
        &runner(),
        ShardSpec::parse("1/1").unwrap(),
        &csv_path,
        16,
    )
    .unwrap();
    let csv = std::fs::read(&csv_path).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    assert_matches_expected("roam-durable", &csv);
}
