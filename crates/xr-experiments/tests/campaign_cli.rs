//! The experiment binaries refuse bad input before any work starts: unknown
//! flags and artifact names, a malformed `XR_CAMPAIGN_SEED` and a malformed
//! `XR_SWEEP_WORKERS` exit with status 2 and a message naming the problem.
//! A campaign or paper artifact whose CSV cannot be written exits non-zero
//! instead of reporting success, and so does a campaign whose replication
//! count cannot be held in memory. A campaign SIGKILL'd mid-run resumes
//! from its checkpoint to the one-shot campaign's bytes.

use std::path::{Path, PathBuf};
use std::process::Command;

/// The campaign binary under test.
const CAMPAIGN: &str = env!("CARGO_BIN_EXE_campaign");
/// The paper-artifact binary under test.
const REPRODUCE: &str = env!("CARGO_BIN_EXE_reproduce");
/// The shard-merge binary under test.
const CAMPAIGN_MERGE: &str = env!("CARGO_BIN_EXE_campaign_merge");

/// A fresh per-test working directory holding a one-point grid spec,
/// `one.grid`.
fn workdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("xr-campaign-cli-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(
        dir.join("one.grid"),
        "frame_sizes = 300\ncpu_clocks = 2.0\nexecutions = remote\n",
    )
    .unwrap();
    dir
}

/// Runs `binary` with `args` and `env` in `dir` and returns its exit code,
/// stdout and stderr.
fn run(
    binary: &str,
    args: &[&str],
    env: &[(&str, &str)],
    dir: &Path,
) -> (Option<i32>, String, String) {
    let output = Command::new(binary)
        .args(args)
        .current_dir(dir)
        .env_remove("XR_CAMPAIGN_SEED")
        .env_remove("XR_SWEEP_WORKERS")
        .envs(env.iter().copied())
        .output()
        .expect("binary runs");
    (
        output.status.code(),
        String::from_utf8_lossy(&output.stdout).into_owned(),
        String::from_utf8_lossy(&output.stderr).into_owned(),
    )
}

#[test]
fn retired_flags_exit_two_and_name_the_flag() {
    for (args, flag) in [
        (&["--fused-points"][..], "--fused-points"),
        (&["--session-chunks", "3"][..], "--session-chunks"),
        (&["--reorder-cap", "8"][..], "--reorder-cap"),
    ] {
        let (code, _, stderr) = run(CAMPAIGN, args, &[], &workdir("retired"));
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert!(
            stderr.contains(&format!("unknown campaign flag `{flag}`")),
            "{args:?}: {stderr}"
        );
    }
}

#[test]
fn a_non_numeric_seed_exits_two_instead_of_running_the_default() {
    let (code, _, stderr) = run(
        CAMPAIGN,
        &[],
        &[("XR_CAMPAIGN_SEED", "twenty")],
        &workdir("seed"),
    );
    assert_eq!(code, Some(2), "{stderr}");
    assert!(
        stderr.contains("invalid XR_CAMPAIGN_SEED `twenty`"),
        "{stderr}"
    );
}

#[test]
fn a_non_numeric_worker_count_exits_two_instead_of_running_the_default() {
    let dir = workdir("workers");
    let (code, _, stderr) = run(
        CAMPAIGN,
        &["--grid", "one.grid"],
        &[("XR_SWEEP_WORKERS", "four")],
        &dir,
    );
    assert_eq!(code, Some(2), "{stderr}");
    assert!(
        stderr.contains("invalid XR_SWEEP_WORKERS `four`: expected a non-negative integer"),
        "{stderr}"
    );
    assert!(!dir.join("target/experiments/campaign.csv").exists());
}

#[test]
fn unknown_flags_stop_the_other_experiment_binaries() {
    let (code, stdout, stderr) = run(REPRODUCE, &["--paper-scal"], &[], &workdir("reproduce"));
    assert_eq!(code, Some(2), "{stderr}");
    assert!(
        stderr.contains("unknown experiment flag `--paper-scal`"),
        "{stderr}"
    );
    assert!(stdout.is_empty(), "{stdout}");
}

#[test]
fn an_unknown_artifact_name_exits_two_before_any_work() {
    let dir = workdir("fig4z");
    let (code, stdout, stderr) = run(REPRODUCE, &["fig4a", "fig4z"], &[], &dir);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("unknown artifact `fig4z`"), "{stderr}");
    assert!(stdout.is_empty(), "{stdout}");
    assert!(!dir.join("target/experiments").exists());
}

#[test]
fn a_replication_count_beyond_memory_exits_one_with_a_typed_error() {
    let dir = workdir("replications");
    std::fs::write(
        dir.join("huge.grid"),
        "frame_sizes = 300\ncpu_clocks = 2.0\nexecutions = remote\nreplications = 18446744073709551615\n",
    )
    .unwrap();
    let (code, stdout, stderr) = run(
        CAMPAIGN,
        &["--grid", "huge.grid"],
        &[("XR_SWEEP_WORKERS", "1")],
        &dir,
    );
    assert_eq!(code, Some(1), "{stderr}");
    assert!(stdout.is_empty(), "{stdout}");
    assert!(
        stderr.contains("campaign failed: ")
            && stderr.contains("invalid parameter `reps`")
            && stderr.contains("18446744073709551615 replications"),
        "{stderr}"
    );
}

#[test]
fn an_unsharded_campaign_streams_its_csv_and_prints_one_summary_line() {
    let dir = workdir("stream");
    let (code, stdout, stderr) = run(
        CAMPAIGN,
        &["--grid", "one.grid", "--progress"],
        &[("XR_SWEEP_WORKERS", "2")],
        &dir,
    );
    assert_eq!(code, Some(0), "{stderr}");
    assert_eq!(
        stdout,
        "shard 1/1: 0 row(s) resumed from checkpoint, 1 evaluated (2 worker(s)); csv written to target/experiments/campaign.csv\n"
    );
    assert_eq!(stderr, "shard 1/1: 1/1 points\n");
    let csv = std::fs::read_to_string(dir.join("target/experiments/campaign.csv")).unwrap();
    let lines: Vec<&str> = csv.lines().collect();
    assert_eq!(lines.len(), 2, "{csv}");
    assert!(lines[0].starts_with("point,device,"), "{csv}");
    assert!(
        lines[1].starts_with("0,XR2,baseline,static,remote,2.0,300,"),
        "{csv}"
    );
}

#[cfg(target_os = "linux")]
#[test]
fn a_failed_csv_write_exits_non_zero() {
    // `/dev/full` opens fine and fails every write with ENOSPC, so the
    // error surfaces on the buffered writer's flush, not at open. A fresh
    // run never reads the CSV (a read of `/dev/full` would never end).
    let dir = workdir("full");
    std::fs::create_dir_all(dir.join("target/experiments")).unwrap();
    std::os::unix::fs::symlink("/dev/full", dir.join("target/experiments/campaign.csv")).unwrap();
    let (code, stdout, stderr) = run(CAMPAIGN, &["--grid", "one.grid"], &[], &dir);
    assert_eq!(code, Some(1), "{stderr}");
    assert!(stdout.is_empty(), "{stdout}");
    assert!(stderr.contains("campaign failed: "), "{stderr}");
    assert!(stderr.contains("No space left on device"), "{stderr}");
}

#[cfg(target_os = "linux")]
#[test]
fn a_failed_artifact_write_exits_non_zero_and_names_the_artifact() {
    let dir = workdir("artifact-full");
    std::fs::create_dir_all(dir.join("target/experiments")).unwrap();
    std::os::unix::fs::symlink("/dev/full", dir.join("target/experiments/fig4a.csv")).unwrap();
    let (code, stdout, stderr) = run(REPRODUCE, &["fig4a"], &[], &dir);
    assert_eq!(code, Some(1), "{stderr}");
    assert!(stdout.is_empty(), "{stdout}");
    assert!(
        stderr.starts_with("reproduce: fig4a: target/experiments/fig4a.csv: "),
        "{stderr}"
    );
}

/// A run without `--shard`, SIGKILL'd while it writes its checkpoint,
/// resumes from it: the rerun evaluates only the points the checkpoint
/// lacks and writes the bytes of a one-shot `--shard 1/1` run, and merging
/// the resumed CSV as a shard gives the same bytes again. The grid's 12
/// points of 16 000 frames each keep the run going for many polls of its
/// checkpoint in both build profiles.
#[cfg(unix)]
#[test]
fn a_shard_killed_mid_run_resumes_to_the_one_shot_bytes() {
    use std::os::unix::process::ExitStatusExt;
    use std::process::Stdio;
    use std::time::Duration;
    let dir = workdir("sigkill");
    std::fs::write(
        dir.join("kill.grid"),
        "frame_sizes = 300, 500, 700\ncpu_clocks = 1.0, 2.0\nexecutions = remote, local\n\
         frames_per_session = 8000\nreplications = 2\n",
    )
    .unwrap();
    let one_worker = [("XR_SWEEP_WORKERS", "1")];
    let shard = ["--grid", "kill.grid", "--shard", "1/1"];
    let (code, _, stderr) = run(CAMPAIGN, &shard, &one_worker, &dir);
    assert_eq!(code, Some(0), "{stderr}");
    let experiments = dir.join("target/experiments");
    let one_shot = std::fs::read(experiments.join("campaign_shard_1of1.csv")).unwrap();
    let points = one_shot.iter().filter(|&&b| b == b'\n').count() - 1;

    let plain = ["--grid", "kill.grid", "--checkpoint-every", "1"];
    let mut child = Command::new(CAMPAIGN)
        .args(plain)
        .current_dir(&dir)
        .env_remove("XR_CAMPAIGN_SEED")
        .env("XR_SWEEP_WORKERS", "1")
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("campaign spawns");
    let checkpoint = experiments.join("campaign.csv.checkpoint");
    loop {
        let records = std::fs::read_to_string(&checkpoint).map_or(0, |text| {
            text.lines()
                .filter(|line| line.starts_with("done "))
                .count()
        });
        if (1..points).contains(&records) {
            child.kill().expect("SIGKILL is sent");
            break;
        }
        let finished = child.try_wait().expect("campaign status");
        assert!(
            finished.is_none(),
            "the campaign finished before the kill: {records} of {points} points checkpointed"
        );
        std::thread::sleep(Duration::from_micros(200));
    }
    let status = child.wait().expect("killed campaign is reaped");
    assert_eq!(
        status.signal(),
        Some(9),
        "the campaign finished before the kill landed: {status}"
    );

    let (code, stdout, stderr) = run(CAMPAIGN, &plain, &one_worker, &dir);
    assert_eq!(code, Some(0), "{stderr}");
    let counts: Vec<usize> = stdout
        .split(|c: char| !c.is_ascii_digit())
        .filter_map(|n| n.parse().ok())
        .collect();
    // "shard 1/1: <resumed> row(s) resumed from checkpoint, <evaluated>
    // evaluated (1 worker(s)); csv written to target/experiments/campaign.csv"
    let [1, 1, resumed, evaluated, 1] = counts[..] else {
        panic!("unexpected summary: {stdout}");
    };
    assert!(
        evaluated >= 1,
        "the resumed run evaluated nothing: {stdout}"
    );
    assert_eq!(resumed + evaluated, points, "{stdout}");
    let resumed_csv = experiments.join("campaign.csv");
    assert!(
        std::fs::read(&resumed_csv).unwrap() == one_shot,
        "the resumed run does not give the one-shot CSV"
    );

    let merged = experiments.join("merged.csv");
    let merge = [
        "--out",
        merged.to_str().unwrap(),
        resumed_csv.to_str().unwrap(),
    ];
    let (code, _, stderr) = run(CAMPAIGN_MERGE, &merge, &[], &dir);
    assert_eq!(code, Some(0), "{stderr}");
    assert!(
        std::fs::read(&merged).unwrap() == one_shot,
        "merging the resumed CSV as one 1/1 shard changes its bytes"
    );
}
