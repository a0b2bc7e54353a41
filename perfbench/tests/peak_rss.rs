//! The launcher's peak-memory reading belongs to the child, not to
//! whatever started the launcher.

use std::path::PathBuf;
use std::process::Command;

const LAUNCHER: &str = env!("CARGO_BIN_EXE_perfbench-launch");

/// Runs `perfbench-launch run … -- perfbench-launch touch <mib>` and returns
/// `(peak_rss_kb, launcher_hwm_kb)` from its JSON line.
fn measure_touch(mib: usize) -> (i64, i64) {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("peak_rss");
    std::fs::create_dir_all(&dir).unwrap();
    let output = Command::new(LAUNCHER)
        .arg("run")
        .arg(&dir)
        .arg(dir.join(format!("touch{mib}.stderr")))
        .args(["--", LAUNCHER, "touch", &mib.to_string()])
        .output()
        .unwrap();
    assert!(output.status.success(), "{output:?}");
    let line = String::from_utf8(output.stdout).unwrap();
    let field = |name: &str| -> i64 {
        let start = line.find(&format!("\"{name}\": ")).unwrap() + name.len() + 4;
        line[start..]
            .split([',', '}'])
            .next()
            .unwrap()
            .trim()
            .parse()
            .unwrap()
    };
    assert_eq!(field("exit_code"), 0, "{line}");
    (field("peak_rss_kb"), field("launcher_hwm_kb"))
}

#[test]
fn a_known_allocation_shows_up_in_the_child_peak() {
    let (idle_kb, _) = measure_touch(0);
    let (busy_kb, launcher_kb) = measure_touch(64);
    assert!(busy_kb >= 64 * 1024, "64 MiB child read {busy_kb} KiB");
    assert!(
        busy_kb - idle_kb >= 60 * 1024,
        "64 MiB child read only {} KiB above an idle one",
        busy_kb - idle_kb
    );
    assert!(launcher_kb < busy_kb);
}

#[test]
fn a_large_caller_does_not_floor_the_reading() {
    // This test process touches 96 MiB first. A child exec'd straight from
    // it would read at least that much; through the launcher, an idle
    // child still reads small.
    let mut ballast = vec![0u8; 96 << 20];
    for page in ballast.chunks_mut(4096) {
        page[0] = 1;
    }
    std::hint::black_box(&ballast);
    let (idle_kb, launcher_kb) = measure_touch(0);
    assert!(idle_kb < 32 * 1024, "idle child read {idle_kb} KiB");
    assert!(launcher_kb < 32 * 1024, "launcher read {launcher_kb} KiB");
}
