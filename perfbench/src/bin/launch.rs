//! Process launcher for the campaign benchmark: runs one child to
//! completion and reports its wall time and peak resident memory.
//!
//! ```text
//! perfbench-launch run <workdir> <stderr-file> -- <program> [args...]
//! perfbench-launch touch <mib>
//! ```
//!
//! `run` starts `<program>` in `<workdir>` with this process's environment,
//! stdout discarded and stderr captured to `<stderr-file>`, and waits for
//! it. Then it times a fixed CPU reference kernel ([`probe`]) and prints one
//! JSON line: `{"wall_s": …, "exit_code": …, "peak_rss_kb": …,
//! "launcher_hwm_kb": …, "probe_s": …}`.
//!
//! The probe gauges how fast the host runs *right now*. On a shared host,
//! co-tenants stretch every run by up to half in phases of seconds; the
//! child's wall time divided by the probe's cancels most of that.
//!
//! Peak memory is the child's `ru_maxrss`. Linux folds the high-water mark
//! of the address space a child execs *from* into that figure, so a child
//! started from a large launcher (a Python interpreter: ~14 MB) can never
//! read lower than the launcher. This launcher stays small (its own
//! high-water mark is reported as `launcher_hwm_kb`, and the caller checks
//! that the child's peak lies above it), so the reading is the child's own.
//!
//! `touch` allocates `<mib>` MiB, writes every page and exits: a child with
//! a known footprint for checking the measurement.

use std::fs::File;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

/// `struct rusage` of 64-bit Linux: two `struct timeval`s followed by
/// fourteen `long`s, the first of which is `ru_maxrss` in KiB.
#[repr(C)]
struct RUsage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
}

/// `RUSAGE_CHILDREN`: totals over every waited-for child of this process.
const RUSAGE_CHILDREN: i32 = -1;

/// Peak resident set size, in KiB, over all children this process has
/// waited for. `run` starts exactly one child, so this is that child's peak.
fn children_peak_rss_kb() -> std::io::Result<i64> {
    let mut usage = RUsage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `usage` is a live, exclusively borrowed `RUsage` whose layout
    // matches the kernel's 64-bit `struct rusage`, so `getrusage` writes
    // only inside it; `RUSAGE_CHILDREN` is a valid `who`.
    let status = unsafe { getrusage(RUSAGE_CHILDREN, &mut usage) };
    if status != 0 {
        return Err(std::io::Error::last_os_error());
    }
    Ok(usage.maxrss)
}

/// This process's own resident high-water mark (`VmHWM`), in KiB.
fn own_hwm_kb() -> std::io::Result<i64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| std::io::Error::other("no VmHWM line in /proc/self/status"))
}

/// Fixed CPU reference work, about 25 ms on a 2.1 GHz Xeon: a xorshift
/// stream scattering `ln_1p`/`sqrt` updates over a 256 KiB buffer (L2
/// resident). Returns its wall time in seconds.
fn probe() -> f64 {
    let mut buffer = vec![0f64; 32 * 1024];
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let start = Instant::now();
    for i in 0..2_000_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let slot = (x as usize) & (buffer.len() - 1);
        buffer[slot] =
            (buffer[slot] + (x >> 11) as f64 * f64::EPSILON / 2.0).ln_1p() + (i as f64).sqrt();
    }
    std::hint::black_box(&buffer);
    start.elapsed().as_secs_f64()
}

fn run(workdir: &str, stderr_path: &str, program: &str, args: &[String]) -> std::io::Result<()> {
    let stderr = File::create(stderr_path)?;
    let launcher_hwm_kb = own_hwm_kb()?;
    let start = Instant::now();
    let status = Command::new(program)
        .args(args)
        .current_dir(workdir)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(stderr)
        .status()?;
    let wall_s = start.elapsed().as_secs_f64();
    let peak_rss_kb = children_peak_rss_kb()?;
    let exit_code = status.code().unwrap_or(-1);
    let probe_s = probe();
    println!(
        "{{\"wall_s\": {wall_s:.9}, \"exit_code\": {exit_code}, \"peak_rss_kb\": {peak_rss_kb}, \"launcher_hwm_kb\": {launcher_hwm_kb}, \"probe_s\": {probe_s:.9}}}"
    );
    Ok(())
}

fn touch(mib: usize) {
    let mut block = vec![0u8; mib << 20];
    for page in block.chunks_mut(4096) {
        page[0] = 1;
    }
    std::hint::black_box(&block);
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args
        .iter()
        .map(String::as_str)
        .collect::<Vec<_>>()
        .as_slice()
    {
        ["run", workdir, stderr_path, "--", program, ..] => {
            match run(workdir, stderr_path, program, &args[5..]) {
                Ok(()) => ExitCode::SUCCESS,
                Err(error) => {
                    eprintln!("perfbench-launch: {error}");
                    ExitCode::from(1)
                }
            }
        }
        ["touch", mib] => match mib.parse() {
            Ok(mib) => {
                touch(mib);
                ExitCode::SUCCESS
            }
            Err(_) => {
                eprintln!("perfbench-launch: `{mib}` is not a MiB count");
                ExitCode::from(2)
            }
        },
        _ => {
            eprintln!(
                "usage: perfbench-launch run <workdir> <stderr-file> -- <program> [args...]\n       perfbench-launch touch <mib>"
            );
            ExitCode::from(2)
        }
    }
}
