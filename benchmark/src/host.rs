//! What the run reads from the host: the host block printed with every
//! result, memory and thread gauges from `/proc`, and directory sizes.

use std::path::Path;
use std::process::Command;
use std::time::{Duration, Instant};

fn proc_status_kb(field: &str) -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| {
            l.strip_prefix(field)?
                .split_whitespace()
                .next()?
                .parse()
                .ok()
        })
        .unwrap_or(0)
}

/// Peak resident set of this process so far, in MiB.
pub fn peak_rss_mb() -> f64 {
    proc_status_kb("VmHWM:") as f64 / 1024.0
}

pub fn thread_count() -> u64 {
    proc_status_kb("Threads:")
}

/// Soft limit on open files.
pub fn nofile_limit() -> u64 {
    let limits = std::fs::read_to_string("/proc/self/limits").unwrap_or_default();
    limits
        .lines()
        .find_map(|l| {
            l.strip_prefix("Max open files")?
                .split_whitespace()
                .next()?
                .parse()
                .ok()
        })
        .unwrap_or(0)
}

/// Total size of the regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// Iterations of a fixed integer loop per millisecond, over `window`: a
/// calibration that makes results from different hosts comparable.
fn spin_per_ms(window: Duration) -> f64 {
    let start = Instant::now();
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let mut iters = 0u64;
    while start.elapsed() < window {
        for _ in 0..10_000 {
            x = std::hint::black_box(x ^ (x << 13)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        }
        iters += 10_000;
    }
    iters as f64 / start.elapsed().as_secs_f64() / 1000.0
}

/// One JSON object describing the host, printed before the metrics.
pub fn host_block(node_source: &str) -> String {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let cpu = cpuinfo
        .lines()
        .find_map(|l| l.strip_prefix("model name")?.split(':').nth(1))
        .map_or("unknown".to_string(), |s| s.trim().replace('"', "'"));
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "{{\"nproc\":{nproc},\"cpu\":\"{cpu}\",\"rustc\":\"{}\",\"git_sha\":\"{}\",\"ulimit_n\":{},\"spin_per_ms\":{:.0},\"node_source\":\"{node_source}\"}}",
        command_line("rustc", &["-V"]),
        command_line("git", &["rev-parse", "--short", "HEAD"]),
        nofile_limit(),
        spin_per_ms(Duration::from_millis(250)),
    )
}
