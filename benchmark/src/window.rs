//! What a timed window measured and the reports built from it, shared by
//! all four workloads so the end-to-end metrics have one definition.

use std::time::Instant;

use crate::span::Recorder;
use crate::{metric, stats, Args, Report};

#[derive(Default)]
pub struct Window {
    pub rate: stats::Throughput,
    pub attempted: u64,
    /// Timed-out or wrong-answer ops.
    pub failed: u64,
    pub lookups: u64,
    pub found: u64,
    /// What the ops cost: `NetStats::total()` delta (engine), frames the
    /// transport delivered (live).
    pub messages: u64,
    /// µs per lookup: one sample per `query` call (live) or per timed
    /// batch of lookups (engine).
    pub latencies_us: Vec<f64>,
    /// Live only: lookups slower than `live::SLOW_LOOKUP`.
    pub slow: u64,
    /// Live only: frames delivered during insert batches and `settle()`.
    pub write_frames: u64,
}

impl Window {
    pub fn good_ops(&self) -> u64 {
        self.attempted - self.failed
    }

    /// Correct ops per second, median over sub-windows.
    pub fn ops_per_s(&self) -> f64 {
        self.rate.median().0
    }
}

/// Sets the system up `repeats` times, tearing each one down before the
/// next, and returns the last with every set-up's duration in seconds.
pub fn repeat_setup<T>(
    repeats: usize,
    mut setup: impl FnMut(usize) -> T,
    teardown: impl Fn(T),
) -> (T, Vec<f64>) {
    let mut seconds = Vec::new();
    let mut system = None;
    for attempt in 0..repeats {
        if let Some(previous) = system.take() {
            teardown(previous);
        }
        let start = Instant::now();
        system = Some(setup(attempt));
        seconds.push(start.elapsed().as_secs_f64());
    }
    (system.expect("at least one set-up"), seconds)
}

/// The `--trace 0` report.
pub fn end_to_end(
    w: Window,
    mut setups: Vec<f64>,
    peak_rss_mb: f64,
    mut notes: Vec<String>,
) -> Report {
    let (ops_per_s, sub_windows) = w.rate.median();
    let msgs_per_op = w.messages as f64 / w.attempted as f64;
    let found_share = w.found as f64 / w.lookups as f64;
    let lat = stats::latency(w.latencies_us);
    notes.push(lat.note("lookup latency"));
    Report {
        attempted: w.attempted,
        failed: w.failed,
        metrics: vec![
            metric(
                "setup_s",
                stats::median(&mut setups),
                "s",
                setups.len() as u64,
            ),
            metric("ops_per_s", ops_per_s, "1/s", sub_windows),
            metric("lookup_p50_us", lat.p50, "us", lat.samples as u64),
            metric("msgs_per_op", msgs_per_op, "count", w.attempted),
            metric("peak_rss_mb", peak_rss_mb, "MiB", 1),
            metric("found_share", found_share, "share", w.lookups),
        ],
        notes,
    }
}

/// The `--trace 1` report: the workload's layer metrics plus what the two
/// windows (spans off, then on from `mark`) show, and the trace file.
pub fn traced_report(
    args: &Args,
    rec: &Recorder,
    mark: usize,
    plain: Window,
    traced: Window,
    mut metrics: Vec<crate::Metric>,
    mut notes: Vec<String>,
) -> Report {
    // Time inside layer calls (spans named `<layer>.<call>`) and in the
    // benchmark's own code (the `op` spans' self time), per traced op.
    let table = rec.self_times_since(mark);
    let op_self = table.get("op").map_or(0, |t| t.self_ns);
    let layer: u64 = table
        .iter()
        .filter(|(name, _)| name.contains('.'))
        .map(|(_, t)| t.self_ns)
        .sum();
    let per_op = |ns: u64| ns as f64 / traced.attempted.max(1) as f64 / 1e3;
    // The tail is too noisy on a shared host to gate on; it is reported here.
    let overhead = (plain.ops_per_s() / traced.ops_per_s() - 1.0) * 100.0;
    let lat = stats::latency(plain.latencies_us);
    metrics.extend([
        metric(
            "span.layer_us_per_op",
            per_op(layer),
            "us",
            traced.attempted,
        ),
        metric(
            "span.harness_us_per_op",
            per_op(op_self),
            "us",
            traced.attempted,
        ),
        metric("bench.lookup_p90_us", lat.p90, "us", lat.samples as u64),
        metric("bench.lookup_p99_us", lat.p99, "us", lat.samples as u64),
        metric("bench.trace_overhead_pct", overhead, "%", 2),
    ]);
    let file = args.out.join(format!("trace-{}.json", args.workload));
    rec.write_json(&file).expect("write the trace file");
    notes.push(format!("trace written to {}", file.display()));
    Report {
        attempted: plain.attempted + traced.attempted,
        failed: plain.failed + traced.failed,
        metrics,
        notes,
    }
}
