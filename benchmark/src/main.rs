//! The repo benchmark: four workloads over the unmodified pgrid crates.
//!
//! `--trace 0` measures the end-to-end metrics with span recording off;
//! `--trace 1` reruns the workload with spans recorded around every call
//! into a layer and then times each layer's public functions on inputs
//! captured from the workload. See README.md for every definition.

#[cfg(feature = "node-crate")]
use pgrid_node as node;
#[cfg(all(feature = "node-view", not(feature = "node-crate")))]
use pgrid_node_view as node;

mod engine;
mod gen;
mod host;
mod live;
mod probes;
mod span;
mod stats;
mod window;

use std::path::PathBuf;
use std::process::ExitCode;

const WORKLOADS: [&str; 4] = ["live_read", "live_mixed", "engine_read", "engine_mixed"];

#[cfg(feature = "node-crate")]
const NODE_SOURCE: &str = "crate";
#[cfg(not(feature = "node-crate"))]
const NODE_SOURCE: &str = "view";

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    /// Tiny sizes, same code paths (check.sh).
    pub smoke: bool,
    /// Scratch directory for storage backends and trace files.
    pub out: PathBuf,
}

pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// How many measurements the value summarizes.
    pub samples: u64,
}

pub fn metric(name: impl Into<String>, value: f64, unit: &'static str, samples: u64) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
        samples,
    }
}

/// What one run of one workload produced.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    /// Timed-out or wrong-answer ops. Not-found under simulated churn is
    /// an outcome, counted in `found_share`, not a failure.
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// `workload_hash` / `outcome_hash` lines and other notes.
    pub notes: Vec<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
        smoke: false,
        out: PathBuf::from("benchmark/out"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            args.smoke = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?.max(1),
            "--trace" => args.trace = number()? != 0,
            "--out" => args.out = PathBuf::from(value),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    Ok(args)
}

/// JSON number with all measured digits (`{:?}` round-trips an f64).
fn json_number(v: f64) -> String {
    assert!(v.is_finite(), "metric value {v} is not a number");
    format!("{v:?}")
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("pgrid-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    std::fs::create_dir_all(&args.out).expect("create the scratch directory");
    println!("host {}", host::host_block(NODE_SOURCE));
    println!(
        "run workload={} seed={} seconds={} trace={} smoke={}",
        args.workload, args.seed, args.seconds, args.trace as u8, args.smoke
    );

    let report = match args.workload.as_str() {
        "live_read" => live::run(&args, false),
        "live_mixed" => live::run(&args, true),
        "engine_read" => engine::run_read(&args),
        _ => engine::run_mixed(&args),
    };

    for note in &report.notes {
        println!("{note}");
    }
    for m in &report.metrics {
        println!(
            "metric {} = {} {} (n={})",
            m.name,
            json_number(m.value),
            m.unit,
            m.samples
        );
    }
    let correct = report.failed == 0 && report.attempted > 0;
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted,
        report.failed,
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
