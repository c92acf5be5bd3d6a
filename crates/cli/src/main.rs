//! `pgrid` — command-line runner for the P-Grid experiments.
//!
//! ```text
//! pgrid exp <id> [--small] [--seed S] [--csv] [--json]
//! pgrid list
//! ```
//!
//! `<id>` is one of: `t1 t2 t3 t4 t6 f4 f5 search scaling flooding sizing
//! skew ablation all`. `--small` runs the laptop-fast preset instead of the
//! paper-scale one; `--csv`/`--json` switch the output format.

use std::env;
use std::process::ExitCode;

use pgrid_core::GridSizing;
use pgrid_sim::experiments::{
    ablation, caching, engine, f4, f5, flooding, latency, mixed, repair, s52_search, s6_scaling,
    selfstab, sizing, skew, store, t1, t2, t3, t4t5, t6, timeline, variance,
};
use pgrid_sim::Table;
use pgrid_store::BackendKind;

#[derive(Clone, Copy, PartialEq)]
enum Format {
    Text,
    Csv,
    Json,
    Markdown,
}

struct Options {
    small: bool,
    seed: Option<u64>,
    format: Format,
    /// Restrict the `store` experiment to one backend (it measures all
    /// three by default). Ignored by the other experiments.
    backend: Option<BackendKind>,
}

fn main() -> ExitCode {
    let args: Vec<String> = env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
usage:
  pgrid exp <id> [--small] [--seed S] [--backend memory|hashfile|log]
                 [--csv | --json | --md]
  pgrid grid build [--n N] [--maxl L] [--refmax R] [--seed S] --out FILE
  pgrid grid info --grid FILE
  pgrid grid query --grid FILE --key BITS [--p-online P] [--seed S]
  pgrid trace record [--n N] [--maxl L] [--queries Q] [--shards S]
                     [--threads T] [--seed S] [--p-online P] --out FILE
  pgrid trace replay --in FILE [--chains N]
  pgrid trace diff --a FILE --b FILE
  pgrid list

experiments:
  t1        construction cost vs community size
  t2        construction cost vs maximal path length
  t3        construction cost vs recursion depth
  t4        construction cost vs refmax (bounded and unbounded fan-out)
  f4        replica distribution of the big grid
  search    search reliability at 30% availability (section 5.2)
  f5        fraction of replicas found vs messages (3 strategies)
  t6        update/query cost tradeoff
  scaling   P-Grid vs central server (section 6)
  flooding  P-Grid vs Gnutella flooding
  sizing    the section-4 Gnutella sizing example
  skew      index imbalance under skewed keys
  balance   skew adaptation to the balance fixpoint + flash-crowd replica scaling
  repair    failure injection + self-repair of reference tables
  selfstab  corruption injection + self-stabilization to a clean audit
  timeline  event-driven construction under session churn
  caching   client result caching under zipf query traffic
  latency   end-to-end search latency under delay models
  variance  T3 replicated over several seeds (mean +/- std)
  mixed     end-to-end mixed read/write workload (break-even, empirical)
  ablation  design-knob ablations
  engine    engine throughput: serial vs threaded vs compact routing table
  store     storage backend equivalence + throughput (--backend picks one)
  all       every experiment in sequence (--small for the laptop presets)";

fn run(args: &[String]) -> Result<(), String> {
    let mut it = args.iter();
    match it.next().map(String::as_str) {
        Some("list") => {
            out(USAGE);
            Ok(())
        }
        Some("grid") => grid_command(&mut it),
        Some("trace") => trace_command(&mut it),
        Some("exp") => {
            let id = it.next().ok_or("missing experiment id")?.clone();
            let mut opts = Options {
                small: false,
                seed: None,
                format: Format::Text,
                backend: None,
            };
            while let Some(flag) = it.next() {
                match flag.as_str() {
                    "--small" => opts.small = true,
                    "--csv" => opts.format = Format::Csv,
                    "--json" => opts.format = Format::Json,
                    "--md" => opts.format = Format::Markdown,
                    "--seed" => {
                        let s = it.next().ok_or("--seed needs a value")?;
                        opts.seed = Some(s.parse().map_err(|_| format!("bad seed {s:?}"))?);
                    }
                    "--backend" => {
                        let b = it.next().ok_or("--backend needs a value")?;
                        opts.backend = Some(b.parse().map_err(|_| {
                            format!("bad backend {b:?} (expected memory, hashfile, or log)")
                        })?);
                    }
                    other => return Err(format!("unknown flag {other:?}")),
                }
            }
            run_experiment(&id, &opts)
        }
        Some(other) => Err(format!("unknown command {other:?}")),
        None => Err("missing command".into()),
    }
}

fn grid_command(it: &mut std::slice::Iter<'_, String>) -> Result<(), String> {
    use pgrid_core::{BuildOptions, Ctx, GridSnapshot, PGrid, PGridConfig};
    use pgrid_net::{AlwaysOnline, BernoulliOnline, NetStats};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    let sub = it
        .next()
        .ok_or("grid needs a subcommand (build|info|query)")?;
    let mut flags = std::collections::HashMap::new();
    let mut key_iter = it.clone();
    while let Some(flag) = key_iter.next() {
        let name = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("expected a flag, got {flag:?}"))?;
        let value = key_iter
            .next()
            .ok_or_else(|| format!("--{name} needs a value"))?;
        flags.insert(name.to_string(), value.clone());
    }
    let get_usize = |name: &str, default: usize| -> Result<usize, String> {
        flags
            .get(name)
            .map(|v| v.parse().map_err(|_| format!("bad --{name} {v:?}")))
            .unwrap_or(Ok(default))
    };
    let get_u64 = |name: &str, default: u64| -> Result<u64, String> {
        flags
            .get(name)
            .map(|v| v.parse().map_err(|_| format!("bad --{name} {v:?}")))
            .unwrap_or(Ok(default))
    };

    match sub.as_str() {
        "build" => {
            let n = get_usize("n", 1000)?;
            let maxl = get_usize("maxl", 6)?;
            let refmax = get_usize("refmax", 4)?;
            let seed = get_u64("seed", 42)?;
            let out_path = flags.get("out").ok_or("build needs --out FILE")?;
            let mut rng = StdRng::seed_from_u64(seed);
            let mut online = AlwaysOnline;
            let mut stats = NetStats::new();
            let mut ctx = Ctx::new(&mut rng, &mut online, &mut stats);
            let mut grid = PGrid::new(
                n,
                PGridConfig {
                    maxl,
                    refmax,
                    ..PGridConfig::default()
                },
            );
            let report = grid.build(&BuildOptions::default(), &mut ctx);
            let snapshot = GridSnapshot::capture(&grid);
            std::fs::write(out_path, snapshot.to_json()).map_err(|e| e.to_string())?;
            out(&format!(
                "built {n} peers to avg depth {:.2} in {} exchanges; saved to {out_path}",
                report.avg_path_len, report.exchange_calls
            ));
            Ok(())
        }
        "info" => {
            let path = flags.get("grid").ok_or("info needs --grid FILE")?;
            let json = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
            let snapshot = GridSnapshot::from_json(&json)?;
            let grid = snapshot.restore()?;
            let metrics = pgrid_core::GridMetrics::capture(&grid);
            out(&format!(
                "{} peers, maxl {}, refmax {}",
                grid.len(),
                grid.config().maxl,
                grid.config().refmax
            ));
            out(&format!(
                "avg path length {:.2}, {} distinct paths, mean replicas {:.2}, {:.1} refs/peer",
                metrics.avg_path_len,
                metrics.distinct_paths,
                metrics.mean_replicas,
                metrics.avg_refs_per_peer
            ));
            Ok(())
        }
        "query" => {
            let path = flags.get("grid").ok_or("query needs --grid FILE")?;
            let key: pgrid_keys::BitPath = flags
                .get("key")
                .ok_or("query needs --key BITS")?
                .parse()
                .map_err(|e| format!("bad key: {e}"))?;
            let seed = get_u64("seed", 7)?;
            let p: f64 = flags
                .get("p-online")
                .map(|v| v.parse().map_err(|_| format!("bad --p-online {v:?}")))
                .unwrap_or(Ok(1.0))?;
            let json = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
            let grid = GridSnapshot::from_json(&json)?.restore()?;
            let mut rng = StdRng::seed_from_u64(seed);
            let mut stats = NetStats::new();
            let outcome = if (p - 1.0).abs() < f64::EPSILON {
                let mut online = AlwaysOnline;
                let mut ctx = Ctx::new(&mut rng, &mut online, &mut stats);
                let start = grid.random_peer(&mut ctx);
                grid.search_entries(start, &key, &mut ctx)
            } else {
                let mut online = BernoulliOnline::new(p);
                let mut ctx = Ctx::new(&mut rng, &mut online, &mut stats);
                let start = grid.random_peer(&mut ctx);
                grid.search_entries(start, &key, &mut ctx)
            };
            match outcome.0.responsible {
                Some(peer) => out(&format!(
                    "{key} -> {peer} (path {}) in {} messages; {} index entries",
                    grid.peer(peer).path(),
                    outcome.0.messages,
                    outcome.1.len()
                )),
                None => out(&format!(
                    "{key} -> no route (all referenced peers offline?)"
                )),
            }
            Ok(())
        }
        other => Err(format!("unknown grid subcommand {other:?}")),
    }
}

/// The flight-recorder toolbox: `record` builds a grid and runs a query
/// plan with the recorder attached, writing the merged JSONL trace and
/// cross-checking its replay against the live `NetStats`; `replay` turns a
/// trace file back into per-phase tallies and query hop chains; `diff`
/// pinpoints the first divergent event between two traces.
fn trace_command(it: &mut std::slice::Iter<'_, String>) -> Result<(), String> {
    use pgrid_core::{BuildOptions, Ctx, PGrid, PGridConfig};
    use pgrid_net::{AlwaysOnline, BernoulliOnline, MsgKind, NetStats};
    use pgrid_sim::{run_query_plan_traced, QueryPlan};
    use pgrid_trace::{encode_line, first_divergence, merge_shards, summarize, MsgTag, RingTracer};

    let sub = it
        .next()
        .ok_or("trace needs a subcommand (record|replay|diff)")?;
    let mut flags = std::collections::HashMap::new();
    let mut key_iter = it.clone();
    while let Some(flag) = key_iter.next() {
        let name = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("expected a flag, got {flag:?}"))?;
        let value = key_iter
            .next()
            .ok_or_else(|| format!("--{name} needs a value"))?;
        flags.insert(name.to_string(), value.clone());
    }
    let get_usize = |name: &str, default: usize| -> Result<usize, String> {
        flags
            .get(name)
            .map(|v| v.parse().map_err(|_| format!("bad --{name} {v:?}")))
            .unwrap_or(Ok(default))
    };
    let get_u64 = |name: &str, default: u64| -> Result<u64, String> {
        flags
            .get(name)
            .map(|v| v.parse().map_err(|_| format!("bad --{name} {v:?}")))
            .unwrap_or(Ok(default))
    };
    let read_lines = |name: &str| -> Result<Vec<String>, String> {
        let path = flags
            .get(name)
            .ok_or_else(|| format!("{sub} needs --{name} FILE"))?;
        Ok(std::fs::read_to_string(path)
            .map_err(|e| format!("{path}: {e}"))?
            .lines()
            .map(str::to_string)
            .collect())
    };

    match sub.as_str() {
        "record" => {
            let n = get_usize("n", 256)?;
            let maxl = get_usize("maxl", 5)?;
            let queries = get_usize("queries", 200)?;
            let shards = get_u64("shards", 4)?;
            let threads = get_usize("threads", 1)?;
            let seed = get_u64("seed", 42)?;
            let p: f64 = flags
                .get("p-online")
                .map(|v| v.parse().map_err(|_| format!("bad --p-online {v:?}")))
                .unwrap_or(Ok(1.0))?;
            let out_path = flags.get("out").ok_or("record needs --out FILE")?;

            // Phase 1: construction, under a recorder big enough to never
            // drop (a drop would fail the reconciliation below).
            let mut owned = Ctx::fork_for_task(seed, 0, Box::new(AlwaysOnline));
            owned.set_tracer(Box::new(RingTracer::new(1 << 22)));
            let mut grid = PGrid::new(
                n,
                PGridConfig {
                    maxl,
                    ..PGridConfig::default()
                },
            );
            grid.build(&BuildOptions::default(), &mut owned.ctx());
            let build_events = owned.take_trace_events();

            // Phase 2: the query plan, recorded per shard and merged in
            // task order by the engine.
            let plan = QueryPlan {
                queries,
                key_len: maxl as u8,
                shards,
            };
            let (outcome, query_events) = if (p - 1.0).abs() < f64::EPSILON {
                run_query_plan_traced(&grid, &plan, seed, &AlwaysOnline, threads, 1 << 20)
            } else {
                let online = BernoulliOnline::new(p);
                run_query_plan_traced(&grid, &plan, seed, &online, threads, 1 << 20)
            };

            let events = merge_shards(vec![build_events, query_events]);
            let lines: Vec<String> = events.iter().map(encode_line).collect();
            std::fs::write(out_path, lines.join("\n") + "\n")
                .map_err(|e| format!("{out_path}: {e}"))?;

            // Replay the file we just wrote and reconcile against the live
            // counters — per kind, exactly.
            let summary = summarize(&lines)?;
            let mut total = NetStats::new();
            total.merge(&owned.stats);
            total.merge(&outcome.stats);
            for kind in [
                MsgKind::Exchange,
                MsgKind::Query,
                MsgKind::Update,
                MsgKind::Flood,
                MsgKind::Control,
            ] {
                let tag: MsgTag = kind.into();
                let counted = total.count(kind);
                let traced = summary.count(tag);
                if counted != traced {
                    return Err(format!(
                        "reconciliation FAILED for {}: NetStats counted {counted}, \
                         trace replay tallied {traced}",
                        tag.name()
                    ));
                }
            }
            out(&format!(
                "recorded {} events to {out_path}; replay reconciles with NetStats \
                 (exchange {}, query {}, update {}); {} queries",
                lines.len(),
                total.count(MsgKind::Exchange),
                total.count(MsgKind::Query),
                total.count(MsgKind::Update),
                summary.queries.len(),
            ));
            Ok(())
        }
        "replay" => {
            let lines = read_lines("in")?;
            let chains = get_usize("chains", 5)?;
            let summary = summarize(&lines)?;
            out(&format!(
                "{} events: exchange {}, query {}, update {}, flood {}, control {}",
                summary.events,
                summary.count(MsgTag::Exchange),
                summary.count(MsgTag::Query),
                summary.count(MsgTag::Update),
                summary.count(MsgTag::Flood),
                summary.count(MsgTag::Control),
            ));
            if !summary.exchange_cases.is_empty() {
                let cases: Vec<String> = summary
                    .exchange_cases
                    .iter()
                    .map(|(name, count)| format!("{name} {count}"))
                    .collect();
                out(&format!("exchange cases: {}", cases.join(", ")));
            }
            out(&format!(
                "retransmits {}, timeouts {}, evictions {}",
                summary.retransmits, summary.timeouts, summary.evictions
            ));
            for chain in summary.queries.iter().take(chains) {
                let hops: Vec<String> = chain
                    .hops
                    .iter()
                    .map(|(from, to, depth)| format!("{from}->{to}@{depth}"))
                    .collect();
                out(&format!(
                    "query key={} start={} [{}] => {} ({} msgs, {} hops)",
                    chain.key,
                    chain.start,
                    hops.join(" "),
                    chain
                        .responsible
                        .map_or("no route".to_string(), |p| format!("peer {p}")),
                    chain.messages,
                    chain.hop_count,
                ));
            }
            if summary.queries.len() > chains {
                out(&format!(
                    "... and {} more query chains (raise --chains to see them)",
                    summary.queries.len() - chains
                ));
            }
            Ok(())
        }
        "diff" => {
            let a = read_lines("a")?;
            let b = read_lines("b")?;
            match first_divergence(&a, &b) {
                None => {
                    out(&format!("traces identical ({} events)", a.len()));
                    Ok(())
                }
                Some((line, la, lb)) => {
                    out(&format!("first divergence at event {line}:"));
                    out(&format!("  a: {}", la.unwrap_or("<trace ended>")));
                    out(&format!("  b: {}", lb.unwrap_or("<trace ended>")));
                    Ok(())
                }
            }
        }
        other => Err(format!("unknown trace subcommand {other:?}")),
    }
}

/// Writes a line to stdout, exiting quietly when the pipe is closed
/// (`pgrid exp t1 | head` must not panic).
fn out(text: &str) {
    use std::io::Write;
    if writeln!(std::io::stdout(), "{text}").is_err() {
        std::process::exit(0);
    }
}

fn emit(table: &Table, format: Format) {
    match format {
        Format::Text => out(&table.render()),
        Format::Csv => out(table.to_csv().trim_end()),
        Format::Json => out(&table.to_json()),
        Format::Markdown => out(table.to_markdown().trim_end()),
    }
}

fn run_experiment(id: &str, opts: &Options) -> Result<(), String> {
    let small = opts.small;
    match id {
        "t1" => {
            let mut cfg = if small {
                t1::Config::small()
            } else {
                t1::Config::default()
            };
            if let Some(s) = opts.seed {
                cfg.seed = s;
            }
            emit(&t1::run(&cfg).1, opts.format);
        }
        "t2" => {
            let mut cfg = if small {
                t2::Config::small()
            } else {
                t2::Config::default()
            };
            if let Some(s) = opts.seed {
                cfg.seed = s;
            }
            emit(&t2::run(&cfg).1, opts.format);
        }
        "t3" => {
            let mut cfg = if small {
                t3::Config::small()
            } else {
                t3::Config::default()
            };
            if let Some(s) = opts.seed {
                cfg.seed = s;
            }
            emit(&t3::run(&cfg).1, opts.format);
        }
        "t3-extended" => {
            // The variant with divergence references enabled: the U-shape
            // flattens because recursion targets stay productive.
            let mut cfg = if small {
                t3::Config::small()
            } else {
                t3::Config::default()
            };
            cfg.divergence_refs = true;
            if let Some(s) = opts.seed {
                cfg.seed = s;
            }
            emit(&t3::run(&cfg).1, opts.format);
        }
        "t4" | "t5" | "t4t5" => {
            let mut cfg = if small {
                t4t5::Config::small()
            } else {
                t4t5::Config::default()
            };
            if let Some(s) = opts.seed {
                cfg.seed = s;
            }
            emit(&t4t5::run(&cfg).1, opts.format);
        }
        "f4" => {
            let mut cfg = if small {
                f4::Config::small()
            } else {
                f4::Config::default()
            };
            if let Some(s) = opts.seed {
                cfg.seed = s;
            }
            let (outcome, table, _) = f4::run(&cfg);
            emit(&table, opts.format);
            if opts.format == Format::Text {
                out(&format!(
                    "exchanges: {} ({:.1} per peer), avg depth {:.2}, mean replicas {:.2} (ideal {:.2}), per-key replicas {:.2}",
                    outcome.exchanges,
                    outcome.exchanges as f64 / cfg.n as f64,
                    outcome.avg_path_len,
                    outcome.mean_replicas,
                    outcome.ideal_replicas,
                    outcome.mean_key_replicas,
                ));
            }
        }
        "search" | "s52" => {
            let mut cfg = if small {
                s52_search::Config::small()
            } else {
                s52_search::Config::default()
            };
            if let Some(s) = opts.seed {
                cfg.grid.seed = s;
            }
            emit(&s52_search::run(&cfg).1, opts.format);
        }
        "f5" => {
            let mut cfg = if small {
                f5::Config::small()
            } else {
                f5::Config::default()
            };
            if let Some(s) = opts.seed {
                cfg.grid.seed = s;
            }
            emit(&f5::run(&cfg).1, opts.format);
        }
        "t6" => {
            let mut cfg = if small {
                t6::Config::small()
            } else {
                t6::Config::default()
            };
            if let Some(s) = opts.seed {
                cfg.grid.seed = s;
            }
            let (rows, table) = t6::run(&cfg);
            emit(&table, opts.format);
            if opts.format == Format::Text {
                if let Some((cheap, expensive, ratio)) = t6::break_even(&rows) {
                    out(&format!(
                        "break-even: repetitive({},{}) insert {:.0}/query {:.1} vs \
                         non-repetitive({},{}) insert {:.0}/query {:.1} -> the heavy \
                         configuration needs at least {ratio:.0} queries per update to \
                         break even (paper: ~160)",
                        cheap.recbreadth,
                        cheap.repetition,
                        cheap.insertion_cost,
                        cheap.query_cost,
                        expensive.recbreadth,
                        expensive.repetition,
                        expensive.insertion_cost,
                        expensive.query_cost,
                    ));
                }
            }
        }
        "scaling" | "s6" => {
            let mut cfg = if small {
                s6_scaling::Config::small()
            } else {
                s6_scaling::Config::default()
            };
            if let Some(s) = opts.seed {
                cfg.seed = s;
            }
            emit(&s6_scaling::run(&cfg).1, opts.format);
        }
        "flooding" => {
            let mut cfg = if small {
                flooding::Config::small()
            } else {
                flooding::Config::default()
            };
            if let Some(s) = opts.seed {
                cfg.seed = s;
            }
            emit(&flooding::run(&cfg).1, opts.format);
        }
        "sizing" => {
            emit(&sizing::run(&GridSizing::gnutella_example()), opts.format);
        }
        "skew" => {
            let mut cfg = if small {
                skew::Config::small()
            } else {
                skew::Config::default()
            };
            if let Some(s) = opts.seed {
                cfg.seed = s;
            }
            emit(&skew::run(&cfg).1, opts.format);
        }
        "balance" => {
            let mut cfg = if small {
                skew::AdaptConfig::small()
            } else {
                skew::AdaptConfig::default()
            };
            let mut fcfg = skew::FlashConfig::default();
            if let Some(s) = opts.seed {
                cfg.seed = s;
                fcfg.seed = s;
            }
            let (rows, table) = skew::run_adaptation(&cfg);
            emit(&table, opts.format);
            let (flash_rows, flash_table) = skew::run_flash_crowd(&fcfg);
            emit(&flash_table, opts.format);
            // Blocking acceptance gates (CI runs this experiment): the
            // balancer must reach its fixpoint below the 2x target, leave
            // a clean audit, and stay thread-count invariant.
            for r in &rows {
                if !r.converged {
                    return Err(format!("balance did not converge at skew {}", r.skew));
                }
                if r.imbalance_after > 2.0 + 1e-9 {
                    return Err(format!(
                        "skew {}: fixpoint imbalance {:.2} above the 2.0 target",
                        r.skew, r.imbalance_after
                    ));
                }
                if r.violations_after != 0 {
                    return Err(format!(
                        "skew {}: {} audit violations after balancing",
                        r.skew, r.violations_after
                    ));
                }
                if !r.thread_invariant {
                    return Err(format!(
                        "skew {}: probe workload not identical at 1 vs 4 threads",
                        r.skew
                    ));
                }
            }
            let (first, last) = (flash_rows.first(), flash_rows.last());
            if let (Some(f), Some(l)) = (first, last) {
                if l.replicas <= f.replicas {
                    return Err(format!(
                        "flash crowd: hot replica group did not grow ({} -> {})",
                        f.replicas, l.replicas
                    ));
                }
            }
        }
        "repair" => {
            let mut cfg = if small {
                repair::Config::small()
            } else {
                repair::Config::default()
            };
            if let Some(s) = opts.seed {
                cfg.seed = s;
            }
            emit(&repair::run(&cfg).1, opts.format);
        }
        "selfstab" => {
            let mut cfg = if small {
                selfstab::Config::small()
            } else {
                selfstab::Config::default()
            };
            if let Some(s) = opts.seed {
                cfg.seed = s;
            }
            emit(&selfstab::run(&cfg).1, opts.format);
        }
        "timeline" => {
            let mut cfg = if small {
                timeline::Config::small()
            } else {
                timeline::Config::default()
            };
            if let Some(s) = opts.seed {
                cfg.seed = s;
            }
            emit(&timeline::run(&cfg).1, opts.format);
        }
        "caching" => {
            let mut cfg = if small {
                caching::Config::small()
            } else {
                caching::Config::default()
            };
            if let Some(s) = opts.seed {
                cfg.seed = s;
            }
            emit(&caching::run(&cfg).1, opts.format);
        }
        "latency" => {
            let mut cfg = if small {
                latency::Config::small()
            } else {
                latency::Config::default()
            };
            if let Some(s) = opts.seed {
                cfg.seed = s;
            }
            emit(&latency::run(&cfg).1, opts.format);
        }
        "mixed" => {
            let mut cfg = if small {
                mixed::Config::small()
            } else {
                mixed::Config::default()
            };
            if let Some(s) = opts.seed {
                cfg.seed = s;
            }
            emit(&mixed::run(&cfg).1, opts.format);
        }
        "variance" => {
            let mut cfg = if small {
                variance::Config::small()
            } else {
                variance::Config::default()
            };
            if let Some(s) = opts.seed {
                cfg.base.seed = s;
            }
            emit(&variance::run(&cfg).1, opts.format);
        }
        "ablation" => {
            let mut cfg = if small {
                ablation::Config::small()
            } else {
                ablation::Config::default()
            };
            if let Some(s) = opts.seed {
                cfg.seed = s;
            }
            emit(&ablation::run(&cfg).1, opts.format);
        }
        "engine" => {
            let mut cfg = if small {
                engine::Config::small()
            } else {
                engine::Config::default()
            };
            if let Some(s) = opts.seed {
                cfg.seed = s;
            }
            emit(&engine::run(&cfg).1, opts.format);
        }
        "store" => {
            let mut cfg = if small {
                store::Config::small()
            } else {
                store::Config::default()
            };
            if let Some(s) = opts.seed {
                cfg.seed = s;
            }
            if let Some(kind) = opts.backend {
                cfg.backends = vec![kind];
            }
            emit(&store::run(&cfg).1, opts.format);
        }
        "all" => {
            for id in [
                "t1", "t2", "t3", "t4", "f4", "search", "f5", "t6", "scaling", "flooding",
                "sizing", "skew", "balance", "repair", "selfstab", "timeline", "caching",
                "latency", "variance", "mixed", "ablation",
            ] {
                run_experiment(id, opts)?;
            }
        }
        other => return Err(format!("unknown experiment {other:?}")),
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn rejects_unknown_commands_and_flags() {
        assert!(run(&args(&["frobnicate"])).is_err());
        assert!(run(&args(&[])).is_err());
        assert!(run(&args(&["exp"])).is_err());
        assert!(run(&args(&["exp", "nope"])).is_err());
        assert!(run(&args(&["exp", "sizing", "--wat"])).is_err());
        assert!(run(&args(&["exp", "sizing", "--seed", "abc"])).is_err());
        assert!(run(&args(&["exp", "store", "--backend"])).is_err());
        assert!(run(&args(&["exp", "store", "--backend", "flash"])).is_err());
    }

    #[test]
    fn sizing_runs_instantly() {
        assert!(run(&args(&["exp", "sizing"])).is_ok());
        assert!(run(&args(&["exp", "sizing", "--csv"])).is_ok());
        assert!(run(&args(&["exp", "sizing", "--json"])).is_ok());
        assert!(run(&args(&["exp", "sizing", "--md"])).is_ok());
        assert!(run(&args(&["list"])).is_ok());
    }

    #[test]
    fn small_experiment_with_explicit_seed() {
        assert!(run(&args(&["exp", "t3", "--small", "--seed", "5"])).is_ok());
    }

    #[test]
    fn store_experiment_accepts_backend_filter() {
        for backend in ["memory", "hashfile", "log"] {
            assert!(run(&args(&["exp", "store", "--small", "--backend", backend])).is_ok());
        }
    }

    #[test]
    fn trace_lifecycle_record_replay_diff() {
        let dir = std::env::temp_dir();
        let a = dir.join(format!("pgrid-trace-a-{}.jsonl", std::process::id()));
        let b = dir.join(format!("pgrid-trace-b-{}.jsonl", std::process::id()));
        let a_s = a.to_str().unwrap();
        let b_s = b.to_str().unwrap();
        // record reconciles internally (it errors on any stats mismatch).
        assert!(run(&args(&[
            "trace",
            "record",
            "--n",
            "64",
            "--maxl",
            "4",
            "--queries",
            "40",
            "--shards",
            "2",
            "--seed",
            "11",
            "--out",
            a_s
        ]))
        .is_ok());
        // A different seed records a different trace; diff must find the
        // first divergent event. The same seed must byte-match.
        assert!(run(&args(&[
            "trace",
            "record",
            "--n",
            "64",
            "--maxl",
            "4",
            "--queries",
            "40",
            "--shards",
            "2",
            "--seed",
            "12",
            "--out",
            b_s
        ]))
        .is_ok());
        assert!(run(&args(&["trace", "replay", "--in", a_s])).is_ok());
        assert!(run(&args(&["trace", "diff", "--a", a_s, "--b", b_s])).is_ok());
        let first = std::fs::read_to_string(&a).unwrap();
        assert!(run(&args(&[
            "trace",
            "record",
            "--n",
            "64",
            "--maxl",
            "4",
            "--queries",
            "40",
            "--shards",
            "2",
            "--seed",
            "11",
            "--out",
            b_s
        ]))
        .is_ok());
        let again = std::fs::read_to_string(&b).unwrap();
        assert_eq!(first, again, "same seed must record byte-identical traces");
        assert!(run(&args(&["trace", "replay", "--in", "/definitely/missing"])).is_err());
        assert!(run(&args(&["trace", "nonsense"])).is_err());
        assert!(
            run(&args(&["trace", "record", "--n", "64"])).is_err(),
            "missing --out"
        );
        std::fs::remove_file(&a).unwrap();
        std::fs::remove_file(&b).unwrap();
    }

    #[test]
    fn grid_lifecycle_build_info_query() {
        let path = std::env::temp_dir().join(format!("pgrid-cli-test-{}.json", std::process::id()));
        let path_s = path.to_str().unwrap();
        assert!(run(&args(&[
            "grid", "build", "--n", "64", "--maxl", "4", "--out", path_s
        ]))
        .is_ok());
        assert!(run(&args(&["grid", "info", "--grid", path_s])).is_ok());
        assert!(run(&args(&["grid", "query", "--grid", path_s, "--key", "0110"])).is_ok());
        assert!(run(&args(&["grid", "query", "--grid", path_s, "--key", "01x2"])).is_err());
        assert!(run(&args(&[
            "grid",
            "query",
            "--grid",
            "/definitely/missing",
            "--key",
            "01"
        ]))
        .is_err());
        assert!(run(&args(&["grid", "nonsense"])).is_err());
        assert!(
            run(&args(&["grid", "build", "--n", "64"])).is_err(),
            "missing --out"
        );
        std::fs::remove_file(&path).unwrap();
    }
}
