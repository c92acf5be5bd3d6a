//! `pgrid` — command-line runner for the P-Grid experiments.
//!
//! ```text
//! pgrid exp <id> [--small] [--seed S] [--csv | --json | --md]
//! pgrid list
//! ```
//!
//! `pgrid list` prints every command and every experiment id, read from
//! the one experiment table in this file (`EXPERIMENTS`). `--small` runs
//! the laptop-fast preset instead of the paper-scale one; `--csv`, `--json`
//! and `--md` switch the output format. `pgrid exp all` prints every
//! reproducible experiment as `results/all_experiments.txt` holds it.

use std::collections::HashMap;
use std::env;
use std::process::ExitCode;
use std::str::FromStr;

use pgrid_core::GridSizing;
use pgrid_net::{AlwaysOnline, BernoulliOnline, OnlineModel};
use pgrid_sim::experiments::{
    ablation, caching, engine, f4, f5, flooding, latency, mixed, repair, s52_search, s6_scaling,
    selfstab, sizing, skew, store, t1, t2, t3, t4t5, t6, timeline, variance,
};
use pgrid_sim::Table;
use pgrid_store::BackendKind;

#[derive(Clone, Copy, Default, PartialEq)]
enum Format {
    #[default]
    Text,
    Csv,
    Json,
    Markdown,
}

/// The flags of `pgrid exp`, handed to every experiment's runner.
#[derive(Default)]
struct Options {
    small: bool,
    seed: Option<u64>,
    format: Format,
    /// Restrict the `store` experiment to one backend (it measures all
    /// three by default). Ignored by the other experiments.
    backend: Option<BackendKind>,
}

impl Options {
    fn parse(args: &[String]) -> Result<Options, String> {
        let mut opts = Options::default();
        let mut it = args.iter();
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
        Ok(opts)
    }

    /// The laptop preset under `--small`, the paper-scale default otherwise.
    fn preset<C: Default>(&self, small: fn() -> C) -> C {
        if self.small {
            small()
        } else {
            C::default()
        }
    }
}

/// One `pgrid exp` entry. Every command that names experiments — `exp`,
/// `list`, `all` and the unknown-id error — reads [`EXPERIMENTS`].
struct Experiment {
    id: &'static str,
    aliases: &'static [&'static str],
    about: &'static str,
    /// Its table holds wall-clock rates, so it cannot be byte-compared:
    /// `exp all` (and so `results/all_experiments.txt`) leaves it out.
    timed: bool,
    run: Runner,
}

type Runner = fn(&Options) -> Result<(), String>;

const fn exp(
    id: &'static str,
    aliases: &'static [&'static str],
    about: &'static str,
    run: Runner,
) -> Experiment {
    Experiment {
        id,
        aliases,
        about,
        timed: false,
        run,
    }
}

const fn timed(e: Experiment) -> Experiment {
    Experiment { timed: true, ..e }
}

/// `$config`'s `--small` or default preset, with any `; field = value`
/// settings, and `--seed` written to `cfg.<seed path>`.
macro_rules! config {
    ($opts:ident, $config:path, $($seed:ident).+ $(; $field:ident = $value:expr)*) => {{
        let mut cfg = $opts.preset(<$config>::small);
        $(cfg.$field = $value;)*
        if let Some(s) = $opts.seed {
            cfg.$($seed).+ = s;
        }
        cfg
    }};
}

/// The runner of an experiment module whose `run(&Config)` returns its
/// table second: its configuration (see `config!`), then the table.
macro_rules! table {
    ($exp:ident . $($seed:ident).+ $(; $field:ident = $value:expr)*) => {
        |opts: &Options| {
            let cfg = config!(opts, $exp::Config, $($seed).+ $(; $field = $value)*);
            emit(&$exp::run(&cfg).1, opts.format);
            Ok(())
        }
    };
}

/// Every experiment, in `exp all` (and `results/all_experiments.txt`) order.
#[rustfmt::skip]
const EXPERIMENTS: &[Experiment] = &[
    exp("t1", &[], "construction cost vs community size", table!(t1.seed)),
    exp("t2", &[], "construction cost vs maximal path length", table!(t2.seed)),
    exp("t3", &[], "construction cost vs recursion depth", table!(t3.seed)),
    // Divergence references keep recursion targets productive: the U-shape flattens.
    exp("t3-extended", &[], "T3 with divergence references enabled",
        table!(t3.seed; divergence_refs = true)),
    exp("t4", &["t5", "t4t5"], "construction cost vs refmax (bounded and unbounded fan-out)",
        table!(t4t5.seed)),
    exp("f4", &[], "replica distribution of the big grid", run_f4),
    exp("search", &["s52"], "search reliability at 30% availability (section 5.2)",
        table!(s52_search.grid.seed)),
    exp("f5", &[], "fraction of replicas found vs messages (3 strategies)", table!(f5.grid.seed)),
    exp("t6", &[], "update/query cost tradeoff", run_t6),
    exp("scaling", &["s6"], "P-Grid vs central server (section 6)", table!(s6_scaling.seed)),
    exp("flooding", &[], "P-Grid vs Gnutella flooding", table!(flooding.seed)),
    exp("sizing", &[], "the section-4 Gnutella sizing example", |opts| {
        emit(&sizing::run(&GridSizing::gnutella_example()), opts.format);
        Ok(())
    }),
    exp("skew", &[], "index imbalance under skewed keys", table!(skew.seed)),
    exp("balance", &[], "skew adaptation to the balance fixpoint + flash-crowd replica scaling",
        run_balance),
    exp("repair", &[], "failure injection + self-repair of reference tables", table!(repair.seed)),
    exp("selfstab", &[], "corruption injection + self-stabilization to a clean audit",
        table!(selfstab.seed)),
    exp("timeline", &[], "event-driven construction under session churn", table!(timeline.seed)),
    exp("caching", &[], "client result caching under zipf query traffic", table!(caching.seed)),
    exp("latency", &[], "end-to-end search latency under delay models", table!(latency.seed)),
    exp("variance", &[], "T3 replicated over several seeds (mean +/- std)",
        table!(variance.base.seed)),
    exp("mixed", &[], "end-to-end mixed read/write workload (break-even, empirical)",
        table!(mixed.seed)),
    exp("ablation", &[], "design-knob ablations", table!(ablation.seed)),
    timed(exp("engine", &[], "engine throughput: serial vs threaded vs compact routing table",
        table!(engine.seed))),
    timed(exp("store", &[], "storage backend equivalence + throughput (--backend picks one)",
        run_store)),
];

fn run_f4(opts: &Options) -> Result<(), String> {
    let cfg = config!(opts, f4::Config, seed);
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
    Ok(())
}

fn run_t6(opts: &Options) -> Result<(), String> {
    let cfg = config!(opts, t6::Config, grid.seed);
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
    Ok(())
}

fn run_balance(opts: &Options) -> Result<(), String> {
    let cfg = config!(opts, skew::AdaptConfig, seed);
    let mut fcfg = skew::FlashConfig::default();
    if let Some(s) = opts.seed {
        fcfg.seed = s;
    }
    let (rows, table) = skew::run_adaptation(&cfg);
    emit(&table, opts.format);
    let (flash_rows, flash_table) = skew::run_flash_crowd(&fcfg);
    emit(&flash_table, opts.format);
    // Blocking acceptance gates (CI runs this experiment): the balancer
    // must reach its fixpoint below the 2x target, leave a clean audit,
    // and stay thread-count invariant.
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
    Ok(())
}

fn run_store(opts: &Options) -> Result<(), String> {
    let mut cfg = config!(opts, store::Config, seed);
    if let Some(kind) = opts.backend {
        cfg.backends = vec![kind];
    }
    emit(&store::run(&cfg).1, opts.format);
    Ok(())
}

/// The entry `id` names, by its id or an alias.
fn experiment(id: &str) -> Option<&'static Experiment> {
    EXPERIMENTS
        .iter()
        .find(|e| e.id == id || e.aliases.contains(&id))
}

fn run_experiment(id: &str, opts: &Options) -> Result<(), String> {
    if id == "all" {
        for e in EXPERIMENTS.iter().filter(|e| !e.timed) {
            out(&format!("== {} ==", e.id));
            (e.run)(opts)?;
            out("");
        }
        return Ok(());
    }
    let e = experiment(id).ok_or_else(|| format!("unknown experiment {id:?}"))?;
    (e.run)(opts)
}

fn main() -> ExitCode {
    let args: Vec<String> = env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!("{}", usage());
            ExitCode::FAILURE
        }
    }
}

fn usage() -> String {
    let mut text = String::from(
        "\
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
",
    );
    for e in EXPERIMENTS {
        text.push_str(&format!("  {:<9} {}\n", e.id, e.about));
    }
    text.push_str(
        "  all       the untimed experiments above, as results/all_experiments.txt holds them",
    );
    text
}

fn run(args: &[String]) -> Result<(), String> {
    let (command, rest) = args.split_first().ok_or("missing command")?;
    match command.as_str() {
        "list" => {
            out(&usage());
            Ok(())
        }
        "grid" => grid_command(rest),
        "trace" => trace_command(rest),
        "exp" => {
            let (id, flags) = rest.split_first().ok_or("missing experiment id")?;
            run_experiment(id, &Options::parse(flags)?)
        }
        other => Err(format!("unknown command {other:?}")),
    }
}

/// The `--name value` flags of `grid` and `trace`.
struct Flags(HashMap<String, String>);

impl Flags {
    fn parse(args: &[String]) -> Result<Flags, String> {
        let mut flags = HashMap::new();
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let name = flag
                .strip_prefix("--")
                .ok_or_else(|| format!("expected a flag, got {flag:?}"))?;
            let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
            flags.insert(name.to_string(), value.clone());
        }
        Ok(Flags(flags))
    }

    /// `--name` parsed, or `default` when it is absent.
    fn get<T: FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        self.0.get(name).map_or(Ok(default), |v| {
            v.parse().map_err(|_| format!("bad --{name} {v:?}"))
        })
    }

    /// `--name`, which `sub` cannot run without.
    fn required(&self, sub: &str, name: &str, what: &str) -> Result<&str, String> {
        self.0
            .get(name)
            .map(String::as_str)
            .ok_or_else(|| format!("{sub} needs --{name} {what}"))
    }

    /// The availability model `--p-online` names: every peer online at the
    /// default 1.0, independent Bernoulli draws below it.
    fn online(&self) -> Result<Box<dyn OnlineModel>, String> {
        let p: f64 = self.get("p-online", 1.0)?;
        Ok(if (p - 1.0).abs() < f64::EPSILON {
            Box::new(AlwaysOnline)
        } else {
            Box::new(BernoulliOnline::new(p))
        })
    }
}

fn grid_command(args: &[String]) -> Result<(), String> {
    use pgrid_core::{BuildOptions, Ctx, GridSnapshot, PGrid, PGridConfig};
    use pgrid_net::NetStats;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    let (sub, rest) = args
        .split_first()
        .ok_or("grid needs a subcommand (build|info|query)")?;
    let flags = Flags::parse(rest)?;

    match sub.as_str() {
        "build" => {
            let n = flags.get("n", 1000)?;
            let maxl = flags.get("maxl", 6)?;
            let refmax = flags.get("refmax", 4)?;
            let seed = flags.get("seed", 42)?;
            let out_path = flags.required(sub, "out", "FILE")?;
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
            let path = flags.required(sub, "grid", "FILE")?;
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
            let path = flags.required(sub, "grid", "FILE")?;
            let key: pgrid_keys::BitPath = flags
                .required(sub, "key", "BITS")?
                .parse()
                .map_err(|e| format!("bad key: {e}"))?;
            let seed = flags.get("seed", 7)?;
            let mut online = flags.online()?;
            let json = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
            let grid = GridSnapshot::from_json(&json)?.restore()?;
            let mut rng = StdRng::seed_from_u64(seed);
            let mut stats = NetStats::new();
            let mut ctx = Ctx::new(&mut rng, &mut *online, &mut stats);
            let start = grid.random_peer(&mut ctx);
            let outcome = grid.search_entries(start, &key, &mut ctx);
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
fn trace_command(args: &[String]) -> Result<(), String> {
    use pgrid_core::{BuildOptions, Ctx, PGrid, PGridConfig};
    use pgrid_net::{MsgKind, NetStats};
    use pgrid_sim::{run_query_plan_traced, QueryPlan};
    use pgrid_trace::{encode_line, first_divergence, merge_shards, summarize, MsgTag, RingTracer};

    let (sub, rest) = args
        .split_first()
        .ok_or("trace needs a subcommand (record|replay|diff)")?;
    let flags = Flags::parse(rest)?;
    let read_lines = |name: &str| -> Result<Vec<String>, String> {
        let path = flags.required(sub, name, "FILE")?;
        Ok(std::fs::read_to_string(path)
            .map_err(|e| format!("{path}: {e}"))?
            .lines()
            .map(str::to_string)
            .collect())
    };

    match sub.as_str() {
        "record" => {
            let n = flags.get("n", 256)?;
            let maxl: usize = flags.get("maxl", 5)?;
            let queries = flags.get("queries", 200)?;
            let shards = flags.get("shards", 4)?;
            let threads = flags.get("threads", 1)?;
            let seed = flags.get("seed", 42)?;
            let online = flags.online()?;
            let out_path = flags.required(sub, "out", "FILE")?;

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
            let (outcome, query_events) =
                run_query_plan_traced(&grid, &plan, seed, &*online, threads, 1 << 20);

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
            for tag in MsgTag::ALL {
                let counted = total.count(tag.into());
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
            let chains = flags.get("chains", 5)?;
            let summary = summarize(&lines)?;
            let counts = MsgTag::ALL.map(|tag| format!("{} {}", tag.name(), summary.count(tag)));
            out(&format!("{} events: {}", summary.events, counts.join(", ")));
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
    fn experiment_registry_is_consistent() {
        let mut names = std::collections::HashSet::new();
        for e in EXPERIMENTS {
            for name in std::iter::once(&e.id).chain(e.aliases) {
                assert!(names.insert(*name), "{name} is declared twice");
                assert_eq!(experiment(name).map(|found| found.id), Some(e.id));
            }
            assert!(
                usage().contains(&format!("\n  {:<9} {}\n", e.id, e.about)),
                "pgrid list misses {}",
                e.id
            );
        }
        assert!(!names.contains("all"), "`all` is reserved");
        assert!(experiment("t7").is_none());
        assert_eq!(
            run(&args(&["exp", "t7"])),
            Err("unknown experiment \"t7\"".to_string())
        );
        // Drives every untimed entry through the CLI.
        assert!(run(&args(&["exp", "all", "--small"])).is_ok());
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
