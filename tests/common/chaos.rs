//! The chaos scenario shared by `live_chaos.rs` (virtual clock) and
//! `tcp_chaos.rs` (sockets): the transport drops, duplicates, reorders, and
//! delays frames while a peer crashes and restarts — and the community
//! must still construct itself, keep its invariants, and answer queries at
//! a rate inside the paper's §4 analytical envelope.
//!
//! The envelope: §4 models search success as
//! `(1 − (1 − p)^refmax)^k` — at each of `k` levels at least one of
//! `refmax` references must respond. Here a reference "responds" when at
//! least one of the hop's bounded retransmissions survives the lossy link,
//! so `p = 1 − drop^attempts`; the client's `query_attempts` independent
//! randomized searches then compound as `1 − (1 − s₁)^attempts`.

use pgrid::core::search_success_probability;
use pgrid::keys::BitPath;
use pgrid::net::PeerId;
use pgrid::node::{ClusterConfig, Community, FaultPlan, Transport};
use pgrid::wire::WireEntry;

/// Injected per-frame drop probability (the acceptance bar is 30%).
const DROP: f64 = 0.30;
/// Hop transmissions before giving up — the node shell's `ACK_RETRY`.
const ACK_ATTEMPTS: i32 = 3;
const N: usize = 24;
const MAXL: usize = 3;
const REFMAX: usize = 3;
const QUERY_ATTEMPTS: usize = 4;

fn chaos_plan(seed: u64) -> FaultPlan {
    FaultPlan::new(seed)
        .with_drop(DROP)
        .with_duplicate(0.10)
        .with_reorder(0.10)
        // Delays stay below `ACK_RETRY`'s 60 ms base so latency alone never
        // masquerades as loss.
        .with_delay(0.10, 15)
}

/// §4 prediction for one client-level query (all attempts compounded).
fn predicted_success() -> f64 {
    let p_hop = 1.0 - DROP.powi(ACK_ATTEMPTS);
    let s1: f64 = search_success_probability(p_hop, REFMAX as u32, MAXL as u32);
    1.0 - (1.0 - s1).powi(QUERY_ATTEMPTS as i32)
}

/// One full chaos scenario: build under faults, query under faults, crash a
/// node (over sockets its connections die mid-stream), query through the
/// hole, restart it, query again. Returns the still-running community for
/// the caller's deployment-specific checks and shutdown.
pub fn chaos_run<T: Transport>(
    seed: u64,
    spawn: impl FnOnce(ClusterConfig) -> Community<T>,
) -> Community<T> {
    let mut cluster = spawn(ClusterConfig {
        n: N,
        maxl: MAXL,
        refmax: REFMAX,
        seed,
        query_attempts: QUERY_ATTEMPTS,
        faults: Some(chaos_plan(seed)),
        ..ClusterConfig::default()
    });

    // Construction runs entirely on the faulty links.
    for _ in 0..40 {
        cluster.build(120);
        if cluster.avg_path_len() >= 2.6 {
            break;
        }
    }
    assert!(
        cluster.avg_path_len() >= 2.2,
        "construction must converge under {DROP} drop: avg = {}",
        cluster.avg_path_len()
    );
    cluster.check_invariants().unwrap();

    let key = BitPath::from_str_lossy("011");
    let entry = WireEntry {
        item: 77,
        holder: PeerId(1),
        version: 1,
    };
    cluster.seed_index(key, entry);

    // Crash victim: a node that is NOT responsible for the queried key, so
    // the data plane survives its absence (crashing the last replica would
    // make failure the correct answer, not a robustness defect).
    let victim = cluster
        .paths()
        .into_iter()
        .find(|(_, path)| path.starts_with('1'))
        .map(|(id, _)| id)
        .expect("a converged trie populates both sides of the root");

    let mut hits = 0;
    let mut total = 0;
    let run_queries = |cluster: &mut Community<T>, n: usize, hits: &mut i32, total: &mut i32| {
        for _ in 0..n {
            *total += 1;
            if let Some((_, entries)) = cluster.query(&key) {
                if entries.contains(&entry) {
                    *hits += 1;
                }
            }
        }
    };

    run_queries(&mut cluster, 15, &mut hits, &mut total);

    // ≥1 crash/restart cycle, with live traffic through the hole.
    cluster.crash_node(victim);
    assert!(!cluster.live_nodes().contains(&victim));
    run_queries(&mut cluster, 10, &mut hits, &mut total);
    cluster.restart_node(victim);
    assert!(cluster.live_nodes().contains(&victim));
    // Reintegrate the reincarnated node (its durable state survived).
    cluster.build(60);
    cluster.check_invariants().unwrap();

    run_queries(&mut cluster, 15, &mut hits, &mut total);

    let measured = f64::from(hits) / f64::from(total);
    let predicted = predicted_success();
    assert!(
        measured + 0.10 >= predicted,
        "query success {measured:.3} ({hits}/{total}) must be within 10pp \
         of the §4 prediction {predicted:.3} (seed {seed})"
    );

    // The fault counters must actually show the injected chaos.
    let stats = cluster.net_stats();
    assert!(stats.dropped > 0, "injected drops must be counted: {stats}");
    assert!(
        stats.duplicated > 0,
        "injected duplicates must be counted: {stats}"
    );
    assert!(
        stats.retries > 0,
        "loss must have triggered retransmissions: {stats}"
    );
    cluster
}
