//! Chaos testing of the live node stack **over real sockets**: the shared
//! scenario of `common/chaos.rs`, where the same deterministic `FaultPlan`
//! that torments the in-process transport in `live_chaos.rs` injects drop /
//! duplication / reordering / delay on the socket path — between frame
//! encode and socket write — while a peer crashes (its connections die
//! mid-stream) and restarts.
//!
//! On Linux the run additionally gates the event-loop promise: 24 peers
//! under chaos must not grow the process past `workers + constant` extra
//! OS threads.

#[path = "common/chaos.rs"]
mod chaos;

use pgrid::node::TcpCluster;

const WORKERS: usize = 2;

/// Current OS thread count of this process, from `/proc/self/status`.
/// Returns 0 where that interface does not exist (non-Linux).
fn os_thread_count() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(0)
}

fn chaos_run(seed: u64) {
    let baseline_threads = os_thread_count();
    let cluster = chaos::chaos_run(seed, |config| TcpCluster::spawn(config, WORKERS));

    // Real connections must have been made (and severed by the crash).
    let stats = cluster.net_stats();
    assert!(
        stats.conn_established > 0,
        "chaos ran over real sockets: {stats}"
    );

    // Event-loop promise under chaos: thread count is workers + constant,
    // never O(peers). Slack covers the test harness and sibling tests.
    if baseline_threads > 0 {
        let now = os_thread_count();
        assert!(
            now <= baseline_threads + (WORKERS as u64) + 8,
            "thread count must not scale with peers: baseline {baseline_threads}, now {now}"
        );
    }
    cluster.shutdown();
}

#[test]
fn tcp_chaos_seed_1() {
    chaos_run(0xC0A1);
}

#[test]
fn tcp_chaos_seed_2() {
    chaos_run(0xC0A2);
}

#[test]
fn tcp_chaos_seed_3() {
    chaos_run(0xC0A3);
}
