//! The virtual clock against itself: one seed, run twice, must give the
//! same community byte for byte.
//!
//! Each run is a [`SimCluster`] at `recmax 2` whose meetings are injected
//! in batches by [`Community::build`](pgrid::node::Community::build), so
//! exchange chains and their recursions run concurrently, then random
//! inserts and queries. This is the schedule threads make
//! nondeterministic; on the virtual clock the seeds alone fix it. The run
//! repeats clean and under each fault class — drop, duplicate, reorder,
//! delay — and all four mixed, and the two runs must agree on the snapshot
//! JSON, every answer and every fault counter.

use pgrid::keys::BitPath;
use pgrid::net::{NetStats, PeerId};
use pgrid::node::{ClusterConfig, FaultPlan, SimCluster};
use pgrid::wire::WireEntry;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

type Run = (String, Vec<Option<(PeerId, Vec<WireEntry>)>>, NetStats);

fn run(faults: Option<FaultPlan>) -> Run {
    let mut cluster = SimCluster::spawn(ClusterConfig {
        n: 16,
        maxl: 3,
        refmax: 2,
        recmax: 2,
        seed: 0xd1ce,
        faults,
        ..ClusterConfig::default()
    });
    for _ in 0..6 {
        cluster.build(48);
    }
    let mut rng = StdRng::seed_from_u64(0xd1ce);
    let keys: Vec<BitPath> = (0..24).map(|_| BitPath::random(&mut rng, 6)).collect();
    for (item, key) in keys.iter().enumerate() {
        let entry = WireEntry {
            item: item as u64,
            holder: PeerId(rng.gen_range(0..16)),
            version: 1,
        };
        cluster.insert(*key, entry);
    }
    cluster.settle();
    let answers = keys.iter().map(|key| cluster.query(key)).collect();
    let run = (
        cluster.to_snapshot().to_json(),
        answers,
        cluster.net_stats(),
    );
    cluster.shutdown();
    run
}

#[test]
fn same_seed_gives_identical_runs_clean_and_under_every_fault_class() {
    let plan = FaultPlan::new(0xfa17);
    let plans = [
        ("clean", None),
        ("drop", Some(plan.with_drop(0.1))),
        ("duplicate", Some(plan.with_duplicate(0.2))),
        ("reorder", Some(plan.with_reorder(0.2))),
        ("delay", Some(plan.with_delay(0.2, 20))),
        (
            "mixed",
            Some(
                plan.with_drop(0.05)
                    .with_duplicate(0.05)
                    .with_reorder(0.05)
                    .with_delay(0.05, 20),
            ),
        ),
    ];
    for (name, faults) in plans {
        let first = run(faults);
        let second = run(faults);
        let stats = &first.2;
        let injected = [
            stats.dropped,
            stats.duplicated,
            stats.reordered,
            stats.delayed,
        ];
        match name {
            "clean" => assert!(stats.is_fault_free(), "{name}: {stats:?}"),
            _ => assert!(injected.iter().any(|&n| n > 0), "{name}: no fault fired"),
        }
        assert!(
            first.1.iter().flatten().any(|(_, e)| !e.is_empty()),
            "{name}: no query returned data"
        );
        assert_eq!(first.0, second.0, "{name}: snapshots differ");
        assert_eq!(first.1, second.1, "{name}: answers differ");
        assert_eq!(first.2, second.2, "{name}: counters differ");
    }
}
