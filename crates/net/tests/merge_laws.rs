//! Algebraic laws of `NetStats::merge`: identity, commutativity, and
//! associativity over random counters, as seeded loops (case `c` draws from
//! `StdRng::seed_from_u64(c)`). Sharded experiment engines (and the sharded
//! trace merge that mirrors them) fold per-task counters in task order;
//! these laws are what make the fold's result independent of shard count
//! and grouping.

use pgrid_net::{MsgKind, NetStats};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const CASES: u64 = 256;

/// A `NetStats` with every counter random: the per-kind message counts
/// through `record`, every public counter directly. Public counters stay
/// below `u64::MAX / 4`, so even a three-way sum cannot overflow.
fn random_stats(rng: &mut StdRng) -> NetStats {
    let mut s = NetStats::new();
    for kind in [
        MsgKind::Exchange,
        MsgKind::Query,
        MsgKind::Update,
        MsgKind::Flood,
        MsgKind::Control,
    ] {
        for _ in 0..rng.gen_range(0..16) {
            s.record(kind);
        }
    }
    let mut counter = || rng.gen_range(0..=u64::MAX / 4);
    s.contact_attempts = counter();
    s.failed_contacts = counter();
    s.dropped = counter();
    s.duplicated = counter();
    s.reordered = counter();
    s.delayed = counter();
    s.retries = counter();
    s.timeouts = counter();
    s.malformed = counter();
    s.evictions = counter();
    s.violations_detected = counter();
    s.repairs_applied = counter();
    s.conn_established = counter();
    s.conn_lost = counter();
    s.writes_queued = counter();
    s.writes_shed = counter();
    s.partial_frames = counter();
    s.paths_extended = counter();
    s.paths_retracted = counter();
    s.entries_rebalanced = counter();
    s.load_max_over_mean_x1000 = counter();
    s
}

/// Runs `check` on three random counter sets per case.
fn for_each_case(check: impl Fn(u64, NetStats, NetStats, NetStats)) {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(case);
        let (a, b, c) = (
            random_stats(&mut rng),
            random_stats(&mut rng),
            random_stats(&mut rng),
        );
        check(case, a, b, c);
    }
}

#[test]
fn merge_identity() {
    for_each_case(|case, a, _, _| {
        let mut left = a.clone();
        left.merge(&NetStats::new());
        assert_eq!(left, a, "case {case}: a ⊕ 0 = a");
        let mut right = NetStats::new();
        right.merge(&a);
        assert_eq!(right, a, "case {case}: 0 ⊕ a = a");
    });
}

#[test]
fn merge_commutativity() {
    for_each_case(|case, a, b, _| {
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba, "case {case}: a ⊕ b = b ⊕ a");
    });
}

#[test]
fn merge_associativity() {
    for_each_case(|case, a, b, c| {
        // (a ⊕ b) ⊕ c
        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);
        // a ⊕ (b ⊕ c)
        let mut bc = b;
        bc.merge(&c);
        let mut right = a;
        right.merge(&bc);
        assert_eq!(left, right, "case {case}: (a ⊕ b) ⊕ c = a ⊕ (b ⊕ c)");
    });
}

#[test]
fn merge_agrees_with_add() {
    for_each_case(|case, a, b, _| {
        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(merged, a.clone() + b.clone(), "case {case}: merge = +");
        let summed: NetStats = [a, b].into_iter().sum();
        assert_eq!(merged, summed, "case {case}: merge = Sum");
    });
}
