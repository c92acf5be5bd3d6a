//! Property tests of the P-Grid protocols, as seeded loops: the structural
//! invariants survive *arbitrary* meeting schedules, search never lies, and
//! the exchange accounting is exact. Case `c` draws its scenario from
//! `StdRng::seed_from_u64(c)`, so a failure names its seed.

use pgrid_core::{BuildOptions, Ctx, GridSnapshot, IndexEntry, PGrid, PGridConfig};
use pgrid_keys::BitPath;
use pgrid_net::{AlwaysOnline, BernoulliOnline, MsgKind, NetStats, PeerId};
use pgrid_store::{ItemId, Version};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Cases of the meeting-schedule properties; the built-grid ones run 8.
const CASES: u64 = 48;

/// A compact description of a randomized scenario.
#[derive(Debug, Clone)]
struct Scenario {
    n: usize,
    maxl: usize,
    refmax: usize,
    recmax: u32,
    meetings: Vec<(u8, u8)>,
    seed: u64,
}

fn scenario(rng: &mut StdRng) -> Scenario {
    Scenario {
        n: rng.gen_range(4..24),
        maxl: rng.gen_range(1..5),
        refmax: rng.gen_range(1..4),
        recmax: rng.gen_range(0..3),
        meetings: (0..rng.gen_range(1..120))
            .map(|_| (rng.gen(), rng.gen()))
            .collect(),
        seed: rng.gen(),
    }
}

/// Runs `check` on each case's scenario and generator.
fn for_each_scenario(mut check: impl FnMut(u64, Scenario, &mut StdRng)) {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(case);
        let s = scenario(&mut rng);
        check(case, s, &mut rng);
    }
}

fn run_meetings(s: &Scenario, divergence_refs: bool) -> (PGrid, NetStats, u64) {
    let mut grid = PGrid::new(
        s.n,
        PGridConfig {
            maxl: s.maxl,
            refmax: s.refmax,
            recmax: s.recmax,
            add_ref_on_divergence: divergence_refs,
            ..PGridConfig::default()
        },
    );
    let mut rng = StdRng::seed_from_u64(s.seed);
    let mut online = AlwaysOnline;
    let mut stats = NetStats::new();
    let mut ctx = Ctx::new(&mut rng, &mut online, &mut stats);
    let mut calls = 0u64;
    for &(a, b) in &s.meetings {
        let i = PeerId((a as usize % s.n) as u32);
        let j = PeerId((b as usize % s.n) as u32);
        if i != j {
            calls += grid.exchange(i, j, &mut ctx);
        }
    }
    (grid, stats, calls)
}

#[test]
fn invariants_survive_any_meeting_schedule() {
    for_each_scenario(|case, s, _| {
        let (grid, _, _) = run_meetings(&s, true);
        assert!(
            grid.check_invariants().is_ok(),
            "case {case}: {:?}",
            grid.check_invariants()
        );
        let (grid, _, _) = run_meetings(&s, false);
        assert!(
            grid.check_invariants().is_ok(),
            "case {case}: {:?}",
            grid.check_invariants()
        );
    });
}

#[test]
fn exchange_accounting_is_exact() {
    for_each_scenario(|case, s, _| {
        let (_, stats, calls) = run_meetings(&s, true);
        assert_eq!(calls, stats.count(MsgKind::Exchange), "case {case}");
    });
}

/// A search from peer 0 for `key_bits` is sound and counts its messages.
fn check_search(case: u64, s: &Scenario, key_bits: u128) {
    let (grid, _, _) = run_meetings(s, true);
    let key = BitPath::from_raw(key_bits, s.maxl as u8);
    let mut rng = StdRng::seed_from_u64(s.seed ^ 1);
    let mut online = AlwaysOnline;
    let mut stats = NetStats::new();
    let out = {
        let mut ctx = Ctx::new(&mut rng, &mut online, &mut stats);
        grid.search(PeerId(0), &key, &mut ctx)
    };
    // Soundness: a returned peer is really responsible.
    if let Some(peer) = out.responsible {
        assert!(grid.peer(peer).responsible_for(&key), "case {case}");
    }
    // Accounting: outcome.messages equals the recorded query messages.
    assert_eq!(out.messages, stats.count(MsgKind::Query), "case {case}");
}

#[test]
fn search_is_sound_and_counts_messages() {
    for_each_scenario(|case, s, rng| check_search(case, &s, rng.gen()));
}

#[test]
fn search_never_overcounts_under_churn() {
    for_each_scenario(|case, s, rng| {
        let p = rng.gen_range(0.05..0.95);
        let (grid, _, _) = run_meetings(&s, true);
        let mut rng = StdRng::seed_from_u64(s.seed ^ 2);
        let mut online = BernoulliOnline::new(p);
        let mut stats = NetStats::new();
        let mut ctx = Ctx::new(&mut rng, &mut online, &mut stats);
        let key = BitPath::from_raw(s.seed as u128, s.maxl as u8);
        let out = grid.search(PeerId(0), &key, &mut ctx);
        assert_eq!(out.messages, stats.count(MsgKind::Query), "case {case}");
        assert!(
            stats.failed_contacts <= stats.contact_attempts,
            "case {case}"
        );
    });
}

/// An entry seeded before the meetings survives them at responsible peers.
fn check_seeded_entry(case: u64, s: &Scenario, key_bits: u128) {
    // Seed an entry BEFORE the meetings: the construction-time data
    // hand-off must keep every copy at a peer that is (still)
    // responsible, and at least one copy must survive.
    let key = BitPath::from_raw(key_bits, 8);
    let mut grid = PGrid::new(
        s.n,
        PGridConfig {
            maxl: s.maxl,
            refmax: s.refmax,
            recmax: s.recmax,
            ..PGridConfig::default()
        },
    );
    let entry = IndexEntry {
        item: ItemId(1),
        holder: PeerId(0),
        version: Version(0),
    };
    grid.seed_index(key, entry);
    let mut rng = StdRng::seed_from_u64(s.seed);
    let mut online = AlwaysOnline;
    let mut stats = NetStats::new();
    let mut ctx = Ctx::new(&mut rng, &mut online, &mut stats);
    for &(a, b) in &s.meetings {
        let i = PeerId((a as usize % s.n) as u32);
        let j = PeerId((b as usize % s.n) as u32);
        if i != j {
            grid.exchange(i, j, &mut ctx);
        }
    }
    let holders: Vec<PeerId> = grid
        .peers()
        .filter(|p| !p.index_lookup(&key).is_empty())
        .map(|p| p.id())
        .collect();
    assert!(!holders.is_empty(), "case {case}: the entry vanished");
    for h in holders {
        // A holder is either responsible, or explicitly flagged as
        // carrying misplaced entries awaiting anti-entropy (possible
        // when a Case-2/3 hand-off found no responsible partner).
        assert!(
            grid.peer(h).responsible_for(&key) || grid.peer(h).has_misplaced(),
            "case {case}: peer {h} silently holds an entry outside its responsibility"
        );
    }
}

#[test]
fn seeded_entries_remain_at_responsible_peers_after_meetings() {
    for_each_scenario(|case, s, rng| check_seeded_entry(case, &s, rng.gen()));
}

/// A schedule that once failed, kept as a fixed case (reported as case
/// `u64::MAX`).
#[test]
fn pinned_schedule_regression() {
    let s = Scenario {
        n: 16,
        maxl: 2,
        refmax: 1,
        recmax: 0,
        meetings: vec![(241, 4), (168, 2), (56, 1), (3, 56)],
        seed: 0,
    };
    let key_bits = 85_070_591_730_282_686_664_373_939_227_423_004_938;
    check_search(u64::MAX, &s, key_bits);
    check_seeded_entry(u64::MAX, &s, key_bits);
}

#[test]
fn anti_entropy_rehomes_misplaced_entries() {
    for case in 0..CASES {
        let seed = case;
        // After seeding data into a half-built grid and then running plenty
        // of further random meetings, the overwhelming majority of entries
        // must sit at responsible peers.
        let n = 64;
        let mut grid = PGrid::new(
            n,
            PGridConfig {
                maxl: 4,
                refmax: 2,
                ..PGridConfig::default()
            },
        );
        let mut rng = StdRng::seed_from_u64(seed);
        let mut online = AlwaysOnline;
        let mut stats = NetStats::new();
        let mut ctx = Ctx::new(&mut rng, &mut online, &mut stats);
        // Phase 1: partial construction.
        for _ in 0..n * 2 {
            let (i, j) = grid.random_pair(&mut ctx);
            grid.exchange(i, j, &mut ctx);
        }
        // Seed entries for several keys at the (partially built) grid.
        let keys: Vec<BitPath> = (0..8u128)
            .map(|v| BitPath::from_value(v * 31 % 256, 8))
            .collect();
        for (i, key) in keys.iter().enumerate() {
            grid.seed_index(
                *key,
                IndexEntry {
                    item: ItemId(i as u64),
                    holder: PeerId(0),
                    version: Version(0),
                },
            );
        }
        // Phase 2: lots more meetings → anti-entropy re-homes strays.
        for _ in 0..n * 40 {
            let (i, j) = grid.random_pair(&mut ctx);
            grid.exchange(i, j, &mut ctx);
        }
        let mut total = 0usize;
        let mut misplaced = 0usize;
        for p in grid.peers() {
            for key in &keys {
                if !p.index_lookup(key).is_empty() {
                    total += 1;
                    if !p.responsible_for(key) {
                        misplaced += 1;
                    }
                }
            }
        }
        assert!(total > 0, "case {case}");
        assert!(misplaced * 10 <= total, "case {case}: after heavy meeting traffic at most 10% may remain misplaced: {misplaced}/{total}");
    }
}

#[test]
fn any_meeting_schedule_audits_clean() {
    for_each_scenario(|case, s, _| {
        // The local invariant audit is a refinement of check_invariants:
        // whatever meetings produced, no peer may see a violation in its
        // own state (no data is seeded here, so no custody flags either).
        let (grid, _, _) = run_meetings(&s, true);
        let violations = grid.audit();
        assert!(
            violations.is_empty(),
            "case {case}: audit found {violations:?}"
        );
    });
}

#[test]
fn paths_only_grow_and_prefixes_are_stable() {
    for_each_scenario(|case, s, _| {
        // Run the schedule twice, checkpointing halfway: every peer's path
        // at the end must extend its path at the checkpoint.
        let half = Scenario {
            meetings: s.meetings[..s.meetings.len() / 2].to_vec(),
            ..s.clone()
        };
        let (grid_half, _, _) = run_meetings(&half, true);
        let (grid_full, _, _) = run_meetings(&s, true);
        for (a, b) in grid_half.peers().zip(grid_full.peers()) {
            assert!(
                a.path().is_prefix_of(&b.path()),
                "case {case}: peer {} path shrank or changed: {} -> {}",
                a.id(),
                a.path(),
                b.path()
            );
        }
    });
}

/// A fully built, audit-clean grid for the corruption-class properties.
fn built_clean_grid(seed: u64) -> PGrid {
    let mut grid = PGrid::new(
        64,
        PGridConfig {
            maxl: 4,
            refmax: 2,
            ..PGridConfig::default()
        },
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let mut online = AlwaysOnline;
    let mut stats = NetStats::new();
    let mut ctx = Ctx::new(&mut rng, &mut online, &mut stats);
    grid.build(&BuildOptions::default(), &mut ctx);
    grid
}

#[test]
fn built_grids_audit_clean_across_seeds() {
    for case in 0..8 {
        let seed = case;
        let grid = built_clean_grid(seed);
        assert!(grid.check_invariants().is_ok(), "case {case}");
        let violations = grid.audit();
        assert!(
            violations.is_empty(),
            "case {case}: audit found {violations:?}"
        );
    }
}

#[test]
fn each_corruption_class_yields_its_violation_variant() {
    for case in 0..8 {
        let seed = case;
        let base = built_clean_grid(seed);
        assert!(base.audit().is_empty(), "case {case}");

        // Wrong references: a planted self-reference is exactly one
        // SelfReference violation (the audit skips further checks on it).
        {
            let mut g = base.clone();
            let id = g
                .peers()
                .find(|p| !p.path().is_empty())
                .map(|p| p.id())
                .expect("a built grid has specialized peers");
            g.overwrite_peer_refs(id, 1, &[id]);
            let v = g.audit();
            assert!(
                v.len() == 1 && v[0].kind_name() == "self_ref",
                "case {case}: planted self-ref, audit found {v:?}"
            );
        }

        // Orphaned path: flipping bit 0 makes the victim's level-1 refs
        // same-side and its deeper refs prefix-mismatched (and likewise for
        // peers referencing the victim) — no other kind may appear.
        {
            let mut g = base.clone();
            let victim = g
                .peers()
                .find(|p| {
                    !p.path().is_empty()
                        && !p.routing().level(1).is_empty()
                        && p.buddies().next().is_none()
                })
                .map(|p| p.id());
            if let Some(id) = victim {
                let path = g.peer(id).path();
                g.overwrite_peer_path(id, path.with_flipped(0));
                let v = g.audit();
                assert!(
                    !v.is_empty(),
                    "case {case}: a flipped path must be audit-visible"
                );
                assert!(
                    v.iter()
                        .all(|x| matches!(x.kind_name(), "same_side" | "prefix_mismatch")),
                    "case {case}: flipped path, audit found {v:?}"
                );
            }
        }

        // Inconsistent replicas: a buddy with a different path is exactly
        // one ReplicaPathMismatch at the peer that lists it.
        {
            let mut g = base.clone();
            let a = g.peers().find(|p| !p.path().is_empty()).map(|p| p.id());
            if let Some(a) = a {
                let pa = g.peer(a).path();
                let b = g.peers().find(|p| p.path() != pa).map(|p| p.id());
                if let Some(b) = b {
                    g.peer_mut(a).add_buddy(b);
                    let v = g.audit();
                    assert!(
                        v.len() == 1 && v[0].kind_name() == "replica_mismatch",
                        "case {case}: planted bad buddy, audit found {v:?}"
                    );
                }
            }
        }

        // Junk items: one entry outside the subtree is exactly one
        // ForeignEntry at the host.
        {
            let mut g = base.clone();
            let id = g
                .peers()
                .find(|p| !p.path().is_empty() && !p.has_misplaced())
                .map(|p| p.id())
                .expect("a built grid has specialized peers");
            let path = g.peer(id).path();
            let key = path
                .prefix(1)
                .with_flipped(0)
                .append(&BitPath::from_value(u128::from(seed) & 0x7, 3));
            g.peer_mut(id).index_insert(
                key,
                IndexEntry {
                    item: ItemId(99),
                    holder: id,
                    version: Version(0),
                },
            );
            let v = g.audit();
            assert!(
                v.len() == 1 && v[0].kind_name() == "foreign_entry",
                "case {case}: planted junk item, audit found {v:?}"
            );
        }
    }
}

/// Load-balancing properties. The `balance_round` contract mirrors
/// `stabilize_round`'s: a grid already within its load target is left
/// strictly untouched (zero effects, zero RNG draws), and correction never
/// trades balance for structural validity.
#[test]
fn balance_round_on_a_balanced_grid_is_a_strict_noop() {
    for case in 0..8 {
        let seed = case;
        let items = StdRng::seed_from_u64(case).gen_range(200..1500);
        use pgrid_core::{BalanceConfig, LoadTracker};
        use rand::Rng;
        let mut grid = built_clean_grid(seed);
        // Uniform keys at full depth spread entries evenly; no query
        // traffic is recorded. Whatever residual skew construction left,
        // pinning the target at (or above) the observed ratio makes the
        // grid balanced *by definition*, so the property under test is
        // exactly "within target ⇒ strict no-op".
        let mut krng = StdRng::seed_from_u64(seed ^ 0x5eed);
        for i in 0..items {
            let key = BitPath::from_raw(krng.gen::<u128>(), 12);
            grid.seed_index(
                key,
                IndexEntry {
                    item: ItemId(i),
                    holder: PeerId(0),
                    version: Version(0),
                },
            );
        }
        let tracker = LoadTracker::new(grid.len());
        let base = BalanceConfig::default();
        let loads = grid.peer_loads(&tracker, &base);
        let total: u64 = loads.iter().sum();
        let max = loads.iter().copied().max().unwrap_or(0);
        // One above the floored sample: the round's hot test cross-multiplies
        // exactly, so a floor-truncated target could still read as hot.
        let observed = (max * 1000 * loads.len() as u64)
            .checked_div(total)
            .map_or(0, |ratio| ratio + 1);
        let cfg = BalanceConfig {
            target_ratio_x1000: base.target_ratio_x1000.max(observed),
            ..base
        };

        let before = GridSnapshot::capture(&grid);
        let mut master = StdRng::seed_from_u64(seed ^ 0xd1e);
        let mut probe = master.clone();
        let mut online = AlwaysOnline;
        let mut stats = NetStats::new();
        let report = {
            let mut ctx = Ctx::new(&mut master, &mut online, &mut stats);
            grid.balance_round(&tracker, &cfg, &mut ctx)
        };
        assert!(
            report.is_noop(),
            "case {case}: balanced grid was acted on: {report:?}"
        );
        assert_eq!(
            GridSnapshot::capture(&grid),
            before,
            "case {case}: no peer may be touched"
        );
        assert_eq!(
            master.gen::<u64>(),
            probe.gen::<u64>(),
            "case {case}: zero RNG draws"
        );
    }
}

#[test]
fn audit_stays_clean_after_every_balance_round() {
    for case in 0..8 {
        let seed = case;
        let skew = StdRng::seed_from_u64(case).gen_range(1..4);
        use pgrid_core::{BalanceConfig, LoadTracker};
        use rand::Rng;
        // A deep, sparse grid seeded with product-of-uniforms keys: the
        // skewed mass forces real extend/retract/migrate actions, and no
        // round may leave a violation behind.
        let mut grid = PGrid::new(
            96,
            PGridConfig {
                maxl: 8,
                refmax: 2,
                ..PGridConfig::default()
            },
        );
        {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut online = AlwaysOnline;
            let mut stats = NetStats::new();
            let mut ctx = Ctx::new(&mut rng, &mut online, &mut stats);
            grid.build(
                &BuildOptions {
                    threshold_fraction: 0.45,
                    ..BuildOptions::default()
                },
                &mut ctx,
            );
        }
        let mut krng = StdRng::seed_from_u64(seed ^ 0xabc);
        for i in 0..1200u64 {
            let mut x: f64 = krng.gen_range(0.0..1.0);
            for _ in 0..skew {
                x *= krng.gen_range(0.0..1.0);
            }
            let key = BitPath::from_raw(u128::from((x * 2f64.powi(64)) as u64) << 64, 16);
            grid.seed_index(
                key,
                IndexEntry {
                    item: ItemId(i),
                    holder: PeerId(0),
                    version: Version(0),
                },
            );
        }
        let tracker = LoadTracker::new(grid.len());
        let cfg = BalanceConfig::default();
        let mut rng = StdRng::seed_from_u64(seed ^ 0xdef);
        let mut online = AlwaysOnline;
        let mut stats = NetStats::new();
        let mut ctx = Ctx::new(&mut rng, &mut online, &mut stats);
        for round in 0..96 {
            let report = grid.balance_round(&tracker, &cfg, &mut ctx);
            let violations = grid.audit();
            assert!(
                violations.is_empty(),
                "case {case}: round {round} left violations: {:?}",
                violations.first()
            );
            assert!(
                grid.check_invariants().is_ok(),
                "case {case}: {:?}",
                grid.check_invariants()
            );
            if report.actions() == 0 {
                break;
            }
        }
    }
}
