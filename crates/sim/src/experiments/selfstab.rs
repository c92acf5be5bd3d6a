//! **Extra — corruption injection and self-stabilization** (robustness
//! beyond the paper's failure model).
//!
//! The repair experiment ([`super::repair`]) models peers that *vanish*;
//! this one models peers that *go wrong*: a converged grid has a fraction
//! of its peers mutated into one of four corruption classes — wrong
//! references, orphaned paths, inconsistent replica sets, junk hosted
//! items — and then runs [`pgrid_core::PGrid::stabilize_round`] until the
//! community audits clean again. Rows report, per round, the violations
//! still visible to a global audit, what the stabilizers detected and
//! corrected locally, and the query success rate, which must return to its
//! pre-corruption baseline.
//!
//! Corruption is injected by a [`CorruptionPlan`] — the state-damage twin
//! of the transport-damage `FaultPlan` in the node crate: a seed plus one
//! probability per class, hashed per peer with a SplitMix64 finalizer so
//! the damaged peer set is a pure function of the plan.

use pgrid_core::{IndexEntry, PGrid, PGridConfig};
use pgrid_keys::BitPath;
use pgrid_net::{AlwaysOnline, PeerId};
use pgrid_store::{ItemId, Version};

use crate::{built_grid, fmt_f, run_query_plan, QueryPlan, Table};

/// The four ways a peer's local state can be damaged.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CorruptionClass {
    /// The level-1 reference set is overwritten with a self-reference plus
    /// a same-side peer — both forbidden by the defining reference
    /// property of §2.
    WrongRefs,
    /// Bit 0 of the path is flipped: the peer claims a subtree its
    /// references (and any hosted data) disagree with.
    OrphanedPath,
    /// A buddy with a *different* path is planted in the replica set.
    InconsistentReplicas,
    /// An index entry whose key lies outside the peer's subtree is
    /// inserted directly, bypassing the routed insert.
    JunkItems,
}

impl CorruptionClass {
    /// Every class, in injection order.
    pub const ALL: [CorruptionClass; 4] = [
        CorruptionClass::WrongRefs,
        CorruptionClass::OrphanedPath,
        CorruptionClass::InconsistentReplicas,
        CorruptionClass::JunkItems,
    ];

    /// Stable snake_case name (for tables and traces).
    pub fn name(self) -> &'static str {
        match self {
            CorruptionClass::WrongRefs => "wrong_refs",
            CorruptionClass::OrphanedPath => "orphaned_path",
            CorruptionClass::InconsistentReplicas => "inconsistent_replicas",
            CorruptionClass::JunkItems => "junk_items",
        }
    }

    /// Decorrelates the per-class hash streams.
    fn salt(self) -> u64 {
        match self {
            CorruptionClass::WrongRefs => 0x57_72_65_66,
            CorruptionClass::OrphanedPath => 0x6f_72_70_68,
            CorruptionClass::InconsistentReplicas => 0x6275_6464,
            CorruptionClass::JunkItems => 0x6a_75_6e_6b,
        }
    }
}

/// A deterministic recipe for damaging a grid: one probability per
/// [`CorruptionClass`], rolled independently per peer. The default plan is
/// all-zero — applying it is a guaranteed no-op — mirroring the node
/// crate's `FaultPlan` convention that a clean plan is byte-for-byte
/// equivalent to no plan.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CorruptionPlan {
    /// Seed of the per-peer hash streams.
    pub seed: u64,
    /// Probability a peer's level-1 references are overwritten.
    pub wrong_refs: f64,
    /// Probability a peer's path has bit 0 flipped.
    pub orphaned_path: f64,
    /// Probability a peer gains a mismatched buddy.
    pub inconsistent_replicas: f64,
    /// Probability a peer hosts a foreign index entry.
    pub junk_items: f64,
}

impl Default for CorruptionPlan {
    fn default() -> Self {
        CorruptionPlan {
            seed: 0,
            wrong_refs: 0.0,
            orphaned_path: 0.0,
            inconsistent_replicas: 0.0,
            junk_items: 0.0,
        }
    }
}

impl CorruptionPlan {
    /// A plan damaging nothing, with the given seed.
    pub fn new(seed: u64) -> Self {
        CorruptionPlan {
            seed,
            ..CorruptionPlan::default()
        }
    }

    /// Sets the wrong-references probability.
    pub fn with_wrong_refs(mut self, p: f64) -> Self {
        self.wrong_refs = p;
        self
    }

    /// Sets the orphaned-path probability.
    pub fn with_orphaned_path(mut self, p: f64) -> Self {
        self.orphaned_path = p;
        self
    }

    /// Sets the inconsistent-replicas probability.
    pub fn with_inconsistent_replicas(mut self, p: f64) -> Self {
        self.inconsistent_replicas = p;
        self
    }

    /// Sets the junk-items probability.
    pub fn with_junk_items(mut self, p: f64) -> Self {
        self.junk_items = p;
        self
    }

    /// Sets the probability of one class.
    pub fn with_class(self, class: CorruptionClass, p: f64) -> Self {
        match class {
            CorruptionClass::WrongRefs => self.with_wrong_refs(p),
            CorruptionClass::OrphanedPath => self.with_orphaned_path(p),
            CorruptionClass::InconsistentReplicas => self.with_inconsistent_replicas(p),
            CorruptionClass::JunkItems => self.with_junk_items(p),
        }
    }

    /// The probability configured for `class`.
    pub fn fraction_of(&self, class: CorruptionClass) -> f64 {
        match class {
            CorruptionClass::WrongRefs => self.wrong_refs,
            CorruptionClass::OrphanedPath => self.orphaned_path,
            CorruptionClass::InconsistentReplicas => self.inconsistent_replicas,
            CorruptionClass::JunkItems => self.junk_items,
        }
    }

    /// True when every probability is zero.
    pub fn is_clean(&self) -> bool {
        self.wrong_refs <= 0.0
            && self.orphaned_path <= 0.0
            && self.inconsistent_replicas <= 0.0
            && self.junk_items <= 0.0
    }

    /// Whether this plan damages peer `id` with `class` — a pure function
    /// of `(seed, id, class)`.
    fn rolls(&self, class: CorruptionClass, id: PeerId) -> bool {
        let p = self.fraction_of(class);
        if p <= 0.0 {
            return false;
        }
        let h = mix(self.seed ^ mix(u64::from(id.0)).rotate_left(17) ^ mix(class.salt()));
        ((h >> 11) as f64 / (1u64 << 53) as f64) < p
    }

    /// Damages `grid` in place. Returns the number of distinct peers
    /// corrupted (a peer hit by several classes counts once). Deterministic:
    /// same plan, same grid, same damage — no RNG is consulted.
    pub fn apply(&self, grid: &mut PGrid) -> u64 {
        let mut corrupted = 0u64;
        for i in 0..grid.len() {
            let id = PeerId::from_index(i);
            let mut hit = false;
            for class in CorruptionClass::ALL {
                if self.rolls(class, id) {
                    hit |= inject(grid, id, class, self.seed);
                }
            }
            corrupted += u64::from(hit);
        }
        corrupted
    }
}

/// SplitMix64-style finalizer (same constants as the node crate's fault
/// engine): decorrelates per-peer decisions even for consecutive small ids.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Applies one corruption class to one peer. Returns `false` when the
/// peer's state cannot host that class (e.g. an unspecialized peer has no
/// path bit to flip).
fn inject(grid: &mut PGrid, id: PeerId, class: CorruptionClass, seed: u64) -> bool {
    let path = grid.peer(id).path();
    match class {
        CorruptionClass::WrongRefs => {
            if path.is_empty() {
                return false;
            }
            // A self-reference is always a violation; a same-side peer adds
            // a second, distinct one when available.
            let mut refs = vec![id];
            if let Some(s) = same_side_peer(grid, id) {
                refs.push(s);
            }
            grid.overwrite_peer_refs(id, 1, &refs);
            true
        }
        CorruptionClass::OrphanedPath => {
            if path.is_empty() {
                return false;
            }
            grid.overwrite_peer_path(id, path.with_flipped(0));
            true
        }
        CorruptionClass::InconsistentReplicas => {
            let Some(b) = other_path_peer(grid, id) else {
                return false;
            };
            grid.peer_mut(id).add_buddy(b);
            true
        }
        CorruptionClass::JunkItems => {
            if path.is_empty() || grid.peer(id).has_misplaced() {
                return false;
            }
            // A key in the sibling subtree of the peer's first bit, with a
            // hash-derived tail: foreign by construction.
            let maxl = grid.config().maxl;
            let head = path.prefix(1).with_flipped(0);
            let tail =
                BitPath::from_value(u128::from(mix(seed ^ u64::from(id.0))), (maxl - 1) as u8);
            let key = head.append(&tail);
            grid.peer_mut(id).index_insert(
                key,
                IndexEntry {
                    item: ItemId(0x6a75_6e6b_0000_0000 | u64::from(id.0)),
                    holder: id,
                    version: Version(0),
                },
            );
            true
        }
    }
}

/// A peer on the same side of the first bit as `id` (forbidden as a
/// level-1 reference).
fn same_side_peer(grid: &PGrid, id: PeerId) -> Option<PeerId> {
    let bit = grid.peer(id).path().bit(0);
    grid.peers()
        .find(|p| p.id() != id && !p.path().is_empty() && p.path().bit(0) == bit)
        .map(|p| p.id())
}

/// A peer whose path differs from `id`'s (forbidden as a buddy).
fn other_path_peer(grid: &PGrid, id: PeerId) -> Option<PeerId> {
    let path = grid.peer(id).path();
    grid.peers()
        .find(|p| p.id() != id && p.path() != path)
        .map(|p| p.id())
}

/// Parameters of the corruption/convergence experiment.
#[derive(Clone, Copy, Debug)]
pub struct Config {
    /// Community size.
    pub n: usize,
    /// Maximal path length.
    pub maxl: usize,
    /// References per level.
    pub refmax: usize,
    /// Per-class corruption probability (each class rolled independently).
    pub fraction: f64,
    /// Index entries seeded before the damage.
    pub items: usize,
    /// Queries per success-rate measurement.
    pub queries: usize,
    /// Stabilization rounds to give up after.
    pub max_rounds: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            n: 1000,
            maxl: 6,
            refmax: 3,
            fraction: 0.15,
            items: 256,
            queries: 1000,
            max_rounds: 8,
            seed: 0x5e1f,
        }
    }
}

impl Config {
    /// A laptop-fast preset.
    pub fn small() -> Self {
        Config {
            n: 200,
            maxl: 4,
            refmax: 2,
            fraction: 0.15,
            items: 64,
            queries: 300,
            max_rounds: 8,
            seed: 0x5e1f,
        }
    }

    /// The corruption plan this configuration implies.
    pub fn plan(&self) -> CorruptionPlan {
        let mut plan = CorruptionPlan::new(self.seed ^ 0xc0de);
        for class in CorruptionClass::ALL {
            plan = plan.with_class(class, self.fraction);
        }
        plan
    }
}

/// One measured stabilization stage.
#[derive(Clone, Copy, Debug)]
pub struct Row {
    /// Stabilization rounds completed (0 = right after the damage).
    pub round: usize,
    /// Violations a global audit still sees after this round.
    pub violations_remaining: u64,
    /// Violations the stabilizers detected during this round.
    pub detected: u64,
    /// Corrective actions the stabilizers applied during this round.
    pub corrections: u64,
    /// Query success rate at this stage.
    pub success_rate: f64,
    /// Pre-corruption success rate (same on every row, for comparison).
    pub success_baseline: f64,
}

/// Runs the experiment: build, seed, measure, damage, stabilize to a clean
/// audit (or `max_rounds`), measuring after every round.
pub fn run(cfg: &Config) -> (Vec<Row>, Table) {
    let grid_cfg = PGridConfig {
        maxl: cfg.maxl,
        refmax: cfg.refmax,
        ..PGridConfig::default()
    };
    let mut built = built_grid(cfg.n, grid_cfg, 1.0, 0.99, None, cfg.seed);

    // A consistent seeded index gives the orphaned-path class data to
    // disagree with (and the stabilizer data to re-derive paths from).
    for i in 0..cfg.items {
        let key = BitPath::from_value(u128::from(mix(i as u64)), cfg.maxl as u8);
        let entry = IndexEntry {
            item: ItemId(i as u64),
            holder: PeerId::from_index(i % cfg.n),
            version: Version(0),
        };
        built.grid.seed_index(key, entry);
    }

    let plan = QueryPlan {
        queries: cfg.queries,
        key_len: cfg.maxl as u8,
        shards: 8,
    };
    let measure = |grid: &PGrid| {
        let out = run_query_plan(grid, &plan, cfg.seed ^ 0x51ab, &AlwaysOnline, 1);
        out.successes() as f64 / cfg.queries.max(1) as f64
    };
    let baseline = measure(&built.grid);
    debug_assert!(
        built.grid.audit().is_empty(),
        "a built grid must audit clean"
    );

    let corrupted = cfg.plan().apply(&mut built.grid);
    assert!(
        cfg.fraction <= 0.0 || corrupted > 0,
        "a damaging plan must damage someone"
    );

    let mut online = AlwaysOnline;
    let mut rows = Vec::new();
    for round in 0..=cfg.max_rounds {
        let mut detected = 0;
        let mut corrections = 0;
        if round > 0 {
            let report = built.with_ctx(&mut online, |grid, ctx| {
                grid.stabilize_round(cfg.refmax, ctx)
            });
            detected = report.violations;
            corrections = report.corrections();
        }
        let remaining = built.grid.audit().len() as u64;
        rows.push(Row {
            round,
            violations_remaining: remaining,
            detected,
            corrections,
            success_rate: measure(&built.grid),
            success_baseline: baseline,
        });
        if round > 0 && remaining == 0 {
            break;
        }
    }

    let mut table = Table::new(
        format!(
            "Self-stabilization: convergence from corrupted state (N={}, {}%/class, {} peers hit)",
            cfg.n,
            (cfg.fraction * 100.0) as u32,
            corrupted
        ),
        &[
            "round",
            "violations",
            "detected",
            "corrections",
            "success rate",
            "baseline",
        ],
    );
    for r in &rows {
        table.push_row(vec![
            r.round.to_string(),
            r.violations_remaining.to_string(),
            r.detected.to_string(),
            r.corrections.to_string(),
            fmt_f(r.success_rate, 3),
            fmt_f(r.success_baseline, 3),
        ]);
    }
    (rows, table)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_grid() -> PGrid {
        let cfg = Config::small();
        let grid_cfg = PGridConfig {
            maxl: cfg.maxl,
            refmax: cfg.refmax,
            ..PGridConfig::default()
        };
        built_grid(cfg.n, grid_cfg, 1.0, 0.99, None, cfg.seed).grid
    }

    #[test]
    fn default_plan_is_inert() {
        let mut grid = test_grid();
        let before = format!("{grid:?}");
        let plan = CorruptionPlan::new(42);
        assert!(plan.is_clean());
        assert_eq!(plan.apply(&mut grid), 0);
        assert_eq!(
            format!("{grid:?}"),
            before,
            "a clean plan must not touch the grid"
        );
    }

    #[test]
    fn each_class_injects_its_signature_violation() {
        let base = test_grid();
        assert!(base.audit().is_empty());
        let expect = [
            (CorruptionClass::WrongRefs, "self_ref"),
            (CorruptionClass::OrphanedPath, "same_side"),
            (CorruptionClass::InconsistentReplicas, "replica_mismatch"),
            (CorruptionClass::JunkItems, "foreign_entry"),
        ];
        for (class, kind) in expect {
            let mut grid = base.clone();
            let plan = CorruptionPlan::new(7).with_class(class, 0.3);
            let hit = plan.apply(&mut grid);
            assert!(hit > 0, "{} must damage someone", class.name());
            let violations = grid.audit();
            assert!(
                violations.iter().any(|v| v.kind_name() == kind),
                "{} must surface a {kind} violation, got {violations:?}",
                class.name()
            );
        }
    }

    #[test]
    fn corruption_plan_is_deterministic() {
        let mut a = test_grid();
        let mut b = a.clone();
        let plan = CorruptionPlan::new(3)
            .with_wrong_refs(0.2)
            .with_junk_items(0.2);
        assert_eq!(plan.apply(&mut a), plan.apply(&mut b));
        assert_eq!(a.audit(), b.audit());
    }

    #[test]
    fn stabilization_converges_and_recovers_queries() {
        let (rows, table) = run(&Config::small());
        let first = rows.first().unwrap();
        let last = rows.last().unwrap();
        assert!(
            first.violations_remaining > 0,
            "the damage must be audit-visible"
        );
        assert_eq!(
            last.violations_remaining,
            0,
            "stabilization must reach a clean audit within {} rounds",
            Config::small().max_rounds
        );
        assert!(
            last.success_rate >= last.success_baseline - 0.02,
            "query success must recover: {} vs baseline {}",
            last.success_rate,
            last.success_baseline
        );
        assert_eq!(table.rows.len(), rows.len());
    }

    #[test]
    fn corrupted_queries_are_thread_count_invariant() {
        let mut grid = test_grid();
        CorruptionPlan::new(11)
            .with_wrong_refs(0.2)
            .with_orphaned_path(0.2)
            .apply(&mut grid);
        let plan = QueryPlan {
            queries: 200,
            key_len: 4,
            shards: 8,
        };
        let one = run_query_plan(&grid, &plan, 99, &AlwaysOnline, 1);
        let four = run_query_plan(&grid, &plan, 99, &AlwaysOnline, 4);
        assert_eq!(one.records, four.records);
        assert_eq!(one.stats, four.stats);
    }
}
