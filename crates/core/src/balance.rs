//! Dynamic load balancing under key skew — the corrective half of the
//! skew study (DESIGN.md §16).
//!
//! The paper concedes (§6) that the access structure assumes *uniform*
//! data distributions; `experiments/skew.rs` measures how badly a Zipf
//! key distribution concentrates per-peer load. This module turns that
//! measurement into correction, in the deterministic-rebalancing style
//! of D3-Tree and the local corrective-action style of the
//! self-stabilizing hashed Patricia trie (see PAPERS.md):
//!
//! * **Load model.** A peer's load is its hosted index keys plus a
//!   decayed count of query hits ([`LoadTracker`]), weighted by
//!   [`BalanceConfig::hit_weight`]. Entry load is relieved by *splitting*
//!   (replicas hold identical indexes, so adding replicas does not shrink
//!   anyone's index); hit load is relieved by *replica scaling* (the
//!   random search descent spreads arrivals across a replica group).
//! * **Extension.** A replica group whose load exceeds
//!   `target_ratio_x1000 / 1000 ×` the community mean splits one bit
//!   deeper: members are partitioned onto the two child paths in
//!   proportion to the entries under each child, entries a member no
//!   longer covers are handed to the other side (or kept under the
//!   `misplaced` custody flag when they were strays already), and the new
//!   level's references point across the split.
//! * **Replica scaling.** A hot group that cannot split (a singleton, a
//!   group at `maxl`, or one whose load is dominated by query hits on a
//!   single key — the flash-crowd case) instead *grows*: a member of the
//!   coldest over-provisioned group migrates in wholesale, adopting the
//!   hot path, a copy of the hot index, and the hot routing table.
//! * **Retraction.** While a hot spot exists, a cold leaf group — of any
//!   size, a retracting singleton's subtree stays covered from the
//!   parent — releases its last member back to the parent path, where it
//!   absorbs the sibling subtree's entries. Consolidating the cold side
//!   is what refills the donor pool the migrations draw on.
//!
//! [`PGrid::balance_round`] applies one deterministic pass of all four
//! rules and then runs a *global reference/buddy fixup sweep* over the
//! peers that changed paths wholesale, so a structurally valid grid stays
//! valid: `audit()` after a balance round reports zero violations. The
//! round draws **zero RNG values** — every choice (member order, donor
//! order, split proportions) is a deterministic function of the grid —
//! and on an already balanced grid it is a no-op: no grid mutation, no
//! RNG draws, only the ratio measurement and one round trace event, the
//! same observability contract as [`PGrid::stabilize_round`].

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use pgrid_keys::{BitPath, Key};
use pgrid_net::PeerId;
use pgrid_trace::TraceEvent;

use crate::ctx::Ctx;
use crate::peer::IndexEntry;
use crate::KeyEntries;
use crate::PGrid;

/// Tuning knobs of [`PGrid::balance_round`]. All thresholds are integer
/// ratios (`x1000`) so the hot/cold tests are exact cross-multiplications
/// — no floating point, hence no platform or optimization-level drift.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BalanceConfig {
    /// A group is **hot** when its heaviest member's load exceeds
    /// `target_ratio_x1000 / 1000` times the community mean, and **cold**
    /// when it falls below the mean divided by the same factor. The gap
    /// between the two thresholds is the hysteresis band that keeps
    /// extension and retraction from chasing each other.
    pub target_ratio_x1000: u64,
    /// How many units of load one (decayed) query hit contributes,
    /// relative to one hosted index key.
    pub hit_weight: u64,
    /// Upper bound on corrective actions (splits + migrations +
    /// retractions) applied in one round, so a pathological state cannot
    /// make a single round rewrite the whole community at once.
    pub max_actions: usize,
}

impl Default for BalanceConfig {
    fn default() -> Self {
        BalanceConfig {
            target_ratio_x1000: 2000,
            hit_weight: 1,
            max_actions: 4096,
        }
    }
}

/// Decayed per-peer query-hit accounting, fed by the driver (the
/// experiment loop records the responsible peer of every answered query;
/// a live deployment would count served requests).
#[derive(Clone, Debug, Default)]
pub struct LoadTracker {
    hits: Vec<u64>,
}

impl LoadTracker {
    /// A tracker for a community of `n` peers, all counts zero.
    pub fn new(n: usize) -> Self {
        LoadTracker { hits: vec![0; n] }
    }

    /// Records one served query at `peer`.
    pub fn record_hit(&mut self, peer: PeerId) {
        if let Some(h) = self.hits.get_mut(peer.index()) {
            *h += 1;
        }
    }

    /// Accumulated (decayed) hits of `peer`.
    pub fn hits(&self, peer: PeerId) -> u64 {
        self.hits.get(peer.index()).copied().unwrap_or(0)
    }

    /// Exponential decay: halves every count. Run once per balance round
    /// so the tracker follows the workload instead of its whole history.
    pub fn decay(&mut self) {
        for h in &mut self.hits {
            *h /= 2;
        }
    }

    /// Forgets everything (e.g. between experiment phases).
    pub fn clear(&mut self) {
        self.hits.iter_mut().for_each(|h| *h = 0);
    }
}

/// A load-model violation, in the style of [`crate::Violation`]: the
/// balance analogue of the structural audit. [`PGrid::load_audit`]
/// reports these read-only; [`PGrid::balance_round`] is the machinery
/// that drives them to zero.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LoadViolation {
    /// A peer's load exceeds the configured multiple of the mean.
    Overloaded {
        /// The overloaded peer.
        peer: PeerId,
        /// Its load (keys + weighted hits).
        load: u64,
        /// The hot threshold it exceeds, in load units ×1000.
        limit_x1000: u64,
    },
    /// A replica group holds more members than its load justifies while
    /// every member sits below the cold threshold.
    OverProvisioned {
        /// One (the first) member of the over-provisioned group.
        peer: PeerId,
        /// Group size.
        members: usize,
        /// The group's heaviest member load.
        load: u64,
    },
}

impl LoadViolation {
    /// The peer the violation is anchored at.
    pub fn peer(&self) -> PeerId {
        match *self {
            LoadViolation::Overloaded { peer, .. }
            | LoadViolation::OverProvisioned { peer, .. } => peer,
        }
    }

    /// Stable short name of the violation class.
    pub fn kind_name(&self) -> &'static str {
        match self {
            LoadViolation::Overloaded { .. } => "overloaded",
            LoadViolation::OverProvisioned { .. } => "over_provisioned",
        }
    }
}

impl fmt::Display for LoadViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            LoadViolation::Overloaded {
                peer,
                load,
                limit_x1000,
            } => write!(
                f,
                "{peer}: load {load} exceeds the hot threshold {}.{:03}",
                limit_x1000 / 1000,
                limit_x1000 % 1000
            ),
            LoadViolation::OverProvisioned {
                peer,
                members,
                load,
            } => write!(
                f,
                "{peer}: group of {members} replicas, heaviest load {load}, all cold"
            ),
        }
    }
}

/// What one [`PGrid::balance_round`] did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BalanceReport {
    /// Peers whose path grew one bit (splits).
    pub paths_extended: u64,
    /// Peers retracted to their parent path.
    pub paths_retracted: u64,
    /// Peers migrated wholesale onto a hot path (replica scaling).
    pub replicas_migrated: u64,
    /// Index entries that changed host (handed across a split, handed off
    /// by a migrating donor, or copied onto a new replica).
    pub entries_rebalanced: u64,
    /// References dropped by the post-move fixup sweep.
    pub refs_pruned: u64,
    /// Buddy records dropped by the post-move fixup sweep.
    pub buddies_dropped: u64,
    /// The round's max/mean load ratio sample, ×1000 (0 when the
    /// community holds no load at all).
    pub load_max_over_mean_x1000: u64,
}

impl BalanceReport {
    /// Corrective actions applied (splits + retractions + migrations).
    pub fn actions(&self) -> u64 {
        self.paths_extended + self.paths_retracted + self.replicas_migrated
    }

    /// `true` when the round changed nothing: no action, no entry moved,
    /// nothing pruned. The ratio sample is a measurement, not an effect.
    pub fn is_noop(&self) -> bool {
        self.actions() == 0
            && self.entries_rebalanced == 0
            && self.refs_pruned == 0
            && self.buddies_dropped == 0
    }
}

/// One planned corrective action, fixed before any state changes so the
/// plan is a pure function of the round-start snapshot.
enum Action {
    Split(BitPath),
    Grow(BitPath),
    Retract(BitPath),
}

impl PGrid {
    /// Per-peer loads under the balance load model: hosted index keys plus
    /// `cfg.hit_weight ×` the tracker's decayed hit count, indexed by peer.
    pub fn peer_loads(&self, tracker: &LoadTracker, cfg: &BalanceConfig) -> Vec<u64> {
        self.peers()
            .map(|p| p.index().len() as u64 + cfg.hit_weight * tracker.hits(p.id()))
            .collect()
    }

    /// Read-only load audit, the balance analogue of [`PGrid::audit`]:
    /// every peer above the hot threshold and every all-cold replica group
    /// of three or more. Empty at the balance fixpoint.
    pub fn load_audit(&self, tracker: &LoadTracker, cfg: &BalanceConfig) -> Vec<LoadViolation> {
        let loads = self.peer_loads(tracker, cfg);
        let n = loads.len() as u64;
        let total: u64 = loads.iter().sum();
        let mut out = Vec::new();
        if total == 0 {
            return out;
        }
        for (i, &load) in loads.iter().enumerate() {
            if load * 1000 * n > cfg.target_ratio_x1000 * total {
                out.push(LoadViolation::Overloaded {
                    peer: PeerId::from_index(i),
                    load,
                    limit_x1000: cfg.target_ratio_x1000 * total / n,
                });
            }
        }
        for members in self.peers_by_path().values() {
            if members.len() < 3 {
                continue;
            }
            let heaviest = members.iter().map(|m| loads[m.index()]).max().unwrap_or(0);
            if heaviest * cfg.target_ratio_x1000 * n < 1000 * total {
                out.push(LoadViolation::OverProvisioned {
                    peer: members[0],
                    members: members.len(),
                    load: heaviest,
                });
            }
        }
        out
    }

    /// One deterministic load-balancing pass: split hot replica groups one
    /// bit deeper, grow unsplittable hot groups by migrating in donors
    /// from cold over-provisioned groups, retract one member of each cold
    /// over-provisioned leaf group to its parent, then repair every
    /// reference and buddy record the wholesale moves invalidated.
    ///
    /// Determinism: the plan is a pure function of the grid and `tracker`
    /// at round start — member order is peer-id order, groups are visited
    /// in path order, and **no RNG is drawn**, ever. On a grid already
    /// within `cfg.target_ratio_x1000` the round mutates nothing (the grid
    /// epoch is untouched) and only records the ratio sample plus one
    /// [`TraceEvent::BalanceRound`], mirroring the
    /// [`PGrid::stabilize_round`] no-op contract.
    pub fn balance_round(
        &mut self,
        tracker: &LoadTracker,
        cfg: &BalanceConfig,
        ctx: &mut Ctx<'_>,
    ) -> BalanceReport {
        let mut report = BalanceReport::default();
        let loads = self.peer_loads(tracker, cfg);
        let n = loads.len() as u64;
        let total: u64 = loads.iter().sum();
        let max = loads.iter().copied().max().unwrap_or(0);
        let ratio_x1000 = (max * 1000 * n).checked_div(total).unwrap_or(0);
        report.load_max_over_mean_x1000 = ratio_x1000;
        ctx.stats.load_max_over_mean_x1000 += ratio_x1000;

        let is_hot = |load: u64| total > 0 && load * 1000 * n > cfg.target_ratio_x1000 * total;
        let is_cold = |load: u64| total > 0 && load * cfg.target_ratio_x1000 * n < 1000 * total;

        if total == 0 || !is_hot(max) {
            // Balanced: measurement only, zero mutations, zero RNG draws.
            ctx.trace(|| TraceEvent::BalanceRound {
                ratio_x1000,
                extended: 0,
                retracted: 0,
                migrated: 0,
            });
            return report;
        }

        // The round is about to move paths, which drops the cached grouping
        // anyway: take it when warm instead of copying it.
        let groups = self.take_peers_by_path();
        let maxl = self.config().maxl;
        let (plan, mut donors) = self.plan_round(&groups, &loads, cfg, maxl, &is_hot, &is_cold);

        // Peers that changed path *wholesale* this round (migrations and
        // retractions): only these can invalidate references or buddy
        // records elsewhere, so only these feed the fixup sweep.
        let mut moved: BTreeSet<PeerId> = BTreeSet::new();
        // Retractions landing on the same parent this round become each
        // other's buddies.
        let mut landed: BTreeMap<BitPath, Vec<PeerId>> = BTreeMap::new();

        for action in plan {
            match action {
                Action::Split(path) => self.apply_split(&path, &groups[&path], &mut report, ctx),
                Action::Grow(path) => {
                    if let Some(donor) = next_donor(&mut donors) {
                        self.apply_migration(&path, &groups[&path], donor, &mut report, ctx);
                        moved.insert(donor.1);
                    }
                }
                Action::Retract(path) => {
                    let mover = *groups[&path].last().expect("retract group is non-empty");
                    self.apply_retraction(
                        &path,
                        &groups[&path],
                        &groups,
                        &landed,
                        &mut report,
                        ctx,
                    );
                    landed.entry(path.parent()).or_default().push(mover);
                    moved.insert(mover);
                }
            }
        }

        if !moved.is_empty() {
            self.fixup_after_moves(&moved, &mut report, ctx);
        }

        ctx.stats.paths_extended += report.paths_extended;
        ctx.stats.paths_retracted += report.paths_retracted;
        ctx.stats.entries_rebalanced += report.entries_rebalanced;
        ctx.trace(|| TraceEvent::BalanceRound {
            ratio_x1000,
            extended: report.paths_extended,
            retracted: report.paths_retracted,
            migrated: report.replicas_migrated,
        });
        report
    }

    /// Classifies every replica group against the round-start snapshot
    /// into splits, grows, and retractions, plus the ordered donor pool
    /// the grows draw from. Pure: no state changes.
    #[allow(clippy::type_complexity)]
    fn plan_round(
        &self,
        groups: &BTreeMap<BitPath, Vec<PeerId>>,
        loads: &[u64],
        cfg: &BalanceConfig,
        maxl: usize,
        is_hot: &dyn Fn(u64) -> bool,
        is_cold: &dyn Fn(u64) -> bool,
    ) -> (Vec<Action>, Vec<(BitPath, Vec<PeerId>)>) {
        let group_max =
            |members: &[PeerId]| members.iter().map(|m| loads[m.index()]).max().unwrap_or(0);
        let mut plan: Vec<Action> = Vec::new();
        let mut planned: BTreeSet<BitPath> = BTreeSet::new();
        for (path, members) in groups {
            if plan.len() >= cfg.max_actions {
                break;
            }
            let heavy = group_max(members);
            if is_hot(heavy) {
                // Entry load is relieved by splitting, hit load only by
                // replica scaling — compare the heaviest member's two
                // components to pick the rule that actually helps.
                let anchor = self.peer(members[0]);
                let entry_component = anchor.index().len() as u64;
                let hit_component = members
                    .iter()
                    .map(|&m| heavy.saturating_sub(self.peer(m).index().len() as u64))
                    .max()
                    .unwrap_or(0);
                let splittable = members.len() >= 2
                    && path.len() < maxl
                    && entry_component >= hit_component
                    && (anchor.index().count_under(&path.child(0)) > 0
                        || anchor.index().count_under(&path.child(1)) > 0);
                if splittable {
                    plan.push(Action::Split(*path));
                } else {
                    plan.push(Action::Grow(*path));
                }
                planned.insert(*path);
            }
        }
        // Retractions: cold *leaf* groups (no deeper group extends their
        // path) whose projected parent-level load stays under the hot
        // threshold (hysteresis: never retract into an immediate
        // re-split). Any size qualifies — even a singleton, whose subtree
        // stays covered from the parent it retracts to — because while a
        // hot spot exists, every cold leaf peer consolidated upward is a
        // future donor for the hot side.
        for (path, members) in groups {
            if plan.len() >= cfg.max_actions {
                break;
            }
            if path.is_empty() || planned.contains(path) {
                continue;
            }
            let heavy = group_max(members);
            if !is_cold(heavy) {
                continue;
            }
            let is_leaf = !groups.keys().any(|p| *p != *path && path.is_prefix_of(p));
            if !is_leaf {
                continue;
            }
            let sibling = path.sibling();
            let sibling_heavy = match groups.get(&sibling) {
                Some(sib) => group_max(sib),
                None => {
                    // No exact sibling group. The mover still covers the
                    // sibling subtree from the parent and absorbs every
                    // entry under it, whether held by deeper subdividing
                    // groups or by a shorter overlapping ancestor —
                    // project that absorption (summing per-group distinct
                    // counts; prefix-overlapping groups may double count,
                    // which only errs conservative). A wholly uncovered
                    // sibling sums to zero: retracting over it costs
                    // nothing and widens coverage.
                    groups
                        .iter()
                        .filter(|(p, _)| sibling.is_prefix_of(p) || p.is_prefix_of(&sibling))
                        .map(|(_, ms)| self.peer(ms[0]).index().count_under(&sibling) as u64)
                        .sum()
                }
            };
            if is_hot(heavy + sibling_heavy) {
                continue;
            }
            plan.push(Action::Retract(*path));
            planned.insert(*path);
        }
        // Donor pool for the grows: non-hot groups of >= 2 not otherwise
        // planned, coldest first; each gives members from the back (the
        // highest peer ids) down to a remainder of one. Donating never
        // raises the donors' own load (replicas hold identical indexes),
        // it only trims redundancy — so any group that keeps one member
        // behind and is not itself hot can spare one.
        let mut donor_groups: Vec<(BitPath, Vec<PeerId>)> = groups
            .iter()
            .filter(|(p, members)| {
                members.len() >= 2 && !planned.contains(*p) && !is_hot(group_max(members))
            })
            .map(|(p, members)| (*p, members.clone()))
            .collect();
        donor_groups.sort_by_key(|(p, members)| (group_max(members), *p));
        (plan, donor_groups)
    }

    /// Splits one replica group a bit deeper: members partition onto the
    /// two child paths in proportion to the entries under each child.
    fn apply_split(
        &mut self,
        path: &BitPath,
        members: &[PeerId],
        report: &mut BalanceReport,
        ctx: &mut Ctx<'_>,
    ) {
        let refmax = self.config().refmax;
        let anchor = self.peer(members[0]);
        let w0 = anchor.index().count_under(&path.child(0)) as u64;
        let w1 = anchor.index().count_under(&path.child(1)) as u64;
        debug_assert!(w0 + w1 > 0, "planner only splits non-empty subtrees");
        let k = members.len() as u64;
        // Proportional headcount, clamped so both children stay covered.
        let k0 = ((k * w0 + (w0 + w1) / 2) / (w0 + w1)).clamp(1, k - 1) as usize;
        let (side0, side1) = members.split_at(k0);

        for (side, bit, others) in [(side0, 0u8, side1), (side1, 1u8, side0)] {
            for &m in side {
                self.extend_peer_path(m, bit);
                let new_path = self.peer(m).path();
                let was_misplaced = self.peer(m).has_misplaced();
                let extracted = self.peer_mut(m).index_mut().extract_not_under(&new_path);
                let mut strays = false;
                for (key, entries) in extracted {
                    if new_path.responsible_for(&key) {
                        // Coarser-than-path keys: still ours, reinstall.
                        reinsert(self, m, key, entries);
                    } else if path.responsible_for(&key) {
                        // The other side of the split owns these now.
                        report.entries_rebalanced += entries.len() as u64;
                        for &o in others {
                            for &e in entries.iter() {
                                self.peer_mut(o).index_insert(key, e);
                            }
                        }
                    } else {
                        // A custody stray from before the split: keep it
                        // flagged, exactly as the exchange protocol does.
                        strays = true;
                        reinsert(self, m, key, entries);
                    }
                }
                if strays || was_misplaced {
                    self.peer_mut(m).set_misplaced(true);
                }
                // The new level references across the split; deeper levels
                // were valid before and stay valid (the prefix only grew).
                let across: Vec<PeerId> = others.iter().copied().take(refmax).collect();
                self.overwrite_peer_refs(m, new_path.len(), &across);
                // Buddies: same side only.
                for &o in others {
                    self.peer_mut(m).remove_buddy(o);
                }
                for &s in side {
                    if s != m {
                        self.peer_mut(m).add_buddy(s);
                    }
                }
                report.paths_extended += 1;
                ctx.trace(|| TraceEvent::PathExtended {
                    peer: u64::from(m.0),
                    to_len: new_path.len() as u32,
                });
            }
        }
    }

    /// Migrates `donor` wholesale onto the hot path: hand its old index to
    /// the replicas it leaves behind, then adopt the hot group's path,
    /// index, and routing table.
    fn apply_migration(
        &mut self,
        path: &BitPath,
        hot_members: &[PeerId],
        donor: (BitPath, PeerId),
        report: &mut BalanceReport,
        ctx: &mut Ctx<'_>,
    ) {
        let (old_path, d) = donor;
        let anchor = hot_members[0];
        // Hand off everything the donor will no longer cover to the
        // replicas staying behind at its old path.
        let extracted = self.peer_mut(d).index_mut().extract_not_under(path);
        let old_group: Vec<PeerId> = self
            .peers_by_path()
            .get(&old_path)
            .into_iter()
            .flatten()
            .copied()
            .filter(|&p| p != d)
            .collect();
        let mut strays = false;
        for (key, entries) in extracted {
            if path.responsible_for(&key) {
                reinsert(self, d, key, entries);
            } else if old_path.responsible_for(&key) {
                report.entries_rebalanced += entries.len() as u64;
                for &o in &old_group {
                    for &e in entries.iter() {
                        self.peer_mut(o).index_insert(key, e);
                    }
                }
            } else {
                strays = true;
                reinsert(self, d, key, entries);
            }
        }
        if strays || self.peer(d).has_misplaced() {
            self.peer_mut(d).set_misplaced(true);
        }
        self.overwrite_peer_path(d, *path);
        // Adopt a copy of the hot index (a new replica must answer like
        // the old ones) ...
        let copied: Vec<(Key, Vec<IndexEntry>)> = self
            .peer(anchor)
            .index()
            .iter()
            .filter(|(k, _)| path.responsible_for(k))
            .map(|(k, v)| (*k, v.to_vec()))
            .collect();
        for (key, entries) in copied {
            report.entries_rebalanced += entries.len() as u64;
            for e in entries {
                self.peer_mut(d).index_insert(key, e);
            }
        }
        // ... and a copy of the hot routing table, minus the donor itself.
        let anchor_levels: Vec<(usize, Vec<PeerId>)> = self
            .peer(anchor)
            .routing()
            .iter()
            .map(|(l, refs)| {
                (
                    l,
                    refs.as_slice()
                        .iter()
                        .copied()
                        .filter(|&r| r != d)
                        .collect(),
                )
            })
            .collect();
        let old_depth = self.peer(d).routing().depth();
        for l in 1..=old_depth.max(anchor_levels.len()) {
            let ids = anchor_levels
                .iter()
                .find(|(level, _)| *level == l)
                .map(|(_, ids)| ids.as_slice())
                .unwrap_or(&[]);
            self.overwrite_peer_refs(d, l, ids);
        }
        // Buddies: out of the old group, into the hot one.
        for &o in &old_group {
            self.peer_mut(d).remove_buddy(o);
            self.peer_mut(o).remove_buddy(d);
        }
        for &h in hot_members {
            self.peer_mut(d).add_buddy(h);
            self.peer_mut(h).add_buddy(d);
        }
        report.replicas_migrated += 1;
        ctx.trace(|| TraceEvent::ReplicaMigrated {
            peer: u64::from(d.0),
            to_path: path.to_bit_string(),
        });
    }

    /// Retracts the last member of a cold over-provisioned leaf group to
    /// the parent path, absorbing the sibling subtree's entries.
    fn apply_retraction(
        &mut self,
        path: &BitPath,
        members: &[PeerId],
        groups: &BTreeMap<BitPath, Vec<PeerId>>,
        landed: &BTreeMap<BitPath, Vec<PeerId>>,
        report: &mut BalanceReport,
        ctx: &mut Ctx<'_>,
    ) {
        let mover = *members.last().expect("retract group is non-empty");
        let parent = path.parent();
        let sibling = path.sibling();
        // Nothing the mover holds leaves it (the parent covers a superset)
        // but coarser-than-old-path keys must be re-rooted in the trie.
        let extracted = self.peer_mut(mover).index_mut().extract_not_under(&parent);
        let mut strays = false;
        for (key, entries) in extracted {
            if !parent.responsible_for(&key) {
                strays = true;
            }
            reinsert(self, mover, key, entries);
        }
        if strays || self.peer(mover).has_misplaced() {
            self.peer_mut(mover).set_misplaced(true);
        }
        self.overwrite_peer_path(mover, parent);
        // Absorb the sibling subtree from whoever covers it.
        let sources: Vec<PeerId> = self
            .peers()
            .filter(|p| {
                p.id() != mover
                    && (sibling.is_prefix_of(&p.path()) || p.path().is_prefix_of(&sibling))
            })
            .map(|p| p.id())
            .collect();
        let mut absorbed: Vec<(Key, Vec<IndexEntry>)> = Vec::new();
        for s in sources {
            self.peer(s)
                .index()
                .for_each_under(&sibling, |key, entries| {
                    absorbed.push((key, entries.to_vec()))
                });
        }
        for (key, entries) in absorbed {
            report.entries_rebalanced += entries.len() as u64;
            for e in entries {
                self.peer_mut(mover).index_insert(key, e);
            }
        }
        // References beyond the shortened path go; shallower levels stay
        // valid (the parent shares every prefix the old path had there).
        let depth = self.peer(mover).routing().depth();
        for l in (parent.len() + 1)..=depth {
            self.overwrite_peer_refs(mover, l, &[]);
        }
        // Buddies: out of the old group, in with whoever already sits at
        // the parent (including earlier retractions landing this round).
        let olds: Vec<PeerId> = members.iter().copied().filter(|&m| m != mover).collect();
        for o in olds {
            self.peer_mut(mover).remove_buddy(o);
            self.peer_mut(o).remove_buddy(mover);
        }
        let mut parent_peers: Vec<PeerId> = groups.get(&parent).cloned().unwrap_or_default();
        if let Some(extra) = landed.get(&parent) {
            parent_peers.extend(extra.iter().copied());
        }
        for p in parent_peers {
            if p != mover {
                self.peer_mut(mover).add_buddy(p);
                self.peer_mut(p).add_buddy(mover);
            }
        }
        report.paths_retracted += 1;
        ctx.trace(|| TraceEvent::PathRetracted {
            peer: u64::from(mover.0),
            to_len: parent.len() as u32,
        });
    }

    /// Deterministic global repair after wholesale path changes: drop
    /// every reference that a moved peer's new path invalidates (in either
    /// direction) and every buddy record that now disagrees on the path —
    /// the same conditions [`PGrid::audit_peer`] checks, applied
    /// surgically to the peers a move could have broken.
    fn fixup_after_moves(
        &mut self,
        moved: &BTreeSet<PeerId>,
        report: &mut BalanceReport,
        ctx: &mut Ctx<'_>,
    ) {
        for i in 0..self.len() {
            let id = PeerId::from_index(i);
            let self_moved = moved.contains(&id);
            let path = self.peer(id).path();
            let depth = self.peer(id).routing().depth();
            for level in 1..=depth {
                let refs: Vec<PeerId> = self.peer(id).routing().level(level).as_slice().to_vec();
                let suspect = self_moved || refs.iter().any(|r| moved.contains(r));
                if !suspect {
                    continue;
                }
                let keep: Vec<PeerId> = refs
                    .iter()
                    .copied()
                    .filter(|&r| {
                        if r == id || level > path.len() {
                            return false;
                        }
                        let other = self.peer(r).path();
                        other.len() >= level
                            && other.prefix(level - 1) == path.prefix(level - 1)
                            && other.bit(level - 1) != path.bit(level - 1)
                    })
                    .collect();
                if keep.len() != refs.len() {
                    let dropped: Vec<PeerId> =
                        refs.iter().copied().filter(|r| !keep.contains(r)).collect();
                    report.refs_pruned += dropped.len() as u64;
                    for r in dropped {
                        ctx.trace(|| TraceEvent::RefEvicted {
                            peer: u64::from(id.0),
                            level: level as u32,
                            target: u64::from(r.0),
                        });
                    }
                    self.overwrite_peer_refs(id, level, &keep);
                }
            }
            let stale: Vec<PeerId> = self
                .peer(id)
                .buddies()
                .filter(|b| (self_moved || moved.contains(b)) && self.peer(*b).path() != path)
                .collect();
            for b in stale {
                self.peer_mut(id).remove_buddy(b);
                report.buddies_dropped += 1;
            }
        }
    }
}

/// Pops the next donor: the first group in the (coldest-first) pool that
/// still has two or more members gives up its highest-id member.
fn next_donor(donors: &mut [(BitPath, Vec<PeerId>)]) -> Option<(BitPath, PeerId)> {
    for (path, members) in donors.iter_mut() {
        if members.len() >= 2 {
            let d = members.pop().expect("len >= 2");
            return Some((*path, d));
        }
    }
    None
}

/// Reinstalls extracted entries at `peer` (used for coarser-than-path
/// keys, which `extract_not_under` pulls out, and for custody strays).
fn reinsert(grid: &mut PGrid, peer: PeerId, key: Key, entries: KeyEntries<IndexEntry>) {
    for &e in entries.iter() {
        grid.peer_mut(peer).index_insert(key, e);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BuildOptions, PGridConfig};
    use pgrid_net::{AlwaysOnline, NetStats};
    use pgrid_store::{ItemId, Version};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn built(n: usize, maxl: usize, threshold: f64, seed: u64) -> PGrid {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut online = AlwaysOnline;
        let mut stats = NetStats::new();
        let mut ctx = Ctx::new(&mut rng, &mut online, &mut stats);
        let mut grid = PGrid::new(
            n,
            PGridConfig {
                maxl,
                refmax: 2,
                ..PGridConfig::default()
            },
        );
        grid.build(
            &BuildOptions {
                threshold_fraction: threshold,
                ..BuildOptions::default()
            },
            &mut ctx,
        );
        grid
    }

    fn entry(i: u64) -> IndexEntry {
        IndexEntry {
            item: ItemId(i),
            holder: PeerId((i % 7) as u32),
            version: Version(0),
        }
    }

    /// Seeds `items` keys drawn from a product-of-uniforms distribution
    /// (mass piles onto the all-zeros spine), key length `bits`.
    fn seed_skewed(grid: &mut PGrid, items: u64, bits: u8, skew: u32, seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        for i in 0..items {
            let mut x: f64 = rng.gen_range(0.0..1.0);
            for _ in 0..skew {
                x *= rng.gen_range(0.0..1.0);
            }
            let scaled = (x * 2f64.powi(64)).min(2f64.powi(64) - 1.0) as u64;
            let key = BitPath::from_raw(u128::from(scaled) << 64, bits);
            grid.seed_index(key, entry(i));
        }
    }

    fn ratio_x1000(grid: &PGrid, tracker: &LoadTracker, cfg: &BalanceConfig) -> u64 {
        let loads = grid.peer_loads(tracker, cfg);
        let total: u64 = loads.iter().sum();
        let max = loads.iter().copied().max().unwrap_or(0);
        (max * 1000 * loads.len() as u64)
            .checked_div(total)
            .unwrap_or(0)
    }

    fn run_ctx(f: impl FnOnce(&mut Ctx<'_>)) {
        let mut rng = StdRng::seed_from_u64(7);
        let mut online = AlwaysOnline;
        let mut stats = NetStats::new();
        let mut ctx = Ctx::new(&mut rng, &mut online, &mut stats);
        f(&mut ctx);
    }

    #[test]
    fn balanced_grid_round_is_a_strict_noop() {
        let mut grid = built(128, 5, 0.99, 11);
        // Uniform keys at full depth: no peer should be hot.
        let mut rng = StdRng::seed_from_u64(5);
        for i in 0..2000u64 {
            let key = BitPath::random(&mut rng, 12);
            grid.seed_index(key, entry(i));
        }
        let tracker = LoadTracker::new(grid.len());
        // "Already balanced" means within the configured target: pin the
        // target just above the observed ratio so the contract under test
        // is exactly "within target => strict no-op". One above the
        // floored sample keeps the exact cross-multiplied ratio below it.
        let base = BalanceConfig::default();
        let cfg = BalanceConfig {
            target_ratio_x1000: base
                .target_ratio_x1000
                .max(ratio_x1000(&grid, &tracker, &base) + 1),
            ..base
        };
        let before = crate::GridSnapshot::capture(&grid);
        let mut master = StdRng::seed_from_u64(99);
        let mut probe = master.clone();
        let mut online = AlwaysOnline;
        let mut stats = NetStats::new();
        let report = {
            let mut ctx = Ctx::new(&mut master, &mut online, &mut stats);
            grid.balance_round(&tracker, &cfg, &mut ctx)
        };
        assert!(report.is_noop(), "{report:?}");
        assert_eq!(
            crate::GridSnapshot::capture(&grid),
            before,
            "no peer may be touched"
        );
        assert_eq!(master.gen::<u64>(), probe.gen::<u64>(), "zero RNG draws");
        assert!(report.load_max_over_mean_x1000 <= cfg.target_ratio_x1000);
    }

    #[test]
    fn skewed_grid_converges_below_target_and_audits_clean() {
        let mut grid = built(256, 16, 0.45, 3);
        assert!(grid.audit().is_empty());
        seed_skewed(&mut grid, 4000, 24, 3, 17);
        let tracker = LoadTracker::new(grid.len());
        let cfg = BalanceConfig::default();
        let before = ratio_x1000(&grid, &tracker, &cfg);
        assert!(before > cfg.target_ratio_x1000, "baseline must be skewed");
        let (mut split, mut retracted) = (0, 0);
        run_ctx(|ctx| {
            let mut rounds = 0;
            loop {
                let report = grid.balance_round(&tracker, &cfg, ctx);
                rounds += 1;
                split += report.paths_extended;
                retracted += report.paths_retracted;
                // Splits, retractions and migrations all move paths under a
                // warm by-path cache.
                crate::grid::tests::assert_replicas_match_scan(&grid);
                if report.actions() == 0 {
                    break;
                }
                assert!(rounds < 96, "did not converge: {report:?}");
            }
        });
        assert!(
            split > 0 && retracted > 0,
            "{split} splits, {retracted} retractions"
        );
        let after = ratio_x1000(&grid, &tracker, &cfg);
        assert!(
            after <= cfg.target_ratio_x1000,
            "max/mean {after} x1000 still above target (was {before})"
        );
        let violations = grid.audit();
        assert!(violations.is_empty(), "{:?}", violations.first());
        assert!(grid.check_invariants().is_ok());
        assert!(grid
            .load_audit(&tracker, &cfg)
            .iter()
            .all(|v| v.kind_name() != "overloaded"));
    }

    #[test]
    fn flash_crowd_grows_the_hot_replica_group() {
        let mut grid = built(128, 8, 0.6, 21);
        // Uniform entries, but one key takes all the query traffic.
        let mut rng = StdRng::seed_from_u64(9);
        for i in 0..1000u64 {
            let key = BitPath::random(&mut rng, 12);
            grid.seed_index(key, entry(i));
        }
        let hot_key = BitPath::random(&mut rng, 12);
        grid.seed_index(hot_key, entry(7001));
        let hot_before = grid.replicas_of(&hot_key).len();
        let mut tracker = LoadTracker::new(grid.len());
        let cfg = BalanceConfig {
            hit_weight: 8,
            ..BalanceConfig::default()
        };
        run_ctx(|ctx| {
            for _ in 0..6 {
                for p in grid.replicas_of(&hot_key) {
                    for _ in 0..50 {
                        tracker.record_hit(p);
                    }
                }
                grid.balance_round(&tracker, &cfg, ctx);
                tracker.decay();
            }
        });
        let hot_after = grid.replicas_of(&hot_key).len();
        assert!(
            hot_after > hot_before,
            "replica group must grow under a flash crowd ({hot_before} -> {hot_after})"
        );
        assert!(grid.audit().is_empty());
    }

    #[test]
    fn retraction_refills_cold_overprovisioned_leaves() {
        let mut grid = built(256, 16, 0.45, 3);
        seed_skewed(&mut grid, 4000, 24, 3, 17);
        let tracker = LoadTracker::new(grid.len());
        let cfg = BalanceConfig::default();
        let mut retracted = 0;
        run_ctx(|ctx| {
            for _ in 0..96 {
                let report = grid.balance_round(&tracker, &cfg, ctx);
                retracted += report.paths_retracted;
                if report.actions() == 0 {
                    break;
                }
            }
        });
        // The skewed workload leaves sparse subtrees over-provisioned;
        // convergence must have pulled at least one member up.
        assert!(retracted > 0, "no retraction over the whole convergence");
        assert!(grid.audit().is_empty());
    }

    #[test]
    fn load_audit_names_hot_peers() {
        let mut grid = built(64, 6, 0.9, 2);
        let hot = PeerId(0);
        let path = grid.peer(hot).path();
        for i in 0..500u64 {
            // Pile entries under one peer's own path only.
            let key = path.append(&BitPath::from_value(i as u128, 10));
            grid.peer_mut(hot).index_insert(key, entry(i));
        }
        let tracker = LoadTracker::new(grid.len());
        let cfg = BalanceConfig::default();
        let audit = grid.load_audit(&tracker, &cfg);
        assert!(audit
            .iter()
            .any(|v| v.kind_name() == "overloaded" && v.peer() == hot));
        let overloaded = audit
            .iter()
            .find(|v| v.kind_name() == "overloaded")
            .unwrap();
        assert!(overloaded.to_string().contains("exceeds"));
    }

    #[test]
    fn balance_rounds_are_deterministic() {
        let run = || {
            let mut grid = built(256, 16, 0.45, 3);
            seed_skewed(&mut grid, 4000, 24, 3, 17);
            let tracker = LoadTracker::new(grid.len());
            let cfg = BalanceConfig::default();
            let mut reports = Vec::new();
            run_ctx(|ctx| {
                for _ in 0..12 {
                    reports.push(grid.balance_round(&tracker, &cfg, ctx));
                }
            });
            let snapshot: Vec<(u32, String, usize)> = grid
                .peers()
                .map(|p| (p.id().0, p.path().to_bit_string(), p.index().len()))
                .collect();
            (reports, snapshot)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn tracker_decay_halves_and_clear_zeroes() {
        let mut t = LoadTracker::new(3);
        for _ in 0..5 {
            t.record_hit(PeerId(1));
        }
        t.record_hit(PeerId(99)); // out of range: ignored, no panic
        assert_eq!(t.hits(PeerId(1)), 5);
        t.decay();
        assert_eq!(t.hits(PeerId(1)), 2);
        t.clear();
        assert_eq!(t.hits(PeerId(1)), 0);
        assert_eq!(t.hits(PeerId(99)), 0);
    }
}
