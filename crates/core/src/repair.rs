//! Structure maintenance — the §6 remark that P-Grids "have to continuously
//! adapt", made concrete.
//!
//! Peers leave for good (disk death, uninstalls). Their entries linger in
//! other peers' reference tables, wasting contact attempts and — worse —
//! thinning the *live* redundancy of every level they appeared in. A
//! maintenance round lets each peer:
//!
//! 1. **probe** its references and drop the permanently unreachable ones;
//! 2. **refill** under-full levels by searching the sibling subtree of that
//!    level: whoever answers is, by definition, a valid reference there.
//!
//! Both steps use only the peer's own information plus the ordinary search
//! primitive — no central membership service, in keeping with the paper's
//! locality principle.
//!
//! [`PGrid::stabilize_peer`] extends maintenance into **self-stabilization**:
//! starting from an *arbitrarily corrupted* state (wrong references, orphaned
//! paths, inconsistent replica sets, junk hosted items), each peer audits
//! itself ([`PGrid::audit_peer`]), applies local corrective actions for every
//! violation class, and then runs the ordinary repair round to regrow what
//! the corrections removed. Repeated rounds drive the audit to zero — the
//! corruption-convergence experiments pin the bound.

use pgrid_keys::BitPath;
use pgrid_net::{MsgKind, PeerId};
use pgrid_trace::{TraceEvent, ViolationTag};

use crate::invariants::Violation;
use crate::{Ctx, PGrid};

/// Outcome of one or more maintenance rounds.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RepairReport {
    /// Liveness probes sent.
    pub probes: u64,
    /// References dropped as unreachable.
    pub removed: u64,
    /// References newly learned via refill searches.
    pub added: u64,
    /// Messages spent on refill searches.
    pub search_messages: u64,
}

impl RepairReport {
    /// Accumulates another report.
    pub fn merge(&mut self, other: RepairReport) {
        self.probes += other.probes;
        self.removed += other.removed;
        self.added += other.added;
        self.search_messages += other.search_messages;
    }
}

/// Outcome of one or more self-stabilization rounds.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StabilizeReport {
    /// Invariant violations the audit detected.
    pub violations: u64,
    /// Invalid references evicted (self, shallow, wrong-prefix, same-side,
    /// beyond-path, or overfull-level trims).
    pub refs_evicted: u64,
    /// Paths truncated to `maxl` or re-derived from hosted data.
    pub paths_corrected: u64,
    /// Foreign index entries handed to a responsible peer (or flagged for
    /// anti-entropy when none was reachable).
    pub entries_rehomed: u64,
    /// Buddies dropped for disagreeing on the path.
    pub buddies_dropped: u64,
    /// The ordinary maintenance pass run after the corrections, including
    /// any bootstrap re-join probes.
    pub repair: RepairReport,
}

impl StabilizeReport {
    /// Accumulates another report.
    pub fn merge(&mut self, other: StabilizeReport) {
        self.violations += other.violations;
        self.refs_evicted += other.refs_evicted;
        self.paths_corrected += other.paths_corrected;
        self.entries_rehomed += other.entries_rehomed;
        self.buddies_dropped += other.buddies_dropped;
        self.repair.merge(other.repair);
    }

    /// Total corrective actions applied (not counting the repair refill).
    pub fn corrections(&self) -> u64 {
        self.refs_evicted + self.paths_corrected + self.entries_rehomed + self.buddies_dropped
    }
}

/// The trace tag mirroring a [`Violation`] class.
fn tag_of(v: &Violation) -> ViolationTag {
    match v {
        Violation::PathTooLong { .. } => ViolationTag::PathTooLong,
        Violation::ReferenceBeyondPath { .. } => ViolationTag::BeyondPath,
        Violation::OverfullLevel { .. } => ViolationTag::Overfull,
        Violation::SelfReference { .. } => ViolationTag::SelfRef,
        Violation::ShallowReference { .. } => ViolationTag::ShallowRef,
        Violation::PrefixMismatch { .. } => ViolationTag::PrefixMismatch,
        Violation::SameSideReference { .. } => ViolationTag::SameSide,
        Violation::ReplicaPathMismatch { .. } => ViolationTag::ReplicaMismatch,
        Violation::ForeignEntry { .. } => ViolationTag::ForeignEntry,
    }
}

impl PGrid {
    /// One maintenance round for a single peer: probe every reference, drop
    /// the dead, refill levels holding fewer than `target_fill` live
    /// references (capped by `refmax`).
    ///
    /// Probes are [`MsgKind::Control`] traffic; refills reuse the ordinary
    /// randomized search.
    pub fn repair_peer(
        &mut self,
        id: PeerId,
        target_fill: usize,
        ctx: &mut Ctx<'_>,
    ) -> RepairReport {
        let mut report = RepairReport::default();
        let refmax = self.config().refmax;
        let target = target_fill.min(refmax);
        let path = self.peer(id).path();

        // An unspecialized peer has no levels to maintain; a peer whose
        // table is entirely empty has nothing to probe and no reference to
        // route a refill search past its own horizon. Both get a zeroed
        // report instead of burning probes (the stabilizer bootstraps the
        // latter back into the community first).
        if path.is_empty() || self.peer(id).routing().total_refs() == 0 {
            return report;
        }

        // Phase 1: probe and prune.
        for level in 1..=path.len() {
            let refs: Vec<PeerId> = self.peer(id).routing().level(level).as_slice().to_vec();
            for r in refs {
                report.probes += 1;
                let alive = ctx.contact(r);
                ctx.message(MsgKind::Control);
                if !alive {
                    self.routing_mut(id).level_mut(level).remove(r);
                    report.removed += 1;
                }
            }
        }

        // Phase 2: refill thin levels by searching their sibling subtrees.
        // A search may start at any peer the repairer still knows: once a
        // peer has pruned *all* of a level's references it cannot cross that
        // level itself, but a surviving reference at another level often
        // can (its own table covers the missing side).
        let mut starts: Vec<PeerId> = vec![id];
        for (_, refs) in self.peer(id).routing().iter() {
            for r in refs.as_slice() {
                if !starts.contains(r) {
                    starts.push(*r);
                }
            }
        }
        for level in 1..=path.len() {
            let mut fill = self.peer(id).routing().level(level).len();
            let mut attempts = 0;
            while fill < target && attempts < 2 * target {
                attempts += 1;
                // A random key in the sibling subtree of this level.
                let sibling_prefix = path.prefix(level).with_flipped(level - 1);
                let tail = BitPath::random(ctx.rng, self.config().maxl.saturating_sub(level) as u8);
                let probe_key = sibling_prefix.append(&tail);
                let start = starts[attempts % starts.len()];
                // Starting at a remote peer costs one message to reach it.
                if start != id {
                    if !ctx.contact(start) {
                        continue;
                    }
                    report.search_messages += 1;
                    ctx.message(MsgKind::Query);
                }
                let found = self.search(start, &probe_key, ctx);
                report.search_messages += found.messages;
                let Some(candidate) = found.responsible else {
                    continue;
                };
                if candidate == id {
                    continue;
                }
                // The responder is valid at `level` iff its path reaches the
                // level and sits on the sibling side of our prefix.
                let cpath = self.peer(candidate).path();
                let valid = cpath.len() >= level
                    && cpath.prefix(level - 1) == path.prefix(level - 1)
                    && cpath.bit(level - 1) != path.bit(level - 1);
                if valid && !self.peer(id).routing().level(level).contains(candidate) {
                    self.routing_mut(id)
                        .level_mut(level)
                        .insert_bounded(candidate, refmax, ctx.rng);
                    report.added += 1;
                    fill = self.peer(id).routing().level(level).len();
                }
            }
        }
        report
    }

    /// Runs [`PGrid::repair_peer`] for every *reachable* peer (an offline
    /// peer cannot run its own maintenance). Returns the merged report.
    pub fn repair_round(&mut self, target_fill: usize, ctx: &mut Ctx<'_>) -> RepairReport {
        let mut report = RepairReport::default();
        for i in 0..self.len() {
            let id = PeerId::from_index(i);
            // The peer itself must be up to run maintenance; this probe is
            // bookkeeping, not a message.
            if ctx.online.is_online(id, ctx.rng) {
                report.merge(self.repair_peer(id, target_fill, ctx));
            }
        }
        report
    }

    /// One self-stabilization round for a single peer: audit, correct,
    /// re-join if stranded, then run the ordinary maintenance pass.
    ///
    /// Corrections are **purely local** — they consult only the peer's own
    /// state plus paths it already knows — and deterministic: a valid peer
    /// is left byte-identical (and costs no randomness beyond what
    /// [`PGrid::repair_peer`] itself draws). Every corrective step is
    /// recorded by the flight recorder, so a trace of a chaos run names
    /// each violation found and each action taken.
    pub fn stabilize_peer(
        &mut self,
        id: PeerId,
        target_fill: usize,
        ctx: &mut Ctx<'_>,
    ) -> StabilizeReport {
        let mut report = StabilizeReport::default();
        let maxl = self.config().maxl;
        let refmax = self.config().refmax;

        let mut violations = Vec::new();
        self.audit_peer(id, &mut violations);
        report.violations = violations.len() as u64;
        for v in &violations {
            ctx.trace(|| TraceEvent::ViolationFound {
                peer: id.0 as u64,
                kind: tag_of(v),
                level: v.level() as u32,
            });
        }

        if !violations.is_empty() {
            // Path corrections first: every later sweep validates against
            // the *corrected* path.
            let path = self.peer(id).path();
            if path.len() > maxl {
                let truncated = path.prefix(maxl);
                self.overwrite_peer_path(id, truncated);
                report.paths_corrected += 1;
                ctx.trace(|| TraceEvent::PathRederived {
                    peer: id.0 as u64,
                    from_len: path.len() as u32,
                    to_len: truncated.len() as u32,
                });
            }
            // An orphaned path — every hosted entry foreign, no custody
            // flag — means the path itself is the corrupted datum. The
            // hosted keys are the best local evidence of the true path:
            // re-derive it as their longest common prefix.
            let path = self.peer(id).path();
            if !self.peer(id).has_misplaced() && !self.peer(id).index().is_empty() {
                let mut derived: Option<BitPath> = None;
                let mut all_foreign = true;
                self.peer(id)
                    .index()
                    .for_each_under(&BitPath::EMPTY, |key, _| {
                        if path.responsible_for(&key) {
                            all_foreign = false;
                        }
                        derived = Some(match derived {
                            None => key,
                            Some(d) => d.common_prefix(&key),
                        });
                    });
                if all_foreign {
                    if let Some(d) = derived {
                        let new_path = d.prefix(d.len().min(maxl));
                        self.overwrite_peer_path(id, new_path);
                        report.paths_corrected += 1;
                        ctx.trace(|| TraceEvent::PathRederived {
                            peer: id.0 as u64,
                            from_len: path.len() as u32,
                            to_len: new_path.len() as u32,
                        });
                    }
                }
            }

            // Reference sweeps against the corrected path. Validity uses
            // only locally known paths; eviction is deterministic, so a
            // clean table is untouched.
            let path = self.peer(id).path();
            let depth = self.peer(id).routing().depth();
            for level in 1..=depth {
                let refs: Vec<PeerId> = self.peer(id).routing().level(level).as_slice().to_vec();
                let mut evict: Vec<PeerId> = Vec::new();
                if level > path.len() {
                    evict = refs;
                } else {
                    for &r in &refs {
                        let valid = r != id && {
                            let other = self.peer(r).path();
                            other.len() >= level
                                && other.prefix(level - 1) == path.prefix(level - 1)
                                && other.bit(level - 1) != path.bit(level - 1)
                        };
                        if !valid {
                            evict.push(r);
                        }
                    }
                }
                for r in evict {
                    self.routing_mut(id).level_mut(level).remove(r);
                    report.refs_evicted += 1;
                    ctx.trace(|| TraceEvent::RefEvicted {
                        peer: id.0 as u64,
                        level: level as u32,
                        target: r.0 as u64,
                    });
                }
                // Trim an overfull level deterministically from the back
                // (the front holds the older, battle-tested references).
                while self.peer(id).routing().level(level).len() > refmax {
                    let r = *self
                        .peer(id)
                        .routing()
                        .level(level)
                        .as_slice()
                        .last()
                        .expect("level is overfull, so non-empty");
                    self.routing_mut(id).level_mut(level).remove(r);
                    report.refs_evicted += 1;
                    ctx.trace(|| TraceEvent::RefEvicted {
                        peer: id.0 as u64,
                        level: level as u32,
                        target: r.0 as u64,
                    });
                }
            }

            // Replica-set sweep: a buddy claiming a different path is not a
            // replica; drop the record (the buddy drops us symmetrically in
            // its own round).
            let path = self.peer(id).path();
            let bad_buddies: Vec<PeerId> = self
                .peer(id)
                .buddies()
                .filter(|&b| self.peer(b).path() != path)
                .collect();
            for b in bad_buddies {
                self.peer_mut(id).remove_buddy(b);
                report.buddies_dropped += 1;
                ctx.trace(|| TraceEvent::BuddyDropped {
                    peer: id.0 as u64,
                    buddy: b.0 as u64,
                });
            }

            // Data sweep: hand each remaining foreign entry to a peer that
            // is actually responsible, found with the ordinary search. When
            // nobody answers, keep custody and raise the misplaced flag so
            // the exchange protocol's anti-entropy finishes the job.
            if !self.peer(id).has_misplaced() {
                let path = self.peer(id).path();
                let mut foreign: Vec<pgrid_keys::Key> = Vec::new();
                self.peer(id)
                    .index()
                    .for_each_under(&BitPath::EMPTY, |key, _| {
                        if !path.responsible_for(&key) {
                            foreign.push(key);
                        }
                    });
                for key in foreign {
                    let found = self.search(id, &key, ctx);
                    report.repair.search_messages += found.messages;
                    match found.responsible {
                        Some(t) if t != id => {
                            let entries = self.peer_mut(id).index_mut().remove(&key);
                            ctx.message(MsgKind::Update);
                            for &e in entries.as_deref().unwrap_or_default() {
                                self.peer_mut(t).index_insert(key, e);
                            }
                            report.entries_rehomed += 1;
                            ctx.trace(|| TraceEvent::EntryRehomed {
                                peer: id.0 as u64,
                                to: t.0 as i64,
                                key: key.to_bit_string(),
                            });
                        }
                        _ => {
                            self.peer_mut(id).set_misplaced(true);
                            report.entries_rehomed += 1;
                            ctx.trace(|| TraceEvent::EntryRehomed {
                                peer: id.0 as u64,
                                to: -1,
                                key: key.to_bit_string(),
                            });
                        }
                    }
                }
            }
        }

        // Bootstrap re-join: a specialized peer whose table was entirely
        // evicted (or corrupted away) cannot refill through its own
        // references. Probe a few random community members; the first live
        // one whose path diverges from ours yields a valid reference at the
        // divergence level, and the ordinary refill takes it from there.
        let mut boot = RepairReport::default();
        let path = self.peer(id).path();
        if !path.is_empty() && self.peer(id).routing().total_refs() == 0 {
            for _ in 0..4 {
                let b = self.random_peer(ctx);
                if b == id {
                    continue;
                }
                boot.probes += 1;
                if !ctx.contact(b) {
                    continue;
                }
                ctx.message(MsgKind::Control);
                let bpath = self.peer(b).path();
                let lc = path.common_prefix_len(&bpath);
                if bpath.len() > lc && path.len() > lc {
                    self.routing_mut(id)
                        .level_mut(lc + 1)
                        .insert_bounded(b, refmax, ctx.rng);
                    boot.added += 1;
                    break;
                }
            }
        }

        let mut repair = self.repair_peer(id, target_fill, ctx);
        repair.merge(boot);
        report.repair = repair;

        ctx.stats.violations_detected += report.violations;
        ctx.stats.repairs_applied += report.corrections();
        report
    }

    /// Runs [`PGrid::stabilize_peer`] for every *reachable* peer, in peer
    /// order, and records one [`TraceEvent::StabilizeRound`] summarizing the
    /// round. Repeated rounds converge: once the audit is clean everywhere,
    /// further rounds apply zero corrections.
    pub fn stabilize_round(&mut self, target_fill: usize, ctx: &mut Ctx<'_>) -> StabilizeReport {
        let mut report = StabilizeReport::default();
        for i in 0..self.len() {
            let id = PeerId::from_index(i);
            if ctx.online.is_online(id, ctx.rng) {
                report.merge(self.stabilize_peer(id, target_fill, ctx));
            }
        }
        ctx.trace(|| TraceEvent::StabilizeRound {
            violations: report.violations,
            corrections: report.corrections(),
        });
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BuildOptions, PGridConfig};
    use pgrid_net::{AlwaysOnline, EpochOnline, NetStats, OnlineModel};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Builds a converged grid and permanently kills `dead_fraction` of the
    /// peers, returning the availability model reflecting that.
    fn crippled_grid(
        n: usize,
        refmax: usize,
        dead_fraction: f64,
        seed: u64,
    ) -> (PGrid, EpochOnline, StdRng, NetStats) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut stats = NetStats::new();
        let mut grid = PGrid::new(
            n,
            PGridConfig {
                maxl: 5,
                refmax,
                ..PGridConfig::default()
            },
        );
        {
            let mut online = AlwaysOnline;
            let mut ctx = Ctx::new(&mut rng, &mut online, &mut stats);
            assert!(
                grid.build(&BuildOptions::default(), &mut ctx)
                    .reached_threshold
            );
        }
        let mut online = EpochOnline::new(n, 1.0);
        let dead = (n as f64 * dead_fraction) as usize;
        for i in 0..dead {
            // Kill every k-th peer for an even spread.
            online.set_online(PeerId::from_index(i * n / dead.max(1) % n), false);
        }
        (grid, online, rng, stats)
    }

    fn success_rate(
        grid: &PGrid,
        online: &mut EpochOnline,
        rng: &mut StdRng,
        stats: &mut NetStats,
        searches: usize,
    ) -> f64 {
        let mut ctx = Ctx::new(rng, online, stats);
        let mut hits = 0;
        let mut issued = 0;
        while issued < searches {
            let start = grid.random_peer(&mut ctx);
            // Searches are issued by live peers.
            if !ctx.online.is_online(start, ctx.rng) {
                continue;
            }
            issued += 1;
            let key = BitPath::random(ctx.rng, 5);
            if grid.search(start, &key, &mut ctx).responsible.is_some() {
                hits += 1;
            }
        }
        hits as f64 / searches as f64
    }

    /// Snapshot of which peers are alive (EpochOnline is stable within an
    /// epoch, so one probe per peer suffices).
    fn alive_map(online: &mut EpochOnline, n: usize) -> Vec<bool> {
        let mut probe_rng = StdRng::seed_from_u64(0);
        (0..n)
            .map(|i| online.is_online(PeerId::from_index(i), &mut probe_rng))
            .collect()
    }

    #[test]
    fn repair_removes_dead_references() {
        let (mut grid, mut online, mut rng, mut stats) = crippled_grid(256, 3, 0.4, 1);
        let alive = alive_map(&mut online, 256);
        let dead_refs_before: usize = grid
            .peers()
            .flat_map(|p| p.routing().iter().map(|(_, r)| r.as_slice().to_vec()))
            .flatten()
            .filter(|r| !alive[r.index()])
            .count();
        assert!(dead_refs_before > 0, "the failure actually hit references");

        let report = {
            let mut ctx = Ctx::new(&mut rng, &mut online, &mut stats);
            grid.repair_round(3, &mut ctx)
        };
        assert!(report.removed as usize >= dead_refs_before / 2);
        // After repair, live peers hold no dead references.
        for p in grid.peers() {
            if !alive[p.id().index()] {
                continue;
            }
            for (_, refs) in p.routing().iter() {
                for r in refs.as_slice() {
                    assert!(alive[r.index()], "{} still references dead {r}", p.id());
                }
            }
        }
        grid.check_invariants().unwrap();
    }

    #[test]
    fn repair_restores_search_reliability() {
        let (mut grid, mut online, mut rng, mut stats) = crippled_grid(512, 2, 0.5, 2);
        let before = success_rate(&grid, &mut online, &mut rng, &mut stats, 400);
        for _ in 0..3 {
            let mut ctx = Ctx::new(&mut rng, &mut online, &mut stats);
            grid.repair_round(2, &mut ctx);
        }
        let after = success_rate(&grid, &mut online, &mut rng, &mut stats, 400);
        assert!(
            after > before + 0.05,
            "repair must measurably improve reliability: {before:.3} -> {after:.3}"
        );
        grid.check_invariants().unwrap();
    }

    #[test]
    fn repair_added_refs_respect_invariants() {
        let (mut grid, mut online, mut rng, mut stats) = crippled_grid(256, 4, 0.3, 3);
        let report = {
            let mut ctx = Ctx::new(&mut rng, &mut online, &mut stats);
            grid.repair_round(4, &mut ctx)
        };
        assert!(report.added > 0, "refill should find replacements");
        grid.check_invariants().unwrap();
    }

    /// Builds a small converged grid under `AlwaysOnline`.
    fn healthy_grid(n: usize, maxl: usize, refmax: usize, seed: u64) -> (PGrid, StdRng, NetStats) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut stats = NetStats::new();
        let mut grid = PGrid::new(
            n,
            PGridConfig {
                maxl,
                refmax,
                ..PGridConfig::default()
            },
        );
        {
            let mut online = AlwaysOnline;
            let mut ctx = Ctx::new(&mut rng, &mut online, &mut stats);
            assert!(
                grid.build(&BuildOptions::default(), &mut ctx)
                    .reached_threshold
            );
        }
        (grid, rng, stats)
    }

    #[test]
    fn repair_skips_peer_with_empty_path() {
        // A fresh grid: every peer still sits at the root with no table.
        let mut grid = PGrid::new(8, PGridConfig::default());
        let mut rng = StdRng::seed_from_u64(1);
        let mut online = AlwaysOnline;
        let mut stats = NetStats::new();
        let mut ctx = Ctx::new(&mut rng, &mut online, &mut stats);
        let report = grid.repair_peer(PeerId(0), 2, &mut ctx);
        assert_eq!(report, RepairReport::default());
        assert_eq!(stats.total(), 0, "no probes for an unspecialized peer");
        assert_eq!(stats.contact_attempts, 0);
    }

    #[test]
    fn repair_skips_peer_with_emptied_table() {
        let (mut grid, mut rng, mut stats) = healthy_grid(64, 4, 2, 9);
        let victim = PeerId(0);
        assert!(!grid.peer(victim).path().is_empty());
        let depth = grid.peer(victim).routing().depth();
        for level in 1..=depth {
            grid.overwrite_peer_refs(victim, level, &[]);
        }
        let before_msgs = stats.total();
        let before_contacts = stats.contact_attempts;
        let mut online = AlwaysOnline;
        let report = {
            let mut ctx = Ctx::new(&mut rng, &mut online, &mut stats);
            grid.repair_peer(victim, 2, &mut ctx)
        };
        assert_eq!(report, RepairReport::default());
        assert_eq!(
            stats.total(),
            before_msgs,
            "no messages without a single reference"
        );
        assert_eq!(stats.contact_attempts, before_contacts);
    }

    #[test]
    fn stabilize_bootstraps_fully_evicted_peer() {
        let (mut grid, mut rng, mut stats) = healthy_grid(64, 4, 2, 10);
        let victim = PeerId(0);
        let depth = grid.peer(victim).routing().depth();
        for level in 1..=depth {
            grid.overwrite_peer_refs(victim, level, &[]);
        }
        let mut online = AlwaysOnline;
        for _ in 0..3 {
            let mut ctx = Ctx::new(&mut rng, &mut online, &mut stats);
            grid.stabilize_peer(victim, 2, &mut ctx);
        }
        assert!(
            grid.peer(victim).routing().total_refs() > 0,
            "a stranded peer must be re-joined, not abandoned"
        );
        let mut v = Vec::new();
        grid.audit_peer(victim, &mut v);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn stabilize_converges_from_each_corruption_class() {
        let (mut grid, mut rng, mut stats) = healthy_grid(128, 4, 2, 11);
        // Seed some data so path re-derivation has evidence to work with.
        {
            let mut online = AlwaysOnline;
            let mut ctx = Ctx::new(&mut rng, &mut online, &mut stats);
            for i in 0..64u64 {
                let key = BitPath::from_value(u128::from(i * 97 % 256), 8);
                let entry = crate::IndexEntry {
                    item: pgrid_store::ItemId(i),
                    holder: grid.random_peer(&mut ctx),
                    version: pgrid_store::Version(0),
                };
                grid.seed_index(key, entry);
            }
        }
        assert!(grid.audit().is_empty(), "seeded grid starts clean");

        // One victim per corruption class.
        let a = PeerId(0); // wrong (same-side) reference
        let b = PeerId(1); // junk hosted item
        let c = PeerId(2); // inconsistent replica set
        let d = PeerId(3); // orphaned (flipped) path
        let e = PeerId(4); // self-reference
        let same_side = grid
            .peers()
            .find(|p| {
                p.id() != a && !p.path().is_empty() && p.path().bit(0) == grid.peer(a).path().bit(0)
            })
            .map(|p| p.id())
            .unwrap();
        grid.overwrite_peer_refs(a, 1, &[same_side]);
        let junk = grid.peer(b).path().with_flipped(0);
        grid.peer_mut(b).index_insert(
            junk,
            crate::IndexEntry {
                item: pgrid_store::ItemId(999),
                holder: b,
                version: pgrid_store::Version(0),
            },
        );
        let not_replica = grid
            .peers()
            .find(|p| p.id() != c && p.path() != grid.peer(c).path())
            .map(|p| p.id())
            .unwrap();
        grid.peer_mut(c).add_buddy(not_replica);
        let flipped = grid.peer(d).path().with_flipped(0);
        grid.overwrite_peer_path(d, flipped);
        grid.overwrite_peer_refs(e, 1, &[e]);

        assert!(!grid.audit().is_empty(), "corruption registers");

        let mut online = AlwaysOnline;
        let mut rounds = 0;
        loop {
            let mut ctx = Ctx::new(&mut rng, &mut online, &mut stats);
            grid.stabilize_round(2, &mut ctx);
            rounds += 1;
            if grid.audit().is_empty() {
                break;
            }
            assert!(
                rounds < 6,
                "must converge within 5 rounds: {:?}",
                grid.audit()
            );
        }
        grid.check_invariants().unwrap();
        assert!(stats.violations_detected > 0);
        assert!(stats.repairs_applied > 0);
    }

    #[test]
    fn stabilize_on_healthy_grid_detects_nothing() {
        let (mut grid, mut rng, mut stats) = healthy_grid(128, 4, 2, 12);
        let snapshot: Vec<BitPath> = grid.peers().map(|p| p.path()).collect();
        let mut online = AlwaysOnline;
        let report = {
            let mut ctx = Ctx::new(&mut rng, &mut online, &mut stats);
            grid.stabilize_round(1, &mut ctx)
        };
        assert_eq!(report.violations, 0);
        assert_eq!(report.corrections(), 0);
        assert_eq!(stats.violations_detected, 0);
        assert_eq!(stats.repairs_applied, 0);
        let after: Vec<BitPath> = grid.peers().map(|p| p.path()).collect();
        assert_eq!(snapshot, after, "stabilization must not move a valid grid");
    }

    #[test]
    fn repair_on_healthy_grid_is_cheap_noop() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut stats = NetStats::new();
        let mut grid = PGrid::new(
            128,
            PGridConfig {
                maxl: 4,
                refmax: 2,
                ..PGridConfig::default()
            },
        );
        let mut online = AlwaysOnline;
        {
            let mut ctx = Ctx::new(&mut rng, &mut online, &mut stats);
            grid.build(&BuildOptions::default(), &mut ctx);
        }
        let snapshot: Vec<_> = grid.peers().map(|p| p.routing().clone()).collect();
        let report = {
            let mut ctx = Ctx::new(&mut rng, &mut online, &mut stats);
            grid.repair_round(1, &mut ctx)
        };
        assert_eq!(report.removed, 0, "nothing to prune on a healthy grid");
        // Tables with fill ≥ 1 stay untouched.
        for (p, before) in grid.peers().zip(snapshot) {
            for (level, refs) in before.iter() {
                if !refs.is_empty() {
                    assert!(
                        !p.routing().level(level).is_empty(),
                        "repair must not empty a level"
                    );
                }
            }
        }
    }

    /// Pins one `stabilize_round` over a grid with corrupted reference
    /// levels (overfull, self-, same-side and beyond-path references) and
    /// flipped paths: the sweeps evict through `remove`, the refill adds
    /// through `insert_bounded`. Pins the report counts, a digest of every
    /// path and level slice in order, and the next RNG draw.
    #[test]
    fn stabilize_round_over_a_corrupted_grid_is_pinned() {
        use rand::Rng;
        let (mut grid, mut rng, mut stats) = healthy_grid(256, 5, 4, 13);
        let mut corrupt = StdRng::seed_from_u64(0x5eed);
        for i in (0..256).step_by(5) {
            let id = PeerId::from_index(i);
            let level = corrupt.gen_range(1..=grid.peer(id).path().len() + 1);
            let refs: Vec<PeerId> = (0..corrupt.gen_range(0..9))
                .map(|_| PeerId(corrupt.gen_range(0..256)))
                .collect();
            grid.overwrite_peer_refs(id, level, &refs);
        }
        for i in (3..256).step_by(37) {
            let id = PeerId::from_index(i);
            let flipped = grid.peer(id).path().with_flipped(0);
            grid.overwrite_peer_path(id, flipped);
        }
        assert!(!grid.audit().is_empty(), "corruption registers");
        let mut online = AlwaysOnline;
        let mut ctx = Ctx::new(&mut rng, &mut online, &mut stats);
        let report = grid.stabilize_round(4, &mut ctx);
        let next = rand::RngCore::next_u64(ctx.rng);
        let digest = crate::builder::tests::routing_digest(&grid);
        assert_eq!(
            report,
            StabilizeReport {
                violations: 466,
                refs_evicted: 399,
                paths_corrected: 0,
                entries_rehomed: 0,
                buddies_dropped: 72,
                repair: RepairReport {
                    probes: 4709,
                    removed: 0,
                    added: 351,
                    search_messages: 1809,
                },
            }
        );
        assert_eq!(digest, 0x6eb4_6a2d_b340_10bf);
        assert_eq!(next, 0x8af6_9c17_3b20_a85e);
    }
}
