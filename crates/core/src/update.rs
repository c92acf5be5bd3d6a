//! Updates and consistency — §5.2 of the paper.
//!
//! An update, unlike a search, must reach **all replicas** of a key's path.
//! The paper compares three strategies for locating replicas:
//!
//! 1. repeated randomized depth-first searches ([`FindStrategy::RepeatedDfs`]);
//! 2. the same, but each found replica also contributes the *buddies* it
//!    learned about during construction ([`FindStrategy::DfsWithBuddies`]);
//! 3. breadth-first searches following `recbreadth` references per level
//!    ([`FindStrategy::Bfs`]) — the clear winner in the paper's Fig. 5.
//!
//! §5.2 then shows a cheaper route to *query correctness*: update only a
//! sufficient fraction of replicas and let readers repeat their queries,
//! accepting the answer by majority ([`PGrid::query_repeated`]).

use std::collections::BTreeSet;
use std::collections::HashMap;

use pgrid_keys::Key;
use pgrid_net::{MsgKind, PeerId};
use pgrid_store::{ItemId, Version};
use pgrid_trace::TraceEvent;

use crate::{Ctx, PGrid};

/// How to locate the replicas of a key.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FindStrategy {
    /// `attempts` independent randomized DFS searches from random peers.
    RepeatedDfs {
        /// Number of searches.
        attempts: usize,
    },
    /// Repeated DFS where every found replica also reports its buddy list
    /// (one message per contacted buddy).
    DfsWithBuddies {
        /// Number of searches.
        attempts: usize,
    },
    /// Breadth-first search: at every routing level follow up to
    /// `recbreadth` references instead of one; repeat the whole sweep
    /// `repetition` times from different random entry points.
    Bfs {
        /// Branching factor per level.
        recbreadth: usize,
        /// Number of sweeps.
        repetition: usize,
    },
}

/// Replicas found and messages spent doing so.
#[derive(Clone, Debug, Default)]
pub struct FindReplicasOutcome {
    /// Distinct responsible peers reached.
    pub found: BTreeSet<PeerId>,
    /// Messages spent (the paper's insertion/update cost).
    pub messages: u64,
}

/// Outcome of propagating an update.
#[derive(Clone, Debug)]
pub struct UpdateOutcome {
    /// Replicas that now store the new version.
    pub updated: BTreeSet<PeerId>,
    /// Messages spent locating and updating them.
    pub messages: u64,
}

/// How a repeated-query read decides on an answer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DecisionRule {
    /// Stop once any version has `votes_target` answers; on budget
    /// exhaustion return the plurality. This is the literal "majority
    /// decision" of §5.2 — sound exactly when more than half of the
    /// (findability-weighted) replicas carry the current version.
    Majority,
    /// Versions are monotone, so the *newest* version seen is always the
    /// most recent write: stop once the newest-so-far version has been
    /// confirmed `votes_target` times; on budget exhaustion return the
    /// newest seen. Robust even when updates reached only a minority of
    /// replicas.
    NewestConfirmed,
}

/// Stopping rule of the repeated-query read.
#[derive(Clone, Copy, Debug)]
pub struct QueryPolicy {
    /// Accept once the decision rule has this many supporting answers.
    pub votes_target: usize,
    /// Give up after this many searches.
    pub max_searches: usize,
    /// The decision rule.
    pub rule: DecisionRule,
}

impl Default for QueryPolicy {
    fn default() -> Self {
        QueryPolicy {
            votes_target: 3,
            max_searches: 25,
            rule: DecisionRule::NewestConfirmed,
        }
    }
}

/// Outcome of a repeated-query majority read.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MajorityReadOutcome {
    /// The winning version, `None` when no search returned an entry.
    pub version: Option<Version>,
    /// Messages spent across all repeated searches.
    pub messages: u64,
    /// Searches performed.
    pub searches: u64,
}

impl PGrid {
    /// Locates replicas of `key` using `strategy`.
    pub fn find_replicas(
        &self,
        key: &Key,
        strategy: FindStrategy,
        ctx: &mut Ctx<'_>,
    ) -> FindReplicasOutcome {
        let mut out = FindReplicasOutcome::default();
        match strategy {
            FindStrategy::RepeatedDfs { attempts } => {
                for _ in 0..attempts {
                    let start = self.random_peer(ctx);
                    let res = self.search(start, key, ctx);
                    out.messages += res.messages;
                    if let Some(peer) = res.responsible {
                        out.found.insert(peer);
                    }
                }
            }
            FindStrategy::DfsWithBuddies { attempts } => {
                for _ in 0..attempts {
                    let start = self.random_peer(ctx);
                    let res = self.search(start, key, ctx);
                    out.messages += res.messages;
                    if let Some(peer) = res.responsible {
                        if out.found.insert(peer) {
                            // A newly found replica shares its buddy list;
                            // contacting each (online) buddy is one message.
                            let buddies: Vec<PeerId> = self.peer(peer).buddies().collect();
                            for b in buddies {
                                if !out.found.contains(&b) && ctx.contact(b) {
                                    out.messages += 1;
                                    ctx.message(MsgKind::Update);
                                    if self.peer(b).responsible_for(key) {
                                        out.found.insert(b);
                                    }
                                }
                            }
                        }
                    }
                }
            }
            FindStrategy::Bfs {
                recbreadth,
                repetition,
            } => {
                for _ in 0..repetition {
                    let start = self.random_peer(ctx);
                    self.bfs_rec(start, *key, 0, recbreadth, &mut out, ctx);
                }
            }
        }
        out
    }

    /// The breadth-first variant of Fig. 2: at every divergence level the
    /// query fans out to up to `recbreadth` (online) references, collecting
    /// every responsible peer it reaches.
    fn bfs_rec(
        &self,
        a: PeerId,
        p: Key,
        l: usize,
        recbreadth: usize,
        out: &mut FindReplicasOutcome,
        ctx: &mut Ctx<'_>,
    ) {
        let path = self.peer(a).path();
        let rempath = path.suffix(l);
        let com = p.common_prefix_len(&rempath);

        if com == p.len() || com == rempath.len() {
            out.found.insert(a);
            return;
        }
        let querypath = p.suffix(com);
        let level = l + com + 1;
        // Shuffle this level's references into the shared scratch arena and
        // walk them by index — recursive sweeps append past `end` and
        // truncate back, so the slice stays valid and no per-level Vec is
        // allocated. Draw order matches the old owning `shuffled` exactly.
        let (base, end) = {
            let (rng, scratch) = ctx.parts();
            let base = scratch.ref_arena.len();
            self.peer(a)
                .routing()
                .level(level)
                .shuffled_into(rng, &mut scratch.ref_arena);
            (base, scratch.ref_arena.len())
        };
        let mut followed = 0usize;
        for i in base..end {
            if followed >= recbreadth {
                break;
            }
            let r = ctx.scratch_mut().ref_arena[i];
            if ctx.contact(r) {
                followed += 1;
                out.messages += 1;
                ctx.message(MsgKind::Update);
                self.bfs_rec(r, querypath, l + com, recbreadth, out, ctx);
            }
        }
        ctx.scratch_mut().ref_arena.truncate(base);
    }

    /// Propagates a new version of `(key, item)` to every replica located by
    /// `strategy`. Applying the update rides on the locating message, so the
    /// cost is the locating cost.
    pub fn update_item(
        &mut self,
        key: &Key,
        item: ItemId,
        version: Version,
        strategy: FindStrategy,
        ctx: &mut Ctx<'_>,
    ) -> UpdateOutcome {
        let located = self.find_replicas(key, strategy, ctx);
        let mut updated = BTreeSet::new();
        for &peer in &located.found {
            if self.peer_mut(peer).index_apply_update(key, item, version) {
                updated.insert(peer);
            }
            ctx.trace(|| TraceEvent::ReplicaFanout {
                replica: u64::from(peer.0),
                update: true,
            });
        }
        UpdateOutcome {
            updated,
            messages: located.messages,
        }
    }

    /// Inserts a fresh index entry at every replica `strategy` can reach.
    /// Returns the replicas that now carry the entry and the messages spent.
    pub fn insert_item(
        &mut self,
        key: &Key,
        entry: crate::IndexEntry,
        strategy: FindStrategy,
        ctx: &mut Ctx<'_>,
    ) -> UpdateOutcome {
        let located = self.find_replicas(key, strategy, ctx);
        for &peer in &located.found {
            self.peer_mut(peer).index_insert(*key, entry);
            ctx.trace(|| TraceEvent::ReplicaFanout {
                replica: u64::from(peer.0),
                update: false,
            });
        }
        UpdateOutcome {
            updated: located.found,
            messages: located.messages,
        }
    }

    /// A single (non-repetitive) read: one search; the answer is whatever
    /// version the found replica stores. §5.2's "non-repetitive search".
    pub fn query_once(&self, key: &Key, item: ItemId, ctx: &mut Ctx<'_>) -> MajorityReadOutcome {
        let start = self.random_peer(ctx);
        let (outcome, version) = self.search_version(start, key, item, ctx);
        MajorityReadOutcome {
            version,
            messages: outcome.messages,
            searches: 1,
        }
    }

    /// The repeated-query read of §5.2: keep searching from random entry
    /// points, tallying the returned versions, until the decision rule is
    /// satisfied (or the search budget runs out).
    ///
    /// *"Obviously, if more than half of the replicas are correct, by
    /// repeating queries, arbitrarily high reliability can be achieved by a
    /// making majority decision."* — [`DecisionRule::Majority`]. Because
    /// versions are monotone, [`DecisionRule::NewestConfirmed`] (the
    /// default) remains sound even below the 50% threshold; see
    /// EXPERIMENTS.md for how this maps onto the paper's T6 numbers.
    pub fn query_repeated(
        &self,
        key: &Key,
        item: ItemId,
        policy: &QueryPolicy,
        ctx: &mut Ctx<'_>,
    ) -> MajorityReadOutcome {
        let mut votes: HashMap<Version, usize> = HashMap::new();
        let mut newest: Option<Version> = None;
        let mut messages = 0u64;
        let mut searches = 0u64;
        while searches < policy.max_searches as u64 {
            let start = self.random_peer(ctx);
            let (outcome, version) = self.search_version(start, key, item, ctx);
            messages += outcome.messages;
            searches += 1;
            if let Some(v) = version {
                let tally = votes.entry(v).or_insert(0);
                *tally += 1;
                newest = Some(newest.map_or(v, |n| n.max(v)));
                let accepted = match policy.rule {
                    DecisionRule::Majority => *tally >= policy.votes_target,
                    DecisionRule::NewestConfirmed => {
                        newest == Some(v) && *tally >= policy.votes_target
                    }
                };
                if accepted {
                    return MajorityReadOutcome {
                        version: Some(v),
                        messages,
                        searches,
                    };
                }
            }
        }
        let winner = match policy.rule {
            DecisionRule::Majority => votes
                .iter()
                .max_by_key(|(v, c)| (**c, v.0))
                .map(|(v, _)| *v),
            DecisionRule::NewestConfirmed => newest,
        };
        MajorityReadOutcome {
            version: winner,
            messages,
            searches,
        }
    }

    /// Backwards-compatible alias for [`PGrid::query_repeated`].
    #[deprecated(note = "renamed to query_repeated; the default rule is NewestConfirmed")]
    pub fn query_majority(
        &self,
        key: &Key,
        item: ItemId,
        policy: &QueryPolicy,
        ctx: &mut Ctx<'_>,
    ) -> MajorityReadOutcome {
        self.query_repeated(key, item, policy, ctx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BuildOptions, IndexEntry, PGridConfig};
    use pgrid_keys::BitPath;
    use pgrid_net::{AlwaysOnline, BernoulliOnline, NetStats};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// A converged grid with a seeded index entry on a known key.
    fn setup(n: usize, maxl: usize, refmax: usize, seed: u64) -> (PGrid, Key) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut online = AlwaysOnline;
        let mut stats = NetStats::new();
        let mut ctx = Ctx::new(&mut rng, &mut online, &mut stats);
        let mut g = PGrid::new(
            n,
            PGridConfig {
                maxl,
                refmax,
                ..PGridConfig::default()
            },
        );
        let report = g.build(&BuildOptions::default(), &mut ctx);
        assert!(report.reached_threshold);
        let key = BitPath::from_str_lossy("0110");
        g.seed_index(
            key,
            IndexEntry {
                item: ItemId(1),
                holder: PeerId(0),
                version: Version(0),
            },
        );
        (g, key)
    }

    fn fresh_ctx(seed: u64) -> (StdRng, AlwaysOnline, NetStats) {
        (StdRng::seed_from_u64(seed), AlwaysOnline, NetStats::new())
    }

    #[test]
    fn repeated_dfs_finds_some_replicas() {
        let (g, key) = setup(256, 4, 2, 3);
        let (mut rng, mut online, mut stats) = fresh_ctx(4);
        let mut ctx = Ctx::new(&mut rng, &mut online, &mut stats);
        let out = g.find_replicas(&key, FindStrategy::RepeatedDfs { attempts: 20 }, &mut ctx);
        assert!(!out.found.is_empty());
        for p in &out.found {
            assert!(g.peer(*p).responsible_for(&key));
        }
        let truth: BTreeSet<PeerId> = g.replicas_of(&key).into_iter().collect();
        assert!(out.found.is_subset(&truth));
    }

    #[test]
    fn bfs_finds_more_replicas_per_message_than_dfs() {
        let (g, key) = setup(512, 4, 4, 5);
        let truth = g.replicas_of(&key).len() as f64;

        let (mut rng, mut online, mut stats) = fresh_ctx(6);
        let mut ctx = Ctx::new(&mut rng, &mut online, &mut stats);
        let bfs = g.find_replicas(
            &key,
            FindStrategy::Bfs {
                recbreadth: 3,
                repetition: 2,
            },
            &mut ctx,
        );
        let dfs = g.find_replicas(&key, FindStrategy::RepeatedDfs { attempts: 10 }, &mut ctx);

        let bfs_recall = bfs.found.len() as f64 / truth;
        let dfs_recall = dfs.found.len() as f64 / truth;
        let bfs_eff = bfs.found.len() as f64 / bfs.messages.max(1) as f64;
        let dfs_eff = dfs.found.len() as f64 / dfs.messages.max(1) as f64;
        assert!(
            bfs_recall >= dfs_recall || bfs_eff > dfs_eff,
            "BFS should dominate: bfs {}/{} msgs, dfs {}/{} msgs, truth {}",
            bfs.found.len(),
            bfs.messages,
            dfs.found.len(),
            dfs.messages,
            truth
        );
    }

    #[test]
    fn buddies_extend_dfs_coverage() {
        // Build a grid where buddies exist (more peers than leaf slots).
        let (mut g, key) = setup(256, 3, 2, 7);
        // Force buddy knowledge: meet same-path peers at maxl.
        let groups = g.replica_groups();
        let mut rng = StdRng::seed_from_u64(8);
        let mut online = AlwaysOnline;
        let mut stats = NetStats::new();
        let mut ctx = Ctx::new(&mut rng, &mut online, &mut stats);
        for members in groups.values() {
            for pair in members.windows(2) {
                g.exchange(pair[0], pair[1], &mut ctx);
            }
        }
        let with = g.find_replicas(&key, FindStrategy::DfsWithBuddies { attempts: 5 }, &mut ctx);
        let without = g.find_replicas(&key, FindStrategy::RepeatedDfs { attempts: 5 }, &mut ctx);
        assert!(
            with.found.len() >= without.found.len(),
            "buddies must not reduce coverage ({} vs {})",
            with.found.len(),
            without.found.len()
        );
    }

    #[test]
    fn update_then_query_sees_new_version() {
        let (mut g, key) = setup(256, 4, 2, 9);
        let (mut rng, mut online, mut stats) = fresh_ctx(10);
        let mut ctx = Ctx::new(&mut rng, &mut online, &mut stats);
        let up = g.update_item(
            &key,
            ItemId(1),
            Version(1),
            FindStrategy::Bfs {
                recbreadth: 3,
                repetition: 3,
            },
            &mut ctx,
        );
        assert!(!up.updated.is_empty());
        assert!(g.replicas_of(&key).len() >= up.updated.len());
        // A majority read should find the new version.
        let read = g.query_repeated(&key, ItemId(1), &QueryPolicy::default(), &mut ctx);
        assert!(read.version == Some(Version(1)) || read.version == Some(Version(0)));
        // Updated replicas really store v1.
        for p in &up.updated {
            let entry = g.peer(*p).index_lookup(&key)[0];
            assert_eq!(entry.version, Version(1));
        }
    }

    #[test]
    fn insert_item_places_entries_at_found_replicas() {
        let (mut g, _) = setup(256, 4, 2, 11);
        let key = BitPath::from_str_lossy("1010");
        let entry = IndexEntry {
            item: ItemId(9),
            holder: PeerId(3),
            version: Version(0),
        };
        let (mut rng, mut online, mut stats) = fresh_ctx(12);
        let mut ctx = Ctx::new(&mut rng, &mut online, &mut stats);
        let out = g.insert_item(
            &key,
            entry,
            FindStrategy::Bfs {
                recbreadth: 2,
                repetition: 2,
            },
            &mut ctx,
        );
        assert!(!out.updated.is_empty());
        for p in &out.updated {
            assert_eq!(g.peer(*p).index_lookup(&key), &[entry]);
        }
    }

    #[test]
    fn majority_read_overcomes_stale_minority() {
        let (mut g, key) = setup(256, 4, 2, 13);
        // Manually update ~70% of replicas to v2, leaving a stale minority.
        let replicas = g.replicas_of(&key);
        let updated_count = replicas.len() * 7 / 10;
        for &p in replicas.iter().take(updated_count) {
            g.peer_mut(p)
                .index_apply_update(&key, ItemId(1), Version(2));
        }
        let (mut rng, mut online, mut stats) = fresh_ctx(14);
        let mut ctx = Ctx::new(&mut rng, &mut online, &mut stats);
        let mut majority_correct = 0;
        for _ in 0..20 {
            let read = g.query_repeated(&key, ItemId(1), &QueryPolicy::default(), &mut ctx);
            if read.version == Some(Version(2)) {
                majority_correct += 1;
            }
        }
        assert!(
            majority_correct >= 15,
            "majority reads should usually win: {majority_correct}/20"
        );
    }

    #[test]
    fn query_once_is_cheap_but_fallible() {
        let (mut g, key) = setup(256, 4, 2, 15);
        let replicas = g.replicas_of(&key);
        // Update only ~30% — single reads will often be stale.
        for &p in replicas.iter().take(replicas.len() * 3 / 10) {
            g.peer_mut(p)
                .index_apply_update(&key, ItemId(1), Version(2));
        }
        let (mut rng, mut online, mut stats) = fresh_ctx(16);
        let mut ctx = Ctx::new(&mut rng, &mut online, &mut stats);
        let mut fresh = 0;
        let mut total_msgs = 0u64;
        for _ in 0..50 {
            let read = g.query_once(&key, ItemId(1), &mut ctx);
            total_msgs += read.messages;
            if read.version == Some(Version(2)) {
                fresh += 1;
            }
        }
        assert!(
            fresh < 45,
            "with 30% updated, misses must occur: {fresh}/50"
        );
        assert!(total_msgs / 50 < 20, "single reads stay cheap");
    }

    #[test]
    fn majority_rule_follows_the_crowd_even_when_stale() {
        // The literal §5.2 majority rule: when updates reached only a
        // minority of replicas, the majority decision returns the *stale*
        // version — the documented failure mode that motivates the
        // newest-confirmed default.
        let (mut g, key) = setup(256, 4, 2, 19);
        let replicas = g.replicas_of(&key);
        // Update ~25% of replicas, spread across the id space so the fresh
        // copies are as findable as the stale ones.
        for &p in replicas.iter().step_by(4) {
            g.peer_mut(p)
                .index_apply_update(&key, ItemId(1), Version(2));
        }
        let (mut rng, mut online, mut stats) = fresh_ctx(20);
        let mut ctx = Ctx::new(&mut rng, &mut online, &mut stats);
        let majority_policy = QueryPolicy {
            votes_target: 3,
            max_searches: 25,
            rule: DecisionRule::Majority,
        };
        let newest_policy = QueryPolicy::default();
        let mut majority_stale = 0;
        let mut newest_fresh = 0;
        for _ in 0..20 {
            let m = g.query_repeated(&key, ItemId(1), &majority_policy, &mut ctx);
            if m.version == Some(Version(0)) {
                majority_stale += 1;
            }
            let n = g.query_repeated(&key, ItemId(1), &newest_policy, &mut ctx);
            if n.version == Some(Version(2)) {
                newest_fresh += 1;
            }
        }
        assert!(
            majority_stale >= 15,
            "majority should usually return stale: {majority_stale}/20"
        );
        assert!(
            newest_fresh >= 12,
            "newest-confirmed should usually return fresh: {newest_fresh}/20"
        );
        assert!(
            newest_fresh > 20 - majority_stale,
            "newest-confirmed must beat majority here"
        );
    }

    #[test]
    fn repeated_read_budget_is_respected() {
        let (g, key) = setup(128, 4, 2, 21);
        let (mut rng, mut online, mut stats) = fresh_ctx(22);
        let mut ctx = Ctx::new(&mut rng, &mut online, &mut stats);
        // No entry exists for this item: every search answers without a
        // version, so the read must stop exactly at the budget.
        let policy = QueryPolicy {
            votes_target: 3,
            max_searches: 7,
            rule: DecisionRule::NewestConfirmed,
        };
        let read = g.query_repeated(&key, ItemId(999), &policy, &mut ctx);
        assert_eq!(read.searches, 7);
        assert_eq!(read.version, None);
    }

    #[test]
    fn find_replicas_under_churn_still_sound() {
        let (g, key) = setup(256, 4, 4, 17);
        let mut rng = StdRng::seed_from_u64(18);
        let mut online = BernoulliOnline::new(0.3);
        let mut stats = NetStats::new();
        let mut ctx = Ctx::new(&mut rng, &mut online, &mut stats);
        let out = g.find_replicas(
            &key,
            FindStrategy::Bfs {
                recbreadth: 2,
                repetition: 3,
            },
            &mut ctx,
        );
        for p in &out.found {
            assert!(g.peer(*p).responsible_for(&key));
        }
    }
}
