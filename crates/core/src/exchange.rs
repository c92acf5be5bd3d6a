//! The P-Grid construction algorithm — the paper's Fig. 3 `exchange`.
//!
//! Whenever two peers meet they refine the access structure:
//!
//! * they **mix reference sets** at the level(s) where their paths agree;
//! * **Case 1** — both paths are identical (and below `maxl`): introduce a
//!   new level, one peer taking the `0` side, the other the `1` side, each
//!   referencing the other;
//! * **Case 2/3** — one path is a proper prefix of the other: the shorter
//!   peer specializes *opposite* to the longer peer's next bit (which keeps
//!   the trie balanced) and the two reference each other at the new level;
//! * **Case 4** — the paths diverge: each peer introduces the other to its
//!   own references on the divergent side and recursion continues there,
//!   bounded by `recmax` depth and `recfanout` partners per side;
//! * identical paths *at* `maxl` cannot split further — the peers become
//!   **buddies** (replicas that know each other, used by update strategy 2).
//!
//! Data hand-off: when a peer specializes, the index entries that no longer
//! fall under its path move to the exchange partner (or stay, if the partner
//! is not responsible either — see `rebalance_pair_data`).

use pgrid_keys::Key;
use pgrid_net::{MsgKind, PeerId};
use pgrid_proto::{classify, random_select, split_bits, union_into, ExchangeCase, SplitBitPolicy};
use pgrid_trace::TraceEvent;

use crate::{Ctx, IndexEntry, KeyEntries, PGrid, Peer};

/// After one or both partners specialized, move index entries to
/// whichever of the two is (still) responsible.
fn rebalance_pair(p1: &mut Peer, p2: &mut Peer) {
    let path1 = p1.path();
    let path2 = p2.path();
    let moved1 = p1.index_mut().extract_not_under(&path1);
    let moved2 = p2.index_mut().extract_not_under(&path2);
    place_entries_pair(moved1, p2, p1);
    place_entries_pair(moved2, p1, p2);
}

/// Installs extracted entries at `prefer` when it is responsible, else
/// back at `fallback`. A key that matches neither (possible in Case 2/3
/// when the longer partner is more specific than the key's branch) stays
/// at `fallback` with its *misplaced* flag set, to be re-homed by the
/// anti-entropy step of a later meeting.
fn place_entries_pair(
    moved: Vec<(Key, KeyEntries<IndexEntry>)>,
    prefer: &mut Peer,
    fallback: &mut Peer,
) {
    for (key, entries) in moved {
        let target = if prefer.responsible_for(&key) {
            &mut *prefer
        } else {
            &mut *fallback
        };
        let misplaced = !target.responsible_for(&key);
        for &e in entries.iter() {
            target.index_insert(key, e);
        }
        if misplaced {
            target.set_misplaced(true);
        }
    }
}

/// Moves entries `holder` is not responsible for over to `partner` when
/// *it* is (or at least is strictly closer to the key's branch), then
/// recomputes the misplaced flag.
fn settle_misplaced_pair(holder: &mut Peer, partner: &mut Peer) {
    if !holder.has_misplaced() {
        return;
    }
    let holder_path = holder.path();
    let partner_path = partner.path();
    let mut strays = Vec::new();
    holder
        .index()
        .for_each_under(&pgrid_keys::BitPath::EMPTY, |key, _| {
            if !holder_path.responsible_for(&key) {
                strays.push(key);
            }
        });
    let mut remaining = false;
    for key in strays {
        let to_partner = partner_path.responsible_for(&key)
            || key.common_prefix_len(&partner_path) > key.common_prefix_len(&holder_path);
        if to_partner {
            if let Some(entries) = holder.index_mut().remove(&key) {
                let misplaced = !partner.responsible_for(&key);
                for &e in entries.iter() {
                    partner.index_insert(key, e);
                }
                if misplaced {
                    partner.set_misplaced(true);
                }
            }
        } else {
            remaining = true;
        }
    }
    holder.set_misplaced(remaining);
}

impl PGrid {
    /// Two peers meet and run the exchange algorithm (paper Fig. 3).
    ///
    /// Returns the number of `exchange` invocations performed, including
    /// recursive ones — the paper's construction-cost unit `e`.
    pub fn exchange(&mut self, a1: PeerId, a2: PeerId, ctx: &mut Ctx<'_>) -> u64 {
        self.exchange_rec(a1, a2, 0, ctx)
    }

    pub(crate) fn exchange_rec(
        &mut self,
        a1: PeerId,
        a2: PeerId,
        r: u32,
        ctx: &mut Ctx<'_>,
    ) -> u64 {
        if a1 == a2 {
            // A peer can be handed a reference to its own partner during
            // recursion; meeting oneself is a no-op and not counted.
            return 0;
        }
        ctx.message(MsgKind::Exchange);
        let cfg = *self.config();
        let (rng, scratch) = ctx.parts();
        let (p1, p2) = self.pair_mut(a1, a2);

        // Anti-entropy: a meeting is an opportunity to re-home index
        // entries a previous hand-off could not place at a responsible
        // peer (misplaced entries are rare; the flag keeps this O(1) on
        // the common path).
        settle_misplaced_pair(p1, p2);
        settle_misplaced_pair(p2, p1);

        let path1 = p1.path();
        let path2 = p2.path();
        // The case analysis itself is the shared sans-I/O kernel — the same
        // classification the live node's offer/answer handshake runs.
        let (lc, case) = classify(&path1, &path2, cfg.maxl);

        // Mix reference sets where the paths agree. The paper's pseudocode
        // mixes only the deepest common level `lc`; `exchange_all_levels`
        // extends that to every shared level (ablation knob). Each partner
        // takes its own random selection from the union of the pre-update
        // sets: the union is built once into scratch, copied, and each copy
        // shuffled and truncated in turn — the draws of two one-shot mixes
        // — then installed over the existing level slices, so a warm
        // exchange allocates no scratch.
        if lc > 0 {
            let first = if cfg.exchange_all_levels { 1 } else { lc };
            let (mix_a, mix_b, seen) = scratch.mix_buffers();
            for level in first..=lc {
                union_into(
                    p1.routing().level(level).as_slice(),
                    p2.routing().level(level).as_slice(),
                    mix_a,
                    seen,
                );
                mix_b.clone_from(mix_a);
                random_select(mix_a, cfg.refmax, rng);
                random_select(mix_b, cfg.refmax, rng);
                p1.routing_mut().level_mut(level).overwrite(mix_a);
                p2.routing_mut().level_mut(level).overwrite(mix_b);
            }
        }

        let mut new_path_bits = 0u64;
        // Which bit (if any) each side appended this meeting, for the trace
        // event below; −1 means "no path change".
        let mut bit_first: i8 = -1;
        let mut bit_second: i8 = -1;
        match case {
            // Case 1: identical paths below maxl — split a fresh level. The
            // synchronous driver applies both halves atomically, so the Fixed
            // bit policy (p1 → 0, p2 → 1, no RNG draw) is sound.
            ExchangeCase::Split => {
                let (bit1, bit2) = split_bits(SplitBitPolicy::Fixed, rng);
                p1.extend_path(bit1);
                p2.extend_path(bit2);
                bit_first = bit1 as i8;
                bit_second = bit2 as i8;
                new_path_bits = 2;
                p1.routing_mut().set_level(lc + 1, &[p2.id()]);
                p2.routing_mut().set_level(lc + 1, &[p1.id()]);
                rebalance_pair(p1, p2);
            }
            // Identical paths at maxl — the peers are replicas: buddies.
            ExchangeCase::Replicas => {
                p1.add_buddy(p2.id());
                p2.add_buddy(p1.id());
            }
            // Case 2: a1's path is a proper prefix of a2's — a1 specializes
            // opposite to a2's next bit.
            ExchangeCase::FirstSpecializes { bit } => {
                p1.extend_path(bit);
                bit_first = bit as i8;
                new_path_bits = 1;
                p1.routing_mut().set_level(lc + 1, &[p2.id()]);
                p2.routing_mut()
                    .level_mut(lc + 1)
                    .insert_bounded(p1.id(), cfg.refmax, rng);
                rebalance_pair(p1, p2);
            }
            // Case 3: symmetric to Case 2.
            ExchangeCase::SecondSpecializes { bit } => {
                p2.extend_path(bit);
                bit_second = bit as i8;
                new_path_bits = 1;
                p2.routing_mut().set_level(lc + 1, &[p1.id()]);
                p1.routing_mut()
                    .level_mut(lc + 1)
                    .insert_bounded(p2.id(), cfg.refmax, rng);
                rebalance_pair(p1, p2);
            }
            // Case 4: paths diverge right after the common prefix; recursion
            // into the divergent side follows below.
            ExchangeCase::Diverged => {
                if cfg.add_ref_on_divergence {
                    p1.routing_mut()
                        .level_mut(lc + 1)
                        .insert_bounded(p2.id(), cfg.refmax, rng);
                    p2.routing_mut()
                        .level_mut(lc + 1)
                        .insert_bounded(p1.id(), cfg.refmax, rng);
                }
            }
            // One path a prefix of the other with the shorter already at maxl:
            // it cannot extend, nothing structural to do.
            ExchangeCase::Saturated => {}
        }
        self.add_path_bits(new_path_bits);
        ctx.trace(|| TraceEvent::Exchange {
            first: u64::from(a1.0),
            second: u64::from(a2.0),
            case: (&case).into(),
            lc: lc as u32,
            bit_first,
            bit_second,
        });
        let mut calls = 1u64;
        if case == ExchangeCase::Diverged {
            calls += self.recurse_divergence(a1, a2, lc + 1, r, ctx);
        }
        calls
    }

    /// Case-4 continuation: each partner exchanges with the other's
    /// references on the divergent side (they live on *its* side of the
    /// split), bounded by `recmax` depth and `recfanout` partners per side.
    fn recurse_divergence(
        &mut self,
        a1: PeerId,
        a2: PeerId,
        level: usize,
        r: u32,
        ctx: &mut Ctx<'_>,
    ) -> u64 {
        let cfg = *self.config();
        if r >= cfg.recmax {
            return 0;
        }
        let fanout = cfg.recfanout.unwrap_or(usize::MAX);
        // Sample both partners' recursion candidates into the shared scratch
        // arena (same RNG draw order as sampling each into its own
        // buffer). The contact loops index the arena by position: deeper
        // recursive activations append past `end` and truncate back to it
        // on exit, so `base..end` stays valid throughout.
        let (base, split, end) = {
            let (rng, scratch) = ctx.parts();
            let base = scratch.ref_arena.len();
            self.peer(a1).routing().level(level).sample_excluding_into(
                fanout,
                a2,
                rng,
                &mut scratch.ref_arena,
            );
            let split = scratch.ref_arena.len();
            self.peer(a2).routing().level(level).sample_excluding_into(
                fanout,
                a1,
                rng,
                &mut scratch.ref_arena,
            );
            (base, split, scratch.ref_arena.len())
        };
        let mut calls = 0u64;
        for i in base..split {
            let r1 = ctx.scratch_mut().ref_arena[i];
            if ctx.contact(r1) {
                calls += self.exchange_rec(a2, r1, r + 1, ctx);
            }
        }
        for i in split..end {
            let r2 = ctx.scratch_mut().ref_arena[i];
            if ctx.contact(r2) {
                calls += self.exchange_rec(a1, r2, r + 1, ctx);
            }
        }
        ctx.scratch_mut().ref_arena.truncate(base);
        calls
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{OwnedCtx, PGridConfig, SearchOutcome};
    use pgrid_keys::BitPath;
    use pgrid_net::AlwaysOnline;
    use pgrid_store::{ItemId, Version};

    /// Task 0 continues the master stream, so this reproduces the RNG
    /// draws of the old hand-rolled `(StdRng, AlwaysOnline, NetStats)`
    /// helper bit for bit.
    fn owned_ctx() -> OwnedCtx {
        Ctx::fork_for_task(11, 0, Box::new(AlwaysOnline))
    }

    fn grid(n: usize, maxl: usize) -> PGrid {
        PGrid::new(
            n,
            PGridConfig {
                maxl,
                ..PGridConfig::default()
            },
        )
    }

    #[test]
    fn case1_splits_fresh_peers() {
        let mut owned = owned_ctx();
        let mut ctx = owned.ctx();
        let mut g = grid(2, 4);
        let calls = g.exchange(PeerId(0), PeerId(1), &mut ctx);
        assert_eq!(calls, 1);
        assert_eq!(g.peer(PeerId(0)).path(), BitPath::from_str_lossy("0"));
        assert_eq!(g.peer(PeerId(1)).path(), BitPath::from_str_lossy("1"));
        assert!(g.peer(PeerId(0)).routing().level(1).contains(PeerId(1)));
        assert!(g.peer(PeerId(1)).routing().level(1).contains(PeerId(0)));
        assert!(g.check_invariants().is_ok());
    }

    #[test]
    fn case1_repeated_meetings_deepen_paths() {
        let mut owned = owned_ctx();
        let mut ctx = owned.ctx();
        let mut g = grid(2, 4);
        for _ in 0..10 {
            g.exchange(PeerId(0), PeerId(1), &mut ctx);
        }
        // After the first split the paths diverge at level 1, so further
        // meetings are Case 4 with nothing to recurse into — paths stay.
        assert_eq!(g.peer(PeerId(0)).path().len(), 1);
        assert_eq!(g.peer(PeerId(1)).path().len(), 1);
        assert!(g.check_invariants().is_ok());
    }

    #[test]
    fn case2_shorter_peer_specializes_opposite() {
        let mut owned = owned_ctx();
        let mut ctx = owned.ctx();
        let mut g = grid(3, 4);
        // Peer 1 already owns "10"; peer 0 is fresh (empty path).
        g.extend_peer_path(PeerId(1), 1);
        g.extend_peer_path(PeerId(1), 0);
        g.exchange(PeerId(0), PeerId(1), &mut ctx);
        // lc = 0, a1 empty → a1 takes the flip of peer 1's bit 0: "0".
        assert_eq!(g.peer(PeerId(0)).path(), BitPath::from_str_lossy("0"));
        assert!(g.peer(PeerId(0)).routing().level(1).contains(PeerId(1)));
        assert!(g.peer(PeerId(1)).routing().level(1).contains(PeerId(0)));
        assert!(g.check_invariants().is_ok());
    }

    #[test]
    fn case3_is_symmetric_to_case2() {
        let mut owned = owned_ctx();
        let mut ctx = owned.ctx();
        let mut g = grid(3, 4);
        g.extend_peer_path(PeerId(0), 1);
        g.extend_peer_path(PeerId(0), 0);
        g.exchange(PeerId(0), PeerId(1), &mut ctx);
        assert_eq!(g.peer(PeerId(1)).path(), BitPath::from_str_lossy("0"));
        assert!(g.check_invariants().is_ok());
    }

    #[test]
    fn case2_respects_common_prefix() {
        let mut owned = owned_ctx();
        let mut ctx = owned.ctx();
        let mut g = grid(3, 4);
        // Peer 0 owns "0", peer 1 owns "01" — prefix relation with lc = 1.
        g.extend_peer_path(PeerId(0), 0);
        g.extend_peer_path(PeerId(1), 0);
        g.extend_peer_path(PeerId(1), 1);
        g.exchange(PeerId(0), PeerId(1), &mut ctx);
        // Peer 0 must extend to "00" (opposite of peer 1's bit at level 2).
        assert_eq!(g.peer(PeerId(0)).path(), BitPath::from_str_lossy("00"));
        assert!(g.peer(PeerId(0)).routing().level(2).contains(PeerId(1)));
        assert!(g.peer(PeerId(1)).routing().level(2).contains(PeerId(0)));
        assert!(g.check_invariants().is_ok());
    }

    #[test]
    fn maxl_stops_specialization_and_makes_buddies() {
        let mut owned = owned_ctx();
        let mut ctx = owned.ctx();
        let mut g = grid(2, 1);
        g.exchange(PeerId(0), PeerId(1), &mut ctx); // split to "0"/"1"
        let before0 = g.peer(PeerId(0)).path();
        g.exchange(PeerId(0), PeerId(1), &mut ctx); // diverged, nothing to do
        assert_eq!(g.peer(PeerId(0)).path(), before0);

        // Force both to the same maxl path: fresh grid, hand-build.
        let mut g = grid(2, 1);
        g.extend_peer_path(PeerId(0), 1);
        g.extend_peer_path(PeerId(1), 1);
        g.exchange(PeerId(0), PeerId(1), &mut ctx);
        assert_eq!(g.peer(PeerId(0)).path().len(), 1, "cannot exceed maxl");
        assert!(g.peer(PeerId(0)).buddies().any(|b| b == PeerId(1)));
        assert!(g.peer(PeerId(1)).buddies().any(|b| b == PeerId(0)));
    }

    #[test]
    fn case4_adds_divergence_refs() {
        let mut owned = owned_ctx();
        let mut ctx = owned.ctx();
        let mut g = grid(2, 4);
        g.extend_peer_path(PeerId(0), 0);
        g.extend_peer_path(PeerId(0), 0);
        g.extend_peer_path(PeerId(1), 1);
        g.exchange(PeerId(0), PeerId(1), &mut ctx);
        assert!(g.peer(PeerId(0)).routing().level(1).contains(PeerId(1)));
        assert!(g.peer(PeerId(1)).routing().level(1).contains(PeerId(0)));
        assert!(g.check_invariants().is_ok());
    }

    #[test]
    fn case4_divergence_refs_can_be_disabled() {
        let mut owned = owned_ctx();
        let mut ctx = owned.ctx();
        let mut g = PGrid::new(
            2,
            PGridConfig {
                maxl: 4,
                add_ref_on_divergence: false,
                ..PGridConfig::default()
            },
        );
        g.extend_peer_path(PeerId(0), 0);
        g.extend_peer_path(PeerId(1), 1);
        g.exchange(PeerId(0), PeerId(1), &mut ctx);
        assert!(g.peer(PeerId(0)).routing().level(1).is_empty());
    }

    #[test]
    fn case4_recursion_drives_construction() {
        // With three peers 0:"0", 1:"1", 2:"" and refs 0↔1, meeting 0 and 1
        // is Case 4; recursion introduces... nothing here (no further refs).
        // But meeting 2 with 0 (Case 2) then 0 with 1 (Case 4) must keep
        // invariants across recursive exchanges in a larger community.
        let mut owned = owned_ctx();
        let mut ctx = owned.ctx();
        let mut g = grid(12, 3);
        for _ in 0..200 {
            let (i, j) = g.random_pair(&mut ctx);
            g.exchange(i, j, &mut ctx);
            g.check_invariants()
                .expect("invariants after every exchange");
        }
        assert!(g.avg_path_len() > 1.0);
    }

    #[test]
    fn exchange_counts_include_recursion() {
        let mut owned = owned_ctx();
        let mut ctx = owned.ctx();
        let mut g = grid(32, 4);
        let mut total = 0u64;
        for _ in 0..200 {
            let (i, j) = g.random_pair(&mut ctx);
            total += g.exchange(i, j, &mut ctx);
        }
        assert_eq!(
            total,
            owned.stats.count(MsgKind::Exchange),
            "returned call count must equal recorded exchange messages"
        );
        assert!(total >= 200);
    }

    #[test]
    fn self_exchange_is_noop() {
        let mut owned = owned_ctx();
        let mut ctx = owned.ctx();
        let mut g = grid(2, 4);
        assert_eq!(g.exchange(PeerId(0), PeerId(0), &mut ctx), 0);
        assert_eq!(g.peer(PeerId(0)).path().len(), 0);
    }

    #[test]
    fn data_moves_with_specialization() {
        let mut owned = owned_ctx();
        let mut ctx = owned.ctx();
        let mut g = grid(2, 4);
        // Peer 0 (root) indexes two items on opposite sides of the first bit.
        let k0 = BitPath::from_str_lossy("0011");
        let k1 = BitPath::from_str_lossy("1100");
        let e = |item| IndexEntry {
            item: ItemId(item),
            holder: PeerId(0),
            version: Version(0),
        };
        g.peer_mut(PeerId(0)).index_insert(k0, e(1));
        g.peer_mut(PeerId(0)).index_insert(k1, e(2));
        g.exchange(PeerId(0), PeerId(1), &mut ctx);
        // Peer 0 took "0": keeps k0, hands k1 to peer 1 (who took "1").
        assert_eq!(g.peer(PeerId(0)).index_lookup(&k0).len(), 1);
        assert_eq!(g.peer(PeerId(0)).index_lookup(&k1).len(), 0);
        assert_eq!(g.peer(PeerId(1)).index_lookup(&k1).len(), 1);
        assert_eq!(g.peer(PeerId(1)).index_lookup(&k0).len(), 0);
    }

    #[test]
    fn search_after_exchange_based_construction() {
        let mut owned = owned_ctx();
        let mut ctx = owned.ctx();
        let mut g = grid(64, 4);
        for _ in 0..4000 {
            let (i, j) = g.random_pair(&mut ctx);
            g.exchange(i, j, &mut ctx);
        }
        g.check_invariants().unwrap();
        // Every length-4 key must be findable from peer 0.
        for v in 0..16u128 {
            let key = BitPath::from_value(v, 4);
            let SearchOutcome { responsible, .. } = g.search(PeerId(0), &key, &mut ctx);
            if let Some(peer) = responsible {
                assert!(g.peer(peer).responsible_for(&key));
            }
        }
    }
}
