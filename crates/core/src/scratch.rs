//! Reusable scratch buffers for the query and exchange hot paths.
//!
//! The search descent, the exchange reference mixing, and the Case-4
//! recursion all need short-lived lists of peer ids. Allocating those per
//! hop dominates the per-query cost once a workload replays millions of
//! descents, so every [`crate::Ctx`] carries one [`Scratch`] arena whose
//! buffers are cleared — never freed — between operations. A warm context
//! therefore runs queries without touching the allocator at all (asserted
//! by `tests/alloc_free.rs`; see DESIGN.md "Hot-path memory discipline").
//!
//! Buffer discipline: re-entrant code (the iterative search, the exchange
//! recursion, the BFS update sweep) shares a single growable arena and
//! addresses its slice of it by `(base, end)` indices — deeper activations
//! append past `end` and truncate back to their own base on exit, so a
//! parent's indices stay valid across recursive calls.

use pgrid_keys::{BitPath, Key};
use pgrid_net::PeerId;

/// One suspended level of the iterative search descent: the arguments a
/// child visit needs plus a cursor over this level's shuffled references
/// (stored in [`Scratch::query_refs`] at `base..end`).
#[derive(Clone, Copy, Debug)]
pub(crate) struct QueryFrame {
    /// The peer whose references this frame drains — the hop source the
    /// flight recorder names when a child contact succeeds.
    pub peer: pgrid_net::PeerId,
    /// Query remainder to forward to children of this level.
    pub querypath: Key,
    /// Matched-prefix length (`l`) for children of this level.
    pub child_l: usize,
    /// Depth children of this level are found at.
    pub child_depth: u32,
    /// Start of this frame's references in the shared arena.
    pub base: usize,
    /// Next reference to try.
    pub cursor: usize,
    /// End of this frame's references in the shared arena.
    pub end: usize,
}

/// Per-context reusable buffers for the allocation-free hot paths.
///
/// One lives in every [`crate::OwnedCtx`] (one per parallel shard) and in
/// every [`crate::Ctx`] created without an external arena. All buffers are
/// empty `Vec`s until first use, so constructing a `Scratch` performs no
/// allocation.
#[derive(Debug, Default)]
pub struct Scratch {
    /// Shuffled-reference arena of the iterative search descent.
    pub(crate) query_refs: Vec<PeerId>,
    /// Suspended levels of the iterative search descent.
    pub(crate) query_frames: Vec<QueryFrame>,
    /// First mixed reference set of an exchange level.
    pub(crate) mix_a: Vec<PeerId>,
    /// Second mixed reference set of an exchange level.
    pub(crate) mix_b: Vec<PeerId>,
    /// Sorted membership helper for large-set union deduplication.
    pub(crate) seen: Vec<PeerId>,
    /// Shared arena for exchange Case-4 recursion partners and BFS update
    /// fan-out (the two never nest within each other).
    pub(crate) ref_arena: Vec<PeerId>,
    /// Prefix cover buffer of the range search (`range_cover_into`).
    pub(crate) range_cover: Vec<BitPath>,
}

impl Scratch {
    /// Creates an empty scratch arena. Allocation-free: buffers grow on
    /// first use and are then reused for the context's lifetime.
    pub fn new() -> Self {
        Scratch::default()
    }

    /// Retained capacity across all buffers, in elements — a cheap way for
    /// tests and diagnostics to observe that buffers warmed up.
    pub fn retained_capacity(&self) -> usize {
        self.query_refs.capacity()
            + self.query_frames.capacity()
            + self.mix_a.capacity()
            + self.mix_b.capacity()
            + self.seen.capacity()
            + self.ref_arena.capacity()
            + self.range_cover.capacity()
    }

    /// The three disjoint buffers the exchange mixing step needs.
    pub(crate) fn mix_buffers(&mut self) -> (&mut Vec<PeerId>, &mut Vec<PeerId>, &mut Vec<PeerId>) {
        (&mut self.mix_a, &mut self.mix_b, &mut self.seen)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_scratch_holds_no_heap_memory() {
        let s = Scratch::new();
        assert_eq!(s.retained_capacity(), 0, "empty Vecs must not allocate");
    }

    #[test]
    fn buffers_retain_capacity_after_clear() {
        let mut s = Scratch::new();
        s.query_refs.extend((0..64).map(PeerId));
        s.query_refs.clear();
        assert!(s.retained_capacity() >= 64);
    }
}
