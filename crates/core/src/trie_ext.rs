//! Generalized, non-binary-alphabet P-Grid — the §6 extension.
//!
//! *"For prefix search on text the algorithm can be adapted by extending the
//! {0,1} alphabet. This would allow to directly support trie search
//! structures."*
//!
//! In the radix-`R` grid a peer's path is a [`RadixPath`]; at every level it
//! keeps, **per sibling symbol**, a bounded reference set to peers covering
//! that branch. The exchange and search algorithms generalize naturally:
//! split/specialize picks an unclaimed symbol instead of the complement bit,
//! and routing selects the reference set of the query's next symbol.
//!
//! This module is intentionally self-contained (its own peer type) — the
//! binary implementation in the crate root stays the lean, paper-faithful
//! hot path.

use std::collections::BTreeMap;

use pgrid_keys::RadixPath;
use pgrid_net::{draw, MsgKind, PeerId};
use rand::Rng;

use crate::Ctx;

/// Configuration of a generalized trie grid.
#[derive(Clone, Copy, Debug)]
pub struct TrieConfig {
    /// Alphabet size (2..=36).
    pub radix: u8,
    /// Maximal path length in symbols.
    pub maxl: usize,
    /// References kept per (level, sibling symbol).
    pub refmax: usize,
    /// Exchange recursion bound.
    pub recmax: u32,
    /// Recursion fan-out bound per sibling branch.
    pub recfanout: usize,
}

impl Default for TrieConfig {
    fn default() -> Self {
        TrieConfig {
            radix: 27,
            maxl: 3,
            refmax: 2,
            recmax: 2,
            recfanout: 2,
        }
    }
}

/// Per-level routing of a trie peer: references grouped by sibling symbol.
#[derive(Clone, Debug, Default)]
struct TrieLevel {
    /// `by_symbol[s]` → peers whose path shares this level's prefix but
    /// continues with symbol `s`.
    by_symbol: BTreeMap<u8, Vec<PeerId>>,
}

impl TrieLevel {
    fn insert_bounded(
        &mut self,
        symbol: u8,
        id: PeerId,
        bound: usize,
        rng: &mut rand::rngs::StdRng,
    ) {
        let slot = self.by_symbol.entry(symbol).or_default();
        if slot.contains(&id) {
            return;
        }
        slot.push(id);
        if slot.len() > bound {
            let victim = rng.gen_range(0..slot.len());
            slot.swap_remove(victim);
        }
    }

    fn refs(&self, symbol: u8) -> &[PeerId] {
        self.by_symbol
            .get(&symbol)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }
}

/// A peer of the generalized grid.
#[derive(Clone, Debug)]
pub struct TriePeer {
    id: PeerId,
    path: RadixPath,
    levels: Vec<TrieLevel>,
    /// Leaf index: key string (canonical symbol rendering) → entries.
    index: BTreeMap<String, Vec<(u64, PeerId)>>,
}

impl TriePeer {
    /// The peer's path.
    pub fn path(&self) -> &RadixPath {
        &self.path
    }

    /// `true` when this peer answers queries for `key`.
    pub fn responsible_for(&self, key: &RadixPath) -> bool {
        self.path.responsible_for(key)
    }

    /// The index entries stored under exactly `key`.
    pub fn index_lookup(&self, key: &RadixPath) -> &[(u64, PeerId)] {
        self.index
            .get(&key.to_string())
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }
}

/// Result of a trie-grid search.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TrieSearchOutcome {
    /// The responsible peer, when routing succeeded.
    pub responsible: Option<PeerId>,
    /// Messages spent.
    pub messages: u64,
}

/// A community of trie peers over a radix-`R` alphabet.
#[derive(Clone, Debug)]
pub struct TrieGrid {
    config: TrieConfig,
    peers: Vec<TriePeer>,
}

impl TrieGrid {
    /// Creates `n` fresh root peers.
    pub fn new(n: usize, config: TrieConfig) -> Self {
        assert!(n > 0, "a trie grid needs at least one peer");
        assert!((2..=36).contains(&config.radix), "radix out of range");
        assert!(config.maxl >= 1 && config.refmax >= 1 && config.recfanout >= 1);
        TrieGrid {
            config,
            peers: PeerId::all(n)
                .map(|id| TriePeer {
                    id,
                    path: RadixPath::empty(config.radix),
                    levels: Vec::new(),
                    index: BTreeMap::new(),
                })
                .collect(),
        }
    }

    /// Number of peers.
    pub fn len(&self) -> usize {
        self.peers.len()
    }

    /// `true` when the community is empty (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.peers.is_empty()
    }

    /// Read access to a peer.
    pub fn peer(&self, id: PeerId) -> &TriePeer {
        &self.peers[id.index()]
    }

    /// Average path length in symbols.
    pub fn avg_path_len(&self) -> f64 {
        let sum: usize = self.peers.iter().map(|p| p.path.len()).sum();
        sum as f64 / self.peers.len() as f64
    }

    /// The generalized exchange. Returns the number of invocations.
    pub fn exchange(&mut self, a1: PeerId, a2: PeerId, ctx: &mut Ctx<'_>) -> u64 {
        self.exchange_rec(a1, a2, 0, ctx)
    }

    fn exchange_rec(&mut self, a1: PeerId, a2: PeerId, r: u32, ctx: &mut Ctx<'_>) -> u64 {
        if a1 == a2 {
            return 0;
        }
        ctx.message(MsgKind::Exchange);
        let mut calls = 1u64;
        let cfg = self.config;
        let p1 = self.peers[a1.index()].path.clone();
        let p2 = self.peers[a2.index()].path.clone();
        let lc = p1.common_prefix_len(&p2);
        let l1 = p1.len() - lc;
        let l2 = p2.len() - lc;

        // Mix per-symbol reference lists at the deepest common level: with a
        // wide alphabet a peer meets only a few of the R-1 sibling branches
        // directly, so spreading coverage through meetings (the radix
        // analogue of the binary ref mixing) is what makes routing dense
        // enough to succeed.
        if lc > 0 {
            self.mix_level(a1, a2, lc, ctx);
        }

        match (l1 == 0, l2 == 0) {
            (true, true) if lc < cfg.maxl => {
                // Split: pick two distinct symbols at random.
                let s1 = ctx.rng.gen_range(0..cfg.radix);
                let mut s2 = ctx.rng.gen_range(0..cfg.radix - 1);
                if s2 >= s1 {
                    s2 += 1;
                }
                self.extend(a1, s1);
                self.extend(a2, s2);
                self.link(a1, lc + 1, s2, a2, ctx);
                self.link(a2, lc + 1, s1, a1, ctx);
            }
            (true, true) => { /* replicas at maxl; nothing to refine */ }
            (true, false) if lc < cfg.maxl => {
                // a1 specializes to a symbol different from a2's.
                let taken = p2.symbol(lc);
                let mut s = ctx.rng.gen_range(0..cfg.radix - 1);
                if s >= taken {
                    s += 1;
                }
                self.extend(a1, s);
                self.link(a1, lc + 1, taken, a2, ctx);
                self.link(a2, lc + 1, s, a1, ctx);
            }
            (false, true) if lc < cfg.maxl => {
                let taken = p1.symbol(lc);
                let mut s = ctx.rng.gen_range(0..cfg.radix - 1);
                if s >= taken {
                    s += 1;
                }
                self.extend(a2, s);
                self.link(a2, lc + 1, taken, a1, ctx);
                self.link(a1, lc + 1, s, a2, ctx);
            }
            (false, false) => {
                // Divergence: learn each other's branch, then recurse into
                // the partner's side like the binary Case 4.
                let s1 = p1.symbol(lc);
                let s2 = p2.symbol(lc);
                self.link(a1, lc + 1, s2, a2, ctx);
                self.link(a2, lc + 1, s1, a1, ctx);
                if r < cfg.recmax {
                    let pick = |peers: &Vec<TriePeer>,
                                owner: PeerId,
                                sym: u8,
                                not: PeerId,
                                rng: &mut rand::rngs::StdRng| {
                        let lvl = peers[owner.index()].levels.get(lc);
                        let mut v: Vec<PeerId> = lvl
                            .map(|l| l.refs(sym).to_vec())
                            .unwrap_or_default()
                            .into_iter()
                            .filter(|&x| x != not)
                            .collect();
                        draw::shuffle(rng, &mut v);
                        v.truncate(cfg.recfanout);
                        v
                    };
                    let towards2 = pick(&self.peers, a1, s2, a2, ctx.rng);
                    let towards1 = pick(&self.peers, a2, s1, a1, ctx.rng);
                    for t in towards2 {
                        if ctx.contact(t) {
                            calls += self.exchange_rec(a2, t, r + 1, ctx);
                        }
                    }
                    for t in towards1 {
                        if ctx.contact(t) {
                            calls += self.exchange_rec(a1, t, r + 1, ctx);
                        }
                    }
                }
            }
            _ => {}
        }
        calls
    }

    /// Unions both peers' per-symbol reference lists at `level`, bounding
    /// each list to `refmax` (random eviction).
    fn mix_level(&mut self, a1: PeerId, a2: PeerId, level: usize, ctx: &mut Ctx<'_>) {
        let bound = self.config.refmax;
        let collect = |peer: &TriePeer| -> Vec<(u8, Vec<PeerId>)> {
            peer.levels
                .get(level - 1)
                .map(|l| l.by_symbol.iter().map(|(&s, v)| (s, v.clone())).collect())
                .unwrap_or_default()
        };
        let from1 = collect(&self.peers[a1.index()]);
        let from2 = collect(&self.peers[a2.index()]);
        for (owner, other, incoming) in [(a1, a2, from2), (a2, a1, from1)] {
            let own_symbol = {
                let p = &self.peers[owner.index()].path;
                if p.len() >= level {
                    Some(p.symbol(level - 1))
                } else {
                    None
                }
            };
            let peer = &mut self.peers[owner.index()];
            while peer.levels.len() < level {
                peer.levels.push(TrieLevel::default());
            }
            for (symbol, refs) in &incoming {
                if Some(*symbol) == own_symbol {
                    continue; // never reference the own branch
                }
                for &r in refs {
                    if r != owner && r != other {
                        peer.levels[level - 1].insert_bounded(*symbol, r, bound, ctx.rng);
                    }
                }
            }
        }
    }

    fn extend(&mut self, id: PeerId, symbol: u8) {
        let peer = &mut self.peers[id.index()];
        peer.path.push(symbol);
        if peer.levels.len() < peer.path.len() {
            peer.levels.push(TrieLevel::default());
        }
    }

    fn link(&mut self, owner: PeerId, level: usize, symbol: u8, target: PeerId, ctx: &mut Ctx<'_>) {
        let bound = self.config.refmax;
        let peer = &mut self.peers[owner.index()];
        while peer.levels.len() < level {
            peer.levels.push(TrieLevel::default());
        }
        peer.levels[level - 1].insert_bounded(symbol, target, bound, ctx.rng);
    }

    /// Builds by random meetings until the average path length reaches
    /// `threshold_fraction * maxl` or `max_meetings` is exhausted.
    pub fn build(&mut self, threshold_fraction: f64, max_meetings: u64, ctx: &mut Ctx<'_>) -> u64 {
        let threshold = threshold_fraction * self.config.maxl as f64;
        let mut exchanges = 0;
        for _ in 0..max_meetings {
            if self.avg_path_len() >= threshold {
                break;
            }
            let n = self.peers.len();
            let i = ctx.rng.gen_range(0..n);
            let mut j = ctx.rng.gen_range(0..n - 1);
            if j >= i {
                j += 1;
            }
            exchanges += self.exchange(PeerId::from_index(i), PeerId::from_index(j), ctx);
        }
        exchanges
    }

    /// Prefix search: finds a peer responsible for `key` (or a prefix
    /// subtree of it), randomized DFS as in the binary grid.
    ///
    /// With a wide alphabet a peer may lack references for the exact wanted
    /// symbol; the search then *sidesteps* through any same-level reference
    /// (a peer on another sibling branch), which — thanks to reference
    /// mixing — often knows the wanted branch. A visited set bounds the
    /// sidestepping.
    pub fn search(&self, start: PeerId, key: &RadixPath, ctx: &mut Ctx<'_>) -> TrieSearchOutcome {
        let mut messages = 0u64;
        let mut visited = vec![false; self.peers.len()];
        visited[start.index()] = true;
        let found = self.query_rec(start, key.clone(), 0, &mut messages, &mut visited, ctx);
        TrieSearchOutcome {
            responsible: found,
            messages,
        }
    }

    fn query_rec(
        &self,
        a: PeerId,
        p: RadixPath,
        l: usize,
        messages: &mut u64,
        visited: &mut [bool],
        ctx: &mut Ctx<'_>,
    ) -> Option<PeerId> {
        let peer = &self.peers[a.index()];
        let rem_len = peer.path.len() - l.min(peer.path.len());
        let mut com = 0usize;
        while com < rem_len && com < p.len() && peer.path.symbol(l + com) == p.symbol(com) {
            com += 1;
        }
        if com == p.len() || com == rem_len {
            return Some(a);
        }
        let level = l + com + 1;
        let wanted = p.symbol(com);
        let lvl = peer.levels.get(level - 1)?;
        let rest: RadixPath = RadixPath::from_symbols(p.radix(), &p.symbols()[com..]);
        // Preferred: references into the wanted branch.
        let mut refs = lvl.refs(wanted).to_vec();
        draw::shuffle(ctx.rng, &mut refs);
        // Fallback: sidestep to any other same-level branch (it shares the
        // prefix up to `level - 1`, so the query state stays valid there).
        let mut side: Vec<PeerId> = lvl
            .by_symbol
            .iter()
            .filter(|(&s, _)| s != wanted)
            .flat_map(|(_, v)| v.iter().copied())
            .collect();
        draw::shuffle(ctx.rng, &mut side);
        side.truncate(4);
        for r in refs.into_iter().chain(side) {
            if visited[r.index()] {
                continue;
            }
            visited[r.index()] = true;
            if ctx.contact(r) {
                *messages += 1;
                ctx.message(MsgKind::Query);
                if let Some(found) =
                    self.query_rec(r, rest.clone(), l + com, messages, visited, ctx)
                {
                    return Some(found);
                }
            }
        }
        None
    }

    /// Routes an index entry for `key` to a responsible peer via search.
    /// Returns the peer that stored it, or `None` when routing failed.
    pub fn insert(
        &mut self,
        start: PeerId,
        key: &RadixPath,
        item: u64,
        holder: PeerId,
        ctx: &mut Ctx<'_>,
    ) -> Option<PeerId> {
        let found = self.search(start, key, ctx).responsible?;
        let peer = &mut self.peers[found.index()];
        let slot = peer.index.entry(key.to_string()).or_default();
        if !slot.contains(&(item, holder)) {
            slot.push((item, holder));
        }
        Some(found)
    }

    /// Searches for `key` and reads the entries at the responsible peer.
    pub fn lookup(
        &self,
        start: PeerId,
        key: &RadixPath,
        ctx: &mut Ctx<'_>,
    ) -> Option<(PeerId, Vec<(u64, PeerId)>)> {
        let outcome = self.search(start, key, ctx);
        outcome
            .responsible
            .map(|p| (p, self.peer(p).index_lookup(key).to_vec()))
    }

    /// Structural invariants of the generalized grid.
    pub fn check_invariants(&self) -> Result<(), String> {
        for p in &self.peers {
            if p.path.len() > self.config.maxl {
                return Err(format!("{}: path too long", p.id));
            }
            for (i, lvl) in p.levels.iter().enumerate() {
                let level = i + 1;
                for (&sym, refs) in &lvl.by_symbol {
                    if refs.len() > self.config.refmax {
                        return Err(format!("{}: refmax exceeded at level {level}", p.id));
                    }
                    if level <= p.path.len() && sym == p.path.symbol(level - 1) {
                        return Err(format!(
                            "{}: references its own branch at level {level}",
                            p.id
                        ));
                    }
                    for &r in refs {
                        if r == p.id {
                            return Err(format!("{}: self-reference", p.id));
                        }
                        let other = &self.peers[r.index()].path;
                        if other.len() < level
                            || other.symbol(level - 1) != sym
                            || other.common_prefix_len(&p.path) < level - 1
                        {
                            return Err(format!(
                                "{}: invalid ref {r} at level {level} symbol {sym}",
                                p.id
                            ));
                        }
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgrid_net::{AlwaysOnline, NetStats};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn ctx_parts(seed: u64) -> (StdRng, AlwaysOnline, NetStats) {
        (StdRng::seed_from_u64(seed), AlwaysOnline, NetStats::new())
    }

    #[test]
    fn split_assigns_distinct_symbols() {
        let (mut rng, mut online, mut stats) = ctx_parts(1);
        let mut ctx = Ctx::new(&mut rng, &mut online, &mut stats);
        let mut g = TrieGrid::new(
            2,
            TrieConfig {
                radix: 4,
                maxl: 2,
                ..TrieConfig::default()
            },
        );
        g.exchange(PeerId(0), PeerId(1), &mut ctx);
        let s0 = g.peer(PeerId(0)).path().symbol(0);
        let s1 = g.peer(PeerId(1)).path().symbol(0);
        assert_ne!(s0, s1);
        g.check_invariants().unwrap();
    }

    #[test]
    fn construction_converges_small_alphabet() {
        let (mut rng, mut online, mut stats) = ctx_parts(2);
        let mut ctx = Ctx::new(&mut rng, &mut online, &mut stats);
        let cfg = TrieConfig {
            radix: 3,
            maxl: 2,
            refmax: 2,
            recmax: 2,
            recfanout: 2,
        };
        let mut g = TrieGrid::new(60, cfg);
        g.build(0.9, 200_000, &mut ctx);
        assert!(g.avg_path_len() >= 1.8, "avg = {}", g.avg_path_len());
        g.check_invariants().unwrap();
    }

    #[test]
    fn search_routes_to_responsible_peer() {
        let (mut rng, mut online, mut stats) = ctx_parts(3);
        let mut ctx = Ctx::new(&mut rng, &mut online, &mut stats);
        let cfg = TrieConfig {
            radix: 3,
            maxl: 2,
            refmax: 3,
            recmax: 2,
            recfanout: 2,
        };
        let mut g = TrieGrid::new(120, cfg);
        g.build(0.95, 400_000, &mut ctx);
        g.check_invariants().unwrap();
        let mut hits = 0;
        let mut total = 0;
        for a in 0..3u8 {
            for b in 0..3u8 {
                let key = RadixPath::from_symbols(3, &[a, b]);
                total += 1;
                // A key counts as reachable if any of several random entry
                // points routes to a responsible peer (non-binary routing
                // tables are sparser than binary ones, so single-start
                // failures are expected occasionally).
                for start in 0..10u32 {
                    let out = g.search(PeerId(start * 7), &key, &mut ctx);
                    if let Some(p) = out.responsible {
                        assert!(g.peer(p).responsible_for(&key));
                        hits += 1;
                        break;
                    }
                }
            }
        }
        assert!(
            hits * 10 >= total * 8,
            "most keys reachable: {hits}/{total}"
        );
    }

    #[test]
    fn text_prefix_search_over_words() {
        // Radix-27 text alphabet: peers specialize on first letters.
        let (mut rng, mut online, mut stats) = ctx_parts(4);
        let mut ctx = Ctx::new(&mut rng, &mut online, &mut stats);
        let cfg = TrieConfig {
            radix: 27,
            maxl: 1,
            refmax: 2,
            recmax: 2,
            recfanout: 2,
        };
        let mut g = TrieGrid::new(200, cfg);
        g.build(0.99, 400_000, &mut ctx);
        let key = RadixPath::from_text("cat");
        let out = g.search(PeerId(0), &key, &mut ctx);
        if let Some(p) = out.responsible {
            assert!(g.peer(p).responsible_for(&key));
        }
        g.check_invariants().unwrap();
    }

    #[test]
    fn insert_and_lookup_round_trip() {
        let (mut rng, mut online, mut stats) = ctx_parts(9);
        let mut ctx = Ctx::new(&mut rng, &mut online, &mut stats);
        let cfg = TrieConfig {
            radix: 3,
            maxl: 2,
            refmax: 3,
            recmax: 2,
            recfanout: 2,
        };
        let mut g = TrieGrid::new(150, cfg);
        g.build(0.95, 400_000, &mut ctx);
        let key = RadixPath::from_symbols(3, &[1, 2]);
        let stored_at = g.insert(PeerId(0), &key, 42, PeerId(7), &mut ctx);
        let Some(stored_at) = stored_at else {
            return; // routing failed in this configuration — nothing to check
        };
        assert!(g.peer(stored_at).responsible_for(&key));
        // Duplicate inserts are idempotent.
        g.insert(PeerId(3), &key, 42, PeerId(7), &mut ctx);
        let mut seen = false;
        for _ in 0..10 {
            if let Some((peer, entries)) = g.lookup(PeerId(1), &key, &mut ctx) {
                assert!(g.peer(peer).responsible_for(&key));
                if entries.contains(&(42, PeerId(7))) {
                    assert_eq!(entries.iter().filter(|e| **e == (42, PeerId(7))).count(), 1);
                    seen = true;
                    break;
                }
            }
        }
        assert!(seen || g.peer(stored_at).index_lookup(&key).len() == 1);
    }

    #[test]
    fn degenerate_configs_rejected() {
        let r = std::panic::catch_unwind(|| TrieGrid::new(0, TrieConfig::default()));
        assert!(r.is_err());
        let r = std::panic::catch_unwind(|| {
            TrieGrid::new(
                2,
                TrieConfig {
                    radix: 1,
                    ..TrieConfig::default()
                },
            )
        });
        assert!(r.is_err());
    }
}
