//! Gnutella-style flooding over a random overlay.

use std::collections::{BTreeSet, VecDeque};

use pgrid_keys::Key;
use pgrid_net::{MsgKind, NetStats, OnlineModel, PeerId};
use rand::rngs::StdRng;
use rand::Rng;

/// An unstructured peer-to-peer overlay: every peer knows a handful of
/// random neighbours and holds a local set of keys; queries are flooded
/// with a TTL, exactly like early Gnutella.
#[derive(Clone, Debug)]
pub struct FloodNetwork {
    adjacency: Vec<BTreeSet<PeerId>>,
    keys: Vec<BTreeSet<Key>>,
}

/// Result of one flood search.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FloodOutcome {
    /// Whether any reached peer held the key.
    pub found: bool,
    /// Query messages transmitted (one per edge traversal to an online,
    /// not-yet-visited peer).
    pub messages: u64,
    /// Number of distinct peers that processed the query.
    pub peers_reached: usize,
}

impl FloodNetwork {
    /// Builds a random overlay of `n` peers where each peer opens
    /// `degree` connections to uniformly random other peers (connections
    /// are symmetric, so the realized degree averages about `2 * degree`).
    pub fn random(n: usize, degree: usize, rng: &mut StdRng) -> Self {
        assert!(n >= 2, "an overlay needs at least two peers");
        assert!(degree >= 1, "peers must open at least one connection");
        let mut adjacency = vec![BTreeSet::new(); n];
        for i in 0..n {
            for _ in 0..degree {
                let mut j = rng.gen_range(0..n - 1);
                if j >= i {
                    j += 1;
                }
                adjacency[i].insert(PeerId::from_index(j));
                adjacency[j].insert(PeerId::from_index(i));
            }
        }
        FloodNetwork {
            adjacency,
            keys: vec![BTreeSet::new(); n],
        }
    }

    /// Number of peers.
    pub fn len(&self) -> usize {
        self.adjacency.len()
    }

    /// `true` when the overlay is empty (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.adjacency.is_empty()
    }

    /// Places `key` at `peer`'s local store.
    pub fn place_key(&mut self, peer: PeerId, key: Key) {
        self.keys[peer.index()].insert(key);
    }

    /// The neighbours of a peer.
    pub fn neighbours(&self, peer: PeerId) -> impl Iterator<Item = PeerId> + '_ {
        self.adjacency[peer.index()].iter().copied()
    }

    /// Mean realized degree of the overlay.
    pub fn avg_degree(&self) -> f64 {
        let total: usize = self.adjacency.iter().map(BTreeSet::len).sum();
        total as f64 / self.adjacency.len() as f64
    }

    /// Floods a query for `key` from `start` with the given `ttl`.
    ///
    /// Semantics follow Gnutella: every peer forwards the query to all its
    /// neighbours; duplicate deliveries are suppressed by message id (we
    /// model that as visited-set pruning); offline peers neither receive nor
    /// forward. Each delivery to an online, unvisited peer costs one
    /// message.
    pub fn flood_search(
        &self,
        start: PeerId,
        key: &Key,
        ttl: u32,
        online: &mut dyn OnlineModel,
        rng: &mut StdRng,
        stats: &mut NetStats,
    ) -> FloodOutcome {
        let mut visited = vec![false; self.adjacency.len()];
        let mut queue = VecDeque::new();
        let mut messages = 0u64;
        let mut peers_reached = 0usize;
        let mut found = false;

        visited[start.index()] = true;
        queue.push_back((start, ttl));

        while let Some((peer, ttl_left)) = queue.pop_front() {
            peers_reached += 1;
            if self.keys[peer.index()].contains(key) {
                found = true;
                // Gnutella keeps flooding — responses travel back along the
                // query path; we keep expanding to model the real cost.
            }
            if ttl_left == 0 {
                continue;
            }
            for &next in &self.adjacency[peer.index()] {
                if visited[next.index()] {
                    continue;
                }
                let reachable = online.is_online(next, rng);
                stats.record_contact(reachable);
                if reachable {
                    visited[next.index()] = true;
                    messages += 1;
                    stats.record(MsgKind::Flood);
                    queue.push_back((next, ttl_left - 1));
                }
            }
        }

        FloodOutcome {
            found,
            messages,
            peers_reached,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgrid_keys::BitPath;
    use pgrid_net::{AlwaysOnline, EpochOnline};
    use rand::SeedableRng;

    fn key(s: &str) -> Key {
        BitPath::from_str_lossy(s)
    }

    #[test]
    fn overlay_is_connected_enough() {
        let mut rng = StdRng::seed_from_u64(1);
        let net = FloodNetwork::random(100, 3, &mut rng);
        assert_eq!(net.len(), 100);
        assert!(net.avg_degree() >= 3.0);
        // No peer is isolated and no self-loops exist.
        for i in 0..100 {
            let p = PeerId::from_index(i);
            assert!(net.neighbours(p).count() >= 1);
            assert!(net.neighbours(p).all(|q| q != p));
        }
    }

    #[test]
    fn flood_finds_placed_key() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut net = FloodNetwork::random(200, 3, &mut rng);
        net.place_key(PeerId(150), key("0101"));
        let mut online = AlwaysOnline;
        let mut stats = NetStats::new();
        let out = net.flood_search(
            PeerId(0),
            &key("0101"),
            16,
            &mut online,
            &mut rng,
            &mut stats,
        );
        assert!(out.found);
        assert!(out.peers_reached > 100, "high TTL floods almost everywhere");
        assert_eq!(out.messages, stats.count(MsgKind::Flood));
    }

    #[test]
    fn ttl_limits_reach() {
        let mut rng = StdRng::seed_from_u64(3);
        let net = FloodNetwork::random(500, 3, &mut rng);
        let mut online = AlwaysOnline;
        let mut stats = NetStats::new();
        let shallow = net.flood_search(PeerId(0), &key("1"), 1, &mut online, &mut rng, &mut stats);
        let deep = net.flood_search(PeerId(0), &key("1"), 5, &mut online, &mut rng, &mut stats);
        assert!(shallow.peers_reached < deep.peers_reached);
        assert!(!shallow.found, "key placed nowhere");
        // TTL 1 reaches only direct neighbours.
        assert_eq!(shallow.peers_reached, 1 + net.neighbours(PeerId(0)).count());
    }

    #[test]
    fn offline_peers_block_propagation() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut net = FloodNetwork::random(100, 3, &mut rng);
        net.place_key(PeerId(50), key("11"));
        let mut online = EpochOnline::new(100, 1.0);
        // Take everyone but the start peer offline.
        for i in 1..100 {
            online.set_online(PeerId(i), false);
        }
        let mut stats = NetStats::new();
        let out = net.flood_search(PeerId(0), &key("11"), 10, &mut online, &mut rng, &mut stats);
        assert!(!out.found);
        assert_eq!(out.messages, 0);
        assert_eq!(out.peers_reached, 1);
        assert!(stats.failed_contacts > 0);
    }

    #[test]
    fn flood_cost_scales_with_community_size() {
        // The §1 claim: broadcast search cost grows with N.
        let mut rng = StdRng::seed_from_u64(5);
        let mut messages = Vec::new();
        for n in [100usize, 400, 1600] {
            let net = FloodNetwork::random(n, 3, &mut rng);
            let mut online = AlwaysOnline;
            let mut stats = NetStats::new();
            let out = net.flood_search(PeerId(0), &key("0"), 32, &mut online, &mut rng, &mut stats);
            messages.push(out.messages);
        }
        assert!(messages[0] < messages[1] && messages[1] < messages[2]);
    }
}
