//! Persistence: serializable snapshots of a grid.
//!
//! A real peer must survive restarts — its path, reference table, and leaf
//! index are the product of (possibly) thousands of meetings and must not be
//! rebuilt from scratch. [`GridSnapshot`] captures the complete logical
//! state of a community ([`PeerSnapshot`] per peer) in a stable,
//! serde-serializable form, independent of the in-memory representation
//! (tries, caches, running sums), and restores it losslessly.

use pgrid_keys::{BitPath, Key};
use pgrid_net::PeerId;
use serde::{Deserialize, Serialize};

use crate::routing::RefSet;
use crate::{IndexEntry, PGrid, PGridConfig};

/// The complete logical state of one peer.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct PeerSnapshot {
    /// Peer identity.
    pub id: PeerId,
    /// Trie path.
    pub path: BitPath,
    /// References per level, level 1 first.
    pub refs: Vec<Vec<PeerId>>,
    /// Leaf index entries, sorted by key.
    pub index: Vec<(Key, Vec<IndexEntry>)>,
    /// Buddy list.
    pub buddies: Vec<PeerId>,
    /// Items this peer physically hosts, in id order. Defaults to empty so
    /// snapshots taken before hosted-item capture existed still parse.
    #[serde(default)]
    pub hosted: Vec<pgrid_store::DataItem>,
    /// Whether the peer holds custody of entries outside its responsibility
    /// (see [`crate::Violation::ForeignEntry`]): legitimate transient state
    /// the exchange protocol produces and its anti-entropy resolves. Without
    /// this bit a restored grid would misread reseeded custody as
    /// corruption. Defaults to `false` so older snapshots still parse.
    #[serde(default)]
    pub misplaced: bool,
}

/// The complete logical state of a community.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct GridSnapshot {
    /// Configuration the grid was built with.
    pub config: PGridConfig,
    /// One snapshot per peer, in id order.
    pub peers: Vec<PeerSnapshot>,
}

impl GridSnapshot {
    /// Captures the grid.
    pub fn capture(grid: &PGrid) -> Self {
        let peers = grid
            .peers()
            .map(|p| PeerSnapshot {
                id: p.id(),
                path: p.path(),
                refs: p
                    .routing()
                    .iter()
                    .map(|(_, r)| r.as_slice().to_vec())
                    .collect(),
                index: p
                    .index()
                    .entries()
                    .into_iter()
                    .map(|(k, v)| (k, v.clone()))
                    .collect(),
                buddies: p.buddies().collect(),
                hosted: {
                    let mut items = Vec::with_capacity(p.store().len());
                    p.store().for_each(&mut |item| items.push(item));
                    items
                },
                misplaced: p.has_misplaced(),
            })
            .collect();
        GridSnapshot {
            config: *grid.config(),
            peers,
        }
    }

    /// Restores a grid from the snapshot.
    ///
    /// # Errors
    /// Returns a description when the snapshot is internally inconsistent
    /// (ids out of order, paths beyond `maxl`, reference property violated).
    pub fn restore(&self) -> Result<PGrid, String> {
        self.config.validate()?;
        if self.peers.is_empty() {
            return Err("snapshot holds no peers".into());
        }
        for (i, p) in self.peers.iter().enumerate() {
            if p.id.index() != i {
                return Err(format!("peer ids not dense: slot {i} holds {}", p.id));
            }
        }
        let mut grid = PGrid::new(self.peers.len(), self.config);
        for snap in &self.peers {
            for bit in snap.path.bits() {
                grid.extend_peer_path(snap.id, bit);
            }
            let peer = grid.peer_mut(snap.id);
            for (level0, refs) in snap.refs.iter().enumerate() {
                // Restore exactly; bounding happened at capture time.
                let set = RefSet::from_ids(refs.iter().copied().filter(|&r| r != snap.id));
                peer.routing_mut().set_level(level0 + 1, set);
            }
            for (key, entries) in &snap.index {
                for e in entries {
                    peer.index_insert(*key, *e);
                }
            }
            for &b in &snap.buddies {
                peer.add_buddy(b);
            }
            for item in &snap.hosted {
                peer.store_mut().insert(item.clone());
            }
            peer.set_misplaced(snap.misplaced);
        }
        grid.check_invariants()?;
        Ok(grid)
    }

    /// Serializes to a JSON string.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("snapshot serialization cannot fail")
    }

    /// Parses a snapshot from JSON.
    pub fn from_json(json: &str) -> Result<Self, String> {
        serde_json::from_str(json).map_err(|e| e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BuildOptions, Ctx};
    use pgrid_net::{AlwaysOnline, NetStats};
    use pgrid_store::{ItemId, Version};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn built_grid(seed: u64) -> PGrid {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut online = AlwaysOnline;
        let mut stats = NetStats::new();
        let mut ctx = Ctx::new(&mut rng, &mut online, &mut stats);
        let mut grid = PGrid::new(
            96,
            PGridConfig {
                maxl: 4,
                refmax: 3,
                ..PGridConfig::default()
            },
        );
        grid.build(&BuildOptions::default(), &mut ctx);
        grid.seed_index(
            BitPath::from_str_lossy("0110"),
            IndexEntry {
                item: ItemId(7),
                holder: PeerId(3),
                version: Version(2),
            },
        );
        grid
    }

    #[test]
    fn capture_restore_round_trip() {
        let grid = built_grid(1);
        let snap = GridSnapshot::capture(&grid);
        let restored = snap.restore().expect("restore");
        assert_eq!(restored.len(), grid.len());
        for (a, b) in grid.peers().zip(restored.peers()) {
            assert_eq!(a.path(), b.path());
            assert_eq!(a.buddies().collect::<Vec<_>>(), b.buddies().collect::<Vec<_>>());
            for (level, refs) in a.routing().iter() {
                let mut x = refs.as_slice().to_vec();
                let mut y = b.routing().level(level).as_slice().to_vec();
                x.sort();
                y.sort();
                assert_eq!(x, y, "refs at level {level} of {}", a.id());
            }
            assert_eq!(a.index().entries().len(), b.index().entries().len());
        }
        restored.check_invariants().unwrap();
    }

    #[test]
    fn json_round_trip() {
        let grid = built_grid(2);
        let snap = GridSnapshot::capture(&grid);
        let json = snap.to_json();
        let back = GridSnapshot::from_json(&json).expect("parse");
        assert_eq!(back, snap);
        assert!(back.restore().is_ok());
        assert!(GridSnapshot::from_json("{not json").is_err());
    }

    #[test]
    fn restored_grid_is_operational() {
        let grid = built_grid(3);
        let restored = GridSnapshot::capture(&grid).restore().unwrap();
        let mut rng = StdRng::seed_from_u64(9);
        let mut online = AlwaysOnline;
        let mut stats = NetStats::new();
        let mut ctx = Ctx::new(&mut rng, &mut online, &mut stats);
        let key = BitPath::from_str_lossy("0110");
        let (out, entries) = restored.search_entries_ref(PeerId(0), &key, &mut ctx);
        assert!(out.responsible.is_some());
        assert!(!entries.is_empty(), "seeded entry survives the round trip");
    }

    /// Misplaced custody — entries a peer holds outside its responsibility,
    /// flagged by the exchange protocol — must survive the round trip: the
    /// restored grid's `replicas_of` ground truth excludes the custody
    /// holder *because* the flag explains the foreign entry, so `audit()`
    /// stays clean on both sides instead of misreading custody as
    /// corruption.
    #[test]
    fn misplaced_custody_survives_the_round_trip() {
        let mut grid = built_grid(5);
        let holder = grid
            .peers()
            .find(|p| !p.path().is_empty())
            .map(crate::Peer::id)
            .expect("a built grid has specialized peers");
        // A key on the opposite side of the holder's first bit: definitely
        // outside its responsibility.
        let foreign = BitPath::from_str_lossy(&format!(
            "{}01",
            1 - grid.peer(holder).path().bit(0)
        ));
        assert!(!grid.peer(holder).responsible_for(&foreign));
        grid.peer_mut(holder).index_insert(
            foreign,
            IndexEntry {
                item: ItemId(99),
                holder: PeerId(1),
                version: Version(1),
            },
        );
        grid.peer_mut(holder).set_misplaced(true);
        assert!(grid.audit().is_empty(), "flagged custody is not corruption");

        let restored = GridSnapshot::capture(&grid).restore().expect("restore");
        assert!(
            restored.peer(holder).has_misplaced(),
            "the misplaced flag must survive the round trip"
        );
        assert!(
            !restored.replicas_of(&foreign).contains(&holder),
            "custody does not make the holder a replica"
        );
        assert!(
            restored.audit().is_empty(),
            "restored custody must not read as ForeignEntry corruption"
        );
    }

    #[test]
    fn snapshots_without_the_misplaced_field_still_parse() {
        // A snapshot written before the flag existed still parses (and
        // defaults to unflagged).
        let grid = built_grid(5);
        let json = GridSnapshot::capture(&grid)
            .to_json()
            .replace(r#","misplaced":false"#, "")
            .replace(r#","misplaced":true"#, "");
        assert!(!json.contains("misplaced"), "{json}");
        let old = GridSnapshot::from_json(&json).expect("old snapshots parse");
        assert!(old.peers.iter().all(|p| !p.misplaced));
    }

    #[test]
    fn corrupted_snapshots_are_rejected() {
        let grid = built_grid(4);
        let mut snap = GridSnapshot::capture(&grid);
        // Non-dense ids.
        snap.peers.swap(0, 1);
        assert!(snap.restore().is_err());

        let mut snap = GridSnapshot::capture(&grid);
        // A reference on the wrong side.
        let own_path = snap.peers[0].path;
        let same_side = snap
            .peers
            .iter()
            .find(|p| p.path == own_path && p.id != snap.peers[0].id)
            .map(|p| p.id);
        if let Some(bad) = same_side {
            snap.peers[0].refs[0] = vec![bad];
            assert!(snap.restore().is_err());
        }

        let mut snap = GridSnapshot::capture(&grid);
        snap.config.refmax = 0;
        assert!(snap.restore().is_err());
    }
}
