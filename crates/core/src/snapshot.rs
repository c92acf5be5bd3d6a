//! Persistence: serializable snapshots of a grid.
//!
//! A real peer must survive restarts — its path, reference table, and leaf
//! index are the product of (possibly) thousands of meetings and must not be
//! rebuilt from scratch. [`GridSnapshot`] captures the complete logical
//! state of a community ([`PeerSnapshot`] per peer) in a stable JSON form,
//! independent of the in-memory representation (tries, caches, running
//! sums), and restores it losslessly.

use pgrid_keys::{BitPath, Key};
use pgrid_net::PeerId;
use pgrid_store::{DataItem, ItemId, Version};
use pgrid_trace::json::JsonVal;

use crate::{IndexEntry, PGrid, PGridConfig, RoutingTable};

/// The complete logical state of one peer.
#[derive(Clone, Debug, PartialEq)]
pub struct PeerSnapshot {
    /// Peer identity.
    pub id: PeerId,
    /// Trie path.
    pub path: BitPath,
    /// References per level.
    pub refs: RoutingTable,
    /// Leaf index entries, sorted by key.
    pub index: Vec<(Key, Vec<IndexEntry>)>,
    /// Buddy list.
    pub buddies: Vec<PeerId>,
    /// Items this peer physically hosts, in id order. Defaults to empty so
    /// snapshots taken before hosted-item capture existed still parse.
    pub hosted: Vec<DataItem>,
    /// Whether the peer holds custody of entries outside its responsibility
    /// (see [`crate::Violation::ForeignEntry`]): legitimate transient state
    /// the exchange protocol produces and its anti-entropy resolves. Without
    /// this bit a restored grid would misread reseeded custody as
    /// corruption. Defaults to `false` so older snapshots still parse.
    pub misplaced: bool,
}

/// The complete logical state of a community.
#[derive(Clone, Debug, PartialEq)]
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
                refs: p.routing().clone(),
                index: p.index().iter().map(|(k, v)| (*k, v.to_vec())).collect(),
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
        let n = self.peers.len();
        for (i, p) in self.peers.iter().enumerate() {
            if p.id.index() != i {
                return Err(format!("peer ids not dense: slot {i} holds {}", p.id));
            }
            if p.path.len() > self.config.maxl {
                return Err(format!("{}: path {} exceeds maxl", p.id, p.path));
            }
            if let Some(r) = p
                .refs
                .iter()
                .flat_map(|(_, r)| r.as_slice())
                .chain(&p.buddies)
                .find(|r| r.index() >= n)
            {
                return Err(format!("{}: names {r}, but there are {n} peers", p.id));
            }
        }
        let mut grid = PGrid::new(self.peers.len(), self.config);
        for snap in &self.peers {
            for bit in snap.path.bits() {
                grid.extend_peer_path(snap.id, bit);
            }
            for (level, refs) in snap.refs.iter() {
                // Restore exactly; bounding happened at capture time.
                let mut refs = refs.as_slice().to_vec();
                refs.retain(|&r| r != snap.id);
                grid.overwrite_peer_refs(snap.id, level, &refs);
            }
            let peer = grid.peer_mut(snap.id);
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

    /// The key-space prefixes no peer's path covers: each shortest prefix
    /// that no path is a prefix of and no path extends, in key order.
    /// Empty when every key has a responsible peer. A snapshot holds live
    /// peers only, so a hole is a subtree where no query can be answered.
    pub fn uncovered(&self) -> Vec<BitPath> {
        let paths: Vec<BitPath> = self.peers.iter().map(|p| p.path).collect();
        let mut holes = Vec::new();
        holes_under(BitPath::EMPTY, &paths, &mut holes);
        holes
    }

    /// Serializes to one line of JSON: `{"config":{…},"peers":[…]}`, the
    /// struct fields by name, paths and keys as bit strings, ids, versions
    /// and payload bytes as integers, an index entry as `[key, [entry…]]`.
    pub fn to_json(&self) -> String {
        let c = &self.config;
        let config = JsonVal::object([
            ("maxl", c.maxl.into()),
            ("refmax", c.refmax.into()),
            ("recmax", c.recmax.into()),
            ("recfanout", c.recfanout.into()),
            ("exchange_all_levels", c.exchange_all_levels.into()),
            ("add_ref_on_divergence", c.add_ref_on_divergence.into()),
        ]);
        let peers = self.peers.iter().map(|p| {
            JsonVal::object([
                ("id", p.id.0.into()),
                ("path", p.path.to_string().into()),
                (
                    "refs",
                    JsonVal::Array(p.refs.iter().map(|(_, r)| ids_json(r.as_slice())).collect()),
                ),
                (
                    "index",
                    JsonVal::Array(
                        p.index
                            .iter()
                            .map(|(key, entries)| {
                                JsonVal::Array(vec![
                                    key.to_string().into(),
                                    JsonVal::Array(entries.iter().map(entry_json).collect()),
                                ])
                            })
                            .collect(),
                    ),
                ),
                ("buddies", ids_json(&p.buddies)),
                (
                    "hosted",
                    JsonVal::Array(p.hosted.iter().map(item_json).collect()),
                ),
                ("misplaced", p.misplaced.into()),
            ])
        });
        JsonVal::object([
            ("config", config),
            ("peers", JsonVal::Array(peers.collect())),
        ])
        .to_string()
    }

    /// Parses a snapshot from the JSON [`GridSnapshot::to_json`] writes.
    /// `hosted` and `misplaced` may be absent (older snapshots).
    ///
    /// # Errors
    /// Returns a description of the first malformed or missing field. The
    /// result is not validated; [`GridSnapshot::restore`] does that.
    pub fn from_json(json: &str) -> Result<Self, String> {
        let doc = JsonVal::parse(json)?;
        let c = doc.field("config")?;
        let config = PGridConfig {
            maxl: c.field("maxl")?.as_int()?,
            refmax: c.field("refmax")?.as_int()?,
            recmax: c.field("recmax")?.as_int()?,
            recfanout: match c.field("recfanout")? {
                JsonVal::Null => None,
                v => Some(v.as_int()?),
            },
            exchange_all_levels: c.field("exchange_all_levels")?.as_bool()?,
            add_ref_on_divergence: c.field("add_ref_on_divergence")?.as_bool()?,
        };
        let peers = doc
            .field("peers")?
            .as_array()?
            .iter()
            .enumerate()
            .map(|(i, p)| peer_from_json(p).map_err(|e| format!("peer {i}: {e}")))
            .collect::<Result<_, _>>()?;
        Ok(GridSnapshot { config, peers })
    }
}

/// Appends the holes under `prefix` to `holes`, given the `paths` that
/// extend (or equal) it.
fn holes_under(prefix: BitPath, paths: &[BitPath], holes: &mut Vec<BitPath>) {
    if paths.is_empty() {
        holes.push(prefix);
        return;
    }
    let depth = prefix.len();
    if paths.iter().any(|p| p.len() == depth) {
        return;
    }
    for bit in 0..2 {
        let under: Vec<BitPath> = paths
            .iter()
            .filter(|p| p.bit(depth) == bit)
            .copied()
            .collect();
        holes_under(prefix.child(bit), &under, holes);
    }
}

fn ids_json(ids: &[PeerId]) -> JsonVal {
    JsonVal::array(ids.iter().map(|id| id.0))
}

fn entry_json(e: &IndexEntry) -> JsonVal {
    JsonVal::object([
        ("item", e.item.0.into()),
        ("holder", e.holder.0.into()),
        ("version", e.version.0.into()),
    ])
}

fn item_json(item: &DataItem) -> JsonVal {
    JsonVal::object([
        ("id", item.id.0.into()),
        ("name", item.name.as_str().into()),
        ("key", item.key.to_string().into()),
        ("version", item.version.0.into()),
        ("payload", JsonVal::array(item.payload.iter().copied())),
    ])
}

fn path_from_json(v: &JsonVal) -> Result<BitPath, String> {
    v.as_str()?
        .parse()
        .map_err(|e: pgrid_keys::BitPathError| e.to_string())
}

fn ids_from_json(v: &JsonVal) -> Result<Vec<PeerId>, String> {
    v.as_array()?
        .iter()
        .map(|id| Ok(PeerId(id.as_int()?)))
        .collect()
}

fn peer_from_json(p: &JsonVal) -> Result<PeerSnapshot, String> {
    let index = p
        .field("index")?
        .as_array()?
        .iter()
        .map(|pair| match pair.as_array()? {
            [key, entries] => {
                let entries = entries.as_array()?.iter().map(|e| {
                    Ok(IndexEntry {
                        item: ItemId(e.field("item")?.as_int()?),
                        holder: PeerId(e.field("holder")?.as_int()?),
                        version: Version(e.field("version")?.as_int()?),
                    })
                });
                Ok((
                    path_from_json(key)?,
                    entries.collect::<Result<_, String>>()?,
                ))
            }
            _ => Err("an index pair is not `[key, entries]`".to_string()),
        })
        .collect::<Result<_, String>>()?;
    let hosted = match p.opt_field("hosted")? {
        None => Vec::new(),
        Some(items) => items
            .as_array()?
            .iter()
            .map(|item| {
                Ok(DataItem {
                    id: ItemId(item.field("id")?.as_int()?),
                    name: item.field("name")?.as_str()?.to_string(),
                    key: path_from_json(item.field("key")?)?,
                    version: Version(item.field("version")?.as_int()?),
                    payload: item
                        .field("payload")?
                        .as_array()?
                        .iter()
                        .map(JsonVal::as_int)
                        .collect::<Result<_, _>>()?,
                })
            })
            .collect::<Result<_, String>>()?,
    };
    Ok(PeerSnapshot {
        id: PeerId(p.field("id")?.as_int()?),
        path: path_from_json(p.field("path")?)?,
        refs: p
            .field("refs")?
            .as_array()?
            .iter()
            .map(ids_from_json)
            .collect::<Result<_, _>>()?,
        index,
        buddies: ids_from_json(p.field("buddies")?)?,
        hosted,
        misplaced: match p.opt_field("misplaced")? {
            None => false,
            Some(v) => v.as_bool()?,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BuildOptions, Ctx};
    use pgrid_net::{AlwaysOnline, NetStats};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// A built grid of `n` peers with one seeded index entry and one hosted
    /// item whose name needs escaping.
    fn grid_of(n: usize, maxl: usize, seed: u64) -> PGrid {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut online = AlwaysOnline;
        let mut stats = NetStats::new();
        let mut ctx = Ctx::new(&mut rng, &mut online, &mut stats);
        let mut grid = PGrid::new(
            n,
            PGridConfig {
                maxl,
                refmax: 3,
                ..PGridConfig::default()
            },
        );
        grid.build(&BuildOptions::default(), &mut ctx);
        let key = BitPath::from_str_lossy("0110");
        grid.seed_index(
            key,
            IndexEntry {
                item: ItemId(7),
                holder: PeerId(3),
                version: Version(2),
            },
        );
        grid.peer_mut(PeerId(3))
            .store_mut()
            .insert(DataItem::with_payload(
                ItemId(7),
                "a \"song\"\\1.mp3",
                key,
                vec![0, 7, 255],
            ));
        grid
    }

    fn built_grid(seed: u64) -> PGrid {
        grid_of(96, 4, seed)
    }

    #[test]
    fn capture_restore_round_trip() {
        let grid = built_grid(1);
        let snap = GridSnapshot::capture(&grid);
        let restored = snap.restore().expect("restore");
        assert_eq!(restored.len(), grid.len());
        for (a, b) in grid.peers().zip(restored.peers()) {
            assert_eq!(a.path(), b.path());
            assert_eq!(
                a.buddies().collect::<Vec<_>>(),
                b.buddies().collect::<Vec<_>>()
            );
            for (level, refs) in a.routing().iter() {
                let mut x = refs.as_slice().to_vec();
                let mut y = b.routing().level(level).as_slice().to_vec();
                x.sort();
                y.sort();
                assert_eq!(x, y, "refs at level {level} of {}", a.id());
            }
            assert_eq!(a.index().len(), b.index().len());
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
        assert_eq!(back.peers[3].hosted, snap.peers[3].hosted);
        assert_eq!(back.peers[3].hosted[0].payload, vec![0, 7, 255]);
    }

    /// A snapshot read from disk is untrusted input: every truncation and
    /// random single-byte change of one is an `Err`, or a snapshot whose
    /// `restore()` validates it (a grid or an `Err`) — never a panic.
    #[test]
    fn damaged_snapshot_json_is_an_error_never_a_panic() {
        let json = GridSnapshot::capture(&grid_of(12, 3, 6)).to_json();
        assert!(json.is_ascii());
        for end in 0..json.len() {
            assert!(
                GridSnapshot::from_json(&json[..end]).is_err(),
                "prefix {end}"
            );
        }
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..4000 {
            let mut bytes = json.clone().into_bytes();
            let at = rng.gen_range(0..bytes.len());
            bytes[at] = rng.gen_range(0x20..0x7f);
            let text = String::from_utf8(bytes).expect("printable ASCII");
            if let Ok(snap) = GridSnapshot::from_json(&text) {
                let _ = snap.restore();
            }
        }
    }

    #[test]
    fn malformed_paths_and_keys_are_rejected() {
        let json = GridSnapshot::capture(&grid_of(12, 3, 6)).to_json();
        for (good, bad) in [
            (r#"["0110","#, r#"["01x","#),
            (r#""key":"0110""#, r#""key":"01x""#),
            (r#""path":""#, r#""path":"x"#),
        ] {
            let broken = json.replacen(good, bad, 1);
            assert_ne!(broken, json, "{good} occurs in the snapshot");
            let err = GridSnapshot::from_json(&broken).unwrap_err();
            assert!(err.contains("peer "), "{err}");
        }
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
        let foreign =
            BitPath::from_str_lossy(&format!("{}01", 1 - grid.peer(holder).path().bit(0)));
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

    /// A snapshot of bare peers on `paths` (no references or index).
    fn of_paths(paths: &[&str]) -> GridSnapshot {
        let peers = paths
            .iter()
            .enumerate()
            .map(|(i, path)| PeerSnapshot {
                id: PeerId::from_index(i),
                path: BitPath::from_str_lossy(path),
                refs: RoutingTable::default(),
                index: Vec::new(),
                buddies: Vec::new(),
                hosted: Vec::new(),
                misplaced: false,
            })
            .collect();
        GridSnapshot {
            config: PGridConfig::default(),
            peers,
        }
    }

    fn holes(paths: &[&str]) -> Vec<String> {
        let holes = of_paths(paths).uncovered();
        holes.iter().map(BitPath::to_string).collect()
    }

    #[test]
    fn uncovered_names_each_hole_once_and_shortest() {
        assert_eq!(holes(&[]), [""]);
        assert!(holes(&[""]).is_empty());
        assert!(holes(&["", "01", "1"]).is_empty());
        assert!(holes(&["00", "01", "1", "1"]).is_empty());
        assert_eq!(holes(&["0", "10"]), ["11"]);
        assert_eq!(holes(&["000", "1"]), ["001", "01"]);
        assert_eq!(holes(&["0110"]), ["00", "010", "0111", "1"]);
        // A shorter path covers its whole subtree, longer paths under it
        // included.
        assert!(holes(&["0", "011", "1", "1010"]).is_empty());
    }

    /// The synchronous exchange applies both halves of a split at once, so
    /// the engine's construction leaves no key without a responsible peer
    /// in the benchmark's smoke shape.
    #[test]
    fn engine_builds_cover_every_key() {
        for seed in 1..=50u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut online = AlwaysOnline;
            let mut stats = NetStats::new();
            let mut ctx = Ctx::new(&mut rng, &mut online, &mut stats);
            let config = PGridConfig {
                maxl: 3,
                refmax: 2,
                ..PGridConfig::default()
            };
            let mut grid = PGrid::new(16, config);
            grid.build(&BuildOptions::default(), &mut ctx);
            let holes = GridSnapshot::capture(&grid).uncovered();
            assert!(holes.is_empty(), "seed {seed}: uncovered {holes:?}");
        }
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
            snap.peers[0].refs.set_level(1, &[bad]);
            assert!(snap.restore().is_err());
        }

        let mut snap = GridSnapshot::capture(&grid);
        snap.config.refmax = 0;
        assert!(snap.restore().is_err());
    }
}
