//! Local validity audit — the foundation of self-stabilization.
//!
//! [`PGrid::check_invariants`] is a *global* pass/fail oracle for tests.
//! Self-stabilizing repair needs something finer: a **typed, per-peer list
//! of violations**, each naming the peer, the level, and the offending
//! reference, so the corrective machinery in [`crate::repair`] can map every
//! violation class onto a local corrective action and the flight recorder
//! can log each one.
//!
//! The audited conditions are the P-Grid validity conditions of §2:
//!
//! 1. the path is at most `maxl` bits ([`Violation::PathTooLong`]);
//! 2. no level beyond the path holds references
//!    ([`Violation::ReferenceBeyondPath`]);
//! 3. no level holds more than `refmax` references
//!    ([`Violation::OverfullLevel`]);
//! 4. a reference at level *l* points to a *different* peer
//!    ([`Violation::SelfReference`]) whose path reaches level *l*
//!    ([`Violation::ShallowReference`]), shares the first *l−1* bits
//!    ([`Violation::PrefixMismatch`]), and differs in exactly bit *l*
//!    ([`Violation::SameSideReference`]);
//! 5. replicas (buddies) agree on the path
//!    ([`Violation::ReplicaPathMismatch`]);
//! 6. hosted index entries belong under the peer's path
//!    ([`Violation::ForeignEntry`]) — *unless* the peer has flagged itself
//!    misplaced, which is the legitimate "custody pending anti-entropy"
//!    state the exchange protocol itself produces.
//!
//! Everything here is read-only and **purely local**: a peer audits its own
//! table against paths it already knows, exactly the information a real
//! deployment's periodic self-check would have.

use std::fmt;

use pgrid_keys::Key;
use pgrid_net::PeerId;

use crate::PGrid;

/// One violated validity condition, with enough context to correct it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Violation {
    /// The peer's path exceeds `maxl`.
    PathTooLong {
        /// The audited peer.
        peer: PeerId,
        /// Its (overlong) path length.
        len: usize,
    },
    /// A level beyond the path's length holds references.
    ReferenceBeyondPath {
        /// The audited peer.
        peer: PeerId,
        /// The offending (1-based) level.
        level: usize,
    },
    /// A level holds more than `refmax` references.
    OverfullLevel {
        /// The audited peer.
        peer: PeerId,
        /// The offending (1-based) level.
        level: usize,
        /// How many references the level holds.
        found: usize,
    },
    /// A peer references itself.
    SelfReference {
        /// The audited peer.
        peer: PeerId,
        /// The offending (1-based) level.
        level: usize,
    },
    /// A referenced peer's path does not reach the reference's level.
    ShallowReference {
        /// The audited peer.
        peer: PeerId,
        /// The offending (1-based) level.
        level: usize,
        /// The referenced peer.
        target: PeerId,
    },
    /// A referenced peer disagrees on the shared prefix below the level.
    PrefixMismatch {
        /// The audited peer.
        peer: PeerId,
        /// The offending (1-based) level.
        level: usize,
        /// The referenced peer.
        target: PeerId,
    },
    /// A referenced peer sits on the *same* side of the level's bit.
    SameSideReference {
        /// The audited peer.
        peer: PeerId,
        /// The offending (1-based) level.
        level: usize,
        /// The referenced peer.
        target: PeerId,
    },
    /// A recorded replica (buddy) has a different path.
    ReplicaPathMismatch {
        /// The audited peer.
        peer: PeerId,
        /// The disagreeing buddy.
        buddy: PeerId,
    },
    /// An index entry's key lies outside the peer's responsibility, and the
    /// peer has *not* flagged itself misplaced.
    ForeignEntry {
        /// The audited peer.
        peer: PeerId,
        /// The orphaned key.
        key: Key,
    },
}

impl Violation {
    /// The peer whose state is invalid.
    pub fn peer(&self) -> PeerId {
        match *self {
            Violation::PathTooLong { peer, .. }
            | Violation::ReferenceBeyondPath { peer, .. }
            | Violation::OverfullLevel { peer, .. }
            | Violation::SelfReference { peer, .. }
            | Violation::ShallowReference { peer, .. }
            | Violation::PrefixMismatch { peer, .. }
            | Violation::SameSideReference { peer, .. }
            | Violation::ReplicaPathMismatch { peer, .. }
            | Violation::ForeignEntry { peer, .. } => peer,
        }
    }

    /// The routing level involved, or 0 when the violation is not
    /// level-scoped (path, buddy, and data violations).
    pub fn level(&self) -> usize {
        match *self {
            Violation::ReferenceBeyondPath { level, .. }
            | Violation::OverfullLevel { level, .. }
            | Violation::SelfReference { level, .. }
            | Violation::ShallowReference { level, .. }
            | Violation::PrefixMismatch { level, .. }
            | Violation::SameSideReference { level, .. } => level,
            _ => 0,
        }
    }

    /// Stable short name of the violation class — the same tag string the
    /// flight recorder writes, so traces and reports reconcile textually.
    pub fn kind_name(&self) -> &'static str {
        match self {
            Violation::PathTooLong { .. } => "path_too_long",
            Violation::ReferenceBeyondPath { .. } => "beyond_path",
            Violation::OverfullLevel { .. } => "overfull",
            Violation::SelfReference { .. } => "self_ref",
            Violation::ShallowReference { .. } => "shallow_ref",
            Violation::PrefixMismatch { .. } => "prefix_mismatch",
            Violation::SameSideReference { .. } => "same_side",
            Violation::ReplicaPathMismatch { .. } => "replica_mismatch",
            Violation::ForeignEntry { .. } => "foreign_entry",
        }
    }
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Violation::PathTooLong { peer, len } => {
                write!(f, "{peer}: path of {len} bits exceeds maxl")
            }
            Violation::ReferenceBeyondPath { peer, level } => {
                write!(f, "{peer}: non-empty refs at level {level} beyond path")
            }
            Violation::OverfullLevel { peer, level, found } => {
                write!(f, "{peer}: {found} refs at level {level} exceed refmax")
            }
            Violation::SelfReference { peer, level } => {
                write!(f, "{peer}: self-reference at level {level}")
            }
            Violation::ShallowReference {
                peer,
                level,
                target,
            } => write!(
                f,
                "{peer}: ref {target} at level {level} has too short a path"
            ),
            Violation::PrefixMismatch {
                peer,
                level,
                target,
            } => write!(
                f,
                "{peer}: ref {target} at level {level} disagrees on the shared prefix"
            ),
            Violation::SameSideReference {
                peer,
                level,
                target,
            } => write!(
                f,
                "{peer}: ref {target} at level {level} is on the same side"
            ),
            Violation::ReplicaPathMismatch { peer, buddy } => {
                write!(f, "{peer}: buddy {buddy} has a different path")
            }
            Violation::ForeignEntry { peer, key } => {
                write!(f, "{peer}: hosts entry {key} outside its path")
            }
        }
    }
}

impl PGrid {
    /// Audits one peer's state against the P-Grid validity conditions,
    /// appending every violation to `out`. Read-only and purely local: the
    /// audit consults only the peer's own table plus the paths of the peers
    /// it references (which a live node learns from the frames it already
    /// exchanges).
    pub fn audit_peer(&self, id: PeerId, out: &mut Vec<Violation>) {
        let peer = self.peer(id);
        let path = peer.path();
        if path.len() > self.config().maxl {
            out.push(Violation::PathTooLong {
                peer: id,
                len: path.len(),
            });
        }
        for (level, refs) in peer.routing().iter() {
            if level > path.len() {
                if !refs.is_empty() {
                    out.push(Violation::ReferenceBeyondPath { peer: id, level });
                }
                continue;
            }
            if refs.len() > self.config().refmax {
                out.push(Violation::OverfullLevel {
                    peer: id,
                    level,
                    found: refs.len(),
                });
            }
            for &r in refs.as_slice() {
                if r == id {
                    out.push(Violation::SelfReference { peer: id, level });
                    continue;
                }
                let other = self.peer(r).path();
                if other.len() < level {
                    out.push(Violation::ShallowReference {
                        peer: id,
                        level,
                        target: r,
                    });
                    continue;
                }
                if other.prefix(level - 1) != path.prefix(level - 1) {
                    out.push(Violation::PrefixMismatch {
                        peer: id,
                        level,
                        target: r,
                    });
                } else if other.bit(level - 1) == path.bit(level - 1) {
                    out.push(Violation::SameSideReference {
                        peer: id,
                        level,
                        target: r,
                    });
                }
            }
        }
        for buddy in peer.buddies() {
            if self.peer(buddy).path() != path {
                out.push(Violation::ReplicaPathMismatch { peer: id, buddy });
            }
        }
        // Data placement: skipped while the misplaced flag is up, because
        // custody of unplaceable entries is a state the exchange protocol
        // itself produces (and its anti-entropy resolves).
        if !peer.has_misplaced() {
            peer.index()
                .for_each_under(&pgrid_keys::BitPath::EMPTY, |key, _| {
                    if !path.responsible_for(&key) {
                        out.push(Violation::ForeignEntry { peer: id, key });
                    }
                });
        }
    }

    /// Audits the whole community: the concatenation of every peer's
    /// [`PGrid::audit_peer`] result, in peer order. An empty result means
    /// the grid is valid; the convergence experiments drive this to zero.
    pub fn audit(&self) -> Vec<Violation> {
        let mut out = Vec::new();
        for i in 0..self.len() {
            self.audit_peer(PeerId::from_index(i), &mut out);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BuildOptions, Ctx, IndexEntry, PGridConfig};
    use pgrid_keys::BitPath;
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
            128,
            PGridConfig {
                maxl: 4,
                refmax: 2,
                ..PGridConfig::default()
            },
        );
        grid.build(&BuildOptions::default(), &mut ctx);
        grid
    }

    fn entry() -> IndexEntry {
        IndexEntry {
            item: ItemId(1),
            holder: PeerId(9),
            version: Version(0),
        }
    }

    #[test]
    fn built_grids_audit_clean() {
        for seed in [1u64, 2, 3] {
            let grid = built_grid(seed);
            let violations = grid.audit();
            assert!(
                violations.is_empty(),
                "seed {seed}: {:?}",
                violations.first()
            );
        }
    }

    #[test]
    fn audit_agrees_with_the_global_checker() {
        let mut grid = built_grid(4);
        assert!(grid.check_invariants().is_ok());
        assert!(grid.audit().is_empty());
        // Break one reference; both checkers must now complain.
        let victim = PeerId(0);
        let path = grid.peer(victim).path();
        assert!(!path.is_empty());
        grid.overwrite_peer_refs(victim, 1, &[victim]);
        assert!(grid.check_invariants().is_err());
        let violations = grid.audit();
        assert_eq!(
            violations,
            vec![Violation::SelfReference {
                peer: victim,
                level: 1
            }]
        );
    }

    #[test]
    fn each_corruption_class_yields_its_variant() {
        let mut grid = built_grid(5);
        let a = PeerId(0);
        let apath = grid.peer(a).path();
        assert!(apath.len() >= 2, "peer 0 specialized");

        // Same-side reference: point level 1 at a peer agreeing on bit 0.
        let same_side = grid
            .peers()
            .find(|p| p.id() != a && !p.path().is_empty() && p.path().bit(0) == apath.bit(0))
            .map(|p| p.id())
            .expect("some peer shares bit 0");
        grid.overwrite_peer_refs(a, 1, &[same_side]);
        let mut v = Vec::new();
        grid.audit_peer(a, &mut v);
        assert_eq!(
            v,
            vec![Violation::SameSideReference {
                peer: a,
                level: 1,
                target: same_side
            }]
        );

        // Shallow reference: a target whose path does not reach the level.
        let mut grid = built_grid(5);
        let shallow = grid
            .peers()
            .map(|p| (p.id(), p.path().len()))
            .filter(|&(id, _)| id != a)
            .min_by_key(|&(_, len)| len)
            .map(|(id, _)| id)
            .unwrap();
        let deep = grid.peer(a).path().len();
        if grid.peer(shallow).path().len() < deep {
            grid.overwrite_peer_refs(a, deep, &[shallow]);
            let mut v = Vec::new();
            grid.audit_peer(a, &mut v);
            assert!(
                v.iter().any(|x| matches!(
                    x,
                    Violation::ShallowReference { .. } | Violation::PrefixMismatch { .. }
                )),
                "{v:?}"
            );
        }

        // Orphaned path: overwrite the path, leaving refs and data behind.
        let mut grid = built_grid(5);
        let flipped = grid.peer(a).path().with_flipped(0);
        grid.overwrite_peer_path(a, flipped);
        let mut v = Vec::new();
        grid.audit_peer(a, &mut v);
        assert!(
            v.iter()
                .any(|x| matches!(x, Violation::SameSideReference { .. })),
            "a flipped path must invalidate level-1 refs: {v:?}"
        );

        // Junk hosted item: an entry outside the path.
        let mut grid = built_grid(5);
        let apath = grid.peer(a).path();
        let foreign_key = apath.with_flipped(0).append(&BitPath::from_str_lossy("00"));
        assert!(!apath.responsible_for(&foreign_key));
        grid.peer_mut(a).index_insert(foreign_key, entry());
        let mut v = Vec::new();
        grid.audit_peer(a, &mut v);
        assert_eq!(
            v,
            vec![Violation::ForeignEntry {
                peer: a,
                key: foreign_key
            }]
        );

        // Inconsistent replica set: a buddy with a different path.
        let mut grid = built_grid(5);
        let other_side = grid
            .peers()
            .find(|p| p.id() != a && p.path() != grid.peer(a).path())
            .map(|p| p.id())
            .unwrap();
        grid.peer_mut(a).add_buddy(other_side);
        let mut v = Vec::new();
        grid.audit_peer(a, &mut v);
        assert_eq!(
            v,
            vec![Violation::ReplicaPathMismatch {
                peer: a,
                buddy: other_side
            }]
        );
    }

    #[test]
    fn misplaced_flag_suppresses_foreign_entry() {
        let mut grid = built_grid(6);
        let a = PeerId(1);
        let apath = grid.peer(a).path();
        assert!(!apath.is_empty());
        let foreign_key = apath.with_flipped(0);
        grid.peer_mut(a).index_insert(foreign_key, entry());
        grid.peer_mut(a).set_misplaced(true);
        let mut v = Vec::new();
        grid.audit_peer(a, &mut v);
        assert!(v.is_empty(), "custody pending anti-entropy is legal: {v:?}");
        grid.peer_mut(a).set_misplaced(false);
        grid.audit_peer(a, &mut v);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].kind_name(), "foreign_entry");
    }

    #[test]
    fn violation_accessors_and_display() {
        let v = Violation::PrefixMismatch {
            peer: PeerId(3),
            level: 2,
            target: PeerId(7),
        };
        assert_eq!(v.peer(), PeerId(3));
        assert_eq!(v.level(), 2);
        assert_eq!(v.kind_name(), "prefix_mismatch");
        assert!(v.to_string().contains("level 2"));
        let d = Violation::ForeignEntry {
            peer: PeerId(1),
            key: BitPath::from_str_lossy("0110"),
        };
        assert_eq!(d.level(), 0);
        assert!(d.to_string().contains("0110"));
        // Overfull carries its count both ways.
        let o = Violation::OverfullLevel {
            peer: PeerId(2),
            level: 1,
            found: 9,
        };
        assert!(o.to_string().contains('9'));
        assert_eq!(o.kind_name(), "overfull");
    }
}
