//! The application-level facade: a P2P *information system*.
//!
//! The paper's title promises more than a routing structure: peers publish
//! named information items, anyone can look them up, update them, and — with
//! an order-preserving mapper — ask range questions. [`InformationSystem`]
//! packages the full pipeline (name → key mapping, hosting in the
//! publisher's [`LocalStore`](pgrid_store::LocalStore), index insertion
//! through the grid, repeated-read consistency) behind five calls:
//!
//! ```
//! use pgrid_core::{InformationSystem, SystemConfig};
//! use pgrid_net::{AlwaysOnline, NetStats};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(9);
//! let mut online = AlwaysOnline;
//! let mut stats = NetStats::new();
//! let mut ctx = pgrid_core::Ctx::new(&mut rng, &mut online, &mut stats);
//!
//! let mut system = InformationSystem::bootstrap(128, SystemConfig::default(), &mut ctx);
//! let publisher = pgrid_net::PeerId(3);
//! system.publish(publisher, "song.mp3", b"bytes".to_vec(), &mut ctx);
//! let hit = system.lookup("song.mp3", &mut ctx).expect("found");
//! assert_eq!(hit.holders, vec![publisher]);
//! ```

use pgrid_keys::{HashKeyMapper, Key, KeyMapper};
use pgrid_net::PeerId;
use pgrid_store::{DataItem, ItemId, Version};

use crate::update::{FindStrategy, QueryPolicy};
use crate::{BuildOptions, Ctx, IndexEntry, PGrid, PGridConfig};

/// Configuration of an [`InformationSystem`].
#[derive(Clone, Copy, Debug)]
pub struct SystemConfig {
    /// The underlying grid parameters.
    pub grid: PGridConfig,
    /// Key length items are indexed under (must exceed the path length).
    pub key_len: u8,
    /// How inserts and updates locate replicas.
    pub write_strategy: FindStrategy,
    /// How lookups decide between conflicting replica answers.
    pub read_policy: QueryPolicy,
}

impl Default for SystemConfig {
    fn default() -> Self {
        SystemConfig {
            grid: PGridConfig {
                maxl: 6,
                refmax: 4,
                ..PGridConfig::default()
            },
            key_len: 16,
            write_strategy: FindStrategy::Bfs {
                recbreadth: 2,
                repetition: 2,
            },
            read_policy: QueryPolicy::default(),
        }
    }
}

/// A successful lookup.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Lookup {
    /// The item's id.
    pub item: ItemId,
    /// Peers hosting the payload.
    pub holders: Vec<PeerId>,
    /// Version the answering replica believes current.
    pub version: Version,
    /// Messages the lookup spent.
    pub messages: u64,
}

/// A named-item publish/lookup/update layer over a [`PGrid`].
///
/// Names are mapped to keys with a [`HashKeyMapper`] (the paper's uniformity
/// assumption); swap in an order-preserving mapper via
/// [`InformationSystem::with_mapper`] to enable meaningful
/// [`PGrid::range_entries`] queries over names.
pub struct InformationSystem<M: KeyMapper = HashKeyMapper> {
    grid: PGrid,
    mapper: M,
    config: SystemConfig,
    next_item: u64,
}

impl InformationSystem<HashKeyMapper> {
    /// Builds a fresh community of `n` peers and constructs the access
    /// structure by random meetings.
    pub fn bootstrap(n: usize, config: SystemConfig, ctx: &mut Ctx<'_>) -> Self {
        Self::built(PGrid::new(n, config.grid), config, ctx)
    }

    /// Like [`InformationSystem::bootstrap`], but hosted items live in the
    /// storage backend `storage` opens per peer. Backend choice draws no
    /// randomness: under the same seed the resulting system is
    /// byte-identical to [`InformationSystem::bootstrap`].
    ///
    /// # Panics
    /// If a backend fails to open or recover.
    pub fn bootstrap_with_storage(
        n: usize,
        config: SystemConfig,
        storage: &pgrid_store::StorageSpec,
        ctx: &mut Ctx<'_>,
    ) -> Self {
        let grid = PGrid::with_storage(n, config.grid, storage)
            .unwrap_or_else(|e| panic!("storage backend failed to open: {e}"));
        Self::built(grid, config, ctx)
    }

    /// Runs construction on a fresh `grid` and wraps it.
    fn built(mut grid: PGrid, config: SystemConfig, ctx: &mut Ctx<'_>) -> Self {
        grid.build(&BuildOptions::default(), ctx);
        InformationSystem {
            grid,
            mapper: HashKeyMapper::default(),
            config,
            next_item: 0,
        }
    }
}

impl<M: KeyMapper> InformationSystem<M> {
    /// Replaces the name → key mapper (e.g. with an order-preserving one).
    pub fn with_mapper<M2: KeyMapper>(self, mapper: M2) -> InformationSystem<M2> {
        InformationSystem {
            grid: self.grid,
            mapper,
            config: self.config,
            next_item: self.next_item,
        }
    }

    /// The underlying grid (for metrics, repair, snapshots).
    pub fn grid(&self) -> &PGrid {
        &self.grid
    }

    /// Mutable access to the underlying grid.
    pub fn grid_mut(&mut self) -> &mut PGrid {
        &mut self.grid
    }

    /// The key a name maps to.
    pub fn key_of(&self, name: &str) -> Key {
        self.mapper.map(name, self.config.key_len)
    }

    /// Publishes a named item: the payload is hosted at `publisher` and the
    /// index entry is routed to the responsible replicas. Returns the item
    /// id and the insertion cost in messages.
    pub fn publish(
        &mut self,
        publisher: PeerId,
        name: &str,
        payload: Vec<u8>,
        ctx: &mut Ctx<'_>,
    ) -> (ItemId, u64) {
        let key = self.key_of(name);
        let item = ItemId(self.next_item);
        self.next_item += 1;
        self.grid
            .peer_mut(publisher)
            .store_mut()
            .insert(DataItem::with_payload(item, name, key, payload));
        let outcome = self.grid.insert_item(
            &key,
            IndexEntry {
                item,
                holder: publisher,
                version: Version::INITIAL,
            },
            self.config.write_strategy,
            ctx,
        );
        (item, outcome.messages)
    }

    /// Looks a name up with the configured repeated-read policy. Returns
    /// `None` when no replica with an entry could be reached.
    pub fn lookup(&self, name: &str, ctx: &mut Ctx<'_>) -> Option<Lookup> {
        let key = self.key_of(name);
        let mut messages = 0u64;
        for _ in 0..self.config.read_policy.max_searches {
            let start = self.grid.random_peer(ctx);
            let (outcome, entries) = self.grid.search_entries_ref(start, &key, ctx);
            messages += outcome.messages;
            if let Some(best) = entries.iter().max_by_key(|e| e.version) {
                let holders = entries
                    .iter()
                    .filter(|e| e.version == best.version && e.item == best.item)
                    .map(|e| e.holder)
                    .collect();
                return Some(Lookup {
                    item: best.item,
                    holders,
                    version: best.version,
                    messages,
                });
            }
            if outcome.responsible.is_none() {
                continue; // routing failed; retry from another entry point
            }
            // A responsible replica answered but has no entry: the item may
            // genuinely not exist, but another replica might hold it — keep
            // retrying within the budget.
        }
        None
    }

    /// Publishes a new version of an existing item; returns the number of
    /// replicas updated and the message cost.
    pub fn update(
        &mut self,
        name: &str,
        item: ItemId,
        new_version: Version,
        ctx: &mut Ctx<'_>,
    ) -> (usize, u64) {
        let key = self.key_of(name);
        let outcome =
            self.grid
                .update_item(&key, item, new_version, self.config.write_strategy, ctx);
        (outcome.updated.len(), outcome.messages)
    }

    /// Fetches the payload of a previously looked-up item from one of its
    /// holders (one message when the holder is reachable).
    pub fn fetch(&self, hit: &Lookup, ctx: &mut Ctx<'_>) -> Option<Vec<u8>> {
        for &holder in &hit.holders {
            if ctx.contact(holder) {
                ctx.message(pgrid_net::MsgKind::Control);
                if let Some(data) = self.grid.peer(holder).store().get(hit.item) {
                    return Some(data.payload);
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgrid_net::{AlwaysOnline, BernoulliOnline};

    /// Task 0 continues the master stream, so this reproduces the RNG
    /// draws of the old hand-rolled `(StdRng, AlwaysOnline, NetStats)`
    /// helper bit for bit.
    fn owned_ctx(seed: u64) -> crate::OwnedCtx {
        Ctx::fork_for_task(seed, 0, Box::new(AlwaysOnline))
    }

    #[test]
    fn publish_lookup_fetch_round_trip() {
        let mut owned = owned_ctx(1);
        let mut ctx = owned.ctx();
        let mut sys = InformationSystem::bootstrap(256, SystemConfig::default(), &mut ctx);
        let (item, cost) = sys.publish(PeerId(7), "report.pdf", b"PDF".to_vec(), &mut ctx);
        assert!(cost > 0, "insertion routes through the grid");
        let hit = sys
            .lookup("report.pdf", &mut ctx)
            .expect("published item found");
        assert_eq!(hit.item, item);
        assert_eq!(hit.holders, vec![PeerId(7)]);
        assert_eq!(hit.version, Version::INITIAL);
        let payload = sys.fetch(&hit, &mut ctx).expect("holder online");
        assert_eq!(payload, b"PDF");
    }

    #[test]
    fn missing_names_return_none() {
        let mut owned = owned_ctx(2);
        let mut ctx = owned.ctx();
        let sys = InformationSystem::bootstrap(128, SystemConfig::default(), &mut ctx);
        assert!(sys.lookup("never-published", &mut ctx).is_none());
    }

    #[test]
    fn updates_become_visible() {
        let mut owned = owned_ctx(3);
        let mut ctx = owned.ctx();
        let mut sys = InformationSystem::bootstrap(256, SystemConfig::default(), &mut ctx);
        let (item, _) = sys.publish(PeerId(1), "config.toml", b"v0".to_vec(), &mut ctx);
        let (updated, _) = sys.update("config.toml", item, Version(1), &mut ctx);
        assert!(updated > 0);
        // Repeated lookups pick the newest version seen.
        let mut newest = 0;
        for _ in 0..10 {
            if let Some(hit) = sys.lookup("config.toml", &mut ctx) {
                newest = newest.max(hit.version.0);
            }
        }
        assert_eq!(newest, 1, "the update must become visible");
    }

    #[test]
    fn many_publishers_all_discoverable() {
        let mut owned = owned_ctx(4);
        let mut ctx = owned.ctx();
        let mut sys = InformationSystem::bootstrap(512, SystemConfig::default(), &mut ctx);
        for i in 0..30u32 {
            sys.publish(
                PeerId(i * 17 % 512),
                &format!("file-{i}"),
                vec![i as u8],
                &mut ctx,
            );
        }
        let mut found = 0;
        for i in 0..30u32 {
            if let Some(hit) = sys.lookup(&format!("file-{i}"), &mut ctx) {
                assert_eq!(hit.holders, vec![PeerId(i * 17 % 512)]);
                found += 1;
            }
        }
        assert!(found >= 28, "published items discoverable: {found}/30");
    }

    #[test]
    fn lookups_survive_churn() {
        let mut owned = owned_ctx(5);
        let mut sys = {
            let mut ctx = owned.ctx();
            InformationSystem::bootstrap(512, SystemConfig::default(), &mut ctx)
        };
        {
            let mut ctx = owned.ctx();
            for i in 0..10u32 {
                sys.publish(PeerId(i), &format!("item-{i}"), vec![], &mut ctx);
            }
        }
        owned.set_online(Box::new(BernoulliOnline::new(0.5)));
        let mut ctx = owned.ctx();
        let mut found = 0;
        for i in 0..10u32 {
            if sys.lookup(&format!("item-{i}"), &mut ctx).is_some() {
                found += 1;
            }
        }
        assert!(found >= 7, "lookups retry through churn: {found}/10");
    }
}
