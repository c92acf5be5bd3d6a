//! The centralized index server of the §6 comparison.

use std::collections::BTreeMap;

use pgrid_keys::Key;
use pgrid_net::{MsgKind, NetStats, PeerId};

/// A Napster-style central index: every client registers its keys with one
/// server; every query is answered by the server.
///
/// §6 of the paper compares this architecture with P-Grid:
/// server storage is `O(D)` and server query load is `O(N)` (each of `N`
/// clients issues a constant number of queries per time unit), while P-Grid
/// spreads `O(log D)` storage and `O(log N)` query messages over all peers.
///
/// ```
/// use pgrid_baselines::CentralServer;
/// use pgrid_net::{NetStats, PeerId};
///
/// let mut server = CentralServer::new();
/// let mut stats = NetStats::new();
/// server.register("0101".parse().unwrap(), PeerId(1), &mut stats);
/// assert_eq!(server.query(&"0101".parse().unwrap(), &mut stats), &[PeerId(1)]);
/// assert_eq!(server.server_messages, 2);
/// ```
#[derive(Clone, Debug, Default)]
pub struct CentralServer {
    holders: BTreeMap<Key, Vec<PeerId>>,
    /// Messages the server has processed (registrations + queries).
    pub server_messages: u64,
}

impl CentralServer {
    /// An empty index.
    pub fn new() -> Self {
        CentralServer::default()
    }

    /// A client registers a key it hosts (one message to the server).
    pub fn register(&mut self, key: Key, holder: PeerId, stats: &mut NetStats) {
        self.server_messages += 1;
        stats.record(MsgKind::Control);
        let slot = self.holders.entry(key).or_default();
        if !slot.contains(&holder) {
            slot.push(holder);
        }
    }

    /// A client queries a key (one message to the server, answered
    /// directly). Returns the holders.
    pub fn query(&mut self, key: &Key, stats: &mut NetStats) -> &[PeerId] {
        self.server_messages += 1;
        stats.record(MsgKind::Query);
        self.holders.get(key).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Index entries the server stores — `O(D)`.
    pub fn storage(&self) -> usize {
        self.holders.values().map(Vec::len).sum()
    }

    /// Number of distinct keys registered.
    pub fn distinct_keys(&self) -> usize {
        self.holders.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgrid_keys::BitPath;

    fn key(s: &str) -> Key {
        BitPath::from_str_lossy(s)
    }

    #[test]
    fn register_and_query() {
        let mut s = CentralServer::new();
        let mut stats = NetStats::new();
        s.register(key("01"), PeerId(1), &mut stats);
        s.register(key("01"), PeerId(2), &mut stats);
        s.register(key("01"), PeerId(1), &mut stats); // duplicate ignored
        s.register(key("10"), PeerId(3), &mut stats);
        assert_eq!(s.query(&key("01"), &mut stats), &[PeerId(1), PeerId(2)]);
        assert_eq!(s.query(&key("11"), &mut stats), &[] as &[PeerId]);
        assert_eq!(s.storage(), 3);
        assert_eq!(s.distinct_keys(), 2);
        assert_eq!(s.server_messages, 6, "4 registrations + 2 queries");
        assert_eq!(stats.count(MsgKind::Query), 2);
    }

    #[test]
    fn server_load_grows_linearly_with_clients() {
        // The §6 bottleneck: if each of N clients issues one query, the
        // server handles N messages.
        let mut stats = NetStats::new();
        for n in [10u32, 100] {
            let mut s = CentralServer::new();
            for c in 0..n {
                s.register(key("0"), PeerId(c), &mut stats);
            }
            let registrations = s.server_messages;
            for _ in 0..n {
                s.query(&key("0"), &mut stats);
            }
            assert_eq!(s.server_messages - registrations, u64::from(n));
        }
    }
}
