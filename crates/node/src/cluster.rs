//! Driving a community of live nodes.

use std::sync::mpsc::Receiver;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use pgrid_keys::Key;
use pgrid_net::{draw, NetStats, PeerId};
use pgrid_store::StorageSpec;
use pgrid_trace::NullTracer;
use pgrid_wire::{encode_frame, Message, WireEntry};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::{
    lock, reseed_from_journal, FaultPlan, NodeState, SimTransport, TcpTransport,
    TcpTransportConfig, Transport,
};

/// Shape of a live cluster.
#[derive(Clone, Copy, Debug)]
pub struct ClusterConfig {
    /// Number of nodes.
    pub n: usize,
    /// Maximal path length.
    pub maxl: usize,
    /// References per level.
    pub refmax: usize,
    /// Exchange recursion bound.
    pub recmax: u8,
    /// Recursion fan-out bound.
    pub recfanout: usize,
    /// Query hop budget.
    pub ttl: u16,
    /// RNG seed (over sockets, scheduling still makes runs non-deterministic;
    /// on the virtual clock it fixes the run).
    pub seed: u64,
    /// Client-level query attempts, each from a *different* random entry
    /// node (the paper's remedy for dead-ended randomized searches).
    pub query_attempts: usize,
    /// How long one query attempt waits for its answer.
    pub query_timeout_ms: u64,
    /// Optional fault plan installed on the transport at spawn time.
    pub faults: Option<FaultPlan>,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            n: 32,
            maxl: 4,
            refmax: 2,
            recmax: 2,
            recfanout: 2,
            ttl: 64,
            seed: 7,
            query_attempts: 4,
            query_timeout_ms: 2000,
            faults: None,
        }
    }
}

/// A running community of live nodes over transport `T`, plus a client
/// endpoint for issuing queries: spawns the peers, drives meetings, inserts
/// and queries with failover, crashes and restarts peers, and snapshots
/// convergence. Everything here is deployment-independent; what differs
/// between sockets and the virtual clock lives behind [`Transport`].
pub struct Community<T: Transport> {
    transport: T,
    states: Vec<Arc<Mutex<NodeState>>>,
    /// Crash markers (parallel to `states`): a crashed node keeps its
    /// durable state but has no shell or endpoint until restarted.
    crashed: Vec<bool>,
    client_id: PeerId,
    client_rx: Receiver<(PeerId, Message)>,
    next_query_id: u64,
    rng: StdRng,
    config: ClusterConfig,
    /// When set, every node journals its index custody into a per-slot
    /// backend of this spec, and restarts reseed from it.
    storage: Option<StorageSpec>,
}

/// The socket community: every frame crosses a real loopback TCP
/// connection and the peers are multiplexed on [`TcpTransport`]'s
/// event-loop workers, so the OS footprint is the worker pool, not `n`
/// threads.
pub type TcpCluster = Community<TcpTransport>;

/// The virtual-clock community: every shell on the caller's thread, frames
/// in one deterministic queue ([`SimTransport`]), so a seed fixes the run.
pub type SimCluster = Community<SimTransport>;

/// [`SimCluster`] under its former name. It exists only because
/// `benchmark/src/live.rs` names it (the `node.local_lookup_p50_us` probe);
/// ROADMAP item 3(b) removes it.
pub type Cluster = SimCluster;

impl Community<SimTransport> {
    /// Hosts `config.n` shells on a fresh virtual-clock transport (index
    /// custody stays in RAM; the queue is unbounded).
    pub fn spawn(config: ClusterConfig) -> Self {
        Self::over(SimTransport::new(), config, None)
    }
}

impl Community<TcpTransport> {
    /// Spawns the community on a fresh loopback transport with `workers`
    /// event-loop threads (index custody stays in RAM).
    ///
    /// # Panics
    /// If the loopback listener cannot bind.
    pub fn spawn(config: ClusterConfig, workers: usize) -> Self {
        Self::over(Self::loopback(&config, workers), config, None)
    }

    /// [`TcpCluster::spawn`] with durable per-node journals: slot `i`
    /// opens `storage.open_for(i)`, and every index entry a node takes
    /// custody of is appended. Backends that already hold records — a
    /// previous run's journals — are reseeded into the fresh protocol
    /// states before the shells start, so a cold-started community
    /// re-announces everything it durably owned.
    ///
    /// # Panics
    /// If the listener cannot bind, a backend fails to open, or a backend
    /// refuses to load (real corruption).
    pub fn spawn_with_storage(config: ClusterConfig, workers: usize, storage: StorageSpec) -> Self {
        Self::over(Self::loopback(&config, workers), config, Some(storage))
    }

    fn loopback(config: &ClusterConfig, workers: usize) -> TcpTransport {
        TcpTransport::bind(TcpTransportConfig {
            workers,
            seed: config.seed,
            ..TcpTransportConfig::default()
        })
        .expect("bind loopback listener")
    }
}

impl<T: Transport> Community<T> {
    /// Hosts `config.n` fresh peers on `transport`, then opens the client
    /// endpoint — in that order, which fixes socket worker placement.
    fn over(transport: T, config: ClusterConfig, storage: Option<StorageSpec>) -> Self {
        assert!(config.n >= 2, "a cluster needs at least two nodes");
        if let Some(plan) = config.faults {
            transport.inject_faults(plan);
        }
        let states = (0..config.n)
            .map(|i| Self::host_fresh(&transport, &config, storage.as_ref(), i))
            .collect();
        // The client endpoint sits far above any plausible node id so nodes
        // added later never collide with it.
        let client_id = PeerId(u32::MAX - 1);
        let client_rx = transport.open_client(client_id);
        Community {
            transport,
            states,
            crashed: vec![false; config.n],
            client_id,
            client_rx,
            next_query_id: 1,
            rng: StdRng::seed_from_u64(config.seed ^ 0xc11e),
            config,
            storage,
        }
    }

    /// Hosts a shell for `state` seeded with `seed`. With storage, the
    /// peer's journal is (re)opened first and whatever it holds is reseeded
    /// into `state` — idempotent on state that survived a crash. The
    /// previous shell, if any, was evicted, so its journal handle is
    /// flushed and closed.
    fn host(
        transport: &T,
        storage: Option<&StorageSpec>,
        state: &Arc<Mutex<NodeState>>,
        seed: u64,
    ) {
        let journal = storage.map(|spec| {
            let slot = lock(state).id.index();
            let journal = spec.open_for(slot).expect("open storage backend");
            reseed_from_journal(state, &journal);
            journal
        });
        transport.host(Arc::clone(state), seed, journal, Box::new(NullTracer));
    }

    /// Hosts a brand-new peer in slot `idx` (empty path).
    fn host_fresh(
        transport: &T,
        config: &ClusterConfig,
        storage: Option<&StorageSpec>,
        idx: usize,
    ) -> Arc<Mutex<NodeState>> {
        let mut peer = NodeState::new(
            PeerId::from_index(idx),
            config.maxl,
            config.refmax,
            config.recfanout,
        );
        peer.recmax = config.recmax;
        let state = Arc::new(Mutex::new(peer));
        let seed = config.seed ^ ((idx as u64) << 20);
        Self::host(transport, storage, &state, seed);
        state
    }

    /// Number of nodes (live, crashed, or killed).
    pub fn len(&self) -> usize {
        self.states.len()
    }

    /// `true` when the cluster has no nodes (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.states.is_empty()
    }

    /// The shared transport (fault injection, counters).
    pub fn transport(&self) -> &T {
        &self.transport
    }

    /// Snapshot of the transport's fault/robustness counters.
    pub fn net_stats(&self) -> NetStats {
        self.transport.net_stats()
    }

    /// Installs a fault plan on the running cluster's transport.
    pub fn inject_faults(&self, plan: FaultPlan) {
        self.transport.inject_faults(plan);
    }

    /// Removes the fault plan (held-back frames are delivered at once).
    pub fn clear_faults(&self) {
        self.transport.clear_faults();
    }

    /// Injects `meetings` random pairwise meetings (among live nodes) and
    /// waits for the network to go quiescent. The meeting instructions
    /// themselves travel as control frames (the driver's steering wheel);
    /// the exchanges they trigger use the faulty links.
    pub fn build(&mut self, meetings: usize) {
        let live = self.live_nodes();
        let n = live.len();
        if n < 2 {
            return;
        }
        for _ in 0..meetings {
            let i = draw::below(&mut self.rng, n);
            let mut j = draw::below(&mut self.rng, n - 1);
            if j >= i {
                j += 1;
            }
            self.meet(live[i], live[j]);
        }
        self.settle();
    }

    /// Introduces `node` to `with`: one deterministic meeting instruction
    /// (the scripted counterpart of [`Community::build`]'s random
    /// meetings). The instruction travels as a control frame; the exchange
    /// it triggers uses the (possibly faulty) links. Call
    /// [`Community::settle`] to wait the exchange out.
    pub fn meet(&self, node: PeerId, with: PeerId) {
        let frame = encode_frame(&Message::Meet { with });
        self.transport.send_control(self.client_id, node, frame);
    }

    /// Routes an index insertion into the grid (fire-and-forget, like a
    /// real insert; call [`Community::settle`] before querying it back).
    pub fn insert(&mut self, key: Key, entry: WireEntry) {
        let live = self.live_nodes();
        if live.is_empty() {
            return;
        }
        let entry_node = live[draw::below(&mut self.rng, live.len())];
        self.insert_at(key, entry, entry_node);
    }

    /// Routes an index insertion into the grid entering at a *chosen* node
    /// (the scripted counterpart of [`Community::insert`]).
    pub fn insert_at(&mut self, key: Key, entry: WireEntry, entry_node: PeerId) {
        let seq = self.next_query_id;
        self.next_query_id += 1;
        let frame = encode_frame(&Message::IndexInsert { seq, key, entry });
        self.transport.send(self.client_id, entry_node, frame);
    }

    /// Waits until no frames have been delivered (and none are held back
    /// or queued in flight) for a few polling rounds. Also drains the
    /// client endpoint, acking stray answers so their senders stop
    /// retransmitting.
    pub fn settle(&self) {
        let mut last = self.transport.delivered();
        let mut stable_rounds = 0;
        while stable_rounds < 5 {
            self.transport.settle_poll();
            self.drain_client();
            let now = self.transport.delivered();
            if now == last && self.transport.in_flight() == 0 {
                stable_rounds += 1;
            } else {
                stable_rounds = 0;
                last = now;
            }
        }
    }

    /// Acks (and discards) everything sitting in the client endpoint —
    /// answers to queries that already timed out at the client still need
    /// acks, or their senders retransmit to nobody.
    fn drain_client(&self) {
        while let Ok((from, msg)) = self.client_rx.try_recv() {
            if let Message::QueryOk { id, .. } | Message::QueryFail { id } = msg {
                let ack = encode_frame(&Message::Ack { seq: id });
                let _ = self.transport.send_control(self.client_id, from, ack);
            }
        }
    }

    /// Mean path length over the live community.
    pub fn avg_path_len(&self) -> f64 {
        let live: Vec<usize> = self
            .states
            .iter()
            .filter(|s| lock(s).maxl != 0)
            .map(|s| lock(s).path.len())
            .collect();
        live.iter().sum::<usize>() as f64 / live.len().max(1) as f64
    }

    /// `(id, path)` of every node (crashed and killed included).
    pub fn paths(&self) -> Vec<(PeerId, String)> {
        self.states
            .iter()
            .map(|s| {
                let g = lock(s);
                (g.id, g.path.to_string())
            })
            .collect()
    }

    /// Checks every node's structural invariants plus the cross-node
    /// reference property (references point to the other side of the level).
    pub fn check_invariants(&self) -> Result<(), String> {
        let snapshot: Vec<NodeState> = self.states.iter().map(|s| lock(s).clone()).collect();
        for node in &snapshot {
            if node.maxl == 0 {
                continue; // killed
            }
            node.check()?;
            for (level, refs) in node.refs.iter() {
                for r in refs.as_slice() {
                    let other = &snapshot[r.index()];
                    if other.maxl == 0 {
                        continue; // stale reference to a departed peer
                    }
                    if other.path.len() < level {
                        return Err(format!(
                            "{}: ref {} at level {level} has short path",
                            node.id, r
                        ));
                    }
                    if level <= node.path.len()
                        && (other.path.prefix(level - 1) != node.path.prefix(level - 1)
                            || other.path.bit(level - 1) == node.path.bit(level - 1))
                    {
                        return Err(format!(
                            "{}: ref {} at level {level} violates the side property",
                            node.id, r
                        ));
                    }
                }
            }
        }
        Ok(())
    }

    /// Issues a query, failing over across up to `query_attempts`
    /// *different* random entry nodes — the live protocol forwards to one
    /// candidate per hop (no distributed backtracking), so a stale
    /// reference or lossy link can dead-end one attempt; repeated
    /// randomized searches are the paper's own remedy (§4).
    ///
    /// An answer without entries also moves on to the next entry node: it
    /// is one replica's view, and an entry placed before its leaf formed
    /// sits at a single replica that another entry node's routing may
    /// reach. Returns the first answer with entries, else the last answer.
    pub fn query(&mut self, key: &Key) -> Option<(PeerId, Vec<WireEntry>)> {
        let mut entries = self.live_nodes();
        if entries.is_empty() {
            return None;
        }
        draw::shuffle(&mut self.rng, &mut entries);
        let mut last = None;
        for attempt in 0..self.config.query_attempts.max(1) {
            let entry_node = entries[attempt % entries.len()];
            match self.query_once_at(key, entry_node) {
                Some(hit) if !hit.1.is_empty() => return Some(hit),
                Some(empty) => last = Some(empty),
                None => {}
            }
        }
        last
    }

    /// One single query attempt entering at `entry_node`.
    pub fn query_once_at(
        &mut self,
        key: &Key,
        entry_node: PeerId,
    ) -> Option<(PeerId, Vec<WireEntry>)> {
        let qid = self.next_query_id;
        self.next_query_id += 1;
        let frame = encode_frame(&Message::Query {
            id: qid,
            origin: self.client_id,
            key: *key,
            matched: 0,
            ttl: self.config.ttl,
        });
        if !self.transport.send(self.client_id, entry_node, frame) {
            return None;
        }
        let deadline = self.transport.now() + Duration::from_millis(self.config.query_timeout_ms);
        while let Some((from, msg)) = self.transport.recv_client(&self.client_rx, deadline) {
            match msg {
                Message::QueryOk {
                    id,
                    responsible,
                    entries,
                } if id == qid => {
                    self.ack_answer(from, id);
                    return Some((responsible, entries));
                }
                Message::QueryFail { id } if id == qid => {
                    self.ack_answer(from, id);
                    return None;
                }
                Message::QueryOk { id, .. } | Message::QueryFail { id } => {
                    // Stale answer from an earlier timed-out attempt (or a
                    // retransmit that crossed our ack): ack it and move on.
                    self.ack_answer(from, id);
                }
                _ => {} // acks to the client, strays — ignore
            }
        }
        None
    }

    /// Acks a query answer so the answering node stops retransmitting. The
    /// ack travels the faulty link like any protocol frame; a lost ack
    /// costs the sender a retransmission, nothing more.
    fn ack_answer(&self, to: PeerId, qid: u64) {
        let ack = encode_frame(&Message::Ack { seq: qid });
        let _ = self.transport.send(self.client_id, to, ack);
    }

    /// Installs an entry directly at every responsible node (oracle seed
    /// for tests).
    pub fn seed_index(&self, key: Key, entry: WireEntry) {
        for s in &self.states {
            let mut guard = lock(s);
            if guard.maxl != 0 && guard.responsible_for(&key) {
                guard.index_insert(key, entry);
            }
        }
    }

    /// Kills one node abruptly and permanently: its endpoint disappears
    /// (in-flight and future frames to it are dropped) and its shell is
    /// gone. Models a permanent departure without any goodbye protocol —
    /// for the recoverable variant see [`Community::crash_node`].
    ///
    /// # Panics
    /// If the node was already killed or is currently crashed.
    pub fn kill_node(&mut self, id: PeerId) {
        assert!(
            !self.crashed[id.index()],
            "node {id} is crashed, not killable"
        );
        assert!(
            lock(&self.states[id.index()]).maxl != 0,
            "node {id} already killed"
        );
        self.transport.evict(id);
        // Mark the state as dead for invariant checks (maxl 0 is otherwise
        // unconstructible).
        lock(&self.states[id.index()]).maxl = 0;
    }

    /// Crashes a node: endpoint and shell die (all volatile protocol state
    /// — pending retransmits, dedup caches — is lost), but the node's
    /// durable state (path, references, index) survives for a later
    /// [`Community::restart_node`]. Peers that contact it meanwhile see a
    /// departed peer and prune their references; the restarted node re-
    /// integrates through ordinary meetings.
    ///
    /// # Panics
    /// If the node is already crashed or was killed.
    pub fn crash_node(&mut self, id: PeerId) {
        assert!(!self.crashed[id.index()], "node {id} already crashed");
        assert!(
            lock(&self.states[id.index()]).maxl != 0,
            "node {id} is dead"
        );
        self.transport.evict(id);
        self.crashed[id.index()] = true;
    }

    /// Restarts a crashed node on its surviving durable state with a fresh
    /// shell and RNG stream.
    ///
    /// # Panics
    /// If the node is not currently crashed.
    pub fn restart_node(&mut self, id: PeerId) {
        assert!(self.crashed[id.index()], "node {id} is not crashed");
        // A distinct seed stream for the reincarnation: correlation ids
        // must not repeat those of the previous life.
        let seed = self.config.seed ^ (u64::from(id.0) << 20) ^ 0xDEAD_BEEF;
        Self::host(
            &self.transport,
            self.storage.as_ref(),
            &self.states[id.index()],
            seed,
        );
        self.crashed[id.index()] = false;
    }

    /// Spawns one additional node and returns its id. The newcomer joins
    /// with the empty path and integrates through ordinary meetings (drive
    /// [`Community::build`] afterwards).
    ///
    /// # Panics
    /// If the node's storage backend fails to open or refuses to load
    /// (real corruption) — an operator error at the local filesystem, not
    /// anything a remote peer can trigger.
    pub fn add_node(&mut self) -> PeerId {
        let id = PeerId::from_index(self.states.len());
        debug_assert_ne!(id, self.client_id);
        self.states.push(Self::host_fresh(
            &self.transport,
            &self.config,
            self.storage.as_ref(),
            id.index(),
        ));
        self.crashed.push(false);
        id
    }

    /// Ids of currently live (not killed, not crashed) nodes.
    pub fn live_nodes(&self) -> Vec<PeerId> {
        self.states
            .iter()
            .enumerate()
            .filter(|(i, s)| !self.crashed[*i] && lock(s).maxl != 0)
            .map(|(_, s)| lock(s).id)
            .collect()
    }

    /// Captures the live community into a [`pgrid_core::GridSnapshot`], the
    /// bridge from the asynchronous deployment into the deterministic
    /// analysis tooling (`GridMetrics`, invariant checks, simulator search,
    /// JSON persistence). Snapshots of the same community over different
    /// transports compare equal.
    ///
    /// # Panics
    /// If any node has been killed — snapshots require a dense, live
    /// community (restore numbers peers densely).
    pub fn to_snapshot(&self) -> pgrid_core::GridSnapshot {
        use pgrid_core::{GridSnapshot, IndexEntry, PeerSnapshot};
        use pgrid_store::{ItemId, Version};
        let peers = self
            .states
            .iter()
            .map(|s| {
                let g = lock(s);
                assert!(g.maxl != 0, "cannot snapshot a cluster with killed nodes");
                PeerSnapshot {
                    id: g.id,
                    path: g.path,
                    refs: g.refs.clone(),
                    index: g
                        .index
                        .iter()
                        .map(|(k, entries)| {
                            (
                                *k,
                                entries
                                    .iter()
                                    .map(|e| IndexEntry {
                                        item: ItemId(e.item),
                                        holder: e.holder,
                                        version: Version(e.version),
                                    })
                                    .collect(),
                            )
                        })
                        .collect(),
                    buddies: g.buddies.clone(),
                    // Live nodes journal index custody, not payload hosting;
                    // the hosted set exists only in the sequential simulator.
                    hosted: Vec::new(),
                    misplaced: g.misplaced,
                }
            })
            .collect();
        GridSnapshot {
            config: pgrid_core::PGridConfig {
                maxl: self.config.maxl,
                refmax: self.config.refmax,
                recmax: u32::from(self.config.recmax),
                recfanout: Some(self.config.recfanout),
                ..pgrid_core::PGridConfig::default()
            },
            peers,
        }
    }

    /// Debug helper: every `(owner, referenced peer)` edge in the cluster —
    /// test diagnostics only.
    pub fn debug_dump_refs(&self) -> Vec<(PeerId, PeerId)> {
        let mut out = Vec::new();
        for s in &self.states {
            let g = lock(s);
            for (_, refs) in g.refs.iter() {
                for &r in refs.as_slice() {
                    out.push((g.id, r));
                }
            }
        }
        out
    }

    /// Shuts every node down and joins the transport's threads.
    pub fn shutdown(self) {
        self.transport.shutdown();
    }
}

#[cfg(test)]
mod tests {
    //! One body per behaviour, generic over the transport; the macro at the
    //! bottom instantiates every body on the virtual clock and over sockets.

    use super::*;
    use pgrid_keys::BitPath;
    use pgrid_store::BackendKind;

    /// How the suite spawns a community over each transport.
    trait Spawn: Transport {
        /// Whether frames cross real connections.
        const SOCKETS: bool;
        fn spawn(config: ClusterConfig, storage: Option<StorageSpec>) -> Community<Self>;
    }

    impl Spawn for SimTransport {
        const SOCKETS: bool = false;
        fn spawn(config: ClusterConfig, storage: Option<StorageSpec>) -> SimCluster {
            SimCluster::over(SimTransport::new(), config, storage)
        }
    }

    impl Spawn for TcpTransport {
        const SOCKETS: bool = true;
        fn spawn(config: ClusterConfig, storage: Option<StorageSpec>) -> TcpCluster {
            TcpCluster::over(TcpCluster::loopback(&config, 2), config, storage)
        }
    }

    /// Drives meetings in waves until the mean path length reaches `target`
    /// (or gives up after `waves`).
    fn build_until<T: Transport>(
        cluster: &mut Community<T>,
        waves: usize,
        meetings: usize,
        target: f64,
    ) {
        for _ in 0..waves {
            cluster.build(meetings);
            if cluster.avg_path_len() >= target {
                break;
            }
        }
    }

    /// A fresh, empty log-backend directory unique to `tag`, the transport
    /// and this process.
    fn log_spec<T: Spawn>(tag: &str) -> (std::path::PathBuf, StorageSpec) {
        let dir = std::env::temp_dir().join(format!(
            "pgrid-{tag}-{}-{}",
            if T::SOCKETS { "sockets" } else { "sim" },
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let spec = StorageSpec::of_kind(BackendKind::Log, &dir);
        (dir, spec)
    }

    fn converges_and_answers_queries<T: Spawn>() {
        let mut cluster = T::spawn(
            ClusterConfig {
                n: 24,
                maxl: 3,
                refmax: 3,
                seed: 11,
                ..ClusterConfig::default()
            },
            None,
        );
        build_until(&mut cluster, 40, 100, 2.8);
        assert!(
            cluster.avg_path_len() >= 2.25,
            "live construction should converge: avg = {}",
            cluster.avg_path_len()
        );
        cluster.check_invariants().unwrap();

        // Seed an entry and query it through the protocol.
        let key = BitPath::from_str_lossy("011");
        let entry = WireEntry {
            item: 5,
            holder: PeerId(1),
            version: 7,
        };
        cluster.seed_index(key, entry);
        let mut hits = 0;
        for _ in 0..20 {
            if let Some((responsible, entries)) = cluster.query(&key) {
                let state = lock(&cluster.states[responsible.index()]);
                assert!(state.responsible_for(&key), "answer must be sound");
                drop(state);
                if entries.contains(&entry) {
                    hits += 1;
                }
            }
        }
        assert!(hits >= 15, "most queries should succeed: {hits}/20");
        cluster.shutdown();
    }

    fn protocol_insert_reaches_a_responsible_node<T: Spawn>() {
        let mut cluster = T::spawn(
            ClusterConfig {
                n: 16,
                maxl: 3,
                refmax: 3,
                seed: 23,
                ..ClusterConfig::default()
            },
            None,
        );
        build_until(&mut cluster, 30, 80, 2.8);
        let key = BitPath::from_str_lossy("101");
        let entry = WireEntry {
            item: 1,
            holder: PeerId(0),
            version: 0,
        };
        cluster.insert(key, entry);
        cluster.settle();
        let stored = cluster
            .states
            .iter()
            .filter(|s| lock(s).index_lookup(&key).contains(&entry))
            .count();
        assert!(stored >= 1, "the insert must land at a responsible node");
        cluster.shutdown();
    }

    fn shutdown_joins_cleanly<T: Spawn>() {
        let cluster = T::spawn(
            ClusterConfig {
                n: 8,
                ..ClusterConfig::default()
            },
            None,
        );
        cluster.shutdown();
    }

    fn clean_run_reports_no_fault_counters<T: Spawn>() {
        let mut cluster = T::spawn(
            ClusterConfig {
                n: 12,
                maxl: 3,
                seed: 31,
                ..ClusterConfig::default()
            },
            None,
        );
        build_until(&mut cluster, 10, 60, 2.5);
        let key = BitPath::from_str_lossy("010");
        let entry = WireEntry {
            item: 2,
            holder: PeerId(3),
            version: 1,
        };
        cluster.seed_index(key, entry);
        for _ in 0..10 {
            let _ = cluster.query(&key);
        }
        cluster.settle();
        // Read stats BEFORE shutdown: tearing a socket pool down can
        // surface benign EPIPEs that are not part of the run under test.
        let stats = cluster.net_stats();
        assert!(
            stats.is_fault_free(),
            "no phantom retries or lost frames on a clean run: {stats}"
        );
        assert_eq!(
            stats.conn_established > 0,
            T::SOCKETS,
            "real connections are made exactly over sockets: {stats}"
        );
        cluster.shutdown();
    }

    fn crash_and_restart_cycle<T: Spawn>() {
        let mut cluster = T::spawn(
            ClusterConfig {
                n: 12,
                maxl: 3,
                refmax: 3,
                seed: 41,
                ..ClusterConfig::default()
            },
            None,
        );
        build_until(&mut cluster, 10, 60, 2.5);
        let victim = PeerId(3);
        let path_before = lock(&cluster.states[victim.index()]).path;
        cluster.crash_node(victim);
        assert!(!cluster.live_nodes().contains(&victim));
        // The community keeps answering while the node is down.
        let key = BitPath::from_str_lossy("100");
        let entry = WireEntry {
            item: 9,
            holder: PeerId(5),
            version: 1,
        };
        cluster.seed_index(key, entry);
        let _ = cluster.query(&key);
        // Restart: durable state survived the crash.
        cluster.restart_node(victim);
        assert!(cluster.live_nodes().contains(&victim));
        assert_eq!(
            lock(&cluster.states[victim.index()]).path,
            path_before,
            "crash must not lose durable state"
        );
        cluster.build(40);
        cluster.check_invariants().unwrap();
        cluster.shutdown();
    }

    /// With a log-structured journal attached, a protocol-level insert
    /// survives a FULL cold restart of the community: fresh protocol
    /// states, index entries recovered purely from the per-node journals.
    fn storage_journal_survives_cold_restart<T: Spawn>() {
        let (dir, spec) = log_spec::<T>("cluster-journal");
        let config = ClusterConfig {
            n: 8,
            maxl: 3,
            refmax: 3,
            seed: 17,
            ..ClusterConfig::default()
        };
        let key = BitPath::from_str_lossy("011");
        let entry = WireEntry {
            item: 4,
            holder: PeerId(2),
            version: 3,
        };
        {
            let mut cluster = T::spawn(config, Some(spec.clone()));
            build_until(&mut cluster, 10, 60, 2.5);
            // A protocol insert: whoever takes custody emits StoreWrite
            // and therefore journals the entry (responsible or misplaced).
            cluster.insert(key, entry);
            cluster.settle();
            cluster.shutdown(); // drops every shell → journals flushed
        }
        // Cold restart on the same directory: nothing but the journals
        // carries state across, and reseeding happens before any meeting.
        let cluster = T::spawn(config, Some(spec));
        let reseeded = cluster
            .states
            .iter()
            .filter(|s| lock(s).index_lookup(&key).contains(&entry))
            .count();
        assert!(
            reseeded >= 1,
            "journaled entry must be reseeded after a cold restart"
        );
        cluster.shutdown();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The reseed path can hand a node custody of keys it is no longer
    /// responsible for: the journal predates the path it specialized into.
    /// The replica ground truth must agree with that state end to end —
    /// `reseed_from_journal` raises the misplaced flag, the analysis
    /// snapshot carries it, and on the restored grid `replicas_of` /
    /// `replica_groups` exclude the custody holder while `audit()` stays
    /// clean instead of misreading custody as corruption.
    fn reseeded_misplaced_custody_agrees_with_replica_ground_truth<T: Spawn>() {
        use pgrid_store::{DataItem, ItemId, StorageBackend, Version};

        let (dir, spec) = log_spec::<T>("cluster-misplaced");
        let config = ClusterConfig {
            n: 8,
            maxl: 3,
            refmax: 3,
            seed: 29,
            ..ClusterConfig::default()
        };
        let mut cluster = T::spawn(config, Some(spec.clone()));
        build_until(&mut cluster, 10, 60, 2.0);
        cluster.check_invariants().unwrap();
        let victim = cluster
            .states
            .iter()
            .position(|s| !lock(s).path.is_empty())
            .map(PeerId::from_index)
            .expect("a built community has specialized nodes");
        let vpath = lock(&cluster.states[victim.index()]).path;
        // A key on the opposite side of the victim's first bit: custody it
        // can only hold flagged misplaced.
        let foreign = BitPath::from_str_lossy(&format!("{}01", 1 - vpath.bit(0)));
        let entry = WireEntry {
            item: 77,
            holder: PeerId(4),
            version: 1,
        };

        // Crash the victim (eviction drops the shell, which closes and
        // flushes its journal handle), then append custody of the foreign key to the
        // journal — state from a previous life, before the path
        // specialized past the key.
        cluster.crash_node(victim);
        {
            let mut journal = spec.open_for(victim.index()).unwrap();
            journal.put(DataItem {
                id: ItemId(entry.item),
                name: String::new(),
                key: foreign,
                version: Version(entry.version),
                payload: entry.holder.0.to_le_bytes().to_vec(),
            });
            journal.flush().unwrap();
        }
        // Restart: the reseed recovers the entry and, because the node is
        // not responsible for the key, must raise the misplaced flag.
        cluster.restart_node(victim);
        {
            let state = lock(&cluster.states[victim.index()]);
            assert!(
                state.index_lookup(&foreign).contains(&entry),
                "reseeded custody must survive the restart"
            );
            assert!(
                state.misplaced,
                "reseeding a foreign key must raise the misplaced flag"
            );
        }

        // The analysis bridge tells the same story as the live states.
        let grid = cluster.to_snapshot().restore().expect("snapshot restores");
        let replicas = grid.replicas_of(&foreign);
        assert!(
            !replicas.contains(&victim),
            "custody must not make {victim} a replica of {foreign}"
        );
        // `replicas_of` (responsibility) and `replica_groups` (exact
        // paths) must agree: a group's members are replicas of the key
        // exactly when the group path is prefix-comparable with it.
        let mut from_groups: Vec<PeerId> = grid
            .replica_groups()
            .into_iter()
            .filter(|(path, _)| path.responsible_for(&foreign))
            .flat_map(|(_, members)| members)
            .collect();
        from_groups.sort();
        let mut expected = replicas;
        expected.sort();
        assert_eq!(
            from_groups, expected,
            "replica_groups and replicas_of diverged on {foreign}"
        );
        // Every held key is explained: its holder is a replica or flagged.
        for peer in grid.peers() {
            peer.index()
                .for_each_under(&pgrid_keys::BitPath::EMPTY, |key, _| {
                    assert!(
                        peer.responsible_for(&key) || peer.has_misplaced(),
                        "{}: unexplained foreign custody of {key}",
                        peer.id()
                    );
                });
        }
        let violations = grid.audit();
        assert!(
            violations.is_empty(),
            "misplaced custody must not read as corruption: {violations:?}"
        );
        cluster.shutdown();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Instantiates every generic body above once per transport.
    macro_rules! for_both_transports {
        ($($body:ident),* $(,)?) => {
            mod virtual_clock {
                $(#[test] fn $body() { super::$body::<super::SimTransport>(); })*
            }
            mod sockets {
                $(#[test] fn $body() { super::$body::<super::TcpTransport>(); })*
            }
        };
    }

    for_both_transports!(
        converges_and_answers_queries,
        protocol_insert_reaches_a_responsible_node,
        shutdown_joins_cleanly,
        clean_run_reports_no_fault_counters,
        crash_and_restart_cycle,
        storage_journal_survives_cold_restart,
        reseeded_misplaced_custody_agrees_with_replica_ground_truth,
    );
}
