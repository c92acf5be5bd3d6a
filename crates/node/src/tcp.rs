//! Real-socket TCP transport with an event-loop driver.
//!
//! [`TcpTransport`] implements the same [`Transport`] seam as
//! [`SimTransport`](crate::SimTransport), but every frame crosses a real
//! TCP connection (loopback in tests, any address via
//! [`TcpTransport::register_remote`]). Instead of one thread per peer, a
//! small fixed pool of **event-loop workers** multiplexes thousands of
//! [`ProtocolPeer`](pgrid_proto::ProtocolPeer) shells: each worker owns a
//! set of shells, their inbound connections, and the outbound connections
//! their sends create, and advances all of them in a readiness sweep
//! (`set_nonblocking` + `park_timeout` wakeups — std-only, no epoll crate).
//! OS thread count is `workers`, independent of peer count.
//!
//! # Connection model
//!
//! Connections are **directed**: a `(from, to)` pair owns one outbound
//! connection, created lazily on first send and closed by idle eviction, by
//! repeated failure, or by either endpoint departing. A connection opens
//! with a 12-byte preamble (`b"PGRD"` magic + `from` + `to`, little-endian)
//! so the acceptor can route it; after that the stream is a pure sequence of
//! [`pgrid_wire`] frames. The read side accumulates bytes into a `BytesMut`
//! and decodes at frame granularity with the already-incremental
//! [`decode_frame`] — torn reads (half a frame per readiness event) are the
//! *normal* case, counted in `partial_frames`.
//!
//! # Backpressure
//!
//! Each outbound connection carries a bounded write queue. When the peer
//! reads slower than we send, the queue fills and further frames are shed
//! **drop-newest** (counted in `writes_shed`, surfaced as
//! [`SendStatus::Rejected`] so shells apply their usual suspicion/failover
//! logic). Control frames ([`Transport::send_control`]) bypass the bound.
//!
//! # Fault injection and the two-RNG rule
//!
//! The deterministic [`FaultPlan`](crate::FaultPlan) engine sits *in front of* the socket:
//! drop/duplicate/reorder/delay decisions are taken per directed link from
//! the plan's seeded streams before bytes are queued, so the chaos suite
//! exercises the real socket path with the same reproducible fault schedule
//! as the virtual clock. Reconnect backoff jitter draws from
//! per-link I/O RNG streams derived from the transport seed — never from
//! any protocol stream — so socket timing cannot perturb protocol draws
//! (the same two-RNG rule the node shell follows).

use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex, RwLock};
use std::thread::{JoinHandle, Thread};
use std::time::{Duration, Instant};

use bytes::{Bytes, BytesMut};
use pgrid_net::{NetStats, PeerId};
use pgrid_store::AppendLog;
use pgrid_trace::Tracer;
use pgrid_wire::{decode_frame, Message};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::fault::{link_seed, FaultGate};
use crate::node::{NodeRt, RetryPolicy, TICK};
use crate::transport::{SendStatus, Transport};
use crate::{lock, read, write, NodeState};

/// Connection preamble magic.
const MAGIC: &[u8; 4] = b"PGRD";
/// Preamble length: magic + from + to.
const PREAMBLE_LEN: usize = 12;
/// Cap on bytes read from one connection per sweep, so one firehose peer
/// cannot starve the rest of a worker's set.
const MAX_READ_BURST: usize = 64 * 1024;
/// An inbound connection that stayed silent for a sweep is scanned at a
/// decaying cadence, up to skipping this many sweeps — bounding syscall
/// load when thousands of connections are idle. A write toward a co-hosted
/// peer re-heats its connection immediately (see `WorkerMsg::Hot`).
const MAX_IDLE_SKIP: u32 = 16;
/// Blocking-connect bound. Loopback connects complete immediately unless
/// the accept backlog is overflowing; this caps the worker stall if it is.
const CONNECT_TIMEOUT: Duration = Duration::from_millis(50);
/// Sweeps a half-finished preamble may linger before the socket is dropped.
const PREAMBLE_PATIENCE: u32 = 2000;
/// Separates the transport's I/O jitter streams from the fault plan's.
const JITTER_SALT: u64 = 0x7c15_9e37_79b9_7f4a;
/// Reconnects of one outbound connection: five connect attempts, 10 ms
/// backoff doubling per failure, up to 5 ms jitter; then it is dead.
const CONNECT_RETRY: RetryPolicy = RetryPolicy {
    base_ms: 10,
    max_attempts: 5,
    jitter_ms: 5,
};
/// Cooloff before a dead connection may be revived by fresh traffic.
const RECONNECT_COOLOFF: Duration = Duration::from_millis(200);
/// Outbound-connection budget; exceeding it evicts the least recently used
/// idle connection (FD discipline for thousand-peer communities).
const MAX_CONNS: usize = 8192;

/// Default per-connection write-queue depth: deep enough that a healthy node
/// never hits it, shallow enough that a flooded node sheds load instead of
/// growing without bound.
pub const DEFAULT_WRITE_QUEUE_DEPTH: usize = 4096;

/// Shape of a [`TcpTransport`].
#[derive(Clone, Copy, Debug)]
pub struct TcpTransportConfig {
    /// Event-loop worker threads (total OS threads of the transport).
    pub workers: usize,
    /// Bounded per-connection write queue, in frames (at least one).
    pub write_queue_depth: usize,
    /// Seed for the per-link reconnect-jitter RNG streams (I/O only; the
    /// two-RNG rule keeps these draws out of every protocol stream).
    pub seed: u64,
}

impl Default for TcpTransportConfig {
    fn default() -> Self {
        TcpTransportConfig {
            workers: 2,
            write_queue_depth: DEFAULT_WRITE_QUEUE_DEPTH,
            seed: 0,
        }
    }
}

/// Where a locally hosted peer id terminates.
enum LocalEndpoint {
    /// A protocol shell multiplexed on worker `worker`.
    Shell { worker: usize },
    /// A harness client: decoded messages are handed straight to this
    /// queue (the client has no protocol state machine).
    Client {
        worker: usize,
        tx: Sender<(PeerId, Message)>,
    },
}

impl LocalEndpoint {
    fn worker(&self) -> usize {
        match self {
            LocalEndpoint::Shell { worker } | LocalEndpoint::Client { worker, .. } => *worker,
        }
    }
}

/// Outbound connection lifecycle.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Phase {
    /// No socket; connect lazily when the queue is non-empty.
    Idle,
    /// Socket up (preamble possibly still flushing).
    Open,
    /// Declared dead after exhausted attempts; revivable after cooloff.
    Dead,
}

struct ConnState {
    phase: Phase,
    sock: Option<TcpStream>,
    /// Preamble bytes already written (< [`PREAMBLE_LEN`] while greeting).
    greeted: usize,
    preamble: [u8; PREAMBLE_LEN],
    wq: VecDeque<Bytes>,
    /// Bytes of the queue head already written (frames survive reconnects:
    /// a torn head is resent from offset zero on the fresh socket, because
    /// the stale accumulator died with the old connection).
    head_off: usize,
    attempt: u32,
    next_try: Instant,
    /// Per-link reconnect jitter stream (I/O only — two-RNG rule).
    rng: StdRng,
    last_used: Instant,
    /// Evicted from the connection table; the owning worker drops it.
    evicted: bool,
}

/// One directed outbound connection `(from, to)`.
struct Conn {
    from: PeerId,
    to: PeerId,
    worker: usize,
    state: Mutex<ConnState>,
}

/// The socket-path counters (the shared nine live in the fault gate).
#[derive(Default)]
struct TcpCounters {
    conn_established: AtomicU64,
    conn_lost: AtomicU64,
    writes_queued: AtomicU64,
    writes_shed: AtomicU64,
    partial_frames: AtomicU64,
}

enum WorkerMsg {
    AddShell(Box<NodeRt<TcpTransport>>),
    /// The sender is only held: dropping it tells the evictor this worker
    /// is done.
    RemoveShell(PeerId, Sender<()>),
    /// An accepted inbound connection routed to the worker owning its
    /// target endpoint.
    AdoptIn(InConn),
    /// A freshly created outbound connection for this worker to drive.
    AdoptOut(Arc<Conn>),
    /// A co-hosted sender just wrote toward `(remote, local)` — re-heat
    /// that inbound connection so the frames are decoded on the next sweep.
    Hot(PeerId, PeerId),
}

struct WorkerHandle {
    tx: Sender<WorkerMsg>,
    /// Filled right after spawn; `None` only during construction.
    thread: Mutex<Option<Thread>>,
}

impl WorkerHandle {
    fn wake(&self) {
        if let Some(t) = lock(&self.thread).as_ref() {
            t.unpark();
        }
    }
}

/// An accepted, preamble-complete inbound connection.
struct InConn {
    sock: TcpStream,
    /// The remote sender (from the preamble).
    remote: PeerId,
    /// The locally hosted target.
    local: PeerId,
    acc: BytesMut,
    idle_sweeps: u32,
    skip: u32,
}

struct TcpInner {
    listener: TcpListener,
    addr: SocketAddr,
    config: TcpTransportConfig,
    /// Peers hosted by this transport (shells and clients).
    locals: RwLock<HashMap<PeerId, LocalEndpoint>>,
    /// Peer id → socket address (all locals map to `addr`; remote peers
    /// registered via [`TcpTransport::register_remote`]).
    registry: RwLock<HashMap<PeerId, SocketAddr>>,
    conns: Mutex<HashMap<(PeerId, PeerId), Arc<Conn>>>,
    /// Fault plan, holdback heap (worker 0 releases it), shared counters.
    gate: FaultGate,
    counters: TcpCounters,
    /// Frames decoded and handed to a shell or client queue.
    delivered: AtomicU64,
    /// Frames queued but not yet fully written to a socket (quiescence).
    pending_writes: AtomicU64,
    workers: Vec<WorkerHandle>,
    handles: Mutex<Vec<JoinHandle<()>>>,
    stop: AtomicBool,
    next_worker: AtomicUsize,
}

impl TcpInner {
    fn wake(&self, worker: usize) {
        if let Some(h) = self.workers.get(worker) {
            h.wake();
        }
    }

    fn wake_all(&self) {
        for h in &self.workers {
            h.wake();
        }
    }

    /// Drops a connection's queued frames, accounting them as in-flight
    /// losses (the live-network truth: bytes queued behind a dead socket
    /// never arrive).
    fn fail_queue(&self, st: &mut ConnState) {
        let n = st.wq.len() as u64;
        if n > 0 {
            self.gate.counters.dropped.fetch_add(n, Ordering::Relaxed);
            self.pending_writes.fetch_sub(n, Ordering::Relaxed);
        }
        st.wq.clear();
        st.head_off = 0;
    }

    /// Declares an outbound connection dead: queue failed, socket closed,
    /// revivable only after the cooloff. Counted once in `conn_lost`.
    fn kill_conn(&self, st: &mut ConnState, now: Instant) {
        self.fail_queue(st);
        st.sock = None;
        st.phase = Phase::Dead;
        st.attempt = 0;
        st.next_try = now + RECONNECT_COOLOFF;
        self.counters.conn_lost.fetch_add(1, Ordering::Relaxed);
    }

    /// Queues `bytes` on the `(from, to)` connection (creating it if
    /// needed), honoring the write-queue bound unless `control`.
    fn enqueue(&self, from: PeerId, to: PeerId, bytes: Bytes, control: bool) -> SendStatus {
        if self.stop.load(Ordering::Relaxed) {
            return SendStatus::NoRoute;
        }
        {
            let locals = read(&self.locals);
            if !locals.contains_key(&from) {
                return SendStatus::NoRoute; // sender departed (crash)
            }
        }
        if !read(&self.registry).contains_key(&to) {
            return SendStatus::NoRoute;
        }
        let now = Instant::now();
        let (conn, fresh) = {
            let mut conns = lock(&self.conns);
            match conns.get(&(from, to)) {
                Some(c) => (Arc::clone(c), false),
                None => {
                    let worker = read(&self.locals)
                        .get(&from)
                        .map_or(0, LocalEndpoint::worker);
                    let mut preamble = [0u8; PREAMBLE_LEN];
                    preamble[..4].copy_from_slice(MAGIC);
                    preamble[4..8].copy_from_slice(&from.0.to_le_bytes());
                    preamble[8..12].copy_from_slice(&to.0.to_le_bytes());
                    let c = Arc::new(Conn {
                        from,
                        to,
                        worker,
                        state: Mutex::new(ConnState {
                            phase: Phase::Idle,
                            sock: None,
                            greeted: 0,
                            preamble,
                            wq: VecDeque::new(),
                            head_off: 0,
                            attempt: 0,
                            next_try: now,
                            rng: StdRng::seed_from_u64(link_seed(
                                self.config.seed ^ JITTER_SALT,
                                from,
                                to,
                            )),
                            last_used: now,
                            evicted: false,
                        }),
                    });
                    conns.insert((from, to), Arc::clone(&c));
                    if conns.len() > MAX_CONNS {
                        self.evict_idle_conn(&mut conns, now);
                    }
                    (c, true)
                }
            }
        };
        let status = {
            let mut st = lock(&conn.state);
            if st.phase == Phase::Dead {
                if now >= st.next_try {
                    // Fresh traffic after the cooloff revives the link.
                    st.phase = Phase::Idle;
                    st.attempt = 0;
                    st.next_try = now;
                } else {
                    return SendStatus::NoRoute;
                }
            }
            let depth = self.config.write_queue_depth;
            if !control && st.wq.len() >= depth {
                self.counters.writes_shed.fetch_add(1, Ordering::Relaxed);
                SendStatus::Rejected
            } else {
                st.wq.push_back(bytes);
                st.last_used = now;
                self.counters.writes_queued.fetch_add(1, Ordering::Relaxed);
                self.pending_writes.fetch_add(1, Ordering::Relaxed);
                SendStatus::Delivered
            }
        };
        if fresh {
            let _ = self.workers[conn.worker]
                .tx
                .send(WorkerMsg::AdoptOut(conn.clone()));
        }
        if status == SendStatus::Delivered {
            self.wake(conn.worker);
        }
        status
    }

    /// Evicts the least recently used idle open connection (budget
    /// discipline). Called with the table lock held.
    fn evict_idle_conn(&self, conns: &mut HashMap<(PeerId, PeerId), Arc<Conn>>, now: Instant) {
        let mut victim: Option<((PeerId, PeerId), Instant)> = None;
        for (key, conn) in conns.iter() {
            let st = lock(&conn.state);
            let idle = st.wq.is_empty() && st.phase != Phase::Idle;
            if idle && victim.is_none_or(|(_, t)| st.last_used < t) {
                victim = Some((*key, st.last_used));
            }
        }
        if let Some((key, _)) = victim {
            if let Some(conn) = conns.remove(&key) {
                let mut st = lock(&conn.state);
                self.fail_queue(&mut st);
                st.sock = None;
                st.phase = Phase::Dead;
                st.next_try = now; // revivable immediately: policy close, not failure
                st.evicted = true;
            }
        }
    }

    /// Routes one decoded message to a worker-owned shell or a client
    /// queue. Returns the shell's verdict (`false` = shut down).
    fn deliver_client(&self, from: PeerId, to: PeerId, msg: Message) -> bool {
        let locals = read(&self.locals);
        if let Some(LocalEndpoint::Client { tx, .. }) = locals.get(&to) {
            self.delivered.fetch_add(1, Ordering::Relaxed);
            let _ = tx.send((from, msg));
            return true;
        }
        false
    }
}

/// A socket transport driven by a fixed pool of event-loop workers. The
/// module docs give the connection, backpressure and fault model; DESIGN.md
/// §7 gives the failure model it serves.
///
/// Cloning shares the transport. **Call [`TcpTransport::shutdown`] when
/// done** — the worker threads hold the transport alive until told to stop.
#[derive(Clone)]
pub struct TcpTransport {
    inner: Arc<TcpInner>,
}

impl TcpTransport {
    /// Binds a listener on `127.0.0.1:0` and spawns the worker pool.
    pub fn bind(config: TcpTransportConfig) -> io::Result<Self> {
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let workers = config.workers.max(1);
        let mut worker_handles = Vec::with_capacity(workers);
        let mut rxs = Vec::with_capacity(workers);
        for _ in 0..workers {
            let (tx, rx) = channel();
            worker_handles.push(WorkerHandle {
                tx,
                thread: Mutex::new(None),
            });
            rxs.push(rx);
        }
        let inner = Arc::new(TcpInner {
            listener,
            addr,
            config,
            locals: RwLock::new(HashMap::new()),
            registry: RwLock::new(HashMap::new()),
            conns: Mutex::new(HashMap::new()),
            gate: FaultGate::default(),
            counters: TcpCounters::default(),
            delivered: AtomicU64::new(0),
            pending_writes: AtomicU64::new(0),
            workers: worker_handles,
            handles: Mutex::new(Vec::new()),
            stop: AtomicBool::new(false),
            next_worker: AtomicUsize::new(0),
        });
        let mut joins = Vec::with_capacity(workers);
        for (idx, rx) in rxs.into_iter().enumerate() {
            let inner_cl = Arc::clone(&inner);
            let handle = std::thread::Builder::new()
                .name(format!("pgrid-tcp-{idx}"))
                .spawn(move || Worker::new(inner_cl, idx, rx).run())?;
            *lock(&inner.workers[idx].thread) = Some(handle.thread().clone());
            joins.push(handle);
        }
        *lock(&inner.handles) = joins;
        Ok(TcpTransport { inner })
    }

    /// The listener's local address.
    pub fn local_addr(&self) -> SocketAddr {
        self.inner.addr
    }

    /// Worker (OS thread) count of this transport.
    pub fn worker_count(&self) -> usize {
        self.inner.workers.len()
    }

    /// Maps a peer id to a *remote* transport's address (multi-process
    /// deployments; every local peer is registered automatically).
    pub fn register_remote(&self, id: PeerId, addr: SocketAddr) {
        write(&self.inner.registry).insert(id, addr);
        self.revive_conns_toward(id);
    }

    /// Clears dead-connection latches toward a (re)registered peer so
    /// senders reconnect immediately instead of waiting out the cooloff: a
    /// restarted peer is reachable at once.
    fn revive_conns_toward(&self, id: PeerId) {
        let conns = lock(&self.inner.conns);
        for ((_, to), conn) in conns.iter() {
            if *to == id {
                let mut st = lock(&conn.state);
                if st.phase == Phase::Dead && !st.evicted {
                    st.phase = Phase::Idle;
                    st.attempt = 0;
                    st.next_try = Instant::now();
                }
            }
        }
    }

    /// Frames decoded and handed to a shell or client so far (the
    /// inherent twin of [`Transport::delivered`], callable without the
    /// trait in scope).
    pub fn delivered(&self) -> u64 {
        self.inner.delivered.load(Ordering::Relaxed)
    }

    /// Registers a locally hosted endpoint on the next worker, round-robin
    /// in registration order.
    fn add_local(&self, id: PeerId, endpoint: impl FnOnce(usize) -> LocalEndpoint) -> usize {
        let worker =
            self.inner.next_worker.fetch_add(1, Ordering::Relaxed) % self.inner.workers.len();
        write(&self.inner.locals).insert(id, endpoint(worker));
        write(&self.inner.registry).insert(id, self.inner.addr);
        self.revive_conns_toward(id);
        worker
    }
}

impl Transport for TcpTransport {
    /// Long enough for a frame's kernel-to-kernel hop *and* the receiving
    /// worker's decode sweep: until both complete, it is "in flight".
    const SETTLE_POLL: Duration = Duration::from_millis(4);

    fn gate(&self) -> &FaultGate {
        &self.inner.gate
    }

    fn deliver_now(&self, from: PeerId, to: PeerId, bytes: Bytes) -> SendStatus {
        self.inner.enqueue(from, to, bytes, false)
    }

    fn wake_holdback(&self) {
        self.inner.wake(0); // worker 0 owns holdback release
    }

    fn send_control(&self, from: PeerId, to: PeerId, bytes: Bytes) -> bool {
        self.inner.enqueue(from, to, bytes, true) == SendStatus::Delivered
    }

    fn delivered(&self) -> u64 {
        TcpTransport::delivered(self)
    }

    fn in_flight(&self) -> usize {
        self.inner.gate.held() + self.inner.pending_writes.load(Ordering::Relaxed) as usize
    }

    /// Registers the peer, assigns it round-robin to a worker, and hands
    /// the shell over.
    fn host(
        &self,
        state: Arc<Mutex<NodeState>>,
        seed: u64,
        journal: Option<AppendLog>,
        tracer: Box<dyn Tracer>,
    ) {
        let rt = NodeRt::new(state, self.clone(), seed, journal, tracer);
        let worker = self.add_local(rt.peer_id(), |worker| LocalEndpoint::Shell { worker });
        let _ = self.inner.workers[worker]
            .tx
            .send(WorkerMsg::AddShell(Box::new(rt)));
        self.inner.wake(worker);
    }

    /// The endpoint and address vanish, the peer's outbound connections
    /// are torn down, and connections toward it fail fast until a later
    /// [`Transport::host`] revives them.
    fn evict(&self, id: PeerId) {
        write(&self.inner.locals).remove(&id);
        write(&self.inner.registry).remove(&id);
        let now = Instant::now();
        let mut conns = lock(&self.inner.conns);
        conns.retain(|(from, to), conn| {
            if *from == id {
                let mut st = lock(&conn.state);
                self.inner.fail_queue(&mut st);
                st.sock = None;
                st.phase = Phase::Dead;
                st.evicted = true; // owning worker drops it
                false
            } else if *to == id {
                // Keep as a fast-fail latch until the cooloff (or until a
                // restart revives it).
                let mut st = lock(&conn.state);
                self.inner.fail_queue(&mut st);
                st.sock = None;
                st.phase = Phase::Dead;
                st.attempt = 0;
                st.next_try = now + RECONNECT_COOLOFF;
                true
            } else {
                true
            }
        });
        drop(conns);
        // Tell every worker: the shell (if any) and inbound connections
        // targeting the departed peer must go. The shell's owner answers
        // once it has dropped it.
        let (gone_tx, gone_rx) = channel();
        for h in &self.inner.workers {
            let _ = h.tx.send(WorkerMsg::RemoveShell(id, gone_tx.clone()));
        }
        drop(gone_tx);
        self.inner.wake_all();
        // Nothing is ever sent: this returns once every clone is dropped.
        let _ = gone_rx.recv();
    }

    fn open_client(&self, id: PeerId) -> Receiver<(PeerId, Message)> {
        let (tx, rx) = channel();
        self.add_local(id, |worker| LocalEndpoint::Client { worker, tx });
        rx
    }

    /// Stops the worker pool and joins it; sockets close.
    fn shutdown(&self) {
        self.inner.stop.store(true, Ordering::SeqCst);
        self.inner.wake_all();
        let joins: Vec<JoinHandle<()>> = std::mem::take(&mut *lock(&self.inner.handles));
        for h in joins {
            let _ = h.join();
        }
    }

    fn net_stats(&self) -> NetStats {
        let c = &self.inner.counters;
        let mut s = self.inner.gate.counters.snapshot();
        s.conn_established = c.conn_established.load(Ordering::Relaxed);
        s.conn_lost = c.conn_lost.load(Ordering::Relaxed);
        s.writes_queued = c.writes_queued.load(Ordering::Relaxed);
        s.writes_shed = c.writes_shed.load(Ordering::Relaxed);
        s.partial_frames = c.partial_frames.load(Ordering::Relaxed);
        s
    }
}

/// A half-accepted socket still reading its preamble.
struct PendingPreamble {
    sock: TcpStream,
    buf: [u8; PREAMBLE_LEN],
    got: usize,
    age: u32,
}

/// One event-loop worker: owns shells, inbound connections, and the
/// outbound connections created by its shells' sends.
struct Worker {
    inner: Arc<TcpInner>,
    idx: usize,
    rx: Receiver<WorkerMsg>,
    shells: HashMap<PeerId, Box<NodeRt<TcpTransport>>>,
    in_conns: HashMap<(PeerId, PeerId), InConn>,
    out_conns: Vec<Arc<Conn>>,
    pending: Vec<PendingPreamble>,
    next_tick: Instant,
    /// Reused read buffer.
    buf: Box<[u8; 16 * 1024]>,
    /// Scratch: inbound connections to drop after a sweep.
    dead_in: Vec<(PeerId, PeerId)>,
}

impl Worker {
    fn new(inner: Arc<TcpInner>, idx: usize, rx: Receiver<WorkerMsg>) -> Self {
        let next_tick = Instant::now() + TICK;
        Worker {
            inner,
            idx,
            rx,
            shells: HashMap::new(),
            in_conns: HashMap::new(),
            out_conns: Vec::new(),
            pending: Vec::new(),
            next_tick,
            buf: Box::new([0u8; 16 * 1024]),
            dead_in: Vec::new(),
        }
    }

    fn run(mut self) {
        loop {
            if self.inner.stop.load(Ordering::Relaxed) {
                return;
            }
            let mut progress = self.drain_injection();
            let now = Instant::now();
            if self.idx == 0 {
                progress |= self.accept_sweep();
                // Worker 0 only: release held-back frames that have come due.
                let inner = &self.inner;
                progress |= inner
                    .gate
                    .release(Some(now), |h| inner.enqueue(h.from, h.to, h.bytes, false));
            }
            progress |= self.preamble_sweep();
            let (out_progress, out_hint) = self.write_sweep(now);
            progress |= out_progress;
            progress |= self.read_sweep();
            let now = Instant::now();
            if now >= self.next_tick {
                for shell in self.shells.values_mut() {
                    shell.tick(now);
                }
                self.next_tick = now + TICK;
            }
            if !progress {
                let mut deadline = self.next_tick;
                if let Some(hint) = out_hint {
                    deadline = deadline.min(hint);
                }
                if self.idx == 0 {
                    if let Some(due) = self.inner.gate.next_due() {
                        deadline = deadline.min(due);
                    }
                }
                let wait = deadline.saturating_duration_since(Instant::now());
                if !wait.is_zero() {
                    std::thread::park_timeout(wait);
                }
            }
        }
    }

    fn drain_injection(&mut self) -> bool {
        let mut progress = false;
        while let Ok(msg) = self.rx.try_recv() {
            progress = true;
            match msg {
                WorkerMsg::AddShell(rt) => {
                    self.shells.insert(rt.peer_id(), rt);
                }
                WorkerMsg::RemoveShell(id, _done) => {
                    self.shells.remove(&id);
                    self.in_conns.retain(|(_, local), _| *local != id);
                }
                WorkerMsg::AdoptIn(conn) => {
                    // Replace-on-reconnect: the stale connection (and its
                    // torn accumulator) dies with the old socket.
                    self.in_conns.insert((conn.remote, conn.local), conn);
                }
                WorkerMsg::AdoptOut(conn) => self.out_conns.push(conn),
                WorkerMsg::Hot(remote, local) => {
                    if let Some(c) = self.in_conns.get_mut(&(remote, local)) {
                        c.idle_sweeps = 0;
                        c.skip = 0;
                    }
                }
            }
        }
        progress
    }

    /// Worker 0 only: accept new sockets into the preamble queue.
    fn accept_sweep(&mut self) -> bool {
        let mut progress = false;
        loop {
            match self.inner.listener.accept() {
                Ok((sock, _)) => {
                    let _ = sock.set_nonblocking(true);
                    let _ = sock.set_nodelay(true);
                    self.pending.push(PendingPreamble {
                        sock,
                        buf: [0u8; PREAMBLE_LEN],
                        got: 0,
                        age: 0,
                    });
                    progress = true;
                }
                Err(ref e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(_) => break,
            }
        }
        progress
    }

    /// Advance half-read preambles; route completed ones to the worker
    /// owning the target endpoint.
    fn preamble_sweep(&mut self) -> bool {
        let mut progress = false;
        let mut i = 0;
        while i < self.pending.len() {
            let done = {
                let p = &mut self.pending[i];
                p.age += 1;
                loop {
                    if p.got == PREAMBLE_LEN {
                        break Some(true);
                    }
                    match p.sock.read(&mut p.buf[p.got..]) {
                        Ok(0) => break Some(false),
                        Ok(n) => {
                            p.got += n;
                            progress = true;
                        }
                        Err(ref e) if e.kind() == io::ErrorKind::WouldBlock => {
                            break (p.age > PREAMBLE_PATIENCE).then_some(false)
                        }
                        Err(ref e) if e.kind() == io::ErrorKind::Interrupted => {}
                        Err(_) => break Some(false),
                    }
                }
            };
            match done {
                None => i += 1,
                Some(false) => {
                    let p = self.pending.swap_remove(i);
                    // A preamble that started but never completed — a
                    // truncated hostile dial, a mid-handshake kill, or a
                    // stalled-out greeting — is a counted error path. A
                    // clean connect-then-close (zero bytes) is just a
                    // departed dialer, not a malformed frame.
                    if p.got > 0 {
                        self.inner
                            .gate
                            .counters
                            .malformed
                            .fetch_add(1, Ordering::Relaxed);
                    }
                }
                Some(true) => {
                    let p = self.pending.swap_remove(i);
                    self.route_preamble(p);
                    progress = true;
                }
            }
        }
        progress
    }

    fn route_preamble(&mut self, p: PendingPreamble) {
        if &p.buf[..4] != MAGIC {
            self.inner
                .gate
                .counters
                .malformed
                .fetch_add(1, Ordering::Relaxed);
            return; // socket dropped
        }
        let remote = PeerId(u32::from_le_bytes([p.buf[4], p.buf[5], p.buf[6], p.buf[7]]));
        let local = PeerId(u32::from_le_bytes([
            p.buf[8], p.buf[9], p.buf[10], p.buf[11],
        ]));
        let Some(worker) = read(&self.inner.locals)
            .get(&local)
            .map(LocalEndpoint::worker)
        else {
            return; // target departed or never existed: refuse by closing
        };
        self.inner
            .counters
            .conn_established
            .fetch_add(1, Ordering::Relaxed);
        let conn = InConn {
            sock: p.sock,
            remote,
            local,
            acc: BytesMut::new(),
            idle_sweeps: 0,
            skip: 0,
        };
        if worker == self.idx {
            self.in_conns.insert((remote, local), conn);
        } else {
            let _ = self.inner.workers[worker].tx.send(WorkerMsg::AdoptIn(conn));
            self.inner.wake(worker);
        }
    }

    /// Drive every owned outbound connection: connect, greet, flush.
    /// Returns progress plus the earliest reconnect deadline (for the
    /// park computation).
    fn write_sweep(&mut self, now: Instant) -> (bool, Option<Instant>) {
        let mut progress = false;
        let mut hint: Option<Instant> = None;
        let inner = Arc::clone(&self.inner);
        self.out_conns.retain(|conn| {
            let mut st = lock(&conn.state);
            if st.evicted {
                return false;
            }
            match st.phase {
                Phase::Dead => {
                    if !st.wq.is_empty() && now >= st.next_try {
                        st.phase = Phase::Idle;
                        st.attempt = 0;
                    } else {
                        if !st.wq.is_empty() {
                            hint = Some(hint.map_or(st.next_try, |h| h.min(st.next_try)));
                        }
                        return true;
                    }
                }
                Phase::Idle | Phase::Open => {}
            }
            if st.phase == Phase::Idle {
                if st.wq.is_empty() {
                    return true; // lazy: nothing to send, no socket needed
                }
                if now < st.next_try {
                    hint = Some(hint.map_or(st.next_try, |h| h.min(st.next_try)));
                    return true;
                }
                let addr = read(&inner.registry).get(&conn.to).copied();
                let Some(addr) = addr else {
                    inner.kill_conn(&mut st, now);
                    return true;
                };
                match TcpStream::connect_timeout(&addr, CONNECT_TIMEOUT) {
                    Ok(sock) => {
                        let _ = sock.set_nonblocking(true);
                        let _ = sock.set_nodelay(true);
                        st.sock = Some(sock);
                        st.greeted = 0;
                        st.head_off = 0;
                        st.phase = Phase::Open;
                        inner
                            .counters
                            .conn_established
                            .fetch_add(1, Ordering::Relaxed);
                        progress = true;
                    }
                    Err(_) => {
                        st.attempt += 1;
                        if st.attempt >= CONNECT_RETRY.max_attempts {
                            inner.kill_conn(&mut st, now);
                        } else {
                            let backoff = CONNECT_RETRY.backoff(st.attempt, &mut st.rng);
                            st.next_try = now + backoff;
                            hint = Some(hint.map_or(st.next_try, |h| h.min(st.next_try)));
                        }
                        return true;
                    }
                }
            }
            // Phase::Open: flush preamble, then frames.
            let (wrote, failed) = flush_conn(&inner, &mut st);
            progress |= wrote;
            if failed {
                // Socket-level failure: reconnect with backoff, keeping the
                // queue (the torn head is resent whole on the new socket).
                st.sock = None;
                st.phase = Phase::Idle;
                st.greeted = 0;
                st.head_off = 0;
                st.attempt += 1;
                if st.attempt >= CONNECT_RETRY.max_attempts {
                    inner.kill_conn(&mut st, now);
                } else {
                    let backoff = CONNECT_RETRY.backoff(st.attempt, &mut st.rng);
                    st.next_try = now + backoff;
                    hint = Some(hint.map_or(st.next_try, |h| h.min(st.next_try)));
                }
            } else if wrote {
                st.attempt = 0;
                st.last_used = now;
                // Co-hosted destination: re-heat its inbound connection and
                // wake its worker so delivery latency is one sweep, not an
                // idle-backoff window.
                if let Some(w) = read(&inner.locals).get(&conn.to).map(LocalEndpoint::worker) {
                    let _ = inner.workers[w].tx.send(WorkerMsg::Hot(conn.from, conn.to));
                    inner.wake(w);
                }
            }
            true
        });
        (progress, hint)
    }

    /// Read every owned inbound connection, decode complete frames, and
    /// feed shells/clients.
    fn read_sweep(&mut self) -> bool {
        let mut progress = false;
        self.dead_in.clear();
        let inner = Arc::clone(&self.inner);
        for (key, conn) in self.in_conns.iter_mut() {
            if conn.skip > 0 {
                conn.skip -= 1;
                continue;
            }
            let mut read_any = false;
            let mut dead = false;
            let mut burst = 0usize;
            loop {
                match conn.sock.read(&mut self.buf[..]) {
                    Ok(0) => {
                        // Clean EOF. A non-empty accumulator means the peer
                        // died mid-frame.
                        if !conn.acc.is_empty() {
                            inner.counters.conn_lost.fetch_add(1, Ordering::Relaxed);
                        }
                        dead = true;
                        break;
                    }
                    Ok(n) => {
                        conn.acc.extend_from_slice(&self.buf[..n]);
                        burst += n;
                        read_any = true;
                        if burst >= MAX_READ_BURST {
                            break;
                        }
                    }
                    Err(ref e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(ref e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(_) => {
                        inner.counters.conn_lost.fetch_add(1, Ordering::Relaxed);
                        dead = true;
                        break;
                    }
                }
            }
            if read_any {
                progress = true;
                loop {
                    match decode_frame(&mut conn.acc) {
                        Ok(Some(msg)) => {
                            if let Some(shell) = self.shells.get_mut(&conn.local) {
                                inner.delivered.fetch_add(1, Ordering::Relaxed);
                                if !shell.handle_message(conn.remote, msg) {
                                    // Shutdown verdict: retire the peer.
                                    let id = conn.local;
                                    self.shells.remove(&id);
                                    write(&inner.locals).remove(&id);
                                    write(&inner.registry).remove(&id);
                                    dead = true;
                                    break;
                                }
                            } else if !inner.deliver_client(conn.remote, conn.local, msg) {
                                // Endpoint departed between read and decode:
                                // the frame evaporates, like any in-flight
                                // frame at crash time.
                            }
                        }
                        Ok(None) => {
                            if !conn.acc.is_empty() {
                                // Torn frame: the rest arrives on a later
                                // readiness event. This is the normal case
                                // for nonblocking reads.
                                inner
                                    .counters
                                    .partial_frames
                                    .fetch_add(1, Ordering::Relaxed);
                            }
                            break;
                        }
                        Err(_) => {
                            // Framing lost: the stream is unrecoverable.
                            inner
                                .gate
                                .counters
                                .malformed
                                .fetch_add(1, Ordering::Relaxed);
                            dead = true;
                            break;
                        }
                    }
                }
                conn.idle_sweeps = 0;
                conn.skip = 0;
            } else if !dead {
                conn.idle_sweeps = conn.idle_sweeps.saturating_add(1);
                conn.skip = conn.idle_sweeps.min(MAX_IDLE_SKIP);
            }
            if dead {
                self.dead_in.push(*key);
            }
        }
        for key in self.dead_in.drain(..) {
            self.in_conns.remove(&key);
        }
        progress
    }
}

/// Flushes the preamble then as many queued frames as the socket accepts.
/// Returns `(wrote_any_frame_or_bytes, socket_failed)`.
fn flush_conn(inner: &TcpInner, st: &mut ConnState) -> (bool, bool) {
    let Some(sock) = st.sock.as_mut() else {
        return (false, false);
    };
    let mut wrote = false;
    while st.greeted < PREAMBLE_LEN {
        match sock.write(&st.preamble[st.greeted..]) {
            Ok(0) => return (wrote, true),
            Ok(n) => {
                st.greeted += n;
                wrote = true;
            }
            Err(ref e) if e.kind() == io::ErrorKind::WouldBlock => return (wrote, false),
            Err(ref e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return (wrote, true),
        }
    }
    while let Some(head) = st.wq.front() {
        match sock.write(&head[st.head_off..]) {
            Ok(0) => return (wrote, true),
            Ok(n) => {
                st.head_off += n;
                if st.head_off == head.len() {
                    st.wq.pop_front();
                    st.head_off = 0;
                    inner.pending_writes.fetch_sub(1, Ordering::Relaxed);
                }
                wrote = true;
            }
            Err(ref e) if e.kind() == io::ErrorKind::WouldBlock => return (wrote, false),
            Err(ref e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return (wrote, true),
        }
    }
    (wrote, false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FaultPlan;
    use pgrid_trace::NullTracer;
    use pgrid_wire::encode_frame;

    fn transport() -> TcpTransport {
        TcpTransport::bind(TcpTransportConfig::default()).unwrap()
    }

    #[test]
    fn client_to_client_over_real_socket() {
        let t = transport();
        let _rx_a = t.open_client(PeerId(1));
        let rx_b = t.open_client(PeerId(2));
        assert!(t.send(
            PeerId(1),
            PeerId(2),
            encode_frame(&Message::Ping { nonce: 7 })
        ));
        let (from, msg) = rx_b.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(from, PeerId(1));
        assert!(matches!(msg, Message::Ping { nonce: 7 }));
        let stats = t.net_stats();
        assert!(stats.conn_established >= 1, "{stats:?}");
        assert!(stats.writes_queued >= 1, "{stats:?}");
        t.shutdown();
    }

    #[test]
    fn many_frames_survive_tcp_segmentation() {
        let t = transport();
        let _rx_a = t.open_client(PeerId(1));
        let rx_b = t.open_client(PeerId(2));
        for nonce in 0..500u64 {
            assert!(t.send(PeerId(1), PeerId(2), encode_frame(&Message::Ping { nonce })));
        }
        for nonce in 0..500u64 {
            let (_, msg) = rx_b.recv_timeout(Duration::from_secs(5)).unwrap();
            match msg {
                Message::Ping { nonce: got } => assert_eq!(got, nonce, "in-order delivery"),
                other => panic!("unexpected message {other:?}"),
            }
        }
        t.shutdown();
    }

    #[test]
    fn dispatch_to_unknown_peer_is_no_route() {
        let t = transport();
        let _rx_a = t.open_client(PeerId(1));
        assert_eq!(
            t.dispatch(
                PeerId(1),
                PeerId(99),
                encode_frame(&Message::Ping { nonce: 0 })
            ),
            SendStatus::NoRoute
        );
        assert_eq!(
            t.dispatch(
                PeerId(42),
                PeerId(1),
                encode_frame(&Message::Ping { nonce: 0 })
            ),
            SendStatus::NoRoute,
            "a non-local sender has no socket identity here"
        );
        t.shutdown();
    }

    #[test]
    fn injected_drops_are_silent_and_counted() {
        let t = transport();
        let _rx_a = t.open_client(PeerId(1));
        let rx_b = t.open_client(PeerId(2));
        t.inject_faults(FaultPlan::new(3).with_drop(1.0));
        assert!(t.send(
            PeerId(1),
            PeerId(2),
            encode_frame(&Message::Ping { nonce: 1 })
        ));
        assert!(rx_b.recv_timeout(Duration::from_millis(100)).is_err());
        assert_eq!(t.net_stats().dropped, 1);
        t.clear_faults();
        assert!(t.send(
            PeerId(1),
            PeerId(2),
            encode_frame(&Message::Ping { nonce: 2 })
        ));
        assert!(rx_b.recv_timeout(Duration::from_secs(5)).is_ok());
        t.shutdown();
    }

    #[test]
    fn injected_delay_holds_then_delivers_over_socket() {
        let t = transport();
        let _rx_a = t.open_client(PeerId(1));
        let rx_b = t.open_client(PeerId(2));
        t.inject_faults(FaultPlan::new(3).with_delay(1.0, 30));
        assert!(t.send(
            PeerId(1),
            PeerId(2),
            encode_frame(&Message::Ping { nonce: 9 })
        ));
        let (_, msg) = rx_b.recv_timeout(Duration::from_secs(5)).unwrap();
        assert!(matches!(msg, Message::Ping { nonce: 9 }));
        assert_eq!(t.net_stats().delayed, 1);
        t.shutdown();
    }

    #[test]
    fn control_frames_bypass_faults() {
        let t = transport();
        let _rx_a = t.open_client(PeerId(1));
        let rx_b = t.open_client(PeerId(2));
        t.inject_faults(FaultPlan::new(3).with_drop(1.0));
        assert!(t.send_control(
            PeerId(1),
            PeerId(2),
            encode_frame(&Message::Ping { nonce: 5 })
        ));
        let (_, msg) = rx_b.recv_timeout(Duration::from_secs(5)).unwrap();
        assert!(matches!(msg, Message::Ping { nonce: 5 }));
        t.shutdown();
    }

    #[test]
    fn removed_peer_fails_fast_then_revives_on_readd() {
        let t = transport();
        let _rx_a = t.open_client(PeerId(1));
        let rx_b = t.open_client(PeerId(2));
        assert!(t.send(
            PeerId(1),
            PeerId(2),
            encode_frame(&Message::Ping { nonce: 1 })
        ));
        assert!(rx_b.recv_timeout(Duration::from_secs(5)).is_ok());
        t.evict(PeerId(2));
        assert_eq!(
            t.dispatch(
                PeerId(1),
                PeerId(2),
                encode_frame(&Message::Ping { nonce: 2 })
            ),
            SendStatus::NoRoute
        );
        // Restart: re-adding clears the dead latch immediately.
        let rx_b2 = t.open_client(PeerId(2));
        assert!(t.send(
            PeerId(1),
            PeerId(2),
            encode_frame(&Message::Ping { nonce: 3 })
        ));
        let (_, msg) = rx_b2.recv_timeout(Duration::from_secs(5)).unwrap();
        assert!(matches!(msg, Message::Ping { nonce: 3 }));
        t.shutdown();
    }

    #[test]
    fn write_queue_sheds_newest_when_full() {
        let t = TcpTransport::bind(TcpTransportConfig {
            write_queue_depth: 2,
            ..TcpTransportConfig::default()
        })
        .unwrap();
        let _rx_a = t.open_client(PeerId(1));
        // Target registered at an address that never completes a preamble
        // handshake from our side: a bound listener we never accept on.
        let sink = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        t.register_remote(PeerId(2), sink.local_addr().unwrap());
        // Large frames so the kernel buffers cannot absorb the queue.
        let big = encode_frame(&Message::Query {
            id: 1,
            origin: PeerId(1),
            key: Default::default(),
            matched: 0,
            ttl: u16::MAX,
        });
        let mut shed = 0;
        for _ in 0..64 {
            if t.dispatch(PeerId(1), PeerId(2), big.clone()) == SendStatus::Rejected {
                shed += 1;
            }
        }
        assert!(shed > 0, "queue depth 2 must shed under a stalled reader");
        assert_eq!(t.net_stats().writes_shed, shed);
        t.shutdown();
    }

    /// Polls `f` until it returns true or five seconds pass.
    fn wait_for(mut f: impl FnMut() -> bool) -> bool {
        let deadline = Instant::now() + Duration::from_secs(5);
        while Instant::now() < deadline {
            if f() {
                return true;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        f()
    }

    #[test]
    fn truncated_preamble_is_counted_not_fatal() {
        let t = transport();
        let _rx_a = t.open_client(PeerId(1));
        // Hostile dial: half a greeting, then a hard kill. The transport
        // must count it and keep serving — never panic or wedge a worker.
        let mut s = TcpStream::connect(t.local_addr()).unwrap();
        s.write_all(&MAGIC[..2]).unwrap();
        drop(s);
        assert!(
            wait_for(|| t.net_stats().malformed >= 1),
            "truncated preamble must land in the malformed counter: {:?}",
            t.net_stats()
        );
        // The acceptor is still alive: a real client round-trips after it.
        let rx_b = t.open_client(PeerId(2));
        assert!(t.send(
            PeerId(1),
            PeerId(2),
            encode_frame(&Message::Ping { nonce: 4 })
        ));
        let (_, msg) = rx_b.recv_timeout(Duration::from_secs(5)).unwrap();
        assert!(matches!(msg, Message::Ping { nonce: 4 }));
        t.shutdown();
    }

    #[test]
    fn mid_write_socket_kill_is_counted_conn_lost() {
        let t = transport();
        let rx = t.open_client(PeerId(1));
        // A well-greeted foreign dialer that dies mid-frame.
        let mut s = TcpStream::connect(t.local_addr()).unwrap();
        let mut hello = Vec::with_capacity(PREAMBLE_LEN);
        hello.extend_from_slice(MAGIC);
        hello.extend_from_slice(&7u32.to_le_bytes());
        hello.extend_from_slice(&1u32.to_le_bytes());
        s.write_all(&hello).unwrap();
        let frame = encode_frame(&Message::Ping { nonce: 3 });
        s.write_all(&frame[..frame.len() - 1]).unwrap();
        s.flush().unwrap();
        drop(s); // the torn tail never arrives
        assert!(
            wait_for(|| t.net_stats().conn_lost >= 1),
            "a death mid-frame must land in conn_lost: {:?}",
            t.net_stats()
        );
        // The half-frame never surfaces as a message.
        assert!(rx.recv_timeout(Duration::from_millis(100)).is_err());
        t.shutdown();
    }

    #[test]
    fn node_shell_answers_ping_over_socket() {
        let t = transport();
        let state = Arc::new(Mutex::new(NodeState::new(PeerId(0), 4, 2, 2)));
        t.host(Arc::clone(&state), 77, None, Box::new(NullTracer));
        let rx = t.open_client(PeerId(9));
        assert!(t.send(
            PeerId(9),
            PeerId(0),
            encode_frame(&Message::Ping { nonce: 31 })
        ));
        let (from, msg) = rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(from, PeerId(0));
        assert!(matches!(msg, Message::Pong { nonce: 31 }));
        t.shutdown();
    }

    #[test]
    fn os_threads_stay_constant_as_peers_grow() {
        let t = TcpTransport::bind(TcpTransportConfig {
            workers: 2,
            ..TcpTransportConfig::default()
        })
        .unwrap();
        assert_eq!(t.worker_count(), 2);
        for i in 0..64 {
            let state = Arc::new(Mutex::new(NodeState::new(PeerId(i), 4, 2, 2)));
            t.host(state, u64::from(i), None, Box::new(NullTracer));
        }
        // The transport spawned exactly `workers` threads at bind time and
        // none since — adding shells only grows per-worker maps.
        assert_eq!(lock(&t.inner.handles).len(), 2);
        t.shutdown();
    }
}
