//! The transport seam, and its in-process implementation: mailboxes keyed
//! by peer id, one actor thread per hosted peer.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, sync_channel, Receiver, Sender, SyncSender, TrySendError};
use std::sync::{Arc, Condvar, Mutex, PoisonError, RwLock, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bytes::{Bytes, BytesMut};
use pgrid_net::{NetStats, PeerId};
use pgrid_store::AnyBackend;
use pgrid_trace::Tracer;
use pgrid_wire::{decode_frame, Message};

use crate::fault::{self, FaultGate, FaultPlan};
use crate::node::NodeRt;
use crate::{lock, read, write, NodeState};

/// One delivered frame: the sender and the encoded bytes.
#[derive(Clone, Debug)]
pub struct Frame {
    /// Sending peer.
    pub from: PeerId,
    /// Encoded wire frame (see [`pgrid_wire`]).
    pub bytes: Bytes,
}

/// Outcome of handing one frame to the transport.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SendStatus {
    /// Accepted for delivery (possibly held back by an injected delay).
    Delivered,
    /// Discarded in flight by injected loss — the *sender cannot see this*;
    /// [`Transport::send`] reports it as success, exactly like a lossy
    /// socket. Only [`Transport::dispatch`] exposes it, for tests.
    Dropped,
    /// Refused because the target mailbox is full (backpressure).
    Rejected,
    /// The target has no mailbox (departed or never existed).
    NoRoute,
}

/// The transport seam: everything that differs between deployments.
///
/// [`LocalTransport`] (in-process mailboxes, one actor thread per peer),
/// [`crate::TcpTransport`] (real sockets behind an event-loop worker pool)
/// and [`crate::SimTransport`] (one queue on a virtual clock, no thread)
/// implement it. The node shell and the [`Community`](crate::Community)
/// harness are generic over this trait, so the sans-I/O
/// [`ProtocolPeer`](pgrid_proto::ProtocolPeer) runs byte-identically over
/// each. A deployment says how a frame moves ([`Transport::deliver_now`],
/// [`Transport::send_control`]), how a peer shell is hosted and evicted,
/// how the harness client receives, and how to tell the network is quiet;
/// fault injection ([`FaultPlan`]) and the counters are shared, provided
/// here over [`Transport::gate`]. Its clock and its two waits
/// ([`Transport::now`], [`Transport::settle_poll`],
/// [`Transport::recv_client`]) default to wall time, which only the
/// virtual clock replaces.
///
/// The trait names crate-internal types, so it cannot be implemented
/// outside this crate.
pub trait Transport: Clone + Send + Sync + 'static {
    /// Quiescence polling round of [`Community::settle`](crate::Community::settle):
    /// long enough that a frame handed to the transport is counted as
    /// delivered (or still in flight) one round later.
    const SETTLE_POLL: Duration;

    /// This transport's fault plan, holdback heap, and counters.
    fn gate(&self) -> &FaultGate;

    /// Moves a frame past the fault gate: into the target's mailbox or
    /// write queue, bounded by backpressure.
    fn deliver_now(&self, from: PeerId, to: PeerId, bytes: Bytes) -> SendStatus;

    /// A frame was just put on hold: wakes whoever calls
    /// `FaultGate::release` so it re-derives its deadline.
    fn wake_holdback(&self);

    /// Sends a harness control frame (`Meet`, `Shutdown`, client acks while
    /// draining), bypassing fault injection and backpressure: the test
    /// driver's steering wheel must work even on a fully faulty network.
    /// Returns `false` when `to` is unreachable.
    fn send_control(&self, from: PeerId, to: PeerId, bytes: Bytes) -> bool;

    /// Total frames handed to a shell or client so far (quiescence
    /// detection; the benchmark's `msgs_per_op`).
    fn delivered(&self) -> u64;

    /// Frames accepted but not yet handed over — held back by an injected
    /// delay or queued behind a socket (quiescence detection waits for them).
    fn in_flight(&self) -> usize;

    /// Hosts a peer shell: from now on frames addressed to the peer in
    /// `state` drive its protocol core, seeded with `seed`. The shell
    /// appends every index entry the peer takes custody of to `journal`
    /// (flushed when the shell goes away; recovery is the caller's move —
    /// reopen and [`reseed_from_journal`](crate::reseed_from_journal)
    /// before hosting again) and reports every protocol decision and
    /// retransmission to `tracer` (pass a boxed
    /// [`NullTracer`](pgrid_trace::NullTracer) for none; observation never
    /// changes a decision or an RNG draw). The shared `state` handle stays
    /// with the caller for snapshots.
    fn host(
        &self,
        state: Arc<Mutex<NodeState>>,
        seed: u64,
        journal: Option<AnyBackend>,
        tracer: Box<dyn Tracer>,
    );

    /// Evicts a hosted peer or client (departure or crash): its endpoint
    /// vanishes, its shell is dropped with all volatile state, and senders
    /// see [`SendStatus::NoRoute`]. Returns once the shell is gone, so its
    /// journal is flushed and closed. Durable state stays with the caller.
    fn evict(&self, id: PeerId);

    /// Opens the harness client endpoint: messages addressed to `id`
    /// arrive decoded on the returned channel as `(sender, message)`.
    fn open_client(&self, id: PeerId) -> Receiver<(PeerId, Message)>;

    /// Stops every hosted shell and joins the transport's threads. State
    /// handles survive with the caller.
    fn shutdown(&self);

    /// Sends `bytes` from `from` to `to` through the fault gate, reporting
    /// the precise outcome (including injected loss, which
    /// [`Transport::send`] hides).
    fn dispatch(&self, from: PeerId, to: PeerId, bytes: Bytes) -> SendStatus {
        fault::dispatch(self, from, to, bytes)
    }

    /// Sends `bytes` from `from` to `to`. Returns `false` when the target is
    /// unreachable (departed) or saturated. A frame discarded by *injected
    /// loss* still returns `true`: the sender of a lossy link cannot observe
    /// the loss.
    fn send(&self, from: PeerId, to: PeerId, bytes: Bytes) -> bool {
        matches!(
            self.dispatch(from, to, bytes),
            SendStatus::Delivered | SendStatus::Dropped
        )
    }

    /// Installs a fault plan: subsequent frames are subjected to its drop /
    /// duplicate / reorder / delay rolls, deterministically from its seed.
    fn inject_faults(&self, plan: FaultPlan) {
        self.gate().install(Some(plan));
    }

    /// Removes the fault plan and delivers every held-back frame at once.
    fn clear_faults(&self) {
        self.gate().install(None);
        self.gate()
            .release(None, |h| self.deliver_now(h.from, h.to, h.bytes));
    }

    /// Records a protocol-level retransmission (reported by node shells).
    fn record_retry(&self) {
        self.gate().counters.retries.fetch_add(1, Ordering::Relaxed);
    }

    /// Records an exhausted retransmit budget (reported by node shells).
    fn record_timeout(&self) {
        self.gate()
            .counters
            .timeouts
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Records a frame that failed to decode (reported by node shells).
    fn record_malformed(&self) {
        self.gate()
            .counters
            .malformed
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Records a routing-table eviction after repeated failures.
    fn record_eviction(&self) {
        self.gate()
            .counters
            .evictions
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Snapshot of the transport's fault/robustness counters.
    fn net_stats(&self) -> NetStats {
        self.gate().counters.snapshot()
    }

    /// The clock that retransmit deadlines, fault delays and query
    /// deadlines are measured on.
    fn now(&self) -> Instant {
        Instant::now()
    }

    /// One quiescence polling round of
    /// [`Community::settle`](crate::Community::settle): lets the network
    /// run for [`Transport::SETTLE_POLL`].
    fn settle_poll(&self) {
        std::thread::sleep(Self::SETTLE_POLL);
    }

    /// Waits until `deadline` for the next message on the harness client
    /// endpoint `rx` (see [`Transport::open_client`]).
    fn recv_client(
        &self,
        rx: &Receiver<(PeerId, Message)>,
        deadline: Instant,
    ) -> Option<(PeerId, Message)> {
        rx.recv_timeout(deadline.saturating_duration_since(self.now()))
            .ok()
    }
}

/// Hands a frame to the harness client, which has no shell: it is decoded
/// on arrival, and one that fails to decode is counted as malformed.
pub(crate) fn hand_to_client(
    tx: &Sender<(PeerId, Message)>,
    from: PeerId,
    bytes: &[u8],
    gate: &FaultGate,
) {
    let mut buf = BytesMut::from(bytes);
    match decode_frame(&mut buf) {
        Ok(Some(msg)) => {
            let _ = tx.send((from, msg));
        }
        Ok(None) | Err(_) => {
            gate.counters.malformed.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Why a registration was refused.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RegisterError {
    /// The peer id already owns a live mailbox.
    AlreadyRegistered(PeerId),
}

impl std::fmt::Display for RegisterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RegisterError::AlreadyRegistered(id) => write!(f, "{id} already registered"),
        }
    }
}

impl std::error::Error for RegisterError {}

/// Default mailbox depth: deep enough that a healthy node never hits it,
/// shallow enough that a flooded node sheds load instead of growing without
/// bound.
pub const DEFAULT_MAILBOX_DEPTH: usize = 4096;

/// Where a registered peer id terminates.
enum Mailbox {
    /// Raw frames, decoded by whoever holds the receiver (a peer shell).
    Frames(SyncSender<Frame>),
    /// The harness client has no shell: its frames are decoded on arrival.
    Client(Sender<(PeerId, Message)>),
}

/// State shared between the transport and its holdback pump thread. Lives in
/// its own `Arc` so the pump can block on the condvar *without* holding the
/// transport alive: the pump keeps only a `Weak<Inner>`, and `Inner::drop`
/// flips `closed` and notifies, so the pump exits promptly when the last
/// transport handle goes away.
struct PumpShared {
    gate: FaultGate,
    /// Paired with `gate.holdback`'s mutex.
    cv: Condvar,
    closed: AtomicBool,
    /// Times the pump thread woke from its wait. A deadline-driven pump holds
    /// this constant while the transport is idle — pinned by the
    /// `idle_pump_makes_no_spurious_wakeups` regression test (the old pump
    /// polled every millisecond, idle or not).
    wakeups: AtomicU64,
}

struct Inner {
    mailboxes: RwLock<HashMap<PeerId, Mailbox>>,
    /// Actor threads of hosted peers, joined on eviction and shutdown.
    threads: Mutex<HashMap<PeerId, JoinHandle<()>>>,
    /// Mailbox depth, in frames.
    depth: usize,
    delivered: AtomicU64,
    pump: Arc<PumpShared>,
    pump_alive: AtomicBool,
}

impl Drop for Inner {
    fn drop(&mut self) {
        self.pump.closed.store(true, Ordering::SeqCst);
        // Taking the lock orders the store before the pump's next check.
        drop(lock(&self.pump.gate.holdback));
        self.pump.cv.notify_all();
    }
}

impl Inner {
    /// Puts a frame into `to`'s mailbox; `control` frames ignore the bound.
    fn push(&self, from: PeerId, to: PeerId, bytes: Bytes, control: bool) -> SendStatus {
        let guard = read(&self.mailboxes);
        let Some(mailbox) = guard.get(&to) else {
            return SendStatus::NoRoute;
        };
        // Counted before the hand-off, so a receiver that sees the frame
        // also sees it counted: the channel's send and receive order this
        // relaxed increment before the receiver's load. A refused hand-off
        // takes the count back.
        self.delivered.fetch_add(1, Ordering::Relaxed);
        let sent = match mailbox {
            Mailbox::Frames(tx) if control => tx
                .send(Frame { from, bytes })
                .map_err(|e| TrySendError::Disconnected(e.0)),
            Mailbox::Frames(tx) => tx.try_send(Frame { from, bytes }),
            Mailbox::Client(tx) => {
                hand_to_client(tx, from, &bytes, &self.pump.gate);
                Ok(())
            }
        };
        let Err(refused) = sent else {
            return SendStatus::Delivered;
        };
        self.delivered.fetch_sub(1, Ordering::Relaxed);
        match refused {
            TrySendError::Full(_) => {
                let rejected = &self.pump.gate.counters.rejected;
                rejected.fetch_add(1, Ordering::Relaxed);
                SendStatus::Rejected
            }
            TrySendError::Disconnected(_) => SendStatus::NoRoute,
        }
    }

    /// Delivers every held frame that has come due.
    fn flush_due(&self, now: Instant) {
        self.pump
            .gate
            .release(Some(now), |h| self.push(h.from, h.to, h.bytes, false));
    }
}

/// An in-process message router. Every registered peer owns a mailbox; a
/// send clones nothing but the `Bytes` handle. Hosted peers each run on
/// their own actor thread ([`Transport::host`]).
///
/// Mailboxes are **bounded** (see [`DEFAULT_MAILBOX_DEPTH`]): a flooded
/// node rejects further frames (counted in [`NetStats::rejected`]) instead
/// of exhausting memory.
#[derive(Clone)]
pub struct LocalTransport {
    inner: Arc<Inner>,
}

impl Default for LocalTransport {
    fn default() -> Self {
        LocalTransport::new()
    }
}

impl LocalTransport {
    /// Creates an empty transport with the default mailbox depth.
    pub fn new() -> Self {
        LocalTransport::with_mailbox_depth(DEFAULT_MAILBOX_DEPTH)
    }

    /// Creates an empty transport whose mailboxes hold at most `depth`
    /// frames (at least one).
    pub fn with_mailbox_depth(depth: usize) -> Self {
        LocalTransport {
            inner: Arc::new(Inner {
                mailboxes: RwLock::new(HashMap::new()),
                threads: Mutex::new(HashMap::new()),
                depth,
                delivered: AtomicU64::new(0),
                pump: Arc::new(PumpShared {
                    gate: FaultGate::default(),
                    cv: Condvar::new(),
                    closed: AtomicBool::new(false),
                    wakeups: AtomicU64::new(0),
                }),
                pump_alive: AtomicBool::new(false),
            }),
        }
    }

    /// Registers a mailbox for `id`, returning its receiving end. An
    /// existing mailbox for `id` is **replaced** — its sender is dropped, so
    /// the stale receiver (a crashed node's old event loop) drains and then
    /// disconnects. This is what makes crash/*restart* possible.
    pub fn register(&self, id: PeerId) -> Receiver<Frame> {
        let (tx, rx) = sync_channel(self.inner.depth);
        write(&self.inner.mailboxes).insert(id, Mailbox::Frames(tx));
        rx
    }

    /// Registers a mailbox for `id`, erroring when one already exists.
    /// Callers that do not implement restart semantics should prefer this
    /// over [`LocalTransport::register`] to surface id collisions.
    pub fn try_register(&self, id: PeerId) -> Result<Receiver<Frame>, RegisterError> {
        let mut guard = write(&self.inner.mailboxes);
        if guard.contains_key(&id) {
            return Err(RegisterError::AlreadyRegistered(id));
        }
        let (tx, rx) = sync_channel(self.inner.depth);
        guard.insert(id, Mailbox::Frames(tx));
        Ok(rx)
    }

    /// Removes a mailbox (a departed peer). Pending frames are dropped with
    /// the receiver.
    pub fn unregister(&self, id: PeerId) {
        write(&self.inner.mailboxes).remove(&id);
    }

    /// Spawns the holdback pump (at most one per transport): a thread that
    /// sleeps until the *next scheduled release* (not a fixed poll interval)
    /// and flushes everything due. An idle transport therefore burns no CPU:
    /// with an empty heap the pump parks on the condvar until
    /// [`Transport::wake_holdback`] notifies it, and `Inner::drop` notifies
    /// `closed` so it exits with the transport.
    fn ensure_pump(&self) {
        if self.inner.pump_alive.swap(true, Ordering::SeqCst) {
            return;
        }
        let weak: Weak<Inner> = Arc::downgrade(&self.inner);
        let shared = Arc::clone(&self.inner.pump);
        std::thread::spawn(move || loop {
            {
                // Flush under a short-lived strong handle; holding it across
                // the wait below would keep a dropped transport alive.
                let Some(inner) = weak.upgrade() else { return };
                inner.flush_due(Instant::now());
            }
            let mut heap = lock(&shared.gate.holdback);
            if shared.closed.load(Ordering::SeqCst) {
                return;
            }
            let now = Instant::now();
            heap = match heap.peek().map(|h| h.due) {
                // Deadline-driven: wait exactly until the earliest release.
                Some(due) if due > now => {
                    let waited = shared.cv.wait_timeout(heap, due - now);
                    waited.unwrap_or_else(PoisonError::into_inner).0
                }
                // Something is already due — loop around and flush it.
                Some(_) => heap,
                // Nothing held: park until a hold or shutdown notifies.
                None => shared.cv.wait(heap).unwrap_or_else(PoisonError::into_inner),
            };
            drop(heap);
            if shared.closed.load(Ordering::SeqCst) {
                return;
            }
            shared.wakeups.fetch_add(1, Ordering::Relaxed);
        });
    }

    /// Times the holdback pump woke from its deadline/condvar wait.
    /// Diagnostic: an idle transport must hold this constant (no busy
    /// polling); tests pin that.
    pub fn pump_wakeups(&self) -> u64 {
        self.inner.pump.wakeups.load(Ordering::Relaxed)
    }

    /// Number of registered mailboxes.
    pub fn len(&self) -> usize {
        read(&self.inner.mailboxes).len()
    }

    /// `true` when no mailbox is registered.
    pub fn is_empty(&self) -> bool {
        read(&self.inner.mailboxes).is_empty()
    }
}

impl Transport for LocalTransport {
    /// A mailbox push is synchronous; 2 ms covers a node thread's turnaround.
    const SETTLE_POLL: Duration = Duration::from_millis(2);

    fn gate(&self) -> &FaultGate {
        &self.inner.pump.gate
    }

    fn deliver_now(&self, from: PeerId, to: PeerId, bytes: Bytes) -> SendStatus {
        self.inner.push(from, to, bytes, false)
    }

    fn wake_holdback(&self) {
        self.inner.pump.cv.notify_one();
        self.ensure_pump();
    }

    fn send_control(&self, from: PeerId, to: PeerId, bytes: Bytes) -> bool {
        self.inner.push(from, to, bytes, true) == SendStatus::Delivered
    }

    fn delivered(&self) -> u64 {
        self.inner.delivered.load(Ordering::Relaxed)
    }

    fn in_flight(&self) -> usize {
        self.inner.pump.gate.held()
    }

    /// Registers the peer's mailbox and spawns its actor thread, which
    /// processes frames until it receives [`Message::Shutdown`] or the
    /// mailbox disappears.
    fn host(
        &self,
        state: Arc<Mutex<NodeState>>,
        seed: u64,
        journal: Option<AnyBackend>,
        tracer: Box<dyn Tracer>,
    ) {
        let rt = NodeRt::new(state, self.clone(), seed, journal, tracer);
        let id = rt.peer_id();
        let rx = self.register(id);
        let handle = std::thread::spawn(move || rt.run(rx));
        lock(&self.inner.threads).insert(id, handle);
    }

    /// The mailbox vanishes without a goodbye; the thread drains what it
    /// already received, exits on the disconnected channel, and is joined.
    fn evict(&self, id: PeerId) {
        self.unregister(id);
        let thread = lock(&self.inner.threads).remove(&id);
        if let Some(thread) = thread {
            let _ = thread.join();
        }
    }

    fn open_client(&self, id: PeerId) -> Receiver<(PeerId, Message)> {
        let (tx, rx) = channel();
        write(&self.inner.mailboxes).insert(id, Mailbox::Client(tx));
        rx
    }

    fn shutdown(&self) {
        write(&self.inner.mailboxes).clear();
        let threads = std::mem::take(&mut *lock(&self.inner.threads));
        for thread in threads.into_values() {
            let _ = thread.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn register_send_receive() {
        let t = LocalTransport::new();
        let rx = t.register(PeerId(1));
        assert!(t.send(PeerId(0), PeerId(1), Bytes::from_static(b"hi")));
        let frame = rx.recv().unwrap();
        assert_eq!(frame.from, PeerId(0));
        assert_eq!(&frame.bytes[..], b"hi");
        assert_eq!(t.delivered(), 1);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn send_to_unknown_peer_fails() {
        let t = LocalTransport::new();
        assert!(!t.send(PeerId(0), PeerId(9), Bytes::new()));
        assert_eq!(t.delivered(), 0);
    }

    #[test]
    fn unregister_stops_delivery() {
        let t = LocalTransport::new();
        let _rx = t.register(PeerId(1));
        t.unregister(PeerId(1));
        assert!(!t.send(PeerId(0), PeerId(1), Bytes::new()));
        assert!(t.is_empty());
    }

    #[test]
    fn reregistration_replaces_the_stale_mailbox() {
        let t = LocalTransport::new();
        let old_rx = t.register(PeerId(1));
        assert!(t.send(PeerId(0), PeerId(1), Bytes::from_static(b"old")));
        let new_rx = t.register(PeerId(1));
        assert!(t.send(PeerId(0), PeerId(1), Bytes::from_static(b"new")));
        // The stale receiver drains its backlog, then disconnects.
        assert_eq!(&old_rx.recv().unwrap().bytes[..], b"old");
        assert!(old_rx.recv_timeout(Duration::from_millis(50)).is_err());
        assert_eq!(&new_rx.recv().unwrap().bytes[..], b"new");
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn try_register_errors_on_collision() {
        let t = LocalTransport::new();
        let _rx = t.try_register(PeerId(1)).unwrap();
        assert_eq!(
            t.try_register(PeerId(1)).err(),
            Some(RegisterError::AlreadyRegistered(PeerId(1)))
        );
        t.unregister(PeerId(1));
        assert!(t.try_register(PeerId(1)).is_ok());
    }

    #[test]
    fn bounded_mailbox_rejects_overflow() {
        let t = LocalTransport::with_mailbox_depth(2);
        let _rx = t.register(PeerId(1));
        assert_eq!(
            t.dispatch(PeerId(0), PeerId(1), Bytes::new()),
            SendStatus::Delivered
        );
        assert_eq!(
            t.dispatch(PeerId(0), PeerId(1), Bytes::new()),
            SendStatus::Delivered
        );
        assert_eq!(
            t.dispatch(PeerId(0), PeerId(1), Bytes::new()),
            SendStatus::Rejected
        );
        assert!(!t.send(PeerId(0), PeerId(1), Bytes::new()));
        assert_eq!(t.net_stats().rejected, 2);
        assert_eq!(t.delivered(), 2);
    }

    #[test]
    fn transport_is_shared_across_clones() {
        let t = LocalTransport::new();
        let t2 = t.clone();
        let rx = t.register(PeerId(5));
        assert!(t2.send(PeerId(0), PeerId(5), Bytes::from_static(b"x")));
        assert!(rx.try_recv().is_ok());
    }

    #[test]
    fn injected_drops_are_silent_and_counted() {
        let t = LocalTransport::new();
        let rx = t.register(PeerId(1));
        t.inject_faults(FaultPlan::new(3).with_drop(1.0));
        // A certain drop still looks like success to the sender.
        assert!(t.send(PeerId(0), PeerId(1), Bytes::from_static(b"x")));
        assert_eq!(
            t.dispatch(PeerId(0), PeerId(1), Bytes::new()),
            SendStatus::Dropped
        );
        assert!(rx.try_recv().is_err());
        assert_eq!(t.net_stats().dropped, 2);
        t.clear_faults();
        assert!(t.send(PeerId(0), PeerId(1), Bytes::new()));
        assert!(rx.recv_timeout(Duration::from_millis(100)).is_ok());
    }

    #[test]
    fn injected_duplicates_arrive_twice() {
        let t = LocalTransport::new();
        let rx = t.register(PeerId(1));
        t.inject_faults(FaultPlan::new(3).with_duplicate(1.0));
        assert!(t.send(PeerId(0), PeerId(1), Bytes::from_static(b"d")));
        assert_eq!(
            &rx.recv_timeout(Duration::from_millis(100)).unwrap().bytes[..],
            b"d"
        );
        assert_eq!(
            &rx.recv_timeout(Duration::from_millis(100)).unwrap().bytes[..],
            b"d"
        );
        assert_eq!(t.net_stats().duplicated, 1);
    }

    #[test]
    fn injected_delay_holds_then_delivers() {
        let t = LocalTransport::new();
        let rx = t.register(PeerId(1));
        t.inject_faults(FaultPlan::new(3).with_delay(1.0, 30));
        assert!(t.send(PeerId(0), PeerId(1), Bytes::from_static(b"late")));
        assert!(t.in_flight() > 0 || rx.try_recv().is_ok());
        let frame = rx.recv_timeout(Duration::from_millis(500)).unwrap();
        assert_eq!(&frame.bytes[..], b"late");
        assert_eq!(t.net_stats().delayed, 1);
        assert_eq!(t.delivered(), 1);
    }

    #[test]
    fn control_frames_bypass_faults() {
        let t = LocalTransport::new();
        let rx = t.register(PeerId(1));
        t.inject_faults(FaultPlan::new(3).with_drop(1.0));
        assert!(t.send_control(PeerId(0), PeerId(1), Bytes::from_static(b"ctl")));
        assert_eq!(
            &rx.recv_timeout(Duration::from_millis(100)).unwrap().bytes[..],
            b"ctl"
        );
    }

    #[test]
    fn fault_decisions_are_reproducible_across_transports() {
        let plan = FaultPlan::new(77).with_drop(0.4);
        let run = || {
            let t = LocalTransport::new();
            let _rx = t.register(PeerId(1));
            t.inject_faults(plan);
            (0..200)
                .map(|_| t.dispatch(PeerId(0), PeerId(1), Bytes::new()) == SendStatus::Dropped)
                .collect::<Vec<bool>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn idle_pump_makes_no_spurious_wakeups() {
        let t = LocalTransport::new();
        let rx = t.register(PeerId(1));
        t.inject_faults(FaultPlan::new(9).with_delay(1.0, 10));
        assert!(t.send(PeerId(0), PeerId(1), Bytes::from_static(b"late")));
        // The held frame is released at its deadline...
        assert!(rx.recv_timeout(Duration::from_millis(500)).is_ok());
        std::thread::sleep(Duration::from_millis(50)); // let the pump settle
        let settled = t.pump_wakeups();
        // ...after which an idle transport parks on the condvar. The old
        // pump polled every 1ms (~250 wakeups over this window); the
        // deadline-driven one must not wake at all.
        std::thread::sleep(Duration::from_millis(250));
        assert_eq!(t.pump_wakeups(), settled, "holdback pump woke while idle");
    }

    #[test]
    fn pump_survives_idle_then_delivers_again() {
        let t = LocalTransport::new();
        let rx = t.register(PeerId(1));
        t.inject_faults(FaultPlan::new(9).with_delay(1.0, 5));
        assert!(t.send(PeerId(0), PeerId(1), Bytes::from_static(b"a")));
        assert!(rx.recv_timeout(Duration::from_millis(500)).is_ok());
        std::thread::sleep(Duration::from_millis(60)); // pump fully idle
        assert!(t.send(PeerId(0), PeerId(1), Bytes::from_static(b"b")));
        // A fresh hold() must re-arm the parked pump via the condvar.
        assert!(rx.recv_timeout(Duration::from_millis(500)).is_ok());
    }

    #[test]
    fn clean_run_has_zero_fault_counters() {
        let t = LocalTransport::new();
        let rx = t.register(PeerId(1));
        for _ in 0..50 {
            assert!(t.send(PeerId(0), PeerId(1), Bytes::new()));
        }
        drop(rx);
        assert!(t.net_stats().is_fault_free());
    }
}
