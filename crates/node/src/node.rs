//! The I/O shell of a live node: an actor loop driving the sans-I/O
//! protocol core.
//!
//! Every protocol decision lives in [`pgrid_proto::ProtocolPeer`] — this
//! module owns only I/O: decoding frames into [`Event`]s, encoding
//! [`Effect`]s into frames, retransmission timers, candidate failover, and
//! the failure signals fed back as events. Because the core draws all its
//! randomness from one seeded stream (`proto_rng`) and the shell draws its
//! retransmit jitter from a *separate* stream (`io_rng`), a node's protocol
//! decisions are a pure function of its seed and event order — which is what
//! lets the inline simulator ([`pgrid_proto::SimNet`]) reproduce them.
//!
//! # Reliability
//!
//! The loop assumes a *faulty* transport (see [`crate::FaultPlan`]): frames
//! may be dropped, duplicated, reordered, or delayed, and peers may crash.
//! Every state-carrying frame therefore follows one of two patterns:
//!
//! * **Request/response with retransmission** — exchange offers keep the
//!   answer as their implicit ack; forwarded queries, query answers, and
//!   index inserts are acked hop-by-hop with [`Message::Ack`]. Unacked
//!   frames are retransmitted with exponential backoff + jitter
//!   ([`RetryPolicy`]) up to a bounded attempt count, then the sender
//!   **fails over** to the next candidate reference (queries/inserts) or
//!   gives up (offers). A [`Message::Nack`] (downstream dead end) triggers
//!   the failover immediately.
//! * **Idempotent receipt** — handled *inside the core*: retransmitted
//!   queries, inserts, and exchange offers are deduplicated there, so replay
//!   never re-applies a non-idempotent transition.
//!
//! Delivery failures surface to the core as [`Event::PeerSuspected`] (soft
//! strike; eviction after repeated ones) or [`Event::PeerGone`] (no mailbox
//! at all: pruned on the spot).

use std::collections::{HashMap, VecDeque};
use std::sync::mpsc::{Receiver, RecvTimeoutError};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use bytes::{Bytes, BytesMut};
use pgrid_keys::BitPath;
use pgrid_net::PeerId;
use pgrid_proto::{Effect, Event, ProtoCtx, TimerToken};
use pgrid_store::{AnyBackend, DataItem, ItemId, StorageBackend, Version};
use pgrid_trace::{OpTag, TraceEvent, Tracer};
use pgrid_wire::{decode_frame, encode_frame, Message, WireEntry};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::{lock, Frame, NodeState, SendStatus, Transport};

/// How unacknowledged frames are retransmitted: `attempt` transmissions in
/// total, the wait after the n-th doubling each time, plus uniform jitter
/// to decorrelate competing retransmitters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Backoff after the first transmission, in milliseconds.
    pub base_ms: u64,
    /// Total transmissions (1 = no retransmission).
    pub max_attempts: u32,
    /// Upper bound of the uniform jitter added to every deadline.
    pub jitter_ms: u64,
}

impl RetryPolicy {
    /// The wait before declaring (1-based) transmission `attempt` lost:
    /// `base · 2^(attempt−1) + U(0, jitter)`, capped at 64×base.
    pub fn backoff(&self, attempt: u32, rng: &mut StdRng) -> Duration {
        let shift = attempt.saturating_sub(1).min(6);
        let jitter = if self.jitter_ms > 0 {
            rng.gen_range(0..=self.jitter_ms)
        } else {
            0
        };
        Duration::from_millis(self.base_ms.saturating_mul(1 << shift) + jitter)
    }
}

/// Behavioural knobs of a live node.
#[derive(Clone, Copy, Debug)]
pub struct NodeConfig {
    /// Exchange recursion bound (`recmax`).
    pub recmax: u8,
    /// Query hop budget.
    pub ttl: u16,
    /// Retransmission policy for exchange offers (acked by their answer).
    pub exchange_retry: RetryPolicy,
    /// Retransmission policy for hop-acked frames (queries, answers,
    /// inserts).
    pub ack_retry: RetryPolicy,
}

impl Default for NodeConfig {
    fn default() -> Self {
        NodeConfig {
            recmax: 2,
            ttl: 64,
            // Bases are far above clean-run processing latency (micro-
            // seconds), so a fault-free network never sees a retransmission.
            exchange_retry: RetryPolicy {
                base_ms: 120,
                max_attempts: 3,
                jitter_ms: 40,
            },
            ack_retry: RetryPolicy {
                base_ms: 60,
                max_attempts: 3,
                jitter_ms: 20,
            },
        }
    }
}

/// Event-loop wakeup period for timer processing.
const TICK: Duration = Duration::from_millis(5);
/// Ticks between periodic self-stabilization passes (~every 320 ms with
/// the 5 ms tick). The pass is a strict no-op — zero effects, zero RNG
/// draws — on a valid peer, so the cadence is free to be arbitrary.
const STABILIZE_EVERY: u64 = 64;
/// Stream separator between the protocol RNG and the I/O (jitter) RNG
/// derived from one node seed.
const IO_STREAM_SALT: u64 = 0x9e37_79b9_7f4a_7c15;

/// I/O state of an offer in flight: the encoded frame and its retransmit
/// schedule. The *protocol* state (path snapshot, depth) lives in the core.
struct IoOffer {
    target: PeerId,
    frame: Bytes,
    attempt: u32,
    deadline: Instant,
}

/// I/O state of a forwarded query awaiting the next hop's ack.
struct IoForward {
    /// Who handed the query to us (for the core's dead-end verdict).
    upstream: PeerId,
    origin: PeerId,
    frame: Bytes,
    current: PeerId,
    rest: Vec<PeerId>,
    attempt: u32,
    deadline: Instant,
}

/// I/O state of a query answer awaiting the origin's ack.
struct IoAnswer {
    to: PeerId,
    frame: Bytes,
    attempt: u32,
    deadline: Instant,
}

/// I/O state of a forwarded index entry awaiting the next hop's ack. The
/// key and entry ride along so the core can take custody if every
/// candidate fails.
struct IoInsert {
    key: BitPath,
    entry: WireEntry,
    frame: Bytes,
    current: PeerId,
    rest: Vec<PeerId>,
    attempt: u32,
    deadline: Instant,
}

/// How one leaf-index entry is journaled as a [`DataItem`]: the item id
/// keys the record (so a newer version of the same item overwrites in
/// place), the holder rides in the payload as 4 LE bytes, and the entry's
/// version is the item's. Stable across backends — the journal formats on
/// disk are the backends' own.
pub(crate) fn journal_item(key: BitPath, entry: WireEntry) -> DataItem {
    DataItem {
        id: ItemId(entry.item),
        name: String::new(),
        key,
        version: Version(entry.version),
        payload: entry.holder.0.to_le_bytes().to_vec(),
    }
}

/// Inverse of [`journal_item`] (a payload too short to carry a holder —
/// foreign data in the backend — maps to an unroutable holder id).
pub(crate) fn journal_entry(item: &DataItem) -> WireEntry {
    let holder = item
        .payload
        .get(..4)
        .map(|b| u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
        .unwrap_or(u32::MAX);
    WireEntry {
        item: item.id.0,
        holder: PeerId(holder),
        version: item.version.0,
    }
}

/// Re-derives leaf-index entries from a recovered journal backend into a
/// node's protocol state — the live-deployment counterpart of
/// `pgrid_core::Peer::index_hosted_under`. Entries whose key falls outside
/// the node's current path are flagged misplaced so anti-entropy re-homes
/// them on later traffic. Returns how many entries were reseeded;
/// idempotent because `index_insert` dedups per `(item, holder)`.
pub fn reseed_from_journal(state: &Mutex<NodeState>, journal: &AnyBackend) -> usize {
    let mut guard = lock(state);
    let mut count = 0usize;
    journal.for_each(&mut |item| {
        let entry = journal_entry(&item);
        if !guard.responsible_for(&item.key) {
            guard.misplaced = true;
        }
        guard.index_insert(item.key, entry);
        count += 1;
    });
    count
}

/// The I/O shell around one [`ProtocolPeer`](pgrid_proto::ProtocolPeer):
/// decode, retransmission timers, failover. Generic over the transport seam
/// so the same shell runs thread-per-peer over [`LocalTransport`] mailboxes
/// *and* multiplexed inside the [`crate::TcpTransport`] event loop — the
/// two deployments differ only in who calls [`NodeRt::handle_message`] /
/// [`NodeRt::tick`], never in what they do.
pub(crate) struct NodeRt<T: Transport> {
    id: PeerId,
    state: Arc<Mutex<NodeState>>,
    config: NodeConfig,
    transport: T,
    /// All protocol randomness: seeded with the node seed, drawn from only
    /// inside [`NodeState::handle`].
    proto_rng: StdRng,
    /// All I/O randomness (retransmit jitter): a separate stream, so
    /// delivery timing never perturbs protocol draws.
    io_rng: StdRng,
    /// Events awaiting processing (failure signals and dead-end verdicts
    /// feed back here).
    inbox: VecDeque<Event>,
    /// Reused effect buffer for [`NodeState::handle`] calls.
    effects: Vec<Effect>,
    /// Reused scratch for expired-deadline collection in the tick path.
    expired: Vec<u64>,
    /// Ticks seen so far, for the periodic stabilization cadence.
    ticks: u64,
    pending_offers: HashMap<u64, IoOffer>,
    pending_forwards: HashMap<u64, IoForward>,
    pending_answers: HashMap<u64, IoAnswer>,
    pending_inserts: HashMap<u64, IoInsert>,
    /// Flight recorder shared between the protocol core (via [`ProtoCtx`])
    /// and the shell's own retransmit/timeout events. Observation only.
    tracer: Box<dyn Tracer>,
    /// Optional durable journal: [`Effect::StoreWrite`] appends here,
    /// flushed when the shell is dropped. `None` keeps the index purely in
    /// memory. Journaling is observation of the core's effect stream — it
    /// never changes a protocol decision or an RNG draw.
    journal: Option<AnyBackend>,
}

impl<T: Transport> Drop for NodeRt<T> {
    /// Flushes the journal on any exit path — clean shutdown, channel
    /// disconnect, or a worker dropping the shell. A flush failure cannot
    /// propagate out of drop; the backends' torn-tail recovery covers
    /// whatever an unflushed crash leaves behind.
    fn drop(&mut self) {
        if let Some(journal) = &mut self.journal {
            if let Err(e) = journal.flush() {
                if cfg!(debug_assertions) {
                    eprintln!("[pgrid-node] {}: journal flush failed: {e}", self.id);
                }
            }
        }
    }
}

impl<T: Transport> NodeRt<T> {
    pub(crate) fn new(
        state: Arc<Mutex<NodeState>>,
        config: NodeConfig,
        transport: T,
        seed: u64,
        journal: Option<AnyBackend>,
        tracer: Box<dyn Tracer>,
    ) -> Self {
        let id = {
            let mut guard = lock(&state);
            guard.recmax = config.recmax;
            guard.seed_sequence(seed);
            guard.id
        };
        NodeRt {
            id,
            state,
            config,
            transport,
            proto_rng: StdRng::seed_from_u64(seed),
            io_rng: StdRng::seed_from_u64(seed ^ IO_STREAM_SALT),
            inbox: VecDeque::new(),
            effects: Vec::new(),
            expired: Vec::new(),
            ticks: 0,
            pending_offers: HashMap::new(),
            pending_forwards: HashMap::new(),
            pending_answers: HashMap::new(),
            pending_inserts: HashMap::new(),
            tracer,
            journal,
        }
    }

    /// Records a shell-side event; the closure runs only when a real
    /// tracer is attached, so the untraced path constructs nothing.
    #[inline]
    fn trace(&mut self, event: impl FnOnce() -> TraceEvent) {
        if self.tracer.enabled() {
            self.tracer.record(event());
        }
    }

    /// The actor loop of a thread-hosted shell: frames from `rx` until
    /// [`Message::Shutdown`] arrives or the mailbox disappears.
    pub(crate) fn run(mut self, rx: Receiver<Frame>) {
        loop {
            match rx.recv_timeout(TICK) {
                Ok(frame) => {
                    if !self.handle_frame(frame) {
                        return;
                    }
                }
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => return,
            }
            self.tick(Instant::now());
        }
    }

    // ---- core plumbing -----------------------------------------------

    /// Feeds one event into the protocol core and applies every effect,
    /// including effects of the follow-up events those applications queue.
    fn deliver(&mut self, event: Event) {
        self.inbox.push_back(event);
        self.pump();
    }

    /// Drains the event inbox through the core (the tick path and nack
    /// failover push events directly, then pump).
    fn pump(&mut self) {
        while let Some(ev) = self.inbox.pop_front() {
            let mut out = std::mem::take(&mut self.effects);
            out.clear();
            {
                let mut guard = lock(&self.state);
                let mut ctx = ProtoCtx {
                    rng: &mut self.proto_rng,
                    tracer: &mut *self.tracer,
                };
                guard.handle(ev, &mut ctx, &mut out);
            }
            for effect in out.drain(..) {
                self.apply(effect);
            }
            self.effects = out;
        }
    }

    /// Maps one core effect onto the transport (and the retransmission
    /// maps). Failure signals go back into `inbox` as events.
    fn apply(&mut self, effect: Effect) {
        match effect {
            Effect::Send { to, msg } => {
                let _ = self.transport.dispatch(self.id, to, encode_frame(&msg));
            }
            Effect::SendOffer { to, id, msg } => {
                let frame = encode_frame(&msg);
                match self.transport.dispatch(self.id, to, frame.clone()) {
                    SendStatus::Delivered | SendStatus::Dropped => {
                        let deadline = Instant::now()
                            + self.config.exchange_retry.backoff(1, &mut self.io_rng);
                        self.pending_offers.insert(
                            id,
                            IoOffer {
                                target: to,
                                frame,
                                attempt: 1,
                                deadline,
                            },
                        );
                    }
                    SendStatus::Rejected => {
                        self.inbox.push_back(Event::OfferExpired { id });
                        self.inbox.push_back(Event::PeerSuspected { peer: to });
                    }
                    SendStatus::NoRoute => {
                        self.inbox.push_back(Event::OfferExpired { id });
                        self.inbox.push_back(Event::PeerGone { peer: to });
                    }
                }
            }
            Effect::SendAnswer { to, id, msg } => {
                let frame = encode_frame(&msg);
                let _ = self.transport.send(self.id, to, frame.clone());
                let deadline = Instant::now() + self.config.ack_retry.backoff(1, &mut self.io_rng);
                self.pending_answers.insert(
                    id,
                    IoAnswer {
                        to,
                        frame,
                        attempt: 1,
                        deadline,
                    },
                );
            }
            Effect::ForwardQuery {
                id,
                upstream,
                origin,
                candidates,
                msg,
            } => {
                let pf = IoForward {
                    upstream,
                    origin,
                    frame: encode_frame(&msg),
                    current: self.id,
                    rest: candidates,
                    attempt: 0,
                    deadline: Instant::now(),
                };
                self.drive_forward(id, pf);
            }
            Effect::ForwardInsert {
                seq,
                key,
                entry,
                candidates,
                msg,
            } => {
                let pi = IoInsert {
                    key,
                    entry,
                    frame: encode_frame(&msg),
                    current: self.id,
                    rest: candidates,
                    attempt: 0,
                    deadline: Instant::now(),
                };
                self.drive_insert(seq, pi);
            }
            // The core's index is authoritative in RAM; with a journal
            // attached, custody of an entry is also made durable so a
            // restart can reseed it (see `reseed_from_journal`).
            Effect::StoreWrite { key, entry } => {
                if let Some(journal) = &mut self.journal {
                    journal.put(journal_item(key, entry));
                }
            }
            // Timers are subsumed by the per-frame anti-entropy pass in
            // the core.
            Effect::SetTimer { .. } => {}
            Effect::PeerEvicted { .. } => self.transport.record_eviction(),
        }
    }

    /// The peer this shell drives.
    pub(crate) fn peer_id(&self) -> PeerId {
        self.id
    }

    /// Returns `false` when the node must shut down.
    pub(crate) fn handle_frame(&mut self, frame: Frame) -> bool {
        let mut buf = BytesMut::from(&frame.bytes[..]);
        let message = match decode_frame(&mut buf) {
            Ok(Some(m)) => m,
            Ok(None) | Err(_) => {
                // Malformed frame: count it and (in debug builds) say so
                // instead of dropping invisibly.
                self.transport.record_malformed();
                if cfg!(debug_assertions) {
                    eprintln!(
                        "[pgrid-node] {}: malformed frame from {} ({} bytes)",
                        self.id,
                        frame.from,
                        frame.bytes.len()
                    );
                }
                return true;
            }
        };
        self.handle_message(frame.from, message)
    }

    /// Feeds one already-decoded message into the shell. The TCP event loop
    /// decodes straight out of each connection's read accumulator and calls
    /// this, skipping the re-buffering `handle_frame` does; the protocol
    /// behavior is identical by construction. Returns `false` on shutdown.
    pub(crate) fn handle_message(&mut self, from: PeerId, message: Message) -> bool {
        match message {
            Message::Shutdown => return false,
            Message::Meet { with } => self.deliver(Event::Meet { with, depth: 0 }),
            Message::Ping { nonce } => {
                let _ =
                    self.transport
                        .dispatch(self.id, from, encode_frame(&Message::Pong { nonce }));
            }
            Message::Pong { .. } => {}
            Message::Ack { seq } => self.on_ack(from, seq),
            Message::Nack { seq } => self.on_nack(from, seq),
            Message::Query {
                id,
                origin,
                key,
                matched,
                ttl,
            } => self.deliver(Event::QueryReceived {
                from,
                id,
                origin,
                key,
                matched,
                ttl,
            }),
            Message::QueryOk { .. } | Message::QueryFail { .. } => {
                // Only the query origin consumes these; a node receives
                // them only if it was an origin, which live nodes are
                // not (clients are). Ignore.
            }
            Message::ExchangeOffer {
                id,
                depth,
                path,
                level_refs,
            } => self.deliver(Event::OfferReceived {
                from,
                id,
                depth,
                path,
                level_refs,
            }),
            Message::ExchangeAnswer {
                id,
                take_bit,
                adopt_refs,
                recurse_with,
                ..
            } => {
                // Stop retransmitting the offer; the core performs its own
                // (stricter) correlation checks.
                if self
                    .pending_offers
                    .get(&id)
                    .is_some_and(|p| p.target == from)
                {
                    self.pending_offers.remove(&id);
                }
                self.deliver(Event::AnswerReceived {
                    from,
                    id,
                    take_bit,
                    adopt_refs,
                    recurse_with,
                });
            }
            Message::ExchangeConfirm { path, .. } => {
                self.deliver(Event::ConfirmReceived { from, path })
            }
            Message::IndexInsert { seq, key, entry } => self.deliver(Event::InsertReceived {
                from,
                seq,
                key,
                entry,
            }),
        }
        true
    }

    // ---- acks --------------------------------------------------------

    fn on_ack(&mut self, from: PeerId, seq: u64) {
        if self
            .pending_forwards
            .get(&seq)
            .is_some_and(|p| p.current == from)
        {
            self.pending_forwards.remove(&seq);
        } else if self.pending_answers.get(&seq).is_some_and(|p| p.to == from) {
            self.pending_answers.remove(&seq);
        } else if self
            .pending_inserts
            .get(&seq)
            .is_some_and(|p| p.current == from)
        {
            self.pending_inserts.remove(&seq);
        }
        self.deliver(Event::PeerHeard { peer: from });
    }

    fn on_nack(&mut self, from: PeerId, seq: u64) {
        // A nack is a *response*: the peer is alive, it just can't help.
        self.deliver(Event::PeerHeard { peer: from });
        // Remove-then-reinsert instead of check-then-expect: a nack whose
        // seq matches but whose sender is stale must leave the entry alone,
        // and the I/O path must never be able to panic on a hostile frame.
        if let Some(p) = self.pending_forwards.remove(&seq) {
            if p.current == from {
                self.drive_forward(seq, p);
                self.pump();
                return;
            }
            self.pending_forwards.insert(seq, p);
        }
        if let Some(p) = self.pending_inserts.remove(&seq) {
            if p.current == from {
                self.drive_insert(seq, p);
                self.pump();
                return;
            }
            self.pending_inserts.insert(seq, p);
        }
    }

    // ---- transmission drivers ----------------------------------------

    /// Transmits a forwarded query to the next viable candidate; when all
    /// candidates are spent, the core issues the dead-end verdict.
    fn drive_forward(&mut self, qid: u64, mut pf: IoForward) {
        loop {
            if pf.rest.is_empty() {
                self.inbox.push_back(Event::ForwardDeadEnd {
                    id: qid,
                    upstream: pf.upstream,
                    origin: pf.origin,
                });
                return;
            }
            let next = pf.rest.remove(0);
            match self.transport.dispatch(self.id, next, pf.frame.clone()) {
                SendStatus::Delivered | SendStatus::Dropped => {
                    pf.current = next;
                    pf.attempt = 1;
                    pf.deadline =
                        Instant::now() + self.config.ack_retry.backoff(1, &mut self.io_rng);
                    self.pending_forwards.insert(qid, pf);
                    return;
                }
                SendStatus::Rejected => self.inbox.push_back(Event::PeerSuspected { peer: next }),
                SendStatus::NoRoute => self.inbox.push_back(Event::PeerGone { peer: next }),
            }
        }
    }

    /// Transmits a forwarded insert to the next viable candidate; when all
    /// are spent, the core keeps custody (stores the entry flagged
    /// misplaced) rather than losing it.
    fn drive_insert(&mut self, seq: u64, mut pi: IoInsert) {
        loop {
            if pi.rest.is_empty() {
                self.inbox.push_back(Event::InsertDeadEnd {
                    key: pi.key,
                    entry: pi.entry,
                });
                return;
            }
            let next = pi.rest.remove(0);
            match self.transport.dispatch(self.id, next, pi.frame.clone()) {
                SendStatus::Delivered | SendStatus::Dropped => {
                    pi.current = next;
                    pi.attempt = 1;
                    pi.deadline =
                        Instant::now() + self.config.ack_retry.backoff(1, &mut self.io_rng);
                    self.pending_inserts.insert(seq, pi);
                    return;
                }
                SendStatus::Rejected => self.inbox.push_back(Event::PeerSuspected { peer: next }),
                SendStatus::NoRoute => self.inbox.push_back(Event::PeerGone { peer: next }),
            }
        }
    }

    // ---- timers ------------------------------------------------------

    pub(crate) fn tick(&mut self, now: Instant) {
        self.tick_offers(now);
        self.tick_forwards(now);
        self.tick_answers(now);
        self.tick_inserts(now);
        self.ticks += 1;
        if self.ticks.is_multiple_of(STABILIZE_EVERY) {
            // Periodic self-audit. Skipped while the peer holds flagged
            // custody: re-homing those entries belongs to the anti-entropy
            // pass that every handled event already runs, and letting the
            // timer trigger it too would make the protocol's RNG draw
            // order depend on wall-clock tick alignment.
            if !lock(&self.state).misplaced {
                self.inbox.push_back(Event::TimerFired {
                    timer: TimerToken::Stabilize,
                });
            }
        }
        self.pump();
    }

    /// Collects the keys of expired entries into the reused scratch buffer
    /// (the tick path runs every few milliseconds; allocating a fresh Vec
    /// per tick showed up in profiles).
    fn collect_expired<P>(
        buf: &mut Vec<u64>,
        map: &HashMap<u64, P>,
        now: Instant,
        deadline: impl Fn(&P) -> Instant,
    ) {
        buf.clear();
        buf.extend(
            map.iter()
                .filter(|(_, p)| deadline(p) <= now)
                .map(|(&k, _)| k),
        );
    }

    fn tick_offers(&mut self, now: Instant) {
        let mut expired = std::mem::take(&mut self.expired);
        Self::collect_expired(&mut expired, &self.pending_offers, now, |p| p.deadline);
        for &xid in &expired {
            let Some(mut p) = self.pending_offers.remove(&xid) else {
                continue;
            };
            if p.attempt < self.config.exchange_retry.max_attempts {
                p.attempt += 1;
                self.transport.record_retry();
                self.trace(|| TraceEvent::Retransmit {
                    peer: u64::from(p.target.0),
                    op: OpTag::Offer,
                    attempt: p.attempt,
                });
                let _ = self.transport.send(self.id, p.target, p.frame.clone());
                p.deadline = now
                    + self
                        .config
                        .exchange_retry
                        .backoff(p.attempt, &mut self.io_rng);
                self.pending_offers.insert(xid, p);
            } else {
                self.transport.record_timeout();
                self.trace(|| TraceEvent::TimeoutGiveUp {
                    peer: u64::from(p.target.0),
                    op: OpTag::Offer,
                });
                self.inbox.push_back(Event::OfferExpired { id: xid });
                self.inbox
                    .push_back(Event::PeerSuspected { peer: p.target });
            }
        }
        self.expired = expired;
    }

    fn tick_forwards(&mut self, now: Instant) {
        let mut expired = std::mem::take(&mut self.expired);
        Self::collect_expired(&mut expired, &self.pending_forwards, now, |p| p.deadline);
        for &qid in &expired {
            let Some(mut p) = self.pending_forwards.remove(&qid) else {
                continue;
            };
            if p.attempt < self.config.ack_retry.max_attempts {
                p.attempt += 1;
                self.transport.record_retry();
                self.trace(|| TraceEvent::Retransmit {
                    peer: u64::from(p.current.0),
                    op: OpTag::Forward,
                    attempt: p.attempt,
                });
                let _ = self.transport.send(self.id, p.current, p.frame.clone());
                p.deadline = now + self.config.ack_retry.backoff(p.attempt, &mut self.io_rng);
                self.pending_forwards.insert(qid, p);
            } else {
                self.transport.record_timeout();
                self.trace(|| TraceEvent::TimeoutGiveUp {
                    peer: u64::from(p.current.0),
                    op: OpTag::Forward,
                });
                self.inbox
                    .push_back(Event::PeerSuspected { peer: p.current });
                self.drive_forward(qid, p);
            }
        }
        self.expired = expired;
    }

    fn tick_answers(&mut self, now: Instant) {
        let mut expired = std::mem::take(&mut self.expired);
        Self::collect_expired(&mut expired, &self.pending_answers, now, |p| p.deadline);
        for &qid in &expired {
            let Some(mut p) = self.pending_answers.remove(&qid) else {
                continue;
            };
            if p.attempt < self.config.ack_retry.max_attempts {
                p.attempt += 1;
                self.transport.record_retry();
                self.trace(|| TraceEvent::Retransmit {
                    peer: u64::from(p.to.0),
                    op: OpTag::Answer,
                    attempt: p.attempt,
                });
                let _ = self.transport.send(self.id, p.to, p.frame.clone());
                p.deadline = now + self.config.ack_retry.backoff(p.attempt, &mut self.io_rng);
                self.pending_answers.insert(qid, p);
            } else {
                // The origin is a client, not a routing-table member; no
                // demotion, the client's own query retry covers this.
                self.transport.record_timeout();
                self.trace(|| TraceEvent::TimeoutGiveUp {
                    peer: u64::from(p.to.0),
                    op: OpTag::Answer,
                });
            }
        }
        self.expired = expired;
    }

    fn tick_inserts(&mut self, now: Instant) {
        let mut expired = std::mem::take(&mut self.expired);
        Self::collect_expired(&mut expired, &self.pending_inserts, now, |p| p.deadline);
        for &seq in &expired {
            let Some(mut p) = self.pending_inserts.remove(&seq) else {
                continue;
            };
            if p.attempt < self.config.ack_retry.max_attempts {
                p.attempt += 1;
                self.transport.record_retry();
                self.trace(|| TraceEvent::Retransmit {
                    peer: u64::from(p.current.0),
                    op: OpTag::Insert,
                    attempt: p.attempt,
                });
                let _ = self.transport.send(self.id, p.current, p.frame.clone());
                p.deadline = now + self.config.ack_retry.backoff(p.attempt, &mut self.io_rng);
                self.pending_inserts.insert(seq, p);
            } else {
                self.transport.record_timeout();
                self.trace(|| TraceEvent::TimeoutGiveUp {
                    peer: u64::from(p.current.0),
                    op: OpTag::Insert,
                });
                self.inbox
                    .push_back(Event::PeerSuspected { peer: p.current });
                self.drive_insert(seq, p);
            }
        }
        self.expired = expired;
    }
}
