//! The I/O shell of a live node: the one driver of the sans-I/O protocol
//! core, over every transport.
//!
//! Every protocol decision lives in [`pgrid_proto::ProtocolPeer`] — this
//! module owns only I/O: decoding frames into [`Event`]s, encoding
//! [`Effect`]s into frames, retransmission timers, candidate failover, and
//! the failure signals fed back as events. Because the core draws all its
//! randomness from one seeded stream (`proto_rng`) and the shell draws its
//! retransmit jitter from a *separate* stream (`io_rng`), a node's protocol
//! decisions are a pure function of its seed and event order — which is what
//! lets [`crate::SimTransport`] reproduce them on a virtual clock.
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
//!   frames wait in one pending table and are retransmitted with
//!   exponential backoff + jitter (`OFFER_RETRY`, `ACK_RETRY`) up to a
//!   bounded attempt count, then the sender **fails over** to the next
//!   candidate reference (queries/inserts) or gives up (offers, answers).
//!   A [`Message::Nack`] (downstream dead end) triggers the failover
//!   immediately.
//! * **Idempotent receipt** — handled *inside the core*: retransmitted
//!   queries, inserts, and exchange offers are deduplicated there, so replay
//!   never re-applies a non-idempotent transition.
//!
//! Delivery failures surface to the core as [`Event::PeerSuspected`] (soft
//! strike; eviction after repeated ones) or [`Event::PeerGone`] (no mailbox
//! at all: pruned on the spot).

use std::collections::{BTreeMap, VecDeque};
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

/// How an unanswered transmission (or a failed connect) is repeated:
/// `max_attempts` tries in total, the wait doubling after each, plus
/// uniform jitter to decorrelate competing retriers.
#[derive(Clone, Copy, Debug)]
pub(crate) struct RetryPolicy {
    /// Backoff after the first try, in milliseconds.
    pub(crate) base_ms: u64,
    /// Total tries (1 = no retry).
    pub(crate) max_attempts: u32,
    /// Upper bound of the uniform jitter added to every deadline.
    pub(crate) jitter_ms: u64,
}

impl RetryPolicy {
    /// The wait before declaring (1-based) try `attempt` lost:
    /// `base · 2^(attempt−1) + U(0, jitter)`, capped at 64×base.
    pub(crate) fn backoff(&self, attempt: u32, rng: &mut StdRng) -> Duration {
        let shift = attempt.saturating_sub(1).min(6);
        let jitter = if self.jitter_ms > 0 {
            rng.gen_range(0..=self.jitter_ms)
        } else {
            0
        };
        Duration::from_millis(self.base_ms.saturating_mul(1 << shift) + jitter)
    }
}

// Bases are far above the latency of one frame (microseconds), so a quiet
// fault-free network sees no retransmission. A loaded one does: on a clean
// 64-peer `TcpCluster`, offers answered late during construction bursts
// and inserts acked late during insert bursts are resent. Forwarded
// queries and answers were not. Receipt is idempotent (DESIGN.md §7).

/// Exchange offers, acked by their answer.
const OFFER_RETRY: RetryPolicy = RetryPolicy {
    base_ms: 120,
    max_attempts: 3,
    jitter_ms: 40,
};
/// Hop-acked frames: forwarded queries, query answers, forwarded inserts.
const ACK_RETRY: RetryPolicy = RetryPolicy {
    base_ms: 60,
    max_attempts: 3,
    jitter_ms: 20,
};

/// Event-loop wakeup period for timer processing (the socket workers tick
/// their shells on the same cadence).
pub(crate) const TICK: Duration = Duration::from_millis(5);
/// Ticks between periodic self-stabilization passes (~every 320 ms with
/// the 5 ms tick). The pass is a strict no-op — zero effects, zero RNG
/// draws — on a valid peer, so the cadence is free to be arbitrary.
const STABILIZE_EVERY: u64 = 64;
/// Stream separator between the protocol RNG and the I/O (jitter) RNG
/// derived from one node seed.
const IO_STREAM_SALT: u64 = 0x9e37_79b9_7f4a_7c15;

/// What a pending frame carries for the core, heard when its last
/// candidate gives up. The *protocol* state (an offer's path snapshot, a
/// query's dedup verdict) lives in the core.
enum Op {
    /// An exchange offer: the core hears `OfferExpired`, then a strike.
    Offer,
    /// A forwarded query: a strike per silent candidate, then
    /// `ForwardDeadEnd` with who handed it to us.
    Forward { upstream: PeerId, origin: PeerId },
    /// A query answer to its client: nothing (the client retries).
    Answer,
    /// A forwarded index entry: a strike per silent candidate, then
    /// `InsertDeadEnd`, so the core keeps custody instead of losing it.
    Insert { key: BitPath, entry: WireEntry },
}

impl Op {
    fn tag(&self) -> OpTag {
        match self {
            Op::Offer => OpTag::Offer,
            Op::Forward { .. } => OpTag::Forward,
            Op::Answer => OpTag::Answer,
            Op::Insert { .. } => OpTag::Insert,
        }
    }

    fn retry(&self) -> RetryPolicy {
        match self {
            Op::Offer => OFFER_RETRY,
            _ => ACK_RETRY,
        }
    }

    /// The verdict once every candidate is spent (forwards and inserts).
    fn dead_end(self, id: u64) -> Option<Event> {
        match self {
            Op::Forward { upstream, origin } => Some(Event::ForwardDeadEnd {
                id,
                upstream,
                origin,
            }),
            Op::Insert { key, entry } => Some(Event::InsertDeadEnd { key, entry }),
            Op::Offer | Op::Answer => None,
        }
    }
}

/// One frame in flight awaiting its ack (or, for an offer, its answer):
/// the encoded bytes, the hop it went to, the candidates left for
/// failover, and its retransmit schedule.
struct Pending {
    op: Op,
    to: PeerId,
    frame: Bytes,
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
/// so the same shell runs inside the [`crate::TcpTransport`] event loop and
/// on the caller's thread over [`crate::SimTransport`] — they differ only in
/// who calls [`NodeRt::handle_message`] / [`NodeRt::tick`] and with which
/// clock.
pub(crate) struct NodeRt<T: Transport> {
    id: PeerId,
    state: Arc<Mutex<NodeState>>,
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
    expired: Vec<(OpTag, u64)>,
    /// Ticks seen so far, for the periodic stabilization cadence.
    ticks: u64,
    /// Every frame awaiting its ack, by operation and correlation id
    /// (offer xid, query id, insert seq). Ordered, so the expiries of one
    /// tick run op-major, then by id, on every run.
    pending: BTreeMap<(OpTag, u64), Pending>,
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
        transport: T,
        seed: u64,
        journal: Option<AnyBackend>,
        tracer: Box<dyn Tracer>,
    ) -> Self {
        let id = {
            let mut guard = lock(&state);
            guard.seed_sequence(seed);
            guard.id
        };
        NodeRt {
            id,
            state,
            transport,
            proto_rng: StdRng::seed_from_u64(seed),
            io_rng: StdRng::seed_from_u64(seed ^ IO_STREAM_SALT),
            inbox: VecDeque::new(),
            effects: Vec::new(),
            expired: Vec::new(),
            ticks: 0,
            pending: BTreeMap::new(),
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

    /// Maps one core effect onto the transport (and the pending table).
    /// Failure signals go back into `inbox` as events.
    fn apply(&mut self, effect: Effect) {
        match effect {
            Effect::Send { to, msg } => {
                let _ = self.transport.dispatch(self.id, to, encode_frame(&msg));
            }
            Effect::SendOffer { to, id, msg } => {
                let frame = encode_frame(&msg);
                match self.transport.dispatch(self.id, to, frame.clone()) {
                    SendStatus::Delivered | SendStatus::Dropped => {
                        self.track(id, Op::Offer, to, frame, Vec::new());
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
                self.track(id, Op::Answer, to, frame, Vec::new());
            }
            Effect::ForwardQuery {
                id,
                upstream,
                origin,
                candidates,
                msg,
            } => {
                let op = Op::Forward { upstream, origin };
                self.fail_over(id, op, encode_frame(&msg), candidates);
            }
            Effect::ForwardInsert {
                seq,
                key,
                entry,
                candidates,
                msg,
            } => {
                let op = Op::Insert { key, entry };
                self.fail_over(seq, op, encode_frame(&msg), candidates);
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
                self.take(OpTag::Offer, id, from);
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

    // ---- the pending table -------------------------------------------

    /// Removes the entry under `(op, id)` if its current hop is `from`. An
    /// ack or nack from anyone else — a hop we already failed over from —
    /// leaves it alone.
    fn take(&mut self, op: OpTag, id: u64, from: PeerId) -> Option<Pending> {
        if self.pending.get(&(op, id))?.to != from {
            return None;
        }
        self.pending.remove(&(op, id))
    }

    fn on_ack(&mut self, from: PeerId, seq: u64) {
        for op in [OpTag::Forward, OpTag::Answer, OpTag::Insert] {
            if self.take(op, seq, from).is_some() {
                break;
            }
        }
        self.deliver(Event::PeerHeard { peer: from });
    }

    fn on_nack(&mut self, from: PeerId, seq: u64) {
        // A nack is a *response*: the peer is alive, it just can't help.
        self.deliver(Event::PeerHeard { peer: from });
        for op in [OpTag::Forward, OpTag::Insert] {
            if let Some(p) = self.take(op, seq, from) {
                self.fail_over(seq, p.op, p.frame, p.rest);
                self.pump();
                return;
            }
        }
    }

    /// Starts the retransmit schedule of `frame`, just transmitted to `to`.
    fn track(&mut self, id: u64, op: Op, to: PeerId, frame: Bytes, rest: Vec<PeerId>) {
        let deadline = self.transport.now() + op.retry().backoff(1, &mut self.io_rng);
        let pending = Pending {
            op,
            to,
            frame,
            rest,
            attempt: 1,
            deadline,
        };
        self.pending.insert((pending.op.tag(), id), pending);
    }

    /// Transmits a forwarded query or insert to the next viable candidate;
    /// when all candidates are spent, the core hears the dead end.
    fn fail_over(&mut self, id: u64, op: Op, frame: Bytes, mut rest: Vec<PeerId>) {
        while !rest.is_empty() {
            let next = rest.remove(0);
            match self.transport.dispatch(self.id, next, frame.clone()) {
                SendStatus::Delivered | SendStatus::Dropped => {
                    return self.track(id, op, next, frame, rest);
                }
                SendStatus::Rejected => self.inbox.push_back(Event::PeerSuspected { peer: next }),
                SendStatus::NoRoute => self.inbox.push_back(Event::PeerGone { peer: next }),
            }
        }
        self.inbox.extend(op.dead_end(id));
    }

    // ---- timers ------------------------------------------------------

    pub(crate) fn tick(&mut self, now: Instant) {
        self.retransmit(now);
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

    /// Retransmits every pending frame whose deadline has passed, or gives
    /// it up once its budget is spent. The keys are collected into reused
    /// scratch first (the tick path runs every few milliseconds; allocating
    /// per tick showed up in profiles), in table order.
    fn retransmit(&mut self, now: Instant) {
        let mut expired = std::mem::take(&mut self.expired);
        expired.clear();
        expired.extend(
            self.pending
                .iter()
                .filter(|(_, p)| p.deadline <= now)
                .map(|(&key, _)| key),
        );
        for &(op, id) in &expired {
            let Some(mut p) = self.pending.remove(&(op, id)) else {
                continue;
            };
            let retry = p.op.retry();
            if p.attempt < retry.max_attempts {
                p.attempt += 1;
                self.transport.record_retry();
                self.trace(|| TraceEvent::Retransmit {
                    peer: u64::from(p.to.0),
                    op,
                    attempt: p.attempt,
                });
                let _ = self.transport.send(self.id, p.to, p.frame.clone());
                p.deadline = now + retry.backoff(p.attempt, &mut self.io_rng);
                self.pending.insert((op, id), p);
                continue;
            }
            self.transport.record_timeout();
            self.trace(|| TraceEvent::TimeoutGiveUp {
                peer: u64::from(p.to.0),
                op,
            });
            match p.op {
                Op::Offer => {
                    self.inbox.push_back(Event::OfferExpired { id });
                    self.inbox.push_back(Event::PeerSuspected { peer: p.to });
                }
                // The origin is a client, not a routing-table member; no
                // demotion, the client's own query retry covers this.
                Op::Answer => {}
                Op::Forward { .. } | Op::Insert { .. } => {
                    self.inbox.push_back(Event::PeerSuspected { peer: p.to });
                    self.fail_over(id, p.op, p.frame, p.rest);
                }
            }
        }
        self.expired = expired;
    }
}

#[cfg(test)]
mod tests {
    //! The retransmission contract of the shell, driven without threads:
    //! one [`NodeRt`] on the virtual clock whose other parties are client
    //! endpoints that never answer, advanced by synthetic `tick` instants
    //! seconds apart so every deadline set so far has passed, and observed
    //! through those endpoints, the transport counters, the core's failure
    //! strikes and a recording tracer.

    use super::*;
    use crate::SimTransport;
    use pgrid_trace::RingTracer;
    use std::collections::HashMap;
    use std::sync::mpsc::Receiver;

    const NODE: PeerId = PeerId(0);
    const A: PeerId = PeerId(1);
    const B: PeerId = PeerId(2);
    const C: PeerId = PeerId(3);
    const CLIENT: PeerId = PeerId(9);

    struct Rig {
        rt: NodeRt<SimTransport>,
        transport: SimTransport,
        state: Arc<Mutex<NodeState>>,
        endpoints: HashMap<PeerId, Receiver<(PeerId, Message)>>,
        t0: Instant,
    }

    /// A node on path `path` with `refs[i]` at level `i + 1`; every other
    /// party is a client endpoint that never answers. The shell is not
    /// hosted: the test calls it directly, and the virtual clock stays at
    /// its start.
    fn rig(path: &str, refs: Vec<Vec<PeerId>>) -> Rig {
        let transport = SimTransport::new();
        let mut peer = NodeState::new(NODE, 4, 2, 2);
        peer.path = path.parse().unwrap();
        peer.refs = refs.into_iter().collect();
        let state = Arc::new(Mutex::new(peer));
        let endpoints = [A, B, C, CLIENT]
            .into_iter()
            .map(|p| (p, transport.open_client(p)))
            .collect();
        let rt = NodeRt::new(
            Arc::clone(&state),
            transport.clone(),
            5,
            None,
            Box::new(RingTracer::new(4096)),
        );
        let t0 = transport.now();
        Rig {
            rt,
            transport,
            state,
            endpoints,
            t0,
        }
    }

    impl Rig {
        /// Ticks `secs` seconds after the rig was built: past every
        /// deadline (the longest backoff is well under a second).
        fn tick_at(&mut self, secs: u64) {
            self.rt.tick(self.t0 + Duration::from_secs(secs));
        }

        /// Delivers every queued frame without moving the clock, then
        /// drains what `peer`'s endpoint holds.
        fn frames(&self, peer: PeerId) -> Vec<Message> {
            self.transport.advance(Duration::ZERO);
            self.endpoints[&peer].try_iter().map(|(_, m)| m).collect()
        }

        /// The retransmission-relevant trace: shell retransmits and
        /// give-ups, core strikes, and applied exchange answers.
        fn trace(&mut self) -> Vec<TraceEvent> {
            self.rt
                .tracer
                .take_events()
                .into_iter()
                .map(|s| s.event)
                .filter(|e| {
                    matches!(
                        e,
                        TraceEvent::Retransmit { .. }
                            | TraceEvent::TimeoutGiveUp { .. }
                            | TraceEvent::PeerDemoted { .. }
                            | TraceEvent::AnswerApplied { .. }
                    )
                })
                .collect()
        }

        fn strikes(&self, peer: PeerId) -> u32 {
            lock(&self.state).failures.get(&peer).copied().unwrap_or(0)
        }

        fn counters(&self) -> (u64, u64) {
            let s = self.transport.net_stats();
            (s.retries, s.timeouts)
        }

        fn query(&mut self, id: u64, key: &str) {
            self.rt.handle_message(
                CLIENT,
                Message::Query {
                    id,
                    origin: CLIENT,
                    key: key.parse().unwrap(),
                    matched: 0,
                    ttl: 8,
                },
            );
        }

        /// Sends query `id` for a key on the far side of level 1 and
        /// returns the candidate that got the first transmission, then the
        /// other one.
        fn forward(&mut self, id: u64) -> (PeerId, PeerId) {
            self.query(id, "1000");
            let (a, b) = (self.frames(A).len(), self.frames(B).len());
            assert_eq!(a + b, 1, "exactly one candidate gets the first frame");
            if a == 1 {
                (A, B)
            } else {
                (B, A)
            }
        }
    }

    fn retransmit(peer: PeerId, op: OpTag, attempt: u32) -> TraceEvent {
        TraceEvent::Retransmit {
            peer: u64::from(peer.0),
            op,
            attempt,
        }
    }

    fn give_up(peer: PeerId, op: OpTag) -> TraceEvent {
        TraceEvent::TimeoutGiveUp {
            peer: u64::from(peer.0),
            op,
        }
    }

    fn demoted(peer: PeerId, failures: u32) -> TraceEvent {
        TraceEvent::PeerDemoted {
            peer: u64::from(peer.0),
            failures,
        }
    }

    #[test]
    fn offer_to_silent_peer_expires_after_three_transmissions() {
        let mut rig = rig("", Vec::new());
        rig.rt.handle_message(CLIENT, Message::Meet { with: A });
        let first = rig.frames(A);
        let [Message::ExchangeOffer { id: xid, .. }] = first[..] else {
            panic!("one offer expected, got {first:?}");
        };
        for k in 1..=4 {
            rig.tick_at(k);
        }
        let resent = rig.frames(A);
        assert_eq!(resent.len(), 2, "three transmissions in total");
        assert!(resent
            .iter()
            .all(|m| matches!(m, Message::ExchangeOffer { id, .. } if *id == xid)));
        assert_eq!(
            rig.trace(),
            vec![
                retransmit(A, OpTag::Offer, 2),
                retransmit(A, OpTag::Offer, 3),
                give_up(A, OpTag::Offer),
                demoted(A, 1),
            ]
        );
        assert_eq!(rig.strikes(A), 1);
        assert_eq!(rig.counters(), (2, 1));
        // The core heard `OfferExpired`: a late answer is unsolicited, so
        // it is neither applied nor confirmed.
        rig.rt.handle_message(
            A,
            Message::ExchangeAnswer {
                id: xid,
                responder_path: BitPath::EMPTY,
                take_bit: None,
                adopt_refs: Vec::new(),
                recurse_with: Vec::new(),
            },
        );
        assert!(rig.frames(A).is_empty());
        assert!(rig.trace().is_empty());
    }

    #[test]
    fn forward_over_two_silent_candidates_fails_to_the_client() {
        let mut rig = rig("0", vec![vec![A, B]]);
        let (first, second) = rig.forward(7);
        for k in 1..=3 {
            rig.tick_at(k);
        }
        assert_eq!(rig.frames(first).len(), 2);
        assert_eq!(rig.frames(second).len(), 1, "failover right at give-up");
        for k in 4..=6 {
            rig.tick_at(k);
        }
        assert_eq!(rig.frames(second).len(), 2);
        assert!(rig.frames(first).is_empty());
        assert_eq!(rig.frames(CLIENT), vec![Message::QueryFail { id: 7 }]);
        assert_eq!(
            rig.trace(),
            vec![
                retransmit(first, OpTag::Forward, 2),
                retransmit(first, OpTag::Forward, 3),
                give_up(first, OpTag::Forward),
                demoted(first, 1),
                retransmit(second, OpTag::Forward, 2),
                retransmit(second, OpTag::Forward, 3),
                give_up(second, OpTag::Forward),
                demoted(second, 1),
            ]
        );
        assert_eq!((rig.strikes(A), rig.strikes(B)), (1, 1));
        assert_eq!(rig.counters(), (4, 2));
    }

    #[test]
    fn nack_from_current_hop_fails_over_at_once() {
        let mut rig = rig("0", vec![vec![A, B]]);
        let (first, second) = rig.forward(7);
        rig.rt.handle_message(first, Message::Nack { seq: 7 });
        let next = rig.frames(second);
        assert!(
            matches!(next[..], [Message::Query { id: 7, .. }]),
            "{next:?}"
        );
        assert_eq!(rig.strikes(first), 0, "a nack is a sign of life");
        assert_eq!(rig.counters(), (0, 0));
        // The pending entry now belongs to the second hop.
        rig.tick_at(1);
        assert!(rig.frames(first).is_empty());
        assert_eq!(rig.frames(second).len(), 1);
    }

    #[test]
    fn nack_or_ack_from_stale_sender_changes_nothing() {
        let mut rig = rig("0", vec![vec![A, B]]);
        let (first, second) = rig.forward(7);
        rig.rt.handle_message(second, Message::Nack { seq: 7 });
        rig.rt.handle_message(second, Message::Ack { seq: 7 });
        assert!(rig.frames(second).is_empty());
        rig.tick_at(1);
        assert_eq!(rig.frames(first).len(), 1, "still pending on the first hop");
        assert!(rig.frames(second).is_empty());
        assert_eq!(rig.trace(), vec![retransmit(first, OpTag::Forward, 2)]);
        assert_eq!(rig.counters(), (1, 0));
    }

    #[test]
    fn answer_to_silent_client_is_sent_three_times_without_a_strike() {
        let mut rig = rig("0", vec![vec![A, B]]);
        rig.query(7, "0100");
        for k in 1..=4 {
            rig.tick_at(k);
        }
        let answers = rig.frames(CLIENT);
        assert_eq!(answers.len(), 3);
        assert!(answers
            .iter()
            .all(|m| matches!(m, Message::QueryOk { id: 7, .. })));
        assert_eq!(
            rig.trace(),
            vec![
                retransmit(CLIENT, OpTag::Answer, 2),
                retransmit(CLIENT, OpTag::Answer, 3),
                give_up(CLIENT, OpTag::Answer),
            ]
        );
        assert_eq!(rig.strikes(CLIENT), 0);
        assert_eq!(rig.counters(), (2, 1));
    }

    #[test]
    fn expiries_of_one_tick_run_op_major_then_by_id() {
        // Level 1 routes to A, level 2 to B: the two forwards go to
        // different hops, so their retransmits tell them apart.
        let mut rig = rig("00", vec![vec![A], vec![B]]);
        rig.query(9, "1000");
        rig.query(8, "0100");
        rig.rt.handle_message(CLIENT, Message::Meet { with: C });
        rig.tick_at(1);
        assert_eq!(
            rig.trace(),
            vec![
                retransmit(C, OpTag::Offer, 2),
                retransmit(B, OpTag::Forward, 2),
                retransmit(A, OpTag::Forward, 2),
            ]
        );
    }

    #[test]
    fn insert_over_silent_candidates_ends_in_misplaced_custody() {
        let mut rig = rig("0", vec![vec![A, B]]);
        let key: BitPath = "1010".parse().unwrap();
        let entry = WireEntry {
            item: 42,
            holder: CLIENT,
            version: 1,
        };
        rig.rt
            .handle_message(CLIENT, Message::IndexInsert { seq: 3, key, entry });
        assert_eq!(rig.frames(CLIENT), vec![Message::Ack { seq: 3 }]);
        for k in 1..=6 {
            rig.tick_at(k);
        }
        let (a, b) = (rig.frames(A), rig.frames(B));
        assert_eq!((a.len(), b.len()), (3, 3));
        assert!(a
            .iter()
            .chain(&b)
            .all(|m| matches!(m, Message::IndexInsert { key: k, entry: e, .. } if *k == key && *e == entry)));
        assert_eq!(rig.counters(), (4, 2));
        assert_eq!((rig.strikes(A), rig.strikes(B)), (1, 1));
        let guard = lock(&rig.state);
        assert!(guard.misplaced);
        assert_eq!(guard.index_lookup(&key), &[entry]);
    }
}
