//! The sans-I/O vocabulary: typed input events and output effects.
//!
//! A [`crate::ProtocolPeer`] consumes [`Event`]s and appends [`Effect`]s —
//! it never touches a socket, channel, clock, or thread. The driver, the
//! node shell of `pgrid-node`, owns all I/O: it maps frames onto events and
//! effects onto wire frames, a faulty transport, retransmission timers, and
//! candidate failover, over threads, sockets or a virtual clock.
//! Anything that can *observe* the outside world arrives as an event;
//! anything that can *affect* it leaves as an effect.

use pgrid_keys::BitPath;
use pgrid_net::PeerId;
use pgrid_wire::{Message, WireEntry};

/// Tokens naming the timers a peer may ask its driver to arm.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TimerToken {
    /// Retry re-homing index entries that had no route when they arrived.
    /// Drivers that already funnel a steady event stream through the peer
    /// may ignore this: anti-entropy also runs at the head of every
    /// [`crate::ProtocolPeer::handle`] call.
    AntiEntropy,
    /// Run one local self-stabilization pass when
    /// [`crate::ProtocolPeer::handle`] receives it: audit own state,
    /// correct what is locally correctable. A strict no-op — zero effects,
    /// zero RNG draws — when the state is already valid, so drivers may
    /// fire it on any cadence without perturbing a deterministic run.
    Stabilize,
    /// Run one local load-balancing pass when
    /// [`crate::ProtocolPeer::handle`] receives it: if the hosted index has
    /// outgrown the configured hot threshold, specialize one bit toward
    /// the heavier child and re-home what the longer path no longer
    /// covers. A strict no-op — zero effects, zero RNG draws — below the
    /// threshold, so drivers may fire it on any cadence.
    Balance,
}

/// One observed input to the protocol state machine.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Event {
    /// Driver steering: initiate an exchange with `with` at recursion
    /// depth `depth` (0 for a fresh meeting).
    Meet {
        /// The peer to send an offer to.
        with: PeerId,
        /// Recursion depth of the exchange about to start.
        depth: u8,
    },
    /// A [`Message::Query`] arrived.
    QueryReceived {
        /// The frame's sender (previous hop, or the origin itself).
        from: PeerId,
        /// Correlation id, unique at the origin.
        id: u64,
        /// The peer the final answer must go to.
        origin: PeerId,
        /// Remaining (unmatched) query key.
        key: BitPath,
        /// Bits of this peer's path already consumed upstream.
        matched: u16,
        /// Remaining hop budget.
        ttl: u16,
    },
    /// A [`Message::ExchangeOffer`] arrived — this peer is the responder.
    OfferReceived {
        /// The initiator.
        from: PeerId,
        /// Correlation id of the exchange.
        id: u64,
        /// Recursion depth the initiator stamped on the offer.
        depth: u8,
        /// The initiator's path.
        path: BitPath,
        /// The initiator's references per (1-based) level.
        level_refs: Vec<(u16, Vec<PeerId>)>,
    },
    /// A [`Message::ExchangeAnswer`] arrived — this peer initiated `id`.
    AnswerReceived {
        /// The responder.
        from: PeerId,
        /// Correlation id of the exchange.
        id: u64,
        /// Bit to append, if the responder's case assigned one.
        take_bit: Option<u8>,
        /// Reference sets to union in.
        adopt_refs: Vec<(u16, Vec<PeerId>)>,
        /// Peers to recursively exchange with.
        recurse_with: Vec<PeerId>,
    },
    /// A [`Message::ExchangeConfirm`] arrived — the initiator's
    /// authoritative path after applying an answer.
    ConfirmReceived {
        /// The initiator.
        from: PeerId,
        /// Its confirmed path.
        path: BitPath,
    },
    /// A [`Message::IndexInsert`] arrived.
    InsertReceived {
        /// The frame's sender (client or previous hop).
        from: PeerId,
        /// The sender's hop sequence number (to ack / dedup).
        seq: u64,
        /// Full key of the entry.
        key: BitPath,
        /// The entry.
        entry: WireEntry,
    },
    /// A driver timer fired.
    TimerFired {
        /// Which timer.
        timer: TimerToken,
    },
    /// The driver heard from `peer` (ack, nack, or any response proving it
    /// alive): clear its consecutive-failure count.
    PeerHeard {
        /// The responsive peer.
        peer: PeerId,
    },
    /// The driver's delivery to `peer` timed out or was rejected: one soft
    /// strike. After `suspect_after` consecutive strikes the peer is
    /// evicted ([`Effect::PeerEvicted`] reports it).
    PeerSuspected {
        /// The unresponsive peer.
        peer: PeerId,
    },
    /// The driver knows `peer` is definitively gone (no mailbox / closed
    /// endpoint): prune it everywhere at once.
    PeerGone {
        /// The departed peer.
        peer: PeerId,
    },
    /// The driver gave up on offer `id` (retransmit budget spent or the
    /// target unreachable): forget the pending exchange.
    OfferExpired {
        /// Correlation id of the abandoned offer.
        id: u64,
    },
    /// Every candidate of a [`Effect::ForwardQuery`] failed: the peer must
    /// issue the dead-end verdict (nack upstream, or fail to the origin).
    ForwardDeadEnd {
        /// Correlation id of the query.
        id: u64,
        /// Who handed the query to this peer.
        upstream: PeerId,
        /// The query's origin.
        origin: PeerId,
    },
    /// Every candidate of a [`Effect::ForwardInsert`] failed: the peer
    /// keeps custody (stores the entry flagged misplaced) so it is never
    /// lost.
    InsertDeadEnd {
        /// Full key of the entry.
        key: BitPath,
        /// The orphaned entry.
        entry: WireEntry,
    },
}

/// One instruction to the driver. Effects carry full [`Message`] values;
/// encoding them into frames (and any retransmission of those frames) is
/// the driver's business.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Effect {
    /// Fire-and-forget frame (acks, nacks, pongs, confirms, cached
    /// re-answers): losing it costs at most a retransmission elsewhere.
    Send {
        /// Recipient.
        to: PeerId,
        /// The message.
        msg: Message,
    },
    /// An exchange offer the driver should deliver and retransmit until
    /// its answer arrives (or its budget is spent — then feed back
    /// [`Event::OfferExpired`] plus [`Event::PeerSuspected`] /
    /// [`Event::PeerGone`]).
    SendOffer {
        /// The responder.
        to: PeerId,
        /// Correlation id (equals the id inside `msg`).
        id: u64,
        /// The [`Message::ExchangeOffer`].
        msg: Message,
    },
    /// A query answer the driver should deliver to the origin and
    /// retransmit until acked.
    SendAnswer {
        /// The origin.
        to: PeerId,
        /// Correlation id (equals the id inside `msg`).
        id: u64,
        /// The [`Message::QueryOk`] or [`Message::QueryFail`].
        msg: Message,
    },
    /// Forward a query along `candidates` (in preference order): deliver
    /// to the first viable one, fail over on nack/timeout, and feed back
    /// [`Event::ForwardDeadEnd`] when all are spent.
    ForwardQuery {
        /// Correlation id of the query.
        id: u64,
        /// Who handed the query to this peer (for the dead-end verdict).
        upstream: PeerId,
        /// The query's origin.
        origin: PeerId,
        /// Next-hop candidates, already shuffled.
        candidates: Vec<PeerId>,
        /// The re-stamped [`Message::Query`] to deliver.
        msg: Message,
    },
    /// Forward an index entry along `candidates`; feed back
    /// [`Event::InsertDeadEnd`] when all are spent.
    ForwardInsert {
        /// Fresh hop sequence number (equals the seq inside `msg`).
        seq: u64,
        /// Full key of the entry.
        key: BitPath,
        /// The entry.
        entry: WireEntry,
        /// Next-hop candidates, already shuffled.
        candidates: Vec<PeerId>,
        /// The re-stamped [`Message::IndexInsert`] to deliver.
        msg: Message,
    },
    /// The peer wrote `entry` under `key` into its local index (already
    /// applied — informational, for durable stores and logging).
    StoreWrite {
        /// Full key of the entry.
        key: BitPath,
        /// The entry written.
        entry: WireEntry,
    },
    /// Arm a timer (drivers with their own periodic processing may ignore
    /// this; see [`TimerToken`]).
    SetTimer {
        /// Which timer to arm.
        timer: TimerToken,
    },
    /// `peer` was evicted from the routing table after repeated suspected
    /// failures (drivers typically count this).
    PeerEvicted {
        /// The evicted peer.
        peer: PeerId,
    },
}
