//! Protocol messages of the live peer.

use pgrid_keys::BitPath;
use pgrid_net::PeerId;

/// One leaf-index entry on the wire (mirrors `pgrid_core::IndexEntry`
/// structurally; the wire crate stays independent of the core crate).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WireEntry {
    /// Item id.
    pub item: u64,
    /// Hosting peer.
    pub holder: PeerId,
    /// Version number.
    pub version: u64,
}

/// The messages live peers exchange.
///
/// The search protocol forwards [`Message::Query`] hop by hop (each hop
/// re-routing by its own table) and the final responsible peer answers the
/// *origin* directly with [`Message::QueryOk`]. Construction uses an
/// offer/answer handshake: the initiator ships a digest of its state, the
/// responder (holding both states) computes the Fig. 3 case, applies its own
/// half and instructs the initiator with [`Message::ExchangeAnswer`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Message {
    /// Liveness probe.
    Ping {
        /// Echo nonce.
        nonce: u64,
    },
    /// Liveness answer.
    Pong {
        /// Echoed nonce.
        nonce: u64,
    },
    /// A routed query.
    Query {
        /// Correlation id (unique at the origin).
        id: u64,
        /// The peer to answer to.
        origin: PeerId,
        /// Remaining (unmatched) query key.
        key: BitPath,
        /// Bits of the *receiving* peer's path already matched.
        matched: u16,
        /// Remaining forwarding budget (hop TTL).
        ttl: u16,
    },
    /// Successful query answer, sent directly to the origin.
    QueryOk {
        /// Correlation id.
        id: u64,
        /// The responsible peer that answered.
        responsible: PeerId,
        /// Index entries for the queried key.
        entries: Vec<WireEntry>,
    },
    /// Query failure (no route / TTL exhausted), sent to the origin.
    QueryFail {
        /// Correlation id.
        id: u64,
    },
    /// Construction handshake: the initiator's state digest.
    ExchangeOffer {
        /// Correlation id.
        id: u64,
        /// Recursion depth of this exchange.
        depth: u8,
        /// Initiator's path.
        path: BitPath,
        /// Initiator's references per (1-based) level.
        level_refs: Vec<(u16, Vec<PeerId>)>,
    },
    /// Construction handshake: the responder's instructions.
    ExchangeAnswer {
        /// Correlation id.
        id: u64,
        /// Responder's path (after applying its half).
        responder_path: BitPath,
        /// Bit the initiator must append, if any.
        take_bit: Option<u8>,
        /// Reference sets per (1-based) level that the initiator unions
        /// into its own levels, evicting random references above `refmax`.
        adopt_refs: Vec<(u16, Vec<PeerId>)>,
        /// Peers the initiator should run recursive exchanges with.
        recurse_with: Vec<PeerId>,
    },
    /// Third leg of the exchange handshake: the initiator confirms the
    /// path it actually holds after applying the answer. Only now does the
    /// responder record references to the initiator — recording them at
    /// answer time races with concurrent exchanges at the initiator (it may
    /// have specialized differently in the meantime).
    ExchangeConfirm {
        /// Correlation id of the exchange.
        id: u64,
        /// The initiator's (authoritative) current path.
        path: BitPath,
    },
    /// Installs an index entry at a responsible peer.
    IndexInsert {
        /// Hop-level sequence number: the receiver acknowledges this frame
        /// with [`Message::Ack`] carrying the same `seq`. Each forwarding
        /// hop re-stamps its own sequence number.
        seq: u64,
        /// Key of the entry.
        key: BitPath,
        /// The entry.
        entry: WireEntry,
    },
    /// Control: instructs the receiving node to *initiate* an exchange
    /// with the given peer (the cluster driver's "you two just met").
    Meet {
        /// The peer to exchange with.
        with: PeerId,
    },
    /// Orderly shutdown of a node's event loop.
    Shutdown,
    /// Hop-level positive acknowledgement: the receiver accepted (and will
    /// process) the frame the sender stamped with `seq`. Retransmission
    /// timers for that frame stop on receipt.
    Ack {
        /// Sequence number being acknowledged.
        seq: u64,
    },
    /// Hop-level negative acknowledgement: the receiver saw the frame
    /// stamped `seq` but cannot make progress on it (e.g. a query hit a
    /// dead end). The sender should fail over to an alternate candidate
    /// immediately instead of waiting out its retransmit timer.
    Nack {
        /// Sequence number being refused.
        seq: u64,
    },
}

impl Message {
    /// The one-byte tag identifying the variant on the wire.
    pub fn tag(&self) -> u8 {
        match self {
            Message::Ping { .. } => 0,
            Message::Pong { .. } => 1,
            Message::Query { .. } => 2,
            Message::QueryOk { .. } => 3,
            Message::QueryFail { .. } => 4,
            Message::ExchangeOffer { .. } => 5,
            Message::ExchangeAnswer { .. } => 6,
            Message::IndexInsert { .. } => 7,
            Message::Shutdown => 8,
            Message::Meet { .. } => 9,
            Message::ExchangeConfirm { .. } => 10,
            Message::Ack { .. } => 11,
            Message::Nack { .. } => 12,
        }
    }
}
