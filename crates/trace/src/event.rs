//! Typed trace events and their stable JSONL encoding.

use crate::json::{parse_flat, write_str, JsonVal};
use crate::tracer::Stamped;

/// Mirror of `pgrid_net::MsgKind`, defined here so the trace crate stays at
/// the bottom of the dependency stack (net implements the conversion).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum MsgTag {
    /// Construction exchange (Fig. 3 handshake or simulator pair).
    Exchange,
    /// Fig. 2 query descent hop.
    Query,
    /// Insert/update propagation to replicas.
    Update,
    /// Flooding baseline traffic.
    Flood,
    /// Control-plane traffic (acks, probes).
    Control,
}

impl MsgTag {
    /// All tags, in the same order as `MsgKind::ALL`.
    pub const ALL: [MsgTag; 5] = [
        MsgTag::Exchange,
        MsgTag::Query,
        MsgTag::Update,
        MsgTag::Flood,
        MsgTag::Control,
    ];

    /// Stable index into per-kind count arrays.
    pub fn idx(self) -> usize {
        match self {
            MsgTag::Exchange => 0,
            MsgTag::Query => 1,
            MsgTag::Update => 2,
            MsgTag::Flood => 3,
            MsgTag::Control => 4,
        }
    }

    /// Stable wire name.
    pub fn name(self) -> &'static str {
        match self {
            MsgTag::Exchange => "exchange",
            MsgTag::Query => "query",
            MsgTag::Update => "update",
            MsgTag::Flood => "flood",
            MsgTag::Control => "control",
        }
    }

    /// Inverse of [`MsgTag::name`].
    pub fn from_name(name: &str) -> Option<MsgTag> {
        MsgTag::ALL.into_iter().find(|t| t.name() == name)
    }
}

/// Mirror of `pgrid_proto::ExchangeCase` (Fig. 3 classification).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CaseTag {
    /// Both peers at the common prefix: split one bit each way.
    Split,
    /// Identical paths: become replicas, adopt buddies.
    Replicas,
    /// First peer's path extends the second's: second specializes.
    FirstSpecializes,
    /// Second peer's path extends the first's: first specializes.
    SecondSpecializes,
    /// Paths diverge below the common prefix: recurse via references.
    Diverged,
    /// At least one peer is at maximum depth: nothing to do.
    Saturated,
}

impl CaseTag {
    /// Stable wire name.
    pub fn name(self) -> &'static str {
        match self {
            CaseTag::Split => "split",
            CaseTag::Replicas => "replicas",
            CaseTag::FirstSpecializes => "first_specializes",
            CaseTag::SecondSpecializes => "second_specializes",
            CaseTag::Diverged => "diverged",
            CaseTag::Saturated => "saturated",
        }
    }

    /// Inverse of [`CaseTag::name`].
    pub fn from_name(name: &str) -> Option<CaseTag> {
        [
            CaseTag::Split,
            CaseTag::Replicas,
            CaseTag::FirstSpecializes,
            CaseTag::SecondSpecializes,
            CaseTag::Diverged,
            CaseTag::Saturated,
        ]
        .into_iter()
        .find(|c| c.name() == name)
    }
}

/// Which pending live-node operation a retransmission/timeout refers to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum OpTag {
    /// An exchange offer awaiting its answer.
    Offer,
    /// A forwarded query awaiting its ack.
    Forward,
    /// A query answer awaiting its ack.
    Answer,
    /// An insert awaiting its ack.
    Insert,
}

impl OpTag {
    /// Stable wire name.
    pub fn name(self) -> &'static str {
        match self {
            OpTag::Offer => "offer",
            OpTag::Forward => "forward",
            OpTag::Answer => "answer",
            OpTag::Insert => "insert",
        }
    }

    /// Inverse of [`OpTag::name`].
    pub fn from_name(name: &str) -> Option<OpTag> {
        [OpTag::Offer, OpTag::Forward, OpTag::Answer, OpTag::Insert]
            .into_iter()
            .find(|o| o.name() == name)
    }
}

/// Mirror of `pgrid_core::Violation`'s classes (`kind_name` strings),
/// defined here so the stabilizer's corrective steps trace as typed tags.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ViolationTag {
    /// Path longer than `maxl`.
    PathTooLong,
    /// Non-empty reference level beyond the path.
    BeyondPath,
    /// More than `refmax` references at one level.
    Overfull,
    /// A peer referencing itself.
    SelfRef,
    /// A reference whose target's path does not reach the level.
    ShallowRef,
    /// A reference disagreeing on the shared prefix.
    PrefixMismatch,
    /// A reference on the same side of the level's bit.
    SameSide,
    /// A buddy with a different path.
    ReplicaMismatch,
    /// A hosted index entry outside the peer's path.
    ForeignEntry,
}

impl ViolationTag {
    /// All tags, in audit order.
    pub const ALL: [ViolationTag; 9] = [
        ViolationTag::PathTooLong,
        ViolationTag::BeyondPath,
        ViolationTag::Overfull,
        ViolationTag::SelfRef,
        ViolationTag::ShallowRef,
        ViolationTag::PrefixMismatch,
        ViolationTag::SameSide,
        ViolationTag::ReplicaMismatch,
        ViolationTag::ForeignEntry,
    ];

    /// Stable wire name — identical to `Violation::kind_name`, so traces
    /// and audit reports reconcile textually.
    pub fn name(self) -> &'static str {
        match self {
            ViolationTag::PathTooLong => "path_too_long",
            ViolationTag::BeyondPath => "beyond_path",
            ViolationTag::Overfull => "overfull",
            ViolationTag::SelfRef => "self_ref",
            ViolationTag::ShallowRef => "shallow_ref",
            ViolationTag::PrefixMismatch => "prefix_mismatch",
            ViolationTag::SameSide => "same_side",
            ViolationTag::ReplicaMismatch => "replica_mismatch",
            ViolationTag::ForeignEntry => "foreign_entry",
        }
    }

    /// Inverse of [`ViolationTag::name`].
    pub fn from_name(name: &str) -> Option<ViolationTag> {
        ViolationTag::ALL.into_iter().find(|v| v.name() == name)
    }
}

/// One recorded protocol decision. Fields are integers, bools, tags, and
/// bit strings only — never floats or wall-clock times — so encoded traces
/// are byte-identical across reruns.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TraceEvent {
    /// One protocol message charged to `NetStats` (mirrors every
    /// `stats.record(kind)` on a traced path, for exact reconciliation).
    Message {
        /// Message kind, mirroring `MsgKind`.
        kind: MsgTag,
    },
    /// A Fig. 2 query descent begins.
    QueryStart {
        /// Peer the query was posed to.
        start: u64,
        /// Queried key as a bit string.
        key: String,
    },
    /// One Fig. 2 `route_step` decision during a descent.
    RouteStep {
        /// Peer making the decision.
        peer: u64,
        /// Prefix bits already matched before this step.
        matched: u32,
        /// Bits of the key consumed by this peer's path.
        consumed: u32,
        /// Routing level the references were taken from.
        level: u32,
        /// Whether this peer is responsible for the key.
        responsible: bool,
        /// Candidate references at that level (before shuffling).
        candidates: u32,
        /// Index of this shuffle in the descent's RNG-draw order (the n-th
        /// time the descent consumed randomness), for divergence hunting.
        draw: u64,
    },
    /// One realized query hop (`from` successfully contacted `to`).
    QueryHop {
        /// Forwarding peer.
        from: u64,
        /// Contacted reference.
        to: u64,
        /// Recursion depth of the hop.
        depth: u32,
    },
    /// A query descent ended.
    QueryEnd {
        /// Responsible peer, or `-1` when the search failed.
        responsible: i64,
        /// Query messages charged during the descent.
        messages: u64,
        /// Hop count of the successful path (0 when failed).
        hops: u32,
    },
    /// A construction exchange classified into its Fig. 3 case.
    Exchange {
        /// First participant.
        first: u64,
        /// Second participant.
        second: u64,
        /// Classified case.
        case: CaseTag,
        /// Common prefix length at classification time.
        lc: u32,
        /// Bit taken by the first peer on a split, else `-1`.
        bit_first: i8,
        /// Bit taken by the second peer on a split, else `-1`.
        bit_second: i8,
    },
    /// One replica contacted while fanning out an insert/update.
    ReplicaFanout {
        /// Replica peer contacted.
        replica: u64,
        /// `true` for an update to an existing item, `false` for an insert.
        update: bool,
    },
    /// Live node: an exchange offer was classified and answered.
    OfferAnswered {
        /// Initiating peer.
        peer: u64,
        /// Exchange id of the handshake.
        xid: u64,
        /// Classified case (from the responder's perspective).
        case: CaseTag,
        /// Common prefix length at classification time.
        lc: u32,
    },
    /// Live node: an exchange answer arrived for a pending offer.
    AnswerApplied {
        /// Responding peer.
        peer: u64,
        /// Exchange id of the handshake.
        xid: u64,
        /// `true` when the answer was dropped as stale (path moved on).
        stale: bool,
    },
    /// Live node: an exchange confirm closed the handshake.
    ConfirmApplied {
        /// Confirming peer.
        peer: u64,
    },
    /// Live node: a pending operation was retransmitted.
    Retransmit {
        /// Peer the frame was re-sent to.
        peer: u64,
        /// Which pending operation.
        op: OpTag,
        /// Attempt number after the retransmission.
        attempt: u32,
    },
    /// Live node: a pending operation exhausted its retry budget.
    TimeoutGiveUp {
        /// Peer that never answered.
        peer: u64,
        /// Which pending operation.
        op: OpTag,
    },
    /// A peer failure was noted (one step toward eviction).
    PeerDemoted {
        /// Suspected peer.
        peer: u64,
        /// Consecutive failures recorded so far.
        failures: u32,
    },
    /// A reference was evicted after repeated failures.
    PeerEvicted {
        /// Evicted peer.
        peer: u64,
    },
    /// The local audit found a violated validity condition.
    ViolationFound {
        /// The audited peer.
        peer: u64,
        /// Violation class.
        kind: ViolationTag,
        /// Routing level involved (0 when not level-scoped).
        level: u32,
    },
    /// The stabilizer evicted an inconsistent reference.
    RefEvicted {
        /// The repairing peer.
        peer: u64,
        /// The level the reference was evicted from.
        level: u32,
        /// The evicted reference.
        target: u64,
    },
    /// The stabilizer replaced a corrupt path (truncation or re-derivation
    /// from hosted data).
    PathRederived {
        /// The repairing peer.
        peer: u64,
        /// Path length before the correction.
        from_len: u32,
        /// Path length after the correction.
        to_len: u32,
    },
    /// The stabilizer moved (or kept custody of) an orphaned index entry.
    EntryRehomed {
        /// The peer that held the orphan.
        peer: u64,
        /// Destination peer, or `-1` when custody was kept (flagged
        /// misplaced, pending anti-entropy).
        to: i64,
        /// The entry's key as a bit string.
        key: String,
    },
    /// The stabilizer dropped a buddy whose path disagrees.
    BuddyDropped {
        /// The repairing peer.
        peer: u64,
        /// The dropped buddy.
        buddy: u64,
    },
    /// One stabilization round over the community completed.
    StabilizeRound {
        /// Violations detected this round.
        violations: u64,
        /// Corrective actions applied this round.
        corrections: u64,
    },
    /// The balancer split a hot replica group: this peer's path grew one
    /// bit deeper.
    PathExtended {
        /// The extending peer.
        peer: u64,
        /// Path length after the extension.
        to_len: u32,
    },
    /// The balancer retracted an over-provisioned cold leaf: this peer
    /// moved back to its parent path.
    PathRetracted {
        /// The retracting peer.
        peer: u64,
        /// Path length after the retraction.
        to_len: u32,
    },
    /// The balancer migrated a donor peer wholesale onto a hot path
    /// (replica scaling).
    ReplicaMigrated {
        /// The migrating peer.
        peer: u64,
        /// The adopted path as a bit string.
        to_path: String,
    },
    /// One load-balancing round over the community completed.
    BalanceRound {
        /// The round's max/mean load ratio sample, x1000.
        ratio_x1000: u64,
        /// Paths extended this round.
        extended: u64,
        /// Paths retracted this round.
        retracted: u64,
        /// Replicas migrated this round.
        migrated: u64,
    },
    /// Socket transport: a connection completed its handshake.
    ConnEstablished {
        /// Local endpoint of the connection.
        local: u64,
        /// Remote endpoint of the connection.
        remote: u64,
        /// `true` when accepted (preamble received), `false` when dialed.
        inbound: bool,
    },
    /// Socket transport: a connection failed (I/O error, mid-frame EOF, or
    /// exhausted reconnect attempts).
    ConnLost {
        /// Local endpoint of the connection.
        local: u64,
        /// Remote endpoint of the connection.
        remote: u64,
        /// Frames still queued behind the socket when it died (lost).
        queued: u64,
    },
    /// Socket transport: a frame was shed drop-newest because the
    /// connection's bounded write queue was full.
    WriteShed {
        /// Sending peer.
        from: u64,
        /// Destination peer.
        to: u64,
    },
    /// Socket transport: a readiness event left a torn frame buffered in
    /// the read accumulator (the normal nonblocking-read case).
    PartialFrame {
        /// Receiving endpoint.
        local: u64,
        /// Sending endpoint.
        remote: u64,
        /// Bytes buffered awaiting the rest of the frame.
        buffered: u64,
    },
}

impl TraceEvent {
    /// Stable wire name of the event variant.
    pub fn name(&self) -> &'static str {
        match self {
            TraceEvent::Message { .. } => "message",
            TraceEvent::QueryStart { .. } => "query_start",
            TraceEvent::RouteStep { .. } => "route_step",
            TraceEvent::QueryHop { .. } => "query_hop",
            TraceEvent::QueryEnd { .. } => "query_end",
            TraceEvent::Exchange { .. } => "exchange",
            TraceEvent::ReplicaFanout { .. } => "replica_fanout",
            TraceEvent::OfferAnswered { .. } => "offer_answered",
            TraceEvent::AnswerApplied { .. } => "answer_applied",
            TraceEvent::ConfirmApplied { .. } => "confirm_applied",
            TraceEvent::Retransmit { .. } => "retransmit",
            TraceEvent::TimeoutGiveUp { .. } => "timeout_give_up",
            TraceEvent::PeerDemoted { .. } => "peer_demoted",
            TraceEvent::PeerEvicted { .. } => "peer_evicted",
            TraceEvent::ViolationFound { .. } => "violation_found",
            TraceEvent::RefEvicted { .. } => "ref_evicted",
            TraceEvent::PathRederived { .. } => "path_rederived",
            TraceEvent::EntryRehomed { .. } => "entry_rehomed",
            TraceEvent::BuddyDropped { .. } => "buddy_dropped",
            TraceEvent::StabilizeRound { .. } => "stabilize_round",
            TraceEvent::PathExtended { .. } => "path_extended",
            TraceEvent::PathRetracted { .. } => "path_retracted",
            TraceEvent::ReplicaMigrated { .. } => "replica_migrated",
            TraceEvent::BalanceRound { .. } => "balance_round",
            TraceEvent::ConnEstablished { .. } => "conn_established",
            TraceEvent::ConnLost { .. } => "conn_lost",
            TraceEvent::WriteShed { .. } => "write_shed",
            TraceEvent::PartialFrame { .. } => "partial_frame",
        }
    }
}

fn push_str_field(out: &mut String, key: &str, value: &str) {
    out.push_str(",\"");
    out.push_str(key);
    out.push_str("\":");
    write_str(out, value);
}

fn push_int_field(out: &mut String, key: &str, value: i128) {
    out.push_str(",\"");
    out.push_str(key);
    out.push_str("\":");
    out.push_str(&value.to_string());
}

fn push_bool_field(out: &mut String, key: &str, value: bool) {
    out.push_str(",\"");
    out.push_str(key);
    out.push_str("\":");
    out.push_str(if value { "true" } else { "false" });
}

/// Encodes one stamped event as a single JSONL line (no trailing newline).
/// Field order is fixed, so equal events encode to equal bytes.
pub fn encode_line(stamped: &Stamped) -> String {
    let mut out = String::with_capacity(96);
    out.push_str("{\"seq\":");
    out.push_str(&stamped.seq.to_string());
    push_str_field(&mut out, "ev", stamped.event.name());
    match &stamped.event {
        TraceEvent::Message { kind } => {
            push_str_field(&mut out, "kind", kind.name());
        }
        TraceEvent::QueryStart { start, key } => {
            push_int_field(&mut out, "start", i128::from(*start));
            push_str_field(&mut out, "key", key);
        }
        TraceEvent::RouteStep {
            peer,
            matched,
            consumed,
            level,
            responsible,
            candidates,
            draw,
        } => {
            push_int_field(&mut out, "peer", i128::from(*peer));
            push_int_field(&mut out, "matched", i128::from(*matched));
            push_int_field(&mut out, "consumed", i128::from(*consumed));
            push_int_field(&mut out, "level", i128::from(*level));
            push_bool_field(&mut out, "responsible", *responsible);
            push_int_field(&mut out, "candidates", i128::from(*candidates));
            push_int_field(&mut out, "draw", i128::from(*draw));
        }
        TraceEvent::QueryHop { from, to, depth } => {
            push_int_field(&mut out, "from", i128::from(*from));
            push_int_field(&mut out, "to", i128::from(*to));
            push_int_field(&mut out, "depth", i128::from(*depth));
        }
        TraceEvent::QueryEnd {
            responsible,
            messages,
            hops,
        } => {
            push_int_field(&mut out, "responsible", i128::from(*responsible));
            push_int_field(&mut out, "messages", i128::from(*messages));
            push_int_field(&mut out, "hops", i128::from(*hops));
        }
        TraceEvent::Exchange {
            first,
            second,
            case,
            lc,
            bit_first,
            bit_second,
        } => {
            push_int_field(&mut out, "first", i128::from(*first));
            push_int_field(&mut out, "second", i128::from(*second));
            push_str_field(&mut out, "case", case.name());
            push_int_field(&mut out, "lc", i128::from(*lc));
            push_int_field(&mut out, "bit_first", i128::from(*bit_first));
            push_int_field(&mut out, "bit_second", i128::from(*bit_second));
        }
        TraceEvent::ReplicaFanout { replica, update } => {
            push_int_field(&mut out, "replica", i128::from(*replica));
            push_bool_field(&mut out, "update", *update);
        }
        TraceEvent::OfferAnswered {
            peer,
            xid,
            case,
            lc,
        } => {
            push_int_field(&mut out, "peer", i128::from(*peer));
            push_int_field(&mut out, "xid", i128::from(*xid));
            push_str_field(&mut out, "case", case.name());
            push_int_field(&mut out, "lc", i128::from(*lc));
        }
        TraceEvent::AnswerApplied { peer, xid, stale } => {
            push_int_field(&mut out, "peer", i128::from(*peer));
            push_int_field(&mut out, "xid", i128::from(*xid));
            push_bool_field(&mut out, "stale", *stale);
        }
        TraceEvent::ConfirmApplied { peer } => {
            push_int_field(&mut out, "peer", i128::from(*peer));
        }
        TraceEvent::Retransmit { peer, op, attempt } => {
            push_int_field(&mut out, "peer", i128::from(*peer));
            push_str_field(&mut out, "op", op.name());
            push_int_field(&mut out, "attempt", i128::from(*attempt));
        }
        TraceEvent::TimeoutGiveUp { peer, op } => {
            push_int_field(&mut out, "peer", i128::from(*peer));
            push_str_field(&mut out, "op", op.name());
        }
        TraceEvent::PeerDemoted { peer, failures } => {
            push_int_field(&mut out, "peer", i128::from(*peer));
            push_int_field(&mut out, "failures", i128::from(*failures));
        }
        TraceEvent::PeerEvicted { peer } => {
            push_int_field(&mut out, "peer", i128::from(*peer));
        }
        TraceEvent::ViolationFound { peer, kind, level } => {
            push_int_field(&mut out, "peer", i128::from(*peer));
            push_str_field(&mut out, "kind", kind.name());
            push_int_field(&mut out, "level", i128::from(*level));
        }
        TraceEvent::RefEvicted {
            peer,
            level,
            target,
        } => {
            push_int_field(&mut out, "peer", i128::from(*peer));
            push_int_field(&mut out, "level", i128::from(*level));
            push_int_field(&mut out, "target", i128::from(*target));
        }
        TraceEvent::PathRederived {
            peer,
            from_len,
            to_len,
        } => {
            push_int_field(&mut out, "peer", i128::from(*peer));
            push_int_field(&mut out, "from_len", i128::from(*from_len));
            push_int_field(&mut out, "to_len", i128::from(*to_len));
        }
        TraceEvent::EntryRehomed { peer, to, key } => {
            push_int_field(&mut out, "peer", i128::from(*peer));
            push_int_field(&mut out, "to", i128::from(*to));
            push_str_field(&mut out, "key", key);
        }
        TraceEvent::BuddyDropped { peer, buddy } => {
            push_int_field(&mut out, "peer", i128::from(*peer));
            push_int_field(&mut out, "buddy", i128::from(*buddy));
        }
        TraceEvent::StabilizeRound {
            violations,
            corrections,
        } => {
            push_int_field(&mut out, "violations", i128::from(*violations));
            push_int_field(&mut out, "corrections", i128::from(*corrections));
        }
        TraceEvent::PathExtended { peer, to_len } => {
            push_int_field(&mut out, "peer", i128::from(*peer));
            push_int_field(&mut out, "to_len", i128::from(*to_len));
        }
        TraceEvent::PathRetracted { peer, to_len } => {
            push_int_field(&mut out, "peer", i128::from(*peer));
            push_int_field(&mut out, "to_len", i128::from(*to_len));
        }
        TraceEvent::ReplicaMigrated { peer, to_path } => {
            push_int_field(&mut out, "peer", i128::from(*peer));
            push_str_field(&mut out, "to_path", to_path);
        }
        TraceEvent::BalanceRound {
            ratio_x1000,
            extended,
            retracted,
            migrated,
        } => {
            push_int_field(&mut out, "ratio_x1000", i128::from(*ratio_x1000));
            push_int_field(&mut out, "extended", i128::from(*extended));
            push_int_field(&mut out, "retracted", i128::from(*retracted));
            push_int_field(&mut out, "migrated", i128::from(*migrated));
        }
        TraceEvent::ConnEstablished {
            local,
            remote,
            inbound,
        } => {
            push_int_field(&mut out, "local", i128::from(*local));
            push_int_field(&mut out, "remote", i128::from(*remote));
            push_bool_field(&mut out, "inbound", *inbound);
        }
        TraceEvent::ConnLost {
            local,
            remote,
            queued,
        } => {
            push_int_field(&mut out, "local", i128::from(*local));
            push_int_field(&mut out, "remote", i128::from(*remote));
            push_int_field(&mut out, "queued", i128::from(*queued));
        }
        TraceEvent::WriteShed { from, to } => {
            push_int_field(&mut out, "from", i128::from(*from));
            push_int_field(&mut out, "to", i128::from(*to));
        }
        TraceEvent::PartialFrame {
            local,
            remote,
            buffered,
        } => {
            push_int_field(&mut out, "local", i128::from(*local));
            push_int_field(&mut out, "remote", i128::from(*remote));
            push_int_field(&mut out, "buffered", i128::from(*buffered));
        }
    }
    out.push('}');
    out
}

struct Fields<'a> {
    fields: &'a [(String, JsonVal)],
    line_no: usize,
}

impl<'a> Fields<'a> {
    fn get(&self, key: &str) -> Result<&'a JsonVal, String> {
        self.fields
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .ok_or_else(|| format!("line {}: missing field `{key}`", self.line_no))
    }

    fn int(&self, key: &str) -> Result<i128, String> {
        match self.get(key)? {
            JsonVal::Int(v) => Ok(*v),
            other => Err(format!(
                "line {}: field `{key}` is {other:?}, expected integer",
                self.line_no
            )),
        }
    }

    fn u64(&self, key: &str) -> Result<u64, String> {
        u64::try_from(self.int(key)?)
            .map_err(|_| format!("line {}: field `{key}` out of u64 range", self.line_no))
    }

    fn u32(&self, key: &str) -> Result<u32, String> {
        u32::try_from(self.int(key)?)
            .map_err(|_| format!("line {}: field `{key}` out of u32 range", self.line_no))
    }

    fn i64(&self, key: &str) -> Result<i64, String> {
        i64::try_from(self.int(key)?)
            .map_err(|_| format!("line {}: field `{key}` out of i64 range", self.line_no))
    }

    fn i8(&self, key: &str) -> Result<i8, String> {
        i8::try_from(self.int(key)?)
            .map_err(|_| format!("line {}: field `{key}` out of i8 range", self.line_no))
    }

    fn bool(&self, key: &str) -> Result<bool, String> {
        match self.get(key)? {
            JsonVal::Bool(v) => Ok(*v),
            other => Err(format!(
                "line {}: field `{key}` is {other:?}, expected bool",
                self.line_no
            )),
        }
    }

    fn str(&self, key: &str) -> Result<&'a str, String> {
        match self.get(key)? {
            JsonVal::Str(v) => Ok(v.as_str()),
            other => Err(format!(
                "line {}: field `{key}` is {other:?}, expected string",
                self.line_no
            )),
        }
    }

    fn case(&self, key: &str) -> Result<CaseTag, String> {
        let name = self.str(key)?;
        CaseTag::from_name(name)
            .ok_or_else(|| format!("line {}: unknown exchange case `{name}`", self.line_no))
    }

    fn op(&self, key: &str) -> Result<OpTag, String> {
        let name = self.str(key)?;
        OpTag::from_name(name)
            .ok_or_else(|| format!("line {}: unknown op tag `{name}`", self.line_no))
    }

    fn viol(&self, key: &str) -> Result<ViolationTag, String> {
        let name = self.str(key)?;
        ViolationTag::from_name(name)
            .ok_or_else(|| format!("line {}: unknown violation tag `{name}`", self.line_no))
    }
}

/// Decodes one JSONL line back into a [`Stamped`] event. `line_no` is used
/// only for error messages (1-based).
pub fn decode_line(line: &str, line_no: usize) -> Result<Stamped, String> {
    let parsed = parse_flat(line).map_err(|e| format!("line {line_no}: {e}"))?;
    let f = Fields {
        fields: &parsed,
        line_no,
    };
    let seq = f.u64("seq")?;
    let ev = f.str("ev")?;
    let event = match ev {
        "message" => {
            let kind = f.str("kind")?;
            TraceEvent::Message {
                kind: MsgTag::from_name(kind)
                    .ok_or_else(|| format!("line {line_no}: unknown message kind `{kind}`"))?,
            }
        }
        "query_start" => TraceEvent::QueryStart {
            start: f.u64("start")?,
            key: f.str("key")?.to_string(),
        },
        "route_step" => TraceEvent::RouteStep {
            peer: f.u64("peer")?,
            matched: f.u32("matched")?,
            consumed: f.u32("consumed")?,
            level: f.u32("level")?,
            responsible: f.bool("responsible")?,
            candidates: f.u32("candidates")?,
            draw: f.u64("draw")?,
        },
        "query_hop" => TraceEvent::QueryHop {
            from: f.u64("from")?,
            to: f.u64("to")?,
            depth: f.u32("depth")?,
        },
        "query_end" => TraceEvent::QueryEnd {
            responsible: f.i64("responsible")?,
            messages: f.u64("messages")?,
            hops: f.u32("hops")?,
        },
        "exchange" => TraceEvent::Exchange {
            first: f.u64("first")?,
            second: f.u64("second")?,
            case: f.case("case")?,
            lc: f.u32("lc")?,
            bit_first: f.i8("bit_first")?,
            bit_second: f.i8("bit_second")?,
        },
        "replica_fanout" => TraceEvent::ReplicaFanout {
            replica: f.u64("replica")?,
            update: f.bool("update")?,
        },
        "offer_answered" => TraceEvent::OfferAnswered {
            peer: f.u64("peer")?,
            xid: f.u64("xid")?,
            case: f.case("case")?,
            lc: f.u32("lc")?,
        },
        "answer_applied" => TraceEvent::AnswerApplied {
            peer: f.u64("peer")?,
            xid: f.u64("xid")?,
            stale: f.bool("stale")?,
        },
        "confirm_applied" => TraceEvent::ConfirmApplied {
            peer: f.u64("peer")?,
        },
        "retransmit" => TraceEvent::Retransmit {
            peer: f.u64("peer")?,
            op: f.op("op")?,
            attempt: f.u32("attempt")?,
        },
        "timeout_give_up" => TraceEvent::TimeoutGiveUp {
            peer: f.u64("peer")?,
            op: f.op("op")?,
        },
        "peer_demoted" => TraceEvent::PeerDemoted {
            peer: f.u64("peer")?,
            failures: f.u32("failures")?,
        },
        "peer_evicted" => TraceEvent::PeerEvicted {
            peer: f.u64("peer")?,
        },
        "violation_found" => TraceEvent::ViolationFound {
            peer: f.u64("peer")?,
            kind: f.viol("kind")?,
            level: f.u32("level")?,
        },
        "ref_evicted" => TraceEvent::RefEvicted {
            peer: f.u64("peer")?,
            level: f.u32("level")?,
            target: f.u64("target")?,
        },
        "path_rederived" => TraceEvent::PathRederived {
            peer: f.u64("peer")?,
            from_len: f.u32("from_len")?,
            to_len: f.u32("to_len")?,
        },
        "entry_rehomed" => TraceEvent::EntryRehomed {
            peer: f.u64("peer")?,
            to: f.i64("to")?,
            key: f.str("key")?.to_string(),
        },
        "buddy_dropped" => TraceEvent::BuddyDropped {
            peer: f.u64("peer")?,
            buddy: f.u64("buddy")?,
        },
        "stabilize_round" => TraceEvent::StabilizeRound {
            violations: f.u64("violations")?,
            corrections: f.u64("corrections")?,
        },
        "path_extended" => TraceEvent::PathExtended {
            peer: f.u64("peer")?,
            to_len: f.u32("to_len")?,
        },
        "path_retracted" => TraceEvent::PathRetracted {
            peer: f.u64("peer")?,
            to_len: f.u32("to_len")?,
        },
        "replica_migrated" => TraceEvent::ReplicaMigrated {
            peer: f.u64("peer")?,
            to_path: f.str("to_path")?.to_string(),
        },
        "balance_round" => TraceEvent::BalanceRound {
            ratio_x1000: f.u64("ratio_x1000")?,
            extended: f.u64("extended")?,
            retracted: f.u64("retracted")?,
            migrated: f.u64("migrated")?,
        },
        "conn_established" => TraceEvent::ConnEstablished {
            local: f.u64("local")?,
            remote: f.u64("remote")?,
            inbound: f.bool("inbound")?,
        },
        "conn_lost" => TraceEvent::ConnLost {
            local: f.u64("local")?,
            remote: f.u64("remote")?,
            queued: f.u64("queued")?,
        },
        "write_shed" => TraceEvent::WriteShed {
            from: f.u64("from")?,
            to: f.u64("to")?,
        },
        "partial_frame" => TraceEvent::PartialFrame {
            local: f.u64("local")?,
            remote: f.u64("remote")?,
            buffered: f.u64("buffered")?,
        },
        other => return Err(format!("line {line_no}: unknown event `{other}`")),
    };
    Ok(Stamped { seq, event })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(event: TraceEvent) {
        let stamped = Stamped { seq: 42, event };
        let line = encode_line(&stamped);
        let back = decode_line(&line, 1).expect("decode");
        assert_eq!(back, stamped, "line was: {line}");
    }

    #[test]
    fn every_variant_roundtrips() {
        roundtrip(TraceEvent::Message {
            kind: MsgTag::Query,
        });
        roundtrip(TraceEvent::QueryStart {
            start: 7,
            key: "0110".to_string(),
        });
        roundtrip(TraceEvent::RouteStep {
            peer: 3,
            matched: 2,
            consumed: 1,
            level: 2,
            responsible: false,
            candidates: 4,
            draw: 9,
        });
        roundtrip(TraceEvent::QueryHop {
            from: 3,
            to: 5,
            depth: 1,
        });
        roundtrip(TraceEvent::QueryEnd {
            responsible: -1,
            messages: 6,
            hops: 0,
        });
        roundtrip(TraceEvent::Exchange {
            first: 0,
            second: 1,
            case: CaseTag::Split,
            lc: 0,
            bit_first: 0,
            bit_second: 1,
        });
        roundtrip(TraceEvent::ReplicaFanout {
            replica: 12,
            update: true,
        });
        roundtrip(TraceEvent::OfferAnswered {
            peer: 2,
            xid: 1 << 63,
            case: CaseTag::Diverged,
            lc: 2,
        });
        roundtrip(TraceEvent::AnswerApplied {
            peer: 2,
            xid: 99,
            stale: true,
        });
        roundtrip(TraceEvent::ConfirmApplied { peer: 2 });
        roundtrip(TraceEvent::Retransmit {
            peer: 8,
            op: OpTag::Forward,
            attempt: 2,
        });
        roundtrip(TraceEvent::TimeoutGiveUp {
            peer: 8,
            op: OpTag::Insert,
        });
        roundtrip(TraceEvent::PeerDemoted {
            peer: 4,
            failures: 2,
        });
        roundtrip(TraceEvent::PeerEvicted { peer: 4 });
        roundtrip(TraceEvent::ViolationFound {
            peer: 5,
            kind: ViolationTag::SameSide,
            level: 2,
        });
        roundtrip(TraceEvent::RefEvicted {
            peer: 5,
            level: 2,
            target: 9,
        });
        roundtrip(TraceEvent::PathRederived {
            peer: 5,
            from_len: 9,
            to_len: 4,
        });
        roundtrip(TraceEvent::EntryRehomed {
            peer: 5,
            to: -1,
            key: "0110".to_string(),
        });
        roundtrip(TraceEvent::BuddyDropped { peer: 5, buddy: 6 });
        roundtrip(TraceEvent::StabilizeRound {
            violations: 17,
            corrections: 12,
        });
        roundtrip(TraceEvent::PathExtended { peer: 5, to_len: 7 });
        roundtrip(TraceEvent::PathRetracted { peer: 5, to_len: 3 });
        roundtrip(TraceEvent::ReplicaMigrated {
            peer: 5,
            to_path: "0010".to_string(),
        });
        roundtrip(TraceEvent::BalanceRound {
            ratio_x1000: 1875,
            extended: 4,
            retracted: 1,
            migrated: 2,
        });
        roundtrip(TraceEvent::ConnEstablished {
            local: 3,
            remote: 9,
            inbound: true,
        });
        roundtrip(TraceEvent::ConnLost {
            local: 3,
            remote: 9,
            queued: 4,
        });
        roundtrip(TraceEvent::WriteShed { from: 3, to: 9 });
        roundtrip(TraceEvent::PartialFrame {
            local: 9,
            remote: 3,
            buffered: 17,
        });
    }

    #[test]
    fn encoding_is_deterministic() {
        let s = Stamped {
            seq: 0,
            event: TraceEvent::Message {
                kind: MsgTag::Exchange,
            },
        };
        assert_eq!(encode_line(&s), encode_line(&s));
        assert_eq!(
            encode_line(&s),
            "{\"seq\":0,\"ev\":\"message\",\"kind\":\"exchange\"}"
        );
    }

    #[test]
    fn unknown_event_is_an_error() {
        assert!(decode_line("{\"seq\":0,\"ev\":\"nope\"}", 1).is_err());
        assert!(decode_line("{\"ev\":\"message\",\"kind\":\"query\"}", 1).is_err());
        assert!(decode_line("not json", 1).is_err());
    }

    #[test]
    fn tag_names_are_bijective() {
        for t in MsgTag::ALL {
            assert_eq!(MsgTag::from_name(t.name()), Some(t));
        }
        for c in [
            CaseTag::Split,
            CaseTag::Replicas,
            CaseTag::FirstSpecializes,
            CaseTag::SecondSpecializes,
            CaseTag::Diverged,
            CaseTag::Saturated,
        ] {
            assert_eq!(CaseTag::from_name(c.name()), Some(c));
        }
        for o in [OpTag::Offer, OpTag::Forward, OpTag::Answer, OpTag::Insert] {
            assert_eq!(OpTag::from_name(o.name()), Some(o));
        }
        for v in ViolationTag::ALL {
            assert_eq!(ViolationTag::from_name(v.name()), Some(v));
        }
    }
}
