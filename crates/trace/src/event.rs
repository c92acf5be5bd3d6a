//! Typed trace events and their stable JSONL encoding.
//!
//! Every event is declared once, in the `trace_events!` table below:
//! its doc comment, its wire name and its typed fields in wire order. The
//! enum, [`TraceEvent::name`], [`encode_line`] and [`decode_line`] are all
//! derived from that table; each field type knows how to write and read
//! its own value through `Field`.

use std::fmt::Write;

use crate::json::{parse_flat, write_str, JsonVal};
use crate::tracer::Stamped;

/// Declares a closed set of tags with a stable wire name each, plus its
/// `ALL` list (declaration order), `name`, `from_name` and its `Field`
/// codec. `$what` names the tag in decode errors.
macro_rules! wire_tags {
    (
        $(#[$meta:meta])*
        pub enum $tag:ident ($what:literal) {
            $( $(#[$doc:meta])* $variant:ident = $name:literal, )*
        }
    ) => {
        $(#[$meta])*
        #[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub enum $tag {
            $( $(#[$doc])* $variant, )*
        }

        impl $tag {
            /// Every tag, in declaration order.
            pub const ALL: [$tag; [$($name),*].len()] = [$($tag::$variant),*];

            /// Stable wire name.
            pub fn name(self) -> &'static str {
                match self {
                    $( $tag::$variant => $name, )*
                }
            }

            /// Inverse of `name`.
            pub fn from_name(name: &str) -> Option<$tag> {
                $tag::ALL.into_iter().find(|t| t.name() == name)
            }
        }

        impl Field for $tag {
            fn encode(&self, out: &mut String) {
                write_str(out, self.name());
            }

            fn decode(f: &Fields<'_>, key: &str) -> Result<Self, String> {
                let name = f.str(key)?;
                $tag::from_name(name).ok_or_else(|| {
                    format!("line {}: unknown {} `{name}`", f.line_no, $what)
                })
            }
        }
    };
}

wire_tags! {
    /// Mirror of `pgrid_net::MsgKind`, defined here so the trace crate stays
    /// at the bottom of the dependency stack (net implements the conversion).
    pub enum MsgTag ("message kind") {
        /// Construction exchange (Fig. 3 handshake or simulator pair).
        Exchange = "exchange",
        /// Fig. 2 query descent hop.
        Query = "query",
        /// Insert/update propagation to replicas.
        Update = "update",
        /// Flooding baseline traffic.
        Flood = "flood",
        /// Control-plane traffic (acks, probes).
        Control = "control",
    }
}

impl MsgTag {
    /// Stable index into per-kind count arrays (the position in `ALL`, the
    /// same order as `MsgKind::ALL`).
    pub fn idx(self) -> usize {
        self as usize
    }
}

wire_tags! {
    /// Mirror of `pgrid_proto::ExchangeCase` (Fig. 3 classification).
    pub enum CaseTag ("exchange case") {
        /// Both peers at the common prefix: split one bit each way.
        Split = "split",
        /// Identical paths: become replicas, adopt buddies.
        Replicas = "replicas",
        /// First peer's path extends the second's: second specializes.
        FirstSpecializes = "first_specializes",
        /// Second peer's path extends the first's: first specializes.
        SecondSpecializes = "second_specializes",
        /// Paths diverge below the common prefix: recurse via references.
        Diverged = "diverged",
        /// At least one peer is at maximum depth: nothing to do.
        Saturated = "saturated",
    }
}

wire_tags! {
    /// Which pending live-node operation a retransmission/timeout refers to.
    pub enum OpTag ("op tag") {
        /// An exchange offer awaiting its answer.
        Offer = "offer",
        /// A forwarded query awaiting its ack.
        Forward = "forward",
        /// A query answer awaiting its ack.
        Answer = "answer",
        /// An insert awaiting its ack.
        Insert = "insert",
    }
}

wire_tags! {
    /// Mirror of `pgrid_core::Violation`'s classes, defined here so the
    /// stabilizer's corrective steps trace as typed tags. The wire names are
    /// identical to `Violation::kind_name`, so traces and audit reports
    /// reconcile textually; `ALL` is in audit order.
    pub enum ViolationTag ("violation tag") {
        /// Path longer than `maxl`.
        PathTooLong = "path_too_long",
        /// Non-empty reference level beyond the path.
        BeyondPath = "beyond_path",
        /// More than `refmax` references at one level.
        Overfull = "overfull",
        /// A peer referencing itself.
        SelfRef = "self_ref",
        /// A reference whose target's path does not reach the level.
        ShallowRef = "shallow_ref",
        /// A reference disagreeing on the shared prefix.
        PrefixMismatch = "prefix_mismatch",
        /// A reference on the same side of the level's bit.
        SameSide = "same_side",
        /// A buddy with a different path.
        ReplicaMismatch = "replica_mismatch",
        /// A hosted index entry outside the peer's path.
        ForeignEntry = "foreign_entry",
    }
}

/// The value codec of one event field type: how it is written after its
/// `"key":` and read back from a parsed line.
trait Field: Sized {
    fn encode(&self, out: &mut String);
    fn decode(f: &Fields<'_>, key: &str) -> Result<Self, String>;
}

macro_rules! int_fields {
    ($($t:ident),*) => {$(
        impl Field for $t {
            fn encode(&self, out: &mut String) {
                let _ = write!(out, "{self}");
            }

            fn decode(f: &Fields<'_>, key: &str) -> Result<Self, String> {
                $t::try_from(f.int(key)?).map_err(|_| {
                    format!(
                        "line {}: field `{key}` out of {} range",
                        f.line_no,
                        stringify!($t)
                    )
                })
            }
        }
    )*};
}
int_fields!(u64, u32, i64, i8);

impl Field for bool {
    fn encode(&self, out: &mut String) {
        out.push_str(if *self { "true" } else { "false" });
    }

    fn decode(f: &Fields<'_>, key: &str) -> Result<Self, String> {
        match f.get(key)? {
            JsonVal::Bool(v) => Ok(*v),
            other => Err(f.mistyped(key, other, "bool")),
        }
    }
}

impl Field for String {
    fn encode(&self, out: &mut String) {
        write_str(out, self);
    }

    fn decode(f: &Fields<'_>, key: &str) -> Result<Self, String> {
        f.str(key).map(str::to_string)
    }
}

/// The parsed fields of one line, with its 1-based number for errors.
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

    fn mistyped(&self, key: &str, found: &JsonVal, expected: &str) -> String {
        format!(
            "line {}: field `{key}` is {found:?}, expected {expected}",
            self.line_no
        )
    }

    fn int(&self, key: &str) -> Result<i128, String> {
        match self.get(key)? {
            JsonVal::Int(v) => Ok(*v),
            other => Err(self.mistyped(key, other, "integer")),
        }
    }

    fn str(&self, key: &str) -> Result<&'a str, String> {
        match self.get(key)? {
            JsonVal::Str(v) => Ok(v.as_str()),
            other => Err(self.mistyped(key, other, "string")),
        }
    }
}

/// Declares [`TraceEvent`] from one table and derives its codec: each
/// variant's wire name (`ev`) and its fields, encoded after `seq` and `ev`
/// in declaration order and decoded in the same order.
macro_rules! trace_events {
    (
        $(#[$meta:meta])*
        pub enum TraceEvent {
            $(
                $(#[$doc:meta])*
                $variant:ident = $wire:literal {
                    $( $(#[$fdoc:meta])* $field:ident : $ty:ty, )*
                },
            )*
        }
    ) => {
        $(#[$meta])*
        pub enum TraceEvent {
            $(
                $(#[$doc])*
                $variant { $( $(#[$fdoc])* $field: $ty, )* },
            )*
        }

        impl TraceEvent {
            /// Stable wire name of the event variant.
            pub fn name(&self) -> &'static str {
                match self {
                    $( TraceEvent::$variant { .. } => $wire, )*
                }
            }
        }

        /// Encodes one stamped event as a single JSONL line (no trailing
        /// newline). Field order is fixed, so equal events encode to equal
        /// bytes.
        pub fn encode_line(stamped: &Stamped) -> String {
            let mut out = String::with_capacity(96);
            out.push_str("{\"seq\":");
            stamped.seq.encode(&mut out);
            out.push_str(",\"ev\":");
            write_str(&mut out, stamped.event.name());
            match &stamped.event {
                $( TraceEvent::$variant { $($field),* } => {
                    $(
                        out.push_str(concat!(",\"", stringify!($field), "\":"));
                        $field.encode(&mut out);
                    )*
                } )*
            }
            out.push('}');
            out
        }

        /// Decodes one JSONL line back into a [`Stamped`] event. `line_no`
        /// is used only for error messages (1-based).
        pub fn decode_line(line: &str, line_no: usize) -> Result<Stamped, String> {
            let parsed = parse_flat(line).map_err(|e| format!("line {line_no}: {e}"))?;
            let f = Fields {
                fields: &parsed,
                line_no,
            };
            let seq = u64::decode(&f, "seq")?;
            let event = match f.str("ev")? {
                $( $wire => TraceEvent::$variant {
                    $( $field: Field::decode(&f, stringify!($field))?, )*
                }, )*
                other => return Err(format!("line {line_no}: unknown event `{other}`")),
            };
            Ok(Stamped { seq, event })
        }
    };
}

trace_events! {
    /// One recorded protocol decision. Fields are integers, bools, tags, and
    /// bit strings only — never floats or wall-clock times — so encoded
    /// traces are byte-identical across reruns.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub enum TraceEvent {
        /// One protocol message charged to `NetStats` (mirrors every
        /// `stats.record(kind)` on a traced path, for exact reconciliation).
        Message = "message" {
            /// Message kind, mirroring `MsgKind`.
            kind: MsgTag,
        },
        /// A Fig. 2 query descent begins.
        QueryStart = "query_start" {
            /// Peer the query was posed to.
            start: u64,
            /// Queried key as a bit string.
            key: String,
        },
        /// One Fig. 2 `route_step` decision during a descent.
        RouteStep = "route_step" {
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
            /// Index of this shuffle in the descent's RNG-draw order (the
            /// n-th time the descent consumed randomness), for divergence
            /// hunting.
            draw: u64,
        },
        /// One realized query hop (`from` successfully contacted `to`).
        QueryHop = "query_hop" {
            /// Forwarding peer.
            from: u64,
            /// Contacted reference.
            to: u64,
            /// Recursion depth of the hop.
            depth: u32,
        },
        /// A query descent ended.
        QueryEnd = "query_end" {
            /// Responsible peer, or `-1` when the search failed.
            responsible: i64,
            /// Query messages charged during the descent.
            messages: u64,
            /// Hop count of the successful path (0 when failed).
            hops: u32,
        },
        /// A construction exchange classified into its Fig. 3 case.
        Exchange = "exchange" {
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
        ReplicaFanout = "replica_fanout" {
            /// Replica peer contacted.
            replica: u64,
            /// `true` for an update to an existing item, `false` for an
            /// insert.
            update: bool,
        },
        /// Live node: an exchange offer was classified and answered.
        OfferAnswered = "offer_answered" {
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
        AnswerApplied = "answer_applied" {
            /// Responding peer.
            peer: u64,
            /// Exchange id of the handshake.
            xid: u64,
            /// `true` when the answer was dropped as stale (path moved on).
            stale: bool,
        },
        /// Live node: an exchange confirm closed the handshake.
        ConfirmApplied = "confirm_applied" {
            /// Confirming peer.
            peer: u64,
        },
        /// Live node: a pending operation was retransmitted.
        Retransmit = "retransmit" {
            /// Peer the frame was re-sent to.
            peer: u64,
            /// Which pending operation.
            op: OpTag,
            /// Attempt number after the retransmission.
            attempt: u32,
        },
        /// Live node: a pending operation exhausted its retry budget.
        TimeoutGiveUp = "timeout_give_up" {
            /// Peer that never answered.
            peer: u64,
            /// Which pending operation.
            op: OpTag,
        },
        /// A peer failure was noted (one step toward eviction).
        PeerDemoted = "peer_demoted" {
            /// Suspected peer.
            peer: u64,
            /// Consecutive failures recorded so far.
            failures: u32,
        },
        /// A reference was evicted after repeated failures.
        PeerEvicted = "peer_evicted" {
            /// Evicted peer.
            peer: u64,
        },
        /// The local audit found a violated validity condition.
        ViolationFound = "violation_found" {
            /// The audited peer.
            peer: u64,
            /// Violation class.
            kind: ViolationTag,
            /// Routing level involved (0 when not level-scoped).
            level: u32,
        },
        /// The stabilizer evicted an inconsistent reference.
        RefEvicted = "ref_evicted" {
            /// The repairing peer.
            peer: u64,
            /// The level the reference was evicted from.
            level: u32,
            /// The evicted reference.
            target: u64,
        },
        /// The stabilizer replaced a corrupt path (truncation or
        /// re-derivation from hosted data).
        PathRederived = "path_rederived" {
            /// The repairing peer.
            peer: u64,
            /// Path length before the correction.
            from_len: u32,
            /// Path length after the correction.
            to_len: u32,
        },
        /// The stabilizer moved (or kept custody of) an orphaned index entry.
        EntryRehomed = "entry_rehomed" {
            /// The peer that held the orphan.
            peer: u64,
            /// Destination peer, or `-1` when custody was kept (flagged
            /// misplaced, pending anti-entropy).
            to: i64,
            /// The entry's key as a bit string.
            key: String,
        },
        /// The stabilizer dropped a buddy whose path disagrees.
        BuddyDropped = "buddy_dropped" {
            /// The repairing peer.
            peer: u64,
            /// The dropped buddy.
            buddy: u64,
        },
        /// One stabilization round over the community completed.
        StabilizeRound = "stabilize_round" {
            /// Violations detected this round.
            violations: u64,
            /// Corrective actions applied this round.
            corrections: u64,
        },
        /// The balancer split a hot replica group: this peer's path grew one
        /// bit deeper.
        PathExtended = "path_extended" {
            /// The extending peer.
            peer: u64,
            /// Path length after the extension.
            to_len: u32,
        },
        /// The balancer retracted an over-provisioned cold leaf: this peer
        /// moved back to its parent path.
        PathRetracted = "path_retracted" {
            /// The retracting peer.
            peer: u64,
            /// Path length after the retraction.
            to_len: u32,
        },
        /// The balancer migrated a donor peer wholesale onto a hot path
        /// (replica scaling).
        ReplicaMigrated = "replica_migrated" {
            /// The migrating peer.
            peer: u64,
            /// The adopted path as a bit string.
            to_path: String,
        },
        /// One load-balancing round over the community completed.
        BalanceRound = "balance_round" {
            /// The round's max/mean load ratio sample, x1000.
            ratio_x1000: u64,
            /// Paths extended this round.
            extended: u64,
            /// Paths retracted this round.
            retracted: u64,
            /// Replicas migrated this round.
            migrated: u64,
        },
    }
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

    /// One literal line per variant, and the literal decode errors: the
    /// encoding and its error messages are a stable format, so any change
    /// to either shows here byte for byte.
    #[test]
    fn encoded_lines_are_pinned() {
        let pins: Vec<(u64, TraceEvent, &str)> = vec![
            (
                0,
                TraceEvent::Message {
                    kind: MsgTag::Control,
                },
                r#"{"seq":0,"ev":"message","kind":"control"}"#,
            ),
            (
                1,
                TraceEvent::QueryStart {
                    start: u64::MAX,
                    key: "a\"b\\c\n\u{1}é".to_string(),
                },
                r#"{"seq":1,"ev":"query_start","start":18446744073709551615,"key":"a\"b\\c\u000a\u0001é"}"#,
            ),
            (
                2,
                TraceEvent::RouteStep {
                    peer: 3,
                    matched: u32::MAX,
                    consumed: 1,
                    level: 2,
                    responsible: true,
                    candidates: 0,
                    draw: 1 << 63,
                },
                r#"{"seq":2,"ev":"route_step","peer":3,"matched":4294967295,"consumed":1,"level":2,"responsible":true,"candidates":0,"draw":9223372036854775808}"#,
            ),
            (
                3,
                TraceEvent::QueryHop {
                    from: 3,
                    to: u64::MAX,
                    depth: 1,
                },
                r#"{"seq":3,"ev":"query_hop","from":3,"to":18446744073709551615,"depth":1}"#,
            ),
            (
                4,
                TraceEvent::QueryEnd {
                    responsible: -1,
                    messages: 6,
                    hops: 0,
                },
                r#"{"seq":4,"ev":"query_end","responsible":-1,"messages":6,"hops":0}"#,
            ),
            (
                5,
                TraceEvent::Exchange {
                    first: 0,
                    second: 1,
                    case: CaseTag::SecondSpecializes,
                    lc: 3,
                    bit_first: -1,
                    bit_second: 1,
                },
                r#"{"seq":5,"ev":"exchange","first":0,"second":1,"case":"second_specializes","lc":3,"bit_first":-1,"bit_second":1}"#,
            ),
            (
                6,
                TraceEvent::ReplicaFanout {
                    replica: 12,
                    update: false,
                },
                r#"{"seq":6,"ev":"replica_fanout","replica":12,"update":false}"#,
            ),
            (
                7,
                TraceEvent::OfferAnswered {
                    peer: 2,
                    xid: 1 << 63,
                    case: CaseTag::FirstSpecializes,
                    lc: 2,
                },
                r#"{"seq":7,"ev":"offer_answered","peer":2,"xid":9223372036854775808,"case":"first_specializes","lc":2}"#,
            ),
            (
                8,
                TraceEvent::AnswerApplied {
                    peer: 2,
                    xid: 99,
                    stale: true,
                },
                r#"{"seq":8,"ev":"answer_applied","peer":2,"xid":99,"stale":true}"#,
            ),
            (
                9,
                TraceEvent::ConfirmApplied { peer: 2 },
                r#"{"seq":9,"ev":"confirm_applied","peer":2}"#,
            ),
            (
                10,
                TraceEvent::Retransmit {
                    peer: 8,
                    op: OpTag::Answer,
                    attempt: 2,
                },
                r#"{"seq":10,"ev":"retransmit","peer":8,"op":"answer","attempt":2}"#,
            ),
            (
                11,
                TraceEvent::TimeoutGiveUp {
                    peer: 8,
                    op: OpTag::Insert,
                },
                r#"{"seq":11,"ev":"timeout_give_up","peer":8,"op":"insert"}"#,
            ),
            (
                12,
                TraceEvent::PeerDemoted {
                    peer: 4,
                    failures: 2,
                },
                r#"{"seq":12,"ev":"peer_demoted","peer":4,"failures":2}"#,
            ),
            (
                13,
                TraceEvent::PeerEvicted { peer: 4 },
                r#"{"seq":13,"ev":"peer_evicted","peer":4}"#,
            ),
            (
                14,
                TraceEvent::ViolationFound {
                    peer: 5,
                    kind: ViolationTag::ReplicaMismatch,
                    level: 0,
                },
                r#"{"seq":14,"ev":"violation_found","peer":5,"kind":"replica_mismatch","level":0}"#,
            ),
            (
                15,
                TraceEvent::RefEvicted {
                    peer: 5,
                    level: 2,
                    target: 9,
                },
                r#"{"seq":15,"ev":"ref_evicted","peer":5,"level":2,"target":9}"#,
            ),
            (
                16,
                TraceEvent::PathRederived {
                    peer: 5,
                    from_len: 9,
                    to_len: 4,
                },
                r#"{"seq":16,"ev":"path_rederived","peer":5,"from_len":9,"to_len":4}"#,
            ),
            (
                17,
                TraceEvent::EntryRehomed {
                    peer: 5,
                    to: -1,
                    key: "0110".to_string(),
                },
                r#"{"seq":17,"ev":"entry_rehomed","peer":5,"to":-1,"key":"0110"}"#,
            ),
            (
                18,
                TraceEvent::BuddyDropped { peer: 5, buddy: 6 },
                r#"{"seq":18,"ev":"buddy_dropped","peer":5,"buddy":6}"#,
            ),
            (
                19,
                TraceEvent::StabilizeRound {
                    violations: 17,
                    corrections: u64::MAX,
                },
                r#"{"seq":19,"ev":"stabilize_round","violations":17,"corrections":18446744073709551615}"#,
            ),
            (
                20,
                TraceEvent::PathExtended { peer: 5, to_len: 7 },
                r#"{"seq":20,"ev":"path_extended","peer":5,"to_len":7}"#,
            ),
            (
                21,
                TraceEvent::PathRetracted { peer: 5, to_len: 3 },
                r#"{"seq":21,"ev":"path_retracted","peer":5,"to_len":3}"#,
            ),
            (
                22,
                TraceEvent::ReplicaMigrated {
                    peer: 5,
                    to_path: "".to_string(),
                },
                r#"{"seq":22,"ev":"replica_migrated","peer":5,"to_path":""}"#,
            ),
            (
                23,
                TraceEvent::BalanceRound {
                    ratio_x1000: 1875,
                    extended: 4,
                    retracted: 1,
                    migrated: 2,
                },
                r#"{"seq":23,"ev":"balance_round","ratio_x1000":1875,"extended":4,"retracted":1,"migrated":2}"#,
            ),
        ];
        for (seq, event, expected) in pins {
            let stamped = Stamped { seq, event };
            let line = encode_line(&stamped);
            assert_eq!(line, expected);
            assert_eq!(decode_line(expected, 1), Ok(stamped));
        }

        let errors: [(&str, &str); 16] = [
            (
                r#"{"seq":0,"ev":"route_step","peer":1}"#,
                r#"line 7: missing field `matched`"#,
            ),
            (
                r#"{"ev":"peer_evicted","peer":1}"#,
                r#"line 7: missing field `seq`"#,
            ),
            (
                r#"{"seq":0,"ev":"query_hop","from":"3","to":5,"depth":1}"#,
                r#"line 7: field `from` is Str("3"), expected integer"#,
            ),
            (
                r#"{"seq":0,"ev":"answer_applied","peer":2,"xid":9,"stale":1}"#,
                r#"line 7: field `stale` is Int(1), expected bool"#,
            ),
            (
                r#"{"seq":0,"ev":"query_start","start":7,"key":false}"#,
                r#"line 7: field `key` is Bool(false), expected string"#,
            ),
            (
                r#"{"seq":0,"ev":17}"#,
                r#"line 7: field `ev` is Int(17), expected string"#,
            ),
            (
                r#"{"seq":0,"ev":"query_hop","from":3,"to":5,"depth":4294967296}"#,
                r#"line 7: field `depth` out of u32 range"#,
            ),
            (
                r#"{"seq":-1,"ev":"peer_evicted","peer":1}"#,
                r#"line 7: field `seq` out of u64 range"#,
            ),
            (
                r#"{"seq":0,"ev":"query_end","responsible":9223372036854775808,"messages":0,"hops":0}"#,
                r#"line 7: field `responsible` out of i64 range"#,
            ),
            (
                r#"{"seq":0,"ev":"exchange","first":0,"second":1,"case":"split","lc":0,"bit_first":128,"bit_second":0}"#,
                r#"line 7: field `bit_first` out of i8 range"#,
            ),
            (
                r#"{"seq":0,"ev":"offer_answered","peer":2,"xid":1,"case":"sideways","lc":0}"#,
                r#"line 7: unknown exchange case `sideways`"#,
            ),
            (
                r#"{"seq":0,"ev":"timeout_give_up","peer":8,"op":"resend"}"#,
                r#"line 7: unknown op tag `resend`"#,
            ),
            (
                r#"{"seq":0,"ev":"violation_found","peer":5,"kind":"loop","level":0}"#,
                r#"line 7: unknown violation tag `loop`"#,
            ),
            (
                r#"{"seq":0,"ev":"message","kind":"gossip"}"#,
                r#"line 7: unknown message kind `gossip`"#,
            ),
            (
                r#"{"seq":0,"ev":"wormhole"}"#,
                r#"line 7: unknown event `wormhole`"#,
            ),
            ("not json", "line 7: bad literal at byte 0"),
        ];
        for (line, expected) in errors {
            assert_eq!(decode_line(line, 7), Err(expected.to_string()), "{line}");
        }
    }
}
