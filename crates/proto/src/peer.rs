//! The sans-I/O protocol state machine of one live peer.
//!
//! [`ProtocolPeer`] holds everything a peer *decides with* — trie path,
//! per-level references, leaf index, buddies, dedup windows, pending
//! exchanges — and advances exclusively through [`ProtocolPeer::handle`]:
//! events in, effects out, randomness only via the caller's [`ProtoCtx`].
//! There are no channels, clocks, sockets, or threads in this module, which
//! is precisely what makes the *production* protocol deterministically
//! simulable: one node shell (`pgrid-node`) runs this peer type over
//! threads, sockets or a virtual clock, and a fixed seed plus a fixed event
//! order reproduces every decision bit-for-bit.

use std::collections::{HashMap, HashSet};

use pgrid_keys::{BitPath, Key};
use pgrid_net::{BoundedMap, BoundedSet, PeerId};
use pgrid_trace::{TraceEvent, Tracer, ViolationTag};
use pgrid_wire::{Message, WireEntry};
use rand::rngs::StdRng;

use crate::event::{Effect, Event, TimerToken};
use crate::fig2::{route_step, RouteStep};
use crate::fig3::{classify, split_bits, ExchangeCase, SplitBitPolicy};
use crate::leaf_index::{KeyEntries, LeafIndex};
use crate::routing::{random_select, union_into, LevelRefs, RoutingTable};

/// Execution context threaded into [`ProtocolPeer::handle`]: the driver
/// owns the RNG, so a driver-chosen seed reproduces every protocol draw.
/// Drivers that also need randomness for I/O concerns (retransmit jitter)
/// must draw that from a *separate* stream, or the protocol draw order
/// would depend on delivery timing.
pub struct ProtoCtx<'a> {
    /// Source of all protocol randomness.
    pub rng: &'a mut StdRng,
    /// Observation-only flight-recorder sink (see `pgrid-trace`): never
    /// consulted for decisions and never draws from `rng`, so attaching a
    /// real tracer cannot change protocol behavior. Drivers that do not
    /// record pass `&mut NullTracer`.
    pub tracer: &'a mut dyn Tracer,
}

impl ProtoCtx<'_> {
    /// Records an event, skipping construction entirely when the attached
    /// tracer is disabled.
    #[inline]
    pub fn trace(&mut self, event: impl FnOnce() -> TraceEvent) {
        if self.tracer.enabled() {
            self.tracer.record(event());
        }
    }
}

/// What the responder tells the initiator, plus what the responder itself
/// should do next.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
struct OfferOutcome {
    /// Bit the initiator must append (Case 1/2).
    pub take_bit: Option<u8>,
    /// Levels the initiator must union into its table.
    pub adopt_refs: Vec<(u16, Vec<PeerId>)>,
    /// Peers the *initiator* should recursively exchange with.
    pub recurse_initiator: Vec<PeerId>,
    /// Peers the *responder* should recursively exchange with (drawn from
    /// the initiator's digest).
    pub recurse_responder: Vec<PeerId>,
}

/// Routing decision for one query hop.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RouteDecision {
    /// This node is responsible; answer with the entries under the key.
    Responsible,
    /// Forward the given remaining key at the given matched-bits count to
    /// one of the candidate peers (in preference order).
    Forward {
        /// Remaining (unmatched) key to forward.
        key: BitPath,
        /// Matched bits count valid for every candidate.
        matched: u16,
        /// Candidate next hops, shuffled.
        candidates: Vec<PeerId>,
    },
    /// No route (no references at the divergence level).
    Dead,
}

/// Consecutive delivery failures before a peer is presumed departed.
pub const DEFAULT_SUSPECT_AFTER: u32 = 3;
/// Default exchange recursion bound.
pub const DEFAULT_RECMAX: u8 = 2;
/// Bound on the query/insert dedup windows.
pub const SEEN_CAP: usize = 512;
/// Bound on the duplicate-offer answer cache.
pub const ANSWER_CACHE_CAP: usize = 256;

/// An exchange this peer initiated, awaiting its answer. Protocol state,
/// not I/O state: the *frame bytes, deadlines and attempt counts* of the
/// retransmitting driver live with the driver.
#[derive(Clone, Debug, PartialEq, Eq)]
struct PendingExchange {
    /// The responder the offer went to.
    target: PeerId,
    /// Path snapshot at offer time: an answer telling us to extend is only
    /// valid if our path has not changed in the meantime.
    snapshot: BitPath,
    /// Recursion depth of this exchange.
    depth: u8,
}

/// The protocol state machine of one peer. Fields are public because test
/// harnesses and cluster drivers snapshot and pre-seed them; every
/// *protocol transition* goes through [`ProtocolPeer::handle`], the one
/// entry point. The other public methods only read state or seed it.
#[derive(Clone, Debug)]
pub struct ProtocolPeer {
    /// This peer's id.
    pub id: PeerId,
    /// Trie path.
    pub path: BitPath,
    /// References per level, in the engine's one-buffer layout.
    pub refs: RoutingTable,
    /// Leaf-level index: full key → entries.
    pub index: LeafIndex<WireEntry>,
    /// Buddies (same-path peers met at `maxl`).
    pub buddies: Vec<PeerId>,
    /// Set when the index may hold entries outside this peer's
    /// responsibility (no route was available when they arrived); cleared
    /// once anti-entropy re-homes them.
    pub misplaced: bool,
    /// Maximal path length.
    pub maxl: usize,
    /// Bound on references per level.
    pub refmax: usize,
    /// Recursion fan-out bound for exchange answers.
    pub recfanout: usize,
    /// Exchange recursion depth bound.
    pub recmax: u8,
    /// Consecutive delivery failures per peer (cleared on any success).
    pub failures: HashMap<PeerId, u32>,
    /// Failure count at which a peer is evicted from the routing table.
    pub suspect_after: u32,
    /// Hosted-key count above which a balancing pass
    /// ([`TimerToken::Balance`]) specializes one bit deeper. `usize::MAX`
    /// (the default) disables local balancing, so existing drivers are
    /// unaffected until they opt in.
    pub balance_hot_threshold: usize,
    /// Correlation-id / hop-sequence counter (see
    /// [`ProtocolPeer::seed_sequence`]).
    next_id: u64,
    /// Exchanges we initiated, awaiting answers, by correlation id.
    pending_exchanges: HashMap<u64, PendingExchange>,
    /// Queries already accepted (`true`) or refused (`false`), so
    /// retransmits are re-acked without reprocessing.
    seen_queries: BoundedMap<(PeerId, u64), bool>,
    /// Inserts already accepted, by `(sender, seq)`.
    seen_inserts: BoundedSet<(PeerId, u64)>,
    /// Answers by `(initiator, xid)`: duplicate offers are re-answered
    /// from here because [`ProtocolPeer::handle_offer`] is not idempotent.
    answer_cache: BoundedMap<(PeerId, u64), Message>,
}

impl ProtocolPeer {
    /// Fresh root state.
    pub fn new(id: PeerId, maxl: usize, refmax: usize, recfanout: usize) -> Self {
        assert!(maxl >= 1 && refmax >= 1 && recfanout >= 1);
        ProtocolPeer {
            id,
            path: BitPath::EMPTY,
            refs: RoutingTable::new(),
            index: LeafIndex::new(),
            buddies: Vec::new(),
            misplaced: false,
            maxl,
            refmax,
            recfanout,
            recmax: DEFAULT_RECMAX,
            failures: HashMap::new(),
            suspect_after: DEFAULT_SUSPECT_AFTER,
            balance_hot_threshold: usize::MAX,
            next_id: 1 << 63,
            pending_exchanges: HashMap::new(),
            seen_queries: BoundedMap::new(SEEN_CAP),
            seen_inserts: BoundedSet::new(SEEN_CAP),
            answer_cache: BoundedMap::new(ANSWER_CACHE_CAP),
        }
    }

    /// Derives the correlation-id / hop-sequence stream from a driver
    /// seed. The high bit keeps peer-generated sequence numbers disjoint
    /// from client-generated query ids; the shift keeps distinct seeds'
    /// streams disjoint over any realistic run length.
    pub fn seed_sequence(&mut self, seed: u64) {
        self.next_id = (1 << 63) | (seed << 20);
    }

    fn fresh_id(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    // ---- the event interface -----------------------------------------

    /// Advances the state machine by one event, appending the resulting
    /// effects to `out` (existing contents are preserved, so drivers can
    /// reuse one buffer). Every incoming event is also an anti-entropy
    /// opportunity: entries stranded without a route are re-homed first,
    /// exactly like the live loop retried them on every frame.
    pub fn handle(&mut self, event: Event, ctx: &mut ProtoCtx<'_>, out: &mut Vec<Effect>) {
        self.anti_entropy(ctx, out);
        match event {
            Event::Meet { with, depth } => self.start_exchange(with, depth, out),
            Event::QueryReceived {
                from,
                id,
                origin,
                key,
                matched,
                ttl,
            } => self.on_query(from, id, origin, key, matched, ttl, ctx, out),
            Event::OfferReceived {
                from,
                id,
                depth,
                path,
                level_refs,
            } => self.on_offer(from, id, depth, &path, &level_refs, ctx, out),
            Event::AnswerReceived {
                from,
                id,
                take_bit,
                adopt_refs,
                recurse_with,
            } => self.on_answer(from, id, take_bit, adopt_refs, recurse_with, ctx, out),
            Event::ConfirmReceived { from, path } => {
                ctx.trace(|| TraceEvent::ConfirmApplied {
                    peer: u64::from(from.0),
                });
                self.maybe_add_ref(from, &path, ctx.rng)
            }
            Event::InsertReceived {
                from,
                seq,
                key,
                entry,
            } => self.on_insert(from, seq, key, entry, ctx, out),
            Event::TimerFired { timer } => match timer {
                TimerToken::AntiEntropy => {} // already ran at the head of this call
                TimerToken::Stabilize => self.stabilize(ctx, out),
                TimerToken::Balance => self.balance(ctx, out),
            },
            Event::PeerHeard { peer } => self.note_peer_success(peer),
            Event::PeerSuspected { peer } => {
                if self.note_peer_failure(peer) {
                    ctx.trace(|| TraceEvent::PeerEvicted {
                        peer: u64::from(peer.0),
                    });
                    out.push(Effect::PeerEvicted { peer });
                } else {
                    let failures = self.failures.get(&peer).copied().unwrap_or(0);
                    ctx.trace(|| TraceEvent::PeerDemoted {
                        peer: u64::from(peer.0),
                        failures,
                    });
                }
            }
            Event::PeerGone { peer } => self.forget_peer(peer),
            Event::OfferExpired { id } => {
                self.pending_exchanges.remove(&id);
            }
            Event::ForwardDeadEnd {
                id,
                upstream,
                origin,
            } => {
                if upstream == origin {
                    out.push(Effect::SendAnswer {
                        to: origin,
                        id,
                        msg: Message::QueryFail { id },
                    });
                } else {
                    out.push(Effect::Send {
                        to: upstream,
                        msg: Message::Nack { seq: id },
                    });
                }
            }
            Event::InsertDeadEnd { key, entry } => self.keep_misplaced(key, entry, out),
        }
    }

    /// Begins an exchange with `target` at recursion depth `depth`:
    /// records the pending offer (with a path snapshot for the staleness
    /// check) and emits the offer frame.
    fn start_exchange(&mut self, target: PeerId, depth: u8, out: &mut Vec<Effect>) {
        if target == self.id {
            return;
        }
        let xid = self.fresh_id();
        self.pending_exchanges.insert(
            xid,
            PendingExchange {
                target,
                snapshot: self.path,
                depth,
            },
        );
        out.push(Effect::SendOffer {
            to: target,
            id: xid,
            msg: Message::ExchangeOffer {
                id: xid,
                depth,
                path: self.path,
                level_refs: self
                    .refs
                    .iter()
                    .filter(|(_, r)| !r.is_empty())
                    .map(|(level, r)| (level as u16, r.as_slice().to_vec()))
                    .collect(),
            },
        });
    }

    #[allow(clippy::too_many_arguments)]
    fn on_query(
        &mut self,
        from: PeerId,
        qid: u64,
        origin: PeerId,
        key: BitPath,
        matched: u16,
        ttl: u16,
        ctx: &mut ProtoCtx<'_>,
        out: &mut Vec<Effect>,
    ) {
        if let Some(&accepted) = self.seen_queries.get(&(origin, qid)) {
            // Retransmit or injected duplicate: repeat the receipt verdict
            // without reprocessing.
            if from != origin {
                let msg = if accepted {
                    Message::Ack { seq: qid }
                } else {
                    Message::Nack { seq: qid }
                };
                out.push(Effect::Send { to: from, msg });
            }
            return;
        }
        match self.route(&key, matched, ctx.rng) {
            RouteDecision::Responsible => {
                let full = self.full_key(&key, matched);
                self.seen_queries.insert((origin, qid), true);
                if from != origin {
                    out.push(Effect::Send {
                        to: from,
                        msg: Message::Ack { seq: qid },
                    });
                }
                out.push(Effect::SendAnswer {
                    to: origin,
                    id: qid,
                    msg: Message::QueryOk {
                        id: qid,
                        responsible: self.id,
                        entries: self.index_lookup(&full).to_vec(),
                    },
                });
            }
            RouteDecision::Dead => self.refuse_query(from, qid, origin, out),
            RouteDecision::Forward {
                key,
                matched,
                candidates,
            } => {
                if ttl == 0 {
                    self.refuse_query(from, qid, origin, out);
                    return;
                }
                self.seen_queries.insert((origin, qid), true);
                if from != origin {
                    out.push(Effect::Send {
                        to: from,
                        msg: Message::Ack { seq: qid },
                    });
                }
                out.push(Effect::ForwardQuery {
                    id: qid,
                    upstream: from,
                    origin,
                    candidates,
                    msg: Message::Query {
                        id: qid,
                        origin,
                        key,
                        matched,
                        ttl: ttl - 1,
                    },
                });
            }
        }
    }

    /// The dead-end / TTL-exhausted verdict: the entry hop settles the
    /// query with a failure answer to its client; a mid-route hop pushes
    /// it back upstream so the previous hop fails over.
    fn refuse_query(&mut self, from: PeerId, qid: u64, origin: PeerId, out: &mut Vec<Effect>) {
        if from == origin {
            self.seen_queries.insert((origin, qid), true);
            out.push(Effect::SendAnswer {
                to: origin,
                id: qid,
                msg: Message::QueryFail { id: qid },
            });
        } else {
            self.seen_queries.insert((origin, qid), false);
            out.push(Effect::Send {
                to: from,
                msg: Message::Nack { seq: qid },
            });
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn on_offer(
        &mut self,
        from: PeerId,
        xid: u64,
        depth: u8,
        path: &BitPath,
        level_refs: &[(u16, Vec<PeerId>)],
        ctx: &mut ProtoCtx<'_>,
        out: &mut Vec<Effect>,
    ) {
        if let Some(cached) = self.answer_cache.get(&(from, xid)) {
            // Retransmitted offer: the initiator lost our answer. Repeat
            // it verbatim; re-running handle_offer would split us again.
            let cached = cached.clone();
            out.push(Effect::Send {
                to: from,
                msg: cached,
            });
            return;
        }
        let before = self.path;
        // Re-classifying the *pre*-state is free of side effects and RNG
        // draws (`classify` is pure), so the recorder can name the case
        // this answer applies without threading it out of `handle_offer`.
        ctx.trace(|| {
            let (lc, case) = classify(path, &before, self.maxl);
            TraceEvent::OfferAnswered {
                peer: u64::from(from.0),
                xid,
                case: (&case).into(),
                lc: lc as u32,
            }
        });
        let outcome = self.handle_offer(from, path, level_refs, ctx.rng);
        if self.path != before {
            // Case 1/3 specialized us: entries outside the new path must
            // find their new homes.
            let strays = self.index.extract_foreign(&self.path);
            self.rehome(strays, ctx, out);
        }
        let answer = Message::ExchangeAnswer {
            id: xid,
            responder_path: self.path,
            take_bit: outcome.take_bit,
            adopt_refs: outcome.adopt_refs,
            recurse_with: outcome.recurse_initiator,
        };
        self.answer_cache.insert((from, xid), answer.clone());
        out.push(Effect::Send {
            to: from,
            msg: answer,
        });
        // The responder's own recursion: exchange with peers drawn from
        // the initiator's digest.
        if depth < self.recmax {
            for target in outcome.recurse_responder {
                self.start_exchange(target, depth + 1, out);
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn on_answer(
        &mut self,
        from: PeerId,
        xid: u64,
        take_bit: Option<u8>,
        adopt_refs: Vec<(u16, Vec<PeerId>)>,
        recurse_with: Vec<PeerId>,
        ctx: &mut ProtoCtx<'_>,
        out: &mut Vec<Effect>,
    ) {
        let Some(pe) = self.pending_exchanges.remove(&xid) else {
            return; // unsolicited answer
        };
        if pe.target != from {
            // An answer for our xid from the wrong peer: keep waiting.
            self.pending_exchanges.insert(xid, pe);
            return;
        }
        self.note_peer_success(from);
        if let Some(bit) = take_bit {
            // Only extend if nothing changed since the offer — otherwise
            // the whole answer is stale (the responder computed its case
            // against a path we no longer hold) and we drop it.
            if self.path == pe.snapshot && self.path.len() < self.maxl {
                self.path = self.path.child(bit);
            } else {
                ctx.trace(|| TraceEvent::AnswerApplied {
                    peer: u64::from(from.0),
                    xid,
                    stale: true,
                });
                return; // stale: skip adopt/confirm/recurse entirely
            }
        }
        ctx.trace(|| TraceEvent::AnswerApplied {
            peer: u64::from(from.0),
            xid,
            stale: false,
        });
        for (level, refs) in adopt_refs {
            // Valid even after concurrent growth: levels ≤ the offer-time
            // path depend only on prefixes, which never change. An honest
            // responder names only `lc` and `lc + 1`, both within `maxl`.
            let level = usize::from(level);
            if (1..=self.maxl).contains(&level) {
                let refs = distinct(&refs, &[self.id]);
                let slot = self.refs.level_mut(level);
                slot.union_bounded(&refs, self.refmax, ctx.rng);
            }
        }
        if take_bit.is_some() {
            // Taking a bit may strand entries on the other side.
            let strays = self.index.extract_foreign(&self.path);
            self.rehome(strays, ctx, out);
        }
        // Third leg: tell the responder what we actually hold so it can
        // (only now, race-free) record us as a reference. Best-effort: a
        // lost confirm costs one reference edge, repaired by later
        // exchanges.
        out.push(Effect::Send {
            to: from,
            msg: Message::ExchangeConfirm {
                id: xid,
                path: self.path,
            },
        });
        if pe.depth < self.recmax {
            for target in recurse_with {
                self.start_exchange(target, pe.depth + 1, out);
            }
        }
    }

    fn on_insert(
        &mut self,
        from: PeerId,
        seq: u64,
        key: BitPath,
        entry: WireEntry,
        ctx: &mut ProtoCtx<'_>,
        out: &mut Vec<Effect>,
    ) {
        // Receipt-ack: we take custody of the entry (keep-and-flag below
        // guarantees it is never lost once accepted).
        out.push(Effect::Send {
            to: from,
            msg: Message::Ack { seq },
        });
        if !self.seen_inserts.insert((from, seq)) {
            return; // retransmit of an insert we already own
        }
        if self.responsible_for(&key) {
            self.index_insert(key, entry);
            out.push(Effect::StoreWrite { key, entry });
            return;
        }
        // Not responsible: forward along the structure; with no route the
        // keep-and-flag fallback holds the entry for anti-entropy.
        match self.route(&key, 0, ctx.rng) {
            RouteDecision::Forward { candidates, .. } => {
                self.forward_insert(key, entry, candidates, out)
            }
            _ => self.keep_misplaced(key, entry, out),
        }
    }

    /// Emits a forwarded insert with the *full* key (inserts re-route from
    /// scratch at every hop, keys are absolute), stamped with a fresh hop
    /// sequence.
    fn forward_insert(
        &mut self,
        key: BitPath,
        entry: WireEntry,
        candidates: Vec<PeerId>,
        out: &mut Vec<Effect>,
    ) {
        let seq = self.fresh_id();
        out.push(Effect::ForwardInsert {
            seq,
            key,
            entry,
            candidates,
            msg: Message::IndexInsert { seq, key, entry },
        });
    }

    /// Keeps custody of an entry that has nowhere to go: stored locally,
    /// flagged misplaced, retried by anti-entropy on later traffic.
    fn keep_misplaced(&mut self, key: BitPath, entry: WireEntry, out: &mut Vec<Effect>) {
        self.index_insert(key, entry);
        out.push(Effect::StoreWrite { key, entry });
        if !self.misplaced {
            self.misplaced = true;
            out.push(Effect::SetTimer {
                timer: TimerToken::AntiEntropy,
            });
        }
    }

    /// Re-routes index entries this peer no longer covers: each travels as
    /// an ordinary [`Message::IndexInsert`] through the peer's own routing
    /// table. Entries with no route stay local (still discoverable by
    /// peers that treat this one as covering their coarser prefix).
    fn rehome(
        &mut self,
        strays: Vec<(BitPath, KeyEntries<WireEntry>)>,
        ctx: &mut ProtoCtx<'_>,
        out: &mut Vec<Effect>,
    ) {
        for (key, entries) in strays {
            match self.route(&key, 0, ctx.rng) {
                RouteDecision::Forward { candidates, .. } => {
                    for &entry in entries.iter() {
                        self.forward_insert(key, entry, candidates.clone(), out);
                    }
                }
                _ => {
                    for &entry in entries.iter() {
                        self.keep_misplaced(key, entry, out);
                    }
                }
            }
        }
    }

    fn anti_entropy(&mut self, ctx: &mut ProtoCtx<'_>, out: &mut Vec<Effect>) {
        if !self.misplaced {
            return;
        }
        self.misplaced = false;
        let strays = self.index.extract_foreign(&self.path);
        self.rehome(strays, ctx, out);
    }

    /// One local self-stabilization pass: audit own state against every
    /// validity condition checkable *without remote knowledge*, correcting
    /// in place. Corrects an overlong path (truncate to `maxl`), a path
    /// orphaned from the hosted data (re-derive it as the keys' longest
    /// common prefix), references beyond the path, self-references,
    /// overfull levels (trimmed deterministically from the back), and
    /// foreign index entries (re-homed through the routing table, or kept
    /// flagged when no route exists). Conditions needing remote paths —
    /// wrong-side references, disagreeing replicas — are covered by the
    /// failure/eviction machinery and the exchange handshake instead.
    ///
    /// On a valid state this is a **strict no-op**: no effects, no RNG
    /// draws, no trace events — which is what lets drivers fire
    /// [`TimerToken::Stabilize`] on any cadence without perturbing a
    /// deterministic run.
    fn stabilize(&mut self, ctx: &mut ProtoCtx<'_>, out: &mut Vec<Effect>) {
        let me = u64::from(self.id.0);
        // Path too long: the prefix is the only locally defensible truth.
        if self.path.len() > self.maxl {
            let from_len = self.path.len() as u32;
            ctx.trace(|| TraceEvent::ViolationFound {
                peer: me,
                kind: ViolationTag::PathTooLong,
                level: 0,
            });
            self.path = self.path.prefix(self.maxl);
            let to_len = self.path.len() as u32;
            ctx.trace(|| TraceEvent::PathRederived {
                peer: me,
                from_len,
                to_len,
            });
        }
        // Orphaned path: every hosted entry foreign with no custody flag
        // means the path itself is the corrupted datum; the hosted keys
        // are the best local evidence of the true one.
        if !self.misplaced && !self.index.is_empty() {
            let path = self.path;
            if self.index.iter().all(|(k, _)| !path.responsible_for(k)) {
                let mut keys = self.index.iter().map(|(k, _)| k);
                let first = *keys.next().expect("index is non-empty");
                let derived = keys.fold(first, |acc, k| acc.common_prefix(k));
                let from_len = self.path.len() as u32;
                ctx.trace(|| TraceEvent::ViolationFound {
                    peer: me,
                    kind: ViolationTag::ForeignEntry,
                    level: 0,
                });
                self.path = derived.prefix(derived.len().min(self.maxl));
                let to_len = self.path.len() as u32;
                ctx.trace(|| TraceEvent::PathRederived {
                    peer: me,
                    from_len,
                    to_len,
                });
            }
        }
        // Reference sweeps: clear levels beyond the path, drop
        // self-references, trim overfull levels from the back (the front
        // holds the older, battle-tested references). All deterministic.
        let plen = self.path.len();
        for level in 1..=self.refs.depth() {
            let ids = self.refs.level(level).as_slice();
            let (mut kept, mut removed): (Vec<PeerId>, Vec<PeerId>) =
                ids.iter().partition(|&&r| level <= plen && r != self.id);
            removed.extend(kept.drain(self.refmax.min(kept.len())..).rev());
            if removed.is_empty() {
                continue;
            }
            self.refs.level_mut(level).overwrite(&kept);
            for r in removed {
                ctx.trace(|| TraceEvent::RefEvicted {
                    peer: me,
                    level: level as u32,
                    target: u64::from(r.0),
                });
            }
        }
        // Remaining foreign entries (the path, corrected or not, covers
        // the rest of the index): re-home them through the table like any
        // other stray; with no route they stay flagged for anti-entropy.
        if !self.misplaced {
            let path = self.path;
            if self.index.iter().any(|(k, _)| !path.responsible_for(k)) {
                let strays = self.index.extract_foreign(&self.path);
                for _ in &strays {
                    ctx.trace(|| TraceEvent::ViolationFound {
                        peer: me,
                        kind: ViolationTag::ForeignEntry,
                        level: 0,
                    });
                }
                self.rehome(strays, ctx, out);
            }
        }
    }

    /// One local load-balancing pass: the peer-protocol half of the
    /// grid-level balancer (`PGrid::balance_round` in `pgrid-core`). A peer
    /// hosting more than [`ProtocolPeer::balance_hot_threshold`] keys
    /// specializes one bit toward the heavier child of its current path and
    /// re-homes everything the longer path no longer covers through its own
    /// routing table (entries with no route stay flagged misplaced for
    /// anti-entropy, exactly like any other stray). Replica scaling and
    /// path *retraction* need community knowledge — who else shares the
    /// path, how loaded the sibling group is — so, like the remote half of
    /// stabilization, they stay at the grid/driver level.
    ///
    /// At or below the threshold (or at `maxl`) this is a **strict
    /// no-op**: no effects, no RNG draws, no trace events — so drivers may
    /// fire [`TimerToken::Balance`] on any cadence without perturbing a
    /// deterministic run. The default threshold of `usize::MAX` disables
    /// the pass entirely.
    fn balance(&mut self, ctx: &mut ProtoCtx<'_>, out: &mut Vec<Effect>) {
        if self.index.len() <= self.balance_hot_threshold || self.path.len() >= self.maxl {
            return;
        }
        // Pick the heavier child by counting covered keys under each side.
        // Keys this path is responsible for but that are *shorter* than the
        // child (coarser prefixes) fall to neither side and will re-home.
        let c0 = self.path.child(0);
        let mut under0 = 0usize;
        let mut covered = 0usize;
        for (key, _) in self.index.iter() {
            if c0.is_prefix_of(key) {
                under0 += 1;
                covered += 1;
            } else if self.path.is_prefix_of(key) {
                covered += 1;
            }
        }
        if covered == 0 {
            // Nothing decidable locally: custody strays only. Anti-entropy
            // owns those; deepening blind would be a coin flip.
            return;
        }
        let bit = u8::from(under0 * 2 < covered);
        self.path = self.path.child(bit);
        ctx.trace(|| TraceEvent::PathExtended {
            peer: u64::from(self.id.0),
            to_len: self.path.len() as u32,
        });
        let strays = self.index.extract_foreign(&self.path);
        self.rehome(strays, ctx, out);
    }

    // ---- the state methods the events are built from -----------------

    /// Removes a reference everywhere it appears — used when a delivery
    /// definitively fails (no mailbox: the peer is gone for good). For the
    /// softer signal of *repeated timeouts*, see
    /// [`ProtocolPeer::note_peer_failure`], which demotes gradually and
    /// calls this only once the failure budget is spent.
    fn forget_peer(&mut self, peer: PeerId) {
        for level in 1..=self.refs.depth() {
            self.refs.level_mut(level).remove(peer);
        }
        self.buddies.retain(|&p| p != peer);
        self.failures.remove(&peer);
    }

    /// Records one delivery timeout against `peer`. After
    /// [`ProtocolPeer::suspect_after`] *consecutive* failures the peer is
    /// evicted from the routing table ([`ProtocolPeer::forget_peer`]);
    /// returns `true` exactly when that eviction happened. A
    /// lossy-but-alive peer keeps its place as long as some traffic gets
    /// through ([`ProtocolPeer::note_peer_success`] resets the count).
    fn note_peer_failure(&mut self, peer: PeerId) -> bool {
        let count = self.failures.entry(peer).or_insert(0);
        *count += 1;
        if *count >= self.suspect_after {
            self.forget_peer(peer);
            true
        } else {
            false
        }
    }

    /// Records a successful interaction with `peer`, clearing its
    /// consecutive-failure count.
    fn note_peer_success(&mut self, peer: PeerId) {
        self.failures.remove(&peer);
    }

    /// `true` when this peer must answer queries for `key`.
    pub fn responsible_for(&self, key: &Key) -> bool {
        self.path.responsible_for(key)
    }

    /// Routes one hop of a query: `key` is the remaining query, `matched`
    /// the number of this peer's path bits already consumed. The pure
    /// divergence computation is [`route_step`] (shared with the
    /// simulator's search); this wrapper adds the candidate lookup and the
    /// randomized preference order.
    pub fn route(&self, key: &BitPath, matched: u16, rng: &mut StdRng) -> RouteDecision {
        match route_step(&self.path, matched as usize, key) {
            RouteStep::Responsible => RouteDecision::Responsible,
            RouteStep::Forward { consumed, level } => {
                let mut candidates = Vec::new();
                self.refs.level(level).shuffled_into(rng, &mut candidates);
                if candidates.is_empty() {
                    return RouteDecision::Dead;
                }
                let matched = (matched as usize).min(self.path.len());
                RouteDecision::Forward {
                    key: key.suffix(consumed),
                    matched: (matched + consumed) as u16,
                    candidates,
                }
            }
        }
    }

    /// Reconstructs the full key of a query this peer received with
    /// `matched` of its own path bits consumed.
    fn full_key(&self, remaining: &BitPath, matched: u16) -> Key {
        let matched = (matched as usize).min(self.path.len());
        self.path.prefix(matched).append(remaining)
    }

    /// Inserts an index entry (idempotent per `(item, holder)`, newest
    /// version wins).
    pub fn index_insert(&mut self, key: Key, entry: WireEntry) {
        self.index.insert(key, entry);
    }

    /// The entries stored under exactly `key`.
    pub fn index_lookup(&self, key: &Key) -> &[WireEntry] {
        self.index.lookup(key)
    }

    /// The responder side of the Fig. 3 exchange. Applies this peer's half
    /// of the case (classified by [`classify`], the kernel shared with the
    /// simulator) and returns the initiator's instructions.
    fn handle_offer(
        &mut self,
        initiator: PeerId,
        initiator_path: &BitPath,
        initiator_refs: &[(u16, Vec<PeerId>)],
        rng: &mut StdRng,
    ) -> OfferOutcome {
        let mut out = OfferOutcome::default();
        if initiator == self.id {
            return out;
        }
        let (lc, case) = classify(initiator_path, &self.path, self.maxl);

        let refs_of = |level: usize| -> &[PeerId] {
            let found = initiator_refs.iter().find(|(l, _)| *l as usize == level);
            found.map_or(&[], |(_, r)| r)
        };

        // Mix reference sets at the deepest common level: each peer takes a
        // `refmax` selection of the union of both, neither peer included.
        let refmax = self.refmax;
        if lc > 0 {
            let theirs = distinct(refs_of(lc), &[self.id, initiator]);
            let (mine, mut for_me) = (self.refs.level(lc).as_slice(), Vec::new());
            union_into(mine, &theirs, &mut for_me, &mut Vec::new());
            for_me.retain(|&p| p != self.id && p != initiator);
            let mut for_them = for_me.clone();
            random_select(&mut for_me, refmax, rng);
            random_select(&mut for_them, refmax, rng);
            self.refs.level_mut(lc).union_bounded(&for_me, refmax, rng);
            if !for_them.is_empty() {
                out.adopt_refs.push((lc as u16, for_them));
            }
        }

        match case {
            // Case 1: identical paths below maxl — split the level. The
            // bit assignment is randomized (SplitBitPolicy::Random): the
            // responder extends immediately but the initiator's extension
            // is *conditional* (it declines when a concurrent exchange
            // already specialized it), so the paper's fixed assignment
            // would systematically over-populate the responder's side and
            // leave coverage holes on the other. We also do NOT record the
            // initiator as a reference yet: the ExchangeConfirm leg does
            // that once its path is authoritative.
            ExchangeCase::Split => {
                let (initiator_bit, responder_bit) = split_bits(SplitBitPolicy::Random, rng);
                self.path = self.path.child(responder_bit);
                self.refs.level_mut(lc + 1).overwrite(&[]);
                out.take_bit = Some(initiator_bit);
                out.adopt_refs.push(((lc + 1) as u16, vec![self.id]));
            }
            // Identical full-length paths: replicas — buddy registration.
            ExchangeCase::Replicas => {
                if !self.buddies.contains(&initiator) {
                    self.buddies.push(initiator);
                }
            }
            // Case 2: the initiator's path is a prefix of ours — it
            // specializes opposite to our next bit. Recording it as a
            // reference waits for the confirm leg (same race as Case 1).
            ExchangeCase::FirstSpecializes { bit } => {
                out.take_bit = Some(bit);
                out.adopt_refs.push(((lc + 1) as u16, vec![self.id]));
            }
            // Case 3: our path is a prefix of the initiator's — we
            // specialize opposite to its next bit.
            ExchangeCase::SecondSpecializes { bit } => {
                self.path = self.path.child(bit);
                self.refs.level_mut(lc + 1).overwrite(&[initiator]);
                out.adopt_refs.push(((lc + 1) as u16, vec![self.id]));
            }
            // Case 4: divergence — learn each other, recurse both ways.
            ExchangeCase::Diverged => {
                let (level, k) = (lc + 1, self.recfanout);
                let slot = self.refs.level_mut(level);
                slot.insert_bounded(initiator, refmax, rng);
                out.adopt_refs.push((level as u16, vec![self.id]));
                let (mine, theirs) = (self.refs.level(level), LevelRefs::of(refs_of(level)));
                mine.sample_excluding_into(k, initiator, rng, &mut out.recurse_initiator);
                theirs.sample_excluding_into(k, self.id, rng, &mut out.recurse_responder);
            }
            ExchangeCase::Saturated => {}
        }
        out
    }

    /// Records `peer` (whose authoritative path is `path`) as a reference
    /// at the level where the two paths diverge, if they do. Used by the
    /// confirm leg of the exchange handshake; also a generally safe way to
    /// learn about any peer, since paths only ever extend.
    fn maybe_add_ref(&mut self, peer: PeerId, path: &BitPath, rng: &mut StdRng) {
        if peer == self.id {
            return;
        }
        let lc = self.path.common_prefix_len(path);
        if self.path.len() > lc && path.len() > lc {
            let slot = self.refs.level_mut(lc + 1);
            slot.insert_bounded(peer, self.refmax, rng);
        }
    }

    /// Structural invariant: references never point to this peer itself
    /// and never exceed `refmax`; the path respects `maxl`.
    pub fn check(&self) -> Result<(), String> {
        if self.path.len() > self.maxl {
            return Err(format!("{}: path exceeds maxl", self.id));
        }
        for (level, refs) in self.refs.iter() {
            if refs.len() > self.refmax {
                return Err(format!("{}: refmax exceeded at level {level}", self.id));
            }
            if refs.contains(self.id) {
                return Err(format!("{}: self-reference at level {level}", self.id));
            }
        }
        Ok(())
    }
}

/// `ids` without `not` and without repeats, first occurrences in order: a
/// list from the wire may repeat ids, and the union kernels assume not.
fn distinct(ids: &[PeerId], not: &[PeerId]) -> Vec<PeerId> {
    let mut seen: HashSet<PeerId> = not.iter().copied().collect();
    ids.iter().copied().filter(|&id| seen.insert(id)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgrid_net::draw;
    use rand::{Rng, SeedableRng};

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    fn path(s: &str) -> BitPath {
        BitPath::from_str_lossy(s)
    }

    /// A table holding `levels[i]` at level `i + 1`.
    fn table(levels: &[&[PeerId]]) -> RoutingTable {
        levels.iter().copied().collect()
    }

    #[test]
    fn case1_split_via_offer() {
        let mut responder = ProtocolPeer::new(PeerId(1), 4, 2, 2);
        let mut r = rng();
        let out = responder.handle_offer(PeerId(0), &BitPath::EMPTY, &[], &mut r);
        // The split assignment is randomized; initiator and responder must
        // land on opposite sides.
        let taken = out.take_bit.expect("case 1 instructs the initiator");
        assert_eq!(responder.path.len(), 1);
        assert_eq!(responder.path.bit(0), taken ^ 1);
        assert!(
            responder.refs.level(1).is_empty(),
            "refs wait for the confirm leg"
        );
        assert_eq!(out.adopt_refs, vec![(1, vec![PeerId(1)])]);
        // The confirm leg records the initiator once its path is known.
        let initiator_path = BitPath::EMPTY.child(taken);
        responder.maybe_add_ref(PeerId(0), &initiator_path, &mut r);
        assert_eq!(responder.refs.level(1).as_slice(), [PeerId(0)]);
        responder.check().unwrap();
    }

    #[test]
    fn case2_initiator_specializes_opposite() {
        let mut responder = ProtocolPeer::new(PeerId(1), 4, 2, 2);
        responder.path = path("10");
        responder.refs = table(&[&[], &[]]);
        let mut r = rng();
        let out = responder.handle_offer(PeerId(0), &BitPath::EMPTY, &[], &mut r);
        assert_eq!(out.take_bit, Some(0), "flip of our bit 0 (1)");
        assert!(
            responder.refs.level(1).is_empty(),
            "refs wait for the confirm leg"
        );
        responder.maybe_add_ref(PeerId(0), &path("0"), &mut r);
        assert!(responder.refs.level(1).contains(PeerId(0)));
        responder.check().unwrap();
    }

    #[test]
    fn case3_responder_specializes() {
        let mut responder = ProtocolPeer::new(PeerId(1), 4, 2, 2);
        let mut r = rng();
        let out = responder.handle_offer(PeerId(0), &path("01"), &[], &mut r);
        assert_eq!(out.take_bit, None);
        assert_eq!(responder.path, path("1"), "opposite of initiator's bit 0");
        assert_eq!(responder.refs.level(1).as_slice(), [PeerId(0)]);
        assert_eq!(out.adopt_refs, vec![(1, vec![PeerId(1)])]);
    }

    #[test]
    fn case4_divergence_recursion_candidates() {
        let mut responder = ProtocolPeer::new(PeerId(1), 4, 4, 2);
        responder.path = path("1");
        responder.refs = table(&[&[PeerId(5), PeerId(6), PeerId(7)]]);
        let mut r = rng();
        let out = responder.handle_offer(
            PeerId(0),
            &path("0"),
            &[(1, vec![PeerId(8), PeerId(9)])],
            &mut r,
        );
        assert_eq!(out.take_bit, None);
        // We learned the initiator; it learns us.
        assert!(responder.refs.level(1).contains(PeerId(0)));
        assert!(out.adopt_refs.contains(&(1, vec![PeerId(1)])));
        // Recursion bounded by recfanout = 2.
        assert_eq!(out.recurse_initiator.len(), 2);
        assert!(out
            .recurse_initiator
            .iter()
            .all(|p| [PeerId(5), PeerId(6), PeerId(7)].contains(p)));
        assert_eq!(out.recurse_responder.len(), 2);
        assert!(out
            .recurse_responder
            .iter()
            .all(|p| [PeerId(8), PeerId(9)].contains(p)));
    }

    #[test]
    fn buddies_at_maxl() {
        let mut responder = ProtocolPeer::new(PeerId(1), 2, 2, 2);
        responder.path = path("01");
        let mut r = rng();
        let out = responder.handle_offer(PeerId(0), &path("01"), &[], &mut r);
        assert_eq!(out.take_bit, None);
        assert_eq!(responder.buddies, vec![PeerId(0)]);
        // Idempotent.
        responder.handle_offer(PeerId(0), &path("01"), &[], &mut r);
        assert_eq!(responder.buddies, vec![PeerId(0)]);
    }

    #[test]
    fn ref_mixing_at_common_level() {
        let mut responder = ProtocolPeer::new(PeerId(1), 4, 2, 2);
        responder.path = path("010");
        responder.refs = table(&[&[], &[PeerId(3)], &[]]);
        let mut r = rng();
        // Initiator shares prefix "01" (lc = 2) and has refs at level 2.
        let out = responder.handle_offer(PeerId(0), &path("011"), &[(2, vec![PeerId(4)])], &mut r);
        // Level-2 union {3, 4} is bounded to refmax = 2 on both sides.
        assert!(responder.refs.level(2).len() <= 2 && !responder.refs.level(2).is_empty());
        let adopted = out.adopt_refs.iter().find(|(l, _)| *l == 2);
        assert!(adopted.is_some(), "initiator receives a level-2 mix");
    }

    #[test]
    fn routing_decisions() {
        let mut state = ProtocolPeer::new(PeerId(0), 4, 2, 2);
        state.path = path("0110");
        state.refs = table(&[&[PeerId(1)], &[PeerId(2)], &[PeerId(3)], &[PeerId(4)]]);
        let mut r = rng();
        assert_eq!(
            state.route(&path("0110"), 0, &mut r),
            RouteDecision::Responsible
        );
        assert_eq!(
            state.route(&path("01"), 0, &mut r),
            RouteDecision::Responsible,
            "query shorter than path"
        );
        match state.route(&path("00"), 0, &mut r) {
            RouteDecision::Forward {
                key,
                matched,
                candidates,
            } => {
                assert_eq!(key, path("0"));
                assert_eq!(matched, 1);
                assert_eq!(candidates, vec![PeerId(2)]);
            }
            other => panic!("expected forward, got {other:?}"),
        }
        // Remaining query relative to matched bits.
        match state.route(&path("00"), 2, &mut r) {
            RouteDecision::Forward {
                matched,
                candidates,
                ..
            } => {
                assert_eq!(matched, 2);
                assert_eq!(candidates, vec![PeerId(3)]);
            }
            other => panic!("expected forward, got {other:?}"),
        }
        state.refs.level_mut(2).overwrite(&[]);
        assert_eq!(state.route(&path("00"), 0, &mut r), RouteDecision::Dead);
    }

    #[test]
    fn full_key_reconstruction() {
        let mut state = ProtocolPeer::new(PeerId(0), 4, 2, 2);
        state.path = path("0110");
        assert_eq!(state.full_key(&path("10"), 2), path("0110"));
        assert_eq!(state.full_key(&path("0110"), 0), path("0110"));
    }

    #[test]
    fn index_semantics() {
        let mut state = ProtocolPeer::new(PeerId(0), 4, 2, 2);
        let k = path("0101");
        let e = |v| WireEntry {
            item: 1,
            holder: PeerId(9),
            version: v,
        };
        state.index_insert(k, e(0));
        state.index_insert(k, e(2));
        state.index_insert(k, e(1)); // stale, ignored
        assert_eq!(state.index_lookup(&k), &[e(2)]);
        assert_eq!(state.index_lookup(&path("1")), &[]);
    }

    #[test]
    fn repeated_failures_evict_a_peer() {
        let mut state = ProtocolPeer::new(PeerId(0), 4, 2, 2);
        state.refs = table(&[&[PeerId(1), PeerId(2)]]);
        state.buddies = vec![PeerId(1)];
        assert!(!state.note_peer_failure(PeerId(1)));
        assert!(!state.note_peer_failure(PeerId(1)));
        assert!(state.note_peer_failure(PeerId(1)), "third strike evicts");
        assert_eq!(state.refs.level(1).as_slice(), [PeerId(2)]);
        assert!(state.buddies.is_empty());
        assert!(!state.failures.contains_key(&PeerId(1)));
    }

    #[test]
    fn success_resets_the_failure_count() {
        let mut state = ProtocolPeer::new(PeerId(0), 4, 2, 2);
        state.refs = table(&[&[PeerId(1)]]);
        assert!(!state.note_peer_failure(PeerId(1)));
        assert!(!state.note_peer_failure(PeerId(1)));
        state.note_peer_success(PeerId(1));
        assert!(!state.note_peer_failure(PeerId(1)));
        assert!(!state.note_peer_failure(PeerId(1)));
        assert_eq!(
            state.refs.level(1).as_slice(),
            [PeerId(1)],
            "still referenced"
        );
    }

    #[test]
    fn union_refs_bounds_and_excludes_self() {
        let mut state = ProtocolPeer::new(PeerId(0), 4, 3, 2);
        let mut r = rng();
        let meet = Event::Meet {
            with: PeerId(9),
            depth: 0,
        };
        let Effect::SendOffer { id, .. } = drive(&mut state, &mut r, meet)[0] else {
            panic!("expected an offer")
        };
        let answer = Event::AnswerReceived {
            from: PeerId(9),
            id,
            take_bit: None,
            adopt_refs: vec![(2, (0..5).map(PeerId).collect())],
            recurse_with: Vec::new(),
        };
        drive(&mut state, &mut r, answer);
        assert!(state.refs.level(2).len() <= 3);
        assert!(!state.refs.level(2).contains(PeerId(0)));
        state.check().unwrap();
    }

    /// The old `union_refs` body, which the offer's own-level union and an
    /// answer's adopted levels ran: push each new id that is neither this
    /// peer nor already held, then `swap_remove` a `gen_range` victim while
    /// over `refmax`.
    fn union_refs_by_old_body(
        slot: &mut Vec<PeerId>,
        me: PeerId,
        refmax: usize,
        new: &[PeerId],
        rng: &mut StdRng,
    ) {
        for &p in new {
            if p != me && !slot.contains(&p) {
                slot.push(p);
            }
        }
        while slot.len() > refmax {
            let victim = rng.gen_range(0..slot.len());
            slot.swap_remove(victim);
        }
    }

    /// The responder's level mix before the table: a `contains` union
    /// without both peers, a shuffle-and-truncate per side, then
    /// `union_refs` of this peer's selection. Returns the initiator's.
    fn mix_by_old_body(
        slot: &mut Vec<PeerId>,
        (me, initiator): (PeerId, PeerId),
        refmax: usize,
        theirs: &[PeerId],
        rng: &mut StdRng,
    ) -> Vec<PeerId> {
        let mut union = slot.clone();
        for p in theirs {
            if !union.contains(p) {
                union.push(*p);
            }
        }
        union.retain(|&p| p != me && p != initiator);
        let mut for_me = union.clone();
        draw::shuffle(rng, &mut for_me);
        for_me.truncate(refmax);
        let mut for_them = union;
        draw::shuffle(rng, &mut for_them);
        for_them.truncate(refmax);
        union_refs_by_old_body(slot, me, refmax, &for_me, rng);
        for_them
    }

    /// 512 seeded cases, each an offer's level mix and then an answer's
    /// adopted list on the same level (between two others, so every write
    /// splices), driven through `handle`: own levels below, at and above
    /// `refmax` (a few past the kernels' 128-id scan), remote lists that
    /// overlap the level, repeat ids and name this peer and the initiator.
    /// The kernel path leaves every level the old bodies leave, id for id,
    /// answers the same selection and leaves the RNG where they do.
    #[test]
    fn level_unions_match_the_old_bodies() {
        let (me, initiator, responder) = (PeerId(0), PeerId(1), PeerId(2));
        let (below, above) = ([PeerId(5_000)], [PeerId(5_001), PeerId(5_002)]);
        let mut cases = StdRng::seed_from_u64(0xad07);
        for case in 0..512 {
            let refmax = if case % 16 == 15 {
                cases.gen_range(100..=160)
            } else {
                cases.gen_range(1..=6)
            };
            let universe = 3 * refmax as u32 + 4;
            let mut own: Vec<PeerId> = Vec::new();
            for _ in 0..cases.gen_range(0..=2 * refmax + 1) {
                let id = PeerId(cases.gen_range(0..universe));
                if !own.contains(&id) {
                    own.push(id);
                }
            }
            let list = |cases: &mut StdRng| -> Vec<PeerId> {
                let n = cases.gen_range(0..=3 * refmax);
                (0..n)
                    .map(|_| PeerId(cases.gen_range(0..universe)))
                    .collect()
            };
            let (theirs, adopted) = (list(&mut cases), list(&mut cases));
            // Replicas at `maxl` 2: the level-2 mix is the offer's only draw.
            let mut peer = ProtocolPeer::new(me, 2, refmax, 2);
            peer.path = path("01");
            peer.refs = table(&[&below, &own, &above]);
            let seed: u64 = cases.gen();
            let (mut new_rng, mut old_rng) =
                (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));

            let offer = Event::OfferReceived {
                from: initiator,
                id: 1,
                depth: 0,
                path: path("01"),
                level_refs: vec![(2, theirs.clone())],
            };
            let out = drive(&mut peer, &mut new_rng, offer);
            let Effect::Send {
                msg: Message::ExchangeAnswer { adopt_refs, .. },
                ..
            } = &out[0]
            else {
                panic!("case {case}: expected the answer, got {out:?}")
            };
            let answer = adopt_refs.iter().find(|(l, _)| *l == 2);
            let want = mix_by_old_body(&mut own, (me, initiator), refmax, &theirs, &mut old_rng);
            assert_eq!(
                answer.map_or(&[][..], |(_, ids)| ids),
                want,
                "case {case}: the initiator's selection"
            );
            assert_eq!(peer.refs.level(2).as_slice(), own, "case {case}: mix");

            let meet = Event::Meet {
                with: responder,
                depth: 0,
            };
            let Effect::SendOffer { id, .. } = drive(&mut peer, &mut new_rng, meet)[0] else {
                panic!("case {case}: expected an offer")
            };
            let answer = Event::AnswerReceived {
                from: responder,
                id,
                take_bit: None,
                adopt_refs: vec![(2, adopted.clone())],
                recurse_with: Vec::new(),
            };
            drive(&mut peer, &mut new_rng, answer);
            union_refs_by_old_body(&mut own, me, refmax, &adopted, &mut old_rng);
            assert_eq!(peer.refs.level(2).as_slice(), own, "case {case}: adopt");
            assert_eq!(peer.refs.level(1).as_slice(), below, "case {case}");
            assert_eq!(peer.refs.level(3).as_slice(), above, "case {case}");
            assert_eq!(
                new_rng.gen::<u64>(),
                old_rng.gen::<u64>(),
                "case {case}: RNG position"
            );
        }
    }

    /// Any connected peer can send an offer or an answer whose levels hold
    /// up to 2^20 ids: a level of 2^15 distinct ids plus repeats, this
    /// peer and the initiator leaves at most `refmax` distinct references
    /// per level on both sides, neither peer among them.
    #[test]
    fn oversized_remote_levels_stay_bounded_and_distinct() {
        let (responder_id, initiator_id) = (PeerId(0), PeerId(1));
        let mut huge: Vec<PeerId> = (2..2 + (1 << 15)).map(PeerId).collect();
        huge.extend_from_within(..1 << 10);
        huge.extend([responder_id, initiator_id, PeerId(2), PeerId(3)]);
        let assert_bounded = |peer: &ProtocolPeer, not: PeerId| {
            for (level, refs) in peer.refs.iter() {
                let mut ids = refs.as_slice().to_vec();
                assert!(ids.len() <= peer.refmax, "level {level}: {ids:?}");
                assert!(
                    !ids.contains(&peer.id) && !ids.contains(&not),
                    "level {level}"
                );
                ids.sort_unstable();
                ids.dedup();
                assert_eq!(ids.len(), refs.len(), "level {level}: a repeated id");
            }
        };

        // Responder: both paths share "0" and are at maxl, so the level-1
        // mix is the only reference write.
        let mut responder = ProtocolPeer::new(responder_id, 1, 3, 2);
        responder.path = path("0");
        responder.refs = table(&[&[PeerId(7)]]);
        let mut r = rng();
        let out = drive(
            &mut responder,
            &mut r,
            Event::OfferReceived {
                from: initiator_id,
                id: 5,
                depth: 0,
                path: path("0"),
                level_refs: vec![(1, huge.clone())],
            },
        );
        assert_bounded(&responder, initiator_id);
        let Effect::Send {
            msg: Message::ExchangeAnswer { adopt_refs, .. },
            ..
        } = &out[0]
        else {
            panic!("expected the answer, got {out:?}")
        };
        let [(1, answer)] = adopt_refs.as_slice() else {
            panic!("one level-1 selection expected, got {adopt_refs:?}")
        };
        assert_eq!(answer.len(), 3);
        assert!(!answer.contains(&responder_id) && !answer.contains(&initiator_id));

        // Initiator: an answer adopting the same list.
        let mut initiator = ProtocolPeer::new(initiator_id, 4, 3, 2);
        initiator.path = path("0");
        let offer = drive(
            &mut initiator,
            &mut r,
            Event::Meet {
                with: responder_id,
                depth: 0,
            },
        );
        let Effect::SendOffer { id, .. } = offer[0] else {
            panic!("expected an offer")
        };
        drive(
            &mut initiator,
            &mut r,
            Event::AnswerReceived {
                from: responder_id,
                id,
                take_bit: None,
                adopt_refs: vec![(1, huge.clone()), (2, huge)],
                recurse_with: Vec::new(),
            },
        );
        assert_eq!(initiator.refs.depth(), 2);
        assert_bounded(&initiator, responder_id);
        initiator.check().unwrap();
    }

    /// An honest responder names only `lc` and `lc + 1`, both within
    /// `maxl`; an answer naming a deeper level leaves the table as deep as
    /// the levels it may hold.
    #[test]
    fn adopted_levels_beyond_maxl_are_skipped() {
        let mut p = ProtocolPeer::new(PeerId(0), 4, 2, 2);
        let mut r = rng();
        let offer = drive(
            &mut p,
            &mut r,
            Event::Meet {
                with: PeerId(1),
                depth: 0,
            },
        );
        let Effect::SendOffer { id, .. } = offer[0] else {
            panic!("expected an offer")
        };
        drive(
            &mut p,
            &mut r,
            Event::AnswerReceived {
                from: PeerId(1),
                id,
                take_bit: None,
                adopt_refs: vec![
                    (u16::MAX, vec![PeerId(3)]),
                    (5, vec![PeerId(4)]),
                    (4, vec![PeerId(5)]),
                ],
                recurse_with: Vec::new(),
            },
        );
        assert_eq!(p.refs.depth(), 4, "levels past maxl 4 were adopted");
        assert_eq!(p.refs.level(4).as_slice(), [PeerId(5)]);
        assert_eq!(p.refs.total_refs(), 1);
    }

    // ---- event-layer tests -------------------------------------------

    fn drive(peer: &mut ProtocolPeer, rng: &mut StdRng, event: Event) -> Vec<Effect> {
        let mut out = Vec::new();
        let mut tracer = pgrid_trace::NullTracer;
        peer.handle(
            event,
            &mut ProtoCtx {
                rng,
                tracer: &mut tracer,
            },
            &mut out,
        );
        out
    }

    #[test]
    fn meet_emits_a_tracked_offer() {
        let mut p = ProtocolPeer::new(PeerId(0), 4, 2, 2);
        p.seed_sequence(9);
        let mut r = rng();
        let out = drive(
            &mut p,
            &mut r,
            Event::Meet {
                with: PeerId(1),
                depth: 0,
            },
        );
        assert_eq!(out.len(), 1);
        match &out[0] {
            Effect::SendOffer {
                to,
                id,
                msg:
                    Message::ExchangeOffer {
                        id: mid,
                        depth,
                        path,
                        ..
                    },
            } => {
                assert_eq!(*to, PeerId(1));
                assert_eq!(id, mid);
                assert_eq!(*depth, 0);
                assert_eq!(*path, BitPath::EMPTY);
                assert!(p.pending_exchanges.contains_key(id));
            }
            other => panic!("expected SendOffer, got {other:?}"),
        }
        // Meeting oneself is a no-op.
        assert!(drive(
            &mut p,
            &mut r,
            Event::Meet {
                with: PeerId(0),
                depth: 0
            }
        )
        .is_empty());
    }

    #[test]
    fn offer_answer_confirm_round_trip() {
        let mut a = ProtocolPeer::new(PeerId(0), 4, 2, 2);
        let mut b = ProtocolPeer::new(PeerId(1), 4, 2, 2);
        a.seed_sequence(1);
        b.seed_sequence(2);
        let mut ra = rng();
        let mut rb = StdRng::seed_from_u64(43);
        let offer = drive(
            &mut a,
            &mut ra,
            Event::Meet {
                with: PeerId(1),
                depth: 0,
            },
        );
        let Effect::SendOffer {
            id,
            msg:
                Message::ExchangeOffer {
                    depth,
                    path,
                    level_refs,
                    ..
                },
            ..
        } = offer[0].clone()
        else {
            panic!("expected SendOffer")
        };
        let answers = drive(
            &mut b,
            &mut rb,
            Event::OfferReceived {
                from: PeerId(0),
                id,
                depth,
                path,
                level_refs,
            },
        );
        let Effect::Send {
            msg:
                Message::ExchangeAnswer {
                    take_bit,
                    adopt_refs,
                    recurse_with,
                    ..
                },
            ..
        } = answers[0].clone()
        else {
            panic!("expected answer")
        };
        let confirms = drive(
            &mut a,
            &mut ra,
            Event::AnswerReceived {
                from: PeerId(1),
                id,
                take_bit,
                adopt_refs,
                recurse_with,
            },
        );
        // Case 1: both specialized to opposite sides, confirm leg sent.
        assert_eq!(a.path.len(), 1);
        assert_eq!(b.path.len(), 1);
        assert_eq!(a.path.bit(0), b.path.bit(0) ^ 1);
        let Effect::Send {
            to,
            msg: Message::ExchangeConfirm { path: cpath, .. },
        } = confirms.last().unwrap().clone()
        else {
            panic!("expected confirm")
        };
        assert_eq!(to, PeerId(1));
        let _ = drive(
            &mut b,
            &mut rb,
            Event::ConfirmReceived {
                from: PeerId(0),
                path: cpath,
            },
        );
        assert_eq!(
            b.refs.level(1).as_slice(),
            [PeerId(0)],
            "confirm leg records the initiator"
        );
        assert!(
            a.pending_exchanges.is_empty(),
            "answer settled the exchange"
        );
    }

    #[test]
    fn duplicate_offer_is_re_answered_from_cache() {
        let mut b = ProtocolPeer::new(PeerId(1), 4, 2, 2);
        let mut rb = rng();
        let offer = Event::OfferReceived {
            from: PeerId(0),
            id: 77,
            depth: 0,
            path: BitPath::EMPTY,
            level_refs: Vec::new(),
        };
        let first = drive(&mut b, &mut rb, offer.clone());
        let path_after = b.path;
        let second = drive(&mut b, &mut rb, offer);
        assert_eq!(b.path, path_after, "re-running the case would split again");
        assert_eq!(first, second, "cached answer repeats verbatim");
    }

    #[test]
    fn stale_answer_is_dropped_entirely() {
        let mut a = ProtocolPeer::new(PeerId(0), 4, 2, 2);
        a.seed_sequence(1);
        let mut ra = rng();
        let offer = drive(
            &mut a,
            &mut ra,
            Event::Meet {
                with: PeerId(1),
                depth: 0,
            },
        );
        let Effect::SendOffer { id, .. } = offer[0] else {
            panic!()
        };
        // A concurrent exchange specializes us in the meantime.
        a.path = a.path.child(1);
        let out = drive(
            &mut a,
            &mut ra,
            Event::AnswerReceived {
                from: PeerId(1),
                id,
                take_bit: Some(0),
                adopt_refs: vec![(1, vec![PeerId(1)])],
                recurse_with: Vec::new(),
            },
        );
        assert!(
            out.is_empty(),
            "stale answer: no adopt, no confirm, no recurse"
        );
        assert_eq!(
            a.path,
            BitPath::EMPTY.child(1),
            "path unchanged by the answer"
        );
        assert_eq!(a.refs.total_refs(), 0, "no refs adopted");
    }

    #[test]
    fn query_events_route_answer_and_dead_end() {
        let mut p = ProtocolPeer::new(PeerId(0), 4, 2, 2);
        p.path = path("0");
        p.refs = table(&[&[PeerId(1)]]);
        let mut r = rng();
        // Responsible: answer the origin, ack the upstream hop.
        let out = drive(
            &mut p,
            &mut r,
            Event::QueryReceived {
                from: PeerId(9),
                id: 1,
                origin: PeerId(100),
                key: path("0"),
                matched: 0,
                ttl: 8,
            },
        );
        assert!(matches!(
            out[0],
            Effect::Send {
                to: PeerId(9),
                msg: Message::Ack { seq: 1 }
            }
        ));
        assert!(matches!(
            &out[1],
            Effect::SendAnswer {
                to: PeerId(100),
                msg: Message::QueryOk { .. },
                ..
            }
        ));
        // Divergent key: forwarded along level-1 references.
        let out = drive(
            &mut p,
            &mut r,
            Event::QueryReceived {
                from: PeerId(100),
                id: 2,
                origin: PeerId(100),
                key: path("1"),
                matched: 0,
                ttl: 8,
            },
        );
        match &out[0] {
            Effect::ForwardQuery {
                id,
                candidates,
                msg: Message::Query { ttl, .. },
                ..
            } => {
                assert_eq!(*id, 2);
                assert_eq!(candidates, &vec![PeerId(1)]);
                assert_eq!(*ttl, 7, "budget decremented per hop");
            }
            other => panic!("expected ForwardQuery, got {other:?}"),
        }
        // Duplicate delivery: verdict repeated without reprocessing.
        let out = drive(
            &mut p,
            &mut r,
            Event::QueryReceived {
                from: PeerId(9),
                id: 1,
                origin: PeerId(100),
                key: path("0"),
                matched: 0,
                ttl: 8,
            },
        );
        assert_eq!(out.len(), 1);
        assert!(matches!(
            out[0],
            Effect::Send {
                msg: Message::Ack { seq: 1 },
                ..
            }
        ));
        // Dead end mid-route: nack upstream.
        p.refs.level_mut(1).overwrite(&[]);
        let out = drive(
            &mut p,
            &mut r,
            Event::QueryReceived {
                from: PeerId(9),
                id: 3,
                origin: PeerId(100),
                key: path("1"),
                matched: 0,
                ttl: 8,
            },
        );
        assert!(matches!(
            out[0],
            Effect::Send {
                to: PeerId(9),
                msg: Message::Nack { seq: 3 }
            }
        ));
        // The dead-end verdict for an exhausted forward.
        let out = drive(
            &mut p,
            &mut r,
            Event::ForwardDeadEnd {
                id: 2,
                upstream: PeerId(100),
                origin: PeerId(100),
            },
        );
        assert!(matches!(
            out[0],
            Effect::SendAnswer {
                to: PeerId(100),
                msg: Message::QueryFail { id: 2 },
                ..
            }
        ));
    }

    #[test]
    fn insert_events_store_forward_and_keep_custody() {
        let mut p = ProtocolPeer::new(PeerId(0), 4, 2, 2);
        p.path = path("0");
        p.refs = table(&[&[PeerId(1)]]);
        p.seed_sequence(5);
        let mut r = rng();
        let e = WireEntry {
            item: 1,
            holder: PeerId(9),
            version: 0,
        };
        // Responsible: ack + store.
        let out = drive(
            &mut p,
            &mut r,
            Event::InsertReceived {
                from: PeerId(8),
                seq: 10,
                key: path("01"),
                entry: e,
            },
        );
        assert!(matches!(
            out[0],
            Effect::Send {
                msg: Message::Ack { seq: 10 },
                ..
            }
        ));
        assert!(matches!(out[1], Effect::StoreWrite { .. }));
        assert_eq!(p.index_lookup(&path("01")), &[e]);
        // Duplicate: re-acked, not re-processed.
        let out = drive(
            &mut p,
            &mut r,
            Event::InsertReceived {
                from: PeerId(8),
                seq: 10,
                key: path("01"),
                entry: e,
            },
        );
        assert_eq!(out.len(), 1);
        // Not responsible: forwarded with a fresh hop sequence.
        let out = drive(
            &mut p,
            &mut r,
            Event::InsertReceived {
                from: PeerId(8),
                seq: 11,
                key: path("11"),
                entry: e,
            },
        );
        match &out[1] {
            Effect::ForwardInsert {
                seq, candidates, ..
            } => {
                assert!(*seq >= 1 << 63, "hop sequences live in the high range");
                assert_eq!(candidates, &vec![PeerId(1)]);
            }
            other => panic!("expected ForwardInsert, got {other:?}"),
        }
        // All candidates spent: keep custody, flag for anti-entropy.
        let out = drive(
            &mut p,
            &mut r,
            Event::InsertDeadEnd {
                key: path("11"),
                entry: e,
            },
        );
        assert!(matches!(out[0], Effect::StoreWrite { .. }));
        assert!(matches!(
            out[1],
            Effect::SetTimer {
                timer: TimerToken::AntiEntropy
            }
        ));
        assert!(p.misplaced);
        assert_eq!(p.index_lookup(&path("11")), &[e]);
        // The next event re-homes the stranded entry through the table.
        let out = drive(&mut p, &mut r, Event::PeerHeard { peer: PeerId(1) });
        assert!(matches!(out[0], Effect::ForwardInsert { .. }));
        assert!(!p.misplaced);
        assert!(p.index_lookup(&path("11")).is_empty());
    }

    #[test]
    fn failure_events_demote_and_evict() {
        let mut p = ProtocolPeer::new(PeerId(0), 4, 2, 2);
        p.refs = table(&[&[PeerId(1), PeerId(2)]]);
        let mut r = rng();
        assert!(drive(&mut p, &mut r, Event::PeerSuspected { peer: PeerId(1) }).is_empty());
        assert!(drive(&mut p, &mut r, Event::PeerSuspected { peer: PeerId(1) }).is_empty());
        let out = drive(&mut p, &mut r, Event::PeerSuspected { peer: PeerId(1) });
        assert!(matches!(out[0], Effect::PeerEvicted { peer: PeerId(1) }));
        assert_eq!(p.refs.level(1).as_slice(), [PeerId(2)]);
        // Definitive departure prunes immediately, silently.
        assert!(drive(&mut p, &mut r, Event::PeerGone { peer: PeerId(2) }).is_empty());
        assert!(p.refs.level(1).is_empty());
    }

    #[test]
    fn stabilize_is_a_strict_noop_on_valid_state() {
        use rand::RngCore;
        let mut p = ProtocolPeer::new(PeerId(0), 4, 2, 2);
        p.path = path("01");
        p.refs = table(&[&[PeerId(1)], &[PeerId(2)]]);
        p.index_insert(
            path("0110"),
            WireEntry {
                item: 1,
                holder: PeerId(9),
                version: 0,
            },
        );
        let before = p.clone();
        let mut r = rng();
        let mut witness = rng();
        let out = drive(
            &mut p,
            &mut r,
            Event::TimerFired {
                timer: TimerToken::Stabilize,
            },
        );
        assert!(out.is_empty(), "no effects on a valid peer: {out:?}");
        assert_eq!(p.path, before.path);
        assert_eq!(p.refs, before.refs);
        assert_eq!(p.index, before.index);
        // Zero RNG draws: the stream is exactly where an untouched clone's is.
        assert_eq!(
            r.next_u64(),
            witness.next_u64(),
            "stabilize must not draw randomness"
        );
    }

    #[test]
    fn stabilize_corrects_local_corruption() {
        let mut p = ProtocolPeer::new(PeerId(0), 3, 2, 2);
        // Path beyond maxl, self-reference, overfull level, refs beyond
        // the (truncated) path.
        p.path = path("01101");
        p.refs = table(&[
            &[PeerId(1), PeerId(0), PeerId(2), PeerId(3)],
            &[PeerId(4)],
            &[PeerId(5)],
            &[PeerId(6)], // beyond the truncated path
        ]);
        let mut r = rng();
        let out = drive(
            &mut p,
            &mut r,
            Event::TimerFired {
                timer: TimerToken::Stabilize,
            },
        );
        assert!(
            out.is_empty(),
            "corrections are local state changes: {out:?}"
        );
        assert_eq!(p.path, path("011"), "truncated to maxl");
        assert_eq!(
            p.refs.level(1).as_slice(),
            [PeerId(1), PeerId(2)],
            "self dropped, then back-trimmed"
        );
        assert_eq!(p.refs.level(2).as_slice(), [PeerId(4)]);
        assert_eq!(p.refs.level(3).as_slice(), [PeerId(5)]);
        assert!(p.refs.level(4).is_empty(), "level 4 is beyond the path");
        p.check().unwrap();
    }

    #[test]
    fn stabilize_rederives_an_orphaned_path_from_hosted_data() {
        let mut p = ProtocolPeer::new(PeerId(0), 4, 2, 2);
        p.path = path("10"); // corrupted: the data below says "01..."
        p.refs = table(&[&[PeerId(1)], &[PeerId(2)]]);
        let e = WireEntry {
            item: 1,
            holder: PeerId(9),
            version: 0,
        };
        p.index_insert(path("0110"), e);
        p.index_insert(path("0101"), e);
        let mut r = rng();
        let out = drive(
            &mut p,
            &mut r,
            Event::TimerFired {
                timer: TimerToken::Stabilize,
            },
        );
        assert!(out.is_empty());
        assert_eq!(
            p.path,
            path("01"),
            "longest common prefix of the hosted keys"
        );
        assert_eq!(
            p.index.len(),
            2,
            "data stays: it is the evidence, not the error"
        );
    }

    #[test]
    fn stabilize_rehomes_a_foreign_entry() {
        let mut p = ProtocolPeer::new(PeerId(0), 4, 2, 2);
        p.path = path("0");
        p.refs = table(&[&[PeerId(1)]]);
        let e = WireEntry {
            item: 7,
            holder: PeerId(9),
            version: 0,
        };
        let local = WireEntry {
            item: 8,
            holder: PeerId(9),
            version: 0,
        };
        p.index_insert(path("00"), local); // keeps the index non-orphaned
        p.index.insert(path("11"), e); // injected foreign entry
        let mut r = rng();
        let out = drive(
            &mut p,
            &mut r,
            Event::TimerFired {
                timer: TimerToken::Stabilize,
            },
        );
        match &out[0] {
            Effect::ForwardInsert {
                key, candidates, ..
            } => {
                assert_eq!(*key, path("11"));
                assert_eq!(candidates, &vec![PeerId(1)]);
            }
            other => panic!("expected ForwardInsert, got {other:?}"),
        }
        assert!(p.index_lookup(&path("11")).is_empty(), "foreign entry left");
        assert_eq!(p.index_lookup(&path("00")), &[local], "local entry stays");
        // With no route at all, custody is kept and flagged instead.
        let mut q = ProtocolPeer::new(PeerId(0), 4, 2, 2);
        q.path = path("0");
        q.index_insert(path("00"), local);
        q.index.insert(path("11"), e);
        let out = drive(
            &mut q,
            &mut r,
            Event::TimerFired {
                timer: TimerToken::Stabilize,
            },
        );
        assert!(out.iter().any(|ef| matches!(ef, Effect::StoreWrite { .. })));
        assert!(q.misplaced, "no route: keep custody, flag for anti-entropy");
        assert_eq!(q.index_lookup(&path("11")), &[e]);
    }

    #[test]
    fn balance_is_a_strict_noop_below_threshold() {
        use rand::RngCore;
        let mut p = ProtocolPeer::new(PeerId(0), 4, 2, 2);
        p.path = path("01");
        p.refs = table(&[&[PeerId(1)], &[PeerId(2)]]);
        let e = WireEntry {
            item: 1,
            holder: PeerId(9),
            version: 0,
        };
        p.index_insert(path("0110"), e);
        p.index_insert(path("0101"), e);
        p.balance_hot_threshold = 2; // exactly at the threshold: still cool
        let before = p.clone();
        let mut r = rng();
        let mut witness = rng();
        let out = drive(
            &mut p,
            &mut r,
            Event::TimerFired {
                timer: TimerToken::Balance,
            },
        );
        assert!(out.is_empty(), "no effects on a cool peer: {out:?}");
        assert_eq!(p.path, before.path);
        assert_eq!(p.index, before.index);
        assert_eq!(
            r.next_u64(),
            witness.next_u64(),
            "balance must not draw randomness"
        );

        // A hot peer already at maxl has no bit left to take: same contract.
        let mut q = ProtocolPeer::new(PeerId(0), 2, 2, 2);
        q.path = path("01");
        q.refs = table(&[&[PeerId(1)], &[PeerId(2)]]);
        q.index_insert(path("01"), e);
        q.balance_hot_threshold = 0;
        let mut r2 = rng();
        let mut witness = rng();
        let out = drive(
            &mut q,
            &mut r2,
            Event::TimerFired {
                timer: TimerToken::Balance,
            },
        );
        assert!(out.is_empty(), "maxl peer cannot specialize: {out:?}");
        assert_eq!(q.path, path("01"));
        assert_eq!(r2.next_u64(), witness.next_u64());
    }

    #[test]
    fn balance_splits_toward_the_heavier_child_and_rehomes() {
        let mut p = ProtocolPeer::new(PeerId(0), 4, 2, 2);
        p.path = path("0");
        p.refs = table(&[&[PeerId(1)], &[PeerId(2)]]);
        let e = WireEntry {
            item: 1,
            holder: PeerId(9),
            version: 0,
        };
        p.index_insert(path("0110"), e);
        p.index_insert(path("0101"), e);
        p.index_insert(path("0011"), e);
        p.balance_hot_threshold = 2;
        let mut r = rng();
        let out = drive(
            &mut p,
            &mut r,
            Event::TimerFired {
                timer: TimerToken::Balance,
            },
        );
        assert_eq!(p.path, path("01"), "two of three keys sit under child 1");
        match out
            .iter()
            .find(|ef| matches!(ef, Effect::ForwardInsert { .. }))
            .expect("the stranded 00-side key travels as an insert")
        {
            Effect::ForwardInsert {
                key, candidates, ..
            } => {
                assert_eq!(*key, path("0011"));
                assert_eq!(
                    candidates,
                    &vec![PeerId(2)],
                    "level-2 ref covers the 00 side"
                );
            }
            _ => unreachable!(),
        }
        assert!(
            p.index_lookup(&path("0011")).is_empty(),
            "stray left the index"
        );
        assert_eq!(p.index.len(), 2, "covered keys stay put");

        // With no route for the stray, custody is kept flagged instead.
        let mut q = ProtocolPeer::new(PeerId(0), 4, 2, 2);
        q.path = path("0");
        q.index_insert(path("0110"), e);
        q.index_insert(path("0101"), e);
        q.index_insert(path("0011"), e);
        q.balance_hot_threshold = 2;
        let out = drive(
            &mut q,
            &mut r,
            Event::TimerFired {
                timer: TimerToken::Balance,
            },
        );
        assert_eq!(q.path, path("01"));
        assert!(out.iter().any(|ef| matches!(ef, Effect::StoreWrite { .. })));
        assert!(q.misplaced, "no route: keep custody, flag for anti-entropy");
    }

    #[test]
    fn unsolicited_answer_does_not_mutate_state() {
        let mut p = ProtocolPeer::new(PeerId(0), 4, 2, 2);
        let mut r = rng();
        let before = p.clone();
        let out = drive(
            &mut p,
            &mut r,
            Event::AnswerReceived {
                from: PeerId(3),
                id: 999,
                take_bit: Some(1),
                adopt_refs: vec![(1, vec![PeerId(3)])],
                recurse_with: vec![PeerId(4)],
            },
        );
        assert!(out.is_empty());
        assert_eq!(p.path, before.path);
        assert_eq!(p.refs, before.refs);
    }
}
