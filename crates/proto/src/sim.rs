//! The deterministic inline driver: live-node peers over a faultless FIFO
//! network.
//!
//! [`SimNet`] runs the *production* [`ProtocolPeer`] state machines — the
//! exact type the live actor shell runs — with every I/O concern replaced
//! by an in-memory queue: frames deliver in FIFO order, nothing is lost,
//! reordered, or duplicated, and "time" is just queue draining. It mirrors
//! the live shell's frame→event mapping exactly (acks feed
//! [`Event::PeerHeard`], nacks fail a forward over to its next candidate,
//! exhausted candidate lists feed the dead-end events, the client
//! auto-acks its answers), so a seeded [`SimNet`] run reproduces the
//! protocol decisions of a seeded live-cluster run bit for bit.

use std::collections::{BTreeMap, HashMap, VecDeque};

use pgrid_keys::BitPath;
use pgrid_net::PeerId;
use pgrid_wire::{Message, WireEntry};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::event::{Effect, Event};
use crate::peer::{ProtoCtx, ProtocolPeer};

/// A query or insert forward awaiting its downstream ack, with the
/// remaining failover candidates.
#[derive(Clone, Debug)]
struct PendingForward {
    upstream: PeerId,
    origin: PeerId,
    rest: Vec<PeerId>,
    msg: Message,
}

/// An insert forward awaiting its downstream ack.
#[derive(Clone, Debug)]
struct PendingInsert {
    key: BitPath,
    entry: WireEntry,
    rest: Vec<PeerId>,
    msg: Message,
}

/// The inline network of [`ProtocolPeer`]s. Construct with the client id
/// (the external origin of queries and inserts), add seeded peers, then
/// drive meetings, inserts, and queries; [`SimNet::run`] drains the frame
/// queue to quiescence after each.
pub struct SimNet {
    peers: BTreeMap<PeerId, ProtocolPeer>,
    rngs: BTreeMap<PeerId, StdRng>,
    queue: VecDeque<(PeerId, PeerId, Message)>,
    forwards: HashMap<(PeerId, u64), PendingForward>,
    inserts: HashMap<(PeerId, u64), PendingInsert>,
    /// Answers delivered to the client, in delivery order.
    answers: Vec<(u64, Message)>,
    client: PeerId,
    /// Effect scratch buffer, reused across deliveries.
    scratch: Vec<Effect>,
}

impl SimNet {
    /// An empty network whose external client is `client`.
    pub fn new(client: PeerId) -> Self {
        SimNet {
            peers: BTreeMap::new(),
            rngs: BTreeMap::new(),
            queue: VecDeque::new(),
            forwards: HashMap::new(),
            inserts: HashMap::new(),
            answers: Vec::new(),
            client,
            scratch: Vec::new(),
        }
    }

    /// Adds `peer`, deriving its protocol RNG and sequence stream from
    /// `seed` exactly like the live shell does.
    pub fn add_peer(&mut self, mut peer: ProtocolPeer, seed: u64) {
        peer.seed_sequence(seed);
        self.rngs.insert(peer.id, StdRng::seed_from_u64(seed));
        self.peers.insert(peer.id, peer);
    }

    /// Read access to a peer's protocol state.
    pub fn peer(&self, id: PeerId) -> &ProtocolPeer {
        &self.peers[&id]
    }

    /// Ids of all peers, in id order.
    pub fn peer_ids(&self) -> Vec<PeerId> {
        self.peers.keys().copied().collect()
    }

    /// The answers the client received so far, in delivery order.
    pub fn answers(&self) -> &[(u64, Message)] {
        &self.answers
    }

    /// Introduces `a` to `b` (the cluster driver's "you two just met") and
    /// runs the resulting exchange chain to quiescence.
    pub fn meet(&mut self, a: PeerId, b: PeerId) {
        self.queue
            .push_back((self.client, a, Message::Meet { with: b }));
        self.run();
    }

    /// Injects an index entry at `entry_node` (client-stamped sequence
    /// `seq`) and runs the forwarding chain to quiescence.
    pub fn insert(&mut self, entry_node: PeerId, seq: u64, key: BitPath, entry: WireEntry) {
        self.queue.push_back((
            self.client,
            entry_node,
            Message::IndexInsert { seq, key, entry },
        ));
        self.run();
    }

    /// Issues query `qid` for `key` at `entry_node` and runs it to
    /// quiescence. Returns the responsible peer and its entries, or `None`
    /// when the query failed (or produced no answer).
    pub fn query(
        &mut self,
        entry_node: PeerId,
        qid: u64,
        key: BitPath,
        ttl: u16,
    ) -> Option<(PeerId, Vec<WireEntry>)> {
        self.queue.push_back((
            self.client,
            entry_node,
            Message::Query {
                id: qid,
                origin: self.client,
                key,
                matched: 0,
                ttl,
            },
        ));
        self.run();
        self.answers.iter().rev().find_map(|(id, msg)| {
            if *id != qid {
                return None;
            }
            match msg {
                Message::QueryOk {
                    responsible,
                    entries,
                    ..
                } => Some(Some((*responsible, entries.clone()))),
                _ => Some(None),
            }
        })?
    }

    /// Drains the frame queue to quiescence.
    pub fn run(&mut self) {
        while let Some((from, to, msg)) = self.queue.pop_front() {
            if to == self.client {
                self.deliver_to_client(from, msg);
            } else {
                self.deliver(from, to, msg);
            }
        }
    }

    /// The client's half of the protocol: record answers and ack them
    /// (the live cluster's client drain does the same).
    fn deliver_to_client(&mut self, from: PeerId, msg: Message) {
        match msg {
            Message::QueryOk { id, .. } | Message::QueryFail { id } => {
                self.answers.push((id, msg));
                self.queue
                    .push_back((self.client, from, Message::Ack { seq: id }));
            }
            Message::Ack { .. } | Message::Nack { .. } => {}
            other => panic!("client received unexpected frame {other:?}"),
        }
    }

    /// One frame delivery to a peer: the same frame→event mapping the live
    /// shell performs, minus everything that only exists because of faults.
    fn deliver(&mut self, from: PeerId, to: PeerId, msg: Message) {
        if !self.peers.contains_key(&to) {
            return;
        }
        let event = match msg {
            Message::Meet { with } => Event::Meet { with, depth: 0 },
            Message::Query {
                id,
                origin,
                key,
                matched,
                ttl,
            } => Event::QueryReceived {
                from,
                id,
                origin,
                key,
                matched,
                ttl,
            },
            Message::ExchangeOffer {
                id,
                depth,
                path,
                level_refs,
            } => Event::OfferReceived {
                from,
                id,
                depth,
                path,
                level_refs,
            },
            Message::ExchangeAnswer {
                id,
                take_bit,
                adopt_refs,
                recurse_with,
                ..
            } => Event::AnswerReceived {
                from,
                id,
                take_bit,
                adopt_refs,
                recurse_with,
            },
            Message::ExchangeConfirm { path, .. } => Event::ConfirmReceived { from, path },
            Message::IndexInsert { seq, key, entry } => Event::InsertReceived {
                from,
                seq,
                key,
                entry,
            },
            Message::Ack { seq } => {
                self.forwards.remove(&(to, seq));
                self.inserts.remove(&(to, seq));
                Event::PeerHeard { peer: from }
            }
            Message::Nack { seq } => {
                self.dispatch(to, Event::PeerHeard { peer: from });
                self.fail_over(to, seq);
                return;
            }
            // Liveness probes and stray answers: the shell handles these
            // without consulting the state machine.
            Message::Ping { nonce } => {
                self.queue.push_back((to, from, Message::Pong { nonce }));
                return;
            }
            Message::Pong { .. }
            | Message::QueryOk { .. }
            | Message::QueryFail { .. }
            | Message::Shutdown => return,
        };
        self.dispatch(to, event);
    }

    /// Runs one event through a peer's state machine and applies the
    /// resulting effects.
    fn dispatch(&mut self, at: PeerId, event: Event) {
        let mut out = std::mem::take(&mut self.scratch);
        out.clear();
        {
            let peer = self.peers.get_mut(&at).expect("dispatch to known peer");
            let rng = self.rngs.get_mut(&at).expect("every peer has an rng");
            let mut tracer = pgrid_trace::NullTracer;
            peer.handle(
                event,
                &mut ProtoCtx {
                    rng,
                    tracer: &mut tracer,
                },
                &mut out,
            );
        }
        for effect in out.drain(..) {
            self.apply(at, effect);
        }
        self.scratch = out;
    }

    /// Applies one effect emitted by the peer `at`.
    fn apply(&mut self, at: PeerId, effect: Effect) {
        match effect {
            Effect::Send { to, msg } => self.queue.push_back((at, to, msg)),
            Effect::SendOffer { to, msg, .. } => self.queue.push_back((at, to, msg)),
            Effect::SendAnswer { to, msg, .. } => self.queue.push_back((at, to, msg)),
            Effect::ForwardQuery {
                id,
                upstream,
                origin,
                mut candidates,
                msg,
            } => {
                if candidates.is_empty() {
                    self.dispatch(
                        at,
                        Event::ForwardDeadEnd {
                            id,
                            upstream,
                            origin,
                        },
                    );
                    return;
                }
                let first = candidates.remove(0);
                self.forwards.insert(
                    (at, id),
                    PendingForward {
                        upstream,
                        origin,
                        rest: candidates,
                        msg: msg.clone(),
                    },
                );
                self.queue.push_back((at, first, msg));
            }
            Effect::ForwardInsert {
                seq,
                key,
                entry,
                mut candidates,
                msg,
            } => {
                if candidates.is_empty() {
                    self.dispatch(at, Event::InsertDeadEnd { key, entry });
                    return;
                }
                let first = candidates.remove(0);
                self.inserts.insert(
                    (at, seq),
                    PendingInsert {
                        key,
                        entry,
                        rest: candidates,
                        msg: msg.clone(),
                    },
                );
                self.queue.push_back((at, first, msg));
            }
            // No durable store, no timers, no eviction counters in the
            // inline driver.
            Effect::StoreWrite { .. } | Effect::SetTimer { .. } | Effect::PeerEvicted { .. } => {}
        }
    }

    /// A nack for `seq` arrived at `at`: move the matching forward to its
    /// next candidate, or feed the dead-end verdict back into the peer.
    fn fail_over(&mut self, at: PeerId, seq: u64) {
        if let Some(mut pf) = self.forwards.remove(&(at, seq)) {
            if pf.rest.is_empty() {
                self.dispatch(
                    at,
                    Event::ForwardDeadEnd {
                        id: seq,
                        upstream: pf.upstream,
                        origin: pf.origin,
                    },
                );
            } else {
                let next = pf.rest.remove(0);
                let msg = pf.msg.clone();
                self.forwards.insert((at, seq), pf);
                self.queue.push_back((at, next, msg));
            }
            return;
        }
        if let Some(mut pi) = self.inserts.remove(&(at, seq)) {
            if pi.rest.is_empty() {
                self.dispatch(
                    at,
                    Event::InsertDeadEnd {
                        key: pi.key,
                        entry: pi.entry,
                    },
                );
            } else {
                let next = pi.rest.remove(0);
                let msg = pi.msg.clone();
                self.inserts.insert((at, seq), pi);
                self.queue.push_back((at, next, msg));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn net(n: u32, maxl: usize) -> SimNet {
        let client = PeerId(u32::MAX - 1);
        let mut net = SimNet::new(client);
        for i in 0..n {
            let peer = ProtocolPeer::new(PeerId(i), maxl, 4, 2);
            net.add_peer(peer, 7 ^ ((i as u64) << 20));
        }
        net
    }

    fn entry(item: u64) -> WireEntry {
        WireEntry {
            item,
            holder: PeerId(0),
            version: 0,
        }
    }

    #[test]
    fn two_peers_split_and_answer_queries() {
        let mut net = net(2, 4);
        net.meet(PeerId(0), PeerId(1));
        let p0 = net.peer(PeerId(0)).path;
        let p1 = net.peer(PeerId(1)).path;
        assert_eq!(p0.len(), 1);
        assert_eq!(p1.len(), 1);
        assert_eq!(p0.bit(0), p1.bit(0) ^ 1, "opposite sides of the split");
        // Confirm leg registered mutual references.
        assert!(net.peer(PeerId(0)).refs.level(1).contains(PeerId(1)));
        assert!(net.peer(PeerId(1)).refs.level(1).contains(PeerId(0)));
        // An insert routes to the responsible side; a query finds it.
        let key = BitPath::from_str_lossy("0110");
        net.insert(PeerId(0), 1, key, entry(42));
        for (qid, start) in [(2u64, PeerId(0)), (3, PeerId(1))] {
            let (resp, entries) = net.query(start, qid, key, 16).expect("query succeeds");
            assert!(net.peer(resp).responsible_for(&key));
            assert_eq!(entries, vec![entry(42)]);
        }
    }

    #[test]
    fn meshed_network_partitions_and_stays_consistent() {
        let mut net = net(6, 3);
        let ids = net.peer_ids();
        for round in 0..3 {
            for &a in &ids {
                for &b in &ids {
                    if a != b && (round + a.0 + b.0) % 2 == 0 {
                        net.meet(a, b);
                    }
                }
            }
        }
        for &id in &ids {
            net.peer(id).check().unwrap();
        }
        // Every key is answered by some responsible peer (or correctly
        // fails when nobody covers it) from every entry point.
        let mut qid = 100;
        for bits in ["00", "01", "10", "11"] {
            let key = BitPath::from_str_lossy(bits);
            net.insert(ids[0], qid, key, entry(qid));
            qid += 1;
            let mut verdicts = Vec::new();
            for &start in &ids {
                verdicts.push(net.query(start, qid, key, 32));
                qid += 1;
            }
            for (resp, _) in verdicts.iter().flatten() {
                assert!(net.peer(*resp).responsible_for(&key));
            }
        }
    }

    #[test]
    fn same_seed_runs_are_identical() {
        let build = || {
            let mut n = net(5, 3);
            let ids = n.peer_ids();
            for &a in &ids {
                for &b in &ids {
                    if a != b {
                        n.meet(a, b);
                    }
                }
            }
            n
        };
        let a = build();
        let b = build();
        for id in a.peer_ids() {
            assert_eq!(a.peer(id).path, b.peer(id).path);
            assert_eq!(a.peer(id).refs, b.peer(id).refs);
            assert_eq!(a.peer(id).index, b.peer(id).index);
        }
    }
}
