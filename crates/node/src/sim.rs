//! The virtual-clock transport: every hosted shell runs on the caller's
//! thread, and time moves only when the caller runs the network.
//!
//! [`SimTransport`] hosts the same [`NodeRt`] shell the threaded transports
//! run, so the frame→event mapping, the acks, retransmission and failover
//! are the shell's own. Frames wait in one [`EventQueue`] keyed by
//! `(deliver_at, insertion seq)`; running the queue delivers every frame
//! that is due, and when none is, the clock jumps to the next queued frame
//! or the next [`TICK`] boundary, where every shell is ticked at
//! `t0 + k·TICK` in id order. Fault delays are measured on this clock. A run
//! is therefore a function of the seeds and of the driver's calls alone: no
//! thread is started and no wall time is read after construction.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use bytes::Bytes;
use pgrid_net::{EventQueue, PeerId};
use pgrid_store::AppendLog;
use pgrid_trace::Tracer;
use pgrid_wire::Message;

use crate::fault::FaultGate;
use crate::node::{NodeRt, TICK};
use crate::transport::hand_to_client;
use crate::{lock, Frame, NodeState, SendStatus, Transport};

/// A registered peer id: its incarnation, and the channel of the harness
/// client (`None` for a hosted shell).
struct Endpoint {
    life: u64,
    client: Option<Sender<(PeerId, Message)>>,
}

/// A frame on its way to incarnation `life` of peer `to`: a frame still
/// queued when its target is evicted is lost with the target, even if the
/// id is hosted again before it comes due.
struct Queued {
    to: PeerId,
    life: u64,
    frame: Frame,
}

struct Net {
    /// Virtual nanoseconds since `t0`.
    now: u64,
    queue: EventQueue<Queued>,
    endpoints: BTreeMap<PeerId, Endpoint>,
    lives: u64,
}

struct Inner {
    t0: Instant,
    gate: FaultGate,
    net: Mutex<Net>,
    /// Hosted shells. Locked while one of them runs; a running shell
    /// reaches only `net` and `gate`.
    shells: Mutex<BTreeMap<PeerId, NodeRt<SimTransport>>>,
    delivered: AtomicU64,
}

/// A deterministic in-process network on a virtual clock (see the module
/// docs). Queues are unbounded, so a frame is never refused for
/// backpressure. Hosted shells hold a handle to the transport:
/// [`Transport::shutdown`] drops them and so frees the network.
#[derive(Clone)]
pub struct SimTransport {
    inner: Arc<Inner>,
}

impl Default for SimTransport {
    fn default() -> Self {
        SimTransport::new()
    }
}

fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

impl SimTransport {
    /// An empty network whose clock starts now.
    pub fn new() -> Self {
        SimTransport {
            inner: Arc::new(Inner {
                t0: Instant::now(),
                gate: FaultGate::default(),
                net: Mutex::new(Net {
                    now: 0,
                    queue: EventQueue::new(),
                    endpoints: BTreeMap::new(),
                    lives: 0,
                }),
                shells: Mutex::new(BTreeMap::new()),
                delivered: AtomicU64::new(0),
            }),
        }
    }

    /// Runs the network for `span` of virtual time: every frame due within
    /// it is delivered, and every shell is ticked at each boundary of the
    /// shells' 5 ms timer tick that is passed. `Duration::ZERO` delivers
    /// what is due now, and the frames that sends, without moving the clock.
    pub fn advance(&self, span: Duration) {
        let until = lock(&self.inner.net).now.saturating_add(nanos(span));
        while self.step(until) {}
    }

    /// Registers `id` as a new incarnation.
    fn register(&self, id: PeerId, client: Option<Sender<(PeerId, Message)>>) {
        let mut net = lock(&self.inner.net);
        net.lives += 1;
        let life = net.lives;
        net.endpoints.insert(id, Endpoint { life, client });
    }

    /// Queues a frame for delivery at virtual time `at` (`None`: now).
    fn enqueue(&self, from: PeerId, to: PeerId, bytes: Bytes, at: Option<u64>) -> SendStatus {
        let mut net = lock(&self.inner.net);
        let Some(life) = net.endpoints.get(&to).map(|e| e.life) else {
            return SendStatus::NoRoute;
        };
        let frame = Frame { from, bytes };
        let at = at.unwrap_or(net.now);
        net.queue.push_at(at, Queued { to, life, frame });
        SendStatus::Delivered
    }

    /// Hands the next due frame to its shell or client. Returns `false`
    /// when no frame is due.
    fn deliver_due(&self) -> bool {
        let (q, client) = {
            let mut net = lock(&self.inner.net);
            let now = net.now;
            let Some((_, q)) = net.queue.pop_until(now) else {
                return false;
            };
            match net.endpoints.get(&q.to) {
                Some(e) if e.life == q.life => (q, e.client.clone()),
                _ => return true,
            }
        };
        self.inner.delivered.fetch_add(1, Ordering::Relaxed);
        if let Some(tx) = client {
            hand_to_client(&tx, q.frame.from, &q.frame.bytes, &self.inner.gate);
            return true;
        }
        let mut shells = lock(&self.inner.shells);
        // A shell told to shut down stops; its endpoint stays registered,
        // so later frames still count as delivered but reach no shell.
        if shells
            .get_mut(&q.to)
            .is_some_and(|s| !s.handle_frame(q.frame))
        {
            shells.remove(&q.to);
        }
        true
    }

    /// One unit of progress no later than virtual time `until`: a due
    /// frame, else a clock jump to the next queued frame or [`TICK`]
    /// boundary (ticking every shell on a boundary). Returns `false`, with
    /// the clock at `until`, when neither comes first.
    fn step(&self, until: u64) -> bool {
        if self.deliver_due() {
            return true;
        }
        let tick = nanos(TICK);
        let on_boundary = {
            let mut net = lock(&self.inner.net);
            let boundary = (net.now / tick + 1) * tick;
            let next = net.queue.next_at().map_or(boundary, |at| at.min(boundary));
            if next > until {
                net.now = net.now.max(until);
                return false;
            }
            net.now = next;
            next == boundary
        };
        if on_boundary {
            let now = self.now();
            for shell in lock(&self.inner.shells).values_mut() {
                shell.tick(now);
            }
        }
        true
    }
}

impl Transport for SimTransport {
    /// One tick of virtual time.
    const SETTLE_POLL: Duration = TICK;

    fn gate(&self) -> &FaultGate {
        &self.inner.gate
    }

    fn now(&self) -> Instant {
        self.inner.t0 + Duration::from_nanos(lock(&self.inner.net).now)
    }

    fn deliver_now(&self, from: PeerId, to: PeerId, bytes: Bytes) -> SendStatus {
        self.enqueue(from, to, bytes, None)
    }

    /// Moves the frame just held back into the queue at its due instant.
    fn wake_holdback(&self) {
        let t0 = self.inner.t0;
        self.inner.gate.release(None, |h| {
            let at = nanos(h.due.saturating_duration_since(t0));
            self.enqueue(h.from, h.to, h.bytes, Some(at))
        });
    }

    fn send_control(&self, from: PeerId, to: PeerId, bytes: Bytes) -> bool {
        self.enqueue(from, to, bytes, None) == SendStatus::Delivered
    }

    fn delivered(&self) -> u64 {
        self.inner.delivered.load(Ordering::Relaxed)
    }

    fn in_flight(&self) -> usize {
        lock(&self.inner.net).queue.len()
    }

    /// Registers the peer and keeps its shell; frames reach it only while
    /// the caller runs the network.
    fn host(
        &self,
        state: Arc<Mutex<NodeState>>,
        seed: u64,
        journal: Option<AppendLog>,
        tracer: Box<dyn Tracer>,
    ) {
        let rt = NodeRt::new(state, self.clone(), seed, journal, tracer);
        let id = rt.peer_id();
        self.register(id, None);
        lock(&self.inner.shells).insert(id, rt);
    }

    /// The endpoint vanishes with every frame queued for it, and the shell
    /// is dropped (flushing its journal).
    fn evict(&self, id: PeerId) {
        lock(&self.inner.net).endpoints.remove(&id);
        let shell = lock(&self.inner.shells).remove(&id);
        drop(shell);
    }

    fn open_client(&self, id: PeerId) -> Receiver<(PeerId, Message)> {
        let (tx, rx) = channel();
        self.register(id, Some(tx));
        rx
    }

    fn shutdown(&self) {
        lock(&self.inner.net).endpoints.clear();
        let shells = std::mem::take(&mut *lock(&self.inner.shells));
        drop(shells);
    }

    /// Runs the network for one [`Transport::SETTLE_POLL`] of virtual time.
    fn settle_poll(&self) {
        self.advance(Self::SETTLE_POLL);
    }

    /// Runs the network frame by frame until the client has a message or
    /// the virtual clock reaches `deadline`.
    fn recv_client(
        &self,
        rx: &Receiver<(PeerId, Message)>,
        deadline: Instant,
    ) -> Option<(PeerId, Message)> {
        let until = nanos(deadline.saturating_duration_since(self.inner.t0));
        loop {
            if let Ok(msg) = rx.try_recv() {
                return Some(msg);
            }
            if !self.step(until) {
                return rx.try_recv().ok();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ClusterConfig, SimCluster};
    use pgrid_keys::BitPath;
    use pgrid_wire::WireEntry;

    /// `n` peers with references bounded to 4 per level, seeded
    /// `7 ^ (i << 20)`.
    fn net(n: usize, maxl: usize, ttl: u16) -> SimCluster {
        SimCluster::spawn(ClusterConfig {
            n,
            maxl,
            refmax: 4,
            recfanout: 2,
            ttl,
            seed: 7,
            ..ClusterConfig::default()
        })
    }

    fn entry(item: u64) -> WireEntry {
        WireEntry {
            item,
            holder: PeerId(0),
            version: 0,
        }
    }

    fn meet(net: &SimCluster, a: PeerId, b: PeerId) {
        net.meet(a, b);
        net.settle();
    }

    #[test]
    fn an_evicted_endpoint_loses_its_queued_frames() {
        let (net, x, a) = (SimTransport::new(), PeerId(1), PeerId(2));
        let old = net.open_client(a);
        let ack = || pgrid_wire::encode_frame(&Message::Ack { seq: 7 });
        assert!(net.send(x, a, ack()));
        net.evict(a);
        assert!(!net.send(x, a, ack()), "no route while evicted");
        let new = net.open_client(a);
        net.advance(Duration::ZERO);
        assert!(old.try_recv().is_err() && new.try_recv().is_err());
        assert!(net.send(x, a, ack()));
        net.advance(Duration::ZERO);
        assert_eq!(new.try_recv().ok(), Some((x, Message::Ack { seq: 7 })));
        assert_eq!(net.delivered(), 1);
    }

    #[test]
    fn two_peers_split_and_answer_queries() {
        let mut net = net(2, 4, 16);
        meet(&net, PeerId(0), PeerId(1));
        let peers = net.to_snapshot().peers;
        let (p0, p1) = (peers[0].path, peers[1].path);
        assert_eq!(p0.len(), 1);
        assert_eq!(p1.len(), 1);
        assert_eq!(p0.bit(0), p1.bit(0) ^ 1, "opposite sides of the split");
        // Confirm leg registered mutual references.
        assert!(peers[0].refs.level(1).contains(PeerId(1)));
        assert!(peers[1].refs.level(1).contains(PeerId(0)));
        // An insert routes to the responsible side; a query finds it.
        let key = BitPath::from_str_lossy("0110");
        net.insert_at(key, entry(42), PeerId(0));
        net.settle();
        for start in [PeerId(0), PeerId(1)] {
            let (resp, entries) = net.query_once_at(&key, start).expect("query succeeds");
            assert!(peers[resp.index()].path.responsible_for(&key));
            assert_eq!(entries, vec![entry(42)]);
        }
        net.shutdown();
    }

    #[test]
    fn meshed_network_partitions_and_stays_consistent() {
        let mut net = net(6, 3, 32);
        let ids = net.live_nodes();
        for round in 0..3 {
            for &a in &ids {
                for &b in &ids {
                    if a != b && (round + a.0 + b.0) % 2 == 0 {
                        meet(&net, a, b);
                    }
                }
            }
        }
        net.check_invariants().unwrap();
        // Every key is answered by some responsible peer (or correctly
        // fails when nobody covers it) from every entry point.
        for (item, bits) in ["00", "01", "10", "11"].into_iter().enumerate() {
            let key = BitPath::from_str_lossy(bits);
            net.insert_at(key, entry(item as u64), ids[0]);
            net.settle();
            let peers = net.to_snapshot().peers;
            for &start in &ids {
                if let Some((resp, _)) = net.query_once_at(&key, start) {
                    assert!(peers[resp.index()].path.responsible_for(&key));
                }
            }
        }
        net.shutdown();
    }

    #[test]
    fn same_seed_runs_are_identical() {
        let build = || {
            let net = net(5, 3, 32);
            let ids = net.live_nodes();
            for &a in &ids {
                for &b in &ids {
                    if a != b {
                        meet(&net, a, b);
                    }
                }
            }
            let snapshot = net.to_snapshot();
            net.shutdown();
            snapshot
        };
        assert_eq!(build(), build());
    }
}
