//! The transport seam: what a deployment supplies to host node shells, and
//! what every deployment shares.

use std::sync::atomic::Ordering;
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use bytes::{Bytes, BytesMut};
use pgrid_net::{NetStats, PeerId};
use pgrid_store::AnyBackend;
use pgrid_trace::Tracer;
use pgrid_wire::{decode_frame, Message};

use crate::fault::{self, FaultGate, FaultPlan};
use crate::NodeState;

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
    /// Refused because the target's write queue is full (backpressure).
    Rejected,
    /// The target has no endpoint (departed or never existed).
    NoRoute,
}

/// The transport seam: everything that differs between deployments.
///
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

    /// Moves a frame past the fault gate: into the target's write queue,
    /// bounded by backpressure, or onto the virtual clock's queue.
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

#[cfg(test)]
mod tests {
    //! The half every transport shares — the fault gate behind
    //! [`Transport::dispatch`] and the trait's provided methods — driven
    //! through the virtual clock, where a frame arrives only once the test
    //! runs the network.

    use super::*;
    use crate::SimTransport;
    use pgrid_wire::encode_frame;

    fn ping(nonce: u64) -> Bytes {
        encode_frame(&Message::Ping { nonce })
    }

    /// Runs the network for `span` of virtual time, then drains `rx`.
    fn received(
        t: &SimTransport,
        rx: &Receiver<(PeerId, Message)>,
        span: Duration,
    ) -> Vec<(PeerId, Message)> {
        t.advance(span);
        rx.try_iter().collect()
    }

    #[test]
    fn send_to_unknown_peer_fails() {
        let t = SimTransport::new();
        assert!(!t.send(PeerId(0), PeerId(9), ping(0)));
        assert_eq!(
            t.dispatch(PeerId(0), PeerId(9), ping(1)),
            SendStatus::NoRoute
        );
        assert_eq!(t.delivered(), 0);
    }

    #[test]
    fn transport_is_shared_across_clones() {
        let t = SimTransport::new();
        let t2 = t.clone();
        let rx = t.open_client(PeerId(5));
        assert!(t2.send(PeerId(0), PeerId(5), ping(1)));
        assert_eq!(
            received(&t, &rx, Duration::ZERO),
            vec![(PeerId(0), Message::Ping { nonce: 1 })]
        );
    }

    #[test]
    fn injected_drops_are_silent_and_counted() {
        let t = SimTransport::new();
        let rx = t.open_client(PeerId(1));
        t.inject_faults(FaultPlan::new(3).with_drop(1.0));
        // A certain drop still looks like success to the sender.
        assert!(t.send(PeerId(0), PeerId(1), ping(1)));
        assert_eq!(
            t.dispatch(PeerId(0), PeerId(1), ping(2)),
            SendStatus::Dropped
        );
        assert!(received(&t, &rx, Duration::ZERO).is_empty());
        assert_eq!(t.net_stats().dropped, 2);
        t.clear_faults();
        assert!(t.send(PeerId(0), PeerId(1), ping(3)));
        assert_eq!(received(&t, &rx, Duration::ZERO).len(), 1);
    }

    #[test]
    fn injected_duplicates_arrive_twice() {
        let t = SimTransport::new();
        let rx = t.open_client(PeerId(1));
        t.inject_faults(FaultPlan::new(3).with_duplicate(1.0));
        assert!(t.send(PeerId(0), PeerId(1), ping(4)));
        let got: Vec<Message> = received(&t, &rx, Duration::ZERO)
            .into_iter()
            .map(|(_, m)| m)
            .collect();
        assert_eq!(got, vec![Message::Ping { nonce: 4 }; 2]);
        assert_eq!(t.net_stats().duplicated, 1);
    }

    #[test]
    fn injected_delay_holds_then_delivers() {
        let t = SimTransport::new();
        let rx = t.open_client(PeerId(1));
        t.inject_faults(FaultPlan::new(3).with_delay(1.0, 30));
        assert!(t.send(PeerId(0), PeerId(1), ping(5)));
        // Every injected delay is at least one millisecond.
        assert_eq!(t.in_flight(), 1);
        assert!(received(&t, &rx, Duration::ZERO).is_empty());
        assert_eq!(received(&t, &rx, Duration::from_millis(30)).len(), 1);
        assert_eq!(t.net_stats().delayed, 1);
        assert_eq!(t.delivered(), 1);
    }

    #[test]
    fn control_frames_bypass_faults() {
        let t = SimTransport::new();
        let rx = t.open_client(PeerId(1));
        t.inject_faults(FaultPlan::new(3).with_drop(1.0));
        assert!(t.send_control(PeerId(0), PeerId(1), ping(6)));
        assert_eq!(received(&t, &rx, Duration::ZERO).len(), 1);
    }

    #[test]
    fn fault_decisions_are_reproducible_across_transports() {
        let plan = FaultPlan::new(77).with_drop(0.4);
        let run = || {
            let t = SimTransport::new();
            let _rx = t.open_client(PeerId(1));
            t.inject_faults(plan);
            (0..200)
                .map(|i| t.dispatch(PeerId(0), PeerId(1), ping(i)) == SendStatus::Dropped)
                .collect::<Vec<bool>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn clean_run_has_zero_fault_counters() {
        let t = SimTransport::new();
        let rx = t.open_client(PeerId(1));
        for i in 0..50 {
            assert!(t.send(PeerId(0), PeerId(1), ping(i)));
        }
        assert_eq!(received(&t, &rx, Duration::ZERO).len(), 50);
        assert!(t.net_stats().is_fault_free());
    }
}
