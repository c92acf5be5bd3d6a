//! Deterministic fault injection, shared by every transport.
//!
//! A [`FaultPlan`] describes *which* faults a link may exhibit — message
//! drop, duplication, reordering, and delay — with per-frame probabilities.
//! The engine derives one RNG stream per directed link from the plan's
//! single seed, so a run is exactly reproducible from that seed alone,
//! independent of thread scheduling: whether node A's 3rd frame to node B
//! is dropped depends only on `(seed, A, B, 3)`.
//!
//! Peer crash/restart is a *cluster*-level fault (an endpoint disappears
//! and later reappears); see `Community::crash_node` / `restart_node`.
//!
//! The [`FaultGate`] is the one place a frame's fate is applied: every
//! transport sends through [`dispatch`], which rolls the plan, counts the
//! outcome, and either drops the frame, hands it (and a duplicate) to the
//! transport's `deliver_now`, or parks it in the holdback heap until the
//! transport's releaser calls [`FaultGate::release`]. Holdback delays are
//! measured on the transport's clock ([`Transport::now`]).

use std::cmp::Ordering as CmpOrdering;
use std::collections::{BinaryHeap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use bytes::Bytes;
use pgrid_net::{NetStats, PeerId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::lock;
use crate::transport::{SendStatus, Transport};

/// Per-link fault probabilities, all driven by one seed.
///
/// Probabilities are clamped to `[0, 1]` when the plan is applied. The
/// default plan injects nothing (all probabilities zero) — wrapping a
/// transport in a default plan is byte-for-byte equivalent to no plan.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultPlan {
    /// Seed for the per-link RNG streams.
    pub seed: u64,
    /// Probability a frame is silently dropped in flight.
    pub drop: f64,
    /// Probability a frame is delivered twice.
    pub duplicate: f64,
    /// Probability a frame is held back briefly so later frames overtake it.
    pub reorder: f64,
    /// Probability a frame is delayed by up to [`FaultPlan::delay_ms_max`].
    pub delay: f64,
    /// Upper bound (inclusive, milliseconds) on injected delays.
    pub delay_ms_max: u64,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            seed: 0,
            drop: 0.0,
            duplicate: 0.0,
            reorder: 0.0,
            delay: 0.0,
            delay_ms_max: 20,
        }
    }
}

impl FaultPlan {
    /// A plan injecting nothing, with the given seed.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            ..FaultPlan::default()
        }
    }

    /// Sets the drop probability.
    pub fn with_drop(mut self, p: f64) -> Self {
        self.drop = p;
        self
    }

    /// Sets the duplication probability.
    pub fn with_duplicate(mut self, p: f64) -> Self {
        self.duplicate = p;
        self
    }

    /// Sets the reorder probability.
    pub fn with_reorder(mut self, p: f64) -> Self {
        self.reorder = p;
        self
    }

    /// Sets the delay probability and its upper bound in milliseconds.
    pub fn with_delay(mut self, p: f64, max_ms: u64) -> Self {
        self.delay = p;
        self.delay_ms_max = max_ms.max(1);
        self
    }

    /// True when every fault probability is zero.
    pub fn is_clean(&self) -> bool {
        self.drop <= 0.0 && self.duplicate <= 0.0 && self.reorder <= 0.0 && self.delay <= 0.0
    }

    fn clamped(mut self) -> Self {
        self.drop = self.drop.clamp(0.0, 1.0);
        self.duplicate = self.duplicate.clamp(0.0, 1.0);
        self.reorder = self.reorder.clamp(0.0, 1.0);
        self.delay = self.delay.clamp(0.0, 1.0);
        self
    }
}

/// What the engine decided for one frame on one link.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct FaultDecision {
    /// Silently discard the frame.
    pub drop: bool,
    /// Deliver a second copy.
    pub duplicate: bool,
    /// Hold the frame back for this many milliseconds before delivery.
    pub hold_ms: Option<u64>,
    /// The hold was caused by the reorder roll (stats attribution).
    pub reordered: bool,
}

impl FaultDecision {
    pub(crate) const DELIVER: FaultDecision = FaultDecision {
        drop: false,
        duplicate: false,
        hold_ms: None,
        reordered: false,
    };
}

/// SplitMix64-style finalizer: decorrelates the per-link seeds even when
/// peer ids are small consecutive integers.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

pub(crate) fn link_seed(seed: u64, from: PeerId, to: PeerId) -> u64 {
    mix(seed ^ mix(u64::from(from.0)) ^ mix(u64::from(to.0)).rotate_left(32))
}

/// Stateful fault roller: one independent RNG stream per directed link.
pub(crate) struct FaultEngine {
    plan: FaultPlan,
    links: HashMap<(PeerId, PeerId), StdRng>,
}

impl FaultEngine {
    pub(crate) fn new(plan: FaultPlan) -> Self {
        FaultEngine {
            plan: plan.clamped(),
            links: HashMap::new(),
        }
    }

    /// Rolls the fate of one frame travelling `from → to`.
    pub(crate) fn decide(&mut self, from: PeerId, to: PeerId) -> FaultDecision {
        let plan = self.plan;
        let rng = self
            .links
            .entry((from, to))
            .or_insert_with(|| StdRng::seed_from_u64(link_seed(plan.seed, from, to)));
        // Every roll consumes RNG state unconditionally so the stream stays
        // aligned regardless of which faults are enabled.
        let drop = rng.gen::<f64>() < plan.drop;
        let duplicate = rng.gen::<f64>() < plan.duplicate;
        let reorder = rng.gen::<f64>() < plan.reorder;
        let delay = rng.gen::<f64>() < plan.delay;
        let jitter = rng.gen_range(1..=plan.delay_ms_max.max(1));
        if drop {
            return FaultDecision {
                drop: true,
                duplicate: false,
                hold_ms: None,
                reordered: false,
            };
        }
        let hold_ms = if delay {
            Some(jitter)
        } else if reorder {
            // A short holdback is enough for later frames to overtake.
            Some(1 + jitter % 4)
        } else {
            None
        };
        FaultDecision {
            drop: false,
            duplicate,
            hold_ms,
            reordered: hold_ms.is_some() && !delay,
        }
    }
}

/// A frame held back by an injected delay or reorder.
pub(crate) struct Held {
    pub(crate) due: Instant,
    seq: u64,
    pub(crate) from: PeerId,
    pub(crate) to: PeerId,
    pub(crate) bytes: Bytes,
}

impl PartialEq for Held {
    fn eq(&self, other: &Self) -> bool {
        self.due == other.due && self.seq == other.seq
    }
}
impl Eq for Held {}
impl PartialOrd for Held {
    fn partial_cmp(&self, other: &Self) -> Option<CmpOrdering> {
        Some(self.cmp(other))
    }
}
impl Ord for Held {
    /// Reversed so the `BinaryHeap` (a max-heap) pops the *earliest* due
    /// frame first; ties broken by submission order.
    fn cmp(&self, other: &Self) -> CmpOrdering {
        other
            .due
            .cmp(&self.due)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Fault/robustness counters, shared by a transport and the node shells it
/// carries (shells report protocol-level events — retries, timeouts, decode
/// failures, evictions — into the same sink the transport feeds).
#[derive(Default)]
pub struct Counters {
    pub(crate) dropped: AtomicU64,
    pub(crate) duplicated: AtomicU64,
    pub(crate) reordered: AtomicU64,
    pub(crate) delayed: AtomicU64,
    pub(crate) retries: AtomicU64,
    pub(crate) timeouts: AtomicU64,
    pub(crate) malformed: AtomicU64,
    pub(crate) evictions: AtomicU64,
}

impl Counters {
    pub(crate) fn snapshot(&self) -> NetStats {
        let mut s = NetStats::new();
        s.dropped = self.dropped.load(Ordering::Relaxed);
        s.duplicated = self.duplicated.load(Ordering::Relaxed);
        s.reordered = self.reordered.load(Ordering::Relaxed);
        s.delayed = self.delayed.load(Ordering::Relaxed);
        s.retries = self.retries.load(Ordering::Relaxed);
        s.timeouts = self.timeouts.load(Ordering::Relaxed);
        s.malformed = self.malformed.load(Ordering::Relaxed);
        s.evictions = self.evictions.load(Ordering::Relaxed);
        s
    }
}

/// Per-transport fault state: the installed plan, the holdback heap of
/// delayed/reordered frames, and the counters. Crate-internal API — it is
/// public only because [`Transport::gate`] names it.
#[derive(Default)]
pub struct FaultGate {
    engine: Mutex<Option<FaultEngine>>,
    /// Held frames, earliest due on top.
    holdback: Mutex<BinaryHeap<Held>>,
    held_seq: AtomicU64,
    pub(crate) counters: Counters,
}

impl FaultGate {
    pub(crate) fn install(&self, plan: Option<FaultPlan>) {
        *lock(&self.engine) = plan.map(FaultEngine::new);
    }

    /// Frames currently held back.
    pub(crate) fn held(&self) -> usize {
        lock(&self.holdback).len()
    }

    /// When the earliest held frame comes due.
    pub(crate) fn next_due(&self) -> Option<Instant> {
        lock(&self.holdback).peek().map(|h| h.due)
    }

    /// Hands every held frame due by `now` (`None`: every held frame) to
    /// `deliver`, in due order. A late delivery that finds its target gone
    /// or saturated counts as a drop. Returns whether anything was released.
    pub(crate) fn release(
        &self,
        now: Option<Instant>,
        deliver: impl Fn(Held) -> SendStatus,
    ) -> bool {
        let mut progress = false;
        loop {
            // Peek-then-pop under one lock hold, released before delivery.
            let held = {
                let mut heap = lock(&self.holdback);
                match heap.peek() {
                    Some(h) if now.is_none_or(|now| h.due <= now) => heap.pop(),
                    _ => None,
                }
            };
            let Some(held) = held else { return progress };
            if deliver(held) != SendStatus::Delivered {
                self.counters.dropped.fetch_add(1, Ordering::Relaxed);
            }
            progress = true;
        }
    }
}

/// Sends one frame through `transport`'s fault gate: roll the plan, then
/// drop, duplicate, hold back, or deliver. The body of
/// [`Transport::dispatch`].
pub(crate) fn dispatch<T: Transport>(
    transport: &T,
    from: PeerId,
    to: PeerId,
    bytes: Bytes,
) -> SendStatus {
    let gate = transport.gate();
    let decision = match lock(&gate.engine).as_mut() {
        Some(engine) => engine.decide(from, to),
        None => FaultDecision::DELIVER,
    };
    let counters = &gate.counters;
    if decision.drop {
        counters.dropped.fetch_add(1, Ordering::Relaxed);
        return SendStatus::Dropped;
    }
    if decision.duplicate {
        counters.duplicated.fetch_add(1, Ordering::Relaxed);
        // The extra copy is delivered immediately; when the original is
        // also held back, the copies additionally arrive out of order.
        let _ = transport.deliver_now(from, to, bytes.clone());
    }
    let Some(ms) = decision.hold_ms else {
        return transport.deliver_now(from, to, bytes);
    };
    if decision.reordered {
        counters.reordered.fetch_add(1, Ordering::Relaxed);
    } else {
        counters.delayed.fetch_add(1, Ordering::Relaxed);
    }
    lock(&gate.holdback).push(Held {
        due: transport.now() + Duration::from_millis(ms),
        seq: gate.held_seq.fetch_add(1, Ordering::Relaxed),
        from,
        to,
        bytes,
    });
    transport.wake_holdback();
    SendStatus::Delivered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tally(plan: FaultPlan, from: PeerId, to: PeerId, n: usize) -> (usize, usize, usize) {
        let mut eng = FaultEngine::new(plan);
        let (mut drops, mut dups, mut holds) = (0, 0, 0);
        for _ in 0..n {
            let d = eng.decide(from, to);
            drops += usize::from(d.drop);
            dups += usize::from(d.duplicate);
            holds += usize::from(d.hold_ms.is_some());
        }
        (drops, dups, holds)
    }

    #[test]
    fn clean_plan_never_faults() {
        let (drops, dups, holds) = tally(FaultPlan::new(7), PeerId(1), PeerId(2), 1000);
        assert_eq!((drops, dups, holds), (0, 0, 0));
    }

    #[test]
    fn drop_rate_is_roughly_respected() {
        let plan = FaultPlan::new(42).with_drop(0.3);
        let (drops, _, _) = tally(plan, PeerId(1), PeerId(2), 10_000);
        let rate = drops as f64 / 10_000.0;
        assert!((rate - 0.3).abs() < 0.03, "observed drop rate {rate}");
    }

    #[test]
    fn same_seed_same_decisions() {
        let plan = FaultPlan::new(9)
            .with_drop(0.2)
            .with_duplicate(0.1)
            .with_reorder(0.1)
            .with_delay(0.1, 10);
        let mut a = FaultEngine::new(plan);
        let mut b = FaultEngine::new(plan);
        for i in 0..500 {
            let from = PeerId(i % 7);
            let to = PeerId((i * 3) % 11);
            assert_eq!(a.decide(from, to), b.decide(from, to), "frame {i}");
        }
    }

    #[test]
    fn links_are_independent_streams() {
        let plan = FaultPlan::new(5).with_drop(0.5);
        // Interleaving traffic on another link must not perturb link (1,2).
        let mut solo = FaultEngine::new(plan);
        let solo_fates: Vec<bool> = (0..100)
            .map(|_| solo.decide(PeerId(1), PeerId(2)).drop)
            .collect();
        let mut mixed = FaultEngine::new(plan);
        let mut mixed_fates = Vec::new();
        for _ in 0..100 {
            mixed.decide(PeerId(3), PeerId(4));
            mixed_fates.push(mixed.decide(PeerId(1), PeerId(2)).drop);
        }
        assert_eq!(solo_fates, mixed_fates);
    }

    #[test]
    fn directions_differ() {
        // (1→2) and (2→1) are distinct links with distinct streams.
        let plan = FaultPlan::new(11).with_drop(0.5);
        let mut eng = FaultEngine::new(plan);
        let ab: Vec<bool> = (0..64)
            .map(|_| eng.decide(PeerId(1), PeerId(2)).drop)
            .collect();
        let ba: Vec<bool> = (0..64)
            .map(|_| eng.decide(PeerId(2), PeerId(1)).drop)
            .collect();
        assert_ne!(ab, ba);
    }

    #[test]
    fn probabilities_are_clamped() {
        let plan = FaultPlan::new(1).with_drop(7.5);
        let eng = FaultEngine::new(plan);
        assert_eq!(eng.plan.drop, 1.0);
    }
}
