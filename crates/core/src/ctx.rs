//! Execution context threaded through every protocol operation.

use pgrid_net::{task_seed, MsgKind, NetStats, OnlineModel, PeerId};
use pgrid_trace::{NullTracer, Stamped, TraceEvent, Tracer};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::scratch::Scratch;

/// Where a context's scratch arena lives: short-lived contexts own a fresh
/// (empty, allocation-free) one; long-lived owners such as [`OwnedCtx`]
/// lend theirs so buffer capacity survives across operations.
enum ScratchSlot<'a> {
    Owned(Scratch),
    Borrowed(&'a mut Scratch),
}

/// Where a context's tracer lives, mirroring [`ScratchSlot`]: contexts
/// default to an inline [`NullTracer`] (a ZST, so this costs nothing);
/// traced runs lend an external recorder. Like scratch, the tracer never
/// influences results — it observes, it does not draw from the RNG.
enum TracerSlot<'a> {
    Null(NullTracer),
    Borrowed(&'a mut dyn Tracer),
}

impl TracerSlot<'_> {
    fn get(&mut self) -> &mut dyn Tracer {
        match self {
            TracerSlot::Null(t) => t,
            TracerSlot::Borrowed(t) => &mut **t,
        }
    }
}

/// Bundles the deterministic RNG, the availability model, and the message
/// counters. Every randomized algorithm in this crate draws exclusively from
/// `ctx.rng`, so a fixed seed reproduces an entire experiment bit-for-bit.
///
/// A context also carries a [`Scratch`] arena of reusable buffers for the
/// allocation-free hot paths. The arena never influences results — only
/// whether buffer capacity is reused between operations — so contexts built
/// with [`Ctx::new`] (private arena) and [`Ctx::with_scratch`] (shared
/// arena) behave identically.
pub struct Ctx<'a> {
    /// Source of all randomness.
    pub rng: &'a mut StdRng,
    /// Who is reachable.
    pub online: &'a mut dyn OnlineModel,
    /// Message accounting.
    pub stats: &'a mut NetStats,
    /// Reusable hot-path buffers.
    scratch: ScratchSlot<'a>,
    /// Flight-recorder sink (disabled by default).
    tracer: TracerSlot<'a>,
}

impl<'a> Ctx<'a> {
    /// Creates a context with a private scratch arena (empty until first
    /// use; creating it allocates nothing).
    pub fn new(
        rng: &'a mut StdRng,
        online: &'a mut dyn OnlineModel,
        stats: &'a mut NetStats,
    ) -> Self {
        Ctx {
            rng,
            online,
            stats,
            scratch: ScratchSlot::Owned(Scratch::new()),
            tracer: TracerSlot::Null(NullTracer),
        }
    }

    /// Creates a context that borrows an external scratch arena, so buffer
    /// capacity warmed by one operation is reused by the next even when the
    /// `Ctx` itself is rebuilt per call.
    pub fn with_scratch(
        rng: &'a mut StdRng,
        online: &'a mut dyn OnlineModel,
        stats: &'a mut NetStats,
        scratch: &'a mut Scratch,
    ) -> Self {
        Ctx {
            rng,
            online,
            stats,
            scratch: ScratchSlot::Borrowed(scratch),
            tracer: TracerSlot::Null(NullTracer),
        }
    }

    /// Creates a fully equipped context: shared scratch arena *and* an
    /// attached flight recorder. Tracing is observation-only — a traced
    /// run makes bit-identical decisions to an untraced one (pinned by the
    /// determinism regression tests in the workspace root).
    pub fn with_tracer(
        rng: &'a mut StdRng,
        online: &'a mut dyn OnlineModel,
        stats: &'a mut NetStats,
        scratch: &'a mut Scratch,
        tracer: &'a mut dyn Tracer,
    ) -> Self {
        Ctx {
            rng,
            online,
            stats,
            scratch: ScratchSlot::Borrowed(scratch),
            tracer: TracerSlot::Borrowed(tracer),
        }
    }

    /// The scratch arena (owned or borrowed).
    pub fn scratch_mut(&mut self) -> &mut Scratch {
        match &mut self.scratch {
            ScratchSlot::Owned(s) => s,
            ScratchSlot::Borrowed(s) => s,
        }
    }

    /// Records a trace event. The closure only runs when the tracer is
    /// enabled, so a disabled run pays one branch and never constructs the
    /// event (zero allocations, zero formatting).
    #[inline]
    pub fn trace(&mut self, event: impl FnOnce() -> TraceEvent) {
        let tracer = self.tracer.get();
        if tracer.enabled() {
            tracer.record(event());
        }
    }

    /// Splits the context into the disjoint parts the exchange and update
    /// hot paths need simultaneously: the RNG and the scratch arena, each
    /// under its own `&mut`.
    pub(crate) fn parts(&mut self) -> (&mut StdRng, &mut Scratch) {
        let scratch = match &mut self.scratch {
            ScratchSlot::Owned(s) => s,
            ScratchSlot::Borrowed(s) => &mut **s,
        };
        (self.rng, scratch)
    }

    /// Probes whether `peer` is reachable, recording the attempt. A `true`
    /// result does **not** yet count as a message — callers record the
    /// appropriate [`MsgKind`] when they actually deliver one.
    pub fn contact(&mut self, peer: PeerId) -> bool {
        let ok = self.online.is_online(peer, self.rng);
        self.stats.record_contact(ok);
        ok
    }

    /// Records one delivered message. When a tracer is attached, a
    /// matching [`TraceEvent::Message`] is emitted alongside the counter,
    /// which is what lets trace replay reconcile *exactly* with
    /// [`NetStats`] per kind: the two records come from the same call.
    pub fn message(&mut self, kind: MsgKind) {
        self.stats.record(kind);
        self.trace(|| TraceEvent::Message { kind: kind.into() });
    }

    /// Creates the owned context of parallel task `task_id`: a private RNG
    /// stream derived from `master_seed` (see [`pgrid_net::task_seed`]), a
    /// forked copy of `online`, and zeroed local counters.
    ///
    /// Task 0 continues the master stream unchanged, so running a workload
    /// as one task reproduces historical single-stream results bit for bit.
    /// Shards merge their counters in task order afterwards, which makes
    /// results independent of thread count and scheduling.
    pub fn fork_for_task(
        master_seed: u64,
        task_id: u64,
        online: Box<dyn OnlineModel + Send>,
    ) -> OwnedCtx {
        OwnedCtx {
            rng: StdRng::seed_from_u64(task_seed(master_seed, task_id)),
            online,
            stats: NetStats::new(),
            scratch: Scratch::new(),
            tracer: Box::new(NullTracer),
        }
    }
}

/// An owning variant of [`Ctx`] for code that cannot thread three separate
/// `&mut` borrows around — parallel tasks, test fixtures, long-lived
/// experiment state. Borrow a [`Ctx`] view with [`OwnedCtx::ctx`] whenever a
/// protocol operation needs one.
pub struct OwnedCtx {
    /// Source of all randomness for this task.
    pub rng: StdRng,
    /// Who is reachable, from this task's point of view.
    pub online: Box<dyn OnlineModel + Send>,
    /// This task's local message accounting (merged in task order later).
    pub stats: NetStats,
    /// This task's reusable hot-path buffers: lent to every [`Ctx`] view,
    /// so a batch of operations on one `OwnedCtx` warms the buffers once
    /// and then runs allocation-free.
    pub scratch: Scratch,
    /// This task's flight recorder, lent to every [`Ctx`] view. Defaults
    /// to a boxed [`NullTracer`] — a ZST, so the box never allocates.
    pub tracer: Box<dyn Tracer>,
}

impl OwnedCtx {
    /// Borrows the `Ctx` view protocol operations expect.
    pub fn ctx(&mut self) -> Ctx<'_> {
        Ctx {
            rng: &mut self.rng,
            online: &mut *self.online,
            stats: &mut self.stats,
            scratch: ScratchSlot::Borrowed(&mut self.scratch),
            tracer: TracerSlot::Borrowed(&mut *self.tracer),
        }
    }

    /// Swaps the availability model mid-experiment (e.g. build with
    /// `AlwaysOnline`, then query under churn) without disturbing the RNG
    /// stream or the accumulated counters.
    pub fn set_online(&mut self, online: Box<dyn OnlineModel + Send>) {
        self.online = online;
    }

    /// Attaches a flight recorder; subsequent [`OwnedCtx::ctx`] views
    /// record into it. The RNG stream and counters are untouched.
    pub fn set_tracer(&mut self, tracer: Box<dyn Tracer>) {
        self.tracer = tracer;
    }

    /// Drains whatever the attached tracer buffered (empty for null and
    /// streaming sinks). The sharded engine collects these per task, in
    /// task order.
    pub fn take_trace_events(&mut self) -> Vec<Stamped> {
        self.tracer.take_events()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgrid_net::{AlwaysOnline, BernoulliOnline};
    use rand::SeedableRng;

    #[test]
    fn contact_records_attempts() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut online = AlwaysOnline;
        let mut stats = NetStats::new();
        let mut ctx = Ctx::new(&mut rng, &mut online, &mut stats);
        assert!(ctx.contact(PeerId(3)));
        ctx.message(MsgKind::Query);
        assert_eq!(stats.contact_attempts, 1);
        assert_eq!(stats.failed_contacts, 0);
        assert_eq!(stats.count(MsgKind::Query), 1);
    }

    #[test]
    fn failed_contacts_are_counted() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut online = BernoulliOnline::new(0.0);
        let mut stats = NetStats::new();
        let mut ctx = Ctx::new(&mut rng, &mut online, &mut stats);
        assert!(!ctx.contact(PeerId(3)));
        assert_eq!(stats.failed_contacts, 1);
    }

    #[test]
    fn with_scratch_shares_warmth_across_contexts() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut online = AlwaysOnline;
        let mut stats = NetStats::new();
        let mut scratch = Scratch::new();
        {
            let mut ctx = Ctx::with_scratch(&mut rng, &mut online, &mut stats, &mut scratch);
            ctx.scratch_mut().query_refs.extend((0..32).map(PeerId));
            ctx.scratch_mut().query_refs.clear();
        }
        assert!(
            scratch.retained_capacity() >= 32,
            "buffer capacity must survive the Ctx that warmed it"
        );
        let mut ctx = Ctx::new(&mut rng, &mut online, &mut stats);
        assert_eq!(
            ctx.scratch_mut().retained_capacity(),
            0,
            "private arenas start cold and allocation-free"
        );
    }

    #[test]
    fn fork_for_task_zero_continues_the_master_stream() {
        use rand::Rng;
        let mut owned = Ctx::fork_for_task(21, 0, Box::new(AlwaysOnline));
        let mut direct = StdRng::seed_from_u64(21);
        for _ in 0..32 {
            assert_eq!(owned.rng.gen::<u64>(), direct.gen::<u64>());
        }
    }

    #[test]
    fn forked_tasks_draw_from_distinct_streams() {
        use rand::Rng;
        let mut draws = std::collections::BTreeSet::new();
        for task in 0..64u64 {
            let mut owned = Ctx::fork_for_task(7, task, Box::new(AlwaysOnline));
            draws.insert(owned.rng.gen::<u64>());
        }
        assert_eq!(draws.len(), 64, "task streams must not collide");
    }

    #[test]
    fn message_emits_a_reconciling_trace_event() {
        use pgrid_trace::{MsgTag, RingTracer};
        let mut owned = Ctx::fork_for_task(0, 0, Box::new(AlwaysOnline));
        owned.set_tracer(Box::new(RingTracer::new(16)));
        {
            let mut ctx = owned.ctx();
            ctx.message(MsgKind::Query);
            ctx.message(MsgKind::Exchange);
            ctx.trace(|| TraceEvent::PeerEvicted { peer: 9 });
        }
        let events = owned.take_trace_events();
        assert_eq!(events.len(), 3);
        assert_eq!(
            events[0].event,
            TraceEvent::Message {
                kind: MsgTag::Query
            }
        );
        assert_eq!(
            events[1].event,
            TraceEvent::Message {
                kind: MsgTag::Exchange
            }
        );
        assert_eq!(events[2].event, TraceEvent::PeerEvicted { peer: 9 });
        assert_eq!(events[2].seq, 2, "stamps are the tracer's own sequence");
        // The counters recorded the same two messages the trace did.
        assert_eq!(owned.stats.count(MsgKind::Query), 1);
        assert_eq!(owned.stats.count(MsgKind::Exchange), 1);
    }

    #[test]
    fn disabled_tracer_never_constructs_events() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut online = AlwaysOnline;
        let mut stats = NetStats::new();
        let mut ctx = Ctx::new(&mut rng, &mut online, &mut stats);
        // The closure must not run when tracing is off — if it did, this
        // panic would fire.
        ctx.trace(|| unreachable!("event constructed despite NullTracer"));
        ctx.message(MsgKind::Control);
        assert_eq!(stats.count(MsgKind::Control), 1);
    }

    #[test]
    fn owned_ctx_records_like_a_borrowed_one() {
        let mut owned = Ctx::fork_for_task(0, 3, Box::new(AlwaysOnline));
        {
            let mut ctx = owned.ctx();
            assert!(ctx.contact(PeerId(1)));
            ctx.message(MsgKind::Update);
        }
        assert_eq!(owned.stats.contact_attempts, 1);
        assert_eq!(owned.stats.count(MsgKind::Update), 1);
        owned.set_online(Box::new(BernoulliOnline::new(0.0)));
        assert!(!owned.ctx().contact(PeerId(1)));
        assert_eq!(owned.stats.failed_contacts, 1);
    }
}
