//! Regression pins for the flight recorder's observation-only guarantee
//! (ISSUE 5): a traced run must make bit-identical decisions to an
//! untraced one, the replayed trace must reconcile exactly with the live
//! `NetStats`, and trace diffing must pinpoint the first divergent event
//! between two runs.

use pgrid::core::{BuildOptions, Ctx, FindStrategy, GridSnapshot, IndexEntry, PGrid, PGridConfig};
use pgrid::keys::{HashKeyMapper, KeyMapper};
use pgrid::net::{AlwaysOnline, MsgKind, NetStats, PeerId};
use pgrid::store::{ItemId, Version};
use pgrid::trace::{
    encode_line, first_divergence, summarize, MsgTag, RingTracer, Stamped, TraceEvent,
};

/// One full lifecycle — build, insert, query — run through a single
/// [`pgrid::core::OwnedCtx`], with or without a recorder attached. Returns
/// the final grid snapshot, the counters, and the recorded events.
fn lifecycle(seed: u64, traced: bool) -> (GridSnapshot, NetStats, Vec<Stamped>) {
    let mut owned = Ctx::fork_for_task(seed, 0, Box::new(AlwaysOnline));
    if traced {
        owned.set_tracer(Box::new(RingTracer::new(1 << 22)));
    }
    let mut grid = PGrid::new(
        128,
        PGridConfig {
            maxl: 4,
            ..PGridConfig::default()
        },
    );
    grid.build(&BuildOptions::default(), &mut owned.ctx());
    let mapper = HashKeyMapper::default();
    {
        let mut ctx = owned.ctx();
        for i in 0..16u64 {
            let key = mapper.map(&format!("item-{i}"), 8);
            let _ = grid.insert_item(
                &key,
                IndexEntry {
                    item: ItemId(i),
                    holder: PeerId((i % 128) as u32),
                    version: Version::INITIAL,
                },
                FindStrategy::Bfs {
                    recbreadth: 2,
                    repetition: 2,
                },
                &mut ctx,
            );
        }
        for i in 0..32u64 {
            let key = mapper.map(&format!("probe-{i}"), 8);
            let start = grid.random_peer(&mut ctx);
            let _ = grid.search(start, &key, &mut ctx);
        }
    }
    let events = owned.take_trace_events();
    (GridSnapshot::capture(&grid), owned.stats, events)
}

#[test]
fn tracing_is_observation_only() {
    let (snap_plain, stats_plain, events_plain) = lifecycle(99, false);
    let (snap_traced, stats_traced, events_traced) = lifecycle(99, true);
    assert!(events_plain.is_empty(), "untraced runs record nothing");
    assert!(!events_traced.is_empty(), "traced runs record");
    // The recorder must not perturb a single decision: identical final
    // grid, field for field, and identical counters.
    assert_eq!(snap_plain, snap_traced);
    assert_eq!(stats_plain, stats_traced);
}

#[test]
fn trace_reconciles_with_netstats_per_kind() {
    let (_, stats, events) = lifecycle(7, true);
    for (kind, tag) in [
        (MsgKind::Exchange, MsgTag::Exchange),
        (MsgKind::Query, MsgTag::Query),
        (MsgKind::Update, MsgTag::Update),
        (MsgKind::Flood, MsgTag::Flood),
        (MsgKind::Control, MsgTag::Control),
    ] {
        let traced = events
            .iter()
            .filter(|s| s.event == TraceEvent::Message { kind: tag })
            .count() as u64;
        assert_eq!(
            traced,
            stats.count(kind),
            "trace and counters disagree on {}",
            tag.name()
        );
    }
    // The analyzer's replay reaches the same tallies from the encoded file.
    let lines: Vec<String> = events.iter().map(encode_line).collect();
    let summary = summarize(&lines).expect("recorded trace must replay");
    for kind in [
        MsgTag::Exchange,
        MsgTag::Query,
        MsgTag::Update,
        MsgTag::Flood,
        MsgTag::Control,
    ] {
        let direct = events
            .iter()
            .filter(|s| s.event == TraceEvent::Message { kind })
            .count() as u64;
        assert_eq!(summary.count(kind), direct);
    }
    assert_eq!(summary.queries.len(), 32, "one hop chain per search");
    assert!(
        summary.queries.iter().any(|c| !c.hops.is_empty()),
        "at least one query must have delegated"
    );
}

#[test]
fn trace_diff_pinpoints_the_first_divergent_event() {
    let (_, _, a) = lifecycle(99, true);
    let (_, _, b) = lifecycle(99, true);
    let (_, _, c) = lifecycle(100, true);
    let la: Vec<String> = a.iter().map(encode_line).collect();
    let lb: Vec<String> = b.iter().map(encode_line).collect();
    let lc: Vec<String> = c.iter().map(encode_line).collect();
    assert_eq!(
        first_divergence(&la, &lb),
        None,
        "same seed must record byte-identical traces"
    );
    let (line, ea, ec) = first_divergence(&la, &lc).expect("different seeds must diverge");
    assert!(line >= 1);
    // Both runs were long enough that divergence happens mid-trace, not by
    // one trace simply ending.
    assert!(ea.is_some() && ec.is_some());
}
