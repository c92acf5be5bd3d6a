//! Message accounting and distribution summaries.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign};

/// The kinds of messages the P-Grid protocols exchange. The paper's cost
/// metrics count messages by protocol phase: exchanges during construction
/// (§5.1), query messages (§5.2, "successful calls of the query operation to
/// another peer"), and update propagation messages (§5.2).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MsgKind {
    /// A construction-time exchange between two peers (Fig. 3).
    Exchange,
    /// A query forwarded to another peer (Fig. 2).
    Query,
    /// An update propagated to a replica.
    Update,
    /// A flooding message (Gnutella baseline).
    Flood,
    /// Anything else (membership, control).
    Control,
}

impl MsgKind {
    const ALL: [MsgKind; 5] = [
        MsgKind::Exchange,
        MsgKind::Query,
        MsgKind::Update,
        MsgKind::Flood,
        MsgKind::Control,
    ];

    fn idx(self) -> usize {
        match self {
            MsgKind::Exchange => 0,
            MsgKind::Query => 1,
            MsgKind::Update => 2,
            MsgKind::Flood => 3,
            MsgKind::Control => 4,
        }
    }
}

/// `pgrid-trace` sits below this crate and mirrors [`MsgKind`] as
/// [`pgrid_trace::MsgTag`]; the conversion lives here so trace replay can
/// reconcile per-kind tallies against [`NetStats`] without a dependency
/// cycle.
impl From<MsgKind> for pgrid_trace::MsgTag {
    fn from(kind: MsgKind) -> pgrid_trace::MsgTag {
        match kind {
            MsgKind::Exchange => pgrid_trace::MsgTag::Exchange,
            MsgKind::Query => pgrid_trace::MsgTag::Query,
            MsgKind::Update => pgrid_trace::MsgTag::Update,
            MsgKind::Flood => pgrid_trace::MsgTag::Flood,
            MsgKind::Control => pgrid_trace::MsgTag::Control,
        }
    }
}

/// Inverse of the [`MsgKind`] → [`pgrid_trace::MsgTag`] mirror, for
/// analyzers that start from a decoded trace.
impl From<pgrid_trace::MsgTag> for MsgKind {
    fn from(tag: pgrid_trace::MsgTag) -> MsgKind {
        match tag {
            pgrid_trace::MsgTag::Exchange => MsgKind::Exchange,
            pgrid_trace::MsgTag::Query => MsgKind::Query,
            pgrid_trace::MsgTag::Update => MsgKind::Update,
            pgrid_trace::MsgTag::Flood => MsgKind::Flood,
            pgrid_trace::MsgTag::Control => MsgKind::Control,
        }
    }
}

/// Network-wide message counters.
///
/// `contact_attempts` additionally counts probes that failed because the
/// target was offline — those are *not* messages in the paper's metric, but
/// they matter when reasoning about wasted work.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct NetStats {
    counts: [u64; 5],
    /// All contact probes, including ones that found the target offline.
    pub contact_attempts: u64,
    /// Probes that failed because the target was offline.
    pub failed_contacts: u64,
    /// Frames dropped in flight (injected loss or unreachable target).
    pub dropped: u64,
    /// Frames delivered more than once by a faulty link.
    pub duplicated: u64,
    /// Frames delivered out of order by a faulty link.
    pub reordered: u64,
    /// Frames held back and delivered late by a faulty link.
    pub delayed: u64,
    /// Retransmissions of unacknowledged frames.
    pub retries: u64,
    /// Frames whose retransmit budget was exhausted without an ack.
    pub timeouts: u64,
    /// Frames that failed to decode at the receiver.
    pub malformed: u64,
    /// Routing-table references evicted after repeated timeouts.
    pub evictions: u64,
    /// Local invariant violations detected by the stabilizer's audit.
    pub violations_detected: u64,
    /// Corrective actions applied by the stabilizer (evictions,
    /// path corrections, re-homed entries, dropped buddies).
    pub repairs_applied: u64,
    /// Socket connections established (outbound connects plus accepted
    /// inbound preambles). Normal activity, not a fault.
    pub conn_established: u64,
    /// Socket connections lost to I/O errors, mid-frame EOF, or exhausted
    /// reconnect attempts.
    pub conn_lost: u64,
    /// Frames accepted into a connection's bounded write queue. Normal
    /// activity, not a fault.
    pub writes_queued: u64,
    /// Frames shed drop-newest because a write queue was full
    /// (backpressure on the socket path).
    pub writes_shed: u64,
    /// Readiness events that left a torn frame buffered in a read
    /// accumulator. The *common* case under nonblocking reads — counted
    /// for observability, not a fault.
    pub partial_frames: u64,
    /// Peers whose path grew one bit in a balance round (hot-group
    /// splits). Corrective activity, not a fault.
    pub paths_extended: u64,
    /// Peers retracted to their parent path in a balance round
    /// (over-provisioned cold leaves). Corrective activity, not a fault.
    pub paths_retracted: u64,
    /// Index entries that changed host during balancing (split handoffs,
    /// migration handoffs, and new-replica copies).
    pub entries_rebalanced: u64,
    /// Sum of per-balance-round max/mean load ratio samples, x1000
    /// (divide by the number of rounds for the average ratio). Additive so
    /// shard merges stay order-free.
    pub load_max_over_mean_x1000: u64,
}

impl NetStats {
    /// Fresh, zeroed counters.
    pub fn new() -> Self {
        NetStats::default()
    }

    /// Records one delivered message of the given kind.
    #[inline]
    pub fn record(&mut self, kind: MsgKind) {
        self.counts[kind.idx()] += 1;
    }

    /// Records a contact probe; `online` tells whether it succeeded.
    #[inline]
    pub fn record_contact(&mut self, online: bool) {
        self.contact_attempts += 1;
        if !online {
            self.failed_contacts += 1;
        }
    }

    /// Messages delivered of one kind.
    #[inline]
    pub fn count(&self, kind: MsgKind) -> u64 {
        self.counts[kind.idx()]
    }

    /// Total delivered messages across kinds.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Component-wise difference `self - earlier` (counters only grow).
    pub fn since(&self, earlier: &NetStats) -> NetStats {
        let mut out = NetStats::new();
        for k in MsgKind::ALL {
            out.counts[k.idx()] = self.count(k) - earlier.count(k);
        }
        out.contact_attempts = self.contact_attempts - earlier.contact_attempts;
        out.failed_contacts = self.failed_contacts - earlier.failed_contacts;
        out.dropped = self.dropped - earlier.dropped;
        out.duplicated = self.duplicated - earlier.duplicated;
        out.reordered = self.reordered - earlier.reordered;
        out.delayed = self.delayed - earlier.delayed;
        out.retries = self.retries - earlier.retries;
        out.timeouts = self.timeouts - earlier.timeouts;
        out.malformed = self.malformed - earlier.malformed;
        out.evictions = self.evictions - earlier.evictions;
        out.violations_detected = self.violations_detected - earlier.violations_detected;
        out.repairs_applied = self.repairs_applied - earlier.repairs_applied;
        out.conn_established = self.conn_established - earlier.conn_established;
        out.conn_lost = self.conn_lost - earlier.conn_lost;
        out.writes_queued = self.writes_queued - earlier.writes_queued;
        out.writes_shed = self.writes_shed - earlier.writes_shed;
        out.partial_frames = self.partial_frames - earlier.partial_frames;
        out.paths_extended = self.paths_extended - earlier.paths_extended;
        out.paths_retracted = self.paths_retracted - earlier.paths_retracted;
        out.entries_rebalanced = self.entries_rebalanced - earlier.entries_rebalanced;
        out.load_max_over_mean_x1000 =
            self.load_max_over_mean_x1000 - earlier.load_max_over_mean_x1000;
        out
    }

    /// Adds another counter set into this one.
    pub fn merge(&mut self, other: &NetStats) {
        for k in MsgKind::ALL {
            self.counts[k.idx()] += other.count(k);
        }
        self.contact_attempts += other.contact_attempts;
        self.failed_contacts += other.failed_contacts;
        self.dropped += other.dropped;
        self.duplicated += other.duplicated;
        self.reordered += other.reordered;
        self.delayed += other.delayed;
        self.retries += other.retries;
        self.timeouts += other.timeouts;
        self.malformed += other.malformed;
        self.evictions += other.evictions;
        self.violations_detected += other.violations_detected;
        self.repairs_applied += other.repairs_applied;
        self.conn_established += other.conn_established;
        self.conn_lost += other.conn_lost;
        self.writes_queued += other.writes_queued;
        self.writes_shed += other.writes_shed;
        self.partial_frames += other.partial_frames;
        self.paths_extended += other.paths_extended;
        self.paths_retracted += other.paths_retracted;
        self.entries_rebalanced += other.entries_rebalanced;
        self.load_max_over_mean_x1000 += other.load_max_over_mean_x1000;
    }

    /// True when no fault, retry, or rejection counter is set — the
    /// signature of a clean (fault-free) run with no phantom retries.
    ///
    /// `conn_established`, `writes_queued`, and `partial_frames` are
    /// deliberately excluded: a clean run over real sockets legitimately
    /// opens connections, queues writes, and sees torn nonblocking reads.
    /// Shed writes and lost connections, by contrast, lose frames. The
    /// balance counters (`paths_extended`, `paths_retracted`,
    /// `entries_rebalanced`, `load_max_over_mean_x1000`) are excluded for
    /// the same reason: load adaptation is scheduled activity, not damage.
    pub fn is_fault_free(&self) -> bool {
        self.dropped == 0
            && self.duplicated == 0
            && self.reordered == 0
            && self.delayed == 0
            && self.retries == 0
            && self.timeouts == 0
            && self.malformed == 0
            && self.evictions == 0
            && self.violations_detected == 0
            && self.repairs_applied == 0
            && self.conn_lost == 0
            && self.writes_shed == 0
    }
}

impl AddAssign<&NetStats> for NetStats {
    fn add_assign(&mut self, other: &NetStats) {
        self.merge(other);
    }
}

impl AddAssign for NetStats {
    fn add_assign(&mut self, other: NetStats) {
        self.merge(&other);
    }
}

impl Add for NetStats {
    type Output = NetStats;

    fn add(mut self, other: NetStats) -> NetStats {
        self.merge(&other);
        self
    }
}

impl Sum for NetStats {
    fn sum<I: Iterator<Item = NetStats>>(iter: I) -> NetStats {
        iter.fold(NetStats::new(), |acc, s| acc + s)
    }
}

impl<'a> Sum<&'a NetStats> for NetStats {
    fn sum<I: Iterator<Item = &'a NetStats>>(iter: I) -> NetStats {
        iter.fold(NetStats::new(), |mut acc, s| {
            acc.merge(s);
            acc
        })
    }
}

impl fmt::Display for NetStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "exchange={} query={} update={} flood={} control={} (attempts={}, failed={})",
            self.count(MsgKind::Exchange),
            self.count(MsgKind::Query),
            self.count(MsgKind::Update),
            self.count(MsgKind::Flood),
            self.count(MsgKind::Control),
            self.contact_attempts,
            self.failed_contacts,
        )?;
        if !self.is_fault_free() {
            write!(
                f,
                " [dropped={} dup={} reorder={} delayed={} retries={} timeouts={} malformed={} evictions={} violations={} repairs={} conn_lost={} shed={}]",
                self.dropped,
                self.duplicated,
                self.reordered,
                self.delayed,
                self.retries,
                self.timeouts,
                self.malformed,
                self.evictions,
                self.violations_detected,
                self.repairs_applied,
                self.conn_lost,
                self.writes_shed,
            )?;
        }
        if self.conn_established != 0 || self.writes_queued != 0 || self.partial_frames != 0 {
            write!(
                f,
                " (conns={} writes={} partial={})",
                self.conn_established, self.writes_queued, self.partial_frames,
            )?;
        }
        if self.paths_extended != 0 || self.paths_retracted != 0 || self.entries_rebalanced != 0 {
            write!(
                f,
                " (extended={} retracted={} rebalanced={})",
                self.paths_extended, self.paths_retracted, self.entries_rebalanced,
            )?;
        }
        Ok(())
    }
}

/// A sparse histogram over `u64` observations, used for replica-count and
/// path-length distributions (Fig. 4) and message-per-query summaries.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Histogram {
    buckets: std::collections::BTreeMap<u64, u64>,
    count: u64,
    sum: u64,
}

impl Histogram {
    /// Fresh, empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Records one observation.
    pub fn record(&mut self, value: u64) {
        *self.buckets.entry(value).or_insert(0) += 1;
        self.count += 1;
        self.sum += value;
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of observations.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Arithmetic mean, or `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }

    /// Smallest observed value.
    pub fn min(&self) -> Option<u64> {
        self.buckets.keys().next().copied()
    }

    /// Largest observed value.
    pub fn max(&self) -> Option<u64> {
        self.buckets.keys().next_back().copied()
    }

    /// The smallest value `v` such that at least `q` (0..=1) of the
    /// observations are ≤ `v`.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0, 1]");
        let target = (q * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (&v, &c) in &self.buckets {
            seen += c;
            if seen >= target {
                return Some(v);
            }
        }
        self.max()
    }

    /// Iterates `(value, count)` in increasing value order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.buckets.iter().map(|(&v, &c)| (v, c))
    }

    /// Frequency of one exact value.
    pub fn frequency(&self, value: u64) -> u64 {
        self.buckets.get(&value).copied().unwrap_or(0)
    }
}

impl Extend<u64> for Histogram {
    fn extend<T: IntoIterator<Item = u64>>(&mut self, iter: T) {
        for v in iter {
            self.record(v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_by_kind() {
        let mut s = NetStats::new();
        s.record(MsgKind::Query);
        s.record(MsgKind::Query);
        s.record(MsgKind::Exchange);
        assert_eq!(s.count(MsgKind::Query), 2);
        assert_eq!(s.count(MsgKind::Exchange), 1);
        assert_eq!(s.count(MsgKind::Update), 0);
        assert_eq!(s.total(), 3);
    }

    #[test]
    fn contact_accounting() {
        let mut s = NetStats::new();
        s.record_contact(true);
        s.record_contact(false);
        s.record_contact(false);
        assert_eq!(s.contact_attempts, 3);
        assert_eq!(s.failed_contacts, 2);
    }

    #[test]
    fn since_and_merge() {
        let mut a = NetStats::new();
        a.record(MsgKind::Query);
        let checkpoint = a.clone();
        a.record(MsgKind::Query);
        a.record(MsgKind::Update);
        a.dropped += 3;
        a.retries += 2;
        a.timeouts += 1;
        let delta = a.since(&checkpoint);
        assert_eq!(delta.count(MsgKind::Query), 1);
        assert_eq!(delta.count(MsgKind::Update), 1);
        assert_eq!(delta.dropped, 3);
        assert_eq!(delta.retries, 2);
        assert_eq!(delta.timeouts, 1);

        let mut merged = checkpoint;
        merged.merge(&delta);
        assert_eq!(merged, a);
    }

    /// Every recording event the counters know about, for replaying one
    /// event stream into either a single accumulator or per-shard ones.
    #[derive(Clone, Copy)]
    enum Event {
        Msg(MsgKind),
        Contact(bool),
        Fault(usize),
    }

    fn apply(s: &mut NetStats, ev: Event) {
        match ev {
            Event::Msg(k) => s.record(k),
            Event::Contact(ok) => s.record_contact(ok),
            Event::Fault(i) => {
                let slot = [
                    &mut s.dropped,
                    &mut s.duplicated,
                    &mut s.reordered,
                    &mut s.delayed,
                    &mut s.retries,
                    &mut s.timeouts,
                    &mut s.malformed,
                    &mut s.evictions,
                    &mut s.violations_detected,
                    &mut s.repairs_applied,
                    &mut s.conn_established,
                    &mut s.conn_lost,
                    &mut s.writes_queued,
                    &mut s.writes_shed,
                    &mut s.partial_frames,
                    &mut s.paths_extended,
                    &mut s.paths_retracted,
                    &mut s.entries_rebalanced,
                    &mut s.load_max_over_mean_x1000,
                ];
                *slot[i] += 1;
            }
        }
    }

    /// `merge` must equal interleaved serial recording: replaying one event
    /// stream into a single accumulator gives the same counters as splitting
    /// it across two shards (round-robin) and merging them — covering the
    /// message, contact, and all nineteen fault/socket/balance counters.
    #[test]
    fn merge_equals_interleaved_serial_recording() {
        let events: Vec<Event> = (0..200)
            .map(|i| match i % 4 {
                0 => Event::Msg(MsgKind::ALL[i % 5]),
                1 => Event::Contact(i % 3 == 0),
                _ => Event::Fault(i % 19),
            })
            .collect();

        let mut serial = NetStats::new();
        for &ev in &events {
            apply(&mut serial, ev);
        }

        let mut shard_a = NetStats::new();
        let mut shard_b = NetStats::new();
        for (i, &ev) in events.iter().enumerate() {
            apply(
                if i % 2 == 0 {
                    &mut shard_a
                } else {
                    &mut shard_b
                },
                ev,
            );
        }
        let mut merged = shard_a.clone();
        merged.merge(&shard_b);
        assert_eq!(merged, serial);

        // Merge order must not matter either.
        let mut reversed = shard_b.clone();
        reversed.merge(&shard_a);
        assert_eq!(reversed, serial);

        // The operator forms agree with `merge`.
        let mut via_add_assign = shard_a.clone();
        via_add_assign += &shard_b;
        assert_eq!(via_add_assign, serial);
        assert_eq!(shard_a.clone() + shard_b.clone(), serial);
        assert_eq!([shard_a, shard_b].into_iter().sum::<NetStats>(), serial);
    }

    #[test]
    fn sum_over_shards_covers_fault_counters() {
        let shards: Vec<NetStats> = (0..5)
            .map(|i| {
                let mut s = NetStats::new();
                s.record(MsgKind::Query);
                s.dropped = i;
                s.retries = 2 * i;
                s.evictions = 1;
                s
            })
            .collect();
        let total: NetStats = shards.iter().sum();
        assert_eq!(total.count(MsgKind::Query), 5);
        assert_eq!(total.dropped, 10, "0+1+2+3+4");
        assert_eq!(total.retries, 20);
        assert_eq!(total.evictions, 5);
    }

    /// A merge carries every counter, fault fields included.
    #[test]
    fn merge_carries_every_counter() {
        let mut a = NetStats::new();
        a.record(MsgKind::Exchange);
        a.dropped = 3;
        a.duplicated = 1;
        a.reordered = 4;
        a.delayed = 1;
        let mut b = NetStats::new();
        b.record_contact(false);
        b.retries = 5;
        b.timeouts = 9;
        b.malformed = 6;
        b.evictions = 5;
        b.violations_detected = 4;
        b.repairs_applied = 3;
        b.conn_established = 7;
        b.conn_lost = 2;
        b.writes_queued = 40;
        b.writes_shed = 3;
        b.partial_frames = 11;
        b.paths_extended = 8;
        b.paths_retracted = 2;
        b.entries_rebalanced = 120;
        b.load_max_over_mean_x1000 = 1950;
        let mut expected = b.clone();
        expected.record(MsgKind::Exchange);
        expected.dropped = 3;
        expected.duplicated = 1;
        expected.reordered = 4;
        expected.delayed = 1;
        a.merge(&b);
        assert_eq!(a, expected);
        assert!(!a.is_fault_free());
    }

    #[test]
    fn fault_free_detection() {
        let mut s = NetStats::new();
        s.record(MsgKind::Query);
        s.record_contact(false);
        assert!(s.is_fault_free(), "message/contact counters are not faults");
        s.malformed += 1;
        assert!(!s.is_fault_free());
    }

    #[test]
    fn clean_socket_activity_is_not_a_fault() {
        let mut s = NetStats::new();
        s.conn_established = 12;
        s.writes_queued = 300;
        s.partial_frames = 40;
        assert!(
            s.is_fault_free(),
            "clean TCP runs open conns and tear reads"
        );
        s.writes_shed += 1;
        assert!(!s.is_fault_free(), "shed writes lose frames");
        s.writes_shed = 0;
        s.conn_lost += 1;
        assert!(!s.is_fault_free(), "lost conns lose queued frames");
    }

    #[test]
    fn balance_activity_is_not_a_fault() {
        let mut s = NetStats::new();
        s.paths_extended = 6;
        s.paths_retracted = 2;
        s.entries_rebalanced = 500;
        s.load_max_over_mean_x1000 = 1800;
        assert!(s.is_fault_free(), "load adaptation is scheduled activity");
        let shown = s.to_string();
        assert!(shown.contains("extended=6"), "{shown}");
        assert!(shown.contains("rebalanced=500"), "{shown}");
    }

    #[test]
    fn display_is_readable() {
        let mut s = NetStats::new();
        s.record(MsgKind::Flood);
        assert!(s.to_string().contains("flood=1"));
    }

    #[test]
    fn histogram_stats() {
        let mut h = Histogram::new();
        h.extend([1, 2, 2, 3, 10]);
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 18);
        assert_eq!(h.mean(), Some(3.6));
        assert_eq!(h.min(), Some(1));
        assert_eq!(h.max(), Some(10));
        assert_eq!(h.frequency(2), 2);
        assert_eq!(h.frequency(7), 0);
    }

    #[test]
    fn histogram_quantiles() {
        let mut h = Histogram::new();
        h.extend(1..=100);
        assert_eq!(h.quantile(0.5), Some(50));
        assert_eq!(h.quantile(0.99), Some(99));
        assert_eq!(h.quantile(1.0), Some(100));
        assert_eq!(h.quantile(0.0), Some(1));
        assert_eq!(Histogram::new().quantile(0.5), None);
        assert_eq!(Histogram::new().mean(), None);
    }

    #[test]
    fn histogram_iteration_sorted() {
        let mut h = Histogram::new();
        h.extend([5, 1, 5, 3]);
        let pairs: Vec<(u64, u64)> = h.iter().collect();
        assert_eq!(pairs, vec![(1, 1), (3, 1), (5, 2)]);
    }
}
