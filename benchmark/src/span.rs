//! Spans recorded from the benchmark's own files around every call into a
//! layer: name, start, end, parent span and op id, kept in memory and
//! written out when the run ends. A layer's self time is its span's
//! duration minus the part its child spans cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// In-memory cap: a traced window stops recording (and the loop driving it
/// stops) once this many spans exist.
pub const SPAN_CAP: usize = 1_500_000;
/// Spans written to the trace file; the aggregate table covers all of them.
const FILE_SPAN_CAP: usize = 20_000;

#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub op: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
    pub start_ns: u64,
    pub end_ns: u64,
}

#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SelfTime {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    op: u64,
}

impl Recorder {
    pub fn new(enabled: bool) -> Self {
        Recorder {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    pub fn full(&self) -> bool {
        self.spans.len() >= SPAN_CAP
    }

    /// Spans opened from now on belong to op `op`.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    /// Times `f` as a span named `name`, nested in whatever span is open.
    /// With recording off this is one branch around the call.
    #[inline]
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            op: self.op,
            parent: self.open.last().copied(),
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id as usize].end_ns = self.epoch.elapsed().as_nanos() as u64;
        out
    }

    /// A position in the span list, to aggregate only what follows it.
    pub fn mark(&self) -> usize {
        self.spans.len()
    }

    /// Self times over the spans recorded since `mark` (0 = all).
    pub fn self_times_since(&self, mark: usize) -> BTreeMap<&'static str, SelfTime> {
        self_times(&self.spans, mark)
    }

    /// Writes the aggregate table and the first spans as JSON.
    pub fn write_json(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = String::from("{\"self_time\":{");
        for (i, (name, t)) in self.self_times_since(0).iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            write!(
                out,
                "{sep}\"{name}\":{{\"count\":{},\"total_ns\":{},\"self_ns\":{}}}",
                t.count, t.total_ns, t.self_ns
            )
            .expect("write to String");
        }
        write!(
            out,
            "}},\"spans_recorded\":{},\"spans\":[",
            self.spans.len()
        )
        .expect("write");
        for (i, s) in self.spans.iter().take(FILE_SPAN_CAP).enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            write!(
                out,
                "{sep}\n{{\"id\":{i},\"name\":\"{}\",\"op\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.op, s.start_ns, s.end_ns
            )
            .expect("write to String");
        }
        out.push_str("]}\n");
        std::fs::write(path, out)
    }
}

/// Per span name over `all[from..]`: how often it ran, its total time, and
/// its self time (total minus the time covered by direct children).
fn self_times(all: &[Span], from: usize) -> BTreeMap<&'static str, SelfTime> {
    let spans = &all[from..];
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent.filter(|&p| p as usize >= from) {
            child_ns[p as usize - from] += s.end_ns - s.start_ns;
        }
    }
    let mut table: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
    for (s, children) in spans.iter().zip(child_ns) {
        let total = s.end_ns - s.start_ns;
        let row = table.entry(s.name).or_default();
        row.count += 1;
        row.total_ns += total;
        row.self_ns += total.saturating_sub(children);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            op: 0,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_total_minus_direct_children() {
        let spans = [
            span("op", None, 0, 100),
            span("node.query", Some(0), 10, 70),
            span("wire.encode", Some(1), 20, 30),
            span("check", Some(0), 70, 90),
            span("op", None, 100, 150),
        ];
        let t = self_times(&spans, 0);
        assert_eq!(
            t["op"],
            SelfTime {
                count: 2,
                total_ns: 150,
                self_ns: 70
            }
        );
        assert_eq!(
            t["node.query"],
            SelfTime {
                count: 1,
                total_ns: 60,
                self_ns: 50
            }
        );
        assert_eq!(
            t["wire.encode"],
            SelfTime {
                count: 1,
                total_ns: 10,
                self_ns: 10
            }
        );
        // Self times partition the root spans' total.
        assert_eq!(t.values().map(|r| r.self_ns).sum::<u64>(), 150);
        // From a mark, earlier spans (and parents among them) are left out.
        let t = self_times(&spans, 4);
        assert_eq!(t.len(), 1);
        assert_eq!(
            t["op"],
            SelfTime {
                count: 1,
                total_ns: 50,
                self_ns: 50
            }
        );
    }

    #[test]
    fn recorder_nests_and_disabled_records_nothing() {
        let mut rec = Recorder::new(true);
        rec.set_op(9);
        let got = rec.span("outer", |rec| rec.span("inner", |_| 42));
        assert_eq!(got, 42);
        assert_eq!(rec.spans.len(), 2);
        assert_eq!(rec.spans[1].parent, Some(0));
        assert_eq!(rec.spans[1].op, 9);
        assert!(rec.spans[0].end_ns >= rec.spans[1].end_ns);

        let mut off = Recorder::new(false);
        assert_eq!(off.span("outer", |_| 1), 1);
        assert!(off.spans.is_empty());
    }
}
