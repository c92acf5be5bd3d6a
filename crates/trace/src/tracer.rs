//! The [`Tracer`] trait and its three implementations.

use std::collections::VecDeque;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;

use crate::event::{encode_line, TraceEvent};

/// An event stamped with its logical time: a per-tracer sequence number.
/// Wall-clock stamps are deliberately impossible — they would break the
/// byte-identity guarantee across reruns and thread counts.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Stamped {
    /// Position of this event in the tracer's stream, starting at 0.
    pub seq: u64,
    /// The recorded event.
    pub event: TraceEvent,
}

/// A sink for trace events. Implementations stamp each event with their own
/// monotonic sequence number.
///
/// Call sites must guard event *construction* behind [`Tracer::enabled`]
/// (the `trace` helpers on the context types do this), so a disabled tracer
/// costs one branch and zero allocations per instrumentation point.
pub trait Tracer: Send {
    /// `false` for sinks that discard everything; callers skip event
    /// construction entirely in that case.
    fn enabled(&self) -> bool;

    /// Records one event. Only called when [`Tracer::enabled`] is `true`
    /// (calling it anyway is harmless — null sinks simply drop the event).
    fn record(&mut self, event: TraceEvent);

    /// Drains buffered events, if this tracer buffers any. In-memory
    /// tracers return their buffer; streaming/null tracers return nothing.
    /// Used by the sharded engine to collect per-shard streams in task
    /// order without downcasting.
    fn take_events(&mut self) -> Vec<Stamped> {
        Vec::new()
    }
}

/// The default sink: discards everything, reports itself disabled.
#[derive(Clone, Copy, Debug, Default)]
pub struct NullTracer;

impl Tracer for NullTracer {
    fn enabled(&self) -> bool {
        false
    }

    fn record(&mut self, _event: TraceEvent) {}
}

/// A bounded in-memory recorder: keeps the most recent `cap` events (the
/// "flight recorder" proper). Overflow evicts the oldest event and counts
/// it, so an analyzer can tell a short trace from a truncated one.
#[derive(Debug)]
pub struct RingTracer {
    buf: VecDeque<Stamped>,
    cap: usize,
    next_seq: u64,
    dropped: u64,
}

impl RingTracer {
    /// Creates a recorder holding at most `cap` events (`cap` ≥ 1 to be
    /// useful; `cap == 0` records nothing but still counts sequence
    /// numbers and drops).
    pub fn new(cap: usize) -> Self {
        RingTracer {
            buf: VecDeque::with_capacity(cap.min(4096)),
            cap,
            next_seq: 0,
            dropped: 0,
        }
    }

    /// Events evicted by the bound so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Events currently held.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// `true` when no event is held.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Borrow the retained events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &Stamped> {
        self.buf.iter()
    }
}

impl Tracer for RingTracer {
    fn enabled(&self) -> bool {
        true
    }

    fn record(&mut self, event: TraceEvent) {
        let seq = self.next_seq;
        self.next_seq += 1;
        if self.cap == 0 {
            self.dropped += 1;
            return;
        }
        if self.buf.len() == self.cap {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(Stamped { seq, event });
    }

    fn take_events(&mut self) -> Vec<Stamped> {
        self.buf.drain(..).collect()
    }
}

/// A streaming JSONL recorder: encodes each event as one line into any
/// `Write` sink (typically a buffered file). Encoding happens inline, so
/// only attach this to paths whose overhead you intend to measure.
pub struct FileTracer<W: Write + Send = BufWriter<File>> {
    // `Option` only so `into_inner` can move the writer out despite `Drop`.
    out: Option<W>,
    next_seq: u64,
    error: Option<io::Error>,
}

impl FileTracer<BufWriter<File>> {
    /// Creates (truncates) `path` and streams events into it.
    pub fn create<P: AsRef<Path>>(path: P) -> io::Result<Self> {
        Ok(FileTracer::new(BufWriter::new(File::create(path)?)))
    }
}

impl<W: Write + Send> FileTracer<W> {
    /// Wraps an arbitrary writer.
    pub fn new(out: W) -> Self {
        FileTracer {
            out: Some(out),
            next_seq: 0,
            error: None,
        }
    }

    /// The first write error, if any occurred. Recording never panics; a
    /// failed sink silently swallows subsequent events and reports here.
    pub fn error(&self) -> Option<&io::Error> {
        self.error.as_ref()
    }

    /// Flushes and returns the underlying writer.
    pub fn into_inner(mut self) -> io::Result<W> {
        let mut out = self.out.take().expect("writer present until dropped");
        out.flush()?;
        Ok(out)
    }
}

impl<W: Write + Send> Tracer for FileTracer<W> {
    fn enabled(&self) -> bool {
        true
    }

    fn record(&mut self, event: TraceEvent) {
        let stamped = Stamped {
            seq: self.next_seq,
            event,
        };
        self.next_seq += 1;
        if self.error.is_some() {
            return;
        }
        let Some(out) = self.out.as_mut() else { return };
        let line = encode_line(&stamped);
        if let Err(e) = out
            .write_all(line.as_bytes())
            .and_then(|()| out.write_all(b"\n"))
        {
            self.error = Some(e);
        }
    }
}

impl<W: Write + Send> Drop for FileTracer<W> {
    fn drop(&mut self) {
        if let Some(out) = self.out.as_mut() {
            let _ = out.flush();
        }
    }
}

/// Merges per-shard event streams into one, in shard (task) order, and
/// re-stamps sequence numbers so the merged stream is contiguous. This is
/// the trace-side twin of `NetStats` shard merging: because shards are
/// always concatenated in task order, the merged trace is independent of
/// how tasks were scheduled onto threads.
pub fn merge_shards(shards: Vec<Vec<Stamped>>) -> Vec<Stamped> {
    let total = shards.iter().map(Vec::len).sum();
    let mut merged = Vec::with_capacity(total);
    for shard in shards {
        for stamped in shard {
            merged.push(Stamped {
                seq: merged.len() as u64,
                event: stamped.event,
            });
        }
    }
    merged
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::MsgTag;

    fn msg(kind: MsgTag) -> TraceEvent {
        TraceEvent::Message { kind }
    }

    #[test]
    fn null_tracer_is_disabled_and_silent() {
        let mut t = NullTracer;
        assert!(!t.enabled());
        t.record(msg(MsgTag::Query));
        assert!(t.take_events().is_empty());
    }

    #[test]
    fn ring_tracer_keeps_the_most_recent_events() {
        let mut t = RingTracer::new(2);
        for kind in [MsgTag::Exchange, MsgTag::Query, MsgTag::Update] {
            t.record(msg(kind));
        }
        assert_eq!(t.dropped(), 1);
        let events = t.take_events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].seq, 1);
        assert_eq!(events[0].event, msg(MsgTag::Query));
        assert_eq!(events[1].seq, 2);
        assert_eq!(events[1].event, msg(MsgTag::Update));
        assert!(t.is_empty());
    }

    #[test]
    fn ring_tracer_cap_zero_records_nothing() {
        let mut t = RingTracer::new(0);
        t.record(msg(MsgTag::Flood));
        assert_eq!(t.len(), 0);
        assert_eq!(t.dropped(), 1);
    }

    #[test]
    fn file_tracer_streams_jsonl() {
        let mut t = FileTracer::new(Vec::new());
        t.record(msg(MsgTag::Control));
        t.record(msg(MsgTag::Query));
        assert!(t.error().is_none());
        let bytes = t.into_inner().unwrap();
        let text = String::from_utf8(bytes).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"seq\":0"));
        assert!(lines[1].contains("\"seq\":1"));
        assert!(lines[1].contains("\"kind\":\"query\""));
    }

    #[test]
    fn merge_restamps_in_shard_order() {
        let a = vec![
            Stamped {
                seq: 0,
                event: msg(MsgTag::Exchange),
            },
            Stamped {
                seq: 1,
                event: msg(MsgTag::Query),
            },
        ];
        let b = vec![Stamped {
            seq: 0,
            event: msg(MsgTag::Update),
        }];
        let merged = merge_shards(vec![a, b]);
        assert_eq!(
            merged.iter().map(|s| s.seq).collect::<Vec<u64>>(),
            vec![0, 1, 2]
        );
        assert_eq!(merged[2].event, msg(MsgTag::Update));
    }
}
