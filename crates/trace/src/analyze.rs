//! Trace replay: per-kind message tallies (for `NetStats` reconciliation),
//! per-query hop chains, and first-divergence diffing.

use crate::event::{decode_line, MsgTag, TraceEvent};

/// One reconstructed query descent.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HopChain {
    /// 1-based line number of the `query_start` event.
    pub start_line: usize,
    /// Peer the query was posed to.
    pub start: u64,
    /// Queried key (bit string).
    pub key: String,
    /// Realized hops, in order: (from, to, depth).
    pub hops: Vec<(u64, u64, u32)>,
    /// Responsible peer, if the search succeeded.
    pub responsible: Option<u64>,
    /// Query messages charged during the descent.
    pub messages: u64,
    /// Hop count reported by the descent itself.
    pub hop_count: u32,
}

/// Aggregates computed by replaying a trace.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TraceSummary {
    /// Per-kind `message` tallies, indexed by [`MsgTag::idx`]. These must
    /// reconcile exactly with the `NetStats` counts of the traced run.
    pub message_counts: [u64; 5],
    /// Total events replayed.
    pub events: usize,
    /// Reconstructed query descents, in trace order.
    pub queries: Vec<HopChain>,
    /// `exchange` events by Fig. 3 case name, in first-seen order.
    pub exchange_cases: Vec<(String, u64)>,
    /// Retransmissions observed.
    pub retransmits: u64,
    /// Retry budgets exhausted.
    pub timeouts: u64,
    /// Reference evictions observed.
    pub evictions: u64,
}

impl TraceSummary {
    /// Tally for one message kind.
    pub fn count(&self, kind: MsgTag) -> u64 {
        self.message_counts[kind.idx()]
    }
}

/// Replays JSONL trace lines into a [`TraceSummary`]. Query hop chains are
/// reconstructed positionally: within one tracer stream, descents never
/// interleave (the engine merges shard streams whole, in task order), so a
/// chain is simply everything between a `query_start` and its `query_end`.
pub fn summarize<I, S>(lines: I) -> Result<TraceSummary, String>
where
    I: IntoIterator<Item = S>,
    S: AsRef<str>,
{
    let mut summary = TraceSummary::default();
    let mut open: Option<HopChain> = None;
    for (idx, line) in lines.into_iter().enumerate() {
        let line = line.as_ref();
        if line.trim().is_empty() {
            continue;
        }
        let line_no = idx + 1;
        let stamped = decode_line(line, line_no)?;
        summary.events += 1;
        match stamped.event {
            TraceEvent::Message { kind } => {
                summary.message_counts[kind.idx()] += 1;
            }
            TraceEvent::QueryStart { start, key } => {
                if open.is_some() {
                    return Err(format!(
                        "line {line_no}: query_start while a descent is already open"
                    ));
                }
                open = Some(HopChain {
                    start_line: line_no,
                    start,
                    key,
                    hops: Vec::new(),
                    responsible: None,
                    messages: 0,
                    hop_count: 0,
                });
            }
            TraceEvent::QueryHop { from, to, depth } => {
                if let Some(chain) = open.as_mut() {
                    chain.hops.push((from, to, depth));
                }
            }
            TraceEvent::QueryEnd {
                responsible,
                messages,
                hops,
            } => {
                let mut chain = open.take().ok_or_else(|| {
                    format!("line {line_no}: query_end without a matching query_start")
                })?;
                chain.responsible = u64::try_from(responsible).ok();
                chain.messages = messages;
                chain.hop_count = hops;
                summary.queries.push(chain);
            }
            TraceEvent::Exchange { case, .. } => {
                let name = case.name();
                match summary.exchange_cases.iter_mut().find(|(n, _)| n == name) {
                    Some((_, count)) => *count += 1,
                    None => summary.exchange_cases.push((name.to_string(), 1)),
                }
            }
            TraceEvent::Retransmit { .. } => summary.retransmits += 1,
            TraceEvent::TimeoutGiveUp { .. } => summary.timeouts += 1,
            TraceEvent::PeerEvicted { .. } => summary.evictions += 1,
            _ => {}
        }
    }
    if let Some(chain) = open {
        return Err(format!(
            "trace ends inside the descent opened at line {}",
            chain.start_line
        ));
    }
    Ok(summary)
}

/// Finds the first position where two traces differ, comparing raw lines
/// (the encoding is deterministic, so byte equality is event equality).
/// Returns `(line_number, line_from_a, line_from_b)`, where a `None` line
/// means that trace ended first; `None` overall means the traces match.
pub fn first_divergence<'a>(
    a: &'a [String],
    b: &'a [String],
) -> Option<(usize, Option<&'a str>, Option<&'a str>)> {
    let longest = a.len().max(b.len());
    for i in 0..longest {
        let la = a.get(i).map(String::as_str);
        let lb = b.get(i).map(String::as_str);
        if la != lb {
            return Some((i + 1, la, lb));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::encode_line;
    use crate::tracer::Stamped;

    fn lines(events: Vec<TraceEvent>) -> Vec<String> {
        events
            .into_iter()
            .enumerate()
            .map(|(seq, event)| {
                encode_line(&Stamped {
                    seq: seq as u64,
                    event,
                })
            })
            .collect()
    }

    #[test]
    fn summarize_tallies_and_reconstructs_chains() {
        let trace = lines(vec![
            TraceEvent::Message {
                kind: MsgTag::Exchange,
            },
            TraceEvent::QueryStart {
                start: 1,
                key: "01".to_string(),
            },
            TraceEvent::Message {
                kind: MsgTag::Query,
            },
            TraceEvent::QueryHop {
                from: 1,
                to: 4,
                depth: 1,
            },
            TraceEvent::QueryEnd {
                responsible: 4,
                messages: 1,
                hops: 1,
            },
            TraceEvent::QueryStart {
                start: 2,
                key: "11".to_string(),
            },
            TraceEvent::QueryEnd {
                responsible: -1,
                messages: 0,
                hops: 0,
            },
        ]);
        let summary = summarize(&trace).unwrap();
        assert_eq!(summary.count(MsgTag::Exchange), 1);
        assert_eq!(summary.count(MsgTag::Query), 1);
        assert_eq!(summary.events, 7);
        assert_eq!(summary.queries.len(), 2);
        assert_eq!(summary.queries[0].hops, vec![(1, 4, 1)]);
        assert_eq!(summary.queries[0].responsible, Some(4));
        assert_eq!(summary.queries[1].responsible, None);
    }

    #[test]
    fn summarize_rejects_unbalanced_descents() {
        let missing_end = lines(vec![TraceEvent::QueryStart {
            start: 0,
            key: "0".to_string(),
        }]);
        assert!(summarize(&missing_end).is_err());
        let missing_start = lines(vec![TraceEvent::QueryEnd {
            responsible: -1,
            messages: 0,
            hops: 0,
        }]);
        assert!(summarize(&missing_start).is_err());
    }

    #[test]
    fn first_divergence_pinpoints_the_first_differing_line() {
        let a = lines(vec![
            TraceEvent::Message {
                kind: MsgTag::Query,
            },
            TraceEvent::Message {
                kind: MsgTag::Update,
            },
        ]);
        let mut b = a.clone();
        assert_eq!(first_divergence(&a, &b), None);
        b[1] = lines(vec![TraceEvent::Message {
            kind: MsgTag::Flood,
        }])
        .remove(0);
        let (line, la, lb) = first_divergence(&a, &b).unwrap();
        assert_eq!(line, 2);
        assert!(la.unwrap().contains("update"));
        assert!(lb.unwrap().contains("flood"));
        b.truncate(1);
        let (line, la, lb) = first_divergence(&a, &b).unwrap();
        assert_eq!(line, 2);
        assert!(la.is_some() && lb.is_none());
    }
}
