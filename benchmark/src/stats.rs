//! Percentiles with their sample counts, and throughput over sub-windows.

use std::time::{Duration, Instant};

/// The `q`-quantile (nearest rank) of an ascending slice.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    assert!((0.0..=1.0).contains(&q));
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// How many samples lie strictly beyond the `q`-quantile's rank: a tail
/// percentile is only worth reporting with at least ten.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    n - ((q * n as f64).ceil() as usize).clamp(1, n.max(1)).min(n)
}

pub fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    percentile(values, 0.5)
}

/// Median and 99th percentile of a latency sample, in the unit given.
pub struct Latency {
    pub p50: f64,
    pub p90: f64,
    pub p99: f64,
    pub samples: usize,
    pub beyond_p99: usize,
}

impl Latency {
    /// The tail beside the median, with the sample counts that back it.
    pub fn note(&self, what: &str) -> String {
        format!(
            "{what}: p50 {:.3} us, p90 {:.3} us, p99 {:.3} us over {} samples ({} beyond p99)",
            self.p50, self.p90, self.p99, self.samples, self.beyond_p99
        )
    }
}

pub fn latency(mut values: Vec<f64>) -> Latency {
    values.sort_by(f64::total_cmp);
    Latency {
        p50: percentile(&values, 0.5),
        p90: percentile(&values, 0.9),
        p99: percentile(&values, 0.99),
        samples: values.len(),
        beyond_p99: samples_beyond(values.len(), 0.99),
    }
}

/// Throughput as the median over sub-windows of one run. A stall in one
/// sub-window (a retransmission, a noisy neighbour) moves the tail
/// latency, not this rate, so runs of the same code agree more closely
/// than their overall means do.
pub struct Throughput {
    last: Instant,
    last_ops: u64,
    rates: Vec<f64>,
}

impl Default for Throughput {
    /// The first sub-window opens now.
    fn default() -> Self {
        Throughput {
            last: Instant::now(),
            last_ops: 0,
            rates: Vec::new(),
        }
    }
}

impl Throughput {
    /// Closes a sub-window at `ops` completed ops in total.
    pub fn mark(&mut self, ops: u64) {
        let now = Instant::now();
        if ops > self.last_ops {
            let seconds = now.duration_since(self.last).as_secs_f64();
            self.rates.push((ops - self.last_ops) as f64 / seconds);
        }
        self.last = now;
        self.last_ops = ops;
    }

    /// Closes a sub-window if the open one is at least `min` old.
    pub fn mark_after(&mut self, min: Duration, ops: u64) {
        if self.last.elapsed() >= min {
            self.mark(ops);
        }
    }

    /// Median sub-window rate in ops per second, and how many sub-windows.
    pub fn median(&self) -> (f64, u64) {
        (median(&mut self.rates.clone()), self.rates.len() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn tail_sample_counts() {
        assert_eq!(samples_beyond(100, 0.99), 1);
        assert_eq!(samples_beyond(1000, 0.99), 10);
        assert_eq!(samples_beyond(5000, 0.5), 2500);
        assert_eq!(samples_beyond(1, 0.99), 0);
    }

    #[test]
    fn throughput_is_the_median_sub_window_rate() {
        let mut t = Throughput::default();
        t.mark(0); // no ops: no sub-window
        t.mark_after(Duration::from_secs(3600), 5); // too young: stays open
        assert!(t.rates.is_empty());
        t.rates = vec![100.0, 900.0, 110.0];
        assert_eq!(t.median(), (110.0, 3));
    }

    #[test]
    fn median_sorts_first() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        let l = latency(vec![5.0, 1.0, 3.0]);
        assert_eq!((l.p50, l.p99, l.samples, l.beyond_p99), (3.0, 5.0, 3, 0));
    }
}
