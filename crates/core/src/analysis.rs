//! The paper's §4 analytical model of search reliability and sizing.
//!
//! Given a community of `N` peers, `d_global` data objects, per-peer index
//! budget and an online probability `p`, the model answers: how long must
//! keys be (1), how many peers does the grid need (2), and how probable is a
//! successful search (3)?

/// Inequality (1): the minimal key length needed to differentiate the data,
/// `k ≥ log2(d_global / i_leaf)`.
pub fn min_key_length(d_global: u64, i_leaf: u64) -> u32 {
    assert!(d_global > 0 && i_leaf > 0, "counts must be positive");
    let ratio = d_global as f64 / i_leaf as f64;
    ratio.log2().ceil().max(0.0) as u32
}

/// Formula (3): the probability that a search over a depth-`k` grid succeeds
/// when every level offers `refmax` independent alternatives, each online
/// with probability `p`: `(1 - (1-p)^refmax)^k`.
pub fn search_success_probability(p_online: f64, refmax: u32, k: u32) -> f64 {
    assert!(
        (0.0..=1.0).contains(&p_online),
        "probability outside [0, 1]"
    );
    (1.0 - (1.0 - p_online).powi(refmax as i32)).powi(k as i32)
}

/// Inequality (2): the minimal community size able to replicate every leaf
/// interval `refmax` times: `N ≥ d_global / i_leaf * refmax`.
pub fn min_peers(d_global: u64, i_leaf: u64, refmax: u32) -> u64 {
    assert!(d_global > 0 && i_leaf > 0, "counts must be positive");
    (d_global as f64 / i_leaf as f64 * refmax as f64).ceil() as u64
}

/// Inputs of a sizing exercise (the §4 worked example).
#[derive(Clone, Copy, Debug)]
pub struct GridSizing {
    /// Total data objects in the network (`d_global`).
    pub d_global: u64,
    /// Bytes one reference costs (`r`).
    pub ref_bytes: u64,
    /// Bytes each peer donates for indexing (`s_peer`).
    pub s_peer_bytes: u64,
    /// Leaf-level index entries per peer (`i_leaf`).
    pub i_leaf: u64,
    /// References per level (`refmax`).
    pub refmax: u32,
    /// Online probability (`p`).
    pub p_online: f64,
}

/// Derived sizing results.
#[derive(Clone, Copy, Debug)]
pub struct SizingReport {
    /// Total references a peer can store, `i_peer = s_peer / r`.
    pub i_peer: u64,
    /// Minimal key length `k` from inequality (1).
    pub key_length: u32,
    /// Index entries actually used: `i_leaf + k * refmax`.
    pub entries_used: u64,
    /// Whether the peer budget suffices (`entries_used ≤ i_peer`).
    pub fits_budget: bool,
    /// Search success probability from formula (3).
    pub success_probability: f64,
    /// Minimal community size from inequality (2).
    pub min_peers: u64,
}

impl GridSizing {
    /// Evaluates the model.
    pub fn evaluate(&self) -> SizingReport {
        let i_peer = self.s_peer_bytes / self.ref_bytes;
        let key_length = min_key_length(self.d_global, self.i_leaf);
        let entries_used = self.i_leaf + u64::from(key_length) * u64::from(self.refmax);
        SizingReport {
            i_peer,
            key_length,
            entries_used,
            fits_budget: entries_used <= i_peer,
            success_probability: search_success_probability(self.p_online, self.refmax, key_length),
            min_peers: min_peers(self.d_global, self.i_leaf, self.refmax),
        }
    }

    /// The paper's worked example: a Gnutella-scale file-sharing community
    /// with 10⁷ files, 10-byte references, 100 KB index budget per peer,
    /// 30% availability, `i_leaf = 10⁴ − 200` and `refmax = 20`.
    pub fn gnutella_example() -> GridSizing {
        GridSizing {
            d_global: 10_000_000,
            ref_bytes: 10,
            s_peer_bytes: 100_000,
            i_leaf: 10_000 - 200,
            refmax: 20,
            p_online: 0.3,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_length_formula() {
        assert_eq!(min_key_length(1024, 1), 10);
        assert_eq!(min_key_length(1025, 1), 11);
        assert_eq!(min_key_length(10, 10), 0);
        assert_eq!(min_key_length(10_000_000, 9800), 10);
    }

    #[test]
    fn success_probability_formula() {
        // Degenerate cases.
        assert_eq!(search_success_probability(1.0, 1, 10), 1.0);
        assert_eq!(search_success_probability(0.0, 5, 1), 0.0);
        // One level, one ref: exactly p.
        assert!((search_success_probability(0.3, 1, 1) - 0.3).abs() < 1e-12);
        // Monotone in refmax, antitone in depth.
        assert!(search_success_probability(0.3, 20, 10) > search_success_probability(0.3, 10, 10));
        assert!(search_success_probability(0.3, 20, 10) > search_success_probability(0.3, 20, 20));
    }

    #[test]
    fn min_peers_formula() {
        assert_eq!(min_peers(1000, 10, 5), 500);
        // The paper's number: 10^7 / 9800 * 20 → 20409.
        assert_eq!(min_peers(10_000_000, 9800, 20), 20409);
    }

    #[test]
    fn gnutella_example_reproduces_section_4() {
        let report = GridSizing::gnutella_example().evaluate();
        assert_eq!(report.i_peer, 10_000);
        assert_eq!(report.key_length, 10, "paper: k = 10");
        assert_eq!(report.entries_used, 9800 + 10 * 20);
        assert!(report.fits_budget, "paper: storage exactly s_peer");
        assert!(
            report.success_probability > 0.99,
            "paper: >99% success ({})",
            report.success_probability
        );
        assert_eq!(report.min_peers, 20409, "paper: >20409 peers needed");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_counts_rejected() {
        min_key_length(0, 1);
    }
}
