//! The Fig. 3 exchange kernel: the pure case analysis of a pairwise
//! meeting.
//!
//! Two peers compare trie paths and fall into exactly one case — split a
//! fresh level, specialize the shorter peer opposite the longer one's next
//! bit, register as replicas, or recurse into the divergent subtrees. This
//! classification is the **only** implementation of that analysis: the
//! simulator's synchronous `exchange` and the live node's asynchronous
//! offer/answer handshake both match on [`ExchangeCase`]; they differ only
//! in *how* each peer applies its half (in place vs via instructions on the
//! wire) and in the Case-1 bit policy ([`SplitBitPolicy`]).

use pgrid_keys::BitPath;
use rand::rngs::StdRng;
use rand::Rng;

/// Which Fig. 3 case a meeting of `first` and `second` falls into. "First"
/// and "second" are positional (the two arguments of [`classify`]); drivers
/// map them onto simulator peers or onto initiator/responder.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExchangeCase {
    /// Case 1: identical paths below `maxl` — introduce a fresh level at
    /// `lc + 1`, the peers taking opposite bits (see [`split_bits`]).
    Split,
    /// Identical paths *at* `maxl`: the peers are replicas (buddies).
    Replicas,
    /// Case 2: the first path is a proper prefix of the second — the first
    /// peer appends `bit` (the flip of the second's next bit).
    FirstSpecializes {
        /// The bit the first peer must append.
        bit: u8,
    },
    /// Case 3: symmetric — the second peer appends `bit`.
    SecondSpecializes {
        /// The bit the second peer must append.
        bit: u8,
    },
    /// Case 4: the paths diverge right after the common prefix. Each peer
    /// learns the other at level `lc + 1` and recursion continues there.
    Diverged,
    /// Prefix relation with the common prefix already at `maxl`: the
    /// shorter peer cannot extend, nothing structural to do.
    Saturated,
}

/// Classifies a meeting: returns the common-prefix length `lc` (the deepest
/// level at which reference sets should be mixed) and the case.
pub fn classify(first: &BitPath, second: &BitPath, maxl: usize) -> (usize, ExchangeCase) {
    let lc = first.common_prefix_len(second);
    let l1 = first.len() - lc;
    let l2 = second.len() - lc;
    let case = match (l1 == 0, l2 == 0) {
        (true, true) if lc < maxl => ExchangeCase::Split,
        (true, true) => ExchangeCase::Replicas,
        (true, false) if lc < maxl => ExchangeCase::FirstSpecializes {
            bit: second.bit(lc) ^ 1,
        },
        (false, true) if lc < maxl => ExchangeCase::SecondSpecializes {
            bit: first.bit(lc) ^ 1,
        },
        (false, false) => ExchangeCase::Diverged,
        // One path a prefix of the other with the shorter already at maxl:
        // only reachable when lc == maxl (the longer path would otherwise
        // exceed maxl).
        _ => ExchangeCase::Saturated,
    };
    (lc, case)
}

/// The flight recorder's case vocabulary mirrors [`ExchangeCase`] (the
/// trace crate sits below proto and cannot name it); this is the one
/// conversion point, so a renamed or added case fails to compile here
/// rather than silently mis-tagging traces.
impl From<&ExchangeCase> for pgrid_trace::CaseTag {
    fn from(case: &ExchangeCase) -> Self {
        use pgrid_trace::CaseTag;
        match case {
            ExchangeCase::Split => CaseTag::Split,
            ExchangeCase::Replicas => CaseTag::Replicas,
            ExchangeCase::FirstSpecializes { .. } => CaseTag::FirstSpecializes,
            ExchangeCase::SecondSpecializes { .. } => CaseTag::SecondSpecializes,
            ExchangeCase::Diverged => CaseTag::Diverged,
            ExchangeCase::Saturated => CaseTag::Saturated,
        }
    }
}

/// How a Case-1 [`ExchangeCase::Split`] assigns the two fresh bits.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SplitBitPolicy {
    /// The paper's deterministic assignment: first peer 0, second peer 1.
    /// Right for a synchronous driver where both halves apply atomically —
    /// and draws **no** randomness, preserving historical RNG streams.
    Fixed,
    /// Randomized assignment, one draw. Right for the asynchronous
    /// handshake, where the initiator's half is *conditional* (it declines
    /// when a concurrent exchange already specialized it): a fixed
    /// assignment would systematically over-populate the responder's side
    /// and leave coverage holes on the other.
    Random,
}

/// The `(first_bit, second_bit)` a Case-1 split assigns under `policy`.
/// `Fixed` draws nothing; `Random` draws exactly once.
pub fn split_bits(policy: SplitBitPolicy, rng: &mut StdRng) -> (u8, u8) {
    match policy {
        SplitBitPolicy::Fixed => (0, 1),
        SplitBitPolicy::Random => {
            let bit = rng.gen_range(0..2u8);
            (bit ^ 1, bit)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn path(s: &str) -> BitPath {
        BitPath::from_str_lossy(s)
    }

    #[test]
    fn identical_paths_split_below_maxl() {
        assert_eq!(
            classify(&path("01"), &path("01"), 4),
            (2, ExchangeCase::Split)
        );
        assert_eq!(
            classify(&BitPath::EMPTY, &BitPath::EMPTY, 4),
            (0, ExchangeCase::Split)
        );
    }

    #[test]
    fn identical_paths_at_maxl_are_replicas() {
        assert_eq!(
            classify(&path("01"), &path("01"), 2),
            (2, ExchangeCase::Replicas)
        );
    }

    #[test]
    fn prefix_relations_specialize_opposite() {
        // First is a prefix of second (next bit 1): first takes 0.
        assert_eq!(
            classify(&path("0"), &path("01"), 4),
            (1, ExchangeCase::FirstSpecializes { bit: 0 })
        );
        // Symmetric.
        assert_eq!(
            classify(&path("10"), &path("1"), 4),
            (1, ExchangeCase::SecondSpecializes { bit: 1 })
        );
    }

    #[test]
    fn prefix_relation_at_maxl_is_saturated() {
        // lc == maxl == 1; the shorter peer cannot extend.
        assert_eq!(
            classify(&path("1"), &path("1"), 1),
            (1, ExchangeCase::Replicas)
        );
        // A longer partner can only exist when maxl permits its length; at
        // lc == maxl the shorter peer saturates.
        assert_eq!(
            classify(&path("1"), &path("10"), 1),
            (1, ExchangeCase::Saturated)
        );
    }

    #[test]
    fn divergence_is_case4() {
        assert_eq!(
            classify(&path("00"), &path("01"), 4),
            (1, ExchangeCase::Diverged)
        );
        assert_eq!(
            classify(&path("0"), &path("1"), 4),
            (0, ExchangeCase::Diverged)
        );
    }

    #[test]
    fn split_bits_policies() {
        let mut rng = StdRng::seed_from_u64(7);
        assert_eq!(split_bits(SplitBitPolicy::Fixed, &mut rng), (0, 1));
        for _ in 0..32 {
            let (a, b) = split_bits(SplitBitPolicy::Random, &mut rng);
            assert_eq!(a ^ b, 1, "the two peers must land on opposite sides");
        }
    }
}
