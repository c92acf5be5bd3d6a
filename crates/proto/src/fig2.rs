//! The Fig. 2 routing kernel: one pure decision step of the randomized
//! search descent.
//!
//! At each visited peer the query's remaining bits are compared with the
//! peer's remaining path bits: if either is exhausted by the common part the
//! peer is responsible, otherwise the query moves to a reference at the
//! level just past the matched bits. This function is the **only**
//! implementation of that comparison — the simulator's depth-first search
//! and the live node's hop-by-hop forwarding both call it; they differ only
//! in how they traverse the candidate references (inline recursion vs
//! acked frames).

use pgrid_keys::BitPath;

/// The verdict of one routing step.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RouteStep {
    /// The visited peer's remaining path covers the query (or vice versa):
    /// it must answer.
    Responsible,
    /// The query diverges from the path and must move on.
    Forward {
        /// How many further bits of the query the peer's path matched —
        /// strip these before forwarding, and add them to the matched
        /// count.
        consumed: usize,
        /// The 1-based reference level to forward at
        /// (`matched + consumed + 1`): the level whose references cover the
        /// other side of the first divergent bit.
        level: usize,
    },
}

/// One step of Fig. 2's `query(a, p, l)`: `path` is the visited peer's trie
/// path, `matched` how many of its bits previous hops already consumed, and
/// `key` the remaining (unmatched) query. `matched` is clamped to the path
/// length, so a peer whose path shrank below a stale `matched` count still
/// answers rather than panicking on malformed input.
///
/// `#[inline]` matters here: the simulator's descent (`pgrid-core`) and the
/// live node call this kernel from other crates once per visited peer, and
/// it is a handful of instructions — a call boundary would cost more than
/// the step itself.
#[inline]
pub fn route_step(path: &BitPath, matched: usize, key: &BitPath) -> RouteStep {
    let matched = matched.min(path.len());
    let rempath = path.suffix(matched);
    let com = key.common_prefix_len(&rempath);
    if com == key.len() || com == rempath.len() {
        return RouteStep::Responsible;
    }
    RouteStep::Forward {
        consumed: com,
        level: matched + com + 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path(s: &str) -> BitPath {
        BitPath::from_str_lossy(s)
    }

    #[test]
    fn exhausted_query_or_path_is_responsible() {
        // Query equals the path.
        assert_eq!(
            route_step(&path("0110"), 0, &path("0110")),
            RouteStep::Responsible
        );
        // Query shorter than the path.
        assert_eq!(
            route_step(&path("0110"), 0, &path("01")),
            RouteStep::Responsible
        );
        // Query longer than the path but the path is a prefix.
        assert_eq!(
            route_step(&path("01"), 0, &path("0110")),
            RouteStep::Responsible
        );
        // Empty path (fresh peer) covers everything.
        assert_eq!(
            route_step(&BitPath::EMPTY, 0, &path("1")),
            RouteStep::Responsible
        );
    }

    #[test]
    fn divergence_forwards_at_the_level_past_the_match() {
        // Path 0110, query 00: one bit matches, diverge at level 2.
        assert_eq!(
            route_step(&path("0110"), 0, &path("00")),
            RouteStep::Forward {
                consumed: 1,
                level: 2
            }
        );
        // Same query with two path bits already matched upstream.
        assert_eq!(
            route_step(&path("0110"), 2, &path("00")),
            RouteStep::Forward {
                consumed: 0,
                level: 3
            }
        );
        // Immediate divergence.
        assert_eq!(
            route_step(&path("1"), 0, &path("0")),
            RouteStep::Forward {
                consumed: 0,
                level: 1
            }
        );
    }

    #[test]
    fn stale_matched_count_is_clamped() {
        // matched beyond the path length: treat the whole path as matched.
        assert_eq!(
            route_step(&path("01"), 7, &path("1")),
            RouteStep::Responsible
        );
    }
}
