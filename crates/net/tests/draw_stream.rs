//! `draw::below` and `draw::shuffle` against the `rand` stand-in they
//! replace: for every case the outputs and the next word of the stream are
//! equal, so moving a call site to the kernel changes no run.

use pgrid_net::draw;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, RngCore, SeedableRng};

/// Bounds where the rejection threshold `2^64 mod n` is zero, tiny, or
/// close to `n` (`u64::MAX / 2 + 2` rejects almost half of all words).
fn edge_bounds() -> Vec<usize> {
    let mut bounds = vec![1, 2, 3, usize::MAX, (u64::MAX / 2 + 2) as usize];
    for shift in 2..64 {
        let p = 1usize << shift;
        bounds.extend([p - 1, p, p + 1]);
    }
    bounds
}

#[test]
fn below_matches_gen_range() {
    let mut cases = StdRng::seed_from_u64(0xd1a5);
    let mut bounds = edge_bounds();
    bounds.extend((0..512).map(|_| cases.gen_range(1..=usize::MAX)));
    bounds.extend((0..512).map(|_| cases.gen_range(1..=1usize << 20)));
    for (case, &n) in bounds.iter().enumerate() {
        let seed: u64 = cases.gen();
        let mut kernel = StdRng::seed_from_u64(seed);
        let mut stand_in = StdRng::seed_from_u64(seed);
        for draw in 0..64 {
            assert_eq!(
                draw::below(&mut kernel, n),
                stand_in.gen_range(0..n),
                "case {case}, n = {n}, draw {draw}"
            );
        }
        assert_eq!(
            kernel.next_u64(),
            stand_in.next_u64(),
            "case {case}, n = {n}: stream position"
        );
    }
}

#[test]
fn shuffle_matches_slice_random() {
    let mut cases = StdRng::seed_from_u64(0x5f1e);
    for len in 0..=80usize {
        for _ in 0..8 {
            let seed: u64 = cases.gen();
            let mut kernel = StdRng::seed_from_u64(seed);
            let mut stand_in = StdRng::seed_from_u64(seed);
            let mut a: Vec<u32> = (0..len as u32).collect();
            let mut b = a.clone();
            draw::shuffle(&mut kernel, &mut a);
            b.shuffle(&mut stand_in);
            assert_eq!(a, b, "len {len}, seed {seed:#x}");
            assert_eq!(
                kernel.next_u64(),
                stand_in.next_u64(),
                "len {len}: stream position"
            );
        }
    }
}

#[test]
#[should_panic(expected = "empty range")]
fn below_zero_panics() {
    draw::below(&mut StdRng::seed_from_u64(0), 0);
}
