//! The live deployment (node shells on the virtual clock) and the
//! sequential simulator implement the same access structure: both must
//! converge to structurally equivalent grids and answer the same queries
//! soundly.

use pgrid::core::{BuildOptions, Ctx, PGrid, PGridConfig};
use pgrid::keys::BitPath;
use pgrid::net::{AlwaysOnline, NetStats, PeerId};
use pgrid::node::{ClusterConfig, SimCluster};
use pgrid::wire::WireEntry;
use rand::rngs::StdRng;
use rand::SeedableRng;

const N: usize = 48;
const MAXL: usize = 4;
const REFMAX: usize = 3;

fn sim_grid(seed: u64) -> PGrid {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut online = AlwaysOnline;
    let mut stats = NetStats::new();
    let mut ctx = Ctx::new(&mut rng, &mut online, &mut stats);
    let mut grid = PGrid::new(
        N,
        PGridConfig {
            maxl: MAXL,
            refmax: REFMAX,
            ..PGridConfig::default()
        },
    );
    grid.build(&BuildOptions::default(), &mut ctx);
    grid
}

fn live_cluster(seed: u64) -> SimCluster {
    let mut cluster = SimCluster::spawn(ClusterConfig {
        n: N,
        maxl: MAXL,
        refmax: REFMAX,
        recmax: 2,
        recfanout: 2,
        ttl: 64,
        seed,
        ..ClusterConfig::default()
    });
    for _ in 0..60 {
        cluster.build(250);
        if cluster.avg_path_len() >= 0.95 * MAXL as f64 {
            break;
        }
    }
    cluster
}

#[test]
fn both_converge_to_comparable_structures() {
    let sim = sim_grid(5);
    let live = live_cluster(5);

    let sim_avg = sim.avg_path_len();
    let live_avg = live.avg_path_len();
    assert!(sim_avg >= 0.95 * MAXL as f64, "sim avg {sim_avg}");
    assert!(live_avg >= 0.85 * MAXL as f64, "live avg {live_avg}");

    sim.check_invariants().unwrap();
    live.check_invariants().unwrap();

    // Responsibility-coverage comparison: a leaf interval is covered when
    // some peer's path is a prefix of it (a peer at depth 3 covers both of
    // its depth-4 leaves). Both communities should cover most leaves.
    let coverage = |paths: Vec<String>| {
        let total = 1usize << MAXL;
        (0..total)
            .filter(|leaf| {
                let leaf_bits: String = (0..MAXL)
                    .map(|b| {
                        if leaf >> (MAXL - 1 - b) & 1 == 1 {
                            '1'
                        } else {
                            '0'
                        }
                    })
                    .collect();
                paths.iter().any(|p| leaf_bits.starts_with(p.as_str()))
            })
            .count()
    };
    let sim_cov = coverage(sim.peers().map(|p| p.path().to_string()).collect());
    let live_cov = coverage(live.paths().into_iter().map(|(_, p)| p).collect());
    let total = 1usize << MAXL;
    assert!(sim_cov * 10 >= total * 8, "sim covers {sim_cov}/{total}");
    assert!(live_cov * 10 >= total * 7, "live covers {live_cov}/{total}");

    live.shutdown();
}

#[test]
fn live_queries_are_sound_and_mostly_succeed() {
    let mut live = live_cluster(17);
    let key = BitPath::from_str_lossy("1010");
    let entry = WireEntry {
        item: 3,
        holder: PeerId(2),
        version: 1,
    };
    live.seed_index(key, entry);

    let mut successes = 0;
    let mut with_entry = 0;
    for _ in 0..25 {
        if let Some((_, entries)) = live.query(&key) {
            successes += 1;
            if entries.contains(&entry) {
                with_entry += 1;
            }
        }
    }
    assert!(successes >= 20, "live queries succeed: {successes}/25");
    assert!(with_entry >= 15, "entries delivered: {with_entry}/25");
    live.shutdown();
}
