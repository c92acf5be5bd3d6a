//! Update propagation strategies (the paper's Fig. 5) plus the
//! repeated-read tradeoff (§5.2) in one runnable scenario.
//!
//! ```sh
//! cargo run --release --example update_strategies
//! ```

use pgrid::core::{BuildOptions, Ctx, FindStrategy, IndexEntry, PGrid, PGridConfig, QueryPolicy};
use pgrid::keys::BitPath;
use pgrid::net::{AlwaysOnline, BernoulliOnline, NetStats, PeerId};
use pgrid::store::{ItemId, Version};
use rand::rngs::StdRng;
use rand::SeedableRng;

const N: usize = 2000;
const MAXL: usize = 7;
const REFMAX: usize = 8;
const P_ONLINE: f64 = 0.5;

fn main() {
    let mut rng = StdRng::seed_from_u64(5);
    let mut stats = NetStats::new();
    let mut grid = PGrid::new(
        N,
        PGridConfig {
            maxl: MAXL,
            refmax: REFMAX,
            ..PGridConfig::default()
        },
    );
    {
        let mut online = AlwaysOnline;
        let mut ctx = Ctx::new(&mut rng, &mut online, &mut stats);
        grid.build(&BuildOptions::default(), &mut ctx);
    }

    let key = BitPath::random(&mut rng, (MAXL - 1) as u8);
    let replicas = grid.replicas_of(&key).len();
    grid.seed_index(
        key,
        IndexEntry {
            item: ItemId(1),
            holder: PeerId(0),
            version: Version(0),
        },
    );
    println!("grid of {N} peers; key {key} has {replicas} replicas; peers {P_ONLINE:.0}% online\n");

    // --- Fig. 5: how many replicas does each strategy reach per message? --
    println!("finding replicas (fraction of {replicas} reached):");
    println!(
        "{:<18} {:>9} {:>11} {:>10}",
        "strategy", "attempts", "messages", "fraction"
    );
    println!("{}", "-".repeat(52));
    let mut online = BernoulliOnline::new(P_ONLINE);
    let mut ctx = Ctx::new(&mut rng, &mut online, &mut stats);
    for attempts in [2usize, 8, 32] {
        for (label, strategy) in [
            ("repeated DFS", FindStrategy::RepeatedDfs { attempts }),
            ("DFS + buddies", FindStrategy::DfsWithBuddies { attempts }),
            (
                "repeated BFS",
                FindStrategy::Bfs {
                    recbreadth: 2,
                    repetition: attempts,
                },
            ),
        ] {
            let found = grid.find_replicas(&key, strategy, &mut ctx);
            println!(
                "{label:<18} {attempts:>9} {:>11} {:>10.3}",
                found.messages,
                found.found.len() as f64 / replicas as f64
            );
        }
    }

    // --- §5.2: cheap updates + repeated reads ---------------------------
    println!("\nupdate once with BFS(recbreadth=2, repetition=1), then read 200 times:");
    let up = grid.update_item(
        &key,
        ItemId(1),
        Version(1),
        FindStrategy::Bfs {
            recbreadth: 2,
            repetition: 1,
        },
        &mut ctx,
    );
    println!(
        "update reached {}/{} replicas with {} messages",
        up.updated.len(),
        grid.replicas_of(&key).len(),
        up.messages
    );

    let mut single_ok = 0u64;
    let mut single_msgs = 0u64;
    let mut repeated_ok = 0u64;
    let mut repeated_msgs = 0u64;
    let policy = QueryPolicy::default();
    for _ in 0..200 {
        let once = grid.query_once(&key, ItemId(1), &mut ctx);
        single_msgs += once.messages;
        single_ok += u64::from(once.version == Some(Version(1)));
        let rep = grid.query_repeated(&key, ItemId(1), &policy, &mut ctx);
        repeated_msgs += rep.messages;
        repeated_ok += u64::from(rep.version == Some(Version(1)));
    }
    println!(
        "single reads:   success {:>6.3}, {:>6.2} msgs/read",
        single_ok as f64 / 200.0,
        single_msgs as f64 / 200.0
    );
    println!(
        "repeated reads: success {:>6.3}, {:>6.2} msgs/read  (newest-confirmed rule)",
        repeated_ok as f64 / 200.0,
        repeated_msgs as f64 / 200.0
    );
}
