//! Mega campaign determinism: the deterministic artifact rows must be
//! identical regardless of farm thread count.

use ew_bench::mega::{run_mega, MegaConfig};
use ew_infra::MegaSpec;
use ew_sim::{NetworkModel, SimDuration};

fn tiny() -> MegaConfig {
    MegaConfig {
        seed: 0x5EED,
        shards: 3,
        spec: MegaSpec {
            sites: 2,
            workers_per_site: 2,
            worker_ops: 1e8,
            load: 0.05,
            model: NetworkModel::Packet,
        },
        horizon: SimDuration::from_secs(20),
    }
}

#[test]
fn packet_mode_shard_outcomes_are_thread_count_invariant() {
    let cfg = tiny();
    let one = run_mega(&cfg, 1);
    let four = run_mega(&cfg, 4);
    assert_eq!(
        one.shards, four.shards,
        "shard outcomes must be byte-identical at 1 vs 4 threads"
    );
    assert!(one.shards.iter().all(|s| s.units > 0), "shards must work");
}

#[test]
fn shard_seeds_are_decorrelated_but_reproducible() {
    let cfg = tiny();
    let out = run_mega(&cfg, 2);
    let seeds: Vec<u64> = out.shards.iter().map(|s| s.seed).collect();
    assert_eq!(seeds.len(), 3);
    assert_eq!(seeds[0], cfg.seed, "shard 0 runs at the master seed");
    assert!(seeds.windows(2).all(|w| w[0] != w[1]));
    let again = run_mega(&cfg, 2);
    assert_eq!(out.shards, again.shards, "same config, same outcomes");
}
