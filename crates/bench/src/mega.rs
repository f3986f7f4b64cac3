//! The `figures -- mega` campaign: the full EveryWare stack at
//! thousand-host / million-work-unit scale on one core.
//!
//! The campaign farms independent
//! [`MegaShard`](ew_infra::mega::MegaShard) worlds over [`run_farm`]:
//! each shard runs gossip pool, schedulers, persistent state, log host,
//! and an `InfraSupervisor`-managed worker fleet —
//! the same deployment the chaos campaigns exercise — but sized so the
//! fleet as a whole crosses 1k hosts and completes over a million Ramsey
//! work units. The traffic is all sub-MTU RPCs, so `figures -- mega` runs
//! the shards in [`NetworkModel::Packet`] mode; the flow model would give
//! bit-identical shards (pinned by `tests/event_order_determinism.rs`).
//!
//! `results/mega_campaign.json` holds only seed-deterministic per-shard
//! counters (byte-identical at any `--threads`, diffed in CI); wall-clock,
//! events/sec and peak RSS are `benchmark/`'s `mega_rpc` workload.

use ew_infra::{build_mega_shard, InfraSpec, MegaSpec};
use ew_ramsey::RamseyProblem;
use ew_sched::{ClientConfig, SchedulerConfig};
use ew_sim::{run_farm, FarmStats, NetworkModel, Sim, SimDuration, SimTime};
use ew_workload::WorkloadSpec;

use everyware::{DeployConfig, Deployment, Route};

/// One mega campaign: how many shards of which shape, for how long.
#[derive(Clone, Debug)]
pub struct MegaConfig {
    /// Master seed; shard `i` runs at a seed derived from it.
    pub seed: u64,
    /// Independent shard worlds (farmed in parallel).
    pub shards: usize,
    /// Shape of every shard.
    pub spec: MegaSpec,
    /// Per-shard horizon of simulated time.
    pub horizon: SimDuration,
}

impl MegaConfig {
    /// The headline campaign: 8 × 134-host shards (1072 hosts) for 150
    /// simulated seconds — comfortably past a million work units.
    pub fn full(seed: u64) -> Self {
        MegaConfig {
            seed,
            shards: 8,
            spec: MegaSpec::full(NetworkModel::Packet),
            horizon: SimDuration::from_secs(150),
        }
    }

    /// The CI variant: 2 × 32-host shards (64 hosts) for 100 simulated
    /// seconds — past fifty thousand units, done in seconds of wall time.
    pub fn short(seed: u64) -> Self {
        MegaConfig {
            seed,
            shards: 2,
            spec: MegaSpec::short(NetworkModel::Packet),
            horizon: SimDuration::from_secs(100),
        }
    }

    /// Total hosts across the fleet.
    pub fn total_hosts(&self) -> usize {
        self.shards * self.spec.hosts_per_shard()
    }
}

/// Deterministic measurements from one shard (everything here is a pure
/// function of the shard seed and config — no wall-clock, no RSS).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardOutcome {
    /// Shard index.
    pub shard: usize,
    /// The derived sim seed the shard ran at.
    pub seed: u64,
    /// Hosts in the shard.
    pub hosts: usize,
    /// Work units completed (`client.units_completed`).
    pub units: u64,
    /// Events the kernel dispatched.
    pub events: u64,
    /// Running event-order hash at the end of the run.
    pub order_hash: u64,
    /// Messages accepted by the network (`net.messages`).
    pub messages: u64,
    /// Bytes carried (`net.bytes`).
    pub bytes: u64,
}

/// The whole campaign's outcome.
pub struct MegaOutcome {
    /// Per-shard deterministic rows, in shard order.
    pub shards: Vec<ShardOutcome>,
    /// Farm execution stats (threads, wall-clock — host-dependent).
    pub stats: FarmStats,
}

impl MegaOutcome {
    /// Sum a per-shard field across the fleet.
    pub fn total(&self, f: impl Fn(&ShardOutcome) -> u64) -> u64 {
        self.shards.iter().map(f).sum()
    }
}

/// Sized so one work unit is ~20 ms of dedicated compute: small enough
/// that a 150 s horizon yields >1M units fleet-wide, large enough that
/// the grant/result protocol (two WAN round-trips) doesn't fully
/// dominate. One chunk per unit: `chunk_ops = step_budget × ops_per_step`.
const STEP_BUDGET: u64 = 200;
const OPS_PER_STEP: u64 = 10_000;

fn run_shard(cfg: &MegaConfig, shard_idx: usize) -> ShardOutcome {
    // Same derivation constant the rng stream seeder uses: shard seeds
    // are decorrelated but reproducible from the master seed alone.
    let seed = cfg
        .seed
        .wrapping_add((shard_idx as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    let world = build_mega_shard(&cfg.spec, shard_idx);
    let hosts = world.hosts.len();
    let mut sim = Sim::new(world.net, world.hosts, seed);
    let spec = InfraSpec {
        name: "mega".into(),
        hosts: world.pool,
        invocation_delay: SimDuration::from_secs(2),
        stagger: SimDuration::from_millis(50),
        client_template: ClientConfig {
            chunk_ops: STEP_BUDGET * OPS_PER_STEP,
            ops_per_step: OPS_PER_STEP,
            ..ClientConfig::default()
        },
        sample_interval: SimDuration::from_secs(30),
    };
    Deployment::builder(DeployConfig {
        sched: SchedulerConfig {
            workload: WorkloadSpec::ramsey(RamseyProblem { k: 4, n: 17 }),
            step_budget: STEP_BUDGET,
            ..SchedulerConfig::default()
        },
    })
    .service_hosts(&world.services)
    .pool(spec, Route::Direct)
    .spawn(&mut sim);

    let stats = sim.run_until(SimTime::ZERO + cfg.horizon);
    let m = sim.metrics();
    let c = |name: &str| m.counter(name) as u64;
    ShardOutcome {
        shard: shard_idx,
        seed,
        hosts,
        units: c("client.units_completed"),
        events: stats.events,
        order_hash: sim.event_order_hash(),
        messages: c("net.messages"),
        bytes: c("net.bytes"),
    }
}

/// Run the campaign: one farm cell per shard. Shard outcomes are
/// collected in input order, so the result is byte-identical at any
/// thread count.
pub fn run_mega(cfg: &MegaConfig, threads: usize) -> MegaOutcome {
    let idx: Vec<usize> = (0..cfg.shards).collect();
    let (shards, stats) = run_farm(threads, &idx, |_, &i| run_shard(cfg, i));
    MegaOutcome { shards, stats }
}

/// Peak resident set size of this process in bytes (`VmHWM` from
/// `/proc/self/status`), or `None` off Linux.
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}
