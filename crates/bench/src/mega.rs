//! The `figures -- mega` campaign: the full EveryWare stack at
//! thousand-host / million-work-unit scale on one core.
//!
//! The campaign farms independent [`MegaShard`] worlds over
//! [`run_farm`]: each shard runs gossip pool, schedulers, persistent
//! state, log host, and an [`InfraSupervisor`]-managed worker fleet —
//! the same deployment the chaos campaigns exercise — but sized so the
//! fleet as a whole crosses 1k hosts and completes over a million Ramsey
//! work units. `figures -- mega` runs the shards on the flow-level
//! network model ([`NetworkModel::Flow`]); [`NetworkModel::Packet`] gives
//! bit-identical shards on this all-RPC traffic (pinned by the tests
//! below and `tests/event_order_determinism.rs`).
//!
//! `results/mega_campaign.json` holds only seed-deterministic per-shard
//! counters (byte-identical at any `--threads`, diffed in CI); wall-clock,
//! events/sec and peak RSS are `benchmark/`'s `mega_rpc` workload.

use ew_infra::{build_mega_shard, InfraSpec, InfraSupervisor, MegaSpec};
use ew_ramsey::RamseyProblem;
use ew_sched::{ClientConfig, SchedulerConfig};
use ew_sim::{run_farm, FarmStats, NetworkModel, Sim, SimDuration, SimTime};
use ew_workload::WorkloadSpec;

use everyware::{DeployConfig, Deployment};

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
    pub fn full(seed: u64, model: NetworkModel) -> Self {
        MegaConfig {
            seed,
            shards: 8,
            spec: MegaSpec::full(model),
            horizon: SimDuration::from_secs(150),
        }
    }

    /// The CI variant: 2 × 32-host shards (64 hosts) for 100 simulated
    /// seconds — past fifty thousand units, done in seconds of wall time.
    pub fn short(seed: u64, model: NetworkModel) -> Self {
        MegaConfig {
            seed,
            shards: 2,
            spec: MegaSpec::short(model),
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
    /// Flow-mode transfers started (0 in packet mode).
    pub flows_started: u64,
    /// Flow-mode transfers delivered.
    pub flows_completed: u64,
    /// Deadline events swallowed as superseded.
    pub flows_stale: u64,
    /// Deadlines (re)scheduled by fair-share recomputes.
    pub flows_reschedules: u64,
    /// MTU-sized packet events a per-packet simulator would have needed.
    pub packets_avoided: u64,
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
    let workload = WorkloadSpec::ramsey(RamseyProblem { k: 4, n: 17 });
    let hosts = world.hosts.len();
    let mut sim = Sim::new(world.net, world.hosts, seed);
    let dep = Deployment::builder(DeployConfig {
        sched: SchedulerConfig {
            workload: workload.clone(),
            step_budget: STEP_BUDGET,
            ..SchedulerConfig::default()
        },
        ..DeployConfig::default()
    })
    .gossip_pool(&world.services.gossips)
    .schedulers(&world.services.schedulers)
    .state_manager(world.services.state)
    .log_server(world.services.log)
    .spawn(&mut sim);

    sim.spawn(
        "mega-sup",
        world.services.log,
        Box::new(InfraSupervisor::new(InfraSpec {
            name: "mega".into(),
            hosts: world.pool,
            invocation_delay: SimDuration::from_secs(2),
            stagger: SimDuration::from_millis(50),
            client_template: ClientConfig {
                workload,
                schedulers: dep.scheduler_addrs(),
                state_server: Some(dep.state_addr()),
                chunk_ops: STEP_BUDGET * OPS_PER_STEP,
                ops_per_step: OPS_PER_STEP,
                checkpoint_every_chunks: None,
                ..ClientConfig::default()
            },
            sample_interval: SimDuration::from_secs(30),
        })),
    );

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
        flows_started: c("net.flows_started"),
        flows_completed: c("net.flows_completed"),
        flows_stale: c("net.flows_stale_deadlines"),
        flows_reschedules: c("net.flows_reschedules"),
        packets_avoided: c("net.flows_packets_avoided"),
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_mega_flow_mode_is_bit_identical_to_packet_for_rpc_traffic() {
        // The whole mega protocol is sub-MTU RPCs, so hybrid routing sends
        // every message down the sampled-delay path in either network
        // mode: the flow-mode run must be bit-identical to the packet
        // run (same rng stream, same delays, same order hash), with the
        // flow table never touched. Bulk (> MTU) transfers still take
        // the fair-share path — the flow_net tests pin that side.
        let spec = |model| MegaSpec {
            sites: 2,
            workers_per_site: 3,
            worker_ops: 1e8,
            load: 0.05,
            model,
        };
        let cfg = |model| MegaConfig {
            seed: 7,
            shards: 1,
            spec: spec(model),
            horizon: SimDuration::from_secs(30),
        };
        let flow = run_mega(&cfg(NetworkModel::Flow), 1);
        let packet = run_mega(&cfg(NetworkModel::Packet), 1);
        let f = &flow.shards[0];
        assert!(f.units > 100, "only {} units", f.units);
        assert_eq!(f.flows_started, 0, "sub-MTU RPCs must not become flows");
        assert_eq!(f.flows_reschedules, 0);
        assert_eq!(f, &packet.shards[0]);
    }

    #[test]
    fn packet_mode_starts_no_flows() {
        let cfg = MegaConfig {
            seed: 7,
            shards: 1,
            spec: MegaSpec {
                sites: 2,
                workers_per_site: 3,
                worker_ops: 1e8,
                load: 0.05,
                model: NetworkModel::Packet,
            },
            horizon: SimDuration::from_secs(30),
        };
        let out = run_mega(&cfg, 1);
        let s = &out.shards[0];
        assert!(s.units > 100, "only {} units", s.units);
        assert_eq!(s.flows_started, 0);
        assert_eq!(s.flows_reschedules, 0);
    }
}
