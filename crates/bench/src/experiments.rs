//! The non-figure experiments: §2.2 time-out ablation, §5.4 scheduler
//! placement ablation, the §5.6 Java speed table, and the §2.3 gossip
//! scaling measurement. Each returns plain data; the `figures` binary
//! formats it.
//!
//! Every battery takes a `threads` worker count and runs its independent
//! arms on the sim farm ([`ew_sim::run_farm`]): each arm is an isolated
//! deterministic simulation, and results come back in input order, so the
//! numbers are identical for any thread count (`threads = 1` is the
//! historical sequential path).

use ew_gossip::{Comparator, GossipClient, GossipServer, GossipStore, VersionedBlob};
use ew_infra::java;
use ew_proto::sim_net::packet_from_event;
use ew_sim::{
    Ctx, Event, HostSpec, HostTable, NetModel, Process, ProcessId, Sim, SimDuration, SimTime,
    SiteSpec,
};

use everyware::{run_sc98, Sc98Config};

/// Outcome of one arm of the §2.2 time-out ablation.
#[derive(Clone, Copy, Debug)]
pub struct TimeoutArm {
    /// Polls answered within the armed time-out.
    pub polls_ok: u64,
    /// Polls misjudged as lost (§2.2's "needless retries").
    pub polls_timed_out: u64,
}

/// §2.2: static vs dynamic time-out discovery against a slow server.
pub struct TimeoutAblation {
    /// Fixed 2-second time-outs.
    pub static_arm: TimeoutArm,
    /// Forecast-discovered time-outs.
    pub dynamic_arm: TimeoutArm,
}

/// A minimal periodically-writing component for the ablation world.
struct WriterComponent {
    gossip: ProcessId,
    client: GossipClient,
    version: u64,
}

const STYPE: u16 = 0x1001;

impl WriterComponent {
    fn new(gossip: ProcessId) -> Self {
        WriterComponent {
            gossip,
            client: GossipClient::new(vec![(STYPE, Comparator::VersionCounter)]),
            version: 1,
        }
    }
}

impl Process for WriterComponent {
    fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: Event) {
        match &ev {
            Event::Started => {
                self.client.register(ctx, self.gossip);
                ctx.set_timer(SimDuration::from_secs(30), 1);
            }
            Event::Timer { .. } => {
                self.client
                    .set_local(STYPE, VersionedBlob::new(self.version, vec![1]));
                self.version += 1;
                ctx.set_timer(SimDuration::from_secs(30), 1);
            }
            _ => {
                if let Some(Ok((from, pkt))) = packet_from_event(&ev) {
                    self.client.handle_packet(ctx, from, &pkt);
                }
            }
        }
    }
}

fn timeout_arm(seed: u64, static_to: Option<SimDuration>, duration: SimDuration) -> TimeoutArm {
    let mut net = NetModel::new(0.0);
    let fast = net.add_site(SiteSpec::simple(
        "fast",
        SimDuration::from_millis(10),
        1.25e6,
        0.0,
    ));
    // A server 4 s away each direction: ~8 s round trips, far beyond a
    // 2-second static time-out — the SC98 show-floor situation in
    // miniature.
    let slow = net.add_site(SiteSpec::simple(
        "slow",
        SimDuration::from_secs(4),
        1.25e6,
        0.0,
    ));
    let mut hosts = HostTable::new();
    let hg = hosts.add(HostSpec::dedicated("gossip", fast, 1e8));
    let hc = hosts.add(HostSpec::dedicated("component", slow, 1e8));
    let mut sim = Sim::new(net, hosts, seed);
    let g = sim.spawn("gossip", hg, Box::new(GossipServer::new(static_to, vec![])));
    sim.spawn("component", hc, Box::new(WriterComponent::new(g)));
    sim.run_until(SimTime::ZERO + duration);
    // The world's one Gossip server is the only process that counts polls.
    TimeoutArm {
        polls_ok: sim.metrics().counter("gossip.polls_ok") as u64,
        polls_timed_out: sim.metrics().counter("gossip.poll_timeouts") as u64,
    }
}

/// Run both arms of the §2.2 ablation on `threads` workers.
pub fn timeout_ablation(seed: u64, duration: SimDuration, threads: usize) -> TimeoutAblation {
    let arms = [Some(SimDuration::from_secs(2)), None];
    let (mut out, _) = ew_sim::run_farm(threads, &arms, |_, &static_to| {
        timeout_arm(seed, static_to, duration)
    });
    let dynamic_arm = out.pop().expect("dynamic arm");
    let static_arm = out.pop().expect("static arm");
    TimeoutAblation {
        static_arm,
        dynamic_arm,
    }
}

/// Outcome of one arm of the §5.4 scheduler-placement ablation.
#[derive(Clone, Debug)]
pub struct CondorArm {
    /// Scheduler failovers clients performed (time wasted locating a
    /// viable server).
    pub failovers: f64,
    /// Ops delivered by the Condor pool.
    pub condor_ops: f64,
    /// Units completed pool-wide.
    pub completed_units: f64,
}

/// §5.4: scheduler inside the Condor pool (killed on reclamation) vs the
/// stable outside-only configuration the paper settled on.
pub struct CondorAblation {
    /// Scheduler placed on a reclaimable Condor host, tried first.
    pub inside: CondorArm,
    /// Schedulers outside the pool only.
    pub outside: CondorArm,
}

fn condor_arm(seed: u64, duration: SimDuration, inside: bool) -> CondorArm {
    let rep = run_sc98(&Sc98Config {
        seed,
        duration,
        judging: false,
        condor_scheduler_inside: inside,
        ..Sc98Config::default()
    });
    let condor_ops: f64 = rep.per_infra["condor"]
        .iter()
        .map(|p| p.value * everyware::sc98::BIN.as_secs_f64())
        .sum();
    CondorArm {
        failovers: rep.counters["client.failovers"],
        condor_ops,
        completed_units: rep.counters["sched.completed_units"],
    }
}

/// Run both arms of the §5.4 ablation on `threads` workers.
pub fn condor_ablation(seed: u64, duration: SimDuration, threads: usize) -> CondorAblation {
    let arms = [true, false];
    let (mut out, _) = ew_sim::run_farm(threads, &arms, |_, &inside| {
        condor_arm(seed, duration, inside)
    });
    let outside = out.pop().expect("outside arm");
    let inside = out.pop().expect("inside arm");
    CondorAblation { inside, outside }
}

/// The §5.6 Java speeds, plus a one-hour simulated delivery check for each
/// class (what an always-up applet host actually contributes).
pub struct JavaTable {
    /// Interpreted ops/s (paper constant).
    pub interpreted: f64,
    /// JIT ops/s (paper constant).
    pub jit: f64,
    /// JIT / interpreted speedup.
    pub speedup: f64,
    /// Ops delivered in one simulated hour by an interpreted host.
    pub interpreted_hour: f64,
    /// Ops delivered in one simulated hour by a JIT host.
    pub jit_hour: f64,
}

/// Build the §5.6 table, running the two delivery checks on `threads`
/// workers.
pub fn java_table(seed: u64, threads: usize) -> JavaTable {
    let hour = |speed: f64| -> f64 {
        use ew_ramsey::RamseyProblem;
        use ew_sched::{ClientConfig, ComputeClient, SchedulerConfig, SchedulerServer};
        use ew_workload::WorkloadSpec;
        let mut net = NetModel::new(0.05);
        let site = net.add_site(SiteSpec::simple(
            "net",
            SimDuration::from_millis(60),
            2.5e5,
            0.1,
        ));
        let mut hosts = HostTable::new();
        let hs = hosts.add(HostSpec::dedicated("sched", site, 1e8));
        let hb = hosts.add(HostSpec::dedicated("browser", site, speed));
        let mut sim = Sim::new(net, hosts, seed);
        let s = sim.spawn(
            "sched",
            hs,
            Box::new(SchedulerServer::new(SchedulerConfig {
                workload: WorkloadSpec::ramsey(RamseyProblem { k: 5, n: 43 }),
                step_budget: 6_000,
                ..SchedulerConfig::default()
            })),
        );
        sim.spawn(
            "applet",
            hb,
            Box::new(ComputeClient::new(ClientConfig {
                schedulers: vec![s.0 as u64],
                chunk_ops: (speed * 10.0) as u64,
                ops_per_step: ((speed * 10.0) as u64 / 100).max(1),
                infra: "java".into(),
                ..ClientConfig::default()
            })),
        );
        sim.run_until(SimTime::from_secs(3600));
        sim.metrics().counter("ops.java")
    };
    let speeds = [java::INTERPRETED_OPS, java::JIT_OPS];
    let (mut hours, _) = ew_sim::run_farm(threads, &speeds, |_, &speed| hour(speed));
    let jit_hour = hours.pop().expect("jit hour");
    let interpreted_hour = hours.pop().expect("interpreted hour");
    JavaTable {
        interpreted: java::INTERPRETED_OPS,
        jit: java::JIT_OPS,
        speedup: java::JIT_OPS / java::INTERPRETED_OPS,
        interpreted_hour,
        jit_hour,
    }
}

/// §2.3 scaling: freshness comparisons per full reconciliation round as a
/// function of registered components (one type each), measured on
/// `threads` workers. Returns `(components, comparisons_per_round)` pairs
/// in input order.
pub fn gossip_scaling(component_counts: &[usize], threads: usize) -> Vec<(usize, u64)> {
    use ew_gossip::messages::TypeRegistration;
    let (rows, _) = ew_sim::run_farm(threads, component_counts, |_, &n| {
        let mut store = GossipStore::new();
        for c in 0..n as u64 {
            store.register(
                c,
                &[TypeRegistration {
                    stype: 1,
                    comparator: 0,
                }],
            );
        }
        // Every component reports once, then one prototype-faithful
        // pairwise reconciliation pass (§2.3's N²).
        for c in 0..n as u64 {
            store.record_component_state(c, 1, VersionedBlob::new(c + 1, vec![]));
        }
        let before = store.comparisons();
        store.pairwise_reconcile(1);
        (n, store.comparisons() - before)
    });
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timeout_ablation_reproduces_the_claim() {
        let r = timeout_ablation(3, SimDuration::from_secs(400), 2);
        assert_eq!(
            r.static_arm.polls_ok, 0,
            "2s static vs 8s RTT never succeeds"
        );
        assert!(r.static_arm.polls_timed_out > 5);
        assert!(r.dynamic_arm.polls_ok > 5);
        assert!(r.dynamic_arm.polls_timed_out <= 2);
    }

    #[test]
    fn java_table_matches_paper_constants() {
        let t = java_table(1, 2);
        assert_eq!(t.interpreted, 111_616.0);
        assert_eq!(t.jit, 12_109_720.0);
        assert!((t.speedup - 108.49).abs() < 0.1);
        // Delivered ops in an hour ≈ speed × 3600 × (1 − overheads).
        assert!(t.interpreted_hour > 0.5 * t.interpreted * 3600.0);
        assert!(t.jit_hour > 0.5 * t.jit * 3600.0);
        assert!(t.jit_hour / t.interpreted_hour > 50.0);
    }

    #[test]
    fn gossip_scaling_is_quadratic_per_cycle() {
        let rows = gossip_scaling(&[4, 8, 16, 32], 2);
        assert_eq!(rows.len(), 4);
        // comparisons grow superlinearly: quadrupling N should much more
        // than quadruple total comparisons per cycle.
        let (n0, c0) = rows[0];
        let (n3, c3) = rows[3];
        assert_eq!((n0, n3), (4, 32));
        // 8x the components → ~64x the comparisons (N² per §2.3).
        assert!(c3 > c0 * 32, "expected quadratic growth: {rows:?}");
    }
}
