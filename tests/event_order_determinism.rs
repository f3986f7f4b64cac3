//! Golden event-order guards for the kernel's event queue.
//!
//! The simulator promises a total dispatch order by `(time, sequence
//! number)`. These tests pin that order against **golden constants**
//! captured from the original binary-heap event queue, so any queue
//! implementation change must reproduce that order bit-for-bit (the
//! queue's own contract is `crates/sim/tests/queue.rs`):
//!
//! * the kernel's event-order hash (folds every popped `(time, seq,
//!   target, event)` tuple) over a full SC98 run and over a dense
//!   kernel-level scenario with timers, cancellations, messages, and host
//!   churn;
//! * the figures output: a byte-level hash of every series the SC98
//!   report feeds into the paper's figures;
//! * what the kernel's retired per-event dispatch loop and eager flow
//!   recompute produced on three small campaign worlds (tiny mega shards
//!   in both network modes, one chaos plan), so the single dispatch loop
//!   stays pinned to them.
//!
//! If an intentional *model* change (new processes, different timing)
//! shifts these values, re-capture the constants in the same commit and
//! say so; an unintentional shift is a determinism regression.

use std::fmt::Write as _;

use everyware::{run_sc98, Sc98Config};
use ew_bench::mega::{run_mega, MegaConfig};
use ew_chaos::{campaign_json, run_campaign, standard_plans, CampaignConfig};
use ew_infra::MegaSpec;
use ew_ramsey::RamseyProblem;
use ew_sim::{
    AvailabilitySchedule, Ctx, Event, HostSpec, HostTable, NetModel, NetworkModel, Process,
    ProcessId, Sim, SimDuration, SimTime, SiteSpec,
};
use ew_workload::WorkloadSpec;

/// Golden kernel event-order hash for the 30-minute SC98 run below. The
/// dispatch *order* it pins was captured on the binary-heap event queue
/// (and re-verified bit-for-bit across both queue swaps since); the
/// constant itself was re-captured when the kernel's fold function moved
/// from byte-at-a-time FNV-1a to a word-at-a-time multiplicative mix, and
/// again (from `0x5079_d23c_3939_62cb`) in PR 12, an intentional model
/// change: `ComputeClient` arms its 2 s expiry sweep only while a request
/// or deferred resend is outstanding, so the no-op `TIMER_TICK` entries
/// left the dispatch stream (fewer entries, different seqs). The figure
/// bytes below did not move with it.
const SC98_ORDER_HASH: u64 = 0x837f_4555_641c_26a5;
/// Golden FNV-1a hash of the serialized SC98 figure series, captured on
/// the binary-heap event queue.
const SC98_FIGURES_HASH: u64 = 0x6747_3862_19c9_a681;
/// Golden kernel event-order hash for the dense kernel scenario below;
/// same provenance as [`SC98_ORDER_HASH`].
const KERNEL_SCENARIO_ORDER_HASH: u64 = 0xdf1a_056d_e862_931b;
/// Per-shard event-order hashes of the tiny mega campaign below, captured
/// at the parent of PR 17 with per-event dispatch and eager flow recompute
/// forced. The protocol is all sub-MTU RPCs, so flow and packet mode share
/// them.
const MEGA_TINY_ORDER_HASHES: [u64; 3] = [
    0x5660_1335_32dd_b4f6,
    0x43c2_95fa_9427_67da,
    0xad30_38e5_52a6_77e8,
];
/// FNV-1a of the `flaky-network` chaos campaign JSON below (artifact name,
/// newline, pretty-printed body, newline), captured at the parent of PR 17
/// with per-event dispatch and eager flow recompute forced.
const CHAOS_FLAKY_JSON_HASH: u64 = 0xc147_880a_d1d2_55d6;

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn sc98_short() -> Sc98Config {
    Sc98Config {
        duration: SimDuration::from_secs(1800),
        judging: false,
        ..Sc98Config::default()
    }
}

/// Deterministic byte serialization of everything the figures render:
/// binned series, summary scalars, and counters. Floats print through
/// `{:?}` (shortest round-trip), so equal bytes mean equal figures.
fn figure_bytes(rep: &everyware::Sc98Report) -> String {
    let mut out = String::new();
    let series = |out: &mut String, name: &str, pts: &[everyware::BinnedPoint]| {
        for p in pts {
            writeln!(out, "{name} {} {:?}", p.t.as_micros(), p.value).unwrap();
        }
    };
    series(&mut out, "total", &rep.total);
    for (infra, pts) in &rep.per_infra {
        series(&mut out, &format!("rate.{infra}"), pts);
    }
    for (infra, pts) in &rep.host_counts {
        series(&mut out, &format!("hosts.{infra}"), pts);
    }
    writeln!(
        out,
        "summary {:?} {:?} {:?} {:?} {:?}",
        rep.total_ops, rep.peak_rate, rep.judging_min_rate, rep.final_rate, rep.cov_total
    )
    .unwrap();
    for (k, v) in &rep.counters {
        writeln!(out, "counter {k} {v:?}").unwrap();
    }
    out
}

#[test]
fn sc98_event_order_hash_matches_heap_golden() {
    let rep = run_sc98(&sc98_short());
    assert_eq!(
        rep.event_order_hash, SC98_ORDER_HASH,
        "SC98 dispatch order diverged from the golden heap-era order \
         (got {:#018x})",
        rep.event_order_hash
    );
}

#[test]
fn sc98_figures_match_heap_golden_bytes() {
    let rep = run_sc98(&sc98_short());
    let bytes = figure_bytes(&rep);
    let hash = fnv1a(bytes.as_bytes());
    assert_eq!(
        hash, SC98_FIGURES_HASH,
        "SC98 figure series diverged from the golden heap-era bytes \
         (got {hash:#018x})"
    );
}

#[test]
fn sc98_same_seed_same_order_and_figures() {
    let a = run_sc98(&sc98_short());
    let b = run_sc98(&sc98_short());
    assert_eq!(a.event_order_hash, b.event_order_hash);
    assert_eq!(figure_bytes(&a), figure_bytes(&b));
}

// ---------------------------------------------------------------------
// Dense kernel-level scenario: many same-tick ties (zero-latency LAN
// bursts), timer cancellation, periodic re-arms, and host churn. Small
// enough to run in milliseconds, busy enough that any ordering slip in
// the queue implementation shows up in the hash.
// ---------------------------------------------------------------------

struct Chatterer {
    peers: Vec<ProcessId>,
    rounds: u32,
}

impl Process for Chatterer {
    fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: Event) {
        match ev {
            Event::Started => {
                // Deadline at a far-future tick: cancelled and re-armed
                // every round, so lazy cancellation stays exercised.
                ctx.set_timer(SimDuration::from_secs(3600), 99);
                let jitter = SimDuration::from_millis(ctx.rng().next_below(50));
                ctx.set_timer(jitter, 1);
            }
            Event::Timer { tag: 1 } => {
                self.rounds += 1;
                let body = vec![self.rounds as u8; 64];
                let payload = ew_sim::Payload::from(body);
                for &p in &self.peers {
                    ctx.send(p, 0x10, payload.clone());
                }
                ctx.cancel_timer(99);
                ctx.set_timer(SimDuration::from_secs(3600), 99);
                if self.rounds < 20 {
                    let jitter = SimDuration::from_millis(ctx.rng().next_below(200));
                    ctx.set_timer(jitter, 1);
                }
            }
            Event::Message {
                from, mtype: 0x10, ..
            } => {
                // Ack immediately: with zero LAN latency this lands at
                // the same tick as sibling acks — a same-tick tie.
                ctx.send(from, 0x11, Vec::new());
            }
            _ => {}
        }
    }
}

fn kernel_scenario_hash() -> u64 {
    let mut net = NetModel::new(0.0);
    let site = net.add_site(SiteSpec::simple("lan", SimDuration::ZERO, 1.25e9, 0.0));
    let mut hosts = HostTable::new();
    let mut ids = Vec::new();
    for i in 0..8 {
        let mut spec = HostSpec::dedicated(&format!("h{i}"), site, 1e8);
        if i == 3 {
            // One host flaps twice mid-run.
            spec.availability = AvailabilitySchedule {
                transitions: vec![
                    (SimTime::from_secs(2), false),
                    (SimTime::from_secs(4), true),
                    (SimTime::from_secs(7), false),
                ],
            };
        }
        ids.push(hosts.add(spec));
    }
    let mut sim = Sim::new(net, hosts, 0xEBE5);
    let pids: Vec<ProcessId> = (0..8).map(|i| ProcessId(i as u32)).collect();
    for (i, &h) in ids.iter().enumerate() {
        let peers: Vec<ProcessId> = pids.iter().copied().filter(|p| p.0 != i as u32).collect();
        sim.spawn(
            &format!("chat{i}"),
            h,
            Box::new(Chatterer { peers, rounds: 0 }),
        );
    }
    sim.run_until(SimTime::from_secs(10));
    sim.event_order_hash()
}

#[test]
fn kernel_scenario_hash_matches_heap_golden() {
    let h = kernel_scenario_hash();
    assert_eq!(
        h, KERNEL_SCENARIO_ORDER_HASH,
        "kernel scenario dispatch order diverged from the golden heap-era \
         order (got {h:#018x})"
    );
    assert_eq!(
        h,
        kernel_scenario_hash(),
        "scenario itself is deterministic"
    );
}

// ---------------------------------------------------------------------
// Campaign worlds whose Sims are built inside the mega and chaos drivers:
// many short cells, the farm's merge, faults and retries.
// ---------------------------------------------------------------------

#[test]
fn tiny_mega_shards_match_per_event_golden_in_both_net_modes() {
    for model in [NetworkModel::Flow, NetworkModel::Packet] {
        let cfg = MegaConfig {
            seed: 0x5EED,
            shards: 3,
            spec: MegaSpec {
                sites: 2,
                workers_per_site: 2,
                worker_ops: 1e8,
                load: 0.05,
                model,
            },
            horizon: SimDuration::from_secs(20),
        };
        let out = run_mega(&cfg, 2);
        let hashes: Vec<u64> = out.shards.iter().map(|s| s.order_hash).collect();
        assert_eq!(
            hashes, MEGA_TINY_ORDER_HASHES,
            "{model:?}: mega shard dispatch order diverged (got {hashes:#018x?})"
        );
        assert!(out.shards.iter().all(|s| s.units == 2188), "shards work");
    }
}

#[test]
fn chaos_flaky_network_json_matches_per_event_golden() {
    let cfg = CampaignConfig {
        seeds: vec![1998],
        horizon: SimDuration::from_secs(900),
        plans: standard_plans()
            .into_iter()
            .filter(|p| p.name == "flaky-network")
            .collect(),
        workload: WorkloadSpec::ramsey(RamseyProblem { k: 4, n: 17 }),
    };
    let reports = run_campaign(&cfg);
    let files = campaign_json(&cfg, &reports);
    assert_eq!(files.len(), 1);
    let mut text = String::new();
    for (name, v) in files {
        writeln!(text, "{name}").unwrap();
        writeln!(text, "{}", serde_json::to_string_pretty(&v).unwrap()).unwrap();
    }
    let hash = fnv1a(text.as_bytes());
    assert_eq!(
        hash, CHAOS_FLAKY_JSON_HASH,
        "chaos campaign JSON diverged (got {hash:#018x})"
    );
}
