//! Dirty-link recompute equivalence (PR 9).
//!
//! The flow model's coalesced dirty-link fair-share recompute must be a
//! pure performance change: across a churn-heavy mesh topology (the same
//! shape as the `flow_churn` benchmark), every bulk transfer completes at
//! the bit-identical instant whether rates are recomputed eagerly on
//! every membership change (the naive PR 7 path) or once per dispatched
//! event over the dirty-link worklist — and whether events are delivered
//! one at a time or in batched same-timestamp runs.
//!
//! Deadline *generations* may differ between the recompute modes (the
//! coalesced pass supersedes fewer intermediate deadlines), so the
//! equivalence is pinned on arrival schedules and completion counters,
//! while the event-order hash is pinned across *dispatch* modes within
//! each recompute mode.

use ew_sim::{
    set_default_batched_dispatch, set_default_dirty_flow_recompute, Ctx, Event, HostId, HostSpec,
    HostTable, NetModel, NetworkModel, Process, ProcessId, Sim, SimDuration, SimTime, SiteSpec,
};

const SITES: usize = 8;

/// Mesh of WAN-connected sites, mirroring the flow_churn bench topology:
/// 15 ms WAN latency, 2.5 MB/s WAN uplinks, light constant load.
fn mesh_world() -> (NetModel, HostTable, Vec<HostId>) {
    let mut net = NetModel::new(0.0).with_model(NetworkModel::Flow);
    let mut hosts = HostTable::new();
    let mut per_site = Vec::new();
    for i in 0..SITES {
        let s = net.add_site(SiteSpec::simple(
            &format!("site{i}"),
            SimDuration::from_millis(15),
            2.5e6,
            0.05,
        ));
        per_site.push(hosts.add(HostSpec::dedicated(&format!("h{i}"), s, 1e8)));
    }
    (net, hosts, per_site)
}

/// Fan-out churn source: every tick it sends a burst of bulk transfers
/// (several flows started inside one dispatched event — the case the
/// coalesced recompute folds into a single fair-share pass) plus one
/// sub-MTU RPC that must bypass the flow table entirely.
struct Churner {
    idx: u64,
    peers: Vec<ProcessId>,
    sent: u32,
}

impl Process for Churner {
    fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: Event) {
        match ev {
            Event::Started => ctx.set_timer(SimDuration::from_millis(40 + self.idx * 13), 0),
            Event::Timer { .. } => {
                let n = self.peers.len() as u64;
                for f in 0..3u64 {
                    let to = self.peers[((self.idx + 1 + f * 3) % n) as usize];
                    let bytes = 60_000 + ((self.idx * 7919 + f * 1237) % 50_000) as usize;
                    self.sent += 1;
                    ctx.send(to, self.sent, vec![0u8; bytes]);
                }
                let rpc_to = self.peers[((self.idx + 5) % n) as usize];
                ctx.send(rpc_to, 1_000_000, vec![0u8; 200]);
                if self.sent < 60 {
                    ctx.set_timer(SimDuration::from_millis(140 + self.idx * 29), 0);
                }
            }
            _ => {}
        }
    }
}

/// Records every arrival as (from, mtype, time).
#[derive(Default)]
struct Sink {
    arrivals: Vec<(u32, u32, SimTime)>,
}

impl Process for Sink {
    fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: Event) {
        if let Event::Message { from, mtype, .. } = ev {
            self.arrivals.push((from.0, mtype, ctx.now()));
        }
    }
}

struct RunOut {
    arrivals: Vec<(u32, u32, SimTime)>,
    order_hash: u64,
    flows_started: f64,
    flows_completed: f64,
    dirty_links: f64,
    reschedules: f64,
    stale_wakes: f64,
}

fn run(dirty: bool, batched: bool) -> RunOut {
    let (net, hosts, per_site) = mesh_world();
    let mut sim = Sim::new(net, hosts, 0x9e37);
    sim.set_dirty_flow_recompute(dirty);
    sim.set_batched_dispatch(batched);
    let sinks: Vec<ProcessId> = per_site
        .iter()
        .enumerate()
        .map(|(i, &h)| sim.spawn(&format!("sink{i}"), h, Box::<Sink>::default()))
        .collect();
    for (i, &h) in per_site.iter().enumerate() {
        sim.spawn(
            &format!("churn{i}"),
            h,
            Box::new(Churner {
                idx: i as u64,
                peers: sinks.clone(),
                sent: 0,
            }),
        );
    }
    sim.run_until(SimTime::ZERO + SimDuration::from_secs(30));
    let mut arrivals = Vec::new();
    for &s in &sinks {
        let mut a = sim
            .with_process::<Sink, _>(s, |x| x.arrivals.clone())
            .expect("sink alive");
        arrivals.append(&mut a);
    }
    let m = sim.metrics();
    RunOut {
        arrivals,
        order_hash: sim.event_order_hash(),
        flows_started: m.counter("net.flows_started"),
        flows_completed: m.counter("net.flows_completed"),
        dirty_links: m.counter("net.flow_dirty_links"),
        reschedules: m.counter("net.flows_reschedules"),
        stale_wakes: m.counter("net.flows_stale_deadlines"),
    }
}

#[test]
fn dirty_link_recompute_is_bit_identical_to_full_recompute() {
    let naive = run(false, true);
    let dirty = run(true, true);
    assert!(
        naive.flows_started > 100.0,
        "churn must start real flows (got {})",
        naive.flows_started
    );
    assert_eq!(
        naive.arrivals, dirty.arrivals,
        "every transfer must complete at the bit-identical instant"
    );
    assert_eq!(naive.flows_started, dirty.flows_started);
    assert_eq!(naive.flows_completed, dirty.flows_completed);
    assert_eq!(naive.dirty_links, 0.0, "naive mode never marks links");
    assert!(
        dirty.dirty_links > 0.0,
        "dirty mode must consume its worklist"
    );
    assert!(
        dirty.reschedules <= naive.reschedules,
        "coalescing must not schedule more deadlines than eager recomputes \
         (dirty {} vs naive {})",
        dirty.reschedules,
        naive.reschedules
    );
}

/// FNV-1a over every sink's `(from, mtype, arrival µs)` in arrival order,
/// captured with one queue entry per rescheduled deadline (the parent of
/// PR 12). The kernel now keeps one wake for the earliest deadline; that
/// must move no completion instant and no per-sink arrival order.
const ARRIVALS_HASH: u64 = 0x8b4f_3a32_b2c3_77df;

#[test]
fn arrival_schedule_matches_the_per_flow_deadline_entries() {
    for dirty in [false, true] {
        let r = run(dirty, true);
        assert_eq!(r.arrivals.len(), 640);
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &(from, mtype, at) in &r.arrivals {
            for w in [from as u64, mtype as u64, at.as_micros()] {
                h = (h ^ w).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        assert_eq!(h, ARRIVALS_HASH, "dirty={dirty}: arrival schedule moved");
        // One queue entry per reschedule would swallow
        // `reschedules - completed` of them (3 200 here with dirty links).
        assert!(
            r.stale_wakes <= r.flows_completed,
            "dirty={dirty}: {} wakes found nothing due for {} transfers",
            r.stale_wakes,
            r.flows_completed
        );
    }
}

#[test]
fn dispatch_mode_is_invisible_in_both_recompute_modes() {
    for dirty in [false, true] {
        let per_event = run(dirty, false);
        let batched = run(dirty, true);
        assert_eq!(
            per_event.order_hash, batched.order_hash,
            "dirty={dirty}: dispatch mode must not change the event order"
        );
        assert_eq!(per_event.arrivals, batched.arrivals);
        assert_eq!(per_event.flows_completed, batched.flows_completed);
        assert_eq!(per_event.reschedules, batched.reschedules);
    }
}

#[test]
fn process_wide_default_applies_to_new_sims() {
    // The global default mirrors the per-sim knob (the mega A/B flips it
    // without threading a flag through every cell builder). Every other
    // test in this file sets the per-sim knobs explicitly, so flipping
    // the default here cannot race with them.
    let one_bulk_send = || {
        let (net, hosts, per_site) = mesh_world();
        let mut sim = Sim::new(net, hosts, 11);
        let sink = sim.spawn("sink", per_site[1], Box::<Sink>::default());
        sim.spawn(
            "src",
            per_site[0],
            Box::new(Churner {
                idx: 0,
                peers: vec![sink],
                sent: 59, // one burst, then stop
            }),
        );
        sim.run_until(SimTime::ZERO + SimDuration::from_secs(5));
        sim.metrics().counter("net.flow_dirty_links")
    };
    set_default_dirty_flow_recompute(false);
    let naive_dirty_links = one_bulk_send();
    set_default_dirty_flow_recompute(true);
    let dirty_dirty_links = one_bulk_send();
    assert_eq!(
        naive_dirty_links, 0.0,
        "default=false must recompute eagerly"
    );
    assert!(
        dirty_dirty_links > 0.0,
        "default=true must route through the worklist"
    );
    let _ = set_default_batched_dispatch;
}
