//! The flow model's fair-share recompute discipline, pinned from both sides.
//!
//! The kernel marks a link dirty on every flow start and completion and
//! runs one fair-share pass over the dirty links after each dispatched
//! entry. Two things hold that in place:
//!
//! * an **eager oracle written in this file** — a recompute inside every
//!   `start` and `complete`, the discipline the kernel shipped before —
//!   driven through `FlowTable` next to the coalesced discipline over random
//!   burst scripts: every transfer must complete at the bit-identical
//!   instant, and coalescing must never schedule more deadlines;
//! * **golden hashes** of a churn-heavy mesh world run through the kernel:
//!   the per-sink arrival schedule and the event order.

use std::collections::BTreeMap;

use ew_sim::{
    Ctx, Event, FlowTable, HostId, HostSpec, HostTable, NetModel, NetworkModel, Payload, Process,
    ProcessId, Sim, SimDuration, SimTime, SiteId, SiteSpec,
};
use proptest::prelude::*;

// ---------------------------------------------------------------------
// Eager oracle vs coalesced worklist, at the `FlowTable` level.
// ---------------------------------------------------------------------

/// One burst: `gap_ms` after the previous one, site `src` starts a transfer
/// of `bytes` to each `(dst, bytes)` at the same instant. Site indices are
/// drawn from `0..8` and taken modulo the script's site count.
type Burst = (u64, usize, Vec<(usize, usize)>);

fn script() -> impl Strategy<Value = (usize, Vec<Burst>)> {
    let flow = (0usize..8, 2_000usize..200_001);
    let burst = (0u64..200, 0usize..8, collection::vec(flow, 1..5));
    (2usize..9, collection::vec(burst, 1..40))
}

fn mesh(sites: usize) -> NetModel {
    let mut net = NetModel::new(0.0).with_model(NetworkModel::Flow);
    for i in 0..sites {
        // Unequal uplinks so bottlenecks move between source and sink side.
        let bw = [1.25e6, 2.5e6, 5.0e6][i % 3];
        net.add_site(SiteSpec::simple(
            &format!("site{i}"),
            SimDuration::from_millis(15),
            bw,
            0.05,
        ));
    }
    net
}

/// Which discipline [`Driver`] replays.
#[derive(Clone, Copy, PartialEq)]
enum Discipline {
    /// `start` → `recompute(links)`, `complete` → `recompute(links)`: the
    /// arm the kernel carried until PR 17, transcribed.
    Eager,
    /// `start`×k → `mark_dirty`×k → one `recompute_dirty`: what the kernel
    /// does after every dispatched entry.
    Coalesced,
}

/// The kernel's side of the flow model without the kernel: the latest
/// deadline per flow id, completions taken earliest-deadline-first (lowest
/// flow id on ties), as `Shared::next_flow_due` does.
struct Driver {
    discipline: Discipline,
    net: NetModel,
    table: FlowTable,
    due: BTreeMap<u32, (u32, SimTime)>,
    out: Vec<(u32, u32, SimTime)>,
    reschedules: usize,
    /// Completion instant per transfer, keyed by its position in the script.
    done: BTreeMap<u32, SimTime>,
}

impl Driver {
    fn new(sites: usize, discipline: Discipline) -> Self {
        Driver {
            discipline,
            net: mesh(sites),
            table: FlowTable::new(sites),
            due: BTreeMap::new(),
            out: Vec::new(),
            reschedules: 0,
            done: BTreeMap::new(),
        }
    }

    fn file_deadlines(&mut self) {
        self.reschedules += self.out.len();
        for (flow, generation, at) in self.out.drain(..) {
            self.due.insert(flow, (generation, at));
        }
    }

    /// One fair-share pass over `links` now, or a mark for the next flush.
    fn membership_changed(&mut self, links: &[u32], now: SimTime) {
        match self.discipline {
            Discipline::Eager => {
                self.table.recompute(links, now, &self.net, &mut self.out);
                self.file_deadlines();
            }
            Discipline::Coalesced => self.table.mark_dirty(links),
        }
    }

    /// End of one dispatched entry.
    fn flush(&mut self, now: SimTime) -> Result<(), TestCaseError> {
        if self.discipline == Discipline::Coalesced {
            self.table.recompute_dirty(now, &self.net, &mut self.out);
            self.file_deadlines();
        }
        prop_assert!(!self.table.has_dirty(), "dirty links survive a flush");
        Ok(())
    }

    fn burst(
        &mut self,
        now: SimTime,
        src: usize,
        flows: &[(usize, usize)],
        next_tag: &mut u32,
    ) -> Result<(), TestCaseError> {
        let sites = self.net.site_count();
        for &(dst, bytes) in flows {
            let (from, to) = (SiteId((src % sites) as u16), SiteId((dst % sites) as u16));
            let latency = self
                .net
                .flow_latency(from, to, now)
                .expect("no partitions in this world");
            let payload = Payload::from(vec![0u8; 4]);
            let id = self
                .table
                .start(from, to, bytes, latency, now, 0, 0, *next_tag, payload);
            *next_tag += 1;
            let (links, n) = self.table.links_of(id);
            self.membership_changed(&links[..n], now);
        }
        self.flush(now)
    }

    /// Complete every transfer due at or before `until`.
    fn drain(&mut self, until: SimTime) -> Result<(), TestCaseError> {
        loop {
            let next = self
                .due
                .iter()
                .map(|(&flow, &(generation, at))| (at, flow, generation))
                .min();
            let Some((at, flow, generation)) = next else {
                return Ok(());
            };
            if at > until {
                return Ok(());
            }
            self.due.remove(&flow);
            let cf = self
                .table
                .complete(flow, generation)
                .expect("the filed generation is the live one");
            prop_assert!(self.done.insert(cf.mtype, at).is_none());
            self.membership_changed(&cf.links[..cf.nlinks], at);
            self.flush(at)?;
        }
    }

    fn replay(mut self, bursts: &[Burst]) -> Result<Self, TestCaseError> {
        let mut now = SimTime::ZERO;
        let mut tag = 0u32;
        for (gap_ms, src, flows) in bursts {
            now += SimDuration::from_millis(*gap_ms);
            self.drain(now)?;
            self.burst(now, *src, flows, &mut tag)?;
        }
        self.drain(SimTime::from_micros(u64::MAX))?;
        prop_assert_eq!(self.table.active(), 0);
        prop_assert_eq!(self.done.len(), tag as usize);
        Ok(self)
    }
}

proptest! {
    #[test]
    fn dirty_link_recompute_is_bit_identical_to_full_recompute((sites, bursts) in script()) {
        let eager = Driver::new(sites, Discipline::Eager).replay(&bursts)?;
        let coalesced = Driver::new(sites, Discipline::Coalesced).replay(&bursts)?;
        prop_assert_eq!(
            &eager.done, &coalesced.done,
            "every transfer must complete at the bit-identical instant"
        );
        prop_assert!(
            coalesced.reschedules <= eager.reschedules,
            "coalescing scheduled more deadlines ({} vs eager {})",
            coalesced.reschedules,
            eager.reschedules
        );
    }
}

// ---------------------------------------------------------------------
// The churn world, through the kernel.
// ---------------------------------------------------------------------

const SITES: usize = 8;

/// Mesh of WAN-connected sites: 15 ms WAN latency, 2.5 MB/s WAN uplinks,
/// light constant load.
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

/// FNV-1a over every sink's `(from, mtype, arrival µs)` in arrival order,
/// captured with one queue entry per rescheduled deadline (the parent of
/// PR 12). The kernel now keeps one wake for the earliest deadline; that
/// must move no completion instant and no per-sink arrival order. The eager
/// recompute arm produced the same value until it was deleted in PR 17.
const ARRIVALS_HASH: u64 = 0x8b4f_3a32_b2c3_77df;

/// Event-order hash of the churn world, captured at the parent of PR 17
/// with per-event dispatch forced. (With eager recompute forced as well the
/// parent read `0xf046_4063_86b2_ed31`: the same arrivals, but extra
/// superseded wakes take sequence numbers. That arm survives as
/// [`ARRIVALS_HASH`] and the oracle above.)
const CHURN_ORDER_HASH: u64 = 0x160a_b7ae_b2dc_4c9a;

#[test]
fn arrival_schedule_matches_the_per_flow_deadline_entries() {
    let (net, hosts, per_site) = mesh_world();
    let mut sim = Sim::new(net, hosts, 0x9e37);
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

    let mut arrivals = 0;
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &s in &sinks {
        let got = sim
            .with_process::<Sink, _>(s, |x| x.arrivals.clone())
            .expect("sink alive");
        arrivals += got.len();
        for (from, mtype, at) in got {
            for w in [from as u64, mtype as u64, at.as_micros()] {
                h = (h ^ w).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    assert_eq!(arrivals, 640);
    assert_eq!(h, ARRIVALS_HASH, "arrival schedule moved");
    assert_eq!(
        sim.event_order_hash(),
        CHURN_ORDER_HASH,
        "churn world dispatch order moved (got {:#018x})",
        sim.event_order_hash()
    );

    let m = sim.metrics();
    assert_eq!(m.counter("net.flows_started"), 480.0);
    assert_eq!(m.counter("net.flows_completed"), 480.0);
    assert!(m.counter("net.flow_dirty_links") > 0.0);
    // One queue entry per reschedule would swallow
    // `reschedules - completed` of them (3 200 here).
    assert!(
        m.counter("net.flows_stale_deadlines") <= m.counter("net.flows_completed"),
        "{} wakes found nothing due for {} transfers",
        m.counter("net.flows_stale_deadlines"),
        m.counter("net.flows_completed")
    );
}
