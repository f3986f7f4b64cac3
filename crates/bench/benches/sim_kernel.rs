//! Simulator kernel throughput: event dispatch, message routing through
//! the network model, and compute-chunk scheduling. The 12-hour SC98 rerun
//! dispatches a few million events; the kernel's per-event cost bounds how
//! much Grid we can afford to simulate.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};

use ew_sim::{
    CounterId, Ctx, Event, HostSpec, HostTable, NetModel, Process, ProcessId, SeriesId, Sim,
    SimDuration, SimTime, SiteSpec,
};

struct Pinger {
    peer: Option<ProcessId>,
    count: u64,
}

impl Process for Pinger {
    fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: Event) {
        match ev {
            Event::Started => {
                if let Some(p) = self.peer {
                    ctx.send(p, 1, vec![0u8; 64]);
                }
            }
            Event::Message { from, .. } => {
                self.count += 1;
                ctx.send(from, 1, vec![0u8; 64]);
            }
            _ => {}
        }
    }
}

fn ping_pong_world() -> Sim {
    let mut net = NetModel::new(0.1);
    let site = net.add_site(SiteSpec::simple(
        "s",
        SimDuration::from_millis(5),
        1.25e7,
        0.1,
    ));
    let mut hosts = HostTable::new();
    let h0 = hosts.add(HostSpec::dedicated("a", site, 1e8));
    let h1 = hosts.add(HostSpec::dedicated("b", site, 1e8));
    let mut sim = Sim::new(net, hosts, 1);
    let a = sim.spawn(
        "a",
        h0,
        Box::new(Pinger {
            peer: None,
            count: 0,
        }),
    );
    sim.spawn(
        "b",
        h1,
        Box::new(Pinger {
            peer: Some(a),
            count: 0,
        }),
    );
    sim
}

fn bench_message_events(c: &mut Criterion) {
    let mut g = c.benchmark_group("sim_kernel");
    // Each ping-pong hop ≈ 10 ms simulated; 100 simulated seconds ≈ 10k
    // message events.
    g.throughput(Throughput::Elements(10_000));
    g.bench_function("ping_pong_10k_events", |b| {
        b.iter_batched(
            ping_pong_world,
            |mut sim| {
                sim.run_until(SimTime::from_secs(100));
                sim
            },
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

/// A pinger that also exercises the telemetry hot path the way real
/// components do: one counter bump and one series sample per message.
struct MeteredPinger {
    peer: Option<ProcessId>,
    tele: Option<(CounterId, SeriesId)>,
}

impl Process for MeteredPinger {
    fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: Event) {
        match ev {
            Event::Started => {
                self.tele = Some((ctx.counter("bench.pings"), ctx.series("bench.rtt")));
                if let Some(p) = self.peer {
                    ctx.send(p, 1, vec![0u8; 64]);
                }
            }
            Event::Message { from, .. } => {
                let (pings, rtt) = self.tele.expect("started");
                ctx.inc(pings);
                ctx.record(rtt, ctx.now().as_secs_f64());
                ctx.send(from, 1, vec![0u8; 64]);
            }
            _ => {}
        }
    }
}

fn metered_world(traced: bool) -> Sim {
    let mut net = NetModel::new(0.1);
    let site = net.add_site(SiteSpec::simple(
        "s",
        SimDuration::from_millis(5),
        1.25e7,
        0.1,
    ));
    let mut hosts = HostTable::new();
    let h0 = hosts.add(HostSpec::dedicated("a", site, 1e8));
    let h1 = hosts.add(HostSpec::dedicated("b", site, 1e8));
    let mut sim = Sim::new(net, hosts, 1);
    if traced {
        sim.enable_tracing(1 << 16);
    }
    let a = sim.spawn(
        "a",
        h0,
        Box::new(MeteredPinger {
            peer: None,
            tele: None,
        }),
    );
    sim.spawn(
        "b",
        h1,
        Box::new(MeteredPinger {
            peer: Some(a),
            tele: None,
        }),
    );
    sim
}

/// The acceptance check for the interned-handle redesign: recording
/// through handles must cost ≈ nothing on top of dispatch, and enabling
/// span tracing must stay within a few percent of the untraced run.
fn bench_telemetry_overhead(c: &mut Criterion) {
    let mut g = c.benchmark_group("sim_kernel");
    g.throughput(Throughput::Elements(10_000));
    g.bench_function("metered_ping_pong_10k_events", |b| {
        b.iter_batched(
            || metered_world(false),
            |mut sim| {
                sim.run_until(SimTime::from_secs(100));
                sim
            },
            BatchSize::SmallInput,
        )
    });
    g.bench_function("metered_ping_pong_10k_events_traced", |b| {
        b.iter_batched(
            || metered_world(true),
            |mut sim| {
                sim.run_until(SimTime::from_secs(100));
                sim
            },
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

/// Arms a burst of timers at pseudo-random offsets, then lets them all
/// fire: the queue starts ~100k deep and drains over the run, which is
/// where per-event queue cost (the heap's log factor) dominates.
struct TimerStorm {
    timers: u32,
    horizon_us: u64,
}

impl Process for TimerStorm {
    fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: Event) {
        if let Event::Started = ev {
            for _ in 0..self.timers {
                let off = ctx.rng().next_below(self.horizon_us);
                ctx.set_timer(SimDuration::from_micros(off), 0);
            }
        }
    }
}

fn timer_storm_world(procs: usize, timers: u32) -> Sim {
    let mut net = NetModel::new(0.0);
    let site = net.add_site(SiteSpec::simple(
        "s",
        SimDuration::from_millis(5),
        1.25e7,
        0.0,
    ));
    let mut hosts = HostTable::new();
    let hs: Vec<_> = (0..8)
        .map(|i| hosts.add(HostSpec::dedicated(&format!("h{i}"), site, 1e8)))
        .collect();
    let mut sim = Sim::new(net, hosts, 3);
    for i in 0..procs {
        sim.spawn(
            &format!("storm{i}"),
            hs[i % hs.len()],
            Box::new(TimerStorm {
                timers,
                horizon_us: 100_000_000,
            }),
        );
    }
    sim
}

/// The ISSUE-2 acceptance scenario: 100k pending events through the queue.
fn bench_deep_queue(c: &mut Criterion) {
    let mut g = c.benchmark_group("sim_kernel");
    g.throughput(Throughput::Elements(100_000));
    g.bench_function("timer_storm_100k_events", |b| {
        b.iter_batched(
            || timer_storm_world(1_000, 100),
            |mut sim| {
                sim.run_until(SimTime::from_secs(100));
                sim
            },
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

struct Cruncher;
impl Process for Cruncher {
    fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: Event) {
        match ev {
            Event::Started | Event::ComputeDone { .. } => ctx.compute(1_000_000, 0),
            _ => {}
        }
    }
}

fn bench_compute_events(c: &mut Criterion) {
    let mut g = c.benchmark_group("sim_kernel");
    g.bench_function("compute_chunks_100_hosts_100s", |b| {
        b.iter_batched(
            || {
                let mut net = NetModel::new(0.0);
                let site = net.add_site(SiteSpec::simple(
                    "s",
                    SimDuration::from_millis(5),
                    1.25e7,
                    0.0,
                ));
                let mut hosts = HostTable::new();
                let hs: Vec<_> = (0..100)
                    .map(|i| hosts.add(HostSpec::dedicated(&format!("h{i}"), site, 1e6)))
                    .collect();
                let mut sim = Sim::new(net, hosts, 2);
                for (i, h) in hs.into_iter().enumerate() {
                    sim.spawn(&format!("c{i}"), h, Box::new(Cruncher));
                }
                sim
            },
            |mut sim| {
                // 1 Mops chunks at 1 Mops/s: one chunk/second/host.
                sim.run_until(SimTime::from_secs(100));
                sim
            },
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_message_events,
    bench_telemetry_overhead,
    bench_deep_queue,
    bench_compute_events
);
criterion_main!(benches);
