//! Same-tick delivery semantics of the kernel's dispatch loop.
//!
//! What a process may rely on when several events reach it at one tick.
//! Each case runs twice — tracing off, and `enable_tracing(1 << 12)` — and
//! must produce the same delivery log, the same event-order hash and the
//! same counters and gauges: observing a run never changes it.

use std::cell::RefCell;
use std::rc::Rc;

use ew_sim::{
    AvailabilitySchedule, Ctx, Event, HostId, HostSpec, HostTable, NetModel, Process, Sim,
    SimDuration, SimTime, SiteSpec,
};

type Log = Rc<RefCell<Vec<String>>>;

/// Logs every delivery as `<name> <event> @<µs>`, then reacts.
struct Scripted<F> {
    log: Log,
    react: F,
}

impl<F: FnMut(&mut Ctx<'_>, &Event) + 'static> Process for Scripted<F> {
    fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: Event) {
        let what = match &ev {
            Event::Started => "started".to_string(),
            Event::Timer { tag } => format!("timer{tag}"),
            Event::Message { mtype, .. } => format!("msg{mtype}"),
            Event::ComputeDone { tag, .. } => format!("done{tag}"),
            Event::HostStateChanged { up, .. } => format!("host_up={up}"),
        };
        let line = format!("{} {what} @{}", ctx.name(), ctx.now().as_micros());
        self.log.borrow_mut().push(line);
        (self.react)(ctx, &ev);
    }
}

fn scripted(log: &Log, react: impl FnMut(&mut Ctx<'_>, &Event) + 'static) -> Box<dyn Process> {
    Box::new(Scripted {
        log: log.clone(),
        react,
    })
}

#[derive(Debug, PartialEq)]
struct Outcome {
    log: Vec<String>,
    order_hash: u64,
    /// Every counter and every gauge in the registry, by name.
    counters: Vec<(String, f64)>,
    gauges: Vec<(String, f64)>,
}

impl Outcome {
    fn counter(&self, name: &str) -> f64 {
        let found = self.counters.iter().find(|(n, _)| n == name);
        found.map_or(0.0, |&(_, v)| v)
    }
}

/// One site whose LAN delivers an empty message in exactly the 1 µs floor,
/// with one host; `down_at` takes the host down for good.
fn world(down_at: Option<SimTime>) -> (Sim, HostId) {
    let mut net = NetModel::new(0.0);
    let mut lan = SiteSpec::simple("lan", SimDuration::ZERO, 1.25e9, 0.0);
    lan.lan_latency = SimDuration::ZERO;
    lan.lan_bandwidth = 1.25e9;
    let site = net.add_site(lan);
    let mut hosts = HostTable::new();
    let mut spec = HostSpec::dedicated("h0", site, 1e8);
    if let Some(t) = down_at {
        spec.availability = AvailabilitySchedule {
            transitions: vec![(t, false)],
        };
    }
    let h = hosts.add(spec);
    (Sim::new(net, hosts, 17), h)
}

/// Run `setup`'s world to 20 s with tracing off and on; the two runs must
/// be indistinguishable.
fn run_case(down_at: Option<SimTime>, setup: impl Fn(&mut Sim, HostId, &Log)) -> Outcome {
    let run = |trace: bool| {
        let (mut sim, h) = world(down_at);
        if trace {
            sim.enable_tracing(1 << 12);
        }
        let log = Log::default();
        setup(&mut sim, h, &log);
        sim.run_until(SimTime::from_secs(20));
        let reg = sim.telemetry();
        let named = |all: Vec<(&str, f64)>| all.iter().map(|&(n, v)| (n.to_string(), v)).collect();
        assert_eq!(trace, !sim.export_trace_jsonl().is_empty());
        let log = log.borrow().clone();
        Outcome {
            log,
            order_hash: sim.event_order_hash(),
            counters: named(reg.counters()),
            gauges: named(reg.gauges()),
        }
    };
    let plain = run(false);
    assert_eq!(plain, run(true), "tracing changed the run");
    plain
}

const TICK: SimDuration = SimDuration::from_micros(1);

#[test]
fn delivery_order_is_arming_order() {
    let out = run_case(None, |sim, h, log| {
        let p = sim.spawn(
            "p",
            h,
            scripted(log, |ctx, ev| {
                if let Event::Started = ev {
                    ctx.set_timer(TICK, 5);
                    ctx.set_timer(TICK, 3);
                }
            }),
        );
        // q's two sends land on the tick of p's timers, behind them because
        // q started second.
        sim.spawn(
            "q",
            h,
            scripted(log, move |ctx, ev| {
                if let Event::Started = ev {
                    ctx.send(p, 2, Vec::new());
                    ctx.send(p, 1, Vec::new());
                }
            }),
        );
    });
    assert_eq!(
        out.log,
        [
            "p started @0",
            "q started @0",
            "p timer5 @1",
            "p timer3 @1",
            "p msg2 @1",
            "p msg1 @1",
        ]
    );
    assert_eq!(out.counter("kernel.batch_ties"), 4.0);
}

#[test]
fn cancelled_timer_never_arrives_among_live_ones_of_its_tag_and_tick() {
    let out = run_case(None, |sim, h, log| {
        sim.spawn(
            "p",
            h,
            scripted(log, |ctx, ev| {
                if let Event::Started = ev {
                    ctx.set_timer(TICK, 7);
                    ctx.cancel_timer(7);
                    ctx.set_timer(TICK, 7);
                    ctx.set_timer(TICK, 8);
                    ctx.set_timer(TICK, 7);
                }
            }),
        );
    });
    assert_eq!(
        out.log,
        ["p started @0", "p timer7 @1", "p timer8 @1", "p timer7 @1"]
    );
    assert_eq!(out.counter("kernel.timers_cancelled"), 1.0);
    assert_eq!(out.counter("events.dropped_dead_dest"), 0.0);
}

#[test]
fn events_behind_a_self_exit_in_the_same_run_are_dropped_and_counted() {
    let out = run_case(None, |sim, h, log| {
        sim.spawn(
            "p",
            h,
            scripted(log, |ctx, ev| match ev {
                Event::Started => (1..=4).for_each(|tag| ctx.set_timer(TICK, tag)),
                Event::Timer { tag: 2 } => ctx.exit(),
                _ => {}
            }),
        );
    });
    assert_eq!(out.log, ["p started @0", "p timer1 @1", "p timer2 @1"]);
    assert_eq!(out.counter("procs.exited"), 1.0);
    assert_eq!(out.counter("events.dropped_dead_dest"), 2.0);
}

#[test]
fn events_armed_for_the_current_tick_during_a_run_follow_every_member_of_it() {
    // Nothing a process sends can land on the tick it was sent at (message
    // flight has a 1 µs floor); a zero-delay timer and a zero-op compute
    // can.
    let out = run_case(None, |sim, h, log| {
        sim.spawn(
            "p",
            h,
            scripted(log, |ctx, ev| match ev {
                Event::Started => (1..=3).for_each(|tag| ctx.set_timer(TICK, tag)),
                Event::Timer { tag: 1 } => {
                    ctx.set_timer(SimDuration::ZERO, 10);
                    ctx.compute(0, 11);
                }
                _ => {}
            }),
        );
    });
    assert_eq!(
        out.log,
        [
            "p started @0",
            "p timer1 @1",
            "p timer2 @1",
            "p timer3 @1",
            "p timer10 @1",
            "p done11 @1",
        ]
    );
}

#[test]
fn child_spawned_mid_run_starts_after_the_run() {
    let out = run_case(None, |sim, h, log| {
        let child_log = log.clone();
        sim.spawn(
            "parent",
            h,
            scripted(log, move |ctx, ev| match ev {
                Event::Started => (1..=2).for_each(|tag| ctx.set_timer(TICK, tag)),
                Event::Timer { tag: 1 } => {
                    let host = ctx.host();
                    ctx.spawn("child", host, scripted(&child_log, |_, _| {}));
                }
                _ => {}
            }),
        );
    });
    assert_eq!(
        out.log,
        [
            "parent started @0",
            "parent timer1 @1",
            "parent timer2 @1",
            "child started @1",
        ]
    );
}

#[test]
fn cancelled_timer_for_a_process_on_a_down_host_is_cancelled_not_dropped() {
    let out = run_case(Some(SimTime::from_secs(5)), |sim, h, log| {
        sim.spawn(
            "p",
            h,
            scripted(log, |ctx, ev| {
                if let Event::Started = ev {
                    ctx.set_timer(SimDuration::from_secs(10), 7);
                    ctx.cancel_timer(7);
                    ctx.set_timer(SimDuration::from_secs(10), 8);
                }
            }),
        );
    });
    assert_eq!(out.log, ["p started @0"]);
    assert_eq!(out.counter("procs.killed_by_host_down"), 1.0);
    assert_eq!(out.counter("kernel.timers_cancelled"), 1.0);
    assert_eq!(out.counter("events.dropped_dead_dest"), 1.0);
}
