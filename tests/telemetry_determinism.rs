//! Telemetry must never perturb the simulation. Two guarantees:
//!
//! 1. **Tracing is deterministic**: two SC98 runs from the same seed emit
//!    byte-identical JSONL span traces.
//! 2. **Tracing is zero-cost to the model**: a run with tracing enabled
//!    produces exactly the figure series, the event order and every
//!    counter and gauge of a run with tracing disabled — the traced run is
//!    the same run.

use std::collections::BTreeMap;

use everyware::{run_sc98, Sc98Config, Sc98Report};
use ew_sim::SimDuration;

fn short_cfg(trace_capacity: Option<usize>) -> Sc98Config {
    Sc98Config {
        duration: SimDuration::from_secs(1800),
        judging: false,
        trace_capacity,
        ..Sc98Config::default()
    }
}

#[test]
fn same_seed_runs_emit_byte_identical_traces() {
    let cfg = short_cfg(Some(1 << 20));
    let a = run_sc98(&cfg);
    let b = run_sc98(&cfg);
    let ta = a.trace_jsonl.expect("tracing was enabled");
    let tb = b.trace_jsonl.expect("tracing was enabled");
    assert!(!ta.is_empty(), "a 30-minute run produces span records");
    assert!(ta.lines().count() > 100, "all subsystems traced");
    assert_eq!(ta, tb, "same seed, same bytes");
    // Spot-check the record shape and that the instrumented subsystems
    // actually show up.
    let first = ta.lines().next().unwrap();
    for key in ["\"t_us\":", "\"span\":", "\"actor\":", "\"tag\":"] {
        assert!(first.contains(key), "{key} missing from {first}");
    }
    for span in ["kernel.dispatch", "gossip.reconcile", "sched.decide"] {
        assert!(ta.contains(span), "span {span} absent from the trace");
    }
    // A process mark is made inside a handler, so it follows the
    // `kernel.dispatch` mark of that delivery: same time, same actor.
    let mut last_dispatch = None;
    for line in ta.lines() {
        let at = (field(line, "t_us"), field(line, "actor"));
        if line.contains("\"span\":\"kernel.dispatch\"") {
            last_dispatch = Some(at);
        } else {
            assert_eq!(
                last_dispatch,
                Some(at),
                "{line} follows no dispatch of its own"
            );
        }
    }
}

/// The integer after `"key":` in one JSONL trace line.
fn field(line: &str, key: &str) -> u64 {
    let pat = format!("\"{key}\":");
    let rest = &line[line.find(&pat).expect("key present") + pat.len()..];
    let end = rest.find([',', '}']).expect("field ends");
    rest[..end].parse().expect("integer field")
}

/// Every counter and gauge of the run's registry, by name.
fn scalars(rep: &Sc98Report) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    for h in &rep.health {
        for (name, v) in &h.counters {
            out.insert(format!("counter {name}"), *v);
        }
        for (name, v) in &h.gauges {
            out.insert(format!("gauge {name}"), *v);
        }
    }
    out
}

#[test]
fn tracing_does_not_perturb_the_figures() {
    let plain = run_sc98(&short_cfg(None));
    let traced = run_sc98(&short_cfg(Some(1 << 20)));

    assert!(plain.trace_jsonl.is_none());
    assert!(traced.trace_jsonl.is_some());

    // Figure 2 series: bit-identical.
    assert_eq!(plain.total.len(), traced.total.len());
    for (p, t) in plain.total.iter().zip(traced.total.iter()) {
        assert_eq!(p.t, t.t);
        assert_eq!(p.value, t.value);
    }
    assert_eq!(plain.total_ops, traced.total_ops);
    assert_eq!(plain.peak_rate, traced.peak_rate);
    // Every counter the report carries: identical.
    assert_eq!(plain.counters, traced.counters);
    // Per-infrastructure series too.
    for (name, series) in &plain.per_infra {
        let other = &traced.per_infra[name];
        for (p, t) in series.iter().zip(other.iter()) {
            assert_eq!(p.value, t.value, "{name} series diverged");
        }
    }

    // The whole registry, metric by metric: observing the run may not
    // change what it counts.
    assert_eq!(plain.event_order_hash, traced.event_order_hash);
    let (p, t) = (scalars(&plain), scalars(&traced));
    assert!(p.len() > 50, "the registry carries every subsystem");
    for (name, v) in &p {
        assert_eq!(Some(v), t.get(name), "{name} differs with tracing on");
    }
    assert_eq!(p.len(), t.len(), "tracing added a metric");
    assert_eq!(plain.health, traced.health, "histograms included");
}
