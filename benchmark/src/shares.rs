//! Where a workload's `wall_s` went: measured where the benchmark can
//! measure from outside, modelled elsewhere, residual shown.
//!
//! Measured rows come from spans: `setup` (build + spawn), `report`, and
//! the handler time of processes the benchmark itself spawns (`generator`
//! on `bulk_flow`, `ramsey` on `real_search`, where `ComputeClient`
//! handlers execute real units). Every other row is
//! `deterministic op count × probe ns/op ÷ wall`, with the op counts read
//! from the traced repetition's registries. Whatever the rows do not
//! explain is `unattributed` — negative when the model over-charges. The
//! formulas are repeated in the README.

use std::collections::BTreeMap;

use crate::probes::{MODEL_FLOW_RESCHEDULE_NS, MODEL_WHEEL_POP_FAR_NS};
use crate::workloads::{Outcome, Workload};

/// Span-measured seconds of the traced repetition.
pub struct Measured {
    pub wall_s: f64,
    pub setup_s: f64,
    pub report_s: f64,
}

pub fn shares(
    w: Workload,
    out: &Outcome,
    probes: &BTreeMap<&'static str, f64>,
    measured: &Measured,
) -> Vec<(&'static str, f64)> {
    let c = |name: &str| out.counter(name);
    let ns = |name: &str| probes.get(name).copied().unwrap_or(0.0);

    let events = out.events as f64;
    let insert_near = ns("sim.wheel.insert_near_ns");
    let pop = ns("sim.wheel.pop_run_ns");

    // Every drained entry was inserted once; the fast-path counter splits
    // near-horizon entries from far ones, which cascade on the way out.
    let inserts = events + c("kernel.timers_cancelled") + c("net.flows_stale_deadlines");
    let fast = c("kernel.insert_fast_path").min(inserts);
    let wheel = fast * (insert_near + pop)
        + (inserts - fast) * (ns("sim.wheel.insert_far_ns") + ns(MODEL_WHEEL_POP_FAR_NS));

    // A lockstep timer event costs one insert, one pop and the dispatch
    // itself; what is left after the wheel's part is the kernel's.
    let kernel = events * (ns("sim.kernel.timer_ns") - insert_near - pop).max(0.0);

    // A small send costs delay sampling and routing plus the insert of
    // its delivery event, which is already charged to the wheel. Bulk
    // sends start a flow instead, and pay per rescheduled deadline.
    let flows = c("net.flows_started");
    let small = (c("net.messages") - flows).max(0.0);
    let net = small * (ns("sim.net.send_small_ns") - insert_near).max(0.0)
        + flows * ns("sim.net.flow_start_ns")
        + c("net.flows_reschedules") * ns(MODEL_FLOW_RESCHEDULE_NS);

    // bulk_flow's processes exchange raw payloads: no packets, no RPCs.
    let rpc_messages = if w == Workload::BulkFlow { 0.0 } else { small };
    let rpcs = rpc_messages / 2.0;
    let proto = rpc_messages * (ns("proto.packet.encode_ns") + ns("proto.packet.decode_ns"))
        + rpcs * ns("proto.rpc.begin_complete_ns")
        + c("rpc.retries") * ns("proto.retry.decision_ns");

    // Every completed RPC feeds its RTT to a forecaster battery and asks
    // it for the next time-out; NWS reports and scheduler progress reports
    // each update one battery.
    let battery = ns("forecast.battery_update_ns");
    let forecast = rpcs * (ns("forecast.timeout_decision_ns") + battery)
        + (c("nws.reports") + c("sched.reports")) * battery;

    let gossip = (c("gossip.polls_ok") + c("gossip.syncs_sent"))
        * (ns("gossip.store.absorb_ns") + ns("gossip.store.reconcile_us") * 1e3);

    let generate = match w {
        Workload::ChaosSweep => {
            (ns("workload.ramsey.generate_ns")
                + ns("workload.dag.generate_ns")
                + ns("workload.faas.generate_ns"))
                / 3.0
        }
        _ => ns("workload.ramsey.generate_ns"),
    };
    let sched = c("sched.grants") * generate + c("sched.results") * ns("workload.on_result_ns");

    let pct = |seconds: f64| 100.0 * seconds / measured.wall_s;
    let mut rows = vec![
        ("share.sim.wheel_pct", pct(wheel * 1e-9)),
        ("share.sim.kernel_pct", pct(kernel * 1e-9)),
        ("share.sim.net_pct", pct(net * 1e-9)),
        ("share.proto_pct", pct(proto * 1e-9)),
        ("share.forecast_pct", pct(forecast * 1e-9)),
        ("share.gossip_pct", pct(gossip * 1e-9)),
        ("share.sched_pct", pct(sched * 1e-9)),
        ("share.ramsey_pct", pct(out.compute_client_s)),
        ("share.generator_pct", pct(out.generator_s)),
        ("share.setup_pct", pct(measured.setup_s)),
        ("share.report_pct", pct(measured.report_s)),
    ];
    let explained: f64 = rows.iter().map(|(_, v)| v).sum();
    rows.push(("share.unattributed_pct", 100.0 - explained));
    rows
}
