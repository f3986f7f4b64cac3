//! The metric tables: every name the benchmark reports, with its unit and
//! direction. `BENCHMARK.json` lists the same tables; `--check` holds the
//! two equal. Names are final: a later change may add a row, never rename
//! one.

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

use Better::{Higher, Lower};

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
    /// Whether the value is a function of `(workload, seed)` alone, so two
    /// runs of one commit must agree to the last digit.
    pub deterministic: bool,
}

/// What a user of the simulator sees, per workload. Host time is labelled
/// host, simulated quantities simulated (see the README glossary).
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "wall_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
        deterministic: false,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
        deterministic: false,
    },
    EndToEnd {
        name: "peak_rss_mib",
        unit: "MiB",
        better: Lower,
        bound: 0.25,
        deterministic: false,
    },
    EndToEnd {
        name: "sim_work_units",
        unit: "count",
        better: Higher,
        bound: 0.10,
        deterministic: true,
    },
    EndToEnd {
        name: "finished_pct",
        unit: "%",
        better: Higher,
        bound: 0.10,
        deterministic: true,
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn m(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

/// Probes (`*_ns`, `*_us`, `*_ms`, rates) are host time per public-API
/// call; counts come from the traced repetition's registries and are
/// simulated, deterministic quantities; `share.*` is the decomposition of
/// `wall_s`; `run.*` are diagnostics of the traced run itself.
pub const PER_LAYER: [PerLayer; 90] = [
    // sim.wheel
    m("sim.wheel.insert_near_ns", "ns", Lower),
    m("sim.wheel.insert_far_ns", "ns", Lower),
    m("sim.wheel.pop_run_ns", "ns", Lower),
    m("sim.wheel.fast_insert_pct", "%", Higher),
    m("sim.wheel.cascades", "count", Lower),
    // sim.kernel
    m("sim.kernel.dispatch_ns", "ns", Lower),
    m("sim.kernel.timer_ns", "ns", Lower),
    m("sim.kernel.spawn_us", "us", Lower),
    m("sim.kernel.events", "count", Lower),
    m("sim.kernel.events_per_s", "1/s", Higher),
    // sim.net
    m("sim.net.delay_sample_ns", "ns", Lower),
    m("sim.net.send_small_ns", "ns", Lower),
    m("sim.net.flow_start_ns", "ns", Lower),
    m("sim.net.flow_recompute_us", "us", Lower),
    m("sim.net.flow_reschedules", "count", Lower),
    m("sim.net.messages", "count", Lower),
    m("sim.net.bytes", "count", Lower),
    // sim.payload, sim.rng, sim.farm
    m("sim.payload.build_drop_ns", "ns", Lower),
    m("sim.payload.clone_ns", "ns", Lower),
    m("sim.payload.pool_hit_pct", "%", Higher),
    m("sim.rng.next_ns", "ns", Lower),
    m("sim.farm.speedup_2t", "x", Higher),
    // proto
    m("proto.packet.encode_ns", "ns", Lower),
    m("proto.packet.decode_ns", "ns", Lower),
    m("proto.packet.crc32_gbps", "GB/s", Higher),
    m("proto.packet.frame_parse_ns", "ns", Lower),
    m("proto.wire.roundtrip_ns", "ns", Lower),
    m("proto.rpc.begin_complete_ns", "ns", Lower),
    m("proto.rpc.expire_ns", "ns", Lower),
    m("proto.retry.decision_ns", "ns", Lower),
    m("proto.rpc.retries", "count", Lower),
    m("proto.rpc.breaker_opens", "count", Lower),
    m("proto.tcp.rtt_us_p50", "us", Lower),
    // forecast
    m("forecast.battery_update_ns", "ns", Lower),
    m("forecast.predict_ns", "ns", Lower),
    m("forecast.dynbench_cycle_ns", "ns", Lower),
    m("forecast.timeout_decision_ns", "ns", Lower),
    m("forecast.mae_pct", "%", Lower),
    m("forecast.nws_reports", "count", Lower),
    // gossip
    m("gossip.store.reconcile_us", "us", Lower),
    m("gossip.store.absorb_ns", "ns", Lower),
    m("gossip.store.comparisons", "count", Lower),
    m("gossip.clique.token_round_us", "us", Lower),
    m("gossip.clique.election_us", "us", Lower),
    m("gossip.polls", "count", Lower),
    m("gossip.syncs", "count", Lower),
    // sched, workload
    m("sched.unit_cycle_us", "us", Lower),
    m("sched.grants", "count", Higher),
    m("sched.results", "count", Higher),
    m("sched.migrations", "count", Lower),
    m("workload.ramsey.generate_ns", "ns", Lower),
    m("workload.dag.generate_ns", "ns", Lower),
    m("workload.faas.generate_ns", "ns", Lower),
    m("workload.on_result_ns", "ns", Lower),
    // ramsey, state
    m("ramsey.count_k4_n17_us", "us", Lower),
    m("ramsey.count_k5_n43_us", "us", Lower),
    m("ramsey.tabu_steps_per_s", "1/s", Higher),
    m("ramsey.execute_unit_ms", "ms", Lower),
    m("ramsey.ops_per_host_s", "1/s", Higher),
    m("state.validator_us", "us", Lower),
    m("state.stores_ok", "count", Higher),
    m("state.log_records", "count", Lower),
    // infra, core, chaos, telemetry
    m("infra.build_sc98_ms", "ms", Lower),
    m("infra.build_mega_shard_ms", "ms", Lower),
    m("core.deploy_spawn_us", "us", Lower),
    m("chaos.plan_compile_us", "us", Lower),
    m("telemetry.counter_add_ns", "ns", Lower),
    m("telemetry.histogram_observe_ns", "ns", Lower),
    m("telemetry.registry_merge_us", "us", Lower),
    m("telemetry.trace_overhead_pct", "%", Lower),
    // Simulated outcomes that exist on one workload only (0 elsewhere).
    m("sc98.paper_err_pct", "%", Lower),
    m("chaos.fault_work_lost_pct", "%", Lower),
    m("chaos.fault_recovery_sim_s", "s", Lower),
    // run: diagnostics of the traced run, never gated.
    m("run.cpu_s", "s", Lower),
    m("run.rep_spread_pct", "%", Lower),
    m("run.descheduled_pct", "%", Lower),
    m("run.loadavg1", "count", Lower),
    m("run.span_overhead_pct", "%", Lower),
    // share: where this workload's wall_s went; the rows sum to 100.
    m("share.sim.wheel_pct", "%", Lower),
    m("share.sim.kernel_pct", "%", Lower),
    m("share.sim.net_pct", "%", Lower),
    m("share.proto_pct", "%", Lower),
    m("share.forecast_pct", "%", Lower),
    m("share.gossip_pct", "%", Lower),
    m("share.sched_pct", "%", Lower),
    m("share.ramsey_pct", "%", Lower),
    m("share.generator_pct", "%", Lower),
    m("share.setup_pct", "%", Lower),
    m("share.report_pct", "%", Lower),
    m("share.unattributed_pct", "%", Lower),
];
