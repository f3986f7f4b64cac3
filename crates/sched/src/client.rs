//! The computational client process.
//!
//! Application clients "communicate amongst themselves and with scheduling
//! servers to receive scheduling directives dynamically" (§3.1). A
//! [`ComputeClient`] requests work units, executes them in compute chunks
//! (the simulator charges each chunk against the host's fluctuating
//! effective speed — that is where "delivered ops" come from), reports
//! progress and rates periodically, obeys directives (continue / switch
//! heuristic / abandon-for-migration), ships verified counter-examples to
//! persistent state, and **fails over to another scheduler** when one stops
//! answering — the behaviour §5.4 relied on when Condor killed schedulers.

use std::sync::Arc;

use ew_forecast::ForecastTimeout;
use ew_proto::sim_net::{packet_from_event, send_packet};
use ew_proto::{
    EventTag, Packet, RetryConfig, RetryTele, RpcClient, StaticTimeout, Verdict, WireDecode,
    WireEncode, RPC_WAKE,
};
use ew_sim::{
    spawn_pure, CounterId, Ctx, Event, GaugeId, Pending, Process, ProcessId, SeriesId, SimDuration,
    SimTime, SpanId,
};
use ew_state::messages::{sm, FetchReply, FetchRequest, StoreRequest};
use ew_workload::{ExecStats, WorkResult, WorkUnit, Workload, WorkloadSpec};

use crate::messages::{scm, Directive, DirectiveKind, ProgressReport, WorkGrant};

/// Client tunables.
#[derive(Clone, Debug)]
pub struct ClientConfig {
    /// The application this client executes (must match the schedulers').
    pub workload: WorkloadSpec,
    /// Scheduler addresses, in failover order.
    pub schedulers: Vec<u64>,
    /// Persistent-state server for counter-examples (validator class 1).
    pub state_server: Option<u64>,
    /// Progress-report period.
    pub report_interval: SimDuration,
    /// Useful ops per compute chunk (chunk duration = chunk_ops / rate).
    pub chunk_ops: u64,
    /// Ops that constitute one heuristic step (for budget accounting).
    pub ops_per_step: u64,
    /// Run the search for real (small problems only; the SC98-scale
    /// experiments use synthetic results and real ops accounting). A unit
    /// starts computing on a pure-job pool worker when it becomes current
    /// and its result is taken at the simulated instant the unit completes,
    /// so the world runs exactly as if it were computed there.
    pub execute_real: bool,
    /// Infrastructure label for metrics attribution ("unix", "java", …).
    pub infra: String,
    /// Checkpoint unit progress to the persistent state service every this
    /// many chunks, and resume from the checkpoint after a restart —
    /// "application-level checkpointing" (§2.3). Requires `state_server`.
    pub checkpoint_every_chunks: Option<u64>,
    /// `Some(d)`: the §2.2 static-time-out baseline — fixed time-out `d`,
    /// no backoff, no circuit breaker, immediate failover on every expiry
    /// (the pre-adaptive behaviour, kept for the chaos A/B). `None`
    /// (default): forecast-driven time-outs composed with the unified
    /// retry/breaker layer.
    pub static_timeouts: Option<SimDuration>,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            workload: WorkloadSpec::default(),
            schedulers: Vec::new(),
            state_server: None,
            report_interval: SimDuration::from_secs(30),
            chunk_ops: 10_000_000,
            ops_per_step: 10_000,
            execute_real: false,
            infra: "unix".into(),
            checkpoint_every_chunks: None,
            static_timeouts: None,
        }
    }
}

/// What a client checkpoints: the unit it was working and how far it got.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Checkpoint {
    /// The in-progress unit.
    pub unit: WorkUnit,
    /// Steps completed when the checkpoint was cut.
    pub steps_done: u64,
    /// Ops completed when the checkpoint was cut.
    pub ops_done: u64,
}

ew_proto::wire_struct!(Checkpoint {
    unit,
    steps_done,
    ops_done
});

const TIMER_REPORT: u64 = 1;
const TIMER_RETRY: u64 = 3;

/// What an outstanding request was for — the [`RpcClient`] context.
enum Req {
    GetWork,
    Report,
    Result(WorkResult),
    // Store/Checkpoint carry their wire bodies so a resend after a backoff
    // goes out verbatim.
    Store(Vec<u8>),
    Checkpoint(Vec<u8>),
    RestoreFetch,
}

impl Req {
    /// Reports are periodic and their rates are already stale by the time
    /// one expires: never resent. (The time-out still feeds the breaker, so
    /// a dead scheduler's circuit opens even mid-unit.)
    fn resendable(&self) -> bool {
        !matches!(self, Req::Report)
    }

    /// The wire body a resend of this request carries.
    fn resend_body(&self, ctx: &Ctx<'_>) -> Vec<u8> {
        match self {
            Req::GetWork => Vec::new(),
            Req::Result(r) => r.to_wire(),
            Req::Store(b) | Req::Checkpoint(b) => b.clone(),
            Req::RestoreFetch => FetchRequest {
                key: ComputeClient::checkpoint_key(ctx),
            }
            .to_wire(),
            Req::Report => unreachable!("not resendable"),
        }
    }
}

/// Interned metric handles, resolved once at `Started`.
#[derive(Clone, Copy)]
struct ClientTele {
    checkpoints: CounterId,
    switches: CounterId,
    abandons: CounterId,
    failovers: CounterId,
    store_timeouts: CounterId,
    resumes: CounterId,
    stores_accepted: CounterId,
    stores_rejected: CounterId,
    ops_total: CounterId,
    ops_infra: CounterId,
    ops_series: SeriesId,
    units: CounterId,
    retry: RetryTele,
    migrate_span: SpanId,
    timeout_span: SpanId,
    /// Delta queries served by the incremental table (real execution only).
    ramsey_lookups: CounterId,
    /// Table entries recomputed by flip maintenance (real execution only).
    ramsey_refreshed: CounterId,
    /// Flips pushed through table maintenance (real execution only).
    ramsey_flips: CounterId,
    /// Kernel scratch-arena footprint after the last unit, in bytes.
    ramsey_ws_bytes: GaugeId,
    /// Delta-table footprint after the last unit, in bytes.
    ramsey_table_bytes: GaugeId,
}

impl ClientTele {
    fn intern(ctx: &mut Ctx<'_>, infra: &str) -> Self {
        ClientTele {
            checkpoints: ctx.counter("client.checkpoints"),
            switches: ctx.counter("client.switches"),
            abandons: ctx.counter("client.abandons"),
            failovers: ctx.counter("client.failovers"),
            store_timeouts: ctx.counter("client.store_timeouts"),
            resumes: ctx.counter("client.resumes"),
            stores_accepted: ctx.counter("client.stores_accepted"),
            stores_rejected: ctx.counter("client.stores_rejected"),
            ops_total: ctx.counter("ops.total"),
            ops_infra: ctx.counter(&format!("ops.{infra}")),
            ops_series: ctx.series(&format!("ops_series.{infra}")),
            units: ctx.counter("client.units_completed"),
            retry: RetryTele::intern(ctx),
            migrate_span: ctx.span("sched.migrate"),
            timeout_span: ctx.span("proto.timeout"),
            ramsey_lookups: ctx.counter("ramsey.table_lookups"),
            ramsey_refreshed: ctx.counter("ramsey.table_entries_refreshed"),
            ramsey_flips: ctx.counter("ramsey.table_flips"),
            ramsey_ws_bytes: ctx.gauge("ramsey.workspace_bytes"),
            ramsey_table_bytes: ctx.gauge("ramsey.table_bytes"),
        }
    }
}

struct UnitProgress {
    unit: WorkUnit,
    steps_done: u64,
    ops_done: u64,
    report_mark_ops: u64,
    report_mark_at: SimTime,
    /// The real execution of `unit` as it stands now (`execute_real`
    /// only). Dropping the unit drops the job, which cancels it if no
    /// worker has started it.
    result: Option<Pending<(WorkResult, ExecStats)>>,
}

/// The client process.
pub struct ComputeClient {
    cfg: ClientConfig,
    workload: Arc<dyn Workload>,
    sched_idx: usize,
    unit: Option<UnitProgress>,
    rpc: RpcClient<Req>,
    compute_gen: u64,
    waiting_for_work: bool,
    chunks_since_checkpoint: u64,
    tele: Option<ClientTele>,
    /// Units completed (budget exhausted or solved).
    pub units_completed: u64,
    /// Scheduler failovers performed.
    pub failovers: u64,
}

impl ComputeClient {
    /// A client with the given configuration.
    pub fn new(cfg: ClientConfig) -> Self {
        assert!(!cfg.schedulers.is_empty(), "client needs a scheduler");
        let rpc = match cfg.static_timeouts {
            Some(d) => RpcClient::new(StaticTimeout(d), None, None),
            None => {
                // Failure detection is bounded by the retry layer's backoff
                // cap: the forecast time-out may inflate without limit
                // during an outage, but a healed fault must never leave the
                // client blind for longer than one cap.
                let retry = RetryConfig::default();
                RpcClient::new(ForecastTimeout::wan_default(), Some(retry), Some(retry.cap))
            }
        };
        let workload = cfg.workload.build(0).into();
        ComputeClient {
            cfg,
            workload,
            sched_idx: 0,
            unit: None,
            rpc,
            compute_gen: 0,
            waiting_for_work: false,
            chunks_since_checkpoint: 0,
            tele: None,
            units_completed: 0,
            failovers: 0,
        }
    }

    /// Checkpoints are keyed by host: the respawned client on the same
    /// host (a new process id) finds its predecessor's state.
    fn checkpoint_key(ctx: &Ctx<'_>) -> String {
        format!("ckpt/host-{}", ctx.host().0)
    }

    fn write_checkpoint(&mut self, ctx: &mut Ctx<'_>) {
        let (Some(state), Some(up)) = (self.cfg.state_server, self.unit.as_ref()) else {
            return;
        };
        // While the state server's circuit is open there is no point
        // cutting a checkpoint only to watch it time out; the next
        // checkpoint interval after the circuit closes will catch up.
        if self.rpc.is_open(state, ctx.now()) {
            return;
        }
        let ck = Checkpoint {
            unit: up.unit.clone(),
            steps_done: up.steps_done,
            ops_done: up.ops_done,
        };
        self.store_checkpoint(ctx, state, ck.to_wire());
        let tele = self.tele.expect("started");
        ctx.inc(tele.checkpoints);
    }

    /// Store `value` as this host's checkpoint; empty clears it.
    fn store_checkpoint(&mut self, ctx: &mut Ctx<'_>, state: u64, value: Vec<u8>) {
        let req = StoreRequest {
            key: Self::checkpoint_key(ctx),
            class: 0,
            value,
        };
        let body = req.to_wire();
        self.send_request(ctx, state, sm::STORE, body.clone(), Req::Checkpoint(body));
    }

    /// Invalidate the host's checkpoint (unit finished or migrated away);
    /// a successor must not resume stale work.
    fn clear_checkpoint(&mut self, ctx: &mut Ctx<'_>) {
        let Some(state) = self.cfg.state_server else {
            return;
        };
        if self.cfg.checkpoint_every_chunks.is_none() {
            return;
        }
        self.store_checkpoint(ctx, state, Vec::new());
    }

    fn try_restore(&mut self, ctx: &mut Ctx<'_>) -> bool {
        let (Some(state), Some(_)) = (self.cfg.state_server, self.cfg.checkpoint_every_chunks)
        else {
            return false;
        };
        let req = FetchRequest {
            key: Self::checkpoint_key(ctx),
        };
        self.send_request(ctx, state, sm::FETCH, req.to_wire(), Req::RestoreFetch);
        true
    }

    fn scheduler(&self) -> u64 {
        self.cfg.schedulers[self.sched_idx % self.cfg.schedulers.len()]
    }

    /// The scheduler to address next: the failover rotation's current
    /// choice, skipping peers whose circuit is open (none ever is on the
    /// static arm). Falls back to the rotation's choice when every circuit
    /// is open (keep probing rather than going silent).
    fn pick_scheduler(&self, now: SimTime) -> u64 {
        let n = self.cfg.schedulers.len();
        (0..n)
            .map(|i| self.cfg.schedulers[(self.sched_idx + i) % n])
            .find(|&peer| !self.rpc.is_open(peer, now))
            .unwrap_or_else(|| self.scheduler())
    }

    /// Move the rotation to the scheduler after `failed`, the one a request
    /// gave up on. Two give-ups on one dead scheduler therefore both move
    /// the client away from it, never back onto it.
    fn fail_over(&mut self, ctx: &mut Ctx<'_>, tele: ClientTele, failed: u64) {
        if let Some(i) = self.cfg.schedulers.iter().position(|&s| s == failed) {
            self.sched_idx = i + 1;
        }
        self.failovers += 1;
        ctx.inc(tele.failovers);
    }

    fn send_request(&mut self, ctx: &mut Ctx<'_>, to: u64, mtype: u16, body: Vec<u8>, req: Req) {
        let corr = self.rpc.begin(ctx, EventTag { peer: to, mtype }, req);
        transmit(ctx, to, mtype, corr, body);
    }

    fn request_work(&mut self, ctx: &mut Ctx<'_>) {
        if self.waiting_for_work {
            return;
        }
        self.waiting_for_work = true;
        let sched = self.pick_scheduler(ctx.now());
        self.send_request(ctx, sched, scm::GET_WORK, Vec::new(), Req::GetWork);
    }

    fn start_chunk(&mut self, ctx: &mut Ctx<'_>) {
        ctx.compute(self.cfg.chunk_ops, self.compute_gen);
    }

    /// Make `unit` current, `steps_done`/`ops_done` into it, start its
    /// real execution and its first chunk.
    fn begin_unit(&mut self, ctx: &mut Ctx<'_>, unit: WorkUnit, steps_done: u64, ops_done: u64) {
        let result = self
            .cfg
            .execute_real
            .then(|| execute(&self.workload, &unit));
        self.unit = Some(UnitProgress {
            unit,
            steps_done,
            ops_done,
            report_mark_ops: ops_done,
            report_mark_at: ctx.now(),
            result,
        });
        self.start_chunk(ctx);
    }

    fn finish_unit(&mut self, ctx: &mut Ctx<'_>) {
        let Some(up) = self.unit.take() else { return };
        self.compute_gen += 1;
        self.chunks_since_checkpoint = 0;
        self.clear_checkpoint(ctx);
        let tele = self.tele.expect("started");
        let result = if let Some(pending) = up.result {
            let (result, stats) = pending.join();
            debug_assert_eq!(result.unit_id, up.unit.id, "a stale job was joined");
            ctx.add(tele.ramsey_lookups, stats.cache_lookups as f64);
            ctx.add(tele.ramsey_refreshed, stats.cache_refreshed as f64);
            ctx.add(tele.ramsey_flips, stats.cache_mutations as f64);
            ctx.set_gauge(tele.ramsey_ws_bytes, stats.workspace_bytes as f64);
            ctx.set_gauge(tele.ramsey_table_bytes, stats.cache_bytes as f64);
            result
        } else {
            self.workload
                .synth_result(&up.unit, up.steps_done, up.ops_done)
        };
        self.units_completed += 1;
        ctx.inc(tele.units);
        if !result.artifact.is_empty() {
            if let Some(state) = self.cfg.state_server {
                let store = StoreRequest {
                    key: self.workload.artifact_key(&up.unit),
                    class: 1,
                    value: result.artifact.clone(),
                };
                let body = store.to_wire();
                self.send_request(ctx, state, sm::STORE, body.clone(), Req::Store(body));
            }
        }
        self.send_result(ctx, result);
        self.request_work(ctx);
    }

    fn send_result(&mut self, ctx: &mut Ctx<'_>, result: WorkResult) {
        let sched = self.pick_scheduler(ctx.now());
        self.send_request(
            ctx,
            sched,
            scm::RESULT,
            result.to_wire(),
            Req::Result(result),
        );
    }

    fn send_report(&mut self, ctx: &mut Ctx<'_>) {
        let now = ctx.now();
        let me = ctx.me().0 as u64;
        let report = {
            let Some(up) = self.unit.as_mut() else { return };
            let elapsed = now.since(up.report_mark_at).as_secs_f64();
            if elapsed <= 0.0 {
                return;
            }
            let rate = (up.ops_done - up.report_mark_ops) as f64 / elapsed;
            up.report_mark_ops = up.ops_done;
            up.report_mark_at = now;
            let steps_done = up.steps_done;
            ProgressReport {
                client: me,
                unit_id: up.unit.id,
                steps_done,
                ops_done: up.ops_done,
                progress: self.workload.synth_progress(steps_done),
                rate,
                carry: up.unit.payload.clone(),
                infra: self.cfg.infra.clone(),
            }
        };
        let sched = self.pick_scheduler(now);
        self.send_request(ctx, sched, scm::REPORT, report.to_wire(), Req::Report);
    }

    fn on_grant(&mut self, ctx: &mut Ctx<'_>, grant: WorkGrant) {
        self.waiting_for_work = false;
        if !grant.granted {
            ctx.set_timer(SimDuration::from_secs(10), TIMER_RETRY);
            return;
        }
        self.begin_unit(ctx, grant.unit, 0, 0);
    }

    fn on_directive(&mut self, ctx: &mut Ctx<'_>, d: Directive) {
        let tele = self.tele.expect("started");
        match DirectiveKind::from_wire_id(d.kind) {
            DirectiveKind::Continue => {}
            DirectiveKind::SwitchHeuristic => {
                if let Some(up) = self.unit.as_mut() {
                    up.unit.variant = d.variant;
                    // The switched unit is a new job; the stale one is
                    // dropped with its handle.
                    up.result = self
                        .cfg
                        .execute_real
                        .then(|| execute(&self.workload, &up.unit));
                    ctx.inc(tele.switches);
                }
            }
            DirectiveKind::Abandon => {
                // The unit migrates; invalidate in-flight compute and the
                // host checkpoint.
                let unit_id = self.unit.as_ref().map(|up| up.unit.id).unwrap_or(0);
                ctx.mark(tele.migrate_span, unit_id);
                self.unit = None;
                self.compute_gen += 1;
                self.chunks_since_checkpoint = 0;
                self.clear_checkpoint(ctx);
                ctx.inc(tele.abandons);
                self.request_work(ctx);
            }
        }
    }

    /// The [`RpcClient`]'s wake: every expiry gets its verdict at its own
    /// deadline, and every deferred resend goes out at its own instant.
    fn wake(&mut self, ctx: &mut Ctx<'_>) {
        let tele = self.tele.expect("started");
        for e in self.rpc.take_expired(ctx, tele.timeout_span) {
            // One verdict at a time: `on_gave_up` reads breaker state the
            // next verdict mutates, and begins new requests.
            let (resendable, peer) = (e.context.resendable(), e.tag.peer);
            if let Verdict::GaveUp(req) = self.rpc.verdict(ctx, tele.retry, e, resendable) {
                self.on_gave_up(ctx, tele, req, peer);
            }
        }
        for resend in self.rpc.take_due(ctx) {
            let (to, mtype) = (resend.tag.peer, resend.tag.mtype);
            let body = resend.context.resend_body(ctx);
            let corr = self.rpc.resend(ctx, resend);
            transmit(ctx, to, mtype, corr, body);
        }
    }

    /// Per-kind recovery for a request the retry layer will not resend:
    /// past the budget or behind an open circuit on the adaptive arm, every
    /// expiry on the static arm (`static_timeouts = Some`: no backoff, no
    /// breaker, immediate failover). `peer` is the one it gave up on.
    fn on_gave_up(&mut self, ctx: &mut Ctx<'_>, tele: ClientTele, req: Req, peer: u64) {
        match req {
            Req::GetWork => {
                // Scheduler unreachable: fail over and re-request.
                self.fail_over(ctx, tele, peer);
                self.waiting_for_work = false;
                self.request_work(ctx);
            }
            Req::Report => {
                // The one place the arms differ. Static: the next report
                // tries the next scheduler if this one is gone. Adaptive:
                // the rotation stays; the breaker heard the time-out, and
                // `pick_scheduler` skips a scheduler whose circuit it opens.
                if self.cfg.static_timeouts.is_some() {
                    self.fail_over(ctx, tele, peer);
                }
            }
            Req::Result(result) => {
                // Results matter: fail over and resend with a fresh budget.
                self.fail_over(ctx, tele, peer);
                self.send_result(ctx, result);
            }
            Req::Store(_) | Req::Checkpoint(_) => {
                ctx.inc(tele.store_timeouts);
            }
            Req::RestoreFetch => {
                // State service unreachable: start fresh.
                self.request_work(ctx);
            }
        }
    }
}

fn transmit(ctx: &mut Ctx<'_>, to: u64, mtype: u16, corr: u64, body: Vec<u8>) {
    send_packet(
        ctx,
        ProcessId(to as u32),
        &Packet::request(mtype, corr, body),
    );
}

/// Start `unit`'s real execution on the pure-job pool. Its result is a
/// function of the unit alone, taken when the unit completes.
fn execute(workload: &Arc<dyn Workload>, unit: &WorkUnit) -> Pending<(WorkResult, ExecStats)> {
    let (workload, unit) = (Arc::clone(workload), unit.clone());
    spawn_pure(move || workload.execute(&unit))
}

impl Process for ComputeClient {
    fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: Event) {
        match &ev {
            Event::Started => {
                self.tele = Some(ClientTele::intern(ctx, &self.cfg.infra));
                self.rpc.seed_jitter(ctx.rng());
                // Restart path first: a checkpoint from a predecessor on
                // this host resumes its unit instead of asking for new
                // work ("application-level checkpointing", §2.3).
                if !self.try_restore(ctx) {
                    self.request_work(ctx);
                }
                ctx.set_timer(self.cfg.report_interval, TIMER_REPORT);
            }
            Event::Timer { tag } => match *tag {
                TIMER_REPORT => {
                    self.send_report(ctx);
                    ctx.set_timer(self.cfg.report_interval, TIMER_REPORT);
                }
                RPC_WAKE => self.wake(ctx),
                TIMER_RETRY => self.request_work(ctx),
                _ => {}
            },
            Event::ComputeDone { tag, ops } => {
                if *tag != self.compute_gen {
                    return; // stale chunk from an abandoned unit
                }
                let tele = self.tele.expect("started");
                ctx.add(tele.ops_total, *ops as f64);
                ctx.add(tele.ops_infra, *ops as f64);
                ctx.record(tele.ops_series, *ops as f64);
                let done = {
                    let steps_per_chunk = (self.cfg.chunk_ops / self.cfg.ops_per_step).max(1);
                    let Some(up) = self.unit.as_mut() else { return };
                    up.ops_done += ops;
                    up.steps_done += steps_per_chunk;
                    up.steps_done >= up.unit.step_budget
                };
                if done {
                    self.finish_unit(ctx);
                } else {
                    if let Some(every) = self.cfg.checkpoint_every_chunks {
                        self.chunks_since_checkpoint += 1;
                        if self.chunks_since_checkpoint >= every {
                            self.chunks_since_checkpoint = 0;
                            self.write_checkpoint(ctx);
                        }
                    }
                    self.start_chunk(ctx);
                }
            }
            Event::Message { .. } => {
                if let Some(Ok((_from, pkt))) = packet_from_event(&ev) {
                    if !pkt.is_response() {
                        return;
                    }
                    let Some((_tag, req, _rtt)) = self.rpc.complete(pkt.corr_id, ctx.now()) else {
                        return;
                    };
                    match req {
                        Req::GetWork => {
                            if let Ok(grant) = pkt.body::<WorkGrant>() {
                                self.on_grant(ctx, grant);
                            }
                        }
                        Req::Report => {
                            if let Ok(d) = pkt.body::<Directive>() {
                                self.on_directive(ctx, d);
                            }
                        }
                        Req::Result(_) => {}
                        Req::Checkpoint(_) => {}
                        Req::RestoreFetch => {
                            let resumed = match pkt.body::<FetchReply>() {
                                Ok(reply) if reply.found && !reply.value.is_empty() => {
                                    match Checkpoint::from_wire(&reply.value) {
                                        Ok(ck) if ck.steps_done < ck.unit.step_budget => {
                                            let tele = self.tele.expect("started");
                                            ctx.inc(tele.resumes);
                                            self.begin_unit(
                                                ctx,
                                                ck.unit,
                                                ck.steps_done,
                                                ck.ops_done,
                                            );
                                            true
                                        }
                                        _ => false,
                                    }
                                }
                                _ => false,
                            };
                            if !resumed {
                                self.request_work(ctx);
                            }
                        }
                        Req::Store(_) => {
                            if let Ok(reply) = pkt.body::<ew_state::StoreReply>() {
                                let tele = self.tele.expect("started");
                                if reply.accepted {
                                    ctx.inc(tele.stores_accepted);
                                } else {
                                    ctx.inc(tele.stores_rejected);
                                }
                            }
                        }
                    }
                }
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{SchedulerConfig, SchedulerServer};
    use ew_ramsey::RamseyProblem;
    use ew_sim::{AvailabilitySchedule, HostSpec, HostTable, NetModel, Sim, SimTime, SiteSpec};

    fn world(n_hosts: usize, speed: f64) -> (Sim, Vec<ew_sim::HostId>) {
        let mut net = NetModel::new(0.05);
        let mut hosts = HostTable::new();
        let site = net.add_site(SiteSpec::simple(
            "s",
            SimDuration::from_millis(20),
            1.25e6,
            0.0,
        ));
        let hids = (0..n_hosts)
            .map(|i| hosts.add(HostSpec::dedicated(&format!("h{i}"), site, speed)))
            .collect();
        (Sim::new(net, hosts, 3), hids)
    }

    fn sched_cfg() -> SchedulerConfig {
        SchedulerConfig {
            workload: WorkloadSpec::ramsey(RamseyProblem { k: 4, n: 17 }),
            step_budget: 1_000,
            ..SchedulerConfig::default()
        }
    }

    fn client_cfg(sched: u64) -> ClientConfig {
        ClientConfig {
            schedulers: vec![sched],
            report_interval: SimDuration::from_secs(30),
            chunk_ops: 10_000_000,
            ops_per_step: 100_000, // 100 steps per chunk
            ..ClientConfig::default()
        }
    }

    #[test]
    fn client_computes_and_completes_units() {
        let (mut sim, hids) = world(2, 1e8);
        let s = sim.spawn(
            "sched",
            hids[0],
            Box::new(SchedulerServer::new(sched_cfg())),
        );
        let c = sim.spawn(
            "client",
            hids[1],
            Box::new(ComputeClient::new(client_cfg(s.0 as u64))),
        );
        sim.run_until(SimTime::from_secs(600));
        let units = sim
            .with_process::<ComputeClient, _>(c, |c| c.units_completed)
            .unwrap();
        let ops = sim.metrics().counter("ops.total") as u64;
        // 1e8 ops/s for 600s ≈ 6e10 ops (minus protocol gaps).
        assert!(ops > 3e10 as u64, "got {ops}");
        // One unit = 1000 steps = 10 chunks = ~1s compute; many complete.
        assert!(units > 100, "got {units}");
        let results = sim
            .with_process::<SchedulerServer, _>(s, |s| s.units().results)
            .unwrap();
        assert!(results >= units - 1);
        assert!(sim.metrics().counter("ops.unix") as u64 == ops);
    }

    /// Two schedulers and a client host; the first scheduler's host dies
    /// at 100 s. Returns the sim, both schedulers and the client host.
    fn first_scheduler_dies() -> (Sim, ProcessId, ProcessId, ew_sim::HostId) {
        let mut net = NetModel::new(0.05);
        let mut hosts = HostTable::new();
        let site = net.add_site(SiteSpec::simple(
            "s",
            SimDuration::from_millis(20),
            1.25e6,
            0.0,
        ));
        let h_sched1 = {
            let mut h = HostSpec::dedicated("sched1", site, 1e8);
            h.availability = AvailabilitySchedule {
                transitions: vec![(SimTime::from_secs(100), false)],
            };
            hosts.add(h)
        };
        let h_sched2 = hosts.add(HostSpec::dedicated("sched2", site, 1e8));
        let h_client = hosts.add(HostSpec::dedicated("client", site, 1e8));
        let mut sim = Sim::new(net, hosts, 9);
        let s1 = sim.spawn("s1", h_sched1, Box::new(SchedulerServer::new(sched_cfg())));
        let s2 = sim.spawn("s2", h_sched2, Box::new(SchedulerServer::new(sched_cfg())));
        (sim, s1, s2, h_client)
    }

    #[test]
    fn client_fails_over_when_scheduler_host_dies() {
        let (mut sim, s1, s2, h_client) = first_scheduler_dies();
        let c = sim.spawn(
            "client",
            h_client,
            Box::new(ComputeClient::new(ClientConfig {
                schedulers: vec![s1.0 as u64, s2.0 as u64],
                ..client_cfg(s1.0 as u64)
            })),
        );
        sim.run_until(SimTime::from_secs(600));
        let (failovers, units) = sim
            .with_process::<ComputeClient, _>(c, |c| (c.failovers, c.units_completed))
            .unwrap();
        assert!(failovers >= 1, "client must notice the dead scheduler");
        assert!(
            units > 50,
            "work continues on the backup scheduler: {units}"
        );
        let s2_results = sim
            .with_process::<SchedulerServer, _>(s2, |s| s.units().results)
            .unwrap();
        assert!(s2_results > 0, "backup scheduler received results");
    }

    #[test]
    fn real_execution_stores_verified_counter_example() {
        use ew_state::PersistentStateServer;
        let (mut sim, hids) = world(3, 1e8);
        let s = sim.spawn(
            "sched",
            hids[0],
            Box::new(SchedulerServer::new(SchedulerConfig {
                workload: WorkloadSpec::ramsey(RamseyProblem { k: 3, n: 5 }),
                step_budget: 500,
                ..SchedulerConfig::default()
            })),
        );
        let mut pss = PersistentStateServer::new("sdsc", 1 << 20);
        pss.register_validator(
            1,
            Box::new(|key, bytes| {
                // The real Ramsey sanity check, as wired by the toolkit.
                let k: usize = key
                    .rsplit('/')
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or("bad key")?;
                let g = ew_ramsey::ColoredGraph::from_bytes(bytes).ok_or("not a graph")?;
                let mut ops = ew_ramsey::OpsCounter::new();
                match ew_ramsey::verify_counter_example(&g, k, &mut ops) {
                    ew_ramsey::Verification::Valid { .. } => Ok(()),
                    ew_ramsey::Verification::Invalid { violations } => {
                        Err(format!("{violations} monochromatic cliques"))
                    }
                }
            }),
        );
        let p = sim.spawn("state", hids[1], Box::new(pss));
        sim.spawn(
            "client",
            hids[2],
            Box::new(ComputeClient::new(ClientConfig {
                state_server: Some(p.0 as u64),
                execute_real: true,
                chunk_ops: 1_000_000,
                ops_per_step: 10_000, // 100 steps/chunk, 5 chunks per unit
                ..client_cfg(s.0 as u64)
            })),
        );
        sim.run_until(SimTime::from_secs(120));
        let accepted = sim.metrics().counter("client.stores_accepted");
        assert!(accepted >= 1.0, "a real R(3)>5 witness must be stored");
        let stored = sim
            .with_process::<PersistentStateServer, _>(p, |s| s.get("ramsey/best/3").cloned())
            .unwrap()
            .expect("key present");
        let g = ew_ramsey::ColoredGraph::from_bytes(&stored).unwrap();
        let mut ops = ew_ramsey::OpsCounter::new();
        assert!(matches!(
            ew_ramsey::verify_counter_example(&g, 3, &mut ops),
            ew_ramsey::Verification::Valid { n: 5, .. }
        ));
        // Real execution runs the incremental kernel and reports it.
        assert!(sim.metrics().counter("ramsey.table_lookups") > 0.0);
        assert!(sim.metrics().counter("ramsey.table_flips") > 0.0);
        let gauge = |name: &str| {
            sim.telemetry()
                .gauges()
                .iter()
                .find(|(n, _)| *n == name)
                .map(|&(_, v)| v)
                .unwrap_or(0.0)
        };
        assert!(gauge("ramsey.workspace_bytes") > 0.0);
        assert!(gauge("ramsey.table_bytes") > 0.0);
    }

    /// A scheduler stand-in: grants `unit` once, answers the first report
    /// with a switch to `variant`, and keeps the RESULT it receives.
    struct SwitchingScheduler {
        unit: Option<WorkUnit>,
        variant: u8,
        switched: bool,
        result: Option<WorkResult>,
    }

    impl Process for SwitchingScheduler {
        fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: Event) {
            let Some(Ok((from, pkt))) = packet_from_event(&ev) else {
                return;
            };
            let reply = match pkt.mtype {
                scm::GET_WORK => {
                    let unit = self.unit.take();
                    WorkGrant {
                        granted: unit.is_some(),
                        unit: unit.unwrap_or_default(),
                    }
                    .to_wire()
                }
                scm::REPORT => {
                    let kind = if self.switched {
                        DirectiveKind::Continue
                    } else {
                        DirectiveKind::SwitchHeuristic
                    };
                    self.switched = true;
                    Directive {
                        kind: kind.wire_id(),
                        variant: self.variant,
                    }
                    .to_wire()
                }
                scm::RESULT => {
                    self.result = pkt.body::<WorkResult>().ok();
                    Vec::new()
                }
                _ => return,
            };
            send_packet(ctx, from, &Packet::response_to(&pkt, reply));
        }
    }

    #[test]
    fn a_switch_mid_unit_sends_the_result_of_the_switched_unit() {
        let (mut sim, hids) = world(2, 1e8);
        let unit = WorkUnit {
            id: 7,
            arg0: 4,
            arg1: 17,
            variant: 0,
            seed: 1998,
            // 50 chunks of 0.01 s: reports at 0.05 s land mid-unit.
            step_budget: 5_000,
            payload: Vec::new(),
        };
        let s = sim.spawn(
            "sched",
            hids[0],
            Box::new(SwitchingScheduler {
                unit: Some(unit.clone()),
                variant: 1,
                switched: false,
                result: None,
            }),
        );
        sim.spawn(
            "client",
            hids[1],
            Box::new(ComputeClient::new(ClientConfig {
                execute_real: true,
                report_interval: SimDuration::from_millis(50),
                chunk_ops: 1_000_000,
                ops_per_step: 10_000,
                ..client_cfg(s.0 as u64)
            })),
        );
        sim.run_until(SimTime::from_secs(5));
        assert_eq!(sim.metrics().counter("client.switches"), 1.0);
        let sent = sim
            .with_process::<SwitchingScheduler, _>(s, |s| s.result.clone())
            .unwrap()
            .expect("the unit's RESULT arrived");
        let switched = WorkUnit {
            variant: 1,
            ..unit.clone()
        };
        let (expected, _) = ew_workload::execute_unit(&switched);
        let (unswitched, _) = ew_workload::execute_unit(&unit);
        assert_ne!(expected, unswitched, "the two variants are told apart");
        assert_eq!(sent, expected);
    }

    #[test]
    fn suddenly_contended_client_work_migrates() {
        // Three equal hosts; one collapses under background load at t=400
        // (an owner reclaiming cycles). The scheduler must detect the
        // anomaly against the client's own baseline and migrate its unit.
        use ew_sim::{LoadTrace, SpikeLoad};
        let mut net = NetModel::new(0.05);
        let mut hosts = HostTable::new();
        let site = net.add_site(SiteSpec::simple(
            "s",
            SimDuration::from_millis(20),
            1.25e6,
            0.0,
        ));
        let h0 = hosts.add(HostSpec::dedicated("sched", site, 1e8));
        let hf1 = hosts.add(HostSpec::dedicated("fast1", site, 1e8));
        let hf2 = hosts.add(HostSpec::dedicated("fast2", site, 1e8));
        let hs = {
            let mut h = HostSpec::dedicated("contended", site, 1e8);
            let spike: Box<dyn LoadTrace> = Box::new(SpikeLoad {
                start: SimTime::from_secs(400),
                end: SimTime::from_secs(1200),
                level: 0.97,
            });
            h.cpu_load = spike;
            hosts.add(h)
        };
        let mut sim = Sim::new(net, hosts, 13);
        let s = sim.spawn(
            "sched",
            h0,
            Box::new(SchedulerServer::new(SchedulerConfig {
                step_budget: 100_000, // long units so migration can trigger
                ..sched_cfg()
            })),
        );
        for (name, h) in [("f1", hf1), ("f2", hf2), ("contended", hs)] {
            sim.spawn(
                name,
                h,
                Box::new(ComputeClient::new(ClientConfig {
                    chunk_ops: 10_000_000,
                    ..client_cfg(s.0 as u64)
                })),
            );
        }
        sim.run_until(SimTime::from_secs(1200));
        let abandons = sim
            .with_process::<SchedulerServer, _>(s, |s| s.units().migrations)
            .unwrap();
        assert!(
            abandons >= 1,
            "the suddenly-30x-slower client's unit must be migrated"
        );
        assert!(sim.metrics().counter("client.abandons") >= 1.0);
    }

    /// A [`ComputeClient`] under watch. Before every event nothing the
    /// client waits on may lie in the past, and after every wake nothing
    /// may be due any more: each expiry, failover and resend happens at its
    /// own instant. `late` collects `(now, due)` for every breach.
    struct Watched {
        client: ComputeClient,
        wakes: u64,
        /// Wakes that came with nothing due.
        idle_wakes: u64,
        /// Responses received: one per answered request.
        replies: u64,
        late: Vec<(SimTime, SimTime)>,
    }

    impl Watched {
        fn spawn(sim: &mut Sim, host: ew_sim::HostId, cfg: ClientConfig) -> ProcessId {
            let watched = Watched {
                client: ComputeClient::new(cfg),
                wakes: 0,
                idle_wakes: 0,
                replies: 0,
                late: Vec::new(),
            };
            sim.spawn("client", host, Box::new(watched))
        }
    }

    impl Process for Watched {
        fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: Event) {
            let now = ctx.now();
            let due = self.client.rpc.next_due();
            self.late
                .extend(due.filter(|&at| at < now).map(|at| (now, at)));
            let wake = matches!(ev, Event::Timer { tag: RPC_WAKE });
            self.wakes += u64::from(wake);
            self.idle_wakes += u64::from(wake && due.is_none_or(|at| at > now));
            self.replies += u64::from(matches!(ev, Event::Message { .. }));
            self.client.on_event(ctx, ev);
            let left = self.client.rpc.next_due().filter(|&at| wake && at <= now);
            self.late.extend(left.map(|at| (now, at)));
        }
    }

    fn watched<T>(sim: &Sim, c: ProcessId, f: impl FnOnce(&Watched) -> T) -> T {
        sim.with_process::<Watched, _>(c, f).expect("client alive")
    }

    #[test]
    fn client_gets_at_most_one_idle_wake_per_request() {
        let sched = SchedulerConfig {
            step_budget: 10_000_000, // ~2.8 sim-hours at 1e8 ops/s
            ..sched_cfg()
        };
        let (mut sim, hids) = world(2, 1e8);
        let s = sim.spawn(
            "sched",
            hids[0],
            Box::new(SchedulerServer::new(sched.clone())),
        );
        let c = Watched::spawn(
            &mut sim,
            hids[1],
            ClientConfig {
                report_interval: SimDuration::from_secs(3600),
                ..client_cfg(s.0 as u64)
            },
        );
        // The work request arms the wake at its deadline; its reply lands
        // long before, so that one wake finds nothing.
        sim.run_until(SimTime::from_secs(60));
        assert_eq!(
            watched(&sim, c, |w| (w.replies, w.wakes, w.idle_wakes)),
            (1, 1, 1)
        );
        let ops_before = sim.metrics().counter("ops.total") as u64;
        let ten_minutes = sim.run_until(SimTime::from_secs(660));
        let ops_after = sim.metrics().counter("ops.total") as u64;
        assert!(ops_after > ops_before + 5e10 as u64, "still computing");
        assert_eq!(
            watched(&sim, c, |w| w.wakes),
            1,
            "no wake with nothing in flight"
        );
        // Every event of those ten minutes is a compute chunk finishing.
        let chunks = (ops_after - ops_before) / 10_000_000;
        assert_eq!(ten_minutes.events, chunks);

        // Reporting every 30 s: one request after another, each answered,
        // and no more wakes than requests.
        let (mut sim, hids) = world(2, 1e8);
        let s = sim.spawn("sched", hids[0], Box::new(SchedulerServer::new(sched)));
        let c = Watched::spawn(&mut sim, hids[1], client_cfg(s.0 as u64));
        sim.run_until(SimTime::from_secs(600));
        let (replies, wakes, idle) = watched(&sim, c, |w| (w.replies, w.wakes, w.idle_wakes));
        assert!(replies > 15, "{replies} replies");
        assert_eq!(wakes, idle, "nothing expires in a healthy world");
        assert!(wakes <= replies, "{wakes} wakes for {replies} requests");
        assert!(watched(&sim, c, |w| w.late.is_empty()));
    }

    #[test]
    fn expiry_failover_and_resend_land_at_their_own_instants() {
        let (mut sim, s1, s2, h_client) = first_scheduler_dies();
        // Start the client off the whole-second lattice. By the time s1's
        // host dies its time-outs are forecast from ~40 ms RTTs, so its
        // requests to s1 expire a fraction of a second after they are
        // sent, are resent after a jittered backoff, expire again and fail
        // over to s2.
        sim.run_until(SimTime::from_micros(700_123));
        let c = Watched::spawn(
            &mut sim,
            h_client,
            ClientConfig {
                schedulers: vec![s1.0 as u64, s2.0 as u64],
                ..client_cfg(s1.0 as u64)
            },
        );
        sim.run_until(SimTime::from_secs(400));
        assert_eq!(watched(&sim, c, |w| w.late.clone()), vec![]);
        assert!(
            sim.metrics().counter("rpc.retries") >= 1.0,
            "a resend was deferred"
        );
        assert!(
            sim.metrics().counter("client.failovers") >= 1.0,
            "s1 is abandoned"
        );
        let units = watched(&sim, c, |w| w.client.units_completed);
        assert!(
            units > 50,
            "work continues on the backup scheduler: {units}"
        );
    }

    #[test]
    fn give_ups_on_a_dead_scheduler_never_rotate_back_onto_it() {
        // Static time-outs: every expiry is a give-up, and no reports. After
        // s1's host dies, the RESULT and the GET_WORK that a finished unit
        // sends together both give up on s1 at one wake. Each give-up moves
        // the client away from s1; if the second moved it back, the
        // re-sent GET_WORK would go to s1 and give up a third time.
        let (mut sim, s1, s2, h_client) = first_scheduler_dies();
        let c = Watched::spawn(
            &mut sim,
            h_client,
            ClientConfig {
                schedulers: vec![s1.0 as u64, s2.0 as u64],
                static_timeouts: Some(SimDuration::from_secs(2)),
                report_interval: SimDuration::from_secs(3600),
                ..client_cfg(s1.0 as u64)
            },
        );
        sim.run_until(SimTime::from_secs(400));
        let (failovers, units) =
            watched(&sim, c, |w| (w.client.failovers, w.client.units_completed));
        assert_eq!(failovers, 2, "one give-up per request sent to s1");
        assert!(
            units > 50,
            "work continues on the backup scheduler: {units}"
        );
    }
}
