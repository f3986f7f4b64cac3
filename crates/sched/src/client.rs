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

use ew_forecast::ForecastTimeout;
use ew_proto::sim_net::{packet_from_event, send_packet};
use ew_proto::{
    BreakerConfig, EventTag, Packet, RetryConfig, RetryTele, RpcClient, StaticTimeout, Verdict,
    WireDecode, WireEncode,
};
use ew_sim::{
    CounterId, Ctx, Event, GaugeId, Process, ProcessId, SeriesId, SimDuration, SimTime, SpanId,
};
use ew_state::messages::{sm, FetchReply, FetchRequest, StoreRequest};
use ew_workload::{WorkResult, WorkUnit, Workload, WorkloadSpec};

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
    /// Run the search for real at unit completion (small problems only;
    /// the SC98-scale experiments use synthetic results and real ops
    /// accounting).
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
const TIMER_TICK: u64 = 2;
const TIMER_RETRY: u64 = 3;

/// Spacing of the expiry / deferred-resend sweep grid (`Started + k·2 s`).
const SWEEP_PERIOD: SimDuration = SimDuration::from_secs(2);

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
    /// Sweeps fired.
    sweeps: CounterId,
    /// Sweeps that expired nothing and flushed nothing. Every request arms
    /// one, so some are expected; a count near `run length / 2 s` per client
    /// means something re-arms unconditionally again.
    sweeps_idle: CounterId,
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
    /// Fraction of deltas served from the table on the last unit.
    ramsey_hit_rate: GaugeId,
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
            sweeps: ctx.counter("client.sweeps"),
            sweeps_idle: ctx.counter("client.sweeps_idle"),
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
            ramsey_hit_rate: ctx.gauge("ramsey.table_hit_rate"),
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
}

/// The client process.
pub struct ComputeClient {
    cfg: ClientConfig,
    workload: Box<dyn Workload>,
    sched_idx: usize,
    unit: Option<UnitProgress>,
    rpc: RpcClient<Req>,
    /// Origin of the sweep grid: when this process started.
    started_at: SimTime,
    /// A `TIMER_TICK` is pending (at the next grid point).
    sweep_armed: bool,
    compute_gen: u64,
    waiting_for_work: bool,
    chunks_since_checkpoint: u64,
    tele: Option<ClientTele>,
    /// Total useful ops delivered by this client.
    pub total_ops: u64,
    /// Units completed (budget exhausted or solved).
    pub units_completed: u64,
    /// Scheduler failovers performed.
    pub failovers: u64,
    /// Counter-examples accepted by persistent state.
    pub stores_accepted: u64,
    /// Units resumed from a checkpoint after a restart.
    pub resumes: u64,
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
                RpcClient::new(
                    ForecastTimeout::wan_default(),
                    Some((retry, BreakerConfig::default())),
                    Some(retry.cap),
                )
            }
        };
        let workload = cfg.workload.build(0);
        ComputeClient {
            cfg,
            workload,
            sched_idx: 0,
            unit: None,
            rpc,
            started_at: SimTime::ZERO,
            sweep_armed: false,
            compute_gen: 0,
            waiting_for_work: false,
            chunks_since_checkpoint: 0,
            tele: None,
            total_ops: 0,
            units_completed: 0,
            failovers: 0,
            stores_accepted: 0,
            resumes: 0,
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
        let req = StoreRequest {
            key: Self::checkpoint_key(ctx),
            class: 0,
            value: ck.to_wire(),
        };
        let body = req.to_wire();
        self.send_request(ctx, state, sm::STORE, body.clone(), Req::Checkpoint(body));
        let tele = self.tele.expect("started");
        ctx.inc(tele.checkpoints);
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
        let req = StoreRequest {
            key: Self::checkpoint_key(ctx),
            class: 0,
            value: Vec::new(),
        };
        let body = req.to_wire();
        self.send_request(ctx, state, sm::STORE, body.clone(), Req::Checkpoint(body));
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

    /// Rotate to the next scheduler.
    fn fail_over(&mut self, ctx: &mut Ctx<'_>, tele: ClientTele) {
        self.sched_idx += 1;
        self.failovers += 1;
        ctx.inc(tele.failovers);
    }

    fn send_request(&mut self, ctx: &mut Ctx<'_>, to: u64, mtype: u16, body: Vec<u8>, req: Req) {
        let corr = self.rpc.begin(EventTag { peer: to, mtype }, ctx.now(), req);
        self.transmit(ctx, to, mtype, corr, body);
    }

    fn transmit(&mut self, ctx: &mut Ctx<'_>, to: u64, mtype: u16, corr: u64, body: Vec<u8>) {
        send_packet(
            ctx,
            ProcessId(to as u32),
            &Packet::request(mtype, corr, body),
        );
        self.arm_sweep(ctx);
    }

    /// Arm the expiry / deferred-resend sweep while there is something for
    /// it to find, and leave it off otherwise: a client computing a long
    /// unit with nothing in flight costs the kernel no events. The sweep
    /// always lands on the grid `started_at + k·SWEEP_PERIOD`, strictly
    /// after `now` — the instants an always-on 2 s poll would fire at — so
    /// arming on demand moves no expiry, retry, failover or resend in
    /// simulated time (a deadline-exact timer would move them earlier).
    fn arm_sweep(&mut self, ctx: &mut Ctx<'_>) {
        if self.sweep_armed || self.rpc.idle() {
            return;
        }
        let period = SWEEP_PERIOD.as_micros();
        let into_period = ctx.now().since(self.started_at).as_micros() % period;
        ctx.set_timer(SimDuration::from_micros(period - into_period), TIMER_TICK);
        self.sweep_armed = true;
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

    fn finish_unit(&mut self, ctx: &mut Ctx<'_>) {
        let Some(up) = self.unit.take() else { return };
        self.compute_gen += 1;
        self.chunks_since_checkpoint = 0;
        self.clear_checkpoint(ctx);
        let tele = self.tele.expect("started");
        let result = if self.cfg.execute_real {
            let (result, stats) = self.workload.execute(&up.unit);
            ctx.add(tele.ramsey_lookups, stats.cache_lookups as f64);
            ctx.add(tele.ramsey_refreshed, stats.cache_refreshed as f64);
            ctx.add(tele.ramsey_flips, stats.cache_mutations as f64);
            ctx.set_gauge(tele.ramsey_hit_rate, stats.hit_rate());
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
        self.unit = Some(UnitProgress {
            unit: grant.unit,
            steps_done: 0,
            ops_done: 0,
            report_mark_ops: 0,
            report_mark_at: ctx.now(),
        });
        self.start_chunk(ctx);
    }

    fn on_directive(&mut self, ctx: &mut Ctx<'_>, d: Directive) {
        let tele = self.tele.expect("started");
        match DirectiveKind::from_wire_id(d.kind) {
            DirectiveKind::Continue => {}
            DirectiveKind::SwitchHeuristic => {
                if let Some(up) = self.unit.as_mut() {
                    up.unit.variant = d.variant;
                    ctx.inc(tele.switches);
                }
            }
            DirectiveKind::Abandon => {
                // The unit migrates; invalidate in-flight compute and the
                // host checkpoint.
                let unit_id = self.unit.as_ref().map(|up| up.unit.id).unwrap_or(0);
                ctx.span_enter(tele.migrate_span, unit_id);
                self.unit = None;
                self.compute_gen += 1;
                self.chunks_since_checkpoint = 0;
                self.clear_checkpoint(ctx);
                ctx.inc(tele.abandons);
                self.request_work(ctx);
                ctx.span_exit(tele.migrate_span, unit_id);
            }
        }
    }

    fn sweep(&mut self, ctx: &mut Ctx<'_>) {
        self.sweep_armed = false;
        let tele = self.tele.expect("started");
        ctx.inc(tele.sweeps);
        let expired = self.rpc.take_expired(ctx, tele.timeout_span);
        let mut idle = expired.is_empty();
        for e in expired {
            // One verdict at a time: `on_gave_up` reads breaker state the
            // next verdict mutates, and begins new requests.
            let resendable = e.context.resendable();
            if let Verdict::GaveUp(req) = self.rpc.verdict(ctx, tele.retry, e, resendable) {
                self.on_gave_up(ctx, tele, req);
            }
        }
        let now = ctx.now();
        let due = self.rpc.take_due(now);
        idle &= due.is_empty();
        for resend in due {
            let (to, mtype) = (resend.tag.peer, resend.tag.mtype);
            let body = resend.context.resend_body(ctx);
            let corr = self.rpc.resend(now, resend);
            self.transmit(ctx, to, mtype, corr, body);
        }
        if idle {
            ctx.inc(tele.sweeps_idle);
        }
        self.arm_sweep(ctx);
    }

    /// Per-kind recovery for a request the retry layer will not resend:
    /// past the budget or behind an open circuit on the adaptive arm, every
    /// expiry on the static arm (`static_timeouts = Some`: no backoff, no
    /// breaker, immediate failover).
    fn on_gave_up(&mut self, ctx: &mut Ctx<'_>, tele: ClientTele, req: Req) {
        match req {
            Req::GetWork => {
                // Scheduler unreachable: fail over and re-request.
                self.fail_over(ctx, tele);
                self.waiting_for_work = false;
                self.request_work(ctx);
            }
            Req::Report => {
                // The one place the arms differ. Static: the next report
                // tries the next scheduler if this one is gone. Adaptive:
                // the rotation stays; the breaker heard the time-out, and
                // `pick_scheduler` skips a scheduler whose circuit it opens.
                if self.cfg.static_timeouts.is_some() {
                    self.fail_over(ctx, tele);
                }
            }
            Req::Result(result) => {
                // Results matter: fail over and resend with a fresh budget.
                self.fail_over(ctx, tele);
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

impl Process for ComputeClient {
    fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: Event) {
        match &ev {
            Event::Started => {
                self.started_at = ctx.now();
                self.tele = Some(ClientTele::intern(ctx, &self.cfg.infra));
                if self.cfg.static_timeouts.is_none() {
                    // Jitter stream seeded from the process rng so whole
                    // campaigns replay bit-identically.
                    let seed = ctx.rng().next_u64();
                    self.rpc.seed_jitter(seed);
                }
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
                TIMER_TICK => self.sweep(ctx),
                TIMER_RETRY => self.request_work(ctx),
                _ => {}
            },
            Event::ComputeDone { tag, ops } => {
                if *tag != self.compute_gen {
                    return; // stale chunk from an abandoned unit
                }
                let tele = self.tele.expect("started");
                self.total_ops += ops;
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
                                            self.resumes += 1;
                                            let tele = self.tele.expect("started");
                                            ctx.inc(tele.resumes);
                                            self.unit = Some(UnitProgress {
                                                unit: ck.unit,
                                                steps_done: ck.steps_done,
                                                ops_done: ck.ops_done,
                                                report_mark_ops: ck.ops_done,
                                                report_mark_at: ctx.now(),
                                            });
                                            self.start_chunk(ctx);
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
                                    self.stores_accepted += 1;
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
        let (ops, units) = sim
            .with_process::<ComputeClient, _>(c, |c| (c.total_ops, c.units_completed))
            .unwrap();
        // 1e8 ops/s for 600s ≈ 6e10 ops (minus protocol gaps).
        assert!(ops > 3e10 as u64, "got {ops}");
        // One unit = 1000 steps = 10 chunks = ~1s compute; many complete.
        assert!(units > 100, "got {units}");
        let results = sim
            .with_process::<SchedulerServer, _>(s, |s| s.results_received)
            .unwrap();
        assert!(results >= units - 1);
        assert!(sim.metrics().counter("ops.total") as u64 == ops);
        assert!(sim.metrics().counter("ops.unix") as u64 == ops);
    }

    #[test]
    fn client_fails_over_when_scheduler_host_dies() {
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
            .with_process::<SchedulerServer, _>(s2, |s| s.results_received)
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
        let c = sim.spawn(
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
        let accepted = sim
            .with_process::<ComputeClient, _>(c, |c| c.stores_accepted)
            .unwrap();
        assert!(accepted >= 1, "a real R(3)>5 witness must be stored");
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
            sim.metrics()
                .registry()
                .gauges()
                .iter()
                .find(|(n, _)| *n == name)
                .map(|&(_, v)| v)
                .unwrap_or(0.0)
        };
        assert_eq!(gauge("ramsey.table_hit_rate"), 1.0);
        assert!(gauge("ramsey.workspace_bytes") > 0.0);
        assert!(gauge("ramsey.table_bytes") > 0.0);
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
            .with_process::<SchedulerServer, _>(s, |s| s.issued_abandon)
            .unwrap();
        assert!(
            abandons >= 1,
            "the suddenly-30x-slower client's unit must be migrated"
        );
        assert!(sim.metrics().counter("client.abandons") >= 1.0);
    }

    #[test]
    fn client_computing_with_nothing_in_flight_gets_no_sweeps() {
        let (mut sim, hids) = world(2, 1e8);
        let s = sim.spawn(
            "sched",
            hids[0],
            Box::new(SchedulerServer::new(SchedulerConfig {
                step_budget: 10_000_000, // ~2.8 sim-hours at 1e8 ops/s
                ..sched_cfg()
            })),
        );
        let c = sim.spawn(
            "client",
            hids[1],
            Box::new(ComputeClient::new(ClientConfig {
                report_interval: SimDuration::from_secs(3600),
                ..client_cfg(s.0 as u64)
            })),
        );
        // The work request arms one sweep; its reply lands long before the
        // sweep fires, so that one finds nothing.
        sim.run_until(SimTime::from_secs(60));
        assert_eq!(sim.metrics().counter("client.sweeps"), 1.0);
        assert_eq!(sim.metrics().counter("client.sweeps_idle"), 1.0);
        let ops_before = sim
            .with_process::<ComputeClient, _>(c, |c| c.total_ops)
            .unwrap();
        let ten_minutes = sim.run_until(SimTime::from_secs(660));
        let ops_after = sim
            .with_process::<ComputeClient, _>(c, |c| c.total_ops)
            .unwrap();
        assert!(ops_after > ops_before + 5e10 as u64, "still computing");
        assert_eq!(
            sim.metrics().counter("client.sweeps"),
            1.0,
            "no TIMER_TICK in 10 sim-minutes with nothing in flight"
        );
        // Every event of those ten minutes is a compute chunk finishing.
        let chunks = (ops_after - ops_before) / 10_000_000;
        assert_eq!(ten_minutes.events, chunks);
    }

    #[test]
    fn expiry_and_failover_land_on_the_started_grid() {
        let mut net = NetModel::new(0.05);
        let mut hosts = HostTable::new();
        let site = net.add_site(SiteSpec::simple(
            "s",
            SimDuration::from_millis(20),
            1.25e6,
            0.0,
        ));
        let h_dead = {
            let mut h = HostSpec::dedicated("dead", site, 1e8);
            h.availability = AvailabilitySchedule {
                transitions: vec![(SimTime::from_millis(500), false)],
            };
            hosts.add(h)
        };
        let h_sched2 = hosts.add(HostSpec::dedicated("sched2", site, 1e8));
        let h_client = hosts.add(HostSpec::dedicated("client", site, 1e8));
        let mut sim = Sim::new(net, hosts, 9);
        let s1 = sim.spawn("s1", h_dead, Box::new(SchedulerServer::new(sched_cfg())));
        let s2 = sim.spawn("s2", h_sched2, Box::new(SchedulerServer::new(sched_cfg())));
        // Start the client off the whole-second lattice, after s1's host died.
        let started = SimTime::from_micros(700_123);
        sim.run_until(started);
        let c = sim.spawn(
            "client",
            h_client,
            Box::new(ComputeClient::new(ClientConfig {
                schedulers: vec![s1.0 as u64, s2.0 as u64],
                ..client_cfg(s1.0 as u64)
            })),
        );
        // Step grid point by grid point, stopping 1 us short of each: the
        // sweep count and the failover count may only move in that last
        // microsecond, i.e. at an instant = Started (mod 2 s).
        let watch = |sim: &Sim| {
            (
                sim.metrics().counter("client.sweeps"),
                sim.metrics().counter("client.failovers"),
                sim.metrics().counter("rpc.retries"),
            )
        };
        let mut at_grid = watch(&sim);
        for k in 1..=150u64 {
            let grid = started + SWEEP_PERIOD * k;
            sim.run_until(SimTime::from_micros(grid.as_micros() - 1));
            assert_eq!(watch(&sim), at_grid, "moved between grid points (k={k})");
            sim.run_until(grid);
            at_grid = watch(&sim);
        }
        assert!(at_grid.1 >= 1.0, "the dead scheduler is abandoned");
        assert!(at_grid.2 >= 1.0, "resends were deferred and flushed first");
        let units = sim
            .with_process::<ComputeClient, _>(c, |c| c.units_completed)
            .unwrap();
        assert!(
            units > 50,
            "work continues on the backup scheduler: {units}"
        );
    }
}
