//! The scheduling server.
//!
//! §3.1.1: a collection of cooperating but independent scheduling servers
//! controls application execution dynamically. Each client reports progress
//! periodically; the server issues directives based on the algorithm the
//! client runs, its progress, and its computational rate. Work migration is
//! forecast-driven: "Rather than basing that prediction solely on the last
//! performance measurement for each client, the scheduler uses the NWS
//! lightweight forecasting facilities" — set
//! [`SchedulerConfig::use_forecasts`] to `false` for the last-measurement
//! baseline (ablation).
//!
//! The server is application-agnostic: everything it knows about the work
//! it hands out comes through the [`Workload`] trait — unit generation,
//! variant rotation for stalled clients, migration remakes, and result
//! bookkeeping. The Ramsey search is just the default plugin.

use ew_forecast::ForecasterSet;
use ew_gossip::{Comparator, GossipClient, VersionedBlob};
use ew_proto::sim_net::{packet_from_event, send_packet};
use ew_proto::{Packet, WireEncode};
use ew_sim::hashers::FxHashMap;
use ew_sim::{CounterId, Ctx, Event, Process, ProcessId, SimDuration, SimTime, SpanId};
use ew_state::{sm, LogRecord};
use ew_workload::{WorkResult, WorkUnit, Workload, WorkloadSpec};

/// State type the schedulers synchronize through the Gossip pool: the best
/// (lowest-objective) state seen anywhere. Version is
/// `u64::MAX - progress` so the `BestValue` comparator prefers lower
/// objectives ("volatile-but-replicated state", §3.1.2).
pub const STYPE_BEST_FOUND: u16 = 0x1100;

use crate::messages::{scm, Directive, DirectiveKind, ProgressReport, WorkGrant};

/// Scheduler tunables.
#[derive(Clone, Debug)]
pub struct SchedulerConfig {
    /// The application being scheduled.
    pub workload: WorkloadSpec,
    /// Default steps per issued work unit (rate-scaled for workloads that
    /// opt in; cost-model workloads size their own units).
    pub step_budget: u64,
    /// Forecast rates with the NWS battery (`true`, the paper's design) or
    /// use the last report only (`false`, the ablation baseline).
    pub use_forecasts: bool,
    /// Base RNG salt for unit seeds (keeps schedulers independent).
    pub seed_salt: u64,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        SchedulerConfig {
            workload: WorkloadSpec::default(),
            step_budget: 2_000,
            use_forecasts: true,
            seed_salt: 0,
        }
    }
}

/// Reports with no objective improvement before a switch directive.
const STALL_REPORTS: u32 = 3;

/// A client whose (forecast) rate falls below `MIGRATION_FACTOR` × its *own
/// demonstrated* rate is anomalously slow (contention, not heterogeneity —
/// a browser applet is never "slow" by its own standard) and is told to
/// abandon so its unit migrates to a machine the scheduler predicts will be
/// faster (§3.1.1).
const MIGRATION_FACTOR: f64 = 0.45;

/// Interned metric handles, resolved once at `Started`.
#[derive(Clone, Copy)]
struct SchedTele {
    grants: CounterId,
    reports: CounterId,
    /// Reports dropped because their rate was non-finite or negative.
    reports_bad_rate: CounterId,
    results: CounterId,
    /// Per-report control decision (continue / switch / abandon-migrate);
    /// tagged with the unit id so migration latencies are traceable.
    decide_span: SpanId,
}

impl SchedTele {
    fn intern(ctx: &mut Ctx<'_>) -> Self {
        SchedTele {
            grants: ctx.counter("sched.grants"),
            reports: ctx.counter("sched.reports"),
            reports_bad_rate: ctx.counter("sched.reports_bad_rate"),
            results: ctx.counter("sched.results"),
            decide_span: ctx.span("sched.decide"),
        }
    }
}

struct Outstanding {
    variant: u8,
    last_best: u64,
    stall_count: u32,
    /// The issued unit, kept so migration can remake it faithfully.
    unit: WorkUnit,
}

/// Everything the scheduler knows about one reporting client.
struct ClientRecord {
    /// The client's reported rates, as a forecast stream.
    rates: ForecasterSet,
    /// Rate estimate refreshed on each report (forecast or last value, per
    /// config), cached so the per-report migration decision reads one entry
    /// and one median, not clients × battery. Mirrored in [`RateTable`].
    estimate: Option<f64>,
    /// Slowly-decaying demonstrated rate (the baseline that defines
    /// "anomalously slow").
    baseline: f64,
    last_seen: SimTime,
}

/// The multiset of every client's rate estimate, kept ascending by
/// `f64::total_cmp` (the sorted-window idiom of `ew_forecast::methods`), so
/// the pool median every report and grant asks for is one indexed read
/// instead of a collect-and-sort of the whole table. `insert` and `remove`
/// cost a binary search plus an O(clients) memmove.
#[derive(Default)]
struct RateTable {
    sorted: Vec<f64>,
}

impl RateTable {
    fn insert(&mut self, rate: f64) {
        let i = self.sorted.partition_point(|x| x.total_cmp(&rate).is_lt());
        self.sorted.insert(i, rate);
    }

    fn remove(&mut self, old: f64) {
        let i = self.sorted.partition_point(|x| x.total_cmp(&old).is_lt());
        self.sorted.remove(i);
    }

    /// The upper median, `sorted[len / 2]`.
    fn median(&self) -> Option<f64> {
        self.sorted.get(self.sorted.len() / 2).copied()
    }
}

/// `ProgressReport::rate` comes off the wire. A NaN, infinite or negative
/// rate would poison the forecast battery, the baselines and the pool
/// median, so such a report is answered `Continue` and feeds no table.
fn rate_is_sane(rate: f64) -> bool {
    rate.is_finite() && rate.is_sign_positive()
}

/// The scheduling server process.
pub struct SchedulerServer {
    cfg: SchedulerConfig,
    workload: Box<dyn Workload>,
    next_unit: u64,
    outstanding: FxHashMap<u64, Outstanding>,
    /// Units abandoned by slow clients, awaiting reassignment.
    migration_queue: Vec<WorkUnit>,
    /// Accessed by key and by `retain` only, so the hasher cannot reach
    /// event order.
    clients: FxHashMap<u64, ClientRecord>,
    estimates: RateTable,
    reports_since_purge: u32,
    /// Completed results received.
    pub results_received: u64,
    /// Non-empty artifacts received (Ramsey: counter-examples).
    pub artifacts_received: u64,
    /// Directives issued, by kind, for inspection.
    pub issued_continue: u64,
    /// Switch directives issued.
    pub issued_switch: u64,
    /// Abandon (migration) directives issued for anomaly migrations.
    pub issued_abandon: u64,
    /// Abandon directives issued for unknown units (stale resumes,
    /// already-migrated work, restarted schedulers).
    pub issued_unknown: u64,
    tele: Option<SchedTele>,
    gossip: Option<(u64, GossipClient)>,
    /// Logging server to forward per-report performance records to
    /// (§3.1.3: "Before the information is discarded, it is forwarded to
    /// a logging server so that it can be recorded").
    log_server: Option<u64>,
    /// Best objective seen pool-wide (via results and gossip sync).
    pub best_known: Option<(u64, Vec<u8>)>,
}

impl SchedulerServer {
    /// A scheduler with the given configuration.
    pub fn new(cfg: SchedulerConfig) -> Self {
        let workload = cfg.workload.build(cfg.seed_salt);
        SchedulerServer {
            cfg,
            workload,
            next_unit: 1,
            outstanding: FxHashMap::default(),
            migration_queue: Vec::new(),
            clients: FxHashMap::default(),
            estimates: RateTable::default(),
            reports_since_purge: 0,
            results_received: 0,
            artifacts_received: 0,
            issued_continue: 0,
            issued_switch: 0,
            issued_abandon: 0,
            issued_unknown: 0,
            tele: None,
            gossip: None,
            log_server: None,
            best_known: None,
        }
    }

    /// Forward each progress report's performance record to a logging
    /// server before discarding it.
    pub fn with_log_server(mut self, addr: u64) -> Self {
        self.log_server = Some(addr);
        self
    }

    /// Synchronize the best-found state through a Gossip server: the
    /// scheduler registers [`STYPE_BEST_FOUND`] with a `BestValue`
    /// comparator, publishes improvements, and absorbs fresher state pushed
    /// by the pool.
    pub fn with_gossip(mut self, gossip_addr: u64) -> Self {
        self.gossip = Some((
            gossip_addr,
            GossipClient::new(vec![(STYPE_BEST_FOUND, Comparator::BestValue)]),
        ));
        self
    }

    fn note_best(&mut self, progress: u64, carry: Vec<u8>) {
        let better = match &self.best_known {
            None => true,
            Some((cur, _)) => progress < *cur,
        };
        if better {
            self.best_known = Some((progress, carry.clone()));
            if let Some((_, client)) = self.gossip.as_mut() {
                client.set_local(
                    STYPE_BEST_FOUND,
                    VersionedBlob::new(u64::MAX - progress, carry),
                );
            }
        }
    }

    /// Units currently assigned.
    #[cfg(test)]
    fn outstanding_count(&self) -> usize {
        self.outstanding.len()
    }

    /// Units waiting for migration pickup.
    #[cfg(test)]
    fn migration_queue_len(&self) -> usize {
        self.migration_queue.len()
    }

    /// Fraction of a finite workload completed, if the application
    /// defines one (DAG tasks done, faas invocations served).
    #[cfg(test)]
    fn workload_progress(&self) -> Option<f64> {
        self.workload.progress()
    }

    fn grant_work(&mut self, now: SimTime, client: u64) -> Option<WorkUnit> {
        // Size the unit to the client's forecast rate ("servers are
        // programmed to issue different control directives based on ...
        // the most recent computational rate of the client", §3.1.1): a
        // browser applet gets a unit it can finish in roughly the same
        // wall time as a supercomputer node, and the migration rule below
        // then fires on *anomalies* (a host suddenly slowed by load), not
        // on the pool's permanent heterogeneity.
        let scale = match (self.rate_estimate(client), self.pool_median_rate()) {
            (Some(est), Some(median)) if median > 0.0 => (est / median).clamp(0.02, 4.0),
            _ => 1.0,
        };
        let budget = ((self.cfg.step_budget as f64 * scale) as u64).max(100);
        let mut unit = if let Some(u) = self.migration_queue.pop() {
            // Migrated unit keeps its id and resume state.
            u
        } else {
            let u = self
                .workload
                .generate(self.next_unit, now, client, self.cfg.step_budget)?;
            self.next_unit += 1;
            u
        };
        if self.workload.rate_scaled_budgets() {
            unit.step_budget = budget;
        }
        self.outstanding.insert(
            unit.id,
            Outstanding {
                variant: unit.variant,
                last_best: u64::MAX,
                stall_count: 0,
                unit: unit.clone(),
            },
        );
        Some(unit)
    }

    /// The rate estimate used for migration decisions (reads the cache).
    fn rate_estimate(&self, client: u64) -> Option<f64> {
        self.clients.get(&client)?.estimate
    }

    fn pool_median_rate(&self) -> Option<f64> {
        self.estimates.median()
    }

    /// Forget clients that have not reported recently: churned hosts never
    /// come back under the same address, and a 12-hour run would otherwise
    /// accumulate thousands of dead entries that every migration decision
    /// has to scan.
    fn purge_stale_clients(&mut self, now: SimTime) {
        const STALE: SimDuration = SimDuration::from_secs(600);
        let estimates = &mut self.estimates;
        self.clients.retain(|_, rec| {
            let keep = now.since(rec.last_seen) <= STALE;
            if let (false, Some(est)) = (keep, rec.estimate) {
                estimates.remove(est);
            }
            keep
        });
    }

    /// `report.rate` must already have passed [`rate_is_sane`].
    fn handle_report(&mut self, now: SimTime, report: ProgressReport) -> Directive {
        let rec = self
            .clients
            .entry(report.client)
            .or_insert_with(|| ClientRecord {
                rates: ForecasterSet::standard(),
                estimate: None,
                baseline: report.rate,
                last_seen: now,
            });
        rec.rates.update(report.rate);
        rec.last_seen = now;
        rec.baseline = (rec.baseline * 0.995).max(report.rate);
        let estimate = if self.cfg.use_forecasts {
            rec.rates.predict().map(|f| f.value)
        } else {
            Some(report.rate)
        };
        if let Some(new) = estimate {
            if let Some(old) = rec.estimate.replace(new) {
                self.estimates.remove(old);
            }
            self.estimates.insert(new);
        }
        let (est, baseline) = (rec.estimate, rec.baseline);
        self.reports_since_purge += 1;
        if self.reports_since_purge >= 256 {
            self.reports_since_purge = 0;
            self.purge_stale_clients(now);
        }
        let median = self.pool_median_rate();

        if !self.outstanding.contains_key(&report.unit_id) {
            // Unknown unit (scheduler restarted, a stale checkpoint
            // resumed, or the unit was already migrated): put the client
            // back to work.
            self.issued_unknown += 1;
            return Directive {
                kind: DirectiveKind::Abandon.wire_id(),
                variant: 0,
            };
        }

        // Migration: the client is running far below its own demonstrated
        // rate — an anomaly (ambient contention), not the pool's permanent
        // heterogeneity — and the pool has visibly faster capacity to move
        // the unit to.
        let migrate = match (est, median) {
            (Some(est), Some(median)) => {
                est < MIGRATION_FACTOR * baseline && median > 2.0 * est && self.clients.len() >= 3
            }
            _ => false,
        };
        if migrate {
            let out = self.outstanding.remove(&report.unit_id).expect("present");
            let remade =
                self.workload
                    .remake(&out.unit, out.variant, report.carry, self.cfg.step_budget);
            self.migration_queue.push(remade);
            self.issued_abandon += 1;
            return Directive {
                kind: DirectiveKind::Abandon.wire_id(),
                variant: 0,
            };
        }

        let out = self.outstanding.get_mut(&report.unit_id).expect("present");

        // Stall detection: no objective improvement across reports.
        if report.progress < out.last_best {
            out.last_best = report.progress;
            out.stall_count = 0;
        } else {
            out.stall_count += 1;
            if out.stall_count >= STALL_REPORTS {
                out.stall_count = 0;
                if let Some(next) = self.workload.next_variant(out.variant) {
                    out.variant = next;
                    self.issued_switch += 1;
                    return Directive {
                        kind: DirectiveKind::SwitchHeuristic.wire_id(),
                        variant: next,
                    };
                }
            }
        }
        self.issued_continue += 1;
        Directive {
            kind: DirectiveKind::Continue.wire_id(),
            variant: out.variant,
        }
    }

    fn handle_result(&mut self, result: WorkResult) {
        self.outstanding.remove(&result.unit_id);
        if !result.artifact.is_empty() {
            self.artifacts_received += 1;
        }
        self.note_best(result.progress, result.carry.clone());
        self.workload.on_result(&result);
        self.results_received += 1;
    }
}

impl Process for SchedulerServer {
    fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: Event) {
        if let Event::Started = ev {
            self.tele = Some(SchedTele::intern(ctx));
            if let Some((addr, client)) = self.gossip.as_mut() {
                let gossip_pid = ProcessId(*addr as u32);
                client.register(ctx, gossip_pid);
            }
            return;
        }
        let Some(Ok((from, pkt))) = packet_from_event(&ev) else {
            return;
        };
        // Gossip-service traffic (polls for / pushes of the best-found
        // state) is handled by the embedded client.
        if let Some((_, client)) = self.gossip.as_mut() {
            if client.handle_packet(ctx, from, &pkt) {
                let updates = client.drain_updates();
                for (stype, blob) in updates {
                    if stype == STYPE_BEST_FOUND {
                        let count = u64::MAX - blob.version;
                        let better = match &self.best_known {
                            None => true,
                            Some((cur, _)) => count < *cur,
                        };
                        if better {
                            self.best_known = Some((count, blob.data));
                        }
                    }
                }
                return;
            }
        }
        if !pkt.is_request() {
            return;
        }
        let tele = self.tele.expect("started");
        match pkt.mtype {
            scm::GET_WORK => {
                let grant = match self.grant_work(ctx.now(), from.0 as u64) {
                    Some(unit) => {
                        ctx.inc(tele.grants);
                        WorkGrant {
                            granted: true,
                            unit,
                        }
                    }
                    None => WorkGrant {
                        granted: false,
                        unit: WorkUnit::default(),
                    },
                };
                send_packet(
                    ctx,
                    from,
                    &Packet::response_to(&pkt, grant.to_wire_payload()),
                );
            }
            scm::REPORT => {
                if let Ok(report) = pkt.body::<ProgressReport>() {
                    ctx.inc(tele.reports);
                    if !rate_is_sane(report.rate) {
                        ctx.inc(tele.reports_bad_rate);
                        let keep_going = Directive {
                            kind: DirectiveKind::Continue.wire_id(),
                            variant: 0,
                        };
                        send_packet(
                            ctx,
                            from,
                            &Packet::response_to(&pkt, keep_going.to_wire_payload()),
                        );
                        return;
                    }
                    if let Some(log) = self.log_server {
                        let rec = LogRecord {
                            source: report.client,
                            category: format!("rate.{}", report.infra),
                            text: format!("unit {} best {}", report.unit_id, report.progress),
                            value: report.rate,
                        };
                        send_packet(
                            ctx,
                            ProcessId(log as u32),
                            &Packet::oneway(sm::LOG, rec.to_wire_payload()),
                        );
                    }
                    let unit_id = report.unit_id;
                    ctx.span_enter(tele.decide_span, unit_id);
                    let directive = self.handle_report(ctx.now(), report);
                    ctx.span_exit(tele.decide_span, unit_id);
                    send_packet(
                        ctx,
                        from,
                        &Packet::response_to(&pkt, directive.to_wire_payload()),
                    );
                }
            }
            scm::RESULT => {
                if let Ok(result) = pkt.body::<WorkResult>() {
                    ctx.inc(tele.results);
                    self.handle_result(result);
                    send_packet(ctx, from, &Packet::response_to(&pkt, Vec::new()));
                }
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ew_workload::{DagConfig, FaasConfig};
    use proptest::prelude::*;

    fn report(client: u64, unit_id: u64, best: u64, rate: f64) -> ProgressReport {
        ProgressReport {
            client,
            unit_id,
            steps_done: 10,
            ops_done: 1000,
            progress: best,
            rate,
            carry: vec![9],
            infra: "unix".into(),
        }
    }

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn fresh_units_rotate_heuristics_and_ids() {
        let mut s = SchedulerServer::new(SchedulerConfig::default());
        let a = s.grant_work(t(0), 1).unwrap();
        let b = s.grant_work(t(0), 2).unwrap();
        let c = s.grant_work(t(0), 3).unwrap();
        assert_eq!((a.id, b.id, c.id), (1, 2, 3));
        assert_eq!(a.variant, 1); // mix[1 % 3]
        assert_eq!(b.variant, 2);
        assert_eq!(c.variant, 0);
        assert_eq!(s.outstanding_count(), 3);
        assert_ne!(a.seed, b.seed);
    }

    #[test]
    fn improving_clients_told_to_continue() {
        let mut s = SchedulerServer::new(SchedulerConfig::default());
        let u = s.grant_work(t(0), 1).unwrap();
        for best in [100, 90, 80, 70] {
            let d = s.handle_report(t(1), report(1, u.id, best, 1e6));
            assert_eq!(DirectiveKind::from_wire_id(d.kind), DirectiveKind::Continue);
        }
        assert_eq!(s.issued_continue, 4);
    }

    #[test]
    fn stalled_clients_told_to_switch_heuristic() {
        let mut s = SchedulerServer::new(SchedulerConfig::default());
        let u = s.grant_work(t(0), 1).unwrap();
        let start_v = u.variant;
        s.handle_report(t(1), report(1, u.id, 50, 1e6));
        // Three reports with no improvement → switch.
        let mut kinds = Vec::new();
        for _ in 0..3 {
            let d = s.handle_report(t(2), report(1, u.id, 50, 1e6));
            kinds.push(DirectiveKind::from_wire_id(d.kind));
        }
        assert_eq!(
            kinds,
            vec![
                DirectiveKind::Continue,
                DirectiveKind::Continue,
                DirectiveKind::SwitchHeuristic
            ]
        );
        assert_eq!(s.issued_switch, 1);
        // The switched variant differs from the original.
        let d = s.handle_report(t(3), report(1, u.id, 50, 1e6));
        let _ = d;
        assert_ne!(s.outstanding.get(&u.id).map(|o| o.variant), Some(start_v));
    }

    #[test]
    fn anomalously_slow_client_is_migrated_and_unit_reassigned_with_graph() {
        let mut s = SchedulerServer::new(SchedulerConfig::default());
        let u1 = s.grant_work(t(0), 1).unwrap();
        let u2 = s.grant_work(t(0), 2).unwrap();
        let u3 = s.grant_work(t(0), 3).unwrap();
        // All three clients demonstrate ~1e7 ops/s, so each one's baseline
        // is established high.
        for _ in 0..10 {
            s.handle_report(t(1), report(1, u1.id, 100, 1e7));
            s.handle_report(t(1), report(2, u2.id, 100, 1e7));
            s.handle_report(t(1), report(3, u3.id, 100, 1e7));
        }
        // Client 3 collapses to 1e3 (its host got reclaimed-by-load): a
        // clear anomaly against its own baseline. A couple of reports let
        // the forecast track the collapse.
        let slow_carry = report(3, u3.id, 100, 1e3).carry;
        let mut last = Directive {
            kind: 0,
            variant: 0,
        };
        for _ in 0..12 {
            last = s.handle_report(t(2), report(3, u3.id, 100, 1e3));
            if DirectiveKind::from_wire_id(last.kind) == DirectiveKind::Abandon {
                break;
            }
        }
        assert_eq!(
            DirectiveKind::from_wire_id(last.kind),
            DirectiveKind::Abandon
        );
        assert_eq!(s.migration_queue_len(), 1);
        // Next requester inherits the unit, resume state and all.
        let migrated = s.grant_work(t(3), 4).unwrap();
        assert_eq!(migrated.id, u3.id);
        assert_eq!(migrated.payload, slow_carry);
        assert_eq!(s.migration_queue_len(), 0);
    }

    #[test]
    fn permanently_slow_client_is_not_migrated() {
        // A browser applet is slow by nature, not anomalously: it keeps
        // its work (the Grid uses *everything*, §2).
        let mut s = SchedulerServer::new(SchedulerConfig::default());
        let u1 = s.grant_work(t(0), 1).unwrap();
        let u2 = s.grant_work(t(0), 2).unwrap();
        let u3 = s.grant_work(t(0), 3).unwrap();
        for _ in 0..10 {
            s.handle_report(t(1), report(1, u1.id, 100, 1e8));
            s.handle_report(t(1), report(2, u2.id, 100, 1e8));
            let d = s.handle_report(t(1), report(3, u3.id, 100, 1e5));
            // Stalled progress may earn a heuristic switch, but never a
            // migration: slow-by-nature is not slow-by-anomaly.
            assert_ne!(
                DirectiveKind::from_wire_id(d.kind),
                DirectiveKind::Abandon,
                "steady slow client keeps its unit"
            );
        }
        assert_eq!(s.issued_abandon, 0);
    }

    #[test]
    fn unit_budgets_scale_with_client_rate() {
        let mut s = SchedulerServer::new(SchedulerConfig::default());
        let u1 = s.grant_work(t(0), 1).unwrap();
        let u2 = s.grant_work(t(0), 2).unwrap();
        for _ in 0..5 {
            s.handle_report(t(1), report(1, u1.id, 100, 1e8));
            s.handle_report(t(1), report(2, u2.id, 100, 1e5));
        }
        let fast_unit = s.grant_work(t(2), 1).unwrap();
        let slow_unit = s.grant_work(t(2), 2).unwrap();
        assert!(
            fast_unit.step_budget >= 15 * slow_unit.step_budget,
            "budgets track the 1000x rate spread (clamped at 0.02 and the \
             100-step floor): {} vs {}",
            fast_unit.step_budget,
            slow_unit.step_budget
        );
    }

    #[test]
    fn last_value_baseline_skips_forecasting() {
        let cfg = SchedulerConfig {
            use_forecasts: false,
            ..SchedulerConfig::default()
        };
        let mut s = SchedulerServer::new(cfg);
        let u = s.grant_work(t(0), 1).unwrap();
        s.handle_report(t(1), report(1, u.id, 100, 5e6));
        assert_eq!(s.rate_estimate(1), Some(5e6), "exactly the last report");
        // One wild sample fully determines the estimate (the weakness the
        // paper's forecast-driven design avoids).
        s.handle_report(t(2), report(1, u.id, 90, 1.0));
        assert_eq!(s.rate_estimate(1), Some(1.0));
    }

    #[test]
    fn forecast_estimate_resists_one_wild_sample() {
        let mut s = SchedulerServer::new(SchedulerConfig::default());
        let u = s.grant_work(t(0), 1).unwrap();
        // A realistically noisy rate stream: median-family forecasters win
        // the battery here, which is what buys glitch robustness.
        for i in 0..30 {
            let rate = if i % 2 == 0 { 0.9e6 } else { 1.1e6 };
            s.handle_report(t(1), report(1, u.id, 100, rate));
        }
        s.handle_report(t(2), report(1, u.id, 90, 1.0)); // glitch
        let est = s.rate_estimate(1).unwrap();
        assert!(
            est > 1e5,
            "forecast should shrug off a single glitch, got {est}"
        );
    }

    #[test]
    fn results_and_artifacts_collected() {
        let mut s = SchedulerServer::new(SchedulerConfig::default());
        let u = s.grant_work(t(0), 1).unwrap();
        s.handle_result(WorkResult {
            unit_id: u.id,
            steps: 100,
            ops: 1_000,
            progress: 0,
            artifact: vec![1, 2],
            carry: vec![1, 2],
        });
        assert_eq!(s.results_received, 1);
        assert_eq!(s.artifacts_received, 1);
        assert_eq!(s.outstanding_count(), 0);
    }

    #[test]
    fn report_for_unknown_unit_gets_abandon() {
        let mut s = SchedulerServer::new(SchedulerConfig::default());
        let d = s.handle_report(t(0), report(1, 999, 5, 1e6));
        assert_eq!(DirectiveKind::from_wire_id(d.kind), DirectiveKind::Abandon);
    }

    #[test]
    fn dag_workload_gates_grants_on_dependencies() {
        let mut s = SchedulerServer::new(SchedulerConfig {
            workload: WorkloadSpec::Dag(DagConfig {
                tasks: 6,
                layers: 2,
                fan_in: 2,
                min_steps: 100,
                max_steps: 100,
                seed: 1,
                reissue_after: SimDuration::from_secs(600),
            }),
            ..SchedulerConfig::default()
        });
        // Layer 0 has three tasks; once they are outstanding the server
        // answers "no work" instead of inventing units.
        let mut granted = Vec::new();
        while let Some(u) = s.grant_work(t(0), 1) {
            granted.push(u);
        }
        assert_eq!(granted.len(), 3, "only the root layer is ready");
        // Budgets come from the task cost model, not rate scaling.
        assert!(granted.iter().all(|u| u.step_budget == 100));
        // Completing a root task unlocks nothing until all preds done;
        // completing all three unlocks layer 1.
        for u in &granted {
            s.handle_result(WorkResult {
                unit_id: u.id,
                steps: 100,
                ops: 1000,
                progress: 1,
                artifact: vec![],
                carry: vec![],
            });
        }
        assert_eq!(s.workload_progress(), Some(0.5));
        assert!(s.grant_work(t(1), 2).is_some(), "layer 1 unlocked");
    }

    #[test]
    fn faas_workload_answers_idle_until_arrivals() {
        let mut s = SchedulerServer::new(SchedulerConfig {
            workload: WorkloadSpec::Faas(FaasConfig::default()),
            ..SchedulerConfig::default()
        });
        assert!(
            s.grant_work(t(0), 1).is_none(),
            "no invocations have arrived at t=0"
        );
        let u = s.grant_work(t(1800), 1).unwrap();
        assert_eq!(u.arg1, 1, "first grant to a client is cold");
        let v = s.grant_work(t(1800), 1).unwrap();
        assert_eq!(v.arg1, 0, "second grant is warm");
        assert!(v.step_budget < u.step_budget);
    }

    /// What `pool_median_rate` did before the table was kept sorted:
    /// collect every estimate, sort, take `[len / 2]`.
    fn collect_and_sort_median(values: impl Iterator<Item = f64>) -> Option<f64> {
        let mut rates: Vec<f64> = values.collect();
        if rates.is_empty() {
            return None;
        }
        rates.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        Some(rates[rates.len() / 2])
    }

    proptest! {
        /// Random report / purge sequences over a small client set (so
        /// updates and duplicate rates are common): the incrementally
        /// sorted table yields the collect-and-sort median bit for bit, in
        /// both estimate arms, through inserts, updates and purges,
        /// including the empty and `len < 3` tables.
        #[test]
        fn pool_median_equals_collect_and_sort_oracle(
            use_forecasts: bool,
            ops in collection::vec(
                (
                    0u64..10,
                    prop_oneof![Just(0.0), Just(1e6), Just(2.5e6), 0.0f64..1e9],
                    0u64..400,
                    0u8..8,
                ),
                1..200,
            ),
        ) {
            let mut s = SchedulerServer::new(SchedulerConfig {
                use_forecasts,
                ..SchedulerConfig::default()
            });
            // Independent model of the last-value arm: client -> (rate, seen).
            let mut model: FxHashMap<u64, (f64, SimTime)> = FxHashMap::default();
            let mut now = SimTime::ZERO;
            prop_assert_eq!(s.pool_median_rate(), None);
            for (client, rate, dt, kind) in ops {
                now += SimDuration::from_secs(dt);
                if kind == 0 {
                    s.purge_stale_clients(now);
                    model.retain(|_, (_, seen)| now.since(*seen) <= SimDuration::from_secs(600));
                } else {
                    s.handle_report(now, report(client, 999, 5, rate));
                    model.insert(client, (rate, now));
                }
                let got = s.pool_median_rate().map(f64::to_bits);
                let oracle = collect_and_sort_median(s.clients.values().filter_map(|r| r.estimate));
                prop_assert_eq!(got, oracle.map(f64::to_bits));
                prop_assert_eq!(
                    s.estimates.sorted.len(),
                    s.clients.values().filter(|r| r.estimate.is_some()).count()
                );
                prop_assert_eq!(s.clients.len(), model.len());
                if !use_forecasts {
                    let modelled = collect_and_sort_median(model.values().map(|&(r, _)| r));
                    prop_assert_eq!(got, modelled.map(f64::to_bits));
                }
            }
        }
    }

    /// Sends crafted `REPORT` requests and keeps the directives it gets back.
    struct HostileReporter {
        sched: ProcessId,
        rates: Vec<f64>,
        replies: Vec<Directive>,
    }

    impl Process for HostileReporter {
        fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: Event) {
            match &ev {
                Event::Started => {
                    for (i, &rate) in self.rates.iter().enumerate() {
                        let body = report(ctx.me().0 as u64, 999, 5, rate).to_wire();
                        send_packet(
                            ctx,
                            self.sched,
                            &Packet::request(scm::REPORT, i as u64, body),
                        );
                    }
                }
                Event::Message { .. } => {
                    if let Some(Ok((_, pkt))) = packet_from_event(&ev) {
                        self.replies
                            .push(pkt.body::<Directive>().expect("a directive"));
                    }
                }
                _ => {}
            }
        }
    }

    #[test]
    fn reports_with_hostile_rates_are_answered_and_feed_no_table() {
        use ew_sim::{HostSpec, HostTable, NetModel, Sim, SiteSpec};
        let mut net = NetModel::new(0.0);
        let mut hosts = HostTable::new();
        let site = net.add_site(SiteSpec::simple(
            "s",
            SimDuration::from_millis(5),
            1.25e6,
            0.0,
        ));
        let h = hosts.add(HostSpec::dedicated("h", site, 1e8));
        let mut sim = Sim::new(net, hosts, 1);
        let sched = sim.spawn(
            "sched",
            h,
            Box::new(SchedulerServer::new(SchedulerConfig::default())),
        );
        let bad = vec![f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -1.0, -0.0];
        let hostile = sim.spawn(
            "hostile",
            h,
            Box::new(HostileReporter {
                sched,
                rates: bad.clone(),
                replies: Vec::new(),
            }),
        );
        sim.run_until(t(10));
        let replies = sim
            .with_process::<HostileReporter, _>(hostile, |p| p.replies.clone())
            .unwrap();
        assert_eq!(replies.len(), bad.len(), "every request is answered");
        for d in replies {
            assert_eq!(DirectiveKind::from_wire_id(d.kind), DirectiveKind::Continue);
        }
        assert_eq!(sim.metrics().counter("sched.reports"), bad.len() as f64);
        assert_eq!(
            sim.metrics().counter("sched.reports_bad_rate"),
            bad.len() as f64
        );
        sim.with_process::<SchedulerServer, _>(sched, |s| {
            assert_eq!(s.pool_median_rate(), None);
            assert!(s.clients.is_empty() && s.estimates.sorted.is_empty());
            assert_eq!(s.issued_unknown, 0, "rejected before the unit lookup");
        })
        .unwrap();

        // A sane rate from the same sender is taken as usual.
        let ok = sim.spawn(
            "ok",
            h,
            Box::new(HostileReporter {
                sched,
                rates: vec![1e6],
                replies: Vec::new(),
            }),
        );
        sim.run_until(t(20));
        assert_eq!(
            sim.metrics().counter("sched.reports_bad_rate"),
            bad.len() as f64
        );
        sim.with_process::<SchedulerServer, _>(sched, |s| {
            assert_eq!(s.pool_median_rate(), Some(1e6));
            assert_eq!(s.rate_estimate(ok.0 as u64), Some(1e6));
        })
        .unwrap();
    }
}
