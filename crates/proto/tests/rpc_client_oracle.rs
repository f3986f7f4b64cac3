//! Oracle test for [`RpcClient`]: the client-side RPC glue the compute
//! client and the Gossip server each carried before — `RpcTracker` +
//! boxed `TimeoutPolicy` + `Option<AdaptiveRetry>` + `Vec<Deferred>`, the
//! `begin` / `begin_capped` fork, the adaptive and the static expiry
//! handler, `flush_deferred` — is kept here as the reference
//! ([`ParentGlue`]), and a service written against `RpcClient`
//! ([`NewGlue`]) must agree with it observation for observation under
//! random interleavings of begin / complete / sweep / acquire: correlation
//! ids, armed deadlines, verdicts, resend instants, breaker transitions,
//! the `rpc.retries` / `rpc.breaker_open` counters. Every simulated
//! fingerprint hangs off that sequence.
//!
//! The same run asserts, on the `RpcClient` side, the bounds ROADMAP item 2
//! wants checked in every campaign cell: attempts within the retry budget,
//! capped deadlines within `now + cap`, forecast time-outs inside
//! `[min, max]`, no context both deferred and in flight, and conservation
//! (`gave up + completed + in flight + deferred = begun`).

use std::collections::BTreeSet;

use ew_forecast::ForecastTimeout;
use ew_proto::{
    AdaptiveRetry, BreakerConfig, EventTag, Pending, RetryConfig, RetryDecision, RetryTele,
    RpcClient, RpcTracker, StaticTimeout, TimeoutPolicy, Verdict,
};
use ew_sim::{
    Ctx, Event, HostSpec, HostTable, NetModel, Process, Sim, SimDuration, SimTime, SiteSpec, SpanId,
};
use proptest::prelude::*;

const PEERS: u64 = 3;

/// Request kinds, standing in for the compute client's: `FAILOVER` is
/// re-begun against another peer when the layer gives up (`GetWork`,
/// `Result`), `PERIODIC` is never resent (`Report`), `DROP` is resent
/// within the budget and then abandoned (`Store`, `Checkpoint`, a Gossip
/// poll).
const FAILOVER: u16 = 0;
const PERIODIC: u16 = 1;
const DROP: u16 = 2;

#[derive(Clone, Copy, Debug)]
enum Op {
    Begin {
        peer: u64,
        kind: u16,
    },
    /// Complete the `nth` in-flight request (correlation-id order); with
    /// nothing in flight, an id that was never issued.
    Complete {
        nth: usize,
    },
    Sweep,
    /// The Gossip poll round's breaker probe.
    Acquire {
        peer: u64,
    },
}

/// One cell of the arm matrix.
#[derive(Clone, Copy, Debug)]
struct Arm {
    /// `None`: the §2.2 static baseline.
    retry: Option<(RetryConfig, BreakerConfig)>,
    cap: Option<SimDuration>,
    /// Forecast-driven time-outs, or a fixed 10 s.
    forecast: bool,
    jitter_seed: u64,
}

const FIXED_TIMEOUT: StaticTimeout = StaticTimeout(SimDuration::from_secs(10));

/// What either glue does, as seen from outside.
#[derive(Clone, Debug, PartialEq)]
enum Obs {
    Begun {
        id: u32,
        corr: u64,
        deadline: SimTime,
    },
    Completed {
        corr: u64,
        id: u32,
        rtt: SimDuration,
    },
    Unknown {
        corr: u64,
    },
    Expired {
        corr: u64,
        id: u32,
        attempts: u32,
    },
    Deferred {
        id: u32,
        opened: bool,
    },
    GaveUp {
        id: u32,
        opened: bool,
    },
    Resent {
        id: u32,
        corr: u64,
        attempts: u32,
        deadline: SimTime,
    },
    Acquire {
        peer: u64,
        granted: bool,
    },
    /// After every op: requests in flight, resends deferred, open circuits.
    State {
        in_flight: usize,
        deferred: usize,
        open: Vec<bool>,
    },
}

// ---- the parent's glue, transcribed ------------------------------------

struct ReqCtx {
    id: u32,
    attempts: u32,
}

struct Deferred {
    due: SimTime,
    peer: u64,
    mtype: u16,
    id: u32,
    attempts: u32,
}

/// `RpcTracker::begin_capped`'s clamp (`policy.timeout_for(tag).min(cap)`),
/// as a policy adapter now that the tracker method is gone.
struct Capped<'a>(&'a mut dyn TimeoutPolicy, SimDuration);

impl TimeoutPolicy for Capped<'_> {
    fn timeout_for(&mut self, tag: EventTag) -> SimDuration {
        self.0.timeout_for(tag).min(self.1)
    }
    fn observe_rtt(&mut self, tag: EventTag, rtt: SimDuration) {
        self.0.observe_rtt(tag, rtt);
    }
    fn observe_timeout(&mut self, tag: EventTag) {
        self.0.observe_timeout(tag);
    }
}

struct ParentGlue {
    rpc: RpcTracker<ReqCtx>,
    policy: Box<dyn TimeoutPolicy + Send>,
    adaptive: Option<AdaptiveRetry>,
    cap: Option<SimDuration>,
    deferred: Vec<Deferred>,
    /// The compute client's `sched_idx`.
    rotation: u64,
    next_id: u32,
    in_flight: BTreeSet<u64>,
    retries: u64,
    breaker_opens: u64,
    log: Vec<Obs>,
}

impl ParentGlue {
    fn new(arm: Arm) -> Self {
        ParentGlue {
            rpc: RpcTracker::new(),
            policy: if arm.forecast {
                Box::new(ForecastTimeout::wan_default())
            } else {
                Box::new(FIXED_TIMEOUT)
            },
            adaptive: arm
                .retry
                .map(|(retry, breaker)| AdaptiveRetry::new(retry, breaker, arm.jitter_seed)),
            cap: arm.cap,
            deferred: Vec::new(),
            rotation: 0,
            next_id: 0,
            in_flight: BTreeSet::new(),
            retries: 0,
            breaker_opens: 0,
            log: Vec::new(),
        }
    }

    fn pick_peer(&self, now: SimTime) -> u64 {
        if let Some(a) = self.adaptive.as_ref() {
            for i in 0..PEERS {
                let peer = (self.rotation + i) % PEERS;
                if !a.breaker.is_open(peer, now) {
                    return peer;
                }
            }
        }
        self.rotation % PEERS
    }

    /// `send_request`, with its `begin` / `begin_capped` fork. Returns the
    /// correlation id and the deadline it armed.
    fn send_request(
        &mut self,
        now: SimTime,
        to: u64,
        mtype: u16,
        id: u32,
        attempts: u32,
    ) -> (u64, SimTime) {
        let tag = EventTag { peer: to, mtype };
        let req = ReqCtx { id, attempts };
        let corr = match self.cap {
            Some(cap) => {
                let mut capped = Capped(self.policy.as_mut(), cap);
                self.rpc.begin(tag, now, &mut capped, req)
            }
            None => self.rpc.begin(tag, now, self.policy.as_mut(), req),
        };
        self.in_flight.insert(corr);
        // The tracker keeps deadlines to itself; nothing has fed the policy
        // since `begin` asked it, so asking again reads the same value.
        let timeout = self.policy.timeout_for(tag);
        let deadline = now + self.cap.map_or(timeout, |cap| timeout.min(cap));
        (corr, deadline)
    }

    fn begin(&mut self, now: SimTime, peer: u64, kind: u16) {
        let id = self.next_id;
        self.next_id += 1;
        let (corr, deadline) = self.send_request(now, peer, kind, id, 1);
        self.log.push(Obs::Begun { id, corr, deadline });
    }

    fn complete(&mut self, now: SimTime, corr: u64) {
        let Some((pending, rtt)) = self.rpc.complete(corr, now, self.policy.as_mut()) else {
            self.log.push(Obs::Unknown { corr });
            return;
        };
        if let Some(a) = self.adaptive.as_mut() {
            a.on_success(pending.tag.peer);
        }
        self.in_flight.remove(&corr);
        let id = pending.context.id;
        self.log.push(Obs::Completed { corr, id, rtt });
    }

    fn acquire(&mut self, now: SimTime, peer: u64) {
        let granted = match self.adaptive.as_mut() {
            Some(a) => a.try_acquire(peer, now),
            None => true,
        };
        self.log.push(Obs::Acquire { peer, granted });
    }

    fn sweep(&mut self, now: SimTime) {
        let expired = self.rpc.expire(now, self.policy.as_mut());
        for pending in expired {
            self.in_flight.remove(&pending.corr_id);
            self.log.push(Obs::Expired {
                corr: pending.corr_id,
                id: pending.context.id,
                attempts: pending.context.attempts,
            });
            if self.adaptive.is_some() {
                self.on_expiry_adaptive(now, pending);
            } else {
                self.on_expiry_static(now, pending);
            }
        }
        self.flush_deferred(now);
    }

    fn on_expiry_adaptive(&mut self, now: SimTime, pending: Pending<ReqCtx>) {
        let peer = pending.tag.peer;
        let ReqCtx { id, attempts } = pending.context;
        let adaptive = self.adaptive.as_mut().expect("adaptive arm");
        let (decision, opened) = adaptive.on_timeout(peer, attempts, now);
        if opened {
            self.breaker_opens += 1;
        }
        match (pending.tag.mtype, decision) {
            (PERIODIC, _) => {
                // Never resent; the time-out still fed the breaker above.
                self.log.push(Obs::GaveUp { id, opened });
            }
            (mtype, RetryDecision::Resend { after }) => {
                self.retries += 1;
                self.deferred.push(Deferred {
                    due: now + after,
                    peer,
                    mtype,
                    id,
                    attempts: attempts + 1,
                });
                self.log.push(Obs::Deferred { id, opened });
            }
            (FAILOVER, RetryDecision::GiveUp) => {
                self.log.push(Obs::GaveUp { id, opened });
                self.rotation += 1;
                let to = self.pick_peer(now);
                self.begin(now, to, FAILOVER);
            }
            (_, RetryDecision::GiveUp) => {
                self.log.push(Obs::GaveUp { id, opened });
            }
        }
    }

    fn on_expiry_static(&mut self, now: SimTime, pending: Pending<ReqCtx>) {
        let id = pending.context.id;
        self.log.push(Obs::GaveUp { id, opened: false });
        match pending.tag.mtype {
            FAILOVER => {
                self.rotation += 1;
                let to = self.rotation % PEERS;
                self.begin(now, to, FAILOVER);
            }
            PERIODIC => self.rotation += 1,
            _ => {}
        }
    }

    fn flush_deferred(&mut self, now: SimTime) {
        if self.deferred.is_empty() {
            return;
        }
        let (due, later): (Vec<Deferred>, Vec<Deferred>) =
            self.deferred.drain(..).partition(|d| d.due <= now);
        self.deferred = later;
        for d in due {
            let (corr, deadline) = self.send_request(now, d.peer, d.mtype, d.id, d.attempts);
            self.log.push(Obs::Resent {
                id: d.id,
                corr,
                attempts: d.attempts,
                deadline,
            });
        }
    }

    fn state(&self, now: SimTime) -> Obs {
        Obs::State {
            in_flight: self.rpc.in_flight(),
            deferred: self.deferred.len(),
            open: (0..PEERS)
                .map(|p| {
                    self.adaptive
                        .as_ref()
                        .is_some_and(|a| a.breaker.is_open(p, now))
                })
                .collect(),
        }
    }
}

// ---- the same service, written against `RpcClient` ----------------------

struct NewGlue {
    rpc: RpcClient<u32>,
    arm: Arm,
    rotation: u64,
    next_id: u32,
    /// Correlation id → context id of what is in flight.
    in_flight: Vec<(u64, u32)>,
    deferred_ids: BTreeSet<u32>,
    begun: u64,
    completed: u64,
    gave_up: u64,
    log: Vec<Obs>,
}

impl NewGlue {
    fn new(arm: Arm) -> Self {
        let mut rpc = if arm.forecast {
            RpcClient::new(ForecastTimeout::wan_default(), arm.retry, arm.cap)
        } else {
            RpcClient::new(FIXED_TIMEOUT, arm.retry, arm.cap)
        };
        if arm.retry.is_some() {
            rpc.seed_jitter(arm.jitter_seed);
        }
        NewGlue {
            rpc,
            arm,
            rotation: 0,
            next_id: 0,
            in_flight: Vec::new(),
            deferred_ids: BTreeSet::new(),
            begun: 0,
            completed: 0,
            gave_up: 0,
            log: Vec::new(),
        }
    }

    fn pick_peer(&self, now: SimTime) -> u64 {
        (0..PEERS)
            .map(|i| (self.rotation + i) % PEERS)
            .find(|&peer| !self.rpc.is_open(peer, now))
            .unwrap_or(self.rotation % PEERS)
    }

    /// The per-request bounds, checked as each deadline is armed.
    fn armed(&mut self, now: SimTime, corr: u64, id: u32) -> SimTime {
        let deadline = self.rpc.deadline(corr).expect("just armed");
        let timeout = deadline.since(now);
        if let Some(cap) = self.arm.cap {
            assert!(timeout <= cap, "armed {timeout:?} past the {cap:?} cap");
        }
        if self.arm.forecast {
            let bounds = ForecastTimeout::wan_default();
            let floor = self.arm.cap.map_or(bounds.min, |cap| bounds.min.min(cap));
            assert!(
                floor <= timeout && timeout <= bounds.max,
                "forecast time-out {timeout:?} outside [{floor:?}, {:?}]",
                bounds.max
            );
        }
        assert!(
            !self.deferred_ids.contains(&id),
            "request {id} is in flight and deferred at once"
        );
        self.in_flight.push((corr, id));
        deadline
    }

    fn begin(&mut self, now: SimTime, peer: u64, kind: u16) {
        let id = self.next_id;
        self.next_id += 1;
        self.begun += 1;
        let corr = self.rpc.begin(EventTag { peer, mtype: kind }, now, id);
        let deadline = self.armed(now, corr, id);
        self.log.push(Obs::Begun { id, corr, deadline });
    }

    fn complete(&mut self, now: SimTime, corr: u64) {
        let Some((_tag, id, rtt)) = self.rpc.complete(corr, now) else {
            self.log.push(Obs::Unknown { corr });
            return;
        };
        self.in_flight.retain(|&(c, _)| c != corr);
        self.completed += 1;
        self.log.push(Obs::Completed { corr, id, rtt });
    }

    fn acquire(&mut self, now: SimTime, peer: u64) {
        let granted = self.rpc.try_acquire(peer, now);
        self.log.push(Obs::Acquire { peer, granted });
    }

    fn sweep(&mut self, ctx: &mut Ctx<'_>, span: SpanId, tele: RetryTele) {
        let now = ctx.now();
        let budget = self.arm.retry.map(|(retry, _)| retry.budget);
        for e in self.rpc.take_expired(ctx, span) {
            self.in_flight.retain(|&(c, _)| c != e.corr_id);
            let (id, kind, peer) = (e.context, e.tag.mtype, e.tag.peer);
            if let Some(budget) = budget {
                assert!(e.attempts() <= budget, "request {id} sent past its budget");
            }
            self.log.push(Obs::Expired {
                corr: e.corr_id,
                id,
                attempts: e.attempts(),
            });
            let was_open = self.rpc.is_open(peer, now);
            let verdict = self.rpc.verdict(ctx, tele, e, kind != PERIODIC);
            // The breaker's cool-down is never zero here, so a circuit this
            // time-out opened reads open now and did not before.
            let opened = !was_open && self.rpc.is_open(peer, now);
            match verdict {
                Verdict::Deferred => {
                    self.deferred_ids.insert(id);
                    self.log.push(Obs::Deferred { id, opened });
                }
                Verdict::GaveUp(id) => {
                    self.gave_up += 1;
                    self.log.push(Obs::GaveUp { id, opened });
                    match kind {
                        FAILOVER => {
                            self.rotation += 1;
                            let to = self.pick_peer(now);
                            self.begin(now, to, FAILOVER);
                        }
                        PERIODIC if self.arm.retry.is_none() => self.rotation += 1,
                        _ => {}
                    }
                }
            }
        }
        for resend in self.rpc.take_due(now) {
            let (id, attempts) = (resend.context, resend.attempts());
            if let Some(budget) = budget {
                assert!(
                    attempts <= budget,
                    "resend {attempts} of {id} past its budget"
                );
            }
            assert!(
                self.deferred_ids.remove(&id),
                "{id} resent but never deferred"
            );
            let corr = self.rpc.resend(now, resend);
            let deadline = self.armed(now, corr, id);
            self.log.push(Obs::Resent {
                id,
                corr,
                attempts,
                deadline,
            });
        }
    }

    fn state(&self, now: SimTime) -> Obs {
        assert_eq!(self.rpc.in_flight(), self.in_flight.len());
        assert_eq!(self.rpc.deferred(), self.deferred_ids.len());
        assert_eq!(
            self.rpc.idle(),
            self.in_flight.is_empty() && self.deferred_ids.is_empty()
        );
        assert_eq!(
            self.gave_up
                + self.completed
                + self.in_flight.len() as u64
                + self.deferred_ids.len() as u64,
            self.begun,
            "a request was lost or counted twice"
        );
        Obs::State {
            in_flight: self.rpc.in_flight(),
            deferred: self.rpc.deferred(),
            open: (0..PEERS).map(|p| self.rpc.is_open(p, now)).collect(),
        }
    }
}

// ---- driver -------------------------------------------------------------

/// Runs one script through both glues in lockstep, one op per timer.
struct Lockstep {
    script: Vec<(u64, Op)>,
    next: usize,
    parent: ParentGlue,
    new: NewGlue,
    tele: Option<(SpanId, RetryTele)>,
    /// The first op after which the two logs differed.
    diverged: Option<String>,
}

impl Lockstep {
    fn arm_next(&self, ctx: &mut Ctx<'_>) {
        if let Some(&(dt_ms, _)) = self.script.get(self.next) {
            ctx.set_timer(SimDuration::from_millis(dt_ms), 0);
        }
    }

    fn step(&mut self, ctx: &mut Ctx<'_>, op: Op) {
        let now = ctx.now();
        let (span, tele) = self.tele.expect("started");
        match op {
            Op::Begin { peer, kind } => {
                self.parent.begin(now, peer, kind);
                self.new.begin(now, peer, kind);
            }
            Op::Complete { nth } => {
                let ids = &self.parent.in_flight;
                let corr = match ids.len() {
                    0 => u64::MAX,
                    n => *ids.iter().nth(nth % n).expect("in range"),
                };
                self.parent.complete(now, corr);
                self.new.complete(now, corr);
            }
            Op::Sweep => {
                self.parent.sweep(now);
                self.new.sweep(ctx, span, tele);
            }
            Op::Acquire { peer } => {
                self.parent.acquire(now, peer);
                self.new.acquire(now, peer);
            }
        }
        let state = self.parent.state(now);
        self.parent.log.push(state);
        let state = self.new.state(now);
        self.new.log.push(state);
        if self.parent.log != self.new.log {
            let at = self
                .parent
                .log
                .iter()
                .zip(&self.new.log)
                .position(|(a, b)| a != b)
                .unwrap_or(self.parent.log.len().min(self.new.log.len()));
            self.diverged = Some(format!(
                "op {} ({op:?}) at {now:?}: observation {at}: parent {:?}, RpcClient {:?}",
                self.next - 1,
                self.parent.log.get(at),
                self.new.log.get(at),
            ));
        }
    }
}

impl Process for Lockstep {
    fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: Event) {
        match ev {
            Event::Started => {
                self.tele = Some((ctx.span("proto.timeout"), RetryTele::intern(ctx)));
                self.arm_next(ctx);
            }
            Event::Timer { .. } if self.diverged.is_none() => {
                let (_, op) = self.script[self.next];
                self.next += 1;
                self.step(ctx, op);
                self.arm_next(ctx);
            }
            _ => {}
        }
    }
}

fn run(arm: Arm, script: Vec<(u64, Op)>) -> Result<(), TestCaseError> {
    let mut net = NetModel::new(0.0);
    let mut hosts = HostTable::new();
    let site = net.add_site(SiteSpec::simple(
        "s",
        SimDuration::from_millis(5),
        1.25e6,
        0.0,
    ));
    let host = hosts.add(HostSpec::dedicated("h", site, 1e8));
    let mut sim = Sim::new(net, hosts, 1);
    let end = SimDuration::from_millis(script.iter().map(|&(dt, _)| dt).sum::<u64>() + 1);
    let ops = script.len();
    let pid = sim.spawn(
        "lockstep",
        host,
        Box::new(Lockstep {
            script,
            next: 0,
            parent: ParentGlue::new(arm),
            new: NewGlue::new(arm),
            tele: None,
            diverged: None,
        }),
    );
    sim.run_until(SimTime::ZERO + end);
    let (diverged, done, retries, opens) = sim
        .with_process::<Lockstep, _>(pid, |l| {
            (
                l.diverged.clone(),
                l.next,
                l.parent.retries,
                l.parent.breaker_opens,
            )
        })
        .expect("alive");
    prop_assert!(diverged.is_none(), "{}", diverged.unwrap_or_default());
    prop_assert_eq!(done, ops, "the whole script ran");
    prop_assert_eq!(sim.metrics().counter("rpc.retries"), retries as f64);
    prop_assert_eq!(sim.metrics().counter("rpc.breaker_open"), opens as f64);
    Ok(())
}

fn begin() -> impl Strategy<Value = Op> {
    let kind = prop_oneof![Just(FAILOVER), Just(PERIODIC), Just(DROP)];
    (0..PEERS, kind).prop_map(|(peer, kind)| Op::Begin { peer, kind })
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        begin(),
        begin(),
        (0usize..8).prop_map(|nth| Op::Complete { nth }),
        Just(Op::Sweep),
        Just(Op::Sweep),
        (0..PEERS).prop_map(|peer| Op::Acquire { peer }),
    ]
}

/// Gaps from a millisecond (several ops inside one time-out) to 40 s
/// (everything in flight expires, backoffs elapse, cool-downs end).
fn gap_ms() -> impl Strategy<Value = u64> {
    prop_oneof![1u64..50, 100u64..3_000, 3_000u64..40_000]
}

fn script() -> impl Strategy<Value = Vec<(u64, Op)>> {
    collection::vec((gap_ms(), op()), 1..120)
}

fn retry() -> impl Strategy<Value = (RetryConfig, BreakerConfig)> {
    (1u32..5, 1u32..5, 1u64..40, 0u64..2).prop_map(|(budget, threshold, cooldown_s, jitter)| {
        (
            RetryConfig {
                budget,
                jitter: 0.3 * jitter as f64,
                ..RetryConfig::default()
            },
            BreakerConfig {
                threshold,
                cooldown: SimDuration::from_secs(cooldown_s),
            },
        )
    })
}

fn cap() -> impl Strategy<Value = Option<SimDuration>> {
    prop_oneof![
        Just(None),
        Just(Some(RetryConfig::default().cap)),
        (1u64..20).prop_map(|s| Some(SimDuration::from_secs(s))),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The adaptive arm, capped (the compute client) and uncapped (Gossip).
    #[test]
    fn adaptive_arm_matches_the_parent_glue(
        retry in retry(),
        cap in cap(),
        forecast: bool,
        jitter_seed: u64,
        script in script(),
    ) {
        run(Arm { retry: Some(retry), cap, forecast, jitter_seed }, script)?;
    }

    /// The §2.2 static baseline: every expiry is a give-up, nothing is
    /// deferred, no circuit opens, no jitter is drawn.
    #[test]
    fn static_arm_matches_the_parent_glue(
        cap in cap(),
        forecast: bool,
        script in script(),
    ) {
        run(Arm { retry: None, cap, forecast, jitter_seed: 0 }, script)?;
    }
}

/// The two shipped configurations, through one outage each: the compute
/// client's defaults under its cap, and the Gossip server's two-attempt
/// budget uncapped.
#[test]
fn shipped_configurations_match_through_an_outage() {
    let outage: Vec<(u64, Op)> = (0..60)
        .flat_map(|i| {
            [
                (
                    500,
                    Op::Begin {
                        peer: i % PEERS,
                        kind: [FAILOVER, PERIODIC, DROP][i as usize % 3],
                    },
                ),
                (1_500, Op::Sweep),
            ]
        })
        .chain((0..10).flat_map(|i| {
            [
                (
                    700,
                    Op::Begin {
                        peer: i % PEERS,
                        kind: FAILOVER,
                    },
                ),
                (40, Op::Complete { nth: 0 }),
                (1_260, Op::Sweep),
                (10, Op::Acquire { peer: i % PEERS }),
            ]
        }))
        .collect();
    let client = Arm {
        retry: Some((RetryConfig::default(), BreakerConfig::default())),
        cap: Some(RetryConfig::default().cap),
        forecast: true,
        jitter_seed: 0x5EED,
    };
    let gossip = Arm {
        retry: Some((
            RetryConfig {
                base: SimDuration::from_secs(2),
                cap: SimDuration::from_secs(10),
                budget: 2,
                jitter: 0.3,
            },
            BreakerConfig::default(),
        )),
        cap: None,
        forecast: true,
        jitter_seed: 0x5EED,
    };
    for arm in [client, gossip] {
        run(arm, outage.clone()).unwrap_or_else(|e| panic!("{arm:?}: {e}"));
    }
}

/// A sweep landing exactly on a deadline expires it, and one landing
/// exactly on a backoff's end resends (random gaps almost never tie).
#[test]
fn deadline_and_backoff_boundaries_are_inclusive() {
    let arm = Arm {
        retry: Some((
            RetryConfig {
                jitter: 0.0,
                ..RetryConfig::default()
            },
            BreakerConfig::default(),
        )),
        cap: None,
        forecast: false,
        jitter_seed: 0,
    };
    let begin = Op::Begin {
        peer: 0,
        kind: DROP,
    };
    // Fixed 10 s time-out, 1 s first backoff, no jitter.
    let script = vec![(1, begin), (10_000, Op::Sweep), (1_000, Op::Sweep)];
    run(arm, script).unwrap_or_else(|e| panic!("{e}"));
}
