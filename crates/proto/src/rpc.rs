//! Request/response correlation and time-out tracking.
//!
//! The paper's servers tag each request–response pair with "an identifier
//! consisting of \[the\] address where the request was serviced, and the
//! message type of the request" (§2.2), time every exchange, and feed the
//! timings to the forecasters to *discover* time-outs dynamically. This
//! module provides the bookkeeping half: correlation-id issue, outstanding
//! request tracking, RTT measurement on completion, and expiry scanning.
//! The policy half (what time-out to use) is abstracted as
//! [`TimeoutPolicy`]; `ew-forecast` supplies the forecast-driven
//! implementation and a static one exists here for the §2.2 ablation.

use ew_sim::hashers::FxHashMap;
use ew_sim::{SimDuration, SimTime, Xoshiro256};

use crate::retry::{AdaptiveRetry, RetryConfig, RetryDecision, RetryTele};

/// A `(peer, message-type)` event class — the paper's dynamic-benchmark tag.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct EventTag {
    /// The peer the request was sent to (any stable address will do; the
    /// simulator uses process ids, TCP uses a hash of the socket address).
    pub peer: u64,
    /// The request's message type.
    pub mtype: u16,
}

/// Supplies a time-out for each event class and learns from observed RTTs.
pub trait TimeoutPolicy {
    /// Time-out to arm when sending a request in this class.
    fn timeout_for(&mut self, tag: EventTag) -> SimDuration;
    /// Feed back a completed exchange's round-trip time.
    fn observe_rtt(&mut self, tag: EventTag, rtt: SimDuration);
    /// Feed back an expiry (the request went unanswered).
    fn observe_timeout(&mut self, tag: EventTag);
}

/// The §2.2 baseline: one fixed time-out for everything, learning nothing.
/// "Using the alternative of statically determined time-outs, the system
/// frequently misjudged the availability of the different EveryWare
/// state-management servers causing needless retries and dynamic
/// reconfigurations."
#[derive(Clone, Debug)]
pub struct StaticTimeout(pub SimDuration);

impl TimeoutPolicy for StaticTimeout {
    fn timeout_for(&mut self, _tag: EventTag) -> SimDuration {
        self.0
    }
    fn observe_rtt(&mut self, _tag: EventTag, _rtt: SimDuration) {}
    fn observe_timeout(&mut self, _tag: EventTag) {}
}

/// One outstanding request.
#[derive(Clone, Debug)]
pub struct Pending<M> {
    /// Correlation id carried by the request packet.
    pub corr_id: u64,
    /// Event class of the exchange.
    pub tag: EventTag,
    /// When the request was sent.
    pub sent_at: SimTime,
    /// When it should be considered lost.
    pub deadline: SimTime,
    /// Caller context returned on completion or expiry (e.g. which work
    /// unit the request concerned).
    pub context: M,
}

/// Tracks outstanding requests for one component.
pub struct RpcTracker<M> {
    next_corr: u64,
    outstanding: FxHashMap<u64, Pending<M>>,
}

impl<M> Default for RpcTracker<M> {
    fn default() -> Self {
        RpcTracker {
            next_corr: 1,
            outstanding: FxHashMap::default(),
        }
    }
}

impl<M> RpcTracker<M> {
    /// Empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a request about to be sent; returns the correlation id to
    /// stamp on the packet. The deadline comes from the supplied policy.
    pub fn begin(
        &mut self,
        tag: EventTag,
        now: SimTime,
        policy: &mut dyn TimeoutPolicy,
        context: M,
    ) -> u64 {
        let timeout = policy.timeout_for(tag);
        self.arm(tag, now, timeout, context)
    }

    /// Register a request whose time-out the caller has already decided.
    fn arm(&mut self, tag: EventTag, now: SimTime, timeout: SimDuration, context: M) -> u64 {
        let corr_id = self.next_corr;
        self.next_corr += 1;
        self.outstanding.insert(
            corr_id,
            Pending {
                corr_id,
                tag,
                sent_at: now,
                deadline: now + timeout,
                context,
            },
        );
        corr_id
    }

    /// Record the arrival of a response. Returns the pending entry and its
    /// RTT, and reports the RTT to the policy. Late responses (after
    /// expiry was already taken) return `None` — exactly the "needless
    /// retry" case static time-outs provoke.
    pub fn complete(
        &mut self,
        corr_id: u64,
        now: SimTime,
        policy: &mut dyn TimeoutPolicy,
    ) -> Option<(Pending<M>, SimDuration)> {
        let p = self.outstanding.remove(&corr_id)?;
        let rtt = now.since(p.sent_at);
        policy.observe_rtt(p.tag, rtt);
        Some((p, rtt))
    }

    /// Remove and return every request whose deadline has passed,
    /// reporting expiries to the policy. Results are sorted by
    /// correlation id for determinism.
    ///
    /// The policy hears about each distinct [`EventTag`] **once per
    /// batch**, not once per entry. Even when every expiry is noticed at
    /// its own deadline, same-tag entries can die in one batch: a Gossip
    /// poll round polls each state type of one component at the same
    /// instant, all under the tag (component, POLL), so they share one
    /// deadline and one lost component expires them together. That is one
    /// outage; reporting it per entry would inflate an adaptive policy's
    /// time-out once per state type instead of once.
    pub fn expire(&mut self, now: SimTime, policy: &mut dyn TimeoutPolicy) -> Vec<Pending<M>> {
        // Determinism note: this is the map's only iteration that could
        // show its order, and the ids it collects are sorted before use
        // (`next_deadline` takes a `min`), so the hasher cannot reach the
        // order of expiries — the same argument `ew_sim::hashers` makes
        // for the kernel maps.
        let mut expired_ids: Vec<u64> = self
            .outstanding
            .iter()
            .filter(|(_, p)| p.deadline <= now)
            .map(|(&id, _)| id)
            .collect();
        expired_ids.sort_unstable();
        let mut reported: Vec<EventTag> = Vec::new();
        expired_ids
            .into_iter()
            .map(|id| {
                let p = self.outstanding.remove(&id).expect("listed above");
                if !reported.contains(&p.tag) {
                    reported.push(p.tag);
                    policy.observe_timeout(p.tag);
                }
                p
            })
            .collect()
    }

    /// The earliest outstanding deadline, if any — when the owner should
    /// next arm a wake-up timer.
    pub fn next_deadline(&self) -> Option<SimTime> {
        self.outstanding.values().map(|p| p.deadline).min()
    }

    /// Number of requests in flight.
    pub fn in_flight(&self) -> usize {
        self.outstanding.len()
    }
}

/// The kernel timer tag every [`RpcClient`] owner reserves for the client's
/// wake. An `Event::Timer` with this tag means "something may be due": the
/// owner answers it with the three calls of a wake (see [`RpcClient`]).
pub const RPC_WAKE: u64 = u64::MAX;

/// The one [`RPC_WAKE`] timer of an [`RpcClient`], armed at the earliest
/// instant something is due. It only ever moves earlier: a reply does not
/// cancel it (a `cancel_timer` per reply writes the kernel's cancellation
/// map on the hottest path), so a wake may find nothing due. A timer left
/// behind by a move earlier fires as such an idle wake.
struct DeadlineTimer {
    armed: Option<SimTime>,
}

impl DeadlineTimer {
    /// Make sure a wake comes at or before `at`.
    fn wake_by(&mut self, ctx: &mut ew_sim::Ctx<'_>, at: SimTime) {
        if self.armed.is_some_and(|armed| armed <= at) {
            return;
        }
        ctx.set_timer(at.since(ctx.now()), RPC_WAKE);
        self.armed = Some(at);
    }

    /// A wake is being handled at `now`: once the armed instant has come,
    /// nothing is armed any more.
    fn fired(&mut self, now: SimTime) {
        if self.armed.is_some_and(|armed| armed <= now) {
            self.armed = None;
        }
    }
}

/// What became of an expired request, as decided by [`RpcClient::verdict`].
#[derive(Debug, PartialEq, Eq)]
pub enum Verdict<C> {
    /// A resend to the same peer is queued inside the client; it comes out
    /// of [`RpcClient::take_due`] at the wake at the end of its backoff.
    Deferred,
    /// Retry budget exhausted, circuit open, request not resendable, or the
    /// static baseline: the context is the caller's again, to fail over,
    /// drop, or surface.
    GaveUp(C),
}

/// An expired request handed out by [`RpcClient::take_expired`], awaiting
/// its [`RpcClient::verdict`].
pub struct Expired<C> {
    /// Correlation id the request carried.
    pub corr_id: u64,
    /// Event class of the exchange.
    pub tag: EventTag,
    /// Caller context given to [`RpcClient::begin`].
    pub context: C,
    attempts: u32,
}

impl<C> Expired<C> {
    /// How many times the request had been sent (first send = 1).
    pub fn attempts(&self) -> u32 {
        self.attempts
    }
}

/// A deferred resend whose backoff has elapsed, handed out by
/// [`RpcClient::take_due`]; the caller rebuilds the packet body from the
/// context and passes the whole thing back to [`RpcClient::resend`].
pub struct Resend<C> {
    /// Event class to resend in (same peer, same message type).
    pub tag: EventTag,
    /// Caller context given to [`RpcClient::begin`].
    pub context: C,
    due: SimTime,
    attempts: u32,
}

impl<C> Resend<C> {
    /// Which send this will be (the first resend is attempt 2).
    pub fn attempts(&self) -> u32 {
        self.attempts
    }
}

/// The client side of a service's RPC path, in one place: correlation and
/// expiry ([`RpcTracker`]), time-out discovery ([`TimeoutPolicy`]), the
/// adaptive retry layer ([`AdaptiveRetry`]: budget, backoff, per-peer
/// breaker), each request's attempt count, and the queue of resends
/// waiting out a backoff. The compute client, the Gossip server and the NWS
/// sensor each embed one; what they keep for themselves is what a
/// [`Verdict::GaveUp`] means for each kind of request.
///
/// The client also owns *when* an expiry is noticed: one kernel timer
/// tagged [`RPC_WAKE`], armed at the earliest in-flight deadline or
/// deferred resend, so every time-out and every resend takes effect at its
/// own instant. The owner answers that timer with a wake, three calls in
/// this order: [`take_expired`], then one [`verdict`] per expiry with the
/// caller's give-up handling run *between* verdicts, then [`take_due`] +
/// [`resend`]. Verdicts are lazy because a give-up handler reads breaker
/// state ([`is_open`]) that the next verdict mutates, and begins new
/// requests.
///
/// [`take_expired`]: Self::take_expired
/// [`verdict`]: Self::verdict
/// [`take_due`]: Self::take_due
/// [`resend`]: Self::resend
/// [`is_open`]: Self::is_open
pub struct RpcClient<C> {
    tracker: RpcTracker<(C, u32)>,
    policy: Box<dyn TimeoutPolicy + Send>,
    /// `None`: the §2.2 static baseline — every expiry is `GaveUp`.
    adaptive: Option<AdaptiveRetry>,
    cap: Option<SimDuration>,
    deferred: Vec<Resend<C>>,
    wake: DeadlineTimer,
}

impl<C> RpcClient<C> {
    /// A client arming time-outs from `policy`. `retry` composes the
    /// adaptive layer on top, with a per-peer circuit breaker (`None` = the
    /// static baseline: no backoff, no breaker). `cap` bounds every armed
    /// time-out: adaptive time-outs inflate on every expiry so that slow
    /// links stop producing needless retries, but during a *partition* the
    /// same inflation delays failure detection arbitrarily (a request in
    /// flight when the cut heals can sit a full inflated time-out before
    /// its retry goes out). A caller that must never be blind for longer
    /// than one backoff passes the retry layer's ceiling here; time-outs
    /// stay adaptive below it.
    pub fn new(
        policy: impl TimeoutPolicy + Send + 'static,
        retry: Option<RetryConfig>,
        cap: Option<SimDuration>,
    ) -> Self {
        RpcClient {
            tracker: RpcTracker::new(),
            policy: Box::new(policy),
            adaptive: retry.map(|retry| AdaptiveRetry::new(retry, 0)),
            cap,
            deferred: Vec::new(),
            wake: DeadlineTimer { armed: None },
        }
    }

    /// Seed the backoff jitter stream with one draw from `rng` (owners pass
    /// their process rng at `Started`, so whole campaigns replay
    /// bit-identically). The static baseline has no jitter and leaves `rng`
    /// untouched.
    pub fn seed_jitter(&mut self, rng: &mut Xoshiro256) {
        if let Some(a) = self.adaptive.as_mut() {
            a.retry.reseed(rng.next_u64());
        }
    }

    /// Register a first send at `ctx.now()`; returns the correlation id to
    /// stamp on the packet.
    pub fn begin(&mut self, ctx: &mut ew_sim::Ctx<'_>, tag: EventTag, context: C) -> u64 {
        self.arm(ctx, tag, context, 1)
    }

    /// Register the resend of a request that came out of
    /// [`take_due`](Self::take_due); its attempt count carries over.
    pub fn resend(&mut self, ctx: &mut ew_sim::Ctx<'_>, due: Resend<C>) -> u64 {
        self.arm(ctx, due.tag, due.context, due.attempts)
    }

    fn arm(&mut self, ctx: &mut ew_sim::Ctx<'_>, tag: EventTag, context: C, attempts: u32) -> u64 {
        let timeout = self.policy.timeout_for(tag);
        let timeout = self.cap.map_or(timeout, |cap| timeout.min(cap));
        let now = ctx.now();
        self.wake.wake_by(ctx, now + timeout);
        self.tracker.arm(tag, now, timeout, (context, attempts))
    }

    /// Record the arrival of a response: the RTT feeds the policy and the
    /// peer's circuit closes. `None` for unknown or already-expired ids.
    pub fn complete(&mut self, corr_id: u64, now: SimTime) -> Option<(EventTag, C, SimDuration)> {
        let (p, rtt) = self.tracker.complete(corr_id, now, self.policy.as_mut())?;
        if let Some(a) = self.adaptive.as_mut() {
            a.on_success(p.tag.peer);
        }
        Some((p.tag, p.context.0, rtt))
    }

    /// A wake's first call: [`RpcTracker::expire`] at `ctx.now()`, every
    /// request past its deadline, in correlation-id order, the policy
    /// hearing each distinct tag once. Each expiry leaves one mark on `span`
    /// (tagged with its correlation id), so time-outs show up in the kernel
    /// trace after the dispatch that found them.
    pub fn take_expired(
        &mut self,
        ctx: &mut ew_sim::Ctx<'_>,
        span: ew_sim::SpanId,
    ) -> Vec<Expired<C>> {
        self.wake.fired(ctx.now());
        self.tracker
            .expire(ctx.now(), self.policy.as_mut())
            .into_iter()
            .map(|p| {
                ctx.mark(span, p.corr_id);
                Expired {
                    corr_id: p.corr_id,
                    tag: p.tag,
                    context: p.context.0,
                    attempts: p.context.1,
                }
            })
            .collect()
    }

    /// Decide one expiry. With the adaptive layer the peer's breaker hears
    /// the time-out (`rpc.breaker_open` counts a circuit it opened); within
    /// the retry budget and while the circuit stays closed the request is
    /// queued for a resend after an exponential backoff (`rpc.retries`).
    ///
    /// `resendable = false` is for periodic requests whose payload is stale
    /// by the time they expire: the breaker still hears the time-out and
    /// the backoff jitter is still drawn (so the stream does not depend on
    /// which kinds of request expired), but nothing is queued or counted.
    pub fn verdict(
        &mut self,
        ctx: &mut ew_sim::Ctx<'_>,
        tele: RetryTele,
        expired: Expired<C>,
        resendable: bool,
    ) -> Verdict<C> {
        let Some(adaptive) = self.adaptive.as_mut() else {
            return Verdict::GaveUp(expired.context);
        };
        let now = ctx.now();
        let (decision, opened) = adaptive.on_timeout(expired.tag.peer, expired.attempts, now);
        if opened {
            ctx.inc(tele.breaker_open);
        }
        match decision {
            RetryDecision::Resend { after } if resendable => {
                ctx.inc(tele.retries);
                self.deferred.push(Resend {
                    tag: expired.tag,
                    context: expired.context,
                    due: now + after,
                    attempts: expired.attempts + 1,
                });
                Verdict::Deferred
            }
            _ => Verdict::GaveUp(expired.context),
        }
    }

    /// A wake's last call: remove and return the deferred resends whose
    /// backoff has elapsed, oldest first. What is left is due later, and
    /// the wake is armed for it.
    pub fn take_due(&mut self, ctx: &mut ew_sim::Ctx<'_>) -> Vec<Resend<C>> {
        let now = ctx.now();
        let (due, later) = std::mem::take(&mut self.deferred)
            .into_iter()
            .partition(|d| d.due <= now);
        self.deferred = later;
        if let Some(at) = self.next_due() {
            self.wake.wake_by(ctx, at);
        }
        due
    }

    /// See [`CircuitBreaker::is_open`](crate::retry::CircuitBreaker::is_open);
    /// never open on the static baseline.
    pub fn is_open(&self, peer: u64, now: SimTime) -> bool {
        self.adaptive
            .as_ref()
            .is_some_and(|a| a.breaker.is_open(peer, now))
    }

    /// See [`CircuitBreaker::try_acquire`](crate::retry::CircuitBreaker::try_acquire);
    /// always granted on the static baseline.
    pub fn try_acquire(&mut self, peer: u64, now: SimTime) -> bool {
        self.adaptive
            .as_mut()
            .is_none_or(|a| a.try_acquire(peer, now))
    }

    /// The armed deadline of an in-flight request.
    pub fn deadline(&self, corr_id: u64) -> Option<SimTime> {
        self.tracker.outstanding.get(&corr_id).map(|p| p.deadline)
    }

    /// The earliest instant something is due: an in-flight deadline or the
    /// end of a deferred resend's backoff.
    pub fn next_due(&self) -> Option<SimTime> {
        let resends = self.deferred.iter().map(|d| d.due);
        self.tracker
            .next_deadline()
            .into_iter()
            .chain(resends)
            .min()
    }

    /// Requests in flight.
    pub fn in_flight(&self) -> usize {
        self.tracker.in_flight()
    }

    /// Resends waiting out a backoff.
    pub fn deferred(&self) -> usize {
        self.deferred.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn tag(peer: u64) -> EventTag {
        EventTag { peer, mtype: 7 }
    }

    #[test]
    fn begin_complete_measures_rtt() {
        let mut rt: RpcTracker<&'static str> = RpcTracker::new();
        let mut pol = StaticTimeout(SimDuration::from_secs(10));
        let id = rt.begin(tag(1), t(100), &mut pol, "unit-a");
        assert_eq!(rt.in_flight(), 1);
        let (p, rtt) = rt.complete(id, t(103), &mut pol).unwrap();
        assert_eq!(p.context, "unit-a");
        assert_eq!(rtt, SimDuration::from_secs(3));
        assert_eq!(rt.in_flight(), 0);
    }

    #[test]
    fn correlation_ids_unique_and_monotonic() {
        let mut rt: RpcTracker<()> = RpcTracker::new();
        let mut pol = StaticTimeout(SimDuration::from_secs(1));
        let a = rt.begin(tag(1), t(0), &mut pol, ());
        let b = rt.begin(tag(1), t(0), &mut pol, ());
        let c = rt.begin(tag(2), t(0), &mut pol, ());
        assert!(a < b && b < c);
    }

    #[test]
    fn capped_client_bounds_the_policy_timeout() {
        let cap = Some(SimDuration::from_secs(30));
        // The inflated 100 s policy value is clamped to the 30 s cap…
        let got = wakes(
            RpcClient::new(ByType, None, cap),
            vec![(0, Step::Begin(100))],
        );
        assert_eq!(got, vec![(t(30), 1, 0, None)]);
        // …while values below the cap pass through untouched.
        let got = wakes(RpcClient::new(ByType, None, cap), vec![(0, Step::Begin(5))]);
        assert_eq!(got, vec![(t(5), 1, 0, None)]);
    }

    #[test]
    fn only_the_adaptive_arm_draws_its_jitter_seed() {
        let fixed = || StaticTimeout(SimDuration::from_secs(5));
        let mut rng = Xoshiro256::seed_from_u64(11);
        let mut untouched = rng.clone();
        RpcClient::<()>::new(fixed(), None, None).seed_jitter(&mut rng);
        assert_eq!(rng.next_u64(), untouched.next_u64(), "static arm drew");
        let mut rng = Xoshiro256::seed_from_u64(11);
        let mut one_on = rng.clone();
        one_on.next_u64();
        RpcClient::<()>::new(fixed(), Some(RetryConfig::default()), None).seed_jitter(&mut rng);
        assert_eq!(rng.next_u64(), one_on.next_u64(), "adaptive arm: one draw");
    }

    #[test]
    fn unknown_completion_is_none() {
        let mut rt: RpcTracker<()> = RpcTracker::new();
        let mut pol = StaticTimeout(SimDuration::from_secs(1));
        assert!(rt.complete(999, t(0), &mut pol).is_none());
    }

    #[test]
    fn expiry_removes_and_reports() {
        struct CountingPolicy {
            timeouts: u32,
            rtts: u32,
        }
        impl TimeoutPolicy for CountingPolicy {
            fn timeout_for(&mut self, _t: EventTag) -> SimDuration {
                SimDuration::from_secs(5)
            }
            fn observe_rtt(&mut self, _t: EventTag, _r: SimDuration) {
                self.rtts += 1;
            }
            fn observe_timeout(&mut self, _t: EventTag) {
                self.timeouts += 1;
            }
        }
        let mut pol = CountingPolicy {
            timeouts: 0,
            rtts: 0,
        };
        let mut rt: RpcTracker<u32> = RpcTracker::new();
        let id1 = rt.begin(tag(1), t(0), &mut pol, 1);
        let _id2 = rt.begin(tag(1), t(3), &mut pol, 2);
        // At t=5 only the first has expired.
        let exp = rt.expire(t(5), &mut pol);
        assert_eq!(exp.len(), 1);
        assert_eq!(exp[0].corr_id, id1);
        assert_eq!(exp[0].context, 1);
        assert_eq!(pol.timeouts, 1);
        assert_eq!(rt.in_flight(), 1);
        // Late completion of the expired id yields nothing.
        assert!(rt.complete(id1, t(6), &mut pol).is_none());
        assert_eq!(pol.rtts, 0);
    }

    #[test]
    fn batched_expiry_reports_each_tag_once() {
        struct TagCounter(Vec<EventTag>);
        impl TimeoutPolicy for TagCounter {
            fn timeout_for(&mut self, _t: EventTag) -> SimDuration {
                SimDuration::from_secs(1)
            }
            fn observe_rtt(&mut self, _t: EventTag, _r: SimDuration) {}
            fn observe_timeout(&mut self, t: EventTag) {
                self.0.push(t);
            }
        }
        let mut pol = TagCounter(Vec::new());
        let mut rt: RpcTracker<u32> = RpcTracker::new();
        // A poll round: three state types of component 1 polled at one
        // instant under one tag, plus one poll of component 9. They share
        // the 1 s deadline, so a wake exactly at it finds all four: one
        // outage per tag, so one observe_timeout per tag, even though four
        // entries are returned.
        rt.begin(tag(1), t(0), &mut pol, 1);
        rt.begin(tag(1), t(0), &mut pol, 2);
        rt.begin(tag(1), t(0), &mut pol, 3);
        rt.begin(tag(9), t(0), &mut pol, 4);
        assert!(rt
            .expire(t(0) + SimDuration::from_micros(999_999), &mut pol)
            .is_empty());
        let exp = rt.expire(t(1), &mut pol);
        assert_eq!(exp.len(), 4, "all expired entries are still returned");
        assert_eq!(pol.0, vec![tag(1), tag(9)], "but each tag reports once");
    }

    #[test]
    fn next_deadline_is_minimum() {
        let mut rt: RpcTracker<()> = RpcTracker::new();
        let mut pol = StaticTimeout(SimDuration::from_secs(10));
        assert!(rt.next_deadline().is_none());
        rt.begin(tag(1), t(5), &mut pol, ());
        rt.begin(tag(1), t(2), &mut pol, ());
        assert_eq!(rt.next_deadline(), Some(t(12)));
    }

    #[test]
    fn expire_is_deterministic_order() {
        let mut rt: RpcTracker<u32> = RpcTracker::new();
        let mut pol = StaticTimeout(SimDuration::from_secs(1));
        let ids: Vec<u64> = (0..20)
            .map(|i| rt.begin(tag(i), t(0), &mut pol, i as u32))
            .collect();
        let exp = rt.expire(t(10), &mut pol);
        let got: Vec<u64> = exp.iter().map(|p| p.corr_id).collect();
        assert_eq!(got, ids, "expired in corr-id order");
    }

    /// Time-outs in whole seconds, read off the message type.
    struct ByType;

    impl TimeoutPolicy for ByType {
        fn timeout_for(&mut self, tag: EventTag) -> SimDuration {
            SimDuration::from_secs(u64::from(tag.mtype))
        }
        fn observe_rtt(&mut self, _t: EventTag, _r: SimDuration) {}
        fn observe_timeout(&mut self, _t: EventTag) {}
    }

    enum Step {
        Begin(u16),
        Complete(u64),
    }

    /// What one wake found: when, how many expiries, how many resends, and
    /// the next due instant it left behind.
    type Wake = (SimTime, usize, usize, Option<SimTime>);

    /// An owner that runs `script` (one timer tagged 0 per step, at whole
    /// seconds) and answers every [`RPC_WAKE`] with a full wake.
    struct Owner {
        rpc: RpcClient<()>,
        script: Vec<(u64, Step)>,
        next: usize,
        wakes: Vec<Wake>,
        tele: Option<(ew_sim::SpanId, RetryTele)>,
    }

    impl ew_sim::Process for Owner {
        fn on_event(&mut self, ctx: &mut ew_sim::Ctx<'_>, ev: ew_sim::Event) {
            match ev {
                ew_sim::Event::Started => {
                    self.tele = Some((ctx.span("proto.timeout"), RetryTele::intern(ctx)));
                    for &(at, _) in &self.script {
                        ctx.set_timer(SimDuration::from_secs(at), 0);
                    }
                }
                ew_sim::Event::Timer { tag: RPC_WAKE } => {
                    let (span, tele) = self.tele.expect("started");
                    let expired = self.rpc.take_expired(ctx, span);
                    let n = expired.len();
                    for e in expired {
                        self.rpc.verdict(ctx, tele, e, true);
                    }
                    let due = self.rpc.take_due(ctx);
                    let resent = due.len();
                    for r in due {
                        self.rpc.resend(ctx, r);
                    }
                    self.wakes.push((ctx.now(), n, resent, self.rpc.next_due()));
                }
                ew_sim::Event::Timer { tag: 0 } => {
                    let peer = self.next as u64;
                    match self.script[self.next].1 {
                        Step::Begin(mtype) => {
                            self.rpc.begin(ctx, EventTag { peer, mtype }, ());
                        }
                        Step::Complete(corr) => {
                            self.rpc.complete(corr, ctx.now()).expect("in flight");
                        }
                    }
                    self.next += 1;
                }
                _ => {}
            }
        }
    }

    /// Run `rpc` through `script` for 100 s; every wake it saw.
    fn wakes(rpc: RpcClient<()>, script: Vec<(u64, Step)>) -> Vec<Wake> {
        let mut net = ew_sim::NetModel::new(0.0);
        let site = net.add_site(ew_sim::SiteSpec::simple(
            "s",
            SimDuration::from_millis(5),
            1e6,
            0.0,
        ));
        let mut hosts = ew_sim::HostTable::new();
        let host = hosts.add(ew_sim::HostSpec::dedicated("h", site, 1e8));
        let mut sim = ew_sim::Sim::new(net, hosts, 1);
        let owner = Owner {
            rpc,
            script,
            next: 0,
            wakes: Vec::new(),
            tele: None,
        };
        let pid = sim.spawn("owner", host, Box::new(owner));
        sim.run_until(t(100));
        sim.with_process::<Owner, _>(pid, |o| o.wakes.clone())
            .expect("alive")
    }

    #[test]
    fn the_wake_moves_only_earlier_and_an_idle_wake_does_not_rearm() {
        let script = vec![
            (0, Step::Begin(10)), // corr 1, due at 10: the wake is armed at 10
            (1, Step::Begin(20)), // corr 2, due at 21: the wake stays at 10
            (2, Step::Begin(3)),  // corr 3, due at 5: the wake moves to 5
            (3, Step::Complete(3)),
            (12, Step::Complete(2)),
        ];
        let got = wakes(RpcClient::new(ByType, None, None), script);
        assert_eq!(
            got,
            vec![
                // The reply at 3 did not cancel the wake: it finds nothing
                // and re-arms at corr 1's deadline.
                (t(5), 0, 0, Some(t(10))),
                // corr 1 expires at its own deadline, and the wake moves on
                // to corr 2's.
                (t(10), 1, 0, Some(t(21))),
                // The timer the move to 5 left behind: an idle wake.
                (t(10), 0, 0, Some(t(21))),
                // corr 2 was answered at 12: idle, and with nothing in
                // flight the wake stays off (nothing after 21).
                (t(21), 0, 0, None),
            ]
        );
    }

    #[test]
    fn a_deferred_resend_wakes_at_its_own_instant() {
        let retry = RetryConfig {
            base: SimDuration::from_secs(2),
            cap: SimDuration::from_secs(10),
            budget: 2,
            jitter: 0.3,
        };
        let mut rpc = RpcClient::new(ByType, Some(retry), None);
        rpc.seed_jitter(&mut Xoshiro256::seed_from_u64(7));
        // One request, due at 4 and never answered.
        let got = wakes(rpc, vec![(0, Step::Begin(4))]);
        assert_eq!(got.len(), 3, "{got:?}");
        // At 4 it expires and is deferred; only the resend is left due.
        let (at, expired, resent, due) = got[0];
        assert_eq!((at, expired, resent), (t(4), 1, 0));
        let due = due.expect("a resend is due");
        assert!(
            due > t(4) && due.since(t(4)) != SimDuration::from_secs(2),
            "jittered backoff"
        );
        // The next wake is at that instant exactly, and sends it.
        assert_eq!(got[1], (due, 0, 1, Some(due + SimDuration::from_secs(4))));
        // The resend expires at its own deadline: past the budget, so it
        // is given up and nothing is left to wake for.
        assert_eq!(got[2], (due + SimDuration::from_secs(4), 1, 0, None));
    }
}
