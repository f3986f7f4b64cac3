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
    /// batch**, not once per entry. Callers fall into two camps: exact
    /// ones ([`DeadlineTimer`]-driven, e.g. the NWS sensor) expire a
    /// single entry at its deadline instant, while tick-based ones (the
    /// compute client and Gossip server scan on a 1–2 s cadence) can
    /// collect several same-tag entries that all died of *one* underlying
    /// outage. Reporting per entry made one outage inflate an adaptive
    /// policy's back-off several times over for the batched callers but
    /// only once for the exact ones — the same signal, counted
    /// differently depending on the caller's timer style. One distinct
    /// tag per batch restores "one outage, one signal" for both camps.
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

/// Arms one kernel timer at a tracker's earliest outstanding deadline,
/// replacing the fixed-period "poll every few seconds and scan" pattern:
/// expiries are detected at the deadline instant (not up to a period
/// late), and an idle tracker costs no events at all.
///
/// Owners call [`DeadlineTimer::update`] after every tracker mutation
/// (begin, complete, expire). Re-arming cancels the previous timer through
/// the kernel's lazy [`cancel_timer`](ew_sim::Ctx::cancel_timer), so no
/// generation numbers or stale-fire checks are needed — a `Timer` event
/// with this tag always means "the earliest armed deadline is due".
pub struct DeadlineTimer {
    tag: u64,
    armed: Option<SimTime>,
}

impl DeadlineTimer {
    /// A disarmed deadline timer using `tag` for its kernel timer events.
    pub fn new(tag: u64) -> Self {
        DeadlineTimer { tag, armed: None }
    }

    /// The kernel timer tag this helper owns.
    pub fn tag(&self) -> u64 {
        self.tag
    }

    /// Record that the armed timer just delivered. Call first in the
    /// `Event::Timer` handler, so the following `update` re-arms even if
    /// the next deadline happens to equal the one that fired.
    pub fn note_fired(&mut self) {
        self.armed = None;
    }

    /// Arm at `deadline`, cancelling any previously armed timer; `None`
    /// disarms. A no-op when already armed at exactly `deadline`.
    pub fn update(&mut self, ctx: &mut ew_sim::Ctx<'_>, deadline: Option<SimTime>) {
        if self.armed == deadline {
            return;
        }
        if self.armed.is_some() {
            ctx.cancel_timer(self.tag);
        }
        if let Some(d) = deadline {
            ctx.set_timer(d.since(ctx.now()), self.tag);
        }
        self.armed = deadline;
    }
}

/// What became of an expired request, as decided by [`RpcClient::verdict`].
#[derive(Debug, PartialEq, Eq)]
pub enum Verdict<C> {
    /// A resend to the same peer is queued inside the client; it comes out
    /// of [`RpcClient::take_due`] at the first sweep at or after its backoff.
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
/// waiting out a backoff. The compute client and the Gossip server each
/// embed one; what they keep for themselves is *when* to sweep (their
/// timer discipline) and what a [`Verdict::GaveUp`] means for each kind of
/// request.
///
/// A sweep is three calls, in this order: [`take_expired`], then one
/// [`verdict`] per expiry with the caller's give-up handling run *between*
/// verdicts, then [`take_due`] + [`resend`]. Verdicts are lazy because a
/// give-up handler reads breaker state ([`is_open`]) that the next verdict
/// mutates, and begins new requests.
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

    /// Register a first send; returns the correlation id to stamp on the
    /// packet.
    pub fn begin(&mut self, tag: EventTag, now: SimTime, context: C) -> u64 {
        self.arm(tag, now, context, 1)
    }

    /// Register the resend of a request that came out of
    /// [`take_due`](Self::take_due); its attempt count carries over.
    pub fn resend(&mut self, now: SimTime, due: Resend<C>) -> u64 {
        self.arm(due.tag, now, due.context, due.attempts)
    }

    fn arm(&mut self, tag: EventTag, now: SimTime, context: C, attempts: u32) -> u64 {
        let timeout = self.policy.timeout_for(tag);
        let timeout = self.cap.map_or(timeout, |cap| timeout.min(cap));
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

    /// [`RpcTracker::expire`] at `ctx.now()`: every request past its
    /// deadline, in correlation-id order, the policy hearing each distinct
    /// tag once. Each expiry leaves one mark on `span` (tagged with its
    /// correlation id), so time-outs show up in the kernel trace after the
    /// dispatch that found them.
    pub fn take_expired(
        &mut self,
        ctx: &mut ew_sim::Ctx<'_>,
        span: ew_sim::SpanId,
    ) -> Vec<Expired<C>> {
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

    /// Remove and return the deferred resends whose backoff has elapsed,
    /// oldest first.
    pub fn take_due(&mut self, now: SimTime) -> Vec<Resend<C>> {
        let (due, later) = std::mem::take(&mut self.deferred)
            .into_iter()
            .partition(|d| d.due <= now);
        self.deferred = later;
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

    /// The earliest in-flight deadline, for an owner's [`DeadlineTimer`].
    pub fn next_deadline(&self) -> Option<SimTime> {
        self.tracker.next_deadline()
    }

    /// Requests in flight.
    pub fn in_flight(&self) -> usize {
        self.tracker.in_flight()
    }

    /// Resends waiting out a backoff.
    pub fn deferred(&self) -> usize {
        self.deferred.len()
    }

    /// Nothing in flight and nothing deferred: a sweep would find nothing.
    pub fn idle(&self) -> bool {
        self.in_flight() == 0 && self.deferred.is_empty()
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
        let slow = StaticTimeout(SimDuration::from_secs(100));
        let mut rc: RpcClient<()> = RpcClient::new(slow, None, cap);
        let id = rc.begin(tag(1), t(0), ());
        // The inflated 100 s policy value is clamped to the 30 s cap…
        assert_eq!(rc.deadline(id), Some(t(30)));
        let fast = StaticTimeout(SimDuration::from_secs(5));
        let mut rc: RpcClient<()> = RpcClient::new(fast, None, cap);
        let id = rc.begin(tag(1), t(0), ());
        // …while values below the cap pass through untouched.
        assert_eq!(rc.deadline(id), Some(t(5)));
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
        // Three same-tag requests plus one to a different peer, all
        // expiring inside one tick-based scan: one outage per tag, so one
        // observe_timeout per tag, even though four entries are returned.
        rt.begin(tag(1), t(0), &mut pol, 1);
        rt.begin(tag(1), t(0), &mut pol, 2);
        rt.begin(tag(1), t(0), &mut pol, 3);
        rt.begin(tag(9), t(0), &mut pol, 4);
        let exp = rt.expire(t(10), &mut pol);
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
}
