//! The unified adaptive retry layer: exponential backoff with seeded
//! jitter, a per-request retry budget, and a per-peer circuit breaker.
//!
//! Before this module, every service improvised its own reaction to an
//! expired request: the compute client failed over to "the next scheduler"
//! immediately, the Gossip server just counted the loss and re-polled on
//! its next periodic round, and state-service stores were silently
//! abandoned. The paper's §2 "robust" requirement — and the grid-middleware
//! literature after it — argue the opposite: fault-tolerance *policy*
//! belongs in one place, composed with the forecast-driven time-out
//! discovery of §2.2, not scattered through the services.
//!
//! The composition is deliberately layered:
//!
//! * [`TimeoutPolicy`](crate::TimeoutPolicy) (existing) decides **when a
//!   request is lost** — forecast RTT × safety, inflated on expiry;
//! * [`RetryPolicy`] decides **when to try again** — exponential backoff
//!   with deterministic seeded jitter, capped, within a per-request budget;
//! * [`CircuitBreaker`] decides **whether to try at all** — after N
//!   consecutive time-outs a peer's circuit opens, requests to it are
//!   redirected or suppressed, and after a cool-down a single half-open
//!   probe tests whether it came back.
//!
//! Everything is deterministic: the jitter stream is a [`Xoshiro256`]
//! seeded by the owning process, so a whole chaos campaign replays
//! bit-identically from one seed.

use ew_sim::hashers::FxHashMap;
use ew_sim::{CounterId, Ctx, SimDuration, SimTime, Xoshiro256};

/// Tunables for [`RetryPolicy`].
#[derive(Clone, Copy, Debug)]
pub struct RetryConfig {
    /// Backoff before the first resend.
    pub base: SimDuration,
    /// Upper bound on any single backoff — also the bound the compute
    /// client puts on adaptive time-outs (the `cap` of
    /// [`RpcClient::new`](crate::RpcClient::new)) so failure detection never
    /// lags a healed fault by more than one cap.
    pub cap: SimDuration,
    /// Total attempts allowed per request (first send included) before the
    /// caller must give up / fail over.
    pub budget: u32,
    /// Jitter fraction: each backoff is multiplied by `1 + jitter * u`
    /// with `u` uniform in `[0, 1)`.
    pub jitter: f64,
}

impl Default for RetryConfig {
    fn default() -> Self {
        RetryConfig {
            base: SimDuration::from_secs(1),
            cap: SimDuration::from_secs(30),
            budget: 3,
            jitter: 0.3,
        }
    }
}

/// Exponential backoff with deterministic seeded jitter.
pub struct RetryPolicy {
    cfg: RetryConfig,
    rng: Xoshiro256,
}

impl RetryPolicy {
    /// A policy drawing jitter from a stream seeded with `seed` (owners
    /// derive it from their process rng so runs stay reproducible).
    pub fn new(cfg: RetryConfig, seed: u64) -> Self {
        RetryPolicy {
            cfg,
            rng: Xoshiro256::seed_from_u64(seed),
        }
    }

    /// Restart the jitter stream from `seed`.
    pub(crate) fn reseed(&mut self, seed: u64) {
        self.rng = Xoshiro256::seed_from_u64(seed);
    }

    /// Whether a request that has already been sent `attempts` times may
    /// be sent once more.
    pub fn allows(&self, attempts: u32) -> bool {
        attempts < self.cfg.budget
    }

    /// Backoff to wait before resend number `attempts + 1` (so the first
    /// retry passes `attempts = 1`): `base * 2^(attempts-1)`, jittered,
    /// capped at `cap`.
    pub fn backoff(&mut self, attempts: u32) -> SimDuration {
        let doublings = attempts.saturating_sub(1).min(16);
        let raw = self
            .cfg
            .base
            .saturating_mul_f64((1u64 << doublings) as f64)
            .min(self.cfg.cap);
        let jitter = 1.0 + self.cfg.jitter * self.rng.next_f64();
        raw.saturating_mul_f64(jitter).min(self.cfg.cap)
    }
}

/// Tunables for [`CircuitBreaker`].
#[derive(Clone, Copy, Debug)]
pub struct BreakerConfig {
    /// Consecutive time-outs that open a peer's circuit.
    pub threshold: u32,
    /// How long an open circuit rejects traffic before allowing one
    /// half-open probe.
    pub cooldown: SimDuration,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            threshold: 3,
            cooldown: SimDuration::from_secs(30),
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum BreakerState {
    Closed,
    Open { until: SimTime },
    HalfOpen,
}

#[derive(Clone, Copy, Debug)]
struct PeerCircuit {
    consecutive: u32,
    state: BreakerState,
}

/// Per-peer circuit breaker: open after N consecutive time-outs, single
/// half-open probe after a cool-down.
pub struct CircuitBreaker {
    cfg: BreakerConfig,
    peers: FxHashMap<u64, PeerCircuit>,
}

impl CircuitBreaker {
    /// An all-closed breaker.
    pub fn new(cfg: BreakerConfig) -> Self {
        CircuitBreaker {
            cfg,
            peers: FxHashMap::default(),
        }
    }

    fn peer(&mut self, peer: u64) -> &mut PeerCircuit {
        self.peers.entry(peer).or_insert(PeerCircuit {
            consecutive: 0,
            state: BreakerState::Closed,
        })
    }

    /// May a request be sent to `peer` now? `Closed` always permits.
    /// `Open` rejects until the cool-down elapses; the first permitted
    /// call after that transitions to `HalfOpen` (the probe) and further
    /// calls are rejected until the probe resolves through
    /// [`on_success`](Self::on_success) or [`on_timeout`](Self::on_timeout).
    pub fn try_acquire(&mut self, peer: u64, now: SimTime) -> bool {
        let p = self.peer(peer);
        match p.state {
            BreakerState::Closed => true,
            BreakerState::HalfOpen => false,
            BreakerState::Open { until } => {
                if now >= until {
                    p.state = BreakerState::HalfOpen;
                    true
                } else {
                    false
                }
            }
        }
    }

    /// Record a successful exchange with `peer`: the circuit closes and
    /// the consecutive-time-out count resets.
    pub fn on_success(&mut self, peer: u64) {
        let p = self.peer(peer);
        p.consecutive = 0;
        p.state = BreakerState::Closed;
    }

    /// Record a time-out against `peer`. Returns `true` when this call
    /// *opened* (or re-opened) the circuit — the caller's cue to count a
    /// `rpc.breaker_open` event.
    pub fn on_timeout(&mut self, peer: u64, now: SimTime) -> bool {
        let cfg = self.cfg;
        let p = self.peer(peer);
        p.consecutive += 1;
        match p.state {
            BreakerState::HalfOpen => {
                // The probe failed: re-open for another cool-down.
                p.state = BreakerState::Open {
                    until: now + cfg.cooldown,
                };
                true
            }
            BreakerState::Closed if p.consecutive >= cfg.threshold => {
                p.state = BreakerState::Open {
                    until: now + cfg.cooldown,
                };
                true
            }
            _ => false,
        }
    }

    /// Whether `peer`'s circuit currently rejects traffic (ignoring the
    /// half-open probe allowance).
    pub fn is_open(&self, peer: u64, now: SimTime) -> bool {
        match self.peers.get(&peer).map(|p| p.state) {
            Some(BreakerState::Open { until }) => now < until,
            _ => false,
        }
    }
}

/// What to do about an expired request, as decided by [`AdaptiveRetry`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RetryDecision {
    /// Resend to the same peer after this backoff.
    Resend {
        /// Backoff to wait before the resend.
        after: SimDuration,
    },
    /// Budget exhausted or circuit open: the caller should fail over,
    /// drop the request, or surface the error.
    GiveUp,
}

/// Retry policy + breaker, composed. Services do not embed this directly:
/// [`RpcClient`](crate::RpcClient) owns it together with the tracker, the
/// time-out policy, the attempt counts and the deferred resends.
pub struct AdaptiveRetry {
    /// Backoff/budget half.
    pub retry: RetryPolicy,
    /// Per-peer circuit half.
    pub breaker: CircuitBreaker,
}

impl AdaptiveRetry {
    /// Compose a retry policy and breaker; `seed` feeds the jitter stream.
    pub fn new(retry: RetryConfig, breaker: BreakerConfig, seed: u64) -> Self {
        AdaptiveRetry {
            retry: RetryPolicy::new(retry, seed),
            breaker: CircuitBreaker::new(breaker),
        }
    }

    /// Defaults for both halves.
    pub fn with_defaults(seed: u64) -> Self {
        Self::new(RetryConfig::default(), BreakerConfig::default(), seed)
    }

    /// React to a time-out of a request to `peer` that has been sent
    /// `attempts` times. Returns the decision and whether this time-out
    /// opened the peer's circuit (for the `rpc.breaker_open` counter).
    pub fn on_timeout(&mut self, peer: u64, attempts: u32, now: SimTime) -> (RetryDecision, bool) {
        let opened = self.breaker.on_timeout(peer, now);
        let decision = if self.retry.allows(attempts) && !self.breaker.is_open(peer, now) {
            RetryDecision::Resend {
                after: self.retry.backoff(attempts),
            }
        } else {
            RetryDecision::GiveUp
        };
        (decision, opened)
    }

    /// Report a completed exchange (closes the peer's circuit).
    pub fn on_success(&mut self, peer: u64) {
        self.breaker.on_success(peer);
    }

    /// See [`CircuitBreaker::try_acquire`].
    pub fn try_acquire(&mut self, peer: u64, now: SimTime) -> bool {
        self.breaker.try_acquire(peer, now)
    }
}

/// Interned handles for the layer's two telemetry counters, bumped by
/// [`RpcClient::verdict`](crate::RpcClient::verdict).
#[derive(Clone, Copy)]
pub struct RetryTele {
    /// `rpc.retries`: resends scheduled by the policy.
    pub retries: CounterId,
    /// `rpc.breaker_open`: circuit-open transitions.
    pub breaker_open: CounterId,
}

impl RetryTele {
    /// Intern both counters (call once at `Event::Started`).
    pub fn intern(ctx: &mut Ctx<'_>) -> Self {
        RetryTele {
            retries: ctx.counter("rpc.retries"),
            breaker_open: ctx.counter("rpc.breaker_open"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn backoff_grows_exponentially_and_caps() {
        let mut p = RetryPolicy::new(
            RetryConfig {
                base: SimDuration::from_secs(1),
                cap: SimDuration::from_secs(8),
                budget: 10,
                jitter: 0.0,
            },
            7,
        );
        assert_eq!(p.backoff(1), SimDuration::from_secs(1));
        assert_eq!(p.backoff(2), SimDuration::from_secs(2));
        assert_eq!(p.backoff(3), SimDuration::from_secs(4));
        assert_eq!(p.backoff(4), SimDuration::from_secs(8));
        assert_eq!(p.backoff(9), SimDuration::from_secs(8), "capped");
    }

    #[test]
    fn jitter_is_bounded_and_seed_deterministic() {
        let cfg = RetryConfig {
            jitter: 0.5,
            ..RetryConfig::default()
        };
        let mut a = RetryPolicy::new(cfg, 42);
        let mut b = RetryPolicy::new(cfg, 42);
        let mut c = RetryPolicy::new(cfg, 43);
        let mut diverged = false;
        for attempt in 1..=8 {
            let (x, y, z) = (p_as(a.backoff(1)), p_as(b.backoff(1)), p_as(c.backoff(1)));
            assert_eq!(x, y, "same seed, same jitter (attempt {attempt})");
            assert!((1.0..1.5 + 1e-9).contains(&x), "within jitter band: {x}");
            diverged |= (x - z).abs() > 1e-12;
        }
        assert!(diverged, "different seeds should jitter differently");
    }

    fn p_as(d: SimDuration) -> f64 {
        d.as_secs_f64()
    }

    #[test]
    fn budget_limits_attempts() {
        let p = RetryPolicy::new(
            RetryConfig {
                budget: 3,
                ..RetryConfig::default()
            },
            1,
        );
        assert!(p.allows(1));
        assert!(p.allows(2));
        assert!(!p.allows(3), "third attempt exhausted the budget");
    }

    #[test]
    fn breaker_opens_after_threshold_consecutive_timeouts() {
        let mut b = CircuitBreaker::new(BreakerConfig {
            threshold: 3,
            cooldown: SimDuration::from_secs(30),
        });
        assert!(!b.on_timeout(9, t(0)));
        assert!(!b.on_timeout(9, t(1)));
        assert!(b.on_timeout(9, t(2)), "third consecutive opens");
        assert!(b.is_open(9, t(3)));
        assert!(!b.try_acquire(9, t(10)), "rejected while open");
    }

    #[test]
    fn success_resets_consecutive_count() {
        let mut b = CircuitBreaker::new(BreakerConfig {
            threshold: 2,
            cooldown: SimDuration::from_secs(30),
        });
        b.on_timeout(5, t(0));
        b.on_success(5);
        assert!(!b.on_timeout(5, t(1)), "count restarted after success");
        assert!(b.on_timeout(5, t(2)));
    }

    #[test]
    fn half_open_probe_cycle() {
        let mut b = CircuitBreaker::new(BreakerConfig {
            threshold: 1,
            cooldown: SimDuration::from_secs(10),
        });
        assert!(b.on_timeout(3, t(0)), "opens immediately at threshold 1");
        assert!(!b.try_acquire(3, t(5)), "still cooling down");
        assert!(b.try_acquire(3, t(10)), "cool-down elapsed: probe allowed");
        assert!(!b.try_acquire(3, t(10)), "only one probe in flight");
        // Probe fails: re-open for another cool-down.
        assert!(b.on_timeout(3, t(11)));
        assert!(!b.try_acquire(3, t(15)));
        assert!(b.try_acquire(3, t(21)), "second probe after re-cool-down");
        // Probe succeeds: closed again.
        b.on_success(3);
        assert!(b.try_acquire(3, t(22)));
        assert!(b.try_acquire(3, t(22)), "closed circuit has no probe limit");
    }

    #[test]
    fn breakers_are_per_peer() {
        let mut b = CircuitBreaker::new(BreakerConfig {
            threshold: 1,
            cooldown: SimDuration::from_secs(10),
        });
        b.on_timeout(1, t(0));
        assert!(b.is_open(1, t(1)));
        assert!(!b.is_open(2, t(1)));
        assert!(b.try_acquire(2, t(1)));
    }

    #[test]
    fn adaptive_composes_budget_and_breaker() {
        let mut a = AdaptiveRetry::new(
            RetryConfig {
                budget: 5,
                jitter: 0.0,
                ..RetryConfig::default()
            },
            BreakerConfig {
                threshold: 2,
                cooldown: SimDuration::from_secs(60),
            },
            1,
        );
        let (d1, opened1) = a.on_timeout(7, 1, t(0));
        assert_eq!(
            d1,
            RetryDecision::Resend {
                after: SimDuration::from_secs(1)
            }
        );
        assert!(!opened1);
        // Second consecutive time-out opens the circuit → give up even
        // though the retry budget has room.
        let (d2, opened2) = a.on_timeout(7, 2, t(1));
        assert_eq!(d2, RetryDecision::GiveUp);
        assert!(opened2);
        // A different peer is unaffected.
        let (d3, _) = a.on_timeout(8, 1, t(1));
        assert!(matches!(d3, RetryDecision::Resend { .. }));
    }

    #[test]
    fn adaptive_gives_up_at_budget() {
        let mut a = AdaptiveRetry::new(
            RetryConfig {
                budget: 2,
                ..RetryConfig::default()
            },
            BreakerConfig {
                threshold: 100,
                cooldown: SimDuration::from_secs(60),
            },
            1,
        );
        assert!(matches!(
            a.on_timeout(7, 1, t(0)).0,
            RetryDecision::Resend { .. }
        ));
        assert_eq!(a.on_timeout(7, 2, t(1)).0, RetryDecision::GiveUp);
    }
}
