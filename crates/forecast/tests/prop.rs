//! Property tests for the forecasting subsystem: the battery must stay
//! well-behaved under arbitrary measurement streams — it runs unattended
//! inside every component of a long-lived Grid application.

use proptest::prelude::*;

use ew_forecast::{standard_battery, ErrorMetric, ForecastTimeout, ForecasterSet};
use ew_proto::{EventTag, TimeoutPolicy};
use ew_sim::SimDuration;

fn finite_series() -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(-1e9f64..1e9, 1..200)
}

proptest! {
    #[test]
    fn every_method_survives_arbitrary_finite_input(xs in finite_series()) {
        let mut set = ForecasterSet::standard();
        for &x in &xs {
            set.update(x);
        }
        for (name, p) in set.predictions() {
            let p = p.expect("non-empty history predicts");
            prop_assert!(p.is_finite(), "{name} produced {p}");
        }
    }

    #[test]
    fn selector_prediction_is_finite_and_mae_nonnegative(xs in finite_series()) {
        let mut set = ForecasterSet::standard();
        for &x in &xs {
            set.update(x);
        }
        let f = set.predict().expect("predicts after input");
        prop_assert!(f.value.is_finite());
        if let Some(mae) = f.mae {
            prop_assert!(mae >= 0.0);
        }
        for (_, score) in set.leaderboard() {
            prop_assert!(score >= 0.0 || score.is_infinite());
        }
    }

    #[test]
    fn selector_never_loses_to_worst_method_by_much(
        xs in proptest::collection::vec(0.0f64..1000.0, 30..150)
    ) {
        // The selected forecast always comes from the method with the best
        // score so far, so its cumulative MAE is within the battery's span.
        let mut set = ForecasterSet::new(standard_battery(), ErrorMetric::Mae);
        let mut chosen_err = 0.0;
        let mut n = 0u32;
        for &x in &xs {
            if let Some(f) = set.predict() {
                chosen_err += (f.value - x).abs();
                n += 1;
            }
            set.update(x);
        }
        if n > 10 {
            // Every method is an average/median/last of history, so all
            // predictions live inside the data range and the selection's
            // online MAE is bounded by it. (A tight regret bound does not
            // hold for follow-the-leader selection; the NWS relies on the
            // empirical behaviour, not a worst-case guarantee.)
            prop_assert!(
                chosen_err / n as f64 <= 1000.0 + 1e-9,
                "online MAE {} escaped the data range",
                chosen_err / n as f64
            );
            let lead = set.leaderboard();
            prop_assert!(lead.iter().any(|(_, s)| s.is_finite()));
        }
    }

    #[test]
    fn timeouts_always_within_clamps(
        rtts in proptest::collection::vec(0.0f64..1e5, 0..100),
        expiries in 0u32..20,
    ) {
        let mut ft = ForecastTimeout::wan_default();
        let tag = EventTag { peer: 1, mtype: 7 };
        for &r in &rtts {
            ft.observe_rtt(tag, SimDuration::from_secs_f64(r));
        }
        for _ in 0..expiries {
            ft.observe_timeout(tag);
        }
        let t = ft.timeout_for(tag);
        prop_assert!(t >= ft.min, "{t:?} below clamp");
        prop_assert!(t <= ft.max, "{t:?} above clamp");
    }
}
