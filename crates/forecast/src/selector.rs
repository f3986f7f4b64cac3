//! Dynamic forecaster selection.
//!
//! The NWS trick: run every method in the battery on every stream, score
//! each method's one-step-ahead prediction against the measurement that
//! actually arrives, and let the method with the lowest cumulative error
//! make the *next* forecast. The winner changes as the series' character
//! changes — a median wins through spiky contention, exponential smoothing
//! wins through smooth drift — which is what made one mechanism serviceable
//! for CPU, network, and (in EveryWare) arbitrary program events.

use std::sync::{Arc, LazyLock};

use crate::methods::{standard_battery, Method, Plan, Windows};

/// Error metric used to rank methods.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ErrorMetric {
    /// Mean absolute error — the NWS default; robust to single busts.
    Mae,
    /// Mean squared error — punishes large busts harder.
    Mse,
}

/// A forecast and its provenance.
#[derive(Clone, Copy, Debug)]
pub struct Forecast {
    /// Predicted next value.
    pub value: f64,
    /// The winning method (`Display` gives its name).
    pub method: Method,
    /// The winner's mean absolute error so far (`None` until scored once).
    pub mae: Option<f64>,
    /// The winner's root-mean-squared error so far.
    pub rmse: Option<f64>,
}

/// A battery of forecasters with error-ranked selection for one stream.
///
/// All forecasting happens in [`ForecasterSet::update`]: each measurement
/// is stored once, every method predicts once, and the winner is chosen
/// there; [`ForecasterSet::predict`] only reads.
pub struct ForecasterSet {
    /// The battery's methods and block layout, shared by all its streams.
    plan: Arc<Plan>,
    /// Everything that is this stream's own, in one allocation sized at
    /// construction: each method's outstanding prediction, error sums and
    /// carried scalar, then the measurements ([`Windows`]). Every method
    /// predicts on every measurement, so each was scored `seen − 1` times.
    block: Vec<f64>,
    /// Measurements absorbed.
    seen: usize,
    /// Index of the method that makes the next forecast.
    best: usize,
}

impl Default for ForecasterSet {
    fn default() -> Self {
        Self::standard()
    }
}

impl ForecasterSet {
    /// The standard 17-method battery ranked by MAE; every such stream
    /// shares one plan.
    pub fn standard() -> Self {
        static PLAN: LazyLock<Arc<Plan>> =
            LazyLock::new(|| Arc::new(Plan::new(standard_battery(), ErrorMetric::Mae)));
        Self::over(Arc::clone(&PLAN))
    }

    /// A custom battery. Panics if it is empty or a method's parameters are
    /// out of range.
    pub fn new(methods: Vec<Method>, metric: ErrorMetric) -> Self {
        Self::over(Arc::new(Plan::new(methods, metric)))
    }

    fn over(plan: Arc<Plan>) -> Self {
        ForecasterSet {
            block: vec![0.0; plan.block_len],
            plan,
            seen: 0,
            best: 0,
        }
    }

    /// Feed one measurement: score every method's outstanding prediction
    /// against it, let every method absorb it and predict the next one, and
    /// pick the best-scoring method. A non-finite `value` is refused —
    /// nothing is absorbed — because one NaN would make every error sum NaN
    /// and end selection on this stream for good.
    pub fn update(&mut self, value: f64) {
        if !value.is_finite() {
            return;
        }
        let plan = &*self.plan;
        let n = plan.ops.len();
        let (scores, tail) = self.block.split_at_mut(4 * n);
        let (pred, scores) = scores.split_at_mut(n);
        let (abs_err, scores) = scores.split_at_mut(n);
        let (sq_err, acc) = scores.split_at_mut(n);
        let seen = self.seen;
        if seen > 0 {
            for ((pred, abs_err), sq_err) in pred.iter().zip(abs_err).zip(sq_err) {
                let err = pred - value;
                *abs_err += err.abs();
                *sq_err += err * err;
            }
        }
        let mut past = Windows { plan, tail, seen };
        past.push(value);
        for ((&(method, sorted_at), pred), acc) in plan.ops.iter().zip(pred).zip(acc) {
            let prev = (seen > 0).then_some(*pred);
            *pred = method.step(sorted_at, acc, prev, value, &past);
        }
        self.seen += 1;
        // Strict `<` on the scores, not on the raw sums (two sums can round
        // to one score): ties break toward the earlier battery entry.
        let mut best_score = self.score(0);
        self.best = 0;
        for i in 1..n {
            let s = self.score(i);
            if s < best_score {
                (self.best, best_score) = (i, s);
            }
        }
    }

    /// Method `i`'s mean error under the battery's metric; `f64::INFINITY`
    /// until it has been scored once.
    fn score(&self, i: usize) -> f64 {
        if self.seen < 2 {
            return f64::INFINITY;
        }
        let sums = match self.plan.metric {
            ErrorMetric::Mae => 1,
            ErrorMetric::Mse => 2,
        };
        self.block[sums * self.plan.ops.len() + i] / (self.seen - 1) as f64
    }

    /// Number of measurements absorbed.
    pub fn samples(&self) -> u64 {
        self.seen as u64
    }

    /// Forecast the next value using the best-scoring method. `None` until
    /// at least one measurement has been absorbed.
    #[inline] // a caller in another crate that reads only `value` skips the error terms
    pub fn predict(&self) -> Option<Forecast> {
        let (n, i) = (self.plan.ops.len(), self.best);
        let scored = (self.seen > 1).then(|| (self.seen - 1) as f64);
        (self.seen > 0).then(|| Forecast {
            value: self.block[i],
            method: self.plan.ops[i].0,
            mae: scored.map(|k| self.block[n + i] / k),
            rmse: scored.map(|k| (self.block[2 * n + i] / k).sqrt()),
        })
    }

    /// Every method's outstanding prediction, in battery order.
    pub fn predictions(&self) -> impl Iterator<Item = (Method, Option<f64>)> + '_ {
        let preds = self.plan.ops.iter().zip(&self.block);
        preds.map(|(&(method, _), &pred)| (method, (self.seen > 0).then_some(pred)))
    }

    /// The battery-wide leaderboard: `(method, score)` sorted best-first.
    /// Methods never scored report `f64::INFINITY`.
    pub fn leaderboard(&self) -> Vec<(Method, f64)> {
        let scores = self.plan.ops.iter().enumerate();
        let mut rows: Vec<(Method, f64)> = scores.map(|(i, op)| (op.0, self.score(i))).collect();
        rows.sort_by(|a, b| a.1.total_cmp(&b.1));
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ew_sim::Xoshiro256;

    #[test]
    fn empty_set_predicts_none() {
        let s = ForecasterSet::standard();
        assert!(s.predict().is_none());
        assert_eq!(s.samples(), 0);
    }

    #[test]
    fn constant_series_predicted_exactly() {
        let mut s = ForecasterSet::standard();
        for _ in 0..50 {
            s.update(7.5);
        }
        let f = s.predict().unwrap();
        assert!((f.value - 7.5).abs() < 1e-9);
        assert_eq!(f.mae, Some(0.0));
    }

    #[test]
    fn selector_beats_worst_method_on_noisy_series() {
        // Noisy level series: median/mean methods should beat last-value.
        let mut rng = Xoshiro256::seed_from_u64(3);
        let mut s = ForecasterSet::standard();
        let mut last_only = ForecasterSet::new(vec![Method::Last], ErrorMetric::Mae);
        let mut sel_err = 0.0;
        let mut last_err = 0.0;
        let mut count = 0;
        for _ in 0..500 {
            let v = 10.0 + rng.normal();
            if let Some(f) = s.predict() {
                sel_err += (f.value - v).abs();
                count += 1;
            }
            if let Some(f) = last_only.predict() {
                last_err += (f.value - v).abs();
            }
            s.update(v);
            last_only.update(v);
        }
        assert!(count > 400);
        assert!(
            sel_err < last_err * 0.85,
            "selector {sel_err:.1} should clearly beat last-value {last_err:.1}"
        );
    }

    #[test]
    fn selector_switches_method_when_series_character_changes() {
        let mut s = ForecasterSet::new(
            vec![Method::Exp(0.05), Method::Median(5), Method::Last],
            ErrorMetric::Mae,
        );
        // Smooth constant phase: everything is tied near zero error, but
        // after a ramp the responsive methods must win the leaderboard.
        for i in 0..200 {
            s.update(i as f64 * 2.0);
        }
        let lead = s.leaderboard();
        assert_eq!(
            lead[0].0,
            Method::Last,
            "on a steep ramp last-value has the least lag; got {lead:?}"
        );
    }

    #[test]
    fn mse_metric_punishes_busts_harder() {
        // One huge bust for method A, many small errors for method B.
        let mk = |metric| ForecasterSet::new(vec![Method::Last, Method::Median(51)], metric);
        let series: Vec<f64> = {
            let mut v = vec![10.0; 60];
            v.push(500.0); // one spike: last-value busts once on the spike
            v.extend(std::iter::repeat_n(10.0, 60)); // ...and once after
            v
        };
        let mut mae_set = mk(ErrorMetric::Mae);
        let mut mse_set = mk(ErrorMetric::Mse);
        for &x in &series {
            mae_set.update(x);
            mse_set.update(x);
        }
        // Under MAE the two big busts of last-value are amortized; under
        // MSE they dominate. Median ranks strictly better under MSE.
        let mse_lead = mse_set.leaderboard();
        assert_eq!(mse_lead[0].0, Method::Median(51));
    }

    #[test]
    fn leaderboard_sorted_ascending() {
        let mut s = ForecasterSet::standard();
        let mut rng = Xoshiro256::seed_from_u64(8);
        for _ in 0..100 {
            s.update(5.0 + rng.normal() * 0.1);
        }
        let rows = s.leaderboard();
        for pair in rows.windows(2) {
            assert!(pair[0].1 <= pair[1].1);
        }
        assert_eq!(rows.len(), 17);
    }

    #[test]
    fn leaderboard_is_totally_ordered_when_errors_overflow() {
        // Finite measurements whose sums and errors overflow to ±∞.
        let mut s = ForecasterSet::standard();
        for i in 0..120 {
            s.update(if i % 3 == 0 { -1.7e308 } else { 1.7e308 });
        }
        let rows = s.leaderboard();
        assert_eq!(rows.len(), 17);
        assert!(rows.iter().any(|(_, score)| score.is_infinite()));
        for pair in rows.windows(2) {
            assert!(pair[0].1.total_cmp(&pair[1].1).is_le(), "{rows:?}");
        }
        assert!(s.predict().is_some());
    }

    #[test]
    fn non_finite_measurements_are_refused() {
        let mut s = ForecasterSet::standard();
        for x in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            s.update(x);
        }
        assert_eq!(s.samples(), 0);
        assert!(s.predict().is_none());
        for i in 0..30 {
            s.update(4.0 + (i % 3) as f64);
            s.update(f64::NAN);
        }
        assert_eq!(s.samples(), 30);
        let f = s.predict().unwrap();
        assert!(f.value.is_finite() && f.mae.unwrap().is_finite());
        assert!(s.leaderboard().iter().all(|(_, score)| score.is_finite()));
    }

    #[test]
    fn forecast_reports_provenance() {
        let mut s = ForecasterSet::standard();
        for _ in 0..20 {
            s.update(3.0);
        }
        let f = s.predict().unwrap();
        // Every method is exact on a constant: the tie goes to the first.
        assert_eq!(f.method, Method::Last);
        assert!(f.rmse.is_some());
    }
}
