//! Dynamic forecaster selection.
//!
//! The NWS trick: run every method in the battery on every stream, score
//! each method's one-step-ahead prediction against the measurement that
//! actually arrives, and let the method with the lowest cumulative error
//! make the *next* forecast. The winner changes as the series' character
//! changes — a median wins through spiky contention, exponential smoothing
//! wins through smooth drift — which is what made one mechanism serviceable
//! for CPU, network, and (in EveryWare) arbitrary program events.

use crate::methods::{standard_battery, History, Method, State};

/// Error metric used to rank methods.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ErrorMetric {
    /// Mean absolute error — the NWS default; robust to single busts.
    Mae,
    /// Mean squared error — punishes large busts harder.
    Mse,
}

struct Entry {
    method: Method,
    state: State,
    /// The method's outstanding prediction, scored when the next
    /// measurement arrives; `None` only before the first one.
    pred: Option<f64>,
    /// Sum of absolute / squared errors and the count scored.
    abs_err: f64,
    sq_err: f64,
    scored: u64,
}

impl Entry {
    fn score(&self, metric: ErrorMetric) -> f64 {
        if self.scored == 0 {
            return f64::INFINITY;
        }
        match metric {
            ErrorMetric::Mae => self.abs_err / self.scored as f64,
            ErrorMetric::Mse => self.sq_err / self.scored as f64,
        }
    }
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
    entries: Vec<Entry>,
    history: History,
    metric: ErrorMetric,
    /// Index of the entry that makes the next forecast.
    best: usize,
}

impl Default for ForecasterSet {
    fn default() -> Self {
        Self::standard()
    }
}

impl ForecasterSet {
    /// The standard 17-method battery ranked by MAE.
    pub fn standard() -> Self {
        Self::new(standard_battery(), ErrorMetric::Mae)
    }

    /// A custom battery. Panics if it is empty or a method's parameters are
    /// out of range.
    pub fn new(methods: Vec<Method>, metric: ErrorMetric) -> Self {
        assert!(!methods.is_empty());
        ForecasterSet {
            history: History::new(methods.iter().map(Method::need)),
            entries: methods
                .into_iter()
                .map(|method| Entry {
                    method,
                    state: State::default(),
                    pred: None,
                    abs_err: 0.0,
                    sq_err: 0.0,
                    scored: 0,
                })
                .collect(),
            metric,
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
        self.history.push(value);
        let mut best_score = f64::NAN;
        for (i, e) in self.entries.iter_mut().enumerate() {
            if let Some(pred) = e.pred {
                let err = pred - value;
                e.abs_err += err.abs();
                e.sq_err += err * err;
                e.scored += 1;
            }
            e.pred = Some(e.method.step(&mut e.state, e.pred, value, &self.history));
            // Strict `<`: ties break toward the earlier battery entry.
            let s = e.score(self.metric);
            if i == 0 || s < best_score {
                (self.best, best_score) = (i, s);
            }
        }
    }

    /// Number of measurements absorbed.
    pub fn samples(&self) -> u64 {
        self.history.seen as u64
    }

    /// Forecast the next value using the best-scoring method. `None` until
    /// at least one measurement has been absorbed.
    pub fn predict(&self) -> Option<Forecast> {
        let e = &self.entries[self.best];
        Some(Forecast {
            value: e.pred?,
            method: e.method,
            mae: (e.scored > 0).then(|| e.abs_err / e.scored as f64),
            rmse: (e.scored > 0).then(|| (e.sq_err / e.scored as f64).sqrt()),
        })
    }

    /// Every method's outstanding prediction, in battery order.
    pub fn predictions(&self) -> impl Iterator<Item = (Method, Option<f64>)> + '_ {
        self.entries.iter().map(|e| (e.method, e.pred))
    }

    /// The battery-wide leaderboard: `(method, score)` sorted best-first.
    /// Methods never scored report `f64::INFINITY`.
    pub fn leaderboard(&self) -> Vec<(Method, f64)> {
        let mut rows: Vec<(Method, f64)> = self
            .entries
            .iter()
            .map(|e| (e.method, e.score(self.metric)))
            .collect();
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
