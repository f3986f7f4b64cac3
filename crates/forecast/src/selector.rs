//! Dynamic forecaster selection.
//!
//! The NWS trick: run every method in the battery on every stream, score
//! each method's one-step-ahead prediction against the measurement that
//! actually arrives, and let the method with the lowest cumulative error
//! make the *next* forecast. The winner changes as the series' character
//! changes — a median wins through spiky contention, exponential smoothing
//! wins through smooth drift — which is what made one mechanism serviceable
//! for CPU, network, and (in EveryWare) arbitrary program events.

use std::borrow::Cow;
use std::sync::{Arc, LazyLock};

use crate::methods::{standard_battery, Method, Plan, Windows};

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

/// A battery of forecasters with MAE-ranked selection for one stream (the
/// NWS default: robust to single busts; RMSE is reported, not ranked by).
///
/// All forecasting happens in [`ForecasterSet::update`]: each measurement
/// is stored once, every method predicts once, and the winner is chosen
/// there; [`ForecasterSet::predict`] only reads. A stream whose measurements
/// share one bit pattern needs no block to forecast (DESIGN §7.4).
#[derive(Clone)]
pub struct ForecasterSet {
    /// The battery's methods and block layout, shared by all its streams.
    plan: Arc<Plan>,
    /// A constant level until a measurement differs, then the block.
    state: State,
    /// Measurements absorbed.
    seen: usize,
    /// Index of the method that makes the next forecast.
    best: usize,
}

/// What a stream stores beside its counts.
#[derive(Clone)]
enum State {
    /// Every measurement so far; NaN before the first.
    Level(f64),
    /// This stream's own numbers, allocated when first needed.
    Block {
        /// Each method's outstanding prediction and error sums, the
        /// scalars the carriers carry, then the ring of measurements
        /// ([`Windows`]). Every method predicts on every measurement, so
        /// each was scored `seen − 1` times.
        block: Box<[f64]>,
        /// The sorted windows, as ring positions.
        order: Box<[u8]>,
    },
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
            LazyLock::new(|| Arc::new(Plan::new(standard_battery())));
        Self::over(Arc::clone(&PLAN))
    }

    /// A custom battery, ranked by MAE. Panics if it is empty or a method's
    /// parameters are out of range.
    pub fn new(methods: Vec<Method>) -> Self {
        Self::over(Arc::new(Plan::new(methods)))
    }

    fn over(plan: Arc<Plan>) -> Self {
        ForecasterSet {
            plan,
            state: State::Level(f64::NAN),
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
        if let State::Level(level) = self.state {
            // Bits, not `==`: `-0.0` after `+0.0` ends the constant phase.
            if value.to_bits() == level.to_bits() || (self.seen == 0 && self.plan.lazy) {
                (self.state, self.seen) = (State::Level(value), self.seen + 1);
                return;
            }
            *self = self.with_block().into_owned();
        }
        self.absorb(value);
    }

    /// This stream with its block, replaying a constant run into a new one.
    fn with_block(&self) -> Cow<'_, Self> {
        let mut set = Cow::Borrowed(self);
        if let State::Level(level) = self.state {
            let set = set.to_mut();
            set.state = State::Block {
                block: vec![0.0; self.plan.block_len].into(),
                order: vec![0; self.plan.order_len].into(),
            };
            for _ in 0..std::mem::take(&mut set.seen) {
                set.absorb(level);
            }
        }
        set
    }

    /// This stream's block; empty while it holds a constant level.
    fn block(&self) -> &[f64] {
        match &self.state {
            State::Level(_) => &[],
            State::Block { block, .. } => block,
        }
    }

    /// [`Self::update`] on the block.
    fn absorb(&mut self, value: f64) {
        let State::Block { block, order } = &mut self.state else {
            unreachable!("a stream absorbs into its block");
        };
        let plan = &*self.plan;
        let n = plan.ops.len();
        let (scores, tail) = block.split_at_mut(3 * n);
        let (pred, scores) = scores.split_at_mut(n);
        let (abs_err, sq_err) = scores.split_at_mut(n);
        let (carried, ring) = tail.split_at_mut(plan.carried);
        let seen = self.seen;
        if seen > 0 {
            for ((pred, abs_err), sq_err) in pred.iter().zip(abs_err).zip(sq_err) {
                let err = pred - value;
                *abs_err += err.abs();
                *sq_err += err * err;
            }
        }
        let mut past = Windows {
            plan,
            ring,
            order,
            seen,
        };
        past.push(value);
        for (&(method, slot), pred) in plan.ops.iter().zip(pred) {
            let prev = (seen > 0).then_some(*pred);
            *pred = method.step(slot, carried, prev, value, &past);
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

    /// Method `i`'s mean absolute error; `f64::INFINITY` until it has been
    /// scored once.
    fn score(&self, i: usize) -> f64 {
        if self.seen < 2 {
            return f64::INFINITY;
        }
        self.block()[self.plan.ops.len() + i] / (self.seen - 1) as f64
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
        // Without a block `best` is 0, `Last`: it predicts the level, exactly.
        let (block, level) = match &self.state {
            State::Level(level) => (&[][..], *level),
            State::Block { block, .. } => (&block[..], f64::NAN),
        };
        let read = |at: usize, constant: f64| block.get(at).copied().unwrap_or(constant);
        let scored = (self.seen > 1).then(|| (self.seen - 1) as f64);
        (self.seen > 0).then(|| Forecast {
            value: read(i, level),
            method: self.plan.ops[i].0,
            mae: scored.map(|k| read(n + i, 0.0) / k),
            rmse: scored.map(|k| (read(2 * n + i, 0.0) / k).sqrt()),
        })
    }

    /// Every method's outstanding prediction, in battery order.
    pub fn predictions(&self) -> impl Iterator<Item = (Method, Option<f64>)> + '_ {
        let set = self.with_block();
        let preds = set.plan.ops.iter().zip(set.block());
        let preds = preds.map(|(&(method, _), &pred)| (method, (set.seen > 0).then_some(pred)));
        preds.collect::<Vec<_>>().into_iter()
    }

    /// The battery-wide leaderboard: `(method, score)` sorted best-first.
    /// Methods never scored report `f64::INFINITY`.
    pub fn leaderboard(&self) -> Vec<(Method, f64)> {
        let set = self.with_block();
        let scores = set.plan.ops.iter().enumerate();
        let mut rows: Vec<(Method, f64)> = scores.map(|(i, op)| (op.0, set.score(i))).collect();
        rows.sort_by(|a, b| a.1.total_cmp(&b.1));
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ew_sim::Xoshiro256;

    #[test]
    fn a_set_is_seven_words() {
        assert!(std::mem::size_of::<ForecasterSet>() <= 56);
    }

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
        let mut last_only = ForecasterSet::new(vec![Method::Last]);
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
        let mut s = ForecasterSet::new(vec![Method::Exp(0.05), Method::Median(5), Method::Last]);
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
