//! The forecaster battery.
//!
//! "The NWS applies a set of light-weight time series forecasting methods
//! and dynamically chooses the technique that yields the greatest
//! forecasting accuracy over time" (§2.2, citing ref \[38\]). Each method here is
//! a one-step-ahead predictor cheap enough to run dozens of instances per
//! measurement stream: last value, running mean, sliding-window means and
//! medians at several widths, trimmed means, exponential smoothing at
//! several gains, and an adaptive-window mean. Selection across the battery
//! lives in [`crate::selector`].
//!
//! A [`Method`] is only its parameters. What every stream of a battery has
//! in common is a [`Plan`], built once and shared; a stream's own state is
//! one block of `f64`s, whose tail ([`Windows`]) stores the measurements once
//! for every method to read, and what a method carries from one measurement
//! to the next is one scalar. Summation order is part of the contract (DESIGN
//! §7.4): forecasts reach the wire through `SimDuration::from_secs_f64`, so
//! low bits matter, and no method keeps a running window sum.

use crate::selector::ErrorMetric;

/// One forecasting method of a battery.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum Method {
    /// Predicts the most recent measurement.
    Last,
    /// Predicts the mean of all history.
    RunningMean,
    /// Mean of the last `w` measurements, summed oldest to newest.
    Mean(usize),
    /// Median of the last `w` measurements — robust to the single wild
    /// measurement a contended 1998 network produced regularly.
    Median(usize),
    /// Mean of the last `w` measurements after dropping the top and bottom
    /// `trim` fraction (in `[0, 0.5)`), summed in ascending order.
    Trimmed(usize, f64),
    /// Exponentially-smoothed estimate with gain `g` in `(0, 1]`:
    /// `est ← (1-g)·est + g·value`.
    Exp(f64),
    /// Adaptive-window mean, summed newest to oldest: the window shrinks to
    /// `min_w` after a forecast bust (relative error above `bust`: the
    /// series jumped; old history is misleading) and grows toward `max_w`
    /// while forecasts verify (more history cuts noise). The NWS "adaptive
    /// window" methods work this way.
    Adaptive {
        /// Narrowest window.
        min_w: usize,
        /// Widest window.
        max_w: usize,
        /// Relative error above which the window is judged busted.
        bust: f64,
    },
}

/// Human-readable method name (appears in diagnostics, NWS replies and
/// benches), e.g. `median_21`. Formatted where text is needed; a battery
/// holds the `Copy` method itself.
impl std::fmt::Display for Method {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            Method::Last => f.write_str("last"),
            Method::RunningMean => f.write_str("running_mean"),
            Method::Mean(w) => write!(f, "mean_{w}"),
            Method::Median(w) => write!(f, "median_{w}"),
            Method::Trimmed(w, trim) => write!(f, "trimmed_{w}_{:02}", (trim * 100.0) as u32),
            Method::Exp(gain) => write!(f, "exp_{:02}", (gain * 100.0) as u32),
            Method::Adaptive { min_w, max_w, .. } => write!(f, "adaptive_{min_w}_{max_w}"),
        }
    }
}

impl Method {
    /// How far back [`Method::step`] reads (1 for a method that reads no
    /// window). Panics on out-of-range parameters.
    fn width(&self) -> usize {
        let (w, in_range) = match *self {
            Method::Last | Method::RunningMean => (1, true),
            Method::Mean(w) | Method::Median(w) => (w, true),
            Method::Trimmed(w, trim) => (w, (0.0..0.5).contains(&trim)),
            Method::Exp(gain) => (1, gain > 0.0 && gain <= 1.0),
            Method::Adaptive { min_w, max_w, .. } => (max_w, min_w >= 1 && max_w >= min_w),
        };
        assert!(in_range && w >= 1, "{self:?} is out of range");
        w
    }

    /// Predict the measurement after `value`, which `past` has already
    /// absorbed. `prev` is this method's prediction *of* `value` (`None` on
    /// the first measurement of the stream), `acc` the scalar it carries: the
    /// sum of all history (`RunningMean`), the smoothed estimate (`Exp`) or
    /// the current window (`Adaptive`: a small integer, exact in an `f64`).
    pub(crate) fn step(
        &self,
        sorted_at: usize,
        acc: &mut f64,
        prev: Option<f64>,
        value: f64,
        past: &Windows<'_>,
    ) -> f64 {
        match *self {
            Method::Last => value,
            Method::RunningMean => {
                *acc += value;
                *acc / past.seen as f64
            }
            Method::Mean(w) => {
                let v = past.recent(w);
                v.iter().sum::<f64>() / v.len() as f64
            }
            Method::Median(w) => {
                let v = past.sorted(sorted_at, w);
                let n = v.len();
                if n % 2 == 1 {
                    v[n / 2]
                } else {
                    (v[n / 2 - 1] + v[n / 2]) / 2.0
                }
            }
            Method::Trimmed(w, trim) => {
                let v = past.sorted(sorted_at, w);
                let k = (v.len() as f64 * trim).floor() as usize;
                let kept = &v[k..v.len() - k];
                if kept.is_empty() {
                    return v[v.len() / 2];
                }
                kept.iter().sum::<f64>() / kept.len() as f64
            }
            Method::Exp(gain) => {
                *acc = match prev {
                    None => value,
                    Some(_) => (1.0 - gain) * *acc + gain * value,
                };
                *acc
            }
            Method::Adaptive { min_w, max_w, bust } => {
                match prev {
                    None => *acc = min_w as f64,
                    Some(pred) => {
                        let scale = value.abs().max(1e-12);
                        if (pred - value).abs() / scale > bust {
                            *acc = min_w as f64;
                        } else if *acc < max_w as f64 {
                            *acc += 1.0;
                        }
                    }
                }
                let v = past.recent(*acc as usize);
                v.iter().rev().sum::<f64>() / v.len() as f64
            }
        }
    }
}

/// What every stream of one battery shares: the methods and the layout of a
/// stream's block, `[pred n | abs_err n | sq_err n | acc n | ring 2·cap |
/// sorted windows]`. Offsets count from the start of the ring.
pub(crate) struct Plan {
    /// Each method with the offset of the sorted window it reads (0 if none).
    pub(crate) ops: Vec<(Method, usize)>,
    pub(crate) metric: ErrorMetric,
    /// The widest window any method reads.
    cap: usize,
    /// `(w, offset)` per distinct width some method takes order statistics
    /// over; methods of one width share one window.
    sorted: Vec<(usize, usize)>,
    /// `f64`s in one stream's block.
    pub(crate) block_len: usize,
}

impl Plan {
    /// Lay out a battery. Panics if it is empty or a method's parameters
    /// are out of range.
    pub(crate) fn new(methods: Vec<Method>, metric: ErrorMetric) -> Self {
        let cap = methods.iter().map(Method::width).max();
        let cap = cap.expect("a battery has at least one method");
        let (mut sorted, mut end) = (Vec::<(usize, usize)>::new(), 2 * cap);
        let place = |m| {
            let (Method::Median(w) | Method::Trimmed(w, _)) = m else {
                return (m, 0);
            };
            if let Some(&(_, at)) = sorted.iter().find(|&&(sw, _)| sw == w) {
                return (m, at);
            }
            sorted.push((w, end));
            end += w;
            (m, end - w)
        };
        let ops: Vec<(Method, usize)> = methods.into_iter().map(place).collect();
        Plan {
            block_len: 4 * ops.len() + end,
            ops,
            metric,
            cap,
            sorted,
        }
    }
}

/// The recent measurements of one stream, stored once for the whole battery
/// in the tail of its block.
pub(crate) struct Windows<'a> {
    pub(crate) plan: &'a Plan,
    /// `[ring 2·cap | sorted windows]`. Every value is written to the ring
    /// at `seen % cap` and `cap` above it, so the last `k` values are always
    /// one contiguous slice; a sorted window of width `w` holds the last
    /// `min(w, seen)` values ascending by `f64::total_cmp` — a total order,
    /// so the outgoing element is always found by binary search.
    pub(crate) tail: &'a mut [f64],
    /// Measurements absorbed so far.
    pub(crate) seen: usize,
}

impl Windows<'_> {
    /// Absorb one measurement.
    pub(crate) fn push(&mut self, v: f64) {
        let (cap, pos) = (self.plan.cap, self.seen % self.plan.cap);
        for &(w, at) in &self.plan.sorted {
            let len = w.min(self.seen);
            let s = &self.tail[at..at + w];
            let to = s[..len].partition_point(|x| x.total_cmp(&v).is_lt());
            // Filling: the gap is the free slot past the end. Full: the
            // value `w` back leaves. Close the gap and open one for `v` in
            // a single shift of the elements between the two.
            let gap = if len < w {
                len
            } else {
                let old = self.tail[pos + cap - w];
                s.partition_point(|x| x.total_cmp(&old).is_lt())
            };
            let s = &mut self.tail[at..at + w];
            if to > gap {
                s.copy_within(gap + 1..to, gap);
                s[to - 1] = v;
            } else {
                s.copy_within(to..gap, to + 1);
                s[to] = v;
            }
        }
        self.tail[pos] = v;
        self.tail[pos + cap] = v;
        self.seen += 1;
    }

    /// The last `min(w, seen)` measurements, oldest first; `w` ≤ `cap`.
    pub(crate) fn recent(&self, w: usize) -> &[f64] {
        let end = self.seen % self.plan.cap + self.plan.cap;
        &self.tail[end - w.min(self.seen)..end]
    }

    /// The last `min(w, seen)` measurements ascending: the window of width
    /// `w` the plan put at `at`.
    pub(crate) fn sorted(&self, at: usize, w: usize) -> &[f64] {
        &self.tail[at..at + w.min(self.seen)]
    }
}

/// The standard battery: the methods the NWS ran over every measurement
/// stream. 17 predictors.
pub fn standard_battery() -> Vec<Method> {
    use Method::*;
    vec![
        Last,
        RunningMean,
        Mean(5),
        Mean(10),
        Mean(20),
        Mean(50),
        Median(5),
        Median(10),
        Median(20),
        Median(50),
        Trimmed(20, 0.1),
        Trimmed(50, 0.25),
        Exp(0.05),
        Exp(0.1),
        Exp(0.3),
        Exp(0.7),
        Adaptive {
            min_w: 3,
            max_w: 50,
            bust: 0.5,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Run `m` alone over `xs`; its prediction after the last one.
    fn feed(m: Method, xs: &[f64]) -> f64 {
        let mut set = crate::ForecasterSet::new(vec![m], ErrorMetric::Mae);
        xs.iter().for_each(|&x| set.update(x));
        let (_, pred) = set.predictions().next().expect("one method");
        pred.expect("non-empty series")
    }

    #[test]
    fn all_forecasters_track_a_constant_series() {
        for m in standard_battery() {
            let p = feed(m, &[5.0; 60]);
            assert!(
                (p - 5.0).abs() < 1e-9,
                "{m} should predict the constant, got {p}"
            );
        }
    }

    #[test]
    fn last_value_tracks_jumps_immediately() {
        assert_eq!(feed(Method::Last, &[1.0, 1.0, 9.0]), 9.0);
    }

    #[test]
    fn running_mean_averages_everything() {
        assert_eq!(feed(Method::RunningMean, &[1.0, 2.0, 3.0, 4.0]), 2.5);
    }

    #[test]
    fn sliding_mean_forgets_old_history() {
        assert_eq!(feed(Method::Mean(3), &[100.0, 1.0, 2.0, 3.0]), 2.0);
    }

    #[test]
    fn sliding_median_ignores_outliers() {
        let xs = [10.0, 10.0, 10.0, 10.0, 1000.0];
        assert_eq!(feed(Method::Median(5), &xs), 10.0);
    }

    #[test]
    fn sliding_median_even_window_interpolates() {
        assert_eq!(feed(Method::Median(4), &[1.0, 2.0, 3.0, 4.0]), 2.5);
    }

    #[test]
    fn trimmed_mean_drops_extremes() {
        // Trim 2 off each end: mean of eight 5.0s.
        let xs = [0.0, 5.0, 5.0, 5.0, 5.0, 5.0, 5.0, 5.0, 5.0, 1000.0];
        assert_eq!(feed(Method::Trimmed(10, 0.2), &xs), 5.0);
    }

    #[test]
    fn exp_smoothing_gain_controls_responsiveness() {
        let mut series = vec![0.0; 20];
        series.push(10.0);
        assert!((feed(Method::Exp(0.7), &series) - 7.0).abs() < 1e-9);
        assert!((feed(Method::Exp(0.05), &series) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn adaptive_mean_shrinks_window_on_level_shift() {
        // Level shift: forecasts bust, window resets, predictor recovers
        // within a few samples instead of averaging over 50 stale ones.
        let mut series = vec![10.0; 50];
        series.extend([100.0; 4]);
        let adaptive = Method::Adaptive {
            min_w: 2,
            max_w: 50,
            bust: 0.5,
        };
        let p = feed(adaptive, &series);
        assert!(
            p > 70.0,
            "adaptive should have mostly snapped to 100, got {p}"
        );
        assert!(
            feed(Method::Mean(50), &series) < 20.0,
            "fixed-50 window lags"
        );
    }

    #[test]
    fn history_windows_cross_the_ring_seam() {
        // One ring of 7 serves a width-3 and a width-7 reader; the sorted
        // width-4 window drops the value four back, not the oldest held.
        let methods = vec![Method::Mean(3), Method::Mean(7), Method::Median(4)];
        let plan = Plan::new(methods, ErrorMetric::Mae);
        let sorted_at = plan.ops[2].1;
        let mut tail = vec![0.0; plan.block_len - 4 * plan.ops.len()];
        let mut h = Windows {
            plan: &plan,
            tail: &mut tail,
            seen: 0,
        };
        assert!(h.recent(7).is_empty() && h.sorted(sorted_at, 4).is_empty());
        for i in 1..=17 {
            h.push(i as f64 * if i % 2 == 0 { 1.0 } else { -1.0 });
        }
        assert_eq!(h.recent(3), [-15.0, 16.0, -17.0]);
        assert_eq!(h.recent(7), [-11.0, 12.0, -13.0, 14.0, -15.0, 16.0, -17.0]);
        assert_eq!(h.sorted(sorted_at, 4), [-17.0, -15.0, 14.0, 16.0]);
    }

    #[test]
    #[should_panic]
    fn out_of_range_parameters_are_refused() {
        crate::ForecasterSet::new(vec![Method::Trimmed(10, 0.5)], crate::ErrorMetric::Mae);
    }

    #[test]
    fn battery_names_are_unique() {
        let mut names: Vec<String> = standard_battery().iter().map(Method::to_string).collect();
        names.sort();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before);
    }
}
