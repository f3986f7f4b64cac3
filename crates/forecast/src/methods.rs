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
//! A [`Method`] is only its parameters. The measurements of a stream are
//! stored once, in a [`History`] every method of the battery reads, and what
//! a method carries from one measurement to the next is a [`State`] of two
//! scalars. Summation order is part of the contract (DESIGN §7.4):
//! forecasts reach the wire through `SimDuration::from_secs_f64`, so low
//! bits matter, and no method keeps a running window sum.

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

/// What a method reads from the stream's shared [`History`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Need {
    /// Nothing: its [`State`] is enough.
    Nothing,
    /// The last `w` measurements in arrival order.
    Recent(usize),
    /// The last `w` measurements in ascending order.
    Sorted(usize),
}

/// What a method carries from one measurement to the next.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct State {
    /// Sum of all history (`RunningMean`) or smoothed estimate (`Exp`).
    acc: f64,
    /// Current window (`Adaptive`).
    cur_w: usize,
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
    /// What [`Method::step`] reads. Panics on out-of-range parameters.
    pub(crate) fn need(&self) -> Need {
        match *self {
            Method::Last | Method::RunningMean => Need::Nothing,
            Method::Mean(w) => Need::Recent(w),
            Method::Median(w) => Need::Sorted(w),
            Method::Trimmed(w, trim) => {
                assert!((0.0..0.5).contains(&trim));
                Need::Sorted(w)
            }
            Method::Exp(gain) => {
                assert!(gain > 0.0 && gain <= 1.0);
                Need::Nothing
            }
            Method::Adaptive { min_w, max_w, .. } => {
                assert!(min_w >= 1 && max_w >= min_w);
                Need::Recent(max_w)
            }
        }
    }

    /// Predict the measurement after `value`, which `history` has already
    /// absorbed. `prev` is this method's prediction *of* `value` (`None` on
    /// the first measurement of the stream).
    pub(crate) fn step(
        &self,
        st: &mut State,
        prev: Option<f64>,
        value: f64,
        history: &History,
    ) -> f64 {
        match *self {
            Method::Last => value,
            Method::RunningMean => {
                st.acc += value;
                st.acc / history.seen as f64
            }
            Method::Mean(w) => {
                let v = history.recent(w);
                v.iter().sum::<f64>() / v.len() as f64
            }
            Method::Median(w) => {
                let v = history.sorted(w);
                let n = v.len();
                if n % 2 == 1 {
                    v[n / 2]
                } else {
                    (v[n / 2 - 1] + v[n / 2]) / 2.0
                }
            }
            Method::Trimmed(w, trim) => {
                let v = history.sorted(w);
                let k = (v.len() as f64 * trim).floor() as usize;
                let kept = &v[k..v.len() - k];
                if kept.is_empty() {
                    return v[v.len() / 2];
                }
                kept.iter().sum::<f64>() / kept.len() as f64
            }
            Method::Exp(gain) => {
                st.acc = match prev {
                    None => value,
                    Some(_) => (1.0 - gain) * st.acc + gain * value,
                };
                st.acc
            }
            Method::Adaptive { min_w, max_w, bust } => {
                match prev {
                    None => st.cur_w = min_w,
                    Some(pred) => {
                        let scale = value.abs().max(1e-12);
                        if (pred - value).abs() / scale > bust {
                            st.cur_w = min_w;
                        } else if st.cur_w < max_w {
                            st.cur_w += 1;
                        }
                    }
                }
                let v = history.recent(st.cur_w);
                v.iter().rev().sum::<f64>() / v.len() as f64
            }
        }
    }
}

/// The recent measurements of one stream, stored once for the whole battery:
/// a ring of the last max-width values, plus one incrementally sorted
/// multiset per distinct width some method takes order statistics over.
#[derive(Clone, Debug)]
pub(crate) struct History {
    cap: usize,
    /// Every value is written at `pos` and `pos + cap`, so the last `k`
    /// values are always one contiguous slice ending at `pos + cap`.
    ring: Vec<f64>,
    pos: usize,
    /// Measurements absorbed so far.
    pub(crate) seen: usize,
    /// `(w, the last min(w, seen) values ascending by f64::total_cmp)` — a
    /// total order, so the outgoing element is always found by binary search.
    sorted: Vec<(usize, Vec<f64>)>,
}

impl History {
    /// A history deep enough for every need in `needs`.
    pub(crate) fn new(needs: impl IntoIterator<Item = Need>) -> Self {
        let mut cap = 1;
        let mut sorted: Vec<(usize, Vec<f64>)> = Vec::new();
        for need in needs {
            let w = match need {
                Need::Nothing => continue,
                Need::Recent(w) => w,
                Need::Sorted(w) => {
                    if sorted.iter().all(|&(sw, _)| sw != w) {
                        sorted.push((w, Vec::with_capacity(w)));
                    }
                    w
                }
            };
            assert!(w >= 1);
            cap = cap.max(w);
        }
        History {
            cap,
            ring: vec![0.0; 2 * cap],
            pos: 0,
            seen: 0,
            sorted,
        }
    }

    /// Absorb one measurement.
    pub(crate) fn push(&mut self, v: f64) {
        for (w, s) in &mut self.sorted {
            let at = s.partition_point(|x| x.total_cmp(&v).is_lt());
            if self.seen < *w {
                s.insert(at, v);
                continue;
            }
            // Full window: the value `w` back leaves. Close its gap and open
            // one for `v` in a single shift of the elements between the two.
            let old = self.ring[self.pos + self.cap - *w];
            let gap = s.partition_point(|x| x.total_cmp(&old).is_lt());
            if at > gap {
                s.copy_within(gap + 1..at, gap);
                s[at - 1] = v;
            } else {
                s.copy_within(at..gap, at + 1);
                s[at] = v;
            }
        }
        self.ring[self.pos] = v;
        self.ring[self.pos + self.cap] = v;
        self.pos = (self.pos + 1) % self.cap;
        self.seen += 1;
    }

    /// The last `min(w, seen)` measurements, oldest first; `w` at most the
    /// widest need this history was built for.
    pub(crate) fn recent(&self, w: usize) -> &[f64] {
        let end = self.pos + self.cap;
        &self.ring[end - w.min(self.seen)..end]
    }

    /// The last `min(w, seen)` measurements ascending; `w` one of the
    /// [`Need::Sorted`] widths this history was built for.
    pub(crate) fn sorted(&self, w: usize) -> &[f64] {
        let (_, s) = self
            .sorted
            .iter()
            .find(|&&(sw, _)| sw == w)
            .expect("declared width");
        s
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
        let mut h = History::new([m.need()]);
        let mut st = State::default();
        let mut pred = None;
        for &x in xs {
            h.push(x);
            pred = Some(m.step(&mut st, pred, x, &h));
        }
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
        // width-4 multiset drops the value four back, not the oldest held.
        let mut h = History::new([Need::Recent(3), Need::Recent(7), Need::Sorted(4)]);
        assert!(h.recent(7).is_empty() && h.sorted(4).is_empty());
        for i in 1..=17 {
            h.push(i as f64 * if i % 2 == 0 { 1.0 } else { -1.0 });
        }
        assert_eq!(h.recent(3), [-15.0, 16.0, -17.0]);
        assert_eq!(h.recent(7), [-11.0, 12.0, -13.0, 14.0, -15.0, 16.0, -17.0]);
        assert_eq!(h.sorted(4), [-17.0, -15.0, 14.0, 16.0]);
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
