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
//! in common is a `Plan`, built once and shared; a stream's own state is
//! one block of `f64`s, whose tail (`Windows`) stores the measurements once
//! for every method to read, plus the sorted windows as ring positions. What
//! a method carries from one measurement to the next is at most one scalar.
//! Summation order is part of the contract (DESIGN §7.4): forecasts reach
//! the wire through `SimDuration::from_secs_f64`, so low bits matter, and no
//! method keeps a running window sum.

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
    /// window). Panics on out-of-range parameters, a window wider than 256
    /// among them: a sorted window holds ring positions as `u8`s.
    fn width(&self) -> usize {
        let (w, in_range) = match *self {
            Method::Last | Method::RunningMean => (1, true),
            Method::Mean(w) | Method::Median(w) => (w, true),
            Method::Trimmed(w, trim) => (w, (0.0..0.5).contains(&trim)),
            Method::Exp(gain) => (1, gain > 0.0 && gain <= 1.0),
            Method::Adaptive { min_w, max_w, .. } => (max_w, min_w >= 1 && max_w >= min_w),
        };
        assert!(
            in_range && (1..=256).contains(&w),
            "{self:?} is out of range"
        );
        w
    }

    /// Predict the measurement after `value`, which `past` has already
    /// absorbed. `prev` is this method's prediction *of* `value` (`None` on
    /// the first measurement of the stream). `slot` is what the plan gave
    /// this method: its sorted window's offset (`Median`, `Trimmed`), or the
    /// index in `carried` of the scalar it carries: the sum of all history
    /// (`RunningMean`), the smoothed estimate (`Exp`) or the current window
    /// (`Adaptive`: a small integer, exact in an `f64`).
    pub(crate) fn step(
        &self,
        slot: usize,
        carried: &mut [f64],
        prev: Option<f64>,
        value: f64,
        past: &Windows<'_>,
    ) -> f64 {
        match *self {
            Method::Last => value,
            Method::RunningMean => {
                let acc = &mut carried[slot];
                *acc += value;
                *acc / past.seen as f64
            }
            Method::Mean(w) => {
                let (older, newer) = past.recent(w);
                let sum = older.iter().chain(newer).sum::<f64>();
                sum / (older.len() + newer.len()) as f64
            }
            Method::Median(w) => {
                let v = past.sorted(slot, w);
                let n = v.len();
                if n % 2 == 1 {
                    past.at(v[n / 2])
                } else {
                    (past.at(v[n / 2 - 1]) + past.at(v[n / 2])) / 2.0
                }
            }
            Method::Trimmed(w, trim) => {
                let v = past.sorted(slot, w);
                let k = (v.len() as f64 * trim) as usize; // `as` truncates: floor for trim ≥ 0
                let kept = &v[k..v.len() - k];
                if kept.is_empty() {
                    return past.at(v[v.len() / 2]);
                }
                kept.iter().map(|&p| past.at(p)).sum::<f64>() / kept.len() as f64
            }
            Method::Exp(gain) => {
                let acc = &mut carried[slot];
                *acc = match prev {
                    None => value,
                    Some(_) => (1.0 - gain) * *acc + gain * value,
                };
                *acc
            }
            Method::Adaptive { min_w, max_w, bust } => {
                let acc = &mut carried[slot];
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
                let (older, newer) = past.recent(*acc as usize);
                let sum = newer.iter().rev().chain(older.iter().rev()).sum::<f64>();
                sum / (older.len() + newer.len()) as f64
            }
        }
    }
}

/// What every stream of one battery shares: the methods and the layout of a
/// stream's state, a block of `f64`s `[pred n | abs_err n | sq_err n |
/// carried m | ring cap]` (`m` methods carry a scalar) and the sorted
/// windows, `u8` ring positions.
pub(crate) struct Plan {
    /// Each method with its slot: the offset of its sorted window
    /// (`Median`, `Trimmed`), the index of its carried scalar
    /// (`RunningMean`, `Exp`, `Adaptive`), 0 for the rest.
    pub(crate) ops: Vec<(Method, usize)>,
    /// The widest window any method reads.
    cap: usize,
    /// `(w, offset)` per distinct width some method takes order statistics
    /// over; methods of one width share one window.
    sorted: Vec<(usize, usize)>,
    /// Methods that carry a scalar.
    pub(crate) carried: usize,
    /// `f64`s in one stream's block.
    pub(crate) block_len: usize,
    /// Ring positions in one stream's sorted windows.
    pub(crate) order_len: usize,
    /// Starts with `Last`: a constant stream needs no block (DESIGN §7.4).
    pub(crate) lazy: bool,
}

impl Plan {
    /// Lay out a battery. Panics if it is empty or a method's parameters
    /// are out of range.
    pub(crate) fn new(methods: Vec<Method>) -> Self {
        let cap = methods.iter().map(Method::width).max();
        let cap = cap.expect("a battery has at least one method");
        let (mut sorted, mut order_len, mut carried) = (Vec::<(usize, usize)>::new(), 0, 0);
        let mut ops = Vec::with_capacity(methods.len());
        for m in methods {
            let slot = match m {
                Method::Last | Method::Mean(_) => 0,
                Method::RunningMean | Method::Exp(_) | Method::Adaptive { .. } => {
                    carried += 1;
                    carried - 1
                }
                Method::Median(w) | Method::Trimmed(w, _) => {
                    match sorted.iter().find(|&&(sw, _)| sw == w) {
                        Some(&(_, at)) => at,
                        None => {
                            sorted.push((w, order_len));
                            order_len += w;
                            order_len - w
                        }
                    }
                }
            };
            ops.push((m, slot));
        }
        Plan {
            block_len: 3 * ops.len() + carried + cap,
            lazy: ops[0].0 == Method::Last,
            ops,
            cap,
            sorted,
            carried,
            order_len,
        }
    }
}

/// The recent measurements of one stream, stored once for the whole battery:
/// a ring of values in the tail of its block, and sorted windows that point
/// into it.
pub(crate) struct Windows<'a> {
    pub(crate) plan: &'a Plan,
    /// Every value is written once, at `seen % cap`, so the last `k` values
    /// are at most two slices (the older one ending at the ring's end).
    pub(crate) ring: &'a mut [f64],
    /// Per distinct sorted width `w`, the ring positions of the last
    /// `min(w, seen)` values, ascending by `f64::total_cmp` on the value and
    /// oldest first among equals. The value leaving a window is the oldest in
    /// it, so it is the first of its equals, found by binary search.
    pub(crate) order: &'a mut [u8],
    /// Measurements absorbed so far.
    pub(crate) seen: usize,
}

impl Windows<'_> {
    /// Absorb one measurement.
    pub(crate) fn push(&mut self, v: f64) {
        let (cap, pos) = (self.plan.cap, self.seen % self.plan.cap);
        let ring = &*self.ring;
        for &(w, at) in &self.plan.sorted {
            let len = w.min(self.seen);
            let s = &mut self.order[at..at + w];
            // After its equals, which are all older.
            let to = s[..len].partition_point(|&p| ring[p as usize].total_cmp(&v).is_le());
            // Filling: the gap is the free slot past the end. Full: the
            // value `w` back leaves, the first of its equals. Close the gap
            // and open one for `v` in a single shift of the elements between
            // the two.
            let gap = if len < w {
                len
            } else {
                let old = ring[(pos + cap - w) % cap];
                s.partition_point(|&p| ring[p as usize].total_cmp(&old).is_lt())
            };
            // `pos < cap ≤ 256`: `Method::width` refuses wider windows.
            if to > gap {
                s.copy_within(gap + 1..to, gap);
                s[to - 1] = pos as u8;
            } else {
                s.copy_within(to..gap, to + 1);
                s[to] = pos as u8;
            }
        }
        self.ring[pos] = v;
        self.seen += 1;
    }

    /// The last `min(w, seen)` measurements, oldest first, as two slices:
    /// the older part up to the ring's end, then the newer from its start
    /// (either may be empty); `w` ≤ `cap`.
    pub(crate) fn recent(&self, w: usize) -> (&[f64], &[f64]) {
        let (cap, n) = (self.plan.cap, w.min(self.seen));
        let (newer, older) = self.ring.split_at(self.seen % cap);
        let from_newer = n.min(newer.len());
        let older = &older[older.len() - (n - from_newer)..];
        (older, &newer[newer.len() - from_newer..])
    }

    /// The ring positions of the last `min(w, seen)` measurements, ascending
    /// by value: the window of width `w` the plan put at `at`.
    pub(crate) fn sorted(&self, at: usize, w: usize) -> &[u8] {
        &self.order[at..at + w.min(self.seen)]
    }

    /// The measurement at ring position `p`.
    pub(crate) fn at(&self, p: u8) -> f64 {
        self.ring[p as usize]
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
        let mut set = crate::ForecasterSet::new(vec![m]);
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

    /// A stream's ring and sorted windows under `plan`, empty.
    fn windows(plan: &Plan) -> (Vec<f64>, Vec<u8>) {
        (vec![0.0; plan.cap], vec![0; plan.order_len])
    }

    /// The window at `at` of width `w`, read through its ring positions.
    fn sorted_values(h: &Windows<'_>, at: usize, w: usize) -> Vec<f64> {
        h.sorted(at, w).iter().map(|&p| h.at(p)).collect()
    }

    #[test]
    fn history_windows_cross_the_ring_seam() {
        // One ring of 7 serves a width-3 and a width-7 reader; the sorted
        // width-4 window drops the value four back, not the oldest held.
        let methods = vec![Method::Mean(3), Method::Mean(7), Method::Median(4)];
        let plan = Plan::new(methods);
        let sorted_at = plan.ops[2].1;
        let (mut ring, mut order) = windows(&plan);
        let mut h = Windows {
            plan: &plan,
            ring: &mut ring,
            order: &mut order,
            seen: 0,
        };
        let recent = |h: &Windows<'_>, w| {
            let (older, newer) = h.recent(w);
            [older, newer].concat()
        };
        assert!(recent(&h, 7).is_empty() && h.sorted(sorted_at, 4).is_empty());
        for i in 1..=17 {
            h.push(i as f64 * if i % 2 == 0 { 1.0 } else { -1.0 });
        }
        assert_eq!(recent(&h, 3), [-15.0, 16.0, -17.0]);
        assert_eq!(
            recent(&h, 7),
            [-11.0, 12.0, -13.0, 14.0, -15.0, 16.0, -17.0]
        );
        assert_eq!(sorted_values(&h, sorted_at, 4), [-17.0, -15.0, 14.0, 16.0]);
        // 17 values in a ring of 7: the newest three sit at its start, so
        // the width-7 read is four values up to the ring's end, then three.
        let (older, newer) = h.recent(7);
        assert_eq!((older.len(), newer.len()), (4, 3));
        assert!(h.recent(3).0.is_empty());
    }

    #[test]
    fn equal_values_keep_their_age_order_in_a_sorted_window() {
        // Runs of equal values, both signed zeros among them, through a
        // width-4 window over a ring of 6: a new value goes after its equals
        // and the leaving one is the first of them, so each run stays oldest
        // first and the window is always the last four values ascending.
        let plan = Plan::new(vec![Method::Median(4), Method::Mean(6)]);
        let (at, cap) = (plan.ops[0].1, plan.cap);
        let (mut ring, mut order) = windows(&plan);
        let mut h = Windows {
            plan: &plan,
            ring: &mut ring,
            order: &mut order,
            seen: 0,
        };
        let xs = [
            0.0, -0.0, 0.0, 0.0, -0.0, -0.0, -0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, -0.0, 1.0, 1.0,
            -0.0, 1.0, 1.0, 1.0, 1.0, 0.0, -0.0, 0.0, -0.0, -0.0, 0.0, 0.0,
        ];
        for (i, &x) in xs.iter().enumerate() {
            h.push(x);
            let seen = i + 1;
            // The measurement index a ring position holds: the last one
            // written there.
            let age = |p: u8| seen - 1 - (seen - 1 + cap - p as usize) % cap;
            let window = h.sorted(at, 4);
            for pair in window.windows(2) {
                let (a, b) = (h.at(pair[0]), h.at(pair[1]));
                if a.to_bits() == b.to_bits() {
                    assert!(age(pair[0]) < age(pair[1]), "after {seen}: {window:?}");
                }
            }
            let mut last = xs[seen.saturating_sub(4)..seen].to_vec();
            last.sort_by(f64::total_cmp);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&sorted_values(&h, at, 4)), bits(&last), "after {seen}");
        }
    }

    #[test]
    fn the_standard_block_is_107_f64s_and_85_ring_positions() {
        // pred, abs_err and sq_err for 17 methods, 6 carried scalars
        // (running_mean, four exp, adaptive), a ring of 50; sorted windows
        // of 5, 10, 20 and 50.
        let plan = Plan::new(standard_battery());
        assert_eq!((plan.carried, plan.cap), (6, 50));
        assert_eq!((plan.block_len, plan.order_len), (107, 85));
    }

    #[test]
    fn the_widest_window_a_ring_position_indexes_is_256() {
        let xs: Vec<f64> = (0..300).map(f64::from).collect();
        assert_eq!(feed(Method::Median(256), &xs), 171.5);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_parameters_are_refused() {
        let refused = [
            Method::Median(257),
            Method::Mean(0),
            Method::Exp(0.0),
            Method::Adaptive {
                min_w: 3,
                max_w: 2,
                bust: 0.5,
            },
        ];
        for m in refused {
            let built = std::panic::catch_unwind(|| crate::ForecasterSet::new(vec![m]));
            assert!(built.is_err(), "{m:?} was accepted");
        }
        crate::ForecasterSet::new(vec![Method::Trimmed(10, 0.5)]);
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
