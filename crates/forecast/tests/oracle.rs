//! Oracle test for the shared-history battery: the per-method
//! implementations this crate shipped before — every method owning its
//! `VecDeque` and recomputing in `predict`, the selector re-ranking on every
//! `predict` — are kept here as the reference, and the production
//! `ForecasterSet` must agree with them bit for bit at every step.
//! Forecasts reach the wire through `SimDuration::from_secs_f64`, so "close"
//! is not good enough: a changed summation order moves golden hashes.

use std::collections::VecDeque;

use proptest::prelude::*;

use ew_forecast::{ErrorMetric, ForecasterSet, Method};

/// One reference method: private history, prediction recomputed on demand.
enum Oracle {
    Last(Option<f64>),
    Running {
        sum: f64,
        n: u64,
    },
    Mean {
        w: usize,
        buf: VecDeque<f64>,
    },
    Median {
        w: usize,
        buf: VecDeque<f64>,
    },
    Trimmed {
        w: usize,
        trim: f64,
        buf: VecDeque<f64>,
    },
    Exp {
        gain: f64,
        est: Option<f64>,
    },
    Adaptive {
        min_w: usize,
        max_w: usize,
        cur_w: usize,
        bust: f64,
        buf: VecDeque<f64>,
    },
}

fn push_capped(buf: &mut VecDeque<f64>, cap: usize, v: f64) {
    if buf.len() == cap {
        buf.pop_front();
    }
    buf.push_back(v);
}

fn ascending(buf: &VecDeque<f64>) -> Vec<f64> {
    let mut v: Vec<f64> = buf.iter().copied().collect();
    v.sort_by(f64::total_cmp);
    v
}

impl Oracle {
    fn update(&mut self, value: f64) {
        let outstanding = self.predict();
        match self {
            Oracle::Last(last) => *last = Some(value),
            Oracle::Running { sum, n } => {
                *sum += value;
                *n += 1;
            }
            Oracle::Mean { w, buf }
            | Oracle::Median { w, buf }
            | Oracle::Trimmed { w, buf, .. } => push_capped(buf, *w, value),
            Oracle::Exp { gain, est } => {
                *est = Some(match *est {
                    None => value,
                    Some(e) => (1.0 - *gain) * e + *gain * value,
                })
            }
            Oracle::Adaptive {
                min_w,
                max_w,
                cur_w,
                bust,
                buf,
            } => {
                if let Some(pred) = outstanding {
                    let scale = value.abs().max(1e-12);
                    if (pred - value).abs() / scale > *bust {
                        *cur_w = *min_w;
                    } else if *cur_w < *max_w {
                        *cur_w += 1;
                    }
                }
                push_capped(buf, *max_w, value);
            }
        }
    }

    fn predict(&self) -> Option<f64> {
        match self {
            Oracle::Last(last) => *last,
            Oracle::Running { sum, n } => (*n > 0).then(|| sum / *n as f64),
            Oracle::Exp { est, .. } => *est,
            Oracle::Mean { buf, .. } => {
                (!buf.is_empty()).then(|| buf.iter().sum::<f64>() / buf.len() as f64)
            }
            Oracle::Median { buf, .. } => {
                let v = ascending(buf);
                let n = v.len();
                (n > 0).then(|| {
                    if n % 2 == 1 {
                        v[n / 2]
                    } else {
                        (v[n / 2 - 1] + v[n / 2]) / 2.0
                    }
                })
            }
            Oracle::Trimmed { trim, buf, .. } => {
                let v = ascending(buf);
                if v.is_empty() {
                    return None;
                }
                let k = (v.len() as f64 * trim).floor() as usize;
                let kept = &v[k..v.len() - k];
                if kept.is_empty() {
                    return Some(v[v.len() / 2]);
                }
                Some(kept.iter().sum::<f64>() / kept.len() as f64)
            }
            Oracle::Adaptive { cur_w, buf, .. } => {
                if buf.is_empty() {
                    return None;
                }
                let take = (*cur_w).min(buf.len());
                let sum: f64 = buf.iter().rev().take(take).sum();
                Some(sum / take as f64)
            }
        }
    }
}

/// The reference selector: score, absorb, and re-rank on every `predict`.
struct OracleSet {
    entries: Vec<(Oracle, f64, f64, u64)>, // method, abs_err, sq_err, scored
    metric: ErrorMetric,
}

impl OracleSet {
    fn new(methods: Vec<Oracle>, metric: ErrorMetric) -> Self {
        OracleSet {
            entries: methods.into_iter().map(|m| (m, 0.0, 0.0, 0)).collect(),
            metric,
        }
    }

    fn update(&mut self, value: f64) {
        for (m, abs_err, sq_err, scored) in &mut self.entries {
            if let Some(pred) = m.predict() {
                let err = pred - value;
                *abs_err += err.abs();
                *sq_err += err * err;
                *scored += 1;
            }
            m.update(value);
        }
    }

    /// `(value, winner index, mae, rmse)`.
    fn predict(&self) -> Option<(f64, usize, Option<f64>, Option<f64>)> {
        let mut best: Option<(f64, usize, f64)> = None;
        for (i, (m, abs_err, sq_err, scored)) in self.entries.iter().enumerate() {
            let Some(pred) = m.predict() else { continue };
            let s = match (*scored, self.metric) {
                (0, _) => f64::INFINITY,
                (n, ErrorMetric::Mae) => abs_err / n as f64,
                (n, ErrorMetric::Mse) => sq_err / n as f64,
            };
            if best.is_none_or(|(_, _, bs)| s < bs) {
                best = Some((pred, i, s));
            }
        }
        best.map(|(value, i, _)| {
            let (_, abs_err, sq_err, scored) = &self.entries[i];
            let n = *scored as f64;
            (
                value,
                i,
                (*scored > 0).then(|| abs_err / n),
                (*scored > 0).then(|| (sq_err / n).sqrt()),
            )
        })
    }
}

fn mean(w: usize) -> Oracle {
    Oracle::Mean {
        w,
        buf: VecDeque::new(),
    }
}
fn median(w: usize) -> Oracle {
    Oracle::Median {
        w,
        buf: VecDeque::new(),
    }
}
fn trimmed(w: usize, trim: f64) -> Oracle {
    Oracle::Trimmed {
        w,
        trim,
        buf: VecDeque::new(),
    }
}
fn exp(gain: f64) -> Oracle {
    Oracle::Exp { gain, est: None }
}
fn adaptive(min_w: usize, max_w: usize, bust: f64) -> Oracle {
    Oracle::Adaptive {
        min_w,
        max_w,
        cur_w: min_w,
        bust,
        buf: VecDeque::new(),
    }
}

/// The standard battery, in `standard_battery()` order.
fn standard_oracle() -> Vec<Oracle> {
    vec![
        Oracle::Last(None),
        Oracle::Running { sum: 0.0, n: 0 },
        mean(5),
        mean(10),
        mean(20),
        mean(50),
        median(5),
        median(10),
        median(20),
        median(50),
        trimmed(20, 0.1),
        trimmed(50, 0.25),
        exp(0.05),
        exp(0.1),
        exp(0.3),
        exp(0.7),
        adaptive(3, 50, 0.5),
    ]
}

/// A custom battery ranked by MSE: width 7 is shared by a sorted reader
/// pair and an arrival-order reader, width 13 has one reader, and the
/// adaptive window (max 9) is narrower than the ring.
fn custom() -> (Vec<Method>, Vec<Oracle>) {
    (
        vec![
            Method::Median(7),
            Method::Trimmed(7, 0.2),
            Method::Mean(7),
            Method::Median(13),
            Method::Adaptive {
                min_w: 2,
                max_w: 9,
                bust: 0.5,
            },
            Method::Exp(0.3),
            Method::RunningMean,
            Method::Last,
        ],
        vec![
            median(7),
            trimmed(7, 0.2),
            mean(7),
            median(13),
            adaptive(2, 9, 0.5),
            exp(0.3),
            Oracle::Running { sum: 0.0, n: 0 },
            Oracle::Last(None),
        ],
    )
}

fn bits(x: Option<f64>) -> Option<u64> {
    x.map(f64::to_bits)
}

/// One step of [`assert_lockstep`] for sets that take turns: feed `x`
/// (measurement number `step` of its stream) to both and compare every
/// method's prediction and the selection.
fn assert_step(
    set: &mut ForecasterSet,
    oracle: &mut OracleSet,
    step: usize,
    x: f64,
) -> Result<(), TestCaseError> {
    set.update(x);
    oracle.update(x);
    for ((name, got), (want, ..)) in set.predictions().zip(&oracle.entries) {
        prop_assert_eq!(
            bits(got),
            bits(want.predict()),
            "step {} value {:e}: {} predicts {:?}, oracle {:?}",
            step,
            x,
            name,
            got,
            want.predict()
        );
    }
    let got = set.predict().expect("one sample absorbed");
    let (value, winner, mae, rmse) = oracle.predict().expect("one sample absorbed");
    let (method, _) = set.predictions().nth(winner).expect("winner in battery");
    prop_assert_eq!(got.method, method, "step {}: winner", step);
    prop_assert_eq!(got.value.to_bits(), value.to_bits(), "step {}: value", step);
    prop_assert_eq!(bits(got.mae), bits(mae), "step {}: mae", step);
    prop_assert_eq!(bits(got.rmse), bits(rmse), "step {}: rmse", step);
    prop_assert_eq!(set.samples(), step as u64 + 1);
    Ok(())
}

fn assert_lockstep(
    mut set: ForecasterSet,
    mut oracle: OracleSet,
    xs: &[f64],
) -> Result<(), TestCaseError> {
    let methods: Vec<Method> = set.predictions().map(|(method, _)| method).collect();
    for (step, &x) in xs.iter().enumerate() {
        set.update(x);
        oracle.update(x);
        for ((name, got), (want, ..)) in set.predictions().zip(&oracle.entries) {
            prop_assert_eq!(
                bits(got),
                bits(want.predict()),
                "step {} value {:e}: {} predicts {:?}, oracle {:?}",
                step,
                x,
                name,
                got,
                want.predict()
            );
        }
        let got = set.predict().expect("one sample absorbed");
        let (value, winner, mae, rmse) = oracle.predict().expect("one sample absorbed");
        prop_assert_eq!(got.method, methods[winner], "step {}: winner", step);
        prop_assert_eq!(got.value.to_bits(), value.to_bits(), "step {}: value", step);
        prop_assert_eq!(bits(got.mae), bits(mae), "step {}: mae", step);
        prop_assert_eq!(bits(got.rmse), bits(rmse), "step {}: rmse", step);
    }
    prop_assert_eq!(set.samples(), xs.len() as u64);
    Ok(())
}

/// The reference for any one method.
fn oracle_of(method: Method) -> Oracle {
    match method {
        Method::Last => Oracle::Last(None),
        Method::RunningMean => Oracle::Running { sum: 0.0, n: 0 },
        Method::Mean(w) => mean(w),
        Method::Median(w) => median(w),
        Method::Trimmed(w, trim) => trimmed(w, trim),
        Method::Exp(gain) => exp(gain),
        Method::Adaptive { min_w, max_w, bust } => adaptive(min_w, max_w, bust),
    }
}

/// Batteries at the edges of the layout a plan computes: one method; every
/// window of width 1; methods listed twice (two entries, one shared sorted
/// window); 40 methods over twelve widths; an adaptive window deeper than
/// every other reader, so it alone sizes the ring.
fn degenerate_batteries() -> Vec<Vec<Method>> {
    let adaptive = |min_w, max_w| Method::Adaptive {
        min_w,
        max_w,
        bust: 0.5,
    };
    let mut forty = vec![
        Method::Last,
        Method::RunningMean,
        Method::Exp(1.0),
        adaptive(1, 12),
    ];
    for w in 1..=12 {
        forty.extend([Method::Mean(w), Method::Median(w), Method::Trimmed(w, 0.2)]);
    }
    assert_eq!(forty.len(), 40);
    vec![
        vec![Method::Median(9)],
        vec![
            Method::Mean(1),
            Method::Median(1),
            Method::Trimmed(1, 0.4),
            adaptive(1, 1),
        ],
        vec![
            Method::Median(5),
            Method::Exp(0.3),
            Method::Median(5),
            Method::Exp(0.3),
            Method::Trimmed(5, 0.25),
        ],
        forty,
        vec![Method::Mean(4), Method::Median(6), adaptive(2, 30)],
    ]
}

/// Finite series of length 1..300 in −1e9..1e9, so every window crosses
/// `n < w`, `n == w` and `n > w`: runs at one level (jitter 0 gives exact
/// duplicates in the sorted multisets, and lets the adaptive window grow),
/// both signed zeros (`total_cmp` tells them apart), level shifts between
/// runs (adaptive busts) and stray wide outliers.
fn series() -> impl Strategy<Value = Vec<f64>> {
    const LEVELS: [f64; 8] = [0.0, -0.0, 0.04, 1.0, 40.0, -7e5, 3.5e8, -9.9e8];
    const JITTER: [f64; 4] = [0.0, 0.0, 1e-3, 0.3];
    let run = (
        0usize..LEVELS.len(),
        0usize..JITTER.len(),
        proptest::collection::vec((-1.0f64..1.0, 0u8..16), 1..60),
    )
        .prop_map(|(level, jitter, noise)| {
            let (level, jitter) = (LEVELS[level], JITTER[jitter]);
            noise
                .into_iter()
                .map(|(d, kind)| match kind {
                    0 => d * 1e9,
                    _ if jitter == 0.0 => level,
                    _ => level + d * jitter * level.abs().max(1.0),
                })
                .collect::<Vec<f64>>()
        });
    proptest::collection::vec(run, 1..12).prop_map(|runs| {
        let mut xs = runs.concat();
        xs.truncate(299);
        xs
    })
}

proptest! {
    #[test]
    fn standard_battery_matches_the_per_method_oracle(xs in series()) {
        assert_lockstep(
            ForecasterSet::standard(),
            OracleSet::new(standard_oracle(), ErrorMetric::Mae),
            &xs,
        )?;
    }

    #[test]
    fn custom_battery_with_shared_and_unique_widths_matches_the_oracle(xs in series()) {
        let (methods, oracle) = custom();
        assert_lockstep(
            ForecasterSet::new(methods, ErrorMetric::Mse),
            OracleSet::new(oracle, ErrorMetric::Mse),
            &xs,
        )?;
    }

    /// Two standard sets share one plan. Fed different series in interleaved
    /// order, each must still match an oracle that knows nothing of the
    /// other: per-stream state leaking into the plan would show here only.
    #[test]
    fn two_standard_sets_alive_at_once_do_not_share_state(xs in series(), ys in series()) {
        let mut a = (ForecasterSet::standard(), OracleSet::new(standard_oracle(), ErrorMetric::Mae));
        let mut b = (ForecasterSet::standard(), OracleSet::new(standard_oracle(), ErrorMetric::Mae));
        let (mut fed_a, mut fed_b) = (0, 0);
        while fed_a < xs.len() || fed_b < ys.len() {
            // Uneven turns: a, b, b, a, a, ... until one series runs out.
            let a_turn = fed_b == ys.len() || (fed_a < xs.len() && (fed_a + 2 * fed_b) % 3 != 1);
            if a_turn {
                assert_step(&mut a.0, &mut a.1, fed_a, xs[fed_a])?;
                fed_a += 1;
            } else {
                assert_step(&mut b.0, &mut b.1, fed_b, ys[fed_b])?;
                fed_b += 1;
            }
        }
    }

    #[test]
    fn degenerate_batteries_match_the_oracle(xs in series()) {
        for (methods, metric) in degenerate_batteries().into_iter().zip([ErrorMetric::Mae, ErrorMetric::Mse].into_iter().cycle()) {
            let oracle = methods.iter().copied().map(oracle_of).collect();
            assert_lockstep(ForecasterSet::new(methods, metric), OracleSet::new(oracle, metric), &xs)?;
        }
    }
}
