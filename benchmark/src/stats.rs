//! Order statistics over small samples.

/// Median; sorts the slice in place.
pub fn median(values: &mut [f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    values.sort_by(|a, b| a.total_cmp(b));
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// `(max − min) / median`, in percent.
pub fn spread_pct(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    let med = median(&mut v);
    100.0 * (v[v.len() - 1] - v[0]) / med
}

/// How far above the fastest sample the fastest tenth ends (the second
/// fastest when there are fewer than twenty), in percent of the fastest.
/// Small when the floor was reached more than once, so the fastest sample
/// is no accident. `sorted` is ascending and has at least two samples.
pub fn floor_gap_pct(sorted: &[f64]) -> f64 {
    let k = sorted.len().div_ceil(10).max(2);
    100.0 * (sorted[k - 1] - sorted[0]) / sorted[0]
}
