//! Time-series post-processing for experiment reports.
//!
//! The paper's figures are all "5 Minute Averages": per-event samples
//! binned into fixed windows, expressed as rates. The simulator bins each
//! series as it is recorded, at the width its reader declared; this module
//! only normalises those bins into rates and held means, and adds the
//! coefficient-of-variation statistic used to quantify the *consistent*
//! criterion of §7 (uniform delivered power despite per-infrastructure
//! variability).

use ew_sim::{BinnedSeries, SimDuration, SimTime};

/// One binned point: window start time and the value for that window.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BinnedPoint {
    /// Start of the window.
    pub t: SimTime,
    /// Value (rate or mean, depending on the binning call).
    pub value: f64,
}

/// How many `width` bins make up `window`, for a reader about to declare a
/// series at `width`. Panics unless that is a whole number: the readers
/// below stop at the window's end, and a partial last bin would take in
/// samples recorded past it.
pub fn whole_bins(window: SimDuration, width: SimDuration) -> usize {
    let (w, b) = (window.as_micros(), width.as_micros());
    assert!(
        b > 0 && w % b == 0,
        "a {window:?} window is not a whole number of {width:?} bins"
    );
    (w / b) as usize
}

/// Each of the first `n` bins' sum over the bin width: per-event op counts
/// become ops/second averages — Figure 2's y-axis.
pub fn bin_rate(series: &BinnedSeries, n: usize) -> Vec<BinnedPoint> {
    let width = SimDuration::from_micros(series.width_us());
    let secs = width.as_secs_f64();
    (0..n)
        .map(|i| BinnedPoint {
            t: SimTime::ZERO + width * i as u64,
            value: series.bins().get(i).map_or(0.0, |b| b.sum) / secs,
        })
        .collect()
}

/// Each of the first `n` bins' mean (host counts, Figure 3b). Empty bins
/// carry the previous bin's value (a sampled gauge holds between samples).
pub fn bin_mean(series: &BinnedSeries, n: usize) -> Vec<BinnedPoint> {
    let width = SimDuration::from_micros(series.width_us());
    let mut last = 0.0;
    (0..n)
        .map(|i| {
            if let Some(b) = series.bins().get(i).filter(|b| b.count > 0) {
                last = b.sum / b.count as f64;
            }
            BinnedPoint {
                t: SimTime::ZERO + width * i as u64,
                value: last,
            }
        })
        .collect()
}

/// Mean of a binned series.
pub fn mean(series: &[BinnedPoint]) -> f64 {
    if series.is_empty() {
        return 0.0;
    }
    series.iter().map(|p| p.value).sum::<f64>() / series.len() as f64
}

/// Coefficient of variation (σ/μ) of a binned series: the paper's
/// *consistency* claim is that this is small for the total delivered power
/// even though it is large per infrastructure.
pub fn coefficient_of_variation(series: &[BinnedPoint]) -> f64 {
    let m = mean(series);
    if m.abs() < 1e-12 || series.is_empty() {
        return 0.0;
    }
    let var = series.iter().map(|p| (p.value - m).powi(2)).sum::<f64>() / series.len() as f64;
    var.sqrt() / m
}

/// Format a simulated instant as SC98 wall-clock PST: the experiment window
/// starts at 23:36:56 on November 11 (Figure 2's x-axis origin).
pub fn pst_label(t: SimTime) -> String {
    let origin = 23 * 3600 + 36 * 60 + 56; // 23:36:56
    let secs = (origin + t.as_micros() / 1_000_000) % (24 * 3600);
    format!(
        "{:02}:{:02}:{:02}",
        secs / 3600,
        (secs / 60) % 60,
        secs % 60
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    /// A series binned at 60 s holding `samples` (seconds, value).
    fn binned(samples: &[(u64, f64)]) -> ew_sim::Registry {
        let mut r = ew_sim::Registry::new();
        let id = r.declare_series("s", 60_000_000);
        for &(secs, v) in samples {
            r.record(id, secs * 1_000_000, v);
        }
        r
    }

    fn series_of(r: &ew_sim::Registry) -> &BinnedSeries {
        r.series_get(r.series_lookup("s").unwrap())
    }

    #[test]
    fn bin_rate_sums_and_normalizes() {
        let r = binned(&[(10, 100.0), (20, 200.0), (70, 600.0), (130, 50.0)]);
        let bins = bin_rate(series_of(&r), 3);
        assert_eq!(bins.len(), 3);
        assert_eq!(bins[0].value, 5.0); // 300 over 60 s
        assert_eq!(bins[1].value, 10.0); // 600 over 60 s
        assert!((bins[2].value - 50.0 / 60.0).abs() < 1e-12);
        assert_eq!(bins[1].t, t(60));
    }

    #[test]
    fn bin_rate_ignores_out_of_window_samples() {
        let r = binned(&[(300, 1.0), (5, 60.0), (60, 7.0)]);
        let bins = bin_rate(series_of(&r), 1);
        assert_eq!(bins.len(), 1);
        assert_eq!(bins[0].value, 1.0);
    }

    #[test]
    fn bin_mean_averages_and_holds() {
        let r = binned(&[(10, 4.0), (20, 6.0), (130, 8.0)]);
        let bins = bin_mean(series_of(&r), 4);
        assert_eq!(bins[0].value, 5.0);
        assert_eq!(bins[1].value, 5.0, "empty window holds previous gauge");
        assert_eq!(bins[2].value, 8.0);
        assert_eq!(bins[3].value, 8.0, "so does a window past the last sample");
    }

    #[test]
    fn whole_bins_refuses_a_partial_last_bin() {
        let min = SimDuration::from_secs(60);
        assert_eq!(whole_bins(SimDuration::from_secs(1800), min), 30);
        let partial = std::panic::catch_unwind(|| whole_bins(SimDuration::from_secs(90), min));
        assert!(partial.is_err(), "90 s is not a whole number of 60 s bins");
    }

    #[test]
    fn cov_zero_for_constant_series() {
        let series: Vec<BinnedPoint> = (0..10)
            .map(|i| BinnedPoint {
                t: t(i),
                value: 5.0,
            })
            .collect();
        assert_eq!(coefficient_of_variation(&series), 0.0);
        assert_eq!(mean(&series), 5.0);
    }

    #[test]
    fn cov_larger_for_wilder_series() {
        let steady: Vec<BinnedPoint> = (0..100)
            .map(|i| BinnedPoint {
                t: t(i),
                value: 10.0 + (i % 2) as f64,
            })
            .collect();
        let wild: Vec<BinnedPoint> = (0..100)
            .map(|i| BinnedPoint {
                t: t(i),
                value: if i % 2 == 0 { 1.0 } else { 20.0 },
            })
            .collect();
        assert!(coefficient_of_variation(&wild) > 5.0 * coefficient_of_variation(&steady));
    }

    #[test]
    fn cov_empty_and_zero_mean_are_zero() {
        assert_eq!(coefficient_of_variation(&[]), 0.0);
        let zeros = vec![BinnedPoint {
            t: t(0),
            value: 0.0,
        }];
        assert_eq!(coefficient_of_variation(&zeros), 0.0);
    }

    #[test]
    fn pst_labels_match_figure_2_axis() {
        assert_eq!(pst_label(t(0)), "23:36:56");
        assert_eq!(pst_label(t(3600)), "00:36:56");
        // The 12-hour mark is 11:36:56, the figure's right edge.
        assert_eq!(pst_label(t(12 * 3600)), "11:36:56");
        // Judging demo at 11:00 ≈ t = 40,984 s.
        assert_eq!(pst_label(t(40_984)), "11:00:00");
    }
}
