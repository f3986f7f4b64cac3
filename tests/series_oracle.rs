//! Binned series against the point series they replaced. The oracle is the
//! old code transcribed: every sample kept as a `(t, v)` point, binned by
//! `bin_rate` / `bin_mean` over `[0, end)` after the run, and `total_ops`
//! summed over the points. The registry must give the same bits for every
//! normalised bin and for the `ops.<infra>` counter total, because each bin
//! adds its samples in record order, as the old loop did, and every window
//! is a whole number of bins.

use everyware::series::{bin_mean, bin_rate, whole_bins};
use everyware::BinnedPoint;
use ew_sim::{Registry, SimDuration, SimTime};
use proptest::prelude::*;

/// The old `bin_rate`, verbatim.
fn oracle_bin_rate(
    samples: &[(SimTime, f64)],
    start: SimTime,
    end: SimTime,
    width: SimDuration,
) -> Vec<BinnedPoint> {
    let w_us = width.as_micros().max(1);
    let n_bins = ((end - start).as_micros().div_ceil(w_us)) as usize;
    let mut sums = vec![0.0; n_bins];
    for &(t, v) in samples {
        if t < start || t >= end {
            continue;
        }
        let idx = ((t - start).as_micros() / w_us) as usize;
        if idx < n_bins {
            sums[idx] += v;
        }
    }
    let secs = width.as_secs_f64();
    sums.into_iter()
        .enumerate()
        .map(|(i, s)| BinnedPoint {
            t: start + width * i as u64,
            value: s / secs,
        })
        .collect()
}

/// The old `bin_mean`, verbatim.
fn oracle_bin_mean(
    samples: &[(SimTime, f64)],
    start: SimTime,
    end: SimTime,
    width: SimDuration,
) -> Vec<BinnedPoint> {
    let w_us = width.as_micros().max(1);
    let n_bins = ((end - start).as_micros().div_ceil(w_us)) as usize;
    let mut sums = vec![0.0; n_bins];
    let mut counts = vec![0u32; n_bins];
    for &(t, v) in samples {
        if t < start || t >= end {
            continue;
        }
        let idx = ((t - start).as_micros() / w_us) as usize;
        if idx < n_bins {
            sums[idx] += v;
            counts[idx] += 1;
        }
    }
    let mut out = Vec::with_capacity(n_bins);
    let mut last = 0.0;
    for i in 0..n_bins {
        if counts[i] > 0 {
            last = sums[i] / counts[i] as f64;
        }
        out.push(BinnedPoint {
            t: start + width * i as u64,
            value: last,
        });
    }
    out
}

/// One draw per sample: `(kind, random bits, value)`.
type Draw = (u8, u64, f64);

fn draws() -> impl Strategy<Value = Vec<Draw>> {
    collection::vec((0u8..5, any::<u64>(), -1e6f64..1e6), 0..200)
}

/// Sample times from `draws` over `n` bins of `width` µs: anywhere up to
/// two bins past the end, exactly at the end, on a bin edge, at the
/// previous sample's instant, or elsewhere in the previous sample's bin.
/// Few samples over many bins leave empty bins.
fn samples(width: u64, n: usize, draws: &[Draw], integral: bool) -> Vec<(u64, f64)> {
    let end = width * n as u64;
    let mut prev = 0;
    draws
        .iter()
        .map(|&(kind, r, v)| {
            let t = match kind {
                0 => r % (end + 2 * width),
                1 => end,
                2 => (r % (n as u64 + 2)) * width,
                3 => prev,
                _ => prev - prev % width + r % width,
            };
            prev = t;
            // Merged cells carry op counts: integers, whose sums are exact
            // in any grouping below 2^53.
            (t, if integral { (r >> 32) as f64 } else { v })
        })
        .collect()
}

/// Record `samples` on `ops_series.pool` (declared at `width` µs) and the
/// `ops.pool` counter, as `ComputeClient` does per `ComputeDone`.
fn cell(width: u64, samples: &[(u64, f64)]) -> Registry {
    let mut reg = Registry::new();
    let ops = reg.counter("ops.pool");
    let series = reg.declare_series("ops_series.pool", width);
    for &(t, v) in samples {
        reg.add(ops, v);
        reg.record(series, t, v);
    }
    reg
}

/// The registry's normalised bins and total against the oracle's over the
/// point series `points`.
fn check(reg: &Registry, points: &[(u64, f64)], width: u64, n: usize) -> Result<(), TestCaseError> {
    let w = SimDuration::from_micros(width);
    let end = SimTime::ZERO + w * n as u64;
    prop_assert_eq!(whole_bins(end - SimTime::ZERO, w), n);
    let points: Vec<(SimTime, f64)> = points
        .iter()
        .map(|&(t, v)| (SimTime::from_micros(t), v))
        .collect();
    let series = reg.series_get(reg.series_lookup("ops_series.pool").expect("declared"));
    let bits = |pts: Vec<BinnedPoint>| -> Vec<(SimTime, u64)> {
        pts.iter().map(|p| (p.t, p.value.to_bits())).collect()
    };
    prop_assert_eq!(
        bits(bin_rate(series, n)),
        bits(oracle_bin_rate(&points, SimTime::ZERO, end, w))
    );
    prop_assert_eq!(
        bits(bin_mean(series, n)),
        bits(oracle_bin_mean(&points, SimTime::ZERO, end, w))
    );
    // `run_sc98`'s total: once a sum over the points, now the counter.
    let ops = reg.counter_lookup("ops.pool").expect("interned");
    let total: f64 = 0.0 + reg.counter_value(ops);
    let oracle_total: f64 = 0.0 + points.iter().map(|&(_, v)| v).sum::<f64>();
    prop_assert_eq!(total.to_bits(), oracle_total.to_bits());
    Ok(())
}

proptest! {
    #[test]
    fn bins_match_the_point_series_oracle(
        width in 1u64..5_000_000,
        n in 1usize..24,
        draws in draws(),
        in_time_order: bool,
    ) {
        let mut points = samples(width, n, &draws, false);
        if in_time_order {
            // What the simulator records: the fast path of `record`.
            points.sort_by_key(|&(t, _)| t);
        }
        check(&cell(width, &points), &points, width, n)?;
    }

    #[test]
    fn merged_bins_match_the_concatenated_point_series(
        width in 1u64..5_000_000,
        n in 1usize..24,
        cells in collection::vec(draws(), 1..5),
    ) {
        // The old merge appended each cell's points in merge order.
        let mut merged = Registry::new();
        let mut points = Vec::new();
        for draws in &cells {
            let mut mine = samples(width, n, draws, true);
            mine.sort_by_key(|&(t, _)| t);
            merged.merge(&cell(width, &mine));
            points.extend(mine);
        }
        check(&merged, &points, width, n)?;
    }
}

#[test]
fn an_undeclared_series_records_nothing() {
    let mut reg = Registry::new();
    let id = reg.series("nws.rtt.1.2");
    reg.record(id, 0, 1.0);
    reg.record(id, 5_000_000, 2.0);
    let series = reg.series_get(id);
    assert_eq!((series.width_us(), series.bins()), (0, &[][..]));
    // Merged into a registry that declared it, it still adds nothing.
    let mut declared = cell(1_000_000, &[(0, 3.0)]);
    let mut undeclared = Registry::new();
    let id = undeclared.series("ops_series.pool");
    undeclared.record(id, 0, 4.0);
    declared.merge(&undeclared);
    let pool = declared.series_lookup("ops_series.pool").unwrap();
    let bins = declared.series_get(pool).bins();
    assert_eq!(
        bins.iter().map(|b| (b.sum, b.count)).collect::<Vec<_>>(),
        [(3.0, 1)]
    );
}

#[test]
#[should_panic(expected = "declared again")]
fn merging_unequal_widths_panics() {
    let mut merged = cell(60_000_000, &[(0, 1.0)]);
    merged.merge(&cell(300_000_000, &[(0, 1.0)]));
}
