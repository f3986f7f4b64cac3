//! # ew-bench — figure regeneration and experiment drivers
//!
//! The `figures` binary regenerates every table and figure in the paper's
//! evaluation (see `EXPERIMENTS.md` at the workspace root). Host-time
//! numbers come from the separate `benchmark/` package, not from here.

#![warn(missing_docs)]

use everyware::{pst_label, BinnedPoint};

pub mod experiments;
pub mod mega;

/// Render a binned series as a markdown table with PST wall-clock labels.
pub fn series_table(title: &str, unit: &str, series: &[BinnedPoint]) -> String {
    let mut out = format!("### {title}\n\n| time (PST) | {unit} |\n|---|---|\n");
    for p in series {
        out.push_str(&format!("| {} | {:.4e} |\n", pst_label(p.t), p.value));
    }
    out
}

/// Render several aligned series as one markdown table.
pub fn multi_series_table(title: &str, unit: &str, columns: &[(&str, &[BinnedPoint])]) -> String {
    let mut out = format!("### {title} ({unit})\n\n| time (PST) |");
    for (name, _) in columns {
        out.push_str(&format!(" {name} |"));
    }
    out.push('\n');
    out.push_str("|---|");
    for _ in columns {
        out.push_str("---|");
    }
    out.push('\n');
    let rows = columns.iter().map(|(_, s)| s.len()).min().unwrap_or(0);
    for i in 0..rows {
        out.push_str(&format!("| {} |", pst_label(columns[0].1[i].t)));
        for (_, s) in columns {
            out.push_str(&format!(" {:.4e} |", s[i].value));
        }
        out.push('\n');
    }
    out
}

/// Serialize a binned series to JSON (seconds + value pairs).
pub fn series_json(series: &[BinnedPoint]) -> serde_json::Value {
    serde_json::Value::Array(
        series
            .iter()
            .map(|p| {
                serde_json::json!({
                    "t_secs": p.t.as_micros() / 1_000_000,
                    "pst": pst_label(p.t),
                    "value": p.value,
                })
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use ew_sim::SimTime;

    fn pts() -> Vec<BinnedPoint> {
        vec![
            BinnedPoint {
                t: SimTime::ZERO,
                value: 1.5e9,
            },
            BinnedPoint {
                t: SimTime::from_secs(300),
                value: 2.0e9,
            },
        ]
    }

    #[test]
    fn table_contains_labels_and_values() {
        let t = series_table("Fig 2", "ops/s", &pts());
        assert!(t.contains("23:36:56"));
        assert!(t.contains("23:41:56"));
        assert!(t.contains("1.5000e9"));
    }

    #[test]
    fn multi_table_aligns_columns() {
        let p = pts();
        let t = multi_series_table("Fig 3a", "ops/s", &[("unix", &p), ("nt", &p)]);
        assert!(t.contains(" unix | nt |"));
        assert_eq!(t.matches("2.0000e9").count(), 2);
    }

    #[test]
    fn json_round_trips_counts() {
        let v = series_json(&pts());
        assert_eq!(v.as_array().unwrap().len(), 2);
        assert_eq!(v[0]["t_secs"], 0);
        assert_eq!(v[1]["pst"], "23:41:56");
    }
}
