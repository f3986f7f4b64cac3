//! `benchmark compare A.json B.json`: A is the baseline, B the candidate.
//!
//! Per (workload, end-to-end metric) prints both values, the change, the
//! bound and a verdict. Deterministic metrics and fingerprints compare as
//! strings. `wall_s`, the fastest repetition, is `unresolved`, not `same`,
//! when on either side the fastest tenth of the repetitions ends further
//! above it than the bound (`floor_gap_pct`): the floor was not reached
//! twice. Per-layer metrics have no bound: they are listed with their
//! change, for attribution.

use crate::json::Json;
use crate::metrics::{Better, END_TO_END};

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Verdict {
    Same,
    Better,
    Worse,
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Same => "same",
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// How much worse `b` is than `a`, as a share of `a` (negative = better).
fn worsening(a: f64, b: f64, better: Better) -> f64 {
    let change = (b - a) / a.abs().max(f64::MIN_POSITIVE);
    match better {
        Better::Lower => change,
        Better::Higher => -change,
    }
}

pub fn judge(
    a: f64,
    b: f64,
    better: Better,
    bound: f64,
    deterministic: bool,
    widest_gap_pct: f64,
) -> Verdict {
    let worse_by = worsening(a, b, better);
    if deterministic {
        // Exact: any difference is a verdict, however small.
        return match (
            Json::Num(a).render() == Json::Num(b).render(),
            worse_by > 0.0,
        ) {
            (true, _) => Verdict::Same,
            (false, true) => Verdict::Worse,
            (false, false) => Verdict::Better,
        };
    }
    if widest_gap_pct > 100.0 * bound {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Worse
    } else if worse_by < -bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

fn metric_value(run: &Json, section: &str, name: &str) -> Option<f64> {
    run.get(section)?
        .get("metrics")?
        .get(name)?
        .get("value")?
        .as_f64()
}

fn info_num(run: &Json, key: &str) -> f64 {
    run.get("timed")
        .and_then(|t| t.get("info"))
        .and_then(|i| i.get(key))
        .and_then(Json::as_f64)
        .unwrap_or(0.0)
}

fn fingerprint(run: &Json) -> &str {
    run.get("timed")
        .and_then(|t| t.get("info"))
        .and_then(|i| i.get("fingerprint"))
        .and_then(Json::as_str)
        .unwrap_or("")
}

/// Print the comparison; returns how many rows are `worse`.
pub fn compare(a: &Json, b: &Json) -> Result<usize, String> {
    let empty = Json::Obj(Vec::new());
    let wa = a.get("workloads").ok_or("A has no `workloads`")?;
    let wb = b.get("workloads").unwrap_or(&empty);
    let mut worse = 0;
    println!(
        "{:<12} {:<16} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "A", "B", "change", "bound"
    );
    for (workload, run_a) in wa.entries() {
        let Some(run_b) = wb.get(workload) else {
            println!("{workload:<12} missing from B");
            worse += 1;
            continue;
        };
        let gap = info_num(run_a, "floor_gap_pct").max(info_num(run_b, "floor_gap_pct"));
        for m in &END_TO_END {
            let (Some(va), Some(vb)) = (
                metric_value(run_a, "timed", m.name),
                metric_value(run_b, "timed", m.name),
            ) else {
                continue;
            };
            // Only the repetition timing inherits the repetitions' gap.
            let gap = if m.name == "wall_s" { gap } else { 0.0 };
            let verdict = judge(va, vb, m.better, m.bound, m.deterministic, gap);
            worse += usize::from(verdict == Verdict::Worse);
            let bound = if m.deterministic {
                "exact".to_string()
            } else {
                format!("{:.0}%", 100.0 * m.bound)
            };
            println!(
                "{workload:<12} {:<16} {va:>14.6} {vb:>14.6} {:>+8.2}% {bound:>7}  {}",
                m.name,
                100.0 * (vb - va) / va.abs().max(f64::MIN_POSITIVE),
                verdict.as_str()
            );
        }
        let same = fingerprint(run_a) == fingerprint(run_b);
        worse += usize::from(!same);
        println!(
            "{workload:<12} {:<16} {:>48}  {}",
            "fingerprint",
            if same { fingerprint(run_a) } else { "differs" },
            if same { "same" } else { "worse" }
        );
    }
    println!();
    println!("per-layer metrics (traced runs; no bound, shown for attribution)");
    for (workload, run_a) in wa.entries() {
        let Some(traced) = run_a.get("traced").and_then(|t| t.get("metrics")) else {
            continue;
        };
        for (name, entry) in traced.entries() {
            let (Some(va), Some(vb)) = (
                entry.get("value").and_then(Json::as_f64),
                wb.get(workload)
                    .and_then(|r| metric_value(r, "traced", name)),
            ) else {
                continue;
            };
            let change = if va == vb {
                0.0
            } else {
                100.0 * (vb - va) / va.abs().max(f64::MIN_POSITIVE)
            };
            println!("{workload:<12} {name:<34} {va:>16.4} {vb:>16.4} {change:>+9.2}%");
        }
    }
    Ok(worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts() {
        let j = |a, b, better, det, gap| judge(a, b, better, 0.10, det, gap);
        assert_eq!(j(1.0, 1.05, Better::Lower, false, 2.0), Verdict::Same);
        assert_eq!(j(1.0, 1.2, Better::Lower, false, 2.0), Verdict::Worse);
        assert_eq!(j(1.0, 0.8, Better::Lower, false, 2.0), Verdict::Better);
        assert_eq!(j(1.0, 1.2, Better::Lower, false, 15.0), Verdict::Unresolved);
        assert_eq!(j(100.0, 80.0, Better::Higher, false, 0.0), Verdict::Worse);
        // Deterministic metrics are exact, in both directions.
        assert_eq!(
            j(396693.0, 396693.0, Better::Higher, true, 50.0),
            Verdict::Same
        );
        assert_eq!(
            j(396693.0, 396692.0, Better::Higher, true, 0.0),
            Verdict::Worse
        );
        assert_eq!(
            j(396693.0, 396694.0, Better::Higher, true, 0.0),
            Verdict::Better
        );
    }

    #[test]
    fn a_file_equals_itself_and_a_slower_copy_is_worse() {
        let run = |wall: f64| {
            Json::parse(&format!(
                r#"{{"workloads":{{"mega_rpc":{{"timed":{{"info":{{"fingerprint":"f","floor_gap_pct":1.5}},
                "metrics":{{"wall_s":{{"value":{wall},"unit":"s"}},"sim_work_units":{{"value":7,"unit":"count"}}}}}},
                "traced":{{"metrics":{{"sim.rng.next_ns":{{"value":1.1,"unit":"ns"}}}}}}}}}}}}"#
            ))
            .unwrap()
        };
        assert_eq!(compare(&run(1.0), &run(1.0)), Ok(0));
        assert_eq!(compare(&run(1.0), &run(1.3)), Ok(1));
    }
}
