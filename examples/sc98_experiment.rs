//! Re-run the SC98 High-Performance Computing Challenge experiment.
//!
//! The full Figure-2 scenario: seven infrastructures, ~280 hosts, the
//! EveryWare service stack, twelve simulated hours ending at 11:36:56 PST,
//! judging contention at 11:00. Prints the headline numbers and the
//! around-the-judging-window excerpt of the 5-minute series.
//!
//! ```text
//! cargo run --release --example sc98_experiment            # full 12 h
//! cargo run --release --example sc98_experiment -- 7200    # 2-h smoke run
//! ```
//!
//! The window must be a whole number of 5-minute bins (a multiple of 300).

use everyware::{pst_label, run_sc98, Sc98Config, JUDGING_START_S, WINDOW_S};
use ew_sim::{SimDuration, SimTime};

fn main() {
    let secs: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(WINDOW_S);
    let cfg = Sc98Config {
        duration: SimDuration::from_secs(secs),
        judging: secs > JUDGING_START_S,
        ..Sc98Config::default()
    };
    eprintln!("simulating {secs} seconds of SC98 (seed {})...", cfg.seed);
    let rep = run_sc98(&cfg);

    println!("== SC98 rerun ==");
    println!("total useful ops delivered : {:.3e}", rep.total_ops);
    println!(
        "peak 5-min rate            : {:.3e} ops/s  (paper: 2.39e9)",
        rep.peak_rate
    );
    if cfg.judging {
        println!(
            "judging-window dip         : {:.3e} ops/s  (paper: 1.1e9)",
            rep.judging_min_rate
        );
        println!(
            "recovered final rate       : {:.3e} ops/s  (paper: 2.0e9)",
            rep.final_rate
        );
    }
    println!("CoV of total series        : {:.3}", rep.cov_total);
    println!();
    println!("infrastructure means (ops/s):");
    let mut rows: Vec<(String, f64)> = rep
        .per_infra
        .iter()
        .map(|(k, v)| (k.clone(), everyware::mean(v)))
        .collect();
    rows.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
    for (name, m) in rows {
        println!(
            "  {name:>9}: {m:.3e}   (CoV {:.2})",
            rep.cov_per_infra[&name]
        );
    }

    if cfg.judging {
        println!("\n5-minute series around the judging window:");
        for p in rep
            .total
            .iter()
            .filter(|p| p.t >= SimTime::from_secs(JUDGING_START_S.saturating_sub(1800)))
        {
            let bar_len = (p.value / 5e7) as usize;
            println!(
                "  {}  {:>10.3e}  {}",
                pst_label(p.t),
                p.value,
                "#".repeat(bar_len.min(60))
            );
        }
    }
}
