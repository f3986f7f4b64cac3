//! Live deployment: the toolkit on real TCP, real threads, real search.
//!
//! The simulator substitutes for the 1998 Grid in the figure-regeneration
//! experiments, but the toolkit itself is not simulation-bound: this module
//! runs an actual scheduler and actual worker processes over
//! [`ew_proto::tcp`], executing genuine Ramsey work units and verifying any
//! counter-example found. The `ramsey_search` example drives it to prove
//! `R(3) > 5` and `R(4) > 17` on the local machine.

use std::collections::BTreeSet;
use std::time::{Duration, Instant};

use ew_proto::tcp::TcpNode;
use ew_proto::{Packet, WireEncode};
use ew_ramsey::{ColoredGraph, RamseyProblem};
use ew_sched::{scm, WorkGrant};
use ew_sim::SimTime;
use ew_workload::{execute_unit, ramsey_validator, RamseyWorkload, WorkResult, Workload};

/// Live-run configuration. A run stops at the first verified
/// counter-example.
#[derive(Clone, Debug)]
pub struct LiveConfig {
    /// Worker processes (threads, each with its own TCP endpoint).
    pub workers: usize,
    /// Problem to search.
    pub problem: RamseyProblem,
    /// Steps per unit.
    pub step_budget: u64,
    /// Units to issue in total.
    pub units: u64,
    /// Wall-clock cap.
    pub deadline: Duration,
}

/// Outcome of a live run.
pub struct LiveOutcome {
    /// Results received (at most `units`).
    pub results: Vec<WorkResult>,
    /// Verified counter-examples found.
    pub witnesses: Vec<ColoredGraph>,
    /// Total useful ops across all workers.
    pub total_ops: u64,
    /// Distinct workers that completed at least one unit.
    pub workers_heard: usize,
    /// Wall-clock time spent.
    pub elapsed: Duration,
}

/// Run a scheduler + `workers` live worker threads over loopback TCP.
pub fn run_live(cfg: &LiveConfig) -> std::io::Result<LiveOutcome> {
    let sched = TcpNode::bind("127.0.0.1:0")?;
    let sched_addr = sched.local_addr();
    let started = Instant::now();

    let worker_handles: Vec<_> = (0..cfg.workers)
        .map(|i| {
            std::thread::spawn(move || {
                let mut node = match TcpNode::bind("127.0.0.1:0") {
                    Ok(n) => n,
                    Err(_) => return,
                };
                let mut corr = (i as u64 + 1) << 32;
                loop {
                    corr += 1;
                    if node
                        .send(sched_addr, &Packet::request(scm::GET_WORK, corr, vec![]))
                        .is_err()
                    {
                        return; // scheduler gone: run is over
                    }
                    let Some(inc) = node.recv_timeout(Duration::from_secs(10)) else {
                        return;
                    };
                    let Ok(grant) = inc.packet.body::<WorkGrant>() else {
                        return;
                    };
                    if !grant.granted {
                        return; // no more work
                    }
                    let (result, _stats) = execute_unit(&grant.unit);
                    corr += 1;
                    if node
                        .send(
                            sched_addr,
                            &Packet::request(scm::RESULT, corr, result.to_wire()),
                        )
                        .is_err()
                    {
                        return;
                    }
                    // Ack (ignore content; a timeout just ends the loop
                    // iteration — the result was already delivered or not).
                    let _ = node.recv_timeout(Duration::from_secs(10));
                }
            })
        })
        .collect();

    // Scheduler loop: issue units, collect results, verify witnesses —
    // with the simulated scheduler's unit generator and the persistent
    // state server's validator.
    let mut workload = RamseyWorkload::new(cfg.problem, 0);
    let validate = ramsey_validator();
    let witness_key = format!("ramsey/best/{}", cfg.problem.k);
    let mut next_unit = 0u64;
    let mut results: Vec<WorkResult> = Vec::new();
    let mut witnesses = Vec::new();
    let mut workers_heard = BTreeSet::new();
    let mut done = false;
    while !done && started.elapsed() < cfg.deadline {
        let Some(mut inc) = sched.recv_timeout(Duration::from_millis(200)) else {
            // No traffic; if all units are out and answered, finish.
            if results.len() as u64 >= cfg.units {
                break;
            }
            continue;
        };
        match inc.packet.mtype {
            scm::GET_WORK => {
                let granted = next_unit < cfg.units && witnesses.is_empty();
                let unit = workload
                    .generate(next_unit, SimTime::ZERO, 0, cfg.step_budget)
                    .expect("the Ramsey supply is infinite");
                if granted {
                    next_unit += 1;
                }
                let grant = WorkGrant { granted, unit };
                let _ = inc.reply(&Packet::response_to(&inc.packet, grant.to_wire()));
            }
            scm::RESULT => {
                if let Ok(result) = inc.packet.body::<WorkResult>() {
                    workers_heard.insert(inc.peer);
                    if validate(&witness_key, &result.artifact).is_ok() {
                        witnesses.extend(ColoredGraph::from_bytes(&result.artifact));
                    }
                    results.push(result);
                    let _ = inc.reply(&Packet::response_to(&inc.packet, vec![]));
                    done = results.len() as u64 >= cfg.units || !witnesses.is_empty();
                }
            }
            _ => {}
        }
    }
    drop(sched); // closes the listener; workers' sends start failing
    for h in worker_handles {
        let _ = h.join();
    }
    Ok(LiveOutcome {
        total_ops: results.iter().map(|r| r.ops).sum(),
        witnesses,
        workers_heard: workers_heard.len(),
        results,
        elapsed: started.elapsed(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn live_run_finds_r3_witness_over_real_tcp() {
        let out = run_live(&LiveConfig {
            workers: 3,
            problem: RamseyProblem { k: 3, n: 5 },
            step_budget: 1_000,
            units: 12,
            deadline: Duration::from_secs(30),
        })
        .expect("bind loopback");
        assert!(
            !out.witnesses.is_empty(),
            "R(3) > 5 witness must be found live"
        );
        for w in &out.witnesses {
            assert_eq!(w.n(), 5);
        }
        assert!(out.total_ops > 0);
        assert!(!out.results.is_empty());
    }

    #[test]
    fn live_run_without_witness_drains_all_units() {
        // R(3) = 6: no counter-example on 6 vertices exists, so the run
        // issues and collects every unit.
        let out = run_live(&LiveConfig {
            workers: 2,
            problem: RamseyProblem { k: 3, n: 6 },
            step_budget: 300,
            units: 6,
            deadline: Duration::from_secs(30),
        })
        .expect("bind loopback");
        assert!(out.witnesses.is_empty());
        assert_eq!(out.results.len(), 6);
        assert!(out.workers_heard >= 1);
    }
}
