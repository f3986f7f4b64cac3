//! The sim farm: run independent simulation cells on all available cores
//! with byte-identical output.
//!
//! The paper's evaluation is a sweep — many self-contained Grid runs under
//! different seeds, fault regimes, and policy arms — and EveryWare itself
//! existed to extract uniform delivered power from many processors at
//! once. This module is the same idea applied to the reproduction's own
//! harness: every campaign cell, figure experiment, and ablation arm is an
//! isolated deterministic simulation (its own [`Sim`](crate::Sim) kernel,
//! its own telemetry [`Registry`], rng streams derived from the cell key),
//! so cells can execute concurrently on scoped worker threads and still
//! produce artifacts that are **byte-identical regardless of thread count
//! or scheduling**:
//!
//! * workers claim cells from one shared cursor, so uneven cells balance,
//!   and every result is placed by its **input index**, never by
//!   completion order;
//! * per-cell registries are folded back with the deterministic
//!   [`Registry::merge`] path, again in input-index order;
//! * nothing a cell computes may read wall-clock time or shared mutable
//!   state — the only nondeterministic outputs are the farm's own
//!   wall-clock stats ([`FarmStats`]), which are kept out of the
//!   deterministic artifacts and only surface in bench reports.
//!
//! `threads == 1` short-circuits to a plain sequential loop on the calling
//! thread — exactly the pre-farm behavior, no worker spawn. A cell that
//! panics ends the run with its own panic payload, at any thread count.

use std::sync::atomic::{AtomicUsize, Ordering};

use ew_telemetry::Registry;

/// Worker count of the host (`available_parallelism`, floor 1).
pub fn available_threads() -> usize {
    std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
}

/// Resolve the farm worker count: an explicit request (CLI `--threads`)
/// wins, else the host's available parallelism. Always at least 1.
pub fn resolve_threads(explicit: Option<usize>) -> usize {
    explicit.map_or_else(available_threads, |n| n.max(1))
}

/// What one farm run cost. Wall-clock is host time, not simulated time —
/// it is deliberately excluded from deterministic artifacts.
#[derive(Clone, Copy, Debug)]
pub struct FarmStats {
    /// Cells executed.
    pub cells: usize,
    /// Worker threads used.
    pub threads: usize,
    /// Host wall-clock for the whole farm run, in milliseconds.
    pub wall_ms: f64,
}

impl FarmStats {
    /// Record this run as farm telemetry (`farm.cells`, `farm.threads`,
    /// `farm.wall_ms`) into a registry — normally the campaign-level
    /// registry the per-cell registries were merged into.
    pub fn record(&self, reg: &mut Registry) {
        let c = reg.counter("farm.cells");
        reg.add(c, self.cells as f64);
        let t = reg.gauge("farm.threads");
        reg.set_gauge(t, self.threads as f64);
        let w = reg.gauge("farm.wall_ms");
        reg.set_gauge(w, self.wall_ms);
    }
}

/// Execute `f` over every item on `threads` workers and return the results
/// in input order, plus wall-clock stats.
///
/// `f` must be a pure function of `(index, item)` — each invocation builds
/// its own kernel/registry/rng world from the cell key — which is what
/// makes the output independent of scheduling. With `threads <= 1` (or a
/// single item) the loop runs inline on the calling thread.
pub fn run_farm<I, R, F>(threads: usize, items: &[I], f: F) -> (Vec<R>, FarmStats)
where
    I: Sync,
    R: Send,
    F: Fn(usize, &I) -> R + Sync,
{
    let start = std::time::Instant::now();
    let threads = threads.max(1).min(items.len().max(1));
    let results = if threads <= 1 {
        items.iter().enumerate().map(|(i, it)| f(i, it)).collect()
    } else {
        let cursor = AtomicUsize::new(0);
        let worker = || {
            let mut done = Vec::new();
            loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(it) = items.get(i) else {
                    return done;
                };
                done.push((i, f(i, it)));
            }
        };
        let mut done = std::thread::scope(|s| {
            let workers: Vec<_> = (0..threads).map(|_| s.spawn(worker)).collect();
            // Joined one by one, so a cell's panic re-raises with its own
            // payload rather than as a join error.
            let mut done = Vec::with_capacity(items.len());
            for w in workers {
                done.extend(w.join().unwrap_or_else(|p| std::panic::resume_unwind(p)));
            }
            done
        });
        // Every index was claimed exactly once: order the results by it.
        done.sort_unstable_by_key(|&(i, _)| i);
        done.into_iter().map(|(_, r)| r).collect()
    };
    let stats = FarmStats {
        cells: items.len(),
        threads,
        wall_ms: start.elapsed().as_secs_f64() * 1e3,
    };
    (results, stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_in_input_order_for_any_thread_count() {
        let items: Vec<u64> = (0..100).collect();
        let (seq, seq_stats) = run_farm(1, &items, |i, &x| (i as u64) * 1_000 + x * x);
        for threads in [2, 3, 8] {
            let (par, stats) = run_farm(threads, &items, |i, &x| (i as u64) * 1_000 + x * x);
            assert_eq!(par, seq, "threads={threads} changed the result order");
            assert_eq!(stats.cells, 100);
            assert_eq!(stats.threads, threads);
        }
        assert_eq!(seq_stats.threads, 1);
    }

    #[test]
    fn thread_count_is_clamped_to_items() {
        let items = [1u32, 2];
        let (out, stats) = run_farm(16, &items, |_, &x| x * 10);
        assert_eq!(out, vec![10, 20]);
        assert_eq!(stats.threads, 2);
    }

    #[test]
    fn empty_farm_is_fine() {
        let items: [u32; 0] = [];
        let (out, stats) = run_farm(4, &items, |_, &x| x);
        assert!(out.is_empty());
        assert_eq!(stats.cells, 0);
    }

    #[test]
    fn a_panicking_cell_surfaces_its_own_message() {
        let items: Vec<u32> = (0..16).collect();
        for threads in [1, 2, 8] {
            let run = std::panic::catch_unwind(|| {
                run_farm(threads, &items, |_, &x| {
                    if x == 11 {
                        panic!("cell {x} failed");
                    }
                    x
                })
            });
            let panic = run.expect_err("no partial Vec comes back");
            assert_eq!(
                panic.downcast_ref::<String>().map(String::as_str),
                Some("cell 11 failed"),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn resolve_threads_prefers_explicit_then_host() {
        assert_eq!(resolve_threads(Some(3)), 3);
        assert_eq!(resolve_threads(Some(0)), 1);
        assert_eq!(resolve_threads(None), available_threads());
    }

    #[test]
    fn merged_cell_registries_carry_farm_telemetry() {
        let cell = |units: f64| {
            let mut r = Registry::new();
            let c = r.counter("client.units_completed");
            r.add(c, units);
            r
        };
        let cells = vec![cell(3.0), cell(4.0)];
        let stats = FarmStats {
            cells: 2,
            threads: 2,
            wall_ms: 1.5,
        };
        let mut merged = Registry::new();
        for cell in &cells {
            merged.merge(cell);
        }
        stats.record(&mut merged);
        let u = merged.counter_lookup("client.units_completed").unwrap();
        assert_eq!(merged.counter_value(u), 7.0);
        let fc = merged.counter_lookup("farm.cells").unwrap();
        assert_eq!(merged.counter_value(fc), 2.0);
    }
}
