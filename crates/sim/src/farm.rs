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
//! * nothing a cell computes may read wall-clock time, and the only
//!   state cells share is the pure-job pool below, whose jobs cannot
//!   observe each other — the only nondeterministic outputs are the farm's
//!   own wall-clock stats ([`FarmStats`]), which are kept out of the
//!   deterministic artifacts and only surface in bench reports.
//!
//! `threads == 1` short-circuits to a plain sequential loop on the calling
//! thread — exactly the pre-farm behavior, no worker spawn. A cell that
//! panics ends the run with its own panic payload, at any thread count.
//!
//! Inside one world, the event loop stays on one thread; only **pure
//! jobs** leave it. [`spawn_pure`] hands a closure whose result is a
//! function of its captures alone (a real work unit, which seeds its own
//! rng) to a process-wide pool of `available_threads() − 1` workers,
//! started on the first submit, and [`Pending::join`] takes the result at
//! the simulated instant the caller would have computed it inline. So
//! neither the worker count nor which thread ran a job can show in what
//! the world does (DESIGN §7.2). `join` runs its own job if no worker has
//! claimed it, and runs other queued jobs while a worker finishes its own,
//! so the calling thread never idles while work is queued. On a 1-CPU
//! host there are no workers and every job runs at its join.

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError, Weak};
use std::thread::JoinHandle;

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

/// Lock `m`; a job's panic is caught outside every lock, so no guard is
/// ever poisoned by one.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

enum JobState<R> {
    Queued(Box<dyn FnOnce() -> R + Send>),
    Running,
    Done(std::thread::Result<R>),
}

struct Job<R> {
    state: Mutex<JobState<R>>,
    done: Condvar,
}

/// A queued job of any result type.
trait Runnable: Send + Sync {
    /// Run the job unless a thread has claimed it; a panic is kept for
    /// its `join`.
    fn run_if_queued(&self);
}

impl<R: Send> Runnable for Job<R> {
    fn run_if_queued(&self) {
        let f = {
            let mut state = lock(&self.state);
            match std::mem::replace(&mut *state, JobState::Running) {
                JobState::Queued(f) => f,
                claimed => {
                    *state = claimed;
                    return;
                }
            }
        };
        let out = catch_unwind(AssertUnwindSafe(f));
        *lock(&self.state) = JobState::Done(out);
        self.done.notify_all();
    }
}

/// The pool's FIFO. It holds weak handles: a job whose [`Pending`] was
/// dropped before a thread claimed it is gone when its turn comes.
#[derive(Default)]
struct Queue {
    inbox: Mutex<Inbox>,
    ready: Condvar,
}

#[derive(Default)]
struct Inbox {
    jobs: VecDeque<Weak<dyn Runnable>>,
    closed: bool,
}

impl Queue {
    /// A worker's loop: run jobs in submission order until the pool is
    /// closed and its queue empty.
    fn serve(&self) {
        loop {
            let job = {
                let mut inbox = lock(&self.inbox);
                loop {
                    if let Some(job) = inbox.jobs.pop_front() {
                        break job;
                    }
                    if inbox.closed {
                        return;
                    }
                    inbox = self
                        .ready
                        .wait(inbox)
                        .unwrap_or_else(PoisonError::into_inner);
                }
            };
            if let Some(job) = job.upgrade() {
                job.run_if_queued();
            }
        }
    }
}

/// A bounded pool of workers for pure jobs. [`spawn_pure`] submits to the
/// process-wide one; tests build their own.
pub(crate) struct Pool {
    queue: Arc<Queue>,
    workers: Vec<JoinHandle<()>>,
}

impl Pool {
    pub(crate) fn new(workers: usize) -> Pool {
        let queue = Arc::new(Queue::default());
        let workers = (0..workers)
            .filter_map(|i| {
                let queue = Arc::clone(&queue);
                std::thread::Builder::new()
                    .name(format!("ew-pure-{i}"))
                    .spawn(move || queue.serve())
                    .ok()
            })
            .collect();
        Pool { queue, workers }
    }

    pub(crate) fn submit<R, F>(&self, f: F) -> Pending<R>
    where
        R: Send + 'static,
        F: FnOnce() -> R + Send + 'static,
    {
        let job = Arc::new(Job {
            state: Mutex::new(JobState::Queued(Box::new(f))),
            done: Condvar::new(),
        });
        if !self.workers.is_empty() {
            let handle: Weak<dyn Runnable> = Arc::downgrade(&job) as Weak<Job<R>>;
            lock(&self.queue.inbox).jobs.push_back(handle);
            self.queue.ready.notify_one();
        }
        Pending {
            job,
            queue: Arc::clone(&self.queue),
        }
    }
}

impl Drop for Pool {
    /// Stop the workers once they have emptied the queue.
    fn drop(&mut self) {
        lock(&self.queue.inbox).closed = true;
        self.queue.ready.notify_all();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

/// The result of a job handed to [`spawn_pure`]. Dropping it before a
/// worker has started the job cancels the job.
pub struct Pending<R> {
    job: Arc<Job<R>>,
    queue: Arc<Queue>,
}

impl<R> Pending<R> {
    /// The job's result: run here if no worker has claimed the job, else
    /// run other queued jobs until the queue is empty, then wait. A job
    /// that panicked re-raises its own payload here.
    pub fn join(self) -> R {
        loop {
            let claimed = std::mem::replace(&mut *lock(&self.job.state), JobState::Running);
            match claimed {
                JobState::Queued(f) => return f(),
                JobState::Done(out) => return out.unwrap_or_else(|p| resume_unwind(p)),
                JobState::Running => {
                    // A statement of its own, so the queue is unlocked while
                    // the popped job runs.
                    let next = lock(&self.queue.inbox).jobs.pop_front();
                    match next {
                        Some(other) => {
                            if let Some(other) = other.upgrade() {
                                other.run_if_queued();
                            }
                        }
                        None => {
                            let state = lock(&self.job.state);
                            drop(
                                self.job
                                    .done
                                    .wait_while(state, |s| matches!(s, JobState::Running))
                                    .unwrap_or_else(PoisonError::into_inner),
                            );
                        }
                    }
                }
            }
        }
    }
}

/// Run `f` on the process-wide pure-job pool and return its pending
/// result. `f` must be a pure function of what it captures: its result is
/// taken at [`Pending::join`], and which thread computed it, or when,
/// must not matter. The pool starts `available_threads() − 1` workers on
/// the first call, and never more; they live as long as the process and
/// cannot panic (a job's panic is caught for its join).
pub fn spawn_pure<R, F>(f: F) -> Pending<R>
where
    R: Send + 'static,
    F: FnOnce() -> R + Send + 'static,
{
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| Pool::new(available_threads() - 1))
        .submit(f)
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

    /// Enough arithmetic that a worker is still busy when the next join
    /// comes.
    fn busy(i: u64) -> u64 {
        (0..20_000u64).fold(i, |acc, x| acc.wrapping_mul(31).wrapping_add(x ^ i))
    }

    #[test]
    fn pure_jobs_joined_in_reverse_return_their_own_results() {
        for workers in [0, 1, 3] {
            let pool = Pool::new(workers);
            let pending: Vec<_> = (0..24u64).map(|i| pool.submit(move || busy(i))).collect();
            for (i, p) in pending.into_iter().enumerate().rev() {
                assert_eq!(p.join(), busy(i as u64), "workers={workers} job {i}");
            }
        }
    }

    #[test]
    fn a_pure_job_dropped_before_it_starts_never_runs() {
        for workers in [0, 1, 3] {
            let pool = Pool::new(workers);
            // One blocker per worker, queued first, holds every worker until
            // the gate opens, so no worker can reach the job behind them.
            let gate = Arc::new(std::sync::RwLock::new(()));
            let closed = gate.write().unwrap();
            let blockers: Vec<_> = (0..workers)
                .map(|_| {
                    let gate = Arc::clone(&gate);
                    pool.submit(move || drop(gate.read().unwrap()))
                })
                .collect();
            let ran = Arc::new(std::sync::atomic::AtomicBool::new(false));
            let flag = Arc::clone(&ran);
            drop(pool.submit(move || flag.store(true, Ordering::SeqCst)));
            drop(closed);
            for b in blockers {
                b.join();
            }
            assert_eq!(pool.submit(|| 7).join(), 7);
            drop(pool);
            assert!(!ran.load(Ordering::SeqCst), "workers={workers}");
        }
    }

    #[test]
    fn a_panicking_pure_job_surfaces_its_own_message_at_join() {
        for workers in [0, 1, 3] {
            let pool = Pool::new(workers);
            let started = Arc::new(std::sync::atomic::AtomicBool::new(false));
            let flag = Arc::clone(&started);
            let failing = pool.submit(move || {
                flag.store(true, Ordering::SeqCst);
                panic!("job on {workers} workers failed");
            });
            let behind = pool.submit(|| busy(9));
            // With workers, one of them runs the job and keeps its panic for
            // the join; without, the join runs it.
            while workers > 0 && !started.load(Ordering::SeqCst) {
                std::thread::yield_now();
            }
            let panic = std::panic::catch_unwind(AssertUnwindSafe(|| failing.join()))
                .expect_err("the job panicked");
            assert_eq!(
                panic.downcast_ref::<String>().map(String::as_str),
                Some(format!("job on {workers} workers failed").as_str())
            );
            assert_eq!(behind.join(), busy(9), "workers={workers}");
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
