//! A DAG/workflow workload: tasks with dependency edges, issued in
//! critical-path order, completion gated on predecessors.
//!
//! The task graph is generated deterministically from a seed: `TASKS`
//! (600) nodes spread evenly over `LAYERS` (20) layers, each non-root task
//! depending on up to `FAN_IN` (3) tasks from the previous layer. A task
//! becomes *ready* only once every predecessor has completed; among ready
//! tasks the scheduler always issues the one with the longest remaining
//! critical path (the classic HEFT-style upward rank — see dslab-dag for
//! the idiom). Lost units (client died, result never arrived) are
//! reissued after `REISSUE_AFTER` (180 s), so chaos campaigns can kill
//! hosts without wedging the workflow.
//!
//! Determinism obligations: the graph depends only on `(SEED, salt)`;
//! `generate` scans plain `Vec`s (never a hash map) so unit issue order
//! is a pure function of the call sequence.

use std::ops::RangeInclusive;

use ew_sim::hashers::FxHashMap;
use ew_sim::{SimDuration, SimTime, Xoshiro256};

use crate::unit::{WorkResult, WorkUnit};
use crate::Workload;

/// Total number of tasks in the workflow.
const TASKS: usize = 600;
/// Number of dependency layers the tasks are spread over.
const LAYERS: usize = 20;
/// Tasks per layer; every layer is the same width.
const WIDTH: usize = TASKS / LAYERS;
const _: () = assert!(TASKS.is_multiple_of(LAYERS));
/// Maximum predecessors per task (drawn from the previous layer).
const FAN_IN: usize = 3;
/// Per-task step cost, drawn uniformly.
const STEPS: RangeInclusive<u64> = 1_500..=6_000;
/// Seed for the graph shape and task costs.
const SEED: u64 = 1998;
/// Reissue a granted-but-unanswered task after this long.
const REISSUE_AFTER: SimDuration = SimDuration::from_secs(180);

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum TaskState {
    Pending,
    Issued { at: SimTime },
    Done,
}

struct Task {
    layer: usize,
    steps: u64,
    preds: Vec<usize>,
    /// Longest chain of step costs from this task to a sink (inclusive).
    critical_path: u64,
    state: TaskState,
}

/// A deterministic workflow instance; see the module docs.
pub struct DagWorkload {
    salt: u64,
    tasks: Vec<Task>,
    /// Unit id → task index, for completing tasks on result arrival.
    issued_units: FxHashMap<u64, usize>,
    done: usize,
}

impl DagWorkload {
    /// Build the task graph from `(SEED, salt)`.
    pub fn new(salt: u64) -> Self {
        let mut rng = Xoshiro256::seed_from_u64(SEED ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        // Layer of task i: monotone in i, so predecessors always have a
        // smaller index — the critical-path pass below exploits this.
        let mut tasks: Vec<Task> = (0..TASKS)
            .map(|i| {
                let layer = i / WIDTH;
                let steps = rng.range_inclusive(*STEPS.start(), *STEPS.end());
                let mut preds = Vec::new();
                if layer > 0 {
                    let lo = (layer - 1) * WIDTH;
                    for _ in 0..FAN_IN {
                        let p = lo + rng.next_below(WIDTH as u64) as usize;
                        if !preds.contains(&p) {
                            preds.push(p);
                        }
                    }
                    preds.sort_unstable();
                }
                Task {
                    layer,
                    steps,
                    preds,
                    critical_path: 0,
                    state: TaskState::Pending,
                }
            })
            .collect();
        // Upward rank: cp(i) = steps(i) + max over successors cp(s).
        // Predecessor indices are strictly smaller, so one reverse pass
        // suffices: push each task's rank up into its predecessors.
        for i in (0..TASKS).rev() {
            let cp = tasks[i].critical_path + tasks[i].steps;
            tasks[i].critical_path = cp;
            for p in tasks[i].preds.clone() {
                tasks[p].critical_path = tasks[p].critical_path.max(cp);
            }
        }
        DagWorkload {
            salt,
            tasks,
            issued_units: FxHashMap::default(),
            done: 0,
        }
    }

    /// Number of completed tasks.
    pub fn completed(&self) -> usize {
        self.done
    }

    /// Total number of tasks in the workflow.
    pub fn total(&self) -> usize {
        self.tasks.len()
    }

    fn issue(&mut self, task: usize, id: u64, now: SimTime) -> WorkUnit {
        self.tasks[task].state = TaskState::Issued { at: now };
        self.issued_units.insert(id, task);
        let t = &self.tasks[task];
        WorkUnit {
            id,
            arg0: task as u32,
            arg1: t.layer as u32,
            variant: 0,
            seed: (SEED ^ self.salt)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(id),
            step_budget: t.steps,
            payload: Vec::new(),
        }
    }
}

impl Workload for DagWorkload {
    fn name(&self) -> &'static str {
        "dag"
    }

    fn generate(
        &mut self,
        id: u64,
        now: SimTime,
        _client: u64,
        _step_budget: u64,
    ) -> Option<WorkUnit> {
        // Ready = pending with every predecessor done. Pick the longest
        // remaining critical path; break ties on the lower task index.
        let mut best: Option<(u64, usize)> = None;
        for (i, t) in self.tasks.iter().enumerate() {
            if t.state != TaskState::Pending {
                continue;
            }
            if !t
                .preds
                .iter()
                .all(|&p| self.tasks[p].state == TaskState::Done)
            {
                continue;
            }
            let better = match best {
                None => true,
                Some((cp, _)) => t.critical_path > cp,
            };
            if better {
                best = Some((t.critical_path, i));
            }
        }
        if let Some((_, task)) = best {
            return Some(self.issue(task, id, now));
        }
        // Nothing newly ready: reissue the longest-outstanding unit whose
        // grant has aged past the reissue window (its holder likely died).
        let mut stale: Option<(SimTime, usize)> = None;
        for (i, t) in self.tasks.iter().enumerate() {
            if let TaskState::Issued { at } = t.state {
                if now.since(at) >= REISSUE_AFTER {
                    let older = match stale {
                        None => true,
                        Some((t0, _)) => at < t0,
                    };
                    if older {
                        stale = Some((at, i));
                    }
                }
            }
        }
        let (_, task) = stale?;
        Some(self.issue(task, id, now))
    }

    fn remake(&self, unit: &WorkUnit, variant: u8, carry: Vec<u8>, _step_budget: u64) -> WorkUnit {
        // The migrated task keeps its own cost-model budget: DAG budgets
        // are the task size, not a scheduler allotment.
        WorkUnit {
            id: unit.id,
            arg0: unit.arg0,
            arg1: unit.arg1,
            variant,
            seed: unit.id ^ 0xABCD,
            step_budget: unit.step_budget,
            payload: carry,
        }
    }

    fn on_result(&mut self, result: &WorkResult) {
        if let Some(task) = self.issued_units.get(&result.unit_id).copied() {
            if self.tasks[task].state != TaskState::Done {
                self.tasks[task].state = TaskState::Done;
                self.done += 1;
            }
        }
    }

    fn progress(&self) -> Option<f64> {
        Some(self.done as f64 / TASKS as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(w: &mut DagWorkload) -> Vec<WorkUnit> {
        let mut id = 0;
        let mut units = Vec::new();
        loop {
            match w.generate(id, SimTime::ZERO, 1, 0) {
                Some(u) => {
                    let r = WorkResult {
                        unit_id: u.id,
                        ..WorkResult::default()
                    };
                    w.on_result(&r);
                    units.push(u);
                    id += 1;
                }
                None => return units,
            }
        }
    }

    #[test]
    fn graph_is_layered_and_deterministic() {
        let a = DagWorkload::new(0);
        let b = DagWorkload::new(0);
        for (x, y) in a.tasks.iter().zip(&b.tasks) {
            assert_eq!(x.preds, y.preds);
            assert_eq!(x.steps, y.steps);
            assert_eq!(x.critical_path, y.critical_path);
        }
        // The shipped shape: 600 tasks in 20 layers of 30.
        assert_eq!(a.total(), 600);
        for layer in 0..20 {
            assert_eq!(a.tasks.iter().filter(|t| t.layer == layer).count(), 30);
        }
        for t in &a.tasks {
            assert!(STEPS.contains(&t.steps));
            if t.layer == 0 {
                assert!(t.preds.is_empty(), "a root task has no predecessors");
                continue;
            }
            // Every non-root task has 1–3 predecessors, all one layer up.
            assert!((1..=3).contains(&t.preds.len()), "{:?}", t.preds);
            for &p in &t.preds {
                assert_eq!(a.tasks[p].layer + 1, t.layer);
            }
        }
        // A different salt reshapes the instance.
        let c = DagWorkload::new(1);
        assert!(a
            .tasks
            .iter()
            .zip(&c.tasks)
            .any(|(x, y)| x.steps != y.steps));
    }

    #[test]
    fn completion_is_gated_on_predecessors() {
        let mut w = DagWorkload::new(0);
        let units = drain(&mut w);
        assert_eq!(units.len(), TASKS, "every task ran exactly once");
        assert_eq!(w.completed(), TASKS);
        assert_eq!(w.progress(), Some(1.0));
        // Completing in issue order must never issue a task before all of
        // its predecessors: check issue positions.
        let mut pos = vec![0usize; TASKS];
        for (i, u) in units.iter().enumerate() {
            pos[u.arg0 as usize] = i;
        }
        for (i, t) in w.tasks.iter().enumerate() {
            for &p in &t.preds {
                assert!(pos[p] < pos[i], "task {i} issued before pred {p}");
            }
        }
    }

    #[test]
    fn ready_tasks_come_out_in_critical_path_order() {
        let mut w = DagWorkload::new(0);
        // All of layer 0 is ready up front; issue (without completing)
        // and watch the critical path decrease monotonically.
        let mut last = u64::MAX;
        let mut id = 0;
        while let Some(u) = w.generate(id, SimTime::ZERO, 1, 0) {
            let cp = w.tasks[u.arg0 as usize].critical_path;
            assert!(cp <= last, "critical path must not increase");
            last = cp;
            id += 1;
        }
        // Only layer 0 could be issued — nothing completed.
        assert_eq!(id, WIDTH as u64);
        assert!(w.issued_units.values().all(|&t| w.tasks[t].layer == 0));
    }

    #[test]
    fn lost_units_are_reissued_after_the_window() {
        let mut w = DagWorkload::new(0);
        let first = w.generate(0, SimTime::ZERO, 1, 0).unwrap();
        // Too early: the unit is outstanding, other roots still pending.
        // Drain the remaining ready tasks without completing any.
        let mut id = 1;
        while w.generate(id, SimTime::from_secs(1), 1, 0).is_some() {
            id += 1;
        }
        let early = SimTime::ZERO + REISSUE_AFTER / 2;
        assert!(w.generate(id, early, 1, 0).is_none());
        // Past the reissue window the oldest grant comes back out.
        let late = SimTime::ZERO + REISSUE_AFTER + SimDuration::from_secs(1);
        let re = w.generate(id, late, 1, 0).unwrap();
        assert_eq!(re.arg0, first.arg0);
        assert_ne!(re.id, first.id);
        // Either grant's result completes the task exactly once.
        w.on_result(&WorkResult {
            unit_id: first.id,
            ..WorkResult::default()
        });
        w.on_result(&WorkResult {
            unit_id: re.id,
            ..WorkResult::default()
        });
        assert_eq!(w.completed(), 1);
    }
}
