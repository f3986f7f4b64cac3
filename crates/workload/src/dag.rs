//! A DAG/workflow workload: tasks with dependency edges, issued in
//! critical-path order, completion gated on predecessors.
//!
//! The task graph is generated deterministically from a seed: `tasks`
//! nodes spread over `layers` layers, each non-root task depending on up
//! to `fan_in` tasks from the previous layer. A task becomes *ready* only
//! once every predecessor has completed; among ready tasks the scheduler
//! always issues the one with the longest remaining critical path (the
//! classic HEFT-style upward rank — see dslab-dag for the idiom). Lost
//! units (client died, result never arrived) are reissued after
//! `reissue_after`, so chaos campaigns can kill hosts without wedging the
//! workflow.
//!
//! Determinism obligations: the graph depends only on `(seed, salt)`;
//! `generate` scans plain `Vec`s (never a hash map) so unit issue order
//! is a pure function of the call sequence.

use ew_sim::hashers::FxHashMap;
use ew_sim::{SimDuration, SimTime, Xoshiro256};

use crate::unit::{WorkResult, WorkUnit};
use crate::Workload;

/// Configuration for the DAG workflow workload.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DagConfig {
    /// Total number of tasks in the workflow.
    pub tasks: usize,
    /// Number of dependency layers the tasks are spread over.
    pub layers: usize,
    /// Maximum predecessors per task (drawn from the previous layer).
    pub fan_in: usize,
    /// Smallest per-task step cost.
    pub min_steps: u64,
    /// Largest per-task step cost.
    pub max_steps: u64,
    /// Seed for the graph shape and task costs.
    pub seed: u64,
    /// Reissue a granted-but-unanswered task after this long.
    pub reissue_after: SimDuration,
}

impl Default for DagConfig {
    fn default() -> Self {
        DagConfig {
            tasks: 600,
            layers: 20,
            fan_in: 3,
            min_steps: 1_500,
            max_steps: 6_000,
            seed: 1998,
            reissue_after: SimDuration::from_secs(180),
        }
    }
}

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
    cfg: DagConfig,
    salt: u64,
    tasks: Vec<Task>,
    /// Unit id → task index, for completing tasks on result arrival.
    issued_units: FxHashMap<u64, usize>,
    done: usize,
}

impl DagWorkload {
    /// Build the task graph from `(cfg.seed, salt)`.
    pub fn new(cfg: DagConfig, salt: u64) -> Self {
        let mut rng =
            Xoshiro256::seed_from_u64(cfg.seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let n = cfg.tasks.max(1);
        let layers = cfg.layers.clamp(1, n);
        let mut tasks: Vec<Task> = Vec::with_capacity(n);
        // Layer of task i: monotone in i, so predecessors always have a
        // smaller index — the critical-path pass below exploits this.
        let layer_of = |i: usize| i * layers / n;
        let mut layer_start = vec![0usize; layers + 1];
        for i in 0..n {
            layer_start[layer_of(i) + 1] = i + 1;
        }
        for l in 1..=layers {
            layer_start[l] = layer_start[l].max(layer_start[l - 1]);
        }
        for i in 0..n {
            let layer = layer_of(i);
            let steps = rng.range_inclusive(cfg.min_steps.min(cfg.max_steps), cfg.max_steps);
            let mut preds = Vec::new();
            if layer > 0 {
                let (lo, hi) = (layer_start[layer - 1], layer_start[layer]);
                let prev_len = hi - lo;
                let want = cfg.fan_in.clamp(1, prev_len);
                for _ in 0..want {
                    let p = lo + rng.next_below(prev_len as u64) as usize;
                    if !preds.contains(&p) {
                        preds.push(p);
                    }
                }
                preds.sort_unstable();
            }
            tasks.push(Task {
                layer,
                steps,
                preds,
                critical_path: 0,
                state: TaskState::Pending,
            });
        }
        // Upward rank: cp(i) = steps(i) + max over successors cp(s).
        // Predecessor indices are strictly smaller, so one reverse pass
        // suffices: push each task's rank up into its predecessors.
        for i in (0..n).rev() {
            let cp = tasks[i].critical_path + tasks[i].steps;
            tasks[i].critical_path = cp;
            for p in tasks[i].preds.clone() {
                tasks[p].critical_path = tasks[p].critical_path.max(cp);
            }
        }
        DagWorkload {
            cfg,
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
            seed: (self.cfg.seed ^ self.salt)
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
                if now.since(at) >= self.cfg.reissue_after {
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
        Some(self.done as f64 / self.tasks.len().max(1) as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> DagConfig {
        DagConfig {
            tasks: 30,
            layers: 5,
            fan_in: 2,
            min_steps: 100,
            max_steps: 200,
            seed: 7,
            reissue_after: SimDuration::from_secs(60),
        }
    }

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
        let a = DagWorkload::new(small(), 0);
        let b = DagWorkload::new(small(), 0);
        for (x, y) in a.tasks.iter().zip(&b.tasks) {
            assert_eq!(x.preds, y.preds);
            assert_eq!(x.steps, y.steps);
            assert_eq!(x.critical_path, y.critical_path);
        }
        // Every predecessor sits exactly one layer up.
        for t in &a.tasks {
            for &p in &t.preds {
                assert_eq!(a.tasks[p].layer + 1, t.layer);
            }
        }
        // A different salt reshapes the instance.
        let c = DagWorkload::new(small(), 1);
        assert!(a
            .tasks
            .iter()
            .zip(&c.tasks)
            .any(|(x, y)| x.steps != y.steps));
    }

    #[test]
    fn completion_is_gated_on_predecessors() {
        let mut w = DagWorkload::new(small(), 0);
        let units = drain(&mut w);
        assert_eq!(units.len(), 30, "every task ran exactly once");
        assert_eq!(w.completed(), 30);
        assert_eq!(w.progress(), Some(1.0));
        // Completing in issue order must never issue a task before all of
        // its predecessors: check issue positions.
        let mut pos = vec![0usize; 30];
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
        let mut w = DagWorkload::new(small(), 0);
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
        assert!(w.issued_units.values().all(|&t| w.tasks[t].layer == 0));
    }

    #[test]
    fn lost_units_are_reissued_after_the_window() {
        let mut w = DagWorkload::new(small(), 0);
        let first = w.generate(0, SimTime::ZERO, 1, 0).unwrap();
        // Too early: the unit is outstanding, other roots still pending.
        // Drain the remaining ready tasks without completing any.
        let mut id = 1;
        while w.generate(id, SimTime::from_secs(1), 1, 0).is_some() {
            id += 1;
        }
        assert!(w.generate(id, SimTime::from_secs(30), 1, 0).is_none());
        // Past the reissue window the oldest grant comes back out.
        let re = w.generate(id, SimTime::from_secs(61), 1, 0).unwrap();
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
