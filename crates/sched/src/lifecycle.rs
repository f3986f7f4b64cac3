//! The scheduler side of a unit's life (DESIGN §11.4). A [`UnitTable`]
//! holds every unit its scheduler has issued and not yet seen finish, and
//! keeps the scheduler's unit counts. It is the only writer of either:
//! every change of state goes through `step`, which admits only [`EDGES`].

use ew_sim::hashers::FxHashMap;
use ew_workload::{WorkResult, WorkUnit, Workload};

/// Reports with no objective improvement before a switch directive.
const STALL_REPORTS: u32 = 3;

/// A held unit: the identity fields `report` hands back (the payload is
/// not kept: a report carries the holder's resume state, and a remade unit
/// takes that carry), the stall state of an executing unit, and its phase,
/// `Executing` or `Migrating`. A migrating unit itself, payload included,
/// waits in the queue.
struct Held {
    seed: u64,
    step_budget: u64,
    /// The lowest objective reported while executing.
    last_best: u64,
    arg0: u32,
    arg1: u32,
    /// Reports since `last_best` last fell.
    stalls: u32,
    variant: u8,
    phase: Phase,
}

impl Held {
    fn new(unit: &WorkUnit, phase: Phase) -> Self {
        Held {
            seed: unit.seed,
            step_budget: unit.step_budget,
            last_best: u64::MAX,
            arg0: unit.arg0,
            arg1: unit.arg1,
            stalls: 0,
            variant: unit.variant,
            phase,
        }
    }

    /// The unit with id `id`, without a payload.
    fn unit(&self, id: u64) -> WorkUnit {
        WorkUnit {
            id,
            arg0: self.arg0,
            arg1: self.arg1,
            variant: self.variant,
            seed: self.seed,
            step_budget: self.step_budget,
            payload: Vec::new(),
        }
    }
}

/// Where a unit id stands: a held phase, or one of the two ends no entry
/// stands for. Ids count from 1, so an id at or below `issued` without an
/// entry is `Gone`, and any other is `Absent`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Phase {
    Absent,
    Executing,
    Migrating,
    Gone,
}

/// The legal edges: issue, regrant, migrate, complete.
const EDGES: [(Phase, Phase); 4] = [
    (Phase::Absent, Phase::Executing),
    (Phase::Migrating, Phase::Executing),
    (Phase::Executing, Phase::Migrating),
    (Phase::Executing, Phase::Gone),
];

/// Where `step` moves a unit.
enum To {
    /// Granted: a held entry for it.
    Executing(Held),
    /// Migrated: the remade unit waits in the queue.
    Migrating(WorkUnit),
    Gone,
}

/// A scheduler's unit tallies.
#[derive(Clone, Copy, Debug, Default)]
pub struct UnitCounts {
    /// Fresh units issued (the issue edge; regrants are not counted).
    pub issued: u64,
    /// RESULTs received, matched or not.
    pub results: u64,
    /// RESULTs carrying a non-empty artifact (Ramsey: counter-examples).
    pub artifacts: u64,
    /// Units taken from anomalously slow holders (the migrate edge).
    pub migrations: u64,
    /// Switch directives issued to stalled holders.
    pub switches: u64,
    /// REPORTs for a unit not executing here, answered Abandon.
    pub unknown_reports: u64,
    /// Edges refused: RESULTs that found no executing unit (a duplicate,
    /// another scheduler's unit, or the former holder of a migrated unit).
    /// Only a RESULT can be refused, because of how the scheduler calls the
    /// table, not because of `EDGES`: it grants only a new or the queued
    /// unit, and migrates only a unit `report` found executing.
    pub illegal: u64,
    /// Units held now, executing or migrating. A unit issued here is
    /// completed or held, and an unmatched RESULT completes nothing, so
    /// `issued + illegal == results + held` always.
    pub held: u64,
}

/// Every unit a scheduler has issued and not yet seen finish.
#[derive(Default)]
pub(crate) struct UnitTable {
    held: FxHashMap<u64, Held>,
    /// Migrated units, most recent last: the next grant takes the last.
    queue: Vec<WorkUnit>,
    counts: UnitCounts,
}

impl UnitTable {
    pub(crate) fn counts(&self) -> UnitCounts {
        self.counts
    }

    /// The id the next issued unit carries.
    pub(crate) fn next_id(&self) -> u64 {
        self.counts.issued + 1
    }

    /// The unit the next grant hands out again: the last one migrated.
    pub(crate) fn queued(&self) -> Option<&WorkUnit> {
        self.queue.last()
    }

    /// GET_WORK: `unit` executes — issued if new, regranted if queued.
    pub(crate) fn grant(&mut self, unit: &WorkUnit) {
        self.step(unit.id, To::Executing(Held::new(unit, Phase::Executing)));
    }

    /// REPORT: the unit, without its payload, if it executes here, else
    /// `None` (an unknown report).
    pub(crate) fn report(&mut self, id: u64) -> Option<WorkUnit> {
        let unit = match self.held.get(&id) {
            Some(held) if held.phase == Phase::Executing => Some(held.unit(id)),
            _ => None,
        };
        self.counts.unknown_reports += u64::from(unit.is_none());
        unit
    }

    /// Stall detection on a unit `report` found executing: a report that
    /// does not lower the objective is a stall, and every `STALL_REPORTS`-th
    /// in a row switches the unit to the workload's next variant, if it has
    /// one. Returns the variant and whether it changed.
    pub(crate) fn stall(&mut self, id: u64, best: u64, workload: &dyn Workload) -> (u8, bool) {
        let held = match self.held.get_mut(&id) {
            Some(held) if held.phase == Phase::Executing => held,
            _ => unreachable!("unit {id} was reported executing"),
        };
        if best < held.last_best {
            (held.last_best, held.stalls) = (best, 0);
        } else if held.stalls + 1 < STALL_REPORTS {
            held.stalls += 1;
        } else if let Some(variant) = workload.next_variant(held.variant) {
            (held.variant, held.stalls) = (variant, 0);
            self.counts.switches += 1;
            return (variant, true);
        } else {
            held.stalls = 0;
        }
        (held.variant, false)
    }

    /// Migration: `remade` waits for the next grant.
    pub(crate) fn migrate(&mut self, remade: WorkUnit) {
        self.step(remade.id, To::Migrating(remade));
    }

    /// RESULT: completes the unit if it executes here, and says so.
    pub(crate) fn result(&mut self, result: &WorkResult) -> bool {
        self.counts.results += 1;
        self.counts.artifacts += u64::from(!result.artifact.is_empty());
        self.step(result.unit_id, To::Gone)
    }

    fn phase(&self, id: u64) -> Phase {
        match self.held.get(&id) {
            Some(held) => held.phase,
            None if id <= self.counts.issued => Phase::Gone,
            None => Phase::Absent,
        }
    }

    /// The one writer of unit state: moves unit `id` to `to` and counts the
    /// edge if it is legal; otherwise counts it in `illegal` and changes
    /// nothing. The callers make grant and migrate legal by construction,
    /// so in a running scheduler the check refuses only RESULTs.
    fn step(&mut self, id: u64, to: To) -> bool {
        let from = self.phase(id);
        let target = match &to {
            To::Executing(_) => Phase::Executing,
            To::Migrating(_) => Phase::Migrating,
            To::Gone => Phase::Gone,
        };
        if !EDGES.contains(&(from, target)) {
            self.counts.illegal += 1;
            return false;
        }
        match (from, target) {
            (Phase::Absent, _) => self.counts.issued += 1,
            (Phase::Migrating, _) => {
                // A regrant always hands out `queued()`, the last migrated.
                let popped = self.queue.pop();
                debug_assert_eq!(popped.map(|u| u.id), Some(id));
            }
            (_, Phase::Migrating) => self.counts.migrations += 1,
            _ => {}
        }
        match to {
            To::Executing(held) => drop(self.held.insert(id, held)),
            To::Migrating(unit) => {
                self.held.insert(id, Held::new(&unit, Phase::Migrating));
                self.queue.push(unit);
            }
            To::Gone => drop(self.held.remove(&id)),
        }
        self.counts.held = self.held.len() as u64;
        let c = &self.counts;
        debug_assert_eq!(c.issued + c.illegal, c.results + c.held);
        true
    }

    #[cfg(test)]
    pub(crate) fn executing(&self) -> usize {
        self.held.len() - self.queue.len()
    }

    #[cfg(test)]
    pub(crate) fn migrating(&self) -> usize {
        self.queue.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit(id: u64) -> WorkUnit {
        WorkUnit {
            id,
            ..WorkUnit::default()
        }
    }

    /// Drives unit 1 towards `to` the way the scheduler would.
    fn move_to(t: &mut UnitTable, to: Phase) {
        match to {
            Phase::Absent => {}
            Phase::Executing => t.grant(&unit(1)),
            Phase::Migrating => t.migrate(unit(1)),
            Phase::Gone => drop(t.result(&WorkResult {
                unit_id: 1,
                ..WorkResult::default()
            })),
        }
    }

    #[test]
    fn exactly_the_four_edges_are_legal() {
        use Phase::*;
        let mut legal = Vec::new();
        for from in [Absent, Executing, Migrating, Gone] {
            // Nothing moves a unit to Absent: an id is never un-issued.
            for to in [Executing, Migrating, Gone] {
                let mut t = UnitTable::default();
                let path: &[Phase] = match from {
                    Absent => &[],
                    Executing => &[Executing],
                    Migrating => &[Executing, Migrating],
                    Gone => &[Executing, Gone],
                };
                path.iter().for_each(|&p| move_to(&mut t, p));
                assert_eq!((t.phase(1), t.counts.illegal), (from, 0));
                move_to(&mut t, to);
                if t.counts.illegal == 0 {
                    legal.push((from, to));
                }
                let now = if t.counts.illegal == 0 { to } else { from };
                assert_eq!(t.phase(1), now, "a refused edge changes nothing");
            }
        }
        assert_eq!(legal.len(), EDGES.len());
        assert!(legal.iter().all(|edge| EDGES.contains(edge)), "{legal:?}");
    }

    #[test]
    fn migrated_units_are_regranted_last_in_first_out() {
        let mut t = UnitTable::default();
        (1..=3).for_each(|id| t.grant(&unit(id)));
        for id in [1, 3] {
            let remade = t.report(id).expect("executing");
            t.migrate(WorkUnit {
                payload: vec![id as u8; 4],
                ..remade
            });
        }
        assert_eq!((t.executing(), t.migrating()), (1, 2));
        for id in [3, 1] {
            let next = t.queued().cloned().expect("a queued unit");
            assert_eq!((next.id, &next.payload), (id, &vec![id as u8; 4]));
            t.grant(&next);
        }
        assert_eq!((t.counts.issued, t.counts.migrations), (3, 2));
        assert_eq!((t.executing(), t.migrating()), (3, 0));
    }

    #[test]
    fn a_held_entry_is_flat_and_keeps_no_payload() {
        // One hash-map bucket is the key and the entry, and an entry with
        // no drop glue owns no heap bytes.
        assert!(std::mem::size_of::<(u64, Held)>() <= 56);
        assert!(!std::mem::needs_drop::<Held>());
        let mut t = UnitTable::default();
        let unit = WorkUnit {
            id: 1,
            arg0: 4,
            arg1: 17,
            variant: 1,
            seed: 9,
            step_budget: 5_000,
            payload: vec![7; 1024],
        };
        t.grant(&unit);
        let reported = t.report(1).expect("executing");
        assert_eq!(reported.payload, Vec::<u8>::new());
        assert_eq!(
            WorkUnit {
                payload: unit.payload.clone(),
                ..reported
            },
            unit
        );
        assert_eq!(t.counts().held, 1);
    }
}
