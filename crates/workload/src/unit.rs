//! Generic work envelopes — the wire types every workload shares.
//!
//! A [`WorkUnit`] tells a computational client what to do: two
//! application-defined scalar arguments, a variant selector, an RNG seed,
//! a step budget, and an opaque byte payload (resume state, task inputs —
//! whatever the workload needs to ship). A [`WorkResult`] reports back
//! steps, operation counts, a progress value (lower is better, like the
//! Ramsey objective), an artifact blob (e.g. a verified counter-example),
//! and a carry blob for migrating the unit to another client.
//!
//! The field layout is deliberately byte-identical to the original
//! Ramsey-shaped `WorkUnit`/`WorkResult` (a `RamseyProblem { k, n }`
//! encodes exactly as two inline `u32`s), so extracting the envelope from
//! the application changed nothing on the wire — the determinism tests'
//! golden hashes and every committed figure artifact prove it.

#[cfg(test)]
use ew_proto::wire::{WireDecode, WireEncode};
use ew_proto::wire_struct;

/// One schedulable unit of application work.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct WorkUnit {
    /// Unique id (issued by a scheduler).
    pub id: u64,
    /// First workload argument (Ramsey: clique size `k`; DAG: task
    /// index; faas: invocation index).
    pub arg0: u32,
    /// Second workload argument (Ramsey: vertex count `n`; DAG: task
    /// layer; faas: 1 when the invocation pays a cold start).
    pub arg1: u32,
    /// Variant selector (Ramsey: heuristic kind — 0 greedy, 1 tabu,
    /// 2 annealing).
    pub variant: u8,
    /// RNG seed for whatever randomized computation the unit performs.
    pub seed: u64,
    /// Steps to run before reporting back.
    pub step_budget: u64,
    /// Opaque workload payload; for migratable work this is the resume
    /// state from the previous holder (empty = fresh start).
    pub payload: Vec<u8>,
}

wire_struct!(WorkUnit {
    id,
    arg0,
    arg1,
    variant,
    seed,
    step_budget,
    payload
});

/// A client's report after exhausting a unit's budget (or solving it).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct WorkResult {
    /// The unit this answers.
    pub unit_id: u64,
    /// Steps actually executed.
    pub steps: u64,
    /// Useful integer operations expended (the paper's conservative count).
    pub ops: u64,
    /// Best objective value reached (lower is better; Ramsey: the
    /// monochromatic-clique count).
    pub progress: u64,
    /// Serialized artifact, if the unit produced one (Ramsey: a verified
    /// counter-example ready for the persistent state service).
    pub artifact: Vec<u8>,
    /// Resume state for migrating the unit to another client (Ramsey:
    /// the final coloring).
    pub carry: Vec<u8>,
}

wire_struct!(WorkResult {
    unit_id,
    steps,
    ops,
    progress,
    artifact,
    carry
});

/// Kernel counters a real execution reports alongside its result.
///
/// The names are generic (cache, workspace) so non-Ramsey workloads can
/// reuse them; the sched client maps them onto the `ramsey.*` telemetry
/// series unchanged.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ExecStats {
    /// Incremental-cache lookups served.
    pub cache_lookups: u64,
    /// Incremental cache mutations applied.
    pub cache_mutations: u64,
    /// Cache entries rebuilt from scratch.
    pub cache_refreshed: u64,
    /// Scratch-arena bytes held at the end of the run.
    pub workspace_bytes: u64,
    /// Cache bytes held at the end of the run.
    pub cache_bytes: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn work_unit_wire_round_trip() {
        let u = WorkUnit {
            id: 77,
            arg0: 5,
            arg1: 43,
            variant: 1,
            seed: 0xDEAD,
            step_budget: 1000,
            payload: vec![1, 2, 3],
        };
        let bytes = u.to_wire();
        assert_eq!(WorkUnit::from_wire(&bytes).unwrap(), u);
    }

    #[test]
    fn work_result_wire_round_trip() {
        let r = WorkResult {
            unit_id: 77,
            steps: 500,
            ops: 123456,
            progress: 3,
            artifact: vec![],
            carry: vec![9, 9],
        };
        assert_eq!(WorkResult::from_wire(&r.to_wire()).unwrap(), r);
    }

    // The pre-redesign Ramsey-shaped wire layout, reproduced literally.
    // The envelope must encode byte-for-byte the same, or every golden
    // event-order hash and committed figure artifact changes.
    #[derive(Clone, Debug, PartialEq, Eq)]
    struct LegacyProblem {
        k: u32,
        n: u32,
    }
    wire_struct!(LegacyProblem { k, n });

    #[derive(Clone, Debug, PartialEq, Eq)]
    struct LegacyUnit {
        id: u64,
        problem: LegacyProblem,
        heuristic: u8,
        seed: u64,
        step_budget: u64,
        start_graph: Vec<u8>,
    }
    wire_struct!(LegacyUnit {
        id,
        problem,
        heuristic,
        seed,
        step_budget,
        start_graph
    });

    #[derive(Clone, Debug, PartialEq, Eq)]
    struct LegacyResult {
        unit_id: u64,
        steps: u64,
        ops: u64,
        best_count: u64,
        counter_example: Vec<u8>,
        final_graph: Vec<u8>,
    }
    wire_struct!(LegacyResult {
        unit_id,
        steps,
        ops,
        best_count,
        counter_example,
        final_graph
    });

    #[test]
    fn unit_envelope_is_byte_identical_to_the_legacy_layout() {
        let legacy = LegacyUnit {
            id: 42,
            problem: LegacyProblem { k: 5, n: 43 },
            heuristic: 2,
            seed: 0xBEEF,
            step_budget: 6000,
            start_graph: vec![0xA5; 115],
        };
        let generic = WorkUnit {
            id: 42,
            arg0: 5,
            arg1: 43,
            variant: 2,
            seed: 0xBEEF,
            step_budget: 6000,
            payload: vec![0xA5; 115],
        };
        assert_eq!(legacy.to_wire(), generic.to_wire());
        // Cross-decode both ways.
        assert_eq!(WorkUnit::from_wire(&legacy.to_wire()).unwrap(), generic);
        assert_eq!(LegacyUnit::from_wire(&generic.to_wire()).unwrap(), legacy);
    }

    #[test]
    fn result_envelope_is_byte_identical_to_the_legacy_layout() {
        let legacy = LegacyResult {
            unit_id: 7,
            steps: 900,
            ops: 1_000_000,
            best_count: 4,
            counter_example: vec![1, 2],
            final_graph: vec![3, 4, 5],
        };
        let generic = WorkResult {
            unit_id: 7,
            steps: 900,
            ops: 1_000_000,
            progress: 4,
            artifact: vec![1, 2],
            carry: vec![3, 4, 5],
        };
        assert_eq!(legacy.to_wire(), generic.to_wire());
        assert_eq!(WorkResult::from_wire(&legacy.to_wire()).unwrap(), generic);
        assert_eq!(LegacyResult::from_wire(&generic.to_wire()).unwrap(), legacy);
    }

    mod prop {
        use super::*;
        use proptest::collection::vec as pvec;
        use proptest::prelude::*;

        proptest! {
            // The satellite coverage: arbitrary opaque payloads survive
            // the lingua-franca wire round trip for both envelopes.
            #[test]
            fn unit_round_trips_any_payload(
                id in any::<u64>(),
                arg0 in any::<u32>(),
                arg1 in any::<u32>(),
                variant in any::<u8>(),
                seed in any::<u64>(),
                step_budget in any::<u64>(),
                payload in pvec(any::<u8>(), 0..256),
            ) {
                let u = WorkUnit { id, arg0, arg1, variant, seed, step_budget, payload };
                prop_assert_eq!(WorkUnit::from_wire(&u.to_wire()).unwrap(), u);
            }

            #[test]
            fn result_round_trips_any_blobs(
                unit_id in any::<u64>(),
                steps in any::<u64>(),
                ops in any::<u64>(),
                progress in any::<u64>(),
                artifact in pvec(any::<u8>(), 0..256),
                carry in pvec(any::<u8>(), 0..256),
            ) {
                let r = WorkResult { unit_id, steps, ops, progress, artifact, carry };
                prop_assert_eq!(WorkResult::from_wire(&r.to_wire()).unwrap(), r);
            }
        }
    }
}
