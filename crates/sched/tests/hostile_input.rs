//! Hostile input on the scheduler's message bodies: `WorkGrant`,
//! `ProgressReport` and `Directive` must answer arbitrary, truncated and
//! mutated bytes with `Ok` or `Err`, never a panic, and never size an
//! allocation from a length field alone.

#[path = "../../../tests/support/hostile_wire.rs"]
mod hostile_wire;

use ew_sched::{Directive, ProgressReport, WorkGrant};
use ew_workload::WorkUnit;
use hostile_wire::{batter, blob, garbage};
use proptest::prelude::*;

proptest! {
    #[test]
    fn scheduler_bodies_survive_hostile_bytes(
        ids in (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
        small in (any::<bool>(), any::<u32>(), any::<u8>(), any::<u8>(), any::<f64>()),
        tail in (blob(), ".{0,12}"),
        noise in garbage(),
        flip in (any::<usize>(), any::<u8>()),
    ) {
        let (client, unit_id, steps_done, ops_done, progress) = ids;
        let (granted, arg, kind, variant, rate) = small;
        let (carry, infra) = tail;
        let grant = WorkGrant {
            granted,
            unit: WorkUnit {
                id: unit_id,
                arg0: arg,
                arg1: !arg,
                variant,
                seed: client,
                step_budget: steps_done,
                payload: carry.clone(),
            },
        };
        batter(&grant, &noise, flip)?;
        let report = ProgressReport {
            client, unit_id, steps_done, ops_done, progress, rate, carry, infra,
        };
        batter(&report, &noise, flip)?;
        batter(&Directive { kind, variant }, &noise, flip)?;
    }
}
