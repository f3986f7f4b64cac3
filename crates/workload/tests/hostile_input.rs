//! Hostile input on the work envelopes: `WorkUnit` and `WorkResult` must
//! answer arbitrary, truncated and mutated bytes with `Ok` or `Err`, never a
//! panic, and never size an allocation from a length field alone.
//! (`ExecStats` has no wire form: it never leaves the client.)

#[path = "../../../tests/support/hostile_wire.rs"]
mod hostile_wire;

use ew_workload::{WorkResult, WorkUnit};
use hostile_wire::{batter, blob, garbage};
use proptest::prelude::*;

proptest! {
    #[test]
    fn work_envelopes_survive_hostile_bytes(
        ids in (any::<u64>(), any::<u32>(), any::<u32>(), any::<u8>(), any::<u64>(), any::<u64>()),
        blobs in (blob(), blob()),
        noise in garbage(),
        flip in (any::<usize>(), any::<u8>()),
    ) {
        let (id, arg0, arg1, variant, seed, step_budget) = ids;
        let unit = WorkUnit { id, arg0, arg1, variant, seed, step_budget, payload: blobs.0.clone() };
        batter(&unit, &noise, flip)?;
        let result = WorkResult {
            unit_id: id,
            steps: step_budget,
            ops: seed,
            progress: arg0 as u64,
            artifact: blobs.0,
            carry: blobs.1,
        };
        batter(&result, &noise, flip)?;
    }
}
