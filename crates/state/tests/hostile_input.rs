//! Hostile input on the persistent-state and logging bodies: all five must
//! answer arbitrary, truncated and mutated bytes with `Ok` or `Err`, never a
//! panic, and never size an allocation from a length field alone.

#[path = "../../../tests/support/hostile_wire.rs"]
mod hostile_wire;

use ew_state::{FetchReply, FetchRequest, LogRecord, StoreReply, StoreRequest};
use hostile_wire::{batter, blob, garbage};
use proptest::prelude::*;

proptest! {
    #[test]
    fn state_bodies_survive_hostile_bytes(
        texts in (".{0,12}", ".{0,12}"),
        value in blob(),
        small in (any::<u16>(), any::<bool>(), any::<u64>(), any::<f64>()),
        noise in garbage(),
        flip in (any::<usize>(), any::<u8>()),
    ) {
        let (key, reason) = texts;
        let (class, flag, source, number) = small;
        batter(&StoreRequest { key: key.clone(), class, value: value.clone() }, &noise, flip)?;
        batter(&StoreReply { accepted: flag, reason: reason.clone() }, &noise, flip)?;
        batter(&FetchRequest { key: key.clone() }, &noise, flip)?;
        batter(&FetchReply { found: flag, value }, &noise, flip)?;
        let record = LogRecord { source, category: key, text: reason, value: number };
        batter(&record, &noise, flip)?;
    }
}
