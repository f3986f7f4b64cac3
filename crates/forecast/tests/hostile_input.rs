//! Hostile input on the NWS bodies: `NwsReport`, `NwsQuery` and
//! `NwsForecastReply` must answer arbitrary, truncated and mutated bytes with
//! `Ok` or `Err`, never a panic, and never size an allocation from a length
//! field alone. A float field holding a NaN or ±∞ bit pattern is an `Err`.

// No NWS body has a byte-blob field, so the support module's `blob` goes
// unused here.
#[allow(dead_code)]
#[path = "../../../tests/support/hostile_wire.rs"]
mod hostile_wire;

use ew_forecast::sensor::{NwsForecastReply, NwsQuery, NwsReport};
use ew_proto::wire::{WireDecode, WireEncode, WireError};
use hostile_wire::{batter, garbage};
use proptest::prelude::*;

/// NaN (quiet, signalling, negative) and both infinities, as bit patterns.
const NON_FINITE: [u64; 5] = [
    0x7ff8_0000_0000_0000,
    0x7ff0_0000_0000_0001,
    0xfff8_0000_0000_0000,
    0x7ff0_0000_0000_0000,
    0xfff0_0000_0000_0000,
];

/// `valid`'s encoding with the eight bytes at `at` replaced by `bits`.
fn with_float_at<T: WireEncode>(valid: &T, at: usize, bits: u64) -> Vec<u8> {
    let mut bytes = valid.to_wire();
    bytes[at..at + 8].copy_from_slice(&bits.to_be_bytes());
    bytes
}

proptest! {
    #[test]
    fn nws_bodies_survive_hostile_bytes(
        names in (".{0,12}", ".{0,12}"),
        value in any::<f64>(),
        found in any::<bool>(),
        noise in garbage(),
        flip in (any::<usize>(), any::<u8>()),
    ) {
        let (resource, method) = names;
        batter(&NwsReport { resource: resource.clone(), value }, &noise, flip)?;
        batter(&NwsQuery { resource: resource.clone() }, &noise, flip)?;
        batter(&NwsForecastReply { found, value, method }, &noise, flip)?;
    }

    #[test]
    fn non_finite_float_fields_are_an_error(
        resource in ".{0,12}",
        method in ".{0,12}",
        which in 0usize..NON_FINITE.len(),
    ) {
        let bits = NON_FINITE[which];
        // `NwsReport` is the name (u32 length + bytes), then the value.
        let report = NwsReport { resource: resource.clone(), value: 0.5 };
        let bytes = with_float_at(&report, 4 + resource.len(), bits);
        prop_assert_eq!(NwsReport::from_wire(&bytes), Err(WireError::NonFinite(bits)));
        // `NwsForecastReply` is the `found` byte, then the value.
        let reply = NwsForecastReply { found: true, value: 0.5, method };
        let bytes = with_float_at(&reply, 1, bits);
        prop_assert_eq!(NwsForecastReply::from_wire(&bytes), Err(WireError::NonFinite(bits)));
    }
}
