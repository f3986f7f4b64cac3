//! What a hostile or corrupt peer can do to one message body, shared by the
//! `hostile_input` suites of the message crates (included with `#[path]`;
//! each suite is its own binary, so each gets its own counting allocator).
//!
//! Decoding must answer `Ok` or `Err` — never panic — and must not trust a
//! length field for more memory than the bytes that actually arrived.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::fmt::Debug;

use ew_proto::wire::{WireDecode, WireEncode};
use proptest::prelude::*;

struct CountingAlloc;

thread_local! {
    // Per thread: libtest runs a suite's tests in parallel.
    static ALLOCATED: Cell<u64> = const { Cell::new(0) };
}

fn bill(bytes: usize) {
    let _ = ALLOCATED.try_with(|n| n.set(n.get() + bytes as u64));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bill(layout.size());
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bill(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Bytes the calling thread has asked the allocator for so far.
pub fn allocated() -> u64 {
    ALLOCATED.with(Cell::get)
}

/// Arbitrary bytes, as a peer that speaks another protocol would send.
pub fn garbage() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(any::<u8>(), 0..96)
}

/// Byte strings for blob fields.
pub fn blob() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(any::<u8>(), 0..40)
}

/// Batter `T`'s decoder with `noise`, with every truncation of `valid`'s
/// encoding, with one random bit-flip of it (`flip` = position, mask), and
/// with every byte of it overwritten in turn by `0x03`, `0x7f` and `0xff` —
/// which turns each `u32` length prefix into a 48 Mi+ claim (under
/// `MAX_WIRE_LEN`, so only the remaining-bytes guard can refuse it) and into
/// an over-the-bound one.
///
/// Decoding accepts canonical encodings only, so an `Ok` must re-encode to
/// exactly the bytes it was read from: a length field that overstates the
/// input can therefore only be an `Err`. Each decode may allocate a small
/// multiple of its input, whatever the length fields claim.
pub fn batter<T>(valid: &T, noise: &[u8], flip: (usize, u8)) -> Result<(), TestCaseError>
where
    T: WireEncode + WireDecode + PartialEq + Debug,
{
    let bytes = valid.to_wire();
    let back = T::from_wire(&bytes);
    prop_assert_eq!(back.as_ref(), Ok(valid));
    for cut in 0..bytes.len() {
        prop_assert!(
            T::from_wire(&bytes[..cut]).is_err(),
            "a {cut}-byte prefix of {} bytes decoded",
            bytes.len()
        );
    }
    decode_bounded::<T>(noise)?;
    if !bytes.is_empty() {
        let mut m = bytes.clone();
        m[flip.0 % bytes.len()] ^= flip.1 | 1;
        decode_bounded::<T>(&m)?;
        for i in 0..bytes.len() {
            for v in [0x03, 0x7f, 0xff] {
                let mut m = bytes.clone();
                m[i] = v;
                decode_bounded::<T>(&m)?;
            }
        }
    }
    Ok(())
}

fn decode_bounded<T>(input: &[u8]) -> Result<(), TestCaseError>
where
    T: WireEncode + WireDecode + PartialEq + Debug,
{
    let before = allocated();
    let got = T::from_wire(input);
    let spent = allocated() - before;
    let budget = 4096 + 64 * input.len() as u64;
    prop_assert!(
        spent <= budget,
        "decoding {} bytes allocated {spent} (budget {budget})",
        input.len()
    );
    if let Ok(v) = got {
        prop_assert_eq!(v.to_wire(), input, "accepted a non-canonical encoding");
    }
    Ok(())
}
