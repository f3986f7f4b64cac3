//! `Vec<T>` moves through the `encode_slice` / `decode_vec` hooks (and
//! `Vec<u8>` through their one-copy overrides). The bytes on the wire are
//! part of the portability claim (§2.1), so every shape is checked against
//! an element-by-element reference encoder kept here, and hostile length
//! fields are checked against a byte-counting allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use ew_proto::wire::{WireDecode, WireEncode, WireError, MAX_WIRE_LEN};
use proptest::collection::vec as prop_vec;
use proptest::prelude::*;

struct CountingAlloc;

thread_local! {
    // Per thread: libtest runs this file's tests in parallel.
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

fn allocated() -> u64 {
    ALLOCATED.with(Cell::get)
}

/// The encoding `Vec<T>` has always had: a big-endian `u32` count, then
/// each element's own encoding in order.
fn reference<T: WireEncode>(items: &[T]) -> Vec<u8> {
    let mut out = (items.len() as u32).to_be_bytes().to_vec();
    for item in items {
        item.encode(&mut out);
    }
    out
}

fn check<T>(v: Vec<T>) -> Result<(), TestCaseError>
where
    T: WireEncode + WireDecode + PartialEq + std::fmt::Debug,
{
    let bytes = v.to_wire();
    prop_assert_eq!(&bytes, &reference(&v));
    prop_assert_eq!(Vec::<T>::from_wire(&bytes), Ok(v));
    Ok(())
}

proptest! {
    #[test]
    fn vec_u8_matches_reference_and_round_trips(v in prop_vec(any::<u8>(), 0..300)) {
        check(v)?;
    }

    #[test]
    fn vec_u16_matches_reference_and_round_trips(v in prop_vec(any::<u16>(), 0..100)) {
        check(v)?;
    }

    #[test]
    fn vec_string_matches_reference_and_round_trips(
        v in prop_vec(prop_vec(any::<u8>(), 0..20), 0..20),
    ) {
        check(v.iter().map(|b| String::from_utf8_lossy(b).into_owned()).collect())?;
    }

    #[test]
    fn nested_option_vec_u8_matches_reference_and_round_trips(
        some: bool,
        v in prop_vec(any::<u8>(), 0..300),
    ) {
        let value = some.then_some(v.clone());
        let want = if some {
            [vec![1u8], reference(&v)].concat()
        } else {
            vec![0u8]
        };
        let bytes = value.to_wire();
        prop_assert_eq!(&bytes, &want);
        prop_assert_eq!(Option::<Vec<u8>>::from_wire(&bytes), Ok(value));
    }

    #[test]
    fn truncated_vectors_are_errors(v in prop_vec(any::<u8>(), 1..300), cut in 1usize..300) {
        let bytes = v.to_wire();
        let keep = bytes.len() - cut.min(bytes.len());
        prop_assert!(Vec::<u8>::from_wire(&bytes[..keep]).is_err());
        let wide: Vec<u16> = v.iter().map(|&b| b as u16).collect();
        let bytes = wide.to_wire();
        let keep = bytes.len() - cut.min(bytes.len());
        prop_assert!(Vec::<u16>::from_wire(&bytes[..keep]).is_err());
    }
}

/// A count that passes the `MAX_WIRE_LEN` guard, followed by far fewer
/// bytes: an `Err`, and nothing like `count` bytes requested on the way.
#[test]
fn length_beyond_remaining_bytes_is_an_error_without_the_allocation() {
    const CLAIMED: u32 = 48 * 1024 * 1024;
    assert!(u64::from(CLAIMED) <= MAX_WIRE_LEN);
    let mut bytes = CLAIMED.to_be_bytes().to_vec();
    bytes.extend_from_slice(&[7; 16]);

    fn probe<T: WireDecode + std::fmt::Debug>(bytes: &[u8]) -> u64 {
        let before = allocated();
        let err = Vec::<T>::from_wire(bytes).unwrap_err();
        assert!(matches!(err, WireError::Truncated { .. }), "{err:?}");
        allocated() - before
    }
    assert!(probe::<u8>(&bytes) < 1024);
    assert!(probe::<u16>(&bytes) < 1024);
    assert!(probe::<String>(&bytes) < 1024);
    assert!(probe::<Option<Vec<u8>>>(&bytes) < 1024);

    // The hook itself bounds its reservation by the bytes that remain,
    // whatever count it is handed.
    let mut r = ew_proto::wire::WireReader::new(&bytes[4..]);
    let before = allocated();
    assert!(u16::decode_vec(&mut r, CLAIMED as usize).is_err());
    assert!(allocated() - before < 1024);
}
