//! Steady-state allocation audit for the per-RPC forecasting path.
//!
//! §2.2's mechanism — time every message, feed the battery, arm the next
//! time-out from the winner — runs on every RPC, so neither half of it may
//! touch the heap beyond a stream's one block: construction allocates
//! nothing, a stream whose measurements never vary never allocates, and the
//! first differing measurement allocates the block and its sorted windows
//! once. Most streams never
//! fill their windows (64 % of SC98's absorb fewer than 20 samples), so
//! "after warm-up" starts there. A counting global allocator wraps the
//! system allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;

use ew_forecast::{ForecastTimeout, ForecasterSet};
use ew_proto::{EventTag, TimeoutPolicy};
use ew_sim::SimDuration;

struct CountingAlloc;

thread_local! {
    // Per thread: libtest runs the tests of this file on parallel threads,
    // and a process-wide counter would bill each test for its neighbours'
    // allocations. `const`-initialised and `Cell<u64>` has no destructor, so
    // touching it from inside the allocator neither allocates nor registers
    // a TLS destructor.
    static ALLOCATED: Cell<u64> = const { Cell::new(0) };
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn bill(bytes: usize) {
    // `try_with`: the allocator can run while the thread's TLS is torn down.
    let _ = ALLOCATED.try_with(|n| n.set(n.get() + bytes as u64));
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
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

/// Bytes requested so far by the calling thread.
fn allocated() -> u64 {
    ALLOCATED.with(Cell::get)
}

/// Allocator calls made so far by the calling thread.
fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// A wandering RTT in milliseconds: the sorted windows keep reshuffling.
fn rtt_ms(i: u64) -> u64 {
    80 + (i * 37) % 61
}

#[test]
fn observe_rtt_and_timeout_for_are_allocation_free_after_warmup() {
    let tag = EventTag {
        peer: 9,
        mtype: 0x101,
    };
    let mut policy = ForecastTimeout::wan_default();
    for i in 0..60 {
        policy.observe_rtt(tag, SimDuration::from_millis(rtt_ms(i)));
    }
    let before = allocated();
    for i in 60..1060 {
        policy.observe_rtt(black_box(tag), SimDuration::from_millis(rtt_ms(i)));
        black_box(policy.timeout_for(black_box(tag)));
    }
    assert_eq!(allocated() - before, 0, "per-RPC time-out path allocated");
    assert_eq!(policy.samples(tag), 1060);
}

/// Feed `set` one measurement and read its forecast, as an RPC does.
fn update_and_predict(set: &mut ForecasterSet, x: f64) {
    set.update(black_box(x));
    let f = black_box(&*set).predict().expect("one sample absorbed");
    black_box((f.value, f.method, f.mae, f.rmse));
}

#[test]
fn update_and_predict_are_allocation_free_after_warmup() {
    let mut set = ForecasterSet::standard();
    let before = allocated();
    for _ in 0..1000 {
        update_and_predict(&mut set, 80.0);
    }
    assert_eq!(allocated() - before, 0, "a constant stream allocated");
    // `rtt_ms(0)` is 80, so the wandering series first differs at its
    // second sample: that one builds the block.
    let (before, bytes_before) = (allocations(), allocated());
    for i in 0..2 {
        update_and_predict(&mut set, rtt_ms(i) as f64);
    }
    // The standard battery's two blocks: 3 × 17 scores, 6 carried scalars
    // and a ring of 50, 107 `f64`s; and the sorted windows of 5, 10, 20 and
    // 50 as `u8` ring positions, 85 bytes. (One block of 203 `f64`s, with
    // every method a scalar slot and the windows copies of the values, was
    // `(1, 1_624)`.)
    let (made, bytes) = (allocations() - before, allocated() - bytes_before);
    assert_eq!(
        (made, bytes),
        (2, 941),
        "the first differing sample's allocations and bytes"
    );
    let before = allocated();
    for i in 2..1002 {
        update_and_predict(&mut set, rtt_ms(i) as f64);
    }
    assert_eq!(allocated() - before, 0, "battery update/predict allocated");
    assert_eq!(set.samples(), 2002);
}

#[test]
fn a_constant_rtt_allocates_only_its_class_slot() {
    let tag = EventTag {
        peer: 9,
        mtype: 0x101,
    };
    let mut policy = ForecastTimeout::wan_default();
    black_box(ForecasterSet::standard()); // the plan every class shares exists
    let (before, bytes_before) = (allocations(), allocated());
    for _ in 0..1000 {
        policy.observe_rtt(black_box(tag), SimDuration::from_millis(80));
        black_box(policy.timeout_for(black_box(tag)));
    }
    let (made, bytes) = (allocations() - before, allocated() - bytes_before);
    assert_eq!(
        made, 1,
        "the class's map slot and nothing else ({bytes} bytes)"
    );
    assert_eq!(policy.samples(tag), 1000);
}

/// One battery is built per `(peer, mtype)` tag in every client and per
/// client at the scheduler, so once the plan every standard battery shares
/// exists, construction allocates nothing: no method name is formatted (17
/// `String`s made it 25 allocations), no `Vec<Method>` is built, and the
/// block waits for the first measurement that differs.
#[test]
fn building_the_standard_battery_formats_nothing() {
    black_box(ForecasterSet::standard());
    let (before, bytes_before) = (allocations(), allocated());
    black_box(ForecasterSet::standard());
    let (made, bytes) = (allocations() - before, allocated() - bytes_before);
    assert_eq!((made, bytes), (0, 0), "ForecasterSet::standard() allocated");
}
