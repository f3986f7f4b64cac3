//! Steady-state allocation audit for the per-RPC forecasting path.
//!
//! §2.2's mechanism — time every message, feed the battery, arm the next
//! time-out from the winner — runs on every RPC, so once the class's battery
//! is built neither half of it may touch the heap: a stream is one block
//! sized at construction, and most streams never fill their windows (64 % of
//! SC98's absorb fewer than 20 samples), so "after warm-up" starts at the
//! first sample. A counting global allocator wraps the system allocator.

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

#[test]
fn update_and_predict_are_allocation_free_after_warmup() {
    let mut set = ForecasterSet::standard();
    let before = allocated();
    for i in 0..1060 {
        set.update(black_box(rtt_ms(i) as f64));
        let f = black_box(&set).predict().expect("warm battery");
        black_box((f.value, f.method, f.mae, f.rmse));
    }
    assert_eq!(allocated() - before, 0, "battery update/predict allocated");
    assert_eq!(set.samples(), 1060);
}

/// One battery is built per `(peer, mtype)` tag in every client and per
/// client at the scheduler, so once the plan every standard battery shares
/// exists, construction is the stream's one block and nothing per method: in
/// particular no method name is formatted (17 `String`s made it 25
/// allocations) and no `Vec<Method>` is built.
#[test]
fn building_the_standard_battery_formats_nothing() {
    black_box(ForecasterSet::standard());
    let (before, bytes_before) = (allocations(), allocated());
    black_box(ForecasterSet::standard());
    let (made, bytes) = (allocations() - before, allocated() - bytes_before);
    assert!(
        made <= 1 && bytes <= 2_100,
        "ForecasterSet::standard() made {made} allocations, {bytes} bytes"
    );
}
