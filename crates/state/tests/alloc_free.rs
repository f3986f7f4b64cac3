//! Steady-state allocation audit for the logging service.
//!
//! Every progress report a scheduler handles is forwarded to the
//! [`LogServer`] (§3.1.3), so `append` runs once per report for the whole
//! run. Once its ring is full and its categories exist, an append moves the
//! sender's record into the ring and drops the oldest one: it must not
//! allocate. A counting global allocator wraps the system allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use ew_sim::SimTime;
use ew_state::{LogRecord, LogServer};

struct CountingAlloc;

thread_local! {
    // Per thread: libtest runs tests on parallel threads. `const`-initialised
    // `Cell<u64>` has no destructor, so touching it from inside the allocator
    // neither allocates nor registers a TLS destructor.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn bill() {
    // `try_with`: the allocator can run while the thread's TLS is torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bill();
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bill();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocator calls made so far by the calling thread.
fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

fn record(i: u64) -> LogRecord {
    LogRecord {
        source: i,
        category: if i.is_multiple_of(2) { "perf" } else { "grant" }.into(),
        text: String::new(),
        value: i as f64,
    }
}

#[test]
fn append_to_an_existing_category_allocates_nothing_once_the_ring_is_full() {
    const CAPACITY: u64 = 64;
    let mut log = LogServer::new(CAPACITY as usize);
    for i in 0..CAPACITY {
        log.append(SimTime::from_secs(i), record(i));
    }
    // The records are built first: their strings are the sender's
    // allocations, not the log server's.
    let batch: Vec<LogRecord> = (CAPACITY..CAPACITY + 1_000).map(record).collect();
    let before = allocations();
    for rec in batch {
        log.append(SimTime::from_secs(rec.source), rec);
    }
    assert_eq!(allocations() - before, 0, "append allocated");
    assert_eq!(log.total, CAPACITY + 1_000);
    assert_eq!(log.recent().count() as u64, CAPACITY);
}
