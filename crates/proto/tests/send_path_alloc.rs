//! Allocation audit for the simulated send path.
//!
//! A counting global allocator wraps the system allocator. After warm-up,
//! one send — `WireEncode::to_wire_payload` for the body, then
//! `Packet::to_sim_payload` for the frame — must make exactly four
//! allocations (a `Vec` and an `Arc` per payload) and no reallocation:
//! the capacity hints are exact and no step copies the body a second
//! time.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static REALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        REALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn counts() -> (u64, u64) {
    (
        ALLOCS.load(Ordering::Relaxed),
        REALLOCS.load(Ordering::Relaxed),
    )
}

use ew_proto::{mtype, Packet, WireEncode};

/// A small request body, shaped like the gossip/scheduler messages that
/// dominate steady-state traffic.
struct Body {
    a: u64,
    b: u32,
    tail: [u8; 24],
}

impl WireEncode for Body {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.a.to_le_bytes());
        out.extend_from_slice(&self.b.to_le_bytes());
        out.extend_from_slice(&self.tail);
    }
}

#[test]
fn a_send_makes_one_vec_and_one_arc_per_payload() {
    let body = Body {
        a: 0xDEAD_BEEF,
        b: 42,
        tail: [7; 24],
    };

    for i in 0..8u64 {
        let pkt = Packet::request(mtype::GOSSIP_BASE, i, body.to_wire_payload());
        std::hint::black_box(pkt.to_sim_payload());
    }

    let (allocs_before, reallocs_before) = counts();
    const ROUNDS: u64 = 100;
    for i in 0..ROUNDS {
        // One simulated send: encode the body into a payload, frame it,
        // encode the frame into the payload the simulated network carries,
        // then drop both.
        let pkt = Packet::request(mtype::GOSSIP_BASE, i, body.to_wire_payload());
        std::hint::black_box(pkt.to_sim_payload());
    }
    let (allocs_after, reallocs_after) = counts();

    assert_eq!(
        allocs_after - allocs_before,
        4 * ROUNDS,
        "a send must allocate a Vec and an Arc for each of its two payloads"
    );
    assert_eq!(
        reallocs_after - reallocs_before,
        0,
        "a send must not grow a buffer past its capacity hint"
    );
}
