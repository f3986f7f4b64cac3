//! Allocation audit for the packet layer, both directions.
//!
//! A counting global allocator wraps the system allocator and counts per
//! thread, so the two tests can run side by side. After warm-up:
//!
//! * one send — `WireEncode::to_wire_payload` for the body, then
//!   `Packet::to_sim_payload` for the frame — must make exactly four
//!   allocations (a `Vec` and an `Arc` per payload) and no reallocation:
//!   the capacity hints are exact and no step copies the body a second
//!   time;
//! * one received frame — `FrameReader::next_packet` on a stream fed in
//!   one chunk — must make exactly two (the payload's `Vec` and `Arc`) and
//!   no reallocation: the checksum is verified in place and the framer
//!   consumes its buffer through a read offset.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static REALLOCS: Cell<u64> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        REALLOCS.with(|n| n.set(n.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations and reallocations made so far on this thread.
fn counts() -> (u64, u64) {
    (ALLOCS.with(Cell::get), REALLOCS.with(Cell::get))
}

use ew_proto::{mtype, FrameReader, Packet, WireEncode};

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

#[test]
fn a_received_frame_makes_one_vec_and_one_arc() {
    const PACKETS: u64 = 100;
    let mut stream = Vec::new();
    for i in 0..PACKETS {
        let body = Body {
            a: i,
            b: 42,
            tail: [7; 24],
        };
        stream.extend(
            Packet::request(mtype::GOSSIP_BASE, i, body.to_wire_payload()).to_stream_bytes(),
        );
    }
    let mut fr = FrameReader::new();
    let frame_all = |fr: &mut FrameReader| {
        fr.feed(&stream);
        for i in 0..PACKETS {
            let pkt = fr.next_packet().expect("well-formed").expect("whole");
            assert_eq!(pkt.corr_id, i);
            std::hint::black_box(pkt);
        }
        assert!(fr.next_packet().expect("well-formed").is_none());
    };
    // Warm-up grows the framer's buffer to one read's worth.
    frame_all(&mut fr);

    let (allocs_before, reallocs_before) = counts();
    frame_all(&mut fr);
    let (allocs_after, reallocs_after) = counts();

    assert_eq!(
        allocs_after - allocs_before,
        2 * PACKETS,
        "a received frame must allocate only its payload's Vec and Arc"
    );
    assert_eq!(
        reallocs_after - reallocs_before,
        0,
        "a read no larger than the last must fit the framer's buffer"
    );
}
