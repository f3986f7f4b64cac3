//! Steady-state memory audit for the logging service.
//!
//! Every progress report a scheduler handles is forwarded to the
//! [`LogServer`] (§3.1.3), so it receives one record per report for the
//! whole run. It counts each one (`log.records`) and keeps none: once a
//! first batch has warmed the simulator's buffers, a second batch of the
//! same size must leave no live byte behind. A counting global allocator
//! wraps the system allocator and tracks live bytes.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use ew_proto::sim_net::send_packet;
use ew_proto::{Packet, WireEncode};
use ew_sim::{
    Ctx, Event, HostSpec, HostTable, NetModel, Process, ProcessId, Sim, SimDuration, SimTime,
    SiteSpec,
};
use ew_state::{sm, LogRecord, LogServer};

struct CountingAlloc;

thread_local! {
    // Per thread: libtest runs tests on parallel threads. `const`-initialised
    // `Cell<i64>` has no destructor, so touching it from inside the allocator
    // neither allocates nor registers a TLS destructor.
    static LIVE_BYTES: Cell<i64> = const { Cell::new(0) };
}

fn bill(delta: i64) {
    // `try_with`: the allocator can run while the thread's TLS is torn down.
    let _ = LIVE_BYTES.try_with(|n| n.set(n.get() + delta));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bill(layout.size() as i64);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        bill(-(layout.size() as i64));
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bill(new_size as i64 - layout.size() as i64);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Bytes the calling thread has allocated and not yet freed.
fn live_bytes() -> i64 {
    LIVE_BYTES.with(Cell::get)
}

const BATCH: u64 = 1_000;

/// Sends `BATCH` records at start and `BATCH` more on a timer at 1.5 s.
struct Sender {
    server: ProcessId,
}

impl Process for Sender {
    fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: Event) {
        if let Event::Started = ev {
            ctx.set_timer(SimDuration::from_millis(1_500), 0);
        }
        for i in 0..BATCH {
            let rec = LogRecord {
                source: i,
                category: if i.is_multiple_of(2) { "perf" } else { "grant" }.into(),
                text: format!("report {i}"),
                value: i as f64,
            };
            send_packet(
                ctx,
                self.server,
                &Packet::oneway(sm::LOG, rec.to_wire_payload()),
            );
        }
    }
}

#[test]
fn counted_records_leave_no_live_bytes_behind() {
    let mut net = NetModel::new(0.05);
    let site = net.add_site(SiteSpec::simple(
        "s",
        SimDuration::from_millis(1),
        1.25e6,
        0.0,
    ));
    let mut hosts = HostTable::new();
    let h = hosts.add(HostSpec::dedicated("h", site, 1e8));
    let mut sim = Sim::new(net, hosts, 1);
    let server = sim.spawn("log", h, Box::<LogServer>::default());
    sim.spawn("sender", h, Box::new(Sender { server }));
    sim.run_until(SimTime::from_secs(1));
    assert_eq!(sim.metrics().counter("log.records"), BATCH as f64);
    let before = live_bytes();
    sim.run_until(SimTime::from_secs(2));
    let kept = live_bytes() - before;
    assert_eq!(sim.metrics().counter("log.records"), 2.0 * BATCH as f64);
    assert!(
        kept < BATCH as i64,
        "{kept} B still live after {BATCH} more records"
    );
}
