//! The distributed logging service.
//!
//! "Scheduling servers base their decisions, in part, on performance
//! information they receive from each computational client. Before the
//! information is discarded, it is forwarded to a logging server so that it
//! can be recorded. Having a separate service allows us to limit and
//! control the storage load generated by the application" (§3.1.3).
//! [`LogServer`] keeps a bounded ring of recent records plus running
//! per-category aggregates — the data the paper's Figures 2–4 were plotted
//! from.

use std::collections::{BTreeMap, VecDeque};

use ew_proto::sim_net::packet_from_event;
use ew_sim::{CounterId, Ctx, Event, Process, SimTime};

use crate::messages::{sm, LogRecord};

/// A received record with its arrival time.
#[derive(Clone, Debug, PartialEq)]
pub struct StampedRecord {
    /// Simulated arrival time.
    pub at: SimTime,
    /// The record.
    pub rec: LogRecord,
}

/// Running aggregate for one category.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct CategoryStats {
    /// Records seen.
    pub count: u64,
    /// Sum of the records' numeric values.
    pub sum: f64,
    /// Minimum value seen.
    pub min: f64,
    /// Maximum value seen.
    pub max: f64,
}

impl CategoryStats {
    const EMPTY: CategoryStats = CategoryStats {
        count: 0,
        sum: 0.0,
        min: f64::INFINITY,
        max: f64::NEG_INFINITY,
    };

    fn absorb(&mut self, v: f64) {
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }
}

/// The logging service process.
pub struct LogServer {
    /// Ring capacity (storage-load control).
    pub capacity: usize,
    ring: VecDeque<StampedRecord>,
    stats: BTreeMap<String, CategoryStats>,
    /// Total records ever received (including ones rotated out).
    pub total: u64,
    /// Records dropped from the ring to respect capacity.
    pub rotated_out: u64,
    records_id: Option<CounterId>,
}

impl LogServer {
    /// A server retaining at most `capacity` records.
    pub fn new(capacity: usize) -> Self {
        LogServer {
            capacity,
            ring: VecDeque::with_capacity(capacity.min(4096)),
            stats: BTreeMap::new(),
            total: 0,
            rotated_out: 0,
            records_id: None,
        }
    }

    /// Append a record (also used directly by in-process tests).
    pub fn append(&mut self, at: SimTime, rec: LogRecord) {
        // Look up before cloning: the category nearly always exists, and
        // `entry` would allocate (and free) a `String` per record to learn so.
        if let Some(s) = self.stats.get_mut(&rec.category) {
            s.absorb(rec.value);
        } else {
            let mut s = CategoryStats::EMPTY;
            s.absorb(rec.value);
            self.stats.insert(rec.category.clone(), s);
        }
        if self.ring.len() == self.capacity {
            self.ring.pop_front();
            self.rotated_out += 1;
        } else if self.ring.len() == self.ring.capacity() {
            // Double, as `push_back` would, but never past `capacity`:
            // 100 000 slots for SC98's log, not 131 072.
            let len = self.ring.len();
            self.ring.reserve_exact(len.max(1).min(self.capacity - len));
        }
        self.ring.push_back(StampedRecord { at, rec });
        self.total += 1;
    }

    /// Recent records, oldest first.
    pub fn recent(&self) -> impl Iterator<Item = &StampedRecord> {
        self.ring.iter()
    }

    /// Aggregate for a category.
    pub fn stats(&self, category: &str) -> Option<CategoryStats> {
        self.stats.get(category).copied()
    }
}

impl Process for LogServer {
    fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: Event) {
        if let Event::Started = ev {
            self.records_id = Some(ctx.counter("log.records"));
            return;
        }
        if let Some(Ok((_from, pkt))) = packet_from_event(&ev) {
            if pkt.mtype == sm::LOG {
                if let Ok(rec) = pkt.body::<LogRecord>() {
                    // Straight off the wire: one NaN or ±∞ would leave the
                    // category's sum non-finite for the rest of the run
                    // (and hide in `min`/`max`). Interned on first refusal,
                    // so a clean run's counter list (`results/health.json`)
                    // carries no row for it.
                    if !rec.value.is_finite() {
                        let id = ctx.counter("log.records_bad");
                        ctx.inc(id);
                        return;
                    }
                    let id = self.records_id.expect("started");
                    ctx.inc(id);
                    self.append(ctx.now(), rec);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ew_proto::sim_net::send_packet;
    use ew_proto::{Packet, WireEncode};
    use ew_sim::{HostSpec, HostTable, NetModel, ProcessId, Sim, SimDuration, SiteSpec};

    fn rec(cat: &str, value: f64) -> LogRecord {
        LogRecord {
            source: 1,
            category: cat.into(),
            text: String::new(),
            value,
        }
    }

    #[test]
    fn append_tracks_stats() {
        let mut s = LogServer::new(10);
        s.append(SimTime::ZERO, rec("perf", 10.0));
        s.append(SimTime::from_secs(1), rec("perf", 30.0));
        s.append(SimTime::from_secs(2), rec("err", 1.0));
        let perf = s.stats("perf").unwrap();
        assert_eq!(perf.count, 2);
        assert_eq!(perf.sum, 40.0);
        assert_eq!(perf.min, 10.0);
        assert_eq!(perf.max, 30.0);
        assert!(s.stats("missing").is_none());
    }

    #[test]
    fn ring_respects_capacity_but_stats_survive() {
        let mut s = LogServer::new(3);
        for i in 0..10 {
            s.append(SimTime::from_secs(i), rec("perf", i as f64));
        }
        assert_eq!(s.recent().count(), 3);
        assert_eq!(s.total, 10);
        assert_eq!(s.rotated_out, 7);
        // Ring holds the newest three.
        let vals: Vec<f64> = s.recent().map(|r| r.rec.value).collect();
        assert_eq!(vals, vec![7.0, 8.0, 9.0]);
        // Aggregates cover everything ever seen.
        assert_eq!(s.stats("perf").unwrap().count, 10);
    }

    /// Sends one `perf` record per value to a log server.
    struct Sender {
        server: ProcessId,
        values: Vec<f64>,
    }

    impl Process for Sender {
        fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: Event) {
            if let Event::Started = ev {
                for &value in &self.values {
                    let body = rec("perf", value).to_wire_payload();
                    send_packet(ctx, self.server, &Packet::oneway(sm::LOG, body));
                }
            }
        }
    }

    #[test]
    fn non_finite_values_are_refused_at_the_wire() {
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
        let server = sim.spawn("log", h, Box::new(LogServer::new(16)));
        let values = vec![1.0, f64::NAN, 2.0, f64::INFINITY, f64::NEG_INFINITY, 3.0];
        sim.spawn("sender", h, Box::new(Sender { server, values }));
        sim.run_until(SimTime::from_secs(1));
        let perf = sim
            .with_process::<LogServer, _>(server, |s| s.stats("perf"))
            .unwrap()
            .expect("perf records absorbed");
        let expected = CategoryStats {
            count: 3,
            sum: 6.0,
            min: 1.0,
            max: 3.0,
        };
        assert_eq!(perf, expected, "only the finite values are absorbed");
        assert_eq!(sim.metrics().counter("log.records_bad"), 3.0);
        assert_eq!(sim.metrics().counter("log.records"), 3.0);
    }

    #[test]
    fn ring_grows_to_capacity_not_past_it() {
        let mut s = LogServer::new(10_000);
        for i in 0..10_000 {
            s.append(SimTime::from_secs(i), rec("perf", 1.0));
        }
        assert_eq!(s.ring.capacity(), 10_000);
    }
}
