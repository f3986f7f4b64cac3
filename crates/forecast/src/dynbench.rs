//! Dynamic benchmarking.
//!
//! "Our strategy was to manually instrument the various EveryWare
//! components and application modules with timing primitives, and then
//! passing the timing information to the forecasting modules to make
//! predictions. We refer to this process as *dynamic benchmarking*" (§2.2).
//!
//! A [`DynamicBenchmark`] is a registry of forecast streams keyed by an
//! arbitrary event identifier — the paper used `(server address, message
//! type)`; the Ramsey application also tags heuristic-step and work-unit
//! events. `begin`/`end` bracket one timed occurrence; the measured
//! duration feeds the key's [`ForecasterSet`].

use std::borrow::Borrow;
use std::hash::Hash;

use ew_sim::hashers::FxHashMap;
use ew_sim::{SimDuration, SimTime};

use crate::selector::{Forecast, ForecasterSet};

/// Registry of timed-event forecast streams keyed by `K`.
pub struct DynamicBenchmark<K: Hash + Eq + Clone> {
    streams: FxHashMap<K, ForecasterSet>,
    open: FxHashMap<(K, u64), SimTime>,
}

impl<K: Hash + Eq + Clone> Default for DynamicBenchmark<K> {
    fn default() -> Self {
        DynamicBenchmark {
            streams: FxHashMap::default(),
            open: FxHashMap::default(),
        }
    }
}

impl<K: Hash + Eq + Clone> DynamicBenchmark<K> {
    /// Empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Mark the start of occurrence `instance` of event `key`.
    pub fn begin(&mut self, key: K, instance: u64, now: SimTime) {
        self.open.insert((key, instance), now);
    }

    /// Mark the end of occurrence `instance`; records and returns the
    /// elapsed duration, or `None` if no matching `begin` exists (e.g. the
    /// component restarted in between — the measurement is simply lost,
    /// never mismatched).
    pub fn end(&mut self, key: K, instance: u64, now: SimTime) -> Option<SimDuration> {
        let started = self.open.remove(&(key.clone(), instance))?;
        let elapsed = now.since(started);
        self.observe(key, elapsed.as_secs_f64());
        Some(elapsed)
    }

    /// Feed a directly measured value (seconds, rates, anything scalar).
    pub fn observe(&mut self, key: K, value: f64) {
        self.streams
            .entry(key)
            .or_insert_with(ForecasterSet::standard)
            .update(value);
    }

    /// Forecast the next value for `key`.
    pub fn forecast<Q>(&self, key: &Q) -> Option<Forecast>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.streams.get(key)?.predict()
    }

    /// Number of measurements absorbed for `key`.
    pub fn samples(&self, key: &K) -> u64 {
        self.streams.get(key).map_or(0, |s| s.samples())
    }

    /// Number of distinct event streams.
    pub fn stream_count(&self) -> usize {
        self.streams.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    #[test]
    fn begin_end_measures_elapsed() {
        let mut db: DynamicBenchmark<(&str, u16)> = DynamicBenchmark::new();
        db.begin(("gossip-a", 0x101), 1, t(100));
        let d = db.end(("gossip-a", 0x101), 1, t(350)).unwrap();
        assert_eq!(d, SimDuration::from_millis(250));
        assert_eq!(db.samples(&("gossip-a", 0x101)), 1);
    }

    #[test]
    fn unmatched_end_is_lost_not_mismatched() {
        let mut db: DynamicBenchmark<&str> = DynamicBenchmark::new();
        assert!(db.end("x", 5, t(10)).is_none());
        assert_eq!(db.stream_count(), 0);
    }

    #[test]
    fn concurrent_instances_tracked_independently() {
        let mut db: DynamicBenchmark<&str> = DynamicBenchmark::new();
        db.begin("rpc", 1, t(0));
        db.begin("rpc", 2, t(50));
        let d2 = db.end("rpc", 2, t(150)).unwrap();
        let d1 = db.end("rpc", 1, t(300)).unwrap();
        assert_eq!(d2, SimDuration::from_millis(100));
        assert_eq!(d1, SimDuration::from_millis(300));
        assert_eq!(db.samples(&"rpc"), 2);
    }

    #[test]
    fn forecast_converges_on_repeated_timings() {
        let mut db: DynamicBenchmark<&str> = DynamicBenchmark::new();
        let mut now = SimTime::ZERO;
        for i in 0..30 {
            db.begin("step", i, now);
            now += SimDuration::from_millis(200);
            db.end("step", i, now).unwrap();
            now += SimDuration::from_millis(13);
        }
        let f = db.forecast(&"step").unwrap();
        assert!((f.value - 0.2).abs() < 1e-6, "got {}", f.value);
    }

    #[test]
    fn separate_keys_separate_streams() {
        let mut db: DynamicBenchmark<(&str, u16)> = DynamicBenchmark::new();
        db.observe(("a", 1), 1.0);
        db.observe(("a", 2), 100.0);
        assert_eq!(db.stream_count(), 2);
        let fa = db.forecast(&("a", 1)).unwrap();
        let fb = db.forecast(&("a", 2)).unwrap();
        assert!((fa.value - 1.0).abs() < 1e-9);
        assert!((fb.value - 100.0).abs() < 1e-9);
    }
}
