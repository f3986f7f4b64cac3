//! The metric registry: intern names once, record through indices.

use std::collections::HashMap;

use crate::histogram::{Histogram, HistogramSummary};
use crate::trace::{SpanPhase, TraceBuffer, TraceRecord};

macro_rules! define_id {
    ($(#[$meta:meta])* $name:ident) => {
        $(#[$meta])*
        #[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
        pub struct $name(u32);

        impl $name {
            /// The raw registry index.
            pub fn index(self) -> usize {
                self.0 as usize
            }
        }
    };
}

define_id!(
    /// Handle to an interned counter.
    CounterId
);
define_id!(
    /// Handle to an interned gauge.
    GaugeId
);
define_id!(
    /// Handle to an interned time series.
    SeriesId
);
define_id!(
    /// Handle to an interned histogram.
    HistogramId
);
define_id!(
    /// Handle to an interned span name.
    SpanId
);

/// Name→index interner; names are stored once, in insertion order.
#[derive(Debug, Default)]
struct Interner {
    names: Vec<String>,
    index: HashMap<String, u32>,
}

impl Interner {
    fn intern(&mut self, name: &str) -> u32 {
        if let Some(&i) = self.index.get(name) {
            return i;
        }
        let i = self.names.len() as u32;
        self.names.push(name.to_string());
        self.index.insert(name.to_string(), i);
        i
    }

    fn lookup(&self, name: &str) -> Option<u32> {
        self.index.get(name).copied()
    }

    fn name(&self, i: u32) -> Option<&str> {
        self.names.get(i as usize).map(String::as_str)
    }

    /// Indices in ascending name order (for deterministic reports).
    fn sorted_indices(&self) -> Vec<u32> {
        let mut idx: Vec<u32> = (0..self.names.len() as u32).collect();
        idx.sort_by(|&a, &b| self.names[a as usize].cmp(&self.names[b as usize]));
        idx
    }
}

/// Central metric store.
///
/// Interning (`counter`, `gauge`, `series`, `histogram`, `span`) takes
/// `&mut self` and a string; it is meant to run once per metric per
/// process, at spawn. Recording (`add`, `set_gauge`, `record`,
/// `observe`) takes a copyable id and is a plain vector index.
#[derive(Debug, Default)]
pub struct Registry {
    counter_names: Interner,
    counters: Vec<f64>,
    gauge_names: Interner,
    gauges: Vec<f64>,
    series_names: Interner,
    series: Vec<Vec<(u64, f64)>>,
    histogram_names: Interner,
    histograms: Vec<Histogram>,
    span_names: Interner,
    trace: Option<TraceBuffer>,
}

impl Registry {
    /// An empty registry with tracing disabled.
    pub fn new() -> Self {
        Registry::default()
    }

    // ---- counters ----

    /// Intern `name` as a counter and return its handle.
    pub fn counter(&mut self, name: &str) -> CounterId {
        let i = self.counter_names.intern(name);
        if i as usize >= self.counters.len() {
            self.counters.push(0.0);
        }
        CounterId(i)
    }

    /// Add `v` to a counter.
    #[inline]
    pub fn add(&mut self, id: CounterId, v: f64) {
        self.counters[id.0 as usize] += v;
    }

    /// Add 1 to a counter.
    #[inline]
    pub fn inc(&mut self, id: CounterId) {
        self.add(id, 1.0);
    }

    /// Current value of a counter.
    pub fn counter_value(&self, id: CounterId) -> f64 {
        self.counters[id.0 as usize]
    }

    /// Handle for an already-interned counter name.
    pub fn counter_lookup(&self, name: &str) -> Option<CounterId> {
        self.counter_names.lookup(name).map(CounterId)
    }

    /// `(name, value)` pairs in ascending name order.
    pub fn counters(&self) -> Vec<(&str, f64)> {
        self.counter_names
            .sorted_indices()
            .into_iter()
            .map(|i| {
                (
                    self.counter_names.name(i).unwrap(),
                    self.counters[i as usize],
                )
            })
            .collect()
    }

    // ---- gauges ----

    /// Intern `name` as a gauge and return its handle.
    pub fn gauge(&mut self, name: &str) -> GaugeId {
        let i = self.gauge_names.intern(name);
        if i as usize >= self.gauges.len() {
            self.gauges.push(0.0);
        }
        GaugeId(i)
    }

    /// Set a gauge to `v`.
    #[inline]
    pub fn set_gauge(&mut self, id: GaugeId, v: f64) {
        self.gauges[id.0 as usize] = v;
    }

    /// `(name, value)` pairs in ascending name order.
    pub fn gauges(&self) -> Vec<(&str, f64)> {
        self.gauge_names
            .sorted_indices()
            .into_iter()
            .map(|i| (self.gauge_names.name(i).unwrap(), self.gauges[i as usize]))
            .collect()
    }

    // ---- series ----

    /// Intern `name` as a time series and return its handle.
    pub fn series(&mut self, name: &str) -> SeriesId {
        let i = self.series_names.intern(name);
        if i as usize >= self.series.len() {
            self.series.push(Vec::new());
        }
        SeriesId(i)
    }

    /// Append a `(t_us, value)` point to a series.
    #[inline]
    pub fn record(&mut self, id: SeriesId, t_us: u64, v: f64) {
        self.series[id.0 as usize].push((t_us, v));
    }

    /// Points recorded so far, in record order.
    pub fn series_points(&self, id: SeriesId) -> &[(u64, f64)] {
        &self.series[id.0 as usize]
    }

    /// Handle for an already-interned series name.
    pub fn series_lookup(&self, name: &str) -> Option<SeriesId> {
        self.series_names.lookup(name).map(SeriesId)
    }

    /// Series names in ascending order.
    pub fn series_names(&self) -> Vec<&str> {
        self.series_names
            .sorted_indices()
            .into_iter()
            .map(|i| self.series_names.name(i).unwrap())
            .collect()
    }

    // ---- histograms ----

    /// Intern `name` as a histogram and return its handle.
    pub fn histogram(&mut self, name: &str) -> HistogramId {
        let i = self.histogram_names.intern(name);
        if i as usize >= self.histograms.len() {
            self.histograms.push(Histogram::new());
        }
        HistogramId(i)
    }

    /// Record one observation into a histogram.
    #[inline]
    pub fn observe(&mut self, id: HistogramId, v: f64) {
        self.histograms[id.0 as usize].observe(v);
    }

    /// The histogram behind a handle.
    pub fn histogram_get(&self, id: HistogramId) -> &Histogram {
        &self.histograms[id.0 as usize]
    }

    /// `(name, histogram)` pairs in ascending name order.
    pub fn histograms(&self) -> Vec<(&str, &Histogram)> {
        self.histogram_names
            .sorted_indices()
            .into_iter()
            .map(|i| {
                (
                    self.histogram_names.name(i).unwrap(),
                    &self.histograms[i as usize],
                )
            })
            .collect()
    }

    // ---- spans & tracing ----

    /// Intern `name` as a span and return its handle.
    pub fn span(&mut self, name: &str) -> SpanId {
        SpanId(self.span_names.intern(name))
    }

    /// The name behind a span handle.
    pub fn span_name(&self, id: SpanId) -> Option<&str> {
        self.span_names.name(id.0)
    }

    /// Turn tracing on with a ring of `capacity` records.
    pub fn enable_tracing(&mut self, capacity: usize) {
        self.trace = Some(TraceBuffer::new(capacity));
    }

    /// Whether span records are being collected.
    #[inline]
    pub fn tracing_enabled(&self) -> bool {
        self.trace.is_some()
    }

    /// Record a span entry (no-op unless tracing is enabled).
    #[inline]
    pub fn span_enter(&mut self, t_us: u64, span: SpanId, actor: u64, tag: u64) {
        if let Some(tb) = &mut self.trace {
            tb.push(TraceRecord {
                t_us,
                span,
                phase: SpanPhase::Enter,
                actor,
                tag,
            });
        }
    }

    /// Record a span exit (no-op unless tracing is enabled).
    #[inline]
    pub fn span_exit(&mut self, t_us: u64, span: SpanId, actor: u64, tag: u64) {
        if let Some(tb) = &mut self.trace {
            tb.push(TraceRecord {
                t_us,
                span,
                phase: SpanPhase::Exit,
                actor,
                tag,
            });
        }
    }

    /// The trace ring, when tracing is enabled.
    pub fn trace(&self) -> Option<&TraceBuffer> {
        self.trace.as_ref()
    }

    /// Export held trace records as JSONL (empty string when disabled).
    pub fn export_trace_jsonl(&self) -> String {
        match &self.trace {
            Some(tb) => {
                tb.to_jsonl(|id| self.span_name(id).unwrap_or("<unknown-span>").to_string())
            }
            None => String::new(),
        }
    }

    // ---- merging ----

    /// Fold another registry's metrics into this one: counters add,
    /// gauges take `other`'s value, series points append, histograms
    /// merge bucket-wise. `other`'s metrics are visited in ascending name
    /// order, so merging the same set of registries in the same sequence
    /// always produces an identical registry — the deterministic
    /// ordered-collect path the sim farm uses to fold per-cell registries
    /// back together in canonical (input-index) order, independent of
    /// which worker thread ran which cell.
    ///
    /// Span interning and trace buffers are deliberately not merged:
    /// trace records carry per-cell actor ids that are only meaningful
    /// against their own cell's process table.
    pub fn merge(&mut self, other: &Registry) {
        for (name, v) in other.counters() {
            let id = self.counter(name);
            self.add(id, v);
        }
        for (name, v) in other.gauges() {
            let id = self.gauge(name);
            self.set_gauge(id, v);
        }
        for name in other.series_names() {
            let theirs = other.series_lookup(name).expect("name from other");
            let id = self.series(name);
            for &(t_us, v) in other.series_points(theirs) {
                self.record(id, t_us, v);
            }
        }
        for (name, h) in other.histograms() {
            let id = self.histogram(name);
            self.histograms[id.index()].merge(h);
        }
    }

    // ---- reports ----

    /// Metrics grouped by subsystem (the name's prefix before the first
    /// `.`), each group sorted, groups in ascending subsystem order.
    pub fn health(&self) -> Vec<SubsystemHealth> {
        use std::collections::BTreeMap;

        fn group<'g>(
            groups: &'g mut BTreeMap<String, SubsystemHealth>,
            name: &str,
        ) -> &'g mut SubsystemHealth {
            let sub = name.split('.').next().unwrap_or(name).to_string();
            groups
                .entry(sub.clone())
                .or_insert_with(|| SubsystemHealth {
                    subsystem: sub,
                    counters: Vec::new(),
                    gauges: Vec::new(),
                    histograms: Vec::new(),
                })
        }

        let mut groups: BTreeMap<String, SubsystemHealth> = BTreeMap::new();
        for (name, v) in self.counters() {
            group(&mut groups, name)
                .counters
                .push((name.to_string(), v));
        }
        for (name, v) in self.gauges() {
            group(&mut groups, name).gauges.push((name.to_string(), v));
        }
        for (name, h) in self.histograms() {
            group(&mut groups, name)
                .histograms
                .push((name.to_string(), h.summary()));
        }
        groups.into_values().collect()
    }
}

/// One subsystem's metrics (grouped by name prefix) for health reports.
#[derive(Clone, Debug, PartialEq)]
pub struct SubsystemHealth {
    /// Prefix before the first `.` in the metric names.
    pub subsystem: String,
    /// Counters in this subsystem, name-sorted.
    pub counters: Vec<(String, f64)>,
    /// Gauges in this subsystem, name-sorted.
    pub gauges: Vec<(String, f64)>,
    /// Histogram summaries in this subsystem, name-sorted.
    pub histograms: Vec<(String, HistogramSummary)>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent() {
        let mut r = Registry::new();
        let a = r.counter("net.messages");
        let b = r.counter("net.messages");
        assert_eq!(a, b);
        r.add(a, 2.0);
        r.add(b, 3.0);
        assert_eq!(r.counter_value(a), 5.0);
        assert_eq!(r.counter_lookup("net.messages"), Some(a));
        assert_eq!(r.counter_lookup("net.bytes"), None);
    }

    #[test]
    fn reports_are_name_sorted() {
        let mut r = Registry::new();
        let z = r.counter("z.last");
        let a = r.counter("a.first");
        r.inc(z);
        r.add(a, 4.0);
        assert_eq!(r.counters(), vec![("a.first", 4.0), ("z.last", 1.0)]);
    }

    #[test]
    fn series_and_gauges_round_trip() {
        let mut r = Registry::new();
        let s = r.series("ops_series.condor");
        r.record(s, 1_000, 2.0);
        r.record(s, 2_000, 3.0);
        assert_eq!(r.series_points(s), &[(1_000, 2.0), (2_000, 3.0)]);
        assert_eq!(r.series_names(), vec!["ops_series.condor"]);

        let g = r.gauge("sched.queue_depth");
        r.set_gauge(g, 12.0);
        assert_eq!(r.gauges(), vec![("sched.queue_depth", 12.0)]);
    }

    #[test]
    fn tracing_disabled_records_nothing() {
        let mut r = Registry::new();
        let s = r.span("kernel.dispatch");
        r.span_enter(10, s, 1, 0);
        r.span_exit(20, s, 1, 0);
        assert!(!r.tracing_enabled());
        assert!(r.trace().is_none());
        assert_eq!(r.export_trace_jsonl(), "");

        r.enable_tracing(16);
        r.span_enter(30, s, 1, 9);
        r.span_exit(35, s, 1, 9);
        let jsonl = r.export_trace_jsonl();
        assert_eq!(jsonl.lines().count(), 2);
        assert!(jsonl.contains("\"span\":\"kernel.dispatch\""));
        assert!(jsonl.contains("\"tag\":9"));
    }

    #[test]
    fn merge_folds_cells_deterministically() {
        let cell = |salt: f64| {
            let mut r = Registry::new();
            let c = r.counter("client.units");
            r.add(c, 10.0 + salt);
            let g = r.gauge("kernel.queue_depth");
            r.set_gauge(g, salt);
            let s = r.series("ops_series.pool");
            r.record(s, salt as u64, salt);
            let h = r.histogram("net.latency_us");
            r.observe(h, 100.0 * (salt + 1.0));
            r
        };

        let fold = |cells: &[Registry]| {
            let mut merged = Registry::new();
            for c in cells {
                merged.merge(c);
            }
            merged
        };

        let cells = vec![cell(0.0), cell(1.0), cell(2.0)];
        let merged = fold(&cells);
        assert_eq!(
            merged.health(),
            fold(&cells).health(),
            "same cells in the same order must merge identically"
        );

        assert_eq!(merged.counters(), vec![("client.units", 33.0)]);
        // Gauges are last-writer-wins in merge order.
        assert_eq!(merged.gauges(), vec![("kernel.queue_depth", 2.0)]);
        let histograms = merged.histograms();
        assert_eq!(histograms.len(), 1);
        assert_eq!(histograms[0].1.summary().count, 3);

        // Series points append in merge order.
        let sid = merged.series_lookup("ops_series.pool").unwrap();
        assert_eq!(merged.series_points(sid), &[(0, 0.0), (1, 1.0), (2, 2.0)]);
    }

    #[test]
    fn health_groups_by_prefix() {
        let mut r = Registry::new();
        let a = r.counter("net.messages");
        let b = r.counter("net.bytes");
        let c = r.counter("sched.grants");
        let h = r.histogram("net.latency_us");
        r.inc(a);
        r.add(b, 128.0);
        r.inc(c);
        r.observe(h, 250.0);

        let health = r.health();
        assert_eq!(health.len(), 2);
        assert_eq!(health[0].subsystem, "net");
        assert_eq!(
            health[0].counters,
            vec![
                ("net.bytes".to_string(), 128.0),
                ("net.messages".to_string(), 1.0)
            ]
        );
        assert_eq!(health[0].histograms.len(), 1);
        assert_eq!(health[1].subsystem, "sched");
    }
}
