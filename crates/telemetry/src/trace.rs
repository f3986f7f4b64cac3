//! Span-based event tracing.
//!
//! Each record is one point (simulated time does not advance inside a
//! handler, so a span has no duration). Records accumulate in a bounded
//! ring; when full, the oldest are evicted (the tail of a run is usually
//! the part under investigation). Export is deterministic JSONL: records
//! in arrival order, fields in a fixed order, integers only — two
//! identical simulations produce byte-identical traces.

use crate::registry::SpanId;

/// One trace record.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceRecord {
    /// Timestamp in microseconds.
    pub t_us: u64,
    /// Which span (interned name).
    pub span: SpanId,
    /// Acting entity (process id, host id, ...; caller-defined).
    pub actor: u64,
    /// Free-form detail (event kind, peer id, byte count, ...).
    pub tag: u64,
}

/// Bounded ring of [`TraceRecord`]s.
#[derive(Debug, Default)]
pub struct TraceBuffer {
    records: Vec<TraceRecord>,
    /// Index of the oldest record once the ring has wrapped.
    head: usize,
    capacity: usize,
}

impl TraceBuffer {
    /// A ring holding at most `capacity` records (min 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        TraceBuffer {
            records: Vec::with_capacity(capacity.min(4096)),
            head: 0,
            capacity,
        }
    }

    /// Append a record, evicting the oldest if full.
    pub fn push(&mut self, rec: TraceRecord) {
        if self.records.len() < self.capacity {
            self.records.push(rec);
        } else {
            self.records[self.head] = rec;
            self.head = (self.head + 1) % self.capacity;
        }
    }

    /// Records currently held, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &TraceRecord> {
        let (wrapped, recent) = self.records.split_at(self.head.min(self.records.len()));
        recent.iter().chain(wrapped.iter())
    }

    /// Serialize to JSONL, resolving span ids through `span_name`.
    ///
    /// One record per line, keys in fixed order; output depends only on
    /// the records and names, so identical runs export identical bytes.
    pub fn to_jsonl(&self, span_name: impl Fn(SpanId) -> String) -> String {
        let mut out = String::with_capacity(self.records.len() * 96);
        for r in self.iter() {
            out.push_str(&format!(
                "{{\"t_us\":{},\"span\":\"{}\",\"actor\":{},\"tag\":{}}}\n",
                r.t_us,
                escape(&span_name(r.span)),
                r.actor,
                r.tag
            ));
        }
        out
    }
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;

    fn rec(t: u64, span: SpanId) -> TraceRecord {
        TraceRecord {
            t_us: t,
            span,
            actor: 7,
            tag: 0,
        }
    }

    #[test]
    fn ring_evicts_oldest() {
        let mut reg = Registry::new();
        let s = reg.span("kernel.dispatch");
        let mut tb = TraceBuffer::new(3);
        for t in 0..5 {
            tb.push(rec(t, s));
        }
        let times: Vec<u64> = tb.iter().map(|r| r.t_us).collect();
        assert_eq!(times, vec![2, 3, 4]);
    }

    #[test]
    fn jsonl_is_deterministic_and_ordered() {
        let mut reg = Registry::new();
        let s = reg.span("gossip.reconcile");
        let mut tb = TraceBuffer::new(8);
        tb.push(rec(10, s));
        tb.push(rec(15, s));
        let name = |id| reg.span_name(id).unwrap_or_default().to_string();
        let a = tb.to_jsonl(name);
        let b = tb.to_jsonl(|id| reg.span_name(id).unwrap_or_default().to_string());
        assert_eq!(a, b);
        assert_eq!(
            a,
            "{\"t_us\":10,\"span\":\"gossip.reconcile\",\"actor\":7,\"tag\":0}\n\
             {\"t_us\":15,\"span\":\"gossip.reconcile\",\"actor\":7,\"tag\":0}\n"
        );
    }
}
