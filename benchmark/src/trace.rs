//! Benchmark-side spans.
//!
//! Spans are recorded from the benchmark's own files, around the calls
//! into each layer; nothing inside the crates is instrumented. They stay
//! in memory and are written once, when the run ends. A disabled tracer
//! records nothing, so the timed run pays one branch per call site.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use ew_sim::{Ctx, Event, Process};

use crate::json::Json;

pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// `Some(n)` for an aggregate of `n` handler calls (see [`Spanned`]).
    pub calls: Option<u64>,
}

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    pub spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one.
    pub fn enter(&mut self, name: &str) {
        if !self.enabled {
            return;
        }
        let now = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            calls: None,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Close the innermost open span.
    pub fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        let now = self.now_ns();
        let id = self.open.pop().expect("exit without enter");
        self.spans[id].end_ns = now;
    }

    /// Attach measured handler time as children of the innermost open span
    /// (the `run` span): one aggregate span per process type, laid end to
    /// end from the parent's start, so the parent's self time is its
    /// duration minus these.
    pub fn attach_handlers(&mut self, handlers: &HandlerTimes) {
        if !self.enabled {
            return;
        }
        let parent = *self.open.last().expect("attach_handlers outside a span");
        let mut at = self.spans[parent].start_ns;
        for total in handlers.0.borrow().iter() {
            self.spans.push(Span {
                name: format!("handler:{}", total.label),
                start_ns: at,
                end_ns: at + total.ns,
                parent: Some(parent),
                calls: Some(total.calls),
            });
            at += total.ns;
        }
    }

    /// Total duration of every span with this name, in seconds.
    pub fn total_s(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e9)
            .sum()
    }

    pub fn to_jsonl(&self, workload: &str) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let mut pairs = vec![
                ("id", Json::Num(i as f64)),
                ("name", Json::str(&s.name)),
                ("start_ns", Json::Num(s.start_ns as f64)),
                ("end_ns", Json::Num(s.end_ns as f64)),
                (
                    "parent",
                    s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                ),
                ("workload", Json::str(workload)),
            ];
            if let Some(calls) = s.calls {
                pairs.push(("calls", Json::Num(calls as f64)));
            }
            out.push_str(&Json::obj(pairs).render());
            out.push('\n');
        }
        out
    }
}

/// Host time one process type spent inside `on_event`.
struct HandlerTotal {
    label: &'static str,
    ns: u64,
    calls: u64,
}

/// Handler totals per process type, shared by every wrapped process of a
/// world.
#[derive(Clone, Default)]
pub struct HandlerTimes(Rc<RefCell<Vec<HandlerTotal>>>);

impl HandlerTimes {
    fn slot(&self, label: &'static str) -> usize {
        let mut v = self.0.borrow_mut();
        match v.iter().position(|t| t.label == label) {
            Some(i) => i,
            None => {
                v.push(HandlerTotal {
                    label,
                    ns: 0,
                    calls: 0,
                });
                v.len() - 1
            }
        }
    }

    /// Seconds spent in handlers with this label.
    pub fn seconds(&self, label: &str) -> f64 {
        self.0
            .borrow()
            .iter()
            .filter(|t| t.label == label)
            .map(|t| t.ns as f64 / 1e9)
            .sum()
    }
}

/// Wraps a process the benchmark spawns so the traced run measures its
/// handler time from outside. It forwards every event unchanged, so the
/// event order — and with it the fingerprint — is the untraced run's.
pub struct Spanned<P> {
    inner: P,
    slot: usize,
    times: HandlerTimes,
}

impl<P: Process> Process for Spanned<P> {
    fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: Event) {
        let t0 = Instant::now();
        self.inner.on_event(ctx, ev);
        let ns = t0.elapsed().as_nanos() as u64;
        let mut v = self.times.0.borrow_mut();
        v[self.slot].ns += ns;
        v[self.slot].calls += 1;
    }
}

/// Box a process for `Sim::spawn`: bare in the timed run, [`Spanned`]
/// when the traced run passes its handler table.
pub fn boxed<P: Process>(
    p: P,
    label: &'static str,
    times: Option<&HandlerTimes>,
) -> Box<dyn Process> {
    match times {
        None => Box::new(p),
        Some(times) => Box::new(Spanned {
            inner: p,
            slot: times.slot(label),
            times: times.clone(),
        }),
    }
}
