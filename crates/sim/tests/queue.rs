//! The event queue's contract, stated against a sorted-`Vec` oracle:
//! entries come out in strict `(time, seq)` order, bounded calls never
//! pass their limit and park there, a run is exactly the entries at the
//! minimum tick, and `len()` is exact. Nothing here knows how the queue
//! stores its entries.

use ew_sim::EventQueue;
use proptest::collection::vec as prop_vec;
use proptest::prelude::*;

/// The oracle: pending `(time, seq, item)` triples, kept sorted.
#[derive(Default)]
struct Sorted(Vec<(u64, u64, u64)>);

impl Sorted {
    fn insert(&mut self, time: u64, seq: u64, item: u64) {
        let at = self.0.partition_point(|e| (e.0, e.1) < (time, seq));
        self.0.insert(at, (time, seq, item));
    }

    fn next_time_upto(&self, limit: u64) -> Option<u64> {
        self.0.first().map(|e| e.0).filter(|&t| t <= limit)
    }

    fn pop_upto(&mut self, limit: u64) -> Option<(u64, u64, u64)> {
        self.next_time_upto(limit).map(|_| self.0.remove(0))
    }

    fn pop_run_upto(&mut self, limit: u64) -> Vec<(u64, u64, u64)> {
        let Some(t) = self.next_time_upto(limit) else {
            return Vec::new();
        };
        let n = self.0.partition_point(|e| e.0 == t);
        self.0.drain(..n).collect()
    }
}

/// Pop both the queue and the oracle to exhaustion and assert identical
/// `(time, seq)` sequences.
fn check_against_sorted(batch: &[(u64, u64)]) {
    let mut q = EventQueue::new();
    let mut want = Sorted::default();
    for &(t, s) in batch {
        q.insert(t, s, s);
        want.insert(t, s, s);
    }
    assert_eq!(q.len(), batch.len());
    let mut got = Vec::new();
    while let Some(e) = q.pop_upto(u64::MAX) {
        got.push(e);
    }
    assert_eq!(got, want.0);
    assert!(q.is_empty());
}

#[test]
fn empty_queue() {
    let mut q: EventQueue<()> = EventQueue::new();
    assert!(q.is_empty());
    assert_eq!(q.next_time(), None);
    assert_eq!(q.pop_upto(u64::MAX), None);
    assert_eq!(q.pop_run_upto(u64::MAX, &mut Vec::new()), 0);
}

#[test]
fn single_entry_far_and_near() {
    for t in [
        0u64,
        1,
        63,
        64,
        65,
        4095,
        4096,
        1 << 20,
        1 << 41,
        1 << 42,
        1 << 63,
        u64::MAX,
    ] {
        let mut q = EventQueue::new();
        q.insert(t, 0, "x");
        assert_eq!(q.next_time(), Some(t));
        assert_eq!(q.pop_upto(u64::MAX), Some((t, 0, "x")));
        assert!(q.is_empty());
    }
}

#[test]
fn same_tick_ties_pop_in_seq_order() {
    check_against_sorted(&[(100, 5), (100, 1), (100, 3), (100, 2), (100, 4)]);
}

#[test]
fn mixed_batch_matches_sorted() {
    check_against_sorted(&[
        (50, 0),
        (1, 1),
        (50, 2),
        (1 << 50, 3),
        (0, 4),
        (64, 5),
        (63, 6),
        (65, 7),
        (1 << 50, 8),
        (u64::MAX, 9),
        (4096, 10),
    ]);
}

#[test]
fn limit_parks_and_resumes() {
    let mut q = EventQueue::new();
    q.insert(10, 0, ());
    q.insert(1000, 1, ());
    assert_eq!(q.next_time_upto(5), None);
    assert_eq!(q.pop_upto(500), Some((10, 0, ())));
    assert_eq!(q.pop_upto(500), None);
    // Insert at the parked position (== a simulator's `now`).
    q.insert(500, 2, ());
    assert_eq!(q.pop_upto(500), Some((500, 2, ())));
    assert_eq!(q.pop_upto(u64::MAX), Some((1000, 1, ())));
    assert!(q.is_empty());
}

#[test]
fn empty_queue_does_not_park_at_an_unbounded_limit() {
    let mut q = EventQueue::new();
    q.insert(7, 0, ());
    assert_eq!(q.pop_upto(u64::MAX), Some((7, 0, ())));
    assert_eq!(q.next_time(), None);
    assert_eq!(q.pop_upto(u64::MAX), None);
    // Still positioned at 7, not at u64::MAX.
    q.insert(8, 1, ());
    assert_eq!(q.pop_upto(8), Some((8, 1, ())));
}

#[test]
fn interleaved_insert_pop_matches_sorted() {
    // Deterministic pseudo-random workload, no external rng needed.
    let mut state = 0x243f_6a88_85a3_08d3u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut q = EventQueue::new();
    let mut want = Sorted::default();
    let mut seq = 0u64;
    let mut now = 0u64;
    for round in 0..200 {
        for _ in 0..(next() % 8 + 1) {
            let horizon = if next() % 13 == 0 {
                1 << 50
            } else {
                1 << (next() % 20)
            };
            let t = now + next() % horizon;
            q.insert(t, seq, seq);
            want.insert(t, seq, seq);
            seq += 1;
        }
        let bound = now + next() % (1 << (next() % 22));
        loop {
            let got = q.pop_upto(bound);
            assert_eq!(got, want.pop_upto(bound), "diverged at round {round}");
            if got.is_none() {
                break;
            }
        }
        now = bound;
    }
    while let Some(e) = q.pop_upto(u64::MAX) {
        assert_eq!(Some(e), want.pop_upto(u64::MAX));
    }
    assert!(want.0.is_empty());
}

#[test]
fn order_holds_across_growth_full_drain_and_refill() {
    let mut q = EventQueue::new();
    // A couple of in-flight entries, popped promptly.
    q.insert(5, 0, ());
    q.insert(3, 1, ());
    assert_eq!(q.pop_upto(u64::MAX), Some((3, 1, ())));
    // Deepen...
    for i in 0..16u64 {
        q.insert(100 + i * 7, 2 + i, ());
    }
    let mut prev = (0, 0);
    while let Some((t, s, ())) = q.pop_upto(u64::MAX) {
        assert!((t, s) > prev, "order broke as the queue deepened");
        prev = (t, s);
    }
    assert!(q.is_empty());
    // ...and fully drained, later inserts must respect the advanced
    // position.
    q.insert(prev.0 + 1000, 99, ());
    assert_eq!(q.pop_upto(u64::MAX), Some((prev.0 + 1000, 99, ())));
}

/// Pop one queue per-event and an identical queue per-run and assert
/// identical `(time, seq)` streams, including parking behaviour.
fn check_run_against_pop(batch: &[(u64, u64)], bounds: &[u64]) {
    let mut one = EventQueue::new();
    let mut run = EventQueue::new();
    for &(t, s) in batch {
        one.insert(t, s, s);
        run.insert(t, s, s);
    }
    let mut buf = Vec::new();
    for &bound in bounds {
        loop {
            let n = run.pop_run_upto(bound, &mut buf);
            for got in buf.drain(..) {
                assert_eq!(Some(got), one.pop_upto(bound));
            }
            if n == 0 {
                assert_eq!(one.pop_upto(bound), None);
                break;
            }
        }
    }
    assert_eq!(one.len(), run.len());
}

#[test]
fn run_drain_matches_per_event_pop() {
    // Ties, including a run split across a limit.
    check_run_against_pop(&[(5, 0), (5, 1), (5, 2), (9, 3)], &[4, 5, u64::MAX]);
    // Heavy ties at several ticks plus far-future spread.
    let mut batch = Vec::new();
    let mut state = 0x9e37_79b9u64;
    for s in 0..200u64 {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        let t = if s % 3 == 0 { 1000 } else { state % 5000 };
        batch.push((t, s));
    }
    batch.push((1 << 50, 200));
    check_run_against_pop(&batch, &[999, 1000, 4000, u64::MAX]);
}

#[test]
fn run_drain_same_tick_inserts_form_next_run() {
    // Entries inserted after a run is drained, at the same tick, come
    // out as a following run at that tick — in seq order.
    let mut q = EventQueue::new();
    q.insert(7, 0, ());
    q.insert(7, 1, ());
    let mut buf = Vec::new();
    assert_eq!(q.pop_run_upto(u64::MAX, &mut buf), 2);
    assert_eq!(buf, vec![(7, 0, ()), (7, 1, ())]);
    buf.clear();
    q.insert(7, 2, ());
    q.insert(8, 3, ());
    assert_eq!(q.pop_run_upto(u64::MAX, &mut buf), 1);
    assert_eq!(buf, vec![(7, 2, ())]);
    buf.clear();
    assert_eq!(q.pop_run_upto(u64::MAX, &mut buf), 1);
    assert_eq!(buf, vec![(8, 3, ())]);
    assert!(q.is_empty());
}

proptest! {
    /// Random interleavings of every operation the kernel uses, against
    /// the oracle. `low` is the largest limit handed out so far — the
    /// simulator's `now` — and every insert lands at or after it.
    #[test]
    fn random_interleavings_match_sorted_oracle(
        words in prop_vec(any::<u64>(), 1..160),
    ) {
        let mut q = EventQueue::new();
        let mut want = Sorted::default();
        let mut popped: Vec<(u64, u64)> = Vec::new();
        let mut buf = Vec::new();
        let mut seq = 0u64;
        let mut low = 0u64;
        let mut last_t = 0u64;
        for w in words {
            let arg = w >> 3;
            match w % 8 {
                // Inserts, biased 4:4 against the reads so the queue fills
                // and empties; offsets span same-tick, near, far, a
                // duplicate of the previous insert's tick, and u64::MAX.
                0..=3 => {
                    let t = match arg % 6 {
                        0 => low,
                        1 => low + arg % 64,
                        2 => low + 4096 + arg % (1 << 24),
                        3 => low.saturating_add((1 << 40) + arg % (1 << 41)),
                        4 => last_t.max(low),
                        _ => u64::MAX,
                    };
                    q.insert(t, seq, seq);
                    want.insert(t, seq, seq);
                    last_t = t;
                    seq += 1;
                }
                4 => {
                    low += arg % 6000;
                    prop_assert_eq!(q.next_time_upto(low), want.next_time_upto(low));
                }
                5 => {
                    low += arg % 6000;
                    let got = q.pop_upto(low);
                    prop_assert_eq!(got, want.pop_upto(low));
                    popped.extend(got.map(|e| (e.0, e.1)));
                }
                // A run, then (6) same-tick inserts made while "handling"
                // it: they must come out as the next run at that tick.
                kind => {
                    low += arg % 6000;
                    buf.clear();
                    let n = q.pop_run_upto(low, &mut buf);
                    let run = want.pop_run_upto(low);
                    prop_assert_eq!(n, run.len());
                    prop_assert_eq!(&buf, &run);
                    popped.extend(run.iter().map(|e| (e.0, e.1)));
                    if let (6, Some(&(t, _, _))) = (kind, run.first()) {
                        for _ in 0..1 + arg % 3 {
                            q.insert(t, seq, seq);
                            want.insert(t, seq, seq);
                            seq += 1;
                        }
                        buf.clear();
                        q.pop_run_upto(t, &mut buf);
                        let next = want.pop_run_upto(t);
                        prop_assert!(next.iter().all(|e| e.0 == t));
                        prop_assert_eq!(&buf, &next);
                        popped.extend(next.iter().map(|e| (e.0, e.1)));
                    }
                }
            }
            prop_assert_eq!(q.len(), want.0.len());
        }
        // Bounded calls park no later than their limit: an insert at
        // exactly `low` is due at `low`, not clamped past it.
        q.insert(low, seq, seq);
        want.insert(low, seq, seq);
        prop_assert!(q.next_time_upto(low).is_some());
        while let Some(e) = q.pop_upto(u64::MAX) {
            prop_assert_eq!(Some(e), want.pop_upto(u64::MAX));
            popped.push((e.0, e.1));
        }
        prop_assert!(q.is_empty() && want.0.is_empty());
        prop_assert_eq!(popped.len() as u64, seq + 1, "no entry may be lost");
        prop_assert!(popped.windows(2).all(|p| p[0] < p[1]), "strict (time, seq) order");
    }
}
