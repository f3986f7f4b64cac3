//! The kernel's event queue: one binary heap.
//!
//! The simulator's contract is a **total order by `(time, seq)`** where
//! `seq` is the global schedule sequence number, unique per entry. A key
//! packs `time << 64 | seq`, so the heap orders entries by it alone
//! (DESIGN §7.1).
//!
//! The queue keeps a *position*: the tick of the last pop, or the `limit`
//! of the last bounded call that found nothing due. [`EventQueue::insert`]
//! clamps earlier ticks up to it, so an entry can never come out before
//! one that already did, and a queue parked at a `run_until` boundary
//! resumes from exactly that boundary.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

struct Entry<T> {
    /// `time << 64 | seq`.
    key: u128,
    item: T,
}

fn time_of(key: u128) -> u64 {
    (key >> 64) as u64
}

impl<T> Ord for Entry<T> {
    /// Reversed: `BinaryHeap` is a max-heap and the queue pops the minimum.
    fn cmp(&self, other: &Self) -> Ordering {
        other.key.cmp(&self.key)
    }
}

impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}

impl<T> Eq for Entry<T> {}

/// A priority queue over `u64` ticks with `(time, seq)` total ordering.
/// See the module docs for the position and the clamping rule.
pub struct EventQueue<T> {
    heap: BinaryHeap<Entry<T>>,
    /// Current position. Every pending entry has `time >= cur`.
    cur: u64,
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> EventQueue<T> {
    /// An empty queue positioned at tick 0.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            cur: 0,
        }
    }

    /// Number of pending entries.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no entries are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Insert an entry. `time` must be `>=` the queue's current position
    /// (the simulator never schedules into the past; an earlier tick is
    /// clamped to it). `seq` must be unique, and an entry inserted at the
    /// current tick must carry a seq above every entry already taken at
    /// that tick. A seq drawn earlier may be inserted later at a later
    /// tick: the kernel reserves the availability calendars' seqs before
    /// the run and files each calendar tick before that tick comes up.
    pub fn insert(&mut self, time: u64, seq: u64, item: T) {
        debug_assert!(time >= self.cur, "scheduled into the past");
        let key = (time.max(self.cur) as u128) << 64 | seq as u128;
        self.heap.push(Entry { key, item });
    }

    /// Take the earliest pending entry, which must exist.
    fn take(&mut self) -> (u64, u64, T) {
        let e = self.heap.pop().expect("head exists");
        (time_of(e.key), e.key as u64, e.item)
    }

    /// Key of the earliest pending entry if it is due by `limit`;
    /// otherwise parks as [`EventQueue::next_time_upto`] describes.
    fn due(&mut self, limit: u64) -> Option<u128> {
        let key = self.heap.peek()?.key;
        if time_of(key) <= limit {
            Some(key)
        } else {
            self.cur = self.cur.max(limit);
            None
        }
    }

    /// Tick of the earliest pending entry if it is `<= limit`; pops
    /// nothing. When an entry is pending but later than `limit`, the
    /// position is parked at `limit`, ready to resume later. An empty
    /// queue has no position to resume and stays where it is (parking at
    /// [`EventQueue::next_time`]'s unbounded limit would clamp every later
    /// insert into the far future).
    pub fn next_time_upto(&mut self, limit: u64) -> Option<u64> {
        self.due(limit).map(time_of)
    }

    /// Tick of the earliest pending entry, regardless of horizon.
    pub fn next_time(&mut self) -> Option<u64> {
        self.next_time_upto(u64::MAX)
    }

    /// Pop the earliest pending entry (by `(time, seq)`) at tick
    /// `<= limit`, as `(time, seq, item)`; `None` parks like
    /// [`EventQueue::next_time_upto`].
    pub fn pop_upto(&mut self, limit: u64) -> Option<(u64, u64, T)> {
        self.cur = time_of(self.due(limit)?);
        Some(self.take())
    }

    /// Drain the entire run of earliest entries — every pending entry at
    /// the minimum tick `<= limit` — into `out` in `(time, seq)` order,
    /// returning how many were appended (0 exactly when [`pop_upto`] would
    /// have returned `None`, with the same parking behaviour).
    ///
    /// Entries inserted *while the caller processes the run* (at the same
    /// tick, with higher seqs) are not part of it — they form the next run
    /// at the same tick, which is exactly the order per-event popping
    /// would have produced, because [`EventQueue::insert`] puts their seqs
    /// above the run's.
    ///
    /// [`pop_upto`]: EventQueue::pop_upto
    pub fn pop_run_upto(&mut self, limit: u64, out: &mut Vec<(u64, u64, T)>) -> usize {
        let Some(key) = self.due(limit) else {
            return 0;
        };
        self.cur = time_of(key);
        // The largest key at the run's tick.
        let last = key | u64::MAX as u128;
        let start = out.len();
        loop {
            out.push(self.take());
            match self.heap.peek() {
                Some(e) if e.key <= last => {}
                _ => break,
            }
        }
        out.len() - start
    }
}
