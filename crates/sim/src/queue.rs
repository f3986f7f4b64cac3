//! The kernel's event queue: a binary heap keyed by `(time, seq)`.
//!
//! The simulator's contract is a **total order by `(time, seq)`** where
//! `seq` is the global schedule sequence number, unique per entry and
//! assigned monotonically. The shipped worlds keep at most a few thousand
//! entries pending (DESIGN §7.1), so a pop costs about a dozen compares
//! and one structure serves every depth.
//!
//! The queue keeps a *position*: the tick of the last pop, or the `limit`
//! of the last bounded call that found nothing due. [`EventQueue::insert`]
//! clamps earlier ticks up to it, so an entry can never come out before
//! one that already did, and a queue parked at a `run_until` boundary
//! resumes from exactly that boundary.

use std::cmp::Ordering;
use std::collections::binary_heap::PeekMut;
use std::collections::BinaryHeap;

struct Entry<T> {
    time: u64,
    seq: u64,
    item: T,
}

impl<T> Ord for Entry<T> {
    /// Reversed: `BinaryHeap` is a max-heap and the queue pops the minimum.
    fn cmp(&self, other: &Self) -> Ordering {
        (other.time, other.seq).cmp(&(self.time, self.seq))
    }
}

impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        (self.time, self.seq) == (other.time, other.seq)
    }
}

impl<T> Eq for Entry<T> {}

/// A priority queue over `u64` ticks with `(time, seq)` total ordering.
/// See the module docs for the position and clamping rules.
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
    /// clamped to it); `seq` must be globally unique and monotonically
    /// assigned.
    pub fn insert(&mut self, time: u64, seq: u64, item: T) {
        debug_assert!(time >= self.cur, "scheduled into the past");
        let time = time.max(self.cur);
        self.heap.push(Entry { time, seq, item });
    }

    /// Tick of the earliest pending entry if it is `<= limit`; pops
    /// nothing. When an entry is pending but later than `limit`, the
    /// position is parked at `limit`, ready to resume later. An empty
    /// queue has no position to resume and stays where it is (parking at
    /// [`EventQueue::next_time`]'s unbounded limit would clamp every later
    /// insert into the far future).
    pub fn next_time_upto(&mut self, limit: u64) -> Option<u64> {
        let time = self.heap.peek()?.time;
        if time <= limit {
            Some(time)
        } else {
            self.cur = self.cur.max(limit);
            None
        }
    }

    /// Tick of the earliest pending entry, regardless of horizon.
    pub fn next_time(&mut self) -> Option<u64> {
        self.next_time_upto(u64::MAX)
    }

    /// Pop the earliest pending entry (by `(time, seq)`) at tick
    /// `<= limit`, as `(time, seq, item)`; `None` parks like
    /// [`EventQueue::next_time_upto`].
    pub fn pop_upto(&mut self, limit: u64) -> Option<(u64, u64, T)> {
        self.cur = self.next_time_upto(limit)?;
        let e = self.heap.pop().expect("peeked entry exists");
        Some((e.time, e.seq, e.item))
    }

    /// Drain the entire run of earliest entries — every pending entry at
    /// the minimum tick `<= limit` — into `out` in `(time, seq)` order,
    /// returning how many were appended (0 exactly when [`pop_upto`] would
    /// have returned `None`, with the same parking behaviour).
    ///
    /// Entries inserted *while the caller processes the run* (at the same
    /// tick, with higher seqs) are not part of it — they form the next run
    /// at the same tick, which is exactly the order per-event popping
    /// would have produced, because seqs are assigned monotonically.
    ///
    /// [`pop_upto`]: EventQueue::pop_upto
    pub fn pop_run_upto(&mut self, limit: u64, out: &mut Vec<(u64, u64, T)>) -> usize {
        let Some(run_time) = self.next_time_upto(limit) else {
            return 0;
        };
        self.cur = run_time;
        let start = out.len();
        while let Some(top) = self.heap.peek_mut() {
            if top.time != run_time {
                break;
            }
            let e = PeekMut::pop(top);
            out.push((e.time, e.seq, e.item));
        }
        out.len() - start
    }
}
