//! The kernel's event queue: a binary heap plus a presorted lane.
//!
//! The simulator's contract is a **total order by `(time, seq)`** where
//! `seq` is the global schedule sequence number, unique per entry and
//! assigned monotonically. What the run schedules as it goes lives in the
//! heap; a batch known before the run (the availability calendars) is
//! preloaded into the lane, sorted so the next one due is last, and costs
//! no sift. A take compares the heap's top with the lane's tail, so both
//! merge into one order (DESIGN §7.1). A key packs `time << 64 | seq`.
//!
//! The queue keeps a *position*: the tick of the last pop, or the `limit`
//! of the last bounded call that found nothing due. [`EventQueue::insert`]
//! and [`EventQueue::preload`] clamp earlier ticks up to it, so an entry
//! can never come out before one that already did, and a queue parked at
//! a `run_until` boundary resumes from exactly that boundary.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

struct Entry<T> {
    /// `time << 64 | seq`.
    key: u128,
    item: T,
}

fn entry<T>(time: u64, seq: u64, item: T) -> Entry<T> {
    let key = (time as u128) << 64 | seq as u128;
    Entry { key, item }
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
/// See the module docs for the lane, the position and the clamping rules.
pub struct EventQueue<T> {
    heap: BinaryHeap<Entry<T>>,
    /// Preloaded entries, sorted descending by key: the next one due is last.
    lane: Vec<Entry<T>>,
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
            lane: Vec::new(),
            cur: 0,
        }
    }

    /// Number of pending entries, heap and lane together.
    pub fn len(&self) -> usize {
        self.heap.len() + self.lane.len()
    }

    /// Whether no entries are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Insert an entry. `time` must be `>=` the queue's current position
    /// (the simulator never schedules into the past; an earlier tick is
    /// clamped to it); `seq` must be globally unique and monotonically
    /// assigned.
    pub fn insert(&mut self, time: u64, seq: u64, item: T) {
        debug_assert!(time >= self.cur, "scheduled into the past");
        self.heap.push(entry(time.max(self.cur), seq, item));
    }

    /// File a batch of `(time, seq, item)` entries known before the run
    /// starts into the lane. Ticks clamp like [`EventQueue::insert`]'s;
    /// seqs must be fresh, as there.
    pub fn preload(&mut self, entries: impl IntoIterator<Item = (u64, u64, T)>) {
        let cur = self.cur;
        self.lane
            .extend(entries.into_iter().map(|(time, seq, item)| {
                debug_assert!(time >= cur, "scheduled into the past");
                entry(time.max(cur), seq, item)
            }));
        // Ascending by the reversed `Ord`: the smallest key ends up last.
        self.lane.sort_unstable();
    }

    /// Key of the earliest pending entry, and whether the lane holds it.
    fn head(&self) -> Option<(u128, bool)> {
        let heap = self.heap.peek().map(|e| e.key);
        match (heap, self.lane.last().map(|e| e.key)) {
            (Some(h), Some(l)) => Some((h.min(l), l < h)),
            (h, l) => h.map(|h| (h, false)).or(l.map(|l| (l, true))),
        }
    }

    /// Take the head [`EventQueue::head`] located.
    fn pop_head(&mut self, from_lane: bool) -> (u64, u64, T) {
        let e = if from_lane {
            self.lane.pop()
        } else {
            self.heap.pop()
        };
        let e = e.expect("head exists");
        (time_of(e.key), e.key as u64, e.item)
    }

    /// [`EventQueue::head`] if it is due by `limit`; otherwise parks as
    /// [`EventQueue::next_time_upto`] describes.
    fn due(&mut self, limit: u64) -> Option<(u128, bool)> {
        let head = self.head()?;
        if time_of(head.0) <= limit {
            Some(head)
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
        self.due(limit).map(|(key, _)| time_of(key))
    }

    /// Tick of the earliest pending entry, regardless of horizon.
    pub fn next_time(&mut self) -> Option<u64> {
        self.next_time_upto(u64::MAX)
    }

    /// Pop the earliest pending entry (by `(time, seq)`) at tick
    /// `<= limit`, as `(time, seq, item)`; `None` parks like
    /// [`EventQueue::next_time_upto`].
    pub fn pop_upto(&mut self, limit: u64) -> Option<(u64, u64, T)> {
        let (key, from_lane) = self.due(limit)?;
        self.cur = time_of(key);
        Some(self.pop_head(from_lane))
    }

    /// Drain the entire run of earliest entries — every pending entry at
    /// the minimum tick `<= limit`, from the heap and the lane merged —
    /// into `out` in `(time, seq)` order, returning how many were appended
    /// (0 exactly when [`pop_upto`] would have returned `None`, with the
    /// same parking behaviour).
    ///
    /// Entries inserted *while the caller processes the run* (at the same
    /// tick, with higher seqs) are not part of it — they form the next run
    /// at the same tick, which is exactly the order per-event popping
    /// would have produced, because seqs are assigned monotonically.
    ///
    /// [`pop_upto`]: EventQueue::pop_upto
    pub fn pop_run_upto(&mut self, limit: u64, out: &mut Vec<(u64, u64, T)>) -> usize {
        let Some((key, mut from_lane)) = self.due(limit) else {
            return 0;
        };
        self.cur = time_of(key);
        // The largest key at the run's tick.
        let last = key | u64::MAX as u128;
        let start = out.len();
        loop {
            out.push(self.pop_head(from_lane));
            match self.head() {
                Some((key, lane)) if key <= last => from_lane = lane,
                _ => break,
            }
        }
        out.len() - start
    }
}
