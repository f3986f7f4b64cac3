//! `RandomWalkLoad` against the walk it replaced: the whole horizon drawn
//! up front into a `Vec<f64>`, one sample per step. The walk now keeps only
//! where it stands and advances as the clock reaches it; every query, in any
//! order, must read the value the eager walk stored for that step, to the
//! bit, and building and reading a 12-hour walk must not touch the heap.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use ew_sim::{LoadTrace, RandomWalkLoad, SimDuration, SimTime, Xoshiro256};
use proptest::collection::vec as prop_vec;
use proptest::prelude::*;

struct CountingAlloc;

thread_local! {
    // Per thread: libtest runs the tests of this file on parallel threads.
    // `const`-initialised `Cell<u64>`: touching it from inside the
    // allocator neither allocates nor registers a TLS destructor.
    static ALLOCATED: Cell<u64> = const { Cell::new(0) };
}

fn bill(bytes: usize) {
    // `try_with`: the allocator can run while the thread's TLS is torn down.
    let _ = ALLOCATED.try_with(|n| n.set(n.get() + bytes as u64));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bill(layout.size());
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bill(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Bytes requested so far by the calling thread.
fn allocated() -> u64 {
    ALLOCATED.with(Cell::get)
}

/// The eager walk: `horizon / step + 2` samples drawn at construction, a
/// query past the last reading the last.
struct EagerWalk {
    step: SimDuration,
    samples: Vec<f64>,
}

impl EagerWalk {
    fn new(
        rng: &mut Xoshiro256,
        horizon: SimDuration,
        step: SimDuration,
        mean: f64,
        volatility: f64,
        persistence: f64,
    ) -> Self {
        let n = (horizon.as_micros() / step.as_micros().max(1)) as usize + 2;
        let mut samples = Vec::with_capacity(n);
        let mut x = mean;
        for _ in 0..n {
            samples.push(x.clamp(0.0, 0.999));
            x = mean + persistence * (x - mean) + volatility * rng.normal();
        }
        EagerWalk { step, samples }
    }

    fn load(&self, t: SimTime) -> f64 {
        let i = (t.as_micros() / self.step.as_micros().max(1)) as usize;
        self.samples[i.min(self.samples.len() - 1)]
    }
}

/// One walk's parameters: seed, horizon and step in µs, mean, volatility,
/// persistence.
type Params = (u64, u64, u64, f64, f64, f64);

fn both(&(seed, horizon, step, mean, vol, pers): &Params) -> (RandomWalkLoad, EagerWalk) {
    let (horizon, step) = (
        SimDuration::from_micros(horizon),
        SimDuration::from_micros(step),
    );
    let mut rng = Xoshiro256::seed_from_u64(seed);
    let lazy = RandomWalkLoad::new(&mut rng, horizon, step, mean, vol, pers);
    let mut rng = Xoshiro256::seed_from_u64(seed);
    let eager = EagerWalk::new(&mut rng, horizon, step, mean, vol, pers);
    (lazy, eager)
}

fn params() -> impl Strategy<Value = Params> {
    (
        any::<u64>(),
        0u64..4_000_000_000,
        1u64..120_000_000,
        -0.2f64..1.2,
        0.0f64..0.5,
        0.0f64..0.999,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// Queries in any order — forward, repeated, backward, past the
    /// horizon — read what the eager walk stored, bit for bit.
    #[test]
    fn lazy_walk_matches_the_eager_walk(
        p in params(),
        picks in prop_vec((0u64..4, any::<u64>()), 1..120),
    ) {
        let (lazy, eager) = both(&p);
        let (horizon, step) = (p.1, p.2);
        let mut last = 0u64;
        for (kind, word) in picks {
            let t = match kind {
                // Anywhere up to twice the horizon and a few steps past it.
                0 => word % (2 * horizon + 4 * step + 1),
                // The same instant again.
                1 => last,
                // Back by up to ten steps.
                2 => last.saturating_sub(word % (10 * step + 1)),
                // Forward by up to three steps.
                _ => last + word % (3 * step + 1),
            };
            last = t;
            let t = SimTime::from_micros(t);
            prop_assert_eq!(lazy.load(t).to_bits(), eager.load(t).to_bits(), "at {:?}", t);
        }
    }

    /// The simulator's order: every step once, clock forward, then beyond
    /// the horizon.
    #[test]
    fn a_forward_sweep_matches_every_step(p in params()) {
        let (lazy, eager) = both(&(p.0, p.1 % 600_000_000, p.2.max(1_000_000), p.3, p.4, p.5));
        for i in 0..=eager.samples.len() as u64 + 2 {
            let t = SimTime::ZERO + eager.step * i;
            prop_assert_eq!(lazy.load(t).to_bits(), eager.load(t).to_bits(), "step {}", i);
        }
    }
}

#[test]
fn new_leaves_the_callers_generator_where_it_was() {
    let mut rng = Xoshiro256::seed_from_u64(45);
    let walk = RandomWalkLoad::new(
        &mut rng,
        SimDuration::from_secs(3600),
        SimDuration::from_secs(30),
        0.2,
        0.07,
        0.95,
    );
    walk.load(SimTime::from_secs(3600));
    assert_eq!(rng.next_u64(), Xoshiro256::seed_from_u64(45).next_u64());
}

/// A 12-hour walk at the SC98 pool's 30 s step held 1 442 samples, 11.5 KB
/// per host. Building it and reading every step, once forward and once
/// over again from the start, allocates nothing.
#[test]
fn a_twelve_hour_walk_allocates_nothing() {
    let step = SimDuration::from_secs(30);
    let mut rng = Xoshiro256::seed_from_u64(1998);
    let before = allocated();
    let walk = RandomWalkLoad::new(
        &mut rng,
        SimDuration::from_secs(12 * 3600),
        step,
        0.2,
        0.07,
        0.95,
    );
    let mut sum = 0.0;
    for _ in 0..2 {
        for i in 0..1_442 {
            sum += walk.load(SimTime::ZERO + step * i);
        }
    }
    assert_eq!(allocated() - before, 0, "the walk allocated");
    assert!(sum > 0.0);
}
