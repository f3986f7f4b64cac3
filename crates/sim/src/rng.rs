//! Deterministic random-number streams.
//!
//! Every stochastic element of the simulator (network jitter, host load
//! walks, Condor keyboard activity, Java applet arrivals, …) draws from a
//! stream derived from one master seed, so a whole SC98 rerun is exactly
//! reproducible from a single `u64`. We implement splitmix64 (for stream
//! derivation) and xoshiro256** (for the streams themselves) directly rather
//! than depending on `rand`'s generator choice, which is allowed to change
//! across versions; figure regeneration must stay bit-stable.

/// splitmix64 step: used to expand seeds into generator state.
#[inline]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// xoshiro256** deterministic generator.
#[derive(Clone, Debug)]
pub struct Xoshiro256 {
    s: [u64; 4],
}

impl Xoshiro256 {
    /// Seed a generator; the raw seed is expanded through splitmix64 so
    /// nearby seeds give uncorrelated streams.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        Xoshiro256 { s }
    }

    /// Next 64 uniformly random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform f64 in `[0, 1)`.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        // 53 random mantissa bits.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, n)`. `n` must be nonzero.
    #[inline]
    pub fn next_below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0);
        // Lemire's multiply-shift rejection method, unbiased.
        loop {
            let x = self.next_u64();
            let m = (x as u128).wrapping_mul(n as u128);
            let low = m as u64;
            if low >= n && low < n.wrapping_neg() {
                // fast accept path not taken only near the boundary
            }
            if low < n {
                let threshold = n.wrapping_neg() % n;
                if low < threshold {
                    continue;
                }
            }
            return (m >> 64) as u64;
        }
    }

    /// Uniform integer in `[lo, hi]` inclusive.
    #[inline]
    pub fn range_inclusive(&mut self, lo: u64, hi: u64) -> u64 {
        debug_assert!(lo <= hi);
        if lo == hi {
            return lo;
        }
        let span = hi - lo;
        if span == u64::MAX {
            return self.next_u64();
        }
        lo + self.next_below(span + 1)
    }

    /// Uniform f64 in `[lo, hi)`.
    #[inline]
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.next_f64()
    }

    /// Bernoulli draw with probability `p` of `true`.
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Standard-normal draw (Box–Muller; one value per call, no caching so
    /// the stream stays position-independent).
    pub fn normal(&mut self) -> f64 {
        loop {
            let u1 = self.next_f64();
            if u1 > 1e-300 {
                let u2 = self.next_f64();
                return (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
            }
        }
    }

    /// Exponential draw with the given mean.
    pub fn exponential(&mut self, mean: f64) -> f64 {
        loop {
            let u = self.next_f64();
            if u > 1e-300 {
                return -mean * u.ln();
            }
        }
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.next_below(i as u64 + 1) as usize;
            xs.swap(i, j);
        }
    }
}

/// Derives independent child streams from a master seed by hashing the
/// master with a stream label. Used so each simulated component owns its own
/// generator and event-processing order cannot perturb another component's
/// randomness.
#[derive(Clone, Debug)]
pub struct StreamSeeder {
    master: u64,
}

impl StreamSeeder {
    /// Create a seeder for the given master seed.
    pub fn new(master: u64) -> Self {
        StreamSeeder { master }
    }

    /// Derive the stream for `label` (e.g. a process id or trace name).
    pub fn stream(&self, label: u64) -> Xoshiro256 {
        let mut sm = self.master ^ label.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        // Extra splitmix rounds decorrelate label-adjacent streams.
        let a = splitmix64(&mut sm);
        let b = splitmix64(&mut sm);
        Xoshiro256::seed_from_u64(a ^ b.rotate_left(32))
    }

    /// Derive a stream from a string label (stable FNV-1a hash).
    pub fn stream_named(&self, name: &str) -> Xoshiro256 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for byte in name.as_bytes() {
            h ^= *byte as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        self.stream(h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_constructions() {
        let mut a = Xoshiro256::seed_from_u64(42);
        let mut b = Xoshiro256::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Xoshiro256::seed_from_u64(1);
        let mut b = Xoshiro256::seed_from_u64(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut g = Xoshiro256::seed_from_u64(7);
        for _ in 0..10_000 {
            let x = g.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn next_below_bounds_and_coverage() {
        let mut g = Xoshiro256::seed_from_u64(9);
        let mut seen = [false; 10];
        for _ in 0..1_000 {
            let x = g.next_below(10);
            assert!(x < 10);
            seen[x as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues should appear");
    }

    #[test]
    fn range_inclusive_hits_endpoints() {
        let mut g = Xoshiro256::seed_from_u64(11);
        let (mut lo_seen, mut hi_seen) = (false, false);
        for _ in 0..2_000 {
            let x = g.range_inclusive(3, 6);
            assert!((3..=6).contains(&x));
            lo_seen |= x == 3;
            hi_seen |= x == 6;
        }
        assert!(lo_seen && hi_seen);
        assert_eq!(g.range_inclusive(5, 5), 5);
    }

    #[test]
    fn normal_moments_reasonable() {
        let mut g = Xoshiro256::seed_from_u64(13);
        let n = 50_000;
        let xs: Vec<f64> = (0..n).map(|_| g.normal()).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.03, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn exponential_mean_reasonable() {
        let mut g = Xoshiro256::seed_from_u64(17);
        let n = 50_000;
        let mean = (0..n).map(|_| g.exponential(4.0)).sum::<f64>() / n as f64;
        assert!((mean - 4.0).abs() < 0.15, "mean {mean}");
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut g = Xoshiro256::seed_from_u64(19);
        let mut xs: Vec<u32> = (0..50).collect();
        g.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(xs, (0..50).collect::<Vec<_>>(), "50 elements should move");
    }

    #[test]
    fn seeder_streams_independent_and_stable() {
        let s = StreamSeeder::new(12345);
        let mut a1 = s.stream(1);
        let mut a2 = s.stream(1);
        let mut b = s.stream(2);
        assert_eq!(a1.next_u64(), a2.next_u64());
        assert_ne!(a1.next_u64(), b.next_u64());
        let mut n1 = s.stream_named("condor-pool");
        let mut n2 = s.stream_named("condor-pool");
        assert_eq!(n1.next_u64(), n2.next_u64());
    }
}
