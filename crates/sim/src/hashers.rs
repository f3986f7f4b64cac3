//! Deterministic, allocation-free hashing for kernel-internal maps.
//!
//! `std::collections::HashMap` defaults to SipHash-1-3 with per-process
//! random keys — DoS-resistant, but both slower than necessary and (worse,
//! for a deterministic simulator) seeded differently every run. The kernel
//! only ever hashes its *own* small fixed-width keys (`HostId`, a
//! `(pid, tag)` pair), so collision-flooding is not a threat model and the
//! Fx-style multiplicative hash below is the right tool: one rotate, one
//! xor, one multiply per word, identical output on every run and platform.
//!
//! Determinism note: the two kernel maps this backs (`watchers`,
//! `cancelled`) are only ever accessed by key — never iterated — so the
//! hasher cannot influence event order even in principle. The golden
//! event-order hashes in `tests/event_order_determinism.rs` pin that.
//!
//! The same alias backs the maps the toolkit touches on every simulated
//! RPC — `RpcTracker::outstanding`, `CircuitBreaker::peers`, the
//! scheduler's per-client tables, `DynamicBenchmark`'s streams — all keyed
//! by ids this program generated (correlation ids, process ids). Where one
//! of them is iterated, the result is a `min`, a sorted list or a set of
//! independent removals, never an order. Keys that arrive from outside
//! (`proto::tcp`'s socket addresses) stay on SipHash, and a table indexed
//! by a small dense key (the Ramsey tenure table) should not be a map at
//! all; `tests/lint.sh` rejects a bare `collections::HashMap` in the
//! simulator-side crates.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Firefox's Fx multiplicative word hash (the same construction the
/// `rustc-hash` crate ships): `state = (state <<rot 5 ^ word) * K` with a
/// fixed odd constant. Not DoS-resistant — for trusted fixed-width keys
/// only.
#[derive(Default)]
pub struct FxHasher {
    hash: u64,
}

/// `pi * 2^62`, the odd multiplier `rustc-hash` uses for 64-bit words.
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        // Word-at-a-time over the tail-padded byte stream; kernel keys are
        // fixed-width integers, so this path only runs for exotic keys.
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add_to_hash(u64::from_le_bytes(c.try_into().unwrap()));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rem.len()].copy_from_slice(rem);
            self.add_to_hash(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add_to_hash(n as u64);
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.add_to_hash(n as u64);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add_to_hash(n as u64);
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add_to_hash(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add_to_hash(n as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// A `HashMap` keyed through [`FxHasher`]: deterministic across runs and
/// measurably faster than SipHash on the kernel's small integer keys.
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_key_same_hash_across_hasher_instances() {
        let h = |k: (u32, u64)| {
            use std::hash::Hash;
            let mut hasher = FxHasher::default();
            k.hash(&mut hasher);
            hasher.finish()
        };
        assert_eq!(h((3, 99)), h((3, 99)));
        assert_ne!(h((3, 99)), h((4, 99)));
        assert_ne!(h((3, 99)), h((3, 100)));
    }

    #[test]
    fn map_roundtrip() {
        let mut m: FxHashMap<(u32, u64), u64> = FxHashMap::default();
        for i in 0..1000u32 {
            m.insert((i, i as u64 * 7), i as u64);
        }
        for i in 0..1000u32 {
            assert_eq!(m.get(&(i, i as u64 * 7)), Some(&(i as u64)));
        }
        assert_eq!(m.len(), 1000);
    }

    #[test]
    fn byte_stream_tail_is_hashed() {
        let h = |bytes: &[u8]| {
            let mut hasher = FxHasher::default();
            hasher.write(bytes);
            hasher.finish()
        };
        assert_ne!(h(b"abcdefgh1"), h(b"abcdefgh2"));
        assert_ne!(h(b"short"), h(b"shorx"));
    }
}
