//! Shared, immutable message payloads.
//!
//! A [`Payload`] is one reference-counted buffer: cloning it for a fan-out
//! send (gossip reconciliation, clique token broadcast, scheduler work
//! distribution) is an `Arc` bump, and sub-slicing (how `ew-proto` strips
//! the sim-transport header) shares the same allocation.
//!
//! Payloads are immutable by construction — there is no `&mut [u8]`
//! accessor — so sharing one buffer across many in-flight events cannot
//! let one recipient observe another's mutation.

use std::ops::Deref;
use std::sync::{Arc, OnceLock};

/// An immutable, cheaply clonable byte buffer, optionally viewing a
/// sub-range of a shared allocation.
///
/// The buffer is an `Arc<Vec<u8>>` rather than an `Arc<[u8]>`: converting
/// a `Vec` into an `Arc<[u8]>` allocates a second buffer and copies every
/// byte, which would tax the kernel's send path (callers build message
/// bodies as `Vec`s) on every single message. Wrapping the `Vec` itself
/// moves the existing buffer in for free; the extra pointer hop on reads
/// is noise next to an allocation-plus-memcpy per send.
#[derive(Clone)]
pub struct Payload {
    buf: Arc<Vec<u8>>,
    start: usize,
    end: usize,
}

impl Payload {
    /// An empty payload. All of them share one process-wide buffer, so
    /// empty messages (bare acks are common) never allocate.
    pub fn empty() -> Self {
        static EMPTY: OnceLock<Arc<Vec<u8>>> = OnceLock::new();
        Payload {
            buf: EMPTY.get_or_init(|| Arc::new(Vec::new())).clone(),
            start: 0,
            end: 0,
        }
    }

    /// Build a payload by encoding into a fresh buffer of capacity
    /// `size_hint`.
    ///
    /// `size_hint` is advisory: `f` may write any amount (the `Vec` grows
    /// past the hint as usual), and the result is `Payload::from(vec)` with
    /// the same bytes — so writing nothing gives [`Payload::empty`].
    pub fn build(size_hint: usize, f: impl FnOnce(&mut Vec<u8>)) -> Payload {
        let mut buf = Vec::with_capacity(size_hint);
        f(&mut buf);
        Payload::from(buf)
    }

    /// Byte length of the viewed range.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether the viewed range is empty.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// The viewed bytes.
    pub fn as_slice(&self) -> &[u8] {
        &self.buf[self.start..self.end]
    }

    /// A view of `self[from..]` sharing the same allocation (no copy).
    ///
    /// # Panics
    /// Panics if `from > self.len()`.
    pub fn slice_from(&self, from: usize) -> Payload {
        assert!(
            from <= self.len(),
            "slice_from({from}) past end {}",
            self.len()
        );
        Payload {
            buf: Arc::clone(&self.buf),
            start: self.start + from,
            end: self.end,
        }
    }

    /// Copy the viewed bytes into a fresh `Vec`.
    pub fn to_vec(&self) -> Vec<u8> {
        self.as_slice().to_vec()
    }

    /// Whether the backing allocation is currently shared with at least one
    /// other `Payload` (used by the kernel to count copies avoided on
    /// fan-out sends; purely observational). Empty payloads all share one
    /// process-wide buffer, so they never count as shared — there are no
    /// bytes whose copy could have been saved.
    pub fn is_shared(&self) -> bool {
        !self.is_empty() && Arc::strong_count(&self.buf) > 1
    }
}

impl Deref for Payload {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for Payload {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl From<Vec<u8>> for Payload {
    /// Moves the `Vec`'s buffer in — no copy, no re-allocation.
    fn from(v: Vec<u8>) -> Self {
        if v.is_empty() {
            return Payload::empty();
        }
        let end = v.len();
        Payload {
            buf: Arc::new(v),
            start: 0,
            end,
        }
    }
}

impl From<&[u8]> for Payload {
    fn from(v: &[u8]) -> Self {
        Payload::from(v.to_vec())
    }
}

impl<const N: usize> From<&[u8; N]> for Payload {
    fn from(v: &[u8; N]) -> Self {
        Payload::from(&v[..])
    }
}

impl From<Box<[u8]>> for Payload {
    fn from(v: Box<[u8]>) -> Self {
        Payload::from(v.into_vec())
    }
}

impl Default for Payload {
    fn default() -> Self {
        Payload::empty()
    }
}

impl std::fmt::Debug for Payload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Payload({} bytes)", self.len())
    }
}

impl PartialEq for Payload {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}
impl Eq for Payload {}

impl std::hash::Hash for Payload {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl PartialEq<[u8]> for Payload {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}
impl PartialEq<&[u8]> for Payload {
    fn eq(&self, other: &&[u8]) -> bool {
        self.as_slice() == *other
    }
}
impl<const N: usize> PartialEq<[u8; N]> for Payload {
    fn eq(&self, other: &[u8; N]) -> bool {
        self.as_slice() == other
    }
}
impl<const N: usize> PartialEq<&[u8; N]> for Payload {
    fn eq(&self, other: &&[u8; N]) -> bool {
        self.as_slice() == *other
    }
}
impl PartialEq<Vec<u8>> for Payload {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_slice() == other.as_slice()
    }
}
impl PartialEq<Payload> for Vec<u8> {
    fn eq(&self, other: &Payload) -> bool {
        self.as_slice() == other.as_slice()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_views() {
        let p = Payload::from(vec![1u8, 2, 3, 4, 5]);
        assert_eq!(p.len(), 5);
        assert_eq!(&p[..], &[1, 2, 3, 4, 5]);
        let tail = p.slice_from(2);
        assert_eq!(tail.len(), 3);
        assert_eq!(&tail[..], &[3, 4, 5]);
        // Sub-slicing shares the allocation.
        assert!(tail.is_shared());
        let nested = tail.slice_from(1);
        assert_eq!(&nested[..], &[4, 5]);
        assert_eq!(tail.slice_from(3).len(), 0);
    }

    #[test]
    #[should_panic(expected = "slice_from")]
    fn slice_past_end_panics() {
        Payload::from(vec![1u8]).slice_from(2);
    }

    #[test]
    fn clone_is_shared_not_copied() {
        let p = Payload::from(vec![0u8; 1024]);
        assert!(!p.is_shared());
        let q = p.clone();
        assert!(p.is_shared() && q.is_shared());
        drop(q);
        assert!(!p.is_shared());
    }

    #[test]
    fn equality_across_forms() {
        let p = Payload::from(b"ping");
        assert_eq!(p, *b"ping");
        assert_eq!(p, b"ping");
        assert_eq!(p, b"ping".to_vec());
        assert_eq!(b"ping".to_vec(), p);
        assert_eq!(p, Payload::from(b"xping").slice_from(1));
        assert_ne!(p, Payload::from(b"pong"));
    }

    #[test]
    fn empty_and_default() {
        assert!(Payload::empty().is_empty());
        assert_eq!(Payload::default().len(), 0);
        assert_eq!(Payload::from(Vec::new()), Payload::empty());
    }

    #[test]
    fn debug_is_compact() {
        let p = Payload::from(vec![0u8; 4096]);
        assert_eq!(format!("{p:?}"), "Payload(4096 bytes)");
    }

    #[test]
    fn build_round_trips_bytes() {
        let p = Payload::build(3, |out| out.extend_from_slice(b"abc"));
        assert_eq!(p, b"abc");
        assert!(!p.is_shared());
        // Hint is advisory: writing past it still works.
        let big = Payload::build(4, |out| out.extend_from_slice(&[7u8; 500]));
        assert_eq!(big.len(), 500);
        // Writing nothing gives the canonical empty payload.
        assert_eq!(Payload::build(64, |_| {}), Payload::empty());
    }
}
