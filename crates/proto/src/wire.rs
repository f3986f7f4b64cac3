//! Portable wire encoding.
//!
//! The paper's lingua franca deliberately avoided XDR "for fear that it
//! would not be readily available in all environments" (§2.1) and instead
//! used its own rudimentary, maximally-vanilla encoding. This module is
//! that encoding, made explicit: all integers are big-endian, floats travel
//! as finite IEEE-754 bit patterns, strings and vectors are length-prefixed
//! with `u32`. No host byte order, padding, or alignment leaks onto the wire,
//! so any two components agree regardless of platform — the property that
//! let EveryWare span Unix, NT, Java, and the Tera MTA simultaneously.

use std::fmt;

/// Errors produced while decoding wire data.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// Fewer bytes remained than the value required.
    Truncated {
        /// Bytes needed.
        needed: usize,
        /// Bytes available.
        available: usize,
    },
    /// A length prefix exceeded the sanity bound.
    LengthOverflow(u64),
    /// String bytes were not valid UTF-8.
    BadUtf8,
    /// An enum discriminant byte had no mapping.
    BadDiscriminant(u8),
    /// Decoding finished with unconsumed bytes when none were expected.
    TrailingBytes(usize),
    /// An `f64` held these NaN or ±∞ bits: no wire number is one.
    NonFinite(u64),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated { needed, available } => {
                write!(f, "truncated: needed {needed} bytes, had {available}")
            }
            WireError::LengthOverflow(n) => write!(f, "length prefix {n} exceeds sanity bound"),
            WireError::BadUtf8 => write!(f, "string was not valid UTF-8"),
            WireError::BadDiscriminant(d) => write!(f, "unknown discriminant {d}"),
            WireError::TrailingBytes(n) => write!(f, "{n} trailing bytes after decode"),
            WireError::NonFinite(bits) => write!(f, "non-finite float {bits:#018x}"),
        }
    }
}

impl std::error::Error for WireError {}

/// Largest length prefix we will honour (guards against hostile or corrupt
/// peers allocating gigabytes; the paper's services applied analogous
/// "run-time sanity checks", §3.1.2).
pub const MAX_WIRE_LEN: u64 = 64 * 1024 * 1024;

/// Cursor over received bytes.
pub struct WireReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    /// Wrap a byte slice.
    pub fn new(buf: &'a [u8]) -> Self {
        WireReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Take `n` raw bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated {
                needed: n,
                available: self.remaining(),
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Error unless the buffer is fully consumed.
    pub fn finish(self) -> Result<(), WireError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(WireError::TrailingBytes(self.remaining()))
        }
    }
}

/// Types that can serialize themselves onto the wire.
pub trait WireEncode {
    /// Append this value's wire form to `out`.
    fn encode(&self, out: &mut Vec<u8>);

    /// Append the wire form of each element of `items`, with no length
    /// prefix: what a `Vec<Self>` carries after its length. Always the
    /// same bytes as encoding element by element; `u8` overrides it so
    /// byte fields move as one copy.
    fn encode_slice(items: &[Self], out: &mut Vec<u8>)
    where
        Self: Sized,
    {
        for item in items {
            item.encode(out);
        }
    }

    /// Convenience: encode into a fresh buffer.
    fn to_wire(&self) -> Vec<u8> {
        let mut v = Vec::with_capacity(64);
        self.encode(&mut v);
        v
    }

    /// Encode into a shared [`Payload`](ew_sim::Payload) — the preferred
    /// body for packets headed into the simulator: the encoded `Vec` moves
    /// into the payload without a copy, and a fan-out shares it.
    fn to_wire_payload(&self) -> ew_sim::Payload {
        ew_sim::Payload::from(self.to_wire())
    }
}

/// Types that can deserialize themselves from the wire.
pub trait WireDecode: Sized {
    /// Read one value from the cursor.
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError>;

    /// Read `len` consecutive values: what a `Vec<Self>` carries after its
    /// length. Always the same result as decoding element by element; `u8`
    /// overrides it with one copy. `len` comes off the wire, so the
    /// up-front allocation is bounded by the bytes that actually remain.
    fn decode_vec(r: &mut WireReader<'_>, len: usize) -> Result<Vec<Self>, WireError> {
        let mut v = Vec::with_capacity(len.min(r.remaining()));
        for _ in 0..len {
            v.push(Self::decode(r)?);
        }
        Ok(v)
    }

    /// Convenience: decode a complete buffer, rejecting trailing bytes.
    fn from_wire(buf: &[u8]) -> Result<Self, WireError> {
        let mut r = WireReader::new(buf);
        let v = Self::decode(&mut r)?;
        r.finish()?;
        Ok(v)
    }
}

macro_rules! wire_int {
    ($($t:ty),*) => {$(
        impl WireEncode for $t {
            fn encode(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_be_bytes());
            }
        }
        impl WireDecode for $t {
            fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
                let n = std::mem::size_of::<$t>();
                let b = r.take(n)?;
                Ok(<$t>::from_be_bytes(b.try_into().expect("sized take")))
            }
        }
    )*};
}

wire_int!(u16, u32, u64, i8, i16, i32, i64);

impl WireEncode for u8 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(*self);
    }

    fn encode_slice(items: &[u8], out: &mut Vec<u8>) {
        out.extend_from_slice(items);
    }
}

impl WireDecode for u8 {
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(r.take(1)?[0])
    }

    fn decode_vec(r: &mut WireReader<'_>, len: usize) -> Result<Vec<u8>, WireError> {
        Ok(r.take(len)?.to_vec())
    }
}

impl WireEncode for bool {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(*self as u8);
    }
}

impl WireDecode for bool {
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        match u8::decode(r)? {
            0 => Ok(false),
            1 => Ok(true),
            d => Err(WireError::BadDiscriminant(d)),
        }
    }
}

impl WireEncode for f64 {
    fn encode(&self, out: &mut Vec<u8>) {
        self.to_bits().encode(out);
    }
}

impl WireDecode for f64 {
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let bits = u64::decode(r)?;
        let x = f64::from_bits(bits);
        x.is_finite().then_some(x).ok_or(WireError::NonFinite(bits))
    }
}

impl WireEncode for String {
    fn encode(&self, out: &mut Vec<u8>) {
        (self.len() as u32).encode(out);
        out.extend_from_slice(self.as_bytes());
    }
}

impl WireEncode for &str {
    fn encode(&self, out: &mut Vec<u8>) {
        (self.len() as u32).encode(out);
        out.extend_from_slice(self.as_bytes());
    }
}

impl WireDecode for String {
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let len = u32::decode(r)? as u64;
        if len > MAX_WIRE_LEN {
            return Err(WireError::LengthOverflow(len));
        }
        let bytes = r.take(len as usize)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| WireError::BadUtf8)
    }
}

impl<T: WireEncode> WireEncode for Vec<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        (self.len() as u32).encode(out);
        T::encode_slice(self, out);
    }
}

impl<T: WireDecode> WireDecode for Vec<T> {
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let len = u32::decode(r)? as u64;
        if len > MAX_WIRE_LEN {
            return Err(WireError::LengthOverflow(len));
        }
        // Guard allocation by remaining bytes: each element needs ≥ 1 byte.
        if len as usize > r.remaining() && std::mem::size_of::<T>() > 0 {
            return Err(WireError::Truncated {
                needed: len as usize,
                available: r.remaining(),
            });
        }
        T::decode_vec(r, len as usize)
    }
}

impl<T: WireEncode> WireEncode for Option<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.encode(out);
            }
        }
    }
}

impl<T: WireDecode> WireDecode for Option<T> {
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        match u8::decode(r)? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            d => Err(WireError::BadDiscriminant(d)),
        }
    }
}

impl<A: WireEncode, B: WireEncode> WireEncode for (A, B) {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
        self.1.encode(out);
    }
}

impl<A: WireDecode, B: WireDecode> WireDecode for (A, B) {
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok((A::decode(r)?, B::decode(r)?))
    }
}

impl<A: WireEncode, B: WireEncode, C: WireEncode> WireEncode for (A, B, C) {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
        self.1.encode(out);
        self.2.encode(out);
    }
}

impl<A: WireDecode, B: WireDecode, C: WireDecode> WireDecode for (A, B, C) {
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok((A::decode(r)?, B::decode(r)?, C::decode(r)?))
    }
}

/// Implements [`WireEncode`] + [`WireDecode`] for a struct, field by field,
/// in declaration order. Used across the workspace for every message body.
#[macro_export]
macro_rules! wire_struct {
    ($name:ident { $($field:ident),* $(,)? }) => {
        impl $crate::wire::WireEncode for $name {
            fn encode(&self, out: &mut Vec<u8>) {
                $( $crate::wire::WireEncode::encode(&self.$field, out); )*
            }
        }
        impl $crate::wire::WireDecode for $name {
            fn decode(r: &mut $crate::wire::WireReader<'_>)
                -> Result<Self, $crate::wire::WireError>
            {
                Ok($name {
                    $( $field: $crate::wire::WireDecode::decode(r)?, )*
                })
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn round_trip<T: WireEncode + WireDecode + PartialEq + std::fmt::Debug>(v: T) {
        let bytes = v.to_wire();
        let back = T::from_wire(&bytes).expect("decode");
        assert_eq!(v, back);
    }

    #[test]
    fn scalar_round_trips() {
        round_trip(0u8);
        round_trip(255u8);
        round_trip(0xABCDu16);
        round_trip(0xDEAD_BEEFu32);
        round_trip(u64::MAX);
        round_trip(-1i8);
        round_trip(i16::MIN);
        round_trip(i32::MIN);
        round_trip(i64::MIN);
        round_trip(true);
        round_trip(false);
        round_trip(std::f64::consts::PI);
        assert_eq!(
            f64::from_wire(&f64::NEG_INFINITY.to_wire()),
            Err(WireError::NonFinite(f64::NEG_INFINITY.to_bits()))
        );
    }

    #[test]
    fn non_finite_floats_are_a_wire_error() {
        let quiet_nan = f64::NAN.to_bits();
        let patterns = [
            quiet_nan,
            quiet_nan | 0xdead_beef, // quiet, with a payload
            0x7ff0_0000_0000_0001,   // signalling, smallest payload
            0x7ff4_0000_0000_0000,   // signalling, high payload bit
            0xfff8_0000_0000_0000,   // negative quiet NaN
            f64::INFINITY.to_bits(),
            f64::NEG_INFINITY.to_bits(),
        ];
        for bits in patterns {
            assert_eq!(
                f64::from_wire(&bits.to_wire()),
                Err(WireError::NonFinite(bits)),
                "{bits:#018x}"
            );
        }
    }

    #[test]
    fn finite_edge_floats_keep_their_bits() {
        let smallest_subnormal = f64::from_bits(1);
        for x in [
            -0.0,
            smallest_subnormal,
            f64::MIN_POSITIVE,
            f64::MAX,
            f64::MIN,
        ] {
            let back = f64::from_wire(&x.to_wire()).expect("finite decodes");
            assert_eq!(back.to_bits(), x.to_bits(), "{x:e}");
        }
    }

    #[test]
    fn big_endian_on_the_wire() {
        assert_eq!(0x0102_0304u32.to_wire(), vec![1, 2, 3, 4]);
        assert_eq!(0x0102u16.to_wire(), vec![1, 2]);
    }

    #[test]
    fn string_round_trips() {
        round_trip(String::new());
        round_trip("hello grid".to_string());
        round_trip("ünïcødé 図".to_string());
    }

    #[test]
    fn composite_round_trips() {
        round_trip(vec![1u32, 2, 3]);
        round_trip(Vec::<u64>::new());
        round_trip(Some(42u32));
        round_trip(Option::<u32>::None);
        round_trip((1u8, "x".to_string()));
        round_trip((1u8, 2u16, 3u32));
        round_trip(vec![("a".to_string(), 1u64), ("b".to_string(), 2u64)]);
    }

    #[test]
    fn truncated_input_errors() {
        let bytes = 0xDEAD_BEEFu32.to_wire();
        let err = u64::from_wire(&bytes).unwrap_err();
        assert!(matches!(err, WireError::Truncated { .. }));
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = 7u16.to_wire();
        bytes.push(0);
        assert_eq!(
            u16::from_wire(&bytes).unwrap_err(),
            WireError::TrailingBytes(1)
        );
    }

    #[test]
    fn bad_bool_discriminant() {
        assert_eq!(
            bool::from_wire(&[2]).unwrap_err(),
            WireError::BadDiscriminant(2)
        );
    }

    #[test]
    fn bad_option_discriminant() {
        assert_eq!(
            Option::<u8>::from_wire(&[9]).unwrap_err(),
            WireError::BadDiscriminant(9)
        );
    }

    #[test]
    fn bad_utf8_rejected() {
        let mut bytes = Vec::new();
        2u32.encode(&mut bytes);
        bytes.extend_from_slice(&[0xFF, 0xFE]);
        assert_eq!(String::from_wire(&bytes).unwrap_err(), WireError::BadUtf8);
    }

    #[test]
    fn hostile_length_prefix_rejected_without_allocation() {
        // Claims 2^32-1 elements but provides 2 bytes.
        let mut bytes = Vec::new();
        u32::MAX.encode(&mut bytes);
        bytes.extend_from_slice(&[0, 0]);
        let err = Vec::<u64>::from_wire(&bytes).unwrap_err();
        assert!(matches!(
            err,
            WireError::Truncated { .. } | WireError::LengthOverflow(_)
        ));
    }

    #[test]
    fn wire_struct_macro_round_trips() {
        #[derive(Debug, PartialEq)]
        struct Probe {
            id: u64,
            name: String,
            rates: Vec<f64>,
            retry: Option<u32>,
        }
        wire_struct!(Probe {
            id,
            name,
            rates,
            retry
        });
        let p = Probe {
            id: 9,
            name: "sdsc".into(),
            rates: vec![1.0, 2.5],
            retry: Some(3),
        };
        let bytes = p.to_wire();
        assert_eq!(Probe::from_wire(&bytes).unwrap(), p);
    }

    proptest! {
        #[test]
        fn prop_u64_round_trip(x: u64) {
            round_trip(x);
        }

        #[test]
        fn prop_string_round_trip(s in ".{0,200}") {
            round_trip(s.to_string());
        }

        #[test]
        fn prop_vec_u32_round_trip(v in proptest::collection::vec(any::<u32>(), 0..100)) {
            round_trip(v);
        }

        /// `Ok` exactly when the value is finite, and then with its bits
        /// preserved. Half the draws force the all-ones exponent, which a
        /// uniform `u64` hits one time in 2048.
        #[test]
        fn prop_f64_bits_preserved(
            bits in prop_oneof![any::<u64>(), any::<u64>().prop_map(|b| b | 0x7ff0_0000_0000_0000)],
        ) {
            let x = f64::from_bits(bits);
            match f64::from_wire(&x.to_wire()) {
                Ok(back) => {
                    prop_assert!(x.is_finite());
                    prop_assert_eq!(back.to_bits(), bits);
                }
                Err(e) => {
                    prop_assert!(!x.is_finite());
                    prop_assert_eq!(e, WireError::NonFinite(bits));
                }
            }
        }

        #[test]
        fn prop_decode_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..64)) {
            let _ = Vec::<String>::from_wire(&bytes);
            let _ = Option::<(u64, String)>::from_wire(&bytes);
            let _ = String::from_wire(&bytes);
        }
    }
}
