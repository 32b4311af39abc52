//! `sm-codec` — the compact binary serialization framework behind the
//! engine's disk-backed artifact store.
//!
//! The workspace's `serde` is an offline marker-trait shim (crates.io is
//! unreachable), so persistence needs its own wire format. The design
//! goals are the store's, not a general interchange format's:
//!
//! * **deterministic** — equal values encode to equal bytes, so stored
//!   artifacts can be content-compared;
//! * **hostile-input safe** — [`Decode`] never panics on truncated or
//!   corrupted bytes; every failure surfaces as a [`CodecError`] the
//!   store turns into a cache miss (rebuild), and length prefixes never
//!   pre-allocate unbounded memory;
//! * **boring** — fixed-width little-endian primitives, `u64` length
//!   prefixes, no varints, no schema evolution (the store's version
//!   header invalidates old formats wholesale instead).
//!
//! Domain types declare their formats with [`record!`] (a struct as its
//! fields, in order) and [`tagged!`] (an enum as a one-byte tag, then the
//! variant's fields). The list in the declaration *is* the wire format:
//! it is written once and both directions expand from it, so encode and
//! decode cannot drift apart. The declarations sit in the owning crates
//! (`sm-netlist`, `sm-layout`, `sm-core`, `sm-engine`), where private
//! fields are reachable. A type gets hand-written impls only when its
//! decode validates or rebuilds: `Rect`, `Floorplan` and `Placement`
//! reject shapes their constructors or users would panic on, `Library`
//! rebuilds its name index and `Netlist` shares its decoded library.
//!
//! The primitives every declared field bottoms out in — [`Reader::take`],
//! [`Reader::take_u8`], [`Reader::take_len`], [`Writer::put_bytes`],
//! [`Writer::put_u8`] and the impls for the fixed-width integers,
//! `usize`, `bool` and `f64` — are `#[inline]`, and so are the impls
//! [`record!`] and [`tagged!`] emit. None of them is generic, so without
//! the attribute a caller in another crate (every declaration lives in
//! one) pays a function call per field. The attribute is used rather
//! than link-time optimization because a profile setting reaches only
//! the workspace that declares it: a package that builds these crates
//! in a workspace of its own, as the campaign benchmark (`campbench/`)
//! does, would decode without it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod lz;

use std::fmt;

/// A decoding failure. Encoding is infallible.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// Input ended before the value was complete.
    UnexpectedEof {
        /// Byte offset the reader stopped at.
        at: usize,
        /// Bytes the failed read needed.
        needed: usize,
    },
    /// A tag, length or payload was structurally invalid.
    Invalid(String),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::UnexpectedEof { at, needed } => {
                write!(
                    f,
                    "unexpected end of input at byte {at} (needed {needed} more)"
                )
            }
            CodecError::Invalid(msg) => write!(f, "invalid encoding: {msg}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Byte sink for encoding.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// An empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// `true` if nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consumes the writer, yielding the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Appends raw bytes verbatim.
    #[inline]
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Appends one byte.
    #[inline]
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }
}

/// Byte source for decoding. Tracks its position; all reads are bounds
/// checked.
#[derive(Debug)]
pub struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader over `bytes`, positioned at the start.
    pub fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, pos: 0 }
    }

    /// Current byte offset.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Bytes not yet consumed.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// Reads exactly `n` raw bytes.
    ///
    /// # Errors
    ///
    /// [`CodecError::UnexpectedEof`] if fewer than `n` bytes remain.
    #[inline]
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::UnexpectedEof {
                at: self.pos,
                needed: n - self.remaining(),
            });
        }
        let out = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// [`CodecError::UnexpectedEof`] at end of input.
    #[inline]
    pub fn take_u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a `u64` length prefix and sanity-checks it against the bytes
    /// actually remaining (each element needs ≥ `min_element_size` bytes),
    /// so corrupted prefixes fail fast instead of driving huge
    /// allocations.
    ///
    /// # Errors
    ///
    /// [`CodecError`] on EOF or an implausible length.
    #[inline]
    pub fn take_len(&mut self, min_element_size: usize) -> Result<usize, CodecError> {
        let raw = u64::decode(self)?;
        let len = usize::try_from(raw)
            .map_err(|_| CodecError::Invalid(format!("length {raw} overflows usize")))?;
        let floor = len.saturating_mul(min_element_size.max(1));
        if floor > self.remaining() {
            return Err(CodecError::Invalid(format!(
                "length prefix {len} needs ≥ {floor} bytes but only {} remain",
                self.remaining()
            )));
        }
        Ok(len)
    }

    /// Succeeds only if every byte has been consumed.
    ///
    /// # Errors
    ///
    /// [`CodecError::Invalid`] if trailing bytes remain.
    pub fn finish(&self) -> Result<(), CodecError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(CodecError::Invalid(format!(
                "{} trailing bytes after value",
                self.remaining()
            )))
        }
    }
}

/// Serialize into a [`Writer`].
pub trait Encode {
    /// Appends this value's encoding to `w`.
    fn encode(&self, w: &mut Writer);
}

/// Deserialize from a [`Reader`].
pub trait Decode: Sized {
    /// Reads one value.
    ///
    /// # Errors
    ///
    /// [`CodecError`] on truncated or invalid input.
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError>;
}

/// Encodes `value` into a fresh byte vector.
pub fn encode_to_vec<T: Encode + ?Sized>(value: &T) -> Vec<u8> {
    let mut w = Writer::new();
    value.encode(&mut w);
    w.into_bytes()
}

/// Decodes exactly one `T` from `bytes`, rejecting trailing garbage.
///
/// # Errors
///
/// [`CodecError`] on truncated, invalid or over-long input.
pub fn decode_from_slice<T: Decode>(bytes: &[u8]) -> Result<T, CodecError> {
    let mut r = Reader::new(bytes);
    let value = T::decode(&mut r)?;
    r.finish()?;
    Ok(value)
}

macro_rules! impl_fixed_int {
    ($($ty:ty),*) => {$(
        impl Encode for $ty {
            #[inline]
            fn encode(&self, w: &mut Writer) {
                w.put_bytes(&self.to_le_bytes());
            }
        }
        impl Decode for $ty {
            #[inline]
            fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
                let raw = r.take(std::mem::size_of::<$ty>())?;
                Ok(<$ty>::from_le_bytes(raw.try_into().expect("exact take")))
            }
        }
    )*};
}

impl_fixed_int!(u8, u16, u32, u64, i8, i16, i32, i64);

/// Implements [`Encode`] and [`Decode`] for a struct as its listed
/// fields, in order, with no framing: the list *is* the wire format.
///
/// ```
/// struct Span {
///     lo: u32,
///     hi: u32,
/// }
/// sm_codec::record!(Span { lo, hi });
///
/// let bytes = sm_codec::encode_to_vec(&Span { lo: 1, hi: 2 });
/// assert_eq!(bytes, [1, 0, 0, 0, 2, 0, 0, 0]);
/// ```
#[macro_export]
macro_rules! record {
    ($ty:ident { $($field:ident),* $(,)? }) => {
        impl $crate::Encode for $ty {
            #[inline]
            fn encode(&self, w: &mut $crate::Writer) {
                $($crate::Encode::encode(&self.$field, w);)*
            }
        }
        impl $crate::Decode for $ty {
            #[inline]
            fn decode(r: &mut $crate::Reader<'_>) -> Result<Self, $crate::CodecError> {
                Ok(Self { $($field: $crate::Decode::decode(r)?,)* })
            }
        }
    };
}

/// Implements [`Encode`] and [`Decode`] for an enum as a one-byte tag
/// followed by the variant's fields, in order: the table *is* the wire
/// format. Tuple fields are named only to be listed. An unknown tag
/// decodes to [`CodecError::Invalid`]`("<Enum> tag <n>")`.
///
/// ```
/// enum Shape {
///     Dot,
///     Circle(u32),
///     Box { w: u32, h: u32 },
/// }
/// sm_codec::tagged!(Shape { 0 => Dot, 1 => Circle(r), 2 => Box { w, h } });
///
/// let bytes = sm_codec::encode_to_vec(&Shape::Circle(7));
/// assert_eq!(bytes, [1, 7, 0, 0, 0]);
/// let err = sm_codec::decode_from_slice::<Shape>(&[3]).err().unwrap();
/// assert_eq!(err, sm_codec::CodecError::Invalid("Shape tag 3".into()));
/// ```
#[macro_export]
macro_rules! tagged {
    ($ty:ident {
        $($tag:literal => $variant:ident
            $(($($tuple:ident),*))?
            $({$($named:ident),*})?),* $(,)?
    }) => {
        impl $crate::Encode for $ty {
            #[inline]
            fn encode(&self, w: &mut $crate::Writer) {
                match self {
                    $(Self::$variant $(($($tuple),*))? $({$($named),*})? => {
                        w.put_u8($tag);
                        $($($crate::Encode::encode($tuple, w);)*)?
                        $($($crate::Encode::encode($named, w);)*)?
                    })*
                }
            }
        }
        impl $crate::Decode for $ty {
            #[inline]
            fn decode(r: &mut $crate::Reader<'_>) -> Result<Self, $crate::CodecError> {
                Ok(match r.take_u8()? {
                    $($tag => Self::$variant
                        $(($({
                            let $tuple = $crate::Decode::decode(r)?;
                            $tuple
                        }),*))?
                        $({$($named: $crate::Decode::decode(r)?),*})?,)*
                    other => {
                        return Err($crate::CodecError::Invalid(format!(
                            concat!(stringify!($ty), " tag {}"),
                            other
                        )))
                    }
                })
            }
        }
    };
}

impl Encode for usize {
    #[inline]
    fn encode(&self, w: &mut Writer) {
        (*self as u64).encode(w);
    }
}

impl Decode for usize {
    #[inline]
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let raw = u64::decode(r)?;
        usize::try_from(raw)
            .map_err(|_| CodecError::Invalid(format!("usize value {raw} overflows")))
    }
}

impl Encode for bool {
    #[inline]
    fn encode(&self, w: &mut Writer) {
        w.put_u8(*self as u8);
    }
}

impl Decode for bool {
    #[inline]
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match r.take_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(CodecError::Invalid(format!("bool tag {other}"))),
        }
    }
}

impl Encode for f64 {
    #[inline]
    fn encode(&self, w: &mut Writer) {
        self.to_bits().encode(w);
    }
}

impl Decode for f64 {
    #[inline]
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(f64::from_bits(u64::decode(r)?))
    }
}

impl Encode for str {
    fn encode(&self, w: &mut Writer) {
        (self.len() as u64).encode(w);
        w.put_bytes(self.as_bytes());
    }
}

impl Encode for String {
    fn encode(&self, w: &mut Writer) {
        self.as_str().encode(w);
    }
}

impl Decode for String {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let len = r.take_len(1)?;
        let raw = r.take(len)?;
        std::str::from_utf8(raw)
            .map(str::to_string)
            .map_err(|e| CodecError::Invalid(format!("non-UTF-8 string: {e}")))
    }
}

impl<T: Encode> Encode for [T] {
    fn encode(&self, w: &mut Writer) {
        (self.len() as u64).encode(w);
        for item in self {
            item.encode(w);
        }
    }
}

impl<T: Encode> Encode for Vec<T> {
    fn encode(&self, w: &mut Writer) {
        self.as_slice().encode(w);
    }
}

impl<T: Decode> Decode for Vec<T> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        // Every element encodes to ≥ 1 byte, which bounds the
        // pre-allocation a corrupted length prefix can trigger.
        let len = r.take_len(1)?;
        let mut out = Vec::with_capacity(len.min(r.remaining()));
        for _ in 0..len {
            out.push(T::decode(r)?);
        }
        Ok(out)
    }
}

impl<T: Encode> Encode for Option<T> {
    fn encode(&self, w: &mut Writer) {
        match self {
            None => w.put_u8(0),
            Some(v) => {
                w.put_u8(1);
                v.encode(w);
            }
        }
    }
}

impl<T: Decode> Decode for Option<T> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match r.take_u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            other => Err(CodecError::Invalid(format!("Option tag {other}"))),
        }
    }
}

impl<A: Encode, B: Encode> Encode for (A, B) {
    fn encode(&self, w: &mut Writer) {
        self.0.encode(w);
        self.1.encode(w);
    }
}

impl<A: Decode, B: Decode> Decode for (A, B) {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok((A::decode(r)?, B::decode(r)?))
    }
}

impl<A: Encode, B: Encode, C: Encode> Encode for (A, B, C) {
    fn encode(&self, w: &mut Writer) {
        self.0.encode(w);
        self.1.encode(w);
        self.2.encode(w);
    }
}

impl<A: Decode, B: Decode, C: Decode> Decode for (A, B, C) {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok((A::decode(r)?, B::decode(r)?, C::decode(r)?))
    }
}

impl<A: Encode, B: Encode, C: Encode, D: Encode, E: Encode> Encode for (A, B, C, D, E) {
    fn encode(&self, w: &mut Writer) {
        self.0.encode(w);
        self.1.encode(w);
        self.2.encode(w);
        self.3.encode(w);
        self.4.encode(w);
    }
}

impl<A: Decode, B: Decode, C: Decode, D: Decode, E: Decode> Decode for (A, B, C, D, E) {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok((
            A::decode(r)?,
            B::decode(r)?,
            C::decode(r)?,
            D::decode(r)?,
            E::decode(r)?,
        ))
    }
}

impl<T: Encode, const N: usize> Encode for [T; N] {
    fn encode(&self, w: &mut Writer) {
        for item in self {
            item.encode(w);
        }
    }
}

impl<T: Decode + Copy + Default, const N: usize> Decode for [T; N] {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let mut out = [T::default(); N];
        for slot in &mut out {
            *slot = T::decode(r)?;
        }
        Ok(out)
    }
}

pub mod frame {
    //! Checksummed record framing for append-only logs.
    //!
    //! A frame is `[u32 payload_len LE][u64 fnv1a(payload) LE][payload]`.
    //! The reader validates length plausibility and checksum before
    //! handing the payload out, so an append-only file whose tail was
    //! torn by a crash — or corrupted in place — yields its longest
    //! valid prefix instead of misparsing: [`read_frame`] simply returns
    //! `None` at the first incomplete or damaged frame.

    /// Bytes of framing overhead per record (length + checksum).
    pub const FRAME_HEADER_LEN: usize = 12;

    /// Upper bound on a single frame's payload (16 MiB). Journal records
    /// are tiny; anything claiming more is corruption, rejected before
    /// any allocation or checksum work.
    pub const MAX_FRAME_PAYLOAD: usize = 16 << 20;

    /// FNV-1a over `bytes` — the workspace's standard content checksum
    /// (same function the artifact store uses for payload integrity).
    pub fn fnv1a(bytes: &[u8]) -> u64 {
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for &b in bytes {
            hash ^= b as u64;
            hash = hash.wrapping_mul(0x100_0000_01b3);
        }
        hash
    }

    /// Appends one framed record to `out`.
    pub fn write_frame(out: &mut Vec<u8>, payload: &[u8]) {
        debug_assert!(payload.len() <= MAX_FRAME_PAYLOAD, "oversized frame");
        out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        out.extend_from_slice(&fnv1a(payload).to_le_bytes());
        out.extend_from_slice(payload);
    }

    /// Reads the frame starting at byte offset `pos`, returning its
    /// payload and the offset of the next frame — or `None` if no
    /// complete, checksum-valid frame starts there (truncated tail,
    /// implausible length, or corrupted bytes).
    pub fn read_frame(bytes: &[u8], pos: usize) -> Option<(&[u8], usize)> {
        let header = bytes.get(pos..pos.checked_add(FRAME_HEADER_LEN)?)?;
        let len = u32::from_le_bytes(header[..4].try_into().expect("exact slice")) as usize;
        if len > MAX_FRAME_PAYLOAD {
            return None;
        }
        let checksum = u64::from_le_bytes(header[4..].try_into().expect("exact slice"));
        let start = pos + FRAME_HEADER_LEN;
        let payload = bytes.get(start..start.checked_add(len)?)?;
        if fnv1a(payload) != checksum {
            return None;
        }
        Some((payload, start + len))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Encode + Decode + PartialEq + std::fmt::Debug>(value: T) {
        let bytes = encode_to_vec(&value);
        let back: T = decode_from_slice(&bytes).expect("roundtrip decode");
        assert_eq!(back, value);
    }

    #[test]
    fn primitives_roundtrip() {
        roundtrip(0u8);
        roundtrip(u64::MAX);
        roundtrip(-42i64);
        roundtrip(usize::MAX as u64);
        roundtrip(true);
        roundtrip(false);
        roundtrip(1.5f64);
        roundtrip(f64::NEG_INFINITY);
        roundtrip(String::from("héllo \u{1f600}"));
        roundtrip(String::new());
    }

    #[test]
    fn nan_payload_survives() {
        let bytes = encode_to_vec(&f64::NAN);
        let back: f64 = decode_from_slice(&bytes).unwrap();
        assert!(back.is_nan());
    }

    #[test]
    fn containers_roundtrip() {
        roundtrip(vec![1u64, 2, 3]);
        roundtrip(Vec::<u32>::new());
        roundtrip(Some(vec![(1u8, -2i64), (3, 4)]));
        roundtrip(Option::<u64>::None);
        roundtrip([7i64; 10]);
        roundtrip((1u8, String::from("x"), vec![false, true]));
    }

    #[test]
    fn equal_values_encode_identically() {
        let a = encode_to_vec(&vec![(1u64, String::from("x")); 3]);
        let b = encode_to_vec(&vec![(1u64, String::from("x")); 3]);
        assert_eq!(a, b);
    }

    #[test]
    fn truncated_input_errors_without_panic() {
        let bytes = encode_to_vec(&vec![1u64, 2, 3]);
        for cut in 0..bytes.len() {
            let r: Result<Vec<u64>, _> = decode_from_slice(&bytes[..cut]);
            assert!(r.is_err(), "truncation at {cut} must fail");
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = encode_to_vec(&7u64);
        bytes.push(0);
        assert!(decode_from_slice::<u64>(&bytes).is_err());
    }

    #[test]
    fn hostile_length_prefix_is_rejected_cheaply() {
        // Claims u64::MAX elements; must fail on the plausibility check,
        // not by attempting the allocation.
        let bytes = encode_to_vec(&u64::MAX);
        assert!(decode_from_slice::<Vec<u8>>(&bytes).is_err());
        assert!(decode_from_slice::<String>(&bytes).is_err());
    }

    #[test]
    fn invalid_tags_are_rejected() {
        assert!(decode_from_slice::<bool>(&[2]).is_err());
        assert!(decode_from_slice::<Option<u8>>(&[9]).is_err());
        let not_utf8 = {
            let mut w = Writer::new();
            2u64.encode(&mut w);
            w.put_bytes(&[0xff, 0xfe]);
            w.into_bytes()
        };
        assert!(decode_from_slice::<String>(&not_utf8).is_err());
    }

    #[test]
    fn frames_roundtrip_in_sequence() {
        let payloads: [&[u8]; 3] = [b"first", b"", b"third record"];
        let mut buf = Vec::new();
        for p in payloads {
            frame::write_frame(&mut buf, p);
        }
        let mut pos = 0;
        for expected in payloads {
            let (payload, next) = frame::read_frame(&buf, pos).expect("intact frame");
            assert_eq!(payload, expected);
            pos = next;
        }
        assert_eq!(pos, buf.len());
        assert!(frame::read_frame(&buf, pos).is_none(), "clean end of log");
    }

    #[test]
    fn torn_and_corrupted_frames_read_as_none() {
        let mut buf = Vec::new();
        frame::write_frame(&mut buf, b"payload");
        // Every truncation of a single frame is rejected.
        for cut in 0..buf.len() {
            assert!(frame::read_frame(&buf[..cut], 0).is_none(), "cut at {cut}");
        }
        // Any flipped byte — header, checksum or payload — is rejected.
        for i in 0..buf.len() {
            let mut bad = buf.clone();
            bad[i] ^= 0x40;
            assert!(frame::read_frame(&bad, 0).is_none(), "flip at {i}");
        }
        // An absurd declared length is rejected before any payload work.
        let mut absurd = ((frame::MAX_FRAME_PAYLOAD + 1) as u32)
            .to_le_bytes()
            .to_vec();
        absurd.extend_from_slice(&[0u8; 8]);
        assert!(frame::read_frame(&absurd, 0).is_none());
        // Out-of-range positions are a clean end, not a panic.
        assert!(frame::read_frame(&buf, buf.len() + 1).is_none());
        assert!(frame::read_frame(&buf, usize::MAX).is_none());
    }
}
