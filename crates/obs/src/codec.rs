//! The workspace's one little-endian byte codec, and its one FNV-1a.
//!
//! Every binary format the runtimes exchange is written with [`Enc`] and
//! read with [`Dec`]: the tile dump (`exec::checkpoint`), the `net::wire`
//! frame, the UDP datagram header, the chaos spec, the run record and its
//! logs, and the track blob ([`crate::wire`]). Each format keeps its own
//! magic, version, tags and error type; only these primitives are shared. A
//! read past the end is one [`Truncated`], which each format's error type
//! converts from, so `?` works on every primitive.
//!
//! **Decoded counts are bounded by the input.** A count read off the bytes
//! sizes nothing until it is checked. [`Dec::vec_of`] — the only way to
//! build a `Vec` of decoded elements from a count — fails unless
//! `count × elem_min_bytes` fits in the bytes left, where `elem_min_bytes`
//! is the fewest bytes one encoded element can take, and reserves no more
//! bytes than are left besides; [`Dec::take`], [`Dec::bytes`] and
//! [`Dec::f64s`] hand out nothing the input does not hold. A claim of four
//! billion elements in a 32-byte input is therefore a `Truncated` before
//! any memory moves, not a 137 GB reservation.
//!
//! A checksum does not make a count trustworthy. The dump seal, the run
//! record's FNV-1a trailer and every other check here have no key: they
//! catch bit rot and torn writes, but anyone who can hand us bytes — over a
//! socket, or in a file — can change a count and re-seal. So every decoder
//! treats a sealed payload as exactly as hostile as an unsealed one.

use std::fmt;

/// A read ran past the end of the input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Truncated;

impl fmt::Display for Truncated {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "input ends before its payload does")
    }
}

impl std::error::Error for Truncated {}

impl From<Truncated> for std::io::Error {
    fn from(e: Truncated) -> Self {
        std::io::Error::new(std::io::ErrorKind::UnexpectedEof, e)
    }
}

/// Little-endian writer; the bytes are the public `.0`.
#[derive(Debug, Default)]
pub struct Enc(pub Vec<u8>);

/// `Enc::$t` appends one little-endian `$t`, `Dec::$t` reads one.
macro_rules! primitives {
    ($($t:ident),*) => {
        impl Enc {$(
            #[doc = concat!("Appends a `", stringify!($t), "`.")]
            pub fn $t(&mut self, v: $t) {
                self.raw(&v.to_le_bytes());
            }
        )*}
        impl Dec<'_> {$(
            #[doc = concat!("The next `", stringify!($t), "`.")]
            pub fn $t(&mut self) -> Result<$t, Truncated> {
                self.array().map($t::from_le_bytes)
            }
        )*}
    };
}
primitives!(u8, u16, u32, u64, f64);

impl Enc {
    /// Appends `b` as is.
    pub fn raw(&mut self, b: &[u8]) {
        self.0.extend_from_slice(b);
    }
    /// Appends `b` behind its `u32` length.
    pub fn bytes(&mut self, b: &[u8]) {
        self.u32(b.len() as u32);
        self.raw(b);
    }
    /// Appends `vs` as one block: a row costs a copy, not a call per value.
    pub fn f64s(&mut self, vs: &[f64]) {
        let at = self.0.len();
        self.0.resize(at + 8 * vs.len(), 0);
        for (b, v) in self.0[at..].as_chunks_mut::<8>().0.iter_mut().zip(vs) {
            *b = v.to_le_bytes();
        }
    }
}

/// Little-endian reader over the undecoded rest of an input.
#[derive(Debug, Clone, Copy)]
pub struct Dec<'a>(&'a [u8]);

impl<'a> Dec<'a> {
    /// A reader at the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Dec<'a> {
        Dec(bytes)
    }
    /// The bytes not read yet.
    pub fn rest(&self) -> &'a [u8] {
        self.0
    }
    /// How many bytes are left.
    pub fn left(&self) -> usize {
        self.0.len()
    }
    /// The next `n` bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], Truncated> {
        let (head, rest) = self.0.split_at_checked(n).ok_or(Truncated)?;
        self.0 = rest;
        Ok(head)
    }
    fn array<const N: usize>(&mut self) -> Result<[u8; N], Truncated> {
        let (head, rest) = self.0.split_first_chunk::<N>().ok_or(Truncated)?;
        self.0 = rest;
        Ok(*head)
    }
    /// The next bytes behind a `u32` length ([`Enc::bytes`]).
    pub fn bytes(&mut self) -> Result<&'a [u8], Truncated> {
        let n = self.u32()? as usize;
        self.take(n)
    }
    /// The next `n` `f64`s, as one block of `8 · n` bytes that must all be
    /// there before any is read: a row or strip costs a copy, not a call
    /// per value, and extends a `Vec` with one exact reservation.
    pub fn f64s(&mut self, n: usize) -> Result<impl ExactSizeIterator<Item = f64> + 'a, Truncated> {
        let src = self.take(n.checked_mul(8).ok_or(Truncated)?)?;
        Ok(src
            .as_chunks::<8>()
            .0
            .iter()
            .map(|b| f64::from_le_bytes(*b)))
    }
    /// Decodes `count` elements with `f`, each at least `elem_min_bytes`
    /// long. A `count` whose elements cannot fit in the bytes left is
    /// [`Truncated`] before anything is reserved, and the `Vec` never
    /// reserves more bytes than are left: it grows only once an element has
    /// decoded, by at most the bytes then left (one element if fewer), so an
    /// element wider in memory than on the wire costs room only when it is
    /// really there.
    pub fn vec_of<T, E: From<Truncated>>(
        &mut self,
        count: usize,
        elem_min_bytes: usize,
        mut f: impl FnMut(&mut Dec<'a>) -> Result<T, E>,
    ) -> Result<Vec<T>, E> {
        let n = match count.checked_mul(elem_min_bytes.max(1)) {
            Some(bytes) if bytes <= self.left() => count,
            _ => return Err(Truncated.into()),
        };
        let size = size_of::<T>().max(1);
        let mut v = Vec::with_capacity(n.min(self.left() / size));
        for _ in 0..n {
            let x = f(self)?;
            if v.len() == v.capacity() {
                v.reserve_exact((self.left() / size).clamp(1, n - v.len()));
            }
            v.push(x);
        }
        Ok(v)
    }
}

/// Splits a sealed input into its payload and the `u64` trailer after it.
pub fn trailer(bytes: &[u8]) -> Result<(&[u8], u64), Truncated> {
    let (payload, sum) = bytes.split_last_chunk::<8>().ok_or(Truncated)?;
    Ok((payload, u64::from_le_bytes(*sum)))
}

/// The 64-bit FNV-1a offset basis.
pub const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// Streaming 64-bit FNV-1a: the workspace's dependency-free stable hash
/// (the v2 dump seal, the run record's trailer, record-log digests and
/// scheduler trace fingerprints).
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Self::new()
    }
}

impl Fnv1a {
    /// A hash of no bytes (the offset basis).
    pub fn new() -> Self {
        Self(FNV_BASIS)
    }
    /// Folds bytes into the hash.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x100_0000_01b3);
        }
    }
    /// Folds a `u64` (little-endian) into the hash.
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }
    /// Folds an `f64` (bit pattern, little-endian) into the hash.
    pub fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }
    /// The digest.
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// 64-bit FNV-1a over `bytes`.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.write(bytes);
    h.finish()
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]
    use super::*;

    #[test]
    fn fnv1a_matches_reference_vectors() {
        // standard FNV-1a test vectors
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
        let mut h = Fnv1a::new();
        h.write(b"foo");
        h.write(b"bar");
        assert_eq!(h.finish(), fnv1a(b"foobar"));
    }

    #[test]
    fn primitives_roundtrip() {
        let mut e = Enc::default();
        e.u8(7);
        e.u16(0xbeef);
        e.u32(0xdead_beef);
        e.u64(u64::MAX - 1);
        e.f64(-0.5);
        e.bytes(b"abc");
        e.f64s(&[1.5, f64::MIN_POSITIVE]);
        assert_eq!(e.0.len(), 1 + 2 + 4 + 8 + 8 + 4 + 3 + 16);
        let mut d = Dec::new(&e.0);
        assert_eq!(d.u8(), Ok(7));
        assert_eq!(d.u16(), Ok(0xbeef));
        assert_eq!(d.u32(), Ok(0xdead_beef));
        assert_eq!(d.u64(), Ok(u64::MAX - 1));
        assert_eq!(d.f64(), Ok(-0.5));
        assert_eq!(d.bytes(), Ok(&b"abc"[..]));
        assert!(d.f64s(3).is_err(), "a short block reads nothing");
        let two: Vec<f64> = d.f64s(2).unwrap().collect();
        assert_eq!(two, [1.5, f64::MIN_POSITIVE]);
        assert_eq!(d.left(), 0);
        assert_eq!(d.u8(), Err(Truncated));
    }

    #[test]
    fn a_count_must_fit_in_the_bytes_left() {
        let u16s = |bytes: &[u8], count| Dec::new(bytes).vec_of(count, 2, |d| d.u16());
        assert_eq!(u16s(&[1, 0, 2, 0], 2), Ok(vec![1, 2]));
        assert_eq!(u16s(&[1, 0, 2, 0], 3), Err(Truncated));
        assert_eq!(u16s(&[1, 0, 2, 0], u32::MAX as usize), Err(Truncated));
        assert_eq!(u16s(&[1, 0, 2, 0], usize::MAX), Err(Truncated));
        // a zero-byte element still costs one byte of the count
        let units = Dec::new(&[0; 4]).vec_of(5, 0, |_| Ok::<_, Truncated>(()));
        assert_eq!(units, Err(Truncated));
        assert!(Dec::new(&[]).f64s(usize::MAX).is_err());
    }

    #[test]
    fn a_trailer_splits_off_the_last_eight_bytes() {
        let bytes = [1, 2, 3, 9, 0, 0, 0, 0, 0, 0, 0];
        assert_eq!(trailer(&bytes), Ok((&bytes[..3], 9)));
        assert_eq!(trailer(&bytes[..7]), Err(Truncated));
    }
}
