//! Hand-rolled byte codec for every persisted file (snapshots and the
//! two [`super::log`] users, the tick journal and the ingest WAL).
//!
//! Dependency-free, little-endian, bounds-checked. The framing is
//! deliberately simple: a 7-byte preamble (magic, format version, file
//! kind) whose every bit-flip lands on a value check, followed by
//! sections of `id · length · payload · crc32(id ‖ length ‖ payload)` —
//! so any corruption past the preamble fails the CRC rather than
//! misparsing. Decoding arbitrary bytes must *error*, never panic:
//! every read is bounds-checked and every length is validated against
//! the remaining input before allocation.
//!
//! Every persisted type states its layout once, as an impl of
//! [`Codec`]: `put` beside `get`, and `MIN_BYTES`, the fewest bytes any
//! value of the type encodes to. The impls here cover the primitives,
//! `bool`, `Option`, `String`, tuples, arrays, sequences, maps, sets,
//! the id newtypes, the two prefix types and the two layouts of a
//! [`RecordBatch`]: its columns (the wire `BATCH` body, and WAL section
//! id 1, which the WAL still reads) and [`KeyRuns`] (each run of equal
//! adjacent keys once — WAL section id 2, what the WAL writes). The
//! snapshot sections, the journal record and the wire bodies build on
//! them. Three rules hold for all of them:
//!
//! - A sequence, map or set is `count:u64 · item…`, and a decoder checks
//!   the count against the input left at the *element's* `MIN_BYTES`
//!   before it allocates. A container's minimum is derived from its
//!   parts (`codec_struct!` sums a struct's fields), never counted by
//!   hand, so a budget cannot reject bytes the writer produced.
//! - Encoding is canonical: a map is written in the order of its
//!   encoded key bytes, a set in `Ord` order, whatever the order the
//!   container iterates in.
//! - A payload that must hold exactly one value is read through
//!   [`decode_exact`], which refuses trailing bytes.
//!
//! The two kernels under every durable and wire byte are built for
//! throughput: [`crc32`] runs four interleaved slicing-by-8 lanes and
//! folds them with one compile-time constant (≈ 5 GB/s, 3× one lane; no
//! SIMD, which would need the `unsafe` the workspace denies), and a
//! batch reads each column as one slice and writes it through one
//! resize ([`ByteWriter::put_column`]), in both layouts.

use crate::columnar::RecordBatch;
use crate::fxhash::{det_set_with_capacity, DetHashMap, DetHashSet};
use blameit_simnet::{SimTime, TimeBucket};
use blameit_topology::{Asn, CloudLocId, IpPrefix, MetroId, PathId, Prefix24};
use std::borrow::Cow;
use std::collections::{BTreeMap, VecDeque};
use std::hash::Hash;

/// File magic: every persisted file starts with these four bytes.
pub const MAGIC: [u8; 4] = *b"BLIT";

/// On-disk format version, shared by every file kind. Bump on any
/// layout change; loaders refuse other versions rather than guessing.
/// v2: open incidents carry an observation count (verdict provenance).
/// v3: snapshots persist the cumulative observability counters
/// (degraded / chaos / shed). v4: the journal and the ingest WAL are
/// section logs (`persist::log`); the snapshot layout is unchanged.
pub const FORMAT_VERSION: u16 = 4;

/// File kinds (byte 7 of the preamble).
pub const KIND_SNAPSHOT: u8 = 1;
/// Journal file kind.
pub const KIND_JOURNAL: u8 = 2;
/// Ingest WAL file kind.
pub const KIND_INGEST_WAL: u8 = 3;

/// A decode failure. Carries enough context for `fsck` to report where
/// a file went bad; never panics on malformed input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// Input ended before a read of `wanted` bytes at `at`.
    Truncated {
        /// Offset of the failed read.
        at: usize,
        /// Bytes the read needed.
        wanted: usize,
    },
    /// The file does not start with [`MAGIC`].
    BadMagic,
    /// The format version is not [`FORMAT_VERSION`].
    UnsupportedVersion(u16),
    /// The file kind byte names no known file kind.
    BadKind(u8),
    /// A section's CRC32 does not match its contents.
    BadCrc {
        /// The section's id byte.
        section: u8,
    },
    /// Structurally invalid content (bad enum tag, impossible length).
    Invalid(&'static str),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Truncated { at, wanted } => {
                write!(f, "truncated: needed {wanted} byte(s) at offset {at}")
            }
            CodecError::BadMagic => write!(f, "bad magic (not a blameit state file)"),
            CodecError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported format version {v} (expected {FORMAT_VERSION})"
                )
            }
            CodecError::BadKind(k) => write!(f, "unknown file kind {k}"),
            CodecError::BadCrc { section } => write!(f, "CRC mismatch in section {section}"),
            CodecError::Invalid(what) => write!(f, "invalid content: {what}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// One bit of CRC32 (IEEE, reflected) register shift: `c · x mod P`,
/// with bit 31 the coefficient of `x^0`.
const fn times_x(c: u32) -> u32 {
    (c >> 1) ^ (0xEDB8_8320 & (c & 1).wrapping_neg())
}

/// CRC32 (IEEE, reflected) slicing-by-8 lookup tables, built at compile
/// time. `CRC_TABLES[0]` is the classic byte-at-a-time table;
/// `CRC_TABLES[k][b]` is the CRC of byte `b` followed by `k` zero
/// bytes, which is what lets eight input bytes fold in one step. A
/// `static`, so the 8 KiB sit at one address however often `crc32` is
/// inlined.
static CRC_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0u32;
    while i < 256 {
        let mut c = i;
        let mut k = 0;
        while k < 8 {
            c = times_x(c);
            k += 1;
        }
        // lint:allow(panic-in-decode): const-eval table build, i ranges over 0..256 by construction — cannot see runtime input
        tables[0][i as usize] = c;
        i += 1;
    }
    let mut t = 1;
    while t < 8 {
        let mut i = 0;
        while i < 256 {
            // lint:allow(panic-in-decode): const-eval table build, t in 1..8 and i in 0..256 by construction — cannot see runtime input
            let prev = tables[t - 1][i];
            // lint:allow(panic-in-decode): const-eval table build, the byte index is masked to 0..=255 — cannot see runtime input
            tables[t][i] = tables[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        t += 1;
    }
    tables
};

/// `CRC_TABLES[table]` at the low byte of `x`.
#[inline(always)]
fn crc_lookup(table: usize, x: u32) -> u32 {
    // lint:allow(panic-in-decode): `table` is a literal below 8 at every call site and the index is masked to 0..=255 — infallible for any input byte
    CRC_TABLES[table][(x & 0xFF) as usize]
}

/// One byte-at-a-time CRC step: the tail of [`crc32`], and the whole of
/// the test oracle it is checked against.
#[inline]
fn crc32_step(c: u32, b: u8) -> u32 {
    crc_lookup(0, c ^ u32::from(b)) ^ (c >> 8)
}

/// Eight input bytes folded into the CRC register in one step.
#[inline(always)]
fn crc32_step8(c: u32, &[b0, b1, b2, b3, b4, b5, b6, b7]: &[u8; 8]) -> u32 {
    let lo = c ^ u32::from_le_bytes([b0, b1, b2, b3]);
    let hi = u32::from_le_bytes([b4, b5, b6, b7]);
    crc_lookup(7, lo)
        ^ crc_lookup(6, lo >> 8)
        ^ crc_lookup(5, lo >> 16)
        ^ crc_lookup(4, lo >> 24)
        ^ crc_lookup(3, hi)
        ^ crc_lookup(2, hi >> 8)
        ^ crc_lookup(1, hi >> 16)
        ^ crc_lookup(0, hi >> 24)
}

/// Bytes per lane of [`crc32`]'s four-lane blocks.
const LANE: usize = 4096;

/// `x^(8·LANE) mod P`: `x^0` (bit 31) shifted `8·LANE` times, so a
/// register times it is the register after `LANE` zero bytes.
const LANE_SHIFT: u32 = {
    let (mut c, mut k) = (0x8000_0000u32, 0);
    while k < 8 * LANE {
        c = times_x(c);
        k += 1;
    }
    c
};

/// `a · b mod P`, reflected: 32 carry-less shift-and-xor steps.
fn mult_mod_p(a: u32, mut b: u32) -> u32 {
    let mut p = 0;
    for k in (0..32).rev() {
        p ^= b & ((a >> k) & 1).wrapping_neg();
        b = times_x(b);
    }
    p
}

/// CRC32 (IEEE) of `bytes`.
///
/// Whole 16 KiB blocks run as four interleaved 4 KiB lanes, each its own
/// slicing-by-8 chain (lane 0 from the running register, the others
/// from zero), so four lookup chains share the load ports. CRC is
/// linear — `crc(A‖B) = crc(A)·x^(8|B|) ⊕ crc₀(B)` — so the lanes fold
/// with one [`LANE_SHIFT`] multiply each; the rest, and any input under
/// 16 KiB, takes the one-lane loop. No SIMD: `unsafe_code` is denied.
/// On a 1.1 MB batch ≈ 5 GB/s, 3× one lane (2-vCPU Xeon VM).
pub fn crc32(bytes: &[u8]) -> u32 {
    let (blocks, tail) = bytes.as_chunks::<{ 4 * LANE }>();
    let (words, _) = blocks.as_flattened().as_chunks::<8>();
    let (lanes, _) = words.as_chunks::<{ LANE / 8 }>();
    let mut c = !0;
    for block in lanes.as_chunks::<4>().0 {
        let [l0, l1, l2, l3] = block;
        let (mut c0, mut c1, mut c2, mut c3) = (c, 0, 0, 0);
        for (((w0, w1), w2), w3) in l0.iter().zip(l1).zip(l2).zip(l3) {
            c0 = crc32_step8(c0, w0);
            c1 = crc32_step8(c1, w1);
            c2 = crc32_step8(c2, w2);
            c3 = crc32_step8(c3, w3);
        }
        c = [c1, c2, c3]
            .iter()
            .fold(c0, |c, l| mult_mod_p(LANE_SHIFT, c) ^ l);
    }
    let (words, tail) = tail.as_chunks::<8>();
    let c = words.iter().fold(c, crc32_step8);
    !tail.iter().fold(c, |c, &b| crc32_step(c, b))
}

/// Little-endian byte writer.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// An empty writer.
    pub fn new() -> Self {
        ByteWriter::default()
    }

    /// The bytes written so far.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// The bytes written so far (borrowed).
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Drops the contents, keeping the capacity.
    pub fn clear(&mut self) {
        self.buf.clear();
    }

    /// Number of bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Appends raw bytes.
    pub fn put_bytes(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian u16.
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian u32.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian u64.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an f64 as its IEEE-754 bit pattern (exact round-trip).
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Appends a collection length as u64.
    pub fn put_len(&mut self, n: usize) {
        self.put_u64(n as u64);
    }

    /// Appends a column of fixed-width items, each as the `N` bytes
    /// `bytes` makes of it, through one resize of the buffer — the
    /// writer of every batch column, in both layouts.
    pub fn put_column<T: Copy, const N: usize>(
        &mut self,
        column: &[T],
        bytes: impl Fn(T) -> [u8; N],
    ) {
        let start = self.buf.len();
        self.buf.resize(start + N * column.len(), 0);
        // lint:allow(panic-in-decode): encode path — `start` is the length the buffer had before it grew
        let (chunks, _) = self.buf[start..].as_chunks_mut::<N>();
        for (chunk, &v) in chunks.iter_mut().zip(column) {
            *chunk = bytes(v);
        }
    }
}

/// Bounds-checked little-endian reader over a byte slice.
#[derive(Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// A reader over `buf`, positioned at the start.
    pub fn new(buf: &'a [u8]) -> Self {
        ByteReader { buf, pos: 0 }
    }

    /// Current offset.
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Bytes left to read.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Takes `n` raw bytes.
    #[inline]
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::Truncated {
                at: self.pos,
                wanted: n,
            });
        }
        // lint:allow(panic-in-decode): range is in bounds — the remaining() guard above returned Truncated otherwise
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Takes exactly `N` bytes as a fixed-size array.
    #[inline]
    fn array<const N: usize>(&mut self) -> Result<[u8; N], CodecError> {
        let bytes = self.take(N)?;
        let mut out = [0u8; N];
        out.copy_from_slice(bytes);
        Ok(out)
    }

    /// Reads one byte.
    #[inline]
    pub fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(u8::from_le_bytes(self.array()?))
    }

    /// Reads a little-endian u16.
    #[inline]
    pub fn u16(&mut self) -> Result<u16, CodecError> {
        Ok(u16::from_le_bytes(self.array()?))
    }

    /// Reads a little-endian u32.
    #[inline]
    pub fn u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    /// Reads a little-endian u64.
    #[inline]
    pub fn u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    /// Reads an f64 from its bit pattern.
    #[inline]
    pub fn f64(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a collection length and validates it against the bytes
    /// remaining (each element needs at least `min_elem_bytes`), so a
    /// corrupted length can never trigger a huge allocation.
    #[inline]
    pub fn len(&mut self, min_elem_bytes: usize) -> Result<usize, CodecError> {
        let n = self.u64()?;
        let budget = (self.remaining() / min_elem_bytes.max(1)) as u64;
        if n > budget {
            return Err(CodecError::Invalid("length exceeds remaining input"));
        }
        Ok(n as usize)
    }
}

/// A type with one byte layout, written and read from one declaration.
pub trait Codec: Sized {
    /// The fewest bytes any value of the type encodes to: a decoder
    /// checks every count it reads against its element's `MIN_BYTES`
    /// before allocating, so this must never exceed a real encoding.
    const MIN_BYTES: usize;

    /// Appends the value's bytes.
    fn put(&self, w: &mut ByteWriter);

    /// Reads one value written by [`Codec::put`]. Impls on the per-element
    /// decode path are `#[inline]`: without it the generic layers stay
    /// separate calls across codegen units, and decode runs ≈ 15 % slower.
    fn get(r: &mut ByteReader<'_>) -> Result<Self, CodecError>;
}

/// Reads one `T` that must span all of `payload` — a snapshot section,
/// a journal record, a WAL batch; trailing bytes are an error.
pub(crate) fn decode_exact<T: Codec>(payload: &[u8]) -> Result<T, CodecError> {
    read_exact(payload, T::get)
}

/// Reads one value with `read` that must span all of `payload`:
/// [`decode_exact`] for a reader that is not a [`Codec`] impl, such as
/// a [`BatchView`] parse.
pub(crate) fn read_exact<'a, T>(
    payload: &'a [u8],
    read: impl FnOnce(&mut ByteReader<'a>) -> Result<T, CodecError>,
) -> Result<T, CodecError> {
    let mut r = ByteReader::new(payload);
    let value = read(&mut r)?;
    match r.remaining() {
        0 => Ok(value),
        _ => Err(CodecError::Invalid("trailing bytes after the value")),
    }
}

macro_rules! primitive_codec {
    ($($t:ident => $put:ident),* $(,)?) => {$(
        impl Codec for $t {
            const MIN_BYTES: usize = std::mem::size_of::<$t>();
            fn put(&self, w: &mut ByteWriter) {
                w.$put(*self);
            }
            #[inline]
            fn get(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
                r.$t()
            }
        }
    )*};
}

primitive_codec!(u8 => put_u8, u16 => put_u16, u32 => put_u32, u64 => put_u64, f64 => put_f64);

/// A host-sized count or capacity, as a u64.
impl Codec for usize {
    const MIN_BYTES: usize = u64::MIN_BYTES;
    fn put(&self, w: &mut ByteWriter) {
        w.put_len(*self);
    }
    #[inline]
    fn get(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        Ok(r.u64()? as usize)
    }
}

/// One byte, 0 or 1.
impl Codec for bool {
    const MIN_BYTES: usize = u8::MIN_BYTES;
    fn put(&self, w: &mut ByteWriter) {
        w.put_u8(u8::from(*self));
    }
    #[inline]
    fn get(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        match r.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(CodecError::Invalid("bool byte not 0/1")),
        }
    }
}

/// A presence byte, then the value when there is one.
impl<T: Codec> Codec for Option<T> {
    const MIN_BYTES: usize = u8::MIN_BYTES;
    fn put(&self, w: &mut ByteWriter) {
        match self {
            None => w.put_u8(0),
            Some(v) => {
                w.put_u8(1);
                v.put(w);
            }
        }
    }
    #[inline]
    fn get(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        match r.u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::get(r)?)),
            _ => Err(CodecError::Invalid("option byte not 0/1")),
        }
    }
}

/// `len:u64 · bytes`, which must be valid UTF-8.
impl Codec for String {
    const MIN_BYTES: usize = u64::MIN_BYTES;
    fn put(&self, w: &mut ByteWriter) {
        w.put_len(self.len());
        w.put_bytes(self.as_bytes());
    }
    #[inline]
    fn get(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        let n = r.len(u8::MIN_BYTES)?;
        match std::str::from_utf8(r.take(n)?) {
            Ok(s) => Ok(s.to_string()),
            Err(_) => Err(CodecError::Invalid("string is not valid UTF-8")),
        }
    }
}

/// One impl for the tuple of every listed type, then one for each
/// shorter suffix of the list.
macro_rules! tuple_codec {
    () => {};
    ($t0:ident $v0:ident $(, $t:ident $v:ident)*) => {
        /// The fields in order, nothing between them.
        impl<$t0: Codec, $($t: Codec),*> Codec for ($t0, $($t,)*) {
            const MIN_BYTES: usize = $t0::MIN_BYTES $(+ $t::MIN_BYTES)*;
            fn put(&self, w: &mut ByteWriter) {
                let ($v0, $($v,)*) = self;
                $v0.put(w);
                $($v.put(w);)*
            }
            #[inline]
            fn get(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
                Ok(($t0::get(r)?, $($t::get(r)?,)*))
            }
        }
        tuple_codec!($($t $v),*);
    };
}

tuple_codec!(A a, B b, C c, D d, E e, F f, G g, H h);

/// `N` values, no count: the length is the type's.
impl<T: Codec + Copy + Default, const N: usize> Codec for [T; N] {
    const MIN_BYTES: usize = N * T::MIN_BYTES;
    fn put(&self, w: &mut ByteWriter) {
        for v in self {
            v.put(w);
        }
    }
    #[inline]
    fn get(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        let mut out = [T::default(); N];
        for v in &mut out {
            *v = T::get(r)?;
        }
        Ok(out)
    }
}

/// Writes the layout of every sequence, `count:u64 · item…`, from `n`
/// items — a slice, or a ring's two halves chained.
pub(crate) fn put_seq<'a, T: Codec + 'a>(
    w: &mut ByteWriter,
    n: usize,
    items: impl IntoIterator<Item = &'a T>,
) {
    w.put_len(n);
    for v in items {
        v.put(w);
    }
}

impl<T: Codec> Codec for Vec<T> {
    const MIN_BYTES: usize = u64::MIN_BYTES;
    fn put(&self, w: &mut ByteWriter) {
        put_seq(w, self.len(), self);
    }
    #[inline]
    fn get(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        let n = r.len(T::MIN_BYTES)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(T::get(r)?);
        }
        Ok(out)
    }
}

impl<T: Codec> Codec for VecDeque<T> {
    const MIN_BYTES: usize = u64::MIN_BYTES;
    fn put(&self, w: &mut ByteWriter) {
        put_seq(w, self.len(), self);
    }
    #[inline]
    fn get(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        let n = r.len(T::MIN_BYTES)?;
        let mut out = VecDeque::with_capacity(n);
        for _ in 0..n {
            out.push_back(T::get(r)?);
        }
        Ok(out)
    }
}

/// Writes a map's entries as `count:u64 · (key · value(v))…` sorted by
/// encoded key bytes — canonical whatever order the map iterates in.
/// Keys are encoded once into one scratch buffer and a span index over
/// it is sorted; each value is then written straight into `w`. `value`
/// picks what is written of a stored value: the learner writes two maps
/// over its one key set this way.
pub(crate) fn put_entries<'a, K: Codec + 'a, V: 'a, P: Codec + 'a>(
    w: &mut ByteWriter,
    map: impl IntoIterator<Item = (&'a K, &'a V)>,
    value: impl Fn(&'a V) -> &'a P,
) {
    let entries = map.into_iter();
    let mut keys = ByteWriter::new();
    let mut index: Vec<(usize, usize, &P)> = Vec::with_capacity(entries.size_hint().0);
    for (k, v) in entries {
        let start = keys.len();
        k.put(&mut keys);
        index.push((start, keys.len(), value(v)));
    }
    let keys = keys.as_bytes();
    // lint:allow(panic-in-decode): encode path — every span was measured on `keys` as it was written
    let key = |&(start, end, _): &(usize, usize, &P)| &keys[start..end];
    index.sort_unstable_by(|a, b| key(a).cmp(key(b)));
    w.put_len(index.len());
    for entry in &index {
        w.put_bytes(key(entry));
        entry.2.put(w);
    }
}

/// Read as the entry list it is on disk, then collected.
impl<K: Codec + Eq + Hash, V: Codec> Codec for DetHashMap<K, V> {
    const MIN_BYTES: usize = u64::MIN_BYTES;
    fn put(&self, w: &mut ByteWriter) {
        put_entries(w, self, |v| v);
    }
    #[inline]
    fn get(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        Ok(Vec::<(K, V)>::get(r)?.into_iter().collect())
    }
}

/// Written like a [`DetHashMap`]: in encoded-key order, not `Ord` order.
impl<K: Codec + Ord, V: Codec> Codec for BTreeMap<K, V> {
    const MIN_BYTES: usize = u64::MIN_BYTES;
    fn put(&self, w: &mut ByteWriter) {
        put_entries(w, self, |v| v);
    }
    #[inline]
    fn get(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        Ok(Vec::<(K, V)>::get(r)?.into_iter().collect())
    }
}

/// A set as a sequence in `Ord` order.
impl<T: Codec + Ord + Hash> Codec for DetHashSet<T> {
    const MIN_BYTES: usize = u64::MIN_BYTES;
    fn put(&self, w: &mut ByteWriter) {
        let mut items: Vec<&T> = self.iter().collect();
        items.sort_unstable();
        put_seq(w, items.len(), items);
    }
    #[inline]
    fn get(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        let n = r.len(T::MIN_BYTES)?;
        let mut set = det_set_with_capacity(n);
        for _ in 0..n {
            set.insert(T::get(r)?);
        }
        Ok(set)
    }
}

macro_rules! newtype_codec {
    ($($t:ident($inner:ident)),* $(,)?) => {$(
        /// The wrapped integer.
        impl Codec for $t {
            const MIN_BYTES: usize = $inner::MIN_BYTES;
            fn put(&self, w: &mut ByteWriter) {
                self.0.put(w);
            }
            #[inline]
            fn get(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
                Ok($t($inner::get(r)?))
            }
        }
    )*};
}

newtype_codec!(
    CloudLocId(u16),
    PathId(u32),
    Asn(u32),
    MetroId(u16),
    TimeBucket(u32),
    SimTime(u64),
);

/// A `/24` as its block number, range-checked before it is built.
impl Codec for Prefix24 {
    const MIN_BYTES: usize = u32::MIN_BYTES;
    fn put(&self, w: &mut ByteWriter) {
        self.block().put(w);
    }
    #[inline]
    // lint:allow(transitive-effect): Prefix24::from_block is reached only past the 24-bit range check above it — its assert cannot fire
    fn get(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        let block = u32::get(r)?;
        if block >= 1 << 24 {
            return Err(CodecError::Invalid("/24 block number out of range"));
        }
        Ok(Prefix24::from_block(block))
    }
}

/// An announced prefix as `base:u32 · len:u8`, the length at most 32.
impl Codec for IpPrefix {
    const MIN_BYTES: usize = <(u32, u8)>::MIN_BYTES;
    fn put(&self, w: &mut ByteWriter) {
        (self.base(), self.len()).put(w);
    }
    #[inline]
    // lint:allow(transitive-effect): IpPrefix::new is reached only past the `len > 32` check above it — its assert cannot fire
    fn get(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        let (base, len) = <(u32, u8)>::get(r)?;
        if len > 32 {
            return Err(CodecError::Invalid("prefix length > 32"));
        }
        Ok(IpPrefix::new(base, len))
    }
}

/// Implements [`Codec`] for a struct from one list of its fields: each
/// is written, read and budgeted in the order listed, through its own
/// impl. The listed types must be the fields' types, or the read does
/// not compile.
macro_rules! codec_struct {
    ($name:ident { $($field:ident: $ty:ty),+ $(,)? }) => {
        impl $crate::persist::codec::Codec for $name {
            const MIN_BYTES: usize =
                0 $(+ <$ty as $crate::persist::codec::Codec>::MIN_BYTES)+;
            fn put(&self, w: &mut $crate::persist::codec::ByteWriter) {
                $($crate::persist::codec::Codec::put(&self.$field, w);)+
            }
            #[inline]
            fn get(
                r: &mut $crate::persist::codec::ByteReader<'_>,
            ) -> Result<Self, $crate::persist::codec::CodecError> {
                Ok($name {
                    $($field: <$ty as $crate::persist::codec::Codec>::get(r)?),+
                })
            }
        }
    };
}

pub(crate) use codec_struct;

/// Writes the 7-byte file preamble.
pub fn write_preamble(w: &mut ByteWriter, kind: u8) {
    w.put_bytes(&MAGIC);
    w.put_u16(FORMAT_VERSION);
    w.put_u8(kind);
}

/// Validates the 7-byte preamble and returns the reader positioned
/// after it.
pub fn read_preamble<'a>(bytes: &'a [u8], want_kind: u8) -> Result<ByteReader<'a>, CodecError> {
    let mut r = ByteReader::new(bytes);
    if r.take(4)? != MAGIC {
        return Err(CodecError::BadMagic);
    }
    let version = r.u16()?;
    if version != FORMAT_VERSION {
        return Err(CodecError::UnsupportedVersion(version));
    }
    let kind = r.u8()?;
    if kind != want_kind {
        if !(KIND_SNAPSHOT..=KIND_INGEST_WAL).contains(&kind) {
            return Err(CodecError::BadKind(kind));
        }
        return Err(CodecError::Invalid("wrong file kind for this loader"));
    }
    Ok(r)
}

/// Appends one framed section whose payload `body` writes in place:
/// `id · len · payload · crc32(id‖len‖payload)`. The length is patched
/// in and the CRC taken over the writer's own bytes, so the payload is
/// never staged in a second buffer.
pub fn write_section_with(w: &mut ByteWriter, id: u8, body: impl FnOnce(&mut ByteWriter)) {
    let start = w.buf.len();
    w.put_u8(id);
    w.put_u64(0);
    body(w);
    let len = (w.buf.len() - start - 9) as u64;
    // lint:allow(panic-in-decode): encode path — the 9 header bytes at `start` were pushed just above
    w.buf[start + 1..start + 9].copy_from_slice(&len.to_le_bytes());
    // lint:allow(panic-in-decode): encode path — `start` is a length this writer has already reached
    let crc = crc32(&w.buf[start..]);
    w.put_u32(crc);
}

/// Reads one framed section, validating its CRC. Returns `(id, payload)`.
pub fn read_section<'a>(r: &mut ByteReader<'a>) -> Result<(u8, &'a [u8]), CodecError> {
    let start = r.pos;
    let id = r.u8()?;
    let len = r.u64()?;
    if len > r.remaining() as u64 {
        return Err(CodecError::Truncated {
            at: r.pos(),
            wanted: len as usize,
        });
    }
    let payload = r.take(len as usize)?;
    // lint:allow(panic-in-decode): start..pos is the id‖len‖payload span the three reads above just consumed
    let covered = &r.buf[start..r.pos];
    if crc32(covered) != r.u32()? {
        return Err(CodecError::BadCrc { section: id });
    }
    Ok((id, payload))
}

/// One batch as its bytes hold it, in either layout: the counts read
/// and every check a decode makes done, the columns still borrowed.
/// It is the one reader of both layouts — [`RecordBatch::get`] and
/// [`KeyRuns::get`] are a parse ([`columns`](Self::columns),
/// [`key_runs`](Self::key_runs)) then [`materialise`](Self::materialise),
/// and a caller that only has to know a payload is a batch, and its
/// bucket, stops after the parse. Materialising cannot fail.
#[derive(Clone, Copy, Debug)]
pub struct BatchView<'a> {
    /// The batch's bucket.
    pub bucket: TimeBucket,
    keys: KeyColumn<'a>,
    rtt: &'a [[u8; 8]],
}

/// A [`BatchView`]'s keys as its layout stores them.
#[derive(Clone, Copy, Debug)]
enum KeyColumn<'a> {
    /// One eight-byte key a record.
    Plain(&'a [[u8; 8]]),
    /// A checked table of `(key:u64 · len:u32)` runs.
    Runs(&'a [[u8; 12]]),
}

/// One `(key, len)` entry of a key-run table.
fn run_entry(&[k0, k1, k2, k3, k4, k5, k6, k7, l0, l1, l2, l3]: &[u8; 12]) -> (u64, u32) {
    (
        u64::from_le_bytes([k0, k1, k2, k3, k4, k5, k6, k7]),
        u32::from_le_bytes([l0, l1, l2, l3]),
    )
}

impl<'a> BatchView<'a> {
    /// Parses the column layout, `bucket:u32 · n:u32 · keys[n]:u64 ·
    /// rtt[n]:f64`, checking the record count against the bytes
    /// remaining.
    #[inline]
    pub fn columns(r: &mut ByteReader<'a>) -> Result<Self, CodecError> {
        let bucket = TimeBucket(r.u32()?);
        let n = r.u32()? as usize;
        if r.remaining() / 16 < n {
            return Err(CodecError::Invalid(
                "batch record count exceeds remaining input",
            ));
        }
        let keys = KeyColumn::Plain(r.take(8 * n)?.as_chunks::<8>().0);
        let rtt = r.take(8 * n)?.as_chunks::<8>().0;
        Ok(BatchView { bucket, keys, rtt })
    }

    /// Parses the key-run layout, `bucket:u32 · n:u32 · runs:u32 ·
    /// (key:u64 · len:u32)[runs] · rtt[n]:f64`, and checks its run
    /// table: no zero-length run, no two adjacent runs of one key, run
    /// lengths that sum to `n`, and counts the input can hold.
    #[inline]
    pub fn key_runs(r: &mut ByteReader<'a>) -> Result<Self, CodecError> {
        let (bucket, n, runs) = <(TimeBucket, u32, u32)>::get(r)?;
        let (n, runs) = (n as usize, runs as usize);
        if r.remaining() / 12 < runs || (r.remaining() - 12 * runs) / 8 < n {
            return Err(CodecError::Invalid(
                "key-run or record count exceeds remaining input",
            ));
        }
        let table = r.take(12 * runs)?.as_chunks::<12>().0;
        let (mut total, mut last) = (0usize, None);
        for (key, len) in table.iter().map(run_entry) {
            if len == 0 {
                return Err(CodecError::Invalid("zero-length key run"));
            }
            if last == Some(key) {
                return Err(CodecError::Invalid("adjacent key runs share a key"));
            }
            (total, last) = (total + len as usize, Some(key));
        }
        if total != n {
            return Err(CodecError::Invalid(
                "key-run lengths do not sum to the record count",
            ));
        }
        let rtt = r.take(8 * n)?.as_chunks::<8>().0;
        Ok(BatchView {
            bucket,
            keys: KeyColumn::Runs(table),
            rtt,
        })
    }

    /// Records in the batch.
    pub fn len(&self) -> usize {
        self.rtt.len()
    }

    /// Whether the batch holds no record.
    pub fn is_empty(&self) -> bool {
        self.rtt.is_empty()
    }

    /// The batch itself: each column read into a vector of exactly its
    /// size.
    #[inline]
    pub fn materialise(&self) -> RecordBatch {
        let keys = match self.keys {
            KeyColumn::Plain(column) => column.iter().map(|&b| u64::from_le_bytes(b)).collect(),
            KeyColumn::Runs(table) => {
                let mut keys = Vec::with_capacity(self.len());
                for (key, len) in table.iter().map(run_entry) {
                    keys.resize(keys.len() + len as usize, key);
                }
                keys
            }
        };
        let rtt = self.rtt.iter().map(|&b| f64::from_le_bytes(b)).collect();
        RecordBatch {
            bucket: self.bucket,
            keys,
            rtt,
        }
    }
}

/// A batch's columns: `bucket:u32 · n:u32 · keys[n]:u64 · rtt[n]:f64`.
/// This is the wire `BATCH` body and WAL section id 1 (the WAL's
/// layout before [`KeyRuns`]), byte for byte. On read the record count
/// is checked against the bytes remaining before either column is
/// allocated ([`BatchView::columns`]); each column is then one `take`
/// read eight bytes at a time into a vector of exactly its size.
impl Codec for RecordBatch {
    const MIN_BYTES: usize = <(TimeBucket, u32)>::MIN_BYTES;
    fn put(&self, w: &mut ByteWriter) {
        w.buf.reserve(8 + 16 * self.keys.len());
        w.put_u32(self.bucket.0);
        // lint:allow(as-cast-truncation): a batch near u32::MAX keys is undecodable anyway — write_frame rejects past the 64 MiB frame cap (~4M records)
        w.put_u32(self.keys.len() as u32);
        w.put_column(&self.keys, u64::to_le_bytes);
        w.put_column(&self.rtt, f64::to_le_bytes);
    }
    #[inline]
    fn get(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        BatchView::columns(r).map(|view| view.materialise())
    }
}

/// A batch in the ingest WAL's key-run layout: `bucket:u32 · n:u32 ·
/// runs:u32 · (key:u64 · len:u32)[runs] · rtt[n]:f64` — each maximal
/// run of equal adjacent keys once, then the RTT column as it stands.
/// Any batch round-trips, but an admitted batch is key-sorted, so a
/// run is a whole quartet group and a record costs 8 bytes plus its
/// share of its group's 12. Encoding is canonical: the decoder refuses
/// a zero-length run, two adjacent runs of one key and run lengths
/// that do not sum to `n` (checked over the table before the key
/// column is allocated, [`BatchView::key_runs`]), and counts the input
/// cannot hold.
#[derive(Debug)]
pub struct KeyRuns<'a>(pub Cow<'a, RecordBatch>);

impl Codec for KeyRuns<'_> {
    const MIN_BYTES: usize = <(TimeBucket, u32, u32)>::MIN_BYTES;
    fn put(&self, w: &mut ByteWriter) {
        let batch = &*self.0;
        let mut runs: Vec<(u64, u32)> = Vec::new();
        for &key in &batch.keys {
            match runs.last_mut() {
                Some((last, len)) if *last == key => *len += 1,
                _ => runs.push((key, 1)),
            }
        }
        w.buf.reserve(12 + 12 * runs.len() + 8 * batch.len());
        w.put_u32(batch.bucket.0);
        // lint:allow(as-cast-truncation): the same bound as RecordBatch::put's count
        w.put_u32(batch.len() as u32);
        // lint:allow(as-cast-truncation): there are no more runs than records
        w.put_u32(runs.len() as u32);
        w.put_column(&runs, |(key, len)| {
            let ([k0, k1, k2, k3, k4, k5, k6, k7], [l0, l1, l2, l3]) =
                (key.to_le_bytes(), len.to_le_bytes());
            [k0, k1, k2, k3, k4, k5, k6, k7, l0, l1, l2, l3]
        });
        w.put_column(&batch.rtt, f64::to_le_bytes);
    }
    #[inline]
    fn get(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        BatchView::key_runs(r).map(|view| KeyRuns(Cow::Owned(view.materialise())))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blameit_topology::rng::DetRng;

    #[test]
    fn crc32_known_vector() {
        // The canonical IEEE check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// The definition: one byte per step, no tables beyond the first.
    fn bytewise(bytes: &[u8]) -> u32 {
        bytes.iter().fold(!0u32, |c, &b| crc32_step(c, b)) ^ !0
    }

    fn seeded_bytes(seed: u64, len: usize) -> Vec<u8> {
        let mut rng = DetRng::new(seed);
        (0..len).map(|_| rng.below(256) as u8).collect()
    }

    #[test]
    fn crc32_matches_the_bytewise_loop_at_every_length_and_alignment() {
        let mut rng = DetRng::new(0xC8C);
        let pool = seeded_bytes(0xC8D, 4096 + 8);
        for start in 0..8 {
            let lens = (0..=64).chain((0..200).map(|_| rng.below(4097) as usize));
            for len in lens.chain([4095, 4096]) {
                let bytes = &pool[start..start + len];
                assert_eq!(crc32(bytes), bytewise(bytes), "start {start} len {len}");
            }
        }
    }

    /// The four-lane blocks start at 16 KiB: every length within 64
    /// bytes of one and two whole blocks, at every start offset, and
    /// two large buffers (one `steady` wire batch, 1 104 008 bytes, and
    /// a warm snapshot's 2.75 MB) agree with the definition.
    #[test]
    fn lane_crc32_matches_the_bytewise_loop_around_block_boundaries() {
        let block = 4 * LANE;
        let pool = seeded_bytes(0x1A4E, 2 * block + 64 + 8);
        for start in 0..8 {
            for len in (block - 64..=block + 64).chain(2 * block - 64..=2 * block + 64) {
                let bytes = &pool[start..start + len];
                assert_eq!(crc32(bytes), bytewise(bytes), "start {start} len {len}");
            }
        }
        for (seed, len) in [(0x57EAD, 1_104_008), (0x5A5, 2_750_000)] {
            let bytes = seeded_bytes(seed, len);
            assert_eq!(crc32(&bytes), bytewise(&bytes), "len {len}");
        }
    }

    #[test]
    fn the_lane_shift_is_lane_zero_bytes_through_the_register() {
        let zeros = [0u8; LANE];
        for c in [1, 0x8000_0000, 0xDEAD_BEEF, !0] {
            let shifted = zeros.iter().fold(c, |c, &b| crc32_step(c, b));
            assert_eq!(mult_mod_p(LANE_SHIFT, c), shifted, "{c:#x}");
        }
    }

    /// What `v.put` writes into a fresh buffer.
    fn bytes_of<T: Codec>(v: &T) -> Vec<u8> {
        let mut w = ByteWriter::new();
        v.put(&mut w);
        w.into_bytes()
    }

    #[test]
    fn primitives_roundtrip() {
        let mut w = ByteWriter::new();
        w.put_u8(7);
        w.put_u16(513);
        w.put_u32(70_000);
        w.put_u64(1 << 40);
        w.put_f64(-0.125);
        true.put(&mut w);
        None::<f64>.put(&mut w);
        Some(f64::NAN).put(&mut w);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u16().unwrap(), 513);
        assert_eq!(r.u32().unwrap(), 70_000);
        assert_eq!(r.u64().unwrap(), 1 << 40);
        assert_eq!(r.f64().unwrap(), -0.125);
        assert!(bool::get(&mut r).unwrap());
        assert_eq!(Option::<f64>::get(&mut r).unwrap(), None);
        assert!(Option::<f64>::get(&mut r).unwrap().unwrap().is_nan());
        assert_eq!(r.remaining(), 0);
        assert!(matches!(r.u8(), Err(CodecError::Truncated { .. })));
    }

    /// `v` encodes to exactly `T::MIN_BYTES`, and reads back to the
    /// same bytes.
    fn assert_tight<T: Codec>(v: T, what: &str) {
        let bytes = bytes_of(&v);
        assert_eq!(bytes.len(), T::MIN_BYTES, "{what}");
        let back: T = decode_exact(&bytes).unwrap_or_else(|e| panic!("{what}: {e}"));
        assert_eq!(bytes_of(&back), bytes, "{what}");
    }

    /// `MIN_BYTES` is a tight bound: the smallest value of every impl
    /// here encodes to exactly it.
    #[test]
    fn the_smallest_value_of_every_impl_takes_exactly_min_bytes() {
        assert_tight(0u8, "u8");
        assert_tight(0u16, "u16");
        assert_tight(0u32, "u32");
        assert_tight(0u64, "u64");
        assert_tight(0f64, "f64");
        assert_tight(0usize, "usize");
        assert_tight(false, "bool");
        assert_tight(None::<u64>, "Option");
        assert_tight(String::new(), "String");
        assert_tight((0u8, 0u16, 0u32, 0u64), "tuple");
        assert_tight((0u8, 0u8, 0u8, 0u8, 0u8, 0u8, 0u8, 0u8), "8-tuple");
        assert_tight([0u64; 3], "array");
        assert_tight(Vec::<u64>::new(), "Vec");
        assert_tight(VecDeque::<u64>::new(), "VecDeque");
        assert_tight(DetHashMap::<u64, String>::default(), "DetHashMap");
        assert_tight(BTreeMap::<u64, String>::new(), "BTreeMap");
        assert_tight(DetHashSet::<u64>::default(), "DetHashSet");
        assert_tight(CloudLocId(0), "CloudLocId");
        assert_tight(PathId(0), "PathId");
        assert_tight(Asn(0), "Asn");
        assert_tight(MetroId(0), "MetroId");
        assert_tight(TimeBucket(0), "TimeBucket");
        assert_tight(SimTime(0), "SimTime");
        assert_tight(Prefix24::from_block(0), "Prefix24");
        assert_tight(IpPrefix::new(0, 0), "IpPrefix");
        let empty = RecordBatch {
            bucket: TimeBucket(0),
            keys: vec![],
            rtt: vec![],
        };
        assert_tight(empty.clone(), "RecordBatch");
        assert_tight(KeyRuns(Cow::Owned(empty)), "KeyRuns");
    }

    /// A count one past what the input can hold at the element's
    /// `MIN_BYTES` is refused before anything is allocated.
    #[test]
    fn a_count_is_checked_against_the_element_s_min_bytes() {
        let vec_of = |n: u64, body: usize| {
            let mut w = ByteWriter::new();
            w.put_u64(n);
            w.put_bytes(&vec![0; body]);
            w.into_bytes()
        };
        // Three (u16, u8) pairs fit in 9 bytes; four claimed do not.
        assert_eq!(
            decode_exact::<Vec<(u16, u8)>>(&vec_of(3, 9)).unwrap().len(),
            3
        );
        assert_eq!(
            decode_exact::<Vec<(u16, u8)>>(&vec_of(4, 9)).unwrap_err(),
            CodecError::Invalid("length exceeds remaining input")
        );
        assert!(decode_exact::<DetHashMap<u16, u8>>(&vec_of(4, 9)).is_err());
        assert!(decode_exact::<Vec<u8>>(&vec_of(u64::MAX, 0)).is_err());
        // Trailing bytes behind a whole value are refused too.
        assert_eq!(
            decode_exact::<Vec<(u16, u8)>>(&vec_of(2, 9)).unwrap_err(),
            CodecError::Invalid("trailing bytes after the value")
        );
    }

    #[test]
    fn maps_are_written_in_encoded_key_order_and_sets_in_ord_order() {
        // 256 encodes as 00 01 and 1 as 01 00: byte order puts 256 first.
        let map: DetHashMap<u16, bool> = [(1, true), (256, false)].into_iter().collect();
        assert_eq!(bytes_of(&map), [2, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 1, 0, 1]);
        let tree: BTreeMap<u16, bool> = map.clone().into_iter().collect();
        assert_eq!(bytes_of(&tree), bytes_of(&map));
        let set: DetHashSet<u16> = [256, 1].into_iter().collect();
        assert_eq!(bytes_of(&set), [2, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 1]);
        assert_eq!(
            decode_exact::<DetHashMap<u16, bool>>(&bytes_of(&map)),
            Ok(map)
        );
    }

    #[test]
    fn tags_and_ranges_are_checked() {
        assert!(decode_exact::<bool>(&[2]).is_err());
        assert!(decode_exact::<Option<u8>>(&[2, 0]).is_err());
        assert!(decode_exact::<String>(&bytes_of(&(1u64, 0xFFu8))).is_err());
        assert!(decode_exact::<Prefix24>(&bytes_of(&(1u32 << 24))).is_err());
        assert!(decode_exact::<IpPrefix>(&bytes_of(&(0u32, 33u8))).is_err());
        assert!(decode_exact::<IpPrefix>(&bytes_of(&(0u32, 32u8))).is_ok());
    }

    #[test]
    fn section_roundtrip_and_crc() {
        let mut w = ByteWriter::new();
        write_preamble(&mut w, KIND_SNAPSHOT);
        write_section_with(&mut w, 3, |w| w.put_bytes(b"hello"));
        let mut bytes = w.into_bytes();
        let mut r = read_preamble(&bytes, KIND_SNAPSHOT).unwrap();
        let (id, payload) = read_section(&mut r).unwrap();
        assert_eq!((id, payload), (3, b"hello".as_slice()));

        // Any single-byte corruption past the preamble fails the CRC
        // (or a value check) — including the id and length bytes.
        for i in 7..bytes.len() {
            bytes[i] ^= 0x10;
            let res = read_preamble(&bytes, KIND_SNAPSHOT)
                .and_then(|mut r| read_section(&mut r).map(|_| ()));
            assert!(res.is_err(), "flip at {i} went undetected");
            bytes[i] ^= 0x10;
        }
    }

    #[test]
    fn preamble_rejects_garbage() {
        assert_eq!(
            read_preamble(b"no", KIND_SNAPSHOT).unwrap_err(),
            CodecError::Truncated { at: 0, wanted: 4 }
        );
        assert_eq!(
            read_preamble(b"nope", KIND_SNAPSHOT).unwrap_err(),
            CodecError::BadMagic
        );
        assert_eq!(
            read_preamble(b"XXXXxxxxx", KIND_SNAPSHOT).unwrap_err(),
            CodecError::BadMagic
        );
        let mut w = ByteWriter::new();
        w.put_bytes(&MAGIC);
        w.put_u16(99);
        w.put_u8(KIND_SNAPSHOT);
        assert_eq!(
            read_preamble(&w.into_bytes(), KIND_SNAPSHOT).unwrap_err(),
            CodecError::UnsupportedVersion(99)
        );
        let mut w = ByteWriter::new();
        write_preamble(&mut w, 9);
        assert_eq!(
            read_preamble(&w.into_bytes(), KIND_SNAPSHOT).unwrap_err(),
            CodecError::BadKind(9)
        );
        let mut w = ByteWriter::new();
        write_preamble(&mut w, KIND_JOURNAL);
        assert!(read_preamble(&w.into_bytes(), KIND_SNAPSHOT).is_err());
    }

    #[test]
    fn batch_columns_round_trip_and_refuse_a_length_lie() {
        let batch = RecordBatch {
            bucket: TimeBucket(42),
            keys: vec![3, 3, 9, 700],
            rtt: vec![10.0, 11.5, -0.0, f64::MAX],
        };
        let bytes = bytes_of(&batch);
        assert_eq!(bytes.len(), 8 + 16 * batch.len());
        let mut r = ByteReader::new(&bytes);
        assert_eq!(RecordBatch::get(&mut r).unwrap(), batch);
        assert_eq!(r.remaining(), 0);
        // Every proper prefix is refused, never a panic.
        for cut in 0..bytes.len() {
            assert!(RecordBatch::get(&mut ByteReader::new(&bytes[..cut])).is_err());
        }
        // A count claiming 1M records over an empty body is refused by
        // the pre-check, not by attempting the allocation.
        let mut w = ByteWriter::new();
        w.put_u32(0);
        w.put_u32(1_000_000);
        assert_eq!(
            RecordBatch::get(&mut ByteReader::new(&w.into_bytes())).unwrap_err(),
            CodecError::Invalid("batch record count exceeds remaining input")
        );
    }

    /// The per-element column decoder the whole-column one replaced —
    /// the reference its `Result`s are held to.
    fn decode_columns_per_element(r: &mut ByteReader<'_>) -> Result<RecordBatch, CodecError> {
        let bucket = TimeBucket(r.u32()?);
        let n = r.u32()? as usize;
        if r.remaining() / 16 < n {
            return Err(CodecError::Invalid(
                "batch record count exceeds remaining input",
            ));
        }
        let keys = (0..n).map(|_| r.u64()).collect::<Result<_, _>>()?;
        let rtt = (0..n).map(|_| r.f64()).collect::<Result<_, _>>()?;
        Ok(RecordBatch { bucket, keys, rtt })
    }

    #[test]
    fn whole_column_decode_matches_the_per_element_reference_on_every_prefix() {
        let mut rng = DetRng::new(0xDEC);
        let n = 37;
        let batch = RecordBatch {
            bucket: TimeBucket(9),
            keys: (0..n).map(|_| rng.below(1 << 40)).collect(),
            rtt: (0..n)
                .map(|i| f64::from_bits(rng.below(1 << 63) ^ i))
                .collect(),
        };
        let mut w = ByteWriter::new();
        batch.put(&mut w);
        w.put_u8(0xEE); // a trailing byte neither decoder may consume
        let bytes = w.into_bytes();
        // A count that overruns the body by exactly one record.
        let mut overrun = bytes.clone();
        overrun[4..8].copy_from_slice(&(n as u32 + 1).to_le_bytes());
        let prefixes = (0..=bytes.len()).map(|cut| &bytes[..cut]);
        for input in prefixes.chain([overrun.as_slice()]) {
            let (mut a, mut b) = (ByteReader::new(input), ByteReader::new(input));
            let (got, want) = (RecordBatch::get(&mut a), decode_columns_per_element(&mut b));
            // Bitwise, so NaN payloads count.
            let bits = |r: &Result<RecordBatch, CodecError>| {
                r.clone().map(|b| {
                    (
                        b.bucket,
                        b.keys,
                        b.rtt.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                    )
                })
            };
            assert_eq!(bits(&got), bits(&want), "input of {} bytes", input.len());
            assert_eq!(a.pos(), b.pos(), "input of {} bytes", input.len());
        }
    }

    /// The per-element column writer [`ByteWriter::put_column`]
    /// replaced — the reference its bytes are held to.
    fn put_columns_per_element(batch: &RecordBatch, w: &mut ByteWriter) {
        w.put_u32(batch.bucket.0);
        w.put_u32(batch.keys.len() as u32);
        for &k in &batch.keys {
            w.put_u64(k);
        }
        for &r in &batch.rtt {
            w.put_f64(r);
        }
    }

    #[test]
    fn the_bulk_column_writer_matches_the_per_element_loop_at_every_length() {
        let mut rng = DetRng::new(0xC01);
        let lens = (0..=64).chain((0..32).map(|_| rng.below(5000) as usize));
        for n in lens.collect::<Vec<_>>() {
            let batch = RecordBatch {
                bucket: TimeBucket(rng.below(1 << 32) as u32),
                keys: (0..n).map(|_| rng.next_u64()).collect(),
                rtt: (0..n).map(|_| f64::from_bits(rng.next_u64())).collect(),
            };
            // Behind a byte already in the buffer, so the column starts
            // unaligned, as it does after a section header.
            let (mut bulk, mut reference) = (ByteWriter::new(), ByteWriter::new());
            bulk.put_u8(0xA5);
            reference.put_u8(0xA5);
            batch.put(&mut bulk);
            put_columns_per_element(&batch, &mut reference);
            assert_eq!(bulk.as_bytes(), reference.as_bytes(), "{n} records");
        }
    }

    /// A key-run payload from its parts, exactly as given — so a test
    /// can write what the encoder never would.
    fn runs_payload(n: u32, runs: &[(u64, u32)], rtt: &[f64]) -> Vec<u8> {
        let mut w = ByteWriter::new();
        (TimeBucket(3), n, runs.len() as u32).put(&mut w);
        for run in runs {
            run.put(&mut w);
        }
        for r in rtt {
            r.put(&mut w);
        }
        w.into_bytes()
    }

    fn runs_of(bytes: &[u8]) -> Result<RecordBatch, CodecError> {
        decode_exact::<KeyRuns>(bytes).map(|runs| runs.0.into_owned())
    }

    #[test]
    fn key_runs_write_each_run_of_equal_adjacent_keys_once() {
        let batch = RecordBatch {
            bucket: TimeBucket(3),
            keys: vec![5, 5, 5, 2, 9, 9, 5],
            rtt: vec![1.0, 2.0, 3.0, 4.0, -0.0, f64::MAX, 7.0],
        };
        let bytes = bytes_of(&KeyRuns(Cow::Borrowed(&batch)));
        let runs = [(5, 3), (2, 1), (9, 2), (5, 1)];
        assert_eq!(bytes, runs_payload(7, &runs, &batch.rtt));
        assert_eq!(bytes.len(), 12 + 12 * 4 + 8 * 7);
        assert_eq!(runs_of(&bytes), Ok(batch));
        // Every proper prefix is refused, never a panic.
        for cut in 0..bytes.len() {
            assert!(KeyRuns::get(&mut ByteReader::new(&bytes[..cut])).is_err());
        }
    }

    #[test]
    fn key_runs_refuse_a_zero_length_run() {
        let bytes = runs_payload(1, &[(5, 1), (6, 0)], &[1.0]);
        assert_eq!(
            runs_of(&bytes),
            Err(CodecError::Invalid("zero-length key run"))
        );
    }

    #[test]
    fn key_runs_refuse_two_adjacent_runs_of_one_key() {
        let bytes = runs_payload(3, &[(5, 1), (5, 2)], &[1.0, 2.0, 3.0]);
        assert_eq!(
            runs_of(&bytes),
            Err(CodecError::Invalid("adjacent key runs share a key"))
        );
    }

    #[test]
    fn key_runs_refuse_lengths_that_do_not_sum_to_the_record_count() {
        let want = Err(CodecError::Invalid(
            "key-run lengths do not sum to the record count",
        ));
        // Runs short of the count, and past it.
        assert_eq!(runs_of(&runs_payload(3, &[(5, 2)], &[1.0; 3])), want);
        assert_eq!(runs_of(&runs_payload(2, &[(5, 3)], &[1.0; 2])), want);
        // A count with no runs at all.
        assert_eq!(runs_of(&runs_payload(1, &[], &[1.0])), want);
    }

    #[test]
    fn key_runs_refuse_counts_beyond_the_remaining_input() {
        let want = Err(CodecError::Invalid(
            "key-run or record count exceeds remaining input",
        ));
        // A run table one entry longer than the bytes behind it …
        let mut bytes = runs_payload(2, &[(5, 2)], &[1.0, 2.0]);
        bytes[8..12].copy_from_slice(&2u32.to_le_bytes());
        assert_eq!(runs_of(&bytes), want);
        // … a record count one past them …
        bytes[4..12].copy_from_slice(&[3, 0, 0, 0, 1, 0, 0, 0]);
        assert_eq!(runs_of(&bytes), want);
        // … and counts claiming billions over an empty body, refused
        // before anything is allocated.
        assert_eq!(runs_of(&runs_payload(u32::MAX, &[], &[])), want);
        let mut w = ByteWriter::new();
        (0u32, 0u32, u32::MAX).put(&mut w);
        assert_eq!(runs_of(&w.into_bytes()), want);
    }

    #[test]
    fn length_validation_blocks_huge_allocs() {
        let mut w = ByteWriter::new();
        w.put_u64(u64::MAX); // absurd length
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert!(r.len(1).is_err());
    }
}
