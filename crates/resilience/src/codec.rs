//! Byte-deterministic checkpoint codec.
//!
//! Checkpoints must satisfy a stronger contract than ordinary
//! serialization: a crawl killed and resumed from a checkpoint has to
//! reproduce *bit-identical* statistics to an uninterrupted run. That
//! rules out anything lossy (float formatting) or order-dependent on
//! hash-map iteration. This module provides a tiny little-endian codec —
//! [`Writer`] / [`Reader`] — with:
//!
//! - fixed-width integer encodings and `f64` via [`f64::to_bits`];
//! - length-prefixed strings and byte blobs;
//! - a sealed-frame layer ([`seal`] / [`open`]) adding a magic tag, a
//!   version byte, and an FNV-1a checksum so truncated or corrupted
//!   checkpoint files fail loudly instead of resuming from garbage;
//! - in-place framing ([`Writer::frame`], [`Writer::prefixed`]) and a
//!   multi-lane FNV-1a pass ([`hash_lanes`]) that fills every checksum
//!   and digest slot of nested frames in one sweep over their bytes.

use std::fmt;
use std::ops::Range;

/// Errors surfaced when decoding a checkpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// Input ended before the value was complete.
    Truncated { what: &'static str },
    /// Frame does not start with the expected magic/tag.
    BadMagic { expected: [u8; 4], found: [u8; 4] },
    /// Frame version is newer than this decoder understands.
    BadVersion { expected: u16, found: u16 },
    /// Frame checksum mismatch — the bytes were corrupted.
    BadChecksum { expected: u64, found: u64 },
    /// A string field was not valid UTF-8.
    BadUtf8,
    /// An enum discriminant had no mapping.
    BadTag { what: &'static str, tag: u8 },
    /// A decoded value does not fit the platform type it targets
    /// (e.g. a 64-bit length on a 32-bit host).
    Oversize { what: &'static str, value: u64 },
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated { what } => {
                write!(f, "checkpoint truncated while reading {what}")
            }
            CodecError::BadMagic { expected, found } => write!(
                f,
                "bad checkpoint magic: expected {:?}, found {:?}",
                String::from_utf8_lossy(expected),
                String::from_utf8_lossy(found)
            ),
            CodecError::BadVersion { expected, found } => {
                write!(f, "unsupported checkpoint version {found} (decoder speaks {expected})")
            }
            CodecError::BadChecksum { expected, found } => {
                write!(f, "checkpoint checksum mismatch: stored {expected:#018x}, computed {found:#018x}")
            }
            CodecError::BadUtf8 => write!(f, "checkpoint string field is not valid UTF-8"),
            CodecError::BadTag { what, tag } => {
                write!(f, "unknown {what} discriminant {tag} in checkpoint")
            }
            CodecError::Oversize { what, value } => {
                write!(f, "checkpoint {what} value {value} does not fit this platform")
            }
        }
    }
}

impl std::error::Error for CodecError {}

/// Append-only little-endian encoder.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    pub fn new() -> Writer {
        Writer::default()
    }

    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub fn bool(&mut self, v: bool) {
        self.buf.push(u8::from(v));
    }

    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Encoded via bit pattern: round-trips NaN payloads and signed
    /// zeros exactly, which keeps resumed accumulators bit-identical.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    pub fn str(&mut self, v: &str) {
        self.bytes(v.as_bytes());
    }

    pub fn bytes(&mut self, v: &[u8]) {
        self.u64(v.len() as u64);
        self.buf.extend_from_slice(v);
    }

    /// Writes eight zero bytes and returns their offset: a `u64` slot
    /// that [`hash_lanes`] fills in later (see [`Patch`]).
    pub fn u64_slot(&mut self) -> usize {
        let slot = self.buf.len();
        self.u64(0);
        slot
    }

    /// Writes a length-prefixed blob that `body` encodes straight into
    /// this writer: the same bytes as [`Writer::bytes`] over a blob
    /// encoded on its own, without the intermediate buffer.
    pub fn prefixed<T>(&mut self, body: impl FnOnce(&mut Writer) -> T) -> T {
        let slot = self.u64_slot();
        let out = body(self);
        let len = (self.buf.len() - slot - 8) as u64;
        self.buf[slot..slot + 8].copy_from_slice(&len.to_le_bytes());
        out
    }

    /// Writes a [`seal`]-format frame whose payload `body` encodes in
    /// place. The checksum slot is left zeroed; pass the returned span's
    /// payload as a lane and its checksum slot as a [`Patch`] to
    /// [`hash_lanes`] to seal it. Once sealed, the bytes equal
    /// `seal(tag, version, payload)`.
    pub fn frame<T>(
        &mut self,
        tag: [u8; 4],
        version: u16,
        body: impl FnOnce(&mut Writer) -> T,
    ) -> (FrameSpan, T) {
        self.buf.extend_from_slice(&tag);
        self.u16(version);
        let start = self.buf.len() + 8;
        let out = self.prefixed(body);
        let payload = start..self.buf.len();
        let checksum = self.u64_slot();
        (FrameSpan { payload, checksum }, out)
    }

    pub fn len(&self) -> usize {
        self.buf.len()
    }

    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

/// Cursor over encoded bytes.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], CodecError> {
        if self.buf.len() - self.pos < n {
            return Err(CodecError::Truncated { what });
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    pub fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1, "u8")?[0])
    }

    pub fn bool(&mut self) -> Result<bool, CodecError> {
        Ok(self.u8()? != 0)
    }

    pub fn u16(&mut self) -> Result<u16, CodecError> {
        Ok(u16::from_le_bytes(self.take(2, "u16")?.try_into().unwrap()))
    }

    pub fn u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.take(4, "u32")?.try_into().unwrap()))
    }

    pub fn u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.take(8, "u64")?.try_into().unwrap()))
    }

    pub fn i64(&mut self) -> Result<i64, CodecError> {
        Ok(i64::from_le_bytes(self.take(8, "i64")?.try_into().unwrap()))
    }

    pub fn usize(&mut self) -> Result<usize, CodecError> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| CodecError::Oversize { what: "usize", value: v })
    }

    pub fn f64(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.u64()?))
    }

    pub fn str(&mut self) -> Result<String, CodecError> {
        let bytes = self.bytes()?;
        String::from_utf8(bytes).map_err(|_| CodecError::BadUtf8)
    }

    pub fn bytes(&mut self) -> Result<Vec<u8>, CodecError> {
        Ok(self.bytes_ref()?.to_vec())
    }

    /// A length-prefixed blob, borrowed from the input instead of copied.
    pub fn bytes_ref(&mut self) -> Result<&'a [u8], CodecError> {
        let len = self.usize()?;
        self.take(len, "bytes")
    }

    /// True once every byte has been consumed.
    pub fn is_empty(&self) -> bool {
        self.pos >= self.buf.len()
    }

    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }
}

const FNV_OFFSET: u64 = 0xcbf29ce484222325;
const FNV_PRIME: u64 = 0x100000001b3;

/// Advances `K` independent FNV-1a chains over the same bytes. Each
/// chain is a serial xor–multiply dependency, so the loop runs at the
/// multiplier's latency; the chains interleave in the pipeline and two
/// to four cost about what one does.
#[inline(always)]
fn fnv_run<const K: usize>(h: &mut [u64; K], bytes: &[u8]) {
    for &b in bytes {
        let b = u64::from(b);
        for lane in h.iter_mut() {
            *lane = (*lane ^ b).wrapping_mul(FNV_PRIME);
        }
    }
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = [FNV_OFFSET];
    fnv_run(&mut h, bytes);
    h[0]
}

/// Runs the chains `active` (indices into `h`) over `bytes`, four at a
/// time.
fn fnv_lanes(h: &mut [u64], active: &[usize], bytes: &[u8]) {
    fn group<const K: usize>(h: &mut [u64], idx: &[usize], bytes: &[u8]) {
        let mut s = [0u64; K];
        for (slot, &i) in s.iter_mut().zip(idx) {
            *slot = h[i];
        }
        fnv_run(&mut s, bytes);
        for (&v, &i) in s.iter().zip(idx) {
            h[i] = v;
        }
    }
    for idx in active.chunks(4) {
        match idx.len() {
            1 => group::<1>(h, idx, bytes),
            2 => group::<2>(h, idx, bytes),
            3 => group::<3>(h, idx, bytes),
            _ => group::<4>(h, idx, bytes),
        }
    }
}

/// Where [`Writer::frame`] put a frame's payload and its checksum slot,
/// as offsets into the writer's bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrameSpan {
    /// The payload bytes the checksum covers.
    pub payload: Range<usize>,
    /// Offset of the frame's 8-byte checksum slot.
    pub checksum: usize,
}

/// An 8-byte slot of the buffer that [`hash_lanes`] fills with the
/// finished digest of `lane` (little-endian) — a frame checksum or a
/// recorded digest. Every range of the lane must end at or before the
/// slot, so the digest is final when the pass reaches it; lanes that
/// cover the slot then hash the filled-in bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Patch {
    pub slot: usize,
    pub lane: usize,
}

/// One pass over `buf` that computes `N` FNV-1a digests at once. Lane
/// `i` hashes the ascending, non-overlapping byte ranges `lanes[i]` as
/// if they were one concatenated string, so its result equals
/// [`digest`] over that concatenation. Each [`Patch`] slot is written
/// as the pass reaches it, before any lane reads those bytes. This is
/// how nested frames are sealed without re-reading them: an inner
/// frame's checksum is patched in before the outer frame's lane hashes
/// past it.
///
/// # Panics
///
/// When a range or slot lies outside `buf`, a lane's ranges are
/// unordered or overlap, slots overlap, a patch names a missing lane,
/// or a patched lane has a range ending after its slot — all caller
/// bugs, not input errors.
pub fn hash_lanes<const N: usize>(
    buf: &mut [u8],
    lanes: &[Vec<Range<usize>>; N],
    patches: &[Patch],
) -> [u64; N] {
    for ranges in lanes {
        let mut end = 0;
        for r in ranges {
            assert!(end <= r.start && r.start <= r.end && r.end <= buf.len(), "bad lane range {r:?}");
            end = r.end;
        }
    }
    let mut patches = patches.to_vec();
    patches.sort_unstable_by_key(|p| p.slot);
    let mut slot_end = 0;
    for p in &patches {
        let fits = p.slot.checked_add(8).is_some_and(|end| end <= buf.len());
        assert!(p.slot >= slot_end && fits, "bad patch slot {}", p.slot);
        let ranges = &lanes[p.lane];
        assert!(
            ranges.last().is_none_or(|r| r.end <= p.slot),
            "lane {} still runs at its patch slot {}",
            p.lane,
            p.slot
        );
        slot_end = p.slot + 8;
    }

    // Cut the buffer wherever a lane starts or stops or a slot begins;
    // between two cuts the set of active lanes is fixed.
    let mut cuts: Vec<usize> = lanes
        .iter()
        .flatten()
        .flat_map(|r| [r.start, r.end])
        .chain(patches.iter().map(|p| p.slot))
        .collect();
    cuts.sort_unstable();
    cuts.dedup();

    let mut h = [FNV_OFFSET; N];
    let mut next_range = [0usize; N];
    let mut pending = patches.iter().peekable();
    let mut active = [0usize; N];
    for (i, &at) in cuts.iter().enumerate() {
        while let Some(p) = pending.next_if(|p| p.slot == at) {
            buf[p.slot..p.slot + 8].copy_from_slice(&h[p.lane].to_le_bytes());
        }
        let Some(&to) = cuts.get(i + 1) else { break };
        let mut n = 0;
        for (lane, ranges) in lanes.iter().enumerate() {
            let next = &mut next_range[lane];
            while ranges.get(*next).is_some_and(|r| r.end <= at) {
                *next += 1;
            }
            if ranges.get(*next).is_some_and(|r| r.start <= at) {
                active[n] = lane;
                n += 1;
            }
        }
        fnv_lanes(&mut h, &active[..n], &buf[at..to]);
    }
    h
}

/// Wraps a payload in a verified frame: `tag | version | len | payload
/// | fnv64(payload)`.
pub fn seal(tag: [u8; 4], version: u16, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + 22);
    out.extend_from_slice(&tag);
    out.extend_from_slice(&version.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(payload);
    out.extend_from_slice(&fnv1a(payload).to_le_bytes());
    out
}

/// The fields of a [`seal`]ed frame, borrowed from it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sealed<'a> {
    pub tag: [u8; 4],
    pub version: u16,
    /// The payload, as long as the frame's length prefix says.
    pub payload: &'a [u8],
    /// The stored checksum, as read (not verified).
    pub checksum: u64,
}

/// Splits a [`seal`]ed frame into its fields without checking tag,
/// version or checksum; bytes after the checksum are ignored. For
/// frames verified by [`open`] earlier, and for tools that re-frame a
/// payload.
pub fn split(frame: &[u8]) -> Result<Sealed<'_>, CodecError> {
    let mut r = Reader::new(frame);
    let tag: [u8; 4] = r.take(4, "frame tag")?.try_into().unwrap();
    let version = r.u16()?;
    let len = r.usize()?;
    let payload = r.take(len, "frame payload")?;
    let checksum = r.u64()?;
    Ok(Sealed { tag, version, payload, checksum })
}

/// Verifies a [`seal`]ed frame and returns the payload slice.
pub fn open(tag: [u8; 4], version: u16, frame: &[u8]) -> Result<&[u8], CodecError> {
    let sealed = split(frame)?;
    if sealed.tag != tag {
        return Err(CodecError::BadMagic { expected: tag, found: sealed.tag });
    }
    if sealed.version != version {
        return Err(CodecError::BadVersion { expected: version, found: sealed.version });
    }
    let computed = fnv1a(sealed.payload);
    if sealed.checksum != computed {
        return Err(CodecError::BadChecksum { expected: sealed.checksum, found: computed });
    }
    Ok(sealed.payload)
}

/// Content digest of a byte string — used to compare checkpoint/state
/// snapshots for the bit-identical-resume invariant.
pub fn digest(bytes: &[u8]) -> u64 {
    fnv1a(bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_roundtrip() {
        let mut w = Writer::new();
        w.u8(7);
        w.bool(true);
        w.u16(65_000);
        w.u32(4_000_000_000);
        w.u64(u64::MAX);
        w.i64(-42);
        w.usize(123);
        w.f64(-0.0);
        w.f64(f64::NAN);
        w.str("héllo");
        w.bytes(&[1, 2, 3]);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 7);
        assert!(r.bool().unwrap());
        assert_eq!(r.u16().unwrap(), 65_000);
        assert_eq!(r.u32().unwrap(), 4_000_000_000);
        assert_eq!(r.u64().unwrap(), u64::MAX);
        assert_eq!(r.i64().unwrap(), -42);
        assert_eq!(r.usize().unwrap(), 123);
        assert_eq!(r.f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert!(r.f64().unwrap().is_nan());
        assert_eq!(r.str().unwrap(), "héllo");
        assert_eq!(r.bytes().unwrap(), vec![1, 2, 3]);
        assert!(r.is_empty());
    }

    #[test]
    fn truncation_is_detected() {
        let mut w = Writer::new();
        w.u64(99);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes[..4]);
        assert!(matches!(r.u64(), Err(CodecError::Truncated { .. })));
    }

    #[test]
    fn sealed_frames_verify() {
        let payload = b"checkpoint payload".to_vec();
        let frame = seal(*b"WSCP", 1, &payload);
        assert_eq!(open(*b"WSCP", 1, &frame).unwrap(), &payload[..]);

        assert!(matches!(
            open(*b"XXXX", 1, &frame),
            Err(CodecError::BadMagic { .. })
        ));
        assert!(matches!(
            open(*b"WSCP", 2, &frame),
            Err(CodecError::BadVersion { .. })
        ));
        let mut corrupted = frame.clone();
        let mid = corrupted.len() / 2;
        corrupted[mid] ^= 0xff;
        assert!(matches!(
            open(*b"WSCP", 1, &corrupted),
            Err(CodecError::BadChecksum { .. })
        ));
        assert!(matches!(
            open(*b"WSCP", 1, &frame[..frame.len() - 2]),
            Err(CodecError::Truncated { .. })
        ));
    }

    #[test]
    fn split_reads_the_length_prefix_not_the_frame_end() {
        let frame = seal(*b"WSCP", 3, b"payload");
        let mut padded = frame.clone();
        padded.extend_from_slice(&[0xAB; 5]);
        let sealed = split(&padded).unwrap();
        assert_eq!(sealed, split(&frame).unwrap());
        assert_eq!((sealed.tag, sealed.version, sealed.payload), (*b"WSCP", 3, &b"payload"[..]));
        assert_eq!(sealed.checksum, digest(b"payload"));
        assert!(split(&frame[..frame.len() - 1]).is_err());
    }

    #[test]
    fn in_place_frames_seal_to_the_same_bytes() {
        let mut inner = Writer::new();
        inner.str("inner payload");
        inner.u64(7);
        let inner_frame = seal(*b"INNR", 3, &inner.into_bytes());
        let mut outer = Writer::new();
        outer.u32(9);
        outer.bytes(&inner_frame);
        outer.u64(digest(split(&inner_frame).unwrap().payload));
        let expected = seal(*b"OUTR", 1, &outer.into_bytes());

        let mut w = Writer::new();
        let (outer_span, (inner_span, slot)) = w.frame(*b"OUTR", 1, |w| {
            w.u32(9);
            let (span, ()) = w.prefixed(|w| {
                w.frame(*b"INNR", 3, |w| {
                    w.str("inner payload");
                    w.u64(7);
                })
            });
            (span, w.u64_slot())
        });
        let mut buf = w.into_bytes();
        let [outer_sum, inner_sum, inner_digest] = hash_lanes(
            &mut buf,
            &[
                vec![outer_span.payload.clone()],
                vec![inner_span.payload.clone()],
                vec![inner_span.payload.clone()],
            ],
            &[
                Patch { slot: outer_span.checksum, lane: 0 },
                Patch { slot: inner_span.checksum, lane: 1 },
                Patch { slot, lane: 2 },
            ],
        );
        assert_eq!(buf, expected);
        assert_eq!(inner_sum, inner_digest);
        assert_eq!(outer_sum, digest(&buf[outer_span.payload]));
        assert!(open(*b"OUTR", 1, &buf).is_ok());
    }

    #[test]
    fn a_lane_over_split_ranges_hashes_their_concatenation() {
        let mut buf: Vec<u8> = (0..=255u8).cycle().take(1_000).collect();
        let joined: Vec<u8> = [&buf[10..300], &buf[300..301], &buf[700..990]].concat();
        let [split, whole] = hash_lanes(
            &mut buf,
            &[vec![10..300, 300..301, 301..301, 700..990], std::iter::once(0..1_000).collect()],
            &[],
        );
        assert_eq!(split, digest(&joined));
        assert_eq!(whole, digest(&buf));
    }

    #[test]
    #[should_panic(expected = "still runs at its patch slot")]
    fn patching_a_lane_before_it_ends_is_a_caller_bug() {
        let mut buf = vec![0u8; 32];
        let lane = std::iter::once(0..20).collect();
        hash_lanes(&mut buf, &[lane], &[Patch { slot: 8, lane: 0 }]);
    }
}
