//! Byte-deterministic store snapshots, in the sealed-frame style of the
//! flow checkpoints (`WSFK`) and crawl frontier checkpoints.
//!
//! The payload encodes the store's *logical* content — posting lists in
//! global key order — plus its configuration (name, shard count, round,
//! ingest counters). Two stores with equal content and configuration
//! snapshot to identical bytes regardless of ingest interleaving, and a
//! store restored from a snapshot continues ingesting exactly where the
//! original would have: kill-and-resume mid-ingest is byte-identical to
//! an uninterrupted run.

use std::ops::Range;

use websift_resilience::codec::{self, FrameSpan, Patch};
use websift_resilience::{CodecError, Reader, Snapshot, Writer};

use crate::store::{ExtractionStore, Method, Posting, PostingKey};

/// Frame tag for store snapshots.
pub const STORE_SNAPSHOT_TAG: [u8; 4] = *b"WSST";
/// Current frame version.
pub const STORE_SNAPSHOT_VERSION: u16 = 1;

/// Largest shard count a snapshot may declare. Restoring allocates every
/// shard up front, so a corrupted count must fail as a codec error, not
/// as an allocation of billions of empty shards.
const MAX_SHARDS: usize = 1 << 16;

impl Snapshot for Method {
    fn encode(&self, w: &mut Writer) {
        w.u8(match self {
            Method::Dict => 0,
            Method::Ml => 1,
            Method::Unknown => 2,
        });
    }

    fn decode(r: &mut Reader<'_>) -> Result<Method, CodecError> {
        match r.u8()? {
            0 => Ok(Method::Dict),
            1 => Ok(Method::Ml),
            2 => Ok(Method::Unknown),
            tag => Err(CodecError::BadTag { what: "Method", tag }),
        }
    }
}

impl Snapshot for PostingKey {
    fn encode(&self, w: &mut Writer) {
        w.str(&self.entity);
        w.str(&self.etype);
        w.str(&self.corpus);
        w.u32(self.round);
    }

    fn decode(r: &mut Reader<'_>) -> Result<PostingKey, CodecError> {
        Ok(PostingKey {
            entity: r.str()?,
            etype: r.str()?,
            corpus: r.str()?,
            round: r.u32()?,
        })
    }
}

impl Snapshot for Posting {
    fn encode(&self, w: &mut Writer) {
        w.u64(self.page);
        w.u64(self.start);
        w.u64(self.end);
        self.method.encode(w);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Posting, CodecError> {
        Ok(Posting {
            page: r.u64()?,
            start: r.u64()?,
            end: r.u64()?,
            method: Snapshot::decode(r)?,
        })
    }
}

/// Encodes the store's configuration and logical content, returning
/// where the content went. Posting lists go out in global key order
/// ([`ExtractionStore::iter`]), so the bytes are independent of ingest
/// interleaving across shards.
fn encode_store(store: &ExtractionStore, w: &mut Writer) -> Range<usize> {
    w.str(store.name());
    w.usize(store.shard_count());
    w.u32(store.round());
    w.u64(store.ingested_records());
    w.u64(store.ignored_records());
    let start = w.len();
    encode_content(store, w);
    start..w.len()
}

/// The key count and every posting list: the suffix of a snapshot
/// payload that [`ExtractionStore::content_digest`] covers.
fn encode_content(store: &ExtractionStore, w: &mut Writer) {
    w.usize(store.key_count());
    for (key, postings) in store.iter() {
        key.encode(w);
        postings.encode(w);
    }
}

fn decode_store(r: &mut Reader<'_>) -> Result<ExtractionStore, CodecError> {
    let name = r.str()?;
    let shards = r.usize()?;
    if shards == 0 {
        return Err(CodecError::BadTag { what: "shard count", tag: 0 });
    }
    if shards > MAX_SHARDS {
        return Err(CodecError::Oversize { what: "shard count", value: shards as u64 });
    }
    let round = r.u32()?;
    let ingested = r.u64()?;
    let ignored = r.u64()?;
    let keys = r.usize()?;
    let mut store = ExtractionStore::new(&name, shards);
    for _ in 0..keys {
        let key = PostingKey::decode(r)?;
        let postings = Vec::<Posting>::decode(r)?;
        for posting in postings {
            store.insert(key.clone(), posting);
        }
    }
    store.restore_counters(round, ingested, ignored);
    Ok(store)
}

/// Digest of the store's logical content — what
/// [`ExtractionStore::content_digest`] returns. Deliberately excludes
/// configuration (name, shard count, counters): two stores holding the
/// same posting lists digest equally even when sharded differently,
/// which is the invariant that lets the bench compare shard counts.
pub(crate) fn content_digest(store: &ExtractionStore) -> u64 {
    let mut w = Writer::new();
    encode_content(store, &mut w);
    codec::digest(&w.into_bytes())
}

/// A `WSST` frame written in place by [`write_snapshot_frame`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotFrame {
    /// The frame's payload and (unfilled) checksum slot.
    pub span: FrameSpan,
    /// The payload suffix whose digest is
    /// [`ExtractionStore::content_digest`].
    pub content: Range<usize>,
}

/// Encodes `store` once, as a sealed-format `WSST` frame straight into
/// `w`, checksum slot unfilled. One [`codec::hash_lanes`] pass over the
/// returned ranges yields both the frame checksum and the content
/// digest — what the live watermark seal does instead of a separate
/// [`StoreSnapshot::capture`] and [`ExtractionStore::content_digest`].
pub fn write_snapshot_frame(store: &ExtractionStore, w: &mut Writer) -> SnapshotFrame {
    let (span, content) =
        w.frame(STORE_SNAPSHOT_TAG, STORE_SNAPSHOT_VERSION, |w| encode_store(store, w));
    SnapshotFrame { span, content }
}

/// A verified, sealed store snapshot frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreSnapshot {
    frame: Vec<u8>,
}

impl StoreSnapshot {
    /// Captures `store` into a sealed frame.
    pub fn capture(store: &ExtractionStore) -> StoreSnapshot {
        let mut w = Writer::new();
        let written = write_snapshot_frame(store, &mut w);
        let mut frame = w.into_bytes();
        codec::hash_lanes(
            &mut frame,
            &[vec![written.span.payload]],
            &[Patch { slot: written.span.checksum, lane: 0 }],
        );
        StoreSnapshot { frame }
    }

    /// Wraps bytes read back from storage, verifying tag, version, and
    /// checksum before accepting them.
    pub fn from_bytes(bytes: &[u8]) -> Result<StoreSnapshot, CodecError> {
        codec::open(STORE_SNAPSHOT_TAG, STORE_SNAPSHOT_VERSION, bytes)?;
        Ok(StoreSnapshot { frame: bytes.to_vec() })
    }

    /// The sealed frame bytes (what gets persisted).
    pub fn as_bytes(&self) -> &[u8] {
        &self.frame
    }

    /// Rebuilds the store. The payload was verified on construction, so
    /// failures here mean a logical decode error, not corruption.
    pub fn restore(&self) -> Result<ExtractionStore, CodecError> {
        let payload = codec::open(STORE_SNAPSHOT_TAG, STORE_SNAPSHOT_VERSION, &self.frame)?;
        let mut r = Reader::new(payload);
        let store = decode_store(&mut r)?;
        if !r.is_empty() {
            return Err(CodecError::Truncated { what: "trailing bytes after store" });
        }
        Ok(store)
    }

    /// Digest of the full frame; equal digests mean byte-equal
    /// snapshots.
    pub fn digest(&self) -> u64 {
        codec::digest(&self.frame)
    }

    pub fn size_bytes(&self) -> usize {
        self.frame.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_store(shards: usize) -> ExtractionStore {
        let mut store = ExtractionStore::new("serve", shards);
        for i in 0..50u64 {
            let key = PostingKey {
                entity: format!("entity{}", i % 7),
                etype: "drug".into(),
                corpus: if i % 2 == 0 { "pubmed" } else { "web" }.into(),
                round: (i % 3) as u32,
            };
            let posting = Posting {
                page: i,
                start: i * 10,
                end: i * 10 + 5,
                method: if i % 2 == 0 { Method::Dict } else { Method::Ml },
            };
            store.insert(key, posting);
        }
        store
    }

    #[test]
    fn snapshot_roundtrips_bit_exactly() {
        let store = sample_store(4);
        let snap = StoreSnapshot::capture(&store);
        let restored = snap.restore().unwrap();
        assert_eq!(restored, store);
        // and the restored store re-snapshots to the same bytes
        assert_eq!(StoreSnapshot::capture(&restored), snap);
    }

    #[test]
    fn frame_verifies_on_the_way_in() {
        let snap = StoreSnapshot::capture(&sample_store(2));
        let bytes = snap.as_bytes().to_vec();
        assert_eq!(StoreSnapshot::from_bytes(&bytes).unwrap(), snap);

        let mut corrupted = bytes.clone();
        let mid = corrupted.len() / 2;
        corrupted[mid] ^= 0x40;
        assert!(matches!(
            StoreSnapshot::from_bytes(&corrupted),
            Err(CodecError::BadChecksum { .. })
        ));
        assert!(matches!(
            StoreSnapshot::from_bytes(&bytes[..10]),
            Err(CodecError::Truncated { .. })
        ));
    }

    #[test]
    fn content_digest_ignores_shard_count() {
        assert_eq!(sample_store(1).content_digest(), sample_store(16).content_digest());
        // but the full snapshot records the configured shard count
        assert_ne!(
            StoreSnapshot::capture(&sample_store(1)),
            StoreSnapshot::capture(&sample_store(16))
        );
    }

    #[test]
    fn one_pass_over_the_written_frame_gives_capture_and_content_digest() {
        let store = sample_store(4);
        let mut w = Writer::new();
        w.u8(0xAA); // the frame need not start the buffer
        let written = write_snapshot_frame(&store, &mut w);
        let mut bytes = w.into_bytes();
        let [checksum, content] = codec::hash_lanes(
            &mut bytes,
            &[vec![written.span.payload.clone()], vec![written.content.clone()]],
            &[Patch { slot: written.span.checksum, lane: 0 }],
        );
        assert_eq!(&bytes[1..], StoreSnapshot::capture(&store).as_bytes());
        assert_eq!(content, store.content_digest());
        assert_eq!(checksum, codec::digest(&bytes[written.span.payload]));
    }

    #[test]
    fn a_huge_shard_count_is_a_codec_error_not_an_allocation() {
        let mut w = Writer::new();
        w.str("serve");
        w.u64(0x0d68_0000_0000_0000);
        w.u32(0);
        w.u64(0);
        w.u64(0);
        w.usize(0);
        let frame = codec::seal(STORE_SNAPSHOT_TAG, STORE_SNAPSHOT_VERSION, &w.into_bytes());
        let snapshot = StoreSnapshot::from_bytes(&frame).unwrap();
        assert!(matches!(
            snapshot.restore(),
            Err(CodecError::Oversize { what: "shard count", .. })
        ));
    }
}
