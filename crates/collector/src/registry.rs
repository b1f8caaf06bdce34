//! The durable session registry: one small `SESSION` record per session
//! chunk directory, written at every lifecycle transition (create,
//! detach, finish, abort) so a restarted daemon knows what each
//! directory *was* — an in-flight stream to resume, a finished trace to
//! re-serve by name, or an aborted run whose data is still worth
//! querying.
//!
//! The record is deliberately coarse: it carries the session **epoch**
//! (the fencing token for the resume handshake), its **status**, and the
//! acked chunk count at the last transition — never a per-chunk
//! watermark. Chunk-level truth lives in the chunk files themselves:
//! recovery rescans them through the full decode path
//! ([`rlscope_core::store::recover_chunk_prefix`]), so a record that is
//! one transition stale (the daemon was SIGKILLed mid-stream) still
//! recovers exactly the durable prefix. Records are written atomically
//! (temp file + rename) and carry a checksum; an unreadable or torn
//! record demotes the directory to legacy handling rather than failing
//! daemon startup.

use rlscope_core::store::TraceIoError;
use std::fs;
use std::path::Path;

/// File name of the per-session registry record, inside the session's
/// chunk directory (next to its `chunk_NNNNN.rls` files).
pub const SESSION_FILE: &str = "SESSION";

const MAGIC: &[u8; 4] = b"RLSS";
const VERSION: u16 = 2;
/// v1: magic + version + epoch + status + acked_chunks + checksum.
const RECORD_LEN_V1: usize = 4 + 2 + 8 + 1 + 8 + 8;
/// v2 appends the storage-tier byte between `acked_chunks` and the
/// checksum.
const RECORD_LEN: usize = RECORD_LEN_V1 + 1;

/// Which storage tier a session's data currently lives in. Compaction
/// ages finished sessions down the ladder (raw → sorted → rollup →
/// gone); each transition is recorded here **after** the new tier is
/// durably in place and **before** the prior tier is deleted, so the
/// recorded tier always names a directory that exists and is complete.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum StorageTier {
    /// Close-ordered chunks at the session directory's top level, as the
    /// collector wrote them.
    Raw = 0,
    /// Start-sorted codec-v3 chunks under `sorted/` (pushdown-friendly).
    Sorted = 1,
    /// Segment-summary rollups under `rollup/` — coarse queries only.
    Rollup = 2,
}

impl StorageTier {
    fn from_u8(v: u8) -> Option<StorageTier> {
        Some(match v {
            0 => StorageTier::Raw,
            1 => StorageTier::Sorted,
            2 => StorageTier::Rollup,
            _ => return None,
        })
    }

    /// Subdirectory (inside the session directory) holding this tier's
    /// data; `None` for [`StorageTier::Raw`], which lives at the top
    /// level.
    pub fn subdir(self) -> Option<&'static str> {
        match self {
            StorageTier::Raw => None,
            StorageTier::Sorted => Some("sorted"),
            StorageTier::Rollup => Some("rollup"),
        }
    }
}

/// A session's lifecycle status as of the last durable transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum SessionStatus {
    /// The session was mid-stream (or cleanly detached awaiting resume)
    /// when the record was written; recovery truncates any torn tail
    /// chunk and offers the session for resume.
    Active = 1,
    /// `FINISH` committed: every chunk is durable and the directory is
    /// immutable; recovery re-serves it by name, read-only.
    Finished = 2,
    /// The session was aborted with a typed error; the name is reusable
    /// and the data so far stays queryable as a directory target.
    Aborted = 3,
}

impl SessionStatus {
    fn from_u8(v: u8) -> Option<SessionStatus> {
        Some(match v {
            1 => SessionStatus::Active,
            2 => SessionStatus::Finished,
            3 => SessionStatus::Aborted,
            _ => return None,
        })
    }
}

/// The durable per-session state record (see the module docs for what
/// is — deliberately — not in here).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionRecord {
    /// Monotonic incarnation counter for the session *name*: bumped each
    /// time the name is (re)created, echoed by clients in the resume
    /// handshake, and compared by the daemon so a stale client can never
    /// resume into a newer incarnation's stream.
    pub epoch: u64,
    /// Lifecycle status at the last transition.
    pub status: SessionStatus,
    /// Chunks acked (durable) at the last transition — informational;
    /// recovery re-derives the true count by rescanning chunk files.
    pub acked_chunks: u64,
    /// Storage tier the session's data currently lives in (v1 records
    /// decode as [`StorageTier::Raw`] — tiering postdates them).
    pub tier: StorageTier,
}

impl SessionRecord {
    fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(RECORD_LEN);
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&VERSION.to_be_bytes());
        out.extend_from_slice(&self.epoch.to_be_bytes());
        out.push(self.status as u8);
        out.extend_from_slice(&self.acked_chunks.to_be_bytes());
        out.push(self.tier as u8);
        let sum = fnv1a(&out);
        out.extend_from_slice(&sum.to_be_bytes());
        out
    }

    fn decode(data: &[u8]) -> Option<SessionRecord> {
        if data.len() != RECORD_LEN && data.len() != RECORD_LEN_V1 {
            return None;
        }
        let (magic, rest) = data.split_first_chunk::<4>()?;
        if magic != MAGIC {
            return None;
        }
        let (version, rest) = rest.split_first_chunk::<2>()?;
        let version = u16::from_be_bytes(*version);
        let expected_len = match version {
            1 => RECORD_LEN_V1,
            2 => RECORD_LEN,
            _ => return None,
        };
        if data.len() != expected_len {
            return None;
        }
        let (epoch, rest) = rest.split_first_chunk::<8>()?;
        let (&status_byte, rest) = rest.split_first()?;
        let (acked, rest) = rest.split_first_chunk::<8>()?;
        let tier = if version >= 2 {
            let (&tier_byte, _) = rest.split_first()?;
            StorageTier::from_u8(tier_byte)?
        } else {
            StorageTier::Raw
        };
        let (body, sum) = data.split_at_checked(expected_len - 8)?;
        if u64::from_be_bytes(*sum.first_chunk::<8>()?) != fnv1a(body) {
            return None;
        }
        let status = SessionStatus::from_u8(status_byte)?;
        Some(SessionRecord {
            epoch: u64::from_be_bytes(*epoch),
            status,
            acked_chunks: u64::from_be_bytes(*acked),
            tier,
        })
    }

    /// Writes the record atomically (temp file + rename) into `dir`.
    ///
    /// # Errors
    ///
    /// Filesystem errors creating, writing, or renaming the record.
    pub fn write(&self, dir: &Path) -> Result<(), TraceIoError> {
        let tmp = dir.join(format!("{SESSION_FILE}.tmp"));
        fs::write(&tmp, self.encode())?;
        fs::rename(&tmp, dir.join(SESSION_FILE))?;
        Ok(())
    }

    /// Reads the record from `dir`. Returns `Ok(None)` when there is no
    /// record **or** the record is torn/corrupt — an unreadable record
    /// means "treat this directory as legacy data", never "refuse to
    /// start".
    ///
    /// # Errors
    ///
    /// Filesystem errors other than the file being absent.
    pub fn read(dir: &Path) -> Result<Option<SessionRecord>, TraceIoError> {
        match fs::read(dir.join(SESSION_FILE)) {
            Ok(data) => Ok(SessionRecord::decode(&data)),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e.into()),
        }
    }
}

/// FNV-1a over `data` (same construction the chunk footer uses; local
/// copy — the core hash is an implementation detail of the codec).
fn fnv1a(data: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in data {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_round_trips() {
        let dir = std::env::temp_dir().join(format!("rlss-registry-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        for status in [SessionStatus::Active, SessionStatus::Finished, SessionStatus::Aborted] {
            for tier in [StorageTier::Raw, StorageTier::Sorted, StorageTier::Rollup] {
                let record = SessionRecord { epoch: 7, status, acked_chunks: 42, tier };
                record.write(&dir).unwrap();
                assert_eq!(SessionRecord::read(&dir).unwrap(), Some(record));
            }
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn v1_records_decode_as_raw_tier() {
        // Hand-encode a VERSION=1 record (no tier byte) exactly as the
        // previous release wrote it; it must decode as tier Raw.
        let mut v1 = Vec::new();
        v1.extend_from_slice(MAGIC);
        v1.extend_from_slice(&1u16.to_be_bytes());
        v1.extend_from_slice(&9u64.to_be_bytes());
        v1.push(SessionStatus::Finished as u8);
        v1.extend_from_slice(&5u64.to_be_bytes());
        let sum = fnv1a(&v1);
        v1.extend_from_slice(&sum.to_be_bytes());
        assert_eq!(v1.len(), RECORD_LEN_V1);
        assert_eq!(
            SessionRecord::decode(&v1),
            Some(SessionRecord {
                epoch: 9,
                status: SessionStatus::Finished,
                acked_chunks: 5,
                tier: StorageTier::Raw,
            })
        );
    }

    #[test]
    fn missing_and_corrupt_records_read_as_none() {
        let dir = std::env::temp_dir().join(format!("rlss-registry-none-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        assert_eq!(SessionRecord::read(&dir).unwrap(), None);
        let record = SessionRecord {
            epoch: 1,
            status: SessionStatus::Active,
            acked_chunks: 3,
            tier: StorageTier::Sorted,
        };
        let good = record.encode();
        // Truncation at every offset and single-byte corruption both
        // demote to None — never a parse panic, never a partial record.
        for cut in 0..good.len() {
            fs::write(dir.join(SESSION_FILE), &good[..cut]).unwrap();
            assert_eq!(SessionRecord::read(&dir).unwrap(), None, "cut {cut}");
        }
        for flip in 0..good.len() {
            let mut bad = good.clone();
            bad[flip] ^= 0xff;
            fs::write(dir.join(SESSION_FILE), &bad).unwrap();
            assert_eq!(SessionRecord::read(&dir).unwrap(), None, "flip {flip}");
        }
        fs::remove_dir_all(&dir).unwrap();
    }
}
