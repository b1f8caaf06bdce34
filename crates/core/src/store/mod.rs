//! Asynchronous, chunked binary trace storage (paper Appendix A.1).
//!
//! RL-Scope aggregates traces in a native library off the critical path and
//! dumps them once they reach ~20 MB, explicitly avoiding Python-side
//! serialization. This module reproduces that design: a dedicated writer
//! thread receives event batches over a channel, encodes them with a
//! compact binary codec, and rotates chunk files at a size threshold.
//!
//! # Module map
//!
//! One submodule per contract; every public item is re-exported here.
//!
//! | module    | contract |
//! |-----------|----------|
//! | `encode`  | the v3 chunk writer ([`encode_events`], [`encode_declared`]) and the fixed-width record the reorder spill writes |
//! | `decode`  | the one chunk parser ([`decode_columns`]) into [`EventColumns`], chunk footers ([`ChunkFooter`], [`read_chunk_footer`]) and declarations ([`Cut`]) |
//! | `frame`   | length-prefixed wire frames ([`write_frame`], [`read_frame`]) |
//! | `dir`     | chunk directories: [`TraceWriter`], [`list_chunk_files`], crash recovery ([`recover_chunk_prefix`]), the index ([`Manifest`]) and the parallel decode ([`for_each_decoded_chunk_columns`]) |
//! | `reorder` | the start-ordered rewrite ([`reorder_chunk_dir`]) |
//!
//! # Chunk formats
//!
//! Three wire formats are supported. [`encode_events`] writes **v3**;
//! [`decode_events`] dispatches on the 8-byte magic and reads all three,
//! so v1 and v2 chunks on disk remain loadable.
//!
//! **v1** (`RLSCOPE1`): `magic(8) | count:u32` then per event
//! `pid:u32 | tag:u8 | name_len:u16 | name | start:u64 | end:u64`
//! (fixed-width big-endian, name bytes inline per event). The reorder
//! spill writes the same record.
//!
//! **v2** (`RLSCOPE2`): `magic(8) | count:u32`, a per-chunk **string
//! table** `n:u32` then `n × (len:u16 | utf8)` of deduplicated names,
//! then per event
//! `pid:varint | tag:u8 | name_id:varint | start_delta:zigzag-varint |
//! duration:varint`. Event names repeat heavily (operation and category
//! labels), so the table collapses them to one varint id per event; and
//! events are emitted near-chronologically, so the delta from the
//! previous event's start is small and varints stay short. Varints are
//! LEB128. A delta is taken mod 2⁶⁴ and zigzagged as an `i64`, so
//! slightly out-of-order streams still encode compactly and every `u64`
//! start round-trips.
//!
//! **v3** (`RLSCOPE3`): the v2 body byte-for-byte (count, string table,
//! event records), followed by a self-describing **footer** and a fixed
//! trailer locating it:
//!
//! ```text
//! RLSCOPE3 | <v2 body> | footer payload | footer_len:u32 | "RLF3"
//! ```
//!
//! The footer payload is fixed-width big-endian:
//!
//! ```text
//! events:u32
//! min_start:u64 | max_start:u64 | max_end:u64
//! flags:u8                      (bit 0: starts ascending within chunk)
//! pid_count:u32 | pid:u32 …     (ascending)
//! phase_count:u32 | (len:u16 | name | min_start:u64 | max_end:u64
//!                    | pid_count:u32 | pid:u32 …) …
//!                               (name-ascending; span covers that
//!                                phase's events in this chunk; the
//!                                pid set only under flag bit 1)
//! [cut:u64 | frontier:u64 | open_count:u32
//!  | (pid:u32 | tag:u8 | len:u16 | name | start:u64) …]
//!                               (only under flag bit 2: the
//!                                producer's declaration, see below)
//! checksum:u64                  (FNV-1a of the payload bytes above)
//! ```
//!
//! **Declared chunks.** Flag bit 2 (`FOOTER_FLAG_OPEN_SCOPES`) marks a
//! chunk whose producer declared, at the flush that cut it, what was
//! still open ([`Cut`]): the clock at the flush, a frontier no later
//! event of the stream starts before (the close of a declared scope
//! excepted), and the open phase and operation scopes, outermost first
//! (tag 6 operation, 7 phase). A decode validates it (known tags,
//! `frontier <= cut`, every scope start `<= cut`) and hands it on as
//! [`EventColumns::cut`]; nothing else in the chunk changes, and
//! [`encode_events`] never sets the bit — only [`encode_declared`]
//! does, so every undeclared chunk keeps its bytes. A reader older than
//! the bit rejects a declared chunk as [`TraceIoError::Corrupt`]
//! ("unknown flag bits"): a daemon that predates declarations refuses
//! a declaring client's first chunk rather than misread it.
//!
//! The footer is what makes a chunk *skippable*: a reader can bound a
//! chunk's contribution to any time-window, process, or phase query from
//! the footer alone, without decoding a single event record
//! ([`read_chunk_footer`]). A full [`decode_events`] of a v3 chunk
//! additionally cross-checks the footer against the decoded events, so a
//! corrupted footer can never cause a silent wrong skip on data that
//! still decodes.
//!
//! # Compatibility matrix
//!
//! | format | encode | decode | footer |
//! |--------|--------|--------|--------|
//! | v1     | none — read-only (test support writes its bytes from [`EventColumns`]) | yes | none on the wire — [`Manifest::open`] decodes the chunk and computes it |
//! | v2     | none — read-only (test support rebuilds its bytes from v3: magic swapped, trailer cut) | yes | none on the wire — [`Manifest::open`] decodes the chunk and computes it |
//! | v3     | [`encode_events`], every `u64` start | yes | read from the trailer, no event decode |
//!
//! v3 start deltas wrap mod 2⁶⁴. For every start up to `i64::MAX` the
//! bytes are those of the earlier signed-delta encoder, so chunks on
//! disk keep their bytes either way. A reader that predates the wrap
//! rejects a v3 chunk holding a start above `i64::MAX` as
//! [`TraceIoError::Corrupt`] ("negative timestamp"); such chunks used
//! to be written as v1.
//!
//! Every field is validated on decode: unknown magic or event tags,
//! truncation at any offset, bytes after the last record, overlong or
//! overflowing varints, out-of-range string-table ids, checksum
//! mismatches, and footers that contradict their chunk's events all
//! surface as [`TraceIoError::Corrupt`], never a panic (the
//! corruption-fuzz suite in `tests/fuzz_codec.rs` holds this line).
//!
//! # The chunk-directory index
//!
//! The chunks are their own index. [`Manifest::open`] lists a directory
//! and reads each chunk's footer from its tail — the magic, the 8-byte
//! trailer, then only the footer bytes it points at — so opening costs a
//! few small reads per chunk and no event decode; a v1 or v2 chunk,
//! which carries no footer, is decoded once and summarized. Nothing is
//! cached beside the chunks and nothing is written: the index is always
//! the directory's current chunk set, and a reader never writes into a
//! directory it queries.
//!
//! [`Manifest::write`] exports an index as a `MANIFEST` file
//! ([`MANIFEST_FILE`]), a copy of every footer:
//!
//! ```text
//! RLSMANF1 | count:u32
//!          | (name_len:u16 | file name | size:u64
//!             | footer_len:u32 | footer payload) …   (stream order)
//!          | checksum:u64       (FNV-1a of everything after the magic)
//! ```
//!
//! It is an export that nothing in this workspace reads back.
//!
//! [`Manifest::select`] is the predicate-pushdown primitive: given a
//! [`ChunkQuery`] (time window, process id, phase name), it returns
//! exactly the entries of the chunks whose footers admit a contribution
//! to the query, in stream order. [`crate::analysis::Analysis`] pushes
//! its `.time_window` / `.process` / `.phase` filters down through this
//! call, skipping whole chunks before any decode.
//!
//! # Start-ordered rewrite
//!
//! Profiler streams record an event when it **closes**, so raw dumps are
//! end-ordered and their start-time disorder spans the longest open
//! annotation — and a streamed query's sweeps must hold everything back
//! to the start of the oldest annotation not yet written
//! ([`crate::overlap::OverlapSweep::release_to`]).
//! [`reorder_chunk_dir`] rewrites any chunk directory into a
//! start-sorted v3 directory via an external merge (sorted runs spilled
//! as v1 event records, k-way merged record-at-a-time), in bounded
//! memory. The
//! rewrite preserves the event multiset and the relative order of
//! equal-start events, so every analysis over the reordered directory is
//! table-identical to the original — and the release frontier now
//! trails the stream by one chunk (the stream is fully start-sorted,
//! [`Manifest::is_start_sorted`] reports it), so a query holds about one
//! chunk's boundaries however long the directory is.
//!
//! # Streaming reader contract
//!
//! A chunk directory is a set of `chunk_NNNNN.rls` files; stream order
//! is name-length-then-lexicographic (see [`list_chunk_files`]) — the
//! writer's rotation sequence, robust to the sequence number outgrowing
//! its zero padding. Each
//! chunk is self-contained — its string table and timestamp delta chain
//! reset at the chunk header — so chunks decode independently and a
//! reader never needs more than one chunk in memory.
//!
//! [`for_each_decoded_chunk_columns`] is the streaming access path: it
//! decodes a file list in order and hands each chunk's [`EventColumns`]
//! to the caller, to consume and drop. A directory query runs one per
//! contiguous run of chunks, side by side, each into sweeps of its own,
//! and merges them in stream order.
//! Downstream analysis ([`crate::analysis::Analysis::from_chunk_dir`]
//! over [`crate::overlap::OverlapSweep`]) reduces each chunk to compact
//! sweep state immediately, which is what lets
//! whole-experiment chunk directories be analyzed without ever
//! materializing the concatenated event stream. A consumer that needs
//! whole `Event` values (the start-ordered rewrite) bridges each chunk
//! with [`EventColumns::to_events`].
//!
//! # One event representation below the API
//!
//! There is one chunk parser, [`decode_columns`], and it fills an
//! [`EventColumns`] structure of arrays: parallel `pids: Vec<u32>`,
//! `kinds: Vec<u8>` (the wire tags, already validated), `name_ids:
//! Vec<u32>` (indices into the chunk's shared `names` table),
//! `starts: Vec<u64>`, and `ends: Vec<u64>` columns, plus a
//! `start_sorted` hint computed during the decode — five flat primitive
//! columns instead of one ~48-byte struct per event, and no per-event
//! `Arc<str>` clone. Everything byte-sourced consumes the columns
//! directly: the v3 footer cross-check, [`recover_chunk_prefix`],
//! [`Manifest::open`] on legacy chunks, the directory query's runs, and
//! downstream the sweep's one push path,
//! [`crate::overlap::OverlapSweep::push_columns`]
//! ([`crate::overlap::compute_overlap_columns`] is a single call of it;
//! the collector's crash recovery replays through exactly the code its
//! ingest ran).
//!
//! Rows are a bridge over that parser, not a second one:
//! [`decode_events`] is `decode_columns(..)?.to_events()`, and
//! [`EventColumns::to_events`] returns typed errors, never panics, on
//! column sets no decode would produce.
//!
//! In-memory `&[Event]` sources go the other way without a copy: the
//! footer summarizer here and the sweep's push path in
//! [`crate::overlap`] are each one generic body over the crate-private
//! `EventRow` accessor, monomorphized for `&Event` and
//! for a column row. `tests/properties.rs` pins the two instantiations
//! table-identical; `tests/fuzz_codec.rs` pins never-panic on the
//! parser and the bridge.

use crate::intern::FnvHasher;
use std::fmt;
use std::hash::Hasher;
use std::io;

mod decode;
mod dir;
mod encode;
mod frame;
mod reorder;

pub use decode::{
    compute_footer, compute_footer_columns, decode_columns, decode_events, read_chunk_footer,
    ChunkFooter, Cut, EventColumns, OpenScope, PhaseSpan,
};
pub(crate) use decode::{get_varint, EventRow, TAG_OP, TAG_PHASE};
pub(crate) use dir::{decode_workers, in_runs};
pub use dir::{
    for_each_decoded_chunk_columns, list_chunk_files, recover_chunk_prefix, ChunkQuery, Manifest,
    ManifestEntry, RecoveredPrefix, TraceWriter, MANIFEST_FILE,
};
pub(crate) use encode::encode_footer_payload;
pub use encode::{encode_declared, encode_events};
pub use frame::{read_frame, write_frame, write_frame_parts, MAX_FRAME_LEN};
pub use reorder::{reorder_chunk_dir, reorder_chunk_dir_with, ReorderStats};

const MAGIC_V1: &[u8; 8] = b"RLSCOPE1";
const MAGIC_V2: &[u8; 8] = b"RLSCOPE2";
const MAGIC_V3: &[u8; 8] = b"RLSCOPE3";
/// Trailer magic closing a v3 chunk (preceded by the footer length).
const FOOTER_MAGIC: &[u8; 4] = b"RLF3";

/// Footer flag bit: event starts are ascending within the chunk.
const FOOTER_FLAG_START_SORTED: u8 = 1;
/// Footer flag bit: each phase span carries its per-phase pid set.
/// Footers written before this bit existed decode with empty
/// (= unknown) span pid sets, which readers must treat conservatively.
const FOOTER_FLAG_PHASE_PIDS: u8 = 2;
/// Footer flag bit: the footer carries the producer's declaration at
/// the cut ([`ChunkFooter::cut`]); see the module docs on declared
/// chunks.
const FOOTER_FLAG_OPEN_SCOPES: u8 = 4;

/// FNV-1a checksum of `bytes` — the integrity check appended to chunk
/// footers and manifests. Not cryptographic; it exists to turn random
/// corruption into a detected [`TraceIoError::Corrupt`] instead of a
/// silently wrong chunk-skip decision.
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = FnvHasher::default();
    h.write(bytes);
    h.finish()
}

/// Errors from trace encoding, decoding, or I/O.
#[derive(Debug)]
pub enum TraceIoError {
    /// Underlying filesystem error.
    Io(io::Error),
    /// The file is malformed.
    Corrupt(String),
}

impl fmt::Display for TraceIoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceIoError::Io(e) => write!(f, "trace i/o error: {e}"),
            TraceIoError::Corrupt(msg) => write!(f, "corrupt trace: {msg}"),
        }
    }
}

impl std::error::Error for TraceIoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceIoError::Io(e) => Some(e),
            TraceIoError::Corrupt(_) => None,
        }
    }
}

impl From<io::Error> for TraceIoError {
    fn from(e: io::Error) -> Self {
        TraceIoError::Io(e)
    }
}

/// Fixtures the submodules' unit tests share.
#[cfg(test)]
mod testutil {
    use super::encode::{append_record, encode_v2_body};
    use super::{dir, MAGIC_V1, MAGIC_V2};
    use crate::event::{CpuCategory, Event, EventKind, GpuCategory};
    use bytes::{BufMut, Bytes, BytesMut};
    use rlscope_sim::ids::ProcessId;
    use rlscope_sim::time::TimeNs;
    use std::path::Path;

    pub(super) fn sample_events(n: usize) -> Vec<Event> {
        (0..n)
            .map(|i| {
                Event::new(
                    ProcessId((i % 3) as u32),
                    match i % 4 {
                        0 => EventKind::Cpu(CpuCategory::Python),
                        1 => EventKind::Cpu(CpuCategory::CudaApi),
                        2 => EventKind::Gpu(GpuCategory::Kernel),
                        _ => EventKind::Operation,
                    },
                    format!("ev{i}"),
                    TimeNs::from_nanos(i as u64 * 10),
                    TimeNs::from_nanos(i as u64 * 10 + 5),
                )
            })
            .collect()
    }

    /// `sample_events(20)` plus three phase events on pid 7, one of
    /// them out of start order.
    pub(super) fn phased_events() -> Vec<Event> {
        let mut events = sample_events(20);
        let phase = |name, start, end| {
            Event::new(
                ProcessId(7),
                EventKind::Phase,
                name,
                TimeNs::from_nanos(start),
                TimeNs::from_nanos(end),
            )
        };
        events.push(phase("train", 40, 160));
        events.push(phase("train", 10, 30));
        events.push(phase("collect", 0, 9));
        events
    }

    /// The legacy v1 encoding, which only tests still write: its magic,
    /// the count, then the reorder spill's fixed-width record per event.
    pub(super) fn encode_events_v1(events: &[Event]) -> Bytes {
        let mut out = MAGIC_V1.to_vec();
        out.extend_from_slice(&(events.len() as u32).to_be_bytes());
        for e in events {
            append_record(&mut out, e);
        }
        out.into()
    }

    /// The legacy v2 encoding, which only tests still write: its magic
    /// and the v3 body.
    pub(super) fn encode_events_v2(events: &[Event]) -> Bytes {
        let mut buf = BytesMut::new();
        buf.put_slice(MAGIC_V2);
        encode_v2_body(events, &mut buf);
        buf.freeze()
    }

    /// A fresh chunk directory at `dir` holding `events`, written by a
    /// [`super::TraceWriter`] in batches of `per_batch`.
    pub(super) fn write_dir(dir: &Path, events: &[Event], per_batch: usize, chunk_bytes: usize) {
        let _ = std::fs::remove_dir_all(dir);
        let writer = dir::TraceWriter::create(dir, chunk_bytes).unwrap();
        for chunk in events.chunks(per_batch) {
            writer.write(chunk.to_vec());
        }
        writer.finish().unwrap();
    }

    /// Every event of `dir`, concatenated in stream order.
    pub(super) fn read_dir_events(dir: &Path) -> Result<Vec<Event>, super::TraceIoError> {
        let mut events = Vec::new();
        dir::for_each_decoded_chunk_columns(&dir::list_chunk_files(dir)?, |cols| {
            events.extend(cols.to_events()?);
            Ok(())
        })?;
        Ok(events)
    }
}
