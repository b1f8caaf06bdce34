//! The chunk writer: v3 chunks ([`encode_events`], [`encode_declared`])
//! and the fixed-width event record the reorder spill writes.

#![expect(
    clippy::indexing_slicing,
    reason = "encoders index only buffers they sized: a record's 48-byte stack buffer, and payload bytes appended from a recorded length"
)]

use super::decode::{compute_footer, kind_tag, truncate_name, ChunkFooter, Cut, TAG_OP, TAG_PHASE};
use super::{fnv1a, FOOTER_FLAG_OPEN_SCOPES, FOOTER_FLAG_PHASE_PIDS, FOOTER_MAGIC, MAGIC_V3};
use crate::event::Event;
use crate::intern::Interner;
use bytes::{BufMut, Bytes, BytesMut};

/// Writes an LEB128 varint into `out` at `at`, returning the new offset.
fn write_varint(out: &mut [u8], mut at: usize, mut v: u64) -> usize {
    while v >= 0x80 {
        out[at] = (v as u8 & 0x7f) | 0x80;
        v >>= 7;
        at += 1;
    }
    out[at] = v as u8;
    at + 1
}

/// Maps a signed value onto an unsigned varint-friendly code.
fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Appends the footer payload (including its trailing checksum) to `out`.
pub(crate) fn encode_footer_payload(f: &ChunkFooter, out: &mut BytesMut) {
    let at = out.len();
    out.put_u32(f.events);
    out.put_u64(f.min_start);
    out.put_u64(f.max_start);
    out.put_u64(f.max_end);
    let declared = if f.cut.is_some() { FOOTER_FLAG_OPEN_SCOPES } else { 0 };
    out.put_u8(u8::from(f.start_sorted) | FOOTER_FLAG_PHASE_PIDS | declared);
    out.put_u32(f.pids.len() as u32);
    for &pid in &f.pids {
        out.put_u32(pid);
    }
    out.put_u32(f.phases.len() as u32);
    for p in &f.phases {
        out.put_u16(p.name.len() as u16);
        out.put_slice(p.name.as_bytes());
        out.put_u64(p.min_start);
        out.put_u64(p.max_end);
        out.put_u32(p.pids.len() as u32);
        for &pid in &p.pids {
            out.put_u32(pid);
        }
    }
    if let Some(cut) = &f.cut {
        out.put_u64(cut.at);
        out.put_u64(cut.frontier);
        out.put_u32(cut.open.len() as u32);
        for scope in &cut.open {
            let name = truncate_name(&scope.name);
            out.put_u32(scope.pid);
            out.put_u8(if scope.phase { TAG_PHASE } else { TAG_OP });
            out.put_u16(name.len() as u16);
            out.put_slice(name.as_bytes());
            out.put_u64(scope.start);
        }
    }
    let sum = fnv1a(&out[at..]);
    out.put_u64(sum);
}

/// Encodes a batch of events into the current (v3) chunk wire format:
/// the v2 body (string table plus varint delta-encoded timestamps)
/// followed by the self-describing footer. Every `u64` start
/// round-trips. See the module docs for the byte layout.
pub fn encode_events(events: &[Event]) -> Bytes {
    encode_v3(events, None)
}

/// [`encode_events`] plus the producer's declaration at the cut, in the
/// footer under flag bit 2 (see the module docs on declared chunks).
/// The body is the one [`encode_events`] writes; only the footer grows.
pub fn encode_declared(events: &[Event], cut: &Cut) -> Bytes {
    encode_v3(events, Some(cut))
}

fn encode_v3(events: &[Event], cut: Option<&Cut>) -> Bytes {
    let mut buf = BytesMut::with_capacity(events.len() * 12 + 128);
    buf.put_slice(MAGIC_V3);
    encode_v2_body(events, &mut buf);
    let at = buf.len();
    let footer = ChunkFooter { cut: cut.cloned(), ..compute_footer(events) };
    encode_footer_payload(&footer, &mut buf);
    let footer_len = (buf.len() - at) as u32;
    buf.put_u32(footer_len);
    buf.put_slice(FOOTER_MAGIC);
    buf.freeze()
}

/// Appends the v3 body (the whole of a legacy v2 chunk after its magic)
/// — `count`, string table, event records — to `buf`. Each start is
/// the zigzagged delta from the previous one, taken mod 2⁶⁴, so the
/// decoder's wrapping add restores any `u64`.
pub(super) fn encode_v2_body(events: &[Event], buf: &mut BytesMut) {
    let mut interner = Interner::with_capacity(64);
    let mut name_ids = Vec::with_capacity(events.len());
    for e in events {
        if e.name.len() <= u16::MAX as usize {
            name_ids.push(interner.intern(&e.name));
        } else {
            name_ids.push(interner.intern_str(truncate_name(&e.name)));
        }
    }

    buf.put_u32(events.len() as u32);
    buf.put_u32(interner.len() as u32);
    for name in interner.names() {
        buf.put_u16(name.len() as u16);
        buf.put_slice(name.as_bytes());
    }
    // Each event record is staged in a stack buffer and appended with a
    // single slice copy (4 varints ≤ 40 bytes + pid/tag bytes).
    let mut record = [0u8; 48];
    let mut prev_start = 0u64;
    for (e, &name_id) in events.iter().zip(&name_ids) {
        let start = e.start.as_nanos();
        let mut n = write_varint(&mut record, 0, u64::from(e.pid.as_u32()));
        record[n] = kind_tag(&e.kind);
        n += 1;
        n = write_varint(&mut record, n, u64::from(name_id));
        n = write_varint(&mut record, n, zigzag(start.wrapping_sub(prev_start) as i64));
        n = write_varint(&mut record, n, e.end.as_nanos() - start);
        buf.put_slice(&record[..n]);
        prev_start = start;
    }
}

/// Appends one fixed-width event record — the v1 chunk record, which
/// the reorder spill writes and `RecordReader` reads:
/// `pid:u32 | tag:u8 | name_len:u16 | name | start:u64 | end:u64`
/// (big-endian, name bytes inline).
pub(super) fn append_record(out: &mut Vec<u8>, e: &Event) {
    let name = truncate_name(&e.name);
    out.extend_from_slice(&e.pid.as_u32().to_be_bytes());
    out.push(kind_tag(&e.kind));
    out.extend_from_slice(&(name.len() as u16).to_be_bytes());
    out.extend_from_slice(name.as_bytes());
    out.extend_from_slice(&e.start.as_nanos().to_be_bytes());
    out.extend_from_slice(&e.end.as_nanos().to_be_bytes());
}
