//! Length-prefixed wire frames: the transport framing of the live
//! collector protocol (`rlscope-collector`).

use super::TraceIoError;
use std::io::{self, Read, Write};

/// Largest payload a length-prefixed wire frame may declare
/// ([`read_frame`] rejects bigger length fields before allocating, so a
/// corrupted or hostile length prefix cannot force an OOM).
pub const MAX_FRAME_LEN: usize = 64 << 20;

/// Writes one length-prefixed wire frame: `len:u32 BE | kind:u8 |
/// payload`. This is the transport framing of the live collector
/// protocol (`rlscope-collector`); payloads are opaque here — chunk
/// bodies, handshakes, query specs.
///
/// # Errors
///
/// [`TraceIoError::Corrupt`] if the payload exceeds [`MAX_FRAME_LEN`];
/// I/O errors from the writer.
pub fn write_frame(w: &mut impl Write, kind: u8, payload: &[u8]) -> Result<(), TraceIoError> {
    write_frame_parts(w, kind, payload, &[])
}

/// [`write_frame`] with the payload supplied in two parts (`head` then
/// `tail`), so callers prefixing a small header onto an already-encoded
/// body — the collector's sequence-numbered chunk frames — avoid
/// concatenating into a temporary buffer.
///
/// # Errors
///
/// Same as [`write_frame`]: a combined payload beyond [`MAX_FRAME_LEN`],
/// or I/O errors from the writer.
pub fn write_frame_parts(
    w: &mut impl Write,
    kind: u8,
    head: &[u8],
    tail: &[u8],
) -> Result<(), TraceIoError> {
    let len = head.len() + tail.len();
    if len > MAX_FRAME_LEN {
        return Err(TraceIoError::Corrupt(format!(
            "frame payload of {len} bytes exceeds the {MAX_FRAME_LEN}-byte frame limit"
        )));
    }
    let [l0, l1, l2, l3] = (len as u32).to_be_bytes();
    w.write_all(&[l0, l1, l2, l3, kind])?;
    w.write_all(head)?;
    w.write_all(tail)?;
    Ok(())
}

/// Fills `buf` from `r`, discriminating the two EOF cases every
/// length-delimited reader here needs: `Ok(false)` for a clean EOF
/// before the first byte (the stream ended at a record boundary),
/// [`TraceIoError::Corrupt`] (naming `what`) for an EOF mid-record, and
/// retrying on [`io::ErrorKind::Interrupted`].
pub(super) fn read_full(
    r: &mut impl Read,
    buf: &mut [u8],
    what: &str,
) -> Result<bool, TraceIoError> {
    let mut at = 0;
    while at < buf.len() {
        let (_, rest) = buf.split_at_mut(at);
        match r.read(rest) {
            Ok(0) if at == 0 => return Ok(false),
            Ok(0) => return Err(TraceIoError::Corrupt(format!("truncated {what}"))),
            Ok(n) => at += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e.into()),
        }
    }
    Ok(true)
}

/// Reads one [`write_frame`] frame, returning `Ok(None)` on a clean EOF
/// **at a frame boundary** (the peer closed between frames). EOF inside
/// a frame — header or payload — is [`TraceIoError::Corrupt`], never a
/// short read: a truncated stream must be distinguishable from a
/// complete one, so a consumer can refuse to treat it as finished.
///
/// # Errors
///
/// Truncation inside a frame, a length field beyond [`MAX_FRAME_LEN`],
/// or I/O errors from the reader.
pub fn read_frame(r: &mut impl Read) -> Result<Option<(u8, Vec<u8>)>, TraceIoError> {
    let mut header = [0u8; 5];
    if !read_full(r, &mut header, "frame header")? {
        return Ok(None);
    }
    let [l0, l1, l2, l3, kind] = header;
    let len = u32::from_be_bytes([l0, l1, l2, l3]) as usize;
    if len > MAX_FRAME_LEN {
        return Err(TraceIoError::Corrupt(format!(
            "frame length {len} exceeds the {MAX_FRAME_LEN}-byte frame limit"
        )));
    }
    let mut payload = vec![0u8; len];
    if len > 0 && !read_full(r, &mut payload, "frame payload")? {
        return Err(TraceIoError::Corrupt(format!("truncated frame payload (0 of {len} bytes)")));
    }
    Ok(Some((kind, payload)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip_and_eof_is_clean_only_at_boundaries() {
        let mut buf = Vec::new();
        write_frame(&mut buf, 7, b"payload").unwrap();
        write_frame(&mut buf, 9, b"").unwrap();
        let mut r = io::Cursor::new(buf.clone());
        assert_eq!(read_frame(&mut r).unwrap(), Some((7, b"payload".to_vec())));
        assert_eq!(read_frame(&mut r).unwrap(), Some((9, Vec::new())));
        assert_eq!(read_frame(&mut r).unwrap(), None);
        // Every cut inside a frame is corruption; cuts at the boundary
        // between frames yield the complete prefix then a clean EOF.
        let boundary = 5 + 7;
        for cut in 0..buf.len() {
            let mut r = io::Cursor::new(&buf[..cut]);
            match cut {
                0 => assert_eq!(read_frame(&mut r).unwrap(), None),
                c if c == boundary => {
                    assert!(read_frame(&mut r).unwrap().is_some());
                    assert_eq!(read_frame(&mut r).unwrap(), None);
                }
                c if c < boundary => {
                    assert!(matches!(read_frame(&mut r), Err(TraceIoError::Corrupt(_))), "cut {c}");
                }
                c => {
                    assert!(read_frame(&mut r).unwrap().is_some());
                    assert!(matches!(read_frame(&mut r), Err(TraceIoError::Corrupt(_))), "cut {c}");
                }
            }
        }
    }

    #[test]
    fn frame_length_limit_enforced_both_ways() {
        let mut header = ((MAX_FRAME_LEN + 1) as u32).to_be_bytes().to_vec();
        header.push(1);
        let err = read_frame(&mut io::Cursor::new(header)).unwrap_err();
        assert!(err.to_string().contains("frame length"), "{err}");
        // The writer refuses to emit an unreadable frame. (Allocating a
        // >64 MB payload just to refuse it is fine in a test.)
        let big = vec![0u8; MAX_FRAME_LEN + 1];
        assert!(matches!(write_frame(&mut Vec::new(), 0, &big), Err(TraceIoError::Corrupt(_))));
    }
}
