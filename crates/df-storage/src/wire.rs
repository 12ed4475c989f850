//! Block frames over a byte stream.
//!
//! The process-parallel executor backend ships dataframe bands between the driver
//! and its worker processes over pipes. The wire payload **is** the block frame the
//! spill store writes to disk ([`spill::encode_part`] / [`spill::decode_part`]; the
//! layout table is in the [`spill`] module docs), so band exchange inherits the spill
//! format's length and checksum verification verbatim (the paper's §3.3 decoupling of
//! plan from placement).
//!
//! A frame is self-delimiting — its fixed 24-byte header carries the payload length —
//! so frames simply follow one another on the stream. The reader never scans content
//! for delimiters and never blocks past the bytes the peer actually promised.
//!
//! Failure model: a clean end-of-stream *at a frame boundary* is `Ok(None)` (the
//! peer closed its end deliberately); truncation mid-frame, a bad magic, a lying
//! length or a checksum mismatch are all typed [`DfError::SpillCorruption`] — never a
//! panic, and never an unbounded read or allocation (a huge claimed length reads only
//! what the stream actually delivers).

use df_types::{DfError, DfResult};
use std::io::{Read, Write};

use crate::spill::{self, StoredPart, FRAME_HEADER_LEN};

/// Write one stored part to `w` as a block frame. I/O errors (e.g. a broken pipe
/// when the peer died) surface as [`DfError::SpillIo`] tagged with `site`; the
/// process backend folds those into its worker-lost handling.
pub fn write_framed_part<W: Write>(w: &mut W, part: &StoredPart, site: &str) -> DfResult<()> {
    w.write_all(&spill::encode_part(part))
        .map_err(|err| DfError::spill_io(site, format!("write framed part: {err}"), false))
}

/// Read one block frame from `r` and decode it.
///
/// Returns `Ok(None)` on a clean end-of-stream at a frame boundary (the peer
/// closed the pipe between parts). Any malformed frame — a short or foreign header,
/// a length the stream cannot honour, a payload that fails its checksum or does not
/// decode — is [`DfError::SpillCorruption`] tagged with `site`.
pub fn read_framed_part<R: Read>(r: &mut R, site: &str) -> DfResult<Option<StoredPart>> {
    match read_frame_bytes(r, site)? {
        Some(frame) => spill::decode_part(&frame, site).map(Some),
        None => Ok(None),
    }
}

/// The framing half of [`read_framed_part`]: read one complete frame (header and
/// payload) and return its raw bytes without verifying or decoding the payload. The
/// process backend uses this seam to apply its `corrupt` failpoint to the exact
/// bytes received before handing them to [`spill::decode_part`], exercising the real
/// checksum path. Both reads are bounded by `take`, and the buffer grows only as
/// bytes arrive, so a header that lies about its length cannot make the reader
/// allocate for — or wait past EOF for — bytes that never come.
pub fn read_frame_bytes<R: Read>(r: &mut R, site: &str) -> DfResult<Option<Vec<u8>>> {
    let io_err =
        |err: std::io::Error| DfError::spill_io(site, format!("read framed part: {err}"), false);
    let mut frame = Vec::new();
    r.by_ref()
        .take(FRAME_HEADER_LEN as u64)
        .read_to_end(&mut frame)
        .map_err(io_err)?;
    if frame.is_empty() {
        return Ok(None);
    }
    let (payload_len, _) = spill::parse_frame_header(&frame, site)?;
    r.take(payload_len)
        .read_to_end(&mut frame)
        .map_err(io_err)?;
    let delivered = (frame.len() - FRAME_HEADER_LEN) as u64;
    if delivered < payload_len {
        return Err(DfError::spill_corruption(
            site,
            format!(
                "framed part truncated: header promised {payload_len} bytes, stream ended after {delivered}"
            ),
        ));
    }
    Ok(Some(frame))
}

#[cfg(test)]
mod tests {
    use super::*;
    use df_core::dataframe::DataFrame;
    use df_types::{cell, Cell};
    use std::io::Cursor;

    fn sample_frame() -> DataFrame {
        DataFrame::from_rows(
            vec![cell("city"), cell("count"), cell("score")],
            vec![
                vec![cell("oslo"), cell(3i64), cell(1.5f64)],
                vec![Cell::Null, cell(-7i64), Cell::Null],
                vec![cell("lima\nwith\u{1f}escapes"), cell(0i64), cell(2.25f64)],
            ],
        )
        .unwrap()
        .with_row_labels(vec!["r0", "r1", "r2"])
        .unwrap()
    }

    fn framed(part: &StoredPart) -> Vec<u8> {
        let mut pipe = Vec::new();
        write_framed_part(&mut pipe, part, "test.wire").unwrap();
        pipe
    }

    #[test]
    fn the_wire_bytes_are_the_spill_frame() {
        let part = StoredPart::Frame(sample_frame());
        assert_eq!(framed(&part), spill::encode_part(&part));
    }

    #[test]
    fn truncated_frame_is_corruption_not_a_hang() {
        let mut pipe = framed(&StoredPart::Frame(sample_frame()));
        // Drop the tail: the header promises more bytes than arrive.
        pipe.truncate(pipe.len() - 10);
        let err = read_framed_part(&mut Cursor::new(pipe), "test.wire").unwrap_err();
        match err {
            DfError::SpillCorruption { site, detail } => {
                assert_eq!(site, "test.wire");
                assert!(detail.contains("truncated"), "detail: {detail}");
            }
            other => panic!("expected SpillCorruption, got {other:?}"),
        }
    }

    #[test]
    fn garbled_payload_fails_the_checksum() {
        let mut pipe = framed(&StoredPart::Frame(sample_frame()));
        spill::mangle_payload(&mut pipe);
        let err = read_framed_part(&mut Cursor::new(pipe), "test.wire").unwrap_err();
        assert!(
            matches!(&err, DfError::SpillCorruption { site, detail }
                if site == "test.wire" && detail.contains("checksum")),
            "expected a checksum SpillCorruption, got {err:?}"
        );
    }

    #[test]
    fn eof_inside_the_header_is_corruption() {
        let pipe = framed(&StoredPart::Frame(sample_frame()));
        for cut in [1, 8, FRAME_HEADER_LEN - 1] {
            let err =
                read_framed_part(&mut Cursor::new(pipe[..cut].to_vec()), "test.wire").unwrap_err();
            assert!(
                matches!(err, DfError::SpillCorruption { .. }),
                "cut at {cut}: got {err:?}"
            );
        }
    }
}
