//! The append-only write-ahead log.
//!
//! Each record is framed as
//!
//! ```text
//! len      u32   (payload length)
//! seq      u64   (monotonic sequence number)
//! checksum u64   (FNV-1a over seq bytes + payload)
//! payload  bytes
//! ```
//!
//! Replay walks records front to back and stops at the first frame that is
//! incomplete or fails its checksum — the **torn tail** an interrupted
//! append leaves behind. Everything before the tear is intact by
//! construction (appends are sequential), so recovery keeps the longest
//! valid prefix and discards the rest; [`scan`] reports the byte offset of
//! the tear so the opener can truncate the file before appending again.

use crate::error::Result;
use crate::io::{checksum, checksum_from, Wire};

/// Frame header size: len (4) + seq (8) + checksum (8).
pub const RECORD_HEADER: usize = 20;

/// One decoded WAL record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    /// Monotonic sequence number assigned at append time.
    pub seq: u64,
    /// The client payload.
    pub payload: Vec<u8>,
}

/// The checksum a frame carries: FNV-1a over its seq's bytes, then its
/// payload.
fn frame_sum(seq: u64, payload: &[u8]) -> u64 {
    checksum_from(checksum(&seq.to_le_bytes()), payload)
}

/// Encodes one record frame.
pub fn encode_record(seq: u64, payload: &[u8]) -> Vec<u8> {
    let mut frame = Vec::with_capacity(RECORD_HEADER + payload.len());
    let header = |frame: &mut Vec<u8>| -> Result<()> {
        (payload.len() as u32).put(frame)?;
        seq.put(frame)?;
        frame_sum(seq, payload).put(frame)
    };
    header(&mut frame).expect("a Vec takes every byte");
    frame.extend_from_slice(payload);
    frame
}

/// The result of scanning a WAL byte stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Scan {
    /// Every record of the longest valid prefix, in append order.
    pub records: Vec<Record>,
    /// Byte length of that prefix (truncate the file here to repair).
    pub valid_len: usize,
    /// True when trailing bytes after the valid prefix were discarded.
    pub torn: bool,
}

/// Scans `bytes`, tolerating a torn tail: decoding stops at the first
/// incomplete or checksum-failing frame and reports what survived.
pub fn scan(bytes: &[u8]) -> Result<Scan> {
    let mut records = Vec::new();
    let mut pos = 0usize;
    loop {
        let remaining = bytes.len() - pos;
        if remaining == 0 {
            return Ok(Scan {
                records,
                valid_len: pos,
                torn: false,
            });
        }
        if remaining < RECORD_HEADER {
            break; // torn mid-header
        }
        let mut head = &bytes[pos..pos + RECORD_HEADER];
        let (len, seq, stored) = (
            u32::get(&mut head)? as usize,
            u64::get(&mut head)?,
            u64::get(&mut head)?,
        );
        if remaining - RECORD_HEADER < len {
            break; // torn mid-payload
        }
        let payload = &bytes[pos + RECORD_HEADER..pos + RECORD_HEADER + len];
        if frame_sum(seq, payload) != stored {
            break; // torn or corrupted frame
        }
        records.push(Record {
            seq,
            payload: payload.to_vec(),
        });
        pos += RECORD_HEADER + len;
    }
    Ok(Scan {
        records,
        valid_len: pos,
        torn: true,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wal_of(payloads: &[&[u8]]) -> Vec<u8> {
        let mut out = Vec::new();
        for (i, p) in payloads.iter().enumerate() {
            out.extend_from_slice(&encode_record(i as u64 + 1, p));
        }
        out
    }

    #[test]
    fn clean_log_scans_fully() {
        let bytes = wal_of(&[b"alpha", b"beta", b""]);
        let s = scan(&bytes).unwrap();
        assert_eq!(s.records.len(), 3);
        assert_eq!(s.records[0].payload, b"alpha");
        assert_eq!(s.records[2].seq, 3);
        assert_eq!(s.valid_len, bytes.len());
        assert!(!s.torn);
    }

    #[test]
    fn truncation_at_every_byte_keeps_a_valid_prefix() {
        let payloads: Vec<Vec<u8>> = (0..6).map(|i| vec![i as u8; i * 3]).collect();
        let refs: Vec<&[u8]> = payloads.iter().map(|p| p.as_slice()).collect();
        let bytes = wal_of(&refs);
        // Frame boundaries for computing the expected surviving prefix.
        let mut boundaries = vec![0usize];
        for p in &payloads {
            boundaries.push(boundaries.last().unwrap() + RECORD_HEADER + p.len());
        }
        for cut in 0..=bytes.len() {
            let s = scan(&bytes[..cut]).unwrap();
            let expect = boundaries.iter().filter(|&&b| b > 0 && b <= cut).count();
            assert_eq!(s.records.len(), expect, "cut at {cut}");
            assert_eq!(s.valid_len, boundaries[expect], "cut at {cut}");
            assert_eq!(s.torn, cut != boundaries[expect], "cut at {cut}");
        }
    }

    #[test]
    fn corrupt_byte_stops_replay_at_the_tear() {
        let bytes = wal_of(&[b"first", b"second", b"third"]);
        let mut corrupt = bytes.clone();
        // Flip a byte inside the second record's payload.
        let off = RECORD_HEADER + 5 + RECORD_HEADER + 2;
        corrupt[off] ^= 0x40;
        let s = scan(&corrupt).unwrap();
        assert_eq!(s.records.len(), 1, "only the first record survives");
        assert!(s.torn);
        assert_eq!(s.valid_len, RECORD_HEADER + 5);
    }
}
