//! Binary on-disk formats for the sequence-mining workload.
//!
//! Same conventions as [`crate::binfmt`] — little-endian `u32` word
//! streams behind a small magic+version header, snapshots in its
//! checksummed container, byte counts returned for the disk model,
//! bounded decoding — but over plain nested-`Vec` shapes instead of
//! storage types: the sequence crate sits above this one in the
//! dependency graph, so the container speaks `(eid, items)` event lists
//! and `(pattern elements, support)` rows that both sides convert
//! to/from their own types.

use crate::binfmt::{
    expect_header, header, read_container_header, read_container_payload, write_container,
    write_records, RecordReader, CONTAINER_HEADER_BYTES,
};
use std::io::{self, Read, Write};
use wire::{put_u32, put_u32_vec, put_u64, Cursor};

/// Magic for sequence-database files ("ECLS").
pub const MAGIC_SEQ: u32 = 0x4543_4C53;
/// Magic for mined-sequence snapshot files ("ECLQ").
pub const MAGIC_SEQ_RESULTS: u32 = 0x4543_4C51;
/// Format version for both containers.
pub const SEQ_VERSION: u32 = 1;

/// One sequence: its time-ordered `(eid, items)` events.
pub type RawSequence = Vec<(u32, Vec<u32>)>;
/// One mined pattern: its itemset elements plus the support count.
pub type RawSeqPattern = (Vec<Vec<u32>>, u32);

/// Serialize a sequence database. Returns bytes written.
///
/// Layout: `magic, version, num_items, num_sequences:u64`, then per
/// sequence `num_events:u32` and per event `eid:u32, len:u32,
/// items:u32×len` in sid order.
pub fn write_seq_db<W: Write>(
    sequences: &[RawSequence],
    num_items: u32,
    w: &mut W,
) -> io::Result<u64> {
    let mut buf = header(MAGIC_SEQ, SEQ_VERSION);
    put_u32(&mut buf, num_items);
    put_u64(&mut buf, sequences.len() as u64);
    write_records(w, buf, sequences, |buf, seq| {
        put_u32(buf, seq.len() as u32);
        for (eid, items) in seq {
            put_u32(buf, *eid);
            put_u32_vec(buf, items);
        }
    })
}

/// Deserialize a sequence database. Returns
/// `((sequences, num_items), bytes read)`.
///
/// # Errors
/// `InvalidData` on a malformed file; plain I/O errors pass through.
pub fn read_seq_db<R: Read>(r: &mut R) -> io::Result<((Vec<RawSequence>, u32), u64)> {
    let mut rr = RecordReader::new(r);
    let mut c = rr.next(20)?;
    expect_header(&mut c, MAGIC_SEQ, SEQ_VERSION, "sequence database")?;
    let num_items = c.u32()?;
    let n = c.u64()?;
    let mut sequences = Vec::new();
    for _ in 0..n {
        let mut seq: RawSequence = Vec::new();
        for _ in 0..rr.next(4)?.u32()? {
            seq.push((rr.next(4)?.u32()?, rr.u32_vec()?));
        }
        sequences.push(seq);
    }
    Ok(((sequences, num_items), rr.finish()?))
}

/// Serialize a mined-sequence snapshot. Returns bytes written.
///
/// Layout: the [`crate::binfmt`] checksummed container (`magic,
/// version, checksum:u64, payload_len:u64`, no extension), whose payload
/// is `num_sequences:u32, num_patterns:u32`, per pattern
/// `num_elems:u32`, per element `len:u32, items:u32×len`, then
/// `support:u32`. Callers pass patterns in canonical order so files are
/// deterministic.
pub fn write_seq_results<W: Write>(
    num_sequences: u32,
    patterns: &[RawSeqPattern],
    w: &mut W,
) -> io::Result<u64> {
    let mut payload = Vec::with_capacity(4096);
    put_u32(&mut payload, num_sequences);
    put_u32(&mut payload, patterns.len() as u32);
    for (elems, support) in patterns {
        put_u32(&mut payload, elems.len() as u32);
        for elem in elems {
            put_u32_vec(&mut payload, elem);
        }
        put_u32(&mut payload, *support);
    }
    write_container(w, MAGIC_SEQ_RESULTS, SEQ_VERSION, &[], &payload)
}

/// Deserialize a mined-sequence snapshot, verifying the checksum.
/// Returns `((num_sequences, patterns), bytes read)`.
///
/// # Errors
/// `InvalidData` on wrong magic/version, a checksum mismatch, or a
/// malformed payload; plain I/O errors pass through.
pub fn read_seq_results<R: Read>(r: &mut R) -> io::Result<((u32, Vec<RawSeqPattern>), u64)> {
    const WHAT: &str = "sequence snapshot";
    let (_, checksum, len) = read_container_header(r, MAGIC_SEQ_RESULTS, SEQ_VERSION, WHAT)?;
    let payload = read_container_payload(r, checksum, len, WHAT)?;
    let mut c = Cursor::new(&payload);
    let num_sequences = c.u32()?;
    let mut patterns = Vec::new();
    for _ in 0..c.u32()? {
        let mut elems = Vec::new();
        for _ in 0..c.u32()? {
            elems.push(c.u32_vec()?);
        }
        patterns.push((elems, c.u32()?));
    }
    c.finish()?;
    Ok(((num_sequences, patterns), CONTAINER_HEADER_BYTES + len))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_db() -> Vec<RawSequence> {
        vec![
            vec![(1, vec![1, 2]), (3, vec![3]), (9, vec![1])],
            vec![(2, vec![2])],
            vec![],
        ]
    }

    fn sample_patterns() -> Vec<RawSeqPattern> {
        vec![
            (vec![vec![2]], 3),
            (vec![vec![1, 2], vec![3]], 2),
            (vec![vec![2], vec![3], vec![1]], 1),
        ]
    }

    #[test]
    fn seq_db_round_trip() {
        let db = sample_db();
        let mut buf = Vec::new();
        let written = write_seq_db(&db, 4, &mut buf).unwrap();
        assert_eq!(written, buf.len() as u64);
        let ((back, num_items), read) = read_seq_db(&mut buf.as_slice()).unwrap();
        assert_eq!(read, written);
        assert_eq!(back, db);
        assert_eq!(num_items, 4);
    }

    #[test]
    fn empty_seq_db_round_trips() {
        let mut buf = Vec::new();
        write_seq_db(&[], 0, &mut buf).unwrap();
        let ((back, num_items), _) = read_seq_db(&mut buf.as_slice()).unwrap();
        assert!(back.is_empty());
        assert_eq!(num_items, 0);
    }

    #[test]
    fn seq_results_round_trip() {
        let patterns = sample_patterns();
        let mut buf = Vec::new();
        let written = write_seq_results(3, &patterns, &mut buf).unwrap();
        assert_eq!(written, buf.len() as u64);
        let ((n, back), read) = read_seq_results(&mut buf.as_slice()).unwrap();
        assert_eq!(read, written);
        assert_eq!(n, 3);
        assert_eq!(back, patterns);
    }

    #[test]
    fn empty_seq_results_round_trip() {
        let mut buf = Vec::new();
        write_seq_results(0, &[], &mut buf).unwrap();
        let ((n, back), _) = read_seq_results(&mut buf.as_slice()).unwrap();
        assert_eq!(n, 0);
        assert!(back.is_empty());
    }

    #[test]
    fn magics_do_not_cross() {
        let mut db = Vec::new();
        write_seq_db(&sample_db(), 4, &mut db).unwrap();
        assert!(read_seq_results(&mut db.as_slice()).is_err());
        let mut snap = Vec::new();
        write_seq_results(3, &sample_patterns(), &mut snap).unwrap();
        assert!(read_seq_db(&mut snap.as_slice()).is_err());
        // Nor with the itemset containers.
        assert!(crate::binfmt::read_horizontal(&mut db.as_slice()).is_err());
        assert!(crate::binfmt::read_results(&mut snap.as_slice()).is_err());
    }

    #[test]
    fn seq_results_corruption_caught_by_checksum() {
        let mut buf = Vec::new();
        write_seq_results(3, &sample_patterns(), &mut buf).unwrap();
        let last = buf.len() - 1;
        buf[last] ^= 0x01;
        let err = read_seq_results(&mut buf.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("checksum"));
    }

    #[test]
    fn truncation_rejected() {
        let mut db = Vec::new();
        write_seq_db(&sample_db(), 4, &mut db).unwrap();
        for len in 0..db.len() {
            assert!(read_seq_db(&mut &db[..len]).is_err(), "prefix {len}");
        }
        let mut snap = Vec::new();
        write_seq_results(3, &sample_patterns(), &mut snap).unwrap();
        for len in 0..snap.len() {
            assert!(read_seq_results(&mut &snap[..len]).is_err(), "prefix {len}");
        }

        // Headers announcing 2^44 sequences and a 2^45-byte payload.
        let mut huge_db = header(MAGIC_SEQ, SEQ_VERSION);
        put_u32(&mut huge_db, 4);
        put_u64(&mut huge_db, 1 << 44);
        let err = read_seq_db(&mut huge_db.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        let mut huge_snap = header(MAGIC_SEQ_RESULTS, SEQ_VERSION);
        put_u64(&mut huge_snap, 0);
        put_u64(&mut huge_snap, 1 << 45);
        let err = read_seq_results(&mut huge_snap.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
    }

    #[test]
    fn unknown_version_rejected() {
        let mut buf = Vec::new();
        write_seq_db(&sample_db(), 4, &mut buf).unwrap();
        buf[4] = 9;
        assert!(read_seq_db(&mut buf.as_slice()).is_err());
    }
}
