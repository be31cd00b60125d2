//! Binary on-disk formats for both layouts.
//!
//! Little-endian `u32` word streams with a small header, written with
//! [`wire`]'s `put_*` helpers and decoded with its bounded [`Cursor`].
//! All readers and writers work over any `io::Read`/`io::Write` and
//! report the exact byte counts, which the simulated-cluster disk model
//! prices. A reader buffers only bytes that have arrived — record by
//! record, or a checksummed payload in bounded steps — so no declared
//! count can make it allocate more than it has read; malformed input is
//! `InvalidData`, never a panic.

use crate::horizontal::HorizontalDb;
use crate::vertical::VerticalDb;
use mining_types::item::{items_as_u32, tids_as_u32};
use mining_types::{FrequentSet, ItemId, Itemset, Rule, Tid};
use std::io::{self, Read, Write};
use tidlist::TidList;
use wire::{put_u32, put_u32_vec, put_u64, Cursor, DecodeError};

/// Magic for horizontal files ("ECLH").
pub const MAGIC_HORIZONTAL: u32 = 0x4543_4C48;
/// Magic for vertical files ("ECLV").
pub const MAGIC_VERTICAL: u32 = 0x4543_4C56;
/// Magic for mined-result snapshot files ("ECLR").
pub const MAGIC_RESULTS: u32 = 0x4543_4C52;
/// Format version.
pub const VERSION: u32 = 1;
/// Current results-snapshot version. v2 extends the v1 header with a
/// generation counter and a feature bitmask; [`read_results`] still
/// accepts v1 files (generation 0, no features).
pub const RESULTS_VERSION: u32 = 2;
/// Feature bits written into v2 snapshot headers. None are defined yet;
/// readers reject snapshots carrying unknown bits instead of
/// misdecoding them.
pub const RESULTS_FEATURES: u32 = 0;

/// Readers grow their buffer at most this far ahead of the input.
const READ_STEP: u64 = 64 * 1024;

/// `magic, version`: the start of every header.
pub(crate) fn header(magic: u32, version: u32) -> Vec<u8> {
    let mut buf = Vec::new();
    put_u32(&mut buf, magic);
    put_u32(&mut buf, version);
    buf
}

/// Check the `magic, version` a [`header`] wrote.
pub(crate) fn expect_header(
    c: &mut Cursor<'_>,
    magic: u32,
    version: u32,
    what: &str,
) -> io::Result<()> {
    if c.u32()? != magic || c.u32()? != version {
        return Err(bad_format(&format!("not a {what} file")));
    }
    Ok(())
}

/// Reads an encoding straight from its reader: each read fills a reused
/// buffer that grows at most [`READ_STEP`] ahead of the bytes that
/// arrived, and a [`Cursor`] decodes it. Counts the bytes consumed.
pub(crate) struct RecordReader<'r, R> {
    r: &'r mut R,
    buf: Vec<u8>,
    read: u64,
}

impl<'r, R: Read> RecordReader<'r, R> {
    pub(crate) fn new(r: &'r mut R) -> Self {
        RecordReader {
            r,
            buf: Vec::new(),
            read: 0,
        }
    }

    /// Append exactly `n` more input bytes to the buffer.
    ///
    /// # Errors
    /// `InvalidData` if the input ends first.
    fn append(&mut self, n: u64) -> io::Result<()> {
        let mut left = n;
        while left > 0 {
            let at = self.buf.len();
            let step = left.min(READ_STEP);
            self.buf.resize(at + step as usize, 0);
            self.r.read_exact(&mut self.buf[at..]).map_err(|e| {
                if e.kind() == io::ErrorKind::UnexpectedEof {
                    DecodeError::Truncated.into()
                } else {
                    e
                }
            })?;
            left -= step;
        }
        self.read += n;
        Ok(())
    }

    /// A cursor over exactly the next `n` input bytes.
    pub(crate) fn next(&mut self, n: u64) -> io::Result<Cursor<'_>> {
        self.buf.clear();
        self.append(n)?;
        Ok(Cursor::new(&self.buf))
    }

    /// The next `len:u32, u32×len` record.
    pub(crate) fn u32_vec(&mut self) -> io::Result<Vec<u32>> {
        let n = self.next(4)?.u32()?;
        self.append(u64::from(n) * 4)?;
        Ok(Cursor::new(&self.buf).u32_vec()?)
    }

    /// Bytes consumed, once the input is known to end here.
    ///
    /// # Errors
    /// `InvalidData` if bytes follow the encoding.
    pub(crate) fn finish(self) -> io::Result<u64> {
        if self.r.take(1).read_to_end(&mut Vec::new())? > 0 {
            return Err(bad_format("trailing bytes after the encoding"));
        }
        Ok(self.read)
    }
}

/// Write `head` and then every record, each encoded into one reused
/// buffer and handed to `w` on its own. Returns bytes written.
pub(crate) fn write_records<W: Write, T>(
    w: &mut W,
    head: Vec<u8>,
    records: impl IntoIterator<Item = T>,
    mut put: impl FnMut(&mut Vec<u8>, T),
) -> io::Result<u64> {
    w.write_all(&head)?;
    let mut written = head.len() as u64;
    let mut buf = head;
    for record in records {
        buf.clear();
        put(&mut buf, record);
        w.write_all(&buf)?;
        written += buf.len() as u64;
    }
    Ok(written)
}

/// Serialize a horizontal database. Returns bytes written.
///
/// Layout: `magic, version, num_items, num_transactions:u64`, then per
/// transaction `len:u32, items:u32×len` in tid order.
pub fn write_horizontal<W: Write>(db: &HorizontalDb, w: &mut W) -> io::Result<u64> {
    let mut buf = header(MAGIC_HORIZONTAL, VERSION);
    put_u32(&mut buf, db.num_items());
    put_u64(&mut buf, db.num_transactions() as u64);
    write_records(w, buf, db.iter(), |buf, (_, items)| {
        put_u32_vec(buf, items_as_u32(items))
    })
}

/// Deserialize a horizontal database. Returns `(db, bytes read)`.
///
/// # Errors
/// `InvalidData` on a malformed encoding, including items out of order
/// or at or above the header's `num_items`.
pub fn read_horizontal<R: Read>(r: &mut R) -> io::Result<(HorizontalDb, u64)> {
    let mut rr = RecordReader::new(r);
    let mut c = rr.next(20)?;
    expect_header(&mut c, MAGIC_HORIZONTAL, VERSION, "horizontal database")?;
    let num_items = c.u32()?;
    let n = c.u64()?;
    let mut txns = Vec::new();
    for tid in 0..n {
        let items: Vec<ItemId> = rr.u32_vec()?.into_iter().map(ItemId).collect();
        if !items.windows(2).all(|w| w[0] < w[1])
            || items.last().is_some_and(|it| it.0 >= num_items)
        {
            return Err(bad_format(&format!(
                "transaction {tid} is not strictly ascending below num_items {num_items}"
            )));
        }
        txns.push(items);
    }
    // The database outlives the read: drop the slack its growth left.
    txns.shrink_to_fit();
    let read = rr.finish()?;
    Ok((
        HorizontalDb::from_transactions(txns).with_num_items(num_items),
        read,
    ))
}

/// Serialize a vertical database. Returns bytes written.
///
/// Layout: `magic, version, num_items`, then per item
/// `len:u32, tids:u32×len` in item order (empty lists included, so the
/// reader needs no item index).
pub fn write_vertical<W: Write>(db: &VerticalDb, w: &mut W) -> io::Result<u64> {
    let mut buf = header(MAGIC_VERTICAL, VERSION);
    put_u32(&mut buf, db.num_items());
    let lists = (0..db.num_items()).map(|i| db.tidlist(ItemId(i)));
    write_records(w, buf, lists, |buf, list| {
        put_u32_vec(buf, tids_as_u32(list.tids()))
    })
}

/// Deserialize a vertical database. Returns `(db, bytes read)`.
///
/// # Errors
/// `InvalidData` on a malformed file, including a tid-list that is not
/// strictly ascending.
pub fn read_vertical<R: Read>(r: &mut R) -> io::Result<(VerticalDb, u64)> {
    let mut rr = RecordReader::new(r);
    let mut c = rr.next(12)?;
    expect_header(&mut c, MAGIC_VERTICAL, VERSION, "vertical database")?;
    let num_items = c.u32()?;
    let mut lists = Vec::new();
    for item in 0..num_items {
        let tids = rr.u32_vec()?.into_iter().map(Tid).collect();
        lists.push(TidList::try_from_sorted(tids).ok_or_else(|| {
            bad_format(&format!(
                "tid-list of item {item} is not strictly ascending"
            ))
        })?);
    }
    let read = rr.finish()?;
    Ok((VerticalDb::from_lists(lists), read))
}

/// A persisted mining result: everything a query server needs to boot
/// without re-mining.
#[derive(Clone, Debug, PartialEq)]
pub struct ResultsSnapshot {
    /// Transactions in the mined database (denominator for supports).
    pub num_transactions: u32,
    /// The mined frequent itemsets.
    pub frequent: FrequentSet,
    /// The generated rules.
    pub rules: Vec<Rule>,
    /// Producer generation counter (v2 header field). A streaming miner
    /// bumps this every batch so a serving process can skip re-loading a
    /// snapshot it has already seen; v1 files read back as 0.
    pub generation: u64,
}

/// FNV-1a 64 over a container payload — its header checksum. Cheap,
/// dependency-free, and plenty to catch truncation and bit rot.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Bytes of a container header before its version's extension.
pub(crate) const CONTAINER_HEADER_BYTES: u64 = 24;

/// Write a checksummed container — the layout of result (`ECLR`) and
/// sequence (`ECLQ`) snapshots: `magic, version, checksum:u64,
/// payload_len:u64`, the `ext` header bytes the version defines, then
/// the payload. The checksum is FNV-1a 64 over the payload. Returns
/// bytes written.
pub(crate) fn write_container<W: Write>(
    w: &mut W,
    magic: u32,
    version: u32,
    ext: &[u8],
    payload: &[u8],
) -> io::Result<u64> {
    let mut head = header(magic, version);
    put_u64(&mut head, fnv1a64(payload));
    put_u64(&mut head, payload.len() as u64);
    head.extend_from_slice(ext);
    w.write_all(&head)?;
    w.write_all(payload)?;
    Ok((head.len() + payload.len()) as u64)
}

/// Read the fixed part of a container header: `(version, checksum,
/// payload_len)`. Accepts versions `1..=latest`; the caller reads the
/// extension its version defines.
///
/// # Errors
/// `InvalidData` on wrong magic or an unknown version; plain I/O errors
/// (including `UnexpectedEof` on a torn header) pass through.
pub(crate) fn read_container_header<R: Read>(
    r: &mut R,
    magic: u32,
    latest: u32,
    what: &str,
) -> io::Result<(u32, u64, u64)> {
    let mut fixed = [0u8; CONTAINER_HEADER_BYTES as usize];
    r.read_exact(&mut fixed)?;
    let mut c = Cursor::new(&fixed);
    if c.u32()? != magic {
        return Err(bad_format(&format!("not a {what} file")));
    }
    let version = c.u32()?;
    if !(1..=latest).contains(&version) {
        return Err(bad_format(&format!("unsupported {what} version")));
    }
    Ok((version, c.u64()?, c.u64()?))
}

/// Read a container's `len`-byte payload through a [`RecordReader`] and
/// verify its `checksum`.
///
/// # Errors
/// `InvalidData` if the payload is shorter than announced or fails the
/// checksum.
pub(crate) fn read_container_payload<R: Read>(
    r: &mut R,
    checksum: u64,
    len: u64,
    what: &str,
) -> io::Result<Vec<u8>> {
    let mut rr = RecordReader::new(r);
    rr.append(len)?;
    if fnv1a64(&rr.buf) != checksum {
        return Err(bad_format(&format!("{what} checksum mismatch")));
    }
    Ok(rr.buf)
}

fn put_itemset(buf: &mut Vec<u8>, is: &Itemset) {
    put_u32_vec(buf, items_as_u32(is.items()));
}

/// Decode one itemset of a results payload: a frequent itemset or one
/// side of a rule, none of which may be empty.
fn get_itemset(c: &mut Cursor<'_>) -> io::Result<Itemset> {
    let items: Vec<ItemId> = c.u32_vec()?.into_iter().map(ItemId).collect();
    if items.is_empty() {
        return Err(bad_format("itemset is empty"));
    }
    Itemset::try_from_sorted(items).ok_or_else(|| bad_format("itemset is not strictly ascending"))
}

fn results_payload(snap: &ResultsSnapshot) -> Vec<u8> {
    let mut payload = Vec::with_capacity(4096);
    put_u32(&mut payload, snap.num_transactions);
    let sorted = snap.frequent.sorted();
    put_u32(&mut payload, sorted.len() as u32);
    for counted in &sorted {
        put_itemset(&mut payload, &counted.itemset);
        put_u32(&mut payload, counted.support);
    }
    put_u32(&mut payload, snap.rules.len() as u32);
    for rule in &snap.rules {
        put_itemset(&mut payload, &rule.antecedent);
        put_itemset(&mut payload, &rule.consequent);
        put_u32(&mut payload, rule.support);
        put_u32(&mut payload, rule.antecedent_support);
        put_u32(&mut payload, rule.consequent_support);
    }
    payload
}

/// Read a results header: `(version, generation, checksum,
/// payload_len)`. v2 extends the container header by `generation:u64,
/// features:u32`; v1 reports generation 0.
///
/// # Errors
/// As [`read_container_header`], plus `InvalidData` on unknown feature
/// bits.
fn read_results_header<R: Read>(r: &mut R) -> io::Result<(u32, u64, u64, u64)> {
    let (version, checksum, len) =
        read_container_header(r, MAGIC_RESULTS, RESULTS_VERSION, "results snapshot")?;
    let mut generation = 0;
    if version == RESULTS_VERSION {
        let mut ext = [0u8; 12];
        r.read_exact(&mut ext)?;
        let mut c = Cursor::new(&ext);
        generation = c.u64()?;
        if c.u32()? != RESULTS_FEATURES {
            return Err(bad_format("results snapshot has unknown feature bits"));
        }
    }
    Ok((version, generation, checksum, len))
}

/// Serialize a mined-result snapshot (current v2 layout). Returns bytes
/// written.
///
/// Layout: a checksummed container (`magic, version=2, checksum:u64,
/// payload_len:u64`, extended by `generation:u64, features:u32`), whose
/// payload is `num_transactions, num_itemsets`, per itemset `len:u32,
/// items:u32×len, support:u32` (in [`FrequentSet::sorted`] order, so
/// files are deterministic), then `num_rules` and per rule the two
/// itemsets and three support counts. [`read_results`] verifies the
/// checksum before decoding.
pub fn write_results<W: Write>(snap: &ResultsSnapshot, w: &mut W) -> io::Result<u64> {
    let mut ext = Vec::with_capacity(12);
    put_u64(&mut ext, snap.generation);
    put_u32(&mut ext, RESULTS_FEATURES);
    write_container(
        w,
        MAGIC_RESULTS,
        RESULTS_VERSION,
        &ext,
        &results_payload(snap),
    )
}

/// Read just enough of a results snapshot to learn `(version,
/// generation, payload checksum)` — the cheap poll a hot-reloading
/// server runs before deciding whether to decode the whole file. The
/// checksum distinguishes rewrites that reuse a generation number; v1
/// headers report generation 0.
///
/// # Errors
/// `InvalidData` on wrong magic, an unknown version, or unknown feature
/// bits; plain I/O errors (including `UnexpectedEof` on a torn write)
/// pass through.
pub fn peek_results_header<R: Read>(r: &mut R) -> io::Result<(u32, u64, u64)> {
    let (version, generation, checksum, _) = read_results_header(r)?;
    Ok((version, generation, checksum))
}

/// Deserialize a mined-result snapshot, verifying the checksum. Accepts
/// both the current v2 layout and legacy v1 files (which decode with
/// `generation: 0`).
///
/// # Errors
/// `InvalidData` on wrong magic/version, unknown feature bits, a
/// checksum mismatch (file corrupted or truncated), or malformed
/// payload structure (including unsorted, empty or repeated itemsets).
pub fn read_results<R: Read>(r: &mut R) -> io::Result<(ResultsSnapshot, u64)> {
    let (version, generation, checksum, len) = read_results_header(r)?;
    let payload = read_container_payload(r, checksum, len, "results snapshot")?;
    let mut c = Cursor::new(&payload);
    let num_transactions = c.u32()?;
    let mut frequent = FrequentSet::new();
    for _ in 0..c.u32()? {
        let itemset = get_itemset(&mut c)?;
        if frequent.contains(&itemset) {
            return Err(bad_format(&format!("itemset {itemset} listed twice")));
        }
        frequent.insert(itemset, c.u32()?);
    }
    let mut rules = Vec::new();
    for _ in 0..c.u32()? {
        rules.push(Rule {
            antecedent: get_itemset(&mut c)?,
            consequent: get_itemset(&mut c)?,
            support: c.u32()?,
            antecedent_support: c.u32()?,
            consequent_support: c.u32()?,
        });
    }
    c.finish()?;
    let ext = if version == RESULTS_VERSION { 12 } else { 0 };
    Ok((
        ResultsSnapshot {
            num_transactions,
            frequent,
            rules,
            generation,
        },
        CONTAINER_HEADER_BYTES + ext + len,
    ))
}

pub(crate) fn bad_format(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> HorizontalDb {
        HorizontalDb::of(&[&[1, 3], &[0, 1, 2], &[], &[3]])
    }

    fn assert_invalid<T: std::fmt::Debug>(result: io::Result<T>, case: &str) {
        let err = result.expect_err(case);
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{case}: {err}");
    }

    /// Serialize a snapshot in the legacy v1 layout (24-byte header, no
    /// generation/features), so the v1 read path stays covered.
    fn write_results_v1(snap: &ResultsSnapshot, w: &mut Vec<u8>) -> io::Result<u64> {
        write_container(w, MAGIC_RESULTS, VERSION, &[], &results_payload(snap))
    }

    #[test]
    fn horizontal_round_trip() {
        let db = sample();
        let mut buf = Vec::new();
        let written = write_horizontal(&db, &mut buf).unwrap();
        assert_eq!(written, buf.len() as u64);
        let (back, read) = read_horizontal(&mut buf.as_slice()).unwrap();
        assert_eq!(read, written);
        assert_eq!(back, db);
    }

    #[test]
    fn horizontal_byte_size_matches_model() {
        // The model in HorizontalDb::byte_size excludes the 20-byte header
        // (it prices the *data* scan); the file adds exactly the header.
        let db = sample();
        let mut buf = Vec::new();
        let written = write_horizontal(&db, &mut buf).unwrap();
        assert_eq!(written, db.byte_size() + 20);
    }

    #[test]
    fn vertical_round_trip() {
        let v = VerticalDb::from_horizontal(&sample());
        let mut buf = Vec::new();
        let written = write_vertical(&v, &mut buf).unwrap();
        let (back, read) = read_vertical(&mut buf.as_slice()).unwrap();
        assert_eq!(read, written);
        assert_eq!(back, v);
    }

    #[test]
    fn vertical_byte_size_matches_model() {
        let v = VerticalDb::from_horizontal(&sample());
        let mut buf = Vec::new();
        let written = write_vertical(&v, &mut buf).unwrap();
        assert_eq!(written, v.byte_size() + 12);
    }

    #[test]
    fn wrong_magic_rejected() {
        let v = VerticalDb::from_horizontal(&sample());
        let mut buf = Vec::new();
        write_vertical(&v, &mut buf).unwrap();
        let err = read_horizontal(&mut buf.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn truncated_file_rejected() {
        let db = sample();
        let mut buf = Vec::new();
        write_horizontal(&db, &mut buf).unwrap();
        let mut vbuf = Vec::new();
        write_vertical(&VerticalDb::from_horizontal(&db), &mut vbuf).unwrap();
        for len in 0..buf.len() {
            assert!(read_horizontal(&mut &buf[..len]).is_err(), "prefix {len}");
        }
        for len in 0..vbuf.len() {
            assert!(read_vertical(&mut &vbuf[..len]).is_err(), "prefix {len}");
        }

        // A bare header announcing 2^44 transactions reserves nothing.
        let mut huge = header(MAGIC_HORIZONTAL, VERSION);
        put_u32(&mut huge, 4);
        put_u64(&mut huge, 1 << 44);
        assert_eq!(huge.len(), 20);
        assert_invalid(read_horizontal(&mut huge.as_slice()), "2^44 transactions");

        // num_items below the largest item (3) in the file.
        let mut small_universe = buf.clone();
        small_universe[8..12].copy_from_slice(&3u32.to_le_bytes());
        let err = read_horizontal(&mut small_universe.as_slice()).unwrap_err();
        assert!(err.to_string().contains("num_items 3"), "{err}");

        let mut unsorted = header(MAGIC_HORIZONTAL, VERSION);
        put_u32(&mut unsorted, 4);
        put_u64(&mut unsorted, 1);
        put_u32_vec(&mut unsorted, &[3, 1]);
        assert_invalid(read_horizontal(&mut unsorted.as_slice()), "unsorted items");

        // A spilled tid-list that descends.
        let mut descending = header(MAGIC_VERTICAL, VERSION);
        put_u32(&mut descending, 1);
        put_u32_vec(&mut descending, &[5, 2]);
        assert_invalid(read_vertical(&mut descending.as_slice()), "descending tids");
    }

    #[test]
    fn empty_database_round_trips() {
        let db = HorizontalDb::of(&[]);
        let mut buf = Vec::new();
        write_horizontal(&db, &mut buf).unwrap();
        let (back, _) = read_horizontal(&mut buf.as_slice()).unwrap();
        assert_eq!(back, db);
    }

    fn sample_snapshot() -> ResultsSnapshot {
        let mut frequent = FrequentSet::new();
        frequent.insert(Itemset::single(ItemId(0)), 4);
        frequent.insert(Itemset::single(ItemId(2)), 3);
        frequent.insert(Itemset::pair(ItemId(0), ItemId(2)), 3);
        frequent.insert(Itemset::of(&[0, 1, 2]), 2);
        ResultsSnapshot {
            num_transactions: 5,
            frequent,
            rules: vec![Rule {
                antecedent: Itemset::single(ItemId(0)),
                consequent: Itemset::single(ItemId(2)),
                support: 3,
                antecedent_support: 4,
                consequent_support: 3,
            }],
            generation: 7,
        }
    }

    #[test]
    fn results_round_trip() {
        let snap = sample_snapshot();
        let mut buf = Vec::new();
        let written = write_results(&snap, &mut buf).unwrap();
        assert_eq!(written, buf.len() as u64);
        let (back, read) = read_results(&mut buf.as_slice()).unwrap();
        assert_eq!(read, written);
        assert_eq!(back, snap);
    }

    #[test]
    fn empty_results_round_trip() {
        let snap = ResultsSnapshot {
            num_transactions: 0,
            frequent: FrequentSet::new(),
            rules: Vec::new(),
            generation: 0,
        };
        let mut buf = Vec::new();
        write_results(&snap, &mut buf).unwrap();
        let (back, _) = read_results(&mut buf.as_slice()).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn v1_snapshot_still_reads_with_generation_zero() {
        let snap = sample_snapshot();
        let mut buf = Vec::new();
        let written = write_results_v1(&snap, &mut buf).unwrap();
        // v1 headers are 12 bytes shorter than v2.
        let mut v2 = Vec::new();
        assert_eq!(write_results(&snap, &mut v2).unwrap(), written + 12);
        let (back, read) = read_results(&mut buf.as_slice()).unwrap();
        assert_eq!(read, written);
        assert_eq!(back.generation, 0, "v1 files carry no generation");
        assert_eq!(back.frequent, snap.frequent);
        assert_eq!(back.rules, snap.rules);
        assert_eq!(back.num_transactions, snap.num_transactions);
    }

    /// Bit-exact v1 fixture: an empty snapshot serialized by the v1
    /// writer at the time the format was frozen. Guards the read path
    /// against accidental header/layout drift.
    #[test]
    fn v1_fixture_bytes_decode() {
        let fixture: &[u8] = &[
            0x52, 0x4C, 0x43, 0x45, // magic "ECLR" (LE)
            0x01, 0x00, 0x00, 0x00, // version 1
            0xF7, 0xD5, 0xAC, 0xD2, 0x1A, 0xB8, 0xEE, 0x3E, // fnv1a64
            0x0C, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // payload len 12
            0x02, 0x00, 0x00, 0x00, // num_transactions 2
            0x00, 0x00, 0x00, 0x00, // num_itemsets 0
            0x00, 0x00, 0x00, 0x00, // num_rules 0
        ];
        let (snap, read) = read_results(&mut &fixture[..]).unwrap();
        assert_eq!(read, fixture.len() as u64);
        assert_eq!(snap.num_transactions, 2);
        assert_eq!(snap.generation, 0);
        assert!(snap.frequent.is_empty() && snap.rules.is_empty());
    }

    #[test]
    fn peek_reads_version_and_generation_cheaply() {
        let snap = sample_snapshot();
        let mut v2 = Vec::new();
        write_results(&snap, &mut v2).unwrap();
        let (version, generation, checksum) = peek_results_header(&mut v2.as_slice()).unwrap();
        assert_eq!((version, generation), (RESULTS_VERSION, 7));
        let mut v1 = Vec::new();
        write_results_v1(&snap, &mut v1).unwrap();
        let (v1_version, v1_generation, v1_checksum) =
            peek_results_header(&mut v1.as_slice()).unwrap();
        assert_eq!((v1_version, v1_generation), (VERSION, 0));
        assert_eq!(checksum, v1_checksum, "same payload, same checksum");
        // A torn write (header cut short) surfaces as UnexpectedEof, not
        // a panic — the poller skips and retries.
        let err = peek_results_header(&mut &v2[..30]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn unknown_feature_bits_rejected() {
        let snap = sample_snapshot();
        let mut buf = Vec::new();
        write_results(&snap, &mut buf).unwrap();
        buf[32] |= 0x01; // features field (header bytes 32..36)
        let err = read_results(&mut buf.as_slice()).unwrap_err();
        assert!(err.to_string().contains("feature"), "{err}");
        let err = peek_results_header(&mut buf.as_slice()).unwrap_err();
        assert!(err.to_string().contains("feature"), "{err}");
    }

    #[test]
    fn unknown_version_rejected() {
        let snap = sample_snapshot();
        let mut buf = Vec::new();
        write_results(&snap, &mut buf).unwrap();
        buf[4] = 3; // version field
        assert!(read_results(&mut buf.as_slice()).is_err());
        let err = peek_results_header(&mut buf.as_slice()).unwrap_err();
        assert!(err.to_string().contains("version"), "{err}");
    }

    #[test]
    fn results_corruption_caught_by_checksum() {
        let mut buf = Vec::new();
        write_results(&sample_snapshot(), &mut buf).unwrap();
        // Flip one bit in the payload; the header checksum must catch it.
        let last = buf.len() - 1;
        buf[last] ^= 0x01;
        let err = read_results(&mut buf.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("checksum"));
    }

    #[test]
    fn results_wrong_magic_rejected() {
        let db = sample();
        let mut buf = Vec::new();
        write_horizontal(&db, &mut buf).unwrap();
        assert!(read_results(&mut buf.as_slice()).is_err());
    }

    /// A correctly checksummed v2 snapshot whose payload is `payload`.
    fn v2_file(payload: &[u8]) -> Vec<u8> {
        let mut ext = Vec::new();
        put_u64(&mut ext, 1);
        put_u32(&mut ext, RESULTS_FEATURES);
        let mut file = Vec::new();
        write_container(&mut file, MAGIC_RESULTS, RESULTS_VERSION, &ext, payload).unwrap();
        file
    }

    #[test]
    fn empty_itemsets_rejected() {
        // The 56-byte snapshot: 10 transactions, one itemset of length 0
        // with support 5, no rules.
        let mut payload = Vec::new();
        for word in [10, 1, 0, 5, 0] {
            put_u32(&mut payload, word);
        }
        let file = v2_file(&payload);
        assert_eq!(file.len(), 56);
        let err = read_results(&mut file.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("empty"), "{err}");

        // A rule with an empty antecedent, then one with an empty
        // consequent, over the frequent itemset {1}.
        for (antecedent, consequent) in [(&[][..], &[1u32][..]), (&[1][..], &[][..])] {
            let mut payload = Vec::new();
            put_u32(&mut payload, 10);
            put_u32(&mut payload, 1);
            put_u32_vec(&mut payload, &[1]);
            put_u32(&mut payload, 5);
            put_u32(&mut payload, 1);
            put_u32_vec(&mut payload, antecedent);
            put_u32_vec(&mut payload, consequent);
            for support in [5, 5, 5] {
                put_u32(&mut payload, support);
            }
            let err = read_results(&mut v2_file(&payload).as_slice()).unwrap_err();
            assert!(err.to_string().contains("empty"), "{err}");
        }
    }

    #[test]
    fn results_truncation_rejected() {
        let snap = sample_snapshot();
        let mut v1 = Vec::new();
        write_results_v1(&snap, &mut v1).unwrap();
        let mut v2 = Vec::new();
        write_results(&snap, &mut v2).unwrap();
        for buf in [&v1, &v2] {
            for len in 0..buf.len() {
                assert!(read_results(&mut &buf[..len]).is_err(), "prefix {len}");
            }
        }

        // A 24-byte v1 header announcing a 2^45-byte payload.
        let mut huge = header(MAGIC_RESULTS, VERSION);
        put_u64(&mut huge, 0);
        put_u64(&mut huge, 1 << 45);
        assert_invalid(read_results(&mut huge.as_slice()), "2^45-byte payload");

        // Correctly checksummed payloads with an out-of-order itemset and
        // with one itemset listed twice.
        let unsorted: &[(&[u32], u32)] = &[(&[2, 1], 1)];
        let twice: &[(&[u32], u32)] = &[(&[4], 1), (&[4], 2)];
        for itemsets in [unsorted, twice] {
            let mut payload = Vec::new();
            put_u32(&mut payload, 3);
            put_u32(&mut payload, itemsets.len() as u32);
            for &(items, support) in itemsets {
                put_u32_vec(&mut payload, items);
                put_u32(&mut payload, support);
            }
            put_u32(&mut payload, 0);
            let mut file = Vec::new();
            write_container(&mut file, MAGIC_RESULTS, VERSION, &[], &payload).unwrap();
            assert_invalid(read_results(&mut file.as_slice()), "bad itemset list");
        }
    }
}
