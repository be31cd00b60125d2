//! The workspace's one little-endian codec, plus blocking-socket helpers.
//!
//! Every encoding the workspace reads or writes goes through this crate:
//! the frames and messages of the query server (`assoc-serve`) and the
//! distributed mining runtime (`eclat-net`), and the `dbstore` files.
//! Both TCP surfaces speak the same outer framing:
//!
//! ```text
//! frame := len:u32le  payload[len]
//! ```
//!
//! * [`write_frame`] / [`read_frame`] / [`Frame`] — that framing,
//!   byte-for-byte the format `assoc-serve` pinned with its loopback
//!   tests;
//! * [`Cursor`] — a strict little-endian reader over a byte slice
//!   (truncation and trailing bytes are errors, never guesses). It hands
//!   out only bytes that are present, so no declared count or length can
//!   make a decoder allocate more than it has read;
//! * the `put_*` encoders, including the `len:u32, u32×len` record
//!   ([`put_u32_vec`]) of transactions, tid-lists and itemsets, its
//!   `len:u16` short form, and the `len:u16`/`len:u32` UTF-8 strings;
//! * [`is_timeout`] (`WouldBlock` on Unix, `TimedOut` elsewhere),
//!   [`connect_retry`] (exponential backoff) and [`set_timeouts`].

use std::io::{self, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Write one frame (header + payload) and flush.
pub fn write_frame<W: Write>(w: &mut W, payload: &[u8]) -> io::Result<()> {
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// What [`read_frame`] produced.
#[derive(Debug)]
pub enum Frame {
    /// A complete payload.
    Payload(Vec<u8>),
    /// The peer closed the connection cleanly before a header started.
    Eof,
    /// The announced length exceeded `max`; nothing further was read.
    TooLarge(usize),
}

/// Read one frame with the given payload-size limit.
///
/// Returns [`Frame::Eof`] only on a clean close at a frame boundary; a
/// connection dropped mid-frame surfaces as an
/// [`io::ErrorKind::UnexpectedEof`] error.
pub fn read_frame<R: Read>(r: &mut R, max: usize) -> io::Result<Frame> {
    let mut header = [0u8; 4];
    let mut got = 0usize;
    while got < 4 {
        let n = r.read(&mut header[got..])?;
        if n == 0 {
            if got == 0 {
                return Ok(Frame::Eof);
            }
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed inside a frame header",
            ));
        }
        got += n;
    }
    let len = u32::from_le_bytes(header) as usize;
    if len > max {
        return Ok(Frame::TooLarge(len));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok(Frame::Payload(payload))
}

/// A strict-decoding failure inside a frame payload.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DecodeError {
    /// Payload ended before the announced structure was complete.
    Truncated,
    /// Bytes remained after a complete message was decoded.
    TrailingBytes(usize),
    /// First byte was not a known opcode.
    BadOpcode(u8),
    /// A string field was not valid UTF-8.
    BadUtf8,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "truncated payload"),
            DecodeError::TrailingBytes(n) => write!(f, "{n} trailing bytes after message"),
            DecodeError::BadOpcode(op) => write!(f, "unknown opcode 0x{op:02x}"),
            DecodeError::BadUtf8 => write!(f, "string field is not valid UTF-8"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// File readers decode with a [`Cursor`] too; a malformed file is
/// `InvalidData`.
impl From<DecodeError> for io::Error {
    fn from(e: DecodeError) -> io::Error {
        io::Error::new(io::ErrorKind::InvalidData, e)
    }
}

/// Strict little-endian reader over a byte slice. Every read checks
/// bounds; [`Cursor::finish`] rejects trailing bytes, so a decoder built
/// on it accepts exactly one well-formed encoding.
pub struct Cursor<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    /// Reader positioned at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Cursor<'a> {
        Cursor { buf, at: 0 }
    }

    /// Take the next `n` raw bytes.
    ///
    /// # Errors
    /// [`DecodeError::Truncated`] if fewer than `n` bytes remain.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if n > self.buf.len() - self.at {
            return Err(DecodeError::Truncated);
        }
        let s = &self.buf[self.at..self.at + n];
        self.at += n;
        Ok(s)
    }

    /// Next byte.
    pub fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }

    /// Next `u16` (little-endian).
    pub fn u16(&mut self) -> Result<u16, DecodeError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    /// Next `u32` (little-endian).
    pub fn u32(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Next `u64` (little-endian).
    pub fn u64(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Next `f64` (little-endian bit pattern).
    pub fn f64(&mut self) -> Result<f64, DecodeError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Next `n` little-endian `u32`s, reading before allocating.
    fn u32s(&mut self, n: usize) -> Result<Vec<u32>, DecodeError> {
        let raw = self.take(n.checked_mul(4).ok_or(DecodeError::Truncated)?)?;
        Ok(raw
            .chunks_exact(4)
            .map(|b| u32::from_le_bytes(b.try_into().expect("4-byte chunk")))
            .collect())
    }

    /// Next `len:u32le, u32le×len` record (see [`put_u32_vec`]).
    pub fn u32_vec(&mut self) -> Result<Vec<u32>, DecodeError> {
        let n = self.u32()?;
        self.u32s(n as usize)
    }

    /// Next `len:u16le, u32le×len` record (see [`put_u32_vec16`]).
    pub fn u32_vec16(&mut self) -> Result<Vec<u32>, DecodeError> {
        let n = self.u16()?;
        self.u32s(n.into())
    }

    /// Next length-prefixed UTF-8 string (`len:u16le utf8[len]`).
    pub fn str16(&mut self) -> Result<String, DecodeError> {
        let n = self.u16()?;
        self.utf8(n.into())
    }

    /// Next length-prefixed UTF-8 string (`len:u32le utf8[len]`).
    pub fn str32(&mut self) -> Result<String, DecodeError> {
        let n = self.u32()?;
        self.utf8(n as usize)
    }

    fn utf8(&mut self, n: usize) -> Result<String, DecodeError> {
        String::from_utf8(self.take(n)?.to_vec()).map_err(|_| DecodeError::BadUtf8)
    }

    /// Assert the payload was fully consumed.
    ///
    /// # Errors
    /// [`DecodeError::TrailingBytes`] if bytes remain.
    pub fn finish(&self) -> Result<(), DecodeError> {
        if self.at != self.buf.len() {
            return Err(DecodeError::TrailingBytes(self.buf.len() - self.at));
        }
        Ok(())
    }
}

/// Append a `u16` (little-endian).
pub fn put_u16(buf: &mut Vec<u8>, v: u16) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Append a `u32` (little-endian).
pub fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Append a `u64` (little-endian).
pub fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Append an `f64` (little-endian bit pattern).
pub fn put_f64(buf: &mut Vec<u8>, v: f64) {
    put_u64(buf, v.to_bits());
}

/// Append a `len:u32le, u32le×len` record — the shape of a transaction,
/// tid-list, itemset and exchanged partial list alike.
pub fn put_u32_vec(buf: &mut Vec<u8>, values: &[u32]) {
    put_u32(buf, values.len() as u32);
    put_u32s(buf, values);
}

/// Append a `len:u16le, u32le×len` record — the short form that query
/// and result itemsets use. Lists longer than `u16::MAX` are a caller
/// bug.
pub fn put_u32_vec16(buf: &mut Vec<u8>, values: &[u32]) {
    debug_assert!(values.len() <= u16::MAX as usize);
    put_u16(buf, values.len() as u16);
    put_u32s(buf, values);
}

/// Append `values` as little-endian `u32`s, sized once and filled in
/// place rather than grown per word.
fn put_u32s(buf: &mut Vec<u8>, values: &[u32]) {
    let at = buf.len();
    buf.resize(at + 4 * values.len(), 0);
    for (dst, v) in buf[at..].chunks_exact_mut(4).zip(values) {
        dst.copy_from_slice(&v.to_le_bytes());
    }
}

/// Append a length-prefixed UTF-8 string (`len:u16le utf8[len]`),
/// truncating at `u16::MAX` bytes.
pub fn put_str16(buf: &mut Vec<u8>, s: &str) {
    let bytes = s.as_bytes();
    let n = bytes.len().min(u16::MAX as usize);
    put_u16(buf, n as u16);
    buf.extend_from_slice(&bytes[..n]);
}

/// Append a length-prefixed UTF-8 string (`len:u32le utf8[len]`).
pub fn put_str32(buf: &mut Vec<u8>, s: &str) {
    put_u32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

/// Whether an I/O error is a read/write timeout. Blocking sockets report
/// expired deadlines as `WouldBlock` on Unix and `TimedOut` on Windows;
/// servers treat both as "peer idled too long".
pub fn is_timeout(e: &io::Error) -> bool {
    e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut
}

/// Apply read/write deadlines to a socket (`None` = block forever).
pub fn set_timeouts(
    stream: &TcpStream,
    read: Option<Duration>,
    write: Option<Duration>,
) -> io::Result<()> {
    stream.set_read_timeout(read)?;
    stream.set_write_timeout(write)?;
    Ok(())
}

/// Connect with retries and exponential backoff: attempt `1 + retries`
/// connects, sleeping `backoff`, `2·backoff`, `4·backoff`, … between
/// failures. Returns the last error if every attempt fails.
pub fn connect_retry<A: ToSocketAddrs + Copy>(
    addr: A,
    retries: u32,
    backoff: Duration,
) -> io::Result<TcpStream> {
    let mut wait = backoff;
    let mut last_err = None;
    for attempt in 0..=retries {
        match TcpStream::connect(addr) {
            Ok(s) => return Ok(s),
            Err(e) => last_err = Some(e),
        }
        if attempt < retries {
            std::thread::sleep(wait);
            wait = wait.saturating_mul(2);
        }
    }
    Err(last_err.unwrap_or_else(|| io::Error::other("no connect attempts")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_io_roundtrip_and_limits() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &[1, 2, 3]).unwrap();
        assert_eq!(buf, vec![3, 0, 0, 0, 1, 2, 3]);
        let mut r = &buf[..];
        match read_frame(&mut r, 16).unwrap() {
            Frame::Payload(p) => assert_eq!(p, vec![1, 2, 3]),
            other => panic!("{other:?}"),
        }
        match read_frame(&mut r, 16).unwrap() {
            Frame::Eof => {}
            other => panic!("{other:?}"),
        }

        let mut r = &buf[..];
        match read_frame(&mut r, 2).unwrap() {
            Frame::TooLarge(3) => {}
            other => panic!("{other:?}"),
        }

        // Mid-header close is an error, not Eof.
        let mut r = &buf[..2];
        assert_eq!(
            read_frame(&mut r, 16).unwrap_err().kind(),
            io::ErrorKind::UnexpectedEof
        );
        // Mid-payload close too.
        let mut r = &buf[..5];
        assert_eq!(
            read_frame(&mut r, 16).unwrap_err().kind(),
            io::ErrorKind::UnexpectedEof
        );
    }

    #[test]
    fn cursor_reads_are_strict() {
        let mut buf = Vec::new();
        buf.push(0xAB);
        put_u16(&mut buf, 1234);
        put_u32(&mut buf, 0xDEAD_BEEF);
        put_u64(&mut buf, u64::MAX - 1);
        put_f64(&mut buf, -2.5);
        put_str16(&mut buf, "héllo");
        put_str32(&mut buf, "wörld");
        put_u32_vec(&mut buf, &[7, 0, u32::MAX]);
        put_u32_vec(&mut buf, &[]);
        put_u32_vec16(&mut buf, &[9]);

        let mut c = Cursor::new(&buf);
        assert_eq!(c.u8().unwrap(), 0xAB);
        assert_eq!(c.u16().unwrap(), 1234);
        assert_eq!(c.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(c.u64().unwrap(), u64::MAX - 1);
        assert_eq!(c.f64().unwrap(), -2.5);
        assert_eq!(c.str16().unwrap(), "héllo");
        assert_eq!(c.str32().unwrap(), "wörld");
        assert_eq!(c.u32_vec().unwrap(), vec![7, 0, u32::MAX]);
        assert_eq!(c.u32_vec().unwrap(), Vec::<u32>::new());
        assert_eq!(c.u32_vec16().unwrap(), vec![9]);
        c.finish().unwrap();

        // Truncation and trailing bytes are both rejected.
        let mut c = Cursor::new(&buf[..3]);
        assert_eq!(c.u8().unwrap(), 0xAB);
        assert_eq!(c.u32(), Err(DecodeError::Truncated));
        let mut c = Cursor::new(&buf);
        c.u8().unwrap();
        assert_eq!(c.finish(), Err(DecodeError::TrailingBytes(buf.len() - 1)));

        // A record announcing more words than remain is truncated, even
        // when its byte length would overflow.
        let mut huge = Vec::new();
        put_u32(&mut huge, u32::MAX);
        assert_eq!(Cursor::new(&huge).u32_vec(), Err(DecodeError::Truncated));
        assert_eq!(Cursor::new(&huge).u32_vec16(), Err(DecodeError::Truncated));
        assert_eq!(
            Cursor::new(&huge).u32s(usize::MAX),
            Err(DecodeError::Truncated)
        );

        // Invalid UTF-8 in a string field.
        let mut bad = Vec::new();
        put_u16(&mut bad, 1);
        bad.push(0xFF);
        assert_eq!(Cursor::new(&bad).str16(), Err(DecodeError::BadUtf8));
        assert_eq!(
            Cursor::new(&[1, 0, 0, 0, 0xFF]).str32(),
            Err(DecodeError::BadUtf8)
        );
    }

    #[test]
    fn timeout_classification() {
        assert!(is_timeout(&io::Error::new(io::ErrorKind::WouldBlock, "x")));
        assert!(is_timeout(&io::Error::new(io::ErrorKind::TimedOut, "x")));
        assert!(!is_timeout(&io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "x"
        )));
    }

    #[test]
    fn connect_retry_reports_last_error() {
        // Port 1 on loopback is essentially never listening.
        let err = connect_retry("127.0.0.1:1", 1, Duration::from_millis(1)).unwrap_err();
        assert_ne!(err.kind(), io::ErrorKind::Other);
    }

    #[test]
    fn connect_retry_succeeds_against_listener() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let stream = connect_retry(addr, 2, Duration::from_millis(1)).unwrap();
        set_timeouts(&stream, Some(Duration::from_millis(50)), None).unwrap();
    }
}
