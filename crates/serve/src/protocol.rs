//! The length-prefixed binary wire protocol.
//!
//! Every message — request or response — travels as one **frame**:
//!
//! ```text
//! frame    := len:u32le  payload[len]
//! itemset  := n:u16le  item:u32le × n          (items sorted ascending)
//! counted  := itemset  support:u32le
//! rule     := antecedent:itemset  consequent:itemset
//!             support:u32le  antecedent_support:u32le  consequent_support:u32le
//!
//! request  := 0x00                                  Ping
//!           | 0x01 itemset                          Support
//!           | 0x02 itemset limit:u32le              Subsets
//!           | 0x03 itemset limit:u32le              Supersets
//!           | 0x04 itemset k:u32le                  RulesFor
//!           | 0x05 size:u32le k:u32le               TopK (size 0 = any)
//!           | 0x06                                  Stats
//!           | 0x07                                  Metrics
//!
//! response := 0x00                                  Pong
//!           | 0x01 found:u8 support:u32le           Support
//!           | 0x02 count:u32le counted × count      Itemsets
//!           | 0x03 count:u32le rule × count         Rules
//!           | 0x04 len:u16le utf8[len]              Error
//!           | 0x05 len:u32le utf8[len]              StatsJson
//!           | 0x06 len:u32le utf8[len]              MetricsText
//! ```
//!
//! All integers are little-endian. Decoding is strict: unknown opcodes,
//! truncated bodies, unsorted itemsets, and trailing bytes are all
//! [`ProtoError`]s — the server answers them with an `Error` response and
//! drops the connection rather than guessing. Frames larger than the
//! receiver's limit ([`MAX_REQUEST_FRAME`] / [`MAX_RESPONSE_FRAME`]) are
//! rejected before the payload is read.

use crate::index::RuleEntry;
use mining_types::item::items_as_u32;
use mining_types::{Counted, ItemId, Itemset};
use std::fmt;
use wire::{put_str16, put_str32, put_u32, put_u32_vec16, Cursor, DecodeError};

// The outer framing is shared workspace plumbing (the `wire` crate);
// `eclat-net` speaks the same frame layout. Re-exported here so this
// module remains the one-stop description of the serve protocol.
pub use wire::{read_frame, write_frame, Frame};

/// Largest request payload a server will read. Requests are one itemset
/// plus a few integers, so this is generous.
pub const MAX_REQUEST_FRAME: usize = 64 * 1024;

/// Largest response payload a client will read. Result lists are bounded
/// by [`MAX_RESULT_LIMIT`], which keeps worst-case responses far below
/// this.
pub const MAX_RESPONSE_FRAME: usize = 8 * 1024 * 1024;

/// Hard cap on `limit` / `k` in enumeration queries; the server clamps
/// rather than errors, and the bound keeps responses inside
/// [`MAX_RESPONSE_FRAME`].
pub const MAX_RESULT_LIMIT: u32 = 65_536;

/// A protocol decoding failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProtoError {
    /// Payload ended before the announced structure was complete.
    Truncated,
    /// First byte of a request/response was not a known opcode.
    BadOpcode(u8),
    /// Bytes remained after a complete message was decoded.
    TrailingBytes(usize),
    /// An itemset's items were not strictly ascending.
    UnsortedItemset,
    /// A string field was not valid UTF-8.
    BadUtf8,
    /// A frame length exceeded the receiver's limit.
    FrameTooLarge {
        /// Announced payload length.
        len: usize,
        /// The receiver's limit.
        max: usize,
    },
}

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtoError::Truncated => write!(f, "truncated payload"),
            ProtoError::BadOpcode(op) => write!(f, "unknown opcode 0x{op:02x}"),
            ProtoError::TrailingBytes(n) => write!(f, "{n} trailing bytes after message"),
            ProtoError::UnsortedItemset => write!(f, "itemset items must be strictly ascending"),
            ProtoError::BadUtf8 => write!(f, "string field is not valid UTF-8"),
            ProtoError::FrameTooLarge { len, max } => {
                write!(f, "frame of {len} bytes exceeds limit of {max}")
            }
        }
    }
}

impl std::error::Error for ProtoError {}

/// A query against the store — the in-process API and the wire protocol
/// share this type.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Query {
    /// Liveness check.
    Ping,
    /// Exact support of one itemset.
    Support {
        /// The itemset to look up.
        itemset: Itemset,
    },
    /// Frequent itemsets that are ⊆ `of`, lexicographic, at most `limit`.
    Subsets {
        /// The covering itemset.
        of: Itemset,
        /// Maximum results (clamped to [`MAX_RESULT_LIMIT`]).
        limit: u32,
    },
    /// Frequent itemsets that are ⊇ `of`, lexicographic, at most `limit`.
    Supersets {
        /// The contained itemset (empty = enumerate everything).
        of: Itemset,
        /// Maximum results (clamped to [`MAX_RESULT_LIMIT`]).
        limit: u32,
    },
    /// Top-`k` rules with exactly this antecedent, confidence descending.
    RulesFor {
        /// The antecedent ("items bought with …").
        antecedent: Itemset,
        /// Maximum rules (clamped to [`MAX_RESULT_LIMIT`]).
        k: u32,
    },
    /// Top-`k` frequent itemsets of `size` items (0 = any size) by
    /// support descending.
    TopK {
        /// Required itemset size, or 0 for any.
        size: u32,
        /// Maximum results (clamped to [`MAX_RESULT_LIMIT`]).
        k: u32,
    },
    /// Server/cache statistics as a JSON document.
    Stats,
    /// Request/latency metrics as Prometheus-style exposition text.
    Metrics,
}

/// A query answer.
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// Answer to [`Query::Ping`].
    Pong,
    /// Answer to [`Query::Support`]: the support, if frequent.
    Support(Option<u32>),
    /// Answer to subset/superset/top-k queries.
    Itemsets(Vec<Counted>),
    /// Answer to [`Query::RulesFor`]: the antecedent echoed back is not
    /// needed — entries carry everything else.
    Rules(Vec<RuleEntry>),
    /// Server-side failure (decode error, unsupported query).
    Error(String),
    /// Answer to [`Query::Stats`].
    StatsJson(String),
    /// Answer to [`Query::Metrics`].
    MetricsText(String),
}

impl From<DecodeError> for ProtoError {
    fn from(e: DecodeError) -> ProtoError {
        match e {
            DecodeError::Truncated => ProtoError::Truncated,
            DecodeError::TrailingBytes(n) => ProtoError::TrailingBytes(n),
            DecodeError::BadOpcode(op) => ProtoError::BadOpcode(op),
            DecodeError::BadUtf8 => ProtoError::BadUtf8,
        }
    }
}

fn get_itemset(c: &mut Cursor<'_>) -> Result<Itemset, ProtoError> {
    let items = c.u32_vec16()?.into_iter().map(ItemId).collect();
    Itemset::try_from_sorted(items).ok_or(ProtoError::UnsortedItemset)
}

impl Query {
    /// Encode into a payload (no frame header).
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        match self {
            Query::Ping => buf.push(0x00),
            Query::Support { itemset } => {
                buf.push(0x01);
                put_u32_vec16(&mut buf, items_as_u32(itemset.items()));
            }
            Query::Subsets { of, limit } => {
                buf.push(0x02);
                put_u32_vec16(&mut buf, items_as_u32(of.items()));
                put_u32(&mut buf, *limit);
            }
            Query::Supersets { of, limit } => {
                buf.push(0x03);
                put_u32_vec16(&mut buf, items_as_u32(of.items()));
                put_u32(&mut buf, *limit);
            }
            Query::RulesFor { antecedent, k } => {
                buf.push(0x04);
                put_u32_vec16(&mut buf, items_as_u32(antecedent.items()));
                put_u32(&mut buf, *k);
            }
            Query::TopK { size, k } => {
                buf.push(0x05);
                put_u32(&mut buf, *size);
                put_u32(&mut buf, *k);
            }
            Query::Stats => buf.push(0x06),
            Query::Metrics => buf.push(0x07),
        }
        buf
    }

    /// Decode a payload (strict: trailing bytes are an error).
    pub fn decode(payload: &[u8]) -> Result<Query, ProtoError> {
        let mut c = Cursor::new(payload);
        let q = match c.u8()? {
            0x00 => Query::Ping,
            0x01 => Query::Support {
                itemset: get_itemset(&mut c)?,
            },
            0x02 => Query::Subsets {
                of: get_itemset(&mut c)?,
                limit: c.u32()?,
            },
            0x03 => Query::Supersets {
                of: get_itemset(&mut c)?,
                limit: c.u32()?,
            },
            0x04 => Query::RulesFor {
                antecedent: get_itemset(&mut c)?,
                k: c.u32()?,
            },
            0x05 => Query::TopK {
                size: c.u32()?,
                k: c.u32()?,
            },
            0x06 => Query::Stats,
            0x07 => Query::Metrics,
            op => return Err(ProtoError::BadOpcode(op)),
        };
        c.finish()?;
        Ok(q)
    }
}

impl Response {
    /// Encode into a payload (no frame header).
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        match self {
            Response::Pong => buf.push(0x00),
            Response::Support(sup) => {
                buf.push(0x01);
                buf.push(sup.is_some() as u8);
                put_u32(&mut buf, sup.unwrap_or(0));
            }
            Response::Itemsets(list) => {
                buf.push(0x02);
                put_u32(&mut buf, list.len() as u32);
                for c in list {
                    put_u32_vec16(&mut buf, items_as_u32(c.itemset.items()));
                    put_u32(&mut buf, c.support);
                }
            }
            Response::Rules(list) => {
                buf.push(0x03);
                put_u32(&mut buf, list.len() as u32);
                for r in list {
                    // The caller re-attaches the shared antecedent; on the
                    // wire each entry is self-contained.
                    put_u32_vec16(&mut buf, items_as_u32(r.consequent.items()));
                    put_u32(&mut buf, r.support);
                    put_u32(&mut buf, r.antecedent_support);
                    put_u32(&mut buf, r.consequent_support);
                }
            }
            Response::Error(msg) => {
                buf.push(0x04);
                put_str16(&mut buf, msg);
            }
            Response::StatsJson(json) => {
                buf.push(0x05);
                put_str32(&mut buf, json);
            }
            Response::MetricsText(text) => {
                buf.push(0x06);
                put_str32(&mut buf, text);
            }
        }
        buf
    }

    /// Decode a payload (strict).
    pub fn decode(payload: &[u8]) -> Result<Response, ProtoError> {
        let mut c = Cursor::new(payload);
        let r = match c.u8()? {
            0x00 => Response::Pong,
            0x01 => {
                let found = c.u8()? != 0;
                let sup = c.u32()?;
                Response::Support(found.then_some(sup))
            }
            0x02 => {
                let mut list = Vec::new();
                for _ in 0..c.u32()? {
                    list.push(Counted {
                        itemset: get_itemset(&mut c)?,
                        support: c.u32()?,
                    });
                }
                Response::Itemsets(list)
            }
            0x03 => {
                let mut list = Vec::new();
                for _ in 0..c.u32()? {
                    list.push(RuleEntry {
                        consequent: get_itemset(&mut c)?,
                        support: c.u32()?,
                        antecedent_support: c.u32()?,
                        consequent_support: c.u32()?,
                    });
                }
                Response::Rules(list)
            }
            0x04 => Response::Error(c.str16()?),
            0x05 => Response::StatsJson(c.str32()?),
            0x06 => Response::MetricsText(c.str32()?),
            op => return Err(ProtoError::BadOpcode(op)),
        };
        c.finish()?;
        Ok(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io;

    fn iset(raw: &[u32]) -> Itemset {
        Itemset::of(raw)
    }

    #[test]
    fn query_roundtrip() {
        let queries = [
            Query::Ping,
            Query::Support {
                itemset: iset(&[1, 5, 9]),
            },
            Query::Subsets {
                of: iset(&[2, 3]),
                limit: 100,
            },
            Query::Supersets {
                of: Itemset::empty(),
                limit: 7,
            },
            Query::RulesFor {
                antecedent: iset(&[4]),
                k: 3,
            },
            Query::TopK { size: 0, k: 10 },
            Query::Stats,
            Query::Metrics,
        ];
        for q in queries {
            let enc = q.encode();
            assert_eq!(Query::decode(&enc).unwrap(), q, "{q:?}");
        }
    }

    #[test]
    fn response_roundtrip() {
        let responses = [
            Response::Pong,
            Response::Support(Some(42)),
            Response::Support(None),
            Response::Itemsets(vec![
                Counted {
                    itemset: iset(&[1, 2]),
                    support: 5,
                },
                Counted {
                    itemset: iset(&[7]),
                    support: 9,
                },
            ]),
            Response::Rules(vec![RuleEntry {
                consequent: iset(&[3]),
                support: 4,
                antecedent_support: 6,
                consequent_support: 5,
            }]),
            Response::Error("no such thing".to_string()),
            Response::StatsJson("{\"hits\":1}".to_string()),
            Response::MetricsText("# TYPE x counter\nx 1\n".to_string()),
        ];
        for r in responses {
            let enc = r.encode();
            assert_eq!(Response::decode(&enc).unwrap(), r, "{r:?}");
        }
    }

    #[test]
    fn strict_decoding_rejects_garbage() {
        assert_eq!(Query::decode(&[]), Err(ProtoError::Truncated));
        assert_eq!(Query::decode(&[0xEE]), Err(ProtoError::BadOpcode(0xEE)));
        assert_eq!(
            Query::decode(&[0x00, 0x01]),
            Err(ProtoError::TrailingBytes(1))
        );
        // Support frame announcing 2 items but carrying none.
        assert_eq!(Query::decode(&[0x01, 2, 0]), Err(ProtoError::Truncated));
        // Unsorted itemset.
        let mut bad = vec![0x01, 2, 0];
        bad.extend_from_slice(&5u32.to_le_bytes());
        bad.extend_from_slice(&3u32.to_le_bytes());
        assert_eq!(Query::decode(&bad), Err(ProtoError::UnsortedItemset));
        assert_eq!(
            Response::decode(&[0x04, 1, 0, 0xFF]),
            Err(ProtoError::BadUtf8)
        );
    }

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
}
