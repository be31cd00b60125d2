//! The coordinator/worker message set and its binary codec.
//!
//! Every message rides one [`wire`] frame (`len:u32le payload`). The
//! payload starts with a one-byte opcode followed by the fields below,
//! all little-endian, decoded strictly (truncation, trailing bytes and
//! unknown opcodes are errors, never guesses). Opcodes start at `0x10`
//! so no `eclat-net` payload is a valid `assoc-serve` query byte-stream.
//!
//! Except for `Hello` (which carries the protocol version precisely so
//! version skew is caught before anything else is interpreted), every
//! message leads with the 64-bit `run_id` minted by the coordinator —
//! the tag that keeps concurrent runs on a shared worker fleet from
//! cross-talking.

use eclat::{EclatConfig, Representation};
use mining_types::stats::{ClassStats, KernelStats, LevelCounts};
use mining_types::OpMeter;
use wire::{Cursor, DecodeError};

/// Version tag carried by `Hello`; bumped on any wire-format change.
/// Version 2 extended [`WorkerStats`] with per-thread timing and spill
/// I/O (multi-core + out-of-core workers).
pub const PROTOCOL_VERSION: u32 = 2;

/// Frame-size ceiling for mining traffic. Tid-list exchanges legitimately
/// carry tens of megabytes; anything past this is a corrupt length.
pub const MAX_NET_FRAME: usize = 256 << 20;

const OP_HELLO: u8 = 0x10;
const OP_HELLO_ACK: u8 = 0x11;
const OP_ASSIGN: u8 = 0x12;
const OP_COUNTS: u8 = 0x13;
const OP_PLAN: u8 = 0x14;
const OP_PARTIALS: u8 = 0x15;
const OP_PARTIALS_ACK: u8 = 0x16;
const OP_EXCHANGE_DONE: u8 = 0x17;
const OP_RESULT: u8 = 0x18;
const OP_ABORT: u8 = 0x19;
const OP_GOODBYE: u8 = 0x1A;

const FLAG_SHORT_CIRCUIT: u8 = 1 << 0;
const FLAG_PRUNE: u8 = 1 << 1;
const FLAG_COUNT_ITEMS: u8 = 1 << 2;
const FLAG_GALLOP: u8 = 1 << 3;

const REPR_TIDLIST: u8 = 0;
const REPR_DIFFSET: u8 = 1;
const REPR_AUTOSWITCH: u8 = 2;
const REPR_BITMAP: u8 = 3;
// The `repr_depth` field carries the density threshold (permille).
const REPR_AUTODENSITY: u8 = 4;

/// Per-worker measured statistics returned with [`Message::Result`] —
/// the real-TCP counterpart of the simulator's per-processor trace. A
/// worker is a *host* in the paper's hybrid sense: the serial phases run
/// on the session thread, the asynchronous phase on `threads` local
/// processors, each reporting its own busy time.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct WorkerStats {
    /// Seconds the session thread spent computing in the serial phases
    /// (counting, transform, assembly) — async mining is reported per
    /// thread in `thread_compute_secs`.
    pub compute_secs: f64,
    /// Seconds spent in socket I/O (sends, peer connects, acks).
    pub net_secs: f64,
    /// Seconds blocked waiting (coordinator frames, peer partials).
    pub idle_secs: f64,
    /// Wall seconds from `Hello` to `Result` sent.
    pub finish_secs: f64,
    /// Frame bytes written (headers included).
    pub bytes_sent: u64,
    /// Frame bytes read (headers included).
    pub bytes_received: u64,
    /// Mining threads used in the asynchronous phase (≥ 1).
    pub threads: u32,
    /// Per-thread seconds inside the mining kernel (`threads` entries).
    pub thread_compute_secs: Vec<f64>,
    /// Per-thread seconds of spill I/O: class faults on the owning
    /// thread, eviction writes on thread 0 (`threads` entries).
    pub thread_disk_secs: Vec<f64>,
    /// Bytes of evicted classes written to the spill store.
    pub spill_bytes_written: u64,
    /// Bytes of spilled classes faulted back in.
    pub spill_bytes_read: u64,
    /// Operation counters of the local counting pass.
    pub init_ops: OpMeter,
    /// Operation counters of partial-list construction + assembly.
    pub transform_ops: OpMeter,
    /// Operation counters of the asynchronous mining phase.
    pub async_ops: OpMeter,
    /// Per-class kernel statistics for the classes this worker owned.
    pub classes: Vec<ClassStats>,
}

/// One protocol message. See the module docs for framing.
#[derive(Clone, Debug, PartialEq)]
pub enum Message {
    /// Coordinator → worker: open a mining session.
    Hello {
        /// Must equal [`PROTOCOL_VERSION`].
        version: u32,
        /// Coordinator-minted run tag.
        run_id: u64,
        /// This worker's rank in `0..num_workers`.
        rank: u32,
        /// Cluster size.
        num_workers: u32,
    },
    /// Worker → coordinator: session accepted.
    HelloAck {
        /// Echoed run tag.
        run_id: u64,
    },
    /// Coordinator → worker: the database block and mining parameters.
    Assign {
        /// Run tag.
        run_id: u64,
        /// Absolute support threshold (already resolved from minsup).
        threshold: u32,
        /// First global tid of this worker's block (§6.3 offset).
        tid_offset: u32,
        /// `FLAG_*` bits of the mining configuration.
        flags: u8,
        /// Tid-list representation tag (`REPR_*`).
        repr_tag: u8,
        /// `AutoSwitch` depth (ignored for other representations).
        repr_depth: u32,
        /// The horizontal block in `dbstore::binfmt` encoding, carrying
        /// the *global* item universe size.
        block: Vec<u8>,
    },
    /// Worker → coordinator: local counts for the sum-reduction.
    Counts {
        /// Run tag.
        run_id: u64,
        /// Item universe size the triangle covers.
        num_items: u32,
        /// Flat local upper-triangular pair counts (`C(n,2)` cells).
        triangle: Vec<u32>,
        /// Local singleton counts (empty unless `FLAG_COUNT_ITEMS`).
        items: Vec<u32>,
    },
    /// Coordinator → worker: global `L2` and the exchange routing plan.
    Plan {
        /// Run tag.
        run_id: u64,
        /// Global frequent pairs, ascending; index = slot.
        l2: Vec<(u32, u32)>,
        /// `slot_owner[s]` = rank owning slot `s`'s class.
        slot_owner: Vec<u32>,
        /// Listen address of every worker, indexed by rank.
        peers: Vec<String>,
    },
    /// Worker → worker: partial tid-lists for slots the receiver owns.
    /// Sent to *every* peer (possibly with no entries) so owners can
    /// detect rank-completeness; tids are already globally offset.
    Partials {
        /// Run tag.
        run_id: u64,
        /// Sender's rank.
        from_rank: u32,
        /// `(slot, global tids)` pairs, slots ascending.
        entries: Vec<(u32, Vec<u32>)>,
    },
    /// Worker → worker: partials deposited.
    PartialsAck {
        /// Run tag.
        run_id: u64,
    },
    /// Worker → coordinator: exchange complete, local mining starting.
    /// Lets the coordinator split transform from async wall time without
    /// inserting a barrier — the worker mines on immediately (§5.3).
    ExchangeDone {
        /// Run tag.
        run_id: u64,
    },
    /// Worker → coordinator: the final reduction payload.
    Result {
        /// Run tag.
        run_id: u64,
        /// Sender's rank.
        rank: u32,
        /// Frequent itemsets mined from the owned classes.
        frequent: Vec<(Vec<u32>, u32)>,
        /// Measured per-worker statistics (boxed: the per-thread
        /// vectors make this by far the largest variant).
        stats: Box<WorkerStats>,
    },
    /// Either direction: the run is dead; `message` says why.
    Abort {
        /// Run tag (0 when the failure precedes run identification).
        run_id: u64,
        /// Rank of the reporting party (`u32::MAX` from the coordinator).
        rank: u32,
        /// Human-readable diagnostic.
        message: String,
    },
    /// Coordinator → worker: clean end of session.
    Goodbye {
        /// Run tag.
        run_id: u64,
    },
}

/// Pack the worker-relevant part of an [`EclatConfig`] for `Assign`.
/// `count_items` asks the worker to also count singletons locally.
pub fn encode_config(cfg: &EclatConfig, count_items: bool) -> (u8, u8, u32) {
    let mut flags = 0u8;
    if cfg.short_circuit {
        flags |= FLAG_SHORT_CIRCUIT;
    }
    if cfg.prune {
        flags |= FLAG_PRUNE;
    }
    if count_items {
        flags |= FLAG_COUNT_ITEMS;
    }
    if cfg.gallop {
        flags |= FLAG_GALLOP;
    }
    let (tag, depth) = match cfg.representation {
        Representation::TidList => (REPR_TIDLIST, 0),
        Representation::Diffset => (REPR_DIFFSET, 0),
        Representation::AutoSwitch { depth } => (REPR_AUTOSWITCH, depth),
        Representation::Bitmap => (REPR_BITMAP, 0),
        Representation::AutoDensity { permille } => (REPR_AUTODENSITY, permille),
    };
    (flags, tag, depth)
}

/// Rebuild the worker-side mining config from `Assign` fields. Returns
/// the config plus the `count_items` request. Singletons are always
/// inserted at the coordinator (it holds the summed global counts), so
/// the reconstructed config never sets `include_singletons`.
pub fn decode_config(
    flags: u8,
    repr_tag: u8,
    repr_depth: u32,
) -> Result<(EclatConfig, bool), DecodeError> {
    let representation = match repr_tag {
        REPR_TIDLIST => Representation::TidList,
        REPR_DIFFSET => Representation::Diffset,
        REPR_AUTOSWITCH => Representation::AutoSwitch { depth: repr_depth },
        REPR_BITMAP => Representation::Bitmap,
        REPR_AUTODENSITY => Representation::AutoDensity {
            permille: repr_depth,
        },
        other => return Err(DecodeError::BadOpcode(other)),
    };
    let cfg = EclatConfig {
        short_circuit: flags & FLAG_SHORT_CIRCUIT != 0,
        prune: flags & FLAG_PRUNE != 0,
        gallop: flags & FLAG_GALLOP != 0,
        representation,
        ..EclatConfig::default()
    };
    Ok((cfg, flags & FLAG_COUNT_ITEMS != 0))
}

fn put_f64_vec(buf: &mut Vec<u8>, v: &[f64]) {
    wire::put_u32(buf, v.len() as u32);
    for &x in v {
        wire::put_f64(buf, x);
    }
}

fn read_f64_vec(c: &mut Cursor<'_>) -> Result<Vec<f64>, DecodeError> {
    (0..c.u32()?).map(|_| c.f64()).collect()
}

fn put_meter(buf: &mut Vec<u8>, m: &OpMeter) {
    for v in [
        m.tid_cmp,
        m.hash_probe,
        m.pair_incr,
        m.subsets_gen,
        m.cand_gen,
        m.record,
    ] {
        wire::put_u64(buf, v);
    }
}

fn read_meter(c: &mut Cursor<'_>) -> Result<OpMeter, DecodeError> {
    Ok(OpMeter {
        tid_cmp: c.u64()?,
        hash_probe: c.u64()?,
        pair_incr: c.u64()?,
        subsets_gen: c.u64()?,
        cand_gen: c.u64()?,
        record: c.u64()?,
    })
}

fn put_class(buf: &mut Vec<u8>, cs: &ClassStats) {
    wire::put_u32_vec16(buf, &cs.prefix);
    wire::put_u64(buf, cs.members);
    let k = &cs.kernel;
    for v in [
        k.joins,
        k.frequent,
        k.infrequent,
        k.short_circuit_hits,
        k.peak_tid_bytes,
        k.switch_events,
    ] {
        wire::put_u64(buf, v);
    }
    wire::put_u32(buf, k.levels.len() as u32);
    for l in &k.levels {
        wire::put_u64(buf, l.size);
        wire::put_u64(buf, l.candidates);
        wire::put_u64(buf, l.frequent);
    }
}

fn read_class(c: &mut Cursor<'_>) -> Result<ClassStats, DecodeError> {
    let prefix = c.u32_vec16()?;
    let members = c.u64()?;
    let mut kernel = KernelStats {
        joins: c.u64()?,
        frequent: c.u64()?,
        infrequent: c.u64()?,
        short_circuit_hits: c.u64()?,
        peak_tid_bytes: c.u64()?,
        switch_events: c.u64()?,
        levels: Vec::new(),
    };
    for _ in 0..c.u32()? {
        kernel.levels.push(LevelCounts {
            size: c.u64()?,
            candidates: c.u64()?,
            frequent: c.u64()?,
        });
    }
    Ok(ClassStats {
        prefix,
        members,
        kernel,
    })
}

fn put_worker_stats(buf: &mut Vec<u8>, s: &WorkerStats) {
    wire::put_f64(buf, s.compute_secs);
    wire::put_f64(buf, s.net_secs);
    wire::put_f64(buf, s.idle_secs);
    wire::put_f64(buf, s.finish_secs);
    wire::put_u64(buf, s.bytes_sent);
    wire::put_u64(buf, s.bytes_received);
    wire::put_u32(buf, s.threads);
    put_f64_vec(buf, &s.thread_compute_secs);
    put_f64_vec(buf, &s.thread_disk_secs);
    wire::put_u64(buf, s.spill_bytes_written);
    wire::put_u64(buf, s.spill_bytes_read);
    put_meter(buf, &s.init_ops);
    put_meter(buf, &s.transform_ops);
    put_meter(buf, &s.async_ops);
    wire::put_u32(buf, s.classes.len() as u32);
    for cs in &s.classes {
        put_class(buf, cs);
    }
}

fn read_worker_stats(c: &mut Cursor<'_>) -> Result<WorkerStats, DecodeError> {
    let mut s = WorkerStats {
        compute_secs: c.f64()?,
        net_secs: c.f64()?,
        idle_secs: c.f64()?,
        finish_secs: c.f64()?,
        bytes_sent: c.u64()?,
        bytes_received: c.u64()?,
        threads: c.u32()?,
        thread_compute_secs: read_f64_vec(c)?,
        thread_disk_secs: read_f64_vec(c)?,
        spill_bytes_written: c.u64()?,
        spill_bytes_read: c.u64()?,
        init_ops: read_meter(c)?,
        transform_ops: read_meter(c)?,
        async_ops: read_meter(c)?,
        classes: Vec::new(),
    };
    for _ in 0..c.u32()? {
        s.classes.push(read_class(c)?);
    }
    Ok(s)
}

impl Message {
    /// The run tag this message carries (`Hello`'s tag included).
    pub fn run_id(&self) -> u64 {
        match self {
            Message::Hello { run_id, .. }
            | Message::HelloAck { run_id }
            | Message::Assign { run_id, .. }
            | Message::Counts { run_id, .. }
            | Message::Plan { run_id, .. }
            | Message::Partials { run_id, .. }
            | Message::PartialsAck { run_id }
            | Message::ExchangeDone { run_id }
            | Message::Result { run_id, .. }
            | Message::Abort { run_id, .. }
            | Message::Goodbye { run_id } => *run_id,
        }
    }

    /// Short human label, for diagnostics.
    pub fn label(&self) -> &'static str {
        match self {
            Message::Hello { .. } => "Hello",
            Message::HelloAck { .. } => "HelloAck",
            Message::Assign { .. } => "Assign",
            Message::Counts { .. } => "Counts",
            Message::Plan { .. } => "Plan",
            Message::Partials { .. } => "Partials",
            Message::PartialsAck { .. } => "PartialsAck",
            Message::ExchangeDone { .. } => "ExchangeDone",
            Message::Result { .. } => "Result",
            Message::Abort { .. } => "Abort",
            Message::Goodbye { .. } => "Goodbye",
        }
    }

    /// Encode to one frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        match self {
            Message::Hello {
                version,
                run_id,
                rank,
                num_workers,
            } => {
                buf.push(OP_HELLO);
                wire::put_u32(&mut buf, *version);
                wire::put_u64(&mut buf, *run_id);
                wire::put_u32(&mut buf, *rank);
                wire::put_u32(&mut buf, *num_workers);
            }
            Message::HelloAck { run_id } => {
                buf.push(OP_HELLO_ACK);
                wire::put_u64(&mut buf, *run_id);
            }
            Message::Assign {
                run_id,
                threshold,
                tid_offset,
                flags,
                repr_tag,
                repr_depth,
                block,
            } => {
                buf.push(OP_ASSIGN);
                wire::put_u64(&mut buf, *run_id);
                wire::put_u32(&mut buf, *threshold);
                wire::put_u32(&mut buf, *tid_offset);
                buf.push(*flags);
                buf.push(*repr_tag);
                wire::put_u32(&mut buf, *repr_depth);
                wire::put_u32(&mut buf, block.len() as u32);
                buf.extend_from_slice(block);
            }
            Message::Counts {
                run_id,
                num_items,
                triangle,
                items,
            } => {
                buf.push(OP_COUNTS);
                wire::put_u64(&mut buf, *run_id);
                wire::put_u32(&mut buf, *num_items);
                wire::put_u32_vec(&mut buf, triangle);
                wire::put_u32_vec(&mut buf, items);
            }
            Message::Plan {
                run_id,
                l2,
                slot_owner,
                peers,
            } => {
                buf.push(OP_PLAN);
                wire::put_u64(&mut buf, *run_id);
                wire::put_u32(&mut buf, l2.len() as u32);
                for &(a, b) in l2 {
                    wire::put_u32(&mut buf, a);
                    wire::put_u32(&mut buf, b);
                }
                wire::put_u32_vec(&mut buf, slot_owner);
                wire::put_u32(&mut buf, peers.len() as u32);
                for p in peers {
                    wire::put_str16(&mut buf, p);
                }
            }
            Message::Partials {
                run_id,
                from_rank,
                entries,
            } => {
                buf.push(OP_PARTIALS);
                wire::put_u64(&mut buf, *run_id);
                wire::put_u32(&mut buf, *from_rank);
                wire::put_u32(&mut buf, entries.len() as u32);
                for (slot, tids) in entries {
                    wire::put_u32(&mut buf, *slot);
                    wire::put_u32_vec(&mut buf, tids);
                }
            }
            Message::PartialsAck { run_id } => {
                buf.push(OP_PARTIALS_ACK);
                wire::put_u64(&mut buf, *run_id);
            }
            Message::ExchangeDone { run_id } => {
                buf.push(OP_EXCHANGE_DONE);
                wire::put_u64(&mut buf, *run_id);
            }
            Message::Result {
                run_id,
                rank,
                frequent,
                stats,
            } => {
                buf.push(OP_RESULT);
                wire::put_u64(&mut buf, *run_id);
                wire::put_u32(&mut buf, *rank);
                wire::put_u32(&mut buf, frequent.len() as u32);
                for (items, support) in frequent {
                    wire::put_u32_vec16(&mut buf, items);
                    wire::put_u32(&mut buf, *support);
                }
                put_worker_stats(&mut buf, stats);
            }
            Message::Abort {
                run_id,
                rank,
                message,
            } => {
                buf.push(OP_ABORT);
                wire::put_u64(&mut buf, *run_id);
                wire::put_u32(&mut buf, *rank);
                wire::put_str16(&mut buf, message);
            }
            Message::Goodbye { run_id } => {
                buf.push(OP_GOODBYE);
                wire::put_u64(&mut buf, *run_id);
            }
        }
        buf
    }

    /// Decode one frame payload, strictly.
    pub fn decode(payload: &[u8]) -> Result<Message, DecodeError> {
        let mut c = Cursor::new(payload);
        let op = c.u8()?;
        let msg = match op {
            OP_HELLO => Message::Hello {
                version: c.u32()?,
                run_id: c.u64()?,
                rank: c.u32()?,
                num_workers: c.u32()?,
            },
            OP_HELLO_ACK => Message::HelloAck { run_id: c.u64()? },
            OP_ASSIGN => {
                let run_id = c.u64()?;
                let threshold = c.u32()?;
                let tid_offset = c.u32()?;
                let flags = c.u8()?;
                let repr_tag = c.u8()?;
                let repr_depth = c.u32()?;
                let blen = c.u32()? as usize;
                let block = c.take(blen)?.to_vec();
                Message::Assign {
                    run_id,
                    threshold,
                    tid_offset,
                    flags,
                    repr_tag,
                    repr_depth,
                    block,
                }
            }
            OP_COUNTS => Message::Counts {
                run_id: c.u64()?,
                num_items: c.u32()?,
                triangle: c.u32_vec()?,
                items: c.u32_vec()?,
            },
            OP_PLAN => {
                let run_id = c.u64()?;
                let mut l2 = Vec::new();
                for _ in 0..c.u32()? {
                    l2.push((c.u32()?, c.u32()?));
                }
                let slot_owner = c.u32_vec()?;
                let mut peers = Vec::new();
                for _ in 0..c.u32()? {
                    peers.push(c.str16()?);
                }
                Message::Plan {
                    run_id,
                    l2,
                    slot_owner,
                    peers,
                }
            }
            OP_PARTIALS => {
                let run_id = c.u64()?;
                let from_rank = c.u32()?;
                let mut entries = Vec::new();
                for _ in 0..c.u32()? {
                    entries.push((c.u32()?, c.u32_vec()?));
                }
                Message::Partials {
                    run_id,
                    from_rank,
                    entries,
                }
            }
            OP_PARTIALS_ACK => Message::PartialsAck { run_id: c.u64()? },
            OP_EXCHANGE_DONE => Message::ExchangeDone { run_id: c.u64()? },
            OP_RESULT => {
                let run_id = c.u64()?;
                let rank = c.u32()?;
                let mut frequent = Vec::new();
                for _ in 0..c.u32()? {
                    frequent.push((c.u32_vec16()?, c.u32()?));
                }
                let stats = Box::new(read_worker_stats(&mut c)?);
                Message::Result {
                    run_id,
                    rank,
                    frequent,
                    stats,
                }
            }
            OP_ABORT => Message::Abort {
                run_id: c.u64()?,
                rank: c.u32()?,
                message: c.str16()?,
            },
            OP_GOODBYE => Message::Goodbye { run_id: c.u64()? },
            other => return Err(DecodeError::BadOpcode(other)),
        };
        c.finish()?;
        Ok(msg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(msg: Message) {
        let bytes = msg.encode();
        assert_eq!(Message::decode(&bytes).unwrap(), msg, "{}", msg.label());
    }

    #[test]
    fn every_message_round_trips() {
        roundtrip(Message::Hello {
            version: PROTOCOL_VERSION,
            run_id: 0xDEAD_BEEF_0042,
            rank: 3,
            num_workers: 8,
        });
        roundtrip(Message::HelloAck { run_id: 7 });
        roundtrip(Message::Assign {
            run_id: 7,
            threshold: 12,
            tid_offset: 1000,
            flags: FLAG_SHORT_CIRCUIT | FLAG_COUNT_ITEMS,
            repr_tag: REPR_AUTOSWITCH,
            repr_depth: 3,
            block: vec![1, 2, 3, 4, 5],
        });
        roundtrip(Message::Counts {
            run_id: 7,
            num_items: 4,
            triangle: vec![0, 5, 2, 9, 0, 1],
            items: vec![],
        });
        roundtrip(Message::Plan {
            run_id: 7,
            l2: vec![(0, 1), (0, 3), (2, 3)],
            slot_owner: vec![0, 0, 1],
            peers: vec!["127.0.0.1:4000".into(), "127.0.0.1:4001".into()],
        });
        roundtrip(Message::Partials {
            run_id: 7,
            from_rank: 1,
            entries: vec![(0, vec![10, 11, 19]), (2, vec![])],
        });
        roundtrip(Message::PartialsAck { run_id: 7 });
        roundtrip(Message::ExchangeDone { run_id: 7 });
        roundtrip(Message::Result {
            run_id: 7,
            rank: 2,
            frequent: vec![(vec![0, 1], 9), (vec![0, 1, 3], 5)],
            stats: Box::new(WorkerStats {
                compute_secs: 0.25,
                net_secs: 0.5,
                idle_secs: 0.125,
                finish_secs: 1.0,
                bytes_sent: 1234,
                bytes_received: 5678,
                threads: 2,
                thread_compute_secs: vec![0.125, 0.0625],
                thread_disk_secs: vec![0.03125, 0.0],
                spill_bytes_written: 4096,
                spill_bytes_read: 4096,
                init_ops: OpMeter {
                    pair_incr: 42,
                    ..OpMeter::new()
                },
                transform_ops: OpMeter::new(),
                async_ops: OpMeter {
                    tid_cmp: 99,
                    ..OpMeter::new()
                },
                classes: vec![ClassStats {
                    prefix: vec![0],
                    members: 2,
                    kernel: KernelStats {
                        joins: 1,
                        frequent: 1,
                        levels: vec![LevelCounts {
                            size: 3,
                            candidates: 1,
                            frequent: 1,
                        }],
                        ..KernelStats::new()
                    },
                }],
            }),
        });
        roundtrip(Message::Abort {
            run_id: 7,
            rank: u32::MAX,
            message: "worker 3 died mid-exchange".into(),
        });
        roundtrip(Message::Goodbye { run_id: 7 });
    }

    #[test]
    fn strict_decoding_rejects_garbage() {
        assert_eq!(Message::decode(&[]), Err(DecodeError::Truncated));
        assert_eq!(Message::decode(&[0x42]), Err(DecodeError::BadOpcode(0x42)));
        let mut ok = Message::Goodbye { run_id: 1 }.encode();
        ok.push(0);
        assert_eq!(Message::decode(&ok), Err(DecodeError::TrailingBytes(1)));
        let short = &Message::HelloAck { run_id: 1 }.encode()[..4];
        assert_eq!(Message::decode(short), Err(DecodeError::Truncated));
    }

    #[test]
    fn config_round_trips_through_flags() {
        for repr in [
            Representation::TidList,
            Representation::Diffset,
            Representation::AutoSwitch { depth: 4 },
            Representation::Bitmap,
            Representation::AutoDensity { permille: 8 },
        ] {
            let cfg = EclatConfig {
                prune: true,
                gallop: true,
                ..EclatConfig::with_representation(repr)
            };
            let (flags, tag, depth) = encode_config(&cfg, true);
            let (back, count_items) = decode_config(flags, tag, depth).unwrap();
            assert!(count_items);
            assert_eq!(back.representation, cfg.representation);
            assert_eq!(back.short_circuit, cfg.short_circuit);
            assert_eq!(back.prune, cfg.prune);
            assert_eq!(back.gallop, cfg.gallop);
            assert!(!back.include_singletons, "singletons stay coordinator-side");
        }
        assert!(decode_config(0, 9, 0).is_err());
    }
}
