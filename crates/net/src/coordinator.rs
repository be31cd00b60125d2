//! The coordinator: drives the paper's four phases over real sockets.
//!
//! [`mine_distributed`] is the TCP counterpart of the Memory Channel
//! simulation in `eclat::cluster::mine_cluster` — same phases, same
//! schedule, same §6.3 offset-placement exchange, but every collective
//! is a real message:
//!
//! | Memory Channel primitive | TCP counterpart                          |
//! |--------------------------|------------------------------------------|
//! | sum-reduction of L2      | workers send `Counts`; coordinator merges |
//! | schedule broadcast       | `Plan` to every worker                   |
//! | lock-step exchange       | worker↔worker `Partials` streams         |
//! | final reduction          | workers send `Result`; coordinator merges |
//!
//! Failure policy: any worker that dies, stalls past a deadline, or
//! violates the protocol aborts the whole run — the coordinator sends
//! `Abort` to the survivors (so their sessions unwind instead of
//! hanging) and returns the diagnostic to the caller.

use crate::proto::{encode_config, Message, WorkerStats, MAX_NET_FRAME, PROTOCOL_VERSION};
use crate::NetError;
use dbstore::{binfmt, BlockPartition, HorizontalDb};
use eclat::schedule::schedule_l2;
use eclat::EclatConfig;
use mining_types::stats::{ClusterStats, MiningStats, ProcStats};
use mining_types::{FrequentSet, ItemId, Itemset, MinSupport, OpMeter, TriangleMatrix};
use std::net::TcpStream;
use std::time::{Duration, SystemTime, UNIX_EPOCH};
use wire::{read_frame, write_frame, Frame};

/// Stats-report variant label of real distributed runs.
pub const VARIANT_DIST: &str = "dist";

/// Coordinator knobs.
#[derive(Clone, Debug)]
pub struct DistConfig {
    /// The mining configuration every worker runs with.
    pub cfg: EclatConfig,
    /// Connect attempts (beyond the first) per worker.
    pub connect_retries: u32,
    /// Initial backoff between connect attempts (doubles each try).
    pub connect_backoff: Duration,
    /// Per-socket read/write deadline. Bounds how long any single wait
    /// for a worker frame may take before the run is aborted.
    pub io_timeout: Duration,
    /// Override the run tag (tests); `None` mints one from the clock
    /// and pid so concurrent runs on a shared fleet stay distinct.
    pub run_id: Option<u64>,
}

impl Default for DistConfig {
    fn default() -> Self {
        DistConfig {
            cfg: EclatConfig::default(),
            connect_retries: 10,
            connect_backoff: Duration::from_millis(50),
            io_timeout: Duration::from_secs(120),
            run_id: None,
        }
    }
}

/// Result of a distributed run.
#[derive(Clone, Debug)]
pub struct DistReport {
    /// The mined frequent itemsets (identical to sequential Eclat's).
    pub frequent: FrequentSet,
    /// Structured stats: measured phases, per-class kernel work, and a
    /// per-worker `cluster` section in the simulator's schema.
    pub stats: MiningStats,
    /// Number of frequent 2-itemsets (the scheduling input size).
    pub num_l2: usize,
    /// Cluster size.
    pub num_workers: usize,
    /// Bytes of evicted classes the workers wrote to their spill stores
    /// (zero unless a worker ran under a memory budget it exceeded).
    pub spill_bytes_written: u64,
    /// Bytes of spilled classes the workers faulted back in.
    pub spill_bytes_read: u64,
}

struct WorkerConn {
    rank: u32,
    addr: String,
    stream: TcpStream,
}

impl WorkerConn {
    fn send(&mut self, msg: &Message) -> Result<(), NetError> {
        write_frame(&mut self.stream, &msg.encode()).map_err(|e| NetError::Worker {
            rank: self.rank,
            message: format!("send to {} failed: {e}", self.addr),
        })
    }

    /// Read the next frame; a worker-side `Abort` becomes an error, and
    /// so do closes, timeouts, and run-id mismatches.
    fn recv(&mut self, expecting: &str) -> Result<Message, NetError> {
        let frame = read_frame(&mut self.stream, MAX_NET_FRAME).map_err(|e| {
            let verb = if wire::is_timeout(&e) {
                "stalled"
            } else {
                "died"
            };
            NetError::Worker {
                rank: self.rank,
                message: format!(
                    "worker {} ({}) {verb} while coordinator expected {expecting}: {e}",
                    self.rank, self.addr
                ),
            }
        })?;
        let payload = match frame {
            Frame::Payload(p) => p,
            Frame::Eof => {
                return Err(NetError::Worker {
                    rank: self.rank,
                    message: format!(
                    "worker {} ({}) closed its connection while coordinator expected {expecting}",
                    self.rank, self.addr
                ),
                })
            }
            Frame::TooLarge(n) => {
                return Err(NetError::Worker {
                    rank: self.rank,
                    message: format!(
                        "worker {} sent a {n}-byte frame (limit {MAX_NET_FRAME})",
                        self.rank
                    ),
                })
            }
        };
        let msg = Message::decode(&payload)?;
        if let Message::Abort { rank, message, .. } = msg {
            return Err(NetError::Worker { rank, message });
        }
        Ok(msg)
    }
}

/// Best-effort `Abort` to every worker so their sessions unwind.
fn abort_all(conns: &mut [WorkerConn], run_id: u64, message: &str) {
    for c in conns.iter_mut() {
        let _ = c.send(&Message::Abort {
            run_id,
            rank: u32::MAX,
            message: message.to_string(),
        });
    }
}

fn mint_run_id() -> u64 {
    let nanos = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0);
    nanos ^ ((std::process::id() as u64) << 48)
}

/// Mine `db` across the workers listening at `workers`, coordinating
/// the four phases of the paper over TCP. The frequent set is exactly
/// the sequential miner's for any worker count and partition.
///
/// # Errors
/// Connection failures, protocol violations, and worker deaths abort
/// the run: survivors get an `Abort` and the diagnostic is returned.
///
/// # Panics
/// Panics if `workers` is empty.
pub fn mine_distributed(
    db: &HorizontalDb,
    minsup: MinSupport,
    workers: &[String],
    dist: &DistConfig,
) -> Result<DistReport, NetError> {
    assert!(!workers.is_empty(), "need at least one worker address");
    let num_workers = workers.len();
    let threshold = minsup.count_threshold(db.num_transactions());
    let run_id = dist.run_id.unwrap_or_else(mint_run_id);
    // Tag this process's trace events with the run and the coordinator
    // pseudo-rank so per-process trace files merge into one timeline.
    eclat_obs::trace::set_identity(run_id, eclat_obs::trace::COORDINATOR_RANK);
    eclat_obs::log_info!(
        "eclat-net",
        "run {run_id:#x}: coordinating {num_workers} worker(s)"
    );

    let mut stats = MiningStats::new("eclat", VARIANT_DIST, &dist.cfg.representation.to_string());
    stats.transactions = db.num_transactions() as u64;
    stats.threshold = u64::from(threshold);

    // ---- Handshake: connect and version-check every worker.
    let mut conns: Vec<WorkerConn> = Vec::with_capacity(num_workers);
    for (rank, addr) in workers.iter().enumerate() {
        let stream = wire::connect_retry(addr.as_str(), dist.connect_retries, dist.connect_backoff)
            .map_err(|e| NetError::Worker {
                rank: rank as u32,
                message: format!("cannot connect to worker {rank} at {addr}: {e}"),
            })?;
        wire::set_timeouts(&stream, Some(dist.io_timeout), Some(dist.io_timeout))?;
        eclat_obs::log_debug!(
            "eclat-net",
            "run {run_id:#x}: connected to worker {rank} at {addr}"
        );
        conns.push(WorkerConn {
            rank: rank as u32,
            addr: addr.clone(),
            stream,
        });
    }
    match drive(db, threshold, run_id, dist, &mut conns, &mut stats) {
        Ok((frequent, num_l2, spill_bytes_written, spill_bytes_read)) => {
            for c in conns.iter_mut() {
                let _ = c.send(&Message::Goodbye { run_id });
            }
            Ok(DistReport {
                frequent,
                stats,
                num_l2,
                num_workers,
                spill_bytes_written,
                spill_bytes_read,
            })
        }
        Err(e) => {
            eclat_obs::log_error!("eclat-net", "run {run_id:#x}: aborting all workers: {e}");
            abort_all(&mut conns, run_id, &e.to_string());
            Err(e)
        }
    }
}

/// The phase engine, separated so any error path aborts all workers.
fn drive(
    db: &HorizontalDb,
    threshold: u32,
    run_id: u64,
    dist: &DistConfig,
    conns: &mut [WorkerConn],
    stats: &mut MiningStats,
) -> Result<(FrequentSet, usize, u64, u64), NetError> {
    let num_workers = conns.len();
    for c in conns.iter_mut() {
        c.send(&Message::Hello {
            version: PROTOCOL_VERSION,
            run_id,
            rank: c.rank,
            num_workers: num_workers as u32,
        })?;
    }
    for c in conns.iter_mut() {
        match c.recv("HelloAck")? {
            Message::HelloAck { run_id: r } if r == run_id => {}
            other => {
                return Err(NetError::Protocol(format!(
                    "worker {} answered {} to Hello",
                    c.rank,
                    other.label()
                )))
            }
        }
    }

    // ---- Initialization (§5.1): ship blocks, sum-reduce local counts.
    let span = eclat_obs::trace::span(crate::PHASE_INIT);
    let partition = BlockPartition::equal_blocks(db.num_transactions(), num_workers);
    let (flags, repr_tag, repr_depth) = encode_config(&dist.cfg, dist.cfg.include_singletons);
    for c in conns.iter_mut() {
        let range = partition.block(c.rank as usize);
        let block_db = HorizontalDb::from_transactions(
            db.iter_range(range.clone())
                .map(|(_, items)| items.to_vec())
                .collect(),
        )
        .with_num_items(db.num_items());
        let mut block = Vec::new();
        binfmt::write_horizontal(&block_db, &mut block)?;
        c.send(&Message::Assign {
            run_id,
            threshold,
            tid_offset: range.start as u32,
            flags,
            repr_tag,
            repr_depth,
            block,
        })?;
    }
    let n = db.num_items() as usize;
    let mut tri = TriangleMatrix::new(n);
    let mut item_counts = vec![0u64; if dist.cfg.include_singletons { n } else { 0 }];
    for c in conns.iter_mut() {
        match c.recv("Counts")? {
            Message::Counts {
                num_items,
                triangle,
                items,
                ..
            } => {
                if num_items as usize != n || triangle.len() != tri.cells() {
                    return Err(NetError::Protocol(format!(
                        "worker {} counted {} items / {} cells, expected {} / {}",
                        c.rank,
                        num_items,
                        triangle.len(),
                        n,
                        tri.cells()
                    )));
                }
                tri.merge_from(&TriangleMatrix::from_raw(n, triangle));
                for (acc, &x) in item_counts.iter_mut().zip(&items) {
                    *acc += u64::from(x);
                }
            }
            other => {
                return Err(NetError::Protocol(format!(
                    "worker {} sent {} where Counts was expected",
                    c.rank,
                    other.label()
                )))
            }
        }
    }

    let l2: Vec<(ItemId, ItemId, u32)> = tri.frequent_pairs(threshold).collect();
    let num_l2 = l2.len();
    stats.record_level(2, tri.cells() as u64, num_l2 as u64);
    let mut out = FrequentSet::new();
    if dist.cfg.include_singletons {
        let mut frequent_items = 0u64;
        for (i, &c) in item_counts.iter().enumerate() {
            if c >= u64::from(threshold) {
                out.insert(Itemset::single(ItemId(i as u32)), c as u32);
                frequent_items += 1;
            }
        }
        stats.record_level(1, item_counts.len() as u64, frequent_items);
    }
    let init_secs = span.finish();
    eclat_obs::log_info!(
        "eclat-net",
        "run {run_id:#x}: L2 reduced to {num_l2} frequent pairs"
    );

    if l2.is_empty() {
        // Nothing to schedule: the run ends after the sum-reduction.
        for c in conns.iter_mut() {
            c.send(&Message::Goodbye { run_id })?;
        }
        // The workers' init meters never come back: they only report
        // with their results.
        stats.push_phase(crate::PHASE_INIT, init_secs, OpMeter::new());
        stats.num_frequent = out.len() as u64;
        stats.cluster = Some(ClusterStats {
            total_secs: init_secs,
            load_imbalance: 1.0,
            procs: (0..num_workers as u64)
                .map(|p| ProcStats {
                    proc: p,
                    ..ProcStats::default()
                })
                .collect(),
        });
        return Ok((out, 0, 0, 0));
    }

    // ---- Transformation (§5.2.1 + §6.3): broadcast the schedule, let
    // the workers run the all-to-all partial tid-list exchange.
    let span = eclat_obs::trace::span(crate::PHASE_TRANSFORM);
    let plan = schedule_l2(&l2, num_workers, dist.cfg.heuristic);
    let slot_owner: Vec<u32> = plan.slot_owner.iter().map(|&p| p as u32).collect();
    let l2_pairs: Vec<(u32, u32)> = l2.iter().map(|&(a, b, _)| (a.0, b.0)).collect();
    let peers: Vec<String> = conns.iter().map(|c| c.addr.clone()).collect();
    for c in conns.iter_mut() {
        c.send(&Message::Plan {
            run_id,
            l2: l2_pairs.clone(),
            slot_owner: slot_owner.clone(),
            peers: peers.clone(),
        })?;
    }
    for c in conns.iter_mut() {
        match c.recv("ExchangeDone")? {
            Message::ExchangeDone { .. } => {}
            other => {
                return Err(NetError::Protocol(format!(
                    "worker {} sent {} where ExchangeDone was expected",
                    c.rank,
                    other.label()
                )))
            }
        }
    }
    let transform_secs = span.finish();

    // ---- Asynchronous phase (§5.3) + final reduction.
    let span = eclat_obs::trace::span(crate::PHASE_ASYNC);
    let mut worker_stats: Vec<WorkerStats> = Vec::with_capacity(num_workers);
    for c in conns.iter_mut() {
        match c.recv("Result")? {
            Message::Result {
                rank,
                frequent,
                stats: ws,
                ..
            } => {
                if rank != c.rank {
                    return Err(NetError::Protocol(format!(
                        "result from rank {rank} arrived on worker {}'s connection",
                        c.rank
                    )));
                }
                for (items, support) in frequent {
                    out.insert(Itemset::of(&items), support);
                }
                worker_stats.push(*ws);
            }
            other => {
                return Err(NetError::Protocol(format!(
                    "worker {} sent {} where Result was expected",
                    c.rank,
                    other.label()
                )))
            }
        }
    }
    let async_secs = span.finish();

    // ---- Stats assembly: measured wall clock per phase, worker meters
    // summed so op counts match the sequential/simulated reports.
    let span = eclat_obs::trace::span(crate::PHASE_REDUCE);
    let mut init_ops = OpMeter::new();
    let mut transform_ops = OpMeter::new();
    let mut async_ops = OpMeter::new();
    for ws in &worker_stats {
        init_ops.merge(&ws.init_ops);
        transform_ops.merge(&ws.transform_ops);
        async_ops.merge(&ws.async_ops);
        for cs in &ws.classes {
            stats.add_class(cs.clone());
        }
    }
    stats.sort_classes();
    stats.push_phase(crate::PHASE_INIT, init_secs, init_ops);
    stats.push_phase(crate::PHASE_TRANSFORM, transform_secs, transform_ops);
    stats.push_phase(crate::PHASE_ASYNC, async_secs, async_ops);

    // One ProcStats row per worker *thread* — the measured counterpart
    // of the simulator's H×P processor rows. Thread 0 is the session
    // thread: it carries the serial-phase compute, all socket time, and
    // the byte counters; every thread carries its own async-mining and
    // spill-fault time. Idle is *derived* per row as wall minus busy
    // (clamped at zero) — summing P threads' compute into one row made
    // the old measured idle go negative as soon as P > 1.
    let mut procs: Vec<ProcStats> = Vec::new();
    for ws in &worker_stats {
        let p = ws.threads.max(1) as usize;
        for t in 0..p {
            let thread_compute = ws.thread_compute_secs.get(t).copied().unwrap_or(0.0);
            let compute = if t == 0 {
                ws.compute_secs + thread_compute
            } else {
                thread_compute
            };
            let disk = ws.thread_disk_secs.get(t).copied().unwrap_or(0.0);
            let net = if t == 0 { ws.net_secs } else { 0.0 };
            let idle = (ws.finish_secs - compute - disk - net).max(0.0);
            procs.push(ProcStats {
                proc: procs.len() as u64,
                compute_secs: compute,
                disk_secs: disk,
                net_secs: net,
                idle_secs: idle,
                finish_secs: ws.finish_secs,
                bytes_sent: if t == 0 { ws.bytes_sent } else { 0 },
                bytes_received: if t == 0 { ws.bytes_received } else { 0 },
            });
        }
    }
    // Busy = compute + disk + net, the simulator's load-imbalance base.
    let busy: Vec<f64> = procs
        .iter()
        .map(|p| p.compute_secs + p.disk_secs + p.net_secs)
        .collect();
    let mean_busy = busy.iter().sum::<f64>() / busy.len() as f64;
    let max_busy = busy.iter().cloned().fold(0.0, f64::max);
    stats.cluster = Some(ClusterStats {
        total_secs: procs.iter().map(|p| p.finish_secs).fold(0.0, f64::max),
        load_imbalance: if mean_busy > 0.0 {
            max_busy / mean_busy
        } else {
            1.0
        },
        procs,
    });

    stats.num_frequent = out.len() as u64;
    stats.push_phase(crate::PHASE_REDUCE, span.finish(), OpMeter::new());
    let spill_written = worker_stats.iter().map(|w| w.spill_bytes_written).sum();
    let spill_read = worker_stats.iter().map(|w| w.spill_bytes_read).sum();
    Ok((out, num_l2, spill_written, spill_read))
}
