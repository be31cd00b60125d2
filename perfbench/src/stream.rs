//! The `stream` workload.
//!
//! A 200 K-transaction T10.I6 stream at 0.5 % support and confidence 0.5.
//! Setup ingests the first 100 K transactions (the last 100 of them as
//! the untimed warm-up operation); the other 100 K replay as a fixed list
//! of 1 000 batches of 100. One operation is what `eclat stream --out`
//! does per batch: `StreamEngine::ingest_batch(batch, &Serial)`, then
//! `MinedState::to_snapshot` and `binfmt::write_results`. The encoded
//! snapshot goes to a reused in-memory buffer, not to a file: renaming a
//! fresh file over the last one makes ext4 flush it to disk, and on a
//! shared virtual disk that flush, not the program, sets the tail.
//!
//! Batch cost grows with |D|, so the replay is never cut short: the timed
//! loop runs whole replays, and starts another only if one more replay as
//! long as the last still ends within `--seconds`. A run therefore times
//! at least one replay and never overshoots by a whole one.

use crate::input;
use crate::report::{median, peak_rss_mib, percentile, reset_peak_rss, Report};
use crate::trace::Tracer;
use crate::Paths;
use dbstore::{binfmt, HorizontalDb};
use eclat::pipeline::Serial;
use eclat::EclatConfig;
use eclat_stream::{BatchStats, MinedState, StreamEngine};
use mining_types::{ItemId, MinSupport};
use questgen::QuestParams;
use std::fs::File;
use std::io::{self, BufReader, BufWriter, Write};
use std::time::{Duration, Instant};

const TRANSACTIONS: usize = 200_000;
const PREFIX: usize = 100_000;
const BATCH: usize = 100;
const CONFIDENCE: f64 = 0.5;
/// Pattern-table seed. A batch's cost follows the rule count, which
/// depends on the table: over tables 1..=40 it ranged from 0.3 K to 1.7 M
/// rules, and on some tables it swung 2-100x between transaction seeds.
/// This table's count is steady (17.1 K rules ± 0.5 % over four seeds)
/// and near the size the workload was set for: ≈ 30 ms batches with rule
/// regeneration about half of each. `eclat generate`'s default table
/// gives 35-41 K rules and ≈ 68 ms batches, 70 s per replay.
const TABLE_SEED: u64 = 29;
/// Replayed batches after which the engine state must equal a full
/// re-mine of the prefix (checked outside the timed region).
const CHECKPOINTS: [usize; 5] = [0, 250, 500, 750, 1000];
/// Times the whole setup is repeated in an untraced run; `setup_s` is
/// the median.
const SETUP_REPEATS: usize = 5;

fn minsup() -> MinSupport {
    MinSupport::from_percent(0.5)
}

/// Encode `engine`'s state as `eclat stream --out` does, into `buf`
/// (cleared first). Returns the bytes written.
fn encode_snapshot(engine: &StreamEngine, buf: &mut Vec<u8>) -> io::Result<u64> {
    buf.clear();
    let bytes = binfmt::write_results(&engine.state().to_snapshot(), buf)?;
    std::hint::black_box(buf.as_slice());
    Ok(bytes)
}

/// The per-batch invariants `BatchStats` must keep.
fn batch_ok(stats: &BatchStats) -> bool {
    stats.classes_dirty <= stats.dirty_bound && stats.generation == stats.batch + 1
}

/// One untraced operation.
fn operation(
    engine: &mut StreamEngine,
    batch: &[Vec<ItemId>],
    snapshot: &mut Vec<u8>,
) -> io::Result<BatchStats> {
    let stats = engine.ingest_batch(batch, &Serial);
    encode_snapshot(engine, snapshot)?;
    Ok(stats)
}

/// The engine state must equal a full re-mine of the `n`-transaction
/// prefix.
fn matches_full_mine(engine: &StreamEngine, transactions: &[Vec<ItemId>]) -> bool {
    let prefix = HorizontalDb::from_transactions(transactions.to_vec());
    let full = MinedState::full_mine(&prefix, minsup(), CONFIDENCE, &EclatConfig::default());
    let state = engine.state();
    state.num_transactions == full.num_transactions
        && state.threshold == full.threshold
        && state.frequent == full.frequent
        && state.rules == full.rules
}

/// Generate the stream, write it, load it back as `eclat stream --input`
/// does, and ingest the first 100 K transactions.
fn generate(seed: u64, paths: &Paths) -> io::Result<Vec<Vec<ItemId>>> {
    let params = QuestParams::t10_i6(TRANSACTIONS);
    let db = HorizontalDb::from_transactions(input::transactions(&params, TABLE_SEED, seed));
    let mut w = BufWriter::new(File::create(&paths.input)?);
    binfmt::write_horizontal(&db, &mut w)?;
    w.flush()?;
    drop((w, db));
    let (db, _) = binfmt::read_horizontal(&mut BufReader::new(File::open(&paths.input)?))?;
    Ok(db.iter().map(|(_, t)| t.to_vec()).collect())
}

/// A fresh engine with the first 100 K transactions ingested; the last
/// batch of them is the checked warm-up operation.
fn prime(
    transactions: &[Vec<ItemId>],
    snapshot: &mut Vec<u8>,
    report: &mut Report,
) -> io::Result<StreamEngine> {
    let num_items = transactions
        .iter()
        .flat_map(|t| t.iter().map(|i| i.0 + 1))
        .max()
        .unwrap_or(0);
    let mut engine = StreamEngine::new(num_items, minsup(), CONFIDENCE, EclatConfig::default());
    report.check(
        batch_ok(&engine.ingest_batch(&transactions[..PREFIX - BATCH], &Serial)),
        "prefix batch invariants",
    );
    let warm = operation(&mut engine, &transactions[PREFIX - BATCH..PREFIX], snapshot)?;
    report.check(batch_ok(&warm), "warm-up batch invariants");
    Ok(engine)
}

/// Run the stream workload; `trace` selects the traced run.
pub fn run(seed: u64, seconds: f64, trace: bool, paths: &Paths) -> io::Result<Report> {
    let mut report = Report::new();
    let mut setups = Vec::new();
    let mut transactions = Vec::new();
    let mut engine = None;
    let mut snapshot = Vec::new();
    for _ in 0..if trace { 1 } else { SETUP_REPEATS } {
        drop(engine.take());
        let t = Instant::now();
        transactions = generate(seed, paths)?;
        engine = Some(prime(&transactions, &mut snapshot, &mut report)?);
        setups.push(t.elapsed().as_secs_f64());
    }
    let mut engine = engine.expect("at least one setup");

    let mut replay = Replay {
        transactions: &transactions,
        snapshot,
        tracer: trace.then(Tracer::new),
        latencies: Vec::new(),
        peaks: Vec::new(),
        traced: Vec::new(),
        report,
    };
    replay.report.check(reset_peak_rss(), "peak RSS reset");
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut replays = 1;
    let mut t = Instant::now();
    replay.run(&mut engine);
    while Instant::now() + t.elapsed() <= deadline {
        engine = prime(&transactions, &mut replay.snapshot, &mut replay.report)?;
        t = Instant::now();
        replay.run(&mut engine);
        replays += 1;
    }
    let Replay {
        tracer,
        latencies,
        peaks,
        traced,
        mut report,
        ..
    } = replay;
    report.notes.push(format!(
        "replays: {replays} x {} batches of {BATCH}; {} frequent itemsets, {} rules at the end",
        (TRANSACTIONS - PREFIX) / BATCH,
        engine.state().frequent.len(),
        engine.state().rules.len()
    ));

    if let Some(tracer) = tracer {
        traced_metrics(&tracer, &latencies, &traced, &mut report);
        tracer.write_jsonl(&paths.spans)?;
        report
            .notes
            .push(format!("spans: {}", paths.spans.display()));
    } else {
        let timed: f64 = latencies.iter().sum();
        report
            .notes
            .push(format!("timed operations: {}", latencies.len()));
        report.set("setup_s", median(&setups));
        report.set("p50_ms", median(&latencies) * 1e3);
        report.set("p99_ms", percentile(&latencies, 99.0) * 1e3);
        report.set("throughput", (BATCH * latencies.len()) as f64 / timed);
        // A later replay starts on a heap that still holds the memory the
        // last one freed (≈ 10 % more resident), so the peak is taken over
        // the first replay alone.
        let first = &peaks[..peaks.len().min((TRANSACTIONS - PREFIX) / BATCH)];
        report.set("peak_rss_mb", median(first));
    }
    Ok(report)
}

/// What one traced batch returned, besides its spans.
struct TracedBatch {
    stats: BatchStats,
    rules: usize,
    snapshot_bytes: u64,
    tid_cmp: u64,
}

/// Replays of the fixed batch list and what they measured.
struct Replay<'a> {
    transactions: &'a [Vec<ItemId>],
    /// The encoded snapshot of the last batch; reused.
    snapshot: Vec<u8>,
    /// Present in the traced run.
    tracer: Option<Tracer>,
    /// Seconds per untraced batch.
    latencies: Vec<f64>,
    /// Peak resident MiB during each untraced batch.
    peaks: Vec<f64>,
    traced: Vec<TracedBatch>,
    report: Report,
}

impl Replay<'_> {
    /// Replay every batch into `engine`, fresh from setup. The untraced
    /// run times every batch; the traced run alternates untraced and
    /// traced batches, so host drift and the growth of |D| hit both alike.
    fn run(&mut self, engine: &mut StreamEngine) {
        let batches: Vec<&[Vec<ItemId>]> = self.transactions[PREFIX..].chunks(BATCH).collect();
        for (i, batch) in batches.iter().enumerate() {
            self.checkpoint(engine, i);
            let generation = engine.generation();
            let ok = match self.tracer.as_mut() {
                Some(tracer) if i % 2 == 1 => {
                    let snapshot = &mut self.snapshot;
                    match traced_operation(engine, batch, snapshot, tracer, i as u64) {
                        Ok((b, rules_ok)) => {
                            let ok = rules_ok && batch_ok(&b.stats);
                            self.traced.push(b);
                            ok
                        }
                        Err(_) => false,
                    }
                }
                _ => {
                    reset_peak_rss();
                    let t = Instant::now();
                    let result = operation(engine, batch, &mut self.snapshot);
                    self.latencies.push(t.elapsed().as_secs_f64());
                    self.peaks.push(peak_rss_mib());
                    matches!(&result, Ok(s) if batch_ok(s))
                }
            };
            self.report
                .operation(ok && engine.generation() == generation + 1);
        }
        self.checkpoint(engine, batches.len());
    }

    /// At a checkpoint, compare the engine with a full re-mine of the
    /// transactions ingested so far (outside any timed region).
    fn checkpoint(&mut self, engine: &StreamEngine, replayed: usize) {
        if CHECKPOINTS.contains(&replayed) {
            let prefix = &self.transactions[..PREFIX + replayed * BATCH];
            self.report.check(
                matches_full_mine(engine, prefix),
                &format!("full re-mine after {replayed} replayed batches"),
            );
        }
    }
}

/// One traced batch: `ingest_batch`, then rule generation on the new
/// state timed on its own (its output must equal the engine's rules),
/// then the snapshot encode. Returns the batch record and whether the
/// separately generated rules matched.
fn traced_operation(
    engine: &mut StreamEngine,
    batch: &[Vec<ItemId>],
    snapshot: &mut Vec<u8>,
    tracer: &mut Tracer,
    op: u64,
) -> io::Result<(TracedBatch, bool)> {
    let tid_cmp = engine.meter().tid_cmp;
    let root = tracer.begin("op", op);
    let span = tracer.begin("stream.ingest", op);
    let stats = engine.ingest_batch(batch, &Serial);
    tracer.end(span);
    let span = tracer.begin("rules", op);
    let rules = assoc_rules::generate(&engine.state().frequent, CONFIDENCE);
    tracer.end(span);
    let span = tracer.begin("dbstore.encode", op);
    let written = encode_snapshot(engine, snapshot);
    tracer.end(span);
    tracer.end(root);
    let rules_ok = rules == engine.state().rules;
    Ok((
        TracedBatch {
            stats,
            rules: rules.len(),
            snapshot_bytes: written?,
            tid_cmp: engine.meter().tid_cmp - tid_cmp,
        },
        rules_ok,
    ))
}

fn traced_metrics(tracer: &Tracer, untraced: &[f64], traced: &[TracedBatch], report: &mut Report) {
    let pick = |f: fn(&TracedBatch) -> f64| median(&traced.iter().map(f).collect::<Vec<_>>());
    report.set(
        "stream.ingest_s",
        median(&tracer.self_secs("stream.ingest")),
    );
    report.set("stream.remine_s", pick(|b| b.stats.remine_secs));
    report.set("stream.merge_s", pick(|b| b.stats.merge_secs));
    report.set("stream.dirty_frac", pick(|b| b.stats.dirty_fraction()));
    report.set(
        "stream.changed_pairs",
        pick(|b| b.stats.changed_pairs as f64),
    );
    report.set("kernel.tid_cmp", pick(|b| b.tid_cmp as f64));
    report.set("rules.busy_s", median(&tracer.self_secs("rules")));
    report.set("rules.count", pick(|b| b.rules as f64));
    report.set(
        "dbstore.encode_s",
        median(&tracer.self_secs("dbstore.encode")),
    );
    report.set("dbstore.snapshot_bytes", pick(|b| b.snapshot_bytes as f64));
    // The separately timed rule generation is a check added to the traced
    // batch, not part of the operation, so it is left out of the overhead.
    let ops = tracer.total_secs("op");
    let rules = tracer.total_secs("rules");
    let comparable: Vec<f64> = ops.iter().zip(&rules).map(|(o, r)| o - r).collect();
    report.set(
        "trace.overhead_frac",
        median(&comparable) / median(untraced) - 1.0,
    );
}
