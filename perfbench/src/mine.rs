//! The `mine-sparse` and `mine-dense` workloads.
//!
//! One operation is what `eclat mine --input F` runs: read the horizontal
//! file written at setup with `binfmt::read_horizontal`, then mine it with
//! the default configuration — `sequential::mine_with` for `mine-sparse`,
//! `parallel::mine_with` (`--algorithm parallel`) for `mine-dense`. Every
//! operation's output must match the fingerprint taken at setup from
//! `sequential::mine_with`.
//!
//! The traced run calls the pipeline phases itself, in `pipeline::run`'s
//! order, with a span around each; then it mines the same `L2` classes one
//! class at a time under every representation and once under
//! `FixedThreads(2)`, for the kernel and executor rows.

use crate::input;
use crate::report::{median, peak_rss_mib, percentile, reset_peak_rss, Fingerprint, Report};
use crate::trace::Tracer;
use crate::Paths;
use dbstore::{binfmt, HorizontalDb};
use eclat::equivalence::EquivalenceClass;
use eclat::pipeline::{self, ExecutionPolicy, FixedThreads, Rayon, Serial};
use eclat::{EclatConfig, Representation};
use mining_types::{FrequentSet, MinSupport, OpMeter};
use questgen::QuestParams;
use std::fs::File;
use std::io::{self, BufReader, BufWriter, Write};
use std::path::Path;
use std::time::{Duration, Instant};

/// Which of the two mining workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// T10.I6.D400K at 0.25 % on one thread: the scans dominate.
    Sparse,
    /// `QuestParams::dense(100_000)` at 3 % on every core: the
    /// asynchronous phase dominates.
    Dense,
}

impl Kind {
    fn params(self) -> QuestParams {
        match self {
            Kind::Sparse => QuestParams::t10_i6(400_000),
            Kind::Dense => QuestParams::dense(100_000, self.table_seed()),
        }
    }

    /// Pattern-table seed: `eclat generate`'s default for sparse (2 629
    /// frequent pairs in 536 classes), the representation ablation's
    /// dense table for dense (≈ 560 pairs in 44 skewed classes).
    fn table_seed(self) -> u64 {
        match self {
            Kind::Sparse => 0x5EED,
            Kind::Dense => 0xD15E,
        }
    }

    fn minsup(self) -> MinSupport {
        match self {
            Kind::Sparse => MinSupport::from_percent(0.25),
            Kind::Dense => MinSupport::from_percent(3.0),
        }
    }

    /// Threads the workload's execution policy mines on: `Serial` for
    /// sparse; the `Rayon` policy for dense, whose vendored pool has one
    /// thread per available core.
    fn threads(self) -> usize {
        match self {
            Kind::Sparse => 1,
            Kind::Dense => std::thread::available_parallelism().map_or(1, |n| n.get()),
        }
    }

    fn policy(self) -> &'static dyn ExecutionPolicy {
        match self {
            Kind::Sparse => &Serial,
            Kind::Dense => &Rayon,
        }
    }

    /// The timed operation's miner: what `eclat mine` runs for this
    /// workload.
    fn mine(self, db: &HorizontalDb) -> FrequentSet {
        let (minsup, cfg, mut meter) = (self.minsup(), EclatConfig::default(), OpMeter::new());
        match self {
            Kind::Sparse => eclat::sequential::mine_with(db, minsup, &cfg, &mut meter),
            Kind::Dense => eclat::parallel::mine_with(db, minsup, &cfg, &mut meter),
        }
    }
}

/// Representations the traced run mines the `L2` classes under:
/// `(span and metric name, representation, gallop)`.
const SWEEP: [(&str, Representation, bool); 6] = [
    ("kernel.tidlist.class_s", Representation::TidList, false),
    (
        "kernel.tidlist-gallop.class_s",
        Representation::TidList,
        true,
    ),
    ("kernel.diffset.class_s", Representation::Diffset, false),
    (
        "kernel.autoswitch-2.class_s",
        Representation::AutoSwitch { depth: 2 },
        false,
    ),
    ("kernel.bitmap.class_s", Representation::Bitmap, false),
    (
        "kernel.auto-density-8.class_s",
        Representation::AutoDensity { permille: 8 },
        false,
    ),
];

/// Times the whole setup is repeated in an untraced run; `setup_s` is
/// the median.
const SETUP_REPEATS: usize = 3;

fn load(path: &Path) -> io::Result<HorizontalDb> {
    let mut r = BufReader::new(File::open(path)?);
    Ok(binfmt::read_horizontal(&mut r)?.0)
}

/// One untraced operation. The database is returned so that freeing it
/// falls outside the timed region.
fn operation(kind: Kind, path: &Path) -> io::Result<(HorizontalDb, FrequentSet)> {
    let db = load(path)?;
    let fs = kind.mine(&db);
    Ok((db, fs))
}

/// Generate the input, write it, fingerprint the reference result and
/// run one untimed, checked warm-up operation.
fn setup(kind: Kind, seed: u64, path: &Path, report: &mut Report) -> io::Result<Fingerprint> {
    let db = HorizontalDb::from_transactions(input::transactions(
        &kind.params(),
        kind.table_seed(),
        seed,
    ));
    let mut w = BufWriter::new(File::create(path)?);
    binfmt::write_horizontal(&db, &mut w)?;
    w.flush()?;
    drop(w);
    let reference = eclat::sequential::mine_with(
        &db,
        kind.minsup(),
        &EclatConfig::default(),
        &mut OpMeter::new(),
    );
    let fingerprint = Fingerprint::of(&reference);
    drop((db, reference));
    let (_, warm) = operation(kind, path)?;
    report.check(Fingerprint::of(&warm) == fingerprint, "warm-up output");
    Ok(fingerprint)
}

/// Run one mining workload; `trace` selects the traced run.
pub fn run(kind: Kind, seed: u64, seconds: f64, trace: bool, paths: &Paths) -> io::Result<Report> {
    let mut report = Report::new();
    let path = paths.input.as_path();
    if trace {
        let fingerprint = setup(kind, seed, path, &mut report)?;
        traced(kind, seconds, paths, fingerprint, &mut report)?;
        return Ok(report);
    }

    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let mut fingerprint = None;
    for _ in 0..SETUP_REPEATS {
        let t = Instant::now();
        fingerprint = Some(setup(kind, seed, path, &mut report)?);
        setups.push(t.elapsed().as_secs_f64());
    }
    let fingerprint = fingerprint.expect("at least one setup");
    report.notes.push(format!(
        "reference: {} frequent itemsets (size >= 2)",
        fingerprint.len
    ));

    report.check(reset_peak_rss(), "peak RSS reset");
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let (mut latencies, mut peaks) = (Vec::new(), Vec::new());
    while latencies.is_empty() || Instant::now() < deadline {
        reset_peak_rss();
        let t = Instant::now();
        let result = operation(kind, path);
        latencies.push(t.elapsed().as_secs_f64());
        peaks.push(peak_rss_mib());
        report.operation(matches!(&result, Ok((_, fs)) if Fingerprint::of(fs) == fingerprint));
    }
    let transactions = kind.params().num_transactions as f64;
    let timed: f64 = latencies.iter().sum();
    report
        .notes
        .push(format!("timed operations: {}", latencies.len()));
    report.set("setup_s", median(&setups));
    report.set("p50_ms", median(&latencies) * 1e3);
    report.set("p99_ms", percentile(&latencies, 99.0) * 1e3);
    report.set("throughput", transactions * latencies.len() as f64 / timed);
    report.set("peak_rss_mb", median(&peaks));
    Ok(report)
}

/// What one traced operation's calls return, and its async span.
struct PhaseCounts {
    async_s: f64,
    pair_incr: u64,
    tid_bytes: u64,
    joins: u64,
    frequent: u64,
    tid_cmp: u64,
}

/// One traced operation: the phases of `pipeline::run` called one by
/// one, each in its own span.
fn traced_operation(
    kind: Kind,
    path: &Path,
    tracer: &mut Tracer,
    op: u64,
) -> io::Result<(FrequentSet, PhaseCounts)> {
    let cfg = EclatConfig::default();
    let policy = kind.policy();
    let root = tracer.begin("op", op);

    let span = tracer.begin("dbstore.load", op);
    let db = load(path);
    tracer.end(span);
    let db = match db {
        Ok(db) => db,
        Err(e) => {
            tracer.end(root);
            return Err(e);
        }
    };
    let threshold = kind.minsup().count_threshold(db.num_transactions());
    let mut meter = OpMeter::new();
    let mut out = FrequentSet::new();

    let span = tracer.begin("init", op);
    let tri = policy.count_pairs(&db, &mut meter);
    let l2 = pipeline::frequent_l2(&tri, threshold);
    tracer.end(span);
    let pair_incr = meter.pair_incr;

    let span = tracer.begin("transform", op);
    let classes = pipeline::vertical_classes(&db, &l2, &mut meter);
    tracer.end(span);
    let tid_bytes = classes.iter().map(EquivalenceClass::byte_size).sum();

    let before = meter;
    let mut stats = Vec::new();
    let span = tracer.begin("async", op);
    policy.mine_classes(classes, threshold, &cfg, &mut meter, &mut out, &mut stats);
    let async_s = tracer.end(span);
    tracer.end(root);
    drop(db);

    let counts = PhaseCounts {
        async_s,
        pair_incr,
        tid_bytes,
        joins: stats.iter().map(|c| c.kernel.joins).sum(),
        frequent: stats.iter().map(|c| c.kernel.frequent).sum(),
        tid_cmp: meter.tid_cmp - before.tid_cmp,
    };
    Ok((out, counts))
}

/// The `L2` classes of the input, built the way the pipeline builds them
/// (untimed), with the support threshold.
fn l2_classes(kind: Kind, path: &Path) -> io::Result<(Vec<EquivalenceClass>, u32)> {
    let db = load(path)?;
    let threshold = kind.minsup().count_threshold(db.num_transactions());
    let mut meter = OpMeter::new();
    let tri = Serial.count_pairs(&db, &mut meter);
    let l2 = pipeline::frequent_l2(&tri, threshold);
    Ok((pipeline::vertical_classes(&db, &l2, &mut meter), threshold))
}

/// Mine `classes` one class at a time under `cfg`, one span per class.
/// Returns the summed class seconds and the merged output.
fn one_class_at_a_time(
    classes: Vec<EquivalenceClass>,
    threshold: u32,
    cfg: &EclatConfig,
    tracer: &mut Tracer,
    name: &'static str,
    op: u64,
) -> (f64, FrequentSet) {
    let mut out = FrequentSet::new();
    let mut meter = OpMeter::new();
    let mut class_s = 0.0;
    let outer = tracer.begin(name, op);
    for class in classes {
        let span = tracer.begin("class", op);
        pipeline::mine_class(class, threshold, cfg, &mut meter, &mut out);
        class_s += tracer.end(span);
    }
    tracer.end(outer);
    (class_s, out)
}

/// Span name of a `FixedThreads(2)` pass over the classes.
const LPT: &str = "executor.lpt";

/// One pass over freshly built `L2` classes (built untimed, like the
/// traced operation's, so the pass sees the same memory layout): one
/// class at a time under `SWEEP[entry]`, or through `FixedThreads(2)` when
/// `entry == SWEEP.len()`. Returns the pass's seconds — summed class
/// spans, or the policy call — and whether its output matched.
fn class_pass(
    kind: Kind,
    path: &Path,
    entry: usize,
    tracer: &mut Tracer,
    op: u64,
    fingerprint: Fingerprint,
) -> io::Result<(f64, bool)> {
    let (classes, threshold) = l2_classes(kind, path)?;
    let (secs, out) = match SWEEP.get(entry) {
        Some(&(name, representation, gallop)) => {
            let cfg = EclatConfig {
                representation,
                gallop,
                ..EclatConfig::default()
            };
            one_class_at_a_time(classes, threshold, &cfg, tracer, name, op)
        }
        None => {
            let mut out = FrequentSet::new();
            let span = tracer.begin(LPT, op);
            FixedThreads::new(2).mine_classes(
                classes,
                threshold,
                &EclatConfig::default(),
                &mut OpMeter::new(),
                &mut out,
                &mut Vec::new(),
            );
            (tracer.end(span), out)
        }
    };
    Ok((secs, Fingerprint::of(&out) == fingerprint))
}

fn traced(
    kind: Kind,
    seconds: f64,
    paths: &Paths,
    fingerprint: Fingerprint,
    report: &mut Report,
) -> io::Result<()> {
    let path = paths.input.as_path();
    let mut tracer = Tracer::new();
    let mut untraced = Vec::new();
    let mut counts = Vec::new();
    // Seconds of each pass per `SWEEP` entry, then per `FixedThreads(2)` pass.
    let mut passes: Vec<Vec<f64>> = vec![Vec::new(); SWEEP.len() + 1];
    let (mut idle, mut idle_lpt) = (Vec::new(), Vec::new());
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    // A round: an untraced and a traced operation (taking turns at going
    // first), a `tidlist` and a `FixedThreads(2)` pass for the idle
    // fractions, and a pass under one other representation. Ratios are
    // taken within a round, so host drift between rounds cancels.
    let mut round = 0;
    while round < SWEEP.len() - 1 || Instant::now() < deadline {
        let op = round as u64;
        let mut busy = f64::NAN;
        for traced in [round % 2 == 1, round % 2 == 0] {
            if traced {
                let result = traced_operation(kind, path, &mut tracer, op);
                report.operation(
                    matches!(&result, Ok((fs, _)) if Fingerprint::of(fs) == fingerprint),
                );
                if let Ok((_, c)) = result {
                    busy = c.async_s;
                    counts.push(c);
                }
            } else {
                let t = Instant::now();
                let result = operation(kind, path);
                untraced.push(t.elapsed().as_secs_f64());
                report.operation(
                    matches!(&result, Ok((_, fs)) if Fingerprint::of(fs) == fingerprint),
                );
            }
        }
        let mut secs = [0.0; 3];
        for (slot, entry) in [0, SWEEP.len(), 1 + round % (SWEEP.len() - 1)]
            .into_iter()
            .enumerate()
        {
            let (s, ok) = class_pass(kind, path, entry, &mut tracer, op, fingerprint)?;
            report.check(ok, SWEEP.get(entry).map_or(LPT, |e| e.0));
            passes[entry].push(s);
            secs[slot] = s;
        }
        idle.push(1.0 - secs[0] / (kind.threads() as f64 * busy));
        idle_lpt.push(1.0 - secs[0] / (2.0 * secs[1]));
        round += 1;
    }
    report.notes.push(format!(
        "rounds: {round}; passes per representation and FixedThreads(2): {:?}",
        passes.iter().map(Vec::len).collect::<Vec<_>>()
    ));
    let class_s: Vec<f64> = passes.iter().map(|p| median(p)).collect();

    let pick = |f: fn(&PhaseCounts) -> u64| {
        median(&counts.iter().map(|c| f(c) as f64).collect::<Vec<_>>())
    };
    let joins = pick(|c| c.joins);
    report.set("dbstore.load_s", median(&tracer.self_secs("dbstore.load")));
    report.set("init.busy_s", median(&tracer.self_secs("init")));
    report.set("init.pair_incr", pick(|c| c.pair_incr));
    report.set("transform.busy_s", median(&tracer.self_secs("transform")));
    report.set("transform.tid_bytes", pick(|c| c.tid_bytes));
    report.set("async.busy_s", median(&tracer.self_secs("async")));
    report.set("async.class_s", class_s[0]);
    report.set("executor.idle_frac", median(&idle));
    report.set("executor.idle_frac_lpt", median(&idle_lpt));
    report.set("kernel.joins", joins);
    report.set("kernel.tid_cmp", pick(|c| c.tid_cmp));
    report.set("kernel.useful_frac", pick(|c| c.frequent) / joins);
    report.set("kernel.ns_per_join", class_s[0] * 1e9 / joins);
    for ((name, _, _), secs) in SWEEP.iter().zip(&class_s) {
        report.set(name, *secs);
    }
    report.set(
        "trace.overhead_frac",
        median(&tracer.total_secs("op")) / median(&untraced) - 1.0,
    );
    report.notes.push(format!(
        "policy threads: {}; FixedThreads(2) async: {:.4} s",
        kind.threads(),
        class_s[SWEEP.len()]
    ));
    tracer.write_jsonl(&paths.spans)?;
    report
        .notes
        .push(format!("spans: {}", paths.spans.display()));
    Ok(())
}
