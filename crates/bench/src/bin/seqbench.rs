//! Sequence-mining benchmark: generates a Quest-style sequence
//! database and runs the SPADE kernel under every execution policy,
//! equality-asserting parallel results against sequential before
//! reporting times, then sweeps `--maxlen` to show how the cap trades
//! pattern depth for work.
//!
//! ```text
//! cargo run -p repro-bench --bin seqbench --release [-- \
//!     --sequences=5000 --support=1.0 --smoke --json=results/seqbench.json]
//! ```
//!
//! Like `streambench`, the bench doubles as a correctness gate: a
//! parallel run whose frequent set, supports, or merged op counts
//! diverge from the sequential baseline aborts the run instead of
//! printing a meaningless speedup. `scripts/check.sh` runs `--smoke`.

use eclat::pipeline::{ExecutionPolicy, FixedThreads, Rayon, Serial};
use eclat_seq::{mine_stats, FrequentSequences, SeqConfig, SeqDb, SeqStats};
use mining_types::json::{Arr, Obj};
use mining_types::stats::MiningStats;
use mining_types::{MinSupport, OpMeter};
use questgen::{SeqGenerator, SeqParams};
use repro_bench::{row, Args};
use std::time::Instant;

/// One timed run under a named policy.
struct PolicyRow {
    policy: &'static str,
    frequent: u64,
    total_ops_joins: u64,
    secs: f64,
    speedup: f64,
}

/// One point of the `--maxlen` sweep.
struct MaxlenRow {
    maxlen: u64,
    frequent: u64,
    deepest: u64,
    secs: f64,
}

/// A deferred mining run: `(policy name, thunk)`.
type PolicyRun<'a> = (
    &'static str,
    Box<dyn Fn() -> (FrequentSequences, MiningStats, f64) + 'a>,
);

fn timed_mine(
    db: &SeqDb,
    minsup: MinSupport,
    cfg: &SeqConfig,
    policy: &impl ExecutionPolicy,
    variant: &str,
) -> (FrequentSequences, MiningStats, f64) {
    let mut meter = OpMeter::new();
    let t0 = Instant::now();
    let (fs, stats) = mine_stats(db, minsup, cfg, &mut meter, policy, variant);
    (fs, stats, t0.elapsed().as_secs_f64())
}

fn main() {
    let args = Args::from_env();
    let smoke = args.has("smoke");
    let sequences: usize = args
        .get("sequences")
        .map(|s| s.parse().expect("--sequences"))
        .unwrap_or(if smoke { 400 } else { 4_000 });
    let support_percent: f64 = args
        .get("support")
        .map(|s| s.parse().expect("--support"))
        .unwrap_or(if smoke { 2.0 } else { 1.0 });
    let threads: usize = args
        .get("threads")
        .map(|s| s.parse().expect("--threads"))
        .unwrap_or(0);

    let params = SeqParams::c10_t4(sequences).with_seed(0x5EB0);
    eprintln!("[seqbench] generating {} ...", params.name());
    let db = SeqDb::from_events(SeqGenerator::new(params).generate_all_raw());
    let minsup = MinSupport::from_percent(support_percent);
    eprintln!(
        "[seqbench] {} sequences, {} events, {} item occurrences; support {support_percent}%",
        db.num_sequences(),
        db.num_events(),
        db.num_item_occurrences()
    );

    // --- Policy comparison: parallel runs must reproduce sequential
    // byte-for-byte (patterns, supports, and merged op counts).
    let cfg = SeqConfig::default();
    let (base_fs, base_stats, base_secs) = timed_mine(&db, minsup, &cfg, &Serial, "sequential");
    let mut policies = vec![PolicyRow {
        policy: "sequential",
        frequent: base_fs.len() as u64,
        total_ops_joins: base_stats.total_ops.tid_cmp,
        secs: base_secs,
        speedup: 1.0,
    }];
    let parallel: [PolicyRun; 2] = [
        (
            "rayon",
            Box::new(|| timed_mine(&db, minsup, &cfg, &Rayon, "rayon")),
        ),
        (
            "threads",
            Box::new(|| timed_mine(&db, minsup, &cfg, &FixedThreads::new(threads), "threads")),
        ),
    ];
    for (name, run) in &parallel {
        let (fs, stats, secs) = run();
        assert_eq!(
            fs, base_fs,
            "{name}: parallel frequent sequences diverged from sequential"
        );
        assert_eq!(
            stats.total_ops, base_stats.total_ops,
            "{name}: merged op counts diverged from sequential"
        );
        policies.push(PolicyRow {
            policy: name,
            frequent: fs.len() as u64,
            total_ops_joins: stats.total_ops.tid_cmp,
            secs,
            speedup: base_secs / secs.max(1e-9),
        });
    }

    let widths = [12usize, 9, 12, 9, 8];
    println!(
        "{}",
        row(
            &["policy", "frequent", "join ops", "secs", "speedup"].map(String::from),
            &widths
        )
    );
    for p in &policies {
        println!(
            "{}",
            row(
                &[
                    p.policy.to_string(),
                    p.frequent.to_string(),
                    p.total_ops_joins.to_string(),
                    format!("{:.4}", p.secs),
                    format!("{:.2}x", p.speedup),
                ],
                &widths
            )
        );
    }

    // --- Maxlen ablation (serial, so rows are comparable): the cap
    // trims the deep tail of the search; maxlen=0 means unbounded.
    let deepest_full = base_fs
        .keys()
        .map(|p| p.len_items() as u64)
        .max()
        .unwrap_or(0);
    let mut sweep: Vec<u64> = (1..=3).collect();
    sweep.push(0);
    let mut ablation = Vec::with_capacity(sweep.len());
    for maxlen in sweep {
        let capped = SeqConfig {
            maxlen: (maxlen > 0).then_some(maxlen as u32),
            ..SeqConfig::default()
        };
        let (fs, _, secs) = timed_mine(&db, minsup, &capped, &Serial, "sequential");
        let deepest = fs.keys().map(|p| p.len_items() as u64).max().unwrap_or(0);
        if maxlen > 0 {
            assert!(
                deepest <= maxlen,
                "maxlen={maxlen} produced a deeper pattern"
            );
        } else {
            assert_eq!(fs, base_fs, "unbounded sweep row must match the baseline");
        }
        ablation.push(MaxlenRow {
            maxlen,
            frequent: fs.len() as u64,
            deepest,
            secs,
        });
    }

    let awidths = [9usize, 9, 9, 9];
    println!(
        "{}",
        row(
            &["maxlen", "frequent", "deepest", "secs"].map(String::from),
            &awidths
        )
    );
    for r in &ablation {
        println!(
            "{}",
            row(
                &[
                    if r.maxlen == 0 {
                        "none".to_string()
                    } else {
                        r.maxlen.to_string()
                    },
                    r.frequent.to_string(),
                    r.deepest.to_string(),
                    format!("{:.4}", r.secs),
                ],
                &awidths
            )
        );
    }
    println!(
        "seqbench: {} policies verified identical ({} frequent sequences, deepest {})",
        policies.len(),
        base_fs.len(),
        deepest_full
    );

    if let Some(path) = args.json_out() {
        let mut prow = Arr::new();
        for p in &policies {
            prow.raw(
                &Obj::new()
                    .str("policy", p.policy)
                    .u64("frequent", p.frequent)
                    .u64("join_ops", p.total_ops_joins)
                    .f64("secs", p.secs)
                    .f64("speedup", p.speedup)
                    .finish(),
            );
        }
        let mut arow = Arr::new();
        for r in &ablation {
            arow.raw(
                &Obj::new()
                    .u64("maxlen", r.maxlen)
                    .u64("frequent", r.frequent)
                    .u64("deepest", r.deepest)
                    .f64("secs", r.secs)
                    .finish(),
            );
        }
        let report = SeqStats::from_run(&db, &cfg, &base_fs, base_stats);
        let doc = Obj::new()
            .str("bench", "seqbench")
            .raw("smoke", if smoke { "true" } else { "false" })
            .u64("sequences", sequences as u64)
            .f64("support_percent", support_percent)
            .raw("policies", &prow.finish())
            .raw("maxlen_ablation", &arow.finish())
            .raw("seq_stats", &report.to_json())
            .finish();
        repro_bench::write_json(path, &doc).expect("write --json output");
        eprintln!("[seqbench] wrote {path}");
    }
}
