//! `eclat seq` — SPADE-style sequence mining over `.ecs` databases.
//!
//! ```text
//! eclat seq --input F.ecs (--minsup|--support) PCT [--maxlen K]
//!           [--policy serial|rayon|threads[:P]] [--top N]
//!           [--out SNAP.ecq] [--verify] [--stats[=json]] [--trace PATH]
//! ```
//!
//! All option parsing goes through [`crate::common`], so the flags
//! behave exactly like `mine`'s: `--stats[=json]` emits the
//! `"algorithm":"spade"` [`SeqStats`] report, `--trace PATH` records
//! the per-phase/per-class span timeline, `--out` persists the mined
//! sequences as a checksummed [`dbstore::seqfmt`] snapshot, and
//! `--verify` re-mines with the naive GSP-style reference and fails
//! loudly on any divergence — the `check.sh` diff gate runs exactly
//! that.

use crate::common::{arm_tracing, stats_mode, support_of, write_trace, Flags, StatsMode};
use dbstore::seqfmt;
use eclat::pipeline::FixedThreads;
use eclat_seq::{mine_stats, reference, SeqConfig, SeqDb, SeqStats};
use mining_types::OpMeter;
use std::fmt::Write as _;
use std::fs::File;
use std::io::{BufReader, BufWriter};

/// `--policy`: the report's variant label and the thread count to mine
/// on (bare `threads`, like `rayon`, is every core).
fn policy_of(flags: &Flags) -> Result<(&'static str, FixedThreads), String> {
    match flags.get("policy").unwrap_or("serial") {
        "serial" => Ok(("sequential", FixedThreads::new(1))),
        "rayon" => Ok(("rayon", FixedThreads::new(0))),
        "threads" => Ok(("threads", FixedThreads::new(0))),
        other => match other.split_once(':') {
            Some(("threads", p)) => {
                let threads: usize = p.parse().map_err(|_| format!("bad thread count '{p}'"))?;
                Ok(("threads", FixedThreads::new(threads)))
            }
            _ => Err(format!(
                "unknown policy '{other}' (serial|rayon|threads[:P])"
            )),
        },
    }
}

fn load_seq_db(flags: &Flags) -> Result<SeqDb, String> {
    let path = flags.require("input")?;
    let f = File::open(path).map_err(|e| format!("open {path}: {e}"))?;
    let mut r = BufReader::new(f);
    let ((raw, _num_items), _) =
        seqfmt::read_seq_db(&mut r).map_err(|e| format!("read {path}: {e}"))?;
    Ok(SeqDb::from_events(raw))
}

pub(crate) fn cmd_seq(flags: &Flags) -> Result<String, String> {
    let db = load_seq_db(flags)?;
    let minsup = support_of(flags)?;
    let (variant, policy) = policy_of(flags)?;
    let maxlen: Option<u32> = flags
        .get("maxlen")
        .map(str::parse)
        .transpose()
        .map_err(|_| "--maxlen: expected a pattern-length cap".to_string())?;
    let top: usize = flags.parse("top", 20usize)?;
    let stats = stats_mode(flags)?;
    let trace_path = flags.get("trace");
    if trace_path.is_some() {
        arm_tracing(0);
    }

    let cfg = SeqConfig {
        maxlen,
        ..SeqConfig::default()
    };
    let t0 = std::time::Instant::now();
    let (fs, mining) = mine_stats(&db, minsup, &cfg, &mut OpMeter::new(), &policy, variant);
    let dt = t0.elapsed().as_secs_f64();

    let verified = if flags.has("verify") {
        let oracle = reference::mine_reference(&db, minsup, maxlen);
        if fs != oracle {
            return Err(format!(
                "--verify: spade kernel diverged from the reference miner \
                 ({} vs {} frequent sequences)",
                fs.len(),
                oracle.len()
            ));
        }
        true
    } else {
        false
    };

    let snapshot_msg = match flags.get("out") {
        Some(path) => {
            let patterns: Vec<seqfmt::RawSeqPattern> =
                fs.iter().map(|(p, &s)| (p.to_raw(), s)).collect();
            let f = File::create(path).map_err(|e| format!("create {path}: {e}"))?;
            let mut w = BufWriter::new(f);
            let bytes = seqfmt::write_seq_results(db.num_sequences() as u32, &patterns, &mut w)
                .map_err(|e| format!("write {path}: {e}"))?;
            Some(format!(
                "snapshot: {} sequences, {bytes} bytes -> {path}\n",
                patterns.len()
            ))
        }
        None => None,
    };

    let trace_msg = trace_path.map(write_trace).transpose()?;

    let report = SeqStats::from_run(&db, &cfg, &fs, mining);
    if stats == StatsMode::Json {
        let mut json = report.to_json();
        json.push('\n');
        return Ok(json);
    }

    let mut out = String::new();
    let _ = writeln!(
        out,
        "{} frequent sequences in {dt:.2}s (spade, {}){}",
        fs.len(),
        report.mining.variant,
        if verified { " [verified]" } else { "" }
    );
    for &(len, n) in &report.by_len {
        let _ = writeln!(out, "  len {len:>2}: {n}");
    }
    let mut sorted: Vec<_> = fs.iter().collect();
    sorted.sort_by(|a, b| b.1.cmp(a.1).then(a.0.cmp(b.0)));
    let _ = writeln!(out, "top by support:");
    for (p, s) in sorted.into_iter().take(top) {
        let _ = writeln!(out, "  {:<40} {:>8}", format!("{p}"), s);
    }
    if let Some(msg) = snapshot_msg {
        out.push_str(&msg);
    }
    if let Some(msg) = trace_msg {
        out.push_str(&msg);
    }
    if stats == StatsMode::Human {
        out.push('\n');
        out.push_str(&report.mining.render());
    }
    Ok(out)
}
