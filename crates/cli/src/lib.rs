//! `eclat` — command-line association mining.
//!
//! Subcommands:
//!
//! ```text
//! eclat generate --out data.ech --family t10i6 --transactions 100000 [--seed N]
//! eclat stats    --input data.ech
//! eclat mine     --input data.ech --support 0.1 [--algorithm eclat|parallel|apriori|clique]
//!                [--representation tidlist|diffset|autoswitch[:DEPTH]|bitmap|auto-density[:PERMILLE]]
//!                [--maximal] [--min-size K] [--top N] [--stats[=json]]
//! ```
//!
//! `--repr` is accepted as a shorthand for `--representation`; `--maximal`
//! (MaxEclat) composes with every representation, and with `--stats[=json]`
//! it emits an `"algorithm":"maxeclat"` report including look-ahead switch
//! events.
//!
//! ```text
//! eclat rules    --input data.ech --support 0.5 --confidence 0.8 [--top N]
//! eclat simulate --input data.ech --support 0.1 --hosts 8 --procs 4
//!                [--algorithm eclat|hybrid|countdist]
//!                [--representation tidlist|diffset|autoswitch[:DEPTH]|bitmap|auto-density[:PERMILLE]]
//!                [--stats[=json]]
//! ```
//!
//! `--stats` appends the structured [`mining_types::MiningStats`] report
//! (per-phase timings/ops, per-level counts, kernel work, and — for
//! `simulate` — the per-processor timeline split); `--stats=json` emits
//! only the machine-readable JSON document.
//!
//! ```text
//! eclat worker   [--listen HOST:PORT] [--threads P] [--mem-budget BYTES]
//!                [--port-file PATH] [--serve-secs S]
//! eclat dmine    --input data.ech --support PCT
//!                (--workers HOST:PORT,... | --spawn-local N)
//!                [--threads P] [--mem-budget BYTES]
//!                [--representation tidlist|diffset|autoswitch[:DEPTH]|bitmap|auto-density[:PERMILLE]]
//!                [--min-size K] [--top N] [--stats[=json]]
//! ```
//!
//! `worker` runs one [`eclat_net`] cluster worker; `dmine` coordinates a
//! distributed mine over real TCP workers — either ones already running
//! (`--workers`) or `N` freshly spawned local child processes
//! (`--spawn-local`, killed when the command exits). Each worker is a
//! paper-style host: `--threads P` mines its scheduled classes on `P`
//! OS threads (`0` = one per core), and `--mem-budget BYTES` (suffixes
//! `k`/`m`/`g` accepted) caps the resident exchanged tid-lists, spilling
//! the excess through an out-of-core class store. With `--spawn-local`,
//! `dmine` forwards both flags to every child it spawns. The
//! frequent-set report is identical to `mine`'s after the headline, so
//! the two diff clean; `--stats=json` emits a `"variant":"dist"` report
//! whose `cluster` section shares the simulator's schema (one processor
//! row per worker thread).
//!
//! ```text
//! eclat stream   --input data.ech --support PCT --batch N [--confidence FRAC]
//!                [--representation ...] [--out snap.ecr] [--verify] [--stats[=json]]
//! ```
//!
//! `stream` replays the database as a sequence of `--batch`-sized
//! transaction batches through the incremental [`eclat_stream`] engine:
//! each batch appends to the vertical database, delta-counts the `L2`
//! triangle, re-mines only the *dirty* equivalence classes, and (with
//! `--out`) atomically rewrites the results snapshot with a bumped
//! generation — a live `serve --reload-secs` picks each one up without
//! restarting. `--verify` additionally full-mines every prefix and
//! asserts the incremental state matches exactly.
//!
//! ```text
//! eclat serve    (--input data.ech --support PCT | --load snap.ecr)
//!                [--port P] [--host H] [--reload-secs S]
//!                [--confidence FRAC] [--cache N] [--workers N]
//!                [--port-file PATH] [--serve-secs S]
//! eclat query    --addr HOST:PORT [--ping] [--support-of LIST]
//!                [--subsets-of LIST] [--supersets-of LIST] [--rules-for LIST]
//!                [--topk K [--size S]] [--limit N] [--top N] [--server-stats]
//! ```
//!
//! `serve` mines the database, generates rules, and serves both over the
//! [`assoc_serve`] wire protocol. `--port 0` binds an ephemeral port;
//! `--port-file` writes the bound port so scripts (and the tests) can
//! find it; `--serve-secs` serves for a fixed window and then reports
//! the connection/request counters (omit it to serve until killed).
//! `query` item lists are comma-separated, e.g. `--rules-for 3,17`.
//!
//! `mine --out snap.ecr` additionally persists the mined itemsets and
//! rules as a checksummed [`dbstore::binfmt`] snapshot;
//! `serve --load snap.ecr` boots the query index straight from such a
//! snapshot without re-mining.
//!
//! A flag that a subcommand's `eclat help` entry does not name is an
//! error (exit 2), so a misspelt flag cannot fall back to a default
//! unnoticed.
//!
//! Databases are the workspace's binary horizontal format
//! ([`dbstore::binfmt`]). Every subcommand is a pure function from
//! parsed arguments to a report string, so the whole surface is
//! unit-testable without spawning processes.

mod common;
mod seq;

use common::{
    arm_tracing, confidence_of, parse_flags, parse_items, parse_mem_budget, serve_secs, stats_mode,
    support_of, wait_window, write_port_file, write_trace, Flags, StatsMode,
};
use dbstore::{binfmt, HorizontalDb};
use memchannel::{ClusterConfig, CostModel};
use mining_types::{FrequentSet, MinSupport, MiningStats, OpMeter, TriangleMatrix};
use questgen::{QuestGenerator, QuestParams, SeqGenerator, SeqParams};
use std::fmt::Write as _;
use std::fs::File;
use std::io::{BufReader, BufWriter};

/// A subcommand's body: parsed flags in, report out.
type Handler = fn(&Flags) -> Result<String, String>;

/// Every subcommand with the flags it takes (space-separated): the ones
/// its [`usage`] entry names, plus `--minsup` where it takes `--support`
/// and `--repr` where it takes `--representation`. [`run`] refuses any
/// other flag, so a misspelt or removed one fails instead of being
/// ignored.
#[rustfmt::skip]
const COMMANDS: &[(&str, Handler, &str)] = &[
    ("generate", cmd_generate, "out transactions sequences family seed"),
    ("stats", cmd_stats, "input"),
    ("mine", cmd_mine, "input support minsup algorithm representation repr maximal \
        min-size top stats trace out confidence"),
    ("seq", seq::cmd_seq, "input minsup support maxlen policy top out verify stats trace"),
    ("rules", cmd_rules, "input support minsup confidence top"),
    ("simulate", cmd_simulate, "input support minsup hosts procs algorithm representation \
        repr stats"),
    ("worker", cmd_worker, "listen threads mem-budget port-file serve-secs trace"),
    ("dmine", cmd_dmine, "input support minsup workers spawn-local threads mem-budget \
        representation repr min-size top stats trace"),
    ("stream", cmd_stream, "input support minsup batch confidence representation repr out \
        verify stats trace"),
    ("serve", cmd_serve, "input support minsup load port host confidence cache workers \
        port-file serve-secs reload-secs"),
    ("query", cmd_query, "addr ping support-of subsets-of supersets-of rules-for topk size \
        limit top server-stats metrics"),
    ("trace", cmd_trace, "input merge chrome"),
];

/// Top-level dispatch. `argv` excludes the program name.
///
/// # Errors
/// A human-readable message on bad usage (including a flag the
/// subcommand does not take), I/O failure, or bad data.
pub fn run(argv: &[String]) -> Result<String, String> {
    let Some((cmd, rest)) = argv.split_first() else {
        return Err(usage());
    };
    if matches!(cmd.as_str(), "help" | "--help" | "-h") {
        return Ok(usage());
    }
    let (handler, flags) = resolve(cmd, rest)?;
    handler(&flags)
}

/// Look up subcommand `cmd` and parse its flags `rest`, refusing an
/// unknown subcommand or a flag the subcommand does not take.
fn resolve(cmd: &str, rest: &[String]) -> Result<(Handler, Flags), String> {
    let Some(&(_, handler, known)) = COMMANDS.iter().find(|(name, ..)| *name == cmd) else {
        return Err(format!("unknown subcommand '{cmd}'\n\n{}", usage()));
    };
    let flags = parse_flags(rest)?;
    match flags.unknown(known) {
        Some(flag) => Err(format!("{cmd}: unknown flag --{flag} (see `eclat help`)")),
        None => Ok((handler, flags)),
    }
}

/// Usage text.
pub fn usage() -> String {
    USAGE.to_string()
}

const USAGE: &str = "\
eclat — association mining (reproduction of Zaki et al., SPAA'97)

subcommands:
  generate --out FILE --transactions N [--family t10i6|t5i2|t20i4|t20i6] [--seed N]
  generate --out FILE --sequences N [--family c10t4|c5t2|c20t3] [--seed N]
  stats    --input FILE
  mine     --input FILE --support PCT [--algorithm eclat|parallel|apriori|clique]
           [--representation tidlist|diffset|autoswitch[:DEPTH]|bitmap|auto-density[:PERMILLE]]
           [--maximal] [--min-size K] [--top N] [--stats[=json]] [--trace PATH]
           [--out SNAPSHOT [--confidence FRAC]]
  seq      --input FILE (--minsup|--support) PCT [--maxlen K]
           [--policy serial|rayon|threads[:P]] [--top N]
           [--out SNAPSHOT] [--verify] [--stats[=json]] [--trace PATH]
  rules    --input FILE --support PCT --confidence FRAC [--top N]
  simulate --input FILE --support PCT [--hosts H] [--procs P]
           [--algorithm eclat|hybrid|countdist]
           [--representation tidlist|diffset|autoswitch[:DEPTH]|bitmap|auto-density[:PERMILLE]]
           [--stats[=json]]
  worker   [--listen HOST:PORT] [--threads P] [--mem-budget BYTES]
           [--port-file PATH] [--serve-secs S] [--trace PATH]
  dmine    --input FILE --support PCT (--workers HOST:PORT,... | --spawn-local N)
           [--threads P] [--mem-budget BYTES]
           [--representation tidlist|diffset|autoswitch[:DEPTH]|bitmap|auto-density[:PERMILLE]]
           [--min-size K] [--top N] [--stats[=json]] [--trace PATH]
  stream   --input FILE --support PCT --batch N [--confidence FRAC]
           [--representation tidlist|diffset|autoswitch[:DEPTH]|bitmap|auto-density[:PERMILLE]]
           [--out SNAPSHOT] [--verify] [--stats[=json]] [--trace PATH]
  serve    (--input FILE --support PCT | --load SNAPSHOT) [--port P] [--host H] [--confidence FRAC]
           [--cache N] [--workers N] [--port-file PATH] [--serve-secs S]
           [--reload-secs S]
  query    --addr HOST:PORT [--ping] [--support-of LIST] [--subsets-of LIST]
           [--supersets-of LIST] [--rules-for LIST] [--topk K [--size S]]
           [--limit N] [--top N] [--server-stats] [--metrics]
  trace    --input FILE[,FILE...] [--merge OUT.jsonl] [--chrome OUT.json]

aliases: --minsup for --support and --repr for --representation, wherever
those are taken. Any other flag is an error (exit 2).

observability:
  --trace PATH records span/event timelines (dmine --spawn-local merges
  coordinator + worker traces into PATH); `trace` validates/merges trace
  JSONL and converts it to Chrome trace_event JSON; `query --metrics`
  fetches Prometheus-style text; ECLAT_LOG=error|warn|info|debug
  controls runtime diagnostics.
";

fn load_db(flags: &Flags) -> Result<HorizontalDb, String> {
    let path = flags.require("input")?;
    let f = File::open(path).map_err(|e| format!("open {path}: {e}"))?;
    let mut r = BufReader::new(f);
    let (db, _) = binfmt::read_horizontal(&mut r).map_err(|e| format!("read {path}: {e}"))?;
    if !TriangleMatrix::fits(db.num_items() as usize) {
        return Err(format!(
            "read {path}: no memory for the pair triangle of {} items",
            db.num_items()
        ));
    }
    Ok(db)
}

/// Generate a sequence database (`--sequences N`): Quest's procedure
/// lifted to customer histories, persisted as a [`dbstore::seqfmt`]
/// container for `eclat seq`.
fn generate_sequences(flags: &Flags, out: &str, d: usize, seed: u64) -> Result<String, String> {
    let family = flags.get("family").unwrap_or("c10t4");
    let params = match family {
        "c10t4" => SeqParams::c10_t4(d),
        "c5t2" => SeqParams::c5_t2(d),
        "c20t3" => SeqParams::c20_t3(d),
        other => return Err(format!("unknown sequence family '{other}'")),
    }
    .with_seed(seed);
    let name = params.name();
    let num_items = params.num_items;
    let raw = SeqGenerator::new(params).generate_all_raw();
    let events: usize = raw.iter().map(Vec::len).sum();
    let f = File::create(out).map_err(|e| format!("create {out}: {e}"))?;
    let mut w = BufWriter::new(f);
    let bytes =
        dbstore::seqfmt::write_seq_db(&raw, num_items, &mut w).map_err(|e| e.to_string())?;
    Ok(format!(
        "generated {name}: {} sequences, {events} events, {} items, {:.1} MB -> {out}\n",
        raw.len(),
        num_items,
        bytes as f64 / (1024.0 * 1024.0)
    ))
}

fn cmd_generate(flags: &Flags) -> Result<String, String> {
    let out = flags.require("out")?;
    let seed: u64 = flags.parse("seed", 0x5EEDu64)?;
    if let Some(raw) = flags.get("sequences") {
        let d: usize = raw
            .parse()
            .map_err(|_| "--sequences: cannot parse".to_string())?;
        if d == 0 {
            return Err("--sequences must be > 0".to_string());
        }
        return generate_sequences(flags, out, d, seed);
    }
    let d: usize = flags.parse("transactions", 0usize)?;
    if d == 0 {
        return Err("--transactions must be > 0".to_string());
    }
    let family = flags.get("family").unwrap_or("t10i6");
    let params = match family {
        "t10i6" => QuestParams::t10_i6(d),
        "t5i2" => QuestParams::t5_i2(d),
        "t20i4" => QuestParams::t20_i4(d),
        "t20i6" => QuestParams::t20_i6(d),
        other => return Err(format!("unknown family '{other}'")),
    }
    .with_seed(seed);
    let name = params.name();
    let db = HorizontalDb::from_transactions(QuestGenerator::new(params).generate_all());
    let f = File::create(out).map_err(|e| format!("create {out}: {e}"))?;
    let mut w = BufWriter::new(f);
    let bytes = binfmt::write_horizontal(&db, &mut w).map_err(|e| e.to_string())?;
    Ok(format!(
        "generated {name}: {} transactions, {} items, {:.1} MB -> {out}\n",
        db.num_transactions(),
        db.num_items(),
        bytes as f64 / (1024.0 * 1024.0)
    ))
}

fn cmd_stats(flags: &Flags) -> Result<String, String> {
    let db = load_db(flags)?;
    let mut hist = vec![0usize; 1 + db.iter().map(|(_, t)| t.len()).max().unwrap_or(0)];
    for (_, t) in db.iter() {
        hist[t.len()] += 1;
    }
    let mut out = String::new();
    let _ = writeln!(out, "transactions : {}", db.num_transactions());
    let _ = writeln!(out, "items        : {}", db.num_items());
    let _ = writeln!(out, "avg length   : {:.2}", db.avg_transaction_len());
    let _ = writeln!(out, "total bytes  : {}", db.byte_size());
    let _ = writeln!(out, "length histogram:");
    let max = hist.iter().copied().max().unwrap_or(1).max(1);
    for (len, &n) in hist.iter().enumerate() {
        if n > 0 {
            let bar = "#".repeat((n * 40 / max).max(1));
            let _ = writeln!(out, "  {len:>3}: {n:>8} {bar}");
        }
    }
    Ok(out)
}

/// The raw `--representation` value, also accepted as `--repr`.
fn representation_flag(flags: &Flags) -> Option<&str> {
    flags.get("representation").or_else(|| flags.get("repr"))
}

/// Parse `--representation
/// tidlist|diffset|autoswitch[:DEPTH]|bitmap|auto-density[:PERMILLE]`
/// (also accepted under the `--repr` shorthand), or `fallback` when the
/// flag is absent: the default configuration's representation for the
/// miners, the paper's tid-lists for `simulate`.
fn representation_of(
    flags: &Flags,
    fallback: eclat::Representation,
) -> Result<eclat::Representation, String> {
    let Some(raw) = representation_flag(flags) else {
        return Ok(fallback);
    };
    match raw.split_once(':') {
        None => match raw {
            "tidlist" => Ok(eclat::Representation::TidList),
            "diffset" => Ok(eclat::Representation::Diffset),
            "autoswitch" => Ok(eclat::Representation::AutoSwitch { depth: 2 }),
            "bitmap" => Ok(eclat::Representation::Bitmap),
            "auto-density" => Ok(eclat::Representation::AutoDensity {
                permille: eclat::DEFAULT_DENSITY_PERMILLE,
            }),
            other => Err(format!(
                "unknown representation '{other}' (tidlist|diffset|autoswitch[:DEPTH]|bitmap|auto-density[:PERMILLE])"
            )),
        },
        Some(("autoswitch", d)) => {
            let depth: u32 = d
                .parse()
                .map_err(|_| format!("bad autoswitch depth '{d}'"))?;
            Ok(eclat::Representation::AutoSwitch { depth })
        }
        Some(("auto-density", p)) => {
            let permille: u32 = p
                .parse()
                .map_err(|_| format!("bad auto-density permille '{p}'"))?;
            if permille > 1000 {
                return Err(format!(
                    "auto-density permille must be 0..=1000, got {permille}"
                ));
            }
            Ok(eclat::Representation::AutoDensity { permille })
        }
        Some((other, _)) => Err(format!(
            "unknown representation '{other}' (only autoswitch takes a :DEPTH, auto-density a :PERMILLE)"
        )),
    }
}

/// Per-size counts plus the top-supported itemsets — shared by `mine`
/// and `dmine` so their reports are identical after the headline.
fn render_frequent_body(fs: &FrequentSet, min_size: usize, top: usize) -> String {
    let mut out = String::new();
    let counts = fs.counts_by_size();
    for (k, c) in counts.iter().enumerate() {
        if *c > 0 {
            let _ = writeln!(out, "  size {:>2}: {c}", k + 1);
        }
    }
    let mut shown = 0usize;
    let _ = writeln!(out, "top by support (size >= {min_size}):");
    let mut sorted = fs.sorted();
    sorted.sort_by(|a, b| b.support.cmp(&a.support).then(a.itemset.cmp(&b.itemset)));
    for c in sorted {
        if c.itemset.len() >= min_size {
            let _ = writeln!(out, "  {:<40} {:>8}", format!("{}", c.itemset), c.support);
            shown += 1;
            if shown >= top {
                break;
            }
        }
    }
    out
}

/// The one mine-then-rules path of `rules`, `mine --out` and
/// `serve --input`: the full mine `stream --verify` checks against, on
/// the default configuration, singletons included.
fn mine_rules(db: &HorizontalDb, minsup: MinSupport, confidence: f64) -> eclat_stream::MinedState {
    eclat_stream::MinedState::full_mine(db, minsup, confidence, &eclat::EclatConfig::default())
}

/// Mine with singletons, generate rules, and persist everything as a
/// checksummed results snapshot (the `mine --out` path).
fn write_snapshot(
    db: &HorizontalDb,
    minsup: MinSupport,
    confidence: f64,
    path: &str,
) -> Result<String, String> {
    // Rule generation needs the complete downward-closed set, so the
    // snapshot is mined with singletons regardless of the display run.
    let mined = mine_rules(db, minsup, confidence);
    let snap = binfmt::ResultsSnapshot {
        num_transactions: mined.num_transactions,
        frequent: mined.frequent,
        rules: mined.rules,
        generation: 1,
    };
    let bytes = write_snapshot_atomic(&snap, path)?;
    Ok(format!(
        "snapshot: {} itemsets / {} rules, {bytes} bytes -> {path}\n",
        snap.frequent.len(),
        snap.rules.len()
    ))
}

fn cmd_mine(flags: &Flags) -> Result<String, String> {
    let db = load_db(flags)?;
    let minsup = support_of(flags)?;
    let algorithm = flags.get("algorithm").unwrap_or("eclat");
    let representation = representation_of(flags, eclat::EclatConfig::default().representation)?;
    let min_size: usize = flags.parse("min-size", 2usize)?;
    let top: usize = flags.parse("top", 20usize)?;
    let stats = stats_mode(flags)?;
    let trace_path = flags.get("trace");
    if trace_path.is_some() {
        arm_tracing(0);
    }

    // The eclat variants always mine with the stats report (its cost is a
    // few counters per phase and class); it is printed only under --stats,
    // which refuses apriori and clique, so their empty report never is.
    let t0 = std::time::Instant::now();
    let cfg = eclat::EclatConfig::with_representation(representation);
    let mut meter = OpMeter::new();
    let (fs, report) = match algorithm {
        _ if flags.has("maximal") => {
            eclat::maximal::mine_maximal_stats(&db, minsup, &cfg, &mut meter)
        }
        "eclat" => eclat::sequential::mine_stats(&db, minsup, &cfg, &mut meter),
        "parallel" => eclat::parallel::mine_stats(&db, minsup, &cfg, &mut meter),
        other if stats != StatsMode::Off => {
            return Err(format!(
                "--stats supports --algorithm eclat|parallel, not '{other}'"
            ))
        }
        "apriori" if representation_flag(flags).is_some() => {
            return Err("--representation applies to the eclat variants only".to_string())
        }
        "apriori" => (apriori::mine(&db, minsup), MiningStats::default()),
        "clique" => {
            let fs = eclat::clique::mine_with(&db, minsup, &cfg, &mut meter);
            (fs, MiningStats::default())
        }
        other => return Err(format!("unknown algorithm '{other}'")),
    };
    let dt = t0.elapsed().as_secs_f64();

    let snapshot_msg = match flags.get("out") {
        Some(path) => Some(write_snapshot(
            &db,
            minsup,
            confidence_of(flags, 0.5)?,
            path,
        )?),
        None => None,
    };
    let trace_msg = trace_path.map(write_trace).transpose()?;

    if stats == StatsMode::Json {
        let mut json = report.to_json(true);
        json.push('\n');
        return Ok(json);
    }

    let mut out = String::new();
    let kind = if flags.has("maximal") {
        "maximal frequent"
    } else {
        "frequent"
    };
    let _ = writeln!(
        out,
        "{} {kind} itemsets in {dt:.2}s ({algorithm})",
        fs.len()
    );
    out.push_str(&render_frequent_body(&fs, min_size, top));
    if let Some(msg) = snapshot_msg {
        out.push_str(&msg);
    }
    if let Some(msg) = trace_msg {
        out.push_str(&msg);
    }
    if stats == StatsMode::Human {
        out.push('\n');
        out.push_str(&report.render());
    }
    Ok(out)
}

fn cmd_rules(flags: &Flags) -> Result<String, String> {
    let db = load_db(flags)?;
    let minsup = support_of(flags)?;
    let confidence = confidence_of(flags, 0.8)?;
    let top: usize = flags.parse("top", 20usize)?;
    let mined = mine_rules(&db, minsup, confidence);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{} rules at confidence >= {confidence} (from {} frequent itemsets)",
        mined.rules.len(),
        mined.frequent.len()
    );
    for r in mined.rules.iter().take(top) {
        let _ = writeln!(
            out,
            "  {:<26} => {:<18} conf {:.3}  sup {:>6}  lift {:.2}",
            format!("{}", r.antecedent),
            format!("{}", r.consequent),
            r.confidence(),
            r.support,
            r.lift(db.num_transactions())
        );
    }
    Ok(out)
}

fn cmd_simulate(flags: &Flags) -> Result<String, String> {
    let db = load_db(flags)?;
    let minsup = support_of(flags)?;
    let hosts: usize = flags.parse("hosts", 8usize)?;
    let procs: usize = flags.parse("procs", 1usize)?;
    if hosts == 0 || procs == 0 {
        return Err("--hosts and --procs must be > 0".to_string());
    }
    let topo = ClusterConfig::new(hosts, procs);
    let cost = CostModel::dec_alpha_1997();
    let algorithm = flags.get("algorithm").unwrap_or("eclat");
    // The paper reproduction: tid-lists unless --repr says otherwise.
    let cfg = eclat::EclatConfig::with_representation(representation_of(
        flags,
        eclat::EclatConfig::paper().representation,
    )?);
    let stats = stats_mode(flags)?;
    let mut out = String::new();
    match algorithm {
        "eclat" | "hybrid" => {
            let rep = if algorithm == "hybrid" {
                eclat::hybrid::mine_hybrid(&db, minsup, &topo, &cost, &cfg)
            } else {
                eclat::cluster::mine_cluster(&db, minsup, &topo, &cost, &cfg)
            };
            if stats == StatsMode::Json {
                let mut json = rep.stats.to_json(true);
                json.push('\n');
                return Ok(json);
            }
            let _ = writeln!(
                out,
                "{algorithm} on {} — simulated {:.2}s (setup {:.2}s), |L2| = {}, {} frequent itemsets",
                topo.label(),
                rep.total_secs(),
                rep.setup_secs(),
                rep.num_l2,
                rep.frequent.len()
            );
            out.push_str(&memchannel::stats::render(&rep.timeline));
            if stats == StatsMode::Human {
                out.push('\n');
                out.push_str(&rep.stats.render());
            }
        }
        "countdist" => {
            if stats != StatsMode::Off {
                return Err("--stats supports --algorithm eclat|hybrid only".to_string());
            }
            let rep = parbase::mine_count_dist(&db, minsup, &topo, &cost, &Default::default());
            let _ = writeln!(
                out,
                "countdist on {} — simulated {:.2}s, {} iterations, {} frequent itemsets",
                topo.label(),
                rep.total_secs(),
                rep.iterations,
                rep.frequent.len()
            );
            out.push_str(&memchannel::stats::render(&rep.timeline));
        }
        other => return Err(format!("unknown algorithm '{other}'")),
    }
    Ok(out)
}

fn cmd_worker(flags: &Flags) -> Result<String, String> {
    let secs = serve_secs(flags)?;
    let cfg = eclat_net::WorkerConfig {
        listen: flags.get("listen").unwrap_or("127.0.0.1:0").to_string(),
        threads: flags.parse("threads", 1usize)?,
        mem_budget: flags.get("mem-budget").map(parse_mem_budget).transpose()?,
        trace: flags.get("trace").map(std::path::PathBuf::from),
        ..eclat_net::WorkerConfig::default()
    };
    let mut handle =
        eclat_net::start_worker(&cfg).map_err(|e| format!("bind {}: {e}", cfg.listen))?;
    let addr = handle.addr();
    let mut out = format!("worker listening on {addr}\n");
    write_port_file(flags, addr.port())?;
    let secs = wait_window(secs);
    handle.shutdown();
    let _ = writeln!(out, "worker shut down after {secs}s");
    Ok(out)
}

/// Child worker processes spawned by `dmine --spawn-local`, killed when
/// the coordinator finishes (or fails) so no strays outlive the run.
struct ChildGuard(Vec<std::process::Child>);

impl Drop for ChildGuard {
    fn drop(&mut self) {
        for child in &mut self.0 {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// Spawn `n` local `eclat worker` child processes on ephemeral ports and
/// return their addresses once each has published its port. `extra`
/// holds additional `worker` argv entries (e.g. `--threads`);
/// `trace_base` gives child `i` a per-process `--trace BASE.w{i}` file
/// for the coordinator to merge after the run.
fn spawn_local_workers(
    n: usize,
    extra: &[String],
    trace_base: Option<&str>,
    guard: &mut ChildGuard,
) -> Result<Vec<String>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locate own binary: {e}"))?;
    let mut addrs = Vec::with_capacity(n);
    for i in 0..n {
        let port_file =
            std::env::temp_dir().join(format!("eclat-dmine-{}-{i}.port", std::process::id()));
        let _ = std::fs::remove_file(&port_file);
        let mut cmd = std::process::Command::new(&exe);
        cmd.arg("worker")
            .arg("--listen")
            .arg("127.0.0.1:0")
            .arg("--port-file")
            .arg(&port_file)
            .args(extra);
        if let Some(base) = trace_base {
            cmd.arg("--trace").arg(format!("{base}.w{i}"));
        }
        let child = cmd
            .stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::null())
            .spawn()
            .map_err(|e| format!("spawn worker {i}: {e}"))?;
        guard.0.push(child);
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
        let port = loop {
            if let Ok(s) = std::fs::read_to_string(&port_file) {
                if let Ok(p) = s.trim().parse::<u16>() {
                    break p;
                }
            }
            if std::time::Instant::now() >= deadline {
                return Err(format!("worker {i} never published its port"));
            }
            std::thread::sleep(std::time::Duration::from_millis(10));
        };
        let _ = std::fs::remove_file(&port_file);
        addrs.push(format!("127.0.0.1:{port}"));
    }
    Ok(addrs)
}

fn cmd_dmine(flags: &Flags) -> Result<String, String> {
    let db = load_db(flags)?;
    let minsup = support_of(flags)?;
    let representation = representation_of(flags, eclat::EclatConfig::default().representation)?;
    let min_size: usize = flags.parse("min-size", 2usize)?;
    let top: usize = flags.parse("top", 20usize)?;
    let stats = stats_mode(flags)?;
    let trace = flags.get("trace").map(str::to_string);
    if trace.is_some() {
        // The coordinator mints the run id and stamps its own identity
        // inside mine_distributed; only the enable flag goes here.
        eclat_obs::trace::set_enabled(true);
    }

    // Per-worker execution knobs, forwarded verbatim to spawned
    // children. Pre-started `--workers` configure themselves, so the
    // flags are rejected there rather than silently ignored.
    let mut worker_args: Vec<String> = Vec::new();
    if let Some(raw) = flags.get("threads") {
        let _: usize = flags.parse("threads", 0usize)?;
        worker_args.extend(["--threads".to_string(), raw.to_string()]);
    }
    if let Some(raw) = flags.get("mem-budget") {
        parse_mem_budget(raw)?;
        worker_args.extend(["--mem-budget".to_string(), raw.to_string()]);
    }

    let mut guard = ChildGuard(Vec::new());
    let mut spawned = 0usize;
    let addrs: Vec<String> = if let Some(raw) = flags.get("workers") {
        if !worker_args.is_empty() {
            return Err(
                "dmine: --threads/--mem-budget apply to --spawn-local workers only; \
                 pass them to each `eclat worker` instead"
                    .to_string(),
            );
        }
        raw.split(',')
            .map(|s| s.trim().to_string())
            .filter(|s| !s.is_empty())
            .collect()
    } else {
        let n: usize = flags.parse("spawn-local", 0usize)?;
        if n == 0 {
            return Err(
                "dmine: need --workers HOST:PORT,... or --spawn-local N (N > 0)".to_string(),
            );
        }
        spawned = n;
        spawn_local_workers(n, &worker_args, trace.as_deref(), &mut guard)?
    };
    if addrs.is_empty() {
        return Err("dmine: --workers list is empty".to_string());
    }

    let dist_cfg = eclat_net::DistConfig {
        cfg: eclat::EclatConfig::with_representation(representation),
        ..eclat_net::DistConfig::default()
    };
    let t0 = std::time::Instant::now();
    let report =
        eclat_net::mine_distributed(&db, minsup, &addrs, &dist_cfg).map_err(|e| e.to_string())?;
    let dt = t0.elapsed().as_secs_f64();

    let trace_msg = match &trace {
        Some(base) => Some(merge_dmine_trace(base, spawned)?),
        None => None,
    };

    if stats == StatsMode::Json {
        let mut json = report.stats.to_json(true);
        json.push('\n');
        return Ok(json);
    }

    let mut out = String::new();
    let _ = writeln!(
        out,
        "{} frequent itemsets in {dt:.2}s (dist, {} workers, |L2| = {})",
        report.frequent.len(),
        report.num_workers,
        report.num_l2
    );
    out.push_str(&render_frequent_body(&report.frequent, min_size, top));
    if let Some(msg) = trace_msg {
        out.push_str(&msg);
    }
    if stats == StatsMode::Human {
        out.push('\n');
        out.push_str(&report.stats.render());
    }
    Ok(out)
}

/// Collect the coordinator's own trace plus the per-child worker trace
/// files written by `--spawn-local` children, merge everything into one
/// cluster timeline at `base`, and delete the partials. Workers write
/// their file when the mining session closes, which races the
/// coordinator receiving the final result frame — hence the poll.
fn merge_dmine_trace(base: &str, children: usize) -> Result<String, String> {
    let mut docs = vec![eclat_obs::trace::render_jsonl()];
    for i in 0..children {
        let path = format!("{base}.w{i}");
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        let doc = loop {
            match std::fs::read_to_string(&path) {
                Ok(s) if s.ends_with('\n') => break s,
                _ => {}
            }
            if std::time::Instant::now() >= deadline {
                return Err(format!("dmine: worker {i} never wrote its trace to {path}"));
            }
            std::thread::sleep(std::time::Duration::from_millis(10));
        };
        let _ = std::fs::remove_file(&path);
        docs.push(doc);
    }
    let merged = eclat_obs::trace::merge_jsonl(&docs).map_err(|e| format!("merge traces: {e}"))?;
    std::fs::write(base, &merged).map_err(|e| format!("write {base}: {e}"))?;
    let summary =
        eclat_obs::trace::validate_jsonl(&merged).map_err(|e| format!("validate {base}: {e}"))?;
    Ok(format!(
        "trace: {} processes / {} events / {} spans -> {base}\n",
        summary.processes, summary.events, summary.spans
    ))
}

/// Read a results snapshot into a serve dataset, plus the
/// `(generation, checksum)` identity the hot-reload poller keys on.
/// Generation alone is not enough: `mine --out` always writes
/// generation 1, so two successive full mines would look identical
/// without the payload checksum.
fn read_snapshot_dataset(path: &str) -> Result<(assoc_serve::Dataset, (u64, u64)), String> {
    let key = {
        let f = File::open(path).map_err(|e| format!("open {path}: {e}"))?;
        let (_, generation, checksum) = binfmt::peek_results_header(&mut BufReader::new(f))
            .map_err(|e| format!("read {path}: {e}"))?;
        (generation, checksum)
    };
    let f = File::open(path).map_err(|e| format!("open {path}: {e}"))?;
    let (snap, _) =
        binfmt::read_results(&mut BufReader::new(f)).map_err(|e| format!("read {path}: {e}"))?;
    let dataset = assoc_serve::Dataset {
        frequent: snap.frequent,
        rules: snap.rules,
        num_transactions: snap.num_transactions,
    };
    Ok((dataset, key))
}

/// Header-only snapshot identity probe (`None` on any I/O or format
/// error — the poller treats those as "try again next tick").
fn peek_snapshot_key(path: &str) -> Option<(u64, u64)> {
    let f = File::open(path).ok()?;
    let (_, generation, checksum) = binfmt::peek_results_header(&mut BufReader::new(f)).ok()?;
    Some((generation, checksum))
}

/// Write `snap` to `path` atomically: serialize next to it, then rename
/// over. A concurrent `serve --reload-secs` poller therefore only ever
/// sees complete snapshots.
fn write_snapshot_atomic(snap: &binfmt::ResultsSnapshot, path: &str) -> Result<u64, String> {
    let tmp = format!("{path}.tmp");
    {
        let f = File::create(&tmp).map_err(|e| format!("create {tmp}: {e}"))?;
        let mut w = BufWriter::new(f);
        binfmt::write_results(snap, &mut w).map_err(|e| format!("write {tmp}: {e}"))?;
    }
    let bytes = std::fs::metadata(&tmp).map_err(|e| e.to_string())?.len();
    std::fs::rename(&tmp, path).map_err(|e| format!("rename {tmp} -> {path}: {e}"))?;
    Ok(bytes)
}

fn cmd_stream(flags: &Flags) -> Result<String, String> {
    let db = load_db(flags)?;
    let minsup = support_of(flags)?;
    let batch: usize = flags.parse("batch", 0usize)?;
    if batch == 0 {
        return Err("--batch must be > 0".to_string());
    }
    let confidence = confidence_of(flags, 0.5)?;
    let representation = representation_of(flags, eclat::EclatConfig::default().representation)?;
    let stats = stats_mode(flags)?;
    let verify = flags.has("verify");
    let out_path = flags.get("out").map(str::to_string);
    let trace_path = flags.get("trace");
    if trace_path.is_some() {
        arm_tracing(0);
    }

    let cfg = eclat::EclatConfig::with_representation(representation);
    let mut engine =
        eclat_stream::StreamEngine::new(db.num_items(), minsup, confidence, cfg.clone());
    let mut run = eclat_stream::StreamStats {
        representation: format!("{representation}"),
        batch_size: batch as u64,
        ..Default::default()
    };
    let transactions: Vec<Vec<mining_types::ItemId>> = db.iter().map(|(_, t)| t.to_vec()).collect();

    let mut out = String::new();
    let t0 = std::time::Instant::now();
    let mut chunks = transactions.chunks(batch).peekable();
    let mut seen = 0usize;
    // An empty database still emits one (empty) batch so `--out` always
    // produces a serveable snapshot.
    let mut first = true;
    while first || chunks.peek().is_some() {
        first = false;
        let chunk = chunks.next().unwrap_or(&[]);
        seen += chunk.len();
        let bstats = engine.ingest_batch(chunk, &eclat::pipeline::Serial);
        if verify {
            let prefix = HorizontalDb::from_transactions(transactions[..seen].to_vec());
            let full = eclat_stream::MinedState::full_mine(&prefix, minsup, confidence, &cfg);
            if engine.state().frequent != full.frequent || engine.state().rules != full.rules {
                return Err(format!(
                    "--verify: incremental state diverged from the full re-mine \
                     after batch {} ({} transactions)",
                    bstats.batch, seen
                ));
            }
        }
        if let Some(path) = &out_path {
            write_snapshot_atomic(&engine.state().to_snapshot(), path)?;
        }
        if stats != StatsMode::Json {
            let _ = writeln!(
                out,
                "batch {:>3}: +{} txns (total {}) | {}/{} classes dirty (bound {}), \
                 {} carried, {} born, {} dropped | {} itemsets / {} rules | \
                 {:.3}s remine",
                bstats.batch,
                bstats.transactions,
                bstats.total_transactions,
                bstats.classes_dirty,
                bstats.classes_total,
                bstats.dirty_bound,
                bstats.classes_carried,
                bstats.classes_born,
                bstats.classes_dropped,
                bstats.itemsets,
                bstats.rules,
                bstats.remine_secs
            );
        }
        run.push(bstats);
    }
    let dt = t0.elapsed().as_secs_f64();
    let trace_msg = trace_path.map(write_trace).transpose()?;

    if stats == StatsMode::Json {
        let mut json = run.to_json();
        json.push('\n');
        return Ok(json);
    }
    let _ = writeln!(
        out,
        "streamed {} transactions in {} batches ({dt:.2}s): {} itemsets / {} rules at generation {}{}",
        run.total_transactions,
        run.generation,
        run.itemsets,
        run.rules,
        run.generation,
        if verify { " [verified]" } else { "" }
    );
    if let Some(path) = &out_path {
        let _ = writeln!(out, "snapshot -> {path}");
    }
    if let Some(msg) = trace_msg {
        out.push_str(&msg);
    }
    if stats == StatsMode::Human {
        out.push('\n');
        out.push_str(&run.to_json());
        out.push('\n');
    }
    Ok(out)
}

fn cmd_serve(flags: &Flags) -> Result<String, String> {
    let secs = serve_secs(flags)?;
    serve_until(flags, |_| {
        wait_window(secs);
    })
}

/// `serve`'s body: build or load the store, start the server and publish
/// its port, then serve until `stop` returns. `stop` is called with the
/// bound address once the server accepts connections; after it returns,
/// the server shuts down and the report is returned.
fn serve_until(flags: &Flags, stop: impl FnOnce(std::net::SocketAddr)) -> Result<String, String> {
    let cache: usize = flags.parse("cache", assoc_serve::DEFAULT_CACHE_ENTRIES)?;
    let workers: usize = flags.parse("workers", 8usize)?;
    if workers == 0 {
        return Err("--workers must be > 0".to_string());
    }

    let t0 = std::time::Instant::now();
    let mut snapshot_key = None;
    let dataset = if let Some(path) = flags.get("load") {
        // Boot from a persisted `mine --out` / `stream --out` snapshot —
        // no re-mining.
        let (dataset, key) = read_snapshot_dataset(path)?;
        snapshot_key = Some(key);
        dataset
    } else {
        let db = load_db(flags)?;
        let minsup = support_of(flags)?;
        let confidence = confidence_of(flags, 0.5)?;
        let mined = mine_rules(&db, minsup, confidence);
        assoc_serve::Dataset {
            frequent: mined.frequent,
            rules: mined.rules,
            num_transactions: mined.num_transactions,
        }
    };
    let store = std::sync::Arc::new(assoc_serve::Store::with_dataset(&dataset, cache));
    let built = t0.elapsed().as_secs_f64();

    let cfg = assoc_serve::ServerConfig {
        host: flags.get("host").unwrap_or("127.0.0.1").to_string(),
        port: flags.parse("port", 0u16)?,
        workers,
        ..assoc_serve::ServerConfig::default()
    };
    let handle = assoc_serve::start(std::sync::Arc::clone(&store), &cfg)
        .map_err(|e| format!("bind {}:{}: {e}", cfg.host, cfg.port))?;
    let addr = handle.local_addr();

    // --reload-secs: poll the loaded snapshot and hot-swap the store
    // whenever its (generation, checksum) identity changes. The peek is
    // header-only, so an idle poll costs one 36-byte read; torn or
    // half-renamed files simply fail the peek and are retried next tick.
    let reloader = match flags.get("reload-secs") {
        None => None,
        Some(raw) => {
            let secs: f64 = raw
                .parse()
                .map_err(|_| format!("--reload-secs: cannot parse '{raw}'"))?;
            if secs <= 0.0 || secs.is_nan() {
                return Err("--reload-secs must be > 0".to_string());
            }
            let path = flags
                .get("load")
                .ok_or_else(|| "--reload-secs requires --load SNAPSHOT".to_string())?
                .to_string();
            let mut last = snapshot_key.expect("--load sets the snapshot key");
            let store = std::sync::Arc::clone(&store);
            let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
            let stop_flag = std::sync::Arc::clone(&stop);
            let thread = std::thread::spawn(move || {
                while !stop_flag.load(std::sync::atomic::Ordering::Relaxed) {
                    std::thread::sleep(std::time::Duration::from_secs_f64(secs));
                    let Some(key) = peek_snapshot_key(&path) else {
                        continue;
                    };
                    if key == last {
                        continue;
                    }
                    let Ok((dataset, key)) = read_snapshot_dataset(&path) else {
                        continue;
                    };
                    let generation = store.reload(&dataset);
                    last = key;
                    eclat_obs::log_info!(
                        "eclat-serve",
                        "hot-reloaded {path} (snapshot generation {}, serving generation {generation})",
                        key.0
                    );
                }
            });
            Some((stop, thread))
        }
    };

    let mut out = String::new();
    let stats = store.serve_stats(None);
    let _ = writeln!(
        out,
        "serving {} itemsets / {} rules on {addr} ({workers} workers, built in {built:.2}s)",
        stats.itemsets, stats.rules
    );
    write_port_file(flags, addr.port())?;

    stop(addr);
    if let Some((stop, thread)) = reloader {
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        let _ = thread.join();
    }
    let counters = handle.shutdown();
    let _ = writeln!(
        out,
        "served {} connections / {} requests ({} protocol errors, {} timeouts, {} reloads)",
        counters.connections,
        counters.requests,
        counters.protocol_errors,
        counters.timeouts,
        store.reloads()
    );
    let cs = store.cache_stats();
    let _ = writeln!(
        out,
        "cache: {} hits / {} misses ({:.0}% hit rate)",
        cs.hits,
        cs.misses,
        cs.hit_rate() * 100.0
    );
    Ok(out)
}

fn cmd_query(flags: &Flags) -> Result<String, String> {
    let addr = flags.require("addr")?;
    let mut client =
        assoc_serve::Client::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    client
        .set_read_timeout(Some(std::time::Duration::from_secs(30)))
        .map_err(|e| e.to_string())?;
    let limit: u32 = flags.parse("limit", 20u32)?;
    let top: u32 = flags.parse("top", 10u32)?;
    let err = |e: std::io::Error| format!("query {addr}: {e}");

    let mut out = String::new();
    let mut ran = false;
    let list = |out: &mut String, items: Vec<mining_types::Counted>| {
        for c in items {
            let _ = writeln!(out, "  {:<40} {:>8}", format!("{}", c.itemset), c.support);
        }
    };

    if flags.has("ping") {
        client.ping().map_err(err)?;
        out.push_str("pong\n");
        ran = true;
    }
    if let Some(raw) = flags.get("support-of") {
        let q = parse_items("support-of", raw)?;
        match client.support(q.clone()).map_err(err)? {
            Some(s) => {
                let _ = writeln!(out, "support({q}) = {s}");
            }
            None => {
                let _ = writeln!(out, "support({q}) : not frequent");
            }
        }
        ran = true;
    }
    if let Some(raw) = flags.get("subsets-of") {
        let q = parse_items("subsets-of", raw)?;
        let v = client.subsets(q.clone(), limit).map_err(err)?;
        let _ = writeln!(out, "{} frequent subsets of {q}:", v.len());
        list(&mut out, v);
        ran = true;
    }
    if let Some(raw) = flags.get("supersets-of") {
        let q = parse_items("supersets-of", raw)?;
        let v = client.supersets(q.clone(), limit).map_err(err)?;
        let _ = writeln!(out, "{} frequent supersets of {q}:", v.len());
        list(&mut out, v);
        ran = true;
    }
    if let Some(raw) = flags.get("rules-for") {
        let q = parse_items("rules-for", raw)?;
        let v = client.rules_for(q.clone(), top).map_err(err)?;
        let _ = writeln!(out, "{} rules for antecedent {q}:", v.len());
        for r in v {
            let _ = writeln!(
                out,
                "  {q} => {:<18} conf {:.3}  sup {:>6}",
                format!("{}", r.consequent),
                r.confidence(),
                r.support
            );
        }
        ran = true;
    }
    if flags.get("topk").is_some() {
        let k: u32 = flags.parse("topk", 0u32)?;
        let size: u32 = flags.parse("size", 0u32)?;
        let v = client.top_k(size, k).map_err(err)?;
        let label = if size == 0 {
            "any size".to_string()
        } else {
            format!("size {size}")
        };
        let _ = writeln!(out, "top {} itemsets by support ({label}):", v.len());
        list(&mut out, v);
        ran = true;
    }
    if flags.has("server-stats") {
        let mut json = client.stats_json().map_err(err)?;
        json.push('\n');
        out.push_str(&json);
        ran = true;
    }
    if flags.has("metrics") {
        let text = client.metrics_text().map_err(err)?;
        out.push_str(&text);
        if !text.ends_with('\n') {
            out.push('\n');
        }
        ran = true;
    }
    if !ran {
        return Err(
            "query: nothing to do (use --ping, --support-of, --subsets-of, --supersets-of, \
             --rules-for, --topk, --server-stats, or --metrics)"
                .to_string(),
        );
    }
    Ok(out)
}

/// Validate trace JSONL files (merging first when several are given),
/// optionally writing the merged timeline and/or a Chrome `trace_event`
/// conversion.
fn cmd_trace(flags: &Flags) -> Result<String, String> {
    let inputs = flags.require("input")?;
    let mut docs = Vec::new();
    for path in inputs.split(',').map(str::trim).filter(|s| !s.is_empty()) {
        docs.push(std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?);
    }
    if docs.is_empty() {
        return Err("trace: --input lists no files".to_string());
    }
    let merged = if docs.len() == 1 {
        docs.pop().expect("one doc")
    } else {
        eclat_obs::trace::merge_jsonl(&docs).map_err(|e| format!("merge: {e}"))?
    };
    let summary = eclat_obs::trace::validate_jsonl(&merged)?;

    let mut out = String::new();
    let _ = writeln!(
        out,
        "valid trace: run {} / {} process(es) / {} events ({} spans, {} instants, {} dropped)",
        summary.run_id,
        summary.processes,
        summary.events,
        summary.spans,
        summary.instants,
        summary.dropped
    );
    let _ = writeln!(out, "  pids : {:?}", summary.pids);
    let _ = writeln!(out, "  names: {}", summary.names.join(", "));
    if let Some(path) = flags.get("merge") {
        std::fs::write(path, &merged).map_err(|e| format!("write {path}: {e}"))?;
        let _ = writeln!(out, "merged jsonl -> {path}");
    }
    if let Some(path) = flags.get("chrome") {
        let chrome = eclat_obs::trace::chrome_trace(&merged)?;
        std::fs::write(path, &chrome).map_err(|e| format!("write {path}: {e}"))?;
        let _ = writeln!(out, "chrome trace_event json -> {path}");
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(tokens: &[&str]) -> Vec<String> {
        tokens.iter().map(|s| s.to_string()).collect()
    }

    fn tempfile(tag: &str) -> String {
        std::env::temp_dir()
            .join(format!("eclat-cli-{tag}-{}.ech", std::process::id()))
            .to_string_lossy()
            .into_owned()
    }

    fn generate(path: &str, n: usize) {
        let out = run(&argv(&[
            "generate",
            "--out",
            path,
            "--transactions",
            &n.to_string(),
            "--seed",
            "3",
        ]))
        .unwrap();
        assert!(out.contains("generated T10.I6."), "{out}");
    }

    /// Run `serve` with `args` (flags only) in a thread until the
    /// returned sender sends or drops. Returns the bound address, the
    /// sender and the server thread, which yields the report; queries
    /// have no wall-clock window to fit in.
    fn spawn_serve(
        args: &[&str],
    ) -> (
        String,
        std::sync::mpsc::Sender<()>,
        std::thread::JoinHandle<Result<String, String>>,
    ) {
        let flags = parse_flags(&argv(args)).unwrap();
        let (addr_tx, addr_rx) = std::sync::mpsc::channel();
        let (stop_tx, stop_rx) = std::sync::mpsc::channel::<()>();
        let server = std::thread::spawn(move || {
            serve_until(&flags, |addr| {
                addr_tx.send(addr).unwrap();
                let _ = stop_rx.recv();
            })
        });
        match addr_rx.recv() {
            Ok(addr) => (addr.to_string(), stop_tx, server),
            Err(_) => panic!("server never listened: {:?}", server.join()),
        }
    }

    #[test]
    fn help_and_unknown_commands() {
        assert!(run(&argv(&["help"])).unwrap().contains("subcommands"));
        let err = run(&argv(&["frobnicate"])).unwrap_err();
        assert!(err.contains("unknown subcommand"));
        assert!(run(&[]).is_err());
    }

    #[test]
    fn unknown_flags_are_refused_by_name() {
        // Refused before the subcommand runs, so no file need exist.
        let err = run(&argv(&[
            "rules",
            "--input",
            "data.ech",
            "--support",
            "1",
            "--confidense",
            "0.9",
        ]))
        .unwrap_err();
        assert!(err.contains("rules: unknown flag --confidense"), "{err}");
        let err = run(&argv(&["serve", "--load", "snap.ecr", "--shards", "4"])).unwrap_err();
        assert!(err.contains("serve: unknown flag --shards"), "{err}");
        let err = run(&argv(&[
            "seq",
            "--input",
            "db.ecs",
            "--minsup",
            "5",
            "--verbose",
        ]))
        .unwrap_err();
        assert!(err.contains("seq: unknown flag --verbose"), "{err}");
    }

    /// The flags each subcommand's `usage()` entry names, in order of
    /// appearance.
    fn usage_flags() -> Vec<(String, std::collections::BTreeSet<String>)> {
        let text = usage();
        let body = text.split("subcommands:\n").nth(1).unwrap();
        let body = body.split("\n\n").next().unwrap();
        let mut named: Vec<(String, std::collections::BTreeSet<String>)> = Vec::new();
        for line in body.lines() {
            // An entry starts two spaces in; its continuations further.
            if !line.starts_with("   ") {
                let name = line.split_whitespace().next().unwrap();
                if named.last().map(|(n, _)| n.as_str()) != Some(name) {
                    named.push((name.to_string(), Default::default()));
                }
            }
            let flags = &mut named.last_mut().unwrap().1;
            flags.extend(
                line.split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
                    .filter_map(|token| token.strip_prefix("--"))
                    .map(str::to_string),
            );
        }
        named
    }

    #[test]
    fn every_usage_flag_is_taken_by_its_subcommand() {
        let named = usage_flags();
        let names: Vec<&str> = named.iter().map(|(n, _)| n.as_str()).collect();
        let commands: Vec<&str> = COMMANDS.iter().map(|(n, ..)| *n).collect();
        assert_eq!(names, commands);
        for ((name, flags), &(_, _, known)) in named.iter().zip(COMMANDS) {
            let mut expected = flags.clone();
            for (flag, alias) in [("support", "minsup"), ("representation", "repr")] {
                if flags.contains(flag) {
                    expected.insert(alias.to_string());
                }
            }
            let known: std::collections::BTreeSet<String> =
                known.split_whitespace().map(str::to_string).collect();
            assert_eq!(known, expected, "{name}: flags taken vs named in usage()");
            for flag in &expected {
                let args = argv(&[&format!("--{flag}"), "1"]);
                assert!(resolve(name, &args).is_ok(), "{name} refuses --{flag}");
            }
        }
    }

    #[test]
    fn generate_stats_mine_rules_simulate_pipeline() {
        let path = tempfile("pipe");
        generate(&path, 3000);

        let stats = run(&argv(&["stats", "--input", &path])).unwrap();
        assert!(stats.contains("transactions : 3000"), "{stats}");
        assert!(stats.contains("length histogram"));

        let mined = run(&argv(&[
            "mine",
            "--input",
            &path,
            "--support",
            "0.5",
            "--top",
            "5",
        ]))
        .unwrap();
        assert!(mined.contains("frequent itemsets"), "{mined}");
        assert!(mined.contains("size  2:"), "{mined}");

        let rules = run(&argv(&[
            "rules",
            "--input",
            &path,
            "--support",
            "0.5",
            "--confidence",
            "0.7",
        ]))
        .unwrap();
        assert!(rules.contains("rules at confidence"), "{rules}");

        let sim = run(&argv(&[
            "simulate",
            "--input",
            &path,
            "--support",
            "0.5",
            "--hosts",
            "2",
            "--procs",
            "2",
        ]))
        .unwrap();
        assert!(sim.contains("simulated"), "{sim}");
        assert!(sim.contains("init"), "{sim}");

        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn algorithms_agree_via_cli() {
        let path = tempfile("algos");
        generate(&path, 2000);
        let base = run(&argv(&["mine", "--input", &path, "--support", "0.5"])).unwrap();
        for algo in ["parallel", "apriori", "clique"] {
            let out = run(&argv(&[
                "mine",
                "--input",
                &path,
                "--support",
                "0.5",
                "--algorithm",
                algo,
            ]))
            .unwrap();
            // same per-size breakdown lines (apriori adds size-1 row)
            for line in base.lines().filter(|l| l.trim_start().starts_with("size")) {
                assert!(out.contains(line.trim()), "{algo} missing {line}");
            }
        }
        let maximal = run(&argv(&[
            "mine",
            "--input",
            &path,
            "--support",
            "0.5",
            "--maximal",
        ]))
        .unwrap();
        assert!(maximal.contains("maximal frequent"), "{maximal}");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn error_paths() {
        assert!(run(&argv(&["mine", "--support", "1"]))
            .unwrap_err()
            .contains("--input"));
        assert!(run(&argv(&[
            "mine",
            "--input",
            "/nonexistent",
            "--support",
            "1"
        ]))
        .unwrap_err()
        .contains("open"));
        let path = tempfile("err");
        generate(&path, 100);
        assert!(run(&argv(&["mine", "--input", &path, "--support", "200"]))
            .unwrap_err()
            .contains("[0, 100]"));
        assert!(run(&argv(&[
            "mine",
            "--input",
            &path,
            "--support",
            "1",
            "--algorithm",
            "bogus"
        ]))
        .unwrap_err()
        .contains("unknown algorithm"));
        // --repr applies to the eclat variants only, whatever its value
        // (the default's own included).
        for repr in ["tidlist", "auto-density", "bitmap"] {
            assert!(
                run(&argv(&[
                    "mine",
                    "--input",
                    &path,
                    "--support",
                    "1",
                    "--algorithm",
                    "apriori",
                    "--repr",
                    repr
                ]))
                .unwrap_err()
                .contains("eclat variants only"),
                "apriori accepted --repr {repr}"
            );
        }
        assert!(run(&argv(&["generate", "--out", "/tmp/x.ech"]))
            .unwrap_err()
            .contains("--transactions"));
        assert!(run(&argv(&[
            "simulate",
            "--input",
            &path,
            "--support",
            "1",
            "--hosts",
            "0"
        ]))
        .unwrap_err()
        .contains("must be > 0"));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn stats_flag_on_mine_and_simulate() {
        let path = tempfile("stats");
        generate(&path, 1500);
        let human = run(&argv(&[
            "mine",
            "--input",
            &path,
            "--support",
            "0.5",
            "--stats",
        ]))
        .unwrap();
        assert!(
            human.contains("mining stats: eclat / sequential / auto-density:20"),
            "{human}"
        );
        assert!(human.contains("phases:"), "{human}");
        assert!(human.contains("kernel:"), "{human}");

        let json = run(&argv(&[
            "mine",
            "--input",
            &path,
            "--support",
            "0.5",
            "--algorithm",
            "parallel",
            "--stats=json",
        ]))
        .unwrap();
        assert!(
            json.starts_with('{') && json.trim_end().ends_with('}'),
            "{json}"
        );
        assert!(json.contains("\"variant\":\"parallel\""), "{json}");
        assert!(json.contains("\"cluster\":null"), "{json}");

        let sim = run(&argv(&[
            "simulate",
            "--input",
            &path,
            "--support",
            "0.5",
            "--hosts",
            "2",
            "--procs",
            "2",
            "--stats=json",
        ]))
        .unwrap();
        assert!(sim.contains("\"variant\":\"cluster\""), "{sim}");
        assert!(sim.contains("\"load_imbalance\""), "{sim}");
        // The simulated cluster reproduces the paper on tid-lists.
        assert!(sim.contains("\"representation\":\"tidlist\""), "{sim}");

        // Stats are gated to the variants that produce them.
        assert!(run(&argv(&[
            "mine",
            "--input",
            &path,
            "--support",
            "0.5",
            "--algorithm",
            "apriori",
            "--stats",
        ]))
        .unwrap_err()
        .contains("eclat|parallel"));
        assert!(run(&argv(&[
            "simulate",
            "--input",
            &path,
            "--support",
            "0.5",
            "--algorithm",
            "countdist",
            "--stats",
        ]))
        .unwrap_err()
        .contains("eclat|hybrid"));
        assert!(run(&argv(&[
            "mine",
            "--input",
            &path,
            "--support",
            "0.5",
            "--stats=yaml",
        ]))
        .unwrap_err()
        .contains("--stats"));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn maximal_works_across_representations() {
        let path = tempfile("maxrep");
        generate(&path, 300);
        // The headline embeds wall time, so compare count + body only.
        let split = |s: String| {
            let count = s.split(' ').next().unwrap().to_string();
            let body = s.lines().skip(1).collect::<Vec<_>>().join("\n");
            (count, body)
        };
        let base = split(
            run(&argv(&[
                "mine",
                "--input",
                &path,
                "--support",
                "1",
                "--maximal",
            ]))
            .unwrap(),
        );
        for repr in [
            "diffset",
            "autoswitch:0",
            "autoswitch:2",
            "bitmap",
            "auto-density",
            "auto-density:1000",
        ] {
            let out = split(
                run(&argv(&[
                    "mine",
                    "--input",
                    &path,
                    "--support",
                    "1",
                    "--maximal",
                    "--repr",
                    repr,
                ]))
                .unwrap(),
            );
            assert_eq!(out, base, "representation {repr} diverged");
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn mine_agrees_across_bitmap_and_auto_density() {
        let path = tempfile("bitmaprep");
        generate(&path, 300);
        let base = run(&argv(&["mine", "--input", &path, "--support", "1"])).unwrap();
        let body = |s: String| s.lines().skip(1).collect::<Vec<_>>().join("\n");
        let base_body = body(base);
        for repr in [
            "tidlist",
            "bitmap",
            "auto-density",
            "auto-density:0",
            "auto-density:8",
        ] {
            let out = run(&argv(&[
                "mine",
                "--input",
                &path,
                "--support",
                "1",
                "--repr",
                repr,
            ]))
            .unwrap();
            assert_eq!(body(out), base_body, "representation {repr} diverged");
        }
        // Stats JSON carries the stable representation name.
        let out = run(&argv(&[
            "mine",
            "--input",
            &path,
            "--support",
            "1",
            "--repr",
            "auto-density",
            "--stats=json",
        ]))
        .unwrap();
        assert!(
            out.contains("\"representation\":\"auto-density:20\""),
            "{out}"
        );
        // Bad values are rejected with the full menu.
        for bad in ["auto-density:1001", "auto-density:x", "bitmaps"] {
            assert!(
                run(&argv(&[
                    "mine",
                    "--input",
                    &path,
                    "--support",
                    "1",
                    "--repr",
                    bad
                ]))
                .is_err(),
                "{bad} should be rejected"
            );
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn maximal_stats_json_reports_switch_events() {
        let path = tempfile("maxstats");
        generate(&path, 300);
        let out = run(&argv(&[
            "mine",
            "--input",
            &path,
            "--support",
            "1",
            "--maximal",
            "--repr",
            "diffset",
            "--stats=json",
        ]))
        .unwrap();
        assert!(out.contains("\"algorithm\":\"maxeclat\""), "{out}");
        assert!(out.contains("\"representation\":\"diffset\""), "{out}");
        assert!(out.contains("\"switch_events\""), "{out}");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn serve_and_query_round_trip() {
        let path = tempfile("serve");
        generate(&path, 1200);
        let port_file = std::env::temp_dir()
            .join(format!("eclat-cli-port-{}.txt", std::process::id()))
            .to_string_lossy()
            .into_owned();
        let _ = std::fs::remove_file(&port_file);

        // 0.8 % of 1 200 is 10 transactions: 715 itemsets and 102 rules,
        // and the most frequent singleton keeps frequent supersets (its
        // best pairs have support 10, so 1 % would leave it alone).
        let (addr, stop, server) = spawn_serve(&[
            "--input",
            &path,
            "--support",
            "0.8",
            "--confidence",
            "0.9",
            "--port",
            "0",
            "--port-file",
            &port_file,
        ]);
        // The ephemeral port is published before the server listens.
        let port = std::fs::read_to_string(&port_file).unwrap();
        assert_eq!(format!("127.0.0.1:{}", port.trim()), addr);

        let ping = run(&argv(&["query", "--addr", &addr, "--ping"])).unwrap();
        assert_eq!(ping, "pong\n");

        let sup = run(&argv(&["query", "--addr", &addr, "--support-of", "999999"])).unwrap();
        assert!(sup.contains("not frequent"), "{sup}");

        let topk = run(&argv(&[
            "query", "--addr", &addr, "--topk", "3", "--size", "1",
        ]))
        .unwrap();
        assert!(
            topk.contains("top 3 itemsets by support (size 1)"),
            "{topk}"
        );
        // Probe the most frequent singleton back through the other queries.
        let best: Vec<u32> = topk
            .lines()
            .nth(1)
            .unwrap()
            .trim()
            .trim_start_matches('{')
            .split('}')
            .next()
            .unwrap()
            .split_whitespace()
            .map(|t| t.parse().unwrap())
            .collect();
        let best_list = best
            .iter()
            .map(|i| i.to_string())
            .collect::<Vec<_>>()
            .join(",");
        let sup = run(&argv(&[
            "query",
            "--addr",
            &addr,
            "--support-of",
            &best_list,
        ]))
        .unwrap();
        assert!(sup.contains("support("), "{sup}");
        let sups = run(&argv(&[
            "query",
            "--addr",
            &addr,
            "--supersets-of",
            &best_list,
            "--limit",
            "5",
        ]))
        .unwrap();
        assert!(sups.contains("frequent supersets of"), "{sups}");
        // The singleton itself and at least one proper superset.
        let found: usize = sups.split_whitespace().next().unwrap().parse().unwrap();
        assert!(found >= 2, "{sups}");

        let stats = run(&argv(&["query", "--addr", &addr, "--server-stats"])).unwrap();
        assert!(stats.contains("\"cache\""), "{stats}");
        assert!(stats.contains("\"server\":{"), "{stats}");
        assert!(stats.contains("\"queries\":[{\"query\":\"all\""), "{stats}");

        let metrics = run(&argv(&["query", "--addr", &addr, "--metrics"])).unwrap();
        assert!(
            metrics.contains("# TYPE eclat_serve_requests_total counter"),
            "{metrics}"
        );
        assert!(
            metrics.contains("eclat_serve_latency_seconds{query=\"all\",quantile=\"0.99\"}"),
            "{metrics}"
        );
        let all_requests: u64 = metrics
            .lines()
            .find_map(|l| l.strip_prefix("eclat_serve_requests_total{query=\"all\"} "))
            .expect("aggregate request counter")
            .trim()
            .parse()
            .unwrap();
        assert!(all_requests >= 6, "{metrics}");

        assert!(run(&argv(&["query", "--addr", &addr]))
            .unwrap_err()
            .contains("nothing to do"));

        stop.send(()).unwrap();
        let report = server.join().unwrap().unwrap();
        assert!(report.contains("serving"), "{report}");
        assert!(report.contains("connections"), "{report}");
        std::fs::remove_file(&path).unwrap();
        std::fs::remove_file(&port_file).unwrap();
    }

    #[test]
    fn dmine_matches_mine_modulo_headline() {
        let path = tempfile("dmine");
        generate(&path, 1500);
        let mined = run(&argv(&["mine", "--input", &path, "--support", "0.5"])).unwrap();

        // In-process workers: `--spawn-local` needs the real binary, but
        // `--workers` happily coordinates threads in this test process.
        let workers: Vec<_> = (0..3)
            .map(|_| eclat_net::start_worker(&eclat_net::WorkerConfig::default()).unwrap())
            .collect();
        let addrs = workers
            .iter()
            .map(|w| w.addr().to_string())
            .collect::<Vec<_>>()
            .join(",");
        let dmined = run(&argv(&[
            "dmine",
            "--input",
            &path,
            "--support",
            "0.5",
            "--workers",
            &addrs,
        ]))
        .unwrap();

        let tail = |s: &str| s.lines().skip(1).collect::<Vec<_>>().join("\n");
        assert_eq!(tail(&mined), tail(&dmined), "mine/dmine reports diverged");
        assert!(dmined.contains("(dist, 3 workers"), "{dmined}");

        let json = run(&argv(&[
            "dmine",
            "--input",
            &path,
            "--support",
            "0.5",
            "--workers",
            &addrs,
            "--stats=json",
        ]))
        .unwrap();
        assert!(json.contains("\"variant\":\"dist\""), "{json}");
        assert!(json.contains("\"cluster\":{"), "{json}");
        assert!(json.contains("\"load_imbalance\""), "{json}");

        assert!(run(&argv(&["dmine", "--input", &path, "--support", "0.5"]))
            .unwrap_err()
            .contains("--workers"));

        // Execution knobs only make sense for workers dmine itself spawns.
        let err = run(&argv(&[
            "dmine",
            "--input",
            &path,
            "--support",
            "0.5",
            "--workers",
            &addrs,
            "--threads",
            "2",
        ]))
        .unwrap_err();
        assert!(err.contains("--spawn-local"), "{err}");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn dmine_hybrid_spilling_workers_match_mine() {
        let path = tempfile("dminehy");
        generate(&path, 1500);
        let mined = run(&argv(&["mine", "--input", &path, "--support", "0.5"])).unwrap();

        // In-process equivalents of `--spawn-local 2 --threads 2
        // --mem-budget 0`: multithreaded workers whose every class
        // spills through the out-of-core store.
        let workers: Vec<_> = (0..2)
            .map(|_| {
                eclat_net::start_worker(&eclat_net::WorkerConfig {
                    threads: 2,
                    mem_budget: Some(0),
                    ..eclat_net::WorkerConfig::default()
                })
                .unwrap()
            })
            .collect();
        let addrs = workers
            .iter()
            .map(|w| w.addr().to_string())
            .collect::<Vec<_>>()
            .join(",");
        let tail = |s: &str| s.lines().skip(1).collect::<Vec<_>>().join("\n");
        // Every wire-encodable representation must survive the hybrid
        // spilling round trip bit-identically (bodies differ only in the
        // header line naming the runtime).
        for repr in ["tidlist", "diffset", "bitmap", "auto-density:8"] {
            let dmined = run(&argv(&[
                "dmine",
                "--input",
                &path,
                "--support",
                "0.5",
                "--repr",
                repr,
                "--workers",
                &addrs,
            ]))
            .unwrap();
            assert_eq!(
                tail(&mined),
                tail(&dmined),
                "hybrid spill run diverged for --repr {repr}"
            );
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn snapshot_round_trip_through_serve() {
        let path = tempfile("snapdb");
        generate(&path, 1200);
        let snap = std::env::temp_dir()
            .join(format!("eclat-cli-snap-{}.ecr", std::process::id()))
            .to_string_lossy()
            .into_owned();

        let mined = run(&argv(&[
            "mine",
            "--input",
            &path,
            "--support",
            "0.5",
            "--confidence",
            "0.3",
            "--out",
            &snap,
        ]))
        .unwrap();
        assert!(mined.contains("snapshot:"), "{mined}");
        assert!(mined.contains(&snap), "{mined}");

        // A corrupt snapshot is rejected with a checksum diagnostic.
        let mut bytes = std::fs::read(&snap).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        let bad = std::env::temp_dir()
            .join(format!("eclat-cli-snapbad-{}.ecr", std::process::id()))
            .to_string_lossy()
            .into_owned();
        std::fs::write(&bad, &bytes).unwrap();
        let err = run(&argv(&["serve", "--load", &bad])).unwrap_err();
        assert!(err.contains("checksum"), "{err}");
        std::fs::remove_file(&bad).unwrap();

        let (addr, stop, server) = spawn_serve(&["--load", &snap, "--port", "0"]);

        let ping = run(&argv(&["query", "--addr", &addr, "--ping"])).unwrap();
        assert_eq!(ping, "pong\n");
        let topk = run(&argv(&[
            "query", "--addr", &addr, "--topk", "3", "--size", "1",
        ]))
        .unwrap();
        assert!(topk.contains("top 3 itemsets"), "{topk}");
        let stats = run(&argv(&["query", "--addr", &addr, "--server-stats"])).unwrap();
        assert!(stats.contains("\"itemsets\""), "{stats}");

        stop.send(()).unwrap();
        let report = server.join().unwrap().unwrap();
        assert!(report.contains("serving"), "{report}");
        std::fs::remove_file(&path).unwrap();
        std::fs::remove_file(&snap).unwrap();
    }

    #[test]
    fn stream_incremental_matches_mine_snapshot() {
        let path = tempfile("streamdb");
        generate(&path, 1200);
        let snap_stream = std::env::temp_dir()
            .join(format!("eclat-cli-streamsnap-{}.ecr", std::process::id()))
            .to_string_lossy()
            .into_owned();
        let snap_full = std::env::temp_dir()
            .join(format!("eclat-cli-fullsnap-{}.ecr", std::process::id()))
            .to_string_lossy()
            .into_owned();

        let streamed = run(&argv(&[
            "stream",
            "--input",
            &path,
            "--support",
            "1",
            "--batch",
            "400",
            "--confidence",
            "0.3",
            "--out",
            &snap_stream,
            "--verify",
        ]))
        .unwrap();
        assert!(streamed.contains("[verified]"), "{streamed}");
        assert!(streamed.contains("classes dirty"), "{streamed}");
        assert!(
            streamed.contains("streamed 1200 transactions in 3 batches"),
            "{streamed}"
        );

        let mined = run(&argv(&[
            "mine",
            "--input",
            &path,
            "--support",
            "1",
            "--confidence",
            "0.3",
            "--out",
            &snap_full,
        ]))
        .unwrap();
        assert!(mined.contains("snapshot:"), "{mined}");

        let read = |p: &str| {
            let f = File::open(p).unwrap();
            binfmt::read_results(&mut BufReader::new(f)).unwrap().0
        };
        let incremental = read(&snap_stream);
        let full = read(&snap_full);
        assert_eq!(incremental.frequent, full.frequent);
        assert_eq!(incremental.rules, full.rules);
        assert_eq!(incremental.num_transactions, full.num_transactions);
        assert_eq!(incremental.generation, 3, "one generation per batch");
        assert_eq!(full.generation, 1, "mine --out always writes generation 1");

        let json = run(&argv(&[
            "stream",
            "--input",
            &path,
            "--support",
            "1",
            "--batch",
            "500",
            "--stats=json",
        ]))
        .unwrap();
        assert!(
            json.starts_with(
                "{\"schema_version\":1,\"algorithm\":\"eclat\",\"variant\":\"stream\""
            ),
            "{json}"
        );
        assert!(json.contains("\"batches\":[{\"batch\":0,"), "{json}");
        assert!(json.contains("\"classes_dirty\""), "{json}");

        assert!(
            run(&argv(&["stream", "--input", &path, "--support", "0.5"]))
                .unwrap_err()
                .contains("--batch")
        );

        std::fs::remove_file(&path).unwrap();
        std::fs::remove_file(&snap_stream).unwrap();
        std::fs::remove_file(&snap_full).unwrap();
    }

    /// Satellite loopback: overwrite the loaded snapshot while queries
    /// are in flight and assert the server switches from the old answers
    /// to the new ones exactly once, with no mixed or stale responses.
    #[test]
    fn serve_hot_reload_loopback() {
        use mining_types::Itemset;

        let make = |bump: u32, generation: u64| {
            let frequent: FrequentSet = [
                (Itemset::of(&[1]), 10 + bump),
                (Itemset::of(&[2]), 8 + bump),
                (Itemset::of(&[1, 2]), 5 + bump),
            ]
            .into_iter()
            .collect();
            let rules = assoc_rules::generate(&frequent, 0.0);
            binfmt::ResultsSnapshot {
                num_transactions: 100,
                frequent,
                rules,
                generation,
            }
        };
        let snap = std::env::temp_dir()
            .join(format!("eclat-cli-reload-{}.ecr", std::process::id()))
            .to_string_lossy()
            .into_owned();
        write_snapshot_atomic(&make(0, 1), &snap).unwrap();

        let (addr, stop, server) =
            spawn_serve(&["--load", &snap, "--port", "0", "--reload-secs", "0.05"]);

        let support_of_12 = || -> u32 {
            let out = run(&argv(&["query", "--addr", &addr, "--support-of", "1,2"])).unwrap();
            out.trim()
                .rsplit("= ")
                .next()
                .unwrap()
                .parse()
                .unwrap_or_else(|_| panic!("unparseable support answer: {out}"))
        };

        assert_eq!(
            support_of_12(),
            5,
            "pre-reload answers come from snapshot 1"
        );
        write_snapshot_atomic(&make(100, 2), &snap).unwrap();

        // Keep querying through the swap; answers must be a run of old
        // values followed by a run of new values — never anything else,
        // never old again after the first new.
        let mut observed = Vec::new();
        let flip_deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        loop {
            let s = support_of_12();
            observed.push(s);
            if s == 105 {
                break;
            }
            assert!(
                std::time::Instant::now() < flip_deadline,
                "reload never observed: {observed:?}"
            );
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        let first_new = observed.iter().position(|&s| s == 105).unwrap();
        assert!(
            observed[..first_new].iter().all(|&s| s == 5)
                && observed[first_new..].iter().all(|&s| s == 105),
            "mixed-generation answers: {observed:?}"
        );
        assert_eq!(support_of_12(), 105, "post-reload answers stick");

        let stats = run(&argv(&["query", "--addr", &addr, "--server-stats"])).unwrap();
        assert!(stats.contains("\"reloads\":1"), "{stats}");
        assert!(stats.contains("\"generation\":2"), "{stats}");

        stop.send(()).unwrap();
        let report = server.join().unwrap().unwrap();
        assert!(report.contains("1 reloads"), "{report}");
        std::fs::remove_file(&snap).unwrap();
    }

    #[test]
    fn seq_generate_mine_verify_pipeline() {
        let path = std::env::temp_dir()
            .join(format!("eclat-cli-seq-{}.ecs", std::process::id()))
            .to_string_lossy()
            .into_owned();
        let out = run(&argv(&[
            "generate",
            "--out",
            &path,
            "--sequences",
            "300",
            "--family",
            "c10t4",
            "--seed",
            "7",
        ]))
        .unwrap();
        assert!(out.contains("generated C10.T4.S4.I2.D300"), "{out}");

        // Mine under all three policies; reports must be byte-identical
        // after the wall-clock headline.
        let tail = |s: &str| s.lines().skip(1).collect::<Vec<_>>().join("\n");
        let base = run(&argv(&[
            "seq", "--input", &path, "--minsup", "4", "--verify",
        ]))
        .unwrap();
        assert!(base.contains("frequent sequences"), "{base}");
        assert!(base.contains("[verified]"), "{base}");
        assert!(base.contains("len  2:"), "{base}");
        for policy in ["rayon", "threads:3"] {
            let par = run(&argv(&[
                "seq", "--input", &path, "--minsup", "4", "--policy", policy,
            ]))
            .unwrap();
            assert_eq!(tail(&par), tail(&base), "policy {policy} diverged");
        }

        // --maxlen caps pattern length; --support is accepted too.
        let capped = run(&argv(&[
            "seq",
            "--input",
            &path,
            "--support",
            "4",
            "--maxlen",
            "2",
        ]))
        .unwrap();
        assert!(!capped.contains("len  3:"), "{capped}");

        // Stats JSON pins the spade algorithm tag and policy variant.
        let json = run(&argv(&[
            "seq",
            "--input",
            &path,
            "--minsup",
            "4",
            "--policy",
            "rayon",
            "--stats=json",
        ]))
        .unwrap();
        assert!(
            json.starts_with("{\"schema_version\":1,\"algorithm\":\"spade\""),
            "{json}"
        );
        assert!(json.contains("\"variant\":\"rayon\""), "{json}");
        assert!(json.contains("\"by_len\":[{\"len\":1,"), "{json}");

        // --out persists a checksummed snapshot that round-trips.
        let snap = std::env::temp_dir()
            .join(format!("eclat-cli-seq-{}.ecq", std::process::id()))
            .to_string_lossy()
            .into_owned();
        let out = run(&argv(&[
            "seq", "--input", &path, "--minsup", "4", "--out", &snap,
        ]))
        .unwrap();
        assert!(out.contains("snapshot:"), "{out}");
        let f = File::open(&snap).unwrap();
        let ((n, patterns), _) = dbstore::seqfmt::read_seq_results(&mut BufReader::new(f)).unwrap();
        assert_eq!(n, 300);
        assert!(!patterns.is_empty());

        // Errors keep the shared parser's vocabulary.
        assert!(run(&argv(&["seq", "--input", &path]))
            .unwrap_err()
            .contains("--support"));
        assert!(run(&argv(&[
            "seq", "--input", &path, "--minsup", "4", "--policy", "bogus"
        ]))
        .unwrap_err()
        .contains("unknown policy"));
        assert!(
            run(&argv(&["generate", "--out", &path, "--sequences", "0"]))
                .unwrap_err()
                .contains("--sequences")
        );

        std::fs::remove_file(&path).unwrap();
        std::fs::remove_file(&snap).unwrap();
    }
}
