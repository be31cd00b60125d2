//! Wall-clock benchmark of the mining path.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload mine-sparse|mine-dense|stream|all --seed N --seconds S --trace 0|1
//! ```
//!
//! Each workload runs in its own process (`all` starts one child process
//! per workload `BENCHMARK.json` lists — `mine-dense` and `stream` — and
//! waits for each; `mine-sparse` runs only when named, see the README).
//! With `--trace 0` the run measures the end-to-end metrics with no
//! tracing; with `--trace 1` it runs the same inputs with spans around
//! every call into a layer and reports the per-layer metrics.
//! Human-readable lines come first; the last line of standard output is
//! one JSON object:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value":…,"unit":…}}}`.
//! Inputs are generated from `--seed` only; the input file lives in
//! `perfbench/work/` and is removed at exit, span dumps stay there.

mod input;
mod mine;
mod report;
mod stream;
mod trace;

use mining_types::json::Obj;
use report::Report;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

/// The workloads `BENCHMARK.json` lists, in the order `all` runs them.
const WORKLOADS: [&str; 2] = ["mine-dense", "stream"];

/// Runs only when named: its run-to-run spread on a shared host exceeds
/// the benchmark's bounds, so `BENCHMARK.json` leaves it out.
const EXTRA_WORKLOADS: [&str; 1] = ["mine-sparse"];

/// End-to-end metrics (`--trace 0`), every workload: name and unit.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("p50_ms", "ms"),
    ("p99_ms", "ms"),
    ("throughput", "txn/s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics (`--trace 1`): name and unit. A layer the workload's
/// operation never calls reads 0.
const PER_LAYER: [(&str, &str); 29] = [
    ("dbstore.load_s", "s"),
    ("init.busy_s", "s"),
    ("init.pair_incr", "count"),
    ("transform.busy_s", "s"),
    ("transform.tid_bytes", "B"),
    ("async.busy_s", "s"),
    ("async.class_s", "s"),
    ("executor.idle_frac", "fraction"),
    ("executor.idle_frac_lpt", "fraction"),
    ("kernel.joins", "count"),
    ("kernel.tid_cmp", "count"),
    ("kernel.useful_frac", "fraction"),
    ("kernel.ns_per_join", "ns"),
    ("kernel.tidlist.class_s", "s"),
    ("kernel.tidlist-gallop.class_s", "s"),
    ("kernel.diffset.class_s", "s"),
    ("kernel.autoswitch-2.class_s", "s"),
    ("kernel.bitmap.class_s", "s"),
    ("kernel.auto-density-8.class_s", "s"),
    ("stream.ingest_s", "s"),
    ("stream.remine_s", "s"),
    ("stream.merge_s", "s"),
    ("stream.dirty_frac", "fraction"),
    ("stream.changed_pairs", "count"),
    ("rules.busy_s", "s"),
    ("rules.count", "count"),
    ("dbstore.encode_s", "s"),
    ("dbstore.snapshot_bytes", "B"),
    ("trace.overhead_frac", "fraction"),
];

/// Files one run reads and writes, all under `perfbench/work/`.
pub struct Paths {
    /// The generated input database (removed at exit).
    pub input: PathBuf,
    /// Span dump of a traced run (kept).
    pub spans: PathBuf,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    let known = WORKLOADS.iter().chain(&EXTRA_WORKLOADS);
    if workload != "all" && !known.clone().any(|w| *w == workload) {
        return Err(format!(
            "unknown workload {workload}; expected one of {:?} or all",
            known.collect::<Vec<_>>()
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

/// The checkout's commit, read from `.git` without running git; "none"
/// outside a git checkout.
fn git_sha(root: &Path) -> String {
    let git = root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).unwrap_or_default();
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return if head.is_empty() {
            "none".to_string()
        } else {
            head.to_string()
        };
    };
    std::fs::read_to_string(git.join(reference))
        .ok()
        .or_else(|| {
            let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
            packed
                .lines()
                .find(|l| l.ends_with(reference))
                .map(|l| l.split(' ').next().unwrap_or_default().to_string())
        })
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

/// `all`: one child process per workload, run one after the other.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("perfbench: cannot locate own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for workload in WORKLOADS {
        let status = Command::new(&exe)
            .args(["--workload", workload, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .status();
        ok &= matches!(status, Ok(s) if s.success());
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn print_report(workload: &str, args: &Args, report: &Report) -> bool {
    let table: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    for note in &report.notes {
        println!("# {workload}: {note}");
    }
    let mut metrics = Obj::new();
    for &(name, unit) in table {
        let found = report
            .values
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v);
        if found.is_none() && !args.trace {
            eprintln!("perfbench: {workload} did not measure {name}");
            return false;
        }
        let value = found.unwrap_or(0.0);
        println!("{workload} {name} = {value} {unit}");
        metrics = metrics.raw(
            name,
            &Obj::new().f64("value", value).str("unit", unit).finish(),
        );
    }
    let failed_frac = report.failed as f64 / report.attempted.max(1) as f64;
    println!(
        "{workload} failed_frac = {failed_frac} ({} of {} operations)",
        report.failed, report.attempted
    );
    let correct = report.failed == 0 && report.checks_ok;
    let line = Obj::new()
        .raw("correct", if correct { "true" } else { "false" })
        .u64("attempted", report.attempted)
        .u64("failed", report.failed)
        .raw("metrics", &metrics.finish())
        .finish();
    println!("{line}");
    true
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    let bench_dir = Path::new(env!("CARGO_MANIFEST_DIR"));
    let work = bench_dir.join("work");
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("perfbench: create {}: {e}", work.display());
        return ExitCode::FAILURE;
    }
    let workload = args.workload.as_str();
    let pid = std::process::id();
    let paths = Paths {
        input: work.join(format!("{workload}-{pid}.ech")),
        spans: work.join(format!("{workload}-seed{}.spans.jsonl", args.seed)),
    };
    println!(
        "# host: nproc={} git={} rustc=\"{}\" profile={} workload={workload} seed={} seconds={} trace={}",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        git_sha(bench_dir.parent().unwrap_or(bench_dir)),
        env!("PERFBENCH_RUSTC"),
        env!("PERFBENCH_PROFILE"),
        args.seed,
        args.seconds,
        u8::from(args.trace),
    );
    let result = match workload {
        "mine-sparse" => mine::run(
            mine::Kind::Sparse,
            args.seed,
            args.seconds,
            args.trace,
            &paths,
        ),
        "mine-dense" => mine::run(
            mine::Kind::Dense,
            args.seed,
            args.seconds,
            args.trace,
            &paths,
        ),
        _ => stream::run(args.seed, args.seconds, args.trace, &paths),
    };
    let _ = std::fs::remove_file(&paths.input);
    match result {
        Ok(report) if print_report(workload, &args, &report) => ExitCode::SUCCESS,
        Ok(_) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perfbench: {workload}: {e}");
            ExitCode::FAILURE
        }
    }
}
