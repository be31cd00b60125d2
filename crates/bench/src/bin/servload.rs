//! Closed-loop multi-threaded load generator for the `assoc-serve` query
//! server: measures sustained QPS and latency percentiles over the wire
//! protocol on loopback.
//!
//! By default the bench is self-hosting — it generates a Quest database,
//! mines it, starts an in-process server on an ephemeral port, and then
//! hammers it over real TCP. Point `--addr=HOST:PORT` at an external
//! `eclat serve` instance to load-test that instead (the probe set is
//! then built from the server's own top-k answers).
//!
//! ```text
//! cargo run -p repro-bench --bin servload --release [-- --threads=8 \
//!     --requests=2000 --transactions=20000 --support=0.25 \
//!     --confidence=0.3 --smoke --json=results/servload.json]
//! ```
//!
//! `--requests` is per thread; each thread runs its own connection and a
//! deterministic query mix (support lookups, subset/superset walks, rule
//! fetches, top-k), so runs are reproducible. `--smoke` shrinks
//! everything to a seconds-long one-shot for CI.
//!
//! Alongside the client-observed percentiles the report prints the
//! server's own per-query histograms (the `queries` section of the
//! stats document) and flags any quantile where the two views disagree
//! by more than 20 % — a queueing/network gap the client-side numbers
//! alone would hide. `--trace=PATH` arms the [`eclat_obs`] tracer for
//! the self-hosted setup (generation + mining) and leaves the span
//! timeline as a JSONL artifact next to the `--json` document.

use assoc_serve::{Client, Dataset, ServerConfig, Store, DEFAULT_CACHE_ENTRIES};
use dbstore::HorizontalDb;
use mining_types::json::{parse, Arr, Obj, Value};
use mining_types::{Itemset, MinSupport, OpMeter};
use questgen::{QuestGenerator, QuestParams};
use repro_bench::Args;
use std::net::SocketAddr;
use std::time::Instant;

struct LoadConfig {
    threads: usize,
    requests_per_thread: usize,
    transactions: usize,
    support_percent: f64,
    confidence: f64,
    limit: u32,
}

/// The deterministic per-request query mix, shared by every thread.
struct Probes {
    present: Vec<Itemset>,
    antecedents: Vec<Itemset>,
    missing: Itemset,
}

impl Probes {
    /// Build probes from whatever the server actually holds, via its own
    /// top-k answers (works for self-hosted and external targets alike).
    fn discover(client: &mut Client, limit: u32) -> std::io::Result<Probes> {
        let mut present: Vec<Itemset> = client
            .top_k(0, 256)?
            .into_iter()
            .map(|c| c.itemset)
            .collect();
        if present.is_empty() {
            present.push(Itemset::of(&[0]));
        }
        // Any frequent itemset is a plausible antecedent (the server
        // answers an empty rule list for those with no consequents).
        let antecedents: Vec<Itemset> = present
            .iter()
            .take(limit.max(1) as usize)
            .cloned()
            .collect();
        let max_item = present
            .iter()
            .flat_map(|is| is.items())
            .map(|i| i.index() as u32)
            .max()
            .unwrap_or(0);
        Ok(Probes {
            present,
            antecedents,
            missing: Itemset::of(&[max_item + 1, max_item + 2]),
        })
    }
}

/// One thread's closed loop: issue `n` queries serially, recording each
/// round-trip latency in nanoseconds.
fn client_loop(
    addr: SocketAddr,
    probes: &Probes,
    thread: usize,
    n: usize,
    limit: u32,
) -> std::io::Result<Vec<u64>> {
    let mut client = Client::connect(addr)?;
    let mut latencies = Vec::with_capacity(n);
    let ants = probes.antecedents.len().max(1);
    for i in 0..n {
        let pick = thread * 7919 + i; // decorrelate threads, stay deterministic
        let probe = probes.present[pick % probes.present.len()].clone();
        let t0 = Instant::now();
        match pick % 10 {
            0..=3 => {
                client.support(probe)?;
            }
            4 => {
                client.support(probes.missing.clone())?;
            }
            5 | 6 => {
                client.subsets(probe, limit)?;
            }
            7 => {
                client.supersets(probe, limit)?;
            }
            8 => {
                let a = probes
                    .antecedents
                    .get(pick % ants)
                    .cloned()
                    .unwrap_or(probe);
                client.rules_for(a, limit)?;
            }
            _ => {
                client.top_k((pick % 3 + 1) as u32, limit)?;
            }
        }
        latencies.push(t0.elapsed().as_nanos() as u64);
    }
    Ok(latencies)
}

fn percentile_ms(sorted: &[u64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let at = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[at] as f64 / 1e6
}

/// The server's own `all` latency digest from a stats JSON document:
/// `(count, p50_ms, p90_ms, p99_ms)`. `None` when the server predates
/// the `queries` section.
fn server_percentiles(stats_json: &str) -> Option<(u64, f64, f64, f64)> {
    let v = parse(stats_json).ok()?;
    let Value::Arr(rows) = v.get("queries")? else {
        return None;
    };
    let all = rows
        .iter()
        .find(|r| r.get("query").and_then(Value::as_str) == Some("all"))?;
    Some((
        all.get("count")?.as_num()? as u64,
        all.get("p50_ms")?.as_num()?,
        all.get("p90_ms")?.as_num()?,
        all.get("p99_ms")?.as_num()?,
    ))
}

fn main() {
    let args = Args::from_env();
    let smoke = args.has("smoke");
    if args.get("trace").is_some() {
        eclat_obs::trace::set_identity(0x5E4E, 0);
        eclat_obs::trace::set_enabled(true);
    }
    let cfg = LoadConfig {
        threads: args
            .get("threads")
            .map(|s| s.parse().expect("--threads"))
            .unwrap_or(if smoke { 2 } else { 8 }),
        requests_per_thread: args
            .get("requests")
            .map(|s| s.parse().expect("--requests"))
            .unwrap_or(if smoke { 200 } else { 2000 }),
        transactions: args
            .get("transactions")
            .map(|s| s.parse().expect("--transactions"))
            .unwrap_or(if smoke { 2000 } else { 20_000 }),
        support_percent: args
            .get("support")
            .map(|s| s.parse().expect("--support"))
            .unwrap_or(0.25),
        confidence: args
            .get("confidence")
            .map(|s| s.parse().expect("--confidence"))
            .unwrap_or(0.3),
        limit: args
            .get("limit")
            .map(|s| s.parse().expect("--limit"))
            .unwrap_or(20),
    };

    // Self-host unless an external target was given.
    let (addr, hosted) = match args.get("addr") {
        Some(a) => (a.parse().expect("--addr must be HOST:PORT"), None),
        None => {
            let params = QuestParams::t10_i6(cfg.transactions).with_seed(0x5E4E);
            eprintln!("[servload] generating {} ...", params.name());
            let db = HorizontalDb::from_transactions(QuestGenerator::new(params).generate_all());
            eprintln!("[servload] mining at {}% ...", cfg.support_percent);
            let frequent = eclat::sequential::mine_with(
                &db,
                MinSupport::from_percent(cfg.support_percent),
                &eclat::EclatConfig::with_singletons(),
                &mut OpMeter::new(),
            );
            let rules = assoc_rules::generate(&frequent, cfg.confidence);
            let dataset = Dataset {
                frequent,
                rules,
                num_transactions: db.num_transactions() as u32,
            };
            let store = std::sync::Arc::new(Store::with_dataset(&dataset, DEFAULT_CACHE_ENTRIES));
            let server_cfg = ServerConfig {
                workers: cfg.threads,
                ..ServerConfig::default()
            };
            let handle =
                assoc_serve::start(std::sync::Arc::clone(&store), &server_cfg).expect("bind");
            (handle.local_addr(), Some((store, handle)))
        }
    };

    let mut discover = Client::connect(addr).expect("connect for discovery");
    let probes = Probes::discover(&mut discover, cfg.limit).expect("probe discovery");
    let stats = discover.stats_json().expect("server stats");
    drop(discover);
    eprintln!(
        "[servload] {addr}: {} probe itemsets, {} antecedents; {} threads x {} requests",
        probes.present.len(),
        probes.antecedents.len(),
        cfg.threads,
        cfg.requests_per_thread
    );

    let t0 = Instant::now();
    let mut latencies: Vec<u64> = std::thread::scope(|scope| {
        let probes = &probes;
        let handles: Vec<_> = (0..cfg.threads)
            .map(|t| {
                scope.spawn(move || {
                    client_loop(addr, probes, t, cfg.requests_per_thread, cfg.limit)
                        .expect("client loop")
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect()
    });
    let wall = t0.elapsed().as_secs_f64();
    latencies.sort_unstable();

    let total = latencies.len();
    let qps = total as f64 / wall;
    let p50 = percentile_ms(&latencies, 0.50);
    let p90 = percentile_ms(&latencies, 0.90);
    let p99 = percentile_ms(&latencies, 0.99);
    let mean = latencies.iter().sum::<u64>() as f64 / total.max(1) as f64 / 1e6;

    let final_stats = Client::connect(addr)
        .and_then(|mut c| c.stats_json())
        .unwrap_or(stats);

    println!(
        "servload: {total} requests over {} threads in {wall:.2}s",
        cfg.threads
    );
    println!("  throughput : {qps:>10.0} req/s");
    println!("  latency    : p50 {p50:.3} ms  p90 {p90:.3} ms  p99 {p99:.3} ms  mean {mean:.3} ms");

    // The server's own histograms next to the client's view. The server
    // times only the service of a request, so each gap is what that
    // misses: the loopback network and queueing in sockets and workers
    // (the histograms quantize at <= 12.5 %, so a small gap can read
    // negative).
    let server_side = server_percentiles(&final_stats);
    match server_side {
        Some((count, sp50, sp90, sp99)) => {
            println!(
                "  server-side: p50 {sp50:.3} ms  p90 {sp90:.3} ms  p99 {sp99:.3} ms  ({count} requests measured)"
            );
            println!(
                "  network + queueing (client - server): p50 {:.3} ms  p90 {:.3} ms  p99 {:.3} ms",
                p50 - sp50,
                p90 - sp90,
                p99 - sp99
            );
        }
        None => {
            println!("  server-side: no per-query histograms (server predates the metrics surface)")
        }
    }

    if let Some(path) = args.json_out() {
        let doc = Obj::new()
            .str("bench", "servload")
            .raw("smoke", if smoke { "true" } else { "false" })
            .u64("threads", cfg.threads as u64)
            .u64("requests_per_thread", cfg.requests_per_thread as u64)
            .u64("total_requests", total as u64)
            .u64("transactions", cfg.transactions as u64)
            .f64("support_percent", cfg.support_percent)
            .f64("confidence", cfg.confidence)
            .f64("wall_secs", wall)
            .f64("qps", qps)
            .f64("p50_ms", p50)
            .f64("p90_ms", p90)
            .f64("p99_ms", p99)
            .f64("mean_ms", mean)
            .raw(
                "server_side",
                &match server_side {
                    Some((count, sp50, sp90, sp99)) => Obj::new()
                        .u64("count", count)
                        .f64("p50_ms", sp50)
                        .f64("p90_ms", sp90)
                        .f64("p99_ms", sp99)
                        .finish(),
                    None => "null".to_string(),
                },
            )
            .raw("server_stats", &final_stats)
            .raw("latency_ms", &{
                // A small fixed quantile grid so artifacts diff cleanly.
                let mut arr = Arr::new();
                for q in [0.0, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1.0] {
                    arr.raw(
                        &Obj::new()
                            .f64("quantile", q)
                            .f64("ms", percentile_ms(&latencies, q))
                            .finish(),
                    );
                }
                arr.finish()
            })
            .finish();
        repro_bench::write_json(path, &doc).expect("write --json output");
        eprintln!("[servload] wrote {path}");
    }

    if let Some((store, handle)) = hosted {
        let counters = handle.shutdown();
        let cs = store.cache_stats();
        println!(
            "  server     : {} connections, {} requests, cache hit rate {:.0}%",
            counters.connections,
            counters.requests,
            cs.hit_rate() * 100.0
        );
    }

    if let Some(path) = args.get("trace") {
        std::fs::write(path, eclat_obs::trace::render_jsonl()).expect("write --trace output");
        eprintln!("[servload] wrote trace {path}");
    }
}
