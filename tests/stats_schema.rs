//! Golden tests for the structured mining-stats layer: the JSON emitted
//! by [`mining_types::MiningStats::to_json`] is byte-stable for a fixed
//! report, its key set (the schema fingerprint) is pinned, and every
//! execution variant — sequential, rayon-parallel, simulated cluster,
//! and hybrid — fills the *same* schema with the same counters.
//!
//! The serving-stats document ([`assoc_serve::ServeStats`]) and the
//! trace JSONL records ([`eclat_obs::trace`]) are pinned here too —
//! they are wire surfaces with their own schema versions.
//!
//! `scripts/check.sh` runs this file explicitly: schema drift (adding,
//! renaming, or dropping a key) fails here first, and the fix is to bump
//! [`mining_types::stats::SCHEMA_VERSION`] (or the serve/trace
//! counterpart) and update the pinned lists.

use assoc_serve::stats::SERVE_SCHEMA_VERSION;
use assoc_serve::{CacheStats, QueryStat, ServeStats, ServerCounters};
use dbstore::HorizontalDb;
use eclat::EclatConfig;
use memchannel::{ClusterConfig, CostModel};
use mining_types::json::collect_keys;
use mining_types::stats::{
    ClassStats, ClusterStats, KernelStats, MiningStats, PhaseStats, ProcStats, SCHEMA_VERSION,
};
use mining_types::{MinSupport, OpMeter};
use questgen::{QuestGenerator, QuestParams};

/// Every key a live (non-simulated) run emits, sorted as
/// [`collect_keys`] returns them.
const LIVE_KEYS: &[&str] = &[
    "algorithm",
    "cand_gen",
    "candidates",
    "classes",
    "cluster",
    "frequent",
    "hash_probe",
    "infrequent",
    "joins",
    "kernel",
    "label",
    "levels",
    "members",
    "num_frequent",
    "ops",
    "pair_incr",
    "peak_tid_bytes",
    "phases",
    "prefix",
    "record",
    "representation",
    "schema_version",
    "secs",
    "short_circuit_hits",
    "size",
    "subsets_gen",
    "switch_events",
    "threshold",
    "tid_cmp",
    "total",
    "total_ops",
    "transactions",
    "variant",
];

/// Keys the simulated-cluster timeline adds on top of [`LIVE_KEYS`].
const CLUSTER_ONLY_KEYS: &[&str] = &[
    "bytes_received",
    "bytes_sent",
    "compute_secs",
    "disk_secs",
    "finish_secs",
    "idle_secs",
    "load_imbalance",
    "net_secs",
    "proc",
    "procs",
    "total_secs",
];

fn sorted_union(a: &[&str], b: &[&str]) -> Vec<String> {
    let mut v: Vec<String> = a.iter().chain(b).map(|s| s.to_string()).collect();
    v.sort();
    v
}

fn quest_db(d: usize, seed: u64) -> HorizontalDb {
    HorizontalDb::from_transactions(QuestGenerator::new(QuestParams::tiny(d, seed)).generate_all())
}

/// A fully hand-built report: every field deterministic, so the emitted
/// JSON can be pinned byte for byte.
fn fixture() -> MiningStats {
    let mut s = MiningStats::new("eclat", "sequential", "tidlist");
    s.transactions = 4;
    s.threshold = 2;
    s.num_frequent = 3;
    s.total_ops = OpMeter {
        tid_cmp: 5,
        pair_incr: 6,
        cand_gen: 2,
        record: 3,
        ..OpMeter::default()
    };
    s.phases.push(PhaseStats {
        label: "init".to_string(),
        secs: 0.25,
        ops: OpMeter {
            pair_incr: 6,
            ..OpMeter::default()
        },
    });
    s.record_level(2, 6, 2);
    let mut k = KernelStats::new();
    k.record_candidate(3);
    k.record_frequent(3);
    k.observe_level_bytes(64);
    s.add_class(ClassStats {
        prefix: vec![1],
        members: 2,
        kernel: k,
    });
    s.cluster = Some(ClusterStats {
        total_secs: 2.5,
        load_imbalance: 1.25,
        procs: vec![ProcStats {
            proc: 0,
            compute_secs: 1.5,
            disk_secs: 0.5,
            net_secs: 0.25,
            idle_secs: 0.25,
            finish_secs: 2.5,
            bytes_sent: 128,
            bytes_received: 64,
        }],
    });
    s
}

#[test]
fn golden_json_for_hand_built_report() {
    let expected = concat!(
        "{\"schema_version\":1,\"algorithm\":\"eclat\",\"variant\":\"sequential\",",
        "\"representation\":\"tidlist\",\"transactions\":4,\"threshold\":2,",
        "\"num_frequent\":3,",
        "\"total_ops\":{\"tid_cmp\":5,\"hash_probe\":0,\"pair_incr\":6,",
        "\"subsets_gen\":0,\"cand_gen\":2,\"record\":3,\"total\":16},",
        "\"phases\":[{\"label\":\"init\",\"secs\":0.25,",
        "\"ops\":{\"tid_cmp\":0,\"hash_probe\":0,\"pair_incr\":6,",
        "\"subsets_gen\":0,\"cand_gen\":0,\"record\":0,\"total\":6}}],",
        "\"levels\":[{\"size\":2,\"candidates\":6,\"frequent\":2},",
        "{\"size\":3,\"candidates\":1,\"frequent\":1}],",
        "\"kernel\":{\"joins\":1,\"frequent\":1,\"infrequent\":0,",
        "\"short_circuit_hits\":0,\"peak_tid_bytes\":64,\"switch_events\":0,",
        "\"levels\":[{\"size\":3,\"candidates\":1,\"frequent\":1}]},",
        "\"classes\":[{\"prefix\":[1],\"members\":2,",
        "\"kernel\":{\"joins\":1,\"frequent\":1,\"infrequent\":0,",
        "\"short_circuit_hits\":0,\"peak_tid_bytes\":64,\"switch_events\":0,",
        "\"levels\":[{\"size\":3,\"candidates\":1,\"frequent\":1}]}}],",
        "\"cluster\":{\"total_secs\":2.5,\"load_imbalance\":1.25,",
        "\"procs\":[{\"proc\":0,\"compute_secs\":1.5,\"disk_secs\":0.5,",
        "\"net_secs\":0.25,\"idle_secs\":0.25,\"finish_secs\":2.5,",
        "\"bytes_sent\":128,\"bytes_received\":64}]}}",
    );
    assert_eq!(fixture().to_json(true), expected);
    // with_classes=false must only empty the classes array — losing
    // exactly the per-class-entry keys, nothing else
    let lean = fixture().to_json(false);
    assert!(lean.contains("\"classes\":[],"));
    let full_minus_entries: Vec<String> = collect_keys(&fixture().to_json(true))
        .into_iter()
        .filter(|k| k != "prefix" && k != "members")
        .collect();
    assert_eq!(collect_keys(&lean), full_minus_entries);
}

#[test]
fn fixture_covers_the_whole_schema() {
    // The fixture must exercise every key, or the golden test would pin
    // less than the full schema.
    assert_eq!(
        collect_keys(&fixture().to_json(true)),
        sorted_union(LIVE_KEYS, CLUSTER_ONLY_KEYS)
    );
}

#[test]
fn live_run_schema_is_pinned() {
    let db = quest_db(1_500, 7);
    let minsup = MinSupport::from_percent(1.0);
    let cfg = EclatConfig::default();
    let (_, stats) = eclat::sequential::mine_stats(&db, minsup, &cfg, &mut OpMeter::new());
    assert!(!stats.classes.is_empty(), "fixture too small: no classes");
    assert!(stats.levels.len() >= 2, "fixture too small: pairs only");
    let json = stats.to_json(true);
    assert!(json.starts_with(&format!("{{\"schema_version\":{SCHEMA_VERSION},")));
    assert!(json.ends_with("\"cluster\":null}"));
    assert_eq!(
        collect_keys(&json),
        LIVE_KEYS.iter().map(|s| s.to_string()).collect::<Vec<_>>(),
        "live-run schema drifted: update the pinned key list and bump \
         SCHEMA_VERSION"
    );
}

#[test]
fn simulated_run_schema_is_pinned() {
    let db = quest_db(1_500, 7);
    let minsup = MinSupport::from_percent(1.0);
    let cost = CostModel::dec_alpha_1997();
    let topo = ClusterConfig::new(2, 2);
    let rep = eclat::cluster::mine_cluster(&db, minsup, &topo, &cost, &Default::default());
    assert!(rep.stats.cluster.is_some());
    assert_eq!(
        collect_keys(&rep.stats.to_json(true)),
        sorted_union(LIVE_KEYS, CLUSTER_ONLY_KEYS),
        "simulated-run schema drifted: update the pinned key lists and \
         bump SCHEMA_VERSION"
    );
}

#[test]
fn measured_dist_run_schema_is_pinned() {
    // A real loopback run with hybrid workers (2 hosts x 2 threads,
    // budget 0 so every class crosses the out-of-core store) fills the
    // same schema as the simulated cluster: per-thread processor rows
    // reuse the simulator's timeline keys, nothing more, nothing less.
    let db = quest_db(1_500, 7);
    let minsup = MinSupport::from_percent(1.0);
    let workers: Vec<_> = (0..2)
        .map(|_| {
            eclat_net::start_worker(&eclat_net::WorkerConfig {
                threads: 2,
                mem_budget: Some(0),
                ..eclat_net::WorkerConfig::default()
            })
            .expect("start worker")
        })
        .collect();
    let addrs: Vec<String> = workers.iter().map(|w| w.addr().to_string()).collect();
    let report = eclat_net::mine_distributed(&db, minsup, &addrs, &Default::default())
        .expect("loopback dist run");
    let cluster = report.stats.cluster.as_ref().expect("dist cluster section");
    assert_eq!(cluster.procs.len(), 4, "one row per worker thread");
    assert_eq!(
        collect_keys(&report.stats.to_json(true)),
        sorted_union(LIVE_KEYS, CLUSTER_ONLY_KEYS),
        "measured-dist schema drifted: update the pinned key lists and \
         bump SCHEMA_VERSION"
    );
}

#[test]
fn all_variants_share_the_schema() {
    let db = quest_db(1_500, 7);
    let minsup = MinSupport::from_percent(1.0);
    let cfg = EclatConfig::default();
    let cost = CostModel::dec_alpha_1997();
    let topo = ClusterConfig::new(2, 2);

    let (_, seq) = eclat::sequential::mine_stats(&db, minsup, &cfg, &mut OpMeter::new());
    let (_, par) = eclat::parallel::mine_stats(&db, minsup, &cfg, &mut OpMeter::new());
    let cluster = eclat::cluster::mine_cluster(&db, minsup, &topo, &cost, &cfg).stats;
    let hybrid = eclat::hybrid::mine_hybrid(&db, minsup, &topo, &cost, &cfg).stats;

    let seq_keys = collect_keys(&seq.to_json(true));
    assert_eq!(seq_keys, collect_keys(&par.to_json(true)));
    let cluster_keys = collect_keys(&cluster.to_json(true));
    assert_eq!(cluster_keys, collect_keys(&hybrid.to_json(true)));
    // The simulated variants extend the live schema by exactly the
    // cluster-timeline keys.
    assert_eq!(
        cluster_keys,
        sorted_union(
            &seq_keys.iter().map(|s| s.as_str()).collect::<Vec<_>>(),
            CLUSTER_ONLY_KEYS
        )
    );
}

/// Keys the `eclat seq` stats artifact ([`eclat_seq::SeqStats`]) adds
/// on top of [`LIVE_KEYS`]: the database profile, the `by_len` result
/// rows, and the embedded `"mining"` report.
const SEQ_ONLY_KEYS: &[&str] = &[
    "by_len",
    "distinct_items",
    "events",
    "item_occurrences",
    "len",
    "maxlen",
    "mining",
    "patterns",
    "sequences",
];

#[test]
fn seq_stats_schema_is_pinned() {
    use eclat_seq::{mine_stats, SeqConfig, SeqDb, SEQ_SCHEMA_VERSION};
    use questgen::{SeqGenerator, SeqParams};

    let db = SeqDb::from_events(SeqGenerator::new(SeqParams::tiny(150, 7)).generate_all_raw());
    let cfg = SeqConfig::default();
    let (fs, mining) = mine_stats(
        &db,
        MinSupport::from_percent(20.0),
        &cfg,
        &mut OpMeter::new(),
        &eclat::pipeline::Serial,
        "sequential",
    );
    assert!(!mining.classes.is_empty(), "fixture too small: no classes");
    let stats = eclat_seq::SeqStats::from_run(&db, &cfg, &fs, mining);
    assert!(
        stats.by_len.len() >= 3,
        "fixture too small: need 3+ pattern lengths"
    );
    let json = stats.to_json();
    assert!(json.starts_with(&format!(
        "{{\"schema_version\":{SEQ_SCHEMA_VERSION},\"algorithm\":\"spade\","
    )));
    assert_eq!(
        collect_keys(&json),
        sorted_union(LIVE_KEYS, SEQ_ONLY_KEYS),
        "seq-stats schema drifted: update the pinned key list and bump \
         SEQ_SCHEMA_VERSION"
    );
}

/// Every key the serving-stats JSON emits with both the `server` and
/// per-query-kind `queries` sections populated, sorted as
/// [`collect_keys`] returns them.
const SERVE_KEYS: &[&str] = &[
    "cache",
    "capacity",
    "connections",
    "count",
    "entries",
    "evictions",
    "generation",
    "hit_rate",
    "hits",
    "insertions",
    "itemsets",
    "misses",
    "num_transactions",
    "p50_ms",
    "p90_ms",
    "p99_ms",
    "protocol_errors",
    "queries",
    "query",
    "reloads",
    "requests",
    "rules",
    "schema_version",
    "server",
    "timeouts",
    "trie_nodes",
    "value_bytes",
    "workers",
];

#[test]
fn serve_stats_schema_is_pinned() {
    let stats = ServeStats {
        generation: 1,
        reloads: 1,
        itemsets: 200,
        rules: 50,
        trie_nodes: 300,
        num_transactions: 1_000,
        cache: CacheStats {
            capacity: 64,
            entries: 8,
            value_bytes: 512,
            hits: 7,
            misses: 1,
            insertions: 1,
            evictions: 0,
        },
        server: Some(ServerCounters {
            connections: 2,
            requests: 9,
            protocol_errors: 0,
            timeouts: 0,
            workers: 4,
        }),
        queries: Some(vec![QueryStat {
            query: "all".to_string(),
            count: 9,
            p50_ms: 0.5,
            p90_ms: 1.0,
            p99_ms: 2.0,
        }]),
    };
    let json = stats.to_json();
    // v4: one index per generation, so `itemsets` follows `reloads`.
    assert_eq!(SERVE_SCHEMA_VERSION, 4);
    assert!(
        json.starts_with("{\"schema_version\":4,\"generation\":1,\"reloads\":1,\"itemsets\":200,"),
        "{json}"
    );
    assert_eq!(
        collect_keys(&json),
        SERVE_KEYS.iter().map(|s| s.to_string()).collect::<Vec<_>>(),
        "serve-stats schema drifted: update the pinned key list and bump \
         SERVE_SCHEMA_VERSION"
    );
}

/// Every key the streaming-stats JSON emits, sorted as [`collect_keys`]
/// returns them.
const STREAM_KEYS: &[&str] = &[
    "algorithm",
    "batch",
    "batch_size",
    "batches",
    "changed_pairs",
    "classes_born",
    "classes_carried",
    "classes_dirty",
    "classes_dropped",
    "classes_total",
    "delta_secs",
    "dirty_bound",
    "dirty_fraction",
    "generation",
    "ingest_secs",
    "itemsets",
    "merge_secs",
    "remine_secs",
    "representation",
    "rules",
    "schema_version",
    "threshold",
    "total_transactions",
    "transactions",
    "variant",
];

#[test]
fn stream_stats_schema_is_pinned() {
    use eclat_stream::{StreamEngine, StreamStats, STREAM_SCHEMA_VERSION};

    let db = quest_db(600, 7);
    let mut engine = StreamEngine::new(
        db.num_items(),
        MinSupport::from_percent(1.0),
        0.5,
        EclatConfig::default(),
    );
    let mut run = StreamStats {
        representation: "tidlist".to_string(),
        batch_size: 300,
        ..StreamStats::default()
    };
    let txns: Vec<Vec<mining_types::ItemId>> = db.iter().map(|(_, t)| t.to_vec()).collect();
    for chunk in txns.chunks(300) {
        run.push(engine.ingest_batch(chunk, &eclat::pipeline::Serial));
    }
    assert_eq!(run.batches.len(), 2, "fixture too small: one batch");
    let json = run.to_json();
    assert!(json.starts_with(&format!("{{\"schema_version\":{STREAM_SCHEMA_VERSION},")));
    assert_eq!(
        collect_keys(&json),
        STREAM_KEYS
            .iter()
            .map(|s| s.to_string())
            .collect::<Vec<_>>(),
        "stream-stats schema drifted: update the pinned key list and bump \
         STREAM_SCHEMA_VERSION"
    );
}

#[test]
fn trace_jsonl_schema_is_pinned() {
    use eclat_obs::trace;

    const META_KEYS: &[&str] = &["pid", "run_id", "schema_version", "type", "unix_us"];
    const EVENT_KEYS: &[&str] = &["arg", "name", "ph", "pid", "t_us", "tid", "type"];
    const DROPPED_KEYS: &[&str] = &["dropped_events", "pid", "tid", "type"];
    let pin = |keys: &[&str]| keys.iter().map(|s| s.to_string()).collect::<Vec<_>>();

    // A 4-slot ring guarantees an overflow marker; libtest gives this
    // test its own thread, so the shrunken capacity applies to a fresh
    // ring and the drain below owns every event this thread recorded.
    trace::set_ring_capacity(4);
    trace::set_identity(0x5EED, 3);
    trace::set_enabled(true);
    {
        let _outer = trace::span("outer");
        let _inner = trace::span_arg("inner", 7);
        for i in 0..16 {
            trace::instant("tick", i);
        }
    }
    trace::set_enabled(false);
    let doc = trace::render_jsonl();
    trace::set_ring_capacity(trace::DEFAULT_RING_CAPACITY);

    let lines: Vec<&str> = doc.lines().collect();
    assert!(lines.len() >= 3, "expected meta + events + dropped: {doc}");
    assert_eq!(collect_keys(lines[0]), pin(META_KEYS), "meta drifted");
    assert!(lines[0].contains("\"run_id\":\"0x5eed\""), "{}", lines[0]);
    assert!(lines[0].contains("\"pid\":3,"), "{}", lines[0]);
    let (mut events, mut dropped) = (0usize, 0usize);
    for line in &lines[1..] {
        if line.starts_with("{\"type\":\"event\"") {
            assert_eq!(collect_keys(line), pin(EVENT_KEYS), "event drifted: {line}");
            events += 1;
        } else if line.starts_with("{\"type\":\"dropped\"") {
            assert_eq!(
                collect_keys(line),
                pin(DROPPED_KEYS),
                "dropped drifted: {line}"
            );
            dropped += 1;
        } else {
            panic!("unknown trace record type: {line}");
        }
    }
    assert!(events > 0, "no event lines in {doc}");
    assert!(dropped > 0, "ring overflow left no dropped marker in {doc}");
    let summary = trace::validate_jsonl(&doc).expect("rendered trace must validate");
    assert_eq!(summary.run_id, "0x5eed");
    assert!(summary.dropped > 0);
}

#[test]
fn parallel_stats_match_sequential() {
    let db = quest_db(2_000, 11);
    let minsup = MinSupport::from_percent(1.0);
    let cfg = EclatConfig::default();
    let mut m_seq = OpMeter::new();
    let mut m_par = OpMeter::new();
    let (fs_seq, seq) = eclat::sequential::mine_stats(&db, minsup, &cfg, &mut m_seq);
    let (fs_par, par) = eclat::parallel::mine_stats(&db, minsup, &cfg, &mut m_par);

    assert_eq!(fs_seq, fs_par);
    assert_eq!(seq.num_frequent, par.num_frequent);
    assert_eq!(seq.total_ops, par.total_ops);
    assert_eq!(seq.levels, par.levels);
    assert_eq!(seq.classes, par.classes);
    assert_eq!(seq.kernel_totals(), par.kernel_totals());
    // Only the wall-clock seconds may differ between the two.
    let zero_secs = |s: &MiningStats| {
        s.phases
            .iter()
            .map(|p| PhaseStats {
                label: p.label.clone(),
                secs: 0.0,
                ops: p.ops,
            })
            .collect::<Vec<_>>()
    };
    assert_eq!(zero_secs(&seq), zero_secs(&par));
}
