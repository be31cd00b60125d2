//! Ablations A1–A6 (see DESIGN.md §5): quantifies each design choice the
//! paper calls out, using operation counts and simulated seconds.
//!
//! Pass `--json=PATH` to also write the machine-readable summary: the A1
//! short-circuit and A2 scheduling numbers, the per-representation kernel
//! counters (including the [`mining_types::KernelStats`] switch events),
//! and the full sequential [`mining_types::MiningStats`] report.
//!
//! ```text
//! cargo run -p repro-bench --bin ablations --release [-- --scale=tiny \
//!     --json=results/ablations.json]
//! ```

use dbstore::HorizontalDb;
use eclat::{EclatConfig, ScheduleHeuristic};
use memchannel::{ClusterConfig, CostModel};
use mining_types::json::{Arr, Obj};
use mining_types::{MinSupport, OpMeter};
use parbase::{CandidateDistConfig, CountDistConfig};
use questgen::QuestGenerator;
use repro_bench::Args;

fn main() {
    let args = Args::from_env();
    let scale = args.scale();
    let support = args.support_percent();
    let minsup = MinSupport::from_percent(support);
    let cost = CostModel::dec_alpha_1997();

    let params = scale.table2_databases()[0].clone();
    let name = params.name();
    eprintln!("[ablations] generating {name} ...");
    let txns = QuestGenerator::new(params).generate_all();
    let db = HorizontalDb::from_transactions(txns);
    println!("Ablations on {name}, support {support}% (simulated model: DEC Alpha 1997)\n");
    let json_path = args.json_out();
    let mut jdoc = Obj::new()
        .str("bench", "ablations")
        .str("database", &name)
        .f64("support_percent", support);

    // ---------- A1: short-circuited intersections (§5.3) ----------
    {
        let run = |sc: bool| {
            let mut m = OpMeter::new();
            let cfg = EclatConfig {
                short_circuit: sc,
                ..EclatConfig::paper()
            };
            let fs = eclat::sequential::mine_with(&db, minsup, &cfg, &mut m);
            (fs.len(), m.tid_cmp)
        };
        let (n_on, cmp_on) = run(true);
        let (n_off, cmp_off) = run(false);
        assert_eq!(n_on, n_off);
        println!("A1  short-circuited intersections (§5.3)");
        println!("    tid comparisons   on: {cmp_on:>14}");
        println!("    tid comparisons  off: {cmp_off:>14}");
        println!(
            "    saved: {:.1}%\n",
            100.0 * (1.0 - cmp_on as f64 / cmp_off as f64)
        );
        jdoc = jdoc.raw(
            "short_circuit",
            &Obj::new()
                .u64("tid_cmp_on", cmp_on)
                .u64("tid_cmp_off", cmp_off)
                .finish(),
        );
    }

    // ---------- A2: equivalence-class scheduling heuristics (§5.2.1) ----------
    {
        println!("A2  class scheduling heuristics (§5.2.1), T=8 (H=8, P=1)");
        let topo = ClusterConfig::new(8, 1);
        let mut jrows = Arr::new();
        for h in [
            ScheduleHeuristic::GreedyPairs,
            ScheduleHeuristic::SupportWeighted,
            ScheduleHeuristic::RoundRobin,
        ] {
            let cfg = EclatConfig {
                heuristic: h,
                ..EclatConfig::paper()
            };
            let rep = eclat::cluster::mine_cluster(&db, minsup, &topo, &cost, &cfg);
            println!(
                "    {:<16} total {:>8.1}s  async-phase {:>8.1}s  imbalance {:.3}",
                format!("{h:?}"),
                rep.total_secs(),
                rep.timeline.phase_secs(eclat::cluster::PHASE_ASYNC),
                rep.assignment.imbalance(),
            );
            jrows.raw(
                &Obj::new()
                    .str("heuristic", &format!("{h:?}"))
                    .f64("total_secs", rep.total_secs())
                    .f64(
                        "async_secs",
                        rep.timeline.phase_secs(eclat::cluster::PHASE_ASYNC),
                    )
                    .f64("schedule_imbalance", rep.assignment.imbalance())
                    .f64(
                        "load_imbalance",
                        rep.stats.cluster.as_ref().map_or(1.0, |c| c.load_imbalance),
                    )
                    .finish(),
            );
        }
        jdoc = jdoc.raw("scheduling", &jrows.finish());
        println!();
    }

    // ---------- A3: candidate pruning in Eclat (§5.3) ----------
    {
        let run = |prune: bool| {
            let mut m = OpMeter::new();
            let cfg = EclatConfig {
                prune,
                ..EclatConfig::paper()
            };
            eclat::sequential::mine_with(&db, minsup, &cfg, &mut m);
            m
        };
        let m_off = run(false);
        let m_on = run(true);
        println!("A3  candidate pruning in Eclat (§5.3: 'little or no help')");
        println!(
            "    intersections avoided: {} of {} candidates",
            m_off
                .cand_gen
                .saturating_sub(m_on.cand_gen.min(m_off.cand_gen)),
            m_off.cand_gen
        );
        println!(
            "    tid comparisons: {} (off) vs {} (on); extra subset probes: {}",
            m_off.tid_cmp, m_on.tid_cmp, m_on.hash_probe
        );
        let cost_off = cost.compute_ns(&m_off) / 1e9;
        let cost_on = cost.compute_ns(&m_on) / 1e9;
        println!("    modeled CPU seconds: {cost_off:.2} (off) vs {cost_on:.2} (on)\n");
    }

    // ---------- A4: L2 layout — horizontal triangle vs vertical 1-item intersections (§4.2) ----------
    {
        // Horizontal: C(|t|,2) increments per transaction.
        let mut m_h = OpMeter::new();
        let tri = eclat::transform::count_pairs(&db, 0..db.num_transactions(), &mut m_h);
        let threshold = minsup.count_threshold(db.num_transactions());
        let n_l2 = tri.frequent_pairs(threshold).count();
        // Vertical: intersect every pair of per-item tid-lists.
        let vert = dbstore::VerticalDb::from_horizontal(&db);
        let items: Vec<_> = vert.iter().map(|(i, _)| i).collect();
        let mut vertical_ops = 0u64;
        for (a_pos, &a) in items.iter().enumerate() {
            for &b in &items[a_pos + 1..] {
                vertical_ops += (vert.tidlist(a).len() + vert.tidlist(b).len()) as u64;
            }
        }
        println!("A4  L2 counting layout (§4.2's 4.5·10^7 vs 10^9 argument)");
        println!(
            "    horizontal triangular increments: {:>14}",
            m_h.pair_incr
        );
        println!("    vertical pairwise-intersection ops: {vertical_ops:>12}");
        println!(
            "    vertical/horizontal ratio: {:.1}x  (frequent pairs found: {n_l2})\n",
            vertical_ops as f64 / m_h.pair_incr as f64
        );
    }

    // ---------- A5: Candidate Distribution vs Count Distribution (§3.2) ----------
    {
        println!("A5  Candidate Distribution vs Count Distribution (§3.2), T=4 and T=8");
        for topo in [ClusterConfig::new(4, 1), ClusterConfig::new(8, 1)] {
            let cd =
                parbase::mine_count_dist(&db, minsup, &topo, &cost, &CountDistConfig::default());
            let cand = parbase::mine_candidate_dist(
                &db,
                minsup,
                &topo,
                &cost,
                &CandidateDistConfig::default(),
            );
            assert_eq!(cd.frequent, cand.frequent);
            println!(
                "    {:<12} CD {:>8.1}s   CandD {:>8.1}s   CandD/CD {:.2}",
                topo.label(),
                cd.total_secs(),
                cand.total_secs(),
                cand.total_secs() / cd.total_secs()
            );
        }
        println!();
    }

    // ---------- A6: hybrid parallelization (§8.1/§9) ----------
    {
        println!("A6  hybrid host-level parallelization (§8.1/§9 future work)");
        let cfg = EclatConfig::paper();
        for topo in [
            ClusterConfig::new(2, 4),
            ClusterConfig::new(4, 2),
            ClusterConfig::new(8, 1),
        ] {
            let flat = eclat::cluster::mine_cluster(&db, minsup, &topo, &cost, &cfg);
            let hy = eclat::hybrid::mine_hybrid(&db, minsup, &topo, &cost, &cfg);
            assert_eq!(flat.frequent, hy.frequent);
            println!(
                "    {:<12} flat {:>8.1}s   hybrid {:>8.1}s   speedup {:.2}",
                topo.label(),
                flat.total_secs(),
                hy.total_secs(),
                flat.total_secs() / hy.total_secs()
            );
        }
        println!();
    }

    // ---------- bonus: vertical representation axis ----------
    {
        println!("EXT vertical representation — tid-lists vs diffsets vs mid-recursion");
        println!("    auto-switch; element touches in the recursive phase:");
        let run = |repr| {
            let cfg = eclat::EclatConfig::with_representation(repr);
            let mut m = OpMeter::new();
            let (fs, stats) = eclat::sequential::mine_stats(&db, minsup, &cfg, &mut m);
            (fs, m, stats)
        };
        let mut jrows = Arr::new();
        let (fs_ref, m_ref, stats_ref) = run(eclat::Representation::TidList);
        println!(
            "    {:<18} {:>14} element comparisons",
            "tid-lists:", m_ref.tid_cmp
        );
        let jrow = |stats: &mining_types::MiningStats, m: &OpMeter| {
            let k = stats.kernel_totals();
            Obj::new()
                .str("representation", &stats.representation)
                .u64("tid_cmp", m.tid_cmp)
                .u64("switch_events", k.switch_events)
                .u64("peak_tid_bytes", k.peak_tid_bytes)
                .finish()
        };
        jrows.raw(&jrow(&stats_ref, &m_ref));
        for (label, repr) in [
            ("diffsets:", eclat::Representation::Diffset),
            (
                "auto-switch(d=1):",
                eclat::Representation::AutoSwitch { depth: 1 },
            ),
            (
                "auto-switch(d=2):",
                eclat::Representation::AutoSwitch { depth: 2 },
            ),
            (
                "auto-switch(d=3):",
                eclat::Representation::AutoSwitch { depth: 3 },
            ),
        ] {
            let (fs, m, stats) = run(repr);
            assert_eq!(fs, fs_ref);
            println!("    {label:<18} {:>14} element comparisons", m.tid_cmp);
            jrows.raw(&jrow(&stats, &m));
        }
        // Galloping tid-list intersections (skewed-operand kernel knob).
        {
            let cfg = eclat::EclatConfig {
                gallop: true,
                ..eclat::EclatConfig::paper()
            };
            let mut m = OpMeter::new();
            let (fs, stats) = eclat::sequential::mine_stats(&db, minsup, &cfg, &mut m);
            assert_eq!(fs, fs_ref);
            println!(
                "    {:<18} {:>14} element comparisons",
                "tidlist+gallop:", m.tid_cmp
            );
            let k = stats.kernel_totals();
            jrows.raw(
                &Obj::new()
                    .str("representation", "tidlist+gallop")
                    .u64("tid_cmp", m.tid_cmp)
                    .u64("switch_events", k.switch_events)
                    .u64("peak_tid_bytes", k.peak_tid_bytes)
                    .finish(),
            );
        }
        jdoc = jdoc
            .raw("representations", &jrows.finish())
            .raw("sequential_stats", &stats_ref.to_json(true));
    }

    // ---------- bonus: representation × density matrix ----------
    {
        println!("\nEXT representation × density — bitmap vs merge kernels");
        let d = scale.table2_databases()[0].num_transactions;
        let reprs: [(&str, eclat::Representation); 5] = [
            ("tidlist", eclat::Representation::TidList),
            ("diffset", eclat::Representation::Diffset),
            (
                "autoswitch:2",
                eclat::Representation::AutoSwitch { depth: 2 },
            ),
            ("bitmap", eclat::Representation::Bitmap),
            (
                "auto-density:8",
                eclat::Representation::AutoDensity { permille: 8 },
            ),
        ];
        let mut jrows = Arr::new();
        let mut dense_cmp: Vec<(String, u64, f64)> = Vec::new();
        for (db_label, params) in [
            ("dense", questgen::QuestParams::dense(d, 0xD15E)),
            ("sparse", questgen::QuestParams::sparse(d, 0x5845)),
        ] {
            let txns = QuestGenerator::new(params).generate_all();
            let ddb = HorizontalDb::from_transactions(txns);
            let dsup = MinSupport::from_percent(if db_label == "dense" { 25.0 } else { 0.25 });
            println!("    database: {db_label} (D={d})");
            let mut fs_ref = None;
            for (label, repr) in &reprs {
                let cfg = eclat::EclatConfig::with_representation(*repr);
                let mut m = OpMeter::new();
                // Warm once, then time the measured run.
                eclat::sequential::mine_with(&ddb, dsup, &cfg, &mut OpMeter::new());
                let t = std::time::Instant::now();
                let (fs, stats) = eclat::sequential::mine_stats(&ddb, dsup, &cfg, &mut m);
                let secs = t.elapsed().as_secs_f64();
                match &fs_ref {
                    None => fs_ref = Some(fs),
                    Some(r) => assert_eq!(&fs, r, "{db_label}/{label} diverged"),
                }
                let k = stats.kernel_totals();
                println!(
                    "      {label:<16} {:>12} element ops  {secs:>8.3}s  peak {:>10} B",
                    m.tid_cmp, k.peak_tid_bytes
                );
                if db_label == "dense" {
                    dense_cmp.push((label.to_string(), m.tid_cmp, secs));
                }
                jrows.raw(
                    &Obj::new()
                        .str("database", db_label)
                        .str("representation", label)
                        .u64("tid_cmp", m.tid_cmp)
                        .f64("secs", secs)
                        .u64("peak_tid_bytes", k.peak_tid_bytes)
                        .finish(),
                );
            }
        }
        // The bitmap win the representation was built for: on the dense
        // database its word-wise AND+popcount does strictly fewer metered
        // element operations than the tid-list merge, and auto-density
        // must match it there (dense classes all cross the 8‰ threshold).
        let ops_of = |name: &str| {
            dense_cmp
                .iter()
                .find(|(l, _, _)| l == name)
                .map(|&(_, ops, _)| ops)
                .unwrap()
        };
        let (tl_ops, bm_ops, ad_ops) = (
            ops_of("tidlist"),
            ops_of("bitmap"),
            ops_of("auto-density:8"),
        );
        println!(
            "    dense-db bitmap win: {:.2}x fewer element ops than tid-lists",
            tl_ops as f64 / bm_ops as f64
        );
        assert!(
            bm_ops < tl_ops,
            "bitmap should beat tid-list merges on the dense database: {bm_ops} vs {tl_ops}"
        );
        assert!(
            ad_ops <= tl_ops,
            "auto-density should never lose to plain tid-lists on the dense db: {ad_ops} vs {tl_ops}"
        );
        jdoc = jdoc.raw("representation_density", &jrows.finish());
        println!();
    }

    // ---------- bonus: maximal mining × representation ----------
    {
        println!("\nEXT maximal mining (MaxEclat) across representations");
        let oracle = eclat::maximal::maximal_of(&eclat::sequential::mine(&db, minsup));
        let mut jrows = Arr::new();
        for (label, repr) in [
            ("tid-lists:", eclat::Representation::TidList),
            ("diffsets:", eclat::Representation::Diffset),
            (
                "auto-switch(d=2):",
                eclat::Representation::AutoSwitch { depth: 2 },
            ),
        ] {
            let cfg = eclat::EclatConfig::with_representation(repr);
            let mut m = OpMeter::new();
            let (fs, stats) = eclat::maximal::mine_maximal_stats(&db, minsup, &cfg, &mut m);
            assert_eq!(fs, oracle);
            let k = stats.kernel_totals();
            println!(
                "    {label:<18} {:>12} tid cmps  {:>6} switch events  {:>6} maximal sets",
                m.tid_cmp,
                k.switch_events,
                fs.len()
            );
            jrows.raw(
                &Obj::new()
                    .str("representation", &stats.representation)
                    .u64("tid_cmp", m.tid_cmp)
                    .u64("switch_events", k.switch_events)
                    .u64("count", fs.len() as u64)
                    .finish(),
            );
        }
        jdoc = jdoc.raw("maximal_representations", &jrows.finish());
        println!();
    }

    // ---------- bonus: observability overhead ----------
    {
        println!("EXT tracing overhead — disabled fast path vs armed rings");
        let mine_secs = || {
            let t = std::time::Instant::now();
            let fs = eclat::sequential::mine_with(
                &db,
                minsup,
                &EclatConfig::default(),
                &mut OpMeter::new(),
            );
            (t.elapsed().as_secs_f64(), fs.len())
        };
        let (warm, _) = mine_secs(); // prime caches/allocator
        let (off_a, _) = mine_secs();
        let (off_b, _) = mine_secs();
        let off = off_a.min(off_b);
        eclat_obs::trace::set_identity(0xAB1A, 0);
        eclat_obs::trace::set_enabled(true);
        let (on, _) = mine_secs();
        eclat_obs::trace::set_enabled(false);
        let events = eclat_obs::trace::drain().events.len();
        println!("    disabled: {off:.3}s  (best of 2, warmup {warm:.3}s)");
        println!("    enabled : {on:.3}s  ({events} events recorded)");
        // Gate, not just a report: the disabled path is a clock read and
        // one relaxed atomic load per span, so two disabled runs stay in the
        // same ballpark (generous noise margin for CI), and armed rings
        // must not blow the run up either.
        assert!(
            off_a <= off_b * 1.5 + 0.05 && off_b <= off_a * 1.5 + 0.05,
            "disabled-tracing runs diverged: {off_a:.3}s vs {off_b:.3}s"
        );
        assert!(
            on <= off * 2.0 + 0.10,
            "armed tracing too expensive: {on:.3}s vs disabled {off:.3}s"
        );
        assert!(events > 0, "armed run recorded no events");
        jdoc = jdoc.raw(
            "tracing_overhead",
            &Obj::new()
                .f64("disabled_secs", off)
                .f64("enabled_secs", on)
                .u64("events_recorded", events as u64)
                .finish(),
        );
        println!();
    }

    if let Some(path) = json_path {
        repro_bench::write_json(path, &jdoc.finish()).expect("write --json output");
        eprintln!("[ablations] wrote {path}");
    }
}
