//! Regenerates **Figure 7** — Eclat speedup on different databases over
//! the processor configurations, relative to the sequential (T=1) run.
//!
//! Pass `--hybrid` to also run the §8.1/§9 hybrid parallelization (A6)
//! and show its speedups side by side.
//!
//! Pass `--json=PATH` to also write a machine-readable document with one
//! row per (database, config), embedding the structured
//! [`mining_types::MiningStats`] report of each simulated run.
//!
//! ```text
//! cargo run -p repro-bench --bin fig7 --release [-- --scale=small --hybrid \
//!     --json=results/fig7.json]
//! ```

use dbstore::HorizontalDb;
use eclat::EclatConfig;
use memchannel::{ClusterConfig, CostModel};
use mining_types::json::{Arr, Obj};
use mining_types::MinSupport;
use questgen::QuestGenerator;
use repro_bench::{row, table2_configs, Args};

fn main() {
    let args = Args::from_env();
    let scale = args.scale();
    let support = args.support_percent();
    let minsup = MinSupport::from_percent(support);
    let cost = CostModel::dec_alpha_1997();
    let cfg = EclatConfig::paper();
    let with_hybrid = args.has("hybrid");
    let configs = table2_configs(args.has("large-configs"));
    let json_path = args.json_out();
    let mut json_rows = Arr::new();

    println!("Figure 7: ECLAT parallel speedup (scale {scale:?}, support {support}%)");
    println!("speedup = simulated T(seq) / T(config)\n");

    for params in scale.table2_databases() {
        let name = params.name();
        eprintln!("[fig7] generating {name} ...");
        let txns = QuestGenerator::new(params).generate_all();
        let db = HorizontalDb::from_transactions(txns);

        let seq =
            eclat::cluster::mine_cluster(&db, minsup, &ClusterConfig::sequential(), &cost, &cfg);
        let t_seq = seq.total_secs();
        println!("{name}  (sequential: {t_seq:.1}s simulated)");
        let mut widths = vec![14usize, 4, 10, 9];
        let mut header = vec!["config", "T", "time(s)", "speedup"];
        if with_hybrid {
            widths.extend([10, 9]);
            header.extend(["hyb(s)", "hyb spd"]);
        }
        println!(
            "{}",
            row(
                &header.into_iter().map(String::from).collect::<Vec<_>>(),
                &widths
            )
        );
        for c in &configs {
            let rep = eclat::cluster::mine_cluster(&db, minsup, c, &cost, &cfg);
            assert_eq!(rep.frequent, seq.frequent, "{name} {}", c.label());
            let mut cols = vec![
                c.label(),
                format!("{}", c.total()),
                format!("{:.1}", rep.total_secs()),
                format!("{:.2}", t_seq / rep.total_secs()),
            ];
            let mut jrow = Obj::new()
                .str("database", &name)
                .str("config", &c.label())
                .u64("total_procs", c.total() as u64)
                .f64("secs", rep.total_secs())
                .f64("speedup", t_seq / rep.total_secs());
            if with_hybrid {
                let hy = eclat::hybrid::mine_hybrid(&db, minsup, c, &cost, &cfg);
                assert_eq!(hy.frequent, seq.frequent);
                cols.push(format!("{:.1}", hy.total_secs()));
                cols.push(format!("{:.2}", t_seq / hy.total_secs()));
                jrow = jrow
                    .f64("hybrid_secs", hy.total_secs())
                    .f64("hybrid_speedup", t_seq / hy.total_secs())
                    .raw("hybrid_stats", &hy.stats.to_json(false));
            }
            if json_path.is_some() {
                json_rows.raw(&jrow.raw("stats", &rep.stats.to_json(false)).finish());
            }
            println!("{}", row(&cols, &widths));
        }
        println!();
    }
    println!("(paper shape: near-linear speedup with H at P=1; for equal T, fewer");
    println!(" processors per host wins — H=8,P=1 beats H=2,P=4 — due to local");
    println!(" disk contention; the hybrid variant recovers most of that loss)");

    if let Some(path) = json_path {
        let doc = Obj::new()
            .str("bench", "fig7")
            .str("scale", &format!("{scale:?}"))
            .f64("support_percent", support)
            .raw("rows", &json_rows.finish())
            .finish();
        repro_bench::write_json(path, &doc).expect("write --json output");
        eprintln!("[fig7] wrote {path}");
    }
}
