//! Regenerates **Table 2** — total execution time: Eclat vs Count
//! Distribution across processor configurations and databases, with the
//! Eclat setup break-up and the improvement ratio.
//!
//! Times are *simulated* seconds from the Memory Channel cluster model
//! (DESIGN.md §4): absolute values are calibration-dependent; the
//! *shape* — who wins, by what factor, and how the factor moves with
//! configuration — is the reproduction target.
//!
//! ```text
//! cargo run -p repro-bench --bin table2 --release [-- --scale=small \
//!     --support=0.25 --large-configs --with-candidate-dist \
//!     --schedule=greedy|roundrobin|support --json=results/table2.json]
//! ```
//!
//! `--json=PATH` additionally writes one row per (database, config) cell
//! with the embedded [`mining_types::MiningStats`] report of the Eclat
//! run (per-phase simulated seconds, per-processor split, kernel work).

use dbstore::HorizontalDb;
use eclat::{EclatConfig, ScheduleHeuristic};
use memchannel::CostModel;
use mining_types::json::{Arr, Obj};
use mining_types::MinSupport;
use parbase::{CandidateDistConfig, CountDistConfig};
use questgen::QuestGenerator;
use repro_bench::{row, table2_configs, Args};

fn main() {
    let args = Args::from_env();
    let scale = args.scale();
    let support = args.support_percent();
    let minsup = MinSupport::from_percent(support);
    let cost = CostModel::dec_alpha_1997();
    let heuristic = match args.get("schedule") {
        Some("roundrobin") => ScheduleHeuristic::RoundRobin,
        Some("support") => ScheduleHeuristic::SupportWeighted,
        _ => ScheduleHeuristic::GreedyPairs,
    };
    let eclat_cfg = EclatConfig {
        heuristic,
        ..EclatConfig::paper()
    };
    let with_cand = args.has("with-candidate-dist");
    let configs = table2_configs(args.has("large-configs"));
    let json_path = args.json_out();
    let mut json_rows = Arr::new();

    println!("Table 2: Total Execution Time — Eclat (E) vs Count Distribution (CD)");
    println!("scale {scale:?}, support {support}%, schedule {heuristic:?}, simulated seconds\n");
    let mut widths = vec![14usize, 4, 4, 4, 10, 10, 10, 8];
    let mut header = vec![
        "Database", "P", "H", "T", "CD Total", "E Total", "E Setup", "CD/E",
    ];
    if with_cand {
        widths.push(10);
        header.push("CandD");
    }
    let header: Vec<String> = header.into_iter().map(String::from).collect();
    println!("{}", row(&header, &widths));

    for params in scale.table2_databases() {
        let name = params.name();
        eprintln!("[table2] generating {name} ...");
        let txns = QuestGenerator::new(params).generate_all();
        let db = HorizontalDb::from_transactions(txns);
        for cfg in &configs {
            eprintln!("[table2] {name} {} ...", cfg.label());
            let cd = parbase::mine_count_dist(&db, minsup, cfg, &cost, &CountDistConfig::default());
            let ec = eclat::cluster::mine_cluster(&db, minsup, cfg, &cost, &eclat_cfg);
            // correctness cross-check on every cell
            let cd_pairs_up: mining_types::FrequentSet = cd
                .frequent
                .iter()
                .filter(|(is, _)| is.len() >= 2)
                .map(|(is, s)| (is.clone(), s))
                .collect();
            assert_eq!(cd_pairs_up, ec.frequent, "{name} {}", cfg.label());

            let mut cols = vec![
                name.clone(),
                format!("{}", cfg.procs_per_host),
                format!("{}", cfg.hosts),
                format!("{}", cfg.total()),
                format!("{:.1}", cd.total_secs()),
                format!("{:.1}", ec.total_secs()),
                format!("{:.1}", ec.setup_secs()),
                format!("{:.1}", cd.total_secs() / ec.total_secs()),
            ];
            if with_cand {
                let cand = parbase::mine_candidate_dist(
                    &db,
                    minsup,
                    cfg,
                    &cost,
                    &CandidateDistConfig::default(),
                );
                cols.push(format!("{:.1}", cand.total_secs()));
            }
            println!("{}", row(&cols, &widths));
            if json_path.is_some() {
                json_rows.raw(
                    &Obj::new()
                        .str("database", &name)
                        .u64("hosts", cfg.hosts as u64)
                        .u64("procs_per_host", cfg.procs_per_host as u64)
                        .u64("total_procs", cfg.total() as u64)
                        .f64("cd_total_secs", cd.total_secs())
                        .f64("eclat_total_secs", ec.total_secs())
                        .f64("eclat_setup_secs", ec.setup_secs())
                        .f64("cd_over_eclat", cd.total_secs() / ec.total_secs())
                        .raw("stats", &ec.stats.to_json(false))
                        .finish(),
                );
            }
        }
        println!();
    }
    println!("(paper shape: CD/E between 5 and 18 sequential, up to ~70 parallel;");
    println!(" Eclat setup = init + transformation, dominating 55-60% of E Total)");

    if let Some(path) = json_path {
        let doc = Obj::new()
            .str("bench", "table2")
            .str("scale", &format!("{scale:?}"))
            .f64("support_percent", support)
            .raw("rows", &json_rows.finish())
            .finish();
        repro_bench::write_json(path, &doc).expect("write --json output");
        eprintln!("[table2] wrote {path}");
    }
}
