//! End-to-end wall-clock mining on a scaled `T10.I6` database: sequential
//! Eclat vs Apriori vs the shared-memory parallel Eclat, plus the recursive
//! kernel alone. Complements the simulated-time Table 2 with *real* times
//! on the build machine.

use criterion::{criterion_group, criterion_main, Criterion};
use dbstore::HorizontalDb;
use eclat::EclatConfig;
use mining_types::{MinSupport, OpMeter};
use questgen::{QuestGenerator, QuestParams};
use std::hint::black_box;

fn db() -> HorizontalDb {
    HorizontalDb::from_transactions(QuestGenerator::new(QuestParams::t10_i6(20_000)).generate_all())
}

fn bench_miners(c: &mut Criterion) {
    let db = db();
    // 0.5% keeps Apriori's hash-tree pass affordable inside a benchmark
    let minsup = MinSupport::from_percent(0.5);
    let mut group = c.benchmark_group("end_to_end/t10_i6_d20k");
    group.sample_size(10);
    group.bench_function("eclat_sequential", |bench| {
        bench.iter(|| black_box(eclat::sequential::mine(&db, minsup).len()))
    });
    group.bench_function("eclat_rayon", |bench| {
        bench.iter(|| black_box(eclat::parallel::mine(&db, minsup).len()))
    });
    group.bench_function("apriori", |bench| {
        bench.iter(|| black_box(apriori::mine(&db, minsup).len()))
    });
    group.bench_function("eclat_no_short_circuit", |bench| {
        bench.iter(|| {
            let mut m = OpMeter::new();
            let cfg = EclatConfig {
                short_circuit: false,
                ..Default::default()
            };
            black_box(eclat::sequential::mine_with(&db, minsup, &cfg, &mut m).len())
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    // plots are pure overhead on this machine, and the default 3s+5s
    // warmup/measurement windows are oversized for deterministic kernels
    config = Criterion::default()
        .without_plots()
        .warm_up_time(std::time::Duration::from_millis(500))
        .measurement_time(std::time::Duration::from_secs(2));
    targets = bench_miners
}
criterion_main!(benches);
