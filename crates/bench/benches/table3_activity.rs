//! Table 3 bench: the `activity` pass, the panic-activity contingency
//! over HL-related panics.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use symfail_bench::{bench_analysis_config, bench_phones, fold};
use symfail_core::analysis::passes::PassRegistry;

fn bench(c: &mut Criterion) {
    let phones = bench_phones(2005);
    let config = bench_analysis_config();
    let report = fold(&phones, config, &PassRegistry::all());
    println!("{}", report.render_table3());

    let registry = PassRegistry::select("activity").expect("known pass");
    let mut g = c.benchmark_group("table3_activity");
    g.sample_size(20);
    g.measurement_time(std::time::Duration::from_secs(2));
    g.warm_up_time(std::time::Duration::from_millis(500));
    g.bench_function("build_activity_table", |b| {
        b.iter(|| fold(black_box(&phones), config, &registry))
    });
    let analysis = &report.activity;
    g.bench_function("chi_square_independence", |b| {
        b.iter(|| analysis.table().chi_square_independence())
    });
    g.bench_function("render", |b| {
        b.iter(|| analysis.table().render_percent("Table 3", &[]))
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
