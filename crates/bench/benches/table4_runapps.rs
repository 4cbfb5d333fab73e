//! Table 4 bench: the `runapps` pass, the panic-running-applications
//! contingency.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use symfail_bench::{bench_analysis_config, bench_phones, fold};
use symfail_core::analysis::passes::PassRegistry;

fn bench(c: &mut Criterion) {
    let phones = bench_phones(2005);
    let config = bench_analysis_config();
    let report = fold(&phones, config, &PassRegistry::all());
    println!("{}", report.render_table4());

    let registry = PassRegistry::select("runapps").expect("known pass");
    let mut g = c.benchmark_group("table4_runapps");
    g.sample_size(20);
    g.measurement_time(std::time::Duration::from_secs(2));
    g.warm_up_time(std::time::Duration::from_millis(500));
    g.bench_function("build_runapps_table", |b| {
        b.iter(|| fold(black_box(&phones), config, &registry))
    });
    let analysis = &report.runapps;
    g.bench_function("top_apps_10", |b| b.iter(|| analysis.top_apps(10)));
    g.bench_function("render", |b| {
        b.iter(|| analysis.table().render_percent("Table 4", &[]))
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
