//! Figure 6 bench: the `runapps` pass, whose concurrency distribution
//! counts the running applications at panic time.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use symfail_bench::{bench_analysis_config, bench_phones, fold};
use symfail_core::analysis::passes::PassRegistry;

fn bench(c: &mut Criterion) {
    let phones = bench_phones(2005);
    let config = bench_analysis_config();
    let report = fold(&phones, config, &PassRegistry::all());
    println!("{}", report.render_fig6());

    let registry = PassRegistry::select("runapps").expect("known pass");
    let mut g = c.benchmark_group("fig6_concurrency");
    g.sample_size(20);
    g.measurement_time(std::time::Duration::from_secs(2));
    g.warm_up_time(std::time::Duration::from_millis(500));
    g.bench_function("concurrency_distribution", |b| {
        b.iter(|| {
            fold(black_box(&phones), config, &registry)
                .runapps
                .modal_concurrency()
        })
    });
    let analysis = &report.runapps;
    g.bench_function("modal_lookup", |b| b.iter(|| analysis.modal_concurrency()));
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
