//! Figure 2 bench: the `shutdown` pass (shutdown-event collection and
//! the 360 s self-shutdown classification), then the reboot-duration
//! histogram and threshold sweep over its section.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use symfail_bench::{bench_analysis_config, bench_phones, fold};
use symfail_core::analysis::passes::PassRegistry;

fn bench(c: &mut Criterion) {
    let phones = bench_phones(2005);
    let config = bench_analysis_config();
    let report = fold(&phones, config, &PassRegistry::all());
    println!("{}", report.render_fig2());

    let registry = PassRegistry::select("shutdown").expect("known pass");
    let mut g = c.benchmark_group("fig2_shutdowns");
    g.sample_size(20);
    g.measurement_time(std::time::Duration::from_secs(2));
    g.warm_up_time(std::time::Duration::from_millis(500));
    g.bench_function("extract_and_classify", |b| {
        b.iter(|| fold(black_box(&phones), config, &registry))
    });
    let analysis = &report.shutdowns;
    g.bench_function("duration_histogram_40_bins", |b| {
        b.iter(|| analysis.duration_histogram(40_000.0, 40).unwrap())
    });
    g.bench_function("median_self_shutdown", |b| {
        b.iter(|| analysis.median_self_shutdown_secs())
    });
    g.bench_function("threshold_sweep_7_points", |b| {
        b.iter(|| analysis.threshold_sweep(black_box(&[60, 120, 240, 360, 500, 1000, 3600])))
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
