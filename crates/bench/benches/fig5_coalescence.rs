//! Figure 5 bench: the `coalesce` pass (temporal coalescence of panics
//! with high-level events) and the window sweep that justifies the
//! 5-minute choice.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use symfail_bench::{bench_analysis_config, bench_phones, fold};
use symfail_core::analysis::passes::PassRegistry;
use symfail_core::analysis::report::AnalysisConfig;
use symfail_core::analysis::COALESCENCE_SWEEP_WINDOWS_SECS;
use symfail_sim_core::SimDuration;

fn bench(c: &mut Criterion) {
    let phones = bench_phones(2005);
    let config = bench_analysis_config();
    let report = fold(&phones, config, &PassRegistry::all());
    println!("{}", report.render_fig5());
    let hl = &report.hl_events;

    // The pass coalesces both shutdown policies and collects the HL
    // stream.
    let registry = PassRegistry::select("coalesce").expect("known pass");
    let mut g = c.benchmark_group("fig5_coalescence");
    g.sample_size(20);
    g.measurement_time(std::time::Duration::from_secs(2));
    g.warm_up_time(std::time::Duration::from_millis(500));
    g.bench_function("coalesce_5min_window", |b| {
        b.iter(|| fold(black_box(&phones), config, &registry))
    });
    for w in [30u64, 300, 3600] {
        let config = AnalysisConfig {
            coalescence_window: SimDuration::from_secs(w),
            ..config
        };
        g.bench_function(format!("window_{w}s"), |b| {
            b.iter(|| fold(&phones, config, &registry))
        });
    }
    // The sweep reads the panics of the finished report, as
    // `repro --exp fig5 --sweep` does.
    let analysis = &report.coalescence;
    g.bench_function("window_sweep_9_points", |b| {
        b.iter(|| analysis.window_sweep(hl, &COALESCENCE_SWEEP_WINDOWS_SECS))
    });
    g.bench_function("category_breakdown", |b| b.iter(|| analysis.by_category()));
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
