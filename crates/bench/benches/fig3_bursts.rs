//! Figure 3 bench: the `bursts` pass (panic-cascade detection) over
//! the campaign logs, at the paper's gap and at two others.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use symfail_bench::{bench_analysis_config, bench_fleet};
use symfail_core::analysis::passes::PassRegistry;
use symfail_core::analysis::report::{AnalysisConfig, StudyReport};
use symfail_sim_core::SimDuration;

fn bench(c: &mut Criterion) {
    let fleet = bench_fleet(2005);
    let config = bench_analysis_config();
    let report = StudyReport::analyze(&fleet, config);
    println!("{}", report.render_fig3());

    let registry = PassRegistry::select("bursts").expect("known pass");
    let mut g = c.benchmark_group("fig3_bursts");
    g.sample_size(20);
    g.measurement_time(std::time::Duration::from_secs(2));
    g.warm_up_time(std::time::Duration::from_millis(500));
    g.bench_function("detect_cascades", |b| {
        b.iter(|| StudyReport::analyze_with(black_box(&fleet), config, &registry))
    });
    for gap_secs in [10u64, 60, 300] {
        let config = AnalysisConfig {
            burst_gap: SimDuration::from_secs(gap_secs),
            ..config
        };
        g.bench_function(format!("gap_{gap_secs}s"), |b| {
            b.iter(|| StudyReport::analyze_with(&fleet, config, &registry))
        });
    }
    let analysis = &report.bursts;
    g.bench_function("share_distribution", |b| {
        b.iter(|| analysis.panic_share_by_cascade_size())
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
