//! Figure 5 bench: the `coalesce` pass (temporal coalescence of panics
//! with high-level events), the brute-force oracle, and the window
//! sweep that justifies the 5-minute choice.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use symfail_bench::{bench_analysis_config, bench_fleet};
use symfail_core::analysis::coalesce::CoalescenceAnalysis;
use symfail_core::analysis::passes::PassRegistry;
use symfail_core::analysis::report::{AnalysisConfig, StudyReport};
use symfail_core::analysis::COALESCENCE_SWEEP_WINDOWS_SECS;
use symfail_sim_core::SimDuration;

fn bench(c: &mut Criterion) {
    let fleet = bench_fleet(2005);
    let config = bench_analysis_config();
    let report = StudyReport::analyze(&fleet, config);
    println!("{}", report.render_fig5());
    let hl = &report.hl_events;

    // The pass coalesces both shutdown policies and collects the HL
    // stream; the oracle coalesces the filtered stream only.
    let registry = PassRegistry::select("coalesce").expect("known pass");
    let mut g = c.benchmark_group("fig5_coalescence");
    g.sample_size(20);
    g.measurement_time(std::time::Duration::from_secs(2));
    g.warm_up_time(std::time::Duration::from_millis(500));
    g.bench_function("coalesce_5min_window", |b| {
        b.iter(|| StudyReport::analyze_with(black_box(&fleet), config, &registry))
    });
    g.bench_function("coalesce_5min_window_brute_force", |b| {
        b.iter(|| {
            CoalescenceAnalysis::new_brute_force(black_box(&fleet), hl, config.coalescence_window)
        })
    });
    for w in [30u64, 300, 3600] {
        let config = AnalysisConfig {
            coalescence_window: SimDuration::from_secs(w),
            ..config
        };
        g.bench_function(format!("window_{w}s"), |b| {
            b.iter(|| StudyReport::analyze_with(&fleet, config, &registry))
        });
    }
    // The sweep reads the panics of the finished report, as
    // `repro --exp fig5 --sweep` does.
    let analysis = &report.coalescence;
    g.bench_function("window_sweep_9_points", |b| {
        b.iter(|| analysis.window_sweep(hl, &COALESCENCE_SWEEP_WINDOWS_SECS))
    });
    g.bench_function("window_sweep_9_points_brute_force", |b| {
        b.iter(|| {
            CoalescenceAnalysis::window_sweep_brute_force(
                &fleet,
                hl,
                &COALESCENCE_SWEEP_WINDOWS_SECS,
            )
        })
    });
    g.bench_function("category_breakdown", |b| b.iter(|| analysis.by_category()));
    g.finish();

    // Headline: the single-pass gap-array sweep vs re-running the
    // brute-force merge per window (the pre-index implementation).
    let reps = 10;
    let t = std::time::Instant::now();
    for _ in 0..reps {
        black_box(analysis.window_sweep(hl, &COALESCENCE_SWEEP_WINDOWS_SECS));
    }
    let fast = t.elapsed();
    let t = std::time::Instant::now();
    for _ in 0..reps {
        black_box(CoalescenceAnalysis::window_sweep_brute_force(
            &fleet,
            hl,
            &COALESCENCE_SWEEP_WINDOWS_SECS,
        ));
    }
    let brute = t.elapsed();
    println!(
        "full sweep: fast {:?} vs brute-force {:?} -> {:.1}x speedup",
        fast / reps,
        brute / reps,
        brute.as_secs_f64() / fast.as_secs_f64().max(1e-12)
    );
}

criterion_group!(benches, bench);
criterion_main!(benches);
