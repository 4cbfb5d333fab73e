//! Table 2 bench: mechanistic panic generation (every fault class of
//! the taxonomy) and the panic-distribution accumulation over a
//! campaign's consolidated logs.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use symfail_bench::{bench_analysis_config, bench_phones, fold};
use symfail_core::analysis::passes::PassRegistry;
use symfail_phone::calibration::{CalibrationParams, EpisodeContext};
use symfail_phone::faults::{execute_fault, plan_episode};
use symfail_sim_core::SimRng;
use symfail_stats::CategoricalDist;
use symfail_symbian::panic::codes;

fn bench(c: &mut Criterion) {
    let phones = bench_phones(2005);
    let report = fold(&phones, bench_analysis_config(), &PassRegistry::all());
    println!("{}", report.render_table2());

    let mut g = c.benchmark_group("table2_panics");
    g.sample_size(20);
    g.measurement_time(std::time::Duration::from_secs(2));
    g.warm_up_time(std::time::Duration::from_millis(500));
    g.throughput(Throughput::Elements(codes::ALL.len() as u64));
    g.bench_function("execute_all_20_fault_classes", |b| {
        let mut rng = SimRng::seed_from(1);
        b.iter(|| {
            for (code, _) in codes::ALL {
                black_box(execute_fault(code, "BenchApp", &mut rng));
            }
        })
    });
    g.bench_function("plan_1000_background_episodes", |b| {
        let params = CalibrationParams::default();
        let mut rng = SimRng::seed_from(2);
        b.iter(|| {
            (0..1000)
                .map(|_| {
                    1 + plan_episode(&params, EpisodeContext::Background, &mut rng)
                        .cascade
                        .len()
                })
                .sum::<usize>()
        })
    });
    g.bench_function("accumulate_distribution", |b| {
        b.iter(|| {
            let mut d = CategoricalDist::new();
            for p in phones.iter().flat_map(|phone| phone.panics()) {
                d.add(p.code.to_string());
            }
            black_box(d.total())
        })
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
