//! Ablation benches for the design choices the paper motivates:
//!
//! * the 360 s self-shutdown threshold (Figure 2);
//! * the 5-minute coalescence window (Figures 4/5);
//! * the heartbeat period (detection granularity vs. log volume —
//!   the tuning discussed in the logger's companion paper [1]).

use criterion::{criterion_group, criterion_main, Criterion};
use symfail_bench::{bench_analysis_config, bench_params, bench_phones, fold};
use symfail_core::analysis::passes::PassRegistry;
use symfail_core::analysis::SHUTDOWN_THRESHOLD_SWEEP_SECS;
use symfail_phone::fleet::FleetCampaign;

/// Coalescence windows (seconds) bracketing the paper's 300 s choice at
/// log-ish spacing.
const WINDOWS_SECS: [u64; 5] = [10, 60, 300, 1800, 36_000];

fn bench(c: &mut Criterion) {
    let registry = PassRegistry::select("shutdown,coalesce").expect("known passes");
    let report = fold(&bench_phones(2005), bench_analysis_config(), &registry);
    let (shutdowns, coalesced, hl) = (&report.shutdowns, &report.coalescence, &report.hl_events);

    // Print the ablation artifacts once.
    println!("--- self-shutdown threshold sweep ---");
    for (th, n) in shutdowns.threshold_sweep(&SHUTDOWN_THRESHOLD_SWEEP_SECS) {
        println!("  threshold {th:>5} s -> {n} self-shutdowns");
    }
    println!("--- coalescence window sweep ---");
    for (w, frac) in coalesced.window_sweep(hl, &WINDOWS_SECS) {
        println!("  window {w:>6} s -> {:.1}% related", 100.0 * frac);
    }
    println!("--- heartbeat period vs log volume (30-day single phone) ---");
    for period in [30u64, 120, 300, 900] {
        let mut params = bench_params();
        params.phones = 1;
        params.campaign_days = 30;
        params.heartbeat_period_secs = period;
        let bytes = FleetCampaign::new(7, params)
            .run_single(0)
            .flashfs
            .bytes_written();
        println!("  period {period:>4} s -> {bytes:>8} bytes of flash written");
    }

    let mut g = c.benchmark_group("ablations");
    g.sample_size(20);
    g.measurement_time(std::time::Duration::from_secs(2));
    g.warm_up_time(std::time::Duration::from_millis(500));
    g.bench_function("threshold_sweep", |b| {
        b.iter(|| shutdowns.threshold_sweep(&SHUTDOWN_THRESHOLD_SWEEP_SECS))
    });
    g.bench_function("window_sweep", |b| {
        b.iter(|| coalesced.window_sweep(hl, &WINDOWS_SECS))
    });
    g.bench_function("campaign_30d_single_phone", |b| {
        let mut params = bench_params();
        params.phones = 1;
        params.campaign_days = 30;
        b.iter(|| FleetCampaign::new(7, params).run_single(0))
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
