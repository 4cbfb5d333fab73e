//! The symfail benchmark: four workloads run against the library's
//! public API from outside the program, an oracle check on every op,
//! end-to-end metrics from an untraced run and per-layer metrics from
//! a separate traced run. See `README.md` beside this crate.

pub mod account;
pub mod trace;
pub mod workloads;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use trace::{Tracer, LAYERS};
use workloads::{Job, PassOut, Workload};

#[global_allocator]
static GLOBAL: account::CountingAlloc = account::CountingAlloc;

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Fewest ops an untraced run measures, so `op_tail_ms` has ten
/// samples beyond it.
const MIN_OPS: usize = 20;
/// Fewest passes an untraced run measures, so `catalog_s` is a median.
const MIN_PASSES: usize = 3;

/// What to run.
#[derive(Debug, Clone)]
pub struct Args {
    /// The workload.
    pub workload: Workload,
    /// Seed of the workload's inputs.
    pub seed: u64,
    /// How long to measure.
    pub seconds: Duration,
    /// Run the traced composition and report per-layer metrics.
    pub trace: bool,
    /// Worker threads.
    pub workers: usize,
    /// Where the trace file and transient shard files go.
    pub out_dir: PathBuf,
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// A finished run.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// No op failed.
    pub correct: bool,
    /// Ops attempted.
    pub attempted: u64,
    /// Ops that failed.
    pub failed: u64,
    /// The metrics, in report order.
    pub metrics: Vec<Metric>,
    /// Context printed before the result line (cores, workers, sample
    /// counts, exact counters).
    pub info: Vec<(&'static str, String)>,
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

impl Outcome {
    /// The result line.
    pub fn result_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_num(m.value),
                m.unit
            );
        }
        out.push_str("}}");
        out
    }

    /// The context line.
    pub fn info_json(&self) -> String {
        let fields: Vec<String> = self
            .info
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect();
        format!("{{\"info\": {{{}}}}}", fields.join(", "))
    }
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The highest percentile with at least ten samples beyond it, capped
/// at p95: `(value, percentile)`. `None` below eleven samples. The cap
/// keeps host interference out of runs with thousands of ops: on a
/// shared 2-vCPU VM about 1.5 ops a second run several ms long, which
/// alone decide any percentile above p98 (see the README).
fn tail(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = n.checked_sub(11)?.min((95 * n).div_ceil(100) - 1);
    Some((v[rank], 100.0 * (rank + 1) as f64 / n as f64))
}

fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Runs until `budget` has elapsed and `enough` holds, logging the
/// first failure of every failed pass.
fn passes_for(
    budget: Duration,
    mut enough: impl FnMut(&[PassOut]) -> bool,
    mut pass: impl FnMut(usize) -> PassOut,
) -> Vec<PassOut> {
    let t0 = Instant::now();
    let mut out: Vec<PassOut> = Vec::new();
    loop {
        let ops_so_far = out.iter().map(|p| p.op_ms.len()).sum();
        let p = pass(ops_so_far);
        if let Some(e) = &p.error {
            eprintln!("perfbench: {} failed op(s): {e}", p.failed);
        }
        out.push(p);
        if t0.elapsed() >= budget && enough(&out) {
            return out;
        }
    }
}

fn totals(passes: &[PassOut]) -> (u64, u64, u64) {
    passes.iter().fold((0, 0, 0), |(a, f, u), p| {
        (a + p.op_ms.len() as u64, f + p.failed, u + p.useful)
    })
}

fn all_op_ms(passes: &[PassOut]) -> Vec<f64> {
    passes
        .iter()
        .flat_map(|p| p.op_ms.iter().copied())
        .collect()
}

/// Runs `args` and returns its metrics.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut job = Job::prepare(
        args.workload,
        args.seed,
        args.workers,
        &args.out_dir,
        args.trace,
    )?;
    let mut outcome = if args.trace {
        traced(args, &mut job)?
    } else {
        untraced(args, &mut job)?
    };
    let mut info = vec![
        ("workload", format!("\"{}\"", args.workload.name())),
        ("seed", args.seed.to_string()),
        ("trace", args.trace.to_string()),
        ("cores", cores().to_string()),
        ("workers", args.workers.to_string()),
    ];
    info.append(&mut outcome.info);
    outcome.info = info;
    Ok(outcome)
}

fn untraced(args: &Args, job: &mut Job) -> Result<Outcome, String> {
    let mut setup_s = Vec::with_capacity(SETUPS);
    for _ in 0..SETUPS {
        let t0 = Instant::now();
        job.setup()?;
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let cpu0 = account::process_cpu_s().ok_or("cannot read /proc/self/stat")?;
    account::reset_peak();
    let cycle = job.cycle();
    let passes = passes_for(
        args.seconds,
        |p| {
            p.len() >= MIN_PASSES
                && p.len() % cycle == 0
                && p.iter().map(|p| p.op_ms.len()).sum::<usize>() >= MIN_OPS
        },
        |_| job.pass(),
    );
    let cpu_s = account::process_cpu_s().ok_or("cannot read /proc/self/stat")? - cpu0;
    let peak = account::peak_bytes();

    let (attempted, failed, useful) = totals(&passes);
    let ops = all_op_ms(&passes);
    let (tail_ms, tail_pct) = tail(&ops).ok_or("too few ops for a tail percentile")?;
    let walls: Vec<f64> = passes.iter().map(|p| p.wall_s).collect();
    let busy_s: f64 = walls.iter().sum();
    let metric = |name: &str, value: f64, unit| Metric {
        name: name.to_string(),
        value,
        unit,
    };
    Ok(Outcome {
        correct: failed == 0,
        attempted,
        failed,
        metrics: vec![
            metric("setup_s", median(&setup_s), "s"),
            metric("op_p50_ms", median(&ops), "ms"),
            metric("op_tail_ms", tail_ms, "ms"),
            metric("cpu_ms_per_op", cpu_s * 1e3 / ops.len() as f64, "ms"),
            metric(
                "phone_days_per_s",
                passes.iter().map(|p| p.phone_days).sum::<u64>() as f64 / busy_s,
                "1/s",
            ),
            metric("catalog_s", median(&walls), "s"),
            metric("peak_heap_mb", peak as f64 / 1e6, "MB"),
            metric("ok_frac", useful as f64 / attempted as f64, "frac"),
        ],
        info: vec![
            ("ops", ops.len().to_string()),
            ("passes", passes.len().to_string()),
            ("op_tail_percentile", format!("{tail_pct:.2}")),
            ("setup_runs", SETUPS.to_string()),
            ("failed_frac", json_num(failed as f64 / attempted as f64)),
        ],
    })
}

/// Work counters each traced pass reports, with their units.
const WORK: [(&str, &str); 19] = [
    ("phone.simulate.phone_days", "days"),
    ("phone.simulate.flash_bytes", "B"),
    ("phone.corrupt.defects_injected", "count"),
    ("core.parse.bytes", "B"),
    ("core.parse.lines", "count"),
    ("core.parse.records_kept", "count"),
    ("core.parse.defects", "count"),
    ("core.fold.panics", "count"),
    ("core.merge.shards", "count"),
    ("core.checkpoint.encode.bytes", "B"),
    ("core.checkpoint.decode.bytes", "B"),
    ("core.checkpoint.decode.errors", "count"),
    ("core.render.bytes", "B"),
    ("core.signature.distinct", "count"),
    ("phone.repro.probes", "count"),
    ("phone.repro.accepted_steps", "count"),
    ("phone.repro.no_repro", "count"),
    ("phone.repro.replay_failed", "count"),
    ("phone.repro.days", "days"),
];

/// Counters that repeat exactly for a seed, recorded in every traced
/// result so count-based claims can be checked.
const EXACT: [&str; 6] = [
    "core.parse.lines",
    "core.parse.bytes",
    "core.signature.distinct",
    "phone.repro.probes",
    "phone.repro.no_repro",
    "core.checkpoint.encode.bytes",
];

fn traced(args: &Args, job: &mut Job) -> Result<Outcome, String> {
    job.setup()?;
    let half = args.seconds / 2;
    let plain = passes_for(half, |p| !p.is_empty(), |_| job.pass());
    let tracer = Tracer::default();
    let traced = passes_for(
        half,
        |p| !p.is_empty(),
        |op| job.traced_pass(&tracer, op as u32),
    );
    let (spans, counts) = tracer.finish();
    let summary = trace::summarize(&spans);

    std::fs::create_dir_all(&args.out_dir)
        .map_err(|e| format!("{}: {e}", args.out_dir.display()))?;
    let trace_path = args.out_dir.join(format!(
        "trace-{}-seed{}.json",
        args.workload.name(),
        args.seed
    ));
    let process = format!("perfbench {} seed {}", args.workload.name(), args.seed);
    std::fs::write(&trace_path, trace::chrome_json(&spans, &process))
        .map_err(|e| format!("{}: {e}", trace_path.display()))?;

    let (p_att, p_fail, _) = totals(&plain);
    let (t_att, t_fail, _) = totals(&traced);
    let per_pass = traced.len() as f64;
    let mut metrics = Vec::new();
    let mut put = |name: String, value: f64, unit: &'static str| {
        metrics.push(Metric { name, value, unit });
    };
    for layer in LAYERS {
        let t = summary.layers[layer];
        put(format!("{layer}.calls"), t.calls as f64 / per_pass, "count");
        put(
            format!("{layer}.busy_s"),
            t.busy_ns as f64 / 1e9 / per_pass,
            "s",
        );
        put(
            format!("{layer}.cpu_s"),
            t.cpu_ns as f64 / 1e9 / per_pass,
            "s",
        );
        put(
            format!("{layer}.wait_s"),
            t.wait_ns as f64 / 1e9 / per_pass,
            "s",
        );
        put(
            format!("{layer}.allocs"),
            t.allocs as f64 / per_pass,
            "count",
        );
        put(
            format!("{layer}.alloc_bytes"),
            t.alloc_bytes as f64 / per_pass,
            "B",
        );
    }
    let counted = |key: &str| counts.get(key).copied().unwrap_or(0) as f64;
    for (key, unit) in WORK {
        put(key.to_string(), counted(key) / per_pass, unit);
    }
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let parse = summary.layers["core.parse"];
    let repro = summary.layers["phone.repro"];
    put(
        "core.parse.keep_ratio".to_string(),
        ratio(
            counted("core.parse.records_kept"),
            counted("core.parse.lines"),
        ),
        "frac",
    );
    put(
        "core.parse.mb_per_cpu_s".to_string(),
        ratio(counted("core.parse.bytes") / 1e6, parse.cpu_ns as f64 / 1e9),
        "MB/s",
    );
    put(
        "phone.repro.probe_ms".to_string(),
        ratio(repro.busy_ns as f64 / 1e6, counted("phone.repro.probes")),
        "ms",
    );
    put("trace.coverage".to_string(), summary.coverage(), "frac");
    let plain_ms = median(&all_op_ms(&plain));
    put(
        "trace.overhead_frac".to_string(),
        ratio(median(&all_op_ms(&traced)), plain_ms) - 1.0,
        "frac",
    );
    let (driver_wait_s, peak_pending) = job.driver_counters();
    put("core.merge.driver_wait_s".to_string(), driver_wait_s, "s");
    put(
        "core.merge.peak_pending_phones".to_string(),
        peak_pending as f64,
        "count",
    );

    let exact: Vec<String> = EXACT
        .iter()
        .map(|k| format!("\"{k}\": {}", json_num(counted(k) / per_pass)))
        .collect();
    let total_busy: u64 = summary.layers.values().map(|t| t.busy_ns).sum();
    let shares: Vec<String> = LAYERS
        .iter()
        .map(|l| {
            let share = ratio(summary.layers[l].busy_ns as f64, total_busy as f64);
            format!("\"{l}\": {share:.4}")
        })
        .collect();
    let failed = p_fail + t_fail;
    Ok(Outcome {
        correct: failed == 0,
        attempted: p_att + t_att,
        failed,
        metrics,
        info: vec![
            ("untraced_passes", plain.len().to_string()),
            ("traced_passes", traced.len().to_string()),
            ("exact_counts_per_pass", format!("{{{}}}", exact.join(", "))),
            (
                "layer_self_time_share",
                format!("{{{}}}", shares.join(", ")),
            ),
            ("trace_file", format!("\"{}\"", trace_path.display())),
        ],
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond_it_up_to_p95() {
        let ops = |n: usize| (0..n).map(|i| i as f64).collect::<Vec<f64>>();
        assert_eq!(tail(&ops(10)), None);
        assert_eq!(tail(&ops(20)), Some((9.0, 50.0)));
        // 44 ops: rank 33 has ten samples above it.
        assert_eq!(tail(&ops(44)).map(|t| t.0), Some(33.0));
        // 2000 ops: p95 (rank 1899) is below rank n - 11.
        assert_eq!(tail(&ops(2000)), Some((1899.0, 95.0)));
    }
}
