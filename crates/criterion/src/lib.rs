//! Offline mini benchmark harness.
//!
//! CI has no registry access, so this crate provides the subset of the
//! `criterion` API the workspace's benches use — `Criterion`,
//! `benchmark_group`, `bench_function`, `Bencher::iter`,
//! `Bencher::iter_batched`, `BatchSize`, `Throughput`,
//! `black_box`, and the `criterion_group!`/`criterion_main!` macros —
//! backed by plain `Instant` timing. `cargo bench -- --test` runs each
//! benchmark body once as a smoke pass, mirroring criterion's test
//! mode, and `cargo bench -- NAME` runs only the benchmarks whose
//! `group/function` id contains `NAME`, as criterion's filter does.
//! Statistical analysis and HTML reports are out of scope; each
//! benchmark prints its median per-iteration time.

use std::time::{Duration, Instant};

pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

/// Declared measurement unit for reporting; recorded but not used in
/// analysis (kept for API compatibility).
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    Elements(u64),
    Bytes(u64),
}

/// How many inputs `iter_batched` sets up per batch; accepted for API
/// compatibility but not used (every input is set up just before its
/// own timed call).
#[derive(Debug, Clone, Copy)]
pub enum BatchSize {
    LargeInput,
}

#[derive(Debug, Clone, Copy)]
struct Settings {
    sample_size: usize,
    measurement_time: Duration,
    warm_up_time: Duration,
}

impl Default for Settings {
    fn default() -> Self {
        Settings {
            sample_size: 20,
            measurement_time: Duration::from_secs(2),
            warm_up_time: Duration::from_millis(500),
        }
    }
}

/// Benchmark driver. `--test` in the argv (as passed by
/// `cargo bench -- --test`) switches to a single-shot smoke mode; the
/// first argument that is not a flag filters benchmarks by id.
pub struct Criterion {
    test_mode: bool,
    filter: Option<String>,
    settings: Settings,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion::from_args(std::env::args())
    }
}

impl Criterion {
    /// The `Criterion` for a bench binary's argv (program name first).
    fn from_args(args: impl IntoIterator<Item = String>) -> Self {
        let mut test_mode = false;
        let mut filter = None;
        for arg in args.into_iter().skip(1) {
            if arg == "--test" {
                test_mode = true;
            } else if !arg.starts_with('-') && filter.is_none() {
                filter = Some(arg);
            }
        }
        Criterion {
            test_mode,
            filter,
            settings: Settings::default(),
        }
    }

    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            name: name.into(),
            test_mode: self.test_mode,
            filter: self.filter.as_deref(),
            settings: self.settings,
        }
    }

    pub fn bench_function(
        &mut self,
        name: impl Into<String>,
        f: impl FnMut(&mut Bencher),
    ) -> &mut Self {
        let id = name.into();
        if selected(self.filter.as_deref(), &id) {
            run_benchmark(&id, self.test_mode, self.settings, f);
        }
        self
    }
}

/// Whether benchmark `id` passes the name filter: a substring match,
/// as criterion's is.
fn selected(filter: Option<&str>, id: &str) -> bool {
    filter.is_none_or(|f| id.contains(f))
}

pub struct BenchmarkGroup<'a> {
    name: String,
    test_mode: bool,
    filter: Option<&'a str>,
    settings: Settings,
}

impl BenchmarkGroup<'_> {
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.settings.sample_size = n.max(1);
        self
    }

    pub fn measurement_time(&mut self, d: Duration) -> &mut Self {
        self.settings.measurement_time = d;
        self
    }

    pub fn warm_up_time(&mut self, d: Duration) -> &mut Self {
        self.settings.warm_up_time = d;
        self
    }

    pub fn throughput(&mut self, _t: Throughput) -> &mut Self {
        self
    }

    pub fn bench_function(
        &mut self,
        name: impl Into<String>,
        f: impl FnMut(&mut Bencher),
    ) -> &mut Self {
        let full = format!("{}/{}", self.name, name.into());
        if selected(self.filter, &full) {
            run_benchmark(&full, self.test_mode, self.settings, f);
        }
        self
    }

    pub fn finish(self) {}
}

/// Per-sample timing handle passed to the benchmark closure.
pub struct Bencher {
    iters: u64,
    elapsed: Duration,
}

impl Bencher {
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        let start = Instant::now();
        for _ in 0..self.iters {
            black_box(f());
        }
        self.elapsed = start.elapsed();
    }

    /// Times `routine` on a fresh input from `setup` per iteration;
    /// neither the set-up nor dropping the output is timed.
    pub fn iter_batched<I, O, S, R>(&mut self, mut setup: S, mut routine: R, _size: BatchSize)
    where
        S: FnMut() -> I,
        R: FnMut(I) -> O,
    {
        let mut elapsed = Duration::ZERO;
        for _ in 0..self.iters {
            let input = setup();
            let start = Instant::now();
            let output = black_box(routine(input));
            elapsed += start.elapsed();
            drop(output);
        }
        self.elapsed = elapsed;
    }
}

fn run_benchmark(name: &str, test_mode: bool, settings: Settings, mut f: impl FnMut(&mut Bencher)) {
    if test_mode {
        let mut b = Bencher {
            iters: 1,
            elapsed: Duration::ZERO,
        };
        f(&mut b);
        println!("test {name} ... ok");
        return;
    }
    // Calibrate: find an iteration count whose sample fills roughly
    // measurement_time / sample_size.
    let mut b = Bencher {
        iters: 1,
        elapsed: Duration::ZERO,
    };
    f(&mut b);
    let per_iter = b.elapsed.max(Duration::from_nanos(1));
    let target = settings.measurement_time / settings.sample_size as u32;
    let iters = (target.as_nanos() / per_iter.as_nanos()).clamp(1, u64::MAX as u128) as u64;

    // Warm-up.
    let warm_start = Instant::now();
    while warm_start.elapsed() < settings.warm_up_time {
        let mut b = Bencher {
            iters: 1,
            elapsed: Duration::ZERO,
        };
        f(&mut b);
    }

    let mut samples: Vec<f64> = Vec::with_capacity(settings.sample_size);
    for _ in 0..settings.sample_size {
        let mut b = Bencher {
            iters,
            elapsed: Duration::ZERO,
        };
        f(&mut b);
        samples.push(b.elapsed.as_secs_f64() / iters as f64);
    }
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let median = samples[samples.len() / 2];
    let lo = samples[0];
    let hi = samples[samples.len() - 1];
    println!(
        "{name:<50} time: [{} {} {}]  ({} samples × {iters} iters)",
        format_time(lo),
        format_time(median),
        format_time(hi),
        samples.len(),
    );
}

fn format_time(secs: f64) -> String {
    if secs < 1e-6 {
        format!("{:.2} ns", secs * 1e9)
    } else if secs < 1e-3 {
        format!("{:.2} µs", secs * 1e6)
    } else if secs < 1.0 {
        format!("{:.2} ms", secs * 1e3)
    } else {
        format!("{:.3} s", secs)
    }
}

#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $cfg:expr; targets = $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut c: $crate::Criterion = $cfg;
            $( $target(&mut c); )+
        }
    };
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut c = $crate::Criterion::default();
            $( $target(&mut c); )+
        }
    };
}

#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The ids a `Criterion` built from `argv` runs, out of two groups and
    /// an ungrouped benchmark.
    fn ran(argv: &[&str]) -> Vec<String> {
        let mut c = Criterion::from_args(argv.iter().map(|a| a.to_string()));
        assert!(c.test_mode, "every case runs in test mode");
        let mut ran = Vec::new();
        for group in ["parse", "corrupt"] {
            let mut g = c.benchmark_group(group);
            for name in ["clean_phone", "worst_phone"] {
                g.bench_function(name, |b| {
                    ran.push(format!("{group}/{name}"));
                    b.iter(|| ());
                });
            }
            g.finish();
        }
        c.bench_function("beats_parse", |b| {
            ran.push("beats_parse".to_string());
            b.iter(|| ());
        });
        ran
    }

    #[test]
    fn first_non_flag_argument_filters_ids_by_substring() {
        assert_eq!(
            ran(&["bench", "--bench", "--test", "parse/clean"]),
            ["parse/clean_phone"]
        );
        assert_eq!(
            ran(&["bench", "--test", "worst", "parse"]),
            ["parse/worst_phone", "corrupt/worst_phone"]
        );
        assert_eq!(ran(&["bench", "beats_parse", "--test"]), ["beats_parse"]);
        assert!(ran(&["bench", "--test", "nothing"]).is_empty());
    }

    #[test]
    fn without_a_filter_every_benchmark_runs() {
        assert_eq!(
            ran(&["bench", "--bench", "--test"]),
            [
                "parse/clean_phone",
                "parse/worst_phone",
                "corrupt/clean_phone",
                "corrupt/worst_phone",
                "beats_parse",
            ]
        );
    }
}
