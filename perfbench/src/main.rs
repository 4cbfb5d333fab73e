//! `perfbench --workload NAME --seed N --seconds S --trace 0|1`
//!
//! Runs one workload and prints, as its last line, one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`: the end-to-end
//! metrics untraced, the per-layer metrics with `--trace 1`. The line
//! before it carries the run's context (cores, workers, sample counts).
//! Exits non-zero when any op fails its oracle.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use symfail_perfbench::workloads::Workload;
use symfail_perfbench::{run, Args};

const USAGE: &str =
    "usage: perfbench --workload paper_fleet|worst_mixed_fleet|checkpoint_tail|triage \
                     [--seed N] [--seconds S] [--trace 0|1]";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 2005;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(Workload::parse(&name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|_| "--seed needs an integer")?,
            "--seconds" => {
                seconds = value()?
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or("--seconds needs a positive number")?
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace needs 0 or 1, got {other}")),
                }
            }
            _ => return Err(format!("unknown argument {flag}\n{USAGE}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or(USAGE)?,
        seed,
        seconds: Duration::from_secs_f64(seconds),
        trace,
        workers: 2,
        out_dir: PathBuf::from("perfbench").join("out"),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    match run(&args) {
        Ok(outcome) => {
            println!("{}", outcome.info_json());
            println!("{}", outcome.result_json());
            if outcome.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
