//! `repro` — regenerates every table and figure of the paper.
//!
//! Usage:
//!
//! ```text
//! repro [--exp all|table1|forum_marginals|table2|table3|table4|fig2|fig3|fig5|fig6|
//!             mtbf|defects|ablations|perphone|extensions|stats|targets]
//!       [--seed N] [--phones N] [--days N] [--workers N] [--sweep]
//!       [--analyses all|comma-list]
//!       [--fleet default|mixed|class:share,...]
//!       [--corruption none|light|moderate|worst] [--defects-json PATH]
//!       [--timing-json PATH]
//!       [--checkpoint PATH] [--checkpoint-every N] [--stop-after N]
//!       [--mtbf-trace-json PATH]
//!       [--shard i/N] [--balance uniform|static|measured]
//!       [--costs-json PATH]
//! repro merge-checkpoints OUT IN1 IN2 ... [--seed N] [--phones N]
//!       [--days N] [--corruption PROFILE] [--fleet SPEC]
//!       [--analyses LIST] [--partial]
//! repro plan-shards --shards N [--balance MODE] [--costs-json PATH]
//!       [--seed N] [--phones N] [--days N] [--corruption PROFILE]
//!       [--fleet SPEC]
//! repro extract-signatures [--signature-json OUT]
//!       [--from-checkpoint PATH] [--seed N] [--phones N] [--days N]
//!       [--corruption PROFILE] [--fleet SPEC] [--analyses LIST]
//! repro minimize --signature-json PATH [--signature-index I]
//!       [--max-days N] [--max-seeds N] [--match core|strict]
//!       [--start-corruption PROFILE] [--out PATH]
//! ```
//!
//! The default runs the full 25-phone / 14-month campaign plus the
//! 533-report forum study and prints every reproduced artifact next to
//! the paper's numbers. The campaign runs on `--workers` threads
//! (default: all available cores): workers take contiguous runs of
//! phones, and for each phone simulate it, parse its flash, fold every
//! analysis pass over the dataset and drop both the flash and the
//! dataset before the next phone, so no fleet dataset is ever
//! materialized. Finished runs merge strictly in phone-id order, so
//! the report is byte-identical for any worker count — including under
//! `--corruption`, which injects deterministic flash-log damage
//! (truncation, tail loss, bit-flips, duplicated/reordered heartbeat
//! blocks) per phone before parsing; `--workers 1` is the determinism
//! oracle. `--analyses` restricts the pass registry to a comma-list of
//! pass names, and each phone writes and parses only their files: `log`
//! (and `ureport`), plus `beats` for `mtbf`, `defects` and `perphone`
//! (or for the injector, unparsed, under a damaging `--corruption`).
//! `--defects-json` dumps the fleet parse-defect report;
//! `--timing-json` writes the campaign stage's wall-clock time plus
//! allocation (cumulative and peak-live), parse-throughput and merge
//! counters to the given path.
//!
//! Campaigns can be checkpointed:
//! `--checkpoint PATH` snapshots the merged accumulators to PATH
//! (atomic write-rename) every `--checkpoint-every N` absorbed phones
//! and once at the end; if PATH already holds a checkpoint for the
//! same campaign, the run resumes from it instead of starting over.
//! `--stop-after K` aborts the campaign after absorbing K phones
//! (after flushing the checkpoint) — the crash half of an
//! interrupt/resume test. `--mtbf-trace-json PATH` records the online
//! MTBFr/MTBS estimate at every checkpoint boundary; its final entry
//! equals the whole-campaign estimate exactly.
//!
//! `--shard i/N` makes the process simulate and fold only shard `i`
//! of an `N`-way split of the phone-id space (per-phone RNG forks are
//! unchanged, so phone `k`'s data is identical no matter which
//! process runs it). `--balance` picks how the phone-id space is cut:
//! `uniform` (the default) keeps the fixed `i/N` formula split;
//! `static` runs the cost-balanced planner over per-phone cost
//! estimates derived from the campaign config (enrollment window ×
//! usage profile); `measured` balances on per-phone seconds (simulate
//! through fold) read from a prior run's `--timing-json` file via
//! `--costs-json`.
//! All three modes produce byte-identical merged reports — only the
//! cut points (and hence the critical path) move. `repro plan-shards`
//! prints the planned cut table and predicted max-shard cost without
//! running anything.
//!
//! `--fleet` picks the fleet composition: `default` (25 identical
//! smartphones), `mixed` (the built-in communicator / smartphone /
//! entry-level blend), or an explicit `class:share,...` list. Device
//! class scales each phone's usage intensity, fault rate and
//! corruption tendency, and the report grows a device-class ×
//! failure-type breakdown (with a chi-square independence check) for
//! any fleet with at least two classes. The composition is part of the
//! campaign fingerprint and of the checkpoint header, so shards and
//! resumes from a different composition are refused with a typed
//! error.
//!
//! The checkpoint a shard writes records the shard topology with its
//! explicit `[start, end)` interval plus the fleet-composition spec
//! (schema v5 — v4 files are refused with a typed version error), and
//! `repro merge-checkpoints
//! out.bin a.bin b.bin ...` validates N such checkpoints (same
//! campaign, config and registry; intervals disjoint and jointly
//! covering the fleet), tree-merges them, writes the merged
//! whole-fleet checkpoint to `out.bin`, and prints the same report a
//! single-process `--exp all` run prints — byte for byte, for any N
//! and any partition. `--partial` downgrades the
//! jointly-covering requirement: a best-effort report is rendered
//! from whatever shards are present, with every missing phone
//! interval named, and the process exits zero.
//!
//! `repro extract-signatures` distills a campaign into its distinct
//! fault-signature catalog — panic code, raising component, running
//! apps, concurrent activity, related high-level event, device class
//! and firmware line — either by running the campaign driver over the
//! `coalesce` pass alone or straight from a v5 checkpoint via
//! `--from-checkpoint`, which never re-simulates; both read the coalesce
//! section the same way. `--analyses` names the passes that checkpoint
//! was written with and is refused without it. `repro minimize` takes one signature from that catalog
//! and runs the ddmin-style search of `symfail_phone::repro`: seed
//! hunt, corruption drop, day bisection, greedy fault-channel drop,
//! final re-bisection — every probe a simulate→corrupt→scan run over
//! the phone's log, where a probe of fewer days of an already
//! simulated phone is answered from its kept harvest — and emits the
//! minimal single-phone campaign config, replay-verified by a fresh
//! simulation before it is written. The search is a pure function of
//! (signature, budgets), so the emitted JSON is byte-identical across
//! runs.

use std::alloc::{GlobalAlloc, Layout, System};
use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;
use std::str::FromStr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use symfail_core::analysis::checkpoint::ShardTopology;
use symfail_core::analysis::passes::{checkpoint_coalesced, merge_shard_checkpoints};
use symfail_core::analysis::passes::{merge_shard_checkpoints_partial, PassRegistry};
use symfail_core::analysis::report::{AnalysisConfig, StudyReport};
use symfail_core::analysis::signature::{
    distinct_signatures, signatures_from_json, signatures_to_json, MatchMode,
};
use symfail_core::analysis::{
    targets, COALESCENCE_SWEEP_WINDOWS_SECS, SHUTDOWN_THRESHOLD_SWEEP_SECS,
};
use symfail_phone::calibration::CalibrationParams;
use symfail_phone::composition::FleetComposition;
use symfail_phone::corruption::CorruptionProfile;
use symfail_phone::fleet::{FleetCampaign, ShardSpec, StreamingOptions, StreamingRun};
use symfail_phone::plan::{phone_costs_from_json, BalanceMode, ShardPlan};
use symfail_phone::repro::{extract_fleet_signatures, minimize, MinimizeOptions};

/// `println!` into a command's stdout text, which `main` writes once.
macro_rules! outln {
    ($out:expr) => {
        $out.push('\n')
    };
    ($out:expr, $($arg:tt)*) => {{
        $out.push_str(&format!($($arg)*));
        $out.push('\n');
    }};
}

/// A counting wrapper around the system allocator: lets
/// `--timing-json` attribute heap-allocation counts and bytes to each
/// pipeline stage, which is the direct evidence for the zero-copy
/// codec (the parse stage's allocs scale with distinct names, not with
/// records) — and track the **live/peak** footprint, which is the
/// direct evidence for the streaming driver (peak stays bounded by
/// `workers × per-phone state` instead of the whole fleet).
struct CountingAlloc;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);
static ALLOC_LIVE: AtomicU64 = AtomicU64::new(0);
static ALLOC_PEAK: AtomicU64 = AtomicU64::new(0);

thread_local! {
    // Const-initialized so reading/bumping it inside the global
    // allocator never allocates (a lazy TLS init would recurse).
    static THREAD_ALLOC_CALLS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Allocation calls made by the *current thread* so far. `try_with`
/// because the allocator can run during TLS teardown.
fn thread_alloc_calls() -> u64 {
    THREAD_ALLOC_CALLS
        .try_with(std::cell::Cell::get)
        .unwrap_or(0)
}

fn thread_alloc_bump() {
    let _ = THREAD_ALLOC_CALLS.try_with(|c| c.set(c.get() + 1));
}

fn live_add(n: u64) {
    let live = ALLOC_LIVE.fetch_add(n, Ordering::Relaxed) + n;
    ALLOC_PEAK.fetch_max(live, Ordering::Relaxed);
}

fn live_sub(n: u64) {
    ALLOC_LIVE.fetch_sub(n, Ordering::Relaxed);
}

// SAFETY: delegates every operation verbatim to `System`; the counter
// updates are side-effect-only atomics.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        thread_alloc_bump();
        live_add(layout.size() as u64);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        live_sub(layout.size() as u64);
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        thread_alloc_bump();
        if new_size as u64 >= layout.size() as u64 {
            live_add(new_size as u64 - layout.size() as u64);
        } else {
            live_sub(layout.size() as u64 - new_size as u64);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// `(allocation calls, allocated bytes)` so far, process-wide.
fn alloc_now() -> (u64, u64) {
    (
        ALLOC_CALLS.load(Ordering::Relaxed),
        ALLOC_BYTES.load(Ordering::Relaxed),
    )
}

/// High-water mark of live heap bytes so far, process-wide.
fn alloc_peak() -> u64 {
    ALLOC_PEAK.load(Ordering::Relaxed)
}

/// The remaining command-line arguments of one subcommand.
type ArgIter<'a> = std::slice::Iter<'a, String>;

/// The next argument parsed as `T`, or `msg` when it is missing or
/// does not parse.
fn value<T: FromStr>(it: &mut ArgIter<'_>, msg: &str) -> Result<T, String> {
    it.next()
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| msg.to_string())
}

/// [`value`] for a count that must be positive.
fn positive<T: FromStr + Default + PartialOrd>(
    it: &mut ArgIter<'_>,
    msg: &str,
) -> Result<T, String> {
    value(it, msg)
        .ok()
        .filter(|n| *n > T::default())
        .ok_or_else(|| msg.to_string())
}

/// The next argument as a corruption profile name.
fn corruption_profile(it: &mut ArgIter<'_>, msg: &str) -> Result<CorruptionProfile, String> {
    let profile: String = value(it, msg)?;
    CorruptionProfile::parse(&profile).ok_or(format!(
        "unknown corruption profile {profile} (try none|light|moderate|worst)"
    ))
}

/// The flags that name a campaign — `--seed`, `--phones`, `--days`,
/// `--corruption` and `--fleet` — shared by every subcommand that
/// runs, merges, plans or extracts from a campaign.
struct CampaignFlags {
    seed: u64,
    phones: u32,
    days: u32,
    corruption: CorruptionProfile,
    fleet: FleetComposition,
}

impl Default for CampaignFlags {
    fn default() -> Self {
        Self {
            seed: 2005,
            phones: 25,
            days: 425,
            corruption: CorruptionProfile::None,
            fleet: FleetComposition::default(),
        }
    }
}

impl CampaignFlags {
    /// Takes one campaign flag and its value from `it`; any other flag
    /// is refused as unknown.
    fn take(&mut self, flag: &str, it: &mut ArgIter<'_>) -> Result<(), String> {
        match flag {
            "--seed" => self.seed = value(it, "--seed needs an integer")?,
            "--phones" => self.phones = positive(it, "--phones needs a positive phone count")?,
            "--days" => self.days = positive(it, "--days needs a positive day count")?,
            "--corruption" => {
                self.corruption = corruption_profile(it, "--corruption needs a profile name")?
            }
            "--fleet" => {
                let spec: String = value(it, "--fleet needs a composition spec")?;
                self.fleet = FleetComposition::parse(&spec).map_err(|e| format!("--fleet: {e}"))?
            }
            other => return Err(format!("unknown flag {other}")),
        }
        Ok(())
    }

    fn params(&self) -> CalibrationParams {
        CalibrationParams {
            phones: self.phones,
            campaign_days: self.days,
            ..CalibrationParams::default()
        }
    }

    fn campaign(&self) -> FleetCampaign {
        FleetCampaign::new(self.seed, self.params())
            .with_corruption(self.corruption)
            .with_fleet(self.fleet.clone())
    }

    fn config(&self) -> AnalysisConfig {
        self.params().analysis_config()
    }
}

struct Args {
    exp: String,
    campaign: CampaignFlags,
    workers: usize,
    sweep: bool,
    analyses: String,
    defects_json: Option<String>,
    timing_json: Option<String>,
    checkpoint: Option<String>,
    checkpoint_every: u32,
    stop_after: Option<u32>,
    mtbf_trace_json: Option<String>,
    shard: Option<ShardSpec>,
    /// `None` when `--balance` was not given: uniform.
    balance: Option<BalanceMode>,
    costs_json: Option<String>,
}

fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        exp: "all".to_string(),
        campaign: CampaignFlags::default(),
        workers: default_workers(),
        sweep: false,
        analyses: "all".to_string(),
        defects_json: None,
        timing_json: None,
        checkpoint: None,
        checkpoint_every: 0,
        stop_after: None,
        mtbf_trace_json: None,
        shard: None,
        balance: None,
        costs_json: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--exp" => args.exp = value(&mut it, "--exp needs a value")?,
            "--workers" => args.workers = positive(&mut it, "--workers needs a positive integer")?,
            "--sweep" => args.sweep = true,
            "--analyses" => args.analyses = value(&mut it, "--analyses needs a comma-list")?,
            "--defects-json" => {
                args.defects_json = Some(value(&mut it, "--defects-json needs a path")?)
            }
            "--timing-json" => {
                args.timing_json = Some(value(&mut it, "--timing-json needs a path")?)
            }
            "--checkpoint" => args.checkpoint = Some(value(&mut it, "--checkpoint needs a path")?),
            "--checkpoint-every" => {
                args.checkpoint_every =
                    positive(&mut it, "--checkpoint-every needs a positive phone count")?
            }
            "--stop-after" => {
                args.stop_after = Some(value(&mut it, "--stop-after needs a phone count")?)
            }
            "--mtbf-trace-json" => {
                args.mtbf_trace_json = Some(value(&mut it, "--mtbf-trace-json needs a path")?)
            }
            "--shard" => {
                let spec: String = value(&mut it, "--shard needs i/N (e.g. 2/4)")?;
                args.shard = Some(ShardSpec::parse(&spec).map_err(|e| format!("--shard: {e}"))?)
            }
            "--balance" => args.balance = Some(parse_balance(it.next().map(String::as_str))?),
            "--costs-json" => args.costs_json = Some(value(&mut it, "--costs-json needs a path")?),
            "--help" | "-h" => {
                return Err(format!(
                    "usage: repro [--exp NAME] [--seed N] [--phones N] [--days N] \
                     [--workers N] [--sweep] [--analyses LIST] \
                     [--fleet default|mixed|class:share,...] \
                     [--corruption none|light|moderate|worst] \
                     [--defects-json PATH] [--timing-json PATH] \
                     [--checkpoint PATH] [--checkpoint-every N] \
                     [--stop-after N] [--mtbf-trace-json PATH] [--shard i/N] \
                     [--balance uniform|static|measured] [--costs-json PATH]\n\
                     \x20      repro merge-checkpoints OUT IN1 IN2 ... \
                     [--seed N] [--phones N] [--days N] \
                     [--corruption PROFILE] [--fleet SPEC] [--analyses LIST] \
                     [--partial]\n\
                     \x20      repro plan-shards --shards N [--balance MODE] \
                     [--costs-json PATH] [--seed N] [--phones N] [--days N] \
                     [--corruption PROFILE] [--fleet SPEC]\n\
                     \x20      repro extract-signatures [--signature-json OUT] \
                     [--from-checkpoint PATH] [campaign flags]\n\
                     \x20      repro minimize --signature-json PATH \
                     [--signature-index I] [--max-days N] [--max-seeds N] \
                     [--match core|strict] [--start-corruption PROFILE] \
                     [--out PATH]\n\
                     --analyses takes a comma-list of pass names \
                     (default all): {}",
                    PassRegistry::NAMES.join(",")
                ))
            }
            other => args.campaign.take(other, &mut it)?,
        }
    }
    check_balance(args.balance.as_ref(), args.costs_json.as_deref())?;
    Ok(args)
}

/// Parses a `--balance` value by its [`BalanceMode::as_str`] label.
/// `measured` comes back without costs: [`balance_mode`] reads them.
fn parse_balance(v: Option<&str>) -> Result<BalanceMode, String> {
    let modes = [
        BalanceMode::Uniform,
        BalanceMode::Static,
        BalanceMode::Measured(Vec::new()),
    ];
    let v = v.ok_or("--balance needs uniform, static or measured")?;
    modes
        .into_iter()
        .find(|mode| mode.as_str() == v)
        .ok_or_else(|| format!("--balance needs uniform, static or measured, got {v}"))
}

/// Refuses a `--balance` / `--costs-json` pair that cannot go
/// together: measured balancing needs the cost file, and the cost file
/// means nothing to the other modes. `None` is uniform.
fn check_balance(balance: Option<&BalanceMode>, costs_json: Option<&str>) -> Result<(), String> {
    match (balance, costs_json) {
        (Some(BalanceMode::Measured(_)), None) => {
            Err("--balance measured needs --costs-json PATH".to_string())
        }
        (None | Some(BalanceMode::Uniform | BalanceMode::Static), Some(_)) => {
            Err("--costs-json only applies with --balance measured".to_string())
        }
        _ => Ok(()),
    }
}

/// `balance` with the measured cost vector read and validated when it
/// is `measured`.
fn balance_mode(
    balance: BalanceMode,
    costs_json: Option<&str>,
    phones: u32,
) -> Result<BalanceMode, String> {
    match balance {
        BalanceMode::Measured(_) => {
            let path = costs_json.ok_or("--balance measured needs --costs-json PATH")?;
            Ok(BalanceMode::Measured(read_costs_json(path, phones)?))
        }
        mode => Ok(mode),
    }
}

/// Reads the `phone_costs` array from a prior run's `--timing-json`
/// file (schema v7). The file must come from an *unsharded* run of
/// the same fleet size: `phone_cost_start` must be 0 and the vector
/// must cover every phone, otherwise the planner would balance on a
/// partial view.
fn read_costs_json(path: &str, phones: u32) -> Result<Vec<f64>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let (start, costs) = phone_costs_from_json(&text).map_err(|e| format!("{path}: {e}"))?;
    if start != 0 {
        return Err(format!(
            "{path}: phone_cost_start is {start}, need a whole-fleet (unsharded) timing file"
        ));
    }
    if costs.len() != phones as usize {
        return Err(format!(
            "{path}: phone_costs has {} entries, --phones says {phones}",
            costs.len()
        ));
    }
    Ok(costs)
}

/// A predicted shard cost with three decimals, or with as many more as
/// four significant digits need: a static cost (log lines) prints as
/// `872.907`, and a measured cost of a fraction of a millisecond as
/// `0.0004123` rather than `0.000`.
fn fmt_cost(cost: f64) -> String {
    let decimals = if cost > 0.0 && cost.is_finite() {
        (3 - cost.log10().floor() as i32).max(3) as usize
    } else {
        3
    };
    format!("{cost:.decimals$}")
}

/// The campaign stage's wall-clock seconds plus the heap-allocation
/// calls and bytes it performed (process-wide deltas from the counting
/// allocator). The campaign simulates, parses and folds in one
/// streamed stage.
struct StageTiming {
    seconds: f64,
    allocs: u64,
    alloc_bytes: u64,
}

/// Runs the fleet campaign through the streaming driver over the
/// `--analyses` registry, timing the campaign stage. Fails only on
/// checkpoint I/O or validation errors.
fn run_campaign(
    args: &Args,
    registry: &PassRegistry,
) -> Result<(StreamingRun, StageTiming), String> {
    let campaign = args.campaign.campaign();
    let config = args.campaign.config();
    let opts = StreamingOptions {
        checkpoint: args.checkpoint.as_ref().map(PathBuf::from),
        checkpoint_every: args.checkpoint_every,
        stop_after_phones: args.stop_after,
        mtbf_trace: args.mtbf_trace_json.is_some(),
        alloc_counter: Some(thread_alloc_calls),
        shard: args.shard,
        balance: balance_mode(
            args.balance.clone().unwrap_or_default(),
            args.costs_json.as_deref(),
            args.campaign.phones,
        )?,
    };
    let (t, (a0, b0)) = (Instant::now(), alloc_now());
    let run = campaign
        .run_streaming_opts(args.workers, config, registry, &opts)
        .map_err(|e| format!("checkpoint error: {e}"))?;
    let (a1, b1) = alloc_now();
    let stage = StageTiming {
        seconds: t.elapsed().as_secs_f64(),
        allocs: a1 - a0,
        alloc_bytes: b1 - b0,
    };
    if let Some(absorbed) = run.resumed_from {
        eprintln!("resumed from checkpoint: {absorbed} phones already absorbed");
    }
    Ok((run, stage))
}

/// Hand-formats the campaign stage's timing plus the allocation and
/// parse-throughput counters as JSON (no serializer dependency).
fn timing_json(args: &Args, run: &StreamingRun, stage: &StageTiming) -> String {
    let defects = &run.parse_defects;
    let (total_allocs, total_alloc_bytes) = alloc_now();
    let parse_bytes_per_sec = if run.parse_cpu_seconds > 0.0 {
        run.parse_bytes as f64 / run.parse_cpu_seconds
    } else {
        0.0
    };
    let merge_wait_seconds: f64 = run.worker_stats.iter().map(|w| w.merge_wait_seconds).sum();
    let worker_alloc_calls: Vec<String> = run
        .worker_stats
        .iter()
        .map(|w| {
            w.alloc_calls
                .map_or_else(|| "null".to_string(), |n| n.to_string())
        })
        .collect();
    let topology = run.topology;
    let (shard_lo, shard_hi) = topology.interval();
    // The cut table the planner chose, with the predicted cost per
    // shard and — for the one shard this process actually ran — the
    // measured per-phone seconds to calibrate against.
    let own_measured: f64 = run.phone_seconds.iter().sum();
    let shard_plan: Vec<String> = run
        .plan
        .iter()
        .flat_map(|plan| (0..plan.count()).map(move |i| (plan, i)))
        .map(|(plan, i)| {
            let (lo, hi) = plan.interval(i);
            let measured = if i == topology.index {
                format!("{own_measured:.9}")
            } else {
                "null".to_string()
            };
            format!(
                "    {{\"index\": {}, \"start\": {}, \"end\": {}, \
                 \"predicted_cost\": {}, \"measured_seconds\": {}}}",
                i,
                lo,
                hi,
                fmt_cost(plan.predicted_cost(i)),
                measured
            )
        })
        .collect();
    let phone_cost_start = run.metas.first().map(|m| m.phone_id).unwrap_or(shard_lo);
    let phone_costs: Vec<String> = run
        .phone_seconds
        .iter()
        .map(|s| format!("{s:.9}"))
        .collect();
    format!(
        "{{\n  \"schema\": \"symfail-pipeline-timing/10\",\n  \"seed\": {},\n  \
         \"phones\": {},\n  \"days\": {},\n  \"workers\": {},\n  \
         \"shard_index\": {},\n  \"shard_count\": {},\n  \
         \"shard_start\": {},\n  \"shard_end\": {},\n  \
         \"balance\": \"{}\",\n  \
         \"shard_plan\": [\n{}\n  ],\n  \
         \"phone_cost_start\": {},\n  \"phone_costs\": [{}],\n  \
         \"corruption\": \"{}\",\n  \"parse_bytes\": {},\n  \
         \"parse_lines\": {},\n  \"parse_records_kept\": {},\n  \
         \"parse_defects\": {},\n  \"parse_seconds\": {:.6},\n  \
         \"parse_bytes_per_sec\": {:.0},\n  \"total_allocs\": {},\n  \
         \"total_alloc_bytes\": {},\n  \"peak_alloc_bytes\": {},\n  \
         \"merge_wait_seconds\": {:.6},\n  \"merge_absorbed_runs\": {},\n  \
         \"peak_pending_runs\": {},\n  \"peak_pending_phones\": {},\n  \
         \"worker_alloc_calls\": [{}],\n  \"stages\": [\n    \
         {{\"stage\": \"campaign+parse+fold\", \"seconds\": {:.6}, \
         \"allocs\": {}, \"alloc_bytes\": {}}}\n  ]\n}}\n",
        args.campaign.seed,
        args.campaign.phones,
        args.campaign.days,
        args.workers,
        topology.index,
        topology.count,
        shard_lo,
        shard_hi,
        args.balance
            .as_ref()
            .unwrap_or(&BalanceMode::Uniform)
            .as_str(),
        shard_plan.join(",\n"),
        phone_cost_start,
        phone_costs.join(", "),
        args.campaign.corruption.as_str(),
        run.parse_bytes,
        defects.lines_seen,
        defects.records_kept,
        defects.total(),
        run.parse_cpu_seconds,
        parse_bytes_per_sec,
        total_allocs,
        total_alloc_bytes,
        alloc_peak(),
        merge_wait_seconds,
        run.merge_stats.absorbed_shards,
        run.merge_stats.peak_pending_shards,
        run.merge_stats.peak_pending_phones,
        worker_alloc_calls.join(", "),
        stage.seconds,
        stage.allocs,
        stage.alloc_bytes
    )
}

/// Hand-formats the online-MTBF trace as JSON: one entry per
/// checkpoint boundary, keyed by phones absorbed, ending with the
/// whole-fleet estimate (which matches the final report exactly).
fn mtbf_trace_json(args: &Args, run: &StreamingRun) -> String {
    let entries: Vec<String> = run
        .mtbf_trace
        .iter()
        .map(|(phones, est)| {
            format!(
                "    {{\"phones\": {}, \"mtbf\": {}}}",
                phones,
                est.to_json()
            )
        })
        .collect();
    format!(
        "{{\n  \"schema\": \"symfail-mtbf-trace/1\",\n  \"seed\": {},\n  \
         \"phones\": {},\n  \"days\": {},\n  \"workers\": {},\n  \
         \"corruption\": \"{}\",\n  \"resumed_from\": {},\n  \
         \"trace\": [\n{}\n  ]\n}}\n",
        args.campaign.seed,
        args.campaign.phones,
        args.campaign.days,
        args.workers,
        args.campaign.corruption.as_str(),
        run.resumed_from
            .map_or_else(|| "null".to_string(), |n| n.to_string()),
        entries.join(",\n")
    )
}

/// Appends the coalescence window sweep over the report's panics and
/// its merged HL stream.
fn push_window_sweep(out: &mut String, report: &StudyReport) {
    let sweep = report
        .coalescence
        .window_sweep(&report.hl_events, &COALESCENCE_SWEEP_WINDOWS_SECS);
    for (w, frac) in sweep {
        outln!(out, "  window {w:>6} s -> {:.1}% related", 100.0 * frac);
    }
}

fn forum_report(seed: u64) -> String {
    use symfail_forum::corpus::CorpusGenerator;
    use symfail_forum::tables::ForumStudy;
    let corpus = CorpusGenerator::paper_sized(seed).generate();
    let study = ForumStudy::classify(&corpus);
    format!(
        "{}\n=== forum paper-vs-measured ===\n{}",
        study.render_all(),
        study.shape_report()
    )
}

/// `repro merge-checkpoints OUT IN1 IN2 ...` — validates and merges
/// shard checkpoints written by `--shard i/N` processes of the same
/// campaign, writes the merged whole-fleet checkpoint to OUT, and
/// prints the report a single-process `--exp all` run would print,
/// byte for byte. The campaign flags must match the
/// ones the shard processes ran with: they rebuild the fingerprint
/// and analysis config the inputs are validated against.
fn merge_checkpoints_cmd(argv: &[String]) -> Result<String, String> {
    let mut flags = CampaignFlags::default();
    let mut analyses = "all".to_string();
    let mut partial = false;
    let mut paths: Vec<&str> = Vec::new();
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--analyses" => analyses = value(&mut it, "--analyses needs a comma-list")?,
            "--partial" => partial = true,
            "--help" | "-h" => {
                return Err("usage: repro merge-checkpoints OUT IN1 IN2 ... \
                            [--seed N] [--phones N] [--days N] \
                            [--corruption PROFILE] [--fleet SPEC] \
                            [--analyses LIST] [--partial]"
                    .to_string())
            }
            flag if flag.starts_with("--") => flags.take(flag, &mut it)?,
            path => paths.push(path),
        }
    }
    let (out_path, in_paths) = paths
        .split_first()
        .ok_or("merge-checkpoints needs OUT plus at least one input checkpoint")?;
    if in_paths.is_empty() {
        return Err("merge-checkpoints needs at least one input checkpoint".to_string());
    }

    let registry = PassRegistry::select(&analyses)?;
    let phones = flags.phones;
    let fingerprint = flags.campaign().fingerprint();
    let composition = flags.fleet.spec_string();
    let config = flags.config();

    let inputs: Vec<Vec<u8>> = in_paths
        .iter()
        .map(|p| std::fs::read(p).map_err(|e| format!("cannot read {p}: {e}")))
        .collect::<Result<_, _>>()?;
    let (merger, gaps) = if partial {
        merge_shard_checkpoints_partial(&registry, config, fingerprint, &composition, &inputs)
            .map_err(|e| format!("merge failed: {e}"))?
    } else {
        let merger = merge_shard_checkpoints(&registry, config, fingerprint, &composition, &inputs)
            .map_err(|e| format!("merge failed: {e}"))?;
        (merger, Vec::new())
    };
    if !partial && merger.absorbed() != phones {
        return Err(format!(
            "merged checkpoints cover {} phones, --phones says {phones}",
            merger.absorbed()
        ));
    }

    // The output checkpoint covers the contiguous absorbed prefix
    // only — under `--partial` with a leading gap that can be fewer
    // phones than the report below folds in, but it is always a valid
    // resumable checkpoint.
    let merged = merger.snapshot(fingerprint, &composition, ShardTopology::solo(phones));
    std::fs::write(out_path, merged).map_err(|e| format!("cannot write {out_path}: {e}"))?;
    if gaps.is_empty() {
        eprintln!(
            "merged {} shard checkpoints ({phones} phones) into {out_path}",
            in_paths.len()
        );
    } else {
        let missing: u32 = gaps.iter().map(|&(from, to)| to - from).sum();
        eprintln!(
            "partial merge: {} shard checkpoints ({} of {phones} phones) into {out_path}",
            in_paths.len(),
            phones - missing
        );
        for &(from, to) in &gaps {
            eprintln!("  missing phones [{from}, {to}) — shard checkpoint absent");
        }
    }

    let report = merger.finish();
    let mut out = String::new();
    if !gaps.is_empty() {
        outln!(
            out,
            "=== PARTIAL report: best-effort from an incomplete shard cover ==="
        );
        for &(from, to) in &gaps {
            outln!(out, "=== missing phone interval [{from}, {to}) ===");
        }
    }
    outln!(out, "{}", report.render_all());
    outln!(out, "{}", report.render_per_phone());
    outln!(out, "{}", forum_report(flags.seed));
    outln!(out, "\n=== campaign paper-vs-measured shape report ===");
    outln!(out, "{}", report.shape_report());
    Ok(out)
}

/// `repro plan-shards --shards N` — prints the cut table the planner
/// would choose for the campaign (no simulation runs): one line per
/// shard with its `[start, end)` interval, phone count and predicted
/// cost, plus the predicted critical path versus the uniform split.
fn plan_shards_cmd(argv: &[String]) -> Result<String, String> {
    let mut flags = CampaignFlags::default();
    let mut shards: u32 = 0;
    let mut balance = BalanceMode::Static;
    let mut costs_json: Option<String> = None;
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--shards" => shards = positive(&mut it, "--shards needs a positive shard count")?,
            "--balance" => balance = parse_balance(it.next().map(String::as_str))?,
            "--costs-json" => costs_json = Some(value(&mut it, "--costs-json needs a path")?),
            "--help" | "-h" => {
                return Err("usage: repro plan-shards --shards N \
                            [--balance uniform|static|measured] [--costs-json PATH] \
                            [--seed N] [--phones N] [--days N] \
                            [--corruption PROFILE] [--fleet SPEC]"
                    .to_string())
            }
            flag => flags.take(flag, &mut it)?,
        }
    }
    if shards == 0 {
        return Err("plan-shards needs --shards N (e.g. --shards 4)".to_string());
    }
    check_balance(Some(&balance), costs_json.as_deref())?;
    let phones = flags.phones;
    let mode = balance_mode(balance, costs_json.as_deref(), phones)?;
    let campaign = flags.campaign();
    let plan = campaign.shard_plan(shards, &mode);
    // Cost the uniform comparison under the SAME vector the chosen
    // mode balances on, so the printed ratio is apples to apples.
    let costs = match &mode {
        BalanceMode::Measured(costs) => costs.clone(),
        _ => campaign.estimate_phone_costs(),
    };
    let uniform = ShardPlan::uniform(&costs, shards);
    let mut out = String::new();
    outln!(
        out,
        "shard plan: {phones} phones x {} days, corruption {}, \
         fleet {}, {shards} shards, balance {}",
        flags.days,
        flags.corruption.as_str(),
        flags.fleet.spec_string(),
        mode.as_str()
    );
    outln!(out, "  shard  interval            phones  predicted_cost");
    for i in 0..plan.count() {
        let (lo, hi) = plan.interval(i);
        outln!(
            out,
            "  {i:>5}  [{lo:>6}, {hi:>6})    {:>6}  {:>14}",
            hi - lo,
            fmt_cost(plan.predicted_cost(i))
        );
    }
    let best = plan.max_predicted_cost();
    let flat = uniform.max_predicted_cost();
    outln!(out, "predicted max-shard cost: {}", fmt_cost(best));
    if mode != BalanceMode::Uniform && best > 0.0 {
        outln!(
            out,
            "uniform i/N split would cost {} ({:.2}x the balanced critical path)",
            fmt_cost(flat),
            flat / best
        );
    }
    Ok(out)
}

/// `repro extract-signatures` — distills a campaign into its distinct
/// fault-signature catalog. With `--from-checkpoint` the signatures
/// come out of a v5 checkpoint's coalesce accumulators without
/// re-simulating; otherwise the campaign driver runs the coalesce pass.
fn extract_signatures_cmd(argv: &[String]) -> Result<String, String> {
    let mut flags = CampaignFlags::default();
    let mut analyses: Option<String> = None;
    let mut from_checkpoint: Option<String> = None;
    let mut out: Option<String> = None;
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--analyses" => analyses = Some(value(&mut it, "--analyses needs a comma-list")?),
            "--from-checkpoint" => {
                from_checkpoint = Some(value(&mut it, "--from-checkpoint needs a path")?)
            }
            "--signature-json" => out = Some(value(&mut it, "--signature-json needs a path")?),
            "--help" | "-h" => {
                return Err("usage: repro extract-signatures [--signature-json OUT] \
                            [--from-checkpoint PATH] [--seed N] [--phones N] [--days N] \
                            [--corruption PROFILE] [--fleet SPEC] [--analyses LIST]\n\
                            Runs the campaign driver over the coalesce pass alone, or \
                            reads the coalesce section of a checkpoint written with the \
                            --analyses passes (default all)."
                    .to_string())
            }
            flag => flags.take(flag, &mut it)?,
        }
    }
    // Only a checkpoint carries the passes `--analyses` names; a
    // simulated extraction runs the coalescence fold alone.
    if analyses.is_some() && from_checkpoint.is_none() {
        return Err("--analyses only applies with --from-checkpoint PATH".to_string());
    }
    let config = flags.config();
    let campaign = flags.campaign();
    let sigs = match &from_checkpoint {
        Some(path) => {
            let registry = PassRegistry::select(analyses.as_deref().unwrap_or("all"))?;
            let bytes = std::fs::read(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            let (names, panics) = checkpoint_coalesced(
                &registry,
                config,
                campaign.fingerprint(),
                &flags.fleet.spec_string(),
                &bytes,
            )
            .map_err(|e| format!("cannot extract from {path}: {e}"))?;
            distinct_signatures(&panics, &names, |id| campaign.device_labels(id))
        }
        None => extract_fleet_signatures(&campaign, &config),
    };
    let total: u64 = sigs.iter().map(|(_, n)| n).sum();
    let json = signatures_to_json(&sigs);
    match &out {
        Some(path) => {
            std::fs::write(path, &json).map_err(|e| format!("cannot write {path}: {e}"))?;
            eprintln!(
                "{} distinct signatures ({total} coalesced panics) written to {path}",
                sigs.len()
            );
            Ok(String::new())
        }
        None => Ok(json),
    }
}

/// `repro minimize` — picks one signature out of an
/// `extract-signatures` catalog and emits the minimal single-phone
/// repro campaign, replay-verified before it is written.
fn minimize_cmd(argv: &[String]) -> Result<String, String> {
    let mut sig_path: Option<String> = None;
    let mut index: usize = 0;
    let mut opts = MinimizeOptions {
        config: CalibrationParams::default().analysis_config(),
        ..MinimizeOptions::default()
    };
    let mut out: Option<String> = None;
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--signature-json" => sig_path = Some(value(&mut it, "--signature-json needs a path")?),
            "--signature-index" => index = value(&mut it, "--signature-index needs an integer")?,
            "--max-days" => {
                opts.max_days = positive(&mut it, "--max-days needs a positive day count")?
            }
            "--max-seeds" => {
                opts.max_seeds = positive(&mut it, "--max-seeds needs a positive seed count")?
            }
            "--match" => {
                let name: String = value(&mut it, "--match needs core|strict")?;
                opts.mode = MatchMode::parse(&name).ok_or(format!("unknown match mode {name}"))?
            }
            "--start-corruption" => {
                opts.corruption =
                    corruption_profile(&mut it, "--start-corruption needs a profile name")?
            }
            "--out" => out = Some(value(&mut it, "--out needs a path")?),
            "--help" | "-h" => {
                return Err("usage: repro minimize --signature-json PATH \
                            [--signature-index I] [--max-days N] [--max-seeds N] \
                            [--match core|strict] [--start-corruption PROFILE] \
                            [--out PATH]"
                    .to_string())
            }
            flag => return Err(format!("unknown flag {flag}")),
        }
    }
    let sig_path = sig_path.ok_or("minimize needs --signature-json PATH")?;
    let text =
        std::fs::read_to_string(&sig_path).map_err(|e| format!("cannot read {sig_path}: {e}"))?;
    let sigs = signatures_from_json(&text).map_err(|e| format!("{sig_path}: {e}"))?;
    let sig = sigs.get(index).ok_or(format!(
        "--signature-index {index} out of range: {sig_path} holds {} signatures",
        sigs.len()
    ))?;
    eprintln!("minimizing signature {index}: {}", sig.key());
    let min = minimize(sig, &opts).map_err(|e| e.to_string())?;
    if !min.config.replay(&opts.config).map_err(|e| e.to_string())? {
        return Err("internal error: minimized config failed replay verification".to_string());
    }
    let channels: Vec<&str> = min.config.channels.iter().map(|c| c.as_str()).collect();
    eprintln!(
        "minimal repro: seed {} x {} days, channels [{}], corruption {} \
         ({} probes, {} simulated, {} accepted shrink steps, replay-verified)",
        min.config.seed,
        min.config.days,
        channels.join(", "),
        min.config.corruption.as_str(),
        min.probes,
        min.simulated,
        min.trail.len()
    );
    let json = min.config.to_json();
    match &out {
        Some(path) => {
            std::fs::write(path, &json).map_err(|e| format!("cannot write {path}: {e}"))?;
            eprintln!("wrote minimal campaign config to {path}");
            Ok(String::new())
        }
        None => Ok(json),
    }
}

/// Every `--exp` name the default command knows.
const EXPERIMENTS: [&str; 17] = [
    "all",
    "table1",
    "forum_marginals",
    "table2",
    "table3",
    "table4",
    "fig2",
    "fig3",
    "fig5",
    "fig6",
    "mtbf",
    "defects",
    "ablations",
    "perphone",
    "extensions",
    "stats",
    "targets",
];

/// The default command: runs the campaign and prints `--exp`'s
/// artifacts.
fn experiment_cmd(argv: &[String]) -> Result<String, String> {
    let args = parse_args(argv)?;
    // Before the campaign, so a typo costs no simulation and writes
    // no `--timing-json`/`--defects-json`/`--mtbf-trace-json` file.
    if !EXPERIMENTS.contains(&args.exp.as_str()) {
        return Err(format!("unknown experiment {}", args.exp));
    }
    let needs_campaign = args.exp != "table1" && args.exp != "forum_marginals";
    if !needs_campaign {
        // These flags write or shape a campaign; refuse them rather
        // than exit 0 having run none.
        let campaign_flags = [
            ("--timing-json", args.timing_json.is_some()),
            ("--defects-json", args.defects_json.is_some()),
            ("--mtbf-trace-json", args.mtbf_trace_json.is_some()),
            ("--checkpoint", args.checkpoint.is_some()),
            ("--checkpoint-every", args.checkpoint_every > 0),
            ("--stop-after", args.stop_after.is_some()),
            ("--shard", args.shard.is_some()),
            ("--balance", args.balance.is_some()),
        ];
        if let Some((flag, _)) = campaign_flags.iter().find(|(_, given)| *given) {
            return Err(format!(
                "{flag} needs a campaign, and --exp {} runs none",
                args.exp
            ));
        }
    }
    // A stopped campaign is worth something only as a checkpoint to
    // resume; without one it would report on the first N phones as if
    // they were the fleet.
    if args.stop_after.is_some() && args.checkpoint.is_none() {
        return Err("--stop-after needs --checkpoint PATH".to_string());
    }
    // Balancing only moves shard cuts; without a shard it changes
    // nothing.
    if args.balance.is_some() && args.shard.is_none() {
        return Err("--balance only applies with --shard i/N".to_string());
    }
    let registry = PassRegistry::select(&args.analyses)?;
    // The window sweep re-thresholds the coalesce pass's panics.
    let sweeps = args.exp == "ablations" || (args.exp == "fig5" && args.sweep);
    if sweeps && !registry.names().contains(&"coalesce") {
        return Err(format!(
            "--exp {} sweeps the coalesce pass; add it to --analyses",
            args.exp
        ));
    }
    let run = if needs_campaign {
        Some(run_campaign(&args, &registry)?)
    } else {
        None
    };
    let write = |path: &str, text: String| {
        std::fs::write(path, text).map_err(|e| format!("cannot write {path}: {e}"))
    };
    if let (Some(path), Some((run, _))) = (&args.mtbf_trace_json, &run) {
        write(path, mtbf_trace_json(&args, run))?;
        eprintln!("wrote MTBF trace to {path}");
    }
    if let (Some(path), Some((run, stage))) = (&args.timing_json, &run) {
        write(path, timing_json(&args, run, stage))?;
        eprintln!("wrote stage timings to {path}");
    }
    if let (Some(path), Some((run, _))) = (&args.defects_json, &run) {
        write(path, run.report.defects.to_json())?;
        eprintln!("wrote defect report to {path}");
    }
    let run = run.map(|(run, _)| run);
    let report = run.as_ref().map(|run| &run.report);
    let mut out = String::new();
    match args.exp.as_str() {
        "all" => {
            let report = report.expect("campaign ran");
            outln!(out, "{}", report.render_all());
            outln!(out, "{}", report.render_per_phone());
            outln!(out, "{}", forum_report(args.campaign.seed));
            outln!(out, "\n=== campaign paper-vs-measured shape report ===");
            outln!(out, "{}", report.shape_report());
        }
        "table1" | "forum_marginals" => {
            outln!(out, "{}", forum_report(args.campaign.seed));
        }
        "table2" => outln!(out, "{}", report.expect("campaign ran").render_table2()),
        "table3" => outln!(out, "{}", report.expect("campaign ran").render_table3()),
        "table4" => outln!(out, "{}", report.expect("campaign ran").render_table4()),
        "fig2" => outln!(out, "{}", report.expect("campaign ran").render_fig2()),
        "fig3" => outln!(out, "{}", report.expect("campaign ran").render_fig3()),
        "fig6" => outln!(out, "{}", report.expect("campaign ran").render_fig6()),
        "mtbf" => outln!(out, "{}", report.expect("campaign ran").render_mtbf()),
        "defects" => outln!(out, "{}", report.expect("campaign ran").render_defects()),
        "fig5" => {
            let report = report.expect("campaign ran");
            outln!(out, "{}", report.render_fig5());
            if args.sweep {
                outln!(
                    out,
                    "window sweep (the paper's justification for 5 minutes):"
                );
                push_window_sweep(&mut out, report);
            }
        }
        "ablations" => {
            let report = report.expect("campaign ran");
            outln!(
                out,
                "--- self-shutdown threshold sweep (Fig. 2's 360 s choice) ---"
            );
            for (th, n) in report
                .shutdowns
                .threshold_sweep(&SHUTDOWN_THRESHOLD_SWEEP_SECS)
            {
                outln!(out, "  threshold {th:>5} s -> {n} self-shutdowns");
            }
            outln!(
                out,
                "--- coalescence window sweep (Fig. 4/5's 5-minute choice) ---"
            );
            push_window_sweep(&mut out, report);
            outln!(
                out,
                "--- including all shutdown events (51% -> 55% robustness) ---"
            );
            outln!(
                out,
                "  self-shutdowns only: {:.1}% | all shutdown events: {:.1}%",
                100.0 * report.coalescence.related_fraction(),
                100.0 * report.coalescence_all_shutdowns.related_fraction()
            );
        }
        "perphone" => {
            let report = report.expect("campaign ran");
            outln!(out, "{}", report.render_per_phone());
        }
        "extensions" => {
            // Post-paper extensions: baseline comparison, temporal
            // behaviour, and the user-report channel (future work).
            // All of them run off the report and the per-phone metas.
            let run = run.as_ref().expect("campaign ran");
            let metas = &run.metas;
            let report = &run.report;
            outln!(
                out,
                "{}",
                symfail_core::analysis::baseline::BaselineComparison::new(report).render()
            );
            if let Some(ia) =
                symfail_core::analysis::interarrival::InterArrivalAnalysis::new(&report.hl_events)
            {
                outln!(out, "{}", ia.render("freezes + self-shutdowns"));
            }
            // Firmware breakdown comes from the registered `firmware`
            // pass: logged data, not simulator metadata.
            out.push_str(&report.render_firmware());
            out.push_str(&report.render_device_classes());
            outln!(out);
            let sev = symfail_core::analysis::severity::SeverityAnalysis::from_counts(
                report.mtbf.freezes,
                report.mtbf.self_shutdowns,
                report.mtbf.total_hours,
            );
            outln!(out, "{}", sev.render());
            let truth = symfail_phone::fleet::total_stats(metas);
            let ureports =
                symfail_core::analysis::output_failures::OutputFailureAnalysis::from_reports(
                    metas.iter().map(|m| (m.phone_id, m.ureports.as_slice())),
                );
            outln!(out, "{}", ureports.render(Some(truth.output_failures)));
        }
        "stats" => {
            let run = run.as_ref().expect("campaign ran");
            outln!(out, "{:#?}", symfail_phone::fleet::total_stats(&run.metas));
        }
        "targets" => {
            let report = report.expect("campaign ran");
            outln!(out, "{}", report.shape_report());
            outln!(
                out,
                "\npaper totals: {} panics, {} freezes, {} self-shutdowns, {} shutdown events",
                targets::TOTAL_PANICS,
                targets::FREEZES,
                targets::SELF_SHUTDOWNS,
                targets::SHUTDOWN_EVENTS
            );
        }
        other => unreachable!("experiment {other} was checked against EXPERIMENTS"),
    }
    Ok(out)
}

/// Dispatches to the subcommand `argv` names, or to the default
/// experiment command.
fn run_cmd(argv: &[String]) -> Result<String, String> {
    match argv.first().map(String::as_str) {
        Some("merge-checkpoints") => merge_checkpoints_cmd(&argv[1..]),
        Some("plan-shards") => plan_shards_cmd(&argv[1..]),
        Some("extract-signatures") => extract_signatures_cmd(&argv[1..]),
        Some("minimize") => minimize_cmd(&argv[1..]),
        _ => experiment_cmd(argv),
    }
}

/// Writes a command's whole stdout text. A reader that closes the
/// pipe early (`repro ... | head`) wants no more of it, so a broken
/// pipe is a quiet success.
fn write_stdout(text: &str) -> ExitCode {
    let mut stdout = std::io::stdout().lock();
    match stdout
        .write_all(text.as_bytes())
        .and_then(|()| stdout.flush())
    {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("cannot write stdout: {e}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match run_cmd(&argv) {
        Ok(stdout) => write_stdout(&stdout),
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}
