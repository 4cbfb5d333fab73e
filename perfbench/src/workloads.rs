//! The four workloads and the calls their ops make.
//!
//! Untraced ops call the program's composed entry points
//! (`run_streaming_opts`, `merge_shard_checkpoints`,
//! `extract_fleet_signatures`). Traced ops make the same per-phone and
//! per-shard calls those entry points make, in the same order and on
//! the same number of threads, with a span around each call; their
//! rendered output must equal the untraced output byte for byte.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use symfail_core::analysis::checkpoint::ShardTopology;
use symfail_core::analysis::dataset::{ParseScratch, PhoneDataset};
use symfail_core::analysis::passes::{
    checkpoint_coalesced, load_shard_checkpoint, merge_shard_checkpoints, tree_merge_shards,
    validate_shard_cover, FoldShard, PassRegistry, PhoneLens, StreamMerger,
};
use symfail_core::analysis::report::{AnalysisConfig, StudyReport};
use symfail_core::analysis::signature::FailureSignature;
use symfail_phone::calibration::CalibrationParams;
use symfail_phone::composition::FleetComposition;
use symfail_phone::corruption::{CorruptionModel, CorruptionProfile};
use symfail_phone::fleet::{FleetCampaign, PhoneMeta, ShardSpec, StreamingOptions};
use symfail_phone::plan::BalanceMode;
use symfail_phone::repro::{extract_fleet_signatures, minimize, MinimizeError, MinimizeOptions};
use symfail_sim_core::{SimDuration, SimRng};

use crate::trace::{self, ThreadTrace, Tracer};

/// The committed rendering of the default campaign at seed 2005.
const GOLDEN_DEFAULT: &str = include_str!("../../tests/golden/report_default.txt");
const GOLDEN_SEED: u64 = 2005;

/// Shard processes `checkpoint_tail` simulates in its set-up.
const TAIL_SHARDS: u32 = 32;
/// Phones in `checkpoint_tail`'s campaign.
const TAIL_PHONES: u32 = 100;
/// Phones in `worst_mixed_fleet`'s campaign, sized so a run holds at
/// least 20 ops (see the benchmark README).
const WORST_PHONES: u32 = 25;
/// Campaign seeds an untraced campaign or triage run cycles through.
const ROTATION: u64 = 8;

/// Campaign seed `k` of a run on `seed`: the seed itself, then seeds
/// forked from it. A campaign's cost and its catalog's hard signatures
/// vary from seed to seed (a 25-phone fleet draws few heavy users, a
/// catalog only a handful of signatures that exhaust the search
/// budget), so an untraced run spreads its ops over several campaigns
/// and its figures compare across seeds.
fn campaign_seed(seed: u64, k: u64) -> u64 {
    match k {
        0 => seed,
        _ => SimRng::seed_from(seed)
            .fork("perfbench-campaign", k)
            .next_u64(),
    }
}

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's default 25 × 425 campaign.
    PaperFleet,
    /// A mixed-class fleet under worst-case flash corruption.
    WorstMixedFleet,
    /// Merge, snapshot, resume and render of 32 shard checkpoints.
    CheckpointTail,
    /// Signature extraction plus minimization of every signature.
    Triage,
}

impl Workload {
    /// Every workload, in the order the benchmark lists them.
    pub const ALL: [Workload; 4] = [
        Workload::PaperFleet,
        Workload::WorstMixedFleet,
        Workload::CheckpointTail,
        Workload::Triage,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperFleet => "paper_fleet",
            Workload::WorstMixedFleet => "worst_mixed_fleet",
            Workload::CheckpointTail => "checkpoint_tail",
            Workload::Triage => "triage",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// A campaign's inputs.
#[derive(Debug, Clone)]
pub struct Fleet {
    /// Root seed.
    pub seed: u64,
    /// Phones in the fleet.
    pub phones: u32,
    /// Campaign length in days.
    pub days: u32,
    /// Device-class mix.
    pub composition: FleetComposition,
    /// Flash corruption injected after each phone's harvest.
    pub corruption: CorruptionProfile,
}

impl Fleet {
    /// The paper's 25 phones × 425 days: default fleet, no corruption.
    pub fn paper(seed: u64) -> Self {
        Self {
            seed,
            phones: 25,
            days: 425,
            composition: FleetComposition::default(),
            corruption: CorruptionProfile::None,
        }
    }

    /// `phones` × 425 days, mixed classes, worst corruption.
    pub fn worst_mixed(seed: u64, phones: u32) -> Self {
        Self {
            seed,
            phones,
            days: 425,
            composition: FleetComposition::mixed(),
            corruption: CorruptionProfile::Worst,
        }
    }

    fn params(&self) -> CalibrationParams {
        CalibrationParams {
            phones: self.phones,
            campaign_days: self.days,
            ..CalibrationParams::default()
        }
    }

    /// The campaign the program runs.
    pub fn campaign(&self) -> FleetCampaign {
        FleetCampaign::new(self.seed, self.params())
            .with_corruption(self.corruption)
            .with_fleet(self.composition.clone())
    }

    /// The same campaign without corruption, whose harvests the traced
    /// run corrupts itself so `phone.corrupt` gets its own span.
    fn twin(&self) -> FleetCampaign {
        FleetCampaign::new(self.seed, self.params()).with_fleet(self.composition.clone())
    }
}

/// The analysis thresholds the CLI uses for a default-calibration
/// campaign.
pub fn analysis_config() -> AnalysisConfig {
    AnalysisConfig {
        uptime_gap: SimDuration::from_secs(
            CalibrationParams::default().heartbeat_period_secs * 3 + 60,
        ),
        ..AnalysisConfig::default()
    }
}

/// The text an op renders: `render_all() + render_per_phone()`.
pub fn render(report: &StudyReport) -> String {
    report.render_all() + &report.render_per_phone()
}

fn ms_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}

/// Runs `call` inside a `layer` span when a recorder is given.
fn timed<R>(
    t: &mut Option<&mut ThreadTrace<'_>>,
    layer: &'static str,
    call: impl FnOnce() -> R,
) -> R {
    match t {
        Some(t) => t.layer(layer, call),
        None => call(),
    }
}

fn count(t: &mut Option<&mut ThreadTrace<'_>>, key: &'static str, n: u64) {
    if let Some(t) = t {
        t.count(key, n);
    }
}

/// Runs `job` for every index in `0..n` on `workers` threads that take
/// the next index from a shared counter; results come back in index
/// order.
fn pool<T: Send>(workers: usize, n: usize, job: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let next = AtomicUsize::new(0);
    let slots: Mutex<Vec<Option<T>>> = Mutex::new((0..n).map(|_| None).collect());
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let out = job(i);
                slots.lock().expect("result slot lock")[i] = Some(out);
            });
        }
    });
    slots
        .into_inner()
        .expect("result slot lock")
        .into_iter()
        .map(|slot| slot.expect("every index ran"))
        .collect()
}

/// What one untraced campaign op yields.
pub struct CampaignRun {
    /// The rendered report.
    pub text: String,
    /// Σ (retired − enrolled) over the fleet.
    pub phone_days: u64,
    /// The driver's own merge-wait seconds, summed over workers.
    pub driver_wait_s: f64,
    /// Most phones the driver's merger ever held pending.
    pub peak_pending_phones: usize,
}

/// One untraced campaign op: `run_streaming_opts` → render.
pub fn campaign_op(
    campaign: &FleetCampaign,
    workers: usize,
    registry: &PassRegistry,
    config: AnalysisConfig,
) -> Result<CampaignRun, String> {
    let run = campaign
        .run_streaming_opts(workers, config, registry, &StreamingOptions::default())
        .map_err(|e| e.to_string())?;
    Ok(CampaignRun {
        text: render(&run.report),
        phone_days: run
            .metas
            .iter()
            .map(|m| m.retired_day - m.enrolled_day)
            .sum(),
        driver_wait_s: run.worker_stats.iter().map(|w| w.merge_wait_seconds).sum(),
        peak_pending_phones: run.merge_stats.peak_pending_phones,
    })
}

/// One traced campaign op: the sharded streaming driver's per-phone
/// and per-run calls, with the driver's run plan and worker count.
pub fn traced_campaign_op(
    fleet: &Fleet,
    workers: usize,
    registry: &PassRegistry,
    config: AnalysisConfig,
    tracer: &Tracer,
    op: u32,
) -> String {
    let twin = fleet.twin();
    let phones = fleet.phones;
    let needs_coalesce = registry.needs_coalesce();
    let workers = workers.clamp(1, phones.max(1) as usize);
    // The driver's default plan: contiguous runs sized so each worker
    // sees several of them.
    let run_len = (phones / (workers as u32 * 8)).clamp(1, 32);
    let runs: Vec<(u32, u32)> = (0..phones)
        .step_by(run_len as usize)
        .map(|a| (a, (a + run_len).min(phones)))
        .collect();
    let next = AtomicUsize::new(0);
    let merger = Mutex::new(StreamMerger::new(registry, config));

    let mut main = tracer.thread();
    main.op = op;
    let root = main.begin(trace::OP, None);
    let scope = main.begin(trace::SCOPE, None);
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| {
                let mut t = tracer.thread();
                t.op = op;
                let worker = t.begin(trace::WORKER, Some(root));
                let mut scratch = ParseScratch::default();
                while let Some(&(start, end)) = runs.get(next.fetch_add(1, Ordering::Relaxed)) {
                    let mut shard = FoldShard::new(registry, start);
                    for id in start..end {
                        let mut harvest = t.layer("phone.simulate", || twin.run_single(id));
                        t.count(
                            "phone.simulate.phone_days",
                            harvest.retired_day - harvest.enrolled_day,
                        );
                        t.count("phone.simulate.flash_bytes", harvest.flashfs.total_size());
                        if fleet.corruption != CorruptionProfile::None {
                            let rates = fleet
                                .composition
                                .profile(id, phones)
                                .scale_corruption(fleet.corruption.rates());
                            let mut rng =
                                SimRng::seed_from(fleet.seed).fork("corruption", id as u64);
                            let fs = &mut harvest.flashfs;
                            let injected = t.layer("phone.corrupt", || {
                                CorruptionModel::new(rates).inject(fs, &mut rng)
                            });
                            t.count(
                                "phone.corrupt.defects_injected",
                                injected.total_observable() + injected.tail_lines_lost,
                            );
                            harvest.injected = injected;
                        }
                        let ds = t.layer("core.parse", || {
                            let ds =
                                PhoneDataset::from_flashfs_with(id, &harvest.flashfs, &mut scratch);
                            drop(PhoneMeta::from_harvest(&harvest));
                            ds
                        });
                        count_parse(&mut t, &ds, harvest.flashfs.total_size());
                        drop(harvest);
                        t.layer("core.fold", || {
                            let lens = PhoneLens::with_device(
                                &ds,
                                config,
                                needs_coalesce,
                                twin.device_labels(id),
                            );
                            shard.absorb_phone(registry, &lens);
                        });
                        t.count("core.fold.panics", ds.panics().len() as u64);
                        ds.recycle(&mut scratch);
                    }
                    let mut m = merger.lock().expect("merger lock");
                    t.layer("core.merge", || m.push_shard(shard));
                    drop(m);
                    t.count("core.merge.shards", 1);
                }
                t.end(worker);
            });
        }
    });
    main.end(scope);
    let merger = merger.into_inner().expect("merger lock");
    let text = main.layer("core.render", || render(&merger.finish()));
    main.count("core.render.bytes", text.len() as u64);
    main.end(root);
    text
}

fn count_parse(t: &mut ThreadTrace<'_>, ds: &PhoneDataset, bytes: u64) {
    let d = ds.defects();
    t.count("core.parse.bytes", bytes);
    t.count("core.parse.lines", d.lines_seen);
    t.count("core.parse.records_kept", d.records_kept);
    t.count("core.parse.defects", d.total());
}

/// The result of one pass: one finished product (a report, or a whole
/// triage catalog) and the ops that built it.
#[derive(Debug, Clone, Default)]
pub struct PassOut {
    /// Latency of each op, ms.
    pub op_ms: Vec<f64>,
    /// Ops whose output was wrong or that returned an error.
    pub failed: u64,
    /// Ops that delivered a verified result.
    pub useful: u64,
    /// Wall time of the whole pass, s.
    pub wall_s: f64,
    /// Phone-days the pass carried into its product.
    pub phone_days: u64,
    /// The first failure, for the log.
    pub error: Option<String>,
}

impl PassOut {
    fn single(ms: f64, phone_days: u64, verdict: Result<(), String>) -> Self {
        let ok = verdict.is_ok();
        PassOut {
            op_ms: vec![ms],
            failed: u64::from(!ok),
            useful: u64::from(ok),
            wall_s: ms / 1e3,
            phone_days,
            error: verdict.err(),
        }
    }
}

fn same_text(got: &str, want: &str, what: &str) -> Result<(), String> {
    if got == want {
        return Ok(());
    }
    let line = got
        .lines()
        .zip(want.lines())
        .position(|(g, w)| g != w)
        .map_or_else(|| "in length".to_string(), |i| format!("at line {}", i + 1));
    Err(format!("{what} differs from the reference {line}"))
}

/// `paper_fleet` and `worst_mixed_fleet`.
pub struct CampaignJob {
    fleet: Fleet,
    workers: usize,
    /// Cycle untraced ops over [`ROTATION`] campaign seeds.
    rotate: bool,
    ops: usize,
    /// Expected report per campaign seed: the golden fixture at its
    /// seed, otherwise the first op's report on that seed.
    references: BTreeMap<u64, String>,
    campaigns: Vec<FleetCampaign>,
    registry: PassRegistry,
    config: AnalysisConfig,
    driver_wait_s: Vec<f64>,
    peak_pending_phones: usize,
}

impl CampaignJob {
    fn new(fleet: Fleet, workers: usize, rotate: bool) -> Self {
        let mut references = BTreeMap::new();
        if fleet.phones == 25
            && fleet.days == 425
            && fleet.composition.is_default()
            && fleet.corruption == CorruptionProfile::None
        {
            references.insert(GOLDEN_SEED, GOLDEN_DEFAULT.to_string());
        }
        Self {
            fleet,
            workers,
            rotate,
            ops: 0,
            references,
            campaigns: Vec::new(),
            registry: PassRegistry::all(),
            config: analysis_config(),
            driver_wait_s: Vec::new(),
            peak_pending_phones: 0,
        }
    }

    /// Builds the campaigns and runs one warm-up op on the first.
    fn setup(&mut self) -> Result<(), String> {
        let seeds = if self.rotate { ROTATION } else { 1 };
        self.campaigns = (0..seeds)
            .map(|k| {
                Fleet {
                    seed: campaign_seed(self.fleet.seed, k),
                    ..self.fleet.clone()
                }
                .campaign()
            })
            .collect();
        self.registry = PassRegistry::all();
        self.config = analysis_config();
        self.ops = 0;
        match self.pass().error {
            Some(e) => Err(format!("warm-up op: {e}")),
            None => Ok(()),
        }
    }

    fn check(&mut self, seed: u64, text: String) -> Result<(), String> {
        match self.references.get(&seed) {
            Some(want) => same_text(&text, want, "report"),
            None => {
                self.references.insert(seed, text);
                Ok(())
            }
        }
    }

    fn pass(&mut self) -> PassOut {
        let k = self.ops % self.campaigns.len();
        self.ops += 1;
        let seed = campaign_seed(self.fleet.seed, k as u64);
        let t0 = Instant::now();
        let run = campaign_op(
            &self.campaigns[k],
            self.workers,
            &self.registry,
            self.config,
        );
        let ms = ms_since(t0);
        match run {
            Ok(run) => {
                self.driver_wait_s.push(run.driver_wait_s);
                self.peak_pending_phones = self.peak_pending_phones.max(run.peak_pending_phones);
                PassOut::single(ms, run.phone_days, self.check(seed, run.text))
            }
            Err(e) => PassOut::single(ms, 0, Err(e)),
        }
    }

    fn traced_pass(&mut self, tracer: &Tracer, op: u32) -> PassOut {
        let t0 = Instant::now();
        let text = traced_campaign_op(
            &self.fleet,
            self.workers,
            &self.registry,
            self.config,
            tracer,
            op,
        );
        let ms = ms_since(t0);
        let verdict = self.check(self.fleet.seed, text);
        PassOut::single(ms, 0, verdict)
    }
}

/// `checkpoint_tail`.
pub struct CheckpointJob {
    fleet: Fleet,
    workers: usize,
    work_dir: PathBuf,
    reference_text: String,
    reference_checkpoint: Vec<u8>,
    reference_panics: usize,
    phone_days: u64,
    registry: PassRegistry,
    config: AnalysisConfig,
    fingerprint: u64,
    composition: String,
    inputs: Vec<Vec<u8>>,
}

impl CheckpointJob {
    /// Runs the unsharded campaign once for the oracle: its report,
    /// its final checkpoint and that checkpoint's coalesced panics.
    fn new(fleet: Fleet, workers: usize, work_dir: &Path) -> Result<Self, String> {
        std::fs::create_dir_all(work_dir).map_err(|e| format!("{}: {e}", work_dir.display()))?;
        let campaign = fleet.campaign();
        let registry = PassRegistry::all();
        let config = analysis_config();
        let composition = fleet.composition.spec_string();
        let path = work_dir.join("unsharded.ckpt");
        let _ = std::fs::remove_file(&path);
        let opts = StreamingOptions {
            checkpoint: Some(path.clone()),
            ..StreamingOptions::default()
        };
        let run = campaign
            .run_streaming_opts(workers, config, &registry, &opts)
            .map_err(|e| format!("unsharded reference run: {e}"))?;
        let reference_checkpoint = read_and_remove(&path)?;
        let (_, panics) = checkpoint_coalesced(
            &registry,
            config,
            campaign.fingerprint(),
            &composition,
            &reference_checkpoint,
        )
        .map_err(|e| format!("reference checkpoint: {e}"))?;
        Ok(Self {
            reference_text: render(&run.report),
            reference_checkpoint,
            reference_panics: panics.len(),
            phone_days: run
                .metas
                .iter()
                .map(|m| m.retired_day - m.enrolled_day)
                .sum(),
            fingerprint: campaign.fingerprint(),
            composition,
            registry,
            config,
            fleet,
            workers,
            work_dir: work_dir.to_path_buf(),
            inputs: Vec::new(),
        })
    }

    /// Writes the 32 `--balance static` shard checkpoints through the
    /// program's shard path (one shard at a time per thread, as
    /// separate single-worker processes would) and keeps their bytes.
    fn setup(&mut self) -> Result<(), String> {
        let campaign = self.fleet.campaign();
        self.registry = PassRegistry::all();
        self.config = analysis_config();
        self.fingerprint = campaign.fingerprint();
        self.composition = self.fleet.composition.spec_string();
        let (registry, config, dir) = (&self.registry, self.config, &self.work_dir);
        self.inputs = pool(self.workers, TAIL_SHARDS as usize, |i| {
            let index = i as u32;
            let path = dir.join(format!("shard-{index}.ckpt"));
            let _ = std::fs::remove_file(&path);
            let opts = StreamingOptions {
                checkpoint: Some(path.clone()),
                shard: Some(ShardSpec {
                    index,
                    count: TAIL_SHARDS,
                }),
                balance: BalanceMode::Static,
                ..StreamingOptions::default()
            };
            campaign
                .run_streaming_opts(1, config, registry, &opts)
                .map_err(|e| format!("shard {index}: {e}"))
                .and_then(|_| read_and_remove(&path))
        })
        .into_iter()
        .collect::<Result<_, _>>()?;
        let warm = self.pass();
        match warm.error {
            Some(e) => Err(format!("warm-up op: {e}")),
            None => Ok(()),
        }
    }

    fn solo(&self) -> ShardTopology {
        ShardTopology::solo(self.fleet.phones)
    }

    fn check(&self, out: Result<(String, Vec<u8>, usize), String>) -> Result<(), String> {
        let (text, snapshot, panics) = out?;
        same_text(&text, &self.reference_text, "resumed report")?;
        if snapshot != self.reference_checkpoint {
            return Err("merged snapshot differs from the unsharded checkpoint".to_string());
        }
        if panics != self.reference_panics {
            return Err(format!(
                "{panics} coalesced panics, the unsharded checkpoint holds {}",
                self.reference_panics
            ));
        }
        Ok(())
    }

    /// merge_shard_checkpoints → snapshot → resume →
    /// checkpoint_coalesced → finish → render.
    fn op(&self) -> Result<(String, Vec<u8>, usize), String> {
        let (reg, config, fp, comp) = (
            &self.registry,
            self.config,
            self.fingerprint,
            self.composition.as_str(),
        );
        let merged = merge_shard_checkpoints(reg, config, fp, comp, &self.inputs)
            .map_err(|e| e.to_string())?;
        let snapshot = merged.snapshot(fp, comp, self.solo());
        let resumed = StreamMerger::resume(reg, config, fp, comp, self.solo(), &snapshot)
            .map_err(|e| e.to_string())?;
        let (_, panics) =
            checkpoint_coalesced(reg, config, fp, comp, &snapshot).map_err(|e| e.to_string())?;
        drop(merged);
        Ok((render(&resumed.finish()), snapshot, panics.len()))
    }

    /// [`Self::op`] decomposed into the calls `merge_shard_checkpoints`
    /// makes.
    fn traced_op(&self, t: &mut ThreadTrace<'_>) -> Result<(String, Vec<u8>, usize), String> {
        let (reg, config, fp, comp) = (
            &self.registry,
            self.config,
            self.fingerprint,
            self.composition.as_str(),
        );
        let mut infos = Vec::with_capacity(self.inputs.len());
        let mut shards = Vec::with_capacity(self.inputs.len());
        for bytes in &self.inputs {
            let loaded = t.layer("core.checkpoint.decode", || {
                load_shard_checkpoint(reg, config, fp, comp, bytes)
            });
            t.count("core.checkpoint.decode.bytes", bytes.len() as u64);
            let (info, shard) = loaded.map_err(|e| e.to_string())?;
            infos.push(info);
            shards.push(shard);
        }
        let cover = t.layer("core.checkpoint.decode", || validate_shard_cover(&infos));
        cover.map_err(|e| e.to_string())?;
        shards.retain(|s| !s.is_empty());
        t.count("core.merge.shards", shards.len() as u64);
        let mut merged = StreamMerger::new(reg, config);
        let whole = t.layer("core.merge", || tree_merge_shards(reg, shards));
        if let Some(whole) = whole {
            t.layer("core.merge", || merged.push_shard(whole));
        }
        let snapshot = t.layer("core.checkpoint.encode", || {
            merged.snapshot(fp, comp, self.solo())
        });
        t.count("core.checkpoint.encode.bytes", snapshot.len() as u64);
        let resumed = t.layer("core.checkpoint.decode", || {
            StreamMerger::resume(reg, config, fp, comp, self.solo(), &snapshot)
        });
        t.count("core.checkpoint.decode.bytes", snapshot.len() as u64);
        let resumed = resumed.map_err(|e| e.to_string())?;
        let coalesced = t.layer("core.checkpoint.decode", || {
            checkpoint_coalesced(reg, config, fp, comp, &snapshot)
        });
        t.count("core.checkpoint.decode.bytes", snapshot.len() as u64);
        let (_, panics) = coalesced.map_err(|e| e.to_string())?;
        drop(merged);
        let text = t.layer("core.render", || render(&resumed.finish()));
        t.count("core.render.bytes", text.len() as u64);
        Ok((text, snapshot, panics.len()))
    }

    fn pass(&self) -> PassOut {
        let t0 = Instant::now();
        let out = self.op();
        let ms = ms_since(t0);
        PassOut::single(ms, self.phone_days, self.check(out))
    }

    fn traced_pass(&self, tracer: &Tracer, op: u32) -> PassOut {
        let mut t = tracer.thread();
        t.op = op;
        let t0 = Instant::now();
        let root = t.begin(trace::OP, None);
        let out = self.traced_op(&mut t);
        // Every call in the op that can fail is a decode call.
        if out.is_err() {
            t.count("core.checkpoint.decode.errors", 1);
        }
        t.end(root);
        let ms = ms_since(t0);
        PassOut::single(ms, 0, self.check(out))
    }
}

fn read_and_remove(path: &Path) -> Result<Vec<u8>, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("{}: {e}", path.display()))?;
    std::fs::remove_file(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(bytes)
}

/// How minimizing one signature ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReproOutcome {
    /// A minimal config that replay-verified.
    Verified {
        /// The config as `repro minimize` writes it.
        config_json: String,
        /// Probes the search ran.
        probes: u64,
    },
    /// No seed within the budget reproduced the signature.
    NoRepro,
    /// A typed error or a failed replay.
    Failed(String),
}

/// Minimizes one signature and replay-verifies the result. The
/// `phone.repro.probes` counter takes every full simulate → parse →
/// match run: the search's own probes (one per seed when it finds
/// nothing) plus the replay.
fn repro(
    sig: &FailureSignature,
    opts: &MinimizeOptions,
    mut t: Option<&mut ThreadTrace<'_>>,
) -> ReproOutcome {
    let found = timed(&mut t, "phone.repro", || minimize(sig, opts));
    let min = match found {
        Ok(min) => min,
        Err(MinimizeError::NoRepro { seeds, .. }) => {
            count(&mut t, "phone.repro.probes", seeds);
            count(&mut t, "phone.repro.no_repro", 1);
            return ReproOutcome::NoRepro;
        }
        Err(e) => return ReproOutcome::Failed(format!("{}: {e}", sig.key())),
    };
    let replayed = timed(&mut t, "phone.repro", || min.config.replay(&opts.config));
    count(&mut t, "phone.repro.probes", min.probes + 1);
    match replayed {
        Ok(true) => {
            count(&mut t, "phone.repro.accepted_steps", min.trail.len() as u64);
            count(&mut t, "phone.repro.days", u64::from(min.config.days));
            ReproOutcome::Verified {
                config_json: min.config.to_json(),
                probes: min.probes,
            }
        }
        Ok(false) => {
            count(&mut t, "phone.repro.replay_failed", 1);
            ReproOutcome::Failed(format!("{}: minimized config failed replay", sig.key()))
        }
        Err(e) => {
            count(&mut t, "phone.repro.replay_failed", 1);
            ReproOutcome::Failed(format!("{}: replay: {e}", sig.key()))
        }
    }
}

/// `triage`.
pub struct TriageJob {
    fleet: Fleet,
    workers: usize,
    /// Campaign seeds untraced passes cycle through, and each one's
    /// fleet phone-days (which extraction does not report).
    seeds: Vec<(u64, u64)>,
    passes: usize,
    config: AnalysisConfig,
    opts: MinimizeOptions,
    /// Per campaign seed: the catalog and each signature's outcome as
    /// first seen. A repeat pass on the same seed must match both.
    seen: BTreeMap<u64, (Catalog, Option<Vec<ReproOutcome>>)>,
}

type Catalog = Vec<(FailureSignature, u64)>;

impl TriageJob {
    /// With `rotate`, runs each of the [`ROTATION`] campaigns
    /// once, untimed, for its phone-days; otherwise passes stay on the
    /// workload's seed and report no phone-days.
    fn new(fleet: Fleet, workers: usize, rotate: bool) -> Result<Self, String> {
        let seeds: Vec<u64> = match rotate {
            true => (0..ROTATION)
                .map(|k| campaign_seed(fleet.seed, k))
                .collect(),
            false => vec![fleet.seed],
        };
        let mut job = Self {
            fleet,
            workers,
            seeds: seeds.iter().map(|&seed| (seed, 0)).collect(),
            passes: 0,
            config: analysis_config(),
            opts: Self::options(),
            seen: BTreeMap::new(),
        };
        if rotate {
            let days = pool(workers, seeds.len(), |i| {
                campaign_op(&job.campaign(seeds[i]), 1, &PassRegistry::all(), job.config)
                    .map(|run| run.phone_days)
            });
            for (slot, d) in job.seeds.iter_mut().zip(days) {
                slot.1 = d?;
            }
        }
        Ok(job)
    }

    /// `repro minimize`'s defaults.
    fn options() -> MinimizeOptions {
        MinimizeOptions {
            config: analysis_config(),
            ..MinimizeOptions::default()
        }
    }

    fn campaign(&self, seed: u64) -> FleetCampaign {
        Fleet {
            seed,
            ..self.fleet.clone()
        }
        .campaign()
    }

    /// Extracts the workload seed's catalog and minimizes its first
    /// signature.
    fn setup(&mut self) -> Result<(), String> {
        self.config = analysis_config();
        self.opts = Self::options();
        let seed = self.fleet.seed;
        let catalog = extract_fleet_signatures(&self.campaign(seed), &self.config);
        let first = catalog
            .first()
            .ok_or("the campaign has no signatures")?
            .0
            .clone();
        let known = &self
            .seen
            .entry(seed)
            .or_insert_with(|| (catalog.clone(), None))
            .0;
        if *known != catalog {
            return Err("signature catalog differs between set-ups".to_string());
        }
        match repro(&first, &self.opts, None) {
            ReproOutcome::Failed(e) => Err(format!("warm-up op: {e}")),
            _ => Ok(()),
        }
    }

    /// One untraced pass: extract the catalog from the campaign config,
    /// then minimize every signature on the worker pool.
    fn pass(&mut self) -> PassOut {
        let (seed, phone_days) = self.seeds[self.passes % self.seeds.len()];
        self.passes += 1;
        let t0 = Instant::now();
        let catalog = extract_fleet_signatures(&self.campaign(seed), &self.config);
        let results = self.minimize_all(&catalog, None, 0);
        let wall_s = t0.elapsed().as_secs_f64();
        PassOut {
            phone_days,
            ..self.judge(seed, catalog, results, wall_s)
        }
    }

    /// A traced pass, always on the workload's own seed so its counters
    /// repeat exactly per seed.
    fn traced_pass(&mut self, tracer: &Tracer, first_op: u32) -> PassOut {
        let seed = self.fleet.seed;
        let t0 = Instant::now();
        let mut t = tracer.thread();
        t.op = first_op;
        let root = t.begin(trace::PASS, None);
        let catalog = self.traced_extract(&self.campaign(seed), &mut t);
        let scope = t.begin(trace::SCOPE, None);
        let results = self.minimize_all(&catalog, Some((tracer, root)), first_op);
        t.end(scope);
        t.end(root);
        let wall_s = t0.elapsed().as_secs_f64();
        self.judge(seed, catalog, results, wall_s)
    }

    /// `extract_fleet_signatures`' calls, phone by phone.
    fn traced_extract(&self, campaign: &FleetCampaign, t: &mut ThreadTrace<'_>) -> Catalog {
        let mut out: Catalog = Vec::new();
        for id in 0..self.fleet.phones {
            let harvest = t.layer("phone.simulate", || campaign.run_single(id));
            t.count(
                "phone.simulate.phone_days",
                harvest.retired_day - harvest.enrolled_day,
            );
            t.count("phone.simulate.flash_bytes", harvest.flashfs.total_size());
            let phone = t.layer("core.parse", || {
                PhoneDataset::from_flashfs_with(id, &harvest.flashfs, &mut ParseScratch::default())
            });
            count_parse(t, &phone, harvest.flashfs.total_size());
            t.layer("core.signature", || {
                let labels = campaign.device_labels(id);
                for sig in FailureSignature::from_phone(&phone, &self.config, labels) {
                    match out.iter_mut().find(|(s, _)| *s == sig) {
                        Some((_, n)) => *n += 1,
                        None => out.push((sig, 1)),
                    }
                }
            });
        }
        t.layer("core.signature", || out.sort_by_key(|(s, _)| s.key()));
        t.count("core.signature.distinct", out.len() as u64);
        out
    }

    /// Minimizes every catalog entry on `workers` threads that take the
    /// next signature from a shared counter. Returns each signature's
    /// outcome and latency, in catalog order.
    fn minimize_all(
        &self,
        catalog: &Catalog,
        tracer: Option<(&Tracer, u64)>,
        first_op: u32,
    ) -> Vec<(ReproOutcome, f64)> {
        let next = AtomicUsize::new(0);
        let slots: Mutex<Vec<Option<(ReproOutcome, f64)>>> = Mutex::new(vec![None; catalog.len()]);
        std::thread::scope(|s| {
            for _ in 0..self.workers {
                s.spawn(|| {
                    let mut t = tracer.map(|(tracer, root)| {
                        let mut t = tracer.thread();
                        t.op = first_op;
                        let worker = t.begin(trace::WORKER, Some(root));
                        (t, worker)
                    });
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some((sig, _)) = catalog.get(i) else {
                            break;
                        };
                        let t0 = Instant::now();
                        let out = match &mut t {
                            Some((t, _)) => {
                                t.op = first_op + i as u32;
                                let op = t.begin(trace::OP, None);
                                let out = repro(sig, &self.opts, Some(t));
                                t.end(op);
                                out
                            }
                            None => repro(sig, &self.opts, None),
                        };
                        let ms = ms_since(t0);
                        slots.lock().expect("result slot lock")[i] = Some((out, ms));
                    }
                    if let Some((t, worker)) = &mut t {
                        t.end(*worker);
                    }
                });
            }
        });
        slots
            .into_inner()
            .expect("result slot lock")
            .into_iter()
            .map(|slot| slot.expect("every signature was taken"))
            .collect()
    }

    fn judge(
        &mut self,
        seed: u64,
        catalog: Catalog,
        results: Vec<(ReproOutcome, f64)>,
        wall_s: f64,
    ) -> PassOut {
        let mut out = PassOut {
            wall_s,
            ..PassOut::default()
        };
        let outcomes: Vec<ReproOutcome> = results.iter().map(|(o, _)| o.clone()).collect();
        let (known, reference) = self
            .seen
            .entry(seed)
            .or_insert_with(|| (catalog.clone(), None));
        let same_catalog = *known == catalog;
        let reference = reference.get_or_insert(outcomes);
        for (i, (outcome, ms)) in results.into_iter().enumerate() {
            out.op_ms.push(ms);
            let verdict = match &outcome {
                ReproOutcome::Failed(e) => Err(e.clone()),
                _ if !same_catalog => Err(format!(
                    "seed {seed}: catalog differs from its first extraction"
                )),
                _ if reference.get(i) != Some(&outcome) => Err(format!(
                    "seed {seed}, signature {i}: outcome differs from the first pass"
                )),
                _ => Ok(()),
            };
            match verdict {
                Ok(()) => out.useful += u64::from(matches!(outcome, ReproOutcome::Verified { .. })),
                Err(e) => {
                    out.failed += 1;
                    out.error.get_or_insert(e);
                }
            }
        }
        out
    }
}

/// A workload ready to run.
pub enum Job {
    /// `paper_fleet` or `worst_mixed_fleet`.
    Campaign(CampaignJob),
    /// `checkpoint_tail`.
    Checkpoint(CheckpointJob),
    /// `triage`.
    Triage(TriageJob),
}

impl Job {
    /// Prepares `workload`'s oracle and bookkeeping. Untimed: this is
    /// verification work, not set-up a user would pay (the unsharded
    /// reference campaign of `checkpoint_tail`, the phone-days of
    /// `triage`'s campaigns).
    ///
    /// Untraced campaign and triage runs cycle over several campaign
    /// seeds (`campaign_seed`); traced runs (`trace`) keep the
    /// workload's own seed so their counters repeat exactly per seed.
    pub fn prepare(
        workload: Workload,
        seed: u64,
        workers: usize,
        work_dir: &Path,
        trace: bool,
    ) -> Result<Job, String> {
        Ok(match workload {
            Workload::PaperFleet => {
                Job::Campaign(CampaignJob::new(Fleet::paper(seed), workers, !trace))
            }
            Workload::WorstMixedFleet => Job::Campaign(CampaignJob::new(
                Fleet::worst_mixed(seed, WORST_PHONES),
                workers,
                !trace,
            )),
            Workload::CheckpointTail => Job::Checkpoint(CheckpointJob::new(
                Fleet::worst_mixed(seed, TAIL_PHONES),
                workers,
                work_dir,
            )?),
            Workload::Triage => Job::Triage(TriageJob::new(Fleet::paper(seed), workers, !trace)?),
        })
    }

    /// Builds the timed inputs and runs one warm-up op, whose latency
    /// is discarded but whose output is checked.
    pub fn setup(&mut self) -> Result<(), String> {
        match self {
            Job::Campaign(j) => j.setup(),
            Job::Checkpoint(j) => j.setup(),
            Job::Triage(j) => j.setup(),
        }
    }

    /// One untraced pass.
    pub fn pass(&mut self) -> PassOut {
        match self {
            Job::Campaign(j) => j.pass(),
            Job::Checkpoint(j) => j.pass(),
            Job::Triage(j) => j.pass(),
        }
    }

    /// One traced pass; its ops are numbered from `first_op`.
    pub fn traced_pass(&mut self, tracer: &Tracer, first_op: u32) -> PassOut {
        match self {
            Job::Campaign(j) => j.traced_pass(tracer, first_op),
            Job::Checkpoint(j) => j.traced_pass(tracer, first_op),
            Job::Triage(j) => j.traced_pass(tracer, first_op),
        }
    }

    /// Passes in one cycle over the job's campaign seeds. An untraced
    /// run ends on a cycle boundary, so every run weighs each of its
    /// campaigns equally.
    pub fn cycle(&self) -> usize {
        match self {
            Job::Campaign(j) => j.campaigns.len(),
            Job::Checkpoint(_) => 1,
            Job::Triage(j) => j.seeds.len(),
        }
    }

    /// The driver's mean merge-wait seconds per untraced op and its
    /// peak pending phones (zero where no campaign driver runs).
    pub fn driver_counters(&self) -> (f64, usize) {
        match self {
            Job::Campaign(j) if !j.driver_wait_s.is_empty() => (
                j.driver_wait_s.iter().sum::<f64>() / j.driver_wait_s.len() as f64,
                j.peak_pending_phones,
            ),
            _ => (0.0, 0),
        }
    }
}
