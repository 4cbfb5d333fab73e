//! The fleet campaign: 25 phones over 14 months.
//!
//! Phones enroll staggered over the first months (the deployment
//! started in September 2005 and grew), and some drop out before the
//! end (reflashed firmware, replaced devices, departing participants)
//! — this is what makes the fleet's total powered-on observation time
//! land near the paper's ≈115 k phone-hours rather than the naive
//! 25 × 14 months.
//!
//! Phones are fully independent (each owns a forked RNG stream), so
//! the campaign can run them on worker threads without perturbing
//! determinism: the harvest is identical to the sequential run.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use symfail_core::analysis::checkpoint::{fnv1a64, CheckpointError, ShardTopology};
use symfail_core::analysis::dataset::{ParseScratch, PhoneDataset};
use symfail_core::analysis::defects::PhoneDefects;
use symfail_core::analysis::mtbf::MtbfAnalysis;
use symfail_core::analysis::passes::{
    DeviceLabels, FoldShard, MergeStats, PassRegistry, PhoneLens, StreamMerger,
};
use symfail_core::analysis::report::{AnalysisConfig, StudyReport};
use symfail_core::flashfs::FlashFs;
use symfail_core::intern::NameTable;
use symfail_core::logger::{files, LoggerFiles, UserReportChannel, UserReportKind};
use symfail_sim_core::{SimRng, SimTime};

use crate::calibration::CalibrationParams;
use crate::composition::{DeviceClass, FleetComposition};
use crate::corruption::{CorruptionModel, CorruptionProfile, InjectedDefects};
use crate::device::{Phone, PhoneStats};
use crate::firmware::SymbianVersion;
use crate::plan::{BalanceMode, ShardPlan};
use crate::user::UserProfile;

/// The result of running one phone through the campaign.
#[derive(Debug)]
pub struct PhoneHarvest {
    /// The phone's identifier.
    pub phone_id: u32,
    /// First campaign day the phone participated.
    pub enrolled_day: u64,
    /// Day the phone left the study.
    pub retired_day: u64,
    /// The Symbian OS release the phone ran.
    pub firmware: SymbianVersion,
    /// The device class the composition assigned to the phone.
    pub device_class: DeviceClass,
    /// The flash filesystem collected from the phone.
    pub flashfs: FlashFs,
    /// Simulator ground truth (for validation only).
    pub stats: PhoneStats,
    /// Expected-observable defect counts injected into `flashfs` by
    /// the campaign's corruption profile (all zero when disabled).
    pub injected: InjectedDefects,
}

/// Everything worth keeping about a phone once its flash has been
/// parsed and dropped: campaign metadata, ground truth, and the few
/// side-channel payloads (user reports) downstream experiments read
/// straight from flash. This is what lets the streaming driver reclaim
/// flash buffers phone by phone.
#[derive(Debug, Clone)]
pub struct PhoneMeta {
    /// The phone's identifier.
    pub phone_id: u32,
    /// First campaign day the phone participated.
    pub enrolled_day: u64,
    /// Day the phone left the study.
    pub retired_day: u64,
    /// The Symbian OS release the phone ran.
    pub firmware: SymbianVersion,
    /// The device class the composition assigned to the phone.
    pub device_class: DeviceClass,
    /// Simulator ground truth (for validation only).
    pub stats: PhoneStats,
    /// Injected-defect counts for the campaign's corruption profile.
    pub injected: InjectedDefects,
    /// Flash bytes the campaign driver read from the phone: `ureport`
    /// and the files its passes read ([`PassRegistry::reads`]: `log`,
    /// and `beats` when a pass reads it), as harvested.
    pub flash_bytes: u64,
    /// User failure reports parsed out of the flash before the drop.
    pub ureports: Vec<(SimTime, UserReportKind)>,
}

impl PhoneMeta {
    /// Captures the keepable parts of a harvest as the driver does under
    /// the full registry (parsing the user report channel now, since the
    /// flash is about to go away).
    pub fn from_harvest(h: &PhoneHarvest) -> Self {
        Self::read(h, PassRegistry::all().reads())
    }

    /// [`Self::from_harvest`] for a reader of `reads`.
    fn read(h: &PhoneHarvest, reads: LoggerFiles) -> Self {
        Self {
            phone_id: h.phone_id,
            enrolled_day: h.enrolled_day,
            retired_day: h.retired_day,
            firmware: h.firmware,
            device_class: h.device_class,
            stats: h.stats,
            injected: h.injected,
            flash_bytes: reads
                .names()
                .iter()
                .map(|file| h.flashfs.size_of(file))
                .sum(),
            ureports: UserReportChannel::parse(&h.flashfs),
        }
    }
}

/// Options for a checkpointed streaming run
/// ([`FleetCampaign::run_streaming_opts`]).
#[derive(Debug, Clone, Default)]
pub struct StreamingOptions {
    /// Checkpoint file path. Loaded on start when the file exists
    /// (resume), written with an atomic tmp-file + rename at every
    /// boundary and once at the end of the run.
    pub checkpoint: Option<PathBuf>,
    /// Snapshot (and trace) every N absorbed phones; `0` means only
    /// the final flush. Boundaries are counted on the merger's
    /// absorbed prefix, so they land on the same phones for any worker
    /// count.
    pub checkpoint_every: u32,
    /// Stop harvesting after this many phones — the deterministic kill
    /// point of the crash-resume harness. The final flush still runs,
    /// leaving a checkpoint at exactly this phone.
    pub stop_after_phones: Option<u32>,
    /// Record a live MTBFr/MTBS estimate at every boundary (plus one
    /// final entry) into [`StreamingRun::mtbf_trace`].
    pub mtbf_trace: bool,
    /// Reads a monotonically-increasing allocation counter for the
    /// *calling thread* (e.g. a thread-local inside the binary's
    /// counting allocator). Sampled at worker start and end to
    /// attribute worker traffic per worker in
    /// [`WorkerStats::alloc_calls`].
    pub alloc_counter: Option<fn() -> u64>,
    /// Run only shard `index` of `count`: the process simulates and
    /// folds just its contiguous slice of the phone-id space
    /// ([`ShardTopology::interval`]) while per-phone RNG forks stay
    /// identical to a full run — phone `i` depends only on
    /// `(seed, i)`, never on which process simulates it. The written
    /// checkpoint records the topology so `merge-checkpoints` can
    /// stitch N such slices into the whole-fleet report.
    pub shard: Option<ShardSpec>,
    /// How a sharded run cuts the phone-id space: the fixed `i/N`
    /// formula (default) or cost-balanced cuts from the static
    /// estimator / a measured cost vector. Ignored without `shard`.
    pub balance: BalanceMode,
}

/// Which slice of the fleet this process owns: shard `index` of
/// `count` (phone counts come from the campaign, see
/// [`ShardTopology`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardSpec {
    /// This process's shard number, `0 <= index < count`.
    pub index: u32,
    /// Total number of shards.
    pub count: u32,
}

/// Why a `--shard i/N` argument was rejected: each variant names the
/// offending token and the constraint it violated, so `--shard 4/2`
/// fails with "index 4 must be < count 2" instead of a generic usage
/// line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardSpecError {
    /// The argument has no `/` separator.
    NoSlash {
        /// The whole argument as given.
        input: String,
    },
    /// The part before the `/` is not an unsigned integer.
    BadIndex {
        /// The offending index token.
        token: String,
    },
    /// The part after the `/` is not an unsigned integer.
    BadCount {
        /// The offending count token.
        token: String,
    },
    /// The shard count is zero (`0/0`): a fleet cannot be split into
    /// zero shards.
    ZeroCount,
    /// The index is not below the count (`4/2`, `2/2`).
    IndexOutOfRange {
        /// Parsed shard index.
        index: u32,
        /// Parsed shard count.
        count: u32,
    },
}

impl std::fmt::Display for ShardSpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardSpecError::NoSlash { input } => {
                write!(
                    f,
                    "shard spec \"{input}\" is not of the form i/N (e.g. 2/4)"
                )
            }
            ShardSpecError::BadIndex { token } => {
                write!(f, "shard index \"{token}\" is not an unsigned integer")
            }
            ShardSpecError::BadCount { token } => {
                write!(f, "shard count \"{token}\" is not an unsigned integer")
            }
            ShardSpecError::ZeroCount => {
                write!(f, "shard count must be >= 1 (got 0)")
            }
            ShardSpecError::IndexOutOfRange { index, count } => {
                write!(f, "shard index {index} must be < shard count {count}")
            }
        }
    }
}

impl std::error::Error for ShardSpecError {}

impl ShardSpec {
    /// Parses the CLI form `i/N` (e.g. `2/4`), requiring `i < N` and
    /// `N >= 1`. Failures name the offending token and the violated
    /// constraint ([`ShardSpecError`]).
    pub fn parse(s: &str) -> Result<Self, ShardSpecError> {
        let (index, count) = s.split_once('/').ok_or_else(|| ShardSpecError::NoSlash {
            input: s.to_string(),
        })?;
        let index: u32 = index.parse().map_err(|_| ShardSpecError::BadIndex {
            token: index.to_string(),
        })?;
        let count: u32 = count.parse().map_err(|_| ShardSpecError::BadCount {
            token: count.to_string(),
        })?;
        if count == 0 {
            return Err(ShardSpecError::ZeroCount);
        }
        if index >= count {
            return Err(ShardSpecError::IndexOutOfRange { index, count });
        }
        Ok(Self { index, count })
    }
}

/// Per-worker counters from a streaming run, for throughput
/// diagnosis without a profiler.
#[derive(Debug, Clone, Copy, Default)]
pub struct WorkerStats {
    /// Wall seconds spent acquiring and feeding the shared merger
    /// (lock wait + absorb).
    pub merge_wait_seconds: f64,
    /// Allocator calls attributed to this worker thread, when
    /// [`StreamingOptions::alloc_counter`] was supplied.
    pub alloc_calls: Option<u64>,
    /// The parse's counters summed over the phones this worker parsed.
    pub parse: PhoneDefects,
}

/// Cuts `[start, stop)` into contiguous runs with boundaries at every
/// multiple of `grid` (anchored at phone 0, so the partition depends
/// only on the grid — never on `start`, worker count, or resume
/// point), plus one final cut at `stop`; a `grid` of 0 plans one run.
/// Anchoring at zero is what makes a resumed run checkpoint on exactly
/// the same phones as an uninterrupted one.
fn plan_runs(start: u32, stop: u32, grid: u32) -> Vec<(u32, u32)> {
    let mut runs = Vec::new();
    let mut id = start;
    while id < stop {
        // Next grid line strictly above `id`.
        let next = match id.checked_div(grid) {
            Some(q) => stop.min(q.saturating_add(1).saturating_mul(grid)),
            None => stop,
        };
        runs.push((id, next));
        id = next;
    }
    runs
}

/// The checkpoint-boundary observer: called by the merger after every
/// absorbed run. Runs are cut at `checkpoint_every` multiples, so the
/// boundary test fires on the same absorbed counts for any worker
/// count.
fn on_boundary(
    m: &StreamMerger<'_>,
    opts: &StreamingOptions,
    fingerprint: u64,
    composition: &str,
    topology: ShardTopology,
    trace: &mut Vec<(u32, MtbfAnalysis)>,
    write_error: &mut Option<CheckpointError>,
) {
    let absorbed = m.absorbed();
    if opts.checkpoint_every == 0 || !absorbed.is_multiple_of(opts.checkpoint_every) {
        return;
    }
    if opts.mtbf_trace {
        if let Some(est) = m.mtbf_estimate() {
            trace.push((absorbed, est));
        }
    }
    if write_error.is_none() {
        if let Some(path) = &opts.checkpoint {
            if let Err(e) = write_atomic(path, &m.snapshot(fingerprint, composition, topology)) {
                *write_error = Some(e);
            }
        }
    }
}

/// One phone a streaming worker handled: its meta, its parse seconds
/// and its whole seconds (simulate through fold).
type PhoneTiming = (PhoneMeta, f64, f64);

/// What each streaming worker thread returns: one [`PhoneTiming`] per
/// phone it handled, plus its own counters.
type WorkerYield = (Vec<PhoneTiming>, WorkerStats);

/// Joins a streaming worker pool, splitting per-phone results from
/// per-worker stats (one [`WorkerStats`] entry per spawned worker, in
/// spawn order).
fn join_workers(
    handles: Vec<std::thread::ScopedJoinHandle<'_, WorkerYield>>,
) -> (Vec<PhoneTiming>, Vec<WorkerStats>) {
    let mut runs = Vec::new();
    let mut stats = Vec::new();
    for h in handles {
        let (out, ws) = h.join().expect("streaming worker panicked");
        runs.extend(out);
        stats.push(ws);
    }
    (runs, stats)
}

/// Writes `bytes` to `path` atomically (tmp file + rename), so a crash
/// mid-write can never leave a torn checkpoint behind.
fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), CheckpointError> {
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, bytes)
        .and_then(|()| std::fs::rename(&tmp, path))
        .map_err(|e| CheckpointError::Io(format!("{}: {e}", path.display())))
}

/// A configured fleet campaign.
#[derive(Debug, Clone)]
pub struct FleetCampaign {
    seed: u64,
    params: CalibrationParams,
    corruption: CorruptionProfile,
    composition: FleetComposition,
}

impl FleetCampaign {
    /// Creates a campaign with a root seed and calibration parameters.
    pub fn new(seed: u64, params: CalibrationParams) -> Self {
        Self {
            seed,
            params,
            corruption: CorruptionProfile::None,
            composition: FleetComposition::default(),
        }
    }

    /// Sets the fleet composition (device-class mix). The default is
    /// the homogeneous pre-composition fleet; class assignment is a
    /// pure function of the phone id, so any worker count, shard
    /// layout or resume point sees the same per-phone classes.
    pub fn with_fleet(mut self, composition: FleetComposition) -> Self {
        self.composition = composition;
        self
    }

    /// Enables flash-log corruption injection on every harvested
    /// phone. Each phone's damage is drawn from its own fork of the
    /// campaign seed (`fork("corruption", id)`), so the parallel
    /// harvest stays byte-identical for any worker count.
    pub fn with_corruption(mut self, profile: CorruptionProfile) -> Self {
        self.corruption = profile;
        self
    }

    /// The calibration parameters in use.
    pub fn params(&self) -> &CalibrationParams {
        &self.params
    }

    /// A stable fingerprint of the campaign's identity — seed, every
    /// calibration parameter, the corruption profile, and the fleet
    /// composition — stored in checkpoints so a snapshot of one
    /// campaign can never silently resume another.
    pub fn fingerprint(&self) -> u64 {
        let identity = format!(
            "{}|{:?}|{}|{}",
            self.seed,
            self.params,
            self.corruption.as_str(),
            self.composition.spec_string()
        );
        fnv1a64(identity.as_bytes())
    }

    /// Enrollment/retirement window for one phone: stratified over the
    /// fleet (phone *i* enrolls in the *i*-th slice of the enrollment
    /// window, and drops out in a permuted slice of the attrition
    /// window) with per-phone jitter. Stratification keeps the fleet's
    /// total observation time stable across seeds — the paper reports
    /// one concrete fleet, not an ensemble — while each phone's exact
    /// dates remain random.
    fn window(&self, id: u32, rng: &mut SimRng) -> (u64, u64) {
        let p = &self.params;
        let n = p.phones.max(1) as u64;
        let strat = |spread: u64, slot: u64, rng: &mut SimRng| {
            if spread == 0 {
                return 0;
            }
            let slice = (spread / n).max(1);
            (slot * spread / n + rng.next_u64() % slice).min(spread)
        };
        let enrolled = strat(p.enrollment_spread_days as u64, id as u64, rng);
        // A fixed coprime permutation decorrelates the dropout slice
        // from the enrollment slice.
        let perm = (id as u64 * 7 + 3) % n;
        let dropout = strat(p.attrition_spread_days as u64, perm, rng);
        let retired = (p.campaign_days as u64).saturating_sub(dropout);
        (enrolled, retired.max(enrolled + 1))
    }

    /// Whether phone `id` belongs to the stratified nightly-shutdown
    /// quota (⌈fraction · fleet⌉ phones, spread by a fixed coprime
    /// permutation).
    fn is_nightly(&self, id: u32) -> bool {
        let n = self.params.phones.max(1) as u64;
        let perm = (id as u64 * 11 + 5) % n;
        (((perm as f64) + 0.5) / (n as f64)) < self.params.nightly_shutdown_fraction
    }

    /// The deterministic per-phone prologue shared by the simulator
    /// and the cost estimator: forks the phone's RNG stream, draws its
    /// enrollment window, scales the calibration through the phone's
    /// device class, and samples its behaviour profile from the scaled
    /// parameters. Keeping one code path means the estimator prices
    /// exactly the phone the simulator will run — per-class usage
    /// multipliers included — so the two cannot drift. For the default
    /// composition the scaling is a bitwise no-op and the profile
    /// draws are unchanged.
    fn phone_setup(&self, id: u32) -> (SimRng, (u64, u64), UserProfile, CalibrationParams) {
        let mut rng = SimRng::seed_from(self.seed).fork("phone", id as u64);
        let window = self.window(id, &mut rng);
        let params = self
            .composition
            .profile(id, self.params.phones)
            .scale_params(&self.params);
        let profile = UserProfile::sample_with_nightly(&params, &mut rng, self.is_nightly(id));
        (rng, window, profile, params)
    }

    /// The device labels (class + firmware) the analysis layer tags
    /// phone `id`'s folds with — what the grouped contingency
    /// accumulators and the firmware pass slice on.
    pub fn device_labels(&self, id: u32) -> DeviceLabels {
        let device = self.composition.profile(id, self.params.phones);
        DeviceLabels {
            device_class: device.class.as_str(),
            firmware: device.firmware.as_str(),
        }
    }

    /// Static per-phone cost estimate, in expected log lines — the
    /// `--balance static` input. Cost concentrates exactly where the
    /// paper found failures concentrating: a handful of phones
    /// dominate. The model prices what the pipeline actually pays for:
    /// parse time is linear in log lines, and a phone writes one
    /// heartbeat per period over its powered span plus a few lines per
    /// user event, for every active day of its enrollment window.
    /// Derived from the same per-phone setup draw the simulator uses,
    /// so the estimate tracks each phone's true window and volumes
    /// without simulating anything.
    pub fn estimate_phone_costs(&self) -> Vec<f64> {
        (0..self.params.phones)
            .map(|id| {
                let (_rng, (enrolled, retired), profile, _params) = self.phone_setup(id);
                let days = (retired - enrolled) as f64;
                let powered_secs = if profile.nightly_shutdown {
                    profile.sleep_secs.saturating_sub(profile.wake_secs)
                } else {
                    24 * 3600
                };
                let heartbeats =
                    powered_secs as f64 / self.params.heartbeat_period_secs.max(1) as f64;
                // Each user event (call/message/app session) costs a
                // few log lines — boundary records plus occasional
                // episode traffic — weighed against one heartbeat
                // line each.
                let events =
                    profile.calls_per_day + profile.messages_per_day + profile.app_sessions_per_day;
                days * (heartbeats + 2.0 * events)
            })
            .collect()
    }

    /// Plans the shard cut table for a `count`-process run under
    /// `mode`: the fixed `i/N` formula for [`BalanceMode::Uniform`]
    /// (costed so the predicted imbalance is visible), balanced cuts
    /// from [`Self::estimate_phone_costs`] for
    /// [`BalanceMode::Static`], or from the supplied per-phone seconds
    /// for [`BalanceMode::Measured`] (which must hold exactly one
    /// entry per phone).
    pub fn shard_plan(&self, count: u32, mode: &BalanceMode) -> ShardPlan {
        match mode {
            BalanceMode::Uniform => ShardPlan::uniform(&self.estimate_phone_costs(), count),
            BalanceMode::Static => ShardPlan::from_costs(&self.estimate_phone_costs(), count),
            BalanceMode::Measured(costs) => {
                assert_eq!(
                    costs.len(),
                    self.params.phones as usize,
                    "measured cost vector must hold one entry per phone"
                );
                ShardPlan::from_costs(costs, count)
            }
        }
    }

    /// Simulates phone `id` on `flash` (a harvested phone's, whose
    /// buffers it reuses, or a fresh one) writing `files`, then corrupts
    /// its harvest under the campaign's profile. `files` must hold what
    /// the damage needs ([`CorruptionProfile::written_files`]): the
    /// injector's draws depend on the beats file.
    fn run_phone(&self, id: u32, files: LoggerFiles, flash: FlashFs) -> PhoneHarvest {
        assert!(
            id < self.params.phones,
            "phone {id} outside the {}-phone fleet",
            self.params.phones
        );
        debug_assert_eq!(
            self.corruption.written_files(files),
            files,
            "a harvest without beats cannot be corrupted as the full one is"
        );
        let (rng, (enrolled_day, retired_day), profile, params) = self.phone_setup(id);
        let device = self.composition.profile(id, self.params.phones);
        let mut phone = Phone::with_profile(id, params, profile, rng.fork("device", 0), files)
            .with_flash(flash);
        phone.set_firmware(device.firmware);
        for day in enrolled_day..retired_day {
            phone.simulate_day(day);
        }
        let stats = phone.stats();
        let mut flashfs = phone.into_flashfs();
        let injected = if self.corruption == CorruptionProfile::None {
            InjectedDefects::default()
        } else {
            let mut crng = SimRng::seed_from(self.seed).fork("corruption", id as u64);
            let rates = device.scale_corruption(self.corruption.rates());
            CorruptionModel::new(rates).inject(&mut flashfs, &mut crng)
        };
        PhoneHarvest {
            phone_id: id,
            enrolled_day,
            retired_day,
            firmware: device.firmware,
            device_class: device.class,
            flashfs,
            stats,
            injected,
        }
    }

    /// Runs exactly one phone of this campaign — the single-phone
    /// scoped entry point the signature-repro machinery uses to
    /// re-simulate an individual fleet member. Identical to the
    /// phone's harvest under any worker count or shard layout
    /// (per-phone RNG forks are independent by construction).
    pub fn run_single(&self, id: u32) -> PhoneHarvest {
        self.run_phone(id, LoggerFiles::All, FlashFs::new())
    }

    /// The campaign driver: workers steal contiguous runs of phone ids;
    /// for each phone a worker simulates it, parses its flash, folds
    /// every registered analysis pass into the run's [`FoldShard`],
    /// then empties **both** the flash and the dataset before the next
    /// phone. A phone writes only the files the registry's passes read
    /// ([`PassRegistry::reads`]) and `ureport`, joined with `beats` when
    /// the profile damages flash ([`CorruptionProfile::written_files`]);
    /// the parse reads only the passes' files. Each worker carries its
    /// flash and parse buffers from phone to phone, so they grow only
    /// until they have held the worker's largest phone. Each finished
    /// run crosses into a shared [`StreamMerger`] in one lock
    /// acquisition, and the merger absorbs runs strictly in phone-id
    /// order, so the report is byte-identical for any worker count and
    /// run partition to one serial fold of every phone, each simulated
    /// alone ([`Self::run_single`]) — while peak memory stays bounded
    /// by `workers × per-phone state` plus the folded summaries instead
    /// of the whole fleet.
    pub fn run_streaming(
        &self,
        workers: usize,
        config: AnalysisConfig,
        registry: &PassRegistry,
    ) -> StreamingRun {
        self.run_streaming_opts(workers, config, registry, &StreamingOptions::default())
            .expect("streaming run without a checkpoint path cannot fail")
    }

    /// [`Self::run_streaming`] with checkpoint/resume support.
    ///
    /// When `opts.checkpoint` names an existing file, the merger is
    /// rebuilt from it (after validating version, checksum, registry,
    /// config and campaign fingerprint) and workers start at the
    /// checkpointed phone instead of 0 — so an interrupted campaign
    /// re-simulates only the un-absorbed suffix. Snapshots are written
    /// atomically at every `checkpoint_every` absorb boundary and once
    /// at the end of the run; since absorption happens strictly in
    /// phone-id order, boundary phones — and therefore checkpoint
    /// bytes and the MTBF trace — are identical for any worker count.
    /// The final report stays byte-identical to an uninterrupted run.
    ///
    /// A resumed run's `metas`/parse counters cover only the phones it
    /// simulated itself (the resumed suffix); the report covers the
    /// whole fleet.
    ///
    /// # Errors
    ///
    /// [`CheckpointError`] when an existing checkpoint is invalid or
    /// mismatched, or when a snapshot cannot be written. The campaign
    /// itself cannot fail.
    pub fn run_streaming_opts(
        &self,
        workers: usize,
        config: AnalysisConfig,
        registry: &PassRegistry,
        opts: &StreamingOptions,
    ) -> Result<StreamingRun, CheckpointError> {
        let phones = self.params.phones;
        let fingerprint = self.fingerprint();
        let composition = self.composition.spec_string();
        let composition = composition.as_str();
        // Sharded runs derive their interval from the shard plan —
        // the uniform i/N formula or cost-balanced cuts, depending on
        // opts.balance. Every process of one run must use the same
        // balance mode (and cost vector): the cuts must agree for the
        // checkpoints to merge.
        let plan = opts
            .shard
            .map(|spec| self.shard_plan(spec.count, &opts.balance));
        let topology = match (&plan, opts.shard) {
            (Some(plan), Some(spec)) => plan.topology(spec.index),
            _ => ShardTopology::solo(phones),
        };
        // The slice of the id space this process owns — the whole
        // fleet for a solo run.
        let (lo, hi) = topology.interval();
        let mut merger = StreamMerger::new_at(registry, config, lo);
        let mut resumed_from = None;
        if let Some(path) = &opts.checkpoint {
            if path.exists() {
                let bytes = std::fs::read(path)
                    .map_err(|e| CheckpointError::Io(format!("{}: {e}", path.display())))?;
                merger = StreamMerger::resume(
                    registry,
                    config,
                    fingerprint,
                    composition,
                    topology,
                    &bytes,
                )?;
                resumed_from = Some(merger.absorbed());
            }
        }
        let start = merger.absorbed().clamp(lo, hi);
        let stop = opts.stop_after_phones.unwrap_or(hi).min(hi);
        let needs_coalesce = registry.needs_coalesce();
        let reads = registry.reads();
        let written = self.corruption.written_files(reads);

        struct MergeState<'r> {
            merger: StreamMerger<'r>,
            trace: Vec<(u32, MtbfAnalysis)>,
            write_error: Option<CheckpointError>,
        }
        let state = Mutex::new(MergeState {
            merger,
            trace: Vec::new(),
            write_error: None,
        });

        let (mut runs, worker_stats): (Vec<PhoneTiming>, Vec<WorkerStats>) = if start < stop {
            let workers = workers.clamp(1, (stop - start) as usize);
            // Runs end on checkpoint boundaries. Without a checkpoint
            // grid, size runs so each worker sees a few of them —
            // enough stealing slack to absorb straggler phones.
            let grid = if opts.checkpoint_every > 0 {
                opts.checkpoint_every
            } else {
                ((stop - start) / (workers as u32 * 8)).clamp(1, 32)
            };
            let plan = plan_runs(start, stop, grid);
            let next = AtomicUsize::new(0);
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..workers)
                    .map(|_| {
                        let next = &next;
                        let state = &state;
                        let plan = &plan;
                        scope.spawn(move || {
                            let mut out = Vec::new();
                            let mut ws = WorkerStats::default();
                            let allocs0 = opts.alloc_counter.map(|f| f());
                            let mut scratch = ParseScratch::default();
                            let mut flash = FlashFs::new();
                            while let Some(&(run_start, run_end)) =
                                plan.get(next.fetch_add(1, Ordering::Relaxed))
                            {
                                let mut shard = FoldShard::new(registry, run_start);
                                for id in run_start..run_end {
                                    // The phone's whole cost — simulate,
                                    // corrupt, parse and fold — is what a
                                    // measured shard plan balances.
                                    let t0 = Instant::now();
                                    let harvest =
                                        self.run_phone(id, written, std::mem::take(&mut flash));
                                    let t_parse = Instant::now();
                                    let fs = &harvest.flashfs;
                                    let ds = PhoneDataset::from_files(
                                        id,
                                        reads.read(fs, files::LOG),
                                        reads.read(fs, files::BEATS),
                                        &mut scratch,
                                    );
                                    let parse_secs = t_parse.elapsed().as_secs_f64();
                                    ws.parse.merge(ds.defects());
                                    let meta = PhoneMeta::read(&harvest, reads);
                                    // The flash's buffers go to the next
                                    // phone this worker simulates.
                                    flash = harvest.flashfs;
                                    let lens = PhoneLens::with_device(
                                        &ds,
                                        config,
                                        needs_coalesce,
                                        self.device_labels(id),
                                    );
                                    shard.absorb_phone(registry, &lens);
                                    drop(lens);
                                    // The dataset's buffers go back into
                                    // the scratch pool; only the folded
                                    // summaries cross into the merger.
                                    ds.recycle(&mut scratch);
                                    let secs = t0.elapsed().as_secs_f64();
                                    out.push((meta, parse_secs, secs));
                                }
                                // One lock acquisition per run: the
                                // whole shard crosses at once.
                                let t1 = Instant::now();
                                let mut guard = state.lock().expect("merger lock");
                                let MergeState {
                                    merger,
                                    trace,
                                    write_error,
                                } = &mut *guard;
                                merger.push_shard_each(shard, |m| {
                                    on_boundary(
                                        m,
                                        opts,
                                        fingerprint,
                                        composition,
                                        topology,
                                        trace,
                                        write_error,
                                    )
                                });
                                drop(guard);
                                ws.merge_wait_seconds += t1.elapsed().as_secs_f64();
                            }
                            ws.alloc_calls = opts
                                .alloc_counter
                                .map(|f| f().saturating_sub(allocs0.unwrap_or(0)));
                            (out, ws)
                        })
                    })
                    .collect();
                join_workers(handles)
            })
        } else {
            (Vec::new(), Vec::new())
        };

        let mut st = state.into_inner().expect("merger lock");
        if let Some(e) = st.write_error.take() {
            return Err(e);
        }
        // Always flush at the end: a stopped run leaves a checkpoint
        // at exactly `stop` (the kill-point contract), a completed run
        // leaves one that resumes into an immediate finish.
        if let Some(path) = &opts.checkpoint {
            write_atomic(
                path,
                &st.merger.snapshot(fingerprint, composition, topology),
            )?;
        }
        if opts.mtbf_trace {
            let absorbed = st.merger.absorbed();
            if st.trace.last().map(|&(n, _)| n) != Some(absorbed) {
                if let Some(est) = st.merger.mtbf_estimate() {
                    st.trace.push((absorbed, est));
                }
            }
        }
        runs.sort_unstable_by_key(|(m, _, _)| m.phone_id);
        let mut metas = Vec::with_capacity(runs.len());
        let mut phone_seconds = Vec::with_capacity(runs.len());
        let mut parse_cpu_seconds = 0.0;
        for (m, parse_secs, secs) in runs {
            metas.push(m);
            parse_cpu_seconds += parse_secs;
            phone_seconds.push(secs);
        }
        let mut parse_defects = PhoneDefects::default();
        for ws in &worker_stats {
            parse_defects.merge(&ws.parse);
        }
        let parse_bytes = metas.iter().map(|m| m.flash_bytes).sum();
        let merge_stats = st.merger.merge_stats();
        let names = st.merger.names().clone();
        Ok(StreamingRun {
            metas,
            report: st.merger.finish(),
            names,
            parse_cpu_seconds,
            phone_seconds,
            parse_bytes,
            parse_defects,
            mtbf_trace: st.trace,
            resumed_from,
            worker_stats,
            merge_stats,
            topology,
            plan,
        })
    }
}

/// The result of a fully-streamed campaign→parse→fold run
/// ([`FleetCampaign::run_streaming`]).
#[derive(Debug)]
pub struct StreamingRun {
    /// Per-phone metadata, sorted by phone id.
    pub metas: Vec<PhoneMeta>,
    /// The finished study report.
    pub report: StudyReport,
    /// The fleet name table the report's coalesced panics resolve
    /// against (per-phone tables absorbed in phone-id order).
    pub names: NameTable,
    /// Seconds spent inside flash parsing, summed across workers (the
    /// parse rate's denominator).
    pub parse_cpu_seconds: f64,
    /// Per-phone seconds from the start of its simulation to the end
    /// of its fold — simulate, corrupt, parse and fold — aligned with
    /// `metas`: the measured cost vector a later `--balance measured`
    /// run can plan from.
    pub phone_seconds: Vec<f64>,
    /// Total flash bytes the driver read: the sum of the metas'
    /// [`PhoneMeta::flash_bytes`]. No phone's bytes are held past the
    /// next phone its worker simulates.
    pub parse_bytes: u64,
    /// The parse's counters (lines seen, records kept, defects) summed
    /// over the phones this run parsed, in the files its passes read,
    /// with or without the `defects` pass: the workers' [`WorkerStats::parse`].
    pub parse_defects: PhoneDefects,
    /// Live MTBF estimates `(phones_absorbed, estimate)` recorded at
    /// checkpoint boundaries (plus one final entry), strictly
    /// increasing in `phones_absorbed`. Empty unless
    /// [`StreamingOptions::mtbf_trace`] was set.
    pub mtbf_trace: Vec<(u32, MtbfAnalysis)>,
    /// `Some(k)` when the run resumed from a checkpoint holding `k`
    /// absorbed phones; `metas` and the parse counters then cover only
    /// the resumed suffix.
    pub resumed_from: Option<u32>,
    /// One entry per spawned worker (spawn order): merge-wait seconds
    /// and — when the caller wired an
    /// [`StreamingOptions::alloc_counter`] — allocator calls.
    pub worker_stats: Vec<WorkerStats>,
    /// Merger-side counters: shards absorbed and peak pending
    /// buffering (shards / phones).
    pub merge_stats: MergeStats,
    /// The fleet slice this run owned ([`ShardTopology::solo`] when
    /// unsharded).
    pub topology: ShardTopology,
    /// The full cut table the run was planned under — `Some` exactly
    /// when [`StreamingOptions::shard`] was set. Carries every shard's
    /// interval and predicted cost for the timing JSON's
    /// `shard_plan` section.
    pub plan: Option<ShardPlan>,
}

/// Aggregate ground-truth counters across a campaign (validation only).
pub fn total_stats(metas: &[PhoneMeta]) -> PhoneStats {
    let mut total = PhoneStats::default();
    for m in metas {
        total.panics += m.stats.panics;
        total.freezes += m.stats.freezes;
        total.self_shutdowns += m.stats.self_shutdowns;
        total.user_shutdowns += m.stats.user_shutdowns;
        total.lowbt_shutdowns += m.stats.lowbt_shutdowns;
        total.calls += m.stats.calls;
        total.messages += m.stats.messages;
        total.output_failures += m.stats.output_failures;
        total.user_reports += m.stats.user_reports;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_params() -> CalibrationParams {
        CalibrationParams {
            phones: 3,
            campaign_days: 20,
            enrollment_spread_days: 5,
            attrition_spread_days: 5,
            ..CalibrationParams::default()
        }
    }

    /// Every phone of `c` simulated alone, in id order, writing every
    /// file on fresh flash.
    fn harvest(c: &FleetCampaign) -> Vec<PhoneHarvest> {
        (0..c.params.phones).map(|id| c.run_single(id)).collect()
    }

    fn metas(harvest: &[PhoneHarvest]) -> Vec<PhoneMeta> {
        harvest.iter().map(PhoneMeta::from_harvest).collect()
    }

    #[test]
    fn plan_runs_partitions_on_the_cut_grid() {
        // Runs partition [start, stop): contiguous, ascending, no holes.
        let assert_partition = |runs: &[(u32, u32)], start: u32, stop: u32| {
            assert_eq!(runs.first().map(|r| r.0), Some(start));
            assert_eq!(runs.last().map(|r| r.1), Some(stop));
            for w in runs.windows(2) {
                assert_eq!(w[0].1, w[1].0);
            }
            for &(a, b) in runs {
                assert!(a < b);
            }
        };

        // No grid at all: one run covering everything.
        assert_eq!(plan_runs(0, 10, 0), vec![(0, 10)]);
        // The grid is anchored at phone 0 even when start isn't.
        assert_eq!(plan_runs(3, 10, 4), vec![(3, 4), (4, 8), (8, 10)]);
        // A run never straddles a grid line.
        let runs = plan_runs(0, 20, 3);
        assert_partition(&runs, 0, 20);
        for &(a, b) in &runs {
            assert!(b % 3 == 0 || b == 20, "bad cut at {a}..{b}");
            assert!(a / 3 == (b - 1) / 3, "run {a}..{b} straddles a grid line");
        }
        // Empty range plans nothing.
        assert!(plan_runs(7, 7, 5).is_empty());
    }

    #[test]
    fn campaign_is_deterministic() {
        let c = FleetCampaign::new(11, tiny_params());
        let a = harvest(&c);
        let b = harvest(&c);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.stats, y.stats);
            assert_eq!(x.flashfs.read_bytes("log"), y.flashfs.read_bytes("log"));
        }
    }

    /// The streaming driver's per-phone metadata equals the sequential
    /// harvest's, for any worker count.
    fn assert_streamed_metas_match(c: &FleetCampaign) {
        let seq = metas(&harvest(c));
        for workers in [1, 2, 3] {
            let run = c.run_streaming(workers, AnalysisConfig::default(), &PassRegistry::all());
            assert_eq!(run.metas.len(), seq.len());
            for (x, y) in seq.iter().zip(&run.metas) {
                assert_eq!(x.phone_id, y.phone_id);
                assert_eq!(x.stats, y.stats);
                assert_eq!(x.injected, y.injected);
                assert_eq!(x.flash_bytes, y.flash_bytes);
                assert_eq!(x.ureports, y.ureports);
            }
            assert_eq!(
                run.parse_bytes,
                seq.iter().map(|m| m.flash_bytes).sum::<u64>()
            );
        }
    }

    #[test]
    fn parallel_equals_sequential() {
        assert_streamed_metas_match(&FleetCampaign::new(13, tiny_params()));
    }

    /// The driver's parse counters sum the phones it parsed, in the
    /// files its passes read: the `defects` pass's fleet counters under
    /// the full registry; every phone's log alone under passes that
    /// read only the log, where that pass is absent; and a resumed
    /// run's suffix alone.
    #[test]
    fn parse_counters_sum_the_phones_the_driver_parsed() {
        let c = FleetCampaign::new(13, tiny_params()).with_corruption(CorruptionProfile::Moderate);
        let config = AnalysisConfig::default();
        let full = c.run_streaming(2, config, &PassRegistry::all());
        assert!(full.parse_defects.lines_seen > 0);
        assert_eq!(full.parse_defects, full.report.defects.fleet);

        let clean = FleetCampaign::new(13, tiny_params());
        let subset = PassRegistry::select("shutdown,bursts,coalesce").expect("known passes");
        let run = clean.run_streaming(2, config, &subset);
        let mut logs = PhoneDefects::default();
        for h in harvest(&clean) {
            let log = h.flashfs.read_bytes(files::LOG).unwrap_or_default();
            logs.merge(PhoneDataset::from_log(h.phone_id, log).defects());
        }
        assert!(logs.lines_seen > 0);
        assert_eq!(run.parse_defects, logs);
        assert_eq!(run.report.defects.fleet, PhoneDefects::default());

        let path =
            std::env::temp_dir().join(format!("symfail-parse-counters-{}.bin", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let opts = |stop| StreamingOptions {
            checkpoint: Some(path.clone()),
            stop_after_phones: stop,
            ..StreamingOptions::default()
        };
        let registry = PassRegistry::all();
        let first = c.run_streaming_opts(2, config, &registry, &opts(Some(1)));
        let resumed = c.run_streaming_opts(2, config, &registry, &opts(None));
        let _ = std::fs::remove_file(&path);
        let (first, resumed) = (first.expect("first leg"), resumed.expect("resumed leg"));
        assert_eq!(resumed.resumed_from, Some(1));
        let mut suffix = PhoneDefects::default();
        for (_, d) in full
            .report
            .defects
            .per_phone
            .iter()
            .filter(|(id, _)| *id >= 1)
        {
            suffix.merge(d);
        }
        assert_eq!(resumed.parse_defects, suffix);
        let mut both = first.parse_defects;
        both.merge(&resumed.parse_defects);
        assert_eq!(both, full.parse_defects);
    }

    #[test]
    fn corruption_damages_flash_but_not_ground_truth() {
        let params = tiny_params();
        let dirty = FleetCampaign::new(11, params).with_corruption(CorruptionProfile::Worst);
        let clean = FleetCampaign::new(11, params);
        let a = harvest(&dirty);
        let b = harvest(&clean);
        assert!(
            a.iter().map(|h| h.injected.total_observable()).sum::<u64>() > 0,
            "worst profile must inject something"
        );
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.stats, y.stats, "simulation itself is untouched");
        }
        assert!(
            a.iter().zip(&b).any(|(x, y)| x.flashfs.read_bytes("beats")
                != y.flashfs.read_bytes("beats")
                || x.flashfs.read_bytes("log") != y.flashfs.read_bytes("log")),
            "worst profile must damage at least one file"
        );
    }

    #[test]
    fn corrupted_parallel_equals_sequential() {
        assert_streamed_metas_match(
            &FleetCampaign::new(13, tiny_params()).with_corruption(CorruptionProfile::Moderate),
        );
    }

    #[test]
    fn mixed_fleet_is_deterministic_and_classed() {
        let c = FleetCampaign::new(13, tiny_params()).with_fleet(FleetComposition::mixed());
        let a = harvest(&c);
        // Phones simulated one at a time in reverse order: a phone's
        // bytes and class never depend on what ran before it.
        let mut b: Vec<PhoneHarvest> = (0..3).rev().map(|id| c.run_single(id)).collect();
        b.reverse();
        let mut classes = std::collections::BTreeSet::new();
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.device_class, y.device_class);
            assert_eq!(x.stats, y.stats);
            assert_eq!(x.flashfs.read_bytes("log"), y.flashfs.read_bytes("log"));
            classes.insert(x.device_class);
        }
        assert!(
            classes.len() >= 2,
            "mixed fleet has >= 2 classes: {classes:?}"
        );
    }

    #[test]
    fn default_composition_is_the_homogeneous_fleet() {
        let plain = FleetCampaign::new(11, tiny_params());
        let explicit =
            FleetCampaign::new(11, tiny_params()).with_fleet(FleetComposition::default());
        assert_eq!(plain.fingerprint(), explicit.fingerprint());
        for (x, y) in harvest(&plain).iter().zip(&harvest(&explicit)) {
            assert_eq!(x.device_class, DeviceClass::Smartphone);
            assert_eq!(x.stats, y.stats);
            assert_eq!(x.flashfs.read_bytes("log"), y.flashfs.read_bytes("log"));
        }
    }

    #[test]
    fn composition_moves_fingerprint_and_per_class_costs() {
        let params = CalibrationParams {
            phones: 30,
            campaign_days: 20,
            enrollment_spread_days: 0,
            attrition_spread_days: 0,
            ..CalibrationParams::default()
        };
        let plain = FleetCampaign::new(11, params);
        let mixed = FleetCampaign::new(11, params).with_fleet(FleetComposition::mixed());
        assert_ne!(plain.fingerprint(), mixed.fingerprint());
        // The static cost estimator prices per-class usage: heavy-use
        // communicators must out-cost entry-level phones on average.
        let costs = mixed.estimate_phone_costs();
        let mean_of = |class: DeviceClass| {
            let picked: Vec<f64> = (0..params.phones)
                .filter(|&id| mixed.composition.assign(id, params.phones) == class)
                .map(|id| costs[id as usize])
                .collect();
            picked.iter().sum::<f64>() / picked.len() as f64
        };
        assert!(
            mean_of(DeviceClass::Communicator) > mean_of(DeviceClass::EntryLevel),
            "class usage multipliers must show up in the cost estimates"
        );
    }

    #[test]
    fn enrollment_windows_within_campaign() {
        let c = FleetCampaign::new(17, tiny_params());
        for h in harvest(&c) {
            assert!(h.enrolled_day < h.retired_day);
            assert!(h.retired_day <= tiny_params().campaign_days as u64);
        }
    }

    const PROFILES: [CorruptionProfile; 4] = [
        CorruptionProfile::None,
        CorruptionProfile::Light,
        CorruptionProfile::Moderate,
        CorruptionProfile::Worst,
    ];

    /// A `phones` × `days` campaign under `profile` with enrollment and
    /// attrition spreads, of the default or the mixed composition.
    fn spread_campaign(
        seed: u64,
        (phones, days, enrollment, attrition): (u32, u32, u32, u32),
        mixed: bool,
        profile: CorruptionProfile,
    ) -> FleetCampaign {
        let params = CalibrationParams {
            phones,
            campaign_days: days,
            enrollment_spread_days: enrollment.min(days - 1),
            attrition_spread_days: attrition.min(days - 1),
            ..CalibrationParams::default()
        };
        let composition = if mixed {
            FleetComposition::mixed()
        } else {
            FleetComposition::default()
        };
        FleetCampaign::new(seed, params)
            .with_fleet(composition)
            .with_corruption(profile)
    }

    /// Asserts that phone `id` written as `files` holds no other file,
    /// and each of those byte for byte as the full phone does after the
    /// same damage, with the full phone's counters and injected
    /// defects; returns the full phone.
    fn assert_writes_the_full_phones_files(
        c: &FleetCampaign,
        id: u32,
        files: LoggerFiles,
    ) -> PhoneHarvest {
        let (phone, full) = (c.run_phone(id, files, FlashFs::new()), c.run_single(id));
        let ctx = format!("{} phone {id} writing {files:?}", c.corruption.as_str());
        for file in phone.flashfs.file_names() {
            assert!(files.names().contains(&file), "{ctx}: wrote {file}");
        }
        for &file in files.names() {
            assert!(
                phone.flashfs.read_bytes(file) == full.flashfs.read_bytes(file),
                "{ctx}: {file} differs from the full phone's"
            );
        }
        assert_eq!(phone.stats, full.stats, "{ctx}");
        assert_eq!(phone.injected, full.injected, "{ctx}");
        full
    }

    /// Renders one section of a report.
    type Render = fn(&StudyReport) -> String;

    /// One section renderer per pass: what a run whose registry holds
    /// the pass renders from it.
    const SECTIONS: [(&str, Render); 11] = [
        ("shutdown", StudyReport::render_fig2),
        ("mtbf", StudyReport::render_mtbf),
        ("bursts", StudyReport::render_fig3),
        ("coalesce", StudyReport::render_fig5),
        ("activity", StudyReport::render_table3),
        ("runapps", StudyReport::render_fig6),
        ("runapps", StudyReport::render_table4),
        ("panics", StudyReport::render_table2),
        ("firmware", StudyReport::render_firmware),
        ("defects", StudyReport::render_defects),
        ("perphone", StudyReport::render_per_phone),
    ];

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]

        /// A phone written as the rule gives a reader of the log alone
        /// or of the log and `beats`, under every profile, is the full
        /// phone without its other files: the full phone's `log`,
        /// `ureport` (and `beats`) byte for byte, its counters, and the
        /// same damage — the injector reads and damages `log` and
        /// `beats` alone. A clean log-only phone writes no `beats`.
        #[test]
        fn rule_file_sets_write_the_full_phones_files_and_take_the_same_damage(
            seed in 0u64..1_000_000,
            phones in 1u32..=4,
            days in 5u32..=40,
            enrollment in 1u32..20,
            attrition in 1u32..20,
            mixed in 0usize..2,
        ) {
            for profile in PROFILES {
                let c = spread_campaign(seed, (phones, days, enrollment, attrition), mixed == 1, profile);
                for reads in [LoggerFiles::LogOnly, LoggerFiles::LogAndBeats] {
                    let files = profile.written_files(reads);
                    proptest::prop_assert!(files >= reads);
                    proptest::prop_assert_eq!(
                        files.names().contains(&files::BEATS),
                        reads == LoggerFiles::LogAndBeats || profile != CorruptionProfile::None
                    );
                    for id in 0..phones {
                        assert_writes_the_full_phones_files(&c, id, files);
                    }
                }
            }
        }

        /// A run over any non-empty pass subset, under every corruption
        /// profile and fleet composition, renders each of its passes'
        /// sections and keeps each phone's counters, injected defects and
        /// user reports as the full run does, while its phones write
        /// exactly the rule's files and it reads only its passes' files.
        #[test]
        fn pass_subsets_render_the_full_runs_sections_from_the_rules_files(
            seed in 0u64..1_000_000,
            mask in 1u32..1024,
            phones in 1u32..=4,
            days in 5u32..=40,
            mixed in 0usize..2,
        ) {
            let names: Vec<&str> = PassRegistry::NAMES
                .into_iter()
                .enumerate()
                .filter(|&(i, _)| mask >> i & 1 == 1)
                .map(|(_, name)| name)
                .collect();
            let registry = PassRegistry::select(&names.join(",")).expect("known passes");
            let config = AnalysisConfig::default();
            for profile in PROFILES {
                let c = spread_campaign(seed, (phones, days, 3, 3), mixed == 1, profile);
                let full = c.run_streaming(1, config, &PassRegistry::all());
                let subset = c.run_streaming(2, config, &registry);
                for (pass, render) in SECTIONS {
                    if names.contains(&pass) {
                        proptest::prop_assert_eq!(
                            render(&subset.report),
                            render(&full.report),
                            "{} under {}",
                            pass,
                            profile.as_str()
                        );
                    }
                }
                if names.contains(&"coalesce") {
                    proptest::prop_assert_eq!(&subset.report.hl_events, &full.report.hl_events);
                }
                proptest::prop_assert_eq!(&subset.names, &full.names);
                let files = profile.written_files(registry.reads());
                for (a, b) in subset.metas.iter().zip(&full.metas) {
                    proptest::prop_assert_eq!(a.phone_id, b.phone_id);
                    proptest::prop_assert_eq!(a.stats, b.stats);
                    proptest::prop_assert_eq!(a.injected, b.injected);
                    proptest::prop_assert_eq!(&a.ureports, &b.ureports);
                    let full_phone = assert_writes_the_full_phones_files(&c, a.phone_id, files);
                    let read: u64 = registry
                        .reads()
                        .names()
                        .iter()
                        .map(|f| full_phone.flashfs.size_of(f))
                        .sum();
                    proptest::prop_assert_eq!(a.flash_bytes, read);
                }
                proptest::prop_assert_eq!(subset.metas.len(), full.metas.len());
            }
        }
    }

    #[test]
    fn stats_aggregate() {
        let c = FleetCampaign::new(19, tiny_params());
        let fleet = harvest(&c);
        let total = total_stats(&metas(&fleet));
        let manual: u64 = fleet.iter().map(|h| h.stats.calls).sum();
        assert_eq!(total.calls, manual);
        assert!(total.calls > 0);
    }
}
