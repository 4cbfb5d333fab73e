//! The composable analysis-pass framework: per-phone map-fold with a
//! deterministic phone-ordered merge.
//!
//! Every study section is an [`AnalysisPass`] with a typed
//! accumulator: it folds one [`PhoneDataset`] into a *one-phone
//! accumulator* ([`AnalysisPass::fold_phone`]), merges accumulators
//! ([`AnalysisPass::merge`]), and finishes the fleet accumulator into
//! its section of the [`StudyReport`] ([`AnalysisPass::finish`]).
//! There is one merge: a phone, a contiguous run of phones and a whole
//! checkpointed shard are all accumulators, so the same method absorbs
//! each of them. The contract that makes streaming safe:
//!
//! - **merge is associative over phone order**: merging the
//!   accumulators of disjoint ascending phone runs, in any grouping,
//!   must equal the fold over the whole fleet. Passes achieve this
//!   either by concatenating per-phone vectors in phone-id order
//!   (shutdowns, cascades, coalesced panics, defects) or by using
//!   order-insensitive additive counters
//!   (`CategoricalDist`/`ContingencyTable` are `BTreeMap`-backed).
//! - **name ids never leak unmapped**: only coalesced panics carry
//!   interned [`NameId`](crate::intern::NameId)s. A merge receives the
//!   absorbed run's remap table (built by absorbing its [`NameTable`]
//!   into the receiving table in phone-id order), so streamed ids are
//!   bit-identical to the batch fleet table's. Passes that need strings
//!   (running apps) resolve them at fold time instead.
//!
//! Each pass lives with the section it builds, together with its
//! accumulator and checkpoint codec: `shutdown`, `mtbf`, `bursts`,
//! `coalesce`, `activity`, `runapps`, `firmware` and `defects` in the
//! modules of those names, `panics` and `perphone` in
//! [`report`](super::report). A new pass is one such module plus its
//! entry in [`PassRegistry`]. This module holds what every pass shares:
//! the trait, the per-phone [`PhoneLens`], the registry, the shard
//! merge ([`FoldShard`], [`StreamMerger`]) and the checkpoint container
//! around the passes' blobs. The registry stores passes behind one
//! private type-erased adapter (`ErasedPass`, implemented once for
//! every [`AnalysisPass`]); it is the only code that sees an
//! accumulator as `dyn Any`.
//!
//! The streaming driver folds a *contiguous run* of phone ids into a
//! private [`FoldShard`] (its own accumulators plus a shard-local name
//! table) and hands the whole shard to the [`StreamMerger`] in one
//! [`StreamMerger::push_shard`]. The merger buffers out-of-order
//! shards and absorbs strictly in phone-id order, so the report is
//! byte-identical for any worker count and run partition — and to the
//! reference driver ([`StudyReport::analyze`]), which runs the *same*
//! passes over a materialized fleet with an identity remap.
//! [`tree_merge_shards`] exploits the same associativity to reduce
//! shards pairwise.

use std::any::Any;
use std::collections::BTreeMap;

use symfail_sim_core::SimDuration;

use super::activity::ActivityPass;
use super::bursts::BurstsPass;
use super::checkpoint::{
    self, read_map, ByteReader, ByteWriter, CheckpointError, MergeError, ShardTopology,
    CHECKPOINT_MAGIC, CHECKPOINT_SCHEMA_VERSION,
};
use super::coalesce::{coalesce_phone, CoalescePass, CoalescedPanic, CoalescenceAnalysis};
use super::dataset::{HlEvent, HlKind, PhoneDataset, ShutdownEvent};
use super::defects::DefectsPass;
use super::firmware::FirmwarePass;
use super::mtbf::{MtbfAnalysis, MtbfPass};
use super::report::{AnalysisConfig, PanicDistPass, PerPhonePass, StudyReport};
use super::runapps::RunningAppsPass;
use super::shutdown::ShutdownPass;
use crate::intern::NameTable;
use crate::logger::LoggerFiles;

/// One section of the study as a typed per-phone fold plus an
/// associative, phone-ordered merge.
///
/// Implementations must keep [`Self::merge`] associative over phone-id
/// order (see the module docs); the framework guarantees accumulators
/// are merged in phone-id order regardless of which worker built them.
pub trait AnalysisPass: Send + Sync + 'static {
    /// The pass's accumulator. `Default` is the empty (zero-phone)
    /// accumulator; [`Self::fold_phone`] builds a one-phone one.
    type Acc: Default + Send + 'static;

    /// Stable pass name, used by `--analyses` selection and recorded
    /// in checkpoint headers.
    const NAME: &'static str;

    /// Whether this pass consumes the per-phone coalescence fold (so
    /// [`PhoneLens::new`] can skip computing it when nothing does).
    const NEEDS_COALESCE: bool = false;

    /// The flash files this pass reads: the log, unless it reads
    /// powered-on time or the beats file's defects. The driver's phones
    /// write and parse only what their passes read.
    const READS: LoggerFiles = LoggerFiles::LogOnly;

    /// Folds one phone into a one-phone accumulator. Must not retain
    /// references into the dataset: the streaming driver drops the
    /// phone right after.
    fn fold_phone(&self, lens: &PhoneLens<'_>) -> Self::Acc;

    /// Merges the accumulator of a later, disjoint phone run into
    /// `acc`. `remap[other_id] = acc_id` maps `other`'s interner ids
    /// into `acc`'s; `None` when they already agree (the reference
    /// driver, or an identity remap).
    fn merge(&self, acc: &mut Self::Acc, other: Self::Acc, remap: Option<&[u16]>);

    /// Finishes the accumulator into the pass's section of `report`,
    /// whose [`StudyReport::config`] is the analysis configuration.
    fn finish(&self, acc: Self::Acc, report: &mut StudyReport);

    /// Serializes an accumulator into a checkpoint stream (see the
    /// [`checkpoint`] module for the format). Must
    /// write exactly what [`Self::restore`] reads: the merger
    /// length-prefixes each pass blob and rejects partial consumption.
    fn snapshot(&self, acc: &Self::Acc, out: &mut ByteWriter);

    /// Rebuilds an accumulator from a checkpoint stream. Interned ids
    /// in the stream are the writer's table ids (restored alongside),
    /// so no remapping happens here.
    fn restore(&self, src: &mut ByteReader<'_>) -> Result<Self::Acc, CheckpointError>;
}

/// An accumulator behind the erased adapter.
type DynAcc = Box<dyn Any + Send>;

/// The object-safe face of an [`AnalysisPass`], implemented once for
/// every pass: the registry holds `Box<dyn ErasedPass>` and
/// hands it [`DynAcc`]s, and these methods are the only code in the
/// framework that downcasts one. Every slot is created by its own
/// pass ([`PassRegistry::new_accs`], [`read_accs`]), so a type
/// mismatch is a registry bug, never bad input.
trait ErasedPass: Send + Sync {
    fn name(&self) -> &'static str;
    fn needs_coalesce(&self) -> bool;
    fn reads(&self) -> LoggerFiles;
    fn empty(&self) -> DynAcc;
    fn fold_into(&self, acc: &mut DynAcc, lens: &PhoneLens<'_>, remap: Option<&[u16]>);
    fn merge(&self, acc: &mut DynAcc, other: DynAcc, remap: Option<&[u16]>);
    fn finish(&self, acc: DynAcc, report: &mut StudyReport);
    fn snapshot(&self, acc: &DynAcc, out: &mut ByteWriter);
    fn restore(&self, src: &mut ByteReader<'_>) -> Result<DynAcc, CheckpointError>;
}

/// Pass `P`'s view of a registry slot.
fn typed<P: AnalysisPass>(acc: &DynAcc) -> &P::Acc {
    acc.downcast_ref()
        .expect("registry slot holds its pass's accumulator")
}

fn typed_mut<P: AnalysisPass>(acc: &mut DynAcc) -> &mut P::Acc {
    acc.downcast_mut()
        .expect("registry slot holds its pass's accumulator")
}

fn into_typed<P: AnalysisPass>(acc: DynAcc) -> P::Acc {
    *acc.downcast()
        .expect("registry slot holds its pass's accumulator")
}

impl<P: AnalysisPass> ErasedPass for P {
    fn name(&self) -> &'static str {
        P::NAME
    }

    fn needs_coalesce(&self) -> bool {
        P::NEEDS_COALESCE
    }

    fn reads(&self) -> LoggerFiles {
        P::READS
    }

    fn empty(&self) -> DynAcc {
        Box::new(P::Acc::default())
    }

    fn fold_into(&self, acc: &mut DynAcc, lens: &PhoneLens<'_>, remap: Option<&[u16]>) {
        let fold = AnalysisPass::fold_phone(self, lens);
        AnalysisPass::merge(self, typed_mut::<P>(acc), fold, remap);
    }

    fn merge(&self, acc: &mut DynAcc, other: DynAcc, remap: Option<&[u16]>) {
        AnalysisPass::merge(self, typed_mut::<P>(acc), into_typed::<P>(other), remap);
    }

    fn finish(&self, acc: DynAcc, report: &mut StudyReport) {
        AnalysisPass::finish(self, into_typed::<P>(acc), report);
    }

    fn snapshot(&self, acc: &DynAcc, out: &mut ByteWriter) {
        AnalysisPass::snapshot(self, typed::<P>(acc), out);
    }

    fn restore(&self, src: &mut ByteReader<'_>) -> Result<DynAcc, CheckpointError> {
        Ok(Box::new(AnalysisPass::restore(self, src)?))
    }
}

/// The device-profile labels a phone folds under: which device class
/// and firmware version the simulator assigned it. Drivers that know
/// the fleet composition attach real labels
/// ([`PhoneLens::with_device`]); standalone datasets fall back to the
/// homogeneous default.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeviceLabels {
    /// Device-class label (the composition's `DeviceClass::as_str`).
    pub device_class: &'static str,
    /// Firmware-version label (`SymbianVersion::as_str`).
    pub firmware: &'static str,
}

impl Default for DeviceLabels {
    fn default() -> Self {
        Self {
            device_class: "smartphone",
            firmware: "Symbian 8.0",
        }
    }
}

/// Everything a pass may want from one phone, computed once and shared
/// by all passes: the dataset view plus the derived per-phone HL
/// stream and coalescence folds (skipped when no selected pass needs
/// them). The passes, which live in the section modules, read its
/// fields directly.
pub struct PhoneLens<'a> {
    pub(super) phone: &'a PhoneDataset,
    /// Table the phone's panic ids resolve against: the phone's own
    /// for standalone datasets, the merged fleet table for fleet
    /// members (whose panics carry fleet ids).
    pub(super) names: &'a NameTable,
    pub(super) config: AnalysisConfig,
    /// Shutdowns classified as self-shutdowns by the config threshold.
    pub(super) self_shutdowns: usize,
    /// The phone's powered-on time under the config's uptime gap,
    /// summed once here for every pass that reads it.
    pub(super) powered_on: SimDuration,
    /// Freezes + self-shutdown HL events, time-sorted (freezes first
    /// on ties).
    pub(super) hl: Vec<HlEvent>,
    /// The phone's panics coalesced against `hl`.
    pub(super) coalesced: CoalescenceAnalysis,
    /// The phone's panics coalesced against freezes plus every
    /// shutdown event (the paper's robustness variant).
    pub(super) coalesced_all: CoalescenceAnalysis,
    /// Device class + firmware labels the phone folds under.
    pub(super) device: DeviceLabels,
}

impl<'a> PhoneLens<'a> {
    /// Precomputes the shared per-phone views. `needs_coalesce` gates
    /// the HL merge + coalescence folds (use
    /// [`PassRegistry::needs_coalesce`]). The device labels default to
    /// the homogeneous fleet's.
    pub fn new(phone: &'a PhoneDataset, config: AnalysisConfig, needs_coalesce: bool) -> Self {
        Self::with_device(phone, config, needs_coalesce, DeviceLabels::default())
    }

    /// [`Self::new`] with explicit device labels — the streaming
    /// drivers attach the composition's per-phone assignment here.
    pub fn with_device(
        phone: &'a PhoneDataset,
        config: AnalysisConfig,
        needs_coalesce: bool,
        device: DeviceLabels,
    ) -> Self {
        Self::with_names_device(phone, phone.names(), config, needs_coalesce, device)
    }

    /// [`Self::with_device`] with an explicit resolve table — the
    /// reference driver's entry point. It passes the merged fleet
    /// table: fleet members' panics carry fleet ids, and a fleet member
    /// holds no table of its own.
    pub fn with_names_device(
        phone: &'a PhoneDataset,
        names: &'a NameTable,
        config: AnalysisConfig,
        needs_coalesce: bool,
        device: DeviceLabels,
    ) -> Self {
        let self_shutdowns = phone
            .shutdown_events()
            .iter()
            .filter(|e| e.duration <= config.self_shutdown_threshold)
            .count();
        let (hl, coalesced, coalesced_all) = if needs_coalesce {
            let shutdown_hl = |e: &ShutdownEvent| HlEvent {
                phone_id: e.phone_id,
                at: e.off_at,
                kind: HlKind::SelfShutdown,
            };
            // Chain freezes before shutdown events, then stable-sort
            // by time: on ties a freeze comes first, and the report's
            // `hl_events` (these slices concatenated in phone order)
            // is `(phone, time)`-sorted.
            let mut hl: Vec<HlEvent> = phone
                .freezes()
                .iter()
                .copied()
                .chain(
                    phone
                        .shutdown_events()
                        .iter()
                        .filter(|e| e.duration <= config.self_shutdown_threshold)
                        .map(shutdown_hl),
                )
                .collect();
            hl.sort_by_key(|e| e.at);
            let mut hl_all: Vec<HlEvent> = phone
                .freezes()
                .iter()
                .copied()
                .chain(phone.shutdown_events().iter().map(shutdown_hl))
                .collect();
            hl_all.sort_by_key(|e| e.at);
            let window = config.coalescence_window;
            let coalesced = coalesce_phone(phone.phone_id(), phone.panics(), &hl, window);
            let coalesced_all = coalesce_phone(phone.phone_id(), phone.panics(), &hl_all, window);
            (hl, coalesced, coalesced_all)
        } else {
            (
                Vec::new(),
                CoalescenceAnalysis::default(),
                CoalescenceAnalysis::default(),
            )
        };
        Self {
            phone,
            names,
            config,
            self_shutdowns,
            powered_on: phone.powered_on_time(config.uptime_gap),
            hl,
            coalesced,
            coalesced_all,
            device,
        }
    }
}

/// An ordered set of passes: the unit `StudyReport` drives.
pub struct PassRegistry {
    passes: Vec<Box<dyn ErasedPass>>,
}

impl PassRegistry {
    /// Every pass name, in canonical (registry) order.
    pub const NAMES: [&'static str; 10] = [
        "shutdown", "mtbf", "bursts", "coalesce", "activity", "runapps", "panics", "firmware",
        "defects", "perphone",
    ];

    /// The full registry: every pass, in canonical order.
    pub fn all() -> Self {
        Self::select("all").expect("full registry is always valid")
    }

    /// Builds a registry from a comma-separated pass list (`"all"`
    /// selects everything). Names are deduplicated and reordered into
    /// canonical order, so selection never changes merge semantics.
    ///
    /// # Errors
    ///
    /// Returns a message naming the unknown pass and the valid names.
    pub fn select(spec: &str) -> Result<Self, String> {
        let tokens: Vec<&str> = spec
            .split(',')
            .map(str::trim)
            .filter(|t| !t.is_empty())
            .collect();
        if tokens.is_empty() {
            return Err(format!(
                "no passes selected; valid passes: {}",
                Self::NAMES.join(", ")
            ));
        }
        let want_all = tokens.contains(&"all");
        for t in &tokens {
            if *t != "all" && !Self::NAMES.contains(t) {
                return Err(format!(
                    "unknown analysis pass `{t}`; valid passes: all, {}",
                    Self::NAMES.join(", ")
                ));
            }
        }
        let passes: Vec<Box<dyn ErasedPass>> = Self::NAMES
            .iter()
            .filter(|name| want_all || tokens.contains(name))
            .map(|name| Self::build(name))
            .collect();
        Ok(Self { passes })
    }

    fn build(name: &str) -> Box<dyn ErasedPass> {
        match name {
            ShutdownPass::NAME => Box::new(ShutdownPass),
            MtbfPass::NAME => Box::new(MtbfPass),
            BurstsPass::NAME => Box::new(BurstsPass),
            CoalescePass::NAME => Box::new(CoalescePass),
            ActivityPass::NAME => Box::new(ActivityPass),
            RunningAppsPass::NAME => Box::new(RunningAppsPass),
            PanicDistPass::NAME => Box::new(PanicDistPass),
            FirmwarePass::NAME => Box::new(FirmwarePass),
            DefectsPass::NAME => Box::new(DefectsPass),
            PerPhonePass::NAME => Box::new(PerPhonePass),
            _ => unreachable!("validated pass name"),
        }
    }

    /// The registered pass names in canonical order.
    pub fn names(&self) -> Vec<&'static str> {
        self.passes.iter().map(|p| p.name()).collect()
    }

    /// Registry slot of the pass named `name`, if selected.
    fn position(&self, name: &str) -> Option<usize> {
        self.passes.iter().position(|p| p.name() == name)
    }

    /// Whether any registered pass consumes the coalescence fold.
    pub fn needs_coalesce(&self) -> bool {
        self.passes.iter().any(|p| p.needs_coalesce())
    }

    /// The flash files the registered passes read: the union of their
    /// [`AnalysisPass::READS`].
    pub fn reads(&self) -> LoggerFiles {
        let reads = self.passes.iter().map(|p| p.reads());
        reads.fold(LoggerFiles::LogOnly, Ord::max)
    }

    /// Fresh accumulators, one per pass, in registry order.
    pub(crate) fn new_accs(&self) -> Vec<DynAcc> {
        self.passes.iter().map(|p| p.empty()).collect()
    }

    /// Folds one phone and merges it straight into `accs` — the inner
    /// loop of both the reference driver and [`FoldShard::absorb_phone`].
    pub(crate) fn fold_merge(
        &self,
        lens: &PhoneLens<'_>,
        accs: &mut [DynAcc],
        remap: Option<&[u16]>,
    ) {
        for (pass, acc) in self.passes.iter().zip(accs.iter_mut()) {
            pass.fold_into(acc, lens, remap);
        }
    }

    /// Merges a later run's accumulators into `accs`, pass by pass.
    fn merge_accs(&self, accs: &mut [DynAcc], other: Vec<DynAcc>, remap: Option<&[u16]>) {
        for (pass, (acc, other)) in self.passes.iter().zip(accs.iter_mut().zip(other)) {
            pass.merge(acc, other, remap);
        }
    }

    /// Finishes every accumulator into its section of one report. The
    /// sections of passes this registry does not hold stay empty.
    pub(crate) fn finish(&self, accs: Vec<DynAcc>, config: AnalysisConfig) -> StudyReport {
        let mut report = StudyReport::empty(config);
        for (pass, acc) in self.passes.iter().zip(accs) {
            pass.finish(acc, &mut report);
        }
        report
    }
}

/// Merge-side counters the streaming driver surfaces in its timing
/// stats: how many shards the merger absorbed and how much
/// out-of-order state it ever buffered.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MergeStats {
    /// Shards absorbed.
    pub absorbed_shards: u64,
    /// Most shards ever buffered waiting for an earlier phone.
    pub peak_pending_shards: usize,
    /// Most phones those buffered shards ever covered.
    pub peak_pending_phones: usize,
}

/// Absorbs `names` into `into` and returns the remap a merge
/// needs — `None` when it is the identity (the names arrived in table
/// order, the overwhelmingly common case), so passes skip the rewrite.
fn absorb_names(into: &mut NameTable, names: &NameTable) -> Option<Vec<u16>> {
    let remap = into.absorb(names);
    let identity = remap.iter().enumerate().all(|(i, &to)| i == to as usize);
    (!identity).then_some(remap)
}

/// A contiguous run of phones `[start, end)` folded into private
/// accumulators with a shard-local name table — the unit of work the
/// streaming driver hands to the merger, one lock acquisition per run
/// instead of one per phone.
///
/// The contiguous-run invariant: a shard's phones are consecutive ids
/// folded in ascending order, so merging whole shards in `start` order
/// performs exactly the fold the reference driver performs phone by
/// phone — every pass's merge is associative over phone-id order, and
/// the interner absorbs shard tables in the same order it would have
/// absorbed the phones' own.
pub struct FoldShard {
    start: u32,
    end: u32,
    names: NameTable,
    accs: Vec<DynAcc>,
}

impl FoldShard {
    /// An empty shard whose first phone will be `start`.
    pub fn new(registry: &PassRegistry, start: u32) -> Self {
        Self {
            start,
            end: start,
            names: NameTable::default(),
            accs: registry.new_accs(),
        }
    }

    /// First phone id in the shard.
    pub fn start(&self) -> u32 {
        self.start
    }

    /// One past the last phone id folded so far.
    pub fn end(&self) -> u32 {
        self.end
    }

    /// Number of phones folded so far.
    pub fn len(&self) -> u32 {
        self.end - self.start
    }

    /// True when no phone has been folded yet.
    pub fn is_empty(&self) -> bool {
        self.end == self.start
    }

    /// Folds the next phone — which must be exactly [`Self::end`], the
    /// contiguous-run invariant — into the shard, absorbing its name
    /// table shard-locally (ids are remapped again, shard-to-fleet,
    /// when the shard itself merges).
    pub fn absorb_phone(&mut self, registry: &PassRegistry, lens: &PhoneLens<'_>) {
        let id = lens.phone.phone_id();
        assert_eq!(id, self.end, "shard phones must be contiguous");
        let remap = absorb_names(&mut self.names, lens.names);
        registry.fold_merge(lens, &mut self.accs, remap.as_deref());
        self.end = self.end.saturating_add(1);
    }

    /// Merges a later shard into this one. `other` must start at or
    /// after [`Self::end`] — id gaps are tolerated (a partial merge
    /// folds whatever slices exist), overlap is a caller bug. Remaps
    /// `other`'s interner ids through this shard's table, preserving
    /// the phone-id-order interning discipline.
    pub fn absorb_shard(&mut self, registry: &PassRegistry, other: FoldShard) {
        assert!(
            other.start >= self.end,
            "shards must merge in disjoint ascending phone order ({}..{} after {}..{})",
            other.start,
            other.end,
            self.start,
            self.end
        );
        let remap = absorb_names(&mut self.names, &other.names);
        registry.merge_accs(&mut self.accs, other.accs, remap.as_deref());
        self.end = other.end;
    }
}

/// Reduces contiguous shards (any arrival order) into one by pairwise
/// rounds — `O(log n)` merge depth. Returns `None` for an empty input.
/// Byte-identical to left-to-right merging because shard merging is
/// associative (see [`FoldShard::absorb_shard`]).
pub fn tree_merge_shards(registry: &PassRegistry, mut shards: Vec<FoldShard>) -> Option<FoldShard> {
    shards.sort_by_key(|s| s.start);
    while shards.len() > 1 {
        let mut next = Vec::with_capacity(shards.len().div_ceil(2));
        let mut it = shards.into_iter();
        while let Some(mut left) = it.next() {
            if let Some(right) = it.next() {
                left.absorb_shard(registry, right);
            }
            next.push(left);
        }
        shards = next;
    }
    shards.pop()
}

/// Phone-ordered streaming merge: accepts [`FoldShard`]s in *any*
/// arrival order, buffers out-of-order shards, and absorbs strictly by
/// ascending phone id — the same discipline
/// [`FleetDataset::from_phones`](super::dataset::FleetDataset::from_phones)
/// uses for the name interner, which is what makes streamed reports
/// byte-identical for any worker count.
pub struct StreamMerger<'r> {
    registry: &'r PassRegistry,
    config: AnalysisConfig,
    /// The absorbed contiguous prefix `[origin, absorbed)` as one
    /// shard: the fleet name table and every pass's fleet accumulator.
    /// `origin` is 0 for a whole-fleet merger and the shard interval's
    /// low end for a `--shard i/N` process.
    absorbed: FoldShard,
    /// Out-of-order arrivals, keyed by shard start id.
    pending: BTreeMap<u32, FoldShard>,
    stats: MergeStats,
}

impl<'r> StreamMerger<'r> {
    /// A merger expecting phone ids dense from 0 (gaps are tolerated:
    /// they are held pending and absorbed, still in id order, at
    /// [`Self::finish`]).
    pub fn new(registry: &'r PassRegistry, config: AnalysisConfig) -> Self {
        Self::new_at(registry, config, 0)
    }

    /// A merger owning the fleet slice that starts at phone `origin` —
    /// the shard-scoped driver's entry point. Phones below `origin`
    /// are treated as already absorbed (pushes for them are dropped),
    /// and a snapshot records the covered interval `[origin, absorbed)`
    /// so `merge-checkpoints` can stitch slices back together.
    pub fn new_at(registry: &'r PassRegistry, config: AnalysisConfig, origin: u32) -> Self {
        Self {
            registry,
            config,
            absorbed: FoldShard::new(registry, origin),
            pending: BTreeMap::new(),
            stats: MergeStats::default(),
        }
    }

    /// First phone id this merger owns (see [`Self::new_at`]).
    pub fn origin(&self) -> u32 {
        self.absorbed.start
    }

    /// Accepts a whole contiguous-run shard, the driver's unit of
    /// handoff. Shards fully below [`Self::absorbed`] (a resumed
    /// campaign replaying already-checkpointed runs) are dropped; a
    /// shard *straddling* the watermark is a caller bug — the driver
    /// plans runs deterministically from the watermark, so a replayed
    /// partition either matches or is entirely stale.
    pub fn push_shard(&mut self, shard: FoldShard) {
        self.push_shard_each(shard, |_| {});
    }

    /// [`Self::push_shard`] with an observer fired after each absorbed
    /// shard (one push can unblock several buffered shards). Because
    /// shards absorb strictly in phone-id order, the observer sees
    /// every run boundary exactly once regardless of worker count —
    /// which is what makes checkpoint-every-N and the online MTBF
    /// trace deterministic.
    pub fn push_shard_each(&mut self, shard: FoldShard, mut on_absorb: impl FnMut(&Self)) {
        let next_id = self.absorbed();
        if shard.is_empty() || shard.end() <= next_id {
            return;
        }
        assert!(
            shard.start() >= next_id,
            "shard {}..{} straddles the absorbed watermark {next_id}",
            shard.start(),
            shard.end(),
        );
        if shard.start() == next_id {
            self.absorb_shard(shard);
            on_absorb(&*self);
            while let Some(shard) = self.pending.remove(&self.absorbed()) {
                self.absorb_shard(shard);
                on_absorb(&*self);
            }
        } else {
            self.buffer(shard);
        }
    }

    /// Number of phones absorbed so far — the next expected phone id,
    /// and the resume point a snapshot taken now would encode.
    pub fn absorbed(&self) -> u32 {
        self.absorbed.end
    }

    /// Phones currently buffered waiting for an earlier phone.
    pub fn pending_len(&self) -> usize {
        self.pending.values().map(|s| s.len() as usize).sum()
    }

    /// Merge-side counters accumulated so far.
    pub fn merge_stats(&self) -> MergeStats {
        self.stats
    }

    fn absorb_shard(&mut self, shard: FoldShard) {
        self.absorbed.absorb_shard(self.registry, shard);
        self.stats.absorbed_shards += 1;
    }

    fn buffer(&mut self, shard: FoldShard) {
        self.pending.insert(shard.start(), shard);
        self.stats.peak_pending_shards = self.stats.peak_pending_shards.max(self.pending.len());
        self.stats.peak_pending_phones = self.stats.peak_pending_phones.max(self.pending_len());
    }

    /// Absorbs any still-pending shards (in id order, gaps tolerated)
    /// and finishes every pass into the report.
    pub fn finish(mut self) -> StudyReport {
        for (_, shard) in std::mem::take(&mut self.pending) {
            if shard.end() > self.absorbed() {
                self.absorb_shard(shard);
            }
        }
        self.registry.finish(self.absorbed.accs, self.config)
    }

    /// The fleet name table merged so far (phone-id order).
    pub fn names(&self) -> &NameTable {
        &self.absorbed.names
    }

    /// A live MTBF estimate over the phones absorbed so far, straight
    /// from the `mtbf` pass's running totals (integer-millisecond sums,
    /// so the estimate at absorbed == fleet size is bit-identical to
    /// the reference driver's). `None` when the registry has no `mtbf`
    /// pass.
    pub fn mtbf_estimate(&self) -> Option<MtbfAnalysis> {
        let slot = self.registry.position(MtbfPass::NAME)?;
        let fold = typed::<MtbfPass>(&self.absorbed.accs[slot]);
        Some(MtbfAnalysis::from_totals(
            fold.powered_on,
            fold.freezes,
            fold.self_shutdowns,
        ))
    }

    /// Serializes the merger's absorbed state into a versioned,
    /// checksummed checkpoint (see [`checkpoint`] for the byte
    /// layout). Pending (out-of-order) shards are deliberately **not**
    /// serialized: a checkpoint represents the contiguous prefix
    /// `[0, absorbed)` only, because that prefix — unlike the pending
    /// buffer, which depends on worker skew — is byte-identical for
    /// every worker count. A resumed campaign re-simulates everything
    /// from [`Self::absorbed`].
    ///
    /// `topology` records which fleet slice the writing process owns —
    /// [`ShardTopology::solo`] for an unsharded run — making the file
    /// self-describing for both resume validation and
    /// [`merge_shard_checkpoints`]. `composition` is the campaign's
    /// fleet-composition spec string (v5 header), validated on resume
    /// with a typed mismatch error.
    pub fn snapshot(
        &self,
        campaign_fingerprint: u64,
        composition: &str,
        topology: ShardTopology,
    ) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.bytes(&CHECKPOINT_MAGIC);
        w.u32(CHECKPOINT_SCHEMA_VERSION);
        w.u64(campaign_fingerprint);
        w.u64(self.config.self_shutdown_threshold.as_millis());
        w.u64(self.config.coalescence_window.as_millis());
        w.u64(self.config.burst_gap.as_millis());
        w.u64(self.config.uptime_gap.as_millis());
        // v5 composition header: the fleet-composition spec string, so
        // a checkpoint is refused (typed) under a different fleet mix
        // even before the fingerprint comparison explains less.
        w.str(composition);
        let names = self.registry.names();
        w.usize(names.len());
        for name in names {
            w.str(name);
        }
        // v4 shard-topology header: which fleet slice this process
        // owns, as an explicit [start, end) interval. The covered
        // interval is [start, absorbed); the merger's origin is by
        // construction the interval's low end.
        assert_eq!(
            topology.start,
            self.origin(),
            "snapshot topology {topology} does not start at merger origin {}",
            self.origin()
        );
        w.u32(topology.index);
        w.u32(topology.count);
        w.u32(topology.fleet_phones);
        w.u32(topology.start);
        w.u32(topology.end);
        w.u32(self.absorbed());
        write_names(&mut w, self.names());
        write_accs(&mut w, self.registry, &self.absorbed.accs);
        // v2 pending-shard count: always empty (see the method docs).
        w.usize(0);
        let mut bytes = w.into_bytes();
        let checksum = checkpoint::fnv1a64(&bytes);
        bytes.extend_from_slice(&checksum.to_le_bytes());
        bytes
    }

    /// Rebuilds a merger from a [`Self::snapshot`], validating in a
    /// fixed order: magic, schema version, whole-payload checksum,
    /// then pass registry / analysis config / campaign fingerprint /
    /// shard topology against the resuming run's. The pending buffer
    /// starts empty — workers must restart at [`Self::absorbed`].
    ///
    /// # Errors
    ///
    /// A distinguishable [`CheckpointError`] per failure mode; a
    /// tampered or truncated file never panics and never yields a
    /// merger.
    pub fn resume(
        registry: &'r PassRegistry,
        config: AnalysisConfig,
        campaign_fingerprint: u64,
        composition: &str,
        topology: ShardTopology,
        bytes: &[u8],
    ) -> Result<Self, CheckpointError> {
        let parsed = parse_checkpoint(registry, config, campaign_fingerprint, composition, bytes)?;
        if parsed.topology != topology {
            return Err(CheckpointError::ShardMismatch {
                found: parsed.topology,
                expected: topology,
            });
        }
        Ok(Self {
            registry,
            config,
            absorbed: parsed.absorbed,
            pending: BTreeMap::new(),
            stats: MergeStats::default(),
        })
    }
}

/// A fully decoded checkpoint, before any shard-topology expectation
/// is applied — shared by [`StreamMerger::resume`] (which demands the
/// resuming run's topology) and [`load_shard_checkpoint`] (which
/// accepts whatever topology the file records). The absorbed shard
/// covers `[topology.start, next_id)`.
struct ParsedCheckpoint {
    topology: ShardTopology,
    absorbed: FoldShard,
}

fn parse_checkpoint(
    registry: &PassRegistry,
    config: AnalysisConfig,
    campaign_fingerprint: u64,
    composition: &str,
    bytes: &[u8],
) -> Result<ParsedCheckpoint, CheckpointError> {
    let magic_len = CHECKPOINT_MAGIC.len();
    if bytes.len() < magic_len + 4 {
        return Err(CheckpointError::Truncated);
    }
    if bytes[..magic_len] != CHECKPOINT_MAGIC {
        return Err(CheckpointError::BadMagic);
    }
    let found = u32::from_le_bytes(bytes[magic_len..magic_len + 4].try_into().expect("len 4"));
    if found != CHECKPOINT_SCHEMA_VERSION {
        return Err(CheckpointError::SchemaVersion {
            found,
            expected: CHECKPOINT_SCHEMA_VERSION,
        });
    }
    if bytes.len() < magic_len + 4 + 8 {
        return Err(CheckpointError::Truncated);
    }
    let (body, tail) = bytes.split_at(bytes.len() - 8);
    let stored = u64::from_le_bytes(tail.try_into().expect("len 8"));
    if checkpoint::fnv1a64(body) != stored {
        return Err(CheckpointError::Checksum);
    }
    let mut r = ByteReader::new(&body[magic_len + 4..]);
    let found_fingerprint = r.u64()?;
    let stored_config = AnalysisConfig {
        self_shutdown_threshold: SimDuration::from_millis(r.u64()?),
        coalescence_window: SimDuration::from_millis(r.u64()?),
        burst_gap: SimDuration::from_millis(r.u64()?),
        uptime_gap: SimDuration::from_millis(r.u64()?),
    };
    // v5 composition header.
    let found_composition = r.str()?;
    let n_passes = r.usize()?;
    if n_passes > PassRegistry::NAMES.len() {
        return Err(CheckpointError::Corrupt("pass count out of range"));
    }
    let mut found_passes = Vec::with_capacity(n_passes);
    for _ in 0..n_passes {
        found_passes.push(r.str()?);
    }
    let expected_passes: Vec<String> = registry.names().iter().map(|n| n.to_string()).collect();
    if found_passes != expected_passes {
        return Err(CheckpointError::RegistryMismatch {
            found: found_passes,
            expected: expected_passes,
        });
    }
    if stored_config != config {
        return Err(CheckpointError::ConfigMismatch);
    }
    // Checked before the fingerprint: a composition change also moves
    // the campaign fingerprint, and the composition mismatch is the
    // error that names the cause.
    if found_composition != composition {
        return Err(CheckpointError::CompositionMismatch {
            found: found_composition,
            expected: composition.to_string(),
        });
    }
    if found_fingerprint != campaign_fingerprint {
        return Err(CheckpointError::CampaignMismatch {
            found: found_fingerprint,
            expected: campaign_fingerprint,
        });
    }
    // v4 shard-topology header: the explicit [start, end) interval.
    let topology = ShardTopology {
        index: r.u32()?,
        count: r.u32()?,
        fleet_phones: r.u32()?,
        start: r.u32()?,
        end: r.u32()?,
    };
    if topology.count == 0 || topology.index >= topology.count {
        return Err(CheckpointError::Corrupt("shard topology out of range"));
    }
    if topology.start > topology.end || topology.end > topology.fleet_phones {
        return Err(CheckpointError::Corrupt("shard interval out of range"));
    }
    let next_id = r.u32()?;
    if topology.start > next_id {
        return Err(CheckpointError::Corrupt("shard start above watermark"));
    }
    if next_id > topology.end {
        return Err(CheckpointError::Corrupt("watermark beyond shard interval"));
    }
    if next_id > topology.fleet_phones {
        return Err(CheckpointError::Corrupt("watermark beyond fleet"));
    }
    let absorbed = FoldShard {
        start: topology.start,
        end: next_id,
        names: read_names(&mut r)?,
        accs: read_accs(&mut r, registry)?,
    };
    // v2 pending-shard count: a checkpoint holds the absorbed prefix
    // only, so the count is always 0.
    if r.usize()? != 0 {
        return Err(CheckpointError::Corrupt(
            "pending-shard section is not empty",
        ));
    }
    if r.remaining() != 0 {
        return Err(CheckpointError::Corrupt("trailing bytes after shards"));
    }
    Ok(ParsedCheckpoint { topology, absorbed })
}

/// What [`load_shard_checkpoint`] learned about one merge input: the
/// shard topology its writer recorded and the phone interval
/// `[start, end)` the file actually covers (`end < topology.end`
/// means the shard was interrupted mid-run).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardInfo {
    /// Topology recorded by the writing process.
    pub topology: ShardTopology,
    /// First phone id the checkpoint covers.
    pub start: u32,
    /// One past the last phone id the checkpoint covers.
    pub end: u32,
}

impl ShardInfo {
    /// The covered interval `[start, end)`.
    pub fn covered(&self) -> (u32, u32) {
        (self.start, self.end)
    }
}

/// Decodes one shard checkpoint into a mergeable [`FoldShard`],
/// applying the full resume-grade validation chain (magic, version,
/// checksum, registry, config, campaign) but accepting any shard
/// topology — topology consistency across *all* inputs is
/// [`merge_shard_checkpoints`]'s job.
pub fn load_shard_checkpoint(
    registry: &PassRegistry,
    config: AnalysisConfig,
    campaign_fingerprint: u64,
    composition: &str,
    bytes: &[u8],
) -> Result<(ShardInfo, FoldShard), CheckpointError> {
    let parsed = parse_checkpoint(registry, config, campaign_fingerprint, composition, bytes)?;
    let info = ShardInfo {
        topology: parsed.topology,
        start: parsed.absorbed.start,
        end: parsed.absorbed.end,
    };
    Ok((info, parsed.absorbed))
}

/// Decodes a v5 checkpoint far enough to extract fault signatures
/// without re-simulating anything: the fleet [`NameTable`] plus the
/// coalesced-panic stream of the filtered (freeze +
/// threshold-self-shutdown) coalescence accumulator. The registry the
/// checkpoint was written under must include the `coalesce` pass.
/// Every returned panic's ids resolve against the returned table.
pub fn checkpoint_coalesced(
    registry: &PassRegistry,
    config: AnalysisConfig,
    campaign_fingerprint: u64,
    composition: &str,
    bytes: &[u8],
) -> Result<(NameTable, Vec<CoalescedPanic>), CheckpointError> {
    let slot = registry
        .position(CoalescePass::NAME)
        .ok_or(CheckpointError::Corrupt(
            "signature extraction needs the coalesce pass in the registry",
        ))?;
    let mut absorbed =
        parse_checkpoint(registry, config, campaign_fingerprint, composition, bytes)?.absorbed;
    let panics = into_typed::<CoalescePass>(absorbed.accs.swap_remove(slot))
        .filtered
        .panics;
    Ok((absorbed.names, panics))
}

/// Proves a set of shard checkpoints forms one exact cover of the
/// fleet: consistent `(count, fleet_phones)` topology, no duplicated
/// shard index, and covered intervals that chain from phone 0 to
/// `fleet_phones` with no overlap and no gap. Validation order:
/// topology consistency, duplicates, then the interval walk — so a
/// doubly-supplied file reports [`MergeError::DuplicateShard`], not
/// the overlap its intervals would also trigger.
pub fn validate_shard_cover(infos: &[ShardInfo]) -> Result<(), MergeError> {
    match shard_cover_gaps(infos)?.first() {
        Some(&(from, to)) => Err(MergeError::CoverageGap { from, to }),
        None => Ok(()),
    }
}

/// The partial-merge relaxation of [`validate_shard_cover`]: the same
/// topology-consistency, duplicate, and overlap checks, but coverage
/// gaps are *returned* (ascending, disjoint `[from, to)` intervals)
/// instead of refused — an incomplete cover is a legitimate
/// progress-monitoring state (some shards still running, one file
/// lost), while overlaps and mixed topologies are never legitimate.
pub fn shard_cover_gaps(infos: &[ShardInfo]) -> Result<Vec<(u32, u32)>, MergeError> {
    let first = infos.first().ok_or(MergeError::NoInputs)?;
    let expected = (first.topology.count, first.topology.fleet_phones);
    for info in infos {
        let found = (info.topology.count, info.topology.fleet_phones);
        if found != expected {
            return Err(MergeError::TopologyMismatch { found, expected });
        }
    }
    let mut indices: Vec<u32> = infos.iter().map(|i| i.topology.index).collect();
    indices.sort_unstable();
    for pair in indices.windows(2) {
        if pair[0] == pair[1] {
            return Err(MergeError::DuplicateShard { index: pair[0] });
        }
    }
    let mut sorted: Vec<&ShardInfo> = infos.iter().collect();
    sorted.sort_by_key(|i| (i.start, i.end));
    let mut prev: Option<&ShardInfo> = None;
    let mut gaps = Vec::new();
    let mut cursor = 0u32;
    for info in sorted {
        if info.start > cursor {
            gaps.push((cursor, info.start));
        } else if info.start < cursor {
            return Err(MergeError::Overlap {
                a: prev.expect("cursor > 0 implies a prior interval").covered(),
                b: info.covered(),
            });
        }
        cursor = info.end;
        prev = Some(info);
    }
    if cursor < expected.1 {
        gaps.push((cursor, expected.1));
    }
    Ok(gaps)
}

/// Merges the checkpoints written by `N` independent `--shard i/N`
/// processes into one whole-fleet [`StreamMerger`] — the
/// `repro merge-checkpoints` core. Each input is validated against
/// the merging run's registry/config/campaign
/// ([`load_shard_checkpoint`]), the set is proven to cover the fleet
/// exactly once ([`validate_shard_cover`]), and the shards are
/// reduced pairwise through [`tree_merge_shards`] — the same
/// associative merge + interner-remap machinery the in-process
/// driver uses, which is why the merged report is
/// byte-identical to a single-process run for any shard count and any
/// partition.
pub fn merge_shard_checkpoints<'r>(
    registry: &'r PassRegistry,
    config: AnalysisConfig,
    campaign_fingerprint: u64,
    composition: &str,
    inputs: &[Vec<u8>],
) -> Result<StreamMerger<'r>, MergeError> {
    let (infos, mut shards) =
        load_shard_inputs(registry, config, campaign_fingerprint, composition, inputs)?;
    validate_shard_cover(&infos)?;
    let mut merger = StreamMerger::new(registry, config);
    // Zero-width shards (a shard count above the fleet size leaves
    // some processes with an empty interval) contribute nothing.
    shards.retain(|s| !s.is_empty());
    if let Some(merged) = tree_merge_shards(registry, shards) {
        merger.push_shard(merged);
    }
    Ok(merger)
}

/// Best-effort variant of [`merge_shard_checkpoints`] for fleet-scale
/// progress monitoring (`repro merge-checkpoints --partial`): accepts
/// an *incomplete* cover and returns the merger holding every supplied
/// slice plus the list of uncovered `[from, to)` phone intervals
/// (empty when the cover is complete). Overlaps, duplicated indices,
/// mixed topologies and invalid files are refused exactly as in the
/// strict merge — only coverage gaps are downgraded from error to
/// annotation. Non-contiguous slices are buffered by the merger and
/// absorbed, still in phone-id order, at
/// [`StreamMerger::finish`], so the rendered report covers exactly the
/// supplied phones.
pub fn merge_shard_checkpoints_partial<'r>(
    registry: &'r PassRegistry,
    config: AnalysisConfig,
    campaign_fingerprint: u64,
    composition: &str,
    inputs: &[Vec<u8>],
) -> Result<(StreamMerger<'r>, Vec<(u32, u32)>), MergeError> {
    let (infos, mut shards) =
        load_shard_inputs(registry, config, campaign_fingerprint, composition, inputs)?;
    let gaps = shard_cover_gaps(&infos)?;
    let mut merger = StreamMerger::new(registry, config);
    shards.retain(|s| !s.is_empty());
    shards.sort_by_key(|s| s.start);
    for shard in shards {
        merger.push_shard(shard);
    }
    Ok((merger, gaps))
}

/// Decodes and validates every merge input, mapping the first failure
/// to its 0-based argv position.
fn load_shard_inputs(
    registry: &PassRegistry,
    config: AnalysisConfig,
    campaign_fingerprint: u64,
    composition: &str,
    inputs: &[Vec<u8>],
) -> Result<(Vec<ShardInfo>, Vec<FoldShard>), MergeError> {
    if inputs.is_empty() {
        return Err(MergeError::NoInputs);
    }
    let mut infos = Vec::with_capacity(inputs.len());
    let mut shards = Vec::with_capacity(inputs.len());
    for (input, bytes) in inputs.iter().enumerate() {
        let (info, shard) =
            load_shard_checkpoint(registry, config, campaign_fingerprint, composition, bytes)
                .map_err(|error| MergeError::Input { input, error })?;
        infos.push(info);
        shards.push(shard);
    }
    Ok((infos, shards))
}

fn write_names(w: &mut ByteWriter, names: &NameTable) {
    w.usize(names.len());
    for name in names.iter() {
        w.str(name);
    }
}

fn read_names(r: &mut ByteReader<'_>) -> Result<NameTable, CheckpointError> {
    let n = r.usize()?;
    if n > u16::MAX as usize + 1 {
        return Err(CheckpointError::Corrupt("name table too large"));
    }
    let mut names = NameTable::default();
    for i in 0..n {
        let name = r.str()?;
        if names.intern(&name).0 as usize != i {
            return Err(CheckpointError::Corrupt("duplicate interner name"));
        }
    }
    Ok(names)
}

fn write_accs(w: &mut ByteWriter, registry: &PassRegistry, accs: &[DynAcc]) {
    for (pass, acc) in registry.passes.iter().zip(accs) {
        let mut pw = ByteWriter::new();
        pass.snapshot(acc, &mut pw);
        let blob = pw.into_bytes();
        w.usize(blob.len());
        w.bytes(&blob);
    }
}

fn read_accs(
    r: &mut ByteReader<'_>,
    registry: &PassRegistry,
) -> Result<Vec<DynAcc>, CheckpointError> {
    let mut accs = Vec::with_capacity(registry.passes.len());
    for pass in &registry.passes {
        let len = r.usize()?;
        let blob = r.take(len)?;
        let mut pr = ByteReader::new(blob);
        let acc = pass.restore(&mut pr)?;
        if pr.remaining() != 0 {
            return Err(CheckpointError::Corrupt("pass blob has trailing bytes"));
        }
        accs.push(acc);
    }
    Ok(accs)
}

/// A section that merges additively: what [`Grouped`] needs of its
/// per-class tables. `Default` is the zero-phone table.
pub(super) trait Additive: Default {
    /// Merges another phone run's table into this one.
    fn absorb(&mut self, other: &Self);
}

/// An accumulator sliced by device-class label: one inner table per
/// class, merged additively. The whole-fleet total is recovered at
/// finish by absorbing the groups in label order — equal to the
/// ungrouped phone-order fold because the inner merges are
/// order-insensitive additive counters. Checkpoint form (the v5
/// "grouped blob"): group count, then `label + inner encoding` per
/// group in label order.
pub(super) struct Grouped<A> {
    pub(super) groups: BTreeMap<String, A>,
}

impl<A> Default for Grouped<A> {
    fn default() -> Self {
        Self {
            groups: BTreeMap::new(),
        }
    }
}

impl<A: Additive> Grouped<A> {
    /// A one-phone accumulator: the phone's table under its class.
    pub(super) fn single(label: &str, a: A) -> Self {
        Self {
            groups: BTreeMap::from([(label.to_string(), a)]),
        }
    }

    pub(super) fn merge(&mut self, other: Self) {
        for (label, a) in other.groups {
            self.groups.entry(label).or_default().absorb(&a);
        }
    }

    /// The whole-fleet total plus the per-class slices, in label order.
    pub(super) fn finish(self) -> (A, Vec<(String, A)>) {
        let mut total = A::default();
        for a in self.groups.values() {
            total.absorb(a);
        }
        (total, self.groups.into_iter().collect())
    }

    /// Writes the grouped blob, each group's table through `write`.
    pub(super) fn snapshot(&self, out: &mut ByteWriter, write: impl Fn(&mut ByteWriter, &A)) {
        out.usize(self.groups.len());
        for (label, a) in &self.groups {
            out.str(label);
            write(out, a);
        }
    }

    /// Reads what [`Self::snapshot`] writes, each group's table through
    /// `read`.
    pub(super) fn restore(
        src: &mut ByteReader<'_>,
        read: impl Fn(&mut ByteReader<'_>) -> Result<A, CheckpointError>,
    ) -> Result<Self, CheckpointError> {
        Ok(Self {
            groups: read_map(src, "duplicate group label", |r| Ok((r.str()?, read(r)?)))?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::dataset::FleetDataset;
    use crate::records::{LogRecord, PanicRecord};
    use symfail_sim_core::SimTime;
    use symfail_symbian::panic::codes;
    use symfail_symbian::servers::logdb::ActivityKind;
    use symfail_symbian::Panic;

    /// Topology the snapshot tests write and expect back: a solo run
    /// over a fleet comfortably larger than any id they absorb.
    const TOPO: ShardTopology = ShardTopology::solo(100);

    /// A record-less phone folded as a one-phone shard.
    fn quiet_shard(registry: &PassRegistry, config: AnalysisConfig, id: u32) -> FoldShard {
        let phone = PhoneDataset::new(id, Vec::new(), Vec::new());
        let mut shard = FoldShard::new(registry, id);
        shard.absorb_phone(
            registry,
            &PhoneLens::new(&phone, config, registry.needs_coalesce()),
        );
        shard
    }

    /// A phone with panic records (apps force interner content and a
    /// coalesced panic), so a roundtrip exercises every codec branch.
    fn busy_phone(id: u32) -> PhoneDataset {
        let rec = |secs: u64, apps: &[&str], act: Option<ActivityKind>| {
            LogRecord::Panic(PanicRecord {
                at: SimTime::from_secs(secs),
                panic: Panic::new(codes::KERN_EXEC_3, "Kern", "access violation"),
                running_apps: apps.iter().map(|s| s.to_string()).collect(),
                activity: act,
                battery: 42,
            })
        };
        let records = vec![
            rec(100, &[&format!("App{id}"), "Messages"], None),
            rec(103, &["Camera"], Some(ActivityKind::VoiceCall)),
        ];
        PhoneDataset::new(id, records, Vec::new())
    }

    /// Folds busy phones `ids` into one contiguous shard.
    fn shard_of(
        registry: &PassRegistry,
        config: AnalysisConfig,
        ids: std::ops::Range<u32>,
    ) -> FoldShard {
        let mut shard = FoldShard::new(registry, ids.start);
        for id in ids {
            let phone = busy_phone(id);
            shard.absorb_phone(
                registry,
                &PhoneLens::new(&phone, config, registry.needs_coalesce()),
            );
        }
        shard
    }

    fn rendered(report: &StudyReport) -> String {
        report.render_all() + &report.render_per_phone()
    }

    /// The reference driver's rendering of busy phones `ids`, folded
    /// over the materialized fleet.
    fn reference(
        registry: &PassRegistry,
        config: AnalysisConfig,
        ids: std::ops::Range<u32>,
    ) -> String {
        let fleet = FleetDataset::from_phones(ids.map(busy_phone).collect());
        rendered(&StudyReport::analyze_with(&fleet, config, registry))
    }

    #[test]
    fn registry_selects_and_dedupes() {
        let r = PassRegistry::all();
        assert_eq!(r.names(), PassRegistry::NAMES);
        let r = PassRegistry::select("mtbf,shutdown,mtbf").unwrap();
        assert_eq!(
            r.names(),
            vec!["shutdown", "mtbf"],
            "canonical order, deduped"
        );
        assert!(!r.needs_coalesce());
        assert!(PassRegistry::select("coalesce").unwrap().needs_coalesce());
        // Only powered-on time and the beats file's defects come from
        // `beats`.
        assert_eq!(r.reads(), LoggerFiles::LogAndBeats);
        assert_eq!(PassRegistry::all().reads(), LoggerFiles::LogAndBeats);
        for name in PassRegistry::NAMES {
            let reads = PassRegistry::select(name).unwrap().reads();
            let beats = ["mtbf", "defects", "perphone"].contains(&name);
            assert_eq!(reads == LoggerFiles::LogAndBeats, beats, "{name}");
        }
        assert!(PassRegistry::select("nope").is_err());
        assert!(PassRegistry::select("").is_err());
    }

    #[test]
    fn stream_merger_buffers_out_of_order_shards() {
        let registry = PassRegistry::select("defects").unwrap();
        let config = AnalysisConfig::default();
        let mut merger = StreamMerger::new(&registry, config);
        merger.push_shard(quiet_shard(&registry, config, 2));
        assert_eq!(merger.pending_len(), 1, "phone 2 waits for 0 and 1");
        merger.push_shard(quiet_shard(&registry, config, 0));
        assert_eq!(merger.pending_len(), 1, "phone 0 absorbed, 2 still waits");
        merger.push_shard(quiet_shard(&registry, config, 1));
        assert_eq!(merger.pending_len(), 0, "1 unblocks 2");
        let report = merger.finish();
        assert_eq!(report.defects.per_phone.len(), 3);
    }

    #[test]
    fn push_shard_each_fires_once_per_absorbed_shard() {
        let registry = PassRegistry::select("defects").unwrap();
        let config = AnalysisConfig::default();
        let mut merger = StreamMerger::new(&registry, config);
        let mut boundaries = Vec::new();
        for id in [2, 0, 1] {
            merger.push_shard_each(quiet_shard(&registry, config, id), |m| {
                boundaries.push(m.absorbed())
            });
            if id == 2 {
                assert!(boundaries.is_empty(), "phone 2 waits for 0 and 1");
            }
        }
        assert_eq!(boundaries, vec![1, 2, 3], "every boundary, exactly once");
        assert_eq!(merger.absorbed(), 3);
    }

    #[test]
    fn sharded_pushes_match_reference_in_any_arrival_order() {
        let registry = PassRegistry::all();
        let config = AnalysisConfig::default();

        // Shards arrive out of order: [3,6) buffers, [0,2) absorbs,
        // [2,3) unblocks the buffered tail.
        let mut sharded = StreamMerger::new(&registry, config);
        sharded.push_shard(shard_of(&registry, config, 3..6));
        assert_eq!(sharded.absorbed(), 0);
        assert_eq!(sharded.pending_len(), 3, "three phones buffered");
        sharded.push_shard(shard_of(&registry, config, 0..2));
        assert_eq!(sharded.absorbed(), 2);
        sharded.push_shard(shard_of(&registry, config, 2..3));
        assert_eq!(sharded.absorbed(), 6, "[2,3) unblocks [3,6)");

        let stats = sharded.merge_stats();
        assert_eq!(stats.absorbed_shards, 3);
        assert_eq!(stats.peak_pending_shards, 1);
        assert_eq!(stats.peak_pending_phones, 3);

        assert_eq!(
            rendered(&sharded.finish()),
            reference(&registry, config, 0..6),
            "sharded absorption must render byte-identically to the reference"
        );
    }

    #[test]
    fn tree_merge_matches_reference() {
        let registry = PassRegistry::all();
        let config = AnalysisConfig::default();

        let shards = vec![
            shard_of(&registry, config, 5..7),
            shard_of(&registry, config, 0..1),
            shard_of(&registry, config, 3..5),
            shard_of(&registry, config, 1..3),
        ];
        let merged = tree_merge_shards(&registry, shards).expect("non-empty input");
        assert_eq!((merged.start(), merged.end()), (0, 7));

        let mut tree = StreamMerger::new(&registry, config);
        tree.push_shard(merged);
        assert_eq!(
            rendered(&tree.finish()),
            reference(&registry, config, 0..7),
            "tree-merged shard must render byte-identically to the reference"
        );
        assert!(tree_merge_shards(&registry, Vec::new()).is_none());
    }

    #[test]
    fn snapshot_excludes_pending_shards() {
        let registry = PassRegistry::all();
        let config = AnalysisConfig::default();

        let mut merger = StreamMerger::new(&registry, config);
        merger.push_shard(shard_of(&registry, config, 0..2));
        merger.push_shard(shard_of(&registry, config, 4..6)); // buffered
        assert_eq!(merger.pending_len(), 2);
        let bytes = merger.snapshot(7, "default", TOPO);

        // The snapshot resumes with the pending shards dropped…
        let resumed = StreamMerger::resume(&registry, config, 7, "default", TOPO, &bytes).unwrap();
        assert_eq!((resumed.absorbed(), resumed.pending_len()), (2, 0));

        // …and is byte for byte the snapshot of a merger that never
        // saw them.
        let mut prefix_only = StreamMerger::new(&registry, config);
        prefix_only.push_shard(shard_of(&registry, config, 0..2));
        assert_eq!(bytes, prefix_only.snapshot(7, "default", TOPO));
    }

    /// A checkpoint whose pending-shard count is not 0 is refused as
    /// corrupt by every reader, even when its checksum is valid.
    #[test]
    fn nonzero_pending_shard_count_is_refused_as_corrupt() {
        let registry = PassRegistry::all();
        let config = AnalysisConfig::default();
        let mut merger = StreamMerger::new(&registry, config);
        merger.push_shard(shard_of(&registry, config, 0..2));
        let mut bytes = merger.snapshot(7, "default", TOPO);
        // The count is the last u64 before the checksum; re-seal the
        // file so only the count is wrong.
        let count_at = bytes.len() - 16;
        bytes.truncate(bytes.len() - 8);
        bytes[count_at..].copy_from_slice(&1u64.to_le_bytes());
        let checksum = checkpoint::fnv1a64(&bytes);
        bytes.extend_from_slice(&checksum.to_le_bytes());

        let corrupt = CheckpointError::Corrupt("pending-shard section is not empty");
        assert_eq!(
            StreamMerger::resume(&registry, config, 7, "default", TOPO, &bytes).err(),
            Some(corrupt.clone())
        );
        assert_eq!(
            merge_shard_checkpoints(&registry, config, 7, "default", &[bytes.clone()]).err(),
            Some(MergeError::Input {
                input: 0,
                error: corrupt.clone(),
            })
        );
        assert_eq!(
            checkpoint_coalesced(&registry, config, 7, "default", &bytes).err(),
            Some(corrupt)
        );
    }

    /// A re-sealed checkpoint whose `panics` blob repeats a label is
    /// refused as corrupt, not summed into a distribution whose
    /// re-encoding differs from the file; the same surgery without
    /// the repeat resumes.
    #[test]
    fn repeated_panic_label_is_refused_as_corrupt() {
        let registry = PassRegistry::select("panics").unwrap();
        let config = AnalysisConfig::default();
        let bytes = StreamMerger::new(&registry, config).snapshot(7, "default", TOPO);
        let reseal = |labels: &[&str]| {
            // The last 32 bytes are the empty `panics` blob (its length
            // and its zero entry count), the pending-shard count and
            // the checksum.
            let mut blob = ByteWriter::new();
            blob.usize(labels.len());
            for label in labels {
                blob.str(label);
                blob.u64(u64::MAX);
            }
            let blob = blob.into_bytes();
            let mut out = bytes[..bytes.len() - 32].to_vec();
            out.extend_from_slice(&(blob.len() as u64).to_le_bytes());
            out.extend_from_slice(&blob);
            out.extend_from_slice(&0u64.to_le_bytes());
            let checksum = checkpoint::fnv1a64(&out);
            out.extend_from_slice(&checksum.to_le_bytes());
            out
        };
        let distinct = reseal(&["KERN-EXEC 3", "USER 11"]);
        let resumed = StreamMerger::resume(&registry, config, 7, "default", TOPO, &distinct);
        assert_eq!(
            resumed
                .unwrap()
                .finish()
                .panic_distribution
                .count("USER 11"),
            u64::MAX
        );
        let repeated = reseal(&["KERN-EXEC 3", "USER 11", "KERN-EXEC 3"]);
        assert_eq!(
            StreamMerger::resume(&registry, config, 7, "default", TOPO, &repeated).err(),
            Some(CheckpointError::Corrupt("duplicate distribution label"))
        );
    }

    #[test]
    fn snapshot_resume_roundtrips_and_stale_pushes_are_dropped() {
        let registry = PassRegistry::all();
        let config = AnalysisConfig::default();
        let mut merger = StreamMerger::new(&registry, config);
        merger.push_shard(shard_of(&registry, config, 0..1));
        merger.push_shard(shard_of(&registry, config, 1..2));
        let bytes = merger.snapshot(7, "default", TOPO);
        let mut resumed =
            StreamMerger::resume(&registry, config, 7, "default", TOPO, &bytes).unwrap();
        assert_eq!(resumed.absorbed(), 2);
        assert_eq!(resumed.names(), merger.names());
        assert_eq!(resumed.mtbf_estimate(), merger.mtbf_estimate());
        // Replaying an already-absorbed phone must be a no-op, not a
        // double count.
        resumed.push_shard(shard_of(&registry, config, 1..2));
        assert_eq!(resumed.absorbed(), 2);
        assert_eq!(resumed.pending_len(), 0);
        merger.push_shard(shard_of(&registry, config, 2..3));
        resumed.push_shard(shard_of(&registry, config, 2..3));
        assert_eq!(
            rendered(&merger.finish()),
            rendered(&resumed.finish()),
            "resumed merger must render byte-identically"
        );
    }

    #[test]
    fn resume_rejects_bad_magic_version_truncation_and_bitflips() {
        let registry = PassRegistry::all();
        let config = AnalysisConfig::default();
        let mut merger = StreamMerger::new(&registry, config);
        merger.push_shard(shard_of(&registry, config, 0..1));
        let bytes = merger.snapshot(1, "default", TOPO);

        let mut bad = bytes.clone();
        bad[0] ^= 0xff;
        assert_eq!(
            StreamMerger::resume(&registry, config, 1, "default", TOPO, &bad).err(),
            Some(CheckpointError::BadMagic)
        );

        let mut bad = bytes.clone();
        bad[8] = 99; // schema version little-endian low byte
        assert_eq!(
            StreamMerger::resume(&registry, config, 1, "default", TOPO, &bad).err(),
            Some(CheckpointError::SchemaVersion {
                found: 99,
                expected: CHECKPOINT_SCHEMA_VERSION,
            })
        );

        assert_eq!(
            StreamMerger::resume(&registry, config, 1, "default", TOPO, &bytes[..10]).err(),
            Some(CheckpointError::Truncated)
        );

        let mut bad = bytes.clone();
        let mid = bad.len() / 2;
        bad[mid] ^= 0x10;
        assert_eq!(
            StreamMerger::resume(&registry, config, 1, "default", TOPO, &bad).err(),
            Some(CheckpointError::Checksum),
            "any payload bit flip must fail the checksum"
        );
    }

    /// Schema v4 files (no composition header, ungrouped activity and
    /// runapps blobs, no firmware pass) are refused with the typed
    /// version error — on resume and on merge — never mis-decoded or
    /// panicked on.
    #[test]
    fn v4_checkpoints_are_refused_with_a_typed_version_error() {
        let registry = PassRegistry::all();
        let config = AnalysisConfig::default();
        let mut merger = StreamMerger::new(&registry, config);
        merger.push_shard(shard_of(&registry, config, 0..1));
        let mut bytes = merger.snapshot(1, "default", TOPO);
        bytes[8] = 4; // little-endian version word: v5 -> v4
        let want = CheckpointError::SchemaVersion {
            found: 4,
            expected: CHECKPOINT_SCHEMA_VERSION,
        };
        assert_eq!(
            StreamMerger::resume(&registry, config, 1, "default", TOPO, &bytes).err(),
            Some(want.clone())
        );
        assert_eq!(
            merge_shard_checkpoints(&registry, config, 1, "default", &[bytes]).err(),
            Some(MergeError::Input {
                input: 0,
                error: want,
            })
        );
    }

    #[test]
    fn merge_rejects_composition_mismatch_with_argv_position() {
        let registry = PassRegistry::all();
        let config = AnalysisConfig::default();
        let input = shard_snapshot(&registry, config, 9, 0..2, 0, 1, 2);
        assert_eq!(
            merge_shard_checkpoints(&registry, config, 9, "communicator:1", &[input]).err(),
            Some(MergeError::Input {
                input: 0,
                error: CheckpointError::CompositionMismatch {
                    found: "default".to_string(),
                    expected: "communicator:1".to_string(),
                },
            })
        );
    }

    #[test]
    fn resume_rejects_registry_config_and_campaign_mismatch() {
        let registry = PassRegistry::all();
        let config = AnalysisConfig::default();
        let mut merger = StreamMerger::new(&registry, config);
        merger.push_shard(shard_of(&registry, config, 0..1));
        let bytes = merger.snapshot(1, "default", TOPO);

        let subset = PassRegistry::select("mtbf").unwrap();
        assert!(matches!(
            StreamMerger::resume(&subset, config, 1, "default", TOPO, &bytes),
            Err(CheckpointError::RegistryMismatch { .. })
        ));

        let other_config = AnalysisConfig {
            coalescence_window: config.coalescence_window + SimDuration::from_secs(1),
            ..config
        };
        assert_eq!(
            StreamMerger::resume(&registry, other_config, 1, "default", TOPO, &bytes).err(),
            Some(CheckpointError::ConfigMismatch)
        );

        // A different fleet composition is named as such — checked
        // before the fingerprint, which a composition change also
        // moves.
        assert_eq!(
            StreamMerger::resume(&registry, config, 2, "communicator:1", TOPO, &bytes).err(),
            Some(CheckpointError::CompositionMismatch {
                found: "default".to_string(),
                expected: "communicator:1".to_string(),
            })
        );

        assert_eq!(
            StreamMerger::resume(&registry, config, 2, "default", TOPO, &bytes).err(),
            Some(CheckpointError::CampaignMismatch {
                found: 1,
                expected: 2,
            })
        );
    }

    #[test]
    fn resume_rejects_shard_topology_mismatch() {
        let registry = PassRegistry::all();
        let config = AnalysisConfig::default();
        let mut merger = StreamMerger::new(&registry, config);
        merger.push_shard(shard_of(&registry, config, 0..1));
        let bytes = merger.snapshot(1, "default", TOPO);

        // Same fleet, different split: resuming a solo checkpoint in a
        // `--shard 0/2` process must be refused.
        let other = ShardTopology::uniform(0, 2, TOPO.fleet_phones);
        assert_eq!(
            StreamMerger::resume(&registry, config, 1, "default", other, &bytes).err(),
            Some(CheckpointError::ShardMismatch {
                found: TOPO,
                expected: other,
            })
        );
    }

    #[test]
    fn shard_scoped_merger_starts_at_origin_and_drops_below_origin_pushes() {
        let registry = PassRegistry::select("defects").unwrap();
        let config = AnalysisConfig::default();
        let mut merger = StreamMerger::new_at(&registry, config, 3);
        assert_eq!((merger.origin(), merger.absorbed()), (3, 3));
        merger.push_shard(quiet_shard(&registry, config, 1)); // below origin: stale
        assert_eq!((merger.absorbed(), merger.pending_len()), (3, 0));
        merger.push_shard(quiet_shard(&registry, config, 3));
        merger.push_shard(quiet_shard(&registry, config, 4));
        assert_eq!(merger.absorbed(), 5);
        let report = merger.finish();
        assert_eq!(report.defects.per_phone.len(), 2, "phones 3 and 4 only");
    }

    /// Snapshots `ids` as the shard `index` of `count` over a
    /// `fleet`-phone campaign, via a shard-scoped merger.
    fn shard_snapshot(
        registry: &PassRegistry,
        config: AnalysisConfig,
        fingerprint: u64,
        ids: std::ops::Range<u32>,
        index: u32,
        count: u32,
        fleet: u32,
    ) -> Vec<u8> {
        let mut merger = StreamMerger::new_at(registry, config, ids.start);
        let topology = ShardTopology {
            index,
            count,
            fleet_phones: fleet,
            start: ids.start,
            end: ids.end,
        };
        merger.push_shard(shard_of(registry, config, ids));
        merger.snapshot(fingerprint, "default", topology)
    }

    #[test]
    fn merge_shard_checkpoints_matches_reference_for_uneven_partitions() {
        let registry = PassRegistry::all();
        let config = AnalysisConfig::default();
        let fleet = 7u32;
        let expected = reference(&registry, config, 0..fleet);

        // An uneven hand-built partition (not the formula intervals),
        // supplied out of order.
        let inputs = vec![
            shard_snapshot(&registry, config, 9, 5..7, 2, 3, fleet),
            shard_snapshot(&registry, config, 9, 0..1, 0, 3, fleet),
            shard_snapshot(&registry, config, 9, 1..5, 1, 3, fleet),
        ];
        let merger = merge_shard_checkpoints(&registry, config, 9, "default", &inputs).unwrap();
        assert_eq!(merger.absorbed(), fleet);
        assert_eq!(rendered(&merger.finish()), expected);
    }

    #[test]
    fn merge_rejects_gap_overlap_duplicate_and_bad_inputs() {
        let registry = PassRegistry::all();
        let config = AnalysisConfig::default();
        let fleet = 6u32;
        let snap = |ids: std::ops::Range<u32>, index: u32| {
            shard_snapshot(&registry, config, 9, ids, index, 3, fleet)
        };

        assert_eq!(
            merge_shard_checkpoints(&registry, config, 9, "default", &[]).err(),
            Some(MergeError::NoInputs)
        );

        // Missing middle shard: the walk stops at the first gap.
        assert_eq!(
            merge_shard_checkpoints(
                &registry,
                config,
                9,
                "default",
                &[snap(0..2, 0), snap(4..6, 2)]
            )
            .err(),
            Some(MergeError::CoverageGap { from: 2, to: 4 })
        );

        // Missing tail shard.
        assert_eq!(
            merge_shard_checkpoints(
                &registry,
                config,
                9,
                "default",
                &[snap(0..2, 0), snap(2..4, 1)]
            )
            .err(),
            Some(MergeError::CoverageGap { from: 4, to: 6 })
        );

        // Overlapping covered intervals (distinct indices, so the
        // interval walk — not the duplicate check — catches it).
        assert_eq!(
            merge_shard_checkpoints(
                &registry,
                config,
                9,
                "default",
                &[snap(0..3, 0), snap(2..6, 1), snap(5..6, 2)],
            )
            .err(),
            Some(MergeError::Overlap {
                a: (0, 3),
                b: (2, 6)
            })
        );

        // The same shard file twice.
        assert_eq!(
            merge_shard_checkpoints(
                &registry,
                config,
                9,
                "default",
                &[snap(0..2, 0), snap(0..2, 0), snap(2..6, 1)],
            )
            .err(),
            Some(MergeError::DuplicateShard { index: 0 })
        );

        // Inputs from different splits of the same fleet.
        let other_split = shard_snapshot(&registry, config, 9, 2..6, 1, 2, fleet);
        assert_eq!(
            merge_shard_checkpoints(
                &registry,
                config,
                9,
                "default",
                &[snap(0..2, 0), other_split]
            )
            .err(),
            Some(MergeError::TopologyMismatch {
                found: (2, fleet),
                expected: (3, fleet),
            })
        );

        // A wrong-campaign input is reported with its argv position.
        assert_eq!(
            merge_shard_checkpoints(
                &registry,
                config,
                1,
                "default",
                &[
                    shard_snapshot(&registry, config, 1, 0..2, 0, 3, fleet),
                    snap(2..6, 1),
                ],
            )
            .err(),
            Some(MergeError::Input {
                input: 1,
                error: CheckpointError::CampaignMismatch {
                    found: 9,
                    expected: 1,
                },
            })
        );
    }
}
