//! Parsing harvested flash files into analyzable datasets.
//!
//! Parsing is the only pass that touches raw flash bytes. Everything
//! the downstream analyses need — panics, boots, shutdown events,
//! freezes, beat-gap spans — is extracted **once**, here, into a
//! per-phone sorted event index. Every analysis pass folds one phone
//! at a time through a [`PhoneLens`](super::passes::PhoneLens) that
//! borrows slices out of that index instead of re-scanning and
//! re-allocating event vectors, which is what lets the same code scale
//! from the paper's 25 phones to fleets of thousands. No fleet-wide
//! dataset exists: the campaign driver folds each parsed phone and
//! drops it before the next.

use std::borrow::Cow;
use std::collections::HashSet;

use serde::{Deserialize, Serialize};

use symfail_sim_core::{SimDuration, SimTime};

use symfail_symbian::servers::logdb::ActivityKind;
use symfail_symbian::PanicCode;

use crate::analysis::defects::PhoneDefects;
use crate::flashfs::FlashFs;
use crate::intern::{NameId, NameIds, NameTable};
use crate::logger::files;
use crate::records::{
    add_digits, decode_beat, spread_digits, BootRecord, HeartbeatEvent, LogRecord, PanicRecord,
    PanicRef, ParseDefect, RecordRef, ALIVE_TAIL, LOW_SPAN,
};

/// A panic with its context as stored in the dataset: the hot-path
/// representation of a [`PanicRecord`] with every string field
/// interned into the dataset's [`NameTable`]. Intern ids keep the
/// event small and comparison/grouping cheap; the running-app list is
/// a [`NameIds`] (inline up to 10 entries, no heap allocation for
/// essentially every real record). Names resolve through the
/// [`NameTable`] the ids were interned into.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PanicEvent {
    /// When the panic was notified.
    pub at: SimTime,
    /// The panic code.
    pub code: PanicCode,
    /// Interned name of the raising component.
    pub raised_by: NameId,
    /// Interned reason text.
    pub reason: NameId,
    /// Interned running-application names at panic time.
    pub apps: NameIds,
    /// Phone activity at panic time, if any.
    pub activity: Option<ActivityKind>,
    /// Battery level at panic time.
    pub battery: u8,
}

impl PanicEvent {
    /// Interns a borrowed zero-copy record — the parse hot path.
    pub fn from_ref(r: &PanicRef<'_>, names: &mut NameTable) -> Self {
        Self {
            at: r.at,
            code: r.code,
            raised_by: names.intern(r.raised_by),
            reason: names.intern(r.reason),
            apps: r.apps().map(|a| names.intern(a)).collect(),
            activity: r.activity,
            battery: r.battery,
        }
    }

    /// Interns an owned record (hand-built datasets, tests).
    pub fn from_record(rec: &PanicRecord, names: &mut NameTable) -> Self {
        Self {
            at: rec.at,
            code: rec.panic.code,
            raised_by: names.intern(&rec.panic.raised_by),
            reason: names.intern(&rec.panic.reason),
            apps: rec.running_apps.iter().map(|a| names.intern(a)).collect(),
            activity: rec.activity,
            battery: rec.battery,
        }
    }

    /// Rewrites every intern id through `remap` (as produced by
    /// [`NameTable::absorb`]) when the event moves to a merged table.
    pub fn remap(&mut self, remap: &[u16]) {
        self.raised_by = NameId(remap[self.raised_by.0 as usize]);
        self.reason = NameId(remap[self.reason.0 as usize]);
        self.apps.remap(remap);
    }
}

/// A high-level failure event — the user-visible failures the logger
/// can detect automatically (Section 5: freezes and self-shutdowns).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct HlEvent {
    /// Phone the event occurred on.
    pub phone_id: u32,
    /// Best estimate of when the failure occurred: for a freeze, the
    /// last ALIVE beat; for a self-shutdown, the moment the REBOOT
    /// event was written.
    pub at: SimTime,
    /// Which failure it was.
    pub kind: HlKind,
}

/// The kind of a high-level event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum HlKind {
    /// The device locked up and was recovered by a battery pull.
    Freeze,
    /// The device shut itself down.
    SelfShutdown,
}

impl HlKind {
    /// Table/figure label.
    pub fn as_str(self) -> &'static str {
        match self {
            HlKind::Freeze => "freeze",
            HlKind::SelfShutdown => "self-shutdown",
        }
    }
}

/// A shutdown event with its measured off-duration (one bar's worth of
/// Figure 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShutdownEvent {
    /// Phone the shutdown occurred on.
    pub phone_id: u32,
    /// When the phone went down (the final heartbeat event).
    pub off_at: SimTime,
    /// When it came back up.
    pub on_at: SimTime,
    /// The reboot duration.
    pub duration: SimDuration,
}

/// Everything harvested from one phone, pre-indexed for analysis.
///
/// Log records are split into their panic and boot streams at
/// construction, and shutdown events and freezes are derived eagerly.
/// All accessors but [`Self::beats`] and [`Self::powered_on_time`]
/// return borrowed slices; nothing else is re-derived per call.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct PhoneDataset {
    phone_id: u32,
    panics: Vec<PanicEvent>,
    /// Intern table the panic events' ids resolve against, built
    /// per-phone during the parse. A fold absorbs it into the fleet
    /// table and remaps the ids it keeps.
    names: NameTable,
    boots: Vec<BootRecord>,
    /// The heartbeat stream, in time order, as runs.
    beats: Vec<BeatRun>,
    // Derived index, built once in `index()`:
    shutdowns: Vec<ShutdownEvent>,
    freezes: Vec<HlEvent>,
    /// Defect accounting from the lossy parse (empty for hand-built
    /// datasets).
    defects: PhoneDefects,
}

/// Reusable parse buffers: a streaming worker hands the same scratch
/// to every [`PhoneDataset::from_flashfs_with`] call and gets the
/// allocations back through [`PhoneDataset::recycle`], so per-phone
/// vector growth is paid once per worker instead of once per phone.
#[derive(Default)]
pub struct ParseScratch {
    panics: Vec<PanicEvent>,
    boots: Vec<BootRecord>,
    beats: Vec<BeatRun>,
    shutdowns: Vec<ShutdownEvent>,
    freezes: Vec<HlEvent>,
}

impl PhoneDataset {
    /// Builds a dataset (and its event index) from decoded records.
    pub fn new(
        phone_id: u32,
        records: Vec<LogRecord>,
        mut beats: Vec<(SimTime, HeartbeatEvent)>,
    ) -> Self {
        let mut names = NameTable::default();
        let mut panics = Vec::new();
        let mut boots = Vec::new();
        for rec in records {
            match rec {
                LogRecord::Panic(p) => panics.push(PanicEvent::from_record(&p, &mut names)),
                LogRecord::Boot(b) => boots.push(b),
            }
        }
        // Stable, so same-instant beats keep their given order.
        beats.sort_by_key(|&(at, _)| at);
        let mut runs = Vec::new();
        for (at, event) in beats {
            push_beat(&mut runs, at.as_millis(), event);
        }
        let mut ds = Self {
            phone_id,
            panics,
            names,
            boots,
            beats: runs,
            ..Self::default()
        };
        ds.index();
        ds
    }

    /// Parses the `log` and `beats` files harvested from one phone
    /// ([`Self::from_files`]) into recycled buffers: event and index
    /// vectors come from `scratch` (cleared, capacity kept) instead of
    /// fresh allocations. Pair with [`Self::recycle`] once the phone
    /// has been folded.
    pub fn from_flashfs_with(phone_id: u32, fs: &FlashFs, scratch: &mut ParseScratch) -> Self {
        let file = |name| fs.read_bytes(name).unwrap_or_default();
        Self::from_files(phone_id, file(files::LOG), file(files::BEATS), scratch)
    }

    /// Parses only the consolidated log, given as its bytes (a
    /// harvest's `log` file, or any prefix of it): [`Self::from_files`]
    /// with no beats, so [`Self::beats`] is empty,
    /// [`Self::powered_on_time`] is zero and [`Self::defects`] counts
    /// the log's lines alone — all a fault signature reads.
    pub fn from_log(phone_id: u32, log: &[u8]) -> Self {
        Self::from_files(phone_id, log, &[], &mut ParseScratch::default())
    }

    /// The one parse body: a phone's `log` and `beats` files as bytes
    /// (empty for a file its reader does not read, as the campaign
    /// driver passes them), into `scratch`'s buffers.
    ///
    /// The parse is lossy-tolerant, as the field study's had to be:
    /// invalid UTF-8 is flagged instead of panicking (the log is decoded
    /// lossily, a beats line holding it is rejected), every
    /// malformed line is skipped and classified into the
    /// [`ParseDefect`] taxonomy, exact duplicate beats are dropped,
    /// and out-of-order records are kept but flagged (the index holds
    /// them in time order). The resulting [`PhoneDefects`] ride along
    /// on the dataset; a phone whose flash has content but yields no
    /// record at all is flagged unusable rather than aborting the
    /// fleet build.
    pub fn from_files(
        phone_id: u32,
        log: &[u8],
        raw_beats: &[u8],
        scratch: &mut ParseScratch,
    ) -> Self {
        let mut defects = PhoneDefects::default();
        let mut names = NameTable::default();
        let mut panics = std::mem::take(&mut scratch.panics);
        let mut boots = std::mem::take(&mut scratch.boots);
        read_log(log, &mut names, &mut panics, &mut boots, &mut defects);
        let beats = read_beats(raw_beats, std::mem::take(&mut scratch.beats), &mut defects);
        defects.unusable = defects.lines_seen > 0 && defects.records_kept == 0;
        let mut ds = Self {
            phone_id,
            panics,
            names,
            boots,
            beats,
            shutdowns: std::mem::take(&mut scratch.shutdowns),
            freezes: std::mem::take(&mut scratch.freezes),
            defects,
        };
        ds.index();
        ds
    }

    /// Returns the dataset's buffers to `scratch` (cleared, capacity
    /// kept) for the next phone's parse. Only the larger of each pair
    /// survives, so scratch capacity converges on the biggest phone.
    pub fn recycle(self, scratch: &mut ParseScratch) {
        fn put<T>(slot: &mut Vec<T>, mut v: Vec<T>) {
            v.clear();
            if v.capacity() > slot.capacity() {
                *slot = v;
            }
        }
        put(&mut scratch.panics, self.panics);
        put(&mut scratch.boots, self.boots);
        put(&mut scratch.beats, self.beats);
        put(&mut scratch.shutdowns, self.shutdowns);
        put(&mut scratch.freezes, self.freezes);
    }

    /// Derives the event index from the primary streams. The beats are
    /// in time order already: the parse and [`Self::new`] build their
    /// runs in order.
    fn index(&mut self) {
        // Normalize to time order (stable, so same-instant records
        // keep file order). Harvested logs are chronological unless
        // flash corruption reordered them; hand-built datasets may not
        // be either, and the analyses' binary searches rely on sorted
        // streams.
        self.panics.sort_by_key(|p| p.at);
        self.boots.sort_by_key(|b| b.boot_at);
        // Shutdown events whose duration is measurable (the previous
        // session ended with a clean `REBOOT`). `LOWBT` and `MAOFF`
        // shutdowns are excluded: their cause is already known, so
        // they are neither self-shutdown candidates nor user-reboot
        // noise.
        // The derived vectors fill recycled buffers in place (clear +
        // extend, never a fresh collect) so a `ParseScratch`-fed parse
        // keeps its capacity across phones.
        self.shutdowns.clear();
        self.shutdowns.extend(
            self.boots
                .iter()
                .filter(|b| b.last_event == HeartbeatEvent::Reboot)
                .filter_map(|b| {
                    b.off_duration.map(|d| ShutdownEvent {
                        phone_id: self.phone_id,
                        off_at: b.last_event_at,
                        on_at: b.boot_at,
                        duration: d,
                    })
                }),
        );
        // Freeze events inferred by the boot-time heartbeat check.
        self.freezes.clear();
        self.freezes.extend(
            self.boots
                .iter()
                .filter(|b| b.freeze_detected)
                .map(|b| HlEvent {
                    phone_id: self.phone_id,
                    at: b.last_event_at,
                    kind: HlKind::Freeze,
                }),
        );
    }

    /// Identifier of the phone within the fleet.
    pub fn phone_id(&self) -> u32 {
        self.phone_id
    }

    /// All panic events, in time order.
    pub fn panics(&self) -> &[PanicEvent] {
        &self.panics
    }

    /// The intern table the panic events' name ids resolve against.
    pub fn names(&self) -> &NameTable {
        &self.names
    }

    /// All boot records, in time order.
    pub fn boots(&self) -> &[BootRecord] {
        &self.boots
    }

    /// The heartbeat stream, in time order, beat by beat: at equal
    /// timestamps, in file order.
    pub fn beats(&self) -> impl Iterator<Item = (SimTime, HeartbeatEvent)> + '_ {
        self.beats.iter().flat_map(|run| {
            (0..run.count).map(move |i| (SimTime::from_millis(run.first + i * run.step), run.event))
        })
    }

    /// Measurable shutdown events (see [`Self::new`] for the
    /// exclusion rules), in time order.
    pub fn shutdown_events(&self) -> &[ShutdownEvent] {
        &self.shutdowns
    }

    /// Freeze events inferred by the boot-time heartbeat check, in
    /// time order.
    pub fn freezes(&self) -> &[HlEvent] {
        &self.freezes
    }

    /// Total powered-on time, estimated from the heartbeat stream:
    /// the sum of gaps between consecutive beats no longer than
    /// `max_gap` (larger gaps mean the phone was off or frozen). One
    /// pass over the runs per call: a run's gaps are its step, and
    /// each run's first beat follows the previous run's last. The
    /// analysis asks one threshold per phone, once
    /// ([`PhoneLens`](super::passes::PhoneLens)).
    pub fn powered_on_time(&self, max_gap: SimDuration) -> SimDuration {
        let max_gap = max_gap.as_millis();
        let within: u64 = self
            .beats
            .iter()
            .filter(|run| run.step <= max_gap)
            .map(|run| run.last() - run.first)
            .sum();
        let between: u64 = self
            .beats
            .windows(2)
            .map(|pair| pair[1].first.saturating_sub(pair[0].last()))
            .filter(|&gap| gap <= max_gap)
            .sum();
        SimDuration::from_millis(within + between)
    }

    /// Defect accounting from the lossy parse. Empty (clean) for
    /// datasets built via [`Self::new`] from already-decoded records.
    pub fn defects(&self) -> &PhoneDefects {
        &self.defects
    }
}

/// Decodes the consolidated log into `panics` and `boots`: every
/// checksum-verified record, through the zero-copy [`RecordRef`] path
/// and interned straight into the event index — no owned `LogRecord`
/// exists on this path. Out-of-order records (timestamp below the
/// running maximum) are kept but counted; the max does not advance
/// past them, so one displaced block counts each displaced line
/// exactly once.
fn read_log(
    log: &[u8],
    names: &mut NameTable,
    panics: &mut Vec<PanicEvent>,
    boots: &mut Vec<BootRecord>,
    defects: &mut PhoneDefects,
) {
    let text = log_text(log);
    defects.invalid_utf8 |= matches!(text, Cow::Owned(_));
    let mut last_ms: Option<u64> = None;
    for line in text.lines() {
        defects.lines_seen += 1;
        match RecordRef::decode(line) {
            Ok(rec) => {
                let ms = rec.at().as_millis();
                if last_ms.is_some_and(|max| ms < max) {
                    defects.record(ParseDefect::OutOfOrder);
                } else {
                    last_ms = Some(ms);
                }
                defects.records_kept += 1;
                match rec {
                    RecordRef::Panic(p) => panics.push(PanicEvent::from_ref(&p, names)),
                    RecordRef::Boot(b) => boots.push(b),
                }
            }
            Err(e) => defects.record(e.defect),
        }
    }
}

/// The consolidated log's text as every reader of it sees it: the
/// bytes themselves when they are valid UTF-8, else their lossy decode
/// (owned), in which garbled bytes degrade to replacement characters,
/// and so to checksum mismatches, instead of a panic. Every reader
/// splits it with `str::lines`.
pub(crate) fn log_text(log: &[u8]) -> Cow<'_, str> {
    match std::str::from_utf8(log) {
        Ok(text) => Cow::Borrowed(text),
        Err(_) => String::from_utf8_lossy(log),
    }
}

/// `count` beats of one `event`, `step` ms apart from `first` on: how
/// a dataset holds its heartbeat stream. Between two actions the
/// logger writes an `ALIVE` line every period, so a phone's tens of
/// thousands of beats make a few hundred runs. A run of two or more
/// beats has a positive step; a run of one has any step.
#[derive(Debug, Clone, Copy)]
struct BeatRun {
    first: u64,
    step: u64,
    count: u64,
    event: HeartbeatEvent,
}

impl BeatRun {
    fn single(at: u64, event: HeartbeatEvent) -> Self {
        Self {
            first: at,
            step: 0,
            count: 1,
            event,
        }
    }

    fn last(&self) -> u64 {
        self.first + (self.count - 1) * self.step
    }
}

/// Appends a beat at or after the last one in `runs`: it extends the
/// last run when it has the run's event and lands one step past its
/// end (any later time makes a one-beat run's step), and starts a run
/// otherwise.
fn push_beat(runs: &mut Vec<BeatRun>, at: u64, event: HeartbeatEvent) {
    let extends = |run: &&mut BeatRun| {
        run.event == event && at > run.last() && (run.count == 1 || at - run.last() == run.step)
    };
    match runs.last_mut().filter(extends) {
        Some(run) => {
            run.step = at - run.last();
            run.count += 1;
        }
        None => runs.push(BeatRun::single(at, event)),
    }
}

/// Whether the time-ordered `runs` hold a beat of `event` at `at`:
/// bisection to the first run that ends at or after `at`, then the few
/// runs from there that start at or before it. Each run starts where
/// the one before it ends or later, so `at` lies in every such run's
/// span, and it is a beat of the run when it is a whole number of
/// steps from its first.
fn runs_hold(runs: &[BeatRun], at: u64, event: HeartbeatEvent) -> bool {
    let from = runs.partition_point(|run| run.last() < at);
    runs[from..]
        .iter()
        .take_while(|run| run.first <= at)
        .any(|run| run.event == event && (at - run.first).is_multiple_of(run.step))
}

/// The time-ordered `runs` with the time-ordered `strays` in their
/// places: each stray after every run beat at or before its time, and
/// after the strays before it. A stray inside a run's span splits the
/// run; no run is expanded.
fn merge_strays(runs: &[BeatRun], strays: &[(u64, HeartbeatEvent)]) -> Vec<BeatRun> {
    let mut merged = Vec::with_capacity(runs.len() + 2 * strays.len());
    let mut strays = strays.iter().copied().peekable();
    for &run in runs {
        let mut run = run;
        while let Some(&(at, event)) = strays.peek() {
            if at >= run.last() {
                break;
            }
            if at >= run.first {
                // The beats up to `at` stay ahead of the stray.
                let head = (at - run.first) / run.step + 1;
                merged.push(BeatRun { count: head, ..run });
                run.first += head * run.step;
                run.count -= head;
            }
            merged.push(BeatRun::single(at, event));
            strays.next();
        }
        merged.push(run);
    }
    merged.extend(strays.map(|(at, event)| BeatRun::single(at, event)));
    merged
}

/// Reads the `beats` file into `runs` (empty, a recycled buffer), in
/// time order, counting its lines into `defects`.
///
/// Each line is first compared with the line the last run predicts
/// ([`NextAlive`]); on a match, the run grows by one beat. Any other
/// line — a run's first two, and every damaged, duplicated, displaced,
/// `\r\n` or zero-padded one — is cut at its `\n`, loses a `\r` before
/// that `\n` (as `str::lines` does) and goes to [`decode_beat`].
///
/// An exact `(timestamp, event)` repeat of a kept beat is a duplicate
/// and dropped — checked before the order check, so a duplicated block
/// is counted as duplication, not also as reordering. A beat past the
/// last run's end cannot repeat anything kept, so it is kept at once:
/// that is every beat of a clean harvest. The beats kept at or past
/// that end form the runs, which [`runs_hold`] searches; the few kept
/// below it (out of order) are strays, held aside in file order and
/// put in their places by [`merge_strays`] at the end. A run beat that
/// ties a stray's timestamp always came first in the file, so that
/// order is the file's at equal timestamps.
fn read_beats(raw: &[u8], mut runs: Vec<BeatRun>, defects: &mut PhoneDefects) -> Vec<BeatRun> {
    let mut strays: Vec<(u64, HeartbeatEvent)> = Vec::new();
    let mut stray_set: HashSet<(u64, HeartbeatEvent)> = HashSet::new();
    let mut next: Option<NextAlive> = None;
    let mut pos = 0;
    while pos < raw.len() {
        if let (Some(alive), Some(run)) = (next.as_mut(), runs.last_mut()) {
            let (grown, live) = alive.follow(raw, &mut pos);
            run.count += grown;
            defects.lines_seen += grown;
            defects.records_kept += grown;
            if !live {
                next = None;
            }
            if pos == raw.len() {
                break;
            }
        }
        defects.lines_seen += 1;
        let rest = &raw[pos..];
        let (line, used) = match rest.iter().position(|&b| b == b'\n') {
            Some(end) => {
                let line = &rest[..end];
                (line.strip_suffix(b"\r").unwrap_or(line), end + 1)
            }
            None => (rest, rest.len()),
        };
        pos += used;
        let (at, event) = match decode_beat(line) {
            Ok((at, event)) => (at.as_millis(), event),
            Err(defect) => {
                defects.record(defect);
                // A decoded beat is ASCII, so only a rejected line can
                // hold the invalid UTF-8 of a garbled file.
                defects.invalid_utf8 |= std::str::from_utf8(line).is_err();
                continue;
            }
        };
        if let Some(end) = runs.last().map(BeatRun::last).filter(|&end| at <= end) {
            if runs_hold(&runs, at, event) || stray_set.contains(&(at, event)) {
                defects.record(ParseDefect::Duplicate);
                continue;
            }
            if at < end {
                defects.records_kept += 1;
                defects.record(ParseDefect::OutOfOrder);
                stray_set.insert((at, event));
                strays.push((at, event));
                continue;
            }
        }
        defects.records_kept += 1;
        push_beat(&mut runs, at, event);
        next = runs
            .last()
            .filter(|run| run.event == HeartbeatEvent::Alive && run.count > 1)
            .and_then(|run| NextAlive::after(run.last(), run.step));
    }
    if strays.is_empty() {
        return runs;
    }
    // Stable, so strays at one timestamp keep file order.
    strays.sort_by_key(|&(at, _)| at);
    merge_strays(&runs, &strays)
}

/// `'0'` in every byte of a 16-byte window.
const ZEROS: u128 = u128::from_ne_bytes([b'0'; 16]);

/// Timestamps below this, sixteen digits, are predicted.
const PREDICTED_SPAN: u64 = LOW_SPAN * LOW_SPAN;

/// The line that continues an `ALIVE` run: its last timestamp plus its
/// step, as the heartbeat writer writes it. The timestamp's digits sit
/// in two digit registers, one digit value per byte
/// ([`spread_digits`]), and each beat adds the step's registers to them
/// with decimal carries ([`add_digits`]), so a prediction costs no
/// division. The whole value is kept beside them, and gives the line's
/// width without waiting on the registers; a timestamp of more than
/// sixteen digits is not predicted, and its line is decoded the
/// general way.
#[derive(Debug)]
struct NextAlive {
    /// The predicted timestamp.
    at: u64,
    /// Its digit count, 1–16.
    width: usize,
    /// `10^width`: the timestamp that widens the line.
    widen_at: u64,
    /// The timestamp's low eight digits.
    low: u64,
    /// Its next eight digits.
    high: u64,
    /// The run's step.
    step: u64,
    /// The step's low eight digits.
    step_low: u64,
    /// The step's next eight digits.
    step_high: u64,
}

impl NextAlive {
    /// The line one `step` (positive) after `last`; `None` past sixteen
    /// digits.
    fn after(last: u64, step: u64) -> Option<Self> {
        let at = last
            .checked_add(step)
            .filter(|&at| step > 0 && at < PREDICTED_SPAN)?;
        let mut next = Self {
            at,
            width: 1,
            widen_at: 10,
            low: spread_digits(at % LOW_SPAN),
            high: spread_digits(at / LOW_SPAN),
            step,
            step_low: spread_digits(step % LOW_SPAN),
            step_high: spread_digits(step / LOW_SPAN),
        };
        next.widen();
        Some(next)
    }

    /// Brings `width` up to the timestamp's digit count.
    fn widen(&mut self) {
        while self.at >= self.widen_at {
            self.width += 1;
            self.widen_at *= 10;
        }
    }

    /// Moves `pos` past the lines from there on that continue the run
    /// and returns how many, and whether the line after them is still
    /// predicted: `false` once it has more than sixteen digits.
    fn follow(&mut self, raw: &[u8], pos: &mut usize) -> (u64, bool) {
        let mut grown = 0;
        while self.is_at(raw, *pos) {
            *pos += self.width + ALIVE_TAIL.len();
            grown += 1;
            self.at += self.step;
            if self.at >= self.widen_at {
                if self.at >= PREDICTED_SPAN {
                    return (grown, false);
                }
                self.widen();
            }
            let (low, carry) = add_digits(self.low, self.step_low);
            self.low = low;
            if carry || self.step_high != 0 {
                self.high = add_digits(self.high, self.step_high + u64::from(carry)).0;
            }
        }
        (grown, true)
    }

    /// Whether the line at `raw[pos..]` is this one. The 16 bytes that
    /// end where its digits end, read as one big-endian integer, hold
    /// its last digit in the lowest byte, as the registers do; masked
    /// to the line's `width` bytes they must equal the registers'
    /// ASCII, and the eight bytes from the last digit on, the digit
    /// shifted out, `|ALIVE\n`. A line that ends its digits fewer than
    /// 16 bytes into the file is not compared.
    fn is_at(&self, raw: &[u8], pos: usize) -> bool {
        const TAIL: u64 = u64::from_le_bytes(*b"0|ALIVE\n") >> 8;
        let end = pos + self.width;
        if end < 16 || end + ALIVE_TAIL.len() > raw.len() {
            return false;
        }
        let (Ok(window), Ok(tail)) = (
            <[u8; 16]>::try_from(&raw[end - 16..end]),
            <[u8; 8]>::try_from(&raw[end - 1..end + ALIVE_TAIL.len()]),
        ) else {
            return false;
        };
        let digits = (u128::from(self.high) << 64 | u128::from(self.low)) | ZEROS;
        let mask = u128::MAX >> (8 * (16 - self.width));
        (u128::from_be_bytes(window) ^ digits) & mask == 0 && u64::from_le_bytes(tail) >> 8 == TAIL
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::passes::tests::fold_phones;
    use crate::analysis::passes::PassRegistry;
    use crate::analysis::report::AnalysisConfig;
    use crate::logger::{FailureLogger, LoggerConfig, PhoneContext, ShutdownKind};
    use symfail_symbian::panic::codes;
    use symfail_symbian::Panic;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    /// Parses the `log` and `beats` files of `fs`.
    fn parse(phone_id: u32, fs: &FlashFs) -> PhoneDataset {
        PhoneDataset::from_flashfs_with(phone_id, fs, &mut ParseScratch::default())
    }

    /// Drives a small logger session and parses it back as phone
    /// `phone_id`.
    fn session_of(phone_id: u32) -> PhoneDataset {
        let mut fs = FlashFs::new();
        let mut lg = FailureLogger::new(LoggerConfig::default());
        let ctx = PhoneContext::default();
        lg.on_boot(&mut fs, t(0), || ctx);
        for i in 1..=10 {
            lg.on_ticks(&mut fs, t(30 * i), 1, || ctx);
        }
        lg.on_panic(
            &mut fs,
            t(301),
            &Panic::new(codes::KERN_EXEC_3, "Camera", "null"),
            ctx,
            None,
        );
        lg.on_clean_shutdown(&mut fs, t(310), ShutdownKind::Reboot);
        lg.on_boot(&mut fs, t(400), || ctx); // 90 s off: a self-shutdown candidate
        for i in 14..=16 {
            lg.on_ticks(&mut fs, t(30 * i), 1, || ctx);
        }
        // freeze: no clean shutdown, battery pulled, reboot much later
        lg.on_boot(&mut fs, t(4000), || ctx);
        parse(phone_id, &fs)
    }

    fn session() -> PhoneDataset {
        session_of(7)
    }

    #[test]
    fn parses_records_and_beats() {
        let ds = session();
        assert_eq!(ds.phone_id(), 7);
        assert_eq!(ds.panics().len(), 1);
        assert_eq!(ds.boots().len(), 3);
        assert!(ds.beats().count() > 10);
    }

    #[test]
    fn shutdown_events_only_from_clean_reboots() {
        let ds = session();
        let events = ds.shutdown_events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].duration.as_secs(), 90);
        assert_eq!(events[0].off_at, t(310));
        assert_eq!(events[0].on_at, t(400));
    }

    #[test]
    fn freeze_detected_from_battery_pull() {
        let ds = session();
        let fr = ds.freezes();
        assert_eq!(fr.len(), 1);
        assert_eq!(fr[0].kind, HlKind::Freeze);
        assert_eq!(fr[0].at, t(480), "freeze timed at the last ALIVE beat");
    }

    #[test]
    fn powered_on_time_excludes_off_gaps() {
        let ds = session();
        let up = ds.powered_on_time(SimDuration::from_mins(5));
        // Session 1: 0..310 ≈ 310 s; session 2: 400..480 = 80 s.
        // The 90 s reboot gap is below max_gap and thus counted — an
        // accepted, small overestimate exactly as in the paper's
        // methodology; the 3520 s freeze gap is excluded.
        let secs = up.as_secs();
        assert!((380..=500).contains(&secs), "powered {secs}");
    }

    #[test]
    fn powered_on_time_matches_linear_scan() {
        let ds = session();
        for gap_secs in [0u64, 1, 29, 30, 31, 90, 600, 4000, 100_000] {
            let max_gap = SimDuration::from_secs(gap_secs);
            let mut linear = SimDuration::ZERO;
            let beats: Vec<_> = ds.beats().collect();
            for pair in beats.windows(2) {
                let gap = pair[1].0.saturating_since(pair[0].0);
                if gap <= max_gap {
                    linear += gap;
                }
            }
            assert_eq!(ds.powered_on_time(max_gap), linear, "max_gap {gap_secs}s");
        }
    }

    #[test]
    fn fleet_aggregation() {
        let phones = [session_of(7), session_of(8)];
        let report = fold_phones(&phones, AnalysisConfig::default(), &PassRegistry::all());
        assert_eq!(report.panic_distribution.total(), 2);
        assert_eq!(report.shutdowns.all_events().len(), 2);
        assert_eq!(report.mtbf.freezes, 2);
    }

    #[test]
    fn clean_session_parses_with_zero_defects() {
        let ds = session();
        assert!(ds.defects().is_clean(), "{:?}", ds.defects());
        assert_eq!(
            ds.defects().records_kept,
            (ds.panics().len() + ds.boots().len() + ds.beats().count()) as u64
        );
    }

    #[test]
    fn lossy_parse_classifies_and_survives() {
        let mut fs = FlashFs::new();
        let mut lg = FailureLogger::new(LoggerConfig::default());
        let ctx = PhoneContext::default();
        lg.on_boot(&mut fs, t(0), || ctx);
        for i in 1..=5 {
            lg.on_ticks(&mut fs, t(30 * i), 1, || ctx);
        }
        lg.on_panic(
            &mut fs,
            t(200),
            &Panic::new(codes::KERN_EXEC_3, "Camera", "null"),
            ctx,
            None,
        );
        // Inject one of each flavour by hand.
        fs.append_line("log", "P|1|KERN-EXEC~3|a|-"); // cut: no trailer shape
        fs.append_line("beats", "30000|ALIVE"); // exact duplicate
        fs.append_line("beats", "7|WAT"); // unknown token
        let mut raw = fs.read_bytes("log").unwrap().to_vec();
        raw.extend_from_slice(&[0xff, 0xfe, b'\n']); // invalid UTF-8 line
        fs.overwrite_raw("log", raw);
        let ds = parse(1, &fs);
        let d = ds.defects();
        assert_eq!(d.truncated, 2, "{d:?}"); // hand cut + UTF-8 garbage line
        assert_eq!(d.duplicate, 1, "{d:?}");
        assert_eq!(d.unknown_tag, 1, "{d:?}");
        assert!(d.invalid_utf8);
        assert!(!d.unusable);
        // Surviving records still drive the analyses.
        assert_eq!(ds.panics().len(), 1);
        assert!(ds.beats().count() >= 5);
        assert!(ds.powered_on_time(SimDuration::from_mins(5)) > SimDuration::ZERO);
    }

    #[test]
    fn unusable_phone_is_reported_and_excluded() {
        let mut dead_fs = FlashFs::new();
        dead_fs.append_line("log", "garbage");
        dead_fs.append_line("beats", "more garbage");
        let dead = parse(9, &dead_fs);
        assert!(dead.defects().unusable);

        let good = session();
        let config = AnalysisConfig::default();
        let uptime_alone = good.powered_on_time(config.uptime_gap);
        let registry = PassRegistry::select("mtbf,defects").unwrap();
        let report = fold_phones(&[good, dead], config, &registry);
        assert_eq!(report.defects.unusable_phones, vec![9]);
        assert_eq!(
            report.mtbf.total_hours,
            uptime_alone.as_hours_f64(),
            "unusable phone contributes no powered-on time"
        );
    }

    #[test]
    fn lowbt_and_maoff_excluded_from_shutdown_events() {
        let mut fs = FlashFs::new();
        let mut lg = FailureLogger::new(LoggerConfig::default());
        let ctx = PhoneContext::default();
        lg.on_boot(&mut fs, t(0), || ctx);
        lg.on_clean_shutdown(&mut fs, t(10), ShutdownKind::LowBattery);
        lg.on_boot(&mut fs, t(100), || ctx);
        lg.on_clean_shutdown(&mut fs, t(110), ShutdownKind::ManualOff);
        lg.on_boot(&mut fs, t(200), || ctx);
        let ds = parse(0, &fs);
        assert!(ds.shutdown_events().is_empty());
        assert!(ds.freezes().is_empty());
    }
}
