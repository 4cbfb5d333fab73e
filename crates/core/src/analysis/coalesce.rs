//! Temporal coalescence of panics with high-level events (Figures 4
//! and 5).
//!
//! When a panic is found in the log, the analysis searches for freeze
//! and self-shutdown events within a predefined temporal window on the
//! same phone. There can be panics unrelated to any HL event (the
//! kernel merely terminated the offending application) and isolated HL
//! events (whose cause produced no panic). The window must be chosen
//! carefully: the paper observed the number of coalesced events grows
//! up to five minutes, then plateaus until windows of hours start
//! coalescing *uncorrelated* events — hence the five-minute window.
//!
//! # Algorithm
//!
//! [`coalesce_phone`] is the kernel the `coalesce` pass runs on every
//! phone: it merges the phone's time-sorted panics against the phone's
//! time-sorted HL events, each panic binary-searching the HL slice for
//! its nearest neighbour — O((P+H)·log H) instead of an O(P×H) scan
//! (the tests keep that scan as their oracle). A phone's result is a [`CoalescenceAnalysis`] of its own, and
//! [`CoalescenceAnalysis::absorb`] concatenates phones in phone order:
//! the section is its pass's accumulator. The window sweep goes
//! further: each panic's nearest-HL gap is computed **once** into a
//! sorted array
//! ([`CoalescenceGaps`]), after which any window is answered by one
//! binary search — the whole Fig 4/5 sweep costs a single merge pass.
//! The sweep reads its panics from a finished analysis (which holds
//! every panic, related or not), so it runs on a streamed report
//! without a materialized fleet.

use serde::{Deserialize, Serialize};

use symfail_sim_core::{SimDuration, SimTime};
use symfail_stats::CategoricalDist;
use symfail_symbian::panic::PanicCategory;
use symfail_symbian::servers::logdb::ActivityKind;
use symfail_symbian::PanicCode;

use crate::intern::NameId;

use super::checkpoint::{ByteReader, ByteWriter, CheckpointError};
use super::dataset::{HlEvent, HlKind, PanicEvent};
use super::passes::{AnalysisPass, PhoneLens};
use super::report::StudyReport;

/// The paper's coalescence window.
pub const COALESCENCE_WINDOW: SimDuration = SimDuration::from_mins(5);

/// A panic together with its coalescence outcome.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CoalescedPanic {
    /// Phone the panic occurred on.
    pub phone_id: u32,
    /// The panic event (intern ids resolve against the fleet's
    /// [`NameTable`](crate::intern::NameTable)).
    pub panic: PanicEvent,
    /// The HL event it coalesced with, if any.
    pub related: Option<HlKind>,
}

/// The Figure 5 analysis result, and the `coalesce` pass's
/// accumulator: one phone's [`coalesce_phone`] result, or the
/// absorbed concatenation of a phone run's. `Default` is the
/// zero-phone analysis.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct CoalescenceAnalysis {
    /// Panics with their coalescence outcome: phone-ordered, and
    /// time-ordered within each phone.
    pub(super) panics: Vec<CoalescedPanic>,
    /// HL events considered.
    hl_total: usize,
    /// HL events with at least one panic in their window.
    hl_with_panic: usize,
}

/// Among the events of one phone's sorted HL slice, the nearest to
/// `t`: `(gap in ms, kind)`. Ties (equidistant left/right, or several
/// events at the same instant) resolve to the earliest event in slice
/// order, matching what `min_by_key` picks out of a time-sorted scan.
fn nearest_hl(slice: &[HlEvent], t: SimTime) -> Option<(u64, HlKind)> {
    if slice.is_empty() {
        return None;
    }
    let i = slice.partition_point(|e| e.at < t);
    let right = (i < slice.len()).then(|| (slice[i].at.saturating_since(t).as_millis(), i));
    let left = (i > 0).then(|| {
        let left_at = slice[i - 1].at;
        // First index of the equal-`at` group.
        let j = slice.partition_point(|e| e.at < left_at);
        (t.saturating_since(left_at).as_millis(), j)
    });
    let (gap, idx) = match (left, right) {
        (Some((lg, lj)), Some((rg, _))) if lg <= rg => (lg, lj),
        (_, Some(r)) => r,
        (Some(l), None) => l,
        (None, None) => unreachable!("slice checked non-empty"),
    };
    Some((gap, slice[idx].kind))
}

/// Gap in ms from `t` to the nearest item of a slice time-sorted by
/// `at`.
fn nearest_gap<T>(items: &[T], at: impl Fn(&T) -> SimTime, t: SimTime) -> Option<u64> {
    if items.is_empty() {
        return None;
    }
    let i = items.partition_point(|p| at(p) < t);
    let mut best = u64::MAX;
    if i < items.len() {
        best = best.min(at(&items[i]).saturating_since(t).as_millis());
    }
    if i > 0 {
        best = best.min(t.saturating_since(at(&items[i - 1])).as_millis());
    }
    Some(best)
}

/// HL events sorted by `(phone, time)`, so each phone's events form
/// one [`phone_slice`].
fn sorted_hl(hl_events: &[HlEvent]) -> Vec<HlEvent> {
    let mut hl = hl_events.to_vec();
    // Stable: events at the same instant keep their caller order, so
    // tie-breaking is identical to a scan over the caller's slice.
    hl.sort_by_key(|e| (e.phone_id, e.at));
    hl
}

/// One phone's slice of the sorted HL array.
fn phone_slice(hl: &[HlEvent], phone_id: u32) -> &[HlEvent] {
    let lo = hl.partition_point(|e| e.phone_id < phone_id);
    let hi = hl.partition_point(|e| e.phone_id <= phone_id);
    &hl[lo..hi]
}

/// Coalesces one phone's time-sorted panics against its time-sorted
/// HL slice within `window`: the per-phone kernel of the `coalesce`
/// pass. If several HL events fall in the window, the closest wins;
/// equidistant (or same-instant) events resolve to the earliest in
/// slice order, which is what a `min_by_key` scan over every event
/// picks for sorted input.
pub fn coalesce_phone(
    phone_id: u32,
    panics: &[PanicEvent],
    hl: &[HlEvent],
    window: SimDuration,
) -> CoalescenceAnalysis {
    let window_ms = window.as_millis();
    let mut out = Vec::with_capacity(panics.len());
    for rec in panics {
        let related = nearest_hl(hl, rec.at)
            .filter(|&(gap, _)| gap <= window_ms)
            .map(|(_, kind)| kind);
        out.push(CoalescedPanic {
            phone_id,
            panic: rec.clone(),
            related,
        });
    }
    // HL-side view: how many of this phone's HL events have at least
    // one panic in their window.
    let hl_with_panic = hl
        .iter()
        .filter(|e| nearest_gap(panics, |p| p.at, e.at).is_some_and(|gap| gap <= window_ms))
        .count();
    CoalescenceAnalysis {
        panics: out,
        hl_total: hl.len(),
        hl_with_panic,
    }
}

impl CoalescenceAnalysis {
    /// Appends a later phone run's analysis: the `coalesce` pass's
    /// merge (after remapping `other`'s name ids into this run's).
    pub fn absorb(&mut self, other: CoalescenceAnalysis) {
        self.panics.extend(other.panics);
        self.hl_total += other.hl_total;
        self.hl_with_panic += other.hl_with_panic;
    }

    /// All panics with their outcome.
    pub fn panics(&self) -> &[CoalescedPanic] {
        &self.panics
    }

    /// Fraction of panics related to an HL event — the paper's 51%.
    pub fn related_fraction(&self) -> f64 {
        if self.panics.is_empty() {
            return 0.0;
        }
        let related = self.panics.iter().filter(|p| p.related.is_some()).count();
        related as f64 / self.panics.len() as f64
    }

    /// Number of HL events in the analysis.
    pub fn hl_total(&self) -> usize {
        self.hl_total
    }

    /// HL events with at least one coalesced panic.
    pub fn hl_with_panic(&self) -> usize {
        self.hl_with_panic
    }

    /// Figure 5a: per panic category, how many panics related to an HL
    /// event vs stayed isolated. Returns `(related, isolated)`
    /// distributions keyed by category string.
    pub fn by_category(&self) -> (CategoricalDist, CategoricalDist) {
        let mut related = CategoricalDist::new();
        let mut isolated = CategoricalDist::new();
        for p in &self.panics {
            let cat = p.panic.code.category.as_str();
            match p.related {
                Some(_) => related.add(cat),
                None => isolated.add(cat),
            }
        }
        (related, isolated)
    }

    /// The window-size sweep that justifies the five-minute choice:
    /// `(window_secs, related_fraction)` for each candidate window,
    /// over this analysis's panics and the HL stream it was coalesced
    /// against (a report's `hl_events`). One merge pass builds the gap
    /// index; each window is then a single binary search (see
    /// [`CoalescenceGaps`]).
    pub fn window_sweep(&self, hl_events: &[HlEvent], windows_secs: &[u64]) -> Vec<(u64, f64)> {
        let gaps = CoalescenceGaps::new(self, hl_events);
        windows_secs
            .iter()
            .map(|&w| (w, gaps.related_fraction(SimDuration::from_secs(w))))
            .collect()
    }
}

/// Nearest-neighbour gap index: every panic's distance to its nearest
/// same-phone HL event, computed once and kept sorted. Any coalescence
/// window is then answered by thresholding — `related_fraction`
/// becomes O(log n) per window, which is what turns the Fig 4/5 window
/// sweep (and the ablation sweep) into a single pass over the data.
#[derive(Debug, Clone)]
pub struct CoalescenceGaps {
    /// Sorted nearest-HL gap (ms) per panic; `u64::MAX` when the
    /// phone has no HL event.
    panic_gaps_ms: Vec<u64>,
}

impl CoalescenceGaps {
    /// Builds the gap index in O((P+H)·log(P+H)) from a finished
    /// analysis — whose panic list is phone-ordered and time-sorted
    /// within each phone, exactly as the per-phone folds produced it —
    /// and the HL events it was coalesced against.
    pub fn new(analysis: &CoalescenceAnalysis, hl_events: &[HlEvent]) -> Self {
        let hl = sorted_hl(hl_events);
        let panics = analysis.panics();
        let mut panic_gaps_ms: Vec<u64> = panics
            .iter()
            .map(|p| {
                let slice = phone_slice(&hl, p.phone_id);
                nearest_hl(slice, p.panic.at).map_or(u64::MAX, |(gap, _)| gap)
            })
            .collect();
        panic_gaps_ms.sort_unstable();
        Self { panic_gaps_ms }
    }

    /// Panics whose nearest HL event lies within `window`.
    pub fn related_panics(&self, window: SimDuration) -> usize {
        self.panic_gaps_ms
            .partition_point(|&g| g <= window.as_millis())
    }

    /// Fraction of panics related to an HL event at this window —
    /// monotone non-decreasing in the window by construction.
    pub fn related_fraction(&self, window: SimDuration) -> f64 {
        if self.panic_gaps_ms.is_empty() {
            return 0.0;
        }
        self.related_panics(window) as f64 / self.panic_gaps_ms.len() as f64
    }
}

/// Figures 4/5: coalescence folds (both the filtered and the
/// all-shutdowns variant) plus the HL stream. The only accumulator
/// that carries interned name ids, hence the only merge that consults
/// the remap.
#[derive(Default)]
pub(super) struct CoalesceAcc {
    pub(super) filtered: CoalescenceAnalysis,
    all_shutdowns: CoalescenceAnalysis,
    hl_events: Vec<HlEvent>,
}

pub(super) struct CoalescePass;

impl AnalysisPass for CoalescePass {
    type Acc = CoalesceAcc;
    const NAME: &'static str = "coalesce";
    const NEEDS_COALESCE: bool = true;

    fn fold_phone(&self, lens: &PhoneLens<'_>) -> Self::Acc {
        CoalesceAcc {
            filtered: lens.coalesced.clone(),
            all_shutdowns: lens.coalesced_all.clone(),
            hl_events: lens.hl.clone(),
        }
    }

    fn merge(&self, acc: &mut Self::Acc, mut other: Self::Acc, remap: Option<&[u16]>) {
        if let Some(remap) = remap {
            for p in other
                .filtered
                .panics
                .iter_mut()
                .chain(other.all_shutdowns.panics.iter_mut())
            {
                p.panic.remap(remap);
            }
        }
        acc.filtered.absorb(other.filtered);
        acc.all_shutdowns.absorb(other.all_shutdowns);
        acc.hl_events.extend(other.hl_events);
    }

    fn finish(&self, acc: Self::Acc, report: &mut StudyReport) {
        report.coalescence = acc.filtered;
        report.coalescence_all_shutdowns = acc.all_shutdowns;
        report.hl_events = acc.hl_events;
    }

    fn snapshot(&self, acc: &Self::Acc, out: &mut ByteWriter) {
        write_coalescence(out, &acc.filtered);
        write_coalescence(out, &acc.all_shutdowns);
        out.usize(acc.hl_events.len());
        for e in &acc.hl_events {
            write_hl_event(out, e);
        }
    }

    fn restore(&self, src: &mut ByteReader<'_>) -> Result<Self::Acc, CheckpointError> {
        let filtered = read_coalescence(src)?;
        let all_shutdowns = read_coalescence(src)?;
        let n = src.usize()?;
        let mut hl_events = Vec::new();
        for _ in 0..n {
            hl_events.push(read_hl_event(src)?);
        }
        Ok(CoalesceAcc {
            filtered,
            all_shutdowns,
            hl_events,
        })
    }
}

fn write_hl_event(w: &mut ByteWriter, e: &HlEvent) {
    w.u32(e.phone_id);
    w.u64(e.at.as_millis());
    w.u8(match e.kind {
        HlKind::Freeze => 0,
        HlKind::SelfShutdown => 1,
    });
}

fn read_hl_event(r: &mut ByteReader<'_>) -> Result<HlEvent, CheckpointError> {
    Ok(HlEvent {
        phone_id: r.u32()?,
        at: SimTime::from_millis(r.u64()?),
        kind: match r.u8()? {
            0 => HlKind::Freeze,
            1 => HlKind::SelfShutdown,
            _ => return Err(CheckpointError::Corrupt("HL kind out of range")),
        },
    })
}

fn write_panic_event(w: &mut ByteWriter, p: &PanicEvent) {
    w.u64(p.at.as_millis());
    let category = PanicCategory::ALL
        .iter()
        .position(|c| *c == p.code.category)
        .expect("every category is in PanicCategory::ALL");
    w.u8(category as u8);
    w.u16(p.code.panic_type);
    w.u16(p.raised_by.0);
    w.u16(p.reason.0);
    w.u32(p.apps.len() as u32);
    for id in p.apps.iter() {
        w.u16(id.0);
    }
    w.u8(match p.activity {
        None => 0,
        Some(ActivityKind::VoiceCall) => 1,
        Some(ActivityKind::Message) => 2,
        Some(ActivityKind::DataSession) => 3,
    });
    w.u8(p.battery);
}

fn read_panic_event(r: &mut ByteReader<'_>) -> Result<PanicEvent, CheckpointError> {
    let at = SimTime::from_millis(r.u64()?);
    let category = *PanicCategory::ALL
        .get(r.u8()? as usize)
        .ok_or(CheckpointError::Corrupt("panic category out of range"))?;
    let code = PanicCode::new(category, r.u16()?);
    let raised_by = NameId(r.u16()?);
    let reason = NameId(r.u16()?);
    let n_apps = r.u32()?;
    let apps = (0..n_apps)
        .map(|_| r.u16().map(NameId))
        .collect::<Result<_, _>>()?;
    let activity = match r.u8()? {
        0 => None,
        1 => Some(ActivityKind::VoiceCall),
        2 => Some(ActivityKind::Message),
        3 => Some(ActivityKind::DataSession),
        _ => return Err(CheckpointError::Corrupt("activity kind out of range")),
    };
    Ok(PanicEvent {
        at,
        code,
        raised_by,
        reason,
        apps,
        activity,
        battery: r.u8()?,
    })
}

fn write_coalescence(w: &mut ByteWriter, pc: &CoalescenceAnalysis) {
    w.usize(pc.panics.len());
    for p in &pc.panics {
        w.u32(p.phone_id);
        write_panic_event(w, &p.panic);
        w.u8(match p.related {
            None => 0,
            Some(HlKind::Freeze) => 1,
            Some(HlKind::SelfShutdown) => 2,
        });
    }
    w.usize(pc.hl_total);
    w.usize(pc.hl_with_panic);
}

fn read_coalescence(r: &mut ByteReader<'_>) -> Result<CoalescenceAnalysis, CheckpointError> {
    let n = r.usize()?;
    let mut panics = Vec::new();
    for _ in 0..n {
        let phone_id = r.u32()?;
        let panic = read_panic_event(r)?;
        let related = match r.u8()? {
            0 => None,
            1 => Some(HlKind::Freeze),
            2 => Some(HlKind::SelfShutdown),
            _ => return Err(CheckpointError::Corrupt("related HL kind out of range")),
        };
        panics.push(CoalescedPanic {
            phone_id,
            panic,
            related,
        });
    }
    Ok(CoalescenceAnalysis {
        panics,
        hl_total: r.usize()?,
        hl_with_panic: r.usize()?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::dataset::PhoneDataset;
    use crate::records::{LogRecord, PanicRecord};
    use symfail_sim_core::SimTime;
    use symfail_symbian::panic::codes;
    use symfail_symbian::{Panic, PanicCode};

    fn panic_rec(secs: u64, code: PanicCode) -> LogRecord {
        LogRecord::Panic(PanicRecord {
            at: SimTime::from_secs(secs),
            panic: Panic::new(code, "X", "r"),
            running_apps: Vec::new(),
            activity: None,
            battery: 50,
        })
    }

    fn hl(phone: u32, secs: u64, kind: HlKind) -> HlEvent {
        HlEvent {
            phone_id: phone,
            at: SimTime::from_secs(secs),
            kind,
        }
    }

    fn fleet(panics: Vec<LogRecord>) -> Vec<PhoneDataset> {
        vec![PhoneDataset::new(0, panics, Vec::new())]
    }

    /// The fold the `coalesce` pass performs: each phone's panics
    /// against its own slice of the `(phone, time)`-sorted HL events,
    /// absorbed in phone order.
    fn coalesce(
        f: &[PhoneDataset],
        events: &[HlEvent],
        window: SimDuration,
    ) -> CoalescenceAnalysis {
        let hl = sorted_hl(events);
        let mut acc = CoalescenceAnalysis::default();
        for phone in f {
            let slice = phone_slice(&hl, phone.phone_id());
            acc.absorb(coalesce_phone(
                phone.phone_id(),
                phone.panics(),
                slice,
                window,
            ));
        }
        acc
    }

    #[test]
    fn panic_relates_to_nearby_hl() {
        let f = fleet(vec![panic_rec(100, codes::KERN_EXEC_3)]);
        let events = [hl(0, 150, HlKind::Freeze)];
        let a = coalesce(&f, &events, COALESCENCE_WINDOW);
        assert_eq!(a.related_fraction(), 1.0);
        assert_eq!(a.panics()[0].related, Some(HlKind::Freeze));
        assert_eq!(a.hl_with_panic(), 1);
    }

    #[test]
    fn window_is_bidirectional_and_bounded() {
        let f = fleet(vec![panic_rec(1000, codes::KERN_EXEC_3)]);
        // HL event *before* the panic, inside the window.
        let before = [hl(0, 800, HlKind::SelfShutdown)];
        let a = coalesce(&f, &before, COALESCENCE_WINDOW);
        assert_eq!(a.related_fraction(), 1.0);
        // Outside the window.
        let far = [hl(0, 1000 + 301, HlKind::Freeze)];
        let a = coalesce(&f, &far, COALESCENCE_WINDOW);
        assert_eq!(a.related_fraction(), 0.0);
        assert_eq!(a.hl_with_panic(), 0);
    }

    #[test]
    fn closest_hl_wins() {
        let f = fleet(vec![panic_rec(1000, codes::KERN_EXEC_3)]);
        let events = [
            hl(0, 1200, HlKind::Freeze),
            hl(0, 1050, HlKind::SelfShutdown),
        ];
        let a = coalesce(&f, &events, COALESCENCE_WINDOW);
        assert_eq!(a.panics()[0].related, Some(HlKind::SelfShutdown));
    }

    #[test]
    fn equidistant_tie_prefers_earlier_event() {
        let f = fleet(vec![panic_rec(1000, codes::KERN_EXEC_3)]);
        // 950 and 1050 are both 50 s away; the earlier one wins, as in
        // a time-sorted min_by_key scan.
        let events = [
            hl(0, 950, HlKind::SelfShutdown),
            hl(0, 1050, HlKind::Freeze),
        ];
        let a = coalesce(&f, &events, COALESCENCE_WINDOW);
        assert_eq!(a.panics()[0].related, Some(HlKind::SelfShutdown));
        // Two events at the same instant: the first in sorted order.
        let same = [hl(0, 990, HlKind::Freeze), hl(0, 990, HlKind::SelfShutdown)];
        let a = coalesce(&f, &same, COALESCENCE_WINDOW);
        assert_eq!(a.panics()[0].related, Some(HlKind::Freeze));
    }

    #[test]
    fn other_phones_events_do_not_match() {
        // Phone 9 logs an HL event at the instant phone 0 panics.
        let f = [
            PhoneDataset::new(0, vec![panic_rec(1000, codes::KERN_EXEC_3)], Vec::new()),
            PhoneDataset::new(9, Vec::new(), Vec::new()),
        ];
        let events = [hl(9, 1000, HlKind::Freeze)];
        let a = coalesce(&f, &events, COALESCENCE_WINDOW);
        assert_eq!(a.related_fraction(), 0.0);
    }

    #[test]
    fn category_split() {
        let f = fleet(vec![
            panic_rec(100, codes::KERN_EXEC_3),
            panic_rec(5000, codes::EIKON_LISTBOX_5),
        ]);
        let events = [hl(0, 110, HlKind::Freeze)];
        let a = coalesce(&f, &events, COALESCENCE_WINDOW);
        let (related, isolated) = a.by_category();
        assert_eq!(related.count("KERN-EXEC"), 1);
        assert_eq!(isolated.count("EIKON-LISTBOX"), 1);
        // Figure 5b's split: by code, then by the HL kind.
        let related: Vec<_> = a
            .panics()
            .iter()
            .filter_map(|p| Some((p.panic.code, p.related?)))
            .collect();
        assert_eq!(related, [(codes::KERN_EXEC_3, HlKind::Freeze)]);
    }

    #[test]
    fn window_sweep_is_monotone_nondecreasing() {
        let f = fleet(vec![
            panic_rec(100, codes::KERN_EXEC_3),
            panic_rec(10_000, codes::USER_11),
        ]);
        let events = [hl(0, 160, HlKind::Freeze), hl(0, 11_000, HlKind::Freeze)];
        let sweep =
            coalesce(&f, &events, COALESCENCE_WINDOW).window_sweep(&events, &[30, 60, 300, 2000]);
        for pair in sweep.windows(2) {
            assert!(pair[1].1 >= pair[0].1);
        }
        assert_eq!(sweep.last().unwrap().1, 1.0);
    }

    #[test]
    fn gap_index_matches_full_analysis() {
        let f = fleet(vec![
            panic_rec(100, codes::KERN_EXEC_3),
            panic_rec(700, codes::USER_11),
            panic_rec(40_000, codes::EIKON_LISTBOX_5),
        ]);
        let events = [
            hl(0, 160, HlKind::Freeze),
            hl(0, 900, HlKind::SelfShutdown),
            hl(0, 90_000, HlKind::Freeze),
        ];
        let gaps = CoalescenceGaps::new(&coalesce(&f, &events, COALESCENCE_WINDOW), &events);
        for w in [1u64, 60, 300, 5000, 200_000] {
            let window = SimDuration::from_secs(w);
            let full = coalesce(&f, &events, window);
            assert_eq!(gaps.related_fraction(window), full.related_fraction());
        }
    }

    #[test]
    fn empty_inputs() {
        let a = CoalescenceAnalysis::default();
        assert_eq!(a.related_fraction(), 0.0);
        assert_eq!(a.hl_total(), 0);
        let gaps = CoalescenceGaps::new(&a, &[]);
        assert_eq!(gaps.related_fraction(COALESCENCE_WINDOW), 0.0);
    }
}
