//! The Database Log Server.
//!
//! Records the phone's activity events — the voice calls and text
//! messages that are the only activities registered on Symbian's log
//! database, as the paper notes for Table 3. The failure logger's Log
//! Engine reads this server to store the activity context of each
//! failure.

use serde::{Deserialize, Serialize};

use symfail_sim_core::{SimDuration, SimTime};

/// A loggable phone activity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ActivityKind {
    /// An incoming or outgoing voice call.
    VoiceCall,
    /// Creating, sending or receiving a text message.
    Message,
    /// Web/WAP browsing data session.
    DataSession,
}

impl ActivityKind {
    /// The label used in tables (matching the paper's Table 3 rows).
    pub fn as_str(self) -> &'static str {
        match self {
            ActivityKind::VoiceCall => "voice call",
            ActivityKind::Message => "message",
            ActivityKind::DataSession => "data session",
        }
    }

    /// True for the activities the paper classifies as real-time
    /// tasks.
    pub fn is_real_time(self) -> bool {
        matches!(self, ActivityKind::VoiceCall | ActivityKind::Message)
    }
}

/// One record in the log database.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ActivityRecord {
    /// When the activity started.
    pub start: SimTime,
    /// When it ended.
    pub end: SimTime,
    /// What it was.
    pub kind: ActivityKind,
}

impl ActivityRecord {
    /// True when the activity was in progress at `t` (inclusive
    /// bounds: the study's logger samples coarsely).
    pub fn covers(&self, t: SimTime) -> bool {
        self.start <= t && t <= self.end
    }
}

/// The Database Log Server.
///
/// # Example
///
/// ```
/// use symfail_sim_core::{SimDuration, SimTime};
/// use symfail_symbian::servers::logdb::{ActivityKind, LogDbServer};
///
/// let mut db = LogDbServer::with_retention(SimDuration::from_days(30));
/// db.record(SimTime::from_secs(10), SimTime::from_secs(70), ActivityKind::VoiceCall);
/// assert_eq!(db.activity_at(SimTime::from_secs(30)), Some(ActivityKind::VoiceCall));
/// assert_eq!(db.activity_at(SimTime::from_secs(200)), None);
/// ```
///
/// # Retention
///
/// Recording an activity that ends at `end` expires every record that
/// ended before its horizon, `end − retention`. So a record is
/// retained exactly when its end lies at or after the largest horizon
/// recorded at or after it. The server keeps each record's horizon and
/// applies that rule lazily: the readers skip expired records, and the
/// stored list is compacted in one backward pass each time it has
/// doubled since the last compaction, so recording costs amortized
/// O(1) instead of a scan of every retained record.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LogDbServer {
    retention: SimDuration,
    /// Every record not yet compacted away, in recording order.
    records: Vec<Stored>,
    /// `records.len()` after the last compaction.
    compacted_len: usize,
}

/// A record with the horizon its recording set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
struct Stored {
    record: ActivityRecord,
    horizon: SimTime,
}

/// The retention rule, fed records newest first: `latest_horizon`
/// carries the largest horizon seen so far (recorded at or after
/// `stored`), and `stored` is retained when it ends at or after it.
fn retained(stored: &Stored, latest_horizon: &mut SimTime) -> bool {
    *latest_horizon = (*latest_horizon).max(stored.horizon);
    stored.record.end >= *latest_horizon
}

impl LogDbServer {
    /// Creates a log database that retains records for `retention`
    /// (old records are pruned as new ones arrive, like the bounded
    /// log of a real device).
    pub fn with_retention(retention: SimDuration) -> Self {
        Self {
            retention,
            records: Vec::new(),
            compacted_len: 0,
        }
    }

    /// Records an activity spanning `[start, end]`.
    pub fn record(&mut self, start: SimTime, end: SimTime, kind: ActivityKind) {
        let horizon = end
            .saturating_since(SimTime::ZERO)
            .saturating_sub(self.retention);
        self.records.push(Stored {
            record: ActivityRecord {
                start,
                end: end.max(start),
                kind,
            },
            horizon: SimTime::ZERO + horizon,
        });
        if self.records.len() > 2 * self.compacted_len {
            self.compact();
        }
    }

    /// Drops the expired records in one backward pass, keeping the
    /// retained ones in recording order.
    fn compact(&mut self) {
        let mut latest_horizon = SimTime::ZERO;
        let mut kept = self.records.len();
        for i in (0..self.records.len()).rev() {
            if retained(&self.records[i], &mut latest_horizon) {
                kept -= 1;
                self.records[kept] = self.records[i];
            }
        }
        self.records.drain(..kept);
        self.compacted_len = self.records.len();
    }

    /// The retained records, newest first.
    fn retained_rev(&self) -> impl Iterator<Item = &ActivityRecord> {
        let mut latest_horizon = SimTime::ZERO;
        self.records
            .iter()
            .rev()
            .filter(move |stored| retained(stored, &mut latest_horizon))
            .map(|stored| &stored.record)
    }

    /// The activity in progress at `t`, if any (the most recently
    /// started one wins if several overlap; of equal starts, the one
    /// recorded last).
    pub fn activity_at(&self, t: SimTime) -> Option<ActivityKind> {
        self.retained_rev()
            .filter(|r| r.covers(t))
            .reduce(|latest, r| if r.start > latest.start { r } else { latest })
            .map(|r| r.kind)
    }

    /// All records overlapping `[from, to]`, in recording order.
    pub fn records_between(&self, from: SimTime, to: SimTime) -> Vec<ActivityRecord> {
        let mut hits: Vec<ActivityRecord> = self
            .retained_rev()
            .filter(|r| r.start <= to && r.end >= from)
            .copied()
            .collect();
        hits.reverse();
        hits
    }

    /// Number of retained records.
    pub fn len(&self) -> usize {
        self.retained_rev().count()
    }

    /// True when no records are retained.
    pub fn is_empty(&self) -> bool {
        self.retained_rev().next().is_none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn db() -> LogDbServer {
        LogDbServer::with_retention(SimDuration::from_days(7))
    }

    #[test]
    fn activity_lookup() {
        let mut d = db();
        d.record(
            SimTime::from_secs(100),
            SimTime::from_secs(160),
            ActivityKind::VoiceCall,
        );
        assert_eq!(
            d.activity_at(SimTime::from_secs(100)),
            Some(ActivityKind::VoiceCall)
        );
        assert_eq!(
            d.activity_at(SimTime::from_secs(160)),
            Some(ActivityKind::VoiceCall)
        );
        assert_eq!(d.activity_at(SimTime::from_secs(161)), None);
        assert_eq!(d.activity_at(SimTime::from_secs(99)), None);
    }

    #[test]
    fn overlapping_activities_latest_start_wins() {
        let mut d = db();
        d.record(
            SimTime::from_secs(0),
            SimTime::from_secs(100),
            ActivityKind::DataSession,
        );
        d.record(
            SimTime::from_secs(50),
            SimTime::from_secs(80),
            ActivityKind::Message,
        );
        assert_eq!(
            d.activity_at(SimTime::from_secs(60)),
            Some(ActivityKind::Message)
        );
        assert_eq!(
            d.activity_at(SimTime::from_secs(90)),
            Some(ActivityKind::DataSession)
        );
    }

    #[test]
    fn retention_prunes_old_records() {
        let mut d = LogDbServer::with_retention(SimDuration::from_secs(100));
        d.record(
            SimTime::from_secs(0),
            SimTime::from_secs(10),
            ActivityKind::Message,
        );
        d.record(
            SimTime::from_secs(500),
            SimTime::from_secs(510),
            ActivityKind::Message,
        );
        assert_eq!(d.len(), 1, "old record pruned");
    }

    #[test]
    fn records_between() {
        let mut d = db();
        d.record(
            SimTime::from_secs(10),
            SimTime::from_secs(20),
            ActivityKind::Message,
        );
        d.record(
            SimTime::from_secs(30),
            SimTime::from_secs(40),
            ActivityKind::VoiceCall,
        );
        let hits = d.records_between(SimTime::from_secs(15), SimTime::from_secs(35));
        assert_eq!(hits.len(), 2);
        let none = d.records_between(SimTime::from_secs(21), SimTime::from_secs(29));
        assert!(none.is_empty());
    }

    #[test]
    fn end_clamped_to_start() {
        let mut d = db();
        d.record(
            SimTime::from_secs(50),
            SimTime::from_secs(10),
            ActivityKind::Message,
        );
        assert!(d.activity_at(SimTime::from_secs(50)).is_some());
    }

    /// The log database as it was before compaction was batched: every
    /// record prunes the whole list at once. The oracle for the
    /// retained-set rule.
    struct EagerDb {
        retention: SimDuration,
        records: Vec<ActivityRecord>,
    }

    impl EagerDb {
        fn record(&mut self, start: SimTime, end: SimTime, kind: ActivityKind) {
            self.records.push(ActivityRecord {
                start,
                end: end.max(start),
                kind,
            });
            let cutoff = end.saturating_since(SimTime::ZERO);
            let horizon = cutoff.saturating_sub(self.retention);
            self.records
                .retain(|r| r.end.saturating_since(SimTime::ZERO) >= horizon);
        }

        fn activity_at(&self, t: SimTime) -> Option<ActivityKind> {
            self.records
                .iter()
                .filter(|r| r.covers(t))
                .max_by_key(|r| r.start)
                .map(|r| r.kind)
        }

        fn records_between(&self, from: SimTime, to: SimTime) -> Vec<ActivityRecord> {
            self.records
                .iter()
                .filter(|r| r.start <= to && r.end >= from)
                .copied()
                .collect()
        }
    }

    const KINDS: [ActivityKind; 3] = [
        ActivityKind::VoiceCall,
        ActivityKind::Message,
        ActivityKind::DataSession,
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]
        /// Whatever the record sequence — starts out of order, ends
        /// before starts, activities longer than the retention window —
        /// every reader answers exactly as the eager database does
        /// after every record.
        #[test]
        fn batched_compaction_matches_eager_retain(
            retention in prop_oneof![Just(0u64), 1u64..200, 200u64..3_000],
            records in prop::collection::vec((0u64..2_000, 0u64..1_500, 0u64..8, 0usize..3), 1..150),
            probes in prop::collection::vec(0u64..4_000, 1..10),
        ) {
            let retention = SimDuration::from_secs(retention);
            let mut db = LogDbServer::with_retention(retention);
            let mut eager = EagerDb { retention, records: Vec::new() };
            for (start, span, shape, kind) in records {
                // One record in eight ends before it starts.
                let end = if shape == 0 { start.saturating_sub(span) } else { start + span };
                let (start, end) = (SimTime::from_secs(start), SimTime::from_secs(end));
                db.record(start, end, KINDS[kind]);
                eager.record(start, end, KINDS[kind]);
                prop_assert_eq!(db.len(), eager.records.len());
                prop_assert_eq!(db.is_empty(), eager.records.is_empty());
                for (i, &p) in probes.iter().enumerate() {
                    let t = SimTime::from_secs(p);
                    prop_assert_eq!(db.activity_at(t), eager.activity_at(t), "at {}", p);
                    let to = SimTime::from_secs(probes[(i + 1) % probes.len()]);
                    prop_assert_eq!(db.records_between(t, to), eager.records_between(t, to));
                }
            }
        }
    }

    #[test]
    fn real_time_classification() {
        assert!(ActivityKind::VoiceCall.is_real_time());
        assert!(ActivityKind::Message.is_real_time());
        assert!(!ActivityKind::DataSession.is_real_time());
    }
}
