//! User-assisted capture of output failures — the paper's future-work
//! extension.
//!
//! The logger detects freezes and self-shutdowns automatically, but
//! value failures (*output failures*: wrong charge indicator, wrong
//! ring volume, reminders at wrong times) would require a perfect
//! observer with full knowledge of the system specification. The
//! paper's proposed alternative is to involve the user — while warning
//! (from their Bluetooth study experience) that users are unreliable
//! and often neglect or forget to report.
//!
//! This module implements that channel: a one-keystroke report the
//! user can file when they notice an output failure. The companion
//! analysis ([`crate::analysis::output_failures`]) measures exactly
//! the unreliability the paper predicted, because the device simulator
//! models users who only report a fraction of the failures they
//! experience, after a delay.

use serde::{Deserialize, Serialize};

use symfail_sim_core::SimTime;

use crate::flashfs::FlashFs;

/// Flash file holding user reports.
pub const UREPORT_FILE: &str = "ureport";

/// What the user says went wrong (their view, not the system's).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum UserReportKind {
    /// An output deviated from expectation (value failure).
    OutputFailure,
    /// Inputs were ignored (omission failure).
    InputFailure,
    /// Spontaneous behaviour with no input.
    UnstableBehavior,
}

impl UserReportKind {
    /// Codec token.
    pub fn token(self) -> &'static str {
        match self {
            UserReportKind::OutputFailure => "OUT",
            UserReportKind::InputFailure => "IN",
            UserReportKind::UnstableBehavior => "UNST",
        }
    }

    /// Parses a codec token.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "OUT" => Some(UserReportKind::OutputFailure),
            "IN" => Some(UserReportKind::InputFailure),
            "UNST" => Some(UserReportKind::UnstableBehavior),
            _ => None,
        }
    }
}

/// The user-report channel of the extended logger.
///
/// # Example
///
/// ```
/// use symfail_core::flashfs::FlashFs;
/// use symfail_core::logger::{UserReportChannel, UserReportKind};
/// use symfail_sim_core::SimTime;
///
/// let mut fs = FlashFs::new();
/// let mut channel = UserReportChannel::new();
/// channel.on_user_report(&mut fs, SimTime::from_secs(60), UserReportKind::OutputFailure);
/// assert_eq!(UserReportChannel::parse(&fs).len(), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct UserReportChannel;

impl UserReportChannel {
    /// Creates the channel.
    pub fn new() -> Self {
        Self
    }

    /// Files a user report.
    pub fn on_user_report(&mut self, fs: &mut FlashFs, now: SimTime, kind: UserReportKind) {
        fs.append_line(
            UREPORT_FILE,
            &format!("{}|{}", now.as_millis(), kind.token()),
        );
    }

    /// Parses the filed reports.
    pub fn parse(fs: &FlashFs) -> Vec<(SimTime, UserReportKind)> {
        fs.read_lines(UREPORT_FILE)
            .filter_map(|line| {
                let (ms, token) = line.split_once('|')?;
                Some((
                    SimTime::from_millis(ms.parse().ok()?),
                    UserReportKind::parse(token)?,
                ))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_round_trip() {
        let mut fs = FlashFs::new();
        let mut ch = UserReportChannel::new();
        ch.on_user_report(
            &mut fs,
            SimTime::from_secs(5),
            UserReportKind::OutputFailure,
        );
        ch.on_user_report(
            &mut fs,
            SimTime::from_secs(9),
            UserReportKind::UnstableBehavior,
        );
        let parsed = UserReportChannel::parse(&fs);
        assert_eq!(
            parsed,
            vec![
                (SimTime::from_secs(5), UserReportKind::OutputFailure),
                (SimTime::from_secs(9), UserReportKind::UnstableBehavior),
            ]
        );
    }

    #[test]
    fn token_round_trips() {
        for k in [
            UserReportKind::OutputFailure,
            UserReportKind::InputFailure,
            UserReportKind::UnstableBehavior,
        ] {
            assert_eq!(UserReportKind::parse(k.token()), Some(k));
        }
        assert_eq!(UserReportKind::parse("??"), None);
    }

    #[test]
    fn parse_skips_garbage() {
        let mut fs = FlashFs::new();
        fs.append_line(UREPORT_FILE, "garbage");
        fs.append_line(UREPORT_FILE, "5|OUT");
        fs.append_line(UREPORT_FILE, "6|NOPE");
        assert_eq!(UserReportChannel::parse(&fs).len(), 1);
    }
}
