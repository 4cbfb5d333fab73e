//! `D_EXC` — the baseline panic collector.
//!
//! The paper's related-work section describes `D_EXC`, a Symbian tool
//! that collects the panic events generated on a phone but "does not
//! relate panic events to failure manifestations, running applications
//! and phone activities" as the paper's logger does. This module
//! implements that baseline faithfully: it hooks the same `RDebug`
//! panic notification but records *only* the panic code — no
//! heartbeat, no running-apps snapshot, no activity, no battery
//! context.
//!
//! [`crate::analysis::baseline`] quantifies what is lost: with `D_EXC`
//! alone, Table 2 is still reproducible, but freezes and
//! self-shutdowns are invisible (no heartbeat), so Figures 2/4/5 and
//! Tables 3/4 cannot be computed at all.

use symfail_sim_core::SimTime;
use symfail_symbian::{Panic, PanicCode};

use crate::flashfs::FlashFs;
use crate::records::push_u64;

/// Flash file used by the baseline collector.
pub const DEXC_FILE: &str = "dexc";

/// The `D_EXC` baseline panic collector.
///
/// # Example
///
/// ```
/// use symfail_core::flashfs::FlashFs;
/// use symfail_core::logger::DExcLogger;
/// use symfail_sim_core::SimTime;
/// use symfail_symbian::panic::codes;
/// use symfail_symbian::Panic;
///
/// let mut fs = FlashFs::new();
/// let mut dexc = DExcLogger::new();
/// let p = Panic::new(codes::KERN_EXEC_3, "Camera", "null");
/// dexc.on_panic(&mut fs, SimTime::from_secs(9), &p);
/// let collected = DExcLogger::parse(&fs);
/// assert_eq!(collected.len(), 1);
/// assert_eq!(collected[0].1, codes::KERN_EXEC_3);
/// ```
#[derive(Debug, Clone, Default)]
pub struct DExcLogger;

impl DExcLogger {
    /// Creates the collector.
    pub fn new() -> Self {
        Self
    }

    /// Records a panic notification. Note what is *not* recorded:
    /// running applications, activity, battery — `D_EXC` has no access
    /// to the other servers.
    pub fn on_panic(&mut self, fs: &mut FlashFs, now: SimTime, panic: &Panic) {
        fs.append_line_with(DEXC_FILE, |buf| {
            push_u64(buf, now.as_millis());
            buf.push(b'|');
            buf.extend_from_slice(panic.code.category.as_str().as_bytes());
            buf.push(b'~');
            push_u64(buf, u64::from(panic.code.panic_type));
        });
    }

    /// Parses the collected panic stream, skipping a line that is
    /// malformed or not UTF-8.
    pub fn parse(fs: &FlashFs) -> Vec<(SimTime, PanicCode)> {
        fs.read_lines(DEXC_FILE)
            .filter_map(|line| {
                let (ms, code) = line.split_once('|')?;
                let (cat, ty) = code.split_once('~')?;
                Some((
                    SimTime::from_millis(ms.parse().ok()?),
                    PanicCode::parse(&format!("{cat} {ty}"))?,
                ))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use symfail_symbian::panic::codes;

    #[test]
    fn records_only_code_and_time() {
        let mut fs = FlashFs::new();
        let mut dexc = DExcLogger::new();
        let p = Panic::new(codes::USER_11, "Messages", "overflow with secret context");
        dexc.on_panic(&mut fs, SimTime::from_secs(5), &p);
        let line = fs.last_line(DEXC_FILE).unwrap();
        assert_eq!(line, "5000|USER~11");
        assert!(!line.contains("Messages"), "no component context");
    }

    #[test]
    fn parse_round_trips_all_codes() {
        let mut fs = FlashFs::new();
        let mut dexc = DExcLogger::new();
        for (i, (code, _)) in codes::ALL.iter().enumerate() {
            dexc.on_panic(
                &mut fs,
                SimTime::from_secs(i as u64),
                &Panic::new(*code, "x", "r"),
            );
        }
        let parsed = DExcLogger::parse(&fs);
        assert_eq!(parsed.len(), codes::ALL.len());
        for ((at, code), (expected, _)) in parsed.iter().zip(codes::ALL.iter()) {
            assert_eq!(code, expected);
            assert!(at.as_secs() < codes::ALL.len() as u64);
        }
    }

    #[test]
    fn parse_skips_garbage() {
        let mut fs = FlashFs::new();
        fs.append_line(DEXC_FILE, "not a record");
        fs.append_line(DEXC_FILE, "123|KERN-EXEC~3");
        fs.append_line(DEXC_FILE, "x|KERN-EXEC~3");
        assert_eq!(DExcLogger::parse(&fs).len(), 1);
    }

    #[test]
    fn parse_skips_a_line_that_is_not_utf8() {
        let mut fs = FlashFs::new();
        fs.overwrite_raw(DEXC_FILE, b"5|USER~11\n\xff\xfe\n7|USER~11\n".to_vec());
        assert_eq!(
            DExcLogger::parse(&fs),
            vec![
                (SimTime::from_millis(5), codes::USER_11),
                (SimTime::from_millis(7), codes::USER_11),
            ]
        );
    }
}
