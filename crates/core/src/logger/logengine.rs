//! The Log Engine active object.
//!
//! Collects the smart phone activity (calls, messages, data sessions)
//! from the Database Log Server and stores it into the `activity`
//! file.

use symfail_sim_core::SimTime;
use symfail_symbian::servers::logdb::ActivityKind;

use crate::flashfs::FlashFs;
use crate::records::push_u64;

use super::files;

/// The activity mirror.
#[derive(Debug, Clone, Default)]
pub struct LogEngine;

impl LogEngine {
    /// Creates the active object.
    pub fn new() -> Self {
        Self
    }

    /// Writes one activity line: `<start_ms>|<end_ms>|<code>`.
    pub fn record(&mut self, fs: &mut FlashFs, start: SimTime, end: SimTime, kind: ActivityKind) {
        let code = match kind {
            ActivityKind::VoiceCall => 'V',
            ActivityKind::Message => 'M',
            ActivityKind::DataSession => 'D',
        };
        fs.append_line_with(files::ACTIVITY, |buf| {
            push_u64(buf, start.as_millis());
            buf.push(b'|');
            push_u64(buf, end.as_millis());
            buf.push(b'|');
            buf.push(code as u8);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_writes_one_line_per_activity() {
        let mut fs = FlashFs::new();
        let mut le = LogEngine::new();
        le.record(
            &mut fs,
            SimTime::from_secs(1),
            SimTime::from_secs(2),
            ActivityKind::VoiceCall,
        );
        le.record(
            &mut fs,
            SimTime::from_secs(3),
            SimTime::from_secs(4),
            ActivityKind::DataSession,
        );
        let lines: Vec<&str> = fs.read_lines(files::ACTIVITY).collect();
        assert_eq!(lines, ["1000|2000|V", "3000|4000|D"]);
    }
}
