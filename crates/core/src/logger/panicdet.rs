//! The Panic Detector active object.
//!
//! Collects panic events as they are notified (via the `RDebug`
//! services of the Kernel Server) and consolidates the data produced
//! by the other active objects into the single consolidated log file.
//! It also runs the boot-time heartbeat check: when the logger starts,
//! it inspects the last heartbeat event of the previous session —
//!
//! * `ALIVE` ⇒ the phone was shut down by pulling out the battery,
//!   which (per the paper) means the phone was **frozen**: pulling the
//!   battery is the only reasonable user recovery for a freeze;
//! * `REBOOT` / `LOWBT` / `MAOFF` ⇒ a clean shutdown whose duration
//!   (phone off-time) is measurable and recorded for the Figure 2
//!   self-shutdown identification.
//!
//! The event is the one the Heartbeat AO remembers writing
//! ([`super::HeartbeatAo::last_event`]), not a decode of the `beats`
//! file's last line. The two are equal: only the Heartbeat AO writes
//! that file, and flash is damaged only after the harvest, never while
//! the phone runs. So the check costs the same with or without the
//! file, and a log-only logger classifies its boots exactly as the
//! full one does.

use symfail_sim_core::SimTime;
use symfail_symbian::servers::logdb::ActivityKind;
use symfail_symbian::Panic;

use crate::flashfs::FlashFs;
use crate::records::{encode_boot_into, encode_panic_into, BootRecord, HeartbeatEvent};

use super::{files, PhoneContext};

/// The panic collector and boot-time classifier.
#[derive(Debug, Clone, Default)]
pub struct PanicDetector {
    panics_recorded: u64,
}

impl PanicDetector {
    /// Creates the active object.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of panic records written.
    pub fn panics_recorded(&self) -> u64 {
        self.panics_recorded
    }

    /// Consolidates a notified panic with the context sampled from the
    /// other active objects and the activity in progress, and appends
    /// it to the log file.
    pub fn on_panic(
        &mut self,
        fs: &mut FlashFs,
        now: SimTime,
        panic: &Panic,
        ctx: PhoneContext<'_>,
        activity: Option<ActivityKind>,
    ) {
        fs.append_line_with(files::LOG, |buf| {
            encode_panic_into(
                buf,
                now,
                panic,
                ctx.running_apps,
                activity,
                ctx.battery_percent,
            );
        });
        self.panics_recorded += 1;
    }

    /// The boot-time heartbeat check. Writes a [`BootRecord`]
    /// classifying how the previous session ended, from its last
    /// heartbeat event (`None` on the very first boot).
    pub fn on_boot(
        &mut self,
        fs: &mut FlashFs,
        now: SimTime,
        last_beat: Option<(SimTime, HeartbeatEvent)>,
    ) {
        let record = match last_beat {
            None => BootRecord {
                // Very first boot: nothing to classify.
                boot_at: now,
                last_event: HeartbeatEvent::Reboot,
                last_event_at: now,
                off_duration: None,
                freeze_detected: false,
            },
            Some((at, HeartbeatEvent::Alive)) => BootRecord {
                boot_at: now,
                last_event: HeartbeatEvent::Alive,
                last_event_at: at,
                off_duration: None,
                freeze_detected: true,
            },
            Some((at, event)) => BootRecord {
                boot_at: now,
                last_event: event,
                last_event_at: at,
                off_duration: Some(now.saturating_since(at)),
                freeze_detected: false,
            },
        };
        fs.append_line_with(files::LOG, |buf| encode_boot_into(buf, &record));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::records::RecordRef;
    use symfail_symbian::panic::codes;

    #[test]
    fn boot_with_no_beats_is_first_boot() {
        let mut fs = FlashFs::new();
        let mut pd = PanicDetector::new();
        pd.on_boot(&mut fs, SimTime::from_secs(1), None);
        let rec = RecordRef::decode(fs.last_line(files::LOG).unwrap()).unwrap();
        match rec {
            RecordRef::Boot(b) => {
                assert!(!b.freeze_detected);
                assert!(b.off_duration.is_none());
            }
            _ => panic!("expected boot record"),
        }
    }

    #[test]
    fn boot_after_alive_flags_freeze() {
        let mut fs = FlashFs::new();
        let mut pd = PanicDetector::new();
        let last = (SimTime::from_secs(100), HeartbeatEvent::Alive);
        pd.on_boot(&mut fs, SimTime::from_secs(400), Some(last));
        match RecordRef::decode(fs.last_line(files::LOG).unwrap()).unwrap() {
            RecordRef::Boot(b) => {
                assert!(b.freeze_detected);
                assert_eq!(b.last_event_at, SimTime::from_secs(100));
            }
            _ => panic!("expected boot record"),
        }
    }

    #[test]
    fn boot_after_reboot_measures_off_duration() {
        let mut fs = FlashFs::new();
        let mut pd = PanicDetector::new();
        let last = (SimTime::from_secs(100), HeartbeatEvent::Reboot);
        pd.on_boot(&mut fs, SimTime::from_secs(182), Some(last));
        match RecordRef::decode(fs.last_line(files::LOG).unwrap()).unwrap() {
            RecordRef::Boot(b) => {
                assert!(!b.freeze_detected);
                assert_eq!(b.off_duration.unwrap().as_secs(), 82);
            }
            _ => panic!("expected boot record"),
        }
    }

    #[test]
    fn panic_recording_counts() {
        let mut fs = FlashFs::new();
        let mut pd = PanicDetector::new();
        let p = Panic::new(codes::VIEWSRV_11, "Clock", "monopolized");
        pd.on_panic(
            &mut fs,
            SimTime::from_secs(5),
            &p,
            PhoneContext::default(),
            None,
        );
        assert_eq!(pd.panics_recorded(), 1);
        assert!(fs
            .last_line(files::LOG)
            .unwrap()
            .starts_with("P|5000|ViewSrv~11|Clock"));
    }
}
