//! Labels and the rule-based text classifier.
//!
//! The taxonomy follows Section 4 of the paper, which grounds it in
//! the dependability literature (Avizienis et al. for halting/silent/
//! erratic failures, Bondavalli & Simoncini for value/omission
//! failures).

use serde::{Deserialize, Serialize};

/// High-level failure manifestation (Section 4 "Failure Types").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum FailureType {
    /// Halting failure: constant output, no reaction to input.
    Freeze,
    /// Silent failure: the device shuts down by itself.
    SelfShutdown,
    /// Erratic failure: spontaneous behaviour with no input.
    UnstableBehavior,
    /// Value failure: output deviates from the expected sequence.
    OutputFailure,
    /// Omission value failure: inputs have no effect.
    InputFailure,
}

impl FailureType {
    /// Table label.
    pub fn as_str(self) -> &'static str {
        match self {
            FailureType::Freeze => "freeze",
            FailureType::SelfShutdown => "self-shutdown",
            FailureType::UnstableBehavior => "unstable behavior",
            FailureType::OutputFailure => "output failure",
            FailureType::InputFailure => "input failure",
        }
    }
}

/// User-initiated recovery action (Section 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Recovery {
    /// Power-cycling the device restored operation.
    Reboot,
    /// The battery had to be pulled out.
    RemoveBattery,
    /// Waiting some time was enough.
    Wait,
    /// Repeating the action was enough (transient problem).
    Repeat,
    /// The phone needed service-center assistance (master reset,
    /// firmware update, component replacement).
    ServicePhone,
    /// The post does not say how the user recovered.
    Unreported,
}

impl Recovery {
    /// All actions in the paper's Table 1 column order.
    pub const ALL: [Recovery; 6] = [
        Recovery::Reboot,
        Recovery::RemoveBattery,
        Recovery::Wait,
        Recovery::Repeat,
        Recovery::ServicePhone,
        Recovery::Unreported,
    ];

    /// Table label.
    pub fn as_str(self) -> &'static str {
        match self {
            Recovery::Reboot => "reboot",
            Recovery::RemoveBattery => "battery removal",
            Recovery::Wait => "wait",
            Recovery::Repeat => "repeat",
            Recovery::ServicePhone => "service phone",
            Recovery::Unreported => "unreported",
        }
    }

    /// Failure severity from the user perspective, defined by the
    /// difficulty of the recovery (Section 4 "Failure Severity").
    pub fn severity(self) -> Severity {
        match self {
            Recovery::ServicePhone => Severity::High,
            Recovery::Reboot | Recovery::RemoveBattery => Severity::Medium,
            Recovery::Wait | Recovery::Repeat => Severity::Low,
            Recovery::Unreported => Severity::Unknown,
        }
    }
}

/// Severity of a failure, from the user's perspective.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Severity {
    /// Recovery required service personnel.
    High,
    /// Recovery required reboot or battery removal.
    Medium,
    /// Repeating or waiting restored operation.
    Low,
    /// The report did not describe the recovery.
    Unknown,
}

/// User activity at failure time, when the post mentions one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum ReportedActivity {
    /// During a voice call.
    VoiceCall,
    /// While creating/sending/receiving text messages.
    TextMessage,
    /// While using Bluetooth.
    Bluetooth,
    /// While manipulating images.
    Images,
}

impl ReportedActivity {
    /// Table label.
    pub fn as_str(self) -> &'static str {
        match self {
            ReportedActivity::VoiceCall => "voice call",
            ReportedActivity::TextMessage => "text message",
            ReportedActivity::Bluetooth => "bluetooth",
            ReportedActivity::Images => "images",
        }
    }
}

/// The classifier's verdict on one post.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Classification {
    /// The failure manifestation, or `None` if the post is not a
    /// failure report.
    pub failure: Option<FailureType>,
    /// The recovery the user describes.
    pub recovery: Recovery,
    /// Derived severity.
    pub severity: Severity,
    /// Activity at failure time, if mentioned.
    pub activity: Option<ReportedActivity>,
}

fn contains_any(text: &str, needles: &[&str]) -> bool {
    needles.iter().any(|n| text.contains(n))
}

/// Classifies one post's text. Returns `failure: None` for posts that
/// do not describe a device failure (questions, reviews, chatter).
pub fn classify(text: &str) -> Classification {
    let t = text.to_lowercase();
    // Order matters: the most specific manifestations first, so that
    // e.g. "soft keys do not respond" is an input failure rather than
    // a freeze.
    let failure = if contains_any(
        &t,
        &[
            "soft keys do not work",
            "keypad stopped responding",
            "buttons have no effect",
            "keys do nothing",
            "presses are ignored",
        ],
    ) {
        Some(FailureType::InputFailure)
    } else if contains_any(
        &t,
        &[
            "turns itself off",
            "shuts down by itself",
            "powers off on its own",
            "switched itself off",
            "dies and reboots on its own",
        ],
    ) {
        Some(FailureType::SelfShutdown)
    } else if contains_any(
        &t,
        &[
            "freezes",
            "frozen",
            "locks up",
            "locked up",
            "completely stuck",
            "hangs and stays hung",
        ],
    ) {
        Some(FailureType::Freeze)
    } else if contains_any(
        &t,
        &[
            "backlight keeps flashing",
            "by themselves",
            "on its own",
            "erratic",
            "wallpaper disappear",
            "ghost",
        ],
    ) {
        Some(FailureType::UnstableBehavior)
    } else if contains_any(
        &t,
        &[
            "wrong time",
            "wrong volume",
            "charge indicator is wrong",
            "shows garbage",
            "different from what i set",
            "comes out distorted",
            "wrong output",
            "incorrect reading",
        ],
    ) {
        Some(FailureType::OutputFailure)
    } else {
        None
    };
    let recovery = if contains_any(
        &t,
        &[
            "service center",
            "master reset",
            "firmware update",
            "sent it in",
            "replaced the unit",
            "repair shop",
        ],
    ) {
        Recovery::ServicePhone
    } else if contains_any(
        &t,
        &[
            "take the battery out",
            "pull the battery",
            "removing the battery",
            "battery pull",
        ],
    ) {
        Recovery::RemoveBattery
    } else if contains_any(
        &t,
        &[
            "after a reboot",
            "power cycling fixes",
            "restart solves",
            "turning it off and on",
        ],
    ) {
        Recovery::Reboot
    } else if contains_any(
        &t,
        &[
            "comes back after a while",
            "waiting a few minutes",
            "if i wait",
        ],
    ) {
        Recovery::Wait
    } else if contains_any(
        &t,
        &[
            "trying again works",
            "second attempt works",
            "if i repeat the action",
        ],
    ) {
        Recovery::Repeat
    } else {
        Recovery::Unreported
    };
    let activity = if contains_any(&t, &["during a call", "while talking", "mid-call"]) {
        Some(ReportedActivity::VoiceCall)
    } else if contains_any(&t, &["text message", "while texting", "sending an sms"]) {
        Some(ReportedActivity::TextMessage)
    } else if contains_any(&t, &["bluetooth"]) {
        Some(ReportedActivity::Bluetooth)
    } else if contains_any(
        &t,
        &["viewing pictures", "editing an image", "photo gallery"],
    ) {
        Some(ReportedActivity::Images)
    } else {
        None
    };
    Classification {
        failure,
        recovery,
        severity: recovery.severity(),
        activity,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_example_freeze_battery() {
        let c = classify(
            "the phone freezes whenever I try to write a text message, and stays \
             frozen until I take the battery out",
        );
        assert_eq!(c.failure, Some(FailureType::Freeze));
        assert_eq!(c.recovery, Recovery::RemoveBattery);
        assert_eq!(c.severity, Severity::Medium);
        assert_eq!(c.activity, Some(ReportedActivity::TextMessage));
    }

    #[test]
    fn paper_example_unstable() {
        let c = classify(
            "the phone exhibits random wallpaper disappearing and power cycling, \
             due to UI memory leaks",
        );
        assert_eq!(c.failure, Some(FailureType::UnstableBehavior));
    }

    #[test]
    fn input_failure_beats_freeze_keywords() {
        let c = classify("the soft keys do not work at all, rest seems fine");
        assert_eq!(c.failure, Some(FailureType::InputFailure));
    }

    #[test]
    fn non_failure_posts_unclassified() {
        let c = classify("what case do you recommend for this model? mine scratched");
        assert_eq!(c.failure, None);
        assert_eq!(c.recovery, Recovery::Unreported);
        assert_eq!(c.severity, Severity::Unknown);
    }

    #[test]
    fn severity_mapping() {
        assert_eq!(Recovery::ServicePhone.severity(), Severity::High);
        assert_eq!(Recovery::Reboot.severity(), Severity::Medium);
        assert_eq!(Recovery::RemoveBattery.severity(), Severity::Medium);
        assert_eq!(Recovery::Wait.severity(), Severity::Low);
        assert_eq!(Recovery::Repeat.severity(), Severity::Low);
        assert_eq!(Recovery::Unreported.severity(), Severity::Unknown);
    }

    #[test]
    fn all_recoveries_detectable() {
        let samples = [
            ("after a reboot it behaves", Recovery::Reboot),
            ("only a battery pull helps", Recovery::RemoveBattery),
            ("it comes back after a while", Recovery::Wait),
            ("trying again works every time", Recovery::Repeat),
            (
                "the service center did a master reset",
                Recovery::ServicePhone,
            ),
            ("no idea how to fix it", Recovery::Unreported),
        ];
        for (text, expected) in samples {
            assert_eq!(classify(text).recovery, expected, "{text}");
        }
    }

    #[test]
    fn activities_detectable() {
        assert_eq!(
            classify("it happened during a call").activity,
            Some(ReportedActivity::VoiceCall)
        );
        assert_eq!(
            classify("while using bluetooth headset").activity,
            Some(ReportedActivity::Bluetooth)
        );
        assert_eq!(
            classify("in the photo gallery").activity,
            Some(ReportedActivity::Images)
        );
        assert_eq!(classify("just sitting there").activity, None);
    }
}
