//! Software fault injection: from fault class to raised panic.
//!
//! An *episode* is one activation of a residual software fault. The
//! planner ([`plan_episode`]) decides — from the calibrated
//! probabilities — which panic code the activation manifests as,
//! whether the error propagates into a cascade of follow-up panics,
//! and whether it escalates into a high-level failure (freeze or
//! self-shutdown).
//!
//! The executor ([`execute_fault`]) then *mechanically produces* the
//! panic by driving the corresponding `symfail-symbian` mechanism
//! through a short, realistic sequence of operations whose last step
//! is the injected bug: dereferencing a null pointer, appending past a
//! descriptor's maximum length, signalling an idle active object, and
//! so on. The returned [`Panic`] therefore carries the exact code,
//! category and reason the OS documentation assigns to that bug class.

use serde::{Deserialize, Serialize};

use symfail_sim_core::{SimDuration, SimRng, SimTime};
use symfail_symbian::active::{ActiveScheduler, RunOutcome};
use symfail_symbian::cleanup::CleanupStack;
use symfail_symbian::descriptor::TBuf;
use symfail_symbian::exec::{Access, MemoryMap};
use symfail_symbian::heap::Heap;
use symfail_symbian::ipc::{RMessagePtr, ServerPort};
use symfail_symbian::leave::LeaveCode;
use symfail_symbian::object_index::{Handle, ObjectIndex, ObjectKind};
use symfail_symbian::panic::codes;
use symfail_symbian::servers::media::AudioClient;
use symfail_symbian::servers::telephony::PhoneApp;
use symfail_symbian::servers::ui::{Edwin, ListBox};
use symfail_symbian::timer::RTimer;
use symfail_symbian::{Panic, PanicCode};

use crate::calibration::{CalibrationParams, EpisodeContext, CASCADE_COMPANION_WEIGHTS};
use crate::recovery::{kernel_decision, KernelDecision};

/// How an episode escalates beyond application termination.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Escalation {
    /// The device locks up; recovery requires a battery pull.
    Freeze,
    /// The kernel reboots the device.
    SelfShutdown,
}

/// A planned fault episode.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultEpisode {
    /// The activity context the episode is attached to.
    pub context: EpisodeContext,
    /// The primary panic code.
    pub primary: PanicCode,
    /// Follow-up panic codes of the cascade (empty for an isolated
    /// panic).
    pub cascade: Vec<PanicCode>,
    /// High-level consequence, if the error escapes the offending
    /// application.
    pub escalation: Option<Escalation>,
}

fn sample_code(weights: &[(PanicCode, f64)], rng: &mut SimRng) -> PanicCode {
    let ws: Vec<f64> = weights.iter().map(|(_, w)| *w).collect();
    weights[rng.weighted_index(&ws)].0
}

/// Plans one episode in the given context.
pub fn plan_episode(
    params: &CalibrationParams,
    context: EpisodeContext,
    rng: &mut SimRng,
) -> FaultEpisode {
    let primary = sample_code(CalibrationParams::code_weights(context), rng);
    // The deterministic part of the escalation policy is the kernel's
    // recovery decision; only the escalation *risk* is probabilistic.
    let escalation = match kernel_decision(primary) {
        // EIKON / EIKCOCTL / MMF / KERN-SVR panics never manifest as
        // HL events: the kernel terminates the application and the
        // phone keeps working.
        KernelDecision::TerminateApplication => None,
        // Phone.app and MSGS Client: the kernel always reboots.
        KernelDecision::RebootPhone => Some(Escalation::SelfShutdown),
        KernelDecision::TerminateWithEscalationRisk => {
            let (p_esc, p_freeze) = match context {
                EpisodeContext::VoiceCall => (
                    params.p_escalate_voice,
                    params.p_freeze_given_escalation_voice,
                ),
                EpisodeContext::Message | EpisodeContext::DeferredMessaging => (
                    params.p_escalate_message,
                    params.p_freeze_given_escalation_message,
                ),
                EpisodeContext::Background => (
                    params.p_escalate_background,
                    params.p_freeze_given_escalation_background,
                ),
            };
            if rng.chance(p_esc) {
                Some(if rng.chance(p_freeze) {
                    Escalation::Freeze
                } else {
                    Escalation::SelfShutdown
                })
            } else {
                None
            }
        }
    };
    // Cascades model error propagation; they accompany escalation
    // (the paper links bursts to propagation between real-time and
    // interactive modules) and only system-level panics propagate.
    let mut cascade = Vec::new();
    if escalation.is_some()
        && !primary.category.is_core_application()
        && rng.chance(params.p_cascade_given_escalation)
    {
        cascade.push(sample_code(&CASCADE_COMPANION_WEIGHTS, rng));
        while rng.chance(params.cascade_continue_p) && cascade.len() < 6 {
            cascade.push(sample_code(&CASCADE_COMPANION_WEIGHTS, rng));
        }
    }
    FaultEpisode {
        context,
        primary,
        cascade,
        escalation,
    }
}

/// Executes the failing operation for `code` against a fresh instance
/// of the responsible OS mechanism, attributing the resulting panic to
/// `app`.
///
/// # Panics
///
/// Panics (in the Rust sense) if the substrate fails to raise the
/// requested code — which would mean the mechanism model and the
/// taxonomy disagree; the test suite pins every code.
pub fn execute_fault(code: PanicCode, app: &str, rng: &mut SimRng) -> Panic {
    let raised = raise(code, app, rng);
    assert_eq!(
        raised.code, code,
        "mechanism raised {} instead of {}",
        raised.code, code
    );
    Panic {
        raised_by: app.to_string(),
        ..raised
    }
}

fn raise(code: PanicCode, app: &str, rng: &mut SimRng) -> Panic {
    match code {
        c if c == codes::KERN_EXEC_0 => {
            let mut index = ObjectIndex::new();
            let good = index.open(app, ObjectKind::Session);
            index.kind_of(good).expect("valid handle resolves");
            // The bug: using a stale/garbage raw handle in a syscall.
            let stale = Handle::from_raw(good.raw() + 1000 + (rng.next_u64() % 1000) as u32);
            index.kind_of(stale).expect_err("stale handle panics")
        }
        c if c == codes::KERN_EXEC_3 => {
            let mut map = MemoryMap::new(app);
            map.map_region(0x1_0000, 0x2000, true, false);
            map.check(0x1_0800, Access::Read).expect("mapped read ok");
            // The bug: dereferencing NULL (most common) or a wild
            // pointer past the mapping.
            let addr = if rng.chance(0.8) {
                rng.next_u64() % 4096
            } else {
                0x4_0000 + rng.next_u64() % 0x1000
            };
            map.check(addr, Access::Read).expect_err("bad deref panics")
        }
        c if c == codes::KERN_EXEC_15 => {
            let mut timer = RTimer::new(app);
            timer
                .after(SimTime::ZERO, SimDuration::from_secs(5))
                .expect("first request ok");
            timer
                .after(SimTime::ZERO, SimDuration::from_secs(9))
                .expect_err("double request panics")
        }
        c if c == codes::E32USER_CBASE_33 => {
            let mut index = ObjectIndex::new();
            let h = index.open(app, ObjectKind::Session);
            index.duplicate(h).expect("duplicate ok");
            index
                .destroy_cobject(h)
                .expect_err("destroying shared CObject panics")
        }
        c if c == codes::E32USER_CBASE_46 => {
            let mut sched = ActiveScheduler::new(app, SimDuration::from_secs(10));
            let ao = sched.add("worker", true);
            // The bug: a completion signalled with no request pending.
            sched.signal(ao).expect_err("stray signal panics")
        }
        c if c == codes::E32USER_CBASE_47 => {
            let mut sched = ActiveScheduler::new(app, SimDuration::from_secs(10));
            let ao = sched.add("careless", false);
            sched.set_active(ao).expect("set active ok");
            sched.signal(ao).expect("signal ok");
            sched
                .run(
                    ao,
                    RunOutcome::Leave(LeaveCode::NotFound),
                    SimDuration::from_millis(3),
                )
                .expect_err("unhandled RunL leave panics")
        }
        c if c == codes::E32USER_CBASE_69 => {
            let cs = CleanupStack::new();
            // The bug: leaving with no trap handler installed.
            cs.leave(LeaveCode::NoMemory)
                .expect_err("leave without trap panics")
        }
        c if c == codes::E32USER_CBASE_91 => {
            let mut heap = Heap::with_capacity(4096);
            let cell = heap.alloc(app, 64).expect("alloc ok");
            heap.free(cell).expect("first free ok");
            heap.free(cell).expect_err("double free panics")
        }
        c if c == codes::E32USER_CBASE_92 => {
            let mut heap = Heap::with_capacity(4096);
            let cell = heap.alloc(app, 64).expect("alloc ok");
            heap.corrupt_header(cell);
            heap.free(cell).expect_err("corrupt header panics")
        }
        c if c == codes::USER_10 => {
            let buf = TBuf::from_str("short", 16).expect("fits");
            let pos = 6 + (rng.next_u64() % 16) as usize;
            buf.mid(pos, 1).expect_err("out-of-bounds position panics")
        }
        c if c == codes::USER_11 => {
            let mut buf = TBuf::from_str("almost-full!", 12).expect("fits");
            buf.append("x").expect_err("overflow panics")
        }
        c if c == codes::KERN_SVR_0 => {
            let mut index = ObjectIndex::new();
            let corrupt = Handle::from_raw(0xDEAD + (rng.next_u64() % 100) as u32);
            index.close(corrupt).expect_err("corrupt close panics")
        }
        c if c == codes::KERN_SVR_70 => {
            let mut port = ServerPort::new(app, 8);
            port.complete(RMessagePtr::null(), "reply")
                .expect_err("null RMessagePtr panics")
        }
        c if c == codes::VIEWSRV_11 => {
            let mut sched = ActiveScheduler::new(app, SimDuration::from_secs(10));
            let ao = sched.add("spinner", true);
            sched.set_active(ao).expect("set active ok");
            sched.signal(ao).expect("signal ok");
            let spin = SimDuration::from_secs(11 + rng.next_u64() % 30);
            sched
                .run(ao, RunOutcome::Ok, spin)
                .expect_err("monopolizing handler panics")
        }
        c if c == codes::EIKON_LISTBOX_3 => {
            let mut lb = ListBox::new(app);
            lb.set_items(vec!["entry".into()]);
            lb.draw().expect_err("draw with no view panics")
        }
        c if c == codes::EIKON_LISTBOX_5 => {
            let mut lb = ListBox::new(app);
            lb.set_items(vec!["a".into(), "b".into()]);
            lb.attach_view();
            let bad = 2 + (rng.next_u64() % 8) as usize;
            lb.set_current_item_index(bad)
                .expect_err("invalid index panics")
        }
        c if c == codes::EIKCOCTL_70 => {
            let mut e = Edwin::new(app);
            e.set_text("predictive text entry");
            e.begin_inline_edit(11, 15).expect("span ok");
            e.set_text("oops"); // state corrupted behind the control
            e.commit_inline_edit("fix")
                .expect_err("stale inline span panics")
        }
        c if c == codes::PHONE_APP_2 => {
            let mut phone = PhoneApp::new();
            phone.dial().expect("first dial ok");
            // The bug: incoming signalling colliding with the dial.
            phone.incoming().expect_err("state collision panics")
        }
        c if c == codes::MSGS_CLIENT_3 => {
            let mut port = ServerPort::new("MsgServer", 8);
            let msg = port.send(app, 7, 8).expect("send ok");
            port.complete(msg, "a reply longer than the descriptor")
                .expect_err("oversized write-back panics")
        }
        c if c == codes::MMF_AUDIO_CLIENT_4 => {
            let mut audio = AudioClient::new(app);
            audio.set_volume(5).expect("legal volume ok");
            let v = 10 + (rng.next_u64() % 90) as i32;
            audio.set_volume(v).expect_err("volume >= 10 panics")
        }
        other => unreachable!("no mechanism for {other} — outside the study's taxonomy"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use symfail_symbian::panic::codes::ALL;

    #[test]
    fn every_taxonomy_code_is_mechanically_reachable() {
        let mut rng = SimRng::seed_from(99);
        for (code, _) in ALL {
            let p = execute_fault(code, "TestApp", &mut rng);
            assert_eq!(p.code, code);
            assert_eq!(p.raised_by, "TestApp");
            assert!(!p.reason.is_empty());
        }
    }

    #[test]
    fn planner_respects_category_policies() {
        let params = CalibrationParams::default();
        let mut rng = SimRng::seed_from(1);
        for i in 0..2000 {
            let ctx = match i % 4 {
                0 => EpisodeContext::VoiceCall,
                1 => EpisodeContext::Message,
                2 => EpisodeContext::DeferredMessaging,
                _ => EpisodeContext::Background,
            };
            let ep = plan_episode(&params, ctx, &mut rng);
            if ep.primary.category.is_application_level() {
                assert_eq!(ep.escalation, None, "{} must never escalate", ep.primary);
                assert!(ep.cascade.is_empty());
            }
            if ep.primary.category.is_core_application() {
                assert_eq!(ep.escalation, Some(Escalation::SelfShutdown));
            }
            if ep.escalation.is_none() {
                assert!(ep.cascade.is_empty(), "cascades accompany escalation");
            }
            assert!(ep.cascade.len() <= 6, "at most 7 panics per episode");
        }
    }

    #[test]
    fn deferred_context_is_always_msgs_client() {
        let params = CalibrationParams::default();
        let mut rng = SimRng::seed_from(3);
        for _ in 0..50 {
            let ep = plan_episode(&params, EpisodeContext::DeferredMessaging, &mut rng);
            assert_eq!(ep.primary, codes::MSGS_CLIENT_3);
            assert_eq!(ep.escalation, Some(Escalation::SelfShutdown));
        }
    }

    #[test]
    fn escalation_rates_roughly_match_calibration() {
        let params = CalibrationParams::default();
        let mut rng = SimRng::seed_from(5);
        let n = 20_000;
        let mut escalated = 0;
        for _ in 0..n {
            let ep = plan_episode(&params, EpisodeContext::VoiceCall, &mut rng);
            if ep.primary.category.is_core_application()
                || ep.primary.category.is_application_level()
            {
                continue;
            }
            if ep.escalation.is_some() {
                escalated += 1;
            }
        }
        let frac = escalated as f64 / n as f64;
        assert!(
            (frac - params.p_escalate_voice).abs() < 0.02,
            "escalation fraction {frac}"
        );
    }

    #[test]
    fn voice_context_never_yields_background_only_codes() {
        let params = CalibrationParams::default();
        let mut rng = SimRng::seed_from(7);
        for _ in 0..5000 {
            let ep = plan_episode(&params, EpisodeContext::VoiceCall, &mut rng);
            assert_ne!(ep.primary, codes::MMF_AUDIO_CLIENT_4);
            assert_ne!(ep.primary, codes::EIKCOCTL_70);
            assert_ne!(ep.primary.category.as_str(), "MSGS Client");
        }
    }
}
