//! Determinism guarantees: the whole reproduction is a pure function
//! of the seed. Equal seeds give byte-identical harvests, and the
//! parallel streaming driver reproduces the sequential run; different
//! seeds differ; and adding a phone to the fleet never perturbs the
//! other phones' streams.

mod oracle;

use symfail::core::analysis::passes::PassRegistry;
use symfail::core::analysis::report::AnalysisConfig;
use symfail::forum::corpus::CorpusGenerator;
use symfail::phone::calibration::CalibrationParams;
use symfail::phone::fleet::{FleetCampaign, PhoneMeta};

fn params(phones: u32) -> CalibrationParams {
    CalibrationParams {
        phones,
        campaign_days: 60,
        enrollment_spread_days: 10,
        attrition_spread_days: 10,
        background_episode_rate_per_hour: 0.01,
        ..CalibrationParams::default()
    }
}

#[test]
fn equal_seeds_identical_harvest() {
    let a = oracle::harvest(&FleetCampaign::new(5, params(4)));
    let b = oracle::harvest(&FleetCampaign::new(5, params(4)));
    for (x, y) in a.iter().zip(&b) {
        for file in ["beats", "log", "runapp", "activity", "power"] {
            assert_eq!(
                x.flashfs.read_bytes(file),
                y.flashfs.read_bytes(file),
                "file {file} differs on phone {}",
                x.phone_id
            );
        }
        assert_eq!(x.stats, y.stats);
        assert_eq!(x.enrolled_day, y.enrolled_day);
        assert_eq!(x.retired_day, y.retired_day);
    }
}

#[test]
fn parallel_run_identical_to_sequential() {
    let campaign = FleetCampaign::new(6, params(5));
    let config = AnalysisConfig::default();
    let seq = oracle::harvest(&campaign);
    let fleet = oracle::parse(&seq);
    let reference = oracle::analyze(&fleet, config);
    for workers in [1, 2, 5, 16] {
        let par = campaign.run_streaming(workers, config, &PassRegistry::all());
        assert_eq!(par.metas.len(), seq.len());
        for (x, y) in seq.iter().zip(&par.metas) {
            assert_eq!(x.phone_id, y.phone_id);
            assert_eq!(x.stats, y.stats);
            assert_eq!(PhoneMeta::from_harvest(x).flash_bytes, y.flash_bytes);
        }
        assert_eq!(
            par.report.render_all() + &par.report.render_per_phone(),
            reference.render_all() + &reference.render_per_phone(),
            "{workers} workers"
        );
    }
}

#[test]
fn different_seeds_differ() {
    let a = oracle::harvest(&FleetCampaign::new(1, params(2)));
    let b = oracle::harvest(&FleetCampaign::new(2, params(2)));
    assert_ne!(
        a[0].flashfs.read_bytes("beats"),
        b[0].flashfs.read_bytes("beats")
    );
}

#[test]
fn growing_the_fleet_preserves_profiles_streams() {
    // The per-phone RNG streams are forked by id, and user volumes are
    // per-phone draws, so a phone's behaviour profile is independent
    // of the fleet size. (Exact day-by-day traces still shift because
    // enrollment windows and the stratified nightly quota depend on
    // the fleet size — but the random streams themselves must not.)
    let small = oracle::harvest(&FleetCampaign::new(9, params(2)));
    let big = oracle::harvest(&FleetCampaign::new(9, params(3)));
    for (s, b) in small.iter().zip(big.iter()) {
        assert_eq!(s.phone_id, b.phone_id);
        // Calls/messages volumes derive from the same per-phone stream.
        let ratio = s.stats.calls as f64 / b.stats.calls.max(1) as f64;
        assert!(
            (0.4..2.5).contains(&ratio),
            "phone {} changed radically when the fleet grew: {} vs {}",
            s.phone_id,
            s.stats.calls,
            b.stats.calls
        );
    }
}

#[test]
fn analysis_is_deterministic_too() {
    let harvest = oracle::harvest(&FleetCampaign::new(10, params(3)));
    let fleet = oracle::parse(&harvest);
    let a = oracle::analyze(&fleet, AnalysisConfig::default());
    let b = oracle::analyze(&fleet, AnalysisConfig::default());
    assert_eq!(a.render_all(), b.render_all());
    assert_eq!(
        format!("{}", a.shape_report()),
        format!("{}", b.shape_report())
    );
}

#[test]
fn forum_corpus_deterministic() {
    let a = CorpusGenerator::paper_sized(33).generate();
    let b = CorpusGenerator::paper_sized(33).generate();
    assert_eq!(a, b);
}
