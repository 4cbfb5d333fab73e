//! Golden-report pin for the default paper campaign.
//!
//! `tests/golden/report_default.txt` is the committed rendering
//! (`render_all` + `render_per_phone`) of the default 25-phone /
//! 425-day campaign. Every path to the report must match it byte for
//! byte:
//!
//! - the reference fold: every phone simulated alone, parsed, and
//!   folded serially (`tests/oracle`),
//! - the streaming campaign driver,
//! - a multi-process campaign: three `--shard i/3` checkpoint files
//!   merged with `merge_shard_checkpoints`.
//!
//! The fixture turns silent behavior drift into a reviewable diff: a
//! legitimate analysis change regenerates it (run with
//! `GOLDEN_REGEN=1`) and the diff shows up in the PR; an accidental
//! one fails three ways at once.
//!
//! The coalescence window sweep, which the fixture does not render,
//! is pinned here too: swept from the streamed report, it must equal
//! the brute-force sweep over the reference phones.
//!
//! Below the report, the harvests themselves are pinned: a digest of
//! every flash byte and the simulator's ground-truth counters, for the
//! default campaign and the mixed-fleet, worst-corruption one. A
//! simulator or injector optimization must leave both unchanged; a
//! moved RNG draw changes them. A deliberate change of the simulated
//! dataset updates the constants, and the diff shows up in review.

mod oracle;

use std::path::PathBuf;
use std::sync::OnceLock;

use symfail::core::analysis::dataset::{HlEvent, HlKind, PhoneDataset};
use symfail::core::analysis::passes::{merge_shard_checkpoints, PassRegistry};
use symfail::core::analysis::report::{AnalysisConfig, StudyReport};
use symfail::core::analysis::COALESCENCE_SWEEP_WINDOWS_SECS;
use symfail::phone::calibration::CalibrationParams;
use symfail::phone::composition::FleetComposition;
use symfail::phone::corruption::CorruptionProfile;
use symfail::phone::device::PhoneStats;
use symfail::phone::fleet::{FleetCampaign, PhoneHarvest, ShardSpec, StreamingOptions};

fn campaign() -> FleetCampaign {
    FleetCampaign::new(2005, CalibrationParams::default())
}

/// The 250-phone × 60-day mixed-fleet, worst-corruption campaign.
fn mixed_worst() -> FleetCampaign {
    let params = CalibrationParams {
        phones: 250,
        campaign_days: 60,
        ..CalibrationParams::default()
    };
    FleetCampaign::new(2005, params)
        .with_fleet(FleetComposition::mixed())
        .with_corruption(CorruptionProfile::Worst)
}

/// What a harvest is pinned by: the total flash bytes, a 64-bit FNV-1a
/// digest over every phone's files (phones in id order, files in
/// `FlashFs::file_names()` order, each file's name bytes then its
/// content bytes), and the simulator counters summed over phones.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct HarvestDigest {
    bytes: u64,
    fnv: u64,
    stats: PhoneStats,
}

impl HarvestDigest {
    fn of(harvest: &[PhoneHarvest]) -> Self {
        let mut fnv: u64 = 0xcbf2_9ce4_8422_2325;
        let mut bytes = 0;
        let mut stats = PhoneStats::default();
        for h in harvest {
            for name in h.flashfs.file_names() {
                let content = h.flashfs.read_bytes(name).expect("listed file exists");
                bytes += content.len() as u64;
                for &b in name.as_bytes().iter().chain(content) {
                    fnv ^= u64::from(b);
                    fnv = fnv.wrapping_mul(0x0000_0100_0000_01b3);
                }
            }
            let s = h.stats;
            stats.panics += s.panics;
            stats.freezes += s.freezes;
            stats.self_shutdowns += s.self_shutdowns;
            stats.user_shutdowns += s.user_shutdowns;
            stats.lowbt_shutdowns += s.lowbt_shutdowns;
            stats.calls += s.calls;
            stats.messages += s.messages;
            stats.output_failures += s.output_failures;
            stats.user_reports += s.user_reports;
        }
        Self { bytes, fnv, stats }
    }
}

/// The default 25 × 425 harvest at seed 2005. The byte count equals
/// the flash bytes the parse layer reads for the whole campaign.
const DEFAULT_HARVEST: HarvestDigest = HarvestDigest {
    bytes: 30_770_073,
    fnv: 0x3b29_05f2_608c_3b5d,
    stats: PhoneStats {
        panics: 378,
        freezes: 368,
        self_shutdowns: 391,
        user_shutdowns: 1247,
        lowbt_shutdowns: 79,
        calls: 23_287,
        messages: 39_746,
        output_failures: 477,
        user_reports: 67,
    },
};

/// The 250 × 60 mixed-fleet, worst-corruption harvest at seed 2005
/// (after injection).
const MIXED_WORST_HARVEST: HarvestDigest = HarvestDigest {
    bytes: 2_816_311,
    fnv: 0x49ef_d1c5_6a10_982d,
    stats: PhoneStats {
        panics: 50,
        freezes: 38,
        self_shutdowns: 45,
        user_shutdowns: 307,
        lowbt_shutdowns: 14,
        calls: 2943,
        messages: 5525,
        output_failures: 58,
        user_reports: 12,
    },
};

/// The reference phones: each of the campaign's phones simulated
/// alone and parsed, with the harvest's digest.
fn fleet_of(campaign: &FleetCampaign) -> (Vec<PhoneDataset>, HarvestDigest) {
    let harvest = oracle::harvest(campaign);
    (oracle::parse(&harvest), HarvestDigest::of(&harvest))
}

/// The default campaign's reference fleet and streamed report, built
/// once and shared by the tests below.
fn default_fleet() -> &'static (Vec<PhoneDataset>, HarvestDigest) {
    static FLEET: OnceLock<(Vec<PhoneDataset>, HarvestDigest)> = OnceLock::new();
    FLEET.get_or_init(|| fleet_of(&campaign()))
}

/// The mixed/worst campaign's reference fleet, built once.
fn mixed_worst_fleet() -> &'static (Vec<PhoneDataset>, HarvestDigest) {
    static FLEET: OnceLock<(Vec<PhoneDataset>, HarvestDigest)> = OnceLock::new();
    FLEET.get_or_init(|| fleet_of(&mixed_worst()))
}

fn default_streamed() -> &'static StudyReport {
    static REPORT: OnceLock<StudyReport> = OnceLock::new();
    REPORT.get_or_init(|| {
        campaign()
            .run_streaming(3, config(), &PassRegistry::all())
            .report
    })
}

fn config() -> AnalysisConfig {
    CalibrationParams::default().analysis_config()
}

fn render(report: &StudyReport) -> String {
    report.render_all() + &report.render_per_phone()
}

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join("report_default.txt")
}

fn golden() -> String {
    let path = fixture_path();
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read golden fixture {}: {e}", path.display()))
}

/// Asserts `got` equals the fixture, failing with the first divergent
/// line instead of two unreadable multi-kilobyte blobs.
fn assert_matches_golden(engine: &str, got: &str) {
    let want = golden();
    if got == want {
        return;
    }
    for (i, (g, w)) in got.lines().zip(want.lines()).enumerate() {
        assert_eq!(
            g,
            w,
            "{engine} report diverges from the golden fixture at line {}",
            i + 1
        );
    }
    panic!(
        "{engine} report diverges from the golden fixture in length: \
         {} vs {} lines (regenerate with GOLDEN_REGEN=1 if intended)",
        got.lines().count(),
        want.lines().count()
    );
}

#[test]
fn batch_engine_matches_golden_report() {
    let reference = oracle::fold_phones(&default_fleet().0, config(), &PassRegistry::all(), |id| {
        campaign().device_labels(id)
    });
    let report = reference.report;
    let rendered = render(&report);
    if std::env::var_os("GOLDEN_REGEN").is_some() {
        let path = fixture_path();
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &rendered)
            .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
        eprintln!("regenerated {}", path.display());
        return;
    }
    assert_matches_golden("reference", &rendered);
}

#[test]
fn streaming_shard_merge_matches_golden_report() {
    assert_matches_golden("streaming", &render(default_streamed()));
}

/// The HL stream oracle, built fleet-wide from the parsed phones: every
/// freeze, then every self-shutdown the config's threshold keeps (timed
/// when the phone went down), stable-sorted by `(phone, time)` — so on
/// a tie a freeze comes first.
fn hl_stream(phones: &[PhoneDataset]) -> Vec<HlEvent> {
    let threshold = config().self_shutdown_threshold;
    let mut hl: Vec<HlEvent> = phones
        .iter()
        .flat_map(|p| p.freezes())
        .copied()
        .chain(
            phones
                .iter()
                .flat_map(|p| p.shutdown_events())
                .filter(|e| e.duration <= threshold)
                .map(|e| HlEvent {
                    phone_id: e.phone_id,
                    at: e.off_at,
                    kind: HlKind::SelfShutdown,
                }),
        )
        .collect();
    hl.sort_by_key(|e| (e.phone_id, e.at));
    hl
}

/// The sweep `repro --exp fig5 --sweep` and `--exp ablations` print:
/// the streamed report's coalescence panics against its merged HL
/// stream must sweep exactly like the brute-force oracle over the
/// reference phones, on the default campaign and on the 250-phone ×
/// 60-day mixed-fleet, worst-corruption one (most of its phones log HL
/// events but no panic).
#[test]
fn streamed_window_sweep_matches_brute_force_on_real_campaigns() {
    let assert_sweep = |what: &str, phones: &[PhoneDataset], report: &StudyReport| {
        let hl = hl_stream(phones);
        assert_eq!(report.hl_events, hl, "{what}: streamed HL stream");
        let windows = &COALESCENCE_SWEEP_WINDOWS_SECS;
        assert_eq!(
            report.coalescence.window_sweep(&report.hl_events, windows),
            oracle::window_sweep_brute_force(phones, &hl, windows),
            "{what}: sweep"
        );
    };
    let report = mixed_worst()
        .run_streaming(3, config(), &PassRegistry::all())
        .report;
    assert_sweep("mixed/worst", &mixed_worst_fleet().0, &report);

    // Last: the default campaign's fleet and report are shared with
    // the golden tests, which are likely still building them.
    assert_sweep("default", &default_fleet().0, default_streamed());
}

/// Every flash byte and every ground-truth counter of both harvests
/// equals the values committed above. The fleets are the ones the
/// tests above analyze, so no campaign is simulated twice.
#[test]
fn harvest_digests_are_pinned() {
    assert_eq!(mixed_worst_fleet().1, MIXED_WORST_HARVEST, "mixed/worst");
    assert_eq!(default_fleet().1, DEFAULT_HARVEST, "default");
}

#[test]
fn merged_shard_checkpoints_match_golden_report() {
    let registry = PassRegistry::all();
    let ckpts: Vec<Vec<u8>> = (0..3)
        .map(|index| {
            let path = std::env::temp_dir()
                .join(format!("symfail-golden-{}-{index}.bin", std::process::id()));
            let _ = std::fs::remove_file(&path);
            let opts = StreamingOptions {
                checkpoint: Some(path.clone()),
                shard: Some(ShardSpec { index, count: 3 }),
                ..StreamingOptions::default()
            };
            campaign()
                .run_streaming_opts(2, config(), &registry, &opts)
                .unwrap_or_else(|e| panic!("shard {index}/3 run failed: {e}"));
            let bytes =
                std::fs::read(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
            let _ = std::fs::remove_file(&path);
            bytes
        })
        .collect();
    let merger = merge_shard_checkpoints(
        &registry,
        config(),
        campaign().fingerprint(),
        "default",
        &ckpts,
    )
    .expect("merge of a full 3-shard cover");
    assert_matches_golden("shard-merge", &render(&merger.finish()));
}
