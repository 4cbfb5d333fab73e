//! Micro-benchmarks of the OS substrate and the logger data path: the
//! per-operation costs everything else is built from, up to one
//! phone's simulated day, one phone's parse, one phone's flash damage,
//! one repro probe's log scan and one small fleet through the campaign
//! driver.

use criterion::{black_box, criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use symfail_core::analysis::dataset::{ParseScratch, PhoneDataset};
use symfail_core::analysis::passes::PassRegistry;
use symfail_core::analysis::signature::{FailureSignature, MatchMode};
use symfail_core::flashfs::FlashFs;
use symfail_core::logger::{files, FailureLogger, LoggerConfig, LoggerFiles, PhoneContext};
use symfail_core::records::LogRecord;
use symfail_phone::calibration::CalibrationParams;
use symfail_phone::composition::{DeviceClass, DeviceProfile};
use symfail_phone::corruption::{CorruptionModel, CorruptionProfile};
use symfail_phone::device::Phone;
use symfail_phone::firmware::SymbianVersion;
use symfail_phone::fleet::{FleetCampaign, StreamingOptions};
use symfail_phone::repro::{FaultChannel, ReproCampaign};
use symfail_phone::user::UserProfile;
use symfail_sim_core::{SimDuration, SimRng, SimTime};
use symfail_symbian::descriptor::TBuf;
use symfail_symbian::heap::Heap;
use symfail_symbian::object_index::{ObjectIndex, ObjectKind};
use symfail_symbian::panic::codes;
use symfail_symbian::Panic;

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("substrate_micro");
    g.sample_size(20);
    g.measurement_time(std::time::Duration::from_secs(2));
    g.warm_up_time(std::time::Duration::from_millis(500));

    g.throughput(Throughput::Elements(1000));
    g.bench_function("heap_alloc_free_1000", |b| {
        b.iter(|| {
            let mut heap = Heap::with_capacity(1 << 20);
            for _ in 0..1000 {
                let cell = heap.alloc("app", 64).unwrap();
                heap.free(cell).unwrap();
            }
            black_box(heap.total_allocs())
        })
    });

    g.bench_function("descriptor_append_1000", |b| {
        b.iter(|| {
            let mut buf = TBuf::with_max_length(2000);
            for _ in 0..1000 {
                buf.append("ab").unwrap();
            }
            black_box(buf.length())
        })
    });

    g.bench_function("object_index_open_close_1000", |b| {
        b.iter(|| {
            let mut idx = ObjectIndex::new();
            for _ in 0..1000 {
                let h = idx.open("app", ObjectKind::Session);
                idx.close(h).unwrap();
            }
            black_box(idx.len())
        })
    });

    g.bench_function("rng_lognormal_1000", |b| {
        let mut rng = SimRng::seed_from(2);
        b.iter(|| (0..1000).map(|_| rng.lognormal(80.0, 0.5)).sum::<f64>())
    });

    g.bench_function("heartbeat_tick", |b| {
        let mut fs = FlashFs::new();
        let mut logger = FailureLogger::new(LoggerConfig::default());
        let ctx = PhoneContext {
            running_apps: &["Messages", "Clock"],
            battery_percent: 80,
            battery_low: false,
        };
        logger.on_boot(&mut fs, SimTime::ZERO, || ctx);
        let mut t = 0u64;
        b.iter(|| {
            t += 30;
            logger.on_tick(&mut fs, SimTime::from_secs(t), ctx);
        })
    });

    g.bench_function("log_record_encode_decode", |b| {
        let rec = LogRecord::Panic(symfail_core::records::PanicRecord {
            at: SimTime::from_secs(123),
            panic: Panic::new(codes::KERN_EXEC_3, "Messages", "dereferenced NULL"),
            running_apps: vec!["Messages".into(), "Log".into()],
            activity: None,
            battery: 67,
        });
        b.iter(|| {
            let line = rec.encode();
            black_box(LogRecord::decode(&line).unwrap())
        })
    });

    g.finish();

    // One powered day at the default 300 s period — 288 heartbeat
    // ticks, with the runapp and power snapshots every 10th — written
    // as runs cut at the snapshot ticks (what `Phone::advance` does
    // for a logger that writes every file) and as one `on_tick` per
    // tick; then the same day on a logger that writes `log` and
    // `beats` alone (the campaign driver's), as the one uncut run it
    // takes. Each iteration starts from a freshly booted logger on an
    // empty filesystem.
    const DAY_TICKS: u32 = 288;
    let mut g = c.benchmark_group("heartbeat_run");
    g.sample_size(20);
    g.measurement_time(std::time::Duration::from_secs(2));
    g.warm_up_time(std::time::Duration::from_millis(500));
    g.throughput(Throughput::Elements(u64::from(DAY_TICKS)));
    let period = SimDuration::from_secs(300);
    let ctx = PhoneContext {
        running_apps: &["Clock", "Messages"],
        battery_percent: 80,
        battery_low: false,
    };
    let booted_with = |files| {
        let mut fs = FlashFs::new();
        let mut logger = FailureLogger::with_files(
            LoggerConfig {
                heartbeat_period: period,
                snapshot_every: 10,
            },
            files,
        );
        logger.on_boot(&mut fs, SimTime::ZERO, || ctx);
        (logger, fs)
    };
    let booted = || booted_with(LoggerFiles::All);
    let tick_at = |i: u32| SimTime::ZERO + period * u64::from(i + 1);
    g.bench_function("runs_288", |b| {
        b.iter_batched(
            booted,
            |(mut logger, mut fs)| {
                let mut done = 0;
                while done < DAY_TICKS {
                    let run = logger.ticks_until_snapshot().min(DAY_TICKS - done);
                    logger.on_ticks(&mut fs, tick_at(done), run, || ctx);
                    done += run;
                }
                fs
            },
            BatchSize::LargeInput,
        )
    });
    g.bench_function("single_ticks_288", |b| {
        b.iter_batched(
            booted,
            |(mut logger, mut fs)| {
                for i in 0..DAY_TICKS {
                    logger.on_tick(&mut fs, tick_at(i), ctx);
                }
                fs
            },
            BatchSize::LargeInput,
        )
    });
    g.bench_function("log_and_beats_uncut_288", |b| {
        b.iter_batched(
            || booted_with(LoggerFiles::LogAndBeats),
            |(mut logger, mut fs)| {
                logger.on_ticks(&mut fs, tick_at(0), DAY_TICKS, || ctx);
                fs
            },
            BatchSize::LargeInput,
        )
    });
    g.finish();

    // `Phone::simulate_day`, 30 days at a time on a default-params
    // phone: heartbeat ticks, action generation, the logger's encodes
    // and the Symbian mechanisms, per simulated day.
    let mut g = c.benchmark_group("simulate_day");
    g.sample_size(10);
    g.measurement_time(std::time::Duration::from_secs(2));
    g.warm_up_time(std::time::Duration::from_millis(500));
    g.throughput(Throughput::Elements(30));
    let fresh_phone = || Phone::new(0, CalibrationParams::default(), SimRng::seed_from(3));
    g.bench_function("fresh_phone_x30", |b| {
        b.iter_batched(
            fresh_phone,
            |mut phone| {
                for day in 0..30 {
                    phone.simulate_day(day);
                }
                phone
            },
            BatchSize::LargeInput,
        )
    });
    // Days 30..60 of a phone whose log database already holds 30 days
    // of records (its retention): a per-tick scan of the database, or
    // of any file that grows with the phone's age, shows up here as a
    // gap to the fresh case.
    g.bench_function("month_old_phone_x30", |b| {
        b.iter_batched(
            || {
                let mut phone = fresh_phone();
                for day in 0..30 {
                    phone.simulate_day(day);
                }
                phone
            },
            |mut phone| {
                for day in 30..60 {
                    phone.simulate_day(day);
                }
                phone
            },
            BatchSize::LargeInput,
        )
    });
    g.finish();

    // `PhoneDataset::from_flashfs_with` over one default phone's whole
    // 425-day harvest, recycling one `ParseScratch` the way a campaign
    // worker does between phones: once clean, once after worst-profile
    // corruption, whose repeated beats build the duplicate set. Then
    // `PhoneDataset::from_log` over the clean harvest's log alone, the
    // parse `Strict` repro probes run and, through the same body, the
    // campaign driver under passes that read the log alone (signature
    // extraction's `coalesce`).
    let params = CalibrationParams::default();
    let mut phone = Phone::new(0, params, SimRng::seed_from(3));
    for day in 0..u64::from(params.campaign_days) {
        phone.simulate_day(day);
    }
    let clean = phone.into_flashfs();
    let mut worst = clean.clone();
    CorruptionModel::from_profile(CorruptionProfile::Worst)
        .inject(&mut worst, &mut SimRng::seed_from(3).fork("corruption", 0));
    assert!(
        PhoneDataset::from_flashfs(0, &worst).defects().duplicate > 0,
        "the worst-profile harvest must repeat beats"
    );
    let mut g = c.benchmark_group("parse");
    g.sample_size(20);
    g.measurement_time(std::time::Duration::from_secs(2));
    g.warm_up_time(std::time::Duration::from_millis(500));
    for (name, fs) in [("clean_phone_425d", &clean), ("worst_phone_425d", &worst)] {
        g.throughput(Throughput::Bytes(fs.total_size()));
        let mut scratch = ParseScratch::default();
        g.bench_function(name, |b| {
            b.iter(|| {
                let ds = PhoneDataset::from_flashfs_with(0, fs, &mut scratch);
                let kept = ds.defects().records_kept;
                ds.recycle(&mut scratch);
                kept
            })
        });
    }
    let clean_log = clean.read_bytes(files::LOG).unwrap_or_default();
    g.throughput(Throughput::Bytes(clean_log.len() as u64));
    g.bench_function("log_only_425d", |b| {
        b.iter(|| PhoneDataset::from_log(0, clean_log).defects().records_kept)
    });
    g.finish();

    // `PhoneDataset::from_files` over the `beats` file alone of one
    // always-on phone's 425 days (no nightly shutdown, so the most
    // beats a phone writes): the per-beat parse cost, beside the
    // `heartbeat_run` group's per-beat write cost.
    let mut rng = SimRng::seed_from(3);
    let always_on = UserProfile::sample_with_nightly(&params, &mut rng, false);
    let mut phone = Phone::with_profile(0, params, always_on, rng, LoggerFiles::LogAndBeats);
    for day in 0..u64::from(params.campaign_days) {
        phone.simulate_day(day);
    }
    let always_on = phone.into_flashfs();
    let beats = always_on.read_bytes(files::BEATS).unwrap_or_default();
    let mut g = c.benchmark_group("beats_parse");
    g.sample_size(20);
    g.measurement_time(std::time::Duration::from_secs(2));
    g.warm_up_time(std::time::Duration::from_millis(500));
    g.throughput(Throughput::Bytes(beats.len() as u64));
    let mut scratch = ParseScratch::default();
    g.bench_function("always_on_425d", |b| {
        b.iter(|| {
            let ds = PhoneDataset::from_files(0, &[], beats, &mut scratch);
            let kept = ds.defects().records_kept;
            ds.recycle(&mut scratch);
            kept
        })
    });
    g.finish();

    // `CorruptionModel::inject` at the worst profile on a fresh clone
    // of the same 425-day harvest, with the stream the `parse` group's
    // worst harvest was damaged from: the clone is set-up, untimed.
    let mut g = c.benchmark_group("corrupt");
    g.sample_size(20);
    g.measurement_time(std::time::Duration::from_secs(2));
    g.warm_up_time(std::time::Duration::from_millis(500));
    g.throughput(Throughput::Bytes(clean.total_size()));
    let worst_model = CorruptionModel::from_profile(CorruptionProfile::Worst);
    g.bench_function("worst_phone_425d", |b| {
        b.iter_batched(
            || (clean.clone(), SimRng::seed_from(3).fork("corruption", 0)),
            |(mut fs, mut rng)| {
                let injected = worst_model.inject(&mut fs, &mut rng);
                (fs, injected)
            },
            BatchSize::LargeInput,
        )
    });
    g.finish();

    // One `minimize` probe of a boosted 10-day repro phone, judged under
    // `Core`: simulated afresh against a signature its log does not
    // hold (the log-only harvest a clean probe runs, then a scan of the
    // whole log), the same with `beats` written too (the harvest a
    // probe under a damaging profile needs before its corruption), and
    // answered at 5 days from a kept 10-day harvest against a signature
    // of its own (a scan of the kept log's 5-day prefix, in place), as
    // the corruption drop and the day bisections are.
    let probe = ReproCampaign {
        seed: 11,
        days: 10,
        channels: FaultChannel::ALL.to_vec(),
        corruption: CorruptionProfile::None,
        device: DeviceProfile {
            class: DeviceClass::Smartphone,
            firmware: SymbianVersion::V8_0,
        },
    };
    let config = params.analysis_config();
    let kept = probe.harvest();
    let matches = |signature: &FailureSignature, log: &[u8]| {
        signature.matches_log(log, &config, probe.labels(), MatchMode::Core)
    };
    let signature = FailureSignature::from_phone(
        &PhoneDataset::from_log(0, kept.log(5)),
        &config,
        probe.labels(),
    )
    .pop()
    .expect("a boosted 5-day repro phone panics");
    assert!(matches(&signature, kept.log(5)));
    let absent = codes::ALL
        .iter()
        .map(|(code, _)| FailureSignature {
            code: code.to_string(),
            ..signature.clone()
        })
        .find(|s| !matches(s, kept.log(10)))
        .expect("the 10-day log lacks some code of the signature's raiser");
    let mut g = c.benchmark_group("repro_probe");
    g.sample_size(20);
    g.measurement_time(std::time::Duration::from_secs(2));
    g.warm_up_time(std::time::Duration::from_millis(500));
    g.bench_function("fresh_10d", |b| {
        b.iter(|| matches(&absent, probe.harvest().log(10)))
    });
    let with_beats = ReproCampaign {
        corruption: CorruptionProfile::Worst,
        ..probe.clone()
    };
    g.bench_function("fresh_10d_with_beats", |b| {
        b.iter(|| matches(&absent, with_beats.harvest().log(10)))
    });
    g.bench_function("cut_5d_of_kept_10d", |b| {
        b.iter(|| matches(&signature, kept.log(5)))
    });
    g.finish();

    // A small default fleet end to end at one worker: through the
    // campaign driver (`run_streaming_opts`: phones that write only the
    // files it reads, on flash and parse buffers carried from phone to
    // phone, folded and merged), and as the reference path that keeps
    // every phone's full flash (`run`) and parses each on fresh buffers.
    let fleet = FleetCampaign::new(
        3,
        CalibrationParams {
            phones: 4,
            campaign_days: 60,
            enrollment_spread_days: 10,
            attrition_spread_days: 10,
            ..CalibrationParams::default()
        },
    );
    let registry = PassRegistry::all();
    let config = fleet.params().analysis_config();
    let mut g = c.benchmark_group("fleet_path");
    g.sample_size(10);
    g.measurement_time(std::time::Duration::from_secs(2));
    g.warm_up_time(std::time::Duration::from_millis(500));
    g.throughput(Throughput::Elements(4));
    g.bench_function("driver_4x60d_w1", |b| {
        b.iter(|| {
            fleet
                .run_streaming_opts(1, config, &registry, &StreamingOptions::default())
                .expect("no checkpoint to write")
                .parse_bytes
        })
    });
    g.bench_function("run_then_parse_4x60d", |b| {
        b.iter(|| {
            fleet
                .run()
                .iter()
                .map(|h| {
                    let ds = PhoneDataset::from_flashfs(h.phone_id, &h.flashfs);
                    ds.defects().records_kept
                })
                .sum::<u64>()
        })
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
