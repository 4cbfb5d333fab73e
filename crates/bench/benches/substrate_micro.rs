//! Micro-benchmarks of the OS substrate and the logger data path: the
//! per-operation costs everything else is built from, up to one
//! phone's simulated day and one phone's parse.

use criterion::{black_box, criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use symfail_core::analysis::dataset::{ParseScratch, PhoneDataset};
use symfail_core::flashfs::FlashFs;
use symfail_core::logger::{FailureLogger, LoggerConfig, PhoneContext};
use symfail_core::records::LogRecord;
use symfail_phone::calibration::CalibrationParams;
use symfail_phone::corruption::{CorruptionModel, CorruptionProfile};
use symfail_phone::device::Phone;
use symfail_sim_core::{SimRng, SimTime};
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
        let running = vec!["Messages".to_string(), "Clock".to_string()];
        let ctx = PhoneContext {
            running_apps: &running,
            battery_percent: 80,
            battery_low: false,
        };
        logger.on_boot(&mut fs, SimTime::ZERO, ctx);
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
    // corruption, whose repeated beats build the duplicate set.
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
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
