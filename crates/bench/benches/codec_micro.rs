//! Micro-benchmarks of the log codec: MB/s through the zero-copy
//! decoder on clean and worst-corruption inputs, and through the
//! append-into-buffer encoder.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use symfail_core::flashfs::FlashFs;
use symfail_core::logger::files;
use symfail_core::records::{BootRecord, HeartbeatEvent, LogRecord, PanicRecord, RecordRef};
use symfail_phone::corruption::{CorruptionModel, CorruptionProfile};
use symfail_sim_core::{SimDuration, SimRng, SimTime};
use symfail_symbian::panic::codes;
use symfail_symbian::servers::logdb::ActivityKind;
use symfail_symbian::Panic;

/// A representative record mix: mostly panics with context, with a
/// boot record (alternating freeze / clean shutdown) every eighth line.
fn corpus_records(n: usize) -> Vec<LogRecord> {
    let mut rng = SimRng::seed_from(42);
    let codes = [codes::KERN_EXEC_3, codes::USER_11, codes::E32USER_CBASE_46];
    let apps: &[&[&str]] = &[
        &["Messages"],
        &["Messages", "Camera"],
        &["Log", "Bluetooth", "Clock"],
        &[],
    ];
    (0..n)
        .map(|i| {
            let at = SimTime::from_millis(i as u64 * 31_000 + rng.next_u64() % 500);
            if i % 8 == 7 {
                LogRecord::Boot(BootRecord {
                    boot_at: at,
                    last_event: HeartbeatEvent::Alive,
                    last_event_at: at - SimDuration::from_secs(45),
                    off_duration: (i % 16 == 7).then(|| SimDuration::from_secs(90)),
                    freeze_detected: i % 16 != 7,
                })
            } else {
                LogRecord::Panic(PanicRecord {
                    at,
                    panic: Panic::new(
                        codes[i % codes.len()],
                        "Messages",
                        "dereferenced NULL pointer",
                    ),
                    running_apps: apps[i % apps.len()].iter().map(|s| s.to_string()).collect(),
                    activity: (i % 3 == 0).then_some(ActivityKind::VoiceCall),
                    battery: (i % 100) as u8,
                })
            }
        })
        .collect()
}

/// Encodes the corpus into a log file and optionally damages it with
/// the named corruption profile, returning the resulting text.
fn corpus_text(records: &[LogRecord], profile: CorruptionProfile) -> String {
    let mut fs = FlashFs::new();
    for r in records {
        fs.append_line_with(files::LOG, |buf| r.encode_into(buf));
    }
    if profile != CorruptionProfile::None {
        let model = CorruptionModel::from_profile(profile);
        model.inject(&mut fs, &mut SimRng::seed_from(9));
    }
    String::from_utf8_lossy(fs.read_bytes(files::LOG).unwrap_or(&[])).into_owned()
}

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("codec_micro");
    g.sample_size(20);
    g.measurement_time(std::time::Duration::from_secs(2));
    g.warm_up_time(std::time::Duration::from_millis(500));

    let records = corpus_records(4096);
    let clean = corpus_text(&records, CorruptionProfile::None);
    let worst = corpus_text(&records, CorruptionProfile::Worst);

    for (label, text) in [("clean", &clean), ("worst", &worst)] {
        g.throughput(Throughput::Bytes(text.len() as u64));
        g.bench_function(format!("decode_zero_copy_{label}"), |b| {
            b.iter(|| {
                let mut kept = 0u64;
                for line in text.lines() {
                    if RecordRef::decode(line).is_ok() {
                        kept += 1;
                    }
                }
                black_box(kept)
            })
        });
    }

    g.throughput(Throughput::Bytes(clean.len() as u64));
    g.bench_function("encode_into_reused_buf", |b| {
        let mut buf = Vec::with_capacity(clean.len() + records.len());
        b.iter(|| {
            buf.clear();
            for r in &records {
                r.encode_into(&mut buf);
                buf.push(b'\n');
            }
            black_box(buf.len())
        })
    });

    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
