//! The JSON files one run hands the next — signature catalogs, repro
//! configs and `--timing-json` cost vectors — read through the one
//! strict reader (`symfail::core::json`): each file round-trips, each
//! misread the substring readers made is refused or fixed, and
//! mutated files give a typed verdict, never a panic.

use symfail::core::analysis::signature::{
    signatures_from_json, signatures_to_json, FailureSignature, MatchMode,
};
use symfail::core::json::{self, Value};
use symfail::phone::corruption::CorruptionProfile;
use symfail::phone::plan::phone_costs_from_json;
use symfail::phone::repro::{FaultChannel, ReproConfig};
use symfail::sim::SimRng;

/// Signatures with every kind of field, awkward strings included.
fn signatures() -> Vec<FailureSignature> {
    let plain = FailureSignature {
        code: "KERN-EXEC 3".into(),
        raised_by: "Messages".into(),
        apps: vec!["Camera".into(), "Messages".into()],
        activity: Some("voice call".into()),
        related: Some("freeze".into()),
        device_class: "smartphone".into(),
        firmware: "8.0".into(),
    };
    let awkward = FailureSignature {
        code: "MSGS Client 11".into(),
        raised_by: "q\"b\\s/n\nt\tc\u{1} ü 😀".into(),
        apps: Vec::new(),
        activity: None,
        related: None,
        ..plain.clone()
    };
    vec![plain, awkward]
}

fn catalog(sigs: &[FailureSignature]) -> String {
    let rows: Vec<(FailureSignature, u64)> = sigs.iter().cloned().zip(1..).collect();
    signatures_to_json(&rows)
}

fn config() -> ReproConfig {
    ReproConfig {
        seed: u64::MAX - 1,
        days: 7,
        channels: vec![FaultChannel::Voice, FaultChannel::Background],
        corruption: CorruptionProfile::Moderate,
        mode: MatchMode::Strict,
        signature: signatures().remove(1),
    }
}

/// A timing file in the layout `repro --timing-json` writes (schema
/// v10), with each cost at full precision.
fn timing(start: u64, costs: &[f64]) -> String {
    let costs: Vec<String> = costs.iter().map(|c| c.to_string()).collect();
    format!(
        "{{\n  \"schema\": \"symfail-pipeline-timing/10\",\n  \"seed\": 2005,\n  \
         \"phones\": {},\n  \"days\": 30,\n  \"workers\": 1,\n  \"shard_index\": 0,\n  \
         \"shard_count\": 1,\n  \"shard_start\": 0,\n  \"shard_end\": {},\n  \
         \"balance\": \"uniform\",\n  \"shard_plan\": [\n    {{\"index\": 0, \"start\": 0, \
         \"end\": 3, \"predicted_cost\": 872.907, \"measured_seconds\": 0.001234567}}\n  ],\n  \
         \"phone_cost_start\": {start},\n  \"phone_costs\": [{}],\n  \"corruption\": \"none\",\n  \
         \"parse_bytes\": 1024,\n  \"parse_seconds\": 0.000123,\n  \
         \"worker_alloc_calls\": [null, 12],\n  \"stages\": [\n    {{\"stage\": \
         \"campaign+parse+fold\", \"seconds\": 0.012345, \"allocs\": 3, \"alloc_bytes\": 96}}\n  \
         ]\n}}\n",
        costs.len(),
        costs.len(),
        costs.join(", ")
    )
}

/// `text` with the same tokens laid out differently: each `{`, `[`
/// and `,` outside a string ends its line, the lines are indented by
/// depth with tabs, and every `:` has a space on both sides.
fn reformat(text: &str) -> String {
    let (mut out, mut depth, mut in_string, mut escaped) = (String::new(), 0, false, false);
    let newline = |out: &mut String, depth: usize| {
        out.push('\n');
        out.push_str(&"\t".repeat(depth));
    };
    for c in text.chars() {
        if in_string {
            out.push(c);
            (in_string, escaped) = (escaped || c != '"', !escaped && c == '\\');
            continue;
        }
        match c {
            '{' | '[' => {
                depth += 1;
                out.push(c);
                newline(&mut out, depth);
            }
            '}' | ']' => {
                depth -= 1;
                newline(&mut out, depth);
                out.push(c);
            }
            ',' => {
                out.push(c);
                newline(&mut out, depth);
            }
            ':' => out.push_str(" : "),
            '"' => {
                in_string = true;
                out.push(c);
            }
            c if c.is_ascii_whitespace() => {}
            c => out.push(c),
        }
    }
    out
}

#[test]
fn catalogs_round_trip_through_the_reader() {
    for sigs in [signatures(), Vec::new()] {
        let text = catalog(&sigs);
        assert_eq!(signatures_from_json(&text), Ok(sigs.clone()));
        assert_eq!(signatures_from_json(&reformat(&text)), Ok(sigs));
    }
}

#[test]
fn repro_configs_round_trip_through_the_reader() {
    let cfg = config();
    assert_eq!(ReproConfig::parse_json(&cfg.to_json()), Ok(cfg.clone()));
    assert_eq!(ReproConfig::parse_json(&reformat(&cfg.to_json())), Ok(cfg));
}

#[test]
fn timing_costs_round_trip_through_the_reader() {
    for (start, costs) in [
        (0, vec![0.001234567, 2.5, 0.0]),
        (3, vec![]),
        (7, vec![1e-300]),
    ] {
        assert_eq!(
            phone_costs_from_json(&timing(start, &costs)),
            Ok((start, costs))
        );
    }
}

// Each misread of the substring readers, one test apiece.

#[test]
fn an_empty_catalog_holds_no_signatures() {
    assert_eq!(signatures_from_json(&catalog(&[])), Ok(Vec::new()));
}

#[test]
fn a_fractional_day_count_is_refused() {
    let text = config()
        .to_json()
        .replace("\"days\": 7,", "\"days\": 10.5,");
    assert_eq!(
        ReproConfig::parse_json(&text),
        Err("repro config: days is not an unsigned integer".to_string())
    );
}

#[test]
fn a_second_seed_key_is_refused() {
    let text = config()
        .to_json()
        .replace("\"days\":", "\"seed\": 1,\n  \"days\":");
    let at = text.rfind("\"seed\"").unwrap();
    assert_eq!(
        ReproConfig::parse_json(&text),
        Err(format!(
            "repro config: invalid JSON at byte {at}: duplicate key"
        ))
    );
}

#[test]
fn a_space_before_the_colon_reads() {
    let text = config().to_json().replace("\"seed\":", "\"seed\" :");
    assert_eq!(ReproConfig::parse_json(&text), Ok(config()));
}

#[test]
fn a_catalog_with_trailing_bytes_is_refused() {
    let text = catalog(&signatures());
    assert_eq!(
        signatures_from_json(&format!("{text}garbage")),
        Err(format!(
            "invalid JSON at byte {}: trailing bytes after the value",
            text.len()
        ))
    );
}

#[test]
fn a_reindented_catalog_reads() {
    let text = reformat(&catalog(&signatures()));
    assert!(text.contains("{\n\t\t\t\t\"code\" : "), "{text}");
    assert_eq!(signatures_from_json(&text), Ok(signatures()));
}

/// `v` written back as compact JSON: numbers as their text, strings
/// with the escapes they need.
fn write(v: &Value, out: &mut String) {
    let string = |s: &str, out: &mut String| {
        out.push('"');
        for c in s.chars() {
            match c {
                '"' | '\\' => out.extend(['\\', c]),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out.push('"');
    };
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Number(text) => out.push_str(text),
        Value::String(s) => string(s, out),
        Value::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                out.push_str(if i == 0 { "" } else { "," });
                write(item, out);
            }
            out.push(']');
        }
        Value::Object(members) => {
            out.push('{');
            for (i, (key, value)) in members.iter().enumerate() {
                out.push_str(if i == 0 { "" } else { "," });
                string(key, out);
                out.push(':');
                write(value, out);
            }
            out.push('}');
        }
    }
}

/// One mutant of `base`: a flipped bit, a deleted span, inserted
/// structural bytes, a truncation, or a span duplicated in place.
fn mutate(base: &[u8], rng: &mut SimRng) -> Vec<u8> {
    const INSERTS: &[u8] = b"{}[]\":,\\ -+.0123456789eEtfnulu\xff";
    let mut bytes = base.to_vec();
    let at = rng.index(bytes.len() + 1);
    let end = (at + 1 + rng.index(32)).min(bytes.len());
    match rng.index(5) {
        0 if at < bytes.len() => bytes[at] ^= 1 << rng.index(8),
        1 => {
            bytes.drain(at..end);
        }
        2 => {
            let insert: Vec<u8> = (0..1 + rng.index(4))
                .map(|_| *rng.choose(INSERTS))
                .collect();
            bytes.splice(at..at, insert);
        }
        3 => bytes.truncate(at),
        _ => {
            let span = bytes[at..end].to_vec();
            bytes.splice(at..at, span);
        }
    }
    bytes
}

/// Reads every mutant of `base` twice and, when it is accepted, reads
/// the re-written value again: a panic, two different verdicts or a
/// value that changes on the way round fails, naming the mutant.
fn mutants_hold<T: PartialEq + std::fmt::Debug>(
    base: &str,
    rng: &mut SimRng,
    read: fn(&str) -> Result<T, String>,
    rewrite: fn(&T) -> String,
) -> (usize, usize) {
    let mut accepted = 0;
    const MUTANTS: usize = 1500;
    for _ in 0..MUTANTS {
        let text = String::from_utf8_lossy(&mutate(base.as_bytes(), rng)).into_owned();
        let verdict = std::panic::catch_unwind(|| read(&text))
            .unwrap_or_else(|_| panic!("reader panicked on {text:?}"));
        assert_eq!(verdict, read(&text), "second read differs on {text:?}");
        if let Ok(value) = verdict {
            accepted += 1;
            assert_eq!(read(&rewrite(&value)).as_ref(), Ok(&value), "{text:?}");
        }
        let tree = std::panic::catch_unwind(|| json::parse(&text))
            .unwrap_or_else(|_| panic!("json::parse panicked on {text:?}"));
        assert_eq!(tree, json::parse(&text), "{text:?}");
        if let Ok(tree) = tree {
            let mut out = String::new();
            write(&tree, &mut out);
            assert_eq!(json::parse(&out), Ok(tree), "{text:?}");
        }
    }
    (accepted, MUTANTS)
}

/// A deterministic mutation test over every JSON reader: a fixed set
/// of mutants per input, drawn from one seeded stream.
#[test]
fn mutated_json_inputs_never_panic_and_round_trip() {
    let mut rng = SimRng::seed_from(0x5eed_f11e);
    let sigs = catalog(&signatures());
    let (catalogs, n) = mutants_hold(&sigs, &mut rng, signatures_from_json, |s| catalog(s));
    let cfg = config().to_json();
    let (configs, _) = mutants_hold(&cfg, &mut rng, ReproConfig::parse_json, |c| c.to_json());
    let costs = timing(0, &[0.001234567, 2.5, 0.25]);
    let (timings, _) = mutants_hold(&costs, &mut rng, phone_costs_from_json, |(start, costs)| {
        timing(*start, costs)
    });
    // Some mutants of each input must pass, and most must not, or
    // the test exercises neither side.
    for (input, accepted) in [
        ("catalog", catalogs),
        ("config", configs),
        ("timing", timings),
    ] {
        assert!(
            (n / 100..n / 2).contains(&accepted),
            "{input}: {accepted} of {n} mutants accepted"
        );
    }
}
