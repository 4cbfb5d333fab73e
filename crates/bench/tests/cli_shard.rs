//! CLI-level shard/merge contract: a 13-phone fleet split 16 ways
//! produces empty-interval shard checkpoints (more shards than
//! phones), and `repro merge-checkpoints` must accept the full set —
//! empties included — and reassemble the whole-fleet report. This
//! drives the real binary, not the library: flag parsing, checkpoint
//! I/O and process exit codes are all under test.

use std::path::PathBuf;
use std::process::Command;

const PHONES: u32 = 13;
const SHARDS: u32 = 16;
const DAYS: u32 = 30;

fn repro() -> Command {
    Command::new(env!("CARGO_BIN_EXE_repro"))
}

fn ckpt_path(index: u32) -> PathBuf {
    std::env::temp_dir().join(format!(
        "symfail-clishard-{}-{index}.bin",
        std::process::id()
    ))
}

#[test]
fn oversharded_fleet_merges_at_the_cli() {
    let campaign_flags = |cmd: &mut Command| {
        cmd.args(["--phones", &PHONES.to_string(), "--days", &DAYS.to_string()]);
    };

    // Run all 16 shard processes; with 13 phones some intervals are
    // necessarily empty, and each process must still exit zero and
    // write a valid checkpoint.
    let mut paths = Vec::new();
    for index in 0..SHARDS {
        let path = ckpt_path(index);
        let _ = std::fs::remove_file(&path);
        let mut cmd = repro();
        campaign_flags(&mut cmd);
        cmd.args(["--workers", "2"]);
        cmd.args(["--shard", &format!("{index}/{SHARDS}")]);
        cmd.args(["--checkpoint", path.to_str().unwrap()]);
        let out = cmd.output().expect("spawn repro");
        assert!(
            out.status.success(),
            "shard {index}/{SHARDS} exited nonzero:\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(path.exists(), "shard {index}/{SHARDS} wrote no checkpoint");
        paths.push(path);
    }

    // The uniform i/N formula over 13 phones x 16 shards leaves shard
    // 12/16 (among others) with an empty interval — the scenario this
    // test exists to pin. Empty checkpoints are near-constant-size;
    // make sure at least one such file really is in the merged set.
    let sizes: Vec<u64> = paths
        .iter()
        .map(|p| std::fs::metadata(p).unwrap().len())
        .collect();
    let min = sizes.iter().min().unwrap();
    let max = sizes.iter().max().unwrap();
    assert!(
        min < max,
        "expected at least one empty-interval checkpoint smaller than the rest; sizes: {sizes:?}"
    );

    // Merge all 16 at the CLI. The merged report must cover the whole
    // fleet and the process must exit zero.
    let merged = ckpt_path(999);
    let _ = std::fs::remove_file(&merged);
    let mut cmd = repro();
    cmd.arg("merge-checkpoints");
    cmd.arg(merged.to_str().unwrap());
    for p in &paths {
        cmd.arg(p.to_str().unwrap());
    }
    campaign_flags(&mut cmd);
    let out = cmd.output().expect("spawn repro merge-checkpoints");
    assert!(
        out.status.success(),
        "merge-checkpoints exited nonzero:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains(&format!(
            "merged {SHARDS} shard checkpoints ({PHONES} phones)"
        )),
        "merge summary missing from stderr:\n{stderr}"
    );
    assert!(merged.exists(), "merge wrote no whole-fleet checkpoint");

    for p in paths.iter().chain([&merged]) {
        let _ = std::fs::remove_file(p);
    }
}

/// Plans shards from a measured cost file: a real `--workers 1` run
/// writes `--timing-json`, and `plan-shards --balance measured` reads
/// its `phone_costs` back. At 6 phones × 30 days a shard costs a
/// fraction of a millisecond, so this pins the reader, the table's shape
/// and that every shard's cost prints non-zero, not the values. The
/// file is refused for a different `--phones` and when it comes from
/// a sharded run.
#[test]
fn plan_shards_balances_on_a_measured_timing_file() {
    let campaign = ["--phones", "6", "--days", "30"];
    let timing = |name: &str, extra: &[&str]| {
        let path = std::env::temp_dir().join(format!(
            "symfail-clishard-{}-{name}.json",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        let out = repro()
            .args(["--exp", "mtbf", "--workers", "1"])
            .args(campaign)
            .args(extra)
            .args(["--timing-json", path.to_str().unwrap()])
            .output()
            .expect("spawn repro");
        assert!(
            out.status.success(),
            "timing run exited nonzero:\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
        path
    };
    let plan = |costs: &std::path::Path, phones: &str| {
        repro()
            .args(["plan-shards", "--shards", "2", "--balance", "measured"])
            .args(["--costs-json", costs.to_str().unwrap()])
            .args(["--phones", phones, "--days", "30"])
            .output()
            .expect("spawn repro plan-shards")
    };

    let whole = timing("costs", &[]);
    let out = plan(&whole, "6");
    assert!(
        out.status.success(),
        "plan-shards exited nonzero:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut lines = stdout.lines();
    let header = lines.next().expect("plan header");
    assert!(header.ends_with("2 shards, balance measured"), "{header}");
    // The cut table: one `[lo, hi)` row per shard, chaining from 0 to
    // the fleet size, each with a non-zero predicted cost.
    let rows: Vec<(u32, u32, f64)> = lines
        .filter_map(|line| {
            let (range, rest) = line.split_once('[')?.1.split_once(')')?;
            let (lo, hi) = range.split_once(',')?;
            let cost = rest.split_whitespace().last()?;
            Some((
                lo.trim().parse().ok()?,
                hi.trim().parse().ok()?,
                cost.parse().ok()?,
            ))
        })
        .collect();
    assert_eq!(rows.len(), 2, "{stdout}");
    assert_eq!(rows[0].0, 0, "{stdout}");
    assert_eq!(rows[0].1, rows[1].0, "{stdout}");
    assert_eq!(rows[1].1, 6, "{stdout}");
    for &(_, _, cost) in &rows {
        assert!(
            cost > 0.0,
            "a shard's measured cost prints as zero:\n{stdout}"
        );
    }

    let refused = |out: std::process::Output, message: String| {
        assert_eq!(out.status.code(), Some(1));
        assert_eq!(String::from_utf8_lossy(&out.stderr), message + "\n");
        assert!(out.stdout.is_empty());
    };
    refused(
        plan(&whole, "7"),
        format!(
            "{}: phone_costs has 6 entries, --phones says 7",
            whole.display()
        ),
    );
    let sharded = timing("costs-shard", &["--shard", "1/2"]);
    refused(
        plan(&sharded, "6"),
        format!(
            "{}: phone_cost_start is 3, need a whole-fleet (unsharded) timing file",
            sharded.display()
        ),
    );
    for p in [whole, sharded] {
        let _ = std::fs::remove_file(p);
    }
}

/// `phone_cost_start` is a phone id: a timing file that gives it as a
/// fraction is refused, not read as its integer part.
#[test]
fn a_fractional_cost_start_is_refused() {
    let path = std::env::temp_dir().join(format!(
        "symfail-clishard-{}-fraction.json",
        std::process::id()
    ));
    let out = repro()
        .args([
            "--exp",
            "mtbf",
            "--workers",
            "1",
            "--phones",
            "2",
            "--days",
            "1",
        ])
        .args(["--timing-json", path.to_str().unwrap()])
        .output()
        .expect("spawn repro");
    assert!(out.status.success());
    let timing = std::fs::read_to_string(&path).unwrap();
    let fraction = timing.replace("\"phone_cost_start\": 0,", "\"phone_cost_start\": 0.5,");
    assert_ne!(fraction, timing);
    std::fs::write(&path, fraction).unwrap();
    let out = repro()
        .args(["plan-shards", "--shards", "2", "--balance", "measured"])
        .args(["--costs-json", path.to_str().unwrap()])
        .args(["--phones", "2", "--days", "1"])
        .output()
        .expect("spawn repro plan-shards");
    let _ = std::fs::remove_file(&path);
    assert_eq!(out.status.code(), Some(1));
    assert_eq!(
        String::from_utf8_lossy(&out.stderr),
        format!(
            "{}: phone_cost_start is not an unsigned integer\n",
            path.display()
        )
    );
    assert!(out.stdout.is_empty());
}
