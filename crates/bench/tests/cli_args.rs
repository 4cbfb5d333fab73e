//! The `repro` command-line contract: for every subcommand, which
//! flags it accepts, the exact message each bad argument earns, and
//! the exit code. Every case in the table fails before any campaign
//! runs, so it is cheap; one `plan-shards` case pins a full stdout,
//! one closes stdout under a running command, and one hands
//! `minimize` the catalog of a one-phone, one-day campaign.

use std::process::{Command, Output, Stdio};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("spawn repro")
}

/// `(argv, stderr)`: each vector must exit 1 with exactly this stderr
/// (plus the trailing newline) and print nothing on stdout.
const REFUSED: &[(&[&str], &str)] = &[
    // Unknown flags, per subcommand.
    (&["--bogus"], "unknown flag --bogus"),
    (&["merge-checkpoints", "--bogus"], "unknown flag --bogus"),
    (&["extract-signatures", "--bogus"], "unknown flag --bogus"),
    (&["plan-shards", "--bogus"], "unknown flag --bogus"),
    (&["minimize", "--bogus"], "unknown flag --bogus"),
    (
        &["plan-shards", "--analyses", "all"],
        "unknown flag --analyses",
    ),
    (&["plan-shards", "--partial"], "unknown flag --partial"),
    (&["minimize", "--phones", "3"], "unknown flag --phones"),
    (&["minimize", "--seed", "1"], "unknown flag --seed"),
    (&["minimize", "--fleet", "mixed"], "unknown flag --fleet"),
    (
        &["extract-signatures", "--workers", "2"],
        "unknown flag --workers",
    ),
    // Missing and malformed values.
    (&["--exp"], "--exp needs a value"),
    (&["--exp", "bogus"], "unknown experiment bogus"),
    (&["--seed"], "--seed needs an integer"),
    (&["--seed", "x"], "--seed needs an integer"),
    (&["--phones", "-1"], "--phones needs a positive phone count"),
    (&["--days", "x"], "--days needs a positive day count"),
    // A campaign of no phones or no days is refused by every
    // subcommand that takes campaign flags, never run as a one-day or
    // empty campaign.
    (&["--phones", "0"], "--phones needs a positive phone count"),
    (
        &["--phones", "2", "--days", "0", "--exp", "mtbf"],
        "--days needs a positive day count",
    ),
    (
        &["merge-checkpoints", "out.bin", "a.bin", "--phones", "0"],
        "--phones needs a positive phone count",
    ),
    (
        &["merge-checkpoints", "out.bin", "a.bin", "--days", "0"],
        "--days needs a positive day count",
    ),
    (
        &["plan-shards", "--phones", "0", "--shards", "2"],
        "--phones needs a positive phone count",
    ),
    (
        &["plan-shards", "--shards", "2", "--days", "0"],
        "--days needs a positive day count",
    ),
    (
        &["extract-signatures", "--phones", "0"],
        "--phones needs a positive phone count",
    ),
    (
        &["extract-signatures", "--days", "0"],
        "--days needs a positive day count",
    ),
    (&["--workers", "0"], "--workers needs a positive integer"),
    (
        &["--checkpoint-every", "0"],
        "--checkpoint-every needs a positive phone count",
    ),
    (&["--stop-after", "x"], "--stop-after needs a phone count"),
    (&["--checkpoint"], "--checkpoint needs a path"),
    (
        &["--corruption", "bogus"],
        "unknown corruption profile bogus (try none|light|moderate|worst)",
    ),
    (&["--corruption"], "--corruption needs a profile name"),
    (
        &["--fleet", "nope:1"],
        "--fleet: unknown device class \"nope\" (try communicator|smartphone|entry-level)",
    ),
    (&["--fleet"], "--fleet needs a composition spec"),
    (
        &["--balance", "bogus"],
        "--balance needs uniform, static or measured, got bogus",
    ),
    (
        &["--balance"],
        "--balance needs uniform, static or measured",
    ),
    (
        &["--analyses", "nope"],
        "unknown analysis pass `nope`; valid passes: all, shutdown, mtbf, bursts, \
         coalesce, activity, runapps, panics, firmware, defects, perphone",
    ),
    (
        &["--exp", "fig5", "--sweep", "--analyses", "mtbf"],
        "--exp fig5 sweeps the coalesce pass; add it to --analyses",
    ),
    (&["--shard"], "--shard needs i/N (e.g. 2/4)"),
    (
        &["--shard", "4/2"],
        "--shard: shard index 4 must be < shard count 2",
    ),
    (
        &["--shard", "0/0"],
        "--shard: shard count must be >= 1 (got 0)",
    ),
    (
        &["--shard", "x"],
        "--shard: shard spec \"x\" is not of the form i/N (e.g. 2/4)",
    ),
    (
        &["--balance", "measured"],
        "--balance measured needs --costs-json PATH",
    ),
    (
        &["--costs-json", "costs.json"],
        "--costs-json only applies with --balance measured",
    ),
    // Output files that only a campaign writes, under the two
    // experiments that run none.
    (
        &["--exp", "table1", "--timing-json", "t1.json"],
        "--timing-json needs a campaign, and --exp table1 runs none",
    ),
    (
        &["--exp", "table1", "--defects-json", "d1.json"],
        "--defects-json needs a campaign, and --exp table1 runs none",
    ),
    (
        &["--exp", "forum_marginals", "--mtbf-trace-json", "m1.json"],
        "--mtbf-trace-json needs a campaign, and --exp forum_marginals runs none",
    ),
    (
        &["--exp", "forum_marginals", "--checkpoint", "c1.bin"],
        "--checkpoint needs a campaign, and --exp forum_marginals runs none",
    ),
    // ... and the flags that shape one.
    (
        &["--exp", "table1", "--shard", "1/2"],
        "--shard needs a campaign, and --exp table1 runs none",
    ),
    (
        &["--exp", "table1", "--stop-after", "3"],
        "--stop-after needs a campaign, and --exp table1 runs none",
    ),
    (
        &["--exp", "forum_marginals", "--checkpoint-every", "5"],
        "--checkpoint-every needs a campaign, and --exp forum_marginals runs none",
    ),
    (
        &["--exp", "forum_marginals", "--balance", "static"],
        "--balance needs a campaign, and --exp forum_marginals runs none",
    ),
    // A campaign flag that would do nothing: a stop with nowhere to
    // resume from, a balance with no shard to cut.
    (
        &[
            "--exp",
            "targets",
            "--phones",
            "6",
            "--days",
            "30",
            "--stop-after",
            "2",
        ],
        "--stop-after needs --checkpoint PATH",
    ),
    (
        &["--phones", "4", "--days", "10", "--balance", "static"],
        "--balance only applies with --shard i/N",
    ),
    (
        &["merge-checkpoints"],
        "merge-checkpoints needs OUT plus at least one input checkpoint",
    ),
    (
        &["merge-checkpoints", "out.bin"],
        "merge-checkpoints needs at least one input checkpoint",
    ),
    (
        &["merge-checkpoints", "out.bin", "a.bin", "--seed", "x"],
        "--seed needs an integer",
    ),
    (
        &[
            "merge-checkpoints",
            "out.bin",
            "a.bin",
            "--corruption",
            "bogus",
        ],
        "unknown corruption profile bogus (try none|light|moderate|worst)",
    ),
    (
        &["extract-signatures", "--phones", "x"],
        "--phones needs a positive phone count",
    ),
    (
        &["extract-signatures", "--from-checkpoint"],
        "--from-checkpoint needs a path",
    ),
    // `--analyses` selects the passes a checkpoint is read with; a
    // simulated extraction has none to select.
    (
        &["extract-signatures", "--analyses", "coalesce"],
        "--analyses only applies with --from-checkpoint PATH",
    ),
    (
        &[
            "extract-signatures",
            "--analyses",
            "bogus",
            "--phones",
            "2",
            "--days",
            "5",
        ],
        "--analyses only applies with --from-checkpoint PATH",
    ),
    (
        &["plan-shards"],
        "plan-shards needs --shards N (e.g. --shards 4)",
    ),
    (
        &["plan-shards", "--shards", "0"],
        "--shards needs a positive shard count",
    ),
    (
        &["plan-shards", "--shards", "2", "--balance", "measured"],
        "--balance measured needs --costs-json PATH",
    ),
    (
        &[
            "plan-shards",
            "--shards",
            "2",
            "--phones",
            "4",
            "--costs-json",
            "/nonexistent.json",
        ],
        "--costs-json only applies with --balance measured",
    ),
    (
        &["plan-shards", "--shards", "2", "--fleet", "nope:1"],
        "--fleet: unknown device class \"nope\" (try communicator|smartphone|entry-level)",
    ),
    (&["minimize"], "minimize needs --signature-json PATH"),
    (
        &["minimize", "--max-days", "0"],
        "--max-days needs a positive day count",
    ),
    (
        &["minimize", "--max-seeds", "0"],
        "--max-seeds needs a positive seed count",
    ),
    (
        &["minimize", "--signature-index", "x"],
        "--signature-index needs an integer",
    ),
    (
        &["minimize", "--match", "bogus"],
        "unknown match mode bogus",
    ),
    (
        &["minimize", "--start-corruption", "bogus"],
        "unknown corruption profile bogus (try none|light|moderate|worst)",
    ),
];

#[test]
fn bad_arguments_are_refused_with_their_exact_message() {
    for (argv, message) in REFUSED {
        let out = repro(argv);
        assert_eq!(out.status.code(), Some(1), "exit code for {argv:?}");
        assert_eq!(
            String::from_utf8_lossy(&out.stderr),
            format!("{message}\n"),
            "stderr for {argv:?}"
        );
        assert!(out.stdout.is_empty(), "stdout for {argv:?}");
    }
}

/// An unknown experiment is refused before the campaign runs, so none
/// of the run's output files is written.
#[test]
fn unknown_experiment_writes_no_timing_file() {
    let path = std::env::temp_dir().join(format!(
        "symfail-cliargs-{}-timing.json",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    let out = repro(&["--exp", "bogus", "--timing-json", path.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1));
    assert_eq!(
        String::from_utf8_lossy(&out.stderr),
        "unknown experiment bogus\n"
    );
    assert!(out.stdout.is_empty());
    assert!(!path.exists(), "{} was written", path.display());
}

/// A reader that closes `repro`'s stdout before it is written
/// (`repro --exp table1 | true`) ends the run quietly: exit 0 and
/// nothing on stderr, not a broken-pipe panic.
#[test]
fn closed_stdout_exits_quietly() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["--exp", "table1"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn repro");
    drop(child.stdout.take());
    let out = child.wait_with_output().expect("wait for repro");
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        out.stderr.is_empty(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn help_exits_1_with_its_usage_line() {
    let cases: &[(&[&str], &str)] = &[
        (
            &["--help"],
            "usage: repro [--exp NAME] [--seed N] [--phones N] [--days N] [--workers N] \
             [--sweep] [--analyses LIST] [--fleet default|mixed|class:share,...] \
             [--corruption none|light|moderate|worst] [--defects-json PATH] \
             [--timing-json PATH] [--checkpoint PATH] [--checkpoint-every N] \
             [--stop-after N] [--mtbf-trace-json PATH] [--shard i/N] \
             [--balance uniform|static|measured] [--costs-json PATH]",
        ),
        (
            &["merge-checkpoints", "--help"],
            "usage: repro merge-checkpoints OUT IN1 IN2 ... [--seed N] [--phones N] \
             [--days N] [--corruption PROFILE] [--fleet SPEC] [--analyses LIST] [--partial]",
        ),
        (
            &["plan-shards", "-h"],
            "usage: repro plan-shards --shards N [--balance uniform|static|measured] \
             [--costs-json PATH] [--seed N] [--phones N] [--days N] \
             [--corruption PROFILE] [--fleet SPEC]",
        ),
        (
            &["extract-signatures", "--help"],
            "usage: repro extract-signatures [--signature-json OUT] \
             [--from-checkpoint PATH] [--seed N] [--phones N] [--days N] \
             [--corruption PROFILE] [--fleet SPEC] [--analyses LIST]",
        ),
        (
            &["minimize", "--help"],
            "usage: repro minimize --signature-json PATH [--signature-index I] \
             [--max-days N] [--max-seeds N] [--match core|strict] \
             [--start-corruption PROFILE] [--out PATH]",
        ),
    ];
    for (argv, usage) in cases {
        let out = repro(argv);
        assert_eq!(out.status.code(), Some(1), "exit code for {argv:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(stderr.lines().next(), Some(*usage), "usage for {argv:?}");
        assert!(out.stdout.is_empty(), "stdout for {argv:?}");
    }
    // The top-level usage also names every subcommand and the passes
    // `--analyses` accepts.
    let stderr = String::from_utf8(repro(&["--help"]).stderr).unwrap();
    for sub in [
        "merge-checkpoints",
        "plan-shards",
        "extract-signatures",
        "minimize",
    ] {
        assert!(stderr.contains(&format!("repro {sub} ")), "{sub} in usage");
    }
    assert!(stderr.ends_with(
        "--analyses takes a comma-list of pass names (default all): \
         shutdown,mtbf,bursts,coalesce,activity,runapps,panics,firmware,defects,perphone\n"
    ));
}

#[test]
fn plan_shards_prints_the_cut_table() {
    let out = repro(&[
        "plan-shards",
        "--shards",
        "3",
        "--phones",
        "7",
        "--days",
        "40",
    ]);
    assert_eq!(out.status.code(), Some(0));
    assert!(out.stderr.is_empty());
    assert_eq!(
        String::from_utf8_lossy(&out.stdout),
        "shard plan: 7 phones x 40 days, corruption none, fleet default, 3 shards, balance static\n\
         \x20 shard  interval            phones  predicted_cost\n\
         \x20     0  [     0,      2)         2         660.466\n\
         \x20     1  [     2,      4)         2         675.641\n\
         \x20     2  [     4,      7)         3         872.907\n\
         predicted max-shard cost: 872.907\n\
         uniform i/N split would cost 872.907 (1.00x the balanced critical path)\n"
    );
}

/// A campaign with no panic writes an empty catalog, which `minimize`
/// reads as holding no signature; a cut catalog is refused at the byte
/// where it ends.
#[test]
fn minimize_reads_an_empty_catalog_and_refuses_a_cut_one() {
    let path = std::env::temp_dir().join(format!("symfail-cliargs-{}.json", std::process::id()));
    let path_str = path.to_str().unwrap();
    let out = repro(&[
        "extract-signatures",
        "--phones",
        "1",
        "--days",
        "1",
        "--signature-json",
        path_str,
    ]);
    assert_eq!(out.status.code(), Some(0));
    let catalog = std::fs::read_to_string(&path).unwrap();
    assert!(catalog.contains("\"signatures\": [\n\n  ]"), "{catalog}");
    let minimize = || repro(&["minimize", "--signature-json", path_str]);
    let out = minimize();
    assert_eq!(out.status.code(), Some(1));
    assert_eq!(
        String::from_utf8_lossy(&out.stderr),
        format!("--signature-index 0 out of range: {path_str} holds 0 signatures\n")
    );
    std::fs::write(&path, &catalog[..catalog.len() - 4]).unwrap();
    let out = minimize();
    let _ = std::fs::remove_file(&path);
    assert_eq!(out.status.code(), Some(1));
    assert_eq!(
        String::from_utf8_lossy(&out.stderr),
        format!(
            "{path_str}: invalid JSON at byte {}: unexpected end of input\n",
            catalog.len() - 4
        )
    );
}
