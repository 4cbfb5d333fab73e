//! The `repro` command-line contract: for every subcommand, which
//! flags it accepts, the exact message each bad argument earns, and
//! the exit code. Every case here fails before any campaign runs, so
//! the table is cheap; one `plan-shards` case pins a full stdout.

use std::process::{Command, Output};

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
    (&["--seed"], "--seed needs an integer"),
    (&["--seed", "x"], "--seed needs an integer"),
    (&["--phones", "-1"], "--phones needs an integer"),
    (&["--days", "x"], "--days needs an integer"),
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
        "--balance needs uniform, static or measured, got Some(\"bogus\")",
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
        "--phones needs an integer",
    ),
    (
        &["extract-signatures", "--from-checkpoint"],
        "--from-checkpoint needs a path",
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
