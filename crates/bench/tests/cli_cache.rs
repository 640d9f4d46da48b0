//! The `campaign` CLI's input contract: bad CLI input — a bad cache path,
//! a telemetry output file that cannot be created, a removed or unknown
//! flag, a flag of another mode, a value flag given twice, a value that
//! does not parse or is out of range, a job that `JobSpec` rejects — exits
//! with code 2 and a message, never a panic; `--help` runs nothing; and a
//! directory holding a stale format version cold-starts. The figure binaries reject bad sweep input the same way.
//!
//! Every case runs the real binary on a tiny sweep from a scratch working
//! directory, because the CLI writes `target/paper-results/` relative to
//! it.

use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};

/// The sweep every one-shot invocation runs, as `(flag, value)` pairs; a
/// case that passes the same flag overrides it. `serve`, `submit` and
/// `--list-scenarios` get none of it.
const SWEEP: [(&str, &str); 3] = [
    ("--steps", "5"),
    ("--repeats", "1"),
    ("--strategies", "random"),
];

/// A fresh scratch working directory.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("codesign_cli_cache_{}_{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Runs `campaign ARGS` in `cwd`, followed by the sweep flags that `args`
/// does not set when it is a one-shot run.
fn campaign(cwd: &Path, args: &[&str]) -> Output {
    let one_shot =
        !matches!(args.first(), Some(&("serve" | "submit"))) && !args.contains(&"--list-scenarios");
    let sweep = SWEEP
        .iter()
        .filter(|(flag, _)| one_shot && !args.contains(flag))
        .flat_map(|&(flag, value)| [flag, value]);
    Command::new(env!("CARGO_BIN_EXE_campaign"))
        .current_dir(cwd)
        .args(args)
        .args(sweep)
        .stdin(Stdio::null())
        .output()
        .expect("run campaign")
}

#[test]
fn bad_cache_input_exits_2_without_a_panic() {
    let cwd = scratch("bad-input");
    let old_file = b"CDNEVC an old single-file cache";
    std::fs::write(cwd.join("eval-cache.bin"), old_file).unwrap();
    std::fs::create_dir_all(cwd.join("garbage.d")).unwrap();
    std::fs::write(cwd.join("garbage.d/shard-00.bin"), b"not a cache").unwrap();
    let foreign = campaign(&cwd, &["--max-vertices", "3", "--cache-path", "foreign.d"]);
    assert!(
        foreign.status.success(),
        "{}",
        String::from_utf8_lossy(&foreign.stderr)
    );

    let removed = "pass --cache-path DIR";
    let grid_order = "always dispatch in grid order";
    let vertices = "for --max-vertices: expected 2..=7";
    let cases: [(&str, &[&str], &str); 43] = [
        (
            "regular file",
            &["--cache-path", "eval-cache.bin"],
            "not a directory",
        ),
        ("garbage shard", &["--cache-path", "garbage.d"], "malformed"),
        ("foreign salt", &["--cache-path", "foreign.d"], "salt"),
        (
            "no-cache conflict",
            &["--no-cache", "--cache-path", "fresh.d"],
            "contradictory",
        ),
        ("--cache-format", &["--cache-format", "sharded"], removed),
        ("--cache-mmap", &["--cache-mmap"], removed),
        (
            "--cache-migrate",
            &["--cache-migrate", "a.json", "b"],
            removed,
        ),
        (
            "serve on a regular file",
            &["serve", "--stdio", "--cache-path", "eval-cache.bin"],
            "not a directory",
        ),
        ("--backend", &["--backend", "atomic"], grid_order),
        ("--calibrate", &["--calibrate"], grid_order),
        ("--probe-steps", &["--probe-steps", "20"], grid_order),
        (
            "--cache-capacity",
            &["--cache-capacity", "8"],
            "--cache-capacity was removed: the evaluation cache keeps every pair",
        ),
        (
            "serve with a sweep flag",
            &["serve", "--stdio", "--steps", "5"],
            "unknown flag --steps",
        ),
        (
            "submit with a run flag",
            &["submit", "--connect", "none.sock", "--workers", "4"],
            "unknown flag --workers",
        ),
        (
            "one-shot with a serve flag",
            &["--stdio"],
            "unknown flag --stdio",
        ),
        (
            "unknown strategy",
            &["--strategies", "bogus"],
            "unknown strategy 'bogus'",
        ),
        (
            "zero repeats",
            &["--repeats", "0"],
            "'repeats' must be an integer >= 1",
        ),
        ("misspelt flag", &["--stpes", "5"], "unknown flag --stpes"),
        (
            "scenario given twice",
            &["--scenario", "0", "--scenario", "1"],
            "--scenario given twice",
        ),
        (
            "steps given twice",
            &["--steps", "3", "--steps", "5"],
            "--steps given twice",
        ),
        (
            "overflowing shaping weight",
            &["--reward-shaping", "hv:1e308"],
            "reward-shaping weight must be at most 1e6",
        ),
        (
            "seed past 2^53",
            &["--seed-base", "9007199254740993"],
            "is not below 2^53",
        ),
        (
            "huge over-production",
            &["--surrogate", "99999999999:16"],
            "over-production factor 99999999999 exceeds the per-shard cap",
        ),
        (
            "non-numeric steps",
            &["--steps", "abc"],
            "invalid value 'abc' for --steps",
        ),
        (
            "non-numeric workers",
            &["--workers", "abc"],
            "invalid value 'abc' for --workers",
        ),
        (
            "zero steps",
            &["--steps", "0"],
            "'steps' must be an integer >= 1",
        ),
        (
            "zero generations",
            &["--generations", "0"],
            "'generations' must be an integer >= 1",
        ),
        (
            "population of one",
            &["--population", "1"],
            "'population' must be an integer >= 2",
        ),
        (
            "--probe-samples",
            &["--probe-samples", "64"],
            "--probe-samples was removed",
        ),
        ("nine vertices", &["--max-vertices", "9"], vertices),
        ("one vertex", &["--max-vertices", "1"], vertices),
        (
            "serve on nine vertices",
            &["serve", "--stdio", "--max-vertices", "9"],
            vertices,
        ),
        (
            "serve with no queue",
            &["serve", "--stdio", "--queue-capacity", "0"],
            "invalid value '0' for --queue-capacity: expected 1..",
        ),
        (
            "serve syncing no cache",
            &[
                "serve",
                "--stdio",
                "--cache-sync-secs",
                "5",
                "--max-vertices",
                "3",
            ],
            "--cache-sync-secs needs --cache-path",
        ),
        (
            "list with a job flag",
            &["--list-scenarios", "--steps", "5"],
            "unknown flag --steps",
        ),
        (
            "list with a run flag",
            &["--list-scenarios", "--cache-path", "x.d"],
            "unknown flag --cache-path",
        ),
        (
            "check on nine vertices",
            &["--check-scenarios", "--max-vertices", "9"],
            "unknown flag --max-vertices",
        ),
        (
            "check with workers",
            &["--check-scenarios", "--workers", "3"],
            "unknown flag --workers",
        ),
        (
            "check without a cache",
            &["--check-scenarios", "--no-cache"],
            "unknown flag --no-cache",
        ),
        (
            "check with a cache",
            &["--check-scenarios", "--cache-path", "x.d"],
            "unknown flag --cache-path",
        ),
        (
            "check with a trace",
            &["--check-scenarios", "--trace-out", "t.json"],
            "unknown flag --trace-out",
        ),
        (
            "check with metrics",
            &["--check-scenarios", "--metrics-out", "m.jsonl"],
            "unknown flag --metrics-out",
        ),
        (
            "check with progress",
            &["--check-scenarios", "--progress"],
            "unknown flag --progress",
        ),
    ];
    for (case, args, message) in cases {
        let out = campaign(&cwd, args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{case}: {stderr}");
        assert!(!stderr.contains("panicked"), "{case}: {stderr}");
        assert!(stderr.contains(message), "{case}: {stderr}");
    }
    assert_eq!(
        std::fs::read(cwd.join("eval-cache.bin")).unwrap(),
        old_file,
        "a rejected cache path is left untouched"
    );
    let _ = std::fs::remove_dir_all(&cwd);
}

#[test]
fn bad_figure_sweep_input_exits_2_without_a_panic() {
    let cwd = scratch("figures");
    let cases: [(&str, &str, &[&str], &str); 10] = [
        (
            "fig4 on nine vertices",
            env!("CARGO_BIN_EXE_fig4_pareto"),
            &["--max-vertices", "9"],
            "invalid value '9' for --max-vertices: expected 2..=7",
        ),
        (
            "fig5 with zero repeats",
            env!("CARGO_BIN_EXE_fig5_search"),
            &["--repeats", "0"],
            "invalid value '0' for --repeats: expected 1..",
        ),
        (
            "fig5 past the last preset",
            env!("CARGO_BIN_EXE_fig5_search"),
            &["--scenario", "7"],
            "invalid value '7' for --scenario: expected 0..3",
        ),
        (
            "fig6 with zero steps",
            env!("CARGO_BIN_EXE_fig6_reward"),
            &["--steps", "0"],
            "invalid value '0' for --steps: expected 1..",
        ),
        (
            "fig6 with a zero window",
            env!("CARGO_BIN_EXE_fig6_reward"),
            &["--window", "0"],
            "invalid value '0' for --window: expected 1..",
        ),
        (
            "fig4 with the removed cell sample",
            env!("CARGO_BIN_EXE_fig4_pareto"),
            &["--cells", "500"],
            "unknown flag --cells",
        ),
        (
            "fig4 with the removed sample seed",
            env!("CARGO_BIN_EXE_fig4_pareto"),
            &["--seed", "1"],
            "unknown flag --seed",
        ),
        (
            "fig7 with zero repeats",
            env!("CARGO_BIN_EXE_fig7_cifar100"),
            &["--repeats", "0"],
            "invalid value '0' for --repeats: expected 1..",
        ),
        (
            "ablations with zero steps",
            env!("CARGO_BIN_EXE_ablations"),
            &["--steps", "0"],
            "invalid value '0' for --steps: expected 1..",
        ),
        (
            "ablations with zero repeats",
            env!("CARGO_BIN_EXE_ablations"),
            &["--repeats", "0"],
            "invalid value '0' for --repeats: expected 1..",
        ),
    ];
    for (case, binary, args, message) in cases {
        let out = Command::new(binary)
            .current_dir(&cwd)
            .args(args)
            .stdin(Stdio::null())
            .output()
            .expect("run figure binary");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{case}: {stderr}");
        assert!(!stderr.contains("panicked"), "{case}: {stderr}");
        assert!(stderr.contains(message), "{case}: {stderr}");
    }
    let _ = std::fs::remove_dir_all(&cwd);
}

#[test]
fn unwritable_telemetry_paths_exit_2_before_any_work() {
    let cases: [(&str, &[&str], &str); 3] = [
        (
            "one-shot trace",
            &["--trace-out", "missing/dir/t.json"],
            "--trace-out missing/dir/t.json: ",
        ),
        (
            "one-shot metrics",
            &["--metrics-out", "missing/dir/m.jsonl"],
            "--metrics-out missing/dir/m.jsonl: ",
        ),
        (
            "serve trace",
            &["serve", "--stdio", "--trace-out", "missing/dir/t.json"],
            "--trace-out missing/dir/t.json: ",
        ),
    ];
    for (case, args, message) in cases {
        let cwd = scratch("telemetry");
        let out = campaign(&cwd, args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{case}: {stderr}");
        assert!(!stderr.contains("panicked"), "{case}: {stderr}");
        assert!(stderr.contains(message), "{case}: {stderr}");
        assert!(
            !cwd.join("target/paper-results/campaign.jsonl").exists(),
            "{case}: the sweep ran"
        );
        let _ = std::fs::remove_dir_all(&cwd);
    }
}

#[test]
fn scenario_modes_take_the_flags_they_read() {
    let cwd = scratch("scenario-modes");
    let list = campaign(&cwd, &["--list-scenarios"]);
    assert_eq!(list.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&list.stdout).contains("built-in presets"));
    // The sweep's job flags come with it.
    let check = campaign(&cwd, &["--check-scenarios", "--scenario", "1"]);
    assert_eq!(check.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&check.stdout).contains("1 scenario(s) valid"));
    assert!(!cwd.join("x.d").exists() && !cwd.join("target").exists());
    let _ = std::fs::remove_dir_all(&cwd);
}

#[test]
fn help_prints_the_flags_and_runs_nothing() {
    let cwd = scratch("help");
    let out = campaign(&cwd, &["--help"]);
    assert_eq!(out.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&out.stdout).contains("--steps"));
    assert!(!cwd.join("target/paper-results/campaign.jsonl").exists());
    let _ = std::fs::remove_dir_all(&cwd);
}

#[test]
fn a_stale_shard_cold_starts_and_is_rewritten() {
    let cwd = scratch("stale");
    let first = campaign(&cwd, &["--cache-path", "cache.d"]);
    assert!(first.status.success());
    // Version field = 3 (bytes 6–7, outside the checksummed region).
    let shard = cwd.join("cache.d/shard-00.bin");
    let mut bytes = std::fs::read(&shard).unwrap();
    bytes[6..8].copy_from_slice(&3u16.to_le_bytes());
    std::fs::write(&shard, &bytes).unwrap();

    let rerun = campaign(&cwd, &["--cache-path", "cache.d"]);
    let stderr = String::from_utf8_lossy(&rerun.stderr);
    assert_eq!(rerun.status.code(), Some(0), "{stderr}");
    assert!(stderr.contains("cold-starting"), "{stderr}");
    assert_eq!(std::fs::read(&shard).unwrap()[6], 4, "rewritten as v4");
    let _ = std::fs::remove_dir_all(&cwd);
}
