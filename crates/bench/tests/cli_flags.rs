//! Command-line contract of the six serving harnesses: a malformed flag
//! exits 2 with a diagnostic naming the flag and the offending token.
//!
//! Every case here is rejected while the arguments are parsed, before
//! any dataset is generated or model trained, so the whole file runs in
//! well under a second per bin even in a debug build.

use std::process::Command;

/// Runs `bin` with `args` and asserts exit code 2 with every `needle` in
/// its stderr.
fn assert_rejected(bin: &str, args: &[&str], needles: &[&str]) {
    let output = Command::new(bin)
        .args(args)
        // A bin that wrongly accepts its arguments must not litter the
        // source tree with artifacts.
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("bench binary runs");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(
        output.status.code(),
        Some(2),
        "{bin} {args:?} should exit 2; stderr:\n{stderr}"
    );
    for needle in needles {
        assert!(
            stderr.contains(needle),
            "{bin} {args:?}: stderr does not name {needle:?}:\n{stderr}"
        );
    }
}

#[test]
fn loadgen_rejects_malformed_flags() {
    let bin = env!("CARGO_BIN_EXE_loadgen");
    assert_rejected(bin, &["--shards", "0"], &["--shards", "'0'"]);
    assert_rejected(
        bin,
        &["--utilization-pct", "101"],
        &["--utilization-pct", "'101'"],
    );
    assert_rejected(bin, &["--assert-tail", "0.5"], &["--assert-tail", "'0.5'"]);
    assert_rejected(bin, &["--out"], &["--out"]);
    // A value flag must not swallow the next flag as its value: this
    // once ran the whole drill and wrote an artifact named `--seed`.
    assert_rejected(bin, &["--quick", "--out", "--seed"], &["--out", "'--seed'"]);
}

#[test]
fn chaos_bench_rejects_malformed_flags() {
    let bin = env!("CARGO_BIN_EXE_chaos_bench");
    assert_rejected(bin, &["--shards", "1"], &["--shards", "'1'"]);
    assert_rejected(
        bin,
        &["--shards", "4", "--kill-shard", "4"],
        &["--kill-shard", "4"],
    );
    assert_rejected(bin, &["--kill-at", "x"], &["--kill-at", "'x'"]);
}

#[test]
fn infer_bench_rejects_malformed_flags() {
    let bin = env!("CARGO_BIN_EXE_infer_bench");
    assert_rejected(
        bin,
        &["--assert-obs-overhead", "0"],
        &["--assert-obs-overhead", "'0'"],
    );
    assert_rejected(bin, &["--shards", "1,,2"], &["--shards", "''"]);
    // One shard count leaves the monotonicity gate nothing to compare.
    assert_rejected(
        bin,
        &["--shards", "1", "--assert-shard-monotone"],
        &["--assert-shard-monotone", "--shards", "[1]"],
    );
}

#[test]
fn serve_sweep_rejects_malformed_flags() {
    let bin = env!("CARGO_BIN_EXE_serve_sweep");
    assert_rejected(bin, &["--batches", "0"], &["--batches", "'0'"]);
    assert_rejected(bin, &["--seed", "abc"], &["--seed", "'abc'"]);
    assert_rejected(bin, &["--json", "--quick"], &["--json", "'--quick'"]);
    // One shard count leaves the scaling gate nothing to compare.
    assert_rejected(
        bin,
        &["--quick", "--shards", "4", "--assert-scaling"],
        &["--assert-scaling", "--shards", "[4]"],
    );
}

#[test]
fn hetero_sweep_rejects_malformed_flags() {
    let bin = env!("CARGO_BIN_EXE_hetero_sweep");
    assert_rejected(bin, &["--json"], &["--json"]);
    assert_rejected(bin, &["stray"], &["'stray'"]);
}

#[test]
fn compile_bench_rejects_malformed_flags() {
    let bin = env!("CARGO_BIN_EXE_compile_bench");
    assert_rejected(bin, &["--partitions"], &["--partitions"]);
    assert_rejected(bin, &["--bogus"], &["'--bogus'"]);
}
