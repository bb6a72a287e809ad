//! Compile-pipeline benchmark: per-pass tape statistics and compile
//! wall-clock on the KWS-6 design, plus the partitioned-serving
//! equivalence check, with a machine-readable artifact.
//!
//! One KWS-6 model is trained and its accelerator generated; both pass
//! combinations — the raw flatten and the default pipeline with CSE —
//! compile the same design,
//! reporting tape size before/after, CSE dedup hits, clause-AND word-ops
//! before/after constant-1 elision, the AND word-ops of the input-folded tape the evaluator
//! runs (`tape_ands`), the class-sum stage's 64×64 transposes per
//! lane-word column (`sum_transposes`) and best-of-repeats compile
//! wall-clock. The
//! partitioner then cuts the design into each requested K and a
//! K-shard partition-group pool must reproduce the monolithic pool's
//! winners bit for bit (always asserted; a mismatch fails the run).
//!
//! ```text
//! cargo run -p matador-bench --bin compile_bench --release -- \
//!     [--quick] [--seed N] [--batch N] [--repeats N] \
//!     [--partitions 2,4] [--out BENCH_compile.json] \
//!     [--assert-cse-shrinkage]
//! ```
//!
//! The JSON artifact (`BENCH_compile.json` by default) tracks the
//! compiler's trajectory per commit: one row per pass combination and
//! one per partition count. `--assert-cse-shrinkage` exits non-zero
//! unless the CSE pass shrank the KWS-6 tape (`tape_after < tape_before`
//! on the `cse` combo; the dedup-hit count is printed but not gated, and
//! KWS-6 passes with 0 hits) — the release CI gate keeping the pass
//! honest.

use matador_bench::harness::{self, write_outputs, Flags, Kws6};
use matador_serve::{EngineBackend, ServeOptions, ShardPool, ShardSpec};
use matador_sim::{CompileOptions, CompilePipeline, CompiledAccelerator, PassStats};
use std::time::Instant;
use tsetlin::bits::BitVec;

fn main() {
    harness::main(run);
}

/// One pass combination: its name, options, per-pass stats and best
/// compile wall-clock.
struct Combo {
    name: &'static str,
    stats: PassStats,
    wall_s: f64,
}

/// Compiles `accel` under `options` `repeats` times and keeps the best
/// wall-clock (compiles are deterministic; the best-of floor strips
/// OS timing noise from the timing rows).
fn measure(
    accel: &CompiledAccelerator,
    name: &'static str,
    options: CompileOptions,
    repeats: usize,
) -> Combo {
    let pipeline = CompilePipeline::new(options);
    let mut best_wall = f64::INFINITY;
    let mut stats = None;
    for _ in 0..repeats {
        let start = Instant::now();
        let compiled = pipeline.compile(accel);
        best_wall = best_wall.min(start.elapsed().as_secs_f64());
        stats = Some(compiled.stats);
    }
    Combo {
        name,
        stats: stats.expect("repeats is positive"),
        wall_s: best_wall,
    }
}

/// Winners a `specs` pool serves for `batch`.
fn winners_of(specs: &[ShardSpec], batch: &[BitVec]) -> Vec<usize> {
    let mut pool =
        ShardPool::heterogeneous(specs, ServeOptions::new(specs.len())).expect("valid specs");
    pool.serve(batch)
        .expect("engines drain")
        .iter()
        .map(|p| p.winner)
        .collect()
}

fn run() -> Result<bool, matador::Error> {
    let flags = Flags::parse(
        &["--batch", "--repeats", "--partitions", "--out"],
        &["--assert-cse-shrinkage"],
    )?;
    let batch_size = flags.positive("--batch")?.unwrap_or(1024);
    let repeats = flags.positive("--repeats")?.unwrap_or(3usize);
    let partitions = flags.list("--partitions")?.unwrap_or(vec![2]);
    let out = flags
        .string("--out")
        .unwrap_or_else(|| "BENCH_compile.json".to_string());
    let opts = &flags.opts;
    let kind = Kws6::KIND;
    // Recording stays live: the compile pipeline books its per-pass
    // stats through `matador-obs`, and the counter deltas below prove
    // that wiring on every run.
    matador_obs::set_enabled(true);

    let kws = Kws6::train("compile_bench", opts);
    let accel = kws.design("compile_bench", None).compile_for_sim();
    let batch = kws.inputs(batch_size);

    println!(
        "compile_bench — {kind} design, {} windows of bus width {}, seed {}, best of {} compiles",
        accel.shape().num_packets(),
        accel.shape().bus_width,
        opts.seed,
        repeats
    );

    let combos = [
        ("none", CompileOptions::none()),
        ("cse", CompileOptions::default()),
    ];
    let before = matador_obs::Registry::global().snapshot();
    let cells: Vec<Combo> = combos
        .iter()
        .map(|&(name, options)| measure(&accel, name, options, repeats))
        .collect();
    let after = matador_obs::Registry::global().snapshot();
    println!();
    for c in &cells {
        println!(
            "  {:>4}  tape {:>6} -> {:<6} dedup {:>4}  \
             clause ANDs {:>6} -> {:<6} tape ANDs {:>6} sum transposes {:>2} ({:.4}s)",
            c.name,
            c.stats.tape_before,
            c.stats.tape_after,
            c.stats.cse_dedup_hits,
            c.stats.clause_ands_before,
            c.stats.clause_ands_after,
            c.stats.tape_ands,
            c.stats.sum_transposes,
            c.wall_s
        );
    }
    let compile_runs = after.counter_delta(&before, "matador_compile_runs_total", "");
    assert!(
        compile_runs >= (combos.len() * repeats) as u64,
        "the compile pipeline's obs counters were not recording ({compile_runs} runs booked)"
    );

    // Partitioned serving: a K-shard partition group must reproduce the
    // monolithic pool's winners bit for bit.
    let mono_specs = vec![ShardSpec::new(accel.clone()).backend(EngineBackend::Turbo)];
    let expected = winners_of(&mono_specs, &batch);
    let mut ok = true;
    let mut partition_rows: Vec<(usize, usize, u64, bool)> = Vec::new();
    println!();
    for &k in &partitions {
        let plan =
            CompilePipeline::new(CompileOptions::default().with_partitions(k)).partition(&accel);
        let (parts, cut_cost) = (plan.len(), plan.cut_cost());
        let specs: Vec<ShardSpec> = ShardSpec::partitioned(plan, 0)
            .into_iter()
            .map(|s| s.backend(EngineBackend::Turbo))
            .collect();
        let got = winners_of(&specs, &batch);
        let identical = got == expected;
        println!(
            "  partitions={k}: {parts} sub-programs, cut cost {cut_cost}, winners {}",
            if identical { "identical" } else { "DIVERGED" }
        );
        if !identical {
            eprintln!("::error::partitioned {k}-shard serving diverged from the monolithic pool");
            ok = false;
        }
        partition_rows.push((k, parts, cut_cost, identical));
    }

    let mut artifact = kws.artifact("compile_pipeline", batch_size, opts.seed);
    artifact.push_field("repeats", repeats.to_string());
    for c in &cells {
        artifact.push_row(format!(
            "{{\"passes\": \"{}\", \"tape_before\": {}, \"tape_after\": {}, \
             \"cse_dedup_hits\": {}, \"clause_ands_before\": {}, \
             \"clause_ands_after\": {}, \"tape_ands\": {}, \"sum_transposes\": {}, \
             \"compile_wall_s\": {:.6}}}",
            c.name,
            c.stats.tape_before,
            c.stats.tape_after,
            c.stats.cse_dedup_hits,
            c.stats.clause_ands_before,
            c.stats.clause_ands_after,
            c.stats.tape_ands,
            c.stats.sum_transposes,
            c.wall_s
        ));
    }
    for &(k, parts, cut_cost, identical) in &partition_rows {
        artifact.push_row(format!(
            "{{\"sweep\": \"partitions\", \"partitions\": {k}, \"parts\": {parts}, \
             \"cut_cost\": {cut_cost}, \"winners_identical\": {identical}}}"
        ));
    }
    write_outputs(&artifact, Some(&out), None)?;

    if flags.switch("--assert-cse-shrinkage") {
        // Gated on the `cse` combo, which differs from `none` only by
        // the CSE pass.
        let cse_cell = cells
            .iter()
            .find(|c| c.name == "cse")
            .expect("the cse combo always runs");
        let shrinkage = cse_cell
            .stats
            .tape_before
            .saturating_sub(cse_cell.stats.tape_after);
        if shrinkage == 0 {
            eprintln!(
                "::error::CSE left the {kind} tape unshrunk ({} -> {} instructions, {} dedup \
                 hits): the pass stopped finding the design's redundancy",
                cse_cell.stats.tape_before,
                cse_cell.stats.tape_after,
                cse_cell.stats.cse_dedup_hits
            );
            ok = false;
        } else {
            println!(
                "cse-shrinkage gate passed: {} -> {} instructions (-{shrinkage}), {} window \
                 dedup hits",
                cse_cell.stats.tape_before,
                cse_cell.stats.tape_after,
                cse_cell.stats.cse_dedup_hits
            );
        }
    }
    Ok(ok)
}
