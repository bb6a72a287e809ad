//! Compile-pipeline benchmark: per-pass tape statistics and compile
//! wall-clock on the KWS-6 design, plus the partitioned-serving
//! equivalence check, with a machine-readable artifact.
//!
//! One KWS-6 model is trained (or cache-loaded) and its accelerator
//! generated (or cache-loaded); every pass combination — raw flatten,
//! CSE only, scheduling only, the default pipeline — compiles the same
//! design, reporting tape size before/after, CSE dedup hits, scheduler
//! operand distance, clause-AND word-ops before/after constant-1
//! elision, the AND word-ops of the input-folded tape the evaluator
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
//! unless the default pipeline's CSE pass shrank the KWS-6 tape
//! (`tape_after < tape_before` with at least one dedup hit) — the
//! release CI gate keeping the optimization passes honest.

use matador_bench::eval::{bad_arg, model_key_for, parse_positive_list, EvalOptions};
use matador_bench::{BenchArtifact, DesignCache, ModelCache};
use matador_datasets::{generate, DatasetKind};
use matador_serve::{EngineBackend, ServeOptions, ShardPool, ShardSpec};
use matador_sim::{CompileOptions, CompilePipeline, CompiledAccelerator, PassStats};
use std::time::Instant;
use tsetlin::bits::BitVec;

fn main() {
    match run() {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    }
}

struct BenchArgs {
    batch: usize,
    repeats: usize,
    partitions: Vec<usize>,
    out: String,
    assert_cse_shrinkage: bool,
    opts: EvalOptions,
}

fn parse_args() -> Result<BenchArgs, matador::Error> {
    let mut batch = 1024usize;
    let mut repeats = 3usize;
    let mut partitions = vec![2usize];
    let mut out = "BENCH_compile.json".to_string();
    let mut assert_cse_shrinkage = false;
    let mut rest: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--batch" => {
                let value = args
                    .next()
                    .ok_or_else(|| bad_arg("--batch requires a value"))?;
                batch = value
                    .parse::<usize>()
                    .ok()
                    .filter(|&n| n > 0)
                    .ok_or_else(|| bad_arg(format!("--batch '{value}' is not positive")))?;
            }
            "--repeats" => {
                let value = args
                    .next()
                    .ok_or_else(|| bad_arg("--repeats requires a value"))?;
                repeats = value
                    .parse::<usize>()
                    .ok()
                    .filter(|&n| n > 0)
                    .ok_or_else(|| bad_arg(format!("--repeats '{value}' is not positive")))?;
            }
            "--partitions" => partitions = parse_positive_list(&arg, args.next())?,
            "--out" => {
                out = args
                    .next()
                    .ok_or_else(|| bad_arg("--out requires a path"))?;
            }
            "--assert-cse-shrinkage" => assert_cse_shrinkage = true,
            _ => rest.push(arg),
        }
    }
    let opts = EvalOptions::from_args(rest)?;
    Ok(BenchArgs {
        batch,
        repeats,
        partitions,
        out,
        assert_cse_shrinkage,
        opts,
    })
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
/// scheduler noise from the timing rows).
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
    let args = parse_args()?;
    let kind = DatasetKind::Kws6;
    let opts = &args.opts;
    let threads = matador_par::configured_threads();
    // Recording stays live: the compile pipeline books its per-pass
    // stats through `matador-obs`, and the counter deltas below prove
    // that wiring on every run.
    matador_obs::set_enabled(true);

    eprintln!("[compile_bench] {kind}: training model + generating accelerator…");
    let data = generate(kind, opts.sizes, opts.seed);
    let model = ModelCache::global().train_cached(&model_key_for(kind, opts), &data.train, threads);
    let config = matador::config::MatadorConfig::builder()
        .design_name("compile_bench")
        .build()
        .expect("default configuration is valid");
    let design = DesignCache::global().generate_cached(&model, &config, threads);
    let accel = design.compile_for_sim();
    let batch: Vec<BitVec> = (0..args.batch)
        .map(|i| data.test[i % data.test.len()].input.clone())
        .collect();

    println!(
        "compile_bench — {kind} design, {} windows of bus width {}, seed {}, best of {} compiles",
        accel.shape().num_packets(),
        accel.shape().bus_width,
        opts.seed,
        args.repeats
    );

    let combos = [
        ("none", CompileOptions::none()),
        (
            "cse",
            CompileOptions {
                cse: true,
                schedule: false,
                partitions: 1,
            },
        ),
        (
            "schedule",
            CompileOptions {
                cse: false,
                schedule: true,
                partitions: 1,
            },
        ),
        ("cse+schedule", CompileOptions::default()),
    ];
    let before = matador_obs::Registry::global().snapshot();
    let cells: Vec<Combo> = combos
        .iter()
        .map(|&(name, options)| measure(&accel, name, options, args.repeats))
        .collect();
    let after = matador_obs::Registry::global().snapshot();
    println!();
    for c in &cells {
        println!(
            "  {:>13}  tape {:>6} -> {:<6} dedup {:>4}  distance {:>8} -> {:<8} \
             clause ANDs {:>6} -> {:<6} tape ANDs {:>6} sum transposes {:>2} ({:.4}s)",
            c.name,
            c.stats.tape_before,
            c.stats.tape_after,
            c.stats.cse_dedup_hits,
            c.stats.schedule_distance_before,
            c.stats.schedule_distance_after,
            c.stats.clause_ands_before,
            c.stats.clause_ands_after,
            c.stats.tape_ands,
            c.stats.sum_transposes,
            c.wall_s
        );
    }
    let compile_runs = after.counter_delta(&before, "matador_compile_runs_total", "");
    assert!(
        compile_runs >= (combos.len() * args.repeats) as u64,
        "the compile pipeline's obs counters were not recording ({compile_runs} runs booked)"
    );

    // Partitioned serving: a K-shard partition group must reproduce the
    // monolithic pool's winners bit for bit.
    let mono_specs = vec![ShardSpec::new(accel.clone()).backend(EngineBackend::Turbo)];
    let expected = winners_of(&mono_specs, &batch);
    let mut ok = true;
    let mut partition_rows: Vec<(usize, usize, u64, bool)> = Vec::new();
    println!();
    for &k in &args.partitions {
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

    let mut artifact = BenchArtifact::new(
        "compile_pipeline",
        kind.to_string(),
        args.batch,
        opts.seed,
        threads,
    );
    artifact.push_run_metadata();
    artifact.push_field("repeats", args.repeats.to_string());
    for c in &cells {
        artifact.push_row(format!(
            "{{\"passes\": \"{}\", \"tape_before\": {}, \"tape_after\": {}, \
             \"cse_dedup_hits\": {}, \"schedule_distance_before\": {}, \
             \"schedule_distance_after\": {}, \"clause_ands_before\": {}, \
             \"clause_ands_after\": {}, \"tape_ands\": {}, \"sum_transposes\": {}, \
             \"compile_wall_s\": {:.6}}}",
            c.name,
            c.stats.tape_before,
            c.stats.tape_after,
            c.stats.cse_dedup_hits,
            c.stats.schedule_distance_before,
            c.stats.schedule_distance_after,
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
    artifact.write(&args.out).map_err(matador::Error::other)?;
    println!("\nwrote {}", args.out);

    if args.assert_cse_shrinkage {
        // Gated on the CSE-only combo so scheduling's unreachable-slot
        // dropping cannot mask a dead CSE pass.
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
