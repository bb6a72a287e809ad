//! Host-side inference-throughput benchmark: cycle-accurate vs turbo
//! backends at several shard counts, with a machine-readable artifact.
//!
//! Where `serve_sweep` reports *simulated* (in-cycle) throughput, this
//! harness measures what the serving process itself achieves — wall-clock
//! inferences/second on the host — which is what the bit-sliced turbo
//! backend exists to multiply. One KWS-6 model is trained (or
//! cache-loaded), its accelerator generated (or cache-loaded), and every
//! `backend × shard-count` cell serves the same batch on a warmed pool;
//! the cell reports the best of several timed repeats, and each repeat
//! loops enough serves to cover at least 50 ms of wall-clock (recorded
//! as `iters_per_repeat` in the artifact) — a single sub-millisecond
//! turbo serve is timer-quantization noise, and the best-of floor over
//! ≥50 ms windows is the stable statistic. Winners are asserted
//! bit-identical across all cells on every run.
//!
//! ```text
//! cargo run -p matador-bench --bin infer_bench --release -- \
//!     [--quick] [--seed N] [--shards 1,4,8] [--batch N] [--repeats N] \
//!     [--out BENCH_inference.json] [--metrics-out PATH] \
//!     [--assert-turbo-speedup X] [--assert-shard-monotone] \
//!     [--assert-obs-overhead PCT] [--sweep-chunk]
//! ```
//!
//! The JSON artifact (`BENCH_inference.json` by default) tracks the
//! repo's perf trajectory: one row per cell with backend, shards,
//! wall-clock, inf/s and speedup vs the cycle-accurate backend at the
//! first listed shard count (1 by default), the effective
//! `chunk_threshold`, and `thread_scaling` rows (single-shard turbo at
//! 1/2/4/8 worker threads). `--assert-turbo-speedup X` exits non-zero
//! unless the turbo backend beats the cycle-accurate backend by at least
//! `X`×; `--assert-shard-monotone` exits non-zero if adding turbo shards
//! *loses* throughput — both are release CI gates. `--sweep-chunk`
//! additionally measures single-shard turbo across a ladder of
//! `MATADOR_CHUNK_THRESHOLD` values and records the sweep.
//!
//! `--assert-obs-overhead PCT` times the single-shard turbo cell twice
//! in-process — metrics recording disabled, then enabled — and exits
//! non-zero if the enabled run is more than `PCT` percent slower: the
//! release gate keeping the `matador-obs` record path off the contended
//! fast path. `--metrics-out PATH` dumps the registry after the run
//! (JSON at `PATH`, Prometheus text at the `.prom` sibling).

use matador_bench::eval::bad_arg;
use matador_bench::harness::{self, write_outputs, Flags, Kws6};
use matador_serve::{EngineBackend, ServeOptions, ShardPool};
use matador_sim::CompiledAccelerator;
use std::time::Instant;
use tsetlin::bits::BitVec;

fn main() {
    harness::main(run);
}

struct Cell {
    backend: EngineBackend,
    shards: usize,
    wall_s: f64,
    inf_s: f64,
    iters_per_repeat: usize,
    winners: Vec<usize>,
}

/// Minimum wall-clock one timed repeat must cover. Steady-state turbo
/// serves finish in hundreds of microseconds — the same order as timer
/// quantization and scheduler jitter — so a single serve per repeat
/// measures noise. Each repeat loops enough serves to cross this floor
/// and reports the mean per serve.
const MIN_REPEAT_WALL_S: f64 = 0.050;

fn backend_slug(backend: EngineBackend) -> &'static str {
    match backend {
        EngineBackend::CycleAccurate => "cycle_accurate",
        EngineBackend::Turbo => "turbo",
    }
}

/// Times `repeats` serves of `batch` on one warmed pool and returns the
/// best run. Warming on the *measured* pool matters: turbo scratch
/// arenas grow to their steady-state size on the first serve, and with
/// flush consolidation each flush of a multi-shard pool may land on a
/// different (initially cold) shard — a cold-pool measurement would
/// charge that one-time warm-up to every cell and misorder the shard
/// scaling. The best-of floor is the stable statistic at sub-millisecond
/// turbo timescales.
fn measure(
    accel: &CompiledAccelerator,
    options: ServeOptions,
    batch: &[BitVec],
    repeats: usize,
) -> Cell {
    let mut pool = ShardPool::with_options(accel, options).expect("positive shard count");
    // The warming serve doubles as the calibration sample: its wall-clock
    // sets how many serves one timed repeat must loop to cover
    // `MIN_REPEAT_WALL_S`. (An upper clamp bounds calibration error from
    // an anomalously fast warm-up.)
    let start = Instant::now();
    pool.serve(batch).expect("engines drain");
    let warm_wall_s = start.elapsed().as_secs_f64();
    let iters_per_repeat =
        ((MIN_REPEAT_WALL_S / warm_wall_s.max(1e-9)).ceil() as usize).clamp(1, 4096);
    let mut best_wall = f64::INFINITY;
    let mut winners = Vec::new();
    for _ in 0..repeats {
        let start = Instant::now();
        for _ in 0..iters_per_repeat - 1 {
            pool.serve(batch).expect("engines drain");
        }
        let predictions = pool.serve(batch).expect("engines drain");
        let wall_s = start.elapsed().as_secs_f64() / iters_per_repeat as f64;
        if wall_s < best_wall {
            best_wall = wall_s;
        }
        winners = predictions.iter().map(|p| p.winner).collect();
    }
    Cell {
        backend: options.backend,
        shards: options.shards,
        wall_s: best_wall,
        inf_s: batch.len() as f64 / best_wall.max(1e-9),
        iters_per_repeat,
        winners,
    }
}

fn run() -> Result<bool, matador::Error> {
    let flags = Flags::parse(
        &[
            "--shards",
            "--batch",
            "--repeats",
            "--out",
            "--metrics-out",
            "--assert-turbo-speedup",
            "--assert-obs-overhead",
        ],
        &["--assert-shard-monotone", "--sweep-chunk"],
    )?;
    let shard_counts = flags.list("--shards")?.unwrap_or(vec![1, 4, 8]);
    // The cycle-accurate baseline dominates wall-clock; size the batch so
    // full runs stay in seconds, not minutes.
    let batch_size = flags.positive("--batch")?.unwrap_or(1024);
    let repeats = flags.positive("--repeats")?.unwrap_or(5usize);
    let out = flags
        .string("--out")
        .unwrap_or_else(|| "BENCH_inference.json".to_string());
    let assert_speedup: Option<f64> = flags.positive("--assert-turbo-speedup")?;
    let assert_monotone = flags.switch("--assert-shard-monotone");
    // The gate compares consecutive shard counts: with one count there
    // is no pair to compare and it would pass vacuously.
    if assert_monotone && shard_counts.len() < 2 {
        return Err(bad_arg(format!(
            "--assert-shard-monotone needs at least two --shards counts, got {shard_counts:?}"
        )));
    }
    let assert_obs_overhead: Option<f64> = flags.positive("--assert-obs-overhead")?;
    let opts = &flags.opts;
    let kind = Kws6::KIND;
    let chunk_threshold = matador_sim::configured_chunk_threshold();
    // Main cells run with recording live — the throughput this harness
    // tracks per commit is the one operators get, metrics and all. The
    // obs-overhead gate below toggles this off for its baseline cell.
    matador_obs::set_enabled(true);

    let kws = Kws6::train("infer_bench", opts);
    let threads = kws.threads;
    let accel = kws.design("infer_bench", None).compile_for_sim();
    let batch = kws.inputs(batch_size);

    println!(
        "infer_bench — {kind} design, {} packets/datapoint, batch {}, seed {}, {} worker \
         thread(s), chunk threshold {}, best of {} serves",
        accel.shape().num_packets(),
        batch_size,
        opts.seed,
        threads,
        chunk_threshold,
        repeats
    );
    println!("(host wall-clock inf/s; {})\n", harness::cache_counts());

    let mut cells: Vec<Cell> = Vec::new();
    for backend in [EngineBackend::CycleAccurate, EngineBackend::Turbo] {
        for &shards in &shard_counts {
            // The cycle-accurate baseline is deterministic and slow:
            // one repeat is representative and keeps full runs short.
            let repeats = match backend {
                EngineBackend::CycleAccurate => 1,
                EngineBackend::Turbo => repeats,
            };
            let options = ServeOptions {
                backend,
                ..ServeOptions::new(shards)
            };
            let cell = measure(&accel, options, &batch, repeats);
            println!(
                "  {:>14} shards={:<2} {:>12.0} inf/s  ({:.3}s, x{} serves/repeat)",
                backend_slug(cell.backend),
                cell.shards,
                cell.inf_s,
                cell.wall_s,
                cell.iters_per_repeat
            );
            cells.push(cell);
        }
    }

    // Backends and shard counts must agree bit-for-bit on every run.
    for cell in &cells[1..] {
        assert_eq!(
            cell.winners,
            cells[0].winners,
            "predictions diverged: {} shards={} vs {} shards={}",
            backend_slug(cell.backend),
            cell.shards,
            backend_slug(cells[0].backend),
            cells[0].shards
        );
    }

    // Worker-thread scaling of a single turbo shard: the chunk fan-out
    // is the only parallelism in play, so these rows isolate how the
    // intra-shard path scales with `ServeOptions::threads`.
    println!();
    let mut thread_rows: Vec<(usize, f64, usize)> = Vec::new();
    for t in [1usize, 2, 4, 8] {
        let options = ServeOptions {
            threads: Some(t),
            ..ServeOptions::turbo(1)
        };
        let cell = measure(&accel, options, &batch, repeats);
        println!(
            "  turbo shards=1 threads={t:<2} {:>12.0} inf/s  ({:.3}s, x{})",
            cell.inf_s, cell.wall_s, cell.iters_per_repeat
        );
        assert_eq!(cell.winners, cells[0].winners, "thread scaling diverged");
        thread_rows.push((t, cell.inf_s, cell.iters_per_repeat));
    }

    // Optional chunk-threshold sweep: single-shard turbo across a ladder
    // of thresholds. Low thresholds fan small batches out aggressively;
    // `u64::MAX` forces the serial path at any batch size.
    let mut sweep_rows: Vec<(u64, f64, usize)> = Vec::new();
    if flags.switch("--sweep-chunk") {
        println!();
        for threshold in [1u64 << 14, 1 << 16, 1 << 18, 1 << 20, 1 << 22, u64::MAX] {
            let options = ServeOptions {
                chunk_threshold: Some(threshold),
                ..ServeOptions::turbo(1)
            };
            let cell = measure(&accel, options, &batch, repeats);
            println!(
                "  turbo shards=1 chunk_threshold={threshold:<20} {:>12.0} inf/s",
                cell.inf_s
            );
            assert_eq!(cell.winners, cells[0].winners, "chunk sweep diverged");
            sweep_rows.push((threshold, cell.inf_s, cell.iters_per_repeat));
        }
    }

    // Observability-overhead cells: the same single-shard turbo
    // measurement with the metrics record path disabled, then enabled.
    // Both are best-of-repeats over ≥50 ms windows, so scheduler noise
    // largely cancels; the paired reading is what the release gate and
    // the artifact record.
    let obs_overhead = assert_obs_overhead.map(|_| {
        let repeats = repeats.max(7);
        matador_obs::set_enabled(false);
        let off = measure(&accel, ServeOptions::turbo(1), &batch, repeats);
        matador_obs::set_enabled(true);
        let on = measure(&accel, ServeOptions::turbo(1), &batch, repeats);
        assert_eq!(off.winners, cells[0].winners, "metrics-off cell diverged");
        assert_eq!(on.winners, cells[0].winners, "metrics-on cell diverged");
        let overhead_pct = (on.wall_s / off.wall_s - 1.0) * 100.0;
        println!(
            "\n  obs overhead: metrics off {:>12.0} inf/s, on {:>12.0} inf/s ({overhead_pct:+.2}%)",
            off.inf_s, on.inf_s
        );
        (off, on, overhead_pct)
    });

    // The baseline is the cycle-accurate backend at the first *listed*
    // shard count (1 in the default and CI invocations) — recorded in the
    // artifact so rows are never mislabeled under a custom --shards list.
    let baseline_shards = shard_counts[0];
    let baseline = cells
        .iter()
        .find(|c| c.backend == EngineBackend::CycleAccurate && c.shards == baseline_shards)
        .expect("first cell is the baseline")
        .inf_s;
    let mut artifact = kws.artifact("inference_throughput", batch_size, opts.seed);
    artifact.push_field(
        "baseline",
        format!("{{\"backend\": \"cycle_accurate\", \"shards\": {baseline_shards}}}"),
    );
    artifact.push_field("chunk_threshold", chunk_threshold.to_string());
    artifact.push_field("repeats", repeats.to_string());
    if let Some((off, on, overhead_pct)) = &obs_overhead {
        artifact.push_field(
            "obs_overhead",
            format!(
                "{{\"off_inf_s\": {:.1}, \"on_inf_s\": {:.1}, \"overhead_pct\": {:.2}}}",
                off.inf_s, on.inf_s, overhead_pct
            ),
        );
    }
    for c in &cells {
        artifact.push_row(format!(
            "{{\"backend\": \"{}\", \"shards\": {}, \"wall_s\": {:.6}, \
             \"inf_s\": {:.1}, \"speedup_vs_baseline\": {:.2}, \"iters_per_repeat\": {}}}",
            backend_slug(c.backend),
            c.shards,
            c.wall_s,
            c.inf_s,
            c.inf_s / baseline,
            c.iters_per_repeat
        ));
    }
    for &(t, inf_s, iters) in &thread_rows {
        artifact.push_row(format!(
            "{{\"sweep\": \"thread_scaling\", \"backend\": \"turbo\", \"shards\": 1, \
             \"threads\": {t}, \"inf_s\": {inf_s:.1}, \"iters_per_repeat\": {iters}}}"
        ));
    }
    for &(threshold, inf_s, iters) in &sweep_rows {
        artifact.push_row(format!(
            "{{\"sweep\": \"chunk_threshold\", \"backend\": \"turbo\", \"shards\": 1, \
             \"chunk_threshold\": {threshold}, \"inf_s\": {inf_s:.1}, \
             \"iters_per_repeat\": {iters}}}"
        ));
    }
    write_outputs(
        &artifact,
        Some(&out),
        flags.string("--metrics-out").as_deref(),
    )?;

    let mut ok = true;
    if let Some(max_pct) = assert_obs_overhead {
        let (_, _, overhead_pct) = obs_overhead.as_ref().expect("measured above");
        if *overhead_pct > max_pct {
            eprintln!(
                "::error::metrics-on turbo serving is {overhead_pct:.2}% slower than \
                 metrics-off, above the {max_pct:.2}% budget"
            );
            ok = false;
        } else {
            println!("obs-overhead gate passed: {overhead_pct:+.2}% <= {max_pct:.2}%");
        }
    }
    if let Some(min_speedup) = assert_speedup {
        let turbo = cells
            .iter()
            .find(|c| c.backend == EngineBackend::Turbo && c.shards == baseline_shards)
            .expect("turbo cell at the baseline shard count")
            .inf_s;
        let speedup = turbo / baseline;
        if speedup < min_speedup {
            eprintln!(
                "::error::turbo speedup {speedup:.2}x at shards={} is below the \
                 required {min_speedup:.2}x",
                baseline_shards
            );
            ok = false;
        } else {
            println!(
                "turbo gate passed: {speedup:.2}x >= {min_speedup:.2}x at shards={}",
                baseline_shards
            );
        }
    }
    if assert_monotone {
        // Adding turbo shards must never *lose* throughput in listed
        // order. The 0.9 factor absorbs runner noise: consolidated small
        // flushes make extra shards a no-op, so "equal within 10%" is the
        // honest floor while a real regression (serializing against cold
        // shards, oversubscribed fan-out) shows up far below it.
        let turbo: Vec<&Cell> = cells
            .iter()
            .filter(|c| c.backend == EngineBackend::Turbo)
            .collect();
        for pair in turbo.windows(2) {
            let (prev, next) = (pair[0], pair[1]);
            if next.inf_s < prev.inf_s * 0.9 {
                eprintln!(
                    "::error::turbo throughput regressed with shards: {} inf/s at shards={} \
                     vs {} inf/s at shards={}",
                    next.inf_s as u64, next.shards, prev.inf_s as u64, prev.shards
                );
                ok = false;
            }
        }
        if ok {
            println!("shard-monotone gate passed across shards {shard_counts:?}");
        }
    }
    Ok(ok)
}
