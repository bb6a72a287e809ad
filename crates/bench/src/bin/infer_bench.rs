//! Host-side inference-throughput benchmark: cycle-accurate vs turbo
//! backends at several shard counts, with a machine-readable artifact.
//!
//! Where `serve_sweep` reports *simulated* (in-cycle) throughput, this
//! harness measures what the serving process itself achieves — wall-clock
//! inferences/second on the host — which is what the bit-sliced turbo
//! backend exists to multiply. One KWS-6 model is trained, its
//! accelerator generated, and every
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
//!     [--assert-obs-overhead PCT]
//! ```
//!
//! The JSON artifact (`BENCH_inference.json` by default) tracks the
//! repo's perf trajectory: one row per cell with backend, shards,
//! wall-clock, inf/s and speedup vs the cycle-accurate backend at the
//! first listed shard count (1 by default), plus the effective
//! `chunk_threshold` (the multi-shard pools' consolidation floor).
//! `--assert-turbo-speedup X` exits non-zero unless the turbo backend
//! beats the cycle-accurate backend by at least `X`×;
//! `--assert-shard-monotone` exits non-zero if adding turbo shards
//! *loses* throughput — both are release CI gates.
//!
//! `--assert-obs-overhead PCT` times the single-shard turbo cell with
//! metrics recording disabled and enabled, and exits non-zero if the
//! enabled cell is more than `PCT` percent slower: the release gate
//! keeping the `matador-obs` record path off the contended fast path.
//! `--metrics-out PATH` dumps the registry after the run (JSON at
//! `PATH`, Prometheus text at the `.prom` sibling).
//!
//! Both relative gates (shard-monotone and obs-overhead) read paired
//! measurements: the two compared cells are timed alternately, one
//! window each per round in the order A B, B A, A B, … over at least
//! [`MIN_PAIRED_ROUNDS`] rounds, and the gate reads the median of the
//! per-round ratios. Drift in host load then hits both cells of a
//! round alike, and one disturbed round cannot flip the verdict.

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

/// Fewest alternating rounds a paired gate measurement takes.
const MIN_PAIRED_ROUNDS: usize = 31;

fn backend_slug(backend: EngineBackend) -> &'static str {
    match backend {
        EngineBackend::CycleAccurate => "cycle_accurate",
        EngineBackend::Turbo => "turbo",
    }
}

/// A warmed pool and the number of serves one timed window loops.
/// Warming on the *measured* pool matters: turbo scratch arenas grow to
/// their steady-state size on the first serve, and with flush
/// consolidation each flush of a multi-shard pool may land on a
/// different (initially cold) shard — a cold-pool measurement would
/// charge that one-time warm-up to every cell and misorder the shard
/// scaling.
struct Timed<'a> {
    pool: ShardPool<'a>,
    batch: &'a [BitVec],
    iters_per_repeat: usize,
}

impl<'a> Timed<'a> {
    fn new(accel: &'a CompiledAccelerator, options: ServeOptions, batch: &'a [BitVec]) -> Self {
        let mut pool = ShardPool::with_options(accel, options).expect("positive shard count");
        // The warming serve doubles as the calibration sample: its
        // wall-clock sets how many serves one timed window must loop to
        // cover `MIN_REPEAT_WALL_S`. (An upper clamp bounds calibration
        // error from an anomalously fast warm-up.)
        let start = Instant::now();
        pool.serve(batch).expect("engines drain");
        let warm_wall_s = start.elapsed().as_secs_f64();
        let iters_per_repeat =
            ((MIN_REPEAT_WALL_S / warm_wall_s.max(1e-9)).ceil() as usize).clamp(1, 4096);
        Timed {
            pool,
            batch,
            iters_per_repeat,
        }
    }

    /// One timed window: the mean wall-clock per serve, and the last
    /// serve's winners.
    fn window(&mut self) -> (f64, Vec<usize>) {
        let start = Instant::now();
        for _ in 0..self.iters_per_repeat - 1 {
            self.pool.serve(self.batch).expect("engines drain");
        }
        let predictions = self.pool.serve(self.batch).expect("engines drain");
        let wall_s = start.elapsed().as_secs_f64() / self.iters_per_repeat as f64;
        (wall_s, predictions.iter().map(|p| p.winner).collect())
    }
}

/// Times `repeats` windows of `batch` on one warmed pool and returns the
/// best. The best-of floor is the stable statistic for one cell at
/// sub-millisecond turbo timescales.
fn measure(
    accel: &CompiledAccelerator,
    options: ServeOptions,
    batch: &[BitVec],
    repeats: usize,
) -> Cell {
    let mut timed = Timed::new(accel, options, batch);
    let mut best_wall = f64::INFINITY;
    let mut winners = Vec::new();
    for _ in 0..repeats {
        let (wall_s, w) = timed.window();
        best_wall = best_wall.min(wall_s);
        winners = w;
    }
    Cell {
        backend: options.backend,
        shards: options.shards,
        wall_s: best_wall,
        inf_s: batch.len() as f64 / best_wall.max(1e-9),
        iters_per_repeat: timed.iters_per_repeat,
        winners,
    }
}

/// A paired measurement of two cells.
struct Paired {
    /// Each cell's median window throughput.
    inf_s: [f64; 2],
    /// The median over rounds of cell 1's wall-clock over cell 0's.
    wall_ratio: f64,
}

/// Times two cells alternately for `rounds` rounds (0 1, 1 0, 0 1, …):
/// `window(i)` times one window of cell `i`. Every window's winners
/// must equal `expected`.
fn measure_paired(
    rounds: usize,
    batch_len: usize,
    expected: &[usize],
    mut window: impl FnMut(usize) -> (f64, Vec<usize>),
) -> Paired {
    let mut walls = [Vec::new(), Vec::new()];
    let mut ratios = Vec::new();
    for round in 0..rounds {
        let order = if round.is_multiple_of(2) {
            [0, 1]
        } else {
            [1, 0]
        };
        let mut wall = [0.0; 2];
        for i in order {
            let winners;
            (wall[i], winners) = window(i);
            assert_eq!(winners, expected, "paired cell {i} diverged");
            walls[i].push(wall[i]);
        }
        ratios.push(wall[1] / wall[0]);
    }
    Paired {
        inf_s: walls.map(|mut w| batch_len as f64 / median(&mut w)),
        wall_ratio: median(&mut ratios),
    }
}

/// The median of `xs` (the mean of the middle two for an even count).
fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(f64::total_cmp);
    let mid = xs.len() / 2;
    if xs.len().is_multiple_of(2) {
        (xs[mid - 1] + xs[mid]) / 2.0
    } else {
        xs[mid]
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
        &["--assert-shard-monotone"],
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
    println!("(host wall-clock inf/s)\n");

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

    // Shard-monotone pairs: each consecutive pair of turbo shard counts,
    // timed alternately (see the module docs); the gate reads the median
    // per-round throughput ratio.
    let rounds = repeats.max(MIN_PAIRED_ROUNDS);
    let mut monotone_pairs: Vec<(&[usize], Paired)> = Vec::new();
    if assert_monotone {
        println!();
        for pair in shard_counts.windows(2) {
            let mut timed = [pair[0], pair[1]]
                .map(|shards| Timed::new(&accel, ServeOptions::turbo(shards), &batch));
            let paired = measure_paired(rounds, batch.len(), &cells[0].winners, |i| {
                timed[i].window()
            });
            println!(
                "  paired turbo shards={} vs shards={}: {:>12.0} vs {:>12.0} inf/s, median \
                 ratio {:.3} over {rounds} rounds",
                pair[1],
                pair[0],
                paired.inf_s[1],
                paired.inf_s[0],
                1.0 / paired.wall_ratio
            );
            monotone_pairs.push((pair, paired));
        }
    }

    // Observability-overhead cells: one warmed single-shard turbo pool
    // timed with the metrics record path disabled and enabled,
    // alternately; the median per-round ratio is what the release gate
    // and the artifact record. One pool for both cells keeps its memory
    // layout out of the comparison.
    let obs_overhead = assert_obs_overhead.map(|_| {
        let mut timed = Timed::new(&accel, ServeOptions::turbo(1), &batch);
        let paired = measure_paired(rounds, batch.len(), &cells[0].winners, |i| {
            matador_obs::set_enabled(i == 1);
            timed.window()
        });
        matador_obs::set_enabled(true);
        let overhead_pct = (paired.wall_ratio - 1.0) * 100.0;
        println!(
            "\n  obs overhead: metrics off {:>12.0} inf/s, on {:>12.0} inf/s ({overhead_pct:+.2}% \
             median over {rounds} rounds)",
            paired.inf_s[0], paired.inf_s[1]
        );
        (paired, overhead_pct)
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
    if let Some((paired, overhead_pct)) = &obs_overhead {
        artifact.push_field(
            "obs_overhead",
            format!(
                "{{\"off_inf_s\": {:.1}, \"on_inf_s\": {:.1}, \"overhead_pct\": {:.2}}}",
                paired.inf_s[0], paired.inf_s[1], overhead_pct
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
    write_outputs(
        &artifact,
        Some(&out),
        flags.string("--metrics-out").as_deref(),
    )?;

    let mut ok = true;
    if let Some(max_pct) = assert_obs_overhead {
        let (_, overhead_pct) = obs_overhead.as_ref().expect("measured above");
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
        for (pair, paired) in &monotone_pairs {
            // Throughput ratio next/prev is the inverse wall-clock ratio.
            let ratio = 1.0 / paired.wall_ratio;
            if ratio < 0.9 {
                eprintln!(
                    "::error::turbo throughput regressed with shards: median ratio {ratio:.3} \
                     of shards={} over shards={} ({} vs {} inf/s)",
                    pair[1], pair[0], paired.inf_s[1] as u64, paired.inf_s[0] as u64
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
