//! Sharded-serving scaling sweep: shards × batch sizes over one compiled
//! design, through the `matador-serve` runtime.
//!
//! Trains one KWS-6 model, generates the accelerator
//! once, then serves every batch size on pools of every shard count,
//! printing a scaling table of pool cycles, aggregate inf/s at the
//! implemented clock, and latency percentiles. Predictions are asserted
//! bit-identical across shard counts on every run — sharding is a pure
//! throughput knob.
//!
//! ```text
//! cargo run -p matador-bench --bin serve_sweep --release -- \
//!     [--quick] [--seed N] [--shards 1,2,4,8] [--batches 16,64,256] \
//!     [--assert-scaling] [--json BENCH_serve.json] [--metrics-out PATH]
//! ```
//!
//! `--assert-scaling` exits non-zero unless every multi-shard pool beats
//! the single-shard pool's throughput on the largest batch — the CI gate.
//! `--json <path>` writes the whole sweep as a machine-readable artifact
//! in the same shape as `BENCH_inference.json`, so CI can track the serve
//! perf trajectory per commit. `--metrics-out PATH` dumps the process
//! metrics registry after the sweep: JSON at `PATH`, Prometheus text at
//! the `.prom` sibling.

use matador_bench::eval::bad_arg;
use matador_bench::harness::{self, write_outputs, Flags, Kws6};
use matador_serve::{DispatchPolicy, ServeOptions, ShardPool};
use matador_sim::CompiledAccelerator;
use tsetlin::bits::BitVec;

fn main() {
    harness::main(run);
}

/// One measured cell of the sweep.
struct Cell {
    pool_cycles: u64,
    inf_s: f64,
    p50: u64,
    p99: u64,
    winners: Vec<usize>,
}

fn measure(accel: &CompiledAccelerator, shards: usize, batch: &[BitVec], clock: f64) -> Cell {
    let mut options = ServeOptions::new(shards);
    options.policy = DispatchPolicy::RoundRobin;
    let mut pool = ShardPool::with_options(accel, options).expect("positive shard count");
    let predictions = pool.serve(batch).expect("engines drain");
    let report = pool.report();
    Cell {
        pool_cycles: report.pool_cycles,
        inf_s: report.throughput_inf_s(clock),
        p50: report.latency_p50_cycles,
        p99: report.latency_p99_cycles,
        winners: predictions.iter().map(|p| p.winner).collect(),
    }
}

fn run() -> Result<bool, matador::Error> {
    let flags = Flags::parse(
        &["--shards", "--batches", "--json", "--metrics-out"],
        &["--assert-scaling"],
    )?;
    let shards = flags.list("--shards")?.unwrap_or(vec![1, 2, 4, 8]);
    let batches = flags.list("--batches")?.unwrap_or(vec![16, 64, 256]);
    let assert_scaling = flags.switch("--assert-scaling");
    // The gate compares every listed shard count with the first: with
    // one count there is nothing to compare and it would pass vacuously.
    if assert_scaling && shards.len() < 2 {
        return Err(bad_arg(format!(
            "--assert-scaling needs at least two --shards counts, got {shards:?}"
        )));
    }
    let opts = &flags.opts;
    let kind = Kws6::KIND;
    // Sweep with recording live, so a --metrics-out dump is populated
    // and the tracked numbers include the record path.
    matador_obs::set_enabled(true);

    let kws = Kws6::train("serve_sweep", opts);
    let design = kws.design("serve_sweep", None);
    let clock = design.implement().clock_mhz;
    let accel = design.compile_for_sim();

    println!(
        "serve_sweep — {kind} design, {} packets/datapoint, clock {clock:.0} MHz, \
         round-robin dispatch, seed {}",
        accel.shape().num_packets(),
        opts.seed
    );
    println!("(cycle-accurate pooled engines; pool wall-clock = slowest shard)\n");

    let header: Vec<String> = shards
        .iter()
        .map(|s| format!("{:>21}", format!("shards={s}")))
        .collect();
    println!(
        "{:>7} {}   (inf/s @ pool cycles)",
        "batch",
        header.join(" ")
    );

    let mut gate_passed = true;
    let gate_batch = *batches.iter().max().expect("non-empty");
    let mut final_row: Vec<(usize, Cell)> = Vec::new();
    let mut artifact = kws.artifact("serve_throughput", gate_batch, opts.seed);
    for &batch_size in &batches {
        let batch = kws.inputs(batch_size);
        let cells: Vec<(usize, Cell)> = shards
            .iter()
            .map(|&s| (s, measure(&accel, s, &batch, clock)))
            .collect();
        // Determinism: identical predictions at every shard count.
        for (s, cell) in &cells[1..] {
            assert_eq!(
                cell.winners, cells[0].1.winners,
                "predictions diverged between shards={} and shards={s}",
                cells[0].0
            );
        }
        let row: Vec<String> = cells
            .iter()
            .map(|(_, c)| format!("{:>12.0} @ {:>6}", c.inf_s, c.pool_cycles))
            .collect();
        println!("{batch_size:>7} {}", row.join(" "));
        for (s, c) in &cells {
            artifact.push_row(format!(
                "{{\"shards\": {s}, \"batch\": {batch_size}, \"pool_cycles\": {}, \
                 \"inf_s\": {:.1}, \"latency_p50_cycles\": {}, \"latency_p99_cycles\": {}}}",
                c.pool_cycles, c.inf_s, c.p50, c.p99
            ));
        }
        if batch_size == gate_batch {
            final_row = cells;
        }
    }

    // Latency + scaling summary on the largest batch — the summary and
    // the gate below must survive an unsorted `--batches` list.
    println!("\nlargest batch ({gate_batch}):");
    // The baseline is the first *listed* shard count (1 in the default
    // and CI invocations), not necessarily a single shard.
    let baseline = final_row[0].1.inf_s;
    for (s, cell) in &final_row {
        println!(
            "  shards={s:<2} p50 {:>3} cyc  p99 {:>3} cyc  {:>12.0} inf/s  x{:.2} vs shards={}",
            cell.p50,
            cell.p99,
            cell.inf_s,
            cell.inf_s / baseline,
            final_row[0].0
        );
    }

    write_outputs(
        &artifact,
        flags.string("--json").as_deref(),
        flags.string("--metrics-out").as_deref(),
    )?;

    if assert_scaling {
        for (s, cell) in &final_row[1..] {
            if cell.inf_s <= baseline {
                eprintln!(
                    "::error::shards={s} throughput {:.0} inf/s does not beat \
                     shards={} at {:.0} inf/s",
                    cell.inf_s, final_row[0].0, baseline
                );
                gate_passed = false;
            }
        }
        if gate_passed {
            println!(
                "\nscaling gate passed: every multi-shard pool beats shards={}",
                final_row[0].0
            );
        }
    }
    Ok(gate_passed)
}
