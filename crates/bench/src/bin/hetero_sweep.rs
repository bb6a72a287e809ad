//! Heterogeneous-serving sweep: two generated designs of different bus
//! widths behind one shard pool, under both blind and latency-aware
//! dispatch.
//!
//! Trains (or cache-loads) one KWS-6 model, then generates — or
//! cache-loads, via [`matador_bench::DesignCache`] — *two* accelerators
//! for it: a wide-bus design (few packets per datapoint, low II) and a
//! narrow-bus design (many packets, high II). Both sit behind a single
//! [`ShardPool`] as one [`ShardSpec`] each — the mixed-fleet scenario
//! MATADOR's per-workload design generation produces in a real edge
//! deployment. For every batch size the pool is run under `RoundRobin`
//! and `LatencyAware` dispatch, printing the per-design merged
//! [`ThroughputReport`]s and the whole-pool drain cycles. Winners are
//! asserted bit-identical across policies on every run — dispatch is a
//! pure throughput knob.
//!
//! ```text
//! cargo run -p matador-bench --bin hetero_sweep --release -- \
//!     [--quick] [--seed N] [--batches 16,64,256] \
//!     [--assert-dispatch] [--json BENCH_serve.json]
//! ```
//!
//! `--assert-dispatch` exits non-zero unless `LatencyAware` completes the
//! largest batch in **no more pool cycles** than `RoundRobin` — the
//! `hetero-scaling` CI gate (simulated cycles, so deterministic).
//! `--json <path>` writes the sweep as a machine-readable artifact in the
//! same shape as `BENCH_inference.json`.

use matador_bench::harness::{self, write_outputs, Flags, Kws6};
use matador_serve::{DispatchPolicy, ServeOptions, ShardPool, ShardSpec, ThroughputReport};
use tsetlin::bits::BitVec;

/// Bus widths of the two generated designs: 6 packets vs 48 packets per
/// KWS-6 datapoint — an 8× II gap for the dispatcher to exploit.
const WIDE_BUS: usize = 64;
const NARROW_BUS: usize = 8;

fn main() {
    harness::main(run);
}

/// One measured cell: a batch served under one policy over the mixed
/// pool, reported per design and for the pool as a whole.
struct Cell {
    policy: DispatchPolicy,
    /// Per-design merged reports, spec order (wide, narrow).
    per_design: Vec<ThroughputReport>,
    /// Requests each design absorbed, spec order.
    share: Vec<usize>,
    pool_cycles: u64,
    inf_s: f64,
    winners: Vec<usize>,
}

fn measure(specs: &[ShardSpec], policy: DispatchPolicy, batch: &[BitVec], clock: f64) -> Cell {
    let mut options = ServeOptions::new(specs.len());
    options.policy = policy;
    let mut pool = ShardPool::heterogeneous(specs, options).expect("valid specs");
    // Warm the observed-II statistics on both shards so LatencyAware
    // plans from measured steady-state gaps, as a long-running deployment
    // would — deterministic, like everything else in simulated cycles.
    let warm = batch.len().min(8);
    pool.serve(&batch[..warm]).expect("engines drain");
    let warm_report = pool.report();
    let warm_latencies = pool.latencies().len();

    let predictions = pool.serve(batch).expect("engines drain");
    let report = pool.report();
    let latencies = &pool.latencies()[warm_latencies..];
    // Subtract the warmup so the cell reflects the measured batch only.
    let per_design: Vec<ThroughputReport> = report
        .shards
        .iter()
        .map(|stats| {
            let mut delta = *stats;
            let before = warm_report.shards[stats.shard];
            delta.cycles -= before.cycles;
            delta.datapoints -= before.datapoints;
            delta.transfers -= before.transfers;
            delta.stall_cycles -= before.stall_cycles;
            let design_latencies: Vec<u64> = predictions
                .iter()
                .filter(|p| p.shard == stats.shard)
                .map(|p| p.latency_cycles)
                .collect();
            ThroughputReport::merge(vec![delta], &design_latencies)
        })
        .collect();
    let share: Vec<usize> = (0..specs.len())
        .map(|s| predictions.iter().filter(|p| p.shard == s).count())
        .collect();
    // The measured batch's pool drain: the slowest shard's cycle delta.
    let pool_cycles = per_design
        .iter()
        .map(|r| r.pool_cycles)
        .max()
        .expect("two designs");
    let merged = ThroughputReport::merge(
        per_design
            .iter()
            .flat_map(|r: &ThroughputReport| r.shards.clone())
            .collect(),
        latencies,
    );
    Cell {
        policy,
        per_design,
        share,
        pool_cycles,
        inf_s: merged.throughput_inf_s(clock),
        winners: predictions.iter().map(|p| p.winner).collect(),
    }
}

fn run() -> Result<bool, matador::Error> {
    let flags = Flags::parse(&["--batches", "--json"], &["--assert-dispatch"])?;
    let batches = flags.list("--batches")?.unwrap_or(vec![16, 64, 256]);
    let opts = &flags.opts;
    let kind = Kws6::KIND;

    let kws = Kws6::train("hetero_sweep", opts);
    let wide = kws.design("hetero_wide", Some(WIDE_BUS));
    let narrow = kws.design("hetero_narrow", Some(NARROW_BUS));
    // One fabric clock for the whole pool: the slower of the two
    // implementations (the pool is only as fast as its critical design).
    let clock = wide.implement().clock_mhz.min(narrow.implement().clock_mhz);
    let specs = vec![
        ShardSpec::new(wide.compile_for_sim()),
        ShardSpec::new(narrow.compile_for_sim()),
    ];
    let design_names = ["wide", "narrow"];

    println!(
        "hetero_sweep — {kind}, one model on two buses: wide {WIDE_BUS}b ({} packets) + \
         narrow {NARROW_BUS}b ({} packets), clock {clock:.0} MHz, seed {}",
        specs[0].beats_per_request(),
        specs[1].beats_per_request(),
        opts.seed
    );
    println!(
        "(mixed pool, per-design merged reports; {})\n",
        harness::cache_counts()
    );

    let policies = [DispatchPolicy::RoundRobin, DispatchPolicy::LatencyAware];
    let gate_batch = *batches.iter().max().expect("non-empty");
    let mut artifact = kws.artifact("hetero_serve", gate_batch, opts.seed);
    let mut gate_cells: Vec<Cell> = Vec::new();
    for &batch_size in &batches {
        let batch = kws.inputs(batch_size);
        let cells: Vec<Cell> = policies
            .iter()
            .map(|&policy| measure(&specs, policy, &batch, clock))
            .collect();
        // Determinism: identical predictions under every policy.
        for cell in &cells[1..] {
            assert_eq!(
                cell.winners, cells[0].winners,
                "predictions diverged between {:?} and {:?}",
                cells[0].policy, cell.policy
            );
        }
        println!("batch {batch_size}:");
        for cell in &cells {
            let shares: Vec<String> = design_names
                .iter()
                .zip(&cell.share)
                .zip(&cell.per_design)
                .map(|((name, share), report)| {
                    format!("{name} {share} reqs @ {} cyc", report.pool_cycles)
                })
                .collect();
            println!(
                "  {:>13}: pool {:>7} cyc  {:>12.0} inf/s   ({})",
                cell.policy.as_label(),
                cell.pool_cycles,
                cell.inf_s,
                shares.join(", ")
            );
            for ((name, report), share) in
                design_names.iter().zip(&cell.per_design).zip(&cell.share)
            {
                artifact.push_row(format!(
                    "{{\"policy\": \"{}\", \"design\": \"{name}\", \"batch\": {batch_size}, \
                     \"requests\": {share}, \"pool_cycles\": {}, \"inf_s\": {:.1}, \
                     \"latency_p50_cycles\": {}, \"latency_p99_cycles\": {}}}",
                    cell.policy.as_label(),
                    report.pool_cycles,
                    report.throughput_inf_s(clock),
                    report.latency_p50_cycles,
                    report.latency_p99_cycles
                ));
            }
            artifact.push_row(format!(
                "{{\"policy\": \"{}\", \"design\": \"pool\", \"batch\": {batch_size}, \
                 \"requests\": {}, \"pool_cycles\": {}, \"inf_s\": {:.1}}}",
                cell.policy.as_label(),
                cell.winners.len(),
                cell.pool_cycles,
                cell.inf_s
            ));
        }
        if batch_size == gate_batch {
            gate_cells = cells;
        }
    }

    write_outputs(&artifact, flags.string("--json").as_deref(), None)?;

    let mut gate_passed = true;
    if flags.switch("--assert-dispatch") {
        let round_robin = &gate_cells[0];
        let latency_aware = &gate_cells[1];
        println!(
            "\ndispatch gate (batch {gate_batch}): latency_aware {} cyc vs round_robin {} cyc",
            latency_aware.pool_cycles, round_robin.pool_cycles
        );
        if latency_aware.pool_cycles > round_robin.pool_cycles {
            eprintln!(
                "::error::LatencyAware drained the mixed pool in {} cycles, more than \
                 RoundRobin's {}",
                latency_aware.pool_cycles, round_robin.pool_cycles
            );
            gate_passed = false;
        } else {
            println!(
                "dispatch gate passed: LatencyAware completes the batch in no more pool \
                 cycles than RoundRobin"
            );
        }
    }
    Ok(gate_passed)
}
