//! Open-loop tail-latency load generator for the serving front-end.
//!
//! Where `infer_bench` measures closed-loop batch throughput (the next
//! batch waits for the last), a deployed service is *open-loop*: requests
//! arrive on their own schedule whether or not the server is keeping up,
//! which is exactly the regime where tail latency lives. This harness
//! synthesizes seeded, deterministic arrival traces — a steady Poisson
//! process and a bursty variant with the same mean rate — and replays
//! them through [`matador_serve::Front`] on its virtual clock: every
//! arrival advances the clock, submits with a deadline `slo` cycles out,
//! and the front's own triggers (lane-block fill, deadline pressure,
//! idle ticks) decide the batch boundaries. Because the whole pipeline
//! is virtual-time, the same seed replays bit-identically at any worker
//! thread count — the artifact is a property of the trace, not the host.
//!
//! ```text
//! cargo run -p matador-bench --bin loadgen --release -- \
//!     [--quick] [--seed N] [--shards N] [--requests N] [--tenants N] \
//!     [--utilization-pct N] [--slo-cycles N] [--out BENCH_serve_tail.json] \
//!     [--metrics-out PATH] [--assert-tail X]
//! ```
//!
//! The artifact (`BENCH_serve_tail.json`) carries one row per trace:
//! admission counts, p50/p99/p99.9 admission→delivery latency, goodput
//! under the SLO (delivered-in-deadline over offered), and the batch
//! trigger mix — read from the `matador-obs` registry, so the artifact
//! exercises the same counters an operator would scrape. `--metrics-out
//! PATH` additionally dumps the whole registry after the run: a JSON
//! snapshot at `PATH` plus a Prometheus text sibling at `PATH` with a
//! `.prom` extension. `--assert-tail X` exits non-zero unless the steady
//! Poisson trace's p99.9 stays within `X`× its p50 — the release CI gate
//! that catches coalescer regressions (a lost flush trigger shows up as
//! an unbounded tail long before it dents the mean).

use matador_bench::harness::{self, exp_gap, write_outputs, Flags, Kws6};
use matador_obs::Registry;
use matador_serve::{
    percentile_per_mille, FlushTrigger, Front, FrontOptions, ServeOptions, ShardPool,
};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use tsetlin::bits::BitVec;

fn main() {
    harness::main(run);
}

/// One synthesized arrival process. Both traces share the mean rate;
/// `burst_len` > 1 packs arrivals back-to-back in runs of that length,
/// separated by proportionally longer exponential gaps — same load,
/// radically worse arrival variance.
struct TraceSpec {
    name: &'static str,
    burst_len: u64,
}

/// Everything the artifact records about one replayed trace. The batch
/// trigger mix is read back as `matador_front_batches_total{trigger=..}`
/// counter deltas around the replay rather than by re-scanning
/// [`Front::batches`]: the artifact then exercises — and cross-checks,
/// via the admitted/delivered invariant below — the very counters an
/// operator's dashboard would scrape.
struct TraceResult {
    name: &'static str,
    offered: usize,
    admitted: u64,
    delivered: usize,
    in_slo: usize,
    p50: u64,
    p99: u64,
    p999: u64,
    fills: u64,
    pressure: u64,
    idle: u64,
    drains: u64,
}

/// The shared shape of the offered load: identical for every trace in a
/// run, so the steady and bursty variants differ only in burstiness.
struct LoadSpec {
    requests: usize,
    tenants: u32,
    mean_gap: f64,
    slo: u64,
    seed: u64,
}

fn run_trace(
    front: &mut Front<'_>,
    trace: &TraceSpec,
    inputs: &[BitVec],
    load: &LoadSpec,
) -> Result<TraceResult, matador::Error> {
    let before = Registry::global().snapshot();
    let mut rng = SmallRng::seed_from_u64(load.seed);
    let mut t = front.now();
    for i in 0..load.requests {
        let gap = if (i as u64).is_multiple_of(trace.burst_len) {
            // The head of each burst carries the whole window's worth of
            // mean gap, so the bursty trace offers the same average load.
            exp_gap(&mut rng, load.mean_gap * trace.burst_len as f64)
        } else {
            1
        };
        t += gap;
        front.advance_to(t).map_err(matador::Error::other)?;
        let input = &inputs[i % inputs.len()];
        let tenant = (i as u32) % load.tenants;
        // Open loop: a rejection (backpressure under burst) is load the
        // server shed, not a generator stall — record and move on.
        let _ = front.submit(input, t + load.slo, tenant);
    }
    // Let the armed timers fire on their own schedule, then force out
    // whatever survived the idle window.
    front
        .advance_to(t + load.slo)
        .map_err(matador::Error::other)?;
    front.drain().map_err(matador::Error::other)?;

    let replies = front.take_replies();
    let mut latencies: Vec<u64> = replies.iter().map(|r| r.latency_cycles()).collect();
    latencies.sort_unstable();
    let in_slo = replies.iter().filter(|r| r.met_deadline()).count();
    let after = Registry::global().snapshot();
    let count_trigger = |want: FlushTrigger| {
        after.counter_delta(
            &before,
            "matador_front_batches_total",
            &format!("trigger=\"{}\"", want.as_label()),
        )
    };
    Ok(TraceResult {
        name: trace.name,
        offered: load.requests,
        admitted: after.counter_delta(&before, "matador_front_admitted_total", ""),
        delivered: replies.len(),
        in_slo,
        p50: percentile_per_mille(&latencies, 500),
        p99: percentile_per_mille(&latencies, 990),
        p999: percentile_per_mille(&latencies, 999),
        fills: count_trigger(FlushTrigger::LaneBlockFull),
        pressure: count_trigger(FlushTrigger::DeadlinePressure),
        idle: count_trigger(FlushTrigger::IdleTick),
        drains: count_trigger(FlushTrigger::Drain),
    })
}

fn run() -> Result<bool, matador::Error> {
    let flags = Flags::parse(
        &[
            "--shards",
            "--requests",
            "--tenants",
            "--utilization-pct",
            "--slo-cycles",
            "--out",
            "--metrics-out",
            "--assert-tail",
        ],
        &[],
    )?;
    let opts = &flags.opts;
    let shards = flags.positive("--shards")?.unwrap_or(4usize);
    // Quick runs are the CI shape: enough arrivals for a meaningful
    // p99.9 (rank ≥ 4 at 4000 samples) without dominating the job.
    let requests = flags.positive("--requests")?.unwrap_or(
        if opts.sizes == matador_datasets::SplitSizes::QUICK {
            4_000
        } else {
            20_000
        },
    );
    let tenants = flags.positive("--tenants")?.unwrap_or(4u32);
    let utilization_pct = flags
        .value(
            "--utilization-pct",
            |n| (1..=100).contains(n),
            "is not in 1..=100",
        )?
        .unwrap_or(60u64);
    let slo_cycles: Option<u64> = flags.positive("--slo-cycles")?;
    let out = flags
        .string("--out")
        .unwrap_or_else(|| "BENCH_serve_tail.json".to_string());
    let assert_tail = flags.value(
        "--assert-tail",
        |x: &f64| *x >= 1.0,
        "must be a factor >= 1",
    )?;

    let kind = Kws6::KIND;
    // The trigger mix and admission counts below are counter deltas, so
    // recording must be on regardless of the MATADOR_METRICS default.
    matador_obs::set_enabled(true);

    let kws = Kws6::train("loadgen", opts);
    let accel = kws.design("loadgen", None).compile_for_sim();
    let inputs = kws.inputs(kws.data.test.len());

    let traces = [
        TraceSpec {
            name: "poisson",
            burst_len: 1,
        },
        TraceSpec {
            name: "bursty",
            burst_len: 16,
        },
    ];

    let mut artifact = kws.artifact("serve_tail_latency", requests, opts.seed);
    let mut results: Vec<TraceResult> = Vec::new();
    let mut header_printed = false;
    for trace in &traces {
        let pool = ShardPool::with_options(&accel, ServeOptions::turbo(shards))
            .map_err(matador::Error::other)?;
        let mut front = Front::new(pool, FrontOptions::new()).map_err(matador::Error::other)?;
        // Arrival rate targets `utilization_pct` of the pool's modeled
        // drain bandwidth: one request per II across `shards` engines.
        let mean_gap = front.pool().modeled_ii_cycles() as f64 * 100.0
            / (shards as f64 * utilization_pct as f64);
        let slo = slo_cycles
            .unwrap_or_else(|| 2 * front.drain_estimate_cycles(FrontOptions::new().lane_block));
        if !header_printed {
            println!(
                "loadgen — {kind} design, {} packets/datapoint, shards {}, {} requests, \
                 {} tenant(s), mean gap {mean_gap:.1} cyc, SLO {slo} cyc, seed {}",
                accel.shape().num_packets(),
                shards,
                requests,
                tenants,
                opts.seed
            );
            println!("(virtual-time open loop; latencies are admission → delivery)\n");
            header_printed = true;
        }
        let result = run_trace(
            &mut front,
            trace,
            &inputs,
            &LoadSpec {
                requests,
                tenants,
                mean_gap,
                slo,
                seed: opts.seed,
            },
        )?;
        println!(
            "  {:>8}: p50 {:>6} cyc  p99 {:>6} cyc  p99.9 {:>6} cyc  goodput {:.3}  \
             batches fill/pressure/idle/drain {}/{}/{}/{}",
            result.name,
            result.p50,
            result.p99,
            result.p999,
            result.in_slo as f64 / result.offered as f64,
            result.fills,
            result.pressure,
            result.idle,
            result.drains
        );
        artifact.push_row(format!(
            "{{\"trace\": \"{}\", \"shards\": {}, \"tenants\": {}, \"offered\": {}, \
             \"admitted\": {}, \"delivered\": {}, \"goodput_slo\": {:.4}, \
             \"slo_cycles\": {slo}, \"latency_p50_cycles\": {}, \"latency_p99_cycles\": {}, \
             \"latency_p999_cycles\": {}, \"batches_fill\": {}, \"batches_pressure\": {}, \
             \"batches_idle\": {}, \"batches_drain\": {}}}",
            result.name,
            shards,
            tenants,
            result.offered,
            result.admitted,
            result.delivered,
            result.in_slo as f64 / result.offered as f64,
            result.p50,
            result.p99,
            result.p999,
            result.fills,
            result.pressure,
            result.idle,
            result.drains
        ));
        results.push(result);
    }

    write_outputs(
        &artifact,
        Some(&out),
        flags.string("--metrics-out").as_deref(),
    )?;

    let mut ok = true;
    for result in &results {
        // Every admitted request must come back out: the front never
        // drops — on any trace, not just the gated one.
        if result.delivered as u64 != result.admitted {
            eprintln!(
                "::error::{} trace dropped requests: {} admitted, {} delivered",
                result.name, result.admitted, result.delivered
            );
            ok = false;
        }
    }
    if let Some(factor) = assert_tail {
        let steady = results
            .iter()
            .find(|r| r.name == "poisson")
            .expect("the steady trace always runs");
        let bound = steady.p50 as f64 * factor;
        if steady.p999 as f64 > bound {
            eprintln!(
                "::error::steady-trace p99.9 of {} cycles exceeds {factor}x p50 ({} cycles)",
                steady.p999, steady.p50
            );
            ok = false;
        } else {
            println!(
                "tail gate passed: p99.9 {} <= {factor} x p50 {} on the steady trace",
                steady.p999, steady.p50
            );
        }
    }
    Ok(ok)
}
