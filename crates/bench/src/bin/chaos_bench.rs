//! Chaos drill for the fault-tolerant serving stack.
//!
//! `loadgen` measures the tail of a *healthy* pool; this harness
//! measures what faults cost. It replays one seeded, deterministic
//! Poisson trace through [`matador_serve::Front`] twice over the same
//! accelerator: once over a resilient pool with the empty
//! [`FaultPlan`] (the fault-free reference), and once with a shard
//! killed mid-trace ([`FaultPlan::kill_shard`] — the classic
//! 1-of-N chaos drill). Both replays run on the virtual clock, so each
//! is bit-identical at any worker-thread count and the *pair* is a
//! reproducible experiment: the only difference between the runs is
//! the fault.
//!
//! ```text
//! cargo run -p matador-bench --bin chaos_bench --release -- \
//!     [--quick] [--seed N] [--shards N] [--requests N] [--tenants N] \
//!     [--kill-shard N] [--kill-at N] [--out BENCH_chaos.json] \
//!     [--metrics-out PATH] [--assert-zero-drops] \
//!     [--assert-identical-winners] [--assert-tail-inflation X]
//! ```
//!
//! The artifact (`BENCH_chaos.json`) carries one row per run:
//! admission/delivery counts, p50/p99/p99.9 admission→delivery
//! latency, and the fault-path counters (`matador_pool_retries_total`,
//! `matador_pool_redirects_total`, `matador_faults_*_total`, health
//! transitions) read back from the `matador-obs` registry. The three
//! `--assert-*` flags are the release CI gates:
//!
//! - `--assert-zero-drops` — the drilled run delivers every admitted
//!   request (redirects, not drops) and surfaces no typed errors.
//! - `--assert-identical-winners` — the drilled run's replies carry
//!   exactly the fault-free run's `(tenant, seq) → winner` map: faults
//!   delay answers, they never change them.
//! - `--assert-tail-inflation X` — the drilled run's p99.9 stays
//!   within `X`× the fault-free p99.9: losing 1-of-N shards costs
//!   bounded tail, not a meltdown.

use matador_bench::eval::bad_arg;
use matador_bench::harness::{self, exp_gap, write_outputs, Flags, Kws6};
use matador_obs::Registry;
use matador_serve::{FaultPlan, Front, FrontOptions, Reply, ServeOptions, ShardPool};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use tsetlin::bits::BitVec;

fn main() {
    harness::main(run);
}

/// Silences the stderr spew from *injected* worker panics (they carry a
/// recognizable payload) while leaving every genuine panic fully
/// reported. Installed once, before the drilled replay.
fn quiet_injected_panics() {
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let injected = info
            .payload()
            .downcast_ref::<&str>()
            .is_some_and(|m| m.contains("injected fault"));
        if !injected {
            prev(info);
        }
    }));
}

/// Everything the artifact records about one replay. The fault-path
/// counters are registry deltas around the replay, so the artifact
/// exercises the counters an operator's dashboard would scrape.
struct RunResult {
    name: &'static str,
    offered: usize,
    admitted: u64,
    delivered: usize,
    p50: u64,
    p99: u64,
    p999: u64,
    retries: u64,
    redirects: u64,
    faults_injected: u64,
    faults_detected: u64,
    health_transitions: usize,
    /// Typed errors the trace surfaced (admission-time brownout,
    /// flush failure, stalled drain) — always empty in a passing drill.
    errors: Vec<String>,
    /// `(tenant, seq) → winner` for every delivered reply.
    winners: BTreeMap<(u32, u64), usize>,
    replies: Vec<Reply>,
}

struct TraceSpec<'p> {
    name: &'static str,
    plan: FaultPlan,
    requests: usize,
    tenants: u32,
    mean_gap: f64,
    slo: u64,
    seed: u64,
    inputs: &'p [BitVec],
}

fn run_trace(
    accel: &matador_sim::CompiledAccelerator,
    shards: usize,
    spec: &TraceSpec<'_>,
) -> Result<RunResult, matador::Error> {
    let before = Registry::global().snapshot();
    let pool = ShardPool::with_fault_plan(accel, ServeOptions::turbo(shards), spec.plan.clone())
        .map_err(matador::Error::other)?;
    let mut front = Front::new(pool, FrontOptions::new()).map_err(matador::Error::other)?;
    let mut rng = SmallRng::seed_from_u64(spec.seed);
    let mut errors = Vec::new();
    let mut t = front.now();
    for i in 0..spec.requests {
        t += exp_gap(&mut rng, spec.mean_gap);
        if let Err(e) = front.advance_to(t) {
            errors.push(format!("advance_to({t}): {e}"));
        }
        let input = &spec.inputs[i % spec.inputs.len()];
        if let Err(e) = front.submit(input, t + spec.slo, (i as u32) % spec.tenants) {
            errors.push(format!("submit #{i}: {e}"));
        }
    }
    if let Err(e) = front.advance_to(t + spec.slo) {
        errors.push(format!("final advance_to: {e}"));
    }
    if let Err(e) = front.drain() {
        errors.push(format!("drain: {e}"));
    }

    let health_transitions = front.pool().health_log().len();
    let admitted = front.accepted();
    let replies = front.take_replies();
    let mut latencies: Vec<u64> = replies.iter().map(|r| r.latency_cycles()).collect();
    latencies.sort_unstable();
    let winners = replies
        .iter()
        .map(|r| ((r.tenant, r.seq), r.winner))
        .collect();
    let after = Registry::global().snapshot();
    let family_delta = |name: &str| {
        after
            .counter_total(name)
            .saturating_sub(before.counter_total(name))
    };
    Ok(RunResult {
        name: spec.name,
        offered: spec.requests,
        admitted,
        delivered: replies.len(),
        p50: matador_serve::percentile_per_mille(&latencies, 500),
        p99: matador_serve::percentile_per_mille(&latencies, 990),
        p999: matador_serve::percentile_per_mille(&latencies, 999),
        retries: after.counter_delta(&before, "matador_pool_retries_total", ""),
        redirects: after.counter_delta(&before, "matador_pool_redirects_total", ""),
        faults_injected: family_delta("matador_faults_injected_total"),
        faults_detected: family_delta("matador_faults_detected_total"),
        health_transitions,
        errors,
        winners,
        replies,
    })
}

fn run() -> Result<bool, matador::Error> {
    let flags = Flags::parse(
        &[
            "--shards",
            "--requests",
            "--tenants",
            "--kill-shard",
            "--kill-at",
            "--out",
            "--metrics-out",
            "--assert-tail-inflation",
        ],
        &["--assert-zero-drops", "--assert-identical-winners"],
    )?;
    let opts = &flags.opts;
    let shards = flags
        .value(
            "--shards",
            |&n: &usize| n > 1,
            "must be at least 2 (a kill drill needs a survivor)",
        )?
        .unwrap_or(4);
    // Quick runs are the CI shape: enough arrivals for a meaningful
    // p99.9 without dominating the job.
    let requests = flags.positive("--requests")?.unwrap_or(
        if opts.sizes == matador_datasets::SplitSizes::QUICK {
            4_000
        } else {
            16_000
        },
    );
    let tenants = flags.positive("--tenants")?.unwrap_or(4u32);
    let kill_shard = flags
        .value("--kill-shard", |_: &usize| true, "is not a shard index")?
        .unwrap_or(1);
    if kill_shard >= shards {
        return Err(bad_arg(format!(
            "--kill-shard {kill_shard} is out of range for {shards} shards"
        )));
    }
    // The kill lands once the victim has attempted roughly half its
    // share of the trace: squarely mid-stream, with backlog behind it.
    let kill_at = flags
        .value("--kill-at", |_: &u64| true, "is not a request count")?
        .unwrap_or(((requests / shards) as u64 / 2).max(1));
    let out = flags
        .string("--out")
        .unwrap_or_else(|| "BENCH_chaos.json".to_string());
    let assert_tail_inflation = flags.value(
        "--assert-tail-inflation",
        |x: &f64| *x >= 1.0,
        "must be a factor >= 1",
    )?;

    // The fault counters below are registry deltas, so recording must
    // be on regardless of the MATADOR_METRICS default.
    matador_obs::set_enabled(true);
    quiet_injected_panics();

    let kws = Kws6::train("chaos_bench", opts);
    let accel = kws.design("chaos_bench", None).compile_for_sim();
    let inputs = kws.inputs(kws.data.test.len());

    // Arrival rate targets 60% of the full pool's modeled drain
    // bandwidth — a surviving (N-1)-shard pool still has headroom, so
    // the drill measures redirect cost, not an overload collapse.
    let probe = ShardPool::with_options(&accel, ServeOptions::turbo(shards))
        .map_err(matador::Error::other)?;
    let mean_gap = probe.modeled_ii_cycles() as f64 * 100.0 / (shards as f64 * 60.0);
    let slo = 2 * Front::new(probe, FrontOptions::new())
        .map_err(matador::Error::other)?
        .drain_estimate_cycles(FrontOptions::new().lane_block);

    println!(
        "chaos_bench — {} design, shards {shards}, {requests} requests, {tenants} tenant(s), \
         kill shard {kill_shard} after {kill_at} attempts, mean gap {mean_gap:.1} cyc, seed {}",
        Kws6::KIND,
        opts.seed
    );
    println!("(virtual-time open loop; latencies are admission → delivery)\n");

    let mut artifact = kws.artifact("serve_chaos", requests, opts.seed);
    let specs = [
        ("fault_free", FaultPlan::none()),
        ("shard_kill", FaultPlan::kill_shard(kill_shard, kill_at)),
    ];
    let mut results: Vec<RunResult> = Vec::new();
    for (name, plan) in specs {
        let result = run_trace(
            &accel,
            shards,
            &TraceSpec {
                name,
                plan,
                requests,
                tenants,
                mean_gap,
                slo,
                seed: opts.seed,
                inputs: &inputs,
            },
        )?;
        println!(
            "  {:>10}: admitted {:>6}  delivered {:>6}  p50 {:>6} cyc  p99 {:>6} cyc  \
             p99.9 {:>6} cyc  retries {}  redirects {}  faults inj/det {}/{}  health Δ {}",
            result.name,
            result.admitted,
            result.delivered,
            result.p50,
            result.p99,
            result.p999,
            result.retries,
            result.redirects,
            result.faults_injected,
            result.faults_detected,
            result.health_transitions
        );
        for e in &result.errors {
            eprintln!("  {:>10}: typed error: {e}", result.name);
        }
        artifact.push_row(format!(
            "{{\"run\": \"{}\", \"shards\": {}, \"kill_shard\": {}, \"kill_at\": {kill_at}, \
             \"offered\": {}, \"admitted\": {}, \"delivered\": {}, \"errors\": {}, \
             \"latency_p50_cycles\": {}, \"latency_p99_cycles\": {}, \
             \"latency_p999_cycles\": {}, \"retries\": {}, \"redirects\": {}, \
             \"faults_injected\": {}, \"faults_detected\": {}, \"health_transitions\": {}}}",
            result.name,
            shards,
            kill_shard,
            result.offered,
            result.admitted,
            result.delivered,
            result.errors.len(),
            result.p50,
            result.p99,
            result.p999,
            result.retries,
            result.redirects,
            result.faults_injected,
            result.faults_detected,
            result.health_transitions
        ));
        results.push(result);
    }

    write_outputs(
        &artifact,
        Some(&out),
        flags.string("--metrics-out").as_deref(),
    )?;

    let baseline = &results[0];
    let drilled = &results[1];
    let mut ok = true;
    // Always-on sanity: per-tenant delivery order survives redirects.
    for result in &results {
        for tenant in 0..tenants {
            let seqs: Vec<u64> = result
                .replies
                .iter()
                .filter(|r| r.tenant == tenant)
                .map(|r| r.seq)
                .collect();
            if seqs.windows(2).any(|w| w[0] >= w[1]) {
                eprintln!(
                    "::error::{} run delivered tenant {tenant} out of order",
                    result.name
                );
                ok = false;
            }
        }
    }
    if flags.switch("--assert-zero-drops") {
        let dropped = drilled.admitted.saturating_sub(drilled.delivered as u64);
        if dropped > 0 || !drilled.errors.is_empty() {
            eprintln!(
                "::error::shard-kill run dropped {dropped} of {} admitted requests \
                 ({} typed errors)",
                drilled.admitted,
                drilled.errors.len()
            );
            ok = false;
        } else {
            println!(
                "zero-drop gate passed: {} admitted, {} delivered, 0 typed errors",
                drilled.admitted, drilled.delivered
            );
        }
    }
    if flags.switch("--assert-identical-winners") {
        if drilled.winners == baseline.winners {
            println!(
                "identical-winners gate passed: {} replies carry the fault-free answers",
                drilled.winners.len()
            );
        } else {
            let diverged = drilled
                .winners
                .iter()
                .filter(|(k, w)| baseline.winners.get(k) != Some(w))
                .count();
            let missing = baseline
                .winners
                .keys()
                .filter(|k| !drilled.winners.contains_key(k))
                .count();
            eprintln!(
                "::error::shard-kill run diverged from the fault-free reference: \
                 {diverged} wrong/extra winners, {missing} missing replies"
            );
            ok = false;
        }
    }
    if let Some(factor) = assert_tail_inflation {
        let bound = (baseline.p999.max(1) as f64) * factor;
        if drilled.p999 as f64 > bound {
            eprintln!(
                "::error::shard-kill p99.9 of {} cycles exceeds {factor}x the fault-free \
                 p99.9 ({} cycles)",
                drilled.p999, baseline.p999
            );
            ok = false;
        } else {
            println!(
                "tail-inflation gate passed: p99.9 {} <= {factor} x fault-free p99.9 {}",
                drilled.p999, baseline.p999
            );
        }
    }
    Ok(ok)
}
