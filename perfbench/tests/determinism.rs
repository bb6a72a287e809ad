//! The benchmark's own contract: a workload seed fixes everything the
//! program is fed, and every deterministic figure is a pure function of
//! code and seed.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use matador_datasets::{generate, DatasetKind, SplitSizes};
use perfbench::run::{run, Args, Outcome};
use perfbench::workload::*;

fn kws_test_split() -> Vec<tsetlin::Sample> {
    generate(DatasetKind::Kws6, SplitSizes::QUICK, MODEL_SEED).test
}

/// The arrival trace of `seed` as the stream workload builds it.
fn trace_for(seed: u64) -> (Vec<tsetlin::BitVec>, Vec<Arrival>) {
    let inputs = make_inputs(&kws_test_split(), INPUT_POOL, seed);
    let trace = poisson_trace(TRACE_REQUESTS, 2.5, inputs.len(), seed);
    (inputs, trace)
}

#[test]
fn a_seed_fixes_the_inputs_and_the_trace() {
    let (inputs, trace) = trace_for(42);
    assert_eq!((inputs.clone(), trace.clone()), trace_for(42));
    let (other_inputs, other_trace) = trace_for(43);
    assert_ne!(inputs, other_inputs);
    assert_ne!(trace, other_trace);
}

#[test]
fn the_held_out_seed_differs_from_every_tuning_seed() {
    // The seeds used while the benchmark was tuned.
    let (_, held_out) = trace_for(HELD_OUT_SEED);
    for seed in (1..=40).chain(101..=110).chain(201..=206).chain([301]) {
        assert_ne!(held_out, trace_for(seed).1, "seed {seed}");
    }
}

fn short_run(workload: Workload, seed: u64, trace: bool, seconds: f64) -> Outcome {
    let outcome = run(
        Args {
            workload,
            seed,
            seconds,
            trace,
        },
        1,
    );
    assert!(
        outcome.correct,
        "{workload} seed {seed}: {}",
        outcome.json()
    );
    assert_eq!(outcome.failed, 0, "{}", outcome.json());
    outcome
}

fn deterministic(outcome: &Outcome) -> Vec<(&'static str, f64)> {
    outcome
        .metrics
        .iter()
        .filter(|m| m.deterministic)
        .map(|m| (m.name, m.value))
        .collect()
}

#[test]
fn deterministic_metrics_repeat_for_a_seed() {
    for workload in [Workload::StreamKws6, Workload::BatchKws6] {
        for trace in [false, true] {
            let first = short_run(workload, 5, trace, 0.05);
            let again = short_run(workload, 5, trace, 0.05);
            assert_eq!(deterministic(&first), deterministic(&again), "{workload}");
            assert!(!deterministic(&first).is_empty());
        }
    }
}

#[test]
fn every_metric_is_reported_with_a_value() {
    for trace in [false, true] {
        // Long enough for a recording and a non-recording round.
        let outcome = short_run(Workload::StreamKws6, 9, trace, 0.6);
        for m in &outcome.metrics {
            assert!(m.value.is_finite(), "{} has no value", m.name);
        }
        let line = outcome.json();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": "));
        assert!(!line.contains('\n'));
    }
    let untraced = short_run(Workload::StreamKws6, 9, false, 0.05);
    for name in [
        "setup_s",
        "infer_per_s",
        "flow_s",
        "latency_p999_cycles",
        "max_load_pct",
    ] {
        assert!(untraced.metric(name).is_some_and(|v| v > 0.0), "{name}");
    }
}

#[test]
fn the_stream_trace_is_served_in_time_and_in_full() {
    let outcome = short_run(Workload::StreamKws6, 11, false, 0.05);
    assert_eq!(outcome.metric("goodput"), Some(1.0));
    assert_eq!(outcome.metric("ok_frac"), Some(1.0));
    let p50 = outcome.metric("latency_p50_cycles").expect("reported");
    let p999 = outcome.metric("latency_p999_cycles").expect("reported");
    assert!(0.0 < p50 && p50 <= p999, "{p50} {p999}");
}
