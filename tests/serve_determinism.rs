//! Serving-runtime determinism: sharding is a pure throughput knob.
//!
//! For two seeds × two dataset kinds, a trained design served over
//! shard pools of 1, 2 and 8 engines must produce **bit-identical
//! predictions and class sums** — independent of shard count, dispatch
//! policy and worker-thread count — and every prediction must equal the
//! software model's inference (the same bit-equivalence the flow's
//! verification stage asserts for single-engine simulation).

use matador_repro::datasets::{generate, DatasetKind, SplitSizes};
use matador_repro::matador::config::MatadorConfig;
use matador_repro::matador::design::AcceleratorDesign;
use matador_repro::serve::{DispatchPolicy, EngineBackend, ServeOptions, ShardPool};
use matador_repro::tsetlin::bits::BitVec;
use matador_repro::tsetlin::model::TrainedModel;
use matador_repro::tsetlin::params::TmParams;
use matador_repro::tsetlin::MultiClassTm;
use rand::rngs::SmallRng;
use rand::SeedableRng;

const SEEDS: [u64; 2] = [3, 17];
const KINDS: [DatasetKind; 2] = [DatasetKind::NoisyXor, DatasetKind::Iris];
const SHARD_COUNTS: [usize; 3] = [1, 2, 8];
const SIZES: SplitSizes = SplitSizes {
    train: 80,
    test: 40,
};

fn train_model(kind: DatasetKind, seed: u64) -> TrainedModel {
    let data = generate(kind, SIZES, seed);
    let params = TmParams::builder(kind.features(), kind.classes())
        .clauses_per_class(12)
        .threshold(5)
        .specificity(4.0)
        .build()
        .expect("valid params");
    let mut tm = MultiClassTm::new(params);
    let mut rng = SmallRng::seed_from_u64(seed);
    tm.fit_with_threads(&data.train, 4, &mut rng, 1);
    tm.to_model()
}

fn serve_batch(
    design: &AcceleratorDesign,
    inputs: &[BitVec],
    shards: usize,
    policy: DispatchPolicy,
    threads: usize,
    backend: EngineBackend,
) -> Vec<(usize, Vec<i32>)> {
    // Recording stays live for every pool under test: metrics are pure
    // sinks, so the bit-identical-replay contract must hold with them on.
    matador_repro::obs::set_enabled(true);
    let accel = design.compile_for_sim();
    let mut options = ServeOptions::new(shards);
    options.policy = policy;
    options.capture_class_sums = true;
    options.threads = Some(threads);
    options.backend = backend;
    let mut pool = ShardPool::with_options(&accel, options).expect("valid options");
    pool.serve(inputs)
        .expect("engines drain")
        .into_iter()
        .map(|p| {
            (
                p.winner,
                p.class_sums.expect("capture_class_sums was enabled"),
            )
        })
        .collect()
}

#[test]
fn predictions_and_class_sums_bit_identical_across_shard_counts() {
    for kind in KINDS {
        for seed in SEEDS {
            let model = train_model(kind, seed);
            let config = MatadorConfig::builder()
                .design_name("serve_determinism")
                .bus_width(4)
                .build()
                .expect("valid config");
            let design = AcceleratorDesign::generate(model.clone(), config);
            let inputs: Vec<BitVec> = generate(kind, SIZES, seed)
                .test
                .iter()
                .map(|s| s.input.clone())
                .collect();

            let reference = serve_batch(
                &design,
                &inputs,
                SHARD_COUNTS[0],
                DispatchPolicy::RoundRobin,
                1,
                EngineBackend::CycleAccurate,
            );
            // The single-shard pool agrees with software inference
            // (winners) and the model's class sums, bit for bit.
            for (x, (winner, sums)) in inputs.iter().zip(&reference) {
                assert_eq!(*winner, model.predict(x), "{kind} seed {seed}");
                assert_eq!(sums, &model.class_sums(x), "{kind} seed {seed}");
            }

            for shards in &SHARD_COUNTS[1..] {
                for policy in [
                    DispatchPolicy::RoundRobin,
                    DispatchPolicy::LeastQueued,
                    DispatchPolicy::LatencyAware,
                ] {
                    for threads in [1, 8] {
                        for backend in [EngineBackend::CycleAccurate, EngineBackend::Turbo] {
                            let served =
                                serve_batch(&design, &inputs, *shards, policy, threads, backend);
                            assert_eq!(
                                served, reference,
                                "{kind} seed {seed}: shards={shards} {policy:?} \
                                 threads={threads} {backend:?} diverged from the single shard"
                            );
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn multi_shard_pools_strictly_reduce_wall_clock() {
    // The other half of the contract: identical answers, *better* pool
    // cycles. (The release CI gate asserts the same on serve_sweep's
    // full-size design.)
    let kind = DatasetKind::NoisyXor;
    let seed = SEEDS[0];
    let model = train_model(kind, seed);
    let config = MatadorConfig::builder()
        .bus_width(4)
        .build()
        .expect("valid config");
    let design = AcceleratorDesign::generate(model, config);
    let accel = design.compile_for_sim();
    let inputs: Vec<BitVec> = generate(kind, SIZES, seed)
        .test
        .iter()
        .map(|s| s.input.clone())
        .collect();

    let mut last_cycles = u64::MAX;
    for shards in SHARD_COUNTS {
        let mut pool = ShardPool::with_options(&accel, ServeOptions::new(shards)).expect("valid");
        pool.serve(&inputs).expect("engines drain");
        let report = pool.report();
        assert_eq!(report.datapoints, inputs.len() as u64, "shards={shards}");
        assert!(
            report.pool_cycles < last_cycles,
            "shards={shards}: pool cycles {} did not improve on {}",
            report.pool_cycles,
            last_cycles
        );
        last_cycles = report.pool_cycles;
    }
}
