//! Criterion micro-benchmarks of every kernel behind the tables/figures:
//! clause evaluation and TM training (Table I accuracy column), divisor
//! extraction, LUT mapping and whole design generation (resource
//! columns, Fig 8), the packetizer
//! (Fig 4), the cycle simulator (Fig 7, latency/throughput columns), the
//! turbo evaluator on one- and four-word strips (the serving path) and
//! the BNN baseline (Table I baseline rows).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use matador::{AcceleratorDesign, MatadorConfig};
use matador_baselines::bnn::{QuantMlp, TrainConfig};
use matador_baselines::topology::{Quantization, Topology};
use matador_datasets::{generate, DatasetKind, SplitSizes};
use matador_logic::cube::CubeArena;
use matador_logic::dag::Sharing;
use matador_logic::extract::{extract_divisors, ExtractOptions};
use matador_logic::share::{optimize_window, window_cubes, WindowLits};
use matador_sim::{AccelShape, CompiledAccelerator, SimEngine, TurboEngine, TurboProgram};
use matador_synth::mapper::map_dag;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::sync::Arc;
use tsetlin::params::TmParams;
use tsetlin::{MultiClassTm, TrainedModel};

const SIZES: SplitSizes = SplitSizes {
    train: 200,
    test: 64,
};

fn trained_kws_model() -> (TrainedModel, Vec<tsetlin::Sample>) {
    let data = generate(DatasetKind::Kws6, SIZES, 7);
    let params = TmParams::builder(377, 6)
        .clauses_per_class(100)
        .threshold(15)
        .specificity(10.0)
        .build()
        .expect("valid");
    let mut tm = MultiClassTm::new(params);
    let mut rng = SmallRng::seed_from_u64(7);
    tm.fit(&data.train, 3, &mut rng);
    (tm.to_model(), data.test)
}

fn bench_tm(c: &mut Criterion) {
    let data = generate(DatasetKind::Kws6, SIZES, 7);
    let params = TmParams::builder(377, 6)
        .clauses_per_class(100)
        .build()
        .expect("valid");

    c.bench_function("tm_train_epoch_kws6_100c", |b| {
        b.iter_batched(
            || {
                (
                    MultiClassTm::new(params.clone()),
                    SmallRng::seed_from_u64(1),
                )
            },
            |(mut tm, mut rng)| {
                tm.fit(&data.train, 1, &mut rng);
                black_box(tm.accuracy(&data.test))
            },
            BatchSize::LargeInput,
        )
    });

    let (model, test) = trained_kws_model();
    c.bench_function("tm_inference_kws6_64pts", |b| {
        b.iter(|| {
            let mut correct = 0usize;
            for s in &test {
                if model.predict(&s.input) == s.label {
                    correct += 1;
                }
            }
            black_box(correct)
        })
    });

    let inputs: Vec<_> = test.iter().map(|s| s.input.clone()).collect();
    c.bench_function("tm_inference_kws6_64pts_batch", |b| {
        b.iter(|| {
            let winners = model.predict_batch(&inputs);
            let correct = winners
                .iter()
                .zip(&test)
                .filter(|(&w, s)| w == s.label)
                .count();
            black_box(correct)
        })
    });
}

fn bench_logic(c: &mut Criterion) {
    let (model, _) = trained_kws_model();
    let windows = window_cubes(&model, 64);
    let cubes = windows[0].clone();

    c.bench_function("extract_divisors_window0", |b| {
        b.iter(|| black_box(extract_divisors(&cubes, ExtractOptions::default())))
    });

    let arena = CubeArena::from_cubes(&cubes);
    c.bench_function("optimize_window_shared", |b| {
        b.iter(|| black_box(optimize_window(64, arena.list(), Sharing::Enabled)))
    });

    let dag = optimize_window(64, arena.list(), Sharing::Enabled);
    c.bench_function("lut_map_window0_k6", |b| {
        b.iter(|| black_box(map_dag(&dag, 6)))
    });

    // The generation stages that read the whole model: the one arena
    // listing, prefix-register counting over it, and all of
    // `AcceleratorDesign::generate` on one thread (listing, counting,
    // per-window extraction, DAG build and LUT mapping).
    c.bench_function("window_lits_kws6_w64", |b| {
        b.iter(|| black_box(WindowLits::new(&model, 64)))
    });
    let lits = WindowLits::new(&model, 64);
    c.bench_function("prefix_register_counts_kws6_w64", |b| {
        b.iter(|| black_box(lits.prefix_register_counts()))
    });
    let config = MatadorConfig::builder()
        .bus_width(64)
        .build()
        .expect("valid config");
    c.bench_function("design_generate_kws6_1thread", |b| {
        b.iter_batched(
            || model.clone(),
            |model| {
                black_box(AcceleratorDesign::generate_with_threads(
                    model,
                    config.clone(),
                    1,
                ))
            },
            BatchSize::SmallInput,
        )
    });
}

fn bench_sim(c: &mut Criterion) {
    let (model, test) = trained_kws_model();
    let shape = AccelShape {
        bus_width: 64,
        features: 377,
        classes: 6,
        clauses_per_class: 100,
    };
    let windows = window_cubes(&model, 64);
    let accel = CompiledAccelerator::from_window_cubes(shape, &windows, Sharing::Enabled);
    let inputs: Vec<_> = test.iter().take(16).map(|s| s.input.clone()).collect();

    c.bench_function("cycle_sim_kws6_16pts", |b| {
        b.iter(|| {
            let mut sim = SimEngine::new(&accel);
            black_box(sim.run_datapoints(&inputs).expect("drains within bound"))
        })
    });

    // The serving path's two strip shapes: a 64-input `Front` flush (one
    // lane word) and a full 256-input strip (four). Each sample streams
    // `TURBO_BATCHES` batches through an engine warmed by the first.
    const TURBO_BATCHES: usize = 256;
    let program = Arc::new(TurboProgram::compile(&accel));
    let batch: Vec<_> = (0..256)
        .map(|i| {
            let mut x = test[i % test.len()].input.clone();
            x.toggle((7 * i) % 377);
            x
        })
        .collect();
    for n in [64usize, 256] {
        c.bench_function(&format!("turbo_engine_kws6_{n}pts_x{TURBO_BATCHES}"), |b| {
            b.iter_batched(
                || {
                    let mut engine = TurboEngine::from_program(Arc::clone(&program));
                    engine.set_chunk_threads(Some(1));
                    (engine, Vec::with_capacity(n))
                },
                |(mut engine, mut out)| {
                    for _ in 0..TURBO_BATCHES {
                        out.clear();
                        engine
                            .run_datapoints_into(&batch[..n], &mut out)
                            .expect("widths match");
                    }
                    black_box(out.len())
                },
                BatchSize::LargeInput,
            )
        });
    }

    let packetizer = matador_axi::Packetizer::new(377, 64);
    c.bench_function("packetize_kws6", |b| {
        b.iter(|| black_box(packetizer.packetize(&inputs[0])))
    });
}

fn bench_baseline(c: &mut Criterion) {
    let data = generate(DatasetKind::Kws6, SIZES, 7);
    let topo = Topology::new(
        "bench",
        vec![377, 64, 6],
        Quantization {
            weight_bits: 1,
            activation_bits: 1,
        },
    );
    c.bench_function("bnn_train_epoch_377_64_6", |b| {
        b.iter_batched(
            || QuantMlp::new(topo.clone(), 5),
            |mut net| {
                net.train(
                    &data.train,
                    TrainConfig {
                        learning_rate: 0.03,
                        epochs: 1,
                        float_fraction: 0.0,
                    },
                    1,
                );
                black_box(net.accuracy(&data.test))
            },
            BatchSize::LargeInput,
        )
    });
}

criterion_group! {
    name = kernels;
    config = Criterion::default().sample_size(10);
    targets = bench_tm, bench_logic, bench_sim, bench_baseline
}
criterion_main!(kernels);
