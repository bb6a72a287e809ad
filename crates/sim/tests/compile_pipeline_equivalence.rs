//! The compile pipeline is semantics-free: for random designs (bus
//! widths 4–64, ragged last windows, both sharing modes) every pass
//! combination — CSE on/off × partitions 1/2/4 —
//! must yield bit-identical winners, class sums **and** cycle stamps
//! vs the raw monolithic flatten (`CompileOptions::none()`).

use matador_logic::dag::Sharing;
use matador_sim::{AccelShape, CompileOptions, CompilePipeline, CompiledAccelerator, TurboEngine};
use proptest::prelude::*;
use tsetlin::bits::BitVec;
use tsetlin::model::{IncludeMask, TrainedModel};
use tsetlin::tm::argmax;

fn arb_bitvec(len: usize) -> impl Strategy<Value = BitVec> {
    proptest::collection::vec(any::<bool>(), len).prop_map(BitVec::from_bools)
}

/// Arbitrary model over an arbitrary architecture: bus width 4..=64,
/// 2..=6 classes, 1..=3 packets with a ragged last window allowed, and
/// enough clause pairs that 4-way partitioning is non-trivial.
fn arb_model_and_bus() -> impl Strategy<Value = (TrainedModel, usize)> {
    (4usize..=64, 2usize..=6, 1usize..=5, 1usize..4).prop_flat_map(
        |(bus, classes, half_clauses, packets)| {
            let cpc = 2 * half_clauses;
            (1usize..=bus).prop_flat_map(move |last| {
                let features = bus * (packets - 1) + last;
                proptest::collection::vec(
                    (arb_bitvec(features), arb_bitvec(features)),
                    classes * cpc,
                )
                .prop_map(move |masks| {
                    let includes = masks
                        .into_iter()
                        .map(|(pos, raw_neg)| IncludeMask {
                            neg: raw_neg.and(&pos.not()),
                            pos,
                        })
                        .collect();
                    (
                        TrainedModel::from_masks(features, classes, cpc, includes),
                        bus,
                    )
                })
            })
        },
    )
}

fn compile(model: &TrainedModel, bus: usize, sharing: Sharing) -> CompiledAccelerator {
    let shape = AccelShape {
        bus_width: bus,
        features: model.num_features(),
        classes: model.num_classes(),
        clauses_per_class: model.clauses_per_class(),
    };
    let windows = matador_logic::share::window_cubes(model, bus);
    CompiledAccelerator::from_window_cubes(shape, &windows, sharing)
}

fn inputs_from_seeds(features: usize, seeds: &[u64]) -> Vec<BitVec> {
    seeds
        .iter()
        .enumerate()
        .map(|(i, &seed)| {
            BitVec::from_bools(
                (0..features).map(|b| (seed.rotate_left(i as u32) >> (b % 64)) & 1 == 1),
            )
        })
        .collect()
}

/// Runs a compiled program as an engine over `xs` and returns
/// (winner, cycle stamp, class sums) per datapoint.
fn run_engine(
    program: matador_sim::TurboProgram,
    xs: &[BitVec],
    pipelined: bool,
) -> Vec<(usize, u64, Vec<i32>)> {
    let mut engine = TurboEngine::from_program(program);
    engine.set_pipelined_sum(pipelined);
    engine.set_capture_class_sums(true);
    let results = engine.run_datapoints(xs).expect("infallible");
    results
        .iter()
        .zip(engine.class_sums_log())
        .map(|(r, sums)| (r.winner, r.cycle, sums.clone()))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// CSE on or off reproduces the raw flatten's winners, sums and
    /// stamps bit for bit.
    #[test]
    fn pass_toggles_are_bit_identical(
        (model, bus) in arb_model_and_bus(),
        seeds in proptest::collection::vec(any::<u64>(), 1..80),
        pipelined in any::<bool>(),
        dont_touch in any::<bool>(),
    ) {
        let sharing = if dont_touch { Sharing::DontTouch } else { Sharing::Enabled };
        let accel = compile(&model, bus, sharing);
        let xs = inputs_from_seeds(model.num_features(), &seeds);
        let baseline = CompilePipeline::new(CompileOptions::none()).compile(&accel);
        let expected = run_engine(baseline.program, &xs, pipelined);
        for cse in [false, true] {
            let opts = CompileOptions { cse, partitions: 1 };
            let compiled = CompilePipeline::new(opts).compile(&accel);
            prop_assert!(compiled.stats.tape_after <= compiled.stats.tape_before);
            let got = run_engine(compiled.program, &xs, pipelined);
            prop_assert_eq!(&got, &expected, "cse={}", cse);
        }
    }

    /// Partitions 1/2/4: member class sums add back to the monolithic
    /// sums, merged winners match, and every member's cycle stamps are
    /// identical to the monolithic engine's.
    #[test]
    fn partitions_merge_to_monolithic(
        (model, bus) in arb_model_and_bus(),
        seeds in proptest::collection::vec(any::<u64>(), 1..80),
        pipelined in any::<bool>(),
        dont_touch in any::<bool>(),
    ) {
        let sharing = if dont_touch { Sharing::DontTouch } else { Sharing::Enabled };
        let accel = compile(&model, bus, sharing);
        let xs = inputs_from_seeds(model.num_features(), &seeds);
        let baseline = CompilePipeline::new(CompileOptions::none()).compile(&accel);
        let expected = run_engine(baseline.program, &xs, pipelined);
        for k in [1usize, 2, 4] {
            let pipeline = CompilePipeline::new(CompileOptions::default().with_partitions(k));
            let plan = pipeline.partition(&accel);
            prop_assert!(!plan.is_empty());
            prop_assert!(plan.len() <= k);
            let members: Vec<Vec<(usize, u64, Vec<i32>)>> = plan
                .parts()
                .iter()
                .map(|part| run_engine(pipeline.compile(part).program, &xs, pipelined))
                .collect();
            for (i, exp) in expected.iter().enumerate() {
                let member_sums: Vec<Vec<i32>> =
                    members.iter().map(|m| m[i].2.clone()).collect();
                let merged = plan.merge_class_sums(&member_sums);
                prop_assert_eq!(&merged, &exp.2, "k={} datapoint {}", k, i);
                prop_assert_eq!(argmax(&merged), exp.0);
                for m in &members {
                    // Same packets per datapoint → same analytic stamps.
                    prop_assert_eq!(m[i].1, exp.1, "k={} datapoint {}", k, i);
                }
            }
        }
    }
}
