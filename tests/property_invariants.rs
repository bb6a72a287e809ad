//! Property-based tests over the core invariants of the stack:
//! packetization roundtrips, model-IO roundtrips, logic-optimization
//! functional equivalence, netlist equivalence, and HW/SW agreement of
//! the cycle simulator on arbitrary models and inputs.

use matador_axi::Packetizer;
use matador_logic::cube::{Cube, Lit};
use matador_logic::dag::{LogicDag, Sharing};
use matador_logic::extract::{extract_divisors, ExtractOptions};
use matador_rtl::netlist::Netlist;
use matador_sim::{AccelShape, CompiledAccelerator, SimEngine};
use proptest::prelude::*;
use tsetlin::bits::BitVec;
use tsetlin::model::{IncludeMask, TrainedModel};

fn arb_bitvec(len: usize) -> impl Strategy<Value = BitVec> {
    proptest::collection::vec(any::<bool>(), len).prop_map(BitVec::from_bools)
}

/// Arbitrary small trained model: 2..4 classes, 2..6 clauses (even), with
/// sparse random includes.
fn arb_model() -> impl Strategy<Value = TrainedModel> {
    (2usize..4, 1usize..4, 6usize..24).prop_flat_map(|(classes, half_clauses, features)| {
        let cpc = 2 * half_clauses;
        let total = classes * cpc;
        proptest::collection::vec((arb_bitvec(features), arb_bitvec(features)), total).prop_map(
            move |masks| {
                let includes = masks
                    .into_iter()
                    .map(|(pos, raw_neg)| {
                        // Sparsify: keep negated includes only where the
                        // positive literal is absent (contradictions are legal
                        // but rare in trained models).
                        let neg = raw_neg.and(&pos.not());
                        IncludeMask { pos, neg }
                    })
                    .collect();
                TrainedModel::from_masks(features, classes, cpc, includes)
            },
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn packetizer_roundtrips(features in 1usize..300, bus in 1usize..64) {
        let p = Packetizer::new(features, bus);
        let x = BitVec::from_indices(features, &[0, features / 2, features - 1]);
        prop_assert_eq!(p.depacketize(&p.packetize(&x)), x);
        prop_assert_eq!(p.num_packets(), features.div_ceil(bus));
    }

    #[test]
    fn model_text_io_roundtrips(model in arb_model()) {
        let mut buf = Vec::new();
        tsetlin::io::write_model(&model, &mut buf).expect("in-memory write");
        let parsed = tsetlin::io::read_model(buf.as_slice()).expect("parse back");
        prop_assert_eq!(parsed, model);
    }

    #[test]
    fn divisor_extraction_preserves_every_cube(
        cubes in proptest::collection::vec(
            proptest::collection::vec((0u32..10, any::<bool>()), 0..5),
            1..12,
        ),
        input in arb_bitvec(10),
    ) {
        let cubes: Vec<Cube> = cubes
            .into_iter()
            .map(|lits| {
                Cube::from_lits(lits.into_iter().map(|(b, n)| {
                    if n { Lit::neg(b) } else { Lit::pos(b) }
                }))
            })
            .collect();
        let ex = extract_divisors(&cubes, ExtractOptions::default());
        for (i, cube) in cubes.iter().enumerate() {
            prop_assert_eq!(ex.eval_cube(i, &input), cube.eval(&input), "cube {}", i);
        }
        // Factored cost never exceeds naive cost.
        let naive: usize = cubes.iter().map(Cube::and2_cost).sum();
        prop_assert!(ex.and2_cost() <= naive);
    }

    #[test]
    fn shared_and_dont_touch_dags_are_equivalent(
        model in arb_model(),
        seed_bits in arb_bitvec(24),
    ) {
        let features = model.num_features();
        let window = 8usize;
        let cubes = matador_logic::share::window_cubes(&model, window);
        let input = seed_bits.slice(0, window);
        for window_cubes in &cubes {
            let shared = LogicDag::from_cubes(window, window_cubes, Sharing::Enabled);
            let dt = LogicDag::from_cubes(window, window_cubes, Sharing::DontTouch);
            prop_assert_eq!(shared.eval(&input), dt.eval(&input));
            prop_assert!(shared.and2_count() <= dt.and2_count());
        }
        let _ = features;
    }

    #[test]
    fn netlist_matches_dag(model in arb_model(), seed_bits in arb_bitvec(8)) {
        let lits = matador_logic::share::WindowLits::new(&model, 8);
        let dag = matador_logic::share::optimize_window(8, lits.window(0), Sharing::Enabled);
        let nl = Netlist::from_dag("w", &dag);
        nl.validate().expect("generated netlists are valid");
        prop_assert_eq!(nl.eval(&seed_bits), dag.eval(&seed_bits));
    }

    #[test]
    fn cycle_sim_agrees_with_software_inference(
        model in arb_model(),
        inputs in proptest::collection::vec(any::<u64>(), 1..5),
    ) {
        let shape = AccelShape {
            bus_width: 8,
            features: model.num_features(),
            classes: model.num_classes(),
            clauses_per_class: model.clauses_per_class(),
        };
        let windows = matador_logic::share::window_cubes(&model, 8);
        let accel =
            CompiledAccelerator::from_window_cubes(shape, &windows, Sharing::Enabled);
        let xs: Vec<BitVec> = inputs
            .iter()
            .map(|&seed| {
                BitVec::from_bools(
                    (0..model.num_features()).map(|i| (seed >> (i % 64)) & 1 == 1),
                )
            })
            .collect();
        let mut sim = SimEngine::new(&accel);
        let results = sim.run_datapoints(&xs).expect("drains within bound");
        prop_assert_eq!(results.len(), xs.len());
        for (x, r) in xs.iter().zip(&results) {
            prop_assert_eq!(r.winner, model.predict(x), "input {}", x);
        }
    }

    #[test]
    fn class_sums_bounded_by_clause_budget(model in arb_model(), bits in any::<u64>()) {
        let x = BitVec::from_bools(
            (0..model.num_features()).map(|i| (bits >> (i % 64)) & 1 == 1),
        );
        let half = (model.clauses_per_class() / 2) as i32;
        for sum in model.class_sums(&x) {
            prop_assert!(sum.abs() <= half, "sum {} exceeds ±{}", sum, half);
        }
    }
}
