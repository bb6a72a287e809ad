//! Property-based tests of the tsetlin crate's foundational invariants:
//! bit-vector algebra, automaton state bounds, clause/mask consistency and
//! model voting arithmetic.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use tsetlin::bits::BitVec;
use tsetlin::{Action, Clause, TsetlinAutomaton, TypeISampler};

fn arb_bits(max_len: usize) -> impl Strategy<Value = BitVec> {
    (1..=max_len).prop_flat_map(|len| {
        proptest::collection::vec(any::<bool>(), len).prop_map(BitVec::from_bools)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn bitvec_double_complement_is_identity(v in arb_bits(200)) {
        prop_assert_eq!(v.not().not(), v);
    }

    #[test]
    fn bitvec_ones_count_complementary(v in arb_bits(200)) {
        prop_assert_eq!(v.count_ones() + v.not().count_ones(), v.len());
    }

    #[test]
    fn bitvec_and_is_subset_of_both(
        (a, b) in (1usize..128).prop_flat_map(|len| {
            (
                proptest::collection::vec(any::<bool>(), len).prop_map(BitVec::from_bools),
                proptest::collection::vec(any::<bool>(), len).prop_map(BitVec::from_bools),
            )
        }),
    ) {
        let both = a.and(&b);
        prop_assert!(both.covered_by(&a));
        prop_assert!(both.covered_by(&b));
        prop_assert!(a.covered_by(&a.or(&b)));
    }

    #[test]
    fn bitvec_xor_with_self_is_zero(a in arb_bits(128)) {
        prop_assert_eq!(a.xor(&a).count_ones(), 0);
    }

    #[test]
    fn bitvec_iter_ones_matches_count(v in arb_bits(256)) {
        prop_assert_eq!(v.iter_ones().count(), v.count_ones());
        for i in v.iter_ones() {
            prop_assert!(v.get(i));
        }
    }

    #[test]
    fn bitvec_extract_word_window_consistent(v in arb_bits(200), start in 0usize..220) {
        let word = v.extract_word(start, 32);
        for off in 0..32 {
            let i = start + off;
            let expect = i < v.len() && v.get(i);
            prop_assert_eq!((word >> off) & 1 == 1, expect);
        }
    }

    #[test]
    fn automaton_state_always_in_bounds(
        n in 1u16..64,
        ops in proptest::collection::vec(any::<bool>(), 0..200),
    ) {
        let mut ta = TsetlinAutomaton::new(n);
        for reward in ops {
            if reward { ta.reward() } else { ta.penalize() }
            prop_assert!(ta.state() >= 1 && ta.state() <= 2 * n);
            // Depth is consistent with the action side.
            prop_assert!(ta.depth() >= 1 && ta.depth() <= n);
            match ta.action() {
                Action::Include => prop_assert!(ta.state() > n),
                Action::Exclude => prop_assert!(ta.state() <= n),
            }
        }
    }

    #[test]
    fn clause_masks_stay_consistent_under_feedback(
        seed in any::<u64>(),
        steps in 1usize..80,
        features in 2usize..24,
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut clause = Clause::new(features, 8);
        let sampler = TypeISampler::new(3.0, features);
        for step in 0..steps {
            let x = BitVec::from_bools((0..features).map(|k| (seed >> ((k + step) % 64)) & 1 == 1));
            let x_neg = x.not();
            let out = clause.evaluate(&x, &x_neg);
            if step % 3 == 0 {
                clause.type_ii_feedback(&x, out);
            } else {
                clause.type_i_feedback(&x, out, &sampler, step % 2 == 0, &mut rng);
            }
        }
        // The incrementally maintained masks must equal a rebuild from the
        // automaton states — the core training invariant.
        let mut rebuilt = clause.clone();
        rebuilt.rebuild_masks();
        prop_assert_eq!(clause.include_pos(), rebuilt.include_pos());
        prop_assert_eq!(clause.include_neg(), rebuilt.include_neg());
        // And agree with per-automaton actions.
        for k in 0..features {
            prop_assert_eq!(
                clause.include_pos().get(k),
                clause.automaton(k).action() == Action::Include
            );
            prop_assert_eq!(
                clause.include_neg().get(k),
                clause.automaton(features + k).action() == Action::Include
            );
        }
    }

    #[test]
    fn empty_clause_always_fires(x in arb_bits(64)) {
        let clause = Clause::new(x.len(), 8);
        prop_assert!(clause.evaluate(&x, &x.not()));
    }

    #[test]
    fn type_ii_never_fires_clause_on_same_input(x in arb_bits(32)) {
        // After Type II feedback on input x, a previously firing clause
        // must reject x (the false-positive-blocking property).
        let mut clause = Clause::new(x.len(), 8);
        let x_neg = x.not();
        prop_assume!(x.count_ones() < x.len()); // need at least one 0 literal
        clause.type_ii_feedback(&x, true);
        prop_assert!(!clause.evaluate(&x, &x_neg));
    }
}
