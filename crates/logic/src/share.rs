//! Model-level logic-sharing analysis and window optimization — the
//! quantitative backing for the paper's Fig 3 observation and the Fig 8
//! DON'T TOUCH experiment.

use crate::cube::{Cube, Lit};
use crate::dag::{LogicDag, Sharing};
use crate::extract::{extract_divisors, ExtractOptions, Extraction};
use std::collections::HashMap;
use tsetlin::model::{IncludeMask, TrainedModel};

/// Gate-level sharing statistics for one bandwidth window.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct WindowGateStats {
    /// Window index (HCB position).
    pub window: usize,
    /// AND2 gates if every clause's cube is instantiated verbatim.
    pub naive_and2: usize,
    /// AND2 gates after structural hashing only.
    pub hashed_and2: usize,
    /// AND2 gates after divisor extraction + structural hashing.
    pub extracted_and2: usize,
    /// Divisors extracted in this window.
    pub divisors: usize,
}

impl WindowGateStats {
    /// Fraction of naive gates eliminated by the full optimization.
    pub fn reduction(&self) -> f64 {
        if self.naive_and2 == 0 {
            0.0
        } else {
            1.0 - self.extracted_and2 as f64 / self.naive_and2 as f64
        }
    }
}

/// Splits a model into per-window cube lists, clause order preserved
/// (`class`-major), one cube per clause per window.
pub fn window_cubes(model: &TrainedModel, window_bits: usize) -> Vec<Vec<Cube>> {
    assert!(window_bits > 0, "window width must be positive");
    let n = model.num_features();
    let windows = n.div_ceil(window_bits);
    (0..windows)
        .map(|w| {
            let start = w * window_bits;
            let end = (start + window_bits).min(n);
            model
                .iter_clauses()
                .map(|(_, _, mask)| window_cube(mask, start, end))
                .collect()
        })
        .collect()
}

/// The cube of `mask` over features `[start, end)`, re-indexed from zero.
/// Literals are read 64 features at a time from the mask words, in code
/// order (`x_b` before `¬x_b`, ascending `b`), so nothing is sorted.
fn window_cube(mask: &IncludeMask, start: usize, end: usize) -> Cube {
    let chunk = |at: usize| {
        let width = (end - at).min(64);
        (
            mask.pos.extract_word(at, width),
            mask.neg.extract_word(at, width),
        )
    };
    let len = (start..end)
        .step_by(64)
        .map(|at| {
            let (pos, neg) = chunk(at);
            (pos.count_ones() + neg.count_ones()) as usize
        })
        .sum();
    let mut lits = Vec::with_capacity(len);
    for at in (start..end).step_by(64) {
        let (pos, neg) = chunk(at);
        let mut rest = pos | neg;
        while rest != 0 {
            let b = rest.trailing_zeros();
            let bit = (at - start) as u32 + b;
            if (pos >> b) & 1 == 1 {
                lits.push(Lit::pos(bit));
            }
            if (neg >> b) & 1 == 1 {
                lits.push(Lit::neg(bit));
            }
            rest &= rest - 1;
        }
    }
    Cube::from_sorted_lits(lits)
}

/// Optimizes one window's cube list into a [`LogicDag`].
///
/// With [`Sharing::Enabled`], divisor extraction runs first (under the
/// [`ExtractOptions::budgeted`] density guard, so pathologically dense
/// under-trained windows skip factoring instead of going quadratic) and
/// the DAG is structurally hashed; with [`Sharing::DontTouch`] each cube
/// becomes its own verbatim AND tree (the pragma'd flow of Fig 8).
pub fn optimize_window(width: usize, cubes: &[Cube], sharing: Sharing) -> LogicDag {
    match sharing {
        Sharing::Enabled => {
            let ex = extract_divisors(cubes, ExtractOptions::budgeted());
            LogicDag::from_extraction(width, &ex, sharing)
        }
        Sharing::DontTouch => LogicDag::from_cubes(width, cubes, sharing),
    }
}

/// Runs extraction for one window and returns both the factored form and
/// the resulting DAG (the factored form drives Verilog emission).
pub fn optimize_window_with_extraction(width: usize, cubes: &[Cube]) -> (Extraction, LogicDag) {
    let ex = extract_divisors(cubes, ExtractOptions::budgeted());
    let dag = LogicDag::from_extraction(width, &ex, Sharing::Enabled);
    (ex, dag)
}

/// Computes [`WindowGateStats`] for every window of a model.
pub fn gate_stats(model: &TrainedModel, window_bits: usize) -> Vec<WindowGateStats> {
    window_cubes(model, window_bits)
        .into_iter()
        .enumerate()
        .map(|(w, cubes)| {
            let width = window_bits.min(model.num_features() - w * window_bits);
            let naive: usize = cubes.iter().map(Cube::and2_cost).sum();
            let hashed = LogicDag::from_cubes(width.max(1), &cubes, Sharing::Enabled).and2_count();
            let ex = extract_divisors(&cubes, ExtractOptions::budgeted());
            let extracted =
                LogicDag::from_extraction(width.max(1), &ex, Sharing::Enabled).and2_count();
            WindowGateStats {
                window: w,
                naive_and2: naive,
                hashed_and2: hashed,
                extracted_and2: extracted,
                divisors: ex.divisors.len(),
            }
        })
        .collect()
}

/// Distinct *cumulative* partial-clause signals after each window.
///
/// The partial-clause register of clause `c` after HCB `k` holds
/// `AND` of `c`'s includes over features `[0, (k+1)·W)`. Two clauses whose
/// prefixes are identical can share one register — this is where the
/// slice-register savings of Fig 8 come from. Returns one count per window
/// (DON'T TOUCH designs always hold `total_clauses` registers per window).
///
/// Linear in the model size: each clause carries a prefix-class id that is
/// refined one 64-bit chunk at a time. Two clauses have equal prefixes
/// through a chunk exactly when they had equal prefixes before it and
/// their `pos`/`neg` words of that chunk are equal, so each chunk costs one
/// hash insert per clause and no prefix is ever copied.
pub fn prefix_register_counts(model: &TrainedModel, window_bits: usize) -> Vec<usize> {
    assert!(window_bits > 0, "window width must be positive");
    let n = model.num_features();
    let windows = n.div_ceil(window_bits);
    let masks: Vec<_> = model.iter_clauses().map(|(_, _, mask)| mask).collect();
    let mut class = vec![0usize; masks.len()];
    let mut ids: HashMap<(usize, u64, u64), usize> = HashMap::with_capacity(masks.len());
    let mut counts = Vec::with_capacity(windows);
    for w in 0..windows {
        let end = ((w + 1) * window_bits).min(n);
        // The class count after the window's last chunk is its register
        // count.
        let mut distinct = 0;
        for start in (w * window_bits..end).step_by(64) {
            let width = (end - start).min(64);
            ids.clear();
            for (id, mask) in class.iter_mut().zip(&masks) {
                let key = (
                    *id,
                    mask.pos.extract_word(start, width),
                    mask.neg.extract_word(start, width),
                );
                let next = ids.len();
                *id = *ids.entry(key).or_insert(next);
            }
            distinct = ids.len();
        }
        counts.push(distinct);
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use tsetlin::bits::BitVec;

    fn model() -> TrainedModel {
        let f = 8;
        let mk = |pos: &[usize], neg: &[usize]| IncludeMask {
            pos: BitVec::from_indices(f, pos),
            neg: BitVec::from_indices(f, neg),
        };
        // Window width 4: clauses 0 and 2 share the window-0 cube {x0,x1};
        // clause 1 differs in window 0 but matches clause 3 in window 1.
        TrainedModel::from_masks(
            f,
            2,
            2,
            vec![
                mk(&[0, 1], &[]),
                mk(&[0, 2], &[5]),
                mk(&[0, 1], &[6]),
                mk(&[], &[5]),
            ],
        )
    }

    #[test]
    fn window_cubes_shape() {
        let cubes = window_cubes(&model(), 4);
        assert_eq!(cubes.len(), 2);
        assert_eq!(cubes[0].len(), 4);
        assert_eq!(cubes[0][0].to_string(), "x0 & x1");
        assert_eq!(cubes[1][1].to_string(), "~x1"); // ¬x5 reindexed to window
    }

    #[test]
    fn gate_stats_show_reduction() {
        let stats = gate_stats(&model(), 4);
        // Window 0 naive: (x0&x1)=1, (x0&x2)=1, (x0&x1)=1, ()=0 → 3.
        assert_eq!(stats[0].naive_and2, 3);
        // Hashing merges the duplicate x0&x1.
        assert_eq!(stats[0].hashed_and2, 2);
        assert!(stats[0].extracted_and2 <= stats[0].hashed_and2);
        assert!(stats[0].reduction() > 0.0);
    }

    #[test]
    fn prefix_registers_shrink_with_sharing() {
        let counts = prefix_register_counts(&model(), 4);
        // After window 0: prefixes {x0,x1}, {x0,x2}, {x0,x1}, {} → 3 distinct.
        assert_eq!(counts[0], 3);
        // After window 1 (full clauses): all 4 distinct.
        assert_eq!(counts[1], 4);
    }

    /// The definition: hash every clause's whole prefix through each
    /// window and count the distinct ones.
    fn prefix_register_counts_oracle(model: &TrainedModel, window_bits: usize) -> Vec<usize> {
        let n = model.num_features();
        (0..n.div_ceil(window_bits))
            .map(|w| {
                let prefix_bits = ((w + 1) * window_bits).min(n);
                let distinct: HashSet<(Vec<u64>, Vec<u64>)> = model
                    .iter_clauses()
                    .map(|(_, _, mask)| {
                        let prefix = mask.window(0, prefix_bits);
                        (prefix.pos.words().to_vec(), prefix.neg.words().to_vec())
                    })
                    .collect();
                distinct.len()
            })
            .collect()
    }

    /// A seeded model whose clauses share prefixes of every length: each
    /// clause is either sparse random or a copy of an earlier clause
    /// changed at one random feature.
    fn random_model(
        features: usize,
        classes: usize,
        clauses_per_class: usize,
        seed: u64,
    ) -> TrainedModel {
        let mut state = seed;
        let mut next = move |bound: usize| {
            // SplitMix64.
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            ((z ^ (z >> 31)) % bound as u64) as usize
        };
        let mut masks: Vec<IncludeMask> = Vec::new();
        for _ in 0..classes * clauses_per_class {
            let mask = if !masks.is_empty() && next(2) == 0 {
                let mut mask = masks[next(masks.len())].clone();
                let bit = next(features);
                if next(2) == 0 {
                    mask.pos.toggle(bit);
                } else {
                    mask.neg.toggle(bit);
                }
                mask
            } else {
                let pos: Vec<usize> = (0..features).filter(|_| next(40) == 0).collect();
                let neg: Vec<usize> = (0..features).filter(|_| next(40) == 0).collect();
                IncludeMask {
                    pos: BitVec::from_indices(features, &pos),
                    neg: BitVec::from_indices(features, &neg),
                }
            };
            masks.push(mask);
        }
        TrainedModel::from_masks(features, classes, clauses_per_class, masks)
    }

    #[test]
    fn prefix_register_counts_match_the_prefix_set_oracle() {
        for (seed, features) in [(1, 50), (2, 200), (3, 200), (4, 391)] {
            let model = random_model(features, 3, 24, seed);
            for w in [1, 3, 7, 64, 65, 130] {
                assert_eq!(
                    prefix_register_counts(&model, w),
                    prefix_register_counts_oracle(&model, w),
                    "seed {seed} features {features} W {w}"
                );
            }
        }
        // The fixture's windows and an empty model.
        assert_eq!(
            prefix_register_counts(&model(), 3),
            prefix_register_counts_oracle(&model(), 3)
        );
        let empty = TrainedModel::from_masks(5, 1, 0, Vec::new());
        assert_eq!(prefix_register_counts(&empty, 2), vec![0; 3]);
    }

    #[test]
    fn window_cubes_match_the_sliced_mask_construction() {
        for (seed, features) in [(5, 784), (6, 377)] {
            let model = random_model(features, 3, 20, seed);
            for w in [64, 5, 130] {
                let reference: Vec<Vec<Cube>> = (0..features.div_ceil(w))
                    .map(|k| {
                        model
                            .iter_clauses()
                            .map(|(_, _, mask)| Cube::from_mask(&mask.window(k * w, w)))
                            .collect()
                    })
                    .collect();
                assert_eq!(
                    window_cubes(&model, w),
                    reference,
                    "seed {seed} features {features} W {w}"
                );
            }
        }
    }

    #[test]
    fn optimize_window_dont_touch_keeps_duplicates() {
        let cubes = window_cubes(&model(), 4).remove(0);
        let opt = optimize_window(4, &cubes, Sharing::Enabled);
        let dt = optimize_window(4, &cubes, Sharing::DontTouch);
        assert!(opt.and2_count() < dt.and2_count());
        // Functional equivalence between modes.
        for v in 0..16u32 {
            let input = BitVec::from_bools((0..4).map(|b| (v >> b) & 1 == 1));
            assert_eq!(opt.eval(&input), dt.eval(&input));
        }
    }

    #[test]
    fn extraction_variant_returns_consistent_pair() {
        let cubes = window_cubes(&model(), 4).remove(0);
        let (ex, dag) = optimize_window_with_extraction(4, &cubes);
        assert_eq!(ex.cubes.len(), dag.outputs().len());
    }
}
