//! The trained TM model: the frozen include/exclude boolean sequence that
//! MATADOR translates into a combinational circuit.

use crate::bits::BitVec;
use crate::clause::Clause;
use crate::params::TmParams;
use crate::tm::Polarity;
use crate::Sample;

/// The include decisions of one clause, packed per feature.
///
/// `pos` bit `k` set ⇒ literal `x_k` is ANDed into the clause;
/// `neg` bit `k` set ⇒ literal `¬x_k` is ANDed in.
#[derive(Debug, Clone, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub struct IncludeMask {
    /// Included positive literals (one bit per feature).
    pub pos: BitVec,
    /// Included negated literals (one bit per feature).
    pub neg: BitVec,
}

impl IncludeMask {
    /// An empty mask over `features` inputs (constant-1 clause).
    pub fn empty(features: usize) -> Self {
        IncludeMask {
            pos: BitVec::zeros(features),
            neg: BitVec::zeros(features),
        }
    }

    /// Number of included literals.
    pub fn num_includes(&self) -> usize {
        self.pos.count_ones() + self.neg.count_ones()
    }

    /// Evaluates the clause on input `x` / complement `x_neg`.
    pub fn evaluate(&self, x: &BitVec, x_neg: &BitVec) -> bool {
        self.pos.covered_by(x) && self.neg.covered_by(x_neg)
    }

    /// Restricts the mask to the feature window `[start, start+width)`,
    /// re-indexed from zero — the partial clause owned by one HCB.
    pub fn window(&self, start: usize, width: usize) -> IncludeMask {
        IncludeMask {
            pos: self.pos.slice(start, width),
            neg: self.neg.slice(start, width),
        }
    }
}

/// A frozen multiclass TM model: per class, per clause, an [`IncludeMask`].
///
/// This is the exact artifact the MATADOR flow consumes — training detail
/// (automaton states) is gone; only the boolean actions remain (Fig 2).
///
/// # Examples
///
/// ```
/// use tsetlin::{MultiClassTm, TmParams};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let params = TmParams::builder(16, 2).clauses_per_class(4).build()?;
/// let tm = MultiClassTm::new(params);
/// let model = tm.to_model();
/// assert_eq!(model.num_classes(), 2);
/// assert_eq!(model.clauses_per_class(), 4);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct TrainedModel {
    features: usize,
    classes: usize,
    clauses_per_class: usize,
    /// Row-major `[class][clause]`, flattened.
    includes: Vec<IncludeMask>,
}

impl TrainedModel {
    /// Builds a model directly from include masks.
    ///
    /// # Panics
    ///
    /// Panics if `includes.len() != classes * clauses_per_class` or any
    /// mask width differs from `features`.
    pub fn from_masks(
        features: usize,
        classes: usize,
        clauses_per_class: usize,
        includes: Vec<IncludeMask>,
    ) -> Self {
        assert_eq!(
            includes.len(),
            classes * clauses_per_class,
            "mask count mismatch"
        );
        for m in &includes {
            assert_eq!(m.pos.len(), features, "mask width mismatch");
            assert_eq!(m.neg.len(), features, "mask width mismatch");
        }
        TrainedModel {
            features,
            classes,
            clauses_per_class,
            includes,
        }
    }

    pub(crate) fn from_clauses(params: &TmParams, clauses: &[Vec<Clause>]) -> Self {
        let includes = clauses
            .iter()
            .flat_map(|class| {
                class.iter().map(|c| IncludeMask {
                    pos: c.include_pos().clone(),
                    neg: c.include_neg().clone(),
                })
            })
            .collect();
        TrainedModel {
            features: params.features(),
            classes: params.classes(),
            clauses_per_class: params.clauses_per_class(),
            includes,
        }
    }

    /// Number of boolean input features.
    pub fn num_features(&self) -> usize {
        self.features
    }

    /// Number of classes.
    pub fn num_classes(&self) -> usize {
        self.classes
    }

    /// Clauses per class.
    pub fn clauses_per_class(&self) -> usize {
        self.clauses_per_class
    }

    /// Total clause count.
    pub fn total_clauses(&self) -> usize {
        self.includes.len()
    }

    /// The include mask of clause `j` of `class`.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn clause(&self, class: usize, j: usize) -> &IncludeMask {
        assert!(class < self.classes, "class out of range");
        assert!(j < self.clauses_per_class, "clause out of range");
        &self.includes[class * self.clauses_per_class + j]
    }

    /// Iterates `(class, clause_index, mask)` in row-major order.
    pub fn iter_clauses(&self) -> impl Iterator<Item = (usize, usize, &IncludeMask)> + '_ {
        self.includes
            .iter()
            .enumerate()
            .map(move |(i, m)| (i / self.clauses_per_class, i % self.clauses_per_class, m))
    }

    /// Class sums on input `x` (empty clauses count as firing, matching the
    /// hardware's `1'b1` partial-clause initialization).
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != num_features()`.
    pub fn class_sums(&self, x: &BitVec) -> Vec<i32> {
        assert_eq!(x.len(), self.features, "input width mismatch");
        (0..self.classes)
            .map(|class| self.class_sum(class, x.words()))
            .collect()
    }

    /// Predicted class for `x` (lowest index wins ties).
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != num_features()`.
    pub fn predict(&self, x: &BitVec) -> usize {
        assert_eq!(x.len(), self.features, "input width mismatch");
        let mut best = (0, None);
        for class in 0..self.classes {
            let sum = self.class_sum(class, x.words());
            if best.1.is_none_or(|top| sum > top) {
                best = (class, Some(sum));
            }
        }
        best.0
    }

    /// The vote sum of `class` on the input words `x`. A clause fires
    /// when no included literal is false: `pos & !x` and `neg & x` are
    /// zero in every word (mask bits past the feature count are zero).
    fn class_sum(&self, class: usize, x: &[u64]) -> i32 {
        let first = class * self.clauses_per_class;
        self.includes[first..first + self.clauses_per_class]
            .iter()
            .enumerate()
            .filter(|(_, mask)| {
                mask.pos
                    .words()
                    .iter()
                    .zip(mask.neg.words())
                    .zip(x)
                    .all(|((&pos, &neg), &x)| (pos & !x) | (neg & x) == 0)
            })
            .map(|(j, _)| Polarity::of_index(j).vote())
            .sum()
    }

    /// Class sums of every input in `xs`, equal to
    /// [`TrainedModel::class_sums`] per input.
    ///
    /// The batch oracle works per included literal, not per feature: each
    /// call lists every clause's included literals once, then evaluates
    /// up to 64 inputs per pass, bit-sliced. The inputs are transposed to
    /// one lane word per literal, and a clause fires on the AND of its
    /// literals' lane words.
    ///
    /// # Panics
    ///
    /// Panics if any input's width differs from `num_features()`.
    pub fn class_sums_batch(&self, xs: &[BitVec]) -> Vec<Vec<i32>> {
        let sums = self.batch_sums(xs);
        let c = self.classes;
        (0..xs.len())
            .map(|i| sums[i * c..(i + 1) * c].to_vec())
            .collect()
    }

    /// Predicted class of every input in `xs` (lowest index wins ties),
    /// equal to [`TrainedModel::predict`] per input; see
    /// [`TrainedModel::class_sums_batch`].
    ///
    /// # Panics
    ///
    /// Panics if any input's width differs from `num_features()`.
    pub fn predict_batch(&self, xs: &[BitVec]) -> Vec<usize> {
        let sums = self.batch_sums(xs);
        let c = self.classes;
        (0..xs.len())
            .map(|i| crate::tm::argmax(&sums[i * c..(i + 1) * c]))
            .collect()
    }

    /// The class sums of `xs`, input-major: input `i`'s sums are
    /// `[i * classes, (i + 1) * classes)`.
    fn batch_sums(&self, xs: &[BitVec]) -> Vec<i32> {
        for x in xs {
            assert_eq!(x.len(), self.features, "input width mismatch");
        }
        let f = self.features;
        // Literal code `k` is `x_k` and `f + k` is `¬x_k`; clause `i`'s
        // codes end at `ends[i]` and start where clause `i - 1`'s end.
        let mut codes: Vec<u32> = Vec::with_capacity(self.total_includes());
        let mut ends: Vec<u32> = Vec::with_capacity(self.includes.len());
        for mask in &self.includes {
            codes.extend(mask.pos.iter_ones().map(|k| k as u32));
            codes.extend(mask.neg.iter_ones().map(|k| (f + k) as u32));
            ends.push(codes.len() as u32);
        }

        let mut sums = vec![0i32; xs.len() * self.classes];
        // `lanes[code]` holds the literal's value in every input of the
        // pass, input `j` in bit `j`; lanes past the pass's inputs are 0.
        let mut lanes = vec![0u64; 2 * f];
        let mut block = [0u64; 64];
        for (pass, chunk) in xs.chunks(64).enumerate() {
            let valid = u64::MAX >> (64 - chunk.len());
            for (w, pos) in lanes[..f].chunks_mut(64).enumerate() {
                for (row, x) in block.iter_mut().zip(chunk) {
                    *row = x.words()[w];
                }
                block[chunk.len()..].fill(0);
                transpose64(&mut block);
                pos.copy_from_slice(&block[..pos.len()]);
            }
            let (pos, neg) = lanes.split_at_mut(f);
            for (neg, &pos) in neg.iter_mut().zip(pos.iter()) {
                *neg = !pos & valid;
            }

            let base = pass * 64;
            let mut start = 0;
            for (i, &end) in ends.iter().enumerate() {
                let lits = &codes[start..end as usize];
                start = end as usize;
                // Every lane word is 0 past the pass's inputs, so a clause
                // with a literal fires on valid lanes only.
                let mut fire = match lits.split_first() {
                    None => valid,
                    Some((&first, rest)) => {
                        let mut fire = lanes[first as usize];
                        for &code in rest {
                            if fire == 0 {
                                break;
                            }
                            fire &= lanes[code as usize];
                        }
                        fire
                    }
                };
                let class = i / self.clauses_per_class;
                let vote = Polarity::of_index(i % self.clauses_per_class).vote();
                while fire != 0 {
                    let lane = fire.trailing_zeros() as usize;
                    sums[(base + lane) * self.classes + class] += vote;
                    fire &= fire - 1;
                }
            }
        }
        sums
    }

    /// Fraction of `samples` classified correctly.
    pub fn accuracy(&self, samples: &[Sample]) -> f64 {
        if samples.is_empty() {
            return 0.0;
        }
        let correct = samples
            .iter()
            .filter(|s| self.predict(&s.input) == s.label)
            .count();
        correct as f64 / samples.len() as f64
    }

    /// Total include count across all clauses.
    pub fn total_includes(&self) -> usize {
        self.includes.iter().map(IncludeMask::num_includes).sum()
    }

    /// Fraction of literal slots that are includes — the sparsity the paper
    /// reports as "extremely high" (Section II).
    pub fn include_density(&self) -> f64 {
        let slots = self.total_clauses() * 2 * self.features;
        if slots == 0 {
            return 0.0;
        }
        self.total_includes() as f64 / slots as f64
    }
}

/// Transposes a 64×64 bit matrix in place: bit `c` of `rows[r]` moves to
/// bit `r` of `rows[c]`. Each round swaps the off-diagonal blocks of
/// every `2j × 2j` tile, halving `j` from 32 to 1.
fn transpose64(rows: &mut [u64; 64]) {
    let mut j = 32;
    let mut low = u64::MAX >> 32;
    while j != 0 {
        let mut k = 0;
        while k < 64 {
            let t = ((rows[k] >> j) ^ rows[k + j]) & low;
            rows[k + j] ^= t;
            rows[k] ^= t << j;
            k = (k + j + 1) & !j;
        }
        j >>= 1;
        low ^= low << j;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_clause_model() -> TrainedModel {
        // class 0: clause0 (+) = x0 & ¬x2 ; clause1 (−) = x3
        // class 1: clause0 (+) = x2       ; clause1 (−) = empty
        let f = 4;
        let mk = |pos: &[usize], neg: &[usize]| IncludeMask {
            pos: BitVec::from_indices(f, pos),
            neg: BitVec::from_indices(f, neg),
        };
        TrainedModel::from_masks(
            f,
            2,
            2,
            vec![mk(&[0], &[2]), mk(&[3], &[]), mk(&[2], &[]), mk(&[], &[])],
        )
    }

    #[test]
    fn class_sums_respect_polarity_and_empty_clause() {
        let m = two_clause_model();
        let x = BitVec::from_indices(4, &[0]);
        // class 0: clause0 fires (+1); clause1 silent. → +1
        // class 1: clause0 silent; empty clause1 fires (−1). → −1
        assert_eq!(m.class_sums(&x), vec![1, -1]);
        assert_eq!(m.predict(&x), 0);
    }

    #[test]
    fn class_sums_match_the_mask_evaluation() {
        // SplitMix64, so the masks and inputs are fixed.
        let mut state = 7u64;
        let mut next = move |bound: u64| {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) % bound
        };
        // Three words per mask, the last one ragged.
        let f = 150;
        let mut bits = |one_in: u64| BitVec::from_bools((0..f).map(|_| next(one_in) == 0));
        let includes = (0..3 * 6)
            .map(|_| IncludeMask {
                pos: bits(60),
                neg: bits(60),
            })
            .collect();
        let m = TrainedModel::from_masks(f, 3, 6, includes);
        for _ in 0..200 {
            let x = bits(2);
            let x_neg = x.not();
            let expected: Vec<i32> = (0..3)
                .map(|class| {
                    (0..6)
                        .filter(|&j| m.clause(class, j).evaluate(&x, &x_neg))
                        .map(|j| Polarity::of_index(j).vote())
                        .sum()
                })
                .collect();
            assert_eq!(m.class_sums(&x), expected);
            assert_eq!(m.predict(&x), crate::tm::argmax(&expected));
        }
    }

    #[test]
    fn batch_oracle_matches_per_input_inference() {
        // SplitMix64, so the masks and inputs are fixed.
        let mut state = 11u64;
        let mut next = move |bound: u64| {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) % bound
        };
        let (classes, per_class) = (4, 10);
        for f in [1, 63, 64, 65, 130, 784] {
            // Classes 0 and 1 draw 0–4 literals per clause, so clause 0 is
            // empty (constant 1), clause 1 is `x ∧ ¬x` and most others
            // fire on some inputs. Classes 2 and 3 repeat them, so every
            // input ties each class with the one two below it.
            let mut drawn = Vec::new();
            for _ in 0..2 {
                for j in 0..per_class {
                    let mut mask = IncludeMask::empty(f);
                    let lits = match j {
                        0 => 0,
                        _ => next(5),
                    };
                    for _ in 0..lits {
                        let k = next(f as u64) as usize;
                        if next(2) == 0 {
                            mask.pos.set(k, true);
                        } else {
                            mask.neg.set(k, true);
                        }
                    }
                    if j == 1 {
                        let k = next(f as u64) as usize;
                        mask.pos.set(k, true);
                        mask.neg.set(k, true);
                    }
                    drawn.push(mask);
                }
            }
            let includes = drawn.iter().chain(&drawn).cloned().collect();
            let m = TrainedModel::from_masks(f, classes, per_class, includes);
            for n in [0, 1, 63, 64, 65, 129] {
                // Inputs alternate dense and sparse draws.
                let xs: Vec<BitVec> = (0..n)
                    .map(|i| {
                        let one_in = if i % 2 == 0 { 2 } else { 8 };
                        BitVec::from_bools((0..f).map(|_| next(one_in) == 0))
                    })
                    .collect();
                let sums: Vec<Vec<i32>> = xs.iter().map(|x| m.class_sums(x)).collect();
                let winners: Vec<usize> = xs.iter().map(|x| m.predict(x)).collect();
                assert_eq!(m.class_sums_batch(&xs), sums, "f {f} n {n}");
                assert_eq!(m.predict_batch(&xs), winners, "f {f} n {n}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "input width mismatch")]
    fn batch_oracle_validates_width() {
        let xs = [BitVec::zeros(4), BitVec::zeros(5)];
        two_clause_model().predict_batch(&xs);
    }

    #[test]
    fn window_restriction_reindexes() {
        let m = two_clause_model();
        let w = m.clause(0, 0).window(2, 2);
        assert_eq!(w.pos.count_ones(), 0);
        assert!(w.neg.get(0)); // ¬x2 → window bit 0
    }

    #[test]
    fn include_statistics() {
        let m = two_clause_model();
        assert_eq!(m.total_includes(), 4);
        let density = m.include_density();
        assert!((density - 4.0 / (4.0 * 8.0)).abs() < 1e-12);
    }

    #[test]
    fn iter_clauses_row_major() {
        let m = two_clause_model();
        let order: Vec<(usize, usize)> = m.iter_clauses().map(|(c, j, _)| (c, j)).collect();
        assert_eq!(order, vec![(0, 0), (0, 1), (1, 0), (1, 1)]);
    }

    #[test]
    #[should_panic(expected = "mask count mismatch")]
    fn from_masks_validates_count() {
        TrainedModel::from_masks(4, 2, 2, vec![IncludeMask::empty(4)]);
    }

    #[test]
    #[should_panic(expected = "input width mismatch")]
    fn class_sums_validates_width() {
        two_clause_model().class_sums(&BitVec::zeros(5));
    }

    #[test]
    fn accuracy_counts_correct_predictions() {
        let m = two_clause_model();
        let samples = vec![
            Sample::new(BitVec::from_indices(4, &[0]), 0),
            Sample::new(BitVec::from_indices(4, &[2]), 1),
            Sample::new(BitVec::from_indices(4, &[2]), 0), // wrong on purpose
        ];
        let acc = m.accuracy(&samples);
        assert!((acc - 2.0 / 3.0).abs() < 1e-12);
    }
}
