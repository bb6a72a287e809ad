//! The multiclass Tsetlin Machine: clause voting, class sums and the
//! Type I / Type II feedback schedule (Fig 1(a) of the paper).
//!
//! # Training parallelism
//!
//! [`MultiClassTm::fit`] exploits the per-class independence of TM
//! feedback (each class's clause bank is only ever updated from its own
//! class sum): every epoch draws one `epoch_seed` from the caller's RNG,
//! then derives independent streams from it via
//! [`matador_par::split_seed`] — one for the sample shuffle, one for the
//! per-sample negative-class draws, and one per class for the feedback
//! coin flips. Classes are then updated concurrently with
//! [`matador_par::par_map_mut_with`]. Because no RNG stream ever crosses a
//! class boundary, the trained machine is **bit-identical at every
//! thread count** (`MATADOR_THREADS=1` included), which the
//! `parallel_equivalence` suite asserts end-to-end.
//!
//! # RNG contract
//!
//! Within a class stream, one sample's feedback visits the clauses in
//! index order. Each clause takes one `u64` for the `p_update` check
//! and, when selected for Type I feedback, the draws
//! [`Clause::type_i_feedback`] documents: one per `(s − 1)/s` check and
//! one per geometric gap of the `1/s` erosion walk. Every draw maps to
//! its decision exactly as the `f64` expressions `gen::<f64>() < p` and
//! `((k·2⁻⁵³).ln() / (1 − p).ln()) as usize` do; [`crate::sampler`]
//! computes them as integer compares and a checked threshold table,
//! prepared once per machine from its [`TmParams`].

use crate::bits::BitVec;
use crate::clause::Clause;
use crate::model::TrainedModel;
use crate::params::TmParams;
use crate::sampler::{Bernoulli, TypeISampler};
use crate::Sample;
use matador_par::split_seed;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Seed-split stream tag for the per-epoch sample shuffle.
const STREAM_SHUFFLE: u64 = 0;
/// Seed-split stream tag for the per-sample negative-class draws.
const STREAM_NEGATIVE: u64 = 1;
/// Base stream tag for per-class feedback RNGs (`base + class_idx`).
const STREAM_CLASS_BASE: u64 = 2;

/// Polarity of a clause's vote. Clauses alternate polarity by index:
/// even → positive, odd → negative (the paper's `[+1, -1]` alternation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum Polarity {
    /// Votes `+1` when the clause fires.
    Positive,
    /// Votes `-1` when the clause fires.
    Negative,
}

impl Polarity {
    /// Polarity assigned to clause index `j` within its class.
    pub fn of_index(j: usize) -> Polarity {
        if j.is_multiple_of(2) {
            Polarity::Positive
        } else {
            Polarity::Negative
        }
    }

    /// The vote contribution when the clause fires.
    pub fn vote(self) -> i32 {
        match self {
            Polarity::Positive => 1,
            Polarity::Negative => -1,
        }
    }
}

/// A trainable multiclass Tsetlin Machine.
///
/// # Examples
///
/// ```
/// use tsetlin::{MultiClassTm, Sample, TmParams};
/// use tsetlin::bits::BitVec;
/// use rand::{rngs::SmallRng, SeedableRng};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let params = TmParams::builder(4, 2).clauses_per_class(4).build()?;
/// let mut tm = MultiClassTm::new(params);
/// let data = vec![
///     Sample::new(BitVec::from_indices(4, &[0, 1]), 0),
///     Sample::new(BitVec::from_indices(4, &[2, 3]), 1),
/// ];
/// let mut rng = SmallRng::seed_from_u64(1);
/// tm.fit(&data, 20, &mut rng);
/// assert_eq!(tm.predict(&data[0].input), 0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct MultiClassTm {
    params: TmParams,
    /// Type I feedback probabilities, prepared once from `params`.
    sampler: TypeISampler,
    /// `clauses[class][j]`.
    clauses: Vec<Vec<Clause>>,
}

impl MultiClassTm {
    /// Creates an untrained machine (all automata at the boundary exclude
    /// state; every clause is the constant-1 empty clause).
    pub fn new(params: TmParams) -> Self {
        let clauses = (0..params.classes())
            .map(|_| {
                (0..params.clauses_per_class())
                    .map(|_| Clause::new(params.features(), params.states_per_action()))
                    .collect()
            })
            .collect();
        let sampler = TypeISampler::new(params.specificity(), params.features());
        MultiClassTm {
            params,
            sampler,
            clauses,
        }
    }

    /// The hyperparameters this machine was built with.
    pub fn params(&self) -> &TmParams {
        &self.params
    }

    /// Polarity-weighted vote total of `class` on input `x` (with
    /// precomputed complement `x_neg`). Unclamped.
    pub fn class_sum(&self, class: usize, x: &BitVec, x_neg: &BitVec) -> i32 {
        bank_class_sum(&self.clauses[class], x, x_neg)
    }

    /// All class sums for input `x`.
    pub fn class_sums(&self, x: &BitVec) -> Vec<i32> {
        let x_neg = x.not();
        (0..self.params.classes())
            .map(|c| self.class_sum(c, x, &x_neg))
            .collect()
    }

    /// Predicted class (argmax of class sums; ties break to the lowest
    /// index, matching the hardware comparison tree).
    pub fn predict(&self, x: &BitVec) -> usize {
        argmax(&self.class_sums(x))
    }

    /// One stochastic update on a single labelled sample: Type I feedback
    /// toward the target class, Type II against one random other class.
    ///
    /// # Panics
    ///
    /// Panics if `label >= classes` or the input width mismatches.
    pub fn update<R: Rng + ?Sized>(&mut self, sample: &Sample, rng: &mut R) {
        let classes = self.params.classes();
        assert!(sample.label < classes, "label out of range");
        assert_eq!(
            sample.input.len(),
            self.params.features(),
            "input width mismatch"
        );
        let x = &sample.input;
        let x_neg = x.not();

        // Target class: raise its margin.
        self.feedback_sample(sample.label, x, &x_neg, true, rng);

        // One random negative class: suppress its margin.
        if classes > 1 {
            let mut negative = rng.gen_range(0..classes - 1);
            if negative >= sample.label {
                negative += 1;
            }
            self.feedback_sample(negative, x, &x_neg, false, rng);
        }
    }

    /// Runs `epochs` passes over `samples` (shuffled each epoch), spread
    /// over [`matador_par::configured_threads`] worker threads.
    ///
    /// Training is deterministic per `rng` seed and — by the per-class
    /// seed-splitting scheme described in the module docs — bit-identical
    /// at every thread count. See [`MultiClassTm::fit_with_threads`] for
    /// an explicit thread count.
    ///
    /// # Panics
    ///
    /// Panics if [`TmParams::check_samples`] rejects `samples`: a label
    /// out of range or an input width that mismatches the machine's
    /// feature count.
    pub fn fit<R: Rng + ?Sized>(&mut self, samples: &[Sample], epochs: usize, rng: &mut R) {
        self.fit_with_threads(samples, epochs, rng, matador_par::configured_threads());
    }

    /// [`MultiClassTm::fit`] with an explicit worker-thread count
    /// (`1` forces the sequential in-caller path).
    ///
    /// The result does not depend on `threads` — only how the identical
    /// per-class work is scheduled.
    ///
    /// # Panics
    ///
    /// Panics if [`TmParams::check_samples`] rejects `samples`: a label
    /// out of range or an input width that mismatches the machine's
    /// feature count.
    pub fn fit_with_threads<R: Rng + ?Sized>(
        &mut self,
        samples: &[Sample],
        epochs: usize,
        rng: &mut R,
        threads: usize,
    ) {
        if samples.is_empty() {
            return;
        }
        if let Err(e) = self.params.check_samples(samples) {
            panic!("{e}");
        }
        // Complements are input-only; hoist them out of the epoch loop.
        let x_negs: Vec<BitVec> = samples.iter().map(|s| s.input.not()).collect();
        for _ in 0..epochs {
            let epoch_seed: u64 = rng.gen();
            self.epoch_pass(samples, &x_negs, epoch_seed, threads);
        }
    }

    /// One epoch of the deterministic parallel schedule: shuffle and
    /// negative-class draws come from their own `epoch_seed`-derived
    /// streams, then every class replays the sample stream concurrently
    /// with a class-local RNG.
    fn epoch_pass(
        &mut self,
        samples: &[Sample],
        x_negs: &[BitVec],
        epoch_seed: u64,
        threads: usize,
    ) {
        let classes = self.params.classes();

        let mut order: Vec<usize> = (0..samples.len()).collect();
        let mut shuffle_rng = SmallRng::seed_from_u64(split_seed(epoch_seed, STREAM_SHUFFLE));
        order.shuffle(&mut shuffle_rng);

        // Pre-draw each sample's negative class in stream order, so the
        // per-class passes agree on which class suppresses which sample
        // without sharing an RNG.
        let mut negatives = vec![usize::MAX; samples.len()];
        if classes > 1 {
            let mut neg_rng = SmallRng::seed_from_u64(split_seed(epoch_seed, STREAM_NEGATIVE));
            for &i in &order {
                let mut negative = neg_rng.gen_range(0..classes - 1);
                if negative >= samples[i].label {
                    negative += 1;
                }
                negatives[i] = negative;
            }
        }

        let (params, sampler) = (&self.params, &self.sampler);
        matador_par::par_map_mut_with(threads, &mut self.clauses, |class, clauses| {
            let mut rng =
                SmallRng::seed_from_u64(split_seed(epoch_seed, STREAM_CLASS_BASE + class as u64));
            for &i in &order {
                let sample = &samples[i];
                let is_target = sample.label == class;
                if !is_target && negatives[i] != class {
                    continue;
                }
                feedback_clause_bank(
                    params,
                    sampler,
                    clauses,
                    &sample.input,
                    &x_negs[i],
                    is_target,
                    &mut rng,
                );
            }
        });
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

    /// Snapshots the learned include/exclude decisions as a
    /// [`TrainedModel`] — the boolean sequence MATADOR lowers to RTL.
    pub fn to_model(&self) -> TrainedModel {
        TrainedModel::from_clauses(&self.params, &self.clauses)
    }

    fn feedback_sample<R: Rng + ?Sized>(
        &mut self,
        class: usize,
        x: &BitVec,
        x_neg: &BitVec,
        is_target: bool,
        rng: &mut R,
    ) {
        feedback_clause_bank(
            &self.params,
            &self.sampler,
            &mut self.clauses[class],
            x,
            x_neg,
            is_target,
            rng,
        );
    }
}

/// Polarity-weighted vote total of one class's clause bank (unclamped).
fn bank_class_sum(clauses: &[Clause], x: &BitVec, x_neg: &BitVec) -> i32 {
    vote_sum(clauses.iter().map(|c| c.evaluate(x, x_neg)))
}

/// Polarity-weighted total of clause outputs given in clause order.
fn vote_sum(outputs: impl Iterator<Item = bool>) -> i32 {
    outputs
        .enumerate()
        .map(|(j, fired)| {
            if fired {
                Polarity::of_index(j).vote()
            } else {
                0
            }
        })
        .sum()
}

/// One sample's feedback onto a single class's clause bank — the unit of
/// work the parallel schedule hands to each class. Reads and writes only
/// `clauses` (plus the class-local `rng`), which is what makes per-class
/// parallelism sound and thread-count-invariant.
fn feedback_clause_bank<R: Rng + ?Sized>(
    params: &TmParams,
    sampler: &TypeISampler,
    clauses: &mut [Clause],
    x: &BitVec,
    x_neg: &BitVec,
    is_target: bool,
    rng: &mut R,
) {
    // Feedback to clause `j` changes only clause `j`, so each output stays
    // valid until its own clause's turn.
    let outputs: Vec<bool> = clauses.iter().map(|c| c.evaluate(x, x_neg)).collect();
    let t = params.threshold() as i32;
    let sum = vote_sum(outputs.iter().copied()).clamp(-t, t);
    let p_update = if is_target {
        (t - sum) as f64 / (2 * t) as f64
    } else {
        (t + sum) as f64 / (2 * t) as f64
    };
    let update = Bernoulli::new(p_update);
    let boost = params.boost_true_positive();
    for (j, (clause, &output)) in clauses.iter_mut().zip(&outputs).enumerate() {
        if !update.sample(rng) {
            continue;
        }
        let type_i = match (is_target, Polarity::of_index(j)) {
            (true, Polarity::Positive) | (false, Polarity::Negative) => true,
            (true, Polarity::Negative) | (false, Polarity::Positive) => false,
        };
        if type_i {
            clause.type_i_feedback(x, output, sampler, boost, rng);
        } else {
            clause.type_ii_feedback(x, output);
        }
    }
}

/// Index of the maximum element, lowest index on ties — the same
/// tie-breaking rule as the generated argmax comparison tree.
pub fn argmax(sums: &[i32]) -> usize {
    let mut best = 0usize;
    for (i, &v) in sums.iter().enumerate().skip(1) {
        if v > sums[best] {
            best = i;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn toy_params() -> TmParams {
        TmParams::builder(8, 2)
            .clauses_per_class(20)
            .threshold(8)
            .specificity(3.0)
            .states_per_action(32)
            .build()
            .expect("valid params")
    }

    fn toy_data() -> Vec<Sample> {
        // Class 0: low half set; class 1: high half set.
        let mut data = Vec::new();
        for v in 0..16u32 {
            let mut low = vec![false; 8];
            let mut high = vec![false; 8];
            for b in 0..4 {
                low[b] = (v >> b) & 1 == 1 || b == 0;
                high[4 + b] = (v >> b) & 1 == 1 || b == 0;
            }
            data.push(Sample::new(BitVec::from_bools(low), 0));
            data.push(Sample::new(BitVec::from_bools(high), 1));
        }
        data
    }

    #[test]
    fn untrained_machine_votes_cancel() {
        let tm = MultiClassTm::new(toy_params());
        let x = BitVec::from_indices(8, &[0, 1]);
        // Every clause is empty → outputs 1; polarity alternation cancels.
        assert_eq!(tm.class_sums(&x), vec![0, 0]);
    }

    #[test]
    fn learns_linearly_separable_toy_task() {
        let mut tm = MultiClassTm::new(toy_params());
        let data = toy_data();
        let mut rng = SmallRng::seed_from_u64(99);
        tm.fit(&data, 80, &mut rng);
        let acc = tm.accuracy(&data);
        assert!(acc >= 0.95, "accuracy {acc} below 0.95");
    }

    #[test]
    fn polarity_alternates_by_index() {
        assert_eq!(Polarity::of_index(0), Polarity::Positive);
        assert_eq!(Polarity::of_index(1), Polarity::Negative);
        assert_eq!(Polarity::of_index(7).vote(), -1);
    }

    #[test]
    fn argmax_breaks_ties_low() {
        assert_eq!(argmax(&[3, 5, 5, 1]), 1);
        assert_eq!(argmax(&[0, 0]), 0);
        assert_eq!(argmax(&[-4]), 0);
    }

    #[test]
    fn model_snapshot_agrees_with_machine() {
        let mut tm = MultiClassTm::new(toy_params());
        let data = toy_data();
        let mut rng = SmallRng::seed_from_u64(5);
        tm.fit(&data, 15, &mut rng);
        let model = tm.to_model();
        for s in &data {
            assert_eq!(
                model.class_sums(&s.input),
                tm.class_sums(&s.input),
                "model/machine divergence"
            );
        }
    }

    #[test]
    #[should_panic(expected = "label out of range")]
    fn update_rejects_bad_label() {
        let mut tm = MultiClassTm::new(toy_params());
        let mut rng = SmallRng::seed_from_u64(0);
        let s = Sample::new(BitVec::zeros(8), 9);
        tm.update(&s, &mut rng);
    }

    #[test]
    #[should_panic(expected = "input width mismatch")]
    fn update_rejects_bad_width() {
        let mut tm = MultiClassTm::new(toy_params());
        let mut rng = SmallRng::seed_from_u64(0);
        let s = Sample::new(BitVec::zeros(4), 0);
        tm.update(&s, &mut rng);
    }

    #[test]
    fn accuracy_of_empty_set_is_zero() {
        let tm = MultiClassTm::new(toy_params());
        assert_eq!(tm.accuracy(&[]), 0.0);
    }

    #[test]
    fn fit_on_empty_training_set_is_a_no_op() {
        let mut tm = MultiClassTm::new(toy_params());
        let reference = tm.to_model();
        let mut rng = SmallRng::seed_from_u64(1);
        tm.fit(&[], 10, &mut rng);
        assert_eq!(tm.to_model(), reference);
    }

    #[test]
    fn fit_is_bit_identical_across_thread_counts() {
        let data = toy_data();
        let mut reference = MultiClassTm::new(toy_params());
        let mut rng = SmallRng::seed_from_u64(31);
        reference.fit_with_threads(&data, 12, &mut rng, 1);
        let reference = reference.to_model();
        for threads in [2, 3, 8] {
            let mut tm = MultiClassTm::new(toy_params());
            let mut rng = SmallRng::seed_from_u64(31);
            tm.fit_with_threads(&data, 12, &mut rng, threads);
            assert_eq!(tm.to_model(), reference, "threads={threads}");
        }
    }

    #[test]
    #[should_panic(expected = "label out of range")]
    fn fit_rejects_bad_label() {
        let mut tm = MultiClassTm::new(toy_params());
        let mut rng = SmallRng::seed_from_u64(0);
        let s = Sample::new(BitVec::zeros(8), 9);
        tm.fit(&[s], 1, &mut rng);
    }
}
