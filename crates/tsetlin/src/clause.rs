//! A single clause: a team of Tsetlin Automata plus the propositional AND
//! over the literals they include (Fig 1(b) / Fig 2 of the paper).
//!
//! # RNG contract
//!
//! [`Clause::type_i_feedback`] takes its draws in a fixed order: without
//! `boost_true_positive`, a firing clause first draws one `u64` per
//! literal that is 1 on the input (the `(s − 1)/s` include check, all
//! `x_k` in ascending `k`, then all `¬x_k`); then every Type I call draws
//! one `u64` per geometric gap of the `1/s` erosion walk over the `2n`
//! literals, ending with the draw whose gap leaves the range. Each draw
//! maps to its decision exactly as `gen::<f64>() < p` and
//! `((k·2⁻⁵³).ln() / (1 − p).ln()) as usize` would (see
//! [`crate::sampler`]). Type II feedback draws nothing.

use crate::automaton::{Action, TsetlinAutomaton};
use crate::bits::BitVec;
use crate::sampler::TypeISampler;
use rand::Rng;

/// One conjunctive clause over `2n` literals.
///
/// Literal `k` for `k < n` is feature `x_k`; literal `n + k` is `¬x_k`.
/// The clause keeps its automaton states *and* a pair of packed include
/// masks (`pos`/`neg`, one bit per feature) that are updated incrementally
/// whenever an automaton crosses its decision boundary, so evaluation is a
/// couple of word-wise subset tests instead of a walk over all automata.
///
/// An empty clause (no includes) evaluates to 1 — the AND identity. This
/// matches the generated hardware, where HCB 0 initializes every partial
/// clause register to `1'b1` (Fig 5), and keeps software inference
/// bit-identical to the gate-level design.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Clause {
    num_features: usize,
    ta: Vec<TsetlinAutomaton>,
    include_pos: BitVec,
    include_neg: BitVec,
}

impl Clause {
    /// Creates a clause over `num_features` features with all automata at
    /// the boundary exclude state.
    ///
    /// # Panics
    ///
    /// Panics if `num_features` is zero (via automaton validation upstream).
    pub fn new(num_features: usize, states_per_action: u16) -> Self {
        Clause {
            num_features,
            ta: vec![TsetlinAutomaton::new(states_per_action); 2 * num_features],
            include_pos: BitVec::zeros(num_features),
            include_neg: BitVec::zeros(num_features),
        }
    }

    /// Number of input features `n`.
    pub fn num_features(&self) -> usize {
        self.num_features
    }

    /// Included positive literals, one bit per feature.
    pub fn include_pos(&self) -> &BitVec {
        &self.include_pos
    }

    /// Included negated literals, one bit per feature.
    pub fn include_neg(&self) -> &BitVec {
        &self.include_neg
    }

    /// Automaton guarding literal `k` (`k < n`: `x_k`; else `¬x_{k-n}`).
    ///
    /// # Panics
    ///
    /// Panics if `k >= 2n`.
    pub fn automaton(&self, k: usize) -> TsetlinAutomaton {
        self.ta[k]
    }

    /// Total number of included literals.
    pub fn num_includes(&self) -> usize {
        self.include_pos.count_ones() + self.include_neg.count_ones()
    }

    /// Whether the clause includes no literals (constant-1 clause).
    pub fn is_empty_clause(&self) -> bool {
        self.num_includes() == 0
    }

    /// Evaluates the clause on an input.
    ///
    /// `x` is the packed feature vector and `x_neg` its precomputed
    /// complement (callers evaluating many clauses share one complement).
    ///
    /// # Panics
    ///
    /// Panics if `x` / `x_neg` lengths differ from `num_features`.
    pub fn evaluate(&self, x: &BitVec, x_neg: &BitVec) -> bool {
        self.include_pos.covered_by(x) && self.include_neg.covered_by(x_neg)
    }

    /// Type I feedback: reinforces the clause toward matching `x`
    /// (combats false negatives). `clause_output` must be the value of
    /// [`Clause::evaluate`] on the same input, and `sampler` the machine's
    /// [`TypeISampler`] for specificity `s`.
    ///
    /// With output 1, literals that are 1 are nudged toward include with
    /// probability `(s-1)/s` (or 1 under `boost_true_positive`) and literals
    /// that are 0 toward exclude with probability `1/s`. With output 0,
    /// every literal is nudged toward exclude with probability `1/s`.
    ///
    /// # Panics
    ///
    /// Panics if `sampler` was built for fewer features than the clause has.
    pub fn type_i_feedback<R: Rng + ?Sized>(
        &mut self,
        x: &BitVec,
        clause_output: bool,
        sampler: &TypeISampler,
        boost_true_positive: bool,
        rng: &mut R,
    ) {
        let n = self.num_features;
        if clause_output {
            // Literal value 1 → push toward include.
            if boost_true_positive {
                for k in x.iter_ones() {
                    self.nudge_include(k);
                }
                for_each_zero(x, n, |k| self.nudge_include(n + k));
            } else {
                let include = sampler.include();
                for k in x.iter_ones() {
                    if include.sample(rng) {
                        self.nudge_include(k);
                    }
                }
                for_each_zero(x, n, |k| {
                    if include.sample(rng) {
                        self.nudge_include(n + k);
                    }
                });
            }
            // Literal value 0 → push toward exclude with probability 1/s.
            sampler.erode().for_each(rng, 2 * n, |k| {
                let value = if k < n { x.get(k) } else { !x.get(k - n) };
                if !value {
                    self.nudge_exclude(k);
                }
            });
        } else {
            // Clause silent: erode all includes with probability 1/s.
            sampler
                .erode()
                .for_each(rng, 2 * n, |k| self.nudge_exclude(k));
        }
    }

    /// Type II feedback: blocks a false positive by including (with
    /// probability 1) zero-valued literals that are currently excluded,
    /// which forces the clause toward 0 on this input.
    pub fn type_ii_feedback(&mut self, x: &BitVec, clause_output: bool) {
        if !clause_output {
            return;
        }
        let n = self.num_features;
        // The candidates are the excluded literals that are 0 on `x`:
        // `¬x ∧ ¬pos` among the `x_k`, `x ∧ ¬neg` among the `¬x_k`. Each
        // nudge touches only its own literal, so the order is free.
        for (w, &xw) in x.words().iter().enumerate() {
            let pos = !xw & !self.include_pos.words()[w] & valid_bits(n, w);
            let neg = xw & !self.include_neg.words()[w];
            for_each_bit(pos, |b| self.nudge_include(64 * w + b));
            for_each_bit(neg, |b| self.nudge_include(n + 64 * w + b));
        }
    }

    /// Rebuilds the packed include masks from the automaton states.
    /// Exposed for tests; the masks are otherwise maintained incrementally.
    pub fn rebuild_masks(&mut self) {
        let n = self.num_features;
        for k in 0..n {
            self.include_pos
                .set(k, self.ta[k].action() == Action::Include);
            self.include_neg
                .set(k, self.ta[n + k].action() == Action::Include);
        }
    }

    #[inline]
    fn nudge_include(&mut self, k: usize) {
        if self.ta[k].step_include() {
            self.set_mask(k, true);
        }
    }

    #[inline]
    fn nudge_exclude(&mut self, k: usize) {
        if self.ta[k].step_exclude() {
            self.set_mask(k, false);
        }
    }

    // Out of line: an action flips on few nudges, and keeping this off
    // the nudges' path lets them inline into the feedback loops.
    #[cold]
    #[inline(never)]
    fn set_mask(&mut self, k: usize, value: bool) {
        if k < self.num_features {
            self.include_pos.set(k, value);
        } else {
            self.include_neg.set(k - self.num_features, value);
        }
    }
}

/// The bits of word `w` that hold one of `n` features.
fn valid_bits(n: usize, w: usize) -> u64 {
    match n - 64 * w {
        rest @ 0..64 => (1 << rest) - 1,
        _ => !0,
    }
}

/// Calls `f` with each feature index `k < n` where `x` is 0, ascending.
fn for_each_zero(x: &BitVec, n: usize, mut f: impl FnMut(usize)) {
    for (w, &xw) in x.words().iter().enumerate() {
        for_each_bit(!xw & valid_bits(n, w), |b| f(64 * w + b));
    }
}

/// Calls `f` with the index of each set bit of `word`, ascending.
fn for_each_bit(mut word: u64, mut f: impl FnMut(usize)) {
    while word != 0 {
        f(word.trailing_zeros() as usize);
        word &= word - 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn input(bits: &[usize], n: usize) -> (BitVec, BitVec) {
        let x = BitVec::from_indices(n, bits);
        let neg = x.not();
        (x, neg)
    }

    #[test]
    fn fresh_clause_is_empty_and_outputs_one() {
        let c = Clause::new(16, 64);
        let (x, xn) = input(&[3, 5], 16);
        assert!(c.is_empty_clause());
        assert!(c.evaluate(&x, &xn));
    }

    #[test]
    fn type_ii_includes_blocking_literals() {
        let mut c = Clause::new(8, 64);
        let (x, xn) = input(&[0, 1], 8);
        assert!(c.evaluate(&x, &xn));
        c.type_ii_feedback(&x, true);
        // Features 2..8 are 0 → positive literals included; features 0,1 are
        // 1 → negated literals included. Clause now rejects x.
        assert!(!c.evaluate(&x, &xn));
        for k in 2..8 {
            assert!(c.include_pos().get(k), "pos literal {k}");
        }
        assert!(c.include_neg().get(0) && c.include_neg().get(1));
    }

    #[test]
    fn type_ii_noop_when_clause_silent() {
        let mut c = Clause::new(8, 64);
        let (x, _) = input(&[0], 8);
        c.type_ii_feedback(&x, false);
        assert!(c.is_empty_clause());
    }

    #[test]
    fn type_i_on_firing_clause_learns_pattern() {
        let mut rng = SmallRng::seed_from_u64(7);
        let mut c = Clause::new(8, 8);
        let (x, xn) = input(&[1, 4], 8);
        let sampler = TypeISampler::new(4.0, 8);
        // Repeated Type I with the clause firing drives includes toward the
        // true literals of x: x1, x4, and the negations of the rest.
        for _ in 0..64 {
            let out = c.evaluate(&x, &xn);
            c.type_i_feedback(&x, out, &sampler, true, &mut rng);
        }
        assert!(c.include_pos().get(1));
        assert!(c.include_pos().get(4));
        assert!(c.evaluate(&x, &xn));
        // A conflicting input must now be rejected.
        let (y, yn) = input(&[2], 8);
        assert!(!c.evaluate(&y, &yn));
    }

    #[test]
    fn type_i_on_silent_clause_erodes_includes() {
        let mut rng = SmallRng::seed_from_u64(11);
        let mut c = Clause::new(8, 4);
        let (x, xn) = input(&[0], 8);
        let sampler = TypeISampler::new(4.0, 8);
        for _ in 0..32 {
            let out = c.evaluate(&x, &xn);
            c.type_i_feedback(&x, out, &sampler, true, &mut rng);
        }
        assert!(!c.is_empty_clause());
        // Now feed Type I with output forced to 0 (as happens when another
        // input keeps the clause silent): includes must decay.
        let (z, _zn) = input(&[7], 8);
        let sampler = TypeISampler::new(2.0, 8);
        for _ in 0..256 {
            c.type_i_feedback(&z, false, &sampler, true, &mut rng);
        }
        assert!(c.is_empty_clause());
    }

    #[test]
    fn masks_match_automata_after_training_noise() {
        let mut rng = SmallRng::seed_from_u64(3);
        let mut c = Clause::new(12, 6);
        let sampler = TypeISampler::new(3.0, 12);
        for step in 0..200 {
            let (x, xn) = input(&[step % 12, (step * 5) % 12], 12);
            let out = c.evaluate(&x, &xn);
            if step % 3 == 0 {
                c.type_ii_feedback(&x, out);
            } else {
                c.type_i_feedback(&x, out, &sampler, step % 2 == 0, &mut rng);
            }
        }
        let mut rebuilt = c.clone();
        rebuilt.rebuild_masks();
        assert_eq!(c.include_pos(), rebuilt.include_pos());
        assert_eq!(c.include_neg(), rebuilt.include_neg());
    }
}
