//! The compiled accelerator: the bit-true combinational content of every
//! HCB plus the architectural shape, ready for cycle simulation.

use matador_logic::cube::{Cube, CubeArena};
use matador_logic::dag::{LogicDag, Sharing};
use matador_logic::share::optimize_window;
use std::sync::Arc;
use tsetlin::bits::BitVec;

/// Architectural shape of a generated accelerator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct AccelShape {
    /// Stream width `W` in bits.
    pub bus_width: usize,
    /// Booleanized feature count.
    pub features: usize,
    /// Number of classes.
    pub classes: usize,
    /// Clauses per class.
    pub clauses_per_class: usize,
}

impl AccelShape {
    /// Packets per datapoint / HCB count.
    pub fn num_packets(&self) -> usize {
        self.features.div_ceil(self.bus_width)
    }

    /// Total clause count.
    pub fn total_clauses(&self) -> usize {
        self.classes * self.clauses_per_class
    }
}

/// A bit-true compiled accelerator: one optimized window DAG per HCB.
///
/// The DAG of window `k` has `total_clauses` outputs — the partial clause
/// values for packet `k` — evaluated combinationally each time that packet
/// arrives (Fig 5).
#[derive(Debug, Clone)]
pub struct CompiledAccelerator {
    shape: AccelShape,
    /// Immutable, so clones (and the design that compiled them) share
    /// one copy.
    windows: Arc<[LogicDag]>,
}

impl CompiledAccelerator {
    /// Compiles per-window clause cubes into an accelerator.
    ///
    /// `window_cubes[k]` must hold one cube per clause (class-major order)
    /// over window `k`'s local bits.
    ///
    /// # Panics
    ///
    /// Panics if the window count or any cube list length is inconsistent
    /// with `shape`.
    pub fn from_window_cubes(
        shape: AccelShape,
        window_cubes: &[Vec<Cube>],
        sharing: Sharing,
    ) -> Self {
        assert_eq!(
            window_cubes.len(),
            shape.num_packets(),
            "window count mismatch"
        );
        let windows = window_cubes
            .iter()
            .map(|cubes| {
                assert_eq!(cubes.len(), shape.total_clauses(), "clause count mismatch");
                optimize_window(
                    shape.bus_width,
                    CubeArena::from_cubes(cubes).list(),
                    sharing,
                )
            })
            .collect();
        CompiledAccelerator { shape, windows }
    }

    /// Assembles an accelerator from already-optimized window DAGs, one
    /// per HCB with one output per clause (class-major). The design flow
    /// compiles its generated DAGs this way instead of re-optimizing the
    /// cubes, sharing them (an `Arc<[LogicDag]>` is taken as is), and
    /// the partitioner builds each part from the monolithic node tables
    /// with a filtered output list.
    ///
    /// # Panics
    ///
    /// Panics if the window count or any window's input width or output
    /// count is inconsistent with `shape`.
    pub fn from_shape_windows(shape: AccelShape, windows: impl Into<Arc<[LogicDag]>>) -> Self {
        let windows = windows.into();
        assert_eq!(windows.len(), shape.num_packets(), "window count mismatch");
        for dag in windows.iter() {
            assert_eq!(dag.width(), shape.bus_width, "window width mismatch");
            assert_eq!(
                dag.outputs().len(),
                shape.total_clauses(),
                "clause count mismatch"
            );
        }
        CompiledAccelerator { shape, windows }
    }

    /// The architectural shape.
    pub fn shape(&self) -> &AccelShape {
        &self.shape
    }

    /// Window DAGs, one per HCB.
    pub fn windows(&self) -> &[LogicDag] {
        &self.windows
    }

    /// Evaluates window `k` on a raw packet, returning the partial clause
    /// bits packed into a clause-indexed vector. Runs the DAG interpreter
    /// ([`LogicDag::eval_into`]), the oracle the engines' folded tapes
    /// are tested against.
    ///
    /// # Panics
    ///
    /// Panics if `k` is out of range.
    pub fn eval_window(&self, k: usize, packet: u64) -> BitVec {
        let input = BitVec::from_word(self.shape.bus_width, packet);
        let mut values = Vec::new();
        let mut out = BitVec::zeros(self.shape.total_clauses());
        self.windows[k].eval_into(&input, &mut values, &mut out);
        out
    }

    /// Software reference: the class sums the hardware will produce for a
    /// full datapoint (AND over all windows, polarity-weighted votes).
    ///
    /// Each window runs through the DAG interpreter
    /// ([`LogicDag::eval_into`]), not the folded tape the engines run, so
    /// the bit-identity suites compare the engines against an
    /// independent evaluation.
    ///
    /// # Panics
    ///
    /// Panics if `input.len() != features`.
    pub fn reference_class_sums(&self, input: &BitVec) -> Vec<i32> {
        assert_eq!(input.len(), self.shape.features, "input width mismatch");
        let c = self.shape.total_clauses();
        let w = self.shape.bus_width;
        let mut values = Vec::new();
        let mut window_in = BitVec::zeros(w);
        let mut window_out = BitVec::zeros(c);
        let mut clauses = BitVec::ones(c);
        for (k, dag) in self.windows.iter().enumerate() {
            window_in.assign_word(input.extract_word(k * w, w));
            dag.eval_into(&window_in, &mut values, &mut window_out);
            clauses.and_assign(&window_out);
        }
        self.shape.sums_from_clauses(&clauses)
    }

    /// Classifies a whole batch on the bit-sliced turbo evaluator: 64
    /// datapoints per instruction pass, one `u64` lane each. Winners are
    /// bit-identical to streaming each datapoint through [`crate::SimEngine`].
    ///
    /// One-shot convenience over [`crate::TurboEngine`], which amortizes
    /// program compilation and scratch across batches.
    ///
    /// # Panics
    ///
    /// Panics if any input's width differs from `features`.
    pub fn batch_classify(&self, inputs: &[BitVec]) -> Vec<usize> {
        crate::turbo::TurboProgram::compile(self).classify(inputs)
    }

    /// The class sums behind [`CompiledAccelerator::batch_classify`], in
    /// input order — bit-identical to [`CompiledAccelerator::reference_class_sums`]
    /// per datapoint.
    ///
    /// # Panics
    ///
    /// Panics if any input's width differs from `features`.
    pub fn batch_class_sums(&self, inputs: &[BitVec]) -> Vec<Vec<i32>> {
        crate::turbo::TurboProgram::compile(self).class_sums(inputs)
    }
}

impl AccelShape {
    /// Polarity-weighted class sums from a fired-clause vector (clause
    /// `class * clauses_per_class + j` votes `+1` for even `j`, `−1` for
    /// odd `j`) — the single home of the vote convention shared by the
    /// software reference and the cycle engine's class-sum stage.
    pub(crate) fn sums_from_clauses(&self, clauses: &BitVec) -> Vec<i32> {
        let mut sums = Vec::with_capacity(self.classes);
        self.sums_from_clause_words_into(clauses.words(), &mut sums);
        sums
    }

    /// [`AccelShape::sums_from_clauses`] on clause words (bit `c % 64` of
    /// word `c / 64` is clause `c`), into a reusable buffer.
    pub(crate) fn sums_from_clause_words_into(&self, clauses: &[u64], out: &mut Vec<i32>) {
        let cpc = self.clauses_per_class;
        out.clear();
        out.extend((0..self.classes).map(|class| {
            (0..cpc)
                .map(|j| {
                    let c = class * cpc + j;
                    let fired = (clauses[c / 64] >> (c % 64)) & 1 == 1;
                    match (fired, j % 2 == 0) {
                        (true, true) => 1,
                        (true, false) => -1,
                        (false, _) => 0,
                    }
                })
                .sum::<i32>()
        }));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use matador_logic::cube::Lit;

    fn tiny() -> CompiledAccelerator {
        let shape = AccelShape {
            bus_width: 4,
            features: 8,
            classes: 2,
            clauses_per_class: 2,
        };
        // 4 clauses over 2 windows of 4 bits.
        // class0 c0 (+): x0 ; class0 c1 (−): x5
        // class1 c0 (+): ¬x1 & x6 ; class1 c1 (−): empty
        let w0 = vec![
            Cube::from_lits([Lit::pos(0)]),
            Cube::one(),
            Cube::from_lits([Lit::neg(1)]),
            Cube::one(),
        ];
        let w1 = vec![
            Cube::one(),
            Cube::from_lits([Lit::pos(1)]), // x5 → window bit 1
            Cube::from_lits([Lit::pos(2)]), // x6 → window bit 2
            Cube::one(),
        ];
        CompiledAccelerator::from_window_cubes(shape, &[w0, w1], Sharing::Enabled)
    }

    #[test]
    fn shape_derivations() {
        let a = tiny();
        assert_eq!(a.shape().num_packets(), 2);
        assert_eq!(a.shape().total_clauses(), 4);
        assert_eq!(a.windows().len(), 2);
    }

    #[test]
    fn window_eval_matches_cubes() {
        let a = tiny();
        // packet with bit0 set → clause0 fires, clause2 (¬x1) fires too.
        let pc = a.eval_window(0, 0b0001);
        assert!(pc.get(0));
        assert!(pc.get(1)); // empty cube
        assert!(pc.get(2));
        // bit1 set kills clause 2.
        let pc = a.eval_window(0, 0b0010);
        assert!(!pc.get(0));
        assert!(!pc.get(2));
    }

    #[test]
    fn reference_sums_respect_polarity() {
        let a = tiny();
        // x0=1, x5=0, x6=1, x1=0 → c0 fires (+1 class0), c1 silent,
        // c2 fires (+1 class1), c3 empty fires (−1 class1).
        let x = BitVec::from_indices(8, &[0, 6]);
        assert_eq!(a.reference_class_sums(&x), vec![1, 0]);
    }

    #[test]
    #[should_panic(expected = "window count mismatch")]
    fn wrong_window_count_rejected() {
        let shape = AccelShape {
            bus_width: 4,
            features: 8,
            classes: 2,
            clauses_per_class: 2,
        };
        CompiledAccelerator::from_window_cubes(shape, &[vec![Cube::one(); 4]], Sharing::Enabled);
    }
}
