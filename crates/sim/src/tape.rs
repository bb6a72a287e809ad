//! The folded AND tape both simulation backends run.
//!
//! A window's IR tape ([`WindowProgram`]) still carries `Input`,
//! `NotInput` and constant instructions. [`FoldedWindow::fold`] turns
//! them into references into a fixed input prefix — the window's bits,
//! their complements, constant 1 and constant 0 — so that what is left
//! is a branch-free list of `(a, b)` AND pairs, one per AND2 gate of the
//! hardware. A [`TurboProgram`](crate::TurboProgram) folds every window
//! onto its own area of one all-window slot space, once per design. The
//! turbo evaluator runs the pairs over 64-datapoint lane words; the cycle
//! engine runs one window's pairs on a single lane per accepted beat
//! ([`FoldedWindow::eval_lane`]), over the same slots.

use crate::compile::ir::{Op, WindowProgram};

/// Slots in the input prefix of a `bits`-wide bus: the window's bits,
/// their complements, constant 1 and constant 0.
pub(crate) fn prefix_slots(bits: usize) -> usize {
    2 * bits + 2
}

/// One window lowered onto its area of a slot space: a branch-free AND
/// tape over global slots, plus the single-lane view of its outputs.
#[derive(Debug, Clone)]
pub(crate) struct FoldedWindow {
    /// The window's first slot: its input prefix starts here, and pair
    /// `i` writes slot `base + prefix_slots + i`.
    pub(crate) base: usize,
    /// `(a, b)` operand slots, each below the slot its pair writes
    /// (checked by [`FoldedWindow::fold`]; private so that it stays so).
    ands: Vec<(u32, u32)>,
    /// The partial-clause words before any gather: bit `c % 64` of word
    /// `c / 64` is set where clause `c`'s output is constant 1 (the
    /// clause has no literal in this window).
    pub(crate) ones: Vec<u64>,
    /// `(slot, clause)` for every output that is not a constant, in
    /// clause order.
    pub(crate) gather: Vec<(u32, u32)>,
}

impl FoldedWindow {
    /// Folds an IR tape onto the area at `base` for a `bits`-wide bus:
    /// `Input`, `NotInput` and constant ops become references into the
    /// area's input prefix and never execute; each `And` becomes one
    /// pair writing the next slot after the prefix. Also returns the
    /// slot of every clause output, in clause order.
    pub(crate) fn fold(tape: &WindowProgram, bits: usize, base: usize) -> (Self, Vec<u32>) {
        let slot_u32 = |s: usize| u32::try_from(base + s).expect("slot space fits u32");
        let mut slot = Vec::with_capacity(tape.ops.len());
        let mut ands = Vec::new();
        for op in &tape.ops {
            slot.push(match *op {
                Op::Input(b) => slot_u32(usize::from(b)),
                Op::NotInput(b) => slot_u32(bits + usize::from(b)),
                Op::Const1 => slot_u32(2 * bits),
                Op::Const0 => slot_u32(2 * bits + 1),
                Op::And(a, b) => {
                    ands.push((slot[a as usize], slot[b as usize]));
                    slot_u32(prefix_slots(bits) + ands.len() - 1)
                }
            });
        }
        // Every operand lies below the slot its pair writes, so a tape
        // that runs inside a slot space holding its area reads only
        // slots of that space: the one-word-strip kernel skips the
        // per-operand bounds check on the strength of this one.
        assert!(
            (base + prefix_slots(bits)..)
                .zip(&ands)
                .all(|(y, &(a, b))| (a.max(b) as usize) < y),
            "an AND operand does not precede the slot it writes"
        );
        let outputs: Vec<u32> = tape.outputs.iter().map(|&s| slot[s as usize]).collect();
        let (one, zero) = (slot_u32(2 * bits), slot_u32(2 * bits + 1));
        let mut ones = vec![0u64; outputs.len().div_ceil(64)];
        let mut gather = Vec::new();
        for (clause, &slot) in outputs.iter().enumerate() {
            if slot == one {
                ones[clause / 64] |= 1 << (clause % 64);
            } else if slot != zero {
                let clause = u32::try_from(clause).expect("clause count fits u32");
                gather.push((slot, clause));
            }
        }
        let window = FoldedWindow {
            base,
            ands,
            ones,
            gather,
        };
        (window, outputs)
    }

    /// The AND tape: pair `i` writes slot `base + prefix_slots + i` from
    /// operand slots below it.
    pub(crate) fn ands(&self) -> &[(u32, u32)] {
        &self.ands
    }

    /// Slots of the window's area: its input prefix and its ANDs.
    pub(crate) fn area(&self, bits: usize) -> usize {
        prefix_slots(bits) + self.ands.len()
    }

    /// Evaluates the window on one `bits`-wide `packet` (bit `b` is
    /// window input `b`; bits at or above `bits` are ignored) over its
    /// area of `values`, one `0`/`1` per slot, and writes the
    /// partial-clause words into `out`: the constant-1 mask plus one
    /// shifted OR per non-constant output (constant-0 outputs stay
    /// clear).
    ///
    /// # Panics
    ///
    /// Panics if `values` ends before the window's area or
    /// `out.len()` differs from the window's clause words.
    pub(crate) fn eval_lane(&self, bits: usize, packet: u64, values: &mut [u64], out: &mut [u64]) {
        let area = &mut values[self.base..self.base + self.area(bits)];
        for b in 0..bits {
            let v = (packet >> b) & 1;
            area[b] = v;
            area[bits + b] = v ^ 1;
        }
        area[2 * bits] = 1;
        area[2 * bits + 1] = 0;
        for (y, &(a, b)) in (self.base + prefix_slots(bits)..).zip(&self.ands) {
            values[y] = values[a as usize] & values[b as usize];
        }
        out.copy_from_slice(&self.ones);
        for &(slot, clause) in &self.gather {
            out[(clause / 64) as usize] |= values[slot as usize] << (clause % 64);
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::accel::{AccelShape, CompiledAccelerator};
    use crate::compile::{CompileOptions, CompilePipeline};
    use crate::turbo::TurboProgram;
    use matador_logic::cube::{Cube, Lit};
    use matador_logic::dag::Sharing;
    use proptest::prelude::*;
    use tsetlin::bits::BitVec;

    /// The cycle engine's lowering of `accel`: lower → fold, no CSE.
    fn lower(accel: &CompiledAccelerator) -> TurboProgram {
        CompilePipeline::new(CompileOptions::none())
            .compile(accel)
            .program
    }

    /// A random cube over `bits` inputs: 0–4 literals drawn from a
    /// seed, so a set of them holds empty (constant 1) cubes, bare
    /// literals, contradictions (`x & ¬x`, constant 0) and longer
    /// conjunctions with shared sub-products.
    fn cube(bits: usize, seed: u64) -> Cube {
        let lits = (seed % 5) as usize;
        Cube::from_lits((0..lits).map(|i| {
            let draw = seed >> (3 + 8 * i);
            let bit = (draw >> 1) as usize % bits;
            if draw & 1 == 1 {
                Lit::neg(bit as u32)
            } else {
                Lit::pos(bit as u32)
            }
        }))
    }

    /// The packets a window is checked on: every packet of a narrow bus,
    /// otherwise all-zeros, all-ones and `random` draws.
    fn packets(bits: usize, random: &[u64]) -> Vec<u64> {
        let mask = u64::MAX >> (64 - bits);
        if bits <= 8 {
            (0..=mask).collect()
        } else {
            [0, mask]
                .into_iter()
                .chain(random.iter().map(|r| r & mask))
                .collect()
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The program's single-lane window eval computes exactly what
        /// the DAG interpreter computes, on every packet checked.
        #[test]
        fn lane_eval_matches_the_dag_interpreter(
            width in 0usize..4,
            seeds in proptest::collection::vec(any::<u64>(), 1..90),
            share in any::<bool>(),
            random in proptest::collection::vec(any::<u64>(), 32),
        ) {
            let bits = [1, 3, 63, 64][width];
            let sharing = if share { Sharing::Enabled } else { Sharing::DontTouch };
            let mut cubes: Vec<Cube> = seeds.iter().map(|&s| cube(bits, s)).collect();
            // Every case holds each kind of output at least once.
            cubes.push(Cube::one());
            cubes.push(Cube::from_lits([Lit::pos(0)]));
            cubes.push(Cube::from_lits([Lit::neg(0)]));
            cubes.push(Cube::from_lits([Lit::pos(0), Lit::neg(0)]));
            if cubes.len() % 2 == 1 {
                cubes.push(cube(bits, seeds[0].rotate_left(17)));
            }
            let shape = AccelShape {
                bus_width: bits,
                features: 2 * bits,
                classes: 2,
                clauses_per_class: cubes.len() / 2,
            };
            let mut second = cubes.clone();
            second.rotate_left(1);
            let accel = CompiledAccelerator::from_window_cubes(shape, &[cubes, second], sharing);
            let program = lower(&accel);
            let mut values = program.lane_scratch();
            let mut lanes = vec![0u64; shape.total_clauses().div_ceil(64)];
            let mut dag_values = Vec::new();
            let mut expect = BitVec::zeros(shape.total_clauses());
            for (k, dag) in accel.windows().iter().enumerate() {
                for packet in packets(bits, &random) {
                    let input = BitVec::from_word(bits, packet);
                    dag.eval_into(&input, &mut dag_values, &mut expect);
                    program.eval_lane(k, packet, &mut values, &mut lanes);
                    prop_assert_eq!(lanes.as_slice(), expect.words(), "window {} packet {:#x}", k, packet);
                }
            }
        }
    }

    #[test]
    fn constant_outputs_are_masked_not_gathered() {
        let shape = AccelShape {
            bus_width: 2,
            features: 2,
            classes: 1,
            clauses_per_class: 4,
        };
        let cubes = vec![
            Cube::one(),
            Cube::from_lits([Lit::pos(1), Lit::neg(1)]),
            Cube::from_lits([Lit::pos(0)]),
            Cube::from_lits([Lit::pos(0), Lit::neg(1)]),
        ];
        let accel = CompiledAccelerator::from_window_cubes(shape, &[cubes], Sharing::Enabled);
        let program = lower(&accel);
        let window = &program.windows()[0];
        assert_eq!(window.ones, vec![0b0001]);
        // The bare literal reads the prefix; the conjunction is one AND.
        assert_eq!(window.gather, vec![(0, 2), (6, 3)]);
        assert_eq!(window.ands(), [(3, 0)]);
        let mut values = program.lane_scratch();
        let mut out = vec![0; 1];
        program.eval_lane(0, 0b01, &mut values, &mut out);
        assert_eq!(out, vec![0b1101]);
        program.eval_lane(0, 0b11, &mut values, &mut out);
        assert_eq!(out, vec![0b0101]);
    }

    /// A DAG assembled by `LogicDag::from_parts` may AND a constant: the
    /// constant prefix slots are filled on every packet.
    #[test]
    fn constant_and_operands_read_the_prefix() {
        use matador_logic::dag::{LogicDag, Node, NodeRef};
        let n = NodeRef::from_index;
        let nodes = vec![
            Node::Const0,
            Node::Const1,
            Node::Input(0),
            Node::NotInput(1),
            Node::And(n(1), n(2)),
            Node::And(n(0), n(3)),
            Node::And(n(4), n(3)),
        ];
        let outputs = vec![n(4), n(5), n(6), n(1)];
        let dag = LogicDag::from_parts(2, nodes, outputs, Sharing::DontTouch).expect("well formed");
        let shape = AccelShape {
            bus_width: 2,
            features: 2,
            classes: 1,
            clauses_per_class: 4,
        };
        let accel = CompiledAccelerator::from_shape_windows(shape, vec![dag]);
        let program = lower(&accel);
        let mut values = program.lane_scratch();
        let mut out = vec![0; 1];
        for packet in 0..4 {
            program.eval_lane(0, packet, &mut values, &mut out);
            assert_eq!(
                out,
                accel.eval_window(0, packet).words(),
                "packet {packet:02b}"
            );
        }
    }
}
