//! The untyped tape IR every pass of the pipeline transforms: one
//! topologically-ordered instruction list per window.
//!
//! Lowering ([`WindowProgram::lower`]) flattens a [`LogicDag`] into slot
//! indices; later passes ([`crate::compile::CompilePipeline`]) rewrite
//! the tape but never its meaning — every transform preserves the value
//! of every output slot bit-for-bit, which is what keeps the turbo
//! backend's winners, class sums and cycle stamps identical across pass
//! combinations. The IR is never executed as is: at the pipeline exit,
//! `FoldedWindow::fold` (`crate::tape`) folds every
//! `Input`/`NotInput`/constant slot into the operands of a flat AND tape,
//! the [`TurboProgram`](crate::TurboProgram) both backends run.

use matador_logic::dag::{LogicDag, Node};

/// One instruction of a flattened window tape, operating on lane-word
/// strips.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum Op {
    /// All lanes 0.
    Const0,
    /// All lanes 1.
    Const1,
    /// Window input bit `b`, one lane per datapoint.
    Input(u16),
    /// Inverted window input bit `b`.
    NotInput(u16),
    /// Lane-wise AND of two earlier slots.
    And(u32, u32),
}

/// One window DAG flattened into a topologically-ordered tape over the
/// nodes reachable from its outputs (plus the two constant slots, which
/// the CSE pass's dead-code sweep removes when nothing reads them).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct WindowProgram {
    pub(crate) ops: Vec<Op>,
    /// Tape slot per clause output.
    pub(crate) outputs: Vec<u32>,
}

impl WindowProgram {
    /// The parse/lower pass: flattens one window DAG into a tape,
    /// dropping logic unreachable from the outputs. Constants always
    /// occupy slots 0/1 here — the raw monolithic flatten the rest of
    /// the pipeline is equivalence-tested against.
    pub(crate) fn lower(dag: &LogicDag) -> Self {
        let reach = dag.reachable();
        let mut slot = vec![u32::MAX; dag.nodes().len()];
        let mut ops = Vec::new();
        for (i, node) in dag.nodes().iter().enumerate() {
            // Constants always occupy slots 0/1; dead logic is dropped.
            if i >= 2 && !reach[i] {
                continue;
            }
            slot[i] = u32::try_from(ops.len()).expect("tape fits u32");
            ops.push(match *node {
                Node::Const0 => Op::Const0,
                Node::Const1 => Op::Const1,
                Node::Input(b) => Op::Input(b as u16),
                Node::NotInput(b) => Op::NotInput(b as u16),
                Node::And(a, b) => Op::And(slot[a.index()], slot[b.index()]),
            });
        }
        let outputs = dag.outputs().iter().map(|o| slot[o.index()]).collect();
        WindowProgram { ops, outputs }
    }
}
