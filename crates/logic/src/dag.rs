//! A structurally-hashed AND/INV DAG — the combinational network a trained
//! TM window lowers to, and the input to LUT technology mapping.
//!
//! The node set is deliberately tiny (constants, inputs, input inverters
//! and two-input ANDs) because that is all a TM model needs (Section II of
//! the paper: "a miniscule number of AND and NOT gates"). Structural
//! hashing makes identical sub-expressions — shared partial clauses within
//! and across classes — collapse into a single node; building with sharing
//! disabled models the paper's `DON'T TOUCH` experiment (Fig 8).

use crate::cube::Cube;
use crate::extract::{Extraction, Item};
use crate::hash::WordMap;
use tsetlin::bits::BitVec;

/// Reference to a node inside a [`LogicDag`].
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, serde::Serialize, serde::Deserialize,
)]
pub struct NodeRef(u32);

impl NodeRef {
    /// Index into [`LogicDag::nodes`].
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds a reference from a node index. Consumers that walk
    /// [`LogicDag::nodes`] positionally (e.g. technology mappers) need this
    /// to refer back to nodes; passing an index that does not belong to the
    /// DAG being processed yields panics on use, not undefined behaviour.
    pub fn from_index(i: usize) -> NodeRef {
        NodeRef(u32::try_from(i).expect("node index fits u32"))
    }
}

/// A DAG node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum Node {
    /// Constant logic 0 (a contradictory clause).
    Const0,
    /// Constant logic 1 (an empty clause / the HCB 0 seed).
    Const1,
    /// Input bit `i` of the window.
    Input(u32),
    /// Inverted input bit `i` (the literal `¬x_i`).
    NotInput(u32),
    /// Two-input AND.
    And(NodeRef, NodeRef),
}

/// Whether structurally identical nodes are merged.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum Sharing {
    /// Merge identical sub-expressions (normal synthesis behaviour).
    Enabled,
    /// Instantiate every expression verbatim — models the `DON'T TOUCH`
    /// pragma the paper uses to measure optimization impact (Fig 8).
    DontTouch,
}

/// An AND/INV network over a fixed-width input window with named outputs.
///
/// # Examples
///
/// ```
/// use matador_logic::cube::{Cube, Lit};
/// use matador_logic::dag::{LogicDag, Sharing};
/// use tsetlin::bits::BitVec;
///
/// let cubes = vec![
///     Cube::from_lits([Lit::pos(0), Lit::neg(1)]),
///     Cube::from_lits([Lit::pos(0), Lit::neg(1)]), // identical → shared
/// ];
/// let dag = LogicDag::from_cubes(4, &cubes, Sharing::Enabled);
/// assert_eq!(dag.and2_count(), 1);
/// let outs = dag.eval(&BitVec::from_indices(4, &[0]));
/// assert_eq!(outs, vec![true, true]);
/// ```
#[derive(Debug, Clone)]
pub struct LogicDag {
    width: usize,
    nodes: Vec<Node>,
    outputs: Vec<NodeRef>,
    and_hash: WordMap<(NodeRef, NodeRef), NodeRef>,
    input_cache: Vec<Option<NodeRef>>,
    not_cache: Vec<Option<NodeRef>>,
    sharing: Sharing,
}

impl LogicDag {
    /// Creates an empty DAG over a `width`-bit input window.
    pub fn new(width: usize, sharing: Sharing) -> Self {
        LogicDag {
            width,
            nodes: vec![Node::Const0, Node::Const1],
            outputs: Vec::new(),
            and_hash: WordMap::default(),
            input_cache: vec![None; width],
            not_cache: vec![None; width],
            sharing,
        }
    }

    /// Builds a DAG with one output per cube (balanced AND trees).
    ///
    /// # Panics
    ///
    /// Panics if any cube reads a bit ≥ `width`.
    pub fn from_cubes(width: usize, cubes: &[Cube], sharing: Sharing) -> Self {
        let mut dag = LogicDag::new(width, sharing);
        for cube in cubes {
            let node = dag.add_cube(cube);
            dag.outputs.push(node);
        }
        dag
    }

    /// Builds a DAG from a factored [`Extraction`], one output per cube.
    /// Divisor nodes are instantiated once and referenced by every user.
    ///
    /// # Panics
    ///
    /// Panics if any literal reads a bit ≥ `width`.
    pub fn from_extraction(width: usize, extraction: &Extraction, sharing: Sharing) -> Self {
        let mut dag = LogicDag::new(width, sharing);
        let mut div_nodes: Vec<NodeRef> = Vec::with_capacity(extraction.divisors.len());
        for &(a, b) in &extraction.divisors {
            let na = dag.item_node(a, &div_nodes);
            let nb = dag.item_node(b, &div_nodes);
            div_nodes.push(dag.and(na, nb));
        }
        let mut parts: Vec<NodeRef> = Vec::new();
        for cube in &extraction.cubes {
            parts.clear();
            for &it in cube {
                parts.push(dag.item_node(it, &div_nodes));
            }
            let node = dag.reduce_and_tree(&mut parts);
            dag.outputs.push(node);
        }
        dag
    }

    fn item_node(&mut self, item: Item, div_nodes: &[NodeRef]) -> NodeRef {
        match item {
            Item::Lit(l) => self.literal(l.bit(), l.is_negated()),
            Item::Div(d) => div_nodes[d as usize],
        }
    }

    /// Reassembles a DAG from raw `nodes`/`outputs` arrays — the
    /// partitioner's path for a window restricted to a subset of its
    /// outputs. Builder caches (literal pins and, in
    /// [`Sharing::Enabled`] mode, the structural hash) are reconstructed,
    /// so the rebuilt DAG both evaluates and *extends* exactly like the
    /// original. Returns `None` when the arrays are not a well-formed
    /// topologically-ordered AND/INV network over `width` inputs.
    pub fn from_parts(
        width: usize,
        nodes: Vec<Node>,
        outputs: Vec<NodeRef>,
        sharing: Sharing,
    ) -> Option<Self> {
        if nodes.len() < 2 || nodes[0] != Node::Const0 || nodes[1] != Node::Const1 {
            return None;
        }
        let mut input_cache = vec![None; width];
        let mut not_cache = vec![None; width];
        let mut and_hash = WordMap::default();
        for (i, node) in nodes.iter().enumerate() {
            match *node {
                Node::Const0 | Node::Const1 => {
                    if i > 1 {
                        return None;
                    }
                }
                Node::Input(b) => {
                    let slot = input_cache.get_mut(b as usize)?;
                    slot.get_or_insert(NodeRef::from_index(i));
                }
                Node::NotInput(b) => {
                    let slot = not_cache.get_mut(b as usize)?;
                    slot.get_or_insert(NodeRef::from_index(i));
                }
                Node::And(a, b) => {
                    if a.index() >= i || b.index() >= i {
                        return None;
                    }
                    if sharing == Sharing::Enabled {
                        and_hash.insert((a, b), NodeRef::from_index(i));
                    }
                }
            }
        }
        if outputs.iter().any(|o| o.index() >= nodes.len()) {
            return None;
        }
        Some(LogicDag {
            width,
            nodes,
            outputs,
            and_hash,
            input_cache,
            not_cache,
            sharing,
        })
    }

    /// Window width in bits.
    pub fn width(&self) -> usize {
        self.width
    }

    /// The sharing mode the DAG was built with.
    pub fn sharing(&self) -> Sharing {
        self.sharing
    }

    /// All nodes, in topological order (operands precede users).
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Output node references, in insertion order.
    pub fn outputs(&self) -> &[NodeRef] {
        &self.outputs
    }

    /// The constant-0 node.
    pub fn const0(&self) -> NodeRef {
        NodeRef(0)
    }

    /// The constant-1 node.
    pub fn const1(&self) -> NodeRef {
        NodeRef(1)
    }

    /// Returns (creating on demand) the literal node for input `bit` in the
    /// requested phase.
    ///
    /// # Panics
    ///
    /// Panics if `bit >= width`.
    pub fn literal(&mut self, bit: u32, negated: bool) -> NodeRef {
        assert!((bit as usize) < self.width, "input bit out of range");
        let cache = if negated {
            &mut self.not_cache
        } else {
            &mut self.input_cache
        };
        // Input/inverter nodes are physical pins — shared even in
        // DON'T TOUCH mode (the pragma protects logic, not pins).
        if let Some(n) = cache[bit as usize] {
            return n;
        }
        let node = if negated {
            Node::NotInput(bit)
        } else {
            Node::Input(bit)
        };
        let r = self.push(node);
        let cache = if negated {
            &mut self.not_cache
        } else {
            &mut self.input_cache
        };
        cache[bit as usize] = Some(r);
        r
    }

    /// AND of two nodes with constant folding and (in [`Sharing::Enabled`]
    /// mode) structural hashing.
    pub fn and(&mut self, a: NodeRef, b: NodeRef) -> NodeRef {
        let (a, b) = if a <= b { (a, b) } else { (b, a) };
        // Constant folding and trivial cases hold in both sharing modes.
        if a == self.const0() {
            return self.const0();
        }
        if a == self.const1() {
            return b;
        }
        if a == b {
            return a;
        }
        // x & ¬x = 0 for direct literal pairs.
        if let (Node::Input(i), Node::NotInput(j)) = (self.nodes[a.index()], self.nodes[b.index()])
        {
            if i == j {
                return self.const0();
            }
        }
        if self.sharing == Sharing::Enabled {
            if let Some(&n) = self.and_hash.get(&(a, b)) {
                return n;
            }
        }
        let r = self.push(Node::And(a, b));
        if self.sharing == Sharing::Enabled {
            self.and_hash.insert((a, b), r);
        }
        r
    }

    /// Balanced AND reduction of `parts` (empty → constant 1).
    pub fn and_tree(&mut self, parts: &[NodeRef]) -> NodeRef {
        self.reduce_and_tree(&mut parts.to_vec())
    }

    /// [`LogicDag::and_tree`] in place: each level's pairs are ANDed left
    /// to right into the front of `level`, an odd last node carried up.
    fn reduce_and_tree(&mut self, level: &mut Vec<NodeRef>) -> NodeRef {
        if level.is_empty() {
            return self.const1();
        }
        while level.len() > 1 {
            let n = level.len();
            for i in 0..n / 2 {
                level[i] = self.and(level[2 * i], level[2 * i + 1]);
            }
            if n % 2 == 1 {
                level[n / 2] = level[n - 1];
            }
            level.truncate(n.div_ceil(2));
        }
        level[0]
    }

    /// Adds one cube as a balanced AND tree and returns its root.
    /// Contradictory cubes map straight to constant 0.
    ///
    /// # Panics
    ///
    /// Panics if the cube reads a bit ≥ `width`.
    pub fn add_cube(&mut self, cube: &Cube) -> NodeRef {
        if cube.is_contradictory() {
            return self.const0();
        }
        let mut parts: Vec<NodeRef> = cube
            .lits()
            .iter()
            .map(|l| self.literal(l.bit(), l.is_negated()))
            .collect();
        self.reduce_and_tree(&mut parts)
    }

    /// Registers `node` as the next output.
    pub fn add_output(&mut self, node: NodeRef) {
        self.outputs.push(node);
    }

    /// Evaluates every output on a `width`-bit input.
    ///
    /// # Panics
    ///
    /// Panics if `input.len() != width`.
    pub fn eval(&self, input: &BitVec) -> Vec<bool> {
        let mut values = Vec::new();
        let mut out = BitVec::zeros(self.outputs.len());
        self.eval_into(input, &mut values, &mut out);
        out.iter().collect()
    }

    /// Evaluates every output into `out` (bit `i` = output `i`), reusing
    /// `values` as per-node scratch — the allocation-free core of
    /// [`LogicDag::eval`]: once the scratch has grown to the node count,
    /// repeated calls perform no heap allocation.
    ///
    /// # Panics
    ///
    /// Panics if `input.len() != width` or `out.len() != outputs().len()`.
    pub fn eval_into(&self, input: &BitVec, values: &mut Vec<bool>, out: &mut BitVec) {
        assert_eq!(input.len(), self.width, "input width mismatch");
        assert_eq!(out.len(), self.outputs.len(), "output width mismatch");
        values.clear();
        values.resize(self.nodes.len(), false);
        for (i, node) in self.nodes.iter().enumerate() {
            values[i] = match *node {
                Node::Const0 => false,
                Node::Const1 => true,
                Node::Input(b) => input.get(b as usize),
                Node::NotInput(b) => !input.get(b as usize),
                Node::And(a, b) => values[a.index()] && values[b.index()],
            };
        }
        for (i, o) in self.outputs.iter().enumerate() {
            out.set(i, values[o.index()]);
        }
    }

    /// Nodes reachable from any output (the logic that actually gets
    /// synthesized).
    pub fn reachable(&self) -> Vec<bool> {
        let mut mark = vec![false; self.nodes.len()];
        let mut stack: Vec<NodeRef> = self.outputs.clone();
        while let Some(n) = stack.pop() {
            if mark[n.index()] {
                continue;
            }
            mark[n.index()] = true;
            if let Node::And(a, b) = self.nodes[n.index()] {
                stack.push(a);
                stack.push(b);
            }
        }
        mark
    }

    /// Reachable two-input AND gates.
    pub fn and2_count(&self) -> usize {
        let mark = self.reachable();
        self.nodes
            .iter()
            .zip(&mark)
            .filter(|(n, &m)| m && matches!(n, Node::And(_, _)))
            .count()
    }

    /// Reachable input inverters (distinct negated literals).
    pub fn inverter_count(&self) -> usize {
        let mark = self.reachable();
        self.nodes
            .iter()
            .zip(&mark)
            .filter(|(n, &m)| m && matches!(n, Node::NotInput(_)))
            .count()
    }

    /// Per-node logic level: inputs/constants at 0, `And` at
    /// `1 + max(level(a), level(b))`.
    pub fn levels(&self) -> Vec<u32> {
        let mut levels = vec![0u32; self.nodes.len()];
        for (i, node) in self.nodes.iter().enumerate() {
            if let Node::And(a, b) = *node {
                levels[i] = 1 + levels[a.index()].max(levels[b.index()]);
            }
        }
        levels
    }

    /// Maximum logic level over the outputs.
    pub fn depth(&self) -> u32 {
        let levels = self.levels();
        self.outputs
            .iter()
            .map(|o| levels[o.index()])
            .max()
            .unwrap_or(0)
    }

    fn push(&mut self, node: Node) -> NodeRef {
        let r = NodeRef(self.nodes.len() as u32);
        self.nodes.push(node);
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cube::Lit;

    fn c(lits: &[(u32, bool)]) -> Cube {
        Cube::from_lits(
            lits.iter()
                .map(|&(b, n)| if n { Lit::neg(b) } else { Lit::pos(b) }),
        )
    }

    #[test]
    fn sharing_merges_identical_cubes() {
        let cubes = vec![c(&[(0, false), (1, true)]); 5];
        let shared = LogicDag::from_cubes(4, &cubes, Sharing::Enabled);
        let dt = LogicDag::from_cubes(4, &cubes, Sharing::DontTouch);
        assert_eq!(shared.and2_count(), 1);
        assert_eq!(dt.and2_count(), 5);
    }

    #[test]
    fn dont_touch_still_folds_constants() {
        let mut dag = LogicDag::new(4, Sharing::DontTouch);
        let x0 = dag.literal(0, false);
        let one = dag.const1();
        assert_eq!(dag.and(x0, one), x0);
        let zero = dag.const0();
        assert_eq!(dag.and(x0, zero), zero);
    }

    #[test]
    fn contradictory_cube_is_const0() {
        let cube = Cube::from_lits([Lit::pos(2), Lit::neg(2)]);
        let mut dag = LogicDag::new(4, Sharing::Enabled);
        let n = dag.add_cube(&cube);
        assert_eq!(n, dag.const0());
    }

    #[test]
    fn literal_pair_contradiction_detected_in_and() {
        let mut dag = LogicDag::new(4, Sharing::Enabled);
        let a = dag.literal(1, false);
        let b = dag.literal(1, true);
        assert_eq!(dag.and(a, b), dag.const0());
    }

    #[test]
    fn eval_matches_cube_semantics_exhaustively() {
        let cubes = vec![
            c(&[(0, false), (1, true), (2, false)]),
            c(&[(3, true)]),
            c(&[]),
            c(&[(0, false), (0, true)]), // handled via and(), still correct
        ];
        for sharing in [Sharing::Enabled, Sharing::DontTouch] {
            let dag = LogicDag::from_cubes(4, &cubes, sharing);
            for v in 0..16u32 {
                let input = BitVec::from_bools((0..4).map(|b| (v >> b) & 1 == 1));
                let outs = dag.eval(&input);
                for (i, cube) in cubes.iter().enumerate() {
                    let expect = !cube.is_contradictory() && cube.eval(&input);
                    assert_eq!(outs[i], expect, "cube {i} input {v:04b} ({sharing:?})");
                }
            }
        }
    }

    #[test]
    fn extraction_dag_matches_direct_dag() {
        use crate::extract::{extract_divisors, ExtractOptions};
        let cubes = vec![
            c(&[(0, false), (1, false), (2, false)]),
            c(&[(0, false), (1, false), (3, true)]),
            c(&[(0, false), (1, false)]),
            c(&[(4, true), (5, false)]),
        ];
        let ex = extract_divisors(&cubes, ExtractOptions::default());
        let dag_ex = LogicDag::from_extraction(8, &ex, Sharing::Enabled);
        let dag_direct = LogicDag::from_cubes(8, &cubes, Sharing::Enabled);
        for v in 0..256u32 {
            let input = BitVec::from_bools((0..8).map(|b| (v >> b) & 1 == 1));
            assert_eq!(dag_ex.eval(&input), dag_direct.eval(&input));
        }
        assert!(dag_ex.and2_count() <= dag_direct.and2_count());
    }

    #[test]
    fn depth_of_balanced_tree_is_logarithmic() {
        let lits: Vec<(u32, bool)> = (0..16).map(|b| (b, false)).collect();
        let dag = LogicDag::from_cubes(16, &[c(&lits)], Sharing::Enabled);
        assert_eq!(dag.depth(), 4); // 16 literals → log2 = 4 levels
    }

    #[test]
    fn inverter_count_counts_distinct_negations() {
        let cubes = vec![c(&[(0, true), (1, true)]), c(&[(0, true), (2, false)])];
        let dag = LogicDag::from_cubes(4, &cubes, Sharing::Enabled);
        assert_eq!(dag.inverter_count(), 2); // ¬x0 shared, ¬x1
    }

    #[test]
    fn unreachable_nodes_not_counted() {
        let mut dag = LogicDag::new(4, Sharing::Enabled);
        let a = dag.literal(0, false);
        let b = dag.literal(1, false);
        let _dead = dag.and(a, b);
        let out = dag.literal(2, false);
        dag.add_output(out);
        assert_eq!(dag.and2_count(), 0);
    }

    #[test]
    fn empty_dag_depth_zero() {
        let dag = LogicDag::new(4, Sharing::Enabled);
        assert_eq!(dag.depth(), 0);
        assert_eq!(dag.and2_count(), 0);
    }

    #[test]
    fn eval_into_matches_eval_and_reuses_scratch() {
        let cubes = vec![
            c(&[(0, false), (1, true), (2, false)]),
            c(&[(3, true)]),
            c(&[]),
        ];
        let dag = LogicDag::from_cubes(4, &cubes, Sharing::Enabled);
        let mut values = Vec::new();
        let mut out = BitVec::zeros(dag.outputs().len());
        for v in 0..16u32 {
            let input = BitVec::from_bools((0..4).map(|b| (v >> b) & 1 == 1));
            dag.eval_into(&input, &mut values, &mut out);
            assert_eq!(out.iter().collect::<Vec<_>>(), dag.eval(&input), "{v:04b}");
        }
    }

    #[test]
    fn from_parts_round_trips_and_extends() {
        let cubes = vec![
            c(&[(0, false), (1, true), (2, false)]),
            c(&[(0, false), (1, true)]),
            c(&[(3, true)]),
        ];
        for sharing in [Sharing::Enabled, Sharing::DontTouch] {
            let dag = LogicDag::from_cubes(4, &cubes, sharing);
            let rebuilt =
                LogicDag::from_parts(4, dag.nodes().to_vec(), dag.outputs().to_vec(), sharing)
                    .expect("well-formed parts");
            assert_eq!(rebuilt.nodes(), dag.nodes());
            assert_eq!(rebuilt.outputs(), dag.outputs());
            for v in 0..16u32 {
                let input = BitVec::from_bools((0..4).map(|b| (v >> b) & 1 == 1));
                assert_eq!(rebuilt.eval(&input), dag.eval(&input));
            }
            // Building *further* on a rebuilt DAG behaves per `sharing`:
            // the reconstructed structural hash dedups in Enabled mode.
            let mut extended = rebuilt.clone();
            let a = extended.literal(0, false);
            let b = extended.literal(1, true);
            let node_count = extended.nodes().len();
            let and = extended.and(a, b);
            match sharing {
                Sharing::Enabled => {
                    assert_eq!(extended.nodes().len(), node_count, "AND was re-shared");
                    assert!(and.index() < node_count);
                }
                Sharing::DontTouch => assert_eq!(extended.nodes().len(), node_count + 1),
            }
        }
    }

    #[test]
    fn from_parts_rejects_malformed_tapes() {
        let ok = |nodes: Vec<Node>, outputs: Vec<NodeRef>| {
            LogicDag::from_parts(4, nodes, outputs, Sharing::Enabled)
        };
        // Missing constant prelude.
        assert!(ok(vec![Node::Const0], vec![]).is_none());
        assert!(ok(vec![Node::Const1, Node::Const0], vec![]).is_none());
        // Forward (non-topological) AND operand.
        assert!(ok(
            vec![
                Node::Const0,
                Node::Const1,
                Node::And(NodeRef::from_index(2), NodeRef::from_index(1)),
            ],
            vec![]
        )
        .is_none());
        // Input pin out of window range.
        assert!(ok(vec![Node::Const0, Node::Const1, Node::Input(4)], vec![]).is_none());
        // Output referencing a node past the tape.
        assert!(ok(
            vec![Node::Const0, Node::Const1],
            vec![NodeRef::from_index(2)]
        )
        .is_none());
        // Stray constant past the prelude.
        assert!(ok(vec![Node::Const0, Node::Const1, Node::Const0], vec![]).is_none());
    }
}
