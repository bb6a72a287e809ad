//! Gate-level netlist for the combinational clause logic.
//!
//! The HCB partial-clause logic is pure AND/NOT structure (Fig 5's
//! "gate-level description of the partial clause"), so it is represented,
//! simulated and emitted at gate level. Sequential elements and arithmetic
//! (class sum, argmax) are generated as behavioral Verilog by [`crate::gen`]
//! and verified architecturally by the cycle-accurate simulator.

use crate::verilog::push_usize;
use matador_logic::dag::{LogicDag, Node};
use std::fmt;
use tsetlin::bits::BitVec;

/// Reference to a single-bit net.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, serde::Serialize, serde::Deserialize,
)]
pub struct NetId(u32);

impl NetId {
    /// Index into the netlist's net table.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A combinational cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum Gate {
    /// `y = a & b`.
    And2 {
        /// First operand net.
        a: NetId,
        /// Second operand net.
        b: NetId,
        /// Output net.
        y: NetId,
    },
    /// `y = ~a`.
    Not {
        /// Operand net.
        a: NetId,
        /// Output net.
        y: NetId,
    },
    /// `y = value`.
    Const {
        /// Driven constant.
        value: bool,
        /// Output net.
        y: NetId,
    },
}

impl Gate {
    /// The net driven by this gate.
    pub fn output(&self) -> NetId {
        match *self {
            Gate::And2 { y, .. } | Gate::Not { y, .. } | Gate::Const { y, .. } => y,
        }
    }
}

/// Error returned when netlist validation fails, carrying the offending
/// gate/net so tooling can point at the structural violation directly.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum NetlistError {
    /// A gate reads a net that no input or earlier gate drives.
    UndrivenOperand {
        /// Index of the offending gate in topological order.
        gate: usize,
        /// Name of the undriven net.
        net: String,
    },
    /// Two drivers target the same net.
    MultipleDrivers {
        /// Name of the multiply-driven net.
        net: String,
    },
    /// An output port has no driver.
    UndrivenOutput {
        /// Name of the undriven output.
        net: String,
    },
}

impl fmt::Display for NetlistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid netlist: ")?;
        match self {
            NetlistError::UndrivenOperand { gate, net } => {
                write!(f, "gate {gate} reads undriven net '{net}'")
            }
            NetlistError::MultipleDrivers { net } => {
                write!(f, "net '{net}' has multiple drivers")
            }
            NetlistError::UndrivenOutput { net } => write!(f, "output '{net}' is undriven"),
        }
    }
}

impl std::error::Error for NetlistError {}

/// A flat combinational netlist with named input and output ports.
///
/// Gates are stored in topological order (a gate's operands are either
/// inputs or outputs of earlier gates), which [`Netlist::validate`]
/// enforces and the evaluator exploits.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Netlist {
    name: String,
    /// Every net's name, back to back: net `i`'s name ends at
    /// `name_ends[i]` and starts where net `i - 1`'s ends.
    names: String,
    /// End offset of each net's name in `names`; one entry per net.
    name_ends: Vec<u32>,
    inputs: Vec<NetId>,
    outputs: Vec<NetId>,
    gates: Vec<Gate>,
}

impl Netlist {
    /// Creates an empty netlist named `name`.
    pub fn new(name: impl Into<String>) -> Self {
        Netlist {
            name: name.into(),
            names: String::new(),
            name_ends: Vec::new(),
            inputs: Vec::new(),
            outputs: Vec::new(),
            gates: Vec::new(),
        }
    }

    /// Module name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Declares a new net; `name` is sanitized to a Verilog identifier.
    pub fn add_net(&mut self, name: impl Into<String>) -> NetId {
        push_sanitized(&mut self.names, &name.into());
        self.end_net()
    }

    /// Declares a new net named `{prefix}{index}`, written straight into
    /// the name arena. The caller guarantees the name is already a legal
    /// identifier.
    fn add_indexed_net(&mut self, prefix: &str, index: usize) -> NetId {
        self.names.push_str(prefix);
        push_usize(&mut self.names, index);
        self.end_net()
    }

    /// Closes the name just written to the arena as the next net.
    fn end_net(&mut self) -> NetId {
        let id = NetId(self.name_ends.len() as u32);
        let end = u32::try_from(self.names.len()).expect("net names fit u32 offsets");
        self.name_ends.push(end);
        id
    }

    /// Number of declared nets.
    pub(crate) fn net_count(&self) -> usize {
        self.name_ends.len()
    }

    /// Declares an input port net.
    pub fn add_input(&mut self, name: impl Into<String>) -> NetId {
        let id = self.add_net(name);
        self.inputs.push(id);
        id
    }

    /// Marks an existing net as an output port.
    pub fn add_output(&mut self, net: NetId) {
        self.outputs.push(net);
    }

    /// Adds `y = a & b`, returning the output net.
    pub fn and2(&mut self, a: NetId, b: NetId, name: impl Into<String>) -> NetId {
        let y = self.add_net(name);
        self.gates.push(Gate::And2 { a, b, y });
        y
    }

    /// Adds `y = ~a`, returning the output net.
    pub fn not(&mut self, a: NetId, name: impl Into<String>) -> NetId {
        let y = self.add_net(name);
        self.gates.push(Gate::Not { a, y });
        y
    }

    /// Adds a constant driver, returning the output net.
    pub fn constant(&mut self, value: bool, name: impl Into<String>) -> NetId {
        let y = self.add_net(name);
        self.gates.push(Gate::Const { value, y });
        y
    }

    /// Input ports in declaration order.
    pub fn inputs(&self) -> &[NetId] {
        &self.inputs
    }

    /// Output ports in declaration order.
    pub fn outputs(&self) -> &[NetId] {
        &self.outputs
    }

    /// All gates in topological order.
    pub fn gates(&self) -> &[Gate] {
        &self.gates
    }

    /// Name of a net.
    ///
    /// # Panics
    ///
    /// Panics if `net` does not belong to this netlist.
    pub fn net_name(&self, net: NetId) -> &str {
        let i = net.index();
        let start = if i == 0 { 0 } else { self.name_ends[i - 1] };
        &self.names[start as usize..self.name_ends[i] as usize]
    }

    /// Number of AND2 gates.
    pub fn and2_count(&self) -> usize {
        self.gates
            .iter()
            .filter(|g| matches!(g, Gate::And2 { .. }))
            .count()
    }

    /// Number of NOT gates.
    pub fn not_count(&self) -> usize {
        self.gates
            .iter()
            .filter(|g| matches!(g, Gate::Not { .. }))
            .count()
    }

    /// Checks structural sanity: every gate operand is an input or driven
    /// by an earlier gate, each net has at most one driver, no dangling
    /// output ports.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError`] describing the first violation found.
    pub fn validate(&self) -> Result<(), NetlistError> {
        let mut driven = vec![false; self.net_count()];
        for &i in &self.inputs {
            driven[i.index()] = true;
        }
        for (gi, gate) in self.gates.iter().enumerate() {
            let operands: Vec<NetId> = match *gate {
                Gate::And2 { a, b, .. } => vec![a, b],
                Gate::Not { a, .. } => vec![a],
                Gate::Const { .. } => vec![],
            };
            for op in operands {
                if !driven[op.index()] {
                    return Err(NetlistError::UndrivenOperand {
                        gate: gi,
                        net: self.net_name(op).to_string(),
                    });
                }
            }
            let y = gate.output();
            if driven[y.index()] {
                return Err(NetlistError::MultipleDrivers {
                    net: self.net_name(y).to_string(),
                });
            }
            driven[y.index()] = true;
        }
        for &o in &self.outputs {
            if !driven[o.index()] {
                return Err(NetlistError::UndrivenOutput {
                    net: self.net_name(o).to_string(),
                });
            }
        }
        Ok(())
    }

    /// Evaluates the netlist on `inputs` (one bit per input port, in
    /// declaration order), returning output values in port order — one
    /// lane of [`Netlist::eval_lanes`].
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len()` differs from the number of input ports.
    pub fn eval(&self, inputs: &BitVec) -> Vec<bool> {
        let lanes: Vec<u64> = inputs.iter().map(u64::from).collect();
        self.eval_lanes(&lanes)
            .into_iter()
            .map(|out| out & 1 == 1)
            .collect()
    }

    /// Evaluates the netlist on 64 input vectors at once: bit `j` of
    /// `inputs[k]` is input port `k`'s value in vector `j`, and bit `j` of
    /// output word `o` is output port `o`'s value in that vector. Each gate
    /// costs one word operation for all 64 vectors.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len()` differs from the number of input ports.
    pub fn eval_lanes(&self, inputs: &[u64]) -> Vec<u64> {
        assert_eq!(inputs.len(), self.inputs.len(), "input port count mismatch");
        let mut values = vec![0u64; self.net_count()];
        for (&net, &lanes) in self.inputs.iter().zip(inputs) {
            values[net.index()] = lanes;
        }
        for gate in &self.gates {
            match *gate {
                Gate::And2 { a, b, y } => values[y.index()] = values[a.index()] & values[b.index()],
                Gate::Not { a, y } => values[y.index()] = !values[a.index()],
                Gate::Const { value, y } => values[y.index()] = if value { !0 } else { 0 },
            }
        }
        self.outputs.iter().map(|o| values[o.index()]).collect()
    }

    /// Lowers a [`LogicDag`] into a netlist. DAG inputs become ports
    /// `in_0..in_{w-1}`; DAG outputs become ports `out_0..`.
    ///
    /// Only reachable nodes are instantiated, so unshared (`DON'T TOUCH`)
    /// DAGs lower to proportionally larger netlists. Net names are
    /// written straight into the name arena, and nodes map to nets
    /// through a table indexed by node, so no net costs an allocation of
    /// its own.
    pub fn from_dag(name: impl Into<String>, dag: &LogicDag) -> Netlist {
        let mut nl = Netlist::new(name);
        let reachable = dag.reachable();
        nl.inputs = (0..dag.width())
            .map(|i| nl.add_indexed_net("in_", i))
            .collect();
        let mut node_net = vec![NetId(u32::MAX); dag.nodes().len()];
        let mut const0: Option<NetId> = None;
        let mut const1: Option<NetId> = None;
        for (i, node) in dag.nodes().iter().enumerate() {
            if !reachable[i] {
                continue;
            }
            node_net[i] = match *node {
                Node::Const0 => *const0.get_or_insert_with(|| nl.const_net(false)),
                Node::Const1 => *const1.get_or_insert_with(|| nl.const_net(true)),
                Node::Input(b) => nl.inputs[b as usize],
                Node::NotInput(b) => {
                    let a = nl.inputs[b as usize];
                    let y = nl.add_indexed_net("n_inv_", b as usize);
                    nl.gates.push(Gate::Not { a, y });
                    y
                }
                Node::And(a, b) => {
                    let (a, b) = (node_net[a.index()], node_net[b.index()]);
                    let y = nl.add_indexed_net("n_and_", i);
                    nl.gates.push(Gate::And2 { a, b, y });
                    y
                }
            };
        }
        let buffer_one = match const1 {
            Some(n) => n,
            None => nl.const_net(true),
        };
        for (k, out) in dag.outputs().iter().enumerate() {
            let net = node_net[out.index()];
            // Outputs are dedicated ports, aliased through an AND-with-1
            // buffer so a net shared by several outputs (or an input pin)
            // keeps single-driver semantics trivially true.
            let port = nl.add_indexed_net("out_", k);
            nl.gates.push(Gate::And2 {
                a: net,
                b: buffer_one,
                y: port,
            });
            nl.outputs.push(port);
        }
        nl
    }

    /// Adds a `const0`/`const1` driver, returning its net.
    fn const_net(&mut self, value: bool) -> NetId {
        let y = self.add_indexed_net("const", usize::from(value));
        self.gates.push(Gate::Const { value, y });
        y
    }
}

/// Rewrites `name` into a legal Verilog identifier (alphanumerics and
/// underscores, non-digit first character).
pub fn sanitize_identifier(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 1);
    push_sanitized(&mut out, name);
    out
}

/// Appends [`sanitize_identifier`]`(name)` to `out`.
fn push_sanitized(out: &mut String, name: &str) {
    if name.chars().next().is_none_or(|c| c.is_ascii_digit()) {
        out.push('_');
    }
    out.extend(name.chars().map(|c| {
        if c.is_ascii_alphanumeric() || c == '_' {
            c
        } else {
            '_'
        }
    }));
}

#[cfg(test)]
mod tests {
    use super::*;
    use matador_logic::cube::{Cube, Lit};
    use matador_logic::dag::Sharing;

    #[test]
    fn build_and_eval_small_netlist() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let nb = nl.not(b, "nb");
        let y = nl.and2(a, nb, "y");
        nl.add_output(y);
        nl.validate().expect("valid");
        assert_eq!(nl.eval(&BitVec::from_indices(2, &[0])), vec![true]);
        assert_eq!(nl.eval(&BitVec::from_indices(2, &[0, 1])), vec![false]);
        assert_eq!(nl.and2_count(), 1);
        assert_eq!(nl.not_count(), 1);
    }

    #[test]
    fn validate_rejects_undriven_operand() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let ghost = nl.add_net("ghost");
        let y = nl.and2(a, ghost, "y");
        nl.add_output(y);
        let err = nl.validate().unwrap_err();
        assert!(err.to_string().contains("undriven"));
        assert!(matches!(
            err,
            NetlistError::UndrivenOperand { gate: 0, ref net } if net == "ghost"
        ));
    }

    #[test]
    fn validate_rejects_double_driver() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let y = nl.not(a, "y");
        nl.gates.push(Gate::Not { a, y });
        let err = nl.validate().unwrap_err();
        assert!(err.to_string().contains("multiple drivers"));
        assert!(matches!(err, NetlistError::MultipleDrivers { ref net } if net == "y"));
    }

    #[test]
    fn from_dag_matches_dag_semantics() {
        let cubes = vec![
            Cube::from_lits([Lit::pos(0), Lit::neg(1)]),
            Cube::from_lits([Lit::pos(2)]),
            Cube::one(),
            Cube::from_lits([Lit::pos(3), Lit::neg(3)]), // const 0
        ];
        for sharing in [Sharing::Enabled, Sharing::DontTouch] {
            let dag = LogicDag::from_cubes(4, &cubes, sharing);
            let nl = Netlist::from_dag("w0", &dag);
            nl.validate().expect("valid");
            for v in 0..16u32 {
                let input = BitVec::from_bools((0..4).map(|k| (v >> k) & 1 == 1));
                assert_eq!(nl.eval(&input), dag.eval(&input), "input {v:04b}");
            }
        }
    }

    #[test]
    fn eval_lanes_matches_eval_lane_by_lane() {
        let cubes = vec![
            Cube::from_lits([Lit::pos(0), Lit::neg(1)]),
            Cube::from_lits([Lit::pos(2), Lit::pos(3), Lit::neg(0)]),
            Cube::one(),
            Cube::from_lits([Lit::pos(3), Lit::neg(3)]), // const 0
        ];
        let dag = LogicDag::from_cubes(4, &cubes, Sharing::Enabled);
        let nl = Netlist::from_dag("w0", &dag);
        // Lane j carries input vector j mod 16, so every assignment
        // appears in four lanes.
        let lanes: Vec<u64> = (0..4)
            .map(|k| (0..64).fold(0u64, |acc, j| acc | ((j >> k) & 1) << j))
            .collect();
        let outs = nl.eval_lanes(&lanes);
        assert_eq!(outs.len(), cubes.len());
        for j in 0..64u64 {
            let input = BitVec::from_bools((0..4).map(|k| (j >> k) & 1 == 1));
            let lane: Vec<bool> = outs.iter().map(|o| (o >> j) & 1 == 1).collect();
            assert_eq!(lane, nl.eval(&input), "lane {j}");
        }
    }

    #[test]
    fn from_dag_gate_counts_track_sharing() {
        let cubes = vec![Cube::from_lits([Lit::pos(0), Lit::pos(1)]); 6];
        let shared = Netlist::from_dag("s", &LogicDag::from_cubes(4, &cubes, Sharing::Enabled));
        let dt = Netlist::from_dag("d", &LogicDag::from_cubes(4, &cubes, Sharing::DontTouch));
        // +1 AND per output for the port buffer in both cases.
        assert!(shared.and2_count() < dt.and2_count());
    }

    #[test]
    fn sanitize_identifier_rules() {
        assert_eq!(sanitize_identifier("clause[3].out"), "clause_3__out");
        assert_eq!(sanitize_identifier("3bad"), "_3bad");
        assert_eq!(sanitize_identifier(""), "_");
        assert_eq!(sanitize_identifier("ok_name9"), "ok_name9");
    }
}
