//! Behavioral/structural Verilog generators for every block of the MATADOR
//! accelerator (Fig 5): Hard-Coded Clause Blocks, the polarity-split class
//! sum, the binary argmax comparison tree, the stream control unit, the top
//! level and an auto-debug testbench.
//!
//! All generators are pure string producers parameterized by plain values,
//! so the `matador` core crate can drive them from a partitioned design
//! without a dependency cycle.

use crate::netlist::Netlist;
use crate::verilog::{gates_text_len, push_gates, push_usize, EmitOptions};
use std::fmt;
use std::fmt::Write as _;

/// Error returned when a generator is driven with mismatched shapes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum GenError {
    /// The window DAG's output count differs from the design's clause count.
    ClauseCountMismatch {
        /// Clauses declared by [`DesignParams::num_clauses`].
        expected: usize,
        /// Outputs of the supplied DAG.
        got: usize,
    },
    /// The window DAG's input width differs from the bus width.
    WindowWidthMismatch {
        /// Bus width declared by [`DesignParams::bus_width`].
        expected: usize,
        /// Width of the supplied DAG.
        got: usize,
    },
    /// A testbench vector's packet count differs from the design's.
    PacketCountMismatch {
        /// Index of the offending vector.
        vector: usize,
        /// Packets per datapoint declared by [`DesignParams::num_packets`].
        expected: usize,
        /// Packets in the supplied vector.
        got: usize,
    },
}

impl fmt::Display for GenError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            GenError::ClauseCountMismatch { expected, got } => {
                write!(
                    f,
                    "clause count mismatch: design has {expected}, DAG drives {got}"
                )
            }
            GenError::WindowWidthMismatch { expected, got } => {
                write!(
                    f,
                    "window width mismatch: bus is {expected} bits, DAG reads {got}"
                )
            }
            GenError::PacketCountMismatch {
                vector,
                expected,
                got,
            } => write!(
                f,
                "test vector {vector} has {got} packets, design streams {expected}"
            ),
        }
    }
}

impl std::error::Error for GenError {}

/// Scalar parameters shared by the datapath generators.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct DesignParams {
    /// Top-level module name.
    pub name: String,
    /// AXI stream width `W` in bits.
    pub bus_width: usize,
    /// Packets per datapoint (`ceil(features / W)`), = number of HCBs.
    pub num_packets: usize,
    /// Total clause count across classes.
    pub num_clauses: usize,
    /// Number of classes.
    pub classes: usize,
    /// Clauses per class.
    pub clauses_per_class: usize,
    /// Split the class-sum adders into two registered stages.
    pub pipeline_class_sum: bool,
}

impl DesignParams {
    /// Signed class-sum width: enough for ±clauses_per_class/2 plus sign.
    pub fn sum_width(&self) -> usize {
        usize_bits(self.clauses_per_class / 2 + 1) + 1
    }

    /// Argmax index width.
    pub fn index_width(&self) -> usize {
        usize_bits(self.classes.max(2) - 1).max(1)
    }

    /// Padded argmax tree arity `2^ceil(log2(classes))`.
    pub fn padded_classes(&self) -> usize {
        self.classes.max(2).next_power_of_two()
    }
}

fn usize_bits(v: usize) -> usize {
    (usize::BITS - v.leading_zeros()) as usize
}

/// Generates one Hard-Coded Clause Block.
///
/// `netlist` (the window's clause logic, built by [`Netlist::from_dag`])
/// must have one output per clause, over a `bus_width`-bit window.
/// HCB 0 (`index == 0`) seeds the chain: its partial clauses are registered
/// directly (the implicit `1'b1` initialization of Fig 5); later HCBs AND
/// their window's partial clauses into `clause_in`.
///
/// # Errors
///
/// Returns [`GenError`] if the netlist's output count differs from
/// `num_clauses` or its input count differs from `bus_width`.
pub fn hcb_module(
    index: usize,
    params: &DesignParams,
    netlist: &Netlist,
    dont_touch: bool,
) -> Result<String, GenError> {
    if netlist.outputs().len() != params.num_clauses {
        return Err(GenError::ClauseCountMismatch {
            expected: params.num_clauses,
            got: netlist.outputs().len(),
        });
    }
    if netlist.inputs().len() != params.bus_width {
        return Err(GenError::WindowWidthMismatch {
            expected: params.bus_width,
            got: netlist.inputs().len(),
        });
    }
    let c = params.num_clauses;
    let w = params.bus_width;
    let options = EmitOptions { dont_touch };
    let mut out = String::with_capacity(512 + 48 * w + 40 * c + gates_text_len(netlist, options));
    let _ = writeln!(out, "// auto-generated by matador-rtl — do not edit");
    let _ = writeln!(
        out,
        "// HCB {index}: partial clauses for packet {index} (features [{}, {}))",
        index * w,
        index * w + w
    );
    let _ = writeln!(out, "module hcb_{index} (");
    let _ = writeln!(out, "  input  wire clk,");
    let _ = writeln!(out, "  input  wire rst,");
    let _ = writeln!(out, "  input  wire en,");
    let _ = writeln!(out, "  input  wire [{}:0] packet,", w - 1);
    if index > 0 {
        let _ = writeln!(out, "  input  wire [{}:0] clause_in,", c - 1);
    }
    let _ = writeln!(out, "  output reg  [{}:0] clause_out", c - 1);
    let _ = writeln!(out, ");");
    // Window input aliases feed the embedded gate-level netlist.
    for i in 0..w {
        out.push_str("  wire in_");
        push_usize(&mut out, i);
        out.push_str(";\n");
    }
    for i in 0..w {
        out.push_str("  assign in_");
        push_usize(&mut out, i);
        out.push_str(" = packet[");
        push_usize(&mut out, i);
        out.push_str("];\n");
    }
    push_gates(&mut out, netlist, options, &[]);
    let _ = writeln!(out, "  wire [{}:0] pc;", c - 1);
    for k in 0..c {
        out.push_str("  assign pc[");
        push_usize(&mut out, k);
        out.push_str("] = out_");
        push_usize(&mut out, k);
        out.push_str(";\n");
    }
    let _ = writeln!(out, "  always @(posedge clk) begin");
    let _ = writeln!(out, "    if (rst) clause_out <= {c}'d0;");
    if index == 0 {
        let _ = writeln!(out, "    else if (en) clause_out <= pc;");
    } else {
        let _ = writeln!(out, "    else if (en) clause_out <= clause_in & pc;");
    }
    let _ = writeln!(out, "  end");
    let _ = writeln!(out, "endmodule");
    Ok(out)
}

/// Generates the class-sum block: per class, positive- and negative-
/// polarity votes are accumulated separately and subtracted (the paper's
/// `2×cl` adders). With [`DesignParams::pipeline_class_sum`] the popcounts
/// are registered before the subtraction — two stages, one extra cycle.
pub fn class_sum_module(params: &DesignParams) -> String {
    let c = params.num_clauses;
    let sw = params.sum_width();
    let cl = params.classes;
    let cpc = params.clauses_per_class;
    let mut out = String::new();
    let _ = writeln!(out, "// auto-generated by matador-rtl — do not edit");
    let _ = writeln!(out, "module class_sum (");
    let _ = writeln!(out, "  input  wire clk,");
    let _ = writeln!(out, "  input  wire en,");
    let _ = writeln!(out, "  input  wire [{}:0] clauses,", c - 1);
    let _ = writeln!(out, "  output reg  [{}:0] sums", cl * sw - 1);
    let _ = writeln!(out, ");");
    for class in 0..cl {
        let base = class * cpc;
        let pos: Vec<String> = (0..cpc)
            .step_by(2)
            .map(|j| format!("clauses[{}]", base + j))
            .collect();
        let neg: Vec<String> = (1..cpc)
            .step_by(2)
            .map(|j| format!("clauses[{}]", base + j))
            .collect();
        let _ = writeln!(
            out,
            "  wire [{}:0] pos_{class} = {};",
            sw - 1,
            pos.join(" + ")
        );
        let _ = writeln!(
            out,
            "  wire [{}:0] neg_{class} = {};",
            sw - 1,
            neg.join(" + ")
        );
    }
    if params.pipeline_class_sum {
        for class in 0..cl {
            let _ = writeln!(out, "  reg [{}:0] pos_r_{class};", sw - 1);
            let _ = writeln!(out, "  reg [{}:0] neg_r_{class};", sw - 1);
        }
        let _ = writeln!(out, "  reg stage2_en;");
        let _ = writeln!(out, "  always @(posedge clk) begin");
        let _ = writeln!(out, "    stage2_en <= en;");
        let _ = writeln!(out, "    if (en) begin");
        for class in 0..cl {
            let _ = writeln!(out, "      pos_r_{class} <= pos_{class};");
            let _ = writeln!(out, "      neg_r_{class} <= neg_{class};");
        }
        let _ = writeln!(out, "    end");
        let _ = writeln!(out, "    if (stage2_en) begin");
        for class in 0..cl {
            let _ = writeln!(
                out,
                "      sums[{}:{}] <= pos_r_{class} - neg_r_{class};",
                (class + 1) * sw - 1,
                class * sw
            );
        }
        let _ = writeln!(out, "    end");
        let _ = writeln!(out, "  end");
    } else {
        let _ = writeln!(out, "  always @(posedge clk) begin");
        let _ = writeln!(out, "    if (en) begin");
        for class in 0..cl {
            let _ = writeln!(
                out,
                "      sums[{}:{}] <= pos_{class} - neg_{class};",
                (class + 1) * sw - 1,
                class * sw
            );
        }
        let _ = writeln!(out, "    end");
        let _ = writeln!(out, "  end");
    }
    let _ = writeln!(out, "endmodule");
    out
}

/// Generates the argmax block: a binary comparison tree over
/// `2^ceil(log2(classes))` signed inputs, classes beyond the real count
/// padded with the minimum representable value (Fig 5's parameterized
/// comparison tree). Ties resolve toward the lower class index.
pub fn argmax_module(params: &DesignParams) -> String {
    let cl = params.classes;
    let sw = params.sum_width();
    let iw = params.index_width();
    let padded = params.padded_classes();
    let levels = usize_bits(padded - 1);
    let mut out = String::new();
    let _ = writeln!(out, "// auto-generated by matador-rtl — do not edit");
    let _ = writeln!(out, "module argmax (");
    let _ = writeln!(out, "  input  wire clk,");
    let _ = writeln!(out, "  input  wire en,");
    let _ = writeln!(out, "  input  wire [{}:0] sums,", cl * sw - 1);
    let _ = writeln!(out, "  output reg  [{}:0] winner", iw - 1);
    let _ = writeln!(out, ");");
    // Level 0: unpack + pad.
    for i in 0..padded {
        if i < cl {
            let _ = writeln!(
                out,
                "  wire signed [{}:0] v_0_{i} = $signed(sums[{}:{}]);",
                sw - 1,
                (i + 1) * sw - 1,
                i * sw
            );
        } else {
            let _ = writeln!(
                out,
                "  wire signed [{}:0] v_0_{i} = {{1'b1, {{{}{{1'b0}}}}}};",
                sw - 1,
                sw - 1
            );
        }
        let _ = writeln!(
            out,
            "  wire [{}:0] ix_0_{i} = {iw}'d{};",
            iw - 1,
            i.min(cl - 1)
        );
    }
    for level in 1..=levels {
        let nodes = padded >> level;
        for i in 0..nodes {
            let (l, r) = (2 * i, 2 * i + 1);
            let p = level - 1;
            let _ = writeln!(
                out,
                "  wire signed [{}:0] v_{level}_{i} = (v_{p}_{l} >= v_{p}_{r}) ? v_{p}_{l} : v_{p}_{r};",
                sw - 1
            );
            let _ = writeln!(
                out,
                "  wire [{}:0] ix_{level}_{i} = (v_{p}_{l} >= v_{p}_{r}) ? ix_{p}_{l} : ix_{p}_{r};",
                iw - 1
            );
        }
    }
    let _ = writeln!(out, "  always @(posedge clk) begin");
    let _ = writeln!(out, "    if (en) winner <= ix_{levels}_0;");
    let _ = writeln!(out, "  end");
    let _ = writeln!(out, "endmodule");
    out
}

/// Generates the control unit: AXI4-Stream handshake, packet routing
/// one-hot enables for the HCB chain, and the reset/stall/compute/idle
/// behaviour the paper describes.
pub fn controller_module(params: &DesignParams) -> String {
    let p = params.num_packets;
    let cw = usize_bits(p.max(2) - 1).max(1);
    let mut out = String::new();
    let _ = writeln!(out, "// auto-generated by matador-rtl — do not edit");
    let _ = writeln!(out, "module controller (");
    let _ = writeln!(out, "  input  wire clk,");
    let _ = writeln!(out, "  input  wire rst,");
    let _ = writeln!(out, "  input  wire s_axis_tvalid,");
    let _ = writeln!(out, "  output wire s_axis_tready,");
    let _ = writeln!(out, "  input  wire s_axis_tlast,");
    let _ = writeln!(out, "  input  wire stall,");
    let _ = writeln!(out, "  output reg  [{}:0] hcb_en,", p - 1);
    let _ = writeln!(out, "  output reg  sum_en,");
    let _ = writeln!(out, "  output reg  argmax_en,");
    let _ = writeln!(out, "  output reg  result_valid");
    let _ = writeln!(out, ");");
    let _ = writeln!(
        out,
        "  localparam S_IDLE = 2'd0, S_COMPUTE = 2'd1, S_STALL = 2'd2;"
    );
    let _ = writeln!(out, "  reg [1:0] state;");
    let _ = writeln!(out, "  reg [{}:0] pkt;", cw - 1);
    let _ = writeln!(out, "  assign s_axis_tready = !stall && !rst;");
    let _ = writeln!(out, "  wire accept = s_axis_tvalid && s_axis_tready;");
    let _ = writeln!(out, "  always @(posedge clk) begin");
    let _ = writeln!(out, "    if (rst) begin");
    let _ = writeln!(out, "      state <= S_IDLE; pkt <= 0; hcb_en <= 0;");
    let _ = writeln!(
        out,
        "      sum_en <= 1'b0; argmax_en <= 1'b0; result_valid <= 1'b0;"
    );
    let _ = writeln!(out, "    end else begin");
    let _ = writeln!(out, "      hcb_en <= accept ? ({p}'d1 << pkt) : {p}'d0;");
    let _ = writeln!(out, "      sum_en <= hcb_en[{}];", p - 1);
    let _ = writeln!(out, "      argmax_en <= sum_en;");
    let _ = writeln!(out, "      result_valid <= argmax_en;");
    let _ = writeln!(out, "      if (stall) state <= S_STALL;");
    let _ = writeln!(out, "      else if (accept) begin");
    let _ = writeln!(out, "        state <= S_COMPUTE;");
    let _ = writeln!(
        out,
        "        pkt <= s_axis_tlast ? {cw}'d0 : pkt + {cw}'d1;"
    );
    let _ = writeln!(out, "      end");
    let _ = writeln!(out, "    end");
    let _ = writeln!(out, "  end");
    let _ = writeln!(out, "endmodule");
    out
}

/// Generates the top level: controller + HCB chain + class sum + argmax,
/// exposed behind an AXI4-Stream slave (Fig 5's block diagram).
pub fn top_module(params: &DesignParams) -> String {
    let w = params.bus_width;
    let p = params.num_packets;
    let c = params.num_clauses;
    let iw = params.index_width();
    let sw = params.sum_width();
    let mut out = String::new();
    let _ = writeln!(out, "// auto-generated by matador-rtl — do not edit");
    let _ = writeln!(out, "module {} (", params.name);
    let _ = writeln!(out, "  input  wire clk,");
    let _ = writeln!(out, "  input  wire rst,");
    let _ = writeln!(out, "  input  wire stall,");
    let _ = writeln!(out, "  input  wire [{}:0] s_axis_tdata,", w - 1);
    let _ = writeln!(out, "  input  wire s_axis_tvalid,");
    let _ = writeln!(out, "  output wire s_axis_tready,");
    let _ = writeln!(out, "  input  wire s_axis_tlast,");
    let _ = writeln!(out, "  output wire [{}:0] classification,", iw - 1);
    let _ = writeln!(out, "  output wire result_valid");
    let _ = writeln!(out, ");");
    let _ = writeln!(out, "  wire [{}:0] hcb_en;", p - 1);
    let _ = writeln!(out, "  wire sum_en, argmax_en;");
    for k in 0..p {
        let _ = writeln!(out, "  wire [{}:0] clause_{k};", c - 1);
    }
    let _ = writeln!(out, "  wire [{}:0] sums;", params.classes * sw - 1);
    let _ = writeln!(out, "  controller u_ctrl (");
    let _ = writeln!(out, "    .clk(clk), .rst(rst), .stall(stall),");
    let _ = writeln!(
        out,
        "    .s_axis_tvalid(s_axis_tvalid), .s_axis_tready(s_axis_tready),"
    );
    let _ = writeln!(out, "    .s_axis_tlast(s_axis_tlast),");
    let _ = writeln!(
        out,
        "    .hcb_en(hcb_en), .sum_en(sum_en), .argmax_en(argmax_en),"
    );
    let _ = writeln!(out, "    .result_valid(result_valid)");
    let _ = writeln!(out, "  );");
    for k in 0..p {
        let _ = writeln!(out, "  hcb_{k} u_hcb_{k} (");
        let _ = writeln!(out, "    .clk(clk), .rst(rst), .en(hcb_en[{k}]),");
        let _ = writeln!(out, "    .packet(s_axis_tdata),");
        if k > 0 {
            let _ = writeln!(out, "    .clause_in(clause_{}),", k - 1);
        }
        let _ = writeln!(out, "    .clause_out(clause_{k})");
        let _ = writeln!(out, "  );");
    }
    let _ = writeln!(out, "  class_sum u_sum (");
    let _ = writeln!(
        out,
        "    .clk(clk), .en(sum_en), .clauses(clause_{}), .sums(sums)",
        p - 1
    );
    let _ = writeln!(out, "  );");
    let _ = writeln!(out, "  argmax u_argmax (");
    let _ = writeln!(
        out,
        "    .clk(clk), .en(argmax_en), .sums(sums), .winner(classification)"
    );
    let _ = writeln!(out, "  );");
    let _ = writeln!(out, "endmodule");
    out
}

/// A streamed stimulus vector for the auto-debug testbench.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TestVector {
    /// Packets of one datapoint, LSB-first (from the packetizer).
    pub packets: Vec<u64>,
    /// Expected classification (from software inference).
    pub expected: usize,
}

/// Generates the self-checking testbench of the auto-debug flow (Fig 6,
/// dark-pink path): streams each vector's packets through the AXI slave,
/// waits for `result_valid` and compares against software inference.
///
/// # Errors
///
/// Returns [`GenError::PacketCountMismatch`] if any vector's packet count
/// differs from the design's packets-per-datapoint.
pub fn testbench_module(params: &DesignParams, vectors: &[TestVector]) -> Result<String, GenError> {
    let w = params.bus_width;
    let p = params.num_packets;
    let iw = params.index_width();
    if let Some((vi, v)) = vectors
        .iter()
        .enumerate()
        .find(|(_, v)| v.packets.len() != p)
    {
        return Err(GenError::PacketCountMismatch {
            vector: vi,
            expected: p,
            got: v.packets.len(),
        });
    }
    let mut out = String::new();
    let _ = writeln!(out, "// auto-generated by matador-rtl — do not edit");
    let _ = writeln!(out, "`timescale 1ns/1ps");
    let _ = writeln!(out, "module tb_{};", params.name);
    let _ = writeln!(out, "  reg clk = 0, rst = 1, stall = 0;");
    let _ = writeln!(out, "  reg [{}:0] s_axis_tdata = 0;", w - 1);
    let _ = writeln!(out, "  reg s_axis_tvalid = 0, s_axis_tlast = 0;");
    let _ = writeln!(out, "  wire s_axis_tready;");
    let _ = writeln!(out, "  wire [{}:0] classification;", iw - 1);
    let _ = writeln!(out, "  wire result_valid;");
    let _ = writeln!(out, "  integer errors = 0;");
    let _ = writeln!(out, "  always #10 clk = ~clk;  // 50 MHz");
    let _ = writeln!(out, "  {} dut (", params.name);
    let _ = writeln!(out, "    .clk(clk), .rst(rst), .stall(stall),");
    let _ = writeln!(
        out,
        "    .s_axis_tdata(s_axis_tdata), .s_axis_tvalid(s_axis_tvalid),"
    );
    let _ = writeln!(
        out,
        "    .s_axis_tready(s_axis_tready), .s_axis_tlast(s_axis_tlast),"
    );
    let _ = writeln!(
        out,
        "    .classification(classification), .result_valid(result_valid)"
    );
    let _ = writeln!(out, "  );");
    let _ = writeln!(
        out,
        "  task send_packet(input [{}:0] data, input last);",
        w - 1
    );
    let _ = writeln!(out, "    begin");
    let _ = writeln!(out, "      @(negedge clk);");
    let _ = writeln!(
        out,
        "      s_axis_tdata <= data; s_axis_tvalid <= 1; s_axis_tlast <= last;"
    );
    let _ = writeln!(
        out,
        "      @(posedge clk); while (!s_axis_tready) @(posedge clk);"
    );
    let _ = writeln!(
        out,
        "      @(negedge clk); s_axis_tvalid <= 0; s_axis_tlast <= 0;"
    );
    let _ = writeln!(out, "    end");
    let _ = writeln!(out, "  endtask");
    let _ = writeln!(out, "  initial begin");
    let _ = writeln!(out, "    repeat (4) @(posedge clk); rst = 0;");
    for (vi, v) in vectors.iter().enumerate() {
        for (pi, &pkt) in v.packets.iter().enumerate() {
            let last = if pi + 1 == p { 1 } else { 0 };
            let _ = writeln!(out, "    send_packet({w}'h{pkt:x}, 1'b{last});");
        }
        let _ = writeln!(out, "    @(posedge result_valid);");
        let _ = writeln!(
            out,
            "    if (classification !== {iw}'d{}) begin errors = errors + 1; $display(\"MISMATCH vector {vi}: got %0d want {}\", classification); end",
            v.expected, v.expected
        );
    }
    let _ = writeln!(
        out,
        "    if (errors == 0) $display(\"ALL %0d VECTORS PASS\", {});",
        vectors.len()
    );
    let _ = writeln!(out, "    else $display(\"%0d ERRORS\", errors);");
    let _ = writeln!(out, "    $finish;");
    let _ = writeln!(out, "  end");
    let _ = writeln!(out, "endmodule");
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use matador_logic::cube::{Cube, Lit};
    use matador_logic::dag::{LogicDag, Sharing};

    fn params() -> DesignParams {
        DesignParams {
            name: "matador_top".into(),
            bus_width: 8,
            num_packets: 2,
            num_clauses: 4,
            classes: 2,
            clauses_per_class: 2,
            pipeline_class_sum: false,
        }
    }

    fn balanced(text: &str) -> bool {
        let tokens: Vec<&str> = text
            .split(|c: char| !c.is_ascii_alphanumeric() && c != '_')
            .collect();
        let count = |w: &str| tokens.iter().filter(|t| **t == w).count();
        count("module") == count("endmodule") && count("begin") == count("end")
    }

    fn tiny_dag(width: usize, clauses: usize) -> LogicDag {
        let cubes: Vec<Cube> = (0..clauses)
            .map(|i| Cube::from_lits([Lit::pos((i % width) as u32)]))
            .collect();
        LogicDag::from_cubes(width, &cubes, Sharing::Enabled)
    }

    #[test]
    fn hcb_zero_has_no_clause_in() {
        let p = params();
        let dag = tiny_dag(8, 4);
        let text = hcb_module(0, &p, &Netlist::from_dag("hcb_0_logic", &dag), false)
            .expect("shapes match");
        assert!(text.contains("module hcb_0"));
        assert!(!text.contains("clause_in"));
        assert!(text.contains("clause_out <= pc;"));
        assert!(balanced(&text));
    }

    #[test]
    fn hcb_later_ands_with_incoming() {
        let p = params();
        let dag = tiny_dag(8, 4);
        let text = hcb_module(1, &p, &Netlist::from_dag("hcb_1_logic", &dag), false)
            .expect("shapes match");
        assert!(text.contains("input  wire [3:0] clause_in"));
        assert!(text.contains("clause_out <= clause_in & pc;"));
    }

    #[test]
    fn hcb_dont_touch_propagates_attribute() {
        let p = params();
        let dag = tiny_dag(8, 4);
        let text =
            hcb_module(0, &p, &Netlist::from_dag("hcb_0_logic", &dag), true).expect("shapes match");
        assert!(text.contains("DONT_TOUCH"));
    }

    #[test]
    fn class_sum_has_polarity_split_adders() {
        let text = class_sum_module(&params());
        // 2 classes × (pos + neg) = 4 adder wires → the paper's 2×cl adders.
        let adder_wires = text
            .lines()
            .filter(|l| l.trim_start().starts_with("wire [") && l.contains(" = "))
            .count();
        assert_eq!(adder_wires, 4);
        assert!(text.contains("pos_0"));
        assert!(text.contains("neg_1"));
        assert!(balanced(&text));
    }

    #[test]
    fn pipelined_class_sum_has_stage_registers() {
        let mut p = params();
        p.pipeline_class_sum = true;
        let text = class_sum_module(&p);
        assert!(text.contains("pos_r_0"));
        assert!(text.contains("stage2_en"));
        assert!(text.contains("pos_r_1 - neg_r_1"));
        assert!(balanced(&text));
        // Unpipelined version has neither.
        p.pipeline_class_sum = false;
        assert!(!class_sum_module(&p).contains("stage2_en"));
    }

    #[test]
    fn argmax_pads_to_power_of_two() {
        let mut p = params();
        p.classes = 10;
        p.clauses_per_class = 200;
        p.num_clauses = 2000;
        let text = argmax_module(&p);
        // 10 classes pad to 16 leaves.
        assert!(text.contains("v_0_15"));
        assert!(text.contains("v_4_0")); // 4 tree levels
        assert!(balanced(&text));
    }

    #[test]
    fn controller_has_handshake_and_routing() {
        let text = controller_module(&params());
        assert!(text.contains("s_axis_tready = !stall && !rst"));
        assert!(text.contains("hcb_en"));
        assert!(text.contains("result_valid"));
        assert!(balanced(&text));
    }

    #[test]
    fn top_instantiates_every_block() {
        let p = params();
        let text = top_module(&p);
        assert!(text.contains("controller u_ctrl"));
        assert!(text.contains("hcb_0 u_hcb_0"));
        assert!(text.contains("hcb_1 u_hcb_1"));
        assert!(text.contains("class_sum u_sum"));
        assert!(text.contains("argmax u_argmax"));
        assert!(balanced(&text));
    }

    #[test]
    fn testbench_embeds_vectors_and_checks() {
        let p = params();
        let vectors = vec![TestVector {
            packets: vec![0xAB, 0x01],
            expected: 1,
        }];
        let text = testbench_module(&p, &vectors).expect("vector shapes match");
        assert!(text.contains("send_packet(8'hab, 1'b0);"));
        assert!(text.contains("send_packet(8'h1, 1'b1);"));
        assert!(text.contains("ALL %0d VECTORS PASS"));
        assert!(text.matches("module ").count() == text.matches("endmodule").count());
    }

    #[test]
    fn sum_width_covers_clause_budget() {
        let mut p = params();
        p.clauses_per_class = 200;
        // ±100 votes fit in 8 signed bits (7 magnitude + sign).
        assert_eq!(p.sum_width(), 8);
    }

    #[test]
    fn hcb_validates_dag_shape() {
        let p = params();
        let err = hcb_module(
            0,
            &p,
            &Netlist::from_dag("hcb_0_logic", &tiny_dag(8, 3)),
            false,
        )
        .unwrap_err();
        assert_eq!(
            err,
            GenError::ClauseCountMismatch {
                expected: 4,
                got: 3
            }
        );
        let err = hcb_module(
            0,
            &p,
            &Netlist::from_dag("hcb_0_logic", &tiny_dag(4, 4)),
            false,
        )
        .unwrap_err();
        assert_eq!(
            err,
            GenError::WindowWidthMismatch {
                expected: 8,
                got: 4
            }
        );
    }

    #[test]
    fn testbench_validates_packet_counts() {
        let p = params();
        let vectors = vec![TestVector {
            packets: vec![0xAB],
            expected: 1,
        }];
        let err = testbench_module(&p, &vectors).unwrap_err();
        assert_eq!(
            err,
            GenError::PacketCountMismatch {
                vector: 0,
                expected: 2,
                got: 1
            }
        );
        assert!(err.to_string().contains("test vector 0"));
    }
}
