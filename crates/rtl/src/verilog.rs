//! Structural Verilog-2001 emission for gate-level netlists.

use crate::netlist::{Gate, NetId, Netlist};

/// Emission options.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EmitOptions {
    /// Attach `(* DONT_TOUCH = "yes" *)` to every internal wire, preventing
    /// downstream tools from re-optimizing the emitted structure — the
    /// pragma used for the paper's Fig 8 measurement.
    pub dont_touch: bool,
}

/// Renders `netlist` as a self-contained structural Verilog module.
///
/// Input ports keep their declared names; all logic is emitted as `assign`
/// statements in topological order, so the file is synthesizable by any
/// Verilog-2001 tool.
///
/// # Examples
///
/// ```
/// use matador_rtl::netlist::Netlist;
/// use matador_rtl::verilog::{emit_netlist, EmitOptions};
///
/// let mut nl = Netlist::new("tiny");
/// let a = nl.add_input("a");
/// let y = nl.not(a, "y");
/// nl.add_output(y);
/// let text = emit_netlist(&nl, EmitOptions::default());
/// assert!(text.contains("module tiny"));
/// assert!(text.contains("assign y = ~a;"));
/// ```
pub fn emit_netlist(netlist: &Netlist, options: EmitOptions) -> String {
    let port_count = netlist.inputs().len() + netlist.outputs().len();
    let mut out = String::with_capacity(
        128 + netlist.name().len() + 32 * port_count + gates_text_len(netlist, options),
    );
    out.push_str("// auto-generated by matador-rtl — do not edit\nmodule ");
    out.push_str(netlist.name());
    out.push_str(" (\n");
    let ports = netlist
        .inputs()
        .iter()
        .map(|&n| ("  input  wire ", n))
        .chain(netlist.outputs().iter().map(|&n| ("  output wire ", n)));
    for (i, (decl, net)) in ports.enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        out.push_str(decl);
        out.push_str(netlist.net_name(net));
    }
    out.push_str("\n);\n");
    // Wire declarations for every gate output that is not an output port.
    let mut is_port = vec![false; netlist.net_count()];
    for &n in netlist.outputs() {
        is_port[n.index()] = true;
    }
    push_gates(&mut out, netlist, options, &is_port);
    out.push_str("endmodule\n");
    out
}

/// Emits only the wire declarations and `assign` statements of `netlist`,
/// for inclusion inside a larger hand-written module (the HCB generator
/// embeds clause logic this way). Input nets are assumed to be declared by
/// the enclosing module; every gate output (including `out_*` nets) is
/// declared as a wire here.
pub fn emit_netlist_body(netlist: &Netlist, options: EmitOptions) -> String {
    let mut out = String::with_capacity(gates_text_len(netlist, options));
    push_gates(&mut out, netlist, options, &[]);
    out
}

/// The attribute that pins a wire under [`EmitOptions::dont_touch`].
fn wire_attr(options: EmitOptions) -> &'static str {
    if options.dont_touch {
        "(* DONT_TOUCH = \"yes\" *) "
    } else {
        ""
    }
}

/// Bytes [`push_gates`] appends when it declares every gate output.
pub(crate) fn gates_text_len(netlist: &Netlist, options: EmitOptions) -> usize {
    let name = |n: NetId| netlist.net_name(n).len();
    let per_gate = "  wire ;\n  assign  = ;\n".len() + wire_attr(options).len();
    netlist
        .gates()
        .iter()
        .map(|gate| {
            per_gate
                + 2 * name(gate.output())
                + match *gate {
                    Gate::And2 { a, b, .. } => name(a) + " & ".len() + name(b),
                    Gate::Not { a, .. } => 1 + name(a),
                    Gate::Const { .. } => "1'b0".len(),
                }
        })
        .sum()
}

/// Appends one wire declaration per gate output that `is_port` does not
/// mark (nets past its end are not ports), then one `assign` per gate, in
/// gate order.
pub(crate) fn push_gates(
    out: &mut String,
    netlist: &Netlist,
    options: EmitOptions,
    is_port: &[bool],
) {
    let attr = wire_attr(options);
    for gate in netlist.gates() {
        let y = gate.output();
        if !is_port.get(y.index()).copied().unwrap_or(false) {
            out.push_str("  ");
            out.push_str(attr);
            out.push_str("wire ");
            out.push_str(netlist.net_name(y));
            out.push_str(";\n");
        }
    }
    for gate in netlist.gates() {
        out.push_str("  assign ");
        out.push_str(netlist.net_name(gate.output()));
        out.push_str(" = ");
        match *gate {
            Gate::And2 { a, b, .. } => {
                out.push_str(netlist.net_name(a));
                out.push_str(" & ");
                out.push_str(netlist.net_name(b));
            }
            Gate::Not { a, .. } => {
                out.push('~');
                out.push_str(netlist.net_name(a));
            }
            Gate::Const { value, .. } => out.push_str(if value { "1'b1" } else { "1'b0" }),
        }
        out.push_str(";\n");
    }
}

/// Appends `value` in decimal.
pub(crate) fn push_usize(out: &mut String, mut value: usize) {
    let mut digits = [0u8; 20];
    let mut start = digits.len();
    loop {
        start -= 1;
        digits[start] = b'0' + (value % 10) as u8;
        value /= 10;
        if value == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&digits[start..]).expect("decimal digits are ASCII"));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Netlist {
        let mut nl = Netlist::new("m");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let nb = nl.not(b, "nb");
        let y = nl.and2(a, nb, "y");
        nl.add_output(y);
        nl
    }

    /// A netlist with every gate kind: an internal inverter and constant
    /// and two output ports.
    fn all_gates() -> Netlist {
        let mut nl = Netlist::new("m");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let nb = nl.not(b, "nb");
        let y = nl.and2(a, nb, "y");
        let k0 = nl.constant(false, "k0");
        let z = nl.and2(y, k0, "z");
        nl.add_output(y);
        nl.add_output(z);
        nl
    }

    #[test]
    fn emit_netlist_exact_text() {
        let body =
            "  assign nb = ~b;\n  assign y = a & nb;\n  assign k0 = 1'b0;\n  assign z = y & k0;\n";
        let head = "// auto-generated by matador-rtl — do not edit\nmodule m (\n  input  wire a,\n  input  wire b,\n  output wire y,\n  output wire z\n);\n";
        assert_eq!(
            emit_netlist(&all_gates(), EmitOptions::default()),
            format!("{head}  wire nb;\n  wire k0;\n{body}endmodule\n")
        );
        let attr = "(* DONT_TOUCH = \"yes\" *) ";
        assert_eq!(
            emit_netlist(&all_gates(), EmitOptions { dont_touch: true }),
            format!("{head}  {attr}wire nb;\n  {attr}wire k0;\n{body}endmodule\n")
        );
        // The body declares every gate output, output ports included.
        assert_eq!(
            emit_netlist_body(&all_gates(), EmitOptions::default()),
            format!("  wire nb;\n  wire y;\n  wire k0;\n  wire z;\n{body}")
        );
        assert_eq!(
            emit_netlist_body(&all_gates(), EmitOptions { dont_touch: true }),
            format!("  {attr}wire nb;\n  {attr}wire y;\n  {attr}wire k0;\n  {attr}wire z;\n{body}")
        );
        // A netlist without ports keeps an empty port line.
        assert_eq!(
            emit_netlist(&Netlist::new("e"), EmitOptions::default()),
            "// auto-generated by matador-rtl — do not edit\nmodule e (\n\n);\nendmodule\n"
        );
    }

    #[test]
    fn push_usize_writes_decimal() {
        let mut out = String::from("x");
        for v in [0, 7, 10, 409, usize::MAX] {
            push_usize(&mut out, v);
            out.push(' ');
        }
        assert_eq!(out, format!("x0 7 10 409 {} ", usize::MAX));
    }

    #[test]
    fn emits_module_skeleton() {
        let text = emit_netlist(&sample(), EmitOptions::default());
        assert!(text.starts_with("// auto-generated"));
        assert!(text.contains("module m ("));
        assert!(text.contains("input  wire a"));
        assert!(text.contains("output wire y"));
        assert!(text.trim_end().ends_with("endmodule"));
    }

    #[test]
    fn emits_gates_in_topological_order() {
        let text = emit_netlist(&sample(), EmitOptions::default());
        let nb_pos = text.find("assign nb = ~b;").expect("not gate");
        let y_pos = text.find("assign y = a & nb;").expect("and gate");
        assert!(nb_pos < y_pos);
    }

    #[test]
    fn dont_touch_attributes_on_wires() {
        let with = emit_netlist(&sample(), EmitOptions { dont_touch: true });
        let without = emit_netlist(&sample(), EmitOptions::default());
        assert!(with.contains("(* DONT_TOUCH = \"yes\" *) wire nb;"));
        assert!(!without.contains("DONT_TOUCH"));
    }

    #[test]
    fn output_ports_not_redeclared_as_wires() {
        let text = emit_netlist(&sample(), EmitOptions::default());
        assert!(!text.contains("  wire y;"));
    }

    #[test]
    fn constant_drivers_emit_literals() {
        let mut nl = Netlist::new("c");
        let k = nl.constant(true, "k1");
        nl.add_output(k);
        let text = emit_netlist(&nl, EmitOptions::default());
        assert!(text.contains("assign k1 = 1'b1;"));
    }
}
