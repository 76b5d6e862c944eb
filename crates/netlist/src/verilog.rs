//! Structural Verilog subset reader and writer.
//!
//! Covers the gate-level netlist style synthesis tools emit: one module,
//! `input`/`output`/`wire` declarations, and primitive instantiations of
//! this crate's [`GateKind`]s with named or positional connections:
//!
//! ```verilog
//! module top (a, b, y);
//!   input a, b;
//!   output y;
//!   wire n1;
//!   NAND2 g1 (.A(a), .B(b), .Y(n1));
//!   INV g2 (.A(n1), .Y(y));
//! endmodule
//! ```
//!
//! Port convention: inputs `A`, `B`, `C`, `D` in fan-in order, output `Y`.
//! `//` line comments and `/* */` block comments are stripped;
//! instantiation order is arbitrary (a topological sort runs at
//! elaboration). Behavioural constructs (`always`, `assign`, vectors,
//! parameters) are out of scope and rejected.

use crate::circuit::{Circuit, CircuitBuilder, NetlistError, Signal};
use crate::library::GateKind;
use std::collections::HashMap;
use std::fmt::Write as _;

/// Parses a structural-Verilog-subset string into a [`Circuit`].
///
/// # Errors
///
/// Returns [`NetlistError::Parse`] for unsupported constructs,
/// [`NetlistError::Cycle`] for combinational loops.
///
/// ```
/// use sgs_netlist::verilog;
/// let text = "
/// module tiny (a, b, y);
///   input a, b;
///   output y;
///   wire n1;
///   NAND2 g1 (.A(a), .B(b), .Y(n1));
///   INV g2 (.A(n1), .Y(y));
/// endmodule
/// ";
/// let c = verilog::parse(text)?;
/// assert_eq!(c.num_gates(), 2);
/// # Ok::<(), sgs_netlist::NetlistError>(())
/// ```
pub fn parse(text: &str) -> Result<Circuit, NetlistError> {
    let cleaned = strip_comments(text);

    let mut module = String::from("verilog");
    let mut inputs: Vec<String> = Vec::new();
    let mut outputs: Vec<(String, usize)> = Vec::new();
    struct Inst {
        kind: GateKind,
        name: String,
        fanins: Vec<String>,
        out: String,
        line: usize,
    }
    let mut insts: Vec<Inst> = Vec::new();

    // Statements split on `;`; `line` tracks where each statement *starts*
    // (after leading whitespace), for error reporting.
    let mut line = 1usize;
    for stmt in cleaned.split(';') {
        let trimmed = stmt.trim();
        let leading_ws = &stmt[..stmt.len() - stmt.trim_start().len()];
        let ln = line + leading_ws.matches('\n').count();
        line += stmt.matches('\n').count();
        let stmt = trimmed;
        if stmt.is_empty() || stmt == "endmodule" {
            continue;
        }
        // `endmodule` may be glued to the last statement when the file
        // lacks a trailing semicolon.
        let stmt = stmt.strip_suffix("endmodule").unwrap_or(stmt).trim();
        if stmt.is_empty() {
            continue;
        }
        let (head, rest) = stmt.split_once(char::is_whitespace).unwrap_or((stmt, ""));
        match head {
            "module" => {
                let name = rest.split(['(', ' ', '\t', '\n']).next().unwrap_or("");
                if !name.is_empty() {
                    module = name.to_string();
                }
            }
            "input" => inputs.extend(parse_name_list(rest)),
            "output" => outputs.extend(parse_name_list(rest).into_iter().map(|n| (n, ln))),
            "wire" => {} // declarations carry no structure we need
            "assign" | "always" | "reg" | "parameter" | "initial" => {
                return Err(NetlistError::Parse(format!(
                    "line {ln}: behavioural construct `{head}` is not supported"
                )));
            }
            kind_name => {
                let kind = kind_from_name(kind_name).ok_or_else(|| {
                    NetlistError::Parse(format!("line {ln}: unknown gate type `{kind_name}`"))
                })?;
                let (inst_name, conns) =
                    parse_instance(rest, kind_name).map_err(|e| at_line(ln, e))?;
                let (fanins, out) =
                    resolve_ports(kind, &conns, &inst_name).map_err(|e| at_line(ln, e))?;
                insts.push(Inst {
                    kind,
                    name: inst_name,
                    fanins,
                    out,
                    line: ln,
                });
            }
        }
    }

    // Topological order over instances (Kahn).
    let mut by_out: HashMap<&str, usize> = HashMap::new();
    for (i, inst) in insts.iter().enumerate() {
        if by_out.insert(inst.out.as_str(), i).is_some() {
            return Err(NetlistError::DuplicateName(inst.out.clone()));
        }
    }
    let mut indeg = vec![0usize; insts.len()];
    let mut dependents: Vec<Vec<usize>> = vec![Vec::new(); insts.len()];
    for (i, inst) in insts.iter().enumerate() {
        for f in &inst.fanins {
            if let Some(&src) = by_out.get(f.as_str()) {
                indeg[i] += 1;
                dependents[src].push(i);
            } else if !inputs.iter().any(|n| n == f) {
                return Err(NetlistError::Parse(format!(
                    "line {}: net `{f}` feeding `{}` is neither an input nor driven",
                    inst.line, inst.name
                )));
            }
        }
    }
    let mut ready: Vec<usize> = (0..insts.len()).filter(|&i| indeg[i] == 0).collect();
    let mut topo = Vec::with_capacity(insts.len());
    while let Some(i) = ready.pop() {
        topo.push(i);
        for &d in &dependents[i] {
            indeg[d] -= 1;
            if indeg[d] == 0 {
                ready.push(d);
            }
        }
    }
    if topo.len() != insts.len() {
        let stuck = insts
            .iter()
            .enumerate()
            .find(|(i, _)| indeg[*i] > 0)
            .map(|(_, inst)| inst.name.clone())
            .unwrap_or_default();
        return Err(NetlistError::Cycle(stuck));
    }

    // Elaborate.
    let mut b = CircuitBuilder::new(module);
    let mut sig: HashMap<String, Signal> = HashMap::new();
    for i in &inputs {
        if sig.contains_key(i) {
            return Err(NetlistError::DuplicateName(i.clone()));
        }
        sig.insert(i.clone(), b.add_input(i.clone()));
    }
    for &i in &topo {
        let inst = &insts[i];
        let fanin_sigs: Vec<Signal> = inst.fanins.iter().map(|f| sig[f.as_str()]).collect();
        // The gate is named by its output net, so BLIF and downstream
        // reporting see stable names; the instance name is kept when the
        // output net collides with an input name (cannot happen for valid
        // netlists, but be safe).
        let s = b.add_gate(inst.kind, inst.out.clone(), &fanin_sigs)?;
        sig.insert(inst.out.clone(), s);
    }
    for (o, ln) in &outputs {
        let s = *sig.get(o).ok_or_else(|| {
            NetlistError::Parse(format!("line {ln}: output `{o}` is never driven"))
        })?;
        b.mark_output(s)?;
    }
    b.build()
}

/// Strips `/* */` and `//` comments while preserving every newline, so
/// byte positions in the result map to the original line numbers that
/// parse errors report.
fn strip_comments(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    let mut rest = text;
    while let Some(pos) = rest.find("/*") {
        out.push_str(&rest[..pos]);
        match rest[pos..].find("*/") {
            Some(end) => {
                // Keep the newlines the block comment spanned.
                out.extend(rest[pos..pos + end + 2].chars().filter(|&c| c == '\n'));
                rest = &rest[pos + end + 2..];
            }
            None => {
                out.extend(rest[pos..].chars().filter(|&c| c == '\n'));
                rest = "";
                break;
            }
        }
    }
    out.push_str(rest);
    out.lines()
        .map(|l| l.split("//").next().unwrap_or(""))
        .collect::<Vec<_>>()
        .join("\n")
}

/// Prefixes `line N:` onto a [`NetlistError::Parse`] message (other
/// variants carry a bare name and pass through).
fn at_line(ln: usize, e: NetlistError) -> NetlistError {
    match e {
        NetlistError::Parse(msg) => NetlistError::Parse(format!("line {ln}: {msg}")),
        other => other,
    }
}

fn parse_name_list(rest: &str) -> Vec<String> {
    rest.split(',')
        .map(|t| t.trim().to_string())
        .filter(|t| !t.is_empty())
        .collect()
}

/// One port connection: optional port name (None for positional) and net.
type Connection = (Option<String>, String);

/// Parses `name ( .A(x), .B(y), .Y(z) )` or `name (z, x, y)`.
fn parse_instance(rest: &str, kind_name: &str) -> Result<(String, Vec<Connection>), NetlistError> {
    let open = rest
        .find('(')
        .ok_or_else(|| NetlistError::Parse(format!("malformed instantiation of `{kind_name}`")))?;
    let name = rest[..open].trim().to_string();
    if name.is_empty() {
        return Err(NetlistError::Parse(format!(
            "instance of `{kind_name}` has no name"
        )));
    }
    // The last `)` must close the list the first `(` opens: on a garbled
    // line such as `u0 a0), .B(b0` it comes first.
    let close = rest
        .rfind(')')
        .filter(|&close| close > open)
        .ok_or_else(|| NetlistError::Parse(format!("unterminated port list on `{name}`")))?;
    let body = &rest[open + 1..close];
    let mut conns = Vec::new();
    for item in body.split(',') {
        let item = item.trim();
        if item.is_empty() {
            continue;
        }
        if let Some(stripped) = item.strip_prefix('.') {
            let (port, net) = stripped.split_once('(').ok_or_else(|| {
                NetlistError::Parse(format!("malformed connection `{item}` on `{name}`"))
            })?;
            let net = net.trim_end_matches(')').trim();
            conns.push((Some(port.trim().to_string()), net.to_string()));
        } else {
            conns.push((None, item.to_string()));
        }
    }
    Ok((name, conns))
}

/// Maps connections to (fan-in nets in A..D order, output net).
fn resolve_ports(
    kind: GateKind,
    conns: &[Connection],
    inst: &str,
) -> Result<(Vec<String>, String), NetlistError> {
    let arity = kind.arity();
    let named = conns.iter().any(|(p, _)| p.is_some());
    if named {
        let mut fanins = vec![None; arity];
        let mut out = None;
        for (port, net) in conns {
            let port = port.as_deref().ok_or_else(|| {
                NetlistError::Parse(format!("`{inst}` mixes named and positional connections"))
            })?;
            match port {
                "Y" => out = Some(net.clone()),
                p => {
                    let idx = match p {
                        "A" => 0,
                        "B" => 1,
                        "C" => 2,
                        "D" => 3,
                        _ => {
                            return Err(NetlistError::Parse(format!(
                                "unknown port `{p}` on `{inst}`"
                            )))
                        }
                    };
                    if idx >= arity {
                        return Err(NetlistError::Parse(format!(
                            "port `{p}` exceeds the arity of `{inst}`"
                        )));
                    }
                    fanins[idx] = Some(net.clone());
                }
            }
        }
        let out =
            out.ok_or_else(|| NetlistError::Parse(format!("`{inst}` has no Y connection")))?;
        let fanins: Option<Vec<String>> = fanins.into_iter().collect();
        let fanins = fanins.ok_or_else(|| {
            NetlistError::Parse(format!("`{inst}` is missing an input connection"))
        })?;
        Ok((fanins, out))
    } else {
        // Positional: Y first, then A..D (the common primitive convention).
        if conns.len() != arity + 1 {
            return Err(NetlistError::Parse(format!(
                "`{inst}` has {} connections, expected {}",
                conns.len(),
                arity + 1
            )));
        }
        let out = conns[0].1.clone();
        let fanins = conns[1..].iter().map(|(_, n)| n.clone()).collect();
        Ok((fanins, out))
    }
}

fn kind_from_name(name: &str) -> Option<GateKind> {
    GateKind::all()
        .iter()
        .copied()
        .find(|k| k.to_string() == name)
}

/// Serialises a circuit to the structural-Verilog subset understood by
/// [`parse`]; `parse(to_verilog(c))` round-trips the structure and gate
/// kinds.
pub fn to_verilog(c: &Circuit) -> String {
    let net_of = |sig: Signal| -> String {
        match sig {
            Signal::Pi(p) => c.input_names()[p].clone(),
            Signal::Gate(g) => c.gate(g).name.clone(),
        }
    };
    let mut s = String::new();
    let out_names: Vec<String> = c
        .outputs()
        .iter()
        .map(|&o| c.gate(o).name.clone())
        .collect();
    let mut ports: Vec<String> = c.input_names().to_vec();
    ports.extend(out_names.iter().cloned());
    let _ = writeln!(s, "module {} ({});", c.name(), ports.join(", "));
    let _ = writeln!(s, "  input {};", c.input_names().join(", "));
    let _ = writeln!(s, "  output {};", out_names.join(", "));
    let internal: Vec<String> = c
        .gates()
        .filter(|(id, _)| !c.is_output(*id))
        .map(|(_, g)| g.name.clone())
        .collect();
    if !internal.is_empty() {
        let _ = writeln!(s, "  wire {};", internal.join(", "));
    }
    for (i, (_, g)) in c.gates().enumerate() {
        let mut conns: Vec<String> = g
            .inputs
            .iter()
            .enumerate()
            .map(|(k, &sig)| format!(".{}({})", ["A", "B", "C", "D"][k], net_of(sig)))
            .collect();
        conns.push(format!(".Y({})", g.name));
        let _ = writeln!(s, "  {} u{} ({});", g.kind, i, conns.join(", "));
    }
    s.push_str("endmodule\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate;

    #[test]
    fn parse_minimal_named() {
        let text = "
module tiny (a, b, y);
  input a, b;
  output y;
  wire n1;
  NAND2 g1 (.A(a), .B(b), .Y(n1));
  INV g2 (.A(n1), .Y(y));
endmodule
";
        let c = parse(text).unwrap();
        assert_eq!(c.name(), "tiny");
        assert_eq!(c.num_gates(), 2);
        assert_eq!(c.num_inputs(), 2);
        c.validate().unwrap();
    }

    #[test]
    fn parse_positional_and_out_of_order() {
        // g2 declared before its fan-in driver; positional ports (Y first).
        let text = "
module ooo (a, y);
  input a;
  output y;
  wire n1;
  INV g2 (y, n1);
  INV g1 (n1, a);
endmodule
";
        let c = parse(text).unwrap();
        assert_eq!(c.num_gates(), 2);
        assert_eq!(c.depth(), 2);
    }

    #[test]
    fn comments_stripped() {
        let text = "
// top comment
module m (a, y); /* block
   spanning lines */
  input a;
  output y;
  INV g (.A(a), .Y(y)); // trailing
endmodule
";
        let c = parse(text).unwrap();
        assert_eq!(c.num_gates(), 1);
    }

    #[test]
    fn roundtrip_structures() {
        for circuit in [
            generate::tree7(),
            generate::fig2(),
            generate::ripple_carry_adder(3),
            generate::array_multiplier(3),
        ] {
            let text = to_verilog(&circuit);
            let back = parse(&text).unwrap();
            assert_eq!(back.num_gates(), circuit.num_gates(), "{}", circuit.name());
            assert_eq!(back.num_inputs(), circuit.num_inputs());
            assert_eq!(back.outputs().len(), circuit.outputs().len());
            assert_eq!(back.depth(), circuit.depth());
            let mut a: Vec<_> = circuit.gates().map(|(_, g)| g.kind).collect();
            let mut b: Vec<_> = back.gates().map(|(_, g)| g.kind).collect();
            a.sort();
            b.sort();
            assert_eq!(a, b);
        }
    }

    #[test]
    fn behavioural_rejected() {
        let text = "module m (a, y); input a; output y; assign y = ~a; endmodule";
        assert!(matches!(parse(text), Err(NetlistError::Parse(_))));
    }

    #[test]
    fn unknown_gate_rejected() {
        let text = "module m (a, y); input a; output y; FOO g (.A(a), .Y(y)); endmodule";
        assert!(matches!(parse(text), Err(NetlistError::Parse(_))));
    }

    #[test]
    fn cycle_rejected() {
        let text = "
module loopy (a, y);
  input a;
  output y;
  wire n1, n2;
  INV g1 (.A(n2), .Y(n1));
  INV g2 (.A(n1), .Y(n2));
  INV g3 (.A(n2), .Y(y));
endmodule
";
        assert!(matches!(parse(text), Err(NetlistError::Cycle(_))));
    }

    #[test]
    fn undriven_net_rejected() {
        let text = "module m (a, y); input a; output y; INV g (.A(ghost), .Y(y)); endmodule";
        assert!(matches!(parse(text), Err(NetlistError::Parse(_))));
    }

    #[test]
    fn missing_connection_rejected() {
        let text = "module m (a, y); input a; output y; NAND2 g (.A(a), .Y(y)); endmodule";
        assert!(matches!(parse(text), Err(NetlistError::Parse(_))));
    }

    #[test]
    fn duplicate_driver_rejected() {
        let text = "
module m (a, y);
  input a;
  output y;
  INV g1 (.A(a), .Y(y));
  INV g2 (.A(a), .Y(y));
endmodule
";
        assert!(matches!(parse(text), Err(NetlistError::DuplicateName(_))));
    }
}
