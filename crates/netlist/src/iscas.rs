//! ISCAS-85 netlist format reader and writer.
//!
//! The third classic benchmark interchange format (alongside BLIF and
//! structural Verilog), used by the c17/c432/.../c6288 circuits:
//!
//! ```text
//! # comment
//! INPUT(1)
//! INPUT(2)
//! OUTPUT(5)
//! 4 = NAND(1, 2)
//! 5 = NOT(4)
//! ```
//!
//! Gate names map to [`GateKind`] as `NOT -> Inv`, `BUFF -> Buf`,
//! `NAND/NOR` by arity (2-4), `AND -> And2`, `OR -> Or2`, `XOR -> Xor2`.
//! Wider NAND/NOR nodes than the library carries are rejected (the ISCAS
//! circuits use up to 9-input gates; remap those through
//! [`crate::blif`]'s decomposing importer if needed). Definitions may
//! appear in any order; cycles are rejected.

use crate::circuit::{Circuit, CircuitBuilder, NetlistError, Signal};
use crate::library::GateKind;
use std::collections::HashMap;
use std::fmt::Write as _;

/// Parses an ISCAS-85 netlist into a [`Circuit`].
///
/// # Errors
///
/// Returns [`NetlistError::Parse`] for malformed text or unsupported gate
/// types/arities, [`NetlistError::Cycle`] for combinational loops.
///
/// ```
/// use sgs_netlist::iscas;
/// let text = "
/// INPUT(a)
/// INPUT(b)
/// OUTPUT(y)
/// n1 = NAND(a, b)
/// y = NOT(n1)
/// ";
/// let c = iscas::parse(text)?;
/// assert_eq!(c.num_gates(), 2);
/// # Ok::<(), sgs_netlist::NetlistError>(())
/// ```
pub fn parse(text: &str) -> Result<Circuit, NetlistError> {
    let mut inputs: Vec<String> = Vec::new();
    let mut outputs: Vec<(String, usize)> = Vec::new();
    struct Node {
        kind: GateKind,
        fanins: Vec<String>,
        line: usize,
    }
    let mut nodes: HashMap<String, Node> = HashMap::new();
    let mut order: Vec<String> = Vec::new();

    for (ln, raw) in text.lines().enumerate() {
        let ln = ln + 1;
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("INPUT(") {
            let name = rest.trim_end_matches(')').trim();
            inputs.push(name.to_string());
        } else if let Some(rest) = line.strip_prefix("OUTPUT(") {
            let name = rest.trim_end_matches(')').trim();
            outputs.push((name.to_string(), ln));
        } else if let Some((lhs, rhs)) = line.split_once('=') {
            let out = lhs.trim().to_string();
            let rhs = rhs.trim();
            let open = rhs.find('(').ok_or_else(|| {
                NetlistError::Parse(format!("line {ln}: malformed definition of `{out}`"))
            })?;
            let func = rhs[..open].trim().to_uppercase();
            let body = rhs[open + 1..].trim_end_matches(')');
            let fanins: Vec<String> = body
                .split(',')
                .map(|t| t.trim().to_string())
                .filter(|t| !t.is_empty())
                .collect();
            let kind = kind_for(&func, fanins.len()).ok_or_else(|| {
                NetlistError::Parse(format!(
                    "line {ln}: unsupported gate `{func}` with {} inputs at `{out}`",
                    fanins.len()
                ))
            })?;
            let node = Node {
                kind,
                fanins,
                line: ln,
            };
            if nodes.insert(out.clone(), node).is_some() {
                return Err(NetlistError::DuplicateName(out));
            }
            order.push(out);
        } else {
            return Err(NetlistError::Parse(format!(
                "line {ln}: unrecognised line `{line}`"
            )));
        }
    }

    // Kahn topological sort (definitions may be out of order).
    let mut indeg: HashMap<&str, usize> = HashMap::new();
    let mut dependents: HashMap<&str, Vec<&str>> = HashMap::new();
    for name in &order {
        let mut deg = 0;
        for f in &nodes[name].fanins {
            if nodes.contains_key(f.as_str()) {
                deg += 1;
                dependents
                    .entry(f.as_str())
                    .or_default()
                    .push(name.as_str());
            } else if !inputs.iter().any(|i| i == f) {
                return Err(NetlistError::Parse(format!(
                    "line {}: signal `{f}` feeding `{name}` is neither an input nor defined",
                    nodes[name].line
                )));
            }
        }
        indeg.insert(name.as_str(), deg);
    }
    let mut ready: Vec<&str> = order
        .iter()
        .map(String::as_str)
        .filter(|n| indeg[n] == 0)
        .collect();
    let mut topo: Vec<&str> = Vec::with_capacity(order.len());
    while let Some(n) = ready.pop() {
        topo.push(n);
        if let Some(deps) = dependents.get(n) {
            for &d in deps {
                let e = indeg.get_mut(d).expect("dependent is a node");
                *e -= 1;
                if *e == 0 {
                    ready.push(d);
                }
            }
        }
    }
    if topo.len() != order.len() {
        let stuck = order
            .iter()
            .find(|n| indeg[n.as_str()] > 0)
            .cloned()
            .unwrap_or_default();
        return Err(NetlistError::Cycle(stuck));
    }

    let mut b = CircuitBuilder::new("iscas");
    let mut sig: HashMap<String, Signal> = HashMap::new();
    for i in &inputs {
        if sig.contains_key(i) {
            return Err(NetlistError::DuplicateName(i.clone()));
        }
        sig.insert(i.clone(), b.add_input(i.clone()));
    }
    for name in topo {
        let node = &nodes[name];
        let fanin_sigs: Vec<Signal> = node.fanins.iter().map(|f| sig[f.as_str()]).collect();
        let s = b.add_gate(node.kind, name, &fanin_sigs)?;
        sig.insert(name.to_string(), s);
    }
    for (o, ln) in &outputs {
        let s = *sig.get(o).ok_or_else(|| {
            NetlistError::Parse(format!("line {ln}: output `{o}` is never defined"))
        })?;
        b.mark_output(s)?;
    }
    b.build()
}

fn kind_for(func: &str, arity: usize) -> Option<GateKind> {
    match (func, arity) {
        ("NOT" | "INV", 1) => Some(GateKind::Inv),
        ("BUFF" | "BUF", 1) => Some(GateKind::Buf),
        ("NAND", 2) => Some(GateKind::Nand2),
        ("NAND", 3) => Some(GateKind::Nand3),
        ("NAND", 4) => Some(GateKind::Nand4),
        ("NOR", 2) => Some(GateKind::Nor2),
        ("NOR", 3) => Some(GateKind::Nor3),
        ("AND", 2) => Some(GateKind::And2),
        ("OR", 2) => Some(GateKind::Or2),
        ("XOR", 2) => Some(GateKind::Xor2),
        _ => None,
    }
}

fn func_for(kind: GateKind) -> &'static str {
    match kind {
        GateKind::Inv => "NOT",
        GateKind::Buf => "BUFF",
        GateKind::Nand2 | GateKind::Nand3 | GateKind::Nand4 => "NAND",
        GateKind::Nor2 | GateKind::Nor3 => "NOR",
        GateKind::And2 => "AND",
        GateKind::Or2 => "OR",
        GateKind::Xor2 => "XOR",
    }
}

/// Serialises a circuit to ISCAS-85 text; `parse(to_iscas(c))` round-trips
/// the structure and gate kinds.
pub fn to_iscas(c: &Circuit) -> String {
    let net_of = |sig: Signal| -> String {
        match sig {
            Signal::Pi(p) => c.input_names()[p].clone(),
            Signal::Gate(g) => c.gate(g).name.clone(),
        }
    };
    let mut s = String::new();
    let _ = writeln!(s, "# {}", c.name());
    for i in c.input_names() {
        let _ = writeln!(s, "INPUT({i})");
    }
    for &o in c.outputs() {
        let _ = writeln!(s, "OUTPUT({})", c.gate(o).name);
    }
    for (_, g) in c.gates() {
        let ins: Vec<String> = g.inputs.iter().map(|&x| net_of(x)).collect();
        let _ = writeln!(s, "{} = {}({})", g.name, func_for(g.kind), ins.join(", "));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate;

    /// The genuine ISCAS-85 c17 netlist (6 NAND2 gates).
    const C17: &str = "
# c17
INPUT(1)
INPUT(2)
INPUT(3)
INPUT(6)
INPUT(7)
OUTPUT(22)
OUTPUT(23)
10 = NAND(1, 3)
11 = NAND(3, 6)
16 = NAND(2, 11)
19 = NAND(11, 7)
22 = NAND(10, 16)
23 = NAND(16, 19)
";

    #[test]
    fn parses_c17() {
        let c = parse(C17).unwrap();
        c.validate().unwrap();
        assert_eq!(c.num_inputs(), 5);
        assert_eq!(c.num_gates(), 6);
        assert_eq!(c.outputs().len(), 2);
        assert_eq!(c.depth(), 3);
        for (_, g) in c.gates() {
            assert_eq!(g.kind, GateKind::Nand2);
        }
    }

    #[test]
    fn c17_reconverges_through_shared_gates() {
        // Gate 11 fans out to 16 and 19, and 16 to both outputs — the
        // structure the statistical analyses care about survives import.
        let c = parse(C17).unwrap();
        let g11 = c.gates().find(|(_, g)| g.name == "11").unwrap().0;
        let g16 = c.gates().find(|(_, g)| g.name == "16").unwrap().0;
        assert_eq!(c.fanout(g11).len(), 2);
        assert_eq!(c.fanout(g16).len(), 2);
    }

    #[test]
    fn out_of_order_definitions() {
        let text = "
INPUT(a)
OUTPUT(y)
y = NOT(n1)
n1 = NOT(a)
";
        let c = parse(text).unwrap();
        assert_eq!(c.depth(), 2);
    }

    #[test]
    fn roundtrip_structures() {
        for circuit in [generate::tree7(), generate::ripple_carry_adder(3)] {
            let text = to_iscas(&circuit);
            let back = parse(&text).unwrap();
            assert_eq!(back.num_gates(), circuit.num_gates());
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
    fn wide_gate_rejected() {
        let text = "
INPUT(a)
INPUT(b)
INPUT(c)
INPUT(d)
INPUT(e)
OUTPUT(y)
y = NAND(a, b, c, d, e)
";
        assert!(matches!(parse(text), Err(NetlistError::Parse(_))));
    }

    #[test]
    fn cycle_rejected() {
        let text = "
INPUT(a)
OUTPUT(y)
x = NOT(y)
y = NOT(x)
";
        assert!(matches!(parse(text), Err(NetlistError::Cycle(_))));
    }

    #[test]
    fn unknown_signal_rejected() {
        let text = "INPUT(a)\nOUTPUT(y)\ny = NOT(ghost)\n";
        assert!(matches!(parse(text), Err(NetlistError::Parse(_))));
    }
}
