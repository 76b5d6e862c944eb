//! Stage 1: structural netlist lints.
//!
//! Two entry points at two abstraction levels:
//!
//! * [`raw_netlist_lints`] scans BLIF text *tolerantly* — unlike
//!   [`sgs_netlist::blif::parse`], which stops at the first error, the
//!   scanner keeps going and reports every structural problem it can
//!   find, including a concrete witness path for each combinational
//!   cycle.
//! * [`circuit_lints`] checks an already-elaborated [`Circuit`] (e.g. a
//!   generated paper circuit) plus its [`Library`] for the findings that
//!   survive elaboration: observability/reachability warnings and
//!   non-positive electrical coefficients.

use crate::{Diagnostic, Severity};
use sgs_netlist::{Circuit, GateKind, Library, Signal};
use std::collections::{HashMap, HashSet};

fn diag(
    severity: Severity,
    code: &'static str,
    location: String,
    message: String,
    data: Vec<(&'static str, String)>,
) -> Diagnostic {
    Diagnostic {
        severity,
        code,
        location,
        message,
        data,
    }
}

/// One `.names` block as scanned from raw text.
struct RawNode {
    name: String,
    fanins: Vec<String>,
    line: usize,
}

/// Tolerant structural scan of BLIF text (codes `SGS-S001`..`SGS-S005`).
pub fn raw_netlist_lints(text: &str) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let mut inputs: Vec<String> = Vec::new();
    let mut outputs: Vec<(String, usize)> = Vec::new();
    let mut nodes: Vec<RawNode> = Vec::new();

    // Join continuation lines, tracking the starting line number of each.
    let mut logical: Vec<(usize, String)> = Vec::new();
    let mut acc = String::new();
    let mut acc_start = 0usize;
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.trim_end();
        if acc.is_empty() {
            acc_start = lineno + 1;
        }
        if let Some(stripped) = line.strip_suffix('\\') {
            acc.push_str(stripped);
            acc.push(' ');
        } else {
            acc.push_str(line);
            logical.push((acc_start, std::mem::take(&mut acc)));
        }
    }
    if !acc.trim().is_empty() {
        logical.push((acc_start, acc));
    }

    for (lineno, line) in &logical {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut tokens = line.split_whitespace();
        let head = tokens.next().expect("non-empty line has a token");
        match head {
            ".inputs" => inputs.extend(tokens.map(str::to_string)),
            ".outputs" => outputs.extend(tokens.map(|t| (t.to_string(), *lineno))),
            ".names" => {
                let names: Vec<String> = tokens.map(str::to_string).collect();
                if let Some((out_name, fanins)) = names.split_last() {
                    nodes.push(RawNode {
                        name: out_name.clone(),
                        fanins: fanins.to_vec(),
                        line: *lineno,
                    });
                }
            }
            ".end" => break,
            _ => {}
        }
    }

    let input_set: HashSet<&str> = inputs.iter().map(String::as_str).collect();

    // Duplicate input names (SGS-S004).
    let mut seen_inputs: HashSet<&str> = HashSet::new();
    for i in &inputs {
        if !seen_inputs.insert(i) {
            out.push(diag(
                Severity::Error,
                "SGS-S004",
                format!("input `{i}`"),
                format!("primary input `{i}` is declared more than once"),
                vec![],
            ));
        }
    }

    // Duplicate gate names (SGS-S004) and multiply-driven nets (SGS-S003).
    let mut driver_count: HashMap<&str, usize> = HashMap::new();
    for n in &nodes {
        *driver_count.entry(n.name.as_str()).or_insert(0) += 1;
    }
    for (name, count) in &driver_count {
        if *count > 1 {
            out.push(diag(
                Severity::Error,
                "SGS-S004",
                format!("gate `{name}`"),
                format!("gate name `{name}` is defined by {count} .names blocks"),
                vec![("drivers", count.to_string())],
            ));
        }
        if input_set.contains(name) {
            out.push(diag(
                Severity::Error,
                "SGS-S003",
                format!("net `{name}`"),
                format!("net `{name}` is driven by both a primary input and a gate"),
                vec![],
            ));
        }
    }

    // Undriven fan-ins (SGS-S002).
    let node_set: HashSet<&str> = nodes.iter().map(|n| n.name.as_str()).collect();
    let mut reported_undriven: HashSet<&str> = HashSet::new();
    for n in &nodes {
        for f in &n.fanins {
            if !input_set.contains(f.as_str())
                && !node_set.contains(f.as_str())
                && reported_undriven.insert(f.as_str())
            {
                out.push(diag(
                    Severity::Error,
                    "SGS-S002",
                    format!("net `{f}`"),
                    format!("net `{f}` feeding gate `{}` has no driver", n.name),
                    vec![("consumer", n.name.clone()), ("line", n.line.to_string())],
                ));
            }
        }
    }

    // Undefined primary outputs (SGS-S005).
    for (o, lineno) in &outputs {
        if !node_set.contains(o.as_str()) && !input_set.contains(o.as_str()) {
            out.push(diag(
                Severity::Error,
                "SGS-S005",
                format!("output `{o}`"),
                format!("primary output `{o}` is never defined"),
                vec![("line", lineno.to_string())],
            ));
        }
    }

    // Combinational cycles with witness (SGS-S001): iterative DFS over the
    // node graph, extracting the cycle path from the DFS stack on each
    // back edge. One report per distinct cycle entry node.
    let index_of: HashMap<&str, usize> = nodes
        .iter()
        .enumerate()
        .map(|(i, n)| (n.name.as_str(), i))
        .collect();
    let adj: Vec<Vec<usize>> = nodes
        .iter()
        .map(|n| {
            n.fanins
                .iter()
                .filter_map(|f| index_of.get(f.as_str()).copied())
                .collect()
        })
        .collect();
    let mut color = vec![0u8; nodes.len()]; // 0 white, 1 on stack, 2 done
    let mut in_reported_cycle = vec![false; nodes.len()];
    for start in 0..nodes.len() {
        if color[start] != 0 {
            continue;
        }
        // Stack of (node, next-edge-index); `path` mirrors the grey chain.
        let mut stack: Vec<(usize, usize)> = vec![(start, 0)];
        let mut path: Vec<usize> = vec![start];
        color[start] = 1;
        while let Some(&mut (v, ref mut ei)) = stack.last_mut() {
            if *ei < adj[v].len() {
                let w = adj[v][*ei];
                *ei += 1;
                match color[w] {
                    0 => {
                        color[w] = 1;
                        stack.push((w, 0));
                        path.push(w);
                    }
                    1 => {
                        let pos = path.iter().position(|&p| p == w).expect("grey is on path");
                        let cycle: Vec<usize> = path[pos..].to_vec();
                        if !cycle.iter().any(|&c| in_reported_cycle[c]) {
                            for &c in &cycle {
                                in_reported_cycle[c] = true;
                            }
                            let mut witness: Vec<&str> =
                                cycle.iter().map(|&c| nodes[c].name.as_str()).collect();
                            witness.push(nodes[w].name.as_str());
                            out.push(diag(
                                Severity::Error,
                                "SGS-S001",
                                format!("gate `{}`", nodes[w].name),
                                format!(
                                    "combinational cycle of {} gate(s) through `{}`",
                                    cycle.len(),
                                    nodes[w].name
                                ),
                                vec![
                                    ("cycle", witness.join(" -> ")),
                                    ("length", cycle.len().to_string()),
                                ],
                            ));
                        }
                    }
                    _ => {}
                }
            } else {
                color[v] = 2;
                stack.pop();
                path.pop();
            }
        }
    }

    // Reachability from primary inputs (SGS-S006): a node is fed if every
    // path below it bottoms out in an input. Cyclic nodes are already
    // errors; flag only acyclic nodes whose cone never reaches an input.
    let mut reaches_input = vec![false; nodes.len()];
    for (i, n) in nodes.iter().enumerate() {
        if n.fanins.iter().any(|f| input_set.contains(f.as_str())) {
            reaches_input[i] = true;
        }
    }
    // Propagate forward until fixpoint (node graph is small; O(V*E) fine).
    let mut changed = true;
    while changed {
        changed = false;
        for (i, edges) in adj.iter().enumerate() {
            if !reaches_input[i] && edges.iter().any(|&w| reaches_input[w]) {
                reaches_input[i] = true;
                changed = true;
            }
        }
    }
    for (i, n) in nodes.iter().enumerate() {
        if !reaches_input[i] && !in_reported_cycle[i] {
            out.push(diag(
                Severity::Warning,
                "SGS-S006",
                format!("gate `{}`", n.name),
                format!("gate `{}` is unreachable from every primary input", n.name),
                vec![("line", n.line.to_string())],
            ));
        }
    }

    // Observability (SGS-S007) and zero fan-out (SGS-S008).
    let output_set: HashSet<&str> = outputs.iter().map(|(o, _)| o.as_str()).collect();
    let mut consumers: Vec<Vec<usize>> = vec![Vec::new(); nodes.len()];
    for (i, edges) in adj.iter().enumerate() {
        for &w in edges {
            consumers[w].push(i);
        }
    }
    let mut observable = vec![false; nodes.len()];
    let mut work: Vec<usize> = nodes
        .iter()
        .enumerate()
        .filter(|(_, n)| output_set.contains(n.name.as_str()))
        .map(|(i, _)| i)
        .collect();
    for &i in &work {
        observable[i] = true;
    }
    while let Some(i) = work.pop() {
        for &w in &adj[i] {
            if !observable[w] {
                observable[w] = true;
                work.push(w);
            }
        }
    }
    for (i, n) in nodes.iter().enumerate() {
        if output_set.contains(n.name.as_str()) {
            continue;
        }
        if consumers[i].is_empty() {
            out.push(diag(
                Severity::Warning,
                "SGS-S008",
                format!("gate `{}`", n.name),
                format!(
                    "gate `{}` drives nothing and is not a primary output",
                    n.name
                ),
                vec![("line", n.line.to_string())],
            ));
        } else if !observable[i] {
            out.push(diag(
                Severity::Warning,
                "SGS-S007",
                format!("gate `{}`", n.name),
                format!("gate `{}` is not observable at any primary output", n.name),
                vec![("line", n.line.to_string())],
            ));
        }
    }

    out
}

/// Structural lints over an elaborated circuit and its library (codes
/// `SGS-S006`..`SGS-S009`; the parse-level codes cannot occur here —
/// [`Circuit`] is acyclic and uniquely named by construction).
pub fn circuit_lints(circuit: &Circuit, lib: &Library) -> Vec<Diagnostic> {
    let mut out = Vec::new();

    // Library coefficients (SGS-S009): the delay model divides by `S` and
    // multiplies by `c` and `C_in`; non-positive values invert the
    // size/delay trade-off the whole NLP is built on.
    if lib.c <= 0.0 {
        out.push(diag(
            Severity::Error,
            "SGS-S009",
            "library".to_string(),
            format!("technology constant c = {} is not positive", lib.c),
            vec![("c", lib.c.to_string())],
        ));
    }
    let used_kinds: HashSet<GateKind> = circuit.gates().map(|(_, g)| g.kind).collect();
    let mut kinds: Vec<GateKind> = used_kinds.into_iter().collect();
    kinds.sort();
    for kind in kinds {
        let p = lib.params(kind);
        if p.c_in <= 0.0 {
            out.push(diag(
                Severity::Error,
                "SGS-S009",
                format!("library entry {kind}"),
                format!("gate kind {kind} has non-positive C_in = {}", p.c_in),
                vec![("c_in", p.c_in.to_string())],
            ));
        }
        if p.t_int <= 0.0 {
            // Zero internal delay keeps the model well-posed (delay is
            // then purely load-driven), so this is suspicious, not fatal.
            out.push(diag(
                Severity::Warning,
                "SGS-S009",
                format!("library entry {kind}"),
                format!("gate kind {kind} has non-positive t_int = {}", p.t_int),
                vec![("t_int", p.t_int.to_string())],
            ));
        }
    }

    // Reachability from primary inputs (SGS-S006). Topological storage
    // makes every gate reachable in practice; this is a defensive check
    // for hand-built `from_parts` circuits.
    let n = circuit.num_gates();
    let mut reaches_input = vec![false; n];
    for (id, gate) in circuit.gates() {
        reaches_input[id.index()] = gate.inputs.iter().any(|&s| match s {
            Signal::Pi(_) => true,
            Signal::Gate(src) => reaches_input[src.index()],
        });
        if !reaches_input[id.index()] {
            out.push(diag(
                Severity::Warning,
                "SGS-S006",
                format!("gate `{}`", gate.name),
                format!(
                    "gate `{}` is unreachable from every primary input",
                    gate.name
                ),
                vec![("gate", id.index().to_string())],
            ));
        }
    }

    // Observability (SGS-S007) and zero fan-out (SGS-S008).
    let mut observable = vec![false; n];
    let mut work: Vec<usize> = circuit.outputs().iter().map(|o| o.index()).collect();
    for &i in &work {
        observable[i] = true;
    }
    while let Some(i) = work.pop() {
        for &s in &circuit.gate(sgs_netlist::GateId(i)).inputs {
            if let Signal::Gate(src) = s {
                if !observable[src.index()] {
                    observable[src.index()] = true;
                    work.push(src.index());
                }
            }
        }
    }
    for (id, gate) in circuit.gates() {
        if circuit.is_output(id) {
            continue;
        }
        if circuit.fanout(id).len() == 0 {
            out.push(diag(
                Severity::Warning,
                "SGS-S008",
                format!("gate `{}`", gate.name),
                format!(
                    "gate `{}` drives nothing and is not a primary output",
                    gate.name
                ),
                vec![("gate", id.index().to_string())],
            ));
        } else if !observable[id.index()] {
            out.push(diag(
                Severity::Warning,
                "SGS-S007",
                format!("gate `{}`", gate.name),
                format!(
                    "gate `{}` is not observable at any primary output",
                    gate.name
                ),
                vec![("gate", id.index().to_string())],
            ));
        }
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgs_netlist::{generate, CircuitBuilder, GateParams};

    fn codes(diags: &[Diagnostic]) -> Vec<&'static str> {
        diags.iter().map(|d| d.code).collect()
    }

    #[test]
    fn clean_blif_has_no_findings() {
        let text = sgs_netlist::blif::to_blif(&generate::tree7());
        assert!(raw_netlist_lints(&text).is_empty());
    }

    #[test]
    fn cycle_reported_with_witness() {
        let text = "\
.model loopy
.inputs a
.outputs y
.names a x y
11 1
.names y z x
11 1
.names x z
1 1
.end
";
        let diags = raw_netlist_lints(text);
        let cycle = diags.iter().find(|d| d.code == "SGS-S001").expect("cycle");
        assert_eq!(cycle.severity, Severity::Error);
        let witness = &cycle.data.iter().find(|(k, _)| *k == "cycle").unwrap().1;
        // The witness walks fan-in edges, so it names each cycle member
        // once plus the closing repeat.
        assert!(witness.matches("->").count() >= 2, "witness {witness}");
    }

    #[test]
    fn undriven_multiply_driven_duplicate_and_undefined_output() {
        let text = "\
.model bad
.inputs a b
.outputs y zz
.names a ghost y
11 1
.names a b
1 1
.names a dup
1 1
.names b dup
1 1
.end
";
        let diags = raw_netlist_lints(text);
        let c = codes(&diags);
        assert!(c.contains(&"SGS-S002"), "undriven: {diags:?}"); // ghost
        assert!(c.contains(&"SGS-S003"), "multiply-driven: {diags:?}"); // b
        assert!(c.contains(&"SGS-S004"), "duplicate: {diags:?}"); // dup
        assert!(c.contains(&"SGS-S005"), "undefined output: {diags:?}"); // zz
    }

    #[test]
    fn zero_fanout_and_unobservable_warned() {
        let text = "\
.model w
.inputs a b
.outputs y
.names a b y
11 1
.names a b dead
11 1
.names dead deadder
1 1
.names deadder sink
1 1
.end
";
        let diags = raw_netlist_lints(text);
        let c = codes(&diags);
        assert!(c.contains(&"SGS-S008"), "{diags:?}"); // sink: no consumers
        assert!(c.contains(&"SGS-S007"), "{diags:?}"); // dead/deadder feed only sink
        assert!(diags.iter().all(|d| d.severity == Severity::Warning));
    }

    #[test]
    fn circuit_lints_clean_on_generated() {
        let lib = Library::paper_default();
        for c in [generate::tree7(), generate::fig2()] {
            assert!(circuit_lints(&c, &lib).is_empty(), "{}", c.name());
        }
    }

    #[test]
    fn negative_c_in_is_error() {
        let lib = Library::paper_default().with_params(
            sgs_netlist::GateKind::Nand2,
            GateParams {
                t_int: 0.9,
                c_in: -0.6,
            },
        );
        let diags = circuit_lints(&generate::tree7(), &lib);
        assert!(codes(&diags).contains(&"SGS-S009"), "{diags:?}");
        assert!(diags.iter().any(|d| d.severity == Severity::Error));
    }

    #[test]
    fn unobservable_gate_in_circuit_warned() {
        let mut b = CircuitBuilder::new("dangling");
        let a = b.add_input("a");
        let g1 = b.add_gate(GateKind::Inv, "g1", &[a]).unwrap();
        let _dead = b.add_gate(GateKind::Inv, "dead", &[g1]).unwrap();
        let g2 = b.add_gate(GateKind::Inv, "g2", &[g1]).unwrap();
        b.mark_output(g2).unwrap();
        let c = b.build().unwrap();
        let diags = circuit_lints(&c, &Library::paper_default());
        assert!(codes(&diags).contains(&"SGS-S008"), "{diags:?}");
    }
}
