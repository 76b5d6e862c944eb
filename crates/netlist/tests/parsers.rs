//! Parser contract battery: round-trips and malformed-input diagnostics.
//!
//! Two obligations are pinned here for every text format the crate reads
//! (BLIF, ISCAS-85, structural Verilog):
//!
//! 1. **Round-trip + elaboration**: serialising a known-good circuit and
//!    parsing it back yields a structurally equivalent circuit that passes
//!    `Circuit::validate` and comes out of the `sgs-analyze` stage-1
//!    linters with zero diagnostics.
//! 2. **Malformed input**: truncated or garbled text fails with a
//!    *structured* error whose message carries the **line number** of the
//!    offending construct (`"line N: ..."` with the correct `N`), so a
//!    user editing a thousand-line netlist is pointed at the right spot.

use sgs_analyze::stage1;
use sgs_netlist::generate::{self, RandomDagSpec};
use sgs_netlist::{blif, iscas, verilog, Circuit, Library, NetlistError};

fn lib() -> Library {
    Library::paper_default()
}

/// Reference circuits covering tree, reconvergent and random shapes.
fn specimens() -> Vec<Circuit> {
    vec![
        generate::tree7(),
        generate::ripple_carry_adder(4),
        generate::random_dag(&RandomDagSpec {
            name: "parsers_dag".to_string(),
            cells: 35,
            inputs: 7,
            depth: 6,
            seed: 17,
            ..Default::default()
        }),
    ]
}

/// Structural equivalence strong enough for round-trip checks: same
/// counts, same depth, same multiset of gate kinds.
fn assert_same_structure(a: &Circuit, b: &Circuit) {
    assert_eq!(a.num_inputs(), b.num_inputs(), "input count");
    assert_eq!(a.num_gates(), b.num_gates(), "gate count");
    assert_eq!(a.outputs().len(), b.outputs().len(), "output count");
    assert_eq!(a.depth(), b.depth(), "logic depth");
    let mut ka: Vec<_> = a.gates().map(|(_, g)| g.kind).collect();
    let mut kb: Vec<_> = b.gates().map(|(_, g)| g.kind).collect();
    ka.sort();
    kb.sort();
    assert_eq!(ka, kb, "gate-kind multiset");
}

/// A well-formed circuit must elaborate stage-1 clean: `validate` passes
/// and the structural linters have nothing to say.
fn assert_stage1_clean(c: &Circuit) {
    c.validate().expect("round-tripped circuit validates");
    let diags = stage1::circuit_lints(c, &lib());
    assert!(
        diags.is_empty(),
        "stage-1 lints on well-formed circuit: {diags:?}"
    );
}

/// Unwraps a parse failure into its message, asserting the structured
/// variant and the `"line N:"` prefix with the *correct* line number.
fn parse_error_at_line(res: Result<Circuit, NetlistError>, line: usize) -> String {
    match res {
        Err(NetlistError::Parse(msg)) => {
            let want = format!("line {line}:");
            assert!(
                msg.starts_with(&want),
                "expected `{want}` prefix, got: {msg}"
            );
            msg
        }
        other => panic!("expected NetlistError::Parse, got {other:?}"),
    }
}

// ---------------------------------------------------------------------------
// Round trips: parse → elaborate → stage-1 clean.
// ---------------------------------------------------------------------------

#[test]
fn iscas_roundtrip_elaborates_stage1_clean() {
    for c in specimens() {
        let back = iscas::parse(&iscas::to_iscas(&c)).expect("iscas round-trip parses");
        assert_same_structure(&c, &back);
        assert_stage1_clean(&back);
    }
}

#[test]
fn verilog_roundtrip_elaborates_stage1_clean() {
    for c in specimens() {
        let back = verilog::parse(&verilog::to_verilog(&c)).expect("verilog round-trip parses");
        assert_same_structure(&c, &back);
        assert_stage1_clean(&back);
    }
}

#[test]
fn blif_roundtrip_elaborates_stage1_clean() {
    for c in specimens() {
        let text = blif::to_blif(&c);
        // The raw-text linters see nothing wrong with our own output...
        let raw = stage1::raw_netlist_lints(&text);
        assert!(raw.is_empty(), "raw BLIF lints on own output: {raw:?}");
        // ...and neither do the structural linters after elaboration.
        let back = blif::parse(&text).expect("blif round-trip parses");
        assert_same_structure(&c, &back);
        assert_stage1_clean(&back);
    }
}

#[test]
fn cross_format_chain_preserves_structure() {
    // iscas → verilog → blif → back: three serialisers in a row must not
    // lose structure or introduce lint findings.
    let c = generate::ripple_carry_adder(3);
    let via_iscas = iscas::parse(&iscas::to_iscas(&c)).unwrap();
    let via_verilog = verilog::parse(&verilog::to_verilog(&via_iscas)).unwrap();
    let via_blif = blif::parse(&blif::to_blif(&via_verilog)).unwrap();
    assert_same_structure(&c, &via_blif);
    assert_stage1_clean(&via_blif);
}

// ---------------------------------------------------------------------------
// Malformed ISCAS-85: structured errors with line numbers.
// ---------------------------------------------------------------------------

#[test]
fn iscas_malformed_definition_reports_line() {
    let text = "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = NAND a, b\n";
    let msg = parse_error_at_line(iscas::parse(text), 4);
    assert!(msg.contains("malformed definition"), "{msg}");
    assert!(msg.contains('y'), "{msg}");
}

#[test]
fn iscas_unsupported_gate_reports_line() {
    let text = "INPUT(a)\nINPUT(b)\nOUTPUT(y)\n\n\ny = XNOR(a, b)\n";
    let msg = parse_error_at_line(iscas::parse(text), 6);
    assert!(msg.contains("unsupported gate `XNOR`"), "{msg}");
}

#[test]
fn iscas_garbled_line_reports_line() {
    let text = "INPUT(a)\nOUTPUT(y)\n%%% not iscas at all\ny = NOT(a)\n";
    let msg = parse_error_at_line(iscas::parse(text), 3);
    assert!(msg.contains("unrecognised line"), "{msg}");
}

#[test]
fn iscas_undefined_fanin_reports_definition_line() {
    // The error points at the *definition* that references the ghost
    // signal, not at end-of-file.
    let text = "INPUT(a)\nOUTPUT(y)\n# comment\nn1 = NOT(a)\ny = NAND(n1, ghost)\n";
    let msg = parse_error_at_line(iscas::parse(text), 5);
    assert!(msg.contains("`ghost` feeding `y`"), "{msg}");
}

#[test]
fn iscas_undefined_output_reports_declaration_line() {
    let text = "INPUT(a)\nOUTPUT(z)\ny = NOT(a)\n";
    let msg = parse_error_at_line(iscas::parse(text), 2);
    assert!(msg.contains("output `z` is never defined"), "{msg}");
}

#[test]
fn iscas_truncated_file_reports_line() {
    // File cut off mid-definition: the right-hand side never opens its
    // parenthesis list.
    let text = "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = NA";
    let msg = parse_error_at_line(iscas::parse(text), 4);
    assert!(msg.contains("malformed definition of `y`"), "{msg}");
}

// ---------------------------------------------------------------------------
// Malformed Verilog: structured errors with line numbers.
// ---------------------------------------------------------------------------

#[test]
fn verilog_behavioural_construct_reports_line() {
    let text = "module bad (a, y);\n  input a;\n  output y;\n  assign y = ~a;\nendmodule\n";
    let msg = parse_error_at_line(verilog::parse(text), 4);
    assert!(msg.contains("behavioural construct `assign`"), "{msg}");
}

#[test]
fn verilog_unknown_gate_reports_line() {
    let text =
        "module bad (a, y);\n  input a;\n  output y;\n  XNOR9 g1 (.A(a), .Y(y));\nendmodule\n";
    let msg = parse_error_at_line(verilog::parse(text), 4);
    assert!(msg.contains("unknown gate type `XNOR9`"), "{msg}");
}

#[test]
fn verilog_block_comment_does_not_shift_line_numbers() {
    // The multi-line block comment spans lines 2-4; the bad instance sits
    // on line 7 and must be reported there, not three lines early.
    let text = "module bad (a, y);\n  /* multi\n     line\n     comment */\n  input a;\n  output y;\n  FROB g1 (.A(a), .Y(y));\nendmodule\n";
    let msg = parse_error_at_line(verilog::parse(text), 7);
    assert!(msg.contains("unknown gate type `FROB`"), "{msg}");
}

#[test]
fn verilog_undriven_net_reports_instance_line() {
    let text =
        "module bad (a, y);\n  input a;\n  output y;\n  INV g1 (.A(ghost), .Y(y));\nendmodule\n";
    let msg = parse_error_at_line(verilog::parse(text), 4);
    assert!(msg.contains("`ghost` feeding `g1`"), "{msg}");
}

#[test]
fn verilog_undriven_output_reports_declaration_line() {
    let text = "module bad (a, y);\n  input a;\n  output y;\nendmodule\n";
    let msg = parse_error_at_line(verilog::parse(text), 3);
    assert!(msg.contains("output `y` is never driven"), "{msg}");
}

#[test]
fn verilog_truncated_instance_reports_line() {
    // File ends mid-instance (no output port, no semicolon, no
    // endmodule) — a classic truncated download.
    let text = "module bad (a, y);\n  input a;\n  output y;\n  INV g1 (.A(a)";
    let msg = parse_error_at_line(verilog::parse(text), 4);
    assert!(!msg.is_empty());
}

#[test]
fn verilog_close_before_open_reports_line() {
    // The last `)` of the port list comes before its first `(`: a
    // garbled instance, not a slice to take.
    let text =
        "module bad (a0, b0, y);\n  input a0, b0;\n  output y;\n  XOR2 u0 a0), .B(b0;\nendmodule\n";
    let msg = parse_error_at_line(verilog::parse(text), 4);
    assert!(msg.contains("unterminated port list"), "{msg}");
}
