//! Never-panic battery for the three netlist parsers: seeded mutations of
//! well-formed BLIF, ISCAS-85 and structural Verilog texts — deleted
//! spans, truncations, inserted tokens and lines rewritten as token soup
//! after their first word — must each parse or fail with a
//! [`NetlistError`], never panic.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sgs_netlist::generate::{self, RandomDagSpec};
use sgs_netlist::{blif, iscas, verilog, Circuit, NetlistError};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Tokens the mutations insert: the punctuation and keywords of all three
/// formats, so a mutation can open, close or split any construct.
const TOKENS: &[&str] = &[
    "(",
    ")",
    ",",
    ";",
    ".",
    "=",
    "#",
    "\n",
    " ",
    "//",
    "/*",
    "*/",
    ".A(",
    ".Y(",
    "a0),",
    ".B(b0",
    "INPUT(",
    "OUTPUT(",
    "NAND(",
    "NOT(",
    ".model",
    ".inputs",
    ".outputs",
    ".names",
    ".end",
    "0",
    "1",
    "-",
    "11 1",
    "module",
    "endmodule",
    "input",
    "output",
    "wire",
    "NAND2",
    "INV",
    "XOR2",
    "u0",
    "é",
];

fn specimens() -> Vec<Circuit> {
    vec![
        generate::tree7(),
        generate::ripple_carry_adder(3),
        generate::random_dag(&RandomDagSpec {
            name: "never_panic".to_string(),
            cells: 24,
            inputs: 5,
            depth: 5,
            seed: 31,
            ..Default::default()
        }),
    ]
}

/// The byte offset of a random char boundary of `text`.
fn boundary(rng: &mut StdRng, text: &str) -> usize {
    let mut at = rng.gen_range(0..text.len() + 1);
    while !text.is_char_boundary(at) {
        at -= 1;
    }
    at
}

/// A random token of [`TOKENS`].
fn token(rng: &mut StdRng) -> &'static str {
    TOKENS[rng.gen_range(0..TOKENS.len())]
}

/// `text` with one random line rewritten as its first word followed by
/// one to six random tokens: the statement keeps its kind (a gate type,
/// a `.names`, an `INPUT(`) but its body is garbled.
fn rewrite_line(rng: &mut StdRng, text: &str) -> String {
    let lines: Vec<&str> = text.lines().collect();
    let pick = rng.gen_range(0..lines.len());
    let mut out = String::new();
    for (i, line) in lines.iter().enumerate() {
        if i == pick {
            out.push_str(line.split_whitespace().next().unwrap_or(""));
            for _ in 0..rng.gen_range(1..7) {
                out.push(' ');
                out.push_str(token(rng));
            }
        } else {
            out.push_str(line);
        }
        out.push('\n');
    }
    out
}

/// One to three random edits of `text`: a deleted span, a truncation, an
/// inserted token or a rewritten line.
fn mutate(rng: &mut StdRng, text: &str) -> String {
    let mut out = text.to_string();
    for _ in 0..rng.gen_range(1..4) {
        if out.is_empty() {
            break;
        }
        let at = boundary(rng, &out);
        match rng.gen_range(0..4) {
            0 => {
                let len: usize = rng.gen_range(1..12);
                let mut end = (at + len).min(out.len());
                while !out.is_char_boundary(end) {
                    end += 1;
                }
                out.replace_range(at..end, "");
            }
            1 => out.truncate(at),
            2 => out.insert_str(at, token(rng)),
            _ => out = rewrite_line(rng, &out),
        }
    }
    out
}

fn assert_never_panics(
    format: &str,
    parse: fn(&str) -> Result<Circuit, NetlistError>,
    write: fn(&Circuit) -> String,
    seed: u64,
) {
    let mut rng = StdRng::seed_from_u64(seed);
    let (mut parsed, mut rejected) = (0usize, 0usize);
    for c in specimens() {
        let text = write(&c);
        parse(&text).unwrap_or_else(|e| panic!("{format} {}: {e}", c.name()));
        for _ in 0..1_500 {
            let mutant = mutate(&mut rng, &text);
            match catch_unwind(AssertUnwindSafe(|| parse(&mutant))) {
                Ok(Ok(_)) => parsed += 1,
                Ok(Err(_)) => rejected += 1,
                Err(_) => panic!("{format} parser panicked on:\n{mutant}"),
            }
        }
    }
    // The mutations must reach the error paths, not only harmless spots.
    assert!(
        rejected > 100,
        "{format}: {rejected} rejected, {parsed} parsed"
    );
}

#[test]
fn blif_never_panics_on_mutated_text() {
    assert_never_panics("blif", blif::parse, blif::to_blif, 0xb1f);
}

#[test]
fn iscas_never_panics_on_mutated_text() {
    assert_never_panics("iscas", iscas::parse, iscas::to_iscas, 0x15ca5);
}

#[test]
fn verilog_never_panics_on_mutated_text() {
    assert_never_panics("verilog", verilog::parse, verilog::to_verilog, 0x7e71);
}
