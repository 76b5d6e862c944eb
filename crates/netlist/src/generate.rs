//! Circuit constructors: the paper's example circuits plus deterministic
//! synthetic benchmarks.
//!
//! The DATE 2000 paper evaluates on three MCNC benchmark circuits (apex1 =
//! 982 cells, apex2 = 117 cells, k2 = 1692 cells). Those netlists are not
//! redistributable here, so [`benchmark_suite`] generates seeded random
//! DAGs matched to the paper's cell counts and approximate logic depths —
//! the two properties the paper's conclusions (solvability at scale,
//! relative behaviour of objectives) actually depend on. Real BLIF
//! netlists can be used instead via [`crate::blif`].

use crate::circuit::{Circuit, CircuitBuilder, GateId, Signal};
use crate::library::GateKind;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The 7-NAND tree circuit of the paper's Figure 3.
///
/// Gates are named `A`..`G` in the paper's order: leaves `A, B` feed `C`;
/// leaves `D, E` feed `F`; `C, F` feed the single output `G`. Table 2 and
/// Table 3 of the paper are measured on this circuit.
///
/// ```
/// use sgs_netlist::generate::tree7;
/// let c = tree7();
/// assert_eq!(c.num_gates(), 7);
/// assert_eq!(c.depth(), 3);
/// ```
pub fn tree7() -> Circuit {
    let mut b = CircuitBuilder::new("tree7");
    let pis: Vec<Signal> = (0..8).map(|i| b.add_input(format!("i{i}"))).collect();
    let a = b
        .add_gate(GateKind::Nand2, "A", &[pis[0], pis[1]])
        .expect("valid");
    let bb = b
        .add_gate(GateKind::Nand2, "B", &[pis[2], pis[3]])
        .expect("valid");
    let c = b.add_gate(GateKind::Nand2, "C", &[a, bb]).expect("valid");
    let d = b
        .add_gate(GateKind::Nand2, "D", &[pis[4], pis[5]])
        .expect("valid");
    let e = b
        .add_gate(GateKind::Nand2, "E", &[pis[6], pis[7]])
        .expect("valid");
    let f = b.add_gate(GateKind::Nand2, "F", &[d, e]).expect("valid");
    let g = b.add_gate(GateKind::Nand2, "G", &[c, f]).expect("valid");
    b.mark_output(g).expect("valid");
    b.build().expect("tree7 is a valid circuit")
}

/// The 4-gate example circuit of the paper's Figure 2 / Section 5.
///
/// Inputs `a, b, c`; gates `A, B, C` each drive gate `D`; primary outputs
/// are `C` and `D`, matching the sizing formulation written out in the
/// paper's Eq. 18.
pub fn fig2() -> Circuit {
    let mut b = CircuitBuilder::new("fig2");
    let a_in = b.add_input("a");
    let b_in = b.add_input("b");
    let c_in = b.add_input("c");
    let ga = b
        .add_gate(GateKind::Nand2, "A", &[a_in, b_in])
        .expect("valid");
    let gb = b
        .add_gate(GateKind::Nand2, "B", &[b_in, c_in])
        .expect("valid");
    let gc = b
        .add_gate(GateKind::Nand2, "C", &[a_in, c_in])
        .expect("valid");
    let gd = b
        .add_gate(GateKind::Nand3, "D", &[ga, gb, gc])
        .expect("valid");
    b.mark_output(gc).expect("valid");
    b.mark_output(gd).expect("valid");
    b.build().expect("fig2 is a valid circuit")
}

/// A balanced NAND2 tree with the given number of levels
/// (`2^levels - 1` gates, `2^levels` inputs), single output.
///
/// # Panics
///
/// Panics if `levels` is 0 or greater than 20.
pub fn nand_tree(levels: u32) -> Circuit {
    assert!((1..=20).contains(&levels), "levels must be in 1..=20");
    let mut b = CircuitBuilder::new(format!("nand_tree_{levels}"));
    let n_leaves = 1usize << levels;
    let mut frontier: Vec<Signal> = (0..n_leaves)
        .map(|i| b.add_input(format!("i{i}")))
        .collect();
    let mut idx = 0usize;
    while frontier.len() > 1 {
        let mut next = Vec::with_capacity(frontier.len() / 2);
        for pair in frontier.chunks(2) {
            let g = b
                .add_gate(GateKind::Nand2, format!("n{idx}"), &[pair[0], pair[1]])
                .expect("valid");
            idx += 1;
            next.push(g);
        }
        frontier = next;
    }
    b.mark_output(frontier[0]).expect("valid");
    b.build().expect("nand tree is a valid circuit")
}

/// A chain of `n` inverters — the simplest path-delay sanity circuit.
///
/// # Panics
///
/// Panics if `n` is 0.
pub fn inverter_chain(n: usize) -> Circuit {
    assert!(n > 0, "chain length must be positive");
    let mut b = CircuitBuilder::new(format!("inv_chain_{n}"));
    let mut s = b.add_input("in");
    for i in 0..n {
        s = b
            .add_gate(GateKind::Inv, format!("inv{i}"), &[s])
            .expect("valid");
    }
    b.mark_output(s).expect("valid");
    b.build().expect("chain is a valid circuit")
}

/// A ripple-carry adder over `bits` bits (5 gates per full adder), a
/// realistic structured workload for the examples.
///
/// # Panics
///
/// Panics if `bits` is 0.
pub fn ripple_carry_adder(bits: usize) -> Circuit {
    assert!(bits > 0, "adder width must be positive");
    let mut b = CircuitBuilder::new(format!("rca_{bits}"));
    let a: Vec<Signal> = (0..bits).map(|i| b.add_input(format!("a{i}"))).collect();
    let y: Vec<Signal> = (0..bits).map(|i| b.add_input(format!("b{i}"))).collect();
    let mut carry = b.add_input("cin");
    for i in 0..bits {
        let x1 = b
            .add_gate(GateKind::Xor2, format!("x1_{i}"), &[a[i], y[i]])
            .expect("valid");
        let sum = b
            .add_gate(GateKind::Xor2, format!("sum{i}"), &[x1, carry])
            .expect("valid");
        let c1 = b
            .add_gate(GateKind::And2, format!("c1_{i}"), &[a[i], y[i]])
            .expect("valid");
        let c2 = b
            .add_gate(GateKind::And2, format!("c2_{i}"), &[x1, carry])
            .expect("valid");
        carry = b
            .add_gate(GateKind::Or2, format!("cout{i}"), &[c1, c2])
            .expect("valid");
        b.mark_output(sum).expect("valid");
    }
    b.mark_output(carry).expect("valid");
    b.build().expect("adder is a valid circuit")
}

/// A carry-save array multiplier over `bits x bits` operands — the
/// largest structured workload in the generator set (about
/// `bits^2 + 5 bits (bits-1)` gates with deep reconvergent carry paths).
///
/// # Panics
///
/// Panics if `bits < 2`.
pub fn array_multiplier(bits: usize) -> Circuit {
    assert!(bits >= 2, "multiplier width must be at least 2");
    let mut b = CircuitBuilder::new(format!("mul_{bits}"));
    let a: Vec<Signal> = (0..bits).map(|i| b.add_input(format!("a{i}"))).collect();
    let y: Vec<Signal> = (0..bits).map(|i| b.add_input(format!("b{i}"))).collect();

    // Partial products.
    let mut pp = vec![vec![None; bits]; bits];
    for (i, &ai) in a.iter().enumerate() {
        for (j, &yj) in y.iter().enumerate() {
            pp[i][j] = Some(
                b.add_gate(GateKind::And2, format!("pp_{i}_{j}"), &[ai, yj])
                    .expect("valid"),
            );
        }
    }

    // Row-by-row carry-save reduction with full adders.
    let full_adder = |b: &mut CircuitBuilder,
                      name: String,
                      x: Signal,
                      yy: Signal,
                      z: Signal|
     -> (Signal, Signal) {
        let t = b
            .add_gate(GateKind::Xor2, format!("{name}_t"), &[x, yy])
            .expect("valid");
        let s = b
            .add_gate(GateKind::Xor2, format!("{name}_s"), &[t, z])
            .expect("valid");
        let c1 = b
            .add_gate(GateKind::And2, format!("{name}_c1"), &[x, yy])
            .expect("valid");
        let c2 = b
            .add_gate(GateKind::And2, format!("{name}_c2"), &[t, z])
            .expect("valid");
        let c = b
            .add_gate(GateKind::Or2, format!("{name}_c"), &[c1, c2])
            .expect("valid");
        (s, c)
    };

    // Accumulate row i into the running sum/carry vectors.
    let mut sum: Vec<Option<Signal>> = (0..2 * bits).map(|_| None).collect();
    for (j, slot) in sum.iter_mut().take(bits).enumerate() {
        *slot = pp[0][j];
    }
    // Indices i, j are partial-product matrix coordinates; iterator forms
    // would obscure the row/column structure.
    #[allow(clippy::needless_range_loop)]
    for i in 1..bits {
        let mut carry: Option<Signal> = None;
        for j in 0..bits {
            let pos = i + j;
            let p = pp[i][j].expect("partial product exists");
            match (sum[pos], carry) {
                (None, None) => sum[pos] = Some(p),
                (Some(sv), None) => {
                    let s = b
                        .add_gate(GateKind::Xor2, format!("ha_s_{i}_{j}"), &[sv, p])
                        .expect("valid");
                    let c = b
                        .add_gate(GateKind::And2, format!("ha_c_{i}_{j}"), &[sv, p])
                        .expect("valid");
                    sum[pos] = Some(s);
                    carry = Some(c);
                }
                (Some(sv), Some(cv)) => {
                    let (s, c) = full_adder(&mut b, format!("fa_{i}_{j}"), sv, p, cv);
                    sum[pos] = Some(s);
                    carry = Some(c);
                }
                (None, Some(cv)) => {
                    let s = b
                        .add_gate(GateKind::Xor2, format!("hb_s_{i}_{j}"), &[p, cv])
                        .expect("valid");
                    let c = b
                        .add_gate(GateKind::And2, format!("hb_c_{i}_{j}"), &[p, cv])
                        .expect("valid");
                    sum[pos] = Some(s);
                    carry = Some(c);
                }
            }
        }
        if let Some(cv) = carry {
            let pos = i + bits;
            sum[pos] = match sum[pos] {
                None => Some(cv),
                Some(sv) => {
                    let s = b
                        .add_gate(GateKind::Xor2, format!("fin_s_{i}"), &[sv, cv])
                        .expect("valid");
                    Some(s)
                }
            };
        }
    }
    for slot in sum.into_iter().flatten() {
        b.mark_output(slot).expect("valid");
    }
    b.build().expect("multiplier is a valid circuit")
}

/// Parameters for [`random_dag`].
#[derive(Debug, Clone, PartialEq)]
pub struct RandomDagSpec {
    /// Circuit name.
    pub name: String,
    /// Number of gates to generate (the paper's "#cells").
    pub cells: usize,
    /// Number of primary inputs.
    pub inputs: usize,
    /// Target logic depth (number of levels the cells are spread over).
    pub depth: usize,
    /// RNG seed; the same spec always yields the same circuit.
    pub seed: u64,
    /// Probability (percent, 0-95) that a fan-in's source level steps one
    /// level further back, applied repeatedly (geometric). Low values keep
    /// fan-ins local (long parallel paths, like the default 35); high
    /// values (e.g. 85) spread fan-ins across many earlier levels, which
    /// shortens typical paths and lets a loaded spine dominate timing.
    pub back_jump_pct: u8,
    /// Extra output load on one designated source-to-sink path (the
    /// "spine"). A positive value makes one critical path dominate, which
    /// reproduces the single-dominant-path sigma/mu ratios of real mapped
    /// benchmarks; 0 leaves the DAG's many balanced near-critical paths,
    /// whose statistical max crushes sigma far below real circuits'.
    pub spine_extra_load: f64,
}

impl Default for RandomDagSpec {
    fn default() -> Self {
        RandomDagSpec {
            name: "random_dag".into(),
            cells: 100,
            inputs: 16,
            depth: 10,
            seed: 0,
            back_jump_pct: 35,
            spine_extra_load: 0.0,
        }
    }
}

/// Generates a seeded random levelised combinational DAG.
///
/// Cells are spread over `depth` levels; each gate draws its first fan-in
/// from the immediately preceding level (guaranteeing the target depth is
/// realised) and remaining fan-ins from earlier levels or primary inputs,
/// biased toward recent levels, which yields fan-out distributions similar
/// to mapped combinational benchmarks. Gates with no fan-out become primary
/// outputs.
///
/// # Panics
///
/// Panics if `cells < depth`, `depth == 0`, or `inputs == 0`.
pub fn random_dag(spec: &RandomDagSpec) -> Circuit {
    let (mut b, has_reader) = wire_random_dag(spec);
    // Every gate with no fan-out becomes a primary output, in id order.
    for (i, _) in has_reader.iter().enumerate().filter(|&(_, &read)| !read) {
        b.mark_output(Signal::Gate(GateId(i)))
            .expect("gate signals are valid outputs");
    }
    b.build().expect("generator produces valid circuits")
}

/// The gates and wiring of [`random_dag`], before any output is marked,
/// plus whether each gate (by id) is read by a later gate.
fn wire_random_dag(spec: &RandomDagSpec) -> (CircuitBuilder, Vec<bool>) {
    assert!(spec.depth > 0, "depth must be positive");
    assert!(spec.inputs > 0, "need at least one input");
    assert!(spec.cells >= spec.depth, "cells must be >= depth");
    let mut rng = StdRng::seed_from_u64(spec.seed);
    let mut b = CircuitBuilder::new(spec.name.clone());
    let pis: Vec<Signal> = (0..spec.inputs)
        .map(|i| b.add_input(format!("pi{i}")))
        .collect();

    // Spread cells across levels: slightly wider early levels, at least one
    // gate per level.
    let mut per_level = vec![1usize; spec.depth];
    let mut remaining = spec.cells - spec.depth;
    let mut li = 0usize;
    while remaining > 0 {
        per_level[li % spec.depth] += 1;
        li += 1;
        remaining -= 1;
    }

    let mut levels: Vec<Vec<Signal>> = Vec::with_capacity(spec.depth);
    let mut has_reader: Vec<bool> = Vec::with_capacity(spec.cells);
    let mut gate_idx = 0usize;
    for (lvl, &count) in per_level.iter().enumerate() {
        let mut this_level = Vec::with_capacity(count);
        for slot in 0..count {
            // The first gate of every level forms the loaded "spine" path.
            let on_spine = slot == 0 && spec.spine_extra_load > 0.0;
            let arity = match rng.gen_range(0..100) {
                0..=14 => 1,
                15..=64 => 2,
                65..=89 => 3,
                _ => 4,
            };
            let kind = match (arity, rng.gen_range(0..10)) {
                (1, 0..=7) => GateKind::Inv,
                (1, _) => GateKind::Buf,
                (2, 0..=5) => GateKind::Nand2,
                (2, 6..=7) => GateKind::Nor2,
                (2, 8) => GateKind::And2,
                (2, _) => GateKind::Or2,
                (3, 0..=6) => GateKind::Nand3,
                (3, _) => GateKind::Nor3,
                _ => GateKind::Nand4,
            };
            let mut fanins = Vec::with_capacity(arity);
            // The slot-0 gates of consecutive levels form a chain, which
            // pins the circuit's logic depth to `spec.depth` exactly (and
            // carries the spine load when one is requested). All other
            // fan-ins are drawn from recent levels or primary inputs, so
            // typical paths are shorter than the chain.
            if slot == 0 {
                if lvl == 0 {
                    fanins.push(pis[rng.gen_range(0..pis.len())]);
                } else {
                    fanins.push(levels[lvl - 1][0]);
                }
            }
            // Remaining fan-ins: biased toward recent levels, falling back
            // to PIs, avoiding duplicate sources within one gate.
            for _ in fanins.len()..arity {
                let s = loop {
                    let cand = if lvl == 0 || rng.gen_range(0..100) < 25 {
                        pis[rng.gen_range(0..pis.len())]
                    } else {
                        // Geometric-ish bias: step back a few levels.
                        let mut back = 1usize;
                        while back < lvl
                            && rng.gen_range(0..100) < i32::from(spec.back_jump_pct.min(95))
                        {
                            back += 1;
                        }
                        let l = &levels[lvl - back];
                        l[rng.gen_range(0..l.len())]
                    };
                    if !fanins.contains(&cand) {
                        break cand;
                    }
                    // Duplicate source: very small levels can make all
                    // candidates collide; fall back to any distinct PI.
                    if pis.len() > fanins.len() {
                        continue;
                    }
                    break cand;
                };
                fanins.push(s);
            }
            // Dedup may still have failed in pathological tiny circuits;
            // shrink the gate rather than wire the same net twice.
            fanins.dedup();
            let kind = if fanins.len() == kind.arity() {
                kind
            } else {
                GateKind::nand_of_arity(fanins.len())
            };
            let g = b
                .add_gate(kind, format!("g{gate_idx}"), &fanins)
                .expect("generator invariants uphold builder rules");
            for &src in &fanins {
                if let Signal::Gate(src) = src {
                    has_reader[src.index()] = true;
                }
            }
            has_reader.push(false);
            if on_spine {
                b.set_extra_load(g, spec.spine_extra_load);
            }
            gate_idx += 1;
            this_level.push(g);
        }
        levels.push(this_level);
    }

    (b, has_reader)
}

/// The three synthetic stand-ins for the paper's Table 1 benchmarks,
/// matched in cell count and approximate depth: `apex1` (982 cells),
/// `apex2` (117 cells), `k2` (1692 cells).
pub fn benchmark_suite() -> Vec<Circuit> {
    benchmark_specs().iter().map(random_dag).collect()
}

/// The specs [`benchmark_suite`] generates.
fn benchmark_specs() -> [RandomDagSpec; 3] {
    [
        RandomDagSpec {
            name: "apex1".into(),
            cells: 982,
            inputs: 45,
            depth: 47,
            seed: 0xA9E71,
            back_jump_pct: 92,
            spine_extra_load: 0.25,
        },
        RandomDagSpec {
            name: "apex2".into(),
            cells: 117,
            inputs: 39,
            depth: 10,
            seed: 0xA9E72,
            back_jump_pct: 92,
            spine_extra_load: 0.15,
        },
        RandomDagSpec {
            name: "k2".into(),
            cells: 1692,
            inputs: 46,
            depth: 47,
            seed: 0x0042,
            back_jump_pct: 92,
            spine_extra_load: 0.25,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tree7_shape() {
        let c = tree7();
        c.validate().unwrap();
        assert_eq!(c.num_gates(), 7);
        assert_eq!(c.num_inputs(), 8);
        assert_eq!(c.depth(), 3);
        assert_eq!(c.outputs().len(), 1);
        // Paper's naming: gates A..G in order, G the output.
        let names: Vec<&str> = c.gates().map(|(_, g)| g.name.as_str()).collect();
        assert_eq!(names, ["A", "B", "C", "D", "E", "F", "G"]);
    }

    #[test]
    fn fig2_shape() {
        let c = fig2();
        c.validate().unwrap();
        assert_eq!(c.num_gates(), 4);
        assert_eq!(c.outputs().len(), 2);
        // D is fed by A, B and C.
        let d = c.gates().find(|(_, g)| g.name == "D").unwrap().1;
        assert_eq!(d.inputs.len(), 3);
    }

    #[test]
    fn nand_tree_counts() {
        for levels in 1..=6 {
            let c = nand_tree(levels);
            c.validate().unwrap();
            assert_eq!(c.num_gates(), (1 << levels) - 1);
            assert_eq!(c.depth() as u32, levels);
        }
    }

    #[test]
    fn chain_depth() {
        let c = inverter_chain(17);
        assert_eq!(c.num_gates(), 17);
        assert_eq!(c.depth(), 17);
    }

    #[test]
    fn multiplier_valid() {
        for bits in [2usize, 4, 6] {
            let c = array_multiplier(bits);
            c.validate().unwrap();
            assert_eq!(c.num_inputs(), 2 * bits);
            assert!(c.num_gates() >= bits * bits);
            assert!(c.depth() >= bits);
            assert!(!c.outputs().is_empty());
        }
    }

    #[test]
    #[should_panic(expected = "at least 2")]
    fn multiplier_rejects_width_one() {
        let _ = array_multiplier(1);
    }

    #[test]
    fn adder_valid() {
        let c = ripple_carry_adder(8);
        c.validate().unwrap();
        assert_eq!(c.num_gates(), 40);
        assert_eq!(c.outputs().len(), 9);
    }

    #[test]
    fn random_dag_matches_spec() {
        let spec = RandomDagSpec {
            name: "r".into(),
            cells: 200,
            inputs: 16,
            depth: 12,
            seed: 7,
            ..Default::default()
        };
        let c = random_dag(&spec);
        c.validate().unwrap();
        assert_eq!(c.num_gates(), 200);
        assert_eq!(c.num_inputs(), 16);
        assert_eq!(c.depth(), 12);
        assert!(!c.outputs().is_empty());
    }

    #[test]
    fn random_dag_deterministic() {
        let spec = RandomDagSpec {
            name: "r".into(),
            cells: 150,
            inputs: 10,
            depth: 9,
            seed: 99,
            ..Default::default()
        };
        assert_eq!(random_dag(&spec), random_dag(&spec));
        let other = RandomDagSpec {
            seed: 100,
            ..spec.clone()
        };
        assert_ne!(random_dag(&spec), random_dag(&other));
    }

    #[test]
    fn random_dag_outputs_are_sinks() {
        let c = random_dag(&RandomDagSpec {
            name: "r".into(),
            cells: 300,
            inputs: 20,
            depth: 15,
            seed: 3,
            ..Default::default()
        });
        for &o in c.outputs() {
            assert_eq!(c.fanout(o).len(), 0, "output {o} has fan-out");
        }
        // Conversely every sink is an output.
        for (id, _) in c.gates() {
            if c.fanout(id).len() == 0 {
                assert!(c.is_output(id));
            }
        }
    }

    /// The two-pass construction `random_dag` used to make: build with
    /// every gate marked as an output, then rebuild from cloned gates
    /// with the outputs cut to the sinks (gates no gate reads).
    fn random_dag_two_pass(spec: &RandomDagSpec) -> Circuit {
        let (mut b, _) = wire_random_dag(spec);
        for i in 0..spec.cells {
            b.mark_output(Signal::Gate(GateId(i))).unwrap();
        }
        let circuit = b.build().unwrap();
        let mut read = vec![false; circuit.num_gates()];
        for (_, g) in circuit.gates() {
            for &s in &g.inputs {
                if let Signal::Gate(src) = s {
                    read[src.index()] = true;
                }
            }
        }
        let sinks: Vec<GateId> = circuit
            .gates()
            .map(|(id, _)| id)
            .filter(|id| !read[id.index()])
            .collect();
        Circuit::from_parts(
            circuit.name().to_string(),
            circuit.input_names().to_vec(),
            circuit.gates().map(|(_, g)| g.clone()).collect(),
            sinks,
        )
        .unwrap()
    }

    #[test]
    fn random_dag_matches_two_pass_construction() {
        let mut specs = benchmark_specs().to_vec();
        for (seed, cells, depth) in [(0, 100, 10), (7, 40, 40), (3, 300, 15), (11, 12, 3)] {
            specs.push(RandomDagSpec {
                name: format!("r{seed}"),
                cells,
                inputs: 16,
                depth,
                seed,
                ..Default::default()
            });
        }
        specs.push(RandomDagSpec {
            name: "dag2600".into(),
            cells: 2600,
            inputs: 64,
            depth: 40,
            seed: 0xB16,
            back_jump_pct: 92,
            spine_extra_load: 0.25,
        });
        for spec in &specs {
            assert_eq!(random_dag(spec), random_dag_two_pass(spec), "{}", spec.name);
        }
    }

    #[test]
    fn benchmark_suite_cell_counts() {
        let suite = benchmark_suite();
        let counts: Vec<(String, usize)> = suite
            .iter()
            .map(|c| (c.name().to_string(), c.num_gates()))
            .collect();
        assert_eq!(
            counts,
            vec![
                ("apex1".to_string(), 982),
                ("apex2".to_string(), 117),
                ("k2".to_string(), 1692)
            ]
        );
        for c in &suite {
            c.validate().unwrap();
        }
    }

    #[test]
    #[should_panic(expected = "cells must be >= depth")]
    fn random_dag_rejects_thin() {
        let _ = random_dag(&RandomDagSpec {
            name: "x".into(),
            cells: 3,
            inputs: 2,
            depth: 9,
            seed: 0,
            ..Default::default()
        });
    }
}
