//! Property-based tests: every generated circuit is structurally valid,
//! deterministic, and survives a BLIF round-trip unchanged.

use proptest::prelude::*;
use sgs_netlist::generate::{self, RandomDagSpec};
use sgs_netlist::{blif, verilog, Signal};

fn spec_strategy() -> impl Strategy<Value = RandomDagSpec> {
    (2usize..25, 1usize..30, any::<u64>(), 0u8..95, 0.0..2.0f64).prop_flat_map(
        |(depth, inputs, seed, back, spine)| {
            (depth..depth + 200).prop_map(move |cells| RandomDagSpec {
                name: "prop".into(),
                cells,
                inputs,
                depth,
                seed,
                back_jump_pct: back,
                spine_extra_load: spine,
            })
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(120))]

    #[test]
    fn random_dag_always_valid(spec in spec_strategy()) {
        let c = generate::random_dag(&spec);
        prop_assert!(c.validate().is_ok());
        prop_assert_eq!(c.num_gates(), spec.cells);
        prop_assert_eq!(c.num_inputs(), spec.inputs);
        // The slot-0 chain pins the depth exactly.
        prop_assert_eq!(c.depth(), spec.depth);
        prop_assert!(!c.outputs().is_empty());
    }

    #[test]
    fn random_dag_deterministic(spec in spec_strategy()) {
        prop_assert_eq!(generate::random_dag(&spec), generate::random_dag(&spec));
    }

    #[test]
    fn outputs_are_exactly_the_sinks(spec in spec_strategy()) {
        let c = generate::random_dag(&spec);
        for (id, _) in c.gates() {
            prop_assert_eq!(
                c.fanout(id).len() == 0,
                c.is_output(id),
                "gate {} sink/output mismatch", id
            );
        }
    }

    #[test]
    fn gate_fanins_precede_gate(spec in spec_strategy()) {
        // Topological storage invariant.
        let c = generate::random_dag(&spec);
        for (id, gate) in c.gates() {
            for &sig in &gate.inputs {
                if let Signal::Gate(src) = sig {
                    prop_assert!(src.index() < id.index());
                }
            }
        }
    }

    #[test]
    fn blif_roundtrip_random_dag(spec in spec_strategy()) {
        let c = generate::random_dag(&spec);
        let text = blif::to_blif(&c);
        let back = blif::parse(&text).expect("roundtrip parses");
        prop_assert_eq!(back.num_gates(), c.num_gates());
        prop_assert_eq!(back.num_inputs(), c.num_inputs());
        prop_assert_eq!(back.outputs().len(), c.outputs().len());
        prop_assert_eq!(back.depth(), c.depth());
        // Same multiset of gate kinds.
        let mut a: Vec<_> = c.gates().map(|(_, g)| g.kind).collect();
        let mut b: Vec<_> = back.gates().map(|(_, g)| g.kind).collect();
        a.sort();
        b.sort();
        prop_assert_eq!(a, b);
    }

    #[test]
    fn verilog_roundtrip_random_dag(spec in spec_strategy()) {
        let c = generate::random_dag(&spec);
        let text = verilog::to_verilog(&c);
        let back = verilog::parse(&text).expect("roundtrip parses");
        prop_assert_eq!(back.num_gates(), c.num_gates());
        prop_assert_eq!(back.num_inputs(), c.num_inputs());
        prop_assert_eq!(back.outputs().len(), c.outputs().len());
        prop_assert_eq!(back.depth(), c.depth());
    }

    #[test]
    fn levels_consistent_with_depth(spec in spec_strategy()) {
        let c = generate::random_dag(&spec);
        let levels = c.levels();
        prop_assert_eq!(levels.iter().copied().max().unwrap(), c.depth());
        prop_assert!(levels.iter().all(|&l| l >= 1));
    }
}
