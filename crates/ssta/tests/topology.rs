//! The circuit's CSR fan-out lists and output mask must answer exactly as
//! the plain definitions do: `Circuit::fanout(g)` is, element for element,
//! every gate that reads `g`, in ascending id and once per reading pin
//! (order and repeated readers included, since load sums add in that
//! order), and `Circuit::is_output` is `outputs().contains`.

use sgs_netlist::generate::{self, RandomDagSpec};
use sgs_netlist::{
    blif, iscas, verilog, Circuit, CircuitBuilder, Gate, GateId, GateKind, Library, NetlistError,
    Signal,
};
use sgs_ssta::DelayModel;

/// The plain fan-out definition: for each gate, every reader in ascending
/// id, once per pin that reads it.
fn plain_fanouts(c: &Circuit) -> Vec<Vec<GateId>> {
    let mut out = vec![Vec::new(); c.num_gates()];
    for (reader, gate) in c.gates() {
        for &s in &gate.inputs {
            if let Signal::Gate(src) = s {
                out[src.index()].push(reader);
            }
        }
    }
    out
}

fn assert_topology_matches(c: &Circuit) {
    let fanouts = plain_fanouts(c);
    assert_eq!(fanouts.len(), c.num_gates());
    for (id, _) in c.gates() {
        assert_eq!(
            c.fanout(id).collect::<Vec<_>>(),
            fanouts[id.index()],
            "{}: fan-outs of {id}",
            c.name()
        );
        assert_eq!(c.fanout(id).len(), fanouts[id.index()].len());
        assert_eq!(
            c.is_output(id),
            c.outputs().contains(&id),
            "{}: output flag of {id}",
            c.name()
        );
    }
}

fn random_dag(seed: u64) -> Circuit {
    generate::random_dag(&RandomDagSpec {
        name: format!("topology_dag_{seed}"),
        cells: 300,
        inputs: 24,
        depth: 14,
        seed,
        ..Default::default()
    })
}

#[test]
fn benchmark_suite_and_generators() {
    for c in generate::benchmark_suite() {
        assert_topology_matches(&c);
    }
    for c in [
        generate::tree7(),
        generate::fig2(),
        generate::ripple_carry_adder(6),
        generate::array_multiplier(4),
        random_dag(3),
        random_dag(41),
    ] {
        assert_topology_matches(&c);
    }
}

#[test]
fn parsed_circuits() {
    for c in [generate::ripple_carry_adder(4), random_dag(7)] {
        let from_blif = blif::parse(&blif::to_blif(&c)).expect("BLIF parses");
        let from_iscas = iscas::parse(&iscas::to_iscas(&c)).expect("ISCAS parses");
        let from_verilog = verilog::parse(&verilog::to_verilog(&c)).expect("Verilog parses");
        for parsed in [from_blif, from_iscas, from_verilog] {
            assert_topology_matches(&parsed);
        }
    }
    for path in ["rdag40.blif", "tree7.blif"] {
        let full = format!("{}/../../benchmarks/{path}", env!("CARGO_MANIFEST_DIR"));
        let text = std::fs::read_to_string(&full).expect("benchmark file reads");
        assert_topology_matches(&blif::parse(&text).expect("benchmark parses"));
    }
}

#[test]
fn gate_reading_one_signal_twice_is_listed_twice() {
    let mut b = CircuitBuilder::new("double_read");
    let a = b.add_input("a");
    let x = b.add_gate(GateKind::Inv, "x", &[a]).unwrap();
    let y = b.add_gate(GateKind::Nand2, "y", &[x, x]).unwrap();
    let z = b.add_gate(GateKind::Nand2, "z", &[a, x]).unwrap();
    b.mark_output(y).unwrap();
    b.mark_output(z).unwrap();
    let c = b.build().unwrap();
    assert_topology_matches(&c);
    assert_eq!(
        c.fanout(GateId(0)).collect::<Vec<_>>(),
        [GateId(1), GateId(1), GateId(2)]
    );
    assert_eq!(c.fanout(GateId(1)).len(), 0);
}

#[test]
fn cloned_circuit_keeps_its_fan_outs() {
    for c in [generate::fig2(), random_dag(5)] {
        let copy = c.clone();
        assert_eq!(copy, c);
        assert_topology_matches(&copy);
        for (id, _) in c.gates() {
            assert!(copy.fanout(id).eq(c.fanout(id)), "fan-outs of {id}");
        }
    }
}

#[test]
fn gate_reading_a_later_gate_is_rejected() {
    let gates = vec![
        Gate {
            name: "g0".to_string(),
            kind: GateKind::Inv,
            inputs: vec![Signal::Gate(GateId(1))],
            extra_load: 0.0,
        },
        Gate {
            name: "g1".to_string(),
            kind: GateKind::Inv,
            inputs: vec![Signal::Pi(0)],
            extra_load: 0.0,
        },
    ];
    let res = std::panic::catch_unwind(|| {
        Circuit::from_parts(
            "forward_read".to_string(),
            vec!["a".to_string()],
            gates,
            vec![GateId(0)],
        )
    });
    let err = res.expect("from_parts must not panic").unwrap_err();
    assert!(matches!(err, NetlistError::UnknownSignal { .. }), "{err:?}");
}

#[test]
fn output_listed_twice() {
    let gate = |name: &str, inputs: Vec<Signal>| Gate {
        name: name.to_string(),
        kind: if inputs.len() == 1 {
            GateKind::Inv
        } else {
            GateKind::Nand2
        },
        inputs,
        extra_load: 0.0,
    };
    let c = Circuit::from_parts(
        "repeated_output".to_string(),
        vec!["a".to_string(), "b".to_string()],
        vec![
            gate("g0", vec![Signal::Pi(0), Signal::Pi(1)]),
            gate("g1", vec![Signal::Gate(GateId(0))]),
            gate("g2", vec![Signal::Gate(GateId(0)), Signal::Pi(1)]),
        ],
        vec![GateId(1), GateId(2), GateId(1)],
    )
    .unwrap();
    assert_topology_matches(&c);
    assert!(c.is_output(GateId(1)) && c.is_output(GateId(2)));
    assert!(!c.is_output(GateId(0)));
    // The primary-output load is added once, however often the gate is
    // listed.
    let lib = Library::paper_default();
    let model = DelayModel::new(&c, &lib);
    assert_eq!(model.static_load(GateId(1)), lib.wire_load + lib.po_load);
}
