//! Combinational circuit DAG: gates, signals, topology queries.

use crate::library::GateKind;
use std::error::Error;
use std::fmt;

/// Identifier of a gate within a [`Circuit`] (dense, `0..num_gates`).
///
/// Gates are stored in topological order, so `GateId` order is a valid
/// evaluation order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GateId(pub usize);

impl GateId {
    /// The dense index.
    #[inline]
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for GateId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "g{}", self.0)
    }
}

/// A signal source: either a primary input or a gate output.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Signal {
    /// Primary input with dense index `0..num_inputs`.
    Pi(usize),
    /// Output of a gate.
    Gate(GateId),
}

/// One gate instance.
#[derive(Debug, Clone, PartialEq)]
pub struct Gate {
    /// Instance name (unique within the circuit).
    pub name: String,
    /// Logic kind, fixing electrical parameters.
    pub kind: GateKind,
    /// Fan-in signals, length equal to `kind.arity()`.
    pub inputs: Vec<Signal>,
    /// Extra output load beyond the library defaults (e.g. long wire).
    pub extra_load: f64,
}

/// Errors raised while building or validating a netlist.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum NetlistError {
    /// Gate fan-in count does not match the kind's arity.
    ArityMismatch {
        /// Offending gate name.
        gate: String,
        /// Expected fan-ins.
        expected: usize,
        /// Provided fan-ins.
        got: usize,
    },
    /// A signal refers to a gate or input that does not exist (yet).
    UnknownSignal {
        /// Offending gate name.
        gate: String,
    },
    /// Two gates or inputs share a name.
    DuplicateName(String),
    /// The circuit has no primary outputs.
    NoOutputs,
    /// A primary output refers to a missing gate.
    BadOutput(usize),
    /// The circuit has no gates.
    Empty,
    /// The netlist contains a combinational cycle (BLIF input only; builder
    /// circuits are acyclic by construction).
    Cycle(String),
    /// BLIF text could not be parsed.
    Parse(String),
}

impl fmt::Display for NetlistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetlistError::ArityMismatch {
                gate,
                expected,
                got,
            } => {
                write!(f, "gate `{gate}` expects {expected} inputs, got {got}")
            }
            NetlistError::UnknownSignal { gate } => {
                write!(f, "gate `{gate}` references an unknown signal")
            }
            NetlistError::DuplicateName(n) => write!(f, "duplicate name `{n}`"),
            NetlistError::NoOutputs => write!(f, "circuit has no primary outputs"),
            NetlistError::BadOutput(i) => write!(f, "output {i} refers to a missing gate"),
            NetlistError::Empty => write!(f, "circuit has no gates"),
            NetlistError::Cycle(n) => write!(f, "combinational cycle through `{n}`"),
            NetlistError::Parse(m) => write!(f, "parse error: {m}"),
        }
    }
}

impl Error for NetlistError {}

/// An immutable combinational circuit.
///
/// Gates are stored in topological order: every gate's fan-ins are primary
/// inputs or gates with a smaller [`GateId`]. Construct one with
/// [`CircuitBuilder`] or the constructors in [`crate::generate`].
///
/// Construction also lays out every gate's fan-out list once, so
/// [`Circuit::fanout`] costs no graph traversal and delay models built
/// over the circuit need not rebuild the topology.
#[derive(Debug, Clone, PartialEq)]
pub struct Circuit {
    name: String,
    input_names: Vec<String>,
    gates: Vec<Gate>,
    outputs: Vec<GateId>,
    /// `output_mask[g]` is whether gate `g` appears in `outputs`, so
    /// [`Circuit::is_output`] is one load instead of a scan of the list.
    output_mask: Vec<bool>,
    /// CSR starts into `fanout_ids`, one per gate plus the end sentinel:
    /// gate `g` drives `fanout_ids[fanout_ptr[g]..fanout_ptr[g + 1]]`.
    fanout_ptr: Vec<u32>,
    fanout_ids: Vec<u32>,
}

impl Circuit {
    /// The circuit's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of primary inputs.
    pub fn num_inputs(&self) -> usize {
        self.input_names.len()
    }

    /// Number of gates (the paper's "#cells").
    pub fn num_gates(&self) -> usize {
        self.gates.len()
    }

    /// Primary input names.
    pub fn input_names(&self) -> &[String] {
        &self.input_names
    }

    /// The gate with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn gate(&self, id: GateId) -> &Gate {
        &self.gates[id.0]
    }

    /// All gates in topological order.
    pub fn gates(&self) -> impl Iterator<Item = (GateId, &Gate)> {
        self.gates.iter().enumerate().map(|(i, g)| (GateId(i), g))
    }

    /// Primary outputs (each the output of a gate).
    pub fn outputs(&self) -> &[GateId] {
        &self.outputs
    }

    /// Whether `id` drives a primary output.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn is_output(&self, id: GateId) -> bool {
        self.output_mask[id.0]
    }

    /// The gates driven by `g` (its fan-out), in ascending reader id; a
    /// gate that reads `g` on several pins appears once per pin. The lists
    /// are laid out once at construction, so this allocates nothing.
    ///
    /// # Panics
    ///
    /// Panics if `g` is out of range.
    #[inline]
    pub fn fanout(&self, g: GateId) -> impl ExactSizeIterator<Item = GateId> + '_ {
        let (lo, hi) = (self.fanout_ptr[g.0], self.fanout_ptr[g.0 + 1]);
        self.fanout_ids[lo as usize..hi as usize]
            .iter()
            .map(|&j| GateId(j as usize))
    }

    /// Logic level of each gate: primary inputs are level 0, a gate is one
    /// above its deepest fan-in.
    pub fn levels(&self) -> Vec<usize> {
        let mut lvl = vec![0usize; self.gates.len()];
        for (i, g) in self.gates.iter().enumerate() {
            let mut m = 0;
            for &s in &g.inputs {
                if let Signal::Gate(src) = s {
                    m = m.max(lvl[src.0]);
                }
            }
            lvl[i] = m + 1;
        }
        lvl
    }

    /// The logic depth (maximum gate level).
    pub fn depth(&self) -> usize {
        self.levels().into_iter().max().unwrap_or(0)
    }

    /// Structural validation; builder-made circuits always pass, BLIF input
    /// is checked after elaboration.
    ///
    /// # Errors
    ///
    /// Returns the first [`NetlistError`] found.
    pub fn validate(&self) -> Result<(), NetlistError> {
        if self.gates.is_empty() {
            return Err(NetlistError::Empty);
        }
        if self.outputs.is_empty() {
            return Err(NetlistError::NoOutputs);
        }
        for (i, g) in self.gates.iter().enumerate() {
            if g.inputs.len() != g.kind.arity() {
                return Err(NetlistError::ArityMismatch {
                    gate: g.name.clone(),
                    expected: g.kind.arity(),
                    got: g.inputs.len(),
                });
            }
            for &s in &g.inputs {
                let ok = match s {
                    Signal::Pi(p) => p < self.input_names.len(),
                    // Topological storage: fan-ins must precede the gate.
                    Signal::Gate(src) => src.0 < i,
                };
                if !ok {
                    return Err(NetlistError::UnknownSignal {
                        gate: g.name.clone(),
                    });
                }
            }
        }
        for &o in &self.outputs {
            if o.0 >= self.gates.len() {
                return Err(NetlistError::BadOutput(o.0));
            }
        }
        Ok(())
    }

    /// Constructs a circuit from raw parts, validating the result.
    ///
    /// # Errors
    ///
    /// Returns a [`NetlistError`] if the parts do not form a valid,
    /// topologically ordered netlist.
    pub fn from_parts(
        name: String,
        input_names: Vec<String>,
        gates: Vec<Gate>,
        outputs: Vec<GateId>,
    ) -> Result<Self, NetlistError> {
        let mut c = Circuit {
            name,
            input_names,
            gates,
            outputs,
            output_mask: Vec::new(),
            fanout_ptr: Vec::new(),
            fanout_ids: Vec::new(),
        };
        c.validate()?;
        c.output_mask = vec![false; c.gates.len()];
        for &o in &c.outputs {
            c.output_mask[o.0] = true;
        }
        (c.fanout_ptr, c.fanout_ids) = fanout_csr(&c.gates);
        Ok(c)
    }
}

/// The fan-out lists of validated, topologically ordered `gates` in CSR
/// form `(ptr, ids)`: a counting pass sizes each list, then readers are
/// placed in ascending gate id and pin order.
///
/// # Panics
///
/// Panics if the gate count or the total pin count exceeds `u32::MAX`.
fn fanout_csr(gates: &[Gate]) -> (Vec<u32>, Vec<u32>) {
    fn sources(gate: &Gate) -> impl Iterator<Item = usize> + '_ {
        gate.inputs.iter().filter_map(|&sig| match sig {
            Signal::Gate(src) => Some(src.0),
            Signal::Pi(_) => None,
        })
    }
    let n = gates.len();
    let pins: usize = gates.iter().map(|g| g.inputs.len()).sum();
    assert!(
        u32::try_from(n.max(pins)).is_ok(),
        "circuit exceeds u32 fan-out indexing"
    );
    let mut ptr = vec![0u32; n + 1];
    for gate in gates {
        for src in sources(gate) {
            ptr[src + 1] += 1;
        }
    }
    for g in 0..n {
        ptr[g + 1] += ptr[g];
    }
    let mut next = ptr[..n].to_vec();
    let mut ids = vec![0u32; ptr[n] as usize];
    for (id, gate) in gates.iter().enumerate() {
        for src in sources(gate) {
            ids[next[src] as usize] = id as u32;
            next[src] += 1;
        }
    }
    (ptr, ids)
}

impl fmt::Display for Circuit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} inputs, {} gates, {} outputs, depth {}",
            self.name,
            self.num_inputs(),
            self.num_gates(),
            self.outputs.len(),
            self.depth()
        )
    }
}

/// Incremental, always-acyclic circuit construction.
///
/// ```
/// use sgs_netlist::{CircuitBuilder, GateKind};
/// # fn main() -> Result<(), sgs_netlist::NetlistError> {
/// let mut b = CircuitBuilder::new("half_adder");
/// let a = b.add_input("a");
/// let c = b.add_input("b");
/// let s = b.add_gate(GateKind::Xor2, "sum", &[a, c])?;
/// let k = b.add_gate(GateKind::And2, "carry", &[a, c])?;
/// b.mark_output(s)?;
/// b.mark_output(k)?;
/// let circuit = b.build()?;
/// assert_eq!(circuit.num_gates(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct CircuitBuilder {
    name: String,
    input_names: Vec<String>,
    gates: Vec<Gate>,
    outputs: Vec<GateId>,
    names: std::collections::HashSet<String>,
}

impl CircuitBuilder {
    /// Starts an empty circuit with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        CircuitBuilder {
            name: name.into(),
            input_names: Vec::new(),
            gates: Vec::new(),
            outputs: Vec::new(),
            names: std::collections::HashSet::new(),
        }
    }

    /// Adds a primary input and returns its signal.
    ///
    /// # Panics
    ///
    /// Panics on a duplicate name (an input name clash is a programming
    /// error in generators; BLIF input goes through its own checks).
    pub fn add_input(&mut self, name: impl Into<String>) -> Signal {
        let name = name.into();
        assert!(self.names.insert(name.clone()), "duplicate name `{name}`");
        self.input_names.push(name);
        Signal::Pi(self.input_names.len() - 1)
    }

    /// Adds a gate fed by existing signals; returns its output signal.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::ArityMismatch`] if the fan-in count is wrong,
    /// [`NetlistError::UnknownSignal`] if a fan-in does not exist, or
    /// [`NetlistError::DuplicateName`] on a name clash.
    pub fn add_gate(
        &mut self,
        kind: GateKind,
        name: impl Into<String>,
        inputs: &[Signal],
    ) -> Result<Signal, NetlistError> {
        let name = name.into();
        if inputs.len() != kind.arity() {
            return Err(NetlistError::ArityMismatch {
                gate: name,
                expected: kind.arity(),
                got: inputs.len(),
            });
        }
        for &s in inputs {
            let ok = match s {
                Signal::Pi(p) => p < self.input_names.len(),
                Signal::Gate(g) => g.0 < self.gates.len(),
            };
            if !ok {
                return Err(NetlistError::UnknownSignal { gate: name });
            }
        }
        if !self.names.insert(name.clone()) {
            return Err(NetlistError::DuplicateName(name));
        }
        self.gates.push(Gate {
            name,
            kind,
            inputs: inputs.to_vec(),
            extra_load: 0.0,
        });
        Ok(Signal::Gate(GateId(self.gates.len() - 1)))
    }

    /// Marks a gate output as a primary output.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::BadOutput`] if the signal is a primary input
    /// (primary inputs cannot feed outputs directly in this model) or an
    /// unknown gate.
    pub fn mark_output(&mut self, signal: Signal) -> Result<(), NetlistError> {
        match signal {
            Signal::Gate(g) if g.0 < self.gates.len() => {
                if !self.outputs.contains(&g) {
                    self.outputs.push(g);
                }
                Ok(())
            }
            Signal::Gate(g) => Err(NetlistError::BadOutput(g.0)),
            Signal::Pi(p) => Err(NetlistError::BadOutput(p)),
        }
    }

    /// Adds extra output load to the most recently added gate.
    ///
    /// # Panics
    ///
    /// Panics if no gate has been added yet.
    pub fn set_extra_load(&mut self, gate: Signal, load: f64) {
        if let Signal::Gate(g) = gate {
            self.gates[g.0].extra_load = load;
        } else {
            panic!("extra load applies to gates only");
        }
    }

    /// Finalises the circuit.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::Empty`] or [`NetlistError::NoOutputs`] for
    /// degenerate circuits.
    pub fn build(self) -> Result<Circuit, NetlistError> {
        Circuit::from_parts(self.name, self.input_names, self.gates, self.outputs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_gate() -> Circuit {
        let mut b = CircuitBuilder::new("t");
        let a = b.add_input("a");
        let c = b.add_input("b");
        let g1 = b.add_gate(GateKind::Nand2, "g1", &[a, c]).unwrap();
        let g2 = b.add_gate(GateKind::Inv, "g2", &[g1]).unwrap();
        b.mark_output(g2).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn builder_roundtrip() {
        let c = two_gate();
        assert_eq!(c.num_inputs(), 2);
        assert_eq!(c.num_gates(), 2);
        assert_eq!(c.outputs(), &[GateId(1)]);
        assert_eq!(c.gate(GateId(0)).kind, GateKind::Nand2);
        c.validate().unwrap();
    }

    #[test]
    fn levels_and_depth() {
        let c = two_gate();
        assert_eq!(c.levels(), vec![1, 2]);
        assert_eq!(c.depth(), 2);
    }

    #[test]
    fn fanouts() {
        let c = two_gate();
        assert_eq!(c.fanout(GateId(0)).collect::<Vec<_>>(), vec![GateId(1)]);
        assert_eq!(c.fanout(GateId(1)).len(), 0);
    }

    #[test]
    fn arity_mismatch_rejected() {
        let mut b = CircuitBuilder::new("t");
        let a = b.add_input("a");
        let err = b.add_gate(GateKind::Nand2, "g", &[a]).unwrap_err();
        assert!(matches!(err, NetlistError::ArityMismatch { .. }));
    }

    #[test]
    fn unknown_signal_rejected() {
        let mut b = CircuitBuilder::new("t");
        let err = b
            .add_gate(GateKind::Inv, "g", &[Signal::Gate(GateId(7))])
            .unwrap_err();
        assert!(matches!(err, NetlistError::UnknownSignal { .. }));
    }

    #[test]
    fn duplicate_gate_name_rejected() {
        let mut b = CircuitBuilder::new("t");
        let a = b.add_input("a");
        b.add_gate(GateKind::Inv, "g", &[a]).unwrap();
        let err = b.add_gate(GateKind::Inv, "g", &[a]).unwrap_err();
        assert_eq!(err, NetlistError::DuplicateName("g".into()));
    }

    #[test]
    fn no_outputs_rejected() {
        let mut b = CircuitBuilder::new("t");
        let a = b.add_input("a");
        b.add_gate(GateKind::Inv, "g", &[a]).unwrap();
        assert_eq!(b.build().unwrap_err(), NetlistError::NoOutputs);
    }

    #[test]
    fn pi_as_output_rejected() {
        let mut b = CircuitBuilder::new("t");
        let a = b.add_input("a");
        assert!(b.mark_output(a).is_err());
    }

    #[test]
    fn empty_rejected() {
        let b = CircuitBuilder::new("t");
        assert_eq!(b.build().unwrap_err(), NetlistError::Empty);
    }

    #[test]
    fn duplicate_output_dedup() {
        let mut b = CircuitBuilder::new("t");
        let a = b.add_input("a");
        let g = b.add_gate(GateKind::Inv, "g", &[a]).unwrap();
        b.mark_output(g).unwrap();
        b.mark_output(g).unwrap();
        assert_eq!(b.build().unwrap().outputs().len(), 1);
    }

    #[test]
    fn display_mentions_counts() {
        let c = two_gate();
        let s = format!("{c}");
        assert!(s.contains("2 gates"));
    }

    #[test]
    fn error_display_nonempty() {
        for e in [
            NetlistError::NoOutputs,
            NetlistError::Empty,
            NetlistError::DuplicateName("x".into()),
            NetlistError::Cycle("y".into()),
            NetlistError::Parse("z".into()),
        ] {
            assert!(!format!("{e}").is_empty());
        }
    }
}
