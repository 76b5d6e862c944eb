//! The sizable-gate delay model evaluated for concrete speed factors.

use sgs_netlist::{Circuit, GateId, Library};
use sgs_statmath::Normal;

/// Precomputed per-gate delay-model data over a borrowed circuit: static
/// loads and per-gate electrical parameters, so repeated delay evaluation
/// (sizing inner loops, Monte Carlo) costs no graph traversal.
///
/// Building one is linear in the gate count and reads no fan-in list: the
/// fan-out lists belong to the circuit, laid out once when it was built,
/// and load sums walk [`Circuit::fanout`] in its order (ascending reader
/// id, once per reading pin). Every gate delay of the crate (full pass,
/// incremental engine) is this model's [`DelayModel::gate_delay`].
#[derive(Debug, Clone)]
pub struct DelayModel<'a> {
    circuit: &'a Circuit,
    t_int: Vec<f64>,
    c_in: Vec<f64>,
    static_load: Vec<f64>,
    c: f64,
    sigma_factor: f64,
    s_limit: f64,
}

impl<'a> DelayModel<'a> {
    /// Builds the model for a circuit under a library.
    pub fn new(circuit: &'a Circuit, lib: &Library) -> Self {
        let n = circuit.num_gates();
        let mut t_int = Vec::with_capacity(n);
        let mut c_in = Vec::with_capacity(n);
        let mut static_load = Vec::with_capacity(n);
        for (id, gate) in circuit.gates() {
            let p = lib.params(gate.kind);
            t_int.push(p.t_int);
            c_in.push(p.c_in);
            let mut load = lib.wire_load + gate.extra_load;
            if circuit.is_output(id) {
                load += lib.po_load;
            }
            static_load.push(load);
        }
        DelayModel {
            circuit,
            t_int,
            c_in,
            static_load,
            c: lib.c,
            sigma_factor: lib.sigma_factor,
            s_limit: lib.s_limit,
        }
    }

    /// Number of gates.
    pub fn num_gates(&self) -> usize {
        self.circuit.num_gates()
    }

    /// The library's speed-factor upper bound.
    pub fn s_limit(&self) -> f64 {
        self.s_limit
    }

    /// The library's `sigma_t / mu_t` ratio.
    pub fn sigma_factor(&self) -> f64 {
        self.sigma_factor
    }

    /// The technology constant `c`.
    pub fn c(&self) -> f64 {
        self.c
    }

    /// Internal delay `t_int` of gate `g`.
    pub fn t_int(&self, g: GateId) -> f64 {
        self.t_int[g.index()]
    }

    /// Unit-size input capacitance `C_in` of gate `g`.
    pub fn c_in(&self, g: GateId) -> f64 {
        self.c_in[g.index()]
    }

    /// Size-independent output load of gate `g` (wiring plus primary-output
    /// load where applicable).
    pub fn static_load(&self, g: GateId) -> f64 {
        self.static_load[g.index()]
    }

    /// The circuit the model was built over.
    pub fn circuit(&self) -> &'a Circuit {
        self.circuit
    }

    /// Total capacitive load seen by gate `g` under speed factors `s`:
    /// `C_load + sum_j C_in,j * S_j` over the fan-out gates `j`.
    ///
    /// # Panics
    ///
    /// Panics if `s.len()` differs from the gate count.
    pub fn load_cap(&self, g: GateId, s: &[f64]) -> f64 {
        assert_eq!(s.len(), self.num_gates(), "speed vector length mismatch");
        let mut cap = self.static_load[g.index()];
        for j in self.circuit.fanout(g) {
            cap += self.c_in[j.index()] * s[j.index()];
        }
        cap
    }

    /// Mean gate delay under speed factors `s` (paper Eq. 14):
    /// `mu_t = t_int + c * load_cap / S`.
    pub fn mu_t(&self, g: GateId, s: &[f64]) -> f64 {
        self.t_int[g.index()] + self.c * self.load_cap(g, s) / s[g.index()]
    }

    /// Full gate delay distribution: `N(mu_t, sigma_factor * mu_t)`.
    pub fn gate_delay(&self, g: GateId, s: &[f64]) -> Normal {
        let mu = self.mu_t(g, s);
        Normal::new(mu, self.sigma_factor * mu)
    }

    /// Sum of speed factors — the paper's area measure.
    ///
    /// # Panics
    ///
    /// Panics if `s.len()` differs from the gate count.
    pub fn area(&self, s: &[f64]) -> f64 {
        assert_eq!(s.len(), self.num_gates(), "speed vector length mismatch");
        s.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgs_netlist::generate;

    #[test]
    fn tree7_unsized_delays() {
        let c = generate::tree7();
        let lib = Library::paper_default();
        let m = DelayModel::new(&c, &lib);
        let s = vec![1.0; 7];
        // Leaf gate A (index 0) drives C: load = wire + c_in(NAND2).
        let mu_a = m.mu_t(GateId(0), &s);
        let p = lib.params(sgs_netlist::GateKind::Nand2);
        let want = p.t_int + lib.c * (lib.wire_load + p.c_in * 1.0);
        assert!((mu_a - want).abs() < 1e-12);
        // Output gate G (index 6): load = wire + po_load, no fan-out.
        let mu_g = m.mu_t(GateId(6), &s);
        let want_g = p.t_int + lib.c * (lib.wire_load + lib.po_load);
        assert!((mu_g - want_g).abs() < 1e-12);
    }

    #[test]
    fn speedup_reduces_delay() {
        let c = generate::tree7();
        let lib = Library::paper_default();
        let m = DelayModel::new(&c, &lib);
        let s1 = vec![1.0; 7];
        let mut s3 = vec![1.0; 7];
        s3[6] = 3.0;
        // Speeding G up reduces G's delay...
        assert!(m.mu_t(GateId(6), &s3) < m.mu_t(GateId(6), &s1));
        // ...but increases the load-dependent delay of its fan-in C.
        assert!(m.mu_t(GateId(2), &s3) > m.mu_t(GateId(2), &s1));
    }

    #[test]
    fn sigma_tracks_mean() {
        let c = generate::fig2();
        let lib = Library::paper_default();
        let m = DelayModel::new(&c, &lib);
        let s = vec![1.5; 4];
        for (id, _) in c.gates() {
            let d = m.gate_delay(id, &s);
            assert!((d.sigma() - 0.25 * d.mean()).abs() < 1e-12);
        }
    }

    #[test]
    fn po_with_fanout_gets_both_loads() {
        // fig2's gate C is both a primary output and a fan-in of D.
        let c = generate::fig2();
        let lib = Library::paper_default();
        let m = DelayModel::new(&c, &lib);
        let gc = c.gates().find(|(_, g)| g.name == "C").unwrap().0;
        let gd = c.gates().find(|(_, g)| g.name == "D").unwrap().0;
        let s = vec![1.0; 4];
        let load = m.load_cap(gc, &s);
        let want = lib.wire_load + lib.po_load + lib.params(c.gate(gd).kind).c_in;
        assert!((load - want).abs() < 1e-12);
    }

    #[test]
    fn area_is_sum() {
        let c = generate::tree7();
        let m = DelayModel::new(&c, &Library::paper_default());
        assert!((m.area(&[1.0, 2.0, 3.0, 1.0, 1.0, 1.0, 1.0]) - 10.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn wrong_s_len_rejected() {
        let c = generate::tree7();
        let m = DelayModel::new(&c, &Library::paper_default());
        let _ = m.mu_t(GateId(0), &[1.0, 1.0]);
    }
}
