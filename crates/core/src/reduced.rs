//! Reduced-space sizing: the objective as a function of the speed factors
//! only, with gradients by reverse-mode (adjoint) differentiation.
//!
//! Eliminating the intermediate variables of the full formulation (every
//! `mu_t, var_t, mu_T, var_T, mu_U, var_U` is determined by the speed
//! factors through a forward SSTA sweep) leaves a smooth bound-constrained
//! problem over `S` alone. Delay constraints are handled by Powell–Hestenes
//! multipliers in shifted-deadline form: each round minimises the
//! objective plus `w·max(0, c − (d − θ))²` with projected L-BFGS, then
//! moves the shift `θ` by the constraint's value, so the round's
//! multiplier `λ = 2wθ` converges at a fixed penalty `w` instead of
//! `w` climbing until the violation `λ/2w` is small. The loop can start
//! from a previous run's [`Multipliers`], which is how a warm re-solve
//! reuses the last answer's multiplier estimates. This solver:
//!
//! * provides warm starts for the full-space augmented-Lagrangian solve
//!   (mirroring how one would drive LANCELOT well), and
//! * serves as the comparison baseline in the benches — it is the natural
//!   "just use adjoints and L-BFGS" alternative to the paper's full NLP.

use crate::spec::{DelaySpec, Objective};
use sgs_netlist::{Circuit, Library, Signal};
use sgs_nlp::lbfgs::{self, GradFn, LbfgsOptions};
use sgs_ssta::DelayModel;
use sgs_statmath::clark::{self, ClarkGrad};

/// Reference to a stochastic value flowing through the forward tape.
#[derive(Debug, Clone, Copy, PartialEq)]
enum OpRef {
    /// A folded constant (primary-input arrivals).
    Const { mu: f64, var: f64 },
    /// Arrival of gate `g`.
    Arr(usize),
    /// Max-tree node `i`.
    Node(usize),
}

/// One recorded two-operand max.
#[derive(Debug, Clone)]
struct MaxNode {
    grad: ClarkGrad,
    a: OpRef,
    b: OpRef,
}

/// Replayable event for the reverse sweep.
#[derive(Debug, Clone, Copy)]
enum Event {
    /// Max node `i` was computed.
    Node(usize),
    /// Gate `g`'s arrival was computed as `u + t` with the given max input.
    Arr { gate: usize, u: OpRef },
}

/// Forward tape of one evaluation. Held as reusable scratch inside
/// [`ReducedObjective`]: the L-BFGS loop evaluates thousands of times,
/// so the tape's vectors are cleared and refilled rather than
/// reallocated.
#[derive(Debug, Clone)]
struct Tape {
    mu_t: Vec<f64>,
    load: Vec<f64>,
    nodes: Vec<MaxNode>,
    events: Vec<Event>,
    tmax: OpRef,
    mu_tmax: f64,
    var_tmax: f64,
    /// Per-gate arrival moments (needed for per-output constraints).
    arr: Vec<(f64, f64)>,
}

impl Default for Tape {
    fn default() -> Self {
        Tape {
            mu_t: Vec::new(),
            load: Vec::new(),
            nodes: Vec::new(),
            events: Vec::new(),
            tmax: OpRef::Const { mu: 0.0, var: 0.0 },
            mu_tmax: 0.0,
            var_tmax: 0.0,
            arr: Vec::new(),
        }
    }
}

/// Reusable adjoint buffers for the reverse sweep.
#[derive(Debug, Clone, Default)]
struct AdjointBufs {
    a_arr_mu: Vec<f64>,
    a_arr_var: Vec<f64>,
    a_node_mu: Vec<f64>,
    a_node_var: Vec<f64>,
    a_mt: Vec<f64>,
    a_vt: Vec<f64>,
}

impl AdjointBufs {
    fn reset(&mut self, n: usize, nodes: usize) {
        for v in [
            &mut self.a_arr_mu,
            &mut self.a_arr_var,
            &mut self.a_mt,
            &mut self.a_vt,
        ] {
            v.clear();
            v.resize(n, 0.0);
        }
        for v in [&mut self.a_node_mu, &mut self.a_node_var] {
            v.clear();
            v.resize(nodes, 0.0);
        }
    }
}

/// The reduced-space objective `F(S)` with adjoint gradients, implementing
/// [`GradFn`] for the projected L-BFGS solver.
#[derive(Debug)]
pub struct ReducedObjective<'a> {
    circuit: &'a Circuit,
    model: DelayModel,
    objective: Objective,
    spec: DelaySpec,
    /// Quadratic-penalty weight for the delay constraint.
    pub penalty_weight: f64,
    /// Deadline shift `θ` per constraint (one per output for
    /// [`DelaySpec::PerOutput`]): the penalty measures `c − (d − θ)`.
    theta: Vec<f64>,
    kappa2: f64,
    eps: f64,
    input_arrivals: Option<Vec<sgs_statmath::Normal>>,
    // Per-evaluation scratch, reused across the L-BFGS iterations.
    scratch: Tape,
    /// The point `scratch` was recorded at (empty before the first
    /// sweep). The tape depends on neither `penalty_weight` nor `theta`.
    taped_at: Vec<f64>,
    adj: AdjointBufs,
}

impl<'a> ReducedObjective<'a> {
    /// Builds the evaluator.
    pub fn new(circuit: &'a Circuit, lib: &Library, objective: Objective, spec: DelaySpec) -> Self {
        let constraints = match &spec {
            DelaySpec::None => 0,
            DelaySpec::PerOutput { d, .. } => d.len(),
            _ => 1,
        };
        ReducedObjective {
            circuit,
            model: DelayModel::new(circuit, lib),
            objective,
            spec,
            penalty_weight: 10.0,
            theta: vec![0.0; constraints],
            kappa2: lib.sigma_factor * lib.sigma_factor,
            eps: clark::DEFAULT_EPS,
            input_arrivals: None,
            scratch: Tape::default(),
            taped_at: Vec::new(),
            adj: AdjointBufs::default(),
        }
    }

    /// Sets explicit primary-input arrival distributions (default:
    /// deterministic arrival at 0).
    ///
    /// # Panics
    ///
    /// Panics if the length differs from the circuit's input count.
    pub fn with_input_arrivals(mut self, arrivals: Vec<sgs_statmath::Normal>) -> Self {
        assert_eq!(
            arrivals.len(),
            self.circuit.num_inputs(),
            "one arrival distribution per primary input"
        );
        self.input_arrivals = Some(arrivals);
        self.taped_at.clear();
        self
    }

    fn pi_ref(&self, p: usize) -> OpRef {
        match &self.input_arrivals {
            None => OpRef::Const { mu: 0.0, var: 0.0 },
            Some(a) => OpRef::Const {
                mu: a[p].mean(),
                var: a[p].var(),
            },
        }
    }

    /// Forward sweep: SSTA with a gradient tape. Allocates a fresh tape —
    /// the cold-path entry for [`ReducedObjective::violation`] and
    /// [`ReducedObjective::delay_moments`]; the hot path goes through
    /// [`ReducedObjective::forward_into`].
    fn forward(&self, s: &[f64]) -> Tape {
        let mut tape = Tape::default();
        self.forward_into(s, &mut tape);
        tape
    }

    /// The scratch tape at `x`: the recorded one when `x` is bitwise the
    /// point it was taped at (L-BFGS asks for the gradient at the point
    /// whose value it just accepted), else a fresh forward sweep.
    fn take_tape(&mut self, x: &[f64]) -> Tape {
        let mut tape = std::mem::take(&mut self.scratch);
        let same = self.taped_at.len() == x.len()
            && self
                .taped_at
                .iter()
                .zip(x)
                .all(|(a, b)| a.to_bits() == b.to_bits());
        if !same {
            self.forward_into(x, &mut tape);
            self.taped_at.clear();
            self.taped_at.extend_from_slice(x);
        }
        tape
    }

    /// Forward sweep into a caller-provided tape, reusing its buffers.
    fn forward_into(&self, s: &[f64], tape: &mut Tape) {
        let n = self.circuit.num_gates();
        tape.mu_t.clear();
        tape.mu_t.resize(n, 0.0);
        tape.load.clear();
        tape.load.resize(n, 0.0);
        tape.arr.clear();
        tape.arr.resize(n, (0.0, 0.0));
        tape.nodes.clear();
        tape.events.clear();
        let mu_t = &mut tape.mu_t;
        let load = &mut tape.load;
        let arr = &mut tape.arr;
        let nodes = &mut tape.nodes;
        let events = &mut tape.events;

        let value_of = |r: OpRef, arr: &[(f64, f64)], nodes: &[MaxNode]| -> (f64, f64) {
            match r {
                OpRef::Const { mu, var } => (mu, var),
                OpRef::Arr(g) => arr[g],
                OpRef::Node(i) => (nodes[i].grad.mu, nodes[i].grad.var),
            }
        };

        for (id, gate) in self.circuit.gates() {
            let g = id.index();
            load[g] = self.model.load_cap(id, s);
            mu_t[g] = self.model.t_int(id) + self.model.c() * load[g] / s[g];

            // Fold the fan-in max.
            let mut acc = match gate.inputs[0] {
                Signal::Pi(p) => self.pi_ref(p),
                Signal::Gate(src) => OpRef::Arr(src.index()),
            };
            for &sig in &gate.inputs[1..] {
                let op = match sig {
                    Signal::Pi(p) => self.pi_ref(p),
                    Signal::Gate(src) => OpRef::Arr(src.index()),
                };
                let (ma, va) = value_of(acc, arr, nodes);
                let (mb, vb) = value_of(op, arr, nodes);
                if matches!(acc, OpRef::Const { .. }) && matches!(op, OpRef::Const { .. }) {
                    let gr = clark::max_grad(ma, va, mb, vb, self.eps);
                    acc = OpRef::Const {
                        mu: gr.mu,
                        var: gr.var,
                    };
                } else {
                    let gr = clark::max_grad(ma, va, mb, vb, self.eps);
                    nodes.push(MaxNode {
                        grad: gr,
                        a: acc,
                        b: op,
                    });
                    events.push(Event::Node(nodes.len() - 1));
                    acc = OpRef::Node(nodes.len() - 1);
                }
            }
            let (umu, uvar) = value_of(acc, arr, nodes);
            let vt = self.kappa2 * mu_t[g] * mu_t[g];
            arr[g] = (umu + mu_t[g], uvar + vt);
            events.push(Event::Arr { gate: g, u: acc });
        }

        // Output chain.
        let mut acc = OpRef::Arr(self.circuit.outputs()[0].index());
        for &o in &self.circuit.outputs()[1..] {
            let op = OpRef::Arr(o.index());
            let (ma, va) = value_of(acc, arr, nodes);
            let (mb, vb) = value_of(op, arr, nodes);
            let gr = clark::max_grad(ma, va, mb, vb, self.eps);
            nodes.push(MaxNode {
                grad: gr,
                a: acc,
                b: op,
            });
            events.push(Event::Node(nodes.len() - 1));
            acc = OpRef::Node(nodes.len() - 1);
        }
        let (mu_tmax, var_tmax) = value_of(acc, arr, nodes);
        tape.tmax = acc;
        tape.mu_tmax = mu_tmax;
        tape.var_tmax = var_tmax;
    }

    /// The objective (without penalty terms) from tape results.
    fn objective_from(&self, s: &[f64], tape: &Tape) -> f64 {
        let sigma = tape.var_tmax.max(1e-18).sqrt();
        match &self.objective {
            Objective::Area => s.iter().sum(),
            Objective::WeightedArea(w) => s.iter().zip(w).map(|(a, b)| a * b).sum(),
            Objective::MeanDelay => tape.mu_tmax,
            Objective::MeanPlusKSigma(k) => tape.mu_tmax + k * sigma,
            Objective::Sigma => sigma,
            Objective::NegSigma => -sigma,
        }
    }

    /// Calls `f(i, g, dc_dvar, at)` for each delay constraint `i`: its
    /// signed value `g = c − d` at the true deadline, `∂c/∂var` (`∂c/∂μ`
    /// is 1) and the gate whose arrival it reads (`None`: the circuit
    /// delay).
    fn each_constraint(&self, tape: &Tape, mut f: impl FnMut(usize, f64, f64, Option<usize>)) {
        let (k, d): (f64, &[f64]) = match &self.spec {
            DelaySpec::None => return,
            DelaySpec::MaxMean(d) | DelaySpec::ExactMean(d) => (0.0, std::slice::from_ref(d)),
            DelaySpec::MaxMeanPlusKSigma { k, d } => (*k, std::slice::from_ref(d)),
            DelaySpec::PerOutput { k, d } => (*k, d),
        };
        let per_output = matches!(self.spec, DelaySpec::PerOutput { .. });
        for (i, &d_i) in d.iter().enumerate() {
            let at = per_output.then(|| self.circuit.outputs()[i].index());
            let (m, v) = at.map_or((tape.mu_tmax, tape.var_tmax), |g| tape.arr[g]);
            let sigma = v.max(1e-18).sqrt();
            f(i, m + k * sigma - d_i, k / (2.0 * sigma), at);
        }
    }

    /// Constraint `i`'s penalised residual at the shifted deadline: `g + θ`
    /// for an equality, else its positive part.
    fn residual(&self, i: usize, g: f64) -> f64 {
        let r = g + self.theta[i];
        if self.equality() {
            r
        } else {
            r.max(0.0)
        }
    }

    /// Whether the spec is an equality ([`DelaySpec::ExactMean`]).
    fn equality(&self) -> bool {
        matches!(self.spec, DelaySpec::ExactMean(_))
    }

    /// `(dF/d mu_Tmax, dF/d var_Tmax, direct dF/dS)` seeds of the
    /// objective; the penalty is seeded in `grad`.
    fn objective_seeds(&self, tape: &Tape, ds: &mut [f64]) -> (f64, f64) {
        let dsigma_dvar = 1.0 / (2.0 * tape.var_tmax.max(1e-18).sqrt());
        match &self.objective {
            Objective::Area => {
                for d in ds.iter_mut() {
                    *d += 1.0;
                }
                (0.0, 0.0)
            }
            Objective::WeightedArea(w) => {
                for (d, &wi) in ds.iter_mut().zip(w) {
                    *d += wi;
                }
                (0.0, 0.0)
            }
            Objective::MeanDelay => (1.0, 0.0),
            Objective::MeanPlusKSigma(k) => (1.0, k * dsigma_dvar),
            Objective::Sigma => (0.0, dsigma_dvar),
            Objective::NegSigma => (0.0, -dsigma_dvar),
        }
    }

    /// Delay-constraint violation at `s` (0 when satisfied).
    pub fn violation(&self, s: &[f64]) -> f64 {
        let tape = self.forward(s);
        let mut worst = 0.0f64;
        let eq = self.equality();
        self.each_constraint(&tape, |_, g, _, _| {
            worst = worst.max(if eq { g.abs() } else { g.max(0.0) })
        });
        worst
    }

    /// The multiplier step at `s`, the first-order update
    /// `λ ← max(0, λ + 2wg)` of `λ = 2wθ`: `θ ← max(0, θ + g)` (unclipped
    /// for an equality). Returns the largest violation at the true
    /// deadline: `|g|` where the shift stays positive (the constraint is
    /// held active) or for an equality, else `max(0, g)`.
    fn multiplier_step(&mut self, s: &[f64]) -> f64 {
        let tape = self.take_tape(s);
        let mut theta = std::mem::take(&mut self.theta);
        let eq = self.equality();
        let mut worst = 0.0f64;
        self.each_constraint(&tape, |i, g, _, _| {
            let t = theta[i] + g;
            theta[i] = if eq { t } else { t.max(0.0) };
            let held = eq || theta[i] > 0.0;
            worst = worst.max(if held { g.abs() } else { g.max(0.0) });
        });
        (self.theta, self.scratch) = (theta, tape);
        worst
    }

    /// The circuit delay moments at `s` (forward sweep only).
    pub fn delay_moments(&self, s: &[f64]) -> (f64, f64) {
        let tape = self.forward(s);
        (tape.mu_tmax, tape.var_tmax)
    }
}

impl GradFn for ReducedObjective<'_> {
    fn n(&self) -> usize {
        self.circuit.num_gates()
    }

    fn value(&mut self, x: &[f64]) -> f64 {
        let tape = self.take_tape(x);
        let w = self.penalty_weight;
        let mut v = self.objective_from(x, &tape);
        self.each_constraint(&tape, |i, g, _, _| v += w * self.residual(i, g).powi(2));
        self.scratch = tape;
        v
    }

    fn grad(&mut self, x: &[f64], g: &mut [f64]) {
        let n = self.circuit.num_gates();
        let tape = self.take_tape(x);
        let mut adj = std::mem::take(&mut self.adj);
        g.fill(0.0);

        // Adjoints, in buffers reused across evaluations.
        adj.reset(n, tape.nodes.len());
        let AdjointBufs {
            a_arr_mu,
            a_arr_var,
            a_node_mu,
            a_node_var,
            a_mt,
            a_vt,
        } = &mut adj;

        let (mut dmu, mut dvar) = self.objective_seeds(&tape, g);
        // Penalty seeds: on the circuit delay's moments, or directly on a
        // constrained output's arrival.
        let w = self.penalty_weight;
        self.each_constraint(&tape, |i, c, dc_dvar, at| {
            let a = 2.0 * w * self.residual(i, c);
            match at {
                _ if a == 0.0 => {}
                Some(o) => {
                    a_arr_mu[o] += a;
                    a_arr_var[o] += a * dc_dvar;
                }
                None => {
                    dmu += a;
                    dvar += a * dc_dvar;
                }
            }
        });
        match tape.tmax {
            OpRef::Arr(gt) => {
                a_arr_mu[gt] += dmu;
                a_arr_var[gt] += dvar;
            }
            OpRef::Node(i) => {
                a_node_mu[i] += dmu;
                a_node_var[i] += dvar;
            }
            OpRef::Const { .. } => unreachable!("tmax is never constant"),
        }

        // Reverse event sweep.
        for ev in tape.events.iter().rev() {
            match *ev {
                Event::Node(i) => {
                    let node = &tape.nodes[i];
                    let (amu, avar) = (a_node_mu[i], a_node_var[i]);
                    if amu == 0.0 && avar == 0.0 {
                        continue;
                    }
                    let mut add = |r: OpRef, slot_mu: usize, slot_var: usize| match r {
                        OpRef::Const { .. } => {}
                        OpRef::Arr(g2) => {
                            a_arr_mu[g2] +=
                                amu * node.grad.dmu[slot_mu] + avar * node.grad.dvar[slot_mu];
                            a_arr_var[g2] +=
                                amu * node.grad.dmu[slot_var] + avar * node.grad.dvar[slot_var];
                        }
                        OpRef::Node(j) => {
                            a_node_mu[j] +=
                                amu * node.grad.dmu[slot_mu] + avar * node.grad.dvar[slot_mu];
                            a_node_var[j] +=
                                amu * node.grad.dmu[slot_var] + avar * node.grad.dvar[slot_var];
                        }
                    };
                    add(node.a, 0, 1);
                    add(node.b, 2, 3);
                }
                Event::Arr { gate, u } => {
                    let (amu, avar) = (a_arr_mu[gate], a_arr_var[gate]);
                    a_mt[gate] += amu;
                    a_vt[gate] += avar;
                    match u {
                        OpRef::Const { .. } => {}
                        OpRef::Arr(g2) => {
                            a_arr_mu[g2] += amu;
                            a_arr_var[g2] += avar;
                        }
                        OpRef::Node(i) => {
                            a_node_mu[i] += amu;
                            a_node_var[i] += avar;
                        }
                    }
                }
            }
        }

        // Gate-delay adjoints -> speed factors.
        // var_t = kappa2 mu_t^2; mu_t = t_int + c L / S with
        // L = C_static + sum C_in,j S_j.
        for (id, _) in self.circuit.gates() {
            let gi = id.index();
            let amt = a_mt[gi] + a_vt[gi] * 2.0 * self.kappa2 * tape.mu_t[gi];
            if amt == 0.0 {
                continue;
            }
            let c = self.model.c();
            g[gi] += amt * (-c * tape.load[gi] / (x[gi] * x[gi]));
            for &j in self.model.fanouts(id) {
                g[j.index()] += amt * c * self.model.c_in(j) / x[gi];
            }
        }

        self.scratch = tape;
        self.adj = adj;
    }
}

/// Options for [`solve_reduced`].
#[derive(Debug, Clone)]
pub struct ReducedOptions {
    /// Inner L-BFGS settings.
    pub lbfgs: LbfgsOptions,
    /// Delay-constraint violation tolerance for the multiplier loop.
    pub tol_viol: f64,
    /// Penalty growth factor for a round whose violation fell by less.
    pub penalty_mult: f64,
    /// Maximum multiplier rounds.
    pub max_rounds: usize,
}

impl Default for ReducedOptions {
    fn default() -> Self {
        ReducedOptions {
            lbfgs: LbfgsOptions {
                tol: 1e-7,
                max_iter: 400,
                memory: 12,
            },
            tol_viol: 1e-6,
            penalty_mult: 10.0,
            max_rounds: 8,
        }
    }
}

/// The multiplier loop's state: one deadline shift `θ` per delay
/// constraint and the penalty weight `w`, so that `λ = 2wθ`.
#[derive(Debug, Clone)]
pub struct Multipliers {
    /// Deadline shift per constraint (empty for [`DelaySpec::None`]).
    pub theta: Vec<f64>,
    /// Penalty weight.
    pub weight: f64,
}

/// Result of [`solve_reduced`].
#[derive(Debug, Clone)]
pub struct ReducedResult {
    /// Optimised speed factors.
    pub s: Vec<f64>,
    /// Objective value (without penalty terms).
    pub objective: f64,
    /// Final delay-constraint violation.
    pub violation: f64,
    /// Total L-BFGS iterations over all rounds.
    pub iterations: usize,
    /// The multipliers `s` was minimised under (before the last round's
    /// update): restarting the loop from `s` and these reproduces `s`.
    pub multipliers: Multipliers,
}

/// Solves the reduced-space problem with a method-of-multipliers loop
/// around projected L-BFGS.
pub fn solve_reduced(
    circuit: &Circuit,
    lib: &Library,
    objective: Objective,
    spec: DelaySpec,
    s0: &[f64],
    opts: &ReducedOptions,
) -> ReducedResult {
    solve_reduced_with_arrivals(circuit, lib, objective, spec, s0, opts, None, None)
}

/// [`solve_reduced`] with explicit primary-input arrival distributions,
/// starting the multiplier loop from `start` (default: no shift, weight
/// 10).
#[allow(clippy::too_many_arguments)]
pub fn solve_reduced_with_arrivals(
    circuit: &Circuit,
    lib: &Library,
    objective: Objective,
    spec: DelaySpec,
    s0: &[f64],
    opts: &ReducedOptions,
    input_arrivals: Option<&[sgs_statmath::Normal]>,
    start: Option<&Multipliers>,
) -> ReducedResult {
    let n = circuit.num_gates();
    assert_eq!(s0.len(), n, "one speed factor per gate");
    let l = vec![1.0; n];
    let u = vec![lib.s_limit; n];
    let mut red = ReducedObjective::new(circuit, lib, objective, spec);
    if let Some(a) = input_arrivals {
        red = red.with_input_arrivals(a.to_vec());
    }
    if let Some(m) = start {
        assert_eq!(m.theta.len(), red.theta.len(), "one shift per constraint");
        red.theta.clone_from(&m.theta);
        red.penalty_weight = m.weight;
    }
    let mut under = Multipliers {
        theta: red.theta.clone(),
        weight: red.penalty_weight,
    };
    let mut s = s0.to_vec();
    let mut iters = 0usize;
    let mut last = f64::INFINITY;
    let rounds = if red.spec.is_some() {
        opts.max_rounds
    } else {
        1
    };
    for _ in 0..rounds {
        let r = lbfgs::minimize(&mut red, &s, &l, &u, &opts.lbfgs);
        count_work(&r);
        s = r.x;
        iters += r.iterations;
        under.theta.clone_from(&red.theta);
        under.weight = red.penalty_weight;
        let viol = red.multiplier_step(&s);
        // A round cut at the iteration cap is no minimiser of its
        // subproblem, however feasible: it is never the answer.
        if viol <= opts.tol_viol && r.iterations < opts.lbfgs.max_iter {
            break;
        }
        // The penalty grows only when the multipliers stall; the shift
        // shrinks with it so that lambda = 2 w theta is held.
        if viol > last / opts.penalty_mult {
            red.penalty_weight *= opts.penalty_mult;
            red.theta.iter_mut().for_each(|t| *t /= opts.penalty_mult);
        }
        last = viol;
    }
    let tape = red.forward(&s);
    ReducedResult {
        objective: red.objective_from(&s, &tape),
        violation: red.violation(&s),
        s,
        iterations: iters,
        multipliers: under,
    }
}

/// Adds one round (its L-BFGS run's iterations and evaluations) to the
/// metrics registry.
fn count_work(r: &lbfgs::LbfgsResult) {
    use sgs_metrics::{add, Counter};
    add(Counter::ReducedRounds, 1);
    add(Counter::ReducedLbfgsIterations, r.iterations as u64);
    add(Counter::ReducedEvalsValue, r.evals_value as u64);
    add(Counter::ReducedEvalsGrad, r.evals_grad as u64);
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgs_netlist::generate;

    fn lib() -> Library {
        Library::paper_default()
    }

    #[test]
    fn forward_matches_ssta() {
        let c = generate::ripple_carry_adder(5);
        let s: Vec<f64> = (0..c.num_gates())
            .map(|i| 1.0 + 0.08 * (i % 20) as f64)
            .collect();
        let red = ReducedObjective::new(&c, &lib(), Objective::MeanDelay, DelaySpec::None);
        let (mu, var) = red.delay_moments(&s);
        let r = sgs_ssta::ssta(&c, &lib(), &s);
        assert!((mu - r.delay.mean()).abs() < 1e-9);
        assert!((var - r.delay.var()).abs() < 1e-9);
    }

    #[test]
    fn adjoint_gradient_matches_finite_differences() {
        let c = generate::tree7();
        for obj in [
            Objective::MeanDelay,
            Objective::MeanPlusKSigma(3.0),
            Objective::Sigma,
            Objective::Area,
        ] {
            let mut red = ReducedObjective::new(&c, &lib(), obj.clone(), DelaySpec::None);
            let s = vec![1.5, 1.2, 2.0, 1.4, 1.9, 2.5, 2.8];
            let mut g = vec![0.0; 7];
            red.grad(&s, &mut g);
            for i in 0..7 {
                let h = 1e-6;
                let mut sp = s.clone();
                let mut sm = s.clone();
                sp[i] += h;
                sm[i] -= h;
                let num = (red.value(&sp) - red.value(&sm)) / (2.0 * h);
                assert!(
                    (g[i] - num).abs() < 1e-5 * (1.0 + num.abs()),
                    "{obj}: dS[{i}] = {} vs fd {}",
                    g[i],
                    num
                );
            }
        }
    }

    #[test]
    fn adjoint_gradient_with_penalty() {
        // Every spec form, at a zero and at a nonzero deadline shift (a
        // negative one only for the equality).
        let c = generate::fig2();
        let outs = c.outputs().len();
        let specs = [
            (DelaySpec::MaxMeanPlusKSigma { k: 3.0, d: 6.0 }, 0.4),
            (DelaySpec::MaxMean(3.5), 0.2),
            (DelaySpec::ExactMean(3.5), -0.3),
            (
                DelaySpec::PerOutput {
                    k: 3.0,
                    d: vec![5.0; outs],
                },
                0.25,
            ),
        ];
        let s = vec![1.3, 1.6, 1.1, 2.2];
        for (spec, shift) in specs {
            for theta in [0.0, shift] {
                let mut red = ReducedObjective::new(&c, &lib(), Objective::Area, spec.clone());
                red.penalty_weight = 50.0;
                red.theta.iter_mut().for_each(|t| *t = theta);
                let mut g = vec![0.0; 4];
                red.grad(&s, &mut g);
                for i in 0..4 {
                    let h = 1e-6;
                    let mut sp = s.clone();
                    let mut sm = s.clone();
                    sp[i] += h;
                    sm[i] -= h;
                    let num = (red.value(&sp) - red.value(&sm)) / (2.0 * h);
                    assert!(
                        (g[i] - num).abs() < 1e-4 * (1.0 + num.abs()),
                        "{spec:?} at theta {theta}: dS[{i}] = {} vs fd {num}",
                        g[i]
                    );
                }
            }
        }
    }

    #[test]
    fn gradient_reuses_the_value_tape_bit_for_bit() {
        let c = generate::tree7();
        let spec = DelaySpec::MaxMeanPlusKSigma { k: 3.0, d: 7.0 };
        let s = vec![1.5, 1.2, 2.0, 1.4, 1.9, 2.5, 2.8];
        let cold = |w: f64| {
            let mut red = ReducedObjective::new(&c, &lib(), Objective::Area, spec.clone());
            red.penalty_weight = w;
            let mut g = vec![0.0; 7];
            red.grad(&s, &mut g);
            (red.value(&s), g)
        };
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let mut warm = ReducedObjective::new(&c, &lib(), Objective::Area, spec.clone());
        assert!(warm.violation(&s) > 0.0, "the penalty term is active");
        let mut g = vec![0.0; 7];
        let v = warm.value(&s);
        warm.grad(&s, &mut g);
        let (v0, g0) = cold(10.0);
        assert_eq!(v.to_bits(), v0.to_bits());
        assert_eq!(bits(&g), bits(&g0));
        // The tape does not depend on the penalty weight: a new weight
        // reuses it and still matches a cold evaluation.
        warm.penalty_weight = 1e3;
        warm.grad(&s, &mut g);
        let v = warm.value(&s);
        let (v1, g1) = cold(1e3);
        assert_eq!(v.to_bits(), v1.to_bits());
        assert_eq!(bits(&g), bits(&g1));
        assert_ne!(bits(&g0), bits(&g1));
    }

    #[test]
    fn reduced_min_delay_beats_unsized() {
        let c = generate::tree7();
        let r = solve_reduced(
            &c,
            &lib(),
            Objective::MeanDelay,
            DelaySpec::None,
            &[1.0; 7],
            &ReducedOptions::default(),
        );
        let baseline_mu = sgs_ssta::ssta(&c, &lib(), &[1.0; 7]).delay.mean();
        assert!(
            r.objective < baseline_mu - 1.0,
            "{} vs {}",
            r.objective,
            baseline_mu
        );
        // All speed factors in bounds.
        for &si in &r.s {
            assert!((1.0..=3.0 + 1e-9).contains(&si));
        }
    }

    #[test]
    fn reduced_area_with_cap_meets_deadline() {
        let c = generate::tree7();
        let baseline_mu = sgs_ssta::ssta(&c, &lib(), &[1.0; 7]).delay.mean();
        let d = baseline_mu - 1.0;
        let r = solve_reduced(
            &c,
            &lib(),
            Objective::Area,
            DelaySpec::MaxMean(d),
            &[1.0; 7],
            &ReducedOptions::default(),
        );
        assert!(r.violation < 5e-3, "violation {}", r.violation);
        // Some sizing happened but far less than max.
        assert!(
            r.objective > 7.0 && r.objective < 21.0,
            "area {}",
            r.objective
        );
    }

    #[test]
    fn shifted_deadline_holds_the_multiplier_when_the_penalty_grows() {
        // On tree7 the violation stalls and the penalty grows 10 -> 1e4;
        // the deadline shift must shrink with it (lambda = 2 w theta
        // held), or the loop ends on a feasible point with 3% more area
        // (20.770).
        let c = generate::tree7();
        let r = solve_reduced(
            &c,
            &lib(),
            Objective::Area,
            DelaySpec::MaxMean(5.3855),
            &[1.0; 7],
            &ReducedOptions::default(),
        );
        assert!(r.violation <= 1e-6, "violation {}", r.violation);
        assert!(
            (r.objective - 20.13699).abs() < 1e-5,
            "area {}",
            r.objective
        );
    }

    #[test]
    fn a_round_cut_at_the_iteration_cap_is_not_the_answer() {
        // min mu+3sigma s.t. a mean cap it never reaches: every round ends
        // feasible, so only the iteration cap tells the first round's
        // point from a minimiser.
        let c = generate::tree7();
        let spec = DelaySpec::MaxMean(100.0);
        let mut opts = ReducedOptions::default();
        opts.lbfgs.max_iter = 3;
        let solve = |opts: &ReducedOptions| {
            solve_reduced(
                &c,
                &lib(),
                Objective::MeanPlusKSigma(3.0),
                spec.clone(),
                &[1.0; 7],
                opts,
            )
        };
        let first = solve(&ReducedOptions {
            max_rounds: 1,
            ..opts.clone()
        });
        assert_eq!(first.iterations, 3, "the first round is capped");
        assert_eq!(first.violation, 0.0);
        let r = solve(&opts);
        assert!(r.iterations > 3, "{} iterations", r.iterations);
        assert!(
            r.objective < first.objective - 1e-3,
            "{} vs {}",
            r.objective,
            first.objective
        );
    }
}
