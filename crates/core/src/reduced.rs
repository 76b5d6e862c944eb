//! Reduced-space sizing: the objective as a function of the speed factors
//! only, with gradients by reverse-mode (adjoint) differentiation and
//! Hessian-vector products by a second-order adjoint (a forward tangent
//! sweep, then a reverse sweep through each max node's Clark Hessians
//! weighted by its adjoints; see DERIVATIONS.md).
//!
//! Eliminating the intermediate variables of the full formulation (every
//! `mu_t, var_t, mu_T, var_T, mu_U, var_U` is determined by the speed
//! factors through a forward SSTA sweep) leaves a smooth bound-constrained
//! problem over `S` alone. Delay constraints are handled by Powell–Hestenes
//! multipliers in shifted-deadline form: each round minimises the
//! objective plus `w·max(0, c − (d − θ))²` with projected truncated
//! Newton (`sgs_nlp::newton`), then moves the shift `θ` by the
//! constraint's value, so the round's multiplier `λ = 2wθ` converges at a
//! fixed penalty `w` instead of `w` climbing until the violation `λ/2w`
//! is small. The loop can start from a previous run's [`Multipliers`],
//! which is how a warm re-solve reuses the last answer's multiplier
//! estimates. Each round is traced as one outer-iteration record, the
//! whole loop as one `solve_done` record.
//!
//! This solver is the default sizing pipeline
//! ([`crate::SolverChoice::ReducedSpace`]), and under
//! [`crate::SolverChoice::FullSpace`] the seed of the paper's full-space
//! augmented-Lagrangian solve (mirroring how one would drive LANCELOT
//! well).

use crate::spec::{DelaySpec, Objective};
use sgs_netlist::{Circuit, Library, Signal};
use sgs_nlp::auglag::SolveStatus;
use sgs_nlp::newton::{self, NewtonOptions};
use sgs_nlp::tr::SmoothFn;
use sgs_ssta::DelayModel;
use sgs_statmath::clark::{self, ClarkFrame};
use sgs_trace::{EvalReport, OuterRecord, SolveRecord, TraceEvent, Tracer};

/// The circuit's max structure as flat slot indices, compiled once per
/// [`ReducedObjective`]: it depends on the circuit alone, not on the
/// point. A slot holds one `(μ, var)` value. The constants come first
/// (one per primary input, then one per max of two constants), then one
/// arrival per gate, then one value per taped max node.
#[derive(Debug, Clone)]
struct Program {
    /// Number of primary inputs: slots `0..inputs` hold their arrivals.
    inputs: usize,
    /// Maxes of two constants as `[a, b, out]`, all constant slots, in
    /// dependency order. They run on every forward sweep, so their
    /// variance clamps are counted like any other, but are not taped.
    folds: Vec<[usize; 3]>,
    /// Slot of gate 0's arrival; gate `g`'s is `arr0 + g`.
    arr0: usize,
    /// Slot of max node 0; node `i`'s is `node0 + i`.
    node0: usize,
    /// Operand slots `[a, b]` per max node.
    operands: Vec<[usize; 2]>,
    /// Per gate, the first of its fan-in max nodes, plus a sentinel: gate
    /// `g` computes nodes `gate_nodes[g]..gate_nodes[g + 1]`, and the
    /// nodes from `gate_nodes[n]` on fold the outputs.
    gate_nodes: Vec<usize>,
    /// Per gate, the slot of its fan-in max `u` (its arrival is `u + t`).
    fanin: Vec<usize>,
    /// Slot of the circuit delay `T_max`.
    tmax: usize,
}

/// A value of the program before slot numbers are known.
#[derive(Debug, Clone, Copy)]
enum Ref {
    Const(usize),
    Arr(usize),
    Node(usize),
}

/// The maxes of a [`Program`] as they are compiled.
#[derive(Debug, Default)]
struct Builder {
    /// Constants so far (the primary inputs, then the folded maxes).
    consts: usize,
    folds: Vec<[usize; 3]>,
    operands: Vec<[Ref; 2]>,
}

impl Builder {
    /// The two-operand max of `a` and `b`: a new constant when both are
    /// constants, else a new taped node.
    fn max(&mut self, a: Ref, b: Ref) -> Ref {
        match (a, b) {
            (Ref::Const(a), Ref::Const(b)) => {
                self.folds.push([a, b, self.consts]);
                self.consts += 1;
                Ref::Const(self.consts - 1)
            }
            _ => {
                self.operands.push([a, b]);
                Ref::Node(self.operands.len() - 1)
            }
        }
    }
}

impl Program {
    /// Compiles the left folds of the two-operand max the SSTA applies:
    /// over each gate's fan-ins, then over the outputs.
    fn compile(circuit: &Circuit) -> Self {
        let n = circuit.num_gates();
        let inputs = circuit.num_inputs();
        let mut b = Builder {
            consts: inputs,
            ..Builder::default()
        };
        let leaf = |sig: Signal| match sig {
            Signal::Pi(p) => Ref::Const(p),
            Signal::Gate(src) => Ref::Arr(src.index()),
        };
        let mut gate_nodes = Vec::with_capacity(n + 1);
        let mut fanin = Vec::with_capacity(n);
        for (_, gate) in circuit.gates() {
            gate_nodes.push(b.operands.len());
            let mut acc = leaf(gate.inputs[0]);
            for &sig in &gate.inputs[1..] {
                acc = b.max(acc, leaf(sig));
            }
            fanin.push(acc);
        }
        gate_nodes.push(b.operands.len());
        let outputs = circuit.outputs();
        let mut tmax = Ref::Arr(outputs[0].index());
        for &o in &outputs[1..] {
            tmax = b.max(tmax, Ref::Arr(o.index()));
        }
        let (arr0, node0) = (b.consts, b.consts + n);
        let slot = |r: Ref| match r {
            Ref::Const(k) => k,
            Ref::Arr(g) => arr0 + g,
            Ref::Node(i) => node0 + i,
        };
        Program {
            inputs,
            folds: b.folds,
            arr0,
            node0,
            operands: b
                .operands
                .iter()
                .map(|&[x, y]| [slot(x), slot(y)])
                .collect(),
            gate_nodes,
            fanin: fanin.into_iter().map(slot).collect(),
            tmax: slot(tmax),
        }
    }

    /// Number of slots.
    fn slots(&self) -> usize {
        self.node0 + self.operands.len()
    }

    /// The max nodes of gate `g`'s fan-in fold.
    fn nodes_of(&self, g: usize) -> std::ops::Range<usize> {
        self.gate_nodes[g]..self.gate_nodes[g + 1]
    }

    /// The max nodes of the output fold.
    fn output_nodes(&self) -> std::ops::Range<usize> {
        self.gate_nodes[self.gate_nodes.len() - 1]..self.operands.len()
    }
}

/// What the forward sweep records for one max node: its first
/// derivatives, and the frame its Hessian is formed from.
#[derive(Debug, Clone, Copy)]
struct NodeRec {
    dmu: [f64; 4],
    dvar: [f64; 4],
    frame: ClarkFrame,
}

/// Forward tape of one evaluation: the `(μ, var)` of every slot of the
/// [`Program`], and what the sweeps need per gate and per max node. Held
/// as reusable scratch inside [`ReducedObjective`]: the Newton loop
/// evaluates thousands of times, so the tape's vectors are refilled
/// rather than reallocated.
#[derive(Debug, Clone, Default)]
struct Tape {
    mu: Vec<f64>,
    var: Vec<f64>,
    mu_t: Vec<f64>,
    load: Vec<f64>,
    nodes: Vec<NodeRec>,
}

/// Reusable per-slot buffers of a sweep: `(μ, var)` adjoints of every
/// slot and of the gate delays for the reverse sweep, or their tangents
/// for the forward tangent sweep of a Hessian-vector product. Constant
/// slots take what is added to them and are never read.
#[derive(Debug, Clone, Default)]
struct SlotBufs {
    mu: Vec<f64>,
    var: Vec<f64>,
    mt: Vec<f64>,
    vt: Vec<f64>,
}

impl SlotBufs {
    fn reset(&mut self, slots: usize, gates: usize) {
        for (v, len) in [
            (&mut self.mu, slots),
            (&mut self.var, slots),
            (&mut self.mt, gates),
            (&mut self.vt, gates),
        ] {
            v.clear();
            v.resize(len, 0.0);
        }
    }

    /// Adds `(mu, var)` into slot `k`.
    #[inline]
    fn add(&mut self, k: usize, mu: f64, var: f64) {
        self.mu[k] += mu;
        self.var[k] += var;
    }
}

/// What [`SmoothFn::prepare_hess`] records for the Hessian-vector
/// products at one point: the tape and first-order adjoints there, reduced
/// to the weights the second-order adjoint sweep needs, so that each
/// product is one forward tangent sweep and one reverse sweep with no
/// special-function call.
#[derive(Debug, Clone, Default)]
struct HessCache {
    tape: Tape,
    s: Vec<f64>,
    /// Per max node, `ā_μ·∇²μ_c + ā_v·∇²v_c` over its inputs `[μ_a, v_a,
    /// μ_b, v_b]`: the node's Clark Hessians weighted by its adjoints.
    w: Vec<[[f64; 4]; 4]>,
    /// Per max node, whether its adjoint is nonzero (else `w` is zero).
    live: Vec<bool>,
    /// Per gate, the first-order adjoints of `μ_t` and `v_t`.
    a_mt: Vec<f64>,
    a_vt: Vec<f64>,
    /// Second derivatives `[∂²/∂μ², ∂²/∂μ∂v, ∂²/∂v²]` of the objective
    /// and of each active penalty in the moments of the slot they read.
    seeds: Vec<(usize, [f64; 3])>,
    /// Per gate, `L̇ = Σ_j C_in,j v_j` over its fanouts.
    load_dot: Vec<f64>,
    /// Tangents of every value along the product's direction.
    tan: SlotBufs,
    /// Tangents of every adjoint along the product's direction.
    adt: SlotBufs,
    /// Gradient scratch for the adjoint sweep.
    g: Vec<f64>,
}

/// The reduced-space objective `F(S)` with adjoint gradients and
/// second-order adjoint Hessian-vector products, implementing
/// [`SmoothFn`] for the projected truncated-Newton solver.
#[derive(Debug)]
pub struct ReducedObjective<'a> {
    circuit: &'a Circuit,
    model: DelayModel,
    program: Program,
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
    // Per-evaluation scratch, reused across the Newton iterations.
    scratch: Tape,
    /// The point `scratch` was recorded at (empty before the first
    /// sweep). The tape depends on neither `penalty_weight` nor `theta`.
    taped_at: Vec<f64>,
    adj: SlotBufs,
    /// The penalty weight and shifts `adj` was computed under, when it
    /// is the adjoint of the `scratch` tape (`None` otherwise).
    adj_key: Option<(f64, Vec<f64>)>,
    hess: HessCache,
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
            program: Program::compile(circuit),
            objective,
            spec,
            penalty_weight: 10.0,
            theta: vec![0.0; constraints],
            kappa2: lib.sigma_factor * lib.sigma_factor,
            eps: clark::DEFAULT_EPS,
            input_arrivals: None,
            scratch: Tape::default(),
            taped_at: Vec::new(),
            adj: SlotBufs::default(),
            adj_key: None,
            hess: HessCache::default(),
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
        self.adj_key = None;
        self
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
    /// point it was taped at (the line search asks for the gradient at the
    /// point whose value it just accepted), else a fresh forward sweep.
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
            self.adj_key = None;
        }
        tape
    }

    /// Forward sweep into a caller-provided tape, reusing its buffers.
    fn forward_into(&self, s: &[f64], tape: &mut Tape) {
        let p = &self.program;
        let n = self.circuit.num_gates();
        let Tape {
            mu,
            var,
            mu_t,
            load,
            nodes,
        } = tape;
        // Every slot is written before it is read.
        mu.resize(p.slots(), 0.0);
        var.resize(p.slots(), 0.0);
        mu_t.resize(n, 0.0);
        load.resize(n, 0.0);
        nodes.clear();

        for k in 0..p.inputs {
            (mu[k], var[k]) = match &self.input_arrivals {
                None => (0.0, 0.0),
                Some(a) => (a[k].mean(), a[k].var()),
            };
        }
        for &[a, b, out] in &p.folds {
            let gr = clark::max_grad(mu[a], var[a], mu[b], var[b], self.eps);
            (mu[out], var[out]) = (gr.mu, gr.var);
        }
        for (id, _) in self.circuit.gates() {
            let g = id.index();
            load[g] = self.model.load_cap(id, s);
            mu_t[g] = self.model.t_int(id) + self.model.c() * load[g] / s[g];
        }
        let mut node = |i: usize, mu: &mut [f64], var: &mut [f64]| {
            let [a, b] = p.operands[i];
            let (gr, frame) = clark::max_grad_frame(mu[a], var[a], mu[b], var[b], self.eps);
            (mu[p.node0 + i], var[p.node0 + i]) = (gr.mu, gr.var);
            nodes.push(NodeRec {
                dmu: gr.dmu,
                dvar: gr.dvar,
                frame,
            });
        };
        for g in 0..n {
            for i in p.nodes_of(g) {
                node(i, mu, var);
            }
            let u = p.fanin[g];
            let vt = self.kappa2 * mu_t[g] * mu_t[g];
            (mu[p.arr0 + g], var[p.arr0 + g]) = (mu[u] + mu_t[g], var[u] + vt);
        }
        for i in p.output_nodes() {
            node(i, mu, var);
        }
    }

    /// The circuit delay moments `(μ, var)` on a tape.
    fn tmax(&self, tape: &Tape) -> (f64, f64) {
        (tape.mu[self.program.tmax], tape.var[self.program.tmax])
    }

    /// The objective (without penalty terms) from tape results.
    fn objective_from(&self, s: &[f64], tape: &Tape) -> f64 {
        let (mu_tmax, var_tmax) = self.tmax(tape);
        let sigma = var_tmax.max(1e-18).sqrt();
        match &self.objective {
            Objective::Area => s.iter().sum(),
            Objective::WeightedArea(w) => s.iter().zip(w).map(|(a, b)| a * b).sum(),
            Objective::MeanDelay => mu_tmax,
            Objective::MeanPlusKSigma(k) => mu_tmax + k * sigma,
            Objective::Sigma => sigma,
            Objective::NegSigma => -sigma,
        }
    }

    /// Calls `f(i, g, dc_dvar, at)` for each delay constraint `i`: its
    /// signed value `g = c − d` at the true deadline, `∂c/∂var` (`∂c/∂μ`
    /// is 1) and the slot of the output arrival it reads (`None`: the
    /// circuit delay).
    fn each_constraint(&self, tape: &Tape, mut f: impl FnMut(usize, f64, f64, Option<usize>)) {
        let (k, d): (f64, &[f64]) = match &self.spec {
            DelaySpec::None => return,
            DelaySpec::MaxMean(d) | DelaySpec::ExactMean(d) => (0.0, std::slice::from_ref(d)),
            DelaySpec::MaxMeanPlusKSigma { k, d } => (*k, std::slice::from_ref(d)),
            DelaySpec::PerOutput { k, d } => (*k, d),
        };
        let per_output = matches!(self.spec, DelaySpec::PerOutput { .. });
        for (i, &d_i) in d.iter().enumerate() {
            let at = per_output.then(|| self.program.arr0 + self.circuit.outputs()[i].index());
            let k_at = at.unwrap_or(self.program.tmax);
            let (m, v) = (tape.mu[k_at], tape.var[k_at]);
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
        let dsigma_dvar = 1.0 / (2.0 * self.tmax(tape).1.max(1e-18).sqrt());
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
        self.tmax(&self.forward(s))
    }

    /// Whether `adj` is the adjoint of the scratch tape under the current
    /// penalty weight and shifts.
    fn adjoint_is_current(&self) -> bool {
        self.adj_key.as_ref().is_some_and(|(w, theta)| {
            w.to_bits() == self.penalty_weight.to_bits()
                && theta.len() == self.theta.len()
                && theta
                    .iter()
                    .zip(&self.theta)
                    .all(|(a, b)| a.to_bits() == b.to_bits())
        })
    }
}

impl ReducedObjective<'_> {
    /// First-order reverse sweep over `tape` (recorded at `x`): fills the
    /// adjoints in `adj` and writes `dF/dS` into `g`.
    fn adjoint(&self, x: &[f64], tape: &Tape, adj: &mut SlotBufs, g: &mut [f64]) {
        let p = &self.program;
        let n = self.circuit.num_gates();
        g.fill(0.0);
        adj.reset(p.slots(), n);

        let (mut dmu, mut dvar) = self.objective_seeds(tape, g);
        // Penalty seeds: on the circuit delay's moments, or directly on a
        // constrained output's arrival.
        let w = self.penalty_weight;
        self.each_constraint(tape, |i, c, dc_dvar, at| {
            let a = 2.0 * w * self.residual(i, c);
            match at {
                _ if a == 0.0 => {}
                Some(k) => adj.add(k, a, a * dc_dvar),
                None => {
                    dmu += a;
                    dvar += a * dc_dvar;
                }
            }
        });
        debug_assert!(p.tmax >= p.arr0, "tmax is never constant");
        adj.add(p.tmax, dmu, dvar);

        // Reverse sweep: the output fold, then each gate from the last,
        // its arrival before its fan-in fold.
        let node = |i: usize, adj: &mut SlotBufs| {
            let (amu, avar) = (adj.mu[p.node0 + i], adj.var[p.node0 + i]);
            if amu == 0.0 && avar == 0.0 {
                return;
            }
            let (dm, dv) = (&tape.nodes[i].dmu, &tape.nodes[i].dvar);
            let part = |k: usize| amu * dm[k] + avar * dv[k];
            let [a, b] = p.operands[i];
            adj.add(a, part(0), part(1));
            adj.add(b, part(2), part(3));
        };
        for i in p.output_nodes().rev() {
            node(i, adj);
        }
        for gi in (0..n).rev() {
            let (amu, avar) = (adj.mu[p.arr0 + gi], adj.var[p.arr0 + gi]);
            adj.mt[gi] += amu;
            adj.vt[gi] += avar;
            adj.add(p.fanin[gi], amu, avar);
            for i in p.nodes_of(gi).rev() {
                node(i, adj);
            }
        }

        // Gate-delay adjoints -> speed factors.
        // var_t = kappa2 mu_t^2; mu_t = t_int + c L / S with
        // L = C_static + sum C_in,j S_j.
        let c = self.model.c();
        for (id, _) in self.circuit.gates() {
            let gi = id.index();
            let amt = adj.mt[gi] + adj.vt[gi] * 2.0 * self.kappa2 * tape.mu_t[gi];
            if amt == 0.0 {
                continue;
            }
            g[gi] += amt * (-c * tape.load[gi] / (x[gi] * x[gi]));
            for &j in self.model.fanouts(id) {
                g[j.index()] += amt * c * self.model.c_in(j) / x[gi];
            }
        }
    }

    /// Second derivatives of the objective and of each active penalty in
    /// the `(mu, var)` of the slot they read, pushed onto `seeds`.
    fn seed_hessians(&self, tape: &Tape, seeds: &mut Vec<(usize, [f64; 3])>) {
        seeds.clear();
        let var_tmax = self.tmax(tape).1;
        // d²σ/dv² = −1/(4σ³), with σ² the floored variance.
        let d2sigma = |v: f64| -0.25 / v.max(1e-18).powf(1.5);
        let hvv = match &self.objective {
            Objective::MeanPlusKSigma(k) => k * d2sigma(var_tmax),
            Objective::Sigma => d2sigma(var_tmax),
            Objective::NegSigma => -d2sigma(var_tmax),
            _ => 0.0,
        };
        if hvv != 0.0 {
            seeds.push((self.program.tmax, [0.0, 0.0, hvv]));
        }
        // w r² with r = μ + kσ − d + θ: 2w∇r∇rᵀ + 2w r∇²r while active.
        let w = self.penalty_weight;
        let eq = self.equality();
        self.each_constraint(tape, |i, c, dc_dvar, at| {
            let r = self.residual(i, c);
            if !eq && r <= 0.0 {
                return;
            }
            let at = at.unwrap_or(self.program.tmax);
            let c_vv = -dc_dvar / (2.0 * tape.var[at].max(1e-18));
            seeds.push((
                at,
                [
                    2.0 * w,
                    2.0 * w * dc_dvar,
                    2.0 * w * (dc_dvar * dc_dvar + r * c_vv),
                ],
            ));
        });
    }
}

impl SmoothFn for ReducedObjective<'_> {
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
        let tape = self.take_tape(x);
        let mut adj = std::mem::take(&mut self.adj);
        self.adjoint(x, &tape, &mut adj, g);
        self.scratch = tape;
        self.adj = adj;
        let mut key = self.adj_key.take().unwrap_or_default();
        key.0 = self.penalty_weight;
        key.1.clone_from(&self.theta);
        self.adj_key = Some(key);
    }

    /// Weights each max node's Clark Hessians, formed from the frames the
    /// forward sweep recorded, by its adjoints at `x`. The tape and the
    /// adjoint are the ones [`SmoothFn::grad`] left at `x` when it ran
    /// there last under the same penalty weight and shifts; otherwise
    /// they are computed here.
    fn prepare_hess(&mut self, x: &[f64]) {
        let n = self.circuit.num_gates();
        let mut tape = self.take_tape(x);
        let mut adj = std::mem::take(&mut self.adj);
        let mut h = std::mem::take(&mut self.hess);
        if !self.adjoint_is_current() {
            h.g.resize(n, 0.0);
            self.adjoint(x, &tape, &mut adj, &mut h.g);
        }

        let p = &self.program;
        h.w.clear();
        h.live.clear();
        for (i, rec) in tape.nodes.iter().enumerate() {
            let (amu, avar) = (adj.mu[p.node0 + i], adj.var[p.node0 + i]);
            let live = amu != 0.0 || avar != 0.0;
            let mut w = [[0.0; 4]; 4];
            if live {
                let hs = clark::hess_from_frame(&rec.frame);
                for (r, row) in w.iter_mut().enumerate() {
                    for (k, e) in row.iter_mut().enumerate() {
                        *e = amu * hs.hmu[r][k] + avar * hs.hvar[r][k];
                    }
                }
            }
            h.w.push(w);
            h.live.push(live);
        }
        h.a_mt.clone_from(&adj.mt);
        h.a_vt.clone_from(&adj.vt);
        self.seed_hessians(&tape, &mut h.seeds);
        h.s.clear();
        h.s.extend_from_slice(x);
        h.load_dot.resize(n, 0.0);

        // The products read the tape at `x`: keep it in the cache, and
        // let the next evaluation re-record the scratch buffers.
        std::mem::swap(&mut h.tape, &mut tape);
        self.scratch = tape;
        self.taped_at.clear();
        self.adj_key = None;
        self.adj = adj;
        self.hess = h;
    }

    /// One forward tangent sweep along `v`, then one reverse sweep of the
    /// adjoint tangents, with the node weights `prepare_hess` cached.
    fn hess_vec(&mut self, v: &[f64], out: &mut [f64]) {
        let HessCache {
            tape,
            s,
            w,
            live,
            a_mt,
            a_vt,
            seeds,
            load_dot,
            tan,
            adt,
            ..
        } = &mut self.hess;
        let p = &self.program;
        let n = self.circuit.num_gates();
        let c = self.model.c();
        let k2 = 2.0 * self.kappa2;

        // Gate-delay tangents: mu_t = t_int + c L / S, v_t = kappa2 mu_t².
        tan.reset(p.slots(), n);
        for (id, _) in self.circuit.gates() {
            let gi = id.index();
            let mut ld = 0.0;
            for &j in self.model.fanouts(id) {
                ld += self.model.c_in(j) * v[j.index()];
            }
            load_dot[gi] = ld;
            let dm = c * ld / s[gi] - c * tape.load[gi] / (s[gi] * s[gi]) * v[gi];
            tan.mt[gi] = dm;
            tan.vt[gi] = k2 * tape.mu_t[gi] * dm;
        }
        // Forward tangent sweep, in the forward sweep's order.
        let node = |i: usize, tan: &mut SlotBufs| {
            let [a, b] = p.operands[i];
            let x = [tan.mu[a], tan.var[a], tan.mu[b], tan.var[b]];
            let (dm, dv) = (&tape.nodes[i].dmu, &tape.nodes[i].dvar);
            tan.mu[p.node0 + i] = (0..4).map(|k| dm[k] * x[k]).sum();
            tan.var[p.node0 + i] = (0..4).map(|k| dv[k] * x[k]).sum();
        };
        for gi in 0..n {
            for i in p.nodes_of(gi) {
                node(i, tan);
            }
            let u = p.fanin[gi];
            tan.mu[p.arr0 + gi] = tan.mu[u] + tan.mt[gi];
            tan.var[p.arr0 + gi] = tan.var[u] + tan.vt[gi];
        }
        for i in p.output_nodes() {
            node(i, tan);
        }

        // Reverse sweep of the adjoint tangents, seeded by the objective's
        // and the penalties' second derivatives.
        adt.reset(p.slots(), n);
        for &(k, [hmm, hmv, hvv]) in seeds.iter() {
            let (tm, tv) = (tan.mu[k], tan.var[k]);
            adt.add(k, hmm * tm + hmv * tv, hmv * tm + hvv * tv);
        }
        let node = |i: usize, adt: &mut SlotBufs| {
            let (bm, bv) = (adt.mu[p.node0 + i], adt.var[p.node0 + i]);
            if !live[i] && bm == 0.0 && bv == 0.0 {
                return;
            }
            let [a, b] = p.operands[i];
            let x = [tan.mu[a], tan.var[a], tan.mu[b], tan.var[b]];
            let (dm, dv) = (&tape.nodes[i].dmu, &tape.nodes[i].dvar);
            let wi = &w[i];
            let part = |k: usize| {
                bm * dm[k]
                    + bv * dv[k]
                    + wi[k][0] * x[0]
                    + wi[k][1] * x[1]
                    + wi[k][2] * x[2]
                    + wi[k][3] * x[3]
            };
            adt.add(a, part(0), part(1));
            adt.add(b, part(2), part(3));
        };
        for i in p.output_nodes().rev() {
            node(i, adt);
        }
        for gi in (0..n).rev() {
            let (bm, bv) = (adt.mu[p.arr0 + gi], adt.var[p.arr0 + gi]);
            adt.mt[gi] += bm;
            adt.vt[gi] += bv;
            adt.add(p.fanin[gi], bm, bv);
            for i in p.nodes_of(gi).rev() {
                node(i, adt);
            }
        }

        // Gate level: the tangent of A = ā_mt + 2 kappa2 mu_t ā_vt through
        // the first derivatives of mu_t, plus A through its second ones.
        out.fill(0.0);
        for (id, _) in self.circuit.gates() {
            let gi = id.index();
            let mu_t = tape.mu_t[gi];
            let a = a_mt[gi] + a_vt[gi] * k2 * mu_t;
            let a_dot = adt.mt[gi] + adt.vt[gi] * k2 * mu_t + a_vt[gi] * k2 * tan.mt[gi];
            if a == 0.0 && a_dot == 0.0 {
                continue;
            }
            let (si, load) = (s[gi], tape.load[gi]);
            out[gi] += a_dot * (-c * load / (si * si))
                + a * (2.0 * c * load * v[gi] / (si * si * si) - c * load_dot[gi] / (si * si));
            for &j in self.model.fanouts(id) {
                let cj = c * self.model.c_in(j) / si;
                out[j.index()] += a_dot * cj - a * cj * v[gi] / si;
            }
        }
    }
}

/// Options for [`solve_reduced`].
#[derive(Debug, Clone)]
pub struct ReducedOptions {
    /// Inner truncated-Newton settings.
    pub newton: NewtonOptions,
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
            newton: NewtonOptions {
                tol: 1e-7,
                max_iter: 400,
                max_cg: 50,
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
    /// Total Newton iterations over all rounds.
    pub iterations: usize,
    /// Multiplier rounds run.
    pub rounds: usize,
    /// [`SolveStatus::Converged`] when the loop ended on its convergence
    /// test (violation at most `tol_viol` after a round that stopped
    /// short of the Newton iteration cap), else
    /// [`SolveStatus::MaxIterations`]: the last round hit the cap, or the
    /// rounds ran out.
    pub status: SolveStatus,
    /// The multipliers `s` was minimised under (before the last round's
    /// update): restarting the loop from `s` and these reproduces `s`.
    pub multipliers: Multipliers,
}

/// Solves the reduced-space problem with a method-of-multipliers loop
/// around projected truncated Newton.
pub fn solve_reduced(
    circuit: &Circuit,
    lib: &Library,
    objective: Objective,
    spec: DelaySpec,
    s0: &[f64],
    opts: &ReducedOptions,
) -> ReducedResult {
    let none = Tracer::none();
    solve_reduced_with_arrivals(circuit, lib, objective, spec, s0, opts, None, None, none)
}

/// [`solve_reduced`] with explicit primary-input arrival distributions,
/// starting the multiplier loop from `start` (default: no shift, weight
/// 10), and tracing each round to `tracer`.
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
    tracer: Tracer<'_>,
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
    let (mut iters, mut rounds, mut converged) = (0usize, 0usize, false);
    let mut evals = EvalReport::default();
    let mut last = f64::INFINITY;
    let max_rounds = if red.spec.is_some() {
        opts.max_rounds
    } else {
        1
    };
    while rounds < max_rounds {
        let r = newton::minimize(&mut red, &s, &l, &u, &opts.newton);
        count_work(&r, opts.newton.max_iter);
        s = r.x;
        iters += r.iterations;
        evals.objective += r.evals_value as u64;
        evals.gradient += r.evals_grad as u64;
        under.theta.clone_from(&red.theta);
        under.weight = red.penalty_weight;
        let viol = red.multiplier_step(&s);
        tracer.emit(|| {
            TraceEvent::Outer(OuterRecord {
                outer: rounds,
                merit: r.f,
                c_norm: viol,
                pg_norm: r.pg_norm,
                rho: under.weight,
                lambda_norm: under
                    .theta
                    .iter()
                    .fold(0.0f64, |a, &t| a.max((2.0 * under.weight * t).abs())),
                inner_iterations: r.iterations,
                cg_iterations: r.hess_vecs,
                step_accepted: r.iterations > 0,
                inner_converged: r.converged,
            })
        });
        rounds += 1;
        // A round cut at the iteration cap is no minimiser of its
        // subproblem, however feasible: it is never the answer.
        if viol <= opts.tol_viol && r.iterations < opts.newton.max_iter {
            converged = true;
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
    let status = if converged {
        SolveStatus::Converged
    } else {
        SolveStatus::MaxIterations
    };
    let result = ReducedResult {
        objective: red.objective_from(&s, &tape),
        violation: red.violation(&s),
        s,
        iterations: iters,
        rounds,
        status,
        multipliers: under,
    };
    tracer.emit(|| {
        TraceEvent::SolveDone(SolveRecord {
            status: status.as_str().to_string(),
            objective: result.objective,
            c_norm: result.violation,
            outer_iterations: rounds,
            inner_iterations: iters,
            evals,
        })
    });
    result
}

/// Adds one round (its Newton run's iterations, evaluations and
/// Hessian-vector products) to the metrics registry.
fn count_work(r: &newton::NewtonResult, max_iter: usize) {
    use sgs_metrics::{add, Counter};
    add(Counter::ReducedRounds, 1);
    add(Counter::ReducedNewtonIterations, r.iterations as u64);
    add(Counter::ReducedEvalsValue, r.evals_value as u64);
    add(Counter::ReducedEvalsGrad, r.evals_grad as u64);
    add(Counter::ReducedHessVecs, r.hess_vecs as u64);
    if !r.converged && r.iterations == max_iter {
        add(Counter::ReducedCapHits, 1);
    }
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

    /// Every objective under every spec form, at zero and at a nonzero
    /// deadline shift, on `circuit` at sizes `s`. Deadlines sit 4% below
    /// the delay at `s`, so every inequality penalty is active.
    fn hessian_cases(c: &Circuit, s: &[f64]) -> Vec<(Objective, DelaySpec, f64)> {
        let n = c.num_gates();
        let outs = c.outputs().len();
        let r = sgs_ssta::ssta(c, &lib(), s);
        let (mu, sd) = (r.delay.mean(), r.delay.sigma());
        let specs = [
            (DelaySpec::None, 0.0),
            (DelaySpec::MaxMean(0.96 * mu), 0.2),
            (DelaySpec::ExactMean(0.96 * mu), -0.3),
            (
                DelaySpec::MaxMeanPlusKSigma {
                    k: 3.0,
                    d: 0.96 * (mu + 3.0 * sd),
                },
                0.4,
            ),
            (
                DelaySpec::PerOutput {
                    k: 3.0,
                    d: c.outputs()
                        .iter()
                        .map(|o| 0.96 * r.arrivals[o.index()].mean_plus_k_sigma(3.0))
                        .collect(),
                },
                0.25,
            ),
        ];
        let objectives = [
            Objective::Area,
            Objective::WeightedArea((0..n).map(|i| 1.0 + 0.1 * i as f64).collect()),
            Objective::MeanDelay,
            Objective::MeanPlusKSigma(3.0),
            Objective::Sigma,
            Objective::NegSigma,
        ];
        assert!(outs >= 1);
        let mut cases = Vec::new();
        for obj in &objectives {
            for (spec, shift) in &specs {
                for theta in [0.0, *shift] {
                    cases.push((obj.clone(), spec.clone(), theta));
                }
            }
        }
        cases
    }

    fn battery_circuits() -> Vec<(Circuit, Vec<f64>)> {
        vec![
            (generate::tree7(), vec![1.5, 1.2, 2.0, 1.4, 1.9, 2.5, 2.8]),
            (generate::fig2(), vec![1.3, 1.6, 1.1, 2.2]),
        ]
    }

    fn evaluator<'c>(
        c: &'c Circuit,
        obj: &Objective,
        spec: &DelaySpec,
        theta: f64,
    ) -> ReducedObjective<'c> {
        let mut red = ReducedObjective::new(c, &lib(), obj.clone(), spec.clone());
        red.penalty_weight = 50.0;
        red.theta.iter_mut().for_each(|t| *t = theta);
        red
    }

    /// A deterministic direction with entries of both signs.
    fn direction(n: usize, seed: usize) -> Vec<f64> {
        (0..n)
            .map(|i| ((i * 7 + seed * 3) % 11) as f64 / 5.0 - 1.0)
            .collect()
    }

    #[test]
    fn hessian_vector_products_match_differenced_gradients() {
        for (c, s) in battery_circuits() {
            let n = c.num_gates();
            for (obj, spec, theta) in hessian_cases(&c, &s) {
                let mut red = evaluator(&c, &obj, &spec, theta);
                for seed in 0..3 {
                    let v = direction(n, seed);
                    red.prepare_hess(&s);
                    let mut hv = vec![0.0; n];
                    red.hess_vec(&v, &mut hv);
                    let h = 1e-5;
                    let (mut gp, mut gm) = (vec![0.0; n], vec![0.0; n]);
                    let sp: Vec<f64> = s.iter().zip(&v).map(|(a, b)| a + h * b).collect();
                    let sm: Vec<f64> = s.iter().zip(&v).map(|(a, b)| a - h * b).collect();
                    red.grad(&sp, &mut gp);
                    red.grad(&sm, &mut gm);
                    let scale = 1.0 + hv.iter().fold(0.0f64, |m, x| m.max(x.abs()));
                    for i in 0..n {
                        let num = (gp[i] - gm[i]) / (2.0 * h);
                        assert!(
                            (hv[i] - num).abs() < 1e-6 * scale,
                            "{} {obj} {spec:?} theta {theta}: (Hv)[{i}] = {} vs fd {num}",
                            c.name(),
                            hv[i]
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn hessian_vector_products_are_symmetric() {
        for (c, s) in battery_circuits() {
            let n = c.num_gates();
            for (obj, spec, theta) in hessian_cases(&c, &s) {
                let mut red = evaluator(&c, &obj, &spec, theta);
                red.prepare_hess(&s);
                let (u, v) = (direction(n, 1), direction(n, 4));
                let (mut hu, mut hv) = (vec![0.0; n], vec![0.0; n]);
                red.hess_vec(&u, &mut hu);
                red.hess_vec(&v, &mut hv);
                let dot = |a: &[f64], b: &[f64]| a.iter().zip(b).map(|(x, y)| x * y).sum::<f64>();
                let (uhv, vhu) = (dot(&u, &hv), dot(&v, &hu));
                assert!(
                    (uhv - vhu).abs() <= 1e-10 * uhv.abs().max(vhu.abs()).max(1e-300),
                    "{} {obj} {spec:?} theta {theta}: u'Hv {uhv} vs v'Hu {vhu}",
                    c.name()
                );
            }
        }
    }

    #[test]
    fn node_weights_match_hyper_dual_clark_hessians() {
        for (c, s) in battery_circuits() {
            for (obj, spec, theta) in hessian_cases(&c, &s) {
                let mut red = evaluator(&c, &obj, &spec, theta);
                red.prepare_hess(&s);
                let (h, p) = (&red.hess, &red.program);
                let mut adj = SlotBufs::default();
                let mut g = vec![0.0; c.num_gates()];
                red.adjoint(&s, &h.tape, &mut adj, &mut g);
                assert_eq!(h.w.len(), h.tape.nodes.len());
                for (i, &[a, b]) in p.operands.iter().enumerate() {
                    let (ma, va) = (h.tape.mu[a], h.tape.var[a]);
                    let (mb, vb) = (h.tape.mu[b], h.tape.var[b]);
                    let d = clark::max_hess_dual(ma, va, mb, vb, red.eps);
                    let (amu, avar) = (adj.mu[p.node0 + i], adj.var[p.node0 + i]);
                    for r in 0..4 {
                        for k in 0..4 {
                            let want = amu * d.hmu[r][k] + avar * d.hvar[r][k];
                            assert!(
                                (h.w[i][r][k] - want).abs() <= 1e-9 * (1.0 + want.abs()),
                                "{} {obj} {spec:?} node {i} [{r}][{k}]: {} vs {want}",
                                c.name(),
                                h.w[i][r][k]
                            );
                        }
                    }
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
        opts.newton.max_iter = 3;
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

    #[test]
    fn a_loop_that_misses_its_convergence_test_reports_max_iterations() {
        let c = generate::tree7();
        let solve = |spec: DelaySpec, opts: &ReducedOptions| {
            let objective = Objective::MeanPlusKSigma(3.0);
            solve_reduced(&c, &lib(), objective, spec, &[1.0; 7], opts)
        };
        let mut capped = ReducedOptions::default();
        capped.newton.max_iter = 3;
        let r = solve(DelaySpec::None, &capped);
        assert_eq!((r.rounds, r.iterations), (1, 3), "the one round is capped");
        assert_eq!(r.status, SolveStatus::MaxIterations);
        let free = solve(DelaySpec::None, &ReducedOptions::default());
        assert!(free.iterations > 3, "{} iterations", free.iterations);
        assert_eq!(free.status, SolveStatus::Converged);
        // Below the minimum delay every round ends infeasible, so the
        // rounds run out.
        let short = solve(DelaySpec::MaxMean(4.0), &ReducedOptions::default());
        assert!(short.violation > 1e-3, "violation {}", short.violation);
        assert_eq!(short.rounds, ReducedOptions::default().max_rounds);
        assert_eq!(short.status, SolveStatus::MaxIterations);
    }
}
