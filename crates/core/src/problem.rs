//! Assembly of the paper's sizing NLP (Eq. 17/18) from a circuit.
//!
//! Variable set (per gate, in the paper's notation): speed factor
//! `S_cell`, gate-delay moments `mu_t` and `var_t = sigma_t^2`, arrival
//! moments `mu_T` and `var_T`, plus one `(mu_U, var_U)` pair per internal
//! node of every fan-in max tree (the paper's repeated two-operand max,
//! Eq. 18b), one `(mu_Tmax, var_Tmax)` chain over the primary outputs, and
//! a slack variable when a `<=` delay constraint is present.
//!
//! Constraint set (all equalities, as LANCELOT's formulation requires):
//!
//! ```text
//! mu_t S  = t_int S + c (C_load + sum_j C_in,j S_j)     (Eq. 15/18d)
//! var_t   = (kappa mu_t)^2                              (Eq. 16/18e)
//! mu_U    = max_mu (op_a, op_b)                         (Eq. 18b)
//! var_U   = max_var(op_a, op_b)
//! mu_T    = mu_U + mu_t                                 (Eq. 18c)
//! var_T   = var_U + var_t
//! mu_Tmax [+ k sigma_Tmax] [+ slack] = D                (optional)
//! 1 <= S <= limit                                       (Eq. 18f)
//! ```
//!
//! Primary-input arrivals are constants, so max operands that are entirely
//! constant fold at build time. Every constraint has hand-coded exact
//! first and second derivatives; the stochastic-max blocks come from
//! [`sgs_statmath::clark::max_hess`].
//!
//! # Evaluation layout
//!
//! Each `(mu_U, var_U)` max node contributes an *adjacent* pair of
//! constraints over the same operand pair. At build time those pairs are
//! grouped so one [`clark::max_grad`] / [`clark::max_hess`] call (the
//! dominant cost: Φ/φ evaluations) serves both the mu and the var slot of
//! a pair. Per-constraint offsets into the Jacobian/Hessian value arrays
//! are also precomputed, so every group fills its own contiguous slice of
//! `vals` in one sequential sweep.

use crate::spec::{DelaySpec, Objective};
use sgs_netlist::{Circuit, Library, Signal};
use sgs_nlp::NlpProblem;
use sgs_ssta::DelayModel;
use sgs_statmath::clark::{self, ClarkGrad, ClarkHess};

const INF: f64 = f64::INFINITY;
/// Lower bound applied to variance variables (keeps `sqrt` smooth).
const VAR_LB: f64 = 1e-12;
/// Floor inside `sqrt` when evaluating sigma terms.
const SQRT_FLOOR: f64 = 1e-12;
/// A delay cap's slack within this (relative to `1 + |D|`) of its bound
/// counts as sitting on it, so [`SizingProblem::multiplier_estimate`]
/// fits the cap's multiplier instead of back-substituting it.
const SLACK_ACTIVE_TOL: f64 = 1e-6;
/// A speed factor within this (relative to `1 + |bound|`) of a bound is
/// held by it and left out of a cap's multiplier fit.
const BOUND_TOL: f64 = 1e-9;
/// Gauss-Seidel passes of the joint fit over several active caps (one
/// cap needs a single pass).
const FIT_PASSES: usize = 50;

/// A stochastic-max operand: a constant (folded primary-input arrival) or
/// a pair of problem variables.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Operand {
    Const { mu: f64, var: f64 },
    Vars { mu: usize, var: usize },
}

impl Operand {
    fn mu(&self, x: &[f64]) -> f64 {
        match *self {
            Operand::Const { mu, .. } => mu,
            Operand::Vars { mu, .. } => x[mu],
        }
    }
    fn var(&self, x: &[f64]) -> f64 {
        match *self {
            Operand::Const { var, .. } => var,
            Operand::Vars { var, .. } => x[var],
        }
    }
    /// Variable index per Clark slot (0 = mu_a, 1 = var_a, ...), `None`
    /// for constant slots.
    fn slot_var(&self, slot_in_pair: usize) -> Option<usize> {
        match (*self, slot_in_pair) {
            (Operand::Vars { mu, .. }, 0) => Some(mu),
            (Operand::Vars { var, .. }, 1) => Some(var),
            _ => None,
        }
    }
}

/// A scalar that is either a variable or a constant.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Term {
    Var(usize),
    Const(f64),
}

impl Term {
    fn value(&self, x: &[f64]) -> f64 {
        match *self {
            Term::Var(i) => x[i],
            Term::Const(c) => c,
        }
    }
}

/// One equality constraint of the formulation. The first field of each
/// variant is the variable the constraint *defines* given its
/// predecessors, which is what makes [`SizingProblem::initial_point`] able
/// to construct an exactly feasible start by a single forward sweep.
#[derive(Debug, Clone)]
enum Con {
    /// `mu_t S - t_int S - load0 - sum coef_j S_j = 0`.
    Delay {
        imt: usize,
        is: usize,
        t_int: f64,
        load0: f64,
        fanout: Vec<(usize, f64)>,
    },
    /// `var_t - kappa2 mu_t^2 = 0`.
    VarT { ivt: usize, imt: usize, kappa2: f64 },
    /// `out - max_mu(a, b) = 0`.
    MaxMu { out: usize, a: Operand, b: Operand },
    /// `out - max_var(a, b) = 0`.
    MaxVar { out: usize, a: Operand, b: Operand },
    /// `mu_T - u - mu_t = 0`.
    ArrMu { im_arr: usize, u: Term, imt: usize },
    /// `var_T - u - var_t = 0`.
    ArrVar { iv_arr: usize, u: Term, ivt: usize },
    /// `mu + k sqrt(var) + slack - d = 0` (slack absent for `=` pins).
    DelayCap {
        imu: usize,
        iv: Option<usize>,
        k: f64,
        slack: Option<usize>,
        d: f64,
    },
}

impl Con {
    /// The variable this constraint defines: its first field, or the
    /// slack of a `<=` delay cap. A pinned (`=`) cap defines none.
    fn defined_var(&self) -> Option<usize> {
        match *self {
            Con::Delay { imt, .. } => Some(imt),
            Con::VarT { ivt, .. } => Some(ivt),
            Con::MaxMu { out, .. } | Con::MaxVar { out, .. } => Some(out),
            Con::ArrMu { im_arr, .. } => Some(im_arr),
            Con::ArrVar { iv_arr, .. } => Some(iv_arr),
            Con::DelayCap { slack, .. } => slack,
        }
    }
}

/// The assembled sizing NLP. Implements [`NlpProblem`] with exact sparse
/// derivatives; see the module docs for the formulation.
#[derive(Debug, Clone)]
pub struct SizingProblem {
    num_vars: usize,
    cons: Vec<Con>,
    lower: Vec<f64>,
    upper: Vec<f64>,
    objective: Objective,
    idx_s: Vec<usize>,
    i_mu_tmax: usize,
    i_v_tmax: usize,
    eps: f64,
    num_gates: usize,
    /// Evaluation groups `(first_con, count)`: an adjacent MaxMu/MaxVar
    /// pair over the same operands forms one group of two (sharing a
    /// single Clark evaluation), everything else is a singleton.
    groups: Vec<(usize, usize)>,
    /// Prefix offsets of each constraint's Jacobian-value block
    /// (`len = cons.len() + 1`).
    jac_off: Vec<usize>,
    /// Prefix offsets of each constraint's Hessian-value block, excluding
    /// the objective block at the front (`len = cons.len() + 1`).
    hess_off: Vec<usize>,
    /// Gate each constraint belongs to (`None` for the output max chain
    /// and delay caps) — diagnostic metadata for the static analyzer.
    con_gate: Vec<Option<usize>>,
    /// Fault injection for the analyzer's Stage-3 tests: index of a
    /// declared Jacobian entry to silently drop from both the structure
    /// and the value array (see
    /// [`SizingProblem::corrupt_drop_jacobian_entry`]).
    jac_drop: Option<usize>,
    /// As `jac_drop`, for the Hessian declaration.
    hess_drop: Option<usize>,
}

impl SizingProblem {
    /// Builds the formulation for `circuit` under `lib` with the given
    /// objective and delay constraint, with all primary inputs arriving at
    /// exactly time 0 (the paper's setting).
    ///
    /// # Panics
    ///
    /// Panics if a weighted-area objective has the wrong number of weights
    /// or the circuit fails validation.
    pub fn build(
        circuit: &Circuit,
        lib: &Library,
        objective: Objective,
        delay_spec: DelaySpec,
    ) -> Self {
        Self::build_with_arrivals(circuit, lib, objective, delay_spec, None)
    }

    /// [`SizingProblem::build`] with explicit primary-input arrival
    /// distributions — e.g. uncertain upstream-block or wire delays, which
    /// the statistical model exists to express. Arrivals enter the max
    /// trees as constants (they do not depend on the sizing variables), so
    /// the formulation size is unchanged.
    ///
    /// # Panics
    ///
    /// Additionally panics if the arrival slice length differs from the
    /// input count.
    pub fn build_with_arrivals(
        circuit: &Circuit,
        lib: &Library,
        objective: Objective,
        delay_spec: DelaySpec,
        input_arrivals: Option<&[sgs_statmath::Normal]>,
    ) -> Self {
        circuit.validate().expect("circuit must be valid");
        if let Some(ia) = input_arrivals {
            assert_eq!(
                ia.len(),
                circuit.num_inputs(),
                "one arrival distribution per primary input"
            );
        }
        if let Objective::WeightedArea(w) = &objective {
            assert_eq!(
                w.len(),
                circuit.num_gates(),
                "weighted-area objective needs one weight per gate"
            );
        }
        let n = circuit.num_gates();
        let model = DelayModel::new(circuit, lib);
        let kappa2 = lib.sigma_factor * lib.sigma_factor;

        // --- variable layout -------------------------------------------
        let mut lower = Vec::new();
        let mut upper = Vec::new();
        let push_var = |lo: f64, hi: f64, lower: &mut Vec<f64>, upper: &mut Vec<f64>| {
            lower.push(lo);
            upper.push(hi);
            lower.len() - 1
        };
        let mut idx_s = Vec::with_capacity(n);
        let mut idx_mt = Vec::with_capacity(n);
        let mut idx_vt = Vec::with_capacity(n);
        let mut idx_m_arr = Vec::with_capacity(n);
        let mut idx_v_arr = Vec::with_capacity(n);
        for _ in 0..n {
            idx_s.push(push_var(1.0, lib.s_limit, &mut lower, &mut upper));
            idx_mt.push(push_var(0.0, INF, &mut lower, &mut upper));
            idx_vt.push(push_var(VAR_LB, INF, &mut lower, &mut upper));
            idx_m_arr.push(push_var(0.0, INF, &mut lower, &mut upper));
            idx_v_arr.push(push_var(VAR_LB, INF, &mut lower, &mut upper));
        }

        // --- constraints, gate by gate in topological order -------------
        let mut cons: Vec<Con> = Vec::new();
        let mut con_gate: Vec<Option<usize>> = Vec::new();
        let eps = clark::DEFAULT_EPS;
        for (id, gate) in circuit.gates() {
            let g = id.index();
            let first_con = cons.len();
            let fanout: Vec<(usize, f64)> = model
                .fanouts(id)
                .iter()
                .map(|&j| (idx_s[j.index()], model.c() * model.c_in(j)))
                .collect();
            cons.push(Con::Delay {
                imt: idx_mt[g],
                is: idx_s[g],
                t_int: model.t_int(id),
                load0: model.c() * model.static_load(id),
                fanout,
            });
            cons.push(Con::VarT {
                ivt: idx_vt[g],
                imt: idx_mt[g],
                kappa2,
            });

            // Fold the fan-in max tree.
            let operands: Vec<Operand> = gate
                .inputs
                .iter()
                .map(|&sig| match sig {
                    Signal::Pi(p) => {
                        input_arrivals.map_or(Operand::Const { mu: 0.0, var: 0.0 }, |ia| {
                            Operand::Const {
                                mu: ia[p].mean(),
                                var: ia[p].var(),
                            }
                        })
                    }
                    Signal::Gate(src) => Operand::Vars {
                        mu: idx_m_arr[src.index()],
                        var: idx_v_arr[src.index()],
                    },
                })
                .collect();
            let u = fold_max(&operands, eps, &mut lower, &mut upper, &mut cons);

            let (u_mu, u_var) = match u {
                Operand::Const { mu, var } => (Term::Const(mu), Term::Const(var)),
                Operand::Vars { mu, var } => (Term::Var(mu), Term::Var(var)),
            };
            cons.push(Con::ArrMu {
                im_arr: idx_m_arr[g],
                u: u_mu,
                imt: idx_mt[g],
            });
            cons.push(Con::ArrVar {
                iv_arr: idx_v_arr[g],
                u: u_var,
                ivt: idx_vt[g],
            });
            con_gate.resize(cons.len(), Some(g));
            debug_assert!(cons.len() > first_con);
        }

        // --- circuit-output max chain ------------------------------------
        let out_ops: Vec<Operand> = circuit
            .outputs()
            .iter()
            .map(|&o| Operand::Vars {
                mu: idx_m_arr[o.index()],
                var: idx_v_arr[o.index()],
            })
            .collect();
        let tmax = fold_max(&out_ops, eps, &mut lower, &mut upper, &mut cons);
        let (i_mu_tmax, i_v_tmax) = match tmax {
            Operand::Vars { mu, var } => (mu, var),
            Operand::Const { .. } => unreachable!("outputs are always variables"),
        };

        // --- optional delay constraint -----------------------------------
        match delay_spec {
            DelaySpec::None => {}
            DelaySpec::MaxMean(d) => {
                let slack = push_var(0.0, INF, &mut lower, &mut upper);
                cons.push(Con::DelayCap {
                    imu: i_mu_tmax,
                    iv: None,
                    k: 0.0,
                    slack: Some(slack),
                    d,
                });
            }
            DelaySpec::MaxMeanPlusKSigma { k, d } => {
                let slack = push_var(0.0, INF, &mut lower, &mut upper);
                cons.push(Con::DelayCap {
                    imu: i_mu_tmax,
                    iv: Some(i_v_tmax),
                    k,
                    slack: Some(slack),
                    d,
                });
            }
            DelaySpec::ExactMean(d) => {
                cons.push(Con::DelayCap {
                    imu: i_mu_tmax,
                    iv: None,
                    k: 0.0,
                    slack: None,
                    d,
                });
            }
            DelaySpec::PerOutput { k, d } => {
                assert_eq!(
                    d.len(),
                    circuit.outputs().len(),
                    "one deadline per primary output"
                );
                for (&o, &d_o) in circuit.outputs().iter().zip(&d) {
                    let slack = push_var(0.0, INF, &mut lower, &mut upper);
                    cons.push(Con::DelayCap {
                        imu: idx_m_arr[o.index()],
                        iv: if k != 0.0 {
                            Some(idx_v_arr[o.index()])
                        } else {
                            None
                        },
                        k,
                        slack: Some(slack),
                        d: d_o,
                    });
                }
            }
        }

        let (groups, jac_off, hess_off) = index_cons(&cons);
        con_gate.resize(cons.len(), None);
        SizingProblem {
            num_vars: lower.len(),
            cons,
            lower,
            upper,
            objective,
            idx_s,
            i_mu_tmax,
            i_v_tmax,
            eps,
            num_gates: n,
            groups,
            jac_off,
            hess_off,
            con_gate,
            jac_drop: None,
            hess_drop: None,
        }
    }

    /// Gate index constraint `ci` belongs to; `None` for the circuit-output
    /// max chain and delay caps. Diagnostic metadata for `sgs-analyze`.
    ///
    /// # Panics
    ///
    /// Panics if `ci` is out of range.
    pub fn constraint_gate(&self, ci: usize) -> Option<usize> {
        self.con_gate[ci]
    }

    /// Short kind tag of constraint `ci` (`"delay"`, `"var_t"`, `"max_mu"`,
    /// `"max_var"`, `"arr_mu"`, `"arr_var"`, `"delay_cap"`), for
    /// diagnostics.
    ///
    /// # Panics
    ///
    /// Panics if `ci` is out of range.
    pub fn constraint_kind(&self, ci: usize) -> &'static str {
        match &self.cons[ci] {
            Con::Delay { .. } => "delay",
            Con::VarT { .. } => "var_t",
            Con::MaxMu { .. } => "max_mu",
            Con::MaxVar { .. } => "max_var",
            Con::ArrMu { .. } => "arr_mu",
            Con::ArrVar { .. } => "arr_var",
            Con::DelayCap { .. } => "delay_cap",
        }
    }

    /// Fault injection for the static analyzer's Stage-3 tests: silently
    /// drops declared Jacobian entry `k` from **both**
    /// `jacobian_structure` and `jacobian_values`, modelling the real bug
    /// class where a derivative is computed but its sparsity slot was
    /// never declared. Never use outside tests.
    ///
    /// # Panics
    ///
    /// Panics if `k` is not a valid entry index.
    #[doc(hidden)]
    pub fn corrupt_drop_jacobian_entry(&mut self, k: usize) {
        assert!(k < *self.jac_off.last().unwrap(), "entry {k} out of range");
        self.jac_drop = Some(k);
    }

    /// As [`SizingProblem::corrupt_drop_jacobian_entry`], for the
    /// Lagrangian-Hessian declaration (entry indices count the objective
    /// block first). Never use outside tests.
    ///
    /// # Panics
    ///
    /// Panics if `k` is not a valid entry index.
    #[doc(hidden)]
    pub fn corrupt_drop_hessian_entry(&mut self, k: usize) {
        assert!(
            k < self.obj_hess_len() + *self.hess_off.last().unwrap(),
            "entry {k} out of range"
        );
        self.hess_drop = Some(k);
    }

    /// Variable index of gate `g`'s speed factor.
    pub fn s_index(&self, g: usize) -> usize {
        self.idx_s[g]
    }

    /// Variable index of `mu_Tmax`.
    pub fn mu_tmax_index(&self) -> usize {
        self.i_mu_tmax
    }

    /// Variable index of `var_Tmax`.
    pub fn var_tmax_index(&self) -> usize {
        self.i_v_tmax
    }

    /// Number of gates in the underlying circuit.
    pub fn num_gates(&self) -> usize {
        self.num_gates
    }

    /// Extracts the speed factors from a solution vector.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from the variable count.
    pub fn extract_s(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.num_vars);
        self.idx_s.iter().map(|&i| x[i]).collect()
    }

    /// Builds an exactly feasible starting point from speed factors `s0`
    /// by sweeping the constraints in their defining order (every equality
    /// except a `<=` cap whose slack saturates holds to rounding error).
    ///
    /// # Panics
    ///
    /// Panics if `s0.len()` differs from the gate count.
    pub fn initial_point(&self, s0: &[f64]) -> Vec<f64> {
        assert_eq!(s0.len(), self.num_gates, "one speed factor per gate");
        let mut x = vec![0.0; self.num_vars];
        for (g, &i) in self.idx_s.iter().enumerate() {
            x[i] = s0[g].max(self.lower[i]).min(self.upper[i]);
        }
        for con in &self.cons {
            match con {
                Con::Delay {
                    imt,
                    is,
                    t_int,
                    load0,
                    fanout,
                } => {
                    let mut load = *load0;
                    for &(j, coef) in fanout {
                        load += coef * x[j];
                    }
                    x[*imt] = t_int + load / x[*is];
                }
                Con::VarT { ivt, imt, kappa2 } => {
                    x[*ivt] = kappa2 * x[*imt] * x[*imt];
                }
                Con::MaxMu { out, a, b } => {
                    let g = clark::max_grad(a.mu(&x), a.var(&x), b.mu(&x), b.var(&x), self.eps);
                    x[*out] = g.mu;
                }
                Con::MaxVar { out, a, b } => {
                    let g = clark::max_grad(a.mu(&x), a.var(&x), b.mu(&x), b.var(&x), self.eps);
                    x[*out] = g.var.max(VAR_LB);
                }
                Con::ArrMu { im_arr, u, imt } => {
                    x[*im_arr] = u.value(&x) + x[*imt];
                }
                Con::ArrVar { iv_arr, u, ivt } => {
                    x[*iv_arr] = u.value(&x) + x[*ivt];
                }
                Con::DelayCap {
                    imu,
                    iv,
                    k,
                    slack,
                    d,
                } => {
                    if let Some(sl) = slack {
                        let sigma = iv.map_or(0.0, |i| x[i].max(SQRT_FLOOR).sqrt());
                        x[*sl] = (d - (x[*imu] + k * sigma)).max(0.0);
                    }
                }
            }
        }
        x
    }

    /// First-order least-squares multiplier estimate at `x`, in the sign
    /// convention of the augmented Lagrangian (`grad f = J' lambda` at a
    /// KKT point): the start LANCELOT takes, and the adjoint sweep of the
    /// reduced-space gradient.
    ///
    /// Each constraint defines one variable (the first field of `Con`), so
    /// `J_y` is triangular in constraint order and `J_y' lambda =
    /// grad_y f` is one reverse pass over the Jacobian rows, carrying the
    /// residual `r = grad f - J' lambda`. A `<=` cap whose slack is
    /// interior back-substitutes like any row, which gives it
    /// `lambda = 0`. A cap whose slack sits on its bound, and a pinned
    /// (`=`) cap, defines no free variable; its multiplier instead
    /// minimises `|r_S|` over the speed factors not held by a bound. One
    /// extra sweep per such cap gives the residual a unit multiplier
    /// induces; the caps are then fitted jointly and a slack cap's
    /// multiplier is clipped to `<= 0`, the sign its slack bound allows.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from the variable count.
    pub fn multiplier_estimate(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.num_vars, "x length mismatch");
        let m = self.cons.len();
        let mut jac = vec![0.0; *self.jac_off.last().unwrap()];
        self.jacobian_values_inner(x, &mut jac);
        let mut cols = Vec::with_capacity(jac.len());
        for con in &self.cons {
            jac_cols(con, |j| cols.push(j));
        }
        let is_fitted: Vec<bool> = self
            .cons
            .iter()
            .map(|con| match *con {
                Con::DelayCap { slack: None, .. } => true,
                Con::DelayCap {
                    slack: Some(sl), d, ..
                } => x[sl] - self.lower[sl] <= SLACK_ACTIVE_TOL * (1.0 + d.abs()),
                _ => false,
            })
            .collect();
        let fitted: Vec<usize> = (0..m).filter(|&ci| is_fitted[ci]).collect();
        let row = |ci: usize| self.jac_off[ci]..self.jac_off[ci + 1];
        // Back-substitutes every row except the fitted caps', in reverse
        // constraint order: row `ci` is the last one to touch the variable
        // it defines, so its multiplier zeroes that variable's residual.
        let sweep = |r: &mut [f64], lambda: &mut [f64]| {
            for ci in (0..m).rev() {
                let Some(y) = self.cons[ci].defined_var().filter(|_| !is_fitted[ci]) else {
                    continue;
                };
                let pivot = row(ci).find(|&k| cols[k] == y).map(|k| jac[k]);
                let lam = r[y] / pivot.expect("a row holds its defined variable");
                lambda[ci] = lam;
                for k in row(ci) {
                    r[cols[k]] -= lam * jac[k];
                }
            }
        };
        let mut lambda = vec![0.0; m];
        let mut r = vec![0.0; self.num_vars];
        self.gradient(x, &mut r);
        sweep(&mut r, &mut lambda);
        if fitted.is_empty() {
            return lambda;
        }

        let free: Vec<usize> = self
            .idx_s
            .iter()
            .copied()
            .filter(|&i| {
                let (l, u) = (self.lower[i], self.upper[i]);
                x[i] > l + BOUND_TOL * (1.0 + l.abs()) && x[i] < u - BOUND_TOL * (1.0 + u.abs())
            })
            .collect();
        // Per fitted cap: the multipliers and free-S residual that a unit
        // multiplier on the cap induces.
        let dirs: Vec<(Vec<f64>, Vec<f64>)> = fitted
            .iter()
            .map(|&ci| {
                let mut rd = vec![0.0; self.num_vars];
                let mut ld = vec![0.0; m];
                for k in row(ci) {
                    rd[cols[k]] -= jac[k];
                }
                sweep(&mut rd, &mut ld);
                (ld, free.iter().map(|&i| rd[i]).collect())
            })
            .collect();
        // Minimise |r_S + sum_c t_c rd_c| over the free S: the normal
        // equations, solved by projected Gauss-Seidel.
        let dot = |a: &[f64], b: &[f64]| a.iter().zip(b).map(|(p, q)| p * q).sum::<f64>();
        let r_free: Vec<f64> = free.iter().map(|&i| r[i]).collect();
        let nf = fitted.len();
        let gram: Vec<f64> = (0..nf * nf)
            .map(|ij| dot(&dirs[ij / nf].1, &dirs[ij % nf].1))
            .collect();
        let rhs: Vec<f64> = dirs.iter().map(|(_, d)| -dot(d, &r_free)).collect();
        let mut t = vec![0.0; nf];
        for _ in 0..FIT_PASSES {
            let mut moved = 0.0f64;
            for a in 0..nf {
                let g = gram[a * nf + a];
                if g <= 0.0 {
                    continue;
                }
                let off: f64 = (0..nf)
                    .filter(|&b| b != a)
                    .map(|b| gram[a * nf + b] * t[b])
                    .sum();
                let mut ta = (rhs[a] - off) / g;
                if matches!(self.cons[fitted[a]], Con::DelayCap { slack: Some(_), .. }) {
                    ta = ta.min(0.0);
                }
                moved = moved.max((ta - t[a]).abs() / (1.0 + ta.abs()));
                t[a] = ta;
            }
            if moved <= f64::EPSILON {
                break;
            }
        }
        for ((&ci, (ld, _)), &ta) in fitted.iter().zip(&dirs).zip(&t) {
            for (l, d) in lambda.iter_mut().zip(ld) {
                *l += ta * d;
            }
            lambda[ci] = ta;
        }
        lambda
    }

    fn sigma_tmax(&self, x: &[f64]) -> f64 {
        x[self.i_v_tmax].max(SQRT_FLOOR).sqrt()
    }

    /// One shared Clark gradient per group whose leader is a max
    /// constraint (a pair shares its leader's operands by construction).
    fn group_grad(&self, start: usize, x: &[f64]) -> Option<ClarkGrad> {
        match &self.cons[start] {
            Con::MaxMu { a, b, .. } | Con::MaxVar { a, b, .. } => {
                Some(clark_eval_grad(*a, *b, x, self.eps))
            }
            _ => None,
        }
    }

    /// Constraint residuals of one group into its slice of `c`.
    fn constraints_group(&self, x: &[f64], start: usize, len: usize, out: &mut [f64]) {
        let shared = self.group_grad(start, x);
        for (k, con) in self.cons[start..start + len].iter().enumerate() {
            out[k] = match con {
                Con::Delay {
                    imt,
                    is,
                    t_int,
                    load0,
                    fanout,
                } => {
                    let mut r = x[*imt] * x[*is] - t_int * x[*is] - load0;
                    for &(j, coef) in fanout {
                        r -= coef * x[j];
                    }
                    r
                }
                Con::VarT { ivt, imt, kappa2 } => x[*ivt] - kappa2 * x[*imt] * x[*imt],
                Con::MaxMu { out, .. } => x[*out] - shared.as_ref().unwrap().mu,
                Con::MaxVar { out, .. } => x[*out] - shared.as_ref().unwrap().var,
                Con::ArrMu { im_arr, u, imt } => x[*im_arr] - u.value(x) - x[*imt],
                Con::ArrVar { iv_arr, u, ivt } => x[*iv_arr] - u.value(x) - x[*ivt],
                Con::DelayCap {
                    imu,
                    iv,
                    k,
                    slack,
                    d,
                } => {
                    let sigma = iv.map_or(0.0, |i| x[i].max(SQRT_FLOOR).sqrt());
                    x[*imu] + k * sigma + slack.map_or(0.0, |s| x[s]) - d
                }
            };
        }
    }

    /// Jacobian values of one group into its slice of `vals`.
    fn jacobian_group(&self, x: &[f64], start: usize, len: usize, out: &mut [f64]) {
        let shared = self.group_grad(start, x);
        let mut k_out = 0usize;
        let mut push = |out: &mut [f64], v: f64| {
            out[k_out] = v;
            k_out += 1;
        };
        for con in &self.cons[start..start + len] {
            match con {
                Con::Delay {
                    imt,
                    is,
                    t_int,
                    fanout,
                    ..
                } => {
                    push(out, x[*is]);
                    push(out, x[*imt] - t_int);
                    for &(_, coef) in fanout {
                        push(out, -coef);
                    }
                }
                Con::VarT { imt, kappa2, .. } => {
                    push(out, 1.0);
                    push(out, -2.0 * kappa2 * x[*imt]);
                }
                Con::MaxMu { a, b, .. } => {
                    let g = shared.as_ref().unwrap();
                    push(out, 1.0);
                    for &(slot, _) in clark_slots(*a, *b).as_slice() {
                        push(out, -g.dmu[slot]);
                    }
                }
                Con::MaxVar { a, b, .. } => {
                    let g = shared.as_ref().unwrap();
                    push(out, 1.0);
                    for &(slot, _) in clark_slots(*a, *b).as_slice() {
                        push(out, -g.dvar[slot]);
                    }
                }
                Con::ArrMu { u, .. } | Con::ArrVar { u, .. } => {
                    push(out, 1.0);
                    if matches!(u, Term::Var(_)) {
                        push(out, -1.0);
                    }
                    push(out, -1.0);
                }
                Con::DelayCap { iv, k, slack, .. } => {
                    push(out, 1.0);
                    if let Some(i) = iv {
                        push(out, k / (2.0 * x[*i].max(SQRT_FLOOR).sqrt()));
                    }
                    if slack.is_some() {
                        push(out, 1.0);
                    }
                }
            }
        }
        debug_assert_eq!(k_out, out.len());
    }

    /// Lagrangian-Hessian values of one group into its slice of `vals` (objective block excluded — the caller handles it).
    fn hessian_group(&self, x: &[f64], lambda: &[f64], start: usize, len: usize, out: &mut [f64]) {
        // One shared second-derivative evaluation per max pair.
        let shared = match &self.cons[start] {
            Con::MaxMu { a, b, .. } | Con::MaxVar { a, b, .. } => {
                Some(clark_eval_hess(*a, *b, x, self.eps))
            }
            _ => None,
        };
        let mut k_out = 0usize;
        let mut push = |out: &mut [f64], v: f64| {
            out[k_out] = v;
            k_out += 1;
        };
        for (ci, con) in self.cons[start..start + len].iter().enumerate() {
            let lam = lambda[start + ci];
            match con {
                Con::Delay { .. } => push(out, lam),
                Con::VarT { kappa2, .. } => push(out, lam * (-2.0 * kappa2)),
                Con::MaxMu { a, b, .. } => {
                    let h = shared.as_ref().unwrap();
                    emit_clark_hess(&mut push, out, a, b, &h.hmu, lam);
                }
                Con::MaxVar { a, b, .. } => {
                    let h = shared.as_ref().unwrap();
                    emit_clark_hess(&mut push, out, a, b, &h.hvar, lam);
                }
                Con::ArrMu { .. } | Con::ArrVar { .. } => {}
                Con::DelayCap { iv, k, .. } => {
                    if let Some(i) = iv {
                        if *k != 0.0 {
                            let st = x[*i].max(SQRT_FLOOR).sqrt();
                            push(out, lam * k * (-0.25) / (st * st * st));
                        }
                    }
                }
            }
        }
        debug_assert_eq!(k_out, out.len());
    }

    /// Hessian entries contributed by the objective (the leading block of
    /// the value array).
    fn obj_hess_len(&self) -> usize {
        matches!(
            self.objective,
            Objective::MeanPlusKSigma(_) | Objective::Sigma | Objective::NegSigma
        ) as usize
    }

    /// Uncorrupted Jacobian fill (the whole declared entry set).
    fn jacobian_values_inner(&self, x: &[f64], vals: &mut [f64]) {
        debug_assert_eq!(vals.len(), *self.jac_off.last().unwrap());
        for &(start, len) in &self.groups {
            let out = &mut vals[self.jac_off[start]..self.jac_off[start + len]];
            self.jacobian_group(x, start, len, out);
        }
    }

    /// Uncorrupted Lagrangian-Hessian fill (the whole declared entry set).
    fn hessian_values_inner(&self, x: &[f64], sigma: f64, lambda: &[f64], vals: &mut [f64]) {
        debug_assert_eq!(
            vals.len(),
            self.obj_hess_len() + *self.hess_off.last().unwrap()
        );
        let (obj, rest) = vals.split_at_mut(self.obj_hess_len());
        match self.objective {
            Objective::MeanPlusKSigma(k) => {
                let st = self.sigma_tmax(x);
                obj[0] = sigma * k * (-0.25) / (st * st * st);
            }
            Objective::Sigma => {
                let st = self.sigma_tmax(x);
                obj[0] = sigma * (-0.25) / (st * st * st);
            }
            Objective::NegSigma => {
                let st = self.sigma_tmax(x);
                obj[0] = sigma * 0.25 / (st * st * st);
            }
            _ => {}
        }
        for &(start, len) in &self.groups {
            let out = &mut rest[self.hess_off[start]..self.hess_off[start + len]];
            self.hessian_group(x, lambda, start, len, out);
        }
    }
}

/// Copies `full` into `out` skipping entry `dropped` (the corruption-hook
/// value path; see [`SizingProblem::corrupt_drop_jacobian_entry`]).
fn copy_dropping(full: &[f64], dropped: usize, out: &mut [f64]) {
    debug_assert_eq!(out.len() + 1, full.len());
    out[..dropped].copy_from_slice(&full[..dropped]);
    out[dropped..].copy_from_slice(&full[dropped + 1..]);
}

/// Folds a list of operands with repeated two-operand stochastic maxima,
/// folding constants eagerly and materialising `(mu_U, var_U)` variables
/// plus their defining constraints for every non-constant node.
fn fold_max(
    operands: &[Operand],
    eps: f64,
    lower: &mut Vec<f64>,
    upper: &mut Vec<f64>,
    cons: &mut Vec<Con>,
) -> Operand {
    assert!(!operands.is_empty(), "max needs at least one operand");
    let mut acc = operands[0];
    for &op in &operands[1..] {
        if let (Operand::Const { mu: ma, var: va }, Operand::Const { mu: mb, var: vb }) = (acc, op)
        {
            let g = clark::max_grad(ma, va, mb, vb, eps);
            acc = Operand::Const {
                mu: g.mu,
                var: g.var,
            };
            continue;
        }
        lower.push(0.0);
        upper.push(INF);
        let imu = lower.len() - 1;
        lower.push(VAR_LB);
        upper.push(INF);
        let ivar = lower.len() - 1;
        cons.push(Con::MaxMu {
            out: imu,
            a: acc,
            b: op,
        });
        cons.push(Con::MaxVar {
            out: ivar,
            a: acc,
            b: op,
        });
        acc = Operand::Vars { mu: imu, var: ivar };
    }
    acc
}

/// The (slot, variable) pairs of a Clark max's four inputs that are
/// actual problem variables, stored inline: this is queried for every max
/// constraint on every Jacobian and Hessian evaluation, so it must not
/// heap-allocate.
#[derive(Debug, Clone, Copy)]
struct ClarkSlots {
    slots: [(usize, usize); 4],
    len: usize,
}

impl ClarkSlots {
    fn as_slice(&self) -> &[(usize, usize)] {
        &self.slots[..self.len]
    }
}

fn clark_slots(a: Operand, b: Operand) -> ClarkSlots {
    let mut slots = [(0usize, 0usize); 4];
    let mut len = 0;
    for (slot, op, pair_slot) in [(0, a, 0), (1, a, 1), (2, b, 0), (3, b, 1)] {
        if let Some(var) = op.slot_var(pair_slot) {
            slots[len] = (slot, var);
            len += 1;
        }
    }
    ClarkSlots { slots, len }
}

fn clark_eval_grad(a: Operand, b: Operand, x: &[f64], eps: f64) -> ClarkGrad {
    clark::max_grad(a.mu(x), a.var(x), b.mu(x), b.var(x), eps)
}

fn clark_eval_hess(a: Operand, b: Operand, x: &[f64], eps: f64) -> ClarkHess {
    clark::max_hess(a.mu(x), a.var(x), b.mu(x), b.var(x), eps)
}

/// Column of every Jacobian entry of one constraint, in the order
/// `jacobian_group` fills its values — must mirror it exactly. The
/// declared structure, the value-block offsets and the multiplier sweep
/// all read the columns from here.
fn jac_cols(con: &Con, mut emit: impl FnMut(usize)) {
    match con {
        Con::Delay {
            imt, is, fanout, ..
        } => {
            emit(*imt);
            emit(*is);
            for &(j, _) in fanout {
                emit(j);
            }
        }
        Con::VarT { ivt, imt, .. } => {
            emit(*ivt);
            emit(*imt);
        }
        Con::MaxMu { out, a, b } | Con::MaxVar { out, a, b } => {
            emit(*out);
            for &(_, var) in clark_slots(*a, *b).as_slice() {
                emit(var);
            }
        }
        Con::ArrMu {
            im_arr: y,
            u,
            imt: t,
        }
        | Con::ArrVar {
            iv_arr: y,
            u,
            ivt: t,
        } => {
            emit(*y);
            if let Term::Var(i) = u {
                emit(*i);
            }
            emit(*t);
        }
        Con::DelayCap { imu, iv, slack, .. } => {
            emit(*imu);
            if let Some(i) = iv {
                emit(*i);
            }
            if let Some(sl) = slack {
                emit(*sl);
            }
        }
    }
}

/// Hessian entries of one constraint — must mirror
/// [`NlpProblem::hessian_structure`] exactly (objective block excluded).
fn hess_width(con: &Con) -> usize {
    match con {
        Con::Delay { .. } | Con::VarT { .. } => 1,
        Con::MaxMu { a, b, .. } | Con::MaxVar { a, b, .. } => {
            let k = clark_slots(*a, *b).len;
            k * (k + 1) / 2
        }
        Con::ArrMu { .. } | Con::ArrVar { .. } => 0,
        Con::DelayCap { iv, k, .. } => (iv.is_some() && *k != 0.0) as usize,
    }
}

/// Computes the evaluation groups and per-constraint value-block prefix
/// offsets (see the module docs on the evaluation layout).
fn index_cons(cons: &[Con]) -> (Vec<(usize, usize)>, Vec<usize>, Vec<usize>) {
    let mut jac_off = Vec::with_capacity(cons.len() + 1);
    let mut hess_off = Vec::with_capacity(cons.len() + 1);
    let (mut j, mut h) = (0usize, 0usize);
    jac_off.push(0);
    hess_off.push(0);
    for con in cons {
        jac_cols(con, |_| j += 1);
        h += hess_width(con);
        jac_off.push(j);
        hess_off.push(h);
    }
    let mut groups = Vec::new();
    let mut i = 0;
    while i < cons.len() {
        let len = match (&cons[i], cons.get(i + 1)) {
            (Con::MaxMu { a, b, .. }, Some(Con::MaxVar { a: a2, b: b2, .. }))
                if a == a2 && b == b2 =>
            {
                2
            }
            _ => 1,
        };
        groups.push((i, len));
        i += len;
    }
    (groups, jac_off, hess_off)
}

impl NlpProblem for SizingProblem {
    fn num_vars(&self) -> usize {
        self.num_vars
    }

    fn num_constraints(&self) -> usize {
        self.cons.len()
    }

    fn bounds(&self) -> (&[f64], &[f64]) {
        (&self.lower, &self.upper)
    }

    fn objective(&self, x: &[f64]) -> f64 {
        match &self.objective {
            Objective::Area => self.idx_s.iter().map(|&i| x[i]).sum(),
            Objective::WeightedArea(w) => self.idx_s.iter().zip(w).map(|(&i, &wi)| wi * x[i]).sum(),
            Objective::MeanDelay => x[self.i_mu_tmax],
            Objective::MeanPlusKSigma(k) => x[self.i_mu_tmax] + k * self.sigma_tmax(x),
            Objective::Sigma => self.sigma_tmax(x),
            Objective::NegSigma => -self.sigma_tmax(x),
        }
    }

    fn gradient(&self, x: &[f64], grad: &mut [f64]) {
        grad.fill(0.0);
        match &self.objective {
            Objective::Area => {
                for &i in &self.idx_s {
                    grad[i] = 1.0;
                }
            }
            Objective::WeightedArea(w) => {
                for (&i, &wi) in self.idx_s.iter().zip(w) {
                    grad[i] = wi;
                }
            }
            Objective::MeanDelay => grad[self.i_mu_tmax] = 1.0,
            Objective::MeanPlusKSigma(k) => {
                grad[self.i_mu_tmax] = 1.0;
                grad[self.i_v_tmax] = k / (2.0 * self.sigma_tmax(x));
            }
            Objective::Sigma => grad[self.i_v_tmax] = 1.0 / (2.0 * self.sigma_tmax(x)),
            Objective::NegSigma => {
                grad[self.i_v_tmax] = -1.0 / (2.0 * self.sigma_tmax(x));
            }
        }
    }

    fn constraints(&self, x: &[f64], c: &mut [f64]) {
        for &(start, len) in &self.groups {
            self.constraints_group(x, start, len, &mut c[start..start + len]);
        }
    }

    fn jacobian_structure(&self) -> Vec<(usize, usize)> {
        let mut s = Vec::new();
        for (ci, con) in self.cons.iter().enumerate() {
            jac_cols(con, |j| s.push((ci, j)));
        }
        if let Some(k) = self.jac_drop {
            s.remove(k);
        }
        s
    }

    fn jacobian_values(&self, x: &[f64], vals: &mut [f64]) {
        if let Some(k) = self.jac_drop {
            let mut full = vec![0.0; *self.jac_off.last().unwrap()];
            self.jacobian_values_inner(x, &mut full);
            copy_dropping(&full, k, vals);
            return;
        }
        self.jacobian_values_inner(x, vals);
    }

    fn hessian_structure(&self) -> Vec<(usize, usize)> {
        let mut s = Vec::new();
        // Objective block first.
        if matches!(
            self.objective,
            Objective::MeanPlusKSigma(_) | Objective::Sigma | Objective::NegSigma
        ) {
            s.push((self.i_v_tmax, self.i_v_tmax));
        }
        for con in &self.cons {
            match con {
                Con::Delay { imt, is, .. } => {
                    s.push(ordered(*imt, *is));
                }
                Con::VarT { imt, .. } => s.push((*imt, *imt)),
                Con::MaxMu { a, b, .. } | Con::MaxVar { a, b, .. } => {
                    let slots = clark_slots(*a, *b);
                    let slots = slots.as_slice();
                    for i in 0..slots.len() {
                        for j in i..slots.len() {
                            s.push(ordered(slots[i].1, slots[j].1));
                        }
                    }
                }
                Con::ArrMu { .. } | Con::ArrVar { .. } => {}
                Con::DelayCap { iv, k, .. } => {
                    if let Some(i) = iv {
                        if *k != 0.0 {
                            s.push((*i, *i));
                        }
                    }
                }
            }
        }
        if let Some(k) = self.hess_drop {
            s.remove(k);
        }
        s
    }

    fn hessian_values(&self, x: &[f64], sigma: f64, lambda: &[f64], vals: &mut [f64]) {
        if let Some(k) = self.hess_drop {
            let mut full = vec![0.0; self.obj_hess_len() + *self.hess_off.last().unwrap()];
            self.hessian_values_inner(x, sigma, lambda, &mut full);
            copy_dropping(&full, k, vals);
            return;
        }
        self.hessian_values_inner(x, sigma, lambda, vals);
    }
}

fn ordered(a: usize, b: usize) -> (usize, usize) {
    if a >= b {
        (a, b)
    } else {
        (b, a)
    }
}

/// Emits the lower-triangle Hessian contributions `-lam * h[slot_i][slot_j]`
/// for every pair of variable slots of one Clark constraint, doubling
/// off-slot pairs that alias the same variable (the symmetric-triplet
/// consumer only double-counts entries with distinct row and column).
fn emit_clark_hess(
    push: &mut impl FnMut(&mut [f64], f64),
    vals: &mut [f64],
    a: &Operand,
    b: &Operand,
    h: &[[f64; 4]; 4],
    lam: f64,
) {
    let slots = clark_slots(*a, *b);
    let slots = slots.as_slice();
    for i in 0..slots.len() {
        for j in i..slots.len() {
            let (si, vi) = slots[i];
            let (sj, vj) = slots[j];
            let factor = if i != j && vi == vj { 2.0 } else { 1.0 };
            push(vals, -lam * factor * h[si][sj]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgs_netlist::{generate, CircuitBuilder, GateKind};
    use sgs_nlp::problem::check_derivatives;

    fn lib() -> Library {
        Library::paper_default()
    }

    #[test]
    fn fig2_formulation_matches_paper_eq18() {
        // The paper's Eq. 18 for fig. 2: 4 delay constraints, 4 sigma
        // constraints, arrival adds for each gate, max nodes for gate D's
        // 3 fan-ins (2 nodes) and for the 2 outputs (1 node).
        let c = generate::fig2();
        let p = SizingProblem::build(&c, &lib(), Objective::MeanPlusKSigma(3.0), DelaySpec::None);
        let n_delay = p
            .cons
            .iter()
            .filter(|c| matches!(c, Con::Delay { .. }))
            .count();
        let n_vart = p
            .cons
            .iter()
            .filter(|c| matches!(c, Con::VarT { .. }))
            .count();
        let n_maxmu = p
            .cons
            .iter()
            .filter(|c| matches!(c, Con::MaxMu { .. }))
            .count();
        assert_eq!(n_delay, 4);
        assert_eq!(n_vart, 4);
        // Gates A, B, C have PI-only fan-ins (folded to constants); D has
        // 3 variable fan-ins -> 2 max nodes; outputs C, D -> 1 max node.
        assert_eq!(n_maxmu, 3);
    }

    #[test]
    fn initial_point_is_feasible() {
        for circuit in [
            generate::tree7(),
            generate::fig2(),
            generate::ripple_carry_adder(4),
        ] {
            let p = SizingProblem::build(&circuit, &lib(), Objective::MeanDelay, DelaySpec::None);
            let ones = vec![1.0; circuit.num_gates()];
            let x = p.initial_point(&ones);
            let mut c = vec![0.0; p.num_constraints()];
            p.constraints(&x, &mut c);
            let worst = c.iter().fold(0.0f64, |a, &v| a.max(v.abs()));
            assert!(
                worst < 1e-9,
                "initial infeasibility {worst} on {}",
                circuit.name()
            );
        }
    }

    #[test]
    fn initial_point_matches_ssta() {
        let circuit = generate::tree7();
        let p = SizingProblem::build(&circuit, &lib(), Objective::MeanDelay, DelaySpec::None);
        let s = vec![1.7; 7];
        let x = p.initial_point(&s);
        let report = sgs_ssta::ssta(&circuit, &lib(), &s);
        assert!((x[p.mu_tmax_index()] - report.delay.mean()).abs() < 1e-9);
        assert!((x[p.var_tmax_index()] - report.delay.var()).abs() < 1e-9);
    }

    #[test]
    fn derivatives_exact_tree() {
        let circuit = generate::tree7();
        for obj in [
            Objective::Area,
            Objective::MeanDelay,
            Objective::MeanPlusKSigma(3.0),
            Objective::Sigma,
            Objective::NegSigma,
        ] {
            let p = SizingProblem::build(&circuit, &lib(), obj.clone(), DelaySpec::None);
            let x = p.initial_point(&[1.3, 1.1, 2.0, 1.6, 1.0, 2.4, 2.9]);
            let lambda: Vec<f64> = (0..p.num_constraints())
                .map(|i| 0.3 + 0.1 * (i as f64 % 7.0))
                .collect();
            let r = check_derivatives(&p, &x, &lambda, 1e-6);
            assert!(r.within(5e-5), "{obj}: {r:?}");
        }
    }

    #[test]
    fn derivatives_exact_with_delay_caps() {
        let circuit = generate::fig2();
        for spec in [
            DelaySpec::MaxMean(7.0),
            DelaySpec::MaxMeanPlusKSigma { k: 3.0, d: 8.0 },
            DelaySpec::ExactMean(6.0),
        ] {
            let p = SizingProblem::build(&circuit, &lib(), Objective::Area, spec.clone());
            let x = p.initial_point(&[1.5, 1.2, 2.2, 1.9]);
            let lambda: Vec<f64> = (0..p.num_constraints())
                .map(|i| -0.2 + 0.15 * (i as f64 % 5.0))
                .collect();
            let r = check_derivatives(&p, &x, &lambda, 1e-6);
            assert!(r.within(5e-5), "{spec}: {r:?}");
        }
    }

    #[test]
    fn duplicate_fanin_derivatives_exact() {
        // A gate fed twice by the same signal exercises the aliased-slot
        // Hessian doubling.
        let mut b = CircuitBuilder::new("dup");
        let a = b.add_input("a");
        let g1 = b.add_gate(GateKind::Nand2, "g1", &[a, a]).unwrap();
        let g2 = b.add_gate(GateKind::Nand2, "g2", &[g1, g1]).unwrap();
        b.mark_output(g2).unwrap();
        let circuit = b.build().unwrap();
        let p = SizingProblem::build(
            &circuit,
            &lib(),
            Objective::MeanPlusKSigma(1.0),
            DelaySpec::None,
        );
        let x = p.initial_point(&[1.4, 2.1]);
        let lambda: Vec<f64> = (0..p.num_constraints())
            .map(|i| 0.5 - 0.1 * i as f64)
            .collect();
        let r = check_derivatives(&p, &x, &lambda, 1e-6);
        assert!(r.within(5e-5), "{r:?}");
    }

    #[test]
    fn random_dag_derivatives_exact() {
        let circuit = generate::random_dag(&sgs_netlist::generate::RandomDagSpec {
            name: "d".into(),
            cells: 30,
            inputs: 6,
            depth: 5,
            seed: 11,
            ..Default::default()
        });
        let p = SizingProblem::build(
            &circuit,
            &lib(),
            Objective::MeanPlusKSigma(3.0),
            DelaySpec::MaxMeanPlusKSigma { k: 1.0, d: 20.0 },
        );
        let s0: Vec<f64> = (0..circuit.num_gates())
            .map(|i| 1.0 + 0.07 * (i % 25) as f64)
            .collect();
        let x = p.initial_point(&s0);
        let lambda: Vec<f64> = (0..p.num_constraints())
            .map(|i| 0.4 * ((i as f64 * 0.7).sin()))
            .collect();
        let r = check_derivatives(&p, &x, &lambda, 1e-6);
        assert!(r.within(1e-4), "{r:?}");
    }

    #[test]
    fn value_blocks_match_structures_and_pairs_group() {
        let circuit = generate::random_dag(&sgs_netlist::generate::RandomDagSpec {
            name: "blk".into(),
            cells: 40,
            inputs: 8,
            depth: 6,
            seed: 3,
            ..Default::default()
        });
        let p = SizingProblem::build(
            &circuit,
            &lib(),
            Objective::MeanPlusKSigma(3.0),
            DelaySpec::MaxMeanPlusKSigma { k: 3.0, d: 25.0 },
        );
        // Precomputed offsets must agree with the sparse structures the
        // solver allocates from.
        assert_eq!(*p.jac_off.last().unwrap(), p.jacobian_structure().len());
        assert_eq!(
            p.obj_hess_len() + *p.hess_off.last().unwrap(),
            p.hessian_structure().len()
        );
        // Every MaxMu is grouped with its MaxVar twin (one Clark
        // evaluation per max node), and groups partition the constraints.
        let n_maxmu = p
            .cons
            .iter()
            .filter(|c| matches!(c, Con::MaxMu { .. }))
            .count();
        let n_pairs = p.groups.iter().filter(|&&(_, len)| len == 2).count();
        assert!(n_maxmu > 0);
        assert_eq!(n_pairs, n_maxmu);
        let covered: usize = p.groups.iter().map(|&(_, len)| len).sum();
        assert_eq!(covered, p.cons.len());
    }

    #[test]
    fn extract_s_roundtrip() {
        let circuit = generate::tree7();
        let p = SizingProblem::build(&circuit, &lib(), Objective::Area, DelaySpec::None);
        let s = vec![1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.7];
        let x = p.initial_point(&s);
        assert_eq!(p.extract_s(&x), s);
    }

    #[test]
    fn input_arrivals_enter_as_constants() {
        use sgs_statmath::Normal;
        let circuit = generate::tree7();
        let arrivals: Vec<Normal> = (0..8)
            .map(|i| Normal::new(1.0 + 0.3 * i as f64, 0.2 + 0.02 * i as f64))
            .collect();
        let p = SizingProblem::build_with_arrivals(
            &circuit,
            &lib(),
            Objective::MeanDelay,
            DelaySpec::None,
            Some(&arrivals),
        );
        let s = vec![1.4; 7];
        let x = p.initial_point(&s);
        let report = sgs_ssta::analysis::ssta_with_arrivals(&circuit, &lib(), &s, Some(&arrivals));
        assert!((x[p.mu_tmax_index()] - report.delay.mean()).abs() < 1e-9);
        assert!((x[p.var_tmax_index()] - report.delay.var()).abs() < 1e-9);
        // Derivatives stay exact with nonzero constant operands.
        let lambda: Vec<f64> = (0..p.num_constraints())
            .map(|i| 0.2 + 0.05 * i as f64)
            .collect();
        let r = sgs_nlp::problem::check_derivatives(&p, &x, &lambda, 1e-6);
        assert!(r.within(5e-5), "{r:?}");
    }

    fn rdag40() -> Circuit {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../benchmarks/rdag40.blif");
        let text = std::fs::read_to_string(path).expect("benchmarks/rdag40.blif exists");
        sgs_netlist::blif::parse(&text).expect("rdag40.blif parses")
    }

    /// The four Table 1 row forms, deadlines at `frac` of the delay at `s`.
    fn table1_forms(circuit: &Circuit, s: &[f64], frac: f64) -> [(Objective, DelaySpec); 4] {
        let delay = sgs_ssta::ssta(circuit, &lib(), s).delay;
        [
            (Objective::MeanDelay, DelaySpec::None),
            (Objective::MeanPlusKSigma(3.0), DelaySpec::None),
            (Objective::Area, DelaySpec::MaxMean(frac * delay.mean())),
            (
                Objective::Area,
                DelaySpec::MaxMeanPlusKSigma {
                    k: 3.0,
                    d: frac * delay.mean_plus_k_sigma(3.0),
                },
            ),
        ]
    }

    /// `grad f - J' lambda`, through the public sparse interface.
    fn kkt_residual(p: &SizingProblem, x: &[f64], lambda: &[f64]) -> Vec<f64> {
        let mut r = vec![0.0; p.num_vars()];
        p.gradient(x, &mut r);
        let mut vals = vec![0.0; p.jacobian_structure().len()];
        p.jacobian_values(x, &mut vals);
        for (&(ci, j), v) in p.jacobian_structure().iter().zip(&vals) {
            r[j] -= lambda[ci] * v;
        }
        r
    }

    #[test]
    fn multiplier_estimate_solves_every_back_substituted_row() {
        for circuit in [generate::tree7(), rdag40()] {
            let s: Vec<f64> = (0..circuit.num_gates())
                .map(|i| 1.0 + 0.07 * (i % 25) as f64)
                .collect();
            // Deadlines below the delay at `s`: every cap's slack sits on
            // its bound, so the cap is fitted, not back-substituted.
            for (obj, spec) in table1_forms(&circuit, &s, 0.9) {
                let p = SizingProblem::build(&circuit, &lib(), obj.clone(), spec);
                let x = p.initial_point(&s);
                let lambda = p.multiplier_estimate(&x);
                assert!(lambda.iter().all(|v| v.is_finite()));
                let r = kkt_residual(&p, &x, &lambda);
                let mut vals = vec![0.0; p.jacobian_structure().len()];
                p.jacobian_values(&x, &mut vals);
                let mut g = vec![0.0; p.num_vars()];
                p.gradient(&x, &mut g);
                let mut scale: Vec<f64> = g.iter().map(|v| v.abs()).collect();
                for (&(ci, j), v) in p.jacobian_structure().iter().zip(&vals) {
                    scale[j] += (lambda[ci] * v).abs();
                }
                for (ci, con) in p.cons.iter().enumerate() {
                    if let Con::DelayCap { .. } = con {
                        assert!(lambda[ci] <= 0.0, "{obj}: cap multiplier {}", lambda[ci]);
                        continue;
                    }
                    let y = con.defined_var().unwrap();
                    assert!(
                        r[y].abs() <= 1e-12 * scale[y],
                        "{} {obj}: row {ci} ({}) residual {:e} at scale {:e}",
                        circuit.name(),
                        p.constraint_kind(ci),
                        r[y],
                        scale[y]
                    );
                }
            }
        }
    }

    #[test]
    fn multiplier_estimate_fits_pinned_and_per_output_caps() {
        let dag = generate::random_dag(&sgs_netlist::generate::RandomDagSpec {
            name: "caps".into(),
            cells: 30,
            inputs: 6,
            depth: 5,
            seed: 11,
            ..Default::default()
        });
        let s: Vec<f64> = (0..dag.num_gates())
            .map(|i| 1.0 + 0.09 * (i % 19) as f64)
            .collect();
        let report = sgs_ssta::ssta(&dag, &lib(), &s);
        let per_output: Vec<f64> = dag
            .outputs()
            .iter()
            .map(|&o| 0.9 * report.arrivals[o.index()].mean())
            .collect();
        for (spec, caps) in [
            (DelaySpec::ExactMean(0.9 * report.delay.mean()), 1),
            (
                DelaySpec::PerOutput {
                    k: 0.0,
                    d: per_output,
                },
                dag.outputs().len(),
            ),
        ] {
            let p = SizingProblem::build(&dag, &lib(), Objective::Area, spec.clone());
            let x = p.initial_point(&s);
            let lambda = p.multiplier_estimate(&x);
            let r = kkt_residual(&p, &x, &lambda);
            // Area reaches no defined variable: with every cap at zero the
            // residual on the speed factors is all ones, and the joint fit
            // must do better.
            let free_norm = |r: &[f64]| {
                (0..p.num_gates())
                    .map(|g| r[p.s_index(g)].powi(2))
                    .sum::<f64>()
                    .sqrt()
            };
            assert!(
                free_norm(&r) < (p.num_gates() as f64).sqrt(),
                "{spec}: fitted residual {:e}",
                free_norm(&r)
            );
            let mut fitted = 0;
            for (ci, con) in p.cons.iter().enumerate() {
                match (con, con.defined_var()) {
                    (Con::DelayCap { slack, .. }, _) => {
                        fitted += 1;
                        assert!(
                            slack.is_none() || lambda[ci] <= 0.0,
                            "{spec}: {}",
                            lambda[ci]
                        );
                    }
                    (_, Some(y)) => assert!(r[y].abs() <= 1e-12 * (1.0 + lambda[ci].abs())),
                    (_, None) => unreachable!("only caps define no variable"),
                }
            }
            assert_eq!(fitted, caps);
        }
    }

    #[test]
    fn multiplier_estimate_gives_an_interior_cap_zero() {
        let circuit = generate::tree7();
        let s = vec![1.5; 7];
        for (obj, spec) in table1_forms(&circuit, &s, 1.1).into_iter().skip(2) {
            let p = SizingProblem::build(&circuit, &lib(), obj, spec);
            let x = p.initial_point(&s);
            let lambda = p.multiplier_estimate(&x);
            // Area reaches no defined variable, so nothing but the (zero)
            // cap could carry a multiplier.
            assert!(lambda.iter().all(|&v| v == 0.0), "{lambda:?}");
        }
    }

    #[test]
    fn multiplier_estimate_matches_a_converged_solve() {
        use sgs_nlp::auglag::{self, AugLagOptions, SolveStatus, WarmStart};
        let circuit = rdag40();
        let (obj, spec) = (
            Objective::Area,
            DelaySpec::MaxMeanPlusKSigma { k: 3.0, d: 20.0 },
        );
        let seed = crate::reduced::solve_reduced(
            &circuit,
            &lib(),
            obj.clone(),
            spec.clone(),
            &vec![1.0; circuit.num_gates()],
            &crate::reduced::ReducedOptions::default(),
        );
        let p = SizingProblem::build(&circuit, &lib(), obj, spec);
        let x0 = p.initial_point(&seed.s);
        let warm = WarmStart {
            lambda: p.multiplier_estimate(&x0),
            x: x0.clone(),
            rho: 30.0,
        };
        let opts = AugLagOptions {
            tol_feas: 1e-10,
            tol_opt: 1e-6,
            ..AugLagOptions::default()
        };
        let r = auglag::solve_warm(&p, &x0, Some(&warm), &opts);
        assert_eq!(r.status, SolveStatus::Converged);
        let est = p.multiplier_estimate(&r.x);
        let norm = r.lambda.iter().fold(0.0f64, |a, v| a.max(v.abs()));
        let diff = est
            .iter()
            .zip(&r.lambda)
            .fold(0.0f64, |a, (e, l)| a.max((e - l).abs()));
        assert!(norm > 0.0);
        assert!(
            diff <= 1e-3 * norm,
            "estimate is {diff:e} from the solve's multipliers (|lambda| = {norm:e})"
        );
    }

    #[test]
    #[should_panic(expected = "one arrival distribution per primary input")]
    fn arrival_length_checked() {
        let circuit = generate::tree7();
        let _ = SizingProblem::build_with_arrivals(
            &circuit,
            &lib(),
            Objective::MeanDelay,
            DelaySpec::None,
            Some(&[sgs_statmath::Normal::certain(0.0)]),
        );
    }

    #[test]
    #[should_panic(expected = "one weight per gate")]
    fn weighted_area_length_checked() {
        let circuit = generate::tree7();
        let _ = SizingProblem::build(
            &circuit,
            &lib(),
            Objective::WeightedArea(vec![1.0; 3]),
            DelaySpec::None,
        );
    }
}
