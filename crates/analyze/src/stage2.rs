//! Stage 2: numerical-safety proofs by abstract interpretation.
//!
//! The concrete solver evaluates the delay model and the arrival
//! recurrence at *points*; this stage evaluates the same formulas over
//! the whole feasible size box `[S_min, S_max]^n` using the
//! outward-rounded interval arithmetic of [`sgs_statmath::interval`].
//! Because every enclosure contains every concrete evaluation (the
//! containment property the proptest suite checks), a property proved on
//! the enclosure — "this divisor never reaches zero", "this `sqrt`
//! argument stays positive", "this mean stays below the scaling limit" —
//! holds for every point the solver can visit.
//!
//! The interval recurrence mirrors [`sgs_ssta::ssta`] operation for
//! operation: per-gate load and delay (paper Eq. 14), the sigma model
//! `var_t = (sigma_factor * mu_t)^2`, a left fold of the interval Clark
//! max over fan-in arrivals (Eq. 18b) and the final fold over primary
//! outputs.

use crate::{AnalyzerOptions, Diagnostic, Severity};
use sgs_core::SizingProblem;
use sgs_netlist::{Circuit, Library, Signal};
use sgs_ssta::DelayModel;
use sgs_statmath::interval::{clark_max, Interval};

/// Interval enclosures of every quantity the SSTA recurrence computes,
/// one entry per gate. Produced by [`interval_ssta`]; consumed by the
/// stage-2 checks and by the containment test-suite.
#[derive(Debug, Clone)]
pub struct IntervalSsta {
    /// The size box each speed factor ranges over.
    pub s: Vec<Interval>,
    /// Enclosure of the capacitive load `C_load + sum C_in,j S_j`.
    pub load: Vec<Interval>,
    /// Enclosure of the mean gate delay `mu_t` (Eq. 14).
    pub mu_t: Vec<Interval>,
    /// Enclosure of the gate-delay variance `(sigma_factor * mu_t)^2`.
    pub var_t: Vec<Interval>,
    /// Enclosure of the arrival mean `mu_T` at each gate output.
    pub arr_mu: Vec<Interval>,
    /// Enclosure of the (clamped) arrival variance `var_T`.
    pub arr_var: Vec<Interval>,
    /// Gates whose fan-in fold produced a raw Clark variance enclosure
    /// reaching below zero (the runtime clamp is reachable there).
    pub clamp_reachable: Vec<bool>,
    /// Gates whose fan-in fold could not prove `theta^2 > 0` from the raw
    /// enclosures (only reachable with `assume_runtime_clamps` off).
    pub sqrt_unsafe: Vec<bool>,
    /// Enclosure of the circuit delay mean `mu_Tmax`.
    pub delay_mu: Interval,
    /// Enclosure of the circuit delay variance `var_Tmax`.
    pub delay_var: Interval,
}

impl IntervalSsta {
    /// Enclosure of the multiplied-through delay-constraint residual for
    /// gate `g` (problem Eq. 15): `mu_t S - t_int S - c C_static - sum_j
    /// c C_in,j S_j`, evaluated with `mu_t` ranging over `mu_t_iv` and
    /// every size over its box. Any concrete residual built from sizes in
    /// the box and a `mu_t` inside the enclosure lies inside this
    /// interval.
    pub fn delay_residual(&self, model: &DelayModel, g: usize, mu_t_iv: Interval) -> Interval {
        let id = sgs_netlist::GateId(g);
        let mut r = mu_t_iv * self.s[g]
            - self.s[g] * model.t_int(id)
            - Interval::point(model.c() * model.static_load(id));
        for j in model.circuit().fanout(id) {
            r = r - self.s[j.index()] * (model.c() * model.c_in(j));
        }
        r
    }

    /// Enclosure of the sigma-model residual for gate `g` (Eq. 18e):
    /// `var_t - kappa^2 mu_t^2` with both operands ranging over their
    /// enclosures.
    pub fn var_t_residual(&self, kappa2: f64, g: usize, mu_t_iv: Interval) -> Interval {
        self.var_t[g] - mu_t_iv.sqr() * kappa2
    }
}

/// Propagates the size box through the delay model and the arrival
/// recurrence, mirroring the concrete left-fold order of
/// [`sgs_ssta::ssta`] exactly.
///
/// # Panics
///
/// Panics if the analyzer options describe an empty size box.
pub fn interval_ssta(circuit: &Circuit, lib: &Library, opts: &AnalyzerOptions) -> IntervalSsta {
    let model = DelayModel::new(circuit, lib);
    let n = circuit.num_gates();
    let s_max = opts.s_max.unwrap_or(lib.s_limit);
    let s_box = Interval::new(opts.s_min, s_max);
    let s = vec![s_box; n];

    let mut load = Vec::with_capacity(n);
    let mut mu_t = Vec::with_capacity(n);
    let mut var_t = Vec::with_capacity(n);
    for g in 0..n {
        let id = sgs_netlist::GateId(g);
        let mut cap = Interval::point(model.static_load(id));
        for j in circuit.fanout(id) {
            cap = cap + s[j.index()] * model.c_in(j);
        }
        load.push(cap);
        let mu = (cap * model.c()) / s[g] + model.t_int(id);
        mu_t.push(mu);
        var_t.push((mu * model.sigma_factor()).sqr());
    }

    let mut arr_mu = Vec::with_capacity(n);
    let mut arr_var = Vec::with_capacity(n);
    let mut clamp_reachable = vec![false; n];
    let mut sqrt_unsafe = vec![false; n];
    let zero = Interval::point(0.0);
    for (id, gate) in circuit.gates() {
        let g = id.index();
        let arrivals: Vec<(Interval, Interval)> = gate
            .inputs
            .iter()
            .map(|&sig| match sig {
                Signal::Pi(_) => (zero, zero),
                Signal::Gate(src) => (arr_mu[src.index()], arr_var[src.index()]),
            })
            .collect();
        let (u_mu, u_var) = fold_max(
            &arrivals,
            opts,
            &mut clamp_reachable[g],
            &mut sqrt_unsafe[g],
        );
        arr_mu.push(u_mu + mu_t[g]);
        arr_var.push(u_var + var_t[g]);
    }

    let out_arrivals: Vec<(Interval, Interval)> = circuit
        .outputs()
        .iter()
        .map(|&o| (arr_mu[o.index()], arr_var[o.index()]))
        .collect();
    let mut out_clamped = false;
    let mut out_unsafe = false;
    let (delay_mu, delay_var) = fold_max(&out_arrivals, opts, &mut out_clamped, &mut out_unsafe);

    IntervalSsta {
        s,
        load,
        mu_t,
        var_t,
        arr_mu,
        arr_var,
        clamp_reachable,
        sqrt_unsafe,
        delay_mu,
        delay_var,
    }
}

/// Interval mirror of [`sgs_statmath::clark::max_n`]: a left fold of the
/// interval Clark max. Sets `clamped` when any raw variance enclosure in
/// the fold reaches below zero, and `sqrt_unsafe` when the raw operand
/// enclosures cannot prove `theta^2 > 0` for a fold step. The `clark_max`
/// call itself always receives clamped (non-negative) variance operands —
/// with `assume_runtime_clamps` that models the concrete code exactly;
/// without it, it merely keeps the detection pass running after the
/// unprovable step has been recorded.
fn fold_max(
    operands: &[(Interval, Interval)],
    opts: &AnalyzerOptions,
    clamped: &mut bool,
    sqrt_unsafe: &mut bool,
) -> (Interval, Interval) {
    let (mut mu, mut var) = operands[0];
    for &(m, v) in &operands[1..] {
        let eps2 = opts.clark_eps * opts.clark_eps;
        if var.lo() + v.lo() + eps2 <= 0.0 {
            *sqrt_unsafe = true;
        }
        let (va, vb) = (var.max_const(0.0), v.max_const(0.0));
        // A zero smoothing floor with zero-variance operands would make
        // even the clamped theta^2 unprovable (already recorded above);
        // substitute the default floor so the detection pass can go on.
        let eps_eff = if va.lo() + vb.lo() + eps2 > 0.0 {
            opts.clark_eps
        } else {
            sgs_statmath::clark::DEFAULT_EPS
        };
        let bounds = clark_max(mu, va, m, vb, eps_eff);
        if bounds.var_raw.lo() < 0.0 {
            *clamped = true;
        }
        mu = bounds.mu;
        var = if opts.assume_runtime_clamps {
            bounds.var_clamped()
        } else {
            bounds.var_raw
        };
    }
    (mu, var)
}

fn fmt_iv(iv: Interval) -> String {
    format!("[{:.6e}, {:.6e}]", iv.lo(), iv.hi())
}

/// Runs the stage-2 checks, attributing each finding to a gate and to
/// the matching constraint index of `problem`.
pub fn interval_checks(
    circuit: &Circuit,
    lib: &Library,
    problem: &SizingProblem,
    opts: &AnalyzerOptions,
) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let n = circuit.num_gates();
    let s_max = opts.s_max.unwrap_or(lib.s_limit);
    if opts.s_min > s_max {
        out.push(Diagnostic {
            severity: Severity::Error,
            code: "SGS-N001",
            location: "size box".to_string(),
            message: format!("empty size box [{}, {s_max}]", opts.s_min),
            data: vec![],
        });
        return out;
    }

    // Reverse map: gate -> constraint index per constraint kind.
    let mut delay_con = vec![None; n];
    let mut var_t_con = vec![None; n];
    let mut arr_mu_con = vec![None; n];
    let mut arr_var_con = vec![None; n];
    for ci in 0..sgs_nlp::NlpProblem::num_constraints(problem) {
        if let Some(g) = problem.constraint_gate(ci) {
            let slot = match problem.constraint_kind(ci) {
                "delay" => &mut delay_con[g],
                "var_t" => &mut var_t_con[g],
                "arr_mu" => &mut arr_mu_con[g],
                "arr_var" => &mut arr_var_con[g],
                _ => continue,
            };
            if slot.is_none() {
                *slot = Some(ci);
            }
        }
    }
    let con_str = |c: Option<usize>| c.map_or_else(|| "-".to_string(), |ci| ci.to_string());

    // Division safety (SGS-N001): the only division in the recurrence is
    // by `S` (Eq. 14); the NLP keeps its multiplied-through form, but the
    // reduced-space evaluator and SSTA divide directly.
    let s_box = Interval::new(opts.s_min, s_max);
    if s_box.lo() <= opts.div_eps {
        for (g, dc) in delay_con.iter().enumerate() {
            let gate = circuit.gate(sgs_netlist::GateId(g));
            out.push(Diagnostic {
                severity: Severity::Error,
                code: "SGS-N001",
                location: format!("gate `{}`", gate.name),
                message: format!(
                    "size lower bound {} is within div_eps = {} of zero; the delay \
                     recurrence divides by S",
                    s_box.lo(),
                    opts.div_eps
                ),
                data: vec![
                    ("gate", g.to_string()),
                    ("constraint", con_str(*dc)),
                    ("interval", fmt_iv(s_box)),
                ],
            });
        }
        // An unsafe divisor makes every downstream enclosure the whole
        // line; further findings would be noise.
        return out;
    }

    let iv = interval_ssta(circuit, lib, opts);

    // Magnitude checks (SGS-N003) over mu_t and the arrival moments: the
    // augmented-Lagrangian scaling assumes constraint residuals and
    // multipliers of moderate magnitude. A *proven* non-finite value is an
    // Error; a finite enclosure merely exceeding the thresholds is a
    // failed boundedness proof, not a proven overflow — interval
    // dependency widening inflates deep reconvergent circuits by orders
    // of magnitude (apex1's depth-47 variance enclosures reach 1e13 while
    // every concrete value stays below 1e3) — so it warns at most.
    let mut check_mag = |what: &str, g: usize, con: Option<usize>, e: Interval| {
        let worst = e.lo().abs().max(e.hi().abs());
        let severity = if !e.is_finite() {
            Severity::Error
        } else if worst > opts.mag_err {
            Severity::Warning
        } else if worst > opts.mag_warn {
            Severity::Info
        } else {
            return;
        };
        let gate = circuit.gate(sgs_netlist::GateId(g));
        let message = if severity == Severity::Error {
            format!("{what} enclosure {} is not finite", fmt_iv(e))
        } else {
            format!(
                "{what} enclosure {} exceeds the NLP scaling assumption ({:.0e})",
                fmt_iv(e),
                if severity == Severity::Warning {
                    opts.mag_err
                } else {
                    opts.mag_warn
                }
            )
        };
        out.push(Diagnostic {
            severity,
            code: "SGS-N003",
            location: format!("gate `{}`", gate.name),
            message,
            data: vec![
                ("gate", g.to_string()),
                ("constraint", con_str(con)),
                ("interval", fmt_iv(e)),
            ],
        });
    };
    for g in 0..n {
        check_mag("mu_t", g, delay_con[g], iv.mu_t[g]);
        check_mag("var_t", g, var_t_con[g], iv.var_t[g]);
        check_mag("arrival mu_T", g, arr_mu_con[g], iv.arr_mu[g]);
        check_mag("arrival var_T", g, arr_var_con[g], iv.arr_var[g]);
    }

    // Negative variance into sqrt (SGS-N002): with the runtime clamps
    // modelled, every theta^2 is positive by construction; without them
    // the analyzer must prove it from the raw enclosures, and a variance
    // enclosure reaching below zero is exactly the unprovable case.
    if !opts.assume_runtime_clamps {
        for (g, _) in iv.sqrt_unsafe.iter().enumerate().filter(|(_, &u)| u) {
            let gate = circuit.gate(sgs_netlist::GateId(g));
            out.push(Diagnostic {
                severity: Severity::Error,
                code: "SGS-N002",
                location: format!("gate `{}`", gate.name),
                message: format!(
                    "a fan-in variance enclosure reaching below zero feeds this \
                     gate's Clark max sqrt(theta^2) (arrival variance {})",
                    fmt_iv(iv.arr_var[g])
                ),
                data: vec![
                    ("gate", g.to_string()),
                    ("constraint", con_str(arr_var_con[g])),
                    ("interval", fmt_iv(iv.arr_var[g])),
                ],
            });
        }
        if iv.delay_var.lo() < 0.0 {
            out.push(Diagnostic {
                severity: Severity::Error,
                code: "SGS-N002",
                location: "circuit delay".to_string(),
                message: format!(
                    "delay variance enclosure {} reaches below zero and feeds \
                     sigma_Tmax = sqrt(var_Tmax)",
                    fmt_iv(iv.delay_var)
                ),
                data: vec![("interval", fmt_iv(iv.delay_var))],
            });
        }
    }

    // Clamp reachability (SGS-N004, informational): interval dependency
    // widening means this fires on most circuits with reconvergent
    // fan-in; it documents that the runtime clamp (and its
    // `clark_var_clamped` counter) may be exercised, nothing more.
    let reachable: Vec<usize> = (0..n).filter(|&g| iv.clamp_reachable[g]).collect();
    if !reachable.is_empty() {
        out.push(Diagnostic {
            severity: Severity::Info,
            code: "SGS-N004",
            location: format!("{} gate(s)", reachable.len()),
            message: "Clark variance clamp is reachable inside the size box (raw variance \
                      enclosure dips below zero); the solver counts actual firings in \
                      `clark_var_clamps`"
                .to_string(),
            data: vec![(
                "gates",
                reachable
                    .iter()
                    .take(8)
                    .map(|g| circuit.gate(sgs_netlist::GateId(*g)).name.clone())
                    .collect::<Vec<_>>()
                    .join(", "),
            )],
        });
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgs_core::{DelaySpec, Objective};
    use sgs_netlist::generate;

    fn problem(c: &Circuit, lib: &Library) -> SizingProblem {
        SizingProblem::build(c, lib, Objective::Area, DelaySpec::None)
    }

    #[test]
    fn enclosures_contain_concrete_ssta_at_box_corners() {
        let c = generate::ripple_carry_adder(4);
        let lib = Library::paper_default();
        let opts = AnalyzerOptions::default();
        let iv = interval_ssta(&c, &lib, &opts);
        for s_val in [1.0, 1.7, 3.0] {
            let s = vec![s_val; c.num_gates()];
            let model = DelayModel::new(&c, &lib);
            let report = sgs_ssta::ssta(&c, &lib, &s);
            for (id, _) in c.gates() {
                let g = id.index();
                assert!(iv.mu_t[g].contains(model.mu_t(id, &s)), "mu_t gate {g}");
                assert!(
                    iv.arr_mu[g].contains(report.arrivals[g].mean()),
                    "arr_mu gate {g}"
                );
                assert!(
                    iv.arr_var[g].contains(report.arrivals[g].var()),
                    "arr_var gate {g}"
                );
            }
            assert!(iv.delay_mu.contains(report.delay.mean()));
            assert!(iv.delay_var.contains(report.delay.var()));
        }
    }

    #[test]
    fn healthy_circuit_has_no_stage2_errors() {
        let c = generate::tree7();
        let lib = Library::paper_default();
        let p = problem(&c, &lib);
        let diags = interval_checks(&c, &lib, &p, &AnalyzerOptions::default());
        assert!(
            diags.iter().all(|d| d.severity != Severity::Error),
            "{diags:?}"
        );
    }

    #[test]
    fn near_zero_size_bound_raises_n001() {
        let c = generate::tree7();
        let lib = Library::paper_default();
        let p = problem(&c, &lib);
        let opts = AnalyzerOptions {
            s_min: 1e-12,
            ..AnalyzerOptions::default()
        };
        let diags = interval_checks(&c, &lib, &p, &opts);
        assert!(diags.iter().any(|d| d.code == "SGS-N001"), "{diags:?}");
        // The finding names the delay constraint of its gate.
        let d = diags.iter().find(|d| d.code == "SGS-N001").unwrap();
        assert!(d.data.iter().any(|(k, v)| *k == "constraint" && v != "-"));
    }

    #[test]
    fn raw_variance_mode_raises_n002_on_reconvergence() {
        // The adder has reconvergent fan-in, so raw (unclamped) variance
        // enclosures dip below zero somewhere along the carry chain.
        let c = generate::ripple_carry_adder(6);
        let lib = Library::paper_default();
        let p = problem(&c, &lib);
        let opts = AnalyzerOptions {
            assume_runtime_clamps: false,
            ..AnalyzerOptions::default()
        };
        let diags = interval_checks(&c, &lib, &p, &opts);
        assert!(diags.iter().any(|d| d.code == "SGS-N002"), "{diags:?}");
    }

    #[test]
    fn residual_enclosures_contain_sampled_residuals() {
        let c = generate::fig2();
        let lib = Library::paper_default();
        let model = DelayModel::new(&c, &lib);
        let opts = AnalyzerOptions::default();
        let iv = interval_ssta(&c, &lib, &opts);
        let kappa2 = lib.sigma_factor * lib.sigma_factor;
        for s_val in [1.0, 2.0, 3.0] {
            let s = vec![s_val; c.num_gates()];
            for (id, _) in c.gates() {
                let g = id.index();
                // Concrete residual with mu_t perturbed inside its
                // enclosure (nonzero residual, still contained).
                let mu_pert = iv.mu_t[g].lo() + 0.25 * iv.mu_t[g].width();
                let mut want =
                    mu_pert * s[g] - model.t_int(id) * s[g] - model.c() * model.static_load(id);
                for j in c.fanout(id) {
                    want -= model.c() * model.c_in(j) * s[j.index()];
                }
                let enc = iv.delay_residual(&model, g, iv.mu_t[g]);
                assert!(
                    enc.contains(want),
                    "delay residual gate {g}: {want} vs {enc:?}"
                );
                let vres = iv.var_t_residual(kappa2, g, iv.mu_t[g]);
                let concrete_v = (lib.sigma_factor * mu_pert).powi(2) - kappa2 * mu_pert * mu_pert;
                assert!(vres.contains(concrete_v), "var_t residual gate {g}");
            }
        }
    }
}
