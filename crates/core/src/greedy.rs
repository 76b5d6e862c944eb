//! A TILOS-style greedy sensitivity sizer — the classic deterministic
//! baseline the NLP formulation competes against.
//!
//! Starting from minimum sizes, each round bumps the speed factor of the
//! gate whose bump most improves the chosen delay metric, restricted to
//! gates on or near the critical path (by deterministic slack), until no
//! bump helps. This is the algorithm family practical sizers used before
//! (and alongside) mathematical programming; benches compare its results
//! and cost against the paper's NLP on the same circuits.

use crate::spec::Objective;
use sgs_netlist::{Circuit, GateId, Library, Signal};
use sgs_ssta::{sta_deterministic_with_model, DelayModel, IncrementalSsta};

/// Options for [`greedy_size`].
#[derive(Debug, Clone)]
pub struct GreedyOptions {
    /// Multiplicative speed-factor bump per accepted move.
    pub bump: f64,
    /// Slack window (relative to the worst arrival) for candidate gates.
    pub slack_window: f64,
    /// Maximum accepted moves.
    pub max_moves: usize,
}

impl Default for GreedyOptions {
    fn default() -> Self {
        GreedyOptions {
            bump: 1.15,
            slack_window: 0.02,
            max_moves: 100_000,
        }
    }
}

/// Result of a greedy sizing run.
#[derive(Debug, Clone)]
pub struct GreedyResult {
    /// Final speed factors.
    pub s: Vec<f64>,
    /// Final metric value.
    pub metric: f64,
    /// Accepted moves.
    pub moves: usize,
    /// Metric evaluations performed (the cost driver).
    pub evaluations: usize,
}

/// The delay metric the greedy sizer descends. The statistical metrics
/// read the incremental engine `inc` kept at `s`; the deterministic worst
/// case is one STA pass over the prebuilt [`DelayModel`].
fn metric_value(
    circuit: &Circuit,
    model: &DelayModel,
    inc: Option<&IncrementalSsta>,
    s: &[f64],
    objective: &Objective,
) -> f64 {
    match (objective, inc) {
        (Objective::MeanDelay, Some(inc)) => inc.delay().mean(),
        (Objective::MeanPlusKSigma(k), Some(inc)) => inc.delay().mean_plus_k_sigma(*k),
        // The pre-statistical baseline: deterministic worst case.
        _ => sta_deterministic_with_model(circuit, model, s, 0.0).0,
    }
}

/// Sets gate `id`'s speed factor in `s` and, when kept, in the engine.
fn set_size(s: &mut [f64], inc: Option<&mut IncrementalSsta>, id: GateId, v: f64) {
    s[id.index()] = v;
    if let Some(inc) = inc {
        inc.apply(&[(id, v)]);
    }
}

/// Gates within the slack window of the (deterministic) critical path.
fn candidates(circuit: &Circuit, model: &DelayModel, s: &[f64], window: f64) -> Vec<GateId> {
    let (worst, arrivals) = sta_deterministic_with_model(circuit, model, s, 0.0);
    // Required times by reverse sweep.
    let mut required = vec![f64::INFINITY; circuit.num_gates()];
    for &o in circuit.outputs() {
        required[o.index()] = worst;
    }
    for (id, gate) in circuit.gates().collect::<Vec<_>>().into_iter().rev() {
        let req_here = required[id.index()];
        if !req_here.is_finite() {
            continue;
        }
        let d = model.gate_delay(id, s).mean();
        for &sig in &gate.inputs {
            if let Signal::Gate(src) = sig {
                let r = req_here - d;
                if r < required[src.index()] {
                    required[src.index()] = r;
                }
            }
        }
    }
    let tol = window * worst;
    circuit
        .gates()
        .filter(|(id, _)| {
            required[id.index()].is_finite() && required[id.index()] - arrivals[id.index()] <= tol
        })
        .map(|(id, _)| id)
        .collect()
}

/// Greedily sizes `circuit` to minimise the delay metric implied by
/// `objective` ([`Objective::MeanDelay`], [`Objective::MeanPlusKSigma`] use
/// statistical timing; anything else descends the deterministic worst
/// case).
///
/// # Panics
///
/// Panics if `opts.bump <= 1`.
pub fn greedy_size(
    circuit: &Circuit,
    lib: &Library,
    objective: &Objective,
    opts: &GreedyOptions,
) -> GreedyResult {
    assert!(opts.bump > 1.0, "bump factor must exceed 1");
    let n = circuit.num_gates();
    // One model build for the whole run: every candidate evaluation below
    // reuses it.
    let model = DelayModel::new(circuit, lib);
    let mut s = vec![1.0; n];
    // Statistical metrics are scored on an incremental engine: a bump
    // re-times only the bumped gate's cone, and so does its revert, bit
    // for bit a full SSTA pass at the same sizes.
    let mut inc = matches!(
        objective,
        Objective::MeanDelay | Objective::MeanPlusKSigma(_)
    )
    .then(|| IncrementalSsta::new(circuit, lib, &s));
    let mut best = metric_value(circuit, &model, inc.as_ref(), &s, objective);
    let mut moves = 0usize;
    let mut evals = 1usize;

    while moves < opts.max_moves {
        let cands = candidates(circuit, &model, &s, opts.slack_window);
        let mut best_gate: Option<(GateId, f64, f64)> = None; // (gate, new_s, metric)
        for id in cands {
            let old = s[id.index()];
            if old >= lib.s_limit - 1e-12 {
                continue;
            }
            let candidate_s = (old * opts.bump).min(lib.s_limit);
            set_size(&mut s, inc.as_mut(), id, candidate_s);
            let m = metric_value(circuit, &model, inc.as_ref(), &s, objective);
            evals += 1;
            set_size(&mut s, inc.as_mut(), id, old);
            if m < best - 1e-12 && best_gate.is_none_or(|(_, _, bm)| m < bm) {
                best_gate = Some((id, candidate_s, m));
            }
        }
        match best_gate {
            Some((id, new_s, m)) => {
                set_size(&mut s, inc.as_mut(), id, new_s);
                best = m;
                moves += 1;
            }
            None => break,
        }
    }

    GreedyResult {
        s,
        metric: best,
        moves,
        evaluations: evals,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Sizer;
    use sgs_netlist::generate;
    use sgs_ssta::{ssta, sta_deterministic};

    fn lib() -> Library {
        Library::paper_default()
    }

    #[test]
    fn greedy_improves_over_unsized() {
        let c = generate::tree7();
        let r = greedy_size(&c, &lib(), &Objective::MeanDelay, &GreedyOptions::default());
        let baseline = ssta(&c, &lib(), &[1.0; 7]).delay.mean();
        assert!(r.metric < baseline - 0.5, "{} vs {}", r.metric, baseline);
        assert!(r.moves > 0);
        for &si in &r.s {
            assert!((1.0..=3.0 + 1e-9).contains(&si));
        }
    }

    #[test]
    fn nlp_at_least_matches_greedy() {
        // The point of the mathematical-programming formulation: it should
        // never lose to the greedy heuristic on the objective.
        let c = generate::ripple_carry_adder(4);
        for obj in [Objective::MeanDelay, Objective::MeanPlusKSigma(3.0)] {
            let greedy = greedy_size(&c, &lib(), &obj, &GreedyOptions::default());
            let nlp = Sizer::new(&c, &lib())
                .objective(obj.clone())
                .solve()
                .expect("sizes");
            assert!(
                nlp.objective <= greedy.metric + 1e-6,
                "{obj}: NLP {} vs greedy {}",
                nlp.objective,
                greedy.metric
            );
        }
    }

    #[test]
    fn incremental_scores_are_full_passes_bit_for_bit() {
        let c = generate::ripple_carry_adder(4);
        for (obj, k) in [
            (Objective::MeanDelay, 0.0),
            (Objective::MeanPlusKSigma(3.0), 3.0),
        ] {
            let r = greedy_size(&c, &lib(), &obj, &GreedyOptions::default());
            let full = ssta(&c, &lib(), &r.s).delay;
            let want = if k == 0.0 {
                full.mean()
            } else {
                full.mean_plus_k_sigma(k)
            };
            assert!(r.moves > 0);
            assert_eq!(r.metric.to_bits(), want.to_bits(), "{obj}");
        }
    }

    #[test]
    fn deterministic_metric_ignores_sigma() {
        let c = generate::tree7();
        let det = greedy_size(&c, &lib(), &Objective::Area, &GreedyOptions::default());
        // Metric equals the deterministic STA at the result.
        let (worst, _) = sta_deterministic(&c, &lib(), &det.s, 0.0);
        assert!((det.metric - worst).abs() < 1e-9);
    }

    #[test]
    fn respects_move_cap() {
        let c = generate::tree7();
        let r = greedy_size(
            &c,
            &lib(),
            &Objective::MeanDelay,
            &GreedyOptions {
                max_moves: 3,
                ..Default::default()
            },
        );
        assert!(r.moves <= 3);
    }
}
