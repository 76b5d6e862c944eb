//! Forward statistical (and deterministic) static timing analysis.

use crate::delay::DelayModel;
use crate::soa::{ArrivalPush, ArrivalRead};
use sgs_netlist::{Circuit, GateId, Library, Signal};
use sgs_statmath::{clark, Normal};

/// Result of a statistical timing analysis.
#[derive(Debug, Clone)]
pub struct SstaReport {
    /// Arrival-time distribution at each gate output, indexed by gate id.
    pub arrivals: Vec<Normal>,
    /// Circuit delay distribution: the stochastic max over all primary
    /// outputs (the paper's `(mu_Tmax, sigma_Tmax)`).
    pub delay: Normal,
}

impl SstaReport {
    /// `mu_Tmax + k * sigma_Tmax`, the paper's robust delay metric.
    pub fn mean_plus_k_sigma(&self, k: f64) -> f64 {
        self.delay.mean_plus_k_sigma(k)
    }
}

/// Statistical STA with zero-arrival primary inputs (the paper's setting).
///
/// `s` holds one speed factor per gate.
///
/// # Panics
///
/// Panics if `s.len() != circuit.num_gates()`.
pub fn ssta(circuit: &Circuit, lib: &Library, s: &[f64]) -> SstaReport {
    ssta_with_arrivals(circuit, lib, s, None)
}

/// Statistical STA with explicit primary-input arrival distributions
/// (`None` entries and a `None` slice mean "arrives at exactly 0").
///
/// # Panics
///
/// Panics if `s.len() != circuit.num_gates()` or the arrival slice length
/// differs from the input count.
pub fn ssta_with_arrivals(
    circuit: &Circuit,
    lib: &Library,
    s: &[f64],
    input_arrivals: Option<&[Normal]>,
) -> SstaReport {
    let model = DelayModel::new(circuit, lib);
    ssta_with_model_and_arrivals(circuit, &model, s, input_arrivals)
}

/// Statistical STA reusing a prebuilt [`DelayModel`]: bitwise the report
/// of [`ssta`], which builds a fresh model on every call. For callers that
/// evaluate many speed vectors on one circuit (greedy sizing,
/// discretization repair, Monte Carlo sweeps) or already hold the model
/// for their own use.
///
/// # Panics
///
/// Panics if `s.len() != circuit.num_gates()`.
pub fn ssta_with_model(circuit: &Circuit, model: &DelayModel, s: &[f64]) -> SstaReport {
    ssta_with_model_and_arrivals(circuit, model, s, None)
}

/// [`ssta_with_model`] with explicit primary-input arrival distributions.
///
/// # Panics
///
/// Panics if `s.len() != circuit.num_gates()` or the arrival slice length
/// differs from the input count.
pub fn ssta_with_model_and_arrivals(
    circuit: &Circuit,
    model: &DelayModel,
    s: &[f64],
    input_arrivals: Option<&[Normal]>,
) -> SstaReport {
    check_inputs(circuit, s, input_arrivals);
    sgs_metrics::incr(sgs_metrics::Counter::SstaFullPasses);
    let _timer = sgs_metrics::time_hist(sgs_metrics::HistId::SstaFullSeconds);
    let arrivals = full_pass(
        circuit,
        model,
        s,
        input_arrivals,
        Vec::with_capacity(circuit.num_gates()),
    );
    let delay = delay_from_arrivals(circuit, &arrivals);
    SstaReport { arrivals, delay }
}

/// Panics unless `s` holds one speed factor per gate and `input_arrivals`
/// (if any) one arrival per primary input.
pub(crate) fn check_inputs(circuit: &Circuit, s: &[f64], input_arrivals: Option<&[Normal]>) {
    assert_eq!(s.len(), circuit.num_gates(), "speed vector length mismatch");
    if let Some(ia) = input_arrivals {
        assert_eq!(
            ia.len(),
            circuit.num_inputs(),
            "input arrival length mismatch"
        );
    }
}

/// Arrival of `sig` given already-computed gate arrivals (in either
/// storage layout — see [`ArrivalRead`]).
#[inline]
pub(crate) fn arrival_of<A: ArrivalRead + ?Sized>(
    sig: Signal,
    arrivals: &A,
    input_arrivals: Option<&[Normal]>,
) -> Normal {
    match sig {
        Signal::Pi(p) => input_arrivals.map_or_else(Normal::default, |ia| ia[p]),
        Signal::Gate(g) => arrivals.arrival(g.index()),
    }
}

/// Latest arrival of one gate: stochastic max over fan-in arrivals (left
/// fold, paper Eq. 18b) plus the gate delay (paper Eq. 4). The single
/// pure function the full pass and the incremental engine evaluate.
#[inline]
pub(crate) fn gate_arrival<A: ArrivalRead + ?Sized>(
    circuit: &Circuit,
    model: &DelayModel,
    s: &[f64],
    arrivals: &A,
    input_arrivals: Option<&[Normal]>,
    idx: usize,
) -> Normal {
    let id = GateId(idx);
    let gate = circuit.gate(id);
    let u = clark::max_n(
        gate.inputs
            .iter()
            .map(|&sig| arrival_of(sig, arrivals, input_arrivals)),
    )
    .expect("gates have at least one input");
    u + model.gate_delay(id, s)
}

/// The one full pass behind every `ssta*` entry point and
/// [`crate::IncrementalSsta`]'s start: [`gate_arrival`] per gate in id
/// order, appended to the (empty) `arrivals` in whichever layout the
/// caller keeps.
pub(crate) fn full_pass<A: ArrivalPush>(
    circuit: &Circuit,
    model: &DelayModel,
    s: &[f64],
    input_arrivals: Option<&[Normal]>,
    mut arrivals: A,
) -> A {
    for idx in 0..circuit.num_gates() {
        let a = gate_arrival(circuit, model, s, &arrivals, input_arrivals, idx);
        arrivals.push_arrival(a);
    }
    arrivals
}

/// Circuit delay from finished arrivals: the stochastic max over the
/// primary outputs, folded left in output-list order. Every analysis
/// entry point (and the incremental engine) shares this one fold so the
/// operand order — and therefore the bit pattern — cannot drift.
pub(crate) fn delay_from_arrivals<A: ArrivalRead + ?Sized>(
    circuit: &Circuit,
    arrivals: &A,
) -> Normal {
    clark::max_n(
        circuit
            .outputs()
            .iter()
            .map(|&o| arrivals.arrival(o.index())),
    )
    .expect("validated circuits have outputs")
}

/// Traditional deterministic STA: every gate contributes `mu_t + margin_k *
/// sigma_t` as a fixed delay and arrival times combine with the plain max.
///
/// `margin_k = 0` is "typical case"; `margin_k = 3` is the pessimistic
/// worst-case corner the paper argues statistical analysis should replace.
///
/// Returns the circuit delay (a plain number) and per-gate arrivals.
///
/// # Panics
///
/// Panics if `s.len() != circuit.num_gates()`.
pub fn sta_deterministic(
    circuit: &Circuit,
    lib: &Library,
    s: &[f64],
    margin_k: f64,
) -> (f64, Vec<f64>) {
    let model = DelayModel::new(circuit, lib);
    sta_deterministic_with_model(circuit, &model, s, margin_k)
}

/// [`sta_deterministic`] reusing a prebuilt [`DelayModel`].
///
/// # Panics
///
/// Panics if `s.len() != circuit.num_gates()`.
pub fn sta_deterministic_with_model(
    circuit: &Circuit,
    model: &DelayModel,
    s: &[f64],
    margin_k: f64,
) -> (f64, Vec<f64>) {
    assert_eq!(s.len(), circuit.num_gates(), "speed vector length mismatch");
    let mut arrivals: Vec<f64> = Vec::with_capacity(circuit.num_gates());
    for (id, gate) in circuit.gates() {
        let u = gate
            .inputs
            .iter()
            .map(|&sig| match sig {
                Signal::Pi(_) => 0.0,
                Signal::Gate(g) => arrivals[g.index()],
            })
            .fold(f64::NEG_INFINITY, f64::max);
        let d = model.gate_delay(id, s);
        arrivals.push(u + d.mean() + margin_k * d.sigma());
    }
    let delay = circuit
        .outputs()
        .iter()
        .map(|&o| arrivals[o.index()])
        .fold(f64::NEG_INFINITY, f64::max);
    (delay, arrivals)
}

/// Earliest-arrival statistical analysis: the dual of [`ssta`], folding
/// fan-ins with the stochastic **min** — what a hold-time / short-path
/// check needs. Returns per-gate earliest arrivals and the earliest
/// arrival over the primary outputs.
///
/// # Panics
///
/// Panics if `s.len() != circuit.num_gates()`.
pub fn ssta_earliest(circuit: &Circuit, lib: &Library, s: &[f64]) -> (Vec<Normal>, Normal) {
    assert_eq!(s.len(), circuit.num_gates(), "speed vector length mismatch");
    let model = DelayModel::new(circuit, lib);
    let mut arrivals: Vec<Normal> = Vec::with_capacity(circuit.num_gates());
    for (id, gate) in circuit.gates() {
        let u = clark::min_n(gate.inputs.iter().map(|&sig| match sig {
            Signal::Pi(_) => Normal::default(),
            Signal::Gate(g) => arrivals[g.index()],
        }))
        .expect("gates have at least one input");
        arrivals.push(u + model.gate_delay(id, s));
    }
    let earliest = clark::min_n(circuit.outputs().iter().map(|&o| arrivals[o.index()]))
        .expect("validated circuits have outputs");
    (arrivals, earliest)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgs_netlist::generate;

    fn lib() -> Library {
        Library::paper_default()
    }

    #[test]
    fn chain_delay_is_sum_of_gate_delays() {
        // A chain has no max operations beyond single-input folds, so the
        // statistical delay must be the exact sum of the gate delays.
        let c = generate::inverter_chain(10);
        let s = vec![1.0; 10];
        let model = DelayModel::new(&c, &lib());
        let report = ssta(&c, &lib(), &s);
        let mut want_mu = 0.0;
        let mut want_var = 0.0;
        for (id, _) in c.gates() {
            let d = model.gate_delay(id, &s);
            want_mu += d.mean();
            want_var += d.var();
        }
        assert!((report.delay.mean() - want_mu).abs() < 1e-9);
        assert!((report.delay.var() - want_var).abs() < 1e-9);
    }

    #[test]
    fn statistical_mean_between_typical_and_worst_case() {
        let c = generate::tree7();
        let s = vec![1.0; 7];
        let report = ssta(&c, &lib(), &s);
        let (typical, _) = sta_deterministic(&c, &lib(), &s, 0.0);
        let (worst3, _) = sta_deterministic(&c, &lib(), &s, 3.0);
        // The max operator pushes the statistical mean above the
        // deterministic typical case; the 3-sigma corner is far above both
        // the mean and the mean + 3 sigma of the true distribution (the
        // paper's pessimism argument).
        assert!(report.delay.mean() > typical);
        assert!(worst3 > report.mean_plus_k_sigma(3.0));
    }

    #[test]
    fn balanced_tree_bumps_mean_and_shrinks_sigma() {
        let c = generate::tree7();
        let s = vec![1.0; 7];
        let report = ssta(&c, &lib(), &s);
        // Relative uncertainty of the whole circuit is below the per-gate
        // 25% (the headline observation of the statistical delay papers).
        let rel = report.delay.sigma() / report.delay.mean();
        assert!(rel < 0.25, "relative sigma {rel} not reduced");
    }

    #[test]
    fn sizing_up_reduces_delay() {
        let c = generate::tree7();
        let all1 = vec![1.0; 7];
        let all3 = vec![3.0; 7];
        let d1 = ssta(&c, &lib(), &all1).delay;
        let d3 = ssta(&c, &lib(), &all3).delay;
        assert!(d3.mean() < d1.mean());
    }

    #[test]
    fn input_arrivals_shift_delay() {
        let c = generate::tree7();
        let s = vec![1.0; 7];
        let base = ssta(&c, &lib(), &s).delay;
        let late = vec![Normal::new(10.0, 0.0); c.num_inputs()];
        let shifted = ssta_with_arrivals(&c, &lib(), &s, Some(&late)).delay;
        assert!((shifted.mean() - base.mean() - 10.0).abs() < 1e-6);
    }

    #[test]
    fn arrivals_monotone_along_paths() {
        let c = generate::ripple_carry_adder(6);
        let s = vec![1.0; c.num_gates()];
        let r = ssta(&c, &lib(), &s);
        for (id, gate) in c.gates() {
            for &sig in &gate.inputs {
                if let Signal::Gate(src) = sig {
                    assert!(
                        r.arrivals[id.index()].mean() > r.arrivals[src.index()].mean(),
                        "arrival not increasing along {src} -> {id}"
                    );
                }
            }
        }
    }

    #[test]
    fn earliest_below_latest_everywhere() {
        let c = generate::ripple_carry_adder(5);
        let s = vec![1.0; c.num_gates()];
        let latest = ssta(&c, &lib(), &s);
        let (early, earliest) = ssta_earliest(&c, &lib(), &s);
        for (i, (e, l)) in early.iter().zip(&latest.arrivals).enumerate() {
            assert!(e.mean() <= l.mean() + 1e-9, "gate {i}");
        }
        assert!(earliest.mean() <= latest.delay.mean());
    }

    #[test]
    fn earliest_equals_latest_on_chain() {
        // A single path has no min/max choice: both analyses coincide.
        let c = generate::inverter_chain(7);
        let s = vec![1.4; 7];
        let latest = ssta(&c, &lib(), &s);
        let (_, earliest) = ssta_earliest(&c, &lib(), &s);
        assert!((earliest.mean() - latest.delay.mean()).abs() < 1e-9);
        assert!((earliest.var() - latest.delay.var()).abs() < 1e-9);
    }

    #[test]
    fn earliest_matches_monte_carlo() {
        use crate::monte_carlo;
        let c = generate::tree7();
        let s = vec![1.0; 7];
        let (_, earliest) = ssta_earliest(&c, &lib(), &s);
        // Sample the min-arrival directly.
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let model = DelayModel::new(&c, &lib());
        let dists: Vec<Normal> = c.gates().map(|(id, _)| model.gate_delay(id, &s)).collect();
        let mut rng = StdRng::seed_from_u64(55);
        let mut arr = [0.0; 7];
        let (m, v) = sgs_statmath::mc::moments((0..60_000).map(|_| {
            for (i, (_, gate)) in c.gates().enumerate() {
                let u = gate
                    .inputs
                    .iter()
                    .map(|&sig| match sig {
                        Signal::Pi(_) => 0.0,
                        Signal::Gate(g) => arr[g.index()],
                    })
                    .fold(f64::INFINITY, f64::min);
                arr[i] = u + sgs_statmath::mc::sample(dists[i], &mut rng);
            }
            arr[6]
        }));
        let _ = monte_carlo; // module used above for doc parity
        assert!(
            (earliest.mean() - m).abs() < 0.03 * m,
            "{} vs {m}",
            earliest.mean()
        );
        assert!(
            (earliest.var() - v).abs() < 0.15 * v,
            "{} vs {v}",
            earliest.var()
        );
    }

    /// Every arrival and the delay of a report, as bits.
    fn report_bits(r: &SstaReport) -> Vec<u64> {
        r.arrivals
            .iter()
            .chain([&r.delay])
            .flat_map(|a| [a.mean().to_bits(), a.var().to_bits()])
            .collect()
    }

    #[test]
    fn ssta_is_bitwise_ssta_with_model() {
        let circuits = [
            generate::tree7(),
            generate::fig2(),
            generate::ripple_carry_adder(6),
            generate::random_dag(&generate::RandomDagSpec {
                name: "held_model".to_string(),
                cells: 120,
                inputs: 12,
                depth: 9,
                seed: 5,
                ..Default::default()
            }),
        ];
        for c in &circuits {
            let n = c.num_gates();
            let model = DelayModel::new(c, &lib());
            let s: Vec<f64> = (0..n).map(|i| 1.0 + 0.137 * (i % 15) as f64).collect();
            let late: Vec<Normal> = (0..c.num_inputs())
                .map(|p| Normal::new(0.3 * p as f64, 0.1 + 0.05 * p as f64))
                .collect();
            for ia in [None, Some(late.as_slice())] {
                let fresh = ssta_with_arrivals(c, &lib(), &s, ia);
                let held = ssta_with_model_and_arrivals(c, &model, &s, ia);
                assert_eq!(report_bits(&fresh), report_bits(&held), "{}", c.name());
            }
            assert_eq!(
                report_bits(&ssta(c, &lib(), &s)),
                report_bits(&ssta_with_model(c, &model, &s)),
                "{}",
                c.name()
            );
        }
    }

    #[test]
    fn report_metric_consistent() {
        let c = generate::fig2();
        let s = vec![1.0; 4];
        let r = ssta(&c, &lib(), &s);
        assert!(
            (r.mean_plus_k_sigma(3.0) - (r.delay.mean() + 3.0 * r.delay.sigma())).abs() < 1e-12
        );
    }
}
