//! Monte Carlo timing: the ground truth the analytical SSTA approximates.
//!
//! Each trial draws an independent delay for every gate from its
//! `N(mu_t, sigma_t)` distribution and propagates exact (sample-wise) max
//! arrivals. The paper cites Monte Carlo as the accurate-but-too-slow
//! alternative that motivates the analytical treatment; here it validates
//! the analytical results and measures yield.
//!
//! # Parallel evaluation
//!
//! Trials are independent, so the sample loop parallelizes over chunks.
//! Every trial owns its own RNG stream seeded as a pure function of
//! `(opts.seed, sample_index)` — used by the sequential path too — so the
//! report is **bit-identical** regardless of thread count or whether the
//! parallel path ran at all. Chunks write circuit-delay samples into
//! disjoint slices of one preallocated buffer, and per-chunk criticality
//! counts (exact `u64` tallies) are merged by addition afterwards.

use crate::delay::DelayModel;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rayon::prelude::*;
use sgs_netlist::{Circuit, Gate, Library, Signal};
use sgs_statmath::{mc, Normal};

/// Trials per parallel work unit. Large enough to amortize per-chunk
/// scratch allocation and thread dispatch, small enough to load-balance.
const CHUNK: usize = 1024;

/// Options for [`monte_carlo`].
#[derive(Debug, Clone)]
pub struct McOptions {
    /// Number of trials.
    pub samples: usize,
    /// RNG seed (runs are deterministic given a seed, independent of
    /// thread count).
    pub seed: u64,
    /// Record per-gate criticality (fraction of trials in which the gate
    /// lies on the sample's critical path). Slightly slower.
    pub criticality: bool,
    /// Use the multi-threaded sample loop when more than one rayon
    /// thread is available. Results are bit-identical either way; this
    /// exists so benchmarks and tests can pin a specific path.
    pub parallel: bool,
}

impl Default for McOptions {
    fn default() -> Self {
        McOptions {
            samples: 20_000,
            seed: 0x5657,
            criticality: false,
            parallel: true,
        }
    }
}

/// Monte Carlo timing result.
#[derive(Debug, Clone)]
pub struct McReport {
    /// Sample mean and variance of the circuit delay.
    pub delay: Normal,
    /// Sorted circuit-delay samples (for quantiles / yield curves).
    samples: Vec<f64>,
    /// Per-gate criticality, if requested (else empty).
    pub criticality: Vec<f64>,
}

impl McReport {
    /// Fraction of trials meeting the deadline `t` — the quantity the
    /// paper's `mu + k sigma` constraints target (50% / 84.1% / 99.8% for
    /// k = 0 / 1 / 3).
    pub fn yield_at(&self, t: f64) -> f64 {
        let idx = self.samples.partition_point(|&x| x <= t);
        idx as f64 / self.samples.len() as f64
    }

    /// The empirical `p`-quantile of the circuit delay.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    pub fn quantile(&self, p: f64) -> f64 {
        assert!((0.0..=1.0).contains(&p), "probability out of range: {p}");
        let n = self.samples.len();
        let idx = ((p * n as f64) as usize).min(n - 1);
        self.samples[idx]
    }

    /// Number of trials.
    pub fn num_samples(&self) -> usize {
        self.samples.len()
    }

    /// The sorted circuit-delay samples.
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }
}

/// Seed for trial `idx`'s private RNG stream: the user seed XOR a
/// golden-ratio multiple of the index, decorrelated further by
/// `StdRng::seed_from_u64`'s SplitMix64 expansion. A pure function of
/// `(seed, idx)`, shared by the sequential and parallel paths.
#[inline]
fn trial_seed(seed: u64, idx: u64) -> u64 {
    seed ^ idx.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Per-worker scratch reused across the trials of one chunk.
struct Scratch {
    arrival: Vec<f64>,
    argmax: Vec<Option<usize>>,
}

impl Scratch {
    fn new(n: usize, criticality: bool) -> Self {
        Scratch {
            arrival: vec![0.0; n],
            argmax: vec![None; if criticality { n } else { 0 }],
        }
    }
}

/// Immutable trial context shared by every chunk worker: the flattened
/// topological gate order, output indices, per-gate delay distributions
/// and the run options.
#[derive(Clone, Copy)]
struct TrialCtx<'a> {
    gates: &'a [(usize, Gate)],
    outputs: &'a [usize],
    dists: &'a [Normal],
    opts: &'a McOptions,
}

/// Run trials `[chunk_start, chunk_start + out.len())`, writing each
/// trial's circuit delay into `out` and tallying criticality into
/// `crit_count` (length `num_gates` when enabled, else 0).
fn run_chunk(
    ctx: &TrialCtx<'_>,
    chunk_start: usize,
    out: &mut [f64],
    crit_count: &mut [u64],
    scratch: &mut Scratch,
) {
    let TrialCtx {
        gates,
        outputs,
        dists,
        opts,
    } = *ctx;
    let arrival = &mut scratch.arrival;
    let argmax = &mut scratch.argmax;
    for (k, slot) in out.iter_mut().enumerate() {
        let sample_idx = (chunk_start + k) as u64;
        let mut rng = StdRng::seed_from_u64(trial_seed(opts.seed, sample_idx));
        for &(i, ref gate) in gates {
            let mut u = f64::NEG_INFINITY;
            let mut from = None;
            for &sig in &gate.inputs {
                let a = match sig {
                    Signal::Pi(_) => 0.0,
                    Signal::Gate(g) => arrival[g.index()],
                };
                if a > u {
                    u = a;
                    from = match sig {
                        Signal::Pi(_) => None,
                        Signal::Gate(g) => Some(g.index()),
                    };
                }
            }
            arrival[i] = u + mc::sample(dists[i], &mut rng);
            if opts.criticality {
                argmax[i] = from;
            }
        }
        let (worst_gate, worst) = outputs.iter().map(|&o| (o, arrival[o])).fold(
            (usize::MAX, f64::NEG_INFINITY),
            |acc, x| {
                if x.1 > acc.1 {
                    x
                } else {
                    acc
                }
            },
        );
        *slot = worst;
        if opts.criticality {
            // Walk the sample's critical path back to the inputs.
            let mut g = Some(worst_gate);
            while let Some(i) = g {
                crit_count[i] += 1;
                g = argmax[i];
            }
        }
    }
}

/// Runs a Monte Carlo timing analysis of the circuit under speed factors
/// `s`. Equivalent to [`monte_carlo_with_model`] with a freshly built
/// [`DelayModel`].
///
/// # Panics
///
/// Panics if `s.len() != circuit.num_gates()` or `opts.samples == 0`.
pub fn monte_carlo(circuit: &Circuit, lib: &Library, s: &[f64], opts: &McOptions) -> McReport {
    let model = DelayModel::new(circuit, lib);
    monte_carlo_with_model(circuit, &model, s, opts)
}

/// Runs a Monte Carlo timing analysis reusing a prebuilt [`DelayModel`].
///
/// The report is a pure function of `(circuit, model, s, opts.samples,
/// opts.seed, opts.criticality)`: thread count and `opts.parallel` do not
/// change a single bit of the output.
///
/// # Panics
///
/// Panics if `s.len() != circuit.num_gates()` or `opts.samples == 0`.
pub fn monte_carlo_with_model(
    circuit: &Circuit,
    model: &DelayModel,
    s: &[f64],
    opts: &McOptions,
) -> McReport {
    assert_eq!(s.len(), circuit.num_gates(), "speed vector length mismatch");
    assert!(opts.samples > 0, "need at least one sample");
    sgs_metrics::incr(sgs_metrics::Counter::McRuns);
    sgs_metrics::add(sgs_metrics::Counter::McSamples, opts.samples as u64);
    let n = circuit.num_gates();
    // Precompute per-gate delay distributions once.
    let dists: Vec<Normal> = circuit
        .gates()
        .map(|(id, _)| model.gate_delay(id, s))
        .collect();
    // Materialize the topological gate order and output indices so chunk
    // workers iterate plain slices.
    let gates: Vec<(usize, Gate)> = circuit
        .gates()
        .map(|(id, g)| (id.index(), g.clone()))
        .collect();
    let outputs: Vec<usize> = circuit.outputs().iter().map(|o| o.index()).collect();
    let crit_len = if opts.criticality { n } else { 0 };

    let mut samples = vec![0.0f64; opts.samples];
    let use_parallel = opts.parallel && opts.samples > CHUNK && rayon::current_num_threads() > 1;
    let ctx = TrialCtx {
        gates: &gates,
        outputs: &outputs,
        dists: &dists,
        opts,
    };

    let chunk_counts: Vec<Vec<u64>> = if use_parallel {
        samples
            .par_chunks_mut(CHUNK)
            .enumerate()
            .map(|(ci, out)| {
                let mut crit_count = vec![0u64; crit_len];
                let mut scratch = Scratch::new(n, opts.criticality);
                run_chunk(&ctx, ci * CHUNK, out, &mut crit_count, &mut scratch);
                crit_count
            })
            .collect()
    } else {
        let mut scratch = Scratch::new(n, opts.criticality);
        let mut crit_count = vec![0u64; crit_len];
        for (ci, out) in samples.chunks_mut(CHUNK).enumerate() {
            run_chunk(&ctx, ci * CHUNK, out, &mut crit_count, &mut scratch);
        }
        vec![crit_count]
    };

    // Merge per-chunk criticality tallies; u64 addition is exact and
    // order-independent, so the merge is deterministic.
    let mut crit_count = vec![0u64; crit_len];
    for counts in &chunk_counts {
        for (total, c) in crit_count.iter_mut().zip(counts) {
            *total += c;
        }
    }

    // Moments over trial order (not sorted order) keep the accumulation
    // sequence fixed, so the floating-point result never depends on the
    // execution schedule.
    let (mean, var) = mc::moments(samples.iter().copied());
    samples.sort_by(f64::total_cmp);
    McReport {
        delay: Normal::from_mean_var(mean, var.max(0.0)),
        samples,
        criticality: crit_count
            .into_iter()
            .map(|c| c as f64 / opts.samples as f64)
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::ssta;
    use sgs_netlist::generate;

    fn lib() -> Library {
        Library::paper_default()
    }

    #[test]
    fn mc_agrees_with_analytical_ssta_on_tree() {
        let c = generate::tree7();
        let s = vec![1.0; 7];
        let analytical = ssta(&c, &lib(), &s).delay;
        let mc = monte_carlo(
            &c,
            &lib(),
            &s,
            &McOptions {
                samples: 60_000,
                seed: 1,
                criticality: false,
                ..Default::default()
            },
        );
        assert!(
            (mc.delay.mean() - analytical.mean()).abs() < 0.03 * analytical.mean(),
            "mean {} vs analytical {}",
            mc.delay.mean(),
            analytical.mean()
        );
        assert!(
            (mc.delay.sigma() - analytical.sigma()).abs() < 0.1 * analytical.sigma(),
            "sigma {} vs analytical {}",
            mc.delay.sigma(),
            analytical.sigma()
        );
    }

    #[test]
    fn mc_agrees_on_random_dag() {
        let c = generate::random_dag(&sgs_netlist::generate::RandomDagSpec {
            name: "mc".into(),
            cells: 120,
            inputs: 12,
            depth: 10,
            seed: 5,
            ..Default::default()
        });
        let s = vec![1.5; c.num_gates()];
        let analytical = ssta(&c, &lib(), &s).delay;
        let mc = monte_carlo(
            &c,
            &lib(),
            &s,
            &McOptions {
                samples: 40_000,
                seed: 2,
                criticality: false,
                ..Default::default()
            },
        );
        // Reconvergence makes the independence assumption approximate: the
        // analytical mean sits a few percent above the sampled truth on a
        // dense random DAG (correlated arrivals shrink the true max). The
        // paper reports small errors on real circuits; we accept < 8% here
        // and require the bias to be in the predicted (pessimistic)
        // direction.
        assert!(
            (mc.delay.mean() - analytical.mean()).abs() < 0.08 * analytical.mean(),
            "mean {} vs analytical {}",
            mc.delay.mean(),
            analytical.mean()
        );
        assert!(
            analytical.mean() > mc.delay.mean() - 0.01 * analytical.mean(),
            "independence approximation should not be optimistic"
        );
    }

    #[test]
    fn yield_matches_k_sigma_rule() {
        let c = generate::tree7();
        let s = vec![1.0; 7];
        let analytical = ssta(&c, &lib(), &s).delay;
        let mc = monte_carlo(
            &c,
            &lib(),
            &s,
            &McOptions {
                samples: 60_000,
                seed: 3,
                criticality: false,
                ..Default::default()
            },
        );
        // Paper: mu covers ~50%, mu + sigma ~84.1%, mu + 3 sigma ~99.8%.
        let y0 = mc.yield_at(analytical.mean());
        let y1 = mc.yield_at(analytical.mean_plus_k_sigma(1.0));
        let y3 = mc.yield_at(analytical.mean_plus_k_sigma(3.0));
        assert!((y0 - 0.5).abs() < 0.05, "yield at mu: {y0}");
        assert!((y1 - 0.841).abs() < 0.04, "yield at mu+sigma: {y1}");
        assert!(y3 > 0.99, "yield at mu+3sigma: {y3}");
    }

    #[test]
    fn quantiles_sorted_and_consistent() {
        let c = generate::fig2();
        let s = vec![1.0; 4];
        let mc = monte_carlo(&c, &lib(), &s, &McOptions::default());
        assert!(mc.quantile(0.1) <= mc.quantile(0.5));
        assert!(mc.quantile(0.5) <= mc.quantile(0.9));
        let q = mc.quantile(0.75);
        let y = mc.yield_at(q);
        assert!((y - 0.75).abs() < 0.01);
    }

    #[test]
    fn criticality_concentrates_on_output_gate() {
        let c = generate::tree7();
        let s = vec![1.0; 7];
        let mc = monte_carlo(
            &c,
            &lib(),
            &s,
            &McOptions {
                samples: 5_000,
                seed: 4,
                criticality: true,
                ..Default::default()
            },
        );
        // G (index 6) is on every critical path.
        assert!((mc.criticality[6] - 1.0).abs() < 1e-12);
        // The four leaves split the path roughly evenly.
        let leaf_sum: f64 = [0usize, 1, 3, 4].iter().map(|&i| mc.criticality[i]).sum();
        assert!(
            (leaf_sum - 1.0).abs() < 0.05,
            "leaf criticality sum {leaf_sum}"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let c = generate::fig2();
        let s = vec![2.0; 4];
        let a = monte_carlo(&c, &lib(), &s, &McOptions::default());
        let b = monte_carlo(&c, &lib(), &s, &McOptions::default());
        assert_eq!(a.delay, b.delay);
    }
}
