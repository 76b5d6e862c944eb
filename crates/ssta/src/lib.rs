//! Statistical static timing analysis on sized gate-level circuits.
//!
//! Implements the timing machinery of the DATE 2000 statistical gate-sizing
//! paper (Sections 2–4):
//!
//! * [`delay`] — the sizable-gate delay model evaluated for a concrete
//!   vector of speed factors: `mu_t = t_int + c (C_load + sum C_in S_j) /
//!   S`, `sigma_t = 0.25 mu_t`;
//! * [`analysis`] — forward propagation of normal arrival times through the
//!   circuit DAG using the analytical stochastic max (paper Eq. 1–4 with
//!   Eqs. 10/12/13), plus the traditional deterministic STA the statistical
//!   treatment replaces;
//! * [`mod@monte_carlo`] — sampling-based timing used to validate the
//!   analytical analysis and to estimate yield (`P(delay <= T)`) and gate
//!   criticality;
//! * [`power`] — zero-delay switching activities and the linear power
//!   weights the paper's weighted-area objective uses to size for power;
//! * [`canonical`] — correlation-aware SSTA in canonical first-order form,
//!   implementing the paper's stated future work on reconvergent-path
//!   correlations;
//! * [`criticality`] — analytic path-criticality probabilities from Clark
//!   tightness, validated against Monte Carlo;
//! * [`incremental`] — dirty-cone re-propagation after size changes,
//!   bit-identical to a from-scratch run (the what-if query engine);
//! * [`soa`] — structure-of-arrays arrival storage shared by the full
//!   and incremental paths;
//! * [`wire`] — per-edge statistical wire delays, the paper's general
//!   delay model of Fig. 1 / Eq. 2.
//!
//! # Example
//!
//! ```
//! use sgs_netlist::{generate, Library};
//! use sgs_ssta::analysis;
//!
//! let circuit = generate::tree7();
//! let lib = Library::paper_default();
//! let s = vec![1.0; circuit.num_gates()];
//! let report = analysis::ssta(&circuit, &lib, &s);
//! assert!(report.delay.mean() > 0.0);
//! assert!(report.delay.sigma() > 0.0);
//! ```

pub mod analysis;
pub mod canonical;
pub mod criticality;
pub mod delay;
pub mod incremental;
pub mod levels;
pub mod monte_carlo;
pub mod power;
pub mod soa;
pub mod wire;

pub use analysis::{
    ssta, ssta_with_model, ssta_with_model_and_arrivals, sta_deterministic,
    sta_deterministic_with_model, SstaReport,
};
pub use delay::DelayModel;
pub use incremental::{IncrementalSsta, UpdateStats};
pub use levels::LevelSchedule;
pub use monte_carlo::{monte_carlo, monte_carlo_with_model, McOptions, McReport};
pub use soa::{ArrivalRead, ArrivalSoa};
