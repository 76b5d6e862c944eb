//! Gate sizing under a statistical delay model — the primary contribution
//! of *"Gate Sizing Using a Statistical Delay Model"* (Jacobs & Berkelaar,
//! DATE 2000), reimplemented in full.
//!
//! Given a combinational circuit, a sizable-gate library and an objective,
//! the crate assembles the paper's nonlinear program (Eq. 17/18):
//!
//! * one speed factor `S`, gate-delay moments `(mu_t, var_t)` and arrival
//!   moments `(mu_T, var_T)` per gate, plus one `(mu_U, var_U)` pair per
//!   internal node of each fan-in max tree,
//! * the multiplied-through delay equation `mu_t S = t_int S + c (C_load +
//!   sum C_in,j S_j)` (Eq. 15, kept this way to maximise linearity),
//! * the sigma model `var_t = (0.25 mu_t)^2` (Eq. 18e),
//! * stochastic-max equality constraints built on the analytical Clark
//!   moments with **exact first and second derivatives** (Eq. 18a/b),
//! * linear arrival-time additions (Eq. 18c),
//! * optional delay bounds or pins on `mu_Tmax` or `mu_Tmax + k
//!   sigma_Tmax` (slack variables turn inequalities into the
//!   bound-constrained equality form LANCELOT expects),
//!
//! and solves it with the augmented-Lagrangian / trust-region Newton-CG
//! solver of [`sgs_nlp`] — the same algorithm family as LANCELOT, which the
//! paper used. A reduced-space adjoint evaluator ([`reduced`]) provides
//! warm starts and an independent baseline, and a TILOS-style greedy
//! sensitivity sizer ([`greedy`]) supplies the classic pre-NLP comparison
//! point.
//!
//! # Quickstart
//!
//! ```
//! use sgs_core::{Objective, Sizer};
//! use sgs_netlist::{generate, Library};
//!
//! let circuit = generate::tree7();
//! let lib = Library::paper_default();
//! let result = Sizer::new(&circuit, &lib)
//!     .objective(Objective::MeanPlusKSigma(3.0))
//!     .solve()
//!     .expect("tree circuit sizing converges");
//! // Sizing for minimum mu + 3 sigma speeds the circuit up well below its
//! // unsized delay.
//! assert!(result.delay.mean() < 7.0);
//! ```

pub mod discrete;
pub mod greedy;
pub mod problem;
pub mod reduced;
pub mod resolve;
pub mod sizer;
pub mod spec;
pub mod sweep;

pub use problem::SizingProblem;
pub use resolve::{ResolveOutcome, Resolver, WhatIfReport};
pub use sizer::{Preflight, SizeError, Sizer, SizingResult, SolverChoice};
pub use spec::{DelaySpec, Objective};
pub use sweep::{
    corner_library, Corner, CornerFrontier, CornerTrace, Frontier, FrontierPoint, KPoint,
    SweepConfig, SweepEngine,
};
