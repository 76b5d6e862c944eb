//! Large-scale nonlinear programming in the LANCELOT family.
//!
//! The DATE 2000 statistical gate-sizing paper solves its sizing
//! formulations with LANCELOT (Conn, Gould & Toint), a Fortran package
//! built around an **augmented Lagrangian** outer loop and a
//! **bound-constrained trust-region Newton-CG** inner solver. That package
//! (and a Rust binding for a comparable solver such as IPOPT) is not
//! available here, so this crate implements the same algorithm family from
//! scratch:
//!
//! * [`problem`] — the problem trait: smooth objective, equality
//!   constraints, simple bounds, sparse Jacobian and sparse Lagrangian
//!   Hessian with **exact first and second derivatives** (the paper's whole
//!   point is that the statistical delay model admits them);
//! * [`sparse`] — triplet/CSR kernels for Jacobian and Hessian products;
//! * [`tr`] — bound-constrained trust-region Newton-CG (projected
//!   Steihaug-Toint), the SBMIN-style inner minimiser;
//! * [`auglag`] — the augmented-Lagrangian outer loop with
//!   Conn-Gould-Toint multiplier/penalty schedules;
//! * [`newton`] — a projected truncated-Newton bound-constrained solver
//!   used for reduced-space (variable-eliminated) formulations, which
//!   seed the full-space solves;
//! * [`test_problems`] — classic problems (Rosenbrock, Hock-Schittkowski
//!   instances) with known optima used by the test-suite and benches.
//!
//! # Example: equality-constrained minimisation
//!
//! ```
//! use sgs_nlp::auglag::{solve, AugLagOptions};
//! use sgs_nlp::test_problems::Hs6;
//!
//! let result = solve(&Hs6, &[-1.2, 1.0], &AugLagOptions::default());
//! assert!(result.status.is_success());
//! assert!((result.x[0] - 1.0).abs() < 1e-4);
//! assert!((result.x[1] - 1.0).abs() < 1e-4);
//! ```

pub mod auglag;
pub mod cache;
pub mod newton;
pub mod problem;
pub mod sparse;
pub mod test_problems;
pub mod tr;

pub use auglag::{
    solve, solve_cached, solve_warm, solve_warm_traced, AugLagOptions, SolveResult, SolveStatus,
    WarmStart,
};
pub use cache::{CachedProblem, EvalCounts};
pub use problem::NlpProblem;
