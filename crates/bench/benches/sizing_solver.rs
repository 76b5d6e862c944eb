//! End-to-end sizing solver benchmarks: full-space (paper's formulation,
//! LANCELOT-family solver) vs reduced-space (adjoint + projected
//! truncated Newton)
//! across circuit sizes — the ablation behind the repository's solver
//! architecture — plus NLP-problem assembly and derivative evaluation
//! costs.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sgs_core::problem::SizingProblem;
use sgs_core::{DelaySpec, Objective, Sizer, SolverChoice};
use sgs_netlist::generate::{self, RandomDagSpec};
use sgs_netlist::Library;
use sgs_nlp::NlpProblem;

fn circuit(cells: usize) -> sgs_netlist::Circuit {
    generate::random_dag(&RandomDagSpec {
        name: format!("solve{cells}"),
        cells,
        inputs: 24,
        depth: (cells / 8).max(4),
        seed: 13,
        back_jump_pct: 85,
        spine_extra_load: 0.3,
    })
}

fn bench_solvers(c: &mut Criterion) {
    let lib = Library::paper_default();
    let mut g = c.benchmark_group("sizing_solve");
    g.sample_size(10);
    for cells in [30usize, 120] {
        let circ = circuit(cells);
        g.bench_with_input(BenchmarkId::new("full_space", cells), &cells, |b, _| {
            b.iter(|| {
                Sizer::new(&circ, &lib)
                    .objective(Objective::MeanPlusKSigma(3.0))
                    .solver(SolverChoice::FullSpace)
                    .solve()
                    .expect("sizes")
            })
        });
        g.bench_with_input(BenchmarkId::new("reduced_space", cells), &cells, |b, _| {
            b.iter(|| {
                Sizer::new(&circ, &lib)
                    .objective(Objective::MeanPlusKSigma(3.0))
                    .solver(SolverChoice::ReducedSpace)
                    .solve()
                    .expect("sizes")
            })
        });
    }
    g.finish();
}

fn bench_problem_eval(c: &mut Criterion) {
    let lib = Library::paper_default();
    let circ = circuit(400);
    let p = SizingProblem::build(&circ, &lib, Objective::MeanPlusKSigma(3.0), DelaySpec::None);
    let x = p.initial_point(&vec![1.5; 400]);
    let jn = p.jacobian_structure().len();
    let hn = p.hessian_structure().len();
    let m = p.num_constraints();
    let lambda = vec![0.5; m];

    let mut g = c.benchmark_group("nlp_eval_400_cells");
    g.bench_function("build", |b| {
        b.iter(|| {
            SizingProblem::build(&circ, &lib, Objective::MeanPlusKSigma(3.0), DelaySpec::None)
        })
    });
    g.bench_function("constraints", |b| {
        let mut cvals = vec![0.0; m];
        b.iter(|| p.constraints(&x, &mut cvals))
    });
    g.bench_function("jacobian", |b| {
        let mut vals = vec![0.0; jn];
        b.iter(|| p.jacobian_values(&x, &mut vals))
    });
    g.bench_function("hessian", |b| {
        let mut vals = vec![0.0; hn];
        b.iter(|| p.hessian_values(&x, 1.0, &lambda, &mut vals))
    });
    g.finish();
}

criterion_group!(benches, bench_solvers, bench_problem_eval);
criterion_main!(benches);
