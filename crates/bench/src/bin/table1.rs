//! Regenerates **Table 1** of the paper: statistical sizing of the three
//! large benchmark circuits (apex1 = 982 cells, apex2 = 117 cells,
//! k2 = 1692 cells) under seven objective/constraint combinations.
//!
//! The original MCNC netlists are not redistributable, so seeded synthetic
//! circuits matched in cell count and logic depth stand in (see
//! `DESIGN.md`). Delay bounds are remapped so they sit at the same
//! relative position inside the achievable mean-delay range
//! `[min mu, unsized mu]` as the paper's bounds sit in *its* range — our
//! library's absolute delays and our synthetic circuits' speed-up ratios
//! differ from the paper's, and an absolute or unsized-ratio scaling can
//! land outside the feasible range entirely.
//!
//! Run with `cargo run -p sgs-bench --bin table1 --release` (about 14 s
//! for all three circuits on a 2-vCPU host, most of it in k2's min rows;
//! pass a circuit name to run one). `results_table1.txt` holds its
//! output.

use sgs_bench::{print_table, BenchArgs, Row};
use sgs_core::{DelaySpec, Objective, Sizer};
use sgs_netlist::{generate, Library};

struct PaperRef {
    d: f64,
    // (mu, sigma, sum S) per row, paper Table 1.
    rows: [(f64, f64, f64); 7],
}

fn paper_ref(name: &str) -> PaperRef {
    match name {
        "apex1" => PaperRef {
            d: 120.0,
            rows: [
                (173.72, 5.867, 982.0),
                (73.21, 2.099, 1989.0),
                (73.26, 1.972, 1949.0),
                (73.57, 1.701, 1843.0),
                (120.00, 2.950, 998.0),
                (117.16, 2.842, 1001.0),
                (112.07, 2.645, 1007.0),
            ],
        },
        "apex2" => PaperRef {
            d: 29.0,
            rows: [
                (31.50, 1.784, 117.0),
                (23.45, 1.419, 304.0),
                (23.48, 1.373, 294.0),
                (23.79, 1.202, 279.0),
                (29.00, 1.488, 123.0),
                (27.64, 1.365, 131.0),
                (25.47, 1.176, 154.0),
            ],
        },
        "k2" => PaperRef {
            d: 120.0,
            rows: [
                (183.98, 3.281, 1692.0),
                (75.00, 1.293, 3750.0),
                (75.02, 1.228, 3690.0),
                (75.23, 1.120, 3596.0),
                (120.00, 1.829, 1794.0),
                (118.27, 1.744, 1801.0),
                (115.10, 1.637, 1814.0),
            ],
        },
        other => panic!("unknown benchmark {other}"),
    }
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let bench = BenchArgs::extract("table1", &mut args).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2)
    });
    let trace = bench.trace();
    if let Some(flag) = args.iter().find(|a| a.starts_with("--")) {
        eprintln!("unknown argument: {flag}");
        eprintln!(
            "usage: table1 [CIRCUIT] [--trace=FILE] [--metrics=FILE] \
             [--metrics-prom=FILE] [--threads=N]"
        );
        std::process::exit(2);
    }
    let only: Option<String> = args.first().cloned();
    let lib = Library::paper_default();

    for circuit in generate::benchmark_suite() {
        if let Some(name) = &only {
            if circuit.name() != name {
                continue;
            }
        }
        let pref = paper_ref(circuit.name());
        let n = circuit.num_gates();
        let base = sgs_ssta::ssta(&circuit, &lib, &vec![1.0; n]);

        let mut rows = Vec::new();
        rows.push(Row {
            minimize: "min sum S".into(),
            constraint: String::new(),
            mu: base.delay.mean(),
            sigma: base.delay.sigma(),
            sum_s: n as f64,
            cpu: None,
            paper: Some(pref.rows[0]),
        });

        let mut run = |obj: Objective, spec: DelaySpec, label: (&str, String), paper| {
            let mut sizer = Sizer::new(&circuit, &lib).objective(obj).delay_spec(spec);
            if let Some(sink) = trace.sink() {
                sizer = sizer.trace(sink);
            }
            let r = sizer
                .solve()
                .expect("benchmark sizing produces a usable point");
            trace.report_with_evals(
                &format!("{}/{}", circuit.name(), label.0),
                "ok",
                r.objective,
                r.delay.mean(),
                r.delay.sigma(),
                r.area,
                r.evals.into(),
            );
            rows.push(Row {
                minimize: label.0.to_string(),
                constraint: label.1,
                mu: r.delay.mean(),
                sigma: r.delay.sigma(),
                sum_s: r.area,
                cpu: Some(r.seconds),
                paper,
            });
            r.delay.mean()
        };

        let mu_min = run(
            Objective::MeanDelay,
            DelaySpec::None,
            ("min mu", String::new()),
            Some(pref.rows[1]),
        );
        // Place the deadline at the paper's relative position in the
        // feasible mean-delay range: frac = (D - mu_min) / (mu_unsized -
        // mu_min), taken from the paper's own numbers (rows 1 and 2).
        let frac = (pref.d - pref.rows[1].0) / (pref.rows[0].0 - pref.rows[1].0);
        let d = mu_min + frac * (base.delay.mean() - mu_min);
        run(
            Objective::MeanPlusKSigma(1.0),
            DelaySpec::None,
            ("min mu + sigma", String::new()),
            Some(pref.rows[2]),
        );
        run(
            Objective::MeanPlusKSigma(3.0),
            DelaySpec::None,
            ("min mu + 3 sigma", String::new()),
            Some(pref.rows[3]),
        );
        run(
            Objective::Area,
            DelaySpec::MaxMean(d),
            ("min sum S", format!("mu <= {d:.1}")),
            Some(pref.rows[4]),
        );
        run(
            Objective::Area,
            DelaySpec::MaxMeanPlusKSigma { k: 1.0, d },
            ("min sum S", format!("mu + sigma <= {d:.1}")),
            Some(pref.rows[5]),
        );
        run(
            Objective::Area,
            DelaySpec::MaxMeanPlusKSigma { k: 3.0, d },
            ("min sum S", format!("mu + 3 sigma <= {d:.1}")),
            Some(pref.rows[6]),
        );

        print_table(
            &format!(
                "Table 1 [{}]: {} cells, depth {}, deadline scaled {} -> {:.1}",
                circuit.name(),
                n,
                circuit.depth(),
                pref.d,
                d
            ),
            &rows,
        );
    }
    let circuits = only.unwrap_or_else(|| "apex1+apex2+k2".to_string());
    if let Err(e) = bench.finish(&circuits) {
        eprintln!("{e}");
        std::process::exit(1);
    }
}
