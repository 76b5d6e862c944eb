//! Robust sizing vs deterministic worst-case margins.
//!
//! The paper's motivation: traditional corner-based timing treats every
//! gate at its 3-sigma worst case simultaneously, which is far more
//! pessimistic than the statistics of a real path. This example sizes a
//! synthetic benchmark three ways and compares what each guarantees and
//! what each costs, with Monte Carlo as the referee:
//!
//! * minimum mean delay (ignores uncertainty),
//! * minimum `mu + 3 sigma` (the paper's statistical robust objective),
//! * a deterministic sizer that treats each gate delay as `mu + 3 sigma`
//!   (the worst-case-margin strategy the statistical method replaces).
//!
//! Run with `cargo run -p sgs-core --example robust_sizing --release`.

use sgs_core::{Objective, Sizer};
use sgs_netlist::generate::RandomDagSpec;
use sgs_netlist::{generate, Library};
use sgs_ssta::{monte_carlo, sta_deterministic, McOptions};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let circuit = generate::random_dag(&RandomDagSpec {
        name: "robust_demo".into(),
        cells: 200,
        inputs: 24,
        depth: 16,
        seed: 41,
        back_jump_pct: 85,
        spine_extra_load: 0.3,
    });
    let _ = generate::tree7(); // keep the module import obvious in docs
    let lib = Library::paper_default();
    println!("circuit: {circuit}");

    let mean_sized = Sizer::new(&circuit, &lib)
        .objective(Objective::MeanDelay)
        .solve()?;
    let robust_sized = Sizer::new(&circuit, &lib)
        .objective(Objective::MeanPlusKSigma(3.0))
        .solve()?;

    let mc_opts = McOptions {
        samples: 100_000,
        seed: 5,
        criticality: false,
        ..Default::default()
    };
    println!(
        "\n{:<22} {:>9} {:>9} {:>11} {:>9} | {:>14}",
        "sizing", "mu", "sigma", "mu+3sigma", "area", "P99.8 (MC)"
    );
    for (label, r) in [("min mu", &mean_sized), ("min mu + 3 sigma", &robust_sized)] {
        let mc = monte_carlo(&circuit, &lib, &r.s, &mc_opts);
        println!(
            "{:<22} {:>9.3} {:>9.3} {:>11.3} {:>9.1} | {:>14.4}",
            label,
            r.delay.mean(),
            r.delay.sigma(),
            r.mean_plus_k_sigma(3.0),
            r.area,
            mc.quantile(0.998)
        );
    }

    // What a deterministic worst-case margin predicts for the robust
    // sizing, vs what the statistics say.
    let (worst_case, _) = sta_deterministic(&circuit, &lib, &robust_sized.s, 3.0);
    let mc = monte_carlo(&circuit, &lib, &robust_sized.s, &mc_opts);
    println!(
        "\nfor the robust sizing: corner STA (every gate at +3 sigma) predicts {:.2};",
        worst_case
    );
    println!(
        "the statistical mu + 3 sigma bound is {:.2}; Monte Carlo's actual 99.8th",
        robust_sized.mean_plus_k_sigma(3.0)
    );
    println!(
        "percentile is {:.2}. The corner margin over-predicts by {:.1}%.",
        mc.quantile(0.998),
        100.0 * (worst_case - mc.quantile(0.998)) / mc.quantile(0.998)
    );
    Ok(())
}
