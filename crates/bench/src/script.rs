//! Scripted what-if sessions: parsing and deterministic generation.
//!
//! A *script* is a sequence of perturbation steps; each step is a batch
//! of `(gate, speed-factor)` changes applied together. The `what_if`
//! binary replays scripts against the incremental SSTA engine, and
//! `tests/what_if_incremental.rs` draws its query sequences from
//! [`generated_steps`], so a generated session means the same thing in
//! either place.
//!
//! The JSON form is an array of steps, each one change object
//! `{"gate": <id>, "size": <speed factor>}` or an array of them.

use sgs_netlist::{Circuit, GateId, Library};
use sgs_trace::json::{parse_json, Json};

/// splitmix64 step — the repository's stock deterministic generator.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A uniform draw in `[0, 1)`.
pub fn unit(state: &mut u64) -> f64 {
    #[allow(clippy::cast_precision_loss)]
    let v = (splitmix64(state) >> 11) as f64 / (1u64 << 53) as f64;
    v
}

/// `n` deterministic single-gate perturbation steps: uniformly chosen
/// gates moved to uniform speed factors inside the library's size box.
#[must_use]
pub fn generated_steps(
    circuit: &Circuit,
    lib: &Library,
    n: usize,
    seed: u64,
) -> Vec<Vec<(GateId, f64)>> {
    let gates = circuit.num_gates();
    let mut state = seed ^ 0xD1B5_4A32_D192_ED03;
    (0..n)
        .map(|_| {
            #[allow(clippy::cast_possible_truncation)]
            let g = (splitmix64(&mut state) % gates as u64) as usize;
            let v = 1.0 + unit(&mut state) * (lib.s_limit - 1.0);
            vec![(GateId(g), v)]
        })
        .collect()
}

/// Parses a perturbation script: a JSON array of steps, each one change
/// object or an array of change objects.
///
/// # Errors
///
/// A description of the first structural problem: non-array root, missing
/// or non-numeric fields, out-of-range gate ids, sizes below 1 or
/// non-finite.
pub fn parse_script(text: &str, num_gates: usize) -> Result<Vec<Vec<(GateId, f64)>>, String> {
    let change = |v: &Json| -> Result<(GateId, f64), String> {
        let gate = v
            .get("gate")
            .and_then(Json::as_f64)
            .ok_or_else(|| "change needs a numeric \"gate\"".to_string())?;
        let size = v
            .get("size")
            .and_then(Json::as_f64)
            .ok_or_else(|| "change needs a numeric \"size\"".to_string())?;
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let gate = gate as usize;
        if gate >= num_gates {
            return Err(format!(
                "gate {gate} out of range (circuit has {num_gates})"
            ));
        }
        if !size.is_finite() || size < 1.0 {
            return Err(format!("size {size} must be finite and >= 1"));
        }
        Ok((GateId(gate), size))
    };
    let Json::Arr(steps) = parse_json(text)? else {
        return Err("script must be a JSON array of steps".to_string());
    };
    steps
        .iter()
        .map(|step| match step {
            Json::Arr(changes) => changes.iter().map(change).collect(),
            obj => Ok(vec![change(obj)?]),
        })
        .collect()
}

/// Renders a step list back to the JSON script form [`parse_script`]
/// accepts (each step an array of change objects). The round-trip is
/// exact: sizes print in shortest-round-trip form.
#[must_use]
pub fn render_script(steps: &[Vec<(GateId, f64)>]) -> String {
    use std::fmt::Write as _;
    let mut s = String::from("[");
    for (i, step) in steps.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push('[');
        for (j, (g, v)) in step.iter().enumerate() {
            if j > 0 {
                s.push(',');
            }
            let _ = write!(s, "{{\"gate\":{},\"size\":{v}}}", g.index());
        }
        s.push(']');
    }
    s.push(']');
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgs_netlist::generate;

    #[test]
    fn generated_steps_are_deterministic_and_in_box() {
        let c = generate::tree7();
        let lib = Library::paper_default();
        let a = generated_steps(&c, &lib, 50, 7);
        let b = generated_steps(&c, &lib, 50, 7);
        assert_eq!(a, b, "same seed, same steps");
        assert_ne!(a, generated_steps(&c, &lib, 50, 8), "seed matters");
        for step in &a {
            assert_eq!(step.len(), 1);
            let (g, v) = step[0];
            assert!(g.index() < c.num_gates());
            assert!((1.0..=lib.s_limit).contains(&v), "{v}");
        }
    }

    #[test]
    fn parses_single_and_batched_steps() {
        let steps = parse_script(
            r#"[{"gate":0,"size":2.0},[{"gate":1,"size":1.5},{"gate":2,"size":3.0}]]"#,
            7,
        )
        .unwrap();
        assert_eq!(
            steps,
            vec![
                vec![(GateId(0), 2.0)],
                vec![(GateId(1), 1.5), (GateId(2), 3.0)],
            ]
        );
    }

    #[test]
    fn rejects_malformed_scripts() {
        for (text, needle) in [
            (r#"{"gate":0,"size":2}"#, "array"),
            (r#"[{"size":2}]"#, "gate"),
            (r#"[{"gate":0}]"#, "size"),
            (r#"[{"gate":99,"size":2}]"#, "out of range"),
            (r#"[{"gate":0,"size":0.5}]"#, ">= 1"),
            (r#"[{"gate":0,"size":"NaN"}]"#, "finite"),
            ("not json", "byte"),
        ] {
            let err = parse_script(text, 7).unwrap_err();
            assert!(err.contains(needle), "script {text} gave {err:?}");
        }
    }

    #[test]
    fn render_round_trips_exactly() {
        let c = generate::tree7();
        let lib = Library::paper_default();
        let steps = generated_steps(&c, &lib, 20, 3);
        let text = render_script(&steps);
        let back = parse_script(&text, c.num_gates()).unwrap();
        assert_eq!(steps, back, "render/parse must be lossless");
    }
}
