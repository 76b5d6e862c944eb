//! Pre-solve static analyzer for statistical gate sizing (`sgs-analyze`).
//!
//! Before the NLP solver of [`sgs_core`] takes a single iteration, this
//! crate proves — or refutes — three families of properties about a
//! sizing task, reporting structured [`Diagnostic`]s:
//!
//! 1. **Structural lints** ([`stage1`]): combinational cycles (with a
//!    cycle witness), dangling/undriven nets, multiply-driven nets,
//!    duplicate gate names, gates unreachable from any primary input or
//!    unobservable at any primary output, zero-fanout internal gates, and
//!    library entries with non-positive `c` / `C_in` coefficients.
//! 2. **Numerical safety** ([`stage2`]): interval arithmetic with outward
//!    rounding ([`sgs_statmath::interval`]) propagates the feasible size
//!    box `[S_min, S_max]` through the delay model and the arrival-time
//!    recurrences, proving that no reachable point divides by (near)
//!    zero, feeds a negative variance into a square root, or overflows
//!    the NLP's scaling assumptions.
//! 3. **Derivative structure** ([`stage3`]): the Jacobian and Hessian
//!    sparsity patterns *declared* by [`sgs_core::SizingProblem`] are
//!    cross-checked against the nonzeros actually discovered by
//!    finite-difference probing at deterministic sample points.
//!
//! The analyzer is surfaced three ways: the `analyze_blif` binary in
//! `sgs-bench`, the `--analyze[=deny]` pre-solve gate of `size_blif`
//! (wired through [`AnalyzerGate`], an implementation of
//! [`sgs_core::Preflight`]), and a CI step that fails on any
//! [`Severity::Error`] finding over the committed benchmarks.
//!
//! # Diagnostic codes
//!
//! | Code | Severity | Meaning |
//! |------|----------|---------|
//! | `SGS-S001` | Error | combinational cycle (witness attached) |
//! | `SGS-S002` | Error | undriven net feeds a gate |
//! | `SGS-S003` | Error | multiply-driven net |
//! | `SGS-S004` | Error | duplicate gate / net name |
//! | `SGS-S005` | Error | primary output never defined |
//! | `SGS-S006` | Warning | gate unreachable from every primary input |
//! | `SGS-S007` | Warning | gate not observable at any primary output |
//! | `SGS-S008` | Warning | zero-fanout internal gate |
//! | `SGS-S009` | Error | non-positive library `c` / `C_in` coefficient |
//! | `SGS-S010` | Error | netlist failed to parse (unsupported construct) |
//! | `SGS-N001` | Error | size lower bound within `div_eps` of zero — division unsafe |
//! | `SGS-N002` | Error | variance interval reaching below zero feeds a `sqrt` |
//! | `SGS-N003` | Error/Warning/Info | `mu`/`sigma` enclosure non-finite (Error) or exceeding scaling thresholds (Warning/Info) |
//! | `SGS-N004` | Info | Clark variance clamp reachable inside the size box |
//! | `SGS-D001` | Warning | declared Jacobian entry identically zero at all probes |
//! | `SGS-D002` | Error | actual Jacobian nonzero missing from declared pattern |
//! | `SGS-D003` | Error | actual Hessian nonzero missing from declared pattern |
//! | `SGS-D004` | Warning | declared Hessian entry identically zero at all probes |
//! | `SGS-D005` | Info | derivative verification skipped (problem above `max_derivative_vars`) |
//!
//! Severity policy: **Error** means *provably broken* — the finding
//! holds at every point of the size box (a cycle, an undriven net, a
//! division by zero, a missing Jacobian entry). A failed proof that is
//! not a proven failure — e.g. a magnitude enclosure inflated by
//! interval dependency widening on deep reconvergent circuits — is at
//! most a **Warning**. Only Errors block a denying [`AnalyzerGate`].

use sgs_core::{DelaySpec, Objective, Preflight};
use sgs_metrics::Phase;
use sgs_netlist::{blif, Circuit, Library, NetlistError};
use sgs_trace::Tracer;
use std::fmt;

pub mod stage1;
pub mod stage2;
pub mod stage3;

pub use stage2::IntervalSsta;

/// How bad a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Informational: worth knowing, never blocks a solve.
    Info,
    /// Suspicious but not provably wrong; never blocks a solve.
    Warning,
    /// Provably broken input or formulation; a denying gate refuses it.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        })
    }
}

/// One analyzer finding.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// How bad it is.
    pub severity: Severity,
    /// Stable machine-readable code (`SGS-S001` ...), see the crate docs.
    pub code: &'static str,
    /// Where: a gate, net, constraint index or library entry.
    pub location: String,
    /// Human-readable one-line description.
    pub message: String,
    /// Structured key/value payload (intervals, indices, witnesses).
    pub data: Vec<(&'static str, String)>,
}

impl Diagnostic {
    /// Serialises the diagnostic as a single JSON object (one JSONL line,
    /// following the `sgs-trace` convention of a top-level `"event"` tag).
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\"event\":\"diagnostic\"");
        let field = |s: &mut String, k: &str, v: &str| {
            s.push_str(",\"");
            s.push_str(k);
            s.push_str("\":");
            push_json_string(s, v);
        };
        field(&mut s, "severity", &self.severity.to_string());
        field(&mut s, "code", self.code);
        field(&mut s, "location", &self.location);
        field(&mut s, "message", &self.message);
        s.push_str(",\"data\":{");
        for (i, (k, v)) in self.data.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            push_json_string(&mut s, k);
            s.push(':');
            push_json_string(&mut s, v);
        }
        s.push_str("}}");
        s
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} [{}] {}: {}",
            self.severity, self.code, self.location, self.message
        )?;
        for (k, v) in &self.data {
            write!(f, "\n    {k}: {v}")?;
        }
        Ok(())
    }
}

/// Minimal JSON string escaping (mirrors `sgs-trace`'s writer).
fn push_json_string(out: &mut String, s: &str) {
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// The full result of an analyzer run.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// All findings, in stage order.
    pub diagnostics: Vec<Diagnostic>,
}

impl Report {
    /// Findings with [`Severity::Error`].
    pub fn errors(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
    }

    /// Number of error findings.
    pub fn num_errors(&self) -> usize {
        self.errors().count()
    }

    /// Number of warning findings.
    pub fn num_warnings(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Warning)
            .count()
    }

    /// Whether the task is clean: **no Error findings** (warnings and
    /// infos are allowed — e.g. `SGS-N004` fires on most circuits because
    /// interval enclosures cannot rule the runtime variance clamp out).
    pub fn is_clean(&self) -> bool {
        self.num_errors() == 0
    }

    /// Whether any finding carries the given code.
    pub fn has_code(&self, code: &str) -> bool {
        self.diagnostics.iter().any(|d| d.code == code)
    }

    /// One JSONL line per diagnostic (parseable by
    /// `sgs_trace::json::validate_jsonl`).
    pub fn to_jsonl(&self) -> String {
        let mut s = String::new();
        for d in &self.diagnostics {
            s.push_str(&d.to_json());
            s.push('\n');
        }
        s
    }

    /// Short one-line summary, used by [`AnalyzerGate`] as the refusal
    /// reason.
    pub fn summary(&self) -> String {
        let first = self
            .errors()
            .next()
            .map(|d| format!("; first: [{}] {}", d.code, d.message))
            .unwrap_or_default();
        format!(
            "{} error(s), {} warning(s){}",
            self.num_errors(),
            self.num_warnings(),
            first
        )
    }

    fn extend(&mut self, more: Vec<Diagnostic>) {
        self.diagnostics.extend(more);
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for d in &self.diagnostics {
            writeln!(f, "{d}")?;
        }
        write!(f, "{}", self.summary())
    }
}

/// Tuning knobs for an analyzer run.
#[derive(Debug, Clone)]
pub struct AnalyzerOptions {
    /// Lower end of the size box (the paper fixes `S >= 1`).
    pub s_min: f64,
    /// Upper end of the size box; `None` uses the library's `s_limit`.
    pub s_max: Option<f64>,
    /// A size lower bound at or below this raises `SGS-N001`.
    pub div_eps: f64,
    /// `mu`/`sigma` enclosure magnitude raising an `SGS-N003` info note.
    pub mag_warn: f64,
    /// `mu`/`sigma` enclosure magnitude raising an `SGS-N003` warning
    /// (non-finite enclosures are the Error case).
    pub mag_err: f64,
    /// Smoothing floor of the Clark max, mirroring the solver's.
    pub clark_eps: f64,
    /// Model the runtime non-negativity clamp on Clark variances. With
    /// `false` the analyzer must prove `theta^2 > 0` from the raw
    /// enclosures alone, which surfaces `SGS-N002` on reconvergent logic.
    pub assume_runtime_clamps: bool,
    /// Run stage 1 (structural lints).
    pub structural: bool,
    /// Run stage 2 (interval safety proofs).
    pub intervals: bool,
    /// Run stage 3 (derivative-structure probing).
    pub derivatives: bool,
    /// Number of deterministic sample points for stage 3.
    pub probe_points: usize,
    /// Skip stage 3 — with an `SGS-D005` note — when the NLP has more
    /// variables than this: blind finite-difference probing is
    /// `O(vars * constraints)` per point by design (independence from the
    /// declared pattern is the whole guarantee) and takes minutes on
    /// 1000+-gate circuits.
    pub max_derivative_vars: usize,
}

impl Default for AnalyzerOptions {
    fn default() -> Self {
        AnalyzerOptions {
            s_min: 1.0,
            s_max: None,
            div_eps: 1e-9,
            mag_warn: 1e8,
            mag_err: 1e12,
            clark_eps: sgs_statmath::clark::DEFAULT_EPS,
            assume_runtime_clamps: true,
            structural: true,
            intervals: true,
            derivatives: true,
            probe_points: 3,
            max_derivative_vars: 1500,
        }
    }
}

/// Runs all enabled stages over an already-elaborated circuit, timing
/// the run and each stage as phases to `tracer`.
///
/// Stage 2 and stage 3 build the same [`sgs_core::SizingProblem`] the
/// solver would, so constraint indices in the diagnostics match the
/// solver's formulation exactly.
pub fn analyze(
    circuit: &Circuit,
    lib: &Library,
    objective: &Objective,
    delay_spec: &DelaySpec,
    opts: &AnalyzerOptions,
    tracer: Tracer<'_>,
) -> Report {
    let _phase = sgs_metrics::phase(tracer, Phase::Analyze);
    sgs_metrics::incr(sgs_metrics::Counter::AnalyzeRuns);
    let mut report = Report::default();
    if opts.structural {
        let _ph = sgs_metrics::phase(tracer, Phase::AnalyzeLints);
        report.extend(stage1::circuit_lints(circuit, lib));
    }
    // A structurally broken library would poison the numeric stages with
    // the very non-finite values they exist to flag; stop at the lints.
    if !report.is_clean() {
        record_findings(&report);
        return report;
    }
    let problem =
        sgs_core::SizingProblem::build(circuit, lib, objective.clone(), delay_spec.clone());
    if opts.intervals {
        let _ph = sgs_metrics::phase(tracer, Phase::AnalyzeIntervals);
        report.extend(stage2::interval_checks(circuit, lib, &problem, opts));
    }
    if opts.derivatives {
        let _ph = sgs_metrics::phase(tracer, Phase::AnalyzeDerivatives);
        let nv = sgs_nlp::NlpProblem::num_vars(&problem);
        if nv > opts.max_derivative_vars {
            report.diagnostics.push(Diagnostic {
                severity: Severity::Info,
                code: "SGS-D005",
                location: "derivative verification".to_string(),
                message: format!(
                    "skipped: {nv} variables exceed max_derivative_vars = {}",
                    opts.max_derivative_vars
                ),
                data: vec![("vars", nv.to_string())],
            });
        } else {
            report.extend(stage3::verify_derivatives(&problem, opts));
        }
    }
    record_findings(&report);
    report
}

/// Folds a finished report's finding counts into the metrics registry.
fn record_findings(report: &Report) {
    sgs_metrics::add(
        sgs_metrics::Counter::AnalyzeErrors,
        report.num_errors() as u64,
    );
    sgs_metrics::add(
        sgs_metrics::Counter::AnalyzeWarnings,
        report.num_warnings() as u64,
    );
}

/// Runs the analyzer over raw BLIF text: the tolerant stage-1 scanner
/// first (it reports *all* structural issues, not just the first), then —
/// if the netlist elaborates — the circuit-level stages of [`analyze`],
/// timed to `tracer`.
pub fn analyze_blif_text(
    text: &str,
    lib: &Library,
    objective: &Objective,
    delay_spec: &DelaySpec,
    opts: &AnalyzerOptions,
    tracer: Tracer<'_>,
) -> Report {
    let mut report = Report::default();
    if opts.structural {
        report.extend(stage1::raw_netlist_lints(text));
    }
    match blif::parse(text) {
        Ok(circuit) => {
            let mut inner = analyze(&circuit, lib, objective, delay_spec, opts, tracer);
            report.diagnostics.append(&mut inner.diagnostics);
        }
        Err(err) => {
            // The raw scanner covers the common structural failures with
            // richer context; only surface a parse error it did not.
            if report.is_clean() {
                report.diagnostics.push(Diagnostic {
                    severity: Severity::Error,
                    code: "SGS-S010",
                    location: "netlist".to_string(),
                    message: format!("netlist failed to parse: {err}"),
                    data: vec![("error", parse_error_kind(&err).to_string())],
                });
            }
        }
    }
    report
}

fn parse_error_kind(err: &NetlistError) -> &'static str {
    match err {
        NetlistError::Cycle(_) => "cycle",
        NetlistError::Parse(_) => "parse",
        NetlistError::DuplicateName(_) => "duplicate",
        _ => "other",
    }
}

/// A [`Preflight`] implementation wiring the analyzer in front of
/// [`sgs_core::Sizer::solve`]: with `deny` set, any Error finding makes
/// the sizer refuse to start
/// ([`sgs_core::SizeError::PreflightFailed`]); otherwise findings are
/// only printed (to stderr, when `verbose`).
#[derive(Debug, Clone, Default)]
pub struct AnalyzerGate {
    /// Analyzer tuning.
    pub options: AnalyzerOptions,
    /// Refuse the solve on Error findings.
    pub deny: bool,
    /// Print every finding to stderr.
    pub verbose: bool,
}

impl AnalyzerGate {
    /// A denying gate with default options.
    pub fn denying() -> Self {
        AnalyzerGate {
            deny: true,
            ..Self::default()
        }
    }
}

impl Preflight for AnalyzerGate {
    fn check(
        &self,
        circuit: &Circuit,
        lib: &Library,
        objective: &Objective,
        delay_spec: &DelaySpec,
        tracer: Tracer<'_>,
    ) -> Result<(), String> {
        let report = analyze(circuit, lib, objective, delay_spec, &self.options, tracer);
        if self.verbose && !report.diagnostics.is_empty() {
            eprintln!("{report}");
        }
        if self.deny && !report.is_clean() {
            return Err(report.summary());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diag() -> Diagnostic {
        Diagnostic {
            severity: Severity::Error,
            code: "SGS-S001",
            location: "gate `a`".into(),
            message: "combinational cycle".into(),
            data: vec![("cycle", "a -> b -> a".into())],
        }
    }

    #[test]
    fn severity_orders() {
        assert!(Severity::Error > Severity::Warning);
        assert!(Severity::Warning > Severity::Info);
    }

    #[test]
    fn diagnostic_json_shape() {
        let j = diag().to_json();
        assert!(j.starts_with("{\"event\":\"diagnostic\""));
        assert!(j.contains("\"code\":\"SGS-S001\""));
        assert!(j.contains("\"cycle\":\"a -> b -> a\""));
    }

    #[test]
    fn jsonl_passes_trace_validator() {
        let mut r = Report::default();
        r.diagnostics.push(diag());
        r.diagnostics.push(Diagnostic {
            severity: Severity::Info,
            code: "SGS-N004",
            location: "gate `g\"q\"`".into(),
            message: "quote \"escaping\"\nworks".into(),
            data: vec![],
        });
        let summary = sgs_trace::json::validate_jsonl(&r.to_jsonl()).unwrap();
        assert_eq!(summary.count("diagnostic"), 2);
    }

    #[test]
    fn report_counts_and_summary() {
        let mut r = Report::default();
        assert!(r.is_clean());
        r.diagnostics.push(diag());
        r.diagnostics.push(Diagnostic {
            severity: Severity::Warning,
            code: "SGS-S008",
            location: "gate `z`".into(),
            message: "zero fan-out".into(),
            data: vec![],
        });
        assert!(!r.is_clean());
        assert_eq!(r.num_errors(), 1);
        assert_eq!(r.num_warnings(), 1);
        assert!(r.summary().contains("1 error(s)"));
        assert!(r.summary().contains("SGS-S001"));
        assert!(r.has_code("SGS-S008"));
        assert!(!r.has_code("SGS-D002"));
        assert!(format!("{r}").contains("combinational cycle"));
    }
}
