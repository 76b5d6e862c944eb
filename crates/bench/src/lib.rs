//! Shared helpers for the table-regeneration binaries.
//!
//! Each binary under `src/bin/` regenerates one table of the DATE 2000
//! paper (see `DESIGN.md` for the experiment index); this crate holds the
//! row model and formatting they share, plus the `--trace=FILE` support
//! ([`TraceArg`]) every binary accepts.

use sgs_trace::{EvalReport, JsonlSink, RunReport, TraceEvent, TraceSink, Tracer};
use std::time::Instant;

pub mod script;

/// Removes every occurrence of `--NAME=VALUE` / `--NAME VALUE` from
/// `args` (the last occurrence wins) and returns the value, or an error
/// when the flag is present without an operand.
fn take_flag(args: &mut Vec<String>, name: &str) -> Result<Option<String>, String> {
    let eq = format!("{name}=");
    let mut val = None;
    let mut i = 0;
    while i < args.len() {
        if let Some(v) = args[i].strip_prefix(&eq) {
            val = Some(v.to_string());
            args.remove(i);
        } else if args[i] == name {
            if i + 1 >= args.len() {
                return Err(format!("{name} needs an operand"));
            }
            val = Some(args[i + 1].clone());
            args.drain(i..=i + 1);
        } else {
            i += 1;
        }
    }
    Ok(val)
}

/// The flags every bench binary accepts, shared so they parse (and error)
/// identically everywhere:
///
/// * `--trace=FILE` — JSONL event trace ([`TraceArg`]).
/// * `--metrics=FILE` — enables the [`sgs_metrics`] registry and writes a
///   versioned snapshot on [`BenchArgs::finish`].
/// * `--metrics-prom=FILE` — same registry, Prometheus text exposition.
/// * `--threads=N` — sizes the global rayon pool before any work runs.
///
/// All four are stripped from the argument list; binaries then treat any
/// remaining unknown flag as a usage error instead of silently ignoring
/// it. Without `--metrics`/`--metrics-prom` the registry stays disabled
/// and the instrumented code paths cost a relaxed atomic load each.
pub struct BenchArgs {
    trace: TraceArg,
    metrics_path: Option<String>,
    prom_path: Option<String>,
    start: Instant,
    bin: &'static str,
}

impl BenchArgs {
    /// Strips the shared flags from `args`, builds the rayon pool and
    /// enables the metrics registry as requested.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for a flag without an operand, an
    /// unparsable `--threads` value, or an unwritable trace file.
    pub fn extract(bin: &'static str, args: &mut Vec<String>) -> Result<Self, String> {
        let trace = TraceArg::extract(bin, args)?;
        let metrics_path = take_flag(args, "--metrics")?;
        let prom_path = take_flag(args, "--metrics-prom")?;
        if let Some(n) = take_flag(args, "--threads")? {
            let n: usize = n
                .parse()
                .map_err(|_| format!("--threads needs a positive integer, got {n}"))?;
            rayon::ThreadPoolBuilder::new()
                .num_threads(n)
                .build_global()
                .ok();
        }
        if metrics_path.is_some() || prom_path.is_some() {
            sgs_metrics::reset();
            sgs_metrics::enable();
        }
        Ok(BenchArgs {
            trace,
            metrics_path,
            prom_path,
            start: Instant::now(),
            bin,
        })
    }

    /// The composed `--trace` support (sink, tracer, run report).
    pub fn trace(&self) -> &TraceArg {
        &self.trace
    }

    /// Whether a metrics snapshot or Prometheus dump was requested.
    pub fn metrics_enabled(&self) -> bool {
        self.metrics_path.is_some() || self.prom_path.is_some()
    }

    /// Sets the run-wall-clock gauge, snapshots the registry and writes
    /// the requested output files. A no-op without
    /// `--metrics`/`--metrics-prom`.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message when an output file cannot be
    /// written.
    pub fn finish(&self, circuit: &str) -> Result<(), String> {
        if !self.metrics_enabled() {
            return Ok(());
        }
        sgs_metrics::set_gauge(
            sgs_metrics::Gauge::RunSeconds,
            self.start.elapsed().as_secs_f64(),
        );
        let snap = sgs_metrics::snapshot(sgs_metrics::Metadata {
            bin: self.bin.to_string(),
            circuit: circuit.to_string(),
            git_sha: git_sha(),
            threads: rayon::current_num_threads(),
            timestamp: run_timestamp(),
        });
        if let Some(p) = &self.metrics_path {
            std::fs::write(p, snap.to_json())
                .map_err(|e| format!("cannot write metrics snapshot {p}: {e}"))?;
        }
        if let Some(p) = &self.prom_path {
            std::fs::write(p, sgs_metrics::prom::to_prometheus(&snap))
                .map_err(|e| format!("cannot write Prometheus dump {p}: {e}"))?;
        }
        Ok(())
    }
}

/// The commit under test: `GITHUB_SHA` (CI), then `GIT_SHA` (local
/// override), then `"unknown"`. Passed into the snapshot metadata so the
/// library layer never shells out to git.
pub fn git_sha() -> String {
    std::env::var("GITHUB_SHA")
        .or_else(|_| std::env::var("GIT_SHA"))
        .unwrap_or_else(|_| "unknown".to_string())
}

/// Seconds since the Unix epoch as a decimal string, honouring
/// `SOURCE_DATE_EPOCH` for reproducible runs. Metadata only: no check
/// reads it.
pub fn run_timestamp() -> String {
    if let Ok(t) = std::env::var("SOURCE_DATE_EPOCH") {
        return t;
    }
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs().to_string())
        .unwrap_or_else(|_| "0".to_string())
}

/// `--trace=FILE` support shared by the bench binaries: strips the flag
/// from the argument list, opens a [`JsonlSink`], and emits the final
/// [`RunReport`] record. Without the flag everything is a disabled-tracer
/// no-op, so instrumented binaries cost nothing extra by default.
pub struct TraceArg {
    bin: &'static str,
    sink: Option<JsonlSink>,
    start: Instant,
    clamps_start: u64,
}

impl TraceArg {
    /// Removes `--trace=FILE` / `--trace FILE` from `args` (all
    /// occurrences; the last wins) and opens the sink.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message when the flag has no file operand
    /// or the file cannot be created.
    pub fn extract(bin: &'static str, args: &mut Vec<String>) -> Result<Self, String> {
        let mut path: Option<String> = None;
        let mut i = 0;
        while i < args.len() {
            if let Some(p) = args[i].strip_prefix("--trace=") {
                path = Some(p.to_string());
                args.remove(i);
            } else if args[i] == "--trace" {
                if i + 1 >= args.len() {
                    return Err("--trace needs a file operand".to_string());
                }
                path = Some(args[i + 1].clone());
                args.drain(i..=i + 1);
            } else {
                i += 1;
            }
        }
        let sink = match path {
            Some(p) => Some(
                JsonlSink::create(&p).map_err(|e| format!("cannot create trace file {p}: {e}"))?,
            ),
            None => None,
        };
        Ok(TraceArg {
            bin,
            sink,
            start: Instant::now(),
            clamps_start: sgs_statmath::clark::var_clamp_count(),
        })
    }

    /// The sink, for drivers that hold one (e.g. `Sizer::trace`).
    pub fn sink(&self) -> Option<&dyn TraceSink> {
        self.sink.as_ref().map(|s| s as &dyn TraceSink)
    }

    /// A tracer handle; disabled when `--trace` was not given.
    pub fn tracer(&self) -> Tracer<'_> {
        match &self.sink {
            Some(s) => Tracer::new(s),
            None => Tracer::none(),
        }
    }

    /// Emits a [`RunReport`] (with zeroed eval counts) and flushes.
    pub fn report(
        &self,
        circuit: &str,
        status: &str,
        objective: f64,
        mu: f64,
        sigma: f64,
        area: f64,
    ) {
        self.report_with_evals(
            circuit,
            status,
            objective,
            mu,
            sigma,
            area,
            EvalReport::default(),
        );
    }

    /// Emits a [`RunReport`] carrying solver eval counts and flushes.
    #[allow(clippy::too_many_arguments)]
    pub fn report_with_evals(
        &self,
        circuit: &str,
        status: &str,
        objective: f64,
        mu: f64,
        sigma: f64,
        area: f64,
        evals: EvalReport,
    ) {
        let t = self.tracer();
        t.emit(|| {
            TraceEvent::Run(RunReport {
                bin: self.bin.to_string(),
                circuit: circuit.to_string(),
                status: status.to_string(),
                objective,
                mu,
                sigma,
                area,
                seconds: self.start.elapsed().as_secs_f64(),
                evals,
                clark_var_clamps: sgs_statmath::clark::var_clamp_count()
                    .saturating_sub(self.clamps_start),
            })
        });
        t.flush();
    }
}

/// One row of a paper-style results table.
#[derive(Debug, Clone)]
pub struct Row {
    /// Objective column ("min sum S", "min mu", ...).
    pub minimize: String,
    /// Constraint column (may be empty).
    pub constraint: String,
    /// `mu_Tmax` at the solution.
    pub mu: f64,
    /// `sigma_Tmax` at the solution.
    pub sigma: f64,
    /// Area `sum S_i` at the solution.
    pub sum_s: f64,
    /// Solver wall-clock seconds (`None` for closed-form rows).
    pub cpu: Option<f64>,
    /// The paper's reported `(mu, sigma, sum S)` for this row, if any.
    pub paper: Option<(f64, f64, f64)>,
}

/// Prints a table of rows with a paper-comparison block.
pub fn print_table(title: &str, rows: &[Row]) {
    println!("\n## {title}\n");
    println!(
        "{:<28} {:<32} {:>8} {:>8} {:>8} {:>9} | {:>8} {:>8} {:>8}",
        "minimize", "constraint", "mu", "sigma", "sum S", "CPU [s]", "mu*", "sigma*", "sum S*"
    );
    println!("{}", "-".repeat(130));
    for r in rows {
        let cpu = r.cpu.map_or(String::from("-"), |s| format!("{s:.2}"));
        let (pm, ps, pa) = r
            .paper
            .map(|(a, b, c)| (format!("{a:.2}"), format!("{b:.3}"), format!("{c:.2}")))
            .unwrap_or_else(|| ("-".into(), "-".into(), "-".into()));
        println!(
            "{:<28} {:<32} {:>8.2} {:>8.3} {:>8.2} {:>9} | {:>8} {:>8} {:>8}",
            r.minimize, r.constraint, r.mu, r.sigma, r.sum_s, cpu, pm, ps, pa
        );
    }
    println!("\n(*) columns: values reported in the paper (their library/hosts; shapes, not absolutes, are comparable)");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_arg_extracts_and_removes_flag() {
        let dir = std::env::temp_dir().join("sgs_trace_arg_test.jsonl");
        let mut args: Vec<String> = vec![
            "circuit.blif".into(),
            format!("--trace={}", dir.display()),
            "--full-space".into(),
        ];
        let t = TraceArg::extract("test_bin", &mut args).unwrap();
        assert_eq!(
            args,
            vec!["circuit.blif".to_string(), "--full-space".to_string()]
        );
        assert!(t.sink().is_some());
        assert!(t.tracer().enabled());
        t.report("c", "ok", 1.0, 2.0, 0.5, 7.0);
        let text = std::fs::read_to_string(&dir).unwrap();
        let summary = sgs_trace::json::validate_jsonl(&text).unwrap();
        assert_eq!(summary.count("run_report"), 1);
        assert!(summary.has_final_status());
        let _ = std::fs::remove_file(&dir);
    }

    #[test]
    fn trace_arg_absent_is_disabled() {
        let mut args: Vec<String> = vec!["x".into()];
        let t = TraceArg::extract("test_bin", &mut args).unwrap();
        assert!(t.sink().is_none());
        assert!(!t.tracer().enabled());
        t.report("c", "ok", 1.0, 2.0, 0.5, 7.0); // must be a no-op
    }

    #[test]
    fn trace_arg_missing_operand_errors() {
        let mut args: Vec<String> = vec!["--trace".into()];
        assert!(TraceArg::extract("test_bin", &mut args).is_err());
    }

    #[test]
    fn print_does_not_panic() {
        print_table(
            "t",
            &[Row {
                minimize: "min mu".into(),
                constraint: String::new(),
                mu: 1.0,
                sigma: 0.1,
                sum_s: 7.0,
                cpu: Some(0.5),
                paper: Some((1.1, 0.12, 7.0)),
            }],
        );
    }
}
