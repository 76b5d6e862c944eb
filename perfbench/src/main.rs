//! End-to-end and per-layer benchmark of the statistical gate sizer.
//!
//! ```text
//! perfbench --workload <size_cold|whatif_stream|serve_session>
//!           --seed <n> --seconds <n> --trace <0|1>
//! perfbench --write-reference
//! ```
//!
//! `--trace 0` runs the workload's fixed script once with tracing off and
//! prints the end-to-end metrics; `--trace 1` runs it untraced and then
//! traced and prints the per-layer metrics. Report lines start with `#`;
//! the last line is one JSON object. Exit code 1 means an answer check
//! failed, 2 a usage error. See `perfbench/README.md`.

mod exec;
mod layers;
mod script;

use exec::{execute, prepare_sessions, run_local_sessions, Kind, Recorder, Run};
use script::{cold_circuits, AnswerKeys, Script, Workload};
use sgs_netlist::Library;
use std::collections::BTreeMap;
use std::process::ExitCode;

/// Objectives of every solve and re-solve, committed from the code the
/// benchmark was defined on (`perfbench --write-reference`).
const REFERENCE: &str = include_str!("../reference.txt");

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Option<Args>, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv == ["--write-reference"] {
        return Ok(None);
    }
    let mut map = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        map.insert(flag.as_str(), value.as_str());
    }
    let get = |k: &str| map.get(k).copied().ok_or_else(|| format!("missing {k}"));
    let num = |k: &str| get(k)?.parse::<u64>().map_err(|e| format!("{k}: {e}"));
    let workload = get("--workload")?;
    let args = Args {
        workload: Workload::parse(workload)
            .ok_or_else(|| format!("unknown workload {workload:?}"))?,
        seed: num("--seed")?,
        seconds: num("--seconds")?,
        trace: match get("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
        },
    };
    if map.len() != 4 {
        return Err("expected exactly --workload, --seed, --seconds and --trace".into());
    }
    Ok(Some(args))
}

/// Latencies of `kind` in run order: the workload's own operations, or
/// the canary sessions' where the workload has none of that kind.
fn latencies(run: &Run, kind: Kind) -> Vec<f64> {
    let pick = |rec: &Recorder| -> Vec<f64> {
        rec.latencies
            .iter()
            .filter(|(k, _)| *k == kind)
            .map(|(_, s)| *s)
            .collect()
    };
    let mut v = pick(&run.rec);
    if v.is_empty() {
        v = pick(&run.canary);
    }
    assert!(!v.is_empty(), "every workload runs every operation kind");
    v
}

fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank percentile of sorted `v`.
fn percentile(v: &[f64], p: f64) -> f64 {
    let rank = (p * v.len() as f64 / 100.0).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The highest of a fixed ladder of percentiles with at least ten samples
/// beyond it.
fn tail_percentile(n: usize) -> f64 {
    [99.99, 99.9, 99.0, 95.0, 90.0, 75.0]
        .into_iter()
        .find(|p| (n as f64 * (100.0 - p) / 100.0 + 1e-9).floor() >= 10.0)
        .unwrap_or(50.0)
}

/// Blocks of consecutive probes that `what_if_tail_s` is the median over.
const TAIL_BLOCKS: usize = 10;

/// `what_if_tail_s` of `probes` (in run order): the probes split into
/// [`TAIL_BLOCKS`] blocks of consecutive probes (sizes differing by at
/// most one), each block's latency at the highest percentile with at
/// least ten of its probes beyond it, and the median over blocks, so that
/// one slow stretch of the host moves one block rather than the metric.
/// Also returns the percentile and the smallest block.
fn tail(probes: &[f64]) -> (f64, f64, usize) {
    let n = probes.len();
    let chunks: Vec<Vec<f64>> = (0..TAIL_BLOCKS)
        .map(|b| sorted(probes[b * n / TAIL_BLOCKS..(b + 1) * n / TAIL_BLOCKS].to_vec()))
        .collect();
    let smallest = n / TAIL_BLOCKS;
    let p = tail_percentile(smallest);
    let blocks = sorted(chunks.iter().map(|c| percentile(c, p)).collect());
    (blocks[TAIL_BLOCKS / 2], p, smallest)
}

fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn reference() -> BTreeMap<&'static str, f64> {
    REFERENCE
        .lines()
        .filter_map(|l| {
            let (k, v) = l.split_once(' ')?;
            Some((k, v.parse().expect("reference values are numbers")))
        })
        .collect()
}

/// Geometric mean of achieved over reference objective (all objectives
/// are minimised, so lower is better) over the workload's own solves and
/// re-solves, or the canary sessions' where it has none. Every solve and
/// re-solve the script runs must have produced an objective, and every
/// objective must have a reference.
fn objective_ratio(run: &Run, keys: &AnswerKeys, bad: &mut Vec<String>) -> f64 {
    let reference = reference();
    for (rec, want) in [(&run.rec, &keys.own), (&run.canary, &keys.canary)] {
        let mut got: Vec<&str> = rec.objectives.iter().map(|(k, _)| k.as_str()).collect();
        got.sort_unstable();
        for key in want {
            match got.binary_search(&key.as_str()) {
                Ok(i) => {
                    got.remove(i);
                }
                Err(_) => bad.push(format!("{key}: no objective")),
            }
        }
        for key in got {
            bad.push(format!("{key}: an objective the script does not ask for"));
        }
    }
    let rec = if keys.own.is_empty() {
        &run.canary
    } else {
        &run.rec
    };
    let mut log_sum = 0.0;
    for (key, obj) in &rec.objectives {
        match reference.get(key.as_str()) {
            Some(r) => log_sum += (obj / r).ln(),
            None => bad.push(format!("{key}: no reference objective")),
        }
    }
    (log_sum / rec.objectives.len().max(1) as f64).exp()
}

fn end_to_end(
    run: &Run,
    keys: &AnswerKeys,
    bad: &mut Vec<String>,
    notes: &mut Vec<String>,
) -> Vec<(&'static str, &'static str, f64)> {
    let rec = &run.rec;
    let in_order = latencies(run, Kind::WhatIf);
    let (tail_s, p, block) = tail(&in_order);
    let probes = sorted(in_order);
    let solves = sorted(latencies(run, Kind::Solve));
    let resolves = sorted(latencies(run, Kind::Resolve));
    notes.push(format!(
        "latency samples: solves {}, re-solves {}, probes {} (what_if_tail_s is the median over {TAIL_BLOCKS} blocks of at least {block} probes of each block's p{p})",
        solves.len(),
        resolves.len(),
        probes.len(),
    ));
    notes.push(format!(
        "probe latency p50/p90/p99/p99.9: {:.6}/{:.6}/{:.6}/{:.6} s",
        percentile(&probes, 50.0),
        percentile(&probes, 90.0),
        percentile(&probes, 99.0),
        percentile(&probes, 99.9)
    ));
    let attempted = rec.attempted() as f64;
    vec![
        ("setup_s", "s", run.setup_s),
        ("ops_per_s", "1/s", attempted / run.wall_s),
        ("solve_p50_s", "s", percentile(&solves, 50.0)),
        ("resolve_p50_s", "s", percentile(&resolves, 50.0)),
        ("what_if_p50_s", "s", percentile(&probes, 50.0)),
        ("what_if_tail_s", "s", tail_s),
        ("objective_ratio", "ratio", objective_ratio(run, keys, bad)),
        (
            "ok_frac",
            "ratio",
            (attempted - rec.failed as f64) / attempted,
        ),
        ("peak_rss_mb", "MB", peak_rss_mb()),
    ]
}

/// Prints the reference objectives of every solve and re-solve the
/// scripts contain.
fn write_reference(lib: &Library) -> ExitCode {
    let mut all: BTreeMap<String, f64> = BTreeMap::new();
    let cold = execute(&Script::new(Workload::SizeCold, 0, 10), lib, false);
    let mut runs = vec![cold.rec, cold.canary];
    let serve = Script::new(Workload::ServeSession, 0, 10);
    let mut rec = Recorder::new();
    run_local_sessions(
        &serve.sessions,
        &prepare_sessions(&serve.sessions, lib),
        lib,
        &mut rec,
    );
    runs.push(rec);
    for rec in runs {
        if rec.failed > 0 || !rec.bad.is_empty() {
            eprintln!(
                "reference run failed: {} failures, {:?}",
                rec.failed, rec.bad
            );
            return ExitCode::from(1);
        }
        for (k, v) in rec.objectives {
            if all
                .insert(k.clone(), v)
                .is_some_and(|old| old.to_bits() != v.to_bits())
            {
                eprintln!("{k}: two runs disagree");
                return ExitCode::from(1);
            }
        }
    }
    for (k, v) in all {
        println!("{k} {v}");
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let lib = Library::paper_default();
    let args = match parse_args() {
        Ok(Some(a)) => a,
        Ok(None) => return write_reference(&lib),
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let script = Script::new(args.workload, args.seed, args.seconds);
    let threads = rayon::current_num_threads();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "# workload {} seed {} seconds {} trace {} threads {threads} nproc {nproc}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );

    let plain = execute(&script, &lib, false);
    let mut bad = [&plain.rec.bad[..], &plain.canary.bad[..]].concat();
    let mut notes = Vec::new();
    let metrics = if args.trace {
        let traced = execute(&script, &lib, true);
        bad.extend(traced.rec.bad.iter().chain(&traced.canary.bad).cloned());
        if traced.digest() != plain.digest() {
            bad.push(format!(
                "answer digest changed between two passes of the same script: {:016x} then {:016x}",
                plain.digest(),
                traced.digest()
            ));
        }
        layers::measure(&script, &lib, &plain, &traced, &mut bad, &mut notes)
    } else {
        let names: Vec<String> = cold_circuits()
            .iter()
            .map(|c| c.name().to_string())
            .collect();
        end_to_end(&plain, &script.answer_keys(&names), &mut bad, &mut notes)
    };
    for (name, _, value) in &metrics {
        if !value.is_finite() {
            bad.push(format!("{name} is {value}, not a number"));
        }
    }
    println!("# answer digest {:016x}", plain.digest());
    for n in &notes {
        println!("# {n}");
    }
    for b in &bad {
        println!("# CHECK FAILED: {b}");
    }
    for (name, unit, value) in &metrics {
        println!("# {name} = {value} {unit}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, value)| {
            // JSON has no NaN; a non-finite value already failed a check.
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        bad.is_empty(),
        plain.rec.attempted() + plain.canary.attempted(),
        plain.rec.failed + plain.canary.failed,
        body.join(", ")
    );
    if bad.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
