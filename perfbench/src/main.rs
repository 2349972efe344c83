//! The repository benchmark: three fixed-vertex workloads, end-to-end
//! metrics with tracing off, and a separate traced run with per-layer
//! metrics. See `perfbench/README.md` for the workloads, the metric
//! definitions and how to run it.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`.

mod bisect;
mod common;
#[cfg(test)]
mod selftest;
mod service;
mod sweep;

use std::process::exit;

use common::{Report, Spans};

/// The workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["bisect-rent-50k", "fixed-sweep-ibm01", "service-blocks"];

/// The end-to-end metrics every untraced run prints, with their units.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("solve_s", "s"),
    ("cpu_s", "s"),
    ("cut", "nets"),
    ("peak_rss_mib", "MiB"),
    ("jobs_per_s", "1/s"),
];

/// The per-layer metrics every traced run prints, with their units. A
/// workload reports 0 for the layers its `UNREACHED` list names.
pub const PER_LAYER: [(&str, &str); 45] = [
    ("replica_match", "bool"),
    ("io.read_s", "s"),
    ("io.read_mb_s", "MB/s"),
    ("coarsen.s", "s"),
    ("coarsen.levels", "count"),
    ("coarsen.l0_s", "s"),
    ("coarsen.t2_over_t1", "ratio"),
    ("project.s", "s"),
    ("initial.s", "s"),
    ("refine.s", "s"),
    ("refine.l0_s", "s"),
    ("refine.t2_over_t1", "ratio"),
    ("fm.passes", "count"),
    ("fm.moves_tried", "count"),
    ("fm.moves_committed", "count"),
    ("fm.useful_frac", "ratio"),
    ("fm.bucket_ops", "count"),
    ("fm.tried_per_pass.free", "moves"),
    ("fm.tried_per_pass.good5", "moves"),
    ("fm.tried_per_pass.good20", "moves"),
    ("fm.tried_per_pass.good50", "moves"),
    ("fm.tried_per_pass.rand5", "moves"),
    ("fm.tried_per_pass.rand20", "moves"),
    ("fm.tried_per_pass.rand50", "moves"),
    ("multistart.start_s", "s"),
    ("multistart.par_eff", "ratio"),
    ("quality.s", "s"),
    ("quality.cut_gain", "ratio"),
    ("kway.ms", "ms"),
    ("kway.illegal_frac", "ratio"),
    ("warmstart.ms", "ms"),
    ("warmstart.hit_frac", "ratio"),
    ("protocol.parse_ms", "ms"),
    ("protocol.parse_mb_s", "MB/s"),
    ("cache.lookup_us", "us"),
    ("cache.hit_frac", "ratio"),
    ("server.overhead_ms.p50", "ms"),
    ("fail_frac", "ratio"),
    ("latency_ms.p50", "ms"),
    ("latency_ms.tail", "ms"),
    ("cold_ms.p50", "ms"),
    ("quad_ms.p50", "ms"),
    ("warm_ms.p50", "ms"),
    ("repeat_ms.p50", "ms"),
    ("trace.overhead_frac", "ratio"),
];

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Instance scale relative to the workload's nominal size; 1.0 from the
    /// command line, smaller in the self-tests.
    pub scale: f64,
}

const USAGE: &str = "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("bad {flag} value `{value}`: {what}");
        match flag.as_str() {
            "--workload" => {
                if !WORKLOADS.contains(&value.as_str()) {
                    return Err(bad(&format!("expected one of {}", WORKLOADS.join(", "))));
                }
                workload = Some(value.clone());
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("not a u64"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("not a number"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(bad("must be positive"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}\n{USAGE}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or(format!("--workload is required\n{USAGE}"))?,
        seed: seed.ok_or(format!("--seed is required\n{USAGE}"))?,
        seconds: seconds.ok_or(format!("--seconds is required\n{USAGE}"))?,
        trace: trace.ok_or(format!("--trace is required\n{USAGE}"))?,
        scale: 1.0,
    })
}

/// Per-layer metrics off `workload`'s path.
fn unreached(workload: &str) -> &'static [&'static str] {
    match workload {
        "bisect-rent-50k" => bisect::UNREACHED,
        "fixed-sweep-ibm01" => sweep::UNREACHED,
        "service-blocks" => service::UNREACHED,
        other => unreachable!("workload {other} was validated"),
    }
}

/// Puts the report's metrics in the listed order and checks that each
/// listed metric is there with its unit. A traced run adds `fail_frac` from
/// the tally and reports 0 for the layers off its workload's path; any
/// other missing metric marks the run incorrect.
fn finish(mut report: Report, workload: &str, trace: bool) -> Report {
    let (list, off_path): (&[(&str, &str)], &[&str]) = if trace {
        let frac = common::ratio(report.failed as f64, report.attempted as f64);
        report.metric("fail_frac", frac, "ratio");
        (&PER_LAYER, unreached(workload))
    } else {
        (&END_TO_END, &[])
    };
    let mut ordered = Vec::with_capacity(list.len());
    let mut missing = Vec::new();
    for &(name, unit) in list {
        match report.metrics.iter().position(|(n, _, _)| n == name) {
            Some(i) => {
                let m = report.metrics.remove(i);
                assert_eq!(m.2, unit, "metric {name} carries the wrong unit");
                assert!(!off_path.contains(&name), "{workload} reaches {name}");
                ordered.push(m);
            }
            None if off_path.contains(&name) => ordered.push((name.to_string(), 0.0, unit)),
            None => missing.push(name),
        }
    }
    assert!(
        report.metrics.is_empty(),
        "unlisted metrics {:?}",
        report.metrics
    );
    report.metrics = ordered;
    if !missing.is_empty() && report.correct {
        report.fail_check(format!("listed metrics missing: {}", missing.join(", ")));
    }
    report
}

/// Runs one workload and returns its report; traced runs also return their
/// spans.
pub fn run(args: &Args) -> (Report, Option<Spans>) {
    let (report, spans) = run_workload(args);
    (finish(report, &args.workload, args.trace), spans)
}

fn run_workload(args: &Args) -> (Report, Option<Spans>) {
    match (args.workload.as_str(), args.trace) {
        ("bisect-rent-50k", false) => (
            bisect::run(args.seed, args.seconds, bisect::SCALE * args.scale),
            None,
        ),
        ("bisect-rent-50k", true) => {
            let mut spans = Spans::new();
            let r = bisect::run_traced(args.seed, bisect::SCALE * args.scale, &mut spans);
            (r, Some(spans))
        }
        ("fixed-sweep-ibm01", false) => (sweep::run(args.seed, args.seconds, args.scale), None),
        ("fixed-sweep-ibm01", true) => {
            let mut spans = Spans::new();
            let r = sweep::run_traced(args.seed, args.scale, &mut spans);
            (r, Some(spans))
        }
        ("service-blocks", trace) => {
            let mut spans = Spans::new();
            let r = service::run(
                args.seed,
                args.seconds,
                service::SCALE * args.scale,
                trace,
                &mut spans,
            );
            (r, trace.then_some(spans))
        }
        (other, _) => unreachable!("workload {other} was validated"),
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            exit(2);
        }
    };
    println!("{}", common::provenance(args.seed));
    let (report, spans) = run(&args);
    if let Some(spans) = spans {
        match common::write_spans(&spans, &args.workload, args.seed) {
            Ok(path) => println!("spans: {} written to {path}", spans.spans.len()),
            Err(e) => eprintln!("could not write spans: {e}"),
        }
        for (name, n, total, own) in spans.summary() {
            println!("span {name:<14} n={n:<5} total_s={total:.6} self_s={own:.6}");
        }
    }
    println!("{}", report.render());
}
