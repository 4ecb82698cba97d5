//! pa-benchmark: seven workloads over the Protocol Accelerator, with
//! calibration-normalised end-to-end metrics and a call-boundary cost
//! stack. See README.md for what is measured and why.

mod alloc;
mod gen;
mod harness;
mod metrics;
mod repeat;
mod run;
mod sut;
mod trace;
mod workloads;

use run::{Plan, Report};
use std::process::ExitCode;
use workloads::{Bulk16k, Churn, Echo1Conn, Fanin16k, LossyStream, StreamPack, UdpEcho16, World};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

const USAGE: &str = "usage: pa-benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
                    [--repeat K] [--smoke] [--print-contract]

  --workload NAME   run one workload (default: all seven)
  --seed N          seed every generated input derives from (default 1)
  --seconds S       wall-clock length of the timed window (default: run_seconds)
  --trace 0|1       0: end-to-end pass only; 1: traced pass only (default: both)
  --repeat K        run the set K times, one process per run, seeds N..N+K-1,
                    and print min / median / max and spread against the bounds
  --smoke           1/50 of the work, no bounds; checks correctness only
  --print-contract  print BENCHMARK.json and exit";

#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
    repeat: Option<usize>,
    smoke: bool,
    print_contract: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        seed: 1,
        seconds: metrics::RUN_SECONDS as f64,
        trace: None,
        repeat: None,
        smoke: false,
        print_contract: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .map(String::as_str)
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                if !metrics::WORKLOADS.iter().any(|w| w.name == name) {
                    return Err(format!("unknown workload {name}"));
                }
                out.workload = Some(name.to_string());
            }
            "--seed" => out.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                out.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(out.seconds > 0.0 && out.seconds <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
            }
            "--trace" => {
                out.trace = Some(match value()? {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            "--repeat" => {
                let k: usize = value()?.parse().map_err(|e| format!("--repeat: {e}"))?;
                if !(2..=100).contains(&k) {
                    return Err("--repeat takes 2 to 100".into());
                }
                out.repeat = Some(k);
            }
            "--smoke" => out.smoke = true,
            "--print-contract" => out.print_contract = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(out)
}

/// Runs one pass of one workload and prints it. Returns whether the
/// correctness gate passed.
fn run_pass(name: &str, plan: &Plan, traced: bool) -> bool {
    fn go<W: World>(plan: &Plan, traced: bool) -> Report {
        if !traced {
            return run::end_to_end::<W>(plan);
        }
        let (report, jsonl) = run::traced::<W>(plan);
        // `cargo run` names the package's directory; a bare binary falls
        // back on where it was built.
        let manifest_dir = std::env::var_os("CARGO_MANIFEST_DIR")
            .unwrap_or_else(|| env!("CARGO_MANIFEST_DIR").into());
        let dir = std::path::Path::new(&manifest_dir).join("out");
        let path = dir.join(format!("trace-{}.jsonl", W::NAME));
        if let Err(e) = std::fs::create_dir_all(&dir).and_then(|_| std::fs::write(&path, jsonl)) {
            eprintln!("warning: could not write {}: {e}", path.display());
        }
        report
    }
    type Runner = fn(&Plan, bool) -> Report;
    let runners: [(&str, Runner); 7] = [
        (Echo1Conn::NAME, go::<Echo1Conn>),
        (StreamPack::NAME, go::<StreamPack>),
        (Bulk16k::NAME, go::<Bulk16k>),
        (Fanin16k::NAME, go::<Fanin16k>),
        (Churn::NAME, go::<Churn>),
        (LossyStream::NAME, go::<LossyStream>),
        (UdpEcho16::NAME, go::<UdpEcho16>),
    ];
    let (_, run) = runners
        .iter()
        .find(|(n, _)| *n == name)
        .expect("workload names are checked when parsed");
    let report = run(plan, traced);

    let pass = if traced { "per_layer" } else { "end_to_end" };
    for note in &report.notes {
        println!("note {name} {pass}: {note}");
    }
    for (metric, value, unit) in &report.metrics {
        println!("metric {name} {metric} {value} {unit}");
    }
    println!("{}", result_json(&report));
    report.correct
}

/// The result line: one JSON object with exactly the keys `correct`,
/// `attempted`, `failed` and `metrics`.
fn result_json(report: &Report) -> String {
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct,
        report.attempted,
        report.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("pa-benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.print_contract {
        print!("{}", metrics::contract_json());
        return ExitCode::SUCCESS;
    }
    if let Some(k) = args.repeat {
        return repeat::run(&args, k);
    }

    let plan = if args.smoke {
        Plan::smoke(args.seed)
    } else {
        Plan::full(args.seed, args.seconds)
    };
    let names: Vec<&str> = match &args.workload {
        Some(name) => vec![name.as_str()],
        None => metrics::WORKLOADS.iter().map(|w| w.name).collect(),
    };
    let mut correct = true;
    for name in names {
        if args.trace != Some(true) {
            correct &= run_pass(name, &plan, false);
        }
        if args.trace != Some(false) {
            correct &= run_pass(name, &plan, true);
        }
    }
    if correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("pa-benchmark: a correctness check failed (see the FAIL notes above)");
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn the_drivers_arguments_parse() {
        let a = args(&[
            "--workload",
            "churn",
            "--seed",
            "17",
            "--seconds",
            "8",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workload.as_deref(), Some("churn"));
        assert_eq!((a.seed, a.seconds, a.trace), (17, 8.0, Some(true)));
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--trace", "2"]).is_err());
        assert!(args(&["--seed"]).is_err());
        assert!(args(&["--bogus"]).is_err());
        assert_eq!(args(&[]).unwrap().trace, None);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let report = Report {
            correct: true,
            attempted: 1000,
            failed: 0,
            metrics: vec![
                ("latency_ms".to_string(), 1.2034, "ms"),
                ("setup_s".to_string(), 0.8127, "s"),
            ],
            notes: vec![],
        };
        assert_eq!(
            result_json(&report),
            "{\"correct\": true, \"attempted\": 1000, \"failed\": 0, \"metrics\": \
             {\"latency_ms\": {\"value\": 1.2034, \"unit\": \"ms\"}, \
             \"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}}}"
        );
    }
}
