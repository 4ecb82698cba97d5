//! `--repeat K`: the full set K times, one fresh process per run, and a
//! table of how far each metric moved between runs of the same code.

use crate::harness::{iqr_share, median};
use crate::metrics::{END_TO_END, WORKLOADS};
use crate::Args;
use std::process::{Command, ExitCode, Stdio};

/// Parses the `metric <workload> <name> <value> <unit>` lines of one
/// run's output.
fn parse_metrics(stdout: &str) -> Vec<(String, f64, String)> {
    stdout
        .lines()
        .filter_map(|line| {
            let mut words = line.split_whitespace();
            if words.next()? != "metric" {
                return None;
            }
            let _workload = words.next()?;
            let name = words.next()?.to_string();
            let value: f64 = words.next()?.parse().ok()?;
            Some((name, value, words.next()?.to_string()))
        })
        .collect()
}

pub fn run(args: &Args, k: usize) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("pa-benchmark: cannot find my own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let traced = args.trace == Some(true);
    let names: Vec<&str> = match &args.workload {
        Some(name) => vec![name.as_str()],
        None => WORKLOADS.iter().map(|w| w.name).collect(),
    };
    // One row per (workload, metric), in first-seen order.
    struct Row {
        workload: String,
        metric: String,
        unit: String,
        values: Vec<f64>,
    }
    let mut table: Vec<Row> = Vec::new();
    let mut all_correct = true;
    for round in 0..k {
        for name in &names {
            let seed = args.seed + round as u64;
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", name, "--seed", &seed.to_string()])
                .args(["--trace", if traced { "1" } else { "0" }])
                .stdin(Stdio::null())
                .stderr(Stdio::inherit());
            if args.smoke {
                cmd.arg("--smoke");
            } else {
                cmd.args(["--seconds", &args.seconds.to_string()]);
            }
            // `output` waits for the child to end.
            let out = match cmd.output() {
                Ok(out) => out,
                Err(e) => {
                    eprintln!("pa-benchmark: cannot start a run: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let ok = out.status.success();
            all_correct &= ok;
            println!(
                "run {}/{k} {name} seed {seed}: {}",
                round + 1,
                if ok { "ok" } else { "FAILED" }
            );
            let stdout = String::from_utf8_lossy(&out.stdout);
            for (metric, value, unit) in parse_metrics(&stdout) {
                let found = table
                    .iter()
                    .position(|r| r.workload == *name && r.metric == metric);
                let at = found.unwrap_or_else(|| {
                    table.push(Row {
                        workload: name.to_string(),
                        metric,
                        unit,
                        values: Vec::new(),
                    });
                    table.len() - 1
                });
                table[at].values.push(value);
            }
        }
    }

    println!();
    println!(
        "{:<13} {:<30} {:>13} {:>13} {:>13} {:>8} {:>6}  unit",
        "workload", "metric", "min", "median", "max", "spread", "bound"
    );
    for row in &table {
        let values = &row.values;
        let (lo, hi) = values
            .iter()
            .fold((f64::MAX, f64::MIN), |(lo, hi), &v| (lo.min(v), hi.max(v)));
        let spread = if values.len() >= 2 {
            iqr_share(values)
        } else {
            0.0
        };
        let bound = END_TO_END
            .iter()
            .find(|m| m.name == row.metric)
            .map(|m| m.bound);
        let verdict = match bound {
            Some(b) if !args.smoke && row.metric != "setup_s" && spread > b => "  OVER",
            _ => "",
        };
        println!(
            "{:<13} {:<30} {:>13.5} {:>13.5} {:>13.5} {:>7.2}% {:>6}  {}{verdict}",
            row.workload,
            row.metric,
            lo,
            median(values),
            hi,
            spread * 100.0,
            bound.map_or("-".to_string(), |b| format!("{:.0}%", b * 100.0)),
            row.unit,
        );
    }
    println!("\nspread = (Q3 - Q1) / median over the {k} runs, quartiles as Python's statistics.quantiles(n=4)");
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_lines_are_picked_out_of_the_output() {
        let out = "note churn end_to_end: 41 slices\n\
                   metric churn setup_s 0.41 s\n\
                   metric churn cost_per_op_cu 2210.5 cu/op\n\
                   {\"correct\": true}\n";
        assert_eq!(
            parse_metrics(out),
            vec![
                ("setup_s".to_string(), 0.41, "s".to_string()),
                ("cost_per_op_cu".to_string(), 2210.5, "cu/op".to_string()),
            ]
        );
    }
}
