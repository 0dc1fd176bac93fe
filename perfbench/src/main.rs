//! `perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]`
//!
//! Prints one line per metric and note, then, as the last line of standard
//! output, one JSON object with the keys `correct`, `attempted`, `failed`
//! and `metrics`: the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1`. Exits 1 when any check failed, 2 on bad
//! arguments or a non-default simulator backend.

use perfbench::bench::{self, Metric, Options};
use perfbench::host;
use perfbench::workloads::{Workload, ALL};
use std::process::ExitCode;

/// Environment variables that select a non-default simulator backend.
/// Numbers measured under them would not describe the code users run.
const BACKEND_VARS: [&str; 3] = ["QNET_EVENT_QUEUE", "QNET_INVENTORY", "QNET_KNOWLEDGE"];

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, 10.0, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or_else(|| {
                    let names: Vec<&str> = ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload '{value}' (one of: {})", names.join(", "))
                })?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed needs an integer")?),
            "--seconds" => {
                seconds = value.parse().map_err(|_| "--seconds needs a number")?;
                if !(seconds > 0.0 && f64::is_finite(seconds)) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Options {
        workload,
        seed: seed.unwrap_or(workload.default_seed()),
        seconds,
        trace,
    })
}

fn json_metrics(metrics: &[Metric]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| {
            assert!(m.value.is_finite(), "metric {} is not finite", m.name);
            format!(
                r#""{}": {{"value": {}, "unit": "{}"}}"#,
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args == [host::PROBE_FLAG] {
        println!("{}", host::probe_kernel());
        return ExitCode::SUCCESS;
    }
    let options = match parse_args(&args) {
        Ok(options) => options,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let overridden: Vec<&str> = BACKEND_VARS
        .into_iter()
        .filter(|v| std::env::var_os(v).is_some())
        .collect();
    if !overridden.is_empty() {
        eprintln!(
            "perfbench: refusing to measure with {} set: unset it to measure the default backends",
            overridden.join(", ")
        );
        return ExitCode::from(2);
    }

    let pinned = host::pin_to_current_cpu();
    let report = bench::run(&options);

    let exact_samples = std::env::var("QNET_EXACT_SAMPLES").unwrap_or_else(|_| "unset".into());
    println!(
        "workload {} seed {} seconds {} trace {}",
        options.workload.name(),
        options.seed,
        options.seconds,
        u8::from(options.trace)
    );
    println!("env QNET_EXACT_SAMPLES={exact_samples}");
    match pinned {
        Ok(cpu) => println!("note pinned to CPU {cpu}, with the host-speed probe"),
        Err(e) => println!("note not pinned to one CPU: {e}"),
    }
    for note in &report.notes {
        println!("note {note}");
    }
    if report.failed > bench::MAX_FAILURE_NOTES {
        println!(
            "note {} failures in all; the first {} are described",
            report.failed,
            bench::MAX_FAILURE_NOTES
        );
    }
    let metrics = if options.trace {
        &report.per_layer
    } else {
        &report.end_to_end
    };
    for m in metrics {
        println!("metric {} = {} {}", m.name, m.value, m.unit);
    }
    println!("failure_ratio = {}/{}", report.failed, report.attempted);
    println!(
        r#"{{"correct": {}, "attempted": {}, "failed": {}, "metrics": {}}}"#,
        report.failed == 0,
        report.attempted,
        report.failed,
        json_metrics(metrics)
    );
    if report.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
