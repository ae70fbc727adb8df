//! `apim-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints one JSON line as the last line of standard output and exits 0
//! when every output matched its oracle; a wrong output prints the line
//! with `"correct": false` and exits 1; a run that cannot complete prints
//! no result and exits 1.

use apim_perfbench::workloads::{self, RunConfig, Workload};
use std::process::ExitCode;

const USAGE: &str =
    "usage: apim-perfbench --workload <pixel-stream|expr-unique|fleet-rpc|paper-sweep> \
--seed <n> --seconds <s> --trace <0|1>";

fn parse_args(args: &[String]) -> Result<(Workload, RunConfig), String> {
    let mut workload = None;
    let mut config = RunConfig {
        seed: 1,
        seconds: 10.0,
        trace: false,
        out_dir: Some(concat!(env!("CARGO_MANIFEST_DIR"), "/out").into()),
        corrupt_oracle: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("invalid {flag} value `{value}`");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::from_name(value).ok_or_else(bad)?),
            "--seed" => config.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                config.seconds = value.parse().map_err(|_| bad())?;
                if !(config.seconds > 0.0 && config.seconds <= 600.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                config.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok((workload.ok_or("--workload is required")?, config))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, config) = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match workloads::run(workload, &config) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("error: {} failed: {e}", workload.name());
            return ExitCode::FAILURE;
        }
    };
    for mismatch in &outcome.mismatches {
        eprintln!("mismatch: {mismatch}");
    }
    for failure in &outcome.failures {
        eprintln!("failed: {failure}");
    }
    match outcome.json(config.trace) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    }
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
