//! The benchmark's own checks: every workload runs at a tiny size and
//! reports every named metric, a corrupted reference fails the run, exact
//! counts repeat for a seed, and `BENCHMARK.json` names what the code
//! measures.

use apim_perfbench::report::{expected_metrics, Outcome, END_TO_END};
use apim_perfbench::workloads::{self, load, RunConfig, Workload};
use std::path::PathBuf;

fn tiny(seed: u64, trace: bool) -> RunConfig {
    RunConfig {
        seed,
        seconds: 0.4,
        trace,
        out_dir: None,
        corrupt_oracle: false,
    }
}

fn run(workload: Workload, config: &RunConfig) -> Outcome {
    workloads::run(workload, config)
        .unwrap_or_else(|e| panic!("{} did not complete: {e}", workload.name()))
}

#[test]
fn every_workload_reports_every_metric_at_a_tiny_size() {
    let out_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("perfbench-out");
    for workload in Workload::ALL {
        for trace in [false, true] {
            let config = RunConfig {
                out_dir: Some(out_dir.clone()),
                ..tiny(5, trace)
            };
            let outcome = run(workload, &config);
            let name = workload.name();
            assert!(outcome.correct, "{name}: {:?}", outcome.mismatches);
            assert_eq!(outcome.failed, 0, "{name}: {:?}", outcome.failures);
            assert!(outcome.attempted > 0, "{name}");
            let line = outcome
                .json(trace)
                .unwrap_or_else(|e| panic!("{name} trace={trace}: {e}"));
            for (metric, unit) in expected_metrics(trace) {
                let entry = format!("\"{metric}\": {{\"value\": ");
                assert!(line.contains(&entry), "{name}: {metric} missing");
                assert!(
                    line.contains(&format!("\"unit\": \"{unit}\"")),
                    "{name}: {metric}"
                );
            }
            if !trace {
                for (metric, _) in END_TO_END {
                    let value = outcome.metrics.get(metric).expect("reported");
                    assert!(value > 0.0, "{name}: end-to-end {metric} is {value}");
                }
            }
        }
        let spans = std::fs::read_to_string(out_dir.join(format!("{}.spans.csv", workload.name())))
            .expect("the traced run wrote its spans");
        for layer in [
            "loadgen.request",
            "compile.compile",
            "verify.lint",
            "wire.encode",
        ] {
            assert!(
                spans.contains(layer),
                "{}: no {layer} span",
                workload.name()
            );
        }
        let self_times =
            std::fs::read_to_string(out_dir.join(format!("{}.selftime.csv", workload.name())))
                .expect("the traced run wrote its self times");
        assert!(self_times.starts_with("name,spans,units,self_ns"));
    }
}

#[test]
fn a_corrupted_reference_fails_the_run() {
    for workload in Workload::ALL {
        let config = RunConfig {
            corrupt_oracle: true,
            ..tiny(6, false)
        };
        let outcome = run(workload, &config);
        assert!(
            !outcome.correct,
            "{} accepted a wrong reference",
            workload.name()
        );
        assert!(!outcome.mismatches.is_empty());
        assert_eq!(outcome.failed, 0, "a wrong answer is not a counted failure");
        assert!(outcome
            .json(false)
            .expect("still reports")
            .contains("\"correct\": false"));
    }
}

#[test]
fn exact_counts_repeat_for_a_seed() {
    for workload in [Workload::ExprUnique, Workload::PaperSweep] {
        let a = run(workload, &tiny(7, false))
            .metrics
            .get("sim_cycles_per_op");
        let b = run(workload, &tiny(7, false))
            .metrics
            .get("sim_cycles_per_op");
        assert_eq!(
            a.map(f64::to_bits),
            b.map(f64::to_bits),
            "{}: sim_cycles_per_op {a:?} vs {b:?}",
            workload.name()
        );
    }
    for workload in Workload::ALL {
        let a = run(workload, &tiny(8, true))
            .metrics
            .get("crossbar.micro_ops");
        let b = run(workload, &tiny(8, true))
            .metrics
            .get("crossbar.micro_ops");
        assert!(a.is_some_and(|v| v > 0.0), "{}", workload.name());
        assert_eq!(
            a.map(f64::to_bits),
            b.map(f64::to_bits),
            "{}: crossbar.micro_ops {a:?} vs {b:?}",
            workload.name()
        );
    }
}

/// The benchmark definition at the repository root.
fn benchmark_json() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root")
}

#[test]
fn benchmark_json_names_what_the_code_measures() {
    let json = benchmark_json();
    let declared = |name: &str, unit: &str| {
        json.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\""))
    };
    for (name, unit) in END_TO_END {
        assert!(declared(name, unit), "end-to-end {name} ({unit})");
    }
    for (name, unit) in expected_metrics(true) {
        assert!(declared(&name, unit), "per-layer {name} ({unit})");
    }
    let listed: Vec<(Workload, usize)> = Workload::ALL
        .into_iter()
        .filter_map(|w| Some((w, json.find(&format!("\"name\": \"{}\"", w.name()))?)))
        .collect();
    assert!(listed.len() >= 2, "a benchmark needs two workloads");
    for (workload, start) in listed {
        let why = json[start..].lines().next().expect("one workload per line");
        match load(workload) {
            Some(load) => {
                assert!(why.contains(&format!("window {}", load.window)), "{why}");
                assert!(why.contains(&format!("{} req/s", load.rate)), "{why}");
            }
            None => assert!(why.contains("closed loop"), "{why}"),
        }
    }
}
