//! Independent correctness oracles. A wrong answer makes the whole run
//! incorrect; it is never folded into the failure count.
//!
//! - pixels and programs: `apim_compile::evaluate` on the DAG (for
//!   programs, the DAG the generator built, not the parsed source);
//! - `Multiply` / `Mac`: exact `u128` products;
//! - `Echo`: the payload;
//! - `paper-sweep`: the serial `Campaign::run` rows.

use apim::RunReport;
use apim_cluster::ClusterResponse;
use apim_compile::Dag;
use apim_serve::{JobKind, JobOutput, Request};
use std::collections::HashMap;

/// Binds a DAG's inputs, in declaration order, to `values`.
pub fn bind(dag: &Dag, values: &[u64]) -> HashMap<String, u64> {
    dag.inputs()
        .into_iter()
        .zip(values)
        .map(|(name, &v)| (name.to_string(), v))
        .collect()
}

/// The value a pixel request must produce.
///
/// # Errors
///
/// A rendering of the reference evaluator's error.
pub fn pixel_value(app: apim::App, taps: &[u64]) -> Result<u64, String> {
    let dag = crate::gen::kernel_dag(app);
    apim_compile::evaluate(&dag, &bind(&dag, taps)).map_err(|e| e.to_string())
}

/// The value a compile request must produce: the pool binds input `i`
/// (declaration order) to `i + 1`.
///
/// # Errors
///
/// A rendering of the reference evaluator's error.
pub fn program_value(dag: &Dag) -> Result<u64, String> {
    let values: Vec<u64> = (1..=dag.inputs().len() as u64).collect();
    apim_compile::evaluate(dag, &bind(dag, &values)).map_err(|e| e.to_string())
}

/// Checks a pool answer to a pixel request.
///
/// # Errors
///
/// Describes the mismatch.
pub fn check_pixel(request: &Request, output: &JobOutput) -> Result<(), String> {
    let (JobKind::Pixel { app, taps }, JobOutput::Pixel { value, .. }) = (&request.kind, output)
    else {
        return Err(format!("pixel request answered with {output:?}"));
    };
    let expected = pixel_value(*app, taps)?;
    if *value == expected {
        Ok(())
    } else {
        Err(format!(
            "{} pixel {taps:?}: got {value}, expected {expected}",
            app.name()
        ))
    }
}

/// Checks a pool answer to a compile request against the generator's DAG.
///
/// # Errors
///
/// Describes the mismatch.
pub fn check_program(dag: &Dag, output: &JobOutput) -> Result<(), String> {
    let JobOutput::Compile { value, .. } = output else {
        return Err(format!("compile request answered with {output:?}"));
    };
    let expected = program_value(dag)?;
    if *value == expected {
        Ok(())
    } else {
        Err(format!("program: got {value}, expected {expected}"))
    }
}

/// The SplitMix64 finalizer the wire digest folds each value with.
fn fold(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Checks a cluster answer to an `Echo`, `Multiply` or `Mac` request: the
/// digest must match the exact result and the summary must name it.
///
/// # Errors
///
/// Describes the mismatch.
pub fn check_fleet(request: &Request, response: &ClusterResponse) -> Result<(), String> {
    let out = &response.output;
    let (digest, summary_ok) = match &request.kind {
        JobKind::Echo { payload } => (fold(*payload), out.summary == format!("echo {payload}")),
        JobKind::Multiply { a, b } => {
            let p = u128::from(*a) * u128::from(*b);
            (
                fold(p as u64) ^ fold((p >> 64) as u64),
                out.summary == format!("product {p}"),
            )
        }
        JobKind::Mac { pairs } => (
            pairs
                .iter()
                .map(|&(a, b)| fold((u128::from(a) * u128::from(b)) as u64))
                .fold(0, |acc, h| acc ^ h),
            out.summary.starts_with(&format!("mac x{} ", pairs.len())),
        ),
        other => return Err(format!("unexpected fleet request {other:?}")),
    };
    if out.digest == digest && summary_ok {
        Ok(())
    } else {
        Err(format!(
            "{:?}: got digest {:#x} `{}`, expected digest {digest:#x}",
            request.kind, out.digest, out.summary
        ))
    }
}

/// Checks a pool answer to a sweep job against its serial campaign row.
/// Reports are compared through their full `Debug` rendering, which spells
/// every float with round-trip precision, so equality is bit-for-bit.
///
/// # Errors
///
/// Describes the mismatch.
pub fn check_run(expected: &RunReport, output: &JobOutput) -> Result<(), String> {
    let JobOutput::Run(report) = output else {
        return Err(format!("run request answered with {output:?}"));
    };
    if format!("{report:?}") == format!("{expected:?}") {
        Ok(())
    } else {
        Err(format!(
            "{} {} MB [{}]: pool row differs from the serial campaign row",
            expected.app.name(),
            expected.dataset_bytes >> 20,
            expected.mode
        ))
    }
}
