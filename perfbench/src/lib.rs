//! End-to-end and per-layer wall-clock benchmark of the APIM stack.
//!
//! One command runs one workload from a seed, checks every output against
//! an independent oracle and prints one JSON result line. The system is
//! driven only through the crates' public functions; each layer is timed
//! from outside by wrapping those calls. See `BENCHMARK.json` at the
//! repository root for the workloads and metrics.

pub mod drive;
pub mod gen;
pub mod layers;
pub mod oracle;
pub mod report;
pub mod spans;
pub mod workloads;
