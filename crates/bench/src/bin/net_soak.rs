//! Sustained cluster-transport soak: a pipelined window of multiplexed
//! RPCs vs the closed-loop baseline (one thread per stream, one RPC at a
//! time) over the same event-loop transport, on echo probes so the
//! measurement isolates transport cost. Writes `BENCH_net.json`.
//!
//! ```text
//! cargo run -p apim-bench --release --bin net-soak            # full soak
//! cargo run -p apim-bench --release --bin net-soak -- --quick # CI smoke
//! ```
//!
//! The full soak pushes 100k requests over 1000 concurrent logical
//! streams. Both modes *gate* on zero lost requests and bit-identical
//! checksums across drivers; on multi-core machines they additionally
//! gate on pipelined p99 latency and on the pipelined window clearing at
//! least 2x the closed-loop baseline's throughput (timing gates are
//! skipped on single-core machines, where scheduling noise dominates).

use apim_cluster::loadgen::{soak, SoakConfig, SoakReport};
use std::env;
use std::fs;
use std::process::ExitCode;

/// Pipelined p99 latency gate, µs. Generous — the soak keeps every
/// stream's request in flight, so queueing delay dominates — but low
/// enough to catch an event loop that stalls connections.
const P99_GATE_US: u64 = 200_000;
/// Required pipelined-over-baseline throughput ratio.
const SPEEDUP_GATE: f64 = 2.0;

fn render(report: &SoakReport) -> String {
    format!(
        "{} requests / {} streams: {:.0} req/s, p50 {} µs, p99 {} µs, \
         {} succeeded, {} rejected, {} lost, elapsed {:.3} s",
        report.offered,
        report.streams,
        report.throughput_rps,
        report.p50_us,
        report.p99_us,
        report.succeeded,
        report.rejected,
        report.lost,
        report.elapsed.as_secs_f64(),
    )
}

fn side_json(report: &SoakReport) -> String {
    format!(
        "{{\"throughput_rps\": {:.1}, \"p50_us\": {}, \"p99_us\": {}, \"succeeded\": {}, \
         \"rejected\": {}, \"lost\": {}, \"elapsed_s\": {:.3}, \"checksum\": \"{:#018x}\"}}",
        report.throughput_rps,
        report.p50_us,
        report.p99_us,
        report.succeeded,
        report.rejected,
        report.lost,
        report.elapsed.as_secs_f64(),
        report.checksum,
    )
}

fn to_json(pipelined: &SoakReport, baseline: &SoakReport, speedup: f64) -> String {
    format!(
        "{{\n  \"requests\": {},\n  \"streams\": {},\n  \"pipelined\": {},\n  \
         \"baseline\": {},\n  \"speedup\": {:.2},\n  \"checksum_match\": {}\n}}\n",
        pipelined.offered,
        pipelined.streams,
        side_json(pipelined),
        side_json(baseline),
        speedup,
        pipelined.checksum == baseline.checksum,
    )
}

fn main() -> ExitCode {
    let quick = env::args().any(|a| a == "--quick");
    let cores = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    let (requests, streams) = if quick {
        (5_000, 200)
    } else {
        (100_000, 1_000)
    };
    let config = SoakConfig {
        requests,
        streams,
        nodes: 2,
        workers: 2,
        pipelined: true,
        driver_threads: cores.clamp(2, 8),
    };

    let pipelined = soak(&config).expect("pipelined soak");
    println!("pipelined  {}", render(&pipelined));
    let baseline = soak(&SoakConfig {
        pipelined: false,
        ..config.clone()
    })
    .expect("closed-loop soak");
    println!("baseline   {}", render(&baseline));
    let speedup = pipelined.throughput_rps / baseline.throughput_rps.max(1e-9);
    println!("pipelined/baseline throughput: {speedup:.2}x");

    if !quick {
        fs::write("BENCH_net.json", to_json(&pipelined, &baseline, speedup))
            .expect("write BENCH_net.json");
        println!("wrote BENCH_net.json");
    }

    // Correctness gates hold on any machine.
    if !pipelined.passed() || !baseline.passed() {
        eprintln!("FAIL: soak lost or rejected requests\n{pipelined}\n{baseline}");
        return ExitCode::FAILURE;
    }
    if pipelined.checksum != baseline.checksum {
        eprintln!(
            "FAIL: drivers disagree: pipelined checksum {:#018x} != baseline {:#018x}",
            pipelined.checksum, baseline.checksum
        );
        return ExitCode::FAILURE;
    }
    println!("gate ok: zero lost on both drivers, checksums bit-identical");

    // Timing gates need real parallelism to mean anything.
    if cores >= 2 {
        if pipelined.p99_us > P99_GATE_US {
            eprintln!(
                "FAIL: pipelined p99 {} µs exceeds gate {} µs",
                pipelined.p99_us, P99_GATE_US
            );
            return ExitCode::FAILURE;
        }
        if speedup < SPEEDUP_GATE {
            eprintln!(
                "FAIL: pipelined throughput only {speedup:.2}x closed-loop baseline \
                 (need >= {SPEEDUP_GATE}x)"
            );
            return ExitCode::FAILURE;
        }
        println!(
            "gate ok: p99 {} µs <= {} µs, throughput {:.2}x >= {}x closed-loop baseline",
            pipelined.p99_us, P99_GATE_US, speedup, SPEEDUP_GATE
        );
    } else {
        println!("timing gates skipped: {cores} core(s), scheduling noise dominates");
    }
    ExitCode::SUCCESS
}
