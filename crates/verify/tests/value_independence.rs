//! The hazard passes are value-independent: `verify_trace` judges a
//! microprogram by its shape — which cells each primitive touches, in what
//! order, at what cycle cost — never by the data it carried. Randomizing
//! every recorded data payload (`PreloadBit.value`, the bits of each
//! `PreloadWord`, `WriteBackBit.value`) must leave the report identical,
//! on clean traces and on traces with injected hazards alike.

use std::collections::HashMap;

use apim_compile::{compile, compile_batched, CompileOptions, Dag};
use apim_crossbar::{OpTrace, TraceOp};
use apim_device::DeviceParams;
use apim_logic::mac::CrossbarMac;
use apim_logic::multiplier::CrossbarMultiplier;
use apim_logic::{CostModel, PrecisionMode};
use apim_verify::verify_trace;
use apim_workloads::dags::{sharpen_dag, sobel_gradient_dag};

const WIDTH: u32 = 16;

/// A recorded microprogram and the cycle count its cost model predicts.
struct Recorded {
    name: &'static str,
    trace: OpTrace,
    expected_cycles: u64,
}

/// SplitMix64: a tiny seeded generator for the payload bits.
struct SplitMix(u64);

impl SplitMix {
    fn bit(&mut self) -> bool {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) & 1 == 1
    }
}

fn bind(dag: &Dag, salt: u64) -> HashMap<String, u64> {
    dag.inputs()
        .iter()
        .enumerate()
        .map(|(i, name)| (name.to_string(), 37 * i as u64 + salt))
        .collect()
}

/// The serial program's recorded trace for one binding.
fn record_serial(name: &'static str, dag: &Dag) -> Recorded {
    let program = compile(dag, &CompileOptions::default()).expect("compile");
    let inputs = bind(dag, 11);
    let expected_cycles = program.run(&inputs).expect("run").expected_cycles;
    let (trace, _, _) = program.record(&inputs).expect("record");
    Recorded {
        name,
        trace,
        expected_cycles,
    }
}

/// An 8-lane program's recorded trace.
fn record_batched(name: &'static str, dag: &Dag) -> Recorded {
    let program = compile_batched(dag, &CompileOptions::default(), 8).expect("compile_batched");
    let inputs: Vec<_> = (0..8).map(|lane| bind(dag, 5 + 13 * lane)).collect();
    let expected_cycles = program.run(&inputs).expect("run").expected_cycles;
    let (trace, _, _) = program.record(&inputs, 0).expect("record");
    Recorded {
        name,
        trace,
        expected_cycles,
    }
}

/// The exact multiplier, recorded as `apim verify` records it.
fn record_multiplier() -> Recorded {
    let (a, b) = (0x79B9, 0xE667);
    let mut mul = CrossbarMultiplier::new(WIDTH, &DeviceParams::default()).expect("multiplier");
    mul.crossbar_mut().start_recording();
    mul.multiply(a, b, PrecisionMode::Exact).expect("multiply");
    let model = CostModel::new(&DeviceParams::default());
    Recorded {
        name: "multiplier",
        trace: mul.crossbar_mut().stop_recording(),
        expected_cycles: model.multiply(WIDTH, b, PrecisionMode::Exact).cycles.get(),
    }
}

/// The fused three-term MAC.
fn record_mac() -> Recorded {
    let terms = [(0x0C3A, 0x55), (0x00B7, 0x91), (0x0D05, 0x36)];
    let mut mac = CrossbarMac::new(WIDTH, 4, &DeviceParams::default()).expect("mac");
    mac.crossbar_mut().start_recording();
    mac.mac(&terms, PrecisionMode::Exact).expect("mac");
    let model = CostModel::new(&DeviceParams::default());
    let multipliers: Vec<u64> = terms.iter().map(|&(_, b)| b).collect();
    Recorded {
        name: "mac",
        trace: mac.crossbar_mut().stop_recording(),
        expected_cycles: model
            .mac_group_value(WIDTH, &multipliers, PrecisionMode::Exact)
            .cycles
            .get(),
    }
}

fn recordings() -> Vec<Recorded> {
    vec![
        record_serial("sharpen", &sharpen_dag()),
        record_serial("sobel", &sobel_gradient_dag()),
        record_batched("sharpen x8", &sharpen_dag()),
        record_batched("sobel x8", &sobel_gradient_dag()),
        record_multiplier(),
        record_mac(),
    ]
}

/// A copy of `trace` with every data payload redrawn from `seed`, plus the
/// number of payload bits the redraw flipped.
fn randomize_payloads(trace: &OpTrace, seed: u64) -> (OpTrace, usize) {
    let mut rng = SplitMix(seed);
    let mut flipped = 0;
    let mut redraw = |bit: &mut bool| {
        let new = rng.bit();
        flipped += usize::from(new != *bit);
        *bit = new;
    };
    let mut out = trace.clone();
    for op in &mut out.ops {
        match op {
            TraceOp::PreloadBit { value, .. } | TraceOp::WriteBackBit { value, .. } => {
                redraw(value);
            }
            TraceOp::PreloadWord { bits, .. } => bits.iter_mut().for_each(&mut redraw),
            _ => {}
        }
    }
    (out, flipped)
}

/// `trace` with every third initialization dropped: a dirty microprogram
/// whose findings the randomization must not move either.
fn drop_inits(trace: &OpTrace) -> OpTrace {
    let mut out = trace.clone();
    let mut seen = 0usize;
    out.ops.retain(|op| {
        let init = matches!(
            op,
            TraceOp::InitRows { .. } | TraceOp::InitCells { .. } | TraceOp::InitCols { .. }
        );
        seen += usize::from(init);
        !(init && seen.is_multiple_of(3))
    });
    out
}

#[test]
fn randomized_payloads_leave_clean_reports_identical() {
    for recorded in recordings() {
        let expected = Some(recorded.expected_cycles);
        let report = verify_trace(&recorded.trace, &[], expected);
        assert!(report.is_clean(), "{}: {report}", recorded.name);
        for seed in 1..=4 {
            let (randomized, flipped) = randomize_payloads(&recorded.trace, seed);
            assert!(
                flipped > 0,
                "{}: seed {seed} flipped nothing",
                recorded.name
            );
            assert_eq!(
                verify_trace(&randomized, &[], expected),
                report,
                "{} seed {seed}",
                recorded.name
            );
        }
    }
}

#[test]
fn randomized_payloads_leave_hazard_findings_identical() {
    for recorded in recordings() {
        let expected = Some(recorded.expected_cycles);
        let dirty = drop_inits(&recorded.trace);
        let report = verify_trace(&dirty, &[], expected);
        assert!(
            report.error_count() > 0,
            "{}: no injected hazard",
            recorded.name
        );
        for seed in 1..=4 {
            let (randomized, _) = randomize_payloads(&dirty, seed);
            assert_eq!(
                verify_trace(&randomized, &[], expected),
                report,
                "{} seed {seed}",
                recorded.name
            );
        }
    }
}
