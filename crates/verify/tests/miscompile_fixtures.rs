//! Five deliberately-miscompiled microprograms, each the kind of bug the
//! hazard passes cannot see (every fixture is hazard-clean: cells are
//! initialized, shifts are in bounds, lifetimes pair up) but the symbolic
//! equivalence checker must: it computes *the wrong function*.
//!
//! Fixtures 1–4 mutate a recorded 4-bit serial-adder trace; fixture 5
//! hand-records a shifted copy with the shift dropped. Every check ends
//! with a concrete counterexample that is then replayed: the reported
//! input assignment is substituted into the trace's preloads and the
//! single-assignment re-check reproduces the exact expected/got pair.

use apim_crossbar::{BlockedCrossbar, CrossbarConfig, OpTrace, RowAllocator, RowRef, TraceOp};
use apim_logic::adder_serial::{add_words, SerialScratch};
use apim_logic::spec;
use apim_verify::{
    check_equiv, CheckMode, Counterexample, EquivReport, OperandBinding, OutputBinding,
};

const N: usize = 4;

fn bits(v: u64, n: usize) -> Vec<bool> {
    (0..n).map(|i| (v >> i) & 1 == 1).collect()
}

/// A correct 4-bit serial-adder recording plus the layout facts the
/// mutations need.
struct Recorded {
    trace: OpTrace,
    block: usize,
    x_row: usize,
    y_row: usize,
    out_row: usize,
    scratch: SerialScratch,
}

fn record_adder4() -> Recorded {
    let mut xbar = BlockedCrossbar::new(CrossbarConfig::default()).unwrap();
    let blk = xbar.block(1).unwrap();
    let mut alloc = RowAllocator::new(xbar.rows());
    let rows = alloc.alloc_many(3).unwrap();
    let scratch = SerialScratch::alloc(&mut alloc).unwrap();
    xbar.start_recording();
    xbar.preload_word(blk, rows[0], 0, &bits(0b1011, N))
        .unwrap();
    xbar.preload_word(blk, rows[1], 0, &bits(0b0110, N))
        .unwrap();
    add_words(&mut xbar, blk, rows[0], rows[1], rows[2], 0..N, &scratch).unwrap();
    Recorded {
        trace: xbar.stop_recording(),
        block: blk.index(),
        x_row: rows[0],
        y_row: rows[1],
        out_row: rows[2],
        scratch,
    }
}

/// A `(row, col)` cell coordinate.
type Cell = (usize, usize);

/// Mutable inputs and output cell of a single-cell NOR gate: a
/// `NorCells`, or the one-lane `NorLanes { lanes: 1 }` form the serial
/// adder issues.
fn single_cell_nor_mut(op: &mut TraceOp) -> Option<(&mut Vec<Cell>, &mut Cell)> {
    match op {
        TraceOp::NorCells { inputs, out, .. }
        | TraceOp::NorLanes {
            inputs,
            out,
            lanes: 1,
            ..
        } => Some((inputs, out)),
        _ => None,
    }
}

fn adder_bindings(r: &Recorded) -> [OperandBinding; 2] {
    [
        OperandBinding {
            name: "x".into(),
            block: r.block,
            row: r.x_row,
            col0: 0,
            width: N,
            col_step: 1,
        },
        OperandBinding {
            name: "y".into(),
            block: r.block,
            row: r.y_row,
            col0: 0,
            width: N,
            col_step: 1,
        },
    ]
}

fn adder_output(r: &Recorded) -> OutputBinding {
    OutputBinding {
        block: r.block,
        row: r.out_row,
        col0: 0,
        width: N,
        col_step: 1,
    }
}

fn check_adder(trace: &OpTrace, r: &Recorded) -> EquivReport {
    check_equiv(trace, &adder_bindings(r), &adder_output(r), |v| {
        spec::add(v[0], v[1], N)
    })
}

/// Substitutes the counterexample assignment into the trace's operand
/// preloads and re-checks the now fully-concrete program: the mismatch
/// must reproduce bit for bit under a single-assignment evaluation.
fn assert_replayable(
    trace: &OpTrace,
    operand_rows: &[(&str, usize)],
    block: usize,
    output: &OutputBinding,
    cx: &Counterexample,
) {
    let mut concrete = trace.clone();
    for op in &mut concrete.ops {
        if let TraceOp::PreloadWord {
            block: b,
            row,
            col0: 0,
            bits: stored,
        } = op
        {
            if *b != block {
                continue;
            }
            if let Some((name, _)) = operand_rows.iter().find(|&&(_, r)| r == *row) {
                let v = cx
                    .inputs
                    .iter()
                    .find(|(n, _)| n == name)
                    .map(|&(_, v)| v)
                    .expect("counterexample names every bound operand");
                *stored = bits(v, stored.len());
            }
        }
    }
    let expected = cx.expected;
    let replay = check_equiv(&concrete, &[], output, move |_| expected);
    assert_eq!(
        replay.mode,
        CheckMode::Exhaustive { assignments: 1 },
        "concrete replay is a single-assignment evaluation"
    );
    assert!(!replay.equivalent, "replay must reproduce the mismatch");
    let rcx = replay.counterexample.expect("replay counterexample");
    assert_eq!(rcx.got, cx.got, "replayed value matches the report");
    assert_eq!(rcx.expected, cx.expected);
}

/// Checks a mutated adder trace: not equivalent, exhaustive over all 256
/// assignments, and the counterexample replays concretely.
fn assert_adder_counterexample(trace: &OpTrace, r: &Recorded) -> Counterexample {
    let report = check_adder(trace, r);
    assert!(!report.equivalent, "miscompile must be caught");
    assert_eq!(
        report.mode,
        CheckMode::Exhaustive { assignments: 256 },
        "4+4 input bits are checked exhaustively"
    );
    let cx = report.counterexample.expect("a concrete counterexample");
    assert_ne!(cx.got, cx.expected);
    assert_replayable(
        trace,
        &[("x", r.x_row), ("y", r.y_row)],
        r.block,
        &adder_output(r),
        &cx,
    );
    cx
}

#[test]
fn fixture_1_wrong_operand_row() {
    let r = record_adder4();
    let mut t = r.trace.clone();
    // The bit-0 n1 gate reads the x wordline twice instead of (x, y): the
    // compiler bound the wrong operand row.
    let inputs = t
        .ops
        .iter_mut()
        .find_map(|op| match single_cell_nor_mut(op) {
            Some((inputs, _))
                if inputs.contains(&(r.x_row, 0)) && inputs.contains(&(r.y_row, 0)) =>
            {
                Some(inputs)
            }
            _ => None,
        })
        .expect("the netlist opens with n1 = NOR(x, y)");
    for cell in inputs.iter_mut() {
        if *cell == (r.y_row, 0) {
            *cell = (r.x_row, 0);
        }
    }
    assert_adder_counterexample(&t, &r);
}

#[test]
fn fixture_2_dropped_carry() {
    let r = record_adder4();
    let mut t = r.trace.clone();
    // Every read of a ripple carry (columns >= 1) is redirected to the
    // seeded bit-0 cell: the carry chain is severed and the program
    // degenerates to XOR. Writes stay put, so nothing is uninitialized.
    for op in &mut t.ops {
        if let Some((inputs, _)) = single_cell_nor_mut(op) {
            for cell in inputs.iter_mut() {
                if cell.0 == r.scratch.carry && cell.1 >= 1 {
                    cell.1 = 0;
                }
            }
        }
    }
    let cx = assert_adder_counterexample(&t, &r);
    // The severed chain computes exactly XOR, so the counterexample's
    // wrong value must be the XOR of its inputs.
    let lookup = |name: &str| cx.inputs.iter().find(|(n, _)| n == name).unwrap().1;
    assert_eq!(cx.got, lookup("x") ^ lookup("y"));
}

#[test]
fn fixture_3_swapped_output_cells() {
    let r = record_adder4();
    let mut t = r.trace.clone();
    // Every sum-bit store (and its matching init) lands in the adjacent
    // column: the output word comes back with bit pairs transposed. A
    // one-lane gate's init is a one-cell `InitRows` span.
    for op in &mut t.ops {
        match op {
            TraceOp::InitCells { cells, .. } => {
                for cell in cells.iter_mut() {
                    if cell.0 == r.out_row {
                        cell.1 ^= 1;
                    }
                }
            }
            TraceOp::InitRows { rows, cols, .. } if *rows == [r.out_row] && cols.len() == 1 => {
                let col = cols.start ^ 1;
                *cols = col..col + 1;
            }
            _ => {
                if let Some((_, out)) = single_cell_nor_mut(op) {
                    if out.0 == r.out_row {
                        out.1 ^= 1;
                    }
                }
            }
        }
    }
    assert_adder_counterexample(&t, &r);
}

#[test]
fn fixture_4_stale_scratch_read() {
    let r = record_adder4();
    let mut t = r.trace.clone();
    // The first bit-1 gate whose operands are all scratch rows (n4 =
    // NOR(n2, n3)) reads one operand from bit 0's column — a stale value
    // the previous iteration left behind, so perfectly initialized and
    // invisible to the hazard passes.
    let netlist = r.scratch.netlist;
    let inputs = t
        .ops
        .iter_mut()
        .find_map(|op| match single_cell_nor_mut(op) {
            Some((inputs, out))
                if out.1 == 1 && inputs.iter().all(|c| netlist.contains(&c.0) && c.1 == 1) =>
            {
                Some(inputs)
            }
            _ => None,
        })
        .expect("bit 1 has an all-scratch gate");
    inputs[0].1 = 0;
    assert_adder_counterexample(&t, &r);
}

#[test]
fn fixture_5_off_by_one_shift() {
    // A two-NOT shifted copy whose spec is `y << 1`; the miscompiled
    // variant drops the interconnect shift and copies in place.
    // Interconnect shifts only apply on cross-block hops, so the copy
    // stages its complement through block 1, as the compiler backend does.
    let record = |shift: isize| {
        let mut xbar = BlockedCrossbar::new(CrossbarConfig::default()).unwrap();
        let b0 = xbar.block(0).unwrap();
        let b1 = xbar.block(1).unwrap();
        xbar.start_recording();
        xbar.preload_word(b0, 0, 0, &bits(0b1010, N)).unwrap();
        xbar.init_rows(b1, &[1], 0..N + 1).unwrap();
        xbar.nor_rows_shifted(&[RowRef::new(b0, 0)], RowRef::new(b1, 1), 0..N, shift)
            .unwrap();
        xbar.init_rows(b0, &[2], 0..N + 1).unwrap();
        xbar.nor_rows_shifted(&[RowRef::new(b1, 1)], RowRef::new(b0, 2), 0..N + 1, 0)
            .unwrap();
        xbar.stop_recording()
    };
    let operands = [OperandBinding {
        name: "y".into(),
        block: 0,
        row: 0,
        col0: 0,
        width: N,
        col_step: 1,
    }];
    let output = OutputBinding {
        block: 0,
        row: 2,
        col0: 0,
        width: N + 1,
        col_step: 1,
    };
    let spec = |v: &[u64]| (v[0] << 1) & spec::mask(N + 1);

    let good = check_equiv(&record(1), &operands, &output, spec);
    assert!(
        good.equivalent,
        "the correctly-shifted copy proves: {:?}",
        good
    );

    let report = check_equiv(&record(0), &operands, &output, spec);
    assert!(!report.equivalent, "the dropped shift must be caught");
    assert_eq!(report.mode, CheckMode::Exhaustive { assignments: 16 });
    let cx = report.counterexample.expect("a concrete counterexample");
    let y = cx.inputs.iter().find(|(n, _)| n == "y").unwrap().1;
    assert_eq!(cx.expected, (y << 1) & spec::mask(N + 1));
    assert_eq!(cx.got, y, "the unshifted copy returns y itself");
    assert_replayable(&record(0), &[("y", 0)], 0, &output, &cx);
}

/// The unmutated recording is equivalent — the fixtures fail because of
/// their injected bugs, not the harness.
#[test]
fn baseline_adder_recording_is_equivalent() {
    let r = record_adder4();
    let report = check_adder(&r.trace, &r);
    assert!(report.equivalent, "{:?}", report.counterexample);
    assert_eq!(report.mode, CheckMode::Exhaustive { assignments: 256 });
}
