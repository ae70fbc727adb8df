//! Miscompile fixtures for the transcendental microkernels: compiled
//! `sin`, `cos` and `sqrt` programs each get a deliberate bug injected
//! into their recorded microprograms, and the symbolic equivalence
//! checker must catch it with a counterexample that replays concretely.
//!
//! The traces come from real `apim-compile` output
//! ([`apim_compile::CompiledProgram::record`]) — thousands of MAGIC ops
//! per kernel — so these fixtures exercise the checker at compiled-CORDIC
//! scale, not toy-adder scale. Compiled programs steer partial-product
//! placement through sense-amplifier reads, so operands stay concrete and
//! each check covers the recorded specialization (one assignment, full
//! X-propagation and write-back cross-checking).
//!
//! Mutations are injected *after the last host read/write-back* in the
//! trace: corruption upstream of host logic is caught even earlier, by
//! the write-back divergence cross-check (see
//! `write_back_divergence_is_caught_even_earlier`), so the interesting
//! fixtures live in the final all-in-crossbar serial adder where only the
//! output comparison can see them.

use std::collections::HashMap;

use apim_compile::{compile, CompileOptions, Dag};
use apim_crossbar::{OpTrace, TraceOp};
use apim_math::consts::half_pi_q;
use apim_math::{default_spec, to_pattern, MathFn};
use apim_verify::{check_equiv, CheckMode, Counterexample, OutputBinding};

const WIDTH: u32 = 12;

/// Compiles `func(x)` at width 12 with its default spec and records one
/// gate-level run at `input`.
fn record_math(func: MathFn, input: i64) -> (OpTrace, OutputBinding, u64) {
    let mut dag = Dag::new(WIDTH).unwrap();
    let x = dag.input("x").unwrap();
    let m = dag.math(x, default_spec(func, WIDTH)).unwrap();
    dag.set_root(m).unwrap();
    let program = compile(&dag, &CompileOptions::default()).unwrap();
    let inputs: HashMap<String, u64> = [("x".to_string(), to_pattern(input, WIDTH))].into();
    program.record(&inputs).unwrap()
}

/// A `(row, col)` cell coordinate.
type Cell = (usize, usize);

/// The block, inputs and output cell of a single-cell NOR gate: a
/// `NorCells`, or the one-lane `NorLanes { lanes: 1 }` form the serial
/// adder issues.
fn single_cell_nor(op: &TraceOp) -> Option<(usize, &[Cell], Cell)> {
    match op {
        TraceOp::NorCells { block, inputs, out }
        | TraceOp::NorLanes {
            block,
            inputs,
            out,
            lanes: 1,
        } => Some((*block, inputs, *out)),
        _ => None,
    }
}

/// Mutable inputs and output cell of a [`single_cell_nor`] gate.
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

/// For each output column, the index of the LAST single-cell NOR gate
/// writing that cell of the output row — the final serial adder's sum-bit
/// stores, which nothing reads afterwards (so corrupting one is invisible
/// to every detection tier except the output comparison). Sorted by
/// column.
fn final_root_gates(trace: &OpTrace, output: &OutputBinding) -> Vec<usize> {
    let mut last: HashMap<usize, usize> = HashMap::new();
    for (i, op) in trace.ops.iter().enumerate() {
        if let Some((block, _, out)) = single_cell_nor(op) {
            if block == output.block && out.0 == output.row {
                last.insert(out.1, i);
            }
        }
    }
    let mut cols: Vec<usize> = last.keys().copied().collect();
    cols.sort_unstable();
    cols.into_iter().map(|c| last[&c]).collect()
}

/// The checker proves the recorded (unmutated) trace computes its
/// reference, then the mutated trace must fail with a counterexample
/// whose concrete replay reproduces the same expected/got pair.
fn assert_caught_and_replayable(
    good: &OpTrace,
    bad: &OpTrace,
    output: &OutputBinding,
    reference: u64,
) -> Counterexample {
    let baseline = check_equiv(good, &[], output, move |_| reference);
    assert!(
        baseline.equivalent,
        "unmutated compiler output must verify: {:?}",
        baseline.counterexample
    );

    let report = check_equiv(bad, &[], output, move |_| reference);
    assert!(!report.equivalent, "the injected miscompile must be caught");
    assert_eq!(
        report.mode,
        CheckMode::Exhaustive { assignments: 1 },
        "concrete operands: the one recorded assignment is covered\nlint: {}",
        report.lint
    );
    let cx = report.counterexample.expect("a concrete counterexample");
    assert_ne!(cx.got, cx.expected);
    assert_eq!(cx.expected, reference);

    // Replay: re-check the same concrete trace against the reported
    // expectation — the mismatch must reproduce bit for bit.
    let expected = cx.expected;
    let replay = check_equiv(bad, &[], output, move |_| expected);
    assert!(!replay.equivalent, "replay must reproduce the mismatch");
    let rcx = replay.counterexample.expect("replay counterexample");
    assert_eq!(rcx.got, cx.got, "replayed value matches the report");
    assert_eq!(rcx.expected, cx.expected);
    cx
}

#[test]
fn sin_duplicated_nor_operand_is_caught() {
    // π/6 in Q9: sin = 0.5 → 257 in the fixed-point kernel.
    let (trace, output, reference) = record_math(MathFn::Sin, half_pi_q(9) / 3);
    // One of the final sum-bit gates reads a wordline twice instead of its
    // two distinct operands — a wrong operand binding, perfectly
    // hazard-clean. NOR(a, a) = NOR(a, b) whenever the recorded b equals
    // a, so probe the gates newest-first for one where the bug bites.
    let caught = final_root_gates(&trace, &output)
        .into_iter()
        .rev()
        .find_map(|i| {
            let mut bad = trace.clone();
            let Some((inputs, _)) = single_cell_nor_mut(&mut bad.ops[i]) else {
                unreachable!("final_root_gates only returns single-cell NORs");
            };
            if inputs.len() < 2 || inputs[0] == inputs[1] {
                return None;
            }
            inputs[1] = inputs[0];
            let r = check_equiv(&bad, &[], &output, move |_| reference);
            (!r.equivalent && r.counterexample.is_some()).then_some(bad)
        })
        .expect("at least one duplicated-operand gate must change the sum");
    let cx = assert_caught_and_replayable(&trace, &caught, &output, reference);
    assert_eq!(cx.expected, 257);
}

#[test]
fn cos_swapped_output_cells_are_caught() {
    // π/10 in Q9: cos ≈ 0.951 → 487 = 0b0111100111.
    let (trace, output, reference) = record_math(MathFn::Cos, half_pi_q(9) / 5);
    assert_eq!(reference, 487);
    let mut bad = trace.clone();
    // Two sum-bit stores (and their matching pre-write inits) land in each
    // other's columns. Picking columns whose reference bits differ makes
    // the transposition guaranteed-visible.
    let gates = final_root_gates(&bad, &output);
    let col_of = |t: &OpTrace, i: usize| match single_cell_nor(&t.ops[i]) {
        Some((_, _, out)) => out.1,
        None => unreachable!(),
    };
    let (gi, gj) = {
        let mut pick = None;
        'outer: for (a, &i) in gates.iter().enumerate() {
            for &j in &gates[a + 1..] {
                let (ci, cj) = (col_of(&bad, i), col_of(&bad, j));
                if (reference >> ci) & 1 != (reference >> cj) & 1 {
                    pick = Some((i, j));
                    break 'outer;
                }
            }
        }
        pick.expect("two sum bits with differing values exist")
    };
    let (ci, cj) = (col_of(&bad, gi), col_of(&bad, gj));
    let row = output.row;
    // Swap the two gates' output cells and their immediately-preceding
    // single-cell inits (the init/write pair must move together, or the
    // mutation would trade one bug for an uninitialized-write hazard). A
    // one-lane gate's init is the one-cell `InitRows` span of its lane
    // form; a `NorCells` gate's is an `InitCells` entry.
    for g in [gi, gj] {
        let (from, to) = if g == gi { (ci, cj) } else { (cj, ci) };
        let Some((_, out)) = single_cell_nor_mut(&mut bad.ops[g]) else {
            unreachable!("final_root_gates only returns single-cell NORs");
        };
        assert_eq!(*out, (row, from));
        *out = (row, to);
        let inits_cell = |op: &TraceOp| match op {
            TraceOp::InitCells { block, cells } => {
                *block == output.block && cells.contains(&(row, from))
            }
            TraceOp::InitRows { block, rows, cols } => {
                *block == output.block && rows.contains(&row) && *cols == (from..from + 1)
            }
            _ => false,
        };
        let init = (g.saturating_sub(5)..g)
            .rev()
            .find(|&j| inits_cell(&bad.ops[j]))
            .expect("each sum-bit store is preceded by its init");
        match &mut bad.ops[init] {
            TraceOp::InitCells { cells, .. } => {
                for cell in cells.iter_mut() {
                    if *cell == (row, from) {
                        *cell = (row, to);
                    }
                }
            }
            TraceOp::InitRows { cols, .. } => *cols = to..to + 1,
            _ => unreachable!("found above"),
        }
    }
    let cx = assert_caught_and_replayable(&trace, &bad, &output, reference);
    // The transposition swaps exactly the two chosen bits.
    let swap_mask = (1u64 << ci) | (1u64 << cj);
    assert_eq!(cx.got, reference ^ swap_mask);
}

#[test]
fn sqrt_stale_scratch_read_is_caught() {
    // 1521 = 39²: the reference is exact, every result bit is meaningful.
    let (trace, output, reference) = record_math(MathFn::Sqrt, 1521);
    assert_eq!(reference, 39);
    // A sum-bit gate reads one operand from the previous bit's column — a
    // stale value the earlier iteration left behind, so perfectly
    // initialized and invisible to the hazard passes. Probe newest-first
    // for a gate where the stale bit differs from the live one.
    let caught = final_root_gates(&trace, &output)
        .into_iter()
        .rev()
        .find_map(|i| {
            let mut bad = trace.clone();
            let Some((inputs, _)) = single_cell_nor_mut(&mut bad.ops[i]) else {
                unreachable!("final_root_gates only returns single-cell NORs");
            };
            let cell = inputs.iter_mut().find(|c| c.1 >= 1)?;
            cell.1 -= 1;
            let r = check_equiv(&bad, &[], &output, move |_| reference);
            (!r.equivalent && r.counterexample.is_some()).then_some(bad)
        })
        .expect("at least one stale-column read must change the sum");
    assert_caught_and_replayable(&trace, &caught, &output, reference);
}

/// Corruption *upstream* of host logic does not need the output
/// comparison at all: the write-back divergence cross-check aborts the
/// proof with an error finding. Kept as a fixture so the two detection
/// tiers stay distinguishable.
#[test]
fn write_back_divergence_is_caught_even_earlier() {
    let (trace, output, reference) = record_math(MathFn::Sqrt, 1521);
    let mut bad = trace.clone();
    let bits = bad
        .ops
        .iter_mut()
        .find_map(|op| match op {
            TraceOp::PreloadWord { bits, .. } => Some(bits),
            _ => None,
        })
        .expect("compiled programs stage operands via preload_word");
    bits[0] = !bits[0];
    let report = check_equiv(&bad, &[], &output, move |_| reference);
    assert!(!report.equivalent);
    assert_eq!(report.mode, CheckMode::Aborted);
    assert!(
        report.lint.error_count() > 0,
        "divergence findings carry error severity"
    );
    assert!(report.lint.to_string().contains("write-back"));
}
