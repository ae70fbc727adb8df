//! The gate-level machine: executes a compiled DAG on simulated cells,
//! `lanes` independent instances per pass, and verifies the captured
//! microprogram.
//!
//! One machine serves both entry points. [`compile`] builds a one-lane
//! program for a single input binding; [`compile_batched`] builds an
//! `L`-lane program (`1 ≤ L ≤ 64`) that runs `L` bindings in one pass.
//! Every value row uses the interleaved layout of [`apim_logic::lanes`]:
//! logical column `c` of lane `j` sits at bitline `c · lanes + j`, which
//! at one lane is the plain word layout. Column-parallel MAGIC NOR costs
//! one cycle whatever its span, so each primitive — the serial adder
//! netlist (`add_lanes`, `sub_lanes`), the shared-NOT partial-product
//! generator, the Wallace reduction (`reduce_rows_to_two_lanes`), the
//! two-NOT copies — covers every lane for the cost of one, and a batch
//! costs (almost) what one instance costs.
//!
//! **Steering.** A program from [`compile`] follows one instance's data,
//! so the sense amplifiers may steer its op stream. It takes that form at
//! exactly four points:
//!
//! 1. inputs and constants are preloaded as one word store per row;
//! 2. `Shr` reads the sign bit through the sense amp and writes it back
//!    into each fill column (`2 + k` cycles);
//! 3. every multiplier — constant ones too — is read through the sense
//!    amps to place the partial products;
//! 4. the §3.4 approximate final product (`relax_bits > 0`) runs its MAJ
//!    carry chain through the sense amps.
//!
//! A [`compile_batched`] program, at any lane count, shares one op stream
//! across its lanes, so nothing may depend on a sensed value: preloads are
//! one store per bit position, the `Shr` sign fill stays in-array
//! (`3 + k` cycles), multipliers must be compile-time constants and
//! products must be exact. [`compile_batched`] rejects the last two with
//! [`CompileError::BatchUnsupported`]. Within that class the recorded
//! trace has the same shape in every lane, so the five hazard passes
//! certify all lanes in one replay, and the symbolic equivalence check
//! moves to lane `j` by re-aiming the output binding (`col0 = j`,
//! `col_step = lanes`).
//!
//! Every execution runs with operation recording armed and finishes by
//! replaying the trace through all five `apim-verify` hazard passes,
//! including cycle accounting against the closed-form cost this module
//! accumulates node by node. A finding of error severity aborts the run
//! with [`CompileError::VerificationFailed`]. A machine invariant that
//! fails at run time aborts it with [`CompileError::MachineCheck`].

use std::collections::HashMap;
use std::ops::Range;

use apim_arch::isa::Trace;
use apim_crossbar::{
    AllocEvent, BlockId, BlockedCrossbar, CrossbarConfig, OpTrace, RowAllocator, RowRef, WORD_BITS,
};
use apim_device::Joules;
use apim_logic::adder_serial::SerialScratch;
use apim_logic::functional::partial_product_shifts;
use apim_logic::lanes::{add_lanes, preload_lanes, read_lanes, sub_lanes};
use apim_logic::multiplier::{final_add, place_partial_products};
use apim_logic::wallace::reduce_rows_to_two_lanes;
use apim_logic::{CostModel, PrecisionMode};
use apim_verify::{check_equiv, verify_trace, EquivReport, LintReport, OutputBinding};

use crate::eval::evaluate_all;
use crate::expand::expand_math;
use crate::ir::{Dag, Node, NodeId};
use crate::lower::lower;
use crate::plan::{
    mul_copy_overhead, mul_multiplier, place, schedule, serial_copy_overhead, BlockSchedule,
    Placement, Slot, ROW_AUX, ROW_RES, ROW_X, ROW_Y,
};
use crate::CompileError;

/// Knobs for [`compile`] and [`compile_batched`].
#[derive(Debug, Clone)]
pub struct CompileOptions {
    /// Target crossbar geometry (and device parameters).
    pub config: CrossbarConfig,
    /// Run the negated-constant strength reduction before placement.
    pub strength_reduce: bool,
}

impl Default for CompileOptions {
    fn default() -> Self {
        CompileOptions {
            config: CrossbarConfig::default(),
            strength_reduce: true,
        }
    }
}

/// A DAG compiled against a concrete crossbar geometry, for one input
/// binding per run.
#[derive(Debug, Clone)]
pub struct CompiledProgram {
    core: Program,
}

/// A DAG compiled for lane-batched execution: `lanes` input bindings per
/// run.
#[derive(Debug, Clone)]
pub struct BatchCompiledProgram {
    core: Program,
}

/// Outcome of one gate-level execution of a [`CompiledProgram`].
#[derive(Debug, Clone)]
pub struct RunReport {
    /// The value read back from the crossbar's result row.
    pub value: u64,
    /// The pure-integer reference value ([`crate::eval::evaluate`]) — equal
    /// to `value` for a correct compiler.
    pub reference: u64,
    /// Cycles actually charged by the simulated crossbar.
    pub cycles: u64,
    /// The closed-form cycle prediction fed to the cycle-accounting pass.
    pub expected_cycles: u64,
    /// Energy actually charged by the simulated crossbar.
    pub energy: Joules,
    /// Number of recorded microprogram primitives.
    pub trace_len: usize,
    /// The full hazard report (clean for a correct compiler).
    pub lint: LintReport,
}

/// Outcome of one lane-batched gate-level execution.
#[derive(Debug, Clone)]
pub struct BatchRunReport {
    /// Per-lane values read back from the crossbar's result row.
    pub values: Vec<u64>,
    /// Per-lane pure-integer reference values; equal to `values` for a
    /// correct compiler.
    pub references: Vec<u64>,
    /// Cycles charged by the simulated crossbar — for the whole batch, not
    /// per instance.
    pub cycles: u64,
    /// The closed-form cycle prediction fed to the cycle-accounting pass.
    pub expected_cycles: u64,
    /// Energy charged by the simulated crossbar.
    pub energy: Joules,
    /// Number of recorded microprogram primitives.
    pub trace_len: usize,
    /// The full hazard report (clean for a correct compiler).
    pub lint: LintReport,
}

/// Compiles `dag` for the geometry in `options`: math expansion,
/// optimization, lowering, placement and block-pair scheduling.
/// Gate-level execution is deferred to [`CompiledProgram::run`].
///
/// # Errors
///
/// [`CompileError::NoRoot`] without a designated output,
/// [`CompileError::AreaExceeded`] when the program does not fit.
pub fn compile(dag: &Dag, options: &CompileOptions) -> Result<CompiledProgram, CompileError> {
    let core = Program::build(dag, options, 1, true)?;
    Ok(CompiledProgram { core })
}

/// Compiles `dag` for lane-batched execution at `lanes` instances per
/// pass: the [`compile`] pipeline plus the lane-uniformity check, against
/// a geometry widened to `(width + 2) · lanes` bitlines when the
/// configured crossbar is narrower.
///
/// # Errors
///
/// [`CompileError::BatchUnsupported`] for lane counts outside `1..=64` or
/// DAG features that would need per-lane control flow; otherwise the same
/// failures as [`compile`].
pub fn compile_batched(
    dag: &Dag,
    options: &CompileOptions,
    lanes: usize,
) -> Result<BatchCompiledProgram, CompileError> {
    if lanes == 0 || lanes > WORD_BITS {
        return Err(CompileError::BatchUnsupported(format!(
            "lane count {lanes} outside 1..={WORD_BITS}"
        )));
    }
    let mut options = options.clone();
    options.config.cols = options.config.cols.max((dag.width() as usize + 2) * lanes);
    let core = Program::build(dag, &options, lanes, false)?;
    Ok(BatchCompiledProgram { core })
}

/// Rejects DAG features whose microprogram shape would depend on lane
/// data. Runs on the post-expansion, post-strength-reduction DAG — the one
/// the machine actually executes.
fn check_uniform(dag: &Dag) -> Result<(), CompileError> {
    let approximate = |i: usize| {
        CompileError::BatchUnsupported(format!(
            "node {i}: approximate final product (per-bit carry reads are per-lane control)"
        ))
    };
    for (i, node) in dag.nodes().iter().enumerate() {
        match node {
            Node::Mul { a, b, mode } => {
                if mul_multiplier(dag, *a, *b, *mode).2.is_none() {
                    return Err(CompileError::BatchUnsupported(format!(
                        "node {i}: non-constant multiplier (partial-product placement \
                         would differ per lane)"
                    )));
                }
                if mode.relaxed_product_bits() > 0 {
                    return Err(approximate(i));
                }
            }
            Node::Mac { terms, mode } => {
                if mode.relaxed_product_bits() > 0 {
                    return Err(approximate(i));
                }
                if let Some(t) = terms
                    .iter()
                    .position(|&(_, b)| constant_of(dag, b).is_none())
                {
                    return Err(CompileError::BatchUnsupported(format!(
                        "node {i}: MAC term {t} has a non-constant multiplier"
                    )));
                }
            }
            _ => {}
        }
    }
    Ok(())
}

/// The value of `id` when it is a constant node.
fn constant_of(dag: &Dag, id: NodeId) -> Option<u64> {
    match dag.nodes()[id.0] {
        Node::Const { value } => Some(value),
        _ => None,
    }
}

/// The compiled form both program types view: the executed DAG, its
/// placement, schedule and macro-op trace, and the machine shape.
#[derive(Debug, Clone)]
struct Program {
    dag: Dag,
    placement: Placement,
    schedule: BlockSchedule,
    trace: Trace,
    model: CostModel,
    lanes: usize,
    /// Whether the sense amps may steer the op stream (the four one-lane
    /// forms in the module docs); only [`compile`] programs set it.
    steered: bool,
}

impl Program {
    /// The shared pipeline: math expansion, strength reduction, the
    /// lane-uniformity check (unsteered programs only), placement,
    /// scheduling and lowering.
    fn build(
        dag: &Dag,
        options: &CompileOptions,
        lanes: usize,
        steered: bool,
    ) -> Result<Self, CompileError> {
        dag.root().ok_or(CompileError::NoRoot)?;
        let mut dag = expand_math(dag);
        if options.strength_reduce {
            dag.strength_reduce_negated_constants();
        }
        if !steered {
            check_uniform(&dag)?;
        }
        let placement = place(&dag, &options.config)?;
        let model = CostModel::new(&options.config.params);
        let schedule = schedule(&dag, &placement, &model);
        let trace = lower(&dag);
        Ok(Program {
            dag,
            placement,
            schedule,
            trace,
            model,
            lanes,
            steered,
        })
    }

    /// Executes, then lints the recorded microprogram through all five
    /// hazard passes; an error-severity finding fails the run.
    fn run(&self, inputs: &[HashMap<String, u64>]) -> Result<BatchRunReport, CompileError> {
        let exec = self.execute(inputs)?;
        let lint = verify_trace(&exec.ops, &exec.events, Some(exec.expected_cycles));
        if lint.error_count() > 0 {
            return Err(CompileError::VerificationFailed(lint.to_string()));
        }
        Ok(BatchRunReport {
            values: exec.values,
            references: exec.references,
            cycles: exec.cycles,
            expected_cycles: exec.expected_cycles,
            energy: exec.energy,
            trace_len: exec.ops.len(),
            lint,
        })
    }

    /// Records one execution: the microprogram, lane `lane`'s output
    /// binding and that lane's reference value.
    fn record(
        &self,
        inputs: &[HashMap<String, u64>],
        lane: usize,
    ) -> Result<(OpTrace, OutputBinding, u64), CompileError> {
        let exec = self.execute(inputs)?;
        let output = OutputBinding {
            block: exec.root.block,
            row: exec.root.row,
            col0: lane,
            width: self.dag.width() as usize,
            col_step: self.lanes,
        };
        Ok((exec.ops, output, exec.references[lane]))
    }

    /// Reserves one compute block's fixed layout in allocation order:
    /// the four staging rows, the serial-adder scratch, the ALU region.
    fn reserve(
        &self,
        alloc: &mut RowAllocator,
    ) -> Result<(SerialScratch, Vec<usize>), CompileError> {
        let staging = alloc.alloc_many(4)?;
        if staging != [ROW_X, ROW_Y, ROW_AUX, ROW_RES] {
            return Err(CompileError::MachineCheck {
                node: None,
                detail: format!("staging rows landed at {staging:?}, planned 0..4"),
            });
        }
        let scratch = SerialScratch::alloc(alloc)?;
        let region = alloc.alloc_many(self.placement.region_rows)?;
        Ok((scratch, region))
    }

    /// One recorded gate-level execution: the shared body behind every
    /// run, record and equivalence entry point.
    fn execute(&self, inputs: &[HashMap<String, u64>]) -> Result<Execution, CompileError> {
        if inputs.len() != self.lanes {
            return Err(CompileError::BatchUnsupported(format!(
                "{} input bindings for a {}-lane program",
                inputs.len(),
                self.lanes
            )));
        }
        let values: Vec<Vec<u64>> = inputs
            .iter()
            .map(|m| evaluate_all(&self.dag, m))
            .collect::<Result<_, _>>()?;
        let cfg = &self.placement.config;
        let n = self.dag.width() as usize;
        let mut xbar = BlockedCrossbar::new(cfg.clone())?;
        let blocks: Vec<BlockId> = (0..cfg.blocks)
            .map(|i| xbar.block(i))
            .collect::<Result<_, _>>()?;

        // Traced allocators, one per block; the planner pre-simulated this
        // exact call sequence, so each alloc's row is checked against it.
        let mut allocs: Vec<RowAllocator> = (0..cfg.blocks)
            .map(|_| RowAllocator::with_tracing(cfg.rows))
            .collect();
        let [alloc0, alloc1, ..] = allocs.as_mut_slice() else {
            return Err(CompileError::MachineCheck {
                node: None,
                detail: format!("{} blocks, the machine needs a compute pair", cfg.blocks),
            });
        };
        let (scratch0, region0) = self.reserve(alloc0)?;
        let (scratch1, region1) = self.reserve(alloc1)?;
        let scratches = [scratch0, scratch1];

        let stats_before = *xbar.stats();
        xbar.start_recording();

        let mut machine = Machine {
            xbar: &mut xbar,
            blocks: &blocks,
            scratch: &scratches,
            prog: self,
            values: &values,
            n,
            t0: self.placement.region_base,
        };
        let mut expected_cycles = 0u64;
        for i in 0..self.dag.len() {
            let dest = self.placement.slots[i];
            let row = allocs[dest.block].alloc()?;
            if row != dest.row {
                return Err(CompileError::MachineCheck {
                    node: Some(i),
                    detail: format!(
                        "allocator gave block {} row {row}, the planner placed row {}",
                        dest.block, dest.row
                    ),
                });
            }
            expected_cycles += machine.exec(NodeId(i))?;
            for &op in &self.placement.frees[i] {
                let s = self.placement.slots[op.0];
                allocs[s.block].free(s.row)?;
            }
        }
        let trace = machine.xbar.stop_recording();

        let root = self.dag.root().ok_or(CompileError::NoRoot)?;
        let root_slot = self.placement.slots[root.0];
        let lane_values = read_lanes(
            &xbar,
            blocks[root_slot.block],
            root_slot.row,
            0,
            n,
            self.lanes,
        )?;

        // Teardown: return every reserved row so the scratch-lifetime pass
        // sees a leak-free program.
        allocs[root_slot.block].free(root_slot.row)?;
        for (b, (scratch, region)) in scratches.into_iter().zip([region0, region1]).enumerate() {
            allocs[b].free_many(region)?;
            scratch.release(&mut allocs[b])?;
            allocs[b].free_many([ROW_X, ROW_Y, ROW_AUX, ROW_RES])?;
        }

        // Merge the per-block event logs into one flat row space (block ·
        // rows + row) — each row belongs to exactly one allocator, so
        // per-row event ordering is preserved.
        let mut events = Vec::new();
        for (b, alloc) in allocs.iter_mut().enumerate() {
            let offset = b * cfg.rows;
            events.extend(alloc.take_events().into_iter().map(|ev| match ev {
                AllocEvent::Alloc { row } => AllocEvent::Alloc { row: row + offset },
                AllocEvent::Free { row } => AllocEvent::Free { row: row + offset },
            }));
        }

        let delta = *xbar.stats() - stats_before;
        Ok(Execution {
            ops: trace,
            events,
            expected_cycles,
            values: lane_values,
            references: values.iter().map(|lane| lane[root.0]).collect(),
            cycles: delta.cycles.get(),
            energy: delta.energy,
            root: root_slot,
        })
    }
}

impl CompiledProgram {
    /// The (possibly strength-reduced) DAG this program executes.
    pub fn dag(&self) -> &Dag {
        &self.core.dag
    }

    /// The row placement.
    pub fn placement(&self) -> &Placement {
        &self.core.placement
    }

    /// The block-pair list schedule.
    pub fn schedule(&self) -> &BlockSchedule {
        &self.core.schedule
    }

    /// The lowered controller macro-op trace.
    pub fn trace(&self) -> &Trace {
        &self.core.trace
    }

    /// The analytic cost model used for cycle bookkeeping.
    pub fn model(&self) -> &CostModel {
        &self.core.model
    }

    /// Executes the program on simulated cells with the given input
    /// bindings, then lints the recorded microprogram.
    ///
    /// # Errors
    ///
    /// Unbound inputs, crossbar faults, a failed machine check, or —
    /// [`CompileError::VerificationFailed`] — an error-severity hazard
    /// finding (a compiler bug by definition).
    pub fn run(&self, inputs: &HashMap<String, u64>) -> Result<RunReport, CompileError> {
        let report = self.core.run(std::slice::from_ref(inputs))?;
        Ok(RunReport {
            value: report.values[0],
            reference: report.references[0],
            cycles: report.cycles,
            expected_cycles: report.expected_cycles,
            energy: report.energy,
            trace_len: report.trace_len,
            lint: report.lint,
        })
    }

    /// Symbolically re-executes the recorded microprogram for one input
    /// specialization and checks the root row against the pure-integer
    /// reference evaluator.
    ///
    /// Compiled programs read multiplier operands through the sense
    /// amplifiers to steer partial-product placement, so every input stays
    /// concrete and the proof covers the recorded specialization: the
    /// symbolic replay still discharges X-propagation, init obligations
    /// and write-back divergence that concrete execution can mask.
    ///
    /// # Errors
    ///
    /// Unbound inputs or crossbar faults; checker verdicts (including
    /// non-equivalence) land in the returned report.
    pub fn verify_equiv(&self, inputs: &HashMap<String, u64>) -> Result<EquivReport, CompileError> {
        let (ops, output, reference) = self.record(inputs)?;
        Ok(check_equiv(&ops, &[], &output, move |_| reference))
    }

    /// Records one gate-level execution and returns the raw microprogram,
    /// its output binding and the reference value — the ingredients for
    /// external equivalence checking and miscompile-fixture construction
    /// (mutate the trace, watch the checker catch it).
    ///
    /// # Errors
    ///
    /// Unbound inputs or crossbar faults.
    pub fn record(
        &self,
        inputs: &HashMap<String, u64>,
    ) -> Result<(OpTrace, OutputBinding, u64), CompileError> {
        self.core.record(std::slice::from_ref(inputs), 0)
    }
}

impl BatchCompiledProgram {
    /// The (possibly strength-reduced) DAG this program executes.
    pub fn dag(&self) -> &Dag {
        &self.core.dag
    }

    /// The row placement (the one-lane row map — lanes scale columns, not
    /// rows).
    pub fn placement(&self) -> &Placement {
        &self.core.placement
    }

    /// The block-pair list schedule.
    pub fn schedule(&self) -> &BlockSchedule {
        &self.core.schedule
    }

    /// The lowered controller macro-op trace.
    pub fn trace(&self) -> &Trace {
        &self.core.trace
    }

    /// The analytic cost model used for cycle bookkeeping.
    pub fn model(&self) -> &CostModel {
        &self.core.model
    }

    /// Instances per pass this program was compiled for.
    pub fn lanes(&self) -> usize {
        self.core.lanes
    }

    /// Executes all `lanes` input bindings in one microprogram pass, then
    /// lints the recorded trace through all five hazard passes.
    ///
    /// # Errors
    ///
    /// A binding-count mismatch ([`CompileError::BatchUnsupported`]),
    /// unbound inputs, crossbar faults, a failed machine check, or
    /// [`CompileError::VerificationFailed`] for an error-severity hazard
    /// finding.
    pub fn run(&self, inputs: &[HashMap<String, u64>]) -> Result<BatchRunReport, CompileError> {
        self.core.run(inputs)
    }

    /// Symbolically re-executes the recorded batched microprogram and
    /// checks lane `lane` of the root row against that lane's
    /// pure-integer reference — the per-lane replication of
    /// [`CompiledProgram::verify_equiv`]. The trace is recorded once; only
    /// the output binding moves (`col0 = lane`, `col_step = lanes`).
    ///
    /// # Errors
    ///
    /// Same conditions as [`BatchCompiledProgram::run`], plus an
    /// out-of-range `lane`.
    pub fn verify_equiv_lane(
        &self,
        inputs: &[HashMap<String, u64>],
        lane: usize,
    ) -> Result<EquivReport, CompileError> {
        let (ops, output, reference) = self.record(inputs, lane)?;
        Ok(check_equiv(&ops, &[], &output, move |_| reference))
    }

    /// Records one batched gate-level execution and returns the raw
    /// microprogram, lane `lane`'s output binding and its reference value
    /// — the batched counterpart of [`CompiledProgram::record`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`BatchCompiledProgram::run`] (lint aside), plus
    /// an out-of-range `lane`.
    pub fn record(
        &self,
        inputs: &[HashMap<String, u64>],
        lane: usize,
    ) -> Result<(OpTrace, OutputBinding, u64), CompileError> {
        if lane >= self.core.lanes {
            return Err(CompileError::BatchUnsupported(format!(
                "lane {lane} out of range for a {}-lane program",
                self.core.lanes
            )));
        }
        self.core.record(inputs, lane)
    }
}

/// Raw outcome of one recorded gate-level execution, before any
/// verification pass has judged it.
struct Execution {
    ops: OpTrace,
    events: Vec<AllocEvent>,
    expected_cycles: u64,
    values: Vec<u64>,
    references: Vec<u64>,
    cycles: u64,
    energy: Joules,
    root: Slot,
}

/// Execution context: one program's fixed layout on a live crossbar.
struct Machine<'a> {
    xbar: &'a mut BlockedCrossbar,
    blocks: &'a [BlockId],
    scratch: &'a [SerialScratch; 2],
    prog: &'a Program,
    /// `values[lane][node]`: the reference value of `node` in `lane`.
    values: &'a [Vec<u64>],
    n: usize,
    /// First ALU-region row (partial products / tree survivors).
    t0: usize,
}

impl Machine<'_> {
    /// Row `row` of compute or data block `block`.
    fn at(&self, block: usize, row: usize) -> RowRef {
        RowRef::new(self.blocks[block], row)
    }

    /// The home row of a placed value.
    fn home(&self, slot: Slot) -> RowRef {
        self.at(slot.block, slot.row)
    }

    /// Physical bitline span of logical columns `cols`.
    fn span(&self, cols: Range<usize>) -> Range<usize> {
        cols.start * self.prog.lanes..cols.end * self.prog.lanes
    }

    /// Two-NOT copy of a logical column window between any two rows,
    /// staged through block 1's AUX row and shifted by `shift` logical
    /// columns (2 cycles).
    fn copy(
        &mut self,
        src: RowRef,
        dst: RowRef,
        cols: Range<usize>,
        shift: isize,
    ) -> Result<(), CompileError> {
        let aux = self.at(1, ROW_AUX);
        let span = self.span(cols);
        let shift = shift * self.prog.lanes as isize;
        self.xbar.copy_row_shifted(src, aux, dst, span, shift)?;
        Ok(())
    }

    /// Returns a compute-block row holding the operand: its home row when
    /// already in block 0, else a 2-cycle staging copy into `staging_row`.
    fn stage(&mut self, slot: Slot, staging_row: usize) -> Result<usize, CompileError> {
        if slot.block == 0 {
            return Ok(slot.row);
        }
        self.copy(self.home(slot), self.at(0, staging_row), 0..self.n, 0)?;
        Ok(staging_row)
    }

    /// Executes one node in every lane, returning its closed-form expected
    /// cycle count.
    fn exec(&mut self, id: NodeId) -> Result<u64, CompileError> {
        let prog = self.prog;
        let (n, lanes) = (self.n, prog.lanes);
        let bits = prog.dag.width();
        let slots = &prog.placement.slots;
        let dest = slots[id.0];
        let node = &prog.dag.nodes()[id.0];
        match node {
            Node::Input { .. } | Node::Const { .. } => {
                let (block, row) = (self.blocks[dest.block], dest.row);
                if prog.steered {
                    self.xbar
                        .preload_u64(block, row, 0, n, self.values[0][id.0])?;
                } else {
                    let lane_values: Vec<u64> = self.values.iter().map(|lane| lane[id.0]).collect();
                    preload_lanes(self.xbar, block, row, 0, n, lanes, &lane_values)?;
                }
                Ok(0)
            }
            Node::Add { a, b } | Node::Sub { a, b } => {
                let x = self.stage(slots[a.0], ROW_X)?;
                let y = self.stage(slots[b.0], ROW_Y)?;
                let out = if dest.block == 0 { dest.row } else { ROW_RES };
                let (block, scratch) = (self.blocks[0], &self.scratch[0]);
                let cost = if let Node::Add { .. } = node {
                    add_lanes(self.xbar, block, x, y, out, 0..n, lanes, scratch)?;
                    prog.model.serial_add(bits)
                } else {
                    sub_lanes(self.xbar, block, x, y, ROW_AUX, out, 0..n, lanes, scratch)?;
                    prog.model.serial_sub(bits)
                };
                if dest.block != 0 {
                    self.copy(self.at(0, ROW_RES), self.home(dest), 0..n, 0)?;
                }
                Ok(cost.cycles.get() + serial_copy_overhead(&prog.placement, *a, *b, id))
            }
            Node::Shl { x, amount } | Node::Shr { x, amount } => {
                let k = *amount as usize;
                let src = self.home(slots[x.0]);
                let right = matches!(node, Node::Shr { .. });
                // Steered: the sense amp reads the sign bit up front;
                // `sign_fill` writes it back after the shift.
                let sign = if right && prog.steered {
                    Some(self.xbar.read_bit(src.block, src.row, n - 1)?)
                } else {
                    None
                };
                let dst = self.home(dest);
                self.xbar.preload_zeros(dst.block, dst.row, 0, n * lanes)?;
                if right {
                    self.copy(src, dst, k..n, -(k as isize))?;
                    Ok(2 + self.sign_fill(src, dst, k, sign)?)
                } else {
                    self.copy(src, dst, 0..n - k, k as isize)?;
                    Ok(2)
                }
            }
            Node::Mul { a, b, mode } => {
                let (mcand, mult, constant) = mul_multiplier(&prog.dag, *a, *b, *mode);
                self.product(id, &[(mcand, mult, constant)], *mode)
            }
            Node::Mac { terms, mode } => {
                let terms: Vec<_> = terms
                    .iter()
                    .map(|&(a, b)| (a, b, constant_of(&prog.dag, b)))
                    .collect();
                self.product(id, &terms, *mode)
            }
            // compile() expands Math nodes before placement and place()
            // rejects any that remain, so execution can never see one.
            Node::Math { .. } => Err(CompileError::InvalidDag(
                "unexpanded math node reached the gate-level backend".into(),
            )),
        }
    }

    /// Fills the top `k` columns of a right shift with the source's sign
    /// and returns the cycles spent. Steered: the sign read before the
    /// shift is written back per fill column (`k` cycles). Unsteered: the
    /// sign lane span is NOTed into AUX once, then one cross-block NOR per
    /// fill column re-complements it into place (`1 + k` cycles).
    fn sign_fill(
        &mut self,
        src: RowRef,
        dst: RowRef,
        k: usize,
        sign: Option<bool>,
    ) -> Result<u64, CompileError> {
        let n = self.n;
        if let Some(sign) = sign {
            for col in n - k..n {
                self.xbar.write_back_bit(dst.block, dst.row, col, sign)?;
            }
            return Ok(k as u64);
        }
        if k == 0 {
            return Ok(0);
        }
        let aux = self.at(1, ROW_AUX);
        let sign = self.span(n - 1..n);
        self.xbar.init_rows(aux.block, &[aux.row], sign.clone())?;
        self.xbar.nor_rows_shifted(&[src], aux, sign.clone(), 0)?;
        for c in n - k..n {
            let shift = (c as isize - (n as isize - 1)) * self.prog.lanes as isize;
            self.xbar
                .init_rows(dst.block, &[dst.row], self.span(c..c + 1))?;
            self.xbar
                .nor_rows_shifted(&[aux], dst, sign.clone(), shift)?;
        }
        Ok(1 + k as u64)
    }

    /// A multiplication (one term) or fused MAC (several) for node `id`:
    /// per term `(multiplicand, multiplier, constant multiplier value)`,
    /// the multiplier word steers a shared-NOT partial-product burst into
    /// region rows `t0..`; then one Wallace reduction and one final
    /// addition over the whole pile.
    fn product(
        &mut self,
        id: NodeId,
        terms: &[(NodeId, NodeId, Option<u64>)],
        mode: PrecisionMode,
    ) -> Result<u64, CompileError> {
        let placement = &self.prog.placement;
        let bits = self.prog.dag.width();
        let not_row = self.t0 + placement.region_rows.saturating_sub(1);
        let mut count = 0usize;
        let mut multipliers = Vec::with_capacity(terms.len());
        for &(mcand, mult, constant) in terms {
            let mbits = self.multiplier(id, mult, constant)?;
            multipliers.push(mbits);
            let shifts = partial_product_shifts(mbits, mode.masked_multiplier_bits());
            place_partial_products(
                self.xbar,
                self.home(placement.slots[mcand.0]),
                self.at(1, not_row),
                self.at(0, self.t0 + count),
                &shifts,
                self.n,
                self.n,
                self.prog.lanes,
            )?;
            count += shifts.len();
        }
        self.finish_product(id, count, mode)?;
        Ok(self
            .prog
            .model
            .mac_group_value(bits, &multipliers, mode)
            .cycles
            .get()
            + mul_copy_overhead(
                bits,
                count,
                mode.relaxed_product_bits(),
                placement.in_compute(id),
            ))
    }

    /// The multiplier word `mult` that steers partial-product placement
    /// for node `id`. Steered: read through the sense amps (free of
    /// cycles, like the hand-written multiplier's bit scan) and checked
    /// against the reference. Unsteered: the compile-time constant every
    /// lane shares.
    fn multiplier(
        &mut self,
        id: NodeId,
        mult: NodeId,
        constant: Option<u64>,
    ) -> Result<u64, CompileError> {
        if !self.prog.steered {
            return constant.ok_or_else(|| CompileError::MachineCheck {
                node: Some(id.0),
                detail: format!("lane-uniform program with a non-constant multiplier {mult}"),
            });
        }
        let src = self.home(self.prog.placement.slots[mult.0]);
        let mut bits = 0u64;
        for col in 0..self.n {
            bits |= u64::from(self.xbar.read_bit(src.block, src.row, col)?) << col;
        }
        let reference = self.values[0][mult.0];
        if bits != reference {
            return Err(CompileError::MachineCheck {
                node: Some(id.0),
                detail: format!(
                    "sense amps read multiplier {mult} as {bits:#x}, reference is {reference:#x}"
                ),
            });
        }
        Ok(bits)
    }

    /// Turns node `id`'s pile of `count` partial products (region rows
    /// `t0..`) into its destination word: Wallace reduction to two
    /// survivors, then the (optionally relaxed) final addition of the §3.4
    /// scheme.
    fn finish_product(
        &mut self,
        id: NodeId,
        count: usize,
        mode: PrecisionMode,
    ) -> Result<(), CompileError> {
        let n = self.n;
        let dest = self.home(self.prog.placement.slots[id.0]);
        if count == 0 {
            let width = n * self.prog.lanes;
            self.xbar.preload_zeros(dest.block, dest.row, 0, width)?;
            return Ok(());
        }
        if count == 1 {
            return self.copy(self.at(0, self.t0), dest, 0..n, 0);
        }
        let (survivor_block, survivors) = reduce_rows_to_two_lanes(
            self.xbar,
            self.blocks[0],
            self.blocks[1],
            count,
            0..n,
            self.prog.lanes,
            self.t0,
        )?;
        if survivors != 2 {
            return Err(CompileError::MachineCheck {
                node: Some(id.0),
                detail: format!("Wallace reduction of {count} rows left {survivors}"),
            });
        }
        let si = usize::from(survivor_block != self.blocks[0]);
        let m = (mode.relaxed_product_bits() as usize).min(n);
        if m == 0 {
            // Exact: block 0 survivors add straight into a block-0
            // destination; every other case goes through RES.
            let direct = si == 0 && dest.block == self.blocks[0];
            let out = if direct { dest.row } else { ROW_RES };
            let (t0, lanes) = (self.t0, self.prog.lanes);
            add_lanes(
                self.xbar,
                survivor_block,
                t0,
                t0 + 1,
                out,
                0..n,
                lanes,
                &self.scratch[si],
            )?;
            return if direct {
                Ok(())
            } else {
                self.copy(self.at(si, ROW_RES), dest, 0..n, 0)
            };
        }
        if !self.prog.steered {
            return Err(CompileError::MachineCheck {
                node: Some(id.0),
                detail: "lane-uniform program with an approximate final product".into(),
            });
        }
        // §3.4 approximate tail: `m` LSBs from sense-amp MAJ carries land
        // in the partner block's RES row, the exact high bits in the
        // survivors' RES row; both are copied out.
        let low = self.at(1 - si, ROW_RES);
        final_add(
            self.xbar,
            self.at(si, self.t0),
            low,
            ROW_AUX,
            ROW_RES,
            n,
            m,
            &self.scratch[si],
        )?;
        if m == n {
            return self.copy(low, dest, 0..n, 0);
        }
        self.copy(low, dest, 0..m, 0)?;
        self.copy(self.at(si, ROW_RES), dest, m..n, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::evaluate;

    fn run_dag(dag: &Dag, bindings: &[(&str, u64)]) -> RunReport {
        let program = compile(dag, &CompileOptions::default()).unwrap();
        let inputs: HashMap<String, u64> =
            bindings.iter().map(|&(k, v)| (k.to_string(), v)).collect();
        let report = program.run(&inputs).unwrap();
        assert!(report.lint.is_clean(), "lint: {}", report.lint);
        assert_eq!(
            report.cycles, report.expected_cycles,
            "measured vs predicted cycles"
        );
        assert_eq!(
            report.value,
            evaluate(program.dag(), &inputs).unwrap(),
            "gate level vs reference evaluator"
        );
        report
    }

    #[test]
    fn add_sub_chain_matches_reference() {
        let mut dag = Dag::new(16).unwrap();
        let x = dag.input("x").unwrap();
        let y = dag.input("y").unwrap();
        let s = dag.add(x, y).unwrap();
        let d = dag.sub(s, x).unwrap();
        dag.set_root(d).unwrap();
        let report = run_dag(&dag, &[("x", 0xABCD), ("y", 0x1234)]);
        assert_eq!(report.value, 0x1234);
        // One add + one sub, all operands resident in the compute block.
        assert_eq!(report.cycles, (12 * 16 + 1) + (12 * 16 + 2));
    }

    #[test]
    fn constant_multiplier_product() {
        let mut dag = Dag::new(16).unwrap();
        let x = dag.input("x").unwrap();
        let c = dag.constant(0b101);
        let m = dag.mul(x, c, PrecisionMode::Exact).unwrap();
        dag.set_root(m).unwrap();
        let report = run_dag(&dag, &[("x", 1234)]);
        assert_eq!(report.value, (1234 * 0b101) & 0xFFFF);
    }

    #[test]
    fn unknown_multiplier_product_all_modes() {
        for mode in [
            PrecisionMode::Exact,
            PrecisionMode::FirstStage { masked_bits: 4 },
            PrecisionMode::LastStage { relax_bits: 6 },
            PrecisionMode::LastStage { relax_bits: 16 },
        ] {
            let mut dag = Dag::new(16).unwrap();
            let x = dag.input("x").unwrap();
            let y = dag.input("y").unwrap();
            let m = dag.mul(x, y, mode).unwrap();
            dag.set_root(m).unwrap();
            run_dag(&dag, &[("x", 51234), ("y", 47111)]);
        }
    }

    #[test]
    fn shifts_match_reference() {
        let mut dag = Dag::new(16).unwrap();
        let x = dag.input("x").unwrap();
        let l = dag.shl(x, 3).unwrap();
        let r = dag.shr(l, 5).unwrap();
        dag.set_root(r).unwrap();
        // 0xF00F << 3 = 0x8078 (negative) >> 5 arithmetic.
        let report = run_dag(&dag, &[("x", 0xF00F)]);
        assert_eq!(report.cycles, 2 + (2 + 5));
        assert_eq!(report.value, 0xFC03);
    }

    #[test]
    fn mac_node_matches_reference() {
        let mut dag = Dag::new(16).unwrap();
        let x = dag.input("x").unwrap();
        let y = dag.input("y").unwrap();
        let c = dag.constant(3);
        let d = dag.constant(21);
        let m = dag.mac(vec![(x, c), (y, d)], PrecisionMode::Exact).unwrap();
        dag.set_root(m).unwrap();
        let report = run_dag(&dag, &[("x", 1000), ("y", 2000)]);
        assert_eq!(report.value, (1000 * 3 + 2000 * 21) & 0xFFFF);
    }

    #[test]
    fn spilled_values_round_trip() {
        // 24-row blocks: staging alone eats 16, so values spill quickly.
        let mut dag = Dag::new(8).unwrap();
        let inputs: Vec<NodeId> = (0..12)
            .map(|i| dag.input(&format!("x{i}")).unwrap())
            .collect();
        let mut acc = inputs[0];
        for &x in &inputs[1..] {
            acc = dag.add(acc, x).unwrap();
        }
        dag.set_root(acc).unwrap();
        let options = CompileOptions {
            config: CrossbarConfig {
                rows: 24,
                ..CrossbarConfig::default()
            },
            ..CompileOptions::default()
        };
        let program = compile(&dag, &options).unwrap();
        assert!(program.placement().spilled > 0);
        let bindings: HashMap<String, u64> =
            (0..12).map(|i| (format!("x{i}"), i as u64 + 1)).collect();
        let report = program.run(&bindings).unwrap();
        assert!(report.lint.is_clean(), "lint: {}", report.lint);
        assert_eq!(report.cycles, report.expected_cycles);
        assert_eq!(report.value, (1..=12).sum::<u64>() & 0xFF);
    }

    #[test]
    fn strength_reduction_pays_off_at_the_gate_level() {
        let build = || {
            let mut dag = Dag::new(16).unwrap();
            let x = dag.input("x").unwrap();
            let c = dag.constant(0xFFF0); // -16
            let m = dag.mul(x, c, PrecisionMode::Exact).unwrap();
            let y = dag.input("y").unwrap();
            let r = dag.add(y, m).unwrap();
            dag.set_root(r).unwrap();
            dag
        };
        let reduced = compile(&build(), &CompileOptions::default()).unwrap();
        let naive = compile(
            &build(),
            &CompileOptions {
                strength_reduce: false,
                ..CompileOptions::default()
            },
        )
        .unwrap();
        let inputs: HashMap<String, u64> =
            [("x".to_string(), 777u64), ("y".to_string(), 123u64)].into();
        let fast = reduced.run(&inputs).unwrap();
        let slow = naive.run(&inputs).unwrap();
        assert_eq!(fast.value, slow.value, "rewrite preserves semantics");
        assert!(
            fast.cycles < slow.cycles,
            "reduced {} vs naive {}",
            fast.cycles,
            slow.cycles
        );
    }

    #[test]
    fn symbolic_replay_proves_the_recorded_specialization() {
        let mut dag = Dag::new(16).unwrap();
        let x = dag.input("x").unwrap();
        let y = dag.input("y").unwrap();
        let m = dag.mul(x, y, PrecisionMode::Exact).unwrap();
        let s = dag.add(m, x).unwrap();
        dag.set_root(s).unwrap();
        let program = compile(&dag, &CompileOptions::default()).unwrap();
        let inputs: HashMap<String, u64> =
            [("x".to_string(), 51234u64), ("y".to_string(), 47111u64)].into();
        let report = program.verify_equiv(&inputs).unwrap();
        assert!(report.equivalent, "{}", report.lint);
        assert_eq!(report.input_bits, 0, "compiled inputs stay concrete");
    }

    #[test]
    fn compiled_math_kernels_run_clean_at_the_gate_level() {
        use apim_math::{default_spec, to_pattern, MathFn};
        // sqrt(1521) = 39 as a pure in-crossbar microprogram.
        let mut dag = Dag::new(12).unwrap();
        let x = dag.input("x").unwrap();
        let m = dag.math(x, default_spec(MathFn::Sqrt, 12)).unwrap();
        dag.set_root(m).unwrap();
        let report = run_dag(&dag, &[("x", 1521)]);
        assert_eq!(report.value, 39);

        // sin(π/6) ≈ 0.5 in Q9 at width 12.
        let spec = default_spec(MathFn::Sin, 12);
        let angle = apim_math::consts::half_pi_q(spec.frac) / 3;
        let mut dag = Dag::new(12).unwrap();
        let x = dag.input("x").unwrap();
        let m = dag.math(x, spec).unwrap();
        dag.set_root(m).unwrap();
        let report = run_dag(&dag, &[("x", to_pattern(angle, 12))]);
        let got = apim_math::from_pattern(report.value, 12);
        assert!((got - 256).abs() <= 4, "sin(π/6) in Q9: {got}");
    }

    #[test]
    fn symbolic_prover_covers_math_expansions_at_width_12() {
        use apim_math::{default_spec, to_pattern, MathFn};
        for (func, input) in [
            (
                MathFn::Sin,
                to_pattern(apim_math::consts::half_pi_q(9) / 5, 12),
            ),
            (
                MathFn::Cos,
                to_pattern(-apim_math::consts::half_pi_q(9) / 7, 12),
            ),
            (MathFn::Sqrt, 1000),
        ] {
            let mut dag = Dag::new(12).unwrap();
            let x = dag.input("x").unwrap();
            let m = dag.math(x, default_spec(func, 12)).unwrap();
            dag.set_root(m).unwrap();
            let program = compile(&dag, &CompileOptions::default()).unwrap();
            let inputs: HashMap<String, u64> = [("x".to_string(), input)].into();
            let report = program.verify_equiv(&inputs).unwrap();
            assert!(report.equivalent, "{func}: {}", report.lint);
        }
    }

    #[test]
    fn planner_runtime_divergence_is_an_error_not_a_panic() {
        let mut dag = Dag::new(8).unwrap();
        let x = dag.input("x").unwrap();
        let y = dag.input("y").unwrap();
        let s = dag.add(x, y).unwrap();
        dag.set_root(s).unwrap();
        let mut program = compile(&dag, &CompileOptions::default()).unwrap();
        // A placement whose root slot disagrees with the row the traced
        // allocator hands out at run time.
        program.core.placement.slots[s.0].row += 1;
        let err = program.run(&bind(&[("x", 1), ("y", 2)])).unwrap_err();
        assert!(
            matches!(err, CompileError::MachineCheck { node: Some(i), .. } if i == s.0),
            "{err}"
        );
    }

    #[test]
    fn compile_requires_root() {
        let mut dag = Dag::new(8).unwrap();
        dag.input("x").unwrap();
        assert!(matches!(
            compile(&dag, &CompileOptions::default()),
            Err(CompileError::NoRoot)
        ));
    }

    fn bind(pairs: &[(&str, u64)]) -> HashMap<String, u64> {
        pairs.iter().map(|&(k, v)| (k.to_string(), v)).collect()
    }

    /// x + y - z at width 16, batched across all 64 lanes, checked against
    /// the serial reference per lane.
    #[test]
    fn batched_add_sub_matches_reference_in_every_lane() {
        let mut dag = Dag::new(16).unwrap();
        let x = dag.input("x").unwrap();
        let y = dag.input("y").unwrap();
        let z = dag.input("z").unwrap();
        let s = dag.add(x, y).unwrap();
        let d = dag.sub(s, z).unwrap();
        dag.set_root(d).unwrap();
        let lanes = 64;
        let program = compile_batched(&dag, &CompileOptions::default(), lanes).unwrap();
        let inputs: Vec<HashMap<String, u64>> = (0..lanes as u64)
            .map(|j| {
                bind(&[
                    ("x", (j * 977 + 3) & 0xFFFF),
                    ("y", (j * 1543 + 77) & 0xFFFF),
                    ("z", (j * 401 + 9) & 0xFFFF),
                ])
            })
            .collect();
        let report = program.run(&inputs).unwrap();
        assert!(report.lint.is_clean(), "lint: {}", report.lint);
        assert_eq!(report.values, report.references);
        assert_eq!(report.cycles, report.expected_cycles);
        // The batch costs what one serial instance costs: 12n+1 + 12n+2.
        assert_eq!(report.cycles, (12 * 16 + 1) + (12 * 16 + 2));
    }

    #[test]
    fn batched_cycles_match_the_serial_program() {
        let mut dag = Dag::new(16).unwrap();
        let x = dag.input("x").unwrap();
        let c = dag.constant(0b1011);
        let m = dag.mul(x, c, PrecisionMode::Exact).unwrap();
        let s = dag.add(m, x).unwrap();
        let r = dag.shr(s, 3).unwrap();
        dag.set_root(r).unwrap();

        let serial = crate::compile(&dag, &CompileOptions::default()).unwrap();
        let serial_report = serial.run(&bind(&[("x", 1234)])).unwrap();

        let lanes = 8;
        let batched = compile_batched(&dag, &CompileOptions::default(), lanes).unwrap();
        let inputs: Vec<HashMap<String, u64>> = (0..lanes as u64)
            .map(|j| bind(&[("x", 1000 + j * 111)]))
            .collect();
        let report = batched.run(&inputs).unwrap();
        assert_eq!(report.values, report.references);
        assert_eq!(report.cycles, report.expected_cycles);
        // The batched Shr pays one extra cycle (in-array sign fill); all
        // other nodes cost exactly the serial count.
        assert_eq!(report.cycles, serial_report.cycles + 1);
        // Lane 0 of the batch computes the serial lane-0 value.
        assert_eq!(
            report.values[0],
            crate::eval::evaluate(batched.dag(), &inputs[0]).unwrap()
        );
    }

    #[test]
    fn batched_mac_and_shl_run_clean() {
        let mut dag = Dag::new(16).unwrap();
        let x = dag.input("x").unwrap();
        let y = dag.input("y").unwrap();
        let c = dag.constant(3);
        let d = dag.constant(21);
        let m = dag.mac(vec![(x, c), (y, d)], PrecisionMode::Exact).unwrap();
        let l = dag.shl(m, 2).unwrap();
        dag.set_root(l).unwrap();
        let lanes = 16;
        let program = compile_batched(&dag, &CompileOptions::default(), lanes).unwrap();
        let inputs: Vec<HashMap<String, u64>> = (0..lanes as u64)
            .map(|j| bind(&[("x", 500 + j * 31), ("y", 900 + j * 17)]))
            .collect();
        let report = program.run(&inputs).unwrap();
        assert!(report.lint.is_clean(), "lint: {}", report.lint);
        assert_eq!(report.values, report.references);
        assert_eq!(report.cycles, report.expected_cycles);
    }

    #[test]
    fn negative_constants_strength_reduce_and_batch() {
        // A sharpen-style tap: add(x·5, y·(-1)) — strength reduction turns
        // the negative tap into a Sub, leaving only positive constant
        // multipliers, which is exactly what makes workload DAGs batchable.
        let mut dag = Dag::new(16).unwrap();
        let x = dag.input("x").unwrap();
        let y = dag.input("y").unwrap();
        let five = dag.constant(5);
        let neg = dag.constant(0xFFFF); // -1 at width 16
        let m1 = dag.mul(x, five, PrecisionMode::Exact).unwrap();
        let m2 = dag.mul(y, neg, PrecisionMode::Exact).unwrap();
        let s = dag.add(m1, m2).unwrap();
        dag.set_root(s).unwrap();
        let lanes = 4;
        let program = compile_batched(&dag, &CompileOptions::default(), lanes).unwrap();
        let inputs: Vec<HashMap<String, u64>> = (0..lanes as u64)
            .map(|j| bind(&[("x", 100 + j), ("y", 7 * j + 1)]))
            .collect();
        let report = program.run(&inputs).unwrap();
        assert_eq!(report.values, report.references);
    }

    #[test]
    fn per_lane_equivalence_proofs_transfer() {
        let mut dag = Dag::new(12).unwrap();
        let x = dag.input("x").unwrap();
        let c = dag.constant(0b101);
        let m = dag.mul(x, c, PrecisionMode::Exact).unwrap();
        let y = dag.input("y").unwrap();
        let s = dag.add(m, y).unwrap();
        dag.set_root(s).unwrap();
        let lanes = 8;
        let program = compile_batched(&dag, &CompileOptions::default(), lanes).unwrap();
        let inputs: Vec<HashMap<String, u64>> = (0..lanes as u64)
            .map(|j| bind(&[("x", (j * 53 + 11) & 0xFFF), ("y", (j * 29 + 5) & 0xFFF)]))
            .collect();
        for lane in [0, 1, lanes - 1] {
            let report = program.verify_equiv_lane(&inputs, lane).unwrap();
            assert!(report.equivalent, "lane {lane}: {}", report.lint);
        }
    }

    #[test]
    fn unsupported_batches_are_rejected_up_front() {
        // Unknown multiplier: per-lane partial-product placement.
        let mut dag = Dag::new(16).unwrap();
        let x = dag.input("x").unwrap();
        let y = dag.input("y").unwrap();
        let m = dag.mul(x, y, PrecisionMode::Exact).unwrap();
        dag.set_root(m).unwrap();
        assert!(matches!(
            compile_batched(&dag, &CompileOptions::default(), 4),
            Err(CompileError::BatchUnsupported(_))
        ));

        // Approximate final product: per-lane carry reads.
        let mut dag = Dag::new(16).unwrap();
        let x = dag.input("x").unwrap();
        let c = dag.constant(7);
        let m = dag
            .mul(x, c, PrecisionMode::LastStage { relax_bits: 4 })
            .unwrap();
        dag.set_root(m).unwrap();
        assert!(matches!(
            compile_batched(&dag, &CompileOptions::default(), 4),
            Err(CompileError::BatchUnsupported(_))
        ));

        // Lane counts outside 1..=64.
        let mut dag = Dag::new(8).unwrap();
        let x = dag.input("x").unwrap();
        dag.set_root(x).unwrap();
        for lanes in [0, 65] {
            assert!(matches!(
                compile_batched(&dag, &CompileOptions::default(), lanes),
                Err(CompileError::BatchUnsupported(_))
            ));
        }
    }

    #[test]
    fn binding_count_must_match_lanes() {
        let mut dag = Dag::new(8).unwrap();
        let x = dag.input("x").unwrap();
        let y = dag.input("y").unwrap();
        let s = dag.add(x, y).unwrap();
        dag.set_root(s).unwrap();
        let program = compile_batched(&dag, &CompileOptions::default(), 4).unwrap();
        let short: Vec<HashMap<String, u64>> =
            (0..3).map(|j| bind(&[("x", j), ("y", j)])).collect();
        assert!(matches!(
            program.run(&short),
            Err(CompileError::BatchUnsupported(_))
        ));
    }
}
