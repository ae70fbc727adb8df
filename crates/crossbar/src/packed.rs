//! Bit-packed storage fabric: 64 cells per machine word.
//!
//! The paper's core claim is that MAGIC NOR executes *column-parallel* —
//! one cycle regardless of operand width (§3.1). This module makes the
//! simulator exploit the same data parallelism it models: a row of cells is
//! a slice of `u64` words (LSB of word 0 = column 0), so a column-parallel
//! NOR over `w` cells is `⌈w/64⌉` word operations (`!(a | b | …)` with edge
//! masking) instead of `w` per-cell loop iterations with bounds checks.
//!
//! Semantics are bit-identical to the scalar [`crate::CrossbarArray`]
//! reference (the differential-testing oracle):
//!
//! * **Wear** — every cell covered by a write op gets its per-cell counter
//!   bumped unconditionally (the controller cannot know in advance whether
//!   the state changes), exactly like [`crate::Cell::write`]. The counters
//!   are split two-level so the hot path stays O(1): a full-word store
//!   bumps one per-word counter, a partial mask walks its set bits with
//!   `trailing_zeros` into per-cell counters, and a cell's effective wear
//!   is the sum of the two. The running total uses `count_ones()`.
//! * **Faults** — stuck-at faults live in two overlay bitplanes
//!   (`fault_mask`, `fault_val`). Reads see
//!   `(bits & !mask) | (val & mask)`; writes update the underlying state
//!   (and wear) but keep reading the stuck value, like a faulty
//!   [`crate::Cell`].

use crate::error::CrossbarError;
use crate::Result;
use std::ops::Range;

/// Cells per storage word.
pub const WORD_BITS: usize = 64;

/// The set-bit mask for columns `lo..hi` (both ≤ 64) of one word.
#[inline]
fn bit_range_mask(lo: usize, hi: usize) -> u64 {
    debug_assert!(lo <= hi && hi <= WORD_BITS);
    let ones = if hi == WORD_BITS {
        u64::MAX
    } else {
        (1u64 << hi) - 1
    };
    let below = if lo == WORD_BITS {
        u64::MAX
    } else {
        (1u64 << lo) - 1
    };
    ones & !below
}

/// Iterator over `(word_index, edge_mask)` pairs covering a column span.
///
/// Interior words get a full `u64::MAX` mask; the first and last word are
/// masked down to the span's edges.
#[derive(Debug, Clone)]
pub struct WordSpan {
    next: usize,
    last: usize,
    start: usize,
    end: usize,
    done: bool,
}

/// Splits a column range into `(word_index, mask)` pairs.
pub fn word_span(cols: &Range<usize>) -> WordSpan {
    if cols.start >= cols.end {
        return WordSpan {
            next: 0,
            last: 0,
            start: 0,
            end: 0,
            done: true,
        };
    }
    WordSpan {
        next: cols.start / WORD_BITS,
        last: (cols.end - 1) / WORD_BITS,
        start: cols.start,
        end: cols.end,
        done: false,
    }
}

impl Iterator for WordSpan {
    type Item = (usize, u64);

    fn next(&mut self) -> Option<(usize, u64)> {
        if self.done {
            return None;
        }
        let w = self.next;
        let base = w * WORD_BITS;
        let lo = self.start.saturating_sub(base);
        let hi = (self.end - base).min(WORD_BITS);
        if w == self.last {
            self.done = true;
        } else {
            self.next += 1;
        }
        Some((w, bit_range_mask(lo, hi)))
    }
}

/// A rectangular grid of memristive cells stored 64 per word.
///
/// Drop-in word-parallel replacement for the scalar [`crate::CrossbarArray`]:
/// the per-cell API (`get`/`set`/`cell_writes`/faults) is identical, the
/// bounds-checked word API (`store_word_bits`/`read_word_bits`) moves up to
/// 64 bits per call, and the crate-internal unchecked word primitives
/// (`word`/`store_masked`/`fill_on_span`) are what
/// [`crate::BlockedCrossbar`] builds its one-cycle column-parallel MAGIC NOR
/// on.
///
/// ```
/// use apim_crossbar::PackedArray;
///
/// # fn main() -> Result<(), apim_crossbar::CrossbarError> {
/// let mut a = PackedArray::new(4, 100)?;
/// a.set(2, 3, true)?;
/// assert!(a.get(2, 3)?);
/// assert_eq!(a.read_word_bits(2, 0, 4)?, 0b1000);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PackedArray {
    rows: usize,
    cols: usize,
    words_per_row: usize,
    bits: Vec<u64>,
    fault_mask: Vec<u64>,
    fault_val: Vec<u64>,
    /// Per-cell wear deltas (partial-mask and single-cell writes).
    wear: Vec<u64>,
    /// Per-word wear deltas (full-word stores); a cell's effective wear is
    /// `wear[cell] + word_wear[word]`.
    word_wear: Vec<u64>,
    total_writes: u64,
}

impl PackedArray {
    /// Creates an array of `rows × cols` cells, all in the OFF state.
    ///
    /// # Errors
    ///
    /// Returns [`CrossbarError::InvalidConfig`] if either dimension is zero.
    pub fn new(rows: usize, cols: usize) -> Result<Self> {
        if rows == 0 || cols == 0 {
            return Err(CrossbarError::InvalidConfig(
                "array dimensions must be nonzero".into(),
            ));
        }
        let words_per_row = cols.div_ceil(WORD_BITS);
        Ok(PackedArray {
            rows,
            cols,
            words_per_row,
            bits: vec![0; rows * words_per_row],
            fault_mask: vec![0; rows * words_per_row],
            fault_val: vec![0; rows * words_per_row],
            wear: vec![0; rows * cols],
            word_wear: vec![0; rows * words_per_row],
            total_writes: 0,
        })
    }

    /// Number of wordlines (rows).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of bitlines (columns).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Storage words per row (`⌈cols/64⌉`).
    pub fn words_per_row(&self) -> usize {
        self.words_per_row
    }

    fn check(&self, row: usize, col: usize) -> Result<()> {
        if row >= self.rows {
            return Err(CrossbarError::OutOfBounds {
                what: "row",
                index: row,
                limit: self.rows,
            });
        }
        if col >= self.cols {
            return Err(CrossbarError::OutOfBounds {
                what: "col",
                index: col,
                limit: self.cols,
            });
        }
        Ok(())
    }

    #[inline]
    fn widx(&self, row: usize, w: usize) -> usize {
        row * self.words_per_row + w
    }

    /// Fault-corrected load of word `w` of `row`.
    ///
    /// Crate-internal hot path: every caller sits behind the
    /// [`crate::BlockedCrossbar`] validation layer, which bounds-checks the
    /// whole request before dispatching here, so the debug assertion is a
    /// development aid rather than a reachable failure (out-of-contract use
    /// would hit the deterministic slice bounds check below, never memory
    /// unsafety). External users go through the checked `get` /
    /// [`PackedArray::read_word_bits`] API instead.
    #[inline]
    pub(crate) fn word(&self, row: usize, w: usize) -> u64 {
        debug_assert!(row < self.rows && w < self.words_per_row);
        let i = self.widx(row, w);
        (self.bits[i] & !self.fault_mask[i]) | (self.fault_val[i] & self.fault_mask[i])
    }

    /// Like [`PackedArray::word`] but returns `0` for word indices outside
    /// the row — the funnel shift reads one word past each span edge.
    #[inline]
    pub(crate) fn word_or_zero(&self, row: usize, w: isize) -> u64 {
        if w < 0 || w as usize >= self.words_per_row {
            0
        } else {
            self.word(row, w as usize)
        }
    }

    /// Stores `value` into the `mask` bits of word `w` of `row`, charging
    /// one wear count to every masked cell.
    ///
    /// Crate-internal hot path with the same pre-validated contract as
    /// [`PackedArray::word`]; external users store through the checked
    /// `set` / [`PackedArray::store_word_bits`] API.
    #[inline]
    pub(crate) fn store_masked(&mut self, row: usize, w: usize, value: u64, mask: u64) {
        debug_assert!(row < self.rows && w < self.words_per_row);
        let i = self.widx(row, w);
        self.bits[i] = (self.bits[i] & !mask) | (value & mask);
        self.total_writes += u64::from(mask.count_ones());
        if mask == u64::MAX {
            // A full word's 64 wear counts collapse into one per-word bump;
            // cell_writes() adds it back per cell. This keeps the hot path
            // (full-width NOR stores) O(1) instead of O(64).
            self.word_wear[i] += 1;
        } else {
            let base = row * self.cols + w * WORD_BITS;
            let mut m = mask;
            while m != 0 {
                let b = m.trailing_zeros() as usize;
                self.wear[base + b] += 1;
                m &= m - 1;
            }
        }
    }

    /// Sets every cell of a (pre-validated) column span of `row` to ON.
    #[inline]
    pub(crate) fn fill_on_span(&mut self, row: usize, cols: &Range<usize>) {
        for (w, mask) in word_span(cols) {
            self.store_masked(row, w, u64::MAX, mask);
        }
    }

    /// Validates a `width`-bit word access at `(row, col0..)`.
    #[inline]
    fn check_word_span(&self, row: usize, col0: usize, width: usize) -> Result<()> {
        if width > WORD_BITS {
            return Err(CrossbarError::InvalidConfig(format!(
                "word access width {width} exceeds {WORD_BITS} bits"
            )));
        }
        if row >= self.rows {
            return Err(CrossbarError::OutOfBounds {
                what: "row",
                index: row,
                limit: self.rows,
            });
        }
        if col0 + width > self.cols {
            return Err(CrossbarError::OutOfBounds {
                what: "col",
                index: col0.max(self.cols),
                limit: self.cols,
            });
        }
        Ok(())
    }

    /// Stores the low `width ≤ 64` bits of `value` (LSB first) starting at
    /// `col0` of `row`.
    ///
    /// # Errors
    ///
    /// Returns [`CrossbarError::InvalidConfig`] for `width > 64` and
    /// [`CrossbarError::OutOfBounds`] if the span falls outside the array;
    /// a rejected store writes nothing.
    #[inline]
    pub fn store_word_bits(
        &mut self,
        row: usize,
        col0: usize,
        width: usize,
        value: u64,
    ) -> Result<()> {
        self.check_word_span(row, col0, width)?;
        let (w, off) = (col0 / WORD_BITS, col0 % WORD_BITS);
        if width > 0 && off + width <= WORD_BITS {
            // The span sits in one word: a single masked store.
            self.store_masked(row, w, value << off, bit_range_mask(off, off + width));
            return Ok(());
        }
        let span = col0..col0 + width;
        for (w, mask) in word_span(&span) {
            let base = w * WORD_BITS;
            // Align `value` (whose bit 0 is column col0) to this word.
            let aligned = if col0 >= base {
                value << (col0 - base)
            } else {
                value >> (base - col0)
            };
            self.store_masked(row, w, aligned, mask);
        }
        Ok(())
    }

    /// Reads `width ≤ 64` bits starting at `col0` of `row`, LSB first.
    ///
    /// # Errors
    ///
    /// Returns [`CrossbarError::InvalidConfig`] for `width > 64` and
    /// [`CrossbarError::OutOfBounds`] if the span falls outside the array.
    #[inline]
    pub fn read_word_bits(&self, row: usize, col0: usize, width: usize) -> Result<u64> {
        self.check_word_span(row, col0, width)?;
        let (w, off) = (col0 / WORD_BITS, col0 % WORD_BITS);
        if width > 0 && off + width <= WORD_BITS {
            // The span sits in one word: a single masked load.
            return Ok((self.word(row, w) >> off) & bit_range_mask(0, width));
        }
        let mut out = 0u64;
        let span = col0..col0 + width;
        for (w, mask) in word_span(&span) {
            let base = w * WORD_BITS;
            let v = self.word(row, w) & mask;
            if col0 >= base {
                out |= v >> (col0 - base);
            } else {
                out |= v << (base - col0);
            }
        }
        Ok(out)
    }

    /// Reads the logical value of a cell.
    ///
    /// # Errors
    ///
    /// Returns [`CrossbarError::OutOfBounds`] for invalid coordinates.
    pub fn get(&self, row: usize, col: usize) -> Result<bool> {
        self.check(row, col)?;
        Ok((self.word(row, col / WORD_BITS) >> (col % WORD_BITS)) & 1 == 1)
    }

    /// Writes the logical value of a cell (counting the write).
    ///
    /// # Errors
    ///
    /// Returns [`CrossbarError::OutOfBounds`] for invalid coordinates.
    pub fn set(&mut self, row: usize, col: usize, bit: bool) -> Result<()> {
        self.check(row, col)?;
        let i = self.widx(row, col / WORD_BITS);
        let m = 1u64 << (col % WORD_BITS);
        if bit {
            self.bits[i] |= m;
        } else {
            self.bits[i] &= !m;
        }
        self.wear[row * self.cols + col] += 1;
        self.total_writes += 1;
        Ok(())
    }

    /// Total writes absorbed by a cell (endurance proxy).
    ///
    /// # Errors
    ///
    /// Returns [`CrossbarError::OutOfBounds`] for invalid coordinates.
    pub fn cell_writes(&self, row: usize, col: usize) -> Result<u64> {
        self.check(row, col)?;
        Ok(self.wear[row * self.cols + col] + self.word_wear[self.widx(row, col / WORD_BITS)])
    }

    /// The most-written cell's write count — the array's wear hotspot.
    pub fn max_cell_writes(&self) -> u64 {
        let mut max = 0u64;
        for row in 0..self.rows {
            for col in 0..self.cols {
                let w = self.wear[row * self.cols + col]
                    + self.word_wear[self.widx(row, col / WORD_BITS)];
                max = max.max(w);
            }
        }
        max
    }

    /// The `k` most-written cells as `(row, col, writes)`, hottest first
    /// (ties broken by coordinate, lowest first). Cells that never absorbed
    /// a write are omitted, so the result may be shorter than `k`.
    pub fn hotspots(&self, k: usize) -> Vec<(usize, usize, u64)> {
        let mut cells: Vec<(usize, usize, u64)> = Vec::new();
        for row in 0..self.rows {
            for col in 0..self.cols {
                let w = self.wear[row * self.cols + col]
                    + self.word_wear[self.widx(row, col / WORD_BITS)];
                if w > 0 {
                    cells.push((row, col, w));
                }
            }
        }
        cells.sort_by(|a, b| b.2.cmp(&a.2).then(a.0.cmp(&b.0)).then(a.1.cmp(&b.1)));
        cells.truncate(k);
        cells
    }

    /// Total writes absorbed by the whole array (running `count_ones()`
    /// sum, O(1)).
    pub fn total_cell_writes(&self) -> u64 {
        self.total_writes
    }

    /// Number of cells in the array.
    pub fn cell_count(&self) -> usize {
        self.rows * self.cols
    }

    /// Injects (or clears, with `None`) a stuck-at fault on a cell.
    ///
    /// # Errors
    ///
    /// Returns [`CrossbarError::OutOfBounds`] for invalid coordinates.
    pub fn inject_fault(
        &mut self,
        row: usize,
        col: usize,
        fault: Option<crate::Fault>,
    ) -> Result<()> {
        self.check(row, col)?;
        let i = self.widx(row, col / WORD_BITS);
        let m = 1u64 << (col % WORD_BITS);
        match fault {
            None => {
                self.fault_mask[i] &= !m;
                self.fault_val[i] &= !m;
            }
            Some(crate::Fault::StuckAtZero) => {
                self.fault_mask[i] |= m;
                self.fault_val[i] &= !m;
            }
            Some(crate::Fault::StuckAtOne) => {
                self.fault_mask[i] |= m;
                self.fault_val[i] |= m;
            }
        }
        Ok(())
    }

    /// Number of cells with an injected fault.
    pub fn fault_count(&self) -> usize {
        self.fault_mask
            .iter()
            .map(|w| w.count_ones() as usize)
            .sum()
    }

    /// Lowest column in `span` of `row` that reads OFF, if any — the
    /// word-parallel strict-init scan (`(word & mask) != mask` → first
    /// zero bit via `trailing_zeros`).
    #[inline]
    pub(crate) fn first_off(&self, row: usize, span: &Range<usize>) -> Option<usize> {
        for (w, mask) in word_span(span) {
            let off = !self.word(row, w) & mask;
            if off != 0 {
                return Some(w * WORD_BITS + off.trailing_zeros() as usize);
            }
        }
        None
    }

    /// OR-fold of `rows` at word index `w` (0 outside the row) — the
    /// multi-input half of a word-parallel NOR.
    #[inline]
    pub(crate) fn fold_or(&self, rows: &[usize], w: isize) -> u64 {
        let mut acc = 0u64;
        for &r in rows {
            acc |= self.word_or_zero(r, w);
        }
        acc
    }
}

/// Word-parallel column-parallel MAGIC NOR with a cross-word funnel shift:
/// for every column `c` of `in_span`, `out[c + shift] = NOR(inputs[c]…)`.
///
/// `inp` and `out` may be the same array only when `shift == 0` (the
/// same-block case); callers pass pre-validated coordinates. The shift is
/// decomposed as `shift = 64·k + r` (Euclidean), and each output word is
/// assembled from the two straddling input-fold words —
/// `(fold[w−k] << r) | (fold[w−k−1] >> (64−r))` — exactly the barrel
/// shifter's funnel datapath.
pub(crate) fn nor_span_cross(
    inp: &PackedArray,
    in_rows: &[usize],
    out: &mut PackedArray,
    out_row: usize,
    in_span: &Range<usize>,
    shift: isize,
) {
    let k = shift.div_euclid(WORD_BITS as isize);
    let r = shift.rem_euclid(WORD_BITS as isize) as u32;
    let out_span =
        (in_span.start as isize + shift) as usize..(in_span.end as isize + shift) as usize;
    for (w, mask) in word_span(&out_span) {
        let hi = inp.fold_or(in_rows, w as isize - k);
        // The funnel contributes (up to) two OR-operands per output word;
        // the gate truth function itself lives in `semantics`.
        let value = if r == 0 {
            crate::semantics::nor_words([hi])
        } else {
            let lo = inp.fold_or(in_rows, w as isize - k - 1);
            crate::semantics::nor_words([hi << r, lo >> (WORD_BITS as u32 - r)])
        };
        out.store_masked(out_row, w, value, mask);
    }
}

/// Same-block word-parallel NOR (`shift == 0`). Reading each word's inputs
/// before storing that word preserves the scalar oracle's semantics when
/// an input row aliases the output row: every column reads its own
/// pre-write value.
pub(crate) fn nor_span_same(
    arr: &mut PackedArray,
    in_rows: &[usize],
    out_row: usize,
    span: &Range<usize>,
) {
    for (w, mask) in word_span(span) {
        let value =
            crate::semantics::nor_words(in_rows.iter().map(|&r| arr.word_or_zero(r, w as isize)));
        arr.store_masked(out_row, w, value, mask);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Fault;

    #[test]
    fn word_span_masks_edges() {
        let spans: Vec<(usize, u64)> = word_span(&(3..7)).collect();
        assert_eq!(spans, vec![(0, 0b0111_1000)]);
        let spans: Vec<(usize, u64)> = word_span(&(60..70)).collect();
        assert_eq!(spans, vec![(0, 0xF000_0000_0000_0000), (1, 0b11_1111)]);
        let spans: Vec<(usize, u64)> = word_span(&(64..128)).collect();
        assert_eq!(spans, vec![(1, u64::MAX)]);
        assert_eq!(word_span(&(5..5)).count(), 0);
    }

    #[test]
    fn new_array_is_all_zero() {
        let a = PackedArray::new(3, 70).unwrap();
        for r in 0..3 {
            for c in 0..70 {
                assert!(!a.get(r, c).unwrap());
            }
        }
        assert_eq!(a.words_per_row(), 2);
    }

    #[test]
    fn zero_dimensions_rejected() {
        assert!(PackedArray::new(0, 5).is_err());
        assert!(PackedArray::new(5, 0).is_err());
    }

    #[test]
    fn set_get_round_trip_across_word_boundary() {
        let mut a = PackedArray::new(2, 130).unwrap();
        for col in [0, 63, 64, 65, 127, 128, 129] {
            a.set(1, col, true).unwrap();
            assert!(a.get(1, col).unwrap(), "col {col}");
            a.set(1, col, false).unwrap();
            assert!(!a.get(1, col).unwrap(), "col {col}");
        }
    }

    #[test]
    fn out_of_bounds_reported() {
        let mut a = PackedArray::new(2, 2).unwrap();
        assert!(matches!(
            a.get(2, 0),
            Err(CrossbarError::OutOfBounds { what: "row", .. })
        ));
        assert!(matches!(
            a.set(0, 7, true),
            Err(CrossbarError::OutOfBounds { what: "col", .. })
        ));
    }

    #[test]
    fn store_word_bits_round_trips_unaligned() {
        let mut a = PackedArray::new(1, 200).unwrap();
        let v = 0xDEAD_BEEF_CAFE_F00Du64;
        a.store_word_bits(0, 61, 64, v).unwrap();
        assert_eq!(a.read_word_bits(0, 61, 64).unwrap(), v);
        // Neighbouring cells untouched.
        assert!(!a.get(0, 60).unwrap());
        assert!(!a.get(0, 125).unwrap());
    }

    #[test]
    fn word_access_bounds_are_structured_errors() {
        // Regression: these used to be debug assertions only, so release
        // builds of out-of-contract calls fell through to slice panics (or
        // silent wraps). They now return structured errors and leave the
        // array untouched.
        let mut a = PackedArray::new(2, 100).unwrap();
        assert!(matches!(
            a.store_word_bits(0, 0, 65, 0),
            Err(CrossbarError::InvalidConfig(_))
        ));
        assert!(matches!(
            a.store_word_bits(2, 0, 4, 0),
            Err(CrossbarError::OutOfBounds { what: "row", .. })
        ));
        assert!(matches!(
            a.store_word_bits(0, 98, 4, 0xF),
            Err(CrossbarError::OutOfBounds { what: "col", .. })
        ));
        assert!(matches!(
            a.read_word_bits(0, 0, 65),
            Err(CrossbarError::InvalidConfig(_))
        ));
        assert!(matches!(
            a.read_word_bits(1, 97, 4),
            Err(CrossbarError::OutOfBounds { what: "col", .. })
        ));
        // The rejected store wrote nothing (no wear, no bits).
        assert_eq!(a.total_cell_writes(), 0);
        assert_eq!(a.read_word_bits(0, 90, 10).unwrap(), 0);
    }

    #[test]
    fn wear_counts_every_masked_cell() {
        let mut a = PackedArray::new(1, 96).unwrap();
        a.fill_on_span(0, &(10..74));
        for c in 10..74 {
            assert_eq!(a.cell_writes(0, c).unwrap(), 1, "col {c}");
        }
        assert_eq!(a.cell_writes(0, 9).unwrap(), 0);
        assert_eq!(a.cell_writes(0, 74).unwrap(), 0);
        assert_eq!(a.total_cell_writes(), 64);
        assert_eq!(a.max_cell_writes(), 1);
    }

    #[test]
    fn faults_overlay_reads_but_not_state() {
        let mut a = PackedArray::new(1, 64).unwrap();
        a.set(0, 5, true).unwrap();
        a.inject_fault(0, 5, Some(Fault::StuckAtZero)).unwrap();
        assert!(!a.get(0, 5).unwrap());
        a.set(0, 5, true).unwrap(); // wears, keeps reading stuck value
        assert!(!a.get(0, 5).unwrap());
        assert_eq!(a.cell_writes(0, 5).unwrap(), 2);
        a.inject_fault(0, 5, None).unwrap();
        assert!(a.get(0, 5).unwrap(), "underlying state survived the fault");
        assert_eq!(a.fault_count(), 0);
        a.inject_fault(0, 6, Some(Fault::StuckAtOne)).unwrap();
        assert!(a.get(0, 6).unwrap());
        assert_eq!(a.fault_count(), 1);
    }

    #[test]
    fn first_off_finds_lowest_column() {
        let mut a = PackedArray::new(1, 140).unwrap();
        a.fill_on_span(0, &(0..140));
        assert_eq!(a.first_off(0, &(0..140)), None);
        a.set(0, 70, false).unwrap();
        a.set(0, 130, false).unwrap();
        assert_eq!(a.first_off(0, &(0..140)), Some(70));
        assert_eq!(a.first_off(0, &(71..140)), Some(130));
        assert_eq!(a.first_off(0, &(0..70)), None);
    }

    #[test]
    fn funnel_shift_matches_per_bit_copy() {
        // NOT with shift across word boundaries in both directions.
        for shift in [-70isize, -64, -63, -1, 0, 1, 63, 64, 70] {
            let mut inp = PackedArray::new(1, 256).unwrap();
            let mut out = PackedArray::new(1, 256).unwrap();
            let span = 80..150usize;
            for c in span.clone() {
                inp.set(0, c, (c * 7 + 3) % 3 == 0).unwrap();
            }
            nor_span_cross(&inp, &[0], &mut out, 0, &span, shift);
            for c in span.clone() {
                let oc = (c as isize + shift) as usize;
                assert_eq!(
                    out.get(0, oc).unwrap(),
                    !inp.get(0, c).unwrap(),
                    "shift {shift} col {c}"
                );
            }
        }
    }

    #[test]
    fn same_row_aliasing_reads_pre_write_values() {
        let mut a = PackedArray::new(2, 64).unwrap();
        for c in 0..64 {
            a.set(0, c, c % 2 == 0).unwrap();
        }
        let before: Vec<bool> = (0..64).map(|c| a.get(0, c).unwrap()).collect();
        nor_span_same(&mut a, &[0], 0, &(0..64));
        for (c, &b) in before.iter().enumerate() {
            assert_eq!(a.get(0, c).unwrap(), !b, "col {c}");
        }
    }
}
