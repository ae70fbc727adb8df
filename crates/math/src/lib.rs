//! Fixed-point transcendental microkernels for APIM.
//!
//! The compiler's DAG language only knows add/sub/mul/MAC/shift — the
//! primitives §3 of the paper builds from MAGIC NOR blocks. Following
//! TransPimLib's approach for instruction-constrained PIM systems, this
//! crate expresses `sin`, `cos` and `sqrt` *in terms of those primitives*:
//!
//! * **CORDIC rotation** for sin/cos — each iteration is two shifted
//!   add/subs plus a data-dependent rotation direction, realized
//!   branch-free as a sign-mask select (`d = 1 - 2·s` with
//!   `s = (z >> (w-1)) ∈ {0, 1}` after negation).
//! * **Restoring integer square root** — one conditional subtract per
//!   result bit, the condition again a sign-mask select.
//! * **Table interpolation (LUT)** — piecewise-linear segments selected by
//!   a chain of `{0,1}` comparison indicators, the cheaper/lower-precision
//!   alternative (segment tables preload into data rows).
//!
//! Every kernel is written once, generically over the [`FxOps`] op-builder
//! trait. Instantiated with [`IntEval`] it *is* the pure-integer reference
//! model; instantiated with `apim-compile`'s DAG builder it *is* the
//! expansion into verified crossbar primitives. Bit-identity between the
//! two is therefore structural, not tested-for: both run the same
//! instruction sequence over the same `width`-bit two's-complement
//! semantics.
//!
//! No `f64` appears anywhere in the kernel or table-generation paths —
//! trigonometric constants are hard-coded Q45 integers
//! ([`consts::ATAN_Q45`]) and LUT tables are produced by the integer
//! CORDIC/isqrt themselves, so compiled programs are free of host
//! floating point end to end. `f64` exists only in [`reference`](mod@reference), the
//! ground-truth oracle used by tests, benchmarks and the quality harness.

#![deny(missing_docs)]

pub mod consts;
pub mod cordic;
pub mod lut;
pub mod ops;
pub mod reference;
pub mod sqrt;

pub use cordic::{cordic_sincos, SinCos};
pub use lut::{lut_interpolate, lut_spec, max_log2_segments, trig_value_q, LutSpec};
pub use ops::{from_pattern, to_pattern, FxOps, IntEval};
pub use sqrt::{isqrt_bits, isqrt_u64, restoring_isqrt, sqrt_nr_q};

use std::fmt;

/// Which transcendental function a [`MathSpec`] computes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MathFn {
    /// `sin(x)` of a Q-`frac` angle in `[-π/2, π/2]`, Q-`frac` result.
    Sin,
    /// `cos(x)` of a Q-`frac` angle in `[-π/2, π/2]`, Q-`frac` result.
    Cos,
    /// `⌊√x⌋` of an unsigned integer `x < 2^(width-1)`.
    Sqrt,
}

impl fmt::Display for MathFn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MathFn::Sin => write!(f, "sin"),
            MathFn::Cos => write!(f, "cos"),
            MathFn::Sqrt => write!(f, "sqrt"),
        }
    }
}

/// The algorithm and its precision knob.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MathMode {
    /// Iterative rotation (trig) or restoring bit recurrence (sqrt);
    /// `iters` is the iteration count — more iterations, tighter error.
    Cordic {
        /// Iterations (trig: `1..=min(width, 31)`; sqrt: `1..=isqrt_bits`).
        iters: u32,
    },
    /// Piecewise-linear table interpolation over `2^log2_segments`
    /// uniform segments — cheaper, lower precision.
    Lut {
        /// Log₂ of the segment count, `1..=6`.
        log2_segments: u32,
    },
}

impl fmt::Display for MathMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MathMode::Cordic { iters } => write!(f, "cordic {iters}"),
            MathMode::Lut { log2_segments } => write!(f, "lut {log2_segments}"),
        }
    }
}

/// A fully-specified transcendental microkernel instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MathSpec {
    /// The function.
    pub func: MathFn,
    /// Algorithm and precision knob.
    pub mode: MathMode,
    /// Fraction bits of the Q-format (trig only; must be 0 for sqrt).
    pub frac: u32,
}

impl fmt::Display for MathSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{} frac {}]", self.func, self.mode, self.frac)
    }
}

/// Why a [`MathSpec`] was rejected for a given width.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MathError {
    /// Word width outside the supported `4..=64`.
    InvalidWidth(u32),
    /// Fraction bits outside the legal range for the function/width.
    InvalidFrac {
        /// Offending fraction bits.
        frac: u32,
        /// Inclusive maximum for this function and width.
        max: u32,
    },
    /// CORDIC iteration count outside the legal range.
    InvalidIters {
        /// Offending iteration count.
        iters: u32,
        /// Inclusive maximum for this function and width.
        max: u32,
    },
    /// LUT segment exponent outside the legal range.
    InvalidSegments {
        /// Offending `log2_segments`.
        log2_segments: u32,
        /// Inclusive maximum for this function and width.
        max: u32,
    },
}

impl fmt::Display for MathError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MathError::InvalidWidth(w) => write!(f, "width {w} outside supported 4..=64"),
            MathError::InvalidFrac { frac, max } => {
                write!(f, "fraction bits {frac} outside 1..={max}")
            }
            MathError::InvalidIters { iters, max } => {
                write!(f, "cordic iterations {iters} outside 1..={max}")
            }
            MathError::InvalidSegments { log2_segments, max } => {
                write!(f, "lut log2 segments {log2_segments} outside 1..={max}")
            }
        }
    }
}

impl std::error::Error for MathError {}

/// Inclusive CORDIC iteration maximum for `func` at `width`.
pub fn max_iters(func: MathFn, width: u32) -> u32 {
    match func {
        MathFn::Sin | MathFn::Cos => width.min(consts::ATAN_Q45.len() as u32),
        MathFn::Sqrt => isqrt_bits(width),
    }
}

/// Validates `spec` against `width`-bit words.
///
/// Trig functions need `1 ≤ frac ≤ width - 3` (two integer bits plus the
/// sign: intermediate CORDIC state reaches ±2.4 and `z` excursions ±3.2).
/// Sqrt is a pure-integer kernel and requires `frac == 0`.
///
/// # Errors
///
/// A [`MathError`] naming the offending parameter and its legal range.
pub fn validate(width: u32, spec: &MathSpec) -> Result<(), MathError> {
    if !(4..=64).contains(&width) {
        return Err(MathError::InvalidWidth(width));
    }
    match spec.func {
        MathFn::Sin | MathFn::Cos => {
            let max = width - 3;
            if spec.frac == 0 || spec.frac > max {
                return Err(MathError::InvalidFrac {
                    frac: spec.frac,
                    max,
                });
            }
        }
        MathFn::Sqrt => {
            if spec.frac != 0 {
                return Err(MathError::InvalidFrac {
                    frac: spec.frac,
                    max: 0,
                });
            }
        }
    }
    match spec.mode {
        MathMode::Cordic { iters } => {
            let max = max_iters(spec.func, width);
            if iters == 0 || iters > max {
                return Err(MathError::InvalidIters { iters, max });
            }
        }
        MathMode::Lut { log2_segments } => {
            let max = lut::max_log2_segments(spec.func, width, spec.frac);
            if log2_segments == 0 || log2_segments > max {
                return Err(MathError::InvalidSegments { log2_segments, max });
            }
        }
    }
    Ok(())
}

/// The default spec for `func` at `width`: CORDIC with enough iterations
/// to drive the residual below the Q-format quantization floor (capped at
/// 16 for trig), fraction bits at the headroom maximum `width - 3`.
pub fn default_spec(func: MathFn, width: u32) -> MathSpec {
    match func {
        MathFn::Sin | MathFn::Cos => MathSpec {
            func,
            mode: MathMode::Cordic {
                iters: (width - 3).clamp(1, 16).min(max_iters(func, width)),
            },
            frac: width - 3,
        },
        MathFn::Sqrt => MathSpec {
            func,
            mode: MathMode::Cordic {
                iters: isqrt_bits(width),
            },
            frac: 0,
        },
    }
}

/// Emits the microkernel for `spec` through `ops`, returning the result
/// value. The spec must be valid for `ops.width()` (see [`validate`]);
/// kernels assume it and an invalid spec may panic.
pub fn build<O: FxOps>(ops: &mut O, x: O::V, spec: &MathSpec) -> O::V {
    debug_assert!(validate(ops.width(), spec).is_ok());
    match (spec.func, spec.mode) {
        (MathFn::Sin, MathMode::Cordic { iters }) => cordic_sincos(ops, x, spec.frac, iters).sin,
        (MathFn::Cos, MathMode::Cordic { iters }) => cordic_sincos(ops, x, spec.frac, iters).cos,
        (MathFn::Sqrt, MathMode::Cordic { iters }) => restoring_isqrt(ops, x, iters),
        (_, MathMode::Lut { log2_segments }) => {
            let table = lut_spec(spec.func, ops.width(), spec.frac, log2_segments);
            lut_interpolate(ops, x, &table)
        }
    }
}

/// Evaluates `spec` on the `width`-bit input pattern `x` with the
/// pure-integer reference evaluator — the semantic ground truth the
/// compiled expansion matches bit for bit (same generic kernel, same
/// two's-complement ops).
///
/// # Errors
///
/// [`MathError`] when the spec is invalid for `width`.
pub fn eval(width: u32, spec: &MathSpec, x: u64) -> Result<u64, MathError> {
    validate(width, spec)?;
    let mut ops = IntEval::new(width)?;
    let xin = x & ops.mask();
    Ok(build(&mut ops, xin, spec))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validate_rejects_bad_parameters() {
        let sin8 = default_spec(MathFn::Sin, 8);
        assert!(validate(8, &sin8).is_ok());
        assert!(matches!(
            validate(3, &sin8),
            Err(MathError::InvalidWidth(3))
        ));
        let bad_frac = MathSpec { frac: 6, ..sin8 };
        assert!(matches!(
            validate(8, &bad_frac),
            Err(MathError::InvalidFrac { frac: 6, max: 5 })
        ));
        let bad_iters = MathSpec {
            mode: MathMode::Cordic { iters: 40 },
            ..sin8
        };
        assert!(matches!(
            validate(8, &bad_iters),
            Err(MathError::InvalidIters { iters: 40, .. })
        ));
        let sqrt_frac = MathSpec {
            func: MathFn::Sqrt,
            mode: MathMode::Cordic { iters: 2 },
            frac: 3,
        };
        assert!(matches!(
            validate(8, &sqrt_frac),
            Err(MathError::InvalidFrac { frac: 3, max: 0 })
        ));
    }

    #[test]
    fn default_specs_are_valid_across_widths() {
        for width in 4..=64 {
            for func in [MathFn::Sin, MathFn::Cos, MathFn::Sqrt] {
                let spec = default_spec(func, width);
                assert!(validate(width, &spec).is_ok(), "{func} at {width}");
            }
        }
    }

    #[test]
    fn eval_masks_to_width() {
        let spec = default_spec(MathFn::Sqrt, 16);
        let y = eval(16, &spec, 10_000).unwrap();
        assert_eq!(y, 100);
    }
}
