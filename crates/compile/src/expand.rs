//! Expansion of transcendental [`Node::Math`] nodes into primitives.
//!
//! The `apim-math` kernels are written once, generically over the
//! [`FxOps`] op-builder trait. Instantiated with `apim_math::IntEval`
//! they are the pure-integer reference semantics; instantiated with the
//! `DagFx` builder here they emit `Add`/`Sub`/`Mul`/`Shl`/`Shr`/`Const`
//! nodes into a [`Dag`]. Because both instantiations run the *same*
//! generic kernel body over the *same* `width`-bit two's-complement op
//! semantics, the expansion is bit-identical to the reference by
//! construction — there is no separate "lowering of sin" to get wrong.
//!
//! Every multiplication the kernels emit is [`PrecisionMode::Exact`]:
//! the kernels' sign-flag selects multiply by `{0, 1}` values, which an
//! approximate first-stage mask would zero out. The precision knob for
//! transcendentals is the iteration count / table size carried in the
//! node's `MathSpec`, not the §3.4 multiplier modes.

use apim_logic::PrecisionMode;
use apim_math::FxOps;

use crate::ir::{Dag, Node, NodeId};

/// An [`FxOps`] builder that appends primitive nodes to a [`Dag`].
///
/// All emitted operands are ids the wrapper itself just created (or the
/// mapped kernel input), so the builder calls cannot fail; the `MathSpec`
/// was validated at `Dag::math` time, which keeps every shift amount the
/// kernels emit inside `1..width`.
struct DagFx<'a>(&'a mut Dag);

impl FxOps for DagFx<'_> {
    type V = NodeId;

    fn width(&self) -> u32 {
        self.0.width()
    }

    fn constant(&mut self, value: i64) -> NodeId {
        self.0.constant(value as u64)
    }

    fn add(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.0.add(a, b).expect("operands were just created")
    }

    fn sub(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.0.sub(a, b).expect("operands were just created")
    }

    fn mul(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.0
            .mul(a, b, PrecisionMode::Exact)
            .expect("operands were just created")
    }

    fn shl(&mut self, x: NodeId, amount: u32) -> NodeId {
        self.0
            .shl(x, amount)
            .expect("validated specs keep kernel shifts in 1..width")
    }

    fn shr(&mut self, x: NodeId, amount: u32) -> NodeId {
        self.0
            .shr(x, amount)
            .expect("validated specs keep kernel shifts in 1..width")
    }
}

/// Whether `dag` contains any [`Node::Math`] node.
pub fn has_math(dag: &Dag) -> bool {
    dag.nodes()
        .iter()
        .any(|node| matches!(node, Node::Math { .. }))
}

/// Rewrites every [`Node::Math`] node into its primitive expansion,
/// returning the rewritten DAG (a plain clone when there is nothing to
/// expand). Non-math nodes keep their relative order; ids are remapped.
pub fn expand_math(dag: &Dag) -> Dag {
    if !has_math(dag) {
        return dag.clone();
    }
    let mut out = Dag::new(dag.width()).expect("source DAG width is already validated");
    let mut map: Vec<NodeId> = Vec::with_capacity(dag.len());
    for node in dag.nodes() {
        let new_id = match node {
            Node::Input { name } => out.input(name).expect("source input name is non-empty"),
            Node::Const { value } => out.constant(*value),
            Node::Add { a, b } => out
                .add(map[a.0], map[b.0])
                .expect("mapped operands precede this node"),
            Node::Sub { a, b } => out
                .sub(map[a.0], map[b.0])
                .expect("mapped operands precede this node"),
            Node::Mul { a, b, mode } => out
                .mul(map[a.0], map[b.0], *mode)
                .expect("mapped operands precede this node"),
            Node::Mac { terms, mode } => out
                .mac(
                    terms.iter().map(|&(a, b)| (map[a.0], map[b.0])).collect(),
                    *mode,
                )
                .expect("mapped operands precede this node"),
            Node::Shl { x, amount } => out
                .shl(map[x.0], *amount)
                .expect("mapped operand precedes this node"),
            Node::Shr { x, amount } => out
                .shr(map[x.0], *amount)
                .expect("mapped operand precedes this node"),
            Node::Math { x, spec } => {
                let mut builder = DagFx(&mut out);
                apim_math::build(&mut builder, map[x.0], spec)
            }
        };
        map.push(new_id);
    }
    if let Some(root) = dag.root() {
        out.set_root(map[root.0])
            .expect("mapped root exists in the expansion");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::evaluate_bound;
    use apim_math::{default_spec, MathFn, MathMode, MathSpec};

    #[test]
    fn expansion_matches_math_eval_bit_for_bit() {
        for func in [MathFn::Sin, MathFn::Cos, MathFn::Sqrt] {
            for mode in [
                None,
                Some(MathMode::Cordic { iters: 4 }),
                Some(MathMode::Lut { log2_segments: 2 }),
            ] {
                let mut spec = default_spec(func, 16);
                if let Some(m) = mode {
                    spec.mode = m;
                }
                let mut dag = Dag::new(16).unwrap();
                let x = dag.input("x").unwrap();
                let m = dag.math(x, spec).unwrap();
                dag.set_root(m).unwrap();
                let expanded = expand_math(&dag);
                assert!(!has_math(&expanded));
                for sample in apim_math::reference::domain_samples(func, 16, spec.frac, 9) {
                    let via_node = evaluate_bound(&dag, &[("x", sample)]).unwrap();
                    let via_expansion = evaluate_bound(&expanded, &[("x", sample)]).unwrap();
                    let via_math = apim_math::eval(16, &spec, sample).unwrap();
                    assert_eq!(via_node, via_math, "{spec} node eval at {sample}");
                    assert_eq!(via_expansion, via_math, "{spec} expansion at {sample}");
                }
            }
        }
    }

    #[test]
    fn surrounding_arithmetic_survives_expansion() {
        let mut dag = Dag::new(16).unwrap();
        let x = dag.input("x").unwrap();
        let y = dag.input("y").unwrap();
        let s = dag.add(x, y).unwrap();
        let spec = MathSpec {
            func: MathFn::Sqrt,
            mode: MathMode::Cordic { iters: 8 },
            frac: 0,
        };
        let m = dag.math(s, spec).unwrap();
        let out = dag.sub(m, y).unwrap();
        dag.set_root(out).unwrap();
        let expanded = expand_math(&dag);
        // sqrt(10000 + 25) - 25 = 100 - 25
        let got = evaluate_bound(&expanded, &[("x", 10_000), ("y", 25)]).unwrap();
        assert_eq!(got, 75);
        assert_eq!(
            got,
            evaluate_bound(&dag, &[("x", 10_000), ("y", 25)]).unwrap()
        );
    }

    #[test]
    fn expansion_without_math_is_identity() {
        let mut dag = Dag::new(8).unwrap();
        let x = dag.input("x").unwrap();
        let c = dag.constant(3);
        let m = dag.mul(x, c, PrecisionMode::Exact).unwrap();
        dag.set_root(m).unwrap();
        assert_eq!(expand_math(&dag), dag);
    }
}
