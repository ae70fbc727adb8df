//! Seeded request generators, one per workload. The system under test only
//! ever sees the [`Request`]s these produce; everything the oracles need to
//! judge an answer is derivable from the request itself, except for
//! `expr-unique`, whose generator also builds the expected DAG directly
//! through the `Dag` API so the parser is checked rather than trusted.

use apim::{App, PrecisionMode};
use apim_compile::{Dag, MathFn, NodeId};
use apim_serve::{JobKind, Request, TenantId};
use apim_workloads::image::{synthetic_image, Image};
use std::collections::HashSet;

/// SplitMix64: a tiny, fully specified generator, so a seed names the same
/// inputs on every platform and toolchain.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream` so separate phases
    /// of one run draw independent sequences.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        rng.next_u64();
        rng
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// `true` with probability `percent / 100`.
    pub fn percent(&mut self, percent: u64) -> bool {
        self.below(100) < percent
    }
}

/// Tenants the pool workloads spread over.
const POOL_TENANTS: u64 = 4;
/// Tenants the fleet workload spreads over.
const FLEET_TENANTS: u64 = 8;
/// Side of the synthetic image pixel taps are cut from.
pub const IMAGE_SIDE: usize = 64;

/// `pixel-stream`: sharpen and Sobel-gradient pixels cut from one seeded
/// synthetic image, in a fixed sharpen, sharpen, Sobel cycle. A Sobel pixel
/// costs about twice a sharpen pixel, so an even split would put the median
/// latency in the gap between the two kernels' latencies, where it flips
/// with every stall of the host; at two to one it sits inside the sharpen
/// mode. A fixed cycle rather than a coin flip keeps random runs of one
/// kernel from setting the latency tail.
#[derive(Debug, Clone)]
pub struct PixelGen {
    rng: Rng,
    image: Image,
    sent: u64,
}

impl PixelGen {
    /// A generator over the seed's image; `stream` separates phases.
    pub fn new(seed: u64, stream: u64) -> Self {
        PixelGen {
            rng: Rng::new(seed, stream),
            image: synthetic_image(IMAGE_SIDE, IMAGE_SIDE, seed),
            sent: 0,
        }
    }

    /// The next pixel request.
    pub fn next_request(&mut self) -> Request {
        let tenant = TenantId(self.rng.below(POOL_TENANTS) as u16);
        let x = self.rng.below(IMAGE_SIDE as u64) as isize;
        let y = self.rng.below(IMAGE_SIDE as u64) as isize;
        let px = |dx: isize, dy: isize| i64::from(self.image.get_clamped(x + dx, y + dy)) as u64;
        self.sent += 1;
        let (app, taps) = if !self.sent.is_multiple_of(3) {
            // Declaration order of the sharpen DAG: c n w e s.
            (
                App::Sharpen,
                vec![px(0, 0), px(0, -1), px(-1, 0), px(1, 0), px(0, 1)],
            )
        } else {
            // Sobel: l0 r0 l1 r1 l2 r2, horizontal or (transposed) vertical.
            let taps = if self.rng.percent(50) {
                vec![
                    px(-1, -1),
                    px(1, -1),
                    px(-1, 0),
                    px(1, 0),
                    px(-1, 1),
                    px(1, 1),
                ]
            } else {
                vec![
                    px(-1, -1),
                    px(-1, 1),
                    px(0, -1),
                    px(0, 1),
                    px(1, -1),
                    px(1, 1),
                ]
            };
            (App::Sobel, taps)
        };
        Request::new(JobKind::Pixel { app, taps }).tenant(tenant)
    }
}

/// The compiled-kernel DAG a pixel app runs, as `apim-workloads` defines it.
pub fn kernel_dag(app: App) -> Dag {
    match app {
        App::Sharpen => apim_workloads::dags::sharpen_dag(),
        _ => apim_workloads::dags::sobel_gradient_dag(),
    }
}

/// One generated expression program: the source the system receives and
/// the DAG the generator built for the oracle.
#[derive(Debug, Clone)]
pub struct ExprProgram {
    /// Program text in the `apim-compile` expression language.
    pub source: String,
    /// The same program built directly through the `Dag` API.
    pub dag: Dag,
}

/// A tiny expression tree, rendered to source and built to a DAG from the
/// same description.
#[derive(Debug, Clone)]
enum Expr {
    Var(usize),
    Lit(u64),
    Add(Box<Expr>, Box<Expr>),
    Sub(Box<Expr>, Box<Expr>),
    Mul(Box<Expr>, Box<Expr>),
    Mac(Vec<(Expr, Expr)>),
    Shr(Box<Expr>, u32),
    Math(MathFn, Box<Expr>),
}

fn add(a: Expr, b: Expr) -> Expr {
    Expr::Add(Box::new(a), Box::new(b))
}
fn sub(a: Expr, b: Expr) -> Expr {
    Expr::Sub(Box::new(a), Box::new(b))
}
fn mul(a: Expr, b: Expr) -> Expr {
    Expr::Mul(Box::new(a), Box::new(b))
}

impl Expr {
    fn render(&self, names: &[&str], out: &mut String) {
        use std::fmt::Write as _;
        let pair = |a: &Expr, op: &str, b: &Expr, out: &mut String| {
            out.push('(');
            a.render(names, out);
            let _ = write!(out, " {op} ");
            b.render(names, out);
            out.push(')');
        };
        match self {
            Expr::Var(i) => out.push_str(names[*i]),
            Expr::Lit(v) => {
                let _ = write!(out, "{v}");
            }
            Expr::Add(a, b) => pair(a, "+", b, out),
            Expr::Sub(a, b) => pair(a, "-", b, out),
            Expr::Mul(a, b) => pair(a, "*", b, out),
            Expr::Mac(terms) => {
                out.push_str("mac(");
                for (i, (a, b)) in terms.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    a.render(names, out);
                    out.push_str(" * ");
                    b.render(names, out);
                }
                out.push(')');
            }
            Expr::Shr(x, s) => {
                out.push('(');
                x.render(names, out);
                let _ = write!(out, " >> {s})");
            }
            Expr::Math(f, x) => {
                let _ = write!(out, "{f}(");
                x.render(names, out);
                out.push(')');
            }
        }
    }

    fn build(&self, dag: &mut Dag, vars: &[NodeId], mode: PrecisionMode) -> NodeId {
        let built = match self {
            Expr::Var(i) => Ok(vars[*i]),
            Expr::Lit(v) => Ok(dag.constant(*v)),
            Expr::Add(a, b) => {
                let (a, b) = (a.build(dag, vars, mode), b.build(dag, vars, mode));
                dag.add(a, b)
            }
            Expr::Sub(a, b) => {
                let (a, b) = (a.build(dag, vars, mode), b.build(dag, vars, mode));
                dag.sub(a, b)
            }
            Expr::Mul(a, b) => {
                let (a, b) = (a.build(dag, vars, mode), b.build(dag, vars, mode));
                dag.mul(a, b, mode)
            }
            Expr::Mac(terms) => {
                let terms = terms
                    .iter()
                    .map(|(a, b)| (a.build(dag, vars, mode), b.build(dag, vars, mode)))
                    .collect();
                dag.mac(terms, mode)
            }
            Expr::Shr(x, s) => {
                let x = x.build(dag, vars, mode);
                dag.shr(x, *s)
            }
            Expr::Math(f, x) => {
                let x = x.build(dag, vars, mode);
                let spec = apim_math::default_spec(*f, dag.width());
                dag.math(x, spec)
            }
        };
        built.expect("generated programs are well-formed by construction")
    }
}

/// `expr-unique`: seeded random programs, every source distinct.
#[derive(Debug, Clone)]
pub struct ExprGen {
    rng: Rng,
    seen: HashSet<String>,
}

/// Input names every program declares, bound by the pool to 1, 2, 3
/// (declaration index + 1).
const INPUTS: [&str; 3] = ["a", "b", "c"];

impl ExprGen {
    /// A generator for `seed`; `stream` separates phases.
    pub fn new(seed: u64, stream: u64) -> Self {
        ExprGen {
            rng: Rng::new(seed, stream),
            seen: HashSet::new(),
        }
    }

    /// The next program, distinct from every one this generator produced.
    pub fn next_program(&mut self) -> ExprProgram {
        loop {
            let program = self.draw();
            if self.seen.insert(program.source.clone()) {
                return program;
            }
        }
    }

    /// The request carrying `program`, on a seeded tenant.
    pub fn request(&mut self, program: &ExprProgram) -> Request {
        let tenant = TenantId(self.rng.below(POOL_TENANTS) as u16);
        Request::new(JobKind::Compile {
            source: program.source.clone(),
        })
        .tenant(tenant)
    }

    fn draw(&mut self) -> ExprProgram {
        let rng = &mut self.rng;
        let (width, mode, lets, out) = if rng.percent(10) {
            // Transcendentals at width <= 12, with arguments kept inside the
            // functions' domains (trig: [0, pi/2) in Q(width-3); sqrt: below
            // 2^(width-1)) for the pool's input bindings a,b,c = 1,2,3.
            let width = if rng.percent(50) { 8 } else { 12 };
            let func = [MathFn::Sin, MathFn::Cos, MathFn::Sqrt][rng.below(3) as usize];
            let (k1, k2) = match (func, width) {
                (MathFn::Sqrt, 8) => (1 + rng.below(30), rng.below(30)),
                (MathFn::Sqrt, _) => (1 + rng.below(300), rng.below(1000)),
                (_, 8) => (1 + rng.below(5), rng.below(30)),
                _ => (1 + rng.below(100), rng.below(480)),
            };
            let t = add(mul(Expr::Var(0), Expr::Lit(k1)), Expr::Lit(k2));
            let out = add(
                Expr::Math(func, Box::new(Expr::Var(3))),
                mul(Expr::Var(1), Expr::Lit(1 + rng.below(7))),
            );
            (width, PrecisionMode::Exact, vec![t], out)
        } else {
            let width = [8u32, 16, 32][rng.below(3) as usize];
            // Multiplier-side constants keep below half the width: a
            // multiplier's set bits become partial-product rows, and a
            // two-term MAC of full-width multipliers would overflow the
            // crossbar's ALU region.
            let k1 = rng.next_u64() & ((1u64 << width) - 1);
            let half = (1u64 << (width / 2 - 1)) - 1;
            let (k2, k3, k4) = (
                rng.next_u64() & half,
                rng.next_u64() & half,
                rng.next_u64() & half,
            );
            let bits = u8::try_from(1 + rng.below(u64::from(width / 4))).expect("small");
            let mode = match rng.below(3) {
                0 => PrecisionMode::Exact,
                1 => PrecisionMode::FirstStage { masked_bits: bits },
                _ => PrecisionMode::LastStage { relax_bits: bits },
            };
            // `p` multiplies by a data-dependent value, so the multiplier's
            // partial products are steered by data at run time.
            let p = mul(
                add(Expr::Var(0), Expr::Lit(k1)),
                add(Expr::Var(1), Expr::Lit(k2)),
            );
            // A MAC pile holds a data-steered term's worst case (about the
            // width) plus the constant term's set bits: at width 32 that
            // exceeds the ALU region, so 32-bit programs take the other two.
            let shapes = if width == 32 { 2 } else { 3 };
            let q = match rng.below(shapes) + 3 - shapes {
                0 => Expr::Mac(vec![
                    (Expr::Var(3), Expr::Lit(k3)),
                    (Expr::Var(2), add(Expr::Var(0), Expr::Lit(k4))),
                ]),
                1 => sub(mul(Expr::Var(3), Expr::Var(2)), Expr::Lit(k3)),
                _ => mul(
                    add(Expr::Var(3), Expr::Lit(k3)),
                    add(Expr::Var(2), Expr::Lit(k4)),
                ),
            };
            let shift = 1 + u32::try_from(rng.below(3)).expect("small");
            let out = Expr::Shr(Box::new(add(Expr::Var(4), Expr::Var(3))), shift);
            (width, mode, vec![p, q], out)
        };
        Self::assemble(width, mode, &lets, &out)
    }

    /// Renders and builds one program: `in a b c`, then `t`/`p`/`q` lets
    /// (variables 3, 4, ...), then `out`.
    fn assemble(width: u32, mode: PrecisionMode, lets: &[Expr], out: &Expr) -> ExprProgram {
        use std::fmt::Write as _;
        const LET_NAMES: [&str; 2] = ["p", "q"];
        let mut names: Vec<&str> = INPUTS.to_vec();
        let mut source = format!("width {width}\n");
        match mode {
            PrecisionMode::Exact => {}
            PrecisionMode::FirstStage { masked_bits } => {
                let _ = writeln!(source, "mode mask {masked_bits}");
            }
            PrecisionMode::LastStage { relax_bits } => {
                let _ = writeln!(source, "mode relax {relax_bits}");
            }
        }
        let mut dag = Dag::new(width).expect("generated widths are supported");
        let mut vars: Vec<NodeId> = Vec::new();
        for name in INPUTS {
            let _ = writeln!(source, "in {name}");
            vars.push(dag.input(name).expect("fresh input"));
        }
        for (i, expr) in lets.iter().enumerate() {
            let _ = write!(source, "let {} = ", LET_NAMES[i]);
            expr.render(&names, &mut source);
            source.push('\n');
            vars.push(expr.build(&mut dag, &vars, mode));
            names.push(LET_NAMES[i]);
        }
        source.push_str("out ");
        out.render(&names, &mut source);
        source.push('\n');
        let root = out.build(&mut dag, &vars, mode);
        dag.set_root(root).expect("root exists");
        ExprProgram { source, dag }
    }
}

/// Share of `fleet-rpc` requests that are `Multiply` / `Mac` (percent);
/// the rest are `Echo`.
const FLEET_MULTIPLY_PCT: u64 = 15;
const FLEET_MAC_PCT: u64 = 5;

/// `fleet-rpc`: mostly echoes, some exact multiplies and MACs.
#[derive(Debug, Clone)]
pub struct FleetGen {
    rng: Rng,
}

impl FleetGen {
    /// A generator for `seed`; `stream` separates phases.
    pub fn new(seed: u64, stream: u64) -> Self {
        FleetGen {
            rng: Rng::new(seed, stream),
        }
    }

    /// The next request. Operands are 32-bit, the device's operand width,
    /// so exact-mode products are exact.
    pub fn next_request(&mut self) -> Request {
        let rng = &mut self.rng;
        let tenant = TenantId(rng.below(FLEET_TENANTS) as u16);
        let roll = rng.below(100);
        let mut operand = || rng.next_u64() & 0xFFFF_FFFF;
        let kind = if roll < FLEET_MULTIPLY_PCT {
            JobKind::Multiply {
                a: operand(),
                b: operand(),
            }
        } else if roll < FLEET_MULTIPLY_PCT + FLEET_MAC_PCT {
            let n = 2 + (operand() % 7) as usize;
            JobKind::Mac {
                pairs: (0..n).map(|_| (operand(), operand())).collect(),
            }
        } else {
            JobKind::Echo {
                payload: rng.next_u64(),
            }
        };
        Request::new(kind).tenant(tenant)
    }
}

/// Dataset sizes of the `paper-sweep` grid, MiB.
pub const SWEEP_MB: [u64; 3] = [32, 64, 128];

/// Precision modes of the `paper-sweep` grid.
pub fn sweep_modes() -> [PrecisionMode; 3] {
    [
        PrecisionMode::Exact,
        PrecisionMode::LastStage { relax_bits: 8 },
        PrecisionMode::LastStage { relax_bits: 16 },
    ]
}

/// The paper's six-app grid in campaign row order (app-major, then size,
/// then mode).
pub fn sweep_jobs() -> Vec<(App, u64, PrecisionMode)> {
    let mut jobs = Vec::new();
    for app in App::all() {
        for mb in SWEEP_MB {
            for mode in sweep_modes() {
                jobs.push((app, mb << 20, mode));
            }
        }
    }
    jobs
}

/// One sweep round: every grid job once, in campaign row order, on seeded
/// tenants. The order stays fixed because `run_all`'s batch placement
/// depends on it: the seed varies who asks, not how much work there is.
pub fn sweep_round(rng: &mut Rng) -> Vec<Request> {
    sweep_jobs()
        .into_iter()
        .map(|(app, dataset_bytes, mode)| {
            Request::new(JobKind::Run { app, dataset_bytes })
                .mode(mode)
                .tenant(TenantId(rng.below(POOL_TENANTS) as u16))
        })
        .collect()
}
