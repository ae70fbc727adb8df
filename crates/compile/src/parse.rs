//! The `apim` expression language: a line-oriented front end for
//! [`Dag`]s.
//!
//! ```text
//! # sharpen inner loop, 16-bit fixed point
//! width 16
//! mode relax 4
//! let acc = mac(c*5, n*65535, s*65535)
//! out acc >> 2
//! ```
//!
//! Grammar (one statement per line, `#` starts a comment):
//!
//! ```text
//! program   := line*
//! line      := "width" INT | "mode" mode | "math" math | "in" IDENT
//!            | "let" IDENT "=" expr | "out" expr
//! mode      := "exact" | "mask" INT | "relax" INT
//! math      := ("cordic" INT | "lut" INT) ["frac" INT]
//! expr      := sum (("<<" | ">>") INT)*
//! sum       := term (("+" | "-") term)*
//! term      := atom ("*" atom)*
//! atom      := INT | IDENT | "(" expr ")" | "-" atom
//!            | "mac" "(" atom "*" atom ("," atom "*" atom)* ")"
//!            | ("sin" | "cos" | "sqrt") "(" expr ")"
//! ```
//!
//! Shifts bind loosest (like C); integer literals take `0x`/`0b`
//! prefixes and `_` separators. Identifiers not bound by `let`/`in`
//! become run-time inputs on first use. The active `mode` directive
//! annotates every following `*`/`mac`; the active `math` directive
//! picks the algorithm/precision of every following `sin`/`cos`/`sqrt`
//! (per-function defaults when absent, iteration/segment counts clamped
//! to the function's legal range at the program width, the `frac`
//! clause applying to trig only — sqrt is integer-domain). `sin`, `cos`,
//! `sqrt` and `mac` are only special when called — followed by `(` —
//! and stay ordinary identifiers otherwise. Errors carry 1-based line
//! and column, in the same `line:col: message` shape the serve request
//! parser uses.
//!
//! [`render_program`] is the canonical inverse: it emits one `in`/`let`
//! per node in id order, so `parse(render(p))` reproduces `p`'s DAG
//! node for node — the round-trip property the CLI tests pin.

use std::collections::HashMap;

use apim_logic::PrecisionMode;
use apim_math::{default_spec, max_iters, max_log2_segments, validate, MathFn, MathMode, MathSpec};

use crate::ir::{Dag, Node, NodeId};
use crate::CompileError;

/// A source-located syntax or semantic error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based source line.
    pub line: usize,
    /// 1-based source column.
    pub col: usize,
    /// What went wrong.
    pub msg: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}: {}", self.line, self.col, self.msg)
    }
}

impl std::error::Error for ParseError {}

/// A parsed program: the DAG plus nothing else — names and modes are
/// already baked into the nodes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Program {
    /// The expression DAG, with the `out` expression as root.
    pub dag: Dag,
}

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Ident(String),
    Num(u64),
    Plus,
    Minus,
    Star,
    Shl,
    Shr,
    LParen,
    RParen,
    Comma,
    Eq,
}

impl std::fmt::Display for Tok {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Tok::Ident(s) => write!(f, "'{s}'"),
            Tok::Num(v) => write!(f, "'{v}'"),
            Tok::Plus => write!(f, "'+'"),
            Tok::Minus => write!(f, "'-'"),
            Tok::Star => write!(f, "'*'"),
            Tok::Shl => write!(f, "'<<'"),
            Tok::Shr => write!(f, "'>>'"),
            Tok::LParen => write!(f, "'('"),
            Tok::RParen => write!(f, "')'"),
            Tok::Comma => write!(f, "','"),
            Tok::Eq => write!(f, "'='"),
        }
    }
}

fn err(line: usize, col: usize, msg: impl Into<String>) -> ParseError {
    ParseError {
        line,
        col,
        msg: msg.into(),
    }
}

fn lex(line_no: usize, line: &str) -> Result<Vec<(Tok, usize)>, ParseError> {
    let mut toks = Vec::new();
    let chars: Vec<char> = line.chars().collect();
    let mut i = 0;
    while i < chars.len() {
        let col = i + 1;
        let c = chars[i];
        match c {
            '#' => break,
            c if c.is_whitespace() => i += 1,
            '+' => {
                toks.push((Tok::Plus, col));
                i += 1;
            }
            '-' => {
                toks.push((Tok::Minus, col));
                i += 1;
            }
            '*' => {
                toks.push((Tok::Star, col));
                i += 1;
            }
            '(' => {
                toks.push((Tok::LParen, col));
                i += 1;
            }
            ')' => {
                toks.push((Tok::RParen, col));
                i += 1;
            }
            ',' => {
                toks.push((Tok::Comma, col));
                i += 1;
            }
            '=' => {
                toks.push((Tok::Eq, col));
                i += 1;
            }
            '<' | '>' => {
                if i + 1 >= chars.len() || chars[i + 1] != c {
                    return Err(err(line_no, col, format!("expected '{c}{c}'")));
                }
                toks.push((if c == '<' { Tok::Shl } else { Tok::Shr }, col));
                i += 2;
            }
            c if c.is_ascii_digit() => {
                let start = i;
                while i < chars.len() && (chars[i].is_ascii_alphanumeric() || chars[i] == '_') {
                    i += 1;
                }
                let text: String = chars[start..i].iter().collect();
                let digits = text.replace('_', "");
                let parsed = if let Some(hex) = digits.strip_prefix("0x") {
                    u64::from_str_radix(hex, 16)
                } else if let Some(bin) = digits.strip_prefix("0b") {
                    u64::from_str_radix(bin, 2)
                } else {
                    digits.parse()
                };
                match parsed {
                    Ok(v) => toks.push((Tok::Num(v), col)),
                    Err(_) => {
                        return Err(err(line_no, col, format!("bad integer literal '{text}'")))
                    }
                }
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let start = i;
                while i < chars.len() && (chars[i].is_ascii_alphanumeric() || chars[i] == '_') {
                    i += 1;
                }
                toks.push((Tok::Ident(chars[start..i].iter().collect()), col));
            }
            other => return Err(err(line_no, col, format!("unexpected character '{other}'"))),
        }
    }
    Ok(toks)
}

struct Parser {
    dag: Option<Dag>,
    names: HashMap<String, NodeId>,
    mode: PrecisionMode,
    math: Option<(MathMode, Option<u32>)>,
    has_out: bool,
}

/// Resolves the active `math` directive (if any) into the concrete spec a
/// `sin`/`cos`/`sqrt` call gets at this program width: per-function
/// defaults when no directive is active, the directive's knob clamped to
/// the function's legal range otherwise, the `frac` clause applying to
/// trig only.
fn applied_math_spec(
    state: Option<(MathMode, Option<u32>)>,
    func: MathFn,
    width: u32,
) -> Result<MathSpec, String> {
    if !(4..=64).contains(&width) {
        return Err(format!("math functions need width 4..=64, have {width}"));
    }
    let mut spec = default_spec(func, width);
    let Some((mode, frac)) = state else {
        return Ok(spec);
    };
    if func != MathFn::Sqrt {
        if let Some(f) = frac {
            spec.frac = f;
            // Reject an illegal format before the LUT bound below
            // computes with it.
            validate(width, &spec).map_err(|e| e.to_string())?;
        }
    }
    spec.mode = match mode {
        MathMode::Cordic { iters } => MathMode::Cordic {
            iters: iters.clamp(1, max_iters(func, width)),
        },
        MathMode::Lut { log2_segments } => {
            let max = max_log2_segments(func, width, spec.frac);
            if max == 0 {
                return Err(format!(
                    "lut mode is unavailable for {func} at width {width}"
                ));
            }
            MathMode::Lut {
                log2_segments: log2_segments.clamp(1, max),
            }
        }
    };
    Ok(spec)
}

/// One line's token cursor.
struct Cursor<'a> {
    toks: &'a [(Tok, usize)],
    pos: usize,
    line: usize,
    end_col: usize,
}

impl Cursor<'_> {
    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos).map(|(t, _)| t)
    }

    fn col(&self) -> usize {
        self.toks
            .get(self.pos)
            .map(|&(_, c)| c)
            .unwrap_or(self.end_col)
    }

    fn next(&mut self, what: &str) -> Result<(Tok, usize), ParseError> {
        match self.toks.get(self.pos) {
            Some((t, c)) => {
                self.pos += 1;
                Ok((t.clone(), *c))
            }
            None => Err(err(self.line, self.end_col, format!("expected {what}"))),
        }
    }

    fn expect(&mut self, tok: Tok) -> Result<usize, ParseError> {
        let (t, c) = self.next(&tok.to_string())?;
        if t == tok {
            Ok(c)
        } else {
            Err(err(self.line, c, format!("expected {tok}, found {t}")))
        }
    }

    fn number(&mut self, what: &str) -> Result<(u64, usize), ParseError> {
        let (t, c) = self.next(what)?;
        match t {
            Tok::Num(v) => Ok((v, c)),
            other => Err(err(self.line, c, format!("expected {what}, found {other}"))),
        }
    }

    /// [`Cursor::number`] for a field narrower than `u64`: a value that
    /// does not fit is an error, never a silent truncation.
    fn narrow<T: TryFrom<u64>>(&mut self, what: &str) -> Result<(T, usize), ParseError> {
        let (v, c) = self.number(what)?;
        T::try_from(v)
            .map(|v| (v, c))
            .map_err(|_| err(self.line, c, format!("{what} {v} out of range")))
    }

    fn done(&self) -> Result<(), ParseError> {
        match self.toks.get(self.pos) {
            None => Ok(()),
            Some((t, c)) => Err(err(self.line, *c, format!("trailing {t} after statement"))),
        }
    }
}

impl Parser {
    fn new() -> Self {
        Parser {
            dag: None,
            names: HashMap::new(),
            mode: PrecisionMode::Exact,
            math: None,
            has_out: false,
        }
    }

    fn dag(&mut self, line: usize, col: usize) -> Result<&mut Dag, ParseError> {
        self.dag
            .as_mut()
            .ok_or_else(|| err(line, col, "'width' directive must come first"))
    }

    fn lift<T>(r: Result<T, CompileError>, line: usize, col: usize) -> Result<T, ParseError> {
        r.map_err(|e| err(line, col, e.to_string()))
    }

    fn statement(&mut self, cur: &mut Cursor<'_>) -> Result<(), ParseError> {
        let (head, head_col) = cur.next("a statement")?;
        let keyword = match head {
            Tok::Ident(s) => s,
            other => {
                return Err(err(
                    cur.line,
                    head_col,
                    format!("expected a statement keyword, found {other}"),
                ))
            }
        };
        match keyword.as_str() {
            "width" => {
                let (w, c) = cur.narrow("a word width")?;
                if self.dag.is_some() {
                    return Err(err(cur.line, head_col, "duplicate 'width' directive"));
                }
                self.dag = Some(Self::lift(Dag::new(w), cur.line, c)?);
            }
            "mode" => {
                let (t, c) = cur.next("'exact', 'mask' or 'relax'")?;
                let name = match t {
                    Tok::Ident(s) => s,
                    other => {
                        return Err(err(
                            cur.line,
                            c,
                            format!("expected a mode name, found {other}"),
                        ))
                    }
                };
                self.mode = match name.as_str() {
                    "exact" => PrecisionMode::Exact,
                    "mask" => {
                        let (masked_bits, _) = cur.narrow("masked bit count")?;
                        PrecisionMode::FirstStage { masked_bits }
                    }
                    "relax" => {
                        let (relax_bits, _) = cur.narrow("relaxed bit count")?;
                        PrecisionMode::LastStage { relax_bits }
                    }
                    other => {
                        return Err(err(
                            cur.line,
                            c,
                            format!("unknown mode '{other}' (want exact, mask N or relax N)"),
                        ))
                    }
                };
            }
            "math" => {
                let (t, c) = cur.next("'cordic' or 'lut'")?;
                let name = match t {
                    Tok::Ident(s) => s,
                    other => {
                        return Err(err(
                            cur.line,
                            c,
                            format!("expected a math mode name, found {other}"),
                        ))
                    }
                };
                let mode = match name.as_str() {
                    "cordic" => {
                        let (iters, _) = cur.narrow("an iteration count")?;
                        MathMode::Cordic { iters }
                    }
                    "lut" => {
                        let (log2_segments, _) = cur.narrow("a log2 segment count")?;
                        MathMode::Lut { log2_segments }
                    }
                    other => {
                        return Err(err(
                            cur.line,
                            c,
                            format!("unknown math mode '{other}' (want cordic N or lut N)"),
                        ))
                    }
                };
                let frac = if cur.peek() == Some(&Tok::Ident("frac".into())) {
                    cur.next("'frac'")?;
                    let (f, _) = cur.narrow("fraction bits")?;
                    Some(f)
                } else {
                    None
                };
                self.math = Some((mode, frac));
            }
            "in" => {
                let (t, c) = cur.next("an input name")?;
                let name = match t {
                    Tok::Ident(s) => s,
                    other => {
                        return Err(err(
                            cur.line,
                            c,
                            format!("expected an input name, found {other}"),
                        ))
                    }
                };
                if self.names.contains_key(&name) {
                    return Err(err(cur.line, c, format!("'{name}' is already defined")));
                }
                let dag = self.dag(cur.line, head_col)?;
                let id = Self::lift(dag.input(&name), cur.line, c)?;
                self.names.insert(name, id);
            }
            "let" => {
                let (t, c) = cur.next("a binding name")?;
                let name = match t {
                    Tok::Ident(s) => s,
                    other => {
                        return Err(err(
                            cur.line,
                            c,
                            format!("expected a binding name, found {other}"),
                        ))
                    }
                };
                if self.names.contains_key(&name) {
                    return Err(err(cur.line, c, format!("'{name}' is already defined")));
                }
                cur.expect(Tok::Eq)?;
                self.dag(cur.line, head_col)?;
                let id = self.expr(cur)?;
                self.names.insert(name, id);
            }
            "out" => {
                if self.has_out {
                    return Err(err(cur.line, head_col, "duplicate 'out' statement"));
                }
                self.dag(cur.line, head_col)?;
                let id = self.expr(cur)?;
                let dag = self.dag.as_mut().expect("checked above");
                Self::lift(dag.set_root(id), cur.line, head_col)?;
                self.has_out = true;
            }
            other => {
                return Err(err(
                    cur.line,
                    head_col,
                    format!("unknown statement '{other}' (want width, mode, math, in, let or out)"),
                ))
            }
        }
        cur.done()
    }

    /// expr := sum (("<<" | ">>") INT)*
    fn expr(&mut self, cur: &mut Cursor<'_>) -> Result<NodeId, ParseError> {
        let mut id = self.sum(cur)?;
        loop {
            let left = match cur.peek() {
                Some(Tok::Shl) => true,
                Some(Tok::Shr) => false,
                _ => return Ok(id),
            };
            let (_, op_col) = cur.next("a shift")?;
            let (amount, _) = cur.narrow("a constant shift distance")?;
            let dag = self.dag.as_mut().expect("expr implies width");
            id = Self::lift(
                if left {
                    dag.shl(id, amount)
                } else {
                    dag.shr(id, amount)
                },
                cur.line,
                op_col,
            )?;
        }
    }

    /// sum := term (("+" | "-") term)*
    fn sum(&mut self, cur: &mut Cursor<'_>) -> Result<NodeId, ParseError> {
        let mut id = self.term(cur)?;
        loop {
            let plus = match cur.peek() {
                Some(Tok::Plus) => true,
                Some(Tok::Minus) => false,
                _ => return Ok(id),
            };
            let (_, op_col) = cur.next("an operator")?;
            let rhs = self.term(cur)?;
            let dag = self.dag.as_mut().expect("expr implies width");
            id = Self::lift(
                if plus {
                    dag.add(id, rhs)
                } else {
                    dag.sub(id, rhs)
                },
                cur.line,
                op_col,
            )?;
        }
    }

    /// term := atom ("*" atom)*
    fn term(&mut self, cur: &mut Cursor<'_>) -> Result<NodeId, ParseError> {
        let mut id = self.atom(cur)?;
        while cur.peek() == Some(&Tok::Star) {
            let (_, op_col) = cur.next("an operator")?;
            let rhs = self.atom(cur)?;
            let mode = self.mode;
            let dag = self.dag.as_mut().expect("expr implies width");
            id = Self::lift(dag.mul(id, rhs, mode), cur.line, op_col)?;
        }
        Ok(id)
    }

    /// atom := INT | IDENT | "(" expr ")" | "-" atom | mac-form
    ///       | ("sin" | "cos" | "sqrt") "(" expr ")"
    fn atom(&mut self, cur: &mut Cursor<'_>) -> Result<NodeId, ParseError> {
        let (t, col) = cur.next("an expression")?;
        match t {
            Tok::Num(v) => Ok(self.dag.as_mut().expect("expr implies width").constant(v)),
            Tok::LParen => {
                let id = self.expr(cur)?;
                cur.expect(Tok::RParen)?;
                Ok(id)
            }
            Tok::Minus => {
                if let Some(Tok::Num(_)) = cur.peek() {
                    // A negative literal is one constant node, not 0 - x.
                    let (v, _) = cur.number("an integer")?;
                    let dag = self.dag.as_mut().expect("expr implies width");
                    return Ok(dag.constant(v.wrapping_neg()));
                }
                let inner = self.atom(cur)?;
                let dag = self.dag.as_mut().expect("expr implies width");
                let zero = dag.constant(0);
                Self::lift(dag.sub(zero, inner), cur.line, col)
            }
            Tok::Ident(name) if name == "mac" && cur.peek() == Some(&Tok::LParen) => {
                self.mac_form(cur, col)
            }
            Tok::Ident(name)
                if matches!(name.as_str(), "sin" | "cos" | "sqrt")
                    && cur.peek() == Some(&Tok::LParen) =>
            {
                let func = match name.as_str() {
                    "sin" => MathFn::Sin,
                    "cos" => MathFn::Cos,
                    _ => MathFn::Sqrt,
                };
                cur.expect(Tok::LParen)?;
                let x = self.expr(cur)?;
                cur.expect(Tok::RParen)?;
                let dag = self.dag.as_mut().expect("expr implies width");
                let spec = applied_math_spec(self.math, func, dag.width())
                    .map_err(|msg| err(cur.line, col, msg))?;
                Self::lift(dag.math(x, spec), cur.line, col)
            }
            Tok::Ident(name) => {
                if let Some(&id) = self.names.get(&name) {
                    return Ok(id);
                }
                // Free identifiers are run-time inputs.
                let dag = self.dag.as_mut().expect("expr implies width");
                let id = Self::lift(dag.input(&name), cur.line, col)?;
                self.names.insert(name, id);
                Ok(id)
            }
            other => Err(err(
                cur.line,
                col,
                format!("expected an expression, found {other}"),
            )),
        }
    }

    /// mac-form := "mac" "(" atom "*" atom ("," atom "*" atom)* ")"
    fn mac_form(&mut self, cur: &mut Cursor<'_>, mac_col: usize) -> Result<NodeId, ParseError> {
        cur.expect(Tok::LParen)?;
        let mut terms = Vec::new();
        loop {
            let a = self.atom(cur)?;
            let star_col = cur.col();
            cur.expect(Tok::Star)
                .map_err(|_| err(cur.line, star_col, "mac terms must be products: a*b"))?;
            let b = self.atom(cur)?;
            terms.push((a, b));
            match cur.next("',' or ')'")? {
                (Tok::Comma, _) => continue,
                (Tok::RParen, _) => break,
                (other, c) => {
                    return Err(err(
                        cur.line,
                        c,
                        format!("expected ',' or ')', found {other}"),
                    ))
                }
            }
        }
        let mode = self.mode;
        let dag = self.dag.as_mut().expect("expr implies width");
        Self::lift(dag.mac(terms, mode), cur.line, mac_col)
    }
}

/// Parses an expression-language program into a [`Program`].
///
/// # Errors
///
/// Any syntax or semantic problem, located by 1-based line and column.
pub fn parse_program(src: &str) -> Result<Program, ParseError> {
    let mut parser = Parser::new();
    let mut lines = 0;
    for (idx, text) in src.lines().enumerate() {
        lines = idx + 1;
        let toks = lex(lines, text)?;
        if toks.is_empty() {
            continue;
        }
        let mut cur = Cursor {
            toks: &toks,
            pos: 0,
            line: lines,
            end_col: text.chars().count() + 1,
        };
        parser.statement(&mut cur)?;
    }
    let dag = parser
        .dag
        .ok_or_else(|| err(lines.max(1), 1, "empty program: missing 'width' directive"))?;
    if dag.root().is_none() {
        return Err(err(lines.max(1), 1, "program has no 'out' statement"));
    }
    Ok(Program { dag })
}

/// Renders a program in canonical form: `width`, then one `in`/`let`
/// statement per node in id order (with `mode` directives interleaved
/// where the annotation changes), then `out`.
///
/// The canonical form is a parser fixed point: `parse_program` rebuilds
/// the exact node list, so `parse(render(p)).dag == p.dag`.
pub fn render_program(program: &Program) -> String {
    let dag = &program.dag;
    let name = |id: NodeId| -> String {
        match &dag.nodes()[id.0] {
            Node::Input { name } => name.clone(),
            _ => format!("t{}", id.0),
        }
    };
    let mut out = format!("width {}\n", dag.width());
    let mut math_state: Option<(MathMode, Option<u32>)> = None;
    let mut mode = PrecisionMode::Exact;
    let mut set_mode = |out: &mut String, m: PrecisionMode| {
        if m != mode {
            mode = m;
            match m {
                PrecisionMode::Exact => out.push_str("mode exact\n"),
                PrecisionMode::FirstStage { masked_bits } => {
                    out.push_str(&format!("mode mask {masked_bits}\n"));
                }
                PrecisionMode::LastStage { relax_bits } => {
                    out.push_str(&format!("mode relax {relax_bits}\n"));
                }
            }
        }
    };
    for (i, node) in dag.nodes().iter().enumerate() {
        match node {
            Node::Input { name } => out.push_str(&format!("in {name}\n")),
            Node::Const { value } => out.push_str(&format!("let t{i} = {value}\n")),
            Node::Add { a, b } => {
                out.push_str(&format!("let t{i} = {} + {}\n", name(*a), name(*b)));
            }
            Node::Sub { a, b } => {
                out.push_str(&format!("let t{i} = {} - {}\n", name(*a), name(*b)));
            }
            Node::Mul { a, b, mode: m } => {
                set_mode(&mut out, *m);
                out.push_str(&format!("let t{i} = {} * {}\n", name(*a), name(*b)));
            }
            Node::Mac { terms, mode: m } => {
                set_mode(&mut out, *m);
                let body: Vec<String> = terms
                    .iter()
                    .map(|&(a, b)| format!("{}*{}", name(a), name(b)))
                    .collect();
                out.push_str(&format!("let t{i} = mac({})\n", body.join(", ")));
            }
            Node::Shl { x, amount } => {
                out.push_str(&format!("let t{i} = {} << {amount}\n", name(*x)));
            }
            Node::Shr { x, amount } => {
                out.push_str(&format!("let t{i} = {} >> {amount}\n", name(*x)));
            }
            Node::Math { x, spec } => {
                // Re-emit a `math` directive whenever the active state would
                // not resolve to this node's exact spec at reparse time.
                let applied = applied_math_spec(math_state, spec.func, dag.width());
                if applied.as_ref().ok() != Some(spec) {
                    let frac = match spec.func {
                        MathFn::Sqrt => None,
                        MathFn::Sin | MathFn::Cos => Some(spec.frac),
                    };
                    match frac {
                        Some(f) => out.push_str(&format!("math {} frac {f}\n", spec.mode)),
                        None => out.push_str(&format!("math {}\n", spec.mode)),
                    }
                    math_state = Some((spec.mode, frac));
                }
                out.push_str(&format!("let t{i} = {}({})\n", spec.func, name(*x)));
            }
        }
    }
    let root = dag.root().expect("programs always have a root");
    out.push_str(&format!("out {}\n", name(root)));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::evaluate;
    use std::collections::HashMap as Map;

    fn eval(src: &str, bindings: &[(&str, u64)]) -> u64 {
        let program = parse_program(src).unwrap();
        let inputs: Map<String, u64> = bindings.iter().map(|&(k, v)| (k.to_string(), v)).collect();
        evaluate(&program.dag, &inputs).unwrap()
    }

    #[test]
    fn precedence_mul_before_sum_before_shift() {
        // 2 + 3*4 = 14, then << 1 applies to the whole sum.
        assert_eq!(eval("width 16\nout 2 + 3 * 4 << 1", &[]), 28);
        assert_eq!(eval("width 16\nout (2 + 3) * 4", &[]), 20);
    }

    #[test]
    fn literals_and_unary_minus() {
        assert_eq!(eval("width 16\nout 0x10 + 0b101 + 1_000", &[]), 1021);
        assert_eq!(eval("width 16\nout -3 + 3", &[]), 0);
        assert_eq!(eval("width 16\nout -(x) + x", &[("x", 55)]), 0);
    }

    #[test]
    fn mode_directive_annotates_following_products() {
        let p =
            parse_program("width 16\nmode mask 4\nlet m = x * y\nmode exact\nout m * z").unwrap();
        let modes: Vec<PrecisionMode> = p
            .dag
            .nodes()
            .iter()
            .filter_map(|n| match n {
                Node::Mul { mode, .. } => Some(*mode),
                _ => None,
            })
            .collect();
        assert_eq!(
            modes,
            vec![
                PrecisionMode::FirstStage { masked_bits: 4 },
                PrecisionMode::Exact
            ]
        );
    }

    #[test]
    fn mac_special_form() {
        assert_eq!(
            eval("width 16\nout mac(x*3, y*5)", &[("x", 10), ("y", 20)]),
            130
        );
    }

    #[test]
    fn errors_carry_line_and_column() {
        let e = parse_program("width 16\nlet a = x +\nout a").unwrap_err();
        assert_eq!((e.line, e.col), (2, 12));
        let e = parse_program("width 16\nout x $ y").unwrap_err();
        assert_eq!((e.line, e.col), (2, 7));
        assert!(e.msg.contains('$'));
        let e = parse_program("width 16\nlet x = 1\nlet x = 2\nout x").unwrap_err();
        assert_eq!((e.line, e.col), (3, 5));
        let e = parse_program("out x").unwrap_err();
        assert_eq!((e.line, e.col), (1, 1));
        assert!(e.msg.contains("width"));
        let e = parse_program("width 16\nout x << y").unwrap_err();
        assert_eq!((e.line, e.col), (2, 10));
        assert!(e.msg.contains("constant shift distance"));
        let e = parse_program("width 16\nin x").unwrap_err();
        assert!(e.msg.contains("out"));
    }

    #[test]
    fn oversized_numbers_are_errors_not_truncations() {
        // 2^32 + 16 would truncate to a valid width 16, 2^32 + 1 to a
        // one-bit shift, 264 to eight masked bits.
        for (src, what) in [
            ("width 4294967312\nout 1", "word width"),
            ("width 16\nout x << 4294967297", "shift distance"),
            ("width 16\nmode mask 264\nout x * 3", "masked bit count"),
            (
                "width 16\nmath cordic 4294967304\nout sin(x)",
                "iteration count",
            ),
        ] {
            let e = parse_program(src).unwrap_err();
            assert!(
                e.msg.contains(what) && e.msg.contains("out of range"),
                "{src}: {e}"
            );
        }
    }

    #[test]
    fn illegal_lut_fraction_is_an_error() {
        // The LUT segment bound used to compute with the raw `frac`,
        // overflowing its shift before the format was range-checked.
        for frac in [0, 14, 200] {
            let src = format!("width 16\nmath lut 4 frac {frac}\nout sin(x)");
            let e = parse_program(&src).unwrap_err();
            assert!(e.msg.contains("frac"), "{src}: {e}");
        }
    }

    #[test]
    fn render_is_a_parser_fixed_point() {
        let src = "width 16\n\
                   mode relax 4\n\
                   let num = mac(c*5, n*0xFFFF, s*65535)\n\
                   mode exact\n\
                   let scaled = num * 3 - n\n\
                   out scaled >> 2 << 1";
        let p1 = parse_program(src).unwrap();
        let canon = render_program(&p1);
        let p2 = parse_program(&canon).unwrap();
        assert_eq!(
            p1.dag, p2.dag,
            "canonical form must rebuild the DAG exactly"
        );
        assert_eq!(canon, render_program(&p2), "render is idempotent");
    }

    #[test]
    fn math_atoms_take_defaults_without_a_directive() {
        let p = parse_program("width 16\nout sqrt(x)").unwrap();
        let specs: Vec<MathSpec> = p
            .dag
            .nodes()
            .iter()
            .filter_map(|n| match n {
                Node::Math { spec, .. } => Some(*spec),
                _ => None,
            })
            .collect();
        assert_eq!(specs, vec![default_spec(MathFn::Sqrt, 16)]);
        assert_eq!(eval("width 16\nout sqrt(x)", &[("x", 10_000)]), 100);
    }

    #[test]
    fn math_directive_steers_and_clamps_following_calls() {
        let p = parse_program(
            "width 16\nmath cordic 6 frac 10\nlet s = sin(a)\nmath lut 9\nout s + sqrt(b)",
        )
        .unwrap();
        let specs: Vec<MathSpec> = p
            .dag
            .nodes()
            .iter()
            .filter_map(|n| match n {
                Node::Math { spec, .. } => Some(*spec),
                _ => None,
            })
            .collect();
        assert_eq!(
            specs[0],
            MathSpec {
                func: MathFn::Sin,
                mode: MathMode::Cordic { iters: 6 },
                frac: 10,
            }
        );
        // `lut 9` exceeds the width-16 maximum and clamps; sqrt ignores
        // the stale trig frac clause.
        assert_eq!(specs[1].func, MathFn::Sqrt);
        assert_eq!(specs[1].frac, 0);
        assert_eq!(
            specs[1].mode,
            MathMode::Lut {
                log2_segments: max_log2_segments(MathFn::Sqrt, 16, 0),
            }
        );
    }

    #[test]
    fn math_keywords_stay_ordinary_identifiers_without_a_call() {
        // `sin` not followed by '(' is a plain input name.
        assert_eq!(eval("width 16\nout sin + 1", &[("sin", 41)]), 42);
        // Sqrt LUT tables need width ≥ 6 for strictly increasing
        // exact-square breakpoints.
        let e = parse_program("width 4\nmath lut 1\nout sqrt(x)").unwrap_err();
        assert_eq!(e.line, 3);
        assert!(e.msg.contains("unavailable"), "{e}");
    }

    #[test]
    fn math_render_is_a_parser_fixed_point() {
        let src = "width 18\n\
                   math cordic 9 frac 12\n\
                   let s = sin(a)\n\
                   let c = cos(a)\n\
                   math cordic 8\n\
                   let r = sqrt(b)\n\
                   math lut 3 frac 12\n\
                   out s * c + r + sin(a + 1)";
        let p1 = parse_program(src).unwrap();
        let canon = render_program(&p1);
        let p2 = parse_program(&canon).unwrap();
        assert_eq!(p1.dag, p2.dag, "canonical form must rebuild math specs");
        assert_eq!(canon, render_program(&p2), "render is idempotent");
    }

    #[test]
    fn rendered_inputs_preserve_declaration_order() {
        let p = parse_program("width 8\nout b + a + c").unwrap();
        assert_eq!(p.dag.inputs(), vec!["b", "a", "c"]);
        let p2 = parse_program(&render_program(&p)).unwrap();
        assert_eq!(p2.dag.inputs(), vec!["b", "a", "c"]);
    }
}
