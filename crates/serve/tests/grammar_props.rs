//! Robustness of the two grammars that reach the server from outside: a
//! serve request line ([`Request::parse_line`]) and an expression program
//! ([`apim_compile::parse_program`]). Whatever text arrives — arbitrary
//! bytes, or a valid input with a token dropped, duplicated, swapped or a
//! number replaced by a huge or negative one — each parser returns `Ok`
//! or a structured error and never panics. A mutated program that parses
//! also renders to a parser fixed point: `parse(render(p)).dag == p.dag`.

use apim_serve::Request;
use proptest::prelude::*;

/// Valid request lines covering every request kind and flag.
const LINES: [&str; 10] = [
    "@1 run fft 64 --relax 8",
    "run sobel 16 --mask 4",
    "@3 multiply 1000003 2000029",
    "mac 3 4 5 6",
    "echo 42",
    "@2 pixel sharpen 100 3 5 7 11",
    "pixel sobel 1 40 2 50 3 60",
    "compile width 8; in a; out a + 1",
    "@4 compile width 16 ; mode relax 4 ; let acc = mac ( c * 5 , n * 3 ) ; out acc >> 2",
    "compile width 16 ; math cordic 12 frac 8 ; out sin ( x ) + sqrt ( y * 0x10 )",
];

/// Valid programs covering every statement and expression form. Newlines
/// are their own tokens, so mutations can also merge or split statements.
const PROGRAMS: [&str; 4] = [
    "width 16 \n mode relax 4 \n let acc = mac ( c * 5 , n * 65535 , s * 65535 ) \n out acc >> 2",
    "# comment \n width 8 \n in a \n in b \n let d = ( a - b ) << 1 \n out - d + 0b1010",
    "width 32 \n math lut 6 frac 12 \n let s = sin ( x ) \n out s * cos ( x ) - 1_000",
    "width 24 \n mode mask 3 \n math cordic 16 \n out sqrt ( a * b ) + 0xff",
];

/// Numbers that overflow, or sit at the edge of, every integer type the
/// grammars parse into.
const HUGE: [&str; 6] = [
    "18446744073709551615",
    "18446744073709551616",
    "4294967296",
    "340282366920938463463374607431768211457",
    "0xffffffffffffffffffff",
    "0b11111111111111111111111111111111111111111111111111111111111111111",
];

fn is_number(token: &str) -> bool {
    token.starts_with(|c: char| c.is_ascii_digit())
}

/// Applies one token-level mutation to `text`: `op` 0 drops token `i`,
/// 1 duplicates it at `j`, 2 swaps `i` and `j`, 3 replaces the `i`-th
/// number with a huge one and 4 with a negative one. Indices wrap.
fn mutate(text: &str, op: u8, i: usize, j: usize, big: u64) -> String {
    let mut tokens: Vec<String> = text.split(' ').map(str::to_string).collect();
    let n = tokens.len();
    let numbers: Vec<usize> = (0..n).filter(|&k| is_number(&tokens[k])).collect();
    match op {
        0 => {
            tokens.remove(i % n);
        }
        1 => {
            let copy = tokens[i % n].clone();
            tokens.insert(j % (n + 1), copy);
        }
        2 => tokens.swap(i % n, j % n),
        3 if !numbers.is_empty() => {
            tokens[numbers[i % numbers.len()]] = HUGE[j % HUGE.len()].to_string();
        }
        4 if !numbers.is_empty() => {
            tokens[numbers[i % numbers.len()]] = format!("-{big}");
        }
        _ => {}
    }
    tokens.join(" ")
}

#[test]
fn seed_inputs_are_valid() {
    for line in LINES {
        assert!(Request::parse_line(line).is_ok(), "{line}");
    }
    for program in PROGRAMS {
        assert!(apim_compile::parse_program(program).is_ok(), "{program}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn arbitrary_bytes_never_panic_the_request_parser(bytes in proptest::collection::vec(any::<u8>(), 0..128)) {
        // Any outcome is fine; returning at all is the property.
        let _ = Request::parse_line(&String::from_utf8_lossy(&bytes));
    }

    #[test]
    fn arbitrary_bytes_never_panic_the_program_parser(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = apim_compile::parse_program(&String::from_utf8_lossy(&bytes));
    }

    #[test]
    fn mutated_request_lines_parse_or_error(sel in 0usize..LINES.len(), op in 0u8..5, i in 0usize..64, j in 0usize..64, big: u64) {
        let _ = Request::parse_line(&mutate(LINES[sel], op, i, j, big));
    }

    #[test]
    fn mutated_programs_parse_or_error(sel in 0usize..PROGRAMS.len(), op in 0u8..5, i in 0usize..64, j in 0usize..64, big: u64) {
        // Every mutant that parses renders to a parser fixed point.
        if let Ok(program) = apim_compile::parse_program(&mutate(PROGRAMS[sel], op, i, j, big)) {
            let text = apim_compile::render_program(&program);
            let reparsed = apim_compile::parse_program(&text);
            prop_assert!(reparsed.is_ok(), "rendered form does not parse: {reparsed:?}\n{text}");
            prop_assert_eq!(reparsed.unwrap().dag, program.dag, "render ∘ parse moved the DAG:\n{}", text);
        }
    }

    #[test]
    fn doubly_mutated_inputs_parse_or_error(sel in 0usize..LINES.len(), ops in (0u8..5, 0u8..5), i in 0usize..64, j in 0usize..64, big: u64) {
        let line = mutate(&mutate(LINES[sel], ops.0, i, j, big), ops.1, j, i, big);
        let _ = Request::parse_line(&line);
        let program = PROGRAMS[sel % PROGRAMS.len()];
        let program = mutate(&mutate(program, ops.0, i, j, big), ops.1, j, i, big);
        let _ = apim_compile::parse_program(&program);
    }
}
