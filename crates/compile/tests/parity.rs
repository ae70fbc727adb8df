//! Bit-exact parity pins for the gate-level machine.
//!
//! Every row below was recorded from the compiler and must never drift: a
//! refactor of the execution core that changes a value, a charged cycle,
//! the closed-form cycle prediction, a single bit of the charged energy or
//! the length of the recorded microprogram shows up here as a mismatch.
//! `trace_len` is served to clients as the compile job's micro-op count,
//! so it is pinned as tightly as the modelled cost.
//!
//! Coverage: the Sharpen and Sobel workload DAGs, the sin/cos/sqrt
//! expansions at width 12, and a seeded corpus of random programs with
//! data-steered multipliers, all three §3.4 precision modes, shifts and
//! MACs at widths 8/16/32 — each through [`compile`]; plus Sharpen and
//! Sobel through [`compile_batched`] at 1, 2, 8 and 64 lanes.
//!
//! On a mismatch the test prints the full table it measured, in source
//! form, next to the first differing row.

use std::collections::HashMap;
use std::fmt::Write as _;

use apim_compile::{compile, compile_batched, CompileOptions, Dag, NodeId};
use apim_logic::PrecisionMode;
use apim_math::{default_spec, to_pattern, MathFn};
use apim_workloads::dags::{sharpen_dag, sobel_gradient_dag};

/// `(label, value, cycles, expected_cycles, energy bits, trace_len)` of
/// one [`compile`] run.
type SerialRow = (String, u64, u64, u64, u64, usize);

/// `(label, lanes, FNV-1a digest of the lane values, cycles, energy bits,
/// trace_len)` of one [`compile_batched`] run.
type BatchRow = (String, usize, u64, u64, u64, usize);

const SERIAL: &[(&str, u64, u64, u64, u64, usize)] = &[
    ("sharpen", 0x5, 3882, 3882, 0x3de2f4f184d88f3a, 8095),
    (
        "sobel",
        0xfffffffffffe3872,
        8744,
        8744,
        0x3e00a289b864d47e,
        18069,
    ),
    ("sin12", 0x101, 10239, 10239, 0x3df81ec5a94f5672, 20969),
    ("cos12", 0x1f5, 10231, 10231, 0x3df808ec469f1955, 20953),
    ("sqrt12", 0x27, 4331, 4331, 0x3de253a4165121f6, 8734),
    ("corpus0", 0x96, 683, 683, 0x3dc0f5c3373f33bd, 1500),
    ("corpus1", 0x6e10, 1034, 1034, 0x3dcb0c2294af5049, 2206),
    ("corpus2", 0xaf659000, 2894, 2894, 0x3ded837b9eb7d9e4, 6346),
    ("corpus3", 0x0, 792, 792, 0x3dc253e4b5e66185, 1707),
    ("corpus4", 0x6939, 1548, 1548, 0x3dd7d5fa602d617c, 3364),
    ("corpus5", 0xffffffff, 1659, 1659, 0x3dd59cd05f5246b2, 3384),
    ("corpus6", 0x9f, 589, 589, 0x3dc7dc6b377b9057, 1462),
    ("corpus7", 0x2c8, 1418, 1418, 0x3de2b75b1d9bdc5f, 3566),
    ("corpus8", 0x59b4e0f1, 783, 783, 0x3dbb90840d555a9f, 1569),
    ("corpus9", 0x80, 376, 376, 0x3db50e6f6b063aff, 841),
    ("corpus10", 0x16b0, 919, 919, 0x3dd2449f2d738a08, 2129),
    ("corpus11", 0xea65655f, 1273, 1273, 0x3dde45fc0092e571, 2857),
    ("corpus12", 0x58, 495, 495, 0x3db0bb5bda846f41, 1002),
    ("corpus13", 0xb631, 628, 628, 0x3dbe7cf65b79d107, 1309),
    ("corpus14", 0xff998800, 1663, 1663, 0x3ddbdc04ecb84a69, 3512),
    ("corpus15", 0x8f, 279, 279, 0x3dc1742fa02fbb4c, 867),
    ("corpus16", 0x3268, 590, 590, 0x3db39414308e92ab, 1181),
    ("corpus17", 0x9a08, 1501, 1501, 0x3ddf013530709ddf, 3242),
    ("corpus18", 0x2f, 298, 298, 0x3da54372a6d45fe7, 615),
    ("corpus19", 0x7876, 688, 688, 0x3dc8445582d84269, 1533),
    ("corpus20", 0x1, 547, 547, 0x3dcd02a31edfb221, 1191),
    ("corpus21", 0x0, 519, 519, 0x3db32220efc89552, 1067),
    ("corpus22", 0x3300, 486, 486, 0x3dc16b7eaf134977, 1088),
    ("corpus23", 0xd845c800, 1252, 1252, 0x3ddbacf0ae549526, 2780),
    ("corpus24", 0x6d, 338, 338, 0x3dae5c10e10fa179, 704),
    ("corpus25", 0x7fff, 436, 436, 0x3dd92c8b0d6339c5, 1400),
    ("corpus26", 0x4af, 2445, 2445, 0x3de6aa7510c11213, 5168),
    ("corpus27", 0xad, 752, 752, 0x3dc5cc056e72ea76, 1694),
    ("corpus28", 0x0, 1026, 1026, 0x3dc71af2171778db, 2123),
    ("corpus29", 0xc15e7cdc, 1307, 1307, 0x3ddca3cac1a8195f, 2846),
    ("corpus30", 0x0, 334, 334, 0x3dad45dc09892277, 725),
    ("corpus31", 0x0, 620, 620, 0x3dbc3f6ba625cc27, 1330),
    ("corpus32", 0xffffffd5, 1215, 1215, 0x3dc47687df247b80, 2392),
    ("corpus33", 0xd, 465, 465, 0x3dbdc310dffe90a7, 1117),
    ("corpus34", 0x5395, 1319, 1319, 0x3de7b819798bb696, 3662),
    ("corpus35", 0xff3567d5, 953, 953, 0x3deb8a75325acfe2, 2635),
    ("corpus36", 0x98, 358, 358, 0x3db65714f3bd26db, 852),
    ("corpus37", 0x31de, 1600, 1600, 0x3dcf87b83e6ce150, 3259),
    ("corpus38", 0x4ea6cc66, 1198, 1198, 0x3dc489de646116db, 2374),
    ("corpus39", 0x0, 302, 302, 0x3da688bb1ab26364, 640),
    ("corpus40", 0x5000, 813, 813, 0x3dbec0a3571403f7, 1649),
    ("corpus41", 0x34000000, 1609, 1609, 0x3dd197a3acf19e0d, 3321),
    ("corpus42", 0xdd, 334, 334, 0x3db35e2a472e9edd, 756),
    ("corpus43", 0xb3ff, 795, 795, 0x3dde3b48f82140fc, 2213),
    ("corpus44", 0x6f93eae1, 1440, 1440, 0x3def978ac77b46c4, 3656),
    ("corpus45", 0x0, 114, 114, 0x3d938dce3dab9708, 237),
    ("corpus46", 0x3e8e, 650, 650, 0x3dc0e553e7d18c36, 1359),
    ("corpus47", 0x0, 1644, 1644, 0x3de284c107ca9de7, 3722),
];

const BATCHED: &[(&str, usize, u64, u64, u64, usize)] = &[
    (
        "sharpen",
        1,
        0xe25271d43dc882c3,
        3883,
        0x3de34b8790ab47f8,
        8418,
    ),
    (
        "sobel",
        1,
        0x22a546eb695098c8,
        8744,
        0x3e00ba395de85d06,
        18441,
    ),
    (
        "sharpen",
        2,
        0xe13d5cec2ccb87cc,
        3883,
        0x3deb053d18d29769,
        8418,
    ),
    (
        "sobel",
        2,
        0xaac114d0a1bb1a13,
        8744,
        0x3e0b1ff1a76b09e6,
        18441,
    ),
    (
        "sharpen",
        8,
        0x1ce9ba47adeaafa8,
        3883,
        0x3e0257df926f99b9,
        8418,
    ),
    (
        "sobel",
        8,
        0x1b9be8c97b9a5b8d,
        8744,
        0x3e266090d81ee301,
        18441,
    ),
    (
        "sharpen",
        64,
        0x55fa4d2251f98973,
        3883,
        0x3e2f9ff341256e3c,
        8418,
    ),
    (
        "sobel",
        64,
        0xee0d82745ab16d61,
        8744,
        0x3e54fe149ba8a35d,
        18441,
    ),
];

/// SplitMix64: one seed → a reproducible stream of choices.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound
    }
}

fn bind(pairs: &[(&str, u64)]) -> HashMap<String, u64> {
    pairs.iter().map(|&(k, v)| (k.to_string(), v)).collect()
}

/// A random program whose multipliers are other DAG values (so the
/// sense amps steer partial-product placement), with shifts, MACs and
/// one precision mode throughout.
fn random_dag(seed: u64, width: u32, mode: PrecisionMode) -> (Dag, HashMap<String, u64>) {
    let mut rng = Rng(seed);
    let mut dag = Dag::new(width).unwrap();
    let mut bindings = HashMap::new();
    let n_inputs = 2 + rng.below(3) as usize;
    for i in 0..n_inputs {
        let name = format!("x{i}");
        dag.input(&name).unwrap();
        bindings.insert(name, rng.next() & dag.mask());
    }
    dag.constant(rng.next());
    dag.constant(rng.below(1 << (width / 2)));
    let pick = |dag: &Dag, rng: &mut Rng| -> NodeId {
        for _ in 0..16 {
            let id = NodeId(rng.below(dag.len() as u64) as usize);
            if dag.depth(id) < 6 {
                return id;
            }
        }
        NodeId(rng.below(n_inputs as u64) as usize)
    };
    for _ in 0..4 + rng.below(6) {
        let a = pick(&dag, &mut rng);
        match rng.below(6) {
            0 => {
                let b = pick(&dag, &mut rng);
                dag.add(a, b).unwrap();
            }
            1 => {
                let b = pick(&dag, &mut rng);
                dag.sub(a, b).unwrap();
            }
            2 => {
                let b = pick(&dag, &mut rng);
                dag.mul(a, b, mode).unwrap();
            }
            3 if width <= 16 => {
                let b = pick(&dag, &mut rng);
                let c = pick(&dag, &mut rng);
                let d = pick(&dag, &mut rng);
                dag.mac(vec![(a, b), (c, d)], mode).unwrap();
            }
            4 => {
                dag.shl(a, 1 + rng.below(u64::from(width) - 1) as u32)
                    .unwrap();
            }
            _ => {
                dag.shr(a, 1 + rng.below(u64::from(width) - 1) as u32)
                    .unwrap();
            }
        }
    }
    dag.set_root(NodeId(dag.len() - 1)).unwrap();
    (dag, bindings)
}

fn mode_for(width: u32, sel: u64, bits: u64) -> PrecisionMode {
    match sel {
        0 => PrecisionMode::Exact,
        1 => PrecisionMode::FirstStage {
            masked_bits: (1 + bits % u64::from(width - 1)) as u8,
        },
        _ => PrecisionMode::LastStage {
            relax_bits: (1 + bits % u64::from(width)) as u8,
        },
    }
}

fn sharpen_bindings(j: u64) -> HashMap<String, u64> {
    bind(&[
        ("c", (j * 37 + 11) % 256),
        ("n", (j * 53 + 200) % 256),
        ("s", (j * 71 + 5) % 256),
        ("w", (j * 19 + 128) % 256),
        ("e", (j * 97 + 64) % 256),
    ])
}

fn sobel_bindings(j: u64) -> HashMap<String, u64> {
    bind(&[
        ("l0", (j * 29 + 3) % 256),
        ("r0", (j * 61 + 250) % 256),
        ("l1", (j * 13 + 90) % 256),
        ("r1", (j * 83 + 17) % 256),
        ("l2", (j * 41 + 160) % 256),
        ("r2", (j * 7 + 222) % 256),
    ])
}

fn serial_row(label: String, dag: &Dag, inputs: &HashMap<String, u64>) -> SerialRow {
    let program = compile(dag, &CompileOptions::default()).unwrap();
    let report = program.run(inputs).unwrap();
    assert_eq!(report.value, report.reference, "{label}");
    (
        label,
        report.value,
        report.cycles,
        report.expected_cycles,
        report.energy.as_joules().to_bits(),
        report.trace_len,
    )
}

fn batch_row(
    label: &str,
    dag: &Dag,
    lanes: usize,
    bindings: fn(u64) -> HashMap<String, u64>,
) -> BatchRow {
    let program = compile_batched(dag, &CompileOptions::default(), lanes).unwrap();
    let inputs: Vec<HashMap<String, u64>> = (0..lanes as u64).map(bindings).collect();
    let report = program.run(&inputs).unwrap();
    assert_eq!(report.values, report.references, "{label} x{lanes}");
    // FNV-1a over the lane values, lane order.
    let digest = report
        .values
        .iter()
        .flat_map(|v| v.to_le_bytes())
        .fold(0xCBF2_9CE4_8422_2325u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3)
        });
    (
        label.to_string(),
        lanes,
        digest,
        report.cycles,
        report.energy.as_joules().to_bits(),
        report.trace_len,
    )
}

fn serial_rows() -> Vec<SerialRow> {
    let mut rows = vec![
        serial_row("sharpen".into(), &sharpen_dag(), &sharpen_bindings(3)),
        serial_row("sobel".into(), &sobel_gradient_dag(), &sobel_bindings(5)),
    ];
    let half_pi = apim_math::consts::half_pi_q(9);
    for (func, input) in [
        (MathFn::Sin, to_pattern(half_pi / 3, 12)),
        (MathFn::Cos, to_pattern(-half_pi / 7, 12)),
        (MathFn::Sqrt, 1521),
    ] {
        let mut dag = Dag::new(12).unwrap();
        let x = dag.input("x").unwrap();
        let m = dag.math(x, default_spec(func, 12)).unwrap();
        dag.set_root(m).unwrap();
        rows.push(serial_row(
            format!("{func}12"),
            &dag,
            &bind(&[("x", input)]),
        ));
    }
    for i in 0..48u64 {
        let width = [8u32, 16, 32][(i % 3) as usize];
        let seed = 0x5EED_0000 + i;
        let mode = mode_for(width, (i / 3) % 3, Rng(seed).next());
        let (dag, bindings) = random_dag(seed, width, mode);
        rows.push(serial_row(format!("corpus{i}"), &dag, &bindings));
    }
    rows
}

fn batch_rows() -> Vec<BatchRow> {
    let mut rows = Vec::new();
    for lanes in [1, 2, 8, 64] {
        rows.push(batch_row(
            "sharpen",
            &sharpen_dag(),
            lanes,
            sharpen_bindings,
        ));
        rows.push(batch_row(
            "sobel",
            &sobel_gradient_dag(),
            lanes,
            sobel_bindings,
        ));
    }
    rows
}

fn render_serial(rows: &[SerialRow]) -> String {
    let mut out = String::from("const SERIAL: &[(&str, u64, u64, u64, u64, usize)] = &[\n");
    for (label, value, cycles, expected, energy, len) in rows {
        writeln!(
            out,
            "    (\"{label}\", {value:#x}, {cycles}, {expected}, {energy:#x}, {len}),"
        )
        .unwrap();
    }
    out.push_str("];\n");
    out
}

fn render_batched(rows: &[BatchRow]) -> String {
    let mut out = String::from("const BATCHED: &[(&str, usize, u64, u64, u64, usize)] = &[\n");
    for (label, lanes, digest, cycles, energy, len) in rows {
        writeln!(
            out,
            "    (\"{label}\", {lanes}, {digest:#x}, {cycles}, {energy:#x}, {len}),"
        )
        .unwrap();
    }
    out.push_str("];\n");
    out
}

#[test]
fn serial_compile_outputs_are_pinned() {
    let rows = serial_rows();
    let pinned: Vec<SerialRow> = SERIAL
        .iter()
        .map(|&(l, v, c, e, en, t)| (l.to_string(), v, c, e, en, t))
        .collect();
    if rows != pinned {
        let first = rows
            .iter()
            .zip(&pinned)
            .find(|(a, b)| a != b)
            .map(|(a, b)| format!("measured {a:?}\npinned   {b:?}"));
        panic!(
            "serial parity drifted ({} measured rows, {} pinned)\n{}\n\n{}",
            rows.len(),
            pinned.len(),
            first.unwrap_or_default(),
            render_serial(&rows)
        );
    }
}

#[test]
fn batched_compile_outputs_are_pinned() {
    let rows = batch_rows();
    let pinned: Vec<BatchRow> = BATCHED
        .iter()
        .map(|&(l, n, d, c, en, t)| (l.to_string(), n, d, c, en, t))
        .collect();
    if rows != pinned {
        let first = rows
            .iter()
            .zip(&pinned)
            .find(|(a, b)| a != b)
            .map(|(a, b)| format!("measured {a:?}\npinned   {b:?}"));
        panic!(
            "batched parity drifted ({} measured rows, {} pinned)\n{}\n\n{}",
            rows.len(),
            pinned.len(),
            first.unwrap_or_default(),
            render_batched(&rows)
        );
    }
}
