//! The generators only produce requests the system can serve, and the
//! oracles agree with the system on them.

use apim_perfbench::gen::ExprGen;
use apim_perfbench::oracle;

#[test]
fn generated_programs_compile_run_and_match_their_oracle() {
    for seed in [1, 2, 3] {
        let mut gen = ExprGen::new(seed, 2);
        for _ in 0..150 {
            let program = gen.next_program();
            let parsed = apim_compile::parse_program(&program.source)
                .unwrap_or_else(|e| panic!("{e}\n{}", program.source));
            let compiled = apim_compile::compile(&parsed.dag, &Default::default())
                .unwrap_or_else(|e| panic!("{e}\n{}", program.source));
            let values: Vec<u64> = (1..=parsed.dag.inputs().len() as u64).collect();
            let report = compiled
                .run(&oracle::bind(compiled.dag(), &values))
                .unwrap_or_else(|e| panic!("{e}\n{}", program.source));
            assert_eq!(
                report.value,
                oracle::program_value(&program.dag).expect("reference evaluates"),
                "{}",
                program.source
            );
        }
    }
}
