//! The batch engine runs csynth and cosim on the module the flow built
//! after a flow-cache miss, and on the parsed text after a hit. This test
//! is the proof that the two are interchangeable, and that the engine is
//! deterministic. For every input it requires that
//!
//! * two cache-less batch runs agree on everything `outcome_to_json`
//!   writes except the report's wall times (`total_us`, `wall_us`);
//! * the flow's module and its re-parse give byte-identical csynth
//!   payloads (`cache::encode_csynth`), and the same interpreter result,
//!   buffers (bit for bit), steps and calls.
//!
//! The flow's module must also pass the LLVM verifier: the interpreter's
//! traps that name a value by its arena id (an undominated use, a phi
//! without an edge, a malformed operand) fire only on modules it rejects,
//! and a built module and its re-parse number their instructions apart.
//!
//! Inputs: the ten suite kernels under the ten directive sets of Figures
//! 1 and 4, through both flows; a raw kernel whose second on-chip buffer
//! binds the II, through both flows; and fuzz seeds 0..48 through both
//! flows at the batch default directives. The `#[ignore]`d test covers
//! seeds 0..5000; run it in release mode:
//! `cargo test --release -p driver --test module_equivalence -- --ignored`.

#[path = "support/figure_sets.rs"]
mod figure_sets;

use driver::batch::{outcome_to_json, run_source, BatchOptions, Source};
use driver::cache::encode_csynth;
use driver::flow::prepare_mlir_text;
use driver::{run_flow, Directives, Flow};
use fuzzing::{GenConfig, TOP_NAME};
use llvm_lite::interp::{Interpreter, RtVal};
use llvm_lite::Module;
use mlir_lite::MType;
use pass_core::Budget;
use vitis_sim::Target;

/// Everything observable about one execution.
#[derive(Debug, PartialEq)]
struct Execution {
    result: Result<String, String>,
    buffers: Vec<Vec<u32>>,
    steps: u64,
    calls: u64,
}

fn execute(module: &Module, inputs: &[Vec<f32>], step_limit: u64) -> Execution {
    let top = module.top_function().expect("a top function").name.clone();
    let mut interp = Interpreter::new(module);
    interp.step_limit = step_limit;
    let ptrs: Vec<u64> = inputs.iter().map(|b| interp.mem.alloc_f32(b)).collect();
    let args: Vec<RtVal> = ptrs.iter().map(|&p| RtVal::P(p)).collect();
    let result = interp
        .call(&top, &args)
        .map(|v| format!("{v:?}"))
        .map_err(|e| e.to_string());
    let buffers = ptrs
        .iter()
        .zip(inputs)
        .map(|(&p, b)| {
            let data = interp.mem.read_f32(p, b.len()).unwrap();
            data.into_iter().map(f32::to_bits).collect()
        })
        .collect();
    Execution {
        result,
        buffers,
        steps: interp.stats.steps,
        calls: interp.stats.calls,
    }
}

/// `json` with the digits of every `"total_us"` and `"wall_us"` field
/// replaced by `0`. Module text is escaped inside the JSON, so its quotes
/// never match.
fn without_wall_times(json: &str) -> String {
    let mut out = String::with_capacity(json.len());
    let mut rest = json;
    while let Some(at) = ["\"total_us\":", "\"wall_us\":"]
        .iter()
        .filter_map(|key| rest.find(key).map(|i| i + key.len()))
        .min()
    {
        out.push_str(&rest[..at]);
        out.push('0');
        rest = rest[at..].trim_start_matches(|c: char| c.is_ascii_digit());
    }
    out.push_str(rest);
    out
}

/// Two cache-less batch runs of `src` give the same outcome.
fn assert_batch_deterministic(label: &str, src: Source<'_>, directives: &Directives, flow: Flow) {
    let opts = BatchOptions {
        jobs: 1,
        directives: *directives,
        flow,
        cache_dir: None,
        ..BatchOptions::default()
    };
    let once = || {
        let (outcome, _) = run_source(src, &opts, &mut |_| {}).expect("no cache to open");
        without_wall_times(&outcome_to_json(&outcome))
    };
    let (first, second) = (once(), once());
    if first != second {
        let at = first
            .bytes()
            .zip(second.bytes())
            .position(|(a, b)| a != b)
            .unwrap_or(first.len().min(second.len()));
        let from = at.saturating_sub(80);
        panic!(
            "{label}: two cache-less batch runs differ at byte {at}:\n  {}\n  {}",
            &first[from..(at + 80).min(first.len())],
            &second[from..(at + 80).min(second.len())]
        );
    }
}

/// The flow's module and its re-parse synthesize and execute alike.
fn assert_reparse_equivalent(
    label: &str,
    name: &str,
    module: &Module,
    inputs: &[Vec<f32>],
    step_limit: u64,
) {
    llvm_lite::verifier::verify_module(module)
        .unwrap_or_else(|e| panic!("{label}: the flow's module does not verify: {e}"));
    let text = llvm_lite::printer::print_module(module);
    let again = llvm_lite::parser::parse_module(name, &text)
        .unwrap_or_else(|e| panic!("{label}: printed module does not re-parse: {e}"));
    let payload = |m: &Module| {
        vitis_sim::csynth(m, &Target::default())
            .map(|r| encode_csynth(&r))
            .map_err(|e| e.to_string())
    };
    assert_eq!(payload(module), payload(&again), "{label}: csynth payload");
    assert_eq!(
        execute(module, inputs, step_limit),
        execute(&again, inputs, step_limit),
        "{label}: execution"
    );
}

fn suite(flow: Flow) {
    let sets = figure_sets::figure_directive_sets();
    assert_eq!(sets.len(), 10);
    let seed = BatchOptions::default().seed;
    for k in kernels::all_kernels() {
        let inputs = kernels::gen_inputs(k, seed);
        for d in &sets {
            let label = format!("{} via {flow:?} at {d:?}", k.name);
            assert_batch_deterministic(&label, Source::Suite(k), d, flow);
            let art = run_flow(k, d, flow).unwrap();
            assert_reparse_equivalent(&label, k.name, &art.module, &inputs, 500_000_000);
        }
    }
}

/// Two on-chip buffers; three loads a cycle from the second, `%b`, bind
/// the second loop's II. Lowering calls both allocas `buf`, which the
/// printer spells `%buf` and `%buf1`.
const SECOND_BUFFER_BOUND: &str = r#"
func.func @two_buffers(%x: memref<18xf32>, %y: memref<16xf32>) attributes {hls.top} {
  %a = memref.alloca() : memref<18xf32>
  %b = memref.alloca() : memref<18xf32>
  affine.for %i = 0 to 18 {
    %v = affine.load %x[%i] : memref<18xf32>
    affine.store %v, %a[%i] : memref<18xf32>
    affine.store %v, %b[%i] : memref<18xf32>
  }
  affine.for %i = 0 to 16 {
    %p = affine.load %a[%i] : memref<18xf32>
    %q0 = affine.load %b[%i] : memref<18xf32>
    %q1 = affine.load %b[%i + 1] : memref<18xf32>
    %q2 = affine.load %b[%i + 2] : memref<18xf32>
    %s0 = arith.addf %p, %q0 : f32
    %s1 = arith.addf %s0, %q1 : f32
    %s2 = arith.addf %s1, %q2 : f32
    affine.store %s2, %y[%i] : memref<16xf32>
  }
  func.return
}
"#;

/// The oracle's inputs for a generated kernel: one buffer per memref
/// parameter. `None` when the text does not parse or a shape is dynamic.
fn fuzz_inputs(seed: u64, text: &str) -> Option<Vec<Vec<f32>>> {
    let m = mlir_lite::parser::parse_module(TOP_NAME, text).ok()?;
    let f = m.func(TOP_NAME)?;
    f.regions[0]
        .entry()
        .arg_types
        .iter()
        .enumerate()
        .map(|(b, ty)| match ty {
            MType::MemRef { shape, .. } if shape.iter().all(|&d| d >= 0) => {
                let n = shape.iter().product::<i64>().max(1) as usize;
                Some(
                    (0..n)
                        .map(|e| fuzzing::oracle::input_value(seed, b, e))
                        .collect(),
                )
            }
            _ => None,
        })
        .collect()
}

fn fuzz(seeds: std::ops::Range<u64>) {
    let directives = BatchOptions::default().directives;
    let step_limit = fuzzing::OracleOpts::default().step_limit;
    let mut compared = 0;
    for seed in seeds.clone() {
        let text = fuzzing::generate(seed, &GenConfig::default()).text;
        let src = Source::Raw {
            name: TOP_NAME,
            mlir: &text,
        };
        let inputs = fuzz_inputs(seed, &text);
        for flow in [Flow::Adaptor, Flow::Cpp] {
            let label = format!("seed {seed} via {flow:?}");
            assert_batch_deterministic(&label, src, &directives, flow);
            let Some(inputs) = &inputs else { continue };
            let built = prepare_mlir_text(TOP_NAME, &text, &directives)
                .ok()
                .and_then(|m| fuzzing::flow::run(m, flow, &Budget::unlimited(), &mut |_| {}).ok());
            if let Some(art) = built {
                assert_reparse_equivalent(&label, TOP_NAME, &art.module, inputs, step_limit);
                compared += 1;
            }
        }
    }
    let want = 2 * (seeds.end - seeds.start);
    assert!(
        compared * 10 >= want * 9,
        "only {compared} of {want} fuzz modules were built"
    );
}

#[test]
fn wall_times_are_the_only_fields_blanked() {
    assert_eq!(
        without_wall_times(r#"{"a":1,"total_us":12,"passes":[{"wall_us":345,"b":6}]}"#),
        r#"{"a":1,"total_us":0,"passes":[{"wall_us":0,"b":6}]}"#
    );
}

#[test]
fn suite_via_the_adaptor_flow_is_deterministic_and_reparse_equivalent() {
    suite(Flow::Adaptor);
}

#[test]
fn suite_via_the_cpp_flow_is_deterministic_and_reparse_equivalent() {
    suite(Flow::Cpp);
}

#[test]
fn a_bound_on_the_second_alloca_is_named_as_printed() {
    let name = "two_buffers";
    let directives = BatchOptions::default().directives;
    let inputs: Vec<Vec<f32>> = [18, 16]
        .iter()
        .enumerate()
        .map(|(b, &n)| (0..n).map(|e| (b * 100 + e) as f32 * 0.25).collect())
        .collect();
    for flow in [Flow::Adaptor, Flow::Cpp] {
        let label = format!("{name} via {flow:?}");
        let src = Source::Raw {
            name,
            mlir: SECOND_BUFFER_BOUND,
        };
        assert_batch_deterministic(&label, src, &directives, flow);
        let m = prepare_mlir_text(name, SECOND_BUFFER_BOUND, &directives).unwrap();
        let art = fuzzing::flow::run(m, flow, &Budget::unlimited(), &mut |_| {}).unwrap();
        assert_reparse_equivalent(&label, name, &art.module, &inputs, 1_000_000);
        if flow == Flow::Adaptor {
            let payload =
                encode_csynth(&vitis_sim::csynth(&art.module, &Target::default()).unwrap());
            assert!(payload.contains("%buf1"), "{label}: {payload}");
        }
    }
}

#[test]
fn fuzz_seed_prefix_is_deterministic_and_reparse_equivalent() {
    fuzz(0..48);
}

#[test]
#[ignore = "5000 seeds; run in release mode"]
fn fuzz_5000_seeds_are_deterministic_and_reparse_equivalent() {
    fuzz(0..5000);
}
