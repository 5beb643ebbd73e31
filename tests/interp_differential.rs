//! Old-vs-new differential for `llvm_lite::interp`.
//!
//! The decoded, slot-indexed interpreter replaced a tree-walker, which
//! survives in `support/tree_walker.rs` as this test's oracle. Both run
//! the same modules on the same inputs: the ten suite kernels through
//! both flows, and generated kernels through both flows. For every input
//! the two must agree on
//!
//! * the contents of every buffer, bit for bit (also after a trap);
//! * `InterpStats { steps, calls }`;
//! * the result, or the rendered error;
//!
//! and again on reruns with `step_limit` set below the step count of the
//! full run, so the step-limit trap fires at the same step in both.
//!
//! Tier-1 covers a pinned prefix of fuzz seeds. The `#[ignore]`d test
//! covers seeds 0..5000 plus the suite; run it in release mode:
//! `cargo test --release -p driver --test interp_differential -- --ignored`.

#[allow(dead_code)]
#[path = "support/tree_walker.rs"]
mod tree_walker;

use driver::{run_flow, Directives, Flow};
use fuzzing::{GenConfig, TOP_NAME};
use llvm_lite::interp::{Interpreter, RtVal};
use llvm_lite::Module;
use mlir_lite::MType;
use pass_core::Budget;

/// Everything observable about one execution.
struct Outcome {
    result: Result<String, String>,
    buffers: Vec<Vec<u32>>,
    steps: u64,
    calls: u64,
}

fn bits(v: Vec<f32>) -> Vec<u32> {
    v.into_iter().map(f32::to_bits).collect()
}

fn run_new(module: &Module, top: &str, inputs: &[Vec<f32>], limit: Option<u64>) -> Outcome {
    let mut interp = Interpreter::new(module);
    if let Some(l) = limit {
        interp.step_limit = l;
    }
    let ptrs: Vec<u64> = inputs.iter().map(|b| interp.mem.alloc_f32(b)).collect();
    let args: Vec<RtVal> = ptrs.iter().map(|&p| RtVal::P(p)).collect();
    let result = interp
        .call(top, &args)
        .map(|v| format!("{v:?}"))
        .map_err(|e| e.to_string());
    let buffers = ptrs
        .iter()
        .zip(inputs)
        .map(|(&p, b)| bits(interp.mem.read_f32(p, b.len()).unwrap()))
        .collect();
    Outcome {
        result,
        buffers,
        steps: interp.stats.steps,
        calls: interp.stats.calls,
    }
}

fn run_old(module: &Module, top: &str, inputs: &[Vec<f32>], limit: Option<u64>) -> Outcome {
    let mut interp = tree_walker::Interpreter::new(module);
    if let Some(l) = limit {
        interp.step_limit = l;
    }
    let ptrs: Vec<u64> = inputs.iter().map(|b| interp.mem.alloc_f32(b)).collect();
    let args: Vec<tree_walker::RtVal> = ptrs.iter().map(|&p| tree_walker::RtVal::P(p)).collect();
    let result = interp
        .call(top, &args)
        .map(|v| format!("{v:?}"))
        .map_err(|e| e.to_string());
    let buffers = ptrs
        .iter()
        .zip(inputs)
        .map(|(&p, b)| bits(interp.mem.read_f32(p, b.len()).unwrap()))
        .collect();
    Outcome {
        result,
        buffers,
        steps: interp.stats.steps,
        calls: interp.stats.calls,
    }
}

/// Fail with the first difference between two outcomes.
fn assert_same(label: &str, new: &Outcome, old: &Outcome) {
    assert_eq!(new.result, old.result, "{label}: result");
    assert_eq!(
        (new.steps, new.calls),
        (old.steps, old.calls),
        "{label}: (steps, calls)"
    );
    for (b, (n, o)) in new.buffers.iter().zip(&old.buffers).enumerate() {
        if let Some(e) = (0..n.len()).find(|&e| n[e] != o[e]) {
            panic!(
                "{label}: buffer {b} element {e}: {:#x} vs {:#x}",
                n[e], o[e]
            );
        }
    }
}

/// Compare both interpreters on one module and input set, at the default
/// step limit and at limits cutting the run short. Returns the step count.
fn check(label: &str, module: &Module, inputs: &[Vec<f32>], limit: u64) -> u64 {
    let top = module
        .top_function()
        .unwrap_or_else(|| panic!("{label}: no top function"))
        .name
        .clone();
    let full = run_new(module, &top, inputs, Some(limit));
    assert_same(
        &format!("{label}: full run"),
        &full,
        &run_old(module, &top, inputs, Some(limit)),
    );
    let n = full.steps;
    for cut in [0, 1, n / 3, n / 2, n.saturating_sub(1)] {
        if cut >= n {
            continue;
        }
        let new = run_new(module, &top, inputs, Some(cut));
        assert_eq!(
            new.result,
            Err("interpreter trap: step limit exceeded".into())
        );
        assert_same(
            &format!("{label}: step_limit {cut}"),
            &new,
            &run_old(module, &top, inputs, Some(cut)),
        );
    }
    n
}

fn suite() {
    for k in kernels::all_kernels() {
        let inputs = kernels::gen_inputs(k, 2026);
        for flow in [Flow::Adaptor, Flow::Cpp] {
            let art = run_flow(k, &Directives::default(), flow).unwrap();
            let label = format!("{} via {flow:?}", k.name);
            let steps = check(&label, &art.module, &inputs, 500_000_000);
            assert!(steps > 0, "{label} executed nothing");
        }
    }
}

/// Both flows' modules of a generated kernel, built as the fuzz oracle
/// builds them, with the oracle's inputs. `None` when a flow fails.
fn fuzz_case(seed: u64) -> Option<(Vec<Module>, Vec<Vec<f32>>)> {
    let text = fuzzing::generate(seed, &GenConfig::default()).text;
    let m = mlir_lite::parser::parse_module(TOP_NAME, &text).ok()?;
    let budget = Budget::unlimited();
    let mut adapted = lowering::lower(m.deep_clone()).ok()?;
    adaptor::run_adaptor_budgeted(&mut adapted, &adaptor::AdaptorConfig::default(), &budget)
        .ok()?;
    let cpp = hls_cpp::emit_cpp(&m).ok()?;
    let mut cpp_mod = hls_cpp::compile_cpp(TOP_NAME, &cpp).ok()?;
    llvm_lite::transforms::standard_cleanup()
        .run_to_fixpoint_budgeted(&mut cpp_mod, 4, &budget)
        .ok()?;
    let f = m.func(TOP_NAME)?;
    let inputs = f.regions[0]
        .entry()
        .arg_types
        .iter()
        .enumerate()
        .map(|(b, ty)| match ty {
            MType::MemRef { shape, .. } => {
                let n = shape.iter().product::<i64>().max(1) as usize;
                Some(
                    (0..n)
                        .map(|e| fuzzing::oracle::input_value(seed, b, e))
                        .collect(),
                )
            }
            _ => None,
        })
        .collect::<Option<Vec<_>>>()?;
    Some((vec![adapted, cpp_mod], inputs))
}

fn fuzz(seeds: std::ops::Range<u64>) {
    let step_limit = fuzzing::OracleOpts::default().step_limit;
    let mut compared = 0;
    for seed in seeds.clone() {
        let Some((modules, inputs)) = fuzz_case(seed) else {
            continue;
        };
        for (m, flow) in modules.iter().zip(["adaptor", "cpp"]) {
            check(&format!("seed {seed} via {flow}"), m, &inputs, step_limit);
            compared += 1;
        }
    }
    let want = 2 * (seeds.end - seeds.start);
    assert!(
        compared * 10 >= want * 9,
        "only {compared} of {want} fuzz modules were built"
    );
}

#[test]
fn suite_kernels_match_the_tree_walker() {
    suite();
}

#[test]
fn fuzz_seed_prefix_matches_the_tree_walker() {
    fuzz(0..48);
}

#[test]
#[ignore = "5000 seeds; run in release mode"]
fn fuzz_5000_seeds_and_suite_match_the_tree_walker() {
    suite();
    fuzz(0..5000);
}
