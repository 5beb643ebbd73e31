//! Differential property testing of the whole stack: randomly generated
//! affine kernels go through **both** flows (MLIR → adaptor vs MLIR → HLS
//! C++ → frontend) and must compute identical results on random inputs.
//! One failing case localizes a bug to wherever the flows diverge —
//! parser, lowering, adaptor rewrite, C++ emission, C frontend, or the
//! interpreter itself.

use proptest::prelude::*;

use driver::Flow;
use llvm_lite::interp::{Interpreter, RtVal};
use pass_core::Budget;

const N: i64 = 8;

/// One random body statement: `B[i+di][j+dj] (op)= A[i+ai][j+aj] * c`.
#[derive(Clone, Debug)]
struct RandStmt {
    /// Source offsets into A, each in {-1, 0, 1}.
    ai: i64,
    aj: i64,
    /// Constant multiplier (small, exactly representable).
    c: i64,
    /// true: accumulate into B[i][j]; false: overwrite.
    accumulate: bool,
    /// Wrap the product in a relu (cmp+select) first.
    relu: bool,
}

fn gen_stmt() -> impl Strategy<Value = RandStmt> {
    (
        -1i64..=1,
        -1i64..=1,
        -4i64..=4,
        any::<bool>(),
        any::<bool>(),
    )
        .prop_map(|(ai, aj, c, accumulate, relu)| RandStmt {
            ai,
            aj,
            c,
            accumulate,
            relu,
        })
}

/// Render a kernel: loops over the interior so every offset stays in
/// bounds; all randomness lives in the body statements and directives.
fn render_kernel(stmts: &[RandStmt], ii: Option<u32>, unroll: Option<u32>) -> String {
    let mut body = String::new();
    for (k, s) in stmts.iter().enumerate() {
        let sub = |d: i64, var: &str| -> String {
            match d {
                0 => format!("%{var}"),
                d if d > 0 => format!("%{var} + {d}"),
                d => format!("%{var} - {}", -d),
            }
        };
        body.push_str(&format!(
            "      %a{k} = affine.load %A[{}, {}] : memref<8x8xf32>\n",
            sub(s.ai, "i"),
            sub(s.aj, "j")
        ));
        body.push_str(&format!("      %c{k} = arith.constant {}.0 : f32\n", s.c));
        body.push_str(&format!("      %m{k} = arith.mulf %a{k}, %c{k} : f32\n"));
        let mut val = format!("%m{k}");
        if s.relu {
            body.push_str(&format!("      %z{k} = arith.constant 0.0 : f32\n"));
            body.push_str(&format!(
                "      %neg{k} = arith.cmpf olt, {val}, %z{k} : f32\n"
            ));
            body.push_str(&format!(
                "      %r{k} = arith.select %neg{k}, %z{k}, {val} : f32\n"
            ));
            val = format!("%r{k}");
        }
        if s.accumulate {
            body.push_str(&format!(
                "      %old{k} = affine.load %B[%i, %j] : memref<8x8xf32>\n"
            ));
            body.push_str(&format!("      %s{k} = arith.addf %old{k}, {val} : f32\n"));
            val = format!("%s{k}");
        }
        body.push_str(&format!(
            "      affine.store {val}, %B[%i, %j] : memref<8x8xf32>\n"
        ));
    }
    let mut attrs = Vec::new();
    if let Some(ii) = ii {
        attrs.push(format!("hls.pipeline_ii = {ii} : i32"));
    }
    if let Some(u) = unroll {
        attrs.push(format!("hls.unroll_factor = {u} : i32"));
    }
    let attr_str = if attrs.is_empty() {
        String::new()
    } else {
        format!(" {{{}}}", attrs.join(", "))
    };
    format!(
        r#"
func.func @randk(%A: memref<8x8xf32>, %B: memref<8x8xf32>) attributes {{hls.top}} {{
  affine.for %i = 1 to {hi} {{
    affine.for %j = 1 to {hi} {{
{body}    }}{attr_str}
  }}
  func.return
}}
"#,
        hi = N - 1,
        body = body
    )
}

/// Run a compiled module on the given input; returns B.
fn execute(module: &llvm_lite::Module, a: &[f32]) -> Vec<f32> {
    let mut interp = Interpreter::new(module);
    let pa = interp.mem.alloc_f32(a);
    let pb = interp.mem.alloc_f32(&vec![0.0; (N * N) as usize]);
    interp
        .call("randk", &[RtVal::P(pa), RtVal::P(pb)])
        .expect("execution");
    interp.mem.read_f32(pb, (N * N) as usize).expect("read B")
}

/// The HLS-ready module of one flow over `m`.
fn flow_module(m: &mlir_lite::MlirModule, flow: Flow) -> llvm_lite::Module {
    fuzzing::flow::run(m.deep_clone(), flow, &Budget::unlimited(), &mut |_| {})
        .unwrap_or_else(|e| panic!("{flow:?} flow: {e}"))
        .module
}

fn input_from(seed: &[i32]) -> Vec<f32> {
    (0..(N * N) as usize)
        .map(|i| (seed[i % seed.len()] % 17) as f32 / 4.0)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The two flows are observationally equivalent on random kernels.
    #[test]
    fn flows_agree_on_random_kernels(
        stmts in prop::collection::vec(gen_stmt(), 1..4),
        ii in prop::option::of(1u32..4),
        seed in prop::collection::vec(-50i32..50, 8),
    ) {
        let src = render_kernel(&stmts, ii, None);
        let m = mlir_lite::parser::parse_module("randk", &src)
            .expect("generated MLIR must parse");
        mlir_lite::verifier::verify_module(&m).expect("generated MLIR must verify");

        let adaptor_mod = flow_module(&m, Flow::Adaptor);
        let cpp_mod = flow_module(&m, Flow::Cpp);

        let a = input_from(&seed);
        let out_adaptor = execute(&adaptor_mod, &a);
        let out_cpp = execute(&cpp_mod, &a);
        prop_assert_eq!(out_adaptor, out_cpp, "flows diverged on:\n{}", src);
    }

    /// Both flows stay synthesizable for every random kernel + directive
    /// combination, and report identical achieved IIs.
    #[test]
    fn flows_synthesize_identically(
        stmts in prop::collection::vec(gen_stmt(), 1..3),
        ii in 1u32..3,
        unroll in prop::option::of(2u32..4),
    ) {
        let src = render_kernel(&stmts, Some(ii), unroll);
        let m = mlir_lite::parser::parse_module("randk", &src).expect("parse");

        let adaptor_mod = flow_module(&m, Flow::Adaptor);
        let cpp_mod = flow_module(&m, Flow::Cpp);

        let target = vitis_sim::Target::default();
        let ra = vitis_sim::csynth(&adaptor_mod, &target).expect("adaptor csynth");
        let rc = vitis_sim::csynth(&cpp_mod, &target).expect("cpp csynth");
        let ii_of = |r: &vitis_sim::CsynthReport| {
            r.loops.iter().filter_map(|l| l.ii_achieved).max()
        };
        prop_assert_eq!(ii_of(&ra), ii_of(&rc), "II diverged on:\n{}", src);
        // Latencies within 10% (block naming/layout may differ slightly).
        let (la, lc) = (ra.latency as f64, rc.latency as f64);
        prop_assert!(
            (la - lc).abs() / la.max(lc) < 0.10,
            "latency diverged: {la} vs {lc} on:\n{src}"
        );
    }
}
