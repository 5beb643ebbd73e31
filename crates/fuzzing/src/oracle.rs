//! The oracle stack: every check a generated kernel must survive.
//!
//! A kernel passes when *all* oracles pass; the first failure wins and is
//! reported with its stage, so a signature pins down both *what* broke and
//! *where*. The stack, in order:
//!
//! 1. **parse + verify** — generated text must parse and verify (a failure
//!    here is a generator bug or a parser regression).
//! 2. **MLIR round-trip** — `print ∘ parse` must be the identity on the
//!    printed form at the MLIR-lite level.
//! 3. **lower + adaptor** — the adaptor flow must legalize the module; the
//!    pass manager's verify-after-each-pass is on, so a pass that corrupts
//!    the IR is caught at the pass that did it.
//! 4. **LLVM round-trip** — the printed `.ll` must re-parse and re-print
//!    identically.
//! 5. **C++ flow** — emission, the frontend, and the cleanup fixpoint must
//!    succeed on the same kernel.
//! 6. **differential execution** — both modules run under
//!    [`llvm_lite::interp`] on deterministic pseudo-random inputs derived
//!    from the seed; every output buffer must match bit-for-bit.
//!
//! Every stage runs under `catch_unwind` and a [`pass_core::Budget`], so a
//! panic becomes a [`OracleKind::Panic`] failure, an infinite loop becomes
//! a [`OracleKind::Budget`] trip (or an interpreter step-limit
//! [`OracleKind::Exec`] trap) — never a stuck or dead fuzzer. Stages 3 and
//! 5 are [`crate::flow::run`], the same definition every driver path runs;
//! a flow failure is reported at the flow stage that failed (`lower`,
//! `adaptor`, `emit-cpp`, `frontend` or `cleanup`).

use std::panic::{catch_unwind, AssertUnwindSafe};

use llvm_lite::interp::{Interpreter, RtVal};
use mlir_lite::{MType, MlirModule};
use pass_core::Budget;

use crate::flow::{self, Flow, FlowError};
use crate::gen::TOP_NAME;
use crate::sig::{Failure, OracleKind};

/// Knobs bounding one oracle run.
#[derive(Clone, Debug)]
pub struct OracleOpts {
    /// Wall-clock deadline for the whole attempt (None = unbounded; keep
    /// it off when bit-reproducibility across machines matters).
    pub deadline_ms: Option<u64>,
    /// Shared fuel pool for the attempt's pass pipelines.
    pub fuel: Option<u64>,
    /// Interpreter instruction budget per execution.
    pub step_limit: u64,
}

impl Default for OracleOpts {
    fn default() -> OracleOpts {
        OracleOpts {
            deadline_ms: None,
            fuel: None,
            // Generous for 8x8 kernels (they run ~1e4 steps) while still
            // catching runaway loops quickly.
            step_limit: 5_000_000,
        }
    }
}

/// Run `work`, turning a panic into its message.
fn caught<T>(work: impl FnOnce() -> T) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(work)).map_err(|payload| {
        payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "non-string panic payload".into())
    })
}

/// Run `work` with panic classification for `stage`.
fn guarded<T>(
    stage: &str,
    oracle: OracleKind,
    work: impl FnOnce() -> Result<T, String>,
) -> Result<T, Failure> {
    match caught(work) {
        Ok(result) => result.map_err(|msg| Failure::new(oracle, stage, msg)),
        Err(msg) => Err(Failure::new(OracleKind::Panic, stage, msg)),
    }
}

/// Run one flow over `m`. A failure, or a panic, is reported at the flow
/// stage that was running; a budget trip is its own oracle kind, so hangs
/// dedup apart from real bugs.
fn guarded_flow(m: MlirModule, flow: Flow, budget: &Budget) -> Result<llvm_lite::Module, Failure> {
    let mut stage = "";
    match caught(|| flow::run(m, flow, budget, &mut |s| stage = s)) {
        Ok(Ok(art)) => Ok(art.module),
        Ok(Err(e @ FlowError::Budget { .. })) => {
            Err(Failure::new(OracleKind::Budget, e.stage(), e.to_string()))
        }
        Ok(Err(e)) => Err(Failure::new(OracleKind::Stage, e.stage(), e.to_string())),
        Err(msg) => Err(Failure::new(OracleKind::Panic, stage, msg)),
    }
}

/// Drive one kernel through the full oracle stack. `seed` feeds the
/// deterministic input generator for differential execution.
pub fn run_oracles(src: &str, seed: u64, opts: &OracleOpts) -> Result<(), Failure> {
    let budget = Budget::from_limits(opts.deadline_ms, opts.fuel);

    // 1. Parse + verify.
    let m = guarded("mlir-parse", OracleKind::Parse, || {
        mlir_lite::parser::parse_module(TOP_NAME, src).map_err(|e| e.to_string())
    })?;
    guarded("mlir-verify", OracleKind::Verify, || {
        mlir_lite::verifier::verify_module(&m).map_err(|e| e.to_string())
    })?;

    // 2. MLIR-level print/parse round-trip.
    guarded("mlir-roundtrip", OracleKind::RoundTrip, || {
        let t1 = mlir_lite::printer::print_module(&m);
        let m2 = mlir_lite::parser::parse_module(TOP_NAME, &t1)
            .map_err(|e| format!("printed module does not re-parse: {e}"))?;
        let t2 = mlir_lite::printer::print_module(&m2);
        if t1 != t2 {
            return Err(first_divergence("mlir print", &t1, &t2));
        }
        Ok(())
    })?;
    // Read before the C++ flow consumes the module; reported in stage 6.
    let shapes = buffer_shapes(&m);

    // 3. Adaptor flow (lower → adaptor with verify-after-each-pass).
    let adaptor_mod = guarded_flow(m.deep_clone(), Flow::Adaptor, &budget)?;
    guarded("llvm-verify", OracleKind::Verify, || {
        llvm_lite::verifier::verify_module(&adaptor_mod).map_err(|e| e.to_string())
    })?;

    // 4. LLVM-level print/parse round-trip on the adaptor output.
    guarded("llvm-roundtrip", OracleKind::RoundTrip, || {
        let t1 = llvm_lite::printer::print_module(&adaptor_mod);
        let m2 = llvm_lite::parser::parse_module(TOP_NAME, &t1)
            .map_err(|e| format!("printed .ll does not re-parse: {e}"))?;
        let t2 = llvm_lite::printer::print_module(&m2);
        if t1 != t2 {
            return Err(first_divergence("llvm print", &t1, &t2));
        }
        Ok(())
    })?;

    // 5. C++ flow (emit-cpp → frontend → cleanup).
    let cpp_mod = guarded_flow(m, Flow::Cpp, &budget)?;

    // 6. Differential execution on deterministic inputs.
    let shapes = shapes?;
    let out_a = guarded("exec-adaptor", OracleKind::Exec, || {
        execute(&adaptor_mod, &shapes, seed, opts.step_limit)
    })?;
    let out_c = guarded("exec-cpp", OracleKind::Exec, || {
        execute(&cpp_mod, &shapes, seed, opts.step_limit)
    })?;
    guarded("compare", OracleKind::Differential, || {
        for (bi, (a, c)) in out_a.iter().zip(out_c.iter()).enumerate() {
            if a.len() != c.len() {
                return Err(format!(
                    "buffer {bi} length diverged: {} vs {}",
                    a.len(),
                    c.len()
                ));
            }
            for (ei, (x, y)) in a.iter().zip(c.iter()).enumerate() {
                if x.to_bits() != y.to_bits() {
                    return Err(format!(
                        "flows diverged at buffer {bi} element {ei}: adaptor={x} hls-cpp={y}"
                    ));
                }
            }
        }
        Ok(())
    })
}

/// Differential legality oracle for the dependence engine.
///
/// Runs `interchange-innermost` in skip-illegal mode — every swap it
/// performs was judged safe by `analysis::depend` — then drives the
/// original and interchanged kernels through the adaptor flow and
/// executes both on the same deterministic inputs. A bit-level divergence
/// means the legality engine approved a dependence-reversing transform:
/// that is an [`OracleKind::Legality`] finding, the strongest kind of
/// analysis bug. Returns `Ok(true)` when an interchange was actually
/// exercised, `Ok(false)` when the kernel had no legal swap to make.
pub fn run_legality_oracle(src: &str, seed: u64, opts: &OracleOpts) -> Result<bool, Failure> {
    let budget = Budget::from_limits(opts.deadline_ms, opts.fuel);
    let m = guarded("mlir-parse", OracleKind::Parse, || {
        mlir_lite::parser::parse_module(TOP_NAME, src).map_err(|e| e.to_string())
    })?;
    let mut swapped = m.deep_clone();
    let changed = guarded("interchange", OracleKind::Legality, || {
        use mlir_lite::passes::MlirPass;
        mlir_lite::passes::InterchangeInnermost { skip_illegal: true }
            .run(&mut swapped)
            .map_err(|e| e.to_string())
    })?;
    if !changed {
        return Ok(false);
    }
    let shapes = buffer_shapes(&m)?;
    let exec_of = |module: MlirModule, tag: &'static str| {
        let lowered = guarded_flow(module, Flow::Adaptor, &budget).map_err(|f| Failure {
            stage: tag.to_string(),
            ..f
        })?;
        guarded(tag, OracleKind::Exec, || {
            execute(&lowered, &shapes, seed, opts.step_limit)
        })
    };
    let out_base = exec_of(m, "legality-base")?;
    let out_swapped = exec_of(swapped, "legality-interchanged")?;
    guarded("legality-compare", OracleKind::Legality, || {
        for (bi, (a, b)) in out_base.iter().zip(out_swapped.iter()).enumerate() {
            for (ei, (x, y)) in a.iter().zip(b.iter()).enumerate() {
                if x.to_bits() != y.to_bits() {
                    return Err(format!(
                        "engine-approved interchange changed results at buffer {bi} \
                         element {ei}: original={x} interchanged={y}"
                    ));
                }
            }
        }
        Ok(())
    })?;
    Ok(true)
}

/// Pull the top function's memref parameter element counts out of the
/// parsed module. Works on reduced kernels too (shapes come from the text,
/// not from the generator).
fn buffer_shapes(m: &MlirModule) -> Result<Vec<usize>, Failure> {
    let f = m
        .func(TOP_NAME)
        .or_else(|| {
            // A reduced kernel may have been renamed; take the first func.
            m.ops.iter().find(|o| o.name == "func.func")
        })
        .ok_or_else(|| Failure::new(OracleKind::Parse, "shapes", "module has no function"))?;
    f.regions[0]
        .entry()
        .arg_types
        .iter()
        .enumerate()
        .map(|(i, ty)| match ty {
            MType::MemRef { shape, .. } => {
                let mut n: i64 = 1;
                for d in shape {
                    if *d < 0 {
                        return Err(Failure::new(
                            OracleKind::Exec,
                            "shapes",
                            format!("param {i} has a dynamic dimension"),
                        ));
                    }
                    n *= *d;
                }
                Ok(n.max(1) as usize)
            }
            other => Err(Failure::new(
                OracleKind::Exec,
                "shapes",
                format!("param {i} is not a memref: {other:?}"),
            )),
        })
        .collect()
}

/// Deterministic input for buffer `b`, element `k`: small exact fractions
/// so float results are reproducible and rarely overflow.
pub fn input_value(seed: u64, buf: usize, elem: usize) -> f32 {
    let h = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add((buf as u64) << 32)
        .wrapping_add(elem as u64)
        .wrapping_mul(0xBF58_476D_1CE4_E5B9);
    (((h >> 16) % 33) as i64 - 16) as f32 / 4.0
}

/// Run the top function with per-buffer deterministic inputs; returns the
/// final contents of every buffer.
fn execute(
    module: &llvm_lite::Module,
    shapes: &[usize],
    seed: u64,
    step_limit: u64,
) -> Result<Vec<Vec<f32>>, String> {
    let mut interp = Interpreter::new(module);
    interp.step_limit = step_limit;
    let ptrs: Vec<u64> = shapes
        .iter()
        .enumerate()
        .map(|(b, &n)| {
            let data: Vec<f32> = (0..n).map(|k| input_value(seed, b, k)).collect();
            interp.mem.alloc_f32(&data)
        })
        .collect();
    let args: Vec<RtVal> = ptrs.iter().map(|p| RtVal::P(*p)).collect();
    let name = module
        .top_function()
        .map(|f| f.name.clone())
        .unwrap_or_else(|| TOP_NAME.to_string());
    interp.call(&name, &args).map_err(|e| e.to_string())?;
    ptrs.iter()
        .zip(shapes.iter())
        .map(|(p, &n)| interp.mem.read_f32(*p, n).map_err(|e| e.to_string()))
        .collect()
}

/// Render the first differing line of two texts for a round-trip failure.
fn first_divergence(what: &str, t1: &str, t2: &str) -> String {
    for (i, (a, b)) in t1.lines().zip(t2.lines()).enumerate() {
        if a != b {
            return format!("{what} not idempotent at line {}: '{a}' vs '{b}'", i + 1);
        }
    }
    format!(
        "{what} not idempotent: lengths {} vs {}",
        t1.len(),
        t2.len()
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{generate, GenConfig};

    #[test]
    fn a_simple_generated_kernel_passes_every_oracle() {
        // Seed 0 is pinned in the CI smoke range; it must stay clean.
        let k = generate(0, &GenConfig::default());
        let r = run_oracles(&k.text, 0, &OracleOpts::default());
        assert!(r.is_ok(), "seed 0 failed: {}\n{}", r.unwrap_err(), k.text);
    }

    #[test]
    fn legality_oracle_verifies_a_real_interchange() {
        // A perfect transpose nest: the engine approves the swap and the
        // differential check must find it bit-exact.
        let src = r#"
func.func @fuzz_top(%a: memref<4x6xf32>, %b: memref<4x6xf32>) {
  affine.for %i = 0 to 4 {
    affine.for %j = 0 to 6 {
      %v = affine.load %a[%i, %j] : memref<4x6xf32>
      affine.store %v, %b[%i, %j] : memref<4x6xf32>
    }
  }
  func.return
}
"#;
        let r = run_legality_oracle(src, 3, &OracleOpts::default());
        assert_eq!(r.map_err(|f| f.to_string()), Ok(true));
    }

    #[test]
    fn legality_oracle_skips_kernels_with_no_legal_swap() {
        // Skewed dependence: skip-illegal mode leaves the nest alone, so
        // nothing is exercised and the oracle trivially passes.
        let src = r#"
func.func @fuzz_top(%a: memref<8x8xf32>) {
  affine.for %i = 0 to 7 {
    affine.for %j = 0 to 7 {
      %v = affine.load %a[%i, %j + 1] : memref<8x8xf32>
      affine.store %v, %a[%i + 1, %j] : memref<8x8xf32>
    }
  }
  func.return
}
"#;
        let r = run_legality_oracle(src, 3, &OracleOpts::default());
        assert_eq!(r.map_err(|f| f.to_string()), Ok(false));
    }

    #[test]
    fn unparseable_input_fails_the_parse_oracle() {
        let f = run_oracles("this is not mlir", 0, &OracleOpts::default()).unwrap_err();
        assert_eq!(f.oracle, OracleKind::Parse);
        assert_eq!(f.stage, "mlir-parse");
    }

    #[test]
    fn hang_trips_the_budget_not_the_fuzzer() {
        let k = generate(0, &GenConfig::default());
        let opts = OracleOpts {
            fuel: Some(1),
            ..OracleOpts::default()
        };
        let f = run_oracles(&k.text, 0, &opts).unwrap_err();
        assert_eq!(f.oracle, OracleKind::Budget, "{f}");
    }

    /// The failure signature of one crafted input per reachable (oracle
    /// kind, stage) pair. A changed signature splits or merges findings
    /// in every corpus, so it must only move on purpose.
    #[test]
    fn failure_signatures_are_pinned() {
        let cases = [
            (
                r#"
func.func @fuzz_top(%a: memref<8xf32>) {
  scf.for %i = 0 to 8 {
  }
  func.return
}
"#,
                "parse/mlir-parse: parse error at line #: unknown or unparseable op 'scf.for'",
            ),
            (
                r#"
func.func @fuzz_top(%a: memref<?xf32>) {
  func.return
}
"#,
                "stage/emit-cpp: C++ emission error: dynamic memref in interface",
            ),
            (
                r#"
func.func @helper(%a: memref<8xf32>) {
  func.return
}
func.func @fuzz_top(%a: memref<8xf32>) {
  func.call @helper(%a) : (memref<8xf32>) -> ()
  func.return
}
"#,
                "stage/adaptor: error[verify-compat] @fuzz_top:pointer parameter %arg#: \
                 # HLS compatibility issue(s):",
            ),
            (
                r#"
func.func @fuzz_top(%a: memref<8xf32>) {
  func.call @fuzz_top(%a) : (memref<8xf32>) -> ()
  func.return
}
"#,
                "stage/adaptor: error[verify-compat] @fuzz_top:cycle through @fuzz_top: \
                 # HLS compatibility issue(s):",
            ),
            (
                r#"
func.func @fuzz_top(%x: f32, %a: memref<8xf32>) {
  affine.for %i = 0 to 8 {
    affine.store %x, %a[%i] : memref<8xf32>
  }
  func.return
}
"#,
                "exec/shapes: param # is not a memref: F#",
            ),
            (
                r#"
func.func @fuzz_top(%a: memref<8xf32>) {
  affine.for %i = 0 to 16 {
    %v = affine.load %a[%i] : memref<8xf32>
    affine.store %v, %a[%i] : memref<8xf32>
  }
  func.return
}
"#,
                "exec/exec-adaptor: interpreter trap: out-of-bounds access at offset #+# \
                 in buffer of # bytes",
            ),
        ];
        let signature = |src: &str, opts: &OracleOpts| {
            let f = run_oracles(src, 0, opts).unwrap_err();
            f.signature().as_str().to_string()
        };
        for (src, want) in cases {
            assert_eq!(signature(src, &OracleOpts::default()), want, "{src}");
        }

        // Budget trips: the first charge is the flow's `flow/lower`
        // boundary, then lowering's cleanup pipeline.
        let k = generate(0, &GenConfig::default());
        let fuel = OracleOpts {
            fuel: Some(1),
            ..OracleOpts::default()
        };
        assert_eq!(
            signature(&k.text, &fuel),
            "budget/lower: fuel budget exceeded in mem#reg: pool empty (# unit(s) requested)"
        );
        let deadline = OracleOpts {
            deadline_ms: Some(0),
            ..OracleOpts::default()
        };
        // The overshoot renders in whole microseconds, so every trip at
        // this site folds into one signature.
        assert_eq!(
            signature(&k.text, &deadline),
            "budget/lower: deadline budget exceeded in flow/lower: wall clock over by #µs"
        );
    }

    #[test]
    fn input_values_are_deterministic_and_small() {
        for b in 0..4 {
            for k in 0..64 {
                let v = input_value(9, b, k);
                assert_eq!(v.to_bits(), input_value(9, b, k).to_bits());
                assert!(v.abs() <= 4.0);
            }
        }
    }
}
