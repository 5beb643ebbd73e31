//! Progressive lowering from MLIR down to LLVM IR.
//!
//! The pipeline mirrors upstream MLIR's staged conversion:
//!
//! ```text
//! affine dialect ──(affine→scf)──► scf ──(scf→cf)──► cf + arith + memref
//!                                        ──(translate)──► llvm-lite Module
//! ```
//!
//! Design notes relative to the paper:
//!
//! * HLS directive attributes (`hls.pipeline_ii`, `hls.unroll_factor`, …)
//!   ride on loop ops, are transferred to the loop *latch branch* by the
//!   scf→cf stage, and become `!llvm.loop` metadata during translation —
//!   exactly the channel the paper's adaptor relies on.
//! * The memref lowering uses the **bare-pointer convention** with
//!   linearized index arithmetic (what `--finalize-memref-to-llvm` emits).
//!   This deliberately produces the "raw" LLVM IR that commercial HLS
//!   front-ends reject — recovering structured arrays from it is the
//!   adaptor's job, not the lowering's.
//! * Each memref function parameter's static shape is recorded in a string
//!   parameter attribute (`mha.shape`), standing in for the signature
//!   information `mlir-translate` keeps in function metadata.

pub mod affine_to_scf;
pub mod scf_to_cf;
pub mod translate;
pub mod unroll;

use mlir_lite::MlirModule;

/// Lowering errors are the IR crates' one error type.
pub use mlir_lite::{Error, Result};

/// Run the full pipeline: `hls.unroll_full` expansion, then
/// affine → scf → cf → llvm-lite.
///
/// The input module is consumed (lowering rewrites it stage by stage); the
/// output is a verified LLVM module, not yet cleaned up: a budgeted caller
/// runs the cleanup fixpoint under its own budget.
pub fn lower_module(mut m: MlirModule) -> Result<llvm_lite::Module> {
    mlir_lite::verifier::verify_module(&m)?;
    unroll::expand_full_unroll(&mut m)?;
    affine_to_scf::run(&mut m)?;
    scf_to_cf::run(&mut m)?;
    let out = translate::translate(&m)?;
    llvm_lite::verifier::verify_module(&out)?;
    Ok(out)
}

/// [`lower_module`], then the llvm-lite standard cleanup
/// (mem2reg/fold/simplify/dce) to a fixed point.
pub fn lower(m: MlirModule) -> Result<llvm_lite::Module> {
    let mut out = lower_module(m)?;
    llvm_lite::transforms::standard_cleanup().run_to_fixpoint(&mut out, 4)?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use llvm_lite::interp::{Interpreter, RtVal};
    use mlir_lite::parser::parse_module;

    const GEMM: &str = r#"
func.func @gemm(%A: memref<4x4xf32>, %B: memref<4x4xf32>, %C: memref<4x4xf32>) attributes {hls.top} {
  affine.for %i = 0 to 4 {
    affine.for %j = 0 to 4 {
      %zero = arith.constant 0.0 : f32
      affine.store %zero, %C[%i, %j] : memref<4x4xf32>
      affine.for %k = 0 to 4 {
        %a = affine.load %A[%i, %k] : memref<4x4xf32>
        %b = affine.load %B[%k, %j] : memref<4x4xf32>
        %c = affine.load %C[%i, %j] : memref<4x4xf32>
        %p = arith.mulf %a, %b : f32
        %s = arith.addf %c, %p : f32
        affine.store %s, %C[%i, %j] : memref<4x4xf32>
      } {hls.pipeline_ii = 1 : i32}
    }
  }
  func.return
}
"#;

    #[test]
    fn gemm_lowers_and_verifies() {
        let m = parse_module("gemm", GEMM).unwrap();
        let out = lower(m).unwrap();
        let f = out.function("gemm").unwrap();
        assert_eq!(f.params.len(), 3);
        assert!(f.attrs.contains_key("hls.top"));
        // Shape attributes recorded for the adaptor.
        assert_eq!(
            f.params[0].attrs.get("mha.shape").map(String::as_str),
            Some("4x4xf32")
        );
        // Pipeline directive became loop metadata.
        assert!(out.loop_mds.iter().any(|md| md.pipeline_ii == Some(1)));
    }

    #[test]
    fn gemm_computes_correct_product() {
        let m = parse_module("gemm", GEMM).unwrap();
        let out = lower(m).unwrap();
        let mut interp = Interpreter::new(&out);
        let a: Vec<f32> = (0..16).map(|x| x as f32).collect();
        let b: Vec<f32> = (0..16).map(|x| (x % 3) as f32).collect();
        let pa = interp.mem.alloc_f32(&a);
        let pb = interp.mem.alloc_f32(&b);
        let pc = interp.mem.alloc_f32(&[0.0; 16]);
        interp
            .call("gemm", &[RtVal::P(pa), RtVal::P(pb), RtVal::P(pc)])
            .unwrap();
        let c = interp.mem.read_f32(pc, 16).unwrap();
        // Reference.
        let mut expect = vec![0.0f32; 16];
        for i in 0..4 {
            for j in 0..4 {
                let mut acc = 0.0f32;
                for k in 0..4 {
                    acc += a[i * 4 + k] * b[k * 4 + j];
                }
                expect[i * 4 + j] = acc;
            }
        }
        assert_eq!(c, expect);
    }

    #[test]
    fn stencil_with_offsets_computes_correctly() {
        let src = r#"
func.func @blur(%in: memref<8xf32>, %out: memref<8xf32>) {
  affine.for %i = 1 to 7 {
    %l = affine.load %in[%i - 1] : memref<8xf32>
    %c = affine.load %in[%i] : memref<8xf32>
    %r = affine.load %in[%i + 1] : memref<8xf32>
    %s1 = arith.addf %l, %c : f32
    %s2 = arith.addf %s1, %r : f32
    affine.store %s2, %out[%i] : memref<8xf32>
  }
  func.return
}
"#;
        let m = parse_module("blur", src).unwrap();
        let out = lower(m).unwrap();
        let mut interp = Interpreter::new(&out);
        let input: Vec<f32> = (0..8).map(|x| x as f32).collect();
        let pin = interp.mem.alloc_f32(&input);
        let pout = interp.mem.alloc_f32(&[0.0; 8]);
        interp
            .call("blur", &[RtVal::P(pin), RtVal::P(pout)])
            .unwrap();
        let got = interp.mem.read_f32(pout, 8).unwrap();
        for i in 1..7 {
            assert_eq!(got[i], input[i - 1] + input[i] + input[i + 1]);
        }
        assert_eq!(got[0], 0.0);
        assert_eq!(got[7], 0.0);
    }

    #[test]
    fn local_buffers_work() {
        let src = r#"
func.func @copy_via_buf(%in: memref<4xf32>, %out: memref<4xf32>) {
  %buf = memref.alloca() : memref<4xf32>
  affine.for %i = 0 to 4 {
    %v = affine.load %in[%i] : memref<4xf32>
    affine.store %v, %buf[%i] : memref<4xf32>
  }
  affine.for %i = 0 to 4 {
    %v = affine.load %buf[%i] : memref<4xf32>
    affine.store %v, %out[%i] : memref<4xf32>
  }
  func.return
}
"#;
        let m = parse_module("c", src).unwrap();
        let out = lower(m).unwrap();
        let mut interp = Interpreter::new(&out);
        let pin = interp.mem.alloc_f32(&[5.0, 6.0, 7.0, 8.0]);
        let pout = interp.mem.alloc_f32(&[0.0; 4]);
        interp
            .call("copy_via_buf", &[RtVal::P(pin), RtVal::P(pout)])
            .unwrap();
        assert_eq!(
            interp.mem.read_f32(pout, 4).unwrap(),
            vec![5.0, 6.0, 7.0, 8.0]
        );
    }

    #[test]
    fn full_unroll_removes_loop() {
        let src = r#"
func.func @f(%m: memref<4xf32>) {
  affine.for %i = 0 to 4 {
    %v = affine.load %m[%i] : memref<4xf32>
    %w = arith.addf %v, %v : f32
    affine.store %w, %m[%i] : memref<4xf32>
  } {hls.unroll_full = true}
  func.return
}
"#;
        let m = parse_module("f", src).unwrap();
        let out = lower(m).unwrap();
        let f = out.function("f").unwrap();
        // No loop left: a single block, straight-line code.
        assert_eq!(f.block_order.len(), 1);
        assert_eq!(f.count_opcode(llvm_lite::Opcode::Load), 4);
        // Still computes doubling.
        let mut interp = Interpreter::new(&out);
        let p = interp.mem.alloc_f32(&[1.0, 2.0, 3.0, 4.0]);
        interp.call("f", &[RtVal::P(p)]).unwrap();
        assert_eq!(interp.mem.read_f32(p, 4).unwrap(), vec![2.0, 4.0, 6.0, 8.0]);
    }

    #[test]
    fn non_unit_step_loops() {
        let src = r#"
func.func @evens(%m: memref<8xf32>) {
  affine.for %i = 0 to 8 step 2 {
    %c = arith.constant 1.0 : f32
    affine.store %c, %m[%i] : memref<8xf32>
  }
  func.return
}
"#;
        let m = parse_module("e", src).unwrap();
        let out = lower(m).unwrap();
        let mut interp = Interpreter::new(&out);
        let p = interp.mem.alloc_f32(&[0.0; 8]);
        interp.call("evens", &[RtVal::P(p)]).unwrap();
        assert_eq!(
            interp.mem.read_f32(p, 8).unwrap(),
            vec![1.0, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0]
        );
    }

    #[test]
    fn unroll_factor_survives_as_metadata() {
        let src = r#"
func.func @f(%m: memref<16xf32>) {
  affine.for %i = 0 to 16 {
    %v = affine.load %m[%i] : memref<16xf32>
    affine.store %v, %m[%i] : memref<16xf32>
  } {hls.unroll_factor = 4 : i32}
  func.return
}
"#;
        let m = parse_module("f", src).unwrap();
        let out = lower(m).unwrap();
        assert!(out.loop_mds.iter().any(|md| md.unroll_factor == Some(4)));
    }
}
