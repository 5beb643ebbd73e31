//! Bring your own kernel: author MLIR at runtime, push it through the
//! whole stack, and validate it with the interpreter — no suite entry
//! needed.
//!
//! The kernel here is SAXPY with a twist (a ReLU on the result), showing
//! `arith.cmpf`/`arith.select` and scalar constants end to end.
//!
//! ```text
//! cargo run --example custom_kernel
//! ```

use adaptor::AdaptorConfig;
use llvm_lite::interp::{Interpreter, RtVal};
use vitis_sim::{csynth, Target};

const SAXPY_RELU: &str = r#"
func.func @saxpy_relu(%x: memref<32xf32>, %y: memref<32xf32>, %out: memref<32xf32>) attributes {hls.top} {
  affine.for %i = 0 to 32 {
    %a = arith.constant 2.5 : f32
    %xv = affine.load %x[%i] : memref<32xf32>
    %yv = affine.load %y[%i] : memref<32xf32>
    %ax = arith.mulf %a, %xv : f32
    %s = arith.addf %ax, %yv : f32
    %zero = arith.constant 0.0 : f32
    %neg = arith.cmpf olt, %s, %zero : f32
    %r = arith.select %neg, %zero, %s : f32
    affine.store %r, %out[%i] : memref<32xf32>
  } {hls.pipeline_ii = 1 : i32}
  func.return
}
"#;

fn main() {
    // Parse and verify the hand-written kernel.
    let m = mlir_lite::parser::parse_module("saxpy_relu", SAXPY_RELU).expect("parse MLIR");
    mlir_lite::verifier::verify_module(&m).expect("verify MLIR");

    // Lower and adapt.
    let mut module = lowering::lower(m).expect("lower");
    let samples =
        adaptor::run_adaptor_sampled(&mut module, &AdaptorConfig::default()).expect("adaptor");
    println!(
        "adaptor fixed {} -> {} issues; passes that fired: {:?}",
        samples.issues_before,
        samples.issues_after(),
        samples.report.pipeline.changed_passes()
    );

    // Validate numerically with the IR interpreter.
    let mut interp = Interpreter::new(&module);
    let x: Vec<f32> = (0..32).map(|i| (i as f32) - 16.0).collect();
    let y: Vec<f32> = (0..32).map(|i| ((i % 4) as f32) * 0.25).collect();
    let px = interp.mem.alloc_f32(&x);
    let py = interp.mem.alloc_f32(&y);
    let pout = interp.mem.alloc_f32(&[0.0; 32]);
    interp
        .call("saxpy_relu", &[RtVal::P(px), RtVal::P(py), RtVal::P(pout)])
        .expect("run");
    let out = interp.mem.read_f32(pout, 32).expect("read");
    for i in 0..32 {
        let expect = (2.5f32 * x[i] + y[i]).max(0.0);
        assert_eq!(out[i], expect, "mismatch at {i}");
    }
    println!("interpreter check passed: out == relu(2.5*x + y) for all 32 lanes");

    // Synthesize.
    let r = csynth(&module, &Target::default()).expect("csynth");
    print!("{}", r.render());
    println!(
        "(elementwise, II=1: latency ≈ depth + trip - 1 = {} cycles)",
        r.latency
    );
}
