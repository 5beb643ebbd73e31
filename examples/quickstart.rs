//! Quickstart: one kernel, the adaptor flow, a synthesis report.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use adaptor::AdaptorConfig;
use driver::{cosim, flow::prepare_mlir, Directives};
use vitis_sim::{csynth, Target};

fn main() {
    // 1. Pick a kernel from the suite (gemm = dense matrix multiply).
    let kernel = kernels::kernel("gemm").expect("gemm is in the suite");

    // 2. Run the paper's flow step by step: MLIR -> LLVM IR -> HLS
    //    adaptor (`driver::run_flow` composes the same steps). Directives
    //    are applied at the MLIR level; here: pipeline the innermost loop
    //    with a target initiation interval of 1.
    let mlir = prepare_mlir(kernel, &Directives::pipelined(1)).expect("parse MLIR");
    let mut module = lowering::lower(mlir).expect("lower");

    // 3. The adaptor reports what it had to fix: the compat-issue count
    //    before its passes and after each one (the paper's Table 4).
    let samples =
        adaptor::run_adaptor_sampled(&mut module, &AdaptorConfig::default()).expect("adaptor");
    println!(
        "adaptor: {} HLS compatibility issue(s) in the raw lowering, {} after",
        samples.issues_before,
        samples.issues_after()
    );

    // 4. Co-simulate against the reference implementation.
    let sim = cosim(&module, kernel, 2026).expect("co-simulation");
    println!("co-simulation max |err| vs reference: {}", sim.max_abs_err);

    // 5. Synthesize with the Vitis-style estimator and print the report.
    let synth = csynth(&module, &Target::default()).expect("csynth");
    print!("{}", synth.render());
}
