//! Co-simulation: execute an HLS-ready module against the kernel's
//! reference implementation (the analogue of Vitis C/RTL co-simulation).

use kernels::{gen_inputs, Kernel};
use llvm_lite::interp::{Interpreter, RtVal};

use crate::{DriverError, Result};

/// Outcome of one co-simulation.
#[derive(Clone, Debug, PartialEq)]
pub struct CosimResult {
    /// Max |module − reference| over all output elements; a NaN on one
    /// side only is an infinite error.
    pub max_abs_err: f32,
    /// Interpreter instruction count (a crude dynamic-cost proxy).
    pub steps: u64,
}

impl CosimResult {
    /// Pass/fail at the standard HLS co-simulation tolerance.
    pub fn passed(&self) -> bool {
        self.max_abs_err <= 1e-5
    }
}

/// Run the module's top function on generated inputs and compare every
/// output buffer against the reference implementation.
pub fn cosim(module: &llvm_lite::Module, kernel: &Kernel, seed: u64) -> Result<CosimResult> {
    let top = module
        .top_function()
        .ok_or_else(|| DriverError("module has no top function".into()))?
        .name
        .clone();
    let args = gen_inputs(kernel, seed);

    // Reference.
    let mut expect = args.clone();
    (kernel.reference)(&mut expect);

    // Module under test.
    let mut interp = Interpreter::new(module);
    let ptrs: Vec<u64> = args.iter().map(|buf| interp.mem.alloc_f32(buf)).collect();
    let call_args: Vec<RtVal> = ptrs.iter().map(|p| RtVal::P(*p)).collect();
    interp
        .call(&top, &call_args)
        .map_err(|e| DriverError(format!("{}: {e}", kernel.name)))?;

    let mut max_abs_err = 0.0f32;
    for (i, spec) in kernel.args.iter().enumerate() {
        if !spec.output {
            continue;
        }
        let got = interp
            .mem
            .read_f32(ptrs[i], spec.len)
            .map_err(|e| DriverError(e.to_string()))?;
        for (g, e) in got.iter().zip(&expect[i]) {
            max_abs_err = max_abs_err.max(abs_err(*g, *e));
        }
    }
    Ok(CosimResult {
        max_abs_err,
        steps: interp.stats.steps,
    })
}

/// |got − want| for one output element. Equal values agree (equal
/// infinities too), NaN on both sides agrees, and a NaN on one side only
/// is an infinite error: `f32::max` would drop a NaN difference and let a
/// module that writes NaN pass.
fn abs_err(got: f32, want: f32) -> f32 {
    if got == want || (got.is_nan() && want.is_nan()) {
        0.0
    } else if got.is_nan() || want.is_nan() {
        f32::INFINITY
    } else {
        (got - want).abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::Directives;
    use crate::flow::{run_flow, Flow};

    #[test]
    fn every_kernel_cosims_exactly_through_both_flows() {
        for k in kernels::all_kernels() {
            for flow in [Flow::Adaptor, Flow::Cpp] {
                let art = run_flow(k, &Directives::default(), flow).unwrap();
                let r = cosim(&art.module, k, 2026).unwrap();
                assert!(
                    r.passed(),
                    "{} via {:?}: max err {}",
                    k.name,
                    flow,
                    r.max_abs_err
                );
                // Same operation order on both paths: errors are exactly 0.
                assert_eq!(
                    r.max_abs_err, 0.0,
                    "{} via {:?} diverged from reference",
                    k.name, flow
                );
            }
        }
    }

    #[test]
    fn a_nan_on_one_side_only_is_an_infinite_error() {
        assert_eq!(abs_err(f32::NAN, 1.0), f32::INFINITY);
        assert_eq!(abs_err(1.0, f32::NAN), f32::INFINITY);
        assert_eq!(abs_err(f32::NAN, -f32::NAN), 0.0);
        assert_eq!(abs_err(f32::INFINITY, f32::INFINITY), 0.0);
        assert_eq!(abs_err(f32::INFINITY, f32::NEG_INFINITY), f32::INFINITY);
        assert_eq!(abs_err(0.5, -0.25), 0.75);
    }

    /// One output buffer of four floats, doubled by the reference.
    const DOUBLE: kernels::Kernel = kernels::Kernel {
        name: "double",
        description: "out = 2 * in",
        mlir: "",
        args: &[
            kernels::ArgSpec {
                name: "in",
                len: 4,
                input: true,
                output: false,
            },
            kernels::ArgSpec {
                name: "out",
                len: 4,
                input: false,
                output: true,
            },
        ],
        reference: |bufs| {
            let doubled: Vec<f32> = bufs[0].iter().map(|x| 2.0 * x).collect();
            bufs[1] = doubled;
        },
    };

    /// A module that stores `%z = <value>` to `out[i]`, where `%x` is
    /// `in[i]`.
    fn module(value: &str) -> llvm_lite::Module {
        let src = format!(
            r#"
define void @double([4 x float]* %in, [4 x float]* %out) "hls.top"="1" {{
entry:
  br label %header

header:
  %i = phi i64 [ 0, %entry ], [ %next, %body ]
  %c = icmp slt i64 %i, 4
  br i1 %c, label %body, label %exit

body:
  %p = getelementptr inbounds [4 x float], [4 x float]* %in, i64 0, i64 %i
  %x = load float, float* %p, align 4
  %z = {value}
  %q = getelementptr inbounds [4 x float], [4 x float]* %out, i64 0, i64 %i
  store float %z, float* %q, align 4
  %next = add i64 %i, 1
  br label %header

exit:
  ret void
}}
"#
        );
        llvm_lite::parser::parse_module("double", &src).unwrap()
    }

    #[test]
    fn a_module_that_writes_nan_fails_cosim() {
        let exact = cosim(&module("fmul float %x, 0x4000000000000000"), &DOUBLE, 1).unwrap();
        assert_eq!(exact.max_abs_err, 0.0);
        assert!(exact.passed());

        // Every output is `0.0 / 0.0`.
        let zero = "0x0000000000000000";
        let r = cosim(&module(&format!("fdiv float {zero}, {zero}")), &DOUBLE, 1).unwrap();
        assert_eq!(r.max_abs_err, f32::INFINITY);
        assert!(!r.passed());
    }

    #[test]
    fn cosim_reports_dynamic_cost() {
        let k = kernels::kernel("gemm").unwrap();
        let art = run_flow(k, &Directives::default(), Flow::Adaptor).unwrap();
        let r = cosim(&art.module, k, 1).unwrap();
        // 16^3 inner iterations with ~10 executed ops each.
        assert!(r.steps > 16 * 16 * 16);
    }
}
