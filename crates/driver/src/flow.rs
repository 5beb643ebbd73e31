//! The two competing flows from one kernel definition.
//!
//! The flows themselves are defined once, in [`fuzzing::flow`]; this
//! module parses a kernel or raw MLIR text, applies the directives, and
//! hands the module to [`fuzzing::flow::run`].

use kernels::Kernel;
use mlir_lite::dialects::hls;
use mlir_lite::MlirModule;
use pass_core::Budget;

pub use fuzzing::flow::{Flow, FlowArtifacts, FlowError};

use crate::experiment::Directives;
use crate::Result;

/// Parse a kernel into MLIR and apply directives.
pub fn prepare_mlir(kernel: &Kernel, directives: &Directives) -> Result<MlirModule> {
    prepare_mlir_text(kernel.name, kernel.mlir, directives)
}

/// [`prepare_mlir`] over raw MLIR text — the entry point for sources that
/// are not suite [`Kernel`]s (fuzzer output, `mha-serve` request bodies).
pub fn prepare_mlir_text(name: &str, mlir: &str, directives: &Directives) -> Result<MlirModule> {
    let mut m = mlir_lite::parser::parse_module(name, mlir)?;
    mlir_lite::verifier::verify_module(&m)?;
    if let Some(ii) = directives.pipeline_ii {
        use mlir_lite::passes::MlirPass;
        mlir_lite::passes::PipelineInnermost { ii }.run(&mut m)?;
    }
    if let Some(factor) = directives.unroll_factor {
        for f in &mut m.ops {
            f.walk_mut(&mut |op| {
                if op.name == "affine.for" && hls::pipeline_ii(op).is_some() {
                    hls::set_unroll(op, factor);
                }
            });
        }
    }
    if directives.flatten {
        for f in &mut m.ops {
            f.walk_mut(&mut |op| {
                if op.name == "affine.for" && hls::pipeline_ii(op).is_some() {
                    op.attrs
                        .insert(hls::FLATTEN.to_string(), mlir_lite::Attr::Bool(true));
                }
            });
        }
    }
    if let Some(factor) = directives.partition_factor {
        for f in &mut m.ops {
            f.attrs.insert(
                hls::ARRAY_PARTITION.to_string(),
                mlir_lite::Attr::Str(format!("cyclic:{factor}")),
            );
        }
    }
    Ok(m)
}

/// Run one flow over a kernel.
pub fn run_flow(kernel: &Kernel, directives: &Directives, flow: Flow) -> Result<FlowArtifacts> {
    let unlimited = Budget::unlimited();
    run_flow_on_text(kernel.name, kernel.mlir, directives, flow, &unlimited)
}

/// [`prepare_mlir_text`] then [`fuzzing::flow::run`] under `budget`, for a
/// `(name, mlir)` pair. A failure, a budget trip included, becomes
/// [`crate::DriverError`] text; a caller that classifies failures calls
/// the two halves and matches on [`FlowError`].
pub fn run_flow_on_text(
    name: &str,
    mlir: &str,
    directives: &Directives,
    flow: Flow,
    budget: &Budget,
) -> Result<FlowArtifacts> {
    let m = prepare_mlir_text(name, mlir, directives)?;
    Ok(fuzzing::flow::run(m, flow, budget, &mut |_| {})?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_flows_produce_synthesis_ready_modules() {
        let k = kernels::kernel("gemm").unwrap();
        let d = Directives::pipelined(1);
        for flow in [Flow::Adaptor, Flow::Cpp] {
            let art = run_flow(k, &d, flow).unwrap();
            let r = vitis_sim::csynth(&art.module, &vitis_sim::Target::default());
            assert!(r.is_ok(), "{flow:?}: {r:?}");
        }
    }

    #[test]
    fn adaptor_flow_reports_resolved_issues() {
        let k = kernels::kernel("two_mm").unwrap();
        let art = run_flow(k, &Directives::default(), Flow::Adaptor).unwrap();
        let rep = art.adaptor_report.unwrap();
        assert!(rep.issues_before > 0);
        assert_eq!(rep.issues_after, 0);
        // two_mm's heap temporary must have been demoted.
        assert!(rep.changed_passes.iter().any(|p| p == "demote-malloc"));
    }

    #[test]
    fn flow_report_breaks_down_stages() {
        let k = kernels::kernel("gemm").unwrap();
        let adaptor = run_flow(k, &Directives::default(), Flow::Adaptor).unwrap();
        let stages: Vec<&str> = adaptor
            .report
            .passes
            .iter()
            .map(|p| p.pass.as_str())
            .collect();
        assert_eq!(stages, vec!["lower", "adaptor"]);
        assert_eq!(adaptor.elapsed_us(), adaptor.report.total_us());
        let cpp = run_flow(k, &Directives::default(), Flow::Cpp).unwrap();
        let stages: Vec<&str> = cpp.report.passes.iter().map(|p| p.pass.as_str()).collect();
        assert!(stages.starts_with(&["emit-cpp", "frontend"]));
        assert!(stages.iter().any(|s| s.starts_with("cleanup/")));
    }

    #[test]
    fn cpp_flow_exposes_source() {
        let k = kernels::kernel("fir").unwrap();
        let art = run_flow(k, &Directives::pipelined(1), Flow::Cpp).unwrap();
        let src = art.cpp_source.unwrap();
        assert!(src.contains("#pragma HLS PIPELINE II=1"));
        assert!(src.contains("void fir("));
    }

    #[test]
    fn directives_survive_both_flows() {
        let k = kernels::kernel("gemm").unwrap();
        let d = Directives {
            pipeline_ii: Some(2),
            unroll_factor: Some(2),
            partition_factor: None,
            flatten: false,
        };
        for flow in [Flow::Adaptor, Flow::Cpp] {
            let art = run_flow(k, &d, flow).unwrap();
            assert!(
                art.module
                    .loop_mds
                    .iter()
                    .any(|md| md.pipeline_ii == Some(2) && md.unroll_factor == Some(2)),
                "{flow:?} lost directives: {:?}",
                art.module.loop_mds
            );
        }
    }
}
