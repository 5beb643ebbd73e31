//! The two competing flows, defined once.
//!
//! The paper compares two paths from the same directive-annotated MLIR
//! module to HLS-ready LLVM IR (DESIGN.md §1):
//!
//! * the **adaptor flow**: lower → LLVM IR → the paper's adaptor;
//! * the **C++ flow** (the ScaleHLS-style baseline): emit HLS C++ → the
//!   Vitis-stand-in frontend → the cleanup fixpoint.
//!
//! [`run`] is the only place their stages are composed. The batch engine,
//! `mha-serve`, the warden worker, the paper tables and the fuzz oracles
//! all call it. It lives here because `fuzzing` is the lowest crate that
//! depends on every stage crate, and `driver` depends on `fuzzing`.
//!
//! Every stage boundary (`flow/lower`, `flow/emit-cpp`, `flow/frontend`)
//! charges one fuel unit and checks the deadline, and every pass pipeline
//! inside — lowering's cleanup, the adaptor, the C++ cleanup — runs under
//! the same [`Budget`]. A failure comes back as a [`FlowError`] naming the
//! stage; a budget trip is [`FlowError::Budget`], never error text.

use std::fmt;

use adaptor::AdaptorConfig;
use mlir_lite::MlirModule;
use pass_core::{Budget, BudgetError, Diagnostic, Error, PipelineReport};

/// Which path from MLIR to HLS-ready LLVM IR.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Flow {
    /// Direct IR translation + the paper's adaptor.
    Adaptor,
    /// Emit HLS C++, re-compile with the Vitis-stand-in frontend.
    Cpp,
}

impl Flow {
    /// Display name used in tables.
    pub fn label(self) -> &'static str {
        match self {
            Flow::Adaptor => "adaptor",
            Flow::Cpp => "hls-c++",
        }
    }
}

/// Everything a flow run produces.
pub struct FlowArtifacts {
    /// The HLS-ready module.
    pub module: llvm_lite::Module,
    /// Generated C++ (C++ flow only).
    pub cpp_source: Option<String>,
    /// Per-stage timing of the MLIR→HLS-ready-IR conversion.
    pub report: PipelineReport,
}

impl FlowArtifacts {
    /// Total conversion wall-clock time, microseconds.
    pub fn elapsed_us(&self) -> u64 {
        self.report.total_us()
    }
}

/// Why a flow stopped. Each variant names its stage; the message is the
/// failing stage's own error, unwrapped.
#[derive(Clone, Debug)]
pub enum FlowError {
    /// The budget ran out.
    Budget {
        /// The flow stage that was running.
        stage: &'static str,
        /// The trip, naming the boundary or pass that saw it.
        trip: BudgetError,
    },
    /// Lowering rejected the module (stage `lower`).
    Lower(lowering::Error),
    /// The adaptor could not legalize the module (stage `adaptor`).
    Adaptor(llvm_lite::Error),
    /// The module has no HLS C++ spelling (stage `emit-cpp`).
    EmitCpp(hls_cpp::Error),
    /// The frontend rejected the emitted C++ (stage `frontend`).
    Frontend(hls_cpp::Error),
    /// The C++ flow's cleanup fixpoint failed (stage `cleanup`).
    Cleanup(Diagnostic),
}

impl FlowError {
    /// The failing stage: `lower`, `adaptor`, `emit-cpp`, `frontend` or
    /// `cleanup`.
    pub fn stage(&self) -> &'static str {
        match self {
            FlowError::Budget { stage, .. } => stage,
            FlowError::Lower(_) => "lower",
            FlowError::Adaptor(_) => "adaptor",
            FlowError::EmitCpp(_) => "emit-cpp",
            FlowError::Frontend(_) => "frontend",
            FlowError::Cleanup(_) => "cleanup",
        }
    }
}

/// A pass pipeline's error in `stage`: its budget trip is
/// [`FlowError::Budget`], anything else is the stage's own failure.
fn or_trip(stage: &'static str, fail: fn(Error) -> FlowError) -> impl Fn(Error) -> FlowError {
    move |e| match e {
        Error::Budget(trip) => FlowError::Budget { stage, trip },
        e => fail(e),
    }
}

impl fmt::Display for FlowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlowError::Budget { trip, .. } => trip.fmt(f),
            FlowError::Lower(e) => e.fmt(f),
            FlowError::Adaptor(e) => e.fmt(f),
            FlowError::EmitCpp(e) | FlowError::Frontend(e) => e.fmt(f),
            FlowError::Cleanup(d) => d.fmt(f),
        }
    }
}

impl std::error::Error for FlowError {}

/// Run `flow` over a parsed, directive-applied module under `budget`.
/// `on_stage` hears each stage's name as it starts, so a caller that
/// catches a panic can say which stage panicked.
pub fn run(
    m: MlirModule,
    flow: Flow,
    budget: &Budget,
    on_stage: &mut dyn FnMut(&'static str),
) -> Result<FlowArtifacts, FlowError> {
    let charge = |stage: &'static str| {
        budget
            .charge(1, &format!("flow/{stage}"))
            .map_err(|trip| FlowError::Budget { stage, trip })
    };
    let cleanup = llvm_lite::transforms::standard_cleanup();
    let mut report = PipelineReport::new(flow.label());
    let (module, cpp_source) = match flow {
        Flow::Adaptor => {
            on_stage("lower");
            charge("lower")?;
            let mut module = report.time_stage("lower", || {
                let mut out = lowering::lower_module(m).map_err(FlowError::Lower)?;
                cleanup
                    .run_to_fixpoint_budgeted(&mut out, 4, budget)
                    .map_err(or_trip("lower", FlowError::Lower))?;
                Ok(out)
            })?;
            on_stage("adaptor");
            report
                .time_stage("adaptor", || {
                    adaptor::run_adaptor_budgeted(&mut module, &AdaptorConfig::default(), budget)
                })
                .map_err(or_trip("adaptor", FlowError::Adaptor))?;
            (module, None)
        }
        Flow::Cpp => {
            on_stage("emit-cpp");
            charge("emit-cpp")?;
            let cpp = report
                .time_stage("emit-cpp", || hls_cpp::emit_cpp(&m))
                .map_err(FlowError::EmitCpp)?;
            on_stage("frontend");
            charge("frontend")?;
            let mut module = report
                .time_stage("frontend", || hls_cpp::compile_cpp(&m.name, &cpp))
                .map_err(FlowError::Frontend)?;
            on_stage("cleanup");
            let fixpoint = cleanup
                .run_to_fixpoint_budgeted(&mut module, 4, budget)
                .map_err(or_trip("cleanup", |e| FlowError::Cleanup(e.into())))?;
            report.extend_prefixed("cleanup", &fixpoint);
            (module, Some(cpp))
        }
    };
    Ok(FlowArtifacts {
        module,
        cpp_source,
        report,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pass_core::BudgetKind;

    fn gemm() -> MlirModule {
        let k = kernels::kernel("gemm").unwrap();
        mlir_lite::parser::parse_module(k.name, k.mlir).unwrap()
    }

    #[test]
    fn lowering_cleanup_runs_under_the_flow_budget() {
        // `flow/lower` takes the only unit; lowering's own cleanup is the
        // next to charge, so the trip lands there and not in the adaptor.
        let mut stages = Vec::new();
        let budget = Budget::from_limits(None, Some(1));
        match run(gemm(), Flow::Adaptor, &budget, &mut |s| stages.push(s)) {
            Err(FlowError::Budget { stage, trip }) => {
                assert_eq!((stage, trip.kind), ("lower", BudgetKind::Fuel));
                assert_eq!(trip.stage, "mem2reg");
            }
            Err(other) => panic!("expected a budget trip, got {other:?}"),
            Ok(_) => panic!("one unit of fuel cannot lower gemm"),
        }
        assert_eq!(stages, ["lower"]);
    }

    /// Run `flow` over gemm with `fuel` units and return the trip.
    fn trip(flow: Flow, fuel: u64) -> (&'static str, BudgetError) {
        let budget = Budget::from_limits(None, Some(fuel));
        match run(gemm(), flow, &budget, &mut |_| {}) {
            Err(FlowError::Budget { stage, trip }) => (stage, trip),
            Err(other) => panic!("expected a budget trip, got {other:?}"),
            Ok(_) => panic!("{fuel} unit(s) of fuel cannot finish the {flow:?} flow"),
        }
    }

    #[test]
    fn adaptor_pipeline_trip_is_typed_and_names_the_pass() {
        // `flow/lower` plus every pass lowering's cleanup runs, then two
        // adaptor passes: the third one trips.
        let mut lowered = lowering::lower_module(gemm()).unwrap();
        let cleanup = llvm_lite::transforms::standard_cleanup()
            .run_to_fixpoint(&mut lowered, 4)
            .unwrap();
        let fuel = 1 + cleanup.passes.len() as u64 + 2;
        let (stage, trip) = trip(Flow::Adaptor, fuel);
        assert_eq!((stage, trip.kind), ("adaptor", BudgetKind::Fuel));
        assert_eq!(trip.stage, adaptor::pipeline::PASS_NAMES[2]);
    }

    #[test]
    fn cpp_cleanup_trip_is_typed_and_names_the_pass() {
        // `flow/emit-cpp`, `flow/frontend` and mem2reg take the three
        // units; the cleanup's second pass trips.
        let (stage, trip) = trip(Flow::Cpp, 3);
        assert_eq!((stage, trip.kind), ("cleanup", BudgetKind::Fuel));
        assert_eq!(trip.stage, "fold-constants");
    }

    #[test]
    fn stages_are_announced_in_order() {
        for (flow, want) in [
            (Flow::Adaptor, &["lower", "adaptor"][..]),
            (Flow::Cpp, &["emit-cpp", "frontend", "cleanup"][..]),
        ] {
            let mut stages = Vec::new();
            run(gemm(), flow, &Budget::unlimited(), &mut |s| stages.push(s)).unwrap();
            assert_eq!(stages, want, "{flow:?}");
        }
    }
}
