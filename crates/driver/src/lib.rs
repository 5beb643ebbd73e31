//! `driver` — end-to-end orchestration of the two HLS flows.
//!
//! ```text
//!                      kernel MLIR (+ directives)
//!                       /                    \
//!            [adaptor flow]                [C++ flow]
//!        lower → LLVM IR → adaptor     emit C++ → frontend → cleanup
//!                       \                    /
//!                        vitis-sim csynth + co-simulation
//! ```
//!
//! The flows themselves are defined once, in `fuzzing::flow` (re-exported
//! here as [`Flow`], [`FlowArtifacts`] and [`FlowError`]); [`flow`] adds
//! kernel parsing and directive application in front of them. A flow
//! failure is typed: the batch engine turns [`FlowError::Budget`] into
//! [`StageError::BudgetExceeded`] with a `match`, and every other
//! [`FlowError`] into a deterministic fault whose detail is the
//! [`DriverError`] text.
//!
//! The driver also hosts the [`batch`] engine behind `mha-batch`, which runs
//! the whole suite on a worker pool over the content-addressed [`cache`],
//! and the experiment harness used by the bench binaries, which runs each
//! kernel through both flows on that engine and collects the csynth
//! reports and co-simulation errors.
//!
//! # Example: run one kernel through the adaptor flow
//!
//! ```
//! use driver::{run_flow, Directives, Flow};
//!
//! let gemm = kernels::kernel("gemm").expect("suite kernel");
//! let art = run_flow(gemm, &Directives::pipelined(1), Flow::Adaptor)?;
//! // The result is synthesis-ready LLVM IR plus a per-stage timing report.
//! assert!(art.module.top_function().is_some());
//! assert_eq!(art.report.passes[0].pass, "lower");
//! # Ok::<(), driver::DriverError>(())
//! ```

#![warn(missing_docs)]

pub mod batch;
pub mod cache;
pub mod cli;
pub mod corpus;
pub mod cosim;
pub mod experiment;
pub mod flow;
pub mod lint;
pub mod resilience;
pub mod serve;
pub mod supervisor;
pub mod warden;

pub use batch::{run_batch, BatchError, BatchOptions, BatchSummary};
pub use cache::{Cache, CacheError};
pub use corpus::{Corpus, CorpusEntry};
pub use cosim::{cosim, CosimResult};
pub use experiment::{run_experiment, run_suite, Directives, ExperimentRow};
pub use flow::{run_flow, run_flow_on_text, Flow, FlowArtifacts, FlowError};
pub use lint::{lint_kernel, LintReport};
pub use resilience::{
    Breaker, BreakerConfig, BreakerDecision, FairQueue, FairQueueConfig, Shed, ShedClass,
    ShedReason,
};
pub use serve::{ServeConfig, ServeError, Served, Server, STREAM_MEDIA_TYPE};
pub use supervisor::{
    ChaosConfig, ChaosEngine, ChaosFault, FaultClass, Journal, JournalError, RetryPolicy,
    StageError,
};
pub use warden::{RawCompile, Warden, WardenConfig, WardenStats, CRASH_MENU};

/// Unified error type for the driver layer.
#[derive(Debug, Clone)]
pub struct DriverError(pub String);

impl std::fmt::Display for DriverError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "driver error: {}", self.0)
    }
}

impl std::error::Error for DriverError {}

impl From<pass_core::Diagnostic> for DriverError {
    fn from(d: pass_core::Diagnostic) -> Self {
        DriverError(d.to_string())
    }
}

/// An IR-crate error reaches the driver from MLIR parsing, verification
/// or lowering, so it reads `mlir: ...`; an adaptor failure is prefixed
/// `llvm: ` by the [`FlowError`] conversion.
impl From<pass_core::Error> for DriverError {
    fn from(e: pass_core::Error) -> Self {
        DriverError(format!("mlir: {e}"))
    }
}

impl From<hls_cpp::Error> for DriverError {
    fn from(e: hls_cpp::Error) -> Self {
        DriverError(format!("cpp-flow: {e}"))
    }
}

/// A flow failure reads like every other `DriverError`: the failing
/// layer's prefix (`mlir:`, `llvm:`, `cpp-flow:`), then its own message.
/// A budget trip renders as the trip itself.
impl From<FlowError> for DriverError {
    fn from(e: FlowError) -> Self {
        match e {
            FlowError::Budget { trip, .. } => DriverError(trip.to_string()),
            FlowError::Lower(e) => e.into(),
            FlowError::Adaptor(e) => DriverError(format!("llvm: {e}")),
            FlowError::EmitCpp(e) | FlowError::Frontend(e) => e.into(),
            FlowError::Cleanup(d) => d.into(),
        }
    }
}

impl From<vitis_sim::CsynthError> for DriverError {
    fn from(e: vitis_sim::CsynthError) -> Self {
        DriverError(format!("csynth: {e}"))
    }
}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, DriverError>;
