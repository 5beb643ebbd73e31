//! Crash-resilient structured fuzzing of the adaptor stack, and the one
//! definition of the two flows it checks.
//!
//! * [`flow`] — the adaptor flow and the C++ flow, composed once:
//!   [`flow::run`] takes a parsed MLIR module, a [`pass_core::Budget`] and
//!   a stage observer and returns the HLS-ready module or a typed
//!   [`flow::FlowError`]. It lives in this crate because this is the
//!   lowest crate that depends on every stage crate; `driver` re-exports
//!   it and runs it for the batch engine, `mha-serve` and the warden.
//!
//! Four fuzzing layers sit on top, composed by the `mha-fuzz` /
//! `mha-reduce` binaries in the driver crate:
//!
//! * [`rng`] — a stable SplitMix64 stream so corpus entries replay from a
//!   seed alone, forever.
//! * [`gen`] — a seeded generator of valid-by-construction MLIR-lite
//!   kernels (multi-loop and imperfect nests, guards, accumulation, relu,
//!   multiple buffers, degenerate bounds).
//! * [`oracle`] — the checks every kernel must survive: parse/verify,
//!   print∘parse round-trips at both IR levels, both flows through
//!   [`flow::run`] (verified after each pass that changed the IR), and
//!   bit-exact differential
//!   execution — each stage under `catch_unwind` and a [`pass_core`]
//!   budget so panics and hangs become findings, not fuzzer deaths.
//! * [`sig`] + [`mod@reduce`] + [`campaign`] — normalized failure signatures
//!   for dedup, a delta-debugging text minimizer that preserves the
//!   signature, and the seed-range loop tying it together.

#![warn(missing_docs)]

pub mod campaign;
pub mod flow;
pub mod gen;
pub mod oracle;
pub mod reduce;
pub mod rng;
pub mod sig;

pub use campaign::{
    run_all, run_campaign, run_campaign_with, CampaignOpts, CampaignResult, Finding, OracleRunner,
};
pub use gen::{generate, GenConfig, GeneratedKernel, TOP_NAME};
pub use oracle::{run_legality_oracle, run_oracles, OracleOpts};
pub use reduce::{reduce, ReduceOpts, ReduceResult};
pub use sig::{Failure, OracleKind, Signature};
