//! The **MLIR HLS adaptor for LLVM IR** — the paper's core contribution.
//!
//! MLIR's LLVM lowering produces IR a modern LLVM accepts, but a commercial
//! HLS frontend (Vitis HLS embeds a frozen, years-old clang/LLVM) rejects:
//! heap allocation, flattened pointer arithmetic where it expects array
//! subscripts, intrinsics it never learned, attribute spellings from the
//! wrong decade, and names its RTL generator cannot emit. The adaptor is a
//! pipeline of LLVM-IR-to-LLVM-IR passes that rewrites MLIR-generated IR
//! into the dialect the HLS backend understands, *without* detouring through
//! generated C++ — keeping loop metadata and access structure intact.
//!
//! Pipeline order (each pass builds on the previous one's postconditions):
//!
//! 1. [`passes::LegalizeIntrinsics`] — expand `llvm.memcpy`/`llvm.memset`
//!    into loops, drop `llvm.lifetime.*`/`llvm.assume`, rewrite
//!    `llvm.smax`-family intrinsics into compare+select.
//! 2. [`passes::DemoteMalloc`] — turn constant-size `@malloc`/`@free` pairs
//!    into entry-block allocas (on-chip buffers).
//! 3. [`passes::RecoverArrays`] — undo bare-pointer linearization: rebuild
//!    multi-dimensional array types on interface pointers and structured
//!    `getelementptr` subscripts from `i*D + j` chains.
//! 4. [`passes::NormalizeLoopMetadata`] — pin `!llvm.loop` nodes to loop
//!    latches and add constant trip-count hints.
//! 5. [`passes::SynthesizeInterface`] — assign HLS port bindings
//!    (`ap_memory` for arrays, `s_axilite` for scalars) on the top function.
//! 6. [`passes::LegalizeNames`] — make every symbol/label RTL-legal.
//! 7. [`passes::ScrubAttributes`] — drop attributes outside the accepted
//!    whitelist.
//! 8. [`compat::VerifyCompat`] — the acceptance gate: fails if any
//!    "unsupported syntax" remains.
//!
//! [`run_adaptor_budgeted`], which both flows call, runs the enabled passes
//! and the gate and nothing else: the gate is its one compat scan. The
//! paper's Table 4 (issues remaining after each pass) comes from
//! [`run_adaptor_sampled`], which also counts the issues before the passes
//! and after each pass that changed the module.

pub mod compat;
pub mod passes;
pub mod pipeline;

pub use compat::{compat_issues, CompatIssue, IssueKind};
pub use pipeline::{
    registry, run_adaptor, run_adaptor_budgeted, run_adaptor_sampled, AdaptorConfig, AdaptorReport,
    CompatSamples, HlsAdaptor,
};

/// Errors are llvm-lite errors (the adaptor is an LLVM-level component).
pub type Error = llvm_lite::Error;
/// Result alias.
pub type Result<T> = std::result::Result<T, Error>;
