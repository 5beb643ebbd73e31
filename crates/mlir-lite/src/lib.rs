//! `mlir-lite` — a self-contained subset of MLIR.
//!
//! Models the multi-level IR side of the paper's pipeline: generic
//! operations with regions, the `builtin`/`func`/`arith`/`math`/`memref`/
//! `affine`/`scf`/`cf` dialects, first-class affine maps, HLS directive
//! attributes, a structured-syntax printer and parser, a verifier, and an
//! MLIR-level pass manager with canonicalization/CSE/directive passes.
//!
//! The design follows upstream MLIR's shape (ops own regions own blocks own
//! ops; values are handles) but with a tree-ownership model instead of
//! uniqued context objects, which keeps the whole crate safe Rust with no
//! interior mutability.

pub mod affine;
pub mod attr;
pub mod dialects;
pub mod ir;
pub mod parser;
pub mod passes;
pub mod printer;
pub mod stats;
pub mod verifier;

pub use affine::{AffineExpr, AffineMap};
pub use attr::Attr;
pub use ir::{MBlock, MType, MValue, MValueKind, MlirModule, Op, Region};

/// Errors for parsing/verification at the MLIR level: the IR crates' one
/// error type, shared with `llvm-lite` and the pass manager.
pub use pass_core::{Error, Result};

impl pass_core::PassIr for MlirModule {
    /// Total operation count (all nesting levels).
    fn ir_size(&self) -> usize {
        self.count_ops(|_| true)
    }

    fn verify_ir(&self) -> pass_core::PassResult<()> {
        verifier::verify_module_diag(self)
    }
}
