//! `llvm-lite` — a self-contained, dependency-free subset of LLVM IR.
//!
//! This crate models the slice of LLVM IR that matters for High-Level
//! Synthesis front-ends: typed pointers (the pre-opaque-pointer dialect that
//! Vitis-era clang front-ends emit and accept), integer/floating arithmetic,
//! `getelementptr`-based memory addressing, allocas, calls, PHI-based SSA
//! control flow, and `!llvm.loop` metadata carrying pipelining/unrolling
//! directives.
//!
//! It provides:
//!
//! * an arena-backed [`Module`]/[`Function`]/[`Block`]/[`Inst`] representation
//!   ([`module`], [`inst`], [`value`], [`types`]);
//! * an [`builder::IrBuilder`] for programmatic construction;
//! * a textual printer ([`printer`]) and parser ([`parser`]) for a `.ll`
//!   subset that round-trips;
//! * a structural [`verifier`];
//! * analyses: CFG utilities, dominators, natural loops, def-use
//!   ([`analysis`]);
//! * transforms: `mem2reg`, dead-code elimination, CFG simplification
//!   ([`transforms`]);
//! * a reference [`interp`]reter used for co-simulation of HLS flows.
//!
//! The representation is deliberately index-based (no `Rc` graphs): values are
//! small copyable handles resolved against per-function arenas, which keeps
//! rewriting passes cache-friendly and makes structural equality cheap.

pub mod analysis;
pub mod builder;
pub mod inst;
pub mod interp;
pub mod metadata;
pub mod module;
pub mod parser;
pub mod printer;
pub mod transforms;
pub mod types;
pub mod value;
pub mod verifier;

pub use builder::IrBuilder;
pub use inst::{FloatPred, Inst, InstData, IntPred, Opcode};
pub use metadata::{LoopMetadata, MdId};
pub use module::{Block, BlockId, Function, Global, GlobalInit, InstId, Module};
pub use types::Type;
pub use value::Value;

/// Errors produced anywhere in the crate (parsing, verification,
/// interpretation): the IR crates' one error type, shared with `mlir-lite`
/// and the pass manager.
pub use pass_core::{Error, Result};

impl pass_core::PassIr for Module {
    /// Live instructions across all function definitions.
    fn ir_size(&self) -> usize {
        self.functions.iter().map(|f| f.num_insts()).sum()
    }

    fn verify_ir(&self) -> pass_core::PassResult<()> {
        verifier::verify_module_diag(self)
    }
}
