//! `hls-cpp` — the baseline flow the paper compares against.
//!
//! MLIR-based HLS tools (ScaleHLS et al.) reach Vitis by *emitting HLS C++*
//! with `#pragma HLS` directives, then letting Vitis' own clang frontend
//! re-compile that C++ into LLVM IR. This crate reproduces both halves:
//!
//! * [`emit`] — an MLIR → HLS C++ code generator (loops become `for`
//!   statements, affine subscripts become C array indexing, directives
//!   become pragmas);
//! * [`frontend`] — a C-subset compiler (lexer → AST → llvm-lite codegen)
//!   standing in for Vitis' frozen clang: locals become allocas, loop
//!   counters are `int`s sign-extended at each use, and pragmas become
//!   `!llvm.loop` metadata on latches.
//!
//! The composition `frontend(emit(mlir))`, followed by the cleanup
//! fixpoint, is the "C++ flow" (composed in `fuzzing::flow`); the paper's
//! adaptor flow bypasses it. Comparing the two flows' synthesis results
//! (same scheduler, same kernels) reproduces the paper's headline
//! experiment. The information loss of the detour is *structural*: affine
//! maps become strings and must be re-derived, value names vanish, and
//! anything the emitter cannot spell in C is an error rather than a pass.

pub mod ast;
pub mod codegen;
pub mod emit;
pub mod frontend;
pub mod lexer;
pub mod parser;

pub use emit::emit_cpp;
pub use frontend::compile_cpp;

/// Errors from either half of the C++ flow.
#[derive(Debug, Clone, PartialEq)]
pub enum Error {
    /// The MLIR module contains something the C++ emitter cannot express.
    Emit(String),
    /// C source failed to lex/parse.
    Parse { line: u32, msg: String },
    /// Semantic/codegen failure.
    Codegen(String),
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::Emit(m) => write!(f, "C++ emission error: {m}"),
            Error::Parse { line, msg } => write!(f, "C parse error at line {line}: {msg}"),
            Error::Codegen(m) => write!(f, "C codegen error: {m}"),
        }
    }
}

impl std::error::Error for Error {}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, Error>;
