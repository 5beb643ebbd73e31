//! The one error type of the IR crates.
//!
//! `llvm-lite` and `mlir-lite` re-export [`Error`] as their own, so a
//! failure keeps its variant from the parser, verifier, interpreter or pass
//! that raised it up to whoever matches on it. A budget trip is
//! [`Error::Budget`] from the pass that charged the fuel to the flow that
//! reports it; nothing reads a trip back out of text.

use std::fmt;

use crate::budget::BudgetError;
use crate::diag::Diagnostic;

/// Errors produced anywhere in the IR crates: parsing, verification,
/// interpretation, transforms, pass pipelines and budgets.
#[derive(Debug, Clone, PartialEq)]
pub enum Error {
    /// Textual parse error.
    Parse {
        /// 1-based line number.
        line: u32,
        /// What the parser expected or found.
        msg: String,
    },
    /// A module or function failed structural verification.
    Verify(String),
    /// The interpreter trapped (OOB access, missing function, div-by-zero...).
    Interp(String),
    /// A transform or lowering was asked to do something unsupported.
    Transform(String),
    /// A structured, located diagnostic from the pass/verifier layer.
    Diag(Diagnostic),
    /// A pipeline ran out of budget.
    Budget(BudgetError),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Parse { line, msg } => write!(f, "parse error at line {line}: {msg}"),
            Error::Verify(m) => write!(f, "verification error: {m}"),
            Error::Interp(m) => write!(f, "interpreter trap: {m}"),
            Error::Transform(m) => write!(f, "transform error: {m}"),
            Error::Diag(d) => d.fmt(f),
            Error::Budget(trip) => trip.fmt(f),
        }
    }
}

impl std::error::Error for Error {}

impl From<Diagnostic> for Error {
    fn from(d: Diagnostic) -> Error {
        Error::Diag(d)
    }
}

impl From<BudgetError> for Error {
    fn from(trip: BudgetError) -> Error {
        Error::Budget(trip)
    }
}

/// A pass returns a [`Diagnostic`]; any other error becomes one under the
/// `ir` component, which a pass manager re-attributes to the failing pass.
impl From<Error> for Diagnostic {
    fn from(e: Error) -> Diagnostic {
        match e {
            Error::Diag(d) => d,
            other => Diagnostic::error("ir", other.to_string()),
        }
    }
}

/// Result alias over [`Error`].
pub type Result<T> = std::result::Result<T, Error>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::BudgetKind;

    #[test]
    fn each_variant_renders_its_own_text() {
        let parse = Error::Parse {
            line: 3,
            msg: "expected ')'".into(),
        };
        assert_eq!(parse.to_string(), "parse error at line 3: expected ')'");
        assert_eq!(
            Error::Interp("div by zero".into()).to_string(),
            "interpreter trap: div by zero"
        );
        let trip = BudgetError::new(BudgetKind::Fuel, "dce", "pool empty");
        assert_eq!(
            Error::from(trip).to_string(),
            "fuel budget exceeded in dce: pool empty"
        );
        let d = Diagnostic::error("verifier", "bad");
        assert_eq!(Error::from(d.clone()).to_string(), d.to_string());
    }

    #[test]
    fn a_diagnostic_survives_the_round_trip() {
        let d = Diagnostic::error("verify-compat", "left over");
        assert_eq!(Diagnostic::from(Error::from(d.clone())), d);
        let wrapped = Diagnostic::from(Error::Transform("no".into()));
        assert_eq!(wrapped.to_string(), "error[ir]: transform error: no");
    }
}
