//! Structured, source-located diagnostics.
//!
//! Every failure that crosses a pass-manager boundary — verifier rejection,
//! compat-gate failure, pass error — is a [`Diagnostic`]: a severity, the
//! pass (or component) that produced it, a message, and a [`Loc`] naming
//! the function/block/instruction it refers to. The rendered form is
//! stable and asserted by tests:
//!
//! ```text
//! error[verify-compat] @gemm:entry:%7: dynamic allocation is not synthesizable
//! ```

/// How bad it is.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Informational note.
    Note,
    /// Suspicious but not fatal.
    Warning,
    /// The operation failed.
    #[default]
    Error,
}

impl std::fmt::Display for Severity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Severity::Note => "note",
            Severity::Warning => "warning",
            Severity::Error => "error",
        })
    }
}

/// Where in the IR a diagnostic points. All components are optional;
/// rendering includes whatever is known, in `@function:block:inst` order.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Loc {
    /// Enclosing function (symbol name, no sigil).
    pub function: Option<String>,
    /// Basic block / MLIR block label.
    pub block: Option<String>,
    /// Instruction / operation (printed form, e.g. `%7` or `affine.for`).
    pub inst: Option<String>,
}

impl Loc {
    /// Location naming just a function.
    pub fn function(name: impl Into<String>) -> Loc {
        Loc {
            function: Some(name.into()),
            ..Loc::default()
        }
    }

    /// Extend with a block label.
    pub fn in_block(mut self, block: impl Into<String>) -> Loc {
        self.block = Some(block.into());
        self
    }

    /// Extend with an instruction/operation reference.
    pub fn at_inst(mut self, inst: impl Into<String>) -> Loc {
        self.inst = Some(inst.into());
        self
    }

    /// True when nothing is known.
    pub fn is_empty(&self) -> bool {
        self.function.is_none() && self.block.is_none() && self.inst.is_none()
    }
}

impl std::fmt::Display for Loc {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut wrote = false;
        if let Some(func) = &self.function {
            write!(f, "@{func}")?;
            wrote = true;
        }
        if let Some(block) = &self.block {
            if wrote {
                f.write_str(":")?;
            }
            f.write_str(block)?;
            wrote = true;
        }
        if let Some(inst) = &self.inst {
            if wrote {
                f.write_str(":")?;
            }
            f.write_str(inst)?;
        }
        Ok(())
    }
}

/// One structured diagnostic.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Diagnostic {
    /// Severity class.
    pub severity: Severity,
    /// Pass or component that raised it (e.g. `verifier`, `verify-compat`).
    pub pass: String,
    /// Human-readable description.
    pub message: String,
    /// IR location, as precise as the producer knows.
    pub loc: Loc,
}

impl Diagnostic {
    /// An error diagnostic from the given component.
    pub fn error(pass: impl Into<String>, message: impl Into<String>) -> Diagnostic {
        Diagnostic {
            severity: Severity::Error,
            pass: pass.into(),
            message: message.into(),
            loc: Loc::default(),
        }
    }

    /// A warning diagnostic from the given component.
    pub fn warning(pass: impl Into<String>, message: impl Into<String>) -> Diagnostic {
        Diagnostic {
            severity: Severity::Warning,
            ..Diagnostic::error(pass, message)
        }
    }

    /// An informational note from the given component.
    pub fn note(pass: impl Into<String>, message: impl Into<String>) -> Diagnostic {
        Diagnostic {
            severity: Severity::Note,
            ..Diagnostic::error(pass, message)
        }
    }

    /// Attach a location.
    pub fn with_loc(mut self, loc: Loc) -> Diagnostic {
        self.loc = loc;
        self
    }

    /// Re-attribute to a different pass (used by pass managers to stamp the
    /// failing pipeline stage onto verifier output).
    pub fn in_pass(mut self, pass: impl Into<String>) -> Diagnostic {
        self.pass = pass.into();
        self
    }
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}[{}]", self.severity, self.pass)?;
        if !self.loc.is_empty() {
            write!(f, " {}", self.loc)?;
        }
        write!(f, ": {}", self.message)
    }
}

impl std::error::Error for Diagnostic {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rendered_format_is_stable() {
        let d = Diagnostic::error("verify-compat", "dynamic allocation is not synthesizable")
            .with_loc(Loc::function("gemm").in_block("entry").at_inst("%7"));
        assert_eq!(
            d.to_string(),
            "error[verify-compat] @gemm:entry:%7: dynamic allocation is not synthesizable"
        );
    }

    #[test]
    fn partial_locations_render_what_they_know() {
        let d = Diagnostic::error("verifier", "bad").with_loc(Loc::function("f"));
        assert_eq!(d.to_string(), "error[verifier] @f: bad");
        let d = Diagnostic::warning("p", "msg");
        assert_eq!(d.to_string(), "warning[p]: msg");
    }
}
