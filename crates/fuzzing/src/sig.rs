//! Normalized failure signatures for deduplication.
//!
//! Two failures are "the same bug" when they have the same *oracle kind*,
//! the same *stage*, and the same *stable message prefix*. Raw messages
//! embed line numbers, element indices, and float values that vary from
//! kernel to kernel; normalization strips those (digit runs become `#`)
//! and truncates, so a signature survives reduction — the minimized kernel
//! still fails with the identical signature even though its line numbers
//! and values changed.

use std::fmt;

/// Which oracle tripped. The set is closed so signatures stay stable.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum OracleKind {
    /// Generated/loaded text failed to parse.
    Parse,
    /// A verifier rejected the IR (including after a pass that changed it).
    Verify,
    /// print ∘ parse was not the identity at some level.
    RoundTrip,
    /// A stage returned an error (lowering, adaptor, emission, frontend).
    Stage,
    /// The two flows computed different results.
    Differential,
    /// Interpreter trap during execution (OOB, step limit, type error).
    Exec,
    /// A stage panicked (caught by `catch_unwind`).
    Panic,
    /// A budget (deadline/fuel) tripped — the no-hang oracle.
    Budget,
    /// An engine-approved "legal" transform changed observable results.
    Legality,
    /// The isolated worker *process* died running the oracles (segfault,
    /// stack overflow past the guard, OOM kill) — only reachable under
    /// `mha-fuzz --isolate`, where the warden turns process death into a
    /// reducible finding instead of a dead campaign.
    Crash,
}

impl OracleKind {
    /// Stable lowercase name used in signatures and corpus entries.
    pub fn as_str(self) -> &'static str {
        match self {
            OracleKind::Parse => "parse",
            OracleKind::Verify => "verify",
            OracleKind::RoundTrip => "round-trip",
            OracleKind::Stage => "stage",
            OracleKind::Differential => "differential",
            OracleKind::Exec => "exec",
            OracleKind::Panic => "panic",
            OracleKind::Budget => "budget",
            OracleKind::Legality => "legality",
            OracleKind::Crash => "crash",
        }
    }

    /// Inverse of [`OracleKind::as_str`].
    pub fn parse_name(s: &str) -> Option<OracleKind> {
        Some(match s {
            "parse" => OracleKind::Parse,
            "verify" => OracleKind::Verify,
            "round-trip" => OracleKind::RoundTrip,
            "stage" => OracleKind::Stage,
            "differential" => OracleKind::Differential,
            "exec" => OracleKind::Exec,
            "panic" => OracleKind::Panic,
            "budget" => OracleKind::Budget,
            "legality" => OracleKind::Legality,
            "crash" => OracleKind::Crash,
            _ => return None,
        })
    }
}

impl fmt::Display for OracleKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One oracle failure, before normalization.
#[derive(Clone, Debug)]
pub struct Failure {
    /// Which oracle rejected the kernel.
    pub oracle: OracleKind,
    /// Pipeline stage that was running (`mlir-parse`, `adaptor`,
    /// `exec-cpp`, ...).
    pub stage: String,
    /// The raw error / panic / mismatch message.
    pub message: String,
}

impl Failure {
    /// Build a failure record.
    pub fn new(oracle: OracleKind, stage: &str, message: impl Into<String>) -> Failure {
        Failure {
            oracle,
            stage: stage.to_string(),
            message: message.into(),
        }
    }

    /// The normalized signature used for dedup.
    pub fn signature(&self) -> Signature {
        Signature::new(self.oracle, &self.stage, &self.message)
    }
}

impl fmt::Display for Failure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}/{}] {}", self.oracle, self.stage, self.message)
    }
}

/// A normalized, dedup-ready failure identity.
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Signature(String);

/// Longest normalized message prefix kept in a signature. Long enough to
/// distinguish different verifier complaints, short enough that trailing
/// kernel-specific detail does not split one bug into many signatures.
const MESSAGE_PREFIX_LEN: usize = 96;

impl Signature {
    /// Normalize `(oracle, stage, message)` into a signature.
    pub fn new(oracle: OracleKind, stage: &str, message: &str) -> Signature {
        Signature(format!(
            "{}/{}: {}",
            oracle.as_str(),
            stage,
            normalize_message(message)
        ))
    }

    /// Reconstruct a signature as a corpus file stores it.
    pub fn from_stored(s: &str) -> Signature {
        Signature(s.to_string())
    }

    /// The canonical rendered form.
    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// Short stable hex id, used in corpus filenames.
    pub fn hex_id(&self) -> String {
        format!("{:016x}", kernels::fnv1a64(self.0.as_bytes()))
    }
}

impl fmt::Display for Signature {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

/// Collapse kernel-specific variation: first line only, digit runs become
/// `#`, whitespace runs collapse, truncated to a stable prefix.
fn normalize_message(msg: &str) -> String {
    let first_line = msg.lines().next().unwrap_or("");
    let mut out = String::with_capacity(first_line.len().min(MESSAGE_PREFIX_LEN));
    let mut in_digits = false;
    let mut in_space = false;
    for c in first_line.chars() {
        if c.is_ascii_digit() {
            if !in_digits {
                out.push('#');
                in_digits = true;
            }
            in_space = false;
        } else if c.is_whitespace() {
            if !in_space {
                out.push(' ');
                in_space = true;
            }
            in_digits = false;
        } else {
            out.push(c);
            in_digits = false;
            in_space = false;
        }
        if out.len() >= MESSAGE_PREFIX_LEN {
            break;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numbers_and_whitespace_normalize_away() {
        let a = Signature::new(
            OracleKind::Exec,
            "exec-adaptor",
            "OOB at offset 132+4 in 256",
        );
        let b = Signature::new(
            OracleKind::Exec,
            "exec-adaptor",
            "OOB at offset 36+8  in 64",
        );
        assert_eq!(a, b);
        assert_eq!(a.as_str(), "exec/exec-adaptor: OOB at offset #+# in #");
    }

    #[test]
    fn different_stage_or_kind_split_signatures() {
        let a = Signature::new(OracleKind::Exec, "exec-adaptor", "boom");
        let b = Signature::new(OracleKind::Exec, "exec-cpp", "boom");
        let c = Signature::new(OracleKind::Panic, "exec-adaptor", "boom");
        assert_ne!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn long_messages_truncate_and_multiline_keeps_first_line() {
        let long = format!("prefix {}\nsecond line", "x".repeat(300));
        let s = Signature::new(OracleKind::Stage, "lower", &long);
        assert!(s.as_str().len() < 130);
        assert!(!s.as_str().contains("second"));
    }

    #[test]
    fn hex_id_is_stable() {
        let s = Signature::new(OracleKind::Differential, "compare", "buffer B differs");
        assert_eq!(s.hex_id(), s.hex_id());
        assert_eq!(s.hex_id().len(), 16);
    }
}
