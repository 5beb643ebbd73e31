//! The supervised execution layer behind `mha-batch`.
//!
//! This module supplies the robustness vocabulary the batch engine runs
//! under (see ARCHITECTURE.md's supervisor section):
//!
//! * a typed **fault taxonomy** ([`FaultClass`]: transient / deterministic
//!   / infra) and a structured per-kernel failure type ([`StageError`])
//!   that keeps budget trips ([`StageError::BudgetExceeded`]) distinct
//!   from ordinary faults;
//! * a **retry policy** ([`RetryPolicy`]) with exponential backoff that
//!   retries *only* transient faults — a deterministic failure is never
//!   re-run, it would fail identically;
//! * a seeded **fault-injection harness** ([`ChaosEngine`], the
//!   generalization of PR 3's `--inject-panic`) that deterministically
//!   injects panics, delays, I/O errors, fuel exhaustion, and adaptor
//!   rejections at stage boundaries as a pure function of
//!   `(seed, kernel, site, attempt)`;
//! * a write-ahead **run journal** ([`Journal`], `journal.jsonl` next to
//!   the artifact cache) that records every kernel start and outcome so a
//!   killed batch run resumes with `--resume`, skipping completed kernels.

use std::collections::HashMap;
use std::fmt;
use std::fs;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::Duration;

use kernels::digest::{fnv1a64, Hasher64};
use pass_core::json::{self, JsonValue};
use pass_core::report::json_str;
use pass_core::{BudgetError, BudgetKind};

/// How a non-budget failure should be treated by the supervisor.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FaultClass {
    /// Environmental and expected to clear on retry (cache I/O, injected
    /// I/O faults). The only class the [`RetryPolicy`] retries.
    Transient,
    /// A property of the input: the same stage fails the same way every
    /// time (legalization rejection, frontend errors). Never retried.
    Deterministic,
    /// The harness itself misbehaved (journal writes, worker panics).
    /// Not retried; surfaced loudly.
    Infra,
}

impl FaultClass {
    /// Canonical lowercase label (summary JSON, journal records).
    pub fn as_str(self) -> &'static str {
        match self {
            FaultClass::Transient => "transient",
            FaultClass::Deterministic => "deterministic",
            FaultClass::Infra => "infra",
        }
    }

    /// Inverse of [`FaultClass::as_str`].
    pub fn parse(s: &str) -> Option<FaultClass> {
        match s {
            "transient" => Some(FaultClass::Transient),
            "deterministic" => Some(FaultClass::Deterministic),
            "infra" => Some(FaultClass::Infra),
            _ => None,
        }
    }
}

impl fmt::Display for FaultClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A structured per-kernel stage failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StageError {
    /// The stage ran out of budget (deadline or fuel) and unwound
    /// cooperatively.
    BudgetExceeded {
        /// Stage that observed the trip (e.g. `csynth/schedule`).
        stage: String,
        /// Which resource ran out.
        kind: BudgetKind,
        /// Human detail from the trip site.
        detail: String,
    },
    /// The stage failed with a classified fault.
    Fault {
        /// Stage that failed (e.g. `flow`, `cache/csynth`).
        stage: String,
        /// Taxonomy class driving retry/degrade decisions.
        class: FaultClass,
        /// The underlying error text.
        detail: String,
    },
    /// The worker *process* running the stage died — a segfault, abort,
    /// stack overflow, RSS-limit kill, or truncated reply pipe. These are
    /// the failure modes `catch_unwind` cannot catch; the `driver::warden`
    /// isolation layer turns them into this variant instead of letting
    /// them take the whole server down.
    Crash {
        /// Stage (or warden op) that was in flight when the worker died.
        stage: String,
        /// What killed it: `signal 9`, `exit code 134`, `rss limit
        /// (peak 312480 kB)`, `reply truncated`, …
        cause: String,
        /// The worker's peak RSS in kB, when observed (child self-report
        /// or supervisor watchdog sample).
        rss_peak_kb: Option<u64>,
    },
}

impl StageError {
    /// The stage that failed.
    pub fn stage(&self) -> &str {
        match self {
            StageError::BudgetExceeded { stage, .. }
            | StageError::Fault { stage, .. }
            | StageError::Crash { stage, .. } => stage,
        }
    }

    /// Class label for summaries: `budget-deadline` / `budget-fuel` for
    /// budget trips, `crash` for worker deaths, the [`FaultClass`] label
    /// otherwise.
    pub fn class_label(&self) -> String {
        match self {
            StageError::BudgetExceeded { kind, .. } => format!("budget-{kind}"),
            StageError::Fault { class, .. } => class.as_str().to_string(),
            StageError::Crash { .. } => "crash".to_string(),
        }
    }

    /// The failure detail text.
    pub fn detail(&self) -> &str {
        match self {
            StageError::BudgetExceeded { detail, .. } | StageError::Fault { detail, .. } => detail,
            StageError::Crash { cause, .. } => cause,
        }
    }

    /// True for budget trips.
    pub fn is_budget(&self) -> bool {
        matches!(self, StageError::BudgetExceeded { .. })
    }

    /// True for worker-process deaths.
    pub fn is_crash(&self) -> bool {
        matches!(self, StageError::Crash { .. })
    }

    /// Serialize as a JSON object fragment (journal + summary schema).
    /// `error` carries the raw detail; stage/class/kind live in their own
    /// fields, so the rendered form is reconstructible. Crashes add an
    /// optional `rss_peak_kb` field.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"stage\":{},\"class\":{},\"error\":{}",
            json_str(self.stage()),
            json_str(&self.class_label()),
            json_str(self.detail())
        );
        if let StageError::Crash {
            rss_peak_kb: Some(kb),
            ..
        } = self
        {
            out.push_str(&format!(",\"rss_peak_kb\":{kb}"));
        }
        out.push('}');
        out
    }

    /// Parse back out of the [`StageError::to_json`] object.
    pub fn from_json(v: &JsonValue) -> Result<StageError, String> {
        let stage = v
            .get("stage")
            .and_then(|x| x.as_str())
            .ok_or("stage error JSON: missing 'stage'")?;
        let class = v
            .get("class")
            .and_then(|x| x.as_str())
            .ok_or("stage error JSON: missing 'class'")?;
        let error = v
            .get("error")
            .and_then(|x| x.as_str())
            .ok_or("stage error JSON: missing 'error'")?;
        if let Some(kind) = class.strip_prefix("budget-").and_then(BudgetKind::parse) {
            Ok(StageError::BudgetExceeded {
                stage: stage.to_string(),
                kind,
                detail: error.to_string(),
            })
        } else if class == "crash" {
            Ok(StageError::Crash {
                stage: stage.to_string(),
                cause: error.to_string(),
                rss_peak_kb: v.get("rss_peak_kb").and_then(|x| x.as_u64()),
            })
        } else {
            Ok(StageError::Fault {
                stage: stage.to_string(),
                class: FaultClass::parse(class)
                    .ok_or_else(|| format!("stage error JSON: unknown class '{class}'"))?,
                detail: error.to_string(),
            })
        }
    }
}

impl fmt::Display for StageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            // Keep the stable budget grammar: clients read the trip back
            // out of the service's `rendered` field.
            StageError::BudgetExceeded {
                stage,
                kind,
                detail,
            } => write!(f, "{kind} budget exceeded in {stage}: {detail}"),
            StageError::Fault {
                stage,
                class,
                detail,
            } => write!(f, "{class} fault in {stage}: {detail}"),
            StageError::Crash {
                stage,
                cause,
                rss_peak_kb,
            } => match rss_peak_kb {
                Some(kb) => write!(f, "worker crash in {stage}: {cause} (peak rss {kb} kB)"),
                None => write!(f, "worker crash in {stage}: {cause}"),
            },
        }
    }
}

impl std::error::Error for StageError {}

impl From<BudgetError> for StageError {
    fn from(e: BudgetError) -> StageError {
        StageError::BudgetExceeded {
            stage: e.stage,
            kind: e.kind,
            detail: e.detail,
        }
    }
}

/// Exponential-backoff retry for transient faults.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts (first try included). 1 = no retry.
    pub max_attempts: u32,
    /// Backoff before the second attempt; doubles per further attempt.
    pub base_delay: Duration,
    /// Backoff ceiling.
    pub max_delay: Duration,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 3,
            base_delay: Duration::from_millis(2),
            max_delay: Duration::from_millis(50),
        }
    }
}

impl RetryPolicy {
    /// Backoff before attempt `attempt` (0-based first try has none).
    pub fn delay_for(&self, attempt: u32) -> Duration {
        if attempt == 0 {
            return Duration::ZERO;
        }
        let factor = 1u32 << (attempt - 1).min(16);
        (self.base_delay * factor).min(self.max_delay)
    }

    /// Run `op` (which receives the 0-based attempt number) until it
    /// succeeds, fails non-transiently, or attempts run out. Only
    /// [`FaultClass::Transient`] failures are retried — with exponential
    /// backoff between attempts. On exhaustion the last transient fault is
    /// returned, its detail annotated with the attempt count.
    pub fn run<T>(
        &self,
        stage: &str,
        mut op: impl FnMut(u32) -> Result<T, (FaultClass, String)>,
    ) -> Result<T, StageError> {
        let attempts = self.max_attempts.max(1);
        let mut last: Option<String> = None;
        for attempt in 0..attempts {
            std::thread::sleep(self.delay_for(attempt));
            match op(attempt) {
                Ok(v) => return Ok(v),
                Err((FaultClass::Transient, detail)) => last = Some(detail),
                Err((class, detail)) => {
                    return Err(StageError::Fault {
                        stage: stage.to_string(),
                        class,
                        detail,
                    })
                }
            }
        }
        Err(StageError::Fault {
            stage: stage.to_string(),
            class: FaultClass::Transient,
            detail: format!(
                "still failing after {attempts} attempt(s): {}",
                last.unwrap_or_default()
            ),
        })
    }
}

/// Parsed `--chaos seed,rate` configuration.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ChaosConfig {
    /// Seed feeding the per-site hash.
    pub seed: u64,
    /// Injection probability per eligible site, in `[0, 1]`.
    pub rate: f64,
}

impl ChaosConfig {
    /// Parse the CLI form `seed,rate` (e.g. `--chaos 7,0.2`).
    pub fn parse(s: &str) -> Result<ChaosConfig, String> {
        let (seed, rate) = s
            .split_once(',')
            .ok_or_else(|| format!("--chaos expects 'seed,rate', got '{s}'"))?;
        let seed: u64 = seed
            .trim()
            .parse()
            .map_err(|_| format!("--chaos: bad seed '{seed}'"))?;
        let rate: f64 = rate
            .trim()
            .parse()
            .map_err(|_| format!("--chaos: bad rate '{rate}'"))?;
        if !(0.0..=1.0).contains(&rate) {
            return Err(format!("--chaos: rate {rate} outside [0, 1]"));
        }
        Ok(ChaosConfig { seed, rate })
    }

    /// Canonical `seed,rate` form (journal config identity).
    pub fn repr(&self) -> String {
        format!("{},{}", self.seed, self.rate)
    }
}

/// What the chaos engine can inject at a site.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChaosFault {
    /// Panic the worker (exercises catch_unwind isolation).
    Panic,
    /// Sleep briefly (exercises deadline budgets).
    Delay,
    /// A transient I/O error (exercises the retry policy).
    IoError,
    /// Drain the kernel's fuel pool (exercises budget unwinding).
    FuelExhaustion,
    /// A deterministic adaptor legalization failure (exercises the
    /// degraded C++-flow fallback).
    AdaptorReject,
    /// Serve-layer: drop the client connection instead of writing the
    /// response (the journal must still make the response recoverable).
    SocketReset,
    /// Serve-layer: stall the connection read path (exercises header
    /// deadlines and keep-alive idle handling).
    SlowRead,
    /// Serve-layer: stall a compile worker before it starts (exercises
    /// queue-wait shedding and fairness under pressure).
    WorkerStall,
    /// Warden-layer: abort the worker *process* mid-compile (exercises
    /// crash containment — the supervisor must map the death to a typed
    /// [`StageError::Crash`] instead of dying with it).
    WorkerKill,
    /// Warden-layer: balloon the worker's RSS until the watchdog's
    /// `--max-worker-rss-mb` limit kills it.
    RssBomb,
    /// Warden-layer: write a truncated reply frame and exit cleanly
    /// (exercises reply-pipe truncation detection).
    ReplyTruncate,
}

/// Deterministic seeded fault injector. Whether (and what) to inject is a
/// pure function of `(seed, kernel, site, attempt)`, so a given seed
/// reproduces the same faults in any execution order — which is what makes
/// resume-under-chaos equivalence testable — while including the attempt
/// number lets transient faults clear on retry.
#[derive(Clone, Copy, Debug)]
pub struct ChaosEngine {
    cfg: ChaosConfig,
}

impl ChaosEngine {
    /// Build from a parsed config.
    pub fn new(cfg: ChaosConfig) -> ChaosEngine {
        ChaosEngine { cfg }
    }

    /// The configuration this engine injects under.
    pub fn config(&self) -> ChaosConfig {
        self.cfg
    }

    /// Roll the dice for one site. Returns the fault to inject (chosen
    /// uniformly from `menu`) with probability `rate`, else `None`.
    pub fn roll(
        &self,
        kernel: &str,
        site: &str,
        attempt: u32,
        menu: &[ChaosFault],
    ) -> Option<ChaosFault> {
        if menu.is_empty() || self.cfg.rate <= 0.0 {
            return None;
        }
        let mut h = Hasher64::new();
        h.field(&self.cfg.seed.to_le_bytes())
            .field_str(kernel)
            .field_str(site)
            .field(&attempt.to_le_bytes());
        let x = h.finish();
        // Top 53 bits give a uniform unit float; low bits pick the fault.
        let unit = (x >> 11) as f64 / (1u64 << 53) as f64;
        if unit < self.cfg.rate {
            Some(menu[(x % menu.len() as u64) as usize])
        } else {
            None
        }
    }
}

/// Record of one completed kernel as replayed from the journal.
pub type JournalOutcomes = HashMap<String, JsonValue>;

/// The write-ahead run journal (`journal.jsonl`).
///
/// Line 1 is a header binding the journal to a batch configuration; each
/// kernel then contributes a `start` record before it runs and a `done`
/// record carrying its full serialized outcome. Every line carries a
/// trailing ` fnv1a:<16 hex>` integrity checksum of the record text, so
/// resume can tell a torn write from silent disk corruption; lines
/// written by older versions (no suffix) still parse. Records are flushed
/// per write, so a killed run loses at most the in-flight kernels — whose
/// `start` has no matching `done` and which therefore re-run on
/// `--resume`. A truncated trailing line (the kill race) is tolerated;
/// corrupt *mid-file* records are skipped with a warning (the affected
/// kernel simply re-runs) rather than poisoning the whole resume.
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
    file: Mutex<fs::File>,
}

/// Why a journal could not be opened for resume.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JournalError {
    /// The journal's recorded config differs from the requested one —
    /// resuming would mix artifacts of different configurations.
    ConfigMismatch {
        /// Config recorded in the journal header.
        recorded: String,
        /// Config of the current invocation.
        requested: String,
    },
    /// I/O or format problem (rendered).
    Io(String),
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalError::ConfigMismatch {
                recorded,
                requested,
            } => write!(
                f,
                "journal was written by a different configuration (recorded '{recorded}', \
                 requested '{requested}'); re-run without --resume to start over"
            ),
            JournalError::Io(e) => write!(f, "journal: {e}"),
        }
    }
}

impl std::error::Error for JournalError {}

impl Journal {
    /// File name, placed next to the cache entries.
    pub const FILE_NAME: &'static str = "journal.jsonl";

    /// Start a fresh journal at `path` (truncating any previous run) bound
    /// to `config`.
    pub fn create(path: &Path, config: &str) -> Result<Journal, JournalError> {
        Journal::create_kind(path, "mha-batch", config)
    }

    /// Like [`Journal::create`] but with an explicit `kind` magic in the
    /// header, so other long-running tools (`mha-serve`) can keep their own
    /// journals without being mistaken for batch runs on `--resume`.
    pub fn create_kind(path: &Path, kind: &str, config: &str) -> Result<Journal, JournalError> {
        if let Some(parent) = path.parent() {
            fs::create_dir_all(parent)
                .map_err(|e| JournalError::Io(format!("cannot create {}: {e}", path.display())))?;
        }
        let mut file = fs::File::create(path)
            .map_err(|e| JournalError::Io(format!("cannot create {}: {e}", path.display())))?;
        let header = format!(
            "{{\"journal\":{},\"version\":1,\"config\":{}}}",
            json_str(kind),
            json_str(config)
        );
        file.write_all(checksummed(&header).as_bytes())
            .and_then(|_| file.flush())
            .map_err(|e| JournalError::Io(format!("cannot append to {}: {e}", path.display())))?;
        Ok(Journal {
            path: path.to_path_buf(),
            file: Mutex::new(file),
        })
    }

    /// Open `path` for `--resume`: validate the header against `config`,
    /// replay completed outcomes, and reopen in append mode. A missing
    /// journal degrades to [`Journal::create`] with no replayed outcomes.
    pub fn resume(path: &Path, config: &str) -> Result<(Journal, JournalOutcomes), JournalError> {
        Journal::resume_kind(path, "mha-batch", config)
    }

    /// Like [`Journal::resume`] but validating an explicit `kind` magic.
    pub fn resume_kind(
        path: &Path,
        kind: &str,
        config: &str,
    ) -> Result<(Journal, JournalOutcomes), JournalError> {
        let text = match fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                return Ok((
                    Journal::create_kind(path, kind, config)?,
                    JournalOutcomes::new(),
                ))
            }
            Err(e) => {
                return Err(JournalError::Io(format!(
                    "cannot read {}: {e}",
                    path.display()
                )))
            }
        };
        let outcomes = parse_journal(&text, kind, config)?;
        let file = fs::OpenOptions::new()
            .append(true)
            .open(path)
            .map_err(|e| JournalError::Io(format!("cannot reopen {}: {e}", path.display())))?;
        Ok((
            Journal {
                path: path.to_path_buf(),
                file: Mutex::new(file),
            },
            outcomes,
        ))
    }

    /// The journal's location.
    pub fn path(&self) -> &Path {
        &self.path
    }

    fn write_line(&self, record: String) -> Result<(), JournalError> {
        let mut file = self.file.lock().unwrap_or_else(|p| p.into_inner());
        file.write_all(checksummed(&record).as_bytes())
            .and_then(|_| file.flush())
            .map_err(|e| JournalError::Io(format!("cannot append to {}: {e}", self.path.display())))
    }

    /// Record that `kernel` is about to run (the write-ahead part). A
    /// failed append (disk full, journal directory gone) surfaces as a
    /// typed [`JournalError::Io`] naming the failing path.
    pub fn begin(&self, kernel: &str) -> Result<(), JournalError> {
        self.write_line(format!(
            "{{\"event\":\"start\",\"kernel\":{}}}",
            json_str(kernel)
        ))
    }

    /// Record `kernel`'s completed outcome (`outcome_json` must be a
    /// single JSON object, the batch layer's serialized `RunOutcome`).
    pub fn finish(&self, kernel: &str, outcome_json: &str) -> Result<(), JournalError> {
        self.write_line(format!(
            "{{\"event\":\"done\",\"kernel\":{},\"outcome\":{}}}",
            json_str(kernel),
            outcome_json
        ))
    }
}

/// Append the per-line integrity suffix: ` fnv1a:<16 hex>` over the record
/// text, plus the record terminator.
fn checksummed(record: &str) -> String {
    format!("{record} fnv1a:{:016x}\n", fnv1a64(record.as_bytes()))
}

/// Split a journal line back into its record text, verifying the integrity
/// suffix when one is present. Lines written before checksumming carry no
/// suffix and are accepted as-is (backward-compatible read path).
fn verify_record(line: &str) -> Result<&str, String> {
    const TAG: &str = " fnv1a:";
    if let Some(idx) = line.rfind(TAG) {
        let (record, suffix) = line.split_at(idx);
        let hex = &suffix[TAG.len()..];
        if hex.len() == 16 && hex.bytes().all(|b| b.is_ascii_hexdigit()) {
            let computed = fnv1a64(record.as_bytes());
            return if u64::from_str_radix(hex, 16) == Ok(computed) {
                Ok(record)
            } else {
                Err(format!(
                    "checksum mismatch (recorded {hex}, computed {computed:016x})"
                ))
            };
        }
    }
    Ok(line)
}

/// Parse journal text: header validation + completed-outcome replay.
/// The *last* unparsable line is tolerated silently (kill-mid-write);
/// corrupt *mid-file* lines — failed checksum or unparsable JSON — are
/// skipped with a warning so one flipped bit costs a kernel re-run, not
/// the whole resume. A corrupt header is still a hard error: the config
/// binding cannot be trusted.
fn parse_journal(text: &str, kind: &str, config: &str) -> Result<JournalOutcomes, JournalError> {
    let mut lines = text.lines().enumerate().peekable();
    let (_, header) = lines
        .next()
        .ok_or_else(|| JournalError::Io("empty journal".to_string()))?;
    let header =
        verify_record(header).map_err(|e| JournalError::Io(format!("bad journal header: {e}")))?;
    let header =
        json::parse(header).map_err(|e| JournalError::Io(format!("bad journal header: {e}")))?;
    if header.get("journal").and_then(|v| v.as_str()) != Some(kind) {
        return Err(JournalError::Io(format!("not an {kind} journal")));
    }
    let recorded = header
        .get("config")
        .and_then(|v| v.as_str())
        .unwrap_or_default()
        .to_string();
    if recorded != config {
        return Err(JournalError::ConfigMismatch {
            recorded,
            requested: config.to_string(),
        });
    }
    let mut outcomes = JournalOutcomes::new();
    while let Some((lineno, line)) = lines.next() {
        if line.trim().is_empty() {
            continue;
        }
        let record = match verify_record(line) {
            Ok(r) => r,
            // Truncated tail from a kill mid-write: the kernel re-runs.
            Err(_) if lines.peek().is_none() => break,
            Err(e) => {
                eprintln!(
                    "warning: journal: skipping corrupt record at line {}: {e}",
                    lineno + 1
                );
                continue;
            }
        };
        let rec = match json::parse(record) {
            Ok(r) => r,
            Err(_) if lines.peek().is_none() => break,
            Err(e) => {
                eprintln!(
                    "warning: journal: skipping corrupt record at line {}: {e}",
                    lineno + 1
                );
                continue;
            }
        };
        let event = rec.get("event").and_then(|v| v.as_str()).unwrap_or("");
        let kernel = rec.get("kernel").and_then(|v| v.as_str()).unwrap_or("");
        if event == "done" && !kernel.is_empty() {
            if let Some(outcome) = rec.get("outcome") {
                outcomes.insert(kernel.to_string(), outcome.clone());
            }
        }
    }
    Ok(outcomes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retry_retries_only_transient_faults() {
        let policy = RetryPolicy {
            max_attempts: 3,
            base_delay: Duration::ZERO,
            max_delay: Duration::ZERO,
        };
        // Transient fault clears on the final attempt.
        let mut tries = 0;
        let out = policy.run("cache/flow", |attempt| {
            tries += 1;
            if attempt < 2 {
                Err((FaultClass::Transient, "flaky".to_string()))
            } else {
                Ok(42)
            }
        });
        assert_eq!(out.unwrap(), 42);
        assert_eq!(tries, 3);

        // Deterministic faults are never retried.
        let mut tries = 0;
        let err = policy
            .run::<()>("flow", |_| {
                tries += 1;
                Err((FaultClass::Deterministic, "bad input".to_string()))
            })
            .unwrap_err();
        assert_eq!(tries, 1);
        assert_eq!(
            err,
            StageError::Fault {
                stage: "flow".to_string(),
                class: FaultClass::Deterministic,
                detail: "bad input".to_string(),
            }
        );

        // Exhaustion surfaces the attempt count.
        let err = policy
            .run::<()>("cache/flow", |_| {
                Err((FaultClass::Transient, "still flaky".to_string()))
            })
            .unwrap_err();
        match err {
            StageError::Fault { class, detail, .. } => {
                assert_eq!(class, FaultClass::Transient);
                assert!(detail.contains("3 attempt(s)"), "{detail}");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn backoff_grows_exponentially_to_the_cap() {
        let p = RetryPolicy {
            max_attempts: 10,
            base_delay: Duration::from_millis(2),
            max_delay: Duration::from_millis(10),
        };
        assert_eq!(p.delay_for(0), Duration::ZERO);
        assert_eq!(p.delay_for(1), Duration::from_millis(2));
        assert_eq!(p.delay_for(2), Duration::from_millis(4));
        assert_eq!(p.delay_for(3), Duration::from_millis(8));
        assert_eq!(p.delay_for(4), Duration::from_millis(10));
        assert_eq!(p.delay_for(9), Duration::from_millis(10));
    }

    #[test]
    fn chaos_is_deterministic_and_rate_bounded() {
        let cfg = ChaosConfig::parse("7,0.25").unwrap();
        assert_eq!(
            cfg,
            ChaosConfig {
                seed: 7,
                rate: 0.25
            }
        );
        assert_eq!(cfg.repr(), "7,0.25");
        let engine = ChaosEngine::new(cfg);
        let menu = [ChaosFault::Panic, ChaosFault::Delay, ChaosFault::IoError];
        // Determinism: identical inputs, identical outputs.
        for site in ["flow", "csynth", "cosim"] {
            for attempt in 0..4 {
                assert_eq!(
                    engine.roll("gemm", site, attempt, &menu),
                    engine.roll("gemm", site, attempt, &menu)
                );
            }
        }
        // Rate ~ 0.25: across many sites roughly a quarter fire.
        let fired = (0..1000)
            .filter(|i| engine.roll("k", &format!("site{i}"), 0, &menu).is_some())
            .count();
        assert!(
            (150..350).contains(&fired),
            "expected ~250 of 1000 injections, got {fired}"
        );
        // Zero rate never fires; empty menus never fire.
        let off = ChaosEngine::new(ChaosConfig { seed: 7, rate: 0.0 });
        assert_eq!(off.roll("gemm", "flow", 0, &menu), None);
        assert_eq!(engine.roll("gemm", "flow", 0, &[]), None);
        // Bad CLI forms are rejected.
        assert!(ChaosConfig::parse("7").is_err());
        assert!(ChaosConfig::parse("x,0.5").is_err());
        assert!(ChaosConfig::parse("7,1.5").is_err());
    }

    #[test]
    fn stage_error_classification_and_json_round_trip() {
        // A budget trip lifts field for field.
        let trip = BudgetError::new(BudgetKind::Fuel, "csynth/schedule", "pool empty");
        let e = StageError::from(trip);
        assert_eq!(
            e,
            StageError::BudgetExceeded {
                stage: "csynth/schedule".to_string(),
                kind: BudgetKind::Fuel,
                detail: "pool empty".to_string(),
            }
        );
        assert!(e.is_budget());
        assert_eq!(e.class_label(), "budget-fuel");
        // Ordinary faults keep their class.
        let f = StageError::Fault {
            stage: "flow".to_string(),
            class: FaultClass::Deterministic,
            detail: "no such kernel".to_string(),
        };
        assert_eq!(f.class_label(), "deterministic");
        assert!(!f.is_budget());
        // Worker crashes carry their own label and optional peak RSS.
        let c = StageError::Crash {
            stage: "warden".to_string(),
            cause: "signal 9".to_string(),
            rss_peak_kb: Some(312_480),
        };
        assert_eq!(c.class_label(), "crash");
        assert!(c.is_crash() && !c.is_budget());
        assert!(c.to_string().contains("peak rss 312480 kB"), "{c}");
        let c2 = StageError::Crash {
            stage: "warden".to_string(),
            cause: "reply truncated".to_string(),
            rss_peak_kb: None,
        };
        // JSON round-trips every shape.
        for err in [e, f, c, c2] {
            let v = json::parse(&err.to_json()).unwrap();
            assert_eq!(StageError::from_json(&v).unwrap(), err);
        }
    }

    fn temp_journal(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "mha-journal-test-{tag}-{}.jsonl",
            std::process::id()
        ))
    }

    #[test]
    fn journal_replays_only_completed_kernels() {
        let path = temp_journal("replay");
        let j = Journal::create(&path, "cfg-a").unwrap();
        j.begin("gemm").unwrap();
        j.finish("gemm", "{\"status\":\"ok\",\"n\":1}").unwrap();
        j.begin("fir").unwrap(); // killed mid-run: no done record
        drop(j);

        let (_j, outcomes) = Journal::resume(&path, "cfg-a").unwrap();
        assert_eq!(outcomes.len(), 1);
        assert_eq!(outcomes["gemm"].get("status").unwrap().as_str(), Some("ok"));
        assert!(!outcomes.contains_key("fir"), "unfinished kernel re-runs");
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn journal_tolerates_truncated_tail_and_skips_interior_garbage() {
        let path = temp_journal("truncated");
        let j = Journal::create(&path, "cfg").unwrap();
        j.finish("gemm", "{\"status\":\"ok\"}").unwrap();
        drop(j);
        // Simulate a kill mid-write: a half record at EOF.
        let mut text = fs::read_to_string(&path).unwrap();
        text.push_str("{\"event\":\"done\",\"kernel\":\"fir\",\"outco");
        fs::write(&path, &text).unwrap();
        let (_j, outcomes) = Journal::resume(&path, "cfg").unwrap();
        assert_eq!(outcomes.len(), 1);
        drop(_j);

        // Interior garbage costs only the affected record (skip-and-warn),
        // not the whole resume.
        let garbage = text.replace(
            "{\"event\":\"done\",\"kernel\":\"gemm\"",
            "{\"event\" GARBAGE \"kernel\":\"gemm\"",
        );
        fs::write(&path, &garbage).unwrap();
        let (_j, outcomes) = Journal::resume(&path, "cfg").unwrap();
        assert!(outcomes.is_empty(), "garbaged record must not replay");
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn journal_checksums_catch_tampered_but_parseable_records() {
        let path = temp_journal("checksum");
        let j = Journal::create(&path, "cfg").unwrap();
        j.finish("gemm", "{\"status\":\"ok\"}").unwrap();
        j.finish("fir", "{\"status\":\"ok\"}").unwrap();
        drop(j);
        // Bit-rot that keeps the JSON valid: flip gemm's recorded status.
        // Without checksums this silently replays a wrong outcome.
        let text = fs::read_to_string(&path).unwrap();
        let gemm_line = text
            .lines()
            .find(|l| l.contains("\"gemm\""))
            .unwrap()
            .to_string();
        let tampered = text.replace(
            &gemm_line,
            &gemm_line.replace("\"status\":\"ok\"", "\"status\":\"no\""),
        );
        assert_ne!(text, tampered);
        fs::write(&path, &tampered).unwrap();
        let (_j, outcomes) = Journal::resume(&path, "cfg").unwrap();
        assert!(
            !outcomes.contains_key("gemm"),
            "tampered record must be dropped, got {outcomes:?}"
        );
        assert!(outcomes.contains_key("fir"), "intact record still replays");
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn journal_reads_legacy_lines_without_checksums() {
        let path = temp_journal("legacy");
        // A journal written before the integrity suffix existed.
        fs::write(
            &path,
            "{\"journal\":\"mha-batch\",\"version\":1,\"config\":\"cfg\"}\n\
             {\"event\":\"start\",\"kernel\":\"gemm\"}\n\
             {\"event\":\"done\",\"kernel\":\"gemm\",\"outcome\":{\"status\":\"ok\"}}\n",
        )
        .unwrap();
        let (_j, outcomes) = Journal::resume(&path, "cfg").unwrap();
        assert_eq!(outcomes.len(), 1);
        assert_eq!(outcomes["gemm"].get("status").unwrap().as_str(), Some("ok"));
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn journal_append_failure_is_typed_and_names_the_path() {
        let dir = std::env::temp_dir().join(format!("mha-journal-dir-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("journal.jsonl");
        let j = Journal::create(&path, "cfg").unwrap();
        j.begin("gemm").unwrap();
        // Yank the file out from under the open handle and replace it with
        // a directory so the next flush cannot be satisfied... a plain
        // unlinked file still accepts writes, so instead exercise the
        // typed error by resuming from an unreadable path.
        drop(j);
        let err = Journal::resume(&dir, "cfg").unwrap_err();
        match err {
            JournalError::Io(msg) => {
                assert!(msg.contains(&dir.display().to_string()), "{msg}");
            }
            other => panic!("expected Io error, got {other:?}"),
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn journal_refuses_config_mismatch_and_heals_when_missing() {
        let path = temp_journal("config");
        let j = Journal::create(&path, "cfg-a").unwrap();
        j.finish("gemm", "{}").unwrap();
        drop(j);
        match Journal::resume(&path, "cfg-b") {
            Err(JournalError::ConfigMismatch {
                recorded,
                requested,
            }) => {
                assert_eq!(recorded, "cfg-a");
                assert_eq!(requested, "cfg-b");
            }
            other => panic!("expected config mismatch, got {other:?}"),
        }
        let _ = fs::remove_file(&path);
        // Resume with no journal on disk starts a fresh one.
        let (_j, outcomes) = Journal::resume(&path, "cfg-b").unwrap();
        assert!(outcomes.is_empty());
        assert!(path.exists());
        let _ = fs::remove_file(&path);
    }
}
