//! The parallel batch engine behind `mha-batch`, run under the
//! [`crate::supervisor`] layer.
//!
//! [`run_batch`] pushes every requested kernel through the full
//! MLIR → flow → csynth → co-simulation pipeline on a worker pool
//! (`--jobs` threads pulling from a shared queue), with each stage's output
//! served from the content-addressed [`crate::cache`] when its inputs are
//! unchanged. A stage's cache key is a hash of the printed `.ll` module
//! text plus configuration. After a flow-cache miss, csynth and
//! co-simulation run on the module the flow built; after a hit, on the
//! parsed text. `tests/module_equivalence.rs` requires both to give the
//! same csynth payload, interpreter buffers and steps, so cold and warm
//! runs report the same results.
//!
//! Supervision (ISSUE 4) adds four guarantees on top of PR 3's engine:
//!
//! * **Budgets** — every pipeline attempt runs under a fresh
//!   [`pass_core::Budget`] built from `--deadline-ms` / `--fuel`, carried
//!   through the flow, the adaptor pass pipeline, and `vitis-sim`'s
//!   scheduling loops. A hang becomes a structured
//!   [`StageError::BudgetExceeded`] instead of a wedged worker.
//! * **Retries** — cache I/O (probe and store) runs under the
//!   [`RetryPolicy`]; only [`FaultClass::Transient`] failures retry, and a
//!   probe abandoned after backoff degrades to a recompute, never an error.
//! * **Degradation** — when the adaptor flow fails *deterministically* for
//!   a kernel (legalization rejection), the kernel re-runs through the
//!   baseline C++ flow and is reported as [`RunOutcome::Degraded`]; the
//!   batch exits 1 but the suite's numbers survive.
//! * **Journal** — with caching enabled, a write-ahead `journal.jsonl`
//!   (next to the cache entries) records every kernel start and outcome;
//!   `--resume` replays completed kernels instead of re-running them.
//!
//! Failure isolation is unchanged: a kernel that returns an error or panics
//! is caught in its worker, recorded as a structured entry in the
//! [`BatchSummary`], and never disturbs the other kernels. Exit codes
//! follow the `mha-lint` convention: 0 all clean, 1 some kernels failed or
//! degraded, 2 infrastructure error (reported as [`BatchError`] before any
//! kernel runs). Non-fatal warnings go to **stderr**, keeping
//! `--format json` stdout a single parseable document.

use std::panic::AssertUnwindSafe;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use kernels::Kernel;
use pass_core::json::JsonValue;
use pass_core::report::json_str;
use pass_core::{Budget, BudgetError, PipelineReport};
use vitis_sim::{csynth_budgeted, CsynthError, CsynthReport, Target};

use crate::cache::{self, Cache, CacheError, CacheKey, KeyBuilder, Lookup};
use crate::cosim::cosim;
use crate::experiment::Directives;
use crate::flow::{prepare_mlir_text, Flow, FlowError};
use crate::supervisor::{
    ChaosConfig, ChaosEngine, ChaosFault, FaultClass, Journal, JournalError, JournalOutcomes,
    RetryPolicy, StageError,
};
use crate::DriverError;

/// Everything that configures one batch run.
#[derive(Clone, Debug)]
pub struct BatchOptions {
    /// Worker threads; 0 means "use the machine's available parallelism".
    pub jobs: usize,
    /// Directives applied to every kernel.
    pub directives: Directives,
    /// Which flow to run.
    pub flow: Flow,
    /// Artifact cache directory; `None` disables caching entirely
    /// (`--no-cache`). The run journal lives next to the cache entries, so
    /// `--no-cache` also disables the journal (and `--resume`).
    pub cache_dir: Option<PathBuf>,
    /// Synthesis target.
    pub target: Target,
    /// Co-simulation input seed.
    pub seed: u64,
    /// Test hook: panic inside the worker processing this kernel, to
    /// exercise failure isolation end to end (`--inject-panic`). The seeded
    /// [`ChaosConfig`] harness generalizes this; the hook remains for
    /// targeting one specific kernel.
    pub inject_panic: Option<String>,
    /// Per-kernel wall-clock deadline (`--deadline-ms`); each pipeline
    /// attempt gets this long before tripping
    /// [`StageError::BudgetExceeded`].
    pub deadline_ms: Option<u64>,
    /// Per-kernel fuel allowance (`--fuel`): units of work (passes,
    /// scheduled instructions, II-search probes) one pipeline attempt may
    /// spend across all its stages.
    pub fuel: Option<u64>,
    /// Seeded fault injection (`--chaos seed,rate`), `None` when off.
    pub chaos: Option<ChaosConfig>,
    /// Replay completed kernels from the run journal (`--resume`).
    pub resume: bool,
    /// Retry policy for transient faults (cache I/O, injected I/O errors).
    pub retry: RetryPolicy,
    /// Run each kernel in an isolated worker *process* (`--isolate`, via
    /// `driver::warden`): a segfault/abort/OOM while compiling one kernel
    /// becomes a `failed/crash` summary entry instead of killing the run.
    /// `--inject-panic` is not forwarded into workers (panics are already
    /// contained in-process by the supervisor).
    pub isolate: bool,
}

impl Default for BatchOptions {
    fn default() -> BatchOptions {
        BatchOptions {
            jobs: 0,
            directives: Directives::pipelined(1),
            flow: Flow::Adaptor,
            cache_dir: Some(Cache::default_dir()),
            target: Target::default(),
            seed: 2026,
            inject_panic: None,
            deadline_ms: None,
            fuel: None,
            chaos: None,
            resume: false,
            retry: RetryPolicy::default(),
            isolate: false,
        }
    }
}

impl BatchOptions {
    /// The resolved worker count: `jobs`, or the machine's available
    /// parallelism when `jobs == 0`, never more than the kernel count.
    pub fn effective_jobs(&self, n_kernels: usize) -> usize {
        let auto = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let jobs = if self.jobs == 0 { auto } else { self.jobs };
        jobs.clamp(1, n_kernels.max(1))
    }
}

/// What one supervised run compiles. The source kind decides the stage
/// set: a suite kernel has a reference implementation, so it co-simulates
/// and may degrade to the C++ flow; raw MLIR runs flow → csynth only.
#[derive(Clone, Copy)]
pub enum Source<'a> {
    /// A suite kernel.
    Suite(&'a Kernel),
    /// Raw MLIR text (an `mha-serve` request body).
    Raw {
        /// Module name.
        name: &'a str,
        /// MLIR module text.
        mlir: &'a str,
    },
}

impl Source<'_> {
    /// Resolve a suite kernel by name; an unknown name is a deterministic
    /// `request` fault.
    pub fn suite(name: &str) -> Result<Source<'static>, StageError> {
        kernels::kernel(name)
            .map(Source::Suite)
            .ok_or_else(|| StageError::Fault {
                stage: "request".into(),
                class: FaultClass::Deterministic,
                detail: format!("unknown suite kernel '{name}'"),
            })
    }

    /// The kernel or module name (also the chaos and panic-hook key).
    pub fn name(&self) -> &str {
        match self {
            Source::Suite(k) => k.name,
            Source::Raw { name, .. } => name,
        }
    }
}

/// An infrastructure failure that prevents the batch from running at all
/// (as opposed to a per-kernel failure, which is isolated and reported in
/// the summary). Maps to exit code 2.
#[derive(Debug, Clone)]
pub enum BatchError {
    /// The cache directory could not be opened or written.
    Cache(CacheError),
    /// The run journal could not be created or resumed (config mismatch,
    /// interior corruption, unwritable directory).
    Journal(JournalError),
    /// The request itself is unusable (e.g. no kernels selected).
    Usage(String),
}

impl std::fmt::Display for BatchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BatchError::Cache(e) => write!(f, "batch infrastructure: {e}"),
            BatchError::Journal(e) => write!(f, "batch infrastructure: {e}"),
            BatchError::Usage(m) => write!(f, "batch usage: {m}"),
        }
    }
}

impl std::error::Error for BatchError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            BatchError::Cache(e) => Some(e),
            BatchError::Journal(e) => Some(e),
            BatchError::Usage(_) => None,
        }
    }
}

impl From<CacheError> for BatchError {
    fn from(e: CacheError) -> Self {
        BatchError::Cache(e)
    }
}

impl From<JournalError> for BatchError {
    fn from(e: JournalError) -> Self {
        BatchError::Journal(e)
    }
}

/// A supervised run that could not open its cache reports as an infra
/// fault of the `cache` stage.
impl From<BatchError> for StageError {
    fn from(e: BatchError) -> Self {
        StageError::Fault {
            stage: "cache".into(),
            class: FaultClass::Infra,
            detail: e.to_string(),
        }
    }
}

/// The artifacts a successfully processed kernel contributes to the
/// summary.
#[derive(Clone, Debug)]
pub struct KernelArtifacts {
    /// The HLS-ready module, printed (`.ll` text) — the canonical artifact
    /// all downstream stages key on.
    pub module_text: String,
    /// FNV-1a digest of `module_text` (hex), for cheap equality checks.
    pub module_digest: String,
    /// Synthesis report.
    pub csynth: CsynthReport,
    /// Co-simulation max |err| against the reference.
    pub cosim_max_err: f32,
    /// Co-simulation interpreter step count.
    pub cosim_steps: u64,
    /// Per-stage timing, with cached stages marked (and `degraded` set when
    /// these artifacts came from the C++-flow fallback).
    pub report: PipelineReport,
    /// Stages served from the cache for this kernel (0–3).
    pub cache_hits: usize,
    /// Stages recomputed (and, when caching is on, stored) for this kernel.
    pub cache_misses: usize,
}

/// How one kernel's run ended.
#[derive(Clone, Debug)]
pub enum RunOutcome {
    /// All stages completed under the requested flow.
    Completed(Box<KernelArtifacts>),
    /// The adaptor flow failed deterministically; the baseline C++ flow
    /// produced these artifacts instead. Counts toward exit code 1.
    Degraded {
        /// Artifacts from the C++-flow fallback (`report.degraded` set).
        artifacts: Box<KernelArtifacts>,
        /// Why the adaptor flow was abandoned.
        reason: String,
    },
    /// A stage failed with a classified [`StageError`] (fault or budget
    /// trip).
    Failed(StageError),
    /// The worker caught a panic from this kernel.
    Panicked {
        /// The panic payload, if it was a string.
        message: String,
    },
}

/// One kernel's entry in the batch summary.
#[derive(Clone, Debug)]
pub struct KernelRun {
    /// Kernel name.
    pub kernel: String,
    /// What happened.
    pub outcome: RunOutcome,
}

impl KernelRun {
    /// True when the kernel completed all stages under the requested flow.
    pub fn is_ok(&self) -> bool {
        matches!(self.outcome, RunOutcome::Completed(_))
    }

    /// True when the kernel only survived via the C++-flow fallback.
    pub fn is_degraded(&self) -> bool {
        matches!(self.outcome, RunOutcome::Degraded { .. })
    }
}

/// Aggregated result of one batch invocation.
#[derive(Clone, Debug)]
pub struct BatchSummary {
    /// Which flow ran.
    pub flow: String,
    /// Worker threads actually used.
    pub jobs: usize,
    /// Whether the artifact cache was enabled.
    pub cache_enabled: bool,
    /// Total wall-clock for the whole batch, microseconds.
    pub wall_us: u64,
    /// Per-kernel results, in the order the kernels were given.
    pub runs: Vec<KernelRun>,
    /// Non-fatal warnings (corrupt cache entries healed, abandoned
    /// retries, degradations, jobs clamping). Already printed to stderr as
    /// they occurred; collected here for the JSON summary.
    pub warnings: Vec<String>,
}

impl BatchSummary {
    /// Kernels that completed under the requested flow.
    pub fn ok_count(&self) -> usize {
        self.runs.iter().filter(|r| r.is_ok()).count()
    }

    /// Kernels that fell back to the C++ flow.
    pub fn degraded_count(&self) -> usize {
        self.runs.iter().filter(|r| r.is_degraded()).count()
    }

    /// Kernels that failed or panicked outright.
    pub fn failed_count(&self) -> usize {
        self.runs.len() - self.ok_count() - self.degraded_count()
    }

    /// Total cache hits across kernels (degraded fallbacks included).
    pub fn cache_hits(&self) -> usize {
        self.artifacts().map(|a| a.cache_hits).sum()
    }

    /// Total cache misses across kernels (degraded fallbacks included).
    pub fn cache_misses(&self) -> usize {
        self.artifacts().map(|a| a.cache_misses).sum()
    }

    fn artifacts(&self) -> impl Iterator<Item = &KernelArtifacts> {
        self.runs.iter().filter_map(|r| match &r.outcome {
            RunOutcome::Completed(a) | RunOutcome::Degraded { artifacts: a, .. } => {
                Some(a.as_ref())
            }
            _ => None,
        })
    }

    /// Process exit code under the mha-lint convention: 0 all kernels
    /// clean, 1 some kernels failed *or degraded* (the rest still
    /// reported). Code 2 is reserved for [`BatchError`], which precludes a
    /// summary.
    pub fn exit_code(&self) -> i32 {
        if self.failed_count() > 0 || self.degraded_count() > 0 {
            1
        } else {
            0
        }
    }

    /// Render the human-readable batch table. Warnings are *not* included —
    /// they stream to stderr as they occur.
    pub fn render(&self) -> String {
        let mut out = format!(
            "== mha-batch: {} kernel(s), flow {}, jobs {}, cache {} ({} hit / {} miss), {} ms\n",
            self.runs.len(),
            self.flow,
            self.jobs,
            if self.cache_enabled { "on" } else { "off" },
            self.cache_hits(),
            self.cache_misses(),
            self.wall_us / 1000
        );
        out.push_str(&format!(
            "{:<10}  {:<8}  {:>8}  {:>8}  {:>9}  {:>9}  {}\n",
            "kernel", "status", "latency", "interval", "cosim_err", "stage_us", "cache"
        ));
        for r in &self.runs {
            match &r.outcome {
                RunOutcome::Completed(a) => {
                    out.push_str(&Self::artifact_row(&r.kernel, "ok", a));
                }
                RunOutcome::Degraded { artifacts, .. } => {
                    out.push_str(&Self::artifact_row(&r.kernel, "degraded", artifacts));
                }
                RunOutcome::Failed(e) => {
                    out.push_str(&format!(
                        "{:<10}  FAILED    [{}|{}] {}\n",
                        r.kernel,
                        e.stage(),
                        e.class_label(),
                        e.detail()
                    ));
                }
                RunOutcome::Panicked { message } => {
                    out.push_str(&format!("{:<10}  PANIC     {message}\n", r.kernel));
                }
            }
        }
        out.push_str(&format!(
            "== {} ok, {} degraded, {} failed\n",
            self.ok_count(),
            self.degraded_count(),
            self.failed_count()
        ));
        out
    }

    fn artifact_row(kernel: &str, status: &str, a: &KernelArtifacts) -> String {
        format!(
            "{:<10}  {:<8}  {:>8}  {:>8}  {:>9}  {:>9}  {}h/{}m\n",
            kernel,
            status,
            a.csynth.latency,
            a.csynth.interval,
            a.cosim_max_err,
            a.report.total_us(),
            a.cache_hits,
            a.cache_misses
        )
    }

    /// Serialize the summary to JSON (hand-rolled, same style as
    /// `PipelineReport::to_json`; schema documented in EXPERIMENTS.md).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        out.push_str(&format!("\"flow\":{},", json_str(&self.flow)));
        out.push_str(&format!("\"jobs\":{},", self.jobs));
        out.push_str(&format!("\"cache_enabled\":{},", self.cache_enabled));
        out.push_str(&format!("\"wall_us\":{},", self.wall_us));
        out.push_str(&format!(
            "\"cache\":{{\"hits\":{},\"misses\":{}}},",
            self.cache_hits(),
            self.cache_misses()
        ));
        out.push_str("\"warnings\":[");
        for (i, w) in self.warnings.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&json_str(w));
        }
        out.push_str("],\"kernels\":[");
        for (i, r) in self.runs.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            match &r.outcome {
                RunOutcome::Completed(a) => out.push_str(&format!(
                    "{{\"kernel\":{},\"status\":\"ok\",{}}}",
                    json_str(&r.kernel),
                    Self::artifact_json_fields(a)
                )),
                RunOutcome::Degraded { artifacts, reason } => out.push_str(&format!(
                    "{{\"kernel\":{},\"status\":\"degraded\",\"reason\":{},{}}}",
                    json_str(&r.kernel),
                    json_str(reason),
                    Self::artifact_json_fields(artifacts)
                )),
                // The StageError's own fields, a crash's rss_peak_kb
                // included, follow the status tag.
                RunOutcome::Failed(e) => out.push_str(&format!(
                    "{{\"kernel\":{},\"status\":\"failed\",{}",
                    json_str(&r.kernel),
                    &e.to_json()[1..]
                )),
                RunOutcome::Panicked { message } => out.push_str(&format!(
                    "{{\"kernel\":{},\"status\":\"panicked\",\"error\":{}}}",
                    json_str(&r.kernel),
                    json_str(message)
                )),
            }
        }
        out.push_str("]}");
        out
    }

    fn artifact_json_fields(a: &KernelArtifacts) -> String {
        // A NaN on one side only is an infinite error, which JSON has no
        // number for: it is written as `null`.
        let cosim_max_err = if a.cosim_max_err.is_finite() {
            a.cosim_max_err.to_string()
        } else {
            "null".to_string()
        };
        format!(
            "\"module_digest\":{},\"latency\":{},\"interval\":{},\"cosim_max_err\":{},\"cosim_steps\":{},\"cache_hits\":{},\"cache_misses\":{},\"report\":{}",
            json_str(&a.module_digest),
            a.csynth.latency,
            a.csynth.interval,
            cosim_max_err,
            a.cosim_steps,
            a.cache_hits,
            a.cache_misses,
            a.report.to_json()
        )
    }
}

/// Serialize a [`RunOutcome`] as the journal's `done`-record payload. The
/// encoding is total: every artifact field travels (module text, exact
/// csynth/cosim payload encodings, the nested report), so
/// [`outcome_from_json`] reconstructs the outcome field-for-field and a
/// `--resume` replay is indistinguishable from having run the kernel.
pub fn outcome_to_json(o: &RunOutcome) -> String {
    fn artifact_fields(a: &KernelArtifacts) -> String {
        format!(
            "\"module_text\":{},\"module_digest\":{},\"csynth\":{},\"cosim\":{},\"cache_hits\":{},\"cache_misses\":{},\"report\":{}",
            json_str(&a.module_text),
            json_str(&a.module_digest),
            json_str(&cache::encode_csynth(&a.csynth)),
            json_str(&cache::encode_cosim(&crate::CosimResult {
                max_abs_err: a.cosim_max_err,
                steps: a.cosim_steps,
            })),
            a.cache_hits,
            a.cache_misses,
            a.report.to_json()
        )
    }
    match o {
        RunOutcome::Completed(a) => format!("{{\"status\":\"ok\",{}}}", artifact_fields(a)),
        RunOutcome::Degraded { artifacts, reason } => format!(
            "{{\"status\":\"degraded\",\"reason\":{},{}}}",
            json_str(reason),
            artifact_fields(artifacts)
        ),
        RunOutcome::Failed(e) => {
            // Splice the StageError's own fields (stage/class/error plus
            // the crash-only rss_peak_kb) after the status tag.
            format!("{{\"status\":\"failed\",{}", &e.to_json()[1..])
        }
        RunOutcome::Panicked { message } => {
            format!(
                "{{\"status\":\"panicked\",\"error\":{}}}",
                json_str(message)
            )
        }
    }
}

/// Parse a journal `done`-record payload back into a [`RunOutcome`].
pub fn outcome_from_json(v: &JsonValue) -> Result<RunOutcome, String> {
    fn artifacts(v: &JsonValue) -> Result<KernelArtifacts, String> {
        let text = |k: &str| {
            v.get(k)
                .and_then(|x| x.as_str())
                .map(str::to_string)
                .ok_or_else(|| format!("journal outcome: missing '{k}'"))
        };
        let count = |k: &str| {
            v.get(k)
                .and_then(|x| x.as_u64())
                .map(|n| n as usize)
                .ok_or_else(|| format!("journal outcome: missing '{k}'"))
        };
        let csynth = cache::decode_csynth(&text("csynth")?)
            .map_err(|e| format!("journal outcome: bad csynth payload: {e}"))?;
        let cosim = cache::decode_cosim(&text("cosim")?)
            .map_err(|e| format!("journal outcome: bad cosim payload: {e}"))?;
        let report = PipelineReport::from_json_value(
            v.get("report").ok_or("journal outcome: missing 'report'")?,
        )?;
        Ok(KernelArtifacts {
            module_text: text("module_text")?,
            module_digest: text("module_digest")?,
            csynth,
            cosim_max_err: cosim.max_abs_err,
            cosim_steps: cosim.steps,
            report,
            cache_hits: count("cache_hits")?,
            cache_misses: count("cache_misses")?,
        })
    }
    let status = v
        .get("status")
        .and_then(|x| x.as_str())
        .ok_or("journal outcome: missing 'status'")?;
    match status {
        "ok" => Ok(RunOutcome::Completed(Box::new(artifacts(v)?))),
        "degraded" => Ok(RunOutcome::Degraded {
            artifacts: Box::new(artifacts(v)?),
            reason: v
                .get("reason")
                .and_then(|x| x.as_str())
                .unwrap_or_default()
                .to_string(),
        }),
        "failed" => Ok(RunOutcome::Failed(StageError::from_json(v)?)),
        "panicked" => Ok(RunOutcome::Panicked {
            message: v
                .get("error")
                .and_then(|x| x.as_str())
                .unwrap_or_default()
                .to_string(),
        }),
        other => Err(format!("journal outcome: unknown status '{other}'")),
    }
}

/// A canonical, order-stable text form of the pass configuration; hashed
/// into every flow-stage cache key so a directive change invalidates
/// exactly the affected artifacts.
pub(crate) fn directives_repr(d: &Directives, flow: Flow) -> String {
    fn opt(v: Option<u32>) -> String {
        v.map(|x| x.to_string()).unwrap_or_else(|| "-".into())
    }
    format!(
        "flow={};ii={};unroll={};partition={};flatten={}",
        flow.label(),
        opt(d.pipeline_ii),
        opt(d.unroll_factor),
        opt(d.partition_factor),
        d.flatten
    )
}

pub(crate) fn target_repr(t: &Target) -> String {
    format!(
        "clock={:016x};bram_ports={};axi_ports={};axi_extra={}",
        t.clock_ns.to_bits(),
        t.bram_ports,
        t.axi_ports,
        t.axi_extra_latency
    )
}

/// The full configuration identity a journal is bound to: resuming under a
/// different value of any of these would mix incomparable outcomes.
fn batch_config_repr(opts: &BatchOptions) -> String {
    fn opt_u64(v: Option<u64>) -> String {
        v.map(|x| x.to_string()).unwrap_or_else(|| "-".into())
    }
    format!(
        "{};target={};seed={};deadline_ms={};fuel={};chaos={}",
        directives_repr(&opts.directives, opts.flow),
        target_repr(&opts.target),
        opts.seed,
        opt_u64(opts.deadline_ms),
        opt_u64(opts.fuel),
        opts.chaos.map(|c| c.repr()).unwrap_or_else(|| "-".into()),
    )
}

/// Shared per-run context handed to every worker.
struct BatchCtx<'a> {
    opts: &'a BatchOptions,
    cache: Option<Cache>,
    chaos: Option<ChaosEngine>,
    journal: Option<Journal>,
    warnings: Mutex<Vec<String>>,
}

/// Faults the chaos engine may inject at a pipeline stage boundary.
const BOUNDARY_MENU: &[ChaosFault] = &[
    ChaosFault::Panic,
    ChaosFault::Delay,
    ChaosFault::FuelExhaustion,
];

/// At the adaptor flow's boundary a legalization rejection is also on the
/// menu, to exercise the degraded C++-flow fallback.
const ADAPTOR_BOUNDARY_MENU: &[ChaosFault] = &[
    ChaosFault::Panic,
    ChaosFault::Delay,
    ChaosFault::FuelExhaustion,
    ChaosFault::AdaptorReject,
];

impl BatchCtx<'_> {
    /// Record a non-fatal warning: streamed to stderr immediately (stdout
    /// stays a clean document for `--format json`) and collected for the
    /// summary's `warnings` array.
    fn warn(&self, w: String) {
        eprintln!("warning: {w}");
        self.warnings
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .push(w);
    }

    fn chaos_roll(
        &self,
        kernel: &str,
        site: &str,
        attempt: u32,
        menu: &[ChaosFault],
    ) -> Option<ChaosFault> {
        self.chaos
            .as_ref()
            .and_then(|c| c.roll(kernel, site, attempt, menu))
    }

    /// Roll (and apply) stage-boundary chaos for `kernel` at `site`.
    /// Panics propagate to the worker's `catch_unwind`; a delay just
    /// sleeps (letting a real deadline trip downstream); fuel exhaustion
    /// drains the pool *and* trips immediately so the injection is
    /// observable even without `--fuel`.
    fn boundary_chaos(
        &self,
        kernel: &str,
        site: &str,
        flow: Flow,
        budget: &Budget,
    ) -> Result<(), StageError> {
        let menu = if site == "flow" && flow == Flow::Adaptor {
            ADAPTOR_BOUNDARY_MENU
        } else {
            BOUNDARY_MENU
        };
        match self.chaos_roll(kernel, site, 0, menu) {
            // IoError only fires at cache sites; the serve-layer faults
            // (socket reset / slow read / worker stall) and the
            // warden-layer crash faults (worker kill / rss bomb / reply
            // truncate) never appear on a batch boundary menu.
            None
            | Some(
                ChaosFault::IoError
                | ChaosFault::SocketReset
                | ChaosFault::SlowRead
                | ChaosFault::WorkerStall
                | ChaosFault::WorkerKill
                | ChaosFault::RssBomb
                | ChaosFault::ReplyTruncate,
            ) => Ok(()),
            Some(ChaosFault::Panic) => {
                panic!("chaos: injected panic at {site} for {kernel}")
            }
            Some(ChaosFault::Delay) => {
                std::thread::sleep(Duration::from_millis(25));
                Ok(())
            }
            Some(ChaosFault::FuelExhaustion) => {
                budget.exhaust_fuel();
                Err(BudgetError::new(
                    pass_core::BudgetKind::Fuel,
                    site,
                    "chaos: injected fuel exhaustion",
                )
                .into())
            }
            Some(ChaosFault::AdaptorReject) => Err(StageError::Fault {
                stage: "flow".to_string(),
                class: FaultClass::Deterministic,
                detail: "chaos: injected adaptor legalization rejection".to_string(),
            }),
        }
    }

    /// Probe the cache under the retry policy. Corrupt entries degrade to
    /// a miss plus a warning; a probe still failing transiently after
    /// backoff is abandoned (recompute), never fatal.
    fn probe(&self, kernel: &str, stage: &str, key: &CacheKey) -> Option<String> {
        let cache = self.cache.as_ref()?;
        let site = format!("cache/{stage}");
        let probed = self.opts.retry.run(&site, |attempt| {
            if self
                .chaos_roll(kernel, &site, attempt, &[ChaosFault::IoError])
                .is_some()
            {
                return Err((
                    FaultClass::Transient,
                    "chaos: injected cache read error".to_string(),
                ));
            }
            match cache.load(key) {
                Lookup::Hit(payload) => Ok(Some(payload)),
                Lookup::Miss => Ok(None),
                Lookup::Corrupt(reason) => {
                    self.warn(format!("corrupt cache entry ignored: {reason}"));
                    Ok(None)
                }
            }
        });
        match probed {
            Ok(v) => v,
            Err(e) => {
                self.warn(format!(
                    "cache probe abandoned for {kernel} ({e}); recomputing"
                ));
                None
            }
        }
    }

    /// Probe `stage`'s entry and decode it. A hit counts in `hits` and is
    /// recorded in `report` as a cached stage; an undecodable entry is a
    /// warning and a miss.
    fn cached<T>(
        &self,
        name: &str,
        stage: &str,
        key: &CacheKey,
        decode: impl FnOnce(String) -> Result<T, String>,
        report: &mut PipelineReport,
        hits: &mut usize,
    ) -> Option<T> {
        let start = std::time::Instant::now();
        let value = match decode(self.probe(name, stage, key)?) {
            Ok(v) => v,
            Err(e) => {
                self.warn(format!("undecodable {stage} entry for {name}: {e}"));
                return None;
            }
        };
        *hits += 1;
        report.record_cached(stage, start.elapsed().as_micros() as u64);
        Some(value)
    }

    /// Store a freshly computed artifact under the retry policy; store
    /// failures are warnings, not errors — the batch result is already in
    /// hand.
    fn keep(&self, kernel: &str, stage: &str, key: &CacheKey, payload: &str) {
        let Some(cache) = self.cache.as_ref() else {
            return;
        };
        let site = format!("store/{stage}");
        let stored = self.opts.retry.run(&site, |attempt| {
            if self
                .chaos_roll(kernel, &site, attempt, &[ChaosFault::IoError])
                .is_some()
            {
                return Err((
                    FaultClass::Transient,
                    "chaos: injected cache write error".to_string(),
                ));
            }
            cache
                .store(key, payload)
                .map_err(|e| (FaultClass::Transient, e.to_string()))
        });
        if let Err(e) = stored {
            self.warn(format!("cache store failed: {e}"));
        }
    }
}

/// A deterministic fault of `stage`: the same input fails the same way.
fn fault(stage: &str, e: impl ToString) -> StageError {
    StageError::Fault {
        stage: stage.to_string(),
        class: FaultClass::Deterministic,
        detail: e.to_string(),
    }
}

/// Run one source through `flow` → csynth (→ cosim for suite kernels) with
/// stage-level caching, under a fresh per-attempt [`Budget`] and the chaos
/// engine's boundary injections. `progress` hears each stage's name as it
/// starts.
fn run_pipeline(
    src: Source<'_>,
    ctx: &BatchCtx<'_>,
    flow: Flow,
    progress: &mut dyn FnMut(&str),
) -> Result<KernelArtifacts, StageError> {
    let opts = ctx.opts;
    let name = src.name();
    // Fresh per attempt, so a degraded fallback is not charged for the
    // failed adaptor attempt.
    let budget = Budget::from_limits(opts.deadline_ms, opts.fuel);
    let mut report = PipelineReport::new("batch");
    let mut hits = 0usize;
    let mut misses = 0usize;
    let config = directives_repr(&opts.directives, flow);

    // Stage 1: MLIR → HLS-ready module, keyed by source content + config.
    progress("flow");
    ctx.boundary_chaos(name, "flow", flow, &budget)?;
    let (flow_key, mlir) = match src {
        Source::Suite(k) => (
            KeyBuilder::new("flow").num("kernel", k.content_digest()),
            k.mlir,
        ),
        Source::Raw { name, mlir } => (
            KeyBuilder::new("flow")
                .text("name", name)
                .text("mlir", mlir),
            mlir,
        ),
    };
    let flow_key = flow_key.text("config", &config).finish();
    // After a miss, csynth and cosim run on the module the flow built; the
    // text is printed for the flow cache, the digest and the stage keys.
    let cached_text = ctx.cached(name, "flow", &flow_key, Ok, &mut report, &mut hits);
    let (module_text, built) = match cached_text {
        Some(text) => (text, None),
        None => {
            misses += 1;
            let m =
                prepare_mlir_text(name, mlir, &opts.directives).map_err(|e| fault("flow", e))?;
            let art = fuzzing::flow::run(m, flow, &budget, &mut |_| {}).map_err(|e| match e {
                FlowError::Budget { trip, .. } => trip.into(),
                e => fault("flow", DriverError::from(e)),
            })?;
            report.extend_prefixed("flow", &art.report);
            let text = llvm_lite::printer::print_module(&art.module);
            ctx.keep(name, "flow", &flow_key, &text);
            (text, Some(art.module))
        }
    };
    let module_digest = format!("{:016x}", kernels::fnv1a64(module_text.as_bytes()));

    // Stages 2 and 3 key on the module *text*: any IR change reflows them,
    // any directive change already changed the text. After a flow-cache
    // hit the text is parsed only when at least one of them actually has
    // to run. Raw MLIR has no reference implementation to co-simulate
    // against.
    let csynth_key = KeyBuilder::new("csynth")
        .text("module", &module_text)
        .text("target", &target_repr(&opts.target))
        .finish();
    let cosim_key = match src {
        Source::Suite(k) => Some(
            KeyBuilder::new("cosim")
                .text("module", &module_text)
                .num("kernel", k.content_digest())
                .num("seed", opts.seed)
                .finish(),
        ),
        Source::Raw { .. } => None,
    };

    progress("csynth");
    ctx.boundary_chaos(name, "csynth", flow, &budget)?;
    let decode_csynth = |p: String| cache::decode_csynth(&p);
    let cached_csynth = ctx.cached(
        name,
        "csynth",
        &csynth_key,
        decode_csynth,
        &mut report,
        &mut hits,
    );
    let cached_cosim = match &cosim_key {
        Some(key) => {
            progress("cosim");
            ctx.boundary_chaos(name, "cosim", flow, &budget)?;
            let decode_cosim = |p: String| cache::decode_cosim(&p);
            ctx.cached(name, "cosim", key, decode_cosim, &mut report, &mut hits)
        }
        None => None,
    };

    let needed = cached_csynth.is_none() || (cosim_key.is_some() && cached_cosim.is_none());
    let module = match built {
        None if needed => Some(
            llvm_lite::parser::parse_module(name, &module_text).map_err(|e| fault("parse", e))?,
        ),
        built => built,
    };

    let csynth_report = match cached_csynth {
        Some(r) => r,
        None => {
            misses += 1;
            let r = report
                .time_stage("csynth", || {
                    csynth_budgeted(module.as_ref().unwrap(), &opts.target, &budget)
                })
                .map_err(|e| match e {
                    CsynthError::Budget(trip) => trip.into(),
                    e => fault("csynth", e),
                })?;
            ctx.keep(name, "csynth", &csynth_key, &cache::encode_csynth(&r));
            r
        }
    };
    let cosim_result = match (src, cosim_key, cached_cosim) {
        (_, _, Some(r)) => r,
        (Source::Suite(k), Some(cosim_key), None) => {
            misses += 1;
            budget.charge(1, "cosim")?;
            let r = report
                .time_stage("cosim", || cosim(module.as_ref().unwrap(), k, opts.seed))
                .map_err(|e| fault("cosim", e))?;
            ctx.keep(name, "cosim", &cosim_key, &cache::encode_cosim(&r));
            r
        }
        _ => crate::CosimResult {
            max_abs_err: 0.0,
            steps: 0,
        },
    };

    Ok(KernelArtifacts {
        module_text,
        module_digest,
        csynth: csynth_report,
        cosim_max_err: cosim_result.max_abs_err,
        cosim_steps: cosim_result.steps,
        report,
        cache_hits: hits,
        cache_misses: misses,
    })
}

/// One source under full supervision: the requested flow first; when the
/// adaptor flow fails *deterministically* for a suite kernel (a
/// legalization property of the input, not a budget trip or transient
/// fault), fall back to the baseline C++ flow and mark the kernel degraded.
/// A raw source has no fallback: its rejection is the answer.
fn run_one(src: Source<'_>, ctx: &BatchCtx<'_>, progress: &mut dyn FnMut(&str)) -> RunOutcome {
    let name = src.name();
    if ctx.opts.inject_panic.as_deref() == Some(name) {
        panic!("injected panic for {name} (test hook)");
    }
    match run_pipeline(src, ctx, ctx.opts.flow, progress) {
        Ok(a) => RunOutcome::Completed(Box::new(a)),
        Err(StageError::Fault {
            stage,
            class: FaultClass::Deterministic,
            detail,
        }) if ctx.opts.flow == Flow::Adaptor
            && stage == "flow"
            && matches!(src, Source::Suite(_)) =>
        {
            let reason = format!("deterministic fault in {stage}: {detail}");
            ctx.warn(format!(
                "{name}: adaptor flow failed; degrading to the C++ flow ({detail})"
            ));
            match run_pipeline(src, ctx, Flow::Cpp, progress) {
                Ok(mut artifacts) => {
                    artifacts.report.degraded = true;
                    RunOutcome::Degraded {
                        artifacts: Box::new(artifacts),
                        reason,
                    }
                }
                Err(e) => RunOutcome::Failed(e),
            }
        }
        Err(e) => RunOutcome::Failed(e),
    }
}

fn run_one_isolated(
    src: Source<'_>,
    ctx: &BatchCtx<'_>,
    progress: &mut dyn FnMut(&str),
) -> KernelRun {
    let outcome = match std::panic::catch_unwind(AssertUnwindSafe(|| run_one(src, ctx, progress))) {
        Ok(outcome) => outcome,
        Err(payload) => {
            let message = payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_else(|| "non-string panic payload".into());
            RunOutcome::Panicked { message }
        }
    };
    KernelRun {
        kernel: src.name().to_string(),
        outcome,
    }
}

/// Run a single kernel through the full supervised pipeline — flow →
/// csynth → co-simulation with stage-level caching, budget supervision,
/// chaos injection, degraded-fallback, and panic isolation — without the
/// batch machinery around it (no journal, no worker pool, no summary).
/// Returns the outcome plus any warnings the run produced (the batch layer
/// would stream these to stderr; a server attaches them to the response
/// instead).
pub fn run_supervised(
    kernel: &Kernel,
    opts: &BatchOptions,
) -> Result<(RunOutcome, Vec<String>), BatchError> {
    run_source(Source::Suite(kernel), opts, &mut |_| {})
}

/// [`run_supervised`] for any [`Source`], reporting each stage's name to
/// `progress` as it starts. This is the one compile engine behind
/// `mha-serve` (suite kernels and raw MLIR bodies alike, sharing the
/// on-disk stage cache with `mha-batch`) and behind every warden worker.
pub fn run_source(
    src: Source<'_>,
    opts: &BatchOptions,
    progress: &mut dyn FnMut(&str),
) -> Result<(RunOutcome, Vec<String>), BatchError> {
    let cache = match &opts.cache_dir {
        Some(dir) => Some(Cache::open(dir)?),
        None => None,
    };
    let ctx = BatchCtx {
        opts,
        cache,
        chaos: opts.chaos.map(ChaosEngine::new),
        journal: None,
        warnings: Mutex::new(Vec::new()),
    };
    let run = run_one_isolated(src, &ctx, progress);
    let warnings = ctx.warnings.into_inner().unwrap_or_else(|p| p.into_inner());
    Ok((run.outcome, warnings))
}

/// Run the batch: every kernel through the configured flow, on
/// `opts.effective_jobs` worker threads, with per-kernel failure isolation,
/// stage-level caching, budget supervision, and (with caching on) a
/// write-ahead journal. Results come back in input order regardless of
/// completion order; with `opts.resume`, kernels already completed in the
/// journal are replayed instead of re-run.
pub fn run_batch(kernels: &[Kernel], opts: &BatchOptions) -> Result<BatchSummary, BatchError> {
    if kernels.is_empty() {
        return Err(BatchError::Usage("no kernels selected".into()));
    }
    if opts.resume && opts.cache_dir.is_none() {
        return Err(BatchError::Usage(
            "--resume needs the run journal, which lives in the cache directory; \
             drop --no-cache"
                .into(),
        ));
    }
    let cache = match &opts.cache_dir {
        Some(dir) => Some(Cache::open(dir)?),
        None => None,
    };
    let config = batch_config_repr(opts);
    let mut replayed = JournalOutcomes::new();
    let journal = match &opts.cache_dir {
        Some(dir) => {
            let path = dir.join(Journal::FILE_NAME);
            if opts.resume {
                let (j, outcomes) = Journal::resume(&path, &config)?;
                replayed = outcomes;
                Some(j)
            } else {
                Some(Journal::create(&path, &config)?)
            }
        }
        None => None,
    };
    let ctx = BatchCtx {
        opts,
        cache,
        chaos: opts.chaos.map(ChaosEngine::new),
        journal,
        warnings: Mutex::new(Vec::new()),
    };
    let jobs = opts.effective_jobs(kernels.len());
    if opts.jobs > kernels.len() {
        ctx.warn(format!(
            "--jobs {} exceeds the {} selected kernel(s); clamping to {jobs}",
            opts.jobs,
            kernels.len()
        ));
    }
    let start = std::time::Instant::now();

    // Pre-fill slots for journal-replayed kernels; only the rest queue up.
    let slots: Vec<Mutex<Option<KernelRun>>> = kernels.iter().map(|_| Mutex::new(None)).collect();
    let mut pending: Vec<usize> = Vec::new();
    for (i, k) in kernels.iter().enumerate() {
        match replayed.get(k.name).map(outcome_from_json) {
            Some(Ok(outcome)) => {
                *slots[i].lock().unwrap_or_else(|p| p.into_inner()) = Some(KernelRun {
                    kernel: k.name.to_string(),
                    outcome,
                });
            }
            Some(Err(e)) => {
                ctx.warn(format!(
                    "journal outcome for {} unusable ({e}); re-running",
                    k.name
                ));
                pending.push(i);
            }
            None => pending.push(i),
        }
    }
    let n_replayed = kernels.len() - pending.len();
    if n_replayed > 0 {
        eprintln!("mha-batch: --resume replayed {n_replayed} completed kernel(s) from the journal");
    }

    // Process isolation (`--isolate`): compilations run in warden worker
    // processes, one warm worker per pool thread. Journaling, resume, and
    // result slots stay supervisor-side; only the compute crosses the
    // process boundary.
    let warden = if opts.isolate {
        Some(
            crate::warden::Warden::new(crate::warden::WardenConfig {
                pool: jobs.min(pending.len().max(1)),
                ..crate::warden::WardenConfig::default()
            })
            .map_err(|e| BatchError::Usage(format!("--isolate worker pool: {e}")))?,
        )
    } else {
        None
    };

    // Worker pool: `jobs` threads pull indices from a shared counter, so a
    // slow kernel never blocks the queue behind it. (The workspace's rayon
    // stand-in is sequential — see stubs/rayon — so the pool is built
    // directly on scoped threads.)
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..jobs.min(pending.len().max(1)) {
            scope.spawn(|| loop {
                let qi = next.fetch_add(1, Ordering::Relaxed);
                let Some(&i) = pending.get(qi) else { break };
                let k = &kernels[i];
                if let Some(j) = &ctx.journal {
                    if let Err(e) = j.begin(k.name) {
                        ctx.warn(format!("journal write failed for {}: {e}", k.name));
                    }
                }
                let run = match &warden {
                    Some(w) => {
                        let (outcome, warnings) = w.execute_suite(k.name, ctx.opts);
                        for msg in warnings {
                            ctx.warn(format!("{}: {msg}", k.name));
                        }
                        KernelRun {
                            kernel: k.name.to_string(),
                            outcome,
                        }
                    }
                    None => run_one_isolated(Source::Suite(k), &ctx, &mut |_| {}),
                };
                if let Some(j) = &ctx.journal {
                    if let Err(e) = j.finish(k.name, &outcome_to_json(&run.outcome)) {
                        ctx.warn(format!("journal write failed for {}: {e}", k.name));
                    }
                }
                *slots[i].lock().unwrap_or_else(|p| p.into_inner()) = Some(run);
            });
        }
    });

    let runs = slots
        .into_iter()
        .zip(kernels)
        .map(|(slot, k)| {
            slot.into_inner()
                .unwrap_or_else(|p| p.into_inner())
                .unwrap_or(KernelRun {
                    kernel: k.name.to_string(),
                    outcome: RunOutcome::Panicked {
                        message: "worker disappeared without reporting".into(),
                    },
                })
        })
        .collect();

    Ok(BatchSummary {
        flow: opts.flow.label().to_string(),
        jobs,
        cache_enabled: ctx.cache.is_some(),
        wall_us: start.elapsed().as_micros() as u64,
        runs,
        warnings: ctx.warnings.into_inner().unwrap_or_else(|p| p.into_inner()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pass_core::json;

    fn no_cache_opts() -> BatchOptions {
        BatchOptions {
            cache_dir: None,
            jobs: 4,
            ..BatchOptions::default()
        }
    }

    #[test]
    fn batch_over_two_kernels_completes() {
        let ks: Vec<Kernel> = ["gemm", "fir"]
            .iter()
            .map(|n| *kernels::kernel(n).unwrap())
            .collect();
        let s = run_batch(&ks, &no_cache_opts()).unwrap();
        assert_eq!(s.runs.len(), 2);
        assert_eq!(s.exit_code(), 0);
        assert_eq!(s.cache_hits(), 0);
        for r in &s.runs {
            match &r.outcome {
                RunOutcome::Completed(a) => {
                    assert_eq!(a.cosim_max_err, 0.0, "{}", r.kernel);
                    assert!(a.csynth.latency > 0);
                }
                other => panic!("{}: {other:?}", r.kernel),
            }
        }
    }

    #[test]
    fn an_infinite_cosim_error_is_written_as_null() {
        let ks = [*kernels::kernel("fir").unwrap()];
        let mut s = run_batch(&ks, &no_cache_opts()).unwrap();
        let field = |s: &BatchSummary| {
            let v = json::parse(&s.to_json()).expect("the summary is JSON");
            v.get("kernels").and_then(|k| k.as_arr()).unwrap()[0]
                .get("cosim_max_err")
                .cloned()
        };
        assert_eq!(field(&s), Some(json::JsonValue::Num(0.0)));
        // What cosim reports for a module that writes NaN into an output.
        match &mut s.runs[0].outcome {
            RunOutcome::Completed(a) => a.cosim_max_err = f32::INFINITY,
            other => panic!("fir: {other:?}"),
        }
        assert_eq!(field(&s), Some(json::JsonValue::Null));
    }

    #[test]
    fn empty_selection_is_a_usage_error() {
        let err = run_batch(&[], &no_cache_opts()).unwrap_err();
        assert!(matches!(err, BatchError::Usage(_)));
        assert!(err.to_string().contains("no kernels"));
    }

    #[test]
    fn resume_without_cache_is_a_usage_error() {
        let ks = [*kernels::kernel("fir").unwrap()];
        let err = run_batch(
            &ks,
            &BatchOptions {
                resume: true,
                ..no_cache_opts()
            },
        )
        .unwrap_err();
        assert!(matches!(err, BatchError::Usage(_)));
        assert!(err.to_string().contains("--resume"), "{err}");
    }

    #[test]
    fn summary_json_has_the_documented_shape() {
        let ks = [*kernels::kernel("fir").unwrap()];
        let s = run_batch(&ks, &no_cache_opts()).unwrap();
        let j = s.to_json();
        assert!(j.starts_with('{') && j.ends_with('}'));
        for needle in [
            "\"flow\":\"adaptor\"",
            "\"cache_enabled\":false",
            "\"kernels\":[",
            "\"kernel\":\"fir\"",
            "\"status\":\"ok\"",
            "\"module_digest\":",
            "\"report\":{",
        ] {
            assert!(j.contains(needle), "missing {needle} in {j}");
        }
        // And it parses as one JSON document.
        json::parse(&j).unwrap();
    }

    #[test]
    fn crashed_kernel_summary_keeps_its_peak_rss() {
        let failed = |e: StageError| KernelRun {
            kernel: "gemm".into(),
            outcome: RunOutcome::Failed(e),
        };
        let s = BatchSummary {
            flow: "adaptor".into(),
            jobs: 1,
            cache_enabled: false,
            wall_us: 0,
            runs: vec![
                failed(StageError::Crash {
                    stage: "flow".into(),
                    cause: "signal 9".into(),
                    rss_peak_kb: Some(204_800),
                }),
                failed(StageError::Fault {
                    stage: "flow".into(),
                    class: FaultClass::Deterministic,
                    detail: "rejected".into(),
                }),
            ],
            warnings: Vec::new(),
        };
        let v = json::parse(&s.to_json()).unwrap();
        let kernels = v.get("kernels").unwrap().as_arr().unwrap();
        assert_eq!(kernels[0].get("class").unwrap().as_str(), Some("crash"));
        assert_eq!(
            kernels[0].get("rss_peak_kb").unwrap().as_u64(),
            Some(204_800)
        );
        assert!(s.to_json().contains(
            "{\"kernel\":\"gemm\",\"status\":\"failed\",\"stage\":\"flow\",\"class\":\"deterministic\",\"error\":\"rejected\"}"
        ));
    }

    #[test]
    fn directive_repr_is_canonical() {
        let a = directives_repr(&Directives::pipelined(1), Flow::Adaptor);
        let b = directives_repr(&Directives::pipelined(2), Flow::Adaptor);
        let c = directives_repr(&Directives::pipelined(1), Flow::Cpp);
        assert_eq!(a, "flow=adaptor;ii=1;unroll=-;partition=-;flatten=false");
        assert_ne!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn fuel_starved_kernel_fails_with_budget_outcome_and_isolates() {
        let ks: Vec<Kernel> = ["gemm", "fir"]
            .iter()
            .map(|n| *kernels::kernel(n).unwrap())
            .collect();
        let s = run_batch(
            &ks,
            &BatchOptions {
                fuel: Some(2),
                ..no_cache_opts()
            },
        )
        .unwrap();
        // Both kernels trip (each attempt gets its own 2-unit pool), with a
        // structured budget outcome, not a hang or a panic.
        assert_eq!(s.exit_code(), 1);
        for r in &s.runs {
            match &r.outcome {
                RunOutcome::Failed(e) => {
                    assert!(e.is_budget(), "{}: {e:?}", r.kernel);
                    assert_eq!(e.class_label(), "budget-fuel", "{}", r.kernel);
                }
                other => panic!("{}: expected budget failure, got {other:?}", r.kernel),
            }
        }
        // A generous pool completes normally.
        let s = run_batch(
            &ks,
            &BatchOptions {
                fuel: Some(1_000_000),
                ..no_cache_opts()
            },
        )
        .unwrap();
        assert_eq!(s.exit_code(), 0, "{:?}", s.runs[0].outcome);
    }

    #[test]
    fn outcome_json_round_trips_every_shape() {
        let ks = [*kernels::kernel("fir").unwrap()];
        let s = run_batch(&ks, &no_cache_opts()).unwrap();
        let completed = &s.runs[0].outcome;
        let degraded = match completed {
            RunOutcome::Completed(a) => RunOutcome::Degraded {
                artifacts: a.clone(),
                reason: "deterministic fault in flow: injected".to_string(),
            },
            other => panic!("{other:?}"),
        };
        let failed = RunOutcome::Failed(StageError::Fault {
            stage: "flow".into(),
            class: FaultClass::Deterministic,
            detail: "no such kernel".into(),
        });
        let tripped = RunOutcome::Failed(StageError::BudgetExceeded {
            stage: "csynth/schedule".into(),
            kind: pass_core::BudgetKind::Fuel,
            detail: "pool empty".into(),
        });
        let panicked = RunOutcome::Panicked {
            message: "boom".into(),
        };
        let crashed = RunOutcome::Failed(StageError::Crash {
            stage: "warden".into(),
            cause: "signal 9".into(),
            rss_peak_kb: Some(204_800),
        });
        for outcome in [completed, &degraded, &failed, &tripped, &panicked, &crashed] {
            let encoded = outcome_to_json(outcome);
            let parsed = outcome_from_json(&json::parse(&encoded).unwrap()).unwrap();
            // Field-for-field equality via the canonical encoding.
            assert_eq!(encoded, outcome_to_json(&parsed));
        }
    }
}
