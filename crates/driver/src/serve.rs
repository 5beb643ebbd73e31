//! The `mha-serve` compilation service: the batch substrate, long-running.
//!
//! `mha-batch` runs one supervised sweep and exits; this module keeps the
//! same engine resident behind a small hand-rolled HTTP/1.1 server
//! (`std::net::TcpListener`, no dependencies) so kernels compile on demand:
//!
//! * **`POST /v1/compile`** — kernel text + config in, a supervised
//!   pipeline outcome out: both source kinds run the batch engine's
//!   [`run_source`], flow → csynth → co-simulation → lint for suite
//!   kernels and flow → csynth → lint for raw MLIR bodies, which have no
//!   reference implementation to co-simulate against. With
//!   `Accept: application/x-mha-stream` the response is a chunked stream
//!   of JSON progress events ending in the canonical response document.
//! * **`GET /v1/status`** — uptime, pool occupancy, cache/coalescing
//!   counters, resilience counters, and per-stage latency [`Histogram`]s.
//! * **`GET /v1/healthz`** — liveness probe (`503` once draining).
//! * **`POST /v1/shutdown`** — cooperative drain (see below).
//!
//! # Connection and admission architecture
//!
//! Since PR 8 the server is no longer "workers parked in `accept`":
//!
//! ```text
//!  acceptor ──► conn queue ──► intake threads ──► fair queue ──► workers
//!  (1 thread,   (bounded)      (parse heads,       (DRR per       (compile,
//!   non-block)                  answer warm hits,   client,        journal,
//!                               admit or shed)      bounded)       respond)
//! ```
//!
//! * The **acceptor** owns the (non-blocking) listener, so a drain never
//!   needs to nudge blocked `accept` calls with throwaway connections.
//! * **Intake** threads read request heads incrementally with short read
//!   timeouts, so thousands of idle keep-alive connections do not pin
//!   threads; a connection whose head dribbles in past the header
//!   deadline is answered `408` and closed (slow-loris defense). Intake
//!   answers status/health endpoints and **warm/cache hits inline** —
//!   those never enter the admission queue and can never be shed.
//! * Cold compiles are admitted to a [`FairQueue`]: per-client
//!   deficit-round-robin (client = `X-Mha-Client`, else peer IP) keeps an
//!   aggressive tenant from starving polite ones, and overload sheds with
//!   `429 + Retry-After` — raw-MLIR compiles shed before suite kernels.
//! * **Workers** pop admitted jobs, compile under a [`Breaker`] (circuit
//!   breaker over the fault taxonomy: a high transient-fault rate trips
//!   it open, adaptor-flow requests then degrade to the deterministic C++
//!   fallback exactly like batch's degraded mode, and half-open probes
//!   decide when to close it), then write the response and hand
//!   keep-alive connections back to intake.
//!
//! Connections speak real HTTP/1.1 keep-alive: idle timeout, per-connection
//! request cap, header-read deadline, and write timeouts, all configurable.
//!
//! Three layers keep repeated work from repeating:
//!
//! 1. **Coalescing**: requests are keyed by an FNV-1a digest of their
//!    full identity (source, directives, flow, target, seed, budget); an
//!    identical request arriving while the first is still compiling waits
//!    on the in-flight slot and shares its response (`X-Mha-Served:
//!    coalesced`).
//! 2. **The response cache**: completed `200`/`422` responses are kept
//!    in memory and replayed byte-identically (`X-Mha-Served: cache`);
//!    every compile additionally shares the on-disk stage cache with
//!    `mha-batch`.
//! 3. **The journal**: every cacheable response is appended to a
//!    write-ahead journal (`serve.jsonl`, the batch [`Journal`] with an
//!    `mha-serve` header magic) and flushed before the response is sent,
//!    so a killed server loses only in-flight requests — a restarted
//!    server replays the journal and serves those responses warm
//!    (`X-Mha-Served: warm`).
//!
//! Failures map the supervisor's fault taxonomy onto HTTP statuses:
//! deadline trips are `408`, fuel trips `429`, deterministic faults `422`
//! (with the located diagnostics in the body), transient faults `503`,
//! infra faults and panics `500`. Budget trips keep the stable budget
//! grammar in the `rendered` field, so clients recover them structurally
//! with `pass_core::BudgetError::from_rendered`. Every `429`/`503`
//! carries a `Retry-After` header.
//!
//! The seeded [`ChaosEngine`] reaches into the serve layer itself when
//! `--chaos` is set: `serve/read` (slow read), `serve/worker` (worker
//! stall), `serve/response` (socket reset after journaling — the journal
//! makes the response recoverable on retry), and `serve/compile` (a
//! transient fault before a raw-MLIR compile, feeding the breaker). Suite
//! compiles instead forward the chaos config into the batch engine's own
//! boundary/cache sites. Injection is a pure function of
//! `(seed, key, site, attempt)`, so soaks reproduce.
//!
//! There is no signal handling here (the repo is `unsafe`-free, and
//! catching SIGTERM in pure std is not possible): the per-response journal
//! flush makes an uncooperative kill safe, and `POST /v1/shutdown` is the
//! cooperative drain — workers finish their in-flight requests, journal
//! them, and exit. See OPERATIONS.md for the runbook.

use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use kernels::digest::Hasher64;
use pass_core::json::{self, JsonValue};
use pass_core::report::json_str;
use pass_core::{Histogram, PipelineReport};
use vitis_sim::Target;

use crate::batch::{
    directives_repr, outcome_to_json, run_source, target_repr, BatchOptions, RunOutcome, Source,
};
use crate::cache::Cache;
use crate::experiment::Directives;
use crate::flow::Flow;
use crate::lint::LintReport;
use crate::resilience::{
    Breaker, BreakerConfig, BreakerDecision, FairQueue, FairQueueConfig, ShedClass, ShedReason,
};
use crate::supervisor::{
    ChaosConfig, ChaosEngine, ChaosFault, FaultClass, Journal, JournalError, StageError,
};
use crate::warden::{Warden, WardenConfig};

/// Journal header magic distinguishing serve journals from batch journals.
const JOURNAL_KIND: &str = "mha-serve";

/// Default cap on request bodies (1 MiB) — far above any suite kernel.
pub const DEFAULT_MAX_BODY: usize = 1 << 20;

/// Cap on a request head (request line + headers) before `400`.
const MAX_HEAD: usize = 16 << 10;

/// Per-poll read timeout while waiting for a request head: short enough
/// that intake threads multiplex many idle connections, long enough that
/// an active client completes in one poll.
const POLL_READ_MS: u64 = 15;

/// Acceptor sleep between empty non-blocking `accept` polls.
const ACCEPT_SLEEP_MS: u64 = 5;

/// The `Accept` media type that switches a compile response to chunked
/// stage-by-stage streaming.
pub const STREAM_MEDIA_TYPE: &str = "application/x-mha-stream";

/// Server configuration (the `mha-serve` CLI surface).
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Bind address; port 0 picks a free port (reported by [`Server::addr`]).
    pub addr: String,
    /// Worker threads; 0 means "use the machine's available parallelism".
    pub workers: usize,
    /// Artifact cache directory shared with `mha-batch`; `None` disables
    /// both the stage cache and the journal.
    pub cache_dir: Option<PathBuf>,
    /// Replay the serve journal on startup (warm restart). Ignored without
    /// a cache dir.
    pub resume: bool,
    /// Default per-request wall-clock deadline, overridable per request.
    pub deadline_ms: Option<u64>,
    /// Default per-request fuel allowance, overridable per request.
    pub fuel: Option<u64>,
    /// Synthesis target for every request.
    pub target: Target,
    /// Co-simulation input seed for suite kernels.
    pub seed: u64,
    /// Reject request bodies larger than this (HTTP 413).
    pub max_body: usize,
    /// Total body-read timeout per request (`--read-timeout-ms`); a body
    /// still incomplete past it is answered `408`. Setsockopt failures
    /// while arming it are logged and counted, never silently dropped.
    pub read_timeout_ms: u64,
    /// Header-read deadline: a connection whose request head is still
    /// incomplete this long after its first byte is answered `408`
    /// (slow-loris defense).
    pub header_deadline_ms: u64,
    /// Write timeout armed on every accepted connection.
    pub write_timeout_ms: u64,
    /// Honor HTTP/1.1 keep-alive (`--no-keep-alive` disables).
    pub keepalive: bool,
    /// Close keep-alive connections idle longer than this.
    pub keepalive_idle_ms: u64,
    /// Close keep-alive connections after this many requests.
    pub keepalive_max_requests: u32,
    /// Admission-queue policy: depth bound, DRR quantum, shed p99 bound.
    pub queue: FairQueueConfig,
    /// Circuit-breaker policy over the transient-fault rate.
    pub breaker: BreakerConfig,
    /// Seeded fault injection covering the serve layer and (for suite
    /// kernels) the batch engine's own chaos sites.
    pub chaos: Option<ChaosConfig>,
    /// Run compilations in isolated worker processes (`--isolate`): a
    /// worker segfault/abort/OOM becomes a typed `crash` 500 instead of
    /// server death.
    pub isolate: bool,
    /// Warm worker processes to pre-spawn (`--warden-pool`); 0 matches
    /// the compile worker-thread count. Ignored without `isolate`.
    pub warden_pool: usize,
    /// Recycle each worker process after this many requests
    /// (`--max-requests-per-worker`).
    pub max_requests_per_worker: u32,
    /// RSS ceiling per worker process in MiB (`--max-worker-rss-mb`);
    /// exceeding it gets the worker killed and the request a `crash` 500.
    pub max_worker_rss_mb: Option<u64>,
    /// Seeded crash injection at the in-worker `warden` chaos site
    /// (`--warden-chaos`): worker kill, RSS bomb, reply truncation.
    pub warden_chaos: Option<ChaosConfig>,
    /// Bound on the in-memory response cache (`--max-cached-responses`);
    /// least-recently-used entries are evicted past it. 0 disables the
    /// response cache entirely (journal replay still works per restart).
    pub max_cached_responses: usize,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            workers: 0,
            cache_dir: Some(Cache::default_dir()),
            resume: true,
            deadline_ms: None,
            fuel: None,
            target: Target::default(),
            seed: 2026,
            max_body: DEFAULT_MAX_BODY,
            read_timeout_ms: 10_000,
            header_deadline_ms: 2_000,
            write_timeout_ms: 10_000,
            keepalive: true,
            keepalive_idle_ms: 5_000,
            keepalive_max_requests: 1_000,
            queue: FairQueueConfig::default(),
            breaker: BreakerConfig::default(),
            chaos: None,
            isolate: false,
            warden_pool: 0,
            max_requests_per_worker: 256,
            max_worker_rss_mb: None,
            warden_chaos: None,
            max_cached_responses: 4096,
        }
    }
}

impl ServeConfig {
    /// Worker count after resolving 0 to the machine's parallelism.
    pub fn effective_workers(&self) -> usize {
        if self.workers > 0 {
            return self.workers;
        }
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4)
    }

    /// Intake threads: enough to multiplex connection reads without
    /// competing with the compile pool.
    fn intake_threads(&self) -> usize {
        (self.effective_workers() / 4).clamp(2, 8)
    }

    /// The configuration identity the serve journal is bound to. Budgets
    /// and directives are per-request (and part of each request's digest),
    /// so only the cross-request knobs participate — including chaos,
    /// since injected faults shape journaled outcomes.
    fn config_repr(&self) -> String {
        format!(
            "target={};seed={};chaos={}",
            target_repr(&self.target),
            self.seed,
            self.chaos.map(|c| c.repr()).unwrap_or_else(|| "-".into())
        )
    }
}

/// Why the server could not start.
#[derive(Debug)]
pub enum ServeError {
    /// Could not bind the listen address.
    Bind(String),
    /// Cache directory unusable.
    Cache(String),
    /// Journal unusable.
    Journal(JournalError),
    /// Worker-process pool could not start (`--isolate`).
    Warden(String),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Bind(e) => write!(f, "bind: {e}"),
            ServeError::Cache(e) => write!(f, "cache: {e}"),
            ServeError::Journal(e) => write!(f, "{e}"),
            ServeError::Warden(e) => write!(f, "worker pool: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// How a compile response was produced, reported in `X-Mha-Served`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Served {
    /// Ran the pipeline for this request.
    Compiled,
    /// Waited on an identical in-flight request and shared its response.
    Coalesced,
    /// Replayed from the in-memory response cache (completed earlier in
    /// this server's lifetime).
    Cache,
    /// Replayed from the journal of a previous server lifetime.
    Warm,
}

impl Served {
    /// Header value.
    pub fn as_str(self) -> &'static str {
        match self {
            Served::Compiled => "compiled",
            Served::Coalesced => "coalesced",
            Served::Cache => "cache",
            Served::Warm => "warm",
        }
    }
}

/// A finished response, replayable byte-for-byte.
#[derive(Clone, Debug)]
struct StoredResponse {
    code: u16,
    body: String,
    /// True when this entry came from journal replay (served as `warm`
    /// rather than `cache`).
    from_journal: bool,
}

/// The bounded in-memory response cache: an LRU over completed cacheable
/// responses. `u64` ticks order recency (bumped on every hit); eviction
/// scans for the minimum tick — O(n), fine at the few-thousand-entry caps
/// this serves. Counters feed `GET /v1/status`.
struct ResponseCache {
    map: HashMap<String, (StoredResponse, u64)>,
    tick: u64,
    cap: usize,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl ResponseCache {
    fn new(cap: usize) -> ResponseCache {
        ResponseCache {
            map: HashMap::new(),
            tick: 0,
            cap,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    fn get(&mut self, digest: &str) -> Option<StoredResponse> {
        self.tick += 1;
        match self.map.get_mut(digest) {
            Some((r, last)) => {
                *last = self.tick;
                self.hits += 1;
                Some(r.clone())
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    fn insert(&mut self, digest: String, r: StoredResponse) {
        if self.cap == 0 {
            return;
        }
        self.tick += 1;
        if !self.map.contains_key(&digest) && self.map.len() >= self.cap {
            if let Some(oldest) = self
                .map
                .iter()
                .min_by_key(|(_, (_, last))| *last)
                .map(|(k, _)| k.clone())
            {
                self.map.remove(&oldest);
                self.evictions += 1;
            }
        }
        self.map.insert(digest, (r, self.tick));
    }

    fn len(&self) -> usize {
        self.map.len()
    }
}

/// An in-flight compilation other requests can coalesce onto.
struct Inflight {
    slot: Mutex<Option<StoredResponse>>,
    done: Condvar,
}

/// Aggregate request counters + per-stage latency histograms.
#[derive(Default)]
struct Metrics {
    /// `POST /v1/compile` requests, by how they were served.
    compiled: u64,
    coalesced: u64,
    cache_hits: u64,
    warm_hits: u64,
    /// All responses, by status code.
    codes: HashMap<u16, u64>,
    /// Compile requests admitted to the fair queue.
    queued: u64,
    /// Compile requests shed at admission, by class.
    shed_raw: u64,
    shed_suite: u64,
    /// Connections refused at accept because the connection queue was full.
    accept_rejects: u64,
    /// Connections answered `408` for dribbling their head past the
    /// deadline (slow-loris).
    header_timeouts: u64,
    /// `setsockopt` (read/write timeout, nonblocking) failures.
    sockopt_failures: u64,
    /// Requests served on a connection that had already served one.
    keepalive_reuses: u64,
    /// Compile responses delivered as chunked progress streams.
    streamed: u64,
    /// Compiles degraded to the C++ fallback because the breaker was open.
    breaker_degraded: u64,
    /// C++-flow compiles answered `503` because the breaker was open
    /// (nothing left to degrade to).
    breaker_rejects: u64,
    /// Serve-layer chaos faults injected.
    chaos_injected: u64,
    /// Compile outcomes classified as worker-process crashes (`--isolate`).
    crashes: u64,
    /// Journal begin/finish appends that failed (disk full, permissions).
    /// The response is still served; the entry just won't replay warm.
    journal_write_failures: u64,
    /// End-to-end compile-request latency.
    request: Histogram,
    /// Time admitted jobs spent in the fair queue.
    queue_wait: Histogram,
    /// Per-stage latencies, recorded from completed pipeline reports.
    flow: Histogram,
    csynth: Histogram,
    cosim: Histogram,
}

impl Metrics {
    fn count_code(&mut self, code: u16) {
        *self.codes.entry(code).or_insert(0) += 1;
    }

    /// Fold a completed run's stage timings in: report pass names are
    /// either bare stage names (`flow`, `csynth`, `cosim` for cached
    /// stages) or stage-prefixed (`flow/lower`); bucket on the prefix.
    fn record_stages(&mut self, report: &PipelineReport) {
        let mut flow_us = 0u64;
        for p in &report.passes {
            let stage = p.pass.split('/').next().unwrap_or("");
            match stage {
                "flow" => flow_us += p.wall_us,
                "csynth" => self.csynth.record(p.wall_us),
                "cosim" => self.cosim.record(p.wall_us),
                _ => flow_us += p.wall_us,
            }
        }
        self.flow.record(flow_us);
    }
}

// ---------------------------------------------------------------------------
// Connections and queues
// ---------------------------------------------------------------------------

/// One client connection, owned by whichever thread is currently driving
/// it (intake while reading, a worker while compiling its request).
struct Conn {
    stream: TcpStream,
    /// Peer IP (no port — the fairness fallback identity).
    peer: String,
    /// Bytes read but not yet consumed (partial heads, pipelined data).
    buf: Vec<u8>,
    /// Responses already written on this connection.
    served: u32,
    /// Start of the current wait (for a first byte / next request).
    idle_since: Instant,
    /// When the current head's first byte arrived (None while idle).
    head_started: Option<Instant>,
    /// The `serve/read` chaos site fired for the current request.
    chaos_read_done: bool,
}

impl Conn {
    fn new(stream: TcpStream, peer: SocketAddr) -> Conn {
        Conn {
            stream,
            peer: peer.ip().to_string(),
            buf: Vec::new(),
            served: 0,
            idle_since: Instant::now(),
            head_started: None,
            chaos_read_done: false,
        }
    }

    /// Rearm for the next keep-alive request (pipelined bytes stay in
    /// `buf` and count as an already-started head).
    fn reset_for_next(&mut self) {
        self.served += 1;
        self.idle_since = Instant::now();
        self.head_started = if self.buf.is_empty() {
            None
        } else {
            Some(Instant::now())
        };
        self.chaos_read_done = false;
    }
}

enum ConnPop {
    Conn(Box<Conn>),
    Empty,
    Closed,
}

/// The connection queue between acceptor/workers and intake. Closing it
/// (drain) makes pushes drop their connection and pops return [`ConnPop::
/// Closed`] once the backlog is consumed.
struct ConnQueue {
    inner: Mutex<(VecDeque<Box<Conn>>, bool)>,
    ready: Condvar,
}

impl ConnQueue {
    fn new() -> ConnQueue {
        ConnQueue {
            inner: Mutex::new((VecDeque::new(), false)),
            ready: Condvar::new(),
        }
    }

    fn len(&self) -> usize {
        self.inner.lock().unwrap_or_else(|p| p.into_inner()).0.len()
    }

    fn push(&self, conn: Box<Conn>) {
        let mut inner = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        if inner.1 {
            return; // draining: drop (closes) the connection
        }
        inner.0.push_back(conn);
        drop(inner);
        self.ready.notify_one();
    }

    fn pop_wait(&self, timeout: Duration) -> ConnPop {
        let mut inner = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        loop {
            if let Some(c) = inner.0.pop_front() {
                return ConnPop::Conn(c);
            }
            if inner.1 {
                return ConnPop::Closed;
            }
            let (guard, result) = self
                .ready
                .wait_timeout(inner, timeout)
                .unwrap_or_else(|p| p.into_inner());
            inner = guard;
            if result.timed_out() {
                return match inner.0.pop_front() {
                    Some(c) => ConnPop::Conn(c),
                    None if inner.1 => ConnPop::Closed,
                    None => ConnPop::Empty,
                };
            }
        }
    }

    fn close(&self) {
        self.inner.lock().unwrap_or_else(|p| p.into_inner()).1 = true;
        self.ready.notify_all();
    }
}

/// A compile request admitted to the fair queue: the connection travels
/// with it, and the worker that pops it answers the client.
struct QueuedJob {
    conn: Box<Conn>,
    req: CompileRequest,
    digest: String,
    /// Client asked for chunked progress streaming.
    stream_mode: bool,
    /// Client asked to keep the connection alive.
    keep: bool,
    /// When the request head finished parsing (end-to-end latency base).
    start: Instant,
}

/// Everything the worker threads share.
struct ServerState {
    config: ServeConfig,
    started: Instant,
    draining: AtomicBool,
    busy: AtomicUsize,
    journal: Option<Journal>,
    chaos: Option<ChaosEngine>,
    conns: ConnQueue,
    queue: FairQueue<QueuedJob>,
    breaker: Breaker,
    inflight: Mutex<HashMap<String, Arc<Inflight>>>,
    responses: Mutex<ResponseCache>,
    /// Worker-process pool (`--isolate`); `None` compiles in-process.
    warden: Option<Warden>,
    /// Per-digest response-write attempt counters, keying the
    /// `serve/response` chaos site so an injected socket reset clears on
    /// the client's retry (same attempt semantics as the batch sites).
    response_attempts: Mutex<HashMap<String, u32>>,
    metrics: Mutex<Metrics>,
}

impl ServerState {
    fn draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    fn begin_drain(&self) {
        self.draining.store(true, Ordering::SeqCst);
        self.conns.close();
        self.queue.close();
    }

    /// Count (and log, once per process) a failed setsockopt.
    fn note_sockopt(&self, what: &str, e: &io::Error) {
        static LOGGED: AtomicBool = AtomicBool::new(false);
        let mut m = self.metrics.lock().unwrap();
        m.sockopt_failures += 1;
        drop(m);
        if !LOGGED.swap(true, Ordering::Relaxed) {
            eprintln!("mha-serve: setsockopt {what} failed: {e} (counted in /v1/status)");
        }
    }

    /// Count (and log, once per process) a failed journal append. The
    /// response itself is unaffected — it just won't replay warm after a
    /// restart — but the operator must be able to see the disk is sick.
    fn note_journal_failure(&self, e: &JournalError) {
        static LOGGED: AtomicBool = AtomicBool::new(false);
        self.metrics.lock().unwrap().journal_write_failures += 1;
        if !LOGGED.swap(true, Ordering::Relaxed) {
            eprintln!("mha-serve: journal append failed: {e} (counted in /v1/status)");
        }
    }

    fn roll_chaos(&self, key: &str, site: &str, attempt: u32, menu: &[ChaosFault]) -> bool {
        let Some(engine) = &self.chaos else {
            return false;
        };
        if engine.roll(key, site, attempt, menu).is_some() {
            self.metrics.lock().unwrap().chaos_injected += 1;
            return true;
        }
        false
    }
}

/// A running `mha-serve` instance (also usable in-process, which is how
/// `tests/serve.rs` drives it).
pub struct Server {
    state: Arc<ServerState>,
    addr: SocketAddr,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Bind, replay the journal if resuming, and spawn the acceptor,
    /// intake, and worker threads.
    pub fn start(config: ServeConfig) -> Result<Server, ServeError> {
        let listener =
            TcpListener::bind(&config.addr).map_err(|e| ServeError::Bind(e.to_string()))?;
        listener
            .set_nonblocking(true)
            .map_err(|e| ServeError::Bind(format!("set_nonblocking: {e}")))?;
        let addr = listener
            .local_addr()
            .map_err(|e| ServeError::Bind(e.to_string()))?;

        // Fail fast on an unusable cache directory; each compile reopens it.
        if let Some(dir) = &config.cache_dir {
            Cache::open(dir).map_err(|e| ServeError::Cache(e.to_string()))?;
        }
        let mut responses = ResponseCache::new(config.max_cached_responses);
        let journal = match &config.cache_dir {
            Some(dir) => {
                let path = dir.join("serve.jsonl");
                let repr = config.config_repr();
                if config.resume {
                    match Journal::resume_kind(&path, JOURNAL_KIND, &repr) {
                        Ok((j, outcomes)) => {
                            for (digest, v) in &outcomes {
                                if let Some(r) = stored_from_journal(v) {
                                    responses.insert(digest.clone(), r);
                                }
                            }
                            Some(j)
                        }
                        Err(JournalError::ConfigMismatch { .. }) => {
                            eprintln!(
                                "mha-serve: journal was written under a different \
                                 target/seed/chaos config; starting fresh"
                            );
                            Some(
                                Journal::create_kind(&path, JOURNAL_KIND, &repr)
                                    .map_err(ServeError::Journal)?,
                            )
                        }
                        Err(e) => return Err(ServeError::Journal(e)),
                    }
                } else {
                    Some(
                        Journal::create_kind(&path, JOURNAL_KIND, &repr)
                            .map_err(ServeError::Journal)?,
                    )
                }
            }
            None => None,
        };
        let n_warm = responses.len();
        if n_warm > 0 {
            eprintln!("mha-serve: replayed {n_warm} journaled response(s)");
        }

        let warden = if config.isolate {
            let pool = if config.warden_pool > 0 {
                config.warden_pool
            } else {
                config.effective_workers()
            };
            Some(
                Warden::new(WardenConfig {
                    pool,
                    max_requests_per_worker: config.max_requests_per_worker,
                    max_rss_mb: config.max_worker_rss_mb,
                    chaos: config.warden_chaos,
                    ..WardenConfig::default()
                })
                .map_err(ServeError::Warden)?,
            )
        } else {
            None
        };

        let state = Arc::new(ServerState {
            started: Instant::now(),
            draining: AtomicBool::new(false),
            busy: AtomicUsize::new(0),
            journal,
            chaos: config.chaos.map(ChaosEngine::new),
            conns: ConnQueue::new(),
            queue: FairQueue::new(config.queue),
            breaker: Breaker::new(config.breaker),
            inflight: Mutex::new(HashMap::new()),
            responses: Mutex::new(responses),
            warden,
            response_attempts: Mutex::new(HashMap::new()),
            metrics: Mutex::new(Metrics::default()),
            config,
        });

        let workers = state.config.effective_workers();
        let intakes = state.config.intake_threads();
        let mut handles = Vec::with_capacity(1 + intakes + workers);
        {
            let state = Arc::clone(&state);
            handles.push(std::thread::spawn(move || acceptor_loop(listener, state)));
        }
        for _ in 0..intakes {
            let state = Arc::clone(&state);
            handles.push(std::thread::spawn(move || intake_loop(state)));
        }
        for _ in 0..workers {
            let state = Arc::clone(&state);
            handles.push(std::thread::spawn(move || worker_loop(state)));
        }
        Ok(Server {
            state,
            addr,
            handles,
        })
    }

    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// True once a drain was requested (via [`Server::stop`] or
    /// `POST /v1/shutdown`).
    pub fn draining(&self) -> bool {
        self.state.draining()
    }

    /// Block until every thread has exited (drain completion).
    pub fn join(mut self) {
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }

    /// Request a drain and block until in-flight work is finished and
    /// journaled: the drain flag stops the (non-blocking) acceptor,
    /// closing the queues drains intake and the workers — no loopback
    /// nudge connections required.
    pub fn stop(self) {
        self.state.begin_drain();
        self.join();
    }
}

// MARK: acceptor/intake (appended below)

// ---------------------------------------------------------------------------
// Acceptor and intake
// ---------------------------------------------------------------------------

fn acceptor_loop(listener: TcpListener, state: Arc<ServerState>) {
    // Refuse new connections once the backlog would dwarf the admission
    // queue; the fair queue's own shed policy handles finer-grained load.
    let max_backlog = state.config.queue.max_depth * 2 + 64;
    loop {
        if state.draining() {
            return;
        }
        match listener.accept() {
            Ok((stream, peer)) => {
                if let Err(e) = stream.set_nonblocking(false) {
                    state.note_sockopt("nonblocking", &e);
                }
                // Nagle + delayed ACK costs ~40ms per response on loopback;
                // responses and stream chunks are whole writes anyway.
                if let Err(e) = stream.set_nodelay(true) {
                    state.note_sockopt("nodelay", &e);
                }
                if let Err(e) = stream
                    .set_write_timeout(Some(Duration::from_millis(state.config.write_timeout_ms)))
                {
                    state.note_sockopt("write timeout", &e);
                }
                let mut conn = Box::new(Conn::new(stream, peer));
                if state.conns.len() >= max_backlog {
                    let mut m = state.metrics.lock().unwrap();
                    m.accept_rejects += 1;
                    m.count_code(429);
                    drop(m);
                    let wire = Wire {
                        code: 429,
                        body: error_body(429, "connection backlog full"),
                        served: None,
                        retry_after_s: Some(1),
                    };
                    let _ = write_wire(&mut conn, &wire, false, &state.config);
                } else {
                    state.conns.push(conn);
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(ACCEPT_SLEEP_MS));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(ACCEPT_SLEEP_MS)),
        }
    }
}

/// One step of driving a connection's read side.
enum PollOutcome {
    /// A full request (head + body) was read.
    Ready(HttpRequest),
    /// No complete head yet; the connection goes back in the queue
    /// unless a deadline has passed.
    Pending,
    /// Peer closed (or errored); drop silently.
    Gone,
    /// Malformed or over-limit input: answer with this status and close.
    Bad(u16, String),
}

fn intake_loop(state: Arc<ServerState>) {
    loop {
        let mut conn = match state.conns.pop_wait(Duration::from_millis(50)) {
            ConnPop::Conn(c) => c,
            ConnPop::Empty => continue,
            ConnPop::Closed => return,
        };
        match poll_conn(&state, &mut conn) {
            PollOutcome::Ready(req) => dispatch(&state, conn, req),
            PollOutcome::Gone => {}
            PollOutcome::Bad(code, detail) => {
                let mut m = state.metrics.lock().unwrap();
                m.count_code(code);
                if code == 408 && conn.head_started.is_some() {
                    m.header_timeouts += 1;
                }
                drop(m);
                let wire = Wire {
                    code,
                    body: error_body(code, &detail),
                    served: None,
                    retry_after_s: None,
                };
                // Connection state is unknown after malformed input: close.
                let _ = write_wire(&mut conn, &wire, false, &state.config);
            }
            PollOutcome::Pending => {
                let cfg = &state.config;
                if let Some(started) = conn.head_started {
                    // A head is dribbling in: the slow-loris deadline.
                    if started.elapsed() >= Duration::from_millis(cfg.header_deadline_ms) {
                        let mut m = state.metrics.lock().unwrap();
                        m.count_code(408);
                        m.header_timeouts += 1;
                        drop(m);
                        let wire = Wire {
                            code: 408,
                            body: error_body(408, "header read deadline exceeded"),
                            served: None,
                            retry_after_s: None,
                        };
                        let _ = write_wire(&mut conn, &wire, false, cfg);
                        continue;
                    }
                } else if conn.idle_since.elapsed() >= Duration::from_millis(cfg.keepalive_idle_ms)
                {
                    // Idle reap (both fresh-and-silent and between-requests).
                    continue;
                }
                state.conns.push(conn);
            }
        }
    }
}

/// Read whatever the connection has for us right now. Blocks at most
/// ~[`POLL_READ_MS`] while the head is incomplete; once a head is in,
/// blocks up to the body-read timeout for the rest of the request.
fn poll_conn(state: &ServerState, conn: &mut Conn) -> PollOutcome {
    // Chaos: a slow peer/read path, once per request.
    if !conn.chaos_read_done {
        conn.chaos_read_done = true;
        let peer = conn.peer.clone();
        if state.roll_chaos(&peer, "serve/read", conn.served, &[ChaosFault::SlowRead]) {
            std::thread::sleep(Duration::from_millis(40));
        }
    }
    if let Err(e) = conn
        .stream
        .set_read_timeout(Some(Duration::from_millis(POLL_READ_MS)))
    {
        state.note_sockopt("read timeout", &e);
    }
    let mut tmp = [0u8; 4096];
    loop {
        if let Some(head_end) = find_head_end(&conn.buf) {
            return read_rest(state, conn, head_end);
        }
        if conn.buf.len() > MAX_HEAD {
            return PollOutcome::Bad(400, "request head exceeds 16 KiB".into());
        }
        match conn.stream.read(&mut tmp) {
            Ok(0) => return PollOutcome::Gone,
            Ok(n) => {
                if conn.head_started.is_none() {
                    conn.head_started = Some(Instant::now());
                }
                conn.buf.extend_from_slice(&tmp[..n]);
            }
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                return PollOutcome::Pending;
            }
            Err(_) => return PollOutcome::Gone,
        }
    }
}

/// Head complete: parse it and pull in the body under the configured
/// read timeout.
fn read_rest(state: &ServerState, conn: &mut Conn, head_end: usize) -> PollOutcome {
    let head = match parse_head(&conn.buf[..head_end]) {
        Ok(h) => h,
        Err((code, detail)) => return PollOutcome::Bad(code, detail),
    };
    if head.content_length > state.config.max_body {
        return PollOutcome::Bad(
            413,
            format!(
                "body of {} bytes exceeds the {}-byte cap",
                head.content_length, state.config.max_body
            ),
        );
    }
    let total = head_end + head.content_length;
    let deadline = Instant::now() + Duration::from_millis(state.config.read_timeout_ms);
    let mut tmp = [0u8; 4096];
    while conn.buf.len() < total {
        let Some(remaining) = deadline.checked_duration_since(Instant::now()) else {
            return PollOutcome::Bad(408, "body read deadline exceeded".into());
        };
        let slice = remaining
            .min(Duration::from_millis(200))
            .max(Duration::from_millis(1));
        if let Err(e) = conn.stream.set_read_timeout(Some(slice)) {
            state.note_sockopt("read timeout", &e);
        }
        match conn.stream.read(&mut tmp) {
            Ok(0) => return PollOutcome::Bad(400, "short body".into()),
            Ok(n) => conn.buf.extend_from_slice(&tmp[..n]),
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut => {
            }
            Err(e) => return PollOutcome::Bad(400, format!("body read failed: {e}")),
        }
    }
    let body = match String::from_utf8(conn.buf[head_end..total].to_vec()) {
        Ok(s) => s,
        Err(_) => return PollOutcome::Bad(400, "body is not UTF-8".into()),
    };
    // Keep pipelined bytes beyond this request.
    conn.buf.drain(..total);
    PollOutcome::Ready(HttpRequest {
        method: head.method,
        path: head.path,
        body,
        client: head.client,
        keep_alive: head.keep_alive,
        stream_mode: head.stream_mode,
    })
}

/// Index just past the `\r\n\r\n` head terminator, if present.
fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n").map(|i| i + 4)
}

/// A parsed HTTP/1.1 request.
struct HttpRequest {
    method: String,
    path: String,
    body: String,
    /// `X-Mha-Client` fairness identity, if sent.
    client: Option<String>,
    /// The request allows connection reuse (HTTP/1.1 default).
    keep_alive: bool,
    /// `Accept: application/x-mha-stream` progress streaming.
    stream_mode: bool,
}

struct ParsedHead {
    method: String,
    path: String,
    content_length: usize,
    client: Option<String>,
    keep_alive: bool,
    stream_mode: bool,
}

fn parse_head(head: &[u8]) -> Result<ParsedHead, (u16, String)> {
    let text = std::str::from_utf8(head).map_err(|_| (400, "head is not UTF-8".to_string()))?;
    let mut lines = text.split("\r\n");
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or("").to_string();
    let path = parts.next().unwrap_or("").to_string();
    let version = parts.next().unwrap_or("HTTP/1.1");
    if method.is_empty() || path.is_empty() {
        return Err((400, "empty request line".into()));
    }
    let mut content_length = 0usize;
    let mut client = None;
    let mut keep_alive = version != "HTTP/1.0";
    let mut stream_mode = false;
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let Some((name, value)) = line.split_once(':') else {
            continue;
        };
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            content_length = value
                .parse()
                .map_err(|_| (400, "unparsable Content-Length".to_string()))?;
        } else if name.eq_ignore_ascii_case("connection") {
            if value.eq_ignore_ascii_case("close") {
                keep_alive = false;
            } else if value.eq_ignore_ascii_case("keep-alive") {
                keep_alive = true;
            }
        } else if name.eq_ignore_ascii_case("x-mha-client") {
            if !value.is_empty() {
                client = Some(value.chars().take(64).collect());
            }
        } else if name.eq_ignore_ascii_case("accept") && value.contains(STREAM_MEDIA_TYPE) {
            stream_mode = true;
        }
    }
    Ok(ParsedHead {
        method,
        path,
        content_length,
        client,
        keep_alive,
        stream_mode,
    })
}

// ---------------------------------------------------------------------------
// Response writing (plain and streamed)
// ---------------------------------------------------------------------------

fn reason(code: u16) -> &'static str {
    match code {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "",
    }
}

/// A response about to hit the wire.
struct Wire {
    code: u16,
    body: String,
    served: Option<Served>,
    /// Explicit back-off hint; every `429`/`503` gets `Retry-After`
    /// regardless (defaulting to 1 s), so clients can always distinguish
    /// "come back later" from a hard failure.
    retry_after_s: Option<u64>,
}

fn connection_headers(keep: bool, conn_served: u32, cfg: &ServeConfig) -> String {
    if keep {
        let remaining = cfg.keepalive_max_requests.saturating_sub(conn_served + 1);
        format!(
            "Connection: keep-alive\r\nKeep-Alive: timeout={}, max={}\r\n",
            cfg.keepalive_idle_ms.div_ceil(1000),
            remaining
        )
    } else {
        "Connection: close\r\n".to_string()
    }
}

fn retry_after_header(w: &Wire) -> String {
    if w.code == 429 || w.code == 503 {
        format!("Retry-After: {}\r\n", w.retry_after_s.unwrap_or(1))
    } else {
        String::new()
    }
}

fn write_wire(conn: &mut Conn, w: &Wire, keep: bool, cfg: &ServeConfig) -> io::Result<()> {
    let served_header = match w.served {
        Some(s) => format!("X-Mha-Served: {}\r\n", s.as_str()),
        None => String::new(),
    };
    // One write per response: head and body split across two segments
    // interacts badly with Nagle/delayed-ACK on keep-alive connections.
    let msg = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\n{}{}{}\r\n{}",
        w.code,
        reason(w.code),
        w.body.len(),
        served_header,
        retry_after_header(w),
        connection_headers(keep, conn.served, cfg),
        w.body,
    );
    conn.stream.write_all(msg.as_bytes())?;
    conn.stream.flush()
}

/// Progress-stream bookkeeping for one response.
#[derive(Default)]
struct StreamSt {
    begun: bool,
    dead: bool,
}

/// Start a chunked `application/x-mha-stream` response. The HTTP status
/// is always 200 (the real outcome code rides in the final `done` event,
/// because it is not known when streaming starts).
fn stream_begin(conn: &mut Conn, st: &mut StreamSt, digest: &str, keep: bool, cfg: &ServeConfig) {
    if st.begun || st.dead {
        return;
    }
    st.begun = true;
    let head = format!(
        "HTTP/1.1 200 OK\r\nContent-Type: {STREAM_MEDIA_TYPE}\r\nTransfer-Encoding: chunked\r\n{}\r\n",
        connection_headers(keep, conn.served, cfg),
    );
    if conn.stream.write_all(head.as_bytes()).is_err() {
        st.dead = true;
        return;
    }
    stream_event(
        conn,
        st,
        &format!("{{\"event\":\"start\",\"digest\":{}}}", json_str(digest)),
    );
}

/// Emit one JSON-line event as a chunk. Write failures mark the stream
/// dead but never abort the compile — the canonical result still has to
/// be journaled for retries.
fn stream_event(conn: &mut Conn, st: &mut StreamSt, payload: &str) {
    if !st.begun || st.dead {
        return;
    }
    let line = format!("{payload}\n");
    let chunk = format!("{:x}\r\n{line}\r\n", line.len());
    if conn.stream.write_all(chunk.as_bytes()).is_err() || conn.stream.flush().is_err() {
        st.dead = true;
    }
}

/// Final `done` event (embedding the canonical response document and the
/// real status code) plus the terminating chunk. Returns false if the
/// stream died along the way.
fn stream_finish(conn: &mut Conn, st: &mut StreamSt, w: &Wire) -> bool {
    let served = w
        .served
        .map(|s| format!(",\"served\":{}", json_str(s.as_str())))
        .unwrap_or_default();
    let retry = w
        .retry_after_s
        .map(|s| format!(",\"retry_after_s\":{s}"))
        .unwrap_or_default();
    stream_event(
        conn,
        st,
        &format!(
            "{{\"event\":\"done\",\"code\":{}{served}{retry},\"body\":{}}}",
            w.code, w.body
        ),
    );
    if st.dead {
        return false;
    }
    if conn.stream.write_all(b"0\r\n\r\n").is_err() || conn.stream.flush().is_err() {
        st.dead = true;
    }
    !st.dead
}

fn error_body(code: u16, detail: &str) -> String {
    format!(
        "{{\"status\":\"error\",\"code\":{code},\"error\":{}}}",
        json_str(detail)
    )
}

// MARK: dispatch/workers (appended below)

// ---------------------------------------------------------------------------
// Dispatch (intake side)
// ---------------------------------------------------------------------------

/// Whether the connection may be kept alive after the next response.
fn keep_ok(state: &ServerState, requested: bool, conn_served: u32) -> bool {
    state.config.keepalive
        && requested
        && !state.draining()
        && conn_served + 1 < state.config.keepalive_max_requests
}

/// Write `wire`, then either requeue the connection for its next request
/// or let it drop (which closes it).
fn finish(state: &ServerState, mut conn: Box<Conn>, wire: &Wire, keep_wanted: bool) {
    let keep = keep_ok(state, keep_wanted, conn.served);
    if write_wire(&mut conn, wire, keep, &state.config).is_ok() && keep {
        conn.reset_for_next();
        state.conns.push(conn);
    }
}

fn dispatch(state: &Arc<ServerState>, conn: Box<Conn>, req: HttpRequest) {
    if conn.served > 0 {
        state.metrics.lock().unwrap().keepalive_reuses += 1;
    }
    match (req.method.as_str(), req.path.as_str()) {
        ("POST", "/v1/compile") => dispatch_compile(state, conn, req),
        ("GET", "/v1/status") => {
            let body = status_body(state);
            state.metrics.lock().unwrap().count_code(200);
            let wire = Wire {
                code: 200,
                body,
                served: None,
                retry_after_s: None,
            };
            finish(state, conn, &wire, req.keep_alive);
        }
        ("GET", "/v1/healthz") => {
            let (code, body) = if state.draining() {
                (503, "{\"ok\":false,\"draining\":true}".to_string())
            } else {
                (200, "{\"ok\":true}".to_string())
            };
            state.metrics.lock().unwrap().count_code(code);
            let wire = Wire {
                code,
                body,
                served: None,
                retry_after_s: Some(1),
            };
            finish(state, conn, &wire, req.keep_alive);
        }
        ("POST", "/v1/shutdown") => {
            state.begin_drain();
            state.metrics.lock().unwrap().count_code(200);
            let wire = Wire {
                code: 200,
                body: "{\"draining\":true}".to_string(),
                served: None,
                retry_after_s: None,
            };
            finish(state, conn, &wire, false);
        }
        ("GET", _) | ("POST", _) => {
            state.metrics.lock().unwrap().count_code(404);
            let wire = Wire {
                code: 404,
                body: error_body(404, "no such endpoint"),
                served: None,
                retry_after_s: None,
            };
            finish(state, conn, &wire, req.keep_alive);
        }
        _ => {
            state.metrics.lock().unwrap().count_code(405);
            let wire = Wire {
                code: 405,
                body: error_body(405, "use GET or POST"),
                served: None,
                retry_after_s: None,
            };
            finish(state, conn, &wire, req.keep_alive);
        }
    }
}

/// `Retry-After` hint for replayed/shared responses.
fn retry_for(code: u16) -> Option<u64> {
    if code == 429 || code == 503 {
        Some(1)
    } else {
        None
    }
}

fn record_compile_metrics(state: &ServerState, wire: &Wire, start: Instant, streamed: bool) {
    let mut m = state.metrics.lock().unwrap();
    m.request.record(start.elapsed().as_micros() as u64);
    m.count_code(wire.code);
    if streamed {
        m.streamed += 1;
    }
    match wire.served {
        Some(Served::Compiled) => m.compiled += 1,
        Some(Served::Coalesced) => m.coalesced += 1,
        Some(Served::Cache) => m.cache_hits += 1,
        Some(Served::Warm) => m.warm_hits += 1,
        None => {}
    }
}

/// Deliver a compile response from the intake side (warm/cache hits and
/// sheds — never subject to response chaos, mirroring "warm hits are
/// never shed").
fn deliver_inline(
    state: &ServerState,
    mut conn: Box<Conn>,
    wire: &Wire,
    keep_wanted: bool,
    stream_mode: bool,
    digest: &str,
) {
    let keep = keep_ok(state, keep_wanted, conn.served);
    let ok = if stream_mode {
        let mut st = StreamSt::default();
        stream_begin(&mut conn, &mut st, digest, keep, &state.config);
        stream_finish(&mut conn, &mut st, wire)
    } else {
        write_wire(&mut conn, wire, keep, &state.config).is_ok()
    };
    if ok && keep {
        conn.reset_for_next();
        state.conns.push(conn);
    }
}

fn dispatch_compile(state: &Arc<ServerState>, conn: Box<Conn>, req: HttpRequest) {
    let start = Instant::now();
    if state.draining() {
        state.metrics.lock().unwrap().count_code(503);
        let wire = Wire {
            code: 503,
            body: error_body(503, "draining; retry against the restarted instance"),
            served: None,
            retry_after_s: Some(1),
        };
        finish(state, conn, &wire, false);
        return;
    }
    let creq = match CompileRequest::parse(&req.body) {
        Ok(r) => r,
        Err(e) => {
            state.metrics.lock().unwrap().count_code(400);
            let wire = Wire {
                code: 400,
                body: error_body(400, &e),
                served: None,
                retry_after_s: None,
            };
            finish(state, conn, &wire, req.keep_alive);
            return;
        }
    };
    let digest = creq.digest(&state.config);

    // Warm/cache fast path: answered inline, never queued, never shed.
    let hit = state.responses.lock().unwrap().get(&digest);
    if let Some(r) = hit {
        let served = if r.from_journal {
            Served::Warm
        } else {
            Served::Cache
        };
        let wire = Wire {
            retry_after_s: retry_for(r.code),
            code: r.code,
            body: r.body,
            served: Some(served),
        };
        record_compile_metrics(state, &wire, start, req.stream_mode);
        deliver_inline(state, conn, &wire, req.keep_alive, req.stream_mode, &digest);
        return;
    }

    // Cold compile: admit under the fairness/shedding policy.
    let client = req.client.clone().unwrap_or_else(|| conn.peer.clone());
    let class = if creq.kernel.is_some() {
        ShedClass::Suite
    } else {
        ShedClass::Raw
    };
    let job = QueuedJob {
        conn,
        req: creq,
        digest,
        stream_mode: req.stream_mode,
        keep: req.keep_alive,
        start,
    };
    match state.queue.try_admit(&client, class, job) {
        Ok(_) => state.metrics.lock().unwrap().queued += 1,
        Err((job, shed)) => {
            let mut m = state.metrics.lock().unwrap();
            match class {
                ShedClass::Raw => m.shed_raw += 1,
                ShedClass::Suite => m.shed_suite += 1,
            }
            m.count_code(429);
            m.request.record(start.elapsed().as_micros() as u64);
            drop(m);
            let detail = match shed.reason {
                ShedReason::Full => "admission queue full; request shed",
                ShedReason::Pressure => "admission queue under pressure; request shed",
            };
            let wire = Wire {
                code: 429,
                body: error_body(429, detail),
                served: None,
                retry_after_s: Some(shed.retry_after_s),
            };
            finish(state, job.conn, &wire, job.keep);
        }
    }
}

// ---------------------------------------------------------------------------
// Workers
// ---------------------------------------------------------------------------

fn worker_loop(state: Arc<ServerState>) {
    while let Some((job, wait, _client)) = state.queue.pop() {
        state.busy.fetch_add(1, Ordering::SeqCst);
        state
            .metrics
            .lock()
            .unwrap()
            .queue_wait
            .record(wait.as_micros() as u64);
        process_job(&state, job);
        state.busy.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Deliver a worker-produced compile response. The `serve/response` chaos
/// site lives here: an injected socket reset drops the connection *after*
/// the response was journaled, so nothing cacheable is ever lost — the
/// client's retry replays it warm. The per-digest attempt counter lets
/// the fault clear on retry, like every transient chaos site.
fn respond_job(
    state: &ServerState,
    mut conn: Box<Conn>,
    wire: &Wire,
    keep_wanted: bool,
    stream_mode: bool,
    digest: &str,
    mut st: StreamSt,
) {
    let attempt = {
        let mut map = state.response_attempts.lock().unwrap();
        let a = map.entry(digest.to_string()).or_insert(0);
        let cur = *a;
        *a += 1;
        cur
    };
    // Only the first write attempt per digest is eligible for a reset, so
    // a client retry always recovers — even at injection rate 1.0.
    if attempt == 0
        && state.roll_chaos(
            digest,
            "serve/response",
            attempt,
            &[ChaosFault::SocketReset],
        )
    {
        let _ = conn.stream.shutdown(std::net::Shutdown::Both);
        return;
    }
    let keep = keep_ok(state, keep_wanted, conn.served);
    let ok = if stream_mode {
        stream_begin(&mut conn, &mut st, digest, keep, &state.config);
        stream_finish(&mut conn, &mut st, wire)
    } else {
        write_wire(&mut conn, wire, keep, &state.config).is_ok()
    };
    if ok && keep {
        conn.reset_for_next();
        state.conns.push(conn);
    }
}

fn process_job(state: &Arc<ServerState>, job: QueuedJob) {
    let QueuedJob {
        mut conn,
        req,
        digest,
        stream_mode,
        keep,
        start,
    } = job;

    // Chaos: stall this worker before it starts (queue pressure builds).
    if state.roll_chaos(&digest, "serve/worker", 0, &[ChaosFault::WorkerStall]) {
        std::thread::sleep(Duration::from_millis(150));
    }

    // A duplicate may have completed while this job sat in the queue.
    let hit = state.responses.lock().unwrap().get(&digest);
    if let Some(r) = hit {
        let served = if r.from_journal {
            Served::Warm
        } else {
            Served::Cache
        };
        let wire = Wire {
            retry_after_s: retry_for(r.code),
            code: r.code,
            body: r.body,
            served: Some(served),
        };
        record_compile_metrics(state, &wire, start, stream_mode);
        respond_job(
            state,
            conn,
            &wire,
            keep,
            stream_mode,
            &digest,
            StreamSt::default(),
        );
        return;
    }

    // Coalesce onto an identical in-flight request, or claim the slot.
    let inflight = {
        let mut map = state.inflight.lock().unwrap();
        match map.get(&digest) {
            Some(found) => Some(Arc::clone(found)),
            None => {
                map.insert(
                    digest.clone(),
                    Arc::new(Inflight {
                        slot: Mutex::new(None),
                        done: Condvar::new(),
                    }),
                );
                None
            }
        }
    };
    if let Some(inflight) = inflight {
        let mut slot = inflight.slot.lock().unwrap();
        while slot.is_none() {
            slot = inflight.done.wait(slot).unwrap();
        }
        let r = slot.as_ref().unwrap().clone();
        drop(slot);
        let wire = Wire {
            retry_after_s: retry_for(r.code),
            code: r.code,
            body: r.body,
            served: Some(Served::Coalesced),
        };
        record_compile_metrics(state, &wire, start, stream_mode);
        respond_job(
            state,
            conn,
            &wire,
            keep,
            stream_mode,
            &digest,
            StreamSt::default(),
        );
        return;
    }

    // We own the compilation: breaker decision, journal, compile, publish.
    let decision = state.breaker.admit();
    let degrade = decision == BreakerDecision::Degrade;
    let mut st = StreamSt::default();
    if stream_mode {
        // The stream head goes out before compiling; keep-alive is
        // advertised optimistically and re-checked at delivery.
        let keep_adv = keep_ok(state, keep, conn.served);
        stream_begin(&mut conn, &mut st, &digest, keep_adv, &state.config);
    }
    let result = if degrade && req.flow == Flow::Cpp {
        // Already on the deterministic path: nothing to degrade to.
        state.metrics.lock().unwrap().breaker_rejects += 1;
        let retry_s = state.breaker.retry_after_ms().div_ceil(1000).max(1);
        CompileResult {
            code: 503,
            body: error_body(503, "circuit breaker open; retry after cooldown"),
            transient: false,
            retry_after_s: Some(retry_s),
        }
    } else {
        if degrade {
            state.metrics.lock().unwrap().breaker_degraded += 1;
        } else if let Some(j) = &state.journal {
            if let Err(e) = j.begin(&digest) {
                state.note_journal_failure(&e);
            }
        }
        let mut r = compile_locked(state, &req, &digest, degrade, &mut |stage| {
            stream_event(
                &mut conn,
                &mut st,
                &format!("{{\"event\":\"stage\",\"stage\":{}}}", json_str(stage)),
            );
        });
        r.retry_after_s = retry_for(r.code);
        r
    };
    if decision != BreakerDecision::Degrade {
        state
            .breaker
            .report(decision == BreakerDecision::Probe, result.transient);
    }
    let stored = StoredResponse {
        code: result.code,
        body: result.body.clone(),
        from_journal: false,
    };
    // Breaker-degraded (and breaker-rejected) responses are not canonical
    // for the digest — they depend on breaker state, not request identity
    // — so they are never cached or journaled.
    if !degrade && cacheable(result.code) {
        if let Some(j) = &state.journal {
            if let Err(e) = j.finish(&digest, &stored_to_journal(&stored)) {
                state.note_journal_failure(&e);
            }
        }
        state
            .responses
            .lock()
            .unwrap()
            .insert(digest.clone(), stored.clone());
    }
    // Publish to coalesced waiters before releasing the in-flight slot.
    let inflight = state.inflight.lock().unwrap().remove(&digest);
    if let Some(inflight) = inflight {
        *inflight.slot.lock().unwrap() = Some(stored);
        inflight.done.notify_all();
    }
    let wire = Wire {
        code: result.code,
        body: result.body,
        served: Some(Served::Compiled),
        retry_after_s: result.retry_after_s,
    };
    record_compile_metrics(state, &wire, start, stream_mode);
    respond_job(state, conn, &wire, keep, stream_mode, &digest, st);
}

// MARK: status/compile endpoint (appended below)

fn status_body(state: &ServerState) -> String {
    let warden_json = state
        .warden
        .as_ref()
        .map(|w| {
            let s = w.stats();
            format!(
                "{{\"pool_idle\":{},\"spawned\":{},\"recycled\":{},\"executed\":{},\
                 \"crashes\":{},\"deadline_kills\":{},\"rss_kills\":{}}}",
                s.pool_idle,
                s.spawned,
                s.recycled,
                s.executed,
                s.crashes,
                s.deadline_kills,
                s.rss_kills
            )
        })
        .unwrap_or_else(|| "null".into());
    let response_cache_json = {
        let c = state.responses.lock().unwrap();
        format!(
            "{{\"size\":{},\"cap\":{},\"hits\":{},\"misses\":{},\"evictions\":{}}}",
            c.len(),
            c.cap,
            c.hits,
            c.misses,
            c.evictions
        )
    };
    let m = state.metrics.lock().unwrap();
    let mut codes: Vec<(u16, u64)> = m.codes.iter().map(|(k, v)| (*k, *v)).collect();
    codes.sort_unstable();
    let codes_json = codes
        .iter()
        .map(|(k, v)| format!("\"{k}\":{v}"))
        .collect::<Vec<_>>()
        .join(",");
    let total: u64 = m.compiled + m.coalesced + m.cache_hits + m.warm_hits;
    format!(
        "{{\"service\":\"mha-serve\",\"uptime_ms\":{},\"workers\":{},\"busy\":{},\"draining\":{},\
         \"journal\":{},\
         \"requests\":{{\"compile_total\":{total},\"compiled\":{},\"coalesced\":{},\
         \"cache_hits\":{},\"warm_hits\":{},\"codes\":{{{codes_json}}}}},\
         \"resilience\":{{\"queue_depth\":{},\"queued\":{},\
         \"shed\":{{\"raw\":{},\"suite\":{},\"accept\":{}}},\
         \"header_timeouts\":{},\"sockopt_failures\":{},\"keepalive_reuses\":{},\
         \"streamed\":{},\"chaos_injected\":{},\
         \"crashes\":{},\"journal_write_failures\":{},\
         \"breaker\":{{\"state\":{},\"trips\":{},\"degraded\":{},\"rejects\":{}}}}},\
         \"warden\":{warden_json},\"response_cache\":{response_cache_json},\
         \"latency\":[{},{},{},{},{}]}}",
        state.started.elapsed().as_millis(),
        state.config.effective_workers(),
        state.busy.load(Ordering::SeqCst),
        state.draining(),
        state
            .journal
            .as_ref()
            .map(|j| json_str(&j.path().display().to_string()))
            .unwrap_or_else(|| "null".into()),
        m.compiled,
        m.coalesced,
        m.cache_hits,
        m.warm_hits,
        state.queue.depth(),
        m.queued,
        m.shed_raw,
        m.shed_suite,
        m.accept_rejects,
        m.header_timeouts,
        m.sockopt_failures,
        m.keepalive_reuses,
        m.streamed,
        m.chaos_injected,
        m.crashes,
        m.journal_write_failures,
        json_str(state.breaker.state_label()),
        state.breaker.trips(),
        m.breaker_degraded,
        m.breaker_rejects,
        m.request.to_json("request"),
        m.queue_wait.to_json("queue"),
        m.flow.to_json("flow"),
        m.csynth.to_json("csynth"),
        m.cosim.to_json("cosim"),
    )
}

// ---------------------------------------------------------------------------
// The compile endpoint
// ---------------------------------------------------------------------------

/// A parsed `POST /v1/compile` body.
struct CompileRequest {
    /// Suite kernel name (`"kernel"` field) — mutually exclusive with raw
    /// MLIR text (`"mlir"`).
    kernel: Option<String>,
    /// Raw MLIR module text.
    mlir: Option<String>,
    /// Module name for raw MLIR (defaults to `"kernel"`).
    name: String,
    flow: Flow,
    directives: Directives,
    deadline_ms: Option<u64>,
    fuel: Option<u64>,
}

impl CompileRequest {
    fn parse(body: &str) -> Result<CompileRequest, String> {
        let v = json::parse(body).map_err(|e| format!("request is not JSON: {e}"))?;
        let str_field = |k: &str| v.get(k).and_then(|x| x.as_str()).map(str::to_string);
        let num_field = |k: &str| v.get(k).and_then(|x| x.as_u64());
        // Directives are u32s; a wider value must not wrap onto (and be
        // answered from the cache entry of) a smaller one.
        let u32_field = |k: &str| {
            num_field(k)
                .map(|n| u32::try_from(n).map_err(|_| format!("'{k}' exceeds {}", u32::MAX)))
                .transpose()
        };
        let kernel = str_field("kernel");
        let mlir = str_field("mlir");
        match (&kernel, &mlir) {
            (None, None) => return Err("need either 'kernel' (suite name) or 'mlir' (text)".into()),
            (Some(_), Some(_)) => return Err("'kernel' and 'mlir' are mutually exclusive".into()),
            _ => {}
        }
        let flow = match str_field("flow").as_deref() {
            None | Some("adaptor") => Flow::Adaptor,
            Some("cpp") | Some("hls-c++") => Flow::Cpp,
            Some(other) => return Err(format!("unknown flow '{other}' (adaptor|cpp)")),
        };
        // `ii: 0` disables pipelining; absent means the batch default II=1.
        let directives = Directives {
            pipeline_ii: match u32_field("ii")? {
                None => Some(1),
                Some(0) => None,
                Some(ii) => Some(ii),
            },
            unroll_factor: u32_field("unroll")?,
            partition_factor: u32_field("partition")?,
            flatten: v.get("flatten").and_then(|x| x.as_bool()).unwrap_or(false),
        };
        let name = str_field("name")
            .or_else(|| kernel.clone())
            .unwrap_or_else(|| "kernel".into());
        Ok(CompileRequest {
            kernel,
            mlir,
            name,
            flow,
            directives,
            deadline_ms: num_field("deadline_ms"),
            fuel: num_field("fuel"),
        })
    }

    /// The request's full identity, as the coalescing/cache/journal key.
    fn digest(&self, config: &ServeConfig) -> String {
        let mut h = Hasher64::new();
        h.field_str("mha-serve/v1");
        if let Some(k) = &self.kernel {
            h.field_str("kernel").field_str(k);
        } else if let Some(m) = &self.mlir {
            h.field_str("mlir").field_str(m);
        }
        h.field_str(&self.name);
        h.field_str(&directives_repr(&self.directives, self.flow));
        h.field_str(&config.config_repr());
        h.field_str(&format!(
            "deadline={:?};fuel={:?}",
            self.effective_deadline(config),
            self.effective_fuel(config)
        ));
        h.finish_hex()
    }

    fn effective_deadline(&self, config: &ServeConfig) -> Option<u64> {
        self.deadline_ms.or(config.deadline_ms)
    }

    fn effective_fuel(&self, config: &ServeConfig) -> Option<u64> {
        self.fuel.or(config.fuel)
    }
}

/// HTTP status for a pipeline outcome: the supervisor's taxonomy on the
/// wire. Budget deadline → 408, fuel → 429, deterministic → 422,
/// transient → 503, infra/panic/crash → 500.
pub fn outcome_status(o: &RunOutcome) -> u16 {
    match o {
        RunOutcome::Completed(_) | RunOutcome::Degraded { .. } => 200,
        RunOutcome::Failed(StageError::BudgetExceeded { kind, .. }) => match kind {
            pass_core::BudgetKind::Deadline => 408,
            pass_core::BudgetKind::Fuel => 429,
        },
        RunOutcome::Failed(StageError::Fault { class, .. }) => match class {
            FaultClass::Deterministic => 422,
            FaultClass::Transient => 503,
            FaultClass::Infra => 500,
        },
        RunOutcome::Failed(StageError::Crash { .. }) => 500,
        RunOutcome::Panicked { .. } => 500,
    }
}

/// Response codes that are deterministic functions of the request and
/// therefore safe to cache and journal. Budget trips (408/429) depend on
/// wall clock and pool contention; transient/infra failures may clear.
fn cacheable(code: u16) -> bool {
    code == 200 || code == 422
}

/// Serialize a stored response as a journal `done` payload. The body is
/// embedded as a JSON *string*, so replay reproduces it byte-for-byte.
fn stored_to_journal(r: &StoredResponse) -> String {
    format!("{{\"code\":{},\"body\":{}}}", r.code, json_str(&r.body))
}

fn stored_from_journal(v: &JsonValue) -> Option<StoredResponse> {
    Some(StoredResponse {
        code: v.get("code")?.as_u64()? as u16,
        body: v.get("body")?.as_str()?.to_string(),
        from_journal: true,
    })
}

/// The worker-side result of running one compile.
struct CompileResult {
    code: u16,
    body: String,
    /// The outcome was a transient fault (feeds the breaker).
    transient: bool,
    retry_after_s: Option<u64>,
}

/// Run the request's pipeline and produce the response document:
///
/// ```json
/// {"kernel": "...", "digest": "...", "flow": "adaptor",
///  "outcome": { "status": "ok", ... },         // batch outcome schema
///  "rendered": "...",                          // failures only
///  "lint": { ... } | null,
///  "warnings": ["..."]}
/// ```
///
/// With `degrade` set (breaker open), adaptor requests run the
/// deterministic C++ fallback instead; the completed outcome is wrapped
/// as `Degraded` (exactly like batch's degraded mode) and the body gains
/// a `"breaker":"open"` marker.
fn compile_locked(
    state: &ServerState,
    req: &CompileRequest,
    digest: &str,
    degrade: bool,
    progress: &mut dyn FnMut(&str),
) -> CompileResult {
    let flow = if degrade { Flow::Cpp } else { req.flow };
    let (outcome, warnings) = compile_source(state, req, digest, flow, degrade, progress);
    let outcome = if degrade {
        match outcome {
            RunOutcome::Completed(a) => RunOutcome::Degraded {
                artifacts: a,
                reason: "circuit breaker open: adaptor flow degraded to the C++ fallback".into(),
            },
            other => other,
        }
    } else {
        outcome
    };
    let code = outcome_status(&outcome);
    let crashed = matches!(&outcome, RunOutcome::Failed(e) if e.is_crash());
    if crashed {
        state.metrics.lock().unwrap().crashes += 1;
    }
    // Worker crashes feed the breaker like transient faults: a crashing
    // worker population should degrade to the deterministic fallback, not
    // keep burning workers.
    let transient = crashed
        || matches!(
            outcome,
            RunOutcome::Failed(StageError::Fault {
                class: FaultClass::Transient,
                ..
            })
        );
    let rendered = match &outcome {
        RunOutcome::Failed(e) => format!(",\"rendered\":{}", json_str(&e.to_string())),
        _ => String::new(),
    };
    let lint = match &outcome {
        RunOutcome::Completed(a) | RunOutcome::Degraded { artifacts: a, .. } => {
            if !degrade {
                state.metrics.lock().unwrap().record_stages(&a.report);
            }
            match llvm_lite::parser::parse_module(&req.name, &a.module_text) {
                Ok(m) => LintReport::for_module(&m, false).to_json(),
                Err(_) => "null".into(),
            }
        }
        _ => "null".into(),
    };
    let warnings_json = warnings
        .iter()
        .map(|w| json_str(w))
        .collect::<Vec<_>>()
        .join(",");
    let breaker = if degrade { ",\"breaker\":\"open\"" } else { "" };
    let body = format!(
        "{{\"kernel\":{},\"digest\":{},\"flow\":{},\"outcome\":{}{rendered},\"lint\":{lint},\"warnings\":[{warnings_json}]{breaker}}}",
        json_str(&req.name),
        json_str(digest),
        json_str(flow.label()),
        outcome_to_json(&outcome),
    );
    CompileResult {
        code,
        body,
        transient,
        retry_after_s: None,
    }
}

/// Compile one request through the supervised engine ([`run_source`]):
/// flow → csynth (→ co-simulation for suite kernels) with the on-disk stage
/// cache shared with `mha-batch` and panic isolation, in a warden worker
/// under `--isolate`. Serve chaos reaches suite compiles through the
/// engine's own sites and raw compiles through the `serve/compile` site.
/// The degraded (breaker-open) fallback runs in-process without injection:
/// it is the safety net and must not depend on the worker pool being
/// healthy.
fn compile_source(
    state: &ServerState,
    req: &CompileRequest,
    digest: &str,
    flow: Flow,
    degrade: bool,
    progress: &mut dyn FnMut(&str),
) -> (RunOutcome, Vec<String>) {
    let src = match &req.kernel {
        Some(name) => match Source::suite(name) {
            Ok(src) => src,
            Err(e) => return (RunOutcome::Failed(e), Vec::new()),
        },
        None => Source::Raw {
            name: &req.name,
            mlir: req.mlir.as_deref().unwrap_or_default(),
        },
    };
    let raw = matches!(src, Source::Raw { .. });
    // A transient serve-layer compile fault (what trips the breaker in
    // soaks); a delay just slows the pipeline down.
    let menu = [ChaosFault::IoError, ChaosFault::Delay];
    let fault = match &state.chaos {
        Some(engine) if raw && !degrade => engine.roll(digest, "serve/compile", 0, &menu),
        _ => None,
    };
    if let Some(fault) = fault {
        state.metrics.lock().unwrap().chaos_injected += 1;
        if fault == ChaosFault::IoError {
            let fault = StageError::Fault {
                stage: "serve".into(),
                class: FaultClass::Transient,
                detail: "chaos: injected transient serve compile fault".into(),
            };
            return (RunOutcome::Failed(fault), Vec::new());
        }
        std::thread::sleep(Duration::from_millis(25));
    }
    let opts = BatchOptions {
        jobs: 1,
        directives: req.directives,
        flow,
        cache_dir: state.config.cache_dir.clone(),
        target: state.config.target.clone(),
        seed: state.config.seed,
        deadline_ms: req.effective_deadline(&state.config),
        fuel: req.effective_fuel(&state.config),
        chaos: if degrade || raw {
            None
        } else {
            state.config.chaos
        },
        ..BatchOptions::default()
    };
    if !degrade {
        if let Some(warden) = &state.warden {
            progress("isolated");
            return warden.compile(src, &opts);
        }
    }
    run_source(src, &opts, progress).unwrap_or_else(|e| (RunOutcome::Failed(e.into()), Vec::new()))
}
