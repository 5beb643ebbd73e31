//! Process-isolated compilation workers: crash/OOM containment.
//!
//! `catch_unwind` (PR 3) contains panics, but not the failure modes that
//! kill a *process*: stack overflow past the parsers' depth guards,
//! allocator OOM, a segfault in a future unsafe dependency, or runaway
//! memory growth. This module gives `mha-serve`, `mha-batch --isolate`,
//! and `mha-fuzz --isolate` hard containment by running compilations in
//! child **worker processes**:
//!
//! ```text
//!   supervisor process                      worker process (re-exec'd self)
//!   ┌──────────────────────────┐            ┌─────────────────────────────┐
//!   │ Warden                   │  request   │ child_main()                │
//!   │  pool: [Worker, ...]     │ ──frame──► │   loop { read_frame;        │
//!   │  RSS watchdog thread     │            │          run op;            │
//!   │  per-request kill timer  │ ◄─frame──  │          write_frame }      │
//!   └──────────────────────────┘   reply    └─────────────────────────────┘
//! ```
//!
//! * **Transport** is pure std: `std::process::Command` with piped
//!   stdin/stdout and length-prefixed JSON frames (`mha-warden <len>\n` +
//!   exactly `len` payload bytes). A short payload is detectable reply
//!   truncation; EOF is a dead worker. No libc, no `unsafe`.
//! * **Worker death becomes data**: the supervisor classifies the exit
//!   status into a typed [`StageError::Crash`] (`signal 9`, `exit code
//!   134`, `reply truncated`, `rss limit`) that maps to HTTP 500 in
//!   serve, a `failed/crash` outcome in batch, and a `crash/...`
//!   signature in fuzzing — instead of taking the server down.
//! * **Warm pool**: workers are pre-spawned and health-checked (ping) at
//!   spawn, then reused across requests and recycled after
//!   [`WardenConfig::max_requests_per_worker`] requests.
//! * **Kill deadlines**: when a request carries a Budget deadline, a
//!   watcher thread SIGKILLs (via [`std::process::Child::kill`]) any
//!   worker that holds the reply past deadline + grace — the backstop
//!   for hangs the cooperative budget checks never reach.
//! * **RSS watchdog**: with `--max-worker-rss-mb`, a polling thread reads
//!   `/proc/<pid>/status` and kills any worker whose `VmRSS` exceeds the
//!   limit, giving the service a real memory budget to pair with fuel.
//! * **Chaos**: the `warden` site injects [`ChaosFault::WorkerKill`],
//!   [`ChaosFault::RssBomb`], and [`ChaosFault::ReplyTruncate`] *inside
//!   the child*, so crash containment is exercised end to end in tests
//!   and the CI crash-soak.

use std::collections::HashMap;
use std::fs;
use std::io::{self, BufRead, BufReader, Write as _};
use std::path::PathBuf;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use fuzzing::{run_all, CampaignOpts, Failure, OracleKind};
use pass_core::json::{self, JsonValue};
use pass_core::report::json_str;
use pass_core::BudgetKind;
use vitis_sim::Target;

use crate::batch::{
    outcome_from_json, outcome_to_json, run_source, BatchOptions, RunOutcome, Source,
};
use crate::experiment::Directives;
use crate::flow::Flow;
use crate::supervisor::{ChaosConfig, ChaosEngine, ChaosFault, FaultClass, StageError};

/// Frame magic for the supervisor ⇄ worker pipe protocol.
const FRAME_MAGIC: &str = "mha-warden";
/// Upper bound on a single frame payload (64 MiB).
const MAX_FRAME: usize = 64 << 20;
/// Health-check (ping) reply deadline for a freshly spawned worker.
const SPAWN_PING_MS: u64 = 5_000;
/// Poll interval for the deadline and RSS watcher threads.
const WATCH_POLL_MS: u64 = 10;

/// The faults the `warden` chaos site can inject inside a worker process.
/// Public so tests and soak drivers can seed-search for keys that crash.
pub const CRASH_MENU: [ChaosFault; 3] = [
    ChaosFault::WorkerKill,
    ChaosFault::RssBomb,
    ChaosFault::ReplyTruncate,
];

/// Supervisor-side worker-pool configuration.
#[derive(Clone, Debug)]
pub struct WardenConfig {
    /// Warm workers to pre-spawn (`--warden-pool`).
    pub pool: usize,
    /// Requests one worker may serve before it is recycled
    /// (`--max-requests-per-worker`) — bounds slow leaks.
    pub max_requests_per_worker: u32,
    /// RSS ceiling per worker in MiB (`--max-worker-rss-mb`); `None`
    /// disables the watchdog.
    pub max_rss_mb: Option<u64>,
    /// Slack past a request's Budget deadline before the SIGKILL backstop
    /// fires (the cooperative budget trip should reply first).
    pub kill_grace_ms: u64,
    /// Chaos injected at the in-child `warden` site (`--warden-chaos`).
    pub chaos: Option<ChaosConfig>,
}

impl Default for WardenConfig {
    fn default() -> WardenConfig {
        WardenConfig {
            pool: 2,
            max_requests_per_worker: 256,
            max_rss_mb: None,
            kill_grace_ms: 500,
            chaos: None,
        }
    }
}

/// Worker-pool counters for `GET /v1/status` and batch summaries.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WardenStats {
    /// Idle workers currently parked in the pool.
    pub pool_idle: usize,
    /// Workers spawned over the warden's lifetime.
    pub spawned: u64,
    /// Workers retired at their request cap.
    pub recycled: u64,
    /// Requests executed through workers.
    pub executed: u64,
    /// Worker deaths classified as [`StageError::Crash`].
    pub crashes: u64,
    /// Workers SIGKILLed at a request kill deadline.
    pub deadline_kills: u64,
    /// Workers killed by the RSS watchdog.
    pub rss_kills: u64,
}

/// Why a watcher thread killed a worker, keyed by pid until the executor
/// classifies the death.
#[derive(Clone, Copy, Debug)]
enum KillReason {
    Deadline,
    RssLimit { peak_kb: u64 },
}

/// One live worker process plus its pipe endpoints. stdin/stdout are taken
/// out of the `Child` at spawn so watcher threads can `kill()` through the
/// shared handle while the executor blocks reading the reply.
struct Worker {
    child: Arc<Mutex<Child>>,
    pid: u32,
    stdin: ChildStdin,
    stdout: BufReader<ChildStdout>,
    served: u32,
}

#[derive(Default)]
struct Counters {
    spawned: AtomicU64,
    recycled: AtomicU64,
    executed: AtomicU64,
    crashes: AtomicU64,
    deadline_kills: AtomicU64,
    rss_kills: AtomicU64,
}

/// The supervisor side of the isolation layer: a warm pool of worker
/// processes, watcher threads, and the request/reply/classify loop.
pub struct Warden {
    config: WardenConfig,
    exe: PathBuf,
    pool: Mutex<Vec<Worker>>,
    /// pid → kill reason, written by watcher threads, consumed on reply.
    kills: Arc<Mutex<HashMap<u32, KillReason>>>,
    /// pid → child handle for workers with a request in flight (what the
    /// RSS watchdog polls).
    watch: Arc<Mutex<HashMap<u32, Arc<Mutex<Child>>>>>,
    shutdown: Arc<AtomicBool>,
    counters: Arc<Counters>,
}

impl Warden {
    /// Build the pool: resolve the worker executable, start the RSS
    /// watchdog (when a limit is set), and pre-spawn
    /// [`WardenConfig::pool`] health-checked workers. Pre-spawn failures
    /// are tolerated (workers respawn on demand); an unresolvable worker
    /// executable is not.
    pub fn new(config: WardenConfig) -> Result<Warden, String> {
        let exe = worker_exe()?;
        let warden = Warden {
            config,
            exe,
            pool: Mutex::new(Vec::new()),
            kills: Arc::new(Mutex::new(HashMap::new())),
            watch: Arc::new(Mutex::new(HashMap::new())),
            shutdown: Arc::new(AtomicBool::new(false)),
            counters: Arc::new(Counters::default()),
        };
        if let Some(limit_mb) = warden.config.max_rss_mb {
            warden.start_rss_watchdog(limit_mb);
        }
        for _ in 0..warden.config.pool {
            match warden.spawn_worker() {
                Ok(w) => warden.pool.lock().unwrap().push(w),
                Err(e) => {
                    eprintln!("warden: warm pre-spawn failed: {e}");
                    break;
                }
            }
        }
        Ok(warden)
    }

    /// Current pool counters.
    pub fn stats(&self) -> WardenStats {
        WardenStats {
            pool_idle: self.pool.lock().unwrap().len(),
            spawned: self.counters.spawned.load(Ordering::Relaxed),
            recycled: self.counters.recycled.load(Ordering::Relaxed),
            executed: self.counters.executed.load(Ordering::Relaxed),
            crashes: self.counters.crashes.load(Ordering::Relaxed),
            deadline_kills: self.counters.deadline_kills.load(Ordering::Relaxed),
            rss_kills: self.counters.rss_kills.load(Ordering::Relaxed),
        }
    }

    /// Run one supervised compile ([`run_source`]) inside a worker. A
    /// worker death comes back as `RunOutcome::Failed(StageError::Crash)`
    /// (or a deadline budget trip for a kill-deadline SIGKILL), so callers
    /// reuse the existing outcome → status mapping unchanged. The source
    /// name keys the in-worker `warden` chaos site.
    pub fn compile(&self, src: Source<'_>, opts: &BatchOptions) -> (RunOutcome, Vec<String>) {
        let mut req = String::from("{\"op\":\"compile\"");
        push_compile(&mut req, src, opts);
        self.push_wchaos(&mut req, src.name());
        req.push('}');
        match self.execute(req, "warden", opts.deadline_ms) {
            Ok(reply) => decode_outcome_reply(&reply),
            Err(e) => (RunOutcome::Failed(e), Vec::new()),
        }
    }

    /// [`Warden::compile`] for a suite kernel by name.
    pub fn execute_suite(&self, name: &str, opts: &BatchOptions) -> (RunOutcome, Vec<String>) {
        match Source::suite(name) {
            Ok(src) => self.compile(src, opts),
            Err(e) => (RunOutcome::Failed(e), Vec::new()),
        }
    }

    /// [`Warden::compile`] for raw MLIR, without a cache.
    pub fn execute_raw(&self, rc: &RawCompile<'_>, target: &Target) -> (RunOutcome, Vec<String>) {
        let opts = BatchOptions {
            jobs: 1,
            directives: *rc.directives,
            flow: rc.flow,
            cache_dir: None,
            target: target.clone(),
            deadline_ms: rc.deadline_ms,
            fuel: rc.fuel,
            ..BatchOptions::default()
        };
        let src = Source::Raw {
            name: rc.name,
            mlir: rc.mlir,
        };
        self.compile(src, &opts)
    }

    /// Run the fuzzing oracle stack inside a worker: the
    /// `mha-fuzz --isolate` runner. A stack-overflow or OOM that would
    /// kill an in-process campaign becomes a `crash/warden` [`Failure`]
    /// the campaign dedups and reduces like any other finding; a
    /// kill-deadline SIGKILL maps to the budget oracle.
    pub fn execute_oracle(
        &self,
        src: &str,
        seed: u64,
        opts: &CampaignOpts,
    ) -> Result<bool, Failure> {
        let mut req = format!(
            "{{\"op\":\"oracle\",\"source\":{},\"seed\":{seed},\"step_limit\":{},\"legality\":{}",
            json_str(src),
            opts.oracle.step_limit,
            opts.legality
        );
        push_opt_u64(&mut req, "fuel", opts.oracle.fuel);
        push_opt_u64(&mut req, "deadline_ms", opts.oracle.deadline_ms);
        self.push_wchaos(&mut req, &format!("seed-{seed}"));
        req.push('}');
        let reply = match self.execute(req, "warden", opts.oracle.deadline_ms) {
            Ok(text) => text,
            Err(e) if e.is_budget() => {
                return Err(Failure::new(OracleKind::Budget, "warden", e.to_string()))
            }
            Err(e) => return Err(Failure::new(OracleKind::Crash, "warden", e.to_string())),
        };
        let v = json::parse(&reply)
            .map_err(|e| Failure::new(OracleKind::Crash, "warden", format!("bad reply: {e}")))?;
        match v.get("verdict").and_then(|x| x.as_str()) {
            Some("pass") => Ok(v
                .get("interchanged")
                .and_then(|x| x.as_bool())
                .unwrap_or(false)),
            Some("fail") => Err(Failure::new(
                v.get("oracle")
                    .and_then(|x| x.as_str())
                    .and_then(OracleKind::parse_name)
                    .unwrap_or(OracleKind::Stage),
                v.get("stage").and_then(|x| x.as_str()).unwrap_or("unknown"),
                v.get("message")
                    .and_then(|x| x.as_str())
                    .unwrap_or_default()
                    .to_string(),
            )),
            _ => Err(Failure::new(
                OracleKind::Crash,
                "warden",
                "malformed worker reply",
            )),
        }
    }

    /// Raw-op escape hatch for integration tests (e.g. `{"op":"sleep"}` to
    /// pin kill deadlines, `{"op":"hog"}` to pin the RSS watchdog).
    /// Returns the worker's reply text or the classified death.
    pub fn execute_probe(
        &self,
        request: &str,
        kill_after_ms: Option<u64>,
    ) -> Result<String, StageError> {
        self.execute(request.to_string(), "warden", kill_after_ms)
    }

    /// Stop the pool: kill and reap every idle worker. In-flight workers
    /// die when their pipes close or their watcher fires.
    pub fn shutdown(&self) {
        self.shutdown.store(true, Ordering::Relaxed);
        let workers: Vec<Worker> = std::mem::take(&mut *self.pool.lock().unwrap());
        for w in workers {
            let mut child = w.child.lock().unwrap_or_else(|p| p.into_inner());
            let _ = child.kill();
            let _ = child.wait();
        }
    }

    fn push_wchaos(&self, req: &mut String, key: &str) {
        if let Some(c) = &self.config.chaos {
            req.push_str(&format!(
                ",\"wchaos\":{},\"wkey\":{}",
                json_str(&c.repr()),
                json_str(key)
            ));
        }
    }

    /// The core request loop: checkout → watch → send → receive →
    /// classify → recycle. Returns the raw reply text, or the typed
    /// failure if the worker died instead of replying.
    fn execute(
        &self,
        request: String,
        stage: &str,
        kill_after_ms: Option<u64>,
    ) -> Result<String, StageError> {
        let mut worker = self.checkout().map_err(|detail| StageError::Fault {
            stage: stage.to_string(),
            class: FaultClass::Transient,
            detail,
        })?;
        self.watch
            .lock()
            .unwrap()
            .insert(worker.pid, worker.child.clone());
        let guard = kill_after_ms
            .map(|ms| self.arm_deadline(&worker, ms.saturating_add(self.config.kill_grace_ms)));
        let sent = write_frame(&mut worker.stdin, request.as_bytes());
        let reply = match sent {
            Ok(()) => read_frame(&mut worker.stdout),
            Err(_) => Ok(None), // stdin gone: the worker died; classify below
        };
        drop(guard);
        self.watch.lock().unwrap().remove(&worker.pid);
        self.counters.executed.fetch_add(1, Ordering::Relaxed);
        match reply {
            Ok(Some(payload)) => {
                let text = String::from_utf8_lossy(&payload).into_owned();
                // A watcher kill that raced a successful reply leaves the
                // worker compromised: return the reply but retire it.
                let late_kill = self.kills.lock().unwrap().remove(&worker.pid).is_some();
                worker.served += 1;
                if late_kill {
                    self.retire(worker, false);
                } else if worker.served >= self.config.max_requests_per_worker {
                    self.retire(worker, true);
                } else {
                    self.pool.lock().unwrap().push(worker);
                }
                Ok(text)
            }
            Ok(None) | Err(_) => Err(self.classify_death(worker, stage)),
        }
    }

    /// Turn a dead worker into a typed error: watcher-recorded kill
    /// reasons win; otherwise the exit status tells the story.
    fn classify_death(&self, worker: Worker, stage: &str) -> StageError {
        let reason = self.kills.lock().unwrap().remove(&worker.pid);
        let status = {
            let mut child = worker.child.lock().unwrap_or_else(|p| p.into_inner());
            let _ = child.kill();
            child.wait()
        };
        match reason {
            Some(KillReason::Deadline) => {
                self.counters.deadline_kills.fetch_add(1, Ordering::Relaxed);
                StageError::BudgetExceeded {
                    stage: stage.to_string(),
                    kind: BudgetKind::Deadline,
                    detail: "worker held the reply past the kill deadline and was SIGKILLed"
                        .to_string(),
                }
            }
            Some(KillReason::RssLimit { peak_kb }) => {
                self.counters.rss_kills.fetch_add(1, Ordering::Relaxed);
                StageError::Crash {
                    stage: stage.to_string(),
                    cause: "rss limit exceeded".to_string(),
                    rss_peak_kb: Some(peak_kb),
                }
            }
            None => {
                self.counters.crashes.fetch_add(1, Ordering::Relaxed);
                let cause = match status {
                    Ok(st) => describe_exit(st),
                    Err(e) => format!("wait failed: {e}"),
                };
                StageError::Crash {
                    stage: stage.to_string(),
                    cause,
                    rss_peak_kb: None,
                }
            }
        }
    }

    fn checkout(&self) -> Result<Worker, String> {
        if let Some(w) = self.pool.lock().unwrap().pop() {
            return Ok(w);
        }
        self.spawn_worker()
    }

    fn retire(&self, worker: Worker, recycled: bool) {
        if recycled {
            self.counters.recycled.fetch_add(1, Ordering::Relaxed);
        }
        self.kills.lock().unwrap().remove(&worker.pid);
        let mut child = worker.child.lock().unwrap_or_else(|p| p.into_inner());
        let _ = child.kill();
        let _ = child.wait();
    }

    fn spawn_worker(&self) -> Result<Worker, String> {
        let mut child = Command::new(&self.exe)
            .arg("--warden-child")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot spawn worker {}: {e}", self.exe.display()))?;
        let stdin = child.stdin.take().expect("piped stdin");
        let stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let pid = child.id();
        self.counters.spawned.fetch_add(1, Ordering::Relaxed);
        let mut worker = Worker {
            child: Arc::new(Mutex::new(child)),
            pid,
            stdin,
            stdout,
            served: 0,
        };
        // Health check: the worker must answer a ping before it joins the
        // pool, bounded so a broken executable cannot hang the spawner.
        let guard = self.arm_deadline(&worker, SPAWN_PING_MS);
        let ping = write_frame(&mut worker.stdin, b"{\"op\":\"ping\"}")
            .and_then(|_| read_frame(&mut worker.stdout));
        drop(guard);
        self.kills.lock().unwrap().remove(&pid);
        match ping {
            Ok(Some(_)) => Ok(worker),
            other => {
                self.retire(worker, false);
                Err(format!("worker failed its spawn health check: {other:?}"))
            }
        }
    }

    /// Start a watcher that SIGKILLs the worker unless disarmed (guard
    /// dropped) within `ms`. First recorded reason per pid wins.
    fn arm_deadline(&self, worker: &Worker, ms: u64) -> DeadlineGuard {
        let done = Arc::new(AtomicBool::new(false));
        let child = worker.child.clone();
        let kills = self.kills.clone();
        let pid = worker.pid;
        let flag = done.clone();
        thread::spawn(move || {
            let until = Instant::now() + Duration::from_millis(ms);
            while !flag.load(Ordering::Relaxed) {
                if Instant::now() >= until {
                    kills
                        .lock()
                        .unwrap()
                        .entry(pid)
                        .or_insert(KillReason::Deadline);
                    let _ = child.lock().unwrap_or_else(|p| p.into_inner()).kill();
                    return;
                }
                thread::sleep(Duration::from_millis(WATCH_POLL_MS));
            }
        });
        DeadlineGuard { done }
    }

    fn start_rss_watchdog(&self, limit_mb: u64) {
        let watch = self.watch.clone();
        let kills = self.kills.clone();
        let shutdown = self.shutdown.clone();
        let limit_kb = limit_mb.saturating_mul(1024);
        let _ = thread::Builder::new()
            .name("warden-rss".to_string())
            .spawn(move || {
                while !shutdown.load(Ordering::Relaxed) {
                    let targets: Vec<(u32, Arc<Mutex<Child>>)> = watch
                        .lock()
                        .unwrap()
                        .iter()
                        .map(|(pid, child)| (*pid, child.clone()))
                        .collect();
                    for (pid, child) in targets {
                        let Some(kb) = proc_status_kb(pid, "VmRSS") else {
                            continue;
                        };
                        if kb <= limit_kb {
                            continue;
                        }
                        let mut k = kills.lock().unwrap();
                        if let std::collections::hash_map::Entry::Vacant(slot) = k.entry(pid) {
                            slot.insert(KillReason::RssLimit { peak_kb: kb });
                            let _ = child.lock().unwrap_or_else(|p| p.into_inner()).kill();
                        }
                    }
                    thread::sleep(Duration::from_millis(WATCH_POLL_MS));
                }
            });
    }
}

impl Drop for Warden {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Disarms the kill-deadline watcher on drop.
struct DeadlineGuard {
    done: Arc<AtomicBool>,
}

impl Drop for DeadlineGuard {
    fn drop(&mut self) {
        self.done.store(true, Ordering::Relaxed);
    }
}

/// A raw-MLIR compile for [`Warden::execute_raw`].
#[derive(Clone, Copy, Debug)]
pub struct RawCompile<'a> {
    /// Module name.
    pub name: &'a str,
    /// MLIR source text.
    pub mlir: &'a str,
    /// Resolved directive set.
    pub directives: &'a Directives,
    /// Which flow to run.
    pub flow: Flow,
    /// Wall-clock budget, also the supervisor's kill deadline.
    pub deadline_ms: Option<u64>,
    /// Fuel budget.
    pub fuel: Option<u64>,
}

// ---------------------------------------------------------------------------
// Frame protocol
// ---------------------------------------------------------------------------

/// Write one `mha-warden <len>\n<payload>` frame.
fn write_frame(w: &mut impl io::Write, payload: &[u8]) -> io::Result<()> {
    w.write_all(format!("{FRAME_MAGIC} {}\n", payload.len()).as_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// Read one frame. `Ok(None)` is clean EOF between frames (worker gone or
/// supervisor closed stdin); a short payload read errors with
/// `UnexpectedEof`, which the supervisor classifies as reply truncation.
fn read_frame(r: &mut impl BufRead) -> io::Result<Option<Vec<u8>>> {
    let mut header = String::new();
    if r.read_line(&mut header)? == 0 {
        return Ok(None);
    }
    let len: usize = header
        .trim_end()
        .strip_prefix(FRAME_MAGIC)
        .and_then(|rest| rest.trim().parse().ok())
        .filter(|n| *n <= MAX_FRAME)
        .ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("bad frame header {header:?}"),
            )
        })?;
    let mut buf = vec![0u8; len];
    r.read_exact(&mut buf)?;
    Ok(Some(buf))
}

// ---------------------------------------------------------------------------
// Request/reply codec helpers (supervisor side)
// ---------------------------------------------------------------------------

fn push_opt_u64(out: &mut String, key: &str, v: Option<u64>) {
    if let Some(v) = v {
        out.push_str(&format!(",\"{key}\":{v}"));
    }
}

/// Write a compile request's fields into an open JSON object: the source,
/// then every [`BatchOptions`] field a worker needs to rebuild the run.
/// [`decode_compile`] inverts it.
fn push_compile(out: &mut String, src: Source<'_>, opts: &BatchOptions) {
    match src {
        Source::Suite(k) => out.push_str(&format!(",\"kernel\":{}", json_str(k.name))),
        Source::Raw { name, mlir } => out.push_str(&format!(
            ",\"name\":{},\"mlir\":{}",
            json_str(name),
            json_str(mlir)
        )),
    }
    let d = &opts.directives;
    let flow = match opts.flow {
        Flow::Adaptor => "adaptor",
        Flow::Cpp => "cpp",
    };
    out.push_str(&format!(",\"flow\":\"{flow}\""));
    push_opt_u64(out, "ii", d.pipeline_ii.map(u64::from));
    push_opt_u64(out, "unroll", d.unroll_factor.map(u64::from));
    push_opt_u64(out, "partition", d.partition_factor.map(u64::from));
    let t = &opts.target;
    out.push_str(&format!(
        ",\"flatten\":{},\"target\":{{\"clock_bits\":\"{:016x}\",\"bram_ports\":{},\"axi_ports\":{},\"axi_extra\":{}}}",
        d.flatten,
        t.clock_ns.to_bits(),
        t.bram_ports,
        t.axi_ports,
        t.axi_extra_latency
    ));
    if let Some(dir) = &opts.cache_dir {
        out.push_str(&format!(
            ",\"cache_dir\":{}",
            json_str(&dir.display().to_string())
        ));
    }
    out.push_str(&format!(",\"seed\":{}", opts.seed));
    push_opt_u64(out, "deadline_ms", opts.deadline_ms);
    push_opt_u64(out, "fuel", opts.fuel);
    if let Some(c) = &opts.chaos {
        out.push_str(&format!(",\"chaos\":{}", json_str(&c.repr())));
    }
}

/// Rebuild the source and options [`push_compile`] wrote. An unknown suite
/// kernel is the same deterministic `request` fault as in-process.
fn decode_compile(v: &JsonValue) -> Result<(Source<'_>, BatchOptions), StageError> {
    let text = |k: &str| v.get(k).and_then(|x| x.as_str());
    let num = |k: &str| v.get(k).and_then(|x| x.as_u64());
    let src = match text("kernel") {
        Some(name) => Source::suite(name)?,
        None => Source::Raw {
            name: text("name").unwrap_or("kernel"),
            mlir: text("mlir").unwrap_or_default(),
        },
    };
    let t = v.get("target");
    let t_u32 = |k: &str| {
        t.and_then(|t| t.get(k))
            .and_then(|x| x.as_u64())
            .map(|n| n as u32)
    };
    let default = Target::default();
    let opts = BatchOptions {
        jobs: 1,
        directives: Directives {
            pipeline_ii: num("ii").map(|n| n as u32),
            unroll_factor: num("unroll").map(|n| n as u32),
            partition_factor: num("partition").map(|n| n as u32),
            flatten: v.get("flatten").and_then(|x| x.as_bool()).unwrap_or(false),
        },
        flow: match text("flow") {
            Some("cpp") => Flow::Cpp,
            _ => Flow::Adaptor,
        },
        cache_dir: text("cache_dir").map(PathBuf::from),
        target: Target {
            clock_ns: t
                .and_then(|t| t.get("clock_bits"))
                .and_then(|x| x.as_str())
                .and_then(|s| u64::from_str_radix(s, 16).ok())
                .map(f64::from_bits)
                .unwrap_or(default.clock_ns),
            bram_ports: t_u32("bram_ports").unwrap_or(default.bram_ports),
            axi_ports: t_u32("axi_ports").unwrap_or(default.axi_ports),
            axi_extra_latency: t_u32("axi_extra").unwrap_or(default.axi_extra_latency),
        },
        seed: num("seed").unwrap_or(2026),
        deadline_ms: num("deadline_ms"),
        fuel: num("fuel"),
        chaos: text("chaos").and_then(|s| ChaosConfig::parse(s).ok()),
        ..BatchOptions::default()
    };
    Ok((src, opts))
}

fn decode_outcome_reply(text: &str) -> (RunOutcome, Vec<String>) {
    let infra = |detail: String| {
        (
            RunOutcome::Failed(StageError::Fault {
                stage: "warden".to_string(),
                class: FaultClass::Infra,
                detail,
            }),
            Vec::new(),
        )
    };
    let v = match json::parse(text) {
        Ok(v) => v,
        Err(e) => return infra(format!("undecodable worker reply: {e}")),
    };
    if let Some(err) = v.get("error").and_then(|x| x.as_str()) {
        return infra(format!("worker error: {err}"));
    }
    let warnings = v
        .get("warnings")
        .and_then(|x| x.as_arr())
        .map(|a| {
            a.iter()
                .filter_map(|w| w.as_str().map(str::to_string))
                .collect()
        })
        .unwrap_or_default();
    match v.get("outcome").map(outcome_from_json) {
        Some(Ok(outcome)) => (outcome, warnings),
        Some(Err(e)) => infra(format!("undecodable worker outcome: {e}")),
        None => infra("worker reply missing 'outcome'".to_string()),
    }
}

fn describe_exit(status: std::process::ExitStatus) -> String {
    #[cfg(unix)]
    {
        use std::os::unix::process::ExitStatusExt;
        if let Some(sig) = status.signal() {
            return format!("signal {sig}");
        }
    }
    match status.code() {
        // A clean exit without a (complete) reply means the pipe lied:
        // the worker truncated its reply frame.
        Some(0) => "reply truncated".to_string(),
        Some(code) => format!("exit code {code}"),
        None => "killed".to_string(),
    }
}

/// Resolve the executable to spawn as a worker. Production binaries
/// (`mha-serve`, `mha-batch`, `mha-fuzz`) re-exec themselves — they
/// dispatch to [`child_main`] when argv\[1\] is `--warden-child` before any
/// flag parsing. Test harness binaries are not re-execable, so the search
/// falls back to the dedicated `mha-warden-worker` binary next to (or
/// above) the current executable; `MHA_WARDEN_EXE` overrides everything.
fn worker_exe() -> Result<PathBuf, String> {
    if let Some(p) = std::env::var_os("MHA_WARDEN_EXE") {
        return Ok(PathBuf::from(p));
    }
    let exe = std::env::current_exe()
        .map_err(|e| format!("cannot resolve the current executable: {e}"))?;
    let name = exe.file_name().and_then(|n| n.to_str()).unwrap_or("");
    if name.starts_with("mha-") {
        return Ok(exe);
    }
    let worker_name = format!("mha-warden-worker{}", std::env::consts::EXE_SUFFIX);
    let mut dir = exe.parent();
    while let Some(d) = dir {
        let candidate = d.join(&worker_name);
        if candidate.is_file() {
            return Ok(candidate);
        }
        dir = d.parent();
    }
    Err(format!(
        "cannot locate {worker_name} near {}; set MHA_WARDEN_EXE",
        exe.display()
    ))
}

/// Read a `kB`-denominated field (e.g. `VmRSS`, `VmHWM`) from
/// `/proc/<pid>/status`.
fn proc_status_kb(pid: u32, field: &str) -> Option<u64> {
    let text = fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    proc_field_kb(&text, field)
}

fn proc_field_kb(status_text: &str, field: &str) -> Option<u64> {
    for line in status_text.lines() {
        if let Some(rest) = line.strip_prefix(field) {
            let rest = rest.trim_start_matches(':').trim();
            return rest.split_whitespace().next()?.parse().ok();
        }
    }
    None
}

fn self_peak_rss_kb() -> u64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|t| proc_field_kb(&t, "VmHWM"))
        .unwrap_or(0)
}

// ---------------------------------------------------------------------------
// The worker side (`--warden-child`)
// ---------------------------------------------------------------------------

enum Action {
    Reply(String),
    Truncate,
}

/// The worker-process main loop: read a request frame from stdin, run the
/// op, write the reply frame to stdout; exit 0 on EOF. Panics inside ops
/// are already contained (`run_supervised` / `catch_unwind`), so an
/// abnormal exit here *is* a crash worth reporting — which is exactly how
/// the supervisor treats it. Never returns.
pub fn child_main() -> ! {
    let stdin = io::stdin();
    let mut reader = BufReader::new(stdin.lock());
    loop {
        let payload = match read_frame(&mut reader) {
            Ok(Some(p)) => p,
            // Supervisor hung up (or sent garbage): a clean retirement.
            Ok(None) | Err(_) => std::process::exit(0),
        };
        let action = handle_frame(&payload);
        let stdout = io::stdout();
        let mut out = stdout.lock();
        match action {
            Action::Reply(body) => {
                if write_frame(&mut out, body.as_bytes()).is_err() {
                    std::process::exit(1);
                }
            }
            Action::Truncate => {
                // Chaos: claim a 64-byte payload, deliver a fraction of
                // it, and exit "cleanly" — the supervisor must detect the
                // short read and classify it as `reply truncated`.
                let _ = out.write_all(format!("{FRAME_MAGIC} 64\n").as_bytes());
                let _ = out.write_all(b"chaos truncation");
                let _ = out.flush();
                std::process::exit(0);
            }
        }
    }
}

fn handle_frame(payload: &[u8]) -> Action {
    let text = String::from_utf8_lossy(payload);
    let v = match json::parse(&text) {
        Ok(v) => v,
        Err(e) => return error_reply(&format!("bad request: {e}")),
    };
    // Chaos fires before the op so containment is exercised mid-protocol.
    if let Some(repr) = v.get("wchaos").and_then(|x| x.as_str()) {
        let key = v.get("wkey").and_then(|x| x.as_str()).unwrap_or_default();
        if let Ok(cfg) = ChaosConfig::parse(repr) {
            match ChaosEngine::new(cfg).roll(key, "warden", 0, &CRASH_MENU) {
                Some(ChaosFault::WorkerKill) => {
                    eprintln!("warden child: chaos worker-kill for '{key}'");
                    std::process::abort();
                }
                Some(ChaosFault::RssBomb) => {
                    eprintln!("warden child: chaos rss-bomb for '{key}'");
                    balloon_rss();
                }
                Some(ChaosFault::ReplyTruncate) => {
                    eprintln!("warden child: chaos reply-truncate for '{key}'");
                    return Action::Truncate;
                }
                _ => {}
            }
        }
    }
    let reply = match v.get("op").and_then(|x| x.as_str()).unwrap_or_default() {
        "ping" => "{\"ok\":true}".to_string(),
        "sleep" => {
            let ms = v.get("ms").and_then(|x| x.as_u64()).unwrap_or(0);
            thread::sleep(Duration::from_millis(ms));
            "{\"ok\":true}".to_string()
        }
        "hog" => child_hog(&v),
        "compile" => child_compile(&v),
        "oracle" => child_oracle(&v),
        other => return error_reply(&format!("unknown op '{other}'")),
    };
    Action::Reply(reply)
}

fn error_reply(message: &str) -> Action {
    Action::Reply(format!("{{\"error\":{}}}", json_str(message)))
}

/// Grow RSS without bound (8 MiB touched pages per step) until the
/// supervisor's watchdog kills the process; abort as a contained fallback
/// if no limit is armed. The peak (512 MiB) is held for a second first, so
/// a watchdog that polls every few milliseconds sees it before the abort.
fn balloon_rss() -> ! {
    let mut hoard: Vec<Vec<u8>> = Vec::new();
    for _ in 0..64 {
        let mut chunk = vec![0u8; 8 << 20];
        let mut i = 0;
        while i < chunk.len() {
            chunk[i] = 1;
            i += 4096;
        }
        hoard.push(chunk);
        thread::sleep(Duration::from_millis(2));
    }
    thread::sleep(Duration::from_secs(1));
    drop(hoard);
    std::process::abort();
}

/// Test op: allocate (and touch) `mb` MiB, hold it for `ms` milliseconds,
/// then reply — long enough for the RSS watchdog to observe the balloon.
fn child_hog(v: &JsonValue) -> String {
    let mb = v.get("mb").and_then(|x| x.as_u64()).unwrap_or(0) as usize;
    let ms = v.get("ms").and_then(|x| x.as_u64()).unwrap_or(0);
    let mut chunk = vec![0u8; mb << 20];
    let mut i = 0;
    while i < chunk.len() {
        chunk[i] = 1;
        i += 4096;
    }
    thread::sleep(Duration::from_millis(ms));
    let held = chunk.len();
    drop(chunk);
    format!("{{\"ok\":true,\"held\":{held}}}")
}

fn reply_outcome(outcome: &RunOutcome, warnings: &[String]) -> String {
    let w = warnings
        .iter()
        .map(|s| json_str(s))
        .collect::<Vec<_>>()
        .join(",");
    format!(
        "{{\"outcome\":{},\"warnings\":[{w}],\"rss_peak_kb\":{}}}",
        outcome_to_json(outcome),
        self_peak_rss_kb()
    )
}

fn child_compile(v: &JsonValue) -> String {
    let (outcome, warnings) = match decode_compile(v) {
        Ok((src, opts)) => run_source(src, &opts, &mut |_| {})
            .unwrap_or_else(|e| (RunOutcome::Failed(e.into()), Vec::new())),
        Err(e) => (RunOutcome::Failed(e), Vec::new()),
    };
    reply_outcome(&outcome, &warnings)
}

fn child_oracle(v: &JsonValue) -> String {
    let src = v.get("source").and_then(|x| x.as_str()).unwrap_or_default();
    let seed = v.get("seed").and_then(|x| x.as_u64()).unwrap_or(0);
    let legality = v.get("legality").and_then(|x| x.as_bool()).unwrap_or(false);
    let mut opts = CampaignOpts {
        legality,
        ..CampaignOpts::default()
    };
    if let Some(n) = v.get("step_limit").and_then(|x| x.as_u64()) {
        opts.oracle.step_limit = n;
    }
    opts.oracle.fuel = v.get("fuel").and_then(|x| x.as_u64());
    opts.oracle.deadline_ms = v.get("deadline_ms").and_then(|x| x.as_u64());
    let verdict = run_all(src, seed, &opts);
    let rss = self_peak_rss_kb();
    match verdict {
        Ok(interchanged) => {
            format!("{{\"verdict\":\"pass\",\"interchanged\":{interchanged},\"rss_peak_kb\":{rss}}}")
        }
        Err(f) => format!(
            "{{\"verdict\":\"fail\",\"oracle\":{},\"stage\":{},\"message\":{},\"rss_peak_kb\":{rss}}}",
            json_str(f.oracle.as_str()),
            json_str(&f.stage),
            json_str(&f.message)
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip_and_detect_truncation() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"{\"op\":\"ping\"}").unwrap();
        let mut r = io::BufReader::new(&buf[..]);
        assert_eq!(
            read_frame(&mut r).unwrap().as_deref(),
            Some(&b"{\"op\":\"ping\"}"[..])
        );
        assert!(read_frame(&mut r).unwrap().is_none(), "clean EOF");
        // A frame that promises more bytes than it delivers errors out.
        let lying = format!("{FRAME_MAGIC} 64\nshort");
        let mut r = io::BufReader::new(lying.as_bytes());
        let err = read_frame(&mut r).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        // Garbage headers are rejected, not misread.
        let mut r = io::BufReader::new(&b"HTTP/1.1 200 OK\r\n"[..]);
        assert!(read_frame(&mut r).is_err());
    }

    #[test]
    fn proc_status_parsing_extracts_kb_fields() {
        let sample =
            "Name:\tmha-serve\nVmPeak:\t  123456 kB\nVmRSS:\t   98304 kB\nVmHWM:\t  111111 kB\n";
        assert_eq!(proc_field_kb(sample, "VmRSS"), Some(98304));
        assert_eq!(proc_field_kb(sample, "VmHWM"), Some(111111));
        assert_eq!(proc_field_kb(sample, "VmSwap"), None);
        // Self-inspection works on this platform (returns something > 0).
        assert!(self_peak_rss_kb() > 0);
    }

    #[test]
    fn exit_status_description_covers_the_taxonomy() {
        // Spawn trivially-exiting shells to get real ExitStatus values.
        let ok = Command::new("true").status().unwrap();
        assert_eq!(describe_exit(ok), "reply truncated");
        let fail = Command::new("false").status().unwrap();
        assert_eq!(describe_exit(fail), "exit code 1");
    }

    #[test]
    fn directive_and_target_codecs_round_trip() {
        let opts = BatchOptions {
            jobs: 1,
            directives: Directives {
                pipeline_ii: Some(2),
                unroll_factor: None,
                partition_factor: Some(4),
                flatten: true,
            },
            flow: Flow::Cpp,
            cache_dir: Some(PathBuf::from("target/mha-cache")),
            target: Target {
                clock_ns: 3.33,
                bram_ports: 4,
                axi_ports: 2,
                axi_extra_latency: 9,
            },
            seed: 7,
            deadline_ms: Some(250),
            fuel: Some(10_000),
            chaos: Some(ChaosConfig {
                seed: 5,
                rate: 0.25,
            }),
            ..BatchOptions::default()
        };
        let gemm = Source::suite("gemm").unwrap();
        let raw = Source::Raw {
            name: "fuzzk",
            mlir: "func.func @f() {\n  return\n}\n",
        };
        for src in [gemm, raw] {
            let mut req = String::from("{\"op\":\"compile\"");
            push_compile(&mut req, src, &opts);
            req.push('}');
            let v = json::parse(&req).unwrap();
            let (back, back_opts) = decode_compile(&v).unwrap();
            assert_eq!(back.name(), src.name());
            match (src, back) {
                (Source::Suite(a), Source::Suite(b)) => assert_eq!(a.name, b.name),
                (Source::Raw { mlir: a, .. }, Source::Raw { mlir: b, .. }) => assert_eq!(a, b),
                _ => panic!("source kind changed in transit"),
            }
            // Field-for-field, floats by their bits.
            assert_eq!(format!("{back_opts:?}"), format!("{opts:?}"));
            assert_eq!(
                back_opts.target.clock_ns.to_bits(),
                opts.target.clock_ns.to_bits()
            );
        }
        // An unknown suite kernel decodes to the in-process request fault.
        let v = json::parse("{\"op\":\"compile\",\"kernel\":\"nope\"}").unwrap();
        match decode_compile(&v) {
            Err(e) => assert_eq!(e.stage(), "request"),
            Ok(_) => panic!("unknown kernel decoded"),
        }
    }
}
