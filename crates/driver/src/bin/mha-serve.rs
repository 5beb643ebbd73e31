//! `mha-serve` — the long-running compilation service (ARCHITECTURE.md §7).
//!
//! ```text
//! mha-serve [--addr HOST:PORT] [--workers N]
//!           [--no-cache] [--cache-dir DIR] [--fresh-journal]
//!           [--deadline-ms N] [--fuel N] [--seed N] [--max-body BYTES]
//!           [--read-timeout-ms N] [--header-deadline-ms N]
//!           [--write-timeout-ms N] [--no-keep-alive]
//!           [--keepalive-idle-ms N] [--keepalive-max-requests N]
//!           [--queue-depth N] [--quantum N] [--shed-p99-ms N]
//!           [--breaker-window N] [--breaker-min-samples N]
//!           [--breaker-trip-ratio F] [--breaker-cooldown-ms N]
//!           [--chaos SEED,RATE]
//!           [--isolate] [--warden-pool N] [--max-requests-per-worker N]
//!           [--max-worker-rss-mb N] [--warden-chaos SEED,RATE]
//!           [--max-cached-responses N]
//! ```
//!
//! Binds the address (default `127.0.0.1:8787`; port 0 picks a free port),
//! prints the bound address to stderr as `mha-serve: listening on ADDR`,
//! and serves until `POST /v1/shutdown` drains the pool. Endpoints,
//! request/response schemas, and the status-code ↔ fault-taxonomy mapping
//! are documented in ARCHITECTURE.md §7; the operator runbook (journal
//! layout, warm restarts, resilience tuning, troubleshooting) is in
//! OPERATIONS.md.
//!
//! The artifact cache is shared with `mha-batch` (default
//! `target/mha-cache`); completed responses are journaled to
//! `serve.jsonl` next to it and replayed on restart, so a restarted
//! server answers previously-compiled requests warm. `--fresh-journal`
//! truncates instead; `--no-cache` disables cache and journal both.
//!
//! `--deadline-ms`/`--fuel` set the *default* per-request budget; each
//! request may override them in its body. Budget trips surface as HTTP
//! 408 (deadline) / 429 (fuel), deterministic compile failures as 422,
//! transient faults as 503, panics and harness failures as 500.
//! Admission-queue shedding answers 429 and a breaker-open rejection 503,
//! both always carrying `Retry-After`.
//!
//! `--chaos SEED,RATE` arms the seeded fault injector over the serve
//! sites (socket reset, slow read, worker stall, transient compile
//! faults) and, for suite kernels, the batch engine's own cache/retry
//! sites — the same flag grammar as `mha-batch`.
//!
//! `--isolate` runs every compilation in a pre-spawned **worker process**
//! (`driver::warden`): a segfault, stack overflow, abort, or OOM in a
//! worker becomes a typed `crash` 500 while the server keeps serving.
//! `--max-worker-rss-mb` arms the RSS watchdog, `--warden-chaos` injects
//! crash faults inside workers (worker kill, RSS bomb, reply truncation)
//! for soak testing. The hidden `--warden-child` argv\[1\] mode is how the
//! re-exec'd workers enter their serve loop — never pass it by hand.
//!
//! Exit codes: **0** clean drain, **2** usage or startup error (bind
//! failure, unusable cache dir, malformed flag).

use std::path::PathBuf;

use driver::cli::Args;
use driver::{ChaosConfig, ServeConfig, Server};

const USAGE: &str = "usage: mha-serve [--addr HOST:PORT] [--workers N]\n\
\x20                [--no-cache] [--cache-dir DIR] [--fresh-journal]\n\
\x20                [--deadline-ms N] [--fuel N] [--seed N]\n\
\x20                [--max-body BYTES]\n\
\x20                [--read-timeout-ms N] [--header-deadline-ms N]\n\
\x20                [--write-timeout-ms N] [--no-keep-alive]\n\
\x20                [--keepalive-idle-ms N] [--keepalive-max-requests N]\n\
\x20                [--queue-depth N] [--quantum N] [--shed-p99-ms N]\n\
\x20                [--breaker-window N] [--breaker-min-samples N]\n\
\x20                [--breaker-trip-ratio F] [--breaker-cooldown-ms N]\n\
\x20                [--chaos SEED,RATE]\n\
\x20                [--isolate] [--warden-pool N]\n\
\x20                [--max-requests-per-worker N]\n\
\x20                [--max-worker-rss-mb N] [--warden-chaos SEED,RATE]\n\
\x20                [--max-cached-responses N]";

fn main() {
    // Worker mode: the warden re-execs this binary with `--warden-child`
    // as the only argument; dispatch before any flag parsing.
    if std::env::args().nth(1).as_deref() == Some("--warden-child") {
        driver::warden::child_main();
    }
    let mut config = ServeConfig {
        addr: "127.0.0.1:8787".into(),
        ..ServeConfig::default()
    };

    let mut args = Args::from_env(USAGE);
    while let Some(a) = args.next() {
        let q = &mut config.queue;
        let b = &mut config.breaker;
        match a.as_str() {
            "--addr" => config.addr = args.value("--addr"),
            "--workers" => config.workers = args.parse("--workers"),
            "--no-cache" => config.cache_dir = None,
            "--cache-dir" => config.cache_dir = Some(PathBuf::from(args.value("--cache-dir"))),
            "--fresh-journal" => config.resume = false,
            "--deadline-ms" => config.deadline_ms = Some(args.parse("--deadline-ms")),
            "--fuel" => config.fuel = Some(args.parse("--fuel")),
            "--seed" => config.seed = args.parse("--seed"),
            "--max-body" => config.max_body = args.parse("--max-body"),
            "--read-timeout-ms" => config.read_timeout_ms = args.parse("--read-timeout-ms"),
            "--header-deadline-ms" => {
                config.header_deadline_ms = args.parse("--header-deadline-ms")
            }
            "--write-timeout-ms" => config.write_timeout_ms = args.parse("--write-timeout-ms"),
            "--no-keep-alive" => config.keepalive = false,
            "--keepalive-idle-ms" => config.keepalive_idle_ms = args.parse("--keepalive-idle-ms"),
            "--keepalive-max-requests" => {
                config.keepalive_max_requests = args.parse("--keepalive-max-requests")
            }
            "--queue-depth" => q.max_depth = args.parse("--queue-depth"),
            "--quantum" => q.quantum = args.parse::<u32>("--quantum").max(1),
            "--shed-p99-ms" => q.shed_wait_p99_ms = args.parse("--shed-p99-ms"),
            "--breaker-window" => b.window = args.parse("--breaker-window"),
            "--breaker-min-samples" => b.min_samples = args.parse("--breaker-min-samples"),
            "--breaker-trip-ratio" => b.trip_ratio = args.parse("--breaker-trip-ratio"),
            "--breaker-cooldown-ms" => b.cooldown_ms = args.parse("--breaker-cooldown-ms"),
            "--chaos" => match ChaosConfig::parse(&args.value("--chaos")) {
                Ok(cfg) => config.chaos = Some(cfg),
                Err(e) => args.fail(e),
            },
            "--isolate" => config.isolate = true,
            "--warden-pool" => config.warden_pool = args.parse("--warden-pool"),
            "--max-requests-per-worker" => {
                config.max_requests_per_worker =
                    args.parse::<u32>("--max-requests-per-worker").max(1)
            }
            "--max-worker-rss-mb" => {
                config.max_worker_rss_mb = Some(args.parse("--max-worker-rss-mb"))
            }
            "--warden-chaos" => match ChaosConfig::parse(&args.value("--warden-chaos")) {
                Ok(cfg) => config.warden_chaos = Some(cfg),
                Err(e) => args.fail(e),
            },
            "--max-cached-responses" => {
                config.max_cached_responses = args.parse("--max-cached-responses")
            }
            _ => args.fail(format!("unknown flag '{a}'")),
        }
    }

    let server = match Server::start(config) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("mha-serve: {e}");
            std::process::exit(2);
        }
    };
    eprintln!("mha-serve: listening on {}", server.addr());
    // The pool runs until POST /v1/shutdown flips the drain flag; join
    // blocks until every admitted request has completed and been journaled.
    server.join();
    eprintln!("mha-serve: drained");
}
