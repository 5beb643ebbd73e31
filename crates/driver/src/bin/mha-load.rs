//! `mha-load` — seeded load generator for `mha-serve` (EXPERIMENTS.md §S1).
//!
//! ```text
//! mha-load --addr HOST:PORT [--requests N] [--concurrency N] [--rate R]
//!          [--repeat N] [--seed N] [--mix suite|fuzz|both]
//!          [--deadline-ms N] [--fuel N] [--min-warm-ratio F]
//!          [--clients N] [--keep-alive] [--retries N] [--allow-503]
//!          [--max-polite-p99-us N]
//!          [--adversary slow-loris|disconnect|hot|crash] [--adversary-threads N]
//!          [--format text|json]
//! ```
//!
//! Builds a deterministic request mix — suite kernels by name plus raw
//! MLIR kernels from the `fuzzing` generator (`--mix both`, the default) —
//! and drives `POST /v1/compile` with it from `--concurrency` threads.
//! `--rate R` paces the whole run open-loop at R requests/second (each
//! request has a scheduled start time; threads sleep until it); `--rate 0`
//! (default) runs closed-loop, as fast as the server answers.
//!
//! The same request set is replayed `--repeat` times (default 2): phase 0
//! is the **cold** phase (the server compiles), later phases are **warm**
//! (responses come back `X-Mha-Served: cache|coalesced|warm`). Per phase
//! the report records requests/s, p50/p99 latency, status-code counts, and
//! how responses were served. Same `--seed` ⇒ byte-identical request set.
//!
//! **Tenancy and fairness.** `--clients N` tags request `i` with
//! `X-Mha-Client: c{i mod N}`, exercising the server's per-client
//! deficit-round-robin admission, and the report gains a per-client
//! p50/p99/status breakdown (text and JSON) so fairness is visible
//! per tenant, not only in aggregate. `--max-polite-p99-us` turns the
//! polite-tenant p99 (over all phases, adversary traffic excluded) into
//! a hard gate.
//!
//! **Adversaries.** `--adversary` spawns `--adversary-threads` hostile
//! clients that run alongside every phase and are excluded from all
//! gates: `slow-loris` dribbles header bytes one at a time, `disconnect`
//! sends full requests then drops the socket before reading the
//! response, `hot` floods unique raw-MLIR compiles as the `hot`
//! tenant as fast as the server answers, and `crash` posts depth/size
//! bombs (deeply nested raw MLIR) designed to blow recursive stages —
//! pair it with `mha-serve --isolate` to verify a bomb costs one worker
//! process, not the server.
//!
//! **Resilience accounting.** Every `429`/`503` response is required to
//! carry `Retry-After`; one that doesn't fails the run. `--allow-503`
//! keeps shed/breaker `503`s out of the 5xx gate (chaos soaks). With
//! `--keep-alive` each worker thread holds one persistent connection
//! (stale reuse gets a free reconnect); `--retries N` additionally
//! resends a request up to N times after transport errors, for soaks
//! where chaos resets sockets mid-response.
//!
//! Exit codes: **0** run clean, **1** assertions failed (a gated 5xx
//! response, missing `Retry-After`, warm-hit ratio below
//! `--min-warm-ratio`, or polite p99 above `--max-polite-p99-us`), **2**
//! usage or connection errors, including a `GET /v1/healthz` probe before
//! the run that does not answer `200` (a draining server answers `503`).
//! `--format json` stdout is one parseable document; progress goes to
//! stderr.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use driver::cli::Args;
use pass_core::report::json_str;

const USAGE: &str = "usage: mha-load --addr HOST:PORT [--requests N] [--concurrency N]\n\
\x20               [--rate R] [--repeat N] [--seed N]\n\
\x20               [--mix suite|fuzz|both] [--deadline-ms N] [--fuel N]\n\
\x20               [--min-warm-ratio F] [--clients N] [--keep-alive]\n\
\x20               [--retries N] [--allow-503] [--max-polite-p99-us N]\n\
\x20               [--adversary slow-loris|disconnect|hot|crash]\n\
\x20               [--adversary-threads N] [--format text|json]";

#[derive(Clone, Copy, PartialEq)]
enum Mix {
    Suite,
    Fuzz,
    Both,
}

#[derive(Clone, Copy, PartialEq)]
enum Adversary {
    SlowLoris,
    Disconnect,
    Hot,
    Crash,
}

impl Adversary {
    fn label(self) -> &'static str {
        match self {
            Adversary::SlowLoris => "slow-loris",
            Adversary::Disconnect => "disconnect",
            Adversary::Hot => "hot",
            Adversary::Crash => "crash",
        }
    }
}

/// One response as seen by a polite client.
struct Sample {
    phase: usize,
    client: String,
    code: u16,
    served: String,
    latency_us: u64,
}

/// A parsed HTTP response.
struct Resp {
    code: u16,
    served: String,
    retry_after: bool,
    close: bool,
    #[allow(dead_code)]
    body: String,
}

fn read_response(reader: &mut BufReader<TcpStream>) -> Result<Resp, String> {
    let mut status_line = String::new();
    reader
        .read_line(&mut status_line)
        .map_err(|e| format!("status: {e}"))?;
    if status_line.is_empty() {
        return Err("connection closed before status line".into());
    }
    let code: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|c| c.parse().ok())
        .ok_or_else(|| format!("bad status line '{}'", status_line.trim()))?;
    let mut served = String::new();
    let mut content_length = 0usize;
    let mut retry_after = false;
    let mut close = false;
    loop {
        let mut line = String::new();
        reader
            .read_line(&mut line)
            .map_err(|e| format!("header: {e}"))?;
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        if let Some((name, value)) = line.split_once(':') {
            if name.eq_ignore_ascii_case("x-mha-served") {
                served = value.trim().to_string();
            } else if name.eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse().unwrap_or(0);
            } else if name.eq_ignore_ascii_case("retry-after") {
                retry_after = true;
            } else if name.eq_ignore_ascii_case("connection")
                && value.trim().eq_ignore_ascii_case("close")
            {
                close = true;
            }
        }
    }
    let mut buf = vec![0u8; content_length];
    reader
        .read_exact(&mut buf)
        .map_err(|e| format!("body: {e}"))?;
    Ok(Resp {
        code,
        served,
        retry_after,
        close,
        body: String::from_utf8_lossy(&buf).into_owned(),
    })
}

/// HTTP/1.1 client; with `keep_alive` it holds one persistent connection
/// and reconnects transparently when a reused connection turns out dead.
struct HttpClient {
    addr: String,
    keep_alive: bool,
    retries: u64,
    conn: Option<BufReader<TcpStream>>,
}

impl HttpClient {
    fn new(addr: &str, keep_alive: bool, retries: u64) -> HttpClient {
        HttpClient {
            addr: addr.to_string(),
            keep_alive,
            retries,
            conn: None,
        }
    }

    fn try_send(
        &mut self,
        method: &str,
        path: &str,
        body: &str,
        client: &str,
    ) -> Result<Resp, String> {
        if self.conn.is_none() {
            let s = TcpStream::connect(&self.addr).map_err(|e| format!("connect: {e}"))?;
            s.set_read_timeout(Some(Duration::from_secs(60))).ok();
            self.conn = Some(BufReader::new(s));
        }
        let reader = self.conn.as_mut().unwrap();
        let client_hdr = if client.is_empty() {
            String::new()
        } else {
            format!("X-Mha-Client: {client}\r\n")
        };
        let req = format!(
            "{method} {path} HTTP/1.1\r\nHost: {}\r\nContent-Type: application/json\r\n\
             Content-Length: {}\r\n{client_hdr}Connection: {}\r\n\r\n{body}",
            self.addr,
            body.len(),
            if self.keep_alive {
                "keep-alive"
            } else {
                "close"
            },
        );
        reader
            .get_mut()
            .write_all(req.as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        let resp = read_response(reader)?;
        if !self.keep_alive || resp.close {
            self.conn = None;
        }
        Ok(resp)
    }

    /// Send with the reconnect/retry policy: a dead *reused* connection
    /// gets one free reconnect (normal keep-alive race), then up to
    /// `retries` real resends for transport errors.
    fn send(&mut self, method: &str, path: &str, body: &str, client: &str) -> Result<Resp, String> {
        let mut budget = self.retries;
        let mut free_reuse_retry = true;
        loop {
            let reused = self.conn.is_some();
            match self.try_send(method, path, body, client) {
                Ok(r) => return Ok(r),
                Err(e) => {
                    self.conn = None;
                    if reused && free_reuse_retry {
                        free_reuse_retry = false;
                        continue;
                    }
                    if budget > 0 {
                        budget -= 1;
                        std::thread::sleep(Duration::from_millis(20));
                        continue;
                    }
                    return Err(e);
                }
            }
        }
    }
}

/// The pre-load health probe's verdict: only a `200` from
/// `GET /v1/healthz` means the server takes load. A draining server
/// answers `503`; anything else is not a live `mha-serve`.
fn probe_verdict(probe: Result<Resp, String>) -> Result<(), String> {
    match probe {
        Ok(r) if r.code == 200 => Ok(()),
        Ok(r) => Err(format!("health probe GET /v1/healthz answered {}", r.code)),
        Err(e) => Err(format!("server unreachable: {e}")),
    }
}

/// The deterministic request set: suite kernel names and/or fuzzer MLIR,
/// interleaved, as `POST /v1/compile` bodies.
fn build_requests(
    n: usize,
    seed: u64,
    mix: Mix,
    deadline_ms: Option<u64>,
    fuel: Option<u64>,
) -> Vec<String> {
    let suite = kernels::all_kernels();
    let budget = |out: &mut String| {
        if let Some(ms) = deadline_ms {
            out.push_str(&format!(",\"deadline_ms\":{ms}"));
        }
        if let Some(f) = fuel {
            out.push_str(&format!(",\"fuel\":{f}"));
        }
    };
    (0..n)
        .map(|i| {
            let fuzzy = match mix {
                Mix::Suite => false,
                Mix::Fuzz => true,
                Mix::Both => i % 2 == 1,
            };
            let mut body = if fuzzy {
                let g =
                    fuzzing::generate(seed.wrapping_add(i as u64), &fuzzing::GenConfig::default());
                format!(
                    "{{\"mlir\":{},\"name\":\"load-{}\"",
                    json_str(&g.text),
                    g.seed
                )
            } else {
                let k = &suite[(seed as usize + i) % suite.len()];
                format!("{{\"kernel\":{}", json_str(k.name))
            };
            budget(&mut body);
            body.push('}');
            body
        })
        .collect()
}

fn quantile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// What the hostile clients did, reported but excluded from every gate.
#[derive(Default)]
struct AdvStats {
    attempts: u64,
    responses: u64,
    codes: HashMap<u16, u64>,
    transport_errors: u64,
}

fn adversary_loop(
    mode: Adversary,
    addr: &str,
    seed: u64,
    thread_id: usize,
    stop: &AtomicBool,
    stats: &Mutex<AdvStats>,
) {
    let mut counter = 0u64;
    while !stop.load(Ordering::SeqCst) {
        counter += 1;
        stats.lock().unwrap().attempts += 1;
        match mode {
            Adversary::SlowLoris => {
                // Dribble one header byte at a time; a resilient server
                // answers 408 at its header deadline and hangs up.
                let head =
                    format!("POST /v1/compile HTTP/1.1\r\nHost: {addr}\r\nX-Mha-Client: loris\r\n");
                match TcpStream::connect(addr) {
                    Ok(mut s) => {
                        s.set_read_timeout(Some(Duration::from_secs(10))).ok();
                        for b in head.as_bytes() {
                            if stop.load(Ordering::SeqCst) || s.write_all(&[*b]).is_err() {
                                break;
                            }
                            std::thread::sleep(Duration::from_millis(25));
                        }
                        // Server should have hung up (or will); drain
                        // whatever it said.
                        let mut reader = BufReader::new(s);
                        if let Ok(r) = read_response(&mut reader) {
                            let mut st = stats.lock().unwrap();
                            st.responses += 1;
                            *st.codes.entry(r.code).or_insert(0) += 1;
                        }
                    }
                    Err(_) => stats.lock().unwrap().transport_errors += 1,
                }
            }
            Adversary::Disconnect => {
                // Full request, then vanish before the response: the
                // journal must still make the outcome recoverable.
                let body = "{\"kernel\":\"gemm\"}";
                match TcpStream::connect(addr) {
                    Ok(mut s) => {
                        let req = format!(
                            "POST /v1/compile HTTP/1.1\r\nHost: {addr}\r\n\
                             Content-Type: application/json\r\nContent-Length: {}\r\n\
                             X-Mha-Client: rude\r\nConnection: close\r\n\r\n{body}",
                            body.len()
                        );
                        let _ = s.write_all(req.as_bytes());
                        drop(s);
                        std::thread::sleep(Duration::from_millis(10));
                    }
                    Err(_) => stats.lock().unwrap().transport_errors += 1,
                }
            }
            Adversary::Hot => {
                // One aggressive tenant flooding unique raw-MLIR compiles
                // closed-loop — the DRR scheduler should keep it to its
                // fair share, and raw-class shedding hits it first.
                let g = fuzzing::generate(
                    seed ^ 0xAD5E_0000 ^ (thread_id as u64) << 32 ^ counter,
                    &fuzzing::GenConfig::default(),
                );
                let body = format!(
                    "{{\"mlir\":{},\"name\":\"hot-{}-{counter}\"}}",
                    json_str(&g.text),
                    thread_id
                );
                let mut client = HttpClient::new(addr, true, 0);
                match client.send("POST", "/v1/compile", &body, "hot") {
                    Ok(r) => {
                        let mut st = stats.lock().unwrap();
                        st.responses += 1;
                        *st.codes.entry(r.code).or_insert(0) += 1;
                    }
                    Err(_) => stats.lock().unwrap().transport_errors += 1,
                }
            }
            Adversary::Crash => {
                // Depth/size bombs hunting process-killing failure modes
                // (stack overflow in recursive parsers, allocator blowups).
                // Every request is unique so nothing is answered from the
                // cache; under `mha-serve --isolate` each bomb costs at
                // most one worker process, never the server. Expected
                // answers are 4xx/5xx — the gate is that the server stays
                // up and polite tenants stay fast.
                let depth = 1_500 + (counter % 512) as usize;
                let mut src = String::with_capacity(depth * 16 + 64);
                src.push_str("func @bomb() {\n");
                for i in 0..depth {
                    src.push_str(&format!("scf.if %c{i} {{\n"));
                }
                for _ in 0..=depth {
                    src.push_str("}\n");
                }
                let body = format!(
                    "{{\"mlir\":{},\"name\":\"bomb-{}-{counter}\",\"deadline_ms\":2000}}",
                    json_str(&src),
                    thread_id
                );
                let mut client = HttpClient::new(addr, true, 0);
                match client.send("POST", "/v1/compile", &body, "bomb") {
                    Ok(r) => {
                        let mut st = stats.lock().unwrap();
                        st.responses += 1;
                        *st.codes.entry(r.code).or_insert(0) += 1;
                    }
                    Err(_) => stats.lock().unwrap().transport_errors += 1,
                }
            }
        }
    }
}

fn main() {
    let mut addr = String::new();
    let mut requests = 50usize;
    let mut concurrency = 4usize;
    let mut rate = 0f64;
    let mut repeat = 2usize;
    let mut seed = 0u64;
    let mut mix = Mix::Both;
    let mut deadline_ms = None;
    let mut fuel = None;
    let mut min_warm_ratio: Option<f64> = None;
    let mut format_json = false;
    let mut clients = 0usize;
    let mut keep_alive = false;
    let mut retries = 0u64;
    let mut allow_503 = false;
    let mut max_polite_p99_us: Option<u64> = None;
    let mut adversary: Option<Adversary> = None;
    let mut adversary_threads = 1usize;

    let mut args = Args::from_env(USAGE);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--addr" => addr = args.value("--addr"),
            "--requests" => requests = args.parse("--requests"),
            "--concurrency" => concurrency = args.parse("--concurrency"),
            "--rate" => rate = args.parse("--rate"),
            "--repeat" => repeat = args.parse("--repeat"),
            "--seed" => seed = args.parse("--seed"),
            "--mix" => {
                mix = args.choose(
                    "--mix",
                    &[
                        ("suite", Mix::Suite),
                        ("fuzz", Mix::Fuzz),
                        ("both", Mix::Both),
                    ],
                )
            }
            "--deadline-ms" => deadline_ms = Some(args.parse("--deadline-ms")),
            "--fuel" => fuel = Some(args.parse("--fuel")),
            "--min-warm-ratio" => min_warm_ratio = Some(args.parse("--min-warm-ratio")),
            "--clients" => clients = args.parse("--clients"),
            "--keep-alive" => keep_alive = true,
            "--retries" => retries = args.parse("--retries"),
            "--allow-503" => allow_503 = true,
            "--max-polite-p99-us" => max_polite_p99_us = Some(args.parse("--max-polite-p99-us")),
            "--adversary" => {
                adversary = Some(args.choose(
                    "--adversary",
                    &[
                        ("slow-loris", Adversary::SlowLoris),
                        ("disconnect", Adversary::Disconnect),
                        ("hot", Adversary::Hot),
                        ("crash", Adversary::Crash),
                    ],
                ))
            }
            "--adversary-threads" => adversary_threads = args.parse("--adversary-threads"),
            "--format" => format_json = args.choose("--format", &[("text", false), ("json", true)]),
            _ => args.fail(format!("unknown flag '{a}'")),
        }
    }
    if addr.is_empty() {
        args.fail("--addr is required");
    }
    if requests == 0 || repeat == 0 || concurrency == 0 {
        args.fail("--requests, --repeat, and --concurrency must be positive");
    }

    // Probe before loading so a dead or draining server is exit 2, not
    // 100 errors.
    if let Err(e) =
        probe_verdict(HttpClient::new(&addr, false, 0).send("GET", "/v1/healthz", "", ""))
    {
        eprintln!("mha-load: {e}");
        std::process::exit(2);
    }

    let bodies = build_requests(requests, seed, mix, deadline_ms, fuel);
    let client_of = |i: usize| -> String {
        if clients > 0 {
            format!("c{}", i % clients)
        } else {
            String::new()
        }
    };
    let samples: Mutex<Vec<Sample>> = Mutex::new(Vec::with_capacity(requests * repeat));
    let errors: Mutex<Vec<String>> = Mutex::new(Vec::new());
    let phase_wall_us: Mutex<Vec<u64>> = Mutex::new(Vec::with_capacity(repeat));
    let stop_adversaries = AtomicBool::new(false);
    let adv_stats: Mutex<AdvStats> = Mutex::new(AdvStats::default());
    let retry_after_missing = AtomicU64::new(0);

    std::thread::scope(|outer| {
        if let Some(mode) = adversary {
            for t in 0..adversary_threads {
                let addr = &addr;
                let stop = &stop_adversaries;
                let stats = &adv_stats;
                outer.spawn(move || adversary_loop(mode, addr, seed, t, stop, stats));
            }
        }
        for phase in 0..repeat {
            let next = AtomicUsize::new(0);
            let phase_start = Instant::now();
            std::thread::scope(|scope| {
                for _ in 0..concurrency.min(requests) {
                    scope.spawn(|| {
                        let mut http = HttpClient::new(&addr, keep_alive, retries);
                        loop {
                            let i = next.fetch_add(1, Ordering::SeqCst);
                            if i >= requests {
                                return;
                            }
                            if rate > 0.0 {
                                let due = Duration::from_secs_f64(i as f64 / rate);
                                let elapsed = phase_start.elapsed();
                                if due > elapsed {
                                    std::thread::sleep(due - elapsed);
                                }
                            }
                            let client = client_of(i);
                            let start = Instant::now();
                            match http.send("POST", "/v1/compile", &bodies[i], &client) {
                                Ok(r) => {
                                    if (r.code == 429 || r.code == 503) && !r.retry_after {
                                        retry_after_missing.fetch_add(1, Ordering::SeqCst);
                                    }
                                    samples.lock().unwrap().push(Sample {
                                        phase,
                                        client,
                                        code: r.code,
                                        served: r.served,
                                        latency_us: start.elapsed().as_micros() as u64,
                                    })
                                }
                                Err(e) => errors.lock().unwrap().push(e),
                            }
                        }
                    });
                }
            });
            let wall = phase_start.elapsed().as_micros() as u64;
            phase_wall_us.lock().unwrap().push(wall);
            eprintln!(
                "mha-load: phase {phase} ({}) done in {:.1} ms",
                if phase == 0 { "cold" } else { "warm" },
                wall as f64 / 1000.0
            );
        }
        stop_adversaries.store(true, Ordering::SeqCst);
    });

    let samples = samples.into_inner().unwrap();
    let errors = errors.into_inner().unwrap();
    let phase_wall_us = phase_wall_us.into_inner().unwrap();
    let adv_stats = adv_stats.into_inner().unwrap();
    let retry_after_missing = retry_after_missing.load(Ordering::SeqCst);
    for e in &errors {
        eprintln!("mha-load: request failed: {e}");
    }
    if !errors.is_empty() {
        std::process::exit(2);
    }

    // Per-phase aggregation.
    let mut phase_rows = Vec::new();
    let mut gated_5xx = 0u64;
    let mut warm_phase_total = 0u64;
    let mut warm_phase_hits = 0u64;
    for (phase, &phase_wall) in phase_wall_us.iter().enumerate().take(repeat) {
        let mut lat: Vec<u64> = Vec::new();
        let mut codes: HashMap<u16, u64> = HashMap::new();
        let mut served: HashMap<String, u64> = HashMap::new();
        for s in samples.iter().filter(|s| s.phase == phase) {
            lat.push(s.latency_us);
            *codes.entry(s.code).or_insert(0) += 1;
            *served.entry(s.served.clone()).or_insert(0) += 1;
            if s.code >= 500 && !(allow_503 && s.code == 503) {
                gated_5xx += 1;
            }
            if phase > 0 {
                warm_phase_total += 1;
                if s.served != "compiled" {
                    warm_phase_hits += 1;
                }
            }
        }
        lat.sort_unstable();
        let wall_us = phase_wall.max(1);
        let rps = lat.len() as f64 * 1_000_000.0 / wall_us as f64;
        let mut code_rows: Vec<(u16, u64)> = codes.into_iter().collect();
        code_rows.sort_unstable();
        let mut served_rows: Vec<(String, u64)> = served.into_iter().collect();
        served_rows.sort();
        phase_rows.push((phase, lat, wall_us, rps, code_rows, served_rows));
    }
    let warm_ratio = if warm_phase_total > 0 {
        warm_phase_hits as f64 / warm_phase_total as f64
    } else {
        0.0
    };

    // Per-client aggregation across all phases (satellite: per-tenant
    // visibility for the fairness gate).
    let mut by_client: HashMap<String, (Vec<u64>, HashMap<u16, u64>)> = HashMap::new();
    for s in &samples {
        let name = if s.client.is_empty() {
            "-".to_string()
        } else {
            s.client.clone()
        };
        let entry = by_client.entry(name).or_default();
        entry.0.push(s.latency_us);
        *entry.1.entry(s.code).or_insert(0) += 1;
    }
    type ClientRow = (String, Vec<u64>, Vec<(u16, u64)>);
    let mut client_rows: Vec<ClientRow> = by_client
        .into_iter()
        .map(|(name, (mut lat, codes))| {
            lat.sort_unstable();
            let mut code_rows: Vec<(u16, u64)> = codes.into_iter().collect();
            code_rows.sort_unstable();
            (name, lat, code_rows)
        })
        .collect();
    client_rows.sort_by(|a, b| a.0.cmp(&b.0));

    // Polite p99 over every sample from the main request set (adversary
    // traffic never lands in `samples`).
    let polite_p99 = {
        let mut all: Vec<u64> = samples.iter().map(|s| s.latency_us).collect();
        all.sort_unstable();
        quantile(&all, 0.99)
    };

    if format_json {
        let phases_json = phase_rows
            .iter()
            .map(|(phase, lat, wall_us, rps, codes, served)| {
                let codes_json = codes
                    .iter()
                    .map(|(c, n)| format!("\"{c}\":{n}"))
                    .collect::<Vec<_>>()
                    .join(",");
                let served_json = served
                    .iter()
                    .map(|(s, n)| format!("{}:{n}", json_str(s)))
                    .collect::<Vec<_>>()
                    .join(",");
                format!(
                    "{{\"phase\":{phase},\"label\":{},\"requests\":{},\"wall_us\":{wall_us},\
                     \"rps\":{rps:.1},\"p50_us\":{},\"p99_us\":{},\"codes\":{{{codes_json}}},\
                     \"served\":{{{served_json}}}}}",
                    json_str(if *phase == 0 { "cold" } else { "warm" }),
                    lat.len(),
                    quantile(lat, 0.50),
                    quantile(lat, 0.99),
                )
            })
            .collect::<Vec<_>>()
            .join(",");
        let clients_json = client_rows
            .iter()
            .map(|(name, lat, codes)| {
                let codes_json = codes
                    .iter()
                    .map(|(c, n)| format!("\"{c}\":{n}"))
                    .collect::<Vec<_>>()
                    .join(",");
                format!(
                    "{{\"client\":{},\"requests\":{},\"p50_us\":{},\"p99_us\":{},\
                     \"codes\":{{{codes_json}}}}}",
                    json_str(name),
                    lat.len(),
                    quantile(lat, 0.50),
                    quantile(lat, 0.99),
                )
            })
            .collect::<Vec<_>>()
            .join(",");
        let adversary_json = match adversary {
            Some(mode) => {
                let codes_json = {
                    let mut rows: Vec<(u16, u64)> =
                        adv_stats.codes.iter().map(|(k, v)| (*k, *v)).collect();
                    rows.sort_unstable();
                    rows.iter()
                        .map(|(c, n)| format!("\"{c}\":{n}"))
                        .collect::<Vec<_>>()
                        .join(",")
                };
                format!(
                    "{{\"mode\":{},\"threads\":{adversary_threads},\"attempts\":{},\
                     \"responses\":{},\"codes\":{{{codes_json}}},\"transport_errors\":{}}}",
                    json_str(mode.label()),
                    adv_stats.attempts,
                    adv_stats.responses,
                    adv_stats.transport_errors,
                )
            }
            None => "null".into(),
        };
        println!(
            "{{\"addr\":{},\"seed\":{seed},\"requests\":{requests},\"repeat\":{repeat},\
             \"concurrency\":{concurrency},\"rate\":{rate},\"keep_alive\":{keep_alive},\
             \"phases\":[{phases_json}],\"clients\":[{clients_json}],\
             \"polite_p99_us\":{polite_p99},\"retry_after_missing\":{retry_after_missing},\
             \"adversary\":{adversary_json},\
             \"warm_ratio\":{warm_ratio:.3},\"gated_5xx\":{gated_5xx}}}",
            json_str(&addr)
        );
    } else {
        println!(
            "mha-load against {addr} (seed {seed}, {requests} requests x {repeat} phases, \
             {concurrency} threads{})",
            if keep_alive { ", keep-alive" } else { "" }
        );
        for (phase, lat, _wall, rps, codes, served) in &phase_rows {
            let codes_s = codes
                .iter()
                .map(|(c, n)| format!("{c}:{n}"))
                .collect::<Vec<_>>()
                .join(" ");
            let served_s = served
                .iter()
                .map(|(s, n)| format!("{s}:{n}"))
                .collect::<Vec<_>>()
                .join(" ");
            println!(
                "  phase {phase} ({}): {:8.1} req/s  p50 {:>8} us  p99 {:>8} us  [{codes_s}]  [{served_s}]",
                if *phase == 0 { "cold" } else { "warm" },
                rps,
                quantile(lat, 0.50),
                quantile(lat, 0.99),
            );
        }
        if clients > 0 {
            for (name, lat, codes) in &client_rows {
                let codes_s = codes
                    .iter()
                    .map(|(c, n)| format!("{c}:{n}"))
                    .collect::<Vec<_>>()
                    .join(" ");
                println!(
                    "  client {name}: {} requests  p50 {:>8} us  p99 {:>8} us  [{codes_s}]",
                    lat.len(),
                    quantile(lat, 0.50),
                    quantile(lat, 0.99),
                );
            }
        }
        if let Some(mode) = adversary {
            let codes_s = {
                let mut rows: Vec<(u16, u64)> =
                    adv_stats.codes.iter().map(|(k, v)| (*k, *v)).collect();
                rows.sort_unstable();
                rows.iter()
                    .map(|(c, n)| format!("{c}:{n}"))
                    .collect::<Vec<_>>()
                    .join(" ")
            };
            println!(
                "  adversary {} x{adversary_threads}: {} attempts, {} responses [{codes_s}], {} transport errors",
                mode.label(),
                adv_stats.attempts,
                adv_stats.responses,
                adv_stats.transport_errors,
            );
        }
        println!(
            "  warm-hit ratio {warm_ratio:.3}, gated 5xx {gated_5xx}, polite p99 {polite_p99} us, \
             429/503 without Retry-After: {retry_after_missing}"
        );
    }

    let mut failed = false;
    if gated_5xx > 0 {
        eprintln!(
            "mha-load: FAIL: {gated_5xx} gated 5xx response(s){}",
            if allow_503 { " (503 excluded)" } else { "" }
        );
        failed = true;
    }
    if retry_after_missing > 0 {
        eprintln!("mha-load: FAIL: {retry_after_missing} 429/503 response(s) without Retry-After");
        failed = true;
    }
    if let Some(min) = min_warm_ratio {
        if warm_ratio < min {
            eprintln!("mha-load: FAIL: warm-hit ratio {warm_ratio:.3} below required {min:.3}");
            failed = true;
        }
    }
    if let Some(bound) = max_polite_p99_us {
        if polite_p99 > bound {
            eprintln!("mha-load: FAIL: polite p99 {polite_p99} us above bound {bound} us");
            failed = true;
        }
    }
    std::process::exit(if failed { 1 } else { 0 });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn resp(code: u16) -> Result<Resp, String> {
        Ok(Resp {
            code,
            served: String::new(),
            retry_after: code == 503,
            close: true,
            body: String::new(),
        })
    }

    #[test]
    fn only_a_200_health_probe_lets_the_load_run() {
        assert_eq!(probe_verdict(resp(200)), Ok(()));
        for code in [404, 503] {
            let err = probe_verdict(resp(code)).unwrap_err();
            assert!(err.contains(&code.to_string()), "{err}");
        }
        assert!(probe_verdict(Err("connect: refused".into())).is_err());
    }
}
