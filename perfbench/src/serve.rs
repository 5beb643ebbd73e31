//! serve-isolated: the compilation service over HTTP.
//!
//! An in-process `Server` with `--isolate` semantics (compile workers =
//! warden pool = nproc) in a fresh cache/journal directory, driven
//! closed-loop by nproc keep-alive clients. The cold phase sends each of
//! 3500 distinct fuzz-generated raw-MLIR bodies once (in seed order), each
//! compiled in a worker process through flow → csynth, then linted; the
//! warm phase re-sends them for the rest of `--seconds` and must get
//! byte-identical bodies from the response cache. This
//! is the only workload through HTTP intake, the fair queue, journal and
//! cache writes and warden framing, and it never runs the interpreter.

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use driver::batch::RunOutcome;
use driver::{
    run_flow_on_text, Directives, Flow, RawCompile, ServeConfig, Server, Warden, WardenConfig,
};
use pass_core::json::{self, JsonValue};
use pass_core::report::json_str;
use pass_core::Budget;
use vitis_sim::Target;

use crate::http::{Client, Response};
use crate::inputs::{self, FuzzKernel};
use crate::procfs::{self, Usage};
use crate::stats;
use crate::trace::Tracer;
use crate::{timed, Phase, Report, RunCfg, TracedOps, SERVE_SETUP_REPS};

/// The cold phase sends every body once; the warm phase fills the rest of
/// `--seconds`, but never less than this share of it (in the traced run:
/// exactly this share, and the layer replays take the rest).
const WARM_MIN_SHARE: f64 = 0.2;
const TRACE_WARM_SHARE: f64 = 0.1;
/// Bodies replayed layer by layer in the traced run, at least.
const COUNT_OPS: usize = 200;
/// The module name the server gives a raw body without a `name` field.
const MODULE_NAME: &str = "kernel";

fn config(dir: PathBuf, workers: usize) -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers,
        cache_dir: Some(dir),
        resume: false,
        isolate: true,
        warden_pool: workers,
        ..ServeConfig::default()
    }
}

/// One start: a fresh directory, `Server::start` (which pre-spawns and
/// pings the warden pool) and the first `/v1/healthz`.
fn start(cfg: &RunCfg, rep: usize) -> Result<(Server, PathBuf), String> {
    let dir = cfg.fresh_dir(&format!("serve-{rep}"))?;
    let server = Server::start(config(dir.clone(), cfg.workers())).map_err(|e| e.to_string())?;
    let health = Client::new(server.addr(), "setup").get("/v1/healthz")?;
    if health.code != 200 {
        return Err(format!("healthz answered {}", health.code));
    }
    Ok((server, dir))
}

/// A reply as the client saw it.
struct Sent<T> {
    body: usize,
    ns: u64,
    /// Completion time, seconds from the loop's start.
    at_s: f64,
    reply: T,
}

/// One client thread's replies (with their sequence numbers), its
/// run-queue wait and its connection count.
type ClientResult<T> = (Vec<(usize, Sent<T>)>, u64, u64);

struct Loop<T> {
    sent: Vec<Sent<T>>,
    wall_s: f64,
    /// Run-queue wait of the client threads, which exit before the
    /// process-wide reading is taken.
    client_runq_ns: u64,
    connects: u64,
}

/// Drive `clients` closed-loop connections: request `seq` posts body
/// `pick(seq)`, until `budget` has passed and `min_ops` replies are in,
/// or `pick` runs out. `on_reply` digests each reply on its thread.
fn closed_loop<T: Send>(
    addr: SocketAddr,
    clients: usize,
    budget: Duration,
    min_ops: usize,
    bodies: &[String],
    pick: impl Fn(usize) -> Option<usize> + Sync,
    on_reply: impl Fn(usize, Result<Response, String>) -> T + Sync,
) -> Loop<T> {
    let next = AtomicUsize::new(0);
    let done = AtomicUsize::new(0);
    let start = Instant::now();
    let per_thread: Vec<ClientResult<T>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let (next, done, pick, on_reply) = (&next, &done, &pick, &on_reply);
                s.spawn(move || {
                    let runq0 = procfs::thread_runq_wait_ns();
                    let mut client = Client::new(addr, &format!("bench-{c}"));
                    let mut out = Vec::new();
                    while done.load(Ordering::SeqCst) < min_ops || start.elapsed() < budget {
                        let seq = next.fetch_add(1, Ordering::SeqCst);
                        let Some(body) = pick(seq) else { break };
                        let t = Instant::now();
                        let resp = client.post("/v1/compile", &bodies[body]);
                        let ns = t.elapsed().as_nanos() as u64;
                        let at_s = start.elapsed().as_secs_f64();
                        done.fetch_add(1, Ordering::SeqCst);
                        let reply = on_reply(body, resp);
                        out.push((
                            seq,
                            Sent {
                                body,
                                ns,
                                at_s,
                                reply,
                            },
                        ));
                    }
                    (out, procfs::thread_runq_wait_ns() - runq0, client.connects)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client threads return their replies"))
            .collect()
    });
    let wall_s = start.elapsed().as_secs_f64();
    let mut all: Vec<(usize, Sent<T>)> = Vec::new();
    let (mut client_runq_ns, mut connects) = (0, 0);
    for (sent, runq, conns) in per_thread {
        all.extend(sent);
        client_runq_ns += runq;
        connects += conns;
    }
    all.sort_by_key(|(seq, _)| *seq);
    Loop {
        sent: all.into_iter().map(|(_, s)| s).collect(),
        wall_s,
        client_runq_ns,
        connects,
    }
}

/// What a cold response claims: module digest and csynth latency.
struct Compiled {
    digest: String,
    latency: u64,
    body: String,
}

fn decode_cold(resp: Result<Response, String>) -> Result<Compiled, String> {
    let r = resp?;
    if r.code != 200 || r.served != "compiled" {
        return Err(format!(
            "cold reply {} served {:?}: {:.300}",
            r.code, r.served, r.body
        ));
    }
    let v = json::parse(&r.body).map_err(|e| format!("reply is not JSON: {e}"))?;
    let outcome = v.get("outcome").ok_or("reply has no outcome")?;
    let field = |k: &str| outcome.get(k).and_then(JsonValue::as_str);
    if field("status") != Some("ok") {
        return Err(format!("outcome is not ok: {:.300}", r.body));
    }
    let digest = field("module_digest")
        .ok_or("no module_digest")?
        .to_string();
    let csynth = driver::cache::decode_csynth(field("csynth").ok_or("no csynth")?)?;
    Ok(Compiled {
        digest,
        latency: csynth.latency,
        body: r.body,
    })
}

/// The in-process pipeline a worker runs for a raw body: flow, print,
/// csynth. Returns the module digest and latency.
fn in_process(text: &str) -> Result<(String, u64), String> {
    let art = run_flow_on_text(
        MODULE_NAME,
        text,
        &Directives::pipelined(1),
        Flow::Adaptor,
        &Budget::unlimited(),
    )
    .map_err(|e| e.to_string())?;
    let printed = llvm_lite::printer::print_module(&art.module);
    let cs = vitis_sim::csynth(&art.module, &Target::default()).map_err(|e| e.to_string())?;
    Ok((
        format!("{:016x}", kernels::fnv1a64(printed.as_bytes())),
        cs.latency,
    ))
}

/// [`in_process`] for every listed kernel, on `threads` threads.
fn references(ks: &[&FuzzKernel], threads: usize) -> Vec<Result<(String, u64), String>> {
    let chunk = ks.len().div_ceil(threads.max(1)).max(1);
    std::thread::scope(|s| {
        let handles: Vec<_> = ks
            .chunks(chunk)
            .map(|part| {
                s.spawn(move || part.iter().map(|k| in_process(&k.text)).collect::<Vec<_>>())
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("reference threads do not panic"))
            .collect()
    })
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|rd| {
            rd.filter_map(|e| e.ok())
                .map(|e| match e.metadata() {
                    Ok(m) if m.is_dir() => dir_bytes(&e.path()),
                    Ok(m) => m.len(),
                    Err(_) => 0,
                })
                .sum()
        })
        .unwrap_or(0)
}

/// Counters from `GET /v1/status`.
struct Status {
    coalesced: u64,
    keepalive_reuses: u64,
    spawned: u64,
    recycled: u64,
    crashes: u64,
    queue_wait_mean_ms: f64,
}

fn status(addr: SocketAddr) -> Result<Status, String> {
    let r = Client::new(addr, "status").get("/v1/status")?;
    let v = json::parse(&r.body).map_err(|e| format!("status is not JSON: {e}"))?;
    let num = |path: &[&str]| {
        path.iter()
            .try_fold(&v, |v, k| v.get(k))
            .and_then(JsonValue::as_u64)
            .ok_or_else(|| format!("status has no {}", path.join(".")))
    };
    // The histogram's p50/p99 are log2 bucket edges; the exact mean is
    // sum over count.
    let queue = v
        .get("latency")
        .and_then(JsonValue::as_arr)
        .and_then(|a| {
            a.iter()
                .find(|h| h.get("stage").and_then(JsonValue::as_str) == Some("queue"))
        })
        .ok_or("status has no queue histogram")?;
    let q = |k: &str| queue.get(k).and_then(JsonValue::as_u64).unwrap_or(0);
    Ok(Status {
        coalesced: num(&["requests", "coalesced"])?,
        keepalive_reuses: num(&["resilience", "keepalive_reuses"])?,
        spawned: num(&["warden", "spawned"])?,
        recycled: num(&["warden", "recycled"])?,
        crashes: num(&["warden", "crashes"])?,
        queue_wait_mean_ms: q("sum_us") as f64 / q("count").max(1) as f64 / 1e3,
    })
}

/// Everything the server phases measured.
struct Served {
    cold: Phase,
    warm: Phase,
    /// Client latency of each cold-sent body, by body index.
    cold_ns: Vec<(usize, u64)>,
    warm_hits: u64,
    status: Status,
    bytes_per_request: f64,
    cpu_ms_per_op: f64,
    runq_ms_per_op: f64,
}

pub fn run(cfg: &RunCfg) -> Result<Report, String> {
    let pool = inputs::generate_range(inputs::SERVE_RANGE, cfg.seed);
    let bodies: Vec<String> = pool
        .iter()
        .map(|k| format!("{{\"mlir\":{}}}", json_str(&k.text)))
        .collect();
    eprintln!(
        "serve-isolated: {} bodies inputs {}",
        bodies.len(),
        inputs::kernels_digest("serve-isolated/v1", &pool)
    );
    let mut setups = Vec::new();
    let mut live: Option<(Server, PathBuf)> = None;
    for rep in 0..SERVE_SETUP_REPS {
        if let Some((old, dir)) = live.take() {
            old.stop();
            let _ = std::fs::remove_dir_all(dir);
        }
        let (s, secs) = timed(|| start(cfg, rep))?;
        setups.push(secs);
        live = Some(s);
    }
    let (server, dir) = live.expect("at least one set-up");
    let mut report = Report::default();
    let served = phases(cfg, server, &dir, &pool, &bodies, &mut report);
    let _ = std::fs::remove_dir_all(&dir);
    let served = served?;
    if cfg.trace {
        return traced(cfg, &pool, served, report);
    }
    report.set_common(&setups, &served.cold, &served.warm);
    Ok(report)
}

/// Cold and warm phases against a started server, then status, stop and
/// the reference check of every cold reply.
fn phases(
    cfg: &RunCfg,
    server: Server,
    dir: &Path,
    pool: &[FuzzKernel],
    bodies: &[String],
    report: &mut Report,
) -> Result<Served, String> {
    let addr = server.addr();
    let clients = cfg.workers();
    let bytes0 = dir_bytes(dir);
    let usage = Usage::now();
    let cold = closed_loop(
        addr,
        clients,
        Duration::ZERO,
        bodies.len(),
        bodies,
        |seq| (seq < bodies.len()).then_some(seq),
        |_, resp| decode_cold(resp),
    );
    let warm_budget = if cfg.trace {
        cfg.budget(TRACE_WARM_SHARE)
    } else {
        cfg.budget(1.0)
            .saturating_sub(Duration::from_secs_f64(cold.wall_s))
            .max(cfg.budget(WARM_MIN_SHARE))
    };
    let (cpu_ms_per_op, runq_ms_per_op) = usage.per_op(cold.sent.len() as u64, cold.client_runq_ns);

    let ok: Vec<usize> = cold
        .sent
        .iter()
        .filter(|s| s.reply.is_ok())
        .map(|s| s.body)
        .collect();
    let mut cold_body: Vec<Option<&str>> = vec![None; bodies.len()];
    for s in &cold.sent {
        if let Ok(c) = &s.reply {
            cold_body[s.body] = Some(&c.body);
        }
    }
    let warm = closed_loop(
        addr,
        clients,
        warm_budget,
        0,
        bodies,
        |seq| (!ok.is_empty()).then(|| ok[seq % ok.len()]),
        |body, resp| {
            let r = resp?;
            if r.code != 200 || Some(r.body.as_str()) != cold_body[body] {
                return Err(format!("warm reply {} differs from the cold body", r.code));
            }
            Ok(r.served == "cache")
        },
    );
    let status = status(addr);
    server.stop();
    let bytes_per_request =
        dir_bytes(dir).saturating_sub(bytes0) as f64 / cold.sent.len().max(1) as f64;
    let status = status?;

    // Reference check, outside every timed phase.
    let sent: Vec<&FuzzKernel> = cold.sent.iter().map(|s| &pool[s.body]).collect();
    let refs = references(&sent, clients);
    let phase = Phase::binned(
        &cold.sent.iter().map(|s| (s.ns, s.at_s)).collect::<Vec<_>>(),
        cold.wall_s,
    );
    let mut cold_ns = Vec::new();
    for (s, reference) in cold.sent.iter().zip(refs) {
        cold_ns.push((s.body, s.ns));
        report.check(match (&s.reply, reference) {
            (Ok(c), Ok((digest, latency))) if c.digest == digest && c.latency == latency => Ok(()),
            (Ok(c), Ok((digest, latency))) => Err(format!(
                "body {}: served {} / {} cycles, in-process {digest} / {latency}",
                s.body, c.digest, c.latency
            )),
            (Err(e), _) => Err(format!("body {}: {e}", s.body)),
            (_, Err(e)) => Err(format!("body {}: reference failed: {e}", s.body)),
        });
    }
    let warm_phase = Phase::binned(
        &warm.sent.iter().map(|s| (s.ns, s.at_s)).collect::<Vec<_>>(),
        warm.wall_s,
    );
    let mut warm_hits = 0;
    for s in warm.sent {
        warm_hits += u64::from(matches!(s.reply, Ok(true)));
        report.check(s.reply.map(|_| ()));
    }
    let qor: Vec<f64> = cold
        .sent
        .iter()
        .filter_map(|s| s.reply.as_ref().ok())
        .map(|c| c.latency.max(1) as f64)
        .collect();
    if !qor.is_empty() {
        report.set("qor_geomean_cycles", stats::geomean(&qor));
    }
    eprintln!(
        "serve-isolated: {} client connections over {} clients",
        cold.connects + warm.connects,
        clients
    );
    Ok(Served {
        cold: phase,
        warm_hits,
        warm: warm_phase,
        cold_ns,
        status,
        bytes_per_request,
        cpu_ms_per_op,
        runq_ms_per_op,
    })
}

/// Per-layer figures: server counters from the phases above, then per
/// cold body a worker round trip on a private warden, the in-process
/// pipeline (timed) and its replay with and without spans.
fn traced(
    cfg: &RunCfg,
    pool: &[FuzzKernel],
    served: Served,
    mut report: Report,
) -> Result<Report, String> {
    let warden = Warden::new(WardenConfig {
        pool: 1,
        ..WardenConfig::default()
    })?;
    let directives = Directives::pipelined(1);
    let target = Target::default();
    let mut t = Tracer::new(false);
    let mut ops = TracedOps::default();
    let (mut roundtrip, mut warden_over, mut serve_over) = (Vec::new(), Vec::new(), Vec::new());
    let budget = cfg
        .budget(1.0 - TRACE_WARM_SHARE)
        .saturating_sub(Duration::from_secs_f64(served.cold.wall_s()));
    let start = Instant::now();
    for (i, (body, client_ns)) in served.cold_ns.iter().enumerate() {
        if i >= COUNT_OPS && start.elapsed() >= budget {
            break;
        }
        let k = &pool[*body];
        let rc = RawCompile {
            name: MODULE_NAME,
            mlir: &k.text,
            directives: &directives,
            flow: Flow::Adaptor,
            deadline_ms: None,
            fuel: None,
        };
        let s = Instant::now();
        let (outcome, _) = warden.execute_raw(&rc, &target);
        let rt_ns = s.elapsed().as_nanos() as u64;
        let s = Instant::now();
        let real = in_process(&k.text);
        let op_ns = s.elapsed().as_nanos() as u64;
        ops.op_ns.push(op_ns);
        let replayed = ops.replay(&mut t, i as u32, |t| replay(t, &k.text));
        report.check(match (outcome, real, replayed) {
            (RunOutcome::Completed(a), Ok((digest, latency)), Ok(r))
                if a.module_digest == digest && r == (digest.clone(), latency) =>
            {
                Ok(())
            }
            _ => Err(format!(
                "body {body}: worker, in-process and replay disagree"
            )),
        });
        roundtrip.push(rt_ns as f64 / 1e6);
        warden_over.push((rt_ns as f64 - op_ns as f64) / 1e6);
        serve_over.push((*client_ns as f64 - rt_ns as f64) / 1e6);
    }
    warden.shutdown();
    ops.layer_metrics(
        &t,
        COUNT_OPS as u32,
        &["llvm_lite.parse", "analysis.lint"],
        &mut report,
    );
    report.set("warden.roundtrip_ms", stats::median(&roundtrip));
    report.set("warden.overhead_ms", stats::median(&warden_over));
    report.set("serve.overhead_ms", stats::median(&serve_over));
    let st = &served.status;
    report.set("serve.queue_wait_mean_ms", st.queue_wait_mean_ms);
    report.set("serve.bytes_written_per_request", served.bytes_per_request);
    report.set(
        "serve.warm_hit_ratio",
        served.warm_hits as f64 / served.warm.lat.len().max(1) as f64,
    );
    report.set("serve.coalesced", st.coalesced as f64);
    report.set("serve.keepalive_reuses", st.keepalive_reuses as f64);
    report.set("warden.spawned", st.spawned as f64);
    report.set("warden.recycled", st.recycled as f64);
    report.set("warden.crashes", st.crashes as f64);
    report.set("process.cpu_ms_per_op", served.cpu_ms_per_op);
    report.set("process.runq_wait_ms", served.runq_ms_per_op);
    report.tracer = Some(t);
    Ok(report)
}

/// The worker's raw pipeline plus the server's lint, one public layer
/// call per span. Returns the module digest and csynth latency.
fn replay(t: &mut Tracer, text: &str) -> Result<(String, u64), String> {
    use mlir_lite::passes::MlirPass;
    let err = |e: &dyn std::fmt::Display| e.to_string();
    let budget = Budget::unlimited();
    let mut m = t
        .span("mlir_lite.parse", |_| {
            mlir_lite::parser::parse_module(MODULE_NAME, text)
        })
        .map_err(|e| err(&e))?;
    t.span("mlir_lite.verify", |_| {
        mlir_lite::verifier::verify_module(&m)
    })
    .map_err(|e| err(&e))?;
    t.span("mlir_lite.passes", |_| {
        mlir_lite::passes::PipelineInnermost { ii: 1 }.run(&mut m)
    })
    .map_err(|e| err(&e))?;
    let mut module = t
        .span("lowering.lower", |_| lowering::lower(m))
        .map_err(|e| err(&e))?;
    t.count("lowering.insts_out", crate::insts(&module));
    let rep = t
        .span("adaptor.run", |_| {
            adaptor::run_adaptor_budgeted(&mut module, &adaptor::AdaptorConfig::default(), &budget)
        })
        .map_err(|e| err(&e))?;
    t.count("adaptor.insts_out", crate::insts(&module));
    t.count("adaptor.iterations", rep.pipeline.iterations as u64);
    let printed = t.span("llvm_lite.print", |_| {
        llvm_lite::printer::print_module(&module)
    });
    let cs = t
        .span("vitis_sim.csynth", |_| {
            vitis_sim::csynth_budgeted(&module, &Target::default(), &budget)
        })
        .map_err(|e| err(&e))?;
    let reparsed = t
        .span("llvm_lite.parse", |_| {
            llvm_lite::parser::parse_module(MODULE_NAME, &printed)
        })
        .map_err(|e| err(&e))?;
    t.span("analysis.lint", |_| {
        driver::LintReport::for_module(&reparsed, false).to_json()
    });
    Ok((
        format!("{:016x}", kernels::fnv1a64(printed.as_bytes())),
        cs.latency,
    ))
}
