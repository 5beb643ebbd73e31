//! `mha-perfbench` — the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! mha-perfbench --workload <suite-cold|fuzz-oracle|serve-isolated>
//!               --seed <n> --seconds <s> --trace <0|1>
//! mha-perfbench --digests
//! ```
//!
//! Each workload generates its inputs from `--seed`, sets up several times
//! (reporting the median set-up time), measures for `--seconds`, checks
//! every output and prints one JSON object as the last line of stdout:
//! the end-to-end metrics with `--trace 0`, the per-layer metrics of a
//! traced run with `--trace 1`. Progress and sample counts go to stderr.
//! The exit code is 1 when any output failed its check or the pinned
//! input digests no longer match, 2 on a usage error.
//!
//! The binary also serves as its own warden worker: `driver::warden`
//! re-executes an `mha-*` binary with `--warden-child`.

mod fuzz;
mod http;
mod inputs;
mod procfs;
mod serve;
mod stats;
mod suite;
mod trace;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use stats::Phase;
use trace::Tracer;

/// Set-ups per run; `setup_s` is their median. serve-isolated's set-up
/// is a few milliseconds of process spawning, so it repeats more.
pub const SETUP_REPS: usize = 5;
pub const SERVE_SETUP_REPS: usize = 15;

/// End-to-end metrics, reported by every workload with `--trace 0`.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("kernels_per_s", "1/s"),
    ("p50_ms", "ms"),
    ("p99_ms", "ms"),
    ("warm_p50_ms", "ms"),
    ("ok_ratio", "ratio"),
    ("peak_rss_mb", "MiB"),
    ("qor_geomean_cycles", "cycles"),
];

/// Per-layer metrics of the traced run. A layer a workload never calls
/// reads 0 there: its span was never recorded.
const PER_LAYER: &[(&str, &str)] = &[
    ("llvm_lite.interp_ms", "ms"),
    ("llvm_lite.interp_steps", "count"),
    ("llvm_lite.msteps_per_s", "Msteps/s"),
    ("kernels.reference_ms", "ms"),
    ("kernels.inputs_ms", "ms"),
    ("mlir_lite.parse_ms", "ms"),
    ("mlir_lite.verify_ms", "ms"),
    ("mlir_lite.passes_ms", "ms"),
    ("mlir_lite.print_ms", "ms"),
    ("lowering.lower_ms", "ms"),
    ("lowering.insts_out", "count"),
    ("adaptor.run_ms", "ms"),
    ("adaptor.insts_out", "count"),
    ("adaptor.iterations", "count"),
    ("llvm_lite.print_ms", "ms"),
    ("llvm_lite.parse_ms", "ms"),
    ("llvm_lite.verify_ms", "ms"),
    ("hls_cpp.emit_ms", "ms"),
    ("hls_cpp.frontend_ms", "ms"),
    ("llvm_lite.cleanup_ms", "ms"),
    ("llvm_lite.cleanup_iterations", "count"),
    ("vitis_sim.csynth_ms", "ms"),
    ("analysis.lint_ms", "ms"),
    ("fuzzing.generate_ms", "ms"),
    ("driver.glue_ms", "ms"),
    ("warden.roundtrip_ms", "ms"),
    ("warden.overhead_ms", "ms"),
    ("serve.overhead_ms", "ms"),
    ("serve.queue_wait_mean_ms", "ms"),
    ("serve.bytes_written_per_request", "B"),
    ("serve.warm_hit_ratio", "ratio"),
    ("serve.coalesced", "count"),
    ("serve.keepalive_reuses", "count"),
    ("warden.spawned", "count"),
    ("warden.recycled", "count"),
    ("warden.crashes", "count"),
    ("process.cpu_ms_per_op", "ms"),
    ("process.runq_wait_ms", "ms"),
    ("trace.overhead_pct", "%"),
];

/// Span names whose self times become `<name>_ms` per-layer metrics.
const LAYER_SPANS: &[&str] = &[
    "llvm_lite.interp",
    "kernels.reference",
    "kernels.inputs",
    "mlir_lite.parse",
    "mlir_lite.verify",
    "mlir_lite.passes",
    "mlir_lite.print",
    "lowering.lower",
    "adaptor.run",
    "llvm_lite.print",
    "llvm_lite.parse",
    "llvm_lite.verify",
    "hls_cpp.emit",
    "hls_cpp.frontend",
    "llvm_lite.cleanup",
    "vitis_sim.csynth",
    "analysis.lint",
    "fuzzing.generate",
];

/// Exact counters the replays record, reported as per-op means.
const LAYER_COUNTERS: &[&str] = &[
    "llvm_lite.interp_steps",
    "lowering.insts_out",
    "adaptor.insts_out",
    "adaptor.iterations",
    "llvm_lite.cleanup_iterations",
];

/// Per-run settings shared by the workloads.
pub struct RunCfg {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// This run's private scratch directory (cache dirs, journals),
    /// removed when the run ends.
    pub scratch: PathBuf,
}

impl RunCfg {
    pub fn budget(&self, share: f64) -> Duration {
        Duration::from_secs_f64(self.seconds * share)
    }

    /// A fresh, empty directory under the run's scratch directory.
    pub fn fresh_dir(&self, name: &str) -> Result<PathBuf, String> {
        let d = self.scratch.join(name);
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).map_err(|e| format!("create {}: {e}", d.display()))?;
        Ok(d)
    }

    pub fn workers(&self) -> usize {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    }
}

/// What a workload hands back: op counts, first failures, metric values.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub metrics: BTreeMap<&'static str, f64>,
    pub tracer: Option<Tracer>,
}

impl Report {
    /// Count one checked op; failures are kept (the first few verbatim).
    pub fn check(&mut self, verdict: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = verdict {
            self.fail(e);
        }
    }

    /// A failed check that is not an op of its own (e.g. set-up output).
    pub fn fail(&mut self, e: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(e);
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Zero the per-layer metrics of layer families (name prefixes) this
    /// workload never reaches.
    pub fn absent(&mut self, prefixes: &[&str]) {
        for (name, _) in PER_LAYER {
            if prefixes.iter().any(|p| name.starts_with(p)) {
                self.metrics.entry(name).or_insert(0.0);
            }
        }
    }

    /// The metrics every workload derives the same way.
    pub fn set_common(&mut self, setup_s: &[f64], cold: &Phase, warm: &Phase) {
        self.set("setup_s", stats::median(setup_s));
        self.set("kernels_per_s", cold.ops_per_s());
        if let (Some(p50), Some(p99)) = (cold.p50_ms(), cold.p99_ms()) {
            self.set("p50_ms", p50);
            self.set("p99_ms", p99);
        }
        if let Some(w) = warm.p50_ms() {
            self.set("warm_p50_ms", w);
        }
        self.set(
            "ok_ratio",
            (self.attempted - self.failed.min(self.attempted)) as f64
                / self.attempted.max(1) as f64,
        );
        self.set("peak_rss_mb", procfs::peak_rss_mb());
        eprintln!(
            "samples: {} cold ops in {:.2}s, {} warm ops; {} attempted, {} failed",
            cold.lat.len(),
            cold.wall_s(),
            warm.lat.len(),
            self.attempted,
            self.failed
        );
    }
}

/// Seconds per slice of [`sliced_loop`].
const SLICE_S: f64 = 1.0;

/// Run `op(i)` for i = 0, 1, 2, … in [`sliced_loop`] windows until
/// `budget` has elapsed and at least `min_ops` ops are done, timing each
/// call.
pub fn timed_loop(budget: Duration, min_ops: usize, mut op: impl FnMut(usize)) -> Phase {
    sliced_loop(budget, 1.0, min_ops, &mut op, |_| {}).0
}

/// Alternate cold and warm ops on the calling thread in [`SLICE_S`]
/// slices, `cold_share` of each slice cold, until `total` has elapsed and
/// at least `min_cold` cold ops are done.
///
/// Each slice is pinned to the next CPU in turn, and one window of each
/// phase spans one slice on every CPU. On the 2-vCPU VM this benchmark was
/// built on, one vCPU ran the suite at half the speed of the other, so an
/// unpinned run measured whichever vCPU the scheduler happened to pick.
/// Windows that cover every CPU, with cold and warm interleaved, give both
/// phases the same mix of CPUs and of the machine's drift.
pub fn sliced_loop(
    total: Duration,
    cold_share: f64,
    min_cold: usize,
    mut cold: impl FnMut(usize),
    mut warm: impl FnMut(usize),
) -> (Phase, Phase) {
    let cpus = procfs::Affinity::current();
    let start = Instant::now();
    let (mut c, mut w) = (Phase::default(), Phase::default());
    let (mut ci, mut wi) = (0, 0);
    while start.elapsed() < total || c.lat.len() < min_cold {
        c.windows.push(stats::Window::default());
        w.windows.push(stats::Window::default());
        for slot in 0..cpus.count() {
            cpus.pin(slot);
            ci = run_for(&mut c, SLICE_S * cold_share, ci, &mut cold);
            if cold_share < 1.0 {
                wi = run_for(&mut w, SLICE_S * (1.0 - cold_share), wi, &mut warm);
            }
        }
    }
    cpus.restore();
    if cold_share >= 1.0 {
        w.windows.clear();
    }
    (c, w)
}

/// Run ops from index `i` for at least `secs`, adding them and the time
/// to the last window of `p`; returns the next index.
fn run_for(p: &mut Phase, secs: f64, mut i: usize, op: &mut impl FnMut(usize)) -> usize {
    let start = Instant::now();
    loop {
        let t = Instant::now();
        op(i);
        p.push(t.elapsed().as_nanos() as u64);
        i += 1;
        if start.elapsed().as_secs_f64() >= secs {
            break;
        }
    }
    p.windows.last_mut().expect("a window is open").secs += start.elapsed().as_secs_f64();
    i
}

/// Time one set-up.
pub fn timed<T>(f: impl FnOnce() -> Result<T, String>) -> Result<(T, f64), String> {
    let t = Instant::now();
    let v = f()?;
    Ok((v, t.elapsed().as_secs_f64()))
}

/// The per-op timings a traced phase collects next to its spans.
#[derive(Default)]
pub struct TracedOps {
    /// Wall time of the real (untraced) op, by op id.
    pub op_ns: Vec<u64>,
    /// Wall time of the replay with the recorder off and on.
    pub replay_off_ns: u64,
    pub replay_on_ns: u64,
}

impl TracedOps {
    /// Time the replay once untraced and once traced (as op `op`). The
    /// order alternates between ops, since a second run of the same
    /// kernel finds warmer caches.
    pub fn replay<T>(
        &mut self,
        t: &mut Tracer,
        op: u32,
        mut replay: impl FnMut(&mut Tracer) -> T,
    ) -> T {
        let mut traced = None;
        for on in [op.is_multiple_of(2), !op.is_multiple_of(2)] {
            t.set_enabled(on);
            t.begin_op(op);
            let s = Instant::now();
            let out = replay(t);
            let ns = s.elapsed().as_nanos() as u64;
            if on {
                self.replay_on_ns += ns;
                traced = Some(out);
            } else {
                self.replay_off_ns += ns;
            }
        }
        traced.expect("one of the two runs is traced")
    }

    /// Derive the span-based per-layer metrics: median self time per op
    /// of each layer, exact per-op counters over the first `count_ops`
    /// ops, the interpreter rate, the driver glue (real op minus the
    /// replayed layers, except those in `outside_op`) and the recorder's
    /// overhead.
    pub fn layer_metrics(
        &self,
        t: &Tracer,
        count_ops: u32,
        outside_op: &[&str],
        report: &mut Report,
    ) {
        let n_ops = self.op_ns.len();
        let by_op = trace::self_by_op(&t.spans);
        for name in LAYER_SPANS {
            let per_op: Vec<f64> = (0..n_ops as u32)
                .map(|op| by_op.get(&(op, *name)).map_or(0.0, |ns| *ns as f64 / 1e6))
                .collect();
            let metric = PER_LAYER
                .iter()
                .find(|(m, _)| m.strip_suffix("_ms") == Some(name))
                .expect("every layer span has a per-layer metric")
                .0;
            report.set(metric, stats::median(&per_op));
        }
        let glue: Vec<f64> = (0..n_ops as u32)
            .map(|op| {
                let layers: u64 = by_op
                    .range((op, "")..)
                    .take_while(|((o, _), _)| *o == op)
                    .filter(|((_, name), _)| {
                        LAYER_SPANS.contains(name) && !outside_op.contains(name)
                    })
                    .map(|(_, ns)| *ns)
                    .sum();
                (self.op_ns[op as usize] as f64 - layers as f64) / 1e6
            })
            .collect();
        report.set("driver.glue_ms", stats::median(&glue));

        let mut counts: BTreeMap<&str, u64> = BTreeMap::new();
        for (op, name, v) in &t.counts {
            if *op < count_ops {
                *counts.entry(name).or_insert(0) += v;
            }
        }
        for name in LAYER_COUNTERS {
            let total = counts.get(name).copied().unwrap_or(0);
            report.set(name, total as f64 / count_ops.max(1) as f64);
        }
        let interp_ns: u64 = by_op
            .iter()
            .filter(|((_, name), _)| *name == "llvm_lite.interp")
            .map(|(_, ns)| *ns)
            .sum();
        let steps: u64 = t
            .counts
            .iter()
            .filter(|(_, name, _)| *name == "llvm_lite.interp_steps")
            .map(|(_, _, v)| *v)
            .sum();
        report.set(
            "llvm_lite.msteps_per_s",
            if interp_ns == 0 {
                0.0
            } else {
                steps as f64 / (interp_ns as f64 / 1e9) / 1e6
            },
        );
        report.set(
            "trace.overhead_pct",
            (self.replay_on_ns as f64 / self.replay_off_ns.max(1) as f64 - 1.0) * 100.0,
        );
        eprintln!(
            "traced: {n_ops} ops, {} spans, counters over the first {count_ops} ops",
            t.spans.len()
        );
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: mha-perfbench --workload <suite-cold|fuzz-oracle|serve-isolated> \
         --seed <n> --seconds <s> --trace <0|1>\n       mha-perfbench --digests"
    );
    std::process::exit(2)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--warden-child") {
        driver::warden::child_main();
    }
    if args.first().map(String::as_str) == Some("--digests") {
        for w in ["suite-cold", "fuzz-oracle", "serve-isolated"] {
            println!("{w} {}", inputs::default_digest(w).0);
        }
        return;
    }
    let mut workload = None;
    let mut seed = inputs::DEFAULT_SEED;
    let mut seconds: f64 = 10.0;
    let mut traced = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else { usage() };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().unwrap_or_else(|_| usage()),
            "--seconds" => seconds = value.parse().unwrap_or_else(|_| usage()),
            "--trace" => {
                traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            _ => usage(),
        }
    }
    let Some(workload) = workload else { usage() };
    if seconds.is_nan() || seconds <= 0.0 {
        usage();
    }
    let run_fn: fn(&RunCfg) -> Result<Report, String> = match workload.as_str() {
        "suite-cold" => suite::run,
        "fuzz-oracle" => fuzz::run,
        "serve-isolated" => serve::run,
        _ => usage(),
    };
    if let Err(e) = inputs::check_pinned(&workload) {
        eprintln!("mha-perfbench: {e}");
        std::process::exit(1);
    }
    let cfg = RunCfg {
        seed,
        seconds,
        trace: traced,
        scratch: Path::new(".bench_tmp").join(format!("{workload}-{}", std::process::id())),
    };
    let result = run_fn(&cfg);
    let _ = std::fs::remove_dir_all(&cfg.scratch);
    // Only removes the parent when no other run is using it.
    let _ = std::fs::remove_dir(".bench_tmp");
    let report = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("mha-perfbench: {workload}: {e}");
            std::process::exit(1);
        }
    };
    if let Some(t) = &report.tracer {
        let path = Path::new(".bench_out").join(format!("trace-{workload}-seed{seed}.jsonl"));
        match t.write_jsonl(&path) {
            Ok(()) => eprintln!("spans written to {}", path.display()),
            Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
        }
    }
    for f in &report.failures {
        eprintln!("check failed: {f}");
    }
    let wanted = if traced { PER_LAYER } else { END_TO_END };
    let mut fields = Vec::new();
    for (name, unit) in wanted {
        let Some(v) = report.metrics.get(name).copied().filter(|v| v.is_finite()) else {
            eprintln!("mha-perfbench: {workload}: metric {name} was not measured");
            std::process::exit(1);
        };
        fields.push(format!("\"{name}\":{{\"value\":{v},\"unit\":\"{unit}\"}}"));
    }
    let correct = report.failed == 0;
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        report.attempted,
        report.failed,
        fields.join(",")
    );
    if !correct {
        std::process::exit(1);
    }
}

/// Live instructions in a module, the IR-size counter of the traced run.
pub fn insts(m: &llvm_lite::Module) -> u64 {
    m.functions.iter().map(|f| f.num_insts() as u64).sum()
}
