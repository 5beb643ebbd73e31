//! `mha-batch` — run the whole kernel suite through the flow in parallel,
//! with a content-addressed artifact cache.
//!
//! ```text
//! mha-batch [--jobs N] [--format text|json] [--flow adaptor|cpp]
//!           [--no-cache] [--cache-dir DIR] [--report-json DIR]
//!           [--ii N] [--unroll N] [--partition N] [--flatten]
//!           [--seed N] [--inject-panic KERNEL]
//!           [--deadline-ms N] [--fuel N] [--chaos SEED,RATE] [--resume]
//!           [--isolate] [<kernel>... | all]
//! ```
//!
//! With no targets (or `all`), the full suite runs. Each kernel goes
//! through MLIR → flow → csynth → co-simulation on a `--jobs`-wide worker
//! pool; every stage output is cached under `--cache-dir` (default
//! `target/mha-cache`) keyed by a hash of its input text and configuration,
//! so a warm rerun only re-reads artifacts. A kernel that fails or panics
//! is reported in the summary without disturbing the others.
//!
//! Supervision flags (see ARCHITECTURE.md): `--deadline-ms`/`--fuel` bound
//! each kernel attempt (budget trips report as structured failures, not
//! hangs); `--chaos seed,rate` deterministically injects panics, delays,
//! I/O errors, and budget exhaustion at stage boundaries; `--resume`
//! replays kernels already completed in the run journal (`journal.jsonl`
//! next to the cache) after a killed run. Warnings go to stderr, so
//! `--format json` stdout is always one parseable document.
//!
//! `--isolate` runs each kernel's pipeline in a worker *process*
//! (`driver::warden`, re-exec'ing this binary with the hidden
//! `--warden-child` mode): a crash or OOM while compiling one kernel
//! becomes a `failed/crash` summary entry instead of killing the run.
//!
//! Exit codes: 0 all kernels clean, 1 some kernels failed or degraded, 2
//! infrastructure/usage error.

use std::path::PathBuf;

use driver::batch::{run_batch, BatchOptions, RunOutcome};
use driver::cli::Args;
use driver::{ChaosConfig, Directives, Flow};

const USAGE: &str = "usage: mha-batch [--jobs N] [--format text|json] [--flow adaptor|cpp]\n\
\x20                [--no-cache] [--cache-dir DIR] [--report-json DIR]\n\
\x20                [--ii N] [--unroll N] [--partition N] [--flatten]\n\
\x20                [--seed N] [--inject-panic KERNEL]\n\
\x20                [--deadline-ms N] [--fuel N] [--chaos SEED,RATE]\n\
\x20                [--resume] [--isolate] [<kernel>... | all]";

fn main() {
    // Worker mode: the warden re-execs this binary with `--warden-child`
    // as the only argument; dispatch before any flag parsing.
    if std::env::args().nth(1).as_deref() == Some("--warden-child") {
        driver::warden::child_main();
    }
    let mut opts = BatchOptions {
        directives: Directives::pipelined(1),
        ..BatchOptions::default()
    };
    let mut format_json = false;
    let mut report_json_dir: Option<PathBuf> = None;
    let mut targets: Vec<String> = Vec::new();

    let mut args = Args::from_env(USAGE);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--jobs" => opts.jobs = args.parse("--jobs"),
            "--format" => format_json = args.choose("--format", &[("text", false), ("json", true)]),
            "--flow" => {
                opts.flow = args.choose("--flow", &[("adaptor", Flow::Adaptor), ("cpp", Flow::Cpp)])
            }
            "--no-cache" => opts.cache_dir = None,
            "--cache-dir" => opts.cache_dir = Some(PathBuf::from(args.value("--cache-dir"))),
            "--report-json" => report_json_dir = Some(PathBuf::from(args.value("--report-json"))),
            "--ii" => opts.directives.pipeline_ii = Some(args.parse("--ii")),
            "--unroll" => opts.directives.unroll_factor = Some(args.parse("--unroll")),
            "--partition" => opts.directives.partition_factor = Some(args.parse("--partition")),
            "--flatten" => opts.directives.flatten = true,
            "--seed" => opts.seed = args.parse("--seed"),
            "--inject-panic" => opts.inject_panic = Some(args.value("--inject-panic")),
            "--deadline-ms" => opts.deadline_ms = Some(args.parse("--deadline-ms")),
            "--fuel" => opts.fuel = Some(args.parse("--fuel")),
            "--chaos" => match ChaosConfig::parse(&args.value("--chaos")) {
                Ok(cfg) => opts.chaos = Some(cfg),
                Err(e) => args.fail(e),
            },
            "--resume" => opts.resume = true,
            "--isolate" => opts.isolate = true,
            _ if a.starts_with("--") => args.fail(format!("unknown flag '{a}'")),
            _ => targets.push(a),
        }
    }

    let selected: Vec<kernels::Kernel> = if targets.is_empty() || targets.iter().any(|t| t == "all")
    {
        kernels::all_kernels().to_vec()
    } else {
        targets
            .iter()
            .map(|t| match kernels::kernel(t) {
                Some(k) => *k,
                None => {
                    eprintln!("unknown kernel '{t}'");
                    std::process::exit(2);
                }
            })
            .collect()
    };

    let summary = match run_batch(&selected, &opts) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("mha-batch: {e}");
            std::process::exit(2);
        }
    };

    if let Some(dir) = &report_json_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("mha-batch: cannot create {}: {e}", dir.display());
            std::process::exit(2);
        }
        for r in &summary.runs {
            // Degraded kernels still carry baseline (C++-flow) artifacts;
            // their report has `degraded: true` set.
            let artifacts = match &r.outcome {
                RunOutcome::Completed(a) => Some(a),
                RunOutcome::Degraded { artifacts, .. } => Some(artifacts),
                _ => None,
            };
            if let Some(a) = artifacts {
                let path = dir.join(format!("{}.json", r.kernel));
                if let Err(e) = std::fs::write(&path, a.report.to_json()) {
                    eprintln!("mha-batch: cannot write {}: {e}", path.display());
                    std::process::exit(2);
                }
            }
        }
    }

    if format_json {
        println!("{}", summary.to_json());
    } else {
        print!("{}", summary.render());
    }
    std::process::exit(summary.exit_code());
}
