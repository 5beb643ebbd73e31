//! `mha-csynth` — synthesize a kernel through one or both flows and print
//! the Vitis-style reports side by side.
//!
//! ```text
//! mha-csynth <kernel|all> [--ii <n>] [--unroll <n>] [--partition <n>]
//!            [--flatten] [--flow adaptor|cpp|both]
//!            [--deadline-ms <n>] [--fuel <n>]
//! ```
//!
//! Each (kernel, flow) pair runs through the batch engine
//! (`driver::batch::run_supervised`, without the cache): flow, csynth and
//! co-simulation under one [`pass_core::Budget`] built from
//! `--deadline-ms` and `--fuel`, so an exhausted budget surfaces as a
//! structured `budget exceeded` failure instead of a hang. An adaptor-flow
//! failure is reported as that flow's failure, never as a C++ result.
//!
//! Exit codes: 0 every pair synthesized and co-simulated, 1 some pair
//! failed, 2 usage error.

use driver::batch::{run_supervised, BatchOptions, RunOutcome};
use driver::cli::Args;
use driver::Flow;

const USAGE: &str = "usage: mha-csynth <kernel|all> [--ii <n>] [--unroll <n>] [--partition <n>] \
                     [--flatten] [--flow adaptor|cpp|both] [--deadline-ms <n>] [--fuel <n>]";

fn main() {
    let mut opts = BatchOptions {
        cache_dir: None,
        ..BatchOptions::default()
    };
    const BOTH: &[Flow] = &[Flow::Adaptor, Flow::Cpp];
    let mut flows = BOTH;
    let mut name: Option<String> = None;
    let mut args = Args::from_env(USAGE);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--ii" => opts.directives.pipeline_ii = Some(args.parse("--ii")),
            "--unroll" => opts.directives.unroll_factor = Some(args.parse("--unroll")),
            "--partition" => opts.directives.partition_factor = Some(args.parse("--partition")),
            "--flatten" => opts.directives.flatten = true,
            "--flow" => {
                flows = args.choose(
                    "--flow",
                    &[
                        ("adaptor", &[Flow::Adaptor]),
                        ("cpp", &[Flow::Cpp]),
                        ("both", BOTH),
                    ],
                )
            }
            "--deadline-ms" => opts.deadline_ms = Some(args.parse("--deadline-ms")),
            "--fuel" => opts.fuel = Some(args.parse("--fuel")),
            _ if a.starts_with("--") => args.fail(format!("unknown flag '{a}'")),
            _ if name.is_none() => name = Some(a),
            _ => args.fail(format!("only one kernel is accepted, got '{a}'")),
        }
    }
    let Some(name) = name else {
        args.fail("no kernel given")
    };
    let list: Vec<&kernels::Kernel> = if name == "all" {
        kernels::all_kernels().iter().collect()
    } else {
        match kernels::kernel(&name) {
            Some(k) => vec![k],
            None => {
                eprintln!("unknown kernel '{name}'");
                std::process::exit(2);
            }
        }
    };
    let mut failures = 0u32;
    for k in list {
        println!("### {} — {}", k.name, k.description);
        for &flow in flows {
            let opts = BatchOptions {
                flow,
                ..opts.clone()
            };
            let (outcome, _) = run_supervised(k, &opts).expect("no cache to open");
            let label = flow.label();
            match outcome {
                RunOutcome::Completed(a) => {
                    println!("--- flow: {label} (cosim max err {})", a.cosim_max_err);
                    print!("{}", a.csynth.render());
                }
                // The engine's C++ fallback is not this flow's result.
                RunOutcome::Degraded { reason, .. } => {
                    println!("  [{label}] failed: {reason}");
                    failures += 1;
                }
                RunOutcome::Failed(e) => {
                    println!("  [{label}] failed: {e}");
                    failures += 1;
                }
                RunOutcome::Panicked { message } => {
                    println!("  [{label}] panicked: {message}");
                    failures += 1;
                }
            }
        }
        println!();
    }
    // Same convention as mha-batch: partial failures exit 1.
    if failures > 0 {
        std::process::exit(1);
    }
}
