//! `mha-csynth` — synthesize a kernel through one or both flows and print
//! the Vitis-style reports side by side.
//!
//! ```text
//! mha-csynth <kernel|all> [--ii <n>] [--unroll <n>] [--flow adaptor|cpp|both]
//!            [--deadline-ms <n>] [--fuel <n>]
//! ```
//!
//! `--deadline-ms` and `--fuel` run every flow + synthesis attempt under a
//! [`pass_core::Budget`]; an exhausted budget surfaces as a structured
//! `budget exceeded` failure instead of a hang.

use driver::{cosim, run_flow_on_text, Directives, Flow};
use pass_core::Budget;
use vitis_sim::{csynth_budgeted, Target};

fn parse_flag(args: &[String], flag: &str) -> Option<u64> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(name) = args.first() else {
        eprintln!(
            "usage: mha-csynth <kernel|all> [--ii <n>] [--unroll <n>] [--partition <n>] \
             [--flatten] [--flow adaptor|cpp|both] [--deadline-ms <n>] [--fuel <n>]"
        );
        std::process::exit(2);
    };
    let directives = Directives {
        pipeline_ii: parse_flag(&args, "--ii").map(|v| v as u32).or(Some(1)),
        unroll_factor: parse_flag(&args, "--unroll").map(|v| v as u32),
        partition_factor: parse_flag(&args, "--partition").map(|v| v as u32),
        flatten: args.iter().any(|a| a == "--flatten"),
    };
    let deadline_ms = parse_flag(&args, "--deadline-ms");
    let fuel = parse_flag(&args, "--fuel");
    let flow_sel = args
        .iter()
        .position(|a| a == "--flow")
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
        .unwrap_or("both");
    let flows: Vec<Flow> = match flow_sel {
        "adaptor" => vec![Flow::Adaptor],
        "cpp" => vec![Flow::Cpp],
        _ => vec![Flow::Adaptor, Flow::Cpp],
    };
    let list: Vec<&kernels::Kernel> = if name == "all" {
        kernels::all_kernels().iter().collect()
    } else {
        match kernels::kernel(name) {
            Some(k) => vec![k],
            None => {
                eprintln!("unknown kernel '{name}'");
                std::process::exit(2);
            }
        }
    };
    let target = Target::default();
    let mut failures = 0u32;
    for k in list {
        println!("### {} — {}", k.name, k.description);
        for &flow in &flows {
            // One budget per (kernel, flow) attempt: the flow stages and
            // synthesis draw from the same deadline and fuel pool.
            let budget = Budget::from_limits(deadline_ms, fuel);
            let art = match run_flow_on_text(k.name, k.mlir, &directives, flow, &budget) {
                Ok(a) => a,
                Err(e) => {
                    println!("  [{}] flow failed: {e}", flow.label());
                    failures += 1;
                    continue;
                }
            };
            match csynth_budgeted(&art.module, &target, &budget) {
                Ok(report) => match cosim(&art.module, k, 2026) {
                    Ok(sim) => {
                        println!(
                            "--- flow: {} (cosim max err {})",
                            flow.label(),
                            sim.max_abs_err
                        );
                        print!("{}", report.render());
                    }
                    Err(e) => {
                        println!("  [{}] cosim failed: {e}", flow.label());
                        failures += 1;
                    }
                },
                Err(e) => {
                    println!("  [{}] csynth failed: {e}", flow.label());
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
