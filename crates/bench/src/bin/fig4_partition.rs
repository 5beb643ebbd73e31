//! **Figure 4 (extension)** — array partitioning unlocks unroll scaling:
//! the (unroll × partition) design space of jacobi2d and gemm, showing the
//! II saturation from Figure 1 lifted by cyclic partitioning, at a BRAM
//! cost. Both flows carry the directive (pragma vs attribute) identically.

use driver::{run_experiment, Directives};
use hls_bench::render_table;
use vitis_sim::Target;

fn main() {
    let kernels = ["jacobi2d", "gemm"];
    let unrolls = [1u32, 2, 4];
    let partitions = [1u32, 2, 4];
    let mut configs: Vec<(&str, u32, u32)> = Vec::new();
    for k in kernels {
        for u in unrolls {
            for p in partitions {
                configs.push((k, u, p));
            }
        }
    }
    let results: Vec<_> = configs
        .iter()
        .map(|(kname, unroll, part)| {
            let k = kernels::kernel(kname).expect("kernel");
            let d = Directives {
                pipeline_ii: Some(1),
                unroll_factor: (*unroll > 1).then_some(*unroll),
                partition_factor: (*part > 1).then_some(*part),
                flatten: false,
            };
            let row = run_experiment(k, &d, &Target::default()).expect("experiment");
            (*kname, *unroll, *part, row)
        })
        .collect();

    let mut rows = Vec::new();
    for (kname, unroll, part, row) in &results {
        let ii = row
            .adaptor
            .report
            .loops
            .iter()
            .filter_map(|l| l.ii_achieved)
            .max()
            .unwrap_or(0);
        rows.push(vec![
            kname.to_string(),
            unroll.to_string(),
            part.to_string(),
            ii.to_string(),
            row.adaptor.report.latency.to_string(),
            row.cpp.report.latency.to_string(),
            row.adaptor.report.resources.bram_18k.to_string(),
        ]);
    }
    println!("Figure 4 (series data): unroll x cyclic-partition sweep at PIPELINE II=1");
    print!(
        "{}",
        render_table(
            &[
                "kernel",
                "unroll",
                "partition",
                "II",
                "latency adaptor",
                "latency cpp",
                "BRAM"
            ],
            &rows
        )
    );
    println!();
    println!("Partitioning multiplies memory ports (and BRAM banks): the port-bound II");
    println!("from Figure 1 drops back toward the recurrence/target floor.");
}
