//! **Figure 1** — directive scaling: achieved II and total latency as the
//! unroll factor sweeps {1, 2, 4, 8} on pipelined innermost loops, through
//! both flows. Shows (a) directives surviving each path and (b) the memory-
//! port crossover where unrolling stops helping without array partitioning.

use driver::{run_experiment, Directives};
use hls_bench::render_table;
use vitis_sim::Target;

fn main() {
    let kernels = ["gemm", "fir", "conv2d"];
    let factors = [1u32, 2, 4, 8];
    let configs: Vec<(&str, u32)> = kernels
        .iter()
        .flat_map(|k| factors.iter().map(move |f| (*k, *f)))
        .collect();
    let results: Vec<_> = configs
        .iter()
        .map(|(kname, factor)| {
            let k = kernels::kernel(kname).expect("kernel");
            let d = Directives {
                pipeline_ii: Some(1),
                unroll_factor: if *factor > 1 { Some(*factor) } else { None },
                partition_factor: None,
                flatten: false,
            };
            let row = run_experiment(k, &d, &Target::default()).expect("experiment");
            (*kname, *factor, row)
        })
        .collect();

    let mut rows = Vec::new();
    for (kname, factor, row) in &results {
        let a_ii = row
            .adaptor
            .report
            .loops
            .iter()
            .filter_map(|l| l.ii_achieved)
            .max()
            .unwrap_or(0);
        let c_ii = row
            .cpp
            .report
            .loops
            .iter()
            .filter_map(|l| l.ii_achieved)
            .max()
            .unwrap_or(0);
        rows.push(vec![
            kname.to_string(),
            factor.to_string(),
            a_ii.to_string(),
            c_ii.to_string(),
            row.adaptor.report.latency.to_string(),
            row.cpp.report.latency.to_string(),
        ]);
    }
    println!("Figure 1 (series data): unroll-factor sweep at PIPELINE II=1");
    print!(
        "{}",
        render_table(
            &[
                "kernel",
                "unroll",
                "II adaptor",
                "II cpp",
                "latency adaptor",
                "latency cpp"
            ],
            &rows
        )
    );
    println!();
    println!("II grows with unroll once BRAM ports saturate (ceil(u*accesses/2));");
    println!("both flows track each other because the directive survives both paths.");
}
