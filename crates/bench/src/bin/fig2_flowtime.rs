//! **Figure 2** — flow conversion time: the adaptor pipeline vs the C++
//! emission + re-frontend detour, per kernel (medians over repeated runs).
//! The series is wall-clock, so it is not pinned; `mha-perfbench --trace 1`
//! splits the same flows by layer.

use driver::{run_flow, Directives, Flow};
use hls_bench::render_table;

fn median_us(kernel: &kernels::Kernel, flow: Flow, reps: usize) -> u64 {
    let d = Directives::pipelined(1);
    let mut times: Vec<u64> = (0..reps)
        .map(|_| run_flow(kernel, &d, flow).expect("flow").elapsed_us())
        .collect();
    times.sort_unstable();
    times[times.len() / 2]
}

fn main() {
    let reps = 9;
    let mut rows = Vec::new();
    for k in kernels::all_kernels() {
        let a = median_us(k, Flow::Adaptor, reps);
        let c = median_us(k, Flow::Cpp, reps);
        rows.push(vec![
            k.name.to_string(),
            a.to_string(),
            c.to_string(),
            format!("{:.2}", c as f64 / a.max(1) as f64),
        ]);
    }
    println!("Figure 2 (series data): flow conversion time, median of {reps} runs (us)");
    print!(
        "{}",
        render_table(
            &["kernel", "adaptor (us)", "hls-c++ (us)", "cpp/adaptor"],
            &rows
        )
    );
}
