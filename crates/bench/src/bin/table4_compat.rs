//! **Table 4** — the "unsupported syntax" gap: HLS-frontend compatibility
//! issues in raw MLIR-lowered LLVM IR, and how many remain after each
//! adaptor pass (cumulative pipeline). The full pipeline must reach zero on
//! every kernel.

use adaptor::AdaptorConfig;
use driver::{flow::prepare_mlir, Directives};
use hls_bench::render_table;

fn main() {
    let d = Directives::pipelined(1);
    let mut rows = Vec::new();
    let mut pass_names: Vec<String> = Vec::new();
    for k in kernels::all_kernels() {
        let m = prepare_mlir(k, &d).expect("parse");
        let mut module = lowering::lower(m).expect("lower");
        let samples = adaptor::run_adaptor_sampled(&mut module, &AdaptorConfig::measuring())
            .expect("adaptor");
        if pass_names.is_empty() {
            pass_names = samples
                .issues_after_pass
                .iter()
                .map(|(n, _)| n.clone())
                .collect();
        }
        let mut row = vec![k.name.to_string(), samples.issues_before.to_string()];
        row.extend(samples.issues_after_pass.iter().map(|(_, n)| n.to_string()));
        rows.push(row);
    }
    let mut headers: Vec<&str> = vec!["kernel", "raw"];
    headers.extend(pass_names.iter().map(String::as_str));
    println!("Table 4: HLS compatibility issues remaining after each adaptor pass");
    print!("{}", render_table(&headers, &rows));
    let all_zero = rows
        .iter()
        .all(|r| r.last().map(String::as_str) == Some("0"));
    println!();
    println!(
        "full pipeline clears every kernel: {}",
        if all_zero {
            "yes"
        } else {
            "NO — regression!"
        }
    );
}
