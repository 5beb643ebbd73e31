//! `mha-adapt` — run the paper's adaptor over a kernel and show the
//! before/after compatibility picture plus the adapted IR.
//!
//! ```text
//! mha-adapt <kernel> [--quiet]
//! ```

use adaptor::AdaptorConfig;
use driver::Directives;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(name) = args.first() else {
        eprintln!("usage: mha-adapt <kernel> [--quiet]");
        std::process::exit(2);
    };
    let Some(kernel) = kernels::kernel(name) else {
        eprintln!("unknown kernel '{name}'");
        std::process::exit(2);
    };
    let quiet = args.iter().any(|a| a == "--quiet");

    let m = driver::flow::prepare_mlir(kernel, &Directives::pipelined(1)).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(1);
    });
    let mut module = lowering::lower(m).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(1);
    });

    let before = adaptor::compat_issues(&module);
    eprintln!("== Issues before the adaptor ({})", before.len());
    for i in &before {
        eprintln!("  [{:?}] @{}: {}", i.kind, i.function, i.detail);
    }

    let samples = adaptor::run_adaptor_sampled(&mut module, &AdaptorConfig::default())
        .unwrap_or_else(|e| {
            eprintln!("{e}");
            std::process::exit(1);
        });
    let pipeline = &samples.report.pipeline;
    eprintln!("== Pass pipeline");
    for (rec, (pass, remaining)) in pipeline.passes.iter().zip(&samples.issues_after_pass) {
        let changed = if rec.changed { "changed" } else { "  --   " };
        eprintln!("  {pass:<26} {changed}   issues remaining: {remaining}");
    }
    eprintln!("== Issues after: {}", samples.issues_after());
    eprint!("{}", pipeline.render());

    if !quiet {
        print!("{}", llvm_lite::printer::print_module(&module));
    }
}
