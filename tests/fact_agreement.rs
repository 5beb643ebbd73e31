//! Each compile fact has one producer, and the entry points that read it
//! must agree. For every input this test requires that
//!
//! * csynth's II model and the lint II explainer read the same RecMII
//!   scan: every pipelined loop whose csynth `ii_bound` is
//!   `carried dependence on X` has exactly one `ii-blocker` note at its
//!   header, naming `X`, with `RecMII` equal to the loop's achieved II;
//! * the Table-4 entry point (`adaptor::run_adaptor_sampled`) and the
//!   flows' adaptor (`adaptor::run_adaptor_budgeted`, whose only compat
//!   scan is the gate) leave the same printed module, change the same
//!   passes and fail alike, and the last sample equals a fresh
//!   `compat_issues` count of the output.
//!
//! Inputs: the ten suite kernels under the ten directive sets of Figures
//! 1 and 4, through both flows, and fuzz seeds 0..48 through both flows at
//! the batch default directives.

#[path = "support/figure_sets.rs"]
mod figure_sets;

use adaptor::AdaptorConfig;
use driver::batch::BatchOptions;
use driver::flow::prepare_mlir_text;
use driver::{Directives, Flow};
use fuzzing::{GenConfig, TOP_NAME};
use llvm_lite::printer::print_module;
use llvm_lite::Module;
use pass_core::Budget;
use vitis_sim::Target;

/// Checks the II explainer against csynth on `module`; returns how many
/// recurrence-bound pipelined loops it compared.
fn assert_ii_notes_match_csynth(label: &str, module: &Module) -> usize {
    let target = Target::default();
    let Ok(report) = vitis_sim::csynth(module, &target) else {
        return 0;
    };
    let top = module.top_function().expect("csynth found a top function");
    let notes = vitis_sim::explain_ii_blockers(module, top, &target);
    let mut compared = 0;
    for l in report.loops.iter().filter(|l| l.pipelined) {
        let Some(base) = l
            .ii_bound
            .as_deref()
            .and_then(|b| b.strip_prefix("carried dependence on "))
        else {
            continue;
        };
        let at_header: Vec<&str> = notes
            .iter()
            .filter(|n| n.loc.block.as_deref() == Some(l.name.as_str()))
            .map(|n| n.message.as_str())
            .collect();
        let ii = l.ii_achieved.expect("a pipelined loop has an II");
        let want = format!("RecMII = {ii} on {base}: ");
        assert!(
            at_header.len() == 1 && at_header[0].starts_with(&want),
            "{label}: loop {} is bound by a carried dependence on {base} at II {ii}, \
             but its notes are {at_header:?}",
            l.name
        );
        compared += 1;
    }
    compared
}

/// Runs both adaptor entry points on `lowered` under `cfg` and checks
/// that they agree.
fn assert_adaptor_entry_points_agree(label: &str, lowered: &Module, cfg: &AdaptorConfig) {
    let mut plain = lowered.clone();
    let mut sampled = lowered.clone();
    let plain_run = adaptor::run_adaptor_budgeted(&mut plain, cfg, &Budget::unlimited());
    let sampled_run = adaptor::run_adaptor_sampled(&mut sampled, cfg);
    match (plain_run, sampled_run) {
        (Ok(report), Ok(samples)) => {
            assert_eq!(
                report.pipeline.changed_passes(),
                samples.report.pipeline.changed_passes(),
                "{label}: changed passes"
            );
            assert_eq!(
                samples.issues_after(),
                adaptor::compat_issues(&sampled).len(),
                "{label}: the last sample counts the output"
            );
        }
        (Err(a), Err(b)) => assert_eq!(a.to_string(), b.to_string(), "{label}: errors"),
        (a, b) => panic!(
            "{label}: one entry point failed: {:?} vs {:?}",
            a.err(),
            b.err()
        ),
    }
    assert_eq!(
        print_module(&plain),
        print_module(&sampled),
        "{label}: module"
    );
}

/// Both checks for one MLIR input; returns the II comparisons made.
fn check(label: &str, name: &str, mlir: &str, directives: &Directives) -> usize {
    let mut compared = 0;
    for flow in [Flow::Adaptor, Flow::Cpp] {
        let Ok(m) = prepare_mlir_text(name, mlir, directives) else {
            return compared;
        };
        if let Ok(art) = fuzzing::flow::run(m, flow, &Budget::unlimited(), &mut |_| {}) {
            compared += assert_ii_notes_match_csynth(&format!("{label} via {flow:?}"), &art.module);
        }
    }
    let m = prepare_mlir_text(name, mlir, directives).unwrap();
    if let Ok(lowered) = lowering::lower(m) {
        for cfg in [AdaptorConfig::default(), AdaptorConfig::measuring()] {
            assert_adaptor_entry_points_agree(
                &format!("{label} gate {}", cfg.gate),
                &lowered,
                &cfg,
            );
        }
    }
    compared
}

#[test]
fn suite_facts_agree_across_entry_points() {
    let sets = figure_sets::figure_directive_sets();
    assert_eq!(sets.len(), 10);
    let mut compared = 0;
    for k in kernels::all_kernels() {
        for d in &sets {
            compared += check(&format!("{} at {d:?}", k.name), k.name, k.mlir, d);
        }
    }
    // gemm's accumulation alone binds at every directive set of both flows.
    assert!(compared >= 20, "only {compared} recurrence-bound loops");
}

#[test]
fn fuzz_facts_agree_across_entry_points() {
    let directives = BatchOptions::default().directives;
    let mut compared = 0;
    for seed in 0..48 {
        let text = fuzzing::generate(seed, &GenConfig::default()).text;
        compared += check(&format!("seed {seed}"), TOP_NAME, &text, &directives);
    }
    assert!(compared > 0, "no generated loop is recurrence-bound");
}
