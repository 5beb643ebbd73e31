//! The paper's qualitative claims, as executable assertions. These are the
//! "shape" checks EXPERIMENTS.md records: who wins, by roughly what factor,
//! where crossovers fall.

use driver::{run_experiment, run_suite, Directives};
use vitis_sim::Target;

/// Abstract: "the MLIR flow via our adaptor can generate comparable
/// performance results with the version by MLIR HLS tools generating HLS
/// C++ codes."
#[test]
fn claim_flows_are_comparable() {
    let rows = run_suite(&Directives::pipelined(1), &Target::default()).unwrap();
    assert_eq!(rows.len(), 10);
    for r in &rows {
        let ratio = r.latency_ratio();
        assert!(
            (0.75..=1.34).contains(&ratio),
            "{}: latency ratio {ratio:.2} outside the comparable band (adaptor {}, cpp {})",
            r.kernel,
            r.adaptor.report.latency,
            r.cpp.report.latency
        );
        // Resources comparable too (within 1.5x either way on DSPs).
        let (da, dc) = (r.adaptor.report.resources.dsp, r.cpp.report.resources.dsp);
        assert!(
            da.max(dc) <= (da.min(dc).max(1)) * 3 / 2 + 1,
            "{}: DSP {} vs {}",
            r.kernel,
            da,
            dc
        );
    }
}

/// Abstract: "without the gap of unsupported syntax between different
/// versions" — the adaptor exists because the gap exists, and closes it.
#[test]
fn claim_adaptor_closes_the_syntax_gap() {
    for k in kernels::all_kernels() {
        let m = driver::flow::prepare_mlir(k, &Directives::pipelined(1)).unwrap();
        let mut module = lowering::lower(m).unwrap();
        let before = adaptor::compat_issues(&module).len();
        assert!(before > 0, "{}: no gap to close?", k.name);
        let samples =
            adaptor::run_adaptor_sampled(&mut module, &adaptor::AdaptorConfig::default()).unwrap();
        assert_eq!(samples.issues_before, before, "{}", k.name);
        assert_eq!(samples.issues_after(), 0, "{}", k.name);
        // Monotone improvement across the pipeline's tail.
        let last = samples.issues_after_pass.last().unwrap().1;
        assert_eq!(last, 0);
    }
}

/// Abstract: "a direct IR transformation from MLIR to LLVM will keep more
/// expression details" — structured array subscripts reach the backend in
/// the adaptor flow (and pipelining metadata survives verbatim).
#[test]
fn claim_details_survive_the_direct_path() {
    let k = kernels::kernel("gemm").unwrap();
    let art = driver::run_flow(k, &Directives::pipelined(1), driver::Flow::Adaptor).unwrap();
    let f = art.module.top_function().unwrap();
    // 2-D arrays, not flat pointers.
    for p in &f.params {
        assert!(
            matches!(p.ty.pointee(), Some(llvm_lite::Type::Array(..))),
            "param %{} stayed flat",
            p.name
        );
    }
    // The MLIR-level directive is the same node the scheduler reads.
    assert!(art
        .module
        .loop_mds
        .iter()
        .any(|md| md.pipeline_ii == Some(1) && md.tripcount == Some((16, 16))));
}

/// Directive crossover: pipelining helps massively; unrolling helps until
/// memory ports saturate.
#[test]
fn claim_directive_scaling_shape() {
    let target = Target::default();

    // A recurrence-free stencil pipelines to a large win...
    let jac = kernels::kernel("jacobi2d").unwrap();
    let base = run_experiment(jac, &Directives::default(), &target).unwrap();
    let piped_jac = run_experiment(jac, &Directives::pipelined(1), &target).unwrap();
    assert!(
        base.adaptor.report.latency as f64 / piped_jac.adaptor.report.latency as f64 > 2.0,
        "pipelining should speed jacobi2d up >2x: {} vs {}",
        base.adaptor.report.latency,
        piped_jac.adaptor.report.latency
    );

    // ...while an accumulating kernel is recurrence-limited: it still
    // improves, but by less (the classic HLS reduction story).
    let k = kernels::kernel("fir").unwrap();
    let fir_base = run_experiment(k, &Directives::default(), &target).unwrap();
    let piped = run_experiment(k, &Directives::pipelined(1), &target).unwrap();
    let fir_gain = fir_base.adaptor.report.latency as f64 / piped.adaptor.report.latency as f64;
    assert!(
        fir_gain > 1.0 && fir_gain < 3.0,
        "fir gain should be modest (recurrence-bound), got {fir_gain:.2}"
    );

    // Unrolling the pipelined loop raises II once ports saturate.
    let unrolled = run_experiment(
        k,
        &Directives {
            pipeline_ii: Some(1),
            unroll_factor: Some(8),
            partition_factor: None,
            flatten: false,
        },
        &target,
    )
    .unwrap();
    let ii_piped = piped
        .adaptor
        .report
        .loops
        .iter()
        .filter_map(|l| l.ii_achieved)
        .max()
        .unwrap();
    let ii_unrolled = unrolled
        .adaptor
        .report
        .loops
        .iter()
        .filter_map(|l| l.ii_achieved)
        .max()
        .unwrap();
    assert!(
        ii_unrolled > ii_piped,
        "unroll x8 should saturate ports: II {ii_piped} -> {ii_unrolled}"
    );
}

/// The in-place stencil (seidel2d) must be recurrence-bound while the
/// out-of-place one (jacobi2d) is only port-bound — the scheduler must see
/// the difference through the dependence analysis.
#[test]
fn claim_dependences_shape_the_ii() {
    let target = Target::default();
    let jac = run_experiment(
        kernels::kernel("jacobi2d").unwrap(),
        &Directives::pipelined(1),
        &target,
    )
    .unwrap();
    let sei = run_experiment(
        kernels::kernel("seidel2d").unwrap(),
        &Directives::pipelined(1),
        &target,
    )
    .unwrap();
    let ii = |row: &driver::ExperimentRow| {
        row.adaptor
            .report
            .loops
            .iter()
            .filter_map(|l| l.ii_achieved)
            .max()
            .unwrap_or(0)
    };
    let (ii_jac, ii_sei) = (ii(&jac), ii(&sei));
    assert!(
        ii_jac <= 3,
        "jacobi2d should be near port-bound: II {ii_jac}"
    );
    assert!(
        ii_sei > 2 * ii_jac,
        "seidel2d carried dependence must dominate: II {ii_sei} vs jacobi {ii_jac}"
    );
}

/// Extension: array partitioning lifts the port bound that caps unrolled,
/// pipelined stencils — and the directive is honoured identically by both
/// flows (attribute vs pragma).
#[test]
fn claim_partitioning_lifts_the_port_bound() {
    let target = Target::default();
    let k = kernels::kernel("jacobi2d").unwrap();
    let plain = run_experiment(k, &Directives::pipelined(1), &target).unwrap();
    let parted = run_experiment(
        k,
        &Directives {
            pipeline_ii: Some(1),
            unroll_factor: None,
            partition_factor: Some(4),
            flatten: false,
        },
        &target,
    )
    .unwrap();
    let ii = |o: &driver::experiment::FlowOutcome| {
        o.report
            .loops
            .iter()
            .filter_map(|l| l.ii_achieved)
            .max()
            .unwrap_or(0)
    };
    // Port-bound II=3 without partitioning; the 4-way split reaches II=1.
    assert!(ii(&plain.adaptor) > ii(&parted.adaptor));
    assert_eq!(
        ii(&parted.adaptor),
        1,
        "partitioned jacobi2d should hit II=1"
    );
    // Latency improves; BRAM pays for it.
    assert!(parted.adaptor.report.latency < plain.adaptor.report.latency);
    assert!(parted.adaptor.report.resources.bram_18k > plain.adaptor.report.resources.bram_18k);
    // Both flows agree (pragma path == attribute path).
    assert_eq!(ii(&parted.adaptor), ii(&parted.cpp));
    assert_eq!(parted.adaptor.report.latency, parted.cpp.report.latency);
    // And correctness is untouched.
    assert_eq!(parted.adaptor.cosim_err, 0.0);
    assert_eq!(parted.cpp.cosim_err, 0.0);
}

/// Extension: loop flattening removes the per-row pipeline drain of a
/// perfect nest — latency approaches `depth + II * (total trip - 1)`.
#[test]
fn claim_flattening_removes_pipeline_drain() {
    let target = Target::default();
    let k = kernels::kernel("jacobi2d").unwrap();
    let plain = run_experiment(k, &Directives::pipelined(1), &target).unwrap();
    let flat = run_experiment(
        k,
        &Directives {
            pipeline_ii: Some(1),
            unroll_factor: None,
            partition_factor: None,
            flatten: true,
        },
        &target,
    )
    .unwrap();
    assert!(
        flat.adaptor.report.latency < plain.adaptor.report.latency,
        "flatten should help: {} vs {}",
        flat.adaptor.report.latency,
        plain.adaptor.report.latency
    );
    // Close to the ideal single-pipeline bound: II * (14*14) + constant.
    let ideal = 3 * 14 * 14;
    assert!(
        flat.adaptor.report.latency < ideal as u64 + 80,
        "flattened latency {} far from ideal {ideal}",
        flat.adaptor.report.latency
    );
    // Both flows agree and stay correct.
    assert_eq!(flat.adaptor.report.latency, flat.cpp.report.latency);
    assert_eq!(flat.adaptor.cosim_err, 0.0);
    assert_eq!(flat.cpp.cosim_err, 0.0);
}

/// Extension (the abstract's motivation made concrete): "optimizations in
/// different levels of abstraction could benefit from cross-layer
/// optimizations" — interchanging a reduction loop at the MLIR level breaks
/// the accumulation recurrence the scheduler sees at the LLVM level.
#[test]
fn claim_mlir_level_interchange_breaks_the_recurrence() {
    use mlir_lite::passes::{InterchangeInnermost, MlirPass, PipelineInnermost};

    let mvt = kernels::kernel("mvt").unwrap();
    let synth = |interchange: bool| {
        let mut m = mlir_lite::parser::parse_module("mvt", mvt.mlir).unwrap();
        if interchange {
            assert!(InterchangeInnermost::default().run(&mut m).unwrap());
        }
        PipelineInnermost { ii: 1 }.run(&mut m).unwrap();
        let mut module = lowering::lower(m).unwrap();
        adaptor::run_adaptor(&mut module, &adaptor::AdaptorConfig::default()).unwrap();
        let report = vitis_sim::csynth(&module, &Target::default()).unwrap();
        (report, module)
    };
    let (base, _) = synth(false);
    let (swapped, swapped_mod) = synth(true);
    let ii =
        |r: &vitis_sim::CsynthReport| r.loops.iter().filter_map(|l| l.ii_achieved).max().unwrap();
    // Recurrence-bound before; floor after.
    assert!(ii(&base) >= 5, "II before {}", ii(&base));
    assert_eq!(ii(&swapped), 1, "II after {}", ii(&swapped));
    assert!(swapped.latency * 2 < base.latency);
    // And the interchange preserved the computation exactly.
    let sim = driver::cosim(&swapped_mod, mvt, 77).unwrap();
    assert_eq!(sim.max_abs_err, 0.0, "interchange changed mvt's results");
}
