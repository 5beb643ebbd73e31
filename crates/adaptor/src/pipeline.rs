//! The assembled adaptor pipeline and its report.

use llvm_lite::transforms::{ModulePass, PassManager, PassRegistry};
use llvm_lite::Module;
use pass_core::{Diagnostic, PassRecord, PassResult, PipelineReport};

use crate::compat::{compat_issues, VerifyCompat};
use crate::passes::{
    DemoteMalloc, LegalizeIntrinsics, LegalizeNames, NormalizeLoopMetadata, RecoverArrays,
    ScrubAttributes, SynthesizeInterface,
};
use crate::Result;

/// Builds a fresh instance of one adaptor pass.
type MakePass = fn() -> Box<dyn ModulePass<Module>>;

/// The adaptor's passes with their constructors, in pipeline order: the
/// one list the pipeline, the registry, [`PASS_NAMES`] and
/// [`AdaptorConfig::without`] are read from.
const PASSES: [(&str, MakePass); 7] = [
    ("legalize-intrinsics", || Box::new(LegalizeIntrinsics)),
    ("demote-malloc", || Box::new(DemoteMalloc)),
    ("recover-arrays", || Box::new(RecoverArrays)),
    ("normalize-loop-metadata", || {
        Box::new(NormalizeLoopMetadata)
    }),
    ("synthesize-interface", || Box::new(SynthesizeInterface)),
    ("legalize-names", || Box::new(LegalizeNames)),
    ("scrub-attributes", || Box::new(ScrubAttributes)),
];

/// The adaptor's pass names, in pipeline order (the `without` ablation
/// vocabulary).
pub const PASS_NAMES: &[&str] = &{
    let mut names = [""; PASSES.len()];
    let mut i = 0;
    while i < PASSES.len() {
        names[i] = PASSES[i].0;
        i += 1;
    }
    names
};

/// Which passes run — all of them by default; the ablation bench drops
/// them one at a time with [`AdaptorConfig::without`].
#[derive(Clone, Debug)]
pub struct AdaptorConfig {
    /// Per entry of the pass table: does it run?
    enabled: [bool; PASSES.len()],
    /// Fail if compat issues remain (turn off to *measure* remaining
    /// issues instead).
    pub gate: bool,
}

impl Default for AdaptorConfig {
    fn default() -> AdaptorConfig {
        AdaptorConfig {
            enabled: [true; PASSES.len()],
            gate: true,
        }
    }
}

impl AdaptorConfig {
    /// A config measuring issues without failing on them.
    pub fn measuring() -> AdaptorConfig {
        AdaptorConfig {
            gate: false,
            ..AdaptorConfig::default()
        }
    }

    /// Disable one pass by its name (for ablations). Unknown names produce
    /// a [`Diagnostic`] listing the valid names.
    pub fn without(mut self, pass: &str) -> std::result::Result<AdaptorConfig, Diagnostic> {
        let Some(i) = PASS_NAMES.iter().position(|name| *name == pass) else {
            return Err(Diagnostic::error(
                "adaptor",
                format!(
                    "unknown adaptor pass '{pass}'; valid passes: {}",
                    PASS_NAMES.join(", ")
                ),
            ));
        };
        self.enabled[i] = false;
        Ok(self)
    }
}

/// What an adaptor run did.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct AdaptorReport {
    /// The instrumented per-pass execution report: timing, size deltas and
    /// which passes changed the IR.
    pub pipeline: PipelineReport,
}

/// An adaptor run with the Table-4 samples: the compat-issue count of the
/// input and after each pass that ran.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CompatSamples {
    /// Compat issues in the input module.
    pub issues_before: usize,
    /// `(pass name, issues remaining after it ran)`, one per pass that ran;
    /// the last one counts the output module.
    pub issues_after_pass: Vec<(String, usize)>,
    /// The run itself.
    pub report: AdaptorReport,
}

impl CompatSamples {
    /// Compat issues in the output module.
    pub fn issues_after(&self) -> usize {
        self.issues_after_pass
            .last()
            .map_or(self.issues_before, |&(_, n)| n)
    }
}

/// Build the configured pipeline (without the gate).
fn build_pipeline(cfg: &AdaptorConfig) -> PassManager {
    let mut pm = PassManager::with_label("hls-adaptor");
    for ((_, make), _) in PASSES.iter().zip(cfg.enabled).filter(|(_, on)| *on) {
        pm.add_boxed(make());
    }
    pm
}

/// Run the adaptor pipeline over a module.
pub fn run_adaptor(m: &mut Module, cfg: &AdaptorConfig) -> Result<AdaptorReport> {
    run_adaptor_budgeted(m, cfg, &pass_core::Budget::unlimited())
}

/// [`run_adaptor`] under a [`pass_core::Budget`]: each legalization pass
/// (and the compat gate) charges one fuel unit and checks the deadline, so
/// a budgeted caller gets a typed trip ([`crate::Error::Budget`]) instead
/// of an unbounded pipeline run. The gate is the run's only compat scan.
pub fn run_adaptor_budgeted(
    m: &mut Module,
    cfg: &AdaptorConfig,
    budget: &pass_core::Budget,
) -> Result<AdaptorReport> {
    run_observed(m, cfg, budget, &mut |_, _| {})
}

/// [`run_adaptor`] that also samples the compat-issue count before the
/// passes and after each one (the Table-4 metric). Only the paper's
/// table, `mha-adapt`, the paper-claim tests and the examples read the
/// samples; the flows call [`run_adaptor_budgeted`].
pub fn run_adaptor_sampled(m: &mut Module, cfg: &AdaptorConfig) -> Result<CompatSamples> {
    let issues_before = compat_issues(m).len();
    let mut issues_after_pass: Vec<(String, usize)> = Vec::new();
    // A pass that reported no change left the module as it was, so the
    // previous sample stands.
    let report = run_observed(m, cfg, &pass_core::Budget::unlimited(), &mut |ir, rec| {
        let issues = if rec.changed {
            compat_issues(ir).len()
        } else {
            issues_after_pass.last().map_or(issues_before, |&(_, n)| n)
        };
        issues_after_pass.push((rec.pass.clone(), issues));
    })?;
    Ok(CompatSamples {
        issues_before,
        issues_after_pass,
        report,
    })
}

/// The enabled passes, with `observer` hearing each one, then the gate.
fn run_observed(
    m: &mut Module,
    cfg: &AdaptorConfig,
    budget: &pass_core::Budget,
    observer: &mut dyn FnMut(&Module, &PassRecord),
) -> Result<AdaptorReport> {
    let pipeline = build_pipeline(cfg).run_observed_budgeted(m, observer, budget)?;
    if cfg.gate {
        let mut pm = PassManager::with_label("compat-gate");
        pm.add(VerifyCompat);
        pm.run_budgeted(m, budget)?;
    }
    Ok(AdaptorReport { pipeline })
}

/// The whole adaptor as one registerable pass (default config), so drivers
/// can splice it into `--passes` pipelines by name.
pub struct HlsAdaptor;

impl ModulePass<Module> for HlsAdaptor {
    fn name(&self) -> &'static str {
        "hls-adaptor"
    }

    fn run(&self, m: &mut Module) -> PassResult<bool> {
        let report = run_adaptor(m, &AdaptorConfig::default())?;
        Ok(report.pipeline.passes.iter().any(|p| p.changed))
    }
}

/// Registry of the adaptor's passes (individually, plus the assembled
/// `hls-adaptor` pipeline and the `verify-compat` gate), keyed by name.
pub fn registry() -> PassRegistry<Module> {
    let mut r = PassRegistry::new();
    for (name, make) in PASSES {
        r.register(name, make);
    }
    r.register("verify-compat", || Box::new(VerifyCompat))
        .register("hls-adaptor", || Box::new(HlsAdaptor));
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use llvm_lite::interp::{Interpreter, RtVal};
    use mlir_lite::parser::parse_module as parse_mlir;

    /// The canonical end-to-end fixture: gemm through the real lowering,
    /// then through the adaptor.
    fn lowered_gemm() -> Module {
        let src = r#"
func.func @gemm(%A: memref<4x4xf32>, %B: memref<4x4xf32>, %C: memref<4x4xf32>) attributes {hls.top} {
  affine.for %i = 0 to 4 {
    affine.for %j = 0 to 4 {
      %zero = arith.constant 0.0 : f32
      affine.store %zero, %C[%i, %j] : memref<4x4xf32>
      affine.for %k = 0 to 4 {
        %a = affine.load %A[%i, %k] : memref<4x4xf32>
        %b = affine.load %B[%k, %j] : memref<4x4xf32>
        %c = affine.load %C[%i, %j] : memref<4x4xf32>
        %p = arith.mulf %a, %b : f32
        %s = arith.addf %c, %p : f32
        affine.store %s, %C[%i, %j] : memref<4x4xf32>
      } {hls.pipeline_ii = 1 : i32}
    }
  }
  func.return
}
"#;
        lowering::lower(parse_mlir("gemm", src).unwrap()).unwrap()
    }

    #[test]
    fn full_pipeline_clears_all_issues_on_gemm() {
        let mut m = lowered_gemm();
        let samples = run_adaptor_sampled(&mut m, &AdaptorConfig::default()).unwrap();
        assert!(samples.issues_before > 0, "raw lowering must be non-compat");
        assert_eq!(samples.issues_after(), 0);
        // Issue count decreases monotonically... not strictly required, but
        // the final count must be the minimum.
        let min = samples
            .issues_after_pass
            .iter()
            .map(|(_, n)| *n)
            .min()
            .unwrap();
        assert_eq!(min, 0);
    }

    #[test]
    fn adapted_gemm_is_structurally_hls_ready() {
        let mut m = lowered_gemm();
        run_adaptor(&mut m, &AdaptorConfig::default()).unwrap();
        let f = m.function("gemm").unwrap();
        // Interfaces recovered to 2-D arrays.
        for p in &f.params {
            assert_eq!(
                p.ty,
                llvm_lite::Type::Float.array_of(4).array_of(4).ptr_to(),
                "param %{} should be [4 x [4 x float]]*",
                p.name
            );
            assert_eq!(
                p.attrs.get("hls.interface").map(String::as_str),
                Some("ap_memory")
            );
        }
        // Pipeline metadata survived, now with a trip count.
        assert!(m
            .loop_mds
            .iter()
            .any(|md| md.pipeline_ii == Some(1) && md.tripcount == Some((4, 4))));
    }

    #[test]
    fn adapted_gemm_still_computes_gemm() {
        let mut m = lowered_gemm();
        run_adaptor(&mut m, &AdaptorConfig::default()).unwrap();
        let mut interp = Interpreter::new(&m);
        let a: Vec<f32> = (0..16).map(|x| (x % 5) as f32).collect();
        let b: Vec<f32> = (0..16).map(|x| (x % 7) as f32).collect();
        let pa = interp.mem.alloc_f32(&a);
        let pb = interp.mem.alloc_f32(&b);
        let pc = interp.mem.alloc_f32(&[0.0; 16]);
        interp
            .call("gemm", &[RtVal::P(pa), RtVal::P(pb), RtVal::P(pc)])
            .unwrap();
        let c = interp.mem.read_f32(pc, 16).unwrap();
        for i in 0..4 {
            for j in 0..4 {
                let mut acc = 0.0f32;
                for k in 0..4 {
                    acc += a[i * 4 + k] * b[k * 4 + j];
                }
                assert_eq!(c[i * 4 + j], acc);
            }
        }
    }

    #[test]
    fn without_recovery_interfaces_degrade_to_m_axi() {
        // Skipping array recovery is not a compat failure — the interface
        // pass falls back to bus-master pointers — but the QoR-relevant
        // array structure is lost. This is the A1 ablation's mechanism.
        let mut m = lowered_gemm();
        let cfg = AdaptorConfig::default().without("recover-arrays").unwrap();
        run_adaptor(&mut m, &cfg).unwrap();
        let f = m.function("gemm").unwrap();
        for p in &f.params {
            assert_eq!(p.ty, llvm_lite::Type::Float.ptr_to());
            assert_eq!(
                p.attrs.get("hls.interface").map(String::as_str),
                Some("m_axi")
            );
        }
    }

    #[test]
    fn gate_fails_when_interface_synthesis_disabled() {
        let mut m = lowered_gemm();
        let cfg = AdaptorConfig::default()
            .without("synthesize-interface")
            .unwrap()
            .without("recover-arrays")
            .unwrap();
        // Flat pointers with no binding: UnshapedInterface remains.
        let result = run_adaptor(&mut m, &cfg);
        assert!(result.is_err());
    }

    #[test]
    fn measuring_config_reports_instead_of_failing() {
        let mut m = lowered_gemm();
        let cfg = AdaptorConfig {
            gate: false,
            ..AdaptorConfig::default()
        }
        .without("synthesize-interface")
        .unwrap()
        .without("recover-arrays")
        .unwrap();
        let samples = run_adaptor_sampled(&mut m, &cfg).unwrap();
        assert!(samples.issues_after() > 0);
        assert_eq!(samples.issues_after(), compat_issues(&m).len());
    }

    #[test]
    fn unknown_ablation_name_lists_valid_names() {
        let e = AdaptorConfig::default().without("nonsense").unwrap_err();
        assert!(e.message.contains("unknown adaptor pass 'nonsense'"));
        for name in PASS_NAMES {
            assert!(e.message.contains(name), "error should list '{name}'");
        }
    }

    #[test]
    fn report_carries_instrumented_pipeline() {
        let mut m = lowered_gemm();
        let samples = run_adaptor_sampled(&mut m, &AdaptorConfig::default()).unwrap();
        let pipeline = &samples.report.pipeline;
        assert_eq!(pipeline.label, "hls-adaptor");
        assert_eq!(pipeline.passes.len(), 7);
        // Issue samples line up 1:1 with executed passes.
        assert_eq!(samples.issues_after_pass.len(), 7);
        for (rec, (name, _)) in pipeline.passes.iter().zip(&samples.issues_after_pass) {
            assert_eq!(&rec.pass, name);
        }
        assert!(pipeline.passes.iter().all(|p| p.size_after > 0));
    }

    #[test]
    fn fuel_budget_trips_adaptor_with_recoverable_error() {
        let mut m = lowered_gemm();
        let budget = pass_core::Budget::from_limits(None, Some(2));
        let err = run_adaptor_budgeted(&mut m, &AdaptorConfig::default(), &budget).unwrap_err();
        let crate::Error::Budget(trip) = err else {
            panic!("a budget trip stays typed through the adaptor, got {err:?}");
        };
        assert_eq!(trip.kind, pass_core::BudgetKind::Fuel);
        // Two fuel units ran exactly the first two passes before tripping.
        assert_eq!(trip.stage, PASS_NAMES[2]);
        // An unlimited budget runs every pass and passes the gate.
        let mut m2 = lowered_gemm();
        let r =
            run_adaptor_budgeted(&mut m2, &AdaptorConfig::default(), &Default::default()).unwrap();
        assert_eq!(r.pipeline.passes.len(), PASS_NAMES.len());
        assert!(compat_issues(&m2).is_empty());
    }

    #[test]
    fn registry_round_trips_every_pass() {
        let r = registry();
        for name in r.names() {
            assert_eq!(r.create(name).unwrap().name(), name);
        }
        assert!(r.contains("hls-adaptor") && r.contains("verify-compat"));
    }
}
