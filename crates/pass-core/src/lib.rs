//! `pass-core` — the shared pass-management substrate.
//!
//! The workspace used to carry three near-duplicate pass infrastructures
//! (`mlir_lite::passes::MlirPassManager`, `llvm_lite::transforms::PassManager`,
//! and the ad-hoc adaptor pipeline). This crate replaces all three with one
//! generic, instrumented implementation:
//!
//! * [`Pass<IR>`] — a named module-level transformation over any IR that
//!   implements [`PassIr`];
//! * [`PassManager<IR>`] — ordered pipelines with per-pass wall-clock
//!   timing, changed/IR-size-delta stats, verification after each pass that
//!   changed the IR, and fixed-point iteration;
//! * [`PassRegistry<IR>`] — string-keyed pass resolution with
//!   list-valid-names-on-error diagnostics;
//! * [`PipelineReport`] — a serializable `-time-passes`-style execution
//!   report (JSON schema in EXPERIMENTS.md);
//! * [`Diagnostic`] — structured, source-located errors shared by passes,
//!   verifiers, and the HLS compat gate.
//!
//! # Example: define an IR, a pass, and run an instrumented pipeline
//!
//! Any type can be piped through a [`PassManager`] by implementing
//! [`PassIr`] (a size measure plus a verifier) and giving it passes:
//!
//! ```
//! use pass_core::{Pass, PassIr, PassManager, PassResult};
//!
//! /// A toy IR: a list of numbers; "verification" forbids negatives.
//! struct Numbers(Vec<i64>);
//!
//! impl PassIr for Numbers {
//!     fn ir_size(&self) -> usize {
//!         self.0.len()
//!     }
//!     fn verify_ir(&self) -> PassResult<()> {
//!         match self.0.iter().find(|n| **n < 0) {
//!             Some(n) => Err(pass_core::Diagnostic::error("verify", format!("negative {n}"))),
//!             None => Ok(()),
//!         }
//!     }
//! }
//!
//! /// A "DCE" pass: drop zeros, report whether anything changed.
//! struct DropZeros;
//!
//! impl Pass<Numbers> for DropZeros {
//!     fn name(&self) -> &'static str {
//!         "drop-zeros"
//!     }
//!     fn run(&self, ir: &mut Numbers) -> PassResult<bool> {
//!         let before = ir.0.len();
//!         ir.0.retain(|n| *n != 0);
//!         Ok(ir.0.len() != before)
//!     }
//! }
//!
//! let mut pm = PassManager::with_label("cleanup");
//! pm.add(DropZeros);
//! let mut ir = Numbers(vec![3, 0, 1, 0]);
//! let report = pm.run(&mut ir).expect("pipeline runs");
//! assert_eq!(ir.0, vec![3, 1]);
//! assert_eq!(report.passes[0].size_delta(), -2);
//! assert_eq!(report.changed_passes(), vec!["drop-zeros"]);
//! ```

#![warn(missing_docs)]

pub mod budget;
pub mod diag;
pub mod hist;
pub mod json;
pub mod registry;
pub mod report;

pub use budget::{Budget, BudgetError, BudgetKind};
pub use diag::{Diagnostic, Loc, Severity};
pub use hist::Histogram;
pub use registry::PassRegistry;
pub use report::{PassRecord, PipelineReport};

/// Result alias for pass execution.
pub type PassResult<T> = std::result::Result<T, Diagnostic>;

/// What an IR must provide for the pass manager to instrument and check it.
pub trait PassIr {
    /// A size measure (operation/instruction count) for delta stats.
    fn ir_size(&self) -> usize;

    /// Structural verification, returning a located diagnostic on failure.
    fn verify_ir(&self) -> PassResult<()>;
}

/// A module-level transformation over `IR`.
pub trait Pass<IR: PassIr> {
    /// Stable name used in pipeline specs, registries, and reports.
    fn name(&self) -> &'static str;

    /// Run over the IR; report whether anything changed.
    fn run(&self, ir: &mut IR) -> PassResult<bool>;
}

/// An ordered, instrumented pipeline of passes.
///
/// The IR is verified after each pass that reports a change, so a pass that
/// breaks the IR is caught at that pass. Two contracts make that enough:
///
/// * **Input:** the IR handed to a pipeline already verifies. Every caller
///   does so: lowering verifies its translation, the C++ frontend verifies
///   its output, `mha-opt` checks its input, and the adaptor runs on
///   lowering's cleanup output.
/// * **No change:** a pass that returns `Ok(false)` leaves the IR exactly as
///   it found it (`tests/verifier_differential.rs` checks this for every
///   pass both flows run and for the MLIR registry's passes).
pub struct PassManager<IR: PassIr> {
    passes: Vec<Box<dyn Pass<IR>>>,
    label: String,
}

impl<IR: PassIr> Default for PassManager<IR> {
    fn default() -> Self {
        PassManager::new()
    }
}

impl<IR: PassIr> PassManager<IR> {
    /// Empty pipeline labelled `pipeline`.
    pub fn new() -> PassManager<IR> {
        PassManager::with_label("pipeline")
    }

    /// Empty pipeline with a label used in reports.
    pub fn with_label(label: impl Into<String>) -> PassManager<IR> {
        PassManager {
            passes: Vec::new(),
            label: label.into(),
        }
    }

    /// Append a pass.
    pub fn add(&mut self, pass: impl Pass<IR> + 'static) -> &mut Self {
        self.passes.push(Box::new(pass));
        self
    }

    /// Append an already-boxed pass (registry output).
    pub fn add_boxed(&mut self, pass: Box<dyn Pass<IR>>) -> &mut Self {
        self.passes.push(pass);
        self
    }

    /// Number of registered passes.
    pub fn len(&self) -> usize {
        self.passes.len()
    }

    /// True when no passes are registered.
    pub fn is_empty(&self) -> bool {
        self.passes.is_empty()
    }

    /// Run every pass once, in order.
    pub fn run(&self, ir: &mut IR) -> PassResult<PipelineReport> {
        self.run_observed(ir, &mut |_, _| {})
    }

    /// Run every pass once, invoking `observer` with the IR and the pass's
    /// record after each pass completes (and verifies, if it changed). This
    /// is how callers sample pass-dependent metrics — e.g. the adaptor
    /// counts remaining HLS compat issues between passes — without a second
    /// pass-manager implementation.
    pub fn run_observed(
        &self,
        ir: &mut IR,
        observer: &mut dyn FnMut(&IR, &PassRecord),
    ) -> PassResult<PipelineReport> {
        self.run_observed_budgeted(ir, observer, &Budget::unlimited())
    }

    /// [`PassManager::run`] under a [`Budget`]: one fuel unit is charged
    /// per pass (before it runs), and the deadline is checked at the same
    /// points. A trip surfaces as the [`budget::BUDGET_COMPONENT`]
    /// diagnostic produced by [`BudgetError::to_diagnostic`];
    /// [`BudgetError::from_diagnostic`] reads it back.
    pub fn run_budgeted(&self, ir: &mut IR, budget: &Budget) -> PassResult<PipelineReport> {
        self.run_observed_budgeted(ir, &mut |_, _| {}, budget)
    }

    /// [`PassManager::run_observed`] under a [`Budget`].
    pub fn run_observed_budgeted(
        &self,
        ir: &mut IR,
        observer: &mut dyn FnMut(&IR, &PassRecord),
        budget: &Budget,
    ) -> PassResult<PipelineReport> {
        let mut report = PipelineReport::new(&self.label);
        self.run_once(ir, &mut report, observer, budget)?;
        Ok(report)
    }

    fn run_once(
        &self,
        ir: &mut IR,
        report: &mut PipelineReport,
        observer: &mut dyn FnMut(&IR, &PassRecord),
        budget: &Budget,
    ) -> PassResult<bool> {
        let mut any_changed = false;
        for pass in &self.passes {
            budget
                .charge(1, pass.name())
                .map_err(|e| e.to_diagnostic())?;
            let size_before = ir.ir_size();
            let start = std::time::Instant::now();
            let changed = pass.run(ir).map_err(|d| d.in_pass(pass.name()))?;
            if changed {
                ir.verify_ir().map_err(|d| {
                    Diagnostic {
                        message: format!("IR broken after pass '{}': {}", pass.name(), d.message),
                        ..d
                    }
                    .in_pass(pass.name())
                })?;
            }
            let rec = PassRecord {
                pass: pass.name().to_string(),
                changed,
                wall_us: start.elapsed().as_micros() as u64,
                size_before,
                size_after: ir.ir_size(),
                cached: false,
            };
            observer(ir, &rec);
            report.push(rec);
            any_changed |= changed;
        }
        Ok(any_changed)
    }

    /// Run the pipeline repeatedly until no pass reports a change, bounded
    /// by `max_iters`. The report accumulates records across iterations and
    /// its `iterations` field records how many sweeps ran.
    pub fn run_to_fixpoint(&self, ir: &mut IR, max_iters: usize) -> PassResult<PipelineReport> {
        self.run_to_fixpoint_budgeted(ir, max_iters, &Budget::unlimited())
    }

    /// [`PassManager::run_to_fixpoint`] under a [`Budget`]: besides the
    /// per-pass fuel charge, the budget is checked between fixed-point
    /// iterations, so a livelocked pipeline (oscillating passes that never
    /// quiesce) is cut off at an iteration boundary instead of spinning
    /// until `max_iters`.
    pub fn run_to_fixpoint_budgeted(
        &self,
        ir: &mut IR,
        max_iters: usize,
        budget: &Budget,
    ) -> PassResult<PipelineReport> {
        let mut report = PipelineReport::new(&self.label);
        report.iterations = 0;
        for iter in 0..max_iters {
            if iter > 0 {
                budget
                    .check(&format!("{}/fixpoint", self.label))
                    .map_err(|e| e.to_diagnostic())?;
            }
            report.iterations += 1;
            if !self.run_once(ir, &mut report, &mut |_, _| {}, budget)? {
                break;
            }
        }
        Ok(report)
    }
}

/// Tiny IR + passes shared by this crate's unit tests (kept out of `#[cfg(test)]`
/// so the registry tests can use them too).
#[cfg(test)]
pub(crate) mod tests_support {
    use super::*;

    /// An "IR" that is just a counter, with a verifier tripwire and a tally
    /// of verifier runs.
    #[derive(Default)]
    pub struct CountIr {
        pub count: usize,
        pub poison: bool,
        pub verified: std::cell::Cell<usize>,
    }

    impl PassIr for CountIr {
        fn ir_size(&self) -> usize {
            self.count
        }

        fn verify_ir(&self) -> PassResult<()> {
            self.verified.set(self.verified.get() + 1);
            if self.poison {
                Err(Diagnostic::error("verifier", "poisoned counter")
                    .with_loc(Loc::function("f").in_block("entry").at_inst("%0")))
            } else {
                Ok(())
            }
        }
    }

    /// Grows the counter by `by` until it reaches `until`.
    pub struct Grow {
        pub by: usize,
        pub until: usize,
    }

    impl Pass<CountIr> for Grow {
        fn name(&self) -> &'static str {
            "grow"
        }

        fn run(&self, ir: &mut CountIr) -> PassResult<bool> {
            if ir.count >= self.until {
                Ok(false)
            } else {
                ir.count = (ir.count + self.by).min(self.until);
                Ok(true)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::tests_support::{CountIr, Grow};
    use super::*;

    struct Nop;

    impl Pass<CountIr> for Nop {
        fn name(&self) -> &'static str {
            "nop"
        }

        fn run(&self, _ir: &mut CountIr) -> PassResult<bool> {
            Ok(false)
        }
    }

    struct Poison;

    impl Pass<CountIr> for Poison {
        fn name(&self) -> &'static str {
            "poison"
        }

        fn run(&self, ir: &mut CountIr) -> PassResult<bool> {
            ir.poison = true;
            Ok(true)
        }
    }

    #[test]
    fn fixpoint_terminates_immediately_on_noop() {
        let mut pm = PassManager::new();
        pm.add(Nop);
        let mut ir = CountIr::default();
        let report = pm.run_to_fixpoint(&mut ir, 100).unwrap();
        assert_eq!(report.iterations, 1);
        assert_eq!(report.passes.len(), 1);
    }

    #[test]
    fn fixpoint_converges_and_counts_iterations() {
        let mut pm = PassManager::new();
        pm.add(Grow { by: 2, until: 5 });
        let mut ir = CountIr::default();
        let report = pm.run_to_fixpoint(&mut ir, 100).unwrap();
        // 0→2→4→5, then one quiescent sweep.
        assert_eq!(ir.count, 5);
        assert_eq!(report.iterations, 4);
    }

    #[test]
    fn report_records_timing_and_size_deltas() {
        let mut pm = PassManager::with_label("unit");
        pm.add(Grow { by: 3, until: 3 }).add(Nop);
        let mut ir = CountIr::default();
        let report = pm.run(&mut ir).unwrap();
        assert_eq!(report.label, "unit");
        assert_eq!(report.passes.len(), 2);
        let grow = &report.passes[0];
        assert_eq!((grow.pass.as_str(), grow.changed), ("grow", true));
        assert_eq!((grow.size_before, grow.size_after), (0, 3));
        assert_eq!(grow.size_delta(), 3);
        let nop = &report.passes[1];
        assert_eq!((nop.pass.as_str(), nop.changed), ("nop", false));
        assert_eq!(report.changed_passes(), vec!["grow"]);
        // Timing is recorded (possibly 0us for a trivial pass, but present
        // and summable).
        assert_eq!(
            report.total_us(),
            report.passes.iter().map(|p| p.wall_us).sum()
        );
    }

    #[test]
    fn verify_each_surfaces_located_diagnostic() {
        let mut pm = PassManager::new();
        pm.add(Poison);
        let mut ir = CountIr::default();
        let err = pm.run(&mut ir).unwrap_err();
        assert_eq!(err.pass, "poison");
        assert_eq!(err.loc.function.as_deref(), Some("f"));
        assert_eq!(err.loc.block.as_deref(), Some("entry"));
        assert_eq!(err.loc.inst.as_deref(), Some("%0"));
        assert_eq!(
            err.to_string(),
            "error[poison] @f:entry:%0: IR broken after pass 'poison': poisoned counter"
        );
    }

    #[test]
    fn only_passes_that_changed_the_ir_are_verified() {
        let mut pm = PassManager::new();
        pm.add(Grow { by: 1, until: 2 }).add(Nop);
        let mut ir = CountIr::default();
        let report = pm.run_to_fixpoint(&mut ir, 100).unwrap();
        // Sweeps 1 and 2 grow, sweep 3 is quiescent: six records, two
        // changes, two verifications.
        assert_eq!(report.passes.len(), 6);
        assert_eq!(report.passes.iter().filter(|p| p.changed).count(), 2);
        assert_eq!(ir.verified.get(), 2);
    }

    #[test]
    fn fuel_exhaustion_stops_pipeline_with_budget_diagnostic() {
        let mut pm = PassManager::with_label("budgeted");
        pm.add(Grow { by: 1, until: 100 });
        let mut ir = CountIr::default();
        // 3 fuel units = 3 pass executions, tripping inside sweep 4.
        let budget = Budget::from_limits(None, Some(3));
        let err = pm
            .run_to_fixpoint_budgeted(&mut ir, 100, &budget)
            .unwrap_err();
        assert_eq!(err.pass, budget::BUDGET_COMPONENT);
        let trip = BudgetError::from_diagnostic(&err).expect("parsable trip");
        assert_eq!(trip.kind, BudgetKind::Fuel);
        // Fuel hits zero after sweep 3, so the inter-iteration check trips.
        assert_eq!(trip.stage, "budgeted/fixpoint");
        assert_eq!(ir.count, 3, "exactly 3 fueled passes ran");
    }

    #[test]
    fn expired_deadline_checked_between_fixpoint_iterations() {
        let mut pm = PassManager::with_label("budgeted");
        pm.add(Grow {
            by: 1,
            until: 1_000_000,
        });
        let mut ir = CountIr::default();
        let budget = Budget::from_limits(Some(0), None);
        std::thread::sleep(std::time::Duration::from_millis(2));
        let err = pm.run_budgeted(&mut ir, &budget).unwrap_err();
        let trip = BudgetError::from_diagnostic(&err).expect("parsable trip");
        assert_eq!(trip.kind, BudgetKind::Deadline);
        assert_eq!(ir.count, 0, "no pass may run past the deadline");
    }

    #[test]
    fn unlimited_budget_matches_plain_run() {
        let mut pm = PassManager::new();
        pm.add(Grow { by: 2, until: 5 });
        let (mut a, mut b) = (CountIr::default(), CountIr::default());
        let ra = pm.run_to_fixpoint(&mut a, 100).unwrap();
        let rb = pm
            .run_to_fixpoint_budgeted(&mut b, 100, &Budget::unlimited())
            .unwrap();
        assert_eq!((a.count, ra.iterations), (b.count, rb.iterations));
    }

    #[test]
    fn observer_sees_ir_state_after_each_pass() {
        let mut pm = PassManager::new();
        pm.add(Grow { by: 1, until: 2 })
            .add(Grow { by: 1, until: 2 });
        let mut ir = CountIr::default();
        let mut seen = Vec::new();
        pm.run_observed(&mut ir, &mut |ir, rec| {
            seen.push((rec.pass.clone(), ir.count))
        })
        .unwrap();
        assert_eq!(seen, vec![("grow".to_string(), 1), ("grow".to_string(), 2)]);
    }
}
