//! The experiment harness: run kernels through both flows and collect
//! everything the table/figure generators need.
//!
//! Each flow runs through the batch engine ([`run_supervised`]), so the
//! paper tables synthesize and co-simulate the printed and re-parsed
//! module, the same text boundary `mha-batch` and `mha-serve` cross and
//! Vitis reads.

use vitis_sim::{CsynthReport, Target};

use crate::batch::{run_supervised, BatchOptions, RunOutcome};
use crate::flow::Flow;
use crate::{DriverError, Result};
use kernels::Kernel;

/// HLS directives applied (identically) at the MLIR level before either
/// flow runs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Directives {
    /// Pipeline every innermost loop at this II.
    pub pipeline_ii: Option<u32>,
    /// Unroll every pipelined loop by this factor.
    pub unroll_factor: Option<u32>,
    /// Cyclically partition every array interface by this factor.
    pub partition_factor: Option<u32>,
    /// Flatten perfect loop nests around pipelined innermost loops.
    pub flatten: bool,
}

impl Directives {
    /// Pipeline innermost loops at the given II, no unrolling.
    pub fn pipelined(ii: u32) -> Directives {
        Directives {
            pipeline_ii: Some(ii),
            unroll_factor: None,
            partition_factor: None,
            flatten: false,
        }
    }
}

/// One flow's results within an experiment row.
#[derive(Clone, Debug)]
pub struct FlowOutcome {
    /// Synthesis report.
    pub report: CsynthReport,
    /// Co-simulation max error vs the reference.
    pub cosim_err: f32,
}

/// One kernel × directives experiment.
#[derive(Clone, Debug)]
pub struct ExperimentRow {
    /// Kernel name.
    pub kernel: String,
    /// Directives used.
    pub directives: Directives,
    /// Adaptor-flow results.
    pub adaptor: FlowOutcome,
    /// C++-flow results.
    pub cpp: FlowOutcome,
}

impl ExperimentRow {
    /// Latency ratio C++/adaptor (>1 = adaptor faster).
    pub fn latency_ratio(&self) -> f64 {
        self.cpp.report.latency as f64 / self.adaptor.report.latency.max(1) as f64
    }
}

/// One flow of one kernel through the batch engine, uncached, at the
/// default co-simulation seed. Anything short of a completed run (a
/// fault, a panic, a fallback to the C++ flow) is an error.
fn outcome(
    kernel: &Kernel,
    directives: &Directives,
    flow: Flow,
    target: &Target,
) -> Result<FlowOutcome> {
    let opts = BatchOptions {
        directives: *directives,
        flow,
        cache_dir: None,
        target: target.clone(),
        ..BatchOptions::default()
    };
    let (outcome, _) = run_supervised(kernel, &opts).map_err(|e| DriverError(e.to_string()))?;
    let failure = match outcome {
        RunOutcome::Completed(a) => {
            return Ok(FlowOutcome {
                report: a.csynth,
                cosim_err: a.cosim_max_err,
            })
        }
        RunOutcome::Degraded { reason, .. } => format!("degraded: {reason}"),
        RunOutcome::Failed(e) => e.to_string(),
        RunOutcome::Panicked { message } => format!("panicked: {message}"),
    };
    Err(DriverError(format!(
        "{} ({}): {failure}",
        kernel.name,
        flow.label()
    )))
}

/// Run one kernel through both flows.
pub fn run_experiment(
    kernel: &Kernel,
    directives: &Directives,
    target: &Target,
) -> Result<ExperimentRow> {
    Ok(ExperimentRow {
        kernel: kernel.name.to_string(),
        directives: *directives,
        adaptor: outcome(kernel, directives, Flow::Adaptor, target)?,
        cpp: outcome(kernel, directives, Flow::Cpp, target)?,
    })
}

/// Run the whole suite with uniform directives.
pub fn run_suite(directives: &Directives, target: &Target) -> Result<Vec<ExperimentRow>> {
    kernels::all_kernels()
        .iter()
        .map(|k| run_experiment(k, directives, target))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gemm_experiment_is_comparable_across_flows() {
        let k = kernels::kernel("gemm").unwrap();
        let row = run_experiment(k, &Directives::pipelined(1), &Target::default()).unwrap();
        assert_eq!(row.adaptor.cosim_err, 0.0);
        assert_eq!(row.cpp.cosim_err, 0.0);
        // The paper's claim: comparable QoR. Allow ±25% between the flows.
        let ratio = row.latency_ratio();
        assert!(
            (0.75..=1.34).contains(&ratio),
            "latency ratio {ratio} outside the comparable band: adaptor {} vs cpp {}",
            row.adaptor.report.latency,
            row.cpp.report.latency
        );
    }

    #[test]
    fn pipelining_beats_no_directives() {
        let k = kernels::kernel("fir").unwrap();
        let base = run_experiment(k, &Directives::default(), &Target::default()).unwrap();
        let piped = run_experiment(k, &Directives::pipelined(1), &Target::default()).unwrap();
        assert!(
            piped.adaptor.report.latency < base.adaptor.report.latency,
            "pipelined {} vs base {}",
            piped.adaptor.report.latency,
            base.adaptor.report.latency
        );
    }
}
