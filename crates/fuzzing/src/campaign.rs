//! The fuzzing campaign loop: generate → oracle stack → dedup → reduce.
//!
//! A campaign walks a contiguous seed range. Each seed becomes a kernel
//! (bit-reproducibly — see [`crate::gen`]), runs through the oracle stack,
//! and on failure is deduplicated by normalized signature: only the first
//! seed to hit a signature becomes a [`Finding`] and (optionally) gets
//! reduced; later seeds with the same signature just bump a counter. The
//! loop itself never panics and never hangs — both are oracle outcomes,
//! not campaign outcomes.

use std::collections::BTreeMap;

use crate::gen::{generate, GenConfig};
use crate::oracle::{run_legality_oracle, run_oracles, OracleOpts};
use crate::reduce::{reduce, ReduceOpts};
use crate::sig::{Failure, Signature};

/// Campaign-level knobs.
#[derive(Clone, Debug, Default)]
pub struct CampaignOpts {
    /// Kernel-shape tunables.
    pub gen: GenConfig,
    /// Oracle bounds (step limit, optional fuel/deadline).
    pub oracle: OracleOpts,
    /// Reduce each new finding automatically. `None` disables reduction.
    pub reduce: Option<ReduceOpts>,
    /// Also run the transform-legality oracle: apply every engine-approved
    /// interchange and require bit-exact results.
    pub legality: bool,
}

/// One deduplicated failure: the first seed that hit a signature.
#[derive(Clone, Debug)]
pub struct Finding {
    /// Seed whose kernel first exposed this signature.
    pub seed: u64,
    /// The failure as the oracle reported it.
    pub failure: Failure,
    /// Normalized dedup identity.
    pub signature: Signature,
    /// The offending kernel text, exactly as generated.
    pub kernel: String,
    /// Minimized reproducer, when reduction ran and shrank anything.
    pub reduced: Option<String>,
    /// How many seeds in the range hit this same signature.
    pub hits: u64,
}

/// Aggregate result of one campaign.
#[derive(Debug, Default)]
pub struct CampaignResult {
    /// Seeds attempted.
    pub attempts: u64,
    /// Seeds whose kernel passed every oracle.
    pub passed: u64,
    /// Seeds where the legality oracle exercised a real interchange
    /// (0 unless [`CampaignOpts::legality`] is set).
    pub interchanged: u64,
    /// Unique findings keyed by signature (BTreeMap for stable ordering).
    pub findings: BTreeMap<Signature, Finding>,
}

impl CampaignResult {
    /// True when every seed passed every oracle.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }
}

/// How a campaign executes one kernel against the oracle stack: the
/// in-process default, or an injected runner that ships the kernel to an
/// isolated worker process (`mha-fuzz --isolate`, via `driver::warden`).
/// Returns whether the legality oracle exercised a real interchange.
pub type OracleRunner<'a> = dyn Fn(&str, u64, &CampaignOpts) -> Result<bool, Failure> + 'a;

/// Run seeds `[start, start + count)`. `progress` receives one human line
/// per event worth narrating (new finding, reduction done); callers route
/// it to stderr so stdout can stay machine-readable.
pub fn run_campaign(
    start: u64,
    count: u64,
    opts: &CampaignOpts,
    progress: &mut dyn FnMut(&str),
) -> CampaignResult {
    run_campaign_with(start, count, opts, &run_all, progress)
}

/// [`run_campaign`] with an injected [`OracleRunner`]. Reduction goes
/// through the same runner, so a crash finding reduces under isolation —
/// each candidate that kills the worker is contained exactly like the
/// original.
pub fn run_campaign_with(
    start: u64,
    count: u64,
    opts: &CampaignOpts,
    runner: &OracleRunner<'_>,
    progress: &mut dyn FnMut(&str),
) -> CampaignResult {
    let mut result = CampaignResult::default();
    for seed in start..start.saturating_add(count) {
        result.attempts += 1;
        let kernel = generate(seed, &opts.gen);
        match runner(&kernel.text, seed, opts) {
            Ok(exercised) => {
                result.passed += 1;
                result.interchanged += u64::from(exercised);
            }
            Err(failure) => {
                let signature = failure.signature();
                if let Some(existing) = result.findings.get_mut(&signature) {
                    existing.hits += 1;
                    continue;
                }
                progress(&format!("seed {seed}: new failure {failure}"));
                let reduced = opts.reduce.as_ref().and_then(|ropts| {
                    let r = reduce(&kernel.text, ropts, &mut |cand| {
                        matches!(
                            runner(cand, seed, opts),
                            Err(f) if f.signature() == signature
                        )
                    });
                    progress(&format!(
                        "seed {seed}: reduced {} -> {} lines in {} attempts",
                        kernel.text.lines().count(),
                        r.text.lines().count(),
                        r.attempts
                    ));
                    (r.accepted > 0).then_some(r.text)
                });
                result.findings.insert(
                    signature.clone(),
                    Finding {
                        seed,
                        failure,
                        signature,
                        kernel: kernel.text,
                        reduced,
                        hits: 1,
                    },
                );
            }
        }
    }
    result
}

/// Re-run one corpus entry: regenerate the seed's kernel (or use the
/// provided text) and report the failure, if it still fails.
pub fn replay(seed: u64, text: Option<&str>, opts: &CampaignOpts) -> Result<(), Failure> {
    let owned;
    let src = match text {
        Some(t) => t,
        None => {
            owned = generate(seed, &opts.gen).text;
            &owned
        }
    };
    run_all(src, seed, opts).map(|_| ())
}

/// The full oracle stack plus (when enabled) the legality oracle: what an
/// in-process campaign runs per seed, and what an isolated worker runs per
/// request. Returns whether the legality oracle exercised a real
/// interchange.
pub fn run_all(src: &str, seed: u64, opts: &CampaignOpts) -> Result<bool, Failure> {
    run_oracles(src, seed, &opts.oracle)?;
    if opts.legality {
        run_legality_oracle(src, seed, &opts.oracle)
    } else {
        Ok(false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn campaigns_are_reproducible() {
        let opts = CampaignOpts::default();
        let mut sink = |_: &str| {};
        let a = run_campaign(0, 20, &opts, &mut sink);
        let b = run_campaign(0, 20, &opts, &mut sink);
        assert_eq!(a.attempts, b.attempts);
        assert_eq!(a.passed, b.passed);
        let ka: Vec<_> = a.findings.keys().collect();
        let kb: Vec<_> = b.findings.keys().collect();
        assert_eq!(ka, kb);
    }

    #[test]
    fn duplicate_signatures_collapse_to_one_finding() {
        // Force failures by starving the budget: every seed trips the same
        // budget signature, so the campaign must report exactly one finding
        // with many hits.
        let opts = CampaignOpts {
            oracle: OracleOpts {
                fuel: Some(1),
                ..OracleOpts::default()
            },
            reduce: None,
            ..CampaignOpts::default()
        };
        let mut sink = |_: &str| {};
        let r = run_campaign(0, 10, &opts, &mut sink);
        assert_eq!(r.passed, 0);
        assert_eq!(r.findings.len(), 1, "{:?}", r.findings.keys());
        assert_eq!(r.findings.values().next().unwrap().hits, 10);
    }

    #[test]
    fn replay_matches_campaign_verdict() {
        let opts = CampaignOpts::default();
        assert!(replay(0, None, &opts).is_ok());
        let starved = CampaignOpts {
            oracle: OracleOpts {
                fuel: Some(1),
                ..OracleOpts::default()
            },
            ..CampaignOpts::default()
        };
        assert!(replay(0, None, &starved).is_err());
    }
}
