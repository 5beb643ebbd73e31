//! Seeded input sets and their pinned digests.
//!
//! fuzz-oracle and serve-isolated draw their kernels from pinned generator
//! ranges; the seed fixes the order they are sent in. Keeping the set
//! fixed keeps the work per run fixed — with a different random set per
//! seed the QoR geomean alone spread 8.6% (interquartile, five seeds) —
//! while every seed still gives a different sequence. suite-cold's seed
//! picks the cosim input data.
//!
//! Every run first regenerates the input set of [`DEFAULT_SEED`] and
//! compares its digest with the value pinned here, so a change to
//! `kernels` (sources, cosim data) or to `fuzzing::gen` cannot silently
//! change what the benchmark measures. Re-pin deliberately with
//! `mha-perfbench --digests`.

use std::ops::Range;

use fuzzing::rng::Rng;
use fuzzing::{generate, GenConfig};
use kernels::{Hasher64, Kernel};

/// The seed whose input sets are pinned.
pub const DEFAULT_SEED: u64 = 1;

/// Pinned input digests for [`DEFAULT_SEED`].
pub const PINNED_SUITE: &str = "88af6b23994eca84";
pub const PINNED_FUZZ: &str = "0c23712a146bc685";
pub const PINNED_SERVE: &str = "3244cbc7788fae5f";

/// fuzz-oracle's kernels: the start of the seed span the clean 32k-seed
/// campaign covered.
pub const FUZZ_RANGE: Range<u64> = 0..2048;
const _: () = assert!(FUZZ_RANGE.end <= 32768 && FUZZ_RANGE.end <= SERVE_RANGE.start);
/// serve-isolated's raw-MLIR bodies, disjoint from fuzz-oracle's; the
/// cold phase sends every one of them once. 3500 requests make at least
/// three groups of 1000 for the grouped p99.
pub const SERVE_RANGE: Range<u64> = (1 << 20)..(1 << 20) + 3500;

/// The ten suite kernels and the co-simulation input seed.
pub struct SuiteInputs {
    pub kernels: Vec<&'static Kernel>,
    pub cosim_seed: u64,
}

pub fn suite(seed: u64) -> SuiteInputs {
    SuiteInputs {
        kernels: kernels::all_kernels().iter().collect(),
        cosim_seed: seed,
    }
}

/// Digest of the suite sources, argument specs, cosim seed and the cosim
/// input data that seed generates.
pub fn suite_digest(s: &SuiteInputs) -> String {
    let mut h = Hasher64::new();
    h.field_str("suite-cold/v1")
        .field(&s.cosim_seed.to_le_bytes());
    for k in &s.kernels {
        h.field(&k.content_digest().to_le_bytes());
        for buf in kernels::gen_inputs(k, s.cosim_seed) {
            for x in buf {
                h.update(&x.to_bits().to_le_bytes());
            }
        }
    }
    h.finish_hex()
}

/// One generated kernel: its generator seed and MLIR text.
pub struct FuzzKernel {
    pub seed: u64,
    pub text: String,
}

/// The kernels of `range` in the order `seed` picks (a Fisher–Yates
/// shuffle on the fuzzer's own stable RNG).
pub fn generate_range(range: Range<u64>, seed: u64) -> Vec<FuzzKernel> {
    let mut order: Vec<u64> = range.collect();
    let mut rng = Rng::new(seed);
    for i in (1..order.len()).rev() {
        order.swap(i, rng.below(i as u64 + 1) as usize);
    }
    let cfg = GenConfig::default();
    order
        .into_iter()
        .map(|s| FuzzKernel {
            seed: s,
            text: generate(s, &cfg).text,
        })
        .collect()
}

pub fn kernels_digest(tag: &str, ks: &[FuzzKernel]) -> String {
    let mut h = Hasher64::new();
    h.field_str(tag);
    for k in ks {
        h.field(&k.seed.to_le_bytes()).field_str(&k.text);
    }
    h.finish_hex()
}

/// The digest of `workload`'s [`DEFAULT_SEED`] inputs and its pinned value.
pub fn default_digest(workload: &str) -> (String, &'static str) {
    match workload {
        "suite-cold" => (suite_digest(&suite(DEFAULT_SEED)), PINNED_SUITE),
        "fuzz-oracle" => (
            kernels_digest("fuzz-oracle/v1", &generate_range(FUZZ_RANGE, DEFAULT_SEED)),
            PINNED_FUZZ,
        ),
        _ => (
            kernels_digest(
                "serve-isolated/v1",
                &generate_range(SERVE_RANGE, DEFAULT_SEED),
            ),
            PINNED_SERVE,
        ),
    }
}

/// Fail loudly when `workload`'s default-seed inputs no longer match the
/// pinned digest.
pub fn check_pinned(workload: &str) -> Result<(), String> {
    let (got, pinned) = default_digest(workload);
    if got == pinned {
        Ok(())
    } else {
        Err(format!(
            "{workload}: input set for seed {DEFAULT_SEED} has digest {got}, pinned {pinned}; \
             the generator or the suite changed what this workload measures \
             (re-pin with `mha-perfbench --digests` only if that is intended)"
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_seed_inputs_match_their_pinned_digests() {
        for w in ["suite-cold", "fuzz-oracle", "serve-isolated"] {
            check_pinned(w).unwrap();
        }
    }

    #[test]
    fn digests_are_deterministic_and_seed_sensitive() {
        assert_eq!(suite_digest(&suite(5)), suite_digest(&suite(5)));
        assert_ne!(suite_digest(&suite(5)), suite_digest(&suite(6)));
        let a = generate_range(0..64, 3);
        let b = generate_range(0..64, 4);
        assert_eq!(
            kernels_digest("t", &a),
            kernels_digest("t", &generate_range(0..64, 3))
        );
        assert_ne!(kernels_digest("t", &a), kernels_digest("t", &b));
        assert_ne!(kernels_digest("t", &a), kernels_digest("u", &a));
    }

    #[test]
    fn a_seed_permutes_the_pinned_range() {
        let mut seeds: Vec<u64> = generate_range(10..74, 9).iter().map(|k| k.seed).collect();
        assert_ne!(seeds, (10..74).collect::<Vec<_>>());
        seeds.sort_unstable();
        assert_eq!(seeds, (10..74).collect::<Vec<_>>());
    }
}
