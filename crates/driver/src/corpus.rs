//! Replayable corpus of fuzzing findings.
//!
//! One file per unique failure signature, named `<sig-hex>.finding` after
//! the signature's stable 64-bit id, so re-running a campaign over the
//! same seed range rewrites the same files instead of accumulating
//! duplicates. Entries are written with the cache's
//! [`atomic_write`] staging, so a campaign
//! killed mid-write never leaves a torn entry behind.
//!
//! The format is line-based and self-describing:
//!
//! ```text
//! mha-corpus 1
//! seed <u64>
//! oracle <kind>
//! stage <stage>
//! hits <u64>
//! signature <rendered signature>
//! --- kernel
//! <kernel MLIR text>
//! --- reduced            (only when reduction shrank the kernel)
//! <minimized MLIR text>
//! ```
//!
//! A reader needs nothing but the seed to regenerate the original kernel
//! (the generator is bit-stable), but the text is stored anyway so an
//! entry stays actionable even if the generator evolves.

use std::path::{Path, PathBuf};

use fuzzing::sig::{Failure, OracleKind, Signature};
use fuzzing::Finding;

use crate::cache::{atomic_write, CacheError};

/// Format version; bump on any layout change.
pub const CORPUS_SCHEMA_VERSION: u32 = 1;

/// One decoded corpus entry.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CorpusEntry {
    /// Seed whose kernel exposed the failure.
    pub seed: u64,
    /// Oracle kind recorded at save time.
    pub oracle: OracleKind,
    /// Pipeline stage recorded at save time.
    pub stage: String,
    /// Seeds that hit this signature during the saving campaign.
    pub hits: u64,
    /// The rendered signature (the dedup identity).
    pub signature: Signature,
    /// Kernel text exactly as generated.
    pub kernel: String,
    /// Minimized reproducer, when present.
    pub reduced: Option<String>,
}

/// A directory of findings.
#[derive(Clone, Debug)]
pub struct Corpus {
    dir: PathBuf,
}

impl Corpus {
    /// Open (creating if needed) a corpus rooted at `dir`.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Corpus, CacheError> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir).map_err(|e| CacheError {
            path: dir.clone(),
            detail: format!("cannot create corpus directory: {e}"),
        })?;
        Ok(Corpus { dir })
    }

    /// Default location, next to the artifact cache.
    pub fn default_dir() -> PathBuf {
        PathBuf::from("target").join("mha-corpus")
    }

    /// Where this corpus lives.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The file a finding with `sig` lives at.
    pub fn entry_path(&self, sig: &Signature) -> PathBuf {
        self.dir.join(format!("{}.finding", sig.hex_id()))
    }

    /// Persist one finding; returns the path written.
    pub fn store(&self, f: &Finding) -> Result<PathBuf, CacheError> {
        let mut out = format!(
            "mha-corpus {CORPUS_SCHEMA_VERSION}\nseed {}\noracle {}\nstage {}\nhits {}\nsignature {}\n--- kernel\n{}",
            f.seed,
            f.failure.oracle.as_str(),
            f.failure.stage,
            f.hits,
            f.signature.as_str(),
            f.kernel,
        );
        if !out.ends_with('\n') {
            out.push('\n');
        }
        if let Some(red) = &f.reduced {
            out.push_str("--- reduced\n");
            out.push_str(red);
            if !out.ends_with('\n') {
                out.push('\n');
            }
        }
        let path = self.entry_path(&f.signature);
        atomic_write(&self.dir, &path, &out)?;
        Ok(path)
    }

    /// All entry paths, sorted for stable iteration.
    pub fn list(&self) -> Result<Vec<PathBuf>, CacheError> {
        let rd = std::fs::read_dir(&self.dir).map_err(|e| CacheError {
            path: self.dir.clone(),
            detail: format!("cannot list corpus: {e}"),
        })?;
        let mut out: Vec<PathBuf> = rd
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().map(|x| x == "finding").unwrap_or(false))
            .collect();
        out.sort();
        Ok(out)
    }

    /// Decode one entry file. Structural deviations are errors with the
    /// offending detail; the caller decides whether to skip or abort.
    pub fn load(path: &Path) -> Result<CorpusEntry, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("{}: unreadable entry: {e}", path.display()))?;
        let mut lines = text.lines();
        let magic = lines.next().unwrap_or("");
        if magic != format!("mha-corpus {CORPUS_SCHEMA_VERSION}") {
            return Err(format!("{}: bad magic line '{magic}'", path.display()));
        }
        let mut take = |tag: &str| -> Result<String, String> {
            let line = lines
                .next()
                .ok_or_else(|| format!("{}: missing '{tag}' line", path.display()))?;
            line.strip_prefix(tag)
                .and_then(|r| r.strip_prefix(' '))
                .map(str::to_string)
                .ok_or_else(|| format!("{}: expected '{tag}' line, got '{line}'", path.display()))
        };
        let seed: u64 = take("seed")?
            .parse()
            .map_err(|_| format!("{}: bad seed", path.display()))?;
        let oracle_name = take("oracle")?;
        let oracle = OracleKind::parse_name(&oracle_name)
            .ok_or_else(|| format!("{}: unknown oracle '{oracle_name}'", path.display()))?;
        let stage = take("stage")?;
        let hits: u64 = take("hits")?
            .parse()
            .map_err(|_| format!("{}: bad hits", path.display()))?;
        let signature = Signature::from_stored(&take("signature")?);
        if lines.next() != Some("--- kernel") {
            return Err(format!("{}: missing '--- kernel' marker", path.display()));
        }
        let mut kernel = String::new();
        let mut reduced: Option<String> = None;
        let mut into_reduced = false;
        for line in lines {
            if line == "--- reduced" {
                into_reduced = true;
                reduced = Some(String::new());
                continue;
            }
            let dst = if into_reduced {
                reduced.as_mut().expect("set when marker seen")
            } else {
                &mut kernel
            };
            dst.push_str(line);
            dst.push('\n');
        }
        Ok(CorpusEntry {
            seed,
            oracle,
            stage,
            hits,
            signature,
            kernel,
            reduced,
        })
    }
}

/// Rebuild a [`Failure`]-shaped record from an entry (the message is the
/// signature's normalized form — the raw message is not persisted).
pub fn entry_failure(e: &CorpusEntry) -> Failure {
    Failure::new(e.oracle, &e.stage, e.signature.as_str())
}

#[cfg(test)]
mod tests {
    use super::*;
    use fuzzing::sig::Failure;

    fn tmp_corpus(tag: &str) -> Corpus {
        let dir =
            std::env::temp_dir().join(format!("mha-corpus-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        Corpus::open(dir).unwrap()
    }

    fn sample_finding(reduced: bool) -> Finding {
        let failure = Failure::new(OracleKind::Differential, "compare", "buffer 0 element 3");
        let signature = failure.signature();
        Finding {
            seed: 42,
            failure,
            signature,
            kernel: "func.func @fuzzk() attributes {hls.top} {\n  func.return\n}\n".into(),
            reduced: reduced.then(|| "func.func @fuzzk() {\n}\n".into()),
            hits: 7,
        }
    }

    #[test]
    fn store_then_load_roundtrips() {
        let c = tmp_corpus("roundtrip");
        for with_reduced in [false, true] {
            let f = sample_finding(with_reduced);
            let path = c.store(&f).unwrap();
            let e = Corpus::load(&path).unwrap();
            assert_eq!(e.seed, 42);
            assert_eq!(e.oracle, OracleKind::Differential);
            assert_eq!(e.stage, "compare");
            assert_eq!(e.hits, 7);
            assert_eq!(e.signature, f.signature);
            assert_eq!(e.kernel, f.kernel);
            assert_eq!(e.reduced, f.reduced);
        }
    }

    #[test]
    fn same_signature_overwrites_instead_of_accumulating() {
        let c = tmp_corpus("dedup");
        let mut f = sample_finding(false);
        c.store(&f).unwrap();
        f.hits = 99;
        c.store(&f).unwrap();
        let paths = c.list().unwrap();
        assert_eq!(paths.len(), 1);
        assert_eq!(Corpus::load(&paths[0]).unwrap().hits, 99);
    }

    #[test]
    fn malformed_entries_are_located_errors() {
        let c = tmp_corpus("malformed");
        let p = c.dir().join("bogus.finding");
        std::fs::write(&p, "not a corpus entry").unwrap();
        let err = Corpus::load(&p).unwrap_err();
        assert!(err.contains("bogus.finding"), "{err}");
        assert!(err.contains("magic"), "{err}");
    }
}
