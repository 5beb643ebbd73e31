//! Content-addressed artifact cache for the batch driver.
//!
//! Every stage of the batch flow (`flow` → `csynth` → `cosim`) stores its
//! output under a [`CacheKey`]: a stable FNV-1a digest (via
//! [`kernels::digest`]) of everything that determines the output —
//!
//! * the *input text* (kernel MLIR for the flow stage, printed `.ll`
//!   module text for the downstream stages),
//! * the *configuration* (directives, flow kind, synthesis target, seed),
//! * the *crate version* and a cache schema version.
//!
//! A warm rerun therefore skips any stage whose inputs are unchanged, and
//! editing the IR, the pass configuration, or upgrading the workspace
//! invalidates exactly the affected entries — nothing is ever looked up by
//! name or timestamp.
//!
//! Entries are one file per key under the cache directory:
//!
//! ```text
//! mha-cache 1 <key-hex> <payload-fnv-hex> <payload-len>\n
//! <payload bytes>
//! ```
//!
//! The header makes corruption detectable: a wrong magic, key mismatch,
//! length mismatch, or payload-digest mismatch classifies the entry as
//! [`Lookup::Corrupt`], which callers treat as a miss (recompute and
//! rewrite) plus a warning — a damaged cache can cost time, never
//! correctness.

use std::fmt;
use std::path::{Path, PathBuf};

use kernels::digest::Hasher64;

/// Bumped whenever the entry format or any payload encoding changes;
/// part of every key, so old entries simply stop matching.
pub const CACHE_SCHEMA_VERSION: u32 = 2;

/// An I/O or setup failure in the cache layer. Lookup-level problems
/// (missing or corrupt entries) are *not* errors — they surface as
/// [`Lookup`] variants because the correct response is to recompute.
#[derive(Debug, Clone)]
pub struct CacheError {
    /// The file or directory involved.
    pub path: PathBuf,
    /// What failed.
    pub detail: String,
}

impl fmt::Display for CacheError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cache error at {}: {}", self.path.display(), self.detail)
    }
}

impl std::error::Error for CacheError {}

/// The key addressing one stage output: 16 hex digits of FNV-1a state.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct CacheKey(String);

impl CacheKey {
    /// The hex form used in filenames and logs.
    pub fn hex(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for CacheKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

/// Builds a [`CacheKey`] from labelled, length-delimited fields. The stage
/// name, schema version, and crate version are absorbed up front, so two
/// stages can never share a key even over identical inputs.
pub struct KeyBuilder {
    h: Hasher64,
}

impl KeyBuilder {
    /// Start a key for `stage` (e.g. `"flow"`, `"csynth"`, `"cosim"`).
    pub fn new(stage: &str) -> KeyBuilder {
        let mut h = Hasher64::new();
        h.field(&CACHE_SCHEMA_VERSION.to_le_bytes())
            .field_str(env!("CARGO_PKG_VERSION"))
            .field_str(stage);
        KeyBuilder { h }
    }

    /// Absorb one labelled string field.
    pub fn text(mut self, label: &str, value: &str) -> KeyBuilder {
        self.h.field_str(label).field_str(value);
        self
    }

    /// Absorb one labelled integer field (digests, seeds, factors).
    pub fn num(mut self, label: &str, value: u64) -> KeyBuilder {
        self.h.field_str(label).field(&value.to_le_bytes());
        self
    }

    /// Finish into the filename-ready key.
    pub fn finish(self) -> CacheKey {
        CacheKey(self.h.finish_hex())
    }
}

/// Result of a cache probe.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Lookup {
    /// The entry exists and its integrity checks passed.
    Hit(String),
    /// No entry for this key.
    Miss,
    /// An entry exists but failed validation; the reason is human-readable.
    /// The damaged file has already been removed (best effort).
    Corrupt(String),
}

/// A directory of content-addressed entries.
#[derive(Clone, Debug)]
pub struct Cache {
    dir: PathBuf,
}

impl Cache {
    /// Open (creating if needed) a cache rooted at `dir`.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Cache, CacheError> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir).map_err(|e| CacheError {
            path: dir.clone(),
            detail: format!("cannot create cache directory: {e}"),
        })?;
        Ok(Cache { dir })
    }

    /// The default cache location: `target/mha-cache` next to the build
    /// artifacts, so `cargo clean`-style hygiene covers it.
    pub fn default_dir() -> PathBuf {
        PathBuf::from("target").join("mha-cache")
    }

    /// Where this cache lives.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn entry_path(&self, key: &CacheKey) -> PathBuf {
        self.dir.join(format!("{}.entry", key.hex()))
    }

    /// Probe for `key`.
    pub fn load(&self, key: &CacheKey) -> Lookup {
        let path = self.entry_path(key);
        let bytes = match std::fs::read(&path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Lookup::Miss,
            Err(e) => return self.corrupt(&path, format!("unreadable entry: {e}")),
        };
        let text = match String::from_utf8(bytes) {
            Ok(t) => t,
            Err(_) => return self.corrupt(&path, "entry is not UTF-8".into()),
        };
        let Some((header, payload)) = text.split_once('\n') else {
            return self.corrupt(&path, "entry has no header line".into());
        };
        let fields: Vec<&str> = header.split(' ').collect();
        if fields.len() != 5 || fields[0] != "mha-cache" {
            return self.corrupt(&path, "malformed header".into());
        }
        if fields[1] != CACHE_SCHEMA_VERSION.to_string() {
            return self.corrupt(
                &path,
                format!("schema version {} != {}", fields[1], CACHE_SCHEMA_VERSION),
            );
        }
        if fields[2] != key.hex() {
            return self.corrupt(&path, "stored key does not match filename key".into());
        }
        match fields[4].parse::<usize>() {
            Ok(len) if len == payload.len() => {}
            _ => return self.corrupt(&path, "payload length mismatch".into()),
        }
        let digest = format!("{:016x}", kernels::fnv1a64(payload.as_bytes()));
        if fields[3] != digest {
            return self.corrupt(&path, "payload digest mismatch".into());
        }
        Lookup::Hit(payload.to_string())
    }

    fn corrupt(&self, path: &Path, reason: String) -> Lookup {
        // Remove the damaged file so the rewritten entry starts clean.
        let _ = std::fs::remove_file(path);
        Lookup::Corrupt(format!("{}: {reason}", path.display()))
    }

    /// Write `payload` under `key` via [`atomic_write`], so concurrent
    /// readers only ever observe complete entries.
    pub fn store(&self, key: &CacheKey, payload: &str) -> Result<(), CacheError> {
        let digest = format!("{:016x}", kernels::fnv1a64(payload.as_bytes()));
        let entry = format!(
            "mha-cache {CACHE_SCHEMA_VERSION} {} {digest} {}\n{payload}",
            key.hex(),
            payload.len()
        );
        atomic_write(&self.dir, &self.entry_path(key), &entry)
    }
}

/// Write `content` to `path`, atomically enough for concurrent writers:
/// the content is staged to a unique temp file inside `dir` (same
/// filesystem, so the rename is atomic) and renamed into place. Readers
/// never observe a half-written file. Shared by the cache and the fuzzing
/// corpus.
pub fn atomic_write(dir: &Path, path: &Path, content: &str) -> Result<(), CacheError> {
    let stem = path
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| "entry".into());
    let tmp = dir.join(format!(
        ".{stem}.{:x}.tmp",
        std::process::id() as u64 ^ (content.as_ptr() as u64)
    ));
    std::fs::write(&tmp, content).map_err(|e| CacheError {
        path: tmp.clone(),
        detail: format!("cannot stage entry: {e}"),
    })?;
    std::fs::rename(&tmp, path).map_err(|e| CacheError {
        path: path.to_path_buf(),
        detail: format!("cannot commit entry: {e}"),
    })
}

/// Encode a csynth report as the cache payload. The format is line-based
/// and exact: floats travel as IEEE-754 bit patterns so decode(encode(r))
/// reproduces `r` field-for-field.
pub fn encode_csynth(r: &vitis_sim::CsynthReport) -> String {
    fn opt_u64(v: Option<u64>) -> String {
        v.map(|x| x.to_string()).unwrap_or_else(|| "-".into())
    }
    fn opt_u32(v: Option<u32>) -> String {
        v.map(|x| x.to_string()).unwrap_or_else(|| "-".into())
    }
    let mut out = String::new();
    out.push_str(&format!("top {}\n", r.top));
    out.push_str(&format!("clock_ns {:016x}\n", r.clock_ns.to_bits()));
    out.push_str(&format!("latency {}\n", r.latency));
    out.push_str(&format!("interval {}\n", r.interval));
    out.push_str(&format!(
        "resources {} {} {} {}\n",
        r.resources.dsp, r.resources.lut, r.resources.ff, r.resources.bram_18k
    ));
    for l in &r.loops {
        out.push_str(&format!(
            "loop {} {} {} {} {} {} {} {}\n",
            l.depth,
            opt_u64(l.trip_count),
            l.pipelined as u8,
            opt_u32(l.ii_target),
            opt_u32(l.ii_achieved),
            l.iteration_latency,
            l.latency,
            l.name
        ));
        match &l.ii_bound {
            Some(b) => out.push_str(&format!("bound {b}\n")),
            None => out.push_str("bound -\n"),
        }
    }
    out
}

/// Decode a payload produced by [`encode_csynth`]. Any structural deviation
/// is an error (the caller then treats the entry as corrupt).
pub fn decode_csynth(payload: &str) -> Result<vitis_sim::CsynthReport, String> {
    fn opt<T: std::str::FromStr>(s: &str) -> Result<Option<T>, String> {
        if s == "-" {
            Ok(None)
        } else {
            s.parse().map(Some).map_err(|_| format!("bad field '{s}'"))
        }
    }
    fn req<T: std::str::FromStr>(s: &str) -> Result<T, String> {
        s.parse().map_err(|_| format!("bad field '{s}'"))
    }
    let mut lines = payload.lines();
    let mut take = |tag: &str| -> Result<String, String> {
        let line = lines
            .next()
            .ok_or_else(|| format!("missing '{tag}' line"))?;
        line.strip_prefix(tag)
            .and_then(|r| r.strip_prefix(' '))
            .map(str::to_string)
            .ok_or_else(|| format!("expected '{tag}' line, got '{line}'"))
    };
    let top = take("top")?;
    let clock_bits = u64::from_str_radix(&take("clock_ns")?, 16).map_err(|e| e.to_string())?;
    let latency = req(&take("latency")?)?;
    let interval = req(&take("interval")?)?;
    let res_line = take("resources")?;
    let res: Vec<&str> = res_line.split(' ').collect();
    if res.len() != 4 {
        return Err("resources line needs 4 fields".into());
    }
    let resources = vitis_sim::Resources {
        dsp: req(res[0])?,
        lut: req(res[1])?,
        ff: req(res[2])?,
        bram_18k: req(res[3])?,
    };
    let mut loops = Vec::new();
    while let Ok(l) = take("loop") {
        // depth trip pipelined ii_tgt ii_ach iterlat latency name
        let mut f = l.splitn(8, ' ');
        let mut next = || f.next().ok_or_else(|| "short loop line".to_string());
        let depth = req(next()?)?;
        let trip_count = opt(next()?)?;
        let pipelined = next()? == "1";
        let ii_target = opt(next()?)?;
        let ii_achieved = opt(next()?)?;
        let iteration_latency = req(next()?)?;
        let latency = req(next()?)?;
        let name = next()?.to_string();
        let bound = take("bound")?;
        loops.push(vitis_sim::LoopReport {
            name,
            depth,
            trip_count,
            pipelined,
            ii_target,
            ii_achieved,
            iteration_latency,
            latency,
            ii_bound: if bound == "-" { None } else { Some(bound) },
        });
    }
    Ok(vitis_sim::CsynthReport {
        top,
        clock_ns: f64::from_bits(clock_bits),
        latency,
        interval,
        loops,
        resources,
    })
}

/// Encode a co-simulation outcome (`max_abs_err` travels as its f32 bit
/// pattern for exactness).
pub fn encode_cosim(r: &crate::CosimResult) -> String {
    format!("cosim {:08x} {}\n", r.max_abs_err.to_bits(), r.steps)
}

/// Decode a payload produced by [`encode_cosim`].
pub fn decode_cosim(payload: &str) -> Result<crate::CosimResult, String> {
    let line = payload.lines().next().ok_or("empty cosim payload")?;
    let fields: Vec<&str> = line.split(' ').collect();
    if fields.len() != 3 || fields[0] != "cosim" {
        return Err(format!("malformed cosim payload '{line}'"));
    }
    let bits = u32::from_str_radix(fields[1], 16).map_err(|e| e.to_string())?;
    let steps = fields[2]
        .parse()
        .map_err(|_| "bad steps field".to_string())?;
    Ok(crate::CosimResult {
        max_abs_err: f32::from_bits(bits),
        steps,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_cache(tag: &str) -> Cache {
        let dir = std::env::temp_dir().join(format!("mha-cache-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        Cache::open(dir).unwrap()
    }

    #[test]
    fn store_then_load_roundtrips() {
        let c = tmp_cache("roundtrip");
        let key = KeyBuilder::new("flow").text("mlir", "func...").finish();
        assert_eq!(c.load(&key), Lookup::Miss);
        c.store(&key, "payload\nwith lines").unwrap();
        assert_eq!(c.load(&key), Lookup::Hit("payload\nwith lines".into()));
    }

    #[test]
    fn keys_separate_stages_and_inputs() {
        let a = KeyBuilder::new("flow").text("mlir", "x").finish();
        let b = KeyBuilder::new("csynth").text("mlir", "x").finish();
        let c = KeyBuilder::new("flow").text("mlir", "y").finish();
        let d = KeyBuilder::new("flow")
            .text("mlir", "x")
            .num("ii", 2)
            .finish();
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, d);
        // Same inputs, same key.
        assert_eq!(a, KeyBuilder::new("flow").text("mlir", "x").finish());
    }

    #[test]
    fn corrupt_entries_are_detected_and_removed() {
        let c = tmp_cache("corrupt");
        let key = KeyBuilder::new("flow").text("k", "v").finish();
        c.store(&key, "good payload").unwrap();
        let path = c.entry_path(&key);
        // Flip a payload byte: digest check must fire.
        std::fs::write(
            &path,
            std::fs::read_to_string(&path)
                .unwrap()
                .replace("good", "evil"),
        )
        .unwrap();
        match c.load(&key) {
            Lookup::Corrupt(reason) => assert!(reason.contains("digest"), "{reason}"),
            other => panic!("expected Corrupt, got {other:?}"),
        }
        // The damaged file is gone, so the next probe is a clean miss.
        assert_eq!(c.load(&key), Lookup::Miss);
        // Truncation is also caught.
        c.store(&key, "good payload").unwrap();
        std::fs::write(&path, "mha-cache").unwrap();
        assert!(matches!(c.load(&key), Lookup::Corrupt(_)));
    }

    #[test]
    fn csynth_payload_roundtrips() {
        let r = vitis_sim::CsynthReport {
            top: "gemm".into(),
            clock_ns: 10.0,
            latency: 4242,
            interval: 4243,
            loops: vec![
                vitis_sim::LoopReport {
                    name: "loop_i".into(),
                    depth: 1,
                    trip_count: Some(16),
                    pipelined: true,
                    ii_target: Some(1),
                    ii_achieved: Some(2),
                    iteration_latency: 9,
                    latency: 71,
                    ii_bound: Some("memory ports on %a".into()),
                },
                vitis_sim::LoopReport {
                    name: "loop_j".into(),
                    depth: 2,
                    trip_count: None,
                    pipelined: false,
                    ii_target: None,
                    ii_achieved: None,
                    iteration_latency: 3,
                    latency: 48,
                    ii_bound: None,
                },
            ],
            resources: vitis_sim::Resources {
                dsp: 5,
                lut: 1200,
                ff: 900,
                bram_18k: 3,
            },
        };
        let decoded = decode_csynth(&encode_csynth(&r)).unwrap();
        assert_eq!(decoded, r);
    }

    #[test]
    fn cosim_payload_roundtrips_exactly() {
        let r = crate::CosimResult {
            max_abs_err: 1.1920929e-7,
            steps: 123_456,
        };
        let decoded = decode_cosim(&encode_cosim(&r)).unwrap();
        assert_eq!(decoded, r);
        assert_eq!(decoded.max_abs_err.to_bits(), r.max_abs_err.to_bits());
    }

    #[test]
    fn decoders_reject_garbage() {
        assert!(decode_csynth("nope").is_err());
        assert!(decode_csynth("top gemm\nclock_ns zz").is_err());
        assert!(decode_cosim("").is_err());
        assert!(decode_cosim("cosim xyz 1").is_err());
    }
}
