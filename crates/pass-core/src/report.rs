//! Pipeline execution reports (LLVM `-time-passes` / `mlir-timing` style).
//!
//! A [`PipelineReport`] records, per executed pass/stage: wall-clock time,
//! whether the IR changed, and the IR size before/after. Reports render as
//! an aligned text table and serialize to JSON (hand-rolled emitter — the
//! schema is documented in EXPERIMENTS.md).

/// One executed pass or pipeline stage.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PassRecord {
    /// Pass/stage name (nested stages use `outer/inner`).
    pub pass: String,
    /// Whether the pass reported an IR change.
    pub changed: bool,
    /// Wall-clock time, microseconds.
    pub wall_us: u64,
    /// IR size (op/instruction count) before the pass.
    pub size_before: usize,
    /// IR size after the pass.
    pub size_after: usize,
    /// True when the stage's output was materialized from the artifact
    /// cache instead of being recomputed (`wall_us` is then the cache load
    /// time). Ordinary pass executions leave this false.
    pub cached: bool,
}

impl PassRecord {
    /// Signed size delta (negative = the pass shrank the IR).
    pub fn size_delta(&self) -> i64 {
        self.size_after as i64 - self.size_before as i64
    }
}

/// Execution report for one pipeline run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PipelineReport {
    /// Pipeline label (e.g. `hls-adaptor`, `standard-cleanup`).
    pub label: String,
    /// Fixed-point iterations executed (1 for a single sweep).
    pub iterations: usize,
    /// True when this report describes a degraded run: the primary flow
    /// failed and the supervisor fell back to the baseline path (the
    /// records then describe the fallback execution). Set by
    /// `driver::batch`; ordinary runs leave it false.
    pub degraded: bool,
    /// Per-pass records, in execution order (repeated across iterations).
    pub passes: Vec<PassRecord>,
}

impl PipelineReport {
    /// Empty report with a label.
    pub fn new(label: impl Into<String>) -> PipelineReport {
        PipelineReport {
            label: label.into(),
            iterations: 1,
            degraded: false,
            passes: Vec::new(),
        }
    }

    /// Append a record.
    pub fn push(&mut self, rec: PassRecord) {
        self.passes.push(rec);
    }

    /// Total wall-clock time across all recorded passes, microseconds.
    pub fn total_us(&self) -> u64 {
        self.passes.iter().map(|p| p.wall_us).sum()
    }

    /// Names of passes that changed the IR (deduplicated, in order).
    pub fn changed_passes(&self) -> Vec<&str> {
        let mut out: Vec<&str> = Vec::new();
        for p in &self.passes {
            if p.changed && !out.contains(&p.pass.as_str()) {
                out.push(&p.pass);
            }
        }
        out
    }

    /// Time one arbitrary stage (not necessarily a registered pass) and
    /// record it. IR sizes are the caller's to supply via
    /// [`PipelineReport::push`] when known; stages recorded here carry 0/0.
    pub fn time_stage<T, E>(
        &mut self,
        name: &str,
        f: impl FnOnce() -> Result<T, E>,
    ) -> Result<T, E> {
        let start = std::time::Instant::now();
        let out = f()?;
        self.push(PassRecord {
            pass: name.to_string(),
            changed: true,
            wall_us: start.elapsed().as_micros() as u64,
            size_before: 0,
            size_after: 0,
            cached: false,
        });
        Ok(out)
    }

    /// Record a stage whose output came from the artifact cache: no work
    /// was done beyond loading it, which took `wall_us` microseconds.
    /// Cached stages report `changed: false` (they did not transform
    /// anything this run) and render with a `cache` marker.
    pub fn record_cached(&mut self, name: &str, wall_us: u64) {
        self.push(PassRecord {
            pass: name.to_string(),
            changed: false,
            wall_us,
            size_before: 0,
            size_after: 0,
            cached: true,
        });
    }

    /// How many recorded stages were served from the artifact cache.
    pub fn cached_stages(&self) -> usize {
        self.passes.iter().filter(|p| p.cached).count()
    }

    /// Merge another report's records under `prefix/`.
    pub fn extend_prefixed(&mut self, prefix: &str, other: &PipelineReport) {
        for p in &other.passes {
            self.passes.push(PassRecord {
                pass: format!("{prefix}/{}", p.pass),
                ..p.clone()
            });
        }
    }

    /// Render the aligned text table shown by the CLIs.
    pub fn render(&self) -> String {
        let mut out = format!(
            "=== pipeline '{}': {} pass(es), {} iteration(s), {} us total{}\n",
            self.label,
            self.passes.len(),
            self.iterations,
            self.total_us(),
            if self.degraded { " [degraded]" } else { "" }
        );
        let name_w = self
            .passes
            .iter()
            .map(|p| p.pass.len())
            .max()
            .unwrap_or(4)
            .max(4);
        out.push_str(&format!(
            "{:<name_w$}  {:>10}  {:>9}  {:>12}  {}\n",
            "pass", "wall (us)", "size", "delta", "changed"
        ));
        for p in &self.passes {
            let delta = p.size_delta();
            let size_col = if p.size_before == 0 && p.size_after == 0 {
                "-".to_string()
            } else {
                format!("{}->{}", p.size_before, p.size_after)
            };
            out.push_str(&format!(
                "{:<name_w$}  {:>10}  {:>9}  {:>12}  {}\n",
                p.pass,
                p.wall_us,
                size_col,
                if delta == 0 {
                    "0".to_string()
                } else {
                    format!("{delta:+}")
                },
                if p.cached {
                    "cache"
                } else if p.changed {
                    "yes"
                } else {
                    "-"
                }
            ));
        }
        out
    }

    /// Serialize to JSON (schema in EXPERIMENTS.md).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        out.push_str(&format!("\"label\":{},", json_str(&self.label)));
        out.push_str(&format!("\"iterations\":{},", self.iterations));
        out.push_str(&format!("\"degraded\":{},", self.degraded));
        out.push_str(&format!("\"total_us\":{},", self.total_us()));
        out.push_str("\"passes\":[");
        for (i, p) in self.passes.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"pass\":{},\"changed\":{},\"wall_us\":{},\"size_before\":{},\"size_after\":{},\"cached\":{}}}",
                json_str(&p.pass),
                p.changed,
                p.wall_us,
                p.size_before,
                p.size_after,
                p.cached
            ));
        }
        out.push_str("]}");
        out
    }

    /// Parse a report back out of its [`PipelineReport::to_json`] form
    /// (used by the batch run journal to replay completed kernels on
    /// `--resume`). The derived `total_us` field is ignored; missing
    /// optional fields (`degraded`, from pre-supervisor journals) default.
    pub fn parse_json(text: &str) -> Result<PipelineReport, String> {
        let v = crate::json::parse(text)?;
        PipelineReport::from_json_value(&v)
    }

    /// [`PipelineReport::parse_json`] over an already-parsed value.
    pub fn from_json_value(v: &crate::json::JsonValue) -> Result<PipelineReport, String> {
        let field_u64 = |v: &crate::json::JsonValue, k: &str| {
            v.get(k)
                .and_then(|x| x.as_u64())
                .ok_or_else(|| format!("report JSON: missing numeric field '{k}'"))
        };
        let mut report = PipelineReport::new(
            v.get("label")
                .and_then(|x| x.as_str())
                .ok_or("report JSON: missing 'label'")?,
        );
        report.iterations = field_u64(v, "iterations")? as usize;
        report.degraded = v.get("degraded").and_then(|x| x.as_bool()).unwrap_or(false);
        for p in v
            .get("passes")
            .and_then(|x| x.as_arr())
            .ok_or("report JSON: missing 'passes' array")?
        {
            report.push(PassRecord {
                pass: p
                    .get("pass")
                    .and_then(|x| x.as_str())
                    .ok_or("report JSON: pass record missing 'pass'")?
                    .to_string(),
                changed: p.get("changed").and_then(|x| x.as_bool()).unwrap_or(false),
                wall_us: field_u64(p, "wall_us")?,
                size_before: field_u64(p, "size_before")? as usize,
                size_after: field_u64(p, "size_after")? as usize,
                cached: p.get("cached").and_then(|x| x.as_bool()).unwrap_or(false),
            });
        }
        Ok(report)
    }
}

/// Escape a string for JSON.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> PipelineReport {
        let mut r = PipelineReport::new("demo");
        r.push(PassRecord {
            pass: "mem2reg".into(),
            changed: true,
            wall_us: 120,
            size_before: 40,
            size_after: 31,
            cached: false,
        });
        r.push(PassRecord {
            pass: "dce".into(),
            changed: false,
            wall_us: 15,
            size_before: 31,
            size_after: 31,
            cached: false,
        });
        r
    }

    #[test]
    fn totals_and_changed() {
        let r = sample();
        assert_eq!(r.total_us(), 135);
        assert_eq!(r.changed_passes(), vec!["mem2reg"]);
        assert_eq!(r.passes[0].size_delta(), -9);
    }

    #[test]
    fn render_contains_all_passes() {
        let text = sample().render();
        assert!(text.contains("pipeline 'demo'"));
        assert!(text.contains("mem2reg"));
        assert!(text.contains("40->31"));
        assert!(text.contains("-9"));
    }

    #[test]
    fn json_shape() {
        let j = sample().to_json();
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert!(j.contains("\"label\":\"demo\""));
        assert!(j.contains("\"pass\":\"mem2reg\""));
        assert!(j.contains("\"size_before\":40"));
        assert!(j.contains("\"total_us\":135"));
    }

    #[test]
    fn json_round_trips_through_parse_json() {
        let mut r = sample();
        r.iterations = 3;
        r.degraded = true;
        r.record_cached("csynth", 7);
        let back = PipelineReport::parse_json(&r.to_json()).unwrap();
        assert_eq!(back, r);
        // Pre-supervisor journals lack `degraded`: it defaults to false.
        let legacy = r.to_json().replace("\"degraded\":true,", "");
        let parsed = PipelineReport::parse_json(&legacy).unwrap();
        assert!(!parsed.degraded);
        assert!(PipelineReport::parse_json("{\"label\":1}").is_err());
    }

    #[test]
    fn degraded_flag_renders_and_serializes() {
        let mut r = sample();
        assert!(!r.render().contains("[degraded]"));
        assert!(r.to_json().contains("\"degraded\":false"));
        r.degraded = true;
        assert!(r.render().contains("[degraded]"));
        assert!(r.to_json().contains("\"degraded\":true"));
    }

    #[test]
    fn json_escaping() {
        assert_eq!(json_str("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
    }

    #[test]
    fn cached_stages_are_counted_and_marked() {
        let mut r = sample();
        r.record_cached("csynth", 7);
        assert_eq!(r.cached_stages(), 1);
        let cached = r.passes.last().unwrap();
        assert!(cached.cached && !cached.changed);
        assert_eq!(cached.wall_us, 7);
        // Cached stages never show up as IR-changing passes.
        assert_eq!(r.changed_passes(), vec!["mem2reg"]);
        assert!(r.render().contains("cache"));
        assert!(r
            .to_json()
            .contains("\"pass\":\"csynth\",\"changed\":false"));
        assert!(r.to_json().contains("\"cached\":true"));
    }
}
