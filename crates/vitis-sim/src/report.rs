//! `csynth`-style synthesis reports.

/// FPGA resource usage.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Resources {
    /// DSP slices.
    pub dsp: u32,
    /// Lookup tables.
    pub lut: u32,
    /// Flip-flops.
    pub ff: u32,
    /// BRAM-18K blocks.
    pub bram_18k: u32,
}

impl Resources {
    /// Component-wise sum.
    pub fn add(&self, other: &Resources) -> Resources {
        Resources {
            dsp: self.dsp + other.dsp,
            lut: self.lut + other.lut,
            ff: self.ff + other.ff,
            bram_18k: self.bram_18k + other.bram_18k,
        }
    }

    /// Component-wise maximum (for temporally exclusive regions).
    pub fn max(&self, other: &Resources) -> Resources {
        Resources {
            dsp: self.dsp.max(other.dsp),
            lut: self.lut.max(other.lut),
            ff: self.ff.max(other.ff),
            bram_18k: self.bram_18k.max(other.bram_18k),
        }
    }

    /// Scale functional resources by a replication factor (BRAM excluded —
    /// banks are counted separately).
    pub fn replicate(&self, n: u32) -> Resources {
        Resources {
            dsp: self.dsp * n,
            lut: self.lut * n,
            ff: self.ff * n,
            bram_18k: self.bram_18k,
        }
    }
}

/// Per-loop synthesis results, matching the loop table of a csynth report.
#[derive(Clone, Debug, PartialEq)]
pub struct LoopReport {
    /// Loop label (derived from the header block name).
    pub name: String,
    /// Nesting depth (1 = outermost).
    pub depth: usize,
    /// Trip count, if known.
    pub trip_count: Option<u64>,
    /// Whether the loop was pipelined.
    pub pipelined: bool,
    /// Requested initiation interval (from the directive), if any.
    pub ii_target: Option<u32>,
    /// Achieved initiation interval (pipelined loops only).
    pub ii_achieved: Option<u32>,
    /// Iteration latency (depth of one iteration in cycles).
    pub iteration_latency: u64,
    /// Total loop latency in cycles.
    pub latency: u64,
    /// Limiting factor for the achieved II.
    pub ii_bound: Option<String>,
}

/// The top-level synthesis report.
#[derive(Clone, Debug, PartialEq)]
pub struct CsynthReport {
    /// Top function name.
    pub top: String,
    /// Clock period used, ns.
    pub clock_ns: f64,
    /// Total latency (cycles) of one invocation.
    pub latency: u64,
    /// Initiation interval of the top function.
    pub interval: u64,
    /// Per-loop breakdown, outermost first.
    pub loops: Vec<LoopReport>,
    /// Estimated resource usage.
    pub resources: Resources,
}

impl CsynthReport {
    /// Latency in microseconds at the configured clock.
    pub fn latency_us(&self) -> f64 {
        self.latency as f64 * self.clock_ns / 1000.0
    }

    /// Render as a Vitis-flavoured text table.
    pub fn render(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!(
            "== Performance Estimates ({} @ {:.1} ns)\n",
            self.top, self.clock_ns
        ));
        s.push_str(&format!(
            "   Latency: {} cycles ({:.2} us)   Interval: {} cycles\n",
            self.latency,
            self.latency_us(),
            self.interval
        ));
        s.push_str("   Loop           Trip    II(tgt)  II(ach)  IterLat  Latency\n");
        for l in &self.loops {
            s.push_str(&format!(
                "   {:<14} {:>5}  {:>7}  {:>7}  {:>7}  {:>7}\n",
                format!("{}{}", "  ".repeat(l.depth.saturating_sub(1)), l.name),
                l.trip_count.map(|t| t.to_string()).unwrap_or("?".into()),
                l.ii_target.map(|t| t.to_string()).unwrap_or("-".into()),
                l.ii_achieved.map(|t| t.to_string()).unwrap_or("-".into()),
                l.iteration_latency,
                l.latency
            ));
        }
        s.push_str("== Utilization Estimates\n");
        s.push_str(&format!(
            "   BRAM_18K: {}   DSP: {}   FF: {}   LUT: {}\n",
            self.resources.bram_18k, self.resources.dsp, self.resources.ff, self.resources.lut
        ));
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo() -> CsynthReport {
        CsynthReport {
            top: "gemm".into(),
            clock_ns: 10.0,
            latency: 4242,
            interval: 4243,
            loops: vec![LoopReport {
                name: "loop_i".into(),
                depth: 1,
                trip_count: Some(32),
                pipelined: true,
                ii_target: Some(1),
                ii_achieved: Some(2),
                iteration_latency: 9,
                latency: 71,
                ii_bound: Some("memory ports on %a".into()),
            }],
            resources: Resources {
                dsp: 5,
                lut: 1200,
                ff: 900,
                bram_18k: 3,
            },
        }
    }

    #[test]
    fn latency_us_uses_clock() {
        let r = demo();
        assert!((r.latency_us() - 42.42).abs() < 1e-9);
    }

    #[test]
    fn render_contains_all_fields() {
        let text = demo().render();
        assert!(text.contains("gemm"));
        assert!(text.contains("4242"));
        assert!(text.contains("loop_i"));
        assert!(text.contains("DSP: 5"));
        assert!(text.contains("BRAM_18K: 3"));
    }

    #[test]
    fn resources_algebra() {
        let a = Resources {
            dsp: 1,
            lut: 10,
            ff: 5,
            bram_18k: 2,
        };
        let b = Resources {
            dsp: 3,
            lut: 4,
            ff: 9,
            bram_18k: 1,
        };
        assert_eq!(
            a.add(&b),
            Resources {
                dsp: 4,
                lut: 14,
                ff: 14,
                bram_18k: 3
            }
        );
        assert_eq!(
            a.max(&b),
            Resources {
                dsp: 3,
                lut: 10,
                ff: 9,
                bram_18k: 2
            }
        );
        assert_eq!(a.replicate(3).dsp, 3);
        assert_eq!(a.replicate(3).bram_18k, 2);
    }

    #[test]
    fn clone_and_eq() {
        let r = demo();
        let r2 = r.clone();
        assert_eq!(r, r2);
    }
}
