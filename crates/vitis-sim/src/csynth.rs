//! The `csynth` driver: frontend acceptance, hierarchical latency rollup,
//! and report generation.

use std::collections::{HashMap, HashSet};

use llvm_lite::analysis::{counted_loop_tripcount, Cfg, DomTree, LoopInfo, NaturalLoop};
use llvm_lite::{BlockId, Function, InstData, Module, Type};

use pass_core::{Budget, BudgetError};

use crate::binder::{bram_banks, control_overhead, is_shared_unit, FuNeed};
use crate::memdep::{accesses_per_base, loop_accesses};
use crate::oplib::{op_spec, FuClass};
use crate::pipeline::{compute_ii_budgeted, IiBound};
use crate::report::{CsynthReport, LoopReport};
use crate::schedule::{schedule_block_budgeted, ScheduleCtx};
use crate::Target;

/// Synthesis failure.
#[derive(Debug, Clone, PartialEq)]
pub enum CsynthError {
    /// The frontend (modeling the frozen Vitis clang/LLVM) rejected the IR.
    Frontend(Vec<String>),
    /// The synthesis [`Budget`] (deadline or fuel) tripped mid-run.
    Budget(BudgetError),
    /// No top function found, or a structural problem.
    Other(String),
}

impl std::fmt::Display for CsynthError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CsynthError::Frontend(msgs) => {
                writeln!(f, "HLS frontend rejected the design:")?;
                for m in msgs {
                    writeln!(f, "  - {m}")?;
                }
                Ok(())
            }
            // Render the trip verbatim, in the stable budget grammar.
            CsynthError::Budget(e) => write!(f, "{e}"),
            CsynthError::Other(m) => write!(f, "csynth error: {m}"),
        }
    }
}

impl From<BudgetError> for CsynthError {
    fn from(e: BudgetError) -> CsynthError {
        CsynthError::Budget(e)
    }
}

impl std::error::Error for CsynthError {}

/// The frozen frontend's acceptance rules — written independently of the
/// adaptor's compat model (this is the tool the adaptor targets, not the
/// adaptor's own checklist).
pub fn frontend_check(m: &Module) -> Vec<String> {
    const INTRINSICS: &[&str] = &[
        "llvm.sqrt.f32",
        "llvm.sqrt.f64",
        "llvm.fabs.f32",
        "llvm.fabs.f64",
        "llvm.exp.f32",
        "llvm.exp.f64",
        "llvm.maxnum.f32",
        "llvm.maxnum.f64",
        "llvm.minnum.f32",
        "llvm.minnum.f64",
    ];
    let mut errs = Vec::new();
    for f in &m.functions {
        if f.is_declaration {
            continue;
        }
        for p in &f.params {
            if let Type::Ptr(pointee) = &p.ty {
                let shaped = matches!(**pointee, Type::Array(..));
                if !shaped && !p.attrs.contains_key("hls.interface") {
                    errs.push(format!(
                        "@{}: cannot infer a port for pointer parameter %{}",
                        f.name, p.name
                    ));
                }
            }
        }
        for (_, id) in f.inst_ids() {
            let inst = f.inst(id);
            if let InstData::Call { callee } = &inst.data {
                if callee == "malloc" || callee == "free" {
                    errs.push(format!("@{}: dynamic allocation (@{callee})", f.name));
                } else if callee.starts_with("llvm.") && !INTRINSICS.contains(&callee.as_str()) {
                    errs.push(format!("@{}: unsupported intrinsic @{callee}", f.name));
                }
            }
            if let Type::Int(w) = inst.ty {
                if w > 64 {
                    errs.push(format!("@{}: integer type i{w} too wide", f.name));
                }
            }
        }
    }
    errs
}

/// Synthesize the module's top function and produce a report.
pub fn csynth(m: &Module, target: &Target) -> Result<CsynthReport, CsynthError> {
    csynth_budgeted(m, target, &Budget::unlimited())
}

/// [`csynth`] under a [`Budget`]: fuel is charged per scheduled block (plus
/// per instruction inside [`schedule_block_budgeted`]) and per processed
/// loop, and the deadline is checked at the same points — a runaway
/// schedule or II search returns [`CsynthError::Budget`] instead of wedging
/// the calling worker.
pub fn csynth_budgeted(
    m: &Module,
    target: &Target,
    budget: &Budget,
) -> Result<CsynthReport, CsynthError> {
    let errs = frontend_check(m);
    if !errs.is_empty() {
        return Err(CsynthError::Frontend(errs));
    }
    let top = m
        .top_function()
        .ok_or_else(|| CsynthError::Other("module has no function definition".into()))?;
    synthesize_function(m, top, target, budget)
}

struct LoopResult {
    latency: u64,
    need: FuNeed,
}

fn synthesize_function(
    m: &Module,
    f: &Function,
    target: &Target,
    budget: &Budget,
) -> Result<CsynthReport, CsynthError> {
    let cfg = Cfg::build(f);
    let dom = DomTree::build(f, &cfg);
    let li = LoopInfo::build(f, &cfg, &dom);
    let cx = ScheduleCtx::from_function(f);

    // Block schedules (context-free; port conflicts within one block).
    let mut block_sched = HashMap::new();
    for &b in &f.block_order {
        budget.charge(1, "csynth/schedule")?;
        block_sched.insert(b, schedule_block_budgeted(m, f, target, b, &cx, budget)?);
    }

    // Process loops innermost-first (ascending body size).
    let mut order: Vec<&NaturalLoop> = li.loops.iter().collect();
    order.sort_by_key(|l| l.body.len());
    let mut results: HashMap<BlockId, LoopResult> = HashMap::new();
    let mut reports: Vec<LoopReport> = Vec::new();
    // Headers of loops absorbed into a flattened descendant pipeline.
    let mut absorbed: HashSet<BlockId> = HashSet::new();

    for l in order {
        budget.charge(1, "csynth/pipeline")?;
        let children: Vec<&NaturalLoop> = li
            .loops
            .iter()
            .filter(|c| c.parent == Some(l.header))
            .collect();
        let child_blocks: HashSet<BlockId> = li
            .loops
            .iter()
            .filter(|c| c.header != l.header && l.body.contains(&c.header))
            .flat_map(|c| c.body.iter().copied())
            .collect();
        let own_blocks: Vec<BlockId> = l
            .body
            .iter()
            .copied()
            .filter(|b| !child_blocks.contains(b))
            .collect();

        let md = l
            .latches
            .first()
            .and_then(|&lb| f.terminator(lb))
            .and_then(|t| f.inst(t).loop_md)
            .map(|id| m.loop_mds[id as usize].clone())
            .unwrap_or_default();
        let trip = md
            .tripcount
            .map(|(lo, hi)| (lo + hi) / 2)
            .or_else(|| counted_loop_tripcount(f, l));
        let trip_val = trip.unwrap_or(16).max(1);

        let unroll = if md.unroll_full {
            trip_val.min(u64::from(u32::MAX)) as u32
        } else {
            md.unroll_factor.unwrap_or(1).max(1)
        };
        let trip_eff = trip_val.div_ceil(u64::from(unroll));

        // Per-iteration latency: own blocks in sequence + child loops.
        let own_latency: u64 = own_blocks.iter().map(|b| block_sched[b].length).sum();
        let child_latency: u64 = children
            .iter()
            .map(|c| results.get(&c.header).map(|r| r.latency).unwrap_or(0))
            .sum();
        let per_iter = own_latency + child_latency;

        let is_innermost = children.is_empty();
        let pipelined = md.pipeline_ii.is_some() && is_innermost;

        // Loop flattening: a pipelined innermost loop marked `flatten`
        // absorbs every enclosing *perfect* loop level (single child, no
        // work besides header/preheader/latch), extending its effective
        // trip count and removing the per-level pipeline drain.
        let mut flat_factor = 1u64;
        if pipelined && md.flatten {
            let mut cur = l.parent;
            while let Some(ph) = cur {
                let parent = li.loop_with_header(ph).expect("parent exists");
                let siblings = li.loops.iter().filter(|c| c.parent == Some(ph)).count();
                let parent_child_blocks: HashSet<BlockId> = li
                    .loops
                    .iter()
                    .filter(|c| c.header != ph && parent.body.contains(&c.header))
                    .flat_map(|c| c.body.iter().copied())
                    .collect();
                let parent_own: u64 = parent
                    .body
                    .iter()
                    .filter(|b| !parent_child_blocks.contains(b))
                    .map(|b| block_sched[b].length)
                    .sum();
                let parent_trip = counted_loop_tripcount(f, parent);
                // Perfect level: exactly one child loop, negligible own work,
                // known trip count.
                let (Some(parent_trip), true, true) = (parent_trip, siblings == 1, parent_own <= 3)
                else {
                    break;
                };
                flat_factor *= parent_trip.max(1);
                absorbed.insert(ph);
                cur = parent.parent;
            }
        }

        let mut need = FuNeed::default();
        collect_fu(m, f, &own_blocks, &mut need, unroll, 1);
        for c in &children {
            if let Some(r) = results.get(&c.header) {
                need.max_with(&r.need);
            }
        }

        let (latency, ii_achieved, ii_bound) = if absorbed.contains(&l.header) {
            // This level was folded into a flattened descendant pipeline:
            // it contributes no iterations of its own.
            let latency = child_latency + own_latency.min(1) + 1;
            (
                latency,
                None,
                Some("flattened into inner pipeline".to_string()),
            )
        } else if pipelined {
            let r = compute_ii_budgeted(
                m,
                f,
                l,
                target,
                &cx,
                md.pipeline_ii.unwrap(),
                unroll,
                budget,
            )?;
            // Shared FUs at II: one instance serves II cycles.
            let mut piped = FuNeed::default();
            collect_fu(m, f, &own_blocks, &mut piped, unroll, r.ii);
            need = piped;
            let flat_trips = trip_eff.saturating_mul(flat_factor);
            let latency = per_iter + u64::from(r.ii) * flat_trips.saturating_sub(1) + 2;
            let bound = match &r.bound {
                IiBound::Recurrence(b) => Some(format!("carried dependence on {b}")),
                IiBound::MemoryPorts(b) => Some(format!("memory ports on {b}")),
                IiBound::Target => None,
            };
            (latency, Some(r.ii), bound)
        } else {
            // Sequential iterations; unrolling packs iterations against the
            // memory ports.
            let per_iter_u = if unroll > 1 {
                let accesses = loop_accesses(f, l);
                let worst = accesses_per_base(&accesses)
                    .iter()
                    .map(|(base, n)| (n * unroll).div_ceil(cx.ports_for(base, target).max(1)))
                    .max()
                    .unwrap_or(0);
                per_iter.max(u64::from(worst))
            } else {
                per_iter
            };
            (trip_eff * (per_iter_u + 1) + 1, None, None)
        };

        results.insert(
            l.header,
            LoopResult {
                latency,
                need: need.clone(),
            },
        );
        reports.push(LoopReport {
            name: f.block(l.header).name.clone(),
            depth: li.depth(l.header),
            trip_count: trip,
            pipelined,
            ii_target: md.pipeline_ii,
            ii_achieved,
            iteration_latency: per_iter,
            latency,
            ii_bound,
        });
    }

    // Function level: blocks outside all loops + top-level loops.
    let in_loop: HashSet<BlockId> = li
        .loops
        .iter()
        .flat_map(|l| l.body.iter().copied())
        .collect();
    let straightline: u64 = f
        .block_order
        .iter()
        .filter(|b| !in_loop.contains(b))
        .map(|b| block_sched[b].length)
        .sum();
    let top_loops: u64 = li
        .loops
        .iter()
        .filter(|l| l.parent.is_none())
        .map(|l| results[&l.header].latency)
        .sum();
    let latency = straightline + top_loops + 2;

    // Resources: shared FUs are temporally shared across sequential loops.
    let mut total_need = FuNeed::default();
    let outside: Vec<BlockId> = f
        .block_order
        .iter()
        .copied()
        .filter(|b| !in_loop.contains(b))
        .collect();
    collect_fu(m, f, &outside, &mut total_need, 1, 1);
    for l in li.loops.iter().filter(|l| l.parent.is_none()) {
        total_need.max_with(&results[&l.header].need);
    }
    let mut resources = total_need.area();
    resources.bram_18k = bram_banks(f);
    let overhead = control_overhead(li.loops.len());
    resources = resources.add(&overhead);

    // Order loop reports outermost-first, by position in layout.
    reports.sort_by_key(|r| {
        f.block_order
            .iter()
            .position(|&b| f.block(b).name == r.name)
            .unwrap_or(usize::MAX)
    });

    Ok(CsynthReport {
        top: f.name.clone(),
        clock_ns: target.clock_ns,
        latency,
        interval: latency + 1,
        loops: reports,
        resources,
    })
}

/// Accumulate FU requirements of a set of blocks: shared units count
/// `ceil(n * unroll / ii)` instances; logic sums its own area.
fn collect_fu(
    m: &Module,
    f: &Function,
    blocks: &[BlockId],
    need: &mut FuNeed,
    unroll: u32,
    ii: u32,
) {
    let mut counts: HashMap<FuClass, u32> = HashMap::new();
    let mut areas: HashMap<FuClass, crate::oplib::Area> = HashMap::new();
    for &b in blocks {
        for &id in &f.block(b).insts {
            let inst = f.inst(id);
            let spec = op_spec(m, f, inst);
            match spec.class {
                FuClass::Free | FuClass::MemRead | FuClass::MemWrite => {
                    need.logic_lut += u64::from(spec.area.lut) * u64::from(unroll);
                    need.logic_ff += u64::from(spec.area.ff) * u64::from(unroll);
                }
                FuClass::Logic => {
                    need.logic_lut += u64::from(spec.area.lut) * u64::from(unroll);
                    need.logic_ff += u64::from(spec.area.ff) * u64::from(unroll);
                }
                class if is_shared_unit(class) => {
                    *counts.entry(class).or_insert(0) += unroll;
                    let a = areas.entry(class).or_insert(spec.area);
                    if spec.area.lut > a.lut {
                        *a = spec.area;
                    }
                }
                _ => {}
            }
        }
    }
    for (class, n) in counts {
        let units = n.div_ceil(ii.max(1));
        need.require(class, units, areas[&class]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use llvm_lite::parser::parse_module;

    /// Pipelined elementwise scale over 32 floats.
    const SCALE: &str = r#"
define void @scale([32 x float]* "hls.interface"="ap_memory" %a) "hls.top"="1" {
entry:
  br label %header

header:
  %i = phi i64 [ 0, %entry ], [ %next, %body ]
  %c = icmp slt i64 %i, 32
  br i1 %c, label %body, label %exit

body:
  %p = getelementptr inbounds [32 x float], [32 x float]* %a, i64 0, i64 %i
  %v = load float, float* %p, align 4
  %w = fmul float %v, 0x4000000000000000
  store float %w, float* %p, align 4
  %next = add i64 %i, 1
  br label %header, !llvm.loop !0

exit:
  ret void
}

!0 = distinct !{!0, !1}
!1 = !{!"llvm.loop.pipeline.enable", i32 1}
"#;

    #[test]
    fn pipelined_scale_report() {
        let m = parse_module("m", SCALE).unwrap();
        let r = csynth(&m, &Target::default()).unwrap();
        assert_eq!(r.top, "scale");
        assert_eq!(r.loops.len(), 1);
        let l = &r.loops[0];
        assert!(l.pipelined);
        assert_eq!(l.ii_achieved, Some(1));
        assert_eq!(l.trip_count, Some(32));
        // Latency ≈ depth + II*(trip-1): tens of cycles, far below the
        // sequential 32 * ~8.
        assert!(r.latency < 64, "latency {}", r.latency);
        assert!(r.resources.bram_18k >= 1);
        assert!(r.resources.dsp >= 3); // one f32 multiplier
    }

    #[test]
    fn unpipelined_is_much_slower() {
        let src = SCALE.replace(", !llvm.loop !0", "");
        let m = parse_module("m", &src).unwrap();
        let r = csynth(&m, &Target::default()).unwrap();
        let piped = csynth(&parse_module("m", SCALE).unwrap(), &Target::default()).unwrap();
        assert!(
            r.latency > 3 * piped.latency,
            "sequential {} vs pipelined {}",
            r.latency,
            piped.latency
        );
        assert!(!r.loops[0].pipelined);
    }

    #[test]
    fn frontend_rejects_malloc() {
        let src = r#"
declare i8* @malloc(i64 %n)

define void @f() "hls.top"="1" {
entry:
  %p = call i8* @malloc(i64 16)
  ret void
}
"#;
        let m = parse_module("m", src).unwrap();
        match csynth(&m, &Target::default()) {
            Err(CsynthError::Frontend(errs)) => {
                assert!(errs.iter().any(|e| e.contains("malloc")));
            }
            other => panic!("expected frontend rejection, got {other:?}"),
        }
    }

    #[test]
    fn frontend_rejects_unannotated_flat_pointer() {
        let src = r#"
define void @f(float* %a) "hls.top"="1" {
entry:
  ret void
}
"#;
        let m = parse_module("m", src).unwrap();
        assert!(matches!(
            csynth(&m, &Target::default()),
            Err(CsynthError::Frontend(_))
        ));
    }

    #[test]
    fn fuel_budget_trips_synthesis_structurally() {
        let m = parse_module("m", SCALE).unwrap();
        // 1 fuel unit: the first block charge succeeds, the first
        // instruction charge inside scheduling trips.
        let budget = Budget::from_limits(None, Some(1));
        match csynth_budgeted(&m, &Target::default(), &budget) {
            Err(CsynthError::Budget(e)) => {
                assert_eq!(e.kind, pass_core::BudgetKind::Fuel);
                assert!(e.stage.starts_with("csynth/"), "{}", e.stage);
                // The error renders as the trip's own grammar.
                let rendered = CsynthError::Budget(e.clone()).to_string();
                assert_eq!(
                    rendered,
                    format!("fuel budget exceeded in {}: {}", e.stage, e.detail)
                );
            }
            other => panic!("expected budget trip, got {other:?}"),
        }
        // An unlimited budget reproduces the plain result exactly.
        let plain = csynth(&m, &Target::default()).unwrap();
        let unlimited = csynth_budgeted(&m, &Target::default(), &Budget::unlimited()).unwrap();
        assert_eq!(plain, unlimited);
    }

    #[test]
    fn huge_partition_factor_saturates_ports_instead_of_hanging() {
        // 2 ports x 2^31 banks overflows u32. Unless the port count
        // saturates, port arbitration searches forever for a free cycle
        // without charging fuel; the thread turns that into a failure.
        let src = SCALE.replace(
            "\"hls.interface\"=\"ap_memory\"",
            "\"hls.interface\"=\"ap_memory\" \"hls.array_partition\"=\"cyclic:2147483648\"",
        );
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let m = parse_module("m", &src).unwrap();
            let budget = Budget::from_limits(None, Some(1_000_000));
            let _ = tx.send(csynth_budgeted(&m, &Target::default(), &budget));
        });
        let huge = rx
            .recv_timeout(std::time::Duration::from_secs(60))
            .expect("csynth must finish (or trip its fuel) for a 2^31 partition factor")
            .unwrap();
        let complete = SCALE.replace(
            "\"hls.interface\"=\"ap_memory\"",
            "\"hls.interface\"=\"ap_memory\" \"hls.array_partition\"=\"complete\"",
        );
        let complete = csynth(&parse_module("m", &complete).unwrap(), &Target::default()).unwrap();
        assert_eq!(huge.latency, complete.latency);
    }

    #[test]
    fn deadline_budget_trips_synthesis() {
        let m = parse_module("m", SCALE).unwrap();
        let budget = Budget::from_limits(Some(0), None);
        std::thread::sleep(std::time::Duration::from_millis(2));
        match csynth_budgeted(&m, &Target::default(), &budget) {
            Err(CsynthError::Budget(e)) => assert_eq!(e.kind, pass_core::BudgetKind::Deadline),
            other => panic!("expected budget trip, got {other:?}"),
        }
    }

    #[test]
    fn report_renders() {
        let m = parse_module("m", SCALE).unwrap();
        let r = csynth(&m, &Target::default()).unwrap();
        let text = r.render();
        assert!(text.contains("scale"));
        assert!(text.contains("header"));
    }

    #[test]
    fn nested_loops_compose_latency() {
        let src = r#"
define void @f([64 x float]* "hls.interface"="ap_memory" %a) "hls.top"="1" {
entry:
  br label %oh

oh:
  %i = phi i64 [ 0, %entry ], [ %inext, %ol ]
  %oc = icmp slt i64 %i, 8
  br i1 %oc, label %ob, label %exit

ob:
  br label %ih

ih:
  %j = phi i64 [ 0, %ob ], [ %jnext, %ib ]
  %ic = icmp slt i64 %j, 8
  br i1 %ic, label %ib, label %ol

ib:
  %base = mul i64 %i, 8
  %lin = add i64 %base, %j
  %p = getelementptr inbounds [64 x float], [64 x float]* %a, i64 0, i64 %lin
  %v = load float, float* %p, align 4
  store float %v, float* %p, align 4
  %jnext = add i64 %j, 1
  br label %ih

ol:
  %inext = add i64 %i, 1
  br label %oh

exit:
  ret void
}
"#;
        let m = parse_module("m", src).unwrap();
        let r = csynth(&m, &Target::default()).unwrap();
        assert_eq!(r.loops.len(), 2);
        let outer = r.loops.iter().find(|l| l.name == "oh").unwrap();
        let inner = r.loops.iter().find(|l| l.name == "ih").unwrap();
        assert!(outer.latency > inner.latency);
        assert!(outer.latency >= 8 * inner.latency);
        assert_eq!(outer.depth, 1);
        assert_eq!(inner.depth, 2);
    }

    #[test]
    fn unroll_metadata_scales_latency_down() {
        let piped = SCALE.replace(
            "!1 = !{!\"llvm.loop.pipeline.enable\", i32 1}",
            "!1 = !{!\"llvm.loop.unroll.count\", i32 4}",
        );
        let m = parse_module("m", &piped).unwrap();
        let r = csynth(&m, &Target::default()).unwrap();
        let seq_src = SCALE.replace(", !llvm.loop !0", "");
        let seq = csynth(&parse_module("m", &seq_src).unwrap(), &Target::default()).unwrap();
        assert!(
            r.latency < seq.latency,
            "unrolled {} vs sequential {}",
            r.latency,
            seq.latency
        );
    }

    #[test]
    fn m_axi_design_is_slower_than_bram() {
        let flat = r#"
define void @scale(float* "hls.interface"="m_axi" %a) "hls.top"="1" {
entry:
  br label %header

header:
  %i = phi i64 [ 0, %entry ], [ %next, %body ]
  %c = icmp slt i64 %i, 32
  br i1 %c, label %body, label %exit

body:
  %p = getelementptr inbounds float, float* %a, i64 %i
  %v = load float, float* %p, align 4
  %w = fmul float %v, 0x4000000000000000
  store float %w, float* %p, align 4
  %next = add i64 %i, 1
  br label %header, !llvm.loop !0

exit:
  ret void
}

!0 = distinct !{!0, !1}
!1 = !{!"llvm.loop.pipeline.enable", i32 1}
"#;
        let bram = csynth(&parse_module("m", SCALE).unwrap(), &Target::default()).unwrap();
        let axi = csynth(&parse_module("m", flat).unwrap(), &Target::default()).unwrap();
        assert!(
            axi.latency > bram.latency,
            "axi {} vs bram {}",
            axi.latency,
            bram.latency
        );
        assert_eq!(axi.resources.bram_18k, 0);
    }
}
