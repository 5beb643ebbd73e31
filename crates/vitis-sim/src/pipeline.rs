//! Loop pipelining: the initiation-interval model.
//!
//! For a pipelined loop, the achieved II is
//!
//! ```text
//! II = max(RecMII, ResMII, II_target)
//! ```
//!
//! * **RecMII** comes from loop-carried memory recurrences: for every
//!   (store, load) pair on the same base object with carried distance `d`,
//!   the candidate is `ceil(cycle_latency / d)`, where `cycle_latency` is
//!   the registered latency around the dependence cycle (load → compute →
//!   store). Unknown distances are treated as `d = 1` — this is where flat
//!   pointer arithmetic pays its price.
//! * **ResMII** comes from memory-port pressure: `ceil(accesses / ports)`
//!   per BRAM bank, and `ceil(accesses / axi_ports)` for the shared bus.

use std::collections::HashMap;

use llvm_lite::analysis::{LoopInfo, NaturalLoop};
use llvm_lite::printer::NameMap;
use llvm_lite::{Function, InstId, Module, Opcode, Value};
use pass_core::{Budget, BudgetError, Diagnostic};

use analysis::depend::{self, CarriedDistance};

use crate::memdep::{
    accesses_per_base, dependence_distance, loop_accesses, Access, BaseObject, Distance,
};
use crate::oplib::op_spec;
use crate::schedule::ScheduleCtx;
use crate::Target;

/// Why the achieved II ended up where it did.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum IiBound {
    /// Limited by a carried dependence on the named base.
    Recurrence(String),
    /// Limited by memory ports on the named base.
    MemoryPorts(String),
    /// Met the requested target.
    Target,
}

/// Result of the II computation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct IiResult {
    /// Achieved initiation interval.
    pub ii: u32,
    /// The binding constraint.
    pub bound: IiBound,
    /// The recurrence-implied minimum.
    pub rec_mii: u32,
    /// The resource-implied minimum.
    pub res_mii: u32,
}

/// Compute the II of a pipelined loop, given the unroll replication factor
/// applied to its body (1 = no unroll) and the function's loop forest.
/// The store×access dependence-pair scan (the quadratic part of RecMII)
/// charges one fuel unit per store of `budget`, so huge access sets trip
/// cooperatively.
#[allow(clippy::too_many_arguments)]
pub fn compute_ii_budgeted(
    m: &Module,
    f: &Function,
    li: &LoopInfo,
    l: &NaturalLoop,
    target: &Target,
    cx: &ScheduleCtx,
    requested: u32,
    unroll: u32,
    budget: &Budget,
) -> Result<IiResult, BudgetError> {
    let accesses = loop_accesses(f, l);

    // ResMII: port pressure per base (unroll replicates accesses).
    let mut res_mii = 1u32;
    let mut res_base = None;
    for (base, count) in accesses_per_base(&accesses) {
        let ports = if cx.m_axi_bases.contains(&base) {
            target.axi_ports
        } else {
            cx.ports_for(&base, target)
        };
        let need = (count * unroll).div_ceil(ports.max(1));
        if need > res_mii {
            res_mii = need;
            res_base = Some(base);
        }
    }

    let rec = binding_recurrence(m, f, li, l, &accesses, target, cx, budget)?;
    let rec_mii = rec.as_ref().map_or(1, |r| r.mii);

    let floor = rec_mii.max(res_mii);
    let ii = floor.max(requested.max(1));
    // The binding base is named once, as the printed module names it.
    let bound = if floor <= requested.max(1) {
        IiBound::Target
    } else if rec_mii >= res_mii {
        IiBound::Recurrence(rec.map_or_else(String::new, |r| describe_base(f, &r.store.base)))
    } else {
        IiBound::MemoryPorts(res_base.map_or_else(String::new, |b| describe_base(f, &b)))
    };
    Ok(IiResult {
        ii,
        bound,
        rec_mii,
        res_mii,
    })
}

/// The dependence cycle that sets a loop's RecMII.
struct Recurrence<'a> {
    /// `ceil(latency / distance)`, the RecMII it implies.
    mii: u32,
    /// The store that closes the cycle.
    store: &'a Access,
    /// The access it feeds across iterations.
    other: &'a Access,
    /// Their carried distance.
    distance: Distance,
    /// Registered cycles around the cycle.
    latency: u32,
}

/// The binding recurrence of loop `l`: the first (store, access) pair of
/// `accesses`, in access order, with the largest `ceil(latency /
/// distance)`; `None` when no pair is carried. Carried dependences come
/// from the whole-nest distance vectors where both accesses are affine,
/// from the pairwise analysis elsewhere. Each store charges one fuel unit.
/// csynth's II and the II explainer both read it, so they cannot disagree.
#[allow(clippy::too_many_arguments)]
fn binding_recurrence<'a>(
    m: &Module,
    f: &Function,
    li: &LoopInfo,
    l: &NaturalLoop,
    accesses: &'a [Access],
    target: &Target,
    cx: &ScheduleCtx,
    budget: &Budget,
) -> Result<Option<Recurrence<'a>>, BudgetError> {
    let nf = nest_facts(f, li, l);
    let mut worst: Option<Recurrence<'a>> = None;
    for store in accesses.iter().filter(|a| a.is_store) {
        budget.charge(1, "csynth/ii")?;
        for other in accesses {
            if other.inst == store.inst {
                continue;
            }
            let distance = refined_distance(nf.as_ref(), store, other)
                .unwrap_or_else(|| dependence_distance(store, other));
            let d = match distance {
                Distance::None => continue,
                Distance::Exact(d) => d.max(1),
                Distance::Unknown => 1,
            };
            let latency = recurrence_latency(m, f, store, other, target, cx);
            let mii = latency.div_ceil(d);
            if worst.as_ref().is_none_or(|w| mii > w.mii) {
                worst = Some(Recurrence {
                    mii,
                    store,
                    other,
                    distance,
                    latency,
                });
            }
        }
    }
    Ok(worst)
}

/// Whole-nest dependence facts for one pipelined loop: the multi-IV
/// distance vectors from `analysis::depend`, projected onto the innermost
/// level. Refines the pairwise single-IV analysis — e.g. a store that only
/// moves with an *outer* IV is no longer a blanket distance-1 recurrence.
struct NestFacts {
    nest: depend::LoopNest,
    deps: Vec<depend::Dependence>,
    level: usize,
    idx: HashMap<usize, usize>,
}

fn nest_facts(f: &Function, li: &LoopInfo, l: &NaturalLoop) -> Option<NestFacts> {
    let nest = depend::nest_of_innermost(f, li, l)?;
    let deps = nest.dependences();
    let idx = nest
        .accesses
        .iter()
        .enumerate()
        .map(|(i, a)| (a.id, i))
        .collect();
    Some(NestFacts {
        level: nest.innermost_level(),
        deps,
        idx,
        nest,
    })
}

/// The carried distance of the (store, other) pair at the pipelined level,
/// per the nest analysis. `None` = the pair is outside the nest engine's
/// precision; fall back to the pairwise [`dependence_distance`].
fn refined_distance(nf: Option<&NestFacts>, st: &Access, other: &Access) -> Option<Distance> {
    let nf = nf?;
    let &ai = nf.idx.get(&(st.inst as usize))?;
    let &bi = nf.idx.get(&(other.inst as usize))?;
    let (a, b) = (&nf.nest.accesses[ai], &nf.nest.accesses[bi]);
    if a.base.is_none() || b.base.is_none() || a.subs.is_none() || b.subs.is_none() {
        return None;
    }
    let mut exact: Option<u64> = None;
    let mut may = false;
    for d in &nf.deps {
        if !(d.src == ai && d.dst == bi || d.src == bi && d.dst == ai) {
            continue;
        }
        match nf.nest.carried_distance_at(d, nf.level) {
            CarriedDistance::NotCarried => {}
            CarriedDistance::Exact(x) => exact = Some(exact.map_or(x, |e| e.min(x))),
            CarriedDistance::AtLeastOne => may = true,
        }
    }
    Some(if may {
        Distance::Unknown // assume distance 1, the tightest recurrence
    } else {
        match exact {
            Some(d) => Distance::Exact(u32::try_from(d).unwrap_or(u32::MAX)),
            None => Distance::None,
        }
    })
}

/// Pass name of the II-blocker explainer notes.
pub const II_BLOCKER_PASS: &str = "ii-blocker";

/// Explain why pipelined loops in `f` cannot reach II = 1: for every
/// innermost loop whose RecMII exceeds 1, emit a note naming the exact
/// loop-carried dependence cycle (store → load, base object, carried
/// distance, registered cycle latency) and — when the distance is only
/// assumed — the aliasing assumption behind it. These are `note`-severity
/// diagnostics: a recurrence is a fact about the kernel, not a defect, but
/// it is the single most common "why is my II not 1?" question.
pub fn explain_ii_blockers(m: &Module, f: &Function, target: &Target) -> Vec<Diagnostic> {
    let cfg = llvm_lite::analysis::Cfg::build(f);
    let dom = llvm_lite::analysis::DomTree::build(f, &cfg);
    let loops = LoopInfo::build(f, &cfg, &dom);
    let cx = ScheduleCtx::from_function(f);
    let inst_ref = |id: InstId| {
        let n = &f.inst(id).name;
        if n.is_empty() {
            format!("%{id}")
        } else {
            format!("%{n}")
        }
    };
    let unlimited = Budget::unlimited();
    let mut out = Vec::new();
    for l in loops.innermost_loops() {
        let accesses = loop_accesses(f, l);
        let Some(rec) = binding_recurrence(m, f, &loops, l, &accesses, target, &cx, &unlimited)
            .expect("unlimited budget cannot trip")
            .filter(|r| r.mii > 1)
        else {
            continue;
        };
        let base = describe_base(f, &rec.store.base);
        let reader = if rec.other.is_store {
            format!("store {}", inst_ref(rec.other.inst))
        } else {
            format!("load {}", inst_ref(rec.other.inst))
        };
        let distance = match rec.distance {
            Distance::Exact(d) => format!("carried distance {d}"),
            _ => "unprovable carried distance (opaque address arithmetic: \
                 distance 1 is assumed)"
                .to_string(),
        };
        out.push(
            Diagnostic::note(
                II_BLOCKER_PASS,
                format!(
                    "RecMII = {} on {base}: store {} feeds {reader} across \
                     iterations at {distance}, and the load -> compute -> store \
                     cycle takes {} registered cycles",
                    rec.mii,
                    inst_ref(rec.store.inst),
                    rec.latency
                ),
            )
            .with_loc(
                pass_core::Loc::function(&f.name)
                    .in_block(&f.block(l.header).name)
                    .at_inst(inst_ref(rec.store.inst)),
            ),
        );
    }
    out
}

/// A base object as the printed module spells it. An alloca's name hint
/// need not be unique (lowering calls every `memref.alloca` `buf`), so it
/// is named by the printer's [`NameMap`]: the module the flow built and
/// its re-parse name it alike.
fn describe_base(f: &Function, base: &BaseObject) -> String {
    match base {
        BaseObject::Param(i) => format!("%{}", f.params[*i as usize].name),
        BaseObject::Alloca(id) => format!("%{}", NameMap::build(f).inst(*id)),
        BaseObject::Global(g) => format!("@{g}"),
        BaseObject::Unknown => "<unknown>".to_string(),
    }
}

/// Registered latency around the dependence cycle `other(load) → … →
/// st(store)`: load latency + the longest SSA path from the load's result
/// to the store's value operand + the store's own cycle.
fn recurrence_latency(
    m: &Module,
    f: &Function,
    st: &Access,
    other: &Access,
    target: &Target,
    cx: &ScheduleCtx,
) -> u32 {
    let axi_extra = if cx.m_axi_bases.contains(&other.base) {
        target.axi_extra_latency
    } else {
        0
    };
    let load_lat = if other.is_store {
        1 // store→store WAW recurrence: one cycle
    } else {
        op_spec(m, f, f.inst(other.inst)).latency + axi_extra
    };
    let mut memo: HashMap<InstId, Option<u32>> = HashMap::new();
    let path = path_latency(m, f, &f.inst(st.inst).operands[0], other.inst, &mut memo).unwrap_or(0);
    // +1 for the store commit cycle.
    (load_lat + path + 1).max(1)
}

/// Longest registered-latency SSA path from `target_load`'s result to `v`
/// (inclusive of intermediate op latencies; combinational ops count 0 but
/// at least the whole path costs what its multi-cycle ops cost).
fn path_latency(
    m: &Module,
    f: &Function,
    v: &Value,
    target_load: InstId,
    memo: &mut HashMap<InstId, Option<u32>>,
) -> Option<u32> {
    let id = v.as_inst()?;
    if id == target_load {
        return Some(0);
    }
    if let Some(cached) = memo.get(&id) {
        return *cached;
    }
    memo.insert(id, None); // cycle guard
    let inst = f.inst(id);
    if inst.opcode == Opcode::Phi {
        memo.insert(id, None);
        return None;
    }
    let mut best: Option<u32> = None;
    for op in &inst.operands {
        if let Some(sub) = path_latency(m, f, op, target_load, memo) {
            let here = sub + op_spec(m, f, inst).latency;
            best = Some(best.map_or(here, |b| b.max(here)));
        }
    }
    memo.insert(id, best);
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use llvm_lite::analysis::{Cfg, DomTree};
    use llvm_lite::parser::parse_module;

    /// The II of `m`'s first innermost loop.
    fn ii_in(m: &Module, requested: u32, unroll: u32) -> IiResult {
        let f = &m.functions[0];
        let cfg = Cfg::build(f);
        let dom = DomTree::build(f, &cfg);
        let li = LoopInfo::build(f, &cfg, &dom);
        let l = li.innermost_loops()[0];
        let cx = ScheduleCtx::from_function(f);
        let unlimited = Budget::unlimited();
        compute_ii_budgeted(
            m,
            f,
            &li,
            l,
            &Target::default(),
            &cx,
            requested,
            unroll,
            &unlimited,
        )
        .unwrap()
    }

    fn ii_of(src: &str, requested: u32) -> IiResult {
        ii_in(&parse_module("m", src).unwrap(), requested, 1)
    }

    const ELEMENTWISE: &str = r#"
define void @f([32 x float]* %a, [32 x float]* %b) {
entry:
  br label %header

header:
  %i = phi i64 [ 0, %entry ], [ %next, %body ]
  %c = icmp slt i64 %i, 32
  br i1 %c, label %body, label %exit

body:
  %p = getelementptr inbounds [32 x float], [32 x float]* %a, i64 0, i64 %i
  %v = load float, float* %p, align 4
  %w = fmul float %v, %v
  %q = getelementptr inbounds [32 x float], [32 x float]* %b, i64 0, i64 %i
  store float %w, float* %q, align 4
  %next = add i64 %i, 1
  br label %header

exit:
  ret void
}
"#;

    #[test]
    fn elementwise_achieves_ii_one() {
        let r = ii_of(ELEMENTWISE, 1);
        assert_eq!(r.ii, 1);
        assert_eq!(r.rec_mii, 1);
        assert_eq!(r.res_mii, 1);
        assert_eq!(r.bound, IiBound::Target);
    }

    /// Accumulation into an IV-invariant address — the gemm inner loop.
    const ACCUM: &str = r#"
define void @f([32 x float]* %a, [1 x float]* %acc) {
entry:
  br label %header

header:
  %i = phi i64 [ 0, %entry ], [ %next, %body ]
  %c = icmp slt i64 %i, 32
  br i1 %c, label %body, label %exit

body:
  %p = getelementptr inbounds [32 x float], [32 x float]* %a, i64 0, i64 %i
  %v = load float, float* %p, align 4
  %q = getelementptr inbounds [1 x float], [1 x float]* %acc, i64 0, i64 0
  %s = load float, float* %q, align 4
  %t = fadd float %s, %v
  store float %t, float* %q, align 4
  %next = add i64 %i, 1
  br label %header

exit:
  ret void
}
"#;

    #[test]
    fn accumulation_is_recurrence_bound() {
        let r = ii_of(ACCUM, 1);
        // load (2) + fadd (4) + store (1) = 7 around the cycle.
        assert_eq!(r.rec_mii, 7);
        assert_eq!(r.ii, 7);
        assert!(matches!(r.bound, IiBound::Recurrence(ref b) if b == "%acc"));
    }

    #[test]
    fn requested_ii_is_a_floor() {
        let r = ii_of(ELEMENTWISE, 4);
        assert_eq!(r.ii, 4);
        assert_eq!(r.bound, IiBound::Target);
    }

    /// Three reads of one array per iteration exceed two BRAM ports.
    const PORT_BOUND: &str = r#"
define void @f([34 x float]* %a, [34 x float]* %b) {
entry:
  br label %header

header:
  %i = phi i64 [ 1, %entry ], [ %next, %body ]
  %c = icmp slt i64 %i, 33
  br i1 %c, label %body, label %exit

body:
  %im1 = add i64 %i, -1
  %ip1 = add i64 %i, 1
  %p0 = getelementptr inbounds [34 x float], [34 x float]* %a, i64 0, i64 %im1
  %p1 = getelementptr inbounds [34 x float], [34 x float]* %a, i64 0, i64 %i
  %p2 = getelementptr inbounds [34 x float], [34 x float]* %a, i64 0, i64 %ip1
  %v0 = load float, float* %p0, align 4
  %v1 = load float, float* %p1, align 4
  %v2 = load float, float* %p2, align 4
  %s0 = fadd float %v0, %v1
  %s1 = fadd float %s0, %v2
  %q = getelementptr inbounds [34 x float], [34 x float]* %b, i64 0, i64 %i
  store float %s1, float* %q, align 4
  %next = add i64 %i, 1
  br label %header

exit:
  ret void
}
"#;

    #[test]
    fn stencil_is_port_bound() {
        let r = ii_of(PORT_BOUND, 1);
        assert_eq!(r.res_mii, 2); // ceil(3 reads / 2 ports)
        assert_eq!(r.ii, 2);
        assert!(matches!(r.bound, IiBound::MemoryPorts(ref b) if b == "%a"));
    }

    /// Two arrays each need two port cycles: `%b`, the first accessed,
    /// names the bound, although `%a` comes first in the parameter list.
    const TIED_PORTS: &str = r#"
define void @f([34 x float]* %a, [34 x float]* %b, [34 x float]* %c) {
entry:
  br label %header

header:
  %i = phi i64 [ 1, %entry ], [ %next, %body ]
  %cond = icmp slt i64 %i, 33
  br i1 %cond, label %body, label %exit

body:
  %im1 = add i64 %i, -1
  %ip1 = add i64 %i, 1
  %b0 = getelementptr inbounds [34 x float], [34 x float]* %b, i64 0, i64 %im1
  %b1 = getelementptr inbounds [34 x float], [34 x float]* %b, i64 0, i64 %i
  %b2 = getelementptr inbounds [34 x float], [34 x float]* %b, i64 0, i64 %ip1
  %u0 = load float, float* %b0, align 4
  %u1 = load float, float* %b1, align 4
  %u2 = load float, float* %b2, align 4
  %a0 = getelementptr inbounds [34 x float], [34 x float]* %a, i64 0, i64 %im1
  %a1 = getelementptr inbounds [34 x float], [34 x float]* %a, i64 0, i64 %i
  %a2 = getelementptr inbounds [34 x float], [34 x float]* %a, i64 0, i64 %ip1
  %v0 = load float, float* %a0, align 4
  %v1 = load float, float* %a1, align 4
  %v2 = load float, float* %a2, align 4
  %s0 = fadd float %u0, %u1
  %s1 = fadd float %s0, %u2
  %s2 = fadd float %s1, %v0
  %s3 = fadd float %s2, %v1
  %s4 = fadd float %s3, %v2
  %q = getelementptr inbounds [34 x float], [34 x float]* %c, i64 0, i64 %i
  store float %s4, float* %q, align 4
  %next = add i64 %i, 1
  br label %header

exit:
  ret void
}
"#;

    /// `%buf1`, the second alloca, needs two port cycles.
    const SECOND_ALLOCA_BOUND: &str = r#"
define void @f([32 x float]* %out) {
entry:
  %buf = alloca [34 x float], align 4
  %buf1 = alloca [34 x float], align 4
  br label %header

header:
  %i = phi i64 [ 1, %entry ], [ %next, %body ]
  %cond = icmp slt i64 %i, 33
  br i1 %cond, label %body, label %exit

body:
  %im1 = add i64 %i, -1
  %ip1 = add i64 %i, 1
  %a = getelementptr inbounds [34 x float], [34 x float]* %buf, i64 0, i64 %i
  %b0 = getelementptr inbounds [34 x float], [34 x float]* %buf1, i64 0, i64 %im1
  %b1 = getelementptr inbounds [34 x float], [34 x float]* %buf1, i64 0, i64 %i
  %b2 = getelementptr inbounds [34 x float], [34 x float]* %buf1, i64 0, i64 %ip1
  %v = load float, float* %a, align 4
  %u0 = load float, float* %b0, align 4
  %u1 = load float, float* %b1, align 4
  %u2 = load float, float* %b2, align 4
  %s0 = fadd float %v, %u0
  %s1 = fadd float %s0, %u1
  %s2 = fadd float %s1, %u2
  %q = getelementptr inbounds [32 x float], [32 x float]* %out, i64 0, i64 %i
  store float %s2, float* %q, align 4
  %next = add i64 %i, 1
  br label %header

exit:
  ret void
}
"#;

    #[test]
    fn alloca_bounds_are_named_as_the_module_prints() {
        let mut m = parse_module("m", SECOND_ALLOCA_BOUND).unwrap();
        let second = m.functions[0].inst_ids()[1].1;
        let bound = |m: &Module| ii_in(m, 1, 1).bound;
        assert_eq!(bound(&m), IiBound::MemoryPorts("%buf1".into()));
        // A repeated hint prints with a suffix, as lowering leaves every
        // alloca `buf`; a missing one prints as the next `%tN`.
        for (hint, printed) in [("buf", "%buf1"), ("", "%t0")] {
            m.functions[0].inst_mut(second).name = hint.into();
            let text = llvm_lite::printer::print_module(&m);
            assert!(text.contains(&format!("{printed} = alloca")), "{text}");
            assert_eq!(
                bound(&m),
                IiBound::MemoryPorts(printed.into()),
                "hint {hint:?}"
            );
        }
    }

    #[test]
    fn tied_port_bounds_name_the_first_accessed_array() {
        // Each map gets its own hash keys, so repeated runs in one process
        // would see a hash-ordered tie-break go both ways.
        for _ in 0..32 {
            let r = ii_of(TIED_PORTS, 1);
            assert_eq!((r.res_mii, r.rec_mii, r.ii), (2, 1, 2));
            assert_eq!(r.bound, IiBound::MemoryPorts("%b".into()));
        }
    }

    #[test]
    fn unroll_multiplies_port_pressure() {
        let r = ii_in(&parse_module("m", PORT_BOUND).unwrap(), 1, 4);
        assert_eq!(r.res_mii, 6); // ceil(12 / 2)
    }

    #[test]
    fn multi_iv_flat_subscripts_are_refined_by_the_nest_engine() {
        // Store to A[16*i + j] and load from A[j + 16*i]: the same address
        // spelled as two different SSA expressions, as memref lowering
        // produces. The single-IV pairwise analysis sees both subscripts as
        // Complex (mixing two IVs) and assumes carried distance 1; the nest
        // engine proves the only in-bounds solution of 16*di + dj = 0 is
        // (0, 0), so the dependence is intra-iteration and II = 1 holds.
        let src = r#"
define void @f([256 x float]* %a) {
entry:
  br label %oheader

oheader:
  %i = phi i64 [ 0, %entry ], [ %inext, %olatch ]
  %oc = icmp slt i64 %i, 16
  br i1 %oc, label %iheader, label %exit

iheader:
  %j = phi i64 [ 0, %oheader ], [ %jnext, %body ]
  %ic = icmp slt i64 %j, 16
  br i1 %ic, label %body, label %olatch

body:
  %m = mul i64 %i, 16
  %s1 = add i64 %m, %j
  %s2 = add i64 %j, %m
  %q = getelementptr inbounds [256 x float], [256 x float]* %a, i64 0, i64 %s2
  %v = load float, float* %q, align 4
  %w = fmul float %v, %v
  %p = getelementptr inbounds [256 x float], [256 x float]* %a, i64 0, i64 %s1
  store float %w, float* %p, align 4
  %jnext = add i64 %j, 1
  br label %iheader

olatch:
  %inext = add i64 %i, 1
  br label %oheader

exit:
  ret void
}
"#;
        let m = parse_module("m", src).unwrap();
        let f = &m.functions[0];
        let cfg = Cfg::build(f);
        let dom = DomTree::build(f, &cfg);
        let li = LoopInfo::build(f, &cfg, &dom);
        let inner = li.innermost_loops()[0];
        let acc = loop_accesses(f, inner);
        let (stores, others): (Vec<_>, Vec<_>) = acc.iter().partition(|a| a.is_store);
        // The pairwise analysis alone is pessimistic on this pair.
        assert_eq!(dependence_distance(stores[0], others[0]), Distance::Unknown);
        let r = ii_of(src, 1);
        assert_eq!(r.rec_mii, 1, "nest engine should prove independence");
        assert_eq!(r.ii, 1);
    }

    #[test]
    fn opaque_shifted_flat_pointers_are_conservative() {
        // Store address = load address + unknown stride: the analyzer
        // cannot bound the distance, so the full recurrence (including bus
        // latency) is assumed.
        let src = r#"
define void @f(float* "hls.interface"="m_axi" %a, i64 %stride) {
entry:
  br label %header

header:
  %i = phi i64 [ 0, %entry ], [ %next, %body ]
  %c = icmp slt i64 %i, 32
  br i1 %c, label %body, label %exit

body:
  %off = mul i64 %i, %stride
  %p = getelementptr inbounds float, float* %a, i64 %off
  %v = load float, float* %p, align 4
  %w = fmul float %v, %v
  %off2 = add i64 %off, %stride
  %q = getelementptr inbounds float, float* %a, i64 %off2
  store float %w, float* %q, align 4
  %next = add i64 %i, 1
  br label %header

exit:
  ret void
}
"#;
        let r = ii_of(src, 1);
        // load (2 + 6 axi) + fmul (3) + 1 = 12 around the cycle.
        assert!(r.ii >= 10, "expected conservative II, got {}", r.ii);
        assert!(matches!(r.bound, IiBound::Recurrence(_)));
    }

    #[test]
    fn accumulation_blocker_is_explained() {
        let m = parse_module("m", ACCUM).unwrap();
        let f = &m.functions[0];
        let notes = explain_ii_blockers(&m, f, &Target::default());
        assert_eq!(notes.len(), 1);
        let n = &notes[0];
        assert_eq!(n.severity, pass_core::Severity::Note);
        assert_eq!(n.pass, II_BLOCKER_PASS);
        assert!(n.message.contains("RecMII = 7"), "{}", n.message);
        assert!(n.message.contains("%acc"), "{}", n.message);
        assert!(n.message.contains("carried distance 1"), "{}", n.message);
        assert!(n.message.contains("7 registered cycles"), "{}", n.message);
        assert_eq!(n.loc.function.as_deref(), Some("f"));
    }

    #[test]
    fn elementwise_loop_needs_no_explanation() {
        let m = parse_module("m", ELEMENTWISE).unwrap();
        let f = &m.functions[0];
        assert!(explain_ii_blockers(&m, f, &Target::default()).is_empty());
    }
}
