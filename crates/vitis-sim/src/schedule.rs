//! Chained, memory-port-constrained scheduling of straight-line regions.
//!
//! Each basic block is scheduled as a DAG of its instructions:
//!
//! * combinational ops (`latency == 0`) **chain**: they occupy the same
//!   cycle as their producer while the accumulated combinational delay fits
//!   in the clock period, and spill into the next cycle otherwise;
//! * multi-cycle ops issue at their operands' ready cycle and register
//!   their result `latency` cycles later;
//! * loads/stores contend for the (dual) ports of the BRAM bank backing
//!   their base object, and for the shared bus when the base is `m_axi`;
//! * memory ordering edges (store→load, store→store, load→store on the same
//!   base) are respected in program order.

use std::collections::{HashMap, HashSet};

use llvm_lite::{BlockId, Function, InstId, Module, Opcode};
use pass_core::{Budget, BudgetError};

use crate::memdep::{base_object, BaseObject};
use crate::oplib::{op_spec, FuClass};
use crate::Target;

/// Context shared across block schedules of one function.
#[derive(Clone, Debug, Default)]
pub struct ScheduleCtx {
    /// Bases bound to the AXI bus (higher latency, single shared port).
    pub m_axi_bases: HashSet<BaseObject>,
    /// Cyclic array-partition factors per base (1 = unpartitioned).
    pub partition: std::collections::HashMap<BaseObject, u32>,
}

impl ScheduleCtx {
    /// Build from a function's interface attributes.
    pub fn from_function(f: &Function) -> ScheduleCtx {
        let mut cx = ScheduleCtx::default();
        for (i, p) in f.params.iter().enumerate() {
            if p.attrs.get("hls.interface").map(String::as_str) == Some("m_axi") {
                cx.m_axi_bases.insert(BaseObject::Param(i as u32));
            }
            if let Some(factor) = p
                .attrs
                .get("hls.array_partition")
                .and_then(|s| parse_partition(s))
            {
                cx.partition.insert(BaseObject::Param(i as u32), factor);
            }
        }
        cx
    }

    /// Effective BRAM ports for a base: dual-port per partition bank.
    /// Saturates, so a huge partition factor means "unlimited ports"
    /// rather than wrapping to zero and starving port arbitration.
    pub fn ports_for(&self, base: &BaseObject, target: &Target) -> u32 {
        let factor = self.partition.get(base).copied().unwrap_or(1).max(1);
        target.bram_ports.saturating_mul(factor)
    }
}

/// Parse `cyclic:<n>` / `block:<n>` / `complete` partition specs.
pub fn parse_partition(spec: &str) -> Option<u32> {
    if spec == "complete" {
        return Some(u32::MAX);
    }
    let (_kind, n) = spec.split_once(':')?;
    n.parse().ok().filter(|f| *f > 1)
}

/// The schedule of one block.
#[derive(Clone, Debug, Default)]
pub struct BlockSchedule {
    /// Issue cycle (0-based within the block) of each instruction.
    pub start: HashMap<InstId, u64>,
    /// Cycle at whose *start* each instruction's result is available.
    pub done: HashMap<InstId, u64>,
    /// Number of cycles the block occupies (>= 1 for non-empty blocks).
    pub length: u64,
    /// Peak per-cycle issue count per FU class (binder input).
    pub fu_pressure: HashMap<FuClass, u32>,
}

/// Schedule one block.
pub fn schedule_block(
    m: &Module,
    f: &Function,
    target: &Target,
    block: BlockId,
    cx: &ScheduleCtx,
) -> BlockSchedule {
    schedule_block_budgeted(m, f, target, block, cx, &Budget::unlimited())
        .expect("unlimited budget cannot trip")
}

/// [`schedule_block`] under a [`Budget`]: one fuel unit per scheduled
/// instruction, so a pathological region trips cooperatively instead of
/// grinding through port arbitration unbounded.
pub fn schedule_block_budgeted(
    m: &Module,
    f: &Function,
    target: &Target,
    block: BlockId,
    cx: &ScheduleCtx,
    budget: &Budget,
) -> Result<BlockSchedule, BudgetError> {
    let insts = &f.block(block).insts;
    let mut out = BlockSchedule::default();
    // (cycle, combinational offset ns) at which each value is usable.
    let mut ready: HashMap<InstId, (u64, f64)> = HashMap::new();
    // Memory ordering state.
    let mut last_store: HashMap<BaseObject, InstId> = HashMap::new();
    let mut loads_since_store: HashMap<BaseObject, Vec<InstId>> = HashMap::new();
    // Port books: (base, cycle) -> uses ; plus the shared AXI pool.
    let mut bram_ports: HashMap<(BaseObject, u64), u32> = HashMap::new();
    let mut axi_ports: HashMap<u64, u32> = HashMap::new();
    // Per-cycle FU issue counts.
    let mut issues: HashMap<(FuClass, u64), u32> = HashMap::new();

    for &id in insts {
        budget.charge(1, "csynth/schedule")?;
        let inst = f.inst(id);
        if inst.opcode == Opcode::Phi {
            // Block inputs: available at cycle 0.
            ready.insert(id, (0, 0.0));
            out.start.insert(id, 0);
            out.done.insert(id, 0);
            continue;
        }
        let mut spec = op_spec(m, f, inst);

        // Operand readiness (same-block SSA deps only; cross-block values
        // are ready at cycle 0).
        let mut cycle = 0u64;
        let mut offset = 0.0f64;
        for op in &inst.operands {
            if let Some(def) = op.as_inst() {
                if let Some(&(c, o)) = ready.get(&def) {
                    if c > cycle {
                        cycle = c;
                        offset = o;
                    } else if c == cycle && o > offset {
                        offset = o;
                    }
                }
            }
        }
        // Memory ordering edges.
        let mem_base = match inst.opcode {
            Opcode::Load => Some((false, base_object(f, &inst.operands[0]))),
            Opcode::Store => Some((true, base_object(f, &inst.operands[1]))),
            _ => None,
        };
        if let Some((is_store, base)) = &mem_base {
            let bump = |dep: InstId, cycle: &mut u64, offset: &mut f64, out: &BlockSchedule| {
                if let Some(&d) = out.done.get(&dep) {
                    if d > *cycle {
                        *cycle = d;
                        *offset = 0.0;
                    }
                }
            };
            if let Some(&s) = last_store.get(base) {
                bump(s, &mut cycle, &mut offset, &out);
            }
            if *base == BaseObject::Unknown {
                // Unknown base orders against every store.
                for &s in last_store.values() {
                    bump(s, &mut cycle, &mut offset, &out);
                }
            }
            if *is_store {
                for &l in loads_since_store
                    .get(base)
                    .map(Vec::as_slice)
                    .unwrap_or(&[])
                {
                    bump(l, &mut cycle, &mut offset, &out);
                }
            }
        }

        let is_axi = mem_base
            .as_ref()
            .map(|(_, b)| cx.m_axi_bases.contains(b))
            .unwrap_or(false);
        if is_axi {
            spec.latency += target.axi_extra_latency;
        }

        let (start, done_cycle, result_offset) = if spec.latency == 0 {
            // Chain if the delay fits; else start a new cycle.
            if offset + spec.delay_ns <= target.clock_ns {
                (cycle, cycle, offset + spec.delay_ns)
            } else {
                (cycle + 1, cycle + 1, spec.delay_ns)
            }
        } else {
            // Registered op: issues at the ready cycle (inputs latched),
            // result appears `latency` cycles later.
            let mut start = cycle;
            // Memory port arbitration.
            if let Some((_, base)) = &mem_base {
                loop {
                    let free = if is_axi {
                        *axi_ports.get(&start).unwrap_or(&0) < target.axi_ports
                    } else {
                        *bram_ports.get(&(base.clone(), start)).unwrap_or(&0)
                            < cx.ports_for(base, target)
                    };
                    if free {
                        break;
                    }
                    start += 1;
                }
                if is_axi {
                    *axi_ports.entry(start).or_insert(0) += 1;
                } else {
                    *bram_ports.entry((base.clone(), start)).or_insert(0) += 1;
                }
            }
            (start, start + u64::from(spec.latency), 0.0)
        };

        ready.insert(id, (done_cycle, result_offset));
        out.start.insert(id, start);
        out.done.insert(id, done_cycle);
        *issues.entry((spec.class, start)).or_insert(0) += 1;

        if let Some((is_store, base)) = mem_base {
            if is_store {
                last_store.insert(base.clone(), id);
                loads_since_store.remove(&base);
            } else {
                loads_since_store.entry(base).or_default().push(id);
            }
        }

        let occupies = done_cycle.max(start + 1);
        out.length = out.length.max(occupies);
    }
    if out.length == 0 && !insts.is_empty() {
        out.length = 1;
    }
    for ((class, _), n) in issues {
        let e = out.fu_pressure.entry(class).or_insert(0);
        *e = (*e).max(n);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use llvm_lite::parser::parse_module;

    fn sched(src: &str) -> (llvm_lite::Module, BlockSchedule) {
        let m = parse_module("m", src).unwrap();
        let f = &m.functions[0];
        let cx = ScheduleCtx::from_function(f);
        let s = schedule_block(&m, f, &Target::default(), f.entry(), &cx);
        let m2 = m.clone();
        (m2, s)
    }

    #[test]
    fn combinational_ops_chain_into_one_cycle() {
        let (_, s) = sched(
            r#"
define i32 @f(i32 %a) {
entry:
  %x = add i32 %a, 1
  %y = add i32 %x, 2
  %z = add i32 %y, 3
  ret i32 %z
}
"#,
        );
        // Three adds at 1.8ns each chain within a 10ns clock.
        assert_eq!(s.length, 1);
        assert_eq!(s.start[&0], 0);
        assert_eq!(s.start[&2], 0);
    }

    #[test]
    fn long_chains_spill_into_next_cycle() {
        // Seven dependent adds exceed 10ns of combinational delay.
        let mut body = String::new();
        let mut prev = "%a".to_string();
        for i in 0..7 {
            body.push_str(&format!("  %x{i} = add i32 {prev}, 1\n"));
            prev = format!("%x{i}");
        }
        let src = format!("define i32 @f(i32 %a) {{\nentry:\n{body}  ret i32 {prev}\n}}\n");
        let (_, s) = sched(&src);
        assert!(s.length >= 2, "chain must break: {}", s.length);
    }

    #[test]
    fn float_add_takes_its_latency() {
        let (_, s) = sched(
            r#"
define float @f(float %a, float %b) {
entry:
  %x = fadd float %a, %b
  %y = fadd float %x, %b
  ret float %y
}
"#,
        );
        // Two dependent 4-cycle adders: second issues at cycle 4, its
        // result lands at cycle 8, and the ret consumes it there.
        assert_eq!(s.start[&0], 0);
        assert_eq!(s.start[&1], 4);
        assert_eq!(s.length, 9);
    }

    #[test]
    fn independent_float_adds_issue_together() {
        let (_, s) = sched(
            r#"
define float @f(float %a, float %b) {
entry:
  %x = fadd float %a, %b
  %y = fadd float %b, %a
  %z = fadd float %x, %y
  ret float %z
}
"#,
        );
        assert_eq!(s.start[&0], 0);
        assert_eq!(s.start[&1], 0);
        assert_eq!(s.start[&2], 4);
        assert_eq!(s.fu_pressure[&FuClass::FAddSub], 2);
    }

    #[test]
    fn bram_ports_limit_parallel_loads() {
        let (_, s) = sched(
            r#"
define float @f([16 x float]* %a) {
entry:
  %p0 = getelementptr inbounds [16 x float], [16 x float]* %a, i64 0, i64 0
  %p1 = getelementptr inbounds [16 x float], [16 x float]* %a, i64 0, i64 1
  %p2 = getelementptr inbounds [16 x float], [16 x float]* %a, i64 0, i64 2
  %v0 = load float, float* %p0, align 4
  %v1 = load float, float* %p1, align 4
  %v2 = load float, float* %p2, align 4
  %s0 = fadd float %v0, %v1
  %s1 = fadd float %s0, %v2
  ret float %s1
}
"#,
        );
        // Loads are ids 3,4,5: two fit in cycle 0, the third waits.
        assert_eq!(s.start[&3], 0);
        assert_eq!(s.start[&4], 0);
        assert_eq!(s.start[&5], 1);
    }

    #[test]
    fn different_arrays_do_not_contend() {
        let (_, s) = sched(
            r#"
define float @f([16 x float]* %a, [16 x float]* %b) {
entry:
  %p0 = getelementptr inbounds [16 x float], [16 x float]* %a, i64 0, i64 0
  %p1 = getelementptr inbounds [16 x float], [16 x float]* %b, i64 0, i64 0
  %v0 = load float, float* %p0, align 4
  %v1 = load float, float* %p1, align 4
  %s = fadd float %v0, %v1
  ret float %s
}
"#,
        );
        assert_eq!(s.start[&2], 0);
        assert_eq!(s.start[&3], 0);
    }

    #[test]
    fn store_orders_following_load_on_same_base() {
        let (_, s) = sched(
            r#"
define float @f([16 x float]* %a, float %v) {
entry:
  %p = getelementptr inbounds [16 x float], [16 x float]* %a, i64 0, i64 0
  store float %v, float* %p, align 4
  %r = load float, float* %p, align 4
  ret float %r
}
"#,
        );
        // Store completes at cycle 1; the load cannot issue before that.
        assert!(s.start[&2] >= s.done[&1]);
    }

    #[test]
    fn m_axi_access_is_slower_and_serialized() {
        let src = r#"
define float @f(float* "hls.interface"="m_axi" %a) {
entry:
  %p0 = getelementptr inbounds float, float* %a, i64 0
  %p1 = getelementptr inbounds float, float* %a, i64 1
  %v0 = load float, float* %p0, align 4
  %v1 = load float, float* %p1, align 4
  %s = fadd float %v0, %v1
  ret float %s
}
"#;
        let m = parse_module("m", src).unwrap();
        let f = &m.functions[0];
        let cx = ScheduleCtx::from_function(f);
        assert!(cx.m_axi_bases.contains(&BaseObject::Param(0)));
        let s = schedule_block(&m, f, &Target::default(), f.entry(), &cx);
        // Single AXI port: second load issues a cycle later; both have the
        // extra bus latency.
        assert_eq!(s.start[&2], 0);
        assert_eq!(s.start[&3], 1);
        assert!(s.done[&2] >= 8);
    }

    #[test]
    fn empty_ret_block_is_one_cycle() {
        let (_, s) = sched("define void @f() {\nentry:\n  ret void\n}\n");
        assert_eq!(s.length, 1);
    }

    #[test]
    fn exhausted_fuel_trips_scheduling() {
        let m = parse_module(
            "m",
            r#"
define i32 @f(i32 %a) {
entry:
  %x = add i32 %a, 1
  %y = add i32 %x, 2
  %z = add i32 %y, 3
  ret i32 %z
}
"#,
        )
        .unwrap();
        let f = &m.functions[0];
        let cx = ScheduleCtx::from_function(f);
        let budget = Budget::unlimited().with_fuel(2);
        let err = schedule_block_budgeted(&m, f, &Target::default(), f.entry(), &cx, &budget)
            .unwrap_err();
        assert_eq!(err.stage, "csynth/schedule");
        assert_eq!(err.kind, pass_core::BudgetKind::Fuel);
    }
}
