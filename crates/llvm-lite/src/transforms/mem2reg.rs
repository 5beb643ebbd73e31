//! Classic SSA promotion of allocas (mem2reg).
//!
//! This is the first pass every HLS frontend runs over clang output: locals
//! arrive as `alloca` + `load`/`store`, and scheduling quality depends on
//! seeing them as SSA values. The baseline C++ flow in this repository
//! re-creates exactly that shape, so this pass is what puts the two flows
//! back on a comparable footing.
//!
//! Algorithm: Cytron-style — place PHIs on the iterated dominance frontier
//! of each promotable alloca's stores, then rename with a dominator-tree
//! walk.

use std::collections::HashSet;

use crate::analysis::{Cfg, DomTree};
use crate::inst::{Inst, InstData, Opcode};
use crate::module::{BlockId, Function, InstId, Module};
use crate::transforms::ModulePass;
use crate::types::Type;
use crate::value::Value;
use pass_core::PassResult;

/// The mem2reg pass.
pub struct Mem2Reg;

impl ModulePass<Module> for Mem2Reg {
    fn name(&self) -> &'static str {
        "mem2reg"
    }

    fn run(&self, m: &mut Module) -> PassResult<bool> {
        let mut changed = false;
        for f in &mut m.functions {
            if !f.is_declaration {
                changed |= promote_function(f);
            }
        }
        Ok(changed)
    }
}

/// Promotable allocas, in layout order: scalar type, and used only as the
/// pointer of loads and stores (never stored *as a value*, never GEP'd or
/// passed on). One sweep over the uses decides every candidate.
fn promotable_allocas(f: &Function) -> Vec<InstId> {
    let mut candidate = vec![false; f.insts.len()];
    let mut order = Vec::new();
    for &b in &f.block_order {
        for &id in &f.blocks[b as usize].insts {
            if let InstData::Alloca { allocated, .. } = &f.inst(id).data {
                if f.inst(id).opcode == Opcode::Alloca && allocated.is_first_class_scalar() {
                    candidate[id as usize] = true;
                    order.push(id);
                }
            }
        }
    }
    if order.is_empty() {
        return order;
    }
    for &b in &f.block_order {
        for &uid in &f.blocks[b as usize].insts {
            let user = f.inst(uid);
            for (oi, op) in user.operands.iter().enumerate() {
                let Value::Inst(id) = *op else { continue };
                if !candidate.get(id as usize).copied().unwrap_or(false) {
                    continue;
                }
                let ok = match user.opcode {
                    Opcode::Load => true,
                    // Only the *pointer* slot of a store; storing the
                    // address itself escapes the alloca.
                    Opcode::Store => oi == 1,
                    _ => false,
                };
                if !ok {
                    candidate[id as usize] = false;
                }
            }
        }
    }
    order.retain(|&id| candidate[id as usize]);
    order
}

/// Cooper's dominance-frontier computation.
fn dominance_frontiers(f: &Function, cfg: &Cfg, dom: &DomTree) -> Vec<HashSet<BlockId>> {
    let mut df: Vec<HashSet<BlockId>> = vec![HashSet::new(); f.blocks.len()];
    for &b in &cfg.rpo {
        if cfg.preds[b as usize].len() < 2 {
            continue;
        }
        let Some(idom_b) = dom.idom[b as usize] else {
            continue;
        };
        for &p in &cfg.preds[b as usize] {
            let mut runner = p;
            while runner != idom_b {
                df[runner as usize].insert(b);
                match dom.idom[runner as usize] {
                    Some(d) if d != runner => runner = d,
                    _ => break,
                }
            }
        }
    }
    df
}

/// State of the dominator-tree rename walk.
struct Rename<'a> {
    cfg: &'a Cfg,
    children: &'a [Vec<BlockId>],
    /// `slot[alloca]` indexes `stacks` and `types` for promoted allocas.
    slot: &'a [Option<usize>],
    /// `phis[block]`: the `(slot, phi)` pairs placed in that block.
    phis: &'a [Vec<(usize, InstId)>],
    types: &'a [Type],
    stacks: Vec<Vec<Value>>,
    /// `(load, value)`: each promoted load and the value it read.
    replaced: Vec<(InstId, Value)>,
    /// Promoted stores (loads are in `replaced`).
    stores: Vec<InstId>,
}

impl Rename<'_> {
    fn slot_of(&self, v: &Value) -> Option<usize> {
        match v {
            Value::Inst(a) => self.slot.get(*a as usize).copied().flatten(),
            _ => None,
        }
    }

    fn current(&self, s: usize) -> Value {
        self.stacks[s]
            .last()
            .cloned()
            .unwrap_or_else(|| Value::Undef(self.types[s].clone()))
    }

    fn walk(&mut self, f: &mut Function, block: BlockId) {
        let mut pushed: Vec<usize> = Vec::new();

        // Phis placed in this block define new current values.
        for &(s, phi) in &self.phis[block as usize] {
            self.stacks[s].push(Value::Inst(phi));
            pushed.push(s);
        }

        for &id in &f.blocks[block as usize].insts {
            if !f.is_live(id) {
                continue;
            }
            let inst = f.inst(id);
            match inst.opcode {
                Opcode::Load => {
                    if let Some(s) = self.slot_of(&inst.operands[0]) {
                        self.replaced.push((id, self.current(s)));
                    }
                }
                Opcode::Store => {
                    if let Some(s) = self.slot_of(&inst.operands[1]) {
                        self.stacks[s].push(inst.operands[0].clone());
                        pushed.push(s);
                        self.stores.push(id);
                    }
                }
                _ => {}
            }
        }

        // Fill phi operands of successors.
        for &succ in &self.cfg.succs[block as usize] {
            for &(s, phi) in &self.phis[succ as usize] {
                let current = self.current(s);
                let inst = f.inst_mut(phi);
                inst.operands.push(current);
                match &mut inst.data {
                    InstData::Phi { incoming } => incoming.push(block),
                    _ => unreachable!(),
                }
            }
        }

        for &child in &self.children[block as usize] {
            self.walk(f, child);
        }

        for s in pushed {
            self.stacks[s].pop();
        }
    }
}

fn promote_function(f: &mut Function) -> bool {
    let allocas = promotable_allocas(f);
    if allocas.is_empty() {
        return false;
    }
    let cfg = Cfg::build(f);
    let dom = DomTree::build(f, &cfg);
    let df = dominance_frontiers(f, &cfg, &dom);

    // Dominator-tree children for the rename walk.
    let mut children: Vec<Vec<BlockId>> = vec![Vec::new(); f.blocks.len()];
    for &b in &cfg.rpo {
        if let Some(d) = dom.idom[b as usize] {
            if d != b {
                children[d as usize].push(b);
            }
        }
    }

    let mut slot: Vec<Option<usize>> = vec![None; f.insts.len()];
    let mut types: Vec<Type> = Vec::with_capacity(allocas.len());
    for (s, &a) in allocas.iter().enumerate() {
        slot[a as usize] = Some(s);
        match &f.inst(a).data {
            InstData::Alloca { allocated, .. } => types.push(allocated.clone()),
            _ => unreachable!("alloca id"),
        }
    }

    // The blocks storing to each alloca, from one sweep.
    let mut def_blocks: Vec<Vec<BlockId>> = vec![Vec::new(); allocas.len()];
    for &b in &f.block_order {
        for &id in &f.blocks[b as usize].insts {
            let inst = f.inst(id);
            if inst.opcode != Opcode::Store {
                continue;
            }
            if let Value::Inst(a) = inst.operands[1] {
                if let Some(&Some(s)) = slot.get(a as usize) {
                    def_blocks[s].push(b);
                }
            }
        }
    }

    // Phase 1: phi placement on the iterated dominance frontier.
    let mut phis: Vec<Vec<(usize, InstId)>> = vec![Vec::new(); f.blocks.len()];
    for (s, &a) in allocas.iter().enumerate() {
        let mut placed: HashSet<BlockId> = HashSet::new();
        let mut work = std::mem::take(&mut def_blocks[s]);
        while let Some(b) = work.pop() {
            for &front in &df[b as usize] {
                if placed.insert(front) {
                    let phi = f.insert_inst(
                        front,
                        0,
                        Inst::new(Opcode::Phi, types[s].clone(), vec![])
                            .with_data(InstData::Phi {
                                incoming: Vec::new(),
                            })
                            .with_name(format!("{}.ssa", f.inst(a).name)),
                    );
                    phis[front as usize].push((s, phi));
                    work.push(front);
                }
            }
        }
    }
    slot.resize(f.insts.len(), None);

    // Phase 2: rename along the dominator tree, recording each promoted
    // load's value instead of rewriting its uses on the spot.
    let mut rename = Rename {
        cfg: &cfg,
        children: &children,
        slot: &slot,
        phis: &phis,
        types: &types,
        stacks: vec![Vec::new(); allocas.len()],
        replaced: Vec::new(),
        stores: Vec::new(),
    };
    rename.walk(f, f.entry());
    let Rename {
        replaced, stores, ..
    } = rename;

    // Phase 3: substitute every promoted load in one sweep. A load's value
    // may itself be an earlier promoted load (a stored loaded value), so
    // values resolve in walk order, where defs precede their uses.
    let mut value_of: Vec<Option<Value>> = vec![None; f.insts.len()];
    for (load, v) in replaced.iter().cloned() {
        let v = match v {
            Value::Inst(d) => match value_of.get(d as usize) {
                Some(Some(earlier)) => earlier.clone(),
                _ => Value::Inst(d),
            },
            other => other,
        };
        value_of[load as usize] = Some(v);
    }
    for (idx, inst) in f.insts.iter_mut().enumerate() {
        if f.inst_removed[idx] {
            continue;
        }
        for op in &mut inst.operands {
            if let Value::Inst(d) = op {
                if let Some(Some(v)) = value_of.get(*d as usize) {
                    *op = v.clone();
                }
            }
        }
    }

    let mut dead: Vec<InstId> = replaced.iter().map(|(load, _)| *load).collect();
    dead.extend(stores);
    dead.extend(&allocas);
    f.remove_insts(&dead);
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_module;
    use crate::verifier::verify_module;

    #[test]
    fn promotes_straightline_local() {
        let src = r#"
define i32 @f(i32 %a) {
entry:
  %x = alloca i32, align 4
  store i32 %a, i32* %x, align 4
  %v = load i32, i32* %x, align 4
  %r = add i32 %v, 1
  ret i32 %r
}
"#;
        let mut m = parse_module("m", src).unwrap();
        assert!(Mem2Reg.run(&mut m).unwrap());
        verify_module(&m).unwrap();
        let f = m.function("f").unwrap();
        assert_eq!(f.count_opcode(Opcode::Alloca), 0);
        assert_eq!(f.count_opcode(Opcode::Load), 0);
        assert_eq!(f.count_opcode(Opcode::Store), 0);
        // %r now adds the argument directly.
        let (_, add) = f
            .inst_ids()
            .into_iter()
            .find(|(_, i)| f.inst(*i).opcode == Opcode::Add)
            .unwrap();
        assert_eq!(f.inst(add).operands[0], Value::Arg(0));
    }

    #[test]
    fn places_phi_at_join() {
        let src = r#"
define i32 @max(i32 %a, i32 %b) {
entry:
  %m = alloca i32, align 4
  %c = icmp sgt i32 %a, %b
  br i1 %c, label %then, label %else

then:
  store i32 %a, i32* %m, align 4
  br label %join

else:
  store i32 %b, i32* %m, align 4
  br label %join

join:
  %v = load i32, i32* %m, align 4
  ret i32 %v
}
"#;
        let mut m = parse_module("m", src).unwrap();
        assert!(Mem2Reg.run(&mut m).unwrap());
        verify_module(&m).unwrap();
        let f = m.function("max").unwrap();
        assert_eq!(f.count_opcode(Opcode::Phi), 1);
        assert_eq!(f.count_opcode(Opcode::Alloca), 0);
    }

    #[test]
    fn loop_counter_becomes_phi() {
        let src = r#"
define i32 @sum(i32 %n) {
entry:
  %i = alloca i32, align 4
  %acc = alloca i32, align 4
  store i32 0, i32* %i, align 4
  store i32 0, i32* %acc, align 4
  br label %header

header:
  %iv = load i32, i32* %i, align 4
  %c = icmp slt i32 %iv, %n
  br i1 %c, label %body, label %exit

body:
  %av = load i32, i32* %acc, align 4
  %a2 = add i32 %av, %iv
  store i32 %a2, i32* %acc, align 4
  %i2 = add i32 %iv, 1
  store i32 %i2, i32* %i, align 4
  br label %header

exit:
  %r = load i32, i32* %acc, align 4
  ret i32 %r
}
"#;
        let mut m = parse_module("m", src).unwrap();
        assert!(Mem2Reg.run(&mut m).unwrap());
        verify_module(&m).unwrap();
        let f = m.function("sum").unwrap();
        // Two loop-carried variables -> two phis in the header.
        assert_eq!(f.count_opcode(Opcode::Phi), 2);
        assert_eq!(f.count_opcode(Opcode::Load), 0);
        assert_eq!(f.count_opcode(Opcode::Store), 0);
    }

    #[test]
    fn escaping_alloca_is_left_alone() {
        let src = r#"
declare void @sink(i32* %p)

define void @f() {
entry:
  %x = alloca i32, align 4
  store i32 1, i32* %x, align 4
  call void @sink(i32* %x)
  ret void
}
"#;
        let mut m = parse_module("m", src).unwrap();
        Mem2Reg.run(&mut m).unwrap();
        let f = m.function("f").unwrap();
        assert_eq!(f.count_opcode(Opcode::Alloca), 1);
        assert_eq!(f.count_opcode(Opcode::Store), 1);
    }

    #[test]
    fn array_alloca_is_left_alone() {
        let src = r#"
define float @f() {
entry:
  %buf = alloca [8 x float], align 4
  %p = getelementptr inbounds [8 x float], [8 x float]* %buf, i64 0, i64 0
  %v = load float, float* %p, align 4
  ret float %v
}
"#;
        let mut m = parse_module("m", src).unwrap();
        let changed = Mem2Reg.run(&mut m).unwrap();
        assert!(!changed);
        assert_eq!(m.function("f").unwrap().count_opcode(Opcode::Alloca), 1);
    }

    #[test]
    fn uninitialized_read_becomes_undef() {
        let src = r#"
define i32 @f() {
entry:
  %x = alloca i32, align 4
  %v = load i32, i32* %x, align 4
  ret i32 %v
}
"#;
        let mut m = parse_module("m", src).unwrap();
        assert!(Mem2Reg.run(&mut m).unwrap());
        verify_module(&m).unwrap();
        let f = m.function("f").unwrap();
        let ret = f.terminator(f.entry()).unwrap();
        assert!(matches!(f.inst(ret).operands[0], Value::Undef(_)));
    }
}
