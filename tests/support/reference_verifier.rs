//! The structural verifier that `llvm_lite::verifier` replaced, kept
//! verbatim (bar import paths and the crate-error wrappers) as the oracle
//! of the old-vs-new differential test in `verifier_differential.rs`.
//!
//! It rescans the function per query: `Function::block_of` for every
//! operand, two `position` scans per same-block use, a cloned `Type` per
//! operand type and per GEP result, and four `inst_ids()` vectors per call.

use std::collections::HashSet;

use pass_core::{Diagnostic, Loc, PassResult};

use llvm_lite::analysis::{Cfg, DomTree};
use llvm_lite::inst::{InstData, Opcode};
use llvm_lite::module::{BlockId, Function, InstId, Module};
use llvm_lite::types::Type;
use llvm_lite::value::Value;

fn diag(msg: impl Into<String>, loc: Loc) -> Diagnostic {
    Diagnostic::error("verifier", msg).with_loc(loc)
}

/// Verify a whole module, producing a located diagnostic on failure.
pub fn verify_module_diag(m: &Module) -> PassResult<()> {
    let mut names = HashSet::new();
    for f in &m.functions {
        if !names.insert(&f.name) {
            return Err(diag("duplicate function", Loc::function(&f.name)));
        }
        if !f.is_declaration {
            verify_function_diag(m, f)?;
        }
    }
    let mut gnames = HashSet::new();
    for g in &m.globals {
        if !gnames.insert(&g.name) {
            return Err(diag(
                format!("duplicate global @{}", g.name),
                Loc::default(),
            ));
        }
    }
    Ok(())
}

/// Verify a single function definition.
pub fn verify_function_diag(m: &Module, f: &Function) -> PassResult<()> {
    let err = |msg: String| Err(diag(msg, Loc::function(&f.name)));
    let berr = |b: BlockId, msg: String| {
        Err(diag(
            msg,
            Loc::function(&f.name).in_block(&f.blocks[b as usize].name),
        ))
    };

    if f.block_order.is_empty() {
        return err("definition has no blocks".into());
    }
    // Unique labels.
    let mut labels = HashSet::new();
    for &b in &f.block_order {
        if !labels.insert(&f.blocks[b as usize].name) {
            return berr(b, format!("duplicate label {}", f.blocks[b as usize].name));
        }
    }
    // Block shape: exactly one terminator, at the end; phis lead the block.
    for &b in &f.block_order {
        let insts = &f.blocks[b as usize].insts;
        let Some(&last) = insts.last() else {
            return berr(b, "block is empty".into());
        };
        if !f.inst(last).is_terminator() {
            return berr(b, "block does not end in a terminator".into());
        }
        let mut seen_non_phi = false;
        for (pos, &i) in insts.iter().enumerate() {
            let inst = f.inst(i);
            if inst.is_terminator() && pos + 1 != insts.len() {
                return berr(b, "terminator in the middle of the block".into());
            }
            if inst.opcode == Opcode::Phi {
                if seen_non_phi {
                    return berr(b, format!("phi %{i} after non-phi"));
                }
            } else {
                seen_non_phi = true;
            }
        }
    }
    let cfg = Cfg::build(f);
    // PHI edges must exactly match predecessors.
    for &b in &f.block_order {
        let preds: HashSet<u32> = cfg.preds[b as usize].iter().copied().collect();
        for &i in &f.blocks[b as usize].insts {
            let inst = f.inst(i);
            if let InstData::Phi { incoming } = &inst.data {
                if inst.operands.len() != incoming.len() {
                    return berr(b, format!("phi %{i} operand/block count mismatch"));
                }
                let inc: HashSet<u32> = incoming.iter().copied().collect();
                if inc != preds {
                    return berr(
                        b,
                        format!("phi %{i} incoming blocks do not match predecessors"),
                    );
                }
            }
        }
    }
    // Operand sanity + type rules.
    for (b, id) in f.inst_ids() {
        verify_inst(m, f, b, id)?;
    }
    // Defs dominate uses (phi uses checked at the incoming edge).
    let dom = DomTree::build(f, &cfg);
    for (b, id) in f.inst_ids() {
        let inst = f.inst(id);
        let iloc = || {
            Loc::function(&f.name)
                .in_block(&f.blocks[b as usize].name)
                .at_inst(format!("%{id}"))
        };
        for (oi, op) in inst.operands.iter().enumerate() {
            let Value::Inst(def) = op else { continue };
            if !f.is_live(*def) {
                return Err(diag(format!("use of removed instruction %{def}"), iloc()));
            }
            let Some(def_block) = f.block_of(*def) else {
                return Err(diag(format!("use of unplaced instruction %{def}"), iloc()));
            };
            let use_block = match &inst.data {
                InstData::Phi { incoming } => incoming[oi],
                _ => b,
            };
            let ok = if def_block == use_block && !matches!(inst.data, InstData::Phi { .. }) {
                // Same-block ordering.
                let blk = &f.blocks[b as usize].insts;
                let dpos = blk.iter().position(|&x| x == *def);
                let upos = blk.iter().position(|&x| x == id);
                match (dpos, upos) {
                    (Some(d), Some(u)) => d < u,
                    _ => false,
                }
            } else {
                dom.dominates(def_block, use_block)
            };
            if !ok {
                return Err(diag(
                    format!("use of %{def} is not dominated by its def"),
                    iloc(),
                ));
            }
        }
    }
    // Metadata references in range.
    for (b, id) in f.inst_ids() {
        let iloc = || {
            Loc::function(&f.name)
                .in_block(&f.blocks[b as usize].name)
                .at_inst(format!("%{id}"))
        };
        if let Some(md) = f.inst(id).loop_md {
            if md as usize >= m.loop_mds.len() {
                return Err(diag(
                    format!("references out-of-range loop metadata !{md}"),
                    iloc(),
                ));
            }
            if !f.inst(id).is_terminator() {
                return Err(diag(
                    "loop metadata on a non-terminator".to_string(),
                    iloc(),
                ));
            }
        }
    }
    // Return types.
    for (b, id) in f.inst_ids() {
        let inst = f.inst(id);
        if inst.opcode == Opcode::Ret {
            match (inst.operands.first(), &f.ret_ty) {
                (None, Type::Void) => {}
                (Some(v), ty) if &f.value_type(m, v) == ty => {}
                _ => {
                    return Err(diag(
                        "ret type mismatch".to_string(),
                        Loc::function(&f.name)
                            .in_block(&f.blocks[b as usize].name)
                            .at_inst(format!("%{id}")),
                    ))
                }
            }
        }
    }
    Ok(())
}

fn verify_inst(m: &Module, f: &Function, b: BlockId, id: InstId) -> PassResult<()> {
    let inst = f.inst(id);
    let err = |msg: String| {
        Err(diag(
            msg,
            Loc::function(&f.name)
                .in_block(&f.blocks[b as usize].name)
                .at_inst(format!("%{id}")),
        ))
    };
    let op_ty = |i: usize| f.value_type(m, &inst.operands[i]);
    match inst.opcode {
        op if op.is_int_binop() => {
            if inst.operands.len() != 2 {
                return err("binary op needs 2 operands".into());
            }
            if !inst.ty.is_int() || op_ty(0) != inst.ty || op_ty(1) != inst.ty {
                return err(format!("integer binop type mismatch ({})", inst.ty));
            }
        }
        op if op.is_float_binop() => {
            if inst.operands.len() != 2 || !inst.ty.is_float() {
                return err("float binop malformed".into());
            }
            if op_ty(0) != inst.ty || op_ty(1) != inst.ty {
                return err("float binop operand type mismatch".into());
            }
        }
        Opcode::FNeg if (inst.operands.len() != 1 || !inst.ty.is_float()) => {
            return err("fneg malformed".into());
        }
        Opcode::ICmp => {
            if op_ty(0) != op_ty(1) || !(op_ty(0).is_int() || op_ty(0).is_ptr()) {
                return err("icmp operand mismatch".into());
            }
            if inst.ty != Type::I1 {
                return err("icmp must produce i1".into());
            }
        }
        Opcode::FCmp if (op_ty(0) != op_ty(1) || !op_ty(0).is_float()) => {
            return err("fcmp operand mismatch".into());
        }
        Opcode::Load => {
            let pt = op_ty(0);
            match pt.pointee() {
                Some(p) if *p == inst.ty => {}
                _ => return err(format!("load type {} from pointer {}", inst.ty, pt)),
            }
        }
        Opcode::Store => {
            let vt = op_ty(0);
            let pt = op_ty(1);
            match pt.pointee() {
                Some(p) if *p == vt => {}
                _ => return err(format!("store type {vt} through pointer {pt}")),
            }
        }
        Opcode::Gep => {
            let InstData::Gep { base_ty, .. } = &inst.data else {
                return err("gep without payload".into());
            };
            let pt = op_ty(0);
            match pt.pointee() {
                Some(p) if p == base_ty => {}
                _ => return err(format!("gep base type {base_ty} vs pointer {pt}")),
            }
            for idx in &inst.operands[1..] {
                if !f.value_type(m, idx).is_int() {
                    return err("gep index must be an integer".into());
                }
            }
            let expect = llvm_lite::builder::gep_result_type(base_ty, inst.operands.len());
            if expect != inst.ty {
                return err(format!("gep result {} but computed {}", inst.ty, expect));
            }
        }
        Opcode::Alloca => {
            let InstData::Alloca { allocated, .. } = &inst.data else {
                return err("alloca without payload".into());
            };
            if inst.ty != allocated.ptr_to() {
                return err("alloca result type mismatch".into());
            }
        }
        Opcode::Call => {
            let InstData::Call { callee } = &inst.data else {
                return err("call without payload".into());
            };
            if let Some(target) = m.function(callee) {
                if !callee.starts_with("llvm.") {
                    if target.params.len() != inst.operands.len() {
                        return err(format!("call @{callee}: arity mismatch"));
                    }
                    for (i, p) in target.params.iter().enumerate() {
                        if op_ty(i) != p.ty {
                            return err(format!("call @{callee}: argument {i} type mismatch"));
                        }
                    }
                    if target.ret_ty != inst.ty {
                        return err(format!("call @{callee}: return type mismatch"));
                    }
                }
            }
        }
        Opcode::Select if (op_ty(0) != Type::I1 || op_ty(1) != inst.ty || op_ty(2) != inst.ty) => {
            return err("select type mismatch".into());
        }
        Opcode::Phi => {
            for op in &inst.operands {
                if f.value_type(m, op) != inst.ty {
                    return err("phi operand type mismatch".into());
                }
            }
        }
        op if op.is_cast() => {
            if inst.operands.len() != 1 {
                return err("cast needs exactly one operand".into());
            }
            let from = op_ty(0);
            let to = &inst.ty;
            let ok = match op {
                Opcode::ZExt | Opcode::SExt => {
                    from.is_int()
                        && to.is_int()
                        && from.int_width().unwrap() < to.int_width().unwrap()
                }
                Opcode::Trunc => {
                    from.is_int()
                        && to.is_int()
                        && from.int_width().unwrap() > to.int_width().unwrap()
                }
                Opcode::FPExt => from == Type::Float && *to == Type::Double,
                Opcode::FPTrunc => from == Type::Double && *to == Type::Float,
                Opcode::FPToSI => from.is_float() && to.is_int(),
                Opcode::SIToFP => from.is_int() && to.is_float(),
                Opcode::PtrToInt => from.is_ptr() && to.is_int(),
                Opcode::IntToPtr => from.is_int() && to.is_ptr(),
                Opcode::BitCast => from.is_ptr() && to.is_ptr(),
                _ => unreachable!(),
            };
            if !ok {
                return err(format!("invalid cast {} -> {}", from, inst.ty));
            }
        }
        Opcode::CondBr if op_ty(0) != Type::I1 => {
            return err("conditional branch condition must be i1".into());
        }
        Opcode::Br | Opcode::Ret | Opcode::Unreachable => {}
        // Every concrete opcode is covered by the guards above; the compiler
        // cannot see through `is_int_binop`-style guards.
        _ => {}
    }
    Ok(())
}
