//! Structural verifier.
//!
//! Checks the invariants the rest of the crate (and the Vitis simulator)
//! relies on: every block terminated exactly once, operand types consistent,
//! PHIs matching predecessor edges, defs dominating uses, and metadata
//! references in range.
//!
//! Failures are reported as located [`Diagnostic`]s naming the function,
//! block and instruction involved, rendered as
//! `error[verifier] @func:block:%N: message`.

use std::collections::HashSet;

use pass_core::{Diagnostic, Loc, PassResult};

use crate::analysis::{Cfg, DomTree};
use crate::inst::{InstData, Opcode};
use crate::module::{BlockId, Function, InstId, Module};
use crate::types::Type;
use crate::value::Value;
use crate::Result;

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

/// Verify a whole module (crate-error wrapper around [`verify_module_diag`]).
pub fn verify_module(m: &Module) -> Result<()> {
    verify_module_diag(m).map_err(crate::Error::from)
}

/// Where each placed instruction sits: its first `(block, position)` in
/// layout order, the answer `Function::block_of` gives, built in one sweep.
struct Placement(Vec<(BlockId, u32)>);

const UNPLACED: (BlockId, u32) = (BlockId::MAX, u32::MAX);

impl Placement {
    fn build(f: &Function) -> Placement {
        let mut at = vec![UNPLACED; f.insts.len()];
        for &b in &f.block_order {
            for (pos, &i) in f.blocks[b as usize].insts.iter().enumerate() {
                if let Some(slot) = at.get_mut(i as usize) {
                    if *slot == UNPLACED {
                        *slot = (b, pos as u32);
                    }
                }
            }
        }
        Placement(at)
    }

    fn of(&self, id: InstId) -> Option<(BlockId, u32)> {
        Some(self.0[id as usize]).filter(|&p| p != UNPLACED)
    }

    /// First position of `id` within block `b`, which contains it.
    fn position_in(&self, f: &Function, b: BlockId, id: InstId) -> u32 {
        match self.of(id) {
            Some((pb, pos)) if pb == b => pos,
            // Also placed in an earlier block: only a scan finds this one.
            _ => f.blocks[b as usize]
                .insts
                .iter()
                .position(|&x| x == id)
                .map_or(u32::MAX, |p| p as u32),
        }
    }
}

/// Live instructions in layout order, without collecting them.
fn placed(f: &Function) -> impl Iterator<Item = (BlockId, InstId)> + '_ {
    f.block_order
        .iter()
        .flat_map(move |&b| f.blocks[b as usize].insts.iter().map(move |&i| (b, i)))
}

/// Verify a single function definition.
///
/// Each check is one sweep over the function: operand placement comes from
/// one (block, position) index and operand types are borrowed, not cloned.
pub fn verify_function_diag(m: &Module, f: &Function) -> PassResult<()> {
    let err = |msg: String| Err(diag(msg, Loc::function(&f.name)));
    let berr = |b: BlockId, msg: String| {
        Err(diag(
            msg,
            Loc::function(&f.name).in_block(&f.blocks[b as usize].name),
        ))
    };
    let iloc = |b: BlockId, id: InstId| {
        Loc::function(&f.name)
            .in_block(&f.blocks[b as usize].name)
            .at_inst(format!("%{id}"))
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
    // PHI edges must exactly match predecessors (as sets).
    for &b in &f.block_order {
        let preds = &cfg.preds[b as usize];
        for &i in &f.blocks[b as usize].insts {
            let inst = f.inst(i);
            if let InstData::Phi { incoming } = &inst.data {
                if inst.operands.len() != incoming.len() {
                    return berr(b, format!("phi %{i} operand/block count mismatch"));
                }
                if !incoming.iter().all(|x| preds.contains(x))
                    || !preds.iter().all(|p| incoming.contains(p))
                {
                    return berr(
                        b,
                        format!("phi %{i} incoming blocks do not match predecessors"),
                    );
                }
            }
        }
    }
    // Operand sanity + type rules.
    for (b, id) in placed(f) {
        verify_inst(m, f, b, id)?;
    }
    // Defs dominate uses (phi uses checked at the incoming edge).
    let place = Placement::build(f);
    let dom = DomTree::build(f, &cfg);
    for (b, id) in placed(f) {
        let inst = f.inst(id);
        let phi_edges = match &inst.data {
            InstData::Phi { incoming } => Some(incoming),
            _ => None,
        };
        for (oi, op) in inst.operands.iter().enumerate() {
            let Value::Inst(def) = op else { continue };
            if !f.is_live(*def) {
                return Err(diag(
                    format!("use of removed instruction %{def}"),
                    iloc(b, id),
                ));
            }
            let Some((def_block, def_pos)) = place.of(*def) else {
                return Err(diag(
                    format!("use of unplaced instruction %{def}"),
                    iloc(b, id),
                ));
            };
            let ok = match phi_edges {
                Some(incoming) => dom.dominates(def_block, incoming[oi]),
                // Same-block ordering.
                None if def_block == b => def_pos < place.position_in(f, b, id),
                None => dom.dominates(def_block, b),
            };
            if !ok {
                return Err(diag(
                    format!("use of %{def} is not dominated by its def"),
                    iloc(b, id),
                ));
            }
        }
    }
    // Metadata references in range.
    for (b, id) in placed(f) {
        let inst = f.inst(id);
        if let Some(md) = inst.loop_md {
            if md as usize >= m.loop_mds.len() {
                return Err(diag(
                    format!("references out-of-range loop metadata !{md}"),
                    iloc(b, id),
                ));
            }
            if !inst.is_terminator() {
                return Err(diag(
                    "loop metadata on a non-terminator".to_string(),
                    iloc(b, id),
                ));
            }
        }
    }
    // Return types.
    for (b, id) in placed(f) {
        let inst = f.inst(id);
        if inst.opcode == Opcode::Ret {
            match (inst.operands.first(), &f.ret_ty) {
                (None, Type::Void) => {}
                (Some(v), ty) if *f.value_type_ref(m, v) == *ty => {}
                _ => return Err(diag("ret type mismatch".to_string(), iloc(b, id))),
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
    let op_ty = |i: usize| f.value_type_ref(m, &inst.operands[i]);
    match inst.opcode {
        op if op.is_int_binop() => {
            if inst.operands.len() != 2 {
                return err("binary op needs 2 operands".into());
            }
            if !inst.ty.is_int() || *op_ty(0) != inst.ty || *op_ty(1) != inst.ty {
                return err(format!("integer binop type mismatch ({})", inst.ty));
            }
        }
        op if op.is_float_binop() => {
            if inst.operands.len() != 2 || !inst.ty.is_float() {
                return err("float binop malformed".into());
            }
            if *op_ty(0) != inst.ty || *op_ty(1) != inst.ty {
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
                Some(p) if *p == *vt => {}
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
                if !f.value_type_ref(m, idx).is_int() {
                    return err("gep index must be an integer".into());
                }
            }
            // Each index after the first steps into one array dimension.
            let mut elem = base_ty;
            for _ in 1..inst.operands.len() {
                if let Type::Array(_, e) = elem {
                    elem = e;
                }
            }
            if inst.ty.pointee() != Some(elem) {
                let expect = crate::builder::gep_result_type(base_ty, inst.operands.len());
                return err(format!("gep result {} but computed {}", inst.ty, expect));
            }
        }
        Opcode::Alloca => {
            let InstData::Alloca { allocated, .. } = &inst.data else {
                return err("alloca without payload".into());
            };
            if inst.ty.pointee() != Some(allocated) {
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
                        if *op_ty(i) != p.ty {
                            return err(format!("call @{callee}: argument {i} type mismatch"));
                        }
                    }
                    if target.ret_ty != inst.ty {
                        return err(format!("call @{callee}: return type mismatch"));
                    }
                }
            }
        }
        Opcode::Select
            if (*op_ty(0) != Type::I1 || *op_ty(1) != inst.ty || *op_ty(2) != inst.ty) =>
        {
            return err("select type mismatch".into());
        }
        Opcode::Phi => {
            for op in &inst.operands {
                if *f.value_type_ref(m, op) != inst.ty {
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
                Opcode::FPExt => *from == Type::Float && *to == Type::Double,
                Opcode::FPTrunc => *from == Type::Double && *to == Type::Float,
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
        Opcode::CondBr if *op_ty(0) != Type::I1 => {
            return err("conditional branch condition must be i1".into());
        }
        Opcode::Br | Opcode::Ret | Opcode::Unreachable => {}
        // Every concrete opcode is covered by the guards above; the compiler
        // cannot see through `is_int_binop`-style guards.
        _ => {}
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::IrBuilder;
    use crate::inst::Inst;
    use crate::module::Param;

    fn ok_module() -> Module {
        let src = r#"
define i32 @f(i32 %a) {
entry:
  %x = add i32 %a, 1
  ret i32 %x
}
"#;
        crate::parser::parse_module("m", src).unwrap()
    }

    #[test]
    fn accepts_valid_module() {
        assert!(verify_module(&ok_module()).is_ok());
    }

    #[test]
    fn rejects_duplicate_function() {
        let mut m = ok_module();
        let f = m.functions[0].clone();
        m.functions.push(f);
        assert!(verify_module(&m).is_err());
    }

    #[test]
    fn rejects_missing_terminator() {
        let mut m = Module::new("m");
        let mut f = Function::new("f", vec![], Type::Void);
        let e = f.add_block("entry");
        f.push_inst(
            e,
            Inst::new(Opcode::Add, Type::I32, vec![Value::i32(1), Value::i32(2)]),
        );
        m.functions.push(f);
        let e = verify_module(&m).unwrap_err();
        assert!(e.to_string().contains("terminator"));
    }

    #[test]
    fn diagnostics_carry_function_block_and_inst() {
        let mut m = Module::new("m");
        let mut f = Function::new("f", vec![Param::new("a", Type::I64)], Type::Void);
        let e = f.add_block("entry");
        let mut b = IrBuilder::new(&mut f, e);
        // i32 add fed an i64 argument: invalid.
        b.add(Type::I32, Value::Arg(0), Value::i32(1));
        b.ret(None);
        m.functions.push(f);
        let d = verify_module_diag(&m).unwrap_err();
        assert_eq!(d.loc.function.as_deref(), Some("f"));
        assert_eq!(d.loc.block.as_deref(), Some("entry"));
        assert_eq!(d.loc.inst.as_deref(), Some("%0"));
        assert_eq!(
            d.to_string(),
            "error[verifier] @f:entry:%0: integer binop type mismatch (i32)"
        );
        // The crate-error wrapper renders the same text.
        assert_eq!(
            verify_module(&m).unwrap_err().to_string(),
            "error[verifier] @f:entry:%0: integer binop type mismatch (i32)"
        );
    }

    #[test]
    fn rejects_type_mismatch_binop() {
        let mut m = Module::new("m");
        let mut f = Function::new("f", vec![Param::new("a", Type::I64)], Type::Void);
        let e = f.add_block("entry");
        let mut b = IrBuilder::new(&mut f, e);
        // i32 add fed an i64 argument: invalid.
        b.add(Type::I32, Value::Arg(0), Value::i32(1));
        b.ret(None);
        m.functions.push(f);
        assert!(verify_module(&m).is_err());
    }

    #[test]
    fn rejects_phi_mismatched_predecessors() {
        let src = r#"
define i32 @f(i32 %a) {
entry:
  br label %next

next:
  %x = phi i32 [ 0, %entry ], [ 1, %next ]
  ret i32 %x
}
"#;
        let m = crate::parser::parse_module("m", src).unwrap();
        let e = verify_module(&m).unwrap_err();
        assert!(e.to_string().contains("incoming blocks"));
    }

    #[test]
    fn rejects_use_before_def_in_block() {
        let mut m = Module::new("m");
        let mut f = Function::new("f", vec![], Type::Void);
        let e = f.add_block("entry");
        // Manually create use-before-def: inst 0 uses inst 1.
        f.push_inst(
            e,
            Inst::new(Opcode::Add, Type::I32, vec![Value::Inst(1), Value::i32(1)]),
        );
        f.push_inst(
            e,
            Inst::new(Opcode::Add, Type::I32, vec![Value::i32(2), Value::i32(3)]),
        );
        f.push_inst(e, Inst::new(Opcode::Ret, Type::Void, vec![]));
        m.functions.push(f);
        let err = verify_module(&m).unwrap_err();
        assert!(err.to_string().contains("dominated"));
    }

    #[test]
    fn rejects_bad_cast() {
        let mut m = Module::new("m");
        let mut f = Function::new("f", vec![Param::new("a", Type::I64)], Type::Void);
        let e = f.add_block("entry");
        let mut b = IrBuilder::new(&mut f, e);
        b.cast(Opcode::SExt, Value::Arg(0), Type::I32); // narrowing sext
        b.ret(None);
        m.functions.push(f);
        assert!(verify_module(&m).is_err());
    }

    #[test]
    fn rejects_ret_type_mismatch() {
        let mut m = Module::new("m");
        let mut f = Function::new("f", vec![], Type::I32);
        let e = f.add_block("entry");
        let mut b = IrBuilder::new(&mut f, e);
        b.ret(Some(Value::f32(1.0)));
        m.functions.push(f);
        assert!(verify_module(&m).is_err());
    }

    #[test]
    fn rejects_call_arity_mismatch() {
        let src = r#"
define void @callee(i32 %x) {
entry:
  ret void
}

define void @caller() {
entry:
  call void @callee(i32 1, i32 2)
  ret void
}
"#;
        let m = crate::parser::parse_module("m", src).unwrap();
        let e = verify_module(&m).unwrap_err();
        assert!(e.to_string().contains("arity"));
    }

    #[test]
    fn rejects_out_of_range_metadata() {
        let mut m = ok_module();
        let f = &mut m.functions[0];
        let t = f.terminator(f.entry()).unwrap();
        f.inst_mut(t).loop_md = Some(42);
        assert!(verify_module(&m).is_err());
    }

    #[test]
    fn rejects_load_type_mismatch() {
        let mut m = Module::new("m");
        let mut f = Function::new("f", vec![Param::new("p", Type::Float.ptr_to())], Type::Void);
        let e = f.add_block("entry");
        let mut b = IrBuilder::new(&mut f, e);
        b.load(Type::I32, Value::Arg(0)); // i32 load through float*
        b.ret(None);
        m.functions.push(f);
        assert!(verify_module(&m).is_err());
    }

    #[test]
    fn gep_verification_checks_result_type() {
        let src = r#"
define float* @f([8 x float]* %a) {
entry:
  %p = getelementptr inbounds [8 x float], [8 x float]* %a, i64 0, i64 3
  ret float* %p
}
"#;
        let m = crate::parser::parse_module("m", src).unwrap();
        assert!(verify_module(&m).is_ok());
    }
}
