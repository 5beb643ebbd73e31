//! Structural verification of MLIR modules.
//!
//! Checks region shape (structured ops own exactly the regions their
//! definition says), terminator discipline, operand visibility (a value must
//! be defined by an op earlier in the same block or in an enclosing region)
//! and per-op typing rules for the dialects in this crate.

use std::collections::HashSet;

use pass_core::{Diagnostic, Loc, PassResult};

use crate::attr::Attr;
use crate::ir::{MType, MValue, MValueKind, MlirModule, Op};
use crate::Result;

fn diag(msg: impl Into<String>) -> Diagnostic {
    Diagnostic::error("verifier", msg)
}

/// Verify a module, producing a located diagnostic on failure (the
/// enclosing function ends up in `loc.function`, the offending op in
/// `loc.inst`).
pub fn verify_module_diag(m: &MlirModule) -> PassResult<()> {
    let mut names = HashSet::new();
    for op in &m.ops {
        if op.name != "func.func" {
            return Err(diag(format!(
                "top-level op must be func.func, found {}",
                op.name
            )));
        }
        let name = op
            .attrs
            .get("sym_name")
            .and_then(Attr::as_str)
            .ok_or_else(|| diag("func.func without sym_name"))?;
        if !names.insert(name.to_string()) {
            return Err(diag("duplicate function").with_loc(Loc::function(name)));
        }
        verify_func(op).map_err(|mut d| {
            d.loc.function = Some(name.to_string());
            d
        })?;
    }
    Ok(())
}

/// Verify a module (crate-error wrapper around [`verify_module_diag`]).
pub fn verify_module(m: &MlirModule) -> Result<()> {
    verify_module_diag(m).map_err(crate::Error::from)
}

struct Scope {
    /// Uids of ops whose results are visible, and blocks whose args are
    /// visible, at the current point.
    visible_ops: HashSet<u32>,
    visible_blocks: HashSet<u32>,
}

fn verify_func(f: &Op) -> PassResult<()> {
    if f.regions.len() != 1 {
        return Err(diag("func.func must have exactly 1 region"));
    }
    for ty in &f.regions[0].entry().arg_types {
        check_extents(ty).map_err(diag)?;
    }
    let mut scope = Scope {
        visible_ops: HashSet::new(),
        visible_blocks: HashSet::new(),
    };
    verify_region_block(f, 0, &mut scope)?;
    // Body must end in func.return.
    match f.regions[0].entry().ops.last() {
        Some(last) if last.name == "func.return" => Ok(()),
        _ => Err(diag("func.func body must end in func.return")),
    }
}

fn verify_region_block(op: &Op, region: usize, scope: &mut Scope) -> PassResult<()> {
    let block = op.regions[region].entry();
    scope.visible_blocks.insert(block.uid);
    let mut added_ops = Vec::new();
    for inner in &block.ops {
        verify_op(inner, scope)?;
        scope.visible_ops.insert(inner.uid);
        added_ops.push(inner.uid);
    }
    // Results defined in this block go out of scope on exit.
    for uid in added_ops {
        scope.visible_ops.remove(&uid);
    }
    scope.visible_blocks.remove(&block.uid);
    Ok(())
}

fn check_operand(op: &Op, v: &MValue, scope: &Scope) -> PassResult<()> {
    let ok = match v.kind {
        MValueKind::OpResult { op: uid, .. } => scope.visible_ops.contains(&uid),
        MValueKind::BlockArg { block, .. } => scope.visible_blocks.contains(&block),
    };
    if ok {
        Ok(())
    } else {
        Err(
            diag(format!("operand {:?} is not visible at its use", v.kind))
                .with_loc(Loc::default().at_inst(&op.name)),
        )
    }
}

/// A memref with a zero extent has no element to address: both flows
/// would divide by that extent or refuse the array, so it stops here.
/// Dynamic extents (`?`, stored as -1) stay legal.
fn check_extents(ty: &MType) -> std::result::Result<(), String> {
    match ty.memref_shape() {
        Some(shape) if shape.contains(&0) => Err(format!("{ty} has a zero extent")),
        _ => Ok(()),
    }
}

fn expect(cond: bool, op: &Op, msg: &str) -> PassResult<()> {
    if cond {
        Ok(())
    } else {
        Err(diag(msg).with_loc(Loc::default().at_inst(&op.name)))
    }
}

fn verify_op(op: &Op, scope: &mut Scope) -> PassResult<()> {
    for v in &op.operands {
        check_operand(op, v, scope)?;
    }
    for ty in &op.result_types {
        check_extents(ty).map_err(|m| diag(m).with_loc(Loc::default().at_inst(&op.name)))?;
    }
    match op.name.as_str() {
        "affine.for" => {
            expect(op.regions.len() == 1, op, "needs exactly 1 region")?;
            expect(
                op.regions[0].entry().arg_types == vec![MType::Index],
                op,
                "body must take a single index argument",
            )?;
            let lb = op.int_attr("lower_bound");
            let ub = op.int_attr("upper_bound");
            let step = op.int_attr("step");
            expect(
                lb.is_some() && ub.is_some() && step.is_some(),
                op,
                "missing bound attributes",
            )?;
            expect(step.unwrap() > 0, op, "step must be positive")?;
            expect(
                op.regions[0]
                    .entry()
                    .ops
                    .last()
                    .map(|o| o.name == "affine.yield")
                    .unwrap_or(false),
                op,
                "body must end in affine.yield",
            )?;
            verify_region_block(op, 0, scope)?;
        }
        "scf.for" => {
            expect(op.operands.len() == 3, op, "needs lb, ub, step operands")?;
            for v in &op.operands {
                expect(v.ty == MType::Index, op, "bounds must be index-typed")?;
            }
            expect(
                op.regions[0]
                    .entry()
                    .ops
                    .last()
                    .map(|o| o.name == "scf.yield")
                    .unwrap_or(false),
                op,
                "body must end in scf.yield",
            )?;
            verify_region_block(op, 0, scope)?;
        }
        "scf.if" => {
            expect(op.operands[0].ty == MType::I1, op, "condition must be i1")?;
            expect(op.regions.len() == 2, op, "needs then and else regions")?;
            verify_region_block(op, 0, scope)?;
            verify_region_block(op, 1, scope)?;
        }
        "affine.load" | "memref.load" => {
            let mref = &op.operands[0];
            let elem = mref.ty.memref_elem().ok_or_else(|| {
                diag("not a memref operand").with_loc(Loc::default().at_inst(&op.name))
            })?;
            expect(
                op.result_types == vec![elem.clone()],
                op,
                "result must be the memref element type",
            )?;
            if op.name == "affine.load" {
                let map = op.attrs.get("map").and_then(Attr::as_map).ok_or_else(|| {
                    diag("missing map").with_loc(Loc::default().at_inst("affine.load"))
                })?;
                expect(
                    map.num_dims as usize == op.operands.len() - 1,
                    op,
                    "map arity must match dim operands",
                )?;
                expect(
                    map.results.len() == mref.ty.memref_shape().map(|s| s.len()).unwrap_or(0),
                    op,
                    "map rank must match memref rank",
                )?;
            }
            for idx in &op.operands[1..] {
                expect(idx.ty == MType::Index, op, "indices must be index-typed")?;
            }
        }
        "affine.store" | "memref.store" => {
            let v = &op.operands[0];
            let mref = &op.operands[1];
            let elem = mref.ty.memref_elem().ok_or_else(|| {
                diag("not a memref operand").with_loc(Loc::default().at_inst(&op.name))
            })?;
            expect(&v.ty == elem, op, "stored value must match element type")?;
            if op.name == "affine.store" {
                let map = op.attrs.get("map").and_then(Attr::as_map).ok_or_else(|| {
                    diag("missing map").with_loc(Loc::default().at_inst("affine.store"))
                })?;
                expect(
                    map.num_dims as usize == op.operands.len() - 2,
                    op,
                    "map arity must match dim operands",
                )?;
            }
            for idx in &op.operands[2..] {
                expect(idx.ty == MType::Index, op, "indices must be index-typed")?;
            }
        }
        "arith.constant" => {
            expect(
                op.attrs.contains_key("value"),
                op,
                "missing value attribute",
            )?;
        }
        "arith.addf" | "arith.subf" | "arith.mulf" | "arith.divf" => {
            expect(op.operands.len() == 2, op, "needs 2 operands")?;
            expect(
                op.operands[0].ty.is_float() && op.operands[0].ty == op.operands[1].ty,
                op,
                "operands must be matching floats",
            )?;
            expect(
                op.result_types == vec![op.operands[0].ty.clone()],
                op,
                "result type mismatch",
            )?;
        }
        "arith.addi" | "arith.subi" | "arith.muli" | "arith.divsi" | "arith.remsi" => {
            expect(op.operands.len() == 2, op, "needs 2 operands")?;
            expect(
                op.operands[0].ty.is_int_like() && op.operands[0].ty == op.operands[1].ty,
                op,
                "operands must be matching integers",
            )?;
        }
        "arith.cmpi" | "arith.cmpf" => {
            expect(op.operands.len() == 2, op, "needs 2 operands")?;
            expect(
                op.operands[0].ty == op.operands[1].ty,
                op,
                "operands must match",
            )?;
            expect(
                op.attrs.get("predicate").and_then(Attr::as_str).is_some(),
                op,
                "missing predicate",
            )?;
            expect(op.result_types == vec![MType::I1], op, "must produce i1")?;
        }
        "arith.select" => {
            expect(op.operands.len() == 3, op, "needs 3 operands")?;
            expect(op.operands[0].ty == MType::I1, op, "condition must be i1")?;
            expect(
                op.operands[1].ty == op.operands[2].ty,
                op,
                "branch types must match",
            )?;
        }
        "func.return" | "affine.yield" | "scf.yield" => {}
        _ => {}
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dialects::{affine, arith, func, memref};
    use crate::parser::parse_module;

    #[test]
    fn accepts_parsed_gemm() {
        let src = r#"
func.func @f(%A: memref<4x4xf32>) {
  affine.for %i = 0 to 4 {
    affine.for %j = 0 to 4 {
      %v = affine.load %A[%i, %j] : memref<4x4xf32>
      %w = arith.mulf %v, %v : f32
      affine.store %w, %A[%i, %j] : memref<4x4xf32>
    }
  }
  func.return
}
"#;
        let m = parse_module("m", src).unwrap();
        verify_module(&m).unwrap();
    }

    #[test]
    fn rejects_duplicate_function() {
        let src = "func.func @f() {\n  func.return\n}\nfunc.func @f() {\n  func.return\n}\n";
        let m = parse_module("m", src).unwrap();
        assert!(verify_module(&m)
            .unwrap_err()
            .to_string()
            .contains("duplicate"));
    }

    #[test]
    fn rejects_missing_return() {
        let mut m = MlirModule::new("m");
        let f = func::func("f", vec![], MType::None);
        m.ops.push(f);
        assert!(verify_module(&m)
            .unwrap_err()
            .to_string()
            .contains("func.return"));
    }

    #[test]
    fn rejects_out_of_scope_iv_use() {
        // Build: loop defines %iv; a later op outside the loop uses it.
        let mut m = MlirModule::new("m");
        let mut f = func::func("f", vec![MType::F32.memref(&[4])], MType::None);
        let a = f.regions[0].entry().arg(0);
        let mut l = affine::for_loop(0, 4, 1);
        let iv = l.regions[0].entry().arg(0);
        l.regions[0].entry_mut().ops.push(affine::yield_());
        let leak = memref::load(a, vec![iv]); // uses iv outside the loop
        {
            let body = f.regions[0].entry_mut();
            body.ops.push(l);
            body.ops.push(leak);
            body.ops.push(func::ret(None));
        }
        m.ops.push(f);
        let e = verify_module(&m).unwrap_err();
        assert!(e.to_string().contains("not visible"));
    }

    #[test]
    fn rejects_mixed_float_types() {
        let mut m = MlirModule::new("m");
        let mut f = func::func("f", vec![], MType::None);
        let a = arith::const_float(1.0, MType::F32);
        let b = arith::const_float(1.0, MType::F64);
        let mut bad = arith::addf(a.result(0), b.result(0));
        bad.result_types = vec![MType::F32];
        {
            let body = f.regions[0].entry_mut();
            body.ops.push(a);
            body.ops.push(b);
            body.ops.push(bad);
            body.ops.push(func::ret(None));
        }
        m.ops.push(f);
        assert!(verify_module(&m)
            .unwrap_err()
            .to_string()
            .contains("matching floats"));
    }

    #[test]
    fn rejects_map_rank_mismatch() {
        let src = r#"
func.func @f(%A: memref<4x4xf32>) {
  affine.for %i = 0 to 4 {
    %v = affine.load %A[%i] : memref<4x4xf32>
  }
  func.return
}
"#;
        let m = parse_module("m", src).unwrap();
        assert!(verify_module(&m).unwrap_err().to_string().contains("rank"));
    }

    #[test]
    fn rejects_missing_yield() {
        let mut m = MlirModule::new("m");
        let mut f = func::func("f", vec![], MType::None);
        let l = affine::for_loop(0, 4, 1); // body left empty — no yield
        {
            let body = f.regions[0].entry_mut();
            body.ops.push(l);
            body.ops.push(func::ret(None));
        }
        m.ops.push(f);
        assert!(verify_module(&m)
            .unwrap_err()
            .to_string()
            .contains("affine.yield"));
    }

    #[test]
    fn rejects_zero_extents_with_location() {
        let src = "func.func @f(%A: memref<4x0xf32>) {\n  func.return\n}\n";
        let m = parse_module("m", src).unwrap();
        assert_eq!(
            verify_module(&m).unwrap_err().to_string(),
            "error[verifier] @f: memref<4x0xf32> has a zero extent"
        );
        let src = "func.func @g() {\n  %b = memref.alloca() : memref<0xf32>\n  func.return\n}\n";
        let m = parse_module("m", src).unwrap();
        assert_eq!(
            verify_module(&m).unwrap_err().to_string(),
            "error[verifier] @g:memref.alloca: memref<0xf32> has a zero extent"
        );
        // A dynamic extent is not a zero one.
        let src = "func.func @h(%A: memref<?x4xf32>) {\n  func.return\n}\n";
        verify_module(&parse_module("m", src).unwrap()).unwrap();
    }

    #[test]
    fn rejects_store_type_mismatch() {
        let mut m = MlirModule::new("m");
        let mut f = func::func("f", vec![MType::F32.memref(&[4])], MType::None);
        let a = f.regions[0].entry().arg(0);
        let c = arith::const_index(0);
        let bad =
            crate::ir::Op::new("memref.store").with_operands(vec![c.result(0), a, c.result(0)]); // stores an index into f32 memref
        {
            let body = f.regions[0].entry_mut();
            body.ops.push(c);
            body.ops.push(bad);
            body.ops.push(func::ret(None));
        }
        m.ops.push(f);
        assert!(verify_module(&m)
            .unwrap_err()
            .to_string()
            .contains("element type"));
    }
}
