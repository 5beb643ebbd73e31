//! Translation from cf-level MLIR into the `llvm-lite` module format.
//!
//! This stage fuses MLIR's `convert-to-llvm` dialect conversion with
//! `mlir-translate`: block arguments become PHI nodes, memrefs become bare
//! pointers with linearized index arithmetic, `index` becomes `i64`, and
//! `hls.*` attributes on latch branches become `!llvm.loop` metadata.
//!
//! `memref.alloc` deliberately lowers to `@malloc`/`@free` calls (as the
//! real memref lowering does) — dynamic allocation is one of the constructs
//! Vitis HLS rejects, and demoting it is the adaptor's job.

use std::collections::HashMap;

use llvm_lite::{
    FloatPred, Function, Inst, InstData, IntPred, LoopMetadata, Module, Opcode, Type, Value,
};
use mlir_lite::attr::Attr;
use mlir_lite::ir::{MType, MValue, MValueKind, MlirModule, Op};

use crate::Result;

fn err(msg: impl Into<String>) -> crate::Error {
    crate::Error::Transform(msg.into())
}

/// Convert an MLIR type to an LLVM type. Memrefs become pointers to their
/// scalar element type (bare-pointer convention).
pub fn convert_type(t: &MType) -> Type {
    match t {
        MType::Index => Type::I64,
        MType::Int(w) => Type::Int(*w),
        MType::F32 => Type::Float,
        MType::F64 => Type::Double,
        MType::MemRef { elem, .. } => convert_type(elem).ptr_to(),
        MType::LlvmPtr(p) => convert_type(p).ptr_to(),
        MType::LlvmArray(n, e) => convert_type(e).array_of(*n),
        MType::None => Type::Void,
    }
}

/// Shape string recorded on memref parameters, e.g. `4x4xf32`.
pub fn shape_string(t: &MType) -> Option<String> {
    let shape = t.memref_shape()?;
    let elem = t.memref_elem()?;
    let mut s = String::new();
    for d in shape {
        s.push_str(&format!("{d}x"));
    }
    s.push_str(&elem.to_string());
    Some(s)
}

/// Translate a cf-level module.
pub fn translate(m: &MlirModule) -> Result<Module> {
    let mut out = Module::new(m.name.clone());
    out.target_triple = Some("fpga64-xilinx-none".to_string());
    for f in &m.ops {
        if f.name != "func.func" {
            return Err(err(format!("unexpected top-level op {}", f.name)));
        }
        let func = translate_func(&mut out, f)?;
        out.functions.push(func);
    }
    Ok(out)
}

struct FuncCx<'a> {
    module: &'a mut Module,
    values: HashMap<(u32, u32, bool), Value>,
    /// MLIR block uid -> llvm block id.
    blocks: HashMap<u32, llvm_lite::BlockId>,
    /// llvm block id -> phi insts for its args (in arg order).
    phis: HashMap<llvm_lite::BlockId, Vec<llvm_lite::InstId>>,
}

fn vkey(v: &MValueKind) -> (u32, u32, bool) {
    match v {
        MValueKind::OpResult { op, idx } => (*op, *idx, false),
        MValueKind::BlockArg { block, idx } => (*block, *idx, true),
    }
}

impl FuncCx<'_> {
    fn value(&self, v: &MValue) -> Result<Value> {
        self.values
            .get(&vkey(&v.kind))
            .cloned()
            .ok_or_else(|| err(format!("untranslated value {:?}", v.kind)))
    }

    fn bind(&mut self, op: &Op, idx: u32, v: Value) {
        self.values.insert((op.uid, idx, false), v);
    }

    /// Declare an intrinsic/external on first use.
    fn declare(&mut self, name: &str, params: Vec<Type>, ret: Type) {
        if self.module.function(name).is_none() {
            let ps = params
                .into_iter()
                .enumerate()
                .map(|(i, t)| llvm_lite::module::Param::new(format!("a{i}"), t))
                .collect();
            self.module
                .functions
                .push(Function::declaration(name, ps, ret));
        }
    }
}

fn translate_func(module: &mut Module, f: &Op) -> Result<Function> {
    let name = f
        .attrs
        .get("sym_name")
        .and_then(Attr::as_str)
        .ok_or_else(|| err("func.func without sym_name"))?;
    let ret_ty = f
        .attrs
        .get("ret_type")
        .and_then(Attr::as_type)
        .map(convert_type)
        .unwrap_or(Type::Void);

    let region = &f.regions[0];
    let entry = &region.blocks[0];
    let partition = f
        .attrs
        .get("hls.array_partition")
        .and_then(Attr::as_str)
        .map(str::to_string);
    let mut params = Vec::new();
    for (i, t) in entry.arg_types.iter().enumerate() {
        let mut p = llvm_lite::module::Param::new(format!("arg{i}"), convert_type(t));
        if let Some(s) = shape_string(t) {
            p.attrs.insert("mha.shape".to_string(), s);
            if let Some(spec) = &partition {
                p.attrs
                    .insert("hls.array_partition".to_string(), spec.clone());
            }
        }
        params.push(p);
    }
    let mut func = Function::new(name, params, ret_ty);
    for (k, v) in &f.attrs {
        if k.starts_with("hls.") {
            // Copy string payloads, not their quoted MLIR rendering, so the
            // printed module re-parses.
            let val = match v {
                Attr::Unit => "1".to_string(),
                Attr::Str(s) => s.clone(),
                other => other.to_string(),
            };
            func.attrs.insert(k.clone(), val);
        }
    }

    let mut cx = FuncCx {
        module,
        values: HashMap::new(),
        blocks: HashMap::new(),
        phis: HashMap::new(),
    };

    // Pass 1: create blocks and PHIs for block args.
    for (bi, b) in region.blocks.iter().enumerate() {
        let label = if bi == 0 {
            "entry".to_string()
        } else {
            format!("bb{bi}")
        };
        let lb = func.add_block(label);
        cx.blocks.insert(b.uid, lb);
        if bi == 0 {
            for (i, _) in b.arg_types.iter().enumerate() {
                cx.values
                    .insert((b.uid, i as u32, true), Value::Arg(i as u32));
            }
        } else {
            let mut phi_ids = Vec::new();
            for (i, t) in b.arg_types.iter().enumerate() {
                let phi = func.push_inst(
                    lb,
                    Inst::new(Opcode::Phi, convert_type(t), vec![])
                        .with_data(InstData::Phi {
                            incoming: Vec::new(),
                        })
                        .with_name(format!("bb{bi}.arg{i}")),
                );
                cx.values.insert((b.uid, i as u32, true), Value::Inst(phi));
                phi_ids.push(phi);
            }
            cx.phis.insert(lb, phi_ids);
        }
    }

    // Pass 2: translate op lists.
    for b in &region.blocks {
        let lb = cx.blocks[&b.uid];
        for op in &b.ops {
            translate_op(&mut cx, &mut func, lb, op)?;
        }
    }
    Ok(func)
}

fn int_pred(p: &str) -> Result<IntPred> {
    IntPred::from_mnemonic(p).ok_or_else(|| err(format!("bad icmp predicate '{p}'")))
}

fn float_pred(p: &str) -> Result<FloatPred> {
    FloatPred::from_mnemonic(p).ok_or_else(|| err(format!("bad fcmp predicate '{p}'")))
}

/// Emit the linear index for a memref access: `((i0*d1 + i1)*d2 + i2)...`.
fn linearize(
    func: &mut Function,
    lb: llvm_lite::BlockId,
    shape: &[i64],
    indices: &[Value],
) -> Value {
    debug_assert_eq!(shape.len(), indices.len());
    if indices.is_empty() {
        return Value::i64(0);
    }
    let mut lin = indices[0].clone();
    for (d, idx) in shape.iter().zip(indices).skip(1) {
        let mul = func.push_inst(
            lb,
            Inst::new(Opcode::Mul, Type::I64, vec![lin, Value::i64(*d)]),
        );
        let add = func.push_inst(
            lb,
            Inst::new(Opcode::Add, Type::I64, vec![Value::Inst(mul), idx.clone()]),
        );
        lin = Value::Inst(add);
    }
    lin
}

fn memref_shape_of(v: &MValue) -> Result<(Vec<i64>, Type)> {
    match &v.ty {
        MType::MemRef { shape, elem } => Ok((shape.clone(), convert_type(elem))),
        other => Err(err(format!("expected memref operand, got {other}"))),
    }
}

fn translate_op(
    cx: &mut FuncCx<'_>,
    func: &mut Function,
    lb: llvm_lite::BlockId,
    op: &Op,
) -> Result<()> {
    let bin_int = |o: Opcode| -> Option<Opcode> { Some(o) };
    match op.name.as_str() {
        "arith.constant" => {
            let attr = op
                .attrs
                .get("value")
                .ok_or_else(|| err("constant without value"))?;
            let v = match attr {
                Attr::Int(v, t) => Value::const_int(convert_type(t), *v as i128),
                Attr::Float(v, t) => match convert_type(t) {
                    Type::Float => Value::f32(*v as f32),
                    _ => Value::f64(*v),
                },
                other => return Err(err(format!("unsupported constant {other:?}"))),
            };
            cx.bind(op, 0, v);
        }
        "arith.addi" | "arith.subi" | "arith.muli" | "arith.divsi" | "arith.remsi"
        | "arith.andi" | "arith.ori" | "arith.xori" => {
            let opcode = match op.name.as_str() {
                "arith.addi" => Opcode::Add,
                "arith.subi" => Opcode::Sub,
                "arith.muli" => Opcode::Mul,
                "arith.divsi" => Opcode::SDiv,
                "arith.remsi" => Opcode::SRem,
                "arith.andi" => Opcode::And,
                "arith.ori" => Opcode::Or,
                _ => Opcode::Xor,
            };
            let _ = bin_int(opcode);
            let a = cx.value(&op.operands[0])?;
            let b = cx.value(&op.operands[1])?;
            let ty = convert_type(&op.operands[0].ty);
            let id = func.push_inst(lb, Inst::new(opcode, ty, vec![a, b]));
            cx.bind(op, 0, Value::Inst(id));
        }
        "arith.addf" | "arith.subf" | "arith.mulf" | "arith.divf" => {
            let opcode = match op.name.as_str() {
                "arith.addf" => Opcode::FAdd,
                "arith.subf" => Opcode::FSub,
                "arith.mulf" => Opcode::FMul,
                _ => Opcode::FDiv,
            };
            let a = cx.value(&op.operands[0])?;
            let b = cx.value(&op.operands[1])?;
            let ty = convert_type(&op.operands[0].ty);
            let id = func.push_inst(lb, Inst::new(opcode, ty, vec![a, b]));
            cx.bind(op, 0, Value::Inst(id));
        }
        "arith.negf" => {
            let a = cx.value(&op.operands[0])?;
            let ty = convert_type(&op.operands[0].ty);
            let id = func.push_inst(lb, Inst::new(Opcode::FNeg, ty, vec![a]));
            cx.bind(op, 0, Value::Inst(id));
        }
        "arith.cmpi" => {
            let pred = int_pred(
                op.attrs
                    .get("predicate")
                    .and_then(Attr::as_str)
                    .unwrap_or(""),
            )?;
            let a = cx.value(&op.operands[0])?;
            let b = cx.value(&op.operands[1])?;
            let id = func.push_inst(
                lb,
                Inst::new(Opcode::ICmp, Type::I1, vec![a, b]).with_data(InstData::ICmp(pred)),
            );
            cx.bind(op, 0, Value::Inst(id));
        }
        "arith.cmpf" => {
            let pred = float_pred(
                op.attrs
                    .get("predicate")
                    .and_then(Attr::as_str)
                    .unwrap_or(""),
            )?;
            let a = cx.value(&op.operands[0])?;
            let b = cx.value(&op.operands[1])?;
            let id = func.push_inst(
                lb,
                Inst::new(Opcode::FCmp, Type::I1, vec![a, b]).with_data(InstData::FCmp(pred)),
            );
            cx.bind(op, 0, Value::Inst(id));
        }
        "arith.select" => {
            let c = cx.value(&op.operands[0])?;
            let a = cx.value(&op.operands[1])?;
            let b = cx.value(&op.operands[2])?;
            let ty = convert_type(&op.operands[1].ty);
            let id = func.push_inst(lb, Inst::new(Opcode::Select, ty, vec![c, a, b]));
            cx.bind(op, 0, Value::Inst(id));
        }
        "arith.index_cast" => {
            let v = cx.value(&op.operands[0])?;
            let from = convert_type(&op.operands[0].ty);
            let to = convert_type(&op.result_types[0]);
            let fw = from.int_width().unwrap_or(64);
            let tw = to.int_width().unwrap_or(64);
            let bound = match fw.cmp(&tw) {
                std::cmp::Ordering::Equal => v,
                std::cmp::Ordering::Less => {
                    Value::Inst(func.push_inst(lb, Inst::new(Opcode::SExt, to, vec![v])))
                }
                std::cmp::Ordering::Greater => {
                    Value::Inst(func.push_inst(lb, Inst::new(Opcode::Trunc, to, vec![v])))
                }
            };
            cx.bind(op, 0, bound);
        }
        "arith.sitofp" | "arith.fptosi" => {
            let v = cx.value(&op.operands[0])?;
            let to = convert_type(&op.result_types[0]);
            let opcode = if op.name == "arith.sitofp" {
                Opcode::SIToFP
            } else {
                Opcode::FPToSI
            };
            let id = func.push_inst(lb, Inst::new(opcode, to, vec![v]));
            cx.bind(op, 0, Value::Inst(id));
        }
        "math.sqrt" | "math.exp" | "math.absf" => {
            let v = cx.value(&op.operands[0])?;
            let ty = convert_type(&op.operands[0].ty);
            let suffix = if ty == Type::Float { "f32" } else { "f64" };
            let base = match op.name.as_str() {
                "math.sqrt" => "llvm.sqrt",
                "math.exp" => "llvm.exp",
                _ => "llvm.fabs",
            };
            let callee = format!("{base}.{suffix}");
            cx.declare(&callee, vec![ty.clone()], ty.clone());
            let id = func.push_inst(
                lb,
                Inst::new(Opcode::Call, ty, vec![v]).with_data(InstData::Call { callee }),
            );
            cx.bind(op, 0, Value::Inst(id));
        }
        "memref.load" => {
            let (shape, elem) = memref_shape_of(&op.operands[0])?;
            let base = cx.value(&op.operands[0])?;
            let idx: Vec<Value> = op.operands[1..]
                .iter()
                .map(|v| cx.value(v))
                .collect::<Result<_>>()?;
            let lin = linearize(func, lb, &shape, &idx);
            let gep = func.push_inst(
                lb,
                Inst::new(Opcode::Gep, elem.ptr_to(), vec![base, lin]).with_data(InstData::Gep {
                    base_ty: elem.clone(),
                    inbounds: true,
                }),
            );
            let ld = func.push_inst(
                lb,
                Inst::new(Opcode::Load, elem.clone(), vec![Value::Inst(gep)]).with_data(
                    InstData::Load {
                        align: elem.align_in_bytes() as u32,
                    },
                ),
            );
            cx.bind(op, 0, Value::Inst(ld));
        }
        "memref.store" => {
            let (shape, elem) = memref_shape_of(&op.operands[1])?;
            let v = cx.value(&op.operands[0])?;
            let base = cx.value(&op.operands[1])?;
            let idx: Vec<Value> = op.operands[2..]
                .iter()
                .map(|v| cx.value(v))
                .collect::<Result<_>>()?;
            let lin = linearize(func, lb, &shape, &idx);
            let gep = func.push_inst(
                lb,
                Inst::new(Opcode::Gep, elem.ptr_to(), vec![base, lin]).with_data(InstData::Gep {
                    base_ty: elem.clone(),
                    inbounds: true,
                }),
            );
            func.push_inst(
                lb,
                Inst::new(Opcode::Store, Type::Void, vec![v, Value::Inst(gep)]).with_data(
                    InstData::Store {
                        align: elem.align_in_bytes() as u32,
                    },
                ),
            );
        }
        "memref.alloca" => {
            let ty = &op.result_types[0];
            let len = ty
                .memref_len()
                .ok_or_else(|| err("alloca of dynamic memref"))? as u64;
            let elem = convert_type(ty.memref_elem().unwrap());
            let arr = elem.array_of(len);
            let a = func.push_inst(
                lb,
                Inst::new(Opcode::Alloca, arr.ptr_to(), vec![])
                    .with_data(InstData::Alloca {
                        align: elem.align_in_bytes() as u32,
                        allocated: arr.clone(),
                    })
                    .with_name("buf"),
            );
            // Decay to element pointer for uniform linear indexing.
            let gep = func.push_inst(
                lb,
                Inst::new(
                    Opcode::Gep,
                    elem.ptr_to(),
                    vec![Value::Inst(a), Value::i64(0), Value::i64(0)],
                )
                .with_data(InstData::Gep {
                    base_ty: arr,
                    inbounds: true,
                }),
            );
            cx.bind(op, 0, Value::Inst(gep));
        }
        "memref.alloc" => {
            // Heap allocation -> @malloc + bitcast, the construct the
            // adaptor must demote.
            let ty = &op.result_types[0];
            let len = ty
                .memref_len()
                .ok_or_else(|| err("alloc of dynamic memref"))? as u64;
            let elem = convert_type(ty.memref_elem().unwrap());
            let bytes = len * elem.size_in_bytes();
            cx.declare("malloc", vec![Type::I64], Type::I8.ptr_to());
            let call = func.push_inst(
                lb,
                Inst::new(
                    Opcode::Call,
                    Type::I8.ptr_to(),
                    vec![Value::i64(bytes as i64)],
                )
                .with_data(InstData::Call {
                    callee: "malloc".to_string(),
                }),
            );
            let cast = func.push_inst(
                lb,
                Inst::new(Opcode::BitCast, elem.ptr_to(), vec![Value::Inst(call)]),
            );
            cx.bind(op, 0, Value::Inst(cast));
        }
        "memref.dealloc" => {
            let v = cx.value(&op.operands[0])?;
            cx.declare("free", vec![Type::I8.ptr_to()], Type::Void);
            let cast = func.push_inst(lb, Inst::new(Opcode::BitCast, Type::I8.ptr_to(), vec![v]));
            func.push_inst(
                lb,
                Inst::new(Opcode::Call, Type::Void, vec![Value::Inst(cast)]).with_data(
                    InstData::Call {
                        callee: "free".to_string(),
                    },
                ),
            );
        }
        "cf.br" => {
            let (dest_uid, args) = &op.successors[0];
            let dest = cx.blocks[dest_uid];
            fill_phis(cx, func, lb, dest, args)?;
            let mut inst =
                Inst::new(Opcode::Br, Type::Void, vec![]).with_data(InstData::Br { dest });
            if let Some(md) = hls_attrs_to_md(op) {
                let id = cx.module.add_loop_md(md);
                inst.loop_md = Some(id);
            }
            func.push_inst(lb, inst);
        }
        "cf.cond_br" => {
            let c = cx.value(&op.operands[0])?;
            let (t_uid, t_args) = &op.successors[0];
            let (f_uid, f_args) = &op.successors[1];
            let on_true = cx.blocks[t_uid];
            let on_false = cx.blocks[f_uid];
            fill_phis(cx, func, lb, on_true, t_args)?;
            fill_phis(cx, func, lb, on_false, f_args)?;
            func.push_inst(
                lb,
                Inst::new(Opcode::CondBr, Type::Void, vec![c])
                    .with_data(InstData::CondBr { on_true, on_false }),
            );
        }
        "func.return" => {
            let ops = op
                .operands
                .iter()
                .map(|v| cx.value(v))
                .collect::<Result<Vec<_>>>()?;
            func.push_inst(lb, Inst::new(Opcode::Ret, Type::Void, ops));
        }
        "func.call" => {
            let callee = op
                .attrs
                .get("callee")
                .and_then(Attr::as_str)
                .ok_or_else(|| err("call without callee"))?
                .to_string();
            let args = op
                .operands
                .iter()
                .map(|v| cx.value(v))
                .collect::<Result<Vec<_>>>()?;
            let ret = op
                .result_types
                .first()
                .map(convert_type)
                .unwrap_or(Type::Void);
            let id = func.push_inst(
                lb,
                Inst::new(Opcode::Call, ret.clone(), args).with_data(InstData::Call { callee }),
            );
            if ret != Type::Void {
                cx.bind(op, 0, Value::Inst(id));
            }
        }
        other => return Err(err(format!("cannot translate op '{other}'"))),
    }
    Ok(())
}

fn fill_phis(
    cx: &mut FuncCx<'_>,
    func: &mut Function,
    from: llvm_lite::BlockId,
    to: llvm_lite::BlockId,
    args: &[MValue],
) -> Result<()> {
    if args.is_empty() {
        return Ok(());
    }
    let phis = cx
        .phis
        .get(&to)
        .cloned()
        .ok_or_else(|| err("branch args to block without phis"))?;
    for (phi, arg) in phis.iter().zip(args) {
        let v = cx.value(arg)?;
        let inst = func.inst_mut(*phi);
        inst.operands.push(v);
        match &mut inst.data {
            InstData::Phi { incoming } => incoming.push(from),
            _ => unreachable!("phi slot"),
        }
    }
    Ok(())
}

/// Decode `hls.*` attributes on a latch branch into loop metadata.
fn hls_attrs_to_md(op: &Op) -> Option<LoopMetadata> {
    let mut md = LoopMetadata::default();
    if let Some(ii) = op.int_attr("hls.pipeline_ii") {
        md.pipeline_ii = Some(ii as u32);
    }
    if let Some(f) = op.int_attr("hls.unroll_factor") {
        md.unroll_factor = Some(f as u32);
    }
    if op.attrs.contains_key("hls.unroll_full") {
        md.unroll_full = true;
    }
    if op.attrs.contains_key("hls.flatten") {
        md.flatten = true;
    }
    if md.is_empty() {
        None
    } else {
        Some(md)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlir_lite::parser::parse_module;

    fn lower_no_cleanup(src: &str) -> Module {
        let m = parse_module("t", src).unwrap();
        crate::lower_module(m).unwrap()
    }

    #[test]
    fn type_conversion() {
        assert_eq!(convert_type(&MType::Index), Type::I64);
        assert_eq!(convert_type(&MType::F32), Type::Float);
        assert_eq!(
            convert_type(&MType::F32.memref(&[4, 4])),
            Type::Float.ptr_to()
        );
        assert_eq!(
            shape_string(&MType::F32.memref(&[4, 4])).unwrap(),
            "4x4xf32"
        );
        assert_eq!(shape_string(&MType::F32), None);
    }

    #[test]
    fn loop_structure_with_phi() {
        let m = lower_no_cleanup(
            r#"
func.func @f(%m: memref<4xf32>) {
  affine.for %i = 0 to 4 {
    %v = affine.load %m[%i] : memref<4xf32>
    affine.store %v, %m[%i] : memref<4xf32>
  }
  func.return
}
"#,
        );
        let f = m.function("f").unwrap();
        assert_eq!(f.block_order.len(), 4);
        assert_eq!(f.count_opcode(Opcode::Phi), 1);
        llvm_lite::verifier::verify_module(&m).unwrap();
    }

    #[test]
    fn two_d_access_is_linearized() {
        let m = lower_no_cleanup(
            r#"
func.func @f(%m: memref<4x8xf32>) {
  affine.for %i = 0 to 4 {
    affine.for %j = 0 to 8 {
      %v = affine.load %m[%i, %j] : memref<4x8xf32>
      affine.store %v, %m[%i, %j] : memref<4x8xf32>
    }
  }
  func.return
}
"#,
        );
        let f = m.function("f").unwrap();
        // Linearization i*8 + j appears as mul+add chains.
        assert!(f.count_opcode(Opcode::Mul) >= 2);
        let text = llvm_lite::printer::print_module(&m);
        assert!(text.contains("mul i64"));
        assert!(text.contains("getelementptr inbounds float, float*"));
    }

    #[test]
    fn malloc_free_emitted_for_heap_memrefs() {
        let m = lower_no_cleanup(
            r#"
func.func @f() {
  %buf = memref.alloc() : memref<16xf32>
  memref.dealloc %buf : memref<16xf32>
  func.return
}
"#,
        );
        assert!(m.function("malloc").is_some());
        assert!(m.function("free").is_some());
        let text = llvm_lite::printer::print_module(&m);
        assert!(text.contains("call i8* @malloc(i64 64)"));
    }

    #[test]
    fn math_ops_become_intrinsics() {
        let m = lower_no_cleanup(
            r#"
func.func @f(%m: memref<4xf32>) {
  affine.for %i = 0 to 4 {
    %v = affine.load %m[%i] : memref<4xf32>
    %s = math.sqrt %v : f32
    affine.store %s, %m[%i] : memref<4xf32>
  }
  func.return
}
"#,
        );
        assert!(m.function("llvm.sqrt.f32").is_some());
    }

    #[test]
    fn latch_metadata_lands_on_branch() {
        let m = lower_no_cleanup(
            r#"
func.func @f(%m: memref<4xf32>) {
  affine.for %i = 0 to 4 {
    %v = affine.load %m[%i] : memref<4xf32>
    affine.store %v, %m[%i] : memref<4xf32>
  } {hls.pipeline_ii = 1 : i32, hls.unroll_factor = 2 : i32}
  func.return
}
"#,
        );
        assert_eq!(m.loop_mds.len(), 1);
        assert_eq!(m.loop_mds[0].pipeline_ii, Some(1));
        assert_eq!(m.loop_mds[0].unroll_factor, Some(2));
        // Attached to exactly one branch.
        let f = m.function("f").unwrap();
        let with_md = f
            .inst_ids()
            .into_iter()
            .filter(|(_, i)| f.inst(*i).loop_md.is_some())
            .count();
        assert_eq!(with_md, 1);
    }
}
