//! Textual output in `.ll` syntax.
//!
//! The emitted dialect is the typed-pointer one (LLVM ≤14 flavour) that HLS
//! front-ends accept; float constants are always printed in the exact
//! hexadecimal form (`0x<f64 bits>`) so the printer/parser pair round-trips
//! bit-exactly.

use std::borrow::Cow;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::fmt::Write as _;

use crate::inst::{Inst, InstData, Opcode};
use crate::module::{Function, Global, GlobalInit, InstId, Module};
use crate::types::{write_decimal, Type};
use crate::value::Value;

/// Print a whole module.
pub fn print_module(m: &Module) -> String {
    let mut out = String::with_capacity(4096);
    let _ = writeln!(out, "; ModuleID = '{}'", m.name);
    if let Some(t) = &m.target_triple {
        let _ = writeln!(out, "target triple = \"{t}\"");
    }
    if !m.globals.is_empty() {
        out.push('\n');
    }
    for g in &m.globals {
        write_global(&mut out, g);
        out.push('\n');
    }
    for f in &m.functions {
        out.push('\n');
        write_function(&mut out, m, f);
    }
    if !m.loop_mds.is_empty() {
        out.push('\n');
        write_loop_mds(&mut out, m);
    }
    out
}

// Appenders for the per-instruction path. They write what the `Display`
// and `{:016X}` formatting would, without building `fmt::Arguments` for
// every operand and type. Writing to a `String` cannot fail.

fn push_u64(out: &mut String, v: u64) {
    let _ = write_decimal(out, v);
}

fn push_type(out: &mut String, ty: &Type) {
    let _ = ty.write_to(out);
}

fn push_i128(out: &mut String, v: i128) {
    match u64::try_from(v.unsigned_abs()) {
        Ok(magnitude) => {
            if v < 0 {
                out.push('-');
            }
            push_u64(out, magnitude);
        }
        Err(_) => {
            let _ = write!(out, "{v}");
        }
    }
}

/// The exact hexadecimal float form, `0x` and 16 upper-case digits.
fn push_float_bits(out: &mut String, bits: u64) {
    const HEX: &[u8; 16] = b"0123456789ABCDEF";
    out.push_str("0x");
    for nibble in (0..16).rev() {
        out.push(HEX[((bits >> (nibble * 4)) & 0xF) as usize] as char);
    }
}

fn write_global(out: &mut String, g: &Global) {
    let kind = if g.is_const { "constant" } else { "global" };
    let _ = write!(out, "@{} = {kind} {} ", g.name, g.ty);
    match &g.init {
        None => out.push_str("external"),
        Some(i) => write_init(out, &g.ty, i),
    }
    if g.align != 0 {
        let _ = write!(out, ", align {}", g.align);
    }
}

fn write_init(out: &mut String, ty: &Type, init: &GlobalInit) {
    match init {
        GlobalInit::Zero => out.push_str("zeroinitializer"),
        GlobalInit::Int(v) => push_i128(out, *v),
        GlobalInit::Float(bits) => push_float_bits(out, *bits),
        GlobalInit::Array(elems) => {
            let elem_ty = ty.array_elem().unwrap_or(&Type::I8);
            out.push('[');
            for (i, e) in elems.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                push_type(out, elem_ty);
                out.push(' ');
                write_init(out, elem_ty, e);
            }
            out.push(']');
        }
    }
}

/// Names assigned to instruction results and blocks during printing.
pub struct NameMap {
    /// Every assigned name, back to back.
    text: String,
    /// `spans[id]` is the byte range of `%id`'s name in `text`; empty when
    /// the instruction has no printed result.
    spans: Vec<(u32, u32)>,
}

impl NameMap {
    /// Build names for every live value-producing instruction: the `name`
    /// hint when present and unique, else `%tN`. A repeated base gets the
    /// suffix of its repeat count, bumped past any name already taken, so
    /// no two results (or a result and a parameter) share a name.
    pub fn build(f: &Function) -> NameMap {
        // Every taken name, mapped to how often it was requested as a base
        // (0 for a name only taken as a suffixed result). Hints and
        // parameter names are borrowed; names come from parsed text, so the
        // table keeps the default, collision-resistant hasher.
        let mut taken: HashMap<Cow<str>, u32> =
            HashMap::with_capacity(f.params.len() + f.insts.len());
        for p in &f.params {
            taken.insert(Cow::Borrowed(&p.name), 1);
        }
        let mut text = String::with_capacity(8 * f.insts.len());
        let mut spans = vec![(0, 0); f.insts.len()];
        let mut counter = 0u64;
        for &b in &f.block_order {
            for &id in &f.blocks[b as usize].insts {
                let inst = f.inst(id);
                if !inst.has_result() {
                    continue;
                }
                let base = if inst.name.is_empty() {
                    let mut generated = String::with_capacity(8);
                    generated.push('t');
                    push_u64(&mut generated, counter);
                    counter += 1;
                    Cow::Owned(generated)
                } else {
                    Cow::Borrowed(inst.name.as_str())
                };
                let start = text.len();
                match taken.entry(base) {
                    Entry::Vacant(slot) => {
                        text.push_str(slot.key());
                        slot.insert(1);
                    }
                    Entry::Occupied(repeat) => {
                        let base = repeat.key().clone();
                        let mut n = (*repeat.get()).max(1);
                        loop {
                            text.push_str(&base);
                            push_u64(&mut text, u64::from(n));
                            if !taken.contains_key(&text[start..]) {
                                break;
                            }
                            text.truncate(start);
                            n += 1;
                        }
                        taken.insert(Cow::Owned(text[start..].to_string()), 0);
                        taken.insert(base, n + 1);
                    }
                }
                spans[id as usize] = (start as u32, text.len() as u32);
            }
        }
        NameMap { text, spans }
    }

    /// The printed name (without `%`) of an instruction result.
    pub fn inst(&self, id: InstId) -> &str {
        match self.spans.get(id as usize) {
            Some(&(start, end)) if start < end => &self.text[start as usize..end as usize],
            _ => "<dead>",
        }
    }
}

fn write_function(out: &mut String, m: &Module, f: &Function) {
    let kw = if f.is_declaration {
        "declare"
    } else {
        "define"
    };
    let _ = write!(out, "{kw} {} @{}(", f.ret_ty, f.name);
    for (i, p) in f.params.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        push_type(out, &p.ty);
        for (k, v) in &p.attrs {
            let _ = write!(out, " \"{k}\"=\"{v}\"");
        }
        out.push_str(" %");
        out.push_str(&p.name);
    }
    out.push(')');
    for (k, v) in &f.attrs {
        let _ = write!(out, " \"{k}\"=\"{v}\"");
    }
    if f.is_declaration {
        out.push('\n');
        return;
    }
    out.push_str(" {\n");
    let names = NameMap::build(f);
    for (i, &b) in f.block_order.iter().enumerate() {
        if i > 0 {
            out.push('\n');
        }
        out.push_str(&f.blocks[b as usize].name);
        out.push_str(":\n");
        for &iid in &f.blocks[b as usize].insts {
            out.push_str("  ");
            write_inst(out, m, f, &names, iid);
            out.push('\n');
        }
    }
    out.push_str("}\n");
}

fn write_val(out: &mut String, f: &Function, names: &NameMap, v: &Value) {
    match v {
        Value::Arg(i) => {
            out.push('%');
            out.push_str(&f.params[*i as usize].name);
        }
        Value::Inst(id) => {
            out.push('%');
            out.push_str(names.inst(*id));
        }
        Value::ConstInt { value, .. } => push_i128(out, *value),
        Value::ConstFloat { bits, .. } => push_float_bits(out, *bits),
        Value::Global(name) => {
            out.push('@');
            out.push_str(name);
        }
        Value::NullPtr(_) => out.push_str("null"),
        Value::Undef(_) => out.push_str("undef"),
    }
}

fn write_typed_val(out: &mut String, m: &Module, f: &Function, names: &NameMap, v: &Value) {
    push_type(out, &f.value_type_ref(m, v));
    out.push(' ');
    write_val(out, f, names, v);
}

fn write_inst(out: &mut String, m: &Module, f: &Function, names: &NameMap, id: InstId) {
    let inst = f.inst(id);
    if inst.has_result() {
        out.push('%');
        out.push_str(names.inst(id));
        out.push_str(" = ");
    }
    write_inst_body(out, m, f, names, inst);
    if let Some(n) = inst.loop_md {
        out.push_str(", !llvm.loop !");
        push_u64(out, u64::from(n));
    }
}

fn write_inst_body(out: &mut String, m: &Module, f: &Function, names: &NameMap, inst: &Inst) {
    let v = |out: &mut String, x: &Value| write_val(out, f, names, x);
    let tv = |out: &mut String, x: &Value| write_typed_val(out, m, f, names, x);
    // `mnemonic ty ` with the type written directly.
    let head = |out: &mut String, mnemonic: &str, ty: &Type| {
        out.push_str(mnemonic);
        out.push(' ');
        push_type(out, ty);
        out.push(' ');
    };
    let label = |out: &mut String, b: u32| {
        out.push_str("label %");
        out.push_str(&f.blocks[b as usize].name);
    };
    let ops = &inst.operands;
    match (&inst.opcode, &inst.data) {
        (op, _) if op.is_int_binop() || op.is_float_binop() => {
            head(out, op.mnemonic(), &inst.ty);
            v(out, &ops[0]);
            out.push_str(", ");
            v(out, &ops[1]);
        }
        (Opcode::FNeg, _) => {
            head(out, "fneg", &inst.ty);
            v(out, &ops[0]);
        }
        (Opcode::ICmp, InstData::ICmp(p)) => {
            out.push_str("icmp ");
            head(out, p.mnemonic(), &f.value_type_ref(m, &ops[0]));
            v(out, &ops[0]);
            out.push_str(", ");
            v(out, &ops[1]);
        }
        (Opcode::FCmp, InstData::FCmp(p)) => {
            out.push_str("fcmp ");
            head(out, p.mnemonic(), &f.value_type_ref(m, &ops[0]));
            v(out, &ops[0]);
            out.push_str(", ");
            v(out, &ops[1]);
        }
        (Opcode::Load, InstData::Load { align }) => {
            out.push_str("load ");
            push_type(out, &inst.ty);
            out.push_str(", ");
            tv(out, &ops[0]);
            out.push_str(", align ");
            push_u64(out, u64::from(*align));
        }
        (Opcode::Store, InstData::Store { align }) => {
            out.push_str("store ");
            tv(out, &ops[0]);
            out.push_str(", ");
            tv(out, &ops[1]);
            out.push_str(", align ");
            push_u64(out, u64::from(*align));
        }
        (Opcode::Gep, InstData::Gep { base_ty, inbounds }) => {
            out.push_str("getelementptr ");
            if *inbounds {
                out.push_str("inbounds ");
            }
            push_type(out, base_ty);
            out.push_str(", ");
            tv(out, &ops[0]);
            for idx in &ops[1..] {
                out.push_str(", ");
                tv(out, idx);
            }
        }
        (Opcode::Alloca, InstData::Alloca { allocated, align }) => {
            out.push_str("alloca ");
            push_type(out, allocated);
            out.push_str(", align ");
            push_u64(out, u64::from(*align));
        }
        (Opcode::Call, InstData::Call { callee }) => {
            head(out, "call", &inst.ty);
            out.push('@');
            out.push_str(callee);
            out.push('(');
            for (i, arg) in ops.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                tv(out, arg);
            }
            out.push(')');
        }
        (Opcode::Select, _) => {
            out.push_str("select ");
            tv(out, &ops[0]);
            out.push_str(", ");
            tv(out, &ops[1]);
            out.push_str(", ");
            tv(out, &ops[2]);
        }
        (Opcode::Phi, InstData::Phi { incoming }) => {
            head(out, "phi", &inst.ty);
            for (i, (op, b)) in ops.iter().zip(incoming).enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                out.push_str("[ ");
                v(out, op);
                out.push_str(", %");
                out.push_str(&f.blocks[*b as usize].name);
                out.push_str(" ]");
            }
        }
        (op, _) if op.is_cast() => {
            out.push_str(op.mnemonic());
            out.push(' ');
            tv(out, &ops[0]);
            out.push_str(" to ");
            push_type(out, &inst.ty);
        }
        (Opcode::Br, InstData::Br { dest }) => {
            out.push_str("br ");
            label(out, *dest);
        }
        (Opcode::CondBr, InstData::CondBr { on_true, on_false }) => {
            out.push_str("br ");
            tv(out, &ops[0]);
            out.push_str(", ");
            label(out, *on_true);
            out.push_str(", ");
            label(out, *on_false);
        }
        (Opcode::Ret, _) => match ops.first() {
            None => out.push_str("ret void"),
            Some(x) => {
                out.push_str("ret ");
                tv(out, x);
            }
        },
        (Opcode::Unreachable, _) => out.push_str("unreachable"),
        (op, data) => panic!("malformed instruction {op:?} with payload {data:?}"),
    }
}

fn write_loop_mds(out: &mut String, m: &Module) {
    let mut aux = m.loop_mds.len() as u32;
    let mut lines = String::new();
    for (i, md) in m.loop_mds.iter().enumerate() {
        // Each enabled property gets its own numbered node after all the
        // loop nodes, in this fixed order.
        let _ = write!(out, "!{i} = distinct !{{!{i}");
        lines.clear();
        let mut emit = |body: std::fmt::Arguments| {
            let _ = write!(out, ", !{aux}");
            let _ = writeln!(lines, "!{aux} = !{{{body}}}");
            aux += 1;
        };
        if let Some(ii) = md.pipeline_ii {
            emit(format_args!("!\"llvm.loop.pipeline.enable\", i32 {ii}"));
        }
        if let Some(fac) = md.unroll_factor {
            emit(format_args!("!\"llvm.loop.unroll.count\", i32 {fac}"));
        }
        if md.unroll_full {
            emit(format_args!("!\"llvm.loop.unroll.full\""));
        }
        if md.flatten {
            emit(format_args!("!\"llvm.loop.flatten.enable\""));
        }
        if md.dataflow {
            emit(format_args!("!\"llvm.loop.dataflow.enable\""));
        }
        if let Some((lo, hi)) = md.tripcount {
            emit(format_args!("!\"llvm.loop.tripcount\", i32 {lo}, i32 {hi}"));
        }
        out.push_str("}\n");
        out.push_str(&lines);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::IrBuilder;
    use crate::inst::IntPred;
    use crate::metadata::LoopMetadata;
    use crate::module::Param;

    fn demo_module() -> Module {
        let mut m = Module::new("demo");
        let mut f = Function::new(
            "scale",
            vec![
                Param::new("a", Type::Float.ptr_to()),
                Param::new("n", Type::I32),
            ],
            Type::Void,
        );
        let entry = f.add_block("entry");
        let header = f.add_block("loop.header");
        let body = f.add_block("loop.body");
        let exit = f.add_block("exit");
        let mut b = IrBuilder::new(&mut f, entry);
        b.br(header);
        b.position_at(header);
        let i = b.phi(Type::I32);
        b.phi_add_incoming(i, Value::i32(0), entry);
        let cond = b.icmp(IntPred::Slt, Value::Inst(i), Value::Arg(1));
        b.cond_br(cond, body, exit);
        b.position_at(body);
        let i64v = b.sext(Value::Inst(i), Type::I64);
        let p = b.gep(Type::Float, Value::Arg(0), vec![i64v]);
        let x = b.load(Type::Float, p.clone());
        let y = b.fmul(Type::Float, x, Value::f32(2.0));
        b.store(y, p, 4);
        let next = b.add(Type::I32, Value::Inst(i), Value::i32(1));
        b.phi_add_incoming(i, next, body);
        let latch = b.br(header);
        b.position_at(exit);
        b.ret(None);
        let md = m.add_loop_md(LoopMetadata::pipelined(1));
        f.inst_mut(latch).loop_md = Some(md);
        m.functions.push(f);
        m
    }

    #[test]
    fn prints_structural_elements() {
        let m = demo_module();
        let text = print_module(&m);
        assert!(text.contains("define void @scale(float* %a, i32 %n) {"));
        assert!(text.contains("phi i32 [ 0, %entry ]"));
        assert!(text.contains("br label %loop.header, !llvm.loop !0"));
        assert!(text.contains("!0 = distinct !{!0, !1}"));
        assert!(text.contains("!\"llvm.loop.pipeline.enable\", i32 1"));
        assert!(text.contains("getelementptr inbounds float, float* %a, i64"));
        assert!(text.contains("load float, float*"));
        assert!(text.contains("ret void"));
    }

    #[test]
    fn float_constants_are_hex_exact() {
        let m = demo_module();
        let text = print_module(&m);
        let bits = (2.0f32 as f64).to_bits();
        assert!(text.contains(&format!("0x{bits:016X}")));
    }

    #[test]
    fn declaration_prints_one_line() {
        let mut m = Module::new("m");
        m.functions.push(Function::declaration(
            "llvm.sqrt.f32",
            vec![Param::new("x", Type::Float)],
            Type::Float,
        ));
        let text = print_module(&m);
        assert!(text.contains("declare float @llvm.sqrt.f32(float %x)"));
    }

    #[test]
    fn global_printing() {
        let mut m = Module::new("m");
        m.globals.push(Global {
            name: "lut".into(),
            ty: Type::I32.array_of(3),
            init: Some(GlobalInit::Array(vec![
                GlobalInit::Int(1),
                GlobalInit::Int(2),
                GlobalInit::Int(3),
            ])),
            is_const: true,
            align: 4,
        });
        m.globals.push(Global {
            name: "buf".into(),
            ty: Type::Float.array_of(16),
            init: Some(GlobalInit::Zero),
            is_const: false,
            align: 0,
        });
        let text = print_module(&m);
        assert!(text.contains("@lut = constant [3 x i32] [i32 1, i32 2, i32 3], align 4"));
        assert!(text.contains("@buf = global [16 x float] zeroinitializer"));
    }

    #[test]
    fn name_hints_are_respected_and_uniqued() {
        let mut f = Function::new("f", vec![], Type::I32);
        let e = f.add_block("entry");
        let a = f.push_inst(
            e,
            Inst::new(Opcode::Add, Type::I32, vec![Value::i32(1), Value::i32(2)]).with_name("sum"),
        );
        let b2 = f.push_inst(
            e,
            Inst::new(Opcode::Add, Type::I32, vec![Value::Inst(a), Value::i32(3)]).with_name("sum"),
        );
        f.push_inst(e, Inst::new(Opcode::Ret, Type::Void, vec![Value::Inst(b2)]));
        let names = NameMap::build(&f);
        assert_eq!(names.inst(a), "sum");
        assert_eq!(names.inst(b2), "sum1");
    }

    #[test]
    fn number_appenders_match_the_display_forms() {
        for v in [
            0i128,
            7,
            -7,
            1 << 40,
            i64::MIN as i128,
            u64::MAX as i128,
            i128::MIN,
            i128::MAX,
        ] {
            let mut s = String::new();
            push_i128(&mut s, v);
            assert_eq!(s, v.to_string());
        }
        for bits in [0u64, 1, 0x3FF0_0000_0000_0000, u64::MAX] {
            let mut s = String::new();
            push_float_bits(&mut s, bits);
            assert_eq!(s, format!("0x{bits:016X}"));
        }
    }

    #[test]
    fn printed_names_are_unique_by_construction() {
        // Hints that collide with suffixed names and with `%tN` names: a
        // hinted `t1` seen twice becomes `t11`, which the counter reaches
        // later; a parameter `sum1` blocks the first suffix of `sum`.
        let mut f = Function::new("f", vec![Param::new("sum1", Type::I32)], Type::I32);
        let e = f.add_block("entry");
        let mut prev = Value::Arg(0);
        let hints = ["t1", "t1", "sum", "sum", "sum1"];
        let mut ids = Vec::new();
        for hint in hints.iter().copied().chain(std::iter::repeat_n("", 12)) {
            let id = f.push_inst(
                e,
                Inst::new(Opcode::Add, Type::I32, vec![prev, Value::i32(1)]).with_name(hint),
            );
            ids.push(id);
            prev = Value::Inst(id);
        }
        f.push_inst(e, Inst::new(Opcode::Ret, Type::Void, vec![prev]));
        let names = NameMap::build(&f);
        let printed: Vec<&str> = ids.iter().map(|&i| names.inst(i)).collect();
        assert_eq!(&printed[..5], &["t1", "t11", "sum", "sum2", "sum11"]);
        assert_eq!(printed[5 + 11], "t111", "the counter's t11 is taken");
        let mut seen: Vec<&str> = printed.clone();
        seen.push("sum1");
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), printed.len() + 1, "{printed:?}");

        // The printed function parses back to the same text.
        let mut m = Module::new("m");
        m.functions.push(f);
        let text = print_module(&m);
        let again = crate::parser::parse_module("m", &text).unwrap();
        crate::verifier::verify_module(&again).unwrap();
        assert_eq!(print_module(&again), text);
    }

    #[test]
    fn function_attrs_are_printed() {
        let mut m = Module::new("m");
        let mut f = Function::new("top", vec![], Type::Void);
        f.attrs.insert("hls.top".into(), "1".into());
        let e = f.add_block("entry");
        f.push_inst(e, Inst::new(Opcode::Ret, Type::Void, vec![]));
        m.functions.push(f);
        let text = print_module(&m);
        assert!(text.contains("define void @top() \"hls.top\"=\"1\" {"));
    }
}
