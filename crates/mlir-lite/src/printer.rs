//! Textual MLIR output.
//!
//! Structured ops (`func.func`, `affine.for`, `scf.for`, `affine.load`, …)
//! print in their custom pretty syntax, close enough to real MLIR that a
//! reader can diff against `mlir-opt` output; anything else falls back to
//! the quoted generic form. Loop induction variables get readable names
//! (`%i`, `%j`, `%k`, …) by nesting depth.
//!
//! Everything is written into one buffer. A value's printed name is a
//! small `Name` rendered where it is used, so no name is built as a
//! string of its own.

use std::collections::HashMap;
use std::fmt::{self, Write as _};

use crate::affine::{AffineExpr, AffineMap};
use crate::attr::Attr;
use crate::ir::{MType, MValue, MValueKind, MlirModule, Op};

/// Print a module.
pub fn print_module(m: &MlirModule) -> String {
    let mut p = Printer::default();
    p.out.push_str("module @");
    write_sanitized(&mut p.out, &m.name);
    p.out.push_str(" {\n");
    for op in &m.ops {
        // Each top-level op numbers and names its values afresh.
        p.names.clear();
        p.used.clear();
        p.counter = 0;
        p.print_op(op, 1);
    }
    p.out.push_str("}\n");
    p.out
}

/// Print a single (top-level) op, e.g. one function.
pub fn print_op(op: &Op) -> String {
    let mut p = Printer::default();
    p.print_op(op, 0);
    p.out
}

fn write_sanitized(out: &mut String, name: &str) {
    if name.is_empty() {
        out.push('m');
        return;
    }
    out.extend(name.chars().map(|c| {
        if c.is_ascii_alphanumeric() || c == '_' {
            c
        } else {
            '_'
        }
    }));
}

const IV_NAMES: &[&str] = &["i", "j", "k", "l", "m", "n", "p", "q"];

/// The base of a block argument's name.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
enum Base {
    /// `argI`, the I-th function parameter.
    Param(u32),
    /// A loop induction variable: `i`, `j`, … by depth, then `iv`.
    Iv(&'static str),
}

/// A value's printed name.
#[derive(Clone, Copy)]
enum Name {
    /// An op result: `%N`, numbered in print order.
    Result(u32),
    /// A value used but not defined in what was printed: `%vN`.
    Unseen(u32),
    /// A block argument: `%base` the first time a base is bound in a
    /// top-level op, `%base_K` the K-th time after that.
    Arg(Base, u32),
}

impl fmt::Display for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Name::Result(n) => write!(f, "%{n}"),
            Name::Unseen(n) => write!(f, "%v{n}"),
            Name::Arg(base, k) => {
                match base {
                    Base::Param(i) => write!(f, "%arg{i}")?,
                    Base::Iv(s) => write!(f, "%{s}")?,
                }
                if k > 0 {
                    write!(f, "_{k}")?;
                }
                Ok(())
            }
        }
    }
}

#[derive(Default)]
struct Printer {
    out: String,
    /// Printed name of each value seen so far, keyed by what defines it.
    names: HashMap<MValueKind, Name>,
    counter: u32,
    /// How often each block-argument base has been bound.
    used: HashMap<Base, u32>,
    depth: usize,
    /// Names of the dim operands of the op being printed.
    dims: Vec<Name>,
}

impl Printer {
    fn pad(&mut self, indent: usize) {
        for _ in 0..indent {
            self.out.push_str("  ");
        }
    }

    fn bind_arg(&mut self, block: u32, idx: u32, base: Base) -> Name {
        let n = self.used.entry(base).or_insert(0);
        let name = Name::Arg(base, *n);
        *n += 1;
        self.names.insert(MValueKind::BlockArg { block, idx }, name);
        name
    }

    fn name_of(&mut self, v: &MValue) -> Name {
        let counter = &mut self.counter;
        *self.names.entry(v.kind).or_insert_with(|| {
            // Unseen value (e.g. printing a fragment) — invent a stable name.
            let n = Name::Unseen(*counter);
            *counter += 1;
            n
        })
    }

    fn val(&mut self, v: &MValue) {
        let n = self.name_of(v);
        let _ = write!(self.out, "{n}");
    }

    /// `%a, %b, …`
    fn vals(&mut self, vs: &[MValue]) {
        for (i, v) in vs.iter().enumerate() {
            if i > 0 {
                self.out.push_str(", ");
            }
            self.val(v);
        }
    }

    /// `t1, t2, …`
    fn types<'t>(&mut self, tys: impl Iterator<Item = &'t MType>) {
        for (i, t) in tys.enumerate() {
            if i > 0 {
                self.out.push_str(", ");
            }
            let _ = write!(self.out, "{t}");
        }
    }

    /// `%r0, %r1 = ` for an op with results; nothing otherwise.
    fn bind_results(&mut self, op: &Op) {
        for i in 0..op.result_types.len() as u32 {
            if i > 0 {
                self.out.push_str(", ");
            }
            let name = Name::Result(self.counter);
            self.counter += 1;
            self.names
                .insert(MValueKind::OpResult { op: op.uid, idx: i }, name);
            let _ = write!(self.out, "{name}");
        }
        if !op.result_types.is_empty() {
            self.out.push_str(" = ");
        }
    }

    /// The results of `op`'s affine map over its dim operands `dims`. Every
    /// dim is named, in operand order, before any is written.
    fn affine_exprs(&mut self, op: &Op, dims: &[MValue]) {
        self.dims.clear();
        for v in dims {
            let n = self.name_of(v);
            self.dims.push(n);
        }
        let map = op.attrs.get("map").and_then(Attr::as_map);
        write_exprs(&mut self.out, map, &self.dims);
    }

    /// ` {k = v, unit_key}` over the attributes `keep` accepts, or nothing
    /// when none is left.
    fn attr_dict(&mut self, op: &Op, lead: &str, keep: impl Fn(&str) -> bool) {
        let mut first = true;
        for (k, v) in op.attrs.iter().filter(|(k, _)| keep(k)) {
            self.out.push_str(if first { lead } else { ", " });
            first = false;
            match v {
                Attr::Unit => self.out.push_str(k),
                _ => {
                    let _ = write!(self.out, "{k} = {v}");
                }
            }
        }
        if !first {
            self.out.push('}');
        }
    }

    /// One line at `indent`: the padding, what `body` writes, a newline.
    fn line(&mut self, indent: usize, body: impl FnOnce(&mut Self)) {
        self.pad(indent);
        body(self);
        self.out.push('\n');
    }

    fn print_op(&mut self, op: &Op, indent: usize) {
        match op.name.as_str() {
            "func.func" => self.print_func(op, indent),
            "affine.for" | "scf.for" => self.print_for(op, indent),
            "scf.if" => self.print_if(op, indent),
            "affine.yield" | "scf.yield" => {
                // Implicit terminators: printed only when they carry operands
                // (they never do in this subset), so elide.
            }
            "func.return" => self.line(indent, |p| {
                p.out.push_str("func.return");
                if let Some(v) = op.operands.first() {
                    p.out.push(' ');
                    p.val(v);
                    let _ = write!(p.out, " : {}", v.ty);
                }
            }),
            "arith.constant" => self.line(indent, |p| {
                p.bind_results(op);
                let _ = match op.attrs.get("value") {
                    Some(value) => write!(p.out, "arith.constant {value}"),
                    None => write!(p.out, "arith.constant {}", Attr::i64(0)),
                };
            }),
            "affine.load" => self.line(indent, |p| {
                p.bind_results(op);
                p.out.push_str("affine.load ");
                p.val(&op.operands[0]);
                p.out.push('[');
                p.affine_exprs(op, &op.operands[1..]);
                let _ = write!(p.out, "] : {}", op.operands[0].ty);
            }),
            "affine.store" => self.line(indent, |p| {
                p.out.push_str("affine.store ");
                p.val(&op.operands[0]);
                p.out.push_str(", ");
                p.val(&op.operands[1]);
                p.out.push('[');
                p.affine_exprs(op, &op.operands[2..]);
                let _ = write!(p.out, "] : {}", op.operands[1].ty);
            }),
            "affine.apply" => self.line(indent, |p| {
                p.bind_results(op);
                p.out.push_str("affine.apply (");
                p.affine_exprs(op, &op.operands);
                p.out.push(')');
            }),
            "memref.load" => self.line(indent, |p| {
                p.bind_results(op);
                p.out.push_str("memref.load ");
                p.val(&op.operands[0]);
                p.out.push('[');
                p.vals(&op.operands[1..]);
                let _ = write!(p.out, "] : {}", op.operands[0].ty);
            }),
            "memref.store" => self.line(indent, |p| {
                p.out.push_str("memref.store ");
                p.val(&op.operands[0]);
                p.out.push_str(", ");
                p.val(&op.operands[1]);
                p.out.push('[');
                p.vals(&op.operands[2..]);
                let _ = write!(p.out, "] : {}", op.operands[1].ty);
            }),
            "memref.alloca" | "memref.alloc" => self.line(indent, |p| {
                p.bind_results(op);
                let _ = write!(p.out, "{}() : {}", op.name, op.result_types[0]);
            }),
            "memref.dealloc" => self.line(indent, |p| {
                p.out.push_str("memref.dealloc ");
                p.val(&op.operands[0]);
                let _ = write!(p.out, " : {}", op.operands[0].ty);
            }),
            "func.call" => self.line(indent, |p| {
                p.bind_results(op);
                let callee = op.attrs.get("callee").and_then(Attr::as_str).unwrap_or("?");
                let _ = write!(p.out, "func.call @{callee}(");
                p.vals(&op.operands);
                p.out.push_str(") : (");
                p.types(op.operands.iter().map(|v| &v.ty));
                p.out.push_str(") -> (");
                p.types(op.result_types.iter());
                p.out.push(')');
            }),
            name if name.starts_with("arith.") || name.starts_with("math.") => {
                self.line(indent, |p| {
                    p.bind_results(op);
                    p.out.push_str(name);
                    p.out.push(' ');
                    if let Some(pred) = op.attrs.get("predicate").and_then(Attr::as_str) {
                        let _ = write!(p.out, "{pred}, ");
                    }
                    p.vals(&op.operands);
                    p.out.push_str(" : ");
                    if let Some(ty) = op
                        .operands
                        .first()
                        .map(|v| &v.ty)
                        .or_else(|| op.result_types.first())
                    {
                        let _ = write!(p.out, "{ty}");
                    }
                })
            }
            _ => self.print_generic(op, indent),
        }
    }

    fn print_func(&mut self, op: &Op, indent: usize) {
        self.pad(indent);
        let name = op
            .attrs
            .get("sym_name")
            .and_then(Attr::as_str)
            .unwrap_or("?");
        let _ = write!(self.out, "func.func @{name}(");
        let entry = op.regions[0].entry();
        for (i, ty) in entry.arg_types.iter().enumerate() {
            if i > 0 {
                self.out.push_str(", ");
            }
            let n = self.bind_arg(entry.uid, i as u32, Base::Param(i as u32));
            let _ = write!(self.out, "{n}: {ty}");
        }
        self.out.push(')');
        self.attr_dict(op, " attributes {", |k| k != "sym_name" && k != "ret_type");
        self.out.push_str(" {\n");
        for inner in &op.regions[0].entry().ops {
            self.print_op(inner, indent + 1);
        }
        self.pad(indent);
        self.out.push_str("}\n");
    }

    fn print_for(&mut self, op: &Op, indent: usize) {
        self.pad(indent);
        let entry = op.regions[0].entry();
        let base = IV_NAMES.get(self.depth).copied().unwrap_or("iv");
        let iv = self.bind_arg(entry.uid, 0, Base::Iv(base));
        let _ = write!(self.out, "{} {iv} = ", op.name);
        if op.name == "affine.for" {
            let lb = op.int_attr("lower_bound").unwrap_or(0);
            let ub = op.int_attr("upper_bound").unwrap_or(0);
            let step = op.int_attr("step").unwrap_or(1);
            let _ = write!(self.out, "{lb} to {ub}");
            if step != 1 {
                let _ = write!(self.out, " step {step}");
            }
        } else {
            self.val(&op.operands[0]);
            self.out.push_str(" to ");
            self.val(&op.operands[1]);
            self.out.push_str(" step ");
            self.val(&op.operands[2]);
        }
        self.out.push_str(" {\n");
        self.depth += 1;
        for inner in &op.regions[0].entry().ops {
            self.print_op(inner, indent + 1);
        }
        self.depth -= 1;
        self.pad(indent);
        self.out.push('}');
        self.attr_dict(op, " {", |k| {
            !matches!(k, "lower_bound" | "upper_bound" | "step")
        });
        self.out.push('\n');
    }

    fn print_if(&mut self, op: &Op, indent: usize) {
        self.pad(indent);
        self.out.push_str("scf.if ");
        self.val(&op.operands[0]);
        self.out.push_str(" {\n");
        for inner in &op.regions[0].entry().ops {
            self.print_op(inner, indent + 1);
        }
        let has_else = op
            .regions
            .get(1)
            .map(|r| !r.entry().ops.is_empty())
            .unwrap_or(false);
        if has_else {
            self.pad(indent);
            self.out.push_str("} else {\n");
            for inner in &op.regions[1].entry().ops {
                self.print_op(inner, indent + 1);
            }
        }
        self.pad(indent);
        self.out.push_str("}\n");
    }

    fn print_generic(&mut self, op: &Op, indent: usize) {
        self.pad(indent);
        self.bind_results(op);
        let _ = write!(self.out, "\"{}\"(", op.name);
        self.vals(&op.operands);
        self.out.push(')');
        for (i, (uid, args)) in op.successors.iter().enumerate() {
            self.out.push_str(if i == 0 { "[" } else { ", " });
            let _ = write!(self.out, "^bb{uid}");
            if !args.is_empty() {
                self.out.push('(');
                self.vals(args);
                self.out.push(')');
            }
        }
        if !op.successors.is_empty() {
            self.out.push(']');
        }
        for (i, (k, v)) in op.attrs.iter().enumerate() {
            self.out.push_str(if i == 0 { " {" } else { ", " });
            let _ = write!(self.out, "{k} = {v}");
        }
        if !op.attrs.is_empty() {
            self.out.push('}');
        }
        self.out.push_str(" : (");
        self.types(op.operands.iter().map(|v| &v.ty));
        self.out.push_str(") -> (");
        self.types(op.result_types.iter());
        self.out.push_str(")\n");
        for r in &op.regions {
            for b in &r.blocks {
                self.pad(indent);
                let _ = writeln!(self.out, "^bb{}:", b.uid);
                for inner in &b.ops {
                    self.print_op(inner, indent + 1);
                }
            }
        }
    }
}

/// Write map results with dims substituted by operand names:
/// `(d0 + 1, 2*d1)` over `[%i, %j]` -> `%i + 1, 2 * %j`. Without a map,
/// the dims themselves.
fn write_exprs(out: &mut String, map: Option<&AffineMap>, dims: &[impl fmt::Display]) {
    let Some(map) = map else {
        for (i, d) in dims.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "{d}");
        }
        return;
    };
    for (i, e) in map.results.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        write_expr(out, e, dims);
    }
}

fn write_expr(out: &mut String, e: &AffineExpr, dims: &[impl fmt::Display]) {
    let _ = match e {
        AffineExpr::Dim(i) => match dims.get(*i as usize) {
            Some(d) => write!(out, "{d}"),
            None => write!(out, "d{i}"),
        },
        AffineExpr::Sym(i) => write!(out, "s{i}"),
        AffineExpr::Const(v) => write!(out, "{v}"),
        AffineExpr::Add(a, b) => match &**b {
            AffineExpr::Const(c) if *c < 0 => {
                write_expr(out, a, dims);
                write!(out, " - {}", -c)
            }
            _ => {
                write_expr(out, a, dims);
                out.push_str(" + ");
                write_expr(out, b, dims);
                Ok(())
            }
        },
        AffineExpr::Mul(a, b) => {
            write_expr(out, b, dims);
            out.push_str(" * ");
            write_expr(out, a, dims);
            Ok(())
        }
        AffineExpr::Mod(a, m) => {
            out.push('(');
            write_expr(out, a, dims);
            write!(out, ") mod {m}")
        }
        AffineExpr::FloorDiv(a, d) => {
            out.push('(');
            write_expr(out, a, dims);
            write!(out, ") floordiv {d}")
        }
        AffineExpr::CeilDiv(a, d) => {
            out.push('(');
            write_expr(out, a, dims);
            write!(out, ") ceildiv {d}")
        }
    };
}

/// The subscript text alone, as the unit tests read it.
#[cfg(test)]
fn subscripts(map: &Option<AffineMap>, dims: &[String]) -> String {
    let mut out = String::new();
    write_exprs(&mut out, map.as_ref(), dims);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dialects::{affine, arith, func, hls};
    use crate::ir::MType;

    /// Build `scale`: for i in 0..8 { A[i] = A[i] * 2.0 } with pipeline.
    fn scale_module() -> MlirModule {
        let mut m = MlirModule::new("scale");
        let mut f = func::func("scale", vec![MType::F32.memref(&[8])], MType::None);
        f.attrs.insert("hls.top".into(), Attr::Unit);
        let a = f.regions[0].entry().arg(0);
        let mut l = affine::for_loop(0, 8, 1);
        hls::set_pipeline(&mut l, 1);
        let iv = l.regions[0].entry().arg(0);
        let map = AffineMap::identity(1);
        let ld = affine::load(a.clone(), map.clone(), vec![iv.clone()]);
        let c = arith::const_float(2.0, MType::F32);
        let mul = arith::mulf(ld.result(0), c.result(0));
        let st = affine::store(mul.result(0), a, map, vec![iv]);
        {
            let body = l.regions[0].entry_mut();
            body.ops.push(ld);
            body.ops.push(c);
            body.ops.push(mul);
            body.ops.push(st);
            body.ops.push(affine::yield_());
        }
        {
            let fb = f.regions[0].entry_mut();
            fb.ops.push(l);
            fb.ops.push(func::ret(None));
        }
        m.ops.push(f);
        m
    }

    #[test]
    fn prints_structured_syntax() {
        let text = print_module(&scale_module());
        assert!(text.contains("module @scale {"));
        assert!(text.contains("func.func @scale(%arg0: memref<8xf32>) attributes {hls.top} {"));
        assert!(text.contains("affine.for %i = 0 to 8 {"));
        assert!(text.contains("affine.load %arg0[%i] : memref<8xf32>"));
        assert!(text.contains("arith.constant 2.0 : f32"));
        assert!(text.contains("} {hls.pipeline_ii = 1 : i32}"));
        assert!(text.contains("func.return"));
    }

    #[test]
    fn subscript_expressions_substitute_names() {
        use crate::affine::AffineExpr;
        let map = AffineMap::new(
            2,
            0,
            vec![
                AffineExpr::dim(0).add(AffineExpr::cst(1)),
                AffineExpr::dim(1).mul(AffineExpr::cst(2)),
            ],
        );
        let s = subscripts(&Some(map), &["%i".into(), "%j".into()]);
        assert_eq!(s, "%i + 1, 2 * %j");
    }

    #[test]
    fn nested_loops_get_successive_iv_names() {
        let mut m = MlirModule::new("m");
        let mut f = func::func("f", vec![], MType::None);
        let mut outer = affine::for_loop(0, 4, 1);
        let mut inner = affine::for_loop(0, 4, 1);
        inner.regions[0].entry_mut().ops.push(affine::yield_());
        outer.regions[0].entry_mut().ops.push(inner);
        outer.regions[0].entry_mut().ops.push(affine::yield_());
        f.regions[0].entry_mut().ops.push(outer);
        f.regions[0].entry_mut().ops.push(func::ret(None));
        m.ops.push(f);
        let text = print_module(&m);
        assert!(text.contains("affine.for %i = 0 to 4 {"));
        assert!(text.contains("affine.for %j = 0 to 4 {"));
    }

    #[test]
    fn generic_fallback_for_unknown_ops() {
        let mut m = MlirModule::new("m");
        let mut f = func::func("f", vec![MType::I32], MType::None);
        let arg = f.regions[0].entry().arg(0);
        let weird = Op::new("test.frob")
            .with_operands(vec![arg])
            .with_results(vec![MType::I32])
            .with_attr("gain", Attr::i64(3));
        f.regions[0].entry_mut().ops.push(weird);
        f.regions[0].entry_mut().ops.push(func::ret(None));
        m.ops.push(f);
        let text = print_module(&m);
        assert!(text.contains("\"test.frob\"(%arg0) {gain = 3 : i64} : (i32) -> (i32)"));
    }

    #[test]
    fn step_is_elided_when_one() {
        let text = print_module(&scale_module());
        assert!(!text.contains("step 1 {"));
    }
}
