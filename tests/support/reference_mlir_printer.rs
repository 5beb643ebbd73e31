//! The MLIR-lite printer that `mlir_lite::printer` replaced, kept verbatim
//! (bar import paths) as the oracle of `tests/text_differential.rs`.
//!
//! It builds a `format!` string per operand, subscript and attribute list,
//! joins them, and clones every name it looks up.

use std::collections::HashMap;
use std::fmt::Write as _;

use mlir_lite::affine::{AffineExpr, AffineMap};
use mlir_lite::attr::Attr;
use mlir_lite::ir::{MValueKind, MlirModule, Op};

/// Print a module.
pub fn print_module(m: &MlirModule) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "module @{} {{", sanitize(&m.name));
    for op in &m.ops {
        let mut p = Printer::new();
        p.print_op(op, 1);
        out.push_str(&p.out);
    }
    out.push_str("}\n");
    out
}

/// Print a single (top-level) op, e.g. one function.
pub fn print_op(op: &Op) -> String {
    let mut p = Printer::new();
    p.print_op(op, 0);
    p.out
}

fn sanitize(name: &str) -> String {
    let s: String = name
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect();
    if s.is_empty() {
        "m".to_string()
    } else {
        s
    }
}

const IV_NAMES: &[&str] = &["i", "j", "k", "l", "m", "n", "p", "q"];

struct Printer {
    out: String,
    /// value name environment: (kind-hash) -> printed name.
    names: HashMap<(u32, u32, bool), String>,
    counter: u32,
    used: HashMap<String, u32>,
    depth: usize,
}

impl Printer {
    fn new() -> Printer {
        Printer {
            out: String::new(),
            names: HashMap::new(),
            counter: 0,
            used: HashMap::new(),
            depth: 0,
        }
    }

    fn key(kind: &MValueKind) -> (u32, u32, bool) {
        match kind {
            MValueKind::OpResult { op, idx } => (*op, *idx, false),
            MValueKind::BlockArg { block, idx } => (*block, *idx, true),
        }
    }

    fn unique(&mut self, base: &str) -> String {
        let n = self.used.entry(base.to_string()).or_insert(0);
        let name = if *n == 0 {
            base.to_string()
        } else {
            format!("{base}_{n}")
        };
        *n += 1;
        name
    }

    fn bind(&mut self, kind: &MValueKind, base: &str) -> String {
        let name = self.unique(base);
        self.names.insert(Self::key(kind), name.clone());
        name
    }

    fn name_of(&mut self, kind: &MValueKind) -> String {
        if let Some(n) = self.names.get(&Self::key(kind)) {
            return n.clone();
        }
        // Unseen value (e.g. printing a fragment) — invent a stable name.
        let n = format!("v{}", self.counter);
        self.counter += 1;
        self.names.insert(Self::key(kind), n.clone());
        n
    }

    fn val(&mut self, v: &mlir_lite::ir::MValue) -> String {
        format!("%{}", self.name_of(&v.kind))
    }

    fn bind_results(&mut self, op: &Op) -> String {
        if op.result_types.is_empty() {
            return String::new();
        }
        let mut lhs = Vec::new();
        for i in 0..op.result_types.len() as u32 {
            let base = format!("{}", self.counter);
            self.counter += 1;
            let name = self.bind(&MValueKind::OpResult { op: op.uid, idx: i }, &base);
            lhs.push(format!("%{name}"));
        }
        format!("{} = ", lhs.join(", "))
    }

    fn print_op(&mut self, op: &Op, indent: usize) {
        let pad = "  ".repeat(indent);
        match op.name.as_str() {
            "func.func" => self.print_func(op, indent),
            "affine.for" | "scf.for" => self.print_for(op, indent),
            "scf.if" => self.print_if(op, indent),
            "affine.yield" | "scf.yield" => {
                // Implicit terminators: printed only when they carry operands
                // (they never do in this subset), so elide.
            }
            "func.return" => {
                if op.operands.is_empty() {
                    let _ = writeln!(self.out, "{pad}func.return");
                } else {
                    let v = self.val(&op.operands[0]);
                    let ty = &op.operands[0].ty;
                    let _ = writeln!(self.out, "{pad}func.return {v} : {ty}");
                }
            }
            "arith.constant" => {
                let lhs = self.bind_results(op);
                let value = op.attrs.get("value").cloned().unwrap_or(Attr::i64(0));
                let _ = writeln!(self.out, "{pad}{lhs}arith.constant {value}");
            }
            "affine.load" => {
                let lhs = self.bind_results(op);
                let mref = self.val(&op.operands[0]);
                let map = op.attrs.get("map").and_then(Attr::as_map).cloned();
                let dims: Vec<String> = op.operands[1..].iter().map(|v| self.val(v)).collect();
                let subs = subscripts(&map, &dims);
                let _ = writeln!(
                    self.out,
                    "{pad}{lhs}affine.load {mref}[{subs}] : {}",
                    op.operands[0].ty
                );
            }
            "affine.store" => {
                let v = self.val(&op.operands[0]);
                let mref = self.val(&op.operands[1]);
                let map = op.attrs.get("map").and_then(Attr::as_map).cloned();
                let dims: Vec<String> = op.operands[2..].iter().map(|v| self.val(v)).collect();
                let subs = subscripts(&map, &dims);
                let _ = writeln!(
                    self.out,
                    "{pad}affine.store {v}, {mref}[{subs}] : {}",
                    op.operands[1].ty
                );
            }
            "affine.apply" => {
                let lhs = self.bind_results(op);
                let map = op.attrs.get("map").and_then(Attr::as_map).cloned();
                let dims: Vec<String> = op.operands.iter().map(|v| self.val(v)).collect();
                let subs = subscripts(&map, &dims);
                let _ = writeln!(self.out, "{pad}{lhs}affine.apply ({subs})");
            }
            "memref.load" => {
                let lhs = self.bind_results(op);
                let mref = self.val(&op.operands[0]);
                let idx: Vec<String> = op.operands[1..].iter().map(|v| self.val(v)).collect();
                let _ = writeln!(
                    self.out,
                    "{pad}{lhs}memref.load {mref}[{}] : {}",
                    idx.join(", "),
                    op.operands[0].ty
                );
            }
            "memref.store" => {
                let v = self.val(&op.operands[0]);
                let mref = self.val(&op.operands[1]);
                let idx: Vec<String> = op.operands[2..].iter().map(|v| self.val(v)).collect();
                let _ = writeln!(
                    self.out,
                    "{pad}memref.store {v}, {mref}[{}] : {}",
                    idx.join(", "),
                    op.operands[1].ty
                );
            }
            "memref.alloca" | "memref.alloc" => {
                let lhs = self.bind_results(op);
                let _ = writeln!(self.out, "{pad}{lhs}{}() : {}", op.name, op.result_types[0]);
            }
            "memref.dealloc" => {
                let v = self.val(&op.operands[0]);
                let _ = writeln!(self.out, "{pad}memref.dealloc {v} : {}", op.operands[0].ty);
            }
            "func.call" => {
                let lhs = self.bind_results(op);
                let callee = op.attrs.get("callee").and_then(Attr::as_str).unwrap_or("?");
                let args: Vec<String> = op.operands.iter().map(|v| self.val(v)).collect();
                let tys: Vec<String> = op.operands.iter().map(|v| v.ty.to_string()).collect();
                let rets: Vec<String> = op.result_types.iter().map(|t| t.to_string()).collect();
                let _ = writeln!(
                    self.out,
                    "{pad}{lhs}func.call @{callee}({}) : ({}) -> ({})",
                    args.join(", "),
                    tys.join(", "),
                    rets.join(", ")
                );
            }
            name if name.starts_with("arith.") || name.starts_with("math.") => {
                let lhs = self.bind_results(op);
                let args: Vec<String> = op.operands.iter().map(|v| self.val(v)).collect();
                let extra = op
                    .attrs
                    .get("predicate")
                    .and_then(Attr::as_str)
                    .map(|p| format!("{p}, "))
                    .unwrap_or_default();
                let ty = op
                    .operands
                    .first()
                    .map(|v| v.ty.to_string())
                    .or_else(|| op.result_types.first().map(|t| t.to_string()))
                    .unwrap_or_default();
                let _ = writeln!(
                    self.out,
                    "{pad}{lhs}{name} {extra}{} : {ty}",
                    args.join(", ")
                );
            }
            _ => self.print_generic(op, indent),
        }
    }

    fn print_func(&mut self, op: &Op, indent: usize) {
        let pad = "  ".repeat(indent);
        let name = op
            .attrs
            .get("sym_name")
            .and_then(Attr::as_str)
            .unwrap_or("?");
        let entry = op.regions[0].entry();
        let mut params = Vec::new();
        for (i, ty) in entry.arg_types.iter().enumerate() {
            let n = self.bind(
                &MValueKind::BlockArg {
                    block: entry.uid,
                    idx: i as u32,
                },
                &format!("arg{i}"),
            );
            params.push(format!("%{n}: {ty}"));
        }
        let extra_attrs: Vec<String> = op
            .attrs
            .iter()
            .filter(|(k, _)| k.as_str() != "sym_name" && k.as_str() != "ret_type")
            .map(|(k, v)| match v {
                Attr::Unit => k.clone(),
                _ => format!("{k} = {v}"),
            })
            .collect();
        let attr_str = if extra_attrs.is_empty() {
            String::new()
        } else {
            format!(" attributes {{{}}}", extra_attrs.join(", "))
        };
        let _ = writeln!(
            self.out,
            "{pad}func.func @{name}({}){attr_str} {{",
            params.join(", ")
        );
        for inner in &op.regions[0].entry().ops {
            self.print_op(inner, indent + 1);
        }
        let _ = writeln!(self.out, "{pad}}}");
    }

    fn print_for(&mut self, op: &Op, indent: usize) {
        let pad = "  ".repeat(indent);
        let entry = op.regions[0].entry();
        let base = IV_NAMES.get(self.depth).copied().unwrap_or("iv");
        let iv = self.bind(
            &MValueKind::BlockArg {
                block: entry.uid,
                idx: 0,
            },
            base,
        );
        let bounds = if op.name == "affine.for" {
            let lb = op.int_attr("lower_bound").unwrap_or(0);
            let ub = op.int_attr("upper_bound").unwrap_or(0);
            let step = op.int_attr("step").unwrap_or(1);
            if step == 1 {
                format!("{lb} to {ub}")
            } else {
                format!("{lb} to {ub} step {step}")
            }
        } else {
            let lb = self.val(&op.operands[0]);
            let ub = self.val(&op.operands[1]);
            let st = self.val(&op.operands[2]);
            format!("{lb} to {ub} step {st}")
        };
        let _ = writeln!(self.out, "{pad}{} %{iv} = {bounds} {{", op.name);
        self.depth += 1;
        for inner in &op.regions[0].entry().ops {
            self.print_op(inner, indent + 1);
        }
        self.depth -= 1;
        let attrs: Vec<String> = op
            .attrs
            .iter()
            .filter(|(k, _)| !matches!(k.as_str(), "lower_bound" | "upper_bound" | "step"))
            .map(|(k, v)| match v {
                Attr::Unit => k.clone(),
                _ => format!("{k} = {v}"),
            })
            .collect();
        if attrs.is_empty() {
            let _ = writeln!(self.out, "{pad}}}");
        } else {
            let _ = writeln!(self.out, "{pad}}} {{{}}}", attrs.join(", "));
        }
    }

    fn print_if(&mut self, op: &Op, indent: usize) {
        let pad = "  ".repeat(indent);
        let c = self.val(&op.operands[0]);
        let _ = writeln!(self.out, "{pad}scf.if {c} {{");
        for inner in &op.regions[0].entry().ops {
            self.print_op(inner, indent + 1);
        }
        let has_else = op
            .regions
            .get(1)
            .map(|r| !r.entry().ops.is_empty())
            .unwrap_or(false);
        if has_else {
            let _ = writeln!(self.out, "{pad}}} else {{");
            for inner in &op.regions[1].entry().ops {
                self.print_op(inner, indent + 1);
            }
        }
        let _ = writeln!(self.out, "{pad}}}");
    }

    fn print_generic(&mut self, op: &Op, indent: usize) {
        let pad = "  ".repeat(indent);
        let lhs = self.bind_results(op);
        let args: Vec<String> = op.operands.iter().map(|v| self.val(v)).collect();
        let succ: Vec<String> = op
            .successors
            .iter()
            .map(|(uid, args)| {
                let a: Vec<String> = args.iter().map(|v| self.val(v)).collect();
                if a.is_empty() {
                    format!("^bb{uid}")
                } else {
                    format!("^bb{uid}({})", a.join(", "))
                }
            })
            .collect();
        let succ_str = if succ.is_empty() {
            String::new()
        } else {
            format!("[{}]", succ.join(", "))
        };
        let attr_str = if op.attrs.is_empty() {
            String::new()
        } else {
            let items: Vec<String> = op.attrs.iter().map(|(k, v)| format!("{k} = {v}")).collect();
            format!(" {{{}}}", items.join(", "))
        };
        let in_tys: Vec<String> = op.operands.iter().map(|v| v.ty.to_string()).collect();
        let out_tys: Vec<String> = op.result_types.iter().map(|t| t.to_string()).collect();
        let _ = writeln!(
            self.out,
            "{pad}{lhs}\"{}\"({}){succ_str}{attr_str} : ({}) -> ({})",
            op.name,
            args.join(", "),
            in_tys.join(", "),
            out_tys.join(", ")
        );
        for r in &op.regions {
            for b in &r.blocks {
                let _ = writeln!(self.out, "{pad}^bb{}:", b.uid);
                for inner in &b.ops {
                    self.print_op(inner, indent + 1);
                }
            }
        }
    }
}

/// Render map results with dims substituted by operand names:
/// `(d0 + 1, 2*d1)` over `["%i", "%j"]` -> `%i + 1, 2 * %j`.
fn subscripts(map: &Option<AffineMap>, dims: &[String]) -> String {
    let Some(map) = map else {
        return dims.join(", ");
    };
    map.results
        .iter()
        .map(|e| expr_with_names(e, dims))
        .collect::<Vec<_>>()
        .join(", ")
}

fn expr_with_names(e: &AffineExpr, dims: &[String]) -> String {
    match e {
        AffineExpr::Dim(i) => dims
            .get(*i as usize)
            .cloned()
            .unwrap_or_else(|| format!("d{i}")),
        AffineExpr::Sym(i) => format!("s{i}"),
        AffineExpr::Const(v) => v.to_string(),
        AffineExpr::Add(a, b) => match &**b {
            AffineExpr::Const(c) if *c < 0 => {
                format!("{} - {}", expr_with_names(a, dims), -c)
            }
            _ => format!(
                "{} + {}",
                expr_with_names(a, dims),
                expr_with_names(b, dims)
            ),
        },
        AffineExpr::Mul(a, b) => format!(
            "{} * {}",
            expr_with_names(b, dims),
            expr_with_names(a, dims)
        ),
        AffineExpr::Mod(a, m) => format!("({}) mod {m}", expr_with_names(a, dims)),
        AffineExpr::FloorDiv(a, d) => format!("({}) floordiv {d}", expr_with_names(a, dims)),
        AffineExpr::CeilDiv(a, d) => format!("({}) ceildiv {d}", expr_with_names(a, dims)),
    }
}
