//! The MLIR-lite parser that `mlir_lite::parser` replaced, kept verbatim
//! (bar import paths) as the oracle of `tests/text_differential.rs`.
//!
//! Every token owns a `String`, `eat_word` allocates for each keyword
//! comparison, and each `affine.for` body parses in a clone of the whole
//! name environment. It panics on `affine.for ... step 0` and on a load of
//! a non-memref value, where the new parser returns a located error.

use std::collections::HashMap;

use mlir_lite::affine::{AffineExpr, AffineMap};
use mlir_lite::attr::Attr;
use mlir_lite::dialects::{affine as affine_ops, arith, func as func_ops, math, memref};
use mlir_lite::ir::{MType, MValue, MlirModule, Op};
use mlir_lite::{Error, Result};

#[derive(Clone, Debug, PartialEq)]
enum Tok {
    Word(String),
    /// `%name`.
    Val(String),
    /// `@name`.
    Sym(String),
    Int(i64),
    Float(f64),
    Str(String),
    Punct(char),
    Eof,
}

struct Lexer<'a> {
    src: &'a [u8],
    pos: usize,
    line: u32,
}

impl<'a> Lexer<'a> {
    fn new(src: &'a str) -> Lexer<'a> {
        Lexer {
            src: src.as_bytes(),
            pos: 0,
            line: 1,
        }
    }

    fn err(&self, msg: impl Into<String>) -> Error {
        Error::Parse {
            line: self.line,
            msg: msg.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.src.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        loop {
            match self.peek() {
                Some(b'\n') => {
                    self.line += 1;
                    self.pos += 1;
                }
                Some(c) if c.is_ascii_whitespace() => self.pos += 1,
                Some(b'/') if self.src.get(self.pos + 1) == Some(&b'/') => {
                    while let Some(c) = self.peek() {
                        if c == b'\n' {
                            break;
                        }
                        self.pos += 1;
                    }
                }
                _ => break,
            }
        }
    }

    fn ident(&mut self) -> String {
        let start = self.pos;
        while let Some(c) = self.peek() {
            if c.is_ascii_alphanumeric() || c == b'_' || c == b'.' {
                self.pos += 1;
            } else {
                break;
            }
        }
        String::from_utf8_lossy(&self.src[start..self.pos]).into_owned()
    }

    /// Consume raw text up to (and including) the matching `close`,
    /// balancing nested `open`/`close`. Used for `memref<...>` payloads.
    fn raw_until_balanced(&mut self, open: u8, close: u8) -> Result<String> {
        let start = self.pos;
        let mut depth = 1;
        while let Some(c) = self.peek() {
            self.pos += 1;
            if c == open {
                depth += 1;
            } else if c == close {
                depth -= 1;
                if depth == 0 {
                    return Ok(String::from_utf8_lossy(&self.src[start..self.pos - 1]).into_owned());
                }
            } else if c == b'\n' {
                self.line += 1;
            }
        }
        Err(self.err("unterminated type bracket"))
    }

    fn next(&mut self) -> Result<Tok> {
        self.skip_ws();
        let Some(c) = self.peek() else {
            return Ok(Tok::Eof);
        };
        match c {
            b'%' => {
                self.pos += 1;
                Ok(Tok::Val(self.ident()))
            }
            b'@' => {
                self.pos += 1;
                Ok(Tok::Sym(self.ident()))
            }
            b'"' => {
                self.pos += 1;
                let start = self.pos;
                while let Some(c) = self.peek() {
                    if c == b'"' {
                        let s = String::from_utf8_lossy(&self.src[start..self.pos]).into_owned();
                        self.pos += 1;
                        return Ok(Tok::Str(s));
                    }
                    self.pos += 1;
                }
                Err(self.err("unterminated string"))
            }
            b'-' if !self
                .src
                .get(self.pos + 1)
                .map(|d| d.is_ascii_digit())
                .unwrap_or(false) =>
            {
                self.pos += 1;
                Ok(Tok::Punct('-'))
            }
            b'-' | b'0'..=b'9' => {
                let start = self.pos;
                self.pos += 1;
                let mut is_float = false;
                while let Some(d) = self.peek() {
                    if d.is_ascii_digit() {
                        self.pos += 1;
                    } else if d == b'.'
                        && self
                            .src
                            .get(self.pos + 1)
                            .map(|x| x.is_ascii_digit())
                            .unwrap_or(false)
                    {
                        is_float = true;
                        self.pos += 1;
                    } else if (d == b'e' || d == b'E') && is_float {
                        // Exponent: 'e', optional sign, then at least one
                        // digit. Consuming anything else here could split a
                        // multi-byte UTF-8 character.
                        self.pos += 1;
                        if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                            self.pos += 1;
                        }
                        if !self.peek().map(|x| x.is_ascii_digit()).unwrap_or(false) {
                            return Err(self.err("malformed float exponent"));
                        }
                        while let Some(x) = self.peek() {
                            if x.is_ascii_digit() {
                                self.pos += 1;
                            } else {
                                break;
                            }
                        }
                        break;
                    } else {
                        break;
                    }
                }
                let text = std::str::from_utf8(&self.src[start..self.pos])
                    .map_err(|_| self.err("invalid UTF-8 in numeric literal"))?;
                if is_float {
                    text.parse::<f64>()
                        .map(Tok::Float)
                        .map_err(|_| self.err("bad float literal"))
                } else {
                    text.parse::<i64>()
                        .map(Tok::Int)
                        .map_err(|_| self.err("bad int literal"))
                }
            }
            c if c.is_ascii_alphabetic() || c == b'_' => Ok(Tok::Word(self.ident())),
            c => {
                self.pos += 1;
                Ok(Tok::Punct(c as char))
            }
        }
    }
}

struct Parser<'a> {
    lex: Lexer<'a>,
    tok: Tok,
    /// Current region-nesting depth; bounded so adversarial input cannot
    /// overflow the stack through `parse_op` → `parse_affine_for` recursion
    /// (a stack overflow aborts the process and cannot be caught).
    depth: u32,
}

/// Deepest region nesting accepted by the parser. Real kernels nest a
/// handful of loops; this only exists to turn hostile input into a
/// located error instead of a stack overflow (which aborts the process
/// and cannot be isolated by `catch_unwind`). Each level costs ~70 KiB
/// of parser frames in debug builds and test threads run on 2 MiB
/// stacks, so 16 keeps a 2x safety margin.
const MAX_NESTING_DEPTH: u32 = 16;

type Env = HashMap<String, MValue>;

impl<'a> Parser<'a> {
    fn new(src: &'a str) -> Result<Parser<'a>> {
        let mut lex = Lexer::new(src);
        let tok = lex.next()?;
        Ok(Parser { lex, tok, depth: 0 })
    }

    fn err(&self, msg: impl Into<String>) -> Error {
        self.lex.err(msg)
    }

    fn bump(&mut self) -> Result<Tok> {
        Ok(std::mem::replace(&mut self.tok, self.lex.next()?))
    }

    fn eat_punct(&mut self, c: char) -> Result<()> {
        if self.tok == Tok::Punct(c) {
            self.bump()?;
            Ok(())
        } else {
            Err(self.err(format!("expected '{c}', got {:?}", self.tok)))
        }
    }

    fn eat_word(&mut self, w: &str) -> Result<()> {
        if self.tok == Tok::Word(w.to_string()) {
            self.bump()?;
            Ok(())
        } else {
            Err(self.err(format!("expected '{w}', got {:?}", self.tok)))
        }
    }

    fn at_word(&self, w: &str) -> bool {
        matches!(&self.tok, Tok::Word(s) if s == w)
    }

    fn take_val(&mut self) -> Result<String> {
        match self.bump()? {
            Tok::Val(n) => Ok(n),
            other => Err(self.err(format!("expected %value, got {other:?}"))),
        }
    }

    fn lookup(&self, env: &Env, name: &str) -> Result<MValue> {
        env.get(name)
            .cloned()
            .ok_or_else(|| self.err(format!("use of undefined value %{name}")))
    }

    fn take_and_lookup(&mut self, env: &Env) -> Result<MValue> {
        let name = self.take_val()?;
        self.lookup(env, &name)
    }

    // ---- types --------------------------------------------------------

    fn parse_type(&mut self) -> Result<MType> {
        match self.bump()? {
            Tok::Word(w) => match w.as_str() {
                "index" => Ok(MType::Index),
                "f32" => Ok(MType::F32),
                "f64" => Ok(MType::F64),
                "none" => Ok(MType::None),
                "memref" => {
                    // The '<' follows; grab the raw payload.
                    self.eat_punct('<')?;
                    // We already tokenized past '<'; the current token stream
                    // would mangle `32x32xf32`, so re-lex raw from the source.
                    // To do that we reconstruct: current token holds the first
                    // piece; simplest robust approach: the lexer call below.
                    Err(self.err("internal: memref must be parsed via parse_type_text"))
                }
                _ if w.starts_with('i') && w[1..].chars().all(|c| c.is_ascii_digit()) => w[1..]
                    .parse()
                    .map(MType::Int)
                    .map_err(|_| self.err("bad integer type width")),
                other => Err(self.err(format!("unknown type '{other}'"))),
            },
            other => Err(self.err(format!("expected type, got {other:?}"))),
        }
    }

    /// Types appear after ':' in our grammar; `memref<...>` needs raw
    /// lexing, so every type position goes through this entry point, which
    /// peeks at the *word* before deciding.
    fn parse_type_pos(&mut self) -> Result<MType> {
        if self.at_word("memref") {
            self.bump()?; // 'memref'
                          // self.tok is now '<'; the raw payload must be taken from the
                          // lexer directly, bypassing the one-token lookahead.
            if self.tok != Tok::Punct('<') {
                return Err(self.err("expected '<' after memref"));
            }
            let payload = self.lex.raw_until_balanced(b'<', b'>')?;
            self.tok = self.lex.next()?;
            parse_memref_payload(&payload)
                .ok_or_else(|| self.err(format!("bad memref type 'memref<{payload}>'")))
        } else {
            self.parse_type()
        }
    }

    // ---- module -------------------------------------------------------

    fn parse_module(&mut self, default_name: &str) -> Result<MlirModule> {
        let mut m = MlirModule::new(default_name);
        if self.at_word("module") {
            self.bump()?;
            if let Tok::Sym(_) = &self.tok {
                let Tok::Sym(n) = self.bump()? else {
                    unreachable!()
                };
                m.name = n;
            }
            self.eat_punct('{')?;
            while self.tok != Tok::Punct('}') {
                m.ops.push(self.parse_func()?);
            }
            self.eat_punct('}')?;
        } else {
            while self.tok != Tok::Eof {
                m.ops.push(self.parse_func()?);
            }
        }
        Ok(m)
    }

    fn parse_func(&mut self) -> Result<Op> {
        self.eat_word("func.func")?;
        let name = match self.bump()? {
            Tok::Sym(n) => n,
            other => return Err(self.err(format!("expected @name, got {other:?}"))),
        };
        self.eat_punct('(')?;
        let mut env: Env = HashMap::new();
        let mut param_names = Vec::new();
        let mut param_types = Vec::new();
        while self.tok != Tok::Punct(')') {
            let pname = self.take_val()?;
            self.eat_punct(':')?;
            let ty = self.parse_type_pos()?;
            param_names.push(pname);
            param_types.push(ty);
            if self.tok == Tok::Punct(',') {
                self.bump()?;
            }
        }
        self.eat_punct(')')?;
        // Optional `-> type`.
        let mut ret_ty = MType::None;
        if self.tok == Tok::Punct('-') {
            self.bump()?;
            self.eat_punct('>')?;
            ret_ty = self.parse_type_pos()?;
        }
        let mut f = func_ops::func(&name, param_types, ret_ty);
        // Optional `attributes {...}`.
        if self.at_word("attributes") {
            self.bump()?;
            let attrs = self.parse_attr_dict()?;
            f.attrs.extend(attrs);
        }
        for (i, n) in param_names.iter().enumerate() {
            env.insert(n.clone(), f.regions[0].entry().arg(i as u32));
        }
        self.eat_punct('{')?;
        let mut body = Vec::new();
        while self.tok != Tok::Punct('}') {
            body.push(self.parse_op(&mut env)?);
        }
        self.eat_punct('}')?;
        ensure_terminated(&mut body, "func.return");
        f.regions[0].entry_mut().ops = body;
        Ok(f)
    }

    fn parse_attr_dict(&mut self) -> Result<Vec<(String, Attr)>> {
        self.eat_punct('{')?;
        let mut out = Vec::new();
        while self.tok != Tok::Punct('}') {
            let key = match self.bump()? {
                Tok::Word(w) => w,
                other => return Err(self.err(format!("expected attr key, got {other:?}"))),
            };
            if self.tok == Tok::Punct('=') {
                self.bump()?;
                let attr = self.parse_attr_value()?;
                out.push((key, attr));
            } else {
                out.push((key, Attr::Unit));
            }
            if self.tok == Tok::Punct(',') {
                self.bump()?;
            }
        }
        self.eat_punct('}')?;
        Ok(out)
    }

    fn parse_attr_value(&mut self) -> Result<Attr> {
        match self.bump()? {
            Tok::Int(v) => {
                let mut ty = MType::I64;
                if self.tok == Tok::Punct(':') {
                    self.bump()?;
                    ty = self.parse_type_pos()?;
                }
                Ok(Attr::Int(v, ty))
            }
            Tok::Float(v) => {
                let mut ty = MType::F64;
                if self.tok == Tok::Punct(':') {
                    self.bump()?;
                    ty = self.parse_type_pos()?;
                }
                Ok(Attr::Float(v, ty))
            }
            Tok::Str(s) => Ok(Attr::Str(s)),
            Tok::Word(w) if w == "true" => Ok(Attr::Bool(true)),
            Tok::Word(w) if w == "false" => Ok(Attr::Bool(false)),
            Tok::Word(w) if w == "unit" => Ok(Attr::Unit),
            other => Err(self.err(format!("unsupported attribute value {other:?}"))),
        }
    }

    // ---- operations ----------------------------------------------------

    fn parse_op(&mut self, env: &mut Env) -> Result<Op> {
        // Optional result binding.
        let result_name = if let Tok::Val(_) = &self.tok {
            let Tok::Val(n) = self.bump()? else {
                unreachable!()
            };
            self.eat_punct('=')?;
            Some(n)
        } else {
            None
        };
        let opname = match self.bump()? {
            Tok::Word(w) => w,
            other => return Err(self.err(format!("expected op name, got {other:?}"))),
        };
        let op = self.parse_op_body(&opname, env)?;
        if let Some(n) = result_name {
            if op.result_types.is_empty() {
                return Err(self.err(format!("%{n} bound to result-less op {opname}")));
            }
            env.insert(n, op.result(0));
        }
        Ok(op)
    }

    fn parse_op_body(&mut self, opname: &str, env: &mut Env) -> Result<Op> {
        match opname {
            "affine.for" => self.parse_affine_for(env),
            "affine.load" => {
                let mref = self.take_and_lookup(env)?;
                let (map, dims) = self.parse_subscripts(env)?;
                self.eat_punct(':')?;
                let _ty = self.parse_type_pos()?;
                Ok(affine_ops::load(mref, map, dims))
            }
            "affine.store" => {
                let v = self.take_and_lookup(env)?;
                self.eat_punct(',')?;
                let mref = self.take_and_lookup(env)?;
                let (map, dims) = self.parse_subscripts(env)?;
                self.eat_punct(':')?;
                let _ty = self.parse_type_pos()?;
                Ok(affine_ops::store(v, mref, map, dims))
            }
            "affine.apply" => {
                self.eat_punct('(')?;
                let (expr, dims) = self.parse_affine_expr(env)?;
                self.eat_punct(')')?;
                let map = AffineMap::new(dims.len() as u32, 0, vec![expr]);
                Ok(affine_ops::apply(map, dims))
            }
            "affine.yield" => Ok(affine_ops::yield_()),
            "func.return" => {
                if let Tok::Val(_) = &self.tok {
                    let v = self.take_and_lookup(env)?;
                    self.eat_punct(':')?;
                    let _ = self.parse_type_pos()?;
                    Ok(func_ops::ret(Some(v)))
                } else {
                    Ok(func_ops::ret(None))
                }
            }
            "func.call" => {
                let callee = match self.bump()? {
                    Tok::Sym(s) => s,
                    other => return Err(self.err(format!("expected @callee, got {other:?}"))),
                };
                self.eat_punct('(')?;
                let mut args = Vec::new();
                while self.tok != Tok::Punct(')') {
                    args.push(self.take_and_lookup(env)?);
                    if self.tok == Tok::Punct(',') {
                        self.bump()?;
                    }
                }
                self.eat_punct(')')?;
                self.eat_punct(':')?;
                self.eat_punct('(')?;
                while self.tok != Tok::Punct(')') {
                    let _ = self.parse_type_pos()?;
                    if self.tok == Tok::Punct(',') {
                        self.bump()?;
                    }
                }
                self.eat_punct(')')?;
                self.eat_punct('-')?;
                self.eat_punct('>')?;
                self.eat_punct('(')?;
                let mut ret = None;
                while self.tok != Tok::Punct(')') {
                    ret = Some(self.parse_type_pos()?);
                    if self.tok == Tok::Punct(',') {
                        self.bump()?;
                    }
                }
                self.eat_punct(')')?;
                Ok(func_ops::call(&callee, args, ret))
            }
            "arith.constant" => {
                let attr = self.parse_attr_value()?;
                Ok(match attr {
                    Attr::Int(v, ty) => arith::const_int(v, ty),
                    Attr::Float(v, ty) => arith::const_float(v, ty),
                    other => return Err(self.err(format!("bad constant {other:?}"))),
                })
            }
            "arith.cmpi" | "arith.cmpf" => {
                let pred = match self.bump()? {
                    Tok::Word(w) => w,
                    other => return Err(self.err(format!("expected predicate, got {other:?}"))),
                };
                self.eat_punct(',')?;
                let a = self.take_and_lookup(env)?;
                self.eat_punct(',')?;
                let b = self.take_and_lookup(env)?;
                self.eat_punct(':')?;
                let _ = self.parse_type_pos()?;
                Ok(if opname == "arith.cmpi" {
                    arith::cmpi(&pred, a, b)
                } else {
                    arith::cmpf(&pred, a, b)
                })
            }
            "arith.select" => {
                let c = self.take_and_lookup(env)?;
                self.eat_punct(',')?;
                let a = self.take_and_lookup(env)?;
                self.eat_punct(',')?;
                let b = self.take_and_lookup(env)?;
                self.eat_punct(':')?;
                let _ = self.parse_type_pos()?;
                Ok(arith::select(c, a, b))
            }
            "arith.index_cast" | "arith.sitofp" | "arith.fptosi" => {
                let v = self.take_and_lookup(env)?;
                self.eat_punct(':')?;
                let _from = self.parse_type_pos()?;
                self.eat_word("to")?;
                let to = self.parse_type_pos()?;
                Ok(match opname {
                    "arith.index_cast" => arith::index_cast(v, to),
                    "arith.sitofp" => arith::sitofp(v, to),
                    _ => arith::fptosi(v, to),
                })
            }
            name if name.starts_with("arith.") => {
                let a = self.take_and_lookup(env)?;
                if name == "arith.negf" {
                    self.eat_punct(':')?;
                    let _ = self.parse_type_pos()?;
                    return Ok(arith::negf(a));
                }
                self.eat_punct(',')?;
                let b = self.take_and_lookup(env)?;
                self.eat_punct(':')?;
                let _ = self.parse_type_pos()?;
                let op = match name {
                    "arith.addi" => arith::addi(a, b),
                    "arith.subi" => arith::subi(a, b),
                    "arith.muli" => arith::muli(a, b),
                    "arith.divsi" => arith::divsi(a, b),
                    "arith.remsi" => arith::remsi(a, b),
                    "arith.addf" => arith::addf(a, b),
                    "arith.subf" => arith::subf(a, b),
                    "arith.mulf" => arith::mulf(a, b),
                    "arith.divf" => arith::divf(a, b),
                    other => return Err(self.err(format!("unknown op '{other}'"))),
                };
                Ok(op)
            }
            name if name.starts_with("math.") => {
                let a = self.take_and_lookup(env)?;
                self.eat_punct(':')?;
                let _ = self.parse_type_pos()?;
                Ok(match name {
                    "math.sqrt" => math::sqrt(a),
                    "math.exp" => math::exp(a),
                    "math.absf" => math::absf(a),
                    other => return Err(self.err(format!("unknown op '{other}'"))),
                })
            }
            "memref.alloca" | "memref.alloc" => {
                self.eat_punct('(')?;
                self.eat_punct(')')?;
                self.eat_punct(':')?;
                let ty = self.parse_type_pos()?;
                Ok(if opname == "memref.alloca" {
                    memref::alloca(ty)
                } else {
                    memref::alloc(ty)
                })
            }
            "memref.dealloc" => {
                let v = self.take_and_lookup(env)?;
                self.eat_punct(':')?;
                let _ = self.parse_type_pos()?;
                Ok(memref::dealloc(v))
            }
            "memref.load" => {
                let mref = self.take_and_lookup(env)?;
                self.eat_punct('[')?;
                let mut idx = Vec::new();
                while self.tok != Tok::Punct(']') {
                    idx.push(self.take_and_lookup(env)?);
                    if self.tok == Tok::Punct(',') {
                        self.bump()?;
                    }
                }
                self.eat_punct(']')?;
                self.eat_punct(':')?;
                let _ = self.parse_type_pos()?;
                Ok(memref::load(mref, idx))
            }
            "memref.store" => {
                let v = self.take_and_lookup(env)?;
                self.eat_punct(',')?;
                let mref = self.take_and_lookup(env)?;
                self.eat_punct('[')?;
                let mut idx = Vec::new();
                while self.tok != Tok::Punct(']') {
                    idx.push(self.take_and_lookup(env)?);
                    if self.tok == Tok::Punct(',') {
                        self.bump()?;
                    }
                }
                self.eat_punct(']')?;
                self.eat_punct(':')?;
                let _ = self.parse_type_pos()?;
                Ok(memref::store(v, mref, idx))
            }
            other => Err(self.err(format!("unknown or unparseable op '{other}'"))),
        }
    }

    fn parse_affine_for(&mut self, env: &mut Env) -> Result<Op> {
        self.depth += 1;
        if self.depth > MAX_NESTING_DEPTH {
            return Err(self.err(format!(
                "loop nesting deeper than {MAX_NESTING_DEPTH} levels"
            )));
        }
        let op = self.parse_affine_for_inner(env);
        self.depth -= 1;
        op
    }

    fn parse_affine_for_inner(&mut self, env: &mut Env) -> Result<Op> {
        let iv_name = self.take_val()?;
        self.eat_punct('=')?;
        let lb = match self.bump()? {
            Tok::Int(v) => v,
            other => return Err(self.err(format!("expected constant lower bound, got {other:?}"))),
        };
        self.eat_word("to")?;
        let ub = match self.bump()? {
            Tok::Int(v) => v,
            other => return Err(self.err(format!("expected constant upper bound, got {other:?}"))),
        };
        let mut step = 1;
        if self.at_word("step") {
            self.bump()?;
            step = match self.bump()? {
                Tok::Int(v) => v,
                other => return Err(self.err(format!("expected step, got {other:?}"))),
            };
        }
        let mut l = affine_ops::for_loop(lb, ub, step);
        let mut inner_env = env.clone();
        inner_env.insert(iv_name, l.regions[0].entry().arg(0));
        self.eat_punct('{')?;
        let mut body = Vec::new();
        while self.tok != Tok::Punct('}') {
            body.push(self.parse_op(&mut inner_env)?);
        }
        self.eat_punct('}')?;
        ensure_terminated(&mut body, "affine.yield");
        l.regions[0].entry_mut().ops = body;
        // Optional trailing attr dict: `} {hls.pipeline_ii = 1 : i32}`.
        if self.tok == Tok::Punct('{') {
            for (k, v) in self.parse_attr_dict()? {
                l.attrs.insert(k, v);
            }
        }
        Ok(l)
    }

    /// Parse `[expr, expr, ...]` subscripts into an affine map plus the
    /// distinct dim operands it references (in first-use order).
    fn parse_subscripts(&mut self, env: &Env) -> Result<(AffineMap, Vec<MValue>)> {
        self.eat_punct('[')?;
        let mut dims: Vec<MValue> = Vec::new();
        let mut dim_names: Vec<String> = Vec::new();
        let mut results = Vec::new();
        while self.tok != Tok::Punct(']') {
            let expr = self.parse_affine_expr_with(env, &mut dims, &mut dim_names)?;
            results.push(expr);
            if self.tok == Tok::Punct(',') {
                self.bump()?;
            }
        }
        self.eat_punct(']')?;
        let map = AffineMap::new(dims.len() as u32, 0, results);
        Ok((map, dims))
    }

    fn parse_affine_expr(&mut self, env: &Env) -> Result<(AffineExpr, Vec<MValue>)> {
        let mut dims = Vec::new();
        let mut names = Vec::new();
        let e = self.parse_affine_expr_with(env, &mut dims, &mut names)?;
        Ok((e, dims))
    }

    fn parse_affine_expr_with(
        &mut self,
        env: &Env,
        dims: &mut Vec<MValue>,
        dim_names: &mut Vec<String>,
    ) -> Result<AffineExpr> {
        let mut acc = self.parse_affine_term(env, dims, dim_names)?;
        loop {
            match &self.tok {
                Tok::Punct('+') => {
                    self.bump()?;
                    let t = self.parse_affine_term(env, dims, dim_names)?;
                    acc = acc.add(t);
                }
                Tok::Punct('-') => {
                    self.bump()?;
                    let t = self.parse_affine_term(env, dims, dim_names)?;
                    acc = acc.sub(t);
                }
                // Negative int literal directly after a term means
                // subtraction was lexed into the literal; handle it.
                Tok::Int(v) if *v < 0 => {
                    let v = *v;
                    self.bump()?;
                    acc = acc.add(AffineExpr::cst(v));
                }
                _ => break,
            }
        }
        Ok(acc)
    }

    fn parse_affine_term(
        &mut self,
        env: &Env,
        dims: &mut Vec<MValue>,
        dim_names: &mut Vec<String>,
    ) -> Result<AffineExpr> {
        let mut dim_of = |p: &Parser<'a>, name: &str| -> Result<AffineExpr> {
            if let Some(pos) = dim_names.iter().position(|n| n == name) {
                return Ok(AffineExpr::dim(pos as u32));
            }
            let v = p.lookup(env, name)?;
            dims.push(v);
            dim_names.push(name.to_string());
            Ok(AffineExpr::dim((dims.len() - 1) as u32))
        };
        match self.bump()? {
            Tok::Int(k) => {
                if self.tok == Tok::Punct('*') {
                    self.bump()?;
                    let name = self.take_val()?;
                    let d = dim_of(self, &name)?;
                    Ok(d.mul(AffineExpr::cst(k)))
                } else {
                    Ok(AffineExpr::cst(k))
                }
            }
            Tok::Val(name) => {
                let d = dim_of(self, &name)?;
                if self.tok == Tok::Punct('*') {
                    self.bump()?;
                    match self.bump()? {
                        Tok::Int(k) => Ok(d.mul(AffineExpr::cst(k))),
                        other => Err(self.err(format!("expected constant factor, got {other:?}"))),
                    }
                } else {
                    Ok(d)
                }
            }
            other => Err(self.err(format!("expected affine term, got {other:?}"))),
        }
    }
}

/// `32x32xf32` → memref type. Dimensions are the leading `<n>x` / `?x`
/// prefixes; the remainder is the element type (which may itself contain
/// an `x`, as in `index`).
fn parse_memref_payload(payload: &str) -> Option<MType> {
    let mut rest = payload;
    let mut shape = Vec::new();
    loop {
        if let Some(tail) = rest.strip_prefix("?x") {
            shape.push(-1);
            rest = tail;
            continue;
        }
        let digits: String = rest.chars().take_while(|c| c.is_ascii_digit()).collect();
        if !digits.is_empty() && rest[digits.len()..].starts_with('x') {
            shape.push(digits.parse::<i64>().ok()?);
            rest = &rest[digits.len() + 1..];
            continue;
        }
        break;
    }
    let elem = match rest {
        "f32" => MType::F32,
        "f64" => MType::F64,
        "index" => MType::Index,
        w if w.starts_with('i') && w[1..].chars().all(|c| c.is_ascii_digit()) => {
            MType::Int(w[1..].parse().ok()?)
        }
        _ => return None,
    };
    Some(MType::MemRef {
        shape,
        elem: Box::new(elem),
    })
}

fn ensure_terminated(body: &mut Vec<Op>, terminator: &str) {
    let needs = body.last().map(|o| o.name != terminator).unwrap_or(true);
    if needs {
        body.push(Op::new(terminator));
    }
}

/// Parse MLIR text into a module.
pub fn parse_module(name: &str, src: &str) -> Result<MlirModule> {
    Parser::new(src)?.parse_module(name)
}
