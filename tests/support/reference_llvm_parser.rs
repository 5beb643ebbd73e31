//! The llvm-lite parser that `llvm_lite::parser` replaced, kept verbatim
//! (bar import paths) as the oracle of `tests/text_differential.rs`.
//!
//! Every token owns a `String`, `eat_word` allocates for each keyword
//! comparison, and the body loop clones the lookahead token once per
//! instruction.

use std::collections::hash_map::Entry;
use std::collections::HashMap;

use llvm_lite::inst::{FloatPred, Inst, InstData, IntPred, Opcode};
use llvm_lite::metadata::LoopMetadata;
use llvm_lite::module::{BlockId, Function, Global, GlobalInit, InstId, Module, Param};
use llvm_lite::types::Type;
use llvm_lite::value::Value;
use llvm_lite::{Error, Result};

#[derive(Clone, Debug, PartialEq)]
enum Tok {
    /// Bare identifier or keyword (`define`, `i32`, `add`, `label`, ...).
    Word(String),
    /// `%name`.
    Local(String),
    /// `@name`.
    GlobalSym(String),
    /// `!7`.
    Meta(u32),
    /// `!"llvm.loop.pipeline.enable"`.
    MetaStr(String),
    /// `"text"`.
    Str(String),
    /// Decimal integer literal (optionally signed).
    Int(i128),
    /// `0x`-prefixed 16-digit float literal (f64 bits).
    HexFloat(u64),
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

    fn peek_byte(&self) -> Option<u8> {
        self.src.get(self.pos).copied()
    }

    fn skip_ws_and_comments(&mut self) {
        loop {
            match self.peek_byte() {
                Some(b'\n') => {
                    self.line += 1;
                    self.pos += 1;
                }
                Some(c) if c.is_ascii_whitespace() => self.pos += 1,
                Some(b';') => {
                    while let Some(c) = self.peek_byte() {
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

    fn ident_tail(&mut self) -> String {
        let start = self.pos;
        while let Some(c) = self.peek_byte() {
            if c.is_ascii_alphanumeric() || c == b'_' || c == b'.' || c == b'-' || c == b'$' {
                self.pos += 1;
            } else {
                break;
            }
        }
        String::from_utf8_lossy(&self.src[start..self.pos]).into_owned()
    }

    fn string_tail(&mut self) -> Result<String> {
        // Opening quote already consumed.
        let start = self.pos;
        while let Some(c) = self.peek_byte() {
            if c == b'"' {
                let s = String::from_utf8_lossy(&self.src[start..self.pos]).into_owned();
                self.pos += 1;
                return Ok(s);
            }
            self.pos += 1;
        }
        Err(self.err("unterminated string"))
    }

    fn next(&mut self) -> Result<Tok> {
        self.skip_ws_and_comments();
        let Some(c) = self.peek_byte() else {
            return Ok(Tok::Eof);
        };
        match c {
            b'%' => {
                self.pos += 1;
                if self.peek_byte() == Some(b'"') {
                    self.pos += 1;
                    return Ok(Tok::Local(self.string_tail()?));
                }
                Ok(Tok::Local(self.ident_tail()))
            }
            b'@' => {
                self.pos += 1;
                if self.peek_byte() == Some(b'"') {
                    self.pos += 1;
                    return Ok(Tok::GlobalSym(self.string_tail()?));
                }
                Ok(Tok::GlobalSym(self.ident_tail()))
            }
            b'!' => {
                self.pos += 1;
                match self.peek_byte() {
                    Some(b'"') => {
                        self.pos += 1;
                        Ok(Tok::MetaStr(self.string_tail()?))
                    }
                    Some(d) if d.is_ascii_digit() => {
                        let n = self.ident_tail();
                        n.parse::<u32>()
                            .map(Tok::Meta)
                            .map_err(|_| self.err("bad metadata id"))
                    }
                    _ => {
                        // `!llvm.loop` and similar named metadata keys.
                        Ok(Tok::Word(format!("!{}", self.ident_tail())))
                    }
                }
            }
            b'"' => {
                self.pos += 1;
                Ok(Tok::Str(self.string_tail()?))
            }
            b'0' if self.src.get(self.pos + 1) == Some(&b'x') => {
                self.pos += 2;
                let start = self.pos;
                while let Some(h) = self.peek_byte() {
                    if h.is_ascii_hexdigit() {
                        self.pos += 1;
                    } else {
                        break;
                    }
                }
                let text = std::str::from_utf8(&self.src[start..self.pos])
                    .map_err(|_| self.err("invalid UTF-8 in hex literal"))?;
                u64::from_str_radix(text, 16)
                    .map(Tok::HexFloat)
                    .map_err(|_| self.err("bad hex float"))
            }
            b'-' | b'0'..=b'9' => {
                let start = self.pos;
                self.pos += 1;
                while let Some(d) = self.peek_byte() {
                    if d.is_ascii_digit() {
                        self.pos += 1;
                    } else {
                        break;
                    }
                }
                // Reject floats like 1.5 explicitly — printer never emits
                // them, and silently truncating would corrupt constants.
                if self.peek_byte() == Some(b'.')
                    && self
                        .src
                        .get(self.pos + 1)
                        .map(|d| d.is_ascii_digit())
                        .unwrap_or(false)
                {
                    return Err(self.err("decimal float literals unsupported; use hex form"));
                }
                let text = std::str::from_utf8(&self.src[start..self.pos])
                    .map_err(|_| self.err("invalid UTF-8 in integer literal"))?;
                text.parse::<i128>()
                    .map(Tok::Int)
                    .map_err(|_| self.err("bad integer literal"))
            }
            c if c.is_ascii_alphabetic() || c == b'_' || c == b'.' => {
                Ok(Tok::Word(self.ident_tail()))
            }
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
    /// Current recursion depth through `parse_type`/`parse_init`; bounded
    /// so hostile input like `[1 x [1 x [1 x ...` becomes a located error
    /// instead of a stack overflow (which aborts and cannot be caught).
    depth: u32,
}

/// Deepest type/initializer nesting accepted. Real modules nest arrays two
/// or three levels; the bound only defends against adversarial input.
const MAX_NESTING_DEPTH: u32 = 16;

/// Placeholder value for a not-yet-defined `%name`; patched at function end.
struct Fixup {
    inst: InstId,
    operand: usize,
    name: String,
}

impl<'a> Parser<'a> {
    fn new(src: &'a str) -> Result<Parser<'a>> {
        let mut lex = Lexer::new(src);
        let tok = lex.next()?;
        Ok(Parser { lex, tok, depth: 0 })
    }

    fn enter_nesting(&mut self) -> Result<()> {
        self.depth += 1;
        if self.depth > MAX_NESTING_DEPTH {
            return Err(self.err(format!(
                "type/initializer nesting deeper than {MAX_NESTING_DEPTH} levels"
            )));
        }
        Ok(())
    }

    fn err(&self, msg: impl Into<String>) -> Error {
        self.lex.err(msg)
    }

    fn bump(&mut self) -> Result<Tok> {
        let t = std::mem::replace(&mut self.tok, self.lex.next()?);
        Ok(t)
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

    fn take_word(&mut self) -> Result<String> {
        match self.bump()? {
            Tok::Word(w) => Ok(w),
            other => Err(self.err(format!("expected identifier, got {other:?}"))),
        }
    }

    // ---- types ------------------------------------------------------

    fn parse_type(&mut self) -> Result<Type> {
        let mut base = match self.bump()? {
            Tok::Word(w) => match w.as_str() {
                "void" => Type::Void,
                "float" => Type::Float,
                "double" => Type::Double,
                _ if w.starts_with('i') && w[1..].chars().all(|c| c.is_ascii_digit()) => {
                    let width: u32 = w[1..]
                        .parse()
                        .map_err(|_| self.err("bad integer type width"))?;
                    Type::Int(width)
                }
                _ => return Err(self.err(format!("unknown type '{w}'"))),
            },
            Tok::Punct('[') => {
                let n = match self.bump()? {
                    Tok::Int(n) if n >= 0 => n as u64,
                    other => return Err(self.err(format!("expected array length, got {other:?}"))),
                };
                self.eat_word("x")?;
                self.enter_nesting()?;
                let elem = self.parse_type();
                self.depth -= 1;
                let elem = elem?;
                self.eat_punct(']')?;
                Type::Array(n, Box::new(elem))
            }
            other => return Err(self.err(format!("expected type, got {other:?}"))),
        };
        while self.tok == Tok::Punct('*') {
            self.bump()?;
            base = base.ptr_to();
        }
        Ok(base)
    }

    // ---- values -----------------------------------------------------

    /// Parse a value of a known type. `%name` references are resolved via
    /// `names` or recorded in `pending` for fixup.
    fn parse_value(
        &mut self,
        ty: &Type,
        names: &HashMap<String, Value>,
        pending: &mut Vec<(usize, String)>,
        operand_index: usize,
    ) -> Result<Value> {
        match self.bump()? {
            Tok::Local(name) => match names.get(&name) {
                Some(v) => Ok(v.clone()),
                None => {
                    pending.push((operand_index, name));
                    Ok(Value::Undef(ty.clone()))
                }
            },
            Tok::GlobalSym(name) => Ok(Value::Global(name)),
            Tok::Int(v) => Ok(Value::ConstInt {
                ty: ty.clone(),
                value: v,
            }),
            Tok::HexFloat(bits) => Ok(Value::ConstFloat {
                ty: ty.clone(),
                bits,
            }),
            Tok::Word(w) if w == "null" => Ok(Value::NullPtr(ty.clone())),
            Tok::Word(w) if w == "undef" => Ok(Value::Undef(ty.clone())),
            Tok::Word(w) if w == "true" => Ok(Value::bool(true)),
            Tok::Word(w) if w == "false" => Ok(Value::bool(false)),
            other => Err(self.err(format!("expected value, got {other:?}"))),
        }
    }

    // ---- module-level -----------------------------------------------

    fn parse_module(&mut self, name: &str) -> Result<Module> {
        let mut m = Module::new(name);
        let mut raw_mds: HashMap<u32, RawMd> = HashMap::new();
        let mut md_uses: Vec<(String, InstId, u32)> = Vec::new(); // (func, inst, md no)
        loop {
            match &self.tok {
                Tok::Eof => break,
                Tok::Word(w) if w == "target" => {
                    self.bump()?;
                    self.eat_word("triple")?;
                    self.eat_punct('=')?;
                    match self.bump()? {
                        Tok::Str(s) => m.target_triple = Some(s),
                        other => return Err(self.err(format!("expected triple, got {other:?}"))),
                    }
                }
                Tok::Word(w) if w == "define" => {
                    self.bump()?;
                    let (f, uses) = self.parse_function(false)?;
                    for (inst, md) in uses {
                        md_uses.push((f.name.clone(), inst, md));
                    }
                    m.functions.push(f);
                }
                Tok::Word(w) if w == "declare" => {
                    self.bump()?;
                    let (f, _) = self.parse_function(true)?;
                    m.functions.push(f);
                }
                Tok::GlobalSym(_) => {
                    let g = self.parse_global()?;
                    m.globals.push(g);
                }
                Tok::Meta(_) => {
                    let (id, raw) = self.parse_md_def()?;
                    raw_mds.insert(id, raw);
                }
                other => return Err(self.err(format!("unexpected top-level token {other:?}"))),
            }
        }
        // Decode metadata graphs into LoopMetadata and patch references.
        let mut md_map: HashMap<u32, u32> = HashMap::new();
        let mut ordered: Vec<u32> = raw_mds.keys().copied().collect();
        ordered.sort_unstable();
        for id in ordered {
            if raw_mds[&id].distinct {
                let decoded = decode_loop_md(id, &raw_mds);
                let new_id = m.add_loop_md(decoded);
                md_map.insert(id, new_id);
            }
        }
        for (fname, inst, md) in md_uses {
            let Some(&new_id) = md_map.get(&md) else {
                return Err(Error::Parse {
                    line: 0,
                    msg: format!("!llvm.loop references unknown metadata !{md}"),
                });
            };
            if let Some(f) = m.function_mut(&fname) {
                f.inst_mut(inst).loop_md = Some(new_id);
            }
        }
        Ok(m)
    }

    fn parse_global(&mut self) -> Result<Global> {
        let name = match self.bump()? {
            Tok::GlobalSym(n) => n,
            other => return Err(self.err(format!("expected global symbol, got {other:?}"))),
        };
        self.eat_punct('=')?;
        let kind = self.take_word()?;
        let is_const = match kind.as_str() {
            "constant" => true,
            "global" => false,
            other => return Err(self.err(format!("expected global/constant, got '{other}'"))),
        };
        let ty = self.parse_type()?;
        let init = Some(self.parse_init(&ty)?);
        let mut align = 0u32;
        if self.tok == Tok::Punct(',') {
            self.bump()?;
            self.eat_word("align")?;
            align = match self.bump()? {
                Tok::Int(a) => a as u32,
                other => return Err(self.err(format!("expected alignment, got {other:?}"))),
            };
        }
        Ok(Global {
            name,
            ty,
            init,
            is_const,
            align,
        })
    }

    fn parse_init(&mut self, ty: &Type) -> Result<GlobalInit> {
        match self.bump()? {
            Tok::Word(w) if w == "zeroinitializer" => Ok(GlobalInit::Zero),
            Tok::Word(w) if w == "external" => Ok(GlobalInit::Zero),
            Tok::Int(v) => Ok(GlobalInit::Int(v)),
            Tok::HexFloat(bits) => Ok(GlobalInit::Float(bits)),
            Tok::Punct('[') => {
                let mut elems = Vec::new();
                let elem_ty = ty.array_elem().cloned().unwrap_or(Type::I8);
                loop {
                    if self.tok == Tok::Punct(']') {
                        self.bump()?;
                        break;
                    }
                    let _ety = self.parse_type()?;
                    self.enter_nesting()?;
                    let elem = self.parse_init(&elem_ty);
                    self.depth -= 1;
                    elems.push(elem?);
                    if self.tok == Tok::Punct(',') {
                        self.bump()?;
                    }
                }
                Ok(GlobalInit::Array(elems))
            }
            other => Err(self.err(format!("expected initializer, got {other:?}"))),
        }
    }

    fn parse_string_attrs(&mut self) -> Result<Vec<(String, String)>> {
        let mut attrs = Vec::new();
        while let Tok::Str(_) = &self.tok {
            let k = match self.bump()? {
                Tok::Str(s) => s,
                _ => unreachable!(),
            };
            self.eat_punct('=')?;
            let v = match self.bump()? {
                Tok::Str(s) => s,
                other => return Err(self.err(format!("expected attr value, got {other:?}"))),
            };
            attrs.push((k, v));
        }
        Ok(attrs)
    }

    // ---- functions ----------------------------------------------------

    fn parse_function(&mut self, is_decl: bool) -> Result<(Function, Vec<(InstId, u32)>)> {
        let ret_ty = self.parse_type()?;
        let name = match self.bump()? {
            Tok::GlobalSym(n) => n,
            other => return Err(self.err(format!("expected function name, got {other:?}"))),
        };
        self.eat_punct('(')?;
        let mut params = Vec::new();
        let mut anon = 0u32;
        while self.tok != Tok::Punct(')') {
            let ty = self.parse_type()?;
            let attrs = self.parse_string_attrs()?;
            let line = self.lex.line;
            let pname = match &self.tok {
                Tok::Local(_) => match self.bump()? {
                    Tok::Local(n) => n,
                    _ => unreachable!(),
                },
                _ => {
                    let n = format!("arg{anon}");
                    anon += 1;
                    n
                }
            };
            if params.iter().any(|p: &Param| p.name == pname) {
                return Err(Error::Parse {
                    line,
                    msg: format!("multiple definition of local value %{pname}"),
                });
            }
            let mut p = Param::new(pname, ty);
            p.attrs.extend(attrs);
            params.push(p);
            if self.tok == Tok::Punct(',') {
                self.bump()?;
            }
        }
        self.eat_punct(')')?;
        let fn_attrs = self.parse_string_attrs()?;
        let mut f = if is_decl {
            Function::declaration(name, params, ret_ty)
        } else {
            Function::new(name, params, ret_ty)
        };
        f.attrs.extend(fn_attrs);
        let mut md_uses = Vec::new();
        if !is_decl {
            self.eat_punct('{')?;
            self.parse_body(&mut f, &mut md_uses)?;
            self.eat_punct('}')?;
        }
        Ok((f, md_uses))
    }

    fn parse_body(&mut self, f: &mut Function, md_uses: &mut Vec<(InstId, u32)>) -> Result<()> {
        let mut names: HashMap<String, Value> = HashMap::new();
        for (i, p) in f.params.iter().enumerate() {
            names.insert(p.name.clone(), Value::Arg(i as u32));
        }
        let mut blocks: HashMap<String, BlockId> = HashMap::new();
        let mut block_fixups: Vec<(InstId, String, SuccSlot)> = Vec::new();
        let mut value_fixups: Vec<Fixup> = Vec::new();
        let mut current: Option<BlockId> = None;
        let mut get_block = |f: &mut Function, blocks: &mut HashMap<String, BlockId>, n: &str| {
            if let Some(&b) = blocks.get(n) {
                return b;
            }
            let b = f.add_block(n);
            blocks.insert(n.to_string(), b);
            b
        };

        loop {
            match self.tok.clone() {
                Tok::Punct('}') => break,
                // A label: `name:`
                Tok::Word(w)
                    if {
                        // Peek: a word followed by ':' is a label.
                        // (Instructions without a result always start with a
                        // mnemonic that is never followed by ':'.)
                        self.lex.skip_ws_and_comments();
                        self.lex.peek_byte() == Some(b':')
                    } =>
                {
                    self.bump()?; // word
                    self.eat_punct(':')?;
                    let b = get_block(f, &mut blocks, &w);
                    // A block may have been created early by a forward
                    // branch reference; layout follows *definition* order.
                    f.block_order.retain(|&x| x != b);
                    f.block_order.push(b);
                    current = Some(b);
                }
                _ => {
                    let b = match current {
                        Some(b) => b,
                        None => {
                            // Implicit entry block, as real LLVM allows.
                            let b = get_block(f, &mut blocks, "entry");
                            current = Some(b);
                            b
                        }
                    };
                    self.parse_inst(
                        f,
                        b,
                        &mut names,
                        &mut blocks,
                        &mut get_block,
                        &mut value_fixups,
                        &mut block_fixups,
                        md_uses,
                    )?;
                }
            }
        }

        // Resolve value forward references.
        for fx in value_fixups {
            let Some(v) = names.get(&fx.name) else {
                return Err(self.err(format!("use of undefined value %{}", fx.name)));
            };
            let v = v.clone();
            f.inst_mut(fx.inst).operands[fx.operand] = v;
        }
        // Resolve successor label references (created eagerly, nothing to do)
        // — get_block already interned them; block_fixups kept for phis.
        for (inst, label, slot) in block_fixups {
            let Some(&b) = blocks.get(&label) else {
                return Err(self.err(format!("branch to undefined label %{label}")));
            };
            if let (InstData::Phi { incoming }, SuccSlot::PhiEdge(i)) =
                (&mut f.inst_mut(inst).data, slot)
            {
                incoming[i] = b
            }
        }
        Ok(())
    }

    #[allow(clippy::too_many_arguments)]
    fn parse_inst(
        &mut self,
        f: &mut Function,
        block: BlockId,
        names: &mut HashMap<String, Value>,
        blocks: &mut HashMap<String, BlockId>,
        get_block: &mut impl FnMut(&mut Function, &mut HashMap<String, BlockId>, &str) -> BlockId,
        value_fixups: &mut Vec<Fixup>,
        block_fixups: &mut Vec<(InstId, String, SuccSlot)>,
        md_uses: &mut Vec<(InstId, u32)>,
    ) -> Result<()> {
        // Optional result binding, with the line it sits on.
        let result_name = if let Tok::Local(_) = &self.tok {
            let line = self.lex.line;
            let n = match self.bump()? {
                Tok::Local(n) => n,
                _ => unreachable!(),
            };
            self.eat_punct('=')?;
            Some((n, line))
        } else {
            None
        };

        let mnemonic = self.take_word()?;
        let mut pending: Vec<(usize, String)> = Vec::new();
        let inst = self.parse_inst_after_mnemonic(
            f,
            &mnemonic,
            names,
            blocks,
            get_block,
            &mut pending,
            block_fixups,
        )?;
        let has_result = inst.has_result();
        let mut inst = inst;
        if let Some((n, _)) = &result_name {
            inst.name = n.clone();
        }
        let id = f.push_inst(block, inst);
        // Trailing `, !llvm.loop !N`.
        if self.tok == Tok::Punct(',') {
            // Only consume if followed by the metadata key.
            let save_pos = self.lex.pos;
            let save_line = self.lex.line;
            let save_tok = self.tok.clone();
            self.bump()?;
            if self.at_word("!llvm.loop") {
                self.bump()?;
                match self.bump()? {
                    Tok::Meta(n) => md_uses.push((id, n)),
                    other => return Err(self.err(format!("expected !N, got {other:?}"))),
                }
            } else {
                self.lex.pos = save_pos;
                self.lex.line = save_line;
                self.tok = save_tok;
            }
        }
        for (op_idx, name) in pending {
            value_fixups.push(Fixup {
                inst: id,
                operand: op_idx,
                name,
            });
        }
        if let Some((n, line)) = result_name {
            if !has_result {
                return Err(self.err(format!("%{n} bound to void instruction")));
            }
            // As in LLVM, a local name is defined once: rebinding it would
            // silently retarget every later use.
            match names.entry(n) {
                Entry::Occupied(taken) => {
                    return Err(Error::Parse {
                        line,
                        msg: format!("multiple definition of local value %{}", taken.key()),
                    })
                }
                Entry::Vacant(slot) => {
                    slot.insert(Value::Inst(id));
                }
            }
        }
        // Late fix: phi/branch placeholder successors recorded against this id.
        for fx in block_fixups.iter_mut() {
            if fx.0 == u32::MAX {
                fx.0 = id;
            }
        }
        Ok(())
    }

    #[allow(clippy::too_many_arguments)]
    fn parse_inst_after_mnemonic(
        &mut self,
        f: &mut Function,
        mnemonic: &str,
        names: &HashMap<String, Value>,
        blocks: &mut HashMap<String, BlockId>,
        get_block: &mut impl FnMut(&mut Function, &mut HashMap<String, BlockId>, &str) -> BlockId,
        pending: &mut Vec<(usize, String)>,
        block_fixups: &mut Vec<(InstId, String, SuccSlot)>,
    ) -> Result<Inst> {
        let int_ops: &[(&str, Opcode)] = &[
            ("add", Opcode::Add),
            ("sub", Opcode::Sub),
            ("mul", Opcode::Mul),
            ("sdiv", Opcode::SDiv),
            ("udiv", Opcode::UDiv),
            ("srem", Opcode::SRem),
            ("urem", Opcode::URem),
            ("and", Opcode::And),
            ("or", Opcode::Or),
            ("xor", Opcode::Xor),
            ("shl", Opcode::Shl),
            ("lshr", Opcode::LShr),
            ("ashr", Opcode::AShr),
            ("fadd", Opcode::FAdd),
            ("fsub", Opcode::FSub),
            ("fmul", Opcode::FMul),
            ("fdiv", Opcode::FDiv),
            ("frem", Opcode::FRem),
        ];
        if let Some((_, op)) = int_ops.iter().find(|(m, _)| *m == mnemonic) {
            // `add i32 %a, %b`; clang also emits wrap flags — accept and drop.
            while self.at_word("nsw") || self.at_word("nuw") || self.at_word("fast") {
                self.bump()?;
            }
            let ty = self.parse_type()?;
            let a = self.parse_value(&ty, names, pending, 0)?;
            self.eat_punct(',')?;
            let b = self.parse_value(&ty, names, pending, 1)?;
            return Ok(Inst::new(*op, ty, vec![a, b]));
        }
        match mnemonic {
            "fneg" => {
                let ty = self.parse_type()?;
                let a = self.parse_value(&ty, names, pending, 0)?;
                Ok(Inst::new(Opcode::FNeg, ty, vec![a]))
            }
            "icmp" => {
                let pred = IntPred::from_mnemonic(&self.take_word()?)
                    .ok_or_else(|| self.err("bad icmp predicate"))?;
                let ty = self.parse_type()?;
                let a = self.parse_value(&ty, names, pending, 0)?;
                self.eat_punct(',')?;
                let b = self.parse_value(&ty, names, pending, 1)?;
                Ok(Inst::new(Opcode::ICmp, Type::I1, vec![a, b]).with_data(InstData::ICmp(pred)))
            }
            "fcmp" => {
                let pred = FloatPred::from_mnemonic(&self.take_word()?)
                    .ok_or_else(|| self.err("bad fcmp predicate"))?;
                let ty = self.parse_type()?;
                let a = self.parse_value(&ty, names, pending, 0)?;
                self.eat_punct(',')?;
                let b = self.parse_value(&ty, names, pending, 1)?;
                Ok(Inst::new(Opcode::FCmp, Type::I1, vec![a, b]).with_data(InstData::FCmp(pred)))
            }
            "load" => {
                let ty = self.parse_type()?;
                self.eat_punct(',')?;
                let pty = self.parse_type()?;
                let p = self.parse_value(&pty, names, pending, 0)?;
                let mut align = ty.align_in_bytes() as u32;
                if self.tok == Tok::Punct(',') {
                    self.bump()?;
                    self.eat_word("align")?;
                    align = match self.bump()? {
                        Tok::Int(a) => a as u32,
                        other => return Err(self.err(format!("expected align, got {other:?}"))),
                    };
                }
                Ok(Inst::new(Opcode::Load, ty, vec![p]).with_data(InstData::Load { align }))
            }
            "store" => {
                let vty = self.parse_type()?;
                let v = self.parse_value(&vty, names, pending, 0)?;
                self.eat_punct(',')?;
                let pty = self.parse_type()?;
                let p = self.parse_value(&pty, names, pending, 1)?;
                let mut align = vty.align_in_bytes() as u32;
                if self.tok == Tok::Punct(',') {
                    self.bump()?;
                    self.eat_word("align")?;
                    align = match self.bump()? {
                        Tok::Int(a) => a as u32,
                        other => return Err(self.err(format!("expected align, got {other:?}"))),
                    };
                }
                Ok(Inst::new(Opcode::Store, Type::Void, vec![v, p])
                    .with_data(InstData::Store { align }))
            }
            "getelementptr" => {
                let inbounds = if self.at_word("inbounds") {
                    self.bump()?;
                    true
                } else {
                    false
                };
                let base_ty = self.parse_type()?;
                self.eat_punct(',')?;
                let pty = self.parse_type()?;
                let p = self.parse_value(&pty, names, pending, 0)?;
                let mut ops = vec![p];
                let mut idx = 1;
                while self.tok == Tok::Punct(',') {
                    self.bump()?;
                    let ity = self.parse_type()?;
                    let iv = self.parse_value(&ity, names, pending, idx)?;
                    ops.push(iv);
                    idx += 1;
                }
                let result_ty = llvm_lite::builder::gep_result_type(&base_ty, ops.len() - 1);
                Ok(Inst::new(Opcode::Gep, result_ty, ops)
                    .with_data(InstData::Gep { base_ty, inbounds }))
            }
            "alloca" => {
                let ty = self.parse_type()?;
                let mut align = ty.align_in_bytes() as u32;
                if self.tok == Tok::Punct(',') {
                    self.bump()?;
                    self.eat_word("align")?;
                    align = match self.bump()? {
                        Tok::Int(a) => a as u32,
                        other => return Err(self.err(format!("expected align, got {other:?}"))),
                    };
                }
                Ok(
                    Inst::new(Opcode::Alloca, ty.ptr_to(), vec![]).with_data(InstData::Alloca {
                        allocated: ty,
                        align,
                    }),
                )
            }
            "call" => {
                let ret_ty = self.parse_type()?;
                let callee = match self.bump()? {
                    Tok::GlobalSym(n) => n,
                    other => return Err(self.err(format!("expected callee, got {other:?}"))),
                };
                self.eat_punct('(')?;
                let mut args = Vec::new();
                let mut idx = 0;
                while self.tok != Tok::Punct(')') {
                    let aty = self.parse_type()?;
                    let av = self.parse_value(&aty, names, pending, idx)?;
                    args.push(av);
                    idx += 1;
                    if self.tok == Tok::Punct(',') {
                        self.bump()?;
                    }
                }
                self.eat_punct(')')?;
                Ok(Inst::new(Opcode::Call, ret_ty, args).with_data(InstData::Call { callee }))
            }
            "select" => {
                let cty = self.parse_type()?;
                let c = self.parse_value(&cty, names, pending, 0)?;
                self.eat_punct(',')?;
                let ty = self.parse_type()?;
                let a = self.parse_value(&ty, names, pending, 1)?;
                self.eat_punct(',')?;
                let ty2 = self.parse_type()?;
                let b = self.parse_value(&ty2, names, pending, 2)?;
                Ok(Inst::new(Opcode::Select, ty, vec![c, a, b]))
            }
            "phi" => {
                let ty = self.parse_type()?;
                let mut ops = Vec::new();
                let mut incoming = Vec::new();
                let mut idx = 0;
                loop {
                    self.eat_punct('[')?;
                    let v = self.parse_value(&ty, names, pending, idx)?;
                    self.eat_punct(',')?;
                    let label = match self.bump()? {
                        Tok::Local(l) => l,
                        other => return Err(self.err(format!("expected label, got {other:?}"))),
                    };
                    self.eat_punct(']')?;
                    let b = get_block(f, blocks, &label);
                    ops.push(v);
                    incoming.push(b);
                    let _ = block_fixups; // successors interned eagerly
                    idx += 1;
                    if self.tok == Tok::Punct(',') {
                        self.bump()?;
                        // Lookahead: another phi edge or trailing metadata?
                        if self.tok != Tok::Punct('[') {
                            // Restore the comma for the caller's metadata path.
                            // (Cheap approach: re-inject by faking state.)
                            return Err(self.err("unexpected token after phi edges"));
                        }
                    } else {
                        break;
                    }
                }
                Ok(Inst::new(Opcode::Phi, ty, ops).with_data(InstData::Phi { incoming }))
            }
            "zext" | "sext" | "trunc" | "fpext" | "fptrunc" | "fptosi" | "sitofp" | "ptrtoint"
            | "inttoptr" | "bitcast" => {
                let op = match mnemonic {
                    "zext" => Opcode::ZExt,
                    "sext" => Opcode::SExt,
                    "trunc" => Opcode::Trunc,
                    "fpext" => Opcode::FPExt,
                    "fptrunc" => Opcode::FPTrunc,
                    "fptosi" => Opcode::FPToSI,
                    "sitofp" => Opcode::SIToFP,
                    "ptrtoint" => Opcode::PtrToInt,
                    "inttoptr" => Opcode::IntToPtr,
                    _ => Opcode::BitCast,
                };
                let from_ty = self.parse_type()?;
                let v = self.parse_value(&from_ty, names, pending, 0)?;
                self.eat_word("to")?;
                let to_ty = self.parse_type()?;
                Ok(Inst::new(op, to_ty, vec![v]))
            }
            "br" => {
                if self.at_word("label") {
                    self.bump()?;
                    let label = match self.bump()? {
                        Tok::Local(l) => l,
                        other => return Err(self.err(format!("expected label, got {other:?}"))),
                    };
                    let dest = get_block(f, blocks, &label);
                    Ok(Inst::new(Opcode::Br, Type::Void, vec![]).with_data(InstData::Br { dest }))
                } else {
                    let cty = self.parse_type()?;
                    let c = self.parse_value(&cty, names, pending, 0)?;
                    self.eat_punct(',')?;
                    self.eat_word("label")?;
                    let t = match self.bump()? {
                        Tok::Local(l) => l,
                        other => return Err(self.err(format!("expected label, got {other:?}"))),
                    };
                    self.eat_punct(',')?;
                    self.eat_word("label")?;
                    let e = match self.bump()? {
                        Tok::Local(l) => l,
                        other => return Err(self.err(format!("expected label, got {other:?}"))),
                    };
                    let on_true = get_block(f, blocks, &t);
                    let on_false = get_block(f, blocks, &e);
                    Ok(Inst::new(Opcode::CondBr, Type::Void, vec![c])
                        .with_data(InstData::CondBr { on_true, on_false }))
                }
            }
            "ret" => {
                if self.at_word("void") {
                    self.bump()?;
                    Ok(Inst::new(Opcode::Ret, Type::Void, vec![]))
                } else {
                    let ty = self.parse_type()?;
                    let v = self.parse_value(&ty, names, pending, 0)?;
                    Ok(Inst::new(Opcode::Ret, Type::Void, vec![v]))
                }
            }
            "unreachable" => Ok(Inst::new(Opcode::Unreachable, Type::Void, vec![])),
            other => Err(self.err(format!("unknown instruction '{other}'"))),
        }
    }

    fn parse_md_def(&mut self) -> Result<(u32, RawMd)> {
        let id = match self.bump()? {
            Tok::Meta(n) => n,
            other => return Err(self.err(format!("expected !N, got {other:?}"))),
        };
        self.eat_punct('=')?;
        let distinct = if self.at_word("distinct") {
            self.bump()?;
            true
        } else {
            false
        };
        // `!{ ... }`
        match self.bump()? {
            Tok::Word(w) if w == "!" => {}
            Tok::Punct('!') => {}
            other => return Err(self.err(format!("expected '!{{', got {other:?}"))),
        }
        self.eat_punct('{')?;
        let mut elems = Vec::new();
        while self.tok != Tok::Punct('}') {
            match self.bump()? {
                Tok::Meta(n) => elems.push(MdElem::Ref(n)),
                Tok::MetaStr(s) => elems.push(MdElem::Str(s)),
                Tok::Word(w) if w.starts_with('i') => {
                    // `i32 4`
                    match self.bump()? {
                        Tok::Int(v) => elems.push(MdElem::Int(v)),
                        other => return Err(self.err(format!("expected int, got {other:?}"))),
                    }
                }
                other => return Err(self.err(format!("bad metadata element {other:?}"))),
            }
            if self.tok == Tok::Punct(',') {
                self.bump()?;
            }
        }
        self.eat_punct('}')?;
        Ok((id, RawMd { distinct, elems }))
    }
}

// Successor labels are interned eagerly during parsing; the fixup slot
// exists for completeness of the mechanism (future multi-edge payloads).
#[allow(dead_code)]
enum SuccSlot {
    PhiEdge(usize),
}

#[derive(Debug)]
enum MdElem {
    Ref(u32),
    Str(String),
    Int(i128),
}

struct RawMd {
    distinct: bool,
    elems: Vec<MdElem>,
}

fn decode_loop_md(id: u32, raws: &HashMap<u32, RawMd>) -> LoopMetadata {
    let mut out = LoopMetadata::default();
    let Some(node) = raws.get(&id) else {
        return out;
    };
    for e in &node.elems {
        let MdElem::Ref(r) = e else { continue };
        if *r == id {
            continue; // self-reference marker of distinct nodes
        }
        let Some(child) = raws.get(r) else { continue };
        let mut it = child.elems.iter();
        let Some(MdElem::Str(key)) = it.next() else {
            continue;
        };
        match key.as_str() {
            "llvm.loop.pipeline.enable" => {
                if let Some(MdElem::Int(v)) = it.next() {
                    out.pipeline_ii = Some(*v as u32);
                } else {
                    out.pipeline_ii = Some(1);
                }
            }
            "llvm.loop.unroll.count" => {
                if let Some(MdElem::Int(v)) = it.next() {
                    out.unroll_factor = Some(*v as u32);
                }
            }
            "llvm.loop.unroll.full" => out.unroll_full = true,
            "llvm.loop.flatten.enable" => out.flatten = true,
            "llvm.loop.dataflow.enable" => out.dataflow = true,
            "llvm.loop.tripcount" => {
                let lo = match it.next() {
                    Some(MdElem::Int(v)) => *v as u64,
                    _ => 0,
                };
                let hi = match it.next() {
                    Some(MdElem::Int(v)) => *v as u64,
                    _ => lo,
                };
                out.tripcount = Some((lo, hi));
            }
            _ => {}
        }
    }
    out
}

/// Parse a module from `.ll` text.
pub fn parse_module(name: &str, src: &str) -> Result<Module> {
    Parser::new(src)?.parse_module(name)
}
