//! The tree-walking interpreter that `llvm_lite::interp` replaced, kept
//! verbatim (bar import paths and the NaN rule below) as the oracle of the
//! old-vs-new differential test in `interp_differential.rs`.
//!
//! It walks the IR directly: a `HashMap` environment per call, a cloned
//! instruction list per block visit and types resolved per execution.
//! Two known defects are deliberately kept: a GEP offset of 4 GiB or more
//! carries into the buffer-id bits, and shifts by 128 or more panic in
//! debug builds. The differential inputs reach neither.
//!
//! One rule was added since: every NaN that a float binop or the `sqrt`,
//! `exp`, `maxnum` and `minnum` intrinsics produce is the canonical quiet
//! NaN, as in `llvm_lite::interp`, so the comparison stays bit-exact on
//! any host.

use std::collections::HashMap;

use llvm_lite::inst::{FloatPred, InstData, IntPred, Opcode};
use llvm_lite::module::{BlockId, Function, GlobalInit, Module};
use llvm_lite::types::Type;
use llvm_lite::value::Value;
use llvm_lite::{Error, Result};

/// A runtime value.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum RtVal {
    /// Any integer (stored sign-extended).
    I(i128),
    /// Any float.
    F(f64),
    /// An encoded pointer.
    P(u64),
    /// The unit value of `void` calls.
    Unit,
}

impl RtVal {
    fn as_i(self) -> Result<i128> {
        match self {
            RtVal::I(v) => Ok(v),
            other => Err(Error::Interp(format!("expected integer, got {other:?}"))),
        }
    }
    fn as_f(self) -> Result<f64> {
        match self {
            RtVal::F(v) => Ok(v),
            other => Err(Error::Interp(format!("expected float, got {other:?}"))),
        }
    }
    fn as_p(self) -> Result<u64> {
        match self {
            RtVal::P(v) => Ok(v),
            other => Err(Error::Interp(format!("expected pointer, got {other:?}"))),
        }
    }
}

/// The interpreter's heap: a set of independent, bounds-checked buffers.
#[derive(Default)]
pub struct Memory {
    buffers: Vec<Vec<u8>>,
}

impl Memory {
    /// Allocate `size` zeroed bytes; returns the base pointer.
    pub fn alloc(&mut self, size: u64) -> u64 {
        self.buffers.push(vec![0u8; size as usize]);
        (self.buffers.len() as u64) << 32
    }

    fn slice_mut(&mut self, ptr: u64, len: u64) -> Result<&mut [u8]> {
        let id = (ptr >> 32) as usize;
        let off = (ptr & 0xFFFF_FFFF) as usize;
        if id == 0 {
            return Err(Error::Interp("null pointer dereference".into()));
        }
        let buf = self
            .buffers
            .get_mut(id - 1)
            .ok_or_else(|| Error::Interp(format!("wild pointer {ptr:#x}")))?;
        let end = off
            .checked_add(len as usize)
            .ok_or_else(|| Error::Interp("pointer overflow".into()))?;
        if end > buf.len() {
            return Err(Error::Interp(format!(
                "out-of-bounds access at offset {off}+{len} in buffer of {} bytes",
                buf.len()
            )));
        }
        Ok(&mut buf[off..end])
    }

    fn slice(&self, ptr: u64, len: u64) -> Result<&[u8]> {
        let id = (ptr >> 32) as usize;
        let off = (ptr & 0xFFFF_FFFF) as usize;
        if id == 0 {
            return Err(Error::Interp("null pointer dereference".into()));
        }
        let buf = self
            .buffers
            .get(id - 1)
            .ok_or_else(|| Error::Interp(format!("wild pointer {ptr:#x}")))?;
        let end = off + len as usize;
        if end > buf.len() {
            return Err(Error::Interp(format!(
                "out-of-bounds access at offset {off}+{len} in buffer of {} bytes",
                buf.len()
            )));
        }
        Ok(&buf[off..end])
    }

    /// Typed store.
    pub fn store(&mut self, ptr: u64, ty: &Type, v: RtVal) -> Result<()> {
        let size = ty.size_in_bytes();
        match ty {
            Type::Int(w) => {
                let raw = v.as_i()? as u128;
                let bytes = raw.to_le_bytes();
                let n = ((*w).div_ceil(8) as usize).max(1);
                self.slice_mut(ptr, size)?.copy_from_slice(&bytes[..n]);
            }
            Type::Float => {
                let bits = (v.as_f()? as f32).to_bits();
                self.slice_mut(ptr, 4)?.copy_from_slice(&bits.to_le_bytes());
            }
            Type::Double => {
                let bits = v.as_f()?.to_bits();
                self.slice_mut(ptr, 8)?.copy_from_slice(&bits.to_le_bytes());
            }
            Type::Ptr(_) => {
                let raw = v.as_p()?;
                self.slice_mut(ptr, 8)?.copy_from_slice(&raw.to_le_bytes());
            }
            other => return Err(Error::Interp(format!("cannot store type {other}"))),
        }
        Ok(())
    }

    /// Typed load.
    pub fn load(&self, ptr: u64, ty: &Type) -> Result<RtVal> {
        Ok(match ty {
            Type::Int(w) => {
                let n = ((*w).div_ceil(8) as usize).max(1);
                let bytes = self.slice(ptr, n as u64)?;
                let mut raw = [0u8; 16];
                raw[..n].copy_from_slice(bytes);
                let mut v = u128::from_le_bytes(raw) as i128;
                // Sign extend from width w.
                if *w < 128 {
                    let shift = 128 - *w;
                    v = (v << shift) >> shift;
                }
                RtVal::I(v)
            }
            Type::Float => {
                let bytes = self.slice(ptr, 4)?;
                RtVal::F(f32::from_le_bytes(bytes.try_into().unwrap()) as f64)
            }
            Type::Double => {
                let bytes = self.slice(ptr, 8)?;
                RtVal::F(f64::from_le_bytes(bytes.try_into().unwrap()))
            }
            Type::Ptr(_) => {
                let bytes = self.slice(ptr, 8)?;
                RtVal::P(u64::from_le_bytes(bytes.try_into().unwrap()))
            }
            other => return Err(Error::Interp(format!("cannot load type {other}"))),
        })
    }

    /// Write an `f32` slice into a fresh buffer; returns its pointer.
    pub fn alloc_f32(&mut self, data: &[f32]) -> u64 {
        let p = self.alloc(4 * data.len() as u64);
        for (i, v) in data.iter().enumerate() {
            self.store(p + 4 * i as u64, &Type::Float, RtVal::F(*v as f64))
                .expect("in-bounds");
        }
        p
    }

    /// Read `n` `f32`s starting at `ptr`.
    pub fn read_f32(&self, ptr: u64, n: usize) -> Result<Vec<f32>> {
        (0..n)
            .map(|i| Ok(self.load(ptr + 4 * i as u64, &Type::Float)?.as_f()? as f32))
            .collect()
    }

    /// Write an `i32` slice into a fresh buffer.
    pub fn alloc_i32(&mut self, data: &[i32]) -> u64 {
        let p = self.alloc(4 * data.len() as u64);
        for (i, v) in data.iter().enumerate() {
            self.store(p + 4 * i as u64, &Type::I32, RtVal::I(*v as i128))
                .expect("in-bounds");
        }
        p
    }

    /// Read `n` `i32`s starting at `ptr`.
    pub fn read_i32(&self, ptr: u64, n: usize) -> Result<Vec<i32>> {
        (0..n)
            .map(|i| Ok(self.load(ptr + 4 * i as u64, &Type::I32)?.as_i()? as i32))
            .collect()
    }
}

/// Execution statistics — doubles as a crude dynamic profile.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct InterpStats {
    /// Instructions executed.
    pub steps: u64,
    /// Function calls made (including intrinsics).
    pub calls: u64,
}

/// The interpreter: owns memory and global bindings for one module.
pub struct Interpreter<'m> {
    module: &'m Module,
    /// Heap.
    pub mem: Memory,
    globals: HashMap<String, u64>,
    /// Instruction budget; a trap fires when exceeded (guards non-
    /// terminating kernels in tests).
    pub step_limit: u64,
    /// Counters.
    pub stats: InterpStats,
}

impl<'m> Interpreter<'m> {
    /// Create an interpreter and materialize the module's globals.
    pub fn new(module: &'m Module) -> Interpreter<'m> {
        let mut mem = Memory::default();
        let mut globals = HashMap::new();
        for g in &module.globals {
            let p = mem.alloc(g.ty.size_in_bytes());
            if let Some(init) = &g.init {
                write_init(&mut mem, p, &g.ty, init);
            }
            globals.insert(g.name.clone(), p);
        }
        Interpreter {
            module,
            mem,
            globals,
            step_limit: 500_000_000,
            stats: InterpStats::default(),
        }
    }

    /// Call a function by name.
    pub fn call(&mut self, name: &str, args: &[RtVal]) -> Result<RtVal> {
        self.stats.calls += 1;
        if let Some(v) = self.try_intrinsic(name, args)? {
            return Ok(v);
        }
        let f = self
            .module
            .function(name)
            .ok_or_else(|| Error::Interp(format!("unknown function @{name}")))?;
        if f.is_declaration {
            return Err(Error::Interp(format!(
                "call to body-less declaration @{name}"
            )));
        }
        if args.len() != f.params.len() {
            return Err(Error::Interp(format!(
                "@{name} called with {} args, expects {}",
                args.len(),
                f.params.len()
            )));
        }
        self.run_function(f, args)
    }

    fn try_intrinsic(&mut self, name: &str, args: &[RtVal]) -> Result<Option<RtVal>> {
        let v = match name {
            "llvm.sqrt.f32" | "llvm.sqrt.f64" | "sqrtf" | "sqrt" => {
                RtVal::F(canonical(args[0].as_f()?.sqrt()))
            }
            "llvm.fabs.f32" | "llvm.fabs.f64" | "fabsf" | "fabs" => RtVal::F(args[0].as_f()?.abs()),
            "llvm.exp.f32" | "llvm.exp.f64" | "expf" | "exp" => {
                RtVal::F(canonical(args[0].as_f()?.exp()))
            }
            "llvm.smax.i32" | "llvm.smax.i64" => RtVal::I(args[0].as_i()?.max(args[1].as_i()?)),
            "llvm.smin.i32" | "llvm.smin.i64" => RtVal::I(args[0].as_i()?.min(args[1].as_i()?)),
            "llvm.maxnum.f32" | "llvm.maxnum.f64" | "fmaxf" => {
                RtVal::F(canonical(args[0].as_f()?.max(args[1].as_f()?)))
            }
            "llvm.minnum.f32" | "llvm.minnum.f64" | "fminf" => {
                RtVal::F(canonical(args[0].as_f()?.min(args[1].as_f()?)))
            }
            "llvm.assume" => RtVal::Unit,
            n if n.starts_with("llvm.lifetime.") => RtVal::Unit,
            n if n.starts_with("llvm.memcpy.") => {
                let dst = args[0].as_p()?;
                let src = args[1].as_p()?;
                let len = args[2].as_i()? as u64;
                let data = self.mem.slice(src, len)?.to_vec();
                self.mem.slice_mut(dst, len)?.copy_from_slice(&data);
                RtVal::Unit
            }
            n if n.starts_with("llvm.memset.") => {
                let dst = args[0].as_p()?;
                let byte = args[1].as_i()? as u8;
                let len = args[2].as_i()? as u64;
                self.mem.slice_mut(dst, len)?.fill(byte);
                RtVal::Unit
            }
            "malloc" => {
                let size = args[0].as_i()? as u64;
                RtVal::P(self.mem.alloc(size))
            }
            "free" => RtVal::Unit,
            _ => return Ok(None),
        };
        Ok(Some(v))
    }

    fn eval(&self, f: &Function, env: &HashMap<u32, RtVal>, v: &Value) -> Result<RtVal> {
        Ok(match v {
            Value::Arg(i) => env[&(u32::MAX - *i)],
            Value::Inst(id) => *env
                .get(id)
                .ok_or_else(|| Error::Interp(format!("read of unset %{id} in @{}", f.name)))?,
            Value::ConstInt { value, .. } => RtVal::I(*value),
            Value::ConstFloat { bits, .. } => RtVal::F(f64::from_bits(*bits)),
            Value::Global(name) => RtVal::P(
                *self
                    .globals
                    .get(name)
                    .ok_or_else(|| Error::Interp(format!("unknown global @{name}")))?,
            ),
            Value::NullPtr(_) => RtVal::P(0),
            Value::Undef(ty) => match ty {
                Type::Float | Type::Double => RtVal::F(0.0),
                Type::Ptr(_) => RtVal::P(0),
                _ => RtVal::I(0),
            },
        })
    }

    fn run_function(&mut self, f: &Function, args: &[RtVal]) -> Result<RtVal> {
        // Args live in the same env map keyed from the top of the id space.
        let mut env: HashMap<u32, RtVal> = HashMap::new();
        for (i, a) in args.iter().enumerate() {
            env.insert(u32::MAX - i as u32, *a);
        }
        let mut block = f.entry();
        let mut prev: Option<BlockId> = None;
        loop {
            // Parallel phi evaluation at block entry.
            if let Some(p) = prev {
                let mut phi_vals: Vec<(u32, RtVal)> = Vec::new();
                for &id in &f.blocks[block as usize].insts {
                    let inst = f.inst(id);
                    let InstData::Phi { incoming } = &inst.data else {
                        break;
                    };
                    let pos = incoming.iter().position(|&b| b == p).ok_or_else(|| {
                        Error::Interp(format!("phi %{id} has no edge from block {p}"))
                    })?;
                    phi_vals.push((id, self.eval(f, &env, &inst.operands[pos])?));
                }
                for (id, v) in phi_vals {
                    env.insert(id, v);
                }
            }
            // Straight-line execution.
            let insts = f.blocks[block as usize].insts.clone();
            for id in insts {
                let inst = f.inst(id);
                if inst.opcode == Opcode::Phi {
                    if prev.is_none() {
                        return Err(Error::Interp("phi in entry block".into()));
                    }
                    continue;
                }
                self.stats.steps += 1;
                if self.stats.steps > self.step_limit {
                    return Err(Error::Interp("step limit exceeded".into()));
                }
                match inst.opcode {
                    Opcode::Br => {
                        let InstData::Br { dest } = inst.data else {
                            unreachable!()
                        };
                        prev = Some(block);
                        block = dest;
                        break;
                    }
                    Opcode::CondBr => {
                        let InstData::CondBr { on_true, on_false } = inst.data else {
                            unreachable!()
                        };
                        let c = self.eval(f, &env, &inst.operands[0])?.as_i()?;
                        prev = Some(block);
                        block = if c != 0 { on_true } else { on_false };
                        break;
                    }
                    Opcode::Ret => {
                        return match inst.operands.first() {
                            None => Ok(RtVal::Unit),
                            Some(v) => self.eval(f, &env, v),
                        };
                    }
                    Opcode::Unreachable => {
                        return Err(Error::Interp("executed unreachable".into()))
                    }
                    _ => {
                        let v = self.exec_inst(f, &env, id)?;
                        if f.inst(id).has_result() {
                            env.insert(id, v);
                        }
                    }
                }
            }
        }
    }

    fn exec_inst(&mut self, f: &Function, env: &HashMap<u32, RtVal>, id: u32) -> Result<RtVal> {
        let inst = f.inst(id);
        let ev = |s: &Self, i: usize| s.eval(f, env, &inst.operands[i]);
        let wrap_to = |ty: &Type, v: i128| -> i128 {
            let w = ty.int_width().unwrap_or(64);
            if w >= 128 {
                return v;
            }
            let m = 1i128 << w;
            let r = v.rem_euclid(m);
            if r >= m / 2 {
                r - m
            } else {
                r
            }
        };
        Ok(match inst.opcode {
            op if op.is_int_binop() => {
                let a = ev(self, 0)?.as_i()?;
                let b = ev(self, 1)?.as_i()?;
                let r = match op {
                    Opcode::Add => a.wrapping_add(b),
                    Opcode::Sub => a.wrapping_sub(b),
                    Opcode::Mul => a.wrapping_mul(b),
                    Opcode::SDiv => {
                        if b == 0 {
                            return Err(Error::Interp("sdiv by zero".into()));
                        }
                        a.wrapping_div(b)
                    }
                    Opcode::SRem => {
                        if b == 0 {
                            return Err(Error::Interp("srem by zero".into()));
                        }
                        a.wrapping_rem(b)
                    }
                    Opcode::UDiv => {
                        if b == 0 {
                            return Err(Error::Interp("udiv by zero".into()));
                        }
                        ((a as u128) / (b as u128)) as i128
                    }
                    Opcode::URem => {
                        if b == 0 {
                            return Err(Error::Interp("urem by zero".into()));
                        }
                        ((a as u128) % (b as u128)) as i128
                    }
                    Opcode::And => a & b,
                    Opcode::Or => a | b,
                    Opcode::Xor => a ^ b,
                    Opcode::Shl => a.wrapping_shl(b as u32),
                    Opcode::LShr => ((a as u128) >> (b as u32)) as i128,
                    Opcode::AShr => a >> (b as u32),
                    _ => unreachable!(),
                };
                RtVal::I(wrap_to(&inst.ty, r))
            }
            op if op.is_float_binop() => {
                let a = ev(self, 0)?.as_f()?;
                let b = ev(self, 1)?.as_f()?;
                let r = match op {
                    Opcode::FAdd => a + b,
                    Opcode::FSub => a - b,
                    Opcode::FMul => a * b,
                    Opcode::FDiv => a / b,
                    Opcode::FRem => a % b,
                    _ => unreachable!(),
                };
                // Emulate single precision where the type says so.
                if inst.ty == Type::Float {
                    RtVal::F(canonical((r as f32) as f64))
                } else {
                    RtVal::F(canonical(r))
                }
            }
            Opcode::FNeg => RtVal::F(-ev(self, 0)?.as_f()?),
            Opcode::ICmp => {
                let InstData::ICmp(pred) = &inst.data else {
                    unreachable!()
                };
                let (av, bv) = (ev(self, 0)?, ev(self, 1)?);
                let (a, b) = match (av, bv) {
                    (RtVal::P(a), RtVal::P(b)) => (a as i128, b as i128),
                    _ => (av.as_i()?, bv.as_i()?),
                };
                let r = match pred {
                    IntPred::Eq => a == b,
                    IntPred::Ne => a != b,
                    IntPred::Slt => a < b,
                    IntPred::Sle => a <= b,
                    IntPred::Sgt => a > b,
                    IntPred::Sge => a >= b,
                    IntPred::Ult => (a as u128) < (b as u128),
                    IntPred::Ule => (a as u128) <= (b as u128),
                    IntPred::Ugt => (a as u128) > (b as u128),
                    IntPred::Uge => (a as u128) >= (b as u128),
                };
                RtVal::I(i128::from(r))
            }
            Opcode::FCmp => {
                let InstData::FCmp(pred) = &inst.data else {
                    unreachable!()
                };
                let a = ev(self, 0)?.as_f()?;
                let b = ev(self, 1)?.as_f()?;
                let r = match pred {
                    FloatPred::Oeq => a == b,
                    FloatPred::One => a != b && !a.is_nan() && !b.is_nan(),
                    FloatPred::Olt => a < b,
                    FloatPred::Ole => a <= b,
                    FloatPred::Ogt => a > b,
                    FloatPred::Oge => a >= b,
                    FloatPred::Une => a != b,
                    FloatPred::Ord => !a.is_nan() && !b.is_nan(),
                    FloatPred::Uno => a.is_nan() || b.is_nan(),
                };
                RtVal::I(i128::from(r))
            }
            Opcode::Load => {
                let p = ev(self, 0)?.as_p()?;
                self.mem.load(p, &inst.ty)?
            }
            Opcode::Store => {
                let v = ev(self, 0)?;
                let p = ev(self, 1)?.as_p()?;
                let vty = f.value_type(self.module, &inst.operands[0]);
                self.mem.store(p, &vty, v)?;
                RtVal::Unit
            }
            Opcode::Gep => {
                let InstData::Gep { base_ty, .. } = &inst.data else {
                    unreachable!()
                };
                let mut p = ev(self, 0)?.as_p()?;
                let mut ty = base_ty.clone();
                for (k, idx) in inst.operands[1..].iter().enumerate() {
                    let i = self.eval(f, env, idx)?.as_i()?;
                    if k == 0 {
                        p = p.wrapping_add((i as i64 as u64).wrapping_mul(ty.size_in_bytes()));
                    } else {
                        match ty {
                            Type::Array(_, e) => {
                                ty = (*e).clone();
                                p = p.wrapping_add(
                                    (i as i64 as u64).wrapping_mul(ty.size_in_bytes()),
                                );
                            }
                            other => {
                                return Err(Error::Interp(format!(
                                    "gep steps into non-array {other}"
                                )))
                            }
                        }
                    }
                }
                RtVal::P(p)
            }
            Opcode::Alloca => {
                let InstData::Alloca { allocated, .. } = &inst.data else {
                    unreachable!()
                };
                RtVal::P(self.mem.alloc(allocated.size_in_bytes()))
            }
            Opcode::Call => {
                let InstData::Call { callee } = &inst.data else {
                    unreachable!()
                };
                let args: Vec<RtVal> = (0..inst.operands.len())
                    .map(|i| ev(self, i))
                    .collect::<Result<_>>()?;
                let callee = callee.clone();
                self.call(&callee, &args)?
            }
            Opcode::Select => {
                let c = ev(self, 0)?.as_i()?;
                if c != 0 {
                    ev(self, 1)?
                } else {
                    ev(self, 2)?
                }
            }
            Opcode::ZExt => {
                let v = ev(self, 0)?.as_i()?;
                let from_w = f
                    .value_type(self.module, &inst.operands[0])
                    .int_width()
                    .unwrap_or(64);
                let mask = if from_w >= 128 {
                    -1i128
                } else {
                    (1i128 << from_w) - 1
                };
                RtVal::I(v & mask)
            }
            Opcode::SExt => RtVal::I(ev(self, 0)?.as_i()?),
            Opcode::Trunc => {
                let v = ev(self, 0)?.as_i()?;
                RtVal::I(wrap_to(&inst.ty, v))
            }
            Opcode::FPExt | Opcode::FPTrunc => {
                let v = ev(self, 0)?.as_f()?;
                if inst.ty == Type::Float {
                    RtVal::F((v as f32) as f64)
                } else {
                    RtVal::F(v)
                }
            }
            Opcode::FPToSI => RtVal::I(ev(self, 0)?.as_f()? as i128),
            Opcode::SIToFP => {
                let v = ev(self, 0)?.as_i()? as f64;
                if inst.ty == Type::Float {
                    RtVal::F((v as f32) as f64)
                } else {
                    RtVal::F(v)
                }
            }
            Opcode::PtrToInt => RtVal::I(ev(self, 0)?.as_p()? as i128),
            Opcode::IntToPtr => RtVal::P(ev(self, 0)?.as_i()? as u64),
            Opcode::BitCast => ev(self, 0)?,
            op => return Err(Error::Interp(format!("cannot execute {op:?} here"))),
        })
    }
}

/// `v`, with any NaN replaced by the canonical quiet NaN.
fn canonical(v: f64) -> f64 {
    if v.is_nan() {
        f64::from_bits(0x7ff8_0000_0000_0000)
    } else {
        v
    }
}

fn write_init(mem: &mut Memory, ptr: u64, ty: &Type, init: &GlobalInit) {
    match (ty, init) {
        (_, GlobalInit::Zero) => {}
        (t, GlobalInit::Int(v)) => {
            let _ = mem.store(ptr, t, RtVal::I(*v));
        }
        (t, GlobalInit::Float(bits)) => {
            let _ = mem.store(ptr, t, RtVal::F(f64::from_bits(*bits)));
        }
        (Type::Array(_, elem), GlobalInit::Array(items)) => {
            let sz = elem.size_in_bytes();
            for (i, item) in items.iter().enumerate() {
                write_init(mem, ptr + sz * i as u64, elem, item);
            }
        }
        _ => {}
    }
}
