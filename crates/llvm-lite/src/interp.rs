//! Reference interpreter.
//!
//! Executes IR with a byte-addressed, bounds-checked memory model. Used to
//! co-simulate the adaptor flow against the HLS-C++ flow and against native
//! Rust reference kernels — the IR-level equivalent of Vitis' C/RTL
//! co-simulation step.
//!
//! # Decode once, then run
//!
//! Each function is decoded once per [`Interpreter`], lazily on its first
//! call, into per-block lists of flat ops:
//!
//! * every operand becomes a **slot** in a dense per-call frame. Arguments
//!   and instruction results get their own slots; constants, `null`,
//!   `undef` and global addresses are slots the decoder fills in the
//!   frame template, so an op reads all its inputs the same way;
//! * the leading phis of a block become a list of `(predecessor, slot)`
//!   pairs per phi, evaluated in parallel on block entry;
//! * per-op facts are computed once: GEP strides, load/store scalar
//!   kinds, zext source widths, result widths and callee resolution
//!   (intrinsic, defined function, declaration or unknown name);
//! * the ops a kernel runs most get variants of their own: `add`, `mul`,
//!   `fadd`, `fmul`, `f32` loads and stores, an `icmp` fused into the
//!   `condbr` that tests it, and GEPs whose constant indices fold into one
//!   byte offset. A GEP folds only when no partial sum of its offset can
//!   saturate (constant terms and the folded offset within `i32`, at most
//!   two variable indices, each with a stride within `u32`), so it
//!   computes exactly what the step-by-step form computes.
//!
//! Integers are stored sign-extended in an `i128`; a result of type `iN`
//! wraps by sign-extending its low `N` bits (`i0` wraps to -1).
//!
//! # Steps
//!
//! Every non-phi instruction that runs is one step of
//! [`InterpStats::steps`]; an op that stands for two instructions, such as
//! a compare fused into its branch, is two. A block is charged its whole
//! cost on entry (its ops, plus its terminator unless it falls through or
//! traps on arrival), and a trap inside it takes back the steps it did not
//! reach. A block counts step by step instead when the step limit lands
//! inside it, or when it calls a defined function, whose steps fall
//! between its own; so the count, and the step at which `step limit
//! exceeded` fires, are those of counting every instruction as it runs.
//!
//! # NaN results
//!
//! A NaN's sign and payload bits depend on the host's instruction set
//! (x86 and ARM disagree on `0/0`, and on x86 the operand order of
//! `NaN + -NaN` picks the sign). So every NaN that `fadd`, `fsub`, `fmul`,
//! `fdiv`, `frem` or the `sqrt`, `exp`, `maxnum` and `minnum` intrinsics
//! produce is the canonical quiet NaN, `0x7ff8000000000000` (`0x7fc00000`
//! once stored as `f32`), and buffers hold the same bits on every host.
//!
//! # Pointers
//!
//! Pointers are encoded as `((buffer_id + 1) << 32) | offset`, so null is 0
//! and every dereference is checked against its owning buffer. A buffer
//! therefore holds at most 4 GiB. A `getelementptr` whose result leaves
//! the 32-bit offset field does not carry into the id bits: it yields a
//! pointer with the reserved id `0xFFFF_FFFF`, which stays wild through
//! further GEPs and traps on every dereference.
//!
//! # Traps
//!
//! Every fault is an [`Error::Interp`], never a panic. The messages:
//!
//! * `step limit exceeded` — more than [`Interpreter::step_limit`]
//!   instructions ran (phis are not counted);
//! * `null pointer dereference`, `wild pointer 0x…`, `pointer overflow`,
//!   `out-of-bounds access at offset O+L in buffer of N bytes`;
//! * `malloc of N bytes …` / `alloca of N bytes …` — a buffer the pointer
//!   encoding cannot address;
//! * `sdiv by zero`, `srem by zero`, `udiv by zero`, `urem by zero`;
//! * `expected integer, got …` (likewise float, pointer) — an operand
//!   of the wrong kind;
//! * `read of unset %N in @f`, `unknown global @g`;
//! * `phi in entry block`, `phi %N has no edge from block B`;
//! * `gep steps into non-array T`, `cannot load type T`,
//!   `cannot store type T`;
//! * `unknown function @f`, `call to body-less declaration @f`,
//!   `@f called with N args, expects M` (intrinsics included);
//! * `executed unreachable`, and `malformed instruction %N in @f` /
//!   `block L of @f has no terminator` for IR the verifier would reject.

use std::collections::HashMap;
use std::sync::OnceLock;

use crate::inst::{FloatPred, Inst, InstData, IntPred, Opcode};
use crate::module::{BlockId, Function, GlobalInit, InstId, Module};
use crate::types::Type;
use crate::value::Value;
use crate::{Error, Result};

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
    #[inline]
    fn as_i(self) -> Run<i128> {
        match self {
            RtVal::I(v) => Ok(v),
            other => Err(mismatch("integer", other)),
        }
    }
    #[inline]
    fn as_f(self) -> Run<f64> {
        match self {
            RtVal::F(v) => Ok(v),
            other => Err(mismatch("float", other)),
        }
    }
    #[inline]
    fn as_p(self) -> Run<u64> {
        match self {
            RtVal::P(v) => Ok(v),
            other => Err(mismatch("pointer", other)),
        }
    }
}

/// A trap on its way out of the interpreter: an [`Error::Interp`] behind
/// one pointer, so the [`Run`] that every operand read and every op
/// returns stays small. The public API unboxes it.
struct Trap(Box<Error>);

/// The result of a fallible step inside the interpreter.
type Run<T> = std::result::Result<T, Trap>;

impl From<Trap> for Error {
    fn from(t: Trap) -> Error {
        *t.0
    }
}

#[cold]
fn trap(msg: impl Into<String>) -> Trap {
    Trap(Box::new(Error::Interp(msg.into())))
}

#[cold]
fn mismatch(want: &str, got: RtVal) -> Trap {
    trap(format!("expected {want}, got {got:?}"))
}

/// The canonical quiet NaN every NaN result becomes.
const CANONICAL_NAN: f64 = f64::from_bits(0x7ff8_0000_0000_0000);

/// `v`, with any NaN replaced by [`CANONICAL_NAN`].
#[inline]
fn canonical(v: f64) -> f64 {
    if v.is_nan() {
        CANONICAL_NAN
    } else {
        v
    }
}

/// The offset bits of an encoded pointer.
const OFFSET_MASK: u64 = 0xFFFF_FFFF;
/// The id bits of a pointer a GEP moved out of its buffer. No buffer ever
/// gets this id, so such a pointer traps as wild on every dereference.
const ESCAPED: u64 = 0xFFFF_FFFF << 32;

/// `ptr` moved by `delta` bytes, or an escaped pointer when the result
/// leaves the 32-bit offset field.
#[inline]
fn offset_ptr(ptr: u64, delta: i128) -> u64 {
    let off = ((ptr & OFFSET_MASK) as i128).saturating_add(delta);
    if (0..=OFFSET_MASK as i128).contains(&off) {
        (ptr & !OFFSET_MASK) | off as u64
    } else {
        ESCAPED | (off as u64 & OFFSET_MASK)
    }
}

/// Sign-extend the low `width` bits of `v`: the two's-complement wrap of
/// an `iN` result.
#[inline]
fn wrap(v: i128, width: u32) -> i128 {
    match width {
        64 => v as i64 as i128,
        32 => v as i32 as i128,
        0 => -1,
        1..=127 => {
            let s = 128 - width;
            (v << s) >> s
        }
        _ => v,
    }
}

/// How a first-class scalar type is laid out in memory.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Scalar {
    /// `iN`: `bytes` little-endian bytes, sign-extended on load by
    /// shifting left then right by `shift`.
    Int {
        bytes: u8,
        shift: u8,
    },
    F32,
    F64,
    Ptr,
}

impl Scalar {
    /// The layout of `ty`, or `None` when `ty` cannot be loaded or stored.
    fn of(ty: &Type) -> Option<Scalar> {
        Some(match ty {
            Type::Int(w) if *w <= 128 => Scalar::Int {
                bytes: (*w).div_ceil(8).max(1) as u8,
                shift: ((128 - *w) % 128) as u8,
            },
            Type::Float => Scalar::F32,
            Type::Double => Scalar::F64,
            Type::Ptr(_) => Scalar::Ptr,
            _ => return None,
        })
    }
}

/// Largest buffer the 32-bit offset field can address.
const MAX_BUFFER: u64 = 1 << 32;

/// The interpreter's heap: a set of independent, bounds-checked buffers.
#[derive(Default)]
pub struct Memory {
    buffers: Vec<Vec<u8>>,
}

impl Memory {
    /// Allocate `size` zeroed bytes; returns the base pointer. Panics when
    /// `size` exceeds the 4 GiB a pointer's offset field can address.
    pub fn alloc(&mut self, size: u64) -> u64 {
        self.try_alloc("buffer", size)
            .unwrap_or_else(|t| panic!("{}", Error::from(t)))
    }

    fn try_alloc(&mut self, what: &str, size: u64) -> Run<u64> {
        if size > MAX_BUFFER {
            return Err(trap(format!(
                "{what} of {size} bytes exceeds the 4 GiB a pointer can address"
            )));
        }
        if self.buffers.len() as u64 + 1 >= ESCAPED >> 32 {
            return Err(trap("buffer ids exhausted"));
        }
        self.buffers.push(vec![0u8; size as usize]);
        Ok((self.buffers.len() as u64) << 32)
    }

    /// The buffer index and byte range of a `len`-byte access at `ptr`,
    /// when it lies inside a buffer.
    #[inline]
    fn span(&self, ptr: u64, len: u64) -> Option<(usize, usize, usize)> {
        let id = ((ptr >> 32) as usize).checked_sub(1)?;
        let off = (ptr & OFFSET_MASK) as usize;
        let end = off.checked_add(len as usize)?;
        (end <= self.buffers.get(id)?.len()).then_some((id, off, end))
    }

    /// Why a `len`-byte access at `ptr` has no [`span`](Self::span).
    #[cold]
    fn fault(&self, ptr: u64, len: u64) -> Trap {
        let id = (ptr >> 32) as usize;
        let off = (ptr & OFFSET_MASK) as usize;
        if id == 0 {
            return trap("null pointer dereference");
        }
        let Some(buf) = self.buffers.get(id - 1) else {
            return trap(format!("wild pointer {ptr:#x}"));
        };
        if off.checked_add(len as usize).is_none() {
            return trap("pointer overflow");
        }
        trap(format!(
            "out-of-bounds access at offset {off}+{len} in buffer of {} bytes",
            buf.len()
        ))
    }

    #[inline]
    fn slice_mut(&mut self, ptr: u64, len: u64) -> Run<&mut [u8]> {
        match self.span(ptr, len) {
            Some((id, off, end)) => Ok(&mut self.buffers[id][off..end]),
            None => Err(self.fault(ptr, len)),
        }
    }

    #[inline]
    fn slice(&self, ptr: u64, len: u64) -> Run<&[u8]> {
        match self.span(ptr, len) {
            Some((id, off, end)) => Ok(&self.buffers[id][off..end]),
            None => Err(self.fault(ptr, len)),
        }
    }

    #[inline]
    fn array<const N: usize>(&self, ptr: u64) -> Run<[u8; N]> {
        Ok(self.slice(ptr, N as u64)?.try_into().expect("N-byte slice"))
    }

    #[inline]
    fn put<const N: usize>(&mut self, ptr: u64, bytes: [u8; N]) -> Run<()> {
        self.slice_mut(ptr, N as u64)?.copy_from_slice(&bytes);
        Ok(())
    }

    /// Typed store.
    pub fn store(&mut self, ptr: u64, ty: &Type, v: RtVal) -> Result<()> {
        match Scalar::of(ty) {
            Some(kind) => Ok(self.store_scalar(ptr, kind, v)?),
            None => Err(Error::Interp(format!("cannot store type {ty}"))),
        }
    }

    fn store_scalar(&mut self, ptr: u64, kind: Scalar, v: RtVal) -> Run<()> {
        match kind {
            Scalar::Int { bytes, .. } => {
                let raw = (v.as_i()? as u128).to_le_bytes();
                let n = bytes as usize;
                self.slice_mut(ptr, n as u64)?.copy_from_slice(&raw[..n]);
                Ok(())
            }
            Scalar::F32 => self.put(ptr, (v.as_f()? as f32).to_le_bytes()),
            Scalar::F64 => self.put(ptr, v.as_f()?.to_le_bytes()),
            Scalar::Ptr => self.put(ptr, v.as_p()?.to_le_bytes()),
        }
    }

    /// Typed load.
    pub fn load(&self, ptr: u64, ty: &Type) -> Result<RtVal> {
        match Scalar::of(ty) {
            Some(kind) => Ok(self.load_scalar(ptr, kind)?),
            None => Err(Error::Interp(format!("cannot load type {ty}"))),
        }
    }

    fn load_scalar(&self, ptr: u64, kind: Scalar) -> Run<RtVal> {
        Ok(match kind {
            Scalar::Int { bytes, shift } => {
                let n = bytes as usize;
                let mut raw = [0u8; 16];
                raw[..n].copy_from_slice(self.slice(ptr, n as u64)?);
                let v = u128::from_le_bytes(raw) as i128;
                RtVal::I((v << shift) >> shift)
            }
            Scalar::F32 => RtVal::F(f32::from_le_bytes(self.array(ptr)?) as f64),
            Scalar::F64 => RtVal::F(f64::from_le_bytes(self.array(ptr)?)),
            Scalar::Ptr => RtVal::P(u64::from_le_bytes(self.array(ptr)?)),
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

// ---- decoded form ------------------------------------------------------

/// Index of a value in a call frame.
type Slot = u32;

/// The decoder's mark for an instruction without a slot yet.
const NO_SLOT: Slot = Slot::MAX;

/// A function, decoded for execution.
struct Code {
    name: String,
    params: usize,
    /// The initial frame: constant slots filled, every other slot unset.
    frame: Vec<Option<RtVal>>,
    /// What each slot holds, for the message of an unset read.
    slots: Vec<SlotKind>,
    /// Indexed by [`BlockId`]; every arena block is decoded.
    blocks: Vec<Block>,
    entry: Option<BlockId>,
    /// Non-phi ops the entry block runs before it reaches a phi, when it
    /// has one: a first visit executes those ops, then traps.
    entry_phi_at: Option<usize>,
}

enum SlotKind {
    Arg(u32),
    Inst(InstId),
    Global(String),
    Const,
    /// Receives the results of instructions without a value.
    Discard,
}

struct Block {
    phis: Box<[Phi]>,
    ops: Box<[Op]>,
    term: Term,
    /// Steps a full run of the block takes: its ops, plus the terminator
    /// unless it falls through or traps on arrival.
    cost: u64,
    /// The block calls a defined function, whose steps interleave with
    /// its own, so it counts step by step.
    calls: bool,
}

/// A leading phi: its result slot and one `(predecessor, source)` pair per
/// incoming edge.
struct Phi {
    id: InstId,
    dst: Slot,
    incoming: Box<[(BlockId, Slot)]>,
}

enum Op {
    Add {
        a: Slot,
        b: Slot,
        dst: Slot,
        width: u32,
    },
    Mul {
        a: Slot,
        b: Slot,
        dst: Slot,
        width: u32,
    },
    /// Any other integer binop (`op` is one of the integer binop
    /// opcodes); the result wraps to `width` bits.
    Int {
        op: Opcode,
        a: Slot,
        b: Slot,
        dst: Slot,
        width: u32,
    },
    /// `fadd`; `single` rounds the result to `f32`.
    FAdd {
        a: Slot,
        b: Slot,
        dst: Slot,
        single: bool,
    },
    FMul {
        a: Slot,
        b: Slot,
        dst: Slot,
        single: bool,
    },
    /// `fsub`, `fdiv` or `frem`.
    Float {
        op: Opcode,
        a: Slot,
        b: Slot,
        dst: Slot,
        single: bool,
    },
    FNeg {
        a: Slot,
        dst: Slot,
    },
    ICmp {
        pred: IntPred,
        a: Slot,
        b: Slot,
        dst: Slot,
    },
    FCmp {
        pred: FloatPred,
        a: Slot,
        b: Slot,
        dst: Slot,
    },
    LoadF32 {
        ptr: Slot,
        dst: Slot,
    },
    Load {
        ptr: Slot,
        dst: Slot,
        kind: Scalar,
    },
    /// A load of a type that is not a first-class scalar.
    BadLoad {
        ptr: Slot,
        ty: Box<str>,
    },
    StoreF32 {
        val: Slot,
        ptr: Slot,
    },
    Store {
        val: Slot,
        ptr: Slot,
        kind: Scalar,
    },
    /// A store of a value whose type is not a first-class scalar.
    BadStore {
        val: Slot,
        ptr: Slot,
        ty: Box<str>,
    },
    /// A GEP whose every index is a constant: `base + offset`.
    Gep0 {
        base: Slot,
        dst: Slot,
        offset: i32,
    },
    /// `base + offset + i·si`, the other indices folded into `offset`.
    Gep1 {
        base: Slot,
        dst: Slot,
        i: Slot,
        si: u32,
        offset: i32,
    },
    /// `base + offset + i·si + j·sj`.
    Gep2 {
        base: Slot,
        dst: Slot,
        i: Slot,
        j: Slot,
        si: u32,
        sj: u32,
        offset: i32,
    },
    /// Any other GEP, one step per index.
    Gep {
        base: Slot,
        dst: Slot,
        steps: Box<[GepStep]>,
    },
    Alloca {
        dst: Slot,
        size: u64,
    },
    Call {
        dst: Slot,
        site: Box<CallSite>,
    },
    Select {
        cond: Slot,
        t: Slot,
        f: Slot,
        dst: Slot,
    },
    /// `zext` from an `iN` source: keeps the low `from` bits.
    ZExt {
        a: Slot,
        dst: Slot,
        from: u32,
    },
    /// `sext`: integers are stored sign-extended already.
    SExt {
        a: Slot,
        dst: Slot,
    },
    Trunc {
        a: Slot,
        dst: Slot,
        width: u32,
    },
    /// `fpext`/`fptrunc`; `single` rounds to `f32`.
    FpCast {
        a: Slot,
        dst: Slot,
        single: bool,
    },
    FpToSi {
        a: Slot,
        dst: Slot,
    },
    SiToFp {
        a: Slot,
        dst: Slot,
        single: bool,
    },
    PtrToInt {
        a: Slot,
        dst: Slot,
    },
    IntToPtr {
        a: Slot,
        dst: Slot,
    },
    /// `bitcast`: the value passes through unchanged.
    Copy {
        a: Slot,
        dst: Slot,
    },
    /// An instruction whose payload or operands do not match its opcode.
    Trap(Box<str>),
}

/// One GEP index: the index slot and the byte stride it scales, or an
/// index into a type that is not an array (a trap once the index is read).
enum GepStep {
    Scale(Slot, u64),
    NonArray(Slot, Box<str>),
}

struct CallSite {
    callee: Callee,
    name: String,
    args: Box<[Slot]>,
}

#[derive(Clone, Copy)]
enum Callee {
    Intrinsic(Intrinsic),
    /// Index into `Module::functions`.
    Defined(usize),
    Declaration,
    Unknown,
}

#[derive(Clone, Copy)]
enum Intrinsic {
    Sqrt,
    Fabs,
    Exp,
    SMax,
    SMin,
    MaxNum,
    MinNum,
    Memcpy,
    Memset,
    Malloc,
    /// `llvm.assume`, `llvm.lifetime.*` and `free`.
    Nop,
}

impl Intrinsic {
    fn of(name: &str) -> Option<Intrinsic> {
        Some(match name {
            "llvm.sqrt.f32" | "llvm.sqrt.f64" | "sqrtf" | "sqrt" => Intrinsic::Sqrt,
            "llvm.fabs.f32" | "llvm.fabs.f64" | "fabsf" | "fabs" => Intrinsic::Fabs,
            "llvm.exp.f32" | "llvm.exp.f64" | "expf" | "exp" => Intrinsic::Exp,
            "llvm.smax.i32" | "llvm.smax.i64" => Intrinsic::SMax,
            "llvm.smin.i32" | "llvm.smin.i64" => Intrinsic::SMin,
            "llvm.maxnum.f32" | "llvm.maxnum.f64" | "fmaxf" => Intrinsic::MaxNum,
            "llvm.minnum.f32" | "llvm.minnum.f64" | "fminf" => Intrinsic::MinNum,
            "llvm.assume" | "free" => Intrinsic::Nop,
            n if n.starts_with("llvm.lifetime.") => Intrinsic::Nop,
            n if n.starts_with("llvm.memcpy.") => Intrinsic::Memcpy,
            n if n.starts_with("llvm.memset.") => Intrinsic::Memset,
            "malloc" => Intrinsic::Malloc,
            _ => return None,
        })
    }

    /// Arguments the intrinsic reads; extra ones are ignored.
    fn arity(self) -> usize {
        match self {
            Intrinsic::Nop => 0,
            Intrinsic::Sqrt | Intrinsic::Fabs | Intrinsic::Exp | Intrinsic::Malloc => 1,
            Intrinsic::SMax | Intrinsic::SMin | Intrinsic::MaxNum | Intrinsic::MinNum => 2,
            Intrinsic::Memcpy | Intrinsic::Memset => 3,
        }
    }
}

enum Term {
    Br(BlockId),
    CondBr {
        cond: Slot,
        t: BlockId,
        f: BlockId,
    },
    /// An `icmp` and the `condbr` right after it that tests its result:
    /// two steps in one dispatch. The compare still writes its slot.
    CmpBr {
        pred: IntPred,
        a: Slot,
        b: Slot,
        dst: Slot,
        t: BlockId,
        f: BlockId,
    },
    Ret(Option<Slot>),
    Unreachable,
    /// The block ends without a terminator: execution re-enters it from
    /// the same predecessor.
    FallThrough,
    /// A malformed terminator, or no terminator and nothing to execute
    /// (re-entering would spin): traps on arrival.
    Trap(Box<str>),
}

impl Term {
    /// The steps the terminator takes.
    fn steps(&self) -> u64 {
        match self {
            Term::FallThrough | Term::Trap(_) => 0,
            Term::CmpBr { .. } => 2,
            _ => 1,
        }
    }
}

/// Resolve a callee name the way a call does: intrinsics first, then the
/// module's functions.
fn resolve(module: &Module, name: &str) -> Callee {
    if let Some(k) = Intrinsic::of(name) {
        return Callee::Intrinsic(k);
    }
    match module.functions.iter().position(|f| f.name == name) {
        None => Callee::Unknown,
        Some(i) if module.functions[i].is_declaration => Callee::Declaration,
        Some(i) => Callee::Defined(i),
    }
}

struct Decoder<'a> {
    module: &'a Module,
    f: &'a Function,
    globals: &'a HashMap<String, u64>,
    frame: Vec<Option<RtVal>>,
    slots: Vec<SlotKind>,
    /// The slot an `Inst` operand reads, by arena index; [`NO_SLOT`] until
    /// the first use. Ids past the arena go through `missing`.
    insts: Vec<Slot>,
    /// Slots of arguments past the parameter list and of unknown globals.
    missing: HashMap<String, Slot>,
    discard: Slot,
}

fn decode(module: &Module, f: &Function, globals: &HashMap<String, u64>) -> Code {
    let mut d = Decoder {
        module,
        f,
        globals,
        frame: vec![None; f.params.len()],
        slots: (0..f.params.len() as u32).map(SlotKind::Arg).collect(),
        insts: vec![NO_SLOT; f.insts.len()],
        missing: HashMap::new(),
        discard: 0,
    };
    d.discard = d.slot(None, SlotKind::Discard);
    let blocks: Vec<Block> = (0..f.blocks.len()).map(|b| d.block(b as BlockId)).collect();
    let entry = f.block_order.first().copied();
    let entry_phi_at = entry.and_then(|e| d.first_phi(e));
    Code {
        name: f.name.clone(),
        params: f.params.len(),
        frame: d.frame,
        slots: d.slots,
        blocks,
        entry,
        entry_phi_at,
    }
}

impl<'a> Decoder<'a> {
    fn slot(&mut self, init: Option<RtVal>, kind: SlotKind) -> Slot {
        self.frame.push(init);
        self.slots.push(kind);
        (self.frame.len() - 1) as Slot
    }

    fn inst_slot(&mut self, id: InstId) -> Slot {
        match self.insts.get(id as usize) {
            Some(&s) if s != NO_SLOT => s,
            Some(_) => {
                let s = self.slot(None, SlotKind::Inst(id));
                self.insts[id as usize] = s;
                s
            }
            None => self.missing(format!("#{id}"), SlotKind::Inst(id)),
        }
    }

    fn constant(&mut self, v: RtVal) -> Slot {
        self.slot(Some(v), SlotKind::Const)
    }

    fn missing(&mut self, key: String, kind: SlotKind) -> Slot {
        if let Some(&s) = self.missing.get(&key) {
            return s;
        }
        let s = self.slot(None, kind);
        self.missing.insert(key, s);
        s
    }

    /// The slot an operand reads.
    fn src(&mut self, v: &Value) -> Slot {
        match v {
            Value::Arg(i) if (*i as usize) < self.f.params.len() => *i,
            Value::Arg(i) => self.missing(format!("%{i}"), SlotKind::Arg(*i)),
            Value::Inst(id) => self.inst_slot(*id),
            Value::ConstInt { value, .. } => self.constant(RtVal::I(*value)),
            Value::ConstFloat { bits, .. } => self.constant(RtVal::F(f64::from_bits(*bits))),
            Value::Global(name) => match self.globals.get(name) {
                Some(&p) => self.constant(RtVal::P(p)),
                None => self.missing(format!("@{name}"), SlotKind::Global(name.clone())),
            },
            Value::NullPtr(_) => self.constant(RtVal::P(0)),
            Value::Undef(ty) => self.constant(match ty {
                Type::Float | Type::Double => RtVal::F(0.0),
                Type::Ptr(_) => RtVal::P(0),
                _ => RtVal::I(0),
            }),
        }
    }

    /// The slot an instruction's result goes to.
    fn dst(&mut self, id: InstId, inst: &Inst) -> Slot {
        if inst.has_result() {
            self.inst_slot(id)
        } else {
            self.discard
        }
    }

    fn inst(&self, id: InstId) -> Option<&'a Inst> {
        self.f.insts.get(id as usize)
    }

    /// The type of an operand, as the verifier sees it.
    fn type_of(&self, v: &Value) -> Type {
        match v {
            Value::Arg(i) => self
                .f
                .params
                .get(*i as usize)
                .map_or(Type::Void, |p| p.ty.clone()),
            Value::Inst(id) => self.inst(*id).map_or(Type::Void, |i| i.ty.clone()),
            other => self.f.value_type(self.module, other),
        }
    }

    /// Position, among the non-phi ops before the terminator, of the
    /// first phi in `b`.
    fn first_phi(&self, b: BlockId) -> Option<usize> {
        let mut ops = 0;
        for &id in &self.f.blocks[b as usize].insts {
            match self.inst(id) {
                Some(i) if i.opcode == Opcode::Phi => return Some(ops),
                Some(i) if i.is_terminator() => return None,
                _ => ops += 1,
            }
        }
        None
    }

    fn block(&mut self, b: BlockId) -> Block {
        let f = self.f;
        let ids = &f.blocks[b as usize].insts;
        let lead = ids
            .iter()
            .take_while(|&&id| self.inst(id).is_some_and(|i| i.opcode == Opcode::Phi))
            .count();
        let phis = ids[..lead].iter().map(|&id| self.phi(id)).collect();
        let mut ops = Vec::new();
        let mut term = None;
        // A phi after a non-phi: in the entry block, its position must
        // stay an op index, so nothing fuses.
        let mut late_phi = false;
        for &id in &ids[lead..] {
            let Some(inst) = self.inst(id) else {
                ops.push(Op::Trap(malformed(id, f).into()));
                continue;
            };
            if inst.opcode == Opcode::Phi {
                late_phi = true;
                continue;
            }
            if inst.is_terminator() {
                term = Some(self.term(id, inst));
                break;
            }
            ops.push(self.op(id, inst));
        }
        let term = match (term, ops.last()) {
            (Some(Term::CondBr { cond, t, f }), Some(&Op::ICmp { pred, a, b, dst }))
                if dst == cond && !late_phi =>
            {
                ops.pop();
                Term::CmpBr {
                    pred,
                    a,
                    b,
                    dst,
                    t,
                    f,
                }
            }
            (Some(term), _) => term,
            (None, _) if ops.is_empty() => {
                let label = &f.blocks[b as usize].name;
                Term::Trap(format!("block {label} of @{} has no terminator", f.name).into())
            }
            (None, _) => Term::FallThrough,
        };
        let calls = ops.iter().any(
            |op| matches!(op, Op::Call { site, .. } if matches!(site.callee, Callee::Defined(_))),
        );
        Block {
            phis,
            cost: ops.len() as u64 + term.steps(),
            calls,
            ops: ops.into(),
            term,
        }
    }

    fn phi(&mut self, id: InstId) -> Phi {
        let f = self.f;
        let inst = &f.insts[id as usize];
        let incoming = match &inst.data {
            InstData::Phi { incoming } => incoming
                .iter()
                .zip(&inst.operands)
                .map(|(&from, v)| (from, self.src(v)))
                .collect(),
            _ => Box::default(),
        };
        Phi {
            id,
            dst: self.inst_slot(id),
            incoming,
        }
    }

    fn term(&mut self, id: InstId, inst: &Inst) -> Term {
        let blocks = self.f.blocks.len();
        let valid = |b: &BlockId| (*b as usize) < blocks;
        match (&inst.opcode, &inst.data, inst.operands.first()) {
            (Opcode::Br, InstData::Br { dest }, _) if valid(dest) => Term::Br(*dest),
            (Opcode::CondBr, InstData::CondBr { on_true, on_false }, Some(c))
                if valid(on_true) && valid(on_false) =>
            {
                Term::CondBr {
                    cond: self.src(c),
                    t: *on_true,
                    f: *on_false,
                }
            }
            (Opcode::Ret, _, v) => Term::Ret(v.map(|v| self.src(v))),
            (Opcode::Unreachable, _, _) => Term::Unreachable,
            _ => Term::Trap(malformed(id, self.f).into()),
        }
    }

    fn op(&mut self, id: InstId, inst: &Inst) -> Op {
        let n = inst.operands.len();
        let dst = self.dst(id, inst);
        let ops = &inst.operands;
        let single = inst.ty == Type::Float;
        match (inst.opcode, &inst.data) {
            (op, _) if op.is_int_binop() && n >= 2 => {
                let (a, b) = (self.src(&ops[0]), self.src(&ops[1]));
                let width = inst.ty.int_width().unwrap_or(64);
                match op {
                    Opcode::Add => Op::Add { a, b, dst, width },
                    Opcode::Mul => Op::Mul { a, b, dst, width },
                    _ => Op::Int {
                        op,
                        a,
                        b,
                        dst,
                        width,
                    },
                }
            }
            (op, _) if op.is_float_binop() && n >= 2 => {
                let (a, b) = (self.src(&ops[0]), self.src(&ops[1]));
                match op {
                    Opcode::FAdd => Op::FAdd { a, b, dst, single },
                    Opcode::FMul => Op::FMul { a, b, dst, single },
                    _ => Op::Float {
                        op,
                        a,
                        b,
                        dst,
                        single,
                    },
                }
            }
            (Opcode::ICmp, InstData::ICmp(pred)) if n >= 2 => Op::ICmp {
                pred: *pred,
                a: self.src(&ops[0]),
                b: self.src(&ops[1]),
                dst,
            },
            (Opcode::FCmp, InstData::FCmp(pred)) if n >= 2 => Op::FCmp {
                pred: *pred,
                a: self.src(&ops[0]),
                b: self.src(&ops[1]),
                dst,
            },
            (Opcode::Load, _) if n >= 1 => {
                let ptr = self.src(&ops[0]);
                match Scalar::of(&inst.ty) {
                    Some(Scalar::F32) => Op::LoadF32 { ptr, dst },
                    Some(kind) => Op::Load { ptr, dst, kind },
                    None => Op::BadLoad {
                        ptr,
                        ty: inst.ty.to_string().into(),
                    },
                }
            }
            (Opcode::Store, _) if n >= 2 => {
                let (val, ptr) = (self.src(&ops[0]), self.src(&ops[1]));
                let ty = self.type_of(&ops[0]);
                match Scalar::of(&ty) {
                    Some(Scalar::F32) => Op::StoreF32 { val, ptr },
                    Some(kind) => Op::Store { val, ptr, kind },
                    None => Op::BadStore {
                        val,
                        ptr,
                        ty: ty.to_string().into(),
                    },
                }
            }
            (Opcode::Gep, InstData::Gep { base_ty, .. }) if n >= 1 => {
                let base = self.src(&ops[0]);
                let mut steps = Vec::with_capacity(n - 1);
                let mut ty = base_ty;
                for (k, idx) in ops[1..].iter().enumerate() {
                    let idx = self.src(idx);
                    if k > 0 {
                        match ty {
                            Type::Array(_, e) => ty = &**e,
                            other => {
                                steps.push(GepStep::NonArray(idx, other.to_string().into()));
                                break;
                            }
                        }
                    }
                    steps.push(GepStep::Scale(idx, ty.size_in_bytes()));
                }
                self.fold_gep(base, dst, steps)
            }
            (Opcode::Alloca, InstData::Alloca { allocated, .. }) => Op::Alloca {
                dst,
                size: allocated.size_in_bytes(),
            },
            (Opcode::Call, InstData::Call { callee }) => Op::Call {
                dst,
                site: Box::new(CallSite {
                    callee: resolve(self.module, callee),
                    name: callee.clone(),
                    args: ops.iter().map(|v| self.src(v)).collect(),
                }),
            },
            (Opcode::Select, _) if n >= 3 => Op::Select {
                cond: self.src(&ops[0]),
                t: self.src(&ops[1]),
                f: self.src(&ops[2]),
                dst,
            },
            (op, _) if op.is_cast() && n >= 1 => {
                let a = self.src(&ops[0]);
                match op {
                    Opcode::ZExt => Op::ZExt {
                        a,
                        dst,
                        from: self.type_of(&ops[0]).int_width().unwrap_or(64),
                    },
                    Opcode::SExt => Op::SExt { a, dst },
                    Opcode::Trunc => Op::Trunc {
                        a,
                        dst,
                        width: inst.ty.int_width().unwrap_or(64),
                    },
                    Opcode::FPExt | Opcode::FPTrunc => Op::FpCast { a, dst, single },
                    Opcode::FPToSI => Op::FpToSi { a, dst },
                    Opcode::SIToFP => Op::SiToFp { a, dst, single },
                    Opcode::PtrToInt => Op::PtrToInt { a, dst },
                    Opcode::IntToPtr => Op::IntToPtr { a, dst },
                    _ => Op::Copy { a, dst },
                }
            }
            (Opcode::FNeg, _) if n >= 1 => Op::FNeg {
                a: self.src(&ops[0]),
                dst,
            },
            _ => Op::Trap(malformed(id, self.f).into()),
        }
    }

    /// A GEP with its integer-constant indices folded into one byte
    /// offset, when no partial sum of the step-by-step form can saturate:
    /// each constant term and the folded offset fit in `i32`, and at most
    /// two variable indices remain, each with a stride that fits in `u32`.
    /// Their terms are then below 2^95 in magnitude, so every sum is exact
    /// in `i128` in any order. Otherwise the GEP keeps its steps.
    fn fold_gep(&self, base: Slot, dst: Slot, steps: Vec<GepStep>) -> Op {
        match self
            .affine(&steps)
            .as_ref()
            .map(|(o, vars)| (*o, &vars[..]))
        {
            Some((offset, [])) => Op::Gep0 { base, dst, offset },
            Some((offset, &[(i, si)])) => Op::Gep1 {
                base,
                dst,
                i,
                si,
                offset,
            },
            Some((offset, &[(i, si), (j, sj)])) => Op::Gep2 {
                base,
                dst,
                i,
                j,
                si,
                sj,
                offset,
            },
            _ => Op::Gep {
                base,
                dst,
                steps: steps.into(),
            },
        }
    }

    /// The folded constant offset and the `(index, stride)` variable terms
    /// of a GEP's steps, or `None` when a term is out of the ranges
    /// [`fold_gep`](Self::fold_gep) needs.
    fn affine(&self, steps: &[GepStep]) -> Option<(i32, Vec<(Slot, u32)>)> {
        let mut offset: i32 = 0;
        let mut vars = Vec::new();
        for step in steps {
            let &GepStep::Scale(idx, stride) = step else {
                return None;
            };
            match self.frame[idx as usize] {
                Some(RtVal::I(c)) if matches!(self.slots[idx as usize], SlotKind::Const) => {
                    let term = i128::from(c as i64) * i128::from(stride);
                    offset = offset.checked_add(i32::try_from(term).ok()?)?;
                }
                _ => vars.push((idx, u32::try_from(stride).ok()?)),
            }
        }
        Some((offset, vars))
    }
}

fn malformed(id: InstId, f: &Function) -> String {
    format!("malformed instruction %{id} in @{}", f.name)
}

impl Code {
    #[inline(always)]
    fn read(&self, frame: &[Option<RtVal>], s: Slot) -> Run<RtVal> {
        match frame[s as usize] {
            Some(v) => Ok(v),
            None => Err(self.unset(s)),
        }
    }

    #[inline(always)]
    fn int(&self, frame: &[Option<RtVal>], s: Slot) -> Run<i128> {
        match frame[s as usize] {
            Some(RtVal::I(v)) => Ok(v),
            other => Err(self.wrong(s, other, "integer")),
        }
    }

    #[inline(always)]
    fn float(&self, frame: &[Option<RtVal>], s: Slot) -> Run<f64> {
        match frame[s as usize] {
            Some(RtVal::F(v)) => Ok(v),
            other => Err(self.wrong(s, other, "float")),
        }
    }

    #[inline(always)]
    fn ptr(&self, frame: &[Option<RtVal>], s: Slot) -> Run<u64> {
        match frame[s as usize] {
            Some(RtVal::P(v)) => Ok(v),
            other => Err(self.wrong(s, other, "pointer")),
        }
    }

    /// The trap of reading `v` from slot `s` where a `want` was expected.
    #[cold]
    fn wrong(&self, s: Slot, v: Option<RtVal>, want: &str) -> Trap {
        match v {
            Some(v) => mismatch(want, v),
            None => self.unset(s),
        }
    }

    #[cold]
    fn unset(&self, s: Slot) -> Trap {
        trap(match &self.slots[s as usize] {
            SlotKind::Global(name) => format!("unknown global @{name}"),
            SlotKind::Inst(id) => format!("read of unset %{id} in @{}", self.name),
            SlotKind::Arg(i) => format!("read of missing argument {i} in @{}", self.name),
            SlotKind::Const | SlotKind::Discard => {
                unreachable!("constant and discard slots are never read unset")
            }
        })
    }
}

// ---- execution ---------------------------------------------------------

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
    /// Decoded functions, parallel to `module.functions`, each filled on
    /// its first call.
    code: Vec<OnceLock<Code>>,
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
            code: module.functions.iter().map(|_| OnceLock::new()).collect(),
        }
    }

    /// Call a function by name.
    pub fn call(&mut self, name: &str, args: &[RtVal]) -> Result<RtVal> {
        let callee = resolve(self.module, name);
        let mut exec = Exec {
            module: self.module,
            globals: &self.globals,
            code: &self.code,
            mem: &mut self.mem,
            stats: self.stats.clone(),
            step_limit: self.step_limit,
            phi_vals: Vec::new(),
        };
        let result = exec.invoke(callee, name, args);
        self.stats = exec.stats;
        Ok(result?)
    }
}

/// One [`Interpreter::call`] in progress: the interpreter's state, split
/// so decoded code can be borrowed while memory and counters change.
struct Exec<'a> {
    module: &'a Module,
    globals: &'a HashMap<String, u64>,
    code: &'a [OnceLock<Code>],
    mem: &'a mut Memory,
    /// Held by value while the call runs; written back when it returns.
    stats: InterpStats,
    step_limit: u64,
    /// Scratch for parallel phi evaluation.
    phi_vals: Vec<RtVal>,
}

impl<'a> Exec<'a> {
    fn invoke(&mut self, callee: Callee, name: &str, args: &[RtVal]) -> Run<RtVal> {
        self.stats.calls += 1;
        match callee {
            Callee::Intrinsic(k) => self.intrinsic(k, name, args),
            Callee::Unknown => Err(trap(format!("unknown function @{name}"))),
            Callee::Declaration => Err(trap(format!("call to body-less declaration @{name}"))),
            Callee::Defined(i) => {
                let (module, globals, cells) = (self.module, self.globals, self.code);
                let code = cells[i].get_or_init(|| decode(module, &module.functions[i], globals));
                if args.len() != code.params {
                    return Err(trap(format!(
                        "@{name} called with {} args, expects {}",
                        args.len(),
                        code.params
                    )));
                }
                self.run(code, args)
            }
        }
    }

    fn intrinsic(&mut self, k: Intrinsic, name: &str, args: &[RtVal]) -> Run<RtVal> {
        if args.len() < k.arity() {
            return Err(trap(format!(
                "@{name} called with {} args, expects {}",
                args.len(),
                k.arity()
            )));
        }
        Ok(match k {
            Intrinsic::Sqrt => RtVal::F(canonical(args[0].as_f()?.sqrt())),
            Intrinsic::Fabs => RtVal::F(args[0].as_f()?.abs()),
            Intrinsic::Exp => RtVal::F(canonical(args[0].as_f()?.exp())),
            Intrinsic::SMax => RtVal::I(args[0].as_i()?.max(args[1].as_i()?)),
            Intrinsic::SMin => RtVal::I(args[0].as_i()?.min(args[1].as_i()?)),
            Intrinsic::MaxNum => RtVal::F(canonical(args[0].as_f()?.max(args[1].as_f()?))),
            Intrinsic::MinNum => RtVal::F(canonical(args[0].as_f()?.min(args[1].as_f()?))),
            Intrinsic::Nop => RtVal::Unit,
            Intrinsic::Memcpy => {
                let dst = args[0].as_p()?;
                let src = args[1].as_p()?;
                let len = args[2].as_i()? as u64;
                let data = self.mem.slice(src, len)?.to_vec();
                self.mem.slice_mut(dst, len)?.copy_from_slice(&data);
                RtVal::Unit
            }
            Intrinsic::Memset => {
                let dst = args[0].as_p()?;
                let byte = args[1].as_i()? as u8;
                let len = args[2].as_i()? as u64;
                self.mem.slice_mut(dst, len)?.fill(byte);
                RtVal::Unit
            }
            Intrinsic::Malloc => {
                let size = args[0].as_i()? as u64;
                RtVal::P(self.mem.try_alloc("malloc", size)?)
            }
        })
    }

    #[inline]
    fn tick(&mut self) -> Run<()> {
        self.stats.steps += 1;
        if self.stats.steps > self.step_limit {
            return Err(trap("step limit exceeded"));
        }
        Ok(())
    }

    fn run(&mut self, code: &Code, args: &[RtVal]) -> Run<RtVal> {
        let Some(entry) = code.entry else {
            return Err(trap(format!("@{} has no blocks", code.name)));
        };
        let mut frame = code.frame.clone();
        for (slot, a) in frame.iter_mut().zip(args) {
            *slot = Some(*a);
        }
        if let Some(k) = code.entry_phi_at {
            for op in &code.blocks[entry as usize].ops[..k] {
                self.tick()?;
                self.exec(code, op, &mut frame)?;
            }
            return Err(trap("phi in entry block"));
        }
        let mut block = entry;
        let mut prev: Option<BlockId> = None;
        loop {
            let b = &code.blocks[block as usize];
            if let Some(p) = prev {
                if !b.phis.is_empty() {
                    self.enter(code, b, p, &mut frame)?;
                }
            }
            let before = self.stats.steps;
            let after = before.saturating_add(b.cost);
            let whole = !b.calls && after <= self.step_limit;
            if whole {
                // The whole block fits under the limit: charge it once,
                // and take back what a trap leaves unrun.
                self.stats.steps = after;
                for (k, op) in b.ops.iter().enumerate() {
                    if let Err(t) = self.exec(code, op, &mut frame) {
                        self.stats.steps = before + k as u64 + 1;
                        return Err(t);
                    }
                }
            } else {
                for op in b.ops.iter() {
                    self.tick()?;
                    self.exec(code, op, &mut frame)?;
                }
                // The terminator's first step; a fused compare takes its
                // second below.
                if b.term.steps() > 0 {
                    self.tick()?;
                }
            }
            let next = match b.term {
                Term::Br(t) => t,
                Term::CondBr { cond, t, f } => {
                    if code.int(&frame, cond)? != 0 {
                        t
                    } else {
                        f
                    }
                }
                Term::CmpBr {
                    pred,
                    a,
                    b: y,
                    dst,
                    t,
                    f,
                } => {
                    let c = match compare(code, &frame, pred, a, y) {
                        Ok(c) => c,
                        Err(e) => {
                            if whole {
                                // The branch's step was not reached.
                                self.stats.steps -= 1;
                            }
                            return Err(e);
                        }
                    };
                    frame[dst as usize] = Some(RtVal::I(i128::from(c)));
                    if !whole {
                        self.tick()?;
                    }
                    if c {
                        t
                    } else {
                        f
                    }
                }
                Term::Ret(v) => return v.map_or(Ok(RtVal::Unit), |v| code.read(&frame, v)),
                Term::Unreachable => return Err(trap("executed unreachable")),
                Term::FallThrough => continue,
                Term::Trap(ref msg) => return Err(trap(&**msg)),
            };
            prev = Some(block);
            block = next;
        }
    }

    /// Evaluate `b`'s leading phis in parallel for the edge from `prev`.
    fn enter(
        &mut self,
        code: &Code,
        b: &Block,
        prev: BlockId,
        frame: &mut [Option<RtVal>],
    ) -> Run<()> {
        self.phi_vals.clear();
        for phi in b.phis.iter() {
            let Some(&(_, src)) = phi.incoming.iter().find(|(from, _)| *from == prev) else {
                return Err(trap(format!(
                    "phi %{} has no edge from block {prev}",
                    phi.id
                )));
            };
            self.phi_vals.push(code.read(frame, src)?);
        }
        for (phi, v) in b.phis.iter().zip(&self.phi_vals) {
            frame[phi.dst as usize] = Some(*v);
        }
        Ok(())
    }

    #[inline(always)]
    fn exec(&mut self, code: &Code, op: &Op, frame: &mut [Option<RtVal>]) -> Run<()> {
        let (dst, v) = match *op {
            Op::Add { a, b, dst, width } => {
                let (x, y) = (code.int(frame, a)?, code.int(frame, b)?);
                (dst, RtVal::I(wrap(x.wrapping_add(y), width)))
            }
            Op::Mul { a, b, dst, width } => {
                let (x, y) = (code.int(frame, a)?, code.int(frame, b)?);
                (dst, RtVal::I(wrap(x.wrapping_mul(y), width)))
            }
            Op::Int {
                op,
                a,
                b,
                dst,
                width,
            } => {
                let (x, y) = (code.int(frame, a)?, code.int(frame, b)?);
                (dst, RtVal::I(wrap(int_binop(op, x, y)?, width)))
            }
            Op::FAdd { a, b, dst, single } => {
                let (x, y) = (code.float(frame, a)?, code.float(frame, b)?);
                (dst, RtVal::F(canonical(round(x + y, single))))
            }
            Op::FMul { a, b, dst, single } => {
                let (x, y) = (code.float(frame, a)?, code.float(frame, b)?);
                (dst, RtVal::F(canonical(round(x * y, single))))
            }
            Op::Float {
                op,
                a,
                b,
                dst,
                single,
            } => {
                let (x, y) = (code.float(frame, a)?, code.float(frame, b)?);
                let r = match op {
                    Opcode::FSub => x - y,
                    Opcode::FDiv => x / y,
                    Opcode::FRem => x % y,
                    _ => unreachable!("decoded as fsub, fdiv or frem"),
                };
                (dst, RtVal::F(canonical(round(r, single))))
            }
            Op::FNeg { a, dst } => (dst, RtVal::F(-code.float(frame, a)?)),
            Op::ICmp { pred, a, b, dst } => {
                (dst, RtVal::I(i128::from(compare(code, frame, pred, a, b)?)))
            }
            Op::FCmp { pred, a, b, dst } => {
                let (x, y) = (code.float(frame, a)?, code.float(frame, b)?);
                (dst, RtVal::I(i128::from(fcmp(pred, x, y))))
            }
            Op::LoadF32 { ptr, dst } => {
                let p = code.ptr(frame, ptr)?;
                (dst, RtVal::F(f32::from_le_bytes(self.mem.array(p)?) as f64))
            }
            Op::Load { ptr, dst, kind } => {
                let p = code.ptr(frame, ptr)?;
                (dst, self.mem.load_scalar(p, kind)?)
            }
            Op::BadLoad { ptr, ref ty } => {
                code.ptr(frame, ptr)?;
                return Err(trap(format!("cannot load type {ty}")));
            }
            Op::StoreF32 { val, ptr } => {
                let v = code.read(frame, val)?;
                let p = code.ptr(frame, ptr)?;
                return self.mem.put(p, (v.as_f()? as f32).to_le_bytes());
            }
            Op::Store { val, ptr, kind } => {
                let v = code.read(frame, val)?;
                let p = code.ptr(frame, ptr)?;
                return self.mem.store_scalar(p, kind, v);
            }
            Op::BadStore { val, ptr, ref ty } => {
                code.read(frame, val)?;
                code.ptr(frame, ptr)?;
                return Err(trap(format!("cannot store type {ty}")));
            }
            Op::Gep0 { base, dst, offset } => {
                let p = code.ptr(frame, base)?;
                (dst, RtVal::P(offset_ptr(p, i128::from(offset))))
            }
            Op::Gep1 {
                base,
                dst,
                i,
                si,
                offset,
            } => {
                let p = code.ptr(frame, base)?;
                let i = code.int(frame, i)? as i64;
                let delta = i128::from(i) * i128::from(si) + i128::from(offset);
                (dst, RtVal::P(offset_ptr(p, delta)))
            }
            Op::Gep2 {
                base,
                dst,
                i,
                j,
                si,
                sj,
                offset,
            } => {
                let p = code.ptr(frame, base)?;
                let i = code.int(frame, i)? as i64;
                let j = code.int(frame, j)? as i64;
                let delta = i128::from(i) * i128::from(si)
                    + i128::from(j) * i128::from(sj)
                    + i128::from(offset);
                (dst, RtVal::P(offset_ptr(p, delta)))
            }
            Op::Gep {
                base,
                dst,
                ref steps,
            } => {
                let p = code.ptr(frame, base)?;
                let mut delta: i128 = 0;
                for step in steps.iter() {
                    match *step {
                        GepStep::Scale(idx, stride) => {
                            let i = code.int(frame, idx)? as i64;
                            delta = delta.saturating_add(i128::from(i) * i128::from(stride));
                        }
                        GepStep::NonArray(idx, ref ty) => {
                            code.int(frame, idx)?;
                            return Err(trap(format!("gep steps into non-array {ty}")));
                        }
                    }
                }
                (dst, RtVal::P(offset_ptr(p, delta)))
            }
            Op::Alloca { dst, size } => (dst, RtVal::P(self.mem.try_alloc("alloca", size)?)),
            Op::Call { dst, ref site } => {
                let args = site
                    .args
                    .iter()
                    .map(|&s| code.read(frame, s))
                    .collect::<Run<Vec<_>>>()?;
                (dst, self.invoke(site.callee, &site.name, &args)?)
            }
            Op::Select { cond, t, f, dst } => {
                let c = code.int(frame, cond)?;
                (dst, code.read(frame, if c != 0 { t } else { f })?)
            }
            Op::ZExt { a, dst, from } => {
                let mask = if from >= 128 { -1 } else { (1i128 << from) - 1 };
                (dst, RtVal::I(code.int(frame, a)? & mask))
            }
            Op::SExt { a, dst } => (dst, RtVal::I(code.int(frame, a)?)),
            Op::Trunc { a, dst, width } => (dst, RtVal::I(wrap(code.int(frame, a)?, width))),
            Op::FpCast { a, dst, single } => (dst, RtVal::F(round(code.float(frame, a)?, single))),
            Op::FpToSi { a, dst } => (dst, RtVal::I(code.float(frame, a)? as i128)),
            Op::SiToFp { a, dst, single } => {
                (dst, RtVal::F(round(code.int(frame, a)? as f64, single)))
            }
            Op::PtrToInt { a, dst } => (dst, RtVal::I(code.ptr(frame, a)? as i128)),
            Op::IntToPtr { a, dst } => (dst, RtVal::P(code.int(frame, a)? as u64)),
            Op::Copy { a, dst } => (dst, code.read(frame, a)?),
            Op::Trap(ref msg) => return Err(trap(&**msg)),
        };
        frame[dst as usize] = Some(v);
        Ok(())
    }
}

/// The integer binops without a variant of their own.
fn int_binop(op: Opcode, x: i128, y: i128) -> Run<i128> {
    Ok(match op {
        Opcode::SDiv | Opcode::SRem | Opcode::UDiv | Opcode::URem if y == 0 => {
            return Err(trap(format!("{} by zero", op.mnemonic())))
        }
        Opcode::Sub => x.wrapping_sub(y),
        Opcode::SDiv => x.wrapping_div(y),
        Opcode::SRem => x.wrapping_rem(y),
        Opcode::UDiv => ((x as u128) / (y as u128)) as i128,
        Opcode::URem => ((x as u128) % (y as u128)) as i128,
        Opcode::And => x & y,
        Opcode::Or => x | y,
        Opcode::Xor => x ^ y,
        Opcode::Shl => x.wrapping_shl(y as u32),
        Opcode::LShr => (x as u128).wrapping_shr(y as u32) as i128,
        Opcode::AShr => x.wrapping_shr(y as u32),
        _ => unreachable!("decoded as an integer binop without its own op"),
    })
}

/// `icmp pred a, b`: integers, or two pointers compared as integers.
#[inline(always)]
fn compare(code: &Code, frame: &[Option<RtVal>], pred: IntPred, a: Slot, b: Slot) -> Run<bool> {
    let (x, y) = match (frame[a as usize], frame[b as usize]) {
        (Some(RtVal::I(x)), Some(RtVal::I(y))) => (x, y),
        (Some(RtVal::P(x)), Some(RtVal::P(y))) => (x as i128, y as i128),
        _ => {
            let (av, bv) = (code.read(frame, a)?, code.read(frame, b)?);
            (av.as_i()?, bv.as_i()?)
        }
    };
    Ok(match pred {
        IntPred::Eq => x == y,
        IntPred::Ne => x != y,
        IntPred::Slt => x < y,
        IntPred::Sle => x <= y,
        IntPred::Sgt => x > y,
        IntPred::Sge => x >= y,
        IntPred::Ult => (x as u128) < (y as u128),
        IntPred::Ule => (x as u128) <= (y as u128),
        IntPred::Ugt => (x as u128) > (y as u128),
        IntPred::Uge => (x as u128) >= (y as u128),
    })
}

#[inline]
fn fcmp(pred: FloatPred, x: f64, y: f64) -> bool {
    match pred {
        FloatPred::Oeq => x == y,
        FloatPred::One => x != y && !x.is_nan() && !y.is_nan(),
        FloatPred::Olt => x < y,
        FloatPred::Ole => x <= y,
        FloatPred::Ogt => x > y,
        FloatPred::Oge => x >= y,
        FloatPred::Une => x != y,
        FloatPred::Ord => !x.is_nan() && !y.is_nan(),
        FloatPred::Uno => x.is_nan() || y.is_nan(),
    }
}

/// Emulate single precision where the type says so.
#[inline]
fn round(v: f64, single: bool) -> f64 {
    if single {
        (v as f32) as f64
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_module;

    fn run(src: &str, name: &str, args: &[RtVal]) -> Result<RtVal> {
        let m = parse_module("m", src).unwrap();
        crate::verifier::verify_module(&m).unwrap();
        let mut i = Interpreter::new(&m);
        i.call(name, args)
    }

    #[test]
    fn arith_and_control_flow() {
        let src = r#"
define i32 @max(i32 %a, i32 %b) {
entry:
  %c = icmp sgt i32 %a, %b
  br i1 %c, label %then, label %else

then:
  ret i32 %a

else:
  ret i32 %b
}
"#;
        assert_eq!(
            run(src, "max", &[RtVal::I(3), RtVal::I(9)]).unwrap(),
            RtVal::I(9)
        );
        assert_eq!(
            run(src, "max", &[RtVal::I(10), RtVal::I(9)]).unwrap(),
            RtVal::I(10)
        );
    }

    #[test]
    fn loop_with_phi() {
        let src = r#"
define i32 @sum(i32 %n) {
entry:
  br label %header

header:
  %i = phi i32 [ 0, %entry ], [ %i2, %body ]
  %acc = phi i32 [ 0, %entry ], [ %acc2, %body ]
  %c = icmp slt i32 %i, %n
  br i1 %c, label %body, label %exit

body:
  %acc2 = add i32 %acc, %i
  %i2 = add i32 %i, 1
  br label %header

exit:
  ret i32 %acc
}
"#;
        assert_eq!(run(src, "sum", &[RtVal::I(10)]).unwrap(), RtVal::I(45));
        assert_eq!(run(src, "sum", &[RtVal::I(0)]).unwrap(), RtVal::I(0));
    }

    #[test]
    fn memory_gep_load_store() {
        let src = r#"
define void @scale(float* %a, i32 %n) {
entry:
  br label %header

header:
  %i = phi i32 [ 0, %entry ], [ %next, %body ]
  %c = icmp slt i32 %i, %n
  br i1 %c, label %body, label %exit

body:
  %w = sext i32 %i to i64
  %p = getelementptr inbounds float, float* %a, i64 %w
  %x = load float, float* %p, align 4
  %y = fmul float %x, 0x4000000000000000
  store float %y, float* %p, align 4
  %next = add i32 %i, 1
  br label %header

exit:
  ret void
}
"#;
        let m = parse_module("m", src).unwrap();
        let mut interp = Interpreter::new(&m);
        let a = interp.mem.alloc_f32(&[1.0, 2.0, 3.0, 4.0]);
        interp.call("scale", &[RtVal::P(a), RtVal::I(4)]).unwrap();
        assert_eq!(interp.mem.read_f32(a, 4).unwrap(), vec![2.0, 4.0, 6.0, 8.0]);
    }

    #[test]
    fn two_d_array_gep() {
        let src = r#"
define float @get([4 x [8 x float]]* %a, i64 %i, i64 %j) {
entry:
  %p = getelementptr inbounds [4 x [8 x float]], [4 x [8 x float]]* %a, i64 0, i64 %i, i64 %j
  %v = load float, float* %p, align 4
  ret float %v
}
"#;
        let m = parse_module("m", src).unwrap();
        let mut interp = Interpreter::new(&m);
        let data: Vec<f32> = (0..32).map(|x| x as f32).collect();
        let a = interp.mem.alloc_f32(&data);
        let v = interp
            .call("get", &[RtVal::P(a), RtVal::I(2), RtVal::I(5)])
            .unwrap();
        assert_eq!(v, RtVal::F(21.0));
    }

    #[test]
    fn oob_access_traps() {
        let src = r#"
define float @bad(float* %a) {
entry:
  %p = getelementptr inbounds float, float* %a, i64 100
  %v = load float, float* %p, align 4
  ret float %v
}
"#;
        let m = parse_module("m", src).unwrap();
        let mut interp = Interpreter::new(&m);
        let a = interp.mem.alloc_f32(&[0.0; 4]);
        let e = interp.call("bad", &[RtVal::P(a)]).unwrap_err();
        assert!(e.to_string().contains("out-of-bounds"));
    }

    #[test]
    fn null_deref_traps() {
        let src = r#"
define i32 @bad() {
entry:
  %v = load i32, i32* null, align 4
  ret i32 %v
}
"#;
        let e = run(src, "bad", &[]).unwrap_err();
        assert!(e.to_string().contains("null"));
    }

    #[test]
    fn step_limit_guards_infinite_loops() {
        let src = r#"
define void @spin() {
entry:
  br label %entry2

entry2:
  br label %entry2
}
"#;
        let m = parse_module("m", src).unwrap();
        let mut interp = Interpreter::new(&m);
        interp.step_limit = 1000;
        let e = interp.call("spin", &[]).unwrap_err();
        assert!(e.to_string().contains("step limit"));
    }

    #[test]
    fn intrinsics_and_calls() {
        let src = r#"
declare float @llvm.sqrt.f32(float)

define float @hyp(float %a, float %b) {
entry:
  %a2 = fmul float %a, %a
  %b2 = fmul float %b, %b
  %s = fadd float %a2, %b2
  %r = call float @llvm.sqrt.f32(float %s)
  ret float %r
}
"#;
        assert_eq!(
            run(src, "hyp", &[RtVal::F(3.0), RtVal::F(4.0)]).unwrap(),
            RtVal::F(5.0)
        );
    }

    #[test]
    fn memcpy_memset() {
        let src = r#"
declare void @llvm.memcpy.p0i8.p0i8.i64(i8* %d, i8* %s, i64 %n, i1 %v)
declare void @llvm.memset.p0i8.i64(i8* %d, i8 %b, i64 %n, i1 %v)

define void @f(i8* %dst, i8* %src) {
entry:
  call void @llvm.memcpy.p0i8.p0i8.i64(i8* %dst, i8* %src, i64 8, i1 false)
  %p = getelementptr inbounds i8, i8* %dst, i64 8
  call void @llvm.memset.p0i8.i64(i8* %p, i8 7, i64 4, i1 false)
  ret void
}
"#;
        let m = parse_module("m", src).unwrap();
        let mut interp = Interpreter::new(&m);
        let src_buf = interp.mem.alloc_i32(&[0x01020304, 0x05060708]);
        let dst = interp.mem.alloc(16);
        interp
            .call("f", &[RtVal::P(dst), RtVal::P(src_buf)])
            .unwrap();
        let out = interp.mem.read_i32(dst, 3).unwrap();
        assert_eq!(out[0], 0x01020304);
        assert_eq!(out[1], 0x05060708);
        assert_eq!(out[2], 0x07070707);
    }

    #[test]
    fn globals_are_initialized() {
        let src = r#"
@lut = constant [3 x i32] [i32 10, i32 20, i32 30], align 4

define i32 @get(i64 %i) {
entry:
  %p = getelementptr inbounds [3 x i32], [3 x i32]* @lut, i64 0, i64 %i
  %v = load i32, i32* %p, align 4
  ret i32 %v
}
"#;
        assert_eq!(run(src, "get", &[RtVal::I(1)]).unwrap(), RtVal::I(20));
        assert_eq!(run(src, "get", &[RtVal::I(2)]).unwrap(), RtVal::I(30));
    }

    #[test]
    fn float_precision_is_single_where_typed() {
        // 1e8 + 1 is not representable in f32; the interpreter must round
        // like 32-bit hardware would.
        let src = r#"
define float @f(float %a) {
entry:
  %r = fadd float %a, 0x3FF0000000000000
  ret float %r
}
"#;
        let v = run(src, "f", &[RtVal::F(1.0e8)]).unwrap();
        assert_eq!(v, RtVal::F(1.0e8f32 as f64));
    }

    #[test]
    fn steps_count_every_non_phi_instruction() {
        let src = r#"
define i32 @sum(i32 %n) {
entry:
  br label %header

header:
  %i = phi i32 [ 0, %entry ], [ %i2, %body ]
  %c = icmp slt i32 %i, %n
  br i1 %c, label %body, label %exit

body:
  %i2 = add i32 %i, 1
  br label %header

exit:
  ret i32 %i
}
"#;
        let m = parse_module("m", src).unwrap();
        let mut interp = Interpreter::new(&m);
        assert_eq!(interp.call("sum", &[RtVal::I(2)]).unwrap(), RtVal::I(2));
        // entry 1 + header 2x3 + body 2x2 + exit 1; the phi is free.
        assert_eq!(
            interp.stats,
            InterpStats {
                steps: 12,
                calls: 1
            }
        );

        // A limit one short traps on the twelfth step, with it counted.
        let mut interp = Interpreter::new(&m);
        interp.step_limit = 11;
        let e = interp.call("sum", &[RtVal::I(2)]).unwrap_err();
        assert_eq!(e.to_string(), "interpreter trap: step limit exceeded");
        assert_eq!(interp.stats.steps, 12);
    }

    #[test]
    fn intrinsic_with_too_few_args_traps() {
        let src = r#"
declare float @llvm.sqrt.f32(float)

define float @f() {
entry:
  %r = call float @llvm.sqrt.f32()
  ret float %r
}
"#;
        let e = run(src, "f", &[]).unwrap_err();
        assert_eq!(
            e.to_string(),
            "interpreter trap: @llvm.sqrt.f32 called with 0 args, expects 1"
        );
    }

    #[test]
    fn memcpy_length_overflow_traps() {
        let src = r#"
declare void @llvm.memcpy.p0i8.p0i8.i64(i8* %d, i8* %s, i64 %n, i1 %v)

define void @f(i8* %dst, i8* %src) {
entry:
  %s = getelementptr inbounds i8, i8* %src, i64 4
  call void @llvm.memcpy.p0i8.p0i8.i64(i8* %dst, i8* %s, i64 -1, i1 false)
  ret void
}
"#;
        let m = parse_module("m", src).unwrap();
        let mut interp = Interpreter::new(&m);
        let (dst, src_buf) = (interp.mem.alloc(8), interp.mem.alloc(8));
        let e = interp
            .call("f", &[RtVal::P(dst), RtVal::P(src_buf)])
            .unwrap_err();
        assert_eq!(e.to_string(), "interpreter trap: pointer overflow");
    }

    #[test]
    fn buffers_the_pointer_encoding_cannot_address_trap() {
        let src = r#"
declare i8* @malloc(i64)

define i8* @heap(i64 %n) {
entry:
  %p = call i8* @malloc(i64 %n)
  ret i8* %p
}

define [8589934592 x i8]* @stack() {
entry:
  %p = alloca [8589934592 x i8], align 1
  ret [8589934592 x i8]* %p
}
"#;
        let e = run(src, "heap", &[RtVal::I(-1)]).unwrap_err();
        assert!(
            e.to_string()
                .contains("malloc of 18446744073709551615 bytes"),
            "{e}"
        );
        let e = run(src, "heap", &[RtVal::I((1 << 32) + 1)]).unwrap_err();
        assert!(e.to_string().contains("malloc of 4294967297 bytes"), "{e}");
        let e = run(src, "stack", &[]).unwrap_err();
        assert!(e.to_string().contains("alloca of 8589934592 bytes"), "{e}");
        assert!(matches!(run(src, "heap", &[RtVal::I(16)]), Ok(RtVal::P(_))));
    }

    #[test]
    fn oversized_shifts_match_in_debug_and_release() {
        let src = r#"
define i32 @lshr(i32 %a) {
entry:
  %r = lshr i32 %a, 200
  ret i32 %r
}

define i32 @ashr(i32 %a) {
entry:
  %r = ashr i32 %a, 200
  ret i32 %r
}

define i32 @shl(i32 %a) {
entry:
  %r = shl i32 %a, 200
  ret i32 %r
}
"#;
        // The amount wraps modulo 128 (200 -> 72), on the i128 value.
        for (f, a, want) in [
            ("lshr", 5, 0),
            ("lshr", -1, -1),
            ("ashr", 5, 0),
            ("ashr", -8, -1),
            ("shl", 5, 0),
        ] {
            assert_eq!(
                run(src, f, &[RtVal::I(a)]).unwrap(),
                RtVal::I(want),
                "{f} {a}"
            );
        }
    }

    #[test]
    fn gep_past_4_gib_does_not_reach_the_next_buffer() {
        let src = r#"
define float @far(float* %a) {
entry:
  %p = getelementptr float, float* %a, i64 1073741824
  %v = load float, float* %p, align 4
  ret float %v
}

define float @back(float* %a) {
entry:
  %p = getelementptr float, float* %a, i64 -1
  %v = load float, float* %p, align 4
  ret float %v
}
"#;
        let m = parse_module("m", src).unwrap();
        let mut interp = Interpreter::new(&m);
        let a = interp.mem.alloc_f32(&[1.0]);
        let next = interp.mem.alloc_f32(&[2.0]);
        assert_eq!(next, a + (1 << 32));
        for f in ["far", "back"] {
            let e = interp.call(f, &[RtVal::P(next)]).unwrap_err();
            assert!(e.to_string().contains("wild pointer"), "{f}: {e}");
        }
        let e = interp.call("far", &[RtVal::P(a)]).unwrap_err();
        assert!(e.to_string().contains("wild pointer"), "{e}");
    }

    #[test]
    fn nan_results_are_canonical_whatever_the_operand_order() {
        let src = r#"
define float @add(float %a, float %b) {
entry:
  %r = fadd float %a, %b
  ret float %r
}

define double @div(double %a, double %b) {
entry:
  %r = fdiv double %a, %b
  ret double %r
}

define void @store(float* %p, float %a, float %b) {
entry:
  %r = fadd float %a, %b
  store float %r, float* %p, align 4
  ret void
}
"#;
        let nan = f64::NAN;
        let bits = |v: Result<RtVal>| match v.unwrap() {
            RtVal::F(x) => x.to_bits(),
            other => panic!("not a float: {other:?}"),
        };
        let ab = bits(run(src, "add", &[RtVal::F(nan), RtVal::F(-nan)]));
        let ba = bits(run(src, "add", &[RtVal::F(-nan), RtVal::F(nan)]));
        assert_eq!(ab, ba, "NaN + -NaN and -NaN + NaN");
        assert_eq!(ab, 0x7ff8_0000_0000_0000);
        let zz = bits(run(src, "div", &[RtVal::F(0.0), RtVal::F(0.0)]));
        assert_eq!(zz, 0x7ff8_0000_0000_0000, "0/0");

        let m = parse_module("m", src).unwrap();
        let mut interp = Interpreter::new(&m);
        let p = interp.mem.alloc(4);
        for (a, b) in [(nan, -nan), (-nan, nan)] {
            interp
                .call("store", &[RtVal::P(p), RtVal::F(a), RtVal::F(b)])
                .unwrap();
            let stored = u32::from_le_bytes(interp.mem.array(p).ok().unwrap());
            assert_eq!(stored, 0x7fc0_0000);
        }
    }

    /// A straight-line block whose second op traps: the steps it did not
    /// reach are not counted.
    #[test]
    fn a_trap_inside_a_block_counts_only_the_steps_it_reached() {
        let src = r#"
define i32 @f(i32 %a) {
entry:
  %x = add i32 %a, 1
  %y = sdiv i32 %x, 0
  %z = add i32 %y, 1
  %w = add i32 %z, 1
  ret i32 %w
}
"#;
        let m = parse_module("m", src).unwrap();
        let mut interp = Interpreter::new(&m);
        let e = interp.call("f", &[RtVal::I(1)]).unwrap_err();
        assert_eq!(e.to_string(), "interpreter trap: sdiv by zero");
        assert_eq!(interp.stats.steps, 2);
    }

    /// The step limit can land anywhere in a block; the trap fires at the
    /// step that crosses it, as if every instruction were counted alone.
    #[test]
    fn the_step_limit_fires_at_the_same_step_wherever_it_lands() {
        let src = r#"
define i32 @f(i32 %a) {
entry:
  %x = add i32 %a, 1
  %y = add i32 %x, 1
  br label %next

next:
  %z = add i32 %y, 1
  %w = add i32 %z, 1
  ret i32 %w
}
"#;
        let m = parse_module("m", src).unwrap();
        for limit in 0..6 {
            let mut interp = Interpreter::new(&m);
            interp.step_limit = limit;
            let e = interp.call("f", &[RtVal::I(1)]).unwrap_err();
            assert_eq!(e.to_string(), "interpreter trap: step limit exceeded");
            assert_eq!(interp.stats.steps, limit + 1, "limit {limit}");
        }
        let mut interp = Interpreter::new(&m);
        interp.step_limit = 6;
        assert_eq!(interp.call("f", &[RtVal::I(1)]).unwrap(), RtVal::I(5));
        assert_eq!(interp.stats.steps, 6);
    }

    /// A callee's steps fall between its caller's: the limit trips inside
    /// the callee at the same step as counting one instruction at a time.
    #[test]
    fn steps_of_a_defined_callee_interleave_with_the_caller() {
        let src = r#"
define i32 @inc(i32 %a) {
entry:
  %r = add i32 %a, 1
  ret i32 %r
}

define i32 @f(i32 %a) {
entry:
  %x = call i32 @inc(i32 %a)
  %y = add i32 %x, 1
  %z = add i32 %y, 1
  ret i32 %z
}
"#;
        let m = parse_module("m", src).unwrap();
        let mut interp = Interpreter::new(&m);
        assert_eq!(interp.call("f", &[RtVal::I(1)]).unwrap(), RtVal::I(4));
        assert_eq!(interp.stats.steps, 6);
        assert_eq!(interp.stats.calls, 2);
        // Limit 2: the call (step 1) and the callee's add (step 2) run;
        // the callee's ret is step 3 and trips.
        let mut interp = Interpreter::new(&m);
        interp.step_limit = 2;
        let e = interp.call("f", &[RtVal::I(1)]).unwrap_err();
        assert_eq!(e.to_string(), "interpreter trap: step limit exceeded");
        assert_eq!(interp.stats.steps, 3);
    }

    #[test]
    fn folded_geps_match_the_step_by_step_form() {
        let src = r#"
define float @get([4 x [8 x float]]* %a, i64 %i) {
entry:
  %p = getelementptr inbounds [4 x [8 x float]], [4 x [8 x float]]* %a, i64 0, i64 %i, i64 3
  %v = load float, float* %p, align 4
  ret float %v
}

define float @fixed([4 x [8 x float]]* %a) {
entry:
  %p = getelementptr inbounds [4 x [8 x float]], [4 x [8 x float]]* %a, i64 0, i64 2, i64 5
  %v = load float, float* %p, align 4
  ret float %v
}

define float @huge([4 x [8 x float]]* %a, i64 %i) {
entry:
  %p = getelementptr inbounds [4 x [8 x float]], [4 x [8 x float]]* %a, i64 9223372036854775807, i64 %i, i64 0
  %v = load float, float* %p, align 4
  ret float %v
}
"#;
        let m = parse_module("m", src).unwrap();
        let mut interp = Interpreter::new(&m);
        let data: Vec<f32> = (0..32).map(|x| x as f32).collect();
        let a = interp.mem.alloc_f32(&data);
        let get = interp.call("get", &[RtVal::P(a), RtVal::I(2)]).unwrap();
        assert_eq!(get, RtVal::F(19.0));
        let fixed = interp.call("fixed", &[RtVal::P(a)]).unwrap();
        assert_eq!(fixed, RtVal::F(21.0));
        // A constant term past `i32` keeps the step-by-step form.
        let e = interp
            .call("huge", &[RtVal::P(a), RtVal::I(i64::MIN as i128)])
            .unwrap_err();
        assert!(e.to_string().contains("wild pointer"), "{e}");
    }

    /// A compare fused into its branch counts its own step, then the
    /// branch's: a trap in the compare leaves the branch's step uncounted,
    /// and a limit between the two trips after the compare ran.
    #[test]
    fn a_fused_compare_and_branch_count_two_steps() {
        let src = r#"
define i32 @f(i32 %a) {
entry:
  %y = add i32 %a, 1
  %c = icmp slt i32 %y, %z
  br i1 %c, label %exit, label %other

other:
  %z = add i32 %a, 2
  br label %exit

exit:
  ret i32 %y
}
"#;
        let m = parse_module("m", src).unwrap();
        for (limit, want) in [
            (1, "step limit exceeded"),
            (2, "read of unset %3 in @f"),
            (3, "read of unset %3 in @f"),
        ] {
            let mut interp = Interpreter::new(&m);
            interp.step_limit = limit;
            let e = interp.call("f", &[RtVal::I(1)]).unwrap_err();
            assert_eq!(e.to_string(), format!("interpreter trap: {want}"));
            assert_eq!(interp.stats.steps, 2, "limit {limit}");
        }
    }

    #[test]
    fn a_phi_after_a_compare_in_the_entry_block_still_traps() {
        let src = r#"
define i32 @f(i32 %a) {
entry:
  %c = icmp slt i32 %a, 1
  %p = phi i32 [ 0, %entry ]
  br i1 %c, label %entry, label %entry
}
"#;
        let m = parse_module("m", src).unwrap();
        let mut interp = Interpreter::new(&m);
        let e = interp.call("f", &[RtVal::I(1)]).unwrap_err();
        assert_eq!(e.to_string(), "interpreter trap: phi in entry block");
        assert_eq!(interp.stats.steps, 1);
    }

    #[test]
    fn phi_in_entry_block_traps_after_the_ops_before_it() {
        let src = r#"
define i32 @f(i32 %a) {
entry:
  %x = add i32 %a, 1
  %y = add i32 %x, 1
  %p = phi i32 [ 0, %entry ]
  ret i32 %p
}
"#;
        // The verifier rejects this; the interpreter must still trap.
        let m = parse_module("m", src).unwrap();
        let mut interp = Interpreter::new(&m);
        let e = interp.call("f", &[RtVal::I(1)]).unwrap_err();
        assert_eq!(e.to_string(), "interpreter trap: phi in entry block");
        assert_eq!(interp.stats.steps, 2);
    }
}
