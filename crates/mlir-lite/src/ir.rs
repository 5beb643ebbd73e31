//! The generic operation/region/block structure, after MLIR.
//!
//! Ownership is a plain tree: a module owns top-level operations, an
//! operation owns its regions, a region owns its blocks, a block owns its
//! operations. Values are small handles that carry their type inline and
//! identify their definer by a module-unique uid, so walking passes never
//! need a side table just to know a value's type.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicU32, Ordering};

use crate::attr::Attr;

/// Process-global uid source for operations and blocks. Uniqueness (not
/// density) is the contract; cloned subtrees must be re-uniqued via
/// [`Op::deep_clone`].
static NEXT_UID: AtomicU32 = AtomicU32::new(1);

fn fresh_uid() -> u32 {
    NEXT_UID.fetch_add(1, Ordering::Relaxed)
}

/// MLIR-side types.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum MType {
    /// Platform index type (lowered to `i64`).
    Index,
    /// `iN`.
    Int(u32),
    /// `f32`.
    F32,
    /// `f64`.
    F64,
    /// `memref<AxBx..xT>`; empty shape = rank-0. `-1` encodes a dynamic
    /// dimension (`?`).
    MemRef { shape: Vec<i64>, elem: Box<MType> },
    /// LLVM-dialect pointer (appears after the memref lowering stage).
    LlvmPtr(Box<MType>),
    /// LLVM-dialect array.
    LlvmArray(u64, Box<MType>),
    /// The absence of a value (used for functions that return nothing).
    None,
}

impl MType {
    /// `i1`.
    pub const I1: MType = MType::Int(1);
    /// `i32`.
    pub const I32: MType = MType::Int(32);
    /// `i64`.
    pub const I64: MType = MType::Int(64);

    /// `memref<shape x self>`.
    pub fn memref(&self, shape: &[i64]) -> MType {
        MType::MemRef {
            shape: shape.to_vec(),
            elem: Box::new(self.clone()),
        }
    }

    /// True for `f32`/`f64`.
    pub fn is_float(&self) -> bool {
        matches!(self, MType::F32 | MType::F64)
    }

    /// True for `iN` or `index`.
    pub fn is_int_like(&self) -> bool {
        matches!(self, MType::Int(_) | MType::Index)
    }

    /// Memref element type.
    pub fn memref_elem(&self) -> Option<&MType> {
        match self {
            MType::MemRef { elem, .. } => Some(elem),
            _ => None,
        }
    }

    /// Memref shape.
    pub fn memref_shape(&self) -> Option<&[i64]> {
        match self {
            MType::MemRef { shape, .. } => Some(shape),
            _ => None,
        }
    }

    /// Total static element count of a memref (None if any dim is dynamic).
    pub fn memref_len(&self) -> Option<i64> {
        let shape = self.memref_shape()?;
        let mut n = 1i64;
        for &d in shape {
            if d < 0 {
                return None;
            }
            n *= d;
        }
        Some(n)
    }
}

impl fmt::Display for MType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MType::Index => write!(f, "index"),
            MType::Int(w) => write!(f, "i{w}"),
            MType::F32 => write!(f, "f32"),
            MType::F64 => write!(f, "f64"),
            MType::MemRef { shape, elem } => {
                write!(f, "memref<")?;
                for d in shape {
                    if *d < 0 {
                        write!(f, "?x")?;
                    } else {
                        write!(f, "{d}x")?;
                    }
                }
                write!(f, "{elem}>")
            }
            MType::LlvmPtr(p) => write!(f, "!llvm.ptr<{p}>"),
            MType::LlvmArray(n, e) => write!(f, "!llvm.array<{n} x {e}>"),
            MType::None => write!(f, "none"),
        }
    }
}

/// What defines a value.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum MValueKind {
    /// `idx`-th result of the operation with the given uid.
    OpResult { op: u32, idx: u32 },
    /// `idx`-th argument of the block with the given uid.
    BlockArg { block: u32, idx: u32 },
}

/// An SSA value: definer handle plus inline type.
#[derive(Clone, Debug, PartialEq)]
pub struct MValue {
    /// Who defines it.
    pub kind: MValueKind,
    /// Its type.
    pub ty: MType,
}

/// One operation.
#[derive(Debug)]
pub struct Op {
    /// Module-unique id.
    pub uid: u32,
    /// Fully-qualified name, e.g. `affine.for`.
    pub name: String,
    /// SSA operands.
    pub operands: Vec<MValue>,
    /// Result types (results are referenced as `MValueKind::OpResult`).
    pub result_types: Vec<MType>,
    /// Attributes.
    pub attrs: BTreeMap<String, Attr>,
    /// Nested regions.
    pub regions: Vec<Region>,
    /// Successor blocks (uids) for `cf`-style terminators, with the operands
    /// forwarded to each successor's block arguments.
    pub successors: Vec<(u32, Vec<MValue>)>,
}

impl Op {
    /// A fresh operation with no operands/results.
    pub fn new(name: impl Into<String>) -> Op {
        Op {
            uid: fresh_uid(),
            name: name.into(),
            operands: Vec::new(),
            result_types: Vec::new(),
            attrs: BTreeMap::new(),
            regions: Vec::new(),
            successors: Vec::new(),
        }
    }

    /// Builder-style operand attachment.
    pub fn with_operands(mut self, operands: Vec<MValue>) -> Op {
        self.operands = operands;
        self
    }

    /// Builder-style result types.
    pub fn with_results(mut self, result_types: Vec<MType>) -> Op {
        self.result_types = result_types;
        self
    }

    /// Builder-style attribute attachment.
    pub fn with_attr(mut self, key: impl Into<String>, value: Attr) -> Op {
        self.attrs.insert(key.into(), value);
        self
    }

    /// The `i`-th result as a value handle.
    pub fn result(&self, i: u32) -> MValue {
        MValue {
            kind: MValueKind::OpResult {
                op: self.uid,
                idx: i,
            },
            ty: self.result_types[i as usize].clone(),
        }
    }

    /// The dialect prefix of the op name (`affine` for `affine.for`).
    pub fn dialect(&self) -> &str {
        self.name.split('.').next().unwrap_or("")
    }

    /// Integer attribute accessor.
    pub fn int_attr(&self, key: &str) -> Option<i64> {
        self.attrs.get(key).and_then(Attr::as_int)
    }

    /// Deep clone with fresh uids for every op and block in the subtree;
    /// internal value references are remapped, external ones preserved.
    pub fn deep_clone(&self) -> Op {
        let mut op_map: BTreeMap<u32, u32> = BTreeMap::new();
        let mut block_map: BTreeMap<u32, u32> = BTreeMap::new();
        let mut cloned = self.clone_structure(&mut op_map, &mut block_map);
        remap_op(&mut cloned, &op_map, &block_map);
        cloned
    }

    fn clone_structure(
        &self,
        op_map: &mut BTreeMap<u32, u32>,
        block_map: &mut BTreeMap<u32, u32>,
    ) -> Op {
        let uid = fresh_uid();
        op_map.insert(self.uid, uid);
        Op {
            uid,
            name: self.name.clone(),
            operands: self.operands.clone(),
            result_types: self.result_types.clone(),
            attrs: self.attrs.clone(),
            regions: self
                .regions
                .iter()
                .map(|r| Region {
                    blocks: r
                        .blocks
                        .iter()
                        .map(|b| {
                            let buid = fresh_uid();
                            block_map.insert(b.uid, buid);
                            MBlock {
                                uid: buid,
                                arg_types: b.arg_types.clone(),
                                ops: b
                                    .ops
                                    .iter()
                                    .map(|o| o.clone_structure(op_map, block_map))
                                    .collect(),
                            }
                        })
                        .collect(),
                })
                .collect(),
            successors: self.successors.clone(),
        }
    }

    /// Walk the subtree (self included), pre-order.
    pub fn walk<'a>(&'a self, visit: &mut impl FnMut(&'a Op)) {
        visit(self);
        for r in &self.regions {
            for b in &r.blocks {
                for o in &b.ops {
                    o.walk(visit);
                }
            }
        }
    }

    /// Walk mutably (post-order on children first would invalidate borrows;
    /// this is pre-order with a callback that may edit attrs/operands but not
    /// structure).
    pub fn walk_mut(&mut self, visit: &mut impl FnMut(&mut Op)) {
        visit(self);
        for r in &mut self.regions {
            for b in &mut r.blocks {
                for o in &mut b.ops {
                    o.walk_mut(visit);
                }
            }
        }
    }

    /// Count ops in the subtree matching a predicate.
    pub fn count_ops(&self, pred: impl Fn(&Op) -> bool) -> usize {
        let mut n = 0;
        self.walk(&mut |o| {
            if pred(o) {
                n += 1;
            }
        });
        n
    }
}

fn remap_value(v: &mut MValue, op_map: &BTreeMap<u32, u32>, block_map: &BTreeMap<u32, u32>) {
    match &mut v.kind {
        MValueKind::OpResult { op, .. } => {
            if let Some(&n) = op_map.get(op) {
                *op = n;
            }
        }
        MValueKind::BlockArg { block, .. } => {
            if let Some(&n) = block_map.get(block) {
                *block = n;
            }
        }
    }
}

fn remap_op(op: &mut Op, op_map: &BTreeMap<u32, u32>, block_map: &BTreeMap<u32, u32>) {
    for v in &mut op.operands {
        remap_value(v, op_map, block_map);
    }
    for (succ, args) in &mut op.successors {
        if let Some(&n) = block_map.get(succ) {
            *succ = n;
        }
        for v in args {
            remap_value(v, op_map, block_map);
        }
    }
    for r in &mut op.regions {
        for b in &mut r.blocks {
            for o in &mut b.ops {
                remap_op(o, op_map, block_map);
            }
        }
    }
}

/// A region: an ordered list of blocks (structured ops use exactly one).
#[derive(Debug, Default)]
pub struct Region {
    /// Blocks; the first is the region's entry.
    pub blocks: Vec<MBlock>,
}

impl Region {
    /// A region with a single empty block taking the given arguments.
    pub fn with_entry(arg_types: Vec<MType>) -> Region {
        Region {
            blocks: vec![MBlock::new(arg_types)],
        }
    }

    /// The entry block.
    pub fn entry(&self) -> &MBlock {
        &self.blocks[0]
    }

    /// The entry block, mutably.
    pub fn entry_mut(&mut self) -> &mut MBlock {
        &mut self.blocks[0]
    }
}

/// A block inside a region.
#[derive(Debug)]
pub struct MBlock {
    /// Module-unique id (block arguments are referenced against it).
    pub uid: u32,
    /// Argument types.
    pub arg_types: Vec<MType>,
    /// Operations in order; the last is the region terminator.
    pub ops: Vec<Op>,
}

impl MBlock {
    /// A fresh empty block.
    pub fn new(arg_types: Vec<MType>) -> MBlock {
        MBlock {
            uid: fresh_uid(),
            arg_types,
            ops: Vec::new(),
        }
    }

    /// The `i`-th block argument as a value.
    pub fn arg(&self, i: u32) -> MValue {
        MValue {
            kind: MValueKind::BlockArg {
                block: self.uid,
                idx: i,
            },
            ty: self.arg_types[i as usize].clone(),
        }
    }

    /// Append an op and return a handle to its `i`-th result.
    pub fn push(&mut self, op: Op) -> &Op {
        self.ops.push(op);
        self.ops.last().unwrap()
    }
}

/// A whole MLIR module: a list of top-level ops (normally `func.func`s).
#[derive(Debug, Default)]
pub struct MlirModule {
    /// Module symbol name.
    pub name: String,
    /// Top-level operations.
    pub ops: Vec<Op>,
}

impl MlirModule {
    /// An empty module.
    pub fn new(name: impl Into<String>) -> MlirModule {
        MlirModule {
            name: name.into(),
            ops: Vec::new(),
        }
    }

    /// Find a `func.func` by its `sym_name`.
    pub fn func(&self, name: &str) -> Option<&Op> {
        self.ops.iter().find(|o| {
            o.name == "func.func" && o.attrs.get("sym_name").and_then(Attr::as_str) == Some(name)
        })
    }

    /// Walk every op in the module.
    pub fn walk<'a>(&'a self, visit: &mut impl FnMut(&'a Op)) {
        for o in &self.ops {
            o.walk(visit);
        }
    }

    /// Count ops matching a predicate across the module.
    pub fn count_ops(&self, pred: impl Fn(&Op) -> bool) -> usize {
        self.ops.iter().map(|o| o.count_ops(&pred)).sum()
    }

    /// Deep-clone the module with fresh uids everywhere.
    pub fn deep_clone(&self) -> MlirModule {
        MlirModule {
            name: self.name.clone(),
            ops: self.ops.iter().map(Op::deep_clone).collect(),
        }
    }
}

/// A lookup index from value handles to types/definers, built per walk.
/// Passes that need "who defines this value" build one over the relevant
/// function.
#[derive(Default)]
pub struct ValueIndex {
    defs: BTreeMap<u32, String>,
}

impl ValueIndex {
    /// Index every op uid -> op name within a function subtree.
    pub fn build(root: &Op) -> ValueIndex {
        let mut idx = ValueIndex::default();
        root.walk(&mut |o| {
            idx.defs.insert(o.uid, o.name.clone());
        });
        idx
    }

    /// The name of the op defining a value (None for block args/foreign).
    pub fn defining_op_name(&self, v: &MValue) -> Option<&str> {
        match v.kind {
            MValueKind::OpResult { op, .. } => self.defs.get(&op).map(String::as_str),
            MValueKind::BlockArg { .. } => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uids_are_unique() {
        let a = Op::new("test.a");
        let b = Op::new("test.b");
        assert_ne!(a.uid, b.uid);
        let blk1 = MBlock::new(vec![]);
        let blk2 = MBlock::new(vec![]);
        assert_ne!(blk1.uid, blk2.uid);
    }

    #[test]
    fn results_carry_types() {
        let op = Op::new("test.two").with_results(vec![MType::I32, MType::F32]);
        assert_eq!(op.result(0).ty, MType::I32);
        assert_eq!(op.result(1).ty, MType::F32);
        assert_eq!(
            op.result(1).kind,
            MValueKind::OpResult { op: op.uid, idx: 1 }
        );
    }

    #[test]
    fn memref_type_helpers() {
        let t = MType::F32.memref(&[32, 32]);
        assert_eq!(t.to_string(), "memref<32x32xf32>");
        assert_eq!(t.memref_len(), Some(1024));
        assert_eq!(t.memref_elem(), Some(&MType::F32));
        let dynamic = MType::F32.memref(&[-1, 8]);
        assert_eq!(dynamic.to_string(), "memref<?x8xf32>");
        assert_eq!(dynamic.memref_len(), None);
    }

    #[test]
    fn walk_counts_nested_ops() {
        let mut outer = Op::new("test.outer");
        let mut region = Region::with_entry(vec![MType::Index]);
        region.entry_mut().push(Op::new("test.inner"));
        region.entry_mut().push(Op::new("test.inner"));
        outer.regions.push(region);
        assert_eq!(outer.count_ops(|o| o.name == "test.inner"), 2);
        assert_eq!(outer.count_ops(|_| true), 3);
    }

    #[test]
    fn deep_clone_reuniques_and_remaps() {
        let mut outer = Op::new("test.outer");
        let mut region = Region::with_entry(vec![MType::Index]);
        let iv = region.entry().arg(0);
        let inner = Op::new("test.use")
            .with_operands(vec![iv])
            .with_results(vec![MType::Index]);
        let inner_uid = inner.uid;
        region.entry_mut().push(inner);
        outer.regions.push(region);

        let cloned = outer.deep_clone();
        assert_ne!(cloned.uid, outer.uid);
        let new_block = &cloned.regions[0].blocks[0];
        assert_ne!(new_block.uid, outer.regions[0].blocks[0].uid);
        let new_inner = &new_block.ops[0];
        assert_ne!(new_inner.uid, inner_uid);
        // The operand must now reference the *cloned* block's arg.
        assert_eq!(
            new_inner.operands[0].kind,
            MValueKind::BlockArg {
                block: new_block.uid,
                idx: 0
            }
        );
    }

    #[test]
    fn module_func_lookup() {
        let mut m = MlirModule::new("m");
        m.ops
            .push(Op::new("func.func").with_attr("sym_name", Attr::Str("gemm".into())));
        assert!(m.func("gemm").is_some());
        assert!(m.func("nope").is_none());
    }

    #[test]
    fn value_index_maps_definers() {
        let op = Op::new("arith.addi").with_results(vec![MType::I32]);
        let v = op.result(0);
        let mut holder = Op::new("func.func");
        let mut region = Region::with_entry(vec![]);
        region.entry_mut().push(op);
        holder.regions.push(region);
        let idx = ValueIndex::build(&holder);
        assert_eq!(idx.defining_op_name(&v), Some("arith.addi"));
        let blk = MBlock::new(vec![MType::I32]);
        assert_eq!(idx.defining_op_name(&blk.arg(0)), None);
    }

    #[test]
    fn dialect_prefix() {
        assert_eq!(Op::new("affine.for").dialect(), "affine");
        assert_eq!(Op::new("func.func").dialect(), "func");
    }
}
