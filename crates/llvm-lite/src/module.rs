//! Module, function, block and global containers.
//!
//! Functions own two arenas — one for instructions, one for blocks — and a
//! `block_order` giving layout order. Instruction ids are stable across
//! edits; deleting an instruction tombstones its arena slot (`removed`
//! flag) rather than shifting indices, so passes can hold ids across
//! mutations.
//!
//! [`Function::block_of`], [`Function::remove_inst`] and
//! [`Function::replace_all_uses`] each scan the whole function. They are
//! for one-off edits: a pass that would call them once per instruction
//! should build its own index, or collect its edits and apply them in one
//! sweep ([`Function::remove_insts`]).

use std::borrow::Cow;
use std::collections::BTreeMap;

use crate::inst::{Inst, InstData, Opcode};
use crate::metadata::LoopMetadata;
use crate::types::Type;
use crate::value::Value;

/// Index of an [`Inst`] in `Function::insts`.
pub type InstId = u32;
/// Index of a [`Block`] in `Function::blocks`.
pub type BlockId = u32;

/// A basic block: a label, the ordered instruction list, and a tombstone
/// flag used by CFG transforms.
#[derive(Clone, Debug, PartialEq)]
pub struct Block {
    /// Label name (unique within the function after verification).
    pub name: String,
    /// Instruction ids in execution order; the last one is the terminator.
    pub insts: Vec<InstId>,
    /// True once the block has been unlinked from the function.
    pub removed: bool,
}

impl Block {
    /// An empty block with the given label.
    pub fn new(name: impl Into<String>) -> Block {
        Block {
            name: name.into(),
            insts: Vec::new(),
            removed: false,
        }
    }
}

/// A formal function parameter.
#[derive(Clone, Debug, PartialEq)]
pub struct Param {
    /// Parameter name (without the `%` sigil).
    pub name: String,
    /// Parameter type.
    pub ty: Type,
    /// Per-parameter string attributes. The lowering pipeline stashes shape
    /// facts here (e.g. `mha.shape = "32x32xfloat"`) and the adaptor turns
    /// them into HLS interface ports.
    pub attrs: BTreeMap<String, String>,
}

impl Param {
    /// A parameter without attributes.
    pub fn new(name: impl Into<String>, ty: Type) -> Param {
        Param {
            name: name.into(),
            ty,
            attrs: BTreeMap::new(),
        }
    }
}

/// One function: signature, arenas, and layout.
#[derive(Clone, Debug, PartialEq)]
pub struct Function {
    /// Symbol name (without the `@` sigil).
    pub name: String,
    /// Formal parameters.
    pub params: Vec<Param>,
    /// Return type.
    pub ret_ty: Type,
    /// Declaration-only functions have no body (external / intrinsic).
    pub is_declaration: bool,
    /// Instruction arena. Slots may be tombstoned; use
    /// [`Function::inst`]/[`Function::inst_mut`] for checked access.
    pub insts: Vec<Inst>,
    /// Tombstone flags parallel to `insts`.
    pub inst_removed: Vec<bool>,
    /// Block arena.
    pub blocks: Vec<Block>,
    /// Layout order of live blocks; the first entry is the entry block.
    pub block_order: Vec<BlockId>,
    /// Function-level string attributes (`hls.top`, interface modes, ...).
    pub attrs: BTreeMap<String, String>,
}

impl Function {
    /// A new empty function definition.
    pub fn new(name: impl Into<String>, params: Vec<Param>, ret_ty: Type) -> Function {
        Function {
            name: name.into(),
            params,
            ret_ty,
            is_declaration: false,
            insts: Vec::new(),
            inst_removed: Vec::new(),
            blocks: Vec::new(),
            block_order: Vec::new(),
            attrs: BTreeMap::new(),
        }
    }

    /// A declaration (no body).
    pub fn declaration(name: impl Into<String>, params: Vec<Param>, ret_ty: Type) -> Function {
        let mut f = Function::new(name, params, ret_ty);
        f.is_declaration = true;
        f
    }

    /// Append a new block to the layout; returns its id.
    pub fn add_block(&mut self, name: impl Into<String>) -> BlockId {
        let id = self.blocks.len() as BlockId;
        self.blocks.push(Block::new(name));
        self.block_order.push(id);
        id
    }

    /// The entry block id. Panics on declarations.
    pub fn entry(&self) -> BlockId {
        self.block_order[0]
    }

    /// Checked instruction access (panics on a tombstoned id — that is a
    /// pass bug, not a recoverable condition).
    pub fn inst(&self, id: InstId) -> &Inst {
        assert!(
            !self.inst_removed[id as usize],
            "use of removed instruction %{id}"
        );
        &self.insts[id as usize]
    }

    /// Mutable counterpart of [`Function::inst`].
    pub fn inst_mut(&mut self, id: InstId) -> &mut Inst {
        assert!(
            !self.inst_removed[id as usize],
            "use of removed instruction %{id}"
        );
        &mut self.insts[id as usize]
    }

    /// Whether an instruction id is live.
    pub fn is_live(&self, id: InstId) -> bool {
        (id as usize) < self.insts.len() && !self.inst_removed[id as usize]
    }

    /// Block access.
    pub fn block(&self, id: BlockId) -> &Block {
        &self.blocks[id as usize]
    }

    /// Mutable block access.
    pub fn block_mut(&mut self, id: BlockId) -> &mut Block {
        &mut self.blocks[id as usize]
    }

    /// Allocate an instruction in the arena and append it to `block`.
    pub fn push_inst(&mut self, block: BlockId, inst: Inst) -> InstId {
        let id = self.insts.len() as InstId;
        self.insts.push(inst);
        self.inst_removed.push(false);
        self.blocks[block as usize].insts.push(id);
        id
    }

    /// Allocate an instruction and insert it at `pos` within `block`.
    pub fn insert_inst(&mut self, block: BlockId, pos: usize, inst: Inst) -> InstId {
        let id = self.insts.len() as InstId;
        self.insts.push(inst);
        self.inst_removed.push(false);
        self.blocks[block as usize].insts.insert(pos, id);
        id
    }

    /// Unlink an instruction from its block and tombstone it. This scans
    /// every block; use [`Function::remove_insts`] to remove many.
    pub fn remove_inst(&mut self, id: InstId) {
        for b in &mut self.blocks {
            b.insts.retain(|&i| i != id);
        }
        self.inst_removed[id as usize] = true;
    }

    /// [`Function::remove_inst`] for a batch: unlink every listed
    /// instruction with one sweep over the blocks, then tombstone them.
    pub fn remove_insts(&mut self, ids: &[InstId]) {
        if ids.is_empty() {
            return;
        }
        let mut doomed = vec![false; self.insts.len()];
        for &id in ids {
            doomed[id as usize] = true;
        }
        for b in &mut self.blocks {
            b.insts
                .retain(|&i| !doomed.get(i as usize).copied().unwrap_or(false));
        }
        for &id in ids {
            self.inst_removed[id as usize] = true;
        }
    }

    /// Unlink a block from the layout and tombstone it (instructions inside
    /// are tombstoned too).
    pub fn remove_block(&mut self, id: BlockId) {
        self.block_order.retain(|&b| b != id);
        let insts = std::mem::take(&mut self.blocks[id as usize].insts);
        for i in insts {
            self.inst_removed[i as usize] = true;
        }
        self.blocks[id as usize].removed = true;
    }

    /// The block that currently contains `id`, if any. This scans every
    /// block's instruction list.
    pub fn block_of(&self, id: InstId) -> Option<BlockId> {
        self.block_order
            .iter()
            .find(|&&b| self.blocks[b as usize].insts.contains(&id))
            .copied()
    }

    /// The terminator of a block, if it has one.
    pub fn terminator(&self, block: BlockId) -> Option<InstId> {
        let last = *self.blocks[block as usize].insts.last()?;
        self.inst(last).is_terminator().then_some(last)
    }

    /// Iterate over `(BlockId, InstId)` pairs of all live instructions in
    /// layout order.
    pub fn inst_ids(&self) -> Vec<(BlockId, InstId)> {
        let mut out = Vec::new();
        for &b in &self.block_order {
            for &i in &self.blocks[b as usize].insts {
                out.push((b, i));
            }
        }
        out
    }

    /// Resolve the type of any value in the context of this function (and
    /// the module for globals).
    pub fn value_type(&self, module: &Module, v: &Value) -> Type {
        self.value_type_ref(module, v).into_owned()
    }

    /// [`Function::value_type`] without the clone: arguments, instruction
    /// results and constants lend their type; only the address type of a
    /// global is built.
    pub fn value_type_ref<'a>(&'a self, module: &Module, v: &'a Value) -> Cow<'a, Type> {
        match v {
            Value::Arg(i) => Cow::Borrowed(&self.params[*i as usize].ty),
            Value::Inst(id) => Cow::Borrowed(&self.inst(*id).ty),
            Value::Global(name) => Cow::Owned(
                module
                    .global(name)
                    .map(|g| g.ty.ptr_to())
                    .unwrap_or(Type::I8.ptr_to()),
            ),
            other => Cow::Borrowed(other.const_type().expect("typed constant")),
        }
    }

    /// Replace every use of `from` with `to` across all live instructions.
    /// Returns the number of operand slots rewritten. This scans every
    /// instruction in the arena.
    pub fn replace_all_uses(&mut self, from: &Value, to: &Value) -> usize {
        let mut n = 0;
        for (idx, inst) in self.insts.iter_mut().enumerate() {
            if self.inst_removed[idx] {
                continue;
            }
            for op in &mut inst.operands {
                if op == from {
                    *op = to.clone();
                    n += 1;
                }
            }
        }
        n
    }

    /// Number of live instructions.
    pub fn num_insts(&self) -> usize {
        self.inst_removed.iter().filter(|r| !**r).count()
    }

    /// Count live instructions with the given opcode.
    pub fn count_opcode(&self, op: Opcode) -> usize {
        self.inst_ids()
            .iter()
            .filter(|(_, i)| self.inst(*i).opcode == op)
            .count()
    }

    /// Look up a block id by label.
    pub fn block_by_name(&self, name: &str) -> Option<BlockId> {
        self.block_order
            .iter()
            .copied()
            .find(|&b| self.blocks[b as usize].name == name)
    }

    /// Rewrite PHI incoming-block references after a CFG edit.
    pub fn replace_phi_incoming(&mut self, block: BlockId, from: BlockId, to: BlockId) {
        let ids: Vec<InstId> = self.blocks[block as usize].insts.clone();
        for id in ids {
            let inst = self.inst_mut(id);
            if let InstData::Phi { incoming } = &mut inst.data {
                for b in incoming {
                    if *b == from {
                        *b = to;
                    }
                }
            }
        }
    }
}

/// Constant initializer of a global.
#[derive(Clone, Debug, PartialEq)]
pub enum GlobalInit {
    /// `zeroinitializer`.
    Zero,
    /// Scalar integer constant.
    Int(i128),
    /// Scalar floating constant (bits of the f64 encoding).
    Float(u64),
    /// Array of nested initializers.
    Array(Vec<GlobalInit>),
}

/// A module-level global variable.
#[derive(Clone, Debug, PartialEq)]
pub struct Global {
    /// Symbol name (without `@`).
    pub name: String,
    /// Value type of the global (the symbol itself has type `ty*`).
    pub ty: Type,
    /// Initializer; `None` prints as an external declaration.
    pub init: Option<GlobalInit>,
    /// `constant` vs `global`.
    pub is_const: bool,
    /// Alignment in bytes (0 = natural).
    pub align: u32,
}

/// A whole translation unit.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Module {
    /// Module identifier (source name).
    pub name: String,
    /// Optional target triple string.
    pub target_triple: Option<String>,
    /// Globals in declaration order.
    pub globals: Vec<Global>,
    /// Functions in declaration order.
    pub functions: Vec<Function>,
    /// Loop metadata nodes referenced by `Inst::loop_md`.
    pub loop_mds: Vec<LoopMetadata>,
}

impl Module {
    /// An empty module.
    pub fn new(name: impl Into<String>) -> Module {
        Module {
            name: name.into(),
            ..Module::default()
        }
    }

    /// Find a function by symbol name.
    pub fn function(&self, name: &str) -> Option<&Function> {
        self.functions.iter().find(|f| f.name == name)
    }

    /// Mutable [`Module::function`].
    pub fn function_mut(&mut self, name: &str) -> Option<&mut Function> {
        self.functions.iter_mut().find(|f| f.name == name)
    }

    /// Find a global by symbol name.
    pub fn global(&self, name: &str) -> Option<&Global> {
        self.globals.iter().find(|g| g.name == name)
    }

    /// Intern a loop metadata node, returning its id. Structurally equal
    /// nodes are shared.
    pub fn add_loop_md(&mut self, md: LoopMetadata) -> crate::metadata::MdId {
        if let Some(pos) = self.loop_mds.iter().position(|m| *m == md) {
            return pos as crate::metadata::MdId;
        }
        self.loop_mds.push(md);
        (self.loop_mds.len() - 1) as crate::metadata::MdId
    }

    /// The function marked as HLS top (attribute `hls.top`), else the first
    /// definition.
    pub fn top_function(&self) -> Option<&Function> {
        self.functions
            .iter()
            .find(|f| f.attrs.contains_key("hls.top"))
            .or_else(|| self.functions.iter().find(|f| !f.is_declaration))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn simple_fn() -> Function {
        let mut f = Function::new("f", vec![Param::new("x", Type::I32)], Type::I32);
        let b = f.add_block("entry");
        let add = f.push_inst(
            b,
            Inst::new(Opcode::Add, Type::I32, vec![Value::Arg(0), Value::i32(1)]),
        );
        f.push_inst(
            b,
            Inst::new(Opcode::Ret, Type::Void, vec![Value::Inst(add)]),
        );
        f
    }

    #[test]
    fn push_and_lookup() {
        let f = simple_fn();
        assert_eq!(f.num_insts(), 2);
        assert_eq!(f.entry(), 0);
        assert_eq!(f.terminator(0), Some(1));
        assert_eq!(f.block_of(0), Some(0));
        assert_eq!(f.count_opcode(Opcode::Add), 1);
    }

    #[test]
    fn remove_tombstones() {
        let mut f = simple_fn();
        f.remove_inst(0);
        assert_eq!(f.num_insts(), 1);
        assert!(!f.is_live(0));
        assert!(f.is_live(1));
        assert_eq!(f.block(0).insts, vec![1]);
    }

    #[test]
    fn batch_removal_matches_one_by_one() {
        let mut one = simple_fn();
        let b2 = one.add_block("next");
        one.push_inst(b2, Inst::new(Opcode::Unreachable, Type::Void, vec![]));
        let mut batch = one.clone();
        one.remove_inst(0);
        one.remove_inst(2);
        batch.remove_insts(&[2, 0]);
        assert_eq!(one, batch);
        assert_eq!(batch.block(0).insts, vec![1]);
        assert!(batch.block(b2).insts.is_empty());
        batch.remove_insts(&[]);
        assert_eq!(one, batch);
    }

    #[test]
    #[should_panic(expected = "use of removed instruction")]
    fn access_removed_panics() {
        let mut f = simple_fn();
        f.remove_inst(0);
        let _ = f.inst(0);
    }

    #[test]
    fn replace_all_uses_rewrites_operands() {
        let mut f = simple_fn();
        let n = f.replace_all_uses(&Value::Arg(0), &Value::i32(7));
        assert_eq!(n, 1);
        assert_eq!(f.inst(0).operands[0], Value::i32(7));
    }

    #[test]
    fn value_type_resolution() {
        let m = Module::new("m");
        let f = simple_fn();
        assert_eq!(f.value_type(&m, &Value::Arg(0)), Type::I32);
        assert_eq!(f.value_type(&m, &Value::Inst(0)), Type::I32);
        assert_eq!(f.value_type(&m, &Value::f32(1.0)), Type::Float);
        assert!(matches!(
            f.value_type_ref(&m, &Value::Arg(0)),
            Cow::Borrowed(&Type::I32)
        ));
        assert_eq!(
            *f.value_type_ref(&m, &Value::Global("g".into())),
            Type::I8.ptr_to()
        );
    }

    #[test]
    fn remove_block_tombstones_contents() {
        let mut f = simple_fn();
        let b2 = f.add_block("dead");
        let i = f.push_inst(b2, Inst::new(Opcode::Unreachable, Type::Void, vec![]));
        f.remove_block(b2);
        assert!(!f.is_live(i));
        assert_eq!(f.block_order, vec![0]);
        assert!(f.blocks[b2 as usize].removed);
    }

    #[test]
    fn module_lookup_and_md_interning() {
        let mut m = Module::new("m");
        m.functions.push(simple_fn());
        assert!(m.function("f").is_some());
        assert!(m.function("g").is_none());
        let a = m.add_loop_md(LoopMetadata::pipelined(1));
        let b = m.add_loop_md(LoopMetadata::pipelined(1));
        let c = m.add_loop_md(LoopMetadata::unrolled(2));
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(m.loop_mds.len(), 2);
    }

    #[test]
    fn top_function_prefers_attribute() {
        let mut m = Module::new("m");
        m.functions.push(simple_fn());
        let mut g = simple_fn();
        g.name = "top".into();
        g.attrs.insert("hls.top".into(), "1".into());
        m.functions.push(g);
        assert_eq!(m.top_function().unwrap().name, "top");
    }

    #[test]
    fn phi_incoming_rewrite() {
        let mut f = Function::new("f", vec![], Type::Void);
        let b0 = f.add_block("a");
        let b1 = f.add_block("b");
        let phi = f.push_inst(
            b1,
            Inst::new(Opcode::Phi, Type::I32, vec![Value::i32(1)])
                .with_data(InstData::Phi { incoming: vec![b0] }),
        );
        f.replace_phi_incoming(b1, b0, 9);
        match &f.inst(phi).data {
            InstData::Phi { incoming } => assert_eq!(incoming, &vec![9]),
            _ => unreachable!(),
        }
    }
}
