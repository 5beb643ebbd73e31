//! Andersen-lite points-to / alias analysis.
//!
//! Every pointer value is resolved to a *set* of root memory objects
//! ([`MemObject`]): parameters, allocas, globals, or the conservative
//! `Unknown`. GEP and bitcast are transparent; `phi` and `select` take the
//! union of their pointer operands — the generalization over the old
//! single-base walk, which gave up on any control-flow merge. The equations
//! are union-only, so a memoizing DFS with a cycle guard computes the least
//! fixed point directly.
//!
//! [`resolve_base`] is the query the rest of the workspace shares:
//! `vitis-sim::memdep` (dependence distances, port pressure) and
//! `adaptor::compat` (flattened-access detection) both funnel through it,
//! which keeps the scheduler and the lints agreeing about aliasing.

use std::collections::{BTreeSet, HashMap, HashSet};

use llvm_lite::{Function, InstId, Opcode, Type, Value};

/// A root memory object a pointer may reference.
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum MemObject {
    /// Function parameter index.
    Param(u32),
    /// Alloca instruction.
    Alloca(InstId),
    /// Module global.
    Global(String),
    /// Unresolvable pointer.
    Unknown,
}

impl MemObject {
    /// Printable name (`%param`, `%alloca`, `@global`, `<unknown>`).
    pub fn describe(&self, f: &Function) -> String {
        match self {
            MemObject::Param(i) => format!("%{}", f.params[*i as usize].name),
            MemObject::Alloca(id) => {
                let n = &f.inst(*id).name;
                if n.is_empty() {
                    format!("%{id}")
                } else {
                    format!("%{n}")
                }
            }
            MemObject::Global(g) => format!("@{g}"),
            MemObject::Unknown => "<unknown>".to_string(),
        }
    }
}

/// Collect the points-to set of `v` into `out`. `visiting` breaks PHI
/// cycles: a back edge contributes nothing, which is exactly ⊥ of the
/// union-only system.
fn gather(f: &Function, v: &Value, visiting: &mut HashSet<InstId>, out: &mut BTreeSet<MemObject>) {
    match v {
        Value::Arg(i) => {
            out.insert(MemObject::Param(*i));
        }
        Value::Global(g) => {
            out.insert(MemObject::Global(g.clone()));
        }
        Value::Inst(id) => {
            if !visiting.insert(*id) {
                return;
            }
            let inst = f.inst(*id);
            match inst.opcode {
                Opcode::Alloca => {
                    out.insert(MemObject::Alloca(*id));
                }
                Opcode::Gep | Opcode::BitCast => gather(f, &inst.operands[0], visiting, out),
                Opcode::Phi => {
                    for op in &inst.operands {
                        gather(f, op, visiting, out);
                    }
                }
                Opcode::Select => {
                    gather(f, &inst.operands[1], visiting, out);
                    gather(f, &inst.operands[2], visiting, out);
                }
                // Loaded pointers, call results, int→ptr casts: no model.
                _ => {
                    out.insert(MemObject::Unknown);
                }
            }
        }
        _ => {
            out.insert(MemObject::Unknown);
        }
    }
}

/// The points-to set of a single pointer value.
pub fn points_to_set(f: &Function, v: &Value) -> BTreeSet<MemObject> {
    let mut out = BTreeSet::new();
    gather(f, v, &mut HashSet::new(), &mut out);
    out
}

/// Resolve a pointer to its unique base object, or `Unknown` when the
/// points-to set is empty, ambiguous, or contains `Unknown`. This is the
/// drop-in replacement for the old single-base walk — with the improvement
/// that a `phi`/`select` whose operands all reach the *same* root now
/// resolves instead of giving up.
pub fn resolve_base(f: &Function, v: &Value) -> MemObject {
    let set = points_to_set(f, v);
    let mut iter = set.into_iter();
    match (iter.next(), iter.next()) {
        (Some(only), None) => only,
        _ => MemObject::Unknown,
    }
}

/// Whole-function points-to solution: one set per pointer-typed
/// instruction, plus set queries for arbitrary values.
#[derive(Clone, Debug, Default)]
pub struct PointsTo {
    sets: HashMap<InstId, BTreeSet<MemObject>>,
}

impl PointsTo {
    /// Compute points-to sets for every pointer-typed instruction of `f`.
    pub fn build(f: &Function) -> PointsTo {
        let mut pt = PointsTo::default();
        for (_, id) in f.inst_ids() {
            if matches!(f.inst(id).ty, Type::Ptr(_)) {
                pt.sets.insert(id, points_to_set(f, &Value::Inst(id)));
            }
        }
        pt
    }

    /// The points-to set of any value (instructions hit the cache).
    pub fn of(&self, f: &Function, v: &Value) -> BTreeSet<MemObject> {
        if let Value::Inst(id) = v {
            if let Some(s) = self.sets.get(id) {
                return s.clone();
            }
        }
        points_to_set(f, v)
    }

    /// May the two pointers reference the same memory?
    pub fn may_alias(&self, f: &Function, a: &Value, b: &Value) -> bool {
        let sa = self.of(f, a);
        let sb = self.of(f, b);
        if sa.contains(&MemObject::Unknown) || sb.contains(&MemObject::Unknown) {
            return true;
        }
        sa.intersection(&sb).next().is_some()
    }
}

/// Allocas whose address escapes the function: passed to a call, stored as
/// a *value*, cast to an integer, or returned. Loads/stores through them
/// are then visible to the outside and must not be treated as dead.
pub fn escaping_allocas(f: &Function) -> HashSet<InstId> {
    let mut escaped = HashSet::new();
    let leak = |v: &Value, escaped: &mut HashSet<InstId>| {
        for obj in points_to_set(f, v) {
            if let MemObject::Alloca(a) = obj {
                escaped.insert(a);
            }
        }
    };
    for (_, id) in f.inst_ids() {
        let inst = f.inst(id);
        match inst.opcode {
            Opcode::Call => {
                for op in &inst.operands {
                    leak(op, &mut escaped);
                }
            }
            // The stored value (operand 0) escaping; the address operand
            // does not.
            Opcode::Store => leak(&inst.operands[0], &mut escaped),
            Opcode::PtrToInt => leak(&inst.operands[0], &mut escaped),
            Opcode::Ret => {
                for op in &inst.operands {
                    leak(op, &mut escaped);
                }
            }
            _ => {}
        }
    }
    escaped
}

#[cfg(test)]
mod tests {
    use super::*;
    use llvm_lite::parser::parse_module;

    fn func(src: &str) -> llvm_lite::Module {
        parse_module("m", src).unwrap()
    }

    #[test]
    fn direct_and_gep_bases_resolve() {
        let m = func(
            r#"
define void @f([8 x float]* %a) {
entry:
  %p = getelementptr inbounds [8 x float], [8 x float]* %a, i64 0, i64 3
  %v = load float, float* %p, align 4
  ret void
}
"#,
        );
        let f = &m.functions[0];
        let p = f.block_order[0];
        let gep = f.block(p).insts[0];
        assert_eq!(resolve_base(f, &Value::Inst(gep)), MemObject::Param(0));
    }

    #[test]
    fn select_of_same_base_resolves() {
        let m = func(
            r#"
define void @f([8 x float]* %a, i1 %c) {
entry:
  %p = getelementptr inbounds [8 x float], [8 x float]* %a, i64 0, i64 0
  %q = getelementptr inbounds [8 x float], [8 x float]* %a, i64 0, i64 1
  %s = select i1 %c, float* %p, float* %q
  %v = load float, float* %s, align 4
  ret void
}
"#,
        );
        let f = &m.functions[0];
        let sel = f.block(f.entry()).insts[2];
        // The old walk returned Unknown here; the set-based one resolves.
        assert_eq!(resolve_base(f, &Value::Inst(sel)), MemObject::Param(0));
    }

    #[test]
    fn select_of_two_bases_is_a_set() {
        let m = func(
            r#"
define void @f([8 x float]* %a, [8 x float]* %b, i1 %c) {
entry:
  %p = getelementptr inbounds [8 x float], [8 x float]* %a, i64 0, i64 0
  %q = getelementptr inbounds [8 x float], [8 x float]* %b, i64 0, i64 0
  %s = select i1 %c, float* %p, float* %q
  %v = load float, float* %s, align 4
  ret void
}
"#,
        );
        let f = &m.functions[0];
        let sel = f.block(f.entry()).insts[2];
        let set = points_to_set(f, &Value::Inst(sel));
        assert_eq!(set.len(), 2);
        assert_eq!(resolve_base(f, &Value::Inst(sel)), MemObject::Unknown);
        let pt = PointsTo::build(f);
        assert!(pt.may_alias(
            f,
            &Value::Inst(sel),
            &Value::Inst(f.block(f.entry()).insts[0])
        ));
    }

    #[test]
    fn phi_cycle_terminates_and_resolves() {
        let m = func(
            r#"
define void @f([8 x float]* %a, i32 %n) {
entry:
  %p0 = getelementptr inbounds [8 x float], [8 x float]* %a, i64 0, i64 0
  br label %header

header:
  %p = phi float* [ %p0, %entry ], [ %pn, %body ]
  %i = phi i32 [ 0, %entry ], [ %next, %body ]
  %c = icmp slt i32 %i, %n
  br i1 %c, label %body, label %exit

body:
  %pn = getelementptr inbounds float, float* %p, i64 1
  %next = add i32 %i, 1
  br label %header

exit:
  ret void
}
"#,
        );
        let f = &m.functions[0];
        let header = f.block_by_name("header").unwrap();
        let phi = f.block(header).insts[0];
        assert_eq!(resolve_base(f, &Value::Inst(phi)), MemObject::Param(0));
    }

    #[test]
    fn escape_analysis_finds_leaks() {
        let m = func(
            r#"
declare void @sink(float* %p)

define void @f() {
entry:
  %kept = alloca [4 x float], align 4
  %leaked = alloca [4 x float], align 4
  %p = getelementptr inbounds [4 x float], [4 x float]* %leaked, i64 0, i64 0
  call void @sink(float* %p)
  ret void
}
"#,
        );
        let f = &m.functions[1];
        let kept = f.block(f.entry()).insts[0];
        let leaked = f.block(f.entry()).insts[1];
        let esc = escaping_allocas(f);
        assert!(esc.contains(&leaked));
        assert!(!esc.contains(&kept));
    }
}
