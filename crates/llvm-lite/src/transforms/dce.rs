//! Dead code elimination.
//!
//! Removes value-producing instructions with no users and no side
//! effects, and the ones that lose their last user to that. Runs to a local
//! fixed point within each call.

use crate::inst::Inst;
use crate::module::{Function, InstId, Module};
use crate::transforms::ModulePass;
use crate::value::Value;
use pass_core::PassResult;

/// The DCE pass.
pub struct Dce;

impl ModulePass<Module> for Dce {
    fn name(&self) -> &'static str {
        "dce"
    }

    fn run(&self, m: &mut Module) -> PassResult<bool> {
        let mut changed = false;
        for f in &mut m.functions {
            if !f.is_declaration {
                changed |= strip_dead(f);
            }
        }
        Ok(changed)
    }
}

fn is_removable(inst: &Inst) -> bool {
    inst.has_result() && !inst.opcode.has_side_effects()
}

/// Remove every instruction that is dead, or becomes dead once the dead
/// ones are gone: one use count per instruction, a worklist, and one
/// batched removal. Returns whether anything was removed.
fn strip_dead(f: &mut Function) -> bool {
    let n = f.insts.len();
    let mut uses = vec![0u32; n];
    let mut placed = vec![false; n];
    for &b in &f.block_order {
        for &id in &f.blocks[b as usize].insts {
            placed[id as usize] = true;
            for op in &f.inst(id).operands {
                if let Value::Inst(d) = op {
                    if let Some(u) = uses.get_mut(*d as usize) {
                        *u += 1;
                    }
                }
            }
        }
    }
    let mut dead = vec![false; n];
    let mut work: Vec<InstId> = (0..n as InstId)
        .filter(|&id| placed[id as usize] && uses[id as usize] == 0 && is_removable(f.inst(id)))
        .collect();
    let mut doomed = Vec::new();
    while let Some(id) = work.pop() {
        if std::mem::replace(&mut dead[id as usize], true) {
            continue;
        }
        doomed.push(id);
        for op in &f.inst(id).operands {
            let Value::Inst(d) = *op else { continue };
            let d = d as usize;
            if d < n {
                uses[d] -= 1;
                if uses[d] == 0 && placed[d] && !dead[d] && is_removable(f.inst(d as InstId)) {
                    work.push(d as InstId);
                }
            }
        }
    }
    f.remove_insts(&doomed);
    !doomed.is_empty()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::Opcode;
    use crate::parser::parse_module;
    use crate::verifier::verify_module;

    #[test]
    fn removes_unused_chain() {
        let src = r#"
define i32 @f(i32 %a) {
entry:
  %dead1 = add i32 %a, 1
  %dead2 = mul i32 %dead1, 2
  %live = add i32 %a, 3
  ret i32 %live
}
"#;
        let mut m = parse_module("m", src).unwrap();
        assert!(Dce.run(&mut m).unwrap());
        verify_module(&m).unwrap();
        let f = m.function("f").unwrap();
        assert_eq!(f.num_insts(), 2); // %live + ret
        assert_eq!(f.count_opcode(Opcode::Mul), 0);
    }

    #[test]
    fn keeps_side_effecting_instructions() {
        let src = r#"
declare i32 @ext()

define void @f(i32* %p) {
entry:
  %unused = call i32 @ext()
  store i32 0, i32* %p, align 4
  ret void
}
"#;
        let mut m = parse_module("m", src).unwrap();
        let changed = Dce.run(&mut m).unwrap();
        assert!(!changed);
        let f = m.function("f").unwrap();
        assert_eq!(f.count_opcode(Opcode::Call), 1);
        assert_eq!(f.count_opcode(Opcode::Store), 1);
    }

    #[test]
    fn keeps_loads_with_uses_only() {
        // Loads are side-effect free here (no volatile), so an unused load
        // goes away, but a used one stays.
        let src = r#"
define i32 @f(i32* %p) {
entry:
  %dead = load i32, i32* %p, align 4
  %live = load i32, i32* %p, align 4
  ret i32 %live
}
"#;
        let mut m = parse_module("m", src).unwrap();
        assert!(Dce.run(&mut m).unwrap());
        let f = m.function("f").unwrap();
        assert_eq!(f.count_opcode(Opcode::Load), 1);
    }

    #[test]
    fn noop_on_clean_function() {
        let src = "define void @f() {\nentry:\n  ret void\n}\n";
        let mut m = parse_module("m", src).unwrap();
        assert!(!Dce.run(&mut m).unwrap());
    }
}
