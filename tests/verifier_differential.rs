//! Old-vs-new differential for `llvm_lite::verifier`.
//!
//! The verifier now makes one sweep per check; the version that rescanned
//! the function per query survives in `support/reference_verifier.rs` as
//! this test's oracle. Both verify
//!
//! * the module after every pass of lowering's cleanup, the adaptor and
//!   the C++ flow's cleanup, for the ten suite kernels and for generated
//!   kernels;
//! * seeded single-edit mutations of those modules, each aimed at one
//!   check (use before def, a non-dominating use, a missing or mid-block
//!   terminator, a phi after a non-phi, a phi edge added or dropped, an
//!   operand type, a GEP result type, call arity, loop metadata out of
//!   range or on a non-terminator, a use of a removed instruction, a
//!   duplicate label, a ret type).
//!
//! The two must agree exactly: on the rendered diagnostic, or on the panic
//! message where malformed IR trips an accessor assertion (a use of a
//! removed instruction does, in both). Every edit kind must also reach its
//! aimed check at least once, so no kind silently stops testing anything.
//!
//! The same walk holds every pass to the pass manager's no-change
//! contract, which lets it verify only after a pass that changed the IR: a
//! pass that reports no change must leave the module `==` to its input.
//! The MLIR registry's passes are held to it on the suite, by printed text.
//!
//! Tier-1 covers the suite under the Figure 1/4 directive sets and fuzz
//! seeds 0..48. The `#[ignore]`d test covers seeds 0..5000 plus the suite;
//! run it in release mode:
//! `cargo test --release -p driver --test verifier_differential -- --ignored`.

#[path = "support/figure_sets.rs"]
mod figure_sets;
#[path = "support/quiet.rs"]
mod quiet;
#[allow(dead_code)]
#[path = "support/reference_verifier.rs"]
mod reference_verifier;

use fuzzing::rng::Rng;
use fuzzing::{GenConfig, TOP_NAME};
use llvm_lite::transforms::{Dce, FoldConstants, Mem2Reg, ModulePass, SimplifyCfg};
use llvm_lite::{BlockId, Function, Inst, InstData, InstId, LoopMetadata, Module, Opcode};
use llvm_lite::{Type, Value};
use mlir_lite::MlirModule;

/// A verifier's verdict: the rendered diagnostic, or the panic message.
type Verdict = Result<Result<(), String>, String>;

fn run_quiet(f: impl FnOnce() -> pass_core::PassResult<()>) -> Verdict {
    quiet::catch_quiet(|| f().map_err(|d| d.to_string()))
}

/// Both verifiers on one module; fails on any difference.
fn compare(label: &str, m: &Module) -> Verdict {
    let new = run_quiet(|| llvm_lite::verifier::verify_module_diag(m));
    let old = run_quiet(|| reference_verifier::verify_module_diag(m));
    assert_eq!(new, old, "{label}: verdicts differ");
    new
}

/// Run one pass, snapshot the module after it, and return whether the
/// pass reported a change. A pass that reports none must leave the module
/// `==` to the snapshot before it.
fn step(
    out: &mut Vec<(String, Module)>,
    stage: String,
    m: &mut Module,
    pass: &dyn ModulePass<Module>,
    tally: &mut Tally,
) -> bool {
    let changed = pass.run(m).unwrap_or_else(|d| panic!("{stage}: {d}"));
    if changed {
        tally.changed += 1;
    } else {
        let before = &out.last().expect("a snapshot precedes every pass").1;
        assert!(
            m == before,
            "{stage} reported no change but changed the module"
        );
        tally.unchanged += 1;
    }
    out.push((stage, m.clone()));
    changed
}

/// The module after every pass of each pipeline an op runs: lowering's
/// translation and cleanup fixpoint, each adaptor pass, and the C++
/// front end and its cleanup fixpoint.
fn snapshots(mlir: &MlirModule, name: &str, tally: &mut Tally) -> Vec<(String, Module)> {
    fn cleanup(m: &mut Module, stage: &str, out: &mut Vec<(String, Module)>, tally: &mut Tally) {
        let passes: [&dyn ModulePass<Module>; 4] = [&Mem2Reg, &FoldConstants, &SimplifyCfg, &Dce];
        // Mirrors `standard_cleanup().run_to_fixpoint(m, 4)`.
        for iter in 0..4 {
            let mut changed = false;
            for p in passes {
                changed |= step(out, format!("{stage}/{iter}/{}", p.name()), m, p, tally);
            }
            if !changed {
                break;
            }
        }
    }
    let mut out = Vec::new();
    let mut m = lowering::lower_module(mlir.deep_clone()).expect("lower");
    out.push(("translate".to_string(), m.clone()));
    cleanup(&mut m, "lower-cleanup", &mut out, tally);
    let registry = adaptor::pipeline::registry();
    for pass in adaptor::pipeline::PASS_NAMES {
        let p = registry.create(pass).unwrap();
        step(
            &mut out,
            format!("adaptor/{pass}"),
            &mut m,
            p.as_ref(),
            tally,
        );
    }
    let cpp = hls_cpp::emit_cpp(mlir).expect("emit-cpp");
    let mut c = hls_cpp::compile_cpp(name, &cpp).expect("frontend");
    out.push(("frontend".to_string(), c.clone()));
    cleanup(&mut c, "cpp-cleanup", &mut out, tally);
    out
}

/// Each MLIR registry pass, run alone on `mlir`, either refuses (an
/// illegal interchange) or keeps the no-change contract: reporting no
/// change, it leaves the printed module as it was.
fn mlir_passes_keep_the_contract(label: &str, mlir: &MlirModule, tally: &mut Tally) {
    let registry = mlir_lite::passes::registry();
    let before = mlir_lite::printer::print_module(mlir);
    for pass in registry.names() {
        let mut m = mlir.deep_clone();
        match registry.create(pass).unwrap().run(&mut m) {
            Ok(true) => tally.changed += 1,
            Ok(false) => {
                assert!(
                    mlir_lite::printer::print_module(&m) == before,
                    "{label}: {pass} reported no change but changed the module"
                );
                tally.unchanged += 1;
            }
            Err(_) => {}
        }
    }
}

/// One kind of single edit, each aimed at one verifier check.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Edit {
    UseBeforeDef,
    NonDominatingUse,
    DropTerminator,
    MidBlockTerminator,
    PhiAfterNonPhi,
    PhiEdgeAdded,
    PhiEdgeDropped,
    OperandType,
    GepResultType,
    CallArity,
    LoopMdOutOfRange,
    LoopMdOnNonTerminator,
    UseOfRemoved,
    DuplicateLabel,
    RetType,
}

const EDITS: [Edit; 15] = [
    Edit::UseBeforeDef,
    Edit::NonDominatingUse,
    Edit::DropTerminator,
    Edit::MidBlockTerminator,
    Edit::PhiAfterNonPhi,
    Edit::PhiEdgeAdded,
    Edit::PhiEdgeDropped,
    Edit::OperandType,
    Edit::GepResultType,
    Edit::CallArity,
    Edit::LoopMdOutOfRange,
    Edit::LoopMdOnNonTerminator,
    Edit::UseOfRemoved,
    Edit::DuplicateLabel,
    Edit::RetType,
];

impl Edit {
    /// Text the aimed check's diagnostic (or panic) contains.
    fn aim(self) -> &'static str {
        match self {
            Edit::UseBeforeDef | Edit::NonDominatingUse => "is not dominated by its def",
            Edit::DropTerminator => "does not end in a terminator",
            Edit::MidBlockTerminator => "terminator in the middle of the block",
            Edit::PhiAfterNonPhi => "after non-phi",
            Edit::PhiEdgeAdded | Edit::PhiEdgeDropped => "phi %",
            Edit::OperandType => "mismatch",
            Edit::GepResultType => "gep result",
            Edit::CallArity => "arity mismatch",
            Edit::LoopMdOutOfRange => "out-of-range loop metadata",
            Edit::LoopMdOnNonTerminator => "loop metadata on a non-terminator",
            Edit::UseOfRemoved => "use of removed instruction",
            Edit::DuplicateLabel => "duplicate label",
            Edit::RetType => "ret type mismatch",
        }
    }
}

/// Every placed instruction as `(block, position, id)`.
fn placed(f: &Function) -> Vec<(BlockId, usize, InstId)> {
    let mut out = Vec::new();
    for &b in &f.block_order {
        for (pos, &i) in f.blocks[b as usize].insts.iter().enumerate() {
            out.push((b, pos, i));
        }
    }
    out
}

fn pick<T: Copy>(rng: &mut Rng, xs: &[T]) -> Option<T> {
    (!xs.is_empty()).then(|| *rng.pick(xs))
}

/// A constant whose type differs from `ty`.
fn other_typed_const(ty: &Type) -> Value {
    match ty {
        Type::Int(_) => Value::f32(1.0),
        Type::Float | Type::Double => Value::i32(0),
        _ => Value::i64(0),
    }
}

/// Apply one edit to a defined function of `m`; `None` when the module
/// offers no site for it.
fn mutate(m: &Module, edit: Edit, rng: &mut Rng) -> Option<Module> {
    let mut m = m.clone();
    let defs: Vec<usize> = (0..m.functions.len())
        .filter(|&i| !m.functions[i].is_declaration)
        .collect();
    let fi = pick(rng, &defs)?;
    let n_mds = m.loop_mds.len() as u32;
    let f = &mut m.functions[fi];
    let sites = placed(f);
    let is_phi = |f: &Function, i: InstId| f.inst(i).opcode == Opcode::Phi;
    match edit {
        Edit::UseBeforeDef => {
            // Move a user in front of a same-block def it reads.
            let cands: Vec<(BlockId, usize, usize)> = sites
                .iter()
                .filter(|&&(_, _, u)| !is_phi(f, u) && !f.inst(u).is_terminator())
                .flat_map(|&(b, upos, u)| {
                    let block = &f.blocks[b as usize].insts;
                    f.inst(u)
                        .operands
                        .iter()
                        .filter_map(|op| op.as_inst())
                        .filter_map(|d| block.iter().position(|&x| x == d))
                        .filter(|&dpos| dpos < upos && !is_phi(f, block[dpos]))
                        .map(move |dpos| (b, upos, dpos))
                        .collect::<Vec<_>>()
                })
                .collect();
            let (b, upos, dpos) = pick(rng, &cands)?;
            let insts = &mut f.blocks[b as usize].insts;
            let u = insts.remove(upos);
            insts.insert(dpos, u);
        }
        Edit::NonDominatingUse => {
            // Point an operand at a same-typed result from another block.
            let users: Vec<(BlockId, InstId, usize)> = sites
                .iter()
                .filter(|&&(_, _, u)| !is_phi(f, u))
                .flat_map(|&(b, _, u)| (0..f.inst(u).operands.len()).map(move |oi| (b, u, oi)))
                .collect();
            let (b, u, oi) = pick(rng, &users)?;
            let ty = f.value_type(&Module::new("types"), &f.inst(u).operands[oi]);
            let defs: Vec<InstId> = sites
                .iter()
                .filter(|&&(db, _, d)| db != b && d != u && f.inst(d).ty == ty)
                .map(|&(_, _, d)| d)
                .collect();
            let d = pick(rng, &defs)?;
            f.inst_mut(u).operands[oi] = Value::Inst(d);
        }
        Edit::DropTerminator => {
            let b = pick(rng, &f.block_order)?;
            f.blocks[b as usize].insts.pop();
        }
        Edit::MidBlockTerminator => {
            let b = pick(rng, &f.block_order)?;
            let len = f.blocks[b as usize].insts.len();
            let t = f.terminator(b)?;
            let copy = f.inst(t).clone();
            let pos = rng.below(len as u64) as usize;
            f.insert_inst(b, pos.min(len.saturating_sub(1)), copy);
        }
        Edit::PhiAfterNonPhi => {
            // Move a block's last phi behind its first non-phi, when that
            // is not the terminator.
            let cands: Vec<BlockId> = f
                .block_order
                .iter()
                .copied()
                .filter(|&b| {
                    let insts = &f.blocks[b as usize].insts;
                    let phis = insts.iter().take_while(|&&i| is_phi(f, i)).count();
                    phis > 0 && phis + 1 < insts.len()
                })
                .collect();
            let b = pick(rng, &cands)?;
            let phis = f.blocks[b as usize]
                .insts
                .iter()
                .take_while(|&&i| is_phi(f, i))
                .count();
            let insts = &mut f.blocks[b as usize].insts;
            let phi = insts.remove(phis - 1);
            insts.insert(phis, phi);
        }
        Edit::PhiEdgeAdded | Edit::PhiEdgeDropped => {
            let phis: Vec<InstId> = sites
                .iter()
                .map(|&(_, _, i)| i)
                .filter(|&i| is_phi(f, i))
                .collect();
            let phi = pick(rng, &phis)?;
            let extra = pick(rng, &f.block_order)?;
            let both = rng.chance(3, 4);
            let inst = f.inst_mut(phi);
            let InstData::Phi { incoming } = &mut inst.data else {
                unreachable!()
            };
            if edit == Edit::PhiEdgeAdded {
                let v = inst.operands.first()?.clone();
                inst.operands.push(v);
                if both {
                    incoming.push(extra);
                }
            } else {
                inst.operands.pop()?;
                if both {
                    incoming.pop();
                }
            }
        }
        Edit::OperandType => {
            let users: Vec<(InstId, usize)> = sites
                .iter()
                .flat_map(|&(_, _, u)| (0..f.inst(u).operands.len()).map(move |oi| (u, oi)))
                .collect();
            let (u, oi) = pick(rng, &users)?;
            let ty = f.value_type(&Module::new("types"), &f.inst(u).operands[oi]);
            f.inst_mut(u).operands[oi] = other_typed_const(&ty);
        }
        Edit::GepResultType => {
            let geps: Vec<InstId> = sites
                .iter()
                .map(|&(_, _, i)| i)
                .filter(|&i| f.inst(i).opcode == Opcode::Gep)
                .collect();
            let g = pick(rng, &geps)?;
            let inst = f.inst_mut(g);
            inst.ty = if inst.ty == Type::I8.ptr_to() {
                Type::I16.ptr_to()
            } else {
                Type::I8.ptr_to()
            };
        }
        Edit::CallArity => {
            // A self-call with one argument too many, before a terminator.
            let b = pick(rng, &f.block_order)?;
            let mut args: Vec<Value> = (0..f.params.len() as u32).map(Value::Arg).collect();
            args.push(Value::i32(0));
            let call = Inst::new(Opcode::Call, f.ret_ty.clone(), args).with_data(InstData::Call {
                callee: f.name.clone(),
            });
            let pos = f.blocks[b as usize].insts.len().saturating_sub(1);
            f.insert_inst(b, pos, call);
        }
        Edit::LoopMdOutOfRange => {
            let b = pick(rng, &f.block_order)?;
            let t = f.terminator(b)?;
            f.inst_mut(t).loop_md = Some(n_mds + rng.below(3) as u32);
        }
        Edit::LoopMdOnNonTerminator => {
            let cands: Vec<InstId> = sites
                .iter()
                .map(|&(_, _, i)| i)
                .filter(|&i| !f.inst(i).is_terminator())
                .collect();
            let i = pick(rng, &cands)?;
            f.inst_mut(i).loop_md = Some(0);
            if n_mds == 0 {
                m.loop_mds.push(LoopMetadata::pipelined(1));
            }
        }
        Edit::UseOfRemoved => {
            let used: Vec<InstId> = sites
                .iter()
                .flat_map(|&(_, _, u)| f.inst(u).operands.iter().filter_map(|op| op.as_inst()))
                .collect();
            let d = pick(rng, &used)?;
            f.remove_inst(d);
        }
        Edit::DuplicateLabel => {
            if f.block_order.len() < 2 {
                return None;
            }
            let a = pick(rng, &f.block_order)?;
            let b = pick(rng, &f.block_order)?;
            if a == b {
                return None;
            }
            f.blocks[b as usize].name = f.blocks[a as usize].name.clone();
        }
        Edit::RetType => {
            let rets: Vec<InstId> = sites
                .iter()
                .map(|&(_, _, i)| i)
                .filter(|&i| f.inst(i).opcode == Opcode::Ret)
                .collect();
            let r = pick(rng, &rets)?;
            let ret_ty = f.ret_ty.clone();
            let inst = f.inst_mut(r);
            match inst.operands.first_mut() {
                None => inst.operands.push(Value::i32(0)),
                Some(op) => *op = other_typed_const(&ret_ty),
            }
        }
    }
    Some(m)
}

/// How often each edit kind was applied and how often it reached its aim,
/// and how many pass runs reported a change and how many did not.
#[derive(Default)]
struct Tally {
    applied: [u32; EDITS.len()],
    aimed: [u32; EDITS.len()],
    changed: u32,
    unchanged: u32,
}

/// Compare both verifiers on a module's snapshots and on mutations of
/// them. `edits_per_snapshot` edit kinds are applied per snapshot, rotating
/// through all kinds.
fn check_case(
    label: &str,
    mlir: &MlirModule,
    name: &str,
    seed: u64,
    edits_per_snapshot: usize,
    tally: &mut Tally,
) {
    let mut rng = Rng::new(seed);
    for (si, (stage, m)) in snapshots(mlir, name, tally).iter().enumerate() {
        let label = format!("{label} after {stage}");
        assert_eq!(compare(&label, m), Ok(Ok(())), "{label}: clean module");
        for k in 0..edits_per_snapshot {
            let ei = (si * edits_per_snapshot + k) % EDITS.len();
            let edit = EDITS[ei];
            let Some(mutated) = mutate(m, edit, &mut rng) else {
                continue;
            };
            let verdict = compare(&format!("{label}, {edit:?}"), &mutated);
            tally.applied[ei] += 1;
            let text = match &verdict {
                Ok(Ok(())) => "",
                Ok(Err(d)) => d.as_str(),
                Err(panic) => panic.as_str(),
            };
            if text.contains(edit.aim()) {
                tally.aimed[ei] += 1;
            }
        }
    }
}

fn suite(tally: &mut Tally) {
    for (ki, k) in kernels::all_kernels().iter().enumerate() {
        for (di, d) in figure_sets::figure_directive_sets().iter().enumerate() {
            let mlir = driver::flow::prepare_mlir(k, d).unwrap();
            let label = format!("{} at {d:?}", k.name);
            check_case(
                &label,
                &mlir,
                k.name,
                (ki * 100 + di) as u64,
                EDITS.len(),
                tally,
            );
            mlir_passes_keep_the_contract(&label, &mlir, tally);
        }
    }
}

fn fuzz(seeds: std::ops::Range<u64>, tally: &mut Tally) {
    let mut checked = 0;
    for seed in seeds.clone() {
        let text = fuzzing::generate(seed, &GenConfig::default()).text;
        let mlir = mlir_lite::parser::parse_module(TOP_NAME, &text).unwrap();
        check_case(&format!("seed {seed}"), &mlir, TOP_NAME, seed, 3, tally);
        checked += 1;
    }
    assert_eq!(checked, seeds.end - seeds.start);
}

fn assert_every_edit_aimed(tally: &Tally) {
    assert!(
        tally.changed > 0 && tally.unchanged > 0,
        "the no-change contract saw {} changed and {} unchanged pass runs",
        tally.changed,
        tally.unchanged
    );
    for (i, edit) in EDITS.iter().enumerate() {
        assert!(tally.applied[i] > 0, "{edit:?} was never applied");
        assert!(
            tally.aimed[i] > 0,
            "{edit:?} never reached its check ({} applications)",
            tally.applied[i]
        );
    }
}

#[test]
fn suite_and_fuzz_prefix_agree_with_the_reference_verifier() {
    let mut tally = Tally::default();
    suite(&mut tally);
    fuzz(0..48, &mut tally);
    assert_every_edit_aimed(&tally);
}

#[test]
#[ignore = "5000 seeds; run in release mode"]
fn fuzz_5000_seeds_and_suite_agree_with_the_reference_verifier() {
    let mut tally = Tally::default();
    suite(&mut tally);
    fuzz(0..5000, &mut tally);
    assert_every_edit_aimed(&tally);
}
