//! The Vitis-frontend compatibility model: the concrete list of
//! "unsupported syntax between different versions" the paper's abstract
//! refers to.
//!
//! [`compat_issues`] scans a module and reports every construct the (old,
//! frozen) HLS frontend would reject. It is used three ways: as the final
//! gate of the adaptor pipeline ([`VerifyCompat`]), as the Table-4 metric
//! (issues remaining after each pass), and by the Vitis simulator, which
//! refuses to schedule modules that still carry issues — mimicking the real
//! tool erroring out during IR import.

use llvm_lite::analysis::{Cfg, DomTree};
use llvm_lite::transforms::ModulePass;
use llvm_lite::{InstData, Module, Opcode, Type};
use pass_core::{Diagnostic, Loc, PassResult};

/// What kind of rejection the frontend would produce.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum IssueKind {
    /// Dynamic memory allocation (`malloc`/`free`/`new`).
    HeapAllocation,
    /// An intrinsic outside the supported whitelist.
    UnsupportedIntrinsic,
    /// A call to an undefined non-intrinsic function.
    UnresolvedCall,
    /// Interface pointer without recoverable array shape.
    UnshapedInterface,
    /// Flat pointer arithmetic on a multi-dimensional interface.
    FlattenedAccess,
    /// Symbol/label not expressible in RTL.
    IllegalName,
    /// Attribute the old frontend does not understand.
    UnknownAttribute,
    /// `!llvm.loop` metadata not attached to a loop latch.
    MisplacedLoopMetadata,
    /// `alloca` outside the entry block (dynamic stack growth).
    NonEntryAlloca,
    /// Integer type wider than 64 bits.
    OverwideInteger,
    /// Recursive call cycle.
    Recursion,
    /// Pointer round-trips through integers.
    PointerIntCast,
}

impl IssueKind {
    /// Human-readable description used in reports.
    pub fn describe(self) -> &'static str {
        match self {
            IssueKind::HeapAllocation => "dynamic allocation is not synthesizable",
            IssueKind::UnsupportedIntrinsic => "intrinsic unknown to the HLS frontend",
            IssueKind::UnresolvedCall => "call to an undefined function",
            IssueKind::UnshapedInterface => "interface pointer without array shape",
            IssueKind::FlattenedAccess => "flattened multi-dim access defeats array binding",
            IssueKind::IllegalName => "name not expressible in generated RTL",
            IssueKind::UnknownAttribute => "attribute unknown to the frozen frontend",
            IssueKind::MisplacedLoopMetadata => "loop metadata not on a loop latch",
            IssueKind::NonEntryAlloca => "alloca outside the entry block",
            IssueKind::OverwideInteger => "integer wider than 64 bits",
            IssueKind::Recursion => "recursion is not synthesizable",
            IssueKind::PointerIntCast => "pointer/integer casts defeat memory binding",
        }
    }
}

/// One rejection the frontend would produce.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CompatIssue {
    /// Category.
    pub kind: IssueKind,
    /// Function it occurs in (empty for module-level issues).
    pub function: String,
    /// Free-form location/detail.
    pub detail: String,
}

/// An issue renders as a located [`Diagnostic`], e.g.
/// `error[verify-compat] @f:call @malloc: dynamic allocation is not
/// synthesizable`.
impl From<&CompatIssue> for Diagnostic {
    fn from(issue: &CompatIssue) -> Diagnostic {
        Diagnostic::error("verify-compat", issue.kind.describe())
            .with_loc(Loc::function(&issue.function).at_inst(&issue.detail))
    }
}

/// Intrinsics the frozen frontend understands.
fn intrinsic_whitelisted(name: &str) -> bool {
    const WHITELIST: &[&str] = &[
        "llvm.sqrt.f32",
        "llvm.sqrt.f64",
        "llvm.fabs.f32",
        "llvm.fabs.f64",
        "llvm.exp.f32",
        "llvm.exp.f64",
        "llvm.maxnum.f32",
        "llvm.maxnum.f64",
        "llvm.minnum.f32",
        "llvm.minnum.f64",
    ];
    WHITELIST.contains(&name)
}

/// Attributes the frontend accepts (everything else must be scrubbed).
fn attr_whitelisted(key: &str) -> bool {
    key == "hls.top" || key == "hls.array_partition" || key.starts_with("hls.interface")
}

fn name_is_legal(name: &str) -> bool {
    let mut chars = name.chars();
    let Some(first) = chars.next() else {
        return false; // empty symbol: nothing to name the RTL object with
    };
    (first.is_ascii_alphabetic() || first == '_')
        && chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
}

/// Rank of a parameter's recorded `mha.shape` (`4x4xf32` has rank 2), or
/// 0 without one.
fn shape_rank(p: &llvm_lite::module::Param) -> usize {
    p.attrs
        .get("mha.shape")
        .map_or(0, |shape| shape.matches('x').count())
}

/// Scan a module and produce every compatibility issue.
pub fn compat_issues(m: &Module) -> Vec<CompatIssue> {
    let mut issues = Vec::new();
    let mut push = |kind: IssueKind, function: &str, detail: String| {
        issues.push(CompatIssue {
            kind,
            function: function.to_string(),
            detail,
        });
    };

    for f in &m.functions {
        if f.is_declaration {
            continue;
        }
        if !name_is_legal(&f.name) {
            push(
                IssueKind::IllegalName,
                &f.name,
                format!("function @{}", f.name),
            );
        }
        for k in f.attrs.keys() {
            if !attr_whitelisted(k) {
                push(
                    IssueKind::UnknownAttribute,
                    &f.name,
                    format!("function attribute '{k}'"),
                );
            }
        }
        for p in &f.params {
            if !name_is_legal(&p.name) {
                push(
                    IssueKind::IllegalName,
                    &f.name,
                    format!("parameter %{}", p.name),
                );
            }
            for k in p.attrs.keys() {
                if !attr_whitelisted(k) {
                    push(
                        IssueKind::UnknownAttribute,
                        &f.name,
                        format!("parameter attribute '{k}' on %{}", p.name),
                    );
                }
            }
            // Interface pointers must present an array shape (either the
            // pointee is an array type, or the scalar pointer carries an
            // explicit interface binding).
            if let Type::Ptr(pointee) = &p.ty {
                let has_shape = matches!(**pointee, Type::Array(..));
                let has_iface = p.attrs.contains_key("hls.interface");
                if !has_shape && !has_iface {
                    push(
                        IssueKind::UnshapedInterface,
                        &f.name,
                        format!("pointer parameter %{}", p.name),
                    );
                }
            }
        }
        for &b in &f.block_order {
            if !name_is_legal(&f.block(b).name) && !f.block(b).name.contains('.') {
                push(
                    IssueKind::IllegalName,
                    &f.name,
                    format!("label {}", f.block(b).name),
                );
            }
            // Vitis tolerates dots in labels (it renames them), so only
            // reject genuinely hostile labels.
            if f.block(b)
                .name
                .chars()
                .any(|c| !(c.is_ascii_alphanumeric() || c == '_' || c == '.'))
            {
                push(
                    IssueKind::IllegalName,
                    &f.name,
                    format!("label {}", f.block(b).name),
                );
            }
        }
        let has_rank2_param = f.params.iter().any(|p| shape_rank(p) >= 2);
        // The latch test needs dominators, and only loop metadata asks it.
        let has_loop_md = f.block_order.iter().any(|&b| {
            f.block(b)
                .insts
                .iter()
                .any(|&i| f.inst(i).loop_md.is_some())
        });
        let dom = has_loop_md.then(|| {
            let cfg = Cfg::build(f);
            let dom = DomTree::build(f, &cfg);
            (cfg, dom)
        });
        for (b, id) in f
            .block_order
            .iter()
            .flat_map(|&b| f.block(b).insts.iter().map(move |&i| (b, i)))
        {
            let inst = f.inst(id);
            match inst.opcode {
                Opcode::Call => {
                    let InstData::Call { callee } = &inst.data else {
                        continue;
                    };
                    if callee == "malloc" || callee == "free" {
                        push(
                            IssueKind::HeapAllocation,
                            &f.name,
                            format!("call @{callee}"),
                        );
                    } else if callee.starts_with("llvm.") {
                        if !intrinsic_whitelisted(callee) {
                            push(
                                IssueKind::UnsupportedIntrinsic,
                                &f.name,
                                format!("call @{callee}"),
                            );
                        }
                    } else {
                        match m.function(callee) {
                            None => push(
                                IssueKind::UnresolvedCall,
                                &f.name,
                                format!("call @{callee}"),
                            ),
                            Some(target) if target.is_declaration => push(
                                IssueKind::UnresolvedCall,
                                &f.name,
                                format!("call @{callee} (declaration only)"),
                            ),
                            Some(_) => {}
                        }
                    }
                }
                Opcode::Alloca if b != f.entry() => {
                    push(
                        IssueKind::NonEntryAlloca,
                        &f.name,
                        format!("alloca %{id} in block {}", f.block(b).name),
                    );
                }
                Opcode::PtrToInt | Opcode::IntToPtr => {
                    push(
                        IssueKind::PointerIntCast,
                        &f.name,
                        format!("{} %{id}", inst.opcode.mnemonic()),
                    );
                }
                _ => {}
            }
            if let Type::Int(w) = inst.ty {
                if w > 64 {
                    push(IssueKind::OverwideInteger, &f.name, format!("i{w} %{id}"));
                }
            }
            if inst.loop_md.is_some() {
                // Must be the latch of a natural loop: the terminator of a
                // reachable block with a successor that dominates it (the
                // source of a back edge).
                let (cfg, dom) = dom.as_ref().expect("built when loop metadata is present");
                let is_latch = f.terminator(b) == Some(id)
                    && dom.rpo_index(b) != usize::MAX
                    && cfg.succs[b as usize].iter().any(|&s| dom.dominates(s, b));
                if !is_latch {
                    push(
                        IssueKind::MisplacedLoopMetadata,
                        &f.name,
                        format!("!llvm.loop on %{id}"),
                    );
                }
            }
            // Flattened multi-dim accesses: a single-index GEP whose base is
            // a parameter annotated with a rank>=2 shape means array
            // recovery has not run (or failed). Only then is the base worth
            // resolving.
            if inst.opcode == Opcode::Gep && inst.operands.len() == 2 && has_rank2_param {
                // Resolve through bitcasts/phis/selects with the shared
                // points-to analysis, not just a direct-argument match.
                if let analysis::MemObject::Param(arg) =
                    analysis::resolve_base(f, &inst.operands[0])
                {
                    let p = &f.params[arg as usize];
                    if shape_rank(p) >= 2 {
                        push(
                            IssueKind::FlattenedAccess,
                            &f.name,
                            format!("gep %{id} on %{}", p.name),
                        );
                    }
                }
            }
        }
    }
    // Recursion: direct or mutual cycles over defined functions.
    issues.extend(find_recursion(m));
    issues
}

fn find_recursion(m: &Module) -> Vec<CompatIssue> {
    // Tarjan SCCs over the shared call graph: one issue per cycle, with the
    // closing callee named (for self-recursion that is the function itself).
    analysis::callgraph::CallGraph::build(m)
        .recursive_cycles()
        .into_iter()
        .map(|cycle| CompatIssue {
            kind: IssueKind::Recursion,
            function: cycle[0].clone(),
            detail: format!("cycle through @{}", cycle.last().expect("nonempty cycle")),
        })
        .collect()
}

/// The compat gate as a pass: errors if any issue remains.
pub struct VerifyCompat;

impl ModulePass<Module> for VerifyCompat {
    fn name(&self) -> &'static str {
        "verify-compat"
    }

    fn run(&self, m: &mut Module) -> PassResult<bool> {
        let issues = compat_issues(m);
        if issues.is_empty() {
            Ok(false)
        } else {
            let mut msg = format!("{} HLS compatibility issue(s):", issues.len());
            for i in issues.iter().take(8) {
                msg.push_str(&format!("\n  {}", Diagnostic::from(i)));
            }
            // The summary diagnostic points at the first offender; the full
            // list is in the message body.
            Err(Diagnostic::error("verify-compat", msg)
                .with_loc(Loc::function(&issues[0].function).at_inst(&issues[0].detail)))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use llvm_lite::parser::parse_module;

    fn issues_of(src: &str) -> Vec<IssueKind> {
        let m = parse_module("m", src).unwrap();
        let mut kinds: Vec<IssueKind> = compat_issues(&m).into_iter().map(|i| i.kind).collect();
        kinds.sort();
        kinds.dedup();
        kinds
    }

    #[test]
    fn clean_module_has_no_issues() {
        let src = r#"
define void @top([8 x float]* %a) "hls.top"="1" {
entry:
  %p = getelementptr inbounds [8 x float], [8 x float]* %a, i64 0, i64 0
  %v = load float, float* %p, align 4
  store float %v, float* %p, align 4
  ret void
}
"#;
        assert!(issues_of(src).is_empty());
    }

    #[test]
    fn detects_heap_allocation() {
        let src = r#"
declare i8* @malloc(i64 %n)

define void @f() {
entry:
  %p = call i8* @malloc(i64 64)
  ret void
}
"#;
        assert!(issues_of(src).contains(&IssueKind::HeapAllocation));
    }

    #[test]
    fn detects_unsupported_intrinsic_but_allows_sqrt() {
        let src = r#"
declare void @llvm.memcpy.p0i8.p0i8.i64(i8* %d, i8* %s, i64 %n, i1 %v)
declare float @llvm.sqrt.f32(float %x)

define float @f(i8* "hls.interface"="m_axi" %d, i8* "hls.interface"="m_axi" %s) {
entry:
  call void @llvm.memcpy.p0i8.p0i8.i64(i8* %d, i8* %s, i64 8, i1 false)
  %r = call float @llvm.sqrt.f32(float 0x0000000000000000)
  ret float %r
}
"#;
        let kinds = issues_of(src);
        assert!(kinds.contains(&IssueKind::UnsupportedIntrinsic));
        // sqrt alone must not trigger: filter by counting occurrences.
        let m = parse_module("m", src).unwrap();
        let memcpy_issues: Vec<_> = compat_issues(&m)
            .into_iter()
            .filter(|i| i.kind == IssueKind::UnsupportedIntrinsic)
            .collect();
        assert_eq!(memcpy_issues.len(), 1);
        assert!(memcpy_issues[0].detail.contains("memcpy"));
    }

    #[test]
    fn detects_unshaped_interface_pointer() {
        let src = r#"
define void @f(float* %a) {
entry:
  ret void
}
"#;
        assert!(issues_of(src).contains(&IssueKind::UnshapedInterface));
    }

    #[test]
    fn detects_flattened_multidim_access() {
        let src = r#"
define void @f(float* "mha.shape"="4x4xf32" %a, i64 %i) {
entry:
  %p = getelementptr inbounds float, float* %a, i64 %i
  %v = load float, float* %p, align 4
  ret void
}
"#;
        let kinds = issues_of(src);
        assert!(kinds.contains(&IssueKind::FlattenedAccess));
        // mha.shape itself is a foreign attribute too.
        assert!(kinds.contains(&IssueKind::UnknownAttribute));
    }

    #[test]
    fn detects_non_entry_alloca() {
        let src = r#"
define void @f(i1 %c) {
entry:
  br i1 %c, label %a, label %b

a:
  %x = alloca i32, align 4
  br label %b

b:
  ret void
}
"#;
        assert!(issues_of(src).contains(&IssueKind::NonEntryAlloca));
    }

    #[test]
    fn detects_recursion() {
        let src = r#"
define void @f() {
entry:
  call void @f()
  ret void
}
"#;
        assert!(issues_of(src).contains(&IssueKind::Recursion));
    }

    #[test]
    fn detects_mutual_recursion_naming_the_cycle() {
        let src = r#"
define void @a() {
entry:
  call void @b()
  ret void
}

define void @b() {
entry:
  call void @a()
  ret void
}
"#;
        let m = parse_module("m", src).unwrap();
        let issues: Vec<_> = compat_issues(&m)
            .into_iter()
            .filter(|i| i.kind == IssueKind::Recursion)
            .collect();
        assert_eq!(issues.len(), 1);
        assert_eq!(issues[0].function, "a");
        assert_eq!(issues[0].detail, "cycle through @b");
    }

    #[test]
    fn empty_symbol_names_are_reported_not_panicked() {
        let src = r#"
define void @f(float* "hls.interface"="m_axi" %a) {
entry:
  ret void
}
"#;
        let mut m = parse_module("m", src).unwrap();
        // Symbols can arrive empty from a degenerate producer; the gate must
        // report them as illegal, not crash.
        m.functions[0].params[0].name = String::new();
        let issues = compat_issues(&m);
        assert!(issues
            .iter()
            .any(|i| i.kind == IssueKind::IllegalName && i.detail == "parameter %"));
    }

    #[test]
    fn flattened_access_is_found_through_a_bitcast() {
        let src = r#"
define void @f(float* "mha.shape"="4x4xf32" %a, i64 %i) {
entry:
  %b = bitcast float* %a to float*
  %p = getelementptr inbounds float, float* %b, i64 %i
  %v = load float, float* %p, align 4
  ret void
}
"#;
        assert!(issues_of(src).contains(&IssueKind::FlattenedAccess));
    }

    #[test]
    fn detects_misplaced_loop_metadata() {
        let src = r#"
define void @f(i1 %c) {
entry:
  br i1 %c, label %a, label %b

a:
  br label %b, !llvm.loop !0

b:
  ret void
}

!0 = distinct !{!0, !1}
!1 = !{!"llvm.loop.pipeline.enable", i32 1}
"#;
        assert!(issues_of(src).contains(&IssueKind::MisplacedLoopMetadata));
    }

    #[test]
    fn correctly_placed_metadata_is_accepted() {
        let src = r#"
define void @f(i32 %n) {
entry:
  br label %header

header:
  %i = phi i32 [ 0, %entry ], [ %next, %header ]
  %next = add i32 %i, 1
  %c = icmp slt i32 %next, %n
  br i1 %c, label %header, label %exit, !llvm.loop !0

exit:
  ret void
}

!0 = distinct !{!0, !1}
!1 = !{!"llvm.loop.pipeline.enable", i32 1}
"#;
        assert!(!issues_of(src).contains(&IssueKind::MisplacedLoopMetadata));
    }

    #[test]
    fn detects_pointer_int_casts_and_wide_ints() {
        let src = r#"
define void @f(float* "hls.interface"="ap_memory" %a) {
entry:
  %x = ptrtoint float* %a to i64
  %w = add i128 0, 1
  ret void
}
"#;
        let kinds = issues_of(src);
        assert!(kinds.contains(&IssueKind::PointerIntCast));
        assert!(kinds.contains(&IssueKind::OverwideInteger));
    }

    #[test]
    fn verify_compat_pass_gates() {
        let src = r#"
declare i8* @malloc(i64 %n)

define void @f() {
entry:
  %p = call i8* @malloc(i64 64)
  ret void
}
"#;
        let mut m = parse_module("m", src).unwrap();
        let e = VerifyCompat.run(&mut m).unwrap_err();
        assert!(e.to_string().contains("HLS compatibility"));
        // The gate's summary diagnostic carries the first offender's
        // function + instruction context.
        assert_eq!(e.loc.function.as_deref(), Some("f"));
        assert_eq!(e.loc.inst.as_deref(), Some("call @malloc"));
    }

    #[test]
    fn issue_diagnostics_render_with_location() {
        let issue = CompatIssue {
            kind: IssueKind::HeapAllocation,
            function: "f".into(),
            detail: "call @malloc".into(),
        };
        assert_eq!(
            Diagnostic::from(&issue).to_string(),
            "error[verify-compat] @f:call @malloc: dynamic allocation is not synthesizable"
        );
    }
}
