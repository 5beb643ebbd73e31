//! Memory-access analysis: base objects, affine-in-IV subscripts, and
//! loop-carried dependence distances.
//!
//! The precision asymmetry here is the heart of the paper's QoR story: a
//! structured GEP (`gep [32 x [32 x float]], %A, 0, %i, %k`) exposes exactly
//! which subscript depends on the loop induction variable, so the scheduler
//! can prove independence across iterations. Raw pointer arithmetic forces
//! the conservative assumption (a distance-1 carried dependence), which
//! inflates RecMII.

use llvm_lite::analysis::NaturalLoop;
use llvm_lite::{Function, InstData, InstId, Opcode, Value};

/// The root object an access resolves to (shared with the `analysis`
/// crate's points-to machinery; re-exported under the historical name).
pub use analysis::alias::MemObject as BaseObject;

/// Resolve the base object of a pointer value.
///
/// Delegates to the shared Andersen-lite points-to analysis: GEPs and
/// bitcasts are walked as before, but a Phi or Select whose incoming
/// pointers all share one underlying object now resolves to that object
/// instead of collapsing to `Unknown` — so e.g. a select between two GEPs
/// into the same array stays analyzable for dependence distances.
pub fn base_object(f: &Function, v: &Value) -> BaseObject {
    analysis::alias::resolve_base(f, v)
}

/// How a subscript relates to the loop induction variable.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum IvRelation {
    /// `c` — does not involve the IV.
    Invariant,
    /// `IV + c` (affine with unit coefficient).
    IvPlus(i64),
    /// `a*IV + c` (affine with non-unit coefficient `a`, from `mul`/`shl`
    /// by a constant). Stride-2 kernels live here; collapsing them to
    /// [`IvRelation::Complex`] used to force a spurious distance-1
    /// carried dependence.
    IvScaled(i64, i64),
    /// Involves the IV in some other (or unprovable) way.
    Complex,
}

impl IvRelation {
    /// View as `a*IV + c` when affine in the IV.
    pub fn affine(&self) -> Option<(i64, i64)> {
        match self {
            IvRelation::IvPlus(c) => Some((1, *c)),
            IvRelation::IvScaled(a, c) => Some((*a, *c)),
            _ => None,
        }
    }

    /// `self * k`, staying in the affine lattice.
    fn scaled(self, k: i64) -> IvRelation {
        if k == 0 {
            return IvRelation::Invariant;
        }
        match self.affine() {
            Some((a, c)) => match (a.checked_mul(k), c.checked_mul(k)) {
                (Some(1), Some(ck)) => IvRelation::IvPlus(ck),
                (Some(ak), Some(ck)) => IvRelation::IvScaled(ak, ck),
                _ => IvRelation::Complex,
            },
            None => self,
        }
    }

    /// `self + k`, staying in the affine lattice.
    fn plus(self, k: i64) -> IvRelation {
        match self {
            IvRelation::IvPlus(c) => IvRelation::IvPlus(c + k),
            IvRelation::IvScaled(a, c) => IvRelation::IvScaled(a, c + k),
            other => other,
        }
    }
}

/// Does `v` transitively depend on the instruction `iv`?
pub fn value_depends_on(f: &Function, v: &Value, iv: InstId, depth: u32) -> bool {
    if depth > 16 {
        return true; // assume the worst on deep chains
    }
    match v {
        Value::Inst(id) => {
            if *id == iv {
                return true;
            }
            if f.inst(*id).opcode == Opcode::Phi && depth > 0 {
                return false; // don't walk through other loop-carried values
            }
            f.inst(*id)
                .operands
                .iter()
                .any(|o| value_depends_on(f, o, iv, depth + 1))
        }
        _ => false,
    }
}

/// Classify `v` relative to the induction phi `iv` of a loop.
pub fn iv_relation(f: &Function, v: &Value, iv: InstId) -> IvRelation {
    fn relation(f: &Function, v: &Value, iv: InstId, depth: u32) -> IvRelation {
        if depth > 16 {
            return IvRelation::Complex;
        }
        match v {
            Value::Inst(id) if *id == iv => IvRelation::IvPlus(0),
            Value::Inst(id) => {
                let inst = f.inst(*id);
                match inst.opcode {
                    // Width casts preserve the affine form.
                    Opcode::SExt | Opcode::ZExt | Opcode::Trunc => {
                        relation(f, &inst.operands[0], iv, depth + 1)
                    }
                    Opcode::Add => {
                        let (a, b) = (&inst.operands[0], &inst.operands[1]);
                        match (relation(f, a, iv, depth + 1), b.int_value()) {
                            (r @ (IvRelation::IvPlus(_) | IvRelation::IvScaled(..)), Some(k)) => {
                                return r.plus(k as i64)
                            }
                            (IvRelation::Invariant, Some(_)) => return IvRelation::Invariant,
                            _ => {}
                        }
                        match (a.int_value(), relation(f, b, iv, depth + 1)) {
                            (Some(k), r @ (IvRelation::IvPlus(_) | IvRelation::IvScaled(..))) => {
                                r.plus(k as i64)
                            }
                            (Some(_), IvRelation::Invariant) => IvRelation::Invariant,
                            _ => {
                                if value_depends_on(f, v, iv, 0) {
                                    IvRelation::Complex
                                } else {
                                    IvRelation::Invariant
                                }
                            }
                        }
                    }
                    // Constant scaling keeps the subscript affine: `mul`
                    // and `shl` by constants are how `2*i`-style strided
                    // subscripts appear.
                    Opcode::Mul => {
                        let (a, b) = (&inst.operands[0], &inst.operands[1]);
                        let scaled = match (relation(f, a, iv, depth + 1), b.int_value()) {
                            (r, Some(k)) => Some(r.scaled(k as i64)),
                            _ => match (a.int_value(), relation(f, b, iv, depth + 1)) {
                                (Some(k), r) => Some(r.scaled(k as i64)),
                                _ => None,
                            },
                        };
                        scaled.unwrap_or_else(|| {
                            if value_depends_on(f, v, iv, 0) {
                                IvRelation::Complex
                            } else {
                                IvRelation::Invariant
                            }
                        })
                    }
                    Opcode::Shl => {
                        match (
                            relation(f, &inst.operands[0], iv, depth + 1),
                            inst.operands[1].int_value(),
                        ) {
                            (r, Some(k)) if (0..63).contains(&k) => r.scaled(1i64 << k),
                            _ => {
                                if value_depends_on(f, v, iv, 0) {
                                    IvRelation::Complex
                                } else {
                                    IvRelation::Invariant
                                }
                            }
                        }
                    }
                    _ => {
                        if value_depends_on(f, v, iv, 0) {
                            IvRelation::Complex
                        } else {
                            IvRelation::Invariant
                        }
                    }
                }
            }
            _ => IvRelation::Invariant,
        }
    }
    relation(f, v, iv, 0)
}

/// One memory access inside a loop body.
#[derive(Clone, Debug)]
pub struct Access {
    /// The load/store instruction.
    pub inst: InstId,
    /// True for stores.
    pub is_store: bool,
    /// Resolved base.
    pub base: BaseObject,
    /// The pointer operand itself (for the identical-address fast path).
    pub ptr: Value,
    /// Whether the address depends on the loop IV at all (None = no IV
    /// was recognizable for the loop).
    pub iv_dependent: Option<bool>,
    /// Subscript relations to the loop IV (one per GEP index, skipping the
    /// leading 0 of structured GEPs). Empty = unanalyzable address.
    pub subscripts: Vec<IvRelation>,
    /// IV step of the analyzed loop, when recognizable. Distances are in
    /// iterations, so subscript deltas must be divided by `coeff * step`.
    pub step: Option<i64>,
}

/// Collect all loads/stores in a loop body with their subscript analysis.
pub fn loop_accesses(f: &Function, l: &NaturalLoop) -> Vec<Access> {
    let iv = llvm_lite::analysis::loop_induction_phi(f, l);
    let step = iv.and_then(|iv| loop_iv_step(f, l, iv));
    let mut out = Vec::new();
    for &b in &l.body {
        for &id in &f.block(b).insts {
            let inst = f.inst(id);
            let (is_store, ptr) = match inst.opcode {
                Opcode::Load => (false, &inst.operands[0]),
                Opcode::Store => (true, &inst.operands[1]),
                _ => continue,
            };
            let base = base_object(f, ptr);
            let subscripts = match (ptr, iv) {
                (Value::Inst(gid), Some(iv)) if f.inst(*gid).opcode == Opcode::Gep => {
                    let gep = f.inst(*gid);
                    let structured = matches!(
                        &gep.data,
                        InstData::Gep { base_ty, .. } if matches!(base_ty, llvm_lite::Type::Array(..))
                    );
                    let idx_ops: &[Value] = if structured {
                        &gep.operands[2..] // skip the leading 0
                    } else {
                        &gep.operands[1..]
                    };
                    let rels: Vec<IvRelation> =
                        idx_ops.iter().map(|v| iv_relation(f, v, iv)).collect();
                    // A flat (unstructured) gep over a multi-element space
                    // whose single index mixes several loop variables is
                    // only analyzable if the relation is clean.
                    if structured || rels.iter().all(|r| *r != IvRelation::Complex) {
                        rels
                    } else {
                        Vec::new()
                    }
                }
                _ => Vec::new(),
            };
            let iv_dependent = iv.map(|iv| value_depends_on(f, ptr, iv, 0));
            out.push(Access {
                inst: id,
                is_store,
                base,
                ptr: ptr.clone(),
                iv_dependent,
                subscripts,
                step,
            });
        }
    }
    out
}

/// Constant increment of the loop's IV, read off its latch `add`.
fn loop_iv_step(f: &Function, l: &NaturalLoop, iv: InstId) -> Option<i64> {
    let phi = f.inst(iv);
    let InstData::Phi { incoming } = &phi.data else {
        return None;
    };
    for (v, b) in phi.operands.iter().zip(incoming) {
        if !l.body.contains(b) {
            continue;
        }
        let Value::Inst(add_id) = v else { continue };
        let add = f.inst(*add_id);
        if add.opcode != Opcode::Add {
            continue;
        }
        let (x, y) = (&add.operands[0], &add.operands[1]);
        let step = if *x == Value::Inst(iv) {
            y.int_value()
        } else if *y == Value::Inst(iv) {
            x.int_value()
        } else {
            None
        };
        if let Some(s) = step {
            return i64::try_from(s).ok().filter(|s| *s > 0);
        }
    }
    None
}

/// Loop-carried dependence distance between a store and a load/store on the
/// same base, in iterations of the analyzed loop.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Distance {
    /// Provably never conflicts across iterations.
    None,
    /// Conflicts exactly `d` iterations apart (d >= 1).
    Exact(u32),
    /// Cannot tell — assume the tightest (distance 1).
    Unknown,
}

/// Compute the carried-dependence distance between two accesses to the same
/// base object.
pub fn dependence_distance(a: &Access, b: &Access) -> Distance {
    if a.base != b.base || a.base == BaseObject::Unknown {
        return if a.base == BaseObject::Unknown && b.base == BaseObject::Unknown {
            Distance::Unknown
        } else {
            Distance::None
        };
    }
    // Identical pointer SSA value: the two accesses always hit the same
    // address within an iteration. If that address moves with the IV the
    // conflict is intra-iteration only; if it is IV-invariant, consecutive
    // iterations collide (distance 1). This is how even flat pointer
    // arithmetic keeps elementwise updates and accumulations analyzable.
    if a.ptr == b.ptr {
        return match a.iv_dependent {
            Some(true) => Distance::None,
            Some(false) => Distance::Exact(1),
            None => Distance::Unknown,
        };
    }
    if a.subscripts.is_empty() || b.subscripts.is_empty() {
        return Distance::Unknown;
    }
    if a.subscripts.len() != b.subscripts.len() {
        return Distance::Unknown;
    }
    // Any complex subscript: give up.
    if a.subscripts.contains(&IvRelation::Complex) || b.subscripts.contains(&IvRelation::Complex) {
        return Distance::Unknown;
    }
    // If every subscript pair is IV-invariant on both sides, the same
    // address is touched every iteration: distance 1.
    let any_iv = a
        .subscripts
        .iter()
        .chain(&b.subscripts)
        .any(|r| r.affine().is_some());
    if !any_iv {
        return Distance::Exact(1);
    }
    // Compare dimension-wise in iteration space: a dim `coeff*IV + c_a`
    // vs `coeff*IV + c_b` conflicts `(c_a - c_b) / (coeff * step)`
    // iterations apart — when that quotient is not an integer the
    // addresses interleave and never collide (the stride-2 case). A dim
    // with mismatched coefficients, or one IV-dependent and one invariant
    // side, is unresolvable without values: Unknown.
    let step = a.step.or(b.step).unwrap_or(1).max(1);
    let mut distance: Option<u32> = None;
    for (ra, rb) in a.subscripts.iter().zip(&b.subscripts) {
        match (ra.affine(), rb.affine()) {
            (Some((ca_coeff, ca)), Some((cb_coeff, cb))) => {
                if ca_coeff != cb_coeff {
                    return Distance::Unknown;
                }
                let num = (ca - cb).unsigned_abs();
                let den = ca_coeff.unsigned_abs() * step.unsigned_abs();
                if den == 0 {
                    return Distance::Unknown;
                }
                if num % den != 0 {
                    // No integer iteration offset lines the dim up.
                    return Distance::None;
                }
                let d = (num / den) as u32;
                distance = Some(match distance {
                    None => d,
                    Some(prev) if prev == d => d,
                    // Conflicting requirements across dims: no single
                    // iteration offset lines both up -> independent.
                    Some(_) => return Distance::None,
                });
            }
            (None, None) if *ra == IvRelation::Invariant && *rb == IvRelation::Invariant => {}
            _ => return Distance::Unknown,
        }
    }
    match distance {
        Some(0) => Distance::None, // same iteration only; no carried dep
        Some(d) => Distance::Exact(d),
        None => Distance::Exact(1),
    }
}

/// Count accesses per base object (used for memory-port ResMII), in the
/// order each base is first accessed, so a tie between bases always
/// resolves the same way.
pub fn accesses_per_base(accesses: &[Access]) -> Vec<(BaseObject, u32)> {
    let mut counts: Vec<(BaseObject, u32)> = Vec::new();
    for a in accesses {
        match counts.iter_mut().find(|(base, _)| *base == a.base) {
            Some((_, n)) => *n += 1,
            None => counts.push((a.base.clone(), 1)),
        }
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;
    use llvm_lite::analysis::{Cfg, DomTree, LoopInfo};
    use llvm_lite::parser::parse_module;

    fn loop_of(src: &str) -> (llvm_lite::Module, usize) {
        let m = parse_module("m", src).unwrap();
        (m, 0)
    }

    fn analyze(src: &str) -> Vec<Access> {
        let (m, fi) = loop_of(src);
        let f = &m.functions[fi];
        let cfg = Cfg::build(f);
        let dom = DomTree::build(f, &cfg);
        let li = LoopInfo::build(f, &cfg, &dom);
        let l = li.innermost_loops()[0];
        loop_accesses(f, l)
    }

    /// A[i] = A[i] * 2 — structured 1-D accesses.
    const ELEMENTWISE: &str = r#"
define void @f([32 x float]* %a) {
entry:
  br label %header

header:
  %i = phi i64 [ 0, %entry ], [ %next, %body ]
  %c = icmp slt i64 %i, 32
  br i1 %c, label %body, label %exit

body:
  %p = getelementptr inbounds [32 x float], [32 x float]* %a, i64 0, i64 %i
  %v = load float, float* %p, align 4
  %w = fmul float %v, %v
  store float %w, float* %p, align 4
  %next = add i64 %i, 1
  br label %header

exit:
  ret void
}
"#;

    #[test]
    fn elementwise_has_no_carried_dep() {
        let acc = analyze(ELEMENTWISE);
        assert_eq!(acc.len(), 2);
        let (ld, st) = (&acc[0], &acc[1]);
        assert_eq!(ld.base, BaseObject::Param(0));
        assert_eq!(ld.subscripts, vec![IvRelation::IvPlus(0)]);
        assert_eq!(dependence_distance(st, ld), Distance::None);
    }

    /// acc[0] += A[i]: the accumulator address is IV-invariant.
    const REDUCTION: &str = r#"
define void @f([32 x float]* %a, [1 x float]* %acc) {
entry:
  br label %header

header:
  %i = phi i64 [ 0, %entry ], [ %next, %body ]
  %c = icmp slt i64 %i, 32
  br i1 %c, label %body, label %exit

body:
  %p = getelementptr inbounds [32 x float], [32 x float]* %a, i64 0, i64 %i
  %v = load float, float* %p, align 4
  %q = getelementptr inbounds [1 x float], [1 x float]* %acc, i64 0, i64 0
  %s = load float, float* %q, align 4
  %t = fadd float %s, %v
  store float %t, float* %q, align 4
  %next = add i64 %i, 1
  br label %header

exit:
  ret void
}
"#;

    #[test]
    fn reduction_has_distance_one() {
        let acc = analyze(REDUCTION);
        let st = acc.iter().find(|a| a.is_store).unwrap();
        let acc_ld = acc
            .iter()
            .find(|a| !a.is_store && a.base == st.base)
            .unwrap();
        assert_eq!(dependence_distance(st, acc_ld), Distance::Exact(1));
    }

    /// Stencil: out[i] = in[i-1] + in[i+1] — different arrays, no dep;
    /// store out[i], load out-of... write/read offsets on the same array.
    const SHIFT: &str = r#"
define void @f([32 x float]* %a) {
entry:
  br label %header

header:
  %i = phi i64 [ 1, %entry ], [ %next, %body ]
  %c = icmp slt i64 %i, 31
  br i1 %c, label %body, label %exit

body:
  %im1 = add i64 %i, -1
  %p0 = getelementptr inbounds [32 x float], [32 x float]* %a, i64 0, i64 %im1
  %v = load float, float* %p0, align 4
  %p1 = getelementptr inbounds [32 x float], [32 x float]* %a, i64 0, i64 %i
  store float %v, float* %p1, align 4
  %next = add i64 %i, 1
  br label %header

exit:
  ret void
}
"#;

    #[test]
    fn shifted_accesses_have_exact_distance() {
        let acc = analyze(SHIFT);
        let ld = acc.iter().find(|a| !a.is_store).unwrap();
        let st = acc.iter().find(|a| a.is_store).unwrap();
        assert_eq!(ld.subscripts, vec![IvRelation::IvPlus(-1)]);
        assert_eq!(st.subscripts, vec![IvRelation::IvPlus(0)]);
        assert_eq!(dependence_distance(st, ld), Distance::Exact(1));
    }

    /// Flat pointer arithmetic the analyzer cannot see through: the load
    /// and store addresses are *different* opaque expressions.
    const FLAT: &str = r#"
define void @f(float* "hls.interface"="m_axi" %a, i64 %stride) {
entry:
  br label %header

header:
  %i = phi i64 [ 0, %entry ], [ %next, %body ]
  %c = icmp slt i64 %i, 32
  br i1 %c, label %body, label %exit

body:
  %off = mul i64 %i, %stride
  %p = getelementptr inbounds float, float* %a, i64 %off
  %v = load float, float* %p, align 4
  %off2 = add i64 %off, %stride
  %q = getelementptr inbounds float, float* %a, i64 %off2
  store float %v, float* %q, align 4
  %next = add i64 %i, 1
  br label %header

exit:
  ret void
}
"#;

    #[test]
    fn opaque_arithmetic_is_conservative() {
        let acc = analyze(FLAT);
        let ld = acc.iter().find(|a| !a.is_store).unwrap();
        let st = acc.iter().find(|a| a.is_store).unwrap();
        assert!(ld.subscripts.is_empty());
        assert_eq!(dependence_distance(st, ld), Distance::Unknown);
    }

    #[test]
    fn identical_flat_pointer_is_still_analyzable() {
        // Elementwise update through one flat pointer: same SSA address on
        // load and store, IV-dependent -> no carried dependence.
        let src = r#"
define void @f(float* "hls.interface"="m_axi" %a, i64 %stride) {
entry:
  br label %header

header:
  %i = phi i64 [ 0, %entry ], [ %next, %body ]
  %c = icmp slt i64 %i, 32
  br i1 %c, label %body, label %exit

body:
  %off = mul i64 %i, %stride
  %p = getelementptr inbounds float, float* %a, i64 %off
  %v = load float, float* %p, align 4
  store float %v, float* %p, align 4
  %next = add i64 %i, 1
  br label %header

exit:
  ret void
}
"#;
        let acc = analyze(src);
        let ld = acc.iter().find(|a| !a.is_store).unwrap();
        let st = acc.iter().find(|a| a.is_store).unwrap();
        assert_eq!(ld.iv_dependent, Some(true));
        assert_eq!(dependence_distance(st, ld), Distance::None);
    }

    #[test]
    fn different_bases_never_conflict() {
        let acc = analyze(REDUCTION);
        let a_ld = acc
            .iter()
            .find(|x| !x.is_store && x.base == BaseObject::Param(0))
            .unwrap();
        let st = acc.iter().find(|x| x.is_store).unwrap();
        assert_eq!(dependence_distance(st, a_ld), Distance::None);
    }

    #[test]
    fn access_counting() {
        let acc = analyze(REDUCTION);
        let counts = accesses_per_base(&acc);
        assert_eq!(
            counts,
            vec![(BaseObject::Param(0), 1), (BaseObject::Param(1), 2)]
        );
    }

    #[test]
    fn select_between_geps_into_one_array_keeps_the_base() {
        // The shared points-to analysis sees through the select: both arms
        // root in %a, so the access still resolves (the old GEP walk
        // collapsed this to Unknown and forced a distance-1 assumption).
        let src = r#"
define void @f([32 x float]* %a, i1 %cond) {
entry:
  br label %header

header:
  %i = phi i64 [ 1, %entry ], [ %next, %body ]
  %c = icmp slt i64 %i, 31
  br i1 %c, label %body, label %exit

body:
  %im1 = add i64 %i, -1
  %p0 = getelementptr inbounds [32 x float], [32 x float]* %a, i64 0, i64 %im1
  %p1 = getelementptr inbounds [32 x float], [32 x float]* %a, i64 0, i64 %i
  %s = select i1 %cond, float* %p0, float* %p1
  %v = load float, float* %s, align 4
  store float %v, float* %p1, align 4
  %next = add i64 %i, 1
  br label %header

exit:
  ret void
}
"#;
        let acc = analyze(src);
        let ld = acc.iter().find(|a| !a.is_store).unwrap();
        assert_eq!(ld.base, BaseObject::Param(0));
    }

    /// A[2i] = A[2i+1]: scaled subscripts that used to collapse to
    /// `Complex` and a spurious distance-1 carried dependence.
    const STRIDE2: &str = r#"
define void @f([64 x float]* %a) {
entry:
  br label %header

header:
  %i = phi i64 [ 0, %entry ], [ %next, %body ]
  %c = icmp slt i64 %i, 31
  br i1 %c, label %body, label %exit

body:
  %even = mul i64 %i, 2
  %odd = add i64 %even, 1
  %pl = getelementptr inbounds [64 x float], [64 x float]* %a, i64 0, i64 %odd
  %v = load float, float* %pl, align 4
  %ps = getelementptr inbounds [64 x float], [64 x float]* %a, i64 0, i64 %even
  store float %v, float* %ps, align 4
  %next = add i64 %i, 1
  br label %header

exit:
  ret void
}
"#;

    #[test]
    fn scaled_subscripts_stay_affine_and_independent() {
        let acc = analyze(STRIDE2);
        let ld = acc.iter().find(|a| !a.is_store).unwrap();
        let st = acc.iter().find(|a| a.is_store).unwrap();
        assert_eq!(ld.subscripts, vec![IvRelation::IvScaled(2, 1)]);
        assert_eq!(st.subscripts, vec![IvRelation::IvScaled(2, 0)]);
        // 2d = 1 has no integer solution: even and odd lanes interleave.
        assert_eq!(dependence_distance(st, ld), Distance::None);
    }

    #[test]
    fn scaled_same_parity_distance_is_in_iterations() {
        // A[2i] vs A[2i+2]: one iteration apart, not two.
        let src = STRIDE2.replace("%even, 1", "%even, 2");
        let acc = analyze(&src);
        let ld = acc.iter().find(|a| !a.is_store).unwrap();
        let st = acc.iter().find(|a| a.is_store).unwrap();
        assert_eq!(dependence_distance(st, ld), Distance::Exact(1));
    }

    #[test]
    fn stride_2_loop_shift_does_not_collide() {
        // Step-2 loop, store A[i] vs load A[i-1]: the value delta 1 is
        // not a multiple of the step, so iterations never collide (the
        // old value-space math reported a bogus Exact(1) here).
        let src = SHIFT.replace("%i, 1\n  br label %header", "%i, 2\n  br label %header");
        let acc = analyze(&src);
        let ld = acc.iter().find(|a| !a.is_store).unwrap();
        let st = acc.iter().find(|a| a.is_store).unwrap();
        assert_eq!(st.step, Some(2));
        assert_eq!(dependence_distance(st, ld), Distance::None);
    }

    #[test]
    fn shl_subscript_is_scaled_affine() {
        let src = STRIDE2.replace("mul i64 %i, 2", "shl i64 %i, 1");
        let acc = analyze(&src);
        let st = acc.iter().find(|a| a.is_store).unwrap();
        assert_eq!(st.subscripts, vec![IvRelation::IvScaled(2, 0)]);
    }

    #[test]
    fn iv_relation_through_sext() {
        let src = r#"
define void @f([32 x float]* %a) {
entry:
  br label %header

header:
  %i = phi i32 [ 0, %entry ], [ %next, %body ]
  %c = icmp slt i32 %i, 32
  br i1 %c, label %body, label %exit

body:
  %w = sext i32 %i to i64
  %p = getelementptr inbounds [32 x float], [32 x float]* %a, i64 0, i64 %w
  %v = load float, float* %p, align 4
  store float %v, float* %p, align 4
  %next = add i32 %i, 1
  br label %header

exit:
  ret void
}
"#;
        let acc = analyze(src);
        assert_eq!(acc[0].subscripts, vec![IvRelation::IvPlus(0)]);
    }
}
