//! Polyhedral-lite loop-nest dependence analysis and transform legality.
//!
//! This is the engine behind legality-gated loop transforms: it recovers
//! per-nest affine access functions (multi-IV, non-unit coefficients),
//! computes direction/distance vectors per array pair with the classic
//! ZIV / strong-SIV / GCD dependence tests, and answers "is this
//! interchange / unroll / partition legal?" with a *witness* — the exact
//! store/load pair and dependence vector — attached to every refusal.
//!
//! # Precision lattice
//!
//! Subscripts are normalized into **iteration-number space**: a subscript
//! `a*IV + c` over a loop `IV = init + step*k` becomes the linear form
//! `a*step*k + (a*init + c)`. Each dependence-vector element is then one
//! of
//!
//! - `Exact(d)` — the accesses conflict exactly `d` iterations apart at
//!   that loop level (from a ZIV constant match or a strong-SIV solve);
//! - `Star` — any distance is possible at that level, either because the
//!   level is genuinely unconstrained (the subscript ignores it — still
//!   an *exact* dependence) or because only a GCD feasibility test
//!   applied (a *may* dependence, [`Dependence::exact`]` == false`).
//!
//! Anything non-affine (symbol-scaled subscripts, non-IV phis, unknown
//! bases) degrades to an assumed all-`Star` may dependence, never to
//! silence: the lattice only ever over-approximates, so a "legal" verdict
//! is trustworthy while "illegal" may be conservative.
//!
//! The core types ([`LinExpr`], [`LoopNest`], [`Dependence`],
//! [`TransformLegality`]) are IR-neutral so both the `llvm-lite` front
//! end in this module and the `mlir-lite` affine front end can feed them.

use std::collections::BTreeMap;

use llvm_lite::analysis::{counted_loop_tripcount, LoopInfo, NaturalLoop};
use llvm_lite::{Function, InstData, InstId, Opcode, Type, Value};

use crate::alias::{resolve_base, MemObject};

/// A linear expression over the iteration numbers of a loop nest:
/// `sum(coeffs[l] * k_l) + sum(syms[s] * s) + konst`, with `k_l` the
/// iteration number (not the raw IV value) of nest level `l`,
/// outermost-first, and symbols standing for nest-invariant unknowns.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct LinExpr {
    /// Per-level iteration-number coefficients, outermost-first.
    pub coeffs: Vec<i64>,
    /// Nest-invariant symbolic terms (keyed by a front-end-chosen name).
    pub syms: BTreeMap<String, i64>,
    /// Constant term.
    pub konst: i64,
}

impl LinExpr {
    /// The constant expression `c` over `levels` loops.
    pub fn konst(levels: usize, c: i64) -> LinExpr {
        LinExpr {
            coeffs: vec![0; levels],
            syms: BTreeMap::new(),
            konst: c,
        }
    }

    /// The expression `coeff * k_level` over `levels` loops.
    pub fn term(levels: usize, level: usize, coeff: i64) -> LinExpr {
        let mut e = LinExpr::konst(levels, 0);
        e.coeffs[level] = coeff;
        e
    }

    /// A single symbolic term `coeff * name`.
    pub fn sym(levels: usize, name: impl Into<String>, coeff: i64) -> LinExpr {
        let mut e = LinExpr::konst(levels, 0);
        e.syms.insert(name.into(), coeff);
        e
    }

    /// Pointwise sum. Both operands must span the same nest.
    pub fn add(&self, o: &LinExpr) -> Option<LinExpr> {
        if self.coeffs.len() != o.coeffs.len() {
            return None;
        }
        let mut r = self.clone();
        for (a, b) in r.coeffs.iter_mut().zip(&o.coeffs) {
            *a = a.checked_add(*b)?;
        }
        for (k, v) in &o.syms {
            let e = r.syms.entry(k.clone()).or_insert(0);
            *e = e.checked_add(*v)?;
            if *e == 0 {
                r.syms.remove(k);
            }
        }
        r.konst = r.konst.checked_add(o.konst)?;
        Some(r)
    }

    /// Scale every term by `k`.
    pub fn scale(&self, k: i64) -> Option<LinExpr> {
        let mut r = self.clone();
        for c in r.coeffs.iter_mut() {
            *c = c.checked_mul(k)?;
        }
        if k == 0 {
            r.syms.clear();
        } else {
            for v in r.syms.values_mut() {
                *v = v.checked_mul(k)?;
            }
        }
        r.konst = r.konst.checked_mul(k)?;
        Some(r)
    }

    /// `self - o`.
    pub fn sub(&self, o: &LinExpr) -> Option<LinExpr> {
        self.add(&o.scale(-1)?)
    }

    /// True when the expression has no loop or symbol terms.
    pub fn is_const(&self) -> bool {
        self.coeffs.iter().all(|&c| c == 0) && self.syms.is_empty()
    }
}

/// One loop level of a nest.
#[derive(Clone, Debug)]
pub struct NestLoop {
    /// Human-readable label for witnesses (IV name or header name).
    pub label: String,
    /// Trip count when provable; `None` = unknown (assumed unbounded).
    pub trip: Option<u64>,
}

/// One memory access inside a nest.
#[derive(Clone, Debug)]
pub struct NestAccess {
    /// Front-end-assigned opaque id (LLVM `InstId`, MLIR op uid) used to
    /// map dependences back to IR objects.
    pub id: usize,
    /// Human-readable label for witnesses (e.g. `%v`).
    pub label: String,
    /// True for stores.
    pub is_store: bool,
    /// Resolved base-object name; `None` = no provable base.
    pub base: Option<String>,
    /// One linear subscript per array dimension; `None` = unanalyzable
    /// address expression.
    pub subs: Option<Vec<LinExpr>>,
}

/// A loop nest with its memory accesses, ready for dependence testing.
#[derive(Clone, Debug, Default)]
pub struct LoopNest {
    /// Enclosing function name (for diagnostics).
    pub func: String,
    /// Nest levels, outermost-first.
    pub loops: Vec<NestLoop>,
    /// All analyzed accesses.
    pub accesses: Vec<NestAccess>,
}

/// One element of a dependence-distance vector.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DistElem {
    /// Conflict exactly this many iterations apart at this level.
    Exact(i64),
    /// Any distance possible at this level.
    Star,
}

impl std::fmt::Display for DistElem {
    fn fmt(&self, w: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DistElem::Exact(d) => write!(w, "{d}"),
            DistElem::Star => write!(w, "*"),
        }
    }
}

/// Classic dependence kinds, named from the source (earlier) access.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DepKind {
    /// Store then load (read-after-write).
    Flow,
    /// Load then store (write-after-read).
    Anti,
    /// Store then store (write-after-write).
    Output,
}

impl DepKind {
    fn name(self) -> &'static str {
        match self {
            DepKind::Flow => "flow",
            DepKind::Anti => "anti",
            DepKind::Output => "output",
        }
    }
}

/// One dependence edge between two accesses of a nest.
#[derive(Clone, Debug)]
pub struct Dependence {
    /// Index into [`LoopNest::accesses`] of the source access.
    pub src: usize,
    /// Index into [`LoopNest::accesses`] of the sink access.
    pub dst: usize,
    /// Flow / anti / output.
    pub kind: DepKind,
    /// Distance vector, one element per nest level, outermost-first,
    /// normalized so the leading exact prefix is lexicographically
    /// non-negative.
    pub dist: Vec<DistElem>,
    /// True when every constraint came from an exact solve (the
    /// dependence definitely occurs); false for GCD-only or assumed may
    /// dependences.
    pub exact: bool,
}

/// A refusal witness: the dependence (when one exists) plus a rendered,
/// self-contained explanation.
#[derive(Clone, Debug)]
pub struct Witness {
    /// The offending dependence, if the refusal is dependence-backed
    /// (`None` for "nest not analyzable" refusals).
    pub dep: Option<Dependence>,
    /// Human-readable one-line explanation.
    pub reason: String,
}

impl std::fmt::Display for Witness {
    fn fmt(&self, w: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(w, "{}", self.reason)
    }
}

/// How the carried distance of a dependence looks from one loop level.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CarriedDistance {
    /// Not carried by this level (independent or carried further out).
    NotCarried,
    /// Carried with this exact iteration distance (>= 1).
    Exact(u64),
    /// Carried, distance >= 1 but not provable (may dependence).
    AtLeastOne,
}

/// Per-level constraint accumulator used while merging subscript dims.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Level {
    Free,
    Eq(i64),
    Star,
}

fn gcd(a: i64, b: i64) -> i64 {
    let (mut a, mut b) = (a.abs(), b.abs());
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

impl LoopNest {
    /// Index of the innermost level.
    pub fn innermost_level(&self) -> usize {
        self.loops.len().saturating_sub(1)
    }

    /// All dependences between access pairs (at least one store), with
    /// assumed all-`Star` edges for unanalyzable pairs.
    pub fn dependences(&self) -> Vec<Dependence> {
        let levels = self.loops.len();
        if self.loops.iter().any(|l| l.trip == Some(0)) {
            return Vec::new(); // 0-trip nest: the body never executes
        }
        let mut out = Vec::new();
        for i in 0..self.accesses.len() {
            for j in i..self.accesses.len() {
                let (a, b) = (&self.accesses[i], &self.accesses[j]);
                if !a.is_store && !b.is_store {
                    continue;
                }
                if i == j && !a.is_store {
                    continue;
                }
                let assumed = |out: &mut Vec<Dependence>| {
                    out.push(Dependence {
                        src: i,
                        dst: j,
                        kind: kind_of(a.is_store, b.is_store),
                        dist: vec![DistElem::Star; levels],
                        exact: false,
                    });
                };
                match (&a.base, &b.base) {
                    (None, None) => {
                        assumed(&mut out);
                        continue;
                    }
                    // One side resolved, the other not: follow the
                    // established memdep convention that a resolved base
                    // is disjoint from unresolved pointers.
                    (None, Some(_)) | (Some(_), None) => continue,
                    (Some(ba), Some(bb)) if ba != bb => continue,
                    _ => {}
                }
                let (Some(sa), Some(sb)) = (&a.subs, &b.subs) else {
                    assumed(&mut out);
                    continue;
                };
                if sa.len() != sb.len() {
                    assumed(&mut out);
                    continue;
                }
                if let Some((dist, exact)) = self.solve_pair(sa, sb) {
                    if dist.iter().all(|e| *e == DistElem::Exact(0)) {
                        continue; // loop-independent: order is preserved
                    }
                    let (src, dst, dist) = normalize(i, j, dist);
                    let kind = kind_of(self.accesses[src].is_store, self.accesses[dst].is_store);
                    out.push(Dependence {
                        src,
                        dst,
                        kind,
                        dist,
                        exact,
                    });
                }
            }
        }
        out
    }

    /// Solve `addr_a(I) = addr_b(I + d)` for the distance vector `d`.
    /// Returns `None` when the accesses are proven independent.
    fn solve_pair(&self, sa: &[LinExpr], sb: &[LinExpr]) -> Option<(Vec<DistElem>, bool)> {
        let levels = self.loops.len();
        let mut lv = vec![Level::Free; levels];
        let mut exact = true;
        for (ea, eb) in sa.iter().zip(sb) {
            if ea.coeffs.len() != levels || eb.coeffs.len() != levels {
                return Some((vec![DistElem::Star; levels], false));
            }
            // Symbols must cancel exactly: nest-invariant unknowns take
            // the same value at both iterations, so equal coefficients
            // drop out; anything else is unresolvable.
            if ea.syms != eb.syms {
                return Some((vec![DistElem::Star; levels], false));
            }
            if ea.coeffs == eb.coeffs {
                // sum(c_l * d_l) = Ka - Kb
                let diff = ea.konst - eb.konst;
                let nz: Vec<usize> = (0..levels).filter(|&l| ea.coeffs[l] != 0).collect();
                match nz.len() {
                    0 => {
                        // ZIV: constant subscripts either always or never
                        // collide.
                        if diff != 0 {
                            return None;
                        }
                    }
                    1 => {
                        // Strong SIV: a single level pins the distance.
                        let l = nz[0];
                        let c = ea.coeffs[l];
                        if diff % c != 0 {
                            return None;
                        }
                        let d = diff / c;
                        if let Some(trip) = self.loops[l].trip {
                            if d.unsigned_abs() >= trip {
                                return None;
                            }
                        }
                        match lv[l] {
                            Level::Free => lv[l] = Level::Eq(d),
                            Level::Eq(prev) if prev == d => {}
                            Level::Eq(_) => return None,
                            Level::Star => {
                                lv[l] = Level::Eq(d);
                                exact = false;
                            }
                        }
                    }
                    _ => {
                        // MIV with matching coefficients: GCD feasibility,
                        // then trip-bounded exact enumeration when the
                        // solution space is small (this is what resolves
                        // flat `N*i + j` subscripts from memref lowering).
                        let g = nz.iter().fold(0, |g, &l| gcd(g, ea.coeffs[l]));
                        if g != 0 && diff % g != 0 {
                            return None;
                        }
                        match self.miv_solutions(&nz, &ea.coeffs, diff) {
                            Some(sols) if sols.is_empty() => return None,
                            Some(sols) => {
                                for (pos, &l) in nz.iter().enumerate() {
                                    let first = sols[0][pos];
                                    if sols.iter().all(|s| s[pos] == first) {
                                        match lv[l] {
                                            Level::Free => lv[l] = Level::Eq(first),
                                            Level::Eq(prev) if prev == first => {}
                                            Level::Eq(_) => return None,
                                            Level::Star => {
                                                lv[l] = Level::Eq(first);
                                                exact = false;
                                            }
                                        }
                                    } else {
                                        if lv[l] == Level::Free {
                                            lv[l] = Level::Star;
                                        }
                                        exact = false;
                                    }
                                }
                            }
                            None => {
                                for &l in &nz {
                                    if lv[l] == Level::Free {
                                        lv[l] = Level::Star;
                                    }
                                }
                                exact = false;
                            }
                        }
                    }
                }
            } else {
                // Mismatched coefficients: the absolute iteration leaks
                // into the equation; fall back to the two-sided GCD test
                // over sum(ca_l * i_l) - sum(cb_l * j_l) = Kb - Ka.
                let mut g = 0;
                for l in 0..levels {
                    g = gcd(g, ea.coeffs[l]);
                    g = gcd(g, eb.coeffs[l]);
                }
                if g != 0 && (eb.konst - ea.konst) % g != 0 {
                    return None;
                }
                for (l, slot) in lv.iter_mut().enumerate() {
                    if (ea.coeffs[l] != 0 || eb.coeffs[l] != 0) && *slot == Level::Free {
                        *slot = Level::Star;
                    }
                }
                exact = false;
            }
        }
        let dist = lv
            .into_iter()
            .map(|c| match c {
                Level::Eq(d) => DistElem::Exact(d),
                // A level no subscript constrains admits every distance.
                Level::Free | Level::Star => DistElem::Star,
            })
            .collect();
        Some((dist, exact))
    }

    /// Enumerate all `d` with `sum(coeffs[l] * d_l) = diff` and
    /// `|d_l| < trip_l` over the levels in `nz`. `None` when a trip is
    /// unknown or the space is too large to enumerate.
    fn miv_solutions(&self, nz: &[usize], coeffs: &[i64], diff: i64) -> Option<Vec<Vec<i64>>> {
        const CAP: u64 = 20_000;
        let mut space = 1u64;
        for &l in nz {
            let trip = self.loops[l].trip?;
            if trip == 0 {
                return Some(Vec::new());
            }
            space = space.checked_mul(2 * trip - 1)?;
            if space > CAP {
                return None;
            }
        }
        let mut sols = Vec::new();
        let mut cur = vec![0i64; nz.len()];
        fn rec(
            nz: &[usize],
            coeffs: &[i64],
            trips: &[u64],
            diff: i64,
            pos: usize,
            cur: &mut Vec<i64>,
            sols: &mut Vec<Vec<i64>>,
        ) {
            if pos == nz.len() {
                if diff == 0 {
                    sols.push(cur.clone());
                }
                return;
            }
            let bound = trips[pos] as i64 - 1;
            for d in -bound..=bound {
                cur[pos] = d;
                rec(
                    nz,
                    coeffs,
                    trips,
                    diff - coeffs[nz[pos]] * d,
                    pos + 1,
                    cur,
                    sols,
                );
            }
        }
        let trips: Vec<u64> = nz.iter().map(|&l| self.loops[l].trip.unwrap()).collect();
        rec(nz, coeffs, &trips, diff, 0, &mut cur, &mut sols);
        Some(sols)
    }

    /// Render a dependence as a one-line witness, e.g.
    /// `flow dependence store %t -> load %s on %acc, distance vector (0, 1)`.
    pub fn render_dep(&self, d: &Dependence) -> String {
        let (s, t) = (&self.accesses[d.src], &self.accesses[d.dst]);
        let vec: Vec<String> = d.dist.iter().map(|e| e.to_string()).collect();
        let base = s.base.as_deref().unwrap_or("<unknown base>");
        let may = if d.exact { "" } else { " (assumed)" };
        format!(
            "{} dependence {} {} -> {} {} on {}, distance vector ({}){}",
            d.kind.name(),
            acc_kind(s.is_store),
            s.label,
            acc_kind(t.is_store),
            t.label,
            base,
            vec.join(", "),
            may
        )
    }

    /// How `dep` looks from `level`: not carried there, carried with an
    /// exact distance, or carried with an unprovable distance >= 1.
    pub fn carried_distance_at(&self, dep: &Dependence, level: usize) -> CarriedDistance {
        let mut best: Option<u64> = None;
        let mut star_at_level = false;
        for w in instantiations(&dep.dist) {
            let w = match lex_sign(&w) {
                std::cmp::Ordering::Greater => w,
                std::cmp::Ordering::Less => w.iter().map(|x| -x).collect(),
                std::cmp::Ordering::Equal => continue,
            };
            let first_nz = w.iter().position(|&x| x != 0);
            if first_nz != Some(level) {
                continue;
            }
            let d = w[level].unsigned_abs();
            if dep.dist[level] == DistElem::Star {
                star_at_level = true;
            }
            best = Some(best.map_or(d, |b: u64| b.min(d)));
        }
        match best {
            None => CarriedDistance::NotCarried,
            // A Star level of an exact dependence admits *every*
            // distance, so distance 1 genuinely occurs; a may dependence
            // only guarantees ">= 1 if it occurs at all".
            Some(_) if star_at_level && dep.exact => CarriedDistance::Exact(1),
            Some(_) if star_at_level => CarriedDistance::AtLeastOne,
            Some(d) => CarriedDistance::Exact(d),
        }
    }
}

fn acc_kind(is_store: bool) -> &'static str {
    if is_store {
        "store"
    } else {
        "load"
    }
}

fn kind_of(src_store: bool, dst_store: bool) -> DepKind {
    match (src_store, dst_store) {
        (true, true) => DepKind::Output,
        (true, false) => DepKind::Flow,
        (false, true) => DepKind::Anti,
        (false, false) => unreachable!("load-load pairs are filtered out"),
    }
}

/// Lexicographic sign of a concrete vector.
fn lex_sign(w: &[i64]) -> std::cmp::Ordering {
    for &x in w {
        match x.cmp(&0) {
            std::cmp::Ordering::Equal => continue,
            o => return o,
        }
    }
    std::cmp::Ordering::Equal
}

/// Orient a solved vector so its leading exact prefix is lex-non-negative,
/// swapping source and sink when flipping.
fn normalize(i: usize, j: usize, dist: Vec<DistElem>) -> (usize, usize, Vec<DistElem>) {
    for e in &dist {
        match e {
            DistElem::Exact(d) if *d > 0 => return (i, j, dist),
            DistElem::Exact(d) if *d < 0 => {
                let flipped = dist
                    .iter()
                    .map(|e| match e {
                        DistElem::Exact(d) => DistElem::Exact(-d),
                        DistElem::Star => DistElem::Star,
                    })
                    .collect();
                return (j, i, flipped);
            }
            DistElem::Exact(_) => continue,
            // First non-zero is a Star: both directions are possible;
            // keep the computed orientation.
            DistElem::Star => return (i, j, dist),
        }
    }
    (i, j, dist)
}

/// Concrete sign instantiations of a vector: each `Star` ranges over
/// `{-1, 0, 1}` (magnitude is irrelevant for lexicographic reasoning).
fn instantiations(dist: &[DistElem]) -> Vec<Vec<i64>> {
    let mut out = vec![Vec::with_capacity(dist.len())];
    for e in dist {
        let choices: &[i64] = match e {
            DistElem::Exact(d) => &[*d][..],
            DistElem::Star => &[-1, 0, 1][..],
        };
        let mut next = Vec::with_capacity(out.len() * choices.len());
        for w in &out {
            for &c in choices {
                let mut w2 = w.clone();
                w2.push(c);
                next.push(w2);
            }
        }
        out = next;
    }
    out
}

/// Transform-legality oracle over one nest: every verdict is either
/// `Ok(())` or a [`Witness`] naming the offending dependence.
pub struct TransformLegality<'a> {
    nest: &'a LoopNest,
    deps: Vec<Dependence>,
}

impl<'a> TransformLegality<'a> {
    /// Analyze `nest` once; verdict methods are then cheap.
    pub fn new(nest: &'a LoopNest) -> TransformLegality<'a> {
        TransformLegality {
            deps: nest.dependences(),
            nest,
        }
    }

    /// The dependence set backing the verdicts.
    pub fn dependences(&self) -> &[Dependence] {
        &self.deps
    }

    fn opaque_witness(&self) -> Option<Witness> {
        let bad = self
            .nest
            .accesses
            .iter()
            .find(|a| a.base.is_none() || a.subs.is_none())?;
        Some(Witness {
            dep: None,
            reason: format!(
                "access {} has no affine subscript form; legality cannot be proven",
                bad.label
            ),
        })
    }

    /// Is interchanging levels `i` and `j` legal? Illegal when any
    /// dependence that is lexicographically positive before the swap
    /// becomes negative after it (i.e. the transform would read values
    /// before they are written).
    pub fn interchange_legal(&self, i: usize, j: usize) -> Result<(), Witness> {
        if let Some(w) = self.opaque_witness() {
            return Err(w);
        }
        for dep in &self.deps {
            for w in instantiations(&dep.dist) {
                let w = match lex_sign(&w) {
                    std::cmp::Ordering::Greater => w,
                    std::cmp::Ordering::Less => w.iter().map(|x| -x).collect(),
                    std::cmp::Ordering::Equal => continue,
                };
                let mut sw = w.clone();
                sw.swap(i, j);
                if lex_sign(&sw) == std::cmp::Ordering::Less {
                    return Err(Witness {
                        dep: Some(dep.clone()),
                        reason: format!(
                            "interchanging {} and {} would reverse the {}",
                            self.nest.loops[i].label,
                            self.nest.loops[j].label,
                            self.nest.render_dep(dep)
                        ),
                    });
                }
            }
        }
        Ok(())
    }

    /// Can iterations of level `depth` run in parallel (full unroll with
    /// no inter-copy ordering, or array partitioning across that level)?
    /// Illegal when any dependence is carried at that level.
    pub fn unroll_parallel(&self, depth: usize) -> Result<(), Witness> {
        if let Some(w) = self.opaque_witness() {
            return Err(w);
        }
        for dep in &self.deps {
            if self.nest.carried_distance_at(dep, depth) != CarriedDistance::NotCarried {
                return Err(Witness {
                    dep: Some(dep.clone()),
                    reason: format!(
                        "level {} carries the {}",
                        self.nest.loops[depth].label,
                        self.nest.render_dep(dep)
                    ),
                });
            }
        }
        Ok(())
    }

    /// Is a cyclic partition of `base` by `factor` banks along subscript
    /// dimension `dim` conflict-free within one iteration? Conservative:
    /// accesses must share that dimension's loop coefficients so the bank
    /// difference is a compile-time constant; two accesses landing in one
    /// bank at different addresses is a conflict.
    pub fn partition_conflict_free(
        &self,
        base: &str,
        dim: usize,
        factor: u64,
    ) -> Result<(), Witness> {
        if factor <= 1 {
            return Ok(());
        }
        let accs: Vec<&NestAccess> = self
            .nest
            .accesses
            .iter()
            .filter(|a| a.base.as_deref() == Some(base))
            .collect();
        for (x, a) in accs.iter().enumerate() {
            for b in accs.iter().skip(x + 1) {
                let conflict = |why: String| Witness {
                    dep: None,
                    reason: format!(
                        "accesses {} and {} of {} may hit one bank of a {}-way partition: {}",
                        a.label, b.label, base, factor, why
                    ),
                };
                let (Some(sa), Some(sb)) = (&a.subs, &b.subs) else {
                    return Err(conflict("unanalyzable subscripts".into()));
                };
                if sa.len() != sb.len() || dim >= sa.len() {
                    return Err(conflict("mismatched subscript arity".into()));
                }
                if sa == sb {
                    continue; // same address: one location, no bank clash
                }
                let (ea, eb) = (&sa[dim], &sb[dim]);
                if ea.coeffs != eb.coeffs || ea.syms != eb.syms {
                    return Err(conflict(format!(
                        "bank distance along dim {dim} is not a constant"
                    )));
                }
                let delta = ea.konst - eb.konst;
                if delta.rem_euclid(factor as i64) == 0 {
                    return Err(conflict(format!(
                        "constant offsets {} and {} are congruent mod {}",
                        ea.konst, eb.konst, factor
                    )));
                }
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// llvm-lite front end
// ---------------------------------------------------------------------------

/// IV facts for one chain loop: (phi, init, step).
type IvInfo = (InstId, i64, i64);

/// Recover a [`LinExpr`] in iteration-number space for `v`, given the
/// nest's IVs outermost-first. A raw IV reference `IV_l` contributes
/// `step_l * k_l + init_l`. Returns `None` for anything non-affine.
fn lin_expr_of(f: &Function, v: &Value, ivs: &[IvInfo], depth: u32) -> Option<LinExpr> {
    let levels = ivs.len();
    if depth > 16 {
        return None;
    }
    match v {
        Value::ConstInt { value, .. } => Some(LinExpr::konst(levels, i64::try_from(*value).ok()?)),
        Value::Arg(a) => Some(LinExpr::sym(levels, format!("arg{a}"), 1)),
        Value::Global(g) => Some(LinExpr::sym(levels, format!("@{g}"), 1)),
        Value::Inst(id) => {
            if let Some(l) = ivs.iter().position(|(iv, _, _)| iv == id) {
                let (_, init, step) = ivs[l];
                let mut e = LinExpr::term(levels, l, step);
                e.konst = init;
                return Some(e);
            }
            let inst = f.inst(*id);
            match inst.opcode {
                Opcode::SExt | Opcode::ZExt | Opcode::Trunc => {
                    lin_expr_of(f, &inst.operands[0], ivs, depth + 1)
                }
                Opcode::Add => {
                    let a = lin_expr_of(f, &inst.operands[0], ivs, depth + 1)?;
                    let b = lin_expr_of(f, &inst.operands[1], ivs, depth + 1)?;
                    a.add(&b)
                }
                Opcode::Sub => {
                    let a = lin_expr_of(f, &inst.operands[0], ivs, depth + 1)?;
                    let b = lin_expr_of(f, &inst.operands[1], ivs, depth + 1)?;
                    a.sub(&b)
                }
                Opcode::Mul => {
                    let a = lin_expr_of(f, &inst.operands[0], ivs, depth + 1)?;
                    let b = lin_expr_of(f, &inst.operands[1], ivs, depth + 1)?;
                    if a.is_const() {
                        b.scale(a.konst)
                    } else if b.is_const() {
                        a.scale(b.konst)
                    } else {
                        None
                    }
                }
                Opcode::Shl => {
                    let a = lin_expr_of(f, &inst.operands[0], ivs, depth + 1)?;
                    let sh = inst.operands[1].int_value()?;
                    if !(0..63).contains(&sh) {
                        return None;
                    }
                    a.scale(1i64 << sh)
                }
                _ => None,
            }
        }
        _ => None,
    }
}

fn inst_label(f: &Function, id: InstId) -> String {
    let n = &f.inst(id).name;
    if n.is_empty() {
        format!("%{id}")
    } else {
        format!("%{n}")
    }
}

/// Extract `(phi, init, step)` for a counted loop.
fn iv_info(f: &Function, l: &NaturalLoop) -> Option<IvInfo> {
    let (phi, init, step) = crate::range::iv_seed(f, l)?;
    Some((phi, i64::try_from(init).ok()?, i64::try_from(step).ok()?))
}

/// Build the [`LoopNest`] whose innermost level is `inner`: the chain of
/// enclosing counted loops plus every load/store in blocks belonging to
/// that chain (blocks of sibling loops are excluded). Returns `None` when
/// any chain loop has no recognizable IV.
pub fn nest_of_innermost(f: &Function, li: &LoopInfo, inner: &NaturalLoop) -> Option<LoopNest> {
    let mut chain: Vec<&NaturalLoop> = Vec::new();
    let mut cur = Some(inner.header);
    while let Some(h) = cur {
        let l = li.loop_with_header(h)?;
        chain.push(l);
        cur = l.parent;
    }
    chain.reverse();
    let ivs: Vec<IvInfo> = chain
        .iter()
        .map(|l| iv_info(f, l))
        .collect::<Option<Vec<_>>>()?;
    let loops: Vec<NestLoop> = chain
        .iter()
        .zip(&ivs)
        .map(|(l, (phi, _, _))| NestLoop {
            label: inst_label(f, *phi),
            trip: counted_loop_tripcount(f, l),
        })
        .collect();
    let in_chain = |h: llvm_lite::BlockId| chain.iter().any(|l| l.header == h);
    let mut accesses = Vec::new();
    for &b in &chain[0].body {
        // Skip blocks whose innermost enclosing loop is a sibling nest.
        let owner = li.innermost_containing(b)?;
        if !in_chain(owner.header) {
            continue;
        }
        for &id in &f.block(b).insts {
            let inst = f.inst(id);
            let (is_store, ptr) = match inst.opcode {
                Opcode::Load => (false, &inst.operands[0]),
                Opcode::Store => (true, &inst.operands[1]),
                _ => continue,
            };
            let base = match resolve_base(f, ptr) {
                MemObject::Unknown => None,
                o => Some(o.describe(f)),
            };
            // Stores have no result name; label them by the stored value.
            let label = if is_store {
                match &inst.operands[0] {
                    Value::Inst(vid) => inst_label(f, *vid),
                    _ => inst_label(f, id),
                }
            } else {
                inst_label(f, id)
            };
            let subs = match ptr {
                Value::Inst(gid) if f.inst(*gid).opcode == Opcode::Gep => {
                    let gep = f.inst(*gid);
                    let structured = matches!(
                        &gep.data,
                        InstData::Gep { base_ty, .. } if matches!(base_ty, Type::Array(..))
                    );
                    let idx_ops: &[Value] = if structured {
                        &gep.operands[2..]
                    } else {
                        &gep.operands[1..]
                    };
                    idx_ops
                        .iter()
                        .map(|v| lin_expr_of(f, v, &ivs, 0))
                        .collect::<Option<Vec<_>>>()
                }
                // A direct (non-GEP) pointer with a known base is the
                // whole object: a zero-dimensional constant address.
                _ if base.is_some() => Some(Vec::new()),
                _ => None,
            };
            accesses.push(NestAccess {
                id: id as usize,
                label,
                is_store,
                base,
                subs,
            });
        }
    }
    Some(LoopNest {
        func: f.name.clone(),
        loops,
        accesses,
    })
}

/// All nests of a function, one per innermost loop.
pub fn nests(f: &Function) -> Vec<LoopNest> {
    let cfg = llvm_lite::analysis::Cfg::build(f);
    let dom = llvm_lite::analysis::DomTree::build(f, &cfg);
    let li = LoopInfo::build(f, &cfg, &dom);
    li.innermost_loops()
        .iter()
        .filter_map(|l| nest_of_innermost(f, &li, l))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use llvm_lite::parser::parse_module;

    fn nests_of(src: &str) -> (llvm_lite::Module, Vec<LoopNest>) {
        let m = parse_module("m", src).unwrap();
        let ns = nests(&m.functions[0]);
        (m, ns)
    }

    /// for i in 0..8 step 1 { for j in 0..8 { A[i+1][j] = A[i][j+1] } }
    /// Flow dependence (1, -1): legal as written, illegal to interchange.
    const SKEWED: &str = r#"
define void @f([16 x [16 x float]]* %a) {
entry:
  br label %oh

oh:
  %i = phi i64 [ 0, %entry ], [ %inext, %ol ]
  %ci = icmp slt i64 %i, 8
  br i1 %ci, label %ih, label %exit

ih:
  %j = phi i64 [ 0, %oh ], [ %jnext, %ib ]
  %cj = icmp slt i64 %j, 8
  br i1 %cj, label %ib, label %ol

ib:
  %jp1 = add i64 %j, 1
  %ip1 = add i64 %i, 1
  %pl = getelementptr inbounds [16 x [16 x float]], [16 x [16 x float]]* %a, i64 0, i64 %i, i64 %jp1
  %v = load float, float* %pl, align 4
  %ps = getelementptr inbounds [16 x [16 x float]], [16 x [16 x float]]* %a, i64 0, i64 %ip1, i64 %j
  store float %v, float* %ps, align 4
  %jnext = add i64 %j, 1
  br label %ih

ol:
  %inext = add i64 %i, 1
  br label %oh

exit:
  ret void
}
"#;

    #[test]
    fn skewed_nest_has_flow_dep_1_m1() {
        let (_m, ns) = nests_of(SKEWED);
        assert_eq!(ns.len(), 1);
        let deps = ns[0].dependences();
        assert_eq!(deps.len(), 1);
        let d = &deps[0];
        assert_eq!(d.kind, DepKind::Flow);
        assert!(d.exact);
        assert_eq!(d.dist, vec![DistElem::Exact(1), DistElem::Exact(-1)]);
        assert!(ns[0].accesses[d.src].is_store);
    }

    #[test]
    fn skewed_nest_interchange_is_illegal_with_witness() {
        let (_m, ns) = nests_of(SKEWED);
        let leg = TransformLegality::new(&ns[0]);
        let w = leg.interchange_legal(0, 1).unwrap_err();
        assert!(w.dep.is_some());
        assert!(
            w.reason.contains("distance vector (1, -1)"),
            "witness: {}",
            w.reason
        );
        // The dependence is carried by the outer loop, so the *inner*
        // level alone is parallel-safe while the outer is not.
        assert!(leg.unroll_parallel(1).is_ok());
        assert!(leg.unroll_parallel(0).is_err());
    }

    /// Stride-2 accesses: A[2i] = A[2i+1] never overlap.
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
    fn stride_2_even_odd_are_independent() {
        let (_m, ns) = nests_of(STRIDE2);
        // Store A[2i] vs load A[2i+1]: 2d = 1 has no integer solution;
        // the only dependence left is the store's self output dep at
        // distance 0, which is dropped.
        assert!(ns[0].dependences().is_empty());
        let leg = TransformLegality::new(&ns[0]);
        assert!(leg.unroll_parallel(0).is_ok());
    }

    /// A[i] accumulation through a zero-dim pointer: every iteration
    /// collides (all-Star exact dependence).
    const ACCUM: &str = r#"
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
    fn accumulator_is_carried_at_distance_one() {
        let (_m, ns) = nests_of(ACCUM);
        let nest = &ns[0];
        let deps = nest.dependences();
        let flow = deps.iter().find(|d| d.kind == DepKind::Anti).unwrap();
        assert!(flow.exact);
        assert_eq!(flow.dist, vec![DistElem::Star]);
        assert_eq!(nest.carried_distance_at(flow, 0), CarriedDistance::Exact(1));
        let leg = TransformLegality::new(nest);
        let w = leg.unroll_parallel(0).unwrap_err();
        assert!(w.reason.contains("%acc"), "witness: {}", w.reason);
    }

    #[test]
    fn zero_trip_nest_has_no_dependences() {
        let src = ACCUM.replace("%i, 32", "%i, 0");
        let (_m, ns) = nests_of(&src);
        assert!(ns[0].dependences().is_empty());
    }

    #[test]
    fn trip_one_loop_cannot_carry_a_shift() {
        // Store A[i], load A[i-1] is distance 1 — but a 1-trip loop
        // cannot realize it (size-1 iteration-space edge case).
        let src = r#"
define void @f([32 x float]* %a) {
entry:
  br label %header

header:
  %i = phi i64 [ 1, %entry ], [ %next, %body ]
  %c = icmp slt i64 %i, 2
  br i1 %c, label %body, label %exit

body:
  %im1 = add i64 %i, -1
  %pl = getelementptr inbounds [32 x float], [32 x float]* %a, i64 0, i64 %im1
  %v = load float, float* %pl, align 4
  %ps = getelementptr inbounds [32 x float], [32 x float]* %a, i64 0, i64 %i
  store float %v, float* %ps, align 4
  %next = add i64 %i, 1
  br label %header

exit:
  ret void
}
"#;
        let (_m, ns) = nests_of(src);
        assert!(ns[0].dependences().is_empty());
    }

    #[test]
    fn stride_2_shift_has_no_spurious_unit_distance() {
        // Store A[i], load A[i-1] with step 2: the addresses interleave
        // and never collide across iterations.
        let src = r#"
define void @f([64 x float]* %a) {
entry:
  br label %header

header:
  %i = phi i64 [ 2, %entry ], [ %next, %body ]
  %c = icmp slt i64 %i, 62
  br i1 %c, label %body, label %exit

body:
  %im1 = add i64 %i, -1
  %pl = getelementptr inbounds [64 x float], [64 x float]* %a, i64 0, i64 %im1
  %v = load float, float* %pl, align 4
  %ps = getelementptr inbounds [64 x float], [64 x float]* %a, i64 0, i64 %i
  store float %v, float* %ps, align 4
  %next = add i64 %i, 2
  br label %header

exit:
  ret void
}
"#;
        let (_m, ns) = nests_of(src);
        assert!(ns[0].dependences().is_empty());
    }

    #[test]
    fn mvt_style_nest_interchange_is_legal() {
        // x1[i] += A[i][j] * y1[j]: the x1 dependence is (0, *), which
        // stays lex-non-negative under interchange.
        let src = r#"
define void @f([16 x [16 x float]]* %A, [16 x float]* %x1, [16 x float]* %y1) {
entry:
  br label %oh

oh:
  %i = phi i64 [ 0, %entry ], [ %inext, %ol ]
  %ci = icmp slt i64 %i, 16
  br i1 %ci, label %ih, label %exit

ih:
  %j = phi i64 [ 0, %oh ], [ %jnext, %ib ]
  %cj = icmp slt i64 %j, 16
  br i1 %cj, label %ib, label %ol

ib:
  %pa = getelementptr inbounds [16 x [16 x float]], [16 x [16 x float]]* %A, i64 0, i64 %i, i64 %j
  %va = load float, float* %pa, align 4
  %py = getelementptr inbounds [16 x float], [16 x float]* %y1, i64 0, i64 %j
  %vy = load float, float* %py, align 4
  %px = getelementptr inbounds [16 x float], [16 x float]* %x1, i64 0, i64 %i
  %vx = load float, float* %px, align 4
  %m = fmul float %va, %vy
  %s = fadd float %vx, %m
  store float %s, float* %px, align 4
  %jnext = add i64 %j, 1
  br label %ih

ol:
  %inext = add i64 %i, 1
  br label %oh

exit:
  ret void
}
"#;
        let (_m, ns) = nests_of(src);
        let leg = TransformLegality::new(&ns[0]);
        assert!(leg.interchange_legal(0, 1).is_ok());
        // The x1 recurrence is carried by the inner level once outer
        // iterations are fixed: inner unroll is NOT parallel-safe.
        assert!(leg.unroll_parallel(1).is_err());
    }

    #[test]
    fn partition_checks_bank_congruence() {
        let (_m, ns) = nests_of(SKEWED);
        let leg = TransformLegality::new(&ns[0]);
        // Column subscripts j+1 and j differ by 1: distinct banks for
        // factor 2, congruent (conflicting) for factor 1 is trivially ok.
        assert!(leg.partition_conflict_free("%a", 1, 2).is_ok());
        // Row subscripts i and i+1 also split across 2 banks.
        assert!(leg.partition_conflict_free("%a", 0, 2).is_ok());
        // But a same-parity pair conflicts: A[i][j+2] vs A[i][j] mod 2.
        let src = SKEWED.replace("%j, 1", "%j, 2");
        let (_m2, ns2) = nests_of(&src);
        let leg2 = TransformLegality::new(&ns2[0]);
        assert!(leg2.partition_conflict_free("%a", 1, 2).is_err());
    }

    #[test]
    fn symbolic_offsets_cancel_when_equal() {
        // A[i+n] load vs A[i+n] store: the symbol cancels, distance 0,
        // no carried dependence.
        let src = r#"
define void @f([64 x float]* %a, i64 %n) {
entry:
  br label %header

header:
  %i = phi i64 [ 0, %entry ], [ %next, %body ]
  %c = icmp slt i64 %i, 32
  br i1 %c, label %body, label %exit

body:
  %ipn = add i64 %i, %n
  %p = getelementptr inbounds [64 x float], [64 x float]* %a, i64 0, i64 %ipn
  %v = load float, float* %p, align 4
  store float %v, float* %p, align 4
  %next = add i64 %i, 1
  br label %header

exit:
  ret void
}
"#;
        let (_m, ns) = nests_of(src);
        assert!(ns[0].dependences().is_empty());
        assert!(TransformLegality::new(&ns[0]).unroll_parallel(0).is_ok());
    }

    #[test]
    fn gcd_test_proves_even_odd_strides_independent() {
        // Store A[2i], load A[2i + 1] via shl: gcd 2 does not divide 1.
        let src = r#"
define void @f([128 x float]* %a) {
entry:
  br label %header

header:
  %i = phi i64 [ 0, %entry ], [ %next, %body ]
  %c = icmp slt i64 %i, 32
  br i1 %c, label %body, label %exit

body:
  %even = shl i64 %i, 1
  %odd = add i64 %even, 1
  %pl = getelementptr inbounds [128 x float], [128 x float]* %a, i64 0, i64 %odd
  %v = load float, float* %pl, align 4
  %ps = getelementptr inbounds [128 x float], [128 x float]* %a, i64 0, i64 %even
  store float %v, float* %ps, align 4
  %next = add i64 %i, 1
  br label %header

exit:
  ret void
}
"#;
        let (_m, ns) = nests_of(src);
        assert!(ns[0].dependences().is_empty());
    }

    #[test]
    fn opaque_pointer_blocks_legality_with_named_witness() {
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
        let (_m, ns) = nests_of(src);
        let leg = TransformLegality::new(&ns[0]);
        let w = leg.unroll_parallel(0).unwrap_err();
        assert!(w.dep.is_none());
        assert!(w.reason.contains("no affine subscript form"));
    }

    #[test]
    fn gemm_nest_dependence_vector_and_interchange() {
        let src = r#"
define void @f([8 x [8 x float]]* %C, [8 x [8 x float]]* %A, [8 x [8 x float]]* %B) {
entry:
  br label %ih

ih:
  %i = phi i64 [ 0, %entry ], [ %inext, %il ]
  %ci = icmp slt i64 %i, 8
  br i1 %ci, label %jh, label %exit

jh:
  %j = phi i64 [ 0, %ih ], [ %jnext, %jl ]
  %cj = icmp slt i64 %j, 8
  br i1 %cj, label %kh, label %il

kh:
  %k = phi i64 [ 0, %jh ], [ %knext, %kb ]
  %ck = icmp slt i64 %k, 8
  br i1 %ck, label %kb, label %jl

kb:
  %pa = getelementptr inbounds [8 x [8 x float]], [8 x [8 x float]]* %A, i64 0, i64 %i, i64 %k
  %va = load float, float* %pa, align 4
  %pb = getelementptr inbounds [8 x [8 x float]], [8 x [8 x float]]* %B, i64 0, i64 %k, i64 %j
  %vb = load float, float* %pb, align 4
  %pc = getelementptr inbounds [8 x [8 x float]], [8 x [8 x float]]* %C, i64 0, i64 %i, i64 %j
  %vc = load float, float* %pc, align 4
  %m = fmul float %va, %vb
  %s = fadd float %vc, %m
  store float %s, float* %pc, align 4
  %knext = add i64 %k, 1
  br label %kh

jl:
  %jnext = add i64 %j, 1
  br label %jh

il:
  %inext = add i64 %i, 1
  br label %ih

exit:
  ret void
}
"#;
        let (_m, ns) = nests_of(src);
        assert_eq!(ns.len(), 1);
        let nest = &ns[0];
        let deps = nest.dependences();
        // C[i][j] anti + output (+ flow folded by orientation): all
        // vectors are (0, 0, *).
        assert!(!deps.is_empty());
        for d in &deps {
            assert_eq!(
                d.dist,
                vec![DistElem::Exact(0), DistElem::Exact(0), DistElem::Star],
                "unexpected vector in {}",
                nest.render_dep(d)
            );
        }
        let leg = TransformLegality::new(nest);
        // Every interchange of the i-j-k gemm nest is legal.
        assert!(leg.interchange_legal(0, 1).is_ok());
        assert!(leg.interchange_legal(1, 2).is_ok());
        assert!(leg.interchange_legal(0, 2).is_ok());
        // The k level carries the accumulation; i and j are parallel.
        assert!(leg.unroll_parallel(0).is_ok());
        assert!(leg.unroll_parallel(1).is_ok());
        assert!(leg.unroll_parallel(2).is_err());
    }

    #[test]
    fn witness_rendering_is_stable() {
        let (_m, ns) = nests_of(SKEWED);
        let deps = ns[0].dependences();
        assert_eq!(
            ns[0].render_dep(&deps[0]),
            "flow dependence store %v -> load %v on %a, distance vector (1, -1)"
        );
    }
}
