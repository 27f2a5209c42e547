//! Constraint sets over view variables, and the interval solver behind
//! the four-case selection refinement (paper, Section 4.2).
//!
//! The paper stores non-equality comparisons in the auxiliary relation
//! `COMPARISON = (VIEW, X, COMPARE, Y)`. Operationally, each derived
//! meta-tuple carries the atoms that mention its variables as a
//! tuple-local [`ConstraintSet`] (the paper notes that determining the
//! selection case "may require consulting relation COMPARISON, and,
//! possibly, modifying it" — tuple-local sets make those modifications
//! side-effect free).
//!
//! The §4.2 refinement distinguishes four cases when a query predicate λ
//! meets a meta-tuple predicate µ on the same attribute:
//!
//! * λ ⊨ µ  → the field is **cleared** (µ is vacuous on the result);
//! * µ ⊨ λ  → the meta-tuple is **retained** unmodified;
//! * λ ∧ µ unsatisfiable → the meta-tuple is **discarded**;
//! * otherwise → the meta-tuple is **modified** to represent µ ∧ λ.
//!
//! [`Interval`] decides implication and disjointness exactly for
//! conjunctions of single-variable comparisons against constants (the
//! paper's budget examples), with integer-adjacency normalization
//! (`x < 2 ≡ x ≤ 1` over `Int`) and `≠` exclusion points. Predicates the
//! solver cannot decide (var–var atoms) fall back to the sound default —
//! conjoin and keep — matching the paper's instruction that undecided
//! forms must not be *cleared*.

use crate::metatuple::VarId;
use motro_rel::{CompOp, Value};
use std::cmp::Ordering;
use std::collections::BTreeSet;
use std::fmt;

/// Right-hand side of a constraint atom.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Rhs {
    /// Another variable.
    Var(VarId),
    /// A constant.
    Const(Value),
}

impl fmt::Display for Rhs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Rhs::Var(x) => write!(f, "x{x}"),
            Rhs::Const(v) => write!(f, "{v}"),
        }
    }
}

/// A comparison atom `x θ rhs` over view variables.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ConstraintAtom {
    /// Left variable.
    pub lhs: VarId,
    /// Comparator.
    pub op: CompOp,
    /// Right side.
    pub rhs: Rhs,
}

impl ConstraintAtom {
    /// `x θ c`.
    pub fn var_const(lhs: VarId, op: CompOp, v: impl Into<Value>) -> Self {
        ConstraintAtom {
            lhs,
            op,
            rhs: Rhs::Const(v.into()),
        }
    }

    /// `x θ y`.
    pub fn var_var(lhs: VarId, op: CompOp, rhs: VarId) -> Self {
        ConstraintAtom {
            lhs,
            op,
            rhs: Rhs::Var(rhs),
        }
    }

    /// Variables mentioned.
    pub fn vars(&self) -> BTreeSet<VarId> {
        let mut s = BTreeSet::from([self.lhs]);
        if let Rhs::Var(y) = self.rhs {
            s.insert(y);
        }
        s
    }

    /// Does the atom mention `x`?
    pub fn mentions(&self, x: VarId) -> bool {
        self.lhs == x || self.rhs == Rhs::Var(x)
    }

    /// Canonical orientation: var–var atoms keep the smaller id on the
    /// left so structurally equal constraints compare equal.
    pub fn normalized(&self) -> ConstraintAtom {
        match self.rhs {
            Rhs::Var(y) if y < self.lhs => ConstraintAtom {
                lhs: y,
                op: self.op.flip(),
                rhs: Rhs::Var(self.lhs),
            },
            _ => self.clone(),
        }
    }

    /// Evaluate under a (possibly partial) binding. `None` when a
    /// mentioned variable is unbound or domains mismatch.
    pub fn eval(&self, binding: &dyn Fn(VarId) -> Option<Value>) -> Option<bool> {
        let l = binding(self.lhs)?;
        let r = match &self.rhs {
            Rhs::Var(y) => binding(*y)?,
            Rhs::Const(v) => v.clone(),
        };
        self.op.eval(&l, &r).ok()
    }
}

impl fmt::Display for ConstraintAtom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "x{} {} {}", self.lhs, self.op, self.rhs)
    }
}

/// A conjunction of [`ConstraintAtom`]s, kept in canonical (normalized,
/// sorted, deduplicated) form so equal conjunctions compare equal.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ConstraintSet {
    atoms: Vec<ConstraintAtom>,
}

impl ConstraintSet {
    /// The empty (always-true) set.
    pub fn empty() -> Self {
        ConstraintSet::default()
    }

    /// Build from atoms, canonicalizing.
    pub fn new(atoms: Vec<ConstraintAtom>) -> Self {
        let mut atoms: Vec<ConstraintAtom> = atoms.iter().map(ConstraintAtom::normalized).collect();
        atoms.sort();
        atoms.dedup();
        ConstraintSet { atoms }
    }

    /// The atoms, canonical order.
    pub fn atoms(&self) -> &[ConstraintAtom] {
        &self.atoms
    }

    /// No atoms?
    pub fn is_empty(&self) -> bool {
        self.atoms.is_empty()
    }

    /// All variables mentioned.
    pub fn vars(&self) -> BTreeSet<VarId> {
        self.atoms.iter().flat_map(ConstraintAtom::vars).collect()
    }

    /// Is `x` mentioned?
    pub fn mentions(&self, x: VarId) -> bool {
        self.atoms.iter().any(|a| a.mentions(x))
    }

    /// Add an atom.
    pub fn push(&mut self, atom: ConstraintAtom) {
        self.atoms.push(atom.normalized());
        self.atoms.sort();
        self.atoms.dedup();
    }

    /// Union of two sets.
    pub fn merge(&self, other: &ConstraintSet) -> ConstraintSet {
        let mut atoms = self.atoms.clone();
        atoms.extend(other.atoms.iter().cloned());
        ConstraintSet::new(atoms)
    }

    /// A canonical clone (already canonical; provided for dedup keys).
    pub fn canonical(&self) -> ConstraintSet {
        self.clone()
    }

    /// Drop every atom mentioning `x` (used when clearing a field).
    pub fn remove_var(&mut self, x: VarId) {
        self.atoms.retain(|a| !a.mentions(x));
    }

    /// Bind `x := v`: atoms `x θ c` are evaluated (any false → returns
    /// `false`, constraint violated); atoms `x θ y` are rewritten to
    /// `y θ' v`.
    pub fn bind(&mut self, x: VarId, v: &Value) -> bool {
        let mut out = Vec::with_capacity(self.atoms.len());
        for a in self.atoms.drain(..) {
            match (&a.rhs, a.lhs == x) {
                (Rhs::Const(c), true) => match a.op.eval(v, c) {
                    Ok(true) => {}
                    _ => return false,
                },
                (Rhs::Var(y), true) if *y == x => {
                    // x θ x under binding: v θ v.
                    if !a.op.eval(v, v).unwrap_or(false) {
                        return false;
                    }
                }
                (Rhs::Var(y), true) => out.push(ConstraintAtom {
                    lhs: *y,
                    op: a.op.flip(),
                    rhs: Rhs::Const(v.clone()),
                }),
                (Rhs::Var(y), false) if *y == x => out.push(ConstraintAtom {
                    lhs: a.lhs,
                    op: a.op,
                    rhs: Rhs::Const(v.clone()),
                }),
                _ => out.push(a),
            }
        }
        *self = ConstraintSet::new(out);
        true
    }

    /// Substitute variable `y := x` throughout.
    pub fn substitute(&mut self, y: VarId, x: VarId) {
        let rewritten = self
            .atoms
            .drain(..)
            .map(|mut a| {
                if a.lhs == y {
                    a.lhs = x;
                }
                if a.rhs == Rhs::Var(y) {
                    a.rhs = Rhs::Var(x);
                }
                a
            })
            .collect();
        *self = ConstraintSet::new(rewritten);
    }

    /// The interval of values variable `x` may take, considering only
    /// its var–const atoms. `None` when `x` participates in any var–var
    /// atom (undecidable by this solver) or mixes domains.
    pub fn interval_of(&self, x: VarId) -> Option<Interval> {
        let mut iv = Interval::full();
        for a in &self.atoms {
            if !a.mentions(x) {
                continue;
            }
            match &a.rhs {
                Rhs::Var(_) => return None,
                Rhs::Const(v) => {
                    // Atom is `x θ v` (lhs must be x since rhs is const).
                    iv = iv.intersect(&Interval::from_op(a.op, v.clone()))?;
                }
            }
        }
        Some(iv)
    }

    /// Quick unsatisfiability check on variable `x`: its interval (when
    /// decidable) is empty. `false` means "not obviously unsatisfiable".
    pub fn obviously_unsat(&self, x: VarId) -> bool {
        matches!(self.interval_of(x), Some(iv) if iv.is_empty())
    }

    /// Evaluate the conjunction under a binding; `None` when undecided.
    pub fn eval(&self, binding: &dyn Fn(VarId) -> Option<Value>) -> Option<bool> {
        let mut all = true;
        for a in &self.atoms {
            match a.eval(binding) {
                Some(false) => return Some(false),
                Some(true) => {}
                None => all = false,
            }
        }
        if all {
            Some(true)
        } else {
            None
        }
    }
}

impl fmt::Display for ConstraintSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, a) in self.atoms.iter().enumerate() {
            if i > 0 {
                write!(f, " and ")?;
            }
            write!(f, "{a}")?;
        }
        Ok(())
    }
}

/// An endpoint of an interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Bound {
    /// No bound on this side.
    Unbounded,
    /// Closed endpoint.
    Incl(Value),
    /// Open endpoint.
    Excl(Value),
}

/// The set of values satisfying a conjunction of comparisons against
/// constants: an interval with `≠` exclusion points.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Interval {
    lo: Bound,
    hi: Bound,
    excl: BTreeSet<Value>,
    empty: bool,
}

/// The outcome of comparing a query predicate λ with a meta-tuple
/// predicate µ (paper §4.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SelectionCase {
    /// λ ⊨ µ: the view restriction is vacuous on the result — clear the
    /// field.
    Clear,
    /// µ ⊨ λ: retain the meta-tuple unmodified.
    Retain,
    /// λ ∧ µ unsatisfiable: discard the meta-tuple.
    Discard,
    /// Otherwise: modify the meta-tuple to represent µ ∧ λ.
    Modify,
}

impl Interval {
    /// The full interval (always true).
    pub fn full() -> Self {
        Interval {
            lo: Bound::Unbounded,
            hi: Bound::Unbounded,
            excl: BTreeSet::new(),
            empty: false,
        }
    }

    /// The empty interval (unsatisfiable).
    pub fn none() -> Self {
        Interval {
            lo: Bound::Unbounded,
            hi: Bound::Unbounded,
            excl: BTreeSet::new(),
            empty: true,
        }
    }

    /// The point interval `{v}`.
    pub fn point(v: Value) -> Self {
        Interval {
            lo: Bound::Incl(v.clone()),
            hi: Bound::Incl(v),
            excl: BTreeSet::new(),
            empty: false,
        }
    }

    /// The interval of `x θ v`.
    pub fn from_op(op: CompOp, v: Value) -> Self {
        let mut iv = match op {
            CompOp::Eq => Interval::point(v),
            CompOp::Ne => Interval {
                lo: Bound::Unbounded,
                hi: Bound::Unbounded,
                excl: BTreeSet::from([v]),
                empty: false,
            },
            CompOp::Lt => Interval {
                lo: Bound::Unbounded,
                hi: Bound::Excl(v),
                excl: BTreeSet::new(),
                empty: false,
            },
            CompOp::Le => Interval {
                lo: Bound::Unbounded,
                hi: Bound::Incl(v),
                excl: BTreeSet::new(),
                empty: false,
            },
            CompOp::Gt => Interval {
                lo: Bound::Excl(v),
                hi: Bound::Unbounded,
                excl: BTreeSet::new(),
                empty: false,
            },
            CompOp::Ge => Interval {
                lo: Bound::Incl(v),
                hi: Bound::Unbounded,
                excl: BTreeSet::new(),
                empty: false,
            },
        };
        iv.normalize();
        iv
    }

    /// Over the integers, open bounds are equivalent to shifted closed
    /// bounds (`x < 2 ≡ x ≤ 1`); normalizing makes implication exact.
    fn normalize(&mut self) {
        if let Bound::Excl(Value::Int(k)) = &self.hi {
            match k.checked_sub(1) {
                Some(k1) => self.hi = Bound::Incl(Value::Int(k1)),
                None => self.empty = true, // x < i64::MIN
            }
        }
        if let Bound::Excl(Value::Int(k)) = &self.lo {
            match k.checked_add(1) {
                Some(k1) => self.lo = Bound::Incl(Value::Int(k1)),
                None => self.empty = true, // x > i64::MAX
            }
        }
        if self.empty {
            return;
        }
        // Detect crossed bounds.
        if let Some(ord) = cmp_bound_values(&self.lo, &self.hi) {
            let lo_open = matches!(self.lo, Bound::Excl(_));
            let hi_open = matches!(self.hi, Bound::Excl(_));
            match ord {
                Ordering::Greater => self.empty = true,
                Ordering::Equal if lo_open || hi_open => self.empty = true,
                Ordering::Equal => {
                    // Point interval: excluded point empties it.
                    if let Bound::Incl(v) = &self.lo {
                        if self.excl.contains(v) {
                            self.empty = true;
                        }
                    }
                }
                Ordering::Less => {}
            }
        }
        if self.empty {
            return;
        }
        // Drop exclusion points outside the interval; exclusions equal to
        // a closed endpoint tighten it over the integers.
        let (lo, hi) = (self.lo.clone(), self.hi.clone());
        self.excl
            .retain(|v| bound_allows_lower(&lo, v) && bound_allows_upper(&hi, v));
        loop {
            let mut changed = false;
            if let Bound::Incl(Value::Int(k)) = &self.lo {
                if self.excl.remove(&Value::Int(*k)) {
                    match k.checked_add(1) {
                        Some(k1) => self.lo = Bound::Incl(Value::Int(k1)),
                        None => self.empty = true,
                    }
                    changed = true;
                }
            }
            if self.empty {
                return;
            }
            if let Bound::Incl(Value::Int(k)) = &self.hi {
                if self.excl.remove(&Value::Int(*k)) {
                    match k.checked_sub(1) {
                        Some(k1) => self.hi = Bound::Incl(Value::Int(k1)),
                        None => self.empty = true,
                    }
                    changed = true;
                }
            }
            if self.empty {
                return;
            }
            if !changed {
                break;
            }
            if let Some(Ordering::Greater) = cmp_bound_values(&self.lo, &self.hi) {
                self.empty = true;
                return;
            }
        }
        if let (Some(Ordering::Equal), Bound::Incl(v)) =
            (cmp_bound_values(&self.lo, &self.hi), &self.lo)
        {
            if self.excl.contains(v) {
                self.empty = true;
            }
        }
    }

    /// Unsatisfiable?
    pub fn is_empty(&self) -> bool {
        self.empty
    }

    /// Always true (no restriction)?
    pub fn is_full(&self) -> bool {
        !self.empty
            && matches!(self.lo, Bound::Unbounded)
            && matches!(self.hi, Bound::Unbounded)
            && self.excl.is_empty()
    }

    /// Does the interval contain `v`?
    pub fn contains(&self, v: &Value) -> bool {
        !self.empty
            && bound_allows_lower(&self.lo, v)
            && bound_allows_upper(&self.hi, v)
            && !self.excl.contains(v)
    }

    /// Intersection. `None` when the operands mix value domains (a type
    /// error upstream; callers treat it as undecidable).
    pub fn intersect(&self, other: &Interval) -> Option<Interval> {
        if self.empty || other.empty {
            return Some(Interval::none());
        }
        let lo = match cmp_lower(&self.lo, &other.lo) {
            Some(Ordering::Less) => other.lo.clone(),
            Some(_) => self.lo.clone(),
            None => return None,
        };
        let hi = match cmp_upper(&self.hi, &other.hi) {
            Some(Ordering::Greater) => other.hi.clone(),
            Some(_) => self.hi.clone(),
            None => return None,
        };
        let mut excl = self.excl.clone();
        excl.extend(other.excl.iter().cloned());
        let mut iv = Interval {
            lo,
            hi,
            excl,
            empty: false,
        };
        iv.normalize();
        Some(iv)
    }

    /// Does `self ⊆ other` hold? `None` when undecidable (mixed
    /// domains).
    pub fn implies(&self, other: &Interval) -> Option<bool> {
        if self.empty {
            return Some(true);
        }
        if other.empty {
            return Some(false);
        }
        // other's lower bound must be no stricter than self's.
        match cmp_lower(&other.lo, &self.lo) {
            Some(Ordering::Greater) => return Some(false),
            Some(_) => {}
            None => return None,
        }
        match cmp_upper(&other.hi, &self.hi) {
            Some(Ordering::Less) => return Some(false),
            Some(_) => {}
            None => return None,
        }
        // Every value other excludes must be outside self.
        for v in &other.excl {
            let inside_range = bound_allows_lower(&self.lo, v) && bound_allows_upper(&self.hi, v);
            if inside_range && !self.excl.contains(v) {
                return Some(false);
            }
        }
        Some(true)
    }

    /// Decide the §4.2 selection case for query predicate λ (`self`) vs
    /// meta-tuple predicate µ (`other`). Undecidable comparisons map to
    /// [`SelectionCase::Modify`], the sound conjoin-and-keep default.
    pub fn four_case(lambda: &Interval, mu: &Interval) -> SelectionCase {
        match lambda.implies(mu) {
            Some(true) => return SelectionCase::Clear,
            Some(false) => {}
            None => return SelectionCase::Modify,
        }
        match mu.implies(lambda) {
            Some(true) => return SelectionCase::Retain,
            Some(false) => {}
            None => return SelectionCase::Modify,
        }
        match lambda.intersect(mu) {
            Some(iv) if iv.is_empty() => SelectionCase::Discard,
            _ => SelectionCase::Modify,
        }
    }

    /// If the interval pins a single value, return it.
    pub fn as_point(&self) -> Option<&Value> {
        if self.empty {
            return None;
        }
        match (&self.lo, &self.hi) {
            (Bound::Incl(a), Bound::Incl(b)) if a == b => Some(a),
            _ => None,
        }
    }
}

/// Compare the values inside two bounds; `None` if either is unbounded
/// or domains mismatch.
fn cmp_bound_values(a: &Bound, b: &Bound) -> Option<Ordering> {
    let av = match a {
        Bound::Incl(v) | Bound::Excl(v) => v,
        Bound::Unbounded => return None,
    };
    let bv = match b {
        Bound::Incl(v) | Bound::Excl(v) => v,
        Bound::Unbounded => return None,
    };
    av.compare(bv)
}

/// Compare two lower bounds by strictness: `Less` = weaker (admits
/// more). `None` on mixed domains.
fn cmp_lower(a: &Bound, b: &Bound) -> Option<Ordering> {
    match (a, b) {
        (Bound::Unbounded, Bound::Unbounded) => Some(Ordering::Equal),
        (Bound::Unbounded, _) => Some(Ordering::Less),
        (_, Bound::Unbounded) => Some(Ordering::Greater),
        _ => {
            let ord = cmp_bound_values(a, b)?;
            if ord != Ordering::Equal {
                return Some(ord);
            }
            // Same value: exclusive lower bound is stricter.
            let sa = matches!(a, Bound::Excl(_));
            let sb = matches!(b, Bound::Excl(_));
            Some(sa.cmp(&sb))
        }
    }
}

/// Compare two upper bounds by value position: `Less` = stricter (admits
/// less). `None` on mixed domains.
fn cmp_upper(a: &Bound, b: &Bound) -> Option<Ordering> {
    match (a, b) {
        (Bound::Unbounded, Bound::Unbounded) => Some(Ordering::Equal),
        (Bound::Unbounded, _) => Some(Ordering::Greater),
        (_, Bound::Unbounded) => Some(Ordering::Less),
        _ => {
            let ord = cmp_bound_values(a, b)?;
            if ord != Ordering::Equal {
                return Some(ord);
            }
            // Same value: exclusive upper bound is stricter (smaller).
            let sa = matches!(a, Bound::Excl(_));
            let sb = matches!(b, Bound::Excl(_));
            Some(sb.cmp(&sa))
        }
    }
}

fn bound_allows_lower(lo: &Bound, v: &Value) -> bool {
    match lo {
        Bound::Unbounded => true,
        Bound::Incl(b) => matches!(v.compare(b), Some(Ordering::Greater | Ordering::Equal)),
        Bound::Excl(b) => matches!(v.compare(b), Some(Ordering::Greater)),
    }
}

fn bound_allows_upper(hi: &Bound, v: &Value) -> bool {
    match hi {
        Bound::Unbounded => true,
        Bound::Incl(b) => matches!(v.compare(b), Some(Ordering::Less | Ordering::Equal)),
        Bound::Excl(b) => matches!(v.compare(b), Some(Ordering::Less)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iv(op: CompOp, v: i64) -> Interval {
        Interval::from_op(op, Value::int(v))
    }

    fn range(lo: i64, hi: i64) -> Interval {
        iv(CompOp::Ge, lo).intersect(&iv(CompOp::Le, hi)).unwrap()
    }

    #[test]
    fn from_op_membership() {
        assert!(iv(CompOp::Ge, 5).contains(&Value::int(5)));
        assert!(!iv(CompOp::Gt, 5).contains(&Value::int(5)));
        assert!(iv(CompOp::Gt, 5).contains(&Value::int(6)));
        assert!(iv(CompOp::Ne, 5).contains(&Value::int(4)));
        assert!(!iv(CompOp::Ne, 5).contains(&Value::int(5)));
        assert!(iv(CompOp::Eq, 5).contains(&Value::int(5)));
        assert!(!iv(CompOp::Eq, 5).contains(&Value::int(6)));
    }

    #[test]
    fn integer_adjacency_normalization() {
        // x < 2 over Int equals x ≤ 1.
        assert_eq!(iv(CompOp::Lt, 2), iv(CompOp::Le, 1));
        assert_eq!(iv(CompOp::Gt, 2), iv(CompOp::Ge, 3));
        // Strings are not normalized.
        let s = Interval::from_op(CompOp::Lt, Value::str("b"));
        assert!(matches!(s.hi, Bound::Excl(_)));
    }

    #[test]
    fn intersect_empty_when_disjoint() {
        assert!(range(1, 3).intersect(&range(5, 9)).unwrap().is_empty());
        assert!(!range(1, 5).intersect(&range(5, 9)).unwrap().is_empty());
        assert!(iv(CompOp::Lt, 5)
            .intersect(&iv(CompOp::Gt, 4))
            .unwrap()
            .is_empty());
    }

    #[test]
    fn point_vs_ne_is_empty() {
        let p = iv(CompOp::Eq, 5);
        let ne = iv(CompOp::Ne, 5);
        assert!(p.intersect(&ne).unwrap().is_empty());
    }

    #[test]
    fn exclusion_tightens_integer_endpoint() {
        // x ≥ 5 ∧ x ≠ 5 → x ≥ 6.
        let t = iv(CompOp::Ge, 5).intersect(&iv(CompOp::Ne, 5)).unwrap();
        assert_eq!(t, iv(CompOp::Ge, 6));
        // Cascading: x in [5,6] ∧ x≠5 ∧ x≠6 → empty.
        let t = range(5, 6)
            .intersect(&iv(CompOp::Ne, 5))
            .unwrap()
            .intersect(&iv(CompOp::Ne, 6))
            .unwrap();
        assert!(t.is_empty());
    }

    #[test]
    fn implication_basics() {
        assert_eq!(
            iv(CompOp::Ge, 300).implies(&iv(CompOp::Ge, 250)),
            Some(true)
        );
        assert_eq!(
            iv(CompOp::Ge, 250).implies(&iv(CompOp::Ge, 300)),
            Some(false)
        );
        assert_eq!(range(3, 4).implies(&range(3, 6)), Some(true));
        assert_eq!(range(3, 7).implies(&range(3, 6)), Some(false));
        assert_eq!(Interval::none().implies(&range(0, 1)), Some(true));
        assert_eq!(range(0, 1).implies(&Interval::none()), Some(false));
        assert_eq!(range(0, 1).implies(&Interval::full()), Some(true));
    }

    #[test]
    fn implication_with_exclusions() {
        // [1,10] ⊆ (≠5)? no — 5 ∈ [1,10].
        assert_eq!(range(1, 10).implies(&iv(CompOp::Ne, 5)), Some(false));
        // [6,10] ⊆ (≠5)? yes.
        assert_eq!(range(6, 10).implies(&iv(CompOp::Ne, 5)), Some(true));
        // (≠5 within [1,10]) ⊆ [1,10]? yes.
        let lhs = range(1, 10).intersect(&iv(CompOp::Ne, 5)).unwrap();
        assert_eq!(lhs.implies(&range(1, 10)), Some(true));
    }

    #[test]
    fn mixed_domains_are_undecidable() {
        let a = Interval::from_op(CompOp::Ge, Value::int(1));
        let b = Interval::from_op(CompOp::Ge, Value::str("a"));
        assert_eq!(a.implies(&b), None);
        assert!(a.intersect(&b).is_none());
        assert_eq!(Interval::four_case(&a, &b), SelectionCase::Modify);
    }

    /// The paper's §4.2 worked example: view µ = budgets in
    /// [300k, 600k]; four queries.
    #[test]
    fn paper_budget_four_cases() {
        let mu = range(300_000, 600_000);
        // (1) λ = [200k, 400k]: overlap → modify (to [300k, 400k]).
        let l1 = range(200_000, 400_000);
        assert_eq!(Interval::four_case(&l1, &mu), SelectionCase::Modify);
        assert_eq!(l1.intersect(&mu).unwrap(), range(300_000, 400_000));
        // (2) λ = [200k, 700k]: µ ⊨ λ → retain.
        let l2 = range(200_000, 700_000);
        assert_eq!(Interval::four_case(&l2, &mu), SelectionCase::Retain);
        // (3) λ = [400k, 500k]: λ ⊨ µ → clear.
        let l3 = range(400_000, 500_000);
        assert_eq!(Interval::four_case(&l3, &mu), SelectionCase::Clear);
        // (4) λ = (-∞, 300k): contradiction → discard.
        let l4 = iv(CompOp::Lt, 300_000);
        assert_eq!(Interval::four_case(&l4, &mu), SelectionCase::Discard);
    }

    #[test]
    fn four_case_prefers_clear_on_equality() {
        let a = range(1, 5);
        assert_eq!(Interval::four_case(&a, &a.clone()), SelectionCase::Clear);
    }

    #[test]
    fn as_point() {
        assert_eq!(iv(CompOp::Eq, 5).as_point(), Some(&Value::int(5)));
        assert_eq!(range(5, 5).as_point(), Some(&Value::int(5)));
        assert_eq!(range(4, 5).as_point(), None);
        // [4,5] ∧ ≠4 → point 5.
        let p = range(4, 5).intersect(&iv(CompOp::Ne, 4)).unwrap();
        assert_eq!(p.as_point(), Some(&Value::int(5)));
    }

    #[test]
    fn string_intervals() {
        let a = Interval::from_op(CompOp::Ge, Value::str("Acme"));
        assert!(a.contains(&Value::str("Apex")));
        assert!(!a.contains(&Value::str("AAA")));
        let p = Interval::point(Value::str("Acme"));
        assert_eq!(p.implies(&a), Some(true));
        // String open bounds stay structural: x < "b" does not imply
        // x ≤ "a" (there are strings between) — conservative.
        let lt_b = Interval::from_op(CompOp::Lt, Value::str("b"));
        let le_a = Interval::from_op(CompOp::Le, Value::str("a"));
        assert_eq!(lt_b.implies(&le_a), Some(false));
        assert_eq!(le_a.implies(&lt_b), Some(true));
    }

    #[test]
    fn constraint_set_canonicalization() {
        let a = ConstraintSet::new(vec![
            ConstraintAtom::var_var(5, CompOp::Lt, 2),
            ConstraintAtom::var_const(1, CompOp::Ge, 10),
        ]);
        let b = ConstraintSet::new(vec![
            ConstraintAtom::var_const(1, CompOp::Ge, 10),
            ConstraintAtom::var_var(2, CompOp::Gt, 5),
        ]);
        assert_eq!(a, b);
    }

    #[test]
    fn constraint_set_interval_of() {
        let s = ConstraintSet::new(vec![
            ConstraintAtom::var_const(1, CompOp::Ge, 10),
            ConstraintAtom::var_const(1, CompOp::Lt, 20),
            ConstraintAtom::var_const(2, CompOp::Eq, 5),
        ]);
        assert_eq!(s.interval_of(1).unwrap(), range(10, 19));
        assert_eq!(s.interval_of(2).unwrap().as_point(), Some(&Value::int(5)));
        assert!(s.interval_of(3).unwrap().is_full());
        // var-var atoms make the variable undecidable.
        let s2 = ConstraintSet::new(vec![ConstraintAtom::var_var(1, CompOp::Lt, 2)]);
        assert!(s2.interval_of(1).is_none());
        assert!(s2.interval_of(2).is_none());
    }

    #[test]
    fn constraint_set_bind() {
        let mut s = ConstraintSet::new(vec![
            ConstraintAtom::var_const(1, CompOp::Ge, 10),
            ConstraintAtom::var_var(1, CompOp::Lt, 2),
        ]);
        assert!(s.bind(1, &Value::int(15)));
        // x1 ≥ 10 evaluated away; x1 < x2 becomes x2 > 15.
        assert_eq!(s.atoms(), &[ConstraintAtom::var_const(2, CompOp::Gt, 15)]);
        let mut s2 = ConstraintSet::new(vec![ConstraintAtom::var_const(1, CompOp::Ge, 10)]);
        assert!(!s2.bind(1, &Value::int(5)));
    }

    #[test]
    fn constraint_set_substitute_and_remove() {
        let mut s = ConstraintSet::new(vec![
            ConstraintAtom::var_var(1, CompOp::Lt, 2),
            ConstraintAtom::var_const(2, CompOp::Ge, 0),
        ]);
        s.substitute(2, 1);
        assert!(s.mentions(1));
        assert!(!s.mentions(2));
        s.remove_var(1);
        assert!(s.is_empty());
    }

    #[test]
    fn constraint_set_eval_under_binding() {
        let s = ConstraintSet::new(vec![
            ConstraintAtom::var_const(1, CompOp::Ge, 10),
            ConstraintAtom::var_var(1, CompOp::Lt, 2),
        ]);
        let full = |x: VarId| -> Option<Value> {
            match x {
                1 => Some(Value::int(15)),
                2 => Some(Value::int(20)),
                _ => None,
            }
        };
        assert_eq!(s.eval(&full), Some(true));
        let partial = |x: VarId| -> Option<Value> {
            match x {
                1 => Some(Value::int(15)),
                _ => None,
            }
        };
        assert_eq!(s.eval(&partial), None);
        let failing = |x: VarId| -> Option<Value> {
            match x {
                1 => Some(Value::int(5)),
                _ => None,
            }
        };
        assert_eq!(s.eval(&failing), Some(false));
    }

    #[test]
    fn obviously_unsat() {
        let s = ConstraintSet::new(vec![
            ConstraintAtom::var_const(1, CompOp::Gt, 10),
            ConstraintAtom::var_const(1, CompOp::Lt, 5),
        ]);
        assert!(s.obviously_unsat(1));
        assert!(!s.obviously_unsat(2));
    }

    #[test]
    fn overflow_edges() {
        assert!(iv(CompOp::Lt, i64::MIN).is_empty());
        assert!(iv(CompOp::Gt, i64::MAX).is_empty());
        assert!(!iv(CompOp::Le, i64::MIN).is_empty());
    }
}
