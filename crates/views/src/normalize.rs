//! The Section 3 normalization: from a surface view statement to the
//! variable/constant/blank form that meta-tuple encoding stores.
//!
//! Given a conjunctive view
//! `{ a₁,…,aₙ | (∃b₁)…(∃bₖ) ψ₁ ∧ … ∧ ψₘ }` the paper prescribes:
//!
//! * membership subformulas keep their terms, with head variables (the
//!   `a`s) suffixed `*` and variables occurring only once replaced by
//!   `⊔` (blank);
//! * comparative subformulas with `θ = '='` are *substituted away* (every
//!   occurrence of `d₁` replaced by `d₂`);
//! * the remaining comparative subformulas become `COMPARISON` entries
//!   `(V, d₁, θ, d₂)`.
//!
//! [`normalize`] implements this with a union–find over the positions of
//! the view's relation occurrences: equality atoms merge classes,
//! constant equalities bind a class to a value (conflicts make the view
//! unsatisfiable, which is rejected), classes containing a head position
//! are starred everywhere they appear, and classes that occur exactly
//! once with no comparison collapse to blank.

use crate::ast::{CalcTerm, ConjunctiveQuery};
use crate::compile::resolve_factors;
use motro_rel::{CompOp, DbSchema, RelError, RelResult, Value};
use std::fmt;

/// A view-scoped variable identifier (the paper's `x₁, x₂, …`).
pub type VarId = u32;

/// One position of a normalized membership atom.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VarTerm {
    /// A constant (`Acme`).
    Const(Value),
    /// A shared variable (`x₁`).
    Var(VarId),
    /// Blank `⊔`: unconstrained and existential.
    Anon,
}

impl fmt::Display for VarTerm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VarTerm::Const(v) => write!(f, "{v}"),
            VarTerm::Var(x) => write!(f, "x{x}"),
            VarTerm::Anon => write!(f, "_"),
        }
    }
}

/// A normalized membership subformula: one row destined for the
/// meta-relation of `rel`.
#[derive(Debug, Clone, PartialEq)]
pub struct MembershipAtom {
    /// The relation this atom ranges over.
    pub rel: String,
    /// Per-attribute terms, positionally matching the relation schema.
    pub terms: Vec<VarTerm>,
    /// Per-attribute star flags (projection membership).
    pub starred: Vec<bool>,
}

/// The right-hand side of a retained (non-equality) comparison.
#[derive(Debug, Clone, PartialEq)]
pub enum CompRhs {
    /// Another variable.
    Var(VarId),
    /// A constant.
    Const(Value),
}

impl fmt::Display for CompRhs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompRhs::Var(x) => write!(f, "x{x}"),
            CompRhs::Const(v) => write!(f, "{v}"),
        }
    }
}

/// A retained comparison, destined for the `COMPARISON` relation.
#[derive(Debug, Clone, PartialEq)]
pub struct VarComparison {
    /// Left variable.
    pub lhs: VarId,
    /// Comparator (never `=`; equalities are substituted away).
    pub op: CompOp,
    /// Right variable or constant.
    pub rhs: CompRhs,
}

impl fmt::Display for VarComparison {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "x{} {} {}", self.lhs, self.op, self.rhs)
    }
}

/// A view in the paper's storage normal form.
#[derive(Debug, Clone, PartialEq)]
pub struct NormalizedView {
    /// View name.
    pub name: String,
    /// One membership atom per relation occurrence, in plan order.
    pub atoms: Vec<MembershipAtom>,
    /// Retained non-equality comparisons.
    pub comparisons: Vec<VarComparison>,
}

impl NormalizedView {
    /// Number of distinct variables used.
    pub fn var_count(&self) -> u32 {
        let mut seen = std::collections::BTreeSet::new();
        for a in &self.atoms {
            for t in &a.terms {
                if let VarTerm::Var(x) = t {
                    seen.insert(*x);
                }
            }
        }
        for c in &self.comparisons {
            seen.insert(c.lhs);
            if let CompRhs::Var(x) = c.rhs {
                seen.insert(x);
            }
        }
        seen.len() as u32
    }

    /// Render as a domain-relational-calculus expression in the paper's
    /// style, e.g. for PSA:
    /// `{a1, a2, a3 | (a1, a2, a3) in PROJECT and a2 = Acme}`.
    pub fn to_drc_string(&self) -> String {
        let mut parts = Vec::new();
        for a in &self.atoms {
            let terms: Vec<String> = a
                .terms
                .iter()
                .zip(&a.starred)
                .map(|(t, s)| {
                    let base = t.to_string();
                    if *s {
                        format!("{base}*")
                    } else {
                        base
                    }
                })
                .collect();
            parts.push(format!("({}) in {}", terms.join(", "), a.rel));
        }
        for c in &self.comparisons {
            parts.push(c.to_string());
        }
        format!("{} := {}", self.name, parts.join(" and "))
    }
}

/// Union–find with per-class constant binding and head marking.
struct Classes {
    parent: Vec<usize>,
    constant: Vec<Option<Value>>,
    head: Vec<bool>,
}

impl Classes {
    fn new(n: usize) -> Self {
        Classes {
            parent: (0..n).collect(),
            constant: vec![None; n],
            head: vec![false; n],
        }
    }

    fn find(&mut self, i: usize) -> usize {
        if self.parent[i] != i {
            let root = self.find(self.parent[i]);
            self.parent[i] = root;
        }
        self.parent[i]
    }

    fn union(&mut self, a: usize, b: usize) -> RelResult<()> {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return Ok(());
        }
        match (&self.constant[ra], &self.constant[rb]) {
            (Some(x), Some(y)) if x != y => {
                return Err(RelError::Invalid(format!(
                    "unsatisfiable view: {x} = {y} implied"
                )))
            }
            _ => {}
        }
        let keep = self.constant[ra]
            .clone()
            .or_else(|| self.constant[rb].clone());
        self.parent[rb] = ra;
        self.constant[ra] = keep;
        self.head[ra] = self.head[ra] || self.head[rb];
        Ok(())
    }

    fn bind(&mut self, i: usize, v: Value) -> RelResult<()> {
        let r = self.find(i);
        match &self.constant[r] {
            Some(x) if *x != v => Err(RelError::Invalid(format!(
                "unsatisfiable view: {x} = {v} implied"
            ))),
            _ => {
                self.constant[r] = Some(v);
                Ok(())
            }
        }
    }
}

/// Normalize a view statement into storage form (see module docs).
///
/// The surface AST only ever mentions attributes and constants, so the
/// calculus safety condition ("each a and each b must appear at least
/// once among the c's") holds by construction.
pub fn normalize(q: &ConjunctiveQuery, scheme: &DbSchema) -> RelResult<NormalizedView> {
    let name = q.name.clone().unwrap_or_else(|| "<query>".to_owned());
    if q.targets.is_empty() {
        return Err(RelError::Invalid("empty target list".to_owned()));
    }
    let resolved = resolve_factors(q, scheme)?;
    let arity = resolved.product_schema.arity();
    let mut classes = Classes::new(arity);

    // Mark head positions.
    for t in &q.targets {
        let c = resolved.column_of(t, scheme)?;
        classes.head[c] = true;
    }

    // Phase 1: equalities are substituted away (union / constant bind);
    // everything else is retained for phase 2. Every atom is
    // domain-checked first (a view comparing SALARY with a string is a
    // definition-time error, not a silently-empty permission).
    let check_const = |col: usize, v: &Value| -> RelResult<()> {
        let dom = resolved.product_schema.domain(col);
        if v.domain() != dom {
            return Err(RelError::TypeMismatch {
                expected: format!("{dom} in {}", resolved.product_schema.column(col).qual),
                found: format!("{v} ({})", v.domain()),
            });
        }
        Ok(())
    };
    let check_cols = |a: usize, b: usize| -> RelResult<()> {
        let (da, db) = (
            resolved.product_schema.domain(a),
            resolved.product_schema.domain(b),
        );
        if da != db {
            return Err(RelError::TypeMismatch {
                expected: da.to_string(),
                found: db.to_string(),
            });
        }
        Ok(())
    };
    let mut pending: Vec<(usize, CompOp, Result<usize, Value>)> = Vec::new();
    for a in &q.atoms {
        let lhs = resolved.column_of(&a.lhs, scheme)?;
        match (&a.rhs, a.op) {
            (CalcTerm::Attr(r), CompOp::Eq) => {
                let rhs = resolved.column_of(r, scheme)?;
                check_cols(lhs, rhs)?;
                classes.union(lhs, rhs)?;
            }
            (CalcTerm::Const(v), CompOp::Eq) => {
                check_const(lhs, v)?;
                classes.bind(lhs, v.clone())?;
            }
            (CalcTerm::Attr(r), op) => {
                let rhs = resolved.column_of(r, scheme)?;
                check_cols(lhs, rhs)?;
                pending.push((lhs, op, Ok(rhs)));
            }
            (CalcTerm::Const(v), op) => {
                check_const(lhs, v)?;
                pending.push((lhs, op, Err(v.clone())));
            }
        }
    }

    // Phase 2: resolve retained comparisons against class constants;
    // pre-evaluate fully-constant ones (unsatisfiable → error).
    // `needs_var` marks classes that must surface as named variables.
    let mut needs_var = vec![false; arity];
    let mut comparisons_raw: Vec<(usize, CompOp, Result<usize, Value>)> = Vec::new();
    for (lhs, op, rhs) in pending {
        let lr = classes.find(lhs);
        let lc = classes.constant[lr].clone();
        match rhs {
            Ok(rcol) => {
                let rr = classes.find(rcol);
                let rc = classes.constant[rr].clone();
                match (lc, rc) {
                    (Some(x), Some(y)) => {
                        if !op.eval(&x, &y)? {
                            return Err(RelError::Invalid(format!(
                                "unsatisfiable view: {x} {op} {y}"
                            )));
                        }
                    }
                    (Some(x), None) => {
                        needs_var[rr] = true;
                        comparisons_raw.push((rr, op.flip(), Err(x)));
                    }
                    (None, Some(y)) => {
                        needs_var[lr] = true;
                        comparisons_raw.push((lr, op, Err(y)));
                    }
                    (None, None) => {
                        needs_var[lr] = true;
                        needs_var[rr] = true;
                        comparisons_raw.push((lr, op, Ok(rr)));
                    }
                }
            }
            Err(v) => match lc {
                Some(x) => {
                    if !op.eval(&x, &v)? {
                        return Err(RelError::Invalid(format!(
                            "unsatisfiable view: {x} {op} {v}"
                        )));
                    }
                }
                None => {
                    needs_var[lr] = true;
                    comparisons_raw.push((lr, op, Err(v)));
                }
            },
        }
    }

    // A class also needs a variable when it spans several positions
    // (shared variable) — count positions per root.
    let mut position_count = vec![0usize; arity];
    for col in 0..arity {
        let r = classes.find(col);
        position_count[r] += 1;
    }
    for r in 0..arity {
        if position_count[r] > 1 {
            needs_var[r] = true;
        }
    }

    // Assign variable ids in first-appearance (column) order.
    let mut var_of_root: Vec<Option<VarId>> = vec![None; arity];
    let mut next: VarId = 1;
    for col in 0..arity {
        let r = classes.find(col);
        if needs_var[r] && classes.constant[r].is_none() && var_of_root[r].is_none() {
            var_of_root[r] = Some(next);
            next += 1;
        }
    }

    // Emit membership atoms in factor order.
    let mut atoms = Vec::with_capacity(resolved.factors.len());
    for (fi, (rel, _occ)) in resolved.factors.iter().enumerate() {
        let base_arity = scheme.schema_of(rel)?.arity();
        let offset = resolved.factor_offsets[fi];
        let mut terms = Vec::with_capacity(base_arity);
        let mut starred = Vec::with_capacity(base_arity);
        for k in 0..base_arity {
            let col = offset + k;
            let r = classes.find(col);
            starred.push(classes.head[r]);
            terms.push(match (&classes.constant[r], var_of_root[r]) {
                (Some(v), _) => VarTerm::Const(v.clone()),
                (None, Some(x)) => VarTerm::Var(x),
                (None, None) => VarTerm::Anon,
            });
        }
        atoms.push(MembershipAtom {
            rel: rel.clone(),
            terms,
            starred,
        });
    }

    // Emit retained comparisons with variable ids.
    let comparisons = comparisons_raw
        .into_iter()
        .map(|(lroot, op, rhs)| {
            let lhs = var_of_root[lroot].expect("needs_var class has id");
            let rhs = match rhs {
                Ok(rroot) => CompRhs::Var(var_of_root[rroot].expect("needs_var class has id")),
                Err(v) => CompRhs::Const(v),
            };
            VarComparison { lhs, op, rhs }
        })
        .collect();

    Ok(NormalizedView {
        name,
        atoms,
        comparisons,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{AttrRef, ConjunctiveQuery};
    use motro_rel::Domain;

    fn scheme() -> DbSchema {
        let mut s = DbSchema::new();
        s.add_relation(
            "EMPLOYEE",
            &[
                ("NAME", Domain::Str),
                ("TITLE", Domain::Str),
                ("SALARY", Domain::Int),
            ],
        )
        .unwrap();
        s.add_relation(
            "PROJECT",
            &[
                ("NUMBER", Domain::Str),
                ("SPONSOR", Domain::Str),
                ("BUDGET", Domain::Int),
            ],
        )
        .unwrap();
        s.add_relation(
            "ASSIGNMENT",
            &[("E_NAME", Domain::Str), ("P_NO", Domain::Str)],
        )
        .unwrap();
        s
    }

    /// SAE = names and salaries of all employees → meta-tuple (*, ⊔, *).
    #[test]
    fn sae_normalization() {
        let q = ConjunctiveQuery::view("SAE")
            .target("EMPLOYEE", "NAME")
            .target("EMPLOYEE", "SALARY")
            .build();
        let v = normalize(&q, &scheme()).unwrap();
        assert_eq!(v.atoms.len(), 1);
        let a = &v.atoms[0];
        assert_eq!(a.terms, vec![VarTerm::Anon, VarTerm::Anon, VarTerm::Anon]);
        assert_eq!(a.starred, vec![true, false, true]);
        assert!(v.comparisons.is_empty());
    }

    /// PSA = projects sponsored by Acme → meta-tuple (*, Acme*, *).
    #[test]
    fn psa_normalization() {
        let q = ConjunctiveQuery::view("PSA")
            .target("PROJECT", "NUMBER")
            .target("PROJECT", "SPONSOR")
            .target("PROJECT", "BUDGET")
            .where_const(AttrRef::new("PROJECT", "SPONSOR"), CompOp::Eq, "Acme")
            .build();
        let v = normalize(&q, &scheme()).unwrap();
        let a = &v.atoms[0];
        assert_eq!(
            a.terms,
            vec![
                VarTerm::Anon,
                VarTerm::Const(Value::str("Acme")),
                VarTerm::Anon
            ]
        );
        assert_eq!(a.starred, vec![true, true, true]);
        assert!(v.comparisons.is_empty());
    }

    /// ELP: the paper's Figure 1 rows
    /// EMPLOYEE': (x₁*, *, ⊔), PROJECT': (x₂*, ⊔, x₃*),
    /// ASSIGNMENT': (x₁*, x₂*), COMPARISON: x₃ ≥ 250000.
    #[test]
    fn elp_normalization() {
        let q = ConjunctiveQuery::view("ELP")
            .target("EMPLOYEE", "NAME")
            .target("EMPLOYEE", "TITLE")
            .target("PROJECT", "NUMBER")
            .target("PROJECT", "BUDGET")
            .where_attr(
                AttrRef::new("EMPLOYEE", "NAME"),
                CompOp::Eq,
                AttrRef::new("ASSIGNMENT", "E_NAME"),
            )
            .where_attr(
                AttrRef::new("PROJECT", "NUMBER"),
                CompOp::Eq,
                AttrRef::new("ASSIGNMENT", "P_NO"),
            )
            .where_const(AttrRef::new("PROJECT", "BUDGET"), CompOp::Ge, 250_000)
            .build();
        let v = normalize(&q, &scheme()).unwrap();
        assert_eq!(v.atoms.len(), 3);
        let emp = &v.atoms[0];
        assert_eq!(emp.rel, "EMPLOYEE");
        assert!(matches!(emp.terms[0], VarTerm::Var(_)));
        assert_eq!(emp.terms[1], VarTerm::Anon);
        assert_eq!(emp.terms[2], VarTerm::Anon);
        assert_eq!(emp.starred, vec![true, true, false]);

        let proj = &v.atoms[1];
        assert_eq!(proj.rel, "PROJECT");
        assert!(matches!(proj.terms[0], VarTerm::Var(_)));
        assert_eq!(proj.terms[1], VarTerm::Anon);
        assert!(matches!(proj.terms[2], VarTerm::Var(_)));
        assert_eq!(proj.starred, vec![true, false, true]);

        let asg = &v.atoms[2];
        assert_eq!(asg.rel, "ASSIGNMENT");
        // E_NAME shares NAME's variable; P_NO shares NUMBER's — both
        // starred because their classes contain head positions.
        assert_eq!(asg.terms[0], emp.terms[0]);
        assert_eq!(asg.terms[1], proj.terms[0]);
        assert_eq!(asg.starred, vec![true, true]);

        assert_eq!(v.comparisons.len(), 1);
        let c = &v.comparisons[0];
        assert_eq!(c.op, CompOp::Ge);
        assert_eq!(c.rhs, CompRhs::Const(Value::int(250_000)));
        // The comparison's variable is PROJECT.BUDGET's variable.
        assert_eq!(VarTerm::Var(c.lhs), proj.terms[2]);
    }

    /// EST: two EMPLOYEE occurrences sharing a TITLE variable:
    /// (*, x₄*, ⊔) twice.
    #[test]
    fn est_normalization() {
        let q = ConjunctiveQuery::view("EST")
            .target_occ("EMPLOYEE", 1, "NAME")
            .target_occ("EMPLOYEE", 2, "NAME")
            .target_occ("EMPLOYEE", 1, "TITLE")
            .where_attr(
                AttrRef::occ("EMPLOYEE", 1, "TITLE"),
                CompOp::Eq,
                AttrRef::occ("EMPLOYEE", 2, "TITLE"),
            )
            .build();
        let v = normalize(&q, &scheme()).unwrap();
        assert_eq!(v.atoms.len(), 2);
        let (a, b) = (&v.atoms[0], &v.atoms[1]);
        assert_eq!(a.terms[0], VarTerm::Anon);
        assert!(a.starred[0]);
        assert!(matches!(a.terms[1], VarTerm::Var(_)));
        assert_eq!(a.terms[1], b.terms[1]);
        // TITLE:1 is a head (target), so both shared positions star.
        assert!(a.starred[1]);
        assert!(b.starred[1]);
        // NAME:2 is a head of atom b.
        assert!(b.starred[0]);
        // SALARY positions blank, unstarred.
        assert_eq!(a.terms[2], VarTerm::Anon);
        assert!(!a.starred[2]);
        assert!(v.comparisons.is_empty());
    }

    #[test]
    fn ill_typed_constants_rejected_at_definition() {
        let q = ConjunctiveQuery::view("BAD")
            .target("EMPLOYEE", "NAME")
            .where_const(AttrRef::new("EMPLOYEE", "SALARY"), CompOp::Eq, "five")
            .build();
        assert!(matches!(
            normalize(&q, &scheme()),
            Err(RelError::TypeMismatch { .. })
        ));
        let q = ConjunctiveQuery::view("BAD2")
            .target("EMPLOYEE", "NAME")
            .where_attr(
                AttrRef::new("EMPLOYEE", "NAME"),
                CompOp::Eq,
                AttrRef::new("EMPLOYEE", "SALARY"),
            )
            .build();
        assert!(matches!(
            normalize(&q, &scheme()),
            Err(RelError::TypeMismatch { .. })
        ));
    }

    #[test]
    fn constant_conflict_is_unsatisfiable() {
        let q = ConjunctiveQuery::view("BAD")
            .target("PROJECT", "NUMBER")
            .where_const(AttrRef::new("PROJECT", "SPONSOR"), CompOp::Eq, "Acme")
            .where_const(AttrRef::new("PROJECT", "SPONSOR"), CompOp::Eq, "Apex")
            .build();
        assert!(normalize(&q, &scheme()).is_err());
    }

    #[test]
    fn constant_comparison_pre_evaluated() {
        // SPONSOR = Acme and SPONSOR != Acme → unsatisfiable.
        let q = ConjunctiveQuery::view("BAD")
            .target("PROJECT", "NUMBER")
            .where_const(AttrRef::new("PROJECT", "SPONSOR"), CompOp::Eq, "Acme")
            .where_const(AttrRef::new("PROJECT", "SPONSOR"), CompOp::Ne, "Acme")
            .build();
        assert!(normalize(&q, &scheme()).is_err());

        // SPONSOR = Acme and SPONSOR != Apex → satisfiable, comparison
        // absorbed.
        let q = ConjunctiveQuery::view("OK")
            .target("PROJECT", "NUMBER")
            .where_const(AttrRef::new("PROJECT", "SPONSOR"), CompOp::Eq, "Acme")
            .where_const(AttrRef::new("PROJECT", "SPONSOR"), CompOp::Ne, "Apex")
            .build();
        let v = normalize(&q, &scheme()).unwrap();
        assert!(v.comparisons.is_empty());
    }

    #[test]
    fn var_var_comparison_retained() {
        // Employees of occurrence 1 earning more than occurrence 2.
        let q = ConjunctiveQuery::view("RICHER")
            .target_occ("EMPLOYEE", 1, "NAME")
            .target_occ("EMPLOYEE", 2, "NAME")
            .where_attr(
                AttrRef::occ("EMPLOYEE", 1, "SALARY"),
                CompOp::Gt,
                AttrRef::occ("EMPLOYEE", 2, "SALARY"),
            )
            .build();
        let v = normalize(&q, &scheme()).unwrap();
        assert_eq!(v.comparisons.len(), 1);
        assert!(matches!(v.comparisons[0].rhs, CompRhs::Var(_)));
        // Both SALARY positions surface as (distinct) variables.
        assert!(matches!(v.atoms[0].terms[2], VarTerm::Var(_)));
        assert!(matches!(v.atoms[1].terms[2], VarTerm::Var(_)));
        assert_ne!(v.atoms[0].terms[2], v.atoms[1].terms[2]);
    }

    #[test]
    fn const_on_left_of_comparison_flips() {
        // 250000 <= BUDGET written as BUDGET >= 250000 after the flip.
        let q = ConjunctiveQuery::view("V")
            .target("PROJECT", "NUMBER")
            .where_attr(
                AttrRef::new("PROJECT", "BUDGET"),
                CompOp::Le,
                AttrRef::new("PROJECT", "BUDGET"),
            )
            .build();
        // BUDGET <= BUDGET is a self-comparison on one class: retained
        // conservatively as a var-var comparison on the same variable.
        let v = normalize(&q, &scheme()).unwrap();
        assert_eq!(v.comparisons.len(), 1);
    }

    #[test]
    fn var_count_and_drc_rendering() {
        let q = ConjunctiveQuery::view("PSA")
            .target("PROJECT", "NUMBER")
            .where_const(AttrRef::new("PROJECT", "BUDGET"), CompOp::Ge, 250_000)
            .build();
        let v = normalize(&q, &scheme()).unwrap();
        assert_eq!(v.var_count(), 1);
        let s = v.to_drc_string();
        assert!(s.contains("in PROJECT"), "{s}");
        assert!(s.contains(">= 250000"), "{s}");
    }

    #[test]
    fn transitive_equality_merges_classes() {
        // NAME = E_NAME and E_NAME = const  →  NAME bound to const too.
        let q = ConjunctiveQuery::view("V")
            .target("EMPLOYEE", "TITLE")
            .where_attr(
                AttrRef::new("EMPLOYEE", "NAME"),
                CompOp::Eq,
                AttrRef::new("ASSIGNMENT", "E_NAME"),
            )
            .where_const(AttrRef::new("ASSIGNMENT", "E_NAME"), CompOp::Eq, "Jones")
            .build();
        let v = normalize(&q, &scheme()).unwrap();
        assert_eq!(v.atoms[0].terms[0], VarTerm::Const(Value::str("Jones")));
        assert_eq!(v.atoms[1].terms[0], VarTerm::Const(Value::str("Jones")));
    }
}
