//! Meta-cells and meta-tuples (paper, Section 3).
//!
//! A meta-tuple defines a *subview* — a selection and a projection — of a
//! single relation:
//!
//! * each field is a **constant**, a **shared variable**, or a **blank**
//!   `⊔` (unconstrained, existential);
//! * a `*` suffix marks the field's attribute as *projected*.
//!
//! For example `(PSA, *, Acme*, *)` in `PROJECT'` selects the tuples with
//! `SPONSOR = Acme` and projects all three attributes, while
//! `(ELP, x₁*, *, ⊔)` in `EMPLOYEE'` selects tuples whose `NAME` matches
//! the shared variable `x₁` (defined by other meta-tuples of ELP) and
//! projects `NAME` and `TITLE`.
//!
//! Beyond the paper's storage format, a [`MetaTuple`] here also carries:
//!
//! * its **constraint set** — the `COMPARISON` rows that mention its
//!   variables, kept tuple-local so derived meta-tuples (products,
//!   refined selections) evolve independently of the store;
//! * its **provenance** — the set of view names it descends from (after
//!   the self-join refinement a tuple may descend from several, shown in
//!   the paper as `EST, SAE`);
//! * its **covers** — the identities of the *stored* meta-tuples it
//!   subsumes, which drive the theorem's closure pruning ("retain only
//!   those meta-tuples that do not contain references to other
//!   meta-tuples").

use crate::constraint::ConstraintSet;
use motro_rel::Value;
use std::collections::BTreeSet;
use std::fmt;

/// Identifier of a *stored* meta-tuple within an [`crate::AuthStore`].
pub type TupleId = u32;

/// A view variable, globally unique within an [`crate::AuthStore`]
/// (per-view variables are renumbered on registration so meta-tuples of
/// different views can mix freely in products).
pub type VarId = u32;

/// The content of a meta-cell (without the star).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CellContent {
    /// Blank `⊔`: no selection condition on this attribute.
    Blank,
    /// Equality with a constant.
    Const(Value),
    /// Equality with a shared variable.
    Var(VarId),
}

/// One field of a meta-tuple: content plus the projection star.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MetaCell {
    /// Selection content.
    pub content: CellContent,
    /// Whether the attribute is projected (`*`).
    pub starred: bool,
}

impl MetaCell {
    /// A blank, unprojected cell (`⊔`).
    pub fn blank() -> Self {
        MetaCell {
            content: CellContent::Blank,
            starred: false,
        }
    }

    /// A blank, projected cell (`*`).
    pub fn star() -> Self {
        MetaCell {
            content: CellContent::Blank,
            starred: true,
        }
    }

    /// A constant cell, optionally projected.
    pub fn constant(v: impl Into<Value>, starred: bool) -> Self {
        MetaCell {
            content: CellContent::Const(v.into()),
            starred,
        }
    }

    /// A variable cell, optionally projected.
    pub fn var(x: VarId, starred: bool) -> Self {
        MetaCell {
            content: CellContent::Var(x),
            starred,
        }
    }

    /// Is the content blank?
    pub fn is_blank(&self) -> bool {
        matches!(self.content, CellContent::Blank)
    }

    /// The variable, if the content is a variable.
    pub fn as_var(&self) -> Option<VarId> {
        match self.content {
            CellContent::Var(x) => Some(x),
            _ => None,
        }
    }

    /// Paper-style rendering: `⊔` prints as empty, constants and
    /// variables by value, with a `*` suffix when projected.
    pub fn render(&self) -> String {
        let base = match &self.content {
            CellContent::Blank => String::new(),
            CellContent::Const(v) => v.to_string(),
            CellContent::Var(x) => format!("x{x}"),
        };
        if self.starred {
            format!("{base}*")
        } else {
            base
        }
    }
}

impl fmt::Display for MetaCell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.render())
    }
}

/// A meta-tuple: a subview definition plus its bookkeeping (see module
/// docs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetaTuple {
    /// View names this tuple descends from (sorted set).
    pub provenance: BTreeSet<String>,
    /// Stored meta-tuple ids this tuple subsumes.
    pub covers: BTreeSet<TupleId>,
    /// The fields.
    pub cells: Vec<MetaCell>,
    /// Tuple-local comparison constraints over the variables in `cells`.
    pub constraints: ConstraintSet,
}

impl MetaTuple {
    /// Build a meta-tuple for a single stored view row.
    pub fn new(view: &str, id: TupleId, cells: Vec<MetaCell>, constraints: ConstraintSet) -> Self {
        MetaTuple {
            provenance: BTreeSet::from([view.to_owned()]),
            covers: BTreeSet::from([id]),
            cells,
            constraints,
        }
    }

    /// Arity of the subview's relation (scheme) this tuple ranges over.
    pub fn arity(&self) -> usize {
        self.cells.len()
    }

    /// All variables appearing in cells.
    pub fn cell_vars(&self) -> BTreeSet<VarId> {
        self.cells.iter().filter_map(MetaCell::as_var).collect()
    }

    /// All variables appearing anywhere (cells or constraints).
    pub fn all_vars(&self) -> BTreeSet<VarId> {
        let mut vs = self.cell_vars();
        vs.extend(self.constraints.vars());
        vs
    }

    /// Number of cells holding variable `x`.
    pub fn var_occurrences(&self, x: VarId) -> usize {
        self.cells.iter().filter(|c| c.as_var() == Some(x)).count()
    }

    /// Concatenate with another meta-tuple (the meta-product at tuple
    /// level, Definition 1): cells concatenate, provenance and covers
    /// union, constraints merge.
    pub fn concat(&self, other: &MetaTuple) -> MetaTuple {
        let mut cells = Vec::with_capacity(self.cells.len() + other.cells.len());
        cells.extend_from_slice(&self.cells);
        cells.extend_from_slice(&other.cells);
        let mut provenance = self.provenance.clone();
        provenance.extend(other.provenance.iter().cloned());
        let mut covers = self.covers.clone();
        covers.extend(other.covers.iter().copied());
        MetaTuple {
            provenance,
            covers,
            cells,
            constraints: self.constraints.merge(&other.constraints),
        }
    }

    /// Replace every occurrence of variable `x` (in cells and
    /// constraints) with constant `v`. Returns `false` when the binding
    /// contradicts the constraints — the tuple should then be discarded.
    pub fn bind_var(&mut self, x: VarId, v: &Value) -> bool {
        for c in &mut self.cells {
            if c.as_var() == Some(x) {
                c.content = CellContent::Const(v.clone());
            }
        }
        self.constraints.bind(x, v)
    }

    /// Replace every occurrence of variable `y` with variable `x`.
    /// Returns `false` when the merged constraints are unsatisfiable.
    pub fn unify_vars(&mut self, x: VarId, y: VarId) -> bool {
        for c in &mut self.cells {
            if c.as_var() == Some(y) {
                c.content = CellContent::Var(x);
            }
        }
        self.constraints.substitute(y, x);
        !self.constraints.obviously_unsat(x)
    }

    /// Clear variable `x`: blank out its (single) cell and drop its
    /// constraint atoms. Caller must have checked the §4.2 clearing
    /// precondition (λ implies µ, sole cell occurrence, no var–var
    /// atoms).
    pub fn clear_var(&mut self, x: VarId) {
        for c in &mut self.cells {
            if c.as_var() == Some(x) {
                c.content = CellContent::Blank;
            }
        }
        self.constraints.remove_var(x);
    }

    /// Simplify: a variable occurring in exactly one cell with no
    /// constraints is an anonymous existential — equivalent to blank.
    pub fn simplify(&mut self) {
        let vars = self.cell_vars();
        for x in vars {
            if self.var_occurrences(x) == 1 && !self.constraints.mentions(x) {
                self.clear_var(x);
            }
        }
    }

    /// The dedup key: cells plus canonical constraints. Rows identical
    /// under this key are "replications" in the paper's sense and are
    /// merged (unioning provenance and covers).
    pub fn dedup_key(&self) -> (Vec<MetaCell>, ConstraintSet) {
        (self.cells.clone(), self.constraints.canonical())
    }

    /// Is any attribute projected at all? Fully star-free tuples reveal
    /// nothing and can be dropped.
    pub fn any_starred(&self) -> bool {
        self.cells.iter().any(|c| c.starred)
    }

    /// Paper-style rendering of the provenance column (`EST, SAE`).
    pub fn render_provenance(&self) -> String {
        self.provenance
            .iter()
            .cloned()
            .collect::<Vec<_>>()
            .join(", ")
    }
}

impl fmt::Display for MetaTuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] (", self.render_provenance())?;
        for (i, c) in self.cells.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{c}")?;
        }
        write!(f, ")")?;
        if !self.constraints.is_empty() {
            write!(f, " with {}", self.constraints)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraint::{ConstraintAtom, Rhs};
    use motro_rel::CompOp;

    fn cset(atoms: Vec<ConstraintAtom>) -> ConstraintSet {
        ConstraintSet::new(atoms)
    }

    #[test]
    fn cell_rendering_matches_paper_notation() {
        assert_eq!(MetaCell::blank().render(), "");
        assert_eq!(MetaCell::star().render(), "*");
        assert_eq!(MetaCell::constant("Acme", true).render(), "Acme*");
        assert_eq!(MetaCell::var(1, true).render(), "x1*");
        assert_eq!(MetaCell::var(3, false).render(), "x3");
    }

    #[test]
    fn concat_unions_bookkeeping() {
        let a = MetaTuple::new(
            "SAE",
            1,
            vec![MetaCell::star(), MetaCell::blank()],
            cset(vec![]),
        );
        let b = MetaTuple::new(
            "PSA",
            2,
            vec![MetaCell::constant("Acme", true)],
            cset(vec![]),
        );
        let c = a.concat(&b);
        assert_eq!(c.arity(), 3);
        assert_eq!(c.provenance.len(), 2);
        assert_eq!(c.covers, BTreeSet::from([1, 2]));
    }

    #[test]
    fn bind_var_rewrites_cells_and_checks_constraints() {
        let mut t = MetaTuple::new(
            "ELP",
            1,
            vec![MetaCell::var(3, true)],
            cset(vec![ConstraintAtom {
                lhs: 3,
                op: CompOp::Ge,
                rhs: Rhs::Const(Value::int(250_000)),
            }]),
        );
        assert!(t.bind_var(3, &Value::int(300_000)));
        assert_eq!(t.cells[0].content, CellContent::Const(Value::int(300_000)));
        assert!(t.constraints.is_empty());

        let mut t2 = MetaTuple::new(
            "ELP",
            1,
            vec![MetaCell::var(3, true)],
            cset(vec![ConstraintAtom {
                lhs: 3,
                op: CompOp::Ge,
                rhs: Rhs::Const(Value::int(250_000)),
            }]),
        );
        assert!(!t2.bind_var(3, &Value::int(100_000)));
    }

    #[test]
    fn clear_var_blanks_and_drops_atoms() {
        let mut t = MetaTuple::new(
            "ELP",
            1,
            vec![MetaCell::var(3, true), MetaCell::star()],
            cset(vec![ConstraintAtom {
                lhs: 3,
                op: CompOp::Ge,
                rhs: Rhs::Const(Value::int(250_000)),
            }]),
        );
        t.clear_var(3);
        assert!(t.cells[0].is_blank());
        assert!(t.cells[0].starred, "clearing keeps the star");
        assert!(t.constraints.is_empty());
    }

    #[test]
    fn simplify_blanks_anonymous_singletons() {
        let mut t = MetaTuple::new(
            "V",
            1,
            vec![
                MetaCell::var(1, true),
                MetaCell::var(2, true),
                MetaCell::var(2, false),
            ],
            cset(vec![]),
        );
        t.simplify();
        // x1 occurs once with no constraints → blanked; x2 shared → kept.
        assert!(t.cells[0].is_blank());
        assert_eq!(t.cells[1].as_var(), Some(2));
        assert_eq!(t.cells[2].as_var(), Some(2));
    }

    #[test]
    fn simplify_keeps_constrained_singletons() {
        let mut t = MetaTuple::new(
            "V",
            1,
            vec![MetaCell::var(1, true)],
            cset(vec![ConstraintAtom {
                lhs: 1,
                op: CompOp::Gt,
                rhs: Rhs::Const(Value::int(0)),
            }]),
        );
        t.simplify();
        assert_eq!(t.cells[0].as_var(), Some(1));
    }

    #[test]
    fn unify_vars_rewrites() {
        let mut t = MetaTuple::new(
            "V",
            1,
            vec![MetaCell::var(1, true), MetaCell::var(2, true)],
            cset(vec![]),
        );
        assert!(t.unify_vars(1, 2));
        assert_eq!(t.cells[0].as_var(), Some(1));
        assert_eq!(t.cells[1].as_var(), Some(1));
    }

    #[test]
    fn var_accounting() {
        let t = MetaTuple::new(
            "V",
            1,
            vec![
                MetaCell::var(1, true),
                MetaCell::var(1, false),
                MetaCell::blank(),
            ],
            cset(vec![ConstraintAtom {
                lhs: 7,
                op: CompOp::Lt,
                rhs: Rhs::Var(1),
            }]),
        );
        assert_eq!(t.cell_vars(), BTreeSet::from([1]));
        assert_eq!(t.all_vars(), BTreeSet::from([1, 7]));
        assert_eq!(t.var_occurrences(1), 2);
    }

    #[test]
    fn display_forms() {
        let t = MetaTuple::new(
            "PSA",
            1,
            vec![
                MetaCell::star(),
                MetaCell::constant("Acme", true),
                MetaCell::star(),
            ],
            cset(vec![]),
        );
        assert_eq!(t.to_string(), "[PSA] (*, Acme*, *)");
    }
}
