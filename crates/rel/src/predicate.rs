//! Conjunctive selection predicates.
//!
//! The paper restricts views and queries to *conjunctive* expressions:
//! selection predicates are conjunctions of primitive comparisons, each of
//! the form `Aᵢ θ c` or `Aᵢ θ Aⱼ`, with θ one of `=, ≠, <, ≤, >, ≥`
//! (Section 2). At the algebra level (this module) attributes have been
//! resolved to column indices; the calculus-level attribute references
//! live in `motro-views`.

use crate::error::{RelError, RelResult};
use crate::schema::RelSchema;
use crate::tuple::Tuple;
use crate::value::Value;
use std::cmp::Ordering;
use std::fmt;

/// A comparator θ.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CompOp {
    /// `=`
    Eq,
    /// `≠`
    Ne,
    /// `<`
    Lt,
    /// `≤`
    Le,
    /// `>`
    Gt,
    /// `≥`
    Ge,
}

impl CompOp {
    /// Does `ord` (the ordering of lhs relative to rhs) satisfy θ?
    pub fn matches(self, ord: Ordering) -> bool {
        match self {
            CompOp::Eq => ord == Ordering::Equal,
            CompOp::Ne => ord != Ordering::Equal,
            CompOp::Lt => ord == Ordering::Less,
            CompOp::Le => ord != Ordering::Greater,
            CompOp::Gt => ord == Ordering::Greater,
            CompOp::Ge => ord != Ordering::Less,
        }
    }

    /// Evaluate `lhs θ rhs`, erroring on cross-domain comparison.
    pub fn eval(self, lhs: &Value, rhs: &Value) -> RelResult<bool> {
        let ord = lhs.compare(rhs).ok_or_else(|| RelError::TypeMismatch {
            expected: lhs.domain().to_string(),
            found: rhs.domain().to_string(),
        })?;
        Ok(self.matches(ord))
    }

    /// The comparator with operands swapped: `a θ b ⇔ b θ.flip() a`.
    pub fn flip(self) -> CompOp {
        match self {
            CompOp::Eq => CompOp::Eq,
            CompOp::Ne => CompOp::Ne,
            CompOp::Lt => CompOp::Gt,
            CompOp::Le => CompOp::Ge,
            CompOp::Gt => CompOp::Lt,
            CompOp::Ge => CompOp::Le,
        }
    }

    /// The logical negation: `¬(a θ b) ⇔ a θ.negate() b`.
    pub fn negate(self) -> CompOp {
        match self {
            CompOp::Eq => CompOp::Ne,
            CompOp::Ne => CompOp::Eq,
            CompOp::Lt => CompOp::Ge,
            CompOp::Le => CompOp::Gt,
            CompOp::Gt => CompOp::Le,
            CompOp::Ge => CompOp::Lt,
        }
    }

    /// All six comparators (useful for exhaustive tests and workload
    /// generation).
    pub const ALL: [CompOp; 6] = [
        CompOp::Eq,
        CompOp::Ne,
        CompOp::Lt,
        CompOp::Le,
        CompOp::Gt,
        CompOp::Ge,
    ];
}

impl fmt::Display for CompOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CompOp::Eq => "=",
            CompOp::Ne => "!=",
            CompOp::Lt => "<",
            CompOp::Le => "<=",
            CompOp::Gt => ">",
            CompOp::Ge => ">=",
        };
        write!(f, "{s}")
    }
}

/// The right-hand side of a primitive comparison: another column or a
/// constant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Term {
    /// A column index within the operand schema.
    Col(usize),
    /// A constant value.
    Const(Value),
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::Col(i) => write!(f, "#{i}"),
            Term::Const(v) => write!(f, "{v}"),
        }
    }
}

/// A primitive comparison `#lhs θ rhs`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PredicateAtom {
    /// Left-hand column index.
    pub lhs: usize,
    /// The comparator.
    pub op: CompOp,
    /// Right-hand column or constant.
    pub rhs: Term,
}

impl PredicateAtom {
    /// Column-vs-constant atom.
    pub fn col_const(lhs: usize, op: CompOp, value: impl Into<Value>) -> Self {
        PredicateAtom {
            lhs,
            op,
            rhs: Term::Const(value.into()),
        }
    }

    /// Column-vs-column atom.
    pub fn col_col(lhs: usize, op: CompOp, rhs: usize) -> Self {
        PredicateAtom {
            lhs,
            op,
            rhs: Term::Col(rhs),
        }
    }

    /// Evaluate against a tuple.
    pub fn eval(&self, tuple: &Tuple) -> RelResult<bool> {
        let l = tuple.value(self.lhs);
        match &self.rhs {
            Term::Col(r) => self.op.eval(l, tuple.value(*r)),
            Term::Const(v) => self.op.eval(l, v),
        }
    }

    /// Validate column indices and domain compatibility against `schema`.
    pub fn typecheck(&self, schema: &RelSchema) -> RelResult<()> {
        if self.lhs >= schema.arity() {
            return Err(RelError::UnknownAttribute(format!("#{}", self.lhs)));
        }
        let ld = schema.domain(self.lhs);
        let rd = match &self.rhs {
            Term::Col(r) => {
                if *r >= schema.arity() {
                    return Err(RelError::UnknownAttribute(format!("#{r}")));
                }
                schema.domain(*r)
            }
            Term::Const(v) => v.domain(),
        };
        if ld != rd {
            return Err(RelError::TypeMismatch {
                expected: ld.to_string(),
                found: rd.to_string(),
            });
        }
        Ok(())
    }

    /// Does this atom mention column `idx` (on either side)?
    pub fn mentions(&self, idx: usize) -> bool {
        self.lhs == idx || matches!(self.rhs, Term::Col(r) if r == idx)
    }
}

impl fmt::Display for PredicateAtom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{} {} {}", self.lhs, self.op, self.rhs)
    }
}

/// A conjunction of primitive comparisons. The empty conjunction is
/// `true`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Predicate {
    /// The conjuncts.
    pub atoms: Vec<PredicateAtom>,
}

impl Predicate {
    /// The always-true predicate.
    pub fn always() -> Self {
        Predicate { atoms: vec![] }
    }

    /// A single-atom predicate.
    pub fn atom(atom: PredicateAtom) -> Self {
        Predicate { atoms: vec![atom] }
    }

    /// Conjunction of atoms.
    pub fn all(atoms: Vec<PredicateAtom>) -> Self {
        Predicate { atoms }
    }

    /// Evaluate the conjunction against a tuple (short-circuiting).
    pub fn eval(&self, tuple: &Tuple) -> RelResult<bool> {
        for a in &self.atoms {
            if !a.eval(tuple)? {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// Validate every conjunct against `schema`.
    pub fn typecheck(&self, schema: &RelSchema) -> RelResult<()> {
        self.atoms.iter().try_for_each(|a| a.typecheck(schema))
    }

    /// Does any conjunct mention column `idx`?
    pub fn mentions(&self, idx: usize) -> bool {
        self.atoms.iter().any(|a| a.mentions(idx))
    }

    /// Conjoin another predicate.
    pub fn and(mut self, other: Predicate) -> Predicate {
        self.atoms.extend(other.atoms);
        self
    }
}

impl fmt::Display for Predicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.atoms.is_empty() {
            return write!(f, "true");
        }
        for (i, a) in self.atoms.iter().enumerate() {
            if i > 0 {
                write!(f, " and ")?;
            }
            write!(f, "{a}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple;
    use crate::value::Domain;

    fn schema() -> RelSchema {
        RelSchema::base(
            "R",
            &[("A", Domain::Str), ("B", Domain::Int), ("C", Domain::Int)],
        )
    }

    #[test]
    fn comparator_semantics() {
        let one = Value::int(1);
        let two = Value::int(2);
        assert!(CompOp::Lt.eval(&one, &two).unwrap());
        assert!(CompOp::Le.eval(&one, &one).unwrap());
        assert!(CompOp::Ne.eval(&one, &two).unwrap());
        assert!(!CompOp::Gt.eval(&one, &two).unwrap());
        assert!(CompOp::Ge.eval(&two, &two).unwrap());
        assert!(CompOp::Eq.eval(&two, &two).unwrap());
    }

    #[test]
    fn comparator_flip_and_negate_are_involutions() {
        for op in CompOp::ALL {
            assert_eq!(op.flip().flip(), op);
            assert_eq!(op.negate().negate(), op);
        }
    }

    #[test]
    fn flip_swaps_operands() {
        let a = Value::int(1);
        let b = Value::int(2);
        for op in CompOp::ALL {
            assert_eq!(
                op.eval(&a, &b).unwrap(),
                op.flip().eval(&b, &a).unwrap(),
                "flip mismatch for {op}"
            );
        }
    }

    #[test]
    fn negate_complements() {
        let a = Value::int(1);
        let b = Value::int(2);
        for op in CompOp::ALL {
            assert_ne!(
                op.eval(&a, &b).unwrap(),
                op.negate().eval(&a, &b).unwrap(),
                "negate mismatch for {op}"
            );
        }
    }

    #[test]
    fn cross_domain_comparison_errors() {
        assert!(CompOp::Eq.eval(&Value::int(1), &Value::str("1")).is_err());
    }

    #[test]
    fn atom_eval() {
        let t = tuple!["x", 5, 9];
        assert!(PredicateAtom::col_const(1, CompOp::Ge, 5).eval(&t).unwrap());
        assert!(PredicateAtom::col_col(1, CompOp::Lt, 2).eval(&t).unwrap());
        assert!(!PredicateAtom::col_const(0, CompOp::Eq, "y")
            .eval(&t)
            .unwrap());
    }

    #[test]
    fn predicate_conjunction_short_circuits() {
        let t = tuple!["x", 5, 9];
        let p = Predicate::all(vec![
            PredicateAtom::col_const(1, CompOp::Gt, 10),
            // would error (cross-domain) if evaluated
            PredicateAtom::col_const(0, CompOp::Eq, 3),
        ]);
        assert!(!p.eval(&t).unwrap());
    }

    #[test]
    fn empty_predicate_is_true() {
        assert!(Predicate::always().eval(&tuple![1]).unwrap());
    }

    #[test]
    fn typecheck_catches_bad_columns_and_domains() {
        let s = schema();
        assert!(PredicateAtom::col_const(9, CompOp::Eq, 1)
            .typecheck(&s)
            .is_err());
        assert!(PredicateAtom::col_col(0, CompOp::Eq, 9)
            .typecheck(&s)
            .is_err());
        assert!(PredicateAtom::col_const(0, CompOp::Eq, 1)
            .typecheck(&s)
            .is_err());
        assert!(PredicateAtom::col_col(1, CompOp::Lt, 2)
            .typecheck(&s)
            .is_ok());
        assert!(PredicateAtom::col_const(0, CompOp::Eq, "x")
            .typecheck(&s)
            .is_ok());
    }

    #[test]
    fn mentions() {
        let p = Predicate::all(vec![
            PredicateAtom::col_col(0, CompOp::Eq, 2),
            PredicateAtom::col_const(1, CompOp::Gt, 0),
        ]);
        assert!(p.mentions(0));
        assert!(p.mentions(1));
        assert!(p.mentions(2));
        assert!(!p.mentions(3));
    }

    #[test]
    fn display() {
        let p = Predicate::all(vec![
            PredicateAtom::col_const(1, CompOp::Ge, 250_000),
            PredicateAtom::col_col(0, CompOp::Eq, 2),
        ]);
        assert_eq!(p.to_string(), "#1 >= 250000 and #0 = #2");
        assert_eq!(Predicate::always().to_string(), "true");
    }
}
