//! Algebra expression trees and the paper's canonical plan shape.
//!
//! Section 4 of the paper requires the meta-plan `S'` to be "transformed
//! to a sequence of products, followed by selections, and ending with
//! projections". [`CanonicalPlan`] is that normal form: an ordered list of
//! base relations, one conjunctive selection over their product schema,
//! and one final projection. [`AlgebraExpr`] is the free-form tree, with
//! [`AlgebraExpr::canonicalize`] rewriting any tree into a
//! [`CanonicalPlan`] by commuting selections and projections outward
//! (always sound for product/selection/projection trees, because columns
//! are tracked positionally through every rewrite).
//!
//! The same `CanonicalPlan` is executed twice by the authorization
//! pipeline (Figure 2): once over the actual relations (here), and once
//! over the meta-relations (`motro-core::meta_algebra`).

use crate::algebra;
use crate::database::{Database, DbSchema};
use crate::error::{RelError, RelResult};
use crate::predicate::{Predicate, PredicateAtom, Term};
use crate::relation::Relation;
use crate::schema::{RelName, RelSchema};
use std::fmt;

/// A free-form product/selection/projection expression tree.
#[derive(Debug, Clone, PartialEq)]
pub enum AlgebraExpr {
    /// A base relation reference.
    Base(RelName),
    /// Cartesian product of two subexpressions.
    Product(Box<AlgebraExpr>, Box<AlgebraExpr>),
    /// Selection over a subexpression; atom columns index the child's
    /// output schema.
    Select(Box<AlgebraExpr>, Predicate),
    /// Projection of a subexpression onto the listed child columns.
    Project(Box<AlgebraExpr>, Vec<usize>),
}

impl AlgebraExpr {
    /// Reference a base relation.
    pub fn base(name: &str) -> Self {
        AlgebraExpr::Base(name.to_owned())
    }

    /// `self × other`.
    pub fn product(self, other: AlgebraExpr) -> Self {
        AlgebraExpr::Product(Box::new(self), Box::new(other))
    }

    /// `σ_pred(self)`.
    pub fn select(self, pred: Predicate) -> Self {
        AlgebraExpr::Select(Box::new(self), pred)
    }

    /// `π_indices(self)`.
    pub fn project(self, indices: Vec<usize>) -> Self {
        AlgebraExpr::Project(Box::new(self), indices)
    }

    /// The output schema of this expression under `scheme`.
    pub fn output_schema(&self, scheme: &DbSchema) -> RelResult<RelSchema> {
        match self {
            AlgebraExpr::Base(name) => Ok(scheme.schema_of(name)?.clone()),
            AlgebraExpr::Product(l, r) => {
                Ok(l.output_schema(scheme)?.product(&r.output_schema(scheme)?))
            }
            AlgebraExpr::Select(c, _) => c.output_schema(scheme),
            AlgebraExpr::Project(c, idx) => {
                let s = c.output_schema(scheme)?;
                for &i in idx {
                    if i >= s.arity() {
                        return Err(RelError::UnknownAttribute(format!("#{i}")));
                    }
                }
                Ok(s.project(idx))
            }
        }
    }

    /// Evaluate the tree directly against a database instance.
    pub fn eval(&self, db: &Database) -> RelResult<Relation> {
        match self {
            AlgebraExpr::Base(name) => Ok(db.relation(name)?.clone()),
            AlgebraExpr::Product(l, r) => Ok(algebra::product(&l.eval(db)?, &r.eval(db)?)),
            AlgebraExpr::Select(c, p) => algebra::select(&c.eval(db)?, p),
            AlgebraExpr::Project(c, idx) => {
                let child = c.eval(db)?;
                for &i in idx {
                    if i >= child.schema().arity() {
                        return Err(RelError::UnknownAttribute(format!("#{i}")));
                    }
                }
                Ok(algebra::project(&child, idx))
            }
        }
    }

    /// Rewrite into the canonical products → selection → projection form.
    ///
    /// The rewrite tracks, for each output column of a subexpression, the
    /// column of the full base-relation product it descends from, then
    /// remaps selection atoms and composes projections accordingly.
    pub fn canonicalize(&self, scheme: &DbSchema) -> RelResult<CanonicalPlan> {
        let flat = self.flatten(scheme)?;
        Ok(CanonicalPlan {
            relations: flat.relations,
            selection: flat.selection,
            projection: flat.projection,
        })
    }

    fn flatten(&self, scheme: &DbSchema) -> RelResult<Flat> {
        match self {
            AlgebraExpr::Base(name) => {
                let arity = scheme.schema_of(name)?.arity();
                Ok(Flat {
                    relations: vec![name.clone()],
                    selection: Predicate::always(),
                    projection: (0..arity).collect(),
                })
            }
            AlgebraExpr::Product(l, r) => {
                let lf = l.flatten(scheme)?;
                let rf = r.flatten(scheme)?;
                let shift: usize = lf
                    .relations
                    .iter()
                    .map(|n| scheme.schema_of(n).map(RelSchema::arity))
                    .sum::<RelResult<usize>>()?;
                let mut relations = lf.relations;
                relations.extend(rf.relations);
                let mut selection = lf.selection;
                for mut a in rf.selection.atoms {
                    a.lhs += shift;
                    if let Term::Col(c) = &mut a.rhs {
                        *c += shift;
                    }
                    selection.atoms.push(a);
                }
                let mut projection = lf.projection;
                projection.extend(rf.projection.iter().map(|&i| i + shift));
                Ok(Flat {
                    relations,
                    selection,
                    projection,
                })
            }
            AlgebraExpr::Select(c, pred) => {
                let mut f = c.flatten(scheme)?;
                // Remap predicate columns (which index the child's output)
                // through the child's projection into product columns.
                for a in &pred.atoms {
                    let lhs = *f.projection.get(a.lhs).ok_or_else(|| {
                        RelError::UnknownAttribute(format!("#{} in selection", a.lhs))
                    })?;
                    let rhs = match &a.rhs {
                        Term::Col(i) => Term::Col(*f.projection.get(*i).ok_or_else(|| {
                            RelError::UnknownAttribute(format!("#{i} in selection"))
                        })?),
                        Term::Const(v) => Term::Const(v.clone()),
                    };
                    f.selection.atoms.push(PredicateAtom { lhs, op: a.op, rhs });
                }
                Ok(f)
            }
            AlgebraExpr::Project(c, idx) => {
                let f = c.flatten(scheme)?;
                let projection = idx
                    .iter()
                    .map(|&i| {
                        f.projection.get(i).copied().ok_or_else(|| {
                            RelError::UnknownAttribute(format!("#{i} in projection"))
                        })
                    })
                    .collect::<RelResult<Vec<usize>>>()?;
                Ok(Flat {
                    relations: f.relations,
                    selection: f.selection,
                    projection,
                })
            }
        }
    }
}

impl fmt::Display for AlgebraExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AlgebraExpr::Base(n) => write!(f, "{n}"),
            AlgebraExpr::Product(l, r) => write!(f, "({l} x {r})"),
            AlgebraExpr::Select(c, p) => write!(f, "select[{p}]({c})"),
            AlgebraExpr::Project(c, idx) => {
                let cols: Vec<String> = idx.iter().map(|i| format!("#{i}")).collect();
                write!(f, "project[{}]({c})", cols.join(","))
            }
        }
    }
}

struct Flat {
    relations: Vec<RelName>,
    selection: Predicate,
    projection: Vec<usize>,
}

/// The paper's canonical plan: products first, then one conjunctive
/// selection, then one projection.
#[derive(Debug, Clone, PartialEq)]
pub struct CanonicalPlan {
    /// Base relations in product order (repeats allowed — self-products).
    pub relations: Vec<RelName>,
    /// Conjunctive selection over the product schema.
    pub selection: Predicate,
    /// Final projection into the product schema.
    pub projection: Vec<usize>,
}

impl CanonicalPlan {
    /// Schema of the full product of [`Self::relations`].
    pub fn product_schema(&self, scheme: &DbSchema) -> RelResult<RelSchema> {
        let mut s = RelSchema::empty();
        for name in &self.relations {
            s = s.product(scheme.schema_of(name)?);
        }
        Ok(s)
    }

    /// Schema of the plan's output.
    pub fn output_schema(&self, scheme: &DbSchema) -> RelResult<RelSchema> {
        Ok(self.product_schema(scheme)?.project(&self.projection))
    }

    /// The distinct base relations the plan ranges over (self-products
    /// collapse to one entry). This is the plan's contribution to a
    /// cached mask's dependency provenance: a mask can only change when
    /// something touching one of these relations (or the user's grants)
    /// changes.
    pub fn relation_footprint(&self) -> std::collections::BTreeSet<String> {
        self.relations.iter().cloned().collect()
    }

    /// Validate the plan against `scheme`: relations exist, selection
    /// typechecks over the product schema, projection indices in range.
    pub fn validate(&self, scheme: &DbSchema) -> RelResult<()> {
        let prod = self.product_schema(scheme)?;
        self.selection.typecheck(&prod)?;
        for &i in &self.projection {
            if i >= prod.arity() {
                return Err(RelError::UnknownAttribute(format!("#{i}")));
            }
        }
        Ok(())
    }

    /// Execute over a database instance: products → selection →
    /// projection, exactly the paper's `S`.
    pub fn execute(&self, db: &Database) -> RelResult<Relation> {
        let prod_schema = self.product_schema(db.schema())?;
        self.selection.typecheck(&prod_schema)?;
        let mut acc = None;
        for name in &self.relations {
            let r = db.relation(name)?;
            acc = Some(match acc {
                None => r.clone(),
                Some(a) => algebra::product(&a, r),
            });
        }
        let prod = acc.unwrap_or_else(|| Relation::new(RelSchema::empty()));
        let selected = algebra::select(&prod, &self.selection)?;
        Ok(algebra::project(&selected, &self.projection))
    }

    /// The equivalent free-form tree.
    pub fn to_expr(&self) -> AlgebraExpr {
        let mut it = self.relations.iter();
        let first = it
            .next()
            .map(|n| AlgebraExpr::base(n))
            .unwrap_or_else(|| AlgebraExpr::Project(Box::new(AlgebraExpr::base("")), vec![]));
        let prod = it.fold(first, |acc, n| acc.product(AlgebraExpr::base(n)));
        prod.select(self.selection.clone())
            .project(self.projection.clone())
    }
}

impl fmt::Display for CanonicalPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let cols: Vec<String> = self.projection.iter().map(|i| format!("#{i}")).collect();
        write!(
            f,
            "project[{}](select[{}]({}))",
            cols.join(","),
            self.selection,
            self.relations.join(" x ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::CompOp;
    use crate::tuple;
    use crate::value::Domain;

    fn db() -> Database {
        let mut s = DbSchema::new();
        s.add_relation("R", &[("A", Domain::Str), ("B", Domain::Int)])
            .unwrap();
        s.add_relation("S", &[("C", Domain::Int)]).unwrap();
        let mut db = Database::new(s);
        db.insert_all("R", vec![tuple!["x", 1], tuple!["y", 2], tuple!["z", 3]])
            .unwrap();
        db.insert_all("S", vec![tuple![2], tuple![3]]).unwrap();
        db
    }

    #[test]
    fn base_eval_clones_relation() {
        let db = db();
        let r = AlgebraExpr::base("R").eval(&db).unwrap();
        assert_eq!(r.len(), 3);
    }

    #[test]
    fn tree_eval_join_query() {
        // project[A](select[B = C](R x S))
        let db = db();
        let e = AlgebraExpr::base("R")
            .product(AlgebraExpr::base("S"))
            .select(Predicate::atom(PredicateAtom::col_col(1, CompOp::Eq, 2)))
            .project(vec![0]);
        let out = e.eval(&db).unwrap();
        assert_eq!(out.len(), 2);
        assert!(out.contains(&tuple!["y"]));
        assert!(out.contains(&tuple!["z"]));
    }

    #[test]
    fn canonicalize_matches_tree_eval() {
        let db = db();
        // Awkward shape: selection after projection, product of projected.
        let e = AlgebraExpr::base("R")
            .project(vec![1, 0])
            .select(Predicate::atom(PredicateAtom::col_const(0, CompOp::Gt, 1)))
            .product(
                AlgebraExpr::base("S").select(Predicate::atom(PredicateAtom::col_const(
                    0,
                    CompOp::Lt,
                    3,
                ))),
            )
            .project(vec![1, 2]);
        let plan = e.canonicalize(db.schema()).unwrap();
        assert_eq!(plan.relations, vec!["R".to_owned(), "S".to_owned()]);
        let via_plan = plan.execute(&db).unwrap();
        let via_tree = e.eval(&db).unwrap();
        assert!(via_plan.set_eq(&via_tree), "{via_plan} vs {via_tree}");
    }

    #[test]
    fn canonicalize_self_product() {
        let db = db();
        let e = AlgebraExpr::base("R")
            .product(AlgebraExpr::base("R"))
            .select(Predicate::atom(PredicateAtom::col_col(1, CompOp::Eq, 3)))
            .project(vec![0, 2]);
        let plan = e.canonicalize(db.schema()).unwrap();
        assert_eq!(plan.relations.len(), 2);
        let out = plan.execute(&db).unwrap();
        assert_eq!(out.len(), 3); // each tuple pairs with itself on B
        assert!(out.contains(&tuple!["x", "x"]));
    }

    #[test]
    fn canonical_schema_and_validate() {
        let db = db();
        let plan = CanonicalPlan {
            relations: vec!["R".into(), "S".into()],
            selection: Predicate::atom(PredicateAtom::col_col(1, CompOp::Eq, 2)),
            projection: vec![0, 2],
        };
        assert!(plan.validate(db.schema()).is_ok());
        let out_schema = plan.output_schema(db.schema()).unwrap();
        assert_eq!(out_schema.arity(), 2);
        assert_eq!(out_schema.column(1).qual.attr, "C");
    }

    #[test]
    fn validate_rejects_bad_projection_and_selection() {
        let db = db();
        let bad_proj = CanonicalPlan {
            relations: vec!["R".into()],
            selection: Predicate::always(),
            projection: vec![7],
        };
        assert!(bad_proj.validate(db.schema()).is_err());
        let bad_sel = CanonicalPlan {
            relations: vec!["R".into()],
            selection: Predicate::atom(PredicateAtom::col_const(0, CompOp::Eq, 7)),
            projection: vec![0],
        };
        assert!(bad_sel.validate(db.schema()).is_err());
    }

    #[test]
    fn to_expr_round_trips() {
        let db = db();
        let plan = CanonicalPlan {
            relations: vec!["R".into(), "S".into()],
            selection: Predicate::atom(PredicateAtom::col_col(1, CompOp::Le, 2)),
            projection: vec![0, 2],
        };
        let direct = plan.execute(&db).unwrap();
        let via_expr = plan.to_expr().eval(&db).unwrap();
        assert!(direct.set_eq(&via_expr));
        let recanon = plan.to_expr().canonicalize(db.schema()).unwrap();
        assert_eq!(recanon, plan);
    }

    #[test]
    fn empty_plan_yields_nullary_relation() {
        let db = db();
        let plan = CanonicalPlan {
            relations: vec![],
            selection: Predicate::always(),
            projection: vec![],
        };
        let out = plan.execute(&db).unwrap();
        assert_eq!(out.schema().arity(), 0);
    }

    #[test]
    fn select_out_of_range_error_in_canonicalize() {
        let db = db();
        let e = AlgebraExpr::base("R")
            .project(vec![0])
            .select(Predicate::atom(PredicateAtom::col_const(1, CompOp::Eq, 1)));
        assert!(e.canonicalize(db.schema()).is_err());
    }
}
