//! Aggregate statements: `retrieve (R.A, count(R.B)) where …`.
//!
//! An [`AggregateQuery`] wraps a conjunctive base: the base's targets
//! are the **group-by keys** and each aggregate applies to one
//! attribute of the base's relations (SQL-style implicit grouping). The
//! authorization semantics live in `motro-core::aggregate`; this module
//! only shapes and compiles the statement.

use crate::ast::{AttrRef, ConjunctiveQuery};
use crate::compile::compile;
use motro_rel::{AggFunc, CanonicalPlan, DbSchema, RelError, RelResult};
use std::fmt;

/// A grouped aggregate over a conjunctive base.
#[derive(Debug, Clone, PartialEq)]
pub struct AggregateQuery {
    /// The conjunctive base; its targets are the group-by keys (may be
    /// empty for a scalar aggregate).
    pub base: ConjunctiveQuery,
    /// The aggregates: function and input attribute.
    pub aggs: Vec<(AggFunc, AttrRef)>,
}

/// The compiled form: an extended canonical plan whose projection is
/// the group keys followed by the aggregate input columns, plus the
/// grouping spec over that plan's output.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledAggregate {
    /// Plan projecting `keys ++ agg inputs`.
    pub plan: CanonicalPlan,
    /// Key columns within the plan's output (always `0..keys`).
    pub keys: Vec<usize>,
    /// Aggregates over plan-output columns.
    pub aggs: Vec<(AggFunc, usize)>,
}

impl AggregateQuery {
    /// Compile: validates the base, appends the aggregate inputs to the
    /// projection, and positions the grouping spec.
    pub fn compile(&self, scheme: &DbSchema) -> RelResult<CompiledAggregate> {
        if self.aggs.is_empty() {
            return Err(RelError::Invalid(
                "aggregate statement without aggregates".to_owned(),
            ));
        }
        let mut extended = self.base.clone();
        // A scalar aggregate has no keys; the compiler requires at
        // least one target, which the aggregate inputs provide.
        for (_, attr) in &self.aggs {
            extended.targets.push(attr.clone());
        }
        let plan = compile(&extended, scheme)?;
        let nkeys = self.base.targets.len();
        let keys: Vec<usize> = (0..nkeys).collect();
        let aggs: Vec<(AggFunc, usize)> = self
            .aggs
            .iter()
            .enumerate()
            .map(|(i, (f, _))| (*f, nkeys + i))
            .collect();
        Ok(CompiledAggregate { plan, keys, aggs })
    }
}

impl fmt::Display for AggregateQuery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.base.name {
            Some(n) => write!(f, "view {n} (")?,
            None => write!(f, "retrieve (")?,
        }
        let mut first = true;
        for t in &self.base.targets {
            if !first {
                write!(f, ", ")?;
            }
            first = false;
            write!(f, "{t}")?;
        }
        for (func, attr) in &self.aggs {
            if !first {
                write!(f, ", ")?;
            }
            first = false;
            write!(f, "{func}({attr})")?;
        }
        write!(f, ")")?;
        for (i, a) in self.base.atoms.iter().enumerate() {
            if i == 0 {
                write!(f, " where {a}")?;
            } else {
                write!(f, " and {a}")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use motro_rel::{CompOp, Domain};

    fn scheme() -> DbSchema {
        let mut s = DbSchema::new();
        s.add_relation(
            "EMP",
            &[
                ("NAME", Domain::Str),
                ("DEPT", Domain::Str),
                ("SALARY", Domain::Int),
            ],
        )
        .unwrap();
        s
    }

    #[test]
    fn compile_positions_keys_and_aggs() {
        let q = AggregateQuery {
            base: ConjunctiveQuery::retrieve().target("EMP", "DEPT").build(),
            aggs: vec![
                (AggFunc::Count, AttrRef::new("EMP", "NAME")),
                (AggFunc::Avg, AttrRef::new("EMP", "SALARY")),
            ],
        };
        let c = q.compile(&scheme()).unwrap();
        assert_eq!(c.keys, vec![0]);
        assert_eq!(c.aggs, vec![(AggFunc::Count, 1), (AggFunc::Avg, 2)]);
        assert_eq!(c.plan.projection.len(), 3);
    }

    #[test]
    fn scalar_aggregate_compiles() {
        let q = AggregateQuery {
            base: ConjunctiveQuery {
                name: None,
                targets: vec![],
                atoms: vec![],
            },
            aggs: vec![(AggFunc::Max, AttrRef::new("EMP", "SALARY"))],
        };
        let c = q.compile(&scheme()).unwrap();
        assert!(c.keys.is_empty());
        assert_eq!(c.aggs, vec![(AggFunc::Max, 0)]);
    }

    #[test]
    fn no_aggregates_rejected() {
        let q = AggregateQuery {
            base: ConjunctiveQuery::retrieve().target("EMP", "DEPT").build(),
            aggs: vec![],
        };
        assert!(q.compile(&scheme()).is_err());
    }

    #[test]
    fn display_form() {
        let q = AggregateQuery {
            base: ConjunctiveQuery::retrieve()
                .target("EMP", "DEPT")
                .where_const(AttrRef::new("EMP", "SALARY"), CompOp::Gt, 0)
                .build(),
            aggs: vec![(AggFunc::Avg, AttrRef::new("EMP", "SALARY"))],
        };
        assert_eq!(
            q.to_string(),
            "retrieve (EMP.DEPT, avg(EMP.SALARY)) where EMP.SALARY > 0"
        );
    }
}
