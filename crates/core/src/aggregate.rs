//! Aggregate authorization — the Section 6 extension for "views with
//! aggregate functions".
//!
//! Two ways an aggregate request can be permitted, tried in order:
//!
//! 1. **Via a granted aggregate view** — the statistical-database
//!    capability: a user may be granted `avg(SALARY) by DEPT` *without*
//!    any row-level access. The match is deliberately conservative
//!    (sound, not complete): the request's group-by keys must equal the
//!    view's positionally, its aggregates must be among the view's, and
//!    its base may only narrow the view's base through **constant
//!    selections on group-by attributes** (narrowing through any other
//!    attribute could isolate individuals — e.g. `avg(SALARY) where
//!    NAME = Jones` under a global-average grant would reveal a single
//!    salary).
//! 2. **Derived from masks** — the user could aggregate what they can
//!    already see: the base is extended with the aggregate inputs, the
//!    ordinary mask is computed, and only rows whose key *and* input
//!    cells are all visible contribute. The outcome reports whether the
//!    aggregate is complete or restricted to the permitted subset.

use crate::authorize::AuthorizedEngine;
use crate::error::{CoreError, CoreResult};
use motro_rel::{group_by, Relation};
use motro_views::{AggregateQuery, CalcTerm};

/// How an aggregate answer was authorized.
#[derive(Debug, Clone, PartialEq)]
pub enum AggAccessMode {
    /// Matched a granted aggregate view (full data, no row access
    /// implied).
    ViaAggregateView(String),
    /// Derived from the user's row-level masks.
    Derived {
        /// Every base row contributed.
        complete: bool,
        /// Rows aggregated.
        rows_used: usize,
        /// Rows excluded (not fully visible to the user).
        rows_excluded: usize,
    },
    /// Nothing permitted: no matching aggregate view and no visible
    /// rows.
    Denied,
}

/// The outcome of an authorized aggregate retrieval.
#[derive(Debug, Clone)]
pub struct AggregateOutcome {
    /// The grouped result (empty when denied).
    pub result: Relation,
    /// How it was authorized.
    pub mode: AggAccessMode,
}

impl AggregateOutcome {
    /// Render the result with a provenance line.
    pub fn render(&self) -> String {
        let mut out = self.result.to_table();
        match &self.mode {
            AggAccessMode::ViaAggregateView(v) => {
                out.push_str(&format!("(authorized by aggregate view {v})\n"))
            }
            AggAccessMode::Derived { complete: true, .. } => {
                out.push_str("(derived from row permissions: complete)\n")
            }
            AggAccessMode::Derived {
                complete: false,
                rows_used,
                rows_excluded,
            } => out.push_str(&format!(
                "(derived from row permissions: PARTIAL — {rows_used} rows \
                 aggregated, {rows_excluded} not visible to you)\n"
            )),
            AggAccessMode::Denied => out.push_str("(denied: no permitted portion)\n"),
        }
        out
    }
}

/// Does `query` match granted aggregate view `view` under the
/// conservative rule in the module docs?
pub fn matches_aggregate_view(query: &AggregateQuery, view: &AggregateQuery) -> bool {
    // Group-by keys equal positionally.
    if query.base.targets != view.base.targets {
        return false;
    }
    // Aggregates must be among the view's.
    if !query.aggs.iter().all(|a| view.aggs.iter().any(|b| b == a)) {
        return false;
    }
    // The query must carry every view atom…
    if !view.base.atoms.iter().all(|a| query.base.atoms.contains(a)) {
        return false;
    }
    // …and any extra atom may only be a constant selection on a
    // group-by attribute.
    query.base.atoms.iter().all(|a| {
        view.base.atoms.contains(a)
            || (matches!(a.rhs, CalcTerm::Const(_)) && view.base.targets.contains(&a.lhs))
    })
}

impl<'a> AuthorizedEngine<'a> {
    /// Authorize and execute an aggregate request for `user`.
    pub fn retrieve_aggregate(
        &self,
        user: &str,
        query: &AggregateQuery,
    ) -> CoreResult<AggregateOutcome> {
        let scheme = self.database().schema();
        let compiled = query.compile(scheme)?;

        // 1. Granted aggregate views.
        for name in self.auth_store().permitted_views(user) {
            if let Some(av) = self.auth_store().aggregate_view(name) {
                if matches_aggregate_view(query, av) {
                    let answer = motro_rel::execute_optimized(&compiled.plan, self.database())?;
                    let result = group_by(&answer, &compiled.keys, &compiled.aggs)?;
                    return Ok(AggregateOutcome {
                        result,
                        mode: AggAccessMode::ViaAggregateView(name.to_owned()),
                    });
                }
            }
        }

        // 2. Derive from row-level masks: aggregate over the fully
        // visible rows of the extended base. The user receives only
        // aggregate values, so the internal mask may use the Section 6
        // extended-mask mechanism regardless of the engine's outward
        // configuration: conditions on attributes outside the aggregate
        // inputs still only ever *narrow* the contributing rows.
        let inner = AuthorizedEngine::with_config(
            self.database(),
            self.auth_store(),
            crate::authorize::RefinementConfig {
                extended_masks: true,
                ..self.config()
            },
        );
        let (mask, trace) = inner.mask_for_plan(user, &compiled.plan)?;
        // Evaluate over the (possibly widened) projection the mask was
        // computed for; a row contributes when its key and aggregate
        // input cells — the first `needed` columns — are all visible.
        let needed = compiled.plan.projection.len();
        let widened = motro_rel::CanonicalPlan {
            relations: compiled.plan.relations.clone(),
            selection: compiled.plan.selection.clone(),
            projection: trace.mask_projection.clone(),
        };
        let wide_answer = motro_rel::execute_optimized(&widened, self.database())?;
        let base_schema = compiled.plan.output_schema(self.database().schema())?;
        let mut visible = Relation::new(base_schema);
        let mut excluded_wide = std::collections::BTreeSet::new();
        for t in wide_answer.rows() {
            let cov = mask.coverage(t);
            let trimmed = t.project(&(0..needed).collect::<Vec<_>>());
            if cov[..needed].iter().all(|&v| v) {
                let _ = visible.insert(trimmed);
            } else {
                excluded_wide.insert(trimmed);
            }
        }
        // A base row is excluded only if *no* widened witness of it was
        // visible.
        let excluded = excluded_wide
            .iter()
            .filter(|t| !visible.contains(t))
            .count();
        if visible.is_empty() && excluded > 0 {
            return Ok(AggregateOutcome {
                result: Relation::new(
                    group_by(&visible, &compiled.keys, &compiled.aggs)?
                        .schema()
                        .clone(),
                ),
                mode: AggAccessMode::Denied,
            });
        }
        let rows_used = visible.len();
        let result = group_by(&visible, &compiled.keys, &compiled.aggs)?;
        Ok(AggregateOutcome {
            result,
            mode: AggAccessMode::Derived {
                complete: excluded == 0,
                rows_used,
                rows_excluded: excluded,
            },
        })
    }
}

/// Validation helper for aggregate *view definitions*: named, compiles.
pub fn validate_aggregate_view(
    q: &AggregateQuery,
    scheme: &motro_rel::DbSchema,
) -> CoreResult<String> {
    let name = q
        .base
        .name
        .clone()
        .ok_or_else(|| CoreError::Internal("aggregate view must be named".to_owned()))?;
    q.compile(scheme)?;
    Ok(name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::AuthStore;
    use motro_rel::{tuple, AggFunc, CompOp, Database, DbSchema, Domain, Value};
    use motro_views::{AttrRef, ConjunctiveQuery};

    fn world() -> Database {
        let mut s = DbSchema::new();
        s.add_relation_with_key(
            "EMP",
            &[
                ("NAME", Domain::Str),
                ("DEPT", Domain::Str),
                ("SALARY", Domain::Int),
            ],
            Some(&["NAME"]),
        )
        .unwrap();
        let mut db = Database::new(s);
        db.insert_all(
            "EMP",
            vec![
                tuple!["Ada", "eng", 120],
                tuple!["Bob", "eng", 100],
                tuple!["Cleo", "sales", 80],
            ],
        )
        .unwrap();
        db
    }

    fn avg_by_dept(name: Option<&str>) -> AggregateQuery {
        AggregateQuery {
            base: ConjunctiveQuery {
                name: name.map(str::to_owned),
                targets: vec![AttrRef::new("EMP", "DEPT")],
                atoms: vec![],
            },
            aggs: vec![(AggFunc::Avg, AttrRef::new("EMP", "SALARY"))],
        }
    }

    #[test]
    fn aggregate_view_grants_without_row_access() {
        let db = world();
        let mut store = AuthStore::new(db.schema().clone());
        store
            .define_aggregate_view(&avg_by_dept(Some("AVGSAL")))
            .unwrap();
        store.permit("AVGSAL", "u").unwrap();
        let engine = AuthorizedEngine::new(&db, &store);

        let out = engine.retrieve_aggregate("u", &avg_by_dept(None)).unwrap();
        assert_eq!(out.mode, AggAccessMode::ViaAggregateView("AVGSAL".into()));
        assert!(out.result.contains(&tuple!["eng", 110]));
        assert!(out.result.contains(&tuple!["sales", 80]));

        // The same user has NO row access.
        let rows = engine
            .retrieve(
                "u",
                &ConjunctiveQuery::retrieve().target("EMP", "SALARY").build(),
            )
            .unwrap();
        assert!(rows.masked.is_empty());
    }

    #[test]
    fn narrowing_on_group_keys_is_allowed() {
        let db = world();
        let mut store = AuthStore::new(db.schema().clone());
        store
            .define_aggregate_view(&avg_by_dept(Some("AVGSAL")))
            .unwrap();
        store.permit("AVGSAL", "u").unwrap();
        let engine = AuthorizedEngine::new(&db, &store);

        let mut q = avg_by_dept(None);
        q.base.atoms.push(motro_views::CalcAtom {
            lhs: AttrRef::new("EMP", "DEPT"),
            op: CompOp::Eq,
            rhs: CalcTerm::Const(Value::str("eng")),
        });
        let out = engine.retrieve_aggregate("u", &q).unwrap();
        assert!(matches!(out.mode, AggAccessMode::ViaAggregateView(_)));
        assert_eq!(out.result.len(), 1);
        assert!(out.result.contains(&tuple!["eng", 110]));
    }

    #[test]
    fn narrowing_on_non_key_attributes_is_refused() {
        let db = world();
        let mut store = AuthStore::new(db.schema().clone());
        store
            .define_aggregate_view(&avg_by_dept(Some("AVGSAL")))
            .unwrap();
        store.permit("AVGSAL", "u").unwrap();
        let engine = AuthorizedEngine::new(&db, &store);

        // avg(SALARY) where NAME = Ada would reveal a single salary.
        let mut q = avg_by_dept(None);
        q.base.atoms.push(motro_views::CalcAtom {
            lhs: AttrRef::new("EMP", "NAME"),
            op: CompOp::Eq,
            rhs: CalcTerm::Const(Value::str("Ada")),
        });
        let out = engine.retrieve_aggregate("u", &q).unwrap();
        assert_eq!(out.mode, AggAccessMode::Denied);
        assert!(out.result.is_empty());
    }

    #[test]
    fn different_aggregate_not_covered() {
        let db = world();
        let mut store = AuthStore::new(db.schema().clone());
        store
            .define_aggregate_view(&avg_by_dept(Some("AVGSAL")))
            .unwrap();
        store.permit("AVGSAL", "u").unwrap();
        let engine = AuthorizedEngine::new(&db, &store);
        let mut q = avg_by_dept(None);
        q.aggs = vec![(AggFunc::Min, AttrRef::new("EMP", "SALARY"))];
        let out = engine.retrieve_aggregate("u", &q).unwrap();
        assert_eq!(out.mode, AggAccessMode::Denied);
    }

    #[test]
    fn derived_mode_complete_and_partial() {
        let db = world();
        let mut store = AuthStore::new(db.schema().clone());
        // Full row view → derived, complete.
        store
            .define_view(
                &ConjunctiveQuery::view("ALL")
                    .target("EMP", "NAME")
                    .target("EMP", "DEPT")
                    .target("EMP", "SALARY")
                    .build(),
            )
            .unwrap();
        store.permit("ALL", "full").unwrap();
        // Row view restricted to eng → derived, partial.
        store
            .define_view(
                &ConjunctiveQuery::view("ENG")
                    .target("EMP", "NAME")
                    .target("EMP", "DEPT")
                    .target("EMP", "SALARY")
                    .where_const(AttrRef::new("EMP", "DEPT"), CompOp::Eq, "eng")
                    .build(),
            )
            .unwrap();
        store.permit("ENG", "part").unwrap();
        let engine = AuthorizedEngine::new(&db, &store);

        let full = engine
            .retrieve_aggregate("full", &avg_by_dept(None))
            .unwrap();
        assert_eq!(
            full.mode,
            AggAccessMode::Derived {
                complete: true,
                rows_used: 3,
                rows_excluded: 0
            }
        );
        assert!(full.result.contains(&tuple!["sales", 80]));

        let part = engine
            .retrieve_aggregate("part", &avg_by_dept(None))
            .unwrap();
        assert_eq!(
            part.mode,
            AggAccessMode::Derived {
                complete: false,
                rows_used: 2,
                rows_excluded: 1
            }
        );
        assert!(part.result.contains(&tuple!["eng", 110]));
        assert!(!part
            .result
            .iter()
            .any(|t| t.value(0) == &Value::str("sales")));
    }

    #[test]
    fn no_access_is_denied() {
        let db = world();
        let store = AuthStore::new(db.schema().clone());
        let engine = AuthorizedEngine::new(&db, &store);
        let out = engine
            .retrieve_aggregate("nobody", &avg_by_dept(None))
            .unwrap();
        assert_eq!(out.mode, AggAccessMode::Denied);
    }
}
