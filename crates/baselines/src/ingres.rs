//! The INGRES query-modification algorithm (Stonebraker & Wong, 1974).
//!
//! Permissions ("interactions" in the original) are granted **per user,
//! per single relation**: an attribute set and a qualification over
//! that relation. Given a query, the algorithm:
//!
//! 1. for each referenced relation occurrence, collects the attributes
//!    the query uses there (in targets and qualification);
//! 2. looks for a permission whose attribute set **contains** that use
//!    set; if none exists the query is *rejected altogether* — this is
//!    the asymmetry Motro criticizes: a request for `A₁, A₂, A₃` when
//!    `A₁, A₂ where P` is permitted is denied rather than reduced;
//! 3. otherwise conjoins the permission's qualification into the query
//!    and executes the modified query.
//!
//! [`IngresStore::modify`] applies the *first* covering permission per
//! relation (a documented simplification); the original OR-combines
//! every covering permission's qualification, which a conjunctive
//! engine cannot express in one statement —
//! [`IngresStore::modify_all`]/[`IngresStore::execute_union`] implement
//! the OR faithfully as a union of modified conjunctive queries.
//! Permissions reference a single relation, exactly as the original
//! requires ("it is not possible to grant permissions to views of
//! several relations" — Motro, Section 1).

use motro_rel::{DbSchema, RelResult, Value};
use motro_views::{AttrRef, CalcAtom, CalcTerm, ConjunctiveQuery};
use std::collections::BTreeSet;

/// A single-relation permission: user, relation, permitted attributes,
/// and a qualification over that relation's attributes.
#[derive(Debug, Clone, PartialEq)]
pub struct IngresPermission {
    /// The grantee.
    pub user: String,
    /// The relation.
    pub rel: String,
    /// Attributes the user may touch.
    pub attrs: BTreeSet<String>,
    /// Qualification conjoined into queries; each atom's references must
    /// stay within `rel` (attribute name, comparator, constant).
    pub qual: Vec<(String, motro_rel::CompOp, Value)>,
}

/// The outcome of query modification.
#[derive(Debug, Clone, PartialEq)]
pub enum IngresOutcome {
    /// The (possibly modified) query the engine may run.
    Modified(ConjunctiveQuery),
    /// Rejected: some relation's use set was not covered by any
    /// permission.
    Rejected {
        /// The offending relation.
        rel: String,
        /// The attributes the query needed there.
        needed: BTreeSet<String>,
    },
}

impl IngresOutcome {
    /// Did the query pass?
    pub fn is_permitted(&self) -> bool {
        matches!(self, IngresOutcome::Modified(_))
    }
}

/// One relation occurrence of a query together with every permission
/// that covers its use set.
type CoveredOccurrence<'a> = ((String, u32), Vec<&'a IngresPermission>);

/// The permission store plus the modification algorithm.
#[derive(Debug, Clone, Default)]
pub struct IngresStore {
    perms: Vec<IngresPermission>,
}

impl IngresStore {
    /// An empty store.
    pub fn new() -> Self {
        IngresStore::default()
    }

    /// Record a permission (no validation against a scheme here; see
    /// [`IngresStore::validate`]).
    pub fn permit(&mut self, p: IngresPermission) {
        self.perms.push(p);
    }

    /// Validate every permission against a database scheme.
    pub fn validate(&self, scheme: &DbSchema) -> RelResult<()> {
        for p in &self.perms {
            let schema = scheme.schema_of(&p.rel)?;
            for a in &p.attrs {
                schema.index_of_attr(a)?;
            }
            for (a, _, _) in &p.qual {
                schema.index_of_attr(a)?;
            }
        }
        Ok(())
    }

    /// The permissions of one user (insertion order).
    pub fn permissions_of(&self, user: &str) -> Vec<&IngresPermission> {
        self.perms.iter().filter(|p| p.user == user).collect()
    }

    /// Total stored permissions.
    pub fn len(&self) -> usize {
        self.perms.len()
    }

    /// Is the store empty?
    pub fn is_empty(&self) -> bool {
        self.perms.is_empty()
    }

    /// The attributes `query` uses for each relation occurrence.
    fn use_sets(query: &ConjunctiveQuery) -> Vec<((String, u32), BTreeSet<String>)> {
        let mut out: Vec<((String, u32), BTreeSet<String>)> = Vec::new();
        let mut add = |r: &AttrRef| {
            let key = (r.rel.clone(), r.occurrence);
            match out.iter_mut().find(|(k, _)| *k == key) {
                Some((_, set)) => {
                    set.insert(r.attr.clone());
                }
                None => {
                    out.push((key, BTreeSet::from([r.attr.clone()])));
                }
            }
        };
        for t in &query.targets {
            add(t);
        }
        for a in &query.atoms {
            add(&a.lhs);
            if let CalcTerm::Attr(r) = &a.rhs {
                add(r);
            }
        }
        out
    }

    /// All covering permissions per relation occurrence, or the first
    /// uncovered occurrence.
    fn covering(
        &self,
        user: &str,
        query: &ConjunctiveQuery,
    ) -> Result<Vec<CoveredOccurrence<'_>>, (String, BTreeSet<String>)> {
        let mut out = Vec::new();
        for ((rel, occurrence), needed) in Self::use_sets(query) {
            let perms: Vec<&IngresPermission> = self
                .perms
                .iter()
                .filter(|p| p.user == user && p.rel == rel && needed.is_subset(&p.attrs))
                .collect();
            if perms.is_empty() {
                return Err((rel, needed));
            }
            out.push(((rel, occurrence), perms));
        }
        Ok(out)
    }

    /// The original OR-combining semantics: one modified conjunctive
    /// query per choice of covering permission across the query's
    /// relation occurrences; their union is the answer.
    pub fn modify_all(
        &self,
        user: &str,
        query: &ConjunctiveQuery,
    ) -> Option<Vec<ConjunctiveQuery>> {
        let covering = self.covering(user, query).ok()?;
        let mut variants: Vec<ConjunctiveQuery> = vec![query.clone()];
        for ((rel, occurrence), perms) in covering {
            let mut next = Vec::with_capacity(variants.len() * perms.len());
            for v in &variants {
                for perm in &perms {
                    let mut m = v.clone();
                    for (attr, op, value) in &perm.qual {
                        m.atoms.push(CalcAtom {
                            lhs: AttrRef::occ(&rel, occurrence, attr),
                            op: *op,
                            rhs: CalcTerm::Const(value.clone()),
                        });
                    }
                    next.push(m);
                }
            }
            variants = next;
        }
        Some(variants)
    }

    /// Execute the OR-combined modification: the union of every
    /// variant's answer. `None` when the query is rejected.
    pub fn execute_union(
        &self,
        user: &str,
        query: &ConjunctiveQuery,
        db: &motro_rel::Database,
    ) -> motro_rel::RelResult<Option<motro_rel::Relation>> {
        let Some(variants) = self.modify_all(user, query) else {
            return Ok(None);
        };
        let mut acc: Option<motro_rel::Relation> = None;
        for v in variants {
            let plan = motro_views::compile(&v, db.schema())?;
            let ans = plan.execute(db)?;
            acc = Some(match acc {
                None => ans,
                Some(a) => motro_rel::algebra::union(&a, &ans)?,
            });
        }
        Ok(acc)
    }

    /// Run the query-modification algorithm for `user`.
    pub fn modify(&self, user: &str, query: &ConjunctiveQuery) -> IngresOutcome {
        let mut modified = query.clone();
        for ((rel, occurrence), needed) in Self::use_sets(query) {
            let Some(perm) = self
                .perms
                .iter()
                .find(|p| p.user == user && p.rel == rel && needed.is_subset(&p.attrs))
            else {
                return IngresOutcome::Rejected { rel, needed };
            };
            for (attr, op, value) in &perm.qual {
                modified.atoms.push(CalcAtom {
                    lhs: AttrRef::occ(&rel, occurrence, attr),
                    op: *op,
                    rhs: CalcTerm::Const(value.clone()),
                });
            }
        }
        IngresOutcome::Modified(modified)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use motro_rel::{tuple, CompOp, Database, Domain};
    use motro_views::compile;

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
        s
    }

    fn db() -> Database {
        let mut db = Database::new(scheme());
        db.insert_all(
            "EMPLOYEE",
            vec![
                tuple!["Jones", "manager", 26_000],
                tuple!["Brown", "engineer", 32_000],
            ],
        )
        .unwrap();
        db
    }

    fn store() -> IngresStore {
        let mut s = IngresStore::new();
        // Alice: NAME and TITLE of employees earning under 30k.
        s.permit(IngresPermission {
            user: "alice".into(),
            rel: "EMPLOYEE".into(),
            attrs: ["NAME", "TITLE", "SALARY"].map(str::to_owned).into(),
            qual: vec![("SALARY".into(), CompOp::Lt, Value::int(30_000))],
        });
        s
    }

    #[test]
    fn validate_checks_attributes() {
        let s = store();
        assert!(s.validate(&scheme()).is_ok());
        let mut bad = IngresStore::new();
        bad.permit(IngresPermission {
            user: "x".into(),
            rel: "EMPLOYEE".into(),
            attrs: ["WAGE".to_owned()].into(),
            qual: vec![],
        });
        assert!(bad.validate(&scheme()).is_err());
    }

    #[test]
    fn modification_conjoins_qualification() {
        let s = store();
        let q = ConjunctiveQuery::retrieve()
            .target("EMPLOYEE", "NAME")
            .build();
        let IngresOutcome::Modified(m) = s.modify("alice", &q) else {
            panic!("expected modified");
        };
        assert_eq!(m.atoms.len(), 1);
        // Executing the modified query hides the manager? No — hides the
        // 32k engineer.
        let plan = compile(&m, &scheme()).unwrap();
        let out = plan.execute(&db()).unwrap();
        assert_eq!(out.len(), 1);
        assert!(out.contains(&tuple!["Jones"]));
    }

    #[test]
    fn covered_superset_request_is_rejected_not_reduced() {
        // Motro's critique: permitted (A₁, A₂) with P, requesting
        // (A₁, A₂, A₃) is denied altogether.
        let mut s = IngresStore::new();
        s.permit(IngresPermission {
            user: "alice".into(),
            rel: "EMPLOYEE".into(),
            attrs: ["NAME", "TITLE"].map(str::to_owned).into(),
            qual: vec![],
        });
        let q = ConjunctiveQuery::retrieve()
            .target("EMPLOYEE", "NAME")
            .target("EMPLOYEE", "TITLE")
            .target("EMPLOYEE", "SALARY")
            .build();
        let out = s.modify("alice", &q);
        assert!(matches!(out, IngresOutcome::Rejected { .. }));
        // The two-attribute request passes.
        let q2 = ConjunctiveQuery::retrieve()
            .target("EMPLOYEE", "NAME")
            .target("EMPLOYEE", "TITLE")
            .build();
        assert!(s.modify("alice", &q2).is_permitted());
    }

    #[test]
    fn qualification_attrs_count_toward_use_set() {
        // A query *filtering* on SALARY needs SALARY in the permission,
        // even if it only projects NAME.
        let mut s = IngresStore::new();
        s.permit(IngresPermission {
            user: "alice".into(),
            rel: "EMPLOYEE".into(),
            attrs: ["NAME".to_owned()].into(),
            qual: vec![],
        });
        let q = ConjunctiveQuery::retrieve()
            .target("EMPLOYEE", "NAME")
            .where_const(AttrRef::new("EMPLOYEE", "SALARY"), CompOp::Gt, 0)
            .build();
        assert!(!s.modify("alice", &q).is_permitted());
    }

    #[test]
    fn multi_relation_queries_need_every_relation_covered() {
        let s = store();
        let q = ConjunctiveQuery::retrieve()
            .target("EMPLOYEE", "NAME")
            .target("PROJECT", "NUMBER")
            .build();
        let out = s.modify("alice", &q);
        assert!(matches!(
            out,
            IngresOutcome::Rejected { ref rel, .. } if rel == "PROJECT"
        ));
    }

    #[test]
    fn self_join_occurrences_each_get_the_qualification() {
        let s = store();
        let q = ConjunctiveQuery::retrieve()
            .target_occ("EMPLOYEE", 1, "NAME")
            .target_occ("EMPLOYEE", 2, "NAME")
            .where_attr(
                AttrRef::occ("EMPLOYEE", 1, "TITLE"),
                CompOp::Eq,
                AttrRef::occ("EMPLOYEE", 2, "TITLE"),
            )
            .build();
        let IngresOutcome::Modified(m) = s.modify("alice", &q) else {
            panic!("expected modified");
        };
        // One added qualification per occurrence.
        assert_eq!(m.atoms.len(), 1 + 2);
        let plan = compile(&m, &scheme()).unwrap();
        let out = plan.execute(&db()).unwrap();
        // Only Jones (under 30k) survives, paired with himself.
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn first_covering_permission_wins() {
        let mut s = store();
        s.permit(IngresPermission {
            user: "alice".into(),
            rel: "EMPLOYEE".into(),
            attrs: ["NAME", "TITLE", "SALARY"].map(str::to_owned).into(),
            qual: vec![],
        });
        // The earlier, restrictive permission is chosen (documented
        // simplification).
        let q = ConjunctiveQuery::retrieve()
            .target("EMPLOYEE", "NAME")
            .build();
        let IngresOutcome::Modified(m) = s.modify("alice", &q) else {
            panic!("expected modified");
        };
        assert_eq!(m.atoms.len(), 1);
    }

    #[test]
    fn or_combination_unions_covering_permissions() {
        let mut s = IngresStore::new();
        // Two permissions with disjoint row scopes.
        s.permit(IngresPermission {
            user: "alice".into(),
            rel: "EMPLOYEE".into(),
            attrs: ["NAME", "SALARY"].map(str::to_owned).into(),
            qual: vec![("SALARY".into(), CompOp::Lt, Value::int(25_000))],
        });
        s.permit(IngresPermission {
            user: "alice".into(),
            rel: "EMPLOYEE".into(),
            attrs: ["NAME", "SALARY"].map(str::to_owned).into(),
            qual: vec![("SALARY".into(), CompOp::Gt, Value::int(30_000))],
        });
        let q = ConjunctiveQuery::retrieve()
            .target("EMPLOYEE", "NAME")
            .target("EMPLOYEE", "SALARY")
            .build();
        // First-match simplification sees only the < 25k slice…
        let IngresOutcome::Modified(m) = s.modify("alice", &q) else {
            panic!();
        };
        let first = compile(&m, &scheme()).unwrap().execute(&db()).unwrap();
        // The fixture holds Jones (26k) and Brown (32k): neither is
        // under 25k, so the first-match simplification delivers nothing.
        assert_eq!(first.len(), 0);
        // …the OR semantics union both slices: Brown (> 30k) appears.
        let all = s.execute_union("alice", &q, &db()).unwrap().unwrap();
        assert_eq!(all.len(), 1);
        assert!(!all.contains(&tuple!["Jones", 26_000]));
        assert!(all.contains(&tuple!["Brown", 32_000]));
        // An uncovered query unions to rejection.
        let qr = ConjunctiveQuery::retrieve()
            .target("PROJECT", "NUMBER")
            .build();
        assert!(s.execute_union("alice", &qr, &db()).unwrap().is_none());
    }

    #[test]
    fn unknown_user_rejected() {
        let s = store();
        let q = ConjunctiveQuery::retrieve()
            .target("EMPLOYEE", "NAME")
            .build();
        assert!(!s.modify("mallory", &q).is_permitted());
    }
}
