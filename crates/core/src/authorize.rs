//! The end-to-end authorization pipeline (paper, Figure 2 and Section 5).
//!
//! Given user `U` and query `Q`:
//!
//! 1. compile `Q` to the canonical plan `S` (products → selections →
//!    projections) and execute it over the actual relations → answer `A`;
//! 2. **prune** the meta-relations to the views `U` may access that are
//!    defined *in their entirety* within the relations `Q` references;
//! 3. run the same plan `S'` over the pruned meta-relations with the
//!    extended operators — the meta-product (with R1 padding), the
//!    theorem's closure pruning, the (four-case) meta-selections, and
//!    the meta-projection → meta-answer `A'`;
//! 4. take `A'` as the **mask**, apply it to `A`, and derive the
//!    inferred `permit` statements.
//!
//! Every refinement is individually switchable through
//! [`RefinementConfig`] for the ablation experiments; the paper-faithful
//! configuration is [`RefinementConfig::default`] (everything on).
//! [`AuthTrace`] captures the intermediate meta-relation states so the
//! worked examples of Section 5 can be reproduced table by table.

use crate::error::CoreResult;
use crate::mask::{Mask, MaskedRelation, PermitStatement};
use crate::meta_algebra::{
    meta_product_par, meta_project, meta_select_logged_par, DecisionRecord, SelectMode,
};
use crate::metatuple::MetaTuple;
use crate::store::AuthStore;
use motro_rel::{CanonicalPlan, Database, ExecConfig, Relation};
use motro_views::{compile, ConjunctiveQuery};
use std::collections::BTreeSet;

/// Switches for the Section 4 refinements (all on by default).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RefinementConfig {
    /// R1: padded meta-products (`(a₁..aₘ, ⊔..⊔)` rows).
    pub product_padding: bool,
    /// R2: four-case selection (off → plain Definition 2 conjunction).
    pub four_case_selection: bool,
    /// R3: stored self-join combinations participate as candidates.
    pub self_join: bool,
    /// The theorem's closure pruning after products. **Required for
    /// soundness**; switchable only to reproduce the paper's unpruned
    /// intermediate displays and to measure its cost.
    pub closure_pruning: bool,
    /// The Section 6 extension ("deliver views that are expressed with
    /// additional attributes"): when a surviving meta-tuple would be
    /// killed by the final projection because a *condition* field falls
    /// outside the requested attributes, extend the projection with
    /// those fields internally, evaluate the mask over the extended
    /// answer, and trim the delivered rows back to the request. Off by
    /// default (the paper-faithful behavior delivers nothing in that
    /// case).
    pub extended_masks: bool,
}

impl Default for RefinementConfig {
    fn default() -> Self {
        RefinementConfig {
            product_padding: true,
            four_case_selection: true,
            self_join: true,
            closure_pruning: true,
            extended_masks: false,
        }
    }
}

impl RefinementConfig {
    /// The unrefined baseline: Definitions 1–3 plus closure pruning
    /// only.
    pub fn plain() -> Self {
        RefinementConfig {
            product_padding: false,
            four_case_selection: false,
            self_join: false,
            closure_pruning: true,
            extended_masks: false,
        }
    }
}

/// Intermediate meta-relation states for one authorization, mirroring
/// the tables of the paper's Section 5 examples.
#[derive(Debug, Clone)]
pub struct AuthTrace {
    /// The canonical plan that was executed twice.
    pub plan: CanonicalPlan,
    /// Pruned candidates per plan factor: `(relation, meta-tuples)`.
    pub candidates: Vec<(String, Vec<MetaTuple>)>,
    /// Meta-product size before closure pruning.
    pub product_len: usize,
    /// Rows surviving the product (after closure pruning).
    pub product: Vec<MetaTuple>,
    /// Per-selection-atom R2 decision logs, in plan order (recorded only
    /// when the mask was computed with tracing — see
    /// [`AuthorizedEngine::mask_for_plan_traced`]; empty otherwise).
    pub steps: Vec<SelectionStep>,
    /// Rows surviving all selections.
    pub after_selection: Vec<MetaTuple>,
    /// The projection the mask was computed over: the plan's projection
    /// plus, under [`RefinementConfig::extended_masks`], the auxiliary
    /// condition columns appended after it.
    pub mask_projection: Vec<usize>,
    /// This request's R2 decision split across every meta-selection,
    /// indexed `[clear, retain, modify, discard, clear_fallback]`.
    /// Unlike [`AuthTrace::steps`] it is recorded even without decision
    /// logging, at no per-row rendering cost.
    pub r2_tally: [u64; 5],
}

/// One meta-selection step: the predicate atom applied and what R2
/// decided for each meta-tuple that entered it.
#[derive(Debug, Clone)]
pub struct SelectionStep {
    /// Index of the atom in the plan's selection predicate.
    pub atom_index: usize,
    /// The atom, rendered against the plan's product schema.
    pub atom: String,
    /// One record per meta-tuple that entered this selection.
    pub decisions: Vec<DecisionRecord>,
}

/// The result of an authorized retrieval.
#[derive(Debug, Clone)]
pub struct AccessOutcome {
    /// The raw answer `A` (system side — *not* what the user sees).
    pub answer: Relation,
    /// The mask `A'`.
    pub mask: Mask,
    /// The masked answer delivered to the user.
    pub masked: MaskedRelation,
    /// The inferred `permit` statements accompanying the answer.
    pub permits: Vec<PermitStatement>,
    /// Whether the mask grants the entire answer.
    pub full_access: bool,
    /// Intermediate states.
    pub trace: AuthTrace,
}

/// The authorization engine: a database instance plus an authorization
/// store.
#[derive(Debug, Clone, Copy)]
pub struct AuthorizedEngine<'a> {
    db: &'a Database,
    store: &'a AuthStore,
    config: RefinementConfig,
    exec: ExecConfig,
}

impl<'a> AuthorizedEngine<'a> {
    /// Engine with the paper-faithful default configuration.
    pub fn new(db: &'a Database, store: &'a AuthStore) -> Self {
        Self::with_config(db, store, RefinementConfig::default())
    }

    /// Engine with an explicit refinement configuration.
    pub fn with_config(db: &'a Database, store: &'a AuthStore, config: RefinementConfig) -> Self {
        Self::with_exec(db, store, config, ExecConfig::sequential())
    }

    /// Engine with explicit refinement *and* executor configurations.
    /// The executor never changes results — only how many worker
    /// threads the mask pipeline and data-side plans partition across.
    pub fn with_exec(
        db: &'a Database,
        store: &'a AuthStore,
        config: RefinementConfig,
        exec: ExecConfig,
    ) -> Self {
        AuthorizedEngine {
            db,
            store,
            config,
            exec,
        }
    }

    /// The active configuration.
    pub fn config(&self) -> RefinementConfig {
        self.config
    }

    /// The active executor configuration.
    pub fn exec(&self) -> ExecConfig {
        self.exec
    }

    /// Authorize and execute a `retrieve` statement for `user`.
    pub fn retrieve(&self, user: &str, query: &ConjunctiveQuery) -> CoreResult<AccessOutcome> {
        let plan = {
            let _stage = motro_obs::profile::stage("compile");
            compile(query, self.db.schema())?
        };
        self.retrieve_plan(user, &plan)
    }

    /// Authorize and execute a pre-compiled canonical plan. The data
    /// side runs through the optimizing executor (the paper: "for the
    /// actual relations, where optimality is essential, a different
    /// strategy may be implemented"); the meta side keeps the canonical
    /// strategy the theorem requires.
    pub fn retrieve_plan(&self, user: &str, plan: &CanonicalPlan) -> CoreResult<AccessOutcome> {
        let answer = {
            let _stage = motro_obs::profile::stage("plan.execute");
            let answer = motro_rel::execute_optimized_with(plan, self.db, &self.exec)?;
            motro_obs::profile::annotate("rows", answer.len());
            answer
        };
        let (mask, trace) = {
            let _stage = motro_obs::profile::stage("mask.compute");
            let (mask, trace) = self.mask_for_plan(user, plan)?;
            motro_obs::profile::annotate("mask_tuples", mask.len());
            (mask, trace)
        };
        let requested = plan.projection.len();
        let masked = if trace.mask_projection.len() == requested {
            mask.apply(&answer)
        } else {
            // Extended mask (Section 6): evaluate over the widened
            // answer, then trim the auxiliary columns and re-apply set
            // semantics over what the user actually sees.
            let extended_plan = CanonicalPlan {
                relations: plan.relations.clone(),
                selection: plan.selection.clone(),
                projection: trace.mask_projection.clone(),
            };
            let extended_answer = {
                let _stage = motro_obs::profile::stage("plan.execute.extended");
                motro_rel::execute_optimized_with(&extended_plan, self.db, &self.exec)?
            };
            let wide = mask.apply(&extended_answer);
            let mut rows: Vec<Vec<Option<motro_rel::Value>>> = Vec::new();
            let mut withheld_rows = 0usize;
            for mut row in wide.rows {
                row.truncate(requested);
                if row.iter().any(Option::is_some) {
                    rows.push(row);
                } else {
                    withheld_rows += 1;
                }
            }
            let mut seen = std::collections::BTreeSet::new();
            rows.retain(|r| seen.insert(format!("{r:?}")));
            let _ = withheld_rows;
            let withheld = answer.len().saturating_sub(rows.len());
            crate::mask::MaskedRelation {
                schema: plan.output_schema(self.store.scheme())?,
                rows,
                withheld,
            }
        };
        let permits = mask.describe();
        let full_access = mask.is_full();
        Ok(AccessOutcome {
            answer,
            mask,
            masked,
            permits,
            full_access,
            trace,
        })
    }

    /// Compute only the mask (`A'`) for a plan — the meta side of
    /// Figure 2, used on its own by the scaling benchmarks.
    pub fn mask_for_plan(&self, user: &str, plan: &CanonicalPlan) -> CoreResult<(Mask, AuthTrace)> {
        self.mask_for_plan_inner(user, plan, false)
    }

    /// [`Self::mask_for_plan`] with R2 decision logging: the returned
    /// trace's [`AuthTrace::steps`] records, per selection atom, what
    /// the four-case analysis decided for every meta-tuple. Used by the
    /// EXPLAIN layer; slightly more expensive (renders each meta-tuple).
    pub fn mask_for_plan_traced(
        &self,
        user: &str,
        plan: &CanonicalPlan,
    ) -> CoreResult<(Mask, AuthTrace)> {
        self.mask_for_plan_inner(user, plan, true)
    }

    fn mask_for_plan_inner(
        &self,
        user: &str,
        plan: &CanonicalPlan,
        logged: bool,
    ) -> CoreResult<(Mask, AuthTrace)> {
        let t_eval = motro_obs::start();
        // Clean slate for this request's R2 split (the thread-local may
        // carry counts from an earlier evaluation on this thread whose
        // caller never collected them).
        let _ = crate::meta_algebra::take_r2_tally();
        let scheme = self.store.scheme();
        plan.validate(scheme)?;
        let prod_schema = plan.product_schema(scheme)?;
        let query_rels: BTreeSet<String> = plan.relations.iter().cloned().collect();

        // Step 1: prune per factor.
        let stage_candidates = motro_obs::profile::stage("meta.candidates");
        let mut candidates: Vec<(String, Vec<MetaTuple>)> = Vec::new();
        let mut arities = Vec::with_capacity(plan.relations.len());
        for rel in &plan.relations {
            let mut cands = self.store.candidates(user, rel, &query_rels);
            if !self.config.self_join {
                cands.retain(|t| t.provenance.len() <= 1);
            }
            arities.push(scheme.schema_of(rel)?.arity());
            candidates.push((rel.clone(), cands));
        }
        let candidate_total: u64 = candidates.iter().map(|(_, c)| c.len() as u64).sum();
        motro_obs::counter!("meta.candidates.tuples").add(candidate_total);
        motro_obs::profile::annotate("tuples", candidate_total);
        motro_obs::profile::annotate("factors", candidates.len());
        drop(stage_candidates);

        // Step 2: meta-product (with R1 padding), then closure pruning.
        let stage_product = motro_obs::profile::stage("meta.product");
        let factor_lists: Vec<Vec<MetaTuple>> = candidates.iter().map(|(_, c)| c.clone()).collect();
        let mut rows = meta_product_par(
            &factor_lists,
            &arities,
            self.config.product_padding,
            &self.exec,
        );
        let product_len = rows.len();
        motro_obs::counter!("meta.product.rows").add(product_len as u64);
        motro_obs::profile::annotate("rows", product_len);
        drop(stage_product);
        let stage_prune = motro_obs::profile::stage("closure.prune");
        if self.config.closure_pruning {
            let parts = self.exec.partitions_for(rows.len());
            if parts <= 1 {
                rows.retain(|t| self.store.is_closed(t));
            } else {
                // Closure checks are per-tuple and read-only over the
                // store; filtered chunks concatenate in order, matching
                // the sequential retain exactly.
                let store = self.store;
                let kept = self.exec.map_chunked(rows, parts, "meta_prune", |chunk| {
                    chunk
                        .into_iter()
                        .filter(|t| store.is_closed(t))
                        .collect::<Vec<MetaTuple>>()
                });
                let t = motro_obs::start();
                rows = kept.into_iter().flatten().collect();
                motro_obs::histogram!("exec.steal_or_merge_ns").record_since(t);
            }
        }
        motro_obs::counter!("meta.product.pruned").add((product_len - rows.len()) as u64);
        motro_obs::profile::annotate("pruned", product_len - rows.len());
        motro_obs::profile::annotate("kept", rows.len());
        drop(stage_prune);
        let product = rows.clone();

        // Step 3: meta-selections.
        let mode = if self.config.four_case_selection {
            SelectMode::FourCase
        } else {
            SelectMode::Basic
        };
        let mut next_var = self.store.next_var_hint();
        let mut steps: Vec<SelectionStep> = Vec::new();
        let stage_select = motro_obs::profile::stage("meta.select");
        motro_obs::profile::annotate("atoms", plan.selection.atoms.len());
        motro_obs::profile::annotate("rows_in", rows.len());
        motro_obs::counter!("meta.select.in").add(rows.len() as u64);
        for (atom_index, atom) in plan.selection.atoms.iter().enumerate() {
            let mut decisions = if logged { Some(Vec::new()) } else { None };
            rows = meta_select_logged_par(
                rows,
                atom,
                mode,
                &mut next_var,
                decisions.as_mut(),
                &self.exec,
            );
            if let Some(decisions) = decisions {
                steps.push(SelectionStep {
                    atom_index,
                    atom: render_atom(atom, &prod_schema),
                    decisions,
                });
            }
            if rows.is_empty() {
                break;
            }
        }
        motro_obs::counter!("meta.select.out").add(rows.len() as u64);
        motro_obs::profile::annotate("rows_out", rows.len());
        drop(stage_select);
        let after_selection = rows.clone();

        // Step 4: meta-projection. Under the Section 6 extension, first
        // widen the projection with the condition columns that would
        // otherwise kill surviving meta-tuples.
        let mut mask_projection = plan.projection.clone();
        if self.config.extended_masks {
            let kept: std::collections::BTreeSet<usize> = mask_projection.iter().copied().collect();
            let mut aux = std::collections::BTreeSet::new();
            for row in &rows {
                let mut r = row.clone();
                r.simplify();
                for (i, c) in r.cells.iter().enumerate() {
                    if !kept.contains(&i) && !c.is_blank() {
                        aux.insert(i);
                    }
                }
            }
            mask_projection.extend(aux);
        }
        let stage_project = motro_obs::profile::stage("meta.project");
        motro_obs::profile::annotate("rows_in", rows.len());
        motro_obs::counter!("meta.project.in").add(rows.len() as u64);
        rows = meta_project(rows, &mask_projection);
        rows.retain(MetaTuple::any_starred);
        motro_obs::counter!("meta.project.out").add(rows.len() as u64);
        motro_obs::profile::annotate("rows_out", rows.len());
        drop(stage_project);

        let schema = prod_schema.project(&mask_projection);
        let mask = Mask::new(schema, rows);
        let trace = AuthTrace {
            plan: plan.clone(),
            candidates,
            product_len,
            product,
            steps,
            after_selection,
            mask_projection,
            r2_tally: crate::meta_algebra::take_r2_tally(),
        };
        motro_obs::histogram!("meta.eval_ns").record_since(t_eval);
        Ok((mask, trace))
    }

    /// Audit a `retrieve` for `user`: run the authorization with R2
    /// decision logging and explain every cell of the answer — which
    /// mask tuples granted it, or why each declined.
    pub fn explain(
        &self,
        user: &str,
        query: &ConjunctiveQuery,
    ) -> CoreResult<crate::explain::AuthExplain> {
        let plan = compile(query, self.db.schema())?;
        self.explain_plan(user, &plan)
    }

    /// [`Self::explain`] over a pre-compiled plan.
    pub fn explain_plan(
        &self,
        user: &str,
        plan: &CanonicalPlan,
    ) -> CoreResult<crate::explain::AuthExplain> {
        let (mask, trace) = self.mask_for_plan_traced(user, plan)?;
        // The mask's schema may be wider than the request (extended
        // masks): evaluate the answer over the mask projection so every
        // mask column has a value to explain against.
        let eval_plan = if trace.mask_projection == plan.projection {
            plan.clone()
        } else {
            CanonicalPlan {
                relations: plan.relations.clone(),
                selection: plan.selection.clone(),
                projection: trace.mask_projection.clone(),
            }
        };
        let answer = motro_rel::execute_optimized_with(&eval_plan, self.db, &self.exec)?;
        Ok(crate::explain::build(user, &mask, &trace, &answer))
    }

    /// Convenience: is `user` allowed to see *anything* of `query`?
    pub fn is_permitted(&self, user: &str, query: &ConjunctiveQuery) -> CoreResult<bool> {
        let plan = compile(query, self.db.schema())?;
        let (mask, _) = self.mask_for_plan(user, &plan)?;
        Ok(!mask.is_empty())
    }

    /// The database this engine reads.
    pub fn database(&self) -> &Database {
        self.db
    }

    /// The authorization store this engine consults.
    pub fn auth_store(&self) -> &AuthStore {
        self.store
    }
}

/// Render a predicate atom with product-schema column names
/// (`PROJECT.BUDGET >= 250000` rather than `#3 >= 250000`).
pub(crate) fn render_atom(
    atom: &motro_rel::PredicateAtom,
    schema: &motro_rel::RelSchema,
) -> String {
    let lhs = schema.column(atom.lhs).qual.to_string();
    match &atom.rhs {
        motro_rel::Term::Col(j) => format!("{} {} {}", lhs, atom.op, schema.column(*j).qual),
        motro_rel::Term::Const(v) => format!("{} {} {}", lhs, atom.op, v),
    }
}

impl AccessOutcome {
    /// Render the user-visible part: the masked table plus the inferred
    /// permit statements (the paper's promised front-end output).
    pub fn render(&self) -> String {
        let mut out = self.masked.to_table();
        if self.full_access {
            out.push_str("(full access: no permit statements)\n");
        } else if self.permits.is_empty() {
            out.push_str("(no portion of this answer is permitted)\n");
        } else {
            for p in &self.permits {
                out.push_str(&p.to_string());
                out.push('\n');
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures;
    use motro_rel::{CompOp, Value};
    use motro_views::AttrRef;

    fn setup() -> (Database, AuthStore) {
        (fixtures::paper_database(), fixtures::paper_store())
    }

    /// Paper Example 1: Brown retrieves numbers and sponsors of large
    /// projects; mask is (*, Acme*); only the Acme project survives.
    #[test]
    fn example_1_brown_large_projects() {
        let (db, store) = setup();
        let engine = AuthorizedEngine::new(&db, &store);
        let q = ConjunctiveQuery::retrieve()
            .target("PROJECT", "NUMBER")
            .target("PROJECT", "SPONSOR")
            .where_const(AttrRef::new("PROJECT", "BUDGET"), CompOp::Ge, 250_000)
            .build();
        let out = engine.retrieve("Brown", &q).unwrap();
        // Raw answer: bq-45/Acme and sv-72/Apex.
        assert_eq!(out.answer.len(), 2);
        // Mask: one tuple (*, Acme*).
        assert_eq!(out.mask.len(), 1);
        let mt = &out.mask.tuples[0];
        assert_eq!(mt.cells[0].render(), "*");
        assert_eq!(mt.cells[1].render(), "Acme*");
        // Delivered: only the Acme row, both cells visible.
        assert_eq!(out.masked.len(), 1);
        assert_eq!(out.masked.withheld, 1);
        assert_eq!(out.masked.rows[0][0], Some(Value::str("bq-45")));
        assert_eq!(out.masked.rows[0][1], Some(Value::str("Acme")));
        // Inferred statement.
        assert_eq!(out.permits.len(), 1);
        assert_eq!(
            out.permits[0].to_string(),
            "permit (NUMBER, SPONSOR) where SPONSOR = Acme"
        );
        assert!(!out.full_access);
    }

    /// Paper Example 2: Klein retrieves names and salaries of engineers
    /// on very large projects; mask is (*, ⊔) — names only.
    #[test]
    fn example_2_klein_engineers() {
        let (db, store) = setup();
        let engine = AuthorizedEngine::new(&db, &store);
        let q = ConjunctiveQuery::retrieve()
            .target("EMPLOYEE", "NAME")
            .target("EMPLOYEE", "SALARY")
            .where_const(AttrRef::new("EMPLOYEE", "TITLE"), CompOp::Eq, "engineer")
            .where_attr(
                AttrRef::new("EMPLOYEE", "NAME"),
                CompOp::Eq,
                AttrRef::new("ASSIGNMENT", "E_NAME"),
            )
            .where_attr(
                AttrRef::new("ASSIGNMENT", "P_NO"),
                CompOp::Eq,
                AttrRef::new("PROJECT", "NUMBER"),
            )
            .where_const(AttrRef::new("PROJECT", "BUDGET"), CompOp::Gt, 300_000)
            .build();
        let out = engine.retrieve("Klein", &q).unwrap();
        // Raw answer: Brown (engineer on sv-72, 450k).
        assert_eq!(out.answer.len(), 1);
        // Mask: names visible, salaries not.
        assert_eq!(out.mask.len(), 1);
        let mt = &out.mask.tuples[0];
        assert_eq!(mt.cells[0].render(), "*");
        assert_eq!(mt.cells[1].render(), "");
        assert!(mt.constraints.is_empty(), "variables were cleared");
        // Delivered row: name visible, salary masked.
        assert_eq!(out.masked.len(), 1);
        assert_eq!(out.masked.rows[0][0], Some(Value::str("Brown")));
        assert_eq!(out.masked.rows[0][1], None);
        assert_eq!(out.permits.len(), 1);
        assert_eq!(out.permits[0].to_string(), "permit (NAME)");
    }

    /// Paper Example 3: Brown retrieves names and salaries of employees
    /// with the same title; the SAE⋈EST self-join grants the entire
    /// answer, with no permit statements.
    #[test]
    fn example_3_brown_same_title_full_access() {
        let (db, store) = setup();
        let engine = AuthorizedEngine::new(&db, &store);
        let q = ConjunctiveQuery::retrieve()
            .target_occ("EMPLOYEE", 1, "NAME")
            .target_occ("EMPLOYEE", 1, "SALARY")
            .target_occ("EMPLOYEE", 2, "NAME")
            .target_occ("EMPLOYEE", 2, "SALARY")
            .where_attr(
                AttrRef::occ("EMPLOYEE", 1, "TITLE"),
                CompOp::Eq,
                AttrRef::occ("EMPLOYEE", 2, "TITLE"),
            )
            .build();
        let out = engine.retrieve("Brown", &q).unwrap();
        assert!(out.full_access, "mask: {:?}", out.mask.tuples);
        assert!(out.permits.is_empty());
        assert_eq!(out.masked.len(), out.answer.len());
        assert_eq!(out.masked.withheld, 0);
    }

    /// Example 3 without the self-join refinement: only names come
    /// through (via EST), salaries are masked.
    #[test]
    fn example_3_without_selfjoin_is_partial() {
        let (db, store) = setup();
        let cfg = RefinementConfig {
            self_join: false,
            ..RefinementConfig::default()
        };
        let engine = AuthorizedEngine::with_config(&db, &store, cfg);
        let q = ConjunctiveQuery::retrieve()
            .target_occ("EMPLOYEE", 1, "NAME")
            .target_occ("EMPLOYEE", 1, "SALARY")
            .target_occ("EMPLOYEE", 2, "NAME")
            .target_occ("EMPLOYEE", 2, "SALARY")
            .where_attr(
                AttrRef::occ("EMPLOYEE", 1, "TITLE"),
                CompOp::Eq,
                AttrRef::occ("EMPLOYEE", 2, "TITLE"),
            )
            .build();
        let out = engine.retrieve("Brown", &q).unwrap();
        assert!(!out.full_access);
        // Names visible somewhere, salaries nowhere.
        let vis: Vec<bool> = out.mask.tuples.iter().fold(vec![false; 4], |mut acc, t| {
            for (i, c) in t.cells.iter().enumerate() {
                acc[i] |= c.starred;
            }
            acc
        });
        assert!(vis[0] && vis[2], "names visible");
        assert!(!vis[1] && !vis[3], "salaries masked");
    }

    /// A user with no grants gets an empty mask: everything withheld.
    #[test]
    fn no_grants_no_data() {
        let (db, store) = setup();
        let engine = AuthorizedEngine::new(&db, &store);
        let q = ConjunctiveQuery::retrieve()
            .target("PROJECT", "NUMBER")
            .build();
        let out = engine.retrieve("Nobody", &q).unwrap();
        assert!(out.mask.is_empty());
        assert!(out.masked.is_empty());
        assert_eq!(out.masked.withheld, 3);
        assert!(!engine.is_permitted("Nobody", &q).unwrap());
    }

    /// Klein's subview query from Section 3: employees on projects with
    /// budgets over $500,000 — a view of ELP, authorized in full (names
    /// requested only).
    #[test]
    fn klein_stricter_budget_subview() {
        let (db, store) = setup();
        let engine = AuthorizedEngine::new(&db, &store);
        let q = ConjunctiveQuery::retrieve()
            .target("EMPLOYEE", "NAME")
            .where_attr(
                AttrRef::new("EMPLOYEE", "NAME"),
                CompOp::Eq,
                AttrRef::new("ASSIGNMENT", "E_NAME"),
            )
            .where_attr(
                AttrRef::new("ASSIGNMENT", "P_NO"),
                CompOp::Eq,
                AttrRef::new("PROJECT", "NUMBER"),
            )
            .where_const(AttrRef::new("PROJECT", "BUDGET"), CompOp::Gt, 500_000)
            .build();
        let out = engine.retrieve("Klein", &q).unwrap();
        assert!(out.full_access, "mask {:?}", out.mask.tuples);
    }

    /// The trace captures the paper's intermediate tables.
    #[test]
    fn trace_reports_intermediates() {
        let (db, store) = setup();
        let engine = AuthorizedEngine::new(&db, &store);
        let q = ConjunctiveQuery::retrieve()
            .target("PROJECT", "NUMBER")
            .target("PROJECT", "SPONSOR")
            .where_const(AttrRef::new("PROJECT", "BUDGET"), CompOp::Ge, 250_000)
            .build();
        let out = engine.retrieve("Brown", &q).unwrap();
        assert_eq!(out.trace.candidates.len(), 1);
        assert_eq!(out.trace.candidates[0].0, "PROJECT");
        assert_eq!(out.trace.candidates[0].1.len(), 1); // PSA only
        assert_eq!(out.trace.product.len(), 1);
        assert_eq!(out.trace.after_selection.len(), 1);
    }

    /// The per-request R2 tally agrees with the logged decision records
    /// case by case, at every worker count.
    #[test]
    fn r2_tally_matches_logged_decisions() {
        let (db, store) = setup();
        let q = ConjunctiveQuery::retrieve()
            .target("EMPLOYEE", "NAME")
            .target("EMPLOYEE", "SALARY")
            .where_const(AttrRef::new("EMPLOYEE", "TITLE"), CompOp::Eq, "engineer")
            .where_attr(
                AttrRef::new("EMPLOYEE", "NAME"),
                CompOp::Eq,
                AttrRef::new("ASSIGNMENT", "E_NAME"),
            )
            .where_attr(
                AttrRef::new("ASSIGNMENT", "P_NO"),
                CompOp::Eq,
                AttrRef::new("PROJECT", "NUMBER"),
            )
            .where_const(AttrRef::new("PROJECT", "BUDGET"), CompOp::Gt, 300_000)
            .build();
        let plan = compile(&q, db.schema()).unwrap();
        let mut oracle: Option<[u64; 5]> = None;
        for workers in [1usize, 4] {
            let engine = AuthorizedEngine::with_exec(
                &db,
                &store,
                RefinementConfig::default(),
                ExecConfig::with_workers(workers),
            );
            let (_, trace) = engine.mask_for_plan_traced("Klein", &plan).unwrap();
            let mut from_log = [0u64; 5];
            for step in &trace.steps {
                for d in &step.decisions {
                    let i = match d.case {
                        crate::meta_algebra::R2Decision::Clear => 0,
                        crate::meta_algebra::R2Decision::Retain => 1,
                        crate::meta_algebra::R2Decision::Modify => 2,
                        crate::meta_algebra::R2Decision::Discard => 3,
                        crate::meta_algebra::R2Decision::ClearFallback => 4,
                    };
                    from_log[i] += 1;
                }
            }
            assert_eq!(trace.r2_tally, from_log, "workers={workers}");
            assert!(trace.r2_tally.iter().sum::<u64>() > 0);
            match &oracle {
                None => oracle = Some(trace.r2_tally),
                Some(o) => assert_eq!(*o, trace.r2_tally, "workers={workers}"),
            }
        }
    }

    /// Basic (unrefined) selection still yields a sound, if less tidy,
    /// mask for Example 1.
    #[test]
    fn example_1_basic_mode() {
        let (db, store) = setup();
        let engine = AuthorizedEngine::with_config(&db, &store, RefinementConfig::plain());
        let q = ConjunctiveQuery::retrieve()
            .target("PROJECT", "NUMBER")
            .target("PROJECT", "SPONSOR")
            .where_const(AttrRef::new("PROJECT", "BUDGET"), CompOp::Ge, 250_000)
            .build();
        let out = engine.retrieve("Brown", &q).unwrap();
        // Basic mode conjoins BUDGET ≥ 250k onto PSA's blank BUDGET
        // field, which the projection then kills: PSA's projection
        // includes BUDGET, so the paper's preferred view definitions
        // (selection attributes among the projection attributes) still
        // deliver the Acme row... unless the conjunction blocked it.
        // Either way, nothing *unauthorized* is delivered.
        for row in &out.masked.rows {
            assert_eq!(row[1], Some(Value::str("Acme")));
        }
    }
}
