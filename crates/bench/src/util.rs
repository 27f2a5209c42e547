//! Experiment T-UTIL: answer utility across the three authorization
//! models.
//!
//! The paper's introduction argues qualitatively that System R rejects
//! in-permission queries addressed at base relations, and that INGRES
//! (a) cannot express multi-relation permissions and (b) denies
//! queries that exceed their column permissions instead of reducing
//! them. This experiment quantifies those claims: for five workload
//! classes with *known-by-construction* entitled answers, each model's
//! **utility** is the fraction of entitled cells it actually delivers.
//!
//! Expected shape (recorded in EXPERIMENTS.md): Motro delivers 1.0
//! everywhere; INGRES delivers 1.0 only when the permission is
//! single-relation and the query stays within its column set; System R
//! delivers 0.0 for every base-addressed query, and recovers only the
//! classes a user can re-aim at the granted view.

use motro_baselines::{IngresOutcome, IngresPermission, IngresStore, Privilege, SystemR};
use motro_core::{AuthStore, AuthorizedEngine, RefinementConfig};
use motro_rel::{algebra, CompOp, Database, Predicate, PredicateAtom, Value};
use motro_views::{compile, AttrRef, ConjunctiveQuery};

use crate::workload::{ScaledWorld, WorldParams};

/// The five workload classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadClass {
    /// Query identical to the granted view.
    Exact,
    /// Query strictly narrower than the granted view.
    Subview,
    /// Query requesting one column beyond the granted view.
    SupersetColumn,
    /// Granted view joins two relations; query stays within it.
    MultiRelation,
    /// Query row range partially overlapping the view's.
    RowOverlap,
    /// A product query touching a relation the user has no view on; the
    /// permitted factor's columns are entitled (needs refinement R1).
    PartialFactor,
    /// Two single-column views over one relation, a query selecting on
    /// both columns (needs refinement R3 to survive the selections).
    ColumnSplit,
}

impl WorkloadClass {
    /// All classes, report order.
    pub const ALL: [WorkloadClass; 7] = [
        WorkloadClass::Exact,
        WorkloadClass::Subview,
        WorkloadClass::SupersetColumn,
        WorkloadClass::MultiRelation,
        WorkloadClass::RowOverlap,
        WorkloadClass::PartialFactor,
        WorkloadClass::ColumnSplit,
    ];

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            WorkloadClass::Exact => "exact view",
            WorkloadClass::Subview => "subview",
            WorkloadClass::SupersetColumn => "superset column",
            WorkloadClass::MultiRelation => "multi-relation view",
            WorkloadClass::RowOverlap => "row overlap",
            WorkloadClass::PartialFactor => "partial factor (R1)",
            WorkloadClass::ColumnSplit => "column split (R3)",
        }
    }
}

/// One model's score on one class.
#[derive(Debug, Clone, Copy)]
pub struct ModelScore {
    /// Cells delivered.
    pub delivered: usize,
    /// Utility = delivered / entitled (0 when entitled is 0).
    pub utility: f64,
}

fn score(delivered: usize, entitled: usize) -> ModelScore {
    ModelScore {
        delivered,
        utility: if entitled == 0 {
            0.0
        } else {
            delivered as f64 / entitled as f64
        },
    }
}

/// One row of the utility table.
#[derive(Debug, Clone)]
pub struct UtilityRow {
    /// The workload class.
    pub class: WorkloadClass,
    /// Ground-truth entitled cells.
    pub entitled: usize,
    /// Motro, refined configuration.
    pub motro: ModelScore,
    /// Motro with all refinements off (plain Definitions 1–3).
    pub motro_plain: ModelScore,
    /// INGRES query modification.
    pub ingres: ModelScore,
    /// System R, query addressed at base relations.
    pub system_r_base: ModelScore,
    /// System R, query re-aimed at the granted view where expressible.
    pub system_r_view: ModelScore,
}

struct ClassSetup {
    views: Vec<ConjunctiveQuery>,
    query: ConjunctiveQuery,
    /// Entitled cells, computed on the database.
    entitled: usize,
    /// INGRES translation of the permissions, when expressible.
    ingres_perms: Vec<IngresPermission>,
    /// For the view-addressed System R run: (projection over the view's
    /// output, extra selection over the view's output), when the query
    /// is expressible over the view.
    view_addressed: Option<(Vec<usize>, Predicate)>,
}

fn count_answer_cells(q: &ConjunctiveQuery, db: &Database) -> usize {
    let plan = compile(q, db.schema()).expect("class queries compile");
    let ans = plan.execute(db).expect("class queries run");
    ans.len() * ans.schema().arity()
}

fn class_setup(class: WorkloadClass, db: &Database) -> ClassSetup {
    match class {
        WorkloadClass::Exact => {
            let view = ConjunctiveQuery::view("W")
                .target("R1", "K")
                .target("R1", "C")
                .target("R1", "V")
                .where_const(AttrRef::new("R1", "C"), CompOp::Eq, "red")
                .build();
            let mut query = view.clone();
            query.name = None;
            let entitled = count_answer_cells(&query, db);
            ClassSetup {
                views: vec![view],
                query,
                entitled,
                ingres_perms: vec![IngresPermission {
                    user: "u".into(),
                    rel: "R1".into(),
                    attrs: ["K", "C", "V"].map(str::to_owned).into(),
                    qual: vec![("C".into(), CompOp::Eq, Value::str("red"))],
                }],
                // View output = (K, C, V); the query is the identity.
                view_addressed: Some(((0..3).collect(), Predicate::always())),
            }
        }
        WorkloadClass::Subview => {
            let view = ConjunctiveQuery::view("W")
                .target("R1", "K")
                .target("R1", "C")
                .target("R1", "V")
                .where_const(AttrRef::new("R1", "C"), CompOp::Eq, "red")
                .build();
            let query = ConjunctiveQuery::retrieve()
                .target("R1", "K")
                .target("R1", "V")
                .where_const(AttrRef::new("R1", "C"), CompOp::Eq, "red")
                .where_const(AttrRef::new("R1", "V"), CompOp::Ge, 500_000)
                .build();
            let entitled = count_answer_cells(&query, db);
            ClassSetup {
                views: vec![view],
                query,
                entitled,
                ingres_perms: vec![IngresPermission {
                    user: "u".into(),
                    rel: "R1".into(),
                    attrs: ["K", "C", "V"].map(str::to_owned).into(),
                    qual: vec![("C".into(), CompOp::Eq, Value::str("red"))],
                }],
                // Over the view output (K, C, V): project K, V; select
                // V ≥ 500k (C = red already holds inside the view).
                view_addressed: Some((
                    vec![0, 2],
                    Predicate::atom(PredicateAtom::col_const(2, CompOp::Ge, 500_000)),
                )),
            }
        }
        WorkloadClass::SupersetColumn => {
            let view = ConjunctiveQuery::view("W")
                .target("R1", "K")
                .target("R1", "C")
                .where_const(AttrRef::new("R1", "C"), CompOp::Eq, "red")
                .build();
            let query = ConjunctiveQuery::retrieve()
                .target("R1", "K")
                .target("R1", "C")
                .target("R1", "V")
                .where_const(AttrRef::new("R1", "C"), CompOp::Eq, "red")
                .build();
            // Entitled: the K and C columns of the answer (V exceeds the
            // permission).
            let plan = compile(&query, db.schema()).unwrap();
            let rows = plan.execute(db).unwrap().len();
            ClassSetup {
                views: vec![view],
                query,
                entitled: rows * 2,
                ingres_perms: vec![IngresPermission {
                    user: "u".into(),
                    rel: "R1".into(),
                    attrs: ["K", "C"].map(str::to_owned).into(),
                    qual: vec![("C".into(), CompOp::Eq, Value::str("red"))],
                }],
                // V is not in the view's output: inexpressible.
                view_addressed: None,
            }
        }
        WorkloadClass::MultiRelation => {
            let view = ConjunctiveQuery::view("W")
                .target("R1", "K")
                .target("R1", "F")
                .target("R0", "K")
                .target("R0", "C")
                .where_attr(AttrRef::new("R1", "F"), CompOp::Eq, AttrRef::new("R0", "K"))
                .build();
            let query = ConjunctiveQuery::retrieve()
                .target("R1", "K")
                .target("R0", "C")
                .where_attr(AttrRef::new("R1", "F"), CompOp::Eq, AttrRef::new("R0", "K"))
                .build();
            let entitled = count_answer_cells(&query, db);
            ClassSetup {
                views: vec![view],
                query,
                entitled,
                // A multi-relation permission is inexpressible in
                // INGRES (Motro §1).
                ingres_perms: vec![],
                // View output = (R1.K, R1.F, R0.K, R0.C): project 0, 3.
                view_addressed: Some((vec![0, 3], Predicate::always())),
            }
        }
        WorkloadClass::RowOverlap => {
            let view = ConjunctiveQuery::view("W")
                .target("R1", "K")
                .target("R1", "V")
                .where_const(AttrRef::new("R1", "V"), CompOp::Le, 600_000)
                .build();
            let query = ConjunctiveQuery::retrieve()
                .target("R1", "K")
                .target("R1", "V")
                .where_const(AttrRef::new("R1", "V"), CompOp::Ge, 300_000)
                .build();
            // Entitled: rows with V in [300k, 600k].
            let probe = ConjunctiveQuery::retrieve()
                .target("R1", "K")
                .target("R1", "V")
                .where_const(AttrRef::new("R1", "V"), CompOp::Ge, 300_000)
                .where_const(AttrRef::new("R1", "V"), CompOp::Le, 600_000)
                .build();
            let entitled = count_answer_cells(&probe, db);
            ClassSetup {
                views: vec![view],
                query,
                entitled,
                ingres_perms: vec![IngresPermission {
                    user: "u".into(),
                    rel: "R1".into(),
                    attrs: ["K", "V"].map(str::to_owned).into(),
                    qual: vec![("V".into(), CompOp::Le, Value::int(600_000))],
                }],
                view_addressed: Some((
                    vec![0, 1],
                    Predicate::atom(PredicateAtom::col_const(1, CompOp::Ge, 300_000)),
                )),
            }
        }
        WorkloadClass::PartialFactor => {
            // The paper's R1 motivation: a product whose other factor
            // the user holds nothing on; the permitted factor's
            // subviews must survive.
            let view = ConjunctiveQuery::view("W")
                .target("R1", "K")
                .target("R1", "C")
                .where_const(AttrRef::new("R1", "C"), CompOp::Eq, "red")
                .build();
            let query = ConjunctiveQuery::retrieve()
                .target("R1", "K")
                .target("R1", "C")
                .target("R0", "C")
                .where_const(AttrRef::new("R1", "C"), CompOp::Eq, "red")
                .build();
            // Entitled: the distinct (K, C) projections — masking R0.C
            // collapses the product's replications (set semantics).
            let probe = ConjunctiveQuery::retrieve()
                .target("R1", "K")
                .target("R1", "C")
                .where_const(AttrRef::new("R1", "C"), CompOp::Eq, "red")
                .build();
            let entitled = count_answer_cells(&probe, db);
            ClassSetup {
                views: vec![view],
                query,
                entitled,
                ingres_perms: vec![IngresPermission {
                    user: "u".into(),
                    rel: "R1".into(),
                    attrs: ["K", "C"].map(str::to_owned).into(),
                    qual: vec![("C".into(), CompOp::Eq, Value::str("red"))],
                }],
                // The query touches R0, outside the view: inexpressible.
                view_addressed: None,
            }
        }
        WorkloadClass::ColumnSplit => {
            // Two key-sharing single-column views; the query selects on
            // both columns, so no single view survives the selections —
            // only their R3 combination does.
            let v1 = ConjunctiveQuery::view("W")
                .target("R1", "K")
                .target("R1", "C")
                .build();
            let v2 = ConjunctiveQuery::view("W2")
                .target("R1", "K")
                .target("R1", "V")
                .build();
            let query = ConjunctiveQuery::retrieve()
                .target("R1", "K")
                .target("R1", "C")
                .target("R1", "V")
                .where_const(AttrRef::new("R1", "C"), CompOp::Eq, "red")
                .where_const(AttrRef::new("R1", "V"), CompOp::Ge, 300_000)
                .build();
            let entitled = count_answer_cells(&query, db);
            ClassSetup {
                views: vec![v1, v2],
                query,
                entitled,
                // The use set {K, C, V} exceeds each single permission:
                // INGRES rejects (its documented under-delivery).
                ingres_perms: vec![
                    IngresPermission {
                        user: "u".into(),
                        rel: "R1".into(),
                        attrs: ["K", "C"].map(str::to_owned).into(),
                        qual: vec![],
                    },
                    IngresPermission {
                        user: "u".into(),
                        rel: "R1".into(),
                        attrs: ["K", "V"].map(str::to_owned).into(),
                        qual: vec![],
                    },
                ],
                // No single view covers the three columns.
                view_addressed: None,
            }
        }
    }
}

fn run_motro(db: &Database, setup: &ClassSetup, config: RefinementConfig) -> usize {
    let mut store = AuthStore::new(db.schema().clone());
    for v in &setup.views {
        store.define_view(v).expect("class views define");
        store
            .permit(v.name.as_deref().expect("class views are named"), "u")
            .expect("just defined");
    }
    let engine = AuthorizedEngine::with_config(db, &store, config);
    engine
        .retrieve("u", &setup.query)
        .expect("class queries run")
        .masked
        .visible_cells()
}

fn run_ingres(db: &Database, setup: &ClassSetup) -> usize {
    if setup.ingres_perms.is_empty() {
        return 0;
    }
    let mut store = IngresStore::new();
    for p in &setup.ingres_perms {
        store.permit(p.clone());
    }
    match store.modify("u", &setup.query) {
        IngresOutcome::Modified(m) => {
            let plan = compile(&m, db.schema()).expect("modified queries compile");
            let ans = plan.execute(db).expect("modified queries run");
            ans.len() * ans.schema().arity()
        }
        IngresOutcome::Rejected { .. } => 0,
    }
}

fn run_system_r(db: &Database, setup: &ClassSetup, view_addressed: bool) -> usize {
    let mut sr = SystemR::new();
    for rel in db.schema().names() {
        sr.create_table("admin", rel).expect("fresh catalog");
    }
    let plan = compile(&setup.views[0], db.schema()).expect("class views compile");
    sr.create_view("admin", "W", plan).expect("admin owns all");
    sr.grant("admin", "u", "W", Privilege::Select, false)
        .expect("admin grants");

    if !view_addressed {
        // Base-addressed: all-or-nothing check on the base relations.
        let names: Vec<String> = setup.query.factors().into_iter().map(|f| f.0).collect();
        let refs: Vec<&str> = names.iter().map(String::as_str).collect();
        if sr.authorize_query("u", &refs) {
            return count_answer_cells(&setup.query, db);
        }
        return 0;
    }
    // View-addressed: the cooperative user re-aims the query at the
    // granted view when it is expressible as selection + projection
    // over the view's output.
    let Some((projection, extra)) = &setup.view_addressed else {
        return 0;
    };
    let view_arity = setup.views[0].targets.len();
    let identity: Vec<usize> = (0..view_arity).collect();
    match sr.execute_view_query(db, "u", "W", &identity) {
        Ok(Some(view_out)) => {
            let selected = algebra::select(&view_out, extra).expect("extra selection typechecks");
            let projected = algebra::project(&selected, projection);
            projected.len() * projected.schema().arity()
        }
        _ => 0,
    }
}

/// Run the full utility experiment on a deterministic world.
pub fn utility_table(rows_per_relation: usize, seed: u64) -> Vec<UtilityRow> {
    let world = ScaledWorld::generate(WorldParams {
        relations: 2,
        rows_per_relation,
        views: 0,
        users: 0,
        grants_per_user: 0,
        queries: 0,
        seed,
    });
    let db = &world.db;
    WorkloadClass::ALL
        .iter()
        .map(|&class| {
            let setup = class_setup(class, db);
            let entitled = setup.entitled;
            UtilityRow {
                class,
                entitled,
                motro: score(run_motro(db, &setup, RefinementConfig::default()), entitled),
                motro_plain: score(run_motro(db, &setup, RefinementConfig::plain()), entitled),
                ingres: score(run_ingres(db, &setup), entitled),
                system_r_base: score(run_system_r(db, &setup, false), entitled),
                system_r_view: score(run_system_r(db, &setup, true), entitled),
            }
        })
        .collect()
}

/// Render the utility table for the report.
pub fn render_utility_table(rows: &[UtilityRow]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<22} {:>9} {:>8} {:>8} {:>8} {:>9} {:>9}\n",
        "class", "entitled", "Motro", "plain", "INGRES", "SysR/base", "SysR/view"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:<22} {:>9} {:>8.2} {:>8.2} {:>8.2} {:>9.2} {:>9.2}\n",
            r.class.label(),
            r.entitled,
            r.motro.utility,
            r.motro_plain.utility,
            r.ingres.utility,
            r.system_r_base.utility,
            r.system_r_view.utility,
        ));
    }
    out
}

/// One row of the ablation table (experiment B-ABLATE): the Motro
/// engine's utility per workload class under a refinement
/// configuration.
#[derive(Debug, Clone)]
pub struct AblationRow {
    /// Configuration label.
    pub config: &'static str,
    /// Utility per class, in [`WorkloadClass::ALL`] order.
    pub utility: Vec<f64>,
}

/// The named configurations the ablation sweeps.
pub fn ablation_configs() -> Vec<(&'static str, RefinementConfig)> {
    let on = RefinementConfig::default();
    vec![
        ("all refinements", on),
        (
            "- R1 padding",
            RefinementConfig {
                product_padding: false,
                ..on
            },
        ),
        (
            "- R2 four-case",
            RefinementConfig {
                four_case_selection: false,
                ..on
            },
        ),
        (
            "- R3 self-join",
            RefinementConfig {
                self_join: false,
                ..on
            },
        ),
        ("plain (Defs 1-3)", RefinementConfig::plain()),
    ]
}

/// Run the ablation: per configuration, utility on every workload
/// class.
pub fn ablation_table(rows_per_relation: usize, seed: u64) -> Vec<AblationRow> {
    let world = ScaledWorld::generate(WorldParams {
        relations: 2,
        rows_per_relation,
        views: 0,
        users: 0,
        grants_per_user: 0,
        queries: 0,
        seed,
    });
    let db = &world.db;
    ablation_configs()
        .into_iter()
        .map(|(label, config)| {
            let utility = WorkloadClass::ALL
                .iter()
                .map(|&class| {
                    let setup = class_setup(class, db);
                    score(run_motro(db, &setup, config), setup.entitled).utility
                })
                .collect();
            AblationRow {
                config: label,
                utility,
            }
        })
        .collect()
}

/// Render the ablation table for the report.
pub fn render_ablation_table(rows: &[AblationRow]) -> String {
    let mut out = String::new();
    out.push_str(&format!("{:<18}", "config"));
    for c in WorkloadClass::ALL {
        out.push_str(&format!(" {:>12}", c.label().split(' ').next().unwrap()));
    }
    out.push('\n');
    for r in rows {
        out.push_str(&format!("{:<18}", r.config));
        for u in &r.utility {
            out.push_str(&format!(" {u:>12.2}"));
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn utility_shape_matches_paper_claims() {
        let rows = utility_table(60, 17);
        for r in &rows {
            assert!(r.entitled > 0, "class {:?} generated no data", r.class);
            // Motro (refined) always delivers the entitled portion.
            assert!(
                (r.motro.utility - 1.0).abs() < 1e-9,
                "Motro under-delivers on {:?}: {}",
                r.class,
                r.motro.utility
            );
            // System R base-addressed never delivers.
            assert_eq!(r.system_r_base.delivered, 0, "class {:?}", r.class);
            // No model over-delivers beyond the entitled cells.
            for s in [r.motro, r.motro_plain, r.ingres, r.system_r_view] {
                assert!(
                    s.utility <= 1.0 + 1e-9,
                    "class {:?}: {}",
                    r.class,
                    s.utility
                );
            }
        }
        // INGRES: 0 on superset column (asymmetry), multi-relation
        // (inexpressible), partial factor (R0 uncovered), and column
        // split (no single covering permission); 1.0 elsewhere.
        let by = |c: WorkloadClass| rows.iter().find(|r| r.class == c).unwrap();
        assert_eq!(by(WorkloadClass::SupersetColumn).ingres.delivered, 0);
        assert_eq!(by(WorkloadClass::MultiRelation).ingres.delivered, 0);
        assert_eq!(by(WorkloadClass::PartialFactor).ingres.delivered, 0);
        assert_eq!(by(WorkloadClass::ColumnSplit).ingres.delivered, 0);
        assert!((by(WorkloadClass::Exact).ingres.utility - 1.0).abs() < 1e-9);
        assert!((by(WorkloadClass::Subview).ingres.utility - 1.0).abs() < 1e-9);
        assert!((by(WorkloadClass::RowOverlap).ingres.utility - 1.0).abs() < 1e-9);
        // System R view-addressed recovers everything except the
        // superset-column class.
        assert_eq!(by(WorkloadClass::SupersetColumn).system_r_view.delivered, 0);
        assert!((by(WorkloadClass::Exact).system_r_view.utility - 1.0).abs() < 1e-9);
        assert!((by(WorkloadClass::MultiRelation).system_r_view.utility - 1.0).abs() < 1e-9);
    }

    #[test]
    fn ablation_full_config_dominates() {
        let rows = ablation_table(40, 11);
        let full = &rows[0];
        for r in &rows[1..] {
            for (a, b) in full.utility.iter().zip(&r.utility) {
                assert!(a + 1e-9 >= *b, "{} beats full config", r.config);
            }
        }
        // Removing any refinement costs some class (R1 → partial
        // factor, R2 → subview/multi-relation, R3 → column split);
        let plain = rows.last().unwrap();
        assert!(plain.utility.iter().sum::<f64>() < full.utility.iter().sum::<f64>());
        let t = render_ablation_table(&rows);
        assert!(t.contains("plain"));
    }

    #[test]
    fn render_is_stable() {
        let rows = utility_table(30, 5);
        let t = render_utility_table(&rows);
        assert!(t.contains("multi-relation view"));
        assert!(t.contains("Motro"));
    }
}
