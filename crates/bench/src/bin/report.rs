//! The experiment report: regenerates every table and worked example of
//! the reproduction (DESIGN.md's experiment index).
//!
//! ```text
//! report                # run everything
//! report --exp ex2      # one experiment: fig1 fig2 ex1 ex2 ex3
//!                       #   r2cases util ablate sizes storage
//! ```

use motro_bench::{
    ablation_table, render_ablation_table, render_utility_table, utility_table, ScaledWorld,
    WorldParams,
};
use motro_core::fixtures;
use motro_core::{AuthorizedEngine, Interval, MetaTuple, RefinementConfig};
use motro_rel::{CompOp, RelSchema, Value};
use motro_views::{compile, ConjunctiveQuery};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let only = args
        .iter()
        .position(|a| a == "--exp")
        .and_then(|i| args.get(i + 1))
        .cloned();
    let want = |id: &str| only.as_deref().map(|o| o == id).unwrap_or(true);

    if want("fig1") {
        fig1();
    }
    if want("fig2") {
        fig2();
    }
    if want("ex1") {
        example(1);
    }
    if want("ex2") {
        example(2);
    }
    if want("ex3") {
        example(3);
    }
    if want("r2cases") {
        r2cases();
    }
    if want("util") {
        util();
    }
    if want("ablate") {
        ablate();
    }
    if want("sizes") {
        sizes();
    }
    if want("storage") {
        storage();
    }
}

fn heading(id: &str, title: &str) {
    println!("\n================================================================");
    println!("[{id}] {title}");
    println!("================================================================");
}

/// Render a list of meta-tuples as a paper-style table over `schema`.
fn meta_table(schema: &RelSchema, tuples: &[MetaTuple]) -> String {
    let mut headers = vec!["VIEW".to_owned()];
    headers.extend(schema.display_headers());
    let mut widths: Vec<usize> = headers.iter().map(String::len).collect();
    let rows: Vec<Vec<String>> = tuples
        .iter()
        .map(|t| {
            let mut row = vec![t.render_provenance()];
            row.extend(t.cells.iter().map(|c| c.render()));
            row
        })
        .collect();
    for r in &rows {
        for (i, c) in r.iter().enumerate() {
            widths[i] = widths[i].max(c.len());
        }
    }
    let mut out = String::new();
    let line = |out: &mut String, cells: &[String]| {
        out.push('|');
        for (c, w) in cells.iter().zip(&widths) {
            out.push_str(&format!(" {c:w$} |", w = w));
        }
        out.push('\n');
    };
    line(&mut out, &headers);
    line(
        &mut out,
        &widths.iter().map(|w| "-".repeat(*w)).collect::<Vec<_>>(),
    );
    for r in &rows {
        line(&mut out, r);
    }
    out
}

fn fig1() {
    heading(
        "FIG1",
        "Figure 1: database extended with access permissions",
    );
    let db = fixtures::paper_database();
    let store = fixtures::paper_store();
    for rel in ["EMPLOYEE", "PROJECT", "ASSIGNMENT"] {
        println!("{rel} / {rel}':");
        println!(
            "{}",
            store
                .meta_table(rel, Some(db.relation(rel).expect("fixture relation")))
                .expect("fixture meta-relation")
        );
    }
    println!("COMPARISON:\n{}", store.comparison_table());
    println!("PERMISSION:\n{}", store.permission_table());
}

fn fig2() {
    heading(
        "FIG2",
        "Figure 2: the commutative diagram, executed (S over R; S' over R')",
    );
    let db = fixtures::paper_database();
    let store = fixtures::paper_store();
    let engine = AuthorizedEngine::new(&db, &store);
    // Sweep every (user, single-relation identity query) pair and show
    // answer vs mask side by side.
    for user in ["Brown", "Klein"] {
        for rel in ["EMPLOYEE", "PROJECT", "ASSIGNMENT"] {
            let arity = db.schema().schema_of(rel).expect("fixture scheme").arity();
            let plan = motro_rel::CanonicalPlan {
                relations: vec![rel.to_owned()],
                selection: motro_rel::Predicate::always(),
                projection: (0..arity).collect(),
            };
            let out = engine.retrieve_plan(user, &plan).expect("plan runs");
            println!(
                "{user:>6} x {rel:<10}: answer {} rows -> delivered {} rows, \
                 {} of {} cells visible, {} mask tuple(s)",
                out.answer.len(),
                out.masked.len(),
                out.masked.visible_cells(),
                out.answer.len() * arity,
                out.mask.len(),
            );
        }
    }
}

fn paper_query(n: usize) -> (&'static str, ConjunctiveQuery) {
    use motro_views::AttrRef;
    match n {
        1 => (
            "Brown",
            ConjunctiveQuery::retrieve()
                .target("PROJECT", "NUMBER")
                .target("PROJECT", "SPONSOR")
                .where_const(AttrRef::new("PROJECT", "BUDGET"), CompOp::Ge, 250_000)
                .build(),
        ),
        2 => (
            "Klein",
            ConjunctiveQuery::retrieve()
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
                .build(),
        ),
        3 => (
            "Brown",
            ConjunctiveQuery::retrieve()
                .target_occ("EMPLOYEE", 1, "NAME")
                .target_occ("EMPLOYEE", 1, "SALARY")
                .target_occ("EMPLOYEE", 2, "NAME")
                .target_occ("EMPLOYEE", 2, "SALARY")
                .where_attr(
                    AttrRef::occ("EMPLOYEE", 1, "TITLE"),
                    CompOp::Eq,
                    AttrRef::occ("EMPLOYEE", 2, "TITLE"),
                )
                .build(),
        ),
        _ => unreachable!(),
    }
}

fn example(n: usize) {
    let (user, q) = paper_query(n);
    heading(
        &format!("EX{n}"),
        &format!("Section 5, Example {n} ({user}'s query)"),
    );
    println!("{q}\n");

    let db = fixtures::paper_database();
    let store = fixtures::paper_store();
    let engine = AuthorizedEngine::new(&db, &store);
    let out = engine.retrieve(user, &q).expect("paper query runs");
    let plan = compile(&q, db.schema()).expect("paper query compiles");
    let prod_schema = plan.product_schema(db.schema()).expect("plan validated");
    let out_schema = plan.output_schema(db.schema()).expect("plan validated");

    println!("Pruned meta-relations (views permitted to {user}, defined");
    println!("entirely within the query's relations):\n");
    for (rel, cands) in &out.trace.candidates {
        let schema = db.schema().schema_of(rel).expect("fixture scheme");
        println!("{rel}':\n{}", meta_table(schema, cands));
    }

    // The paper displays the *unpruned* product; show it alongside the
    // closure-pruned rows the theorem requires.
    let unpruned_engine = AuthorizedEngine::with_config(
        &db,
        &store,
        RefinementConfig {
            closure_pruning: false,
            ..RefinementConfig::default()
        },
    );
    let (_, unpruned_trace) = unpruned_engine
        .mask_for_plan(user, &plan)
        .expect("plan runs");
    println!(
        "Meta-product, replications removed ({} rows; the paper's display):",
        unpruned_trace.product.len()
    );
    println!("{}", meta_table(&prod_schema, &unpruned_trace.product));
    println!(
        "After the theorem's closure pruning ({} of {} rows remain):",
        out.trace.product.len(),
        out.trace.product_len,
    );
    println!("{}", meta_table(&prod_schema, &out.trace.product));

    println!("After the selections:");
    println!("{}", meta_table(&prod_schema, &out.trace.after_selection));

    println!("Final mask A' (after projection and minimization):");
    println!("{}", meta_table(&out_schema, &out.mask.tuples));

    println!(
        "Raw answer A ({} rows, withheld {}):",
        out.answer.len(),
        out.masked.withheld
    );
    println!("Delivered to {user}:");
    println!("{}", out.render());
}

fn r2cases() {
    heading(
        "R2CASES",
        "Section 4.2: the four selection cases on the budget example",
    );
    let mu = Interval::from_op(CompOp::Ge, Value::int(300_000))
        .intersect(&Interval::from_op(CompOp::Le, Value::int(600_000)))
        .expect("same domain");
    println!("view predicate mu: budgets in [300000, 600000]\n");
    let cases: [(&str, Interval); 4] = [
        (
            "query [200000, 400000]",
            Interval::from_op(CompOp::Ge, Value::int(200_000))
                .intersect(&Interval::from_op(CompOp::Le, Value::int(400_000)))
                .expect("same domain"),
        ),
        (
            "query [200000, 700000]",
            Interval::from_op(CompOp::Ge, Value::int(200_000))
                .intersect(&Interval::from_op(CompOp::Le, Value::int(700_000)))
                .expect("same domain"),
        ),
        (
            "query [400000, 500000]",
            Interval::from_op(CompOp::Ge, Value::int(400_000))
                .intersect(&Interval::from_op(CompOp::Le, Value::int(500_000)))
                .expect("same domain"),
        ),
        (
            "query (-inf, 300000)",
            Interval::from_op(CompOp::Lt, Value::int(300_000)),
        ),
    ];
    for (label, lambda) in cases {
        println!(
            "{label:<24} -> {:?} (paper: modify / retain / clear / discard)",
            Interval::four_case(&lambda, &mu)
        );
    }
}

fn util() {
    heading(
        "T-UTIL",
        "Utility (delivered / entitled cells) across the three models",
    );
    let rows = utility_table(60, 17);
    println!("{}", render_utility_table(&rows));
    println!(
        "Expected shape: Motro = 1.00 everywhere; INGRES = 0 on superset\n\
         column (asymmetry), multi-relation / partial factor\n\
         (inexpressible), and column split (no covering permission);\n\
         System R base-addressed = 0 everywhere; view-addressed recovers\n\
         only the classes expressible over a single granted view."
    );
}

fn ablate() {
    heading(
        "B-ABLATE",
        "Refinement ablation: Motro utility per configuration",
    );
    let rows = ablation_table(60, 17);
    println!("{}", render_ablation_table(&rows));
}

fn storage() {
    heading(
        "STORAGE",
        "Section 3's literal storage: the authorization state as relations",
    );
    let store = fixtures::paper_store();
    let tables = motro_core::encode_store(&store).expect("paper store encodes");
    for (name, t) in &tables {
        println!("{name}:\n{}", t.to_table());
    }
    // Reboot and confirm that every example's mask renders byte for
    // byte as before.
    let db = fixtures::paper_database();
    let rebooted = motro_core::decode_store(db.schema(), &tables).expect("storage decodes");
    for n in 1..=3 {
        let (user, q) = paper_query(n);
        let [before, after] = [&store, &rebooted].map(|s| {
            AuthorizedEngine::new(&db, s)
                .retrieve(user, &q)
                .expect("runs")
        });
        println!(
            "reboot check (Example {n}): delivered {} rows before, {} after; masks render identically: {}",
            before.masked.len(),
            after.masked.len(),
            before.mask.canonical_render() == after.mask.canonical_render()
        );
    }
}

fn sizes() {
    heading(
        "SIZES",
        "Meta-relation sizes and meta-product growth (the 'relatively small' claim)",
    );
    for &views in &[8usize, 32, 64] {
        let w = ScaledWorld::generate(WorldParams {
            relations: 3,
            rows_per_relation: 1000,
            views,
            users: 1,
            grants_per_user: views,
            queries: 8,
            seed: 3,
        });
        for (label, config) in [
            ("with R3", RefinementConfig::default()),
            (
                "sans R3",
                RefinementConfig {
                    self_join: false,
                    ..RefinementConfig::default()
                },
            ),
        ] {
            let engine = AuthorizedEngine::with_config(&w.db, &w.store, config);
            let mut mask_rows = 0usize;
            let mut product_rows = 0usize;
            for q in &w.queries {
                let plan = compile(q, w.db.schema()).expect("generated query compiles");
                let (mask, trace) = engine
                    .mask_for_plan("u0", &plan)
                    .expect("generated query runs");
                mask_rows += mask.len();
                product_rows += trace.product_len;
            }
            println!(
                "views={views:>4} {label}: stored meta-tuples={:>4}, data tuples={:>6}, \
                 avg meta-product rows/query={:>8.1}, avg mask tuples/query={:>5.1}",
                w.store.total_meta_tuples(),
                w.db.total_tuples(),
                product_rows as f64 / w.queries.len() as f64,
                mask_rows as f64 / w.queries.len() as f64,
            );
        }
    }
}
