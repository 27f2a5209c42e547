//! Persistence: the entire front-end state (data, meta-relations,
//! grants, groups, configuration, epoch) round-trips through the JSON
//! snapshot of relations and behaves identically afterwards.

use motro_authz::core::{fixtures, RefinementConfig};
use motro_authz::{Frontend, RetrieveOutcome};
use serde_json::Value;

fn paper_frontend() -> Frontend {
    let mut fe = Frontend::with_database(fixtures::paper_database());
    fe.execute_admin_program(
        "view SAE (EMPLOYEE.NAME, EMPLOYEE.SALARY);
         view PSA (PROJECT.NUMBER, PROJECT.SPONSOR, PROJECT.BUDGET)
           where PROJECT.SPONSOR = Acme;
         view EST (EMPLOYEE:1.NAME, EMPLOYEE:2.NAME, EMPLOYEE:1.TITLE)
           where EMPLOYEE:1.TITLE = EMPLOYEE:2.TITLE;
         permit SAE to Brown;
         permit PSA to Brown;
         permit EST to Brown;
         permit SAE to group AUDIT",
    )
    .unwrap();
    fe.add_member("AUDIT", "carol");
    fe
}

#[test]
fn json_round_trip_preserves_outcomes() {
    let fe = paper_frontend();
    let json = fe.to_json().unwrap();
    let back = Frontend::from_json(&json).unwrap();

    let q = "retrieve (PROJECT.NUMBER, PROJECT.SPONSOR)
             where PROJECT.BUDGET >= 250,000";
    let a = fe.retrieve("Brown", q).unwrap();
    let b = back.retrieve("Brown", q).unwrap();
    assert_eq!(a.masked.rows, b.masked.rows);
    assert_eq!(a.masked.withheld, b.masked.withheld);
    assert_eq!(
        a.permits
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>(),
        b.permits
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
    );

    // Group membership survives.
    let c = back
        .retrieve("carol", "retrieve (EMPLOYEE.NAME, EMPLOYEE.SALARY)")
        .unwrap();
    assert!(c.full_access);
}

#[test]
fn restored_state_stays_mutable_and_consistent() {
    let fe = paper_frontend();
    let mut back = Frontend::from_json(&fe.to_json().unwrap()).unwrap();

    // Set semantics survived (index rebuilt): re-inserting a fixture
    // row is a no-op.
    assert!(!back
        .database_mut()
        .insert(
            "EMPLOYEE",
            motro_authz::rel::tuple!["Jones", "manager", 26_000]
        )
        .unwrap());

    // New views can still be defined without id collisions.
    back.execute_admin("view NEW (ASSIGNMENT.E_NAME, ASSIGNMENT.P_NO)")
        .unwrap();
    back.execute_admin("permit NEW to dave").unwrap();
    let out = back
        .retrieve("dave", "retrieve (ASSIGNMENT.E_NAME, ASSIGNMENT.P_NO)")
        .unwrap();
    assert!(out.full_access);

    // Revocation still works post-restore.
    back.execute_admin("revoke SAE from Brown").unwrap();
    let out = back
        .retrieve("Brown", "retrieve (EMPLOYEE.NAME, EMPLOYEE.SALARY)")
        .unwrap();
    assert!(!out.full_access);
}

#[test]
fn meta_relations_survive_round_trip() {
    let fe = paper_frontend();
    let back = Frontend::from_json(&fe.to_json().unwrap()).unwrap();
    assert_eq!(
        fe.auth_store().total_meta_tuples(),
        back.auth_store().total_meta_tuples()
    );
    assert_eq!(
        fe.auth_store().meta_table("EMPLOYEE", None).unwrap(),
        back.auth_store().meta_table("EMPLOYEE", None).unwrap()
    );
    assert_eq!(
        fe.auth_store().permission_table(),
        back.auth_store().permission_table()
    );
}

/// Every kind of state the snapshot must carry: a dropped view (a gap
/// in the tuple and variable ids), a disjunctive view, a group grant, an
/// aggregate view whose statement quotes a string, a second self-join
/// round, and a non-default refinement configuration.
fn rich_frontend() -> Frontend {
    let mut fe = paper_frontend();
    fe.execute_admin_program(
        "view TMP (EMPLOYEE.NAME, EMPLOYEE.TITLE) where EMPLOYEE.SALARY >= 10000;
         view BIG (PROJECT.NUMBER, PROJECT.SPONSOR, PROJECT.BUDGET)
           where PROJECT.SPONSOR = Acme or PROJECT.BUDGET >= 400,000;
         view PAY (EMPLOYEE.TITLE, avg(EMPLOYEE.SALARY), count(EMPLOYEE.NAME))
           where EMPLOYEE.NAME != \"O'Neil\";
         view LATE (EMPLOYEE.NAME, EMPLOYEE.SALARY) where EMPLOYEE.SALARY < 40000;
         permit BIG to Klein;
         permit PAY to board;
         permit LATE to group AUDIT",
    )
    .unwrap();
    fe.auth_store_mut().drop_view("TMP").unwrap();
    fe.auth_store_mut().set_selfjoin_rounds(2);
    fe.set_config(RefinementConfig {
        extended_masks: true,
        ..RefinementConfig::default()
    });
    fe
}

/// Everything a principal can observe for one statement: the rendered
/// reply, plus the canonical mask, permits and EXPLAIN rendering of a
/// row query.
fn observe(fe: &Frontend, user: &str, stmt: &str) -> Vec<String> {
    let mut out = vec![fe.query(user, stmt).unwrap().render()];
    if let Ok(RetrieveOutcome::Rows(rows)) = fe.query(user, stmt) {
        out.push(rows.mask.canonical_render());
        out.extend(rows.permits.iter().map(ToString::to_string));
        out.push(fe.explain_query(user, stmt).unwrap().render());
    }
    out
}

#[test]
fn snapshot_restores_the_exact_state() {
    let fe = rich_frontend();
    let json = fe.to_json().unwrap();
    assert!(json.parse::<Value>().is_ok(), "{json}");
    let back = Frontend::from_json(&json).unwrap();
    assert_eq!(back.to_json().unwrap(), json);

    let (a, b) = (fe.auth_store(), back.auth_store());
    assert_eq!(fe.auth_epoch(), back.auth_epoch());
    assert_eq!(a.next_var_hint(), b.next_var_hint());
    for rel in ["ASSIGNMENT", "EMPLOYEE", "PROJECT"] {
        assert_eq!(
            a.meta_table(rel, None).unwrap(),
            b.meta_table(rel, None).unwrap()
        );
        assert_eq!(a.self_joins(rel), b.self_joins(rel));
    }
    assert_eq!(a.comparison_table(), b.comparison_table());
    assert_eq!(a.permission_table(), b.permission_table());

    for (user, stmt) in [
        (
            "Brown",
            "retrieve (PROJECT.NUMBER, PROJECT.SPONSOR) where PROJECT.BUDGET >= 250,000",
        ),
        (
            "Brown",
            "retrieve (EMPLOYEE:1.NAME, EMPLOYEE:2.NAME, EMPLOYEE:1.TITLE, EMPLOYEE:1.SALARY)
               where EMPLOYEE:1.TITLE = EMPLOYEE:2.TITLE",
        ),
        (
            "Brown",
            "retrieve (EMPLOYEE.NAME) where EMPLOYEE.SALARY >= 30000",
        ),
        ("carol", "retrieve (EMPLOYEE.NAME, EMPLOYEE.SALARY)"),
        ("Klein", "retrieve (PROJECT.NUMBER, PROJECT.BUDGET)"),
        ("board", "retrieve (EMPLOYEE.TITLE, avg(EMPLOYEE.SALARY))"),
        ("Brown", "retrieve (EMPLOYEE.TITLE, count(EMPLOYEE.NAME))"),
    ] {
        assert_eq!(
            observe(&fe, user, stmt),
            observe(&back, user, stmt),
            "{user}: {stmt}"
        );
    }

    // The restored counters continue where the saved ones stopped.
    let mut fe = fe;
    let mut back = back;
    for f in [&mut fe, &mut back] {
        f.execute_admin(
            "view NEXT (ASSIGNMENT.E_NAME, ASSIGNMENT.P_NO) where ASSIGNMENT.P_NO = bq-45",
        )
        .unwrap();
    }
    assert_eq!(fe.to_json().unwrap(), back.to_json().unwrap());
}

#[test]
fn malformed_snapshots_are_errors() {
    let good = paper_frontend().to_json().unwrap();
    let cases = [
        ("not JSON", "{".to_owned()),
        (
            "missing section",
            good.replacen("\"storage\"", "\"stowage\"", 1),
        ),
        (
            "unknown domain",
            good.replacen("[\"P_NO\",\"str\"]", "[\"P_NO\",\"date\"]", 1),
        ),
        (
            "short row",
            good.replacen("[\"Jones\",\"bq-45\"]", "[\"Jones\"]", 1),
        ),
        (
            "wrong-typed cell",
            good.replacen("[\"Jones\",\"bq-45\"]", "[\"Jones\",45]", 1),
        ),
        (
            "missing table",
            good.replacen("\"MEMBERSHIP\"", "\"MEMBERS\"", 1),
        ),
        (
            "bad setting",
            good.replacen("[\"epoch\",", "[\"epochs\",", 1),
        ),
    ];
    for (what, json) in cases {
        assert_ne!(json, good, "{what}: the fixture did not change");
        assert!(Frontend::from_json(&json).is_err(), "{what} was accepted");
    }
}

/// Every copy of `v` with one node (a leaf, a row, a table, ...)
/// replaced by `with`.
fn variants(v: &Value, with: &Value) -> Vec<Value> {
    let mut out = vec![with.clone()];
    match v {
        Value::Array(items) => {
            for (i, item) in items.iter().enumerate() {
                for x in variants(item, with) {
                    let mut copy = items.clone();
                    copy[i] = x;
                    out.push(Value::Array(copy));
                }
            }
        }
        Value::Object(fields) => {
            for (k, field) in fields {
                for x in variants(field, with) {
                    let mut copy = fields.clone();
                    copy.insert(k.clone(), x);
                    out.push(Value::Object(copy));
                }
            }
        }
        _ => {}
    }
    out
}

/// A snapshot with any one node replaced by a hostile value either
/// loads, and then still answers and saves, or is refused; the decoder
/// never panics.
#[test]
fn corrupting_any_snapshot_node_loads_or_errors() {
    let fe = paper_frontend();
    let good: Value = fe.to_json().unwrap().parse().unwrap();
    let hostile = [
        Value::Null,
        Value::from(-1),
        Value::from("x99*"),
        Value::from("'"),
        Value::Array(vec![]),
    ];
    let (mut loaded, mut refused) = (0, 0);
    for with in &hostile {
        for doc in variants(&good, with) {
            match Frontend::from_json(&doc.to_string()) {
                Ok(back) => {
                    let q = "retrieve (PROJECT.NUMBER, PROJECT.SPONSOR)";
                    let _ = back.query("Brown", q);
                    back.to_json().unwrap();
                    loaded += 1;
                }
                Err(_) => refused += 1,
            }
        }
    }
    assert!(
        loaded > 0 && refused > 0,
        "{loaded} loaded, {refused} refused"
    );
}
