//! Scenario tests through the front-end: grant lifecycle, view drops,
//! interval conditions in inferred permits, and the update-permission
//! extension.

use motro_authz::core::{update, AuthorizedEngine};
use motro_authz::rel::{tuple, DbSchema, Domain, Value};
use motro_authz::Frontend;

/// A small clinic database: patients, physicians, treatments.
fn clinic() -> Frontend {
    let mut scheme = DbSchema::new();
    scheme
        .add_relation_with_key(
            "PATIENT",
            &[
                ("PID", Domain::Str),
                ("NAME", Domain::Str),
                ("WARD", Domain::Str),
                ("AGE", Domain::Int),
            ],
            Some(&["PID"]),
        )
        .unwrap();
    scheme
        .add_relation_with_key(
            "TREATMENT",
            &[
                ("PID", Domain::Str),
                ("DRUG", Domain::Str),
                ("COST", Domain::Int),
            ],
            Some(&["PID", "DRUG"]),
        )
        .unwrap();
    let mut fe = Frontend::new(scheme);
    let db = fe.database_mut();
    db.insert_all(
        "PATIENT",
        vec![
            tuple!["p1", "Ada", "cardio", 64],
            tuple!["p2", "Bob", "cardio", 41],
            tuple!["p3", "Cleo", "onco", 58],
        ],
    )
    .unwrap();
    db.insert_all(
        "TREATMENT",
        vec![
            tuple!["p1", "aspirin", 40],
            tuple!["p2", "statin", 95],
            tuple!["p3", "chemo", 4_000],
        ],
    )
    .unwrap();
    fe
}

#[test]
fn ward_scoped_nurse_access() {
    let mut fe = clinic();
    fe.execute_admin_program(
        "view CARDIO (PATIENT.PID, PATIENT.NAME, PATIENT.WARD, PATIENT.AGE)
           where PATIENT.WARD = cardio;
         permit CARDIO to nurse",
    )
    .unwrap();

    let out = fe
        .retrieve("nurse", "retrieve (PATIENT.NAME, PATIENT.WARD)")
        .unwrap();
    // Two cardio patients delivered, the onco patient withheld.
    assert_eq!(out.masked.len(), 2);
    assert_eq!(out.masked.withheld, 1);
    assert_eq!(
        out.permits[0].to_string(),
        "permit (NAME, WARD) where WARD = cardio"
    );
}

#[test]
fn revoke_and_drop_view_lifecycle() {
    let mut fe = clinic();
    fe.execute_admin_program(
        "view ALLP (PATIENT.PID, PATIENT.NAME, PATIENT.WARD, PATIENT.AGE);
         permit ALLP to alice",
    )
    .unwrap();
    assert!(
        fe.retrieve("alice", "retrieve (PATIENT.NAME)")
            .unwrap()
            .full_access
    );

    fe.execute_admin("revoke ALLP from alice").unwrap();
    let out = fe.retrieve("alice", "retrieve (PATIENT.NAME)").unwrap();
    assert!(out.masked.is_empty());

    // Re-grant, then drop the view entirely: the grant disappears with
    // it (drop_view is API-level; the paper's surface language has no
    // drop statement).
    fe.execute_admin("permit ALLP to alice").unwrap();
    fe.auth_store_mut().drop_view("ALLP").unwrap();
    assert!(fe.auth_store().view("ALLP").is_err());
    let out = fe.retrieve("alice", "retrieve (PATIENT.NAME)").unwrap();
    assert!(out.masked.is_empty());
    // And the name is reusable.
    fe.execute_admin("view ALLP (PATIENT.PID, PATIENT.NAME)")
        .unwrap();
}

#[test]
fn interval_conditions_surface_in_permits() {
    let mut fe = clinic();
    fe.execute_admin_program(
        "view CHEAP (TREATMENT.PID, TREATMENT.DRUG, TREATMENT.COST)
           where TREATMENT.COST <= 100;
         permit CHEAP to auditor",
    )
    .unwrap();
    // Query overlaps the view's interval: [50, 500] ∧ [.., 100] →
    // modified condition [50, 100] surfaces in the inferred permit.
    let out = fe
        .retrieve(
            "auditor",
            "retrieve (TREATMENT.DRUG, TREATMENT.COST)
             where TREATMENT.COST >= 50 and TREATMENT.COST <= 500",
        )
        .unwrap();
    assert_eq!(out.masked.len(), 1, "{}", out.render());
    let stmt = out.permits[0].to_string();
    assert!(stmt.contains("COST <= 100"), "{stmt}");
    // The lower bound is the query's own — already true of every
    // answer row — so the mask need not restate it.
    assert_eq!(out.masked.rows[0][0], Some(Value::str("statin")));
}

#[test]
fn clear_case_drops_interval_condition() {
    let mut fe = clinic();
    fe.execute_admin_program(
        "view CHEAP (TREATMENT.PID, TREATMENT.DRUG, TREATMENT.COST)
           where TREATMENT.COST <= 100;
         permit CHEAP to auditor",
    )
    .unwrap();
    // λ ⊆ µ → the view's condition is vacuous on the result: full
    // access.
    let out = fe
        .retrieve(
            "auditor",
            "retrieve (TREATMENT.DRUG, TREATMENT.COST)
             where TREATMENT.COST <= 50",
        )
        .unwrap();
    assert!(out.full_access, "{:?}", out.mask.tuples);
}

#[test]
fn disjoint_case_rejects_everything() {
    let mut fe = clinic();
    fe.execute_admin_program(
        "view CHEAP (TREATMENT.PID, TREATMENT.DRUG, TREATMENT.COST)
           where TREATMENT.COST <= 100;
         permit CHEAP to auditor",
    )
    .unwrap();
    let out = fe
        .retrieve(
            "auditor",
            "retrieve (TREATMENT.DRUG, TREATMENT.COST)
             where TREATMENT.COST > 1000",
        )
        .unwrap();
    assert!(out.mask.is_empty());
    assert!(out.masked.is_empty());
}

#[test]
fn update_extension_follows_masks() {
    let mut fe = clinic();
    fe.execute_admin_program(
        "view CARDIO (PATIENT.PID, PATIENT.NAME, PATIENT.WARD, PATIENT.AGE)
           where PATIENT.WARD = cardio;
         permit CARDIO to nurse",
    )
    .unwrap();
    let engine = fe.engine();
    // Inserting a cardio patient is within the nurse's view…
    assert!(update::check_insert(
        &engine,
        "nurse",
        "PATIENT",
        &tuple!["p9", "Dan", "cardio", 50]
    )
    .unwrap());
    // …an onco patient is not.
    assert!(!update::check_insert(
        &engine,
        "nurse",
        "PATIENT",
        &tuple!["p9", "Dan", "onco", 50]
    )
    .unwrap());
    // Modify may not move a patient out of the permitted ward.
    assert!(!update::check_modify(
        &engine,
        "nurse",
        "PATIENT",
        &tuple!["p1", "Ada", "cardio", 64],
        &tuple!["p1", "Ada", "onco", 64],
    )
    .unwrap());
}

#[test]
fn multi_user_isolation() {
    let mut fe = clinic();
    fe.execute_admin_program(
        "view CARDIO (PATIENT.PID, PATIENT.NAME, PATIENT.WARD, PATIENT.AGE)
           where PATIENT.WARD = cardio;
         view ONCO (PATIENT.PID, PATIENT.NAME, PATIENT.WARD, PATIENT.AGE)
           where PATIENT.WARD = onco;
         permit CARDIO to nurse_c;
         permit ONCO to nurse_o",
    )
    .unwrap();
    let q = "retrieve (PATIENT.NAME, PATIENT.WARD)";
    let c = fe.retrieve("nurse_c", q).unwrap();
    let o = fe.retrieve("nurse_o", q).unwrap();
    assert_eq!(c.masked.len(), 2);
    assert_eq!(o.masked.len(), 1);
    assert_eq!(o.masked.rows[0][0], Some(Value::str("Cleo")));
}

#[test]
fn both_ward_views_union_coverage() {
    let mut fe = clinic();
    fe.execute_admin_program(
        "view CARDIO (PATIENT.PID, PATIENT.NAME, PATIENT.WARD, PATIENT.AGE)
           where PATIENT.WARD = cardio;
         view ONCO (PATIENT.PID, PATIENT.NAME, PATIENT.WARD, PATIENT.AGE)
           where PATIENT.WARD = onco;
         permit CARDIO to chief;
         permit ONCO to chief",
    )
    .unwrap();
    let out = fe
        .retrieve("chief", "retrieve (PATIENT.NAME, PATIENT.WARD)")
        .unwrap();
    // The two masks union to the whole table (there are only two
    // wards); delivered rows = 3, and two permit statements describe
    // the portions.
    assert_eq!(out.masked.len(), 3);
    assert_eq!(out.masked.withheld, 0);
    assert_eq!(out.permits.len(), 2);
}

#[test]
fn join_query_across_granted_join_view() {
    let mut fe = clinic();
    fe.execute_admin_program(
        "view PCOST (PATIENT.NAME, PATIENT.WARD, TREATMENT.COST, TREATMENT.PID, PATIENT.PID)
           where PATIENT.PID = TREATMENT.PID and TREATMENT.COST <= 100;
         permit PCOST to billing",
    )
    .unwrap();
    // Exactly the paper's strength vs INGRES: a *multi-relation*
    // permission, queried against the base tables.
    let out = fe
        .retrieve(
            "billing",
            "retrieve (PATIENT.NAME, TREATMENT.COST)
             where PATIENT.PID = TREATMENT.PID",
        )
        .unwrap();
    assert_eq!(out.masked.len(), 2, "{}", out.render());
    assert_eq!(out.masked.withheld, 1); // the chemo row
    let stmt = out.permits[0].to_string();
    assert!(stmt.contains("COST <= 100"), "{stmt}");
}

#[test]
fn engine_config_roundtrip() {
    let fe = clinic();
    let engine = AuthorizedEngine::new(fe.database(), fe.auth_store());
    assert!(engine.config().self_join);
    assert_eq!(engine.database().total_tuples(), 6);
}

#[test]
fn update_statements_through_frontend() {
    let mut fe = clinic();
    fe.execute_admin_program(
        "view CARDIO (PATIENT.PID, PATIENT.NAME, PATIENT.WARD, PATIENT.AGE)
           where PATIENT.WARD = cardio;
         permit CARDIO to nurse",
    )
    .unwrap();

    // Insert within the view: accepted.
    let msg = fe
        .execute_update("nurse", "insert into PATIENT values (p7, Eve, cardio, 29)")
        .unwrap();
    assert!(msg.contains("inserted 1 row"), "{msg}");
    assert_eq!(fe.database().relation("PATIENT").unwrap().len(), 4);

    // Insert outside the view: denied, nothing changes.
    assert!(fe
        .execute_update("nurse", "insert into PATIENT values (p8, Fred, onco, 61)")
        .is_err());
    assert_eq!(fe.database().relation("PATIENT").unwrap().len(), 4);

    // Duplicate insert reports idempotence.
    let msg = fe
        .execute_update("nurse", "insert into PATIENT values (p7, Eve, cardio, 29)")
        .unwrap();
    assert!(msg.contains("already present"), "{msg}");

    // Delete is reduced to the permitted tuples: the qualification
    // matches all four patients but only the cardio ones go.
    let msg = fe
        .execute_update("nurse", "delete from PATIENT where PATIENT.AGE > 0")
        .unwrap();
    assert!(msg.contains("deleted 3 row(s)"), "{msg}");
    // The kept onco row is outside the nurse's views: the reply must
    // not say that it matched.
    assert!(!msg.contains("outside"), "{msg}");
    let left = fe.database().relation("PATIENT").unwrap();
    assert_eq!(left.len(), 1);
    assert_eq!(
        left.rows()[0].value(2),
        &motro_authz::rel::Value::str("onco")
    );

    // Type errors surface before permission checks.
    assert!(fe
        .execute_update("nurse", "insert into PATIENT values (1, 2)")
        .is_err());
    // Updates routed through admin/query entry points are rejected.
    assert!(fe.execute_admin("delete from PATIENT").is_err());
    assert!(fe.query("nurse", "delete from PATIENT").is_err());
}

/// A principal with no grant deletes with two constants, one matching
/// a hidden salary and one matching nothing. Nothing is deleted either
/// time, and the replies must not tell the two apart: otherwise
/// bisecting the constant recovers the hidden value.
#[test]
fn delete_reply_reveals_nothing_outside_the_views() {
    let mut fe = Frontend::with_database(motro_authz::core::fixtures::paper_database());
    let matches = fe
        .execute_update("Mal", "delete from EMPLOYEE where EMPLOYEE.SALARY >= 30000")
        .unwrap();
    let none = fe
        .execute_update("Mal", "delete from EMPLOYEE where EMPLOYEE.SALARY >= 90000")
        .unwrap();
    assert_eq!(matches, none);
    assert_eq!(matches, "deleted 0 row(s) from EMPLOYEE");
}
