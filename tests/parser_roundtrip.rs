//! Property test: the AST's `Display` emits the paper's statement
//! syntax, and parsing that text reproduces the AST exactly — for
//! arbitrary generated statements.

use motro_authz::lang::{parse_statement, Statement};
use motro_authz::rel::{CompOp, Value};
use motro_authz::views::{AttrRef, CalcAtom, CalcTerm, ConjunctiveQuery};
use proptest::prelude::*;

const RELS: [&str; 3] = ["EMPLOYEE", "PROJECT", "ASSIGNMENT"];
const ATTRS: [&str; 4] = ["NAME", "TITLE", "BUDGET", "P_NO"];
const OPS: [CompOp; 6] = [
    CompOp::Eq,
    CompOp::Ne,
    CompOp::Lt,
    CompOp::Le,
    CompOp::Gt,
    CompOp::Ge,
];

fn attr_ref() -> impl Strategy<Value = AttrRef> {
    (0..RELS.len(), 1u32..3, 0..ATTRS.len())
        .prop_map(|(r, occ, a)| AttrRef::occ(RELS[r], occ, ATTRS[a]))
}

/// Constants whose display re-lexes to the same token: identifier-like
/// strings, strings with spaces and one kind of quote (`O'Neil`), and
/// integers of either sign. A string holding both quote kinds has no
/// printed form (the lexer has no escapes) and is excluded.
fn constant() -> impl Strategy<Value = Value> {
    prop_oneof![
        "[A-Za-z][A-Za-z0-9_]{0,8}".prop_map(Value::str),
        "[A-Za-z ']{0,8}".prop_map(Value::str),
        "[A-Za-z \"]{0,8}".prop_map(Value::str),
        (-10_000_000i64..10_000_000).prop_map(Value::int),
    ]
}

fn calc_atom() -> impl Strategy<Value = CalcAtom> {
    (
        attr_ref(),
        0..OPS.len(),
        prop_oneof![
            attr_ref().prop_map(CalcTerm::Attr),
            constant().prop_map(CalcTerm::Const),
        ],
    )
        .prop_map(|(lhs, op, rhs)| CalcAtom {
            lhs,
            op: OPS[op],
            rhs,
        })
}

fn query(named: bool) -> impl Strategy<Value = ConjunctiveQuery> {
    (
        proptest::collection::vec(attr_ref(), 1..5),
        proptest::collection::vec(calc_atom(), 0..5),
    )
        .prop_map(move |(targets, atoms)| ConjunctiveQuery {
            name: named.then(|| "V1".to_owned()),
            targets,
            atoms,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn view_statements_round_trip(q in query(true)) {
        let printed = q.to_string();
        let parsed = parse_statement(&printed)
            .unwrap_or_else(|e| panic!("{printed}\n{e}"));
        prop_assert_eq!(parsed, Statement::View(q));
    }

    #[test]
    fn retrieve_statements_round_trip(q in query(false)) {
        let printed = q.to_string();
        let parsed = parse_statement(&printed)
            .unwrap_or_else(|e| panic!("{printed}\n{e}"));
        prop_assert_eq!(parsed, Statement::Retrieve(q));
    }

    /// Keywords as bare string constants must parse when quoted.
    #[test]
    fn quoted_keyword_constants(kw in prop_oneof![
        Just("view"), Just("where"), Just("and"), Just("or"),
        Just("permit"), Just("to"), Just("group")
    ]) {
        let stmt = format!("retrieve (R.A) where R.B = '{kw}'");
        let parsed = parse_statement(&stmt).unwrap();
        let Statement::Retrieve(q) = parsed else { panic!() };
        prop_assert_eq!(&q.atoms[0].rhs, &CalcTerm::Const(Value::str(kw)));
    }
}
