//! The paper's literal storage model: "Access permissions are stored in
//! new relations that are added to the database" (Section 3).
//!
//! [`encode_store`] materializes an [`AuthStore`] as ordinary
//! [`Relation`]s — one `R'` per base relation (scheme mirrored, all
//! string-typed, plus the `VIEW` and `ATOM` columns) holding the
//! meta-tuples in the paper's notation (`x₁*`, `Acme*`, blank), the
//! auxiliary `COMPARISON = (VIEW, X, COMPARE, Y)` and
//! `PERMISSION = (USER, VIEW)` relations, and three extension tables:
//! `MEMBERSHIP = (GROUP, USER)` for group principals,
//! `AGGREGATE = (VIEW, STATEMENT)` for aggregate views, and
//! `SETTINGS = (KEY, VALUE)` for the id counters, the self-join rounds
//! and the epoch. [`decode_store`] reboots the same store from those
//! relations alone: the meta-tuples are parsed back, each view's
//! statement is *decompiled* from its normal form (the paper never
//! stores a row view's statement text), and grants are replayed. With
//! the base relations, these tables are the whole persisted state (the
//! umbrella crate's `Frontend::to_json` writes them as one JSON
//! document, adding its refinement flags to `SETTINGS`).
//!
//! Encoding notes:
//!
//! * string constants that would be ambiguous in the notation (they
//!   look like a variable `x12`, end in `*`, are empty, or carry
//!   quotes) are single-quoted;
//! * `ATOM` holds the stored meta-tuple's id. Ids are unique and
//!   increase within a view, so `ATOM` orders a view's meta-tuples and
//!   tells apart the identical ones Figure 1 lists for EST (which a
//!   set-semantics relation could not hold twice);
//! * the decoder installs views in id order and reproduces every tuple
//!   and variable id, gaps left by dropped views included, so a
//!   rebooted store renders every mask byte for byte as before;
//! * disjunctive-view branches beyond the first are tagged
//!   `NAME#k` in the `VIEW` column (the paper has no branches);
//! * stored self-join combinations are *not* encoded — the store
//!   regenerates them, exactly as it does after any definition change;
//! * aggregate views are stored as their statement text.

use crate::error::{CoreError, CoreResult};
use crate::metatuple::{CellContent, MetaCell, TupleId};
use crate::store::{AuthStore, BranchEntry};
use motro_lang::{parse_statement, Statement};
use motro_rel::{DbSchema, Domain, RelSchema, Relation, Tuple, Value};
use motro_views::{CompRhs, MembershipAtom, NormalizedView, VarComparison};
use std::collections::BTreeMap;

/// Name of the meta-relation table for base relation `rel`.
pub fn meta_table_name(rel: &str) -> String {
    format!("{rel}'")
}

fn str_columns(names: &[&str]) -> RelSchema {
    RelSchema::base(
        "<storage>",
        &names.iter().map(|n| (*n, Domain::Str)).collect::<Vec<_>>(),
    )
}

fn bad(msg: impl Into<String>) -> CoreError {
    CoreError::Storage(msg.into())
}

/// Storage rendering of a constant: the paper's notation, quoted when
/// ambiguous.
fn encode_const(v: &Value) -> String {
    match v {
        Value::Str(s) if needs_quoting(s) => format!("'{s}'"),
        v => v.to_string(),
    }
}

/// Storage rendering of a meta-cell.
fn encode_cell(cell: &MetaCell) -> String {
    let base = match &cell.content {
        CellContent::Blank => String::new(),
        CellContent::Var(x) => format!("x{x}"),
        CellContent::Const(v) => encode_const(v),
    };
    if cell.starred {
        format!("{base}*")
    } else {
        base
    }
}

fn needs_quoting(s: &str) -> bool {
    s.is_empty()
        || s.ends_with('*')
        || s.contains('\'')
        || looks_like_var(s)
        || s.parse::<i64>().is_ok()
}

fn looks_like_var(s: &str) -> bool {
    s.len() > 1 && s.starts_with('x') && s[1..].chars().all(|c| c.is_ascii_digit())
}

fn parse_var(s: &str) -> CoreResult<u32> {
    s.strip_prefix('x')
        .and_then(|d| d.parse().ok())
        .ok_or_else(|| bad(format!("bad variable {s}")))
}

/// Parse a storage cell back. The column's domain types the constant,
/// so a decoded constant always fits its column.
fn decode_cell(text: &str, domain: Domain) -> CoreResult<MetaCell> {
    let (body, starred) = match text.strip_suffix('*') {
        Some(b) => (b, true),
        None => (text, false),
    };
    let content = if body.is_empty() {
        CellContent::Blank
    } else if looks_like_var(body) {
        CellContent::Var(parse_var(body)?)
    } else if domain == Domain::Int {
        CellContent::Const(Value::Int(
            body.parse()
                .map_err(|_| bad(format!("bad integer constant {body}")))?,
        ))
    } else {
        let unquoted = body.strip_prefix('\'').and_then(|b| b.strip_suffix('\''));
        CellContent::Const(Value::str(unquoted.unwrap_or(body)))
    };
    Ok(MetaCell { content, starred })
}

/// Every view branch with its storage tag: the view name, `#k`-suffixed
/// for branches beyond the first.
fn branches(store: &AuthStore) -> CoreResult<Vec<(String, &BranchEntry)>> {
    let mut out = Vec::new();
    for name in store.view_names() {
        for (k, b) in store.view(name)?.branches.iter().enumerate() {
            let tag = match k {
                0 => name.to_owned(),
                k => format!("{name}#{}", k + 1),
            };
            out.push((tag, b));
        }
    }
    Ok(out)
}

/// Materialize the store as relations (see module docs).
pub fn encode_store(store: &AuthStore) -> CoreResult<BTreeMap<String, Relation>> {
    let mut out = BTreeMap::new();
    let branches = branches(store)?;
    let tag_of: BTreeMap<TupleId, &str> = branches
        .iter()
        .flat_map(|(tag, b)| b.tuple_ids.iter().map(move |id| (*id, tag.as_str())))
        .collect();
    let mut put = |name: &str, columns: &[&str], rows: Vec<Vec<Value>>| -> CoreResult<()> {
        let rows = rows.into_iter().map(Tuple::new).collect();
        out.insert(
            name.to_owned(),
            Relation::from_rows(str_columns(columns), rows)?,
        );
        Ok(())
    };
    let pairs = |rows: Vec<(String, String)>| {
        let row = |(a, b)| vec![Value::str(a), Value::str(b)];
        rows.into_iter().map(row).collect()
    };

    // The meta-relations, one row per stored meta-tuple (a stored
    // meta-tuple covers exactly its own id).
    for (rel, def) in store.scheme().iter() {
        let mut columns = vec!["VIEW", "ATOM"];
        columns.extend(def.schema.columns().iter().map(|c| c.qual.attr.as_str()));
        let mut rows = Vec::new();
        for t in &store.meta_relation(rel)?.tuples {
            let (id, tag) = t
                .covers
                .first()
                .and_then(|id| Some((id, tag_of.get(id)?)))
                .ok_or_else(|| CoreError::Internal("stored meta-tuple without a branch".into()))?;
            let mut row = vec![Value::str(*tag), Value::str(id.to_string())];
            row.extend(t.cells.iter().map(|c| Value::str(encode_cell(c))));
            rows.push(row);
        }
        put(&meta_table_name(rel), &columns, rows)?;
    }
    let comparisons = branches.iter().flat_map(|(tag, b)| {
        b.comparisons.iter().map(move |a| {
            let y = match &a.rhs {
                crate::constraint::Rhs::Var(v) => format!("x{v}"),
                crate::constraint::Rhs::Const(c) => encode_const(c),
            };
            [tag.clone(), format!("x{}", a.lhs), a.op.to_string(), y]
                .map(Value::str)
                .to_vec()
        })
    });
    put(
        "COMPARISON",
        &["VIEW", "X", "COMPARE", "Y"],
        comparisons.collect(),
    )?;
    // PERMISSION holds group grants with the `group:` prefix.
    put("PERMISSION", &["USER", "VIEW"], pairs(store.all_grants()))?;
    put(
        "MEMBERSHIP",
        &["GROUP", "USER"],
        pairs(store.all_memberships()),
    )?;
    let aggregates = store.aggregate_views().iter();
    let aggregates = aggregates
        .map(|(n, q)| (n.clone(), q.to_string()))
        .collect();
    put("AGGREGATE", &["VIEW", "STATEMENT"], pairs(aggregates))?;

    let settings = store
        .settings()
        .map(|(k, v)| Tuple::new(vec![Value::str(k), Value::Int(v as i64)]));
    let schema = RelSchema::base("<storage>", &[("KEY", Domain::Str), ("VALUE", Domain::Int)]);
    out.insert(
        "SETTINGS".to_owned(),
        Relation::from_rows(schema, settings.to_vec())?,
    );
    Ok(out)
}

/// Storage table `name`, checked to have `arity` columns.
fn table<'a>(
    tables: &'a BTreeMap<String, Relation>,
    name: &str,
    arity: usize,
) -> CoreResult<&'a Relation> {
    let t = tables
        .get(name)
        .ok_or_else(|| bad(format!("missing table {name}")))?;
    if t.schema().arity() != arity {
        return Err(bad(format!("{name} needs {arity} columns")));
    }
    Ok(t)
}

/// Text cell `i` of a storage row.
fn text(row: &Tuple, i: usize) -> CoreResult<&str> {
    row.value(i)
        .as_str()
        .ok_or_else(|| bad(format!("non-text cell in {row}")))
}

/// One `SETTINGS` value, converted to the caller's type (the umbrella
/// crate's front-end keeps its refinement flags there too).
pub fn setting<T: TryFrom<i64>>(tables: &BTreeMap<String, Relation>, key: &str) -> CoreResult<T> {
    table(tables, "SETTINGS", 2)?
        .rows()
        .iter()
        .find(|r| r.value(0).as_str() == Some(key))
        .and_then(|r| T::try_from(r.value(1).as_int()?).ok())
        .ok_or_else(|| bad(format!("SETTINGS lacks a valid {key}")))
}

/// Reboot a store from its storage relations (see module docs).
pub fn decode_store(
    scheme: &DbSchema,
    tables: &BTreeMap<String, Relation>,
) -> CoreResult<AuthStore> {
    // Branch tag → (stored atoms by tuple id, comparisons in row order).
    type Branch = (BTreeMap<TupleId, MembershipAtom>, Vec<VarComparison>);
    let mut branches: BTreeMap<String, Branch> = BTreeMap::new();
    for (rel, def) in scheme.iter() {
        let arity = def.schema.arity();
        for row in table(tables, &meta_table_name(rel), arity + 2)?.rows() {
            let id = text(row, 1)?
                .parse()
                .map_err(|_| bad(format!("bad ATOM in {row}")))?;
            let mut terms = Vec::with_capacity(arity);
            let mut starred = Vec::with_capacity(arity);
            for i in 0..arity {
                let cell = decode_cell(text(row, i + 2)?, def.schema.domain(i))?;
                starred.push(cell.starred);
                terms.push(match cell.content {
                    CellContent::Blank => motro_views::VarTerm::Anon,
                    CellContent::Const(v) => motro_views::VarTerm::Const(v),
                    CellContent::Var(x) => motro_views::VarTerm::Var(x),
                });
            }
            let atom = MembershipAtom {
                rel: rel.clone(),
                terms,
                starred,
            };
            let branch = branches.entry(text(row, 0)?.to_owned()).or_default();
            if branch.0.insert(id, atom).is_some() {
                return Err(bad(format!("duplicate ATOM {id}")));
            }
        }
    }
    for row in table(tables, "COMPARISON", 4)?.rows() {
        let y = text(row, 3)?;
        let rhs = if looks_like_var(y) {
            CompRhs::Var(parse_var(y)?)
        } else if let Some(q) = y.strip_prefix('\'').and_then(|b| b.strip_suffix('\'')) {
            CompRhs::Const(Value::str(q))
        } else if let Ok(i) = y.parse::<i64>() {
            CompRhs::Const(Value::Int(i))
        } else {
            CompRhs::Const(Value::str(y))
        };
        let comparison = VarComparison {
            lhs: parse_var(text(row, 1)?)?,
            op: parse_op(text(row, 2)?)?,
            rhs,
        };
        let branch = branches.entry(text(row, 0)?.to_owned()).or_default();
        branch.1.push(comparison);
    }

    // Group the branches by view (in branch order), then install the
    // views in id order.
    let mut by_view: BTreeMap<String, BTreeMap<usize, (TupleId, NormalizedView)>> = BTreeMap::new();
    for (tag, (atoms, comparisons)) in branches {
        let (name, k) = match tag.split_once('#') {
            Some((n, k)) => (n, k.parse().map_err(|_| bad(format!("bad tag {tag}")))?),
            None => (tag.as_str(), 1),
        };
        let first = *atoms
            .keys()
            .next()
            .ok_or_else(|| bad(format!("{tag} has no meta-tuples")))?;
        let nv = NormalizedView {
            name: name.to_owned(),
            atoms: atoms.into_values().collect(),
            comparisons,
        };
        let parts = by_view.entry(name.to_owned()).or_default();
        if parts.insert(k, (first, nv)).is_some() {
            return Err(bad(format!("duplicate branch {tag}")));
        }
    }
    let mut views: Vec<(String, Vec<(TupleId, NormalizedView)>)> = by_view
        .into_iter()
        .map(|(name, parts)| (name, parts.into_values().collect()))
        .collect();
    views.sort_by_key(|(_, parts)| parts[0].0);

    let mut store = AuthStore::new(scheme.clone());
    for (name, parts) in &views {
        store.define_view_from_storage(name, parts)?;
    }
    for row in table(tables, "AGGREGATE", 2)?.rows() {
        match parse_statement(text(row, 1)?) {
            Ok(Statement::AggregateView(q)) => store.define_aggregate_view(&q)?,
            _ => return Err(bad(format!("bad aggregate view {row}"))),
        }
    }
    for row in table(tables, "PERMISSION", 2)?.rows() {
        let (principal, view) = (text(row, 0)?, text(row, 1)?);
        match principal.strip_prefix("group:") {
            Some(g) => store.permit_group(view, g)?,
            None => store.permit(view, principal)?,
        }
    }
    for row in table(tables, "MEMBERSHIP", 2)?.rows() {
        store.add_member(text(row, 0)?, text(row, 1)?);
    }
    store.restore_settings(
        setting(tables, "next_tuple")?,
        setting(tables, "next_var")?,
        setting(tables, "selfjoin_rounds")?,
        setting(tables, "epoch")?,
    );
    Ok(store)
}

fn parse_op(s: &str) -> CoreResult<motro_rel::CompOp> {
    use motro_rel::CompOp::*;
    Ok(match s {
        "=" => Eq,
        "!=" | "<>" => Ne,
        "<" => Lt,
        "<=" => Le,
        ">" => Gt,
        ">=" => Ge,
        other => return Err(bad(format!("bad comparator {other}"))),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::authorize::AuthorizedEngine;
    use crate::fixtures;
    use motro_rel::CompOp;
    use motro_views::{AttrRef, ConjunctiveQuery};

    #[test]
    fn cell_codec_round_trips() {
        let cases = vec![
            MetaCell::blank(),
            MetaCell::star(),
            MetaCell::var(12, true),
            MetaCell::var(3, false),
            MetaCell::constant("Acme", true),
            MetaCell::constant("bq-45", false),
            MetaCell::constant(250_000, true),
            // Ambiguous constants must quote.
            MetaCell::constant("x12", true),
            MetaCell::constant("done*", false),
            MetaCell::constant("", true),
            MetaCell::constant("42", false), // string "42" in a Str column
        ];
        for c in cases {
            let dom = match &c.content {
                CellContent::Const(Value::Int(_)) => Domain::Int,
                _ => Domain::Str,
            };
            let text = encode_cell(&c);
            let back = decode_cell(&text, dom).unwrap();
            assert_eq!(c, back, "via {text:?}");
        }
    }

    #[test]
    fn paper_store_encodes_in_paper_notation() {
        let store = fixtures::paper_store();
        let tables = encode_store(&store).unwrap();
        let emp = tables.get("EMPLOYEE'").unwrap();
        assert_eq!(emp.len(), 4);
        let rendered = emp.to_table();
        assert!(rendered.contains("x1*"), "{rendered}");
        assert!(rendered.contains("x4*"), "{rendered}");
        let proj = tables.get("PROJECT'").unwrap().to_table();
        assert!(proj.contains("Acme*"), "{proj}");
        let cmp = tables.get("COMPARISON").unwrap().to_table();
        assert!(cmp.contains("x3"), "{cmp}");
        assert!(cmp.contains(">="), "{cmp}");
        assert!(cmp.contains("250000"), "{cmp}");
        let perm = tables.get("PERMISSION").unwrap();
        assert_eq!(perm.len(), 5);
    }

    #[test]
    fn reboot_from_storage_is_behaviorally_identical() {
        let db = fixtures::paper_database();
        let store = fixtures::paper_store();
        let tables = encode_store(&store).unwrap();
        let rebooted = decode_store(db.schema(), &tables).unwrap();

        // Same storage after a second encode (fixpoint).
        let tables2 = encode_store(&rebooted).unwrap();
        for (name, t) in &tables {
            assert!(
                t.set_eq(tables2.get(name).unwrap()),
                "{name} differs after reboot:\n{}\nvs\n{}",
                t.to_table(),
                tables2.get(name).unwrap().to_table()
            );
        }

        // Identical masks on the paper's three examples.
        let e1 = AuthorizedEngine::new(&db, &store);
        let e2 = AuthorizedEngine::new(&db, &rebooted);
        let queries: Vec<(&str, ConjunctiveQuery)> = vec![
            (
                "Brown",
                ConjunctiveQuery::retrieve()
                    .target("PROJECT", "NUMBER")
                    .target("PROJECT", "SPONSOR")
                    .where_const(AttrRef::new("PROJECT", "BUDGET"), CompOp::Ge, 250_000)
                    .build(),
            ),
            (
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
            (
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
        ];
        for (user, q) in queries {
            let a = e1.retrieve(user, &q).unwrap();
            let b = e2.retrieve(user, &q).unwrap();
            assert_eq!(a.masked.rows, b.masked.rows, "{user}: {q}");
            assert_eq!(a.masked.withheld, b.masked.withheld);
            assert_eq!(a.full_access, b.full_access);
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
        }
    }

    /// Views defined out of name order: a decoder that installed them
    /// by name would renumber AA's salary variable from x2 to x1, and
    /// the mask would render differently.
    #[test]
    fn reboot_keeps_ids_so_masks_render_identically() {
        let db = fixtures::paper_database();
        let mut store = AuthStore::new(db.schema().clone());
        for stmt in [
            "view ZZ (EMPLOYEE:1.NAME, EMPLOYEE:2.NAME, EMPLOYEE:1.TITLE)
               where EMPLOYEE:1.TITLE = EMPLOYEE:2.TITLE",
            "view AA (EMPLOYEE.NAME, EMPLOYEE.SALARY) where EMPLOYEE.SALARY >= 30000",
            "view MM (EMPLOYEE.NAME, EMPLOYEE.TITLE)",
        ] {
            let Ok(Statement::View(q)) = parse_statement(stmt) else {
                panic!("{stmt}")
            };
            store.define_view(&q).unwrap();
            store.permit(q.name.as_deref().unwrap(), "Brown").unwrap();
        }
        let Ok(Statement::Retrieve(q)) = parse_statement(
            "retrieve (EMPLOYEE:1.NAME, EMPLOYEE:2.NAME, EMPLOYEE:1.TITLE, EMPLOYEE:1.SALARY)
               where EMPLOYEE:1.TITLE = EMPLOYEE:2.TITLE",
        ) else {
            panic!()
        };
        let live = AuthorizedEngine::new(&db, &store)
            .retrieve("Brown", &q)
            .unwrap();
        let rebooted = decode_store(db.schema(), &encode_store(&store).unwrap()).unwrap();
        let back = AuthorizedEngine::new(&db, &rebooted)
            .retrieve("Brown", &q)
            .unwrap();
        let render = live.mask.canonical_render();
        assert!(render.contains("x2 >= 30000"), "{render}");
        assert_eq!(render, back.mask.canonical_render());
        assert_eq!(store.next_var_hint(), rebooted.next_var_hint());
    }

    #[test]
    fn union_views_and_groups_survive_storage() {
        let mut scheme = DbSchema::new();
        scheme
            .add_relation_with_key("P", &[("K", Domain::Str), ("W", Domain::Str)], Some(&["K"]))
            .unwrap();
        let mut store = AuthStore::new(scheme.clone());
        store
            .define_view_union(
                "U",
                &[
                    ConjunctiveQuery::view("U")
                        .target("P", "K")
                        .target("P", "W")
                        .where_const(AttrRef::new("P", "W"), CompOp::Eq, "a")
                        .build(),
                    ConjunctiveQuery::view("U")
                        .target("P", "K")
                        .target("P", "W")
                        .where_const(AttrRef::new("P", "W"), CompOp::Eq, "b")
                        .build(),
                ],
            )
            .unwrap();
        store.permit_group("U", "G").unwrap();
        store.add_member("G", "u");

        let tables = encode_store(&store).unwrap();
        assert!(tables.get("P'").unwrap().to_table().contains("U#2"));
        let rebooted = decode_store(&scheme, &tables).unwrap();
        assert_eq!(rebooted.view("U").unwrap().branches.len(), 2);
        assert_eq!(rebooted.permitted_views("u"), vec!["U"]);
        // Storage fixpoint.
        let tables2 = encode_store(&rebooted).unwrap();
        for (name, t) in &tables {
            assert!(t.set_eq(tables2.get(name).unwrap()), "{name}");
        }
    }
}
