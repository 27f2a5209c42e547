//! The state snapshot: one JSON document of relations.
//!
//! [`Frontend::to_json`] writes
//! `{"relations": {NAME: REL, …}, "storage": {NAME: REL, …}}`, where
//! `REL` is `{"columns": [[ATTR, "int"|"str"], …], "rows": [[…], …]}`.
//! `relations` holds the base relations, each with its declared `key`
//! (attribute names; absent when none is declared). `storage` holds the
//! paper's Section 3 authorization relations exactly as
//! [`motro_core::encode_store`] writes them, plus the refinement flags
//! in `SETTINGS`. The two sections keep a base relation named
//! `PERMISSION` apart from the storage table of that name. Object keys
//! are sorted and rows keep their order, so re-encoding a decoded
//! snapshot reproduces it byte for byte.
//!
//! The executor configuration is not part of the snapshot: it never
//! changes results, and a restored front-end reads it from the
//! environment, as [`Frontend::new`] does.

use crate::{Frontend, FrontendError};
use motro_core::storage::setting;
use motro_core::{decode_store, encode_store, RefinementConfig};
use motro_rel::{Database, DbSchema, Domain, ExecConfig, RelSchema, Relation, Tuple};
use serde_json::{Map, Value};
use std::collections::BTreeMap;

/// The refinement flags, by their `SETTINGS` keys.
fn flags(c: &mut RefinementConfig) -> [(&'static str, &mut bool); 5] {
    [
        ("product_padding", &mut c.product_padding),
        ("four_case_selection", &mut c.four_case_selection),
        ("self_join", &mut c.self_join),
        ("closure_pruning", &mut c.closure_pruning),
        ("extended_masks", &mut c.extended_masks),
    ]
}

fn bad(msg: impl std::fmt::Display) -> FrontendError {
    FrontendError::Unexpected(format!("bad snapshot: {msg}"))
}

/// One relation as a JSON object (with `key` only when one is declared).
fn rel_json(schema: &RelSchema, key: Option<&[usize]>, rows: &[Tuple]) -> Value {
    let attr = |i: usize| Value::from(schema.column(i).qual.attr.as_str());
    let columns = (0..schema.arity())
        .map(|i| Value::Array(vec![attr(i), Value::from(schema.domain(i).to_string())]))
        .collect();
    let cell = |v: &motro_rel::Value| match v {
        motro_rel::Value::Int(i) => Value::from(*i),
        motro_rel::Value::Str(s) => Value::from(s.as_str()),
    };
    let rows = rows
        .iter()
        .map(|t| Value::Array(t.values().iter().map(cell).collect()))
        .collect();
    let mut out = Map::new();
    out.insert("columns".to_owned(), Value::Array(columns));
    if let Some(key) = key {
        let key = key.iter().map(|&i| attr(i)).collect();
        out.insert("key".to_owned(), Value::Array(key));
    }
    out.insert("rows".to_owned(), Value::Array(rows));
    Value::Object(out)
}

/// A relation object read back: its columns, declared key, and rows
/// (each checked against the columns).
type RelParts = (Vec<(String, Domain)>, Option<Vec<String>>, Vec<Tuple>);

fn rel_parts(name: &str, v: &Value) -> Result<RelParts, FrontendError> {
    let list = |key: &str| {
        v.get(key)
            .and_then(Value::as_array)
            .ok_or_else(|| bad(format!("{name} lacks {key:?}")))
    };
    let mut columns = Vec::new();
    for c in list("columns")? {
        let column = match c.as_array().map(Vec::as_slice) {
            Some([attr, domain]) => attr.as_str().zip(match domain.as_str() {
                Some("int") => Some(Domain::Int),
                Some("str") => Some(Domain::Str),
                _ => None,
            }),
            _ => None,
        };
        let (attr, domain) = column.ok_or_else(|| bad(format!("{name}: bad column {c}")))?;
        columns.push((attr.to_owned(), domain));
    }
    let key = match v.get("key") {
        None | Some(Value::Null) => None,
        Some(k) => Some(
            k.as_array()
                .and_then(|a| a.iter().map(|x| x.as_str().map(str::to_owned)).collect())
                .ok_or_else(|| bad(format!("{name}: bad key {k}")))?,
        ),
    };
    let mut rows = Vec::new();
    for r in list("rows")? {
        let cells = r
            .as_array()
            .filter(|cells| cells.len() == columns.len())
            .ok_or_else(|| bad(format!("{name}: bad row {r}")))?;
        let values = cells.iter().zip(&columns).map(|(c, (_, domain))| {
            match domain {
                Domain::Int => c.as_i64().map(motro_rel::Value::Int),
                Domain::Str => c.as_str().map(motro_rel::Value::str),
            }
            .ok_or_else(|| bad(format!("{name}: bad cell {c}")))
        });
        rows.push(Tuple::new(values.collect::<Result<_, _>>()?));
    }
    Ok((columns, key, rows))
}

fn attrs(columns: &[(String, Domain)]) -> Vec<(&str, Domain)> {
    columns.iter().map(|(a, d)| (a.as_str(), *d)).collect()
}

/// The snapshot of `fe` (see module docs).
pub(crate) fn encode(fe: &Frontend) -> Result<String, FrontendError> {
    let mut relations = Map::new();
    for (name, def) in fe.db.schema().iter() {
        let rows = fe.db.relation(name)?.rows();
        relations.insert(
            name.clone(),
            rel_json(&def.schema, def.key.as_deref(), rows),
        );
    }
    let mut tables = encode_store(&fe.store)?;
    if let Some(settings) = tables.get_mut("SETTINGS") {
        let mut config = fe.config;
        for (key, on) in flags(&mut config) {
            settings.insert(Tuple::new(vec![key.into(), i64::from(*on).into()]))?;
        }
    }
    let storage = tables
        .iter()
        .map(|(name, t)| (name.clone(), rel_json(t.schema(), None, t.rows())))
        .collect();
    let mut doc = Map::new();
    doc.insert("relations".to_owned(), Value::Object(relations));
    doc.insert("storage".to_owned(), Value::Object(storage));
    Ok(Value::Object(doc).to_string())
}

/// Rebuild a front-end from [`encode`]'s output. Malformed input is an
/// error, never a panic.
pub(crate) fn decode(json: &str) -> Result<Frontend, FrontendError> {
    let doc: Value = json.parse().map_err(bad)?;
    let section = |key: &str| {
        doc.get(key)
            .and_then(Value::as_object)
            .ok_or_else(|| bad(format!("missing {key:?} section")))
    };
    let mut schema = DbSchema::new();
    let mut data = Vec::new();
    for (name, v) in section("relations")? {
        let (columns, key, rows) = rel_parts(name, v)?;
        let key: Option<Vec<&str>> = key.as_ref().map(|k| k.iter().map(String::as_str).collect());
        schema.add_relation_with_key(name, &attrs(&columns), key.as_deref())?;
        data.push((name, rows));
    }
    let mut db = Database::new(schema);
    for (name, rows) in data {
        db.insert_all(name, rows)?;
    }
    let mut tables = BTreeMap::new();
    for (name, v) in section("storage")? {
        let (columns, _, rows) = rel_parts(name, v)?;
        let table = Relation::from_rows(RelSchema::base(name, &attrs(&columns)), rows)?;
        tables.insert(name.clone(), table);
    }
    let store = decode_store(db.schema(), &tables)?;
    let mut config = RefinementConfig::default();
    for (key, on) in flags(&mut config) {
        *on = setting::<u8>(&tables, key)? != 0;
    }
    Ok(Frontend {
        db,
        store,
        config,
        exec: ExecConfig::from_env(),
    })
}
