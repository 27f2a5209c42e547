//! Grouping and aggregation over relations.
//!
//! The paper's conclusion lists "views with aggregate functions" as a
//! planned extension of the authorization model. This module supplies
//! the substrate: [`group_by`] partitions a relation on key columns and
//! evaluates aggregate functions per group (the authorization semantics
//! live in `motro-core::aggregate`).
//!
//! Semantics notes:
//!
//! * set-semantics input: duplicates were already removed, so `Count`
//!   counts *distinct* tuples (document accordingly in callers);
//! * grouping an empty relation yields no groups (no SQL-style global
//!   `COUNT = 0` row when key columns are present; with **no** key
//!   columns a single global group is produced even for empty input,
//!   matching SQL's scalar aggregates);
//! * `Avg` is integer (floor toward negative infinity is *not* used:
//!   Rust's `/` truncates toward zero; values are `i64`).

use crate::error::{RelError, RelResult};
use crate::relation::Relation;
use crate::schema::{Column, QualifiedAttr, RelSchema};
use crate::tuple::Tuple;
use crate::value::{Domain, Value};
use std::collections::BTreeMap;
use std::fmt;

/// An aggregate function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggFunc {
    /// Number of (distinct) tuples in the group.
    Count,
    /// Sum of an integer column.
    Sum,
    /// Minimum (any domain).
    Min,
    /// Maximum (any domain).
    Max,
    /// Integer average (truncating division).
    Avg,
}

impl AggFunc {
    /// Parse a (case-insensitive) function name.
    pub fn parse(name: &str) -> Option<AggFunc> {
        match name.to_ascii_lowercase().as_str() {
            "count" => Some(AggFunc::Count),
            "sum" => Some(AggFunc::Sum),
            "min" => Some(AggFunc::Min),
            "max" => Some(AggFunc::Max),
            "avg" => Some(AggFunc::Avg),
            _ => None,
        }
    }

    /// The result domain for an input column domain.
    pub fn result_domain(self, input: Domain) -> RelResult<Domain> {
        match self {
            AggFunc::Count => Ok(Domain::Int),
            AggFunc::Sum | AggFunc::Avg => {
                if input == Domain::Int {
                    Ok(Domain::Int)
                } else {
                    Err(RelError::TypeMismatch {
                        expected: Domain::Int.to_string(),
                        found: input.to_string(),
                    })
                }
            }
            AggFunc::Min | AggFunc::Max => Ok(input),
        }
    }

    /// Evaluate over a non-empty group's column values.
    pub fn apply(self, values: &[&Value]) -> RelResult<Value> {
        debug_assert!(!values.is_empty(), "groups are non-empty by construction");
        match self {
            AggFunc::Count => Ok(Value::int(values.len() as i64)),
            AggFunc::Sum | AggFunc::Avg => {
                let mut sum = 0i64;
                for v in values {
                    let i = v.as_int().ok_or_else(|| RelError::TypeMismatch {
                        expected: Domain::Int.to_string(),
                        found: v.domain().to_string(),
                    })?;
                    sum = sum.checked_add(i).ok_or_else(|| {
                        RelError::Invalid("integer overflow in aggregate".to_owned())
                    })?;
                }
                if self == AggFunc::Sum {
                    Ok(Value::int(sum))
                } else {
                    Ok(Value::int(sum / values.len() as i64))
                }
            }
            AggFunc::Min => Ok((*values
                .iter()
                .min_by(|a, b| a.compare(b).unwrap_or(std::cmp::Ordering::Equal))
                .expect("non-empty"))
            .clone()),
            AggFunc::Max => Ok((*values
                .iter()
                .max_by(|a, b| a.compare(b).unwrap_or(std::cmp::Ordering::Equal))
                .expect("non-empty"))
            .clone()),
        }
    }
}

impl fmt::Display for AggFunc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AggFunc::Count => "count",
            AggFunc::Sum => "sum",
            AggFunc::Min => "min",
            AggFunc::Max => "max",
            AggFunc::Avg => "avg",
        };
        write!(f, "{s}")
    }
}

/// Group `r` on `keys` and evaluate `aggs` (function, input column) per
/// group. The output schema is the key columns followed by one column
/// per aggregate, named `FUNC_ATTR`.
pub fn group_by(r: &Relation, keys: &[usize], aggs: &[(AggFunc, usize)]) -> RelResult<Relation> {
    let in_schema = r.schema();
    for &k in keys {
        if k >= in_schema.arity() {
            return Err(RelError::UnknownAttribute(format!("#{k}")));
        }
    }
    let mut columns: Vec<Column> = keys.iter().map(|&k| in_schema.column(k).clone()).collect();
    for (f, col) in aggs {
        if *col >= in_schema.arity() {
            return Err(RelError::UnknownAttribute(format!("#{col}")));
        }
        let dom = f.result_domain(in_schema.domain(*col))?;
        columns.push(Column {
            qual: QualifiedAttr::new(
                "<agg>",
                format!(
                    "{}_{}",
                    f.to_string().to_uppercase(),
                    in_schema.column(*col).qual.attr
                ),
            ),
            domain: dom,
        });
    }
    let out_schema = RelSchema::from_columns(columns);

    let mut groups: BTreeMap<Vec<Value>, Vec<&Tuple>> = BTreeMap::new();
    for t in r.rows() {
        let key: Vec<Value> = keys.iter().map(|&k| t.value(k).clone()).collect();
        groups.entry(key).or_default().push(t);
    }
    // With no key columns, scalar aggregates get one global group even
    // over empty input — but Min/Max/Sum/Avg of nothing are undefined,
    // so only Count degrades gracefully (to 0).
    if keys.is_empty() && groups.is_empty() {
        if aggs.iter().all(|(f, _)| *f == AggFunc::Count) {
            let row: Vec<Value> = aggs.iter().map(|_| Value::int(0)).collect();
            return Relation::from_rows(out_schema, vec![Tuple::new(row)]);
        }
        return Ok(Relation::new(out_schema));
    }

    let mut out = Relation::new(out_schema);
    for (key, members) in groups {
        let mut row = key;
        for (f, col) in aggs {
            let values: Vec<&Value> = members.iter().map(|t| t.value(*col)).collect();
            row.push(f.apply(&values)?);
        }
        out.insert_unchecked(Tuple::new(row));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple;

    fn emp() -> Relation {
        let s = RelSchema::base(
            "EMP",
            &[
                ("NAME", Domain::Str),
                ("DEPT", Domain::Str),
                ("SALARY", Domain::Int),
            ],
        );
        Relation::from_rows(
            s,
            vec![
                tuple!["Ada", "eng", 120],
                tuple!["Bob", "eng", 100],
                tuple!["Cleo", "sales", 80],
            ],
        )
        .unwrap()
    }

    #[test]
    fn grouped_count_sum_avg() {
        let out = group_by(
            &emp(),
            &[1],
            &[(AggFunc::Count, 0), (AggFunc::Sum, 2), (AggFunc::Avg, 2)],
        )
        .unwrap();
        assert_eq!(out.len(), 2);
        assert!(out.contains(&tuple!["eng", 2, 220, 110]));
        assert!(out.contains(&tuple!["sales", 1, 80, 80]));
        // Output schema names.
        assert_eq!(out.schema().column(1).qual.attr, "COUNT_NAME");
        assert_eq!(out.schema().column(2).qual.attr, "SUM_SALARY");
    }

    #[test]
    fn min_max_work_on_strings_and_ints() {
        let out = group_by(&emp(), &[], &[(AggFunc::Min, 0), (AggFunc::Max, 2)]).unwrap();
        assert_eq!(out.len(), 1);
        assert!(out.contains(&tuple!["Ada", 120]));
    }

    #[test]
    fn scalar_count_of_empty_is_zero() {
        let s = RelSchema::base("E", &[("A", Domain::Int)]);
        let empty = Relation::new(s);
        let out = group_by(&empty, &[], &[(AggFunc::Count, 0)]).unwrap();
        assert_eq!(out.len(), 1);
        assert!(out.contains(&tuple![0]));
        // But min of empty has no defined value → no rows.
        let s = RelSchema::base("E", &[("A", Domain::Int)]);
        let empty = Relation::new(s);
        let out = group_by(&empty, &[], &[(AggFunc::Min, 0)]).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn grouped_empty_yields_no_groups() {
        let s = RelSchema::base("E", &[("A", Domain::Str), ("B", Domain::Int)]);
        let empty = Relation::new(s);
        let out = group_by(&empty, &[0], &[(AggFunc::Count, 1)]).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn sum_rejects_strings() {
        assert!(group_by(&emp(), &[], &[(AggFunc::Sum, 0)]).is_err());
        assert!(group_by(&emp(), &[], &[(AggFunc::Avg, 1)]).is_err());
    }

    #[test]
    fn bad_columns_rejected() {
        assert!(group_by(&emp(), &[9], &[]).is_err());
        assert!(group_by(&emp(), &[], &[(AggFunc::Count, 9)]).is_err());
    }

    #[test]
    fn parse_and_display() {
        assert_eq!(AggFunc::parse("COUNT"), Some(AggFunc::Count));
        assert_eq!(AggFunc::parse("Sum"), Some(AggFunc::Sum));
        assert_eq!(AggFunc::parse("median"), None);
        assert_eq!(AggFunc::Avg.to_string(), "avg");
    }

    #[test]
    fn count_counts_distinct_tuples() {
        // Set semantics upstream: the relation already deduplicated.
        let s = RelSchema::base("E", &[("A", Domain::Str)]);
        let mut r = Relation::new(s);
        r.insert(tuple!["x"]).unwrap();
        r.insert(tuple!["x"]).unwrap();
        r.insert(tuple!["y"]).unwrap();
        let out = group_by(&r, &[], &[(AggFunc::Count, 0)]).unwrap();
        assert!(out.contains(&tuple![2]));
    }
}
