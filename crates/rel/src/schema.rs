//! Relation schemas with occurrence-qualified attributes.
//!
//! The paper's Example 3 runs `EMPLOYEE × EMPLOYEE` and addresses the
//! resulting columns as `NAME:1`, `TITLE:1`, ..., `NAME:2`, ... (footnote:
//! "When a relation has several attributes named A, then A:i denotes the
//! i'th appearance of A"). Likewise views may reference several
//! occurrences of the same relation (`EMPLOYEE:1.NAME`, `EMPLOYEE:2.NAME`).
//!
//! A [`RelSchema`] therefore records, for every column, the relation name
//! it descends from, the *occurrence index* of that relation, and the
//! attribute name. Three resolution modes are offered, mirroring the
//! paper's surface syntax:
//!
//! * bare attribute (`NAME`) — must be unambiguous;
//! * attribute occurrence (`NAME:2`) — the i'th appearance left-to-right;
//! * fully qualified (`EMPLOYEE:2.NAME`).

use crate::error::{RelError, RelResult};
use crate::value::Domain;
use std::fmt;

/// A relation name (e.g. `EMPLOYEE`).
pub type RelName = String;

/// An attribute name (e.g. `SALARY`).
pub type AttrName = String;

/// A fully qualified attribute: relation name, occurrence of that relation
/// within the enclosing expression (1-based), and attribute name.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct QualifiedAttr {
    /// The relation the column descends from.
    pub rel: RelName,
    /// 1-based occurrence index of `rel` within the schema.
    pub occurrence: u32,
    /// The attribute name within `rel`.
    pub attr: AttrName,
}

impl QualifiedAttr {
    /// Construct a qualified attribute for the first occurrence of `rel`.
    pub fn new(rel: impl Into<RelName>, attr: impl Into<AttrName>) -> Self {
        QualifiedAttr {
            rel: rel.into(),
            occurrence: 1,
            attr: attr.into(),
        }
    }

    /// Construct a qualified attribute with an explicit occurrence index.
    pub fn with_occurrence(
        rel: impl Into<RelName>,
        occurrence: u32,
        attr: impl Into<AttrName>,
    ) -> Self {
        QualifiedAttr {
            rel: rel.into(),
            occurrence,
            attr: attr.into(),
        }
    }
}

impl fmt::Display for QualifiedAttr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.occurrence == 1 {
            write!(f, "{}.{}", self.rel, self.attr)
        } else {
            write!(f, "{}:{}.{}", self.rel, self.occurrence, self.attr)
        }
    }
}

/// One column of a schema: its provenance plus its domain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Column {
    /// Provenance-qualified name.
    pub qual: QualifiedAttr,
    /// Value domain of the column.
    pub domain: Domain,
}

/// A relation scheme: an ordered list of typed, provenance-qualified
/// columns.
///
/// Order matters operationally (tuples are positional) even though the
/// calculus treats schemes as attribute sets; the paper's meta-relations
/// mirror the column order of the actual relations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RelSchema {
    columns: Vec<Column>,
}

impl RelSchema {
    /// Build a base-relation schema: every column descends from `rel`,
    /// occurrence 1.
    pub fn base(rel: &str, attrs: &[(&str, Domain)]) -> Self {
        RelSchema {
            columns: attrs
                .iter()
                .map(|(a, d)| Column {
                    qual: QualifiedAttr::new(rel, *a),
                    domain: *d,
                })
                .collect(),
        }
    }

    /// Build a schema from explicit columns.
    pub fn from_columns(columns: Vec<Column>) -> Self {
        RelSchema { columns }
    }

    /// An empty schema (the schema of a 0-ary relation).
    pub fn empty() -> Self {
        RelSchema { columns: vec![] }
    }

    /// Number of columns (the arity).
    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    /// The columns, in order.
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// The column at `idx`.
    pub fn column(&self, idx: usize) -> &Column {
        &self.columns[idx]
    }

    /// The domain of column `idx`.
    pub fn domain(&self, idx: usize) -> Domain {
        self.columns[idx].domain
    }

    /// Resolve a bare attribute name. Errors when missing or ambiguous.
    pub fn index_of_attr(&self, attr: &str) -> RelResult<usize> {
        let mut found = None;
        for (i, c) in self.columns.iter().enumerate() {
            if c.qual.attr == attr {
                if found.is_some() {
                    return Err(RelError::AmbiguousAttribute(attr.to_owned()));
                }
                found = Some(i);
            }
        }
        found.ok_or_else(|| RelError::UnknownAttribute(attr.to_owned()))
    }

    /// Resolve the i'th (1-based) appearance of `attr`, the paper's `A:i`
    /// notation for product schemas.
    pub fn index_of_attr_occurrence(&self, attr: &str, i: u32) -> RelResult<usize> {
        let mut seen = 0u32;
        for (idx, c) in self.columns.iter().enumerate() {
            if c.qual.attr == attr {
                seen += 1;
                if seen == i {
                    return Ok(idx);
                }
            }
        }
        Err(RelError::UnknownAttribute(format!("{attr}:{i}")))
    }

    /// Resolve a fully qualified attribute (`rel`, occurrence, `attr`).
    pub fn index_of_qualified(&self, rel: &str, occurrence: u32, attr: &str) -> RelResult<usize> {
        self.columns
            .iter()
            .position(|c| {
                c.qual.rel == rel && c.qual.occurrence == occurrence && c.qual.attr == attr
            })
            .ok_or_else(|| RelError::UnknownAttribute(format!("{rel}:{occurrence}.{attr}")))
    }

    /// The schema of the product `self × other`.
    ///
    /// Occurrence indices of relations in `other` are shifted past the
    /// occurrences already present in `self`, so `EMPLOYEE × EMPLOYEE`
    /// yields columns qualified `EMPLOYEE:1.*` then `EMPLOYEE:2.*`.
    pub fn product(&self, other: &RelSchema) -> RelSchema {
        let mut columns = self.columns.clone();
        for c in &other.columns {
            let shift = self.max_occurrence(&c.qual.rel);
            let mut q = c.qual.clone();
            q.occurrence += shift;
            columns.push(Column {
                qual: q,
                domain: c.domain,
            });
        }
        RelSchema { columns }
    }

    /// Highest occurrence index of `rel` within this schema (0 if absent).
    pub fn max_occurrence(&self, rel: &str) -> u32 {
        self.columns
            .iter()
            .filter(|c| c.qual.rel == rel)
            .map(|c| c.qual.occurrence)
            .max()
            .unwrap_or(0)
    }

    /// The schema obtained by projecting onto the columns at `indices`
    /// (in the given order).
    pub fn project(&self, indices: &[usize]) -> RelSchema {
        RelSchema {
            columns: indices.iter().map(|&i| self.columns[i].clone()).collect(),
        }
    }

    /// Column headers in the paper's display style: bare attribute names,
    /// disambiguated with `:i` when an attribute name repeats.
    pub fn display_headers(&self) -> Vec<String> {
        let mut headers = Vec::with_capacity(self.columns.len());
        for (i, c) in self.columns.iter().enumerate() {
            let dup = self
                .columns
                .iter()
                .enumerate()
                .any(|(j, d)| j != i && d.qual.attr == c.qual.attr);
            if dup {
                let nth = self.columns[..=i]
                    .iter()
                    .filter(|d| d.qual.attr == c.qual.attr)
                    .count();
                headers.push(format!("{}:{}", c.qual.attr, nth));
            } else {
                headers.push(c.qual.attr.clone());
            }
        }
        headers
    }
}

impl fmt::Display for RelSchema {
    /// Writes `(H1, H2, ...)` with the paper-style headers.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({})", self.display_headers().join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn employee() -> RelSchema {
        RelSchema::base(
            "EMPLOYEE",
            &[
                ("NAME", Domain::Str),
                ("TITLE", Domain::Str),
                ("SALARY", Domain::Int),
            ],
        )
    }

    fn project() -> RelSchema {
        RelSchema::base(
            "PROJECT",
            &[
                ("NUMBER", Domain::Str),
                ("SPONSOR", Domain::Str),
                ("BUDGET", Domain::Int),
            ],
        )
    }

    #[test]
    fn base_schema_columns() {
        let s = employee();
        assert_eq!(s.arity(), 3);
        assert_eq!(s.column(0).qual.to_string(), "EMPLOYEE.NAME");
        assert_eq!(s.domain(2), Domain::Int);
    }

    #[test]
    fn bare_attribute_resolution() {
        let s = employee();
        assert_eq!(s.index_of_attr("TITLE").unwrap(), 1);
        assert!(matches!(
            s.index_of_attr("BUDGET"),
            Err(RelError::UnknownAttribute(_))
        ));
    }

    #[test]
    fn self_product_renumbers_occurrences() {
        let s = employee().product(&employee());
        assert_eq!(s.arity(), 6);
        assert_eq!(s.column(0).qual.occurrence, 1);
        assert_eq!(s.column(3).qual.occurrence, 2);
        assert_eq!(s.column(3).qual.to_string(), "EMPLOYEE:2.NAME");
        // bare NAME now ambiguous
        assert!(matches!(
            s.index_of_attr("NAME"),
            Err(RelError::AmbiguousAttribute(_))
        ));
        // the paper's A:i notation
        assert_eq!(s.index_of_attr_occurrence("NAME", 1).unwrap(), 0);
        assert_eq!(s.index_of_attr_occurrence("NAME", 2).unwrap(), 3);
        // fully qualified
        assert_eq!(s.index_of_qualified("EMPLOYEE", 2, "SALARY").unwrap(), 5);
    }

    #[test]
    fn mixed_product_keeps_distinct_relations_at_occurrence_one() {
        let s = employee().product(&project());
        assert_eq!(s.column(3).qual.to_string(), "PROJECT.NUMBER");
        assert_eq!(s.index_of_attr("BUDGET").unwrap(), 5);
    }

    #[test]
    fn triple_self_product() {
        let s = employee().product(&employee()).product(&employee());
        assert_eq!(s.column(6).qual.occurrence, 3);
        assert_eq!(s.index_of_attr_occurrence("SALARY", 3).unwrap(), 8);
    }

    #[test]
    fn projection_schema() {
        let s = employee().project(&[2, 0]);
        assert_eq!(s.arity(), 2);
        assert_eq!(s.column(0).qual.attr, "SALARY");
        assert_eq!(s.column(1).qual.attr, "NAME");
    }

    #[test]
    fn display_headers_disambiguate() {
        let s = employee().product(&employee());
        let h = s.display_headers();
        assert_eq!(h[0], "NAME:1");
        assert_eq!(h[3], "NAME:2");
        let single = employee();
        assert_eq!(single.display_headers()[0], "NAME");
    }

    #[test]
    fn display_form() {
        assert_eq!(employee().to_string(), "(NAME, TITLE, SALARY)");
    }
}
