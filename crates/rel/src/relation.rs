//! Set-semantics relations.
//!
//! The calculus the paper builds on defines a relation as a *subset* of
//! the product of its attribute domains, and the worked examples remove
//! "replications" from intermediate results. [`Relation`] therefore keeps
//! its rows duplicate-free: insertion of an existing tuple is a no-op.

use crate::error::RelResult;
use crate::schema::RelSchema;
use crate::tuple::Tuple;
use std::collections::HashSet;
use std::fmt;

/// A schema plus a duplicate-free collection of tuples.
///
/// Rows preserve insertion order (so reproduced paper tables print in the
/// paper's order) while a hash index enforces set semantics.
#[derive(Debug, Clone)]
pub struct Relation {
    schema: RelSchema,
    rows: Vec<Tuple>,
    index: HashSet<Tuple>,
}

impl Relation {
    /// An empty relation over `schema`.
    pub fn new(schema: RelSchema) -> Self {
        Relation {
            schema,
            rows: Vec::new(),
            index: HashSet::new(),
        }
    }

    /// Build from a schema and rows, validating and deduplicating.
    pub fn from_rows(schema: RelSchema, rows: Vec<Tuple>) -> RelResult<Self> {
        let mut rel = Relation::new(schema);
        for t in rows {
            rel.insert(t)?;
        }
        Ok(rel)
    }

    /// The relation's schema.
    pub fn schema(&self) -> &RelSchema {
        &self.schema
    }

    /// The rows, in insertion order.
    pub fn rows(&self) -> &[Tuple] {
        &self.rows
    }

    /// Number of (distinct) tuples.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the relation is empty.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Insert a tuple after validating it against the schema.
    ///
    /// Returns `Ok(true)` if the tuple was new, `Ok(false)` if it was a
    /// duplicate (set semantics: silently absorbed).
    pub fn insert(&mut self, tuple: Tuple) -> RelResult<bool> {
        tuple.check_against(&self.schema)?;
        Ok(self.insert_unchecked(tuple))
    }

    /// Insert without schema validation (used by algebra operators whose
    /// outputs are correct by construction).
    pub(crate) fn insert_unchecked(&mut self, tuple: Tuple) -> bool {
        if self.index.contains(&tuple) {
            false
        } else {
            self.index.insert(tuple.clone());
            self.rows.push(tuple);
            true
        }
    }

    /// Remove a tuple. Returns whether it was present.
    pub fn remove(&mut self, tuple: &Tuple) -> bool {
        if self.index.remove(tuple) {
            self.rows.retain(|t| t != tuple);
            true
        } else {
            false
        }
    }

    /// Membership test.
    pub fn contains(&self, tuple: &Tuple) -> bool {
        self.index.contains(tuple)
    }

    /// Iterate over rows.
    pub fn iter(&self) -> impl Iterator<Item = &Tuple> {
        self.rows.iter()
    }

    /// Set equality: same schema arity and same set of tuples, ignoring
    /// row order.
    pub fn set_eq(&self, other: &Relation) -> bool {
        self.schema.arity() == other.schema.arity()
            && self.len() == other.len()
            && self.rows.iter().all(|t| other.contains(t))
    }

    /// Render as an ASCII table in the paper's style.
    pub fn to_table(&self) -> String {
        let headers = self.schema.display_headers();
        let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
        let cells: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|t| t.values().iter().map(|v| v.to_string()).collect())
            .collect();
        for row in &cells {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let rule = |out: &mut String| {
            out.push('+');
            for w in &widths {
                out.push_str(&"-".repeat(w + 2));
                out.push('+');
            }
            out.push('\n');
        };
        rule(&mut out);
        out.push('|');
        for (h, w) in headers.iter().zip(&widths) {
            out.push_str(&format!(" {h:w$} |", w = w));
        }
        out.push('\n');
        rule(&mut out);
        for row in &cells {
            out.push('|');
            for (c, w) in row.iter().zip(&widths) {
                out.push_str(&format!(" {c:w$} |", w = w));
            }
            out.push('\n');
        }
        rule(&mut out);
        out
    }
}

impl PartialEq for Relation {
    fn eq(&self, other: &Self) -> bool {
        self.schema == other.schema && self.set_eq(other)
    }
}

impl Eq for Relation {}

impl fmt::Display for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_table())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple;
    use crate::value::Domain;

    fn schema() -> RelSchema {
        RelSchema::base("R", &[("A", Domain::Str), ("B", Domain::Int)])
    }

    #[test]
    fn insert_deduplicates() {
        let mut r = Relation::new(schema());
        assert!(r.insert(tuple!["x", 1]).unwrap());
        assert!(!r.insert(tuple!["x", 1]).unwrap());
        assert!(r.insert(tuple!["x", 2]).unwrap());
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn insert_validates() {
        let mut r = Relation::new(schema());
        assert!(r.insert(tuple![1, "x"]).is_err());
        assert!(r.is_empty());
    }

    #[test]
    fn remove_and_contains() {
        let mut r = Relation::new(schema());
        r.insert(tuple!["x", 1]).unwrap();
        assert!(r.contains(&tuple!["x", 1]));
        assert!(r.remove(&tuple!["x", 1]));
        assert!(!r.remove(&tuple!["x", 1]));
        assert!(r.is_empty());
    }

    #[test]
    fn set_eq_ignores_order() {
        let a = Relation::from_rows(schema(), vec![tuple!["x", 1], tuple!["y", 2]]).unwrap();
        let b = Relation::from_rows(schema(), vec![tuple!["y", 2], tuple!["x", 1]]).unwrap();
        assert!(a.set_eq(&b));
        assert_eq!(a, b);
    }

    #[test]
    fn table_render_contains_headers_and_rows() {
        let r = Relation::from_rows(schema(), vec![tuple!["Jones", 26_000]]).unwrap();
        let t = r.to_table();
        assert!(t.contains("| A "));
        assert!(t.contains("Jones"));
        assert!(t.contains("26000"));
    }
}
