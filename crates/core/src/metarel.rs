//! Meta-relations: the storage form of view definitions.
//!
//! For each database relation `R` the model adds a meta-relation `R'`
//! whose scheme mirrors `R` plus a `VIEW` attribute (paper, Section 3).
//! [`MetaRelation`] holds the stored meta-tuples of one relation and
//! renders the paper's Figure 1 tables (optionally combined with the
//! actual relation's rows, as the paper displays them).

use crate::metatuple::{MetaTuple, TupleId};
use motro_rel::{RelSchema, Relation};

/// The meta-relation `R'` of one base relation.
#[derive(Debug, Clone)]
pub struct MetaRelation {
    /// Name of the base relation `R`.
    pub rel: String,
    /// Scheme of `R` (the `VIEW` attribute is implicit — it is the
    /// provenance of each meta-tuple).
    pub schema: RelSchema,
    /// The stored meta-tuples, in insertion order.
    pub tuples: Vec<MetaTuple>,
}

impl MetaRelation {
    /// An empty meta-relation for `rel`.
    pub fn new(rel: &str, schema: RelSchema) -> Self {
        MetaRelation {
            rel: rel.to_owned(),
            schema,
            tuples: Vec::new(),
        }
    }

    /// Number of stored meta-tuples.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// Whether there are no meta-tuples.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// Remove every meta-tuple covering any of `ids` (used when a view
    /// is dropped).
    pub fn remove_covering(&mut self, ids: &std::collections::BTreeSet<TupleId>) {
        self.tuples.retain(|t| t.covers.is_disjoint(ids));
    }

    /// Render the meta-relation in the paper's tabular style, optionally
    /// preceded by the actual relation's rows (Figure 1 shows "each pair
    /// of relations R, R' ... as a single contiguous table").
    pub fn to_table(&self, actual: Option<&Relation>) -> String {
        let mut headers = vec!["VIEW".to_owned()];
        headers.extend(self.schema.display_headers());
        let mut rows: Vec<Vec<String>> = Vec::new();
        if let Some(rel) = actual {
            for t in rel.rows() {
                let mut row = vec![String::new()];
                row.extend(t.values().iter().map(|v| v.to_string()));
                rows.push(row);
            }
        }
        for t in &self.tuples {
            let mut row = vec![t.render_provenance()];
            row.extend(t.cells.iter().map(|c| c.render()));
            rows.push(row);
        }
        render_table(&headers, &rows)
    }
}

/// Shared ASCII-table renderer used by the meta displays.
pub(crate) fn render_table(headers: &[String], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(String::len).collect();
    for row in rows {
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
    for row in rows {
        out.push('|');
        for (c, w) in row.iter().zip(&widths) {
            out.push_str(&format!(" {c:w$} |", w = w));
        }
        out.push('\n');
    }
    rule(&mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraint::ConstraintSet;
    use crate::metatuple::MetaCell;
    use motro_rel::{tuple, Domain};

    fn schema() -> RelSchema {
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
    fn table_rendering_mixes_actual_and_meta_rows() {
        let mut mr = MetaRelation::new("PROJECT", schema());
        mr.tuples.push(MetaTuple::new(
            "PSA",
            1,
            vec![
                MetaCell::star(),
                MetaCell::constant("Acme", true),
                MetaCell::star(),
            ],
            ConstraintSet::empty(),
        ));
        let actual = Relation::from_rows(schema(), vec![tuple!["bq-45", "Acme", 300_000]]).unwrap();
        let t = mr.to_table(Some(&actual));
        assert!(t.contains("VIEW"));
        assert!(t.contains("bq-45"));
        assert!(t.contains("PSA"));
        assert!(t.contains("Acme*"));
    }

    #[test]
    fn remove_covering_drops_tuples() {
        let mut mr = MetaRelation::new("PROJECT", schema());
        mr.tuples.push(MetaTuple::new(
            "PSA",
            1,
            vec![MetaCell::star(), MetaCell::star(), MetaCell::star()],
            ConstraintSet::empty(),
        ));
        mr.tuples.push(MetaTuple::new(
            "ELP",
            2,
            vec![MetaCell::star(), MetaCell::blank(), MetaCell::star()],
            ConstraintSet::empty(),
        ));
        mr.remove_covering(&std::collections::BTreeSet::from([1]));
        assert_eq!(mr.len(), 1);
        assert!(mr.tuples[0].provenance.contains("ELP"));
    }
}
