//! Surface ASTs for conjunctive views and queries.

use motro_rel::{CompOp, Value};
use std::fmt;

/// A reference to an attribute of a relation occurrence, as written in
/// the paper's statements: `EMPLOYEE.NAME` or `EMPLOYEE:2.NAME`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct AttrRef {
    /// Relation name.
    pub rel: String,
    /// 1-based occurrence of the relation within the statement
    /// (`EMPLOYEE:2` → 2; plain `EMPLOYEE` → 1).
    pub occurrence: u32,
    /// Attribute name.
    pub attr: String,
}

impl AttrRef {
    /// `REL.ATTR` (occurrence 1).
    pub fn new(rel: &str, attr: &str) -> Self {
        AttrRef {
            rel: rel.to_owned(),
            occurrence: 1,
            attr: attr.to_owned(),
        }
    }

    /// `REL:i.ATTR`.
    pub fn occ(rel: &str, occurrence: u32, attr: &str) -> Self {
        AttrRef {
            rel: rel.to_owned(),
            occurrence,
            attr: attr.to_owned(),
        }
    }

    /// The `(rel, occurrence)` pair — one product factor.
    pub fn factor(&self) -> (String, u32) {
        (self.rel.clone(), self.occurrence)
    }
}

impl fmt::Display for AttrRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.occurrence == 1 {
            write!(f, "{}.{}", self.rel, self.attr)
        } else {
            write!(f, "{}:{}.{}", self.rel, self.occurrence, self.attr)
        }
    }
}

/// The right-hand side of a comparative subformula.
#[derive(Debug, Clone, PartialEq)]
pub enum CalcTerm {
    /// Another attribute reference.
    Attr(AttrRef),
    /// A constant.
    Const(Value),
}

/// Statement keywords of the shared surface language; string constants
/// colliding with them must be quoted when printed.
const KEYWORDS: [&str; 10] = [
    "view", "retrieve", "permit", "revoke", "where", "and", "or", "to", "from", "group",
];

/// Can `s` be printed as a bare identifier constant (the paper's
/// `SPONSOR = Acme` style) and re-lex to the same token?
fn bare_safe(s: &str) -> bool {
    let mut chars = s.chars();
    let Some(first) = chars.next() else {
        return false;
    };
    if !(first.is_ascii_alphabetic() || first == '_') {
        return false;
    }
    if !s
        .chars()
        .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-')
    {
        return false;
    }
    // A trailing hyphen lexes as punctuation, and hyphens must be
    // followed by alphanumerics (`bq-45`).
    if s.ends_with('-') || s.contains("--") {
        return false;
    }
    let mut prev = first;
    for c in s.chars().skip(1) {
        if prev == '-' && !c.is_ascii_alphanumeric() {
            return false;
        }
        prev = c;
    }
    !KEYWORDS.contains(&s.to_ascii_lowercase().as_str())
}

impl fmt::Display for CalcTerm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CalcTerm::Attr(a) => write!(f, "{a}"),
            // The lexer has no escapes: a string holding a `'` is
            // quoted with `"` (one holding both quotes cannot be
            // written at all).
            CalcTerm::Const(motro_rel::Value::Str(s)) if s.contains('\'') => {
                write!(f, "\"{s}\"")
            }
            CalcTerm::Const(motro_rel::Value::Str(s)) if !bare_safe(s) => {
                write!(f, "'{s}'")
            }
            CalcTerm::Const(v) => write!(f, "{v}"),
        }
    }
}

/// A comparative subformula `lhs θ rhs`.
#[derive(Debug, Clone, PartialEq)]
pub struct CalcAtom {
    /// Left attribute reference.
    pub lhs: AttrRef,
    /// Comparator.
    pub op: CompOp,
    /// Right side: attribute or constant.
    pub rhs: CalcTerm,
}

impl fmt::Display for CalcAtom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} {}", self.lhs, self.op, self.rhs)
    }
}

/// A conjunctive view or query in surface form.
///
/// The same structure serves both the `view NAME (targets) where atoms`
/// statement and the `retrieve (targets) where atoms` statement; a query
/// is simply an unnamed view (Section 2: "Queries are simply requests to
/// access particular views").
#[derive(Debug, Clone, PartialEq)]
pub struct ConjunctiveQuery {
    /// View name (`None` for ad-hoc queries).
    pub name: Option<String>,
    /// Projection targets.
    pub targets: Vec<AttrRef>,
    /// Conjunctive qualification.
    pub atoms: Vec<CalcAtom>,
}

impl ConjunctiveQuery {
    /// Start building a named view.
    pub fn view(name: &str) -> QueryBuilder {
        QueryBuilder {
            q: ConjunctiveQuery {
                name: Some(name.to_owned()),
                targets: vec![],
                atoms: vec![],
            },
        }
    }

    /// Start building an ad-hoc query.
    pub fn retrieve() -> QueryBuilder {
        QueryBuilder {
            q: ConjunctiveQuery {
                name: None,
                targets: vec![],
                atoms: vec![],
            },
        }
    }

    /// All distinct `(relation, occurrence)` factors, in first-mention
    /// order (targets first, then the qualification left to right).
    ///
    /// First-mention order is what the paper's worked examples use for
    /// their product plans (e.g. Example 2 builds
    /// `EMPLOYEE × ASSIGNMENT × PROJECT`).
    pub fn factors(&self) -> Vec<(String, u32)> {
        let mut out: Vec<(String, u32)> = Vec::new();
        let mut push = |f: (String, u32)| {
            if !out.contains(&f) {
                out.push(f);
            }
        };
        for t in &self.targets {
            push(t.factor());
        }
        for a in &self.atoms {
            push(a.lhs.factor());
            if let CalcTerm::Attr(r) = &a.rhs {
                push(r.factor());
            }
        }
        out
    }

    /// Every attribute reference appearing anywhere in the statement.
    pub fn all_refs(&self) -> Vec<&AttrRef> {
        let mut out: Vec<&AttrRef> = self.targets.iter().collect();
        for a in &self.atoms {
            out.push(&a.lhs);
            if let CalcTerm::Attr(r) = &a.rhs {
                out.push(r);
            }
        }
        out
    }
}

impl ConjunctiveQuery {
    /// Relations used with more than one occurrence (these print their
    /// `:1` explicitly, as the paper's EST example does).
    fn multi_occurrence_rels(&self) -> std::collections::BTreeSet<&str> {
        self.factors()
            .iter()
            .filter(|(_, occ)| *occ > 1)
            .map(|(rel, _)| rel.as_str())
            .collect::<std::collections::BTreeSet<_>>()
            .into_iter()
            .map(|r| {
                // Borrow from self, not the temporary factors vector.
                self.all_refs()
                    .iter()
                    .find(|a| a.rel == r)
                    .map(|a| a.rel.as_str())
                    .expect("factor relations are referenced")
            })
            .collect()
    }

    fn write_ref(
        &self,
        f: &mut fmt::Formatter<'_>,
        r: &AttrRef,
        multi: &std::collections::BTreeSet<&str>,
    ) -> fmt::Result {
        if r.occurrence == 1 && multi.contains(r.rel.as_str()) {
            write!(f, "{}:1.{}", r.rel, r.attr)
        } else {
            write!(f, "{r}")
        }
    }
}

impl fmt::Display for ConjunctiveQuery {
    /// Renders in the paper's statement syntax. When a relation appears
    /// with several occurrences, every reference is printed fully
    /// qualified (`EMPLOYEE:1.NAME`), matching the paper's EST display.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let multi = self.multi_occurrence_rels();
        match &self.name {
            Some(n) => write!(f, "view {n} (")?,
            None => write!(f, "retrieve (")?,
        }
        for (i, t) in self.targets.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            self.write_ref(f, t, &multi)?;
        }
        write!(f, ")")?;
        for (i, a) in self.atoms.iter().enumerate() {
            f.write_str(if i == 0 { " where " } else { " and " })?;
            self.write_ref(f, &a.lhs, &multi)?;
            write!(f, " {} ", a.op)?;
            match &a.rhs {
                CalcTerm::Attr(r) => self.write_ref(f, r, &multi)?,
                c => write!(f, "{c}")?,
            }
        }
        Ok(())
    }
}

/// Fluent builder for [`ConjunctiveQuery`].
#[derive(Debug, Clone)]
pub struct QueryBuilder {
    q: ConjunctiveQuery,
}

impl QueryBuilder {
    /// Add a projection target `REL.ATTR`.
    pub fn target(mut self, rel: &str, attr: &str) -> Self {
        self.q.targets.push(AttrRef::new(rel, attr));
        self
    }

    /// Add a projection target `REL:i.ATTR`.
    pub fn target_occ(mut self, rel: &str, occurrence: u32, attr: &str) -> Self {
        self.q.targets.push(AttrRef::occ(rel, occurrence, attr));
        self
    }

    /// Add a qualification atom comparing an attribute with a constant.
    pub fn where_const(mut self, lhs: AttrRef, op: CompOp, value: impl Into<Value>) -> Self {
        self.q.atoms.push(CalcAtom {
            lhs,
            op,
            rhs: CalcTerm::Const(value.into()),
        });
        self
    }

    /// Add a qualification atom comparing two attributes.
    pub fn where_attr(mut self, lhs: AttrRef, op: CompOp, rhs: AttrRef) -> Self {
        self.q.atoms.push(CalcAtom {
            lhs,
            op,
            rhs: CalcTerm::Attr(rhs),
        });
        self
    }

    /// Finish building.
    pub fn build(self) -> ConjunctiveQuery {
        self.q
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn elp() -> ConjunctiveQuery {
        ConjunctiveQuery::view("ELP")
            .target("EMPLOYEE", "NAME")
            .target("EMPLOYEE", "TITLE")
            .target("PROJECT", "NUMBER")
            .target("PROJECT", "BUDGET")
            .where_attr(
                AttrRef::new("EMPLOYEE", "NAME"),
                CompOp::Eq,
                AttrRef::new("ASSIGNMENT", "E_NAME"),
            )
            .where_attr(
                AttrRef::new("PROJECT", "NUMBER"),
                CompOp::Eq,
                AttrRef::new("ASSIGNMENT", "P_NO"),
            )
            .where_const(AttrRef::new("PROJECT", "BUDGET"), CompOp::Ge, 250_000)
            .build()
    }

    #[test]
    fn factors_in_first_mention_order() {
        let q = elp();
        assert_eq!(
            q.factors(),
            vec![
                ("EMPLOYEE".to_owned(), 1),
                ("PROJECT".to_owned(), 1),
                ("ASSIGNMENT".to_owned(), 1)
            ]
        );
    }

    #[test]
    fn self_join_factors() {
        let q = ConjunctiveQuery::view("EST")
            .target_occ("EMPLOYEE", 1, "NAME")
            .target_occ("EMPLOYEE", 2, "NAME")
            .target_occ("EMPLOYEE", 1, "TITLE")
            .where_attr(
                AttrRef::occ("EMPLOYEE", 1, "TITLE"),
                CompOp::Eq,
                AttrRef::occ("EMPLOYEE", 2, "TITLE"),
            )
            .build();
        assert_eq!(
            q.factors(),
            vec![("EMPLOYEE".to_owned(), 1), ("EMPLOYEE".to_owned(), 2)]
        );
    }

    #[test]
    fn display_matches_paper_syntax() {
        let q = elp();
        let s = q.to_string();
        assert!(s.starts_with(
            "view ELP (EMPLOYEE.NAME, EMPLOYEE.TITLE, PROJECT.NUMBER, PROJECT.BUDGET)"
        ));
        assert!(s.contains("where EMPLOYEE.NAME = ASSIGNMENT.E_NAME"));
        assert!(s.contains("and PROJECT.BUDGET >= 250000"));
    }

    #[test]
    fn self_join_display_qualifies_all_occurrences() {
        // The paper's EST statement, verbatim.
        let q = ConjunctiveQuery::view("EST")
            .target_occ("EMPLOYEE", 1, "NAME")
            .target_occ("EMPLOYEE", 2, "NAME")
            .target_occ("EMPLOYEE", 1, "TITLE")
            .where_attr(
                AttrRef::occ("EMPLOYEE", 1, "TITLE"),
                CompOp::Eq,
                AttrRef::occ("EMPLOYEE", 2, "TITLE"),
            )
            .build();
        assert_eq!(
            q.to_string(),
            "view EST (EMPLOYEE:1.NAME, EMPLOYEE:2.NAME, EMPLOYEE:1.TITLE) where EMPLOYEE:1.TITLE = EMPLOYEE:2.TITLE"
        );
    }

    #[test]
    fn retrieve_display() {
        let q = ConjunctiveQuery::retrieve()
            .target("PROJECT", "NUMBER")
            .where_const(AttrRef::new("PROJECT", "BUDGET"), CompOp::Ge, 250_000)
            .build();
        assert_eq!(
            q.to_string(),
            "retrieve (PROJECT.NUMBER) where PROJECT.BUDGET >= 250000"
        );
    }

    #[test]
    fn occurrence_display() {
        assert_eq!(
            AttrRef::occ("EMPLOYEE", 2, "NAME").to_string(),
            "EMPLOYEE:2.NAME"
        );
        assert_eq!(
            AttrRef::new("EMPLOYEE", "NAME").to_string(),
            "EMPLOYEE.NAME"
        );
    }

    #[test]
    fn constant_quoting_in_display() {
        let q = |v: Value| {
            ConjunctiveQuery::retrieve()
                .target("R", "A")
                .where_const(AttrRef::new("R", "B"), CompOp::Eq, v)
                .build()
                .to_string()
        };
        // Identifier-like constants print bare (the paper's style).
        assert!(q(Value::str("Acme")).ends_with("R.B = Acme"));
        assert!(q(Value::str("bq-45")).ends_with("R.B = bq-45"));
        // Keywords, spaces, digits-first, odd hyphens get quoted.
        assert!(q(Value::str("or")).ends_with("R.B = 'or'"));
        assert!(q(Value::str("To")).ends_with("R.B = 'To'"));
        assert!(q(Value::str("two words")).ends_with("R.B = 'two words'"));
        assert!(q(Value::str("9lives")).ends_with("R.B = '9lives'"));
        assert!(q(Value::str("x-")).ends_with("R.B = 'x-'"));
        assert!(q(Value::str("")).ends_with("R.B = ''"));
    }

    #[test]
    fn all_refs_collects_everything() {
        let q = elp();
        assert_eq!(q.all_refs().len(), 4 + 5);
    }
}
