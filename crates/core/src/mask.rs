//! Masks: applying the meta-answer `A'` to the answer `A`.
//!
//! The meta-tuples surviving the meta-plan are "taken as a mask that is
//! applied to the answer, yielding the data that may be delivered to the
//! user. This answer is accompanied by statements describing the
//! portions delivered" (paper, Section 1).
//!
//! A mask meta-tuple *covers* an answer tuple when its constants match,
//! its variables bind consistently (the same variable in two columns
//! forces equal values), and its comparison constraints hold under that
//! binding. Covered tuples reveal the meta-tuple's **starred** columns;
//! visibility is the union over all mask tuples; tuples with no visible
//! cell are withheld entirely.

use crate::meta_algebra::cell_admits;
use crate::metarel::render_table;
use crate::metatuple::{CellContent, MetaTuple, VarId};
use motro_rel::{RelSchema, Relation, Tuple, Value};
use std::collections::HashMap;
use std::fmt;

/// The permission mask for one query's answer.
#[derive(Debug, Clone)]
pub struct Mask {
    /// The answer's schema.
    pub schema: RelSchema,
    /// The surviving meta-tuples (`A'`).
    pub tuples: Vec<MetaTuple>,
}

impl Mask {
    /// Build a mask, minimizing it (subsumed meta-tuples dropped).
    pub fn new(schema: RelSchema, tuples: Vec<MetaTuple>) -> Self {
        let mut m = Mask { schema, tuples };
        m.minimize();
        m
    }

    /// Number of mask tuples.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// No mask tuples — nothing may be delivered.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// Does some mask tuple grant the entire answer (all columns
    /// starred, no conditions)?
    pub fn is_full(&self) -> bool {
        self.tuples
            .iter()
            .any(|t| t.cells.iter().all(|c| c.starred && c.is_blank()) && t.constraints.is_empty())
    }

    /// Drop mask tuples subsumed by another (weaker-or-equal condition,
    /// superset of stars). Purely cosmetic: the union of coverage is
    /// unchanged.
    fn minimize(&mut self) {
        let tuples = std::mem::take(&mut self.tuples);
        let mut kept: Vec<MetaTuple> = Vec::with_capacity(tuples.len());
        'outer: for t in tuples {
            // Subsumed by something kept already?
            for q in &kept {
                if subsumes(q, &t) {
                    continue 'outer;
                }
            }
            // Remove kept entries the newcomer subsumes.
            kept.retain(|q| !subsumes(&t, q));
            kept.push(t);
        }
        self.tuples = kept;
    }

    /// Per-column visibility of one answer tuple.
    pub fn coverage(&self, tuple: &Tuple) -> Vec<bool> {
        let mut visible = vec![false; self.schema.arity()];
        for mt in &self.tuples {
            if admits(mt, tuple) {
                for (i, c) in mt.cells.iter().enumerate() {
                    if c.starred {
                        visible[i] = true;
                    }
                }
            }
        }
        visible
    }

    /// Apply the mask to the answer.
    pub fn apply(&self, answer: &Relation) -> MaskedRelation {
        let _stage = motro_obs::profile::stage("mask.apply");
        let t_apply = motro_obs::start();
        let mut rows = Vec::new();
        let mut withheld = 0usize;
        for t in answer.rows() {
            let vis = self.coverage(t);
            if vis.iter().any(|&v| v) {
                let row: Vec<Option<Value>> = t
                    .values()
                    .iter()
                    .zip(&vis)
                    .map(|(v, &ok)| if ok { Some(v.clone()) } else { None })
                    .collect();
                rows.push(row);
            } else {
                withheld += 1;
            }
        }
        // Masking can introduce duplicate delivered rows; set semantics
        // apply to what the user sees.
        let mut seen = std::collections::BTreeSet::new();
        rows.retain(|r| seen.insert(format!("{r:?}")));
        let out = MaskedRelation {
            schema: self.schema.clone(),
            rows,
            withheld,
        };
        motro_obs::profile::annotate("rows_in", answer.len());
        motro_obs::profile::annotate("delivered", out.rows.len());
        motro_obs::profile::annotate("withheld", withheld);
        motro_obs::profile::annotate("mask_tuples", self.tuples.len());
        motro_obs::histogram!("mask.apply_ns").record_since(t_apply);
        motro_obs::counter!("mask.rows.delivered").add(out.rows.len() as u64);
        motro_obs::counter!("mask.rows.withheld").add(withheld as u64);
        motro_obs::counter!("mask.cells.delivered").add(out.visible_cells() as u64);
        motro_obs::counter!("mask.cells.masked")
            .add((out.total_cells() - out.visible_cells()) as u64);
        out
    }

    /// Per-mask-tuple coverage of one answer tuple: for each mask tuple
    /// (in order), `Ok(())` when it admits the row, `Err(reason)` with a
    /// human-readable explanation when it does not. Drives EXPLAIN.
    pub fn admit_reasons(&self, tuple: &Tuple) -> Vec<Result<(), String>> {
        self.tuples
            .iter()
            .map(|mt| admit_explain(mt, tuple, &self.schema))
            .collect()
    }

    /// A deterministic, byte-stable rendering of the mask: the schema's
    /// display headers followed by every meta-tuple's display form, one
    /// per line, sorted. Two masks that admit exactly the same
    /// meta-tuples render identically regardless of pipeline ordering
    /// or executor parallelism — this is what the audit journal records
    /// and what `motro-audit replay` compares byte-for-byte.
    pub fn canonical_render(&self) -> String {
        let mut lines: Vec<String> = self.tuples.iter().map(|t| t.to_string()).collect();
        lines.sort();
        let mut out = format!("({})", self.schema.display_headers().join(", "));
        for l in &lines {
            out.push('\n');
            out.push_str(l);
        }
        out
    }

    /// The inferred `permit` statements describing the delivered
    /// portions. A full-access mask yields none (the paper delivers such
    /// answers "without any accompanying permit statements").
    pub fn describe(&self) -> Vec<PermitStatement> {
        if self.is_full() {
            return Vec::new();
        }
        self.tuples
            .iter()
            .map(|t| PermitStatement::from_meta(t, &self.schema))
            .collect()
    }
}

/// Does mask tuple `q` reveal at least as much as `t` on every answer?
///
/// Conservative test: `q`'s stars must cover `t`'s; each of `q`'s fields
/// must be blank or identical to `t`'s; `q`'s constraint atoms must be a
/// subset of `t`'s.
fn subsumes(q: &MetaTuple, t: &MetaTuple) -> bool {
    if q.cells.len() != t.cells.len() {
        return false;
    }
    for (qc, tc) in q.cells.iter().zip(&t.cells) {
        if tc.starred && !qc.starred {
            return false;
        }
        match &qc.content {
            CellContent::Blank => {}
            c if *c == tc.content => {}
            _ => return false,
        }
    }
    q.constraints
        .atoms()
        .iter()
        .all(|a| t.constraints.atoms().contains(a))
}

/// [`admits`] with a reason on failure, rendered against `schema`'s
/// column names.
fn admit_explain(mt: &MetaTuple, t: &Tuple, schema: &RelSchema) -> Result<(), String> {
    let headers = schema.display_headers();
    let mut binding: HashMap<VarId, Value> = HashMap::new();
    let mut first_pos: HashMap<VarId, usize> = HashMap::new();
    for (i, (cell, v)) in mt.cells.iter().zip(t.values()).enumerate() {
        match &cell.content {
            CellContent::Blank => {}
            CellContent::Const(c) => {
                if c != v {
                    return Err(format!("requires {} = {c}, row has {v}", headers[i]));
                }
            }
            CellContent::Var(x) => match binding.get(x) {
                Some(b) if b != v => {
                    let j = first_pos[x];
                    return Err(format!(
                        "requires {} = {} (shared variable), row has {b} vs {v}",
                        headers[j], headers[i]
                    ));
                }
                Some(_) => {}
                None => {
                    binding.insert(*x, v.clone());
                    first_pos.insert(*x, i);
                }
            },
        }
    }
    if mt
        .constraints
        .eval(&|x| binding.get(&x).cloned())
        .unwrap_or(false)
    {
        Ok(())
    } else {
        Err(format!("condition {} fails for this row", mt.constraints))
    }
}

/// Does `mt` cover answer tuple `t`?
fn admits(mt: &MetaTuple, t: &Tuple) -> bool {
    let mut binding: HashMap<VarId, Value> = HashMap::new();
    for (cell, v) in mt.cells.iter().zip(t.values()) {
        if !cell_admits(cell, v, &mut binding) {
            return false;
        }
    }
    // All constraint variables appear in some cell (projection dropped
    // tuples whose constrained variables lost their fields), so the
    // binding is total for them; anything undecided is conservatively
    // denied.
    mt.constraints
        .eval(&|x| binding.get(&x).cloned())
        .unwrap_or(false)
}

/// A masked answer: the query's schema with per-cell visibility.
#[derive(Debug, Clone)]
pub struct MaskedRelation {
    /// The answer schema.
    pub schema: RelSchema,
    /// Delivered rows; `None` cells are masked.
    pub rows: Vec<Vec<Option<Value>>>,
    /// Answer tuples withheld entirely.
    pub withheld: usize,
}

impl MaskedRelation {
    /// Number of delivered (partially or fully visible) rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// No rows delivered.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Count of visible cells.
    pub fn visible_cells(&self) -> usize {
        self.rows
            .iter()
            .map(|r| r.iter().filter(|c| c.is_some()).count())
            .sum()
    }

    /// Total cells across delivered rows.
    pub fn total_cells(&self) -> usize {
        self.rows.len() * self.schema.arity()
    }

    /// Render with masked cells shown as `#` (the paper masks values but
    /// keeps the result's structure).
    pub fn to_table(&self) -> String {
        let headers = self.schema.display_headers();
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                r.iter()
                    .map(|c| match c {
                        Some(v) => v.to_string(),
                        None => "#".to_owned(),
                    })
                    .collect()
            })
            .collect();
        render_table(&headers, &rows)
    }
}

/// One condition of an inferred `permit` statement.
#[derive(Debug, Clone, PartialEq)]
pub enum PermitCondition {
    /// `ATTR θ constant`.
    AttrConst {
        /// Attribute display name.
        attr: String,
        /// Comparator.
        op: motro_rel::CompOp,
        /// Constant.
        value: Value,
    },
    /// `ATTR θ ATTR`.
    AttrAttr {
        /// Left attribute display name.
        lhs: String,
        /// Comparator.
        op: motro_rel::CompOp,
        /// Right attribute display name.
        rhs: String,
    },
}

impl fmt::Display for PermitCondition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PermitCondition::AttrConst { attr, op, value } => {
                write!(f, "{attr} {op} {value}")
            }
            PermitCondition::AttrAttr { lhs, op, rhs } => write!(f, "{lhs} {op} {rhs}"),
        }
    }
}

/// An inferred `permit` statement: the paper's
/// `permit (NUMBER, SPONSOR) where SPONSOR = Acme`.
#[derive(Debug, Clone, PartialEq)]
pub struct PermitStatement {
    /// Attributes delivered by this portion.
    pub attrs: Vec<String>,
    /// Conditions delimiting the portion.
    pub conditions: Vec<PermitCondition>,
}

impl PermitStatement {
    /// Derive the statement for one mask tuple over the answer schema.
    pub fn from_meta(t: &MetaTuple, schema: &RelSchema) -> PermitStatement {
        let headers = schema.display_headers();
        let attrs: Vec<String> = t
            .cells
            .iter()
            .enumerate()
            .filter(|(_, c)| c.starred)
            .map(|(i, _)| headers[i].clone())
            .collect();
        let mut conditions = Vec::new();
        // Constant fields.
        for (i, c) in t.cells.iter().enumerate() {
            if let CellContent::Const(v) = &c.content {
                conditions.push(PermitCondition::AttrConst {
                    attr: headers[i].clone(),
                    op: motro_rel::CompOp::Eq,
                    value: v.clone(),
                });
            }
        }
        // Variable fields: shared positions become equalities; atoms
        // become conditions anchored at the variable's first position.
        let mut var_positions: HashMap<VarId, Vec<usize>> = HashMap::new();
        for (i, c) in t.cells.iter().enumerate() {
            if let CellContent::Var(x) = c.content {
                var_positions.entry(x).or_default().push(i);
            }
        }
        let mut vars: Vec<(&VarId, &Vec<usize>)> = var_positions.iter().collect();
        vars.sort();
        for (x, positions) in vars {
            for w in positions.windows(2) {
                conditions.push(PermitCondition::AttrAttr {
                    lhs: headers[w[0]].clone(),
                    op: motro_rel::CompOp::Eq,
                    rhs: headers[w[1]].clone(),
                });
            }
            let anchor = positions[0];
            for a in t.constraints.atoms() {
                if a.lhs == *x {
                    match &a.rhs {
                        crate::constraint::Rhs::Const(v) => {
                            conditions.push(PermitCondition::AttrConst {
                                attr: headers[anchor].clone(),
                                op: a.op,
                                value: v.clone(),
                            });
                        }
                        crate::constraint::Rhs::Var(y) => {
                            if let Some(ps) = var_positions.get(y) {
                                conditions.push(PermitCondition::AttrAttr {
                                    lhs: headers[anchor].clone(),
                                    op: a.op,
                                    rhs: headers[ps[0]].clone(),
                                });
                            }
                        }
                    }
                }
            }
        }
        PermitStatement { attrs, conditions }
    }
}

impl fmt::Display for PermitStatement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "permit ({})", self.attrs.join(", "))?;
        for (i, c) in self.conditions.iter().enumerate() {
            if i == 0 {
                write!(f, " where {c}")?;
            } else {
                write!(f, " and {c}")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraint::{ConstraintAtom, ConstraintSet};
    use crate::metatuple::MetaCell;
    use motro_rel::{tuple, CompOp, Domain};

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

    fn answer() -> Relation {
        Relation::from_rows(
            schema(),
            vec![
                tuple!["bq-45", "Acme", 300_000],
                tuple!["sv-72", "Apex", 450_000],
                tuple!["vg-13", "Summit", 150_000],
            ],
        )
        .unwrap()
    }

    fn mt(view: &str, cells: Vec<MetaCell>) -> MetaTuple {
        MetaTuple::new(view, 1, cells, ConstraintSet::empty())
    }

    /// Example 1's mask `(*, Acme*)` over `(NUMBER, SPONSOR)`.
    #[test]
    fn constant_mask_filters_rows() {
        let s = schema().project(&[0, 1]);
        let ans = Relation::from_rows(
            s.clone(),
            vec![tuple!["bq-45", "Acme"], tuple!["sv-72", "Apex"]],
        )
        .unwrap();
        let mask = Mask::new(
            s,
            vec![mt(
                "PSA",
                vec![MetaCell::star(), MetaCell::constant("Acme", true)],
            )],
        );
        let out = mask.apply(&ans);
        assert_eq!(out.len(), 1);
        assert_eq!(out.withheld, 1);
        assert_eq!(out.rows[0][0], Some(Value::str("bq-45")));
        let stmts = mask.describe();
        assert_eq!(stmts.len(), 1);
        assert_eq!(
            stmts[0].to_string(),
            "permit (NUMBER, SPONSOR) where SPONSOR = Acme"
        );
    }

    /// Example 2's mask `(*, ⊔)`: names visible, salaries masked.
    #[test]
    fn column_mask_hides_cells() {
        let s = RelSchema::base("E", &[("NAME", Domain::Str), ("SALARY", Domain::Int)]);
        let ans = Relation::from_rows(s.clone(), vec![tuple!["Brown", 32_000]]).unwrap();
        let mask = Mask::new(
            s,
            vec![mt("ELP", vec![MetaCell::star(), MetaCell::blank()])],
        );
        let out = mask.apply(&ans);
        assert_eq!(out.len(), 1);
        assert_eq!(out.rows[0][0], Some(Value::str("Brown")));
        assert_eq!(out.rows[0][1], None);
        assert_eq!(out.visible_cells(), 1);
        assert_eq!(out.total_cells(), 2);
        assert_eq!(mask.describe()[0].to_string(), "permit (NAME)");
        assert!(out.to_table().contains('#'));
    }

    #[test]
    fn full_mask_has_no_statements() {
        let s = schema();
        let mask = Mask::new(
            s,
            vec![mt(
                "V",
                vec![MetaCell::star(), MetaCell::star(), MetaCell::star()],
            )],
        );
        assert!(mask.is_full());
        assert!(mask.describe().is_empty());
        let out = mask.apply(&answer());
        assert_eq!(out.len(), 3);
        assert_eq!(out.withheld, 0);
        assert_eq!(out.visible_cells(), 9);
    }

    #[test]
    fn empty_mask_withholds_everything() {
        let mask = Mask::new(schema(), vec![]);
        let out = mask.apply(&answer());
        assert!(out.is_empty());
        assert_eq!(out.withheld, 3);
    }

    #[test]
    fn union_of_mask_tuples() {
        // One tuple reveals NUMBER of Acme rows; another reveals BUDGET
        // everywhere.
        let mask = Mask::new(
            schema(),
            vec![
                mt(
                    "A",
                    vec![
                        MetaCell::star(),
                        MetaCell::constant("Acme", false),
                        MetaCell::blank(),
                    ],
                ),
                mt(
                    "B",
                    vec![MetaCell::blank(), MetaCell::blank(), MetaCell::star()],
                ),
            ],
        );
        let out = mask.apply(&answer());
        assert_eq!(out.len(), 3);
        // Acme row: NUMBER + BUDGET visible.
        assert_eq!(out.rows[0][0], Some(Value::str("bq-45")));
        assert_eq!(out.rows[0][1], None);
        assert_eq!(out.rows[0][2], Some(Value::int(300_000)));
        // Non-Acme rows: only BUDGET.
        assert_eq!(out.rows[1][0], None);
        assert_eq!(out.rows[1][2], Some(Value::int(450_000)));
    }

    #[test]
    fn shared_variable_requires_equal_values() {
        let s = RelSchema::base("E", &[("A", Domain::Str), ("B", Domain::Str)]);
        let ans = Relation::from_rows(s.clone(), vec![tuple!["x", "x"], tuple!["x", "y"]]).unwrap();
        let mask = Mask::new(
            s,
            vec![mt(
                "V",
                vec![MetaCell::var(1, true), MetaCell::var(1, true)],
            )],
        );
        let out = mask.apply(&ans);
        assert_eq!(out.len(), 1);
        assert_eq!(out.withheld, 1);
        // Description includes the equality.
        let d = mask.describe();
        assert_eq!(d[0].to_string(), "permit (A, B) where A = B");
    }

    #[test]
    fn variable_constraints_checked_at_application() {
        let s = RelSchema::base("P", &[("BUDGET", Domain::Int)]);
        let ans = Relation::from_rows(s.clone(), vec![tuple![300_000], tuple![100_000]]).unwrap();
        let t = MetaTuple::new(
            "V",
            1,
            vec![MetaCell::var(3, true)],
            ConstraintSet::new(vec![ConstraintAtom::var_const(3, CompOp::Ge, 250_000)]),
        );
        let mask = Mask::new(s, vec![t]);
        let out = mask.apply(&ans);
        assert_eq!(out.len(), 1);
        assert_eq!(out.rows[0][0], Some(Value::int(300_000)));
        assert_eq!(
            mask.describe()[0].to_string(),
            "permit (BUDGET) where BUDGET >= 250000"
        );
    }

    #[test]
    fn minimization_drops_subsumed_tuples() {
        let full = mt(
            "V",
            vec![MetaCell::star(), MetaCell::star(), MetaCell::star()],
        );
        let partial = mt(
            "W",
            vec![MetaCell::star(), MetaCell::blank(), MetaCell::blank()],
        );
        let mask = Mask::new(schema(), vec![partial, full]);
        assert_eq!(mask.len(), 1);
        assert!(mask.is_full());
    }

    #[test]
    fn minimization_keeps_incomparable_tuples() {
        let a = mt(
            "A",
            vec![
                MetaCell::star(),
                MetaCell::constant("Acme", true),
                MetaCell::blank(),
            ],
        );
        let b = mt(
            "B",
            vec![MetaCell::blank(), MetaCell::blank(), MetaCell::star()],
        );
        let mask = Mask::new(schema(), vec![a, b]);
        assert_eq!(mask.len(), 2);
    }

    #[test]
    fn var_var_constraint_in_description_and_application() {
        // "Occurrence 1 earns more than occurrence 2" as a mask.
        let s = RelSchema::base("E", &[("SALARY", Domain::Int), ("SALARY", Domain::Int)]);
        let t = MetaTuple::new(
            "V",
            1,
            vec![MetaCell::var(1, true), MetaCell::var(2, true)],
            ConstraintSet::new(vec![ConstraintAtom::var_var(1, CompOp::Gt, 2)]),
        );
        let mask = Mask::new(s.clone(), vec![t]);
        let ans =
            Relation::from_rows(s, vec![tuple![20, 10], tuple![10, 20], tuple![5, 5]]).unwrap();
        let out = mask.apply(&ans);
        assert_eq!(out.len(), 1);
        assert_eq!(out.rows[0][0], Some(Value::int(20)));
        let d = mask.describe();
        assert_eq!(
            d[0].to_string(),
            "permit (SALARY:1, SALARY:2) where SALARY:1 > SALARY:2"
        );
    }

    #[test]
    fn subsumption_respects_constraints() {
        // Same cells, but one tuple carries an extra constraint: the
        // unconstrained one subsumes it.
        let s = RelSchema::base("P", &[("BUDGET", Domain::Int)]);
        let free = MetaTuple::new("A", 1, vec![MetaCell::var(1, true)], ConstraintSet::empty());
        let tight = MetaTuple::new(
            "B",
            2,
            vec![MetaCell::var(1, true)],
            ConstraintSet::new(vec![ConstraintAtom::var_const(1, CompOp::Ge, 10)]),
        );
        let mask = Mask::new(s.clone(), vec![tight.clone(), free.clone()]);
        assert_eq!(mask.len(), 1);
        assert!(mask.tuples[0].constraints.is_empty());
        // The reverse does not subsume.
        let mask2 = Mask::new(s, vec![tight.clone(), tight]);
        assert_eq!(mask2.len(), 1, "identical tuples dedupe");
    }

    #[test]
    fn unstarred_condition_column_filters_but_hides() {
        // Mask (⊔*, Acme) — NUMBER revealed only where SPONSOR = Acme,
        // and SPONSOR itself stays masked.
        let s = schema().project(&[0, 1]);
        let ans = Relation::from_rows(
            s.clone(),
            vec![tuple!["bq-45", "Acme"], tuple!["sv-72", "Apex"]],
        )
        .unwrap();
        let mask = Mask::new(
            s,
            vec![mt(
                "V",
                vec![MetaCell::star(), MetaCell::constant("Acme", false)],
            )],
        );
        let out = mask.apply(&ans);
        assert_eq!(out.len(), 1);
        assert_eq!(out.rows[0][0], Some(Value::str("bq-45")));
        assert_eq!(out.rows[0][1], None);
        // The statement exposes the condition but not the column.
        let d = mask.describe();
        assert_eq!(d[0].to_string(), "permit (NUMBER) where SPONSOR = Acme");
    }

    #[test]
    fn canonical_render_is_order_insensitive() {
        let a = mt(
            "A",
            vec![
                MetaCell::star(),
                MetaCell::constant("Acme", true),
                MetaCell::blank(),
            ],
        );
        let b = mt(
            "B",
            vec![MetaCell::blank(), MetaCell::blank(), MetaCell::star()],
        );
        let m1 = Mask::new(schema(), vec![a.clone(), b.clone()]);
        let m2 = Mask::new(schema(), vec![b, a]);
        assert_eq!(m1.canonical_render(), m2.canonical_render());
        assert!(m1
            .canonical_render()
            .starts_with("(NUMBER, SPONSOR, BUDGET)\n"));
    }

    #[test]
    fn masked_duplicate_rows_collapse() {
        // Masking SALARY can make two employees look identical.
        let s = RelSchema::base("E", &[("TITLE", Domain::Str), ("SALARY", Domain::Int)]);
        let ans =
            Relation::from_rows(s.clone(), vec![tuple!["eng", 10], tuple!["eng", 20]]).unwrap();
        let mask = Mask::new(s, vec![mt("V", vec![MetaCell::star(), MetaCell::blank()])]);
        let out = mask.apply(&ans);
        assert_eq!(out.len(), 1);
    }
}
