//! The extended algebra on meta-relations (paper, Section 4).
//!
//! * **Product** (Definition 1): meta-tuples concatenate pairwise; with
//!   refinement R1, padded rows `(a₁..aₘ, ⊔..⊔)` and `(⊔..⊔, b₁..bₙ)`
//!   are added so subviews of each factor survive projections that drop
//!   the other factor. For the paper's k-ary canonical plans this
//!   generalizes to every non-empty subset of factors.
//! * **Selection** (Definition 2): the selected attributes must be
//!   starred; the field predicate µ meets the query predicate λ. In
//!   [`SelectMode::Basic`] the conjunction µ∧λ is always represented; in
//!   [`SelectMode::FourCase`] the §4.2 refinement applies (clear /
//!   retain / discard / modify), with undecidable forms falling back to
//!   the sound conjoin-or-retain default.
//! * **Projection** (Definition 3): a removed attribute must be blank
//!   (after simplification — an unconstrained variable occurring once is
//!   an anonymous existential, i.e. blank); otherwise the meta-tuple is
//!   discarded.
//!
//! "Replications are removed" throughout: rows identical in cells and
//! constraints merge, unioning their provenance and covers. The union of
//! covers is sound because identical subview definitions witness each
//! other's variable linkage.

use crate::constraint::{ConstraintAtom, Interval, Rhs, SelectionCase};
use crate::metatuple::{CellContent, MetaCell, MetaTuple, VarId};
use motro_rel::{CompOp, ExecConfig, PredicateAtom, Term, Value};
use std::collections::HashMap;
use std::fmt;

/// Selection behavior: the plain Definition 2, or the §4.2 refinement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SelectMode {
    /// Always represent µ ∧ λ.
    Basic,
    /// Case analysis: clear / retain / discard / modify.
    FourCase,
}

/// The outcome of one R2 (§4.2) selection decision on one meta-tuple,
/// as recorded for the tallies and the EXPLAIN trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum R2Decision {
    /// λ ⊨ µ: the query predicate implies the field condition — the
    /// condition is erased (the cell becomes blank).
    Clear,
    /// µ ⊨ λ: the field condition implies the query predicate — the
    /// meta-tuple survives unchanged.
    Retain,
    /// µ and λ overlap: the conjunction µ ∧ λ is represented (a
    /// constraint is added, a variable bound, or a cell linked).
    Modify,
    /// µ ∧ λ is unsatisfiable (or a selected attribute is not starred):
    /// the meta-tuple is dropped.
    Discard,
    /// λ ⊨ µ held but the variable could not be cleared (it links other
    /// cells or variables), so the sound retain fallback was taken.
    ClearFallback,
}

impl R2Decision {
    /// Stable lower-case label (used in metrics names and JSON).
    pub fn label(self) -> &'static str {
        match self {
            R2Decision::Clear => "clear",
            R2Decision::Retain => "retain",
            R2Decision::Modify => "modify",
            R2Decision::Discard => "discard",
            R2Decision::ClearFallback => "clear-fallback",
        }
    }
}

impl fmt::Display for R2Decision {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One recorded R2 decision: which meta-tuple (by provenance and
/// rendered form), what the case analysis decided, and what survived.
#[derive(Debug, Clone)]
pub struct DecisionRecord {
    /// Views the meta-tuple derives from.
    pub provenance: Vec<String>,
    /// The meta-tuple as it entered the selection.
    pub before: String,
    /// The case taken.
    pub case: R2Decision,
    /// The surviving meta-tuple (None when discarded).
    pub after: Option<String>,
}

/// Merge replications: rows equal in (cells, constraints) are unioned
/// over provenance and covers.
pub fn dedup_merge(rows: Vec<MetaTuple>) -> Vec<MetaTuple> {
    let mut out: Vec<MetaTuple> = Vec::with_capacity(rows.len());
    let mut index: HashMap<(Vec<MetaCell>, Vec<ConstraintAtom>), usize> = HashMap::new();
    for t in rows {
        let key = (t.cells.clone(), t.constraints.atoms().to_vec());
        match index.get(&key) {
            Some(&i) => {
                let existing = &mut out[i];
                existing.provenance.extend(t.provenance.iter().cloned());
                existing.covers.extend(t.covers.iter().copied());
            }
            None => {
                index.insert(key, out.len());
                out.push(t);
            }
        }
    }
    out
}

/// The k-ary meta-product over per-factor candidate lists.
///
/// `arities[i]` is the arity of factor `i` (needed to emit blank padding
/// for factors that contribute no meta-tuple). With `padding` off, only
/// full combinations are produced (Definition 1); with it on, every
/// non-empty subset of factors contributes (refinement R1). Replications
/// are removed.
pub fn meta_product(
    factors: &[Vec<MetaTuple>],
    arities: &[usize],
    padding: bool,
) -> Vec<MetaTuple> {
    meta_product_par(factors, arities, padding, &ExecConfig::sequential())
}

/// [`meta_product`] under an explicit executor configuration: the
/// enumeration partitions over the first factor's options, each worker
/// expanding the remaining factors independently, and per-chunk results
/// tree-merge with [`dedup_merge_chunks`]. Because chunks are
/// contiguous and merged in order, the result — including provenance
/// and covers unions, which are order-insensitive sets — is identical
/// to the sequential product at any worker count.
pub fn meta_product_par(
    factors: &[Vec<MetaTuple>],
    arities: &[usize],
    padding: bool,
    exec: &ExecConfig,
) -> Vec<MetaTuple> {
    assert_eq!(factors.len(), arities.len());
    if factors.is_empty() {
        return Vec::new();
    }
    // Estimated combinations decide whether partitioning pays off.
    let pad = usize::from(padding);
    let estimate = factors
        .iter()
        .fold(1usize, |acc, f| acc.saturating_mul(f.len() + pad));
    let parts = if factors.len() < 2 {
        1
    } else {
        exec.partitions_for(estimate)
    };
    // Expand the first factor sequentially (it is just the option list),
    // then fan the rest of the expansion out over its chunks.
    let seeds = expand_factors(vec![None], &factors[..1], &arities[..1], padding);
    let chunks = exec.map_chunked(seeds, parts, "meta_product", |seed_chunk| {
        let rows = expand_factors(seed_chunk, &factors[1..], &arities[1..], padding);
        let full: Vec<MetaTuple> = rows
            .into_iter()
            .flatten()
            // Drop the all-blank row (it reveals nothing and covers
            // nothing).
            .filter(|t| !t.covers.is_empty())
            .collect();
        dedup_merge(full)
    });
    dedup_merge_chunks(chunks, exec)
}

/// The iterative per-factor expansion at the heart of the meta-product:
/// every row in `rows` is extended with each candidate of each factor
/// in turn (plus, with `padding`, the blank option), preserving the
/// lexicographic enumeration order.
fn expand_factors(
    mut rows: Vec<Option<MetaTuple>>,
    factors: &[Vec<MetaTuple>],
    arities: &[usize],
    padding: bool,
) -> Vec<Option<MetaTuple>> {
    for (fi, cands) in factors.iter().enumerate() {
        let blank = MetaTuple {
            provenance: Default::default(),
            covers: Default::default(),
            cells: vec![MetaCell::blank(); arities[fi]],
            constraints: Default::default(),
        };
        let mut next: Vec<Option<MetaTuple>> = Vec::with_capacity(rows.len() * (cands.len() + 1));
        for row in &rows {
            for cand in cands {
                next.push(Some(match row {
                    None => cand.clone(),
                    Some(r) => r.concat(cand),
                }));
            }
            if padding {
                // The blank option models the q₁/q₂ padding rows. The
                // paper's plain product lets an empty candidate list
                // annihilate everything; padding keeps the other
                // factors' subviews alive.
                next.push(Some(match row {
                    None => blank.clone(),
                    Some(r) => r.concat(&blank),
                }));
            }
        }
        rows = next;
        if rows.is_empty() {
            return rows;
        }
    }
    rows
}

/// Merge per-chunk deduplicated results as a parallel tree-reduce.
///
/// `dedup_merge` keeps the first occurrence of each `(cells,
/// constraints)` key and unions provenance/covers (both `BTreeSet`s,
/// hence order-insensitive) into it, which makes pairwise merging
/// associative; reducing adjacent chunks in order therefore yields
/// exactly `dedup_merge` of the full concatenation.
pub fn dedup_merge_chunks(chunks: Vec<Vec<MetaTuple>>, exec: &ExecConfig) -> Vec<MetaTuple> {
    let t = motro_obs::start();
    let out = merge_tree(chunks, exec.workers.max(1));
    motro_obs::histogram!("exec.steal_or_merge_ns").record_since(t);
    out
}

fn merge_tree(mut chunks: Vec<Vec<MetaTuple>>, workers: usize) -> Vec<MetaTuple> {
    match chunks.len() {
        0 => Vec::new(),
        1 => dedup_merge(chunks.pop().expect("one chunk")),
        _ => {
            let right = chunks.split_off(chunks.len() / 2);
            let left = chunks;
            let lw = workers / 2;
            let rw = workers - lw;
            let (l, r) = if lw >= 1 && rw >= 1 && workers > 1 {
                std::thread::scope(|scope| {
                    let handle = scope.spawn(move || merge_tree(right, rw));
                    let l = merge_tree(left, lw.max(1));
                    (l, handle.join().expect("merge worker completed"))
                })
            } else {
                (merge_tree(left, 1), merge_tree(right, 1))
            };
            let mut all = l;
            all.extend(r);
            dedup_merge(all)
        }
    }
}

/// Can variable `x` be *cleared* from `row`? Clearing drops `x`'s cells
/// and atoms, so it requires `x` to occur in at most `max_cells` cells
/// and to have no var–var atoms (those link other variables).
fn clearable(row: &MetaTuple, x: VarId, max_cells: usize) -> bool {
    if row.var_occurrences(x) > max_cells {
        return false;
    }
    row.constraints
        .atoms()
        .iter()
        .filter(|a| a.mentions(x))
        .all(|a| matches!(a.rhs, Rhs::Const(_)) && a.lhs == x)
}

/// Meta-selection by one primitive predicate atom. Returns the surviving
/// (possibly modified) rows, replications removed.
///
/// `next_var` allocates fresh variables when Basic mode must represent a
/// non-equality predicate on a blank field.
pub fn meta_select(
    rows: Vec<MetaTuple>,
    atom: &PredicateAtom,
    mode: SelectMode,
    next_var: &mut VarId,
) -> Vec<MetaTuple> {
    meta_select_logged(rows, atom, mode, next_var, None)
}

/// [`meta_select`] with per-meta-tuple decision logging: when `log` is
/// given, one [`DecisionRecord`] is appended per input row. Decision
/// tallies always go to the `meta.r2.*` metrics counters.
pub fn meta_select_logged(
    rows: Vec<MetaTuple>,
    atom: &PredicateAtom,
    mode: SelectMode,
    next_var: &mut VarId,
    mut log: Option<&mut Vec<DecisionRecord>>,
) -> Vec<MetaTuple> {
    let mut out = Vec::with_capacity(rows.len());
    for row in rows {
        let before = log
            .as_ref()
            .map(|_| (row.provenance.iter().cloned().collect(), row.to_string()));
        let (survivor, case) = select_one(row, atom, mode, next_var);
        tally(case);
        if let Some(log) = log.as_deref_mut() {
            match before {
                Some((provenance, before)) => log.push(DecisionRecord {
                    provenance,
                    before,
                    case,
                    after: survivor.as_ref().map(MetaTuple::to_string),
                }),
                // The pre-image was not rendered (invariant slip between
                // the two `log` probes). Drop this record and count it
                // rather than panicking a server worker mid-request.
                None => motro_obs::counter!("meta.r2.log_dropped").inc(),
            }
        }
        if let Some(t) = survivor {
            out.push(t);
        }
    }
    dedup_merge(out)
}

/// [`meta_select_logged`] under an explicit executor configuration:
/// rows partition into contiguous chunks decided independently by
/// scoped workers, per-chunk decision logs concatenate in chunk order
/// (reproducing the sequential log exactly), and survivors tree-merge
/// with [`dedup_merge_chunks`].
///
/// Only [`SelectMode::FourCase`] — the default — parallelizes:
/// Basic-mode selection allocates fresh variables row by row from
/// `next_var`, and renumbering under partitioning would diverge from
/// the sequential oracle. Four-case decisions never allocate, so the
/// counter is untouched either way.
pub fn meta_select_logged_par(
    rows: Vec<MetaTuple>,
    atom: &PredicateAtom,
    mode: SelectMode,
    next_var: &mut VarId,
    log: Option<&mut Vec<DecisionRecord>>,
    exec: &ExecConfig,
) -> Vec<MetaTuple> {
    let parts = exec.partitions_for(rows.len());
    if parts <= 1 || !matches!(mode, SelectMode::FourCase) {
        return meta_select_logged(rows, atom, mode, next_var, log);
    }
    let logging = log.is_some();
    let start_var = *next_var;
    let mut results: Vec<(Vec<MetaTuple>, Vec<DecisionRecord>, [u64; 5])> =
        exec.map_chunked(rows, parts, "meta_select", |chunk| {
            // Isolate this chunk's R2 tally so it can be handed back to
            // the calling thread: save whatever the executing thread had
            // accumulated, measure the chunk's delta, then restore the
            // prior counts (a chunk may run inline on the caller).
            let prior = take_r2_tally();
            let mut local_log: Vec<DecisionRecord> = Vec::new();
            let log_opt = if logging { Some(&mut local_log) } else { None };
            let mut nv = start_var;
            let survivors = meta_select_logged(chunk, atom, mode, &mut nv, log_opt);
            debug_assert_eq!(nv, start_var, "four-case selection allocates no variables");
            let delta = take_r2_tally();
            add_r2_tally(&prior);
            (survivors, local_log, delta)
        });
    if let Some(log) = log {
        for (_, chunk_log, _) in &mut results {
            log.append(chunk_log);
        }
    }
    for (_, _, delta) in &results {
        add_r2_tally(delta);
    }
    let survivors: Vec<Vec<MetaTuple>> = results.into_iter().map(|(s, _, _)| s).collect();
    dedup_merge_chunks(survivors, exec)
}

thread_local! {
    /// Per-thread R2 decision tally, indexed
    /// `[clear, retain, modify, discard, clear_fallback]`. The global
    /// `meta.r2.*` counters aggregate across requests; this cell lets a
    /// single authorization attribute its own decisions (the insight
    /// rollups) without a lock on the hot selection path.
    static R2_TALLY: std::cell::Cell<[u64; 5]> = const { std::cell::Cell::new([0; 5]) };
}

/// Read **and reset** the calling thread's R2 decision tally:
/// `[clear, retain, modify, discard, clear_fallback]` counts
/// accumulated by every meta-selection on this thread since the last
/// take. [`meta_select_logged_par`] merges its workers' tallies back
/// into the caller, so taking around a full mask evaluation yields the
/// request's complete split at any worker count.
pub fn take_r2_tally() -> [u64; 5] {
    R2_TALLY.with(|t| t.replace([0; 5]))
}

/// Fold a tally delta into the calling thread's cell.
fn add_r2_tally(delta: &[u64; 5]) {
    R2_TALLY.with(|t| {
        let mut cur = t.get();
        for (c, d) in cur.iter_mut().zip(delta) {
            *c += d;
        }
        t.set(cur);
    });
}

fn tally(case: R2Decision) {
    let idx = match case {
        R2Decision::Clear => {
            motro_obs::counter!("meta.r2.clear").inc();
            0
        }
        R2Decision::Retain => {
            motro_obs::counter!("meta.r2.retain").inc();
            1
        }
        R2Decision::Modify => {
            motro_obs::counter!("meta.r2.modify").inc();
            2
        }
        R2Decision::Discard => {
            motro_obs::counter!("meta.r2.discard").inc();
            3
        }
        R2Decision::ClearFallback => {
            motro_obs::counter!("meta.r2.clear_fallback").inc();
            4
        }
    };
    R2_TALLY.with(|t| {
        let mut cur = t.get();
        cur[idx] += 1;
        t.set(cur);
    });
}

fn fresh(next_var: &mut VarId) -> VarId {
    let x = *next_var;
    *next_var += 1;
    x
}

fn select_one(
    mut row: MetaTuple,
    atom: &PredicateAtom,
    mode: SelectMode,
    next_var: &mut VarId,
) -> (Option<MetaTuple>, R2Decision) {
    match &atom.rhs {
        Term::Const(c) => {
            // λ = Aᵢ θ c. The selected attribute must be starred.
            if !row.cells[atom.lhs].starred {
                return (None, R2Decision::Discard);
            }
            match row.cells[atom.lhs].content.clone() {
                CellContent::Blank => {
                    match mode {
                        SelectMode::FourCase => (Some(row), R2Decision::Clear), // λ ⊨ true
                        SelectMode::Basic => {
                            // Represent λ ∧ true = λ.
                            match atom.op {
                                CompOp::Eq => {
                                    row.cells[atom.lhs].content = CellContent::Const(c.clone());
                                }
                                op => {
                                    let x = fresh(next_var);
                                    row.cells[atom.lhs].content = CellContent::Var(x);
                                    row.constraints.push(ConstraintAtom {
                                        lhs: x,
                                        op,
                                        rhs: Rhs::Const(c.clone()),
                                    });
                                }
                            }
                            (Some(row), R2Decision::Modify)
                        }
                    }
                }
                CellContent::Const(k) => {
                    // µ = (Aᵢ = k).
                    if !atom.op.eval(&k, c).unwrap_or(false) {
                        return (None, R2Decision::Discard); // contradiction
                    }
                    // In FourCase mode, λ ⊨ µ clears the constant ("the
                    // variable or the constant is replaced by ⊔"),
                    // letting the tuple survive later projections. That
                    // happens exactly when λ pins the same point.
                    if mode == SelectMode::FourCase {
                        let lambda = Interval::from_op(atom.op, c.clone());
                        if lambda.implies(&Interval::point(k)) == Some(true) {
                            row.cells[atom.lhs].content = CellContent::Blank;
                            return (Some(row), R2Decision::Clear);
                        }
                    }
                    (Some(row), R2Decision::Retain)
                }
                CellContent::Var(x) => {
                    let lambda = Interval::from_op(atom.op, c.clone());
                    let mu = row.constraints.interval_of(x);
                    let case = match (mode, mu) {
                        (SelectMode::Basic, _) | (_, None) => SelectionCase::Modify,
                        (SelectMode::FourCase, Some(mu)) => Interval::four_case(&lambda, &mu),
                    };
                    match case {
                        SelectionCase::Clear => {
                            if clearable(&row, x, 1) {
                                row.clear_var(x);
                                (Some(row), R2Decision::Clear)
                            } else {
                                // retain: sound fallback
                                (Some(row), R2Decision::ClearFallback)
                            }
                        }
                        SelectionCase::Retain => (Some(row), R2Decision::Retain),
                        SelectionCase::Discard => (None, R2Decision::Discard),
                        SelectionCase::Modify => {
                            // Represent µ ∧ λ; bind when it pins a point.
                            let point = row
                                .constraints
                                .interval_of(x)
                                .and_then(|mu| mu.intersect(&lambda))
                                .and_then(|iv| iv.as_point().cloned());
                            match point {
                                Some(p) => {
                                    if row.bind_var(x, &p) {
                                        (Some(row), R2Decision::Modify)
                                    } else {
                                        (None, R2Decision::Discard)
                                    }
                                }
                                None => {
                                    row.constraints.push(ConstraintAtom {
                                        lhs: x,
                                        op: atom.op,
                                        rhs: Rhs::Const(c.clone()),
                                    });
                                    if row.constraints.obviously_unsat(x) {
                                        (None, R2Decision::Discard)
                                    } else {
                                        (Some(row), R2Decision::Modify)
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        Term::Col(j) => {
            // λ = Aᵢ θ Aⱼ. Both attributes must be starred.
            let (i, j) = (atom.lhs, *j);
            if !row.cells[i].starred || !row.cells[j].starred {
                return (None, R2Decision::Discard);
            }
            let (ci, cj) = (row.cells[i].content.clone(), row.cells[j].content.clone());
            match (ci, cj) {
                (CellContent::Blank, CellContent::Blank) => {
                    // µ = true: the answer already satisfies λ — retain
                    // (the §4.2 "clear" case; Basic mode would have to
                    // introduce a fresh shared variable for Eq).
                    if mode == SelectMode::Basic && atom.op == CompOp::Eq {
                        let x = fresh(next_var);
                        row.cells[i].content = CellContent::Var(x);
                        row.cells[j].content = CellContent::Var(x);
                        (Some(row), R2Decision::Modify)
                    } else {
                        (Some(row), R2Decision::Clear)
                    }
                }
                (CellContent::Const(a), CellContent::Const(b)) => {
                    if atom.op.eval(&a, &b).unwrap_or(false) {
                        (Some(row), R2Decision::Retain)
                    } else {
                        (None, R2Decision::Discard)
                    }
                }
                (CellContent::Var(x), CellContent::Var(y)) if x == y => {
                    match atom.op {
                        // µ forces Aᵢ = Aⱼ.
                        CompOp::Eq | CompOp::Le | CompOp::Ge => {
                            // µ ⊨ λ; for Eq, if the variable is purely a
                            // pairwise link (these two cells, no atoms),
                            // µ ≡ λ → clear (FourCase only).
                            if mode == SelectMode::FourCase
                                && atom.op == CompOp::Eq
                                && clearable(&row, x, 2)
                                && row.var_occurrences(x) == 2
                                && !row.constraints.mentions(x)
                            {
                                row.clear_var(x);
                                (Some(row), R2Decision::Clear)
                            } else {
                                (Some(row), R2Decision::Retain)
                            }
                        }
                        // x θ x is unsatisfiable for <, >, ≠.
                        CompOp::Lt | CompOp::Gt | CompOp::Ne => (None, R2Decision::Discard),
                    }
                }
                (CellContent::Var(x), CellContent::Var(y)) => {
                    if atom.op == CompOp::Eq {
                        if row.unify_vars(x, y) {
                            (Some(row), R2Decision::Modify)
                        } else {
                            (None, R2Decision::Discard)
                        }
                    } else {
                        row.constraints.push(ConstraintAtom {
                            lhs: x,
                            op: atom.op,
                            rhs: Rhs::Var(y),
                        });
                        (Some(row), R2Decision::Modify)
                    }
                }
                (CellContent::Var(x), CellContent::Const(a))
                | (CellContent::Const(a), CellContent::Var(x)) => {
                    // Orient as x θ' a.
                    let op = if matches!(row.cells[i].content, CellContent::Var(_)) {
                        atom.op
                    } else {
                        atom.op.flip()
                    };
                    if op == CompOp::Eq {
                        if row.bind_var(x, &a) {
                            (Some(row), R2Decision::Modify)
                        } else {
                            (None, R2Decision::Discard)
                        }
                    } else {
                        row.constraints.push(ConstraintAtom {
                            lhs: x,
                            op,
                            rhs: Rhs::Const(a.clone()),
                        });
                        if row.constraints.obviously_unsat(x) {
                            (None, R2Decision::Discard)
                        } else {
                            (Some(row), R2Decision::Modify)
                        }
                    }
                }
                (CellContent::Var(x), CellContent::Blank)
                | (CellContent::Blank, CellContent::Var(x)) => {
                    if atom.op == CompOp::Eq {
                        // Link the blank field to the variable: µ ∧ λ.
                        let blank_idx = if matches!(row.cells[i].content, CellContent::Blank) {
                            i
                        } else {
                            j
                        };
                        row.cells[blank_idx].content = CellContent::Var(x);
                        (Some(row), R2Decision::Modify)
                    } else {
                        // Retain: sound (the answer satisfies λ).
                        (Some(row), R2Decision::Retain)
                    }
                }
                (CellContent::Const(a), CellContent::Blank)
                | (CellContent::Blank, CellContent::Const(a)) => {
                    if atom.op == CompOp::Eq {
                        let blank_idx = if matches!(row.cells[i].content, CellContent::Blank) {
                            i
                        } else {
                            j
                        };
                        row.cells[blank_idx].content = CellContent::Const(a.clone());
                        (Some(row), R2Decision::Modify)
                    } else {
                        (Some(row), R2Decision::Retain)
                    }
                }
            }
        }
    }
}

/// Meta-projection onto `keep` (in order). A removed attribute whose
/// field is non-blank (after simplification) discards the meta-tuple;
/// variables whose remaining occurrences drop to zero take their atoms
/// with them only via simplification, so constrained variables removed
/// by projection correctly kill the row.
pub fn meta_project(rows: Vec<MetaTuple>, keep: &[usize]) -> Vec<MetaTuple> {
    let mut out = Vec::with_capacity(rows.len());
    'rows: for mut row in rows {
        row.simplify();
        let kept: std::collections::BTreeSet<usize> = keep.iter().copied().collect();
        for (i, c) in row.cells.iter().enumerate() {
            if !kept.contains(&i) && !c.is_blank() {
                continue 'rows;
            }
        }
        let cells = keep.iter().map(|&i| row.cells[i].clone()).collect();
        out.push(MetaTuple {
            provenance: row.provenance,
            covers: row.covers,
            cells,
            constraints: row.constraints,
        });
    }
    let mut merged = dedup_merge(out);
    for t in &mut merged {
        t.simplify();
    }
    dedup_merge(merged)
}

/// Evaluate how a value `v` relates to a meta-cell's condition under a
/// variable binding being built up; helper shared with mask application.
pub(crate) fn cell_admits(cell: &MetaCell, v: &Value, binding: &mut HashMap<VarId, Value>) -> bool {
    match &cell.content {
        CellContent::Blank => true,
        CellContent::Const(c) => c == v,
        CellContent::Var(x) => match binding.get(x) {
            Some(b) => b == v,
            None => {
                binding.insert(*x, v.clone());
                true
            }
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraint::ConstraintSet;

    fn t(view: &str, id: u32, cells: Vec<MetaCell>) -> MetaTuple {
        MetaTuple::new(view, id, cells, ConstraintSet::empty())
    }

    fn t_with(view: &str, id: u32, cells: Vec<MetaCell>, atoms: Vec<ConstraintAtom>) -> MetaTuple {
        MetaTuple::new(view, id, cells, ConstraintSet::new(atoms))
    }

    #[test]
    fn product_cardinalities() {
        let a = vec![t("A", 1, vec![MetaCell::star()])];
        let b = vec![
            t("B", 2, vec![MetaCell::star(), MetaCell::blank()]),
            t("C", 3, vec![MetaCell::blank(), MetaCell::star()]),
        ];
        let plain = meta_product(&[a.clone(), b.clone()], &[1, 2], false);
        assert_eq!(plain.len(), 2);
        assert!(plain.iter().all(|r| r.arity() == 3));
        // Padding adds {a,_}, {_,b1}, {_,b2} (all-blank dropped).
        let padded = meta_product(&[a, b], &[1, 2], true);
        assert_eq!(padded.len(), 5);
    }

    #[test]
    fn product_with_empty_factor() {
        let a = vec![t("A", 1, vec![MetaCell::star()])];
        let empty: Vec<MetaTuple> = vec![];
        assert!(meta_product(&[a.clone(), empty.clone()], &[1, 2], false).is_empty());
        // With padding, A's subviews survive via the blank side.
        let padded = meta_product(&[a, empty], &[1, 2], true);
        assert_eq!(padded.len(), 1);
        assert_eq!(padded[0].cells.len(), 3);
    }

    #[test]
    fn product_removes_replications() {
        let est = |id| t("EST", id, vec![MetaCell::star(), MetaCell::var(4, true)]);
        let rows = meta_product(&[vec![est(1), est(2)]], &[2], false);
        // est1 and est2 are identical → merged, covers unioned.
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].covers.len(), 2);
    }

    #[test]
    fn select_requires_star() {
        let rows = vec![t("V", 1, vec![MetaCell::blank()])];
        let atom = PredicateAtom::col_const(0, CompOp::Eq, "x");
        let mut nv = 100;
        assert!(meta_select(rows, &atom, SelectMode::FourCase, &mut nv).is_empty());
    }

    #[test]
    fn select_blank_fourcase_clears_basic_represents() {
        let rows = vec![t("V", 1, vec![MetaCell::star()])];
        let atom = PredicateAtom::col_const(0, CompOp::Eq, "x");
        let mut nv = 100;
        let fc = meta_select(rows.clone(), &atom, SelectMode::FourCase, &mut nv);
        assert!(fc[0].cells[0].is_blank());
        let basic = meta_select(rows, &atom, SelectMode::Basic, &mut nv);
        assert_eq!(
            basic[0].cells[0].content,
            CellContent::Const(Value::str("x"))
        );
    }

    #[test]
    fn select_blank_basic_nonequality_introduces_var() {
        let rows = vec![t("V", 1, vec![MetaCell::star()])];
        let atom = PredicateAtom::col_const(0, CompOp::Ge, 10);
        let mut nv = 100;
        let basic = meta_select(rows, &atom, SelectMode::Basic, &mut nv);
        let x = basic[0].cells[0].as_var().unwrap();
        assert!(x >= 100);
        assert!(basic[0].constraints.mentions(x));
    }

    #[test]
    fn select_const_cell_evaluates() {
        let rows = vec![t("V", 1, vec![MetaCell::constant("Acme", true)])];
        let keep = PredicateAtom::col_const(0, CompOp::Eq, "Acme");
        let drop = PredicateAtom::col_const(0, CompOp::Ne, "Acme");
        let mut nv = 0;
        assert_eq!(
            meta_select(rows.clone(), &keep, SelectMode::FourCase, &mut nv).len(),
            1
        );
        assert!(meta_select(rows, &drop, SelectMode::FourCase, &mut nv).is_empty());
    }

    /// The paper's Example 2 BUDGET step: x₃ ≥ 250k meets λ ≥ 300k →
    /// λ ⊨ µ → clear.
    #[test]
    fn select_var_clear_case() {
        let rows = vec![t_with(
            "ELP",
            1,
            vec![MetaCell::var(3, true)],
            vec![ConstraintAtom::var_const(3, CompOp::Ge, 250_000)],
        )];
        let atom = PredicateAtom::col_const(0, CompOp::Ge, 300_000);
        let mut nv = 100;
        let out = meta_select(rows, &atom, SelectMode::FourCase, &mut nv);
        assert_eq!(out.len(), 1);
        assert!(out[0].cells[0].is_blank());
        assert!(out[0].constraints.is_empty());
    }

    #[test]
    fn select_var_retain_discard_modify() {
        let mk = || {
            vec![t_with(
                "V",
                1,
                vec![MetaCell::var(1, true)],
                vec![
                    ConstraintAtom::var_const(1, CompOp::Ge, 300),
                    ConstraintAtom::var_const(1, CompOp::Le, 600),
                ],
            )]
        };
        let mut nv = 100;
        // µ ⊨ λ → retain unchanged.
        let out = meta_select(
            mk(),
            &PredicateAtom::col_const(0, CompOp::Ge, 200),
            SelectMode::FourCase,
            &mut nv,
        );
        assert_eq!(out[0].constraints.atoms().len(), 2);
        // Contradiction → discard.
        assert!(meta_select(
            mk(),
            &PredicateAtom::col_const(0, CompOp::Lt, 300),
            SelectMode::FourCase,
            &mut nv,
        )
        .is_empty());
        // Overlap → modify (µ ∧ λ).
        let out = meta_select(
            mk(),
            &PredicateAtom::col_const(0, CompOp::Le, 400),
            SelectMode::FourCase,
            &mut nv,
        );
        let x = out[0].cells[0].as_var().unwrap();
        let iv = out[0].constraints.interval_of(x).unwrap();
        assert!(iv.contains(&Value::int(350)));
        assert!(!iv.contains(&Value::int(450)));
    }

    #[test]
    fn select_modify_to_point_binds() {
        let rows = vec![t_with(
            "V",
            1,
            vec![MetaCell::var(1, true), MetaCell::var(1, false)],
            vec![ConstraintAtom::var_const(1, CompOp::Ge, 300)],
        )];
        // λ: A₀ ≤ 300 → µ∧λ pins x₁ = 300 → both cells become the
        // constant.
        let mut nv = 100;
        let out = meta_select(
            rows,
            &PredicateAtom::col_const(0, CompOp::Le, 300),
            SelectMode::FourCase,
            &mut nv,
        );
        assert_eq!(out[0].cells[0].content, CellContent::Const(Value::int(300)));
        assert_eq!(out[0].cells[1].content, CellContent::Const(Value::int(300)));
    }

    /// Equality on a shared link variable clears it (Example 2's
    /// NAME = E_NAME on x₁).
    #[test]
    fn select_equality_shared_var_clears() {
        let rows = vec![t(
            "ELP",
            1,
            vec![MetaCell::var(1, true), MetaCell::var(1, true)],
        )];
        let atom = PredicateAtom::col_col(0, CompOp::Eq, 1);
        let mut nv = 100;
        let out = meta_select(rows, &atom, SelectMode::FourCase, &mut nv);
        assert!(out[0].cells[0].is_blank());
        assert!(out[0].cells[1].is_blank());
        assert!(out[0].cells[0].starred);
    }

    #[test]
    fn select_equality_shared_var_with_constraint_retains() {
        let rows = vec![t_with(
            "V",
            1,
            vec![MetaCell::var(1, true), MetaCell::var(1, true)],
            vec![ConstraintAtom::var_const(1, CompOp::Ge, 0)],
        )];
        let atom = PredicateAtom::col_col(0, CompOp::Eq, 1);
        let mut nv = 100;
        let out = meta_select(rows, &atom, SelectMode::FourCase, &mut nv);
        assert_eq!(out[0].cells[0].as_var(), Some(1));
    }

    #[test]
    fn select_colcol_const_cases() {
        let mut nv = 100;
        // Equal constants pass.
        let rows = vec![t(
            "V",
            1,
            vec![MetaCell::constant("a", true), MetaCell::constant("a", true)],
        )];
        let eq = PredicateAtom::col_col(0, CompOp::Eq, 1);
        assert_eq!(
            meta_select(rows, &eq, SelectMode::FourCase, &mut nv).len(),
            1
        );
        // Unequal constants under Eq drop.
        let rows = vec![t(
            "V",
            1,
            vec![MetaCell::constant("a", true), MetaCell::constant("b", true)],
        )];
        assert!(meta_select(rows, &eq, SelectMode::FourCase, &mut nv).is_empty());
        // Const vs blank under Eq propagates the constant.
        let rows = vec![t(
            "V",
            1,
            vec![MetaCell::constant("a", true), MetaCell::star()],
        )];
        let out = meta_select(rows, &eq, SelectMode::FourCase, &mut nv);
        assert_eq!(out[0].cells[1].content, CellContent::Const(Value::str("a")));
    }

    #[test]
    fn select_colcol_var_cases() {
        let mut nv = 100;
        let eq = PredicateAtom::col_col(0, CompOp::Eq, 1);
        // Distinct vars unify.
        let rows = vec![t(
            "V",
            1,
            vec![MetaCell::var(1, true), MetaCell::var(2, true)],
        )];
        let out = meta_select(rows, &eq, SelectMode::FourCase, &mut nv);
        assert_eq!(out[0].cells[0].content, out[0].cells[1].content);
        // Var vs const binds.
        let rows = vec![t(
            "V",
            1,
            vec![MetaCell::var(1, true), MetaCell::constant(5, true)],
        )];
        let out = meta_select(rows, &eq, SelectMode::FourCase, &mut nv);
        assert_eq!(out[0].cells[0].content, CellContent::Const(Value::int(5)));
        // Var vs blank links.
        let rows = vec![t("V", 1, vec![MetaCell::var(1, true), MetaCell::star()])];
        let out = meta_select(rows, &eq, SelectMode::FourCase, &mut nv);
        assert_eq!(out[0].cells[1].as_var(), Some(1));
        // Same var under < is unsatisfiable.
        let rows = vec![t(
            "V",
            1,
            vec![MetaCell::var(1, true), MetaCell::var(1, true)],
        )];
        let lt = PredicateAtom::col_col(0, CompOp::Lt, 1);
        assert!(meta_select(rows, &lt, SelectMode::FourCase, &mut nv).is_empty());
        // Same var under ≤ retains.
        let rows = vec![t(
            "V",
            1,
            vec![MetaCell::var(1, true), MetaCell::var(1, true)],
        )];
        let le = PredicateAtom::col_col(0, CompOp::Le, 1);
        assert_eq!(
            meta_select(rows, &le, SelectMode::FourCase, &mut nv).len(),
            1
        );
    }

    #[test]
    fn project_requires_blank_removed_fields() {
        // (x₁*, *, ⊔) projected onto {1}: x₁ is constrainted to nothing
        // but occurs once → simplification blanks it → survives.
        let rows = vec![t(
            "V",
            1,
            vec![MetaCell::var(1, true), MetaCell::star(), MetaCell::blank()],
        )];
        let out = meta_project(rows, &[1]);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].cells.len(), 1);
        // A constant field blocks removal.
        let rows = vec![t(
            "V",
            1,
            vec![MetaCell::constant("Acme", true), MetaCell::star()],
        )];
        assert!(meta_project(rows, &[1]).is_empty());
        // A shared variable blocks removal.
        let rows = vec![t(
            "V",
            1,
            vec![
                MetaCell::var(1, true),
                MetaCell::var(1, true),
                MetaCell::star(),
            ],
        )];
        assert!(meta_project(rows, &[0, 2]).is_empty());
        // ... unless both its fields are kept.
        let rows = vec![t(
            "V",
            1,
            vec![
                MetaCell::var(1, true),
                MetaCell::var(1, true),
                MetaCell::blank(),
            ],
        )];
        assert_eq!(meta_project(rows, &[0, 1]).len(), 1);
    }

    #[test]
    fn project_reorders_and_merges() {
        let rows = vec![
            t(
                "A",
                1,
                vec![MetaCell::star(), MetaCell::blank(), MetaCell::star()],
            ),
            t(
                "B",
                2,
                vec![MetaCell::star(), MetaCell::blank(), MetaCell::star()],
            ),
        ];
        let out = meta_project(rows, &[2, 0]);
        assert_eq!(out.len(), 1, "identical projections merge");
        assert_eq!(out[0].provenance.len(), 2);
    }

    #[test]
    fn project_constrained_singleton_var_blocks() {
        // A variable with an interval constraint is a real selection —
        // removing its field must drop the tuple.
        let rows = vec![t_with(
            "V",
            1,
            vec![MetaCell::var(1, true), MetaCell::star()],
            vec![ConstraintAtom::var_const(1, CompOp::Ge, 10)],
        )];
        assert!(meta_project(rows, &[1]).is_empty());
    }
}
