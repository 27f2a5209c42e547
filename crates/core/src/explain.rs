//! The authorization audit/EXPLAIN layer.
//!
//! [`AuthExplain`] answers *why*: for each row and cell of a query's
//! answer, which mask meta-tuples granted it (and through which stored
//! views), and — for masked regions — why every mask tuple declined.
//! It also carries the R2 decision log ([`SelectionStep`]) so a masked
//! region can be traced all the way back to the §4.2 case analysis that
//! shaped the mask.
//!
//! Everything here is derived from one traced authorization run
//! ([`crate::AuthorizedEngine::explain_plan`]); no value that the mask
//! withholds is ever included in the explanation (masked cells report
//! reasons, not contents).

use crate::authorize::{AuthTrace, SelectionStep};
use crate::mask::Mask;
use motro_rel::Relation;

/// One mask meta-tuple, as the EXPLAIN output references it.
#[derive(Debug, Clone)]
pub struct MaskTupleExplain {
    /// Paper-style rendering, e.g. `[PSA] (*, Acme*)`.
    pub rendered: String,
    /// The stored views this tuple derives from.
    pub provenance: Vec<String>,
    /// The inferred permit statement this tuple contributes (None when
    /// the mask grants full access — the paper emits no statements).
    pub permit: Option<String>,
}

/// Why one mask tuple did not grant one cell.
#[derive(Debug, Clone)]
pub struct CellDenial {
    /// Index into [`AuthExplain::mask_tuples`].
    pub mask_tuple: usize,
    /// Human-readable reason.
    pub reason: String,
}

/// One cell of one answer row, explained.
#[derive(Debug, Clone)]
pub struct CellExplain {
    /// Column display name.
    pub column: String,
    /// Is the cell delivered?
    pub visible: bool,
    /// The value — present only when visible.
    pub value: Option<String>,
    /// Mask tuples (indices) that admit the row and star this column.
    pub granted_by: Vec<usize>,
    /// For masked cells: why each mask tuple declined.
    pub denials: Vec<CellDenial>,
}

/// One answer row, explained cell by cell.
#[derive(Debug, Clone)]
pub struct RowExplain {
    /// Does the user see any part of this row?
    pub delivered: bool,
    /// Per-cell explanations.
    pub cells: Vec<CellExplain>,
}

/// The full audit of one authorized retrieval.
#[derive(Debug, Clone)]
pub struct AuthExplain {
    /// The user the query was authorized for.
    pub user: String,
    /// Display names of the explained columns (the mask's schema — under
    /// extended masks this includes the auxiliary condition columns).
    pub columns: Vec<String>,
    /// Candidate meta-tuples per plan factor, rendered.
    pub candidates: Vec<(String, Vec<String>)>,
    /// The R2 decision log, one step per selection atom.
    pub steps: Vec<SelectionStep>,
    /// The surviving mask tuples the row/cell records reference.
    pub mask_tuples: Vec<MaskTupleExplain>,
    /// Per-answer-row explanations (raw answer order, before the
    /// delivered rows' set-semantics dedup).
    pub rows: Vec<RowExplain>,
    /// Rows withheld entirely.
    pub withheld: usize,
    /// Does the mask grant the entire answer?
    pub full_access: bool,
}

/// Assemble the audit from a traced mask computation and the answer it
/// governs. `answer` must be evaluated over the trace's
/// `mask_projection` (the mask's own schema).
pub fn build(user: &str, mask: &Mask, trace: &AuthTrace, answer: &Relation) -> AuthExplain {
    let columns = mask.schema.display_headers();
    let full_access = mask.is_full();
    let permits = mask.describe();
    let mask_tuples: Vec<MaskTupleExplain> = mask
        .tuples
        .iter()
        .enumerate()
        .map(|(k, t)| MaskTupleExplain {
            rendered: t.to_string(),
            provenance: t.provenance.iter().cloned().collect(),
            permit: permits.get(k).map(|p| p.to_string()),
        })
        .collect();
    let candidates = trace
        .candidates
        .iter()
        .map(|(rel, cands)| {
            (
                rel.clone(),
                cands.iter().map(|t| t.to_string()).collect::<Vec<_>>(),
            )
        })
        .collect();

    let mut rows = Vec::with_capacity(answer.len());
    let mut withheld = 0usize;
    for t in answer.rows() {
        let vis = mask.coverage(t);
        let reasons = mask.admit_reasons(t);
        let delivered = vis.iter().any(|&v| v);
        if !delivered {
            withheld += 1;
        }
        let cells = columns
            .iter()
            .enumerate()
            .map(|(i, col)| {
                let visible = vis[i];
                let mut granted_by = Vec::new();
                let mut denials = Vec::new();
                for (k, (mt, r)) in mask.tuples.iter().zip(&reasons).enumerate() {
                    match r {
                        Ok(()) if mt.cells[i].starred => granted_by.push(k),
                        Ok(()) => denials.push(CellDenial {
                            mask_tuple: k,
                            reason: format!("admits the row but does not star {col}"),
                        }),
                        Err(why) => denials.push(CellDenial {
                            mask_tuple: k,
                            reason: why.clone(),
                        }),
                    }
                }
                CellExplain {
                    column: col.clone(),
                    visible,
                    value: visible.then(|| t.values()[i].to_string()),
                    granted_by,
                    denials: if visible { Vec::new() } else { denials },
                }
            })
            .collect();
        rows.push(RowExplain { delivered, cells });
    }

    AuthExplain {
        user: user.to_string(),
        columns,
        candidates,
        steps: trace.steps.clone(),
        mask_tuples,
        rows,
        withheld,
        full_access,
    }
}

impl AuthExplain {
    /// Human-readable rendering for the repl's `explain` command.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("explain for {}\n", self.user));
        out.push_str("candidates:\n");
        for (rel, cands) in &self.candidates {
            if cands.is_empty() {
                out.push_str(&format!("  {rel}: (none)\n"));
            }
            for c in cands {
                out.push_str(&format!("  {rel}: {c}\n"));
            }
        }
        if !self.steps.is_empty() {
            out.push_str("selection decisions (R2):\n");
            for s in &self.steps {
                out.push_str(&format!("  where {}:\n", s.atom));
                for d in &s.decisions {
                    match &d.after {
                        Some(after) if after != &d.before => {
                            out.push_str(&format!("    {} -> {} -> {}\n", d.before, d.case, after))
                        }
                        Some(_) => out.push_str(&format!("    {} -> {}\n", d.before, d.case)),
                        None => out.push_str(&format!("    {} -> {}\n", d.before, d.case)),
                    }
                }
            }
        }
        if self.mask_tuples.is_empty() {
            out.push_str("mask: empty (nothing may be delivered)\n");
        } else {
            out.push_str("mask:\n");
            for (k, mt) in self.mask_tuples.iter().enumerate() {
                out.push_str(&format!("  #{k} {}", mt.rendered));
                if let Some(p) = &mt.permit {
                    out.push_str(&format!("  — {p}"));
                }
                out.push('\n');
            }
        }
        if self.full_access {
            out.push_str("full access: every cell delivered\n");
            return out;
        }
        out.push_str(&format!(
            "rows: {} explained, {} withheld entirely\n",
            self.rows.len(),
            self.withheld
        ));
        for (ri, row) in self.rows.iter().enumerate() {
            let status = if row.delivered {
                "delivered"
            } else {
                "withheld"
            };
            out.push_str(&format!("row {ri} ({status}):\n"));
            for cell in &row.cells {
                if cell.visible {
                    let by: Vec<String> = cell
                        .granted_by
                        .iter()
                        .map(|k| {
                            let prov = self.mask_tuples[*k].provenance.join(", ");
                            format!("#{k} [{prov}]")
                        })
                        .collect();
                    out.push_str(&format!(
                        "  {} = {}: granted by {}\n",
                        cell.column,
                        cell.value.as_deref().unwrap_or("?"),
                        by.join(", ")
                    ));
                } else if cell.denials.is_empty() {
                    out.push_str(&format!("  {} masked: no mask tuple\n", cell.column));
                } else {
                    out.push_str(&format!("  {} masked:\n", cell.column));
                    for d in &cell.denials {
                        out.push_str(&format!("    #{}: {}\n", d.mask_tuple, d.reason));
                    }
                }
            }
        }
        out
    }
}
