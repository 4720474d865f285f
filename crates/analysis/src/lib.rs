//! Abstract-interpretation dataflow framework over the QGM.
//!
//! A worklist fixpoint engine ([`fixpoint`]) evaluates pluggable
//! abstract domains ([`domains`]) bottom-up through boxes and
//! quantifiers:
//!
//! * **nullability** — a three-valued lattice per output column
//!   (`NotNull` / `MaybeNull` / `Null`), refined by null-rejecting
//!   predicates;
//! * **multiplicity bounds** — per-box `[lo, hi]` row counts per
//!   evaluation, proving (or refuting) duplicate-freedom more
//!   precisely than `keys::is_dup_free` alone;
//! * **key/functional dependencies** — candidate keys, constant
//!   columns and column-equality classes, read from key inference
//!   (`starmagic_qgm::keys`) rather than derived again, feeding the
//!   multiplicity refinements;
//! * **binding flow** — which output columns are provably restricted
//!   to a magic box's binding set, traced through joins, selects,
//!   group-bys, and set operations.
//!
//! On top of the facts, [`checks`] re-proves rewrite soundness as
//! lint diagnostics (codes L200–L210; see `starmagic-lint`): the EMST
//! null-strictness gate on the *output* graph, duplicate claims
//! against the multiplicity domain, binding-flow enforcement, and a
//! cross-check of the planner's estimates. The rewrite engine appends
//! these checks to its PerFire/PerPass lint runs, so an unsound fire is
//! caught and attributed the moment it happens.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod checks;
pub mod domains;
pub mod fixpoint;
pub mod transfer;

use std::fmt::Write as _;

use starmagic_catalog::Catalog;
use starmagic_lint::LintReport;
use starmagic_qgm::keys::KeyTable;
use starmagic_qgm::{BoxId, Qgm};

pub use domains::{BoxFacts, Card, DupVerdict, FactTable, Nullability};

/// The result of analyzing one graph: the solved facts plus the
/// diagnostics the checks derived from them.
#[derive(Debug, Clone)]
pub struct Analysis {
    /// Facts per reachable box.
    pub facts: FactTable,
    /// L2xx findings.
    pub report: LintReport,
}

/// Solve the dataflow equations and run every analysis-backed check.
pub fn analyze(qgm: &Qgm, catalog: &Catalog) -> Analysis {
    analyze_with(qgm, catalog, &KeyTable::new(qgm, catalog))
}

/// [`analyze`], reading the boxes' keys from `keys`, a table over `qgm`
/// — the one the pipeline's final check shares with the lint.
pub fn analyze_with(qgm: &Qgm, catalog: &Catalog, keys: &KeyTable<'_>) -> Analysis {
    let facts = fixpoint::solve_with(qgm, catalog, keys);
    let report = checks::run(qgm, catalog, &facts, keys.is_acyclic());
    Analysis { facts, report }
}

/// Just the diagnostics — what the rewrite engine appends to its
/// PerFire/PerPass lint reports.
pub fn checks(qgm: &Qgm, catalog: &Catalog) -> LintReport {
    analyze(qgm, catalog).report
}

/// The error-severity diagnostics of [`checks`], in the same order,
/// without computing its warnings — what the pipeline keeps of its
/// scan of the pre-cleanup phase-2 graph.
pub fn error_checks(qgm: &Qgm, catalog: &Catalog) -> LintReport {
    let facts = fixpoint::solve(qgm, catalog);
    checks::scan(qgm, &facts, None)
}

impl Analysis {
    /// Facts of one box, if it was reachable.
    pub fn facts_for(&self, b: BoxId) -> Option<&BoxFacts> {
        self.facts.get(b)
    }

    /// Human-readable fact table plus diagnostics — the body of
    /// EXPLAIN's `== analysis` section.
    pub fn render(&self, qgm: &Qgm) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "  {:<18} {:<15} {:>14} {:>8}  {:<12} restricted",
            "box", "kind", "rows", "dup", "nulls"
        );
        for (b, f) in self.facts.iter() {
            if !qgm.box_exists(b) {
                continue;
            }
            let qb = qgm.boxed(b);
            let restricted = if f.restricted.is_empty() {
                "-".to_string()
            } else {
                f.restricted.to_string()
            };
            let _ = writeln!(
                out,
                "  {:<18} {:<15} {:>14} {:>8}  {:<12} {}",
                qb.display_name(),
                qb.kind.label(),
                f.card.to_string(),
                f.dup_free.label(),
                f.null_mask(),
                restricted
            );
        }
        if self.report.diagnostics.is_empty() {
            let _ = writeln!(out, "  checks: clean");
        } else {
            let errors = self.report.errors().count();
            let warns = self.report.warnings().count();
            let _ = writeln!(out, "  checks: {errors} error(s), {warns} warning(s)");
            for d in &self.report.diagnostics {
                let _ = writeln!(out, "    {d}");
            }
        }
        out
    }
}
