//! Semantic invariant checker for the QGM.
//!
//! [`Qgm::validate`] stops at the first structural breakage; this crate
//! is the full diagnosis. Seven passes sweep the graph and report every
//! violation as a [`Diagnostic`] with a stable code (L0xx = error,
//! L1xx = warning), the offending box/quantifier, and a human message:
//!
//! 1. **structural** — the `validate` checks in diagnostic form, plus
//!    join-order and magic-link liveness (L001–L009, L021);
//! 2. **strata** — stratum monotonicity against a recomputation
//!    (L010, L104);
//! 3. **recursion** — cycle well-formedness: every dependency cycle
//!    passes through a recursive union's step quantifier, and no
//!    GROUP BY on a cycle carries a Bound adornment (L011, L024);
//! 4. **magic** — adornment arity, magic-link placement, and magic-box
//!    duplicate discipline (L020, L022, L023);
//! 5. **duplicates** — every `Preserve` claim re-proven from scratch
//!    (L030);
//! 6. **quantifiers** — subquery quantifiers stay inside predicates
//!    (L040, L041);
//! 7. **hygiene** — unreachable boxes, orphan quantifiers, unused
//!    columns, foreign join-order entries (L100–L103).
//!
//! The rewrite engine runs this after every rule application in
//! `CheckLevel::PerFire` mode, attributing any error to the rule that
//! fired; `EXPLAIN` (over the wire and in the REPL) exposes the same
//! report.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod diag;
pub mod passes;

pub use diag::{Code, Diagnostic, LintReport, Severity};

use starmagic_catalog::Catalog;
use starmagic_qgm::keys::KeyTable;
use starmagic_qgm::strata::{self, Strata};
use starmagic_qgm::Qgm;

/// Run every pass over the graph. If the structural pass finds errors,
/// the remaining passes are skipped — they dereference ids freely and
/// assume the properties pass 1 establishes.
pub fn lint(qgm: &Qgm, catalog: &Catalog) -> LintReport {
    let mut report = LintReport::default();
    passes::structural::run(qgm, &mut report);
    if !report.has_errors() {
        let strata = strata::compute(qgm);
        let keys = KeyTable::for_strata(qgm, catalog, &strata);
        semantic_passes(qgm, &strata, &keys, &mut report);
    }
    report
}

/// [`lint`] of a graph that passes `Qgm::validate`, reading its strata
/// and keys from `strata` and `keys` — what the pipeline's final check
/// derives once and shares with the analysis.
pub fn lint_with(qgm: &Qgm, strata: &Strata, keys: &KeyTable<'_>) -> LintReport {
    let mut report = LintReport::default();
    passes::structural::run(qgm, &mut report);
    if !report.has_errors() {
        semantic_passes(qgm, strata, keys, &mut report);
    }
    report
}

/// Every pass after the structural one.
fn semantic_passes(qgm: &Qgm, strata: &Strata, keys: &KeyTable<'_>, report: &mut LintReport) {
    passes::strata::run(qgm, strata, report);
    passes::recursion::run(qgm, &strata.sccs, report);
    passes::magic::run(qgm, report);
    passes::duplicates::run(qgm, keys, report);
    passes::quantifiers::run(qgm, report);
    passes::hygiene::run(qgm, report);
}

#[cfg(test)]
mod tests {
    use super::*;
    use starmagic_catalog::{Catalog, ColumnDef, Table, TableSchema};
    use starmagic_common::{DataType, Value};
    use starmagic_qgm::boxes::{
        AdornChar, Adornment, BoxFlavor, BoxKind, DistinctMode, GroupByBox, OutputCol, SetOpBox,
    };
    use starmagic_qgm::{BoxId, Qgm, QuantId, QuantKind, ScalarExpr, SetOpKind};

    /// A catalog with one table `t(a int primary key, b int)`.
    fn catalog() -> Catalog {
        let mut cat = Catalog::new();
        let schema = TableSchema::new(
            "t",
            vec![
                ColumnDef::new("a", DataType::Int),
                ColumnDef::new("b", DataType::Int),
            ],
        )
        .with_key(&["a"])
        .unwrap();
        cat.add_table(Table::new(schema)).unwrap();
        cat
    }

    /// Top SELECT over base table `t(a, b)`; returns (graph, base, quant).
    fn tiny() -> (Qgm, BoxId, QuantId) {
        let mut g = Qgm::new();
        let base = g.add_box("T", BoxKind::BaseTable { table: "t".into() });
        g.boxed_mut(base).columns = vec![
            OutputCol {
                name: "a".into(),
                expr: ScalarExpr::lit(0i64),
            },
            OutputCol {
                name: "b".into(),
                expr: ScalarExpr::lit(0i64),
            },
        ];
        let q = g.add_quant(g.top(), base, QuantKind::Foreach, "t");
        let top = g.top();
        g.boxed_mut(top).columns = vec![OutputCol {
            name: "a".into(),
            expr: ScalarExpr::col(q, 0),
        }];
        starmagic_qgm::strata::assign(&mut g);
        (g, base, q)
    }

    #[test]
    fn clean_graph_is_clean() {
        let (g, _, _) = tiny();
        let report = lint(&g, &catalog());
        assert!(report.is_clean(), "unexpected findings:\n{report}");
    }

    #[test]
    fn structural_reports_out_of_range_column() {
        let (mut g, _, q) = tiny();
        let top = g.top();
        g.boxed_mut(top).predicates.push(ScalarExpr::col(q, 9));
        let report = lint(&g, &catalog());
        assert!(
            report.find(Code::L005ColumnOutOfRange).is_some(),
            "{report}"
        );
        assert!(report.has_errors());
    }

    #[test]
    fn structural_reports_every_finding_not_just_first() {
        let (mut g, base, q) = tiny();
        let top = g.top();
        g.boxed_mut(top).predicates.push(ScalarExpr::col(q, 9));
        g.boxed_mut(base).quants.push(QuantId(777)); // dangling too
        let report = lint(&g, &catalog());
        assert!(
            report.find(Code::L005ColumnOutOfRange).is_some(),
            "{report}"
        );
        assert!(report.find(Code::L001DanglingQuant).is_some(), "{report}");
    }

    #[test]
    fn structural_reports_dead_join_order_entry() {
        let (mut g, _, q) = tiny();
        let top = g.top();
        g.boxed_mut(top).join_order = Some(vec![q, QuantId(999)]);
        let report = lint(&g, &catalog());
        let d = report.find(Code::L009JoinOrderDeadQuant).expect("L009");
        assert_eq!(d.box_id, Some(top));
    }

    #[test]
    fn strata_reports_corrupted_stratum() {
        let (mut g, base, _) = tiny();
        // A base table hoisted off stratum 0 and a top box pushed
        // below its input.
        g.boxed_mut(base).stratum = 3;
        let report = lint(&g, &catalog());
        assert!(
            report.find(Code::L010StratumMonotonicity).is_some(),
            "{report}"
        );
        assert!(report.find(Code::L104StaleStratum).is_some(), "{report}");
    }

    #[test]
    fn strata_tolerates_unassigned_new_boxes() {
        let (mut g, base, _) = tiny();
        // A rewrite interposes a new box (stratum 0 = unassigned)
        // between top and base: no error, staleness warning only.
        let mid = g.add_box("MID", BoxKind::Select);
        let mq = g.add_quant(mid, base, QuantKind::Foreach, "t");
        g.boxed_mut(mid).columns = vec![
            OutputCol {
                name: "a".into(),
                expr: ScalarExpr::col(mq, 0),
            },
            OutputCol {
                name: "b".into(),
                expr: ScalarExpr::col(mq, 1),
            },
        ];
        let top = g.top();
        let old = g.boxed(top).quants[0];
        g.retarget(old, mid);
        let report = lint(&g, &catalog());
        assert!(
            report.find(Code::L010StratumMonotonicity).is_none(),
            "{report}"
        );
        assert!(report.find(Code::L104StaleStratum).is_some(), "{report}");
        assert!(!report.has_errors());
    }

    /// The builder's recursive-union shape: base arm and step arm under
    /// a Recursive-flavored UNION, the step arm closing the cycle.
    /// Returns (graph, union box, step arm).
    fn recursive_union() -> (Qgm, BoxId, BoxId) {
        let (mut g, base, _) = tiny();
        let union = g.add_box(
            "TC",
            BoxKind::SetOp(SetOpBox {
                op: SetOpKind::Union,
                all: false,
            }),
        );
        g.boxed_mut(union).flavor = BoxFlavor::Recursive;
        g.boxed_mut(union).distinct = DistinctMode::Enforce;

        let barm = g.add_box("B", BoxKind::Select);
        let bq = g.add_quant(barm, base, QuantKind::Foreach, "e");
        g.boxed_mut(barm).columns = vec![
            OutputCol {
                name: "a".into(),
                expr: ScalarExpr::col(bq, 0),
            },
            OutputCol {
                name: "b".into(),
                expr: ScalarExpr::col(bq, 1),
            },
        ];
        let sarm = g.add_box("S", BoxKind::Select);
        let rec = g.add_quant(sarm, union, QuantKind::Foreach, "tc");
        let sq = g.add_quant(sarm, base, QuantKind::Foreach, "e2");
        g.boxed_mut(sarm).columns = vec![
            OutputCol {
                name: "a".into(),
                expr: ScalarExpr::col(rec, 0),
            },
            OutputCol {
                name: "b".into(),
                expr: ScalarExpr::col(sq, 1),
            },
        ];
        let _ = g.add_quant(union, barm, QuantKind::Foreach, "arm0");
        let _ = g.add_quant(union, sarm, QuantKind::Foreach, "arm1");
        g.boxed_mut(union).columns = vec![
            OutputCol {
                name: "a".into(),
                expr: ScalarExpr::lit(0i64),
            },
            OutputCol {
                name: "b".into(),
                expr: ScalarExpr::lit(0i64),
            },
        ];

        let top = g.top();
        let old = g.boxed(top).quants[0];
        g.retarget(old, union);
        starmagic_qgm::strata::assign(&mut g);
        (g, union, sarm)
    }

    #[test]
    fn recursion_accepts_the_builder_shape() {
        let (g, _, _) = recursive_union();
        let report = lint(&g, &catalog());
        assert!(
            report.find(Code::L011RecursiveCycleShape).is_none(),
            "{report}"
        );
        assert!(
            report.find(Code::L024RecursiveAggregateAdorned).is_none(),
            "{report}"
        );
        assert!(!report.has_errors(), "{report}");
    }

    #[test]
    fn recursion_reports_cycle_avoiding_the_union() {
        // Rewire the step arm's recursive reference to point at a plain
        // Select that in turn ranges over the step arm: the cycle now
        // avoids the Recursive union entirely.
        let (mut g, _, sarm) = recursive_union();
        let detour = g.add_box("D", BoxKind::Select);
        let dq = g.add_quant(detour, sarm, QuantKind::Foreach, "d");
        g.boxed_mut(detour).columns = vec![
            OutputCol {
                name: "a".into(),
                expr: ScalarExpr::col(dq, 0),
            },
            OutputCol {
                name: "b".into(),
                expr: ScalarExpr::col(dq, 1),
            },
        ];
        let rec = g.boxed(sarm).quants[0];
        g.retarget(rec, detour);
        let report = lint(&g, &catalog());
        let d = report.find(Code::L011RecursiveCycleShape).expect("L011");
        assert!(d.box_id.is_some());
        assert!(d.quant.is_some(), "finding should anchor a cycle edge");
        assert!(report.has_errors());
    }

    #[test]
    fn recursion_reports_bound_adornment_on_cyclic_group_by() {
        // A GROUP BY spliced into the recursive cycle (between the step
        // arm and the union) that a broken rewrite adorned with a Bound
        // column: the aggregate exemption says this must never happen.
        let (mut g, union, sarm) = recursive_union();
        let gb = g.add_box(
            "G",
            BoxKind::GroupBy(GroupByBox {
                group_keys: vec![],
                aggs: vec![],
            }),
        );
        let gq = g.add_quant(gb, union, QuantKind::Foreach, "g");
        g.boxed_mut(gb).columns = vec![
            OutputCol {
                name: "a".into(),
                expr: ScalarExpr::col(gq, 0),
            },
            OutputCol {
                name: "b".into(),
                expr: ScalarExpr::col(gq, 1),
            },
        ];
        g.boxed_mut(gb).kind = BoxKind::GroupBy(GroupByBox {
            group_keys: vec![ScalarExpr::col(gq, 0), ScalarExpr::col(gq, 1)],
            aggs: vec![],
        });
        g.boxed_mut(gb).adornment = Some(Adornment(vec![AdornChar::Bound, AdornChar::Free]));
        let rec = g.boxed(sarm).quants[0];
        g.retarget(rec, gb);
        let report = lint(&g, &catalog());
        let d = report
            .find(Code::L024RecursiveAggregateAdorned)
            .expect("L024");
        assert_eq!(d.box_id, Some(gb));
        // The cycle still threads the union's step quantifier, so the
        // shape check stays quiet: the two codes are independent.
        assert!(
            report.find(Code::L011RecursiveCycleShape).is_none(),
            "{report}"
        );
    }

    #[test]
    fn magic_reports_arity_and_distinct_violations() {
        let (mut g, _, _) = tiny();
        let top = g.top();
        g.boxed_mut(top).adornment = Some(Adornment::all_free(5)); // arity is 1
        let report = lint(&g, &catalog());
        assert!(report.find(Code::L020AdornmentArity).is_some(), "{report}");

        let (mut g, base, _) = tiny();
        g.boxed_mut(base).flavor = BoxFlavor::Magic;
        // Magic flavor with Permit duplicates and a stray link.
        let top = g.top();
        g.boxed_mut(base).magic_links.push(top);
        let report = lint(&g, &catalog());
        assert!(report.find(Code::L023MagicDuplicates).is_some(), "{report}");
        assert!(
            report.find(Code::L022MisplacedMagicLink).is_some(),
            "{report}"
        );
    }

    #[test]
    fn duplicates_reports_unprovable_preserve_claim() {
        let (mut g, _, q) = tiny();
        let top = g.top();
        // Projects only t.b (not a key): Preserve is not provable.
        g.boxed_mut(top).columns = vec![OutputCol {
            name: "b".into(),
            expr: ScalarExpr::col(q, 1),
        }];
        g.boxed_mut(top).distinct = DistinctMode::Preserve;
        let report = lint(&g, &catalog());
        assert!(
            report.find(Code::L030UnprovableDistinctClaim).is_some(),
            "{report}"
        );
    }

    #[test]
    fn duplicates_accepts_provable_preserve_claim() {
        let (mut g, _, q) = tiny();
        let top = g.top();
        // Projects the primary key: provably duplicate-free even with
        // the box's own mark neutralized.
        g.boxed_mut(top).columns = vec![OutputCol {
            name: "a".into(),
            expr: ScalarExpr::col(q, 0),
        }];
        g.boxed_mut(top).distinct = DistinctMode::Preserve;
        let report = lint(&g, &catalog());
        assert!(
            report.find(Code::L030UnprovableDistinctClaim).is_none(),
            "{report}"
        );
    }

    #[test]
    fn quantifiers_report_projected_subquery_quant() {
        let (mut g, base, _) = tiny();
        let top = g.top();
        let e = g.add_quant(top, base, QuantKind::Existential { negated: false }, "e");
        g.boxed_mut(top).columns.push(OutputCol {
            name: "leak".into(),
            expr: ScalarExpr::col(e, 0),
        });
        let report = lint(&g, &catalog());
        let d = report.find(Code::L040SubqueryQuantProjected).expect("L040");
        assert_eq!(d.quant, Some(e));
    }

    #[test]
    fn quantifiers_report_test_over_foreach() {
        let (mut g, _, q) = tiny();
        let top = g.top();
        g.boxed_mut(top).predicates.push(ScalarExpr::Quantified {
            mode: starmagic_qgm::expr::QuantMode::Exists,
            quant: q, // Foreach!
            preds: vec![ScalarExpr::lit(Value::Bool(true))],
        });
        let report = lint(&g, &catalog());
        assert!(
            report.find(Code::L041QuantifiedOverForeach).is_some(),
            "{report}"
        );
    }

    #[test]
    fn hygiene_reports_unreachable_and_unused() {
        let (mut g, base, _) = tiny();
        let dead = g.add_box("DEAD", BoxKind::Select);
        let _ = g.add_quant(dead, base, QuantKind::Foreach, "x");
        // An interior box projecting a column nobody reads.
        let mid = g.add_box("MID", BoxKind::Select);
        let mq = g.add_quant(mid, base, QuantKind::Foreach, "t");
        g.boxed_mut(mid).columns = vec![
            OutputCol {
                name: "a".into(),
                expr: ScalarExpr::col(mq, 0),
            },
            OutputCol {
                name: "b".into(),
                expr: ScalarExpr::col(mq, 1),
            },
        ];
        let top = g.top();
        let old = g.boxed(top).quants[0];
        g.retarget(old, mid);
        let report = lint(&g, &catalog());
        let unreachable = report.find(Code::L100UnreachableBox).expect("L100");
        assert_eq!(unreachable.box_id, Some(dead));
        // top references only column 0 of MID; column 1 is unused.
        assert!(
            report.find(Code::L102UnusedOutputColumn).is_some(),
            "{report}"
        );
        assert!(!report.has_errors(), "hygiene findings must be warnings");
    }

    #[test]
    fn hygiene_reports_foreign_join_order_entry() {
        let (mut g, base, q) = tiny();
        let other = g.add_box("O", BoxKind::Select);
        let foreign = g.add_quant(other, base, QuantKind::Foreach, "z");
        let top = g.top();
        g.boxed_mut(top).join_order = Some(vec![q, foreign]);
        let report = lint(&g, &catalog());
        let d = report.find(Code::L103JoinOrderForeignQuant).expect("L103");
        assert_eq!(d.quant, Some(foreign));
    }

    #[test]
    fn codes_are_stable_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for &c in Code::ALL {
            assert!(seen.insert(c.as_str()), "duplicate code {c}");
            assert!(c.as_str().starts_with('L'));
            let warn = c.as_str().starts_with("L1") || c.as_str().starts_with("L21");
            assert_eq!(
                c.severity() == Severity::Warn,
                warn,
                "{c}: L0xx/L20x must be Error, L1xx/L21x must be Warn"
            );
            assert!(!c.summary().is_empty());
        }
    }

    #[test]
    fn report_display_is_readable() {
        let (mut g, _, q) = tiny();
        let top = g.top();
        g.boxed_mut(top).predicates.push(ScalarExpr::col(q, 9));
        let report = lint(&g, &catalog());
        let text = report.to_string();
        assert!(text.contains("L005"), "{text}");
        assert!(text.contains("error"), "{text}");
        assert!(LintReport::default().to_string().contains("clean"));
    }
}
