//! Projection pruning — "pushing predicates and projections down into
//! lower boxes" (§3.1). A single-user select box's output columns are
//! narrowed to the ones actually referenced anywhere in the graph.
//!
//! The rule is sound for bags (dropping unused output columns never
//! changes row counts) except through a box that still enforces
//! DISTINCT, where the projection *is* the semantics — those are
//! skipped. It is excluded from the default pipeline so the printed
//! graphs keep the paper's `SELECT *` triplet shape (Figure 5 keeps
//! all four mgrSal columns); enable it with
//! `PipelineOptions::prune_projections`.

use std::collections::BTreeSet;

use starmagic_common::Result;
use starmagic_qgm::{BoxId, BoxKind, DistinctMode, Qgm, QuantId, ScalarExpr};

use crate::engine::RuleContext;
use crate::rules::RewriteRule;

pub struct ProjectionPrune;

impl RewriteRule for ProjectionPrune {
    fn name(&self) -> &'static str {
        "projection-prune"
    }

    fn apply(&self, ctx: &mut RuleContext<'_>, b: BoxId) -> Result<bool> {
        let qgm = &mut *ctx.qgm;
        // Work on b's children (the boxes whose outputs we can narrow).
        let quants = qgm.boxed(b).quants.clone();
        for q in quants {
            if !prunable(qgm, b, q) {
                continue;
            }
            let used = used_columns(qgm, q);
            let child = qgm.quant(q).input;
            let arity = qgm.boxed(child).arity();
            if used.len() >= arity || used.is_empty() {
                continue;
            }
            prune(qgm, q, child, &used);
            return Ok(true);
        }
        Ok(false)
    }
}

fn prunable(qgm: &Qgm, b: BoxId, q: QuantId) -> bool {
    let quant = qgm.quant(q);
    let child = quant.input;
    if child == b {
        return false;
    }
    let cb = qgm.boxed(child);
    // Select boxes only, exclusive, not deduplicating (the projection
    // is semantic under DISTINCT), not magic-linked.
    matches!(cb.kind, BoxKind::Select)
        && cb.distinct != DistinctMode::Enforce
        && qgm.users(child).len() == 1
        && qgm.link_users(child) == 0
        && cb.magic_links.is_empty()
        // Positional consumers (set operations) must keep the arity.
        && !matches!(qgm.boxed(b).kind, BoxKind::SetOp(_))
}

/// Offsets of `q`'s input columns referenced anywhere in the graph
/// (including correlated references from other boxes).
fn used_columns(qgm: &Qgm, q: QuantId) -> BTreeSet<usize> {
    let mut used = BTreeSet::new();
    let mut note = |e: &ScalarExpr| {
        e.walk(&mut |sub| {
            if let ScalarExpr::ColRef { quant, col } = sub {
                if *quant == q {
                    used.insert(*col);
                }
            }
        });
    };
    for x in qgm.box_ids() {
        let qb = qgm.boxed(x);
        for p in &qb.predicates {
            note(p);
        }
        for c in &qb.columns {
            note(&c.expr);
        }
        match &qb.kind {
            BoxKind::GroupBy(g) => {
                for k in &g.group_keys {
                    note(k);
                }
                for a in &g.aggs {
                    if let Some(arg) = &a.arg {
                        note(arg);
                    }
                }
            }
            BoxKind::OuterJoin(oj) => {
                for p in &oj.on {
                    note(p);
                }
            }
            _ => {}
        }
    }
    used
}

fn prune(qgm: &mut Qgm, q: QuantId, child: BoxId, used: &BTreeSet<usize>) {
    let keep: Vec<usize> = used.iter().copied().collect();
    // Narrow the child's output.
    let old_cols = std::mem::take(&mut qgm.boxed_mut(child).columns);
    qgm.boxed_mut(child).columns = keep.iter().map(|&i| old_cols[i].clone()).collect();
    // An adornment is positional — narrow it in step with the columns.
    if let Some(a) = &mut qgm.boxed_mut(child).adornment {
        a.0 = keep.iter().map(|&i| a.0[i]).collect();
    }
    // Remap every reference through the new offsets (global: correlated
    // references may live anywhere).
    let remap: Vec<ScalarExpr> = {
        let mut v: Vec<ScalarExpr> = Vec::with_capacity(old_cols.len());
        for i in 0..old_cols.len() {
            let new = keep.iter().position(|&k| k == i);
            v.push(match new {
                Some(n) => ScalarExpr::col(q, n),
                // Unused: substitute a harmless literal (never read).
                None => ScalarExpr::Literal(starmagic_common::Value::Null),
            });
        }
        v
    };
    qgm.substitute_quant_global(q, &remap);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::RewriteEngine;
    use crate::props::OpRegistry;
    use starmagic_catalog::{generator, Catalog, ViewDef};
    use starmagic_qgm::build_qgm;

    fn catalog() -> Catalog {
        let mut c = generator::benchmark_catalog(generator::Scale::small()).unwrap();
        c.add_view(
            ViewDef::new(
                "wide",
                vec![
                    "empno".into(),
                    "empname".into(),
                    "workdept".into(),
                    "salary".into(),
                    "bonus".into(),
                ],
                "SELECT empno, empname, workdept, salary, bonus FROM employee",
                false,
            )
            .unwrap(),
        )
        .unwrap();
        c
    }

    fn run(cat: &Catalog, sql_text: &str) -> Qgm {
        let mut g = build_qgm(cat, &starmagic_sql::parse_query(sql_text).unwrap()).unwrap();
        RewriteEngine::default()
            .run(&mut g, cat, &OpRegistry::new(), &[&ProjectionPrune])
            .unwrap();
        g.garbage_collect(false);
        g.validate().unwrap();
        g
    }

    fn view_box(g: &Qgm) -> BoxId {
        g.box_ids()
            .into_iter()
            .find(|&b| g.boxed(b).name == "WIDE")
            .expect("view box")
    }

    #[test]
    fn unused_columns_are_pruned() {
        let cat = catalog();
        let g = run(&cat, "SELECT w.empno FROM wide w WHERE w.salary > 50000");
        // Only empno + salary survive.
        assert_eq!(g.boxed(view_box(&g)).arity(), 2);
        // Execution still works and returns the same rows.
        let rows = starmagic_exec::execute(&g, &cat).unwrap();
        let g0 = build_qgm(
            &cat,
            &starmagic_sql::parse_query("SELECT w.empno FROM wide w WHERE w.salary > 50000")
                .unwrap(),
        )
        .unwrap();
        let rows0 = starmagic_exec::execute(&g0, &cat).unwrap();
        let mut a = rows;
        let mut b = rows0;
        a.sort_by(starmagic_common::Row::group_cmp);
        b.sort_by(starmagic_common::Row::group_cmp);
        assert_eq!(a, b);
    }

    #[test]
    fn fully_used_box_is_untouched() {
        let cat = catalog();
        let g = run(
            &cat,
            "SELECT w.empno, w.empname, w.workdept, w.salary, w.bonus FROM wide w",
        );
        assert_eq!(g.boxed(view_box(&g)).arity(), 5);
    }

    #[test]
    fn distinct_box_is_not_pruned() {
        let mut cat = catalog();
        cat.add_view(
            ViewDef::new(
                "dw",
                vec!["a".into(), "b".into()],
                "SELECT DISTINCT workdept, salary FROM employee",
                false,
            )
            .unwrap(),
        )
        .unwrap();
        let g = run(&cat, "SELECT d.a FROM dw d");
        let dw = g
            .box_ids()
            .into_iter()
            .find(|&b| g.boxed(b).name == "DW")
            .unwrap();
        assert_eq!(g.boxed(dw).arity(), 2, "DISTINCT projection is semantic");
    }

    #[test]
    fn correlated_references_keep_columns_alive() {
        let cat = catalog();
        let g = run(
            &cat,
            "SELECT w.empno FROM wide w WHERE EXISTS \
             (SELECT 1 FROM department d WHERE d.mgrno = w.empno AND d.budget > w.salary)",
        );
        // empno and salary are referenced (one only from the subquery).
        assert_eq!(g.boxed(view_box(&g)).arity(), 2);
        g.validate().unwrap();
    }
}
