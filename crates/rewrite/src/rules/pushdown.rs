//! Local predicate pushdown — the paper's "local magic rule" of
//! phase 1: predicates that restrict a single quantifier are moved
//! into the box the quantifier ranges over, so they apply early.
//! It consults the same per-operation bindable-columns knowledge that
//! EMST uses for adornment (§4.3), keeping the two aligned.

use starmagic_common::Result;
use starmagic_qgm::{BoxId, BoxKind, Qgm, QuantId, ScalarExpr};

use crate::engine::RuleContext;
use crate::props::OpRegistry;
use crate::rules::RewriteRule;

pub struct LocalPredicatePushdown;

impl RewriteRule for LocalPredicatePushdown {
    fn name(&self) -> &'static str {
        "local-pushdown"
    }

    fn apply(&self, ctx: &mut RuleContext<'_>, b: BoxId) -> Result<bool> {
        let qgm = &mut *ctx.qgm;
        if !matches!(qgm.boxed(b).kind, BoxKind::Select) {
            return Ok(false);
        }
        let preds = qgm.boxed(b).predicates.clone();
        for (i, p) in preds.iter().enumerate() {
            if let Some(q) = single_local_quant(qgm, b, p) {
                if try_push(qgm, ctx.registry, b, q, p) {
                    qgm.boxed_mut(b).predicates.remove(i);
                    return Ok(true);
                }
            }
        }
        Ok(false)
    }
}

/// The predicate references exactly one quantifier, which is a Foreach
/// quantifier of this box, and contains no subquery test.
fn single_local_quant(qgm: &Qgm, b: BoxId, p: &ScalarExpr) -> Option<QuantId> {
    let mut has_quantified = false;
    p.walk(&mut |e| {
        if matches!(e, ScalarExpr::Quantified { .. }) {
            has_quantified = true;
        }
    });
    if has_quantified {
        return None;
    }
    let quants = p.quantifiers();
    if quants.len() != 1 {
        return None;
    }
    let q = *quants.iter().next().expect("len checked");
    let quant = qgm.quant(q);
    (quant.parent == b && quant.kind.is_foreach()).then_some(q)
}

/// Push predicate `p` (over quantifier `q` of box `b`) into the box
/// `q` ranges over, if the target operation permits it.
fn try_push(qgm: &mut Qgm, registry: &OpRegistry, _b: BoxId, q: QuantId, p: &ScalarExpr) -> bool {
    let c = qgm.quant(q).input;
    // Shared boxes cannot absorb one user's predicate.
    if qgm.users(c).len() != 1 {
        return false;
    }
    // Check every referenced output column is bindable for this op.
    let bindable = registry.bindable_cols(qgm, c);
    let mut ok = true;
    p.walk(&mut |e| {
        if let ScalarExpr::ColRef { quant, col } = e {
            if *quant == q && !bindable.allows(*col) {
                ok = false;
            }
        }
    });
    if !ok {
        return false;
    }
    match qgm.boxed(c).kind.clone() {
        BoxKind::Select => {
            let pushed = qgm.inline_through(p, q);
            qgm.boxed_mut(c).predicates.extend(pushed.conjuncts());
            true
        }
        BoxKind::GroupBy(spec) => {
            // Translate output-column references (all group keys, by the
            // bindable check) into the group-by's input frame, then land
            // the predicate in the input box if it is an exclusive
            // select box.
            let tq = qgm.boxed(c).quants[0];
            let t1 = qgm.quant(tq).input;
            if !matches!(qgm.boxed(t1).kind, BoxKind::Select) || qgm.users(t1).len() != 1 {
                return false;
            }
            let over_input = p.map_colrefs(&mut |quant, col| {
                if quant == q {
                    spec.group_keys[col].clone()
                } else {
                    ScalarExpr::ColRef { quant, col }
                }
            });
            let pushed = qgm.inline_through(&over_input, tq);
            qgm.boxed_mut(t1).predicates.extend(pushed.conjuncts());
            true
        }
        BoxKind::SetOp(_) => {
            // Push into every arm; all arms must be exclusive select
            // boxes for the rewrite to proceed.
            let arms: Vec<QuantId> = qgm.boxed(c).quants.clone();
            for &aq in &arms {
                let arm = qgm.quant(aq).input;
                if !matches!(qgm.boxed(arm).kind, BoxKind::Select) || qgm.users(arm).len() != 1 {
                    return false;
                }
            }
            for &aq in &arms {
                let arm = qgm.quant(aq).input;
                // Positional: output column i of the set-op corresponds
                // to output column i of each arm.
                let arm_cols: Vec<ScalarExpr> = qgm
                    .boxed(arm)
                    .columns
                    .iter()
                    .map(|col| col.expr.clone())
                    .collect();
                let pushed = p.map_colrefs(&mut |quant, col| {
                    if quant == q {
                        arm_cols[col].clone()
                    } else {
                        ScalarExpr::ColRef { quant, col }
                    }
                });
                qgm.boxed_mut(arm).predicates.extend(pushed.conjuncts());
            }
            true
        }
        BoxKind::BaseTable { .. } => false,
        // Conservative: the local rule leaves outer joins alone (EMST
        // restricts their preserved side through magic instead).
        BoxKind::OuterJoin(_) => false,
    }
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
                "deptavg",
                vec!["workdept".into(), "avgsal".into()],
                "SELECT workdept, AVG(salary) FROM employee GROUP BY workdept",
                false,
            )
            .unwrap(),
        )
        .unwrap();
        c.add_view(
            ViewDef::new(
                "allpeople",
                vec!["no".into(), "dept".into()],
                "SELECT empno, workdept FROM employee \
                       UNION ALL SELECT mgrno, deptno FROM department",
                false,
            )
            .unwrap(),
        )
        .unwrap();
        c
    }

    fn run(cat: &Catalog, sql_text: &str) -> Qgm {
        let mut g = build_qgm(cat, &starmagic_sql::parse_query(sql_text).unwrap()).unwrap();
        let reg = OpRegistry::new();
        RewriteEngine::default()
            .run(&mut g, cat, &reg, &[&LocalPredicatePushdown])
            .unwrap();
        g.garbage_collect(false);
        g.validate().unwrap();
        g
    }

    fn find(g: &Qgm, name: &str) -> BoxId {
        g.box_ids()
            .into_iter()
            .find(|&b| g.boxed(b).name == name)
            .unwrap_or_else(|| panic!("box {name} not found"))
    }

    #[test]
    fn pushes_into_exclusive_view_box() {
        let cat = catalog();
        let mut c2 = generator::benchmark_catalog(generator::Scale::small()).unwrap();
        c2.add_view(
            ViewDef::new(
                "v",
                vec!["empno".into(), "salary".into()],
                "SELECT empno, salary FROM employee",
                false,
            )
            .unwrap(),
        )
        .unwrap();
        let g = run(&c2, "SELECT empno FROM v WHERE salary > 1000");
        let _ = cat;
        let v = find(&g, "V");
        assert_eq!(g.boxed(v).predicates.len(), 1);
        assert!(g.boxed(g.top()).predicates.is_empty());
    }

    #[test]
    fn pushes_group_key_predicate_below_groupby() {
        let cat = catalog();
        let g = run(
            &cat,
            "SELECT workdept, avgsal FROM deptavg WHERE workdept = 3",
        );
        // The predicate lands in the T1 select box under the group-by.
        let gb = g
            .box_ids()
            .into_iter()
            .find(|&b| matches!(g.boxed(b).kind, BoxKind::GroupBy(_)))
            .unwrap();
        let t1 = g.quant(g.boxed(gb).quants[0]).input;
        assert_eq!(g.boxed(t1).predicates.len(), 1, "pushed below grouping");
    }

    #[test]
    fn does_not_push_aggregate_column_predicate() {
        let cat = catalog();
        let g = run(
            &cat,
            "SELECT workdept, avgsal FROM deptavg WHERE avgsal > 50000",
        );
        // Predicate on the aggregated column stays above the view.
        let stays = g
            .box_ids()
            .into_iter()
            .filter(|&b| {
                g.boxed(b)
                    .predicates
                    .iter()
                    .any(|p| p.to_string().contains("50000"))
            })
            .count();
        assert_eq!(stays, 1);
        let gb = g
            .box_ids()
            .into_iter()
            .find(|&b| matches!(g.boxed(b).kind, BoxKind::GroupBy(_)))
            .unwrap();
        let t1 = g.quant(g.boxed(gb).quants[0]).input;
        assert!(g.boxed(t1).predicates.is_empty());
    }

    #[test]
    fn pushes_through_union_into_both_arms() {
        let cat = catalog();
        let g = run(&cat, "SELECT no FROM allpeople WHERE dept = 2");
        let setop = g
            .box_ids()
            .into_iter()
            .find(|&b| matches!(g.boxed(b).kind, BoxKind::SetOp(_)))
            .unwrap();
        for &aq in &g.boxed(setop).quants {
            let arm = g.quant(aq).input;
            assert_eq!(g.boxed(arm).predicates.len(), 1, "each arm filtered");
        }
    }

    #[test]
    fn join_predicates_stay() {
        let cat = catalog();
        let g = run(
            &cat,
            "SELECT e.empno FROM employee e, department d WHERE e.workdept = d.deptno",
        );
        assert_eq!(g.boxed(g.top()).predicates.len(), 1, "join pred not local");
    }

    #[test]
    fn correlated_predicates_are_not_pushed_from_outside() {
        let cat = catalog();
        // The correlation predicate lives in the subquery box and
        // references the outer quantifier only — not a local predicate
        // of the subquery's own quantifiers, so it must stay.
        let g = run(
            &cat,
            "SELECT e.empno FROM employee e WHERE EXISTS \
             (SELECT 1 FROM department d WHERE d.mgrno = e.empno)",
        );
        g.validate().unwrap();
    }
}
