//! Redundant-join elimination (§3.1 lists it among the phase-1 rules).
//!
//! The safe, statistics-free case: two Foreach quantifiers over the
//! *same* box joined on equality over a full key of that box are one
//! logical scan. The second quantifier is removed, its references
//! rewritten to the first, and each key-equality predicate is replaced
//! by `IS NOT NULL` on the kept side (a NULL key never joined, so the
//! filter must survive the elimination).

use starmagic_common::Result;
use starmagic_qgm::{keys, BoxId, BoxKind, ColSet, Qgm, QuantId, ScalarExpr};

use crate::engine::RuleContext;
use crate::rules::RewriteRule;

pub struct RedundantSelfJoin;

impl RewriteRule for RedundantSelfJoin {
    fn name(&self) -> &'static str {
        "redundant-join"
    }

    fn apply(&self, ctx: &mut RuleContext<'_>, b: BoxId) -> Result<bool> {
        let qgm = &mut *ctx.qgm;
        if !matches!(qgm.boxed(b).kind, BoxKind::Select) {
            return Ok(false);
        }
        let fquants = qgm.foreach_quants(b);
        for (i, &keep) in fquants.iter().enumerate() {
            for &drop in fquants.iter().skip(i + 1) {
                if qgm.quant(keep).input != qgm.quant(drop).input {
                    continue;
                }
                let input = qgm.quant(keep).input;
                let input_keys = keys::output_keys(qgm, ctx.catalog, input);
                for key in &input_keys {
                    if let Some(pred_idxs) = key_equalities(qgm, b, keep, drop, key) {
                        eliminate(qgm, b, keep, drop, key, &pred_idxs);
                        return Ok(true);
                    }
                }
            }
        }
        Ok(false)
    }
}

/// Indexes of predicates `keep.k = drop.k` covering every column of
/// `key`, or `None` if the key is not fully equated.
fn key_equalities(
    qgm: &Qgm,
    b: BoxId,
    keep: QuantId,
    drop: QuantId,
    key: &ColSet,
) -> Option<Vec<usize>> {
    let mut found: Vec<usize> = Vec::new();
    let mut covered = ColSet::new();
    for (i, p) in qgm.boxed(b).predicates.iter().enumerate() {
        let Some((l, r)) = p.as_equality() else {
            continue;
        };
        let pair = match (l, r) {
            (
                ScalarExpr::ColRef { quant: q1, col: c1 },
                ScalarExpr::ColRef { quant: q2, col: c2 },
            ) if c1 == c2 => {
                if (*q1 == keep && *q2 == drop) || (*q1 == drop && *q2 == keep) {
                    Some(*c1)
                } else {
                    None
                }
            }
            _ => None,
        };
        if let Some(c) = pair {
            if key.contains(c) {
                covered.insert(c);
                found.push(i);
            }
        }
    }
    (covered == *key).then_some(found)
}

fn eliminate(
    qgm: &mut Qgm,
    b: BoxId,
    keep: QuantId,
    drop: QuantId,
    key: &ColSet,
    pred_idxs: &[usize],
) {
    // Replace the key equalities with NOT NULL filters on the kept side.
    {
        let preds = &mut qgm.boxed_mut(b).predicates;
        let mut remove: Vec<usize> = pred_idxs.to_vec();
        remove.sort_unstable_by(|a, b2| b2.cmp(a));
        for i in remove {
            preds.remove(i);
        }
        for c in key {
            preds.push(ScalarExpr::IsNull {
                expr: Box::new(ScalarExpr::col(keep, c)),
                negated: true,
            });
        }
    }
    // Rewrite all references to the dropped quantifier.
    let arity = qgm.boxed(qgm.quant(drop).input).arity();
    let substitutes: Vec<ScalarExpr> = (0..arity).map(|c| ScalarExpr::col(keep, c)).collect();
    qgm.substitute_quant_global(drop, &substitutes);
    qgm.remove_quant(drop);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::RewriteEngine;
    use crate::props::OpRegistry;
    use starmagic_catalog::generator;
    use starmagic_qgm::build_qgm;

    fn run(sql_text: &str) -> Qgm {
        let cat = generator::benchmark_catalog(generator::Scale::small()).unwrap();
        let mut g = build_qgm(&cat, &starmagic_sql::parse_query(sql_text).unwrap()).unwrap();
        RewriteEngine::default()
            .run(&mut g, &cat, &OpRegistry::new(), &[&RedundantSelfJoin])
            .unwrap();
        g.garbage_collect(false);
        g.validate().unwrap();
        g
    }

    #[test]
    fn self_join_on_key_is_eliminated() {
        let g = run(
            "SELECT a.deptname, b.budget FROM department a, department b \
             WHERE a.deptno = b.deptno",
        );
        let top = g.boxed(g.top());
        assert_eq!(top.quants.len(), 1, "one scan survives");
        // The equality was replaced by IS NOT NULL on the key.
        assert!(top
            .predicates
            .iter()
            .any(|p| matches!(p, ScalarExpr::IsNull { negated: true, .. })));
    }

    #[test]
    fn self_join_on_non_key_survives() {
        let g = run("SELECT a.empno, b.empno FROM employee a, employee b \
             WHERE a.workdept = b.workdept");
        assert_eq!(g.boxed(g.top()).quants.len(), 2);
    }

    #[test]
    fn composite_key_requires_all_columns() {
        // emp_act key is (empno, projno): equating only empno is not
        // enough.
        let g = run("SELECT a.hours FROM emp_act a, emp_act b WHERE a.empno = b.empno");
        assert_eq!(g.boxed(g.top()).quants.len(), 2);
        let g = run("SELECT a.hours, b.hours FROM emp_act a, emp_act b \
             WHERE a.empno = b.empno AND a.projno = b.projno");
        assert_eq!(g.boxed(g.top()).quants.len(), 1);
    }

    #[test]
    fn different_tables_never_eliminate() {
        let g = run("SELECT e.empno FROM employee e, department d WHERE e.empno = d.deptno");
        assert_eq!(g.boxed(g.top()).quants.len(), 2);
    }
}
