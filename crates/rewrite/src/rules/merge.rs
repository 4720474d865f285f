//! The merge rule — QGM's analog of unfolding in logic (§3.1).
//!
//! A Foreach quantifier of a select box that ranges over another
//! select box with a single user is dissolved: the child's quantifiers
//! and predicates move into the parent, and references to the consumed
//! quantifier are rewritten through the child's output columns. This
//! is what collapses view wrappers in phase 1 and what merges the
//! magic boxes into their consumers in phase 3 (Example 4.1) — but
//! only after distinct pullup has proven the child need not enforce
//! duplicate elimination.
//!
//! Do not run this rule concurrently with the EMST rule: the paper's
//! three-phase pipeline (Figure 3) exists to keep merge out of the
//! phase where EMST is rewiring quantifiers onto fresh magic boxes.

use starmagic_common::Result;
use starmagic_qgm::{BoxId, BoxKind, DistinctMode, Qgm, QuantId};

use crate::engine::RuleContext;
use crate::rules::RewriteRule;

pub struct Merge;

impl RewriteRule for Merge {
    fn name(&self) -> &'static str {
        "merge"
    }

    fn apply(&self, ctx: &mut RuleContext<'_>, b: BoxId) -> Result<bool> {
        let qgm = &mut *ctx.qgm;
        if !matches!(qgm.boxed(b).kind, BoxKind::Select) {
            return Ok(false);
        }
        let quants = qgm.boxed(b).quants.clone();
        for q in quants {
            if mergeable(qgm, b, q) {
                merge_child(qgm, b, q);
                return Ok(true);
            }
        }
        Ok(false)
    }
}

/// Whether quantifier `q` of box `b` can be dissolved.
fn mergeable(qgm: &Qgm, b: BoxId, q: QuantId) -> bool {
    let quant = qgm.quant(q);
    if !quant.kind.is_foreach() {
        return false;
    }
    let c = quant.input;
    if c == b {
        return false; // direct recursion
    }
    let cbox = qgm.boxed(c);
    if !matches!(cbox.kind, BoxKind::Select) {
        return false;
    }
    // A box that still must deduplicate cannot be merged away: the
    // parent join would see the duplicates. Distinct pullup turns
    // Enforce into Preserve when duplicates are provably absent.
    if cbox.distinct == DistinctMode::Enforce {
        return false;
    }
    // Shared (common subexpression) or magic-linked boxes stay.
    if qgm.users(c).len() != 1 || qgm.link_users(c) != 0 {
        return false;
    }
    // A box carrying its own magic links must survive so EMST (or a
    // descendant) can still consume them.
    if !cbox.magic_links.is_empty() {
        return false;
    }
    true
}

/// Dissolve quantifier `q` (over child `c`) into box `b`.
fn merge_child(qgm: &mut Qgm, b: BoxId, q: QuantId) {
    let c = qgm.quant(q).input;
    let position = qgm
        .boxed(b)
        .quants
        .iter()
        .position(|&x| x == q)
        .expect("q belongs to b");

    // Move the child's quantifiers into b at q's position.
    let child_quants = std::mem::take(&mut qgm.boxed_mut(c).quants);
    for &cq in &child_quants {
        qgm.quant_mut(cq).parent = b;
    }
    // Only Foreach quantifiers participate in the join order —
    // splicing a subquery (E/A/scalar) quantifier in would make the
    // executor cross-join the subquery box.
    let child_foreach: Vec<QuantId> = child_quants
        .iter()
        .copied()
        .filter(|&cq| qgm.quant(cq).kind.is_foreach())
        .collect();
    {
        let bb = qgm.boxed_mut(b);
        bb.quants
            .splice(position..position, child_quants.iter().copied());
        // Patch the join order if the planner already deposited one.
        if let Some(order) = &mut bb.join_order {
            if let Some(jpos) = order.iter().position(|&x| x == q) {
                order.splice(jpos..jpos + 1, child_foreach.iter().copied());
            }
        }
    }

    // Rewrite references to q through the child's output expressions
    // (already in terms of the moved quantifiers).
    let col_exprs: Vec<_> = qgm
        .boxed(c)
        .columns
        .iter()
        .map(|col| col.expr.clone())
        .collect();
    qgm.substitute_quant_global(q, &col_exprs);

    // Move the child's predicates up, and drop its deposited join
    // order: the quantifiers it names now live in `b`, and leaving the
    // stale order behind turns into a dead-quantifier reference (L009)
    // the moment a later rewrite removes one of them.
    let cb = qgm.boxed_mut(c);
    let child_preds = std::mem::take(&mut cb.predicates);
    cb.join_order = None;
    qgm.boxed_mut(b).predicates.extend(child_preds);

    // If the child was provably duplicate-free, nothing else to carry:
    // joins preserve the parent's multiplicities either way.

    qgm.remove_quant(q);
    // c is now an empty, unreachable select box; garbage collection
    // reclaims it at the end of the phase.
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{CheckLevel, RewriteEngine};
    use crate::props::OpRegistry;
    use starmagic_catalog::{generator, Catalog, ViewDef};
    use starmagic_qgm::build_qgm;

    fn catalog() -> Catalog {
        let mut c = generator::benchmark_catalog(generator::Scale::small()).unwrap();
        c.add_view(
            ViewDef::new(
                "mgrsal",
                vec![
                    "empno".into(),
                    "empname".into(),
                    "workdept".into(),
                    "salary".into(),
                ],
                "SELECT e.empno, e.empname, e.workdept, e.salary \
                       FROM employee e, department d WHERE e.empno = d.mgrno",
                false,
            )
            .unwrap(),
        )
        .unwrap();
        c.add_view(
            ViewDef::new(
                "highpaid",
                vec!["empno".into()],
                "SELECT DISTINCT empno FROM employee WHERE salary > 70000",
                false,
            )
            .unwrap(),
        )
        .unwrap();
        c
    }

    fn run_merge(cat: &Catalog, sql_text: &str) -> Qgm {
        let mut g = build_qgm(cat, &starmagic_sql::parse_query(sql_text).unwrap()).unwrap();
        let reg = OpRegistry::new();
        RewriteEngine::default()
            .run(&mut g, cat, &reg, &[&Merge])
            .unwrap();
        g.garbage_collect(false);
        g.validate().unwrap();
        g
    }

    #[test]
    fn view_block_merges_into_query() {
        let cat = catalog();
        let g = run_merge(&cat, "SELECT workdept FROM mgrsal WHERE salary > 50000");
        // QUERY + EMPLOYEE + DEPARTMENT: view box dissolved.
        assert_eq!(g.box_count(), 3);
        let top = g.boxed(g.top());
        assert_eq!(top.quants.len(), 2);
        // The view's join predicate moved up.
        assert_eq!(top.predicates.len(), 2);
    }

    #[test]
    fn shared_view_does_not_merge() {
        let cat = catalog();
        let g = run_merge(
            &cat,
            "SELECT a.empno FROM mgrsal a, mgrsal b WHERE a.workdept = b.workdept",
        );
        // MGRSAL survives as a common subexpression with two users.
        let survivors: Vec<_> = g
            .box_ids()
            .into_iter()
            .filter(|&x| g.boxed(x).name == "MGRSAL")
            .collect();
        assert_eq!(survivors.len(), 1);
        assert_eq!(g.users(survivors[0]).len(), 2);
    }

    #[test]
    fn distinct_view_does_not_merge() {
        let cat = catalog();
        let g = run_merge(&cat, "SELECT empno FROM highpaid");
        let survivors: Vec<_> = g
            .box_ids()
            .into_iter()
            .filter(|&x| g.boxed(x).name == "HIGHPAID")
            .collect();
        assert_eq!(survivors.len(), 1, "Enforce-distinct box must survive");
    }

    #[test]
    fn groupby_box_does_not_merge() {
        let cat = catalog();
        let g = run_merge(
            &cat,
            "SELECT workdept, AVG(salary) FROM employee GROUP BY workdept",
        );
        let gb = g
            .box_ids()
            .into_iter()
            .filter(|&x| matches!(g.boxed(x).kind, BoxKind::GroupBy(_)))
            .count();
        assert_eq!(gb, 1);
    }

    #[test]
    fn merge_is_transitive_through_view_chains() {
        let mut cat = catalog();
        cat.add_view(
            ViewDef::new(
                "mgrdept",
                vec!["workdept".into()],
                "SELECT workdept FROM mgrsal WHERE salary > 0",
                false,
            )
            .unwrap(),
        )
        .unwrap();
        let g = run_merge(&cat, "SELECT workdept FROM mgrdept");
        // Everything collapses into QUERY over the two base tables.
        assert_eq!(g.box_count(), 3);
    }

    #[test]
    fn query_d_phase1_shape() {
        // Example 3.1: after merging, the graph is QUERY ->
        // AVGMGRSAL(groupby) -> T1(join of employee, department), plus
        // the DEPARTMENT quantifier in QUERY.
        let mut cat = catalog();
        cat.add_view(
            ViewDef::new(
                "avgmgrsal",
                vec!["workdept".into(), "avgsalary".into()],
                "SELECT workdept, AVG(salary) FROM mgrsal GROUP BY workdept",
                false,
            )
            .unwrap(),
        )
        .unwrap();
        let g = run_merge(
            &cat,
            "SELECT d.deptname, s.workdept, s.avgsalary \
             FROM department d, avgmgrsal s \
             WHERE d.deptno = s.workdept AND d.deptname = 'Planning'",
        );
        // Boxes: QUERY, groupby, T1(select), DEPARTMENT, EMPLOYEE = 5.
        assert_eq!(
            g.box_count(),
            5,
            "\n{}",
            starmagic_qgm::printer::print_graph(&g)
        );
        // QUERY joins department with the group-by box directly.
        let top = g.boxed(g.top());
        assert_eq!(top.quants.len(), 2);
        let inputs: Vec<_> = top
            .quants
            .iter()
            .map(|&q| g.boxed(g.quant(q).input).kind.label())
            .collect();
        assert!(inputs.contains(&"TABLE"));
        assert!(inputs.contains(&"GROUPBY"));
    }

    #[test]
    fn merge_clears_consumed_child_join_order() {
        let cat = catalog();
        let mut g = build_qgm(
            &cat,
            &starmagic_sql::parse_query("SELECT workdept FROM mgrsal WHERE salary > 50000")
                .unwrap(),
        )
        .unwrap();
        // The planner deposited orders before this merge runs (as in
        // pipeline phase 3).
        for b in g.box_ids() {
            let foreach: Vec<_> = g
                .boxed(b)
                .quants
                .iter()
                .copied()
                .filter(|&q| g.quant(q).kind.is_foreach())
                .collect();
            if !foreach.is_empty() {
                g.boxed_mut(b).join_order = Some(foreach);
            }
        }
        let view = g
            .box_ids()
            .into_iter()
            .find(|&b| g.boxed(b).name == "MGRSAL")
            .unwrap();
        let reg = OpRegistry::new();
        RewriteEngine::default()
            .run(&mut g, &cat, &reg, &[&Merge])
            .unwrap();
        // No GC yet: the dissolved view box is still in the arena and
        // must not keep its stale order (its quantifiers moved up).
        assert!(g.boxed(view).quants.is_empty());
        assert_eq!(g.boxed(view).join_order, None);
    }

    #[test]
    fn transitive_merge_with_deposited_orders_survives_perfire_lint() {
        // Regression for the fuzzer-found L009: merging a view chain
        // leaves the middle box's stale join order naming a quantifier
        // the next merge removes. PerFire linting must stay clean.
        let mut cat = catalog();
        cat.add_view(
            ViewDef::new(
                "mgrdept",
                vec!["workdept".into()],
                "SELECT workdept FROM mgrsal WHERE salary > 0",
                false,
            )
            .unwrap(),
        )
        .unwrap();
        let mut g = build_qgm(
            &cat,
            &starmagic_sql::parse_query("SELECT workdept FROM mgrdept").unwrap(),
        )
        .unwrap();
        for b in g.box_ids() {
            let foreach: Vec<_> = g
                .boxed(b)
                .quants
                .iter()
                .copied()
                .filter(|&q| g.quant(q).kind.is_foreach())
                .collect();
            if !foreach.is_empty() {
                g.boxed_mut(b).join_order = Some(foreach);
            }
        }
        let reg = OpRegistry::new();
        RewriteEngine::with_check(CheckLevel::PerFire)
            .run(&mut g, &cat, &reg, &[&Merge])
            .unwrap();
        g.garbage_collect(false);
        g.validate().unwrap();
        assert_eq!(g.box_count(), 3);
    }

    #[test]
    fn correlated_subquery_refs_survive_merge() {
        let cat = catalog();
        // The EXISTS subquery correlates to the view's output; merging
        // the view must rewrite the correlated reference.
        let g = run_merge(
            &cat,
            "SELECT m.empno FROM mgrsal m WHERE EXISTS \
             (SELECT 1 FROM project p WHERE p.deptno = m.workdept)",
        );
        g.validate().unwrap();
        let top = g.boxed(g.top());
        // view merged: employee + department + E-quant
        assert_eq!(top.quants.len(), 3);
    }
}
