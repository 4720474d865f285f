//! Cardinality and cost estimation over the query graph.
//!
//! Cardinalities combine base-table statistics with predicate
//! selectivities. Costs model a materialize-each-box-once execution
//! (common subexpressions charged once), with correlated subqueries
//! charged per outer row — the term that makes the plan optimizer
//! prefer the magic-transformed graph when correlation would be
//! expensive, and the original when it would not (§3.2's guarantee).

use std::collections::BTreeMap;

use starmagic_catalog::Catalog;
use starmagic_qgm::{BoxId, BoxKind, DistinctMode, Qgm, ScalarExpr, SetOpKind};

use crate::selectivity::{ndv_of, selectivity};

/// Estimated output rows of a box.
pub fn estimate_box_rows(qgm: &Qgm, catalog: &Catalog, b: BoxId) -> f64 {
    let mut memo = BTreeMap::new();
    rows(qgm, catalog, b, &mut memo, 0)
}

/// [`estimate_box_rows`] of each of `boxes`, by `BoxId::index` (NaN for
/// a box not asked for). `acyclic` says the graph has no cycle: a box's
/// estimate then never reads a cycle-cutting guess, and with no more
/// boxes than an estimate may descend it never hits the depth cut
/// either, so it is the same in any memo and every box shares one.
/// Otherwise each box gets a memo of its own, as in
/// [`estimate_box_rows`].
pub fn estimate_rows_by_box(
    qgm: &Qgm,
    catalog: &Catalog,
    acyclic: bool,
    boxes: impl IntoIterator<Item = BoxId>,
) -> Vec<f64> {
    let shared = acyclic && qgm.box_count() <= MAX_DEPTH + 1;
    let mut memo = BTreeMap::new();
    let mut out = vec![f64::NAN; qgm.box_slots()];
    for b in boxes {
        if !shared {
            memo.clear();
        }
        out[b.index()] = rows(qgm, catalog, b, &mut memo, 0);
    }
    out
}

/// Estimated cost of evaluating the whole graph (each box once, plus
/// per-outer-row charges for correlated subqueries).
pub fn estimate_graph_cost(qgm: &Qgm, catalog: &Catalog) -> f64 {
    let mut rows_memo = BTreeMap::new();
    let mut cost_memo = BTreeMap::new();
    graph_cost(qgm, catalog, qgm.top(), &mut rows_memo, &mut cost_memo, 0)
}

const MAX_DEPTH: usize = 64;

fn rows(
    qgm: &Qgm,
    catalog: &Catalog,
    b: BoxId,
    memo: &mut BTreeMap<BoxId, f64>,
    depth: usize,
) -> f64 {
    if let Some(&r) = memo.get(&b) {
        return r;
    }
    if depth > MAX_DEPTH {
        return 1000.0; // recursion cycle: arbitrary mid-size guess
    }
    // Seed the memo to cut cycles in recursive queries.
    memo.insert(b, 1000.0);
    let qb = qgm.boxed(b);
    let r = match &qb.kind {
        BoxKind::BaseTable { table } => catalog.table(table).map_or(0.0, |t| t.row_count() as f64),
        BoxKind::Select | BoxKind::OuterJoin(_) => {
            let mut card: f64 = 1.0;
            for &q in &qb.quants {
                if qgm.quant(q).kind.is_foreach() {
                    card *= rows(qgm, catalog, qgm.quant(q).input, memo, depth + 1).max(1.0);
                }
            }
            let pred_iter: Box<dyn Iterator<Item = &starmagic_qgm::ScalarExpr>> = match &qb.kind {
                BoxKind::OuterJoin(oj) => Box::new(oj.on.iter()),
                _ => Box::new(qb.predicates.iter()),
            };
            for p in pred_iter {
                card *= selectivity(qgm, catalog, p);
            }
            let card = card.max(0.0);
            if qb.distinct == DistinctMode::Enforce {
                distinct_cap(qgm, catalog, b, card)
            } else {
                card
            }
        }
        BoxKind::GroupBy(g) => {
            let input = rows(qgm, catalog, qgm.quant(qb.quants[0]).input, memo, depth + 1);
            if g.group_keys.is_empty() {
                1.0
            } else {
                let mut groups: f64 = 1.0;
                for k in &g.group_keys {
                    groups *= match k {
                        ScalarExpr::ColRef { quant, col } => {
                            ndv_of(qgm, catalog, *quant, *col).unwrap_or(100.0)
                        }
                        _ => 100.0,
                    };
                }
                groups.min(input).max(if input > 0.0 { 1.0 } else { 0.0 })
            }
        }
        BoxKind::SetOp(s) => {
            let arm_rows: Vec<f64> = qb
                .quants
                .iter()
                .map(|&q| rows(qgm, catalog, qgm.quant(q).input, memo, depth + 1))
                .collect();
            match s.op {
                SetOpKind::Union => arm_rows.iter().sum(),
                SetOpKind::Except => arm_rows.first().copied().unwrap_or(0.0),
                SetOpKind::Intersect => arm_rows.iter().copied().fold(f64::MAX, f64::min),
            }
        }
    };
    memo.insert(b, r);
    r
}

/// Cap the cardinality of a DISTINCT box by the product of its output
/// columns' distinct counts, when known.
fn distinct_cap(qgm: &Qgm, catalog: &Catalog, b: BoxId, card: f64) -> f64 {
    let qb = qgm.boxed(b);
    let mut cap: f64 = 1.0;
    for c in &qb.columns {
        let nd = match &c.expr {
            ScalarExpr::ColRef { quant, col } => ndv_of(qgm, catalog, *quant, *col),
            ScalarExpr::Literal(_) | ScalarExpr::Param(_) => Some(1.0),
            _ => None,
        };
        match nd {
            Some(n) => cap *= n.max(1.0),
            None => return card, // unknown column: no cap
        }
        if cap > card {
            return card;
        }
    }
    cap.min(card)
}

fn graph_cost(
    qgm: &Qgm,
    catalog: &Catalog,
    b: BoxId,
    rows_memo: &mut BTreeMap<BoxId, f64>,
    cost_memo: &mut BTreeMap<BoxId, f64>,
    depth: usize,
) -> f64 {
    if let Some(&c) = cost_memo.get(&b) {
        // Shared box: already charged once; reuse is free (materialized).
        return c * 0.0;
    }
    if depth > MAX_DEPTH {
        return 1e6;
    }
    cost_memo.insert(b, 0.0);
    let qb = qgm.boxed(b);
    let my_rows = rows(qgm, catalog, b, rows_memo, depth);
    let mut cost = 0.0;
    match &qb.kind {
        BoxKind::BaseTable { table } => {
            cost += catalog.table(table).map_or(0.0, |t| t.row_count() as f64);
        }
        BoxKind::OuterJoin(_) => {
            // Both sides once, plus the match work (approximated by
            // the output cardinality).
            for &q in &qb.quants {
                let child = graph_cost(
                    qgm,
                    catalog,
                    qgm.quant(q).input,
                    rows_memo,
                    cost_memo,
                    depth + 1,
                );
                cost += child;
                cost += rows(qgm, catalog, qgm.quant(q).input, rows_memo, depth + 1);
            }
            cost += my_rows;
        }
        BoxKind::Select => {
            // Children first (each charged once).
            for &q in &qb.quants {
                let quant = qgm.quant(q);
                let child = graph_cost(qgm, catalog, quant.input, rows_memo, cost_memo, depth + 1);
                cost += child;
            }
            // Join pipeline cost over the (annotated or FROM) order.
            cost += join_pipeline_cost(qgm, catalog, b, rows_memo, depth);
            // Correlated subquery quantifiers cost per joined row.
            let fjoin_rows = my_rows.max(1.0);
            for &q in &qb.quants {
                let quant = qgm.quant(q);
                if quant.kind.is_foreach() {
                    continue;
                }
                let sub = quant.input;
                if is_correlated_subtree(qgm, sub) {
                    // Re-evaluated per outer row: charge the subquery's
                    // full evaluation cost (fresh memos — nothing is
                    // shared between evaluations) once per row.
                    let mut fresh_rows = BTreeMap::new();
                    let mut fresh_cost = BTreeMap::new();
                    let sub_cost = graph_cost(
                        qgm,
                        catalog,
                        sub,
                        &mut fresh_rows,
                        &mut fresh_cost,
                        depth + 1,
                    );
                    cost += fjoin_rows * sub_cost.max(1.0);
                } else {
                    cost += graph_cost(qgm, catalog, sub, rows_memo, cost_memo, depth + 1);
                    cost += fjoin_rows; // probe cost
                }
            }
            if qb.distinct == DistinctMode::Enforce {
                cost += my_rows;
            }
        }
        BoxKind::GroupBy(_) => {
            let input_q = qb.quants[0];
            let input = qgm.quant(input_q).input;
            cost += graph_cost(qgm, catalog, input, rows_memo, cost_memo, depth + 1);
            cost += rows(qgm, catalog, input, rows_memo, depth + 1); // hashing pass
        }
        BoxKind::SetOp(_) => {
            for &q in &qb.quants {
                let input = qgm.quant(q).input;
                cost += graph_cost(qgm, catalog, input, rows_memo, cost_memo, depth + 1);
                cost += rows(qgm, catalog, input, rows_memo, depth + 1);
            }
        }
    }
    cost_memo.insert(b, cost);
    cost
}

/// Cost of the left-deep join pipeline inside a select box: the sum of
/// intermediate result cardinalities along the box's join order, with
/// predicates applied as early as their quantifiers are available.
pub fn join_pipeline_cost(
    qgm: &Qgm,
    catalog: &Catalog,
    b: BoxId,
    rows_memo: &mut BTreeMap<BoxId, f64>,
    depth: usize,
) -> f64 {
    let order = qgm.join_order(b);
    let qb = qgm.boxed(b);
    let mut bound: Vec<starmagic_qgm::QuantId> = Vec::new();
    let mut card = 1.0;
    let mut cost = 0.0;
    let mut applied = vec![false; qb.predicates.len()];
    for &q in &order {
        let input_rows = rows(qgm, catalog, qgm.quant(q).input, rows_memo, depth + 1).max(1.0);
        card *= input_rows;
        bound.push(q);
        for (i, p) in qb.predicates.iter().enumerate() {
            if applied[i] {
                continue;
            }
            let qs = p.quantifiers();
            let all_bound = qs.iter().all(|x| {
                bound.contains(x) || !qb.quants.contains(x) // correlation: constant
            });
            // Skip predicates that involve subquery quantifiers.
            let references_subquery = qs
                .iter()
                .any(|x| qb.quants.contains(x) && !qgm.quant(*x).kind.is_foreach());
            if all_bound && !references_subquery {
                applied[i] = true;
                card *= selectivity(qgm, catalog, p);
            }
        }
        cost += card.max(1.0);
    }
    cost
}

/// Whether the subquery rooted at `sub` references quantifiers outside
/// its own subtree (correlation into an enclosing box).
pub fn is_correlated_subtree(qgm: &Qgm, sub: BoxId) -> bool {
    let seen = qgm.descendants(sub);
    // Any expression referencing a quantifier whose parent is outside?
    for &x in &seen {
        let qb = qgm.boxed(x);
        let mut exprs: Vec<&ScalarExpr> = qb.predicates.iter().collect();
        exprs.extend(qb.columns.iter().map(|c| &c.expr));
        if let BoxKind::GroupBy(g) = &qb.kind {
            exprs.extend(g.group_keys.iter());
            exprs.extend(g.aggs.iter().filter_map(|a| a.arg.as_ref()));
        }
        for e in exprs {
            for q in e.quantifiers() {
                let parent = qgm.quant(q).parent;
                if !seen.contains(&parent) {
                    return true;
                }
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use starmagic_catalog::generator;
    use starmagic_qgm::build_qgm;

    fn setup(sql_text: &str) -> (Qgm, Catalog) {
        let cat = generator::benchmark_catalog(generator::Scale::small()).unwrap();
        let g = build_qgm(&cat, &starmagic_sql::parse_query(sql_text).unwrap()).unwrap();
        (g, cat)
    }

    #[test]
    fn every_box_estimate_equals_its_own_estimate() {
        for sql in [
            "SELECT e.empno, d.deptname FROM employee e, department d \
             WHERE e.workdept = d.deptno AND d.deptno IN \
             (SELECT workdept FROM employee GROUP BY workdept)",
            "WITH RECURSIVE r (a, b) AS (SELECT empno, workdept FROM employee \
             UNION SELECT r.a, e.workdept FROM r, employee e WHERE e.empno = r.b) \
             SELECT a, b FROM r WHERE a = 1",
        ] {
            let (g, cat) = setup(sql);
            let acyclic = !starmagic_qgm::strata::is_recursive(&g);
            let all = estimate_rows_by_box(&g, &cat, acyclic, g.box_ids());
            for b in g.box_ids() {
                let own = estimate_box_rows(&g, &cat, b);
                assert_eq!(all[b.index()].to_bits(), own.to_bits(), "{b} of {sql}");
            }
        }
    }

    #[test]
    fn base_table_rows_are_exact() {
        let (g, cat) = setup("SELECT empno FROM employee");
        let top = g.boxed(g.top());
        let emp = g.quant(top.quants[0]).input;
        assert_eq!(estimate_box_rows(&g, &cat, emp), 240.0);
    }

    #[test]
    fn equality_filter_shrinks_estimate() {
        let (g, cat) = setup("SELECT empno FROM employee WHERE workdept = 3");
        let r = estimate_box_rows(&g, &cat, g.top());
        assert!((r - 12.0).abs() < 1.0, "240/20 = 12, got {r}");
    }

    #[test]
    fn join_estimate_reflects_selectivity() {
        let (g, cat) =
            setup("SELECT e.empno FROM employee e, department d WHERE e.workdept = d.deptno");
        let r = estimate_box_rows(&g, &cat, g.top());
        // 240 * 20 * (1/20) = 240
        assert!((r - 240.0).abs() < 10.0, "got {r}");
    }

    #[test]
    fn groupby_caps_at_group_count() {
        let (g, cat) = setup("SELECT workdept, AVG(salary) FROM employee GROUP BY workdept");
        let r = estimate_box_rows(&g, &cat, g.top());
        assert!((r - 20.0).abs() < 1.0, "20 departments, got {r}");
    }

    #[test]
    fn global_aggregate_is_one_row() {
        let (g, cat) = setup("SELECT COUNT(*) FROM employee");
        assert_eq!(estimate_box_rows(&g, &cat, g.top()), 1.0);
    }

    #[test]
    fn union_adds() {
        let (g, cat) =
            setup("SELECT deptno FROM department UNION ALL SELECT workdept FROM employee");
        let r = estimate_box_rows(&g, &cat, g.top());
        assert!((r - 260.0).abs() < 1.0, "got {r}");
    }

    #[test]
    fn correlated_subquery_is_detected() {
        let (g, cat) = setup(
            "SELECT e.empno FROM employee e WHERE EXISTS \
             (SELECT 1 FROM department d WHERE d.mgrno = e.empno)",
        );
        let top = g.boxed(g.top());
        let sub = top
            .quants
            .iter()
            .find(|&&q| !g.quant(q).kind.is_foreach())
            .map(|&q| g.quant(q).input)
            .unwrap();
        assert!(is_correlated_subtree(&g, sub));
        let _ = cat;
    }

    #[test]
    fn uncorrelated_subquery_is_detected() {
        let (g, _cat) = setup(
            "SELECT e.empno FROM employee e WHERE e.workdept IN \
             (SELECT deptno FROM department WHERE division = 'Sales')",
        );
        let top = g.boxed(g.top());
        let sub = top
            .quants
            .iter()
            .find(|&&q| !g.quant(q).kind.is_foreach())
            .map(|&q| g.quant(q).input)
            .unwrap();
        assert!(!is_correlated_subtree(&g, sub));
    }

    #[test]
    fn correlated_costs_more_than_uncorrelated() {
        let (g1, cat) = setup(
            "SELECT e.empno FROM employee e WHERE EXISTS \
             (SELECT 1 FROM employee f WHERE f.workdept = e.workdept AND f.salary > e.salary)",
        );
        let (g2, _) = setup(
            "SELECT e.empno FROM employee e WHERE e.workdept IN \
             (SELECT deptno FROM department WHERE division = 'Sales')",
        );
        let c1 = estimate_graph_cost(&g1, &cat);
        let c2 = estimate_graph_cost(&g2, &cat);
        assert!(c1 > c2 * 5.0, "correlated {c1} vs uncorrelated {c2}");
    }

    #[test]
    fn distinct_caps_cardinality() {
        let (g, cat) = setup("SELECT DISTINCT workdept FROM employee");
        let r = estimate_box_rows(&g, &cat, g.top());
        assert!((r - 20.0).abs() < 1.0, "20 distinct depts, got {r}");
    }
}

#[cfg(test)]
mod shape_tests {
    use super::*;
    use starmagic_catalog::{generator, ViewDef};
    use starmagic_qgm::build_qgm;

    fn setup_with_views(sql_text: &str) -> (Qgm, Catalog) {
        let mut cat = generator::benchmark_catalog(generator::Scale::small()).unwrap();
        cat.add_view(
            ViewDef::new(
                "people",
                vec!["no".into(), "dept".into()],
                "SELECT empno, workdept FROM employee \
                       UNION ALL SELECT mgrno, deptno FROM department",
                false,
            )
            .unwrap(),
        )
        .unwrap();
        let g = build_qgm(&cat, &starmagic_sql::parse_query(sql_text).unwrap()).unwrap();
        (g, cat)
    }

    #[test]
    fn union_all_view_cardinality_adds_arms() {
        let (g, cat) = setup_with_views("SELECT no FROM people");
        let r = estimate_box_rows(&g, &cat, g.top());
        assert!((r - 260.0).abs() < 1.0, "240 + 20, got {r}");
    }

    #[test]
    fn outer_join_cardinality_uses_on_selectivity() {
        let (g, cat) = setup_with_views(
            "SELECT d.deptname FROM department d \
             LEFT JOIN project p ON p.deptno = d.deptno",
        );
        let r = estimate_box_rows(&g, &cat, g.top());
        // 20 depts × 60 projects × 1/20 ≈ 60 (padding ignored by the
        // estimate; fine for ordering purposes).
        assert!(r > 10.0 && r < 200.0, "got {r}");
    }

    #[test]
    fn shared_boxes_are_charged_once() {
        let (g, cat) = setup_with_views("SELECT a.no FROM people a, people b WHERE a.no = b.no");
        let cost = estimate_graph_cost(&g, &cat);
        let (g1, _) = setup_with_views("SELECT no FROM people");
        let single = estimate_graph_cost(&g1, &cat);
        // The shared view costs once plus join work, far below 2×
        // joined-view cost plus quadratic terms.
        assert!(cost < single * 20.0, "cost {cost} vs single {single}");
    }

    #[test]
    fn pipeline_cost_prefers_filtered_prefix() {
        let (mut g, cat) = setup_with_views(
            "SELECT e.empno FROM employee e, department d \
             WHERE e.workdept = d.deptno AND d.deptname = 'Planning'",
        );
        let before = {
            let mut memo = std::collections::BTreeMap::new();
            join_pipeline_cost(&g, &cat, g.top(), &mut memo, 0)
        };
        crate::joinorder::annotate_join_orders(&mut g, &cat);
        let after = {
            let mut memo = std::collections::BTreeMap::new();
            join_pipeline_cost(&g, &cat, g.top(), &mut memo, 0)
        };
        assert!(after <= before);
    }
}
