//! Selinger-style join ordering per select box.
//!
//! Left-deep dynamic programming over the Foreach quantifiers of each
//! select box, minimizing the sum of intermediate cardinalities with
//! predicates applied as soon as their quantifiers are bound. Boxes
//! with more than [`DP_LIMIT`] quantifiers fall back to a greedy
//! smallest-next-intermediate heuristic — the "pruning" the paper says
//! real optimizers must keep using (§3.2).
//!
//! A box that closes a recursive cycle (a fixpoint's step arm) is
//! ordered without cross products where a join exists: the cost model
//! prices both its delta and its magic quantifier at one row, and left
//! to itself would join the two unconnected and pay every delta times
//! the whole magic set (see [`best_order`]).
//!
//! The chosen order is deposited on each box (`join_order`), which is
//! exactly the input the EMST rule needs.

use std::collections::BTreeMap;

use starmagic_catalog::Catalog;
use starmagic_qgm::{BoxId, BoxKind, Qgm, QuantId, ScalarExpr};

use crate::cost::estimate_box_rows;
use crate::selectivity::selectivity;

/// Maximum quantifier count for exact DP (2^n subsets).
pub const DP_LIMIT: usize = 14;

/// Annotate every select box in the graph with its optimal left-deep
/// join order.
pub fn annotate_join_orders(qgm: &mut Qgm, catalog: &Catalog) {
    for b in qgm.box_ids() {
        if !matches!(qgm.boxed(b).kind, BoxKind::Select) {
            continue;
        }
        let order = best_order(qgm, catalog, b);
        if !order.is_empty() {
            qgm.boxed_mut(b).join_order = Some(order);
        }
    }
}

/// Compute the best left-deep order for one select box.
pub fn best_order(qgm: &Qgm, catalog: &Catalog, b: BoxId) -> Vec<QuantId> {
    let fquants = qgm.foreach_quants(b);
    let n = fquants.len();
    if n <= 1 {
        return fquants;
    }
    // Input cardinalities and predicate metadata. A cycle-closing
    // quantifier (a step arm's reference back to its recursive union)
    // ranges over the per-iteration *delta* under the semi-naive
    // executor, not the accumulated total — estimate it as a single
    // row so the DP produces delta-driven orders that let the other
    // inputs be index-probed from it. Magic quantifiers get the same
    // treatment: a magic table is a DISTINCT set of bindings, small by
    // construction, and must lead the order so the inputs it restricts
    // are probed rather than scanned (the recursive magic union would
    // otherwise inherit the estimator's cycle-seed guess and sort
    // last).
    let cycle_closing = |q: QuantId| {
        let input = qgm.quant(q).input;
        qgm.boxed(input).is_recursive_union() && qgm.reaches(input, b)
    };
    let cards: Vec<f64> = fquants
        .iter()
        .map(|&q| {
            if qgm.quant(q).is_magic || cycle_closing(q) {
                1.0
            } else {
                estimate_box_rows(qgm, catalog, qgm.quant(q).input).max(1.0)
            }
        })
        .collect();
    let preds: Vec<(u32, f64)> = qgm
        .boxed(b)
        .predicates
        .iter()
        .filter_map(|p| pred_mask(qgm, b, &fquants, p).map(|m| (m, selectivity(qgm, catalog, p))))
        .collect();
    // Both one-row estimates make "delta × magic set" look free; in a
    // step arm it is the cross product of every delta with every
    // binding (on the benchmark's DAG the grown-magic step arm built 1.5 M
    // rows for 8 k step outputs that way). There, a connected input
    // always comes first.
    let connected_first = fquants.iter().any(|&q| cycle_closing(q));

    if n <= DP_LIMIT {
        dp_order(&fquants, &cards, &preds, connected_first)
    } else {
        greedy_order(&fquants, &cards, &preds, connected_first)
    }
}

/// May the partial order `mask` be extended by quantifier `i`? Always,
/// unless `connected_first` holds and `i` shares no predicate with
/// `mask` while some other unplaced quantifier does.
fn may_extend(mask: u32, i: usize, n: usize, preds: &[(u32, f64)], connected_first: bool) -> bool {
    let joins = |i: usize| {
        preds
            .iter()
            .any(|&(pm, _)| pm & (1 << i) != 0 && pm & mask != 0)
    };
    !connected_first || mask == 0 || joins(i) || !(0..n).any(|j| mask & (1 << j) == 0 && joins(j))
}

/// Bitmask of the local Foreach quantifiers a predicate touches, or
/// `None` when the predicate involves a subquery quantifier (those are
/// applied after the join, not during it).
fn pred_mask(qgm: &Qgm, b: BoxId, fquants: &[QuantId], p: &ScalarExpr) -> Option<u32> {
    let mut mask = 0u32;
    for q in p.quantifiers() {
        if let Some(i) = fquants.iter().position(|&x| x == q) {
            mask |= 1 << i;
        } else if qgm.boxed(b).quants.contains(&q) {
            // Subquery quantifier: predicate not usable during the join.
            return None;
        }
        // Correlated quantifier (outside this box): treated as constant.
    }
    Some(mask)
}

/// Cardinality of a subset with all fully-contained predicates applied.
fn subset_card(mask: u32, cards: &[f64], preds: &[(u32, f64)]) -> f64 {
    let mut card = 1.0;
    for (i, &c) in cards.iter().enumerate() {
        if mask & (1 << i) != 0 {
            card *= c;
        }
    }
    for &(pm, sel) in preds {
        if pm != 0 && pm & mask == pm {
            card *= sel;
        }
    }
    card.max(1e-9)
}

fn dp_order(
    fquants: &[QuantId],
    cards: &[f64],
    preds: &[(u32, f64)],
    connected_first: bool,
) -> Vec<QuantId> {
    let n = fquants.len();
    let full = (1u32 << n) - 1;
    // best[mask] = (cost, last, prev_mask)
    let mut best: Vec<Option<(f64, usize, u32)>> = vec![None; (full + 1) as usize];
    for i in 0..n {
        let m = 1u32 << i;
        best[m as usize] = Some((subset_card(m, cards, preds), i, 0));
    }
    for mask in 1..=full {
        let Some((cost_so_far, _, _)) = best[mask as usize] else {
            continue;
        };
        for i in 0..n {
            let bit = 1u32 << i;
            if mask & bit != 0 || !may_extend(mask, i, n, preds, connected_first) {
                continue;
            }
            let next = mask | bit;
            let card = subset_card(next, cards, preds);
            let cost = cost_so_far + card;
            match best[next as usize] {
                Some((c, _, _)) if c <= cost => {}
                _ => best[next as usize] = Some((cost, i, mask)),
            }
        }
    }
    // Reconstruct.
    let mut order_rev = Vec::with_capacity(n);
    let mut mask = full;
    while mask != 0 {
        let (_, last, prev) = best[mask as usize].expect("dp table complete");
        order_rev.push(fquants[last]);
        mask = prev;
    }
    order_rev.reverse();
    order_rev
}

fn greedy_order(
    fquants: &[QuantId],
    cards: &[f64],
    preds: &[(u32, f64)],
    connected_first: bool,
) -> Vec<QuantId> {
    let n = fquants.len();
    let mut remaining: Vec<usize> = (0..n).collect();
    let mut mask = 0u32;
    let mut order = Vec::with_capacity(n);
    while !remaining.is_empty() {
        let (pos, &next) = remaining
            .iter()
            .enumerate()
            .filter(|(_, &i)| may_extend(mask, i, n, preds, connected_first))
            .min_by(|(_, &a), (_, &b)| {
                let ca = subset_card(mask | (1 << a), cards, preds);
                let cb = subset_card(mask | (1 << b), cards, preds);
                ca.total_cmp(&cb)
            })
            .expect("non-empty");
        mask |= 1 << next;
        order.push(fquants[next]);
        remaining.remove(pos);
    }
    order
}

/// The estimated pipeline cost of the box's current join order — used
/// by tests and the two-pass heuristic.
pub fn order_cost(qgm: &Qgm, catalog: &Catalog, b: BoxId) -> f64 {
    let mut memo = BTreeMap::new();
    crate::cost::join_pipeline_cost(qgm, catalog, b, &mut memo, 0)
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
    fn selective_table_goes_first() {
        // department filtered to one name (1 row) must precede employee.
        let (mut g, cat) = setup(
            "SELECT e.empno FROM employee e, department d \
             WHERE e.workdept = d.deptno AND d.deptname = 'Planning'",
        );
        annotate_join_orders(&mut g, &cat);
        let order = g.join_order(g.top());
        assert_eq!(g.quant(order[0]).name, "d");
        assert_eq!(g.quant(order[1]).name, "e");
    }

    #[test]
    fn three_way_join_orders_by_selectivity() {
        let (mut g, cat) = setup(
            "SELECT e.empno FROM employee e, department d, project p \
             WHERE e.workdept = d.deptno AND p.deptno = d.deptno \
             AND d.deptname = 'Planning'",
        );
        annotate_join_orders(&mut g, &cat);
        let order = g.join_order(g.top());
        assert_eq!(order.len(), 3);
        assert_eq!(g.quant(order[0]).name, "d", "filtered table first");
    }

    #[test]
    fn annotated_order_no_worse_than_from_order() {
        let (mut g, cat) = setup(
            "SELECT e.empno FROM employee e, department d \
             WHERE e.workdept = d.deptno AND d.deptname = 'Planning'",
        );
        let before = order_cost(&g, &cat, g.top());
        annotate_join_orders(&mut g, &cat);
        let after = order_cost(&g, &cat, g.top());
        assert!(after <= before + 1e-6, "{after} > {before}");
    }

    #[test]
    fn single_quant_box_gets_trivial_order() {
        let (mut g, cat) = setup("SELECT empno FROM employee");
        annotate_join_orders(&mut g, &cat);
        assert_eq!(g.join_order(g.top()).len(), 1);
    }

    #[test]
    fn greedy_matches_dp_on_small_inputs() {
        let (g, cat) = setup(
            "SELECT e.empno FROM employee e, department d, project p \
             WHERE e.workdept = d.deptno AND p.deptno = d.deptno \
             AND d.deptname = 'Planning'",
        );
        let b = g.top();
        let fquants = g.foreach_quants(b);
        let cards: Vec<f64> = fquants
            .iter()
            .map(|&q| estimate_box_rows(&g, &cat, g.quant(q).input).max(1.0))
            .collect();
        let preds: Vec<(u32, f64)> = g
            .boxed(b)
            .predicates
            .iter()
            .filter_map(|p| pred_mask(&g, b, &fquants, p).map(|m| (m, selectivity(&g, &cat, p))))
            .collect();
        let dp = dp_order(&fquants, &cards, &preds, false);
        let gr = greedy_order(&fquants, &cards, &preds, false);
        // Greedy is a heuristic; on this easy instance it should agree.
        assert_eq!(dp, gr);
    }

    /// The grown-magic step arm `MR m, TC tc, EDGE e` with `m = e.dst`
    /// and `e.src = tc.dst`: magic set and delta both price at one row
    /// and share no predicate.
    #[test]
    fn a_step_arm_joins_its_delta_through_a_connected_input() {
        let quants = [QuantId(0), QuantId(1), QuantId(2)]; // m, tc, e
        let cards = [1.0, 1.0, 1000.0];
        let preds = [(0b101, 0.01), (0b110, 0.01)];
        // Unrestricted, both searches open with the free-looking cross
        // product of the two one-row inputs.
        for order in [
            dp_order(&quants, &cards, &preds, false),
            greedy_order(&quants, &cards, &preds, false),
        ] {
            assert_eq!(order[2], QuantId(2), "{order:?}");
        }
        // Connected first: whichever opens, the edge table comes next.
        for order in [
            dp_order(&quants, &cards, &preds, true),
            greedy_order(&quants, &cards, &preds, true),
        ] {
            assert_eq!(order[1], QuantId(2), "{order:?}");
        }
        // With no join to take, a cross product is still allowed.
        let order = dp_order(&quants, &cards, &[], true);
        assert_eq!(order.len(), 3);
    }

    #[test]
    fn subquery_quantifiers_are_not_ordered() {
        let (mut g, cat) = setup(
            "SELECT e.empno FROM employee e WHERE EXISTS \
             (SELECT 1 FROM department d WHERE d.mgrno = e.empno)",
        );
        annotate_join_orders(&mut g, &cat);
        let order = g.join_order(g.top());
        assert_eq!(order.len(), 1, "only the Foreach quantifier is ordered");
    }
}

#[cfg(test)]
mod scale_tests {
    use super::*;
    use starmagic_common::Value;
    use starmagic_qgm::{BoxKind, OutputCol, QuantKind, ScalarExpr};

    /// Build a star join with `n` copies of department to force the
    /// greedy path (n > DP_LIMIT).
    fn star(n: usize) -> (Qgm, Catalog) {
        let cat = starmagic_catalog::generator::benchmark_catalog(
            starmagic_catalog::generator::Scale::small(),
        )
        .unwrap();
        let mut g = Qgm::new();
        let base = g.add_box(
            "DEPARTMENT",
            BoxKind::BaseTable {
                table: "department".into(),
            },
        );
        g.boxed_mut(base).columns = (0..5)
            .map(|i| OutputCol {
                name: format!("c{i}"),
                expr: ScalarExpr::Literal(Value::Null),
            })
            .collect();
        let top = g.top();
        let mut quants = Vec::new();
        for i in 0..n {
            quants.push(g.add_quant(top, base, QuantKind::Foreach, format!("d{i}")));
        }
        // Chain equalities d0.c0 = d1.c0 = ... and one selective filter.
        for w in quants.windows(2) {
            let p = ScalarExpr::eq(ScalarExpr::col(w[0], 0), ScalarExpr::col(w[1], 0));
            g.boxed_mut(top).predicates.push(p);
        }
        let filt = ScalarExpr::eq(
            ScalarExpr::col(*quants.last().unwrap(), 0),
            ScalarExpr::lit(3i64),
        );
        g.boxed_mut(top).predicates.push(filt);
        g.boxed_mut(top).columns = vec![OutputCol {
            name: "x".into(),
            expr: ScalarExpr::col(quants[0], 0),
        }];
        g.validate().unwrap();
        (g, cat)
    }

    #[test]
    fn greedy_fallback_orders_every_quantifier() {
        let n = DP_LIMIT + 3;
        let (g, cat) = star(n);
        let order = best_order(&g, &cat, g.top());
        assert_eq!(order.len(), n, "all quantifiers ordered");
        // The filtered quantifier should be placed first by greedy.
        let fq = g.foreach_quants(g.top());
        assert_eq!(order[0], *fq.last().unwrap(), "selective scan first");
    }

    #[test]
    fn dp_handles_the_limit_boundary() {
        let (g, cat) = star(DP_LIMIT);
        let order = best_order(&g, &cat, g.top());
        assert_eq!(order.len(), DP_LIMIT);
    }
}
