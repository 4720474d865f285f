//! The worklist fixpoint engine.
//!
//! Boxes are solved children-first (post-order from the top box); a
//! box is re-queued whenever the facts of a box it depends on change.
//! Dependencies follow both quantifier edges (`b` ranges over `c`) and
//! correlation edges (an expression in `b` references a quantifier of
//! another box — the facts of *that* quantifier's input matter too).
//!
//! QGM graphs are DAGs today, so the loop normally converges in one
//! sweep; a per-box update budget widens runaway boxes to the
//! conservative element so the engine terminates on any input.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use starmagic_catalog::Catalog;
use starmagic_qgm::keys::KeyTable;
use starmagic_qgm::{BoxId, BoxKind, Qgm, QuantId, ScalarExpr};

use crate::domains::BoxFacts;
use crate::transfer::{transfer, Ctx};

/// Updates allowed per box before its facts are widened to the
/// conservative element (cycle guard; never reached on a DAG).
const WIDEN_AT: usize = 8;

/// Solve the dataflow equations for every box reachable from the top
/// (following quantifier and magic-link edges).
pub fn solve(qgm: &Qgm, catalog: &Catalog) -> BTreeMap<BoxId, BoxFacts> {
    let order = postorder(qgm);
    let deps = dependencies(qgm, &order);
    // Invert: who must be re-solved when b changes.
    let mut dependents: BTreeMap<BoxId, BTreeSet<BoxId>> = BTreeMap::new();
    for (&b, ds) in &deps {
        for &d in ds {
            dependents.entry(d).or_default().insert(b);
        }
    }

    let keys = KeyTable::new(qgm, catalog);
    let mut facts: BTreeMap<BoxId, BoxFacts> = BTreeMap::new();
    let mut updates: BTreeMap<BoxId, usize> = BTreeMap::new();
    let mut queued: BTreeSet<BoxId> = order.iter().copied().collect();
    let mut work: VecDeque<BoxId> = order.iter().copied().collect();

    while let Some(b) = work.pop_front() {
        queued.remove(&b);
        let new = {
            let ctx = Ctx {
                qgm,
                catalog,
                facts: &facts,
                keys: &keys,
            };
            transfer(&ctx, b)
        };
        let count = updates.entry(b).or_insert(0);
        let new = if *count >= WIDEN_AT {
            BoxFacts::conservative(qgm.boxed(b).arity())
        } else {
            new
        };
        if facts.get(&b) != Some(&new) {
            *count += 1;
            facts.insert(b, new);
            if let Some(users) = dependents.get(&b) {
                for &u in users {
                    if queued.insert(u) {
                        work.push_back(u);
                    }
                }
            }
        }
    }
    facts
}

/// Boxes reachable from the top, children before parents, following
/// quantifier inputs and magic links.
pub fn postorder(qgm: &Qgm) -> Vec<BoxId> {
    let mut seen = BTreeSet::new();
    let mut order = Vec::new();
    // Iterative DFS with an explicit visit/emit stack.
    let mut stack = vec![(qgm.top(), false)];
    while let Some((b, emit)) = stack.pop() {
        if emit {
            order.push(b);
            continue;
        }
        if !seen.insert(b) {
            continue;
        }
        stack.push((b, true));
        let qb = qgm.boxed(b);
        let mut children: Vec<BoxId> = qb
            .quants
            .iter()
            .filter(|&&q| qgm.quant_exists(q))
            .map(|&q| qgm.quant(q).input)
            .collect();
        children.extend(
            qb.magic_links
                .iter()
                .copied()
                .filter(|&m| qgm.box_exists(m)),
        );
        for c in children {
            if !seen.contains(&c) {
                stack.push((c, false));
            }
        }
    }
    order
}

/// The boxes whose facts each box's transfer function reads: the
/// inputs of its own quantifiers plus the inputs of every quantifier
/// its expressions reference (correlation edges).
fn dependencies(qgm: &Qgm, order: &[BoxId]) -> BTreeMap<BoxId, BTreeSet<BoxId>> {
    let mut deps: BTreeMap<BoxId, BTreeSet<BoxId>> = BTreeMap::new();
    for &b in order {
        let qb = qgm.boxed(b);
        let mut quants: BTreeSet<QuantId> = qb.quants.iter().copied().collect();
        let mut exprs: Vec<&ScalarExpr> = Vec::new();
        exprs.extend(qb.predicates.iter());
        exprs.extend(qb.columns.iter().map(|c| &c.expr));
        match &qb.kind {
            BoxKind::GroupBy(g) => {
                exprs.extend(g.group_keys.iter());
                exprs.extend(g.aggs.iter().filter_map(|a| a.arg.as_ref()));
            }
            BoxKind::OuterJoin(oj) => exprs.extend(oj.on.iter()),
            _ => {}
        }
        for e in exprs {
            e.walk(&mut |x| {
                if let ScalarExpr::ColRef { quant, .. } | ScalarExpr::Quantified { quant, .. } = x {
                    quants.insert(*quant);
                }
            });
        }
        let entry = deps.entry(b).or_default();
        for q in quants {
            if qgm.quant_exists(q) {
                entry.insert(qgm.quant(q).input);
            }
        }
    }
    deps
}
