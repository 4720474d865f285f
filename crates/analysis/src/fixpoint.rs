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

use std::collections::VecDeque;

use starmagic_catalog::Catalog;
use starmagic_qgm::keys::KeyTable;
use starmagic_qgm::{BoxId, BoxKind, ColSet, Qgm, QuantId, ScalarExpr};

use crate::domains::{BoxFacts, FactTable};
use crate::transfer::{transfer, Ctx};

/// Updates allowed per box before its facts are widened to the
/// conservative element (cycle guard; never reached on a DAG).
const WIDEN_AT: usize = 8;

/// Solve the dataflow equations for every box reachable from the top
/// (following quantifier and magic-link edges).
pub fn solve(qgm: &Qgm, catalog: &Catalog) -> FactTable {
    solve_with(qgm, catalog, &KeyTable::new(qgm, catalog))
}

/// [`solve`], reading the boxes' keys from `keys`, a table over `qgm`.
pub(crate) fn solve_with(qgm: &Qgm, catalog: &Catalog, keys: &KeyTable<'_>) -> FactTable {
    let order = postorder(qgm);
    let dependents = Dependents::new(qgm, &order);
    let mut facts = FactTable::with_slots(qgm.box_slots());
    let mut updates = vec![0usize; qgm.box_slots()];
    // `BoxId::index` of every box in `work`.
    let mut queued: ColSet = order.iter().map(|b| b.index()).collect();
    let mut work: VecDeque<BoxId> = order.iter().copied().collect();

    while let Some(b) = work.pop_front() {
        queued.remove(b.index());
        let new = {
            let ctx = Ctx {
                qgm,
                catalog,
                facts: &facts,
                keys,
            };
            transfer(&ctx, b)
        };
        let count = &mut updates[b.index()];
        let new = if *count >= WIDEN_AT {
            BoxFacts::conservative(qgm.boxed(b).arity())
        } else {
            new
        };
        if facts.get(b) != Some(&new) {
            *count += 1;
            facts.set(b, new);
            for u in dependents.of(b) {
                if queued.insert(u.index()) {
                    work.push_back(u);
                }
            }
        }
    }
    facts
}

/// Boxes reachable from the top over [`Qgm::inputs`], children before
/// parents.
pub fn postorder(qgm: &Qgm) -> Vec<BoxId> {
    // `BoxId::index` of every box pushed for a visit.
    let mut seen = ColSet::new();
    let mut order = Vec::new();
    // Iterative DFS with an explicit visit/emit stack.
    let mut stack = vec![(qgm.top(), false)];
    while let Some((b, emit)) = stack.pop() {
        if emit {
            order.push(b);
            continue;
        }
        if !seen.insert(b.index()) {
            continue;
        }
        stack.push((b, true));
        for (_, c) in qgm.inputs(b) {
            if !seen.contains(c.index()) {
                stack.push((c, false));
            }
        }
    }
    order
}

/// For each box, the boxes whose transfer functions read its facts:
/// the boxes with a quantifier over it, and the boxes whose expressions
/// reference a quantifier over it (correlation edges).
struct Dependents {
    /// `(input, reader)` pairs, sorted and distinct.
    edges: Vec<(BoxId, BoxId)>,
    /// Where each box's pairs start in `edges`, by `BoxId::index`, with
    /// one more entry marking the end.
    start: Vec<usize>,
}

impl Dependents {
    fn new(qgm: &Qgm, order: &[BoxId]) -> Dependents {
        let mut edges: Vec<(BoxId, BoxId)> = Vec::new();
        for &b in order {
            let qb = qgm.boxed(b);
            let first = edges.len();
            let mut read = |q: QuantId| {
                if qgm.quant_exists(q) {
                    let input = qgm.quant(q).input;
                    if !edges[first..].iter().any(|&(i, _)| i == input) {
                        edges.push((input, b));
                    }
                }
            };
            for &q in &qb.quants {
                read(q);
            }
            let mut walk = |e: &ScalarExpr| {
                e.walk(&mut |x| {
                    if let ScalarExpr::ColRef { quant, .. } | ScalarExpr::Quantified { quant, .. } =
                        x
                    {
                        read(*quant);
                    }
                });
            };
            qb.predicates.iter().for_each(&mut walk);
            qb.columns.iter().for_each(|c| walk(&c.expr));
            match &qb.kind {
                BoxKind::GroupBy(g) => {
                    g.group_keys.iter().for_each(&mut walk);
                    g.aggs
                        .iter()
                        .filter_map(|a| a.arg.as_ref())
                        .for_each(&mut walk);
                }
                BoxKind::OuterJoin(oj) => oj.on.iter().for_each(&mut walk),
                _ => {}
            }
        }
        // Each box's readers once, ascending.
        edges.sort_unstable();
        let mut start = vec![0; qgm.box_slots() + 1];
        for &(input, _) in &edges {
            start[input.index() + 1] += 1;
        }
        for i in 1..start.len() {
            start[i] += start[i - 1];
        }
        Dependents { edges, start }
    }

    /// The readers of `b`'s facts, ascending.
    fn of(&self, b: BoxId) -> impl Iterator<Item = BoxId> + '_ {
        self.edges[self.start[b.index()]..self.start[b.index() + 1]]
            .iter()
            .map(|&(_, reader)| reader)
    }
}
