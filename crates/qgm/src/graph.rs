//! The query graph arena and its mutation helpers.

use std::collections::{BTreeMap, BTreeSet};

use starmagic_common::{Error, Result};

use crate::boxes::{BoxFlavor, BoxKind, DistinctMode, OutputCol, QBox, QuantKind, Quantifier};
use crate::colset::ColSet;
use crate::expr::ScalarExpr;
use crate::ids::{BoxId, QuantId};

/// Why a box depends on another: the two kinds of box-graph edge
/// [`Qgm::inputs`] yields.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Edge {
    /// The box ranges over the input through this quantifier.
    Quantifier(QuantId),
    /// A pending magic link of an adorned copy: the copy will read the
    /// linked magic box once `process_nmq` makes the link a magic
    /// quantifier, so it depends on that box already.
    MagicLink,
}

/// A query graph: arenas of boxes and quantifiers plus the designated
/// top (query) box. Rewrite rules mutate the graph in place; removed
/// boxes leave tombstones that `garbage_collect` reclaims.
#[derive(Debug, Clone)]
pub struct Qgm {
    boxes: Vec<Option<QBox>>,
    quants: Vec<Option<Quantifier>>,
    top: BoxId,
}

impl Qgm {
    /// Create a graph whose top box is a freshly created empty select
    /// box named `QUERY`.
    pub fn new() -> Qgm {
        let mut g = Qgm {
            boxes: Vec::new(),
            quants: Vec::new(),
            top: BoxId(0),
        };
        let top = g.add_box("QUERY", BoxKind::Select);
        g.top = top;
        g
    }

    /// The top (query) box.
    pub fn top(&self) -> BoxId {
        self.top
    }

    /// Redirect the top of the query to another box.
    pub fn set_top(&mut self, b: BoxId) {
        self.top = b;
    }

    // ---- creation ---------------------------------------------------

    /// Add a box with the given name and kind; all other fields start
    /// empty/regular.
    pub fn add_box(&mut self, name: impl Into<String>, kind: BoxKind) -> BoxId {
        let id = BoxId(self.boxes.len() as u32);
        self.boxes.push(Some(QBox {
            id,
            name: name.into(),
            kind,
            flavor: BoxFlavor::Regular,
            quants: Vec::new(),
            predicates: Vec::new(),
            columns: Vec::new(),
            distinct: DistinctMode::Permit,
            adornment: None,
            magic_links: Vec::new(),
            join_order: None,
            magic_processed: false,
            stratum: 0,
        }));
        id
    }

    /// Add a quantifier of `kind` named `name` to box `parent`,
    /// ranging over box `input`. Appended to the parent's FROM order.
    pub fn add_quant(
        &mut self,
        parent: BoxId,
        input: BoxId,
        kind: QuantKind,
        name: impl Into<String>,
    ) -> QuantId {
        let id = QuantId(self.quants.len() as u32);
        self.quants.push(Some(Quantifier {
            id,
            parent,
            input,
            kind,
            name: name.into(),
            is_magic: false,
        }));
        self.boxed_mut(parent).quants.push(id);
        id
    }

    /// Insert a quantifier at a specific position in the parent's
    /// quantifier list (used when magic quantifiers must come first in
    /// the join order).
    pub fn insert_quant_at(
        &mut self,
        parent: BoxId,
        position: usize,
        input: BoxId,
        kind: QuantKind,
        name: impl Into<String>,
    ) -> QuantId {
        let id = self.add_quant(parent, input, kind, name);
        let quants = &mut self.boxed_mut(parent).quants;
        let popped = quants.pop().expect("just pushed");
        quants.insert(position.min(quants.len()), popped);
        id
    }

    // ---- accessors --------------------------------------------------

    /// Immutable access to a box. Panics on a dangling id (engine bug).
    pub fn boxed(&self, id: BoxId) -> &QBox {
        self.boxes[id.index()]
            .as_ref()
            .unwrap_or_else(|| panic!("dangling box id {id}"))
    }

    /// Mutable access to a box.
    pub fn boxed_mut(&mut self, id: BoxId) -> &mut QBox {
        self.boxes[id.index()]
            .as_mut()
            .unwrap_or_else(|| panic!("dangling box id {id}"))
    }

    /// Whether a box id is still live.
    pub fn box_exists(&self, id: BoxId) -> bool {
        self.boxes.get(id.index()).is_some_and(Option::is_some)
    }

    /// Immutable access to a quantifier.
    pub fn quant(&self, id: QuantId) -> &Quantifier {
        self.quants[id.index()]
            .as_ref()
            .unwrap_or_else(|| panic!("dangling quantifier id {id}"))
    }

    /// Mutable access to a quantifier.
    pub fn quant_mut(&mut self, id: QuantId) -> &mut Quantifier {
        self.quants[id.index()]
            .as_mut()
            .unwrap_or_else(|| panic!("dangling quantifier id {id}"))
    }

    /// Whether a quantifier id is still live.
    pub fn quant_exists(&self, id: QuantId) -> bool {
        self.quants.get(id.index()).is_some_and(Option::is_some)
    }

    /// All live quantifier ids, ascending.
    pub fn quant_ids(&self) -> Vec<QuantId> {
        self.quants
            .iter()
            .enumerate()
            .filter_map(|(i, q)| q.as_ref().map(|_| QuantId(i as u32)))
            .collect()
    }

    /// All live box ids, ascending.
    pub fn box_ids(&self) -> Vec<BoxId> {
        self.boxes
            .iter()
            .enumerate()
            .filter_map(|(i, b)| b.as_ref().map(|_| BoxId(i as u32)))
            .collect()
    }

    /// One past the highest box id ever allocated: every `BoxId` of this
    /// graph indexes a table this long.
    pub fn box_slots(&self) -> usize {
        self.boxes.len()
    }

    /// Number of live boxes — "the number of boxes determines the
    /// complexity of the query".
    pub fn box_count(&self) -> usize {
        self.boxes.iter().filter(|b| b.is_some()).count()
    }

    /// Quantifiers (in any box) that range over the given box.
    pub fn users(&self, b: BoxId) -> Vec<QuantId> {
        self.quants
            .iter()
            .flatten()
            .filter(|q| q.input == b)
            .map(|q| q.id)
            .collect()
    }

    /// The Foreach quantifiers of a box, in FROM order.
    pub fn foreach_quants(&self, b: BoxId) -> Vec<QuantId> {
        self.boxed(b)
            .quants
            .iter()
            .copied()
            .filter(|&q| self.quant(q).kind.is_foreach())
            .collect()
    }

    /// The join order of a select box: the planner-deposited order if
    /// present, otherwise FROM order. Only Foreach quantifiers.
    /// Foreach quantifiers missing from a stale deposited order (e.g.
    /// added by a rewrite after planning) are prepended — magic
    /// quantifiers belong at the front — so the executor always binds
    /// every quantifier.
    pub fn join_order(&self, b: BoxId) -> Vec<QuantId> {
        match &self.boxed(b).join_order {
            Some(order) => {
                let mut result: Vec<QuantId> = Vec::new();
                for &q in &self.boxed(b).quants {
                    if self.quant(q).kind.is_foreach() && !order.contains(&q) {
                        result.push(q);
                    }
                }
                // Drop anything a rewrite left behind that is not a
                // live Foreach quantifier of this box.
                result.extend(order.iter().copied().filter(|&q| {
                    self.quants
                        .get(q.index())
                        .and_then(Option::as_ref)
                        .is_some_and(|quant| quant.parent == b && quant.kind.is_foreach())
                }));
                result
            }
            None => self.foreach_quants(b),
        }
    }

    // ---- mutation helpers -------------------------------------------

    /// Point quantifier `q` at a different input box.
    pub fn retarget(&mut self, q: QuantId, new_input: BoxId) {
        self.quant_mut(q).input = new_input;
    }

    /// Remove a quantifier from its parent box (and tombstone it).
    /// The caller must have already rewritten expressions that
    /// referenced it.
    pub fn remove_quant(&mut self, q: QuantId) {
        let parent = self.quant(q).parent;
        let b = self.boxed_mut(parent);
        b.quants.retain(|&x| x != q);
        if let Some(order) = &mut b.join_order {
            order.retain(|&x| x != q);
        }
        self.quants[q.index()] = None;
    }

    /// Copy a box: same kind/flavor/predicates/columns/distinct, fresh
    /// quantifiers ranging over the *same* input boxes. Own-quantifier
    /// references in predicates and output columns are remapped to the
    /// fresh quantifiers; correlated references are left untouched.
    /// Returns the new box id and the old→new quantifier mapping.
    pub fn copy_box(
        &mut self,
        src: BoxId,
        name: impl Into<String>,
    ) -> (BoxId, BTreeMap<QuantId, QuantId>) {
        let old = self.boxed(src).clone();
        let new_id = self.add_box(name, old.kind.clone());
        let mut map: BTreeMap<QuantId, QuantId> = BTreeMap::new();
        for &q in &old.quants {
            let oq = self.quant(q).clone();
            let nq = self.add_quant(new_id, oq.input, oq.kind, oq.name.clone());
            self.quant_mut(nq).is_magic = oq.is_magic;
            map.insert(q, nq);
        }
        let remap = |e: &ScalarExpr, map: &BTreeMap<QuantId, QuantId>| e.remap_quants(map);
        let new_predicates = old.predicates.iter().map(|p| remap(p, &map)).collect();
        let new_columns = old
            .columns
            .iter()
            .map(|c| OutputCol {
                name: c.name.clone(),
                expr: remap(&c.expr, &map),
            })
            .collect();
        let new_kind = match &old.kind {
            BoxKind::GroupBy(g) => {
                let mut g2 = g.clone();
                for k in &mut g2.group_keys {
                    *k = remap(k, &map);
                }
                for a in &mut g2.aggs {
                    if let Some(arg) = &mut a.arg {
                        *arg = remap(arg, &map);
                    }
                }
                BoxKind::GroupBy(g2)
            }
            BoxKind::OuterJoin(oj) => {
                let mut o2 = oj.clone();
                for p in &mut o2.on {
                    *p = remap(p, &map);
                }
                BoxKind::OuterJoin(o2)
            }
            other => other.clone(),
        };
        let new_join_order = old
            .join_order
            .as_ref()
            .map(|o| o.iter().map(|q| *map.get(q).unwrap_or(q)).collect());
        {
            let nb = self.boxed_mut(new_id);
            nb.kind = new_kind;
            nb.flavor = old.flavor;
            nb.predicates = new_predicates;
            nb.columns = new_columns;
            nb.distinct = old.distinct;
            nb.adornment = old.adornment.clone();
            nb.join_order = new_join_order;
            nb.stratum = old.stratum;
        }
        (new_id, map)
    }

    /// Translate an expression over box `b`'s output columns into the
    /// producer's frame: every `ColRef{quant: user_quant, col}` becomes
    /// the column expression of `b`. Used by merge and pushdown.
    pub fn inline_through(&self, expr: &ScalarExpr, user_quant: QuantId) -> ScalarExpr {
        let input = self.quant(user_quant).input;
        expr.map_colrefs(&mut |q, c| {
            if q == user_quant {
                self.boxed(input).columns[c].expr.clone()
            } else {
                ScalarExpr::ColRef { quant: q, col: c }
            }
        })
    }

    /// Replace every reference `ColRef{quant: q, col: i}` anywhere in
    /// the graph with `exprs[i]`. Used by the merge rule: after the
    /// producer box's quantifiers move into the consumer, references to
    /// the consumed quantifier are rewritten to the producer's column
    /// expressions (which are already in the new frame).
    pub fn substitute_quant_global(&mut self, q: QuantId, exprs: &[ScalarExpr]) {
        let subst = |e: &ScalarExpr| {
            e.map_colrefs(&mut |quant, col| {
                if quant == q {
                    exprs[col].clone()
                } else {
                    ScalarExpr::ColRef { quant, col }
                }
            })
        };
        for i in 0..self.boxes.len() {
            let Some(b) = self.boxes[i].as_mut() else {
                continue;
            };
            for p in &mut b.predicates {
                *p = subst(p);
            }
            for c in &mut b.columns {
                c.expr = subst(&c.expr);
            }
            if let BoxKind::GroupBy(g) = &mut b.kind {
                for k in &mut g.group_keys {
                    *k = subst(k);
                }
                for a in &mut g.aggs {
                    if let Some(arg) = &mut a.arg {
                        *arg = subst(arg);
                    }
                }
            }
        }
    }

    /// How many boxes hold a magic link to `b`.
    pub fn link_users(&self, b: BoxId) -> usize {
        self.boxes
            .iter()
            .flatten()
            .filter(|qb| qb.magic_links.contains(&b))
            .count()
    }

    // ---- edges -------------------------------------------------------

    /// The boxes `b` depends on: its quantifiers' inputs in FROM order,
    /// then its pending magic links. Dead quantifiers and dead boxes are
    /// skipped, since the lint and the analysis read broken graphs.
    /// Every walk of the box graph is built on this one definition.
    pub fn inputs(&self, b: BoxId) -> impl Iterator<Item = (Edge, BoxId)> + '_ {
        let qb = self.boxed(b);
        let quants = qb.quants.iter().filter_map(|&q| {
            let quant = self.quants.get(q.index())?.as_ref()?;
            Some((Edge::Quantifier(q), quant.input))
        });
        let links = qb.magic_links.iter().map(|&m| (Edge::MagicLink, m));
        quants
            .chain(links)
            .filter(|&(_, input)| self.box_exists(input))
    }

    /// Whether `to` is reachable from `from` over both kinds of edge;
    /// every box reaches itself.
    pub fn reaches(&self, from: BoxId, to: BoxId) -> bool {
        let mut seen = ColSet::new();
        let mut stack = vec![from];
        while let Some(x) = stack.pop() {
            if x == to {
                return true;
            }
            if seen.insert(x.index()) {
                stack.extend(self.inputs(x).map(|(_, input)| input));
            }
        }
        false
    }

    /// `b` and every box below it through quantifiers: the scope of
    /// correlated references. Quantifier nesting is scope, so magic
    /// links are not followed.
    pub fn descendants(&self, b: BoxId) -> BTreeSet<BoxId> {
        let mut seen = BTreeSet::new();
        let mut stack = vec![b];
        while let Some(x) = stack.pop() {
            if seen.insert(x) {
                stack.extend(
                    self.inputs(x)
                        .filter(|&(edge, _)| edge != Edge::MagicLink)
                        .map(|(_, input)| input),
                );
            }
        }
        seen
    }

    /// Every box reachable from the top, parents before children: a
    /// depth-first walk taking each box's inputs in [`Qgm::inputs`]
    /// order. The rewrite engine offers boxes to its rules in this
    /// order, and the printers print them in it.
    pub fn preorder(&self) -> Vec<BoxId> {
        let mut seen = ColSet::new();
        let mut order = Vec::new();
        let mut stack = vec![self.top];
        while let Some(b) = stack.pop() {
            if !seen.insert(b.index()) {
                continue;
            }
            order.push(b);
            // Pushed in reverse, the inputs pop in order.
            let at = stack.len();
            stack.extend(self.inputs(b).map(|(_, input)| input));
            stack[at..].reverse();
        }
        order
    }

    /// The boxes garbage collection keeps: reachable from the top over
    /// quantifier edges, over correlated references (a box referencing
    /// another box's quantifier keeps that quantifier's input alive)
    /// and, when `links`, over magic links.
    pub fn live_boxes(&self, links: bool) -> BTreeSet<BoxId> {
        let mut live = BTreeSet::new();
        let mut stack = vec![self.top];
        while let Some(b) = stack.pop() {
            if !self.box_exists(b) || !live.insert(b) {
                continue;
            }
            stack.extend(
                self.inputs(b)
                    .filter(|&(edge, _)| links || edge != Edge::MagicLink)
                    .map(|(_, input)| input),
            );
            let qb = self.boxed(b);
            let exprs = qb
                .predicates
                .iter()
                .chain(qb.columns.iter().map(|c| &c.expr));
            for q in exprs.flat_map(ScalarExpr::quantifiers) {
                if let Some(Some(quant)) = self.quants.get(q.index()) {
                    stack.push(quant.input);
                }
            }
        }
        live
    }

    // ---- garbage collection ------------------------------------------

    /// Drop boxes unreachable from the top box ([`Qgm::live_boxes`]).
    /// When `keep_links` is true, magic-box links count as edges (needed
    /// while EMST is still running); final cleanup passes `false` and
    /// also clears the links.
    pub fn garbage_collect(&mut self, keep_links: bool) {
        let live = self.live_boxes(keep_links);
        for i in 0..self.boxes.len() {
            let id = BoxId(i as u32);
            if self.boxes[i].is_some() && !live.contains(&id) {
                self.boxes[i] = None;
            }
        }
        // Tombstone quantifiers of dead boxes and prune dead links.
        for i in 0..self.quants.len() {
            if let Some(q) = &self.quants[i] {
                if !live.contains(&q.parent) {
                    self.quants[i] = None;
                }
            }
        }
        for b in self.boxes.iter_mut().flatten() {
            if keep_links {
                b.magic_links.retain(|m| live.contains(m));
            } else {
                b.magic_links.clear();
            }
        }
    }

    // ---- validation ---------------------------------------------------

    /// Structural validation: every referenced id is live, output
    /// column offsets are in range, group-by boxes have exactly one
    /// Foreach quantifier, set-op operands agree on arity, and
    /// expressions reference only quantifiers that are in scope
    /// (own or correlated-but-live).
    pub fn validate(&self) -> Result<()> {
        for id in self.box_ids() {
            let b = self.boxed(id);
            for &q in &b.quants {
                let quant = self
                    .quants
                    .get(q.index())
                    .and_then(Option::as_ref)
                    .ok_or_else(|| Error::internal(format!("{id} has dangling quant {q}")))?;
                if quant.parent != id {
                    return Err(Error::internal(format!(
                        "{q} parent mismatch: listed in {id}, claims {}",
                        quant.parent
                    )));
                }
                if !self.box_exists(quant.input) {
                    return Err(Error::internal(format!("{q} ranges over dead box")));
                }
            }
            let check_expr = |e: &ScalarExpr| -> Result<()> {
                let mut err = None;
                e.walk(&mut |sub| {
                    if let ScalarExpr::ColRef { quant, col } = sub {
                        match self.quants.get(quant.index()).and_then(Option::as_ref) {
                            None => err = Some(format!("expr references dead quant {quant}")),
                            Some(q) => {
                                if !self.box_exists(q.input) {
                                    err = Some(format!("{quant} input box is dead"));
                                } else if *col >= self.boxed(q.input).arity() {
                                    err = Some(format!(
                                        "column {col} out of range for {quant} over {}",
                                        self.boxed(q.input).name
                                    ));
                                }
                            }
                        }
                    }
                    if let ScalarExpr::Quantified { quant, .. } = sub {
                        if self
                            .quants
                            .get(quant.index())
                            .and_then(Option::as_ref)
                            .is_none()
                        {
                            err = Some(format!("quantified test over dead quant {quant}"));
                        }
                    }
                });
                err.map_or(Ok(()), |m| Err(Error::internal(m)))
            };
            for p in &b.predicates {
                check_expr(p)?;
            }
            for c in &b.columns {
                check_expr(&c.expr)?;
            }
            if let Some(order) = &b.join_order {
                for &q in order {
                    if self
                        .quants
                        .get(q.index())
                        .and_then(Option::as_ref)
                        .is_none()
                    {
                        return Err(Error::internal(format!(
                            "join order of {} references dead quant {q}",
                            b.name
                        )));
                    }
                }
            }
            for &m in &b.magic_links {
                if !self.box_exists(m) {
                    return Err(Error::internal(format!(
                        "{} holds a magic link to dead box {m}",
                        b.name
                    )));
                }
            }
            match &b.kind {
                BoxKind::GroupBy(g) => {
                    let f = self.foreach_quants(id);
                    if f.len() != 1 {
                        return Err(Error::internal(format!(
                            "group-by box {} must have exactly one input, has {}",
                            b.name,
                            f.len()
                        )));
                    }
                    for k in &g.group_keys {
                        check_expr(k)?;
                    }
                    for a in &g.aggs {
                        if let Some(arg) = &a.arg {
                            check_expr(arg)?;
                        }
                    }
                }
                BoxKind::SetOp(_) => {
                    let arity = b.arity();
                    for &q in &b.quants {
                        let input = self.quant(q).input;
                        if self.boxed(input).arity() != arity {
                            return Err(Error::internal(format!(
                                "set-op box {} operand arity mismatch",
                                b.name
                            )));
                        }
                    }
                }
                BoxKind::BaseTable { .. } => {
                    if !b.quants.is_empty() {
                        return Err(Error::internal(format!(
                            "base table box {} must not contain quantifiers",
                            b.name
                        )));
                    }
                }
                BoxKind::OuterJoin(oj) => {
                    if self.foreach_quants(id).len() != 2 {
                        return Err(Error::internal(format!(
                            "outer-join box {} must have exactly two inputs",
                            b.name
                        )));
                    }
                    for p in &oj.on {
                        check_expr(p)?;
                    }
                }
                BoxKind::Select => {}
            }
        }
        if !self.box_exists(self.top) {
            return Err(Error::internal("top box is dead"));
        }
        Ok(())
    }
}

impl Default for Qgm {
    fn default() -> Qgm {
        Qgm::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use starmagic_sql::BinOp;

    /// Build a tiny graph: top SELECT over base table `t(a, b)`.
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
        (g, base, q)
    }

    #[test]
    fn edges_are_quantifiers_then_links_over_live_ids() {
        let mut g = Qgm::new();
        let top = g.top();
        let t = g.add_box("T", BoxKind::BaseTable { table: "t".into() });
        let m = g.add_box("M", BoxKind::Select);
        g.add_quant(m, t, QuantKind::Foreach, "t");
        let gone = g.add_box("GONE", BoxKind::Select);
        // Links set before any quantifier still come after them.
        g.boxed_mut(top).magic_links = vec![m, gone];
        let q = g.add_quant(top, m, QuantKind::Foreach, "m");
        let dead = g.add_quant(top, gone, QuantKind::Foreach, "g");
        // Dead ids a broken graph still lists are skipped.
        g.quants[dead.index()] = None;
        g.boxes[gone.index()] = None;
        let inputs: Vec<(Edge, BoxId)> = g.inputs(top).collect();
        assert_eq!(inputs, [(Edge::Quantifier(q), m), (Edge::MagicLink, m)]);

        // The only path from the top to X is a magic link: reachable,
        // live while links count, but outside the top's scope.
        let x = g.add_box("X", BoxKind::Select);
        g.boxed_mut(top).magic_links.push(x);
        assert!(g.reaches(top, x));
        assert!(!g.reaches(x, top));
        assert_eq!(g.descendants(top), BTreeSet::from([top, m, t]));
        assert_eq!(g.preorder(), [top, m, t, x]);
        assert!(g.live_boxes(true).contains(&x));
        assert!(!g.live_boxes(false).contains(&x));
    }

    #[test]
    fn build_and_validate_tiny_graph() {
        let (g, base, q) = tiny();
        g.validate().unwrap();
        assert_eq!(g.box_count(), 2);
        assert_eq!(g.users(base), vec![q]);
        assert_eq!(g.foreach_quants(g.top()), vec![q]);
    }

    #[test]
    fn validate_catches_out_of_range_column() {
        let (mut g, _, q) = tiny();
        let top = g.top();
        g.boxed_mut(top).predicates.push(ScalarExpr::col(q, 9));
        assert!(g.validate().is_err());
    }

    #[test]
    fn validate_catches_arity_mismatch_in_setop() {
        let (mut g, base, _) = tiny();
        let u = g.add_box(
            "U",
            BoxKind::SetOp(crate::boxes::SetOpBox {
                op: starmagic_sql::SetOpKind::Union,
                all: false,
            }),
        );
        g.add_quant(u, base, QuantKind::Foreach, "x");
        g.boxed_mut(u).columns = vec![]; // arity 0 != operand arity 2
        let top = g.top();
        g.add_quant(top, u, QuantKind::Foreach, "u");
        assert!(g.validate().is_err());
    }

    #[test]
    fn copy_box_remaps_own_refs_only() {
        let (mut g, base, q) = tiny();
        let top = g.top();
        g.boxed_mut(top).predicates.push(ScalarExpr::bin(
            BinOp::Gt,
            ScalarExpr::col(q, 1),
            ScalarExpr::lit(5i64),
        ));
        let (copy, map) = g.copy_box(top, "COPY");
        let nq = map[&q];
        assert_ne!(nq, q);
        assert_eq!(g.quant(nq).input, base);
        // The copy's predicate references the new quantifier.
        assert!(g.boxed(copy).predicates[0].references(nq));
        assert!(!g.boxed(copy).predicates[0].references(q));
        // The original still references the old one.
        assert!(g.boxed(top).predicates[0].references(q));
        g.validate().unwrap();
    }

    #[test]
    fn gc_removes_unreachable() {
        let (mut g, _, _) = tiny();
        let orphan = g.add_box("ORPHAN", BoxKind::Select);
        assert_eq!(g.box_count(), 3);
        g.garbage_collect(false);
        assert_eq!(g.box_count(), 2);
        assert!(!g.box_exists(orphan));
        g.validate().unwrap();
    }

    #[test]
    fn gc_keeps_linked_magic_when_requested() {
        let (mut g, _, _) = tiny();
        let magic = g.add_box("M", BoxKind::Select);
        let top = g.top();
        g.boxed_mut(top).magic_links.push(magic);
        g.garbage_collect(true);
        assert!(g.box_exists(magic));
        g.garbage_collect(false);
        assert!(!g.box_exists(magic));
    }

    #[test]
    fn insert_quant_at_front() {
        let (mut g, base, q0) = tiny();
        let top = g.top();
        let q1 = g.insert_quant_at(top, 0, base, QuantKind::Foreach, "m");
        assert_eq!(g.boxed(top).quants, vec![q1, q0]);
    }

    #[test]
    fn remove_quant_cleans_join_order() {
        let (mut g, base, q0) = tiny();
        let top = g.top();
        let q1 = g.add_quant(top, base, QuantKind::Foreach, "t2");
        g.boxed_mut(top).join_order = Some(vec![q1, q0]);
        g.remove_quant(q1);
        assert_eq!(g.join_order(top), vec![q0]);
        assert_eq!(g.boxed(top).quants, vec![q0]);
    }

    #[test]
    fn inline_through_substitutes_producer_exprs() {
        let (mut g, base, q) = tiny();
        // Wrap base in a view box V with output col = t.b
        let v = g.add_box("V", BoxKind::Select);
        let vq = g.add_quant(v, base, QuantKind::Foreach, "t");
        g.boxed_mut(v).columns = vec![OutputCol {
            name: "bb".into(),
            expr: ScalarExpr::col(vq, 1),
        }];
        let top = g.top();
        let uq = g.add_quant(top, v, QuantKind::Foreach, "v");
        let pred = ScalarExpr::bin(BinOp::Eq, ScalarExpr::col(uq, 0), ScalarExpr::col(q, 0));
        let inlined = g.inline_through(&pred, uq);
        // uq.0 became vq.1; q.0 untouched.
        assert_eq!(
            inlined,
            ScalarExpr::bin(BinOp::Eq, ScalarExpr::col(vq, 1), ScalarExpr::col(q, 0))
        );
    }

    #[test]
    fn join_order_defaults_to_from_order() {
        let (g, _, q) = tiny();
        assert_eq!(g.join_order(g.top()), vec![q]);
    }
}

#[cfg(test)]
mod mutation_tests {
    use super::*;
    use crate::boxes::{BoxKind, OutputCol, QuantKind};
    use starmagic_sql::BinOp;

    fn two_table_graph() -> (Qgm, BoxId, QuantId, QuantId) {
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
        let top = g.top();
        let q1 = g.add_quant(top, base, QuantKind::Foreach, "x");
        let q2 = g.add_quant(top, base, QuantKind::Foreach, "y");
        g.boxed_mut(top).columns = vec![OutputCol {
            name: "a".into(),
            expr: ScalarExpr::col(q1, 0),
        }];
        (g, base, q1, q2)
    }

    #[test]
    fn substitute_quant_global_rewrites_everywhere() {
        let (mut g, _base, q1, q2) = two_table_graph();
        let top = g.top();
        g.boxed_mut(top).predicates.push(ScalarExpr::bin(
            BinOp::Eq,
            ScalarExpr::col(q1, 0),
            ScalarExpr::col(q2, 1),
        ));
        let subst = vec![ScalarExpr::col(q2, 0), ScalarExpr::col(q2, 1)];
        g.substitute_quant_global(q1, &subst);
        // Both the predicate and the output column now reference q2.
        assert!(!g.boxed(top).predicates[0].references(q1));
        assert!(g.boxed(top).predicates[0].references(q2));
        assert!(!g.boxed(top).columns[0].expr.references(q1));
    }

    #[test]
    fn link_users_counts_only_linking_boxes() {
        let (mut g, base, _, _) = two_table_graph();
        assert_eq!(g.link_users(base), 0);
        let top = g.top();
        g.boxed_mut(top).magic_links.push(base);
        assert_eq!(g.link_users(base), 1);
    }

    #[test]
    fn join_order_drops_foreign_and_dead_entries() {
        let (mut g, base, q1, q2) = two_table_graph();
        let top = g.top();
        // A stale order containing a quantifier that no longer exists
        // in this box and missing q2.
        let other_box = g.add_box("O", BoxKind::Select);
        let foreign = g.add_quant(other_box, base, QuantKind::Foreach, "z");
        g.boxed_mut(top).join_order = Some(vec![q1, foreign]);
        let order = g.join_order(top);
        assert_eq!(order, vec![q2, q1], "q2 prepended, foreign dropped");
    }

    #[test]
    fn copy_box_preserves_flavor_and_distinct() {
        let (mut g, _base, _, _) = two_table_graph();
        let top = g.top();
        g.boxed_mut(top).flavor = crate::boxes::BoxFlavor::Magic;
        g.boxed_mut(top).distinct = crate::boxes::DistinctMode::Enforce;
        let (copy, _) = g.copy_box(top, "C");
        assert_eq!(g.boxed(copy).flavor, crate::boxes::BoxFlavor::Magic);
        assert_eq!(g.boxed(copy).distinct, crate::boxes::DistinctMode::Enforce);
        assert!(!g.boxed(copy).magic_processed, "copies are unprocessed");
    }

    #[test]
    fn validate_rejects_quantifier_listed_twice() {
        let (mut g, _base, q1, _) = two_table_graph();
        let top = g.top();
        let dup = q1;
        g.boxed_mut(top).quants.push(dup);
        // Quantifier appears twice in the same box: parent check still
        // passes, but execution semantics are fine (self cross join);
        // validation allows it — just assert no panic.
        let _ = g.validate();
    }
}
