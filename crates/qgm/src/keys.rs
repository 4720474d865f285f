//! Duplicate-freeness and key inference.
//!
//! The distinct-pullup rewrite rule (and phase 3's ability to merge the
//! magic boxes away, Example 4.1) depends on proving that a box cannot
//! produce duplicate rows: "we inferred, in phase 2, that duplicates
//! were guaranteed to be absent from the magic tables". The inference
//! here is conservative and purely structural:
//!
//! * a base table is duplicate-free on its declared primary key;
//! * a select box joining duplicate-free inputs has, as a key, the
//!   union of one key per Foreach quantifier (E/A/scalar quantifiers
//!   never multiply rows); a key member equated to another column by a
//!   top-level join conjunct may map through that column instead;
//! * a group-by box is keyed by its group columns;
//! * a non-ALL set operation is keyed by the whole row;
//! * a column pinned to a constant ([`ScalarExpr::is_constant`]) drops
//!   out of a key: a select's by a top-level equality, a union's when
//!   every arm pins it to one same constant;
//! * a box with `DistinctMode::Enforce`/`Preserve` is keyed by the
//!   whole row.
//!
//! This module is the one place that derives a box's constant columns
//! ([`KeyTable::const_outputs`]) and the equality classes of its
//! conjuncts ([`equality_classes`]); the static analysis reads both
//! from here rather than deriving its own.
//!
//! Every column set here is a [`ColSet`]: a key is a set of output
//! offsets, and inside a join the `(quantifier, input column)` terms of
//! its Foreach quantifiers are numbered densely ([`Terms`]) so that key
//! candidates, equality classes and constant columns are sets too.

use std::borrow::Cow;
use std::cell::OnceCell;
use std::ops::Range;

use starmagic_catalog::Catalog;
use starmagic_sql::SetOpKind;

use crate::boxes::{BoxKind, DistinctMode, GroupByBox, QuantKind};
use crate::colset::{ColSet, Terms};
use crate::expr::ScalarExpr;
use crate::graph::Qgm;
use crate::ids::{BoxId, QuantId};
use crate::strata::{self, Strata};

/// Maximum number of candidate keys tracked per box, to bound the
/// combinatorial growth across joins.
const MAX_KEYS: usize = 4;

/// Candidate keys of a box's *output*, as sets of output-column
/// offsets. The empty set is a valid key (at most one row, e.g. a
/// global aggregate). An empty `Vec` means "no key known".
pub fn output_keys(qgm: &Qgm, catalog: &Catalog, b: BoxId) -> Vec<ColSet> {
    Walk::new(qgm, catalog, None).keys(b).into_owned()
}

/// Whether the box's output is provably duplicate-free.
pub fn is_dup_free(qgm: &Qgm, catalog: &Catalog, b: BoxId) -> bool {
    !output_keys(qgm, catalog, b).is_empty()
}

/// The output keys and constant columns of every box of one graph,
/// each derived at most once — what one analysis solve or one lint run
/// asks for, box after box.
///
/// On an acyclic graph the walk behind [`output_keys`] never cuts a
/// path, so a box's keys and constant columns do not depend on who
/// asks: each is computed once and every later ask, and every parent's
/// derivation, reads it from the table. On a cyclic graph the path cut
/// makes a nested result depend on the path it was reached by, so
/// nothing nested is shared: each box's answer is a fresh walk of its
/// own, and only that answer is kept. Either way `keys(b)` equals
/// `output_keys(qgm, catalog, b)`.
///
/// The table is only valid for the graph as it was borrowed; rewrite
/// rules, which mutate the graph between asks, call [`output_keys`].
pub struct KeyTable<'a> {
    qgm: &'a Qgm,
    catalog: &'a Catalog,
    acyclic: bool,
    /// Indexed by `BoxId::index`.
    slots: Vec<Slot>,
}

/// One box's derivations, each made on the first ask.
#[derive(Default)]
struct Slot {
    keys: OnceCell<Vec<ColSet>>,
    consts: OnceCell<ColSet>,
}

impl<'a> KeyTable<'a> {
    pub fn new(qgm: &'a Qgm, catalog: &'a Catalog) -> KeyTable<'a> {
        KeyTable::with_acyclic(qgm, catalog, !strata::is_recursive(qgm))
    }

    /// [`KeyTable::new`] for a graph whose strata were already computed:
    /// whether it has a cycle is read off their SCCs instead of found
    /// again.
    pub fn for_strata(qgm: &'a Qgm, catalog: &'a Catalog, strata: &Strata) -> KeyTable<'a> {
        KeyTable::with_acyclic(qgm, catalog, !strata.is_recursive(qgm))
    }

    fn with_acyclic(qgm: &'a Qgm, catalog: &'a Catalog, acyclic: bool) -> KeyTable<'a> {
        KeyTable {
            qgm,
            catalog,
            acyclic,
            slots: (0..qgm.box_slots()).map(|_| Slot::default()).collect(),
        }
    }

    /// Whether the graph has no cycle, so that every derivation is
    /// shared.
    pub fn is_acyclic(&self) -> bool {
        self.acyclic
    }

    /// [`output_keys`] of `b`.
    pub fn keys(&self, b: BoxId) -> &[ColSet] {
        self.slots[b.index()].keys.get_or_init(|| {
            if self.acyclic {
                keys_inner(
                    self.qgm,
                    self.catalog,
                    b,
                    self.qgm.boxed(b).distinct,
                    &mut Memo(self),
                )
            } else {
                output_keys(self.qgm, self.catalog, b)
            }
        })
    }

    /// The keys `b` would have with its distinct mode set to `mode` and
    /// the rest of the graph as it is: what [`output_keys`] returns on a
    /// copy of the graph with that one mode changed. The duplicates
    /// lint re-proves a `Preserve` claim this way, with the claim
    /// itself set aside.
    pub fn keys_with_mode(&self, b: BoxId, mode: DistinctMode) -> Vec<ColSet> {
        if self.acyclic {
            // No child reaches `b`, so the children's keys are the
            // table's whatever `b`'s mode is.
            keys_inner(self.qgm, self.catalog, b, mode, &mut Memo(self))
        } else {
            Walk::new(self.qgm, self.catalog, Some((b, mode)))
                .keys(b)
                .into_owned()
        }
    }

    /// Output-column offsets of `b` provably holding the same value in
    /// every row, derived as key inference derives them.
    pub fn const_outputs(&self, b: BoxId) -> &ColSet {
        self.slots[b.index()].consts.get_or_init(|| {
            if self.acyclic {
                const_outputs_inner(self.qgm, b, &mut Memo(self))
            } else {
                // Through a cycle the memo would re-enter this cell.
                Walk::new(self.qgm, self.catalog, None)
                    .const_outputs(b)
                    .into_owned()
            }
        })
    }
}

/// Where key inference finds the keys and constant columns of the boxes
/// below the one it is deriving.
trait Inputs {
    fn keys(&mut self, b: BoxId) -> Cow<'_, [ColSet]>;
    fn const_outputs(&mut self, b: BoxId) -> Cow<'_, ColSet>;
}

/// A fresh depth-first walk that cuts every path returning to a box it
/// is already inside (a recursive cycle claims nothing), optionally
/// seeing one box under another distinct mode.
struct Walk<'a> {
    qgm: &'a Qgm,
    catalog: &'a Catalog,
    /// `BoxId::index` of every box on the current path.
    visiting: ColSet,
    mode: Option<(BoxId, DistinctMode)>,
}

impl<'a> Walk<'a> {
    fn new(qgm: &'a Qgm, catalog: &'a Catalog, mode: Option<(BoxId, DistinctMode)>) -> Walk<'a> {
        Walk {
            qgm,
            catalog,
            visiting: ColSet::new(),
            mode,
        }
    }
}

impl Inputs for Walk<'_> {
    fn keys(&mut self, b: BoxId) -> Cow<'_, [ColSet]> {
        if !self.visiting.insert(b.index()) {
            // Recursive cycle: claim nothing.
            return Cow::Owned(Vec::new());
        }
        let distinct = match self.mode {
            Some((m, mode)) if m == b => mode,
            _ => self.qgm.boxed(b).distinct,
        };
        let result = keys_inner(self.qgm, self.catalog, b, distinct, self);
        self.visiting.remove(b.index());
        Cow::Owned(result)
    }

    fn const_outputs(&mut self, b: BoxId) -> Cow<'_, ColSet> {
        if !self.visiting.insert(b.index()) {
            return Cow::Owned(ColSet::new());
        }
        let out = const_outputs_inner(self.qgm, b, self);
        self.visiting.remove(b.index());
        Cow::Owned(out)
    }
}

/// Inputs read from (and filled into) a [`KeyTable`] of an acyclic
/// graph.
struct Memo<'t, 'a>(&'t KeyTable<'a>);

impl Inputs for Memo<'_, '_> {
    fn keys(&mut self, b: BoxId) -> Cow<'_, [ColSet]> {
        Cow::Borrowed(self.0.keys(b))
    }

    fn const_outputs(&mut self, b: BoxId) -> Cow<'_, ColSet> {
        Cow::Borrowed(self.0.const_outputs(b))
    }
}

/// The keys of box `b` seen under `distinct`, its inputs' keys and
/// constants taken from `inputs`.
fn keys_inner(
    qgm: &Qgm,
    catalog: &Catalog,
    b: BoxId,
    distinct: DistinctMode,
    inputs: &mut impl Inputs,
) -> Vec<ColSet> {
    let qb = qgm.boxed(b);
    let mut keys: Vec<ColSet> = Vec::new();

    match &qb.kind {
        BoxKind::BaseTable { table } => {
            if let Ok(t) = catalog.table(table) {
                if let Some(key) = &t.schema().key {
                    keys.push(key.iter().copied().collect());
                }
            }
        }
        BoxKind::GroupBy(g) => {
            // Output columns are group keys first, then aggregates; the
            // group keys are a key of the output. Keys pinned to a
            // constant in the input drop out. Zero (non-constant) group
            // keys ⇒ single-row output ⇒ the empty set is a key.
            let const_keys = const_group_keys(qgm, b, g, inputs);
            keys.push(
                (0..g.group_keys.len())
                    .filter(|&i| !const_keys.contains(i))
                    .collect(),
            );
        }
        BoxKind::SetOp(s) => {
            if !s.all {
                keys.push((0..qb.arity()).collect());
            }
        }
        BoxKind::Select | BoxKind::OuterJoin(_) => {
            // One key from each Foreach quantifier's input; the union,
            // mapped through the output columns, keys the join output.
            if let Some(join) = Join::new(qgm, b, inputs) {
                let n = join.sides.len();
                if n <= 8 {
                    // Smallest subsets first (ascending bit patterns
                    // within a size) so minimal keys surface before the
                    // MAX_KEYS truncation.
                    for size in 0..=n {
                        for mask in 0u32..1 << n {
                            if mask.count_ones() as usize != size {
                                continue;
                            }
                            let r: ColSet = (0..n).filter(|i| mask >> i & 1 == 1).collect();
                            if join.covers(&r) {
                                join.extend_keys(&r, &mut keys);
                            }
                        }
                    }
                } else {
                    // Past 8 quants only the full set is tried (no
                    // pinning, the pre-equivalence rule).
                    join.extend_keys(&(0..n).collect(), &mut keys);
                }
            }
        }
    }

    // Dedup enforcement (or prior inference) keys the whole row.
    if matches!(distinct, DistinctMode::Enforce | DistinctMode::Preserve)
        && !matches!(qb.kind, BoxKind::BaseTable { .. })
    {
        keys.push((0..qb.arity()).collect());
    }

    // Minimize: drop keys that are supersets of other keys; dedupe.
    keys.sort_by_key(ColSet::len);
    let mut kept = 0;
    for i in 0..keys.len() {
        if !keys[..kept].iter().any(|m| m.is_subset(&keys[i])) {
            keys.swap(kept, i);
            kept += 1;
            if kept >= MAX_KEYS {
                break;
            }
        }
    }
    keys.truncate(kept);
    keys
}

/// At most MAX_KEYS column sets, held inline: an input's keys, or the
/// combinations key inference builds from them.
#[derive(Default)]
struct Few {
    sets: [ColSet; MAX_KEYS],
    len: usize,
}

impl Few {
    /// Add `set`; whether there is room for another.
    fn push(&mut self, set: ColSet) -> bool {
        self.sets[self.len] = set;
        self.len += 1;
        self.len < MAX_KEYS
    }

    fn as_slice(&self) -> &[ColSet] {
        &self.sets[..self.len]
    }

    fn one_empty() -> Few {
        let mut few = Few::default();
        few.push(ColSet::new());
        few
    }

    /// Every set extended by every option, in that order, up to
    /// MAX_KEYS results.
    fn fan_out<T>(
        &self,
        options: impl Iterator<Item = T> + Clone,
        extend: impl Fn(&mut ColSet, T),
    ) -> Few {
        let mut out = Few::default();
        for base in self.as_slice() {
            for option in options.clone() {
                let mut merged = base.clone();
                extend(&mut merged, option);
                if !out.push(merged) {
                    return out;
                }
            }
        }
        out
    }
}

/// One Foreach quantifier of a join: its input's keys as sets of the
/// join's terms, and the run of its columns among them.
struct Side {
    quant: QuantId,
    keys: Few,
    cols: Range<usize>,
}

/// What key inference knows about a select or outer-join box whose
/// Foreach inputs all have keys: the quantifiers in box order with their
/// inputs' keys, and (plain selects only — an outer join's NULL-padded
/// rows are not filtered by its predicate) the equality classes and
/// constant terms of its top-level conjuncts: a key member may map
/// through any equivalent column, and a constant member drops out of the
/// key.
struct Join<'q> {
    qgm: &'q Qgm,
    b: BoxId,
    terms: Terms,
    sides: Vec<Side>,
    classes: Vec<ColSet>,
    consts: ColSet,
}

impl<'q> Join<'q> {
    /// `None` when some Foreach input has no key: then the join has
    /// none either.
    fn new(qgm: &'q Qgm, b: BoxId, inputs: &mut impl Inputs) -> Option<Join<'q>> {
        let qb = qgm.boxed(b);
        let mut terms = Terms::default();
        let mut sides = Vec::new();
        for &q in &qb.quants {
            if qgm.quant(q).kind != QuantKind::Foreach {
                continue;
            }
            let input = qgm.quant(q).input;
            let mut keys = Few::default();
            let mut width = qgm.boxed(input).arity();
            for k in inputs.keys(input).iter() {
                width = width.max(k.iter().last().map_or(0, |c| c + 1));
                keys.push(k.clone());
            }
            if keys.len == 0 {
                return None;
            }
            terms.push(q, width);
            sides.push(Side {
                quant: q,
                keys,
                cols: 0..0,
            });
        }
        // A key's members fan out in ascending (quantifier, column)
        // order below.
        terms.sort();
        for side in &mut sides {
            side.cols = terms.columns(side.quant).expect("every side is laid out");
            let start = side.cols.start;
            for k in &mut side.keys.sets[..side.keys.len] {
                *k = k.iter().map(|c| start + c).collect();
            }
        }
        let (classes, consts) = if matches!(qb.kind, BoxKind::Select) {
            select_equalities(qgm, b, &terms, inputs)
        } else {
            (Vec::new(), ColSet::new())
        };
        Some(Join {
            qgm,
            b,
            terms,
            sides,
            classes,
            consts,
        })
    }

    /// Whether the quantifiers at positions `r` key the join alone:
    /// every quantifier outside `r` is transitively *pinned* by `r` —
    /// some key of it is entirely constant or equated to columns of
    /// quantifiers already accounted for, so it joins at most one row
    /// per valuation of `r` (the magic-join shape — the magic table's
    /// whole-row key is equated to the adorned subquery's binding
    /// columns).
    fn covers(&self, r: &ColSet) -> bool {
        let mut have = r.clone();
        let mut have_terms = ColSet::new();
        for i in r {
            have_terms.extend(self.sides[i].cols.clone());
        }
        while let Some(i) =
            (0..self.sides.len()).find(|&i| !have.contains(i) && self.pinned(i, &have_terms))
        {
            have.insert(i);
            have_terms.extend(self.sides[i].cols.clone());
        }
        have.len() == self.sides.len()
    }

    /// Whether some key of the quantifier at position `i` is entirely
    /// constant or equated to `have` terms.
    fn pinned(&self, i: usize, have: &ColSet) -> bool {
        self.sides[i].keys.as_slice().iter().any(|k| {
            k.iter().all(|m| {
                self.consts.contains(m)
                    || self
                        .classes
                        .iter()
                        .any(|cls| cls.contains(m) && cls.intersects(have))
            })
        })
    }

    /// The keys the quantifiers at positions `r` give the join: one key
    /// of each, combined (truncated to MAX_KEYS) and mapped through the
    /// output columns — every non-constant member must appear as a plain
    /// column reference, or as one of its equivalents. A member with
    /// several images fans out into several keys.
    fn extend_keys(&self, r: &ColSet, keys: &mut Vec<ColSet>) {
        let mut combos = Few::one_empty();
        for i in r {
            combos = combos.fan_out(self.sides[i].keys.as_slice().iter(), |base, key| {
                base.union_with(key);
            });
        }
        let columns = &self.qgm.boxed(self.b).columns;
        'combo: for combo in combos.as_slice() {
            let mut offsets = Few::one_empty();
            for m in combo {
                if self.consts.contains(m) {
                    continue;
                }
                let class = self.classes.iter().find(|s| s.contains(m));
                let images: ColSet = columns
                    .iter()
                    .enumerate()
                    .filter_map(|(off, oc)| {
                        let ScalarExpr::ColRef { quant, col } = &oc.expr else {
                            return None;
                        };
                        let out = self.terms.index(*quant, *col)?;
                        (out == m || class.is_some_and(|s| s.contains(out))).then_some(off)
                    })
                    .collect();
                if images.is_empty() {
                    continue 'combo;
                }
                offsets = offsets.fan_out(images.iter(), |base, img| {
                    base.insert(img);
                });
            }
            keys.extend_from_slice(offsets.as_slice());
        }
    }
}

/// The column-equivalence classes of box `b`'s top-level `a = b`
/// conjuncts between two columns laid out in `terms`: disjoint sets of
/// `terms`, each holding columns equal (and non-NULL) on every row the
/// conjuncts keep. Key inference lays out a select's Foreach
/// quantifiers (conjuncts touching E/A quants carry quantified
/// semantics instead of filtering rows); the analysis lays out every
/// quantifier a conjunct reads, correlated ones included.
pub fn equality_classes(qgm: &Qgm, b: BoxId, terms: &Terms) -> Vec<ColSet> {
    let mut classes: Vec<ColSet> = Vec::new();
    for p in &qgm.boxed(b).predicates {
        let Some((
            ScalarExpr::ColRef { quant: ql, col: cl },
            ScalarExpr::ColRef { quant: qr, col: cr },
        )) = p.as_equality()
        else {
            continue;
        };
        let (Some(a), Some(bb)) = (terms.index(*ql, *cl), terms.index(*qr, *cr)) else {
            continue;
        };
        let mut merged: ColSet = [a, bb].into_iter().collect();
        classes.retain(|s| {
            let apart = !s.contains(a) && !s.contains(bb);
            if !apart {
                merged.union_with(s);
            }
            apart
        });
        classes.push(merged);
    }
    classes
}

/// A select box's [`equality_classes`] over `terms`, which lays out its
/// Foreach quantifiers, and its terms provably constant across all
/// surviving rows: equated to a constant by a top-level conjunct,
/// constant in the quantifier's input, or in a class with either.
/// Constant columns never contribute multiplicity, so they drop out of
/// candidate keys.
fn select_equalities(
    qgm: &Qgm,
    b: BoxId,
    terms: &Terms,
    inputs: &mut impl Inputs,
) -> (Vec<ColSet>, ColSet) {
    let qb = qgm.boxed(b);
    let classes = equality_classes(qgm, b, terms);
    let mut consts: ColSet = qb
        .predicates
        .iter()
        .filter_map(|p| match p.as_equality() {
            Some(
                (ScalarExpr::ColRef { quant, col }, k) | (k, ScalarExpr::ColRef { quant, col }),
            ) if k.is_constant() => terms.index(*quant, *col),
            _ => None,
        })
        .collect();
    for &q in &qb.quants {
        let Some(cols) = terms.columns(q) else {
            continue;
        };
        for c in inputs.const_outputs(qgm.quant(q).input).iter() {
            if c < cols.len() {
                consts.insert(cols.start + c);
            }
        }
    }
    for cls in &classes {
        if cls.intersects(&consts) {
            consts.union_with(cls);
        }
    }
    (classes, consts)
}

/// Output-column offsets of a box provably holding the same value in
/// every row. Conservative: selects and group-bys propagate constancy,
/// a union only where every arm pins the column to one same constant
/// (an outer join NULL-pads).
fn const_outputs_inner(qgm: &Qgm, b: BoxId, inputs: &mut impl Inputs) -> ColSet {
    let qb = qgm.boxed(b);
    match &qb.kind {
        BoxKind::SetOp(s) if s.op == SetOpKind::Union => (0..qb.arity())
            .filter(|&i| {
                let pins: Vec<Vec<&ScalarExpr>> = qb
                    .quants
                    .iter()
                    .map(|&aq| pinned_constants(qgm, qgm.quant(aq).input, i))
                    .collect();
                pins.first().is_some_and(|first| {
                    first
                        .iter()
                        .any(|c| pins[1..].iter().all(|arm| arm.contains(c)))
                })
            })
            .collect(),
        BoxKind::BaseTable { .. } | BoxKind::SetOp(_) | BoxKind::OuterJoin(_) => ColSet::new(),
        BoxKind::GroupBy(g) => const_group_keys(qgm, b, g, inputs),
        BoxKind::Select => {
            let mut terms = Terms::default();
            for &q in &qb.quants {
                if qgm.quant(q).kind == QuantKind::Foreach {
                    terms.push(q, qgm.boxed(qgm.quant(q).input).arity());
                }
            }
            let (_, consts) = select_equalities(qgm, b, &terms, inputs);
            qb.columns
                .iter()
                .enumerate()
                .filter(|(_, oc)| match &oc.expr {
                    ScalarExpr::ColRef { quant, col } => terms
                        .index(*quant, *col)
                        .is_some_and(|t| consts.contains(t)),
                    e => e.is_constant(),
                })
                .map(|(i, _)| i)
                .collect()
        }
    }
}

/// The constants select box `x` pins output column `col` to: its
/// output expression, or each top-level equality between that
/// expression and a constant. (A local pushdown through a union leaves
/// `col = c` in every arm, and the union's consumer then keeps knowing
/// the column is constant.)
fn pinned_constants(qgm: &Qgm, x: BoxId, col: usize) -> Vec<&ScalarExpr> {
    let xb = qgm.boxed(x);
    let Some(out) = xb.columns.get(col).map(|c| &c.expr) else {
        return Vec::new();
    };
    if !matches!(xb.kind, BoxKind::Select) {
        return Vec::new();
    }
    if out.is_constant() {
        return vec![out];
    }
    xb.predicates
        .iter()
        .filter_map(|p| match p.as_equality()? {
            (l, r) if l == out && r.is_constant() => Some(r),
            (l, r) if r == out && l.is_constant() => Some(l),
            _ => None,
        })
        .collect()
}

/// Group-key output offsets whose grouping expression is a constant or
/// a column constant in the input — every group shares that value, and
/// with *all* group keys constant there is at most one group.
fn const_group_keys(qgm: &Qgm, b: BoxId, g: &GroupByBox, inputs: &mut impl Inputs) -> ColSet {
    let mut out: ColSet = g
        .group_keys
        .iter()
        .enumerate()
        .filter(|(_, k)| k.is_constant())
        .map(|(i, _)| i)
        .collect();
    for &q in &qgm.boxed(b).quants {
        if qgm.quant(q).kind != QuantKind::Foreach {
            continue;
        }
        let consts = inputs.const_outputs(qgm.quant(q).input);
        for (i, k) in g.group_keys.iter().enumerate() {
            if matches!(k, ScalarExpr::ColRef { quant, col } if *quant == q && consts.contains(*col))
            {
                out.insert(i);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::boxes::{BoxKind, GroupByBox, OutputCol, QuantKind};
    use starmagic_catalog::{ColumnDef, Table, TableSchema};
    use starmagic_common::DataType;

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.add_table(Table::new(
            TableSchema::new(
                "dept",
                vec![
                    ColumnDef::new("deptno", DataType::Int),
                    ColumnDef::new("deptname", DataType::Str),
                ],
            )
            .with_key(&["deptno"])
            .unwrap(),
        ))
        .unwrap();
        c.add_table(Table::new(TableSchema::new(
            "log",
            vec![ColumnDef::new("msg", DataType::Str)],
        )))
        .unwrap();
        c
    }

    fn base_box(g: &mut Qgm, name: &str, cols: &[&str]) -> BoxId {
        let b = g.add_box(
            name.to_uppercase(),
            BoxKind::BaseTable { table: name.into() },
        );
        g.boxed_mut(b).columns = cols
            .iter()
            .map(|c| OutputCol {
                name: (*c).into(),
                expr: ScalarExpr::lit(0i64),
            })
            .collect();
        b
    }

    #[test]
    fn base_table_key_comes_from_catalog() {
        let cat = catalog();
        let mut g = Qgm::new();
        let d = base_box(&mut g, "dept", &["deptno", "deptname"]);
        let keys = output_keys(&g, &cat, d);
        assert_eq!(keys, vec![[0usize].into_iter().collect::<ColSet>()]);
        assert!(is_dup_free(&g, &cat, d));
    }

    #[test]
    fn keyless_table_is_not_dup_free() {
        let cat = catalog();
        let mut g = Qgm::new();
        let l = base_box(&mut g, "log", &["msg"]);
        assert!(!is_dup_free(&g, &cat, l));
    }

    #[test]
    fn select_preserving_key_is_dup_free() {
        // sm_query := SELECT deptno, deptname FROM dept WHERE ... —
        // the paper's supplementary box; key deptno survives.
        let cat = catalog();
        let mut g = Qgm::new();
        let d = base_box(&mut g, "dept", &["deptno", "deptname"]);
        let sm = g.add_box("SM_QUERY", BoxKind::Select);
        let q = g.add_quant(sm, d, QuantKind::Foreach, "d");
        g.boxed_mut(sm).columns = vec![
            OutputCol {
                name: "deptno".into(),
                expr: ScalarExpr::col(q, 0),
            },
            OutputCol {
                name: "deptname".into(),
                expr: ScalarExpr::col(q, 1),
            },
        ];
        assert!(is_dup_free(&g, &cat, sm));
        // Projecting the key away loses it.
        let sm2 = g.add_box("SM2", BoxKind::Select);
        let q2 = g.add_quant(sm2, d, QuantKind::Foreach, "d");
        g.boxed_mut(sm2).columns = vec![OutputCol {
            name: "deptname".into(),
            expr: ScalarExpr::col(q2, 1),
        }];
        assert!(!is_dup_free(&g, &cat, sm2));
    }

    #[test]
    fn projection_of_key_through_two_levels() {
        // m := SELECT deptno FROM sm (sm dup-free with key deptno)
        let cat = catalog();
        let mut g = Qgm::new();
        let d = base_box(&mut g, "dept", &["deptno", "deptname"]);
        let sm = g.add_box("SM", BoxKind::Select);
        let q = g.add_quant(sm, d, QuantKind::Foreach, "d");
        g.boxed_mut(sm).columns = vec![
            OutputCol {
                name: "deptno".into(),
                expr: ScalarExpr::col(q, 0),
            },
            OutputCol {
                name: "deptname".into(),
                expr: ScalarExpr::col(q, 1),
            },
        ];
        let m = g.add_box("M", BoxKind::Select);
        let mq = g.add_quant(m, sm, QuantKind::Foreach, "sm");
        g.boxed_mut(m).columns = vec![OutputCol {
            name: "deptno".into(),
            expr: ScalarExpr::col(mq, 0),
        }];
        assert!(is_dup_free(&g, &cat, m), "paper's phase-2 inference");
    }

    #[test]
    fn group_by_keyed_by_group_cols() {
        let cat = catalog();
        let mut g = Qgm::new();
        let d = base_box(&mut g, "dept", &["deptno", "deptname"]);
        let gb = g.add_box(
            "G",
            BoxKind::GroupBy(GroupByBox {
                group_keys: vec![],
                aggs: vec![],
            }),
        );
        let q = g.add_quant(gb, d, QuantKind::Foreach, "d");
        if let BoxKind::GroupBy(spec) = &mut g.boxed_mut(gb).kind {
            spec.group_keys = vec![ScalarExpr::col(q, 1)];
        }
        g.boxed_mut(gb).columns = vec![OutputCol {
            name: "deptname".into(),
            expr: ScalarExpr::col(q, 1),
        }];
        let keys = output_keys(&g, &cat, gb);
        assert!(keys.contains(&[0usize].into_iter().collect()));
    }

    #[test]
    fn join_union_of_keys() {
        let cat = catalog();
        let mut g = Qgm::new();
        let d1 = base_box(&mut g, "dept", &["deptno", "deptname"]);
        let j = g.add_box("J", BoxKind::Select);
        let qa = g.add_quant(j, d1, QuantKind::Foreach, "a");
        let qb = g.add_quant(j, d1, QuantKind::Foreach, "b");
        g.boxed_mut(j).columns = vec![
            OutputCol {
                name: "a_no".into(),
                expr: ScalarExpr::col(qa, 0),
            },
            OutputCol {
                name: "b_no".into(),
                expr: ScalarExpr::col(qb, 0),
            },
        ];
        assert!(is_dup_free(&g, &cat, j));
        // Dropping one side's key breaks it.
        g.boxed_mut(j).columns.pop();
        assert!(!is_dup_free(&g, &cat, j));
    }

    #[test]
    fn equijoin_substitutes_unprojected_key_member() {
        // The magic-join shape after `extend_with_union`: m ranges over
        // a whole-row-keyed magic union, joins `m.deptno = g.deptno`,
        // and only g's column is projected. The conjunct makes the two
        // columns interchangeable, so the output is still keyed.
        let cat = catalog();
        let mut g = Qgm::new();
        let d = base_box(&mut g, "dept", &["deptno", "deptname"]);
        let j = g.add_box("J", BoxKind::Select);
        let qa = g.add_quant(j, d, QuantKind::Foreach, "m");
        let qb = g.add_quant(j, d, QuantKind::Foreach, "g");
        g.boxed_mut(j).predicates = vec![ScalarExpr::eq(
            ScalarExpr::col(qa, 0),
            ScalarExpr::col(qb, 0),
        )];
        g.boxed_mut(j).columns = vec![OutputCol {
            name: "deptno".into(),
            expr: ScalarExpr::col(qb, 0),
        }];
        assert!(is_dup_free(&g, &cat, j), "m.deptno maps through g.deptno");
        // Without the conjunct the combo member has no image.
        g.boxed_mut(j).predicates.clear();
        assert!(!is_dup_free(&g, &cat, j));
    }

    #[test]
    fn pinned_quant_is_dropped_from_join_key() {
        // sm := a ⋈ b on a.deptno = b.deptno, projecting both sides of
        // the equality — keyed by either column alone.
        let cat = catalog();
        let mut g = Qgm::new();
        let d = base_box(&mut g, "dept", &["deptno", "deptname"]);
        let sm = g.add_box("SM", BoxKind::Select);
        let qa = g.add_quant(sm, d, QuantKind::Foreach, "a");
        let qb = g.add_quant(sm, d, QuantKind::Foreach, "b");
        g.boxed_mut(sm).predicates = vec![ScalarExpr::eq(
            ScalarExpr::col(qa, 0),
            ScalarExpr::col(qb, 0),
        )];
        g.boxed_mut(sm).columns = vec![
            OutputCol {
                name: "w".into(),
                expr: ScalarExpr::col(qa, 0),
            },
            OutputCol {
                name: "d".into(),
                expr: ScalarExpr::col(qb, 0),
            },
        ];
        let keys = output_keys(&g, &cat, sm);
        assert!(keys.contains(&[0usize].into_iter().collect()));
        assert!(keys.contains(&[1usize].into_iter().collect()));
        // j := sm ⋈ t on sm.w = t.deptno, projecting only sm.d. The t
        // quant's whole key is pinned to sm.w, so it joins at most one
        // row per sm row and drops out; sm's `d` key carries through
        // even though the pinning column is not projected.
        let j = g.add_box("J", BoxKind::Select);
        let qsm = g.add_quant(j, sm, QuantKind::Foreach, "sm");
        let qt = g.add_quant(j, d, QuantKind::Foreach, "t");
        g.boxed_mut(j).predicates = vec![ScalarExpr::eq(
            ScalarExpr::col(qsm, 0),
            ScalarExpr::col(qt, 0),
        )];
        g.boxed_mut(j).columns = vec![OutputCol {
            name: "c0".into(),
            expr: ScalarExpr::col(qsm, 1),
        }];
        assert!(is_dup_free(&g, &cat, j), "pinned t drops from the key");
    }

    #[test]
    fn key_members_fan_out_in_quantifier_id_order() {
        // Each side's key column is projected twice, so each member has
        // two images and the keys fan out; FROM lists b before a. The
        // fan-out follows quantifier ids (a first), whatever the FROM
        // order, and fixes which keys survive MAX_KEYS.
        let cat = catalog();
        let mut g = Qgm::new();
        let d = base_box(&mut g, "dept", &["deptno", "deptname"]);
        let j = g.add_box("J", BoxKind::Select);
        let qa = g.add_quant(j, d, QuantKind::Foreach, "a");
        let qb = g.add_quant(j, d, QuantKind::Foreach, "b");
        g.boxed_mut(j).quants.reverse();
        g.boxed_mut(j).columns = [qa, qa, qb, qb]
            .iter()
            .enumerate()
            .map(|(i, &q)| OutputCol {
                name: format!("c{i}"),
                expr: ScalarExpr::col(q, 0),
            })
            .collect();
        let keys: Vec<Vec<usize>> = output_keys(&g, &cat, j)
            .iter()
            .map(|k| k.iter().collect())
            .collect();
        assert_eq!(keys, [[0, 2], [0, 3], [1, 2], [1, 3]]);
    }

    #[test]
    fn constant_bound_key_member_drops_out() {
        // a.deptno = 0 pins a to at most one row, so b's key alone
        // keys the join even though a.deptno is not projected.
        let cat = catalog();
        let mut g = Qgm::new();
        let d = base_box(&mut g, "dept", &["deptno", "deptname"]);
        let j = g.add_box("J", BoxKind::Select);
        let qa = g.add_quant(j, d, QuantKind::Foreach, "a");
        let qb = g.add_quant(j, d, QuantKind::Foreach, "b");
        g.boxed_mut(j).predicates = vec![ScalarExpr::eq(
            ScalarExpr::col(qa, 0),
            ScalarExpr::lit(0i64),
        )];
        g.boxed_mut(j).columns = vec![OutputCol {
            name: "b_no".into(),
            expr: ScalarExpr::col(qb, 0),
        }];
        assert!(is_dup_free(&g, &cat, j));
        // `-1` reaches the graph as a negated literal, and pins alike.
        g.boxed_mut(j).predicates = vec![ScalarExpr::eq(
            ScalarExpr::col(qa, 0),
            ScalarExpr::Neg(Box::new(ScalarExpr::lit(1i64))),
        )];
        assert!(is_dup_free(&g, &cat, j));
        g.boxed_mut(j).predicates.clear();
        assert!(!is_dup_free(&g, &cat, j));
    }

    #[test]
    fn union_column_pinned_alike_in_every_arm_is_constant() {
        // q := SELECT u.deptname FROM (arm1 UNION arm2) u, each arm
        // SELECT deptname, deptno FROM dept WHERE deptno = <pins>: the
        // union is keyed by its whole row, so q is dup-free exactly
        // when every arm pins deptno to one same constant.
        let cat = catalog();
        let dup_free_with = |pins: [&[i64]; 2]| {
            let mut g = Qgm::new();
            let d = base_box(&mut g, "dept", &["deptno", "deptname"]);
            let u = g.add_box(
                "U",
                BoxKind::SetOp(crate::boxes::SetOpBox {
                    op: SetOpKind::Union,
                    all: false,
                }),
            );
            for arm_pins in pins {
                let arm = g.add_box("ARM", BoxKind::Select);
                let q = g.add_quant(arm, d, QuantKind::Foreach, "d");
                g.boxed_mut(arm).columns = vec![
                    OutputCol {
                        name: "deptname".into(),
                        expr: ScalarExpr::col(q, 1),
                    },
                    OutputCol {
                        name: "deptno".into(),
                        expr: ScalarExpr::col(q, 0),
                    },
                ];
                g.boxed_mut(arm).predicates = arm_pins
                    .iter()
                    .map(|&v| ScalarExpr::eq(ScalarExpr::col(q, 0), ScalarExpr::lit(v)))
                    .collect();
                g.add_quant(u, arm, QuantKind::Foreach, "arm");
            }
            let first = g.boxed(u).quants[0];
            g.boxed_mut(u).columns = ["deptname", "deptno"]
                .iter()
                .enumerate()
                .map(|(i, name)| OutputCol {
                    name: (*name).into(),
                    expr: ScalarExpr::col(first, i),
                })
                .collect();
            let top = g.add_box("Q", BoxKind::Select);
            let uq = g.add_quant(top, u, QuantKind::Foreach, "u");
            g.boxed_mut(top).columns = vec![OutputCol {
                name: "deptname".into(),
                expr: ScalarExpr::col(uq, 0),
            }];
            is_dup_free(&g, &cat, top)
        };
        assert!(dup_free_with([&[5], &[5]]));
        // A contradictory arm pins both values; one is shared.
        assert!(dup_free_with([&[6, 5], &[5]]));
        assert!(!dup_free_with([&[5], &[6]]));
        assert!(!dup_free_with([&[5], &[]]));
    }

    #[test]
    fn enforce_distinct_is_always_dup_free() {
        let cat = catalog();
        let mut g = Qgm::new();
        let l = base_box(&mut g, "log", &["msg"]);
        let s = g.add_box("S", BoxKind::Select);
        let q = g.add_quant(s, l, QuantKind::Foreach, "l");
        g.boxed_mut(s).columns = vec![OutputCol {
            name: "msg".into(),
            expr: ScalarExpr::col(q, 0),
        }];
        assert!(!is_dup_free(&g, &cat, s));
        g.boxed_mut(s).distinct = DistinctMode::Enforce;
        assert!(is_dup_free(&g, &cat, s));
    }

    #[test]
    fn key_table_on_a_cyclic_graph_is_the_fresh_walk() {
        // r ranges over itself and dept; p over r and dept. Asked from
        // p, r's walk is cut where it meets r again — a result a table
        // must not share with an ask that starts at r.
        let cat = catalog();
        let mut g = Qgm::new();
        let d = base_box(&mut g, "dept", &["deptno", "deptname"]);
        let r = g.add_box("R", BoxKind::Select);
        let rr = g.add_quant(r, r, QuantKind::Foreach, "r");
        let rd = g.add_quant(r, d, QuantKind::Foreach, "d");
        g.boxed_mut(r).columns = vec![
            OutputCol {
                name: "x".into(),
                expr: ScalarExpr::col(rr, 0),
            },
            OutputCol {
                name: "y".into(),
                expr: ScalarExpr::col(rd, 0),
            },
        ];
        g.boxed_mut(r).distinct = DistinctMode::Preserve;
        let p = g.add_box("P", BoxKind::Select);
        let pr = g.add_quant(p, r, QuantKind::Foreach, "r");
        let pd = g.add_quant(p, d, QuantKind::Foreach, "d");
        g.boxed_mut(p).columns = vec![
            OutputCol {
                name: "x".into(),
                expr: ScalarExpr::col(pr, 0),
            },
            OutputCol {
                name: "y".into(),
                expr: ScalarExpr::col(pd, 0),
            },
        ];
        // p pins its `y` column; asking for that walks through r's
        // cycle, which the table must not re-enter.
        g.boxed_mut(p).predicates = vec![ScalarExpr::eq(
            ScalarExpr::col(pd, 0),
            ScalarExpr::lit(3i64),
        )];
        let table = KeyTable::new(&g, &cat);
        for b in [p, r, d] {
            assert_eq!(table.keys(b), output_keys(&g, &cat, b).as_slice(), "{b}");
        }
        assert_eq!(table.const_outputs(p), &[1usize].into_iter().collect());
        assert!(table.const_outputs(r).is_empty());
        let mut probe = g.clone();
        probe.boxed_mut(r).distinct = DistinctMode::Permit;
        assert_eq!(
            table.keys_with_mode(r, DistinctMode::Permit),
            output_keys(&probe, &cat, r)
        );
    }

    #[test]
    fn key_table_overrides_one_mode() {
        // s projects dept's non-key column and claims Preserve: the
        // claim alone keys it.
        let cat = catalog();
        let mut g = Qgm::new();
        let d = base_box(&mut g, "dept", &["deptno", "deptname"]);
        let s = g.add_box("S", BoxKind::Select);
        let q = g.add_quant(s, d, QuantKind::Foreach, "d");
        g.boxed_mut(s).columns = vec![OutputCol {
            name: "deptname".into(),
            expr: ScalarExpr::col(q, 1),
        }];
        g.boxed_mut(s).distinct = DistinctMode::Preserve;
        let table = KeyTable::new(&g, &cat);
        assert!(!table.keys(s).is_empty());
        assert!(table.keys_with_mode(s, DistinctMode::Permit).is_empty());
        assert_eq!(table.keys(s), output_keys(&g, &cat, s).as_slice());
    }

    #[test]
    fn recursive_box_claims_nothing() {
        let cat = catalog();
        let mut g = Qgm::new();
        let r = g.add_box("R", BoxKind::Select);
        let q = g.add_quant(r, r, QuantKind::Foreach, "r");
        g.boxed_mut(r).columns = vec![OutputCol {
            name: "x".into(),
            expr: ScalarExpr::col(q, 0),
        }];
        assert!(!is_dup_free(&g, &cat, r));
    }
}
