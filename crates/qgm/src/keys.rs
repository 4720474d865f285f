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
//! * a box with `DistinctMode::Enforce`/`Preserve` is keyed by the
//!   whole row.

use std::borrow::Cow;
use std::cell::OnceCell;
use std::collections::BTreeSet;

use starmagic_catalog::Catalog;
use starmagic_sql::BinOp;

use crate::boxes::{BoxKind, DistinctMode, QuantKind};
use crate::expr::ScalarExpr;
use crate::graph::Qgm;
use crate::ids::BoxId;
use crate::strata;

/// Maximum number of candidate keys tracked per box, to bound the
/// combinatorial growth across joins.
const MAX_KEYS: usize = 4;

/// One Foreach quantifier's candidate keys: the quant id plus keys
/// expressed over (quant id, input column) pairs.
type QuantKeys = (u32, Vec<BTreeSet<(u32, usize)>>);

/// Candidate keys of a box's *output*, as sets of output-column
/// offsets. The empty set is a valid key (at most one row, e.g. a
/// global aggregate). An empty `Vec` means "no key known".
pub fn output_keys(qgm: &Qgm, catalog: &Catalog, b: BoxId) -> Vec<BTreeSet<usize>> {
    Walk::new(qgm, catalog, None).keys(b).into_owned()
}

/// Whether the box's output is provably duplicate-free.
pub fn is_dup_free(qgm: &Qgm, catalog: &Catalog, b: BoxId) -> bool {
    !output_keys(qgm, catalog, b).is_empty()
}

/// The output keys of every box of one graph, each derived at most
/// once — what one analysis solve or one lint run asks for, box after
/// box.
///
/// On an acyclic graph the walk behind [`output_keys`] never cuts a
/// path, so a box's keys (and its constant columns, which key
/// inference also recurses through) do not depend on who asks: each is
/// computed once and every later ask, and every parent's derivation,
/// reads it from the table. On a cyclic graph the path cut makes a
/// nested result depend on the path it was reached by, so nothing
/// nested is shared: each box's answer is [`output_keys`]'s own walk,
/// and only that answer is kept. Either way `keys(b)` equals
/// `output_keys(qgm, catalog, b)`.
///
/// The table is only valid for the graph as it was borrowed; rewrite
/// rules, which mutate the graph between asks, call [`output_keys`].
pub struct KeyTable<'a> {
    qgm: &'a Qgm,
    catalog: &'a Catalog,
    acyclic: bool,
    keys: Vec<OnceCell<Vec<BTreeSet<usize>>>>,
    consts: Vec<OnceCell<BTreeSet<usize>>>,
}

impl<'a> KeyTable<'a> {
    pub fn new(qgm: &'a Qgm, catalog: &'a Catalog) -> KeyTable<'a> {
        let slots = qgm.box_ids().last().map_or(0, |b| b.index() + 1);
        KeyTable {
            qgm,
            catalog,
            acyclic: !strata::is_recursive(qgm),
            keys: (0..slots).map(|_| OnceCell::new()).collect(),
            consts: (0..slots).map(|_| OnceCell::new()).collect(),
        }
    }

    /// [`output_keys`] of `b`.
    pub fn keys(&self, b: BoxId) -> &[BTreeSet<usize>] {
        self.keys[b.index()].get_or_init(|| {
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
    pub fn keys_with_mode(&self, b: BoxId, mode: DistinctMode) -> Vec<BTreeSet<usize>> {
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

    fn const_outputs(&self, b: BoxId) -> &BTreeSet<usize> {
        self.consts[b.index()].get_or_init(|| const_outputs_inner(self.qgm, b, &mut Memo(self)))
    }
}

/// Where key inference finds the keys and constant columns of the boxes
/// below the one it is deriving.
trait Inputs {
    fn keys(&mut self, b: BoxId) -> Cow<'_, [BTreeSet<usize>]>;
    fn const_outputs(&mut self, b: BoxId) -> Cow<'_, BTreeSet<usize>>;
}

/// A fresh depth-first walk that cuts every path returning to a box it
/// is already inside (a recursive cycle claims nothing), optionally
/// seeing one box under another distinct mode.
struct Walk<'a> {
    qgm: &'a Qgm,
    catalog: &'a Catalog,
    visiting: BTreeSet<BoxId>,
    mode: Option<(BoxId, DistinctMode)>,
}

impl<'a> Walk<'a> {
    fn new(qgm: &'a Qgm, catalog: &'a Catalog, mode: Option<(BoxId, DistinctMode)>) -> Walk<'a> {
        Walk {
            qgm,
            catalog,
            visiting: BTreeSet::new(),
            mode,
        }
    }
}

impl Inputs for Walk<'_> {
    fn keys(&mut self, b: BoxId) -> Cow<'_, [BTreeSet<usize>]> {
        if !self.visiting.insert(b) {
            // Recursive cycle: claim nothing.
            return Cow::Owned(Vec::new());
        }
        let distinct = match self.mode {
            Some((m, mode)) if m == b => mode,
            _ => self.qgm.boxed(b).distinct,
        };
        let result = keys_inner(self.qgm, self.catalog, b, distinct, self);
        self.visiting.remove(&b);
        Cow::Owned(result)
    }

    fn const_outputs(&mut self, b: BoxId) -> Cow<'_, BTreeSet<usize>> {
        if !self.visiting.insert(b) {
            return Cow::Owned(BTreeSet::new());
        }
        let out = const_outputs_inner(self.qgm, b, self);
        self.visiting.remove(&b);
        Cow::Owned(out)
    }
}

/// Inputs read from (and filled into) a [`KeyTable`] of an acyclic
/// graph.
struct Memo<'t, 'a>(&'t KeyTable<'a>);

impl Inputs for Memo<'_, '_> {
    fn keys(&mut self, b: BoxId) -> Cow<'_, [BTreeSet<usize>]> {
        Cow::Borrowed(self.0.keys(b))
    }

    fn const_outputs(&mut self, b: BoxId) -> Cow<'_, BTreeSet<usize>> {
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
) -> Vec<BTreeSet<usize>> {
    let qb = qgm.boxed(b);
    let mut keys: Vec<BTreeSet<usize>> = Vec::new();

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
                    .filter(|i| !const_keys.contains(i))
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
            let fquants: Vec<_> = qb
                .quants
                .iter()
                .copied()
                .filter(|&q| qgm.quant(q).kind == QuantKind::Foreach)
                .collect();
            // Equality classes and constant columns from the box's
            // top-level conjuncts (plain selects only — an outer
            // join's NULL-padded rows are not filtered by its
            // predicate): a key member may map through any equivalent
            // column, and a constant member drops out of the key.
            let (eq_classes, const_cols) = if matches!(qb.kind, BoxKind::Select) {
                let eq = select_eq_classes(qgm, b);
                let cc = select_const_cols(qgm, b, &eq, inputs);
                (eq, cc)
            } else {
                (Vec::new(), BTreeSet::new())
            };
            // Per-quant candidate keys expressed as (quant, input col).
            let mut per_quant: Vec<QuantKeys> = Vec::new();
            let mut all_have_keys = true;
            for &q in &fquants {
                let input = qgm.quant(q).input;
                let input_keys = inputs.keys(input);
                if input_keys.is_empty() {
                    all_have_keys = false;
                    break;
                }
                per_quant.push((
                    q.0,
                    input_keys
                        .iter()
                        .map(|k| k.iter().map(|&c| (q.0, c)).collect())
                        .collect(),
                ));
            }
            if all_have_keys {
                let n = per_quant.len();
                // A subset R of the Foreach quants keys the join alone
                // when every quant outside R is transitively *pinned*
                // by R: some key of it is entirely equated to columns
                // of quants already accounted for, so it joins at most
                // one row per valuation of R (the magic-join shape —
                // the magic table's whole-row key is equated to the
                // adorned subquery's binding columns).
                let covers = |r: &[usize]| -> bool {
                    let mut have: Vec<u32> = r.iter().map(|&i| per_quant[i].0).collect();
                    let mut todo: Vec<usize> = (0..n).filter(|i| !r.contains(i)).collect();
                    loop {
                        let pos = todo.iter().position(|&i| {
                            let (qi, qkeys) = &per_quant[i];
                            qkeys.iter().any(|k| {
                                k.iter().all(|member| {
                                    const_cols.contains(member)
                                        || eq_classes.iter().any(|cls| {
                                            cls.contains(member)
                                                && cls
                                                    .iter()
                                                    .any(|(q2, _)| q2 != qi && have.contains(q2))
                                        })
                                })
                            })
                        });
                        match pos {
                            Some(p) => {
                                have.push(per_quant[todo[p]].0);
                                todo.remove(p);
                            }
                            None => break,
                        }
                    }
                    todo.is_empty()
                };
                // Smallest subsets first so minimal keys surface before
                // the MAX_KEYS truncation; past 8 quants only the full
                // set is tried (no pinning, the pre-equivalence rule).
                let subsets: Vec<Vec<usize>> = if n <= 8 {
                    let mut all: Vec<Vec<usize>> = (0u32..(1 << n))
                        .map(|mask| (0..n).filter(|i| mask >> i & 1 == 1).collect())
                        .collect();
                    all.sort_by_key(Vec::len);
                    all
                } else {
                    vec![(0..n).collect()]
                };
                for r in subsets {
                    if !covers(&r) {
                        continue;
                    }
                    // Cartesian combination, truncated to MAX_KEYS.
                    let mut combos: Vec<BTreeSet<(u32, usize)>> = vec![BTreeSet::new()];
                    for &i in &r {
                        let mut next = Vec::new();
                        for base in &combos {
                            for opt in &per_quant[i].1 {
                                let mut merged = base.clone();
                                merged.extend(opt.iter().copied());
                                next.push(merged);
                                if next.len() >= MAX_KEYS {
                                    break;
                                }
                            }
                            if next.len() >= MAX_KEYS {
                                break;
                            }
                        }
                        combos = next;
                    }
                    // Map each combo through the output columns: every
                    // (quant, col) member must appear as a plain ColRef
                    // — or as one of its equivalents. Members with
                    // several images fan out into several keys.
                    'combo: for combo in combos {
                        let mut offset_sets: Vec<BTreeSet<usize>> = vec![BTreeSet::new()];
                        for (q, c) in &combo {
                            let member = (*q, *c);
                            if const_cols.contains(&member) {
                                continue;
                            }
                            let class = eq_classes.iter().find(|s| s.contains(&member));
                            let images: Vec<usize> = qb
                                .columns
                                .iter()
                                .enumerate()
                                .filter_map(|(off, oc)| {
                                    let ScalarExpr::ColRef { quant, col } = &oc.expr else {
                                        return None;
                                    };
                                    let out = (quant.0, *col);
                                    (out == member || class.is_some_and(|s| s.contains(&out)))
                                        .then_some(off)
                                })
                                .collect();
                            if images.is_empty() {
                                continue 'combo;
                            }
                            let mut next = Vec::new();
                            for base in &offset_sets {
                                for &img in &images {
                                    let mut merged = base.clone();
                                    merged.insert(img);
                                    next.push(merged);
                                    if next.len() >= MAX_KEYS {
                                        break;
                                    }
                                }
                                if next.len() >= MAX_KEYS {
                                    break;
                                }
                            }
                            offset_sets = next;
                        }
                        keys.extend(offset_sets);
                    }
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
    keys.sort_by_key(std::collections::BTreeSet::len);
    let mut minimal: Vec<BTreeSet<usize>> = Vec::new();
    for k in keys {
        if !minimal.iter().any(|m| m.is_subset(&k)) {
            minimal.push(k);
        }
        if minimal.len() >= MAX_KEYS {
            break;
        }
    }
    minimal
}

/// Foreach quantifier ids of a box — the only quants whose predicates
/// act as plain row filters (conjuncts touching E/A quants carry
/// quantified semantics instead).
fn foreach_ids(qgm: &Qgm, b: BoxId) -> BTreeSet<u32> {
    qgm.boxed(b)
        .quants
        .iter()
        .copied()
        .filter(|&q| qgm.quant(q).kind == QuantKind::Foreach)
        .map(|q| q.0)
        .collect()
}

/// Column-equivalence classes from a select box's top-level `a = b`
/// conjuncts between Foreach columns: a surviving row has both sides
/// equal and non-NULL.
fn select_eq_classes(qgm: &Qgm, b: BoxId) -> Vec<BTreeSet<(u32, usize)>> {
    let fset = foreach_ids(qgm, b);
    let mut classes: Vec<BTreeSet<(u32, usize)>> = Vec::new();
    for p in &qgm.boxed(b).predicates {
        let ScalarExpr::Bin {
            op: BinOp::Eq,
            left,
            right,
        } = p
        else {
            continue;
        };
        let (ScalarExpr::ColRef { quant: ql, col: cl }, ScalarExpr::ColRef { quant: qr, col: cr }) =
            (&**left, &**right)
        else {
            continue;
        };
        if !fset.contains(&ql.0) || !fset.contains(&qr.0) {
            continue;
        }
        let a = (ql.0, *cl);
        let bb = (qr.0, *cr);
        let ia = classes.iter().position(|s| s.contains(&a));
        let ib = classes.iter().position(|s| s.contains(&bb));
        match (ia, ib) {
            (Some(i), Some(j)) if i != j => {
                let merged = classes.swap_remove(i.max(j));
                classes[i.min(j)].extend(merged);
            }
            (Some(_), Some(_)) => {}
            (Some(i), None) => {
                classes[i].insert(bb);
            }
            (None, Some(j)) => {
                classes[j].insert(a);
            }
            (None, None) => {
                classes.push([a, bb].into_iter().collect());
            }
        }
    }
    classes
}

/// (quant, col) pairs of a select box provably constant across all
/// surviving rows: equated to a literal by a top-level conjunct,
/// constant in the quantifier's input, or equality-connected to either.
/// Constant columns never contribute multiplicity, so they drop out of
/// candidate keys.
fn select_const_cols(
    qgm: &Qgm,
    b: BoxId,
    eq_classes: &[BTreeSet<(u32, usize)>],
    inputs: &mut impl Inputs,
) -> BTreeSet<(u32, usize)> {
    let qb = qgm.boxed(b);
    let fset = foreach_ids(qgm, b);
    let mut consts: BTreeSet<(u32, usize)> = BTreeSet::new();
    for p in &qb.predicates {
        let ScalarExpr::Bin {
            op: BinOp::Eq,
            left,
            right,
        } = p
        else {
            continue;
        };
        // A parameter pins a column just like a literal: it has one
        // fixed (non-NULL) value for the whole execution.
        let col = match (&**left, &**right) {
            (ScalarExpr::ColRef { quant, col }, ScalarExpr::Literal(_) | ScalarExpr::Param(_))
            | (ScalarExpr::Literal(_) | ScalarExpr::Param(_), ScalarExpr::ColRef { quant, col }) => {
                (quant.0, *col)
            }
            _ => continue,
        };
        if fset.contains(&col.0) {
            consts.insert(col);
        }
    }
    for &q in &qb.quants {
        if qgm.quant(q).kind != QuantKind::Foreach {
            continue;
        }
        for &c in inputs.const_outputs(qgm.quant(q).input).iter() {
            consts.insert((q.0, c));
        }
    }
    for cls in eq_classes {
        if cls.iter().any(|m| consts.contains(m)) {
            consts.extend(cls.iter().copied());
        }
    }
    consts
}

/// Output-column offsets of a box provably holding the same value in
/// every row. Conservative: only selects and group-bys propagate
/// constancy (an outer join NULL-pads, a set op mixes arms).
fn const_outputs_inner(qgm: &Qgm, b: BoxId, inputs: &mut impl Inputs) -> BTreeSet<usize> {
    let qb = qgm.boxed(b);
    let mut out = BTreeSet::new();
    match &qb.kind {
        BoxKind::BaseTable { .. } | BoxKind::SetOp(_) | BoxKind::OuterJoin(_) => {}
        BoxKind::GroupBy(g) => {
            out = const_group_keys(qgm, b, g, inputs);
        }
        BoxKind::Select => {
            let eq = select_eq_classes(qgm, b);
            let consts = select_const_cols(qgm, b, &eq, inputs);
            for (i, oc) in qb.columns.iter().enumerate() {
                if expr_const(&oc.expr, &consts) {
                    out.insert(i);
                }
            }
        }
    }
    out
}

/// Group-key output offsets whose grouping expression is constant in
/// the input — every group shares that value, and with *all* group
/// keys constant there is at most one group.
fn const_group_keys(
    qgm: &Qgm,
    b: BoxId,
    g: &crate::boxes::GroupByBox,
    inputs: &mut impl Inputs,
) -> BTreeSet<usize> {
    let qb = qgm.boxed(b);
    let mut consts: BTreeSet<(u32, usize)> = BTreeSet::new();
    for &q in &qb.quants {
        if qgm.quant(q).kind != QuantKind::Foreach {
            continue;
        }
        for &c in inputs.const_outputs(qgm.quant(q).input).iter() {
            consts.insert((q.0, c));
        }
    }
    g.group_keys
        .iter()
        .enumerate()
        .filter(|(_, k)| expr_const(k, &consts))
        .map(|(i, _)| i)
        .collect()
}

/// Whether an output/grouping expression is a literal or a reference to
/// a provably-constant column.
fn expr_const(e: &ScalarExpr, consts: &BTreeSet<(u32, usize)>) -> bool {
    match e {
        ScalarExpr::Literal(_) | ScalarExpr::Param(_) => true,
        ScalarExpr::ColRef { quant, col } => consts.contains(&(quant.0, *col)),
        _ => false,
    }
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
        assert_eq!(keys, vec![[0usize].into_iter().collect::<BTreeSet<_>>()]);
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
        g.boxed_mut(j).predicates.clear();
        assert!(!is_dup_free(&g, &cat, j));
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
        let table = KeyTable::new(&g, &cat);
        for b in [p, r, d] {
            assert_eq!(table.keys(b), output_keys(&g, &cat, b).as_slice(), "{b}");
        }
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
