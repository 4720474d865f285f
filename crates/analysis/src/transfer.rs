//! Per-box transfer functions: compute a box's [`BoxFacts`] from the
//! facts of the boxes its quantifiers range over.
//!
//! Correlated references (a column of a quantifier belonging to an
//! *outer* box) resolve through the same fact table — the fixpoint
//! engine tracks those extra dependency edges.

use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet};

use starmagic_catalog::Catalog;
use starmagic_qgm::boxes::{GroupByBox, SetOpBox};
use starmagic_qgm::keys::KeyTable;
use starmagic_qgm::{BoxId, BoxKind, Qgm, QuantId, QuantKind, ScalarExpr, SetOpKind};
use starmagic_sql::{AggFunc, BinOp};

use crate::domains::{BoxFacts, Card, DupVerdict, Nullability};

/// Read-only context threaded through a transfer evaluation.
pub struct Ctx<'a> {
    pub qgm: &'a Qgm,
    pub catalog: &'a Catalog,
    pub facts: &'a BTreeMap<BoxId, BoxFacts>,
    /// Output keys of the graph's boxes, shared by every transfer of
    /// one solve.
    pub keys: &'a KeyTable<'a>,
}

impl<'a> Ctx<'a> {
    /// Facts of the box a quantifier ranges over; conservative when
    /// the fixpoint has not reached it yet.
    fn input_facts(&self, q: QuantId) -> Cow<'a, BoxFacts> {
        let input = self.qgm.quant(q).input;
        match self.facts.get(&input) {
            Some(f) => Cow::Borrowed(f),
            None => Cow::Owned(BoxFacts::conservative(self.qgm.boxed(input).arity())),
        }
    }

    /// Nullability of `col` of quantifier `q`, with the predicate
    /// refinement `not_null` (columns null-rejected by the box's own
    /// conjuncts). A Scalar quantifier yields NULL when its box is
    /// empty, so its columns are only NotNull when the box provably
    /// produces a row.
    fn colref(&self, not_null: &BTreeSet<(QuantId, usize)>, q: QuantId, col: usize) -> Nullability {
        if not_null.contains(&(q, col)) {
            return Nullability::NotNull;
        }
        if !self.qgm.quant_exists(q) {
            return Nullability::MaybeNull;
        }
        let f = self.input_facts(q);
        let base = f
            .nullability
            .get(col)
            .copied()
            .unwrap_or(Nullability::MaybeNull);
        if self.qgm.quant(q).kind == QuantKind::Scalar && f.card.lo == 0 {
            base.join(Nullability::Null)
        } else {
            base
        }
    }
}

/// Nullability of a scalar expression under the given refinement.
pub fn expr_nullability(
    ctx: &Ctx<'_>,
    not_null: &BTreeSet<(QuantId, usize)>,
    e: &ScalarExpr,
) -> Nullability {
    nullability_rec(ctx, not_null, e, /* agg_sees_rows */ false)
}

fn nullability_rec(
    ctx: &Ctx<'_>,
    not_null: &BTreeSet<(QuantId, usize)>,
    e: &ScalarExpr,
    agg_sees_rows: bool,
) -> Nullability {
    use Nullability::{MaybeNull, NotNull, Null};
    match e {
        ScalarExpr::ColRef { quant, col } => ctx.colref(not_null, *quant, *col),
        ScalarExpr::Literal(v) => {
            if v.is_null() {
                Null
            } else {
                NotNull
            }
        }
        // A parameter denotes one non-NULL constant per execution.
        ScalarExpr::Param(_) => NotNull,
        ScalarExpr::Bin { op, left, right } => {
            let l = nullability_rec(ctx, not_null, left, agg_sees_rows);
            let r = nullability_rec(ctx, not_null, right, agg_sees_rows);
            match op {
                // Kleene AND/OR can rescue a NULL operand (`NULL AND
                // FALSE` is False), so only both-NotNull is definite.
                BinOp::And | BinOp::Or => {
                    if l == NotNull && r == NotNull {
                        NotNull
                    } else {
                        MaybeNull
                    }
                }
                // Strict operators: NULL in, NULL out.
                _ => {
                    if l == Null || r == Null {
                        Null
                    } else if l == NotNull && r == NotNull {
                        NotNull
                    } else {
                        MaybeNull
                    }
                }
            }
        }
        ScalarExpr::Neg(x) | ScalarExpr::Not(x) => nullability_rec(ctx, not_null, x, agg_sees_rows),
        // IS [NOT] NULL is a total boolean: never NULL.
        ScalarExpr::IsNull { .. } => NotNull,
        ScalarExpr::Like { expr, .. } => {
            match nullability_rec(ctx, not_null, expr, agg_sees_rows) {
                Null => Null,
                NotNull => NotNull,
                _ => MaybeNull,
            }
        }
        ScalarExpr::Agg { func, arg, .. } => match func {
            // COUNT is 0 on an empty group, never NULL.
            AggFunc::Count => NotNull,
            // SUM/AVG/MIN/MAX are NULL over an empty group and over
            // all-NULL arguments.
            _ if !agg_sees_rows => MaybeNull,
            _ => match arg {
                Some(a) => match nullability_rec(ctx, not_null, a, agg_sees_rows) {
                    NotNull => NotNull,
                    Null => Null,
                    _ => MaybeNull,
                },
                None => MaybeNull,
            },
        },
        // A quantified test is three-valued.
        ScalarExpr::Quantified { .. } => MaybeNull,
    }
}

/// Columns of the box's *own* quantifiers that a conjunct null-rejects:
/// if the column were NULL, the conjunct could not come out True, so
/// surviving rows carry a non-NULL value there.
fn null_rejected(qgm: &Qgm, b: BoxId, p: &ScalarExpr, out: &mut BTreeSet<(QuantId, usize)>) {
    let local_strict_cols = |e: &ScalarExpr, out: &mut BTreeSet<(QuantId, usize)>| {
        if !null_propagating(e) {
            return;
        }
        e.walk(&mut |sub| {
            if let ScalarExpr::ColRef { quant, col } = sub {
                if qgm.quant_exists(*quant) && qgm.quant(*quant).parent == b {
                    out.insert((*quant, *col));
                }
            }
        });
    };
    match p {
        ScalarExpr::Bin {
            op: BinOp::And,
            left,
            right,
        } => {
            null_rejected(qgm, b, left, out);
            null_rejected(qgm, b, right, out);
        }
        // A strict comparison is Unknown (row dropped) when either
        // NULL-propagating side reads a NULL column.
        ScalarExpr::Bin { op, left, right } if op.is_comparison() => {
            local_strict_cols(left, out);
            local_strict_cols(right, out);
        }
        // `x LIKE p` and `x NOT LIKE p` are both Unknown on NULL x.
        ScalarExpr::Like { expr, .. } => local_strict_cols(expr, out),
        // `x IS NOT NULL` is False on NULL x.
        ScalarExpr::IsNull {
            expr,
            negated: true,
        } => local_strict_cols(expr, out),
        // NOT(p) drops the row when p is True-or-Unknown on NULL:
        // comparisons/LIKE give Unknown, `IS NULL` gives True.
        ScalarExpr::Not(inner) => match &**inner {
            ScalarExpr::Bin { op, left, right } if op.is_comparison() => {
                local_strict_cols(left, out);
                local_strict_cols(right, out);
            }
            ScalarExpr::Like { expr, .. } => local_strict_cols(expr, out),
            ScalarExpr::IsNull {
                expr,
                negated: false,
            } => local_strict_cols(expr, out),
            _ => {}
        },
        _ => {}
    }
}

/// Whether a scalar expression is guaranteed NULL whenever any column
/// it reads is NULL (the same predicate `starmagic-magic` uses to gate
/// EMST decorrelation).
pub fn null_propagating(e: &ScalarExpr) -> bool {
    match e {
        ScalarExpr::ColRef { .. } | ScalarExpr::Literal(_) | ScalarExpr::Param(_) => true,
        ScalarExpr::Neg(inner) => null_propagating(inner),
        ScalarExpr::Bin {
            op: BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div,
            left,
            right,
        } => null_propagating(left) && null_propagating(right),
        _ => false,
    }
}

/// One transfer step: facts of box `b` from its inputs' facts.
pub fn transfer(ctx: &Ctx<'_>, b: BoxId) -> BoxFacts {
    let qb = ctx.qgm.boxed(b);
    let mut f = match &qb.kind {
        BoxKind::BaseTable { table } => base_table(ctx, b, table),
        BoxKind::Select => select(ctx, b),
        BoxKind::GroupBy(g) => groupby(ctx, b, g),
        BoxKind::SetOp(s) => setop(ctx, b, s),
        BoxKind::OuterJoin(_) => outerjoin(ctx, b),
    };

    // Key/FD refinement: a key all of whose columns are constant pins
    // the output to at most one row (the empty key trivially so).
    f.keys = ctx.keys.keys(b).to_vec();
    if f.keys.iter().any(|k| k.is_subset(&f.const_cols)) {
        f.card = f.card.cap(1);
    }
    // DISTINCT over all-constant output is a single row.
    if qb.distinct.needs_dedup() {
        f.card = f.card.dedup();
        if qb.arity() > 0 && f.const_cols.len() == qb.arity() {
            f.card = f.card.cap(1);
        }
    }
    f.card = f.card.clamp();

    // A magic box's entire output *is* the binding set.
    if qb.is_magic_flavor() {
        f.restricted = (0..qb.arity()).collect();
    }

    f.dup_free = if !f.keys.is_empty() {
        DupVerdict::ProvenKeys
    } else if f.card.hi.is_some_and(|h| h <= 1) {
        DupVerdict::ProvenBounds
    } else if qb.arity() > 0 && f.const_cols.len() == qb.arity() && f.card.lo >= 2 {
        DupVerdict::Refuted
    } else {
        DupVerdict::Unknown
    };
    f
}

fn base_table(ctx: &Ctx<'_>, b: BoxId, table: &str) -> BoxFacts {
    let arity = ctx.qgm.boxed(b).arity();
    let Ok(t) = ctx.catalog.table(table) else {
        return BoxFacts::conservative(arity);
    };
    let stats = t.stats();
    let rows = stats.rows;
    let nullability = (0..arity)
        .map(|i| match stats.columns.get(i) {
            Some(c) if c.nulls == 0 => Nullability::NotNull,
            Some(c) if rows > 0 && c.nulls == rows => Nullability::Null,
            Some(_) => Nullability::MaybeNull,
            None => Nullability::MaybeNull,
        })
        .collect();
    BoxFacts {
        card: Card::exact(rows),
        nullability,
        keys: Vec::new(),
        const_cols: BTreeSet::new(),
        restricted: BTreeSet::new(),
        dup_free: DupVerdict::Unknown,
    }
}

fn select(ctx: &Ctx<'_>, b: BoxId) -> BoxFacts {
    let qb = ctx.qgm.boxed(b);

    // Multiplicity: the join of the Foreach inputs, filtered by the
    // predicates (any predicate may drop every row).
    let mut card = Card::exact(1);
    for &q in &qb.quants {
        if ctx.qgm.quant(q).kind.is_foreach() {
            card = card.cross(ctx.input_facts(q).card);
        }
    }
    if !qb.predicates.is_empty() {
        card.lo = 0;
    }

    // Predicate refinement for nullability: every conjunct must come
    // out True on surviving rows.
    let mut not_null = BTreeSet::new();
    for p in &qb.predicates {
        null_rejected(ctx.qgm, b, p, &mut not_null);
    }

    let nullability = qb
        .columns
        .iter()
        .map(|c| expr_nullability(ctx, &not_null, &c.expr))
        .collect();

    // FD/constants: equality classes over (quant, col) terms seeded by
    // literals and parameters.
    let eq = EqClasses::from_select(ctx.qgm, b);
    let const_cols = qb
        .columns
        .iter()
        .enumerate()
        .filter(|(_, c)| eq.is_const(ctx, &c.expr))
        .map(|(i, _)| i)
        .collect();

    // Binding flow: a column is restricted when its value provably
    // comes from a restricted input column — directly, or through the
    // box's equality conjuncts.
    let restricted = eq.restricted_outputs(ctx, b);

    BoxFacts {
        card,
        nullability,
        keys: Vec::new(),
        const_cols,
        restricted,
        dup_free: DupVerdict::Unknown,
    }
}

fn groupby(ctx: &Ctx<'_>, b: BoxId, g: &GroupByBox) -> BoxFacts {
    let qb = ctx.qgm.boxed(b);
    let input = qb
        .quants
        .iter()
        .copied()
        .find(|&q| ctx.qgm.quant(q).kind.is_foreach());
    let in_facts = input.map_or_else(
        || Cow::Owned(BoxFacts::conservative(0)),
        |q| ctx.input_facts(q),
    );

    let n_keys = g.group_keys.len();
    // A global aggregate always emits exactly one row; grouped output
    // has one row per non-empty group.
    let card = if n_keys == 0 {
        Card::exact(1)
    } else {
        Card {
            lo: in_facts.card.lo.min(1),
            hi: in_facts.card.hi,
        }
    };
    // Grouped aggregates see at least one row per group; a global
    // aggregate sees rows only when the input is provably non-empty.
    let agg_sees_rows = n_keys > 0 || in_facts.card.lo >= 1;

    let not_null = BTreeSet::new();
    let nullability = qb
        .columns
        .iter()
        .map(|c| nullability_rec(ctx, &not_null, &c.expr, agg_sees_rows))
        .collect();

    // Constants and binding flow pass through the group keys.
    let mut const_cols = BTreeSet::new();
    let mut restricted = BTreeSet::new();
    for (i, k) in g.group_keys.iter().enumerate() {
        if let ScalarExpr::ColRef { quant, col } = k {
            if Some(*quant) == input {
                let f = ctx.input_facts(*quant);
                if f.const_cols.contains(col) {
                    const_cols.insert(i);
                }
                if f.restricted.contains(col) {
                    restricted.insert(i);
                }
            }
        } else if matches!(k, ScalarExpr::Literal(_) | ScalarExpr::Param(_)) {
            const_cols.insert(i);
        }
    }
    let mut f = BoxFacts {
        card,
        nullability,
        keys: Vec::new(),
        const_cols,
        restricted,
        dup_free: DupVerdict::Unknown,
    };
    // All group keys constant => at most one group.
    if n_keys > 0 && f.const_cols.len() >= n_keys {
        f.card = f.card.cap(1);
    }
    f
}

fn setop(ctx: &Ctx<'_>, b: BoxId, s: &SetOpBox) -> BoxFacts {
    let qb = ctx.qgm.boxed(b);
    let arity = qb.arity();
    let arms: Vec<Cow<'_, BoxFacts>> = qb.quants.iter().map(|&q| ctx.input_facts(q)).collect();
    if arms.is_empty() {
        return BoxFacts::conservative(arity);
    }

    let card = match s.op {
        SetOpKind::Union => {
            let sum = arms[1..]
                .iter()
                .fold(arms[0].card, |acc, a| acc.plus(a.card));
            if s.all {
                sum
            } else {
                // Deduplication can collapse everything onto one row,
                // so only the upper bound and non-emptiness survive.
                Card {
                    lo: u64::from(sum.lo > 0),
                    hi: sum.hi,
                }
            }
        }
        SetOpKind::Except => Card {
            lo: 0,
            hi: arms[0].card.hi,
        },
        SetOpKind::Intersect => Card {
            lo: 0,
            hi: arms
                .iter()
                .map(|a| a.card.hi)
                .fold(None, |acc: Option<u64>, h| match (acc, h) {
                    (None, x) => x,
                    (Some(a), Some(b)) => Some(a.min(b)),
                    (Some(a), None) => Some(a),
                }),
        },
    };

    let col_null = |i: usize| -> Nullability {
        let at = |a: &BoxFacts| {
            a.nullability
                .get(i)
                .copied()
                .unwrap_or(Nullability::MaybeNull)
        };
        match s.op {
            // Output rows come from any arm.
            SetOpKind::Union => arms
                .iter()
                .fold(Nullability::Bottom, |acc, a| acc.join(at(a))),
            // Output rows are left-arm rows.
            SetOpKind::Except => at(&arms[0]),
            // A surviving row appears in *every* arm (set-op grouping
            // treats NULLs as equal), so any arm's NotNull carries
            // over; all-arms-Null forces Null.
            SetOpKind::Intersect => {
                if arms.iter().any(|a| at(a) == Nullability::NotNull) {
                    Nullability::NotNull
                } else if arms.iter().all(|a| at(a) == Nullability::Null) {
                    Nullability::Null
                } else {
                    Nullability::MaybeNull
                }
            }
        }
    };
    let nullability = (0..arity).map(col_null).collect();

    // A column restricted in every arm stays restricted (positional).
    let restricted = (0..arity)
        .filter(|i| arms.iter().all(|a| a.restricted.contains(i)))
        .collect();

    BoxFacts {
        card,
        nullability,
        keys: Vec::new(),
        const_cols: BTreeSet::new(),
        restricted,
        dup_free: DupVerdict::Unknown,
    }
}

fn outerjoin(ctx: &Ctx<'_>, b: BoxId) -> BoxFacts {
    let qb = ctx.qgm.boxed(b);
    let arity = qb.arity();
    let (Some(&pres), Some(&ns)) = (qb.quants.first(), qb.quants.get(1)) else {
        return BoxFacts::conservative(arity);
    };
    let pf = ctx.input_facts(pres);
    let nf = ctx.input_facts(ns);

    // Every preserved row appears at least once; a preserved row
    // matching k null-supplying rows appears k times.
    let card = Card {
        lo: pf.card.lo,
        hi: match (pf.card.hi, nf.card.hi) {
            (Some(0), _) => Some(0),
            (Some(p), Some(n)) => Some(p.saturating_mul(n.max(1))),
            _ => None,
        },
    };

    // Null-supplying-side columns gain NULL padding on unmatched rows.
    let not_null = BTreeSet::new();
    let nullability = qb
        .columns
        .iter()
        .map(|c| {
            let mut n = expr_nullability(ctx, &not_null, &c.expr);
            let mut touches_ns = false;
            c.expr.walk(&mut |e| {
                if let ScalarExpr::ColRef { quant, .. } = e {
                    if *quant == ns {
                        touches_ns = true;
                    }
                }
            });
            if touches_ns {
                n = n.join(Nullability::Null);
            }
            n
        })
        .collect();

    // Binding flow passes through preserved-side columns only: the
    // null-supplying side gains padding values outside the bindings.
    let restricted = qb
        .columns
        .iter()
        .enumerate()
        .filter(|(_, c)| match &c.expr {
            ScalarExpr::ColRef { quant, col } if *quant == pres => pf.restricted.contains(col),
            _ => false,
        })
        .map(|(i, _)| i)
        .collect();

    BoxFacts {
        card,
        nullability,
        keys: Vec::new(),
        const_cols: BTreeSet::new(),
        restricted,
        dup_free: DupVerdict::Unknown,
    }
}

/// Equality classes over the `(quant, col)` terms of a select box's
/// top-level equality conjuncts, with two distinguished taints:
/// "constant" (equated to a literal or parameter) and "restricted"
/// (containing a column that carries magic-binding flow).
pub struct EqClasses {
    /// Class id per term.
    classes: BTreeMap<(QuantId, usize), usize>,
    /// Classes containing a literal/parameter.
    const_classes: BTreeSet<usize>,
}

impl EqClasses {
    pub fn from_select(qgm: &Qgm, b: BoxId) -> EqClasses {
        let qb = qgm.boxed(b);
        let mut terms: Vec<BTreeSet<(QuantId, usize)>> = Vec::new();
        let mut const_flags: Vec<bool> = Vec::new();
        let find = |terms: &[BTreeSet<(QuantId, usize)>], t: &(QuantId, usize)| {
            terms.iter().position(|s| s.contains(t))
        };
        for p in &qb.predicates {
            let Some((l, r)) = p.as_equality() else {
                continue;
            };
            let as_term = |e: &ScalarExpr| match e {
                ScalarExpr::ColRef { quant, col } => Some((*quant, *col)),
                _ => None,
            };
            let is_const = |e: &ScalarExpr| {
                matches!(e, ScalarExpr::Param(_))
                    || matches!(e, ScalarExpr::Literal(v) if !v.is_null())
            };
            match (as_term(l), as_term(r)) {
                (Some(a), Some(bt)) => {
                    let ia = find(&terms, &a);
                    let ib = find(&terms, &bt);
                    match (ia, ib) {
                        (Some(x), Some(y)) if x != y => {
                            let merged = std::mem::take(&mut terms[y]);
                            terms[x].extend(merged);
                            let cy = const_flags[y];
                            const_flags[x] |= cy;
                        }
                        (Some(_), Some(_)) => {}
                        (Some(x), None) => {
                            terms[x].insert(bt);
                        }
                        (None, Some(y)) => {
                            terms[y].insert(a);
                        }
                        (None, None) => {
                            terms.push([a, bt].into_iter().collect());
                            const_flags.push(false);
                        }
                    }
                }
                (Some(t), None) if is_const(r) => match find(&terms, &t) {
                    Some(x) => const_flags[x] = true,
                    None => {
                        terms.push([t].into_iter().collect());
                        const_flags.push(true);
                    }
                },
                (None, Some(t)) if is_const(l) => match find(&terms, &t) {
                    Some(x) => const_flags[x] = true,
                    None => {
                        terms.push([t].into_iter().collect());
                        const_flags.push(true);
                    }
                },
                _ => {}
            }
        }
        let mut classes = BTreeMap::new();
        let mut const_classes = BTreeSet::new();
        for (i, set) in terms.iter().enumerate() {
            if set.is_empty() {
                continue; // merged away
            }
            for t in set {
                classes.insert(*t, i);
            }
            if const_flags[i] {
                const_classes.insert(i);
            }
        }
        EqClasses {
            classes,
            const_classes,
        }
    }

    /// Whether an output expression is provably constant across the
    /// box's output.
    fn is_const(&self, ctx: &Ctx<'_>, e: &ScalarExpr) -> bool {
        match e {
            ScalarExpr::Param(_) => true,
            ScalarExpr::Literal(_) => true,
            ScalarExpr::ColRef { quant, col } => {
                let t = (*quant, *col);
                self.classes
                    .get(&t)
                    .is_some_and(|c| self.const_classes.contains(c))
                    || ctx.input_facts(*quant).const_cols.contains(col)
            }
            _ => false,
        }
    }

    /// Output columns of `b` whose values provably stay inside a magic
    /// box's binding set: inherited from a restricted input column, or
    /// equated (directly or through an equality class) to one.
    fn restricted_outputs(&self, ctx: &Ctx<'_>, b: BoxId) -> BTreeSet<usize> {
        let qb = ctx.qgm.boxed(b);
        let term_restricted = |q: QuantId, c: usize| -> bool {
            ctx.qgm.quant_exists(q)
                && ctx.qgm.quant(q).parent == b
                && ctx.input_facts(q).restricted.contains(&c)
        };
        // Classes tainted by a restricted term.
        let tainted: BTreeSet<usize> = self
            .classes
            .iter()
            .filter(|(&(q, c), _)| term_restricted(q, c))
            .map(|(_, &cls)| cls)
            .collect();
        let colref_restricted = |q: QuantId, c: usize| -> bool {
            term_restricted(q, c)
                || self
                    .classes
                    .get(&(q, c))
                    .is_some_and(|cls| tainted.contains(cls))
        };
        let mut out = BTreeSet::new();
        for (i, oc) in qb.columns.iter().enumerate() {
            let hit = match &oc.expr {
                ScalarExpr::ColRef { quant, col } => colref_restricted(*quant, *col),
                // Non-column output: restricted when some equality
                // conjunct pins it to a restricted column reference
                // (the exact shape `attach_magic` emits).
                expr => qb.predicates.iter().any(|p| {
                    p.as_equality().is_some_and(|(l, r)| {
                        let pin = |a: &ScalarExpr, bside: &ScalarExpr| {
                            a == expr
                                && matches!(bside, ScalarExpr::ColRef { quant, col }
                                    if colref_restricted(*quant, *col))
                        };
                        pin(l, r) || pin(r, l)
                    })
                }),
            };
            if hit {
                out.insert(i);
            }
        }
        out
    }
}
