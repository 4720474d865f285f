//! Per-box transfer functions: compute a box's [`BoxFacts`] from the
//! facts of the boxes its quantifiers range over.
//!
//! Correlated references (a column of a quantifier belonging to an
//! *outer* box) resolve through the same fact table — the fixpoint
//! engine tracks those extra dependency edges.

use std::borrow::Cow;

use starmagic_catalog::Catalog;
use starmagic_qgm::boxes::{GroupByBox, SetOpBox};
use starmagic_qgm::colset::{ColSet, Terms};
use starmagic_qgm::keys::{self, KeyTable};
use starmagic_qgm::{BoxId, BoxKind, Qgm, QuantId, QuantKind, ScalarExpr, SetOpKind};
use starmagic_sql::{AggFunc, BinOp};

use crate::domains::{BoxFacts, Card, DupVerdict, FactTable, Nullability};

/// Read-only context threaded through a transfer evaluation.
pub struct Ctx<'a> {
    pub qgm: &'a Qgm,
    pub catalog: &'a Catalog,
    pub facts: &'a FactTable,
    /// Output keys and constant columns of the graph's boxes, shared
    /// by every transfer of one solve.
    pub keys: &'a KeyTable<'a>,
}

impl<'a> Ctx<'a> {
    /// Facts of the box a quantifier ranges over; conservative when
    /// the fixpoint has not reached it yet.
    fn input_facts(&self, q: QuantId) -> Cow<'a, BoxFacts> {
        let input = self.qgm.quant(q).input;
        match self.facts.get(input) {
            Some(f) => Cow::Borrowed(f),
            None => Cow::Owned(BoxFacts::conservative(self.qgm.boxed(input).arity())),
        }
    }

    /// Nullability of `col` of quantifier `q`, with the predicate
    /// refinement `not_null` (columns null-rejected by the box's own
    /// conjuncts). A Scalar quantifier yields NULL when its box is
    /// empty, so its columns are only NotNull when the box provably
    /// produces a row.
    fn colref(&self, not_null: &NotNull<'_>, q: QuantId, col: usize) -> Nullability {
        if not_null.contains(q, col) {
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

/// Columns of a box's own quantifiers that its conjuncts null-reject:
/// a set of the box's terms.
#[derive(Default)]
struct NotNull<'t> {
    terms: Option<&'t Terms>,
    cols: ColSet,
}

impl NotNull<'_> {
    fn contains(&self, q: QuantId, col: usize) -> bool {
        self.terms
            .and_then(|t| t.index(q, col))
            .is_some_and(|t| self.cols.contains(t))
    }
}

/// Nullability of a scalar expression under the given refinement.
fn expr_nullability(ctx: &Ctx<'_>, not_null: &NotNull<'_>, e: &ScalarExpr) -> Nullability {
    nullability_rec(ctx, not_null, e, /* agg_sees_rows */ false)
}

fn nullability_rec(
    ctx: &Ctx<'_>,
    not_null: &NotNull<'_>,
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
/// surviving rows carry a non-NULL value there. `out` is a set of
/// `terms`, which lays out the box's own quantifiers.
fn null_rejected(qgm: &Qgm, b: BoxId, p: &ScalarExpr, terms: &Terms, out: &mut ColSet) {
    let local_strict_cols = |e: &ScalarExpr, out: &mut ColSet| {
        if !null_propagating(e) {
            return;
        }
        e.walk(&mut |sub| {
            if let ScalarExpr::ColRef { quant, col } = sub {
                if qgm.quant_exists(*quant) && qgm.quant(*quant).parent == b {
                    if let Some(t) = terms.index(*quant, *col) {
                        out.insert(t);
                    }
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
            null_rejected(qgm, b, left, terms, out);
            null_rejected(qgm, b, right, terms, out);
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
    f.const_cols = ctx.keys.const_outputs(b).clone();
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
        const_cols: ColSet::new(),
        restricted: ColSet::new(),
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

    let eq = EqClasses::from_select(ctx.qgm, b);

    // Predicate refinement for nullability: every conjunct must come
    // out True on surviving rows.
    let mut not_null = NotNull {
        terms: Some(&eq.terms),
        cols: ColSet::new(),
    };
    for p in &qb.predicates {
        null_rejected(ctx.qgm, b, p, &eq.terms, &mut not_null.cols);
    }

    let nullability = qb
        .columns
        .iter()
        .map(|c| expr_nullability(ctx, &not_null, &c.expr))
        .collect();

    // Binding flow: a column is restricted when its value provably
    // comes from a restricted input column — directly, or through the
    // box's equality conjuncts.
    let restricted = eq.restricted_outputs(ctx, b);

    BoxFacts {
        card,
        nullability,
        keys: Vec::new(),
        const_cols: ColSet::new(),
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

    let nullability = qb
        .columns
        .iter()
        .map(|c| nullability_rec(ctx, &NotNull::default(), &c.expr, agg_sees_rows))
        .collect();

    // Binding flow passes through the group keys. (All of them
    // constant leaves the empty key, which caps the output at one row.)
    let restricted = g
        .group_keys
        .iter()
        .enumerate()
        .filter(|(_, k)| {
            matches!(k, ScalarExpr::ColRef { quant, col }
                if Some(*quant) == input && in_facts.restricted.contains(*col))
        })
        .map(|(i, _)| i)
        .collect();
    BoxFacts {
        card,
        nullability,
        keys: Vec::new(),
        const_cols: ColSet::new(),
        restricted,
        dup_free: DupVerdict::Unknown,
    }
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
        .filter(|&i| arms.iter().all(|a| a.restricted.contains(i)))
        .collect();

    BoxFacts {
        card,
        nullability,
        keys: Vec::new(),
        const_cols: ColSet::new(),
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
    let nullability = qb
        .columns
        .iter()
        .map(|c| {
            let mut n = expr_nullability(ctx, &NotNull::default(), &c.expr);
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
            ScalarExpr::ColRef { quant, col } if *quant == pres => pf.restricted.contains(*col),
            _ => false,
        })
        .map(|(i, _)| i)
        .collect();

    BoxFacts {
        card,
        nullability,
        keys: Vec::new(),
        const_cols: ColSet::new(),
        restricted,
        dup_free: DupVerdict::Unknown,
    }
}

/// The equality classes of a select box's top-level conjuncts
/// ([`keys::equality_classes`]) over the `(quant, col)` terms of every
/// quantifier they read, for the "restricted" taint: a class holding a
/// column that carries magic-binding flow. Constant columns are key
/// inference's ([`KeyTable::const_outputs`]).
pub struct EqClasses {
    /// The box's own quantifiers, then any other quantifier an equality
    /// conjunct references (a correlated column).
    terms: Terms,
    /// Disjoint classes of `terms`.
    classes: Vec<ColSet>,
}

impl EqClasses {
    pub fn from_select(qgm: &Qgm, b: BoxId) -> EqClasses {
        let qb = qgm.boxed(b);
        let mut terms = Terms::default();
        let mut lay_out = |q: QuantId| {
            if qgm.quant_exists(q) && terms.columns(q).is_none() {
                terms.push(q, qgm.boxed(qgm.quant(q).input).arity());
            }
        };
        qb.quants.iter().for_each(|&q| lay_out(q));
        for (l, r) in qb.predicates.iter().filter_map(ScalarExpr::as_equality) {
            for side in [l, r] {
                if let ScalarExpr::ColRef { quant, .. } = side {
                    lay_out(*quant);
                }
            }
        }
        let classes = keys::equality_classes(qgm, b, &terms);
        EqClasses { terms, classes }
    }

    /// Output columns of `b` whose values provably stay inside a magic
    /// box's binding set: inherited from a restricted input column, or
    /// equated (directly or through an equality class) to one.
    fn restricted_outputs(&self, ctx: &Ctx<'_>, b: BoxId) -> ColSet {
        let qb = ctx.qgm.boxed(b);
        // Terms of the box's own quantifiers over restricted columns.
        let mut restricted = ColSet::new();
        for &q in &qb.quants {
            if !ctx.qgm.quant_exists(q) || ctx.qgm.quant(q).parent != b {
                continue;
            }
            for c in &ctx.input_facts(q).restricted {
                if let Some(t) = self.terms.index(q, c) {
                    restricted.insert(t);
                }
            }
        }
        // Terms in a class tainted by a restricted term.
        let mut tainted = ColSet::new();
        for class in self.classes.iter().filter(|c| c.intersects(&restricted)) {
            tainted.union_with(class);
        }
        let colref_restricted = |q: QuantId, c: usize| -> bool {
            self.terms
                .index(q, c)
                .is_some_and(|t| restricted.contains(t) || tainted.contains(t))
        };
        let mut out = ColSet::new();
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
