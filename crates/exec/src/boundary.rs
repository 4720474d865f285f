//! The box boundary: what one box hands the next.
//!
//! A box's result is one [`Batch`](crate::Batch): a stored table's, its
//! columns borrowed in place, or the columns its operator produced — a
//! select's projection vectors, a group-by's keys and aggregates, a set
//! operation's gathered arms, an outer join's pairs, a fixpoint's
//! accumulation. Rows are built only at the query root: the scalar
//! evaluator's frame binds positions in batches and reads them in place.
//!
//! [`live_columns`] is the other half of the contract: which output
//! columns of a box some consumer reads, so a select gathers only
//! those.

use std::collections::HashMap;

use starmagic_qgm::{BoxId, BoxKind, Qgm, ScalarExpr};

/// Why a box evaluation ran an expression on the scalar evaluator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fallback {
    /// A predicate tests a subquery quantifier.
    SubqueryPredicate,
    /// A predicate does not compile to a vector expression.
    UncompilablePredicate,
    /// An output column does not compile.
    UncompilableColumn,
    /// A group key does not compile.
    UncompilableKey,
    /// An aggregate argument does not compile.
    UncompilableArgument,
    /// A vectorized kernel raised an error (the row-wise evaluator then
    /// decides whether the query really fails).
    KernelError,
    /// An outer join: its ON clause and columns run pair by pair.
    OuterJoin,
}

impl Fallback {
    pub const ALL: [Fallback; 7] = [
        Fallback::SubqueryPredicate,
        Fallback::UncompilablePredicate,
        Fallback::UncompilableColumn,
        Fallback::UncompilableKey,
        Fallback::UncompilableArgument,
        Fallback::KernelError,
        Fallback::OuterJoin,
    ];

    /// Snake-case name: the `<reason>` of `exec.batch.fallback.<reason>`
    /// and of EXPLAIN ANALYZE's `path=row(<reason>)`.
    pub fn name(self) -> &'static str {
        match self {
            Fallback::SubqueryPredicate => "subquery_predicate",
            Fallback::UncompilablePredicate => "uncompilable_predicate",
            Fallback::UncompilableColumn => "uncompilable_column",
            Fallback::UncompilableKey => "uncompilable_key",
            Fallback::UncompilableArgument => "uncompilable_argument",
            Fallback::KernelError => "kernel_error",
            Fallback::OuterJoin => "outer_join",
        }
    }
}

/// Which physical path evaluated a box.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BoxPath {
    Batch,
    Row(Fallback),
}

impl std::fmt::Display for BoxPath {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BoxPath::Batch => f.write_str("batch"),
            BoxPath::Row(why) => write!(f, "row({})", why.name()),
        }
    }
}

/// Per box, the output columns some consumer reads. One pass over every
/// expression of the graph: a `ColRef` marks its column of the
/// quantifier's input box, wherever the reference sits (so correlated
/// `outer(q).col` references count). Conservative where width is
/// semantics — the top box, a box that enforces DISTINCT, the arms of
/// a set operation and the members of a recursive component keep every
/// column — and not transitive: a dead column's own references still
/// count.
pub(crate) fn live_columns(
    qgm: &Qgm,
    recursive: impl Fn(BoxId) -> bool,
) -> HashMap<BoxId, Vec<bool>> {
    let mut live: HashMap<BoxId, Vec<bool>> = HashMap::new();
    let ids = qgm.box_ids();
    for &b in &ids {
        let qb = qgm.boxed(b);
        let keep_all = b == qgm.top() || qb.distinct.needs_dedup() || recursive(b);
        live.insert(b, vec![keep_all; qb.arity()]);
    }
    for &b in &ids {
        let qb = qgm.boxed(b);
        let mut note = |e: &ScalarExpr| {
            e.walk(&mut |sub| {
                if let ScalarExpr::ColRef { quant, col } = sub {
                    let cols = live.get_mut(&qgm.quant(*quant).input);
                    if let Some(slot) = cols.and_then(|c| c.get_mut(*col)) {
                        *slot = true;
                    }
                }
            });
        };
        qb.predicates.iter().for_each(&mut note);
        qb.columns.iter().for_each(|c| note(&c.expr));
        match &qb.kind {
            BoxKind::GroupBy(g) => {
                g.group_keys.iter().for_each(&mut note);
                g.aggs
                    .iter()
                    .filter_map(|a| a.arg.as_ref())
                    .for_each(&mut note);
            }
            BoxKind::OuterJoin(oj) => oj.on.iter().for_each(&mut note),
            BoxKind::SetOp(_) => {
                for &q in &qb.quants {
                    if let Some(cols) = live.get_mut(&qgm.quant(q).input) {
                        cols.fill(true);
                    }
                }
            }
            BoxKind::BaseTable { .. } | BoxKind::Select => {}
        }
    }
    live
}
