//! The box boundary: what one box hands the next.
//!
//! A box's result is a [`BoxOutput`]: rows, a [`Batch`], or both, each
//! representation built at most once and only when a consumer asks for
//! it. The select executor (`columnar`), the aggregation kernel and the
//! fixpoint accumulators ask for the batch; the query root, set
//! operations, outer join and subquery tests ask for rows, and so does
//! a select that concatenates a correlated child's results. A select
//! hands over its projection vectors and never builds a row unless one
//! of those reads it; a stored table is both at once — its rows are
//! borrowed in place and its batch lives in the `IndexCache`.
//!
//! [`live_columns`] is the other half of the contract: which output
//! columns of a box some consumer reads, so a select gathers only
//! those.

use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

use starmagic_common::Row;
use starmagic_qgm::{BoxId, BoxKind, Qgm, ScalarExpr};

use crate::batch::{Batch, RowSource};

/// One box's result for one evaluation.
#[derive(Debug)]
pub struct BoxOutput {
    len: usize,
    rows: OnceLock<RowSource>,
    batch: OnceLock<Arc<Batch>>,
}

impl BoxOutput {
    /// A result produced as rows.
    pub(crate) fn from_rows(rows: Vec<Row>) -> BoxOutput {
        BoxOutput::from_source(RowSource::Owned(Arc::new(rows)))
    }

    /// A result that *is* stored rows (a table scan, or an operator
    /// output that is already shared).
    pub(crate) fn from_source(source: RowSource) -> BoxOutput {
        BoxOutput {
            len: source.rows().len(),
            rows: OnceLock::from(source),
            batch: OnceLock::new(),
        }
    }

    /// A result produced as columns (possibly shared, as a fixpoint's
    /// accumulation is with its accumulator).
    pub(crate) fn from_batch(batch: impl Into<Arc<Batch>>) -> BoxOutput {
        let batch = batch.into();
        BoxOutput {
            len: batch.len(),
            rows: OnceLock::new(),
            batch: OnceLock::from(batch),
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the result holds zero rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether asking for rows costs nothing (they exist already).
    pub(crate) fn has_rows(&self) -> bool {
        self.rows.get().is_some()
    }

    /// The result as rows, materialized from the batch on first use.
    pub fn rows(&self) -> &[Row] {
        self.rows
            .get_or_init(|| {
                let batch = self.batch.get().expect("a box output has rows or a batch");
                RowSource::Owned(Arc::new(batch.rows()))
            })
            .rows()
    }

    /// The batch, if this result was produced as one or has been asked
    /// for one before.
    pub(crate) fn built_batch(&self) -> Option<&Arc<Batch>> {
        self.batch.get()
    }

    /// The result as a batch: `stored` when the caller holds a cached
    /// one for these very rows (a stored table's), otherwise one over
    /// the rows, sharing them and building a column on its first read.
    pub(crate) fn batch_or(&self, stored: Option<Arc<Batch>>) -> &Arc<Batch> {
        self.batch.get_or_init(|| {
            stored.unwrap_or_else(|| {
                let source = self.rows.get().expect("a box output has rows or a batch");
                Arc::new(Batch::over(source.clone()))
            })
        })
    }

    /// The rows, by value: moved out when this is the only handle.
    pub(crate) fn into_rows(self: Arc<Self>) -> Vec<Row> {
        self.rows();
        match Arc::try_unwrap(self) {
            Ok(out) => match out.rows.into_inner() {
                Some(RowSource::Owned(rows)) => {
                    Arc::try_unwrap(rows).unwrap_or_else(|r| (*r).clone())
                }
                Some(RowSource::Table(t)) => t.rows().to_vec(),
                None => unreachable!("rows were just materialized"),
            },
            Err(shared) => shared.rows().to_vec(),
        }
    }
}

/// Why a box evaluation ran something row by row: an expression on the
/// scalar evaluator (the first six), or a row-at-a-time operator.
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
    /// The operator is row-at-a-time (set operation, outer join).
    RowOperator,
    /// The result was produced as a batch, then materialized as rows
    /// for a row-at-a-time consumer other than the query root.
    RowOnlyConsumer,
}

impl Fallback {
    pub const ALL: [Fallback; 8] = [
        Fallback::SubqueryPredicate,
        Fallback::UncompilablePredicate,
        Fallback::UncompilableColumn,
        Fallback::UncompilableKey,
        Fallback::UncompilableArgument,
        Fallback::KernelError,
        Fallback::RowOperator,
        Fallback::RowOnlyConsumer,
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
            Fallback::RowOperator => "row_operator",
            Fallback::RowOnlyConsumer => "row_only_consumer",
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
