//! The starmagic executor: evaluates a query graph over the catalog's
//! in-memory tables with SQL bag semantics.
//!
//! Key properties, all load-bearing for the paper's experiments:
//!
//! * **Set-oriented where possible**: every box whose subtree does not
//!   reference outer quantifiers is materialized exactly once and
//!   cached — views and magic tables are computed once, common
//!   subexpressions shared.
//! * **Tuple-at-a-time where forced**: a correlated subquery (a box
//!   referencing outer quantifiers) is re-evaluated for every outer
//!   row, with *no* memoization across bindings — the behaviour of the
//!   paper's "Correlated" baseline, whose instability Table 1
//!   demonstrates.
//! * Hash joins are used whenever equality predicates connect the next
//!   quantifier to already-bound ones (NULL join keys never match);
//!   otherwise nested loops with early predicate application.
//! * Aggregation, duplicate elimination, and set operations follow SQL
//!   semantics exactly (three-valued logic in predicates, NULLs equal
//!   for grouping, `COUNT`=0 vs `SUM`=NULL on empty input, bag
//!   `EXCEPT ALL`/`INTERSECT ALL`).
//! * **Rows only at the root**: every box hands its consumer one
//!   [`Batch`] — a stored table's, or the output columns some consumer
//!   reads ([`boundary`]). Rows are built for the query root, nowhere
//!   else: the scalar evaluator's frame reads positions in batches.
//! * **Lowered once, run many times**: [`Plan::lower`] derives every
//!   data-independent fact — correlation, recursive components, live
//!   columns, join stages, compiled kernels — once
//!   per plan; an execution ([`execute_plan`]) binds the parameter
//!   vector and runs, reading `?N` and outer references from slots.
//! * Recursive boxes (cyclic subgraphs) are evaluated by a semi-naive
//!   fixpoint over column-chunk accumulators, one hashed key set
//!   admitting each row once (naive iteration for the shapes
//!   semi-naive evaluation does not cover).
//!
//! The executor also attributes the rows each operator touches to the
//! QGM box doing the touching ([`ExecProfile`]); the flat [`Metrics`]
//! aggregate survives as the deterministic work metric benchmarks
//! report alongside wall-clock time.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod agg;
pub mod batch;
pub mod boundary;
mod columnar;
mod dedup;
pub mod executor;
mod fixpoint;
pub mod like;
pub mod metrics;
mod plan;
pub mod profile;
mod rowids;
mod vector;

pub use batch::{Batch, Bitmap, Column};
pub use boundary::{BoxPath, Fallback};
pub use executor::{
    execute, execute_plan, execute_with_options, ExecOptions, Executor, IndexCache,
};
pub use metrics::Metrics;
pub use plan::Plan;
pub use profile::{BoxProfile, ExecProfile};
