//! The cost-based plan optimizer (§3.2).
//!
//! Starburst's plan optimizer determines, per select box, the optimal
//! join order "using extensive statistical information and cost
//! estimates". EMST consumes exactly that join order. This crate
//! provides the System-R-style machinery:
//!
//! * [`selectivity`] — textbook predicate selectivity estimation from
//!   catalog statistics;
//! * [`cost`] — recursive cardinality and evaluation-cost estimates
//!   over the query graph, counting shared boxes once and charging
//!   correlated subqueries per outer row;
//! * [`joinorder`] — Selinger-style left-deep dynamic-programming join
//!   ordering per select box (greedy fallback above 14 quantifiers),
//!   depositing the chosen order on each box for the EMST rule to use.
//!
//! The paper's two-pass heuristic (plan → rewrite with EMST → replan →
//! keep the cheaper plan) is orchestrated by the `starmagic` engine
//! crate on top of these pieces.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod cost;
pub mod feedback;
pub mod joinorder;
pub mod selectivity;

pub use cost::{estimate_box_rows, estimate_graph_cost, estimate_rows_by_box};
pub use feedback::{bucket_histogram, cardinality_report, CardRow, MisestimateBucket};
pub use joinorder::annotate_join_orders;
