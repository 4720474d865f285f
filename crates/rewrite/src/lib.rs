//! The rule-based query-rewrite engine (§3.1 of the paper).
//!
//! Starburst encodes every query transformation as a rewrite rule; a
//! cursor traverses the query blocks depth-first and a forward-chaining
//! engine applies the enabled rules at each block until fixpoint. This
//! crate provides:
//!
//! * the [`RewriteRule`] trait and the forward-chaining [`engine`];
//! * the traditional rules the paper relies on around EMST — merge
//!   (unfolding), local predicate pushdown (the "local magic rule"),
//!   distinct pullup, redundant-join elimination, and predicate
//!   simplification;
//! * the [`props::OpRegistry`] describing, per box operation, the
//!   AMQ/NMQ property and which output columns predicates can restrict
//!   — the extensibility interface of §5 that EMST consults instead of
//!   hard-coding per-operation behavior.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod engine;
pub mod props;
pub mod rules;

pub use engine::{CheckLevel, RewriteEngine, RewriteStats, RuleContext};
pub use props::{Bindable, OpRegistry};
pub use rules::RewriteRule;
