//! The traditional rewrite rules (everything except EMST, which lives
//! in the `starmagic-magic` crate but implements the same trait).

use starmagic_common::Result;
use starmagic_qgm::BoxId;

use crate::engine::RuleContext;

pub mod distinct_pullup;
pub mod merge;
pub mod pushdown;
pub mod redundant_join;
pub mod simplify;

pub use distinct_pullup::DistinctPullup;
pub use merge::Merge;
pub use pushdown::LocalPredicatePushdown;
pub use redundant_join::RedundantSelfJoin;
pub use simplify::SimplifyPredicates;

/// A query-rewrite rule. The engine offers the rule one box at a time;
/// the rule mutates the graph through the context and reports whether
/// it changed anything.
pub trait RewriteRule {
    /// Stable rule name, used in statistics and EXPLAIN output.
    fn name(&self) -> &'static str;
    /// Try to apply the rule at box `b`. Must be a no-op (returning
    /// `false`) when the rule does not match, and idempotent under
    /// repeated application (the engine runs to fixpoint).
    fn apply(&self, ctx: &mut RuleContext<'_>, b: BoxId) -> Result<bool>;
}
