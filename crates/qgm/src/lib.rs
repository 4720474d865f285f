#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]
pub mod boxes;
pub mod builder;
pub mod colset;
pub mod expr;
pub mod graph;
pub mod ids;
pub mod keys;
pub mod printer;
pub mod render_sql;
pub mod strata;
pub use boxes::*;
pub use builder::build_qgm;
pub use colset::ColSet;
pub use expr::ScalarExpr;
pub use graph::{Edge, Qgm};
pub use ids::{BoxId, QuantId};
pub use starmagic_sql::SetOpKind;
