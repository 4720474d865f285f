//! Catalog and in-memory storage for starmagic.
//!
//! Holds base-table schemas, their rows as typed columns, primary-key metadata (used by
//! the duplicate-freeness inference behind the distinct-pullup rewrite
//! rule), and per-column statistics (used by the cost-based plan
//! optimizer). Also ships seeded synthetic data generators for the
//! benchmark database the paper's Table 1 experiments run against.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod catalog;
pub mod column;
pub mod generator;
pub mod schema;
pub mod stats;
pub mod table;

pub use catalog::{Catalog, ViewDef};
pub use column::{Bitmap, Column};
pub use schema::{ColumnDef, TableSchema};
pub use stats::{ColumnStats, TableStats};
pub use table::Table;
