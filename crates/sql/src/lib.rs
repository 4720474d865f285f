//! SQL frontend for starmagic: lexer, AST, and recursive-descent
//! parser for the Starburst SQL subset the paper works with —
//! `SELECT ... FROM ... WHERE ... GROUP BY ... HAVING`, `DISTINCT`,
//! `UNION`/`EXCEPT`/`INTERSECT` (with and without `ALL`), views,
//! subqueries (`EXISTS`, `IN`, quantified and scalar, correlated),
//! aggregates, `BETWEEN`, `LIKE`, `IS NULL`, and NULL literals.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod ast;
pub mod lexer;
pub mod params;
pub mod parser;
pub mod printer;
pub mod token;

pub use ast::*;
pub use params::{param_count, parameterize, Parameterized};
pub use parser::{parse_query, parse_statement};
pub use printer::{expr_sql, query_sql, statement_sql};
