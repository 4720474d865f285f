//! Shared substrate for the starmagic engine: SQL values, rows,
//! data types, three-valued logic, and the common error type.
//!
//! Everything above this crate (catalog, SQL frontend, QGM, optimizer,
//! executor) speaks in terms of [`Value`], [`Row`], [`DataType`], and
//! [`Truth`]. SQL semantics — NULL propagation, three-valued logic,
//! NULL-aware grouping and DISTINCT — are centralized here so that every
//! layer agrees on them.

#![forbid(unsafe_code)]

pub mod error;
pub mod row;
pub mod truth;
pub mod types;
pub mod value;

pub use error::{Error, Result};
pub use row::Row;
pub use truth::Truth;
pub use types::DataType;
pub use value::Value;

// Compile-time proof that the value substrate crosses threads: the
// server's session threads share one engine snapshot — its stored rows,
// cached plans and index cache — and an error is built on the session
// that answers it. `Value`'s strings
// and `Row`'s payload are `Arc`-backed, so all three are `Send + Sync`
// by construction — this breaks the build if a non-thread-safe field
// (an `Rc`, a `Cell`) ever sneaks in.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Value>();
    assert_send_sync::<Row>();
    assert_send_sync::<Error>();
};
