//! The lint passes, in the order [`crate::lint`] runs them.

pub mod duplicates;
pub mod hygiene;
pub mod magic;
pub mod quantifiers;
pub mod recursion;
pub mod strata;
pub mod structural;
