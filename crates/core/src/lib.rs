//! The Extended Magic-Sets Transformation (EMST) — the paper's
//! primary contribution (§4).
//!
//! EMST is implemented as an ordinary rewrite rule ([`EmstRule`])
//! plugged into the `starmagic-rewrite` engine, exactly as in
//! Starburst: it transforms one QGM box at a time as the cursor
//! traverses the graph depth-first, combining **adornment** and
//! **magic transformation** in a single step (difference (1) of §4
//! from the earlier GMST algorithm).
//!
//! For each quantifier of a box, in the cost-based join order the plan
//! optimizer deposited:
//!
//! 1. the quantifiers *eligible* to pass information in are those
//!    earlier in the join order (Algorithm 4.2 step 1);
//! 2. the box's predicates linking the quantifier to eligible
//!    quantifiers are mapped onto the child's output columns through
//!    the per-operation bindable-columns knowledge (Algorithm 4.1),
//!    giving a **bcf adornment**;
//! 3. the quantifier is retargeted to an **adorned copy** of the child
//!    (memoized per (box, adornment): a second user with the same
//!    adornment shares the copy and its magic box grows into a union);
//! 4. a **supplementary-magic-box** is split off when desirable, a
//!    **magic-box** (`SELECT DISTINCT bindings`) is built from it (or
//!    from copies of the eligible quantifiers), and attached to the
//!    copy — joined in for AMQ operations, linked for NMQ operations;
//!    **condition** (non-equality) bindings attach as an existential
//!    semi-join against a condition-magic-box, which keeps bag
//!    multiplicities exact (our grounded realization of GMST — we can
//!    always ground immediately because the supplementary contents are
//!    relations, not non-ground terms).
//!
//! NMQ boxes (group-by, set operations) are processed when the cursor
//! reaches them: the linked magic box's bindings are translated
//! through the operation (group keys, set-op arms) and pushed into
//! their children, which is how the restriction travels through
//! `avgMgrSal` into `mgrSal` in the running example.

#![forbid(unsafe_code)]

pub mod bindings;
pub mod rule;

pub use rule::{recursive_magic_cases, EmstRule, RecursiveMagic};
