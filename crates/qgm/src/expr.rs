//! Scalar expressions inside QGM boxes.
//!
//! After the builder resolves names, every column reference points at a
//! (quantifier, output-column-offset) pair. A reference to a quantifier
//! that belongs to a *different* box is a correlation — exactly how QGM
//! "represents correlation predicates by edges between quantifiers in
//! different boxes".

use std::collections::BTreeSet;
use std::fmt;

use starmagic_common::Value;
use starmagic_sql::{AggFunc, BinOp};

use crate::ids::QuantId;

/// A scalar expression over quantifier columns.
#[derive(Debug, Clone, PartialEq)]
pub enum ScalarExpr {
    /// Column `col` of the box that quantifier `quant` ranges over.
    ColRef { quant: QuantId, col: usize },
    /// A literal value.
    Literal(Value),
    /// A parameter marker (`?N` in SQL, 0-based here): a constant
    /// whose value arrives at execution time. Within any single
    /// execution it denotes exactly one non-NULL value, so analyses
    /// may treat it as an (opaque) constant; the executor reads it from
    /// the execution's parameter vector.
    Param(usize),
    /// Binary operation (arithmetic, comparison, AND/OR).
    Bin {
        op: BinOp,
        left: Box<ScalarExpr>,
        right: Box<ScalarExpr>,
    },
    /// Arithmetic negation.
    Neg(Box<ScalarExpr>),
    /// Logical NOT.
    Not(Box<ScalarExpr>),
    /// `expr IS [NOT] NULL`.
    IsNull {
        expr: Box<ScalarExpr>,
        negated: bool,
    },
    /// `expr [NOT] LIKE 'pattern'`.
    Like {
        expr: Box<ScalarExpr>,
        pattern: String,
        negated: bool,
    },
    /// Aggregate call; legal only in the output columns of a group-by
    /// box (`arg == None` is `COUNT(*)`).
    Agg {
        func: AggFunc,
        distinct: bool,
        arg: Option<Box<ScalarExpr>>,
    },
    /// A quantified subquery test over an `E`/`A` quantifier.
    ///
    /// With `mode == Exists`: True when some row of the quantifier's
    /// box makes every predicate True; False when every row makes the
    /// conjunction False (or the box is empty); Unknown otherwise —
    /// exactly SQL's `IN`/`ANY` semantics. Plain `EXISTS` is the
    /// `preds: []` case. With `mode == ForAll`: SQL `ALL` (True on
    /// empty input). `NOT IN` / `NOT EXISTS` wrap this in [`Not`].
    ///
    /// [`Not`]: ScalarExpr::Not
    Quantified {
        mode: QuantMode,
        quant: QuantId,
        /// Predicates referencing the quantifier's columns (and
        /// possibly outer columns).
        preds: Vec<ScalarExpr>,
    },
}

/// Mode of a [`ScalarExpr::Quantified`] test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuantMode {
    /// `∃ row: conj(preds)` with SQL three-valued tallying.
    Exists,
    /// `∀ rows: conj(preds)` (true on empty).
    ForAll,
}

impl ScalarExpr {
    /// Column reference shorthand.
    pub fn col(quant: QuantId, col: usize) -> ScalarExpr {
        ScalarExpr::ColRef { quant, col }
    }

    /// Literal shorthand.
    pub fn lit(v: impl Into<Value>) -> ScalarExpr {
        ScalarExpr::Literal(v.into())
    }

    /// Binary-op shorthand.
    pub fn bin(op: BinOp, l: ScalarExpr, r: ScalarExpr) -> ScalarExpr {
        ScalarExpr::Bin {
            op,
            left: Box::new(l),
            right: Box::new(r),
        }
    }

    /// Equality shorthand (the workhorse of magic joins).
    pub fn eq(l: ScalarExpr, r: ScalarExpr) -> ScalarExpr {
        ScalarExpr::bin(BinOp::Eq, l, r)
    }

    /// Whether this is a literal or a parameter under any number of
    /// negations: one value for the whole execution.
    pub fn is_constant(&self) -> bool {
        match self {
            ScalarExpr::Literal(_) | ScalarExpr::Param(_) => true,
            ScalarExpr::Neg(e) => e.is_constant(),
            _ => false,
        }
    }

    /// Visit every subexpression (preorder).
    pub fn walk<'a>(&'a self, f: &mut impl FnMut(&'a ScalarExpr)) {
        f(self);
        match self {
            ScalarExpr::Bin { left, right, .. } => {
                left.walk(f);
                right.walk(f);
            }
            ScalarExpr::Neg(e) | ScalarExpr::Not(e) => e.walk(f),
            ScalarExpr::IsNull { expr, .. } | ScalarExpr::Like { expr, .. } => expr.walk(f),
            ScalarExpr::Agg { arg: Some(a), .. } => a.walk(f),
            ScalarExpr::Quantified { preds, .. } => {
                for p in preds {
                    p.walk(f);
                }
            }
            _ => {}
        }
    }

    /// All quantifiers referenced anywhere in the expression (including
    /// the subject quantifier of a quantified test).
    pub fn quantifiers(&self) -> BTreeSet<QuantId> {
        let mut set = BTreeSet::new();
        self.walk(&mut |e| match e {
            ScalarExpr::ColRef { quant, .. } => {
                set.insert(*quant);
            }
            ScalarExpr::Quantified { quant, .. } => {
                set.insert(*quant);
            }
            _ => {}
        });
        set
    }

    /// Whether the expression references the given quantifier.
    pub fn references(&self, q: QuantId) -> bool {
        self.quantifiers().contains(&q)
    }

    /// Whether the expression contains an aggregate call.
    pub fn contains_agg(&self) -> bool {
        let mut found = false;
        self.walk(&mut |e| {
            if matches!(e, ScalarExpr::Agg { .. }) {
                found = true;
            }
        });
        found
    }

    /// Rewrite every column reference with `f`, rebuilding the tree.
    /// `f` returns the replacement expression for a `ColRef`.
    pub fn map_colrefs(&self, f: &mut impl FnMut(QuantId, usize) -> ScalarExpr) -> ScalarExpr {
        match self {
            ScalarExpr::ColRef { quant, col } => f(*quant, *col),
            ScalarExpr::Literal(v) => ScalarExpr::Literal(v.clone()),
            ScalarExpr::Param(i) => ScalarExpr::Param(*i),
            ScalarExpr::Bin { op, left, right } => ScalarExpr::Bin {
                op: *op,
                left: Box::new(left.map_colrefs(f)),
                right: Box::new(right.map_colrefs(f)),
            },
            ScalarExpr::Neg(e) => ScalarExpr::Neg(Box::new(e.map_colrefs(f))),
            ScalarExpr::Not(e) => ScalarExpr::Not(Box::new(e.map_colrefs(f))),
            ScalarExpr::IsNull { expr, negated } => ScalarExpr::IsNull {
                expr: Box::new(expr.map_colrefs(f)),
                negated: *negated,
            },
            ScalarExpr::Like {
                expr,
                pattern,
                negated,
            } => ScalarExpr::Like {
                expr: Box::new(expr.map_colrefs(f)),
                pattern: pattern.clone(),
                negated: *negated,
            },
            ScalarExpr::Agg {
                func,
                distinct,
                arg,
            } => ScalarExpr::Agg {
                func: *func,
                distinct: *distinct,
                arg: arg.as_ref().map(|a| Box::new(a.map_colrefs(f))),
            },
            ScalarExpr::Quantified { mode, quant, preds } => ScalarExpr::Quantified {
                mode: *mode,
                quant: *quant,
                preds: preds.iter().map(|p| p.map_colrefs(f)).collect(),
            },
        }
    }

    /// Rewrite every quantifier id (in both column references and
    /// quantified tests) through `map`; ids absent from the map are
    /// kept. Used when copying boxes.
    pub fn remap_quants(&self, map: &std::collections::BTreeMap<QuantId, QuantId>) -> ScalarExpr {
        let mapped = self.map_colrefs(&mut |q, c| ScalarExpr::ColRef {
            quant: map.get(&q).copied().unwrap_or(q),
            col: c,
        });
        // map_colrefs handled ColRefs; now fix Quantified subject ids.
        fn fix(e: ScalarExpr, map: &std::collections::BTreeMap<QuantId, QuantId>) -> ScalarExpr {
            match e {
                ScalarExpr::Quantified { mode, quant, preds } => ScalarExpr::Quantified {
                    mode,
                    quant: map.get(&quant).copied().unwrap_or(quant),
                    preds: preds.into_iter().map(|p| fix(p, map)).collect(),
                },
                ScalarExpr::Bin { op, left, right } => ScalarExpr::Bin {
                    op,
                    left: Box::new(fix(*left, map)),
                    right: Box::new(fix(*right, map)),
                },
                ScalarExpr::Neg(e) => ScalarExpr::Neg(Box::new(fix(*e, map))),
                ScalarExpr::Not(e) => ScalarExpr::Not(Box::new(fix(*e, map))),
                ScalarExpr::IsNull { expr, negated } => ScalarExpr::IsNull {
                    expr: Box::new(fix(*expr, map)),
                    negated,
                },
                ScalarExpr::Like {
                    expr,
                    pattern,
                    negated,
                } => ScalarExpr::Like {
                    expr: Box::new(fix(*expr, map)),
                    pattern,
                    negated,
                },
                ScalarExpr::Agg {
                    func,
                    distinct,
                    arg,
                } => ScalarExpr::Agg {
                    func,
                    distinct,
                    arg: arg.map(|a| Box::new(fix(*a, map))),
                },
                leaf => leaf,
            }
        }
        fix(mapped, map)
    }

    /// Split a predicate into its top-level conjuncts.
    pub fn conjuncts(self) -> Vec<ScalarExpr> {
        match self {
            ScalarExpr::Bin {
                op: BinOp::And,
                left,
                right,
            } => {
                let mut v = left.conjuncts();
                v.extend(right.conjuncts());
                v
            }
            other => vec![other],
        }
    }

    /// If this is an equality between two expressions, return both sides.
    pub fn as_equality(&self) -> Option<(&ScalarExpr, &ScalarExpr)> {
        match self {
            ScalarExpr::Bin {
                op: BinOp::Eq,
                left,
                right,
            } => Some((left, right)),
            _ => None,
        }
    }

    /// If this is a comparison (any of `= <> < <= > >=`), return
    /// `(op, left, right)`.
    pub fn as_comparison(&self) -> Option<(BinOp, &ScalarExpr, &ScalarExpr)> {
        match self {
            ScalarExpr::Bin { op, left, right } if op.is_comparison() => Some((*op, left, right)),
            _ => None,
        }
    }
}

impl fmt::Display for ScalarExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScalarExpr::ColRef { quant, col } => write!(f, "{quant}.{col}"),
            ScalarExpr::Literal(v) => write!(f, "{v}"),
            ScalarExpr::Param(i) => write!(f, "?{}", i + 1),
            ScalarExpr::Bin { op, left, right } => {
                write!(f, "({left} {} {right})", op.sql())
            }
            ScalarExpr::Neg(e) => write!(f, "(-{e})"),
            ScalarExpr::Not(e) => write!(f, "(NOT {e})"),
            ScalarExpr::IsNull { expr, negated } => {
                write!(f, "({expr} IS {}NULL)", if *negated { "NOT " } else { "" })
            }
            ScalarExpr::Like {
                expr,
                pattern,
                negated,
            } => write!(
                f,
                "({expr} {}LIKE '{pattern}')",
                if *negated { "NOT " } else { "" }
            ),
            ScalarExpr::Agg {
                func,
                distinct,
                arg,
            } => match arg {
                Some(a) => write!(
                    f,
                    "{}({}{a})",
                    func.sql(),
                    if *distinct { "DISTINCT " } else { "" }
                ),
                None => write!(f, "COUNT(*)"),
            },
            ScalarExpr::Quantified { mode, quant, preds } => {
                let kw = match mode {
                    QuantMode::Exists => "EXISTS",
                    QuantMode::ForAll => "FORALL",
                };
                write!(f, "{kw}[{quant}](")?;
                for (i, p) in preds.iter().enumerate() {
                    if i > 0 {
                        f.write_str(" AND ")?;
                    }
                    write!(f, "{p}")?;
                }
                f.write_str(")")
            }
        }
    }
}

/// Build the conjunction of a list of predicates (`TRUE` for empty).
pub fn conjunction(mut preds: Vec<ScalarExpr>) -> ScalarExpr {
    match preds.len() {
        0 => ScalarExpr::Literal(Value::Bool(true)),
        1 => preds.pop().expect("len checked"),
        _ => {
            let mut it = preds.into_iter();
            let first = it.next().expect("len checked");
            it.fold(first, |acc, p| ScalarExpr::bin(BinOp::And, acc, p))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(i: u32) -> QuantId {
        QuantId(i)
    }

    #[test]
    fn quantifiers_collects_all_refs() {
        let e = ScalarExpr::eq(ScalarExpr::col(q(1), 0), ScalarExpr::col(q(2), 3));
        let qs = e.quantifiers();
        assert!(qs.contains(&q(1)) && qs.contains(&q(2)));
        assert_eq!(qs.len(), 2);
    }

    #[test]
    fn references_specific_quant() {
        let e = ScalarExpr::col(q(5), 1);
        assert!(e.references(q(5)));
        assert!(!e.references(q(6)));
    }

    #[test]
    fn map_colrefs_substitutes() {
        let e = ScalarExpr::eq(ScalarExpr::col(q(1), 0), ScalarExpr::lit(5i64));
        let out = e.map_colrefs(&mut |_, _| ScalarExpr::col(q(9), 7));
        assert_eq!(
            out,
            ScalarExpr::eq(ScalarExpr::col(q(9), 7), ScalarExpr::lit(5i64))
        );
    }

    #[test]
    fn conjuncts_flattens_nested_ands() {
        let a = ScalarExpr::lit(true);
        let b = ScalarExpr::lit(false);
        let c = ScalarExpr::lit(true);
        let e = ScalarExpr::bin(
            BinOp::And,
            ScalarExpr::bin(BinOp::And, a.clone(), b.clone()),
            c.clone(),
        );
        assert_eq!(e.conjuncts(), vec![a, b, c]);
    }

    #[test]
    fn conjunction_of_empty_is_true() {
        assert_eq!(conjunction(vec![]), ScalarExpr::lit(true));
    }

    #[test]
    fn conjunction_roundtrips_with_conjuncts() {
        let preds = vec![
            ScalarExpr::col(q(0), 0),
            ScalarExpr::col(q(1), 1),
            ScalarExpr::col(q(2), 2),
        ];
        assert_eq!(conjunction(preds.clone()).conjuncts(), preds);
    }

    #[test]
    fn as_equality_matches_only_eq() {
        let e = ScalarExpr::eq(ScalarExpr::col(q(0), 0), ScalarExpr::lit(1i64));
        assert!(e.as_equality().is_some());
        let ne = ScalarExpr::bin(BinOp::Lt, ScalarExpr::col(q(0), 0), ScalarExpr::lit(1i64));
        assert!(ne.as_equality().is_none());
        assert!(ne.as_comparison().is_some());
    }

    #[test]
    fn is_constant_sees_through_negation() {
        let neg = |e: ScalarExpr| ScalarExpr::Neg(Box::new(e));
        assert!(ScalarExpr::lit(1i64).is_constant());
        assert!(neg(neg(ScalarExpr::lit(1i64))).is_constant(), "-(-1)");
        assert!(neg(ScalarExpr::Param(1)).is_constant(), "-?1");
        assert!(!neg(ScalarExpr::col(q(0), 0)).is_constant(), "-col");
        let sum = ScalarExpr::bin(BinOp::Add, ScalarExpr::lit(1i64), ScalarExpr::lit(2i64));
        assert!(!sum.is_constant());
    }

    #[test]
    fn contains_agg_detects_nested() {
        let e = ScalarExpr::bin(
            BinOp::Gt,
            ScalarExpr::Agg {
                func: AggFunc::Avg,
                distinct: false,
                arg: Some(Box::new(ScalarExpr::col(q(0), 1))),
            },
            ScalarExpr::lit(100i64),
        );
        assert!(e.contains_agg());
        assert!(!ScalarExpr::col(q(0), 1).contains_agg());
    }

    #[test]
    fn display_is_readable() {
        let e = ScalarExpr::eq(ScalarExpr::col(q(1), 2), ScalarExpr::lit("x"));
        assert_eq!(e.to_string(), "(Q1.2 = 'x')");
    }
}
