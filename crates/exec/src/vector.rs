//! Vectorized scalar expressions over columnar batches.
//!
//! [`compile`] lowers a [`ScalarExpr`] to a [`VExpr`] once per plan:
//! column references to *local* foreach quantifiers become slot/column
//! pairs, parameters and references to any other quantifier become
//! constant slots ([`VExpr::Param`], [`VExpr::Outer`]), and anything
//! that would need the executor (aggregates, quantified tests) refuses
//! to compile, which leaves that expression to the scalar evaluator,
//! row by row. An outer reference is read from the frame once per
//! evaluation ([`OuterRefs::resolve`]); one that the frame does not
//! bind leaves the kernel reading it unusable for that evaluation,
//! exactly as if it had not compiled.
//!
//! [`eval`] evaluates a [`VExpr`] for a set of row positions,
//! producing a [`Vector`] column-at-a-time. Each operator is defined
//! once, on values ([`bin_values`], [`neg_value`], [`like_value`]), and
//! both evaluators run that definition: a kernel's generic loop calls
//! it per slot, and the executor's scalar evaluator per row, keeping
//! only its AND/OR short-circuits and its subquery arms. Typed fast
//! paths exist only where they are bit-exact (`i64`/`i64` comparison
//! and arithmetic, string comparison). Errors need no such
//! care: a kernel evaluates every (row, sub-expression) pair, where the
//! scalar evaluator short-circuits, so its caller treats any kernel
//! error as "ask the scalar evaluator", which decides whether the query
//! really fails (the select executor's "Kernels of last resort").

use std::sync::Arc;

use starmagic_common::{Error, Result, Truth, Value};
use starmagic_qgm::{QuantId, ScalarExpr};
use starmagic_sql::BinOp;

use crate::batch::{Batch, Bitmap, Column};
use crate::executor::{truth_of, truth_to_value, Frame};
use crate::like::like_match;

/// A compiled vectorized expression.
#[derive(Debug, Clone)]
pub(crate) enum VExpr {
    /// Column `col` of the batch bound to `slot`.
    Col {
        slot: usize,
        col: usize,
    },
    /// A literal.
    Lit(Value),
    /// Parameter `?N` (0-based), read from the bound values.
    Param(usize),
    /// Outer reference `k` of the program ([`OuterRefs`]), read from
    /// the frame once per evaluation.
    Outer(usize),
    Bin {
        op: BinOp,
        left: Box<VExpr>,
        right: Box<VExpr>,
    },
    Neg(Box<VExpr>),
    Not(Box<VExpr>),
    IsNull {
        expr: Box<VExpr>,
        negated: bool,
    },
    Like {
        expr: Box<VExpr>,
        pattern: String,
        negated: bool,
    },
}

impl VExpr {
    /// Whether evaluating this node can fail or cost more than a copy:
    /// a bare column or constant cannot.
    pub(crate) fn is_leaf(&self) -> bool {
        matches!(
            self,
            VExpr::Col { .. } | VExpr::Lit(_) | VExpr::Param(_) | VExpr::Outer(_)
        )
    }

    /// The outer references this expression reads.
    pub(crate) fn outer_slots(&self) -> Vec<usize> {
        fn walk(e: &VExpr, out: &mut Vec<usize>) {
            match e {
                VExpr::Outer(k) => out.push(*k),
                VExpr::Col { .. } | VExpr::Lit(_) | VExpr::Param(_) => {}
                VExpr::Bin { left, right, .. } => {
                    walk(left, out);
                    walk(right, out);
                }
                VExpr::Neg(x)
                | VExpr::Not(x)
                | VExpr::IsNull { expr: x, .. }
                | VExpr::Like { expr: x, .. } => walk(x, out),
            }
        }
        let mut out = Vec::new();
        walk(self, &mut out);
        out
    }
}

/// The columns of quantifiers outside a program's own slots that its
/// kernels read, numbered in first-use order (`VExpr::Outer(k)`).
#[derive(Debug, Default)]
pub(crate) struct OuterRefs(Vec<(QuantId, usize)>);

impl OuterRefs {
    fn slot(&mut self, quant: QuantId, col: usize) -> usize {
        match self.0.iter().position(|&r| r == (quant, col)) {
            Some(k) => k,
            None => {
                self.0.push((quant, col));
                self.0.len() - 1
            }
        }
    }

    /// One evaluation's values, `None` where the frame binds no row.
    pub(crate) fn resolve(&self, frame: &Frame<'_>) -> Vec<Option<Value>> {
        self.0
            .iter()
            .map(|&(quant, col)| frame.value(quant, col))
            .collect()
    }
}

/// What a kernel reads besides its batches: the bound parameters and
/// one evaluation's outer values.
#[derive(Clone, Copy, Default)]
pub(crate) struct Env<'a> {
    pub params: &'a [Value],
    pub outer: &'a [Option<Value>],
}

/// Lower `e` for vectorized evaluation, or `None` when it needs the
/// executor. `slot_of` maps the box's bound foreach quantifiers to
/// batch slots; any other quantifier's column is registered in `outer`.
pub(crate) fn compile(
    e: &ScalarExpr,
    slot_of: &dyn Fn(QuantId) -> Option<usize>,
    outer: &mut OuterRefs,
) -> Option<VExpr> {
    let mut sub = |x: &ScalarExpr| compile(x, slot_of, outer).map(Box::new);
    Some(match e {
        ScalarExpr::ColRef { quant, col } => match slot_of(*quant) {
            Some(slot) => VExpr::Col { slot, col: *col },
            None => VExpr::Outer(outer.slot(*quant, *col)),
        },
        ScalarExpr::Literal(v) => VExpr::Lit(v.clone()),
        ScalarExpr::Param(i) => VExpr::Param(*i),
        ScalarExpr::Bin { op, left, right } => VExpr::Bin {
            op: *op,
            left: sub(left)?,
            right: sub(right)?,
        },
        ScalarExpr::Neg(x) => VExpr::Neg(sub(x)?),
        ScalarExpr::Not(x) => VExpr::Not(sub(x)?),
        ScalarExpr::IsNull { expr, negated } => VExpr::IsNull {
            expr: sub(expr)?,
            negated: *negated,
        },
        ScalarExpr::Like {
            expr,
            pattern,
            negated,
        } => VExpr::Like {
            expr: sub(expr)?,
            pattern: pattern.clone(),
            negated: *negated,
        },
        ScalarExpr::Agg { .. } | ScalarExpr::Quantified { .. } => return None,
    })
}

/// Which rows an operation reads: every one of `0..n`, never built as a
/// list, or the listed ones in order. Both the positions of a join
/// state and a slot's ids into its batch are selections.
#[derive(Clone, Copy)]
pub(crate) enum Sel<'a> {
    All(usize),
    Ids(&'a [u32]),
}

impl<'a> Sel<'a> {
    pub fn len(self) -> usize {
        match self {
            Sel::All(n) => n,
            Sel::Ids(ids) => ids.len(),
        }
    }

    pub fn is_empty(self) -> bool {
        self.len() == 0
    }

    /// The `k`-th selected row.
    pub fn get(self, k: usize) -> u32 {
        match self {
            Sel::All(_) => k as u32,
            Sel::Ids(ids) => ids[k],
        }
    }

    pub fn iter(self) -> impl Iterator<Item = u32> + 'a {
        (0..self.len()).map(move |k| self.get(k))
    }
}

/// One bound quantifier during columnar evaluation: the source batch
/// plus the ids selecting (late materialization) which batch row each
/// combination holds.
pub(crate) struct SlotView<'a> {
    pub batch: &'a Batch,
    pub ids: Sel<'a>,
}

/// The result of evaluating a [`VExpr`] over `positions`: a gathered
/// column, or an unexpanded constant (literals stay O(1)).
pub(crate) enum Vector {
    Col(Column),
    Const { value: Value, len: usize },
}

impl Vector {
    pub fn len(&self) -> usize {
        match self {
            Vector::Col(c) => c.len(),
            Vector::Const { len, .. } => *len,
        }
    }

    /// The vector as a column of its own, constants expanded.
    pub fn into_column(self) -> Column {
        match self {
            Vector::Col(c) => c,
            Vector::Const { value, len } => Column::constant(&value, len),
        }
    }

    /// The value at slot `k` (cheap clone).
    pub fn value_at(&self, k: usize) -> Value {
        match self {
            Vector::Col(c) => c.value(k),
            Vector::Const { value, .. } => value.clone(),
        }
    }

    pub fn is_null_at(&self, k: usize) -> bool {
        match self {
            Vector::Col(c) => c.is_null(k),
            Vector::Const { value, .. } => value.is_null(),
        }
    }

    /// SQL truth of slot `k` (invalid boolean slots are Unknown).
    pub fn truth_at(&self, k: usize) -> Truth {
        match self {
            Vector::Col(Column::Bool { values, validity }) => {
                if validity.as_ref().is_some_and(|v| !v.get(k)) {
                    Truth::Unknown
                } else {
                    values[k].into()
                }
            }
            v => truth_of(&v.value_at(k)),
        }
    }

    /// Whether slot `k` passes as a predicate (True only).
    pub fn passes_at(&self, k: usize) -> bool {
        self.truth_at(k) == Truth::True
    }
}

/// Evaluate `e` at each of `positions` (indexes into the slots' ids),
/// producing a vector of `positions.len()` slots.
pub(crate) fn eval(
    e: &VExpr,
    slots: &[SlotView<'_>],
    positions: Sel<'_>,
    env: Env<'_>,
) -> Result<Vector> {
    let sub = |x: &VExpr| eval(x, slots, positions, env);
    let constant = |value: Option<&Value>| match value {
        Some(value) => Ok(Vector::Const {
            value: value.clone(),
            len: positions.len(),
        }),
        None => Err(Error::internal("a kernel read an unbound constant slot")),
    };
    match e {
        VExpr::Col { slot, col } => {
            let sv = &slots[*slot];
            if sv.batch.is_empty() {
                // An empty batch has no typed columns (arity unknowable
                // from zero rows), but its id list is empty too, so the
                // gather is vacuously an empty column.
                debug_assert!(positions.is_empty());
                return Ok(Vector::Col(Column::Mixed(Vec::new())));
            }
            let column = sv.batch.column(*col);
            Ok(Vector::Col(match (positions, sv.ids) {
                (Sel::All(_), Sel::All(_)) => column.clone(),
                (Sel::All(_), Sel::Ids(ids)) | (Sel::Ids(ids), Sel::All(_)) => column.take(ids),
                (Sel::Ids(positions), Sel::Ids(ids)) => {
                    let resolved: Vec<u32> = positions.iter().map(|&p| ids[p as usize]).collect();
                    column.take(&resolved)
                }
            }))
        }
        VExpr::Lit(v) => constant(Some(v)),
        VExpr::Param(i) => constant(env.params.get(*i)),
        VExpr::Outer(k) => constant(env.outer.get(*k).and_then(Option::as_ref)),
        VExpr::Bin { op, left, right } => {
            let l = sub(left)?;
            let r = sub(right)?;
            eval_bin(*op, &l, &r)
        }
        VExpr::Neg(x) => map_values(&sub(x)?, |val| neg_value(&val)),
        VExpr::Not(x) => {
            let v = sub(x)?;
            if let Vector::Const { value, len } = &v {
                return Ok(Vector::Const {
                    value: truth_to_value(truth_of(value).not()),
                    len: *len,
                });
            }
            let n = v.len();
            let mut out = TruthBuilder::new(n);
            for k in 0..n {
                out.push(k, v.truth_at(k).not());
            }
            Ok(out.finish())
        }
        VExpr::IsNull { expr, negated } => {
            let v = sub(expr)?;
            if let Vector::Const { value, len } = &v {
                return Ok(Vector::Const {
                    value: Value::Bool(value.is_null() != *negated),
                    len: *len,
                });
            }
            let n = v.len();
            let values = (0..n).map(|k| v.is_null_at(k) != *negated).collect();
            Ok(Vector::Col(Column::Bool {
                values,
                validity: None,
            }))
        }
        VExpr::Like {
            expr,
            pattern,
            negated,
        } => map_values(&sub(expr)?, |val| like_value(val, pattern, *negated)),
    }
}

/// Elementwise map through a value-level function, collapsing constant
/// inputs to constant outputs.
fn map_values(v: &Vector, f: impl Fn(Value) -> Result<Value>) -> Result<Vector> {
    if let Vector::Const { value, len } = v {
        return Ok(Vector::Const {
            value: f(value.clone())?,
            len: *len,
        });
    }
    let n = v.len();
    let mut out = Vec::with_capacity(n);
    for k in 0..n {
        out.push(f(v.value_at(k))?);
    }
    Ok(Vector::Col(Column::Mixed(out)))
}

/// Accumulates a three-valued result column (Unknown = invalid slot).
struct TruthBuilder {
    values: Vec<bool>,
    validity: Option<Bitmap>,
    len: usize,
}

impl TruthBuilder {
    fn new(len: usize) -> TruthBuilder {
        TruthBuilder {
            values: vec![false; len],
            validity: None,
            len,
        }
    }

    fn push(&mut self, k: usize, t: Truth) {
        match t {
            Truth::True => self.values[k] = true,
            Truth::False => {}
            Truth::Unknown => self
                .validity
                .get_or_insert_with(|| Bitmap::filled(self.len, true))
                .set(k, false),
        }
    }

    fn finish(self) -> Vector {
        Vector::Col(Column::Bool {
            values: self.values,
            validity: self.validity,
        })
    }
}

/// A unified view of an `i64` operand: typed column slice or constant.
enum I64View<'a> {
    Slice(&'a [i64], Option<&'a Bitmap>),
    Scalar(i64),
}

impl I64View<'_> {
    fn get(&self, k: usize) -> i64 {
        match self {
            I64View::Slice(v, _) => v[k],
            I64View::Scalar(c) => *c,
        }
    }

    fn valid(&self, k: usize) -> bool {
        match self {
            I64View::Slice(_, validity) => validity.map_or(true, |v| v.get(k)),
            I64View::Scalar(_) => true,
        }
    }
}

fn i64_view(v: &Vector) -> Option<I64View<'_>> {
    match v {
        Vector::Col(Column::Int64 { values, validity }) => {
            Some(I64View::Slice(values, validity.as_ref()))
        }
        Vector::Const {
            value: Value::Int(c),
            ..
        } => Some(I64View::Scalar(*c)),
        _ => None,
    }
}

/// A unified view of a string operand.
enum StrView<'a> {
    Slice(&'a [Arc<str>], Option<&'a Bitmap>),
    Scalar(&'a str),
}

impl StrView<'_> {
    fn get(&self, k: usize) -> &str {
        match self {
            StrView::Slice(v, _) => &v[k],
            StrView::Scalar(c) => c,
        }
    }

    fn valid(&self, k: usize) -> bool {
        match self {
            StrView::Slice(_, validity) => validity.map_or(true, |v| v.get(k)),
            StrView::Scalar(_) => true,
        }
    }
}

fn str_view(v: &Vector) -> Option<StrView<'_>> {
    match v {
        Vector::Col(Column::Str { values, validity }) => {
            Some(StrView::Slice(values, validity.as_ref()))
        }
        Vector::Const {
            value: Value::Str(c),
            ..
        } => Some(StrView::Scalar(c)),
        _ => None,
    }
}

/// Truth of an already-decided ordering under a comparison operator.
fn cmp_passes(op: BinOp, ord: std::cmp::Ordering) -> bool {
    use std::cmp::Ordering::{Equal, Greater, Less};
    match op {
        BinOp::Eq => ord == Equal,
        BinOp::Neq => ord != Equal,
        BinOp::Lt => ord == Less,
        BinOp::Le => ord != Greater,
        BinOp::Gt => ord == Greater,
        BinOp::Ge => ord != Less,
        _ => unreachable!("cmp_passes on non-comparison"),
    }
}

/// A comparison of two values in SQL's three-valued logic.
fn compare(op: BinOp, l: &Value, r: &Value) -> Truth {
    match op {
        BinOp::Eq => l.sql_eq(r),
        BinOp::Neq => l.sql_eq(r).not(),
        _ => l
            .sql_cmp(r)
            .map_or(Truth::Unknown, |ord| cmp_passes(op, ord).into()),
    }
}

/// The binary operator `op` on two computed operands: its one
/// definition. The scalar evaluator's AND/OR short-circuits are pure
/// evaluation-avoidance: the produced value is identical.
pub(crate) fn bin_values(op: BinOp, l: &Value, r: &Value) -> Result<Value> {
    match op {
        BinOp::And => Ok(truth_to_value(truth_of(l).and(truth_of(r)))),
        BinOp::Or => Ok(truth_to_value(truth_of(l).or(truth_of(r)))),
        BinOp::Add => l.arith('+', r),
        BinOp::Sub => l.arith('-', r),
        BinOp::Mul => l.arith('*', r),
        BinOp::Div => l.arith('/', r),
        _ => Ok(truth_to_value(compare(op, l, r))),
    }
}

/// Unary minus; NULL stays NULL.
pub(crate) fn neg_value(v: &Value) -> Result<Value> {
    v.neg()
        .ok_or_else(|| Error::execution(format!("cannot negate {v}")))
}

/// `v LIKE pattern`, or `NOT LIKE` when `negated`; NULL stays NULL.
pub(crate) fn like_value(v: Value, pattern: &str, negated: bool) -> Result<Value> {
    match v {
        Value::Null => Ok(Value::Null),
        Value::Str(s) => Ok(Value::Bool(like_match(&s, pattern) != negated)),
        other => Err(Error::execution(format!("LIKE on non-string {other}"))),
    }
}

fn eval_bin(op: BinOp, l: &Vector, r: &Vector) -> Result<Vector> {
    let n = l.len();
    debug_assert_eq!(n, r.len());
    if let (Vector::Const { value: lv, .. }, Vector::Const { value: rv, .. }) = (l, r) {
        return Ok(Vector::Const {
            value: bin_values(op, lv, rv)?,
            len: n,
        });
    }
    match op {
        BinOp::And | BinOp::Or => {
            let mut out = TruthBuilder::new(n);
            for k in 0..n {
                let (lt, rt) = (l.truth_at(k), r.truth_at(k));
                out.push(
                    k,
                    if op == BinOp::And {
                        lt.and(rt)
                    } else {
                        lt.or(rt)
                    },
                );
            }
            Ok(out.finish())
        }
        BinOp::Eq | BinOp::Neq | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
            // i64/i64 and str/str orderings agree exactly with
            // `sql_cmp`/`sql_eq` on those types, so the typed loops are
            // bit-exact.
            if let (Some(a), Some(b)) = (i64_view(l), i64_view(r)) {
                let mut out = TruthBuilder::new(n);
                for k in 0..n {
                    if a.valid(k) && b.valid(k) {
                        out.push(k, cmp_passes(op, a.get(k).cmp(&b.get(k))).into());
                    } else {
                        out.push(k, Truth::Unknown);
                    }
                }
                return Ok(out.finish());
            }
            if let (Some(a), Some(b)) = (str_view(l), str_view(r)) {
                let mut out = TruthBuilder::new(n);
                for k in 0..n {
                    if a.valid(k) && b.valid(k) {
                        out.push(k, cmp_passes(op, a.get(k).cmp(b.get(k))).into());
                    } else {
                        out.push(k, Truth::Unknown);
                    }
                }
                return Ok(out.finish());
            }
            let mut out = TruthBuilder::new(n);
            for k in 0..n {
                out.push(k, compare(op, &l.value_at(k), &r.value_at(k)));
            }
            Ok(out.finish())
        }
        BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div => {
            if let (Some(a), Some(b)) = (i64_view(l), i64_view(r)) {
                let mut values = vec![0i64; n];
                let mut validity: Option<Bitmap> = None;
                for (k, slot) in values.iter_mut().enumerate() {
                    // NULL propagates before the zero check, exactly
                    // like `Value::arith`.
                    if !(a.valid(k) && b.valid(k)) {
                        validity
                            .get_or_insert_with(|| Bitmap::filled(n, true))
                            .set(k, false);
                        continue;
                    }
                    let (x, y) = (a.get(k), b.get(k));
                    *slot = match op {
                        BinOp::Add => x.wrapping_add(y),
                        BinOp::Sub => x.wrapping_sub(y),
                        BinOp::Mul => x.wrapping_mul(y),
                        BinOp::Div => {
                            if y == 0 {
                                return Err(Error::execution("division by zero"));
                            }
                            x.wrapping_div(y)
                        }
                        _ => unreachable!(),
                    };
                }
                return Ok(Vector::Col(Column::Int64 { values, validity }));
            }
            let mut out = Vec::with_capacity(n);
            for k in 0..n {
                out.push(bin_values(op, &l.value_at(k), &r.value_at(k))?);
            }
            Ok(Vector::Col(Column::Mixed(out)))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use starmagic_common::Row;

    fn batch() -> Batch {
        Batch::from_rows(&[
            Row::new(vec![Value::Int(1), Value::str("aa"), Value::Double(0.5)]),
            Row::new(vec![Value::Int(2), Value::Null, Value::Double(1.5)]),
            Row::new(vec![Value::Null, Value::str("bb"), Value::Null]),
            Row::new(vec![Value::Int(4), Value::str("aa"), Value::Double(4.0)]),
        ])
    }

    fn col(c: usize) -> VExpr {
        VExpr::Col { slot: 0, col: c }
    }

    fn lit(v: Value) -> VExpr {
        VExpr::Lit(v)
    }

    fn bin(op: BinOp, l: VExpr, r: VExpr) -> VExpr {
        VExpr::Bin {
            op,
            left: Box::new(l),
            right: Box::new(r),
        }
    }

    fn run(e: &VExpr) -> Vector {
        let b = batch();
        let all = Sel::All(b.len());
        let slots = [SlotView {
            batch: &b,
            ids: all,
        }];
        eval(e, &slots, all, Env::default()).expect("eval")
    }

    #[test]
    fn typed_int_comparison_with_nulls() {
        let v = run(&bin(BinOp::Gt, col(0), lit(Value::Int(1))));
        assert_eq!(v.truth_at(0), Truth::False);
        assert_eq!(v.truth_at(1), Truth::True);
        assert_eq!(v.truth_at(2), Truth::Unknown);
        assert_eq!(v.truth_at(3), Truth::True);
    }

    #[test]
    fn string_equality_and_like() {
        let v = run(&bin(BinOp::Eq, col(1), lit(Value::str("aa"))));
        assert!(v.passes_at(0));
        assert_eq!(v.truth_at(1), Truth::Unknown);
        assert!(!v.passes_at(2));
        let l = run(&VExpr::Like {
            expr: Box::new(col(1)),
            pattern: "a%".into(),
            negated: false,
        });
        assert!(l.passes_at(0));
        assert_eq!(l.truth_at(1), Truth::Unknown);
        assert!(!l.passes_at(2));
    }

    #[test]
    fn typed_arithmetic_matches_value_arith() {
        let v = run(&bin(BinOp::Add, col(0), lit(Value::Int(10))));
        assert_eq!(v.value_at(0), Value::Int(11));
        assert!(v.is_null_at(2));
        // Division by zero errors (the caller asks the scalar evaluator).
        let b = batch();
        let all = Sel::All(b.len());
        let slots = [SlotView {
            batch: &b,
            ids: all,
        }];
        assert!(eval(
            &bin(BinOp::Div, col(0), lit(Value::Int(0))),
            &slots,
            all,
            Env::default()
        )
        .is_err());
    }

    #[test]
    fn kleene_and_or_not() {
        // (col0 > 1) AND (col2 < 2.0): mixes True/False/Unknown.
        let e = bin(
            BinOp::And,
            bin(BinOp::Gt, col(0), lit(Value::Int(1))),
            bin(BinOp::Lt, col(2), lit(Value::Double(2.0))),
        );
        let v = run(&e);
        assert_eq!(v.truth_at(0), Truth::False);
        assert_eq!(v.truth_at(1), Truth::True);
        assert_eq!(v.truth_at(2), Truth::Unknown);
        assert_eq!(v.truth_at(3), Truth::False);
        let not = run(&VExpr::Not(Box::new(bin(
            BinOp::Gt,
            col(0),
            lit(Value::Int(1)),
        ))));
        assert_eq!(not.truth_at(0), Truth::True);
        assert_eq!(not.truth_at(1), Truth::False);
        assert_eq!(not.truth_at(2), Truth::Unknown);
    }

    #[test]
    fn is_null_never_unknown() {
        let v = run(&VExpr::IsNull {
            expr: Box::new(col(0)),
            negated: false,
        });
        assert!(!v.passes_at(0));
        assert!(v.passes_at(2));
        assert!(!v.is_null_at(2));
    }

    #[test]
    fn a_gather_reads_every_kind_of_selection_alike() {
        let b = batch();
        let ids = [3, 0, 2, 3];
        let positions = [1, 3];
        let gather = |ids: Sel<'_>, positions: Sel<'_>| {
            let slots = [SlotView { batch: &b, ids }];
            let v = eval(&col(1), &slots, positions, Env::default()).expect("eval");
            (0..v.len()).map(|k| v.value_at(k)).collect::<Vec<_>>()
        };
        let column = |rows: &[u32]| -> Vec<Value> {
            let rows = rows.iter().map(|&i| b.value(1, i as usize));
            rows.collect()
        };
        assert_eq!(gather(Sel::All(4), Sel::All(4)), column(&[0, 1, 2, 3]));
        assert_eq!(gather(Sel::Ids(&ids), Sel::All(4)), column(&ids));
        assert_eq!(
            gather(Sel::All(4), Sel::Ids(&positions)),
            column(&positions)
        );
        assert_eq!(
            gather(Sel::Ids(&ids), Sel::Ids(&positions)),
            column(&[0, 3])
        );
        assert_eq!(Sel::Ids(&positions).iter().collect::<Vec<_>>(), positions);
        assert_eq!(Sel::All(3).iter().collect::<Vec<_>>(), [0, 1, 2]);
    }

    #[test]
    fn constants_stay_constant() {
        let v = run(&bin(BinOp::Add, lit(Value::Int(2)), lit(Value::Int(3))));
        assert!(matches!(
            v,
            Vector::Const {
                value: Value::Int(5),
                ..
            }
        ));
        assert_eq!(v.len(), 4);
    }
}
