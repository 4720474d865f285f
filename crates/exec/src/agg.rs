//! Aggregation with SQL semantics: NULL inputs are skipped; an empty
//! input yields `COUNT = 0` and NULL for the others; DISTINCT variants
//! deduplicate before accumulating.
//!
//! [`Accumulator`] is the value-at-a-time definition of each aggregate.
//! [`hash_aggregate`] is the executor's one group-by kernel: keys and
//! arguments arrive as [`Vector`]s, every row gets a dense group id in
//! first-appearance order, and each aggregate folds its column into
//! per-group state — through typed loops where those are bit-exact
//! (`COUNT`, `SUM`/`AVG` over an `Int64` or `Float64` column, `MIN`/`MAX`
//! over `Int64`), through one [`Accumulator`] per group everywhere else
//! (DISTINCT, `Mixed` columns, strings). Either way a group folds its
//! inputs **in input order**: `f64` addition does not commute, and the
//! sums feed pinned checksums.

use starmagic_common::{Error, Result, Value};
use starmagic_sql::AggFunc;

use crate::batch::{Batch, Bitmap, Column};
use crate::dedup::{group, key_hash, KeySet};
use crate::vector::Vector;

/// One accumulator instance (per group, per aggregate).
#[derive(Debug, Clone)]
pub struct Accumulator {
    func: AggFunc,
    distinct: bool,
    /// DISTINCT: the values fed so far, and their key set.
    seen: Vec<Value>,
    keys: KeySet,
    count: u64,
    sum: f64,
    sum_is_int: bool,
    int_sum: i64,
    min: Option<Value>,
    max: Option<Value>,
}

impl Accumulator {
    pub fn new(func: AggFunc, distinct: bool) -> Accumulator {
        Accumulator {
            func,
            distinct,
            seen: Vec::new(),
            keys: KeySet::default(),
            count: 0,
            sum: 0.0,
            sum_is_int: true,
            int_sum: 0,
            min: None,
            max: None,
        }
    }

    /// Feed one value. `COUNT(*)` is fed a non-null dummy per row by
    /// the caller.
    pub fn update(&mut self, v: &Value) -> Result<()> {
        if v.is_null() {
            return Ok(()); // NULLs never participate
        }
        if self.distinct {
            let seen = &self.seen;
            if !self
                .keys
                .insert(key_hash(std::slice::from_ref(v)), |k| seen[k] == *v)
            {
                return Ok(());
            }
            self.seen.push(v.clone());
        }
        self.count += 1;
        match self.func {
            AggFunc::Count => {}
            AggFunc::Sum | AggFunc::Avg => match v {
                Value::Int(i) => {
                    self.int_sum = self.int_sum.wrapping_add(*i);
                    self.sum += *i as f64;
                }
                Value::Double(d) => {
                    self.sum_is_int = false;
                    self.sum += d;
                }
                other => {
                    return Err(Error::execution(format!(
                        "{} over non-numeric value {other}",
                        self.func.sql()
                    )))
                }
            },
            AggFunc::Min => {
                let better = self
                    .min
                    .as_ref()
                    .map_or(true, |m| v.group_cmp(m) == std::cmp::Ordering::Less);
                if better {
                    self.min = Some(v.clone());
                }
            }
            AggFunc::Max => {
                let better = self
                    .max
                    .as_ref()
                    .map_or(true, |m| v.group_cmp(m) == std::cmp::Ordering::Greater);
                if better {
                    self.max = Some(v.clone());
                }
            }
        }
        Ok(())
    }

    /// Final value of the aggregate.
    pub fn finish(&self) -> Value {
        match self.func {
            AggFunc::Count => Value::Int(self.count as i64),
            AggFunc::Sum => {
                if self.count == 0 {
                    Value::Null
                } else if self.sum_is_int {
                    Value::Int(self.int_sum)
                } else {
                    Value::Double(self.sum)
                }
            }
            AggFunc::Avg => {
                if self.count == 0 {
                    Value::Null
                } else {
                    Value::Double(self.sum / self.count as f64)
                }
            }
            AggFunc::Min => self.min.clone().unwrap_or(Value::Null),
            AggFunc::Max => self.max.clone().unwrap_or(Value::Null),
        }
    }
}

/// One aggregate of a group-by: its function and argument column
/// (`None` is `COUNT(*)`).
pub(crate) struct AggInput<'a> {
    pub func: AggFunc,
    pub distinct: bool,
    pub arg: Option<&'a Vector>,
}

/// Group the first `n` rows by `keys` and fold `aggs` per group. The
/// output holds one row per group in first-appearance order: the keys
/// gathered at the group's first row, then one column per aggregate; no
/// keys means one global group, present even for `n == 0`. Of several
/// failing aggregates the error of the earliest (row, aggregate) wins:
/// the one the row-at-a-time definition (for each row, every aggregate
/// in turn) meets first.
pub(crate) fn hash_aggregate(keys: &[Vector], aggs: &[AggInput<'_>], n: usize) -> Result<Batch> {
    let (gids, first) = group_ids(keys, n);
    let mut columns: Vec<Option<Column>> = keys
        .iter()
        .map(|k| {
            Some(match k {
                Vector::Col(c) => c.take(&first),
                Vector::Const { value, .. } => Column::constant(value, first.len()),
            })
        })
        .collect();
    let mut failed: Option<(usize, Error)> = None;
    for agg in aggs {
        match fold(agg, &gids, first.len()) {
            Ok(values) => columns.push(Some(Column::from_values(&values))),
            // Strictly earlier row: of two aggregates failing on one
            // row, the first in the list raises.
            Err((row, error)) => {
                if failed.as_ref().map_or(true, |(first, _)| row < *first) {
                    failed = Some((row, error));
                }
            }
        }
    }
    match failed {
        Some((_, error)) => Err(error),
        None => Ok(Batch::from_columns(columns, first.len())),
    }
}

/// Dense group ids for rows `0..n`, numbered in first-appearance order,
/// plus each group's first row ([`group`]). A constant key never splits
/// a group, so it is not hashed at all.
fn group_ids(keys: &[Vector], n: usize) -> (Vec<u32>, Vec<u32>) {
    if keys.is_empty() {
        return (vec![0; n], vec![0]);
    }
    let columns: Vec<&Column> = (keys.iter())
        .filter_map(|k| match k {
            Vector::Col(c) => Some(c),
            Vector::Const { .. } => None,
        })
        .collect();
    let groups = group(&columns, n);
    (groups.ids, groups.first)
}

/// Fold one aggregate over `gids.len()` rows into one value per group,
/// or the first row whose input the aggregate rejects.
fn fold(
    agg: &AggInput<'_>,
    gids: &[u32],
    groups: usize,
) -> std::result::Result<Vec<Value>, (usize, Error)> {
    let valid = |bits: &Option<Bitmap>, k: usize| bits.as_ref().map_or(true, |b| b.get(k));
    if !agg.distinct {
        match (agg.func, agg.arg) {
            // COUNT(*), and COUNT over any column: non-NULL slots.
            (AggFunc::Count, arg) => {
                let mut counts = vec![0i64; groups];
                for (k, &g) in gids.iter().enumerate() {
                    counts[g as usize] += i64::from(arg.map_or(true, |a| !a.is_null_at(k)));
                }
                return Ok(counts.into_iter().map(Value::Int).collect());
            }
            (
                func @ (AggFunc::Sum | AggFunc::Avg),
                Some(Vector::Col(Column::Int64 { values, validity })),
            ) => {
                // The accumulator's two running sums: wrapping i64 for
                // SUM, f64 (added in input order) for AVG.
                let mut ints = vec![0i64; groups];
                let mut sums = vec![0f64; groups];
                let mut counts = vec![0u64; groups];
                for (k, &g) in gids.iter().enumerate() {
                    if valid(validity, k) {
                        let g = g as usize;
                        ints[g] = ints[g].wrapping_add(values[k]);
                        sums[g] += values[k] as f64;
                        counts[g] += 1;
                    }
                }
                return Ok((0..groups)
                    .map(|g| match (counts[g], func) {
                        (0, _) => Value::Null,
                        (_, AggFunc::Sum) => Value::Int(ints[g]),
                        (c, _) => Value::Double(sums[g] / c as f64),
                    })
                    .collect());
            }
            (
                func @ (AggFunc::Sum | AggFunc::Avg),
                Some(Vector::Col(Column::Float64 { values, validity })),
            ) => {
                let mut sums = vec![0f64; groups];
                let mut counts = vec![0u64; groups];
                for (k, &g) in gids.iter().enumerate() {
                    if valid(validity, k) {
                        sums[g as usize] += values[k];
                        counts[g as usize] += 1;
                    }
                }
                return Ok((0..groups)
                    .map(|g| match (counts[g], func) {
                        (0, _) => Value::Null,
                        (_, AggFunc::Sum) => Value::Double(sums[g]),
                        (c, _) => Value::Double(sums[g] / c as f64),
                    })
                    .collect());
            }
            (
                func @ (AggFunc::Min | AggFunc::Max),
                Some(Vector::Col(Column::Int64 { values, validity })),
            ) => {
                let mut best: Vec<Option<i64>> = vec![None; groups];
                for (k, &g) in gids.iter().enumerate() {
                    if valid(validity, k) {
                        let (slot, v) = (&mut best[g as usize], values[k]);
                        let better = slot.map_or(true, |b| match func {
                            AggFunc::Min => v < b,
                            _ => v > b,
                        });
                        if better {
                            *slot = Some(v);
                        }
                    }
                }
                return Ok(best
                    .into_iter()
                    .map(|b| b.map_or(Value::Null, Value::Int))
                    .collect());
            }
            _ => {}
        }
    }
    let mut accs = vec![Accumulator::new(agg.func, agg.distinct); groups];
    let one = Value::Int(1); // what COUNT(*) feeds per row
    for (k, &g) in gids.iter().enumerate() {
        let v = agg.arg.map_or_else(|| one.clone(), |a| a.value_at(k));
        accs[g as usize].update(&v).map_err(|e| (k, e))?;
    }
    Ok(accs.iter().map(Accumulator::finish).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(func: AggFunc, distinct: bool, vals: &[Value]) -> Value {
        let mut a = Accumulator::new(func, distinct);
        for v in vals {
            a.update(v).unwrap();
        }
        a.finish()
    }

    #[test]
    fn count_skips_nulls() {
        let vals = [Value::Int(1), Value::Null, Value::Int(2)];
        assert_eq!(run(AggFunc::Count, false, &vals), Value::Int(2));
    }

    #[test]
    fn sum_int_stays_int() {
        let vals = [Value::Int(1), Value::Int(2)];
        assert_eq!(run(AggFunc::Sum, false, &vals), Value::Int(3));
    }

    #[test]
    fn sum_mixed_promotes() {
        let vals = [Value::Int(1), Value::Double(0.5)];
        assert_eq!(run(AggFunc::Sum, false, &vals), Value::Double(1.5));
    }

    #[test]
    fn empty_input_semantics() {
        assert_eq!(run(AggFunc::Count, false, &[]), Value::Int(0));
        assert_eq!(run(AggFunc::Sum, false, &[]), Value::Null);
        assert_eq!(run(AggFunc::Avg, false, &[]), Value::Null);
        assert_eq!(run(AggFunc::Min, false, &[]), Value::Null);
    }

    #[test]
    fn avg_divides_by_nonnull_count() {
        let vals = [Value::Int(2), Value::Null, Value::Int(4)];
        assert_eq!(run(AggFunc::Avg, false, &vals), Value::Double(3.0));
    }

    #[test]
    fn distinct_dedupes() {
        let vals = [Value::Int(5), Value::Int(5), Value::Int(7)];
        assert_eq!(run(AggFunc::Count, true, &vals), Value::Int(2));
        assert_eq!(run(AggFunc::Sum, true, &vals), Value::Int(12));
    }

    #[test]
    fn min_max() {
        let vals = [Value::str("b"), Value::str("a"), Value::str("c")];
        assert_eq!(run(AggFunc::Min, false, &vals), Value::str("a"));
        assert_eq!(run(AggFunc::Max, false, &vals), Value::str("c"));
    }

    #[test]
    fn sum_over_strings_errors() {
        let mut a = Accumulator::new(AggFunc::Sum, false);
        assert!(a.update(&Value::str("x")).is_err());
    }
}

#[cfg(test)]
mod edge_tests {
    use super::*;

    #[test]
    fn min_max_with_mixed_numeric_types() {
        let mut a = Accumulator::new(AggFunc::Min, false);
        a.update(&Value::Double(1.5)).unwrap();
        a.update(&Value::Int(1)).unwrap();
        assert_eq!(a.finish(), Value::Int(1));
        let mut a = Accumulator::new(AggFunc::Max, false);
        a.update(&Value::Double(1.5)).unwrap();
        a.update(&Value::Int(1)).unwrap();
        assert_eq!(a.finish(), Value::Double(1.5));
    }

    #[test]
    fn avg_of_all_nulls_is_null() {
        let mut a = Accumulator::new(AggFunc::Avg, false);
        a.update(&Value::Null).unwrap();
        a.update(&Value::Null).unwrap();
        assert_eq!(a.finish(), Value::Null);
    }

    #[test]
    fn count_star_dummy_rows() {
        // The executor feeds Int(1) per row for COUNT(*).
        let mut a = Accumulator::new(AggFunc::Count, false);
        for _ in 0..5 {
            a.update(&Value::Int(1)).unwrap();
        }
        assert_eq!(a.finish(), Value::Int(5));
    }

    #[test]
    fn distinct_min_equals_plain_min() {
        let vals = [Value::Int(3), Value::Int(3), Value::Int(1)];
        let mut plain = Accumulator::new(AggFunc::Min, false);
        let mut distinct = Accumulator::new(AggFunc::Min, true);
        for v in &vals {
            plain.update(v).unwrap();
            distinct.update(v).unwrap();
        }
        assert_eq!(plain.finish(), distinct.finish());
    }

    #[test]
    fn sum_distinct_with_numeric_coercion() {
        // 1 and 1.0 are one distinct value under grouping semantics.
        let mut a = Accumulator::new(AggFunc::Sum, true);
        a.update(&Value::Int(1)).unwrap();
        a.update(&Value::Double(1.0)).unwrap();
        a.update(&Value::Int(2)).unwrap();
        assert_eq!(a.finish().as_f64(), Some(3.0));
    }
}

/// [`hash_aggregate`] against the definition it replaces: one
/// [`Accumulator`] per (group, aggregate), fed row by row.
#[cfg(test)]
mod kernel_tests {
    use super::*;
    use proptest::prelude::*;
    use starmagic_common::Row;
    use std::collections::HashMap;

    /// The row-at-a-time group-by: for each row, find or open its
    /// group (first appearance fixes output order and the printed key),
    /// then update every aggregate in turn; the first failing update
    /// fails the query.
    fn reference(
        rows: &[Row],
        keys: &[usize],
        aggs: &[(AggFunc, bool, Option<usize>)],
    ) -> Result<Vec<Row>> {
        let fresh = || -> Vec<Accumulator> {
            aggs.iter()
                .map(|&(func, distinct, _)| Accumulator::new(func, distinct))
                .collect()
        };
        let mut groups: HashMap<Vec<Value>, Vec<Accumulator>> = HashMap::new();
        let mut order: Vec<Vec<Value>> = Vec::new();
        if keys.is_empty() {
            groups.insert(Vec::new(), fresh());
            order.push(Vec::new());
        }
        for row in rows {
            let key: Vec<Value> = keys.iter().map(|&c| row.get(c).clone()).collect();
            let accs = groups.entry(key.clone()).or_insert_with(|| {
                order.push(key);
                fresh()
            });
            for (acc, &(_, _, arg)) in accs.iter_mut().zip(aggs) {
                acc.update(&arg.map_or(Value::Int(1), |c| row.get(c).clone()))?;
            }
        }
        Ok(order
            .into_iter()
            .map(|key| {
                let finished: Vec<Value> = groups[&key].iter().map(Accumulator::finish).collect();
                Row::new(key.into_iter().chain(finished).collect())
            })
            .collect())
    }

    fn kernel(
        rows: &[Row],
        keys: &[usize],
        aggs: &[(AggFunc, bool, Option<usize>)],
    ) -> Result<Vec<Row>> {
        let column = |c: usize| Vector::Col(Column::from_rows(rows, c));
        let key_vectors: Vec<Vector> = keys.iter().map(|&c| column(c)).collect();
        let arg_vectors: Vec<Option<Vector>> =
            aggs.iter().map(|&(_, _, arg)| arg.map(column)).collect();
        let inputs: Vec<AggInput<'_>> = aggs
            .iter()
            .zip(&arg_vectors)
            .map(|(&(func, distinct, _), arg)| AggInput {
                func,
                distinct,
                arg: arg.as_ref(),
            })
            .collect();
        hash_aggregate(&key_vectors, &inputs, rows.len()).map(|groups| groups.rows())
    }

    /// `Debug`, not `==`: [`Value`] equality is grouping equality, under
    /// which `1 == 1.0`; the kernel must return the very variant and
    /// the very bits.
    fn exact(result: &Result<Vec<Row>>) -> String {
        match result {
            Ok(rows) => format!("{rows:?}"),
            Err(e) => format!("error: {e}"),
        }
    }

    /// One column's values. Narrow ranges, so groups repeat and DISTINCT
    /// has duplicates to drop; tenths, so `f64` sums depend on order.
    fn cell(kind: usize) -> BoxedStrategy<Value> {
        let int = || (-3i64..4).prop_map(Value::Int);
        let double = || (-5i64..12).prop_map(|t| Value::Double(t as f64 * 0.1));
        let non_null = match kind {
            0 => int().boxed(),
            1 => double().boxed(),
            2 => "[ab]{0,2}".prop_map(Value::str).boxed(),
            // 1 and 1.0 in one column: a Mixed column, Int-then-Double sums.
            3 => prop_oneof![int(), (-1i64..3).prop_map(|w| Value::Double(w as f64))].boxed(),
            // All NULL.
            4 => Just(Value::Null).boxed(),
            // Mostly numbers, now and then a string: SUM fails mid-way.
            _ => prop_oneof![int(), int(), int(), double(), Just(Value::str("x"))].boxed(),
        };
        prop::option::of(non_null)
            .prop_map(|v| v.unwrap_or(Value::Null))
            .boxed()
    }

    /// Rows of four columns — two key candidates, two argument
    /// candidates — each of a kind drawn per case; zero to 40 rows.
    fn table() -> impl Strategy<Value = Vec<Row>> {
        (0usize..6, 0usize..6, 0usize..6, 0usize..6).prop_flat_map(|(k0, k1, a0, a1)| {
            prop::collection::vec(
                (cell(k0), cell(k1), cell(a0), cell(a1))
                    .prop_map(|(a, b, c, d)| Row::new(vec![a, b, c, d])),
                0..40,
            )
        })
    }

    fn aggregate() -> impl Strategy<Value = (AggFunc, bool, Option<usize>)> {
        let func = prop_oneof![
            Just(AggFunc::Count),
            Just(AggFunc::Sum),
            Just(AggFunc::Avg),
            Just(AggFunc::Min),
            Just(AggFunc::Max)
        ];
        prop_oneof![
            Just((AggFunc::Count, false, None)), // COUNT(*)
            (func, any::<bool>(), 2usize..4).prop_map(|(f, d, c)| (f, d, Some(c)))
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2000))]

        /// Same values, same variants, same float bits, same group
        /// order, same error — whatever the column types.
        #[test]
        fn kernel_agrees_with_the_accumulator_fold(
            rows in table(),
            key_arity in 0usize..3,
            aggs in prop::collection::vec(aggregate(), 1..5),
        ) {
            let keys: Vec<usize> = (0..key_arity).collect();
            let expected = reference(&rows, &keys, &aggs);
            let got = kernel(&rows, &keys, &aggs);
            prop_assert_eq!(exact(&got), exact(&expected));
        }
    }

    fn ints(values: &[Option<i64>]) -> Vec<Row> {
        values
            .iter()
            .map(|v| Row::new(vec![v.map_or(Value::Null, Value::Int)]))
            .collect()
    }

    #[test]
    fn empty_input_yields_one_global_row_and_no_keyed_group() {
        let aggs = [
            (AggFunc::Count, false, None),
            (AggFunc::Sum, false, Some(0)),
        ];
        let global = kernel(&[], &[], &aggs).unwrap();
        assert_eq!(exact(&Ok(global)), "[Row { values: [Int(0), Null] }]");
        assert!(kernel(&[], &[0], &aggs).unwrap().is_empty());
    }

    #[test]
    fn constant_keys_form_one_group_over_rows_and_none_over_no_rows() {
        let constants = |len: usize| {
            [
                Vector::Const {
                    value: Value::Int(7),
                    len,
                },
                Vector::Const {
                    value: Value::str("k"),
                    len,
                },
            ]
        };
        assert_eq!(group_ids(&constants(0), 0), (vec![], vec![]));
        assert_eq!(group_ids(&constants(3), 3), (vec![0, 0, 0], vec![0]));
        let count = [AggInput {
            func: AggFunc::Count,
            distinct: false,
            arg: None,
        }];
        assert_eq!(hash_aggregate(&constants(0), &count, 0).unwrap().len(), 0);
        let out = hash_aggregate(&constants(3), &count, 3).unwrap().rows();
        assert_eq!(
            exact(&Ok(out)),
            r#"[Row { values: [Int(7), Str("k"), Int(3)] }]"#
        );
    }

    /// `Int(2^53 + 1)` rounds onto `Double(2^53)` without equalling it:
    /// GROUP BY and DISTINCT find the same two keys in every row order.
    #[test]
    fn a_rounding_cluster_groups_alike_in_every_order() {
        let exact = 1i64 << 53;
        let cluster = [
            Value::Int(exact + 1),
            Value::Double(exact as f64),
            Value::Int(exact),
        ];
        for order in [
            [0, 1, 2],
            [0, 2, 1],
            [1, 0, 2],
            [1, 2, 0],
            [2, 0, 1],
            [2, 1, 0],
        ] {
            let rows: Vec<Row> = (order.iter())
                .map(|&i| Row::new(vec![cluster[i].clone()]))
                .collect();
            let mut counts: Vec<(Value, Value)> =
                (kernel(&rows, &[0], &[(AggFunc::Count, false, None)]))
                    .unwrap()
                    .iter()
                    .map(|r| (r.get(0).clone(), r.get(1).clone()))
                    .collect();
            counts.sort_by(|a, b| a.0.group_cmp(&b.0));
            let expected = [
                (Value::Int(exact), Value::Int(2)),
                (Value::Int(exact + 1), Value::Int(1)),
            ];
            assert_eq!(counts, expected, "{order:?}");
            let batch = Batch::from_rows(&rows);
            assert_eq!(crate::dedup::distinct_ids(&batch).len(), 2, "{order:?}");
        }
    }

    #[test]
    fn null_keys_form_one_group_in_first_appearance_order() {
        let rows = ints(&[Some(2), None, Some(1), None, Some(2)]);
        let out = kernel(&rows, &[0], &[(AggFunc::Count, false, None)]).unwrap();
        let expected = vec![
            Row::new(vec![Value::Int(2), Value::Int(2)]),
            Row::new(vec![Value::Null, Value::Int(2)]),
            Row::new(vec![Value::Int(1), Value::Int(1)]),
        ];
        assert_eq!(exact(&Ok(out)), exact(&Ok(expected)));
    }

    #[test]
    fn one_and_one_point_zero_share_a_group_and_keep_the_first_spelling() {
        let rows = vec![
            Row::new(vec![Value::Double(1.0), Value::Int(5)]),
            Row::new(vec![Value::Int(1), Value::Double(0.5)]),
        ];
        let out = kernel(&rows, &[0], &[(AggFunc::Sum, false, Some(1))]).unwrap();
        assert_eq!(
            exact(&Ok(out)),
            "[Row { values: [Double(1.0), Double(5.5)] }]"
        );
    }

    #[test]
    fn sum_over_a_string_reports_the_accumulators_error() {
        let rows = vec![
            Row::new(vec![Value::Int(1), Value::str("x")]),
            Row::new(vec![Value::Int(1), Value::str("y")]),
        ];
        let aggs = [
            (AggFunc::Max, false, Some(1)),
            (AggFunc::Sum, false, Some(1)),
        ];
        let err = kernel(&rows, &[0], &aggs).unwrap_err();
        assert_eq!(
            err.to_string(),
            reference(&rows, &[0], &aggs).unwrap_err().to_string()
        );
        assert!(
            err.to_string().contains("SUM over non-numeric value"),
            "{err}"
        );
    }

    #[test]
    fn of_two_failing_aggregates_the_earlier_row_wins() {
        // AVG (listed second) fails on row 0, SUM (listed first) on
        // row 1: row-at-a-time evaluation meets AVG's error first.
        let rows = vec![
            Row::new(vec![Value::Int(1), Value::str("avg-first")]),
            Row::new(vec![Value::str("sum-second"), Value::Int(1)]),
        ];
        let aggs = [
            (AggFunc::Sum, false, Some(0)),
            (AggFunc::Avg, false, Some(1)),
        ];
        let err = kernel(&rows, &[], &aggs).unwrap_err().to_string();
        assert!(err.contains("AVG") && err.contains("avg-first"), "{err}");
        assert_eq!(err, reference(&rows, &[], &aggs).unwrap_err().to_string());
    }
}
