//! Column and table statistics for the cost-based plan optimizer.
//!
//! The paper's cost heuristic (§3.2) relies on the plan optimizer having
//! "extensive statistical information and cost estimates". We keep the
//! classic System-R statistics: row count per table, and per column the
//! number of distinct values, min/max (for range selectivity), and the
//! null count.

use std::cmp::Ordering;
use std::collections::HashSet;

use starmagic_common::{Row, Value};

use crate::column::Column;

/// Statistics for a single column.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnStats {
    /// Number of distinct non-null values.
    pub ndv: u64,
    /// Number of NULLs.
    pub nulls: u64,
    /// Minimum non-null value (grouping order), if any non-null exists.
    pub min: Option<Value>,
    /// Maximum non-null value.
    pub max: Option<Value>,
}

impl ColumnStats {
    /// Stats of an empty column.
    pub fn empty() -> ColumnStats {
        ColumnStats {
            ndv: 0,
            nulls: 0,
            min: None,
            max: None,
        }
    }

    /// Fold one value into `nulls`/`min`/`max` (ties keep the value
    /// seen first). Returns whether the value counts towards `ndv`,
    /// which the caller maintains.
    fn observe(&mut self, v: &Value) -> bool {
        if v.is_null() {
            self.nulls += 1;
            return false;
        }
        if self
            .min
            .as_ref()
            .map_or(true, |m| v.group_cmp(m) == Ordering::Less)
        {
            self.min = Some(v.clone());
        }
        if self
            .max
            .as_ref()
            .map_or(true, |m| v.group_cmp(m) == Ordering::Greater)
        {
            self.max = Some(v.clone());
        }
        true
    }
}

/// Statistics for a table (or any materialized row set).
#[derive(Debug, Clone, PartialEq)]
pub struct TableStats {
    pub rows: u64,
    pub columns: Vec<ColumnStats>,
}

impl TableStats {
    /// Compute exact statistics over a set of rows. All tables are
    /// in-memory, so exact statistics are affordable; a disk system
    /// would sample instead, which changes nothing downstream.
    pub fn compute(arity: usize, rows: &[Row]) -> TableStats {
        let mut distinct: Vec<HashSet<Value>> = vec![HashSet::new(); arity];
        let mut cols: Vec<ColumnStats> = (0..arity).map(|_| ColumnStats::empty()).collect();
        for row in rows {
            for (i, v) in row.values().iter().enumerate() {
                if cols[i].observe(v) {
                    distinct[i].insert(v.clone());
                }
            }
        }
        for (i, set) in distinct.into_iter().enumerate() {
            cols[i].ndv = set.len() as u64;
        }
        TableStats {
            rows: rows.len() as u64,
            columns: cols,
        }
    }

    /// The statistics [`TableStats::compute`] gives over the `len` rows
    /// that `columns` hold, read column by column: each column's values
    /// are observed in row order, so ties keep the same value.
    pub(crate) fn of_columns(columns: &[Column], len: usize) -> TableStats {
        let columns = columns.iter().map(|column| {
            let mut stats = ColumnStats::empty();
            let mut distinct = HashSet::new();
            for i in 0..len {
                let v = column.value(i);
                if stats.observe(&v) {
                    distinct.insert(v);
                }
            }
            stats.ndv = distinct.len() as u64;
            stats
        });
        TableStats {
            rows: len as u64,
            columns: columns.collect(),
        }
    }

    /// Extend these statistics to cover `new_rows` appended after the
    /// rows they describe. `fresh` must have been built from
    /// `new_rows` and shown the existing columns. The
    /// result equals [`TableStats::compute`] over the concatenation.
    pub(crate) fn append(&mut self, new_rows: &[Row], fresh: &FreshValues) {
        self.rows += new_rows.len() as u64;
        for row in new_rows {
            for (col, v) in self.columns.iter_mut().zip(row.values()) {
                col.observe(v);
            }
        }
        for (col, values) in self.columns.iter_mut().zip(&fresh.0) {
            col.ndv += values.held.iter().filter(|&&held| !held).count() as u64;
        }
    }

    /// Stats describing an empty table of the given arity.
    pub fn empty(arity: usize) -> TableStats {
        TableStats {
            rows: 0,
            columns: (0..arity).map(|_| ColumnStats::empty()).collect(),
        }
    }
}

/// What an append needs to keep `ndv` exact without a persistent
/// distinct set: per column the distinct non-NULL values of the new
/// rows, sorted, each flagged once an existing row is seen to hold it
/// ([`FreshValues::strike`]); the values left unflagged are new to the
/// column.
pub(crate) struct FreshValues(Vec<FreshColumn>);

struct FreshColumn {
    values: Vec<Value>,
    held: Vec<bool>,
}

impl FreshValues {
    pub(crate) fn of(arity: usize, new_rows: &[Row]) -> FreshValues {
        let mut columns: Vec<Vec<Value>> = vec![Vec::new(); arity];
        for row in new_rows {
            for (col, v) in columns.iter_mut().zip(row.values()) {
                if !v.is_null() {
                    col.push(v.clone());
                }
            }
        }
        let columns = columns.into_iter().map(|mut values| {
            values.sort_by(Value::group_cmp);
            values.dedup();
            FreshColumn {
                held: vec![false; values.len()],
                values,
            }
        });
        FreshValues(columns.collect())
    }

    /// Flag the new values the existing `columns` already hold: one
    /// typed pass per column ([`Column::mark_held`]).
    pub(crate) fn strike(&mut self, columns: &[Column]) {
        for (fresh, column) in self.0.iter_mut().zip(columns) {
            column.mark_held(&fresh.values, &mut fresh.held);
        }
    }

    /// Whether the existing columns hold `v` (non-NULL) in column `c`;
    /// only meaningful after [`FreshValues::strike`].
    pub(crate) fn held(&self, c: usize, v: &Value) -> bool {
        let fresh = &self.0[c];
        (fresh.values.binary_search_by(|x| x.group_cmp(v))).is_ok_and(|k| fresh.held[k])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows() -> Vec<Row> {
        vec![
            Row::new(vec![Value::Int(1), Value::str("a")]),
            Row::new(vec![Value::Int(2), Value::str("a")]),
            Row::new(vec![Value::Int(2), Value::Null]),
        ]
    }

    #[test]
    fn counts_rows_and_distincts() {
        let s = TableStats::compute(2, &rows());
        assert_eq!(s.rows, 3);
        assert_eq!(s.columns[0].ndv, 2);
        assert_eq!(s.columns[1].ndv, 1);
    }

    #[test]
    fn counts_nulls() {
        let s = TableStats::compute(2, &rows());
        assert_eq!(s.columns[0].nulls, 0);
        assert_eq!(s.columns[1].nulls, 1);
    }

    #[test]
    fn tracks_min_max() {
        let s = TableStats::compute(2, &rows());
        assert_eq!(s.columns[0].min, Some(Value::Int(1)));
        assert_eq!(s.columns[0].max, Some(Value::Int(2)));
        assert_eq!(s.columns[1].min, Some(Value::str("a")));
    }

    #[test]
    fn empty_stats() {
        let s = TableStats::compute(2, &[]);
        assert_eq!(s.rows, 0);
        assert_eq!(s.columns[0].min, None);
        assert_eq!(s, TableStats::empty(2));
    }
}
