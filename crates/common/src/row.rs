//! Rows (tuples) of SQL values.

use std::fmt;
use std::sync::Arc;

use crate::Value;

/// A row of values. Cloning is cheap (`Arc`-backed) because joins and
/// correlated evaluation duplicate rows heavily.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Row {
    values: Arc<[Value]>,
}

impl Row {
    /// Build a row from values.
    pub fn new(values: Vec<Value>) -> Row {
        Row {
            values: values.into(),
        }
    }

    /// The empty row (used as the seed for uncorrelated apply).
    pub fn empty() -> Row {
        Row {
            values: Arc::from([]),
        }
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.values.len()
    }

    /// The values as a slice.
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// Column accessor; panics on out-of-range (an engine bug, since the
    /// builder validates all column offsets).
    pub fn get(&self, i: usize) -> &Value {
        &self.values[i]
    }

    /// Concatenate two rows (join output).
    pub fn concat(&self, other: &Row) -> Row {
        let mut v = Vec::with_capacity(self.arity() + other.arity());
        v.extend_from_slice(&self.values);
        v.extend_from_slice(&other.values);
        Row::new(v)
    }

    /// Project the row onto the given column offsets.
    pub fn project(&self, cols: &[usize]) -> Row {
        Row::new(cols.iter().map(|&c| self.values[c].clone()).collect())
    }

    /// Grouping-semantics total ordering across rows (NULLs first),
    /// comparing column by column. Used to sort result bags in tests.
    pub fn group_cmp(&self, other: &Row) -> std::cmp::Ordering {
        for (a, b) in self.values.iter().zip(other.values.iter()) {
            let ord = a.group_cmp(b);
            if ord != std::cmp::Ordering::Equal {
                return ord;
            }
        }
        self.arity().cmp(&other.arity())
    }
}

/// One allocation when the iterator knows its length (a slice or a
/// range mapped), where [`Row::new`] copies its `Vec` into a second.
impl FromIterator<Value> for Row {
    fn from_iter<I: IntoIterator<Item = Value>>(values: I) -> Row {
        Row {
            values: values.into_iter().collect(),
        }
    }
}

impl fmt::Display for Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("(")?;
        for (i, v) in self.values.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{v}")?;
        }
        f.write_str(")")
    }
}

impl From<Vec<Value>> for Row {
    fn from(v: Vec<Value>) -> Row {
        Row::new(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(vals: &[i64]) -> Row {
        Row::new(vals.iter().map(|&i| Value::Int(i)).collect())
    }

    #[test]
    fn concat_appends() {
        let r = row(&[1, 2]).concat(&row(&[3]));
        assert_eq!(r.arity(), 3);
        assert_eq!(r.get(2), &Value::Int(3));
    }

    #[test]
    fn project_selects_and_reorders() {
        let r = row(&[10, 20, 30]).project(&[2, 0]);
        assert_eq!(r.values(), &[Value::Int(30), Value::Int(10)]);
    }

    #[test]
    fn equality_uses_grouping_semantics() {
        let a = Row::new(vec![Value::Null, Value::Int(1)]);
        let b = Row::new(vec![Value::Null, Value::Double(1.0)]);
        assert_eq!(a, b);
    }

    #[test]
    fn group_cmp_sorts_lexicographically() {
        let mut rows = [row(&[2, 1]), row(&[1, 9]), row(&[1, 2])];
        rows.sort_by(super::Row::group_cmp);
        assert_eq!(rows[0], row(&[1, 2]));
        assert_eq!(rows[1], row(&[1, 9]));
        assert_eq!(rows[2], row(&[2, 1]));
    }

    #[test]
    fn empty_row() {
        assert_eq!(Row::empty().arity(), 0);
        assert_eq!(Row::empty().concat(&row(&[1])), row(&[1]));
    }

    #[test]
    fn display() {
        assert_eq!(row(&[1, 2]).to_string(), "(1, 2)");
    }
}
