//! Rows (tuples) of SQL values.

use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use crate::Value;

/// A row of values: a view of `len` values from `start` in a shared
/// buffer. Cloning is cheap (`Arc`-backed) because joins and correlated
/// evaluation duplicate rows heavily.
///
/// A row built alone ([`Row::new`], `collect`) views a buffer of its
/// own. The rows of one query result ([`Row::views`]) view one buffer
/// together, so the result is one allocation, and a row kept from it
/// keeps that whole buffer alive.
///
/// Equality, hashing and `Debug` read only the viewed values, so a
/// view and a row built alone over the same values are
/// indistinguishable.
#[derive(Clone)]
pub struct Row {
    values: Arc<[Value]>,
    start: u32,
    len: u32,
}

impl Row {
    /// Build a row from values.
    pub fn new(values: Vec<Value>) -> Row {
        Row::whole(values.into())
    }

    /// A row viewing all of `values`.
    fn whole(values: Arc<[Value]>) -> Row {
        Row {
            len: index(values.len()),
            start: 0,
            values,
        }
    }

    /// The `count` rows of `arity` values that `buffer` holds one after
    /// another, each a view of it.
    ///
    /// # Panics
    /// If `buffer` does not hold exactly `count × arity` values, or
    /// more than `u32::MAX` of them.
    pub fn views(buffer: &Arc<[Value]>, arity: usize, count: usize) -> Vec<Row> {
        assert_eq!(buffer.len(), count * arity, "a buffer of {count} rows");
        let len = index(arity);
        (0..count)
            .map(|k| Row {
                values: Arc::clone(buffer),
                start: index(k * arity),
                len,
            })
            .collect()
    }

    /// The empty row (used as the seed for uncorrelated apply).
    pub fn empty() -> Row {
        Row::whole(Arc::from([]))
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.len as usize
    }

    /// The values as a slice.
    pub fn values(&self) -> &[Value] {
        let start = self.start as usize;
        &self.values[start..start + self.arity()]
    }

    /// Column accessor; panics on out-of-range (an engine bug, since the
    /// builder validates all column offsets).
    pub fn get(&self, i: usize) -> &Value {
        &self.values()[i]
    }

    /// Concatenate two rows (join output).
    pub fn concat(&self, other: &Row) -> Row {
        let mut v = Vec::with_capacity(self.arity() + other.arity());
        v.extend_from_slice(self.values());
        v.extend_from_slice(other.values());
        Row::new(v)
    }

    /// Project the row onto the given column offsets.
    pub fn project(&self, cols: &[usize]) -> Row {
        cols.iter().map(|&c| self.get(c).clone()).collect()
    }

    /// Grouping-semantics total ordering across rows (NULLs first),
    /// comparing column by column. Used to sort result bags in tests.
    pub fn group_cmp(&self, other: &Row) -> std::cmp::Ordering {
        for (a, b) in self.values().iter().zip(other.values()) {
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
        Row::whole(values.into_iter().collect())
    }
}

/// A buffer offset or a row's length as the view stores it.
fn index(n: usize) -> u32 {
    u32::try_from(n).expect("a row buffer holds fewer than 2^32 values")
}

impl PartialEq for Row {
    fn eq(&self, other: &Row) -> bool {
        self.values() == other.values()
    }
}

impl Eq for Row {}

impl Hash for Row {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.values().hash(state);
    }
}

/// Prints what `#[derive(Debug)]` did when a row owned its values.
impl fmt::Debug for Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Row")
            .field("values", &self.values())
            .finish()
    }
}

impl fmt::Display for Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("(")?;
        for (i, v) in self.values().iter().enumerate() {
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

    fn hash_of(row: &Row) -> u64 {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        row.hash(&mut h);
        h.finish()
    }

    #[test]
    fn a_view_is_indistinguishable_from_a_row_built_alone() {
        let buffer: Arc<[Value]> = (1..=6).map(Value::Int).collect();
        let views = Row::views(&buffer, 3, 2);
        assert_eq!(views[1].values().as_ptr(), buffer[3..].as_ptr());
        let alone = row(&[4, 5, 6]);
        assert_eq!(views[1], alone);
        assert_ne!(views[0], alone);
        assert_eq!(hash_of(&views[1]), hash_of(&alone));
        assert_eq!(format!("{:?}", views[1]), format!("{alone:?}"));
        assert_eq!(
            format!("{alone:?}"),
            "Row { values: [Int(4), Int(5), Int(6)] }"
        );
        assert_eq!(views[1].to_string(), "(4, 5, 6)");
        assert_eq!(views[0].project(&[2]), row(&[3]));
        assert_eq!(
            Row::views(&Arc::from([]), 0, 2),
            [Row::empty(), Row::empty()]
        );
    }

    #[test]
    fn a_row_is_at_most_24_bytes() {
        assert!(std::mem::size_of::<Row>() <= 24);
    }
}
