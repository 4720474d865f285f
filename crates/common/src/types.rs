//! Logical column data types.

use std::fmt;

/// The data types the engine supports.
///
/// This mirrors the fragment of SQL types the Starburst experiments
/// need: integers, decimals (modeled as f64), character strings, and
/// booleans (the latter mostly for intermediate expressions).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    /// 64-bit signed integer (`INTEGER`).
    Int,
    /// 64-bit float (`DECIMAL`/`DOUBLE`); ordered by `Value::group_cmp`.
    Double,
    /// Variable-length character string (`VARCHAR`).
    Str,
    /// Boolean; produced by predicates used as values.
    Bool,
}

impl DataType {
    /// Whether values of this type can be added/averaged.
    pub fn is_numeric(self) -> bool {
        matches!(self, DataType::Int | DataType::Double)
    }

    /// The type resulting from arithmetic between two numeric types.
    /// Int op Int stays Int; anything involving Double is Double.
    pub fn arithmetic_result(self, other: DataType) -> Option<DataType> {
        match (self, other) {
            (DataType::Int, DataType::Int) => Some(DataType::Int),
            (a, b) if a.is_numeric() && b.is_numeric() => Some(DataType::Double),
            _ => None,
        }
    }

    /// Whether two types are comparable with `=`, `<`, etc.
    pub fn comparable_with(self, other: DataType) -> bool {
        self == other || (self.is_numeric() && other.is_numeric())
    }
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DataType::Int => "INTEGER",
            DataType::Double => "DOUBLE",
            DataType::Str => "VARCHAR",
            DataType::Bool => "BOOLEAN",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::DataType::*;

    #[test]
    fn numeric_classification() {
        assert!(Int.is_numeric());
        assert!(Double.is_numeric());
        assert!(!Str.is_numeric());
        assert!(!Bool.is_numeric());
    }

    #[test]
    fn arithmetic_result_types() {
        assert_eq!(Int.arithmetic_result(Int), Some(Int));
        assert_eq!(Int.arithmetic_result(Double), Some(Double));
        assert_eq!(Double.arithmetic_result(Int), Some(Double));
        assert_eq!(Str.arithmetic_result(Int), None);
    }

    #[test]
    fn comparability() {
        assert!(Int.comparable_with(Double));
        assert!(Str.comparable_with(Str));
        assert!(!Str.comparable_with(Int));
        assert!(!Bool.comparable_with(Int));
    }

    #[test]
    fn display_names_are_sql() {
        assert_eq!(Int.to_string(), "INTEGER");
        assert_eq!(Str.to_string(), "VARCHAR");
    }
}
