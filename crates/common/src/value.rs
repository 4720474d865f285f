//! SQL values.
//!
//! [`Value`] has one order, [`Value::group_cmp`], and every comparison
//! the engine makes reads it: predicates, grouping, probes, key checks
//! and statistics. Numbers compare by exact value whatever their type:
//! `1` equals `1.0`, `-0.0` equals `0`, and beyond 2^53 an `Int` equals
//! only the `Double` that is exactly it ([`Value::int_cmp_double`]), so
//! the order is transitive and a hash table can implement it. Two truth
//! domains read it:
//!
//! * **Predicates** ([`Value::sql_eq`], [`Value::sql_cmp`]):
//!   three-valued; any comparison involving NULL is [`Truth::Unknown`],
//!   and values of incomparable types are unequal and unordered.
//! * **Grouping** (`group_cmp` and the `Eq`/`Hash` impls): two-valued;
//!   NULL equals NULL and sorts first. Used by GROUP BY, DISTINCT, set
//!   operations and the executor's key tables.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use crate::{DataType, Error, Result, Truth};

/// A single SQL value.
#[derive(Debug, Clone)]
pub enum Value {
    /// SQL NULL (untyped).
    Null,
    /// `INTEGER` value.
    Int(i64),
    /// `DOUBLE` value. NaN is not constructible through the engine's
    /// arithmetic (division by zero errors out instead).
    Double(f64),
    /// `VARCHAR` value. `Arc<str>` keeps row cloning cheap in joins.
    Str(Arc<str>),
    /// `BOOLEAN` value.
    Bool(bool),
}

impl Value {
    /// Build a string value.
    pub fn str(s: impl AsRef<str>) -> Value {
        Value::Str(Arc::from(s.as_ref()))
    }

    /// Whether this value is NULL.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// The data type, or `None` for NULL (which is untyped).
    pub fn data_type(&self) -> Option<DataType> {
        match self {
            Value::Null => None,
            Value::Int(_) => Some(DataType::Int),
            Value::Double(_) => Some(DataType::Double),
            Value::Str(_) => Some(DataType::Str),
            Value::Bool(_) => Some(DataType::Bool),
        }
    }

    /// Numeric view of the value (Int and Double), used by arithmetic
    /// and aggregation.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Double(d) => Some(*d),
            _ => None,
        }
    }

    /// SQL equality: Unknown when NULL is involved, false for
    /// incomparable types (the frontend rejects such comparisons, but the
    /// executor stays total), otherwise [`Value::group_cmp`]'s answer.
    pub fn sql_eq(&self, other: &Value) -> Truth {
        match (self, other) {
            (Value::Int(a), Value::Int(b)) => (a == b).into(),
            (Value::Str(a), Value::Str(b)) => (a == b).into(),
            (Value::Null, _) | (_, Value::Null) => Truth::Unknown,
            (a, b) => (a.sql_cmp(b) == Some(Ordering::Equal)).into(),
        }
    }

    /// SQL ordering comparison: `None` when NULL is involved (truth
    /// value Unknown) or the types are not comparable, otherwise
    /// [`Value::group_cmp`].
    pub fn sql_cmp(&self, other: &Value) -> Option<Ordering> {
        match (self, other) {
            (Value::Int(a), Value::Int(b)) => Some(a.cmp(b)),
            (Value::Str(a), Value::Str(b)) => Some(a.cmp(b)),
            (Value::Null, _) | (_, Value::Null) => None,
            (a, b) => (a.rank() == b.rank()).then(|| a.group_cmp(b)),
        }
    }

    /// The engine's one order: NULL first, then by type, then by value,
    /// numbers by exact value across `Int` and `Double`. Total, so
    /// usable for sorting result sets in tests.
    pub fn group_cmp(&self, other: &Value) -> Ordering {
        match (self, other) {
            (Value::Int(a), Value::Int(b)) => a.cmp(b),
            (Value::Double(a), Value::Double(b)) => Value::double_cmp(*a, *b),
            (Value::Int(a), Value::Double(b)) => Value::int_cmp_double(*a, *b),
            (Value::Double(a), Value::Int(b)) => Value::int_cmp_double(*b, *a).reverse(),
            (Value::Str(a), Value::Str(b)) => a.cmp(b),
            (Value::Bool(a), Value::Bool(b)) => a.cmp(b),
            (a, b) => a.rank().cmp(&b.rank()),
        }
    }

    /// The type's place in [`Value::group_cmp`]; both numerics share one.
    fn rank(&self) -> u8 {
        match self {
            Value::Null => 0,
            Value::Bool(_) => 1,
            Value::Int(_) | Value::Double(_) => 2,
            Value::Str(_) => 3,
        }
    }

    /// How two doubles order: numerically, so `-0.0` equals `0.0`, and
    /// where a NaN leaves no numeric order, by `total_cmp`, so a NaN
    /// equals itself.
    pub fn double_cmp(a: f64, b: f64) -> Ordering {
        a.partial_cmp(&b).unwrap_or_else(|| a.total_cmp(&b))
    }

    /// How `Int(i)` orders against `Double(d)`: by `i as f64`, and where
    /// that rounds onto `d`, by the exact integers. Beyond 2^53 neighbouring
    /// integers share one `f64`: `2^53 + 1` sorts above the double `2^53`,
    /// which equals `2^53` alone, so the order stays transitive, and `Hash`,
    /// which hashes the `f64` image, agrees with it.
    pub fn int_cmp_double(i: i64, d: f64) -> Ordering {
        // Equal images make `d` an integer within ±2^63: exact in i128.
        Value::double_cmp(i as f64, d).then_with(|| i128::from(i).cmp(&(d as i128)))
    }

    /// Negation with NULL propagation: wrapping for `Int`, like
    /// [`Value::arith`], and IEEE `-d` for `Double`, so `-0.0` negates
    /// `0.0`. `None` for a value that is no number.
    pub fn neg(&self) -> Option<Value> {
        match self {
            Value::Null => Some(Value::Null),
            Value::Int(i) => Some(Value::Int(i.wrapping_neg())),
            Value::Double(d) => Some(Value::Double(-d)),
            Value::Str(_) | Value::Bool(_) => None,
        }
    }

    /// Arithmetic with NULL propagation. `op` is one of `+ - * /`.
    pub fn arith(&self, op: char, other: &Value) -> Result<Value> {
        if self.is_null() || other.is_null() {
            return Ok(Value::Null);
        }
        // Int op Int stays Int except when division does not divide evenly;
        // SQL integer division truncates, and we follow that.
        if let (Value::Int(a), Value::Int(b)) = (self, other) {
            return match op {
                '+' => Ok(Value::Int(a.wrapping_add(*b))),
                '-' => Ok(Value::Int(a.wrapping_sub(*b))),
                '*' => Ok(Value::Int(a.wrapping_mul(*b))),
                '/' => {
                    if *b == 0 {
                        Err(Error::execution("division by zero"))
                    } else {
                        Ok(Value::Int(a.wrapping_div(*b)))
                    }
                }
                _ => Err(Error::internal(format!("unknown arithmetic op {op}"))),
            };
        }
        let (Some(x), Some(y)) = (self.as_f64(), other.as_f64()) else {
            return Err(Error::execution(format!(
                "arithmetic on non-numeric values {self} {op} {other}"
            )));
        };
        match op {
            '+' => Ok(Value::Double(x + y)),
            '-' => Ok(Value::Double(x - y)),
            '*' => Ok(Value::Double(x * y)),
            '/' => {
                if y == 0.0 {
                    Err(Error::execution("division by zero"))
                } else {
                    Ok(Value::Double(x / y))
                }
            }
            _ => Err(Error::internal(format!("unknown arithmetic op {op}"))),
        }
    }
}

/// Grouping equality: NULL == NULL, `1` == `1.0`, `-0.0` == `0`.
impl PartialEq for Value {
    fn eq(&self, other: &Value) -> bool {
        self.group_cmp(other) == Ordering::Equal
    }
}

impl Eq for Value {}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            Value::Null => 0u8.hash(state),
            Value::Bool(b) => {
                1u8.hash(state);
                b.hash(state);
            }
            // Equal numbers hash alike: the bits of the `f64` image, a
            // zero as `+0.0` (`-0.0 + 0.0` is `+0.0`).
            Value::Int(i) => {
                2u8.hash(state);
                (*i as f64).to_bits().hash(state);
            }
            Value::Double(d) => {
                2u8.hash(state);
                (d + 0.0).to_bits().hash(state);
            }
            Value::Str(s) => {
                3u8.hash(state);
                s.hash(state);
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("NULL"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Double(d) => {
                if d.fract() == 0.0 && d.abs() < 1e15 {
                    write!(f, "{d:.1}")
                } else {
                    write!(f, "{d}")
                }
            }
            Value::Str(s) => write!(f, "'{s}'"),
            Value::Bool(b) => write!(f, "{}", if *b { "TRUE" } else { "FALSE" }),
        }
    }
}

impl From<i64> for Value {
    fn from(i: i64) -> Value {
        Value::Int(i)
    }
}

impl From<f64> for Value {
    fn from(d: f64) -> Value {
        Value::Double(d)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Value {
        Value::str(s)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Value {
        Value::Bool(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn hash_of(v: &Value) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn sql_eq_is_three_valued() {
        assert_eq!(Value::Null.sql_eq(&Value::Null), Truth::Unknown);
        assert_eq!(Value::Int(1).sql_eq(&Value::Null), Truth::Unknown);
        assert_eq!(Value::Int(1).sql_eq(&Value::Int(1)), Truth::True);
        assert_eq!(Value::Int(1).sql_eq(&Value::Int(2)), Truth::False);
        assert_eq!(Value::str("a").sql_eq(&Value::str("a")), Truth::True);
    }

    #[test]
    fn sql_eq_coerces_int_double() {
        assert_eq!(Value::Int(3).sql_eq(&Value::Double(3.0)), Truth::True);
        assert_eq!(Value::Int(3).sql_eq(&Value::Double(3.5)), Truth::False);
    }

    #[test]
    fn negative_zero_compares_equal_to_zero() {
        let (neg, zero) = (Value::Double(-0.0), Value::Int(0));
        assert_eq!(neg.sql_eq(&zero), Truth::True);
        assert_eq!(neg.sql_cmp(&zero), Some(Ordering::Equal));
        assert_eq!(neg.sql_cmp(&Value::Double(0.0)), Some(Ordering::Equal));
        assert_eq!(neg.sql_cmp(&Value::Double(-0.5)), Some(Ordering::Greater));
        // Grouping, and so every hash table, finds them one key.
        assert_eq!(neg, zero);
        assert_eq!(neg, Value::Double(0.0));
        assert_eq!(hash_of(&neg), hash_of(&zero));
        assert_eq!(hash_of(&neg), hash_of(&Value::Double(0.0)));
    }

    #[test]
    fn sql_cmp_null_is_none() {
        assert_eq!(Value::Null.sql_cmp(&Value::Int(1)), None);
        assert_eq!(Value::Int(1).sql_cmp(&Value::Int(2)), Some(Ordering::Less));
        assert_eq!(
            Value::str("b").sql_cmp(&Value::str("a")),
            Some(Ordering::Greater)
        );
    }

    #[test]
    fn grouping_eq_treats_null_as_equal() {
        assert_eq!(Value::Null, Value::Null);
        assert_ne!(Value::Null, Value::Int(0));
        assert_eq!(Value::Int(1), Value::Double(1.0));
    }

    #[test]
    fn numerically_equal_values_hash_equal() {
        assert_eq!(hash_of(&Value::Int(7)), hash_of(&Value::Double(7.0)));
        assert_eq!(hash_of(&Value::Null), hash_of(&Value::Null));
    }

    #[test]
    fn arithmetic_null_propagates() {
        assert!(Value::Null.arith('+', &Value::Int(1)).unwrap().is_null());
        assert!(Value::Int(1).arith('*', &Value::Null).unwrap().is_null());
    }

    #[test]
    fn integer_arithmetic_stays_int() {
        assert_eq!(
            Value::Int(7).arith('/', &Value::Int(2)).unwrap(),
            Value::Int(3)
        );
        assert_eq!(
            Value::Int(2).arith('+', &Value::Int(3)).unwrap(),
            Value::Int(5)
        );
    }

    #[test]
    fn mixed_arithmetic_promotes_to_double() {
        assert_eq!(
            Value::Int(1).arith('+', &Value::Double(0.5)).unwrap(),
            Value::Double(1.5)
        );
    }

    #[test]
    fn negation_wraps_ints_and_flips_the_sign_of_doubles() {
        assert_eq!(Value::Int(5).neg(), Some(Value::Int(-5)));
        assert_eq!(Value::Int(i64::MIN).neg(), Some(Value::Int(i64::MIN)));
        let Some(Value::Double(d)) = Value::Double(0.0).neg() else {
            panic!("a double negates to a double")
        };
        assert!(d == 0.0 && d.is_sign_negative());
        assert_eq!(format!("{}", Value::Double(-0.0).neg().unwrap()), "0.0");
        assert!(Value::Null.neg().is_some_and(|v| v.is_null()));
        assert_eq!(Value::str("a").neg(), None);
        assert_eq!(Value::Bool(true).neg(), None);
    }

    #[test]
    fn division_by_zero_errors() {
        assert!(Value::Int(1).arith('/', &Value::Int(0)).is_err());
        assert!(Value::Double(1.0).arith('/', &Value::Double(0.0)).is_err());
    }

    #[test]
    fn arithmetic_on_strings_errors() {
        assert!(Value::str("a").arith('+', &Value::Int(1)).is_err());
    }

    #[test]
    fn group_cmp_total_order_nulls_first() {
        let mut vals = [
            Value::Int(2),
            Value::Null,
            Value::str("x"),
            Value::Double(1.5),
        ];
        vals.sort_by(super::Value::group_cmp);
        assert!(vals[0].is_null());
        assert_eq!(vals[1], Value::Double(1.5));
        assert_eq!(vals[2], Value::Int(2));
        assert_eq!(vals[3], Value::str("x"));
    }

    #[test]
    fn group_cmp_and_predicates_are_exact_beyond_2_pow_53() {
        let exact = 1i64 << 53;
        let (low, high, double) = (
            Value::Int(exact),
            Value::Int(exact + 1),
            Value::Double(exact as f64),
        );
        // `2^53 + 1 as f64` is `2^53`: only `Int(2^53)` equals the double.
        assert_eq!(low, double);
        assert_ne!(high, double);
        assert_eq!(high.group_cmp(&double), Ordering::Greater);
        assert_eq!(double.group_cmp(&high), Ordering::Less);
        assert_eq!(hash_of(&high), hash_of(&double));
        // `i64::MAX as f64` is 2^63, which no `Int` reaches.
        let top = Value::Double(i64::MAX as f64);
        assert_eq!(Value::Int(i64::MAX).group_cmp(&top), Ordering::Less);
        assert_eq!(
            Value::Int(0).group_cmp(&Value::Double(-0.0)),
            Ordering::Equal
        );
        assert_eq!(
            Value::Int(3).group_cmp(&Value::Double(2.5)),
            Ordering::Greater
        );
        // Predicates read the same order.
        assert_eq!(high.sql_eq(&double), Truth::False);
        assert_eq!(high.sql_cmp(&double), Some(Ordering::Greater));
        assert_eq!(low.sql_eq(&double), Truth::True);
        assert_eq!(double.sql_cmp(&high), Some(Ordering::Less));
    }

    #[test]
    fn a_nan_equals_itself_and_incomparable_types_are_unequal() {
        let nan = Value::Double(f64::NAN);
        assert_eq!(nan.group_cmp(&nan), Ordering::Equal);
        assert_eq!(nan.sql_eq(&nan), Truth::True);
        assert_eq!(Value::Int(1).sql_eq(&Value::str("1")), Truth::False);
        assert_eq!(Value::Int(1).sql_cmp(&Value::Bool(true)), None);
        assert_eq!(
            Value::Bool(true).sql_cmp(&Value::Bool(false)),
            Some(Ordering::Greater)
        );
    }

    #[test]
    fn display_formats() {
        assert_eq!(Value::Null.to_string(), "NULL");
        assert_eq!(Value::Int(5).to_string(), "5");
        assert_eq!(Value::Double(2.0).to_string(), "2.0");
        assert_eq!(Value::str("hi").to_string(), "'hi'");
        assert_eq!(Value::Bool(true).to_string(), "TRUE");
    }
}
