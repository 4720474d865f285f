//! Typed column vectors: how a stored table holds its values, and
//! what the executor's batches and kernels read.
//!
//! A [`Column`] is one typed vector (`Vec<i64>`, `Vec<f64>`,
//! `Vec<Arc<str>>`, `Vec<bool>`) with an optional validity [`Bitmap`]
//! marking NULL slots, or `Mixed` plain values when the non-NULL values
//! span more than one type (or there are none). Conversion preserves
//! the exact [`Value`] variants (a column holding `Int` stays `Int64`,
//! never silently widened to `Float64`), which keeps rows read back
//! from a column byte-identical to the rows that went in.
//!
//! Hand-rolled on purpose: the build environment is offline, so no
//! arrow — a `Vec<i64>` plus a `u64`-word bitmap is all the layout the
//! executor needs.

use std::cmp::Ordering;
use std::sync::Arc;

use starmagic_common::{Row, Value};

/// A packed validity (or selection) bitmap over `len` slots.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bitmap {
    words: Vec<u64>,
    len: usize,
}

impl Bitmap {
    /// A bitmap of `len` slots, all set to `bit`.
    pub fn filled(len: usize, bit: bool) -> Bitmap {
        let fill = if bit { u64::MAX } else { 0 };
        let mut words = vec![fill; len.div_ceil(64)];
        if bit && len % 64 != 0 {
            // Keep bits past `len` clear so count_ones stays honest.
            *words.last_mut().expect("len > 0") = u64::MAX >> (64 - len % 64);
        }
        Bitmap { words, len }
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the bitmap covers zero slots.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Read slot `i`.
    pub fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        self.words[i / 64] >> (i % 64) & 1 == 1
    }

    /// Write slot `i`.
    pub fn set(&mut self, i: usize, bit: bool) {
        debug_assert!(i < self.len);
        let mask = 1u64 << (i % 64);
        if bit {
            self.words[i / 64] |= mask;
        } else {
            self.words[i / 64] &= !mask;
        }
    }

    /// Number of set slots (bits past `len` in the last word are never
    /// set by construction).
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Append one slot.
    pub fn push(&mut self, bit: bool) {
        if self.len % 64 == 0 {
            self.words.push(0);
        }
        self.len += 1;
        self.set(self.len - 1, bit);
    }
}

/// One typed column vector. The typed variants hold raw slices (the
/// vectorized kernels' input); `Mixed` is the escape hatch for columns
/// whose non-NULL values span more than one [`Value`] type.
#[derive(Debug, Clone)]
pub enum Column {
    /// `INTEGER` column; `validity` absent means no NULLs.
    Int64 {
        values: Vec<i64>,
        validity: Option<Bitmap>,
    },
    /// `DOUBLE` column.
    Float64 {
        values: Vec<f64>,
        validity: Option<Bitmap>,
    },
    /// `VARCHAR` column (shared `Arc<str>` payloads, like [`Value::Str`]).
    Str {
        values: Vec<Arc<str>>,
        validity: Option<Bitmap>,
    },
    /// `BOOLEAN` column — also the output type of vectorized
    /// predicates, where an invalid slot means SQL `Unknown`.
    Bool {
        values: Vec<bool>,
        validity: Option<Bitmap>,
    },
    /// Mixed-type or all-NULL column: plain values, no vectorized
    /// kernels apply.
    Mixed(Vec<Value>),
}

impl Column {
    /// Build a column from one slot of each row, detecting the type
    /// from the non-NULL values (two passes, both cheap).
    pub fn from_rows(rows: &[Row], col: usize) -> Column {
        Column::detect(rows.iter().map(|r| r.get(col)))
    }

    /// Build a column of `values`, typed like [`Column::from_rows`].
    pub fn from_values(values: &[Value]) -> Column {
        Column::detect(values.iter())
    }

    fn detect<'v>(values: impl ExactSizeIterator<Item = &'v Value> + Clone) -> Column {
        let mut ty: Option<u8> = None; // 0=Int 1=Double 2=Str 3=Bool
        let mut nulls = false;
        for v in values.clone() {
            let t = match v {
                Value::Null => {
                    nulls = true;
                    continue;
                }
                Value::Int(_) => 0,
                Value::Double(_) => 1,
                Value::Str(_) => 2,
                Value::Bool(_) => 3,
            };
            match ty {
                None => ty = Some(t),
                Some(seen) if seen == t => {}
                Some(_) => return Column::Mixed(values.cloned().collect()),
            }
        }
        let Some(ty) = ty else {
            // All NULL: no typed representation is better than another.
            return Column::Mixed(values.cloned().collect());
        };
        let n = values.len();
        let mut validity = nulls.then(|| Bitmap::filled(n, true));
        macro_rules! build {
            ($variant:ident, $default:expr, $pat:pat => $val:expr) => {{
                let mut out = Vec::with_capacity(n);
                for (i, v) in values.enumerate() {
                    match v {
                        $pat => out.push($val),
                        Value::Null => {
                            out.push($default);
                            validity.as_mut().expect("nulls seen").set(i, false);
                        }
                        _ => unreachable!("type detected in first pass"),
                    }
                }
                Column::$variant {
                    values: out,
                    validity,
                }
            }};
        }
        match ty {
            0 => build!(Int64, 0, Value::Int(v) => *v),
            1 => build!(Float64, 0.0, Value::Double(v) => *v),
            2 => build!(Str, Arc::from(""), Value::Str(v) => v.clone()),
            _ => build!(Bool, false, Value::Bool(v) => *v),
        }
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        match self {
            Column::Int64 { values, .. } => values.len(),
            Column::Float64 { values, .. } => values.len(),
            Column::Str { values, .. } => values.len(),
            Column::Bool { values, .. } => values.len(),
            Column::Mixed(values) => values.len(),
        }
    }

    /// Whether the column covers zero slots.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether slot `i` is NULL.
    pub fn is_null(&self, i: usize) -> bool {
        match self {
            Column::Int64 { validity, .. }
            | Column::Float64 { validity, .. }
            | Column::Str { validity, .. }
            | Column::Bool { validity, .. } => validity.as_ref().is_some_and(|v| !v.get(i)),
            Column::Mixed(values) => values[i].is_null(),
        }
    }

    /// The [`Value`] at slot `i`, exactly as it went in.
    pub fn value(&self, i: usize) -> Value {
        if self.is_null(i) {
            return Value::Null;
        }
        match self {
            Column::Int64 { values, .. } => Value::Int(values[i]),
            Column::Float64 { values, .. } => Value::Double(values[i]),
            Column::Str { values, .. } => Value::Str(values[i].clone()),
            Column::Bool { values, .. } => Value::Bool(values[i]),
            Column::Mixed(values) => values[i].clone(),
        }
    }

    /// Gather `ids` slots into a new column (late materialization:
    /// only surviving rows are ever copied).
    pub fn take(&self, ids: &[u32]) -> Column {
        fn take_validity(validity: &Option<Bitmap>, ids: &[u32]) -> Option<Bitmap> {
            validity.as_ref().map(|v| {
                let mut out = Bitmap::filled(ids.len(), true);
                for (k, &i) in ids.iter().enumerate() {
                    if !v.get(i as usize) {
                        out.set(k, false);
                    }
                }
                out
            })
        }
        match self {
            Column::Int64 { values, validity } => Column::Int64 {
                values: ids.iter().map(|&i| values[i as usize]).collect(),
                validity: take_validity(validity, ids),
            },
            Column::Float64 { values, validity } => Column::Float64 {
                values: ids.iter().map(|&i| values[i as usize]).collect(),
                validity: take_validity(validity, ids),
            },
            Column::Str { values, validity } => Column::Str {
                values: ids.iter().map(|&i| values[i as usize].clone()).collect(),
                validity: take_validity(validity, ids),
            },
            Column::Bool { values, validity } => Column::Bool {
                values: ids.iter().map(|&i| values[i as usize]).collect(),
                validity: take_validity(validity, ids),
            },
            Column::Mixed(values) => {
                Column::Mixed(ids.iter().map(|&i| values[i as usize].clone()).collect())
            }
        }
    }

    /// Append `other`'s slots: an accumulator's growth. Columns of one
    /// variant stay typed, the bitmap appearing with the first NULL; a
    /// variant mix (e.g. `Int` rows, then `Double` ones) turns the
    /// column `Mixed`, every value kept exactly as it went in.
    pub fn append(&mut self, other: Column) {
        if self.is_empty() {
            *self = other;
            return;
        }
        let len = self.len();
        macro_rules! append {
            ($($variant:ident),*) => {
                match (&mut *self, other) {
                    $((
                        Column::$variant { values, validity },
                        Column::$variant { values: more, validity: more_valid },
                    ) => {
                        if validity.is_some() || more_valid.is_some() {
                            let bits = validity.get_or_insert_with(|| Bitmap::filled(len, true));
                            for k in 0..more.len() {
                                bits.push(more_valid.as_ref().map_or(true, |m| m.get(k)));
                            }
                        }
                        values.extend(more);
                    })*
                    (Column::Mixed(values), other) => {
                        values.extend((0..other.len()).map(|k| other.value(k)));
                    }
                    (this, other) => {
                        let values = (0..this.len()).map(|k| this.value(k));
                        let more = (0..other.len()).map(|k| other.value(k));
                        *this = Column::Mixed(values.chain(more).collect());
                    }
                }
            };
        }
        append!(Int64, Float64, Str, Bool);
    }

    /// Append `more`, built by [`Column::from_values`], so that the
    /// column stays what `from_values` builds over both sides' values:
    /// where [`Column::append`] turns an all-NULL side and a typed side
    /// `Mixed`, this gives the NULLs the typed side's type. A stored
    /// table's columns grow this way.
    pub(crate) fn append_detected(&mut self, more: Column) {
        let all_null = |c: &Column| matches!(c, Column::Mixed(v) if v.iter().all(Value::is_null));
        if more.is_empty() {
            return;
        }
        if !matches!(more, Column::Mixed(_)) && all_null(self) {
            let mut typed = more.nulls(self.len());
            typed.append(more);
            *self = typed;
        } else if !matches!(self, Column::Mixed(_)) && all_null(&more) {
            let nulls = self.nulls(more.len());
            self.append(nulls);
        } else {
            self.append(more);
        }
    }

    /// `len` NULLs, typed like this column.
    fn nulls(&self, len: usize) -> Column {
        let validity = Some(Bitmap::filled(len, false));
        match self {
            Column::Int64 { .. } => Column::Int64 {
                values: vec![0; len],
                validity,
            },
            Column::Float64 { .. } => Column::Float64 {
                values: vec![0.0; len],
                validity,
            },
            Column::Str { .. } => Column::Str {
                values: vec![Arc::from(""); len],
                validity,
            },
            Column::Bool { .. } => Column::Bool {
                values: vec![false; len],
                validity,
            },
            Column::Mixed(_) => Column::Mixed(vec![Value::Null; len]),
        }
    }

    /// Flag in `held` each of `values` (distinct, non-NULL, sorted by
    /// [`Value::group_cmp`]) that some slot of this column equals under
    /// `group_cmp`, so `1` finds `1.0` and `-0.0` finds `0` and `0.0`.
    /// The column's type is matched once: the values comparable with
    /// it are taken in that type, and one pass over the typed slots
    /// binary-searches them at each valid slot, ending once every one
    /// is flagged. Strings are searched by length first, which the
    /// slot's `Arc<str>` holds inline, so a slot of a length no value
    /// has is passed over without reading its bytes. `Mixed` compares
    /// `Value`s.
    pub(crate) fn mark_held(&self, values: &[Value], held: &mut [bool]) {
        // The filters keep `values`' order, which for the numeric and
        // boolean keys is already the order their comparison needs.
        fn keys<K>(values: &[Value], key: impl Fn(&Value) -> Option<K>) -> Vec<(K, usize)> {
            (values.iter().enumerate())
                .filter_map(|(i, v)| Some((key(v)?, i)))
                .collect()
        }
        match self {
            Column::Int64 {
                values: slots,
                validity,
            } => {
                // An `Int` compares as an integer, a `Double` as
                // `group_cmp` has it ([`Value::int_cmp_double`]).
                let ints = keys(values, |v| match v {
                    Value::Int(b) => Some(*b),
                    _ => None,
                });
                mark(slots, validity, &ints, held, i64::cmp);
                let doubles = keys(values, |v| match v {
                    Value::Double(d) => Some(*d),
                    _ => None,
                });
                mark(slots, validity, &doubles, held, |&a, &d| {
                    Value::int_cmp_double(a, d)
                });
            }
            Column::Float64 {
                values: slots,
                validity,
            } => {
                let numbers = keys(values, |v| v.as_f64().map(|_| v.clone()));
                mark(slots, validity, &numbers, held, |&a, v| {
                    Value::Double(a).group_cmp(v)
                });
            }
            Column::Str {
                values: slots,
                validity,
            } => {
                let len_first = |a: &Arc<str>, b: &Arc<str>| {
                    (a.len().cmp(&b.len())).then_with(|| a.as_bytes().cmp(b.as_bytes()))
                };
                let mut strings = keys(values, |v| match v {
                    Value::Str(s) => Some(s.clone()),
                    _ => None,
                });
                strings.sort_by(|(a, _), (b, _)| len_first(a, b));
                mark(slots, validity, &strings, held, len_first);
            }
            Column::Bool {
                values: slots,
                validity,
            } => {
                let bools = keys(values, |v| match v {
                    Value::Bool(b) => Some(*b),
                    _ => None,
                });
                mark(slots, validity, &bools, held, bool::cmp);
            }
            Column::Mixed(slots) => {
                // A NULL slot sorts below every key, so it finds none.
                let all = keys(values, |v| Some(v.clone()));
                mark(slots, &None, &all, held, Value::group_cmp);
            }
        }
    }

    /// `len` copies of one value, typed like [`Column::from_rows`]
    /// would type them.
    pub fn constant(value: &Value, len: usize) -> Column {
        match value {
            Value::Int(v) => Column::Int64 {
                values: vec![*v; len],
                validity: None,
            },
            Value::Double(v) => Column::Float64 {
                values: vec![*v; len],
                validity: None,
            },
            Value::Str(v) => Column::Str {
                values: vec![v.clone(); len],
                validity: None,
            },
            Value::Bool(v) => Column::Bool {
                values: vec![*v; len],
                validity: None,
            },
            Value::Null => Column::Mixed(vec![Value::Null; len]),
        }
    }
}

/// Flag `held[i]` for each key `(k, i)` (sorted under `cmp`) that some
/// valid slot equals: one binary search per slot, stopping once every
/// key is flagged.
fn mark<T, K>(
    slots: &[T],
    validity: &Option<Bitmap>,
    keys: &[(K, usize)],
    held: &mut [bool],
    cmp: impl Fn(&T, &K) -> Ordering,
) {
    let mut left = keys.len();
    for (s, slot) in slots.iter().enumerate() {
        if left == 0 {
            return;
        }
        if validity.as_ref().is_some_and(|v| !v.get(s)) {
            continue;
        }
        if let Ok(k) = keys.binary_search_by(|(key, _)| cmp(slot, key).reverse()) {
            let i = keys[k].1;
            if !held[i] {
                held[i] = true;
                left -= 1;
            }
        }
    }
}
