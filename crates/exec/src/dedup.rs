//! Key numbering: one hashed key set behind every equality key the
//! executor keeps — GROUP BY ([`group`]), DISTINCT, the set operations
//! ([`set_op`]), DISTINCT aggregates, the fixpoint accumulators and the
//! row-id tables of indexes and hash joins.
//!
//! A [`KeySet`] stores no keys, only their hashes and the positions of
//! the rows holding them; when a candidate's hash matches a stored one
//! the caller compares the two rows under grouping semantics, so a
//! collision costs a comparison, never a wrong answer, and the
//! first-admitted representative of every key is the one kept.
//!
//! Hashes are computed a column at a time over a batch
//! ([`hash_columns`]) or a value slice at a time ([`key_hash`]) and
//! agree with [`Value`]'s `Hash`/`Eq`: NULL hashes like NULL, and `Int`
//! and `Double` both hash the bits of the number's `f64` image, a zero
//! as `+0.0` — exactly what `impl Hash for Value` feeds its hasher — so
//! `1` and `1.0`, or `-0.0` and `0`, always land on one hash. The mixing
//! is FxHash's multiply-rotate per value and a murmur finalizer per
//! row: std only, and no SipHash round per value.

use std::sync::Arc;

use starmagic_common::Value;
use starmagic_qgm::SetOpKind;

use crate::batch::{Batch, Column};

/// An empty slot of the open-addressing table.
const EMPTY: u32 = u32::MAX;

/// Open-addressing set of row positions keyed by their hash. Positions
/// are dense — the `k`-th admitted key is position `k` — so the caller
/// maps a position to wherever it keeps that row.
#[derive(Debug, Default, Clone)]
pub(crate) struct KeySet {
    /// Power-of-two table of positions, at most half full.
    slots: Vec<u32>,
    /// Per admitted position, its hash: growth re-slots without
    /// re-hashing a row.
    hashes: Vec<u64>,
}

impl KeySet {
    /// Admit the key with hash `h` unless `same(k)` holds for a stored
    /// position `k` of equal hash. Returns whether it was admitted — as
    /// the next position, the number of keys admitted before it.
    pub(crate) fn insert(&mut self, h: u64, same: impl Fn(usize) -> bool) -> bool {
        self.position(h, same).1
    }

    /// [`KeySet::insert`], also answering the key's position: the stored
    /// one, or the one it was admitted as.
    pub(crate) fn position(&mut self, h: u64, same: impl Fn(usize) -> bool) -> (usize, bool) {
        if 2 * (self.hashes.len() + 1) > self.slots.len() {
            self.grow();
        }
        match self.probe(h, same) {
            Ok(k) => (k, false),
            Err(slot) => {
                let k = self.hashes.len();
                self.slots[slot] = u32::try_from(k).expect("under 2^32 keys");
                self.hashes.push(h);
                (k, true)
            }
        }
    }

    /// The stored position `k` of hash `h` for which `same(k)` holds.
    pub(crate) fn find(&self, h: u64, same: impl Fn(usize) -> bool) -> Option<usize> {
        if self.slots.is_empty() {
            return None;
        }
        self.probe(h, same).ok()
    }

    /// The stored position of the key, or the empty slot where it would
    /// go. The table must hold an empty slot.
    fn probe(&self, h: u64, same: impl Fn(usize) -> bool) -> Result<usize, usize> {
        let mask = self.slots.len() - 1;
        let mut i = h as usize & mask;
        loop {
            match self.slots[i] {
                EMPTY => return Err(i),
                k if self.hashes[k as usize] == h && same(k as usize) => return Ok(k as usize),
                _ => i = (i + 1) & mask,
            }
        }
    }

    fn grow(&mut self) {
        let size = (2 * self.slots.len()).max(16);
        self.slots = vec![EMPTY; size];
        for (k, &h) in self.hashes.iter().enumerate() {
            let mut i = h as usize & (size - 1);
            while self.slots[i] != EMPTY {
                i = (i + 1) & (size - 1);
            }
            self.slots[i] = k as u32;
        }
    }
}

/// FxHash's multiplier.
const K: u64 = 0x517c_c1b7_2722_0a95;

/// Fold one word into a running hash.
fn fold(h: u64, word: u64) -> u64 {
    (h.rotate_left(5) ^ word).wrapping_mul(K)
}

// Type tags, as in `impl Hash for Value`: one tag for both numerics.
const NULL: u64 = 0;
const BOOL: u64 = 1;
const NUMBER: u64 = 2;
const STR: u64 = 3;

/// A number's hash: its `f64` image, `-0.0 + 0.0` being `+0.0`.
fn number_hash(d: f64) -> u64 {
    fold(NUMBER, (d + 0.0).to_bits())
}

fn bool_hash(b: bool) -> u64 {
    fold(BOOL, u64::from(b))
}

fn str_hash(s: &str) -> u64 {
    let mut chunks = s.as_bytes().chunks_exact(8);
    let mut h = fold(STR, s.len() as u64);
    for chunk in &mut chunks {
        h = fold(h, u64::from_le_bytes(chunk.try_into().expect("8 bytes")));
    }
    let mut tail = [0u8; 8];
    tail[..chunks.remainder().len()].copy_from_slice(chunks.remainder());
    fold(h, u64::from_le_bytes(tail))
}

/// One value's hash; a typed column computes the same number without
/// building the [`Value`].
fn value_hash(v: &Value) -> u64 {
    match v {
        Value::Null => NULL,
        Value::Bool(b) => bool_hash(*b),
        Value::Int(i) => number_hash(*i as f64),
        Value::Double(d) => number_hash(*d),
        Value::Str(s) => str_hash(s),
    }
}

/// Spread a row's folded hash over all 64 bits (murmur3's finalizer):
/// the table indexes by the low bits.
fn finish(mut h: u64) -> u64 {
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^ (h >> 33)
}

/// The hash of one key given as values, one per key column: what
/// [`hash_columns`] computes for a row holding them.
pub(crate) fn key_hash(key: &[Value]) -> u64 {
    finish(key.iter().fold(0, |h, v| fold(h, value_hash(v))))
}

/// The row hashes of the first `n` slots of `columns`, one column at a
/// time.
pub(crate) fn hash_columns(columns: &[&Column], n: usize) -> Vec<u64> {
    let mut hashes = vec![0u64; n];
    for column in columns {
        fold_column(column, &mut hashes);
    }
    for h in &mut hashes {
        *h = finish(*h);
    }
    hashes
}

fn fold_column(column: &Column, hashes: &mut [u64]) {
    macro_rules! typed {
        ($values:expr, $validity:expr, $hash:expr) => {
            for (k, h) in hashes.iter_mut().enumerate() {
                let valid = $validity.as_ref().map_or(true, |bits| bits.get(k));
                *h = fold(*h, if valid { $hash(&$values[k]) } else { NULL });
            }
        };
    }
    match column {
        Column::Int64 { values, validity } => {
            typed!(values, validity, |i: &i64| number_hash(*i as f64));
        }
        Column::Float64 { values, validity } => {
            typed!(values, validity, |d: &f64| number_hash(*d));
        }
        Column::Str { values, validity } => {
            typed!(values, validity, |s: &std::sync::Arc<str>| str_hash(s));
        }
        Column::Bool { values, validity } => typed!(values, validity, |b: &bool| bool_hash(*b)),
        Column::Mixed(values) => {
            for (h, v) in hashes.iter_mut().zip(values) {
                *h = fold(*h, value_hash(v));
            }
        }
    }
}

/// Grouping equality of slot `i` of `a` and slot `j` of `b`: what
/// `a.value(i) == b.value(j)` answers, typed where the types match.
fn same_at(a: &Column, i: usize, b: &Column, j: usize) -> bool {
    match (a.is_null(i), b.is_null(j)) {
        (true, true) => return true,
        (false, false) => {}
        _ => return false,
    }
    match (a, b) {
        (Column::Int64 { values: x, .. }, Column::Int64 { values: y, .. }) => x[i] == y[j],
        (Column::Float64 { values: x, .. }, Column::Float64 { values: y, .. }) => {
            Value::double_cmp(x[i], y[j]).is_eq()
        }
        (Column::Str { values: x, .. }, Column::Str { values: y, .. }) => x[i] == y[j],
        (Column::Bool { values: x, .. }, Column::Bool { values: y, .. }) => x[i] == y[j],
        _ => a.value(i) == b.value(j),
    }
}

/// Whether row `i` of `a` and row `j` of `b` are one key.
pub(crate) fn same_row(a: &[&Column], i: usize, b: &[&Column], j: usize) -> bool {
    a.iter().zip(b).all(|(x, y)| same_at(x, i, y, j))
}

/// Rows numbered by key ([`group`]).
pub(crate) struct Groups {
    /// Group `g`'s key is position `g`.
    pub set: KeySet,
    /// Per row, its group.
    pub ids: Vec<u32>,
    /// Per group, its first row.
    pub first: Vec<u32>,
}

/// Number the first `n` rows of `keys` by key, groups in
/// first-appearance order (grouping semantics: NULLs equal, `1` equal
/// to `1.0`, `-0.0` to `0`). No key column puts every row in one group,
/// none for `n == 0`.
pub(crate) fn group(keys: &[&Column], n: usize) -> Groups {
    let mut set = KeySet::default();
    let mut first: Vec<u32> = Vec::new();
    let ids = (hash_columns(keys, n).into_iter().enumerate())
        .map(|(i, h)| {
            let (g, fresh) = set.position(h, |g| same_row(keys, first[g] as usize, keys, i));
            if fresh {
                first.push(i as u32);
            }
            g as u32
        })
        .collect();
    Groups { set, ids, first }
}

/// The positions of each distinct row's first occurrence in `batch`, in
/// order (the first spelling stays).
pub(crate) fn distinct_ids(batch: &Batch) -> Vec<u32> {
    group(&all_columns(batch), batch.len()).first
}

fn all_columns(batch: &Batch) -> Vec<&Column> {
    (0..batch.arity()).map(|c| batch.column(c)).collect()
}

fn distinct(batch: Batch) -> Batch {
    batch.take(&distinct_ids(&batch))
}

/// One set operation over its arms, each of `arity` columns: UNION over
/// every arm, EXCEPT of the first arm against all the others, INTERSECT
/// of the first two. The ALL forms keep a count per key of the right
/// side and spend it one left row at a time; the others keep each key's
/// first left row. `distinct_box`: the box also enforces DISTINCT.
pub(crate) fn set_op(
    op: SetOpKind,
    all: bool,
    distinct_box: bool,
    arity: usize,
    arms: &[Arc<Batch>],
) -> Batch {
    let result = match op {
        SetOpKind::Union => {
            let union = Batch::concat(arity, arms);
            if all {
                union
            } else {
                distinct(union)
            }
        }
        SetOpKind::Except | SetOpKind::Intersect => {
            let empty = Batch::empty(arity);
            let left = arms.first().map_or(&empty, |a| a.as_ref());
            let others = match op {
                SetOpKind::Except => arms.get(1..),
                _ => arms.get(1..2),
            };
            let right = Batch::concat(arity, others.unwrap_or_default());
            let right_columns = all_columns(&right);
            // Per right key: its first row, and how many rows hold it.
            let Groups { set, ids, first } = group(&right_columns, right.len());
            let mut counts = vec![0u64; first.len()];
            for &g in &ids {
                counts[g as usize] += 1;
            }
            let left_columns = all_columns(left);
            let mut kept: Vec<u32> = Vec::new();
            for (i, h) in hash_columns(&left_columns, left.len())
                .into_iter()
                .enumerate()
            {
                let found = set.find(h, |g| {
                    same_row(&right_columns, first[g] as usize, &left_columns, i)
                });
                // A bag match spends one of its key's right rows.
                let matched = match found {
                    Some(k) if all => {
                        let spare = counts[k] > 0;
                        counts[k] -= u64::from(spare);
                        spare
                    }
                    found => found.is_some(),
                };
                if matched == (op == SetOpKind::Intersect) {
                    kept.push(i as u32);
                }
            }
            let kept = left.take(&kept);
            if all {
                kept
            } else {
                distinct(kept)
            }
        }
    };
    if distinct_box {
        distinct(result)
    } else {
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use starmagic_common::Row;
    use std::collections::HashSet;

    fn row(values: &[Value]) -> Row {
        Row::new(values.to_vec())
    }

    #[test]
    fn typed_and_mixed_columns_hash_like_rows() {
        let rows = vec![
            row(&[Value::Int(1), Value::str("abcdefghij"), Value::Null]),
            row(&[Value::Null, Value::str(""), Value::Double(1.0)]),
            row(&[Value::Int(-7), Value::Null, Value::Bool(true)]),
        ];
        let batch = Batch::from_rows(&rows);
        let columns: Vec<&Column> = (0..3).map(|c| batch.column(c)).collect();
        assert!(matches!(columns[0], Column::Int64 { .. }));
        assert!(matches!(columns[2], Column::Mixed(_)));
        let by_row: Vec<u64> = rows.iter().map(|r| key_hash(r.values())).collect();
        assert_eq!(hash_columns(&columns, 3), by_row);
    }

    #[test]
    fn one_and_one_point_zero_are_one_key_and_the_first_stays() {
        let rows = vec![
            row(&[Value::Int(1), Value::Null]),
            row(&[Value::Double(1.0), Value::Null]),
            row(&[Value::Double(-0.0), Value::Null]),
            row(&[Value::Int(0), Value::Null]),
        ];
        let out = distinct(Batch::from_rows(&rows)).rows();
        // -0.0 and 0 are one key, as 1 and 1.0 are.
        assert_eq!(format!("{out:?}"), format!("{:?}", [&rows[0], &rows[2]]));
        // An Int64 column against a Float64 one: the same answer.
        for (int, double) in [(0, 1), (3, 2)] {
            let ints = Batch::from_rows(&rows[int..=int]);
            let doubles = Batch::from_rows(&rows[double..=double]);
            let (a, b) = ([ints.column(0)], [doubles.column(0)]);
            assert!(same_row(&a, 0, &b, 0));
            assert_eq!(hash_columns(&a, 1), hash_columns(&b, 1));
        }
        // Two Float64 zeros: one key.
        let zeros = Batch::from_rows(&[row(&[Value::Double(0.0)]), row(&[Value::Double(-0.0)])]);
        let zeros = [zeros.column(0)];
        assert!(matches!(zeros[0], Column::Float64 { .. }));
        assert!(same_row(&zeros, 0, &zeros, 1));
        let hashes = hash_columns(&zeros, 2);
        assert_eq!(hashes[0], hashes[1]);
        assert_eq!(distinct_ids(&Batch::from_rows(&rows[2..])), [0]);
    }

    #[test]
    fn agrees_with_a_hash_set_of_rows_through_growth_and_collisions() {
        // 3 000 rows over 500 keys, NULLs included: the table grows
        // eight times and every bucket sees repeats.
        let rows: Vec<Row> = (0..3000i64)
            .map(|i| {
                let k = (i * 7919) % 500;
                let a = if k % 11 == 0 {
                    Value::Null
                } else {
                    Value::Int(k / 3)
                };
                row(&[a, Value::Int(k % 3)])
            })
            .collect();
        let mut seen = HashSet::new();
        let expected: Vec<Row> = rows
            .iter()
            .filter(|r| seen.insert((*r).clone()))
            .cloned()
            .collect();
        let batch = Batch::from_rows(&rows);
        assert_eq!(batch.take(&distinct_ids(&batch)).rows(), expected);
        // Every hash colliding: comparisons alone decide.
        let mut keys = KeySet::default();
        let fresh: Vec<bool> = (0..40usize)
            .map(|i| keys.insert(7, |k| k == i % 20))
            .collect();
        assert_eq!(fresh.iter().filter(|&&f| f).count(), 20);
    }
}
