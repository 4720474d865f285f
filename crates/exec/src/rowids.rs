//! Row-id tables: the one structure behind every equality lookup the
//! executor makes — an index probe into a stored table and a hash
//! join's build side alike.
//!
//! A [`RowIds`] holds the id of every row with a non-NULL key in one
//! `Vec<u32>`, grouped by key and ascending within a group (build-row
//! order), and each group's offset in a second `Vec<u32>`: a lookup
//! answers a slice, and no key owns an allocation. A key finds its group
//! in one of three ways, chosen once from the keys themselves:
//!
//! * **Dense** — every non-NULL key is an `Int` and `max − min < 2n + 64`
//!   for `n` non-NULL keys: group `k − min`, direct-addressed. The offset
//!   array then has at most `2n + 65` entries, so a dense table takes at
//!   most `12n + 260` bytes, three times its ids plus a constant.
//! * **Sparse** — every non-NULL key is an `Int`: an `i64` map numbers
//!   the keys.
//! * **Values** — anything else (`Double`, `Str` or mixed columns, and
//!   every composite key): a map keyed by the values under grouping
//!   equality.
//!
//! Whatever the shape, a probe answers what [`Value`]'s grouping
//! equality answers. An `Int` probe into an `Int` table is exact; any
//! other probe into one (`3.0` finds `3`) goes through a `Value` map over
//! the same groups, built on first need; NULL never matches.
//!
//! The build is two passes with no allocation per key: number each
//! row's key (a dense key is its own number), then one counting sort
//! places the ids.

use std::collections::HashMap;
use std::sync::OnceLock;

use starmagic_common::Value;

use crate::batch::{Bitmap, Column};
use crate::vector::Vector;

/// The group of a row whose key is NULL: none.
const NONE: u32 = u32::MAX;

/// Row ids grouped by key; see the module docs.
pub(crate) struct RowIds {
    ids: Vec<u32>,
    /// Group `g` holds `ids[starts[g]..starts[g + 1]]`.
    starts: Vec<u32>,
    keys: Keys,
    /// An `Int` table's groups keyed by `Value`, for probes of any other
    /// type. Built on first need: the table is shared across threads.
    by_value: OnceLock<HashMap<Vec<Value>, u32>>,
}

/// How a key finds its group.
enum Keys {
    Dense { min: i64 },
    Sparse(HashMap<i64, u32>),
    Values(HashMap<Vec<Value>, u32>),
}

/// A single key vector read as `Int`s (`None` at a NULL slot), when
/// every non-NULL key in it is one.
enum Ints<'v> {
    Typed(&'v [i64], Option<&'v Bitmap>),
    Const(Option<i64>),
}

impl<'v> Ints<'v> {
    fn of(key: &'v Vector) -> Option<Ints<'v>> {
        match key {
            Vector::Col(Column::Int64 { values, validity }) => {
                Some(Ints::Typed(values, validity.as_ref()))
            }
            Vector::Const {
                value: Value::Int(k),
                ..
            } => Some(Ints::Const(Some(*k))),
            Vector::Const {
                value: Value::Null, ..
            } => Some(Ints::Const(None)),
            _ => None,
        }
    }

    fn get(&self, i: usize) -> Option<i64> {
        match *self {
            Ints::Typed(values, validity) => validity.map_or(true, |v| v.get(i)).then(|| values[i]),
            Ints::Const(k) => k,
        }
    }
}

impl RowIds {
    /// The table over rows `0..n` whose key is slot `i` of `keys`, one
    /// vector of length `n` per key column.
    pub(crate) fn build(keys: &[Vector]) -> RowIds {
        let n = keys.first().map_or(0, Vector::len);
        if let [key] = keys {
            if let Some(ints) = Ints::of(key) {
                return RowIds::over_ints(&ints, n);
            }
        }
        let mut map: HashMap<Vec<Value>, u32> = HashMap::new();
        let mut key: Vec<Value> = Vec::with_capacity(keys.len());
        let row_groups: Vec<u32> = (0..n)
            .map(|i| {
                key.clear();
                key.extend(keys.iter().map(|k| k.value_at(i)));
                if key.iter().any(Value::is_null) {
                    return NONE;
                }
                if let Some(&g) = map.get(key.as_slice()) {
                    return g;
                }
                let g = map.len() as u32;
                map.insert(key.clone(), g);
                g
            })
            .collect();
        RowIds::sorted(&row_groups, map.len(), Keys::Values(map))
    }

    fn over_ints(ints: &Ints<'_>, n: usize) -> RowIds {
        let (mut count, mut min, mut max) = (0usize, i64::MAX, i64::MIN);
        for k in (0..n).filter_map(|i| ints.get(i)) {
            count += 1;
            min = min.min(k);
            max = max.max(k);
        }
        if count == 0 {
            return RowIds::sorted(&[], 0, Keys::Dense { min: 0 });
        }
        // In i128: `i64::MAX − i64::MIN` does not fit an i64.
        let span = i128::from(max) - i128::from(min);
        if span < 2 * count as i128 + 64 {
            let row_groups: Vec<u32> = (0..n)
                .map(|i| ints.get(i).map_or(NONE, |k| (k - min) as u32))
                .collect();
            return RowIds::sorted(&row_groups, span as usize + 1, Keys::Dense { min });
        }
        let mut map: HashMap<i64, u32> = HashMap::new();
        let row_groups: Vec<u32> = (0..n)
            .map(|i| match ints.get(i) {
                None => NONE,
                Some(k) => {
                    let next = map.len() as u32;
                    *map.entry(k).or_insert(next)
                }
            })
            .collect();
        RowIds::sorted(&row_groups, map.len(), Keys::Sparse(map))
    }

    /// One counting sort: row `i` joins group `row_groups[i]`, so every
    /// group lists its rows in ascending order.
    fn sorted(row_groups: &[u32], groups: usize, keys: Keys) -> RowIds {
        let mut starts = vec![0u32; groups + 1];
        for &g in row_groups.iter().filter(|&&g| g != NONE) {
            starts[g as usize + 1] += 1;
        }
        for g in 0..groups {
            starts[g + 1] += starts[g];
        }
        let mut ids = vec![0u32; starts[groups] as usize];
        for (i, &g) in row_groups.iter().enumerate().filter(|(_, &g)| g != NONE) {
            let next = &mut starts[g as usize];
            ids[*next as usize] = i as u32;
            *next += 1;
        }
        // Each group's start now holds its end, the next group's start.
        starts.copy_within(0..groups, 1);
        starts[0] = 0;
        RowIds {
            ids,
            starts,
            keys,
            by_value: OnceLock::new(),
        }
    }

    fn groups(&self) -> u32 {
        (self.starts.len() - 1) as u32
    }

    fn rows(&self, g: u32) -> &[u32] {
        let g = g as usize;
        &self.ids[self.starts[g] as usize..self.starts[g + 1] as usize]
    }

    /// The group of the `Int` key `k`, if any row has it.
    fn int_group(&self, k: i64) -> Option<u32> {
        match &self.keys {
            Keys::Dense { min } => k
                .checked_sub(*min)
                .and_then(|g| u32::try_from(g).ok())
                .filter(|&g| g < self.groups()),
            Keys::Sparse(map) => map.get(&k).copied(),
            Keys::Values(map) => map.get([Value::Int(k)].as_slice()).copied(),
        }
    }

    /// The group of a key under grouping equality; none when a part of
    /// it is NULL.
    fn group(&self, key: &[Value]) -> Option<u32> {
        if key.iter().any(Value::is_null) {
            return None;
        }
        match key {
            [Value::Int(k)] => self.int_group(*k),
            _ => self.value_map().get(key).copied(),
        }
    }

    /// The groups keyed by `Value`: a Values table's own map, an `Int`
    /// table's built on first need.
    fn value_map(&self) -> &HashMap<Vec<Value>, u32> {
        let keyed = |k: i64, g: u32| (vec![Value::Int(k)], g);
        match &self.keys {
            Keys::Values(map) => map,
            Keys::Dense { min } => self.by_value.get_or_init(|| {
                (0..self.groups())
                    .filter(|&g| !self.rows(g).is_empty())
                    .map(|g| keyed(min + i64::from(g), g))
                    .collect()
            }),
            Keys::Sparse(map) => self
                .by_value
                .get_or_init(|| map.iter().map(|(&k, &g)| keyed(k, g)).collect()),
        }
    }

    /// The ids of the rows whose key equals `key` (one value per key
    /// column), ascending; empty when none does.
    pub(crate) fn get(&self, key: &[Value]) -> &[u32] {
        self.group(key).map_or(&[], |g| self.rows(g))
    }

    /// Probe with one key vector per key column, position by position:
    /// each row matching position `p`'s key appends `p` to `parent` and
    /// its id to `ids`, in id order.
    pub(crate) fn probe(&self, keys: &[Vector], parent: &mut Vec<u32>, ids: &mut Vec<u32>) {
        let n = keys.first().map_or(0, Vector::len);
        let mut emit = |p: usize, g: Option<u32>| {
            if let Some(g) = g {
                let rows = self.rows(g);
                parent.resize(parent.len() + rows.len(), p as u32);
                ids.extend_from_slice(rows);
            }
        };
        if let [key] = keys {
            if let Some(ints) = Ints::of(key) {
                for p in 0..n {
                    emit(p, ints.get(p).and_then(|k| self.int_group(k)));
                }
                return;
            }
        }
        let mut key: Vec<Value> = Vec::with_capacity(keys.len());
        for p in 0..n {
            key.clear();
            key.extend(keys.iter().map(|k| k.value_at(p)));
            emit(p, self.group(&key));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use starmagic_common::Row;

    /// 2^53: from here on, neighbouring `Int`s share one `f64`.
    const EXACT: i64 = 1 << 53;

    /// A column index as it was built before row-id tables: every
    /// non-NULL key's rows, by `Value`.
    fn reference_index(keys: &[Value]) -> HashMap<Value, Vec<u32>> {
        let mut map: HashMap<Value, Vec<u32>> = HashMap::new();
        for (i, k) in keys.iter().enumerate().filter(|(_, k)| !k.is_null()) {
            map.entry(k.clone()).or_default().push(i as u32);
        }
        map
    }

    /// A hash join's build as it was: rows by composite key, none with
    /// a NULL part.
    fn reference_build(rows: &[Vec<Value>]) -> HashMap<Vec<Value>, Vec<u32>> {
        let mut map: HashMap<Vec<Value>, Vec<u32>> = HashMap::new();
        for (i, key) in rows.iter().enumerate() {
            if !key.iter().any(Value::is_null) {
                map.entry(key.clone()).or_default().push(i as u32);
            }
        }
        map
    }

    /// Column `c` of `rows`, typed the way a batch types it.
    fn column(rows: &[Vec<Value>], c: usize) -> Vector {
        let rows: Vec<Row> = rows.iter().map(|r| Row::new(r.clone())).collect();
        Vector::Col(Column::from_rows(&rows, c))
    }

    /// What [`RowIds::probe`] must answer: each position's rows under
    /// `reference`, in order.
    fn expand(
        probes: &[Vec<Value>],
        reference: impl Fn(&[Value]) -> Vec<u32>,
    ) -> (Vec<u32>, Vec<u32>) {
        let (mut parent, mut ids) = (Vec::new(), Vec::new());
        for (p, key) in probes.iter().enumerate() {
            for id in reference(key) {
                parent.push(p as u32);
                ids.push(id);
            }
        }
        (parent, ids)
    }

    fn probe(table: &RowIds, keys: &[Vector]) -> (Vec<u32>, Vec<u32>) {
        let (mut parent, mut ids) = (Vec::new(), Vec::new());
        table.probe(keys, &mut parent, &mut ids);
        (parent, ids)
    }

    /// One key of a column of the kind `kind`, NULL now and then.
    fn cell(kind: usize) -> BoxedStrategy<Value> {
        let int = |lo: i64, hi: i64| (lo..hi).prop_map(Value::Int);
        let non_null = match kind {
            // Dense.
            0 => int(0, 20).boxed(),
            // Negative and dense.
            1 => int(-40, -25).boxed(),
            // Sparse: at most 40 keys over a span of up to 29 000.
            2 => (0i64..30).prop_map(|k| Value::Int(1000 * k - 7000)).boxed(),
            // The ends of i64: the span overflows an i64.
            3 => prop_oneof![Just(i64::MIN), Just(i64::MAX), Just(0i64), Just(-1i64)]
                .prop_map(Value::Int)
                .boxed(),
            // All NULL.
            4 => Just(Value::Null).boxed(),
            // Strings.
            5 => "[ab]{0,2}".prop_map(Value::str).boxed(),
            // Int and Double in one column: 1 and 1.0 are one key.
            6 => prop_oneof![
                int(0, 6),
                (0i64..12).prop_map(|h| Value::Double(h as f64 * 0.5))
            ]
            .boxed(),
            // Past 2^53 beside small keys: 2^53 + 1 is the only key a
            // probe of 2^53 (as a Double) can mean.
            _ => prop_oneof![int(0, 5), Just(Value::Int(EXACT + 1))].boxed(),
        };
        prop::option::of(non_null)
            .prop_map(|v| v.unwrap_or(Value::Null))
            .boxed()
    }

    /// Zero to 40 rows of two key columns, each of a kind drawn per case.
    fn keys() -> impl Strategy<Value = Vec<Vec<Value>>> {
        (0usize..8, 0usize..8).prop_flat_map(|(a, b)| {
            prop::collection::vec((cell(a), cell(b)).prop_map(|(a, b)| vec![a, b]), 0..40)
        })
    }

    /// Probes for one key column: every key, its neighbours, the same
    /// number as the other numeric type, halves, both zeros, the ends of
    /// i64, 2^53 either way, strings and NULL.
    fn probes(keys: &[Value]) -> Vec<Value> {
        let mut out = vec![
            Value::Null,
            Value::Int(0),
            Value::Double(0.0),
            Value::Double(-0.0),
            Value::Int(i64::MIN),
            Value::Int(i64::MAX),
            Value::Double(i64::MIN as f64),
            Value::Double(i64::MAX as f64),
            Value::Int(EXACT),
            Value::Double(EXACT as f64),
            Value::str("a"),
            Value::str("zz"),
            Value::Bool(true),
        ];
        for k in keys {
            out.push(k.clone());
            match k {
                Value::Int(k) => out.extend([
                    Value::Int(k.wrapping_sub(1)),
                    Value::Int(k.wrapping_add(1)),
                    Value::Double(*k as f64),
                    Value::Double(*k as f64 + 0.5),
                ]),
                Value::Double(d) => out.extend([Value::Int(*d as i64), Value::Double(d + 0.25)]),
                _ => {}
            }
        }
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2000))]

        /// A single key column answers every probe with the ids the old
        /// `Value`-keyed index held, in the same order, through `get`
        /// and through `probe`, whatever vector the probes come in.
        #[test]
        fn one_key_column_agrees_with_a_value_map(rows in keys()) {
            let keys: Vec<Value> = rows.iter().map(|r| r[0].clone()).collect();
            let reference = reference_index(&keys);
            let want = |key: &[Value]| reference.get(&key[0]).cloned().unwrap_or_default();
            let table = RowIds::build(&[column(&rows, 0)]);
            let probes: Vec<Vec<Value>> = probes(&keys).into_iter().map(|p| vec![p]).collect();
            for key in &probes {
                prop_assert_eq!(table.get(key).to_vec(), want(key), "probe {:?}", key);
            }
            prop_assert_eq!(probe(&table, &[column(&probes, 0)]), expand(&probes, want));
            // The `Int` probes alone: a typed column.
            let ints: Vec<Vec<Value>> =
                probes.iter().filter(|p| matches!(p[0], Value::Int(_))).cloned().collect();
            prop_assert_eq!(probe(&table, &[column(&ints, 0)]), expand(&ints, want));
            // One probe as a constant over three positions.
            for key in &probes {
                let constant = Vector::Const { value: key[0].clone(), len: 3 };
                let repeated = vec![key.clone(); 3];
                prop_assert_eq!(probe(&table, &[constant]), expand(&repeated, want));
            }
            // Before row-id tables an `Int` build probed by `Int`s went
            // through an `i64` map; it answers the same.
            if matches!(column(&rows, 0), Vector::Col(Column::Int64 { .. })) {
                let mut by_int: HashMap<i64, Vec<u32>> = HashMap::new();
                for (i, k) in keys.iter().enumerate() {
                    if let Value::Int(k) = k {
                        by_int.entry(*k).or_default().push(i as u32);
                    }
                }
                for key in &ints {
                    let Value::Int(k) = key[0] else { unreachable!() };
                    let old = by_int.get(&k).cloned().unwrap_or_default();
                    prop_assert_eq!(table.get(key), old.as_slice());
                }
            }
        }

        /// Two key columns answer like the old composite-key build.
        #[test]
        fn composite_keys_agree_with_a_vec_map(rows in keys()) {
            let reference = reference_build(&rows);
            let want = |key: &[Value]| reference.get(key).cloned().unwrap_or_default();
            let table = RowIds::build(&[column(&rows, 0), column(&rows, 1)]);
            let firsts = probes(&rows.iter().map(|r| r[0].clone()).collect::<Vec<_>>());
            let mut probes: Vec<Vec<Value>> = rows.clone();
            for (i, first) in firsts.into_iter().enumerate() {
                let second = rows.get(i % rows.len().max(1)).map_or(Value::Int(0), |r| r[1].clone());
                probes.push(vec![first, second]);
            }
            for key in &probes {
                prop_assert_eq!(table.get(key).to_vec(), want(key), "probe {:?}", key);
            }
            let columns = [column(&probes, 0), column(&probes, 1)];
            prop_assert_eq!(probe(&table, &columns), expand(&probes, want));
        }
    }

    /// The three ways to a group, each chosen where the module docs say.
    #[test]
    fn the_shape_follows_the_keys() {
        let ints = |keys: &[i64]| {
            let rows: Vec<Vec<Value>> = keys.iter().map(|&k| vec![Value::Int(k)]).collect();
            RowIds::build(&[column(&rows, 0)])
        };
        // 40 keys: dense while the span stays under 2 · 40 + 64 = 144.
        let dense: Vec<i64> = (0..40).map(|k| 3 * k).collect();
        assert!(matches!(ints(&dense).keys, Keys::Dense { min: 0 }));
        let sparse: Vec<i64> = (0..40).map(|k| 4 * k).collect();
        assert!(matches!(ints(&sparse).keys, Keys::Sparse(_)));
        assert!(matches!(ints(&[i64::MIN, i64::MAX]).keys, Keys::Sparse(_)));
        let strings = [vec![Value::str("x")]];
        assert!(matches!(
            RowIds::build(&[column(&strings, 0)]).keys,
            Keys::Values(_)
        ));
        // The dense table's offsets: one per key in the span, plus one.
        let table = ints(&dense);
        assert_eq!(table.starts.len(), 3 * 39 + 2);
        assert_eq!(table.get(&[Value::Int(6)]), [2]);
        assert!(table.get(&[Value::Int(7)]).is_empty(), "a gap");
    }
}
