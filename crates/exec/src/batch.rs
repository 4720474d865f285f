//! Columnar batches: typed column vectors with validity bitmaps.
//!
//! A [`Batch`] is the columnar mirror of a `Vec<Row>`: one typed
//! vector per column ([`Column`]), each with an optional validity
//! bitmap marking NULL slots. The executor's vectorized operators
//! (`columnar` selects, the aggregation kernel) flow batches through
//! scans, filters, hash joins, and group-by, touching values
//! column-at-a-time for cache locality; row-oriented operators (set
//! ops, outer join) consume the same data through the [`Batch::rows`]
//! adapter, so the two representations interconvert losslessly. The
//! fixpoint accumulators are batches too, grown by [`Batch::append`].
//!
//! A batch pays only for the columns somebody reads. One built *over
//! rows* ([`Batch::from_rows`], a base table) type-detects and copies a
//! column on its first [`Batch::column`] call; one built *from columns*
//! (a columnar select's projection) holds exactly the live columns its
//! producer gathered.
//!
//! Hand-rolled on purpose: the build environment is offline, so no
//! arrow — a `Vec<i64>` plus a `u64`-word bitmap is all the layout the
//! executor needs. Conversion preserves the exact [`Value`] variants
//! (a column holding `Int` stays `Int64`, never silently widened to
//! `Float64`), which keeps round-tripped rows byte-identical to the
//! originals — load-bearing for the determinism contract.

use std::sync::{Arc, OnceLock};

use starmagic_catalog::Table;
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
        let mut ty: Option<u8> = None; // 0=Int 1=Double 2=Str 3=Bool
        let mut nulls = false;
        for r in rows {
            match r.get(col) {
                Value::Null => nulls = true,
                v => {
                    let t = match v {
                        Value::Int(_) => 0,
                        Value::Double(_) => 1,
                        Value::Str(_) => 2,
                        Value::Bool(_) => 3,
                        Value::Null => unreachable!(),
                    };
                    match ty {
                        None => ty = Some(t),
                        Some(seen) if seen == t => {}
                        Some(_) => return Column::mixed_from(rows, col),
                    }
                }
            }
        }
        let Some(ty) = ty else {
            // All NULL: no typed representation is better than another.
            return Column::mixed_from(rows, col);
        };
        let n = rows.len();
        let mut validity = nulls.then(|| Bitmap::filled(n, true));
        macro_rules! build {
            ($variant:ident, $default:expr, $pat:pat => $val:expr) => {{
                let mut values = Vec::with_capacity(n);
                for (i, r) in rows.iter().enumerate() {
                    match r.get(col) {
                        $pat => values.push($val),
                        Value::Null => {
                            values.push($default);
                            validity.as_mut().expect("nulls seen").set(i, false);
                        }
                        _ => unreachable!("type detected in first pass"),
                    }
                }
                Column::$variant { values, validity }
            }};
        }
        match ty {
            0 => build!(Int64, 0, Value::Int(v) => *v),
            1 => build!(Float64, 0.0, Value::Double(v) => *v),
            2 => build!(Str, Arc::from(""), Value::Str(v) => v.clone()),
            _ => build!(Bool, false, Value::Bool(v) => *v),
        }
    }

    fn mixed_from(rows: &[Row], col: usize) -> Column {
        Column::Mixed(rows.iter().map(|r| r.get(col).clone()).collect())
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

/// Rows a box result or a lazily built batch reads from: an operator's
/// own output, or a stored table's rows borrowed in place (no copy per
/// scan; the handle keeps that table version alive).
#[derive(Debug, Clone)]
pub(crate) enum RowSource {
    Owned(Arc<Vec<Row>>),
    Table(Arc<Table>),
}

impl RowSource {
    pub(crate) fn rows(&self) -> &[Row] {
        match self {
            RowSource::Owned(rows) => rows,
            RowSource::Table(t) => t.rows(),
        }
    }
}

/// A columnar batch: typed column vectors of equal length, each built
/// at most once and only when read.
#[derive(Debug, Clone)]
pub struct Batch {
    columns: Vec<OnceLock<Column>>,
    len: usize,
    /// Where a column not yet built comes from. `None` for a batch
    /// assembled from columns: every column a consumer may read is
    /// already there, the rest were pruned as dead.
    source: Option<RowSource>,
}

impl Batch {
    /// A batch over `rows`. All rows must share the arity of the first
    /// (true for every operator output in this executor). Copies the
    /// row handles, not the values; columns are built on first touch.
    pub fn from_rows(rows: &[Row]) -> Batch {
        Batch::over(RowSource::Owned(Arc::new(rows.to_vec())))
    }

    /// A batch over a row source, sharing it.
    pub(crate) fn over(source: RowSource) -> Batch {
        let arity = match &source {
            RowSource::Owned(rows) => rows.first().map_or(0, Row::arity),
            RowSource::Table(t) => t.schema().arity(),
        };
        Batch {
            columns: (0..arity).map(|_| OnceLock::new()).collect(),
            len: source.rows().len(),
            source: Some(source),
        }
    }

    /// A batch of `len` rows from a producer's projection vectors;
    /// `None` marks an output column no consumer reads.
    pub(crate) fn from_columns(columns: Vec<Option<Column>>, len: usize) -> Batch {
        Batch {
            columns: columns
                .into_iter()
                .map(|c| {
                    debug_assert!(c.as_ref().map_or(true, |c| c.len() == len));
                    c.map_or_else(OnceLock::new, OnceLock::from)
                })
                .collect(),
            len,
            source: None,
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the batch holds zero rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    /// Column `c`, built from the source rows on first use.
    ///
    /// # Panics
    /// If the producer pruned `c` as dead: the live-column pass missed a
    /// reader, which is an executor bug.
    pub fn column(&self, c: usize) -> &Column {
        self.columns[c].get_or_init(|| {
            let source = self
                .source
                .as_ref()
                .unwrap_or_else(|| panic!("column {c} was pruned as dead but is read"));
            Column::from_rows(source.rows(), c)
        })
    }

    /// Whether column `c` has been built (or was handed over built).
    pub fn is_built(&self, c: usize) -> bool {
        self.columns[c].get().is_some()
    }

    /// A batch of `arity` empty columns: the start of an accumulator.
    pub(crate) fn empty(arity: usize) -> Batch {
        Batch::from_columns(vec![Some(Column::Mixed(Vec::new())); arity], 0)
    }

    /// The `ids` rows of this batch, every column gathered.
    pub(crate) fn take(&self, ids: &[u32]) -> Batch {
        let columns = (0..self.arity())
            .map(|c| Some(self.column(c).take(ids)))
            .collect();
        Batch::from_columns(columns, ids.len())
    }

    /// Append the `ids` rows of `src`, which has this batch's arity
    /// (see [`Column::append`]). Every column of `src` is read.
    ///
    /// # Panics
    /// On a batch over rows: only a batch assembled from columns grows.
    pub(crate) fn append(&mut self, src: &Batch, ids: &[u32]) {
        assert!(self.source.is_none(), "a batch over rows does not grow");
        for (c, column) in self.columns.iter_mut().enumerate() {
            column
                .get_mut()
                .expect("an accumulator builds every column")
                .append(src.column(c).take(ids));
        }
        self.len += ids.len();
    }

    /// Materialize every row, in order. A pruned column reads as NULL
    /// (nobody reads it, but the row keeps its arity and offsets).
    pub fn rows(&self) -> Vec<Row> {
        if let Some(source) = &self.source {
            return source.rows().to_vec();
        }
        let columns: Vec<Option<&Column>> = self.columns.iter().map(OnceLock::get).collect();
        (0..self.len)
            .map(|i| {
                let values = columns
                    .iter()
                    .map(|c| c.map_or(Value::Null, |c| c.value(i)));
                Row::new(values.collect::<Vec<_>>())
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows() -> Vec<Row> {
        vec![
            Row::new(vec![Value::Int(1), Value::str("a"), Value::Double(1.5)]),
            Row::new(vec![Value::Null, Value::str("b"), Value::Null]),
            Row::new(vec![Value::Int(3), Value::Null, Value::Double(-2.0)]),
        ]
    }

    #[test]
    fn bitmap_set_get_count() {
        let mut b = Bitmap::filled(70, false);
        assert_eq!(b.count_ones(), 0);
        b.set(0, true);
        b.set(69, true);
        assert!(b.get(0) && b.get(69) && !b.get(1));
        assert_eq!(b.count_ones(), 2);
        b.set(69, false);
        assert_eq!(b.count_ones(), 1);
        assert_eq!(Bitmap::filled(70, true).count_ones(), 70);
    }

    #[test]
    fn round_trip_preserves_values_exactly() {
        let rows = rows();
        let batch = Batch::from_rows(&rows);
        assert_eq!(batch.len(), 3);
        assert_eq!(batch.arity(), 3);
        assert_eq!(batch.rows(), rows);
        assert!(matches!(batch.column(0), Column::Int64 { .. }));
        assert!(matches!(batch.column(1), Column::Str { .. }));
        assert!(matches!(batch.column(2), Column::Float64 { .. }));
    }

    #[test]
    fn mixed_and_all_null_columns() {
        let rows = vec![
            Row::new(vec![Value::Int(1), Value::Null]),
            Row::new(vec![Value::str("x"), Value::Null]),
        ];
        let batch = Batch::from_rows(&rows);
        assert!(matches!(batch.column(0), Column::Mixed(_)));
        assert!(matches!(batch.column(1), Column::Mixed(_)));
        assert_eq!(batch.rows(), rows);
    }

    #[test]
    fn take_gathers_values_and_validity() {
        let batch = Batch::from_rows(&rows());
        let col = batch.column(0).take(&[2, 1, 0, 2]);
        assert_eq!(col.len(), 4);
        assert_eq!(col.value(0), Value::Int(3));
        assert!(col.is_null(1));
        assert_eq!(col.value(2), Value::Int(1));
        assert_eq!(col.value(3), Value::Int(3));
    }

    #[test]
    fn a_column_is_built_by_its_first_reader_only() {
        // The satellite fix: a batch over rows pays per column read. A
        // reader of the Int column must leave the Str column unscanned.
        let batch = Batch::from_rows(&rows());
        assert!((0..3).all(|c| !batch.is_built(c)), "nothing built up front");
        assert!(matches!(batch.column(0), Column::Int64 { .. }));
        assert!(batch.is_built(0));
        assert!(!batch.is_built(1), "the untouched Str column was scanned");
        assert!(!batch.is_built(2));
        // Rows come from the shared source, not from rebuilt columns.
        assert_eq!(batch.rows(), rows());
        assert!(!batch.is_built(1));
        // A second read serves the same column.
        assert!(std::ptr::eq(batch.column(0), batch.column(0)));
    }

    #[test]
    fn a_batch_from_columns_reads_pruned_columns_as_null_in_rows() {
        let full = Batch::from_rows(&rows());
        let pruned = Batch::from_columns(vec![Some(full.column(0).clone()), None], 3);
        assert!(pruned.is_built(0) && !pruned.is_built(1));
        assert_eq!(
            pruned.rows(),
            vec![
                Row::new(vec![Value::Int(1), Value::Null]),
                Row::new(vec![Value::Null, Value::Null]),
                Row::new(vec![Value::Int(3), Value::Null]),
            ]
        );
    }

    #[test]
    fn concat_keeps_types_and_validity_and_degrades_to_mixed() {
        let batch = Batch::from_rows(&rows());
        let ints = batch.column(0);
        let mut joined = ints.take(&[0, 1]);
        joined.append(ints.take(&[2]));
        joined.append(ints.take(&[1, 0]));
        assert!(matches!(joined, Column::Int64 { .. }));
        let values: Vec<Value> = (0..joined.len()).map(|k| joined.value(k)).collect();
        assert_eq!(
            values,
            vec![
                Value::Int(1),
                Value::Null,
                Value::Int(3),
                Value::Null,
                Value::Int(1)
            ]
        );
        let mut mixed = ints.take(&[0]);
        mixed.append(batch.column(1).take(&[0]));
        assert!(matches!(mixed, Column::Mixed(_)));
        assert_eq!(mixed.value(1), Value::str("a"));
        assert_eq!(Column::constant(&Value::Int(7), 2).value(1), Value::Int(7));
        assert!(Column::constant(&Value::Null, 2).is_null(0));
    }

    #[test]
    fn an_accumulator_grows_typed_until_the_types_mix() {
        let src = Batch::from_rows(&rows());
        let mut acc = Batch::empty(3);
        acc.append(&src, &[0, 1]);
        acc.append(&src, &[2]);
        assert!(matches!(acc.column(0), Column::Int64 { .. }));
        assert!(matches!(acc.column(1), Column::Str { .. }));
        assert_eq!(acc.rows(), rows());
        // A Double under an Int column: Mixed, every value as it went in.
        let doubles = [Row::new(vec![Value::Double(1.0), Value::Null, Value::Null])];
        acc.append(&Batch::from_rows(&doubles), &[0]);
        assert!(matches!(acc.column(0), Column::Mixed(_)));
        assert_eq!(format!("{:?}", acc.rows()[3]), format!("{:?}", doubles[0]));
        assert_eq!(
            acc.take(&[2, 0]).rows(),
            [rows()[2].clone(), rows()[0].clone()]
        );
    }

    #[test]
    fn empty_batch() {
        let batch = Batch::from_rows(&[]);
        assert_eq!(batch.len(), 0);
        assert_eq!(batch.arity(), 0);
        assert!(batch.rows().is_empty());
    }
}
