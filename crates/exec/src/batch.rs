//! Columnar batches: what every box hands its consumer.
//!
//! A [`Batch`] is one typed vector per column ([`Column`], with its
//! validity [`Bitmap`], both defined by the catalog, which stores
//! tables in them). The executor's operators — the select executor,
//! the aggregation kernel, set operations, the fixpoint accumulators —
//! read and produce batches; rows are built only for the query root
//! ([`Batch::rows`]), as views of one buffer per result. The scalar
//! evaluator's frame reads a position in a batch in place
//! ([`Batch::value`]).
//!
//! A batch over a stored table ([`Batch::over_table`]) borrows the
//! table's own columns: nothing is converted or copied. One built
//! *from columns* (a select's projection) holds exactly the live
//! columns its producer gathered.

use std::slice::ChunksExactMut;
use std::sync::Arc;

use starmagic_catalog::Table;
pub use starmagic_catalog::{Bitmap, Column};
use starmagic_common::{Row, Value};

/// A columnar batch: typed column vectors of equal length.
#[derive(Debug, Clone)]
pub struct Batch {
    columns: Columns,
    len: usize,
}

/// Where a batch's columns live.
#[derive(Debug, Clone)]
enum Columns {
    /// A stored table's, borrowed in place (the handle keeps that table
    /// version alive).
    Table(Arc<Table>),
    /// Assembled from columns: every column a consumer may read is
    /// there, `None` marks one pruned as dead.
    Owned(Vec<Option<Column>>),
}

impl Batch {
    /// A batch holding `rows`, every column built. All rows must share
    /// the arity of the first.
    pub fn from_rows(rows: &[Row]) -> Batch {
        let arity = rows.first().map_or(0, Row::arity);
        let columns = (0..arity)
            .map(|c| Some(Column::from_rows(rows, c)))
            .collect();
        Batch::from_columns(columns, rows.len())
    }

    /// A batch over a stored table's columns, sharing them.
    pub(crate) fn over_table(table: Arc<Table>) -> Batch {
        Batch {
            len: table.row_count(),
            columns: Columns::Table(table),
        }
    }

    /// A batch of `len` rows from a producer's projection vectors;
    /// `None` marks an output column no consumer reads.
    pub(crate) fn from_columns(columns: Vec<Option<Column>>, len: usize) -> Batch {
        debug_assert!(columns.iter().flatten().all(|c| c.len() == len));
        Batch {
            columns: Columns::Owned(columns),
            len,
        }
    }

    /// The rows of `parts`, each of `arity` columns, one part after
    /// another. A column some part pruned as dead is pruned here too.
    pub(crate) fn concat(arity: usize, parts: &[Arc<Batch>]) -> Batch {
        let parts: Vec<&Arc<Batch>> = parts.iter().filter(|p| !p.is_empty()).collect();
        let columns = (0..arity)
            .map(|c| {
                let mut out = Column::Mixed(Vec::new());
                for part in &parts {
                    out.append(part.try_column(c)?.clone());
                }
                Some(out)
            })
            .collect();
        Batch::from_columns(columns, parts.iter().map(|p| p.len()).sum())
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
        match &self.columns {
            Columns::Table(table) => table.schema().arity(),
            Columns::Owned(columns) => columns.len(),
        }
    }

    /// Column `c`.
    ///
    /// # Panics
    /// If the producer pruned `c` as dead: the live-column pass missed a
    /// reader, which is an executor bug.
    pub fn column(&self, c: usize) -> &Column {
        self.try_column(c)
            .unwrap_or_else(|| panic!("column {c} was pruned as dead but is read"))
    }

    /// Column `c`, unless the producer pruned it as dead.
    fn try_column(&self, c: usize) -> Option<&Column> {
        match &self.columns {
            Columns::Table(table) => Some(&table.columns()[c]),
            Columns::Owned(columns) => columns[c].as_ref(),
        }
    }

    /// Whether column `c` is there to read (not pruned as dead).
    pub fn is_live(&self, c: usize) -> bool {
        self.try_column(c).is_some()
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
    /// On a batch over a table: only a batch assembled from columns
    /// grows.
    pub(crate) fn append(&mut self, src: &Batch, ids: &[u32]) {
        let Columns::Owned(columns) = &mut self.columns else {
            panic!("a batch over a table does not grow");
        };
        for (c, column) in columns.iter_mut().enumerate() {
            column
                .as_mut()
                .expect("an accumulator builds every column")
                .append(src.column(c).take(ids));
        }
        self.len += ids.len();
    }

    /// Column `c` of row `i`; a pruned column reads as NULL, as in
    /// [`Batch::rows`].
    pub(crate) fn value(&self, c: usize, i: usize) -> Value {
        self.try_column(c)
            .map_or(Value::Null, |column| column.value(i))
    }

    /// Materialize every row, in order: one buffer of `len × arity`
    /// values, filled column by column, each row a view of it
    /// ([`Row::views`]). A pruned column reads as NULL (nobody reads
    /// it, but the row keeps its arity and offsets).
    pub fn rows(&self) -> Vec<Row> {
        let arity = self.arity();
        let mut buffer: Arc<[Value]> = (0..self.len * arity).map(|_| Value::Null).collect();
        let slots = Arc::get_mut(&mut buffer).expect("a buffer just built has no other owner");
        for c in 0..arity {
            if let Some(column) = self.try_column(c) {
                fill(slots.chunks_exact_mut(arity), c, column);
            }
        }
        Row::views(&buffer, arity, self.len)
    }
}

/// Write `column` into slot `c` of each row of `rows`: one `match`, then
/// a typed loop; a NULL slot keeps the `Null` the buffer starts with.
fn fill(rows: ChunksExactMut<'_, Value>, c: usize, column: &Column) {
    fn typed<T>(
        rows: ChunksExactMut<'_, Value>,
        c: usize,
        values: &[T],
        validity: &Option<Bitmap>,
        value: impl Fn(&T) -> Value,
    ) {
        for (i, (row, v)) in rows.zip(values).enumerate() {
            if validity.as_ref().map_or(true, |bits| bits.get(i)) {
                row[c] = value(v);
            }
        }
    }
    match column {
        Column::Int64 { values, validity } => typed(rows, c, values, validity, |&v| Value::Int(v)),
        Column::Float64 { values, validity } => {
            typed(rows, c, values, validity, |&v| Value::Double(v));
        }
        Column::Str { values, validity } => {
            typed(rows, c, values, validity, |v| Value::Str(v.clone()));
        }
        Column::Bool { values, validity } => typed(rows, c, values, validity, |&v| Value::Bool(v)),
        Column::Mixed(values) => typed(rows, c, values, &None, Value::clone),
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
    fn a_batch_over_a_table_borrows_its_columns() {
        // A scan converts nothing: every column the batch hands out is
        // the table's own, and the rows read back are the rows loaded.
        use starmagic_catalog::{ColumnDef, TableSchema};
        use starmagic_common::DataType;
        let schema = TableSchema::new(
            "t",
            [DataType::Int, DataType::Str, DataType::Double]
                .into_iter()
                .enumerate()
                .map(|(c, ty)| ColumnDef::new(format!("c{c}"), ty))
                .collect(),
        );
        let table = Arc::new(Table::with_rows(schema, rows()).unwrap());
        let batch = Batch::over_table(table.clone());
        assert_eq!((batch.len(), batch.arity()), (3, 3));
        for c in 0..3 {
            assert!(batch.is_live(c));
            assert!(std::ptr::eq(batch.column(c), &table.columns()[c]));
        }
        assert!(matches!(batch.column(0), Column::Int64 { .. }));
        assert_eq!(batch.rows(), rows());
        assert_eq!(batch.rows()[1], table.row(1));
    }

    #[test]
    fn a_batch_from_columns_reads_pruned_columns_as_null_in_rows() {
        let full = Batch::from_rows(&rows());
        let pruned = Batch::from_columns(vec![Some(full.column(0).clone()), None], 3);
        assert!(pruned.is_live(0) && !pruned.is_live(1));
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

    /// Every row of `batch` as [`Column::value`] reads it slot by slot,
    /// NULL in a pruned column: what [`Batch::rows`] must equal.
    fn per_slot(batch: &Batch) -> Vec<Row> {
        (0..batch.len())
            .map(|i| (0..batch.arity()).map(|c| batch.value(c, i)).collect())
            .collect()
    }

    /// Rows from one buffer follow each other in it, `arity` apart.
    fn assert_one_buffer(rows: &[Row], arity: usize) {
        for (k, row) in rows.iter().enumerate() {
            assert_eq!(row.arity(), arity);
            assert_eq!(
                row.values().as_ptr(),
                rows[0].values().as_ptr().wrapping_add(k * arity)
            );
        }
    }

    #[test]
    fn a_result_is_one_buffer_of_contiguous_rows() {
        let batch = Batch::from_rows(&rows());
        let got = batch.rows();
        assert_one_buffer(&got, 3);
        for (view, alone) in got.iter().zip(rows()) {
            assert_eq!(view, &alone);
            assert_eq!(format!("{view:?}"), format!("{alone:?}"));
        }
        // Zero arity: rows without values; zero rows: no rows.
        assert_eq!(
            Batch::from_columns(Vec::new(), 3).rows(),
            vec![Row::empty(); 3]
        );
        assert!(Batch::from_columns(vec![None, None], 0).rows().is_empty());
    }

    mod one_buffer {
        use super::*;
        use proptest::prelude::*;
        use starmagic_catalog::{ColumnDef, TableSchema};
        use starmagic_common::DataType;

        /// A value of `kind` (0 `Int`, 1 `Double` with both zeros, 2
        /// `Str`, 3 `Bool`, else any of them, so the column is `Mixed`),
        /// NULL one time in four.
        fn cell(kind: usize) -> BoxedStrategy<Value> {
            let ints = || (-5i64..5).prop_map(Value::Int).boxed();
            let doubles = || {
                prop_oneof![
                    Just(Value::Double(-0.0)),
                    (-4i64..4).prop_map(|h| Value::Double(h as f64 / 2.0))
                ]
                .boxed()
            };
            let strs = || "[ab]{0,2}".prop_map(Value::str).boxed();
            let bools = || any::<bool>().prop_map(Value::Bool).boxed();
            let non_null = match kind {
                0 => ints(),
                1 => doubles(),
                2 => strs(),
                3 => bools(),
                _ => prop_oneof![ints(), doubles(), strs(), bools()].boxed(),
            };
            prop::option::of(non_null)
                .prop_map(|v| v.unwrap_or(Value::Null))
                .boxed()
        }

        /// Up to four columns of up to 12 slots each, one length for
        /// all; each column's values and whether the producer pruned it.
        fn columns() -> impl Strategy<Value = (usize, Vec<(Vec<Value>, bool)>)> {
            (0usize..5, 0usize..13).prop_flat_map(|(arity, len)| {
                let column = (0usize..6, any::<bool>()).prop_flat_map(move |(kind, pruned)| {
                    prop::collection::vec(cell(kind), len).prop_map(move |v| (v, pruned))
                });
                prop::collection::vec(column, arity).prop_map(move |cols| (len, cols))
            })
        }

        /// Every row's `Debug` text, which tells `-0.0` from `0.0` and
        /// `1` from `1.0` where `==` does not.
        fn text(rows: &[Row]) -> Vec<String> {
            rows.iter().map(|r| format!("{r:?}")).collect()
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(512))]

            /// Over typed, `Mixed`, NULL-bearing and pruned columns, zero
            /// rows and zero arity, a batch from columns and one over a
            /// table give the rows that reading every slot gives, as
            /// views of one buffer.
            #[test]
            fn rows_equal_the_per_slot_reference(drawn in columns()) {
                let (len, drawn) = (drawn.0, &drawn.1);
                let arity = drawn.len();
                let built: Vec<Column> =
                    drawn.iter().map(|(v, _)| Column::from_values(v)).collect();
                let pruned = drawn.iter().zip(&built).map(|((_, pruned), column)| {
                    (!pruned).then(|| column.clone())
                });
                let batch = Batch::from_columns(pruned.collect(), len);
                let got = batch.rows();
                prop_assert_eq!(got.len(), len);
                prop_assert_eq!(text(&got), text(&per_slot(&batch)));
                assert_one_buffer(&got, arity);

                let schema = TableSchema::new(
                    "t",
                    (0..arity)
                        .map(|c| ColumnDef::new(format!("c{c}"), DataType::Int))
                        .collect(),
                );
                let table = Table::with_columns(schema, built).unwrap();
                let over_table = Batch::over_table(Arc::new(table));
                let got = over_table.rows();
                prop_assert_eq!(got.len(), if arity == 0 { 0 } else { len });
                prop_assert_eq!(text(&got), text(&per_slot(&over_table)));
                assert_one_buffer(&got, arity);
            }
        }
    }
}
