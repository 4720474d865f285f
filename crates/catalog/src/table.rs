//! In-memory base tables, stored as typed columns.

use std::cmp::Ordering;

use starmagic_common::{Error, Result, Row, Value};

use crate::column::Column;
use crate::schema::TableSchema;
use crate::stats::{FreshValues, TableStats};

/// An in-memory base table: schema, one [`Column`] per schema column,
/// and exact statistics, kept current by every [`Table::load`] and
/// [`Table::insert`].
///
/// Column `c` always equals [`Column::from_rows`] over the table's rows
/// at `c`, whatever sequence of loads and inserts produced them: a
/// reader borrows the columns as they are, with nothing to convert.
/// A table builds a row only when somebody asks for one
/// ([`Table::row`]); the executor's query root reads the columns
/// straight into its result buffer instead.
#[derive(Debug, Clone)]
pub struct Table {
    schema: TableSchema,
    columns: Vec<Column>,
    len: usize,
    stats: TableStats,
}

impl Table {
    /// Build an empty table.
    pub fn new(schema: TableSchema) -> Table {
        let arity = schema.arity();
        Table {
            schema,
            columns: vec![Column::Mixed(Vec::new()); arity],
            len: 0,
            stats: TableStats::empty(arity),
        }
    }

    /// Build a table with rows (validates arity and key uniqueness,
    /// then computes statistics).
    pub fn with_rows(schema: TableSchema, rows: Vec<Row>) -> Result<Table> {
        let mut t = Table::new(schema);
        t.load(rows)?;
        Ok(t)
    }

    /// Build a table from its columns, one per schema column, each typed
    /// as [`Column::from_values`] types its values (validates the column
    /// count, their lengths and key uniqueness, then computes the
    /// statistics [`Table::with_rows`] would over the same rows). No row
    /// is built.
    pub fn with_columns(schema: TableSchema, columns: Vec<Column>) -> Result<Table> {
        let len = columns.first().map_or(0, Column::len);
        let mut t = Table::new(schema);
        if columns.len() != t.schema.arity() || columns.iter().any(|c| c.len() != len) {
            return Err(Error::semantic(format!(
                "table {} needs {} columns of one length",
                t.schema.name,
                t.schema.arity()
            )));
        }
        t.store(columns, len)?;
        Ok(t)
    }

    /// Replace the table's contents.
    pub fn load(&mut self, rows: Vec<Row>) -> Result<()> {
        for r in &rows {
            self.check_arity(r)?;
        }
        let columns = (0..self.schema.arity())
            .map(|c| Column::from_rows(&rows, c))
            .collect();
        self.store(columns, rows.len())
    }

    /// Replace the table's contents with `columns` of `len` slots, unless
    /// two rows share a key: sorted by key, a duplicate sits next to its
    /// twin. The statistics are computed column by column, in row order.
    fn store(&mut self, columns: Vec<Column>, len: usize) -> Result<()> {
        if let Some(key) = &self.schema.key {
            let key_cmp = |a: usize, b: usize| {
                key.iter()
                    .map(|&c| columns[c].value(a).group_cmp(&columns[c].value(b)))
                    .find(|o| o.is_ne())
                    .unwrap_or(Ordering::Equal)
            };
            let mut ids: Vec<usize> = (0..len).collect();
            ids.sort_unstable_by(|&a, &b| key_cmp(a, b));
            if ids.windows(2).any(|w| key_cmp(w[0], w[1]).is_eq()) {
                return Err(self.duplicate_key());
            }
        }
        self.stats = TableStats::of_columns(&columns, len);
        self.columns = columns;
        self.len = len;
        Ok(())
    }

    /// Append rows. Arity and column types are checked on the new rows
    /// only. One typed pass per stored column looks the statement's
    /// distinct new values up ([`Column::mark_held`]); what it finds
    /// keeps the statistics exact and decides key uniqueness. Then
    /// every column grows in place. Atomic: on any error the table is
    /// unchanged.
    pub fn insert(&mut self, rows: Vec<Row>) -> Result<()> {
        for r in &rows {
            self.check_arity(r)?;
            self.check_types(r)?;
        }
        let mut fresh = FreshValues::of(self.schema.arity(), &rows);
        fresh.strike(&self.columns);
        if let Some(key) = &self.schema.key {
            self.check_new_keys(key, &rows, &fresh)?;
        }
        self.stats.append(&rows, &fresh);
        for (c, column) in self.columns.iter_mut().enumerate() {
            column.append_detected(Column::from_rows(&rows, c));
        }
        self.len += rows.len();
        Ok(())
    }

    /// Reject `rows` if two of them share a key, or one shares a stored
    /// row's key. A new row can collide only if the stored columns hold
    /// each of its key values, as `fresh` (struck) records; a NULL is
    /// held where a NULL is stored, since grouping has NULL = NULL.
    /// With one key column that already is a collision; a composite key
    /// compares whole keys with the stored rows for those rows only.
    fn check_new_keys(&self, key: &[usize], rows: &[Row], fresh: &FreshValues) -> Result<()> {
        let key_cmp = |a: &Row, b: &Row| {
            key.iter()
                .map(|&c| a.get(c).group_cmp(b.get(c)))
                .find(|o| o.is_ne())
                .unwrap_or(Ordering::Equal)
        };
        let mut candidates: Vec<&Row> = rows.iter().collect();
        candidates.sort_by(|a, b| key_cmp(a, b));
        if candidates.windows(2).any(|w| key_cmp(w[0], w[1]).is_eq()) {
            return Err(self.duplicate_key());
        }
        let held = |c: usize, v: &Value| match v {
            Value::Null => self.stats.columns[c].nulls > 0,
            v => fresh.held(c, v),
        };
        candidates.retain(|r| key.iter().all(|&c| held(c, r.get(c))));
        if candidates.is_empty() {
            return Ok(());
        }
        let stored_cmp = |new: &Row, i: usize| {
            key.iter()
                .map(|&c| new.get(c).group_cmp(&self.columns[c].value(i)))
                .find(|o| o.is_ne())
                .unwrap_or(Ordering::Equal)
        };
        if key.len() == 1
            || (0..self.len).any(|i| {
                candidates
                    .binary_search_by(|new| stored_cmp(new, i))
                    .is_ok()
            })
        {
            return Err(self.duplicate_key());
        }
        Ok(())
    }

    fn check_arity(&self, row: &Row) -> Result<()> {
        if row.arity() == self.schema.arity() {
            return Ok(());
        }
        Err(Error::semantic(format!(
            "row arity {} does not match table {} arity {}",
            row.arity(),
            self.schema.name,
            self.schema.arity()
        )))
    }

    /// NULL fits every column, a numeric value any numeric column.
    fn check_types(&self, row: &Row) -> Result<()> {
        for (col, v) in self.schema.columns.iter().zip(row.values()) {
            if v.data_type().is_some_and(|t| !t.comparable_with(col.dtype)) {
                return Err(Error::semantic(format!(
                    "value {v} does not fit column {}.{} of type {}",
                    self.schema.name, col.name, col.dtype
                )));
            }
        }
        Ok(())
    }

    fn duplicate_key(&self) -> Error {
        Error::semantic(format!(
            "duplicate primary key in table {}",
            self.schema.name
        ))
    }

    pub fn schema(&self) -> &TableSchema {
        &self.schema
    }

    /// The stored columns, one per schema column.
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// Row `i`, materialized from the columns.
    pub fn row(&self, i: usize) -> Row {
        self.columns.iter().map(|c| c.value(i)).collect()
    }

    pub fn stats(&self) -> &TableStats {
        &self.stats
    }

    pub fn row_count(&self) -> usize {
        self.len
    }

    /// Every row, in order.
    #[cfg(test)]
    pub(crate) fn rows(&self) -> Vec<Row> {
        (0..self.len).map(|i| self.row(i)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::ColumnDef;
    use starmagic_common::DataType;

    fn schema() -> TableSchema {
        TableSchema::new(
            "t",
            vec![
                ColumnDef::new("id", DataType::Int),
                ColumnDef::new("name", DataType::Str),
            ],
        )
        .with_key(&["id"])
        .unwrap()
    }

    #[test]
    fn load_computes_stats() {
        let t = Table::with_rows(
            schema(),
            vec![
                Row::new(vec![Value::Int(1), Value::str("a")]),
                Row::new(vec![Value::Int(2), Value::str("b")]),
            ],
        )
        .unwrap();
        assert_eq!(t.row_count(), 2);
        assert_eq!(t.stats().columns[0].ndv, 2);
    }

    #[test]
    fn rejects_wrong_arity() {
        let r = Table::with_rows(schema(), vec![Row::new(vec![Value::Int(1)])]);
        assert!(r.is_err());
    }

    #[test]
    fn rejects_duplicate_keys() {
        let r = Table::with_rows(
            schema(),
            vec![
                Row::new(vec![Value::Int(1), Value::str("a")]),
                Row::new(vec![Value::Int(1), Value::str("b")]),
            ],
        );
        assert!(r.is_err());
    }

    #[test]
    fn with_columns_rejects_a_wrong_count_or_ragged_columns() {
        let ids = Column::from_values(&[Value::Int(1), Value::Int(2)]);
        let names = Column::from_values(&[Value::str("a")]);
        assert!(Table::with_columns(schema(), vec![ids.clone()]).is_err());
        assert!(Table::with_columns(schema(), vec![ids.clone(), names]).is_err());
        let names = Column::from_values(&[Value::str("a"), Value::str("b")]);
        let t = Table::with_columns(schema(), vec![ids, names]).unwrap();
        assert_eq!(t.row_count(), 2);
        assert_eq!(t.row(1), Row::new(vec![Value::Int(2), Value::str("b")]));
    }

    #[test]
    fn reload_replaces_contents() {
        let mut t = Table::new(schema());
        t.load(vec![Row::new(vec![Value::Int(9), Value::str("z")])])
            .unwrap();
        assert_eq!(t.row_count(), 1);
        t.load(vec![]).unwrap();
        assert_eq!(t.row_count(), 0);
        assert_eq!(t.stats().rows, 0);
    }

    #[test]
    fn insert_appends_and_rejects_duplicates_atomically() {
        let mut t = Table::with_rows(
            schema(),
            vec![Row::new(vec![Value::Int(1), Value::str("a")])],
        )
        .unwrap();
        t.insert(vec![Row::new(vec![Value::Int(2), Value::str("b")])])
            .unwrap();
        assert_eq!(t.row_count(), 2);
        let before = (t.rows(), t.stats().clone());
        // The second row collides with a stored key, so the first,
        // which is fine on its own, must not land either.
        let err = t
            .insert(vec![
                Row::new(vec![Value::Int(3), Value::str("c")]),
                Row::new(vec![Value::Int(1), Value::str("d")]),
            ])
            .unwrap_err();
        assert!(err.to_string().contains("duplicate primary key"), "{err}");
        // So must a collision between two rows of the statement.
        let twice = Row::new(vec![Value::Int(7), Value::Null]);
        assert!(t.insert(vec![twice.clone(), twice]).is_err());
        assert_eq!((t.rows(), t.stats().clone()), before);
    }

    #[test]
    fn insert_checks_column_types() {
        let mut t = Table::new(TableSchema::new(
            "t",
            vec![
                ColumnDef::new("i", DataType::Int),
                ColumnDef::new("d", DataType::Double),
                ColumnDef::new("s", DataType::Str),
                ColumnDef::new("b", DataType::Bool),
            ],
        ));
        let row = |i: Value, d: Value, s: Value, b: Value| vec![Row::new(vec![i, d, s, b])];
        // NULL fits everywhere; numerics fit either numeric type.
        t.insert(row(Value::Null, Value::Null, Value::Null, Value::Null))
            .unwrap();
        t.insert(row(
            Value::Double(1.5),
            Value::Int(2),
            Value::str("x"),
            Value::Bool(true),
        ))
        .unwrap();
        for (bad, column) in [
            (
                row(Value::str("1"), Value::Null, Value::Null, Value::Null),
                "t.i",
            ),
            (
                row(Value::Null, Value::Bool(true), Value::Null, Value::Null),
                "t.d",
            ),
            (
                row(Value::Null, Value::Null, Value::Int(1), Value::Null),
                "t.s",
            ),
            (
                row(Value::Null, Value::Null, Value::Null, Value::Int(0)),
                "t.b",
            ),
        ] {
            let err = t.insert(bad).unwrap_err();
            assert!(matches!(err, Error::Semantic(_)), "{err}");
            assert!(err.to_string().contains(column), "{err}");
        }
        assert_eq!(t.row_count(), 2);
    }

    /// Beyond 2^53 `Int(2^53 + 1)` rounds onto `Double(2^53)` but is
    /// not equal to it: an INSERT counts it as a new value, as a load of
    /// all the rows does, in whichever order the cluster arrives.
    #[test]
    fn insert_and_load_agree_on_ndv_beyond_2_pow_53() {
        let exact = 1i64 << 53;
        let cluster = [
            Value::Int(exact + 1),
            Value::Double(exact as f64),
            Value::Int(exact),
        ];
        for ty in [DataType::Double, DataType::Int] {
            let schema = TableSchema::new("t", vec![ColumnDef::new("x", ty)]);
            for order in [
                [0, 1, 2],
                [0, 2, 1],
                [1, 0, 2],
                [1, 2, 0],
                [2, 0, 1],
                [2, 1, 0],
            ] {
                let rows: Vec<Row> = (order.iter())
                    .map(|&i| Row::new(vec![cluster[i].clone()]))
                    .collect();
                let loaded = TableStats::compute(1, &rows);
                assert_eq!(loaded.columns[0].ndv, 2, "{order:?}");
                let mut table = Table::with_rows(schema.clone(), rows[..2].to_vec()).unwrap();
                table.insert(rows[2..].to_vec()).unwrap();
                assert_eq!(table.stats(), &loaded, "{ty:?} {order:?}");
            }
        }
    }

    mod incremental_stats {
        use super::*;
        use proptest::prelude::*;

        /// A column's values: a narrow range, so statements repeat
        /// stored values and collide on keys, with new minima and
        /// maxima arriving late; NULL one time in four.
        fn cell(kind: usize) -> BoxedStrategy<Value> {
            let non_null = match kind {
                0 => (-4i64..8).prop_map(Value::Int).boxed(),
                // 1 and 1.0 are one value to grouping and to `ndv`.
                1 => prop_oneof![
                    (0i64..4).prop_map(Value::Int),
                    (0i64..8).prop_map(|h| Value::Double(h as f64 / 2.0))
                ]
                .boxed(),
                _ => "[ab]{0,2}".prop_map(Value::str).boxed(),
            };
            prop::option::of(non_null)
                .prop_map(|v| v.unwrap_or(Value::Null))
                .boxed()
        }

        fn statement() -> impl Strategy<Value = Vec<Row>> {
            prop::collection::vec(
                (cell(0), cell(1), cell(2)).prop_map(|(a, b, c)| Row::new(vec![a, b, c])),
                1..5,
            )
        }

        proptest! {
            /// After every statement of a random sequence the table
            /// equals one loaded from scratch — rows, and statistics
            /// bit for bit — and a statement the loader would reject
            /// (a key stored already, or twice in the statement)
            /// changes nothing.
            #[test]
            fn insert_agrees_with_load(
                key_shape in 0usize..3,
                statements in prop::collection::vec(statement(), 1..12),
            ) {
                let columns = vec![
                    ColumnDef::new("a", DataType::Int),
                    ColumnDef::new("b", DataType::Double),
                    ColumnDef::new("c", DataType::Str),
                ];
                let schema = match key_shape {
                    0 => TableSchema::new("t", columns),
                    1 => TableSchema::new("t", columns).with_key(&["a"]).unwrap(),
                    _ => TableSchema::new("t", columns).with_key(&["c", "a"]).unwrap(),
                };
                let mut table = Table::new(schema.clone());
                for new_rows in &statements {
                    let mut all = table.rows();
                    all.extend(new_rows.iter().cloned());
                    let new_rows = new_rows.clone();
                    let before = (table.rows(), table.stats().clone());
                    match Table::with_rows(schema.clone(), all) {
                        Ok(loaded) => {
                            prop_assert!(table.insert(new_rows).is_ok());
                            prop_assert_eq!(table.rows(), loaded.rows());
                            // `Value`'s `==` takes 1 for 1.0; the text does not.
                            prop_assert_eq!(
                                format!("{:?}", table.stats()),
                                format!("{:?}", loaded.stats())
                            );
                        }
                        Err(_) => {
                            prop_assert!(table.insert(new_rows).is_err());
                            prop_assert_eq!((table.rows(), table.stats().clone()), before);
                        }
                    }
                }
            }
        }
    }

    mod from_columns {
        use super::*;
        use proptest::prelude::*;

        /// A row of three narrow-range cells, NULL one time in four: an
        /// INT, a numeric mix of `Int` and `Double`, and a short string.
        fn row() -> impl Strategy<Value = Row> {
            let int = || (-3i64..6).prop_map(Value::Int).boxed();
            let number = prop_oneof![
                int(),
                (-2i64..4).prop_map(|h| Value::Double(h as f64 / 2.0))
            ];
            let string = "[ab]{0,2}".prop_map(Value::str).boxed();
            let nullable = |s: BoxedStrategy<Value>| {
                prop::option::of(s).prop_map(|v| v.unwrap_or(Value::Null))
            };
            (nullable(int()), nullable(number.boxed()), nullable(string))
                .prop_map(|(a, b, c)| Row::new(vec![a, b, c]))
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(512))]

            /// A table built from the columns of some rows is the table
            /// those rows load: accepted exactly when no two rows share
            /// a key, with the same columns, and statistics equal, bit
            /// for bit, to `TableStats::compute` over the rows.
            #[test]
            fn columns_build_what_rows_load(
                key_shape in 0usize..3,
                rows in prop::collection::vec(row(), 0..30),
            ) {
                let columns = vec![
                    ColumnDef::new("a", DataType::Int),
                    ColumnDef::new("b", DataType::Double),
                    ColumnDef::new("c", DataType::Str),
                ];
                let schema = match key_shape {
                    0 => TableSchema::new("t", columns),
                    1 => TableSchema::new("t", columns).with_key(&["a"]).unwrap(),
                    _ => TableSchema::new("t", columns).with_key(&["c", "a"]).unwrap(),
                };
                let key = schema.key.clone().unwrap_or_default();
                let mut keys = std::collections::HashSet::new();
                let unique = key.is_empty()
                    || rows.iter().all(|r| {
                        keys.insert(key.iter().map(|&c| r.get(c).clone()).collect::<Vec<_>>())
                    });
                let columns: Vec<Column> = (0..3).map(|c| Column::from_rows(&rows, c)).collect();
                let built = Table::with_columns(schema.clone(), columns.clone());
                prop_assert_eq!(built.is_ok(), unique);
                prop_assert_eq!(Table::with_rows(schema, rows.clone()).is_ok(), unique);
                if let Ok(table) = built {
                    prop_assert_eq!(table.row_count(), rows.len());
                    prop_assert_eq!(format!("{:?}", table.rows()), format!("{rows:?}"));
                    prop_assert_eq!(format!("{:?}", table.columns()), format!("{columns:?}"));
                    prop_assert_eq!(
                        format!("{:?}", table.stats()),
                        format!("{:?}", TableStats::compute(3, &rows))
                    );
                }
            }
        }
    }

    mod stored_columns {
        use super::*;
        use proptest::prelude::*;

        /// What a drawn row may hold beyond its columns' own types.
        #[derive(Debug, Clone, Copy)]
        enum Cells {
            Typed,
            /// Strings in the INT column, which only a load accepts.
            StrInInt,
            /// Doubles in the INT column: `2.0` equals a stored `2`,
            /// `-0.0` a stored `0`.
            DoubleInInt,
        }

        /// An INT cell: an integer or NULL, or per `cells` a string or
        /// a double.
        fn int_cell(cells: Cells) -> BoxedStrategy<Value> {
            let int = || (-3i64..12).prop_map(Value::Int);
            match cells {
                Cells::Typed => prop_oneof![Just(Value::Null), int(), int()].boxed(),
                Cells::StrInInt => {
                    prop_oneof![Just(Value::Null), int(), int(), "[xy]".prop_map(Value::str)]
                        .boxed()
                }
                Cells::DoubleInInt => prop_oneof![
                    Just(Value::Null),
                    int(),
                    prop_oneof![Just(2.0), Just(-0.0), Just(0.5)].prop_map(Value::Double)
                ]
                .boxed(),
            }
        }

        /// A DOUBLE cell: `1` and `1.0`, `0.0` and `-0.0`, or NULL.
        fn double_cell() -> impl Strategy<Value = Value> {
            prop_oneof![
                Just(Value::Null),
                (0i64..3).prop_map(Value::Int),
                prop_oneof![Just(0.0), Just(-0.0), Just(1.0), Just(2.5)].prop_map(Value::Double),
            ]
        }

        /// A VARCHAR cell: strings of one length that differ in one
        /// byte (`a`, `b`), and strings that prefix others (`a`, `ab`).
        fn str_cell() -> impl Strategy<Value = Value> {
            prop::option::of("[ab]{0,2}".prop_map(Value::str))
                .prop_map(|v| v.unwrap_or(Value::Null))
        }

        fn bool_cell() -> impl Strategy<Value = Value> {
            prop::option::of(any::<bool>().prop_map(Value::Bool))
                .prop_map(|v| v.unwrap_or(Value::Null))
        }

        fn rows(max: usize, cells: Cells) -> impl Strategy<Value = Vec<Row>> {
            prop::collection::vec(
                (int_cell(cells), double_cell(), str_cell(), bool_cell())
                    .prop_map(|(a, b, c, d)| Row::new(vec![a, b, c, d])),
                0..max,
            )
        }

        /// An insert: mostly well-typed, up to 23 rows; sometimes short,
        /// with strings or doubles for the INT column.
        fn statement() -> impl Strategy<Value = Vec<Row>> {
            prop_oneof![
                rows(24, Cells::Typed),
                rows(24, Cells::Typed),
                rows(6, Cells::StrInInt),
                rows(6, Cells::DoubleInInt)
            ]
        }

        /// Every column's `Debug` text, which tells `-0.0` from `0.0`
        /// and `1` from `1.0`.
        fn text(columns: &[Column]) -> Vec<String> {
            columns.iter().map(|c| format!("{c:?}")).collect()
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(512))]

            /// Over a random load and a random sequence of inserts, each
            /// stored column is, after every statement, exactly the
            /// column `Column::from_rows` builds over the table's rows,
            /// and the statistics exactly `TableStats::compute`'s; a
            /// statement is rejected exactly when it repeats a key or
            /// puts a string in the INT column, and then leaves every
            /// column bit-identical.
            #[test]
            fn stored_columns_equal_their_rows_columns(
                key_shape in 0usize..3,
                loaded in rows(8, Cells::StrInInt),
                statements in prop::collection::vec(statement(), 1..8),
            ) {
                let columns = vec![
                    ColumnDef::new("a", DataType::Int),
                    ColumnDef::new("b", DataType::Double),
                    ColumnDef::new("c", DataType::Str),
                    ColumnDef::new("d", DataType::Bool),
                ];
                let schema = match key_shape {
                    0 => TableSchema::new("t", columns),
                    1 => TableSchema::new("t", columns).with_key(&["a"]).unwrap(),
                    _ => TableSchema::new("t", columns).with_key(&["c", "a"]).unwrap(),
                };
                let mut table = Table::with_rows(schema.clone(), loaded.clone())
                    .unwrap_or_else(|_| Table::new(schema));
                let mut model = if table.row_count() == 0 { Vec::new() } else { loaded.clone() };
                let key = table.schema().key.clone().unwrap_or_default();
                let same_key =
                    |x: &Row, y: &Row| key.iter().all(|&c| x.get(c).group_cmp(y.get(c)).is_eq());
                for new_rows in &statements {
                    let fits = new_rows.iter().all(|r| !matches!(r.get(0), Value::Str(_)));
                    let unique = key.is_empty()
                        || new_rows.iter().enumerate().all(|(i, r)| {
                            model.iter().chain(&new_rows[..i]).all(|m| !same_key(m, r))
                        });
                    let before = (text(table.columns()), table.stats().clone());
                    let accepted = table.insert(new_rows.clone()).is_ok();
                    prop_assert_eq!(accepted, fits && unique);
                    if accepted {
                        model.extend(new_rows.iter().cloned());
                    } else {
                        prop_assert_eq!(&text(table.columns()), &before.0);
                        prop_assert_eq!(table.stats(), &before.1);
                    }
                    let rows = table.rows();
                    prop_assert_eq!(format!("{rows:?}"), format!("{model:?}"));
                    let rebuilt: Vec<Column> =
                        (0..4).map(|c| Column::from_rows(&rows, c)).collect();
                    prop_assert_eq!(text(table.columns()), text(&rebuilt));
                    prop_assert_eq!(
                        format!("{:?}", table.stats()),
                        format!("{:?}", TableStats::compute(4, &rows))
                    );
                }
            }
        }
    }

    /// A bulk statement: 5 000 rows into a 20 000-row table, with fresh
    /// keys, strings repeated inside the statement and from the table,
    /// NULLs, and integers into the DOUBLE column. The grown table
    /// equals one loaded from all the rows; the same statement with
    /// one key equal to the last stored row's changes nothing.
    #[test]
    fn a_bulk_insert_equals_a_load_of_all_rows() {
        let schema = TableSchema::new(
            "t",
            vec![
                ColumnDef::new("id", DataType::Int),
                ColumnDef::new("name", DataType::Str),
                ColumnDef::new("score", DataType::Double),
                ColumnDef::new("flag", DataType::Bool),
            ],
        )
        .with_key(&["id"])
        .unwrap();
        let stored: Vec<Row> = (0..20_000i64)
            .map(|i| {
                Row::new(vec![
                    Value::Int(i * 7 % 20_000),
                    Value::str(format!("name{}", i % 101)),
                    match i % 11 {
                        0 => Value::Null,
                        k => Value::Double(k as f64 / 4.0),
                    },
                    Value::Bool(i % 3 == 0),
                ])
            })
            .collect();
        let statement: Vec<Row> = (0..5_000i64)
            .map(|k| {
                Row::new(vec![
                    Value::Int(20_000 + k * 3),
                    match k % 4 {
                        0 => Value::Null,
                        1 => Value::str(format!("name{}", k % 150)),
                        _ => Value::str(format!("new{}", k % 7)),
                    },
                    match k % 5 {
                        0 => Value::Null,
                        1 => Value::Double(-0.0),
                        r => Value::Int(r),
                    },
                    if k % 6 == 0 {
                        Value::Null
                    } else {
                        Value::Bool(k % 2 == 0)
                    },
                ])
            })
            .collect();
        let text =
            |t: &Table| -> Vec<String> { t.columns().iter().map(|c| format!("{c:?}")).collect() };
        let table = Table::with_rows(schema.clone(), stored.clone()).unwrap();

        let mut grown = table.clone();
        grown.insert(statement.clone()).unwrap();
        let all: Vec<Row> = stored.iter().chain(&statement).cloned().collect();
        let loaded = Table::with_rows(schema, all).unwrap();
        assert_eq!(text(&grown), text(&loaded));
        assert_eq!(
            format!("{:?}", grown.stats()),
            format!("{:?}", loaded.stats())
        );

        let mut colliding = statement;
        colliding[2_500] = Row::new(vec![
            stored.last().unwrap().get(0).clone(),
            Value::str("new0"),
            Value::Int(1),
            Value::Null,
        ]);
        let mut rejected = table.clone();
        let err = rejected.insert(colliding).unwrap_err();
        assert!(err.to_string().contains("duplicate primary key"), "{err}");
        assert_eq!(text(&rejected), text(&table));
        assert_eq!(
            format!("{:?}", rejected.stats()),
            format!("{:?}", table.stats())
        );
    }
}
