//! The catalog: a map from table names to base tables, plus stored
//! view definitions (parsed once, expanded by the frontend).

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::sync::Arc;

use starmagic_common::{Error, Result};
use starmagic_sql::Query;

use crate::table::Table;

/// A stored view definition: the view name, its column names, and the
/// parsed body. Views are expanded into the query graph by the QGM
/// builder, exactly as Starburst inlines view blobs into the query.
#[derive(Debug, Clone, PartialEq)]
pub struct ViewDef {
    pub name: String,
    pub columns: Vec<String>,
    /// The body, parsed when the view was defined: every reference to
    /// the view expands this one tree, and clones of the catalog share
    /// it.
    pub body: Arc<Query>,
    /// Whether the view may reference itself (stratified recursion).
    pub recursive: bool,
}

impl ViewDef {
    /// Define a view over the query `body_sql`; fails if it does not
    /// parse.
    pub fn new(
        name: impl Into<String>,
        columns: Vec<String>,
        body_sql: &str,
        recursive: bool,
    ) -> Result<ViewDef> {
        Ok(ViewDef {
            name: name.into(),
            columns,
            body: Arc::new(starmagic_sql::parse_query(body_sql)?),
            recursive,
        })
    }
}

/// Look `name` up in a map of lowercase names: the entry and the key it
/// is stored under. Callers mostly pass the stored form already, so the
/// name is tried as given first and lowercased only when it has an
/// uppercase letter to fold.
fn lookup<'m, 'n, V>(map: &'m BTreeMap<String, V>, name: &'n str) -> Option<(Cow<'n, str>, &'m V)> {
    if let Some(v) = map.get(name) {
        return Some((Cow::Borrowed(name), v));
    }
    if !name.bytes().any(|b| b.is_ascii_uppercase()) {
        return None;
    }
    let lower = name.to_ascii_lowercase();
    let v = map.get(&lower)?;
    Some((Cow::Owned(lower), v))
}

/// Reject a relation whose (lowercase) column names repeat: a reference
/// to the name would silently bind to the first of them.
fn distinct_columns<'c>(
    kind: &str,
    relation: &str,
    columns: impl IntoIterator<Item = &'c str>,
) -> Result<()> {
    let mut seen = std::collections::HashSet::new();
    for column in columns {
        if !seen.insert(column) {
            return Err(Error::semantic(format!(
                "duplicate column {column} in {kind} {relation}"
            )));
        }
    }
    Ok(())
}

/// The catalog of base tables and views.
///
/// Cloning is a handful of pointer bumps: every table and the view map
/// sit behind an `Arc` shared with the original. A mutation then
/// copies only what it touches ([`Catalog::table_mut`] one table,
/// [`Catalog::add_view`] the view map), so a clone is the cheap
/// private copy a writer mutates while readers keep the original.
#[derive(Debug, Default, Clone)]
pub struct Catalog {
    tables: BTreeMap<String, Arc<Table>>,
    views: Arc<BTreeMap<String, ViewDef>>,
}

impl Catalog {
    pub fn new() -> Catalog {
        Catalog::default()
    }

    /// Register a base table. Errors if any table or view already has
    /// the name, or two of its columns share one.
    pub fn add_table(&mut self, table: Table) -> Result<()> {
        let name = table.schema().name.clone();
        if self.tables.contains_key(&name) || self.views.contains_key(&name) {
            return Err(Error::AlreadyExists(name));
        }
        distinct_columns("table", &name, table.schema().column_names())?;
        self.tables.insert(name, Arc::new(table));
        Ok(())
    }

    /// Register a view definition. Errors on name collisions, among
    /// relations or among the view's columns.
    pub fn add_view(&mut self, view: ViewDef) -> Result<()> {
        let name = view.name.to_ascii_lowercase();
        if self.tables.contains_key(&name) || self.views.contains_key(&name) {
            return Err(Error::AlreadyExists(name));
        }
        let columns: Vec<String> = view
            .columns
            .iter()
            .map(|c| c.to_ascii_lowercase())
            .collect();
        distinct_columns("view", &name, columns.iter().map(String::as_str))?;
        Arc::make_mut(&mut self.views).insert(
            name.clone(),
            ViewDef {
                name,
                columns,
                ..view
            },
        );
        Ok(())
    }

    /// Look up a base table.
    pub fn table(&self, name: &str) -> Result<&Table> {
        self.table_arc(name).map(|t| &**t)
    }

    /// Look up a base table as the shared handle the catalog holds.
    /// The pointer identifies one version of the table's contents:
    /// [`Catalog::table_mut`] on a clone of this catalog replaces it,
    /// so derived structures (indexes) can be validated against it.
    pub fn table_arc(&self, name: &str) -> Result<&Arc<Table>> {
        lookup(&self.tables, name)
            .map(|(_, t)| t)
            .ok_or_else(|| Error::NotFound(format!("table {name}")))
    }

    /// Look up a base table mutably (for loading data). Copies the
    /// table first if a clone of this catalog still shares it; no
    /// other table is touched.
    pub fn table_mut(&mut self, name: &str) -> Result<&mut Table> {
        lookup(&self.tables, name)
            .map(|(key, _)| key)
            .and_then(|key| self.tables.get_mut(&*key))
            .map(Arc::make_mut)
            .ok_or_else(|| Error::NotFound(format!("table {name}")))
    }

    /// Look up a view definition.
    pub fn view(&self, name: &str) -> Option<&ViewDef> {
        lookup(&self.views, name).map(|(_, v)| v)
    }

    /// Whether the name refers to a base table.
    pub fn is_table(&self, name: &str) -> bool {
        lookup(&self.tables, name).is_some()
    }

    /// All base-table names, sorted.
    pub fn table_names(&self) -> Vec<&str> {
        self.tables
            .keys()
            .map(std::string::String::as_str)
            .collect()
    }

    /// All view names, sorted.
    pub fn view_names(&self) -> Vec<&str> {
        self.views.keys().map(std::string::String::as_str).collect()
    }

    /// Drop a view (used by benchmarks that redefine workloads).
    pub fn drop_view(&mut self, name: &str) -> Result<()> {
        let (key, _) =
            lookup(&self.views, name).ok_or_else(|| Error::NotFound(format!("view {name}")))?;
        Arc::make_mut(&mut self.views).remove(&*key);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{ColumnDef, TableSchema};
    use starmagic_common::DataType;

    fn table(name: &str) -> Table {
        Table::new(TableSchema::new(
            name,
            vec![ColumnDef::new("x", DataType::Int)],
        ))
    }

    #[test]
    fn add_and_lookup_table() {
        let mut c = Catalog::new();
        c.add_table(table("T1")).unwrap();
        assert!(c.table("t1").is_ok());
        assert!(c.table("T1").is_ok());
        assert!(c.table("t2").is_err());
        assert!(c.is_table("t1"));
    }

    #[test]
    fn duplicate_table_rejected() {
        let mut c = Catalog::new();
        c.add_table(table("t")).unwrap();
        assert!(c.add_table(table("T")).is_err());
    }

    #[test]
    fn views_share_namespace_with_tables() {
        let mut c = Catalog::new();
        c.add_table(table("t")).unwrap();
        let v = ViewDef::new("T", vec!["x".into()], "SELECT x FROM t", false).unwrap();
        assert!(c.add_view(v).is_err());
    }

    #[test]
    fn view_roundtrip_and_drop() {
        let mut c = Catalog::new();
        c.add_view(ViewDef::new("V", vec!["A".into()], "SELECT a FROM t", false).unwrap())
            .unwrap();
        let v = c.view("v").unwrap();
        assert_eq!(v.name, "v");
        assert_eq!(v.columns, vec!["a"]);
        c.drop_view("V").unwrap();
        assert!(c.view("v").is_none());
    }

    #[test]
    fn a_clone_shares_everything_and_a_write_copies_one_table() {
        let mut original = Catalog::new();
        original.add_table(table("a")).unwrap();
        original.add_table(table("b")).unwrap();
        let mut copy = original.clone();
        for t in ["a", "b"] {
            assert!(Arc::ptr_eq(
                original.table_arc(t).unwrap(),
                copy.table_arc(t).unwrap()
            ));
        }
        copy.table_mut("A")
            .unwrap()
            .insert(vec![starmagic_common::Row::new(vec![1.into()])])
            .unwrap();
        assert_eq!(original.table("a").unwrap().row_count(), 0);
        assert_eq!(copy.table("a").unwrap().row_count(), 1);
        assert!(Arc::ptr_eq(
            original.table_arc("b").unwrap(),
            copy.table_arc("b").unwrap()
        ));
        // A view added to the copy is the copy's alone.
        copy.add_view(ViewDef::new("v", vec!["x".into()], "SELECT x FROM a", false).unwrap())
            .unwrap();
        assert!(original.view("v").is_none());
    }

    #[test]
    fn lookups_fold_mixed_case_names() {
        let mut c = Catalog::new();
        c.add_table(table("Orders")).unwrap();
        c.add_view(ViewDef::new("BigOrders", vec![], "SELECT x FROM orders", false).unwrap())
            .unwrap();
        for name in ["orders", "Orders", "ORDERS"] {
            assert!(c.is_table(name), "{name}");
            assert!(c.table(name).is_ok(), "{name}");
            assert!(c.table_mut(name).is_ok(), "{name}");
            assert!(c.view(name).is_none(), "{name}");
        }
        for name in ["bigorders", "BigOrders", "BIGORDERS"] {
            assert_eq!(c.view(name).map(|v| v.name.as_str()), Some("bigorders"));
            assert!(!c.is_table(name), "{name}");
        }
        assert!(c.table_mut("Missing").is_err());
        assert!(c.drop_view("Missing").is_err());
        c.drop_view("BIGorders").unwrap();
        assert!(c.view("bigorders").is_none());
    }

    #[test]
    fn duplicate_column_names_are_rejected_after_case_folding() {
        let mut c = Catalog::new();
        let twice = |a: &str, b: &str| {
            Table::new(TableSchema::new(
                "t",
                vec![
                    ColumnDef::new(a, DataType::Int),
                    ColumnDef::new(b, DataType::Int),
                ],
            ))
        };
        for (a, b) in [("a", "a"), ("A", "a")] {
            let err = c.add_table(twice(a, b)).unwrap_err();
            assert!(matches!(err, Error::Semantic(_)), "{err}");
            assert!(err.to_string().contains("column a in table t"), "{err}");
        }
        assert!(!c.is_table("t"));
        let v = ViewDef::new(
            "VV",
            vec!["x".into(), "X".into()],
            "SELECT k, s FROM w",
            false,
        );
        let err = c.add_view(v.unwrap()).unwrap_err();
        assert!(err.to_string().contains("column x in view vv"), "{err}");
        assert!(c.view("vv").is_none());
        c.add_table(twice("a", "b")).unwrap();
    }

    #[test]
    fn name_listings_sorted() {
        let mut c = Catalog::new();
        c.add_table(table("b")).unwrap();
        c.add_table(table("a")).unwrap();
        assert_eq!(c.table_names(), vec!["a", "b"]);
    }
}
