//! The recursion workload: bound transitive closure on three graph
//! shapes.
//!
//! The paper's Table 1 has no recursive workload — recursion is the
//! §2.2 motivation the EMST generalizes to. Each graph hosts the same
//! `WITH RECURSIVE` closure with the source bound in the outer block:
//! under `Strategy::Original` the fixpoint computes the full closure
//! and the bound filters afterwards, under `Strategy::Magic` the magic
//! seed restricts the fixpoint itself. `tests/boundary.rs` and this
//! module's tests run these graphs; the repository benchmark's
//! `recursion_fixpoint` workload runs [`RECURSION_SQL`] on its own,
//! seeded graphs.

use starmagic::Engine;
use starmagic_catalog::{Catalog, ColumnDef, Table, TableSchema};
use starmagic_common::{DataType, Result, Row, Value};

/// One graph shape the closure runs over.
#[derive(Debug, Clone)]
pub struct GraphSpec {
    pub name: &'static str,
    /// Directed edges (src, dst).
    pub edges: Vec<(i64, i64)>,
    /// The source node the outer block binds.
    pub bound: i64,
}

/// The three shapes: a long chain (deep fixpoint, tiny deltas), a
/// binary tree (shallow fixpoint, fanning deltas), and a pair of rings
/// (cycles — dedup, not acyclicity, terminates the fixpoint).
pub fn graphs() -> Vec<GraphSpec> {
    let mut chain = Vec::new();
    for i in 0..160i64 {
        chain.push((i, i + 1));
    }
    let mut tree = Vec::new();
    for i in 0..255i64 {
        for child in [2 * i + 1, 2 * i + 2] {
            if child <= 510 {
                tree.push((i, child));
            }
        }
    }
    let mut cyclic = Vec::new();
    for ring in 0..4i64 {
        let base = ring * 100;
        for i in 0..48i64 {
            cyclic.push((base + i, base + (i + 1) % 48));
        }
    }
    vec![
        GraphSpec {
            name: "chain",
            edges: chain,
            bound: 0,
        },
        GraphSpec {
            name: "tree",
            edges: tree,
            bound: 1,
        },
        GraphSpec {
            name: "cyclic",
            edges: cyclic,
            bound: 0,
        },
    ]
}

/// The closure query, source bound in the outer block. Right-linear
/// extension keeps `src` preserved through the step arm, so the magic
/// strategy needs only a static seed.
pub const RECURSION_SQL: &str = "WITH RECURSIVE tc (src, dst) AS ( \
                                 SELECT src, dst FROM edge \
                                 UNION \
                                 SELECT tc.src, e.dst FROM tc, edge e \
                                 WHERE e.src = tc.dst) \
                                 SELECT src, dst FROM tc WHERE src = ";

/// An engine hosting one graph as its `edge` table.
pub fn recursion_engine(spec: &GraphSpec) -> Result<Engine> {
    let mut catalog = Catalog::new();
    catalog.add_table(Table::with_rows(
        TableSchema::new(
            "edge",
            vec![
                ColumnDef::new("src", DataType::Int),
                ColumnDef::new("dst", DataType::Int),
            ],
        )
        .with_key(&["src", "dst"])?,
        spec.edges
            .iter()
            .map(|&(s, d)| Row::new(vec![Value::Int(s), Value::Int(d)]))
            .collect(),
    )?)?;
    Ok(Engine::new(catalog))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn graphs_have_the_advertised_shapes() {
        let g = graphs();
        assert_eq!(g.len(), 3);
        assert_eq!(g[0].name, "chain");
        assert_eq!(g[1].name, "tree");
        assert_eq!(g[2].name, "cyclic");
        assert!(g.iter().all(|s| !s.edges.is_empty()));
    }

    /// On every graph magic returns the naive bag for strictly less
    /// row work, through a fixpoint that actually ran.
    #[test]
    fn magic_beats_naive_on_every_graph() {
        use starmagic::Strategy;
        for spec in graphs() {
            let e = recursion_engine(&spec).unwrap();
            let sql = format!("{RECURSION_SQL}{}", spec.bound);
            let naive = e.query_profiled(&sql, Strategy::Original).unwrap();
            let magic = e.query_profiled(&sql, Strategy::Magic).unwrap();

            let mut nrows = naive.result.rows.clone();
            let mut mrows = magic.result.rows.clone();
            nrows.sort_by(Row::group_cmp);
            mrows.sort_by(Row::group_cmp);
            assert!(!nrows.is_empty(), "{}: empty closure", spec.name);
            assert_eq!(nrows, mrows, "{}: strategies disagree", spec.name);

            let (nwork, mwork) = (naive.result.metrics.work(), magic.result.metrics.work());
            assert!(
                mwork < nwork,
                "{}: magic work {mwork} !< naive work {nwork}",
                spec.name
            );
            let rounds = magic
                .profile
                .fixpoint
                .values()
                .map(|f| f.iterations)
                .max()
                .unwrap_or(0);
            assert!(rounds > 0, "{}: no fixpoint ran", spec.name);
        }
    }
}
