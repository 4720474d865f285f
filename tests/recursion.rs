//! End-to-end recursive-query coverage: `WITH RECURSIVE` through the
//! full pipeline (parse → cyclic QGM → stratification → semi-naive
//! fixpoint), checked against hand-computed expected bags under every
//! strategy, plus the stratification diagnostics and
//! the UNION ALL depth guard.

use starmagic::{Engine, Strategy};
use starmagic_catalog::{Catalog, ColumnDef, Table, TableSchema};
use starmagic_common::{DataType, Row, Value};

/// Edge table of a small directed graph:
///
/// ```text
///   0 → 1 → 2 → 3        (chain, reachable from 0)
///   1 → 4                 (branch)
///   10 → 11 → 12, 12 → 10 (3-cycle, unreachable from 0)
/// ```
fn edges() -> Vec<(i64, i64)> {
    vec![(0, 1), (1, 2), (2, 3), (1, 4), (10, 11), (11, 12), (12, 10)]
}

/// Parent table for same-generation: a two-family tree.
///
/// ```text
///   anc: 1            2
///       / \          /
///      3   4        5
///     /     \        \
///    6       7        8
/// ```
fn parents() -> Vec<(i64, i64)> {
    // (child, parent)
    vec![(3, 1), (4, 1), (5, 2), (6, 3), (7, 4), (8, 5)]
}

fn engine() -> Engine {
    let mut c = Catalog::new();
    c.add_table(
        Table::with_rows(
            TableSchema::new(
                "edge",
                vec![
                    ColumnDef::new("src", DataType::Int),
                    ColumnDef::new("dst", DataType::Int),
                ],
            )
            .with_key(&["src", "dst"])
            .unwrap(),
            edges()
                .into_iter()
                .map(|(s, d)| Row::new(vec![Value::Int(s), Value::Int(d)]))
                .collect(),
        )
        .unwrap(),
    )
    .unwrap();
    c.add_table(
        Table::with_rows(
            TableSchema::new(
                "par",
                vec![
                    ColumnDef::new("child", DataType::Int),
                    ColumnDef::new("parent", DataType::Int),
                ],
            )
            .with_key(&["child"])
            .unwrap(),
            parents()
                .into_iter()
                .map(|(ch, p)| Row::new(vec![Value::Int(ch), Value::Int(p)]))
                .collect(),
        )
        .unwrap(),
    )
    .unwrap();
    c.add_table(
        Table::with_rows(
            TableSchema::new("nums", vec![ColumnDef::new("n", DataType::Int)])
                .with_key(&["n"])
                .unwrap(),
            (0..10).map(|n| Row::new(vec![Value::Int(n)])).collect(),
        )
        .unwrap(),
    )
    .unwrap();
    Engine::new(c)
}

/// Run `sql` under every strategy, assert all agree, and return the
/// sorted rows as integer tuples (NULL-free queries).
fn all_configs(engine: &Engine, sql: &str) -> Vec<Vec<i64>> {
    let mut reference: Option<Vec<Row>> = None;
    for strategy in [Strategy::CostBased, Strategy::Original, Strategy::Magic] {
        let mut rows = engine
            .query_with(sql, strategy)
            .unwrap_or_else(|e| panic!("{strategy:?}: {e}"))
            .rows;
        rows.sort_by(Row::group_cmp);
        match &reference {
            None => reference = Some(rows),
            Some(r) => assert_eq!(*r, rows, "strategy {strategy:?} diverged on {sql}"),
        }
    }
    reference
        .unwrap()
        .iter()
        .map(|r| {
            r.values()
                .iter()
                .map(|v| match v {
                    Value::Int(i) => *i,
                    other => panic!("non-int value {other}"),
                })
                .collect()
        })
        .collect()
}

/// Hand-computed transitive closure of [`edges`].
fn expected_tc() -> Vec<Vec<i64>> {
    let mut out = vec![
        // From the chain component.
        vec![0, 1],
        vec![0, 2],
        vec![0, 3],
        vec![0, 4],
        vec![1, 2],
        vec![1, 3],
        vec![1, 4],
        vec![2, 3],
    ];
    // The 3-cycle reaches everything in it, including itself.
    for s in [10, 11, 12] {
        for d in [10, 11, 12] {
            out.push(vec![s, d]);
        }
    }
    out.sort();
    out
}

#[test]
fn transitive_closure_all_strategies() {
    let e = engine();
    let got = all_configs(
        &e,
        "WITH RECURSIVE tc (src, dst) AS ( \
           SELECT src, dst FROM edge \
           UNION \
           SELECT tc.src, e.dst FROM tc, edge e WHERE e.src = tc.dst \
         ) SELECT src, dst FROM tc",
    );
    assert_eq!(got, expected_tc());
}

#[test]
fn bound_transitive_closure() {
    let e = engine();
    let got = all_configs(
        &e,
        "WITH RECURSIVE tc (src, dst) AS ( \
           SELECT src, dst FROM edge \
           UNION \
           SELECT tc.src, e.dst FROM tc, edge e WHERE e.src = tc.dst \
         ) SELECT src, dst FROM tc WHERE src = 0",
    );
    assert_eq!(got, vec![vec![0, 1], vec![0, 2], vec![0, 3], vec![0, 4]]);
}

#[test]
fn same_generation() {
    let e = engine();
    let got = all_configs(
        &e,
        "WITH RECURSIVE sg (x, y) AS ( \
           SELECT p1.child, p2.child FROM par p1, par p2 \
           WHERE p1.parent = p2.parent \
           UNION \
           SELECT c1.child, c2.child FROM par c1, sg, par c2 \
           WHERE c1.parent = sg.x AND c2.parent = sg.y \
         ) SELECT x, y FROM sg WHERE x < y",
    );
    // Same parent: (3,4) under 1. Children of same-generation pairs:
    // (6,7) under (3,4); 5 is an only child at 1's generation? No —
    // sg is seeded from *shared parents only*, so {3,4} and {6,7} on
    // the left family; the right family contributes reflexive pairs
    // filtered out by x < y, and 8 pairs with nobody.
    assert_eq!(got, vec![vec![3, 4], vec![6, 7]]);
}

#[test]
fn mutual_recursion_even_odd() {
    let e = engine();
    let got = all_configs(
        &e,
        "WITH RECURSIVE \
           ev (n) AS ( \
             SELECT n FROM nums WHERE n = 0 \
             UNION \
             SELECT nums.n FROM nums, od WHERE nums.n = od.n + 1 \
           ), \
           od (n) AS ( \
             SELECT n FROM nums WHERE n = 1 \
             UNION \
             SELECT nums.n FROM nums, ev WHERE nums.n = ev.n + 1 \
           ) \
         SELECT n FROM ev",
    );
    assert_eq!(got, vec![vec![0], vec![2], vec![4], vec![6], vec![8]]);
}

#[test]
fn union_all_keeps_duplicate_derivations() {
    // A diamond: two distinct paths 0→3 yield (0,3) twice under ALL.
    let mut c = Catalog::new();
    c.add_table(
        Table::with_rows(
            TableSchema::new(
                "edge",
                vec![
                    ColumnDef::new("src", DataType::Int),
                    ColumnDef::new("dst", DataType::Int),
                ],
            )
            .with_key(&["src", "dst"])
            .unwrap(),
            vec![(0, 1), (0, 2), (1, 3), (2, 3)]
                .into_iter()
                .map(|(s, d)| Row::new(vec![Value::Int(s), Value::Int(d)]))
                .collect(),
        )
        .unwrap(),
    )
    .unwrap();
    let e = Engine::new(c);
    let got = all_configs(
        &e,
        "WITH RECURSIVE tc (src, dst) AS ( \
           SELECT src, dst FROM edge \
           UNION ALL \
           SELECT tc.src, e.dst FROM tc, edge e WHERE e.src = tc.dst \
         ) SELECT src, dst FROM tc WHERE src = 0 AND dst = 3",
    );
    assert_eq!(got, vec![vec![0, 3], vec![0, 3]]);
}

#[test]
fn union_all_on_cycle_hits_max_recursion() {
    let mut e = engine();
    e.set_max_recursion(25);
    let err = e
        .query(
            "WITH RECURSIVE tc (src, dst) AS ( \
               SELECT src, dst FROM edge \
               UNION ALL \
               SELECT tc.src, e.dst FROM tc, edge e WHERE e.src = tc.dst \
             ) SELECT src, dst FROM tc",
        )
        .unwrap_err();
    assert!(
        err.to_string().contains("max_recursion"),
        "unexpected error: {err}"
    );
}

#[test]
fn recursion_through_not_exists_rejected() {
    let e = engine();
    let err = e
        .query(
            "WITH RECURSIVE tc (src, dst) AS ( \
               SELECT src, dst FROM edge \
               UNION \
               SELECT tc.src, e.dst FROM tc, edge e \
               WHERE e.src = tc.dst AND NOT EXISTS \
                 (SELECT t2.src FROM tc t2 WHERE t2.dst = e.dst) \
             ) SELECT src, dst FROM tc",
        )
        .unwrap_err();
    assert!(
        err.to_string().contains("not stratifiable"),
        "unexpected error: {err}"
    );
}

#[test]
fn recursion_through_group_by_rejected() {
    let e = engine();
    let err = e
        .query(
            "WITH RECURSIVE cnt (src, total) AS ( \
               SELECT src, dst FROM edge \
               UNION \
               SELECT src, COUNT(*) FROM cnt GROUP BY src \
             ) SELECT src, total FROM cnt",
        )
        .unwrap_err();
    assert!(
        err.to_string().contains("not stratifiable"),
        "unexpected error: {err}"
    );
}

#[test]
fn recursion_through_except_rejected() {
    let e = engine();
    let err = e
        .query(
            "WITH RECURSIVE tc (src, dst) AS ( \
               SELECT src, dst FROM edge \
               UNION \
               SELECT d.src, d.dst FROM ( \
                 SELECT tc.src, e.dst FROM tc, edge e WHERE e.src = tc.dst \
                 EXCEPT \
                 SELECT src, dst FROM edge \
               ) d \
             ) SELECT src, dst FROM tc",
        )
        .unwrap_err();
    assert!(
        err.to_string().contains("not stratifiable"),
        "unexpected error: {err}"
    );
}

#[test]
fn recursive_cte_requires_union() {
    let e = engine();
    let err = e
        .query(
            "WITH RECURSIVE tc (src, dst) AS ( \
               SELECT tc.src, e.dst FROM tc, edge e WHERE e.src = tc.dst \
             ) SELECT src, dst FROM tc",
        )
        .unwrap_err();
    assert!(err.to_string().contains("UNION"), "unexpected error: {err}");
}

#[test]
fn recursive_cte_requires_column_list() {
    let e = engine();
    let err = e
        .query(
            "WITH RECURSIVE tc AS ( \
               SELECT src, dst FROM edge \
               UNION \
               SELECT tc.src, e.dst FROM tc, edge e WHERE e.src = tc.dst \
             ) SELECT src, dst FROM tc",
        )
        .unwrap_err();
    assert!(
        err.to_string().contains("column list"),
        "unexpected error: {err}"
    );
}

#[test]
fn nonrecursive_with_is_plain_sugar() {
    let e = engine();
    let got = all_configs(
        &e,
        "WITH out (src, dst) AS (SELECT src, dst FROM edge WHERE src = 1) \
         SELECT dst FROM out",
    );
    assert_eq!(got, vec![vec![2], vec![4]]);
}

#[test]
fn stratified_aggregate_on_top_of_recursion() {
    // Aggregation *above* the fixpoint is legal (the exemption gate
    // only bars it inside the cycle).
    let e = engine();
    let got = all_configs(
        &e,
        "WITH RECURSIVE tc (src, dst) AS ( \
           SELECT src, dst FROM edge \
           UNION \
           SELECT tc.src, e.dst FROM tc, edge e WHERE e.src = tc.dst \
         ) SELECT src, COUNT(*) FROM tc GROUP BY src HAVING COUNT(*) > 2",
    );
    // Out-degrees in the closure: 0→4, 1→3, 2→1; cycle members 3 each.
    assert_eq!(
        got,
        vec![
            vec![0, 4],
            vec![1, 3],
            vec![10, 3],
            vec![11, 3],
            vec![12, 3]
        ]
    );
}

/// The paper's point, on recursion: a bound query over the closure
/// must scan strictly fewer base rows under Magic than the naive full
/// fixpoint, with byte-identical results.
#[test]
fn magic_scans_fewer_rows_than_naive_on_bound_closure() {
    // A 20-edge chain from node 0, plus a 30-node cycle unreachable
    // from it: the naive fixpoint computes the closure of everything,
    // magic only ever touches the chain.
    let mut rows: Vec<(i64, i64)> = (0..20).map(|n| (n, n + 1)).collect();
    rows.extend((100..130).map(|n| (n, if n == 129 { 100 } else { n + 1 })));
    let mut c = Catalog::new();
    c.add_table(
        Table::with_rows(
            TableSchema::new(
                "edge",
                vec![
                    ColumnDef::new("src", DataType::Int),
                    ColumnDef::new("dst", DataType::Int),
                ],
            )
            .with_key(&["src", "dst"])
            .unwrap(),
            rows.into_iter()
                .map(|(s, d)| Row::new(vec![Value::Int(s), Value::Int(d)]))
                .collect(),
        )
        .unwrap(),
    )
    .unwrap();
    let e = Engine::new(c);
    let sql = "WITH RECURSIVE tc (src, dst) AS ( \
                 SELECT src, dst FROM edge \
                 UNION \
                 SELECT tc.src, e.dst FROM tc, edge e WHERE e.src = tc.dst \
               ) SELECT src, dst FROM tc WHERE src = 0";

    let naive = e.query_profiled(sql, Strategy::Original).unwrap();
    let magic = e.query_profiled(sql, Strategy::Magic).unwrap();

    let mut nrows = naive.result.rows.clone();
    let mut mrows = magic.result.rows.clone();
    nrows.sort_by(Row::group_cmp);
    mrows.sort_by(Row::group_cmp);
    assert_eq!(nrows, mrows, "strategies disagree on the bound closure");
    assert_eq!(nrows.len(), 20, "closure from node 0 covers the chain");

    let scanned = |p: &starmagic::ProfiledQuery| {
        let qgm = p.optimized.chosen();
        p.profile.rows_scanned_where(|b| {
            matches!(qgm.boxed(b).kind, starmagic_qgm::BoxKind::BaseTable { .. })
        })
    };
    let nscan = scanned(&naive);
    let mscan = scanned(&magic);
    assert!(
        mscan < nscan,
        "magic should scan strictly fewer base rows: magic={mscan} naive={nscan}"
    );
}

/// Binding the *destination* column is the hard case: the step arm
/// derives `dst` from the edge table rather than preserving it, so the
/// magic set must grow backwards through the fixpoint (the ancestors
/// of the bound node), as a recursive union of its own. The step's
/// predicate on the preserved `src` makes the recursion inseparable,
/// so it cannot be reversed and keeps the grown magic set.
#[test]
fn bound_destination_grows_magic_through_the_fixpoint() {
    let mut rows: Vec<(i64, i64)> = (0..20).map(|n| (n, n + 1)).collect();
    rows.extend((100..130).map(|n| (n, if n == 129 { 100 } else { n + 1 })));
    let mut c = Catalog::new();
    c.add_table(
        Table::with_rows(
            TableSchema::new(
                "edge",
                vec![
                    ColumnDef::new("src", DataType::Int),
                    ColumnDef::new("dst", DataType::Int),
                ],
            )
            .with_key(&["src", "dst"])
            .unwrap(),
            rows.into_iter()
                .map(|(s, d)| Row::new(vec![Value::Int(s), Value::Int(d)]))
                .collect(),
        )
        .unwrap(),
    )
    .unwrap();
    let e = Engine::new(c);
    let sql = "WITH RECURSIVE tc (src, dst) AS ( \
                 SELECT src, dst FROM edge \
                 UNION \
                 SELECT tc.src, e.dst FROM tc, edge e \
                 WHERE e.src = tc.dst AND e.dst <> tc.src \
               ) SELECT src, dst FROM tc WHERE dst = 3";

    let got = all_configs(&e, sql);
    assert_eq!(got, vec![vec![0, 3], vec![1, 3], vec![2, 3]]);

    let naive = e.query_profiled(sql, Strategy::Original).unwrap();
    let magic = e.query_profiled(sql, Strategy::Magic).unwrap();
    let scanned = |p: &starmagic::ProfiledQuery| {
        let qgm = p.optimized.chosen();
        p.profile.rows_scanned_where(|b| {
            matches!(qgm.boxed(b).kind, starmagic_qgm::BoxKind::BaseTable { .. })
        })
    };
    let (nscan, mscan) = (scanned(&naive), scanned(&magic));
    assert!(
        mscan < nscan,
        "grown magic should scan fewer base rows: magic={mscan} naive={nscan}"
    );
    // The grown magic set is itself a fixpoint: two convergence records.
    assert_eq!(
        magic.profile.fixpoint.len(),
        2,
        "expected the adorned closure and its magic union to both iterate"
    );
}

#[test]
fn fixpoint_profile_records_convergence() {
    let e = engine();
    let p = e
        .query_profiled(
            "WITH RECURSIVE tc (src, dst) AS ( \
               SELECT src, dst FROM edge \
               UNION \
               SELECT tc.src, e.dst FROM tc, edge e WHERE e.src = tc.dst \
             ) SELECT src, dst FROM tc",
            Strategy::Original,
        )
        .unwrap();
    let stats: Vec<_> = p.profile.fixpoint.values().collect();
    assert!(!stats.is_empty(), "fixpoint profile missing");
    let fs = stats[0];
    assert!(fs.iterations >= 2, "closure needs multiple rounds");
    assert_eq!(fs.total_rows, expected_tc().len() as u64);
    assert_eq!(
        fs.delta_rows.iter().sum::<u64>(),
        fs.total_rows,
        "deltas must add up to the total under UNION"
    );
}

/// The step arms of a destination-bound closure under grown magic —
/// the selects holding a quantifier over a recursive union that
/// reaches back to them — never join a quantifier sharing no predicate
/// with the ones before it while an unplaced one does: the grown magic
/// set and the delta, both priced at one row, used to meet in a cross
/// product (1.5 M intermediate rows for 8 k step outputs on the
/// benchmark's DAG). The step's predicate on the preserved `src` keeps
/// the closure inseparable, so it is not reversed.
#[test]
fn destination_bound_step_arms_join_before_they_cross() {
    // The chain-plus-cycle graph of the test above, and a layered DAG
    // with fan-in.
    let chain: Vec<(i64, i64)> = (0..20)
        .map(|n| (n, n + 1))
        .chain((100..130).map(|n| (n, if n == 129 { 100 } else { n + 1 })))
        .collect();
    let dag: Vec<(i64, i64)> = (0..5i64)
        .flat_map(|layer| {
            (0..6i64).flat_map(move |n| {
                (0..2i64).map(move |k| (layer * 6 + n, (layer + 1) * 6 + (n + k) % 6))
            })
        })
        .collect();
    let mut arms = 0;
    for (edges, bound) in [(chain, 3), (dag, 27)] {
        let mut c = Catalog::new();
        c.add_table(
            Table::with_rows(
                TableSchema::new(
                    "edge",
                    vec![
                        ColumnDef::new("src", DataType::Int),
                        ColumnDef::new("dst", DataType::Int),
                    ],
                ),
                edges
                    .iter()
                    .map(|&(s, d)| Row::new(vec![Value::Int(s), Value::Int(d)]))
                    .collect(),
            )
            .unwrap(),
        )
        .unwrap();
        let e = Engine::new(c);
        let sql = format!(
            "WITH RECURSIVE tc (src, dst) AS ( \
               SELECT src, dst FROM edge \
               UNION \
               SELECT tc.src, e.dst FROM tc, edge e \
               WHERE e.src = tc.dst AND e.dst <> tc.src \
             ) SELECT src, dst FROM tc WHERE dst = {bound}"
        );
        // Every strategy still agrees on the answer.
        let got = all_configs(&e, &sql);
        assert!(!got.is_empty() && got.iter().all(|r| r[1] == bound));

        let qgm = e.prepare(&sql, Strategy::Magic).unwrap().qgm;
        for b in qgm.box_ids() {
            let quants = qgm.foreach_quants(b);
            let closes_cycle = quants.iter().any(|&q| {
                let input = qgm.quant(q).input;
                qgm.boxed(input).is_recursive_union() && qgm.reaches(input, b)
            });
            if !closes_cycle || quants.len() < 3 {
                continue;
            }
            arms += 1;
            let joined = |q, placed: &[starmagic_qgm::QuantId]| {
                qgm.boxed(b).predicates.iter().any(|p| {
                    let touches = p.quantifiers();
                    touches.contains(&q) && placed.iter().any(|x| touches.contains(x))
                })
            };
            let order = qgm.join_order(b);
            for k in 1..order.len() {
                let (placed, rest) = order.split_at(k);
                assert!(
                    joined(rest[0], placed) || !rest.iter().any(|&q| joined(q, placed)),
                    "{}: {:?} crosses at position {k}",
                    qgm.boxed(b).name,
                    order
                        .iter()
                        .map(|&q| qgm.quant(q).name.clone())
                        .collect::<Vec<_>>()
                );
            }
        }
    }
    assert!(arms >= 2, "no grown-magic step arm found");
}

/// The nodes that reach `node` over one edge or more: the reference the
/// destination-bound closure is checked against.
fn ancestors(edges: &[(i64, i64)], node: i64) -> Vec<i64> {
    let mut seen = std::collections::BTreeSet::new();
    let mut queue = vec![node];
    while let Some(n) = queue.pop() {
        for &(s, d) in edges {
            if d == n && seen.insert(s) {
                queue.push(s);
            }
        }
    }
    seen.into_iter().collect()
}

/// Binding the destination of the separable right-linear closure — a
/// step that keeps `src` verbatim and reads `tc` only in its join —
/// reverses the recursion under Magic: one magic fixpoint grows the
/// bound node's ancestors, each carrying the value the last edge of its
/// path gave `dst`, and the closure itself is a plain join of the edges
/// into the bound node and into those ancestors. So exactly
/// one fixpoint runs, and the work grows with the answer instead of
/// with the square of the ancestor set.
#[test]
fn separable_destination_bound_closure_is_reversed() {
    let chain: Vec<(i64, i64)> = (0..20).map(|n| (n, n + 1)).collect();
    let ring: Vec<(i64, i64)> = (0..8).map(|n| (n, (n + 1) % 8)).collect();
    let dag: Vec<(i64, i64)> = (0..5i64)
        .flat_map(|layer| {
            (0..6i64).flat_map(move |n| {
                (0..2i64).map(move |k| (layer * 6 + n, (layer + 1) * 6 + (n + k) % 6))
            })
        })
        .collect();
    let mut works = Vec::new();
    for (edges, bound) in [(chain, 10), (ring, 3), (dag, 27)] {
        let mut c = Catalog::new();
        c.add_table(
            Table::with_rows(
                TableSchema::new(
                    "edge",
                    vec![
                        ColumnDef::new("src", DataType::Int),
                        ColumnDef::new("dst", DataType::Int),
                    ],
                )
                .with_key(&["src", "dst"])
                .unwrap(),
                edges
                    .iter()
                    .map(|&(s, d)| Row::new(vec![Value::Int(s), Value::Int(d)]))
                    .collect(),
            )
            .unwrap(),
        )
        .unwrap();
        let e = Engine::new(c);
        let sql = format!(
            "WITH RECURSIVE tc (src, dst) AS ( \
               SELECT src, dst FROM edge \
               UNION \
               SELECT tc.src, e.dst FROM tc, edge e WHERE e.src = tc.dst \
             ) SELECT src, dst FROM tc WHERE dst = {bound}"
        );
        let want: Vec<Vec<i64>> = ancestors(&edges, bound)
            .into_iter()
            .map(|s| vec![s, bound])
            .collect();
        assert_eq!(all_configs(&e, &sql), want, "{sql}");

        let magic = e.query_profiled(&sql, Strategy::Magic).unwrap();
        // A set: as many rows as pairs.
        assert_eq!(magic.result.rows.len(), want.len());
        assert_eq!(
            magic.profile.fixpoint.len(),
            1,
            "only the magic set iterates; the closure is not a fixpoint"
        );
        works.push(magic.result.metrics.work());
    }
    assert_eq!(works, vec![134, 105, 207]);
}

/// EXPLAIN's phase-2 section names the shape magic took on each
/// recursive reference: the source binding is preserved by the step,
/// the destination binding is derived by a separable step, and a step
/// predicate on the preserved column makes the same binding
/// inseparable.
#[test]
fn explain_names_each_recursive_magic_case() {
    let e = engine();
    let closure = |extra: &str, bound: &str| {
        format!(
            "WITH RECURSIVE tc (src, dst) AS ( \
               SELECT src, dst FROM edge \
               UNION \
               SELECT tc.src, e.dst FROM tc, edge e WHERE e.src = tc.dst{extra} \
             ) SELECT src, dst FROM tc WHERE {bound}"
        )
    };
    for (sql, line) in [
        (
            closure("", "src = 0"),
            "recursive magic: TC^bf static seed (case A)",
        ),
        (
            closure("", "dst = 3"),
            "recursive magic: TC^fb reversed (separable)",
        ),
        (
            closure(" AND e.dst <> tc.src", "dst = 3"),
            "recursive magic: TC^fb grown magic (case B)",
        ),
    ] {
        let explain = starmagic::explain::render(&e.optimize_sql(&sql, Strategy::Magic).unwrap());
        assert_eq!(
            explain
                .lines()
                .filter(|l| l.starts_with("recursive magic:"))
                .collect::<Vec<_>>(),
            vec![line],
            "{sql}"
        );
    }
}

/// A reversed closure outputs the value the last step gave the bound
/// column, not the binding it matched: `3` equals `3.0`, but `dst / 2`
/// of an `INT` column is still integer division. The binding is a
/// `DOUBLE` literal and then a `DOUBLE` column, and every strategy must
/// return the same `Int` rows.
#[test]
fn reversed_closure_keeps_the_bound_column_s_own_values() {
    let mut c = Catalog::new();
    c.add_table(
        Table::with_rows(
            TableSchema::new(
                "edge",
                vec![
                    ColumnDef::new("src", DataType::Int),
                    ColumnDef::new("dst", DataType::Int),
                ],
            )
            .with_key(&["src", "dst"])
            .unwrap(),
            edges()
                .into_iter()
                .map(|(s, d)| Row::new(vec![Value::Int(s), Value::Int(d)]))
                .collect(),
        )
        .unwrap(),
    )
    .unwrap();
    c.add_table(
        Table::with_rows(
            TableSchema::new("pt", vec![ColumnDef::new("x", DataType::Double)])
                .with_key(&["x"])
                .unwrap(),
            vec![Row::new(vec![Value::Double(3.0)])],
        )
        .unwrap(),
    )
    .unwrap();
    let e = Engine::new(c);
    let tc = "WITH RECURSIVE tc (src, dst) AS ( \
                SELECT src, dst FROM edge \
                UNION \
                SELECT tc.src, e.dst FROM tc, edge e WHERE e.src = tc.dst \
              ) ";
    for select in [
        "SELECT src, dst, dst / 2 FROM tc WHERE dst = 3.0",
        "SELECT tc.src, tc.dst, tc.dst / 2 FROM tc, pt WHERE tc.dst = pt.x",
    ] {
        let sql = format!("{tc}{select}");
        let explain = starmagic::explain::render(&e.optimize_sql(&sql, Strategy::Magic).unwrap());
        assert!(
            explain.contains("recursive magic: TC^fb reversed (separable)"),
            "{explain}"
        );
        assert_eq!(
            all_configs(&e, &sql),
            vec![vec![0, 3, 1], vec![1, 3, 1], vec![2, 3, 1]],
            "{sql}"
        );
    }
}
