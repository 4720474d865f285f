//! The executor's fixpoint against a reference semi-naive loop.
//!
//! The reference below is the textbook loop over `Vec<Row>` and a
//! `HashSet<Row>` — what the executor did before its accumulators
//! became column chunks with a hashed key set. On random small edge
//! sets (chains, cycles, self-loops, diamonds that derive one pair
//! twice, NULL endpoints) and a step that turns `dst` into the `Double`
//! equal to the stored `Int`, UNION and UNION ALL must return the
//! reference's rows in its order with the same variant of every equal
//! pair, the same [`FixpointStats`], and, for a UNION ALL that runs out
//! of rounds, the same error at the same round.

use std::collections::HashSet;

use starmagic::exec::profile::FixpointStats;
use starmagic::exec::{execute_with_options, ExecOptions, IndexCache};
use starmagic_catalog::{Catalog, ColumnDef, Table, TableSchema};
use starmagic_common::{DataType, Error, Row, Value};
use starmagic_qgm::build_qgm;

/// The reference: seed with the edges, then join each delta with the
/// edges in table order, admitting under set or bag semantics.
fn reference(
    edges: &[Row],
    all: bool,
    widen: bool,
    max: usize,
) -> Result<(Vec<Row>, FixpointStats), Error> {
    let mut seen: HashSet<Row> = HashSet::new();
    let mut total: Vec<Row> = Vec::new();
    let mut st = FixpointStats::default();
    let mut admit = |candidates: Vec<Row>, st: &mut FixpointStats| {
        let offered = candidates.len() as u64;
        let delta: Vec<Row> = candidates
            .into_iter()
            .filter(|r| all || seen.insert(r.clone()))
            .collect();
        st.delta_rows.push(delta.len() as u64);
        st.rejected_rows.push(offered - delta.len() as u64);
        total.extend(delta.iter().cloned());
        delta
    };
    let mut delta = admit(edges.to_vec(), &mut st);
    for round in 1.. {
        if round > max {
            return Err(Error::execution(format!(
                "recursive query exceeded max_recursion ({max}) iterations"
            )));
        }
        let mut step = Vec::new();
        for t in &delta {
            for e in edges.iter().filter(|e| t.get(1).sql_eq(e.get(0)).passes()) {
                let dst = if widen {
                    e.get(1).arith('*', &Value::Double(1.0)).unwrap()
                } else {
                    e.get(1).clone()
                };
                step.push(Row::new(vec![t.get(0).clone(), dst]));
            }
        }
        delta = admit(step, &mut st);
        st.iterations += 1;
        if delta.is_empty() {
            break;
        }
    }
    st.total_rows = total.len() as u64;
    Ok((total, st))
}

fn catalog(edges: &[Row]) -> Catalog {
    let schema = TableSchema::new(
        "edge",
        vec![
            ColumnDef::new("src", DataType::Int),
            ColumnDef::new("dst", DataType::Int),
        ],
    );
    let mut c = Catalog::new();
    c.add_table(Table::with_rows(schema, edges.to_vec()).unwrap())
        .unwrap();
    c
}

fn closure_sql(all: bool, widen: bool) -> String {
    format!(
        "WITH RECURSIVE tc (src, dst) AS ( \
           SELECT src, dst FROM edge \
           UNION {} \
           SELECT tc.src, {} FROM tc, edge e WHERE e.src = tc.dst \
         ) SELECT src, dst FROM tc",
        if all { "ALL" } else { "" },
        if widen { "e.dst * 1.0" } else { "e.dst" }
    )
}

/// SplitMix64: the graphs are random but fixed.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: u64) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        (z ^ (z >> 31)) % n
    }
}

/// Case `k`: a chain, a cycle, a diamond or a random graph on up to
/// eight nodes, with now and then a self-loop or a NULL endpoint.
fn graph(k: u64) -> Vec<Row> {
    let mut rng = Rng(k);
    let n = 2 + rng.below(7) as i64;
    let mut pairs: Vec<(Option<i64>, Option<i64>)> = match k % 4 {
        0 => (0..n - 1).map(|i| (Some(i), Some(i + 1))).collect(),
        1 => (0..n).map(|i| (Some(i), Some((i + 1) % n))).collect(),
        2 => vec![
            (Some(0), Some(1)),
            (Some(0), Some(2)),
            (Some(1), Some(3)),
            (Some(2), Some(3)),
            (Some(3), Some(4)),
        ],
        _ => (0..2 * n)
            .map(|_| {
                (
                    Some(rng.below(n as u64) as i64),
                    Some(rng.below(n as u64) as i64),
                )
            })
            .collect(),
    };
    if rng.below(3) == 0 {
        let v = rng.below(n as u64) as i64;
        pairs.push((Some(v), Some(v)));
    }
    if rng.below(3) == 0 {
        pairs.push((Some(rng.below(n as u64) as i64), None));
        pairs.push((None, Some(0)));
    }
    pairs
        .into_iter()
        .map(|(s, d)| {
            Row::new(vec![
                s.map_or(Value::Null, Value::Int),
                d.map_or(Value::Null, Value::Int),
            ])
        })
        .collect()
}

/// `Debug`, not `==`: grouping equality says `1 == 1.0`, and the
/// variant that survives is part of the contract.
fn exact(rows: &[Row]) -> String {
    format!("{rows:?}")
}

#[test]
fn fixpoint_agrees_with_the_reference_loop() {
    let mut cases = 0;
    for k in 0..48 {
        let edges = graph(k);
        let cat = catalog(&edges);
        for (all, widen) in [(false, false), (false, true), (true, false), (true, true)] {
            // A cycle never converges under ALL: its cap is reached.
            let max = 8;
            let expected = reference(&edges, all, widen, max);
            let sql = closure_sql(all, widen);
            let qgm = build_qgm(&cat, &starmagic_sql::parse_query(&sql).unwrap()).unwrap();
            let opts = ExecOptions {
                max_recursion: max,
                ..ExecOptions::default()
            };
            let what = format!("case {k} {edges:?}: all={all} widen={widen}");
            let got = execute_with_options(&qgm, &cat, &IndexCache::default(), opts);
            match (&expected, got) {
                (Ok((rows, st)), Ok((got, profile))) => {
                    assert_eq!(exact(&got), exact(rows), "{what}");
                    let stats: Vec<&FixpointStats> = profile.fixpoint.values().collect();
                    assert_eq!(stats, vec![st], "{what}");
                }
                (Err(want), Err(e)) => {
                    assert_eq!(e.to_string(), want.to_string(), "{what}");
                }
                (want, got) => panic!("{what}: expected {want:?}, got {got:?}"),
            }
            cases += 1;
        }
    }
    assert_eq!(cases, 48 * 4);
}

/// A UNION ALL fixpoint that converges in `r` rounds runs with a cap of
/// `r` and fails, like the reference, with a cap of `r - 1`.
#[test]
fn union_all_fails_at_the_same_round_as_the_reference() {
    let edges = graph(2); // the diamond: (0, 3) derived twice
    let cat = catalog(&edges);
    let (_, st) = reference(&edges, true, false, usize::MAX).unwrap();
    let rounds = st.iterations as usize;
    let qgm = build_qgm(
        &cat,
        &starmagic_sql::parse_query(&closure_sql(true, false)).unwrap(),
    )
    .unwrap();
    for (max, ok) in [(rounds, true), (rounds - 1, false)] {
        let opts = ExecOptions {
            max_recursion: max,
            ..ExecOptions::default()
        };
        let got = execute_with_options(&qgm, &cat, &IndexCache::default(), opts);
        let want = reference(&edges, true, false, max);
        assert_eq!(got.is_ok(), ok, "cap {max}");
        assert_eq!(got.is_ok(), want.is_ok());
        if let (Err(e), Err(w)) = (got, want) {
            assert_eq!(e.to_string(), w.to_string());
        }
    }
}

/// A nonlinear step (`tc ⋈ tc`) is not semi-naive: the naive iteration
/// evaluates it over the whole accumulation every round. Its rows, in
/// order, and its counters are pinned to what the iteration produced
/// when it rebuilt a `HashSet<Row>` from the accumulation every round.
#[test]
fn a_nonlinear_closure_runs_the_naive_iteration_unchanged() {
    let edges: Vec<Row> = [
        (0, Some(1)),
        (1, Some(2)),
        (2, Some(3)),
        (3, Some(4)),
        (4, Some(5)),
        (10, Some(11)),
        (11, Some(12)),
        (12, Some(10)),
        (20, Some(21)),
        (20, Some(22)),
        (21, Some(23)),
        (22, Some(23)),
        (23, None),
        (5, Some(5)),
    ]
    .into_iter()
    .map(|(s, d): (i64, Option<i64>)| {
        Row::new(vec![Value::Int(s), d.map_or(Value::Null, Value::Int)])
    })
    .collect();
    let cat = catalog(&edges);
    let expected: Vec<(i64, Option<i64>)> = vec![
        (0, Some(1)),
        (1, Some(2)),
        (2, Some(3)),
        (3, Some(4)),
        (4, Some(5)),
        (10, Some(11)),
        (11, Some(12)),
        (12, Some(10)),
        (20, Some(21)),
        (20, Some(22)),
        (21, Some(23)),
        (22, Some(23)),
        (23, None),
        (5, Some(5)),
        (0, Some(2)),
        (1, Some(3)),
        (2, Some(4)),
        (3, Some(5)),
        (10, Some(12)),
        (11, Some(10)),
        (12, Some(11)),
        (20, Some(23)),
        (21, None),
        (22, None),
        (0, Some(3)),
        (1, Some(4)),
        (2, Some(5)),
        (10, Some(10)),
        (11, Some(11)),
        (12, Some(12)),
        (20, None),
        (0, Some(4)),
        (1, Some(5)),
        (0, Some(5)),
    ];
    let expected: Vec<Row> = expected
        .into_iter()
        .map(|(s, d)| Row::new(vec![Value::Int(s), d.map_or(Value::Null, Value::Int)]))
        .collect();
    // UNION ALL too: the naive iteration deduplicates either way. Each
    // round re-derives everything, so its duplicates grow with the
    // accumulation (under ALL the step arm's own duplicates reach the
    // union as well).
    for (all, produced, rejected) in [
        ("", 826, [0, 14, 24, 33, 34]),
        ("ALL", 843, [0, 16, 29, 38, 39]),
    ] {
        let sql = format!(
            "WITH RECURSIVE tc (src, dst) AS ( \
               SELECT src, dst FROM edge \
               UNION {all} \
               SELECT a.src, b.dst FROM tc a, tc b WHERE a.dst = b.src \
             ) SELECT src, dst FROM tc"
        );
        let qgm = build_qgm(&cat, &starmagic_sql::parse_query(&sql).unwrap()).unwrap();
        let (rows, profile) =
            execute_with_options(&qgm, &cat, &IndexCache::default(), ExecOptions::default())
                .unwrap();
        let what = format!("UNION {all}");
        assert_eq!(exact(&rows), exact(&expected), "{what}");
        let stats: Vec<&FixpointStats> = profile.fixpoint.values().collect();
        let want = FixpointStats {
            iterations: 5,
            delta_rows: vec![14, 10, 9, 1, 0],
            rejected_rows: rejected.to_vec(),
            total_rows: 34,
        };
        assert_eq!(stats, vec![&want], "{what}");
        let work = profile.aggregate();
        assert_eq!(
            (work.rows_scanned, work.rows_produced, work.box_evals),
            (14, produced, 4),
            "{what}"
        );
    }
}
