//! Property-based tests: on randomized data and randomized predicate
//! constants, the Original and Magic strategies must agree; rewrite
//! rules must preserve results; the LIKE matcher must agree with a
//! reference implementation.

use proptest::prelude::*;

use starmagic::{Engine, Strategy as OptStrategy};
use starmagic_catalog::{Catalog, ColumnDef, Table, TableSchema};
use starmagic_common::{DataType, Row, Value};

/// Build a catalog from generated rows. `emp` rows are
/// (empno, deptno, salary) with possibly-NULL deptno; `dept` rows are
/// (deptno, grp).
fn build_catalog(emps: &[(i64, Option<i64>, i64)], depts: &[(i64, i64)]) -> Catalog {
    let mut c = Catalog::new();
    let dept_rows: Vec<Row> = depts
        .iter()
        .map(|&(no, grp)| Row::new(vec![Value::Int(no), Value::Int(grp)]))
        .collect();
    c.add_table(
        Table::with_rows(
            TableSchema::new(
                "dept",
                vec![
                    ColumnDef::new("deptno", DataType::Int),
                    ColumnDef::new("grp", DataType::Int),
                ],
            )
            .with_key(&["deptno"])
            .unwrap(),
            dept_rows,
        )
        .unwrap(),
    )
    .unwrap();
    let emp_rows: Vec<Row> = emps
        .iter()
        .map(|&(no, dept, sal)| {
            Row::new(vec![
                Value::Int(no),
                dept.map_or(Value::Null, Value::Int),
                Value::Int(sal),
            ])
        })
        .collect();
    c.add_table(
        Table::with_rows(
            TableSchema::new(
                "emp",
                vec![
                    ColumnDef::new("empno", DataType::Int),
                    ColumnDef::new("deptno", DataType::Int),
                    ColumnDef::new("salary", DataType::Int),
                ],
            )
            .with_key(&["empno"])
            .unwrap(),
            emp_rows,
        )
        .unwrap(),
    )
    .unwrap();
    c
}

fn engine_with_views(catalog: Catalog) -> Engine {
    let mut e = Engine::new(catalog);
    e.run_sql(
        "CREATE VIEW stats (deptno, avgsal, cnt) AS \
         SELECT deptno, AVG(salary), COUNT(*) FROM emp GROUP BY deptno",
    )
    .unwrap();
    e
}

fn sorted(engine: &Engine, sql: &str, strategy: OptStrategy) -> Vec<Row> {
    let mut rows = engine.query_with(sql, strategy).unwrap().rows;
    rows.sort_by(starmagic_common::Row::group_cmp);
    rows
}

/// Unique employee numbers 0..n, random dept (possibly NULL), salary.
fn emps_strategy() -> impl Strategy<Value = Vec<(i64, Option<i64>, i64)>> {
    prop::collection::vec((prop::option::of(0i64..8), 0i64..1000), 0..40).prop_map(|v| {
        v.into_iter()
            .enumerate()
            .map(|(i, (dept, sal))| (i as i64, dept, sal))
            .collect()
    })
}

/// Departments 0..8 with a small group attribute.
fn depts_strategy() -> impl Strategy<Value = Vec<(i64, i64)>> {
    prop::collection::btree_set(0i64..8, 0..8).prop_flat_map(|set| {
        let nos: Vec<i64> = set.into_iter().collect();
        let n = nos.len();
        prop::collection::vec(0i64..3, n)
            .prop_map(move |grps| nos.iter().copied().zip(grps).collect::<Vec<_>>())
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The headline invariant on random data: magic never changes
    /// results, for queries spanning bindings, conditions, and shared
    /// views.
    #[test]
    fn strategies_agree_on_random_data(
        emps in emps_strategy(),
        depts in depts_strategy(),
        pivot in 0i64..8,
        cut in 0i64..1000,
    ) {
        let engine = engine_with_views(build_catalog(&emps, &depts));
        let queries = [
            format!("SELECT s.avgsal FROM stats s WHERE s.deptno = {pivot}"),
            "SELECT d.deptno, s.avgsal FROM dept d, stats s \
                 WHERE s.deptno = d.deptno AND d.grp = 1".to_string(),
            "SELECT e.empno FROM emp e, stats s \
                 WHERE s.deptno = e.deptno AND e.salary > s.avgsal".to_string(),
            "SELECT a.deptno FROM stats a, stats b \
                 WHERE a.deptno = b.deptno AND a.cnt > b.avgsal".to_string(),
            format!("SELECT e.empno FROM emp e WHERE e.salary > {cut} AND e.deptno = {pivot}"),
            format!(
                "SELECT d.deptno FROM dept d WHERE EXISTS \
                 (SELECT 1 FROM emp e WHERE e.deptno = d.deptno AND e.salary > {cut})"
            ),
        ];
        for sql in &queries {
            let orig = sorted(&engine, sql, OptStrategy::Original);
            let magic = sorted(&engine, sql, OptStrategy::Magic);
            prop_assert_eq!(&orig, &magic, "strategies disagree for {}", sql);
        }
    }

    /// Aggregation through magic matches a direct computation.
    #[test]
    fn magic_aggregate_matches_direct_computation(
        emps in emps_strategy(),
        pivot in 0i64..8,
    ) {
        let depts: Vec<(i64, i64)> = (0..8).map(|i| (i, i % 3)).collect();
        let engine = engine_with_views(build_catalog(&emps, &depts));
        let rows = sorted(
            &engine,
            &format!("SELECT avgsal, cnt FROM stats WHERE deptno = {pivot}"),
            OptStrategy::Magic,
        );
        let members: Vec<i64> = emps
            .iter()
            .filter(|(_, d, _)| *d == Some(pivot))
            .map(|&(_, _, s)| s)
            .collect();
        if members.is_empty() {
            prop_assert!(rows.is_empty());
        } else {
            prop_assert_eq!(rows.len(), 1);
            let avg = members.iter().sum::<i64>() as f64 / members.len() as f64;
            prop_assert!(
                (rows[0].get(0).as_f64().unwrap() - avg).abs() < 1e-9
            );
            prop_assert_eq!(rows[0].get(1), &Value::Int(members.len() as i64));
        }
    }

    /// The LIKE matcher agrees with a simple reference implementation.
    #[test]
    fn like_matches_reference(
        text in "[ab_%]{0,12}",
        pattern in "[ab_%]{0,8}",
    ) {
        let got = starmagic::exec::like::like_match(&text, &pattern);
        let want = reference_like(&text, &pattern);
        prop_assert_eq!(got, want, "text={:?} pattern={:?}", text, pattern);
    }

    /// Work metric is deterministic for any random database.
    #[test]
    fn work_metric_deterministic(emps in emps_strategy()) {
        let depts: Vec<(i64, i64)> = (0..8).map(|i| (i, 0)).collect();
        let engine = engine_with_views(build_catalog(&emps, &depts));
        let sql = "SELECT d.deptno, s.cnt FROM dept d, stats s \
                   WHERE s.deptno = d.deptno AND d.grp = 0";
        let a = engine.query_with(sql, OptStrategy::Magic).unwrap().metrics;
        let b = engine.query_with(sql, OptStrategy::Magic).unwrap().metrics;
        prop_assert_eq!(a, b);
    }
}

/// Exponential-time but obviously-correct LIKE reference.
fn reference_like(text: &str, pattern: &str) -> bool {
    let t: Vec<char> = text.chars().collect();
    let p: Vec<char> = pattern.chars().collect();
    fn rec(t: &[char], p: &[char]) -> bool {
        match p.split_first() {
            None => t.is_empty(),
            Some(('%', rest)) => (0..=t.len()).any(|i| rec(&t[i..], rest)),
            Some(('_', rest)) => !t.is_empty() && rec(&t[1..], rest),
            Some((c, rest)) => t.first() == Some(c) && rec(&t[1..], rest),
        }
    }
    rec(&t, &p)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Every rewrite-rule combination preserves results *under the
    /// paper's phase discipline* (§3.3: "tight control over execution
    /// of the EMST rule"): a random subset of the traditional rules
    /// runs as phase 1, EMST (with simplify + distinct pullup) as
    /// phase 2, the same subset as phase 3. Merge concurrent with EMST
    /// is deliberately not generated — the paper's Figure 3 exists
    /// precisely because that configuration is unsupported.
    #[test]
    fn rewrite_rules_preserve_results(
        emps in emps_strategy(),
        rule_mask in 0u8..32,
        pivot in 0i64..8,
    ) {
        use starmagic::qgm::build_qgm;
        use starmagic::rewrite::engine::RewriteEngine;
        use starmagic::rewrite::rules::{
            DistinctPullup, LocalPredicatePushdown, Merge,
            RedundantSelfJoin, RewriteRule, SimplifyPredicates,
        };
        use starmagic::rewrite::OpRegistry;
        use starmagic::magic::EmstRule;

        let depts: Vec<(i64, i64)> = (0..8).map(|i| (i, i % 3)).collect();
        let engine = engine_with_views(build_catalog(&emps, &depts));
        let cat = engine.catalog();
        let queries = [
            format!(
                "SELECT d.deptno, s.avgsal FROM dept d, stats s \
                 WHERE s.deptno = d.deptno AND d.deptno = {pivot}"
            ),
            format!(
                "SELECT a.deptno FROM stats a, stats b \
                 WHERE a.deptno = b.deptno AND a.avgsal >= b.avgsal AND b.deptno = {pivot}"
            ),
        ];
        for sql in &queries {
            let baseline = build_qgm(cat, &starmagic::sql::parse_query(sql).unwrap()).unwrap();
            let mut base_rows = starmagic::exec::execute(&baseline, cat).unwrap();
            base_rows.sort_by(starmagic_common::Row::group_cmp);

            let mut g = baseline.clone();
            let simplify = SimplifyPredicates;
            let merge = Merge;
            let pushdown = LocalPredicatePushdown;
            let pullup = DistinctPullup;
            let redundant = RedundantSelfJoin;
            let emst = EmstRule::new();
            let traditional: [&dyn RewriteRule; 5] =
                [&simplify, &merge, &pushdown, &pullup, &redundant];
            let chosen: Vec<&dyn RewriteRule> = traditional
                .iter()
                .enumerate()
                .filter(|(i, _)| rule_mask & (1 << i) != 0)
                .map(|(_, r)| *r)
                .collect();
            let engine_rw = RewriteEngine::default();
            // Phase 1: random subset of the traditional rules.
            engine_rw
                .run(&mut g, cat, &OpRegistry::new(), &chosen)
                .unwrap();
            g.garbage_collect(false);
            starmagic::planner::annotate_join_orders(&mut g, cat);
            // Phase 2: EMST under tight control.
            engine_rw
                .run(&mut g, cat, &OpRegistry::new(), &[&simplify, &emst, &pullup])
                .unwrap();
            g.garbage_collect(true);
            // Phase 3: links consumed, same traditional subset.
            for b in g.box_ids() {
                g.boxed_mut(b).magic_links.clear();
            }
            engine_rw
                .run(&mut g, cat, &OpRegistry::new(), &chosen)
                .unwrap();
            g.garbage_collect(false);
            g.validate().unwrap();
            let mut rows = starmagic::exec::execute(&g, cat).unwrap();
            rows.sort_by(starmagic_common::Row::group_cmp);
            prop_assert_eq!(&base_rows, &rows, "mask {} changed results of {}", rule_mask, sql);
        }
    }

    /// The full three-phase pipeline under per-fire lint checking: on
    /// random data, every rule application leaves the graph
    /// semantically valid, the chosen plans carry zero error
    /// diagnostics, and the Original and Magic row bags agree.
    #[test]
    fn pipeline_per_fire_is_clean_and_preserves_results(
        emps in emps_strategy(),
        depts in depts_strategy(),
        pivot in 0i64..8,
    ) {
        use starmagic::rewrite::CheckLevel;
        use starmagic::{optimize, PipelineOptions};
        let engine = engine_with_views(build_catalog(&emps, &depts));
        let queries = [
            format!("SELECT s.avgsal FROM stats s WHERE s.deptno = {pivot}"),
            "SELECT d.deptno, s.avgsal FROM dept d, stats s \
                 WHERE s.deptno = d.deptno AND d.grp = 1".to_string(),
            format!(
                "SELECT a.deptno FROM stats a, stats b \
                 WHERE a.deptno = b.deptno AND a.avgsal >= b.avgsal AND b.deptno = {pivot}"
            ),
        ];
        for sql in &queries {
            let query = starmagic::sql::parse_query(sql).unwrap();
            let per_fire = PipelineOptions {
                check: CheckLevel::PerFire,
                ..PipelineOptions::default()
            };
            let original = optimize(
                engine.catalog(),
                engine.registry(),
                &query,
                PipelineOptions { enable_magic: false, ..per_fire },
            )
            .unwrap();
            let magic = optimize(
                engine.catalog(),
                engine.registry(),
                &query,
                PipelineOptions { force_magic: true, ..per_fire },
            )
            .unwrap();
            prop_assert!(!original.lint.has_errors(), "{:?}", original.lint.diagnostics);
            prop_assert!(!magic.lint.has_errors(), "{:?}", magic.lint.diagnostics);
            let mut a = starmagic::exec::execute(original.chosen(), engine.catalog()).unwrap();
            let mut b = starmagic::exec::execute(magic.chosen(), engine.catalog()).unwrap();
            a.sort_by(starmagic_common::Row::group_cmp);
            b.sort_by(starmagic_common::Row::group_cmp);
            prop_assert_eq!(&a, &b, "PerFire pipeline changed results of {}", sql);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Grouping comparison is a total order: antisymmetric and
    /// transitive over random values (sorting never panics or loops).
    #[test]
    fn group_cmp_is_total_order(vals in prop::collection::vec(value_strategy(), 0..24)) {
        let mut sorted = vals.clone();
        sorted.sort_by(starmagic_common::Value::group_cmp);
        // Adjacent pairs must be consistently ordered.
        for w in sorted.windows(2) {
            prop_assert_ne!(
                w[0].group_cmp(&w[1]),
                std::cmp::Ordering::Greater,
                "sort produced an inversion"
            );
        }
        // Hash/Eq consistency: equal values hash equal.
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        for a in &vals {
            for b in &vals {
                if a == b {
                    let mut h1 = DefaultHasher::new();
                    let mut h2 = DefaultHasher::new();
                    a.hash(&mut h1);
                    b.hash(&mut h2);
                    prop_assert_eq!(h1.finish(), h2.finish());
                }
            }
        }
    }

    /// SQL equality is symmetric, and NULL always yields Unknown.
    #[test]
    fn sql_eq_symmetric_and_null_poisoning(
        a in value_strategy(),
        b in value_strategy(),
    ) {
        use starmagic_common::Truth;
        prop_assert_eq!(a.sql_eq(&b), b.sql_eq(&a));
        if a.is_null() || b.is_null() {
            prop_assert_eq!(a.sql_eq(&b), Truth::Unknown);
        }
        prop_assert_eq!(Value::Null.sql_eq(&a), Truth::Unknown);
    }

    /// Addition commutes and NULL propagates through arithmetic.
    #[test]
    fn arithmetic_properties(a in value_strategy(), b in value_strategy()) {
        let ab = a.arith('+', &b);
        let ba = b.arith('+', &a);
        match (ab, ba) {
            (Ok(x), Ok(y)) => prop_assert_eq!(x, y),
            (Err(_), Err(_)) => {}
            other => prop_assert!(false, "asymmetric result: {:?}", other),
        }
        if a.is_null() {
            prop_assert!(a.arith('*', &b).unwrap().is_null());
        }
    }
}

/// Random SQL values including NULLs.
fn value_strategy() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        (-100i64..100).prop_map(Value::Int),
        (-100.0f64..100.0).prop_map(Value::Double),
        "[a-c]{0,3}".prop_map(Value::str),
        any::<bool>().prop_map(Value::Bool),
    ]
}
