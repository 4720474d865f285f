//! The central correctness invariant of a query-rewrite optimizer:
//! the Original and Magic strategies must produce identical bags of
//! rows for every query. This battery spans joins, views, aggregation,
//! DISTINCT, set operations, subqueries, NULLs, and conditions.

use starmagic::{Engine, Strategy};
use starmagic_catalog::generator::{benchmark_catalog, Scale};
use starmagic_catalog::ViewDef;
use starmagic_common::Row;

fn engine() -> Engine {
    let mut catalog = benchmark_catalog(Scale::small()).unwrap();
    for (name, columns, body, recursive) in [
        (
            "mgrsal",
            vec!["empno", "empname", "workdept", "salary"],
            "SELECT e.empno, e.empname, e.workdept, e.salary \
             FROM employee e, department d WHERE e.empno = d.mgrno",
            false,
        ),
        (
            "avgmgrsal",
            vec!["workdept", "avgsalary"],
            "SELECT workdept, AVG(salary) FROM mgrsal GROUP BY workdept",
            false,
        ),
        (
            "deptavg",
            vec!["workdept", "avgsal", "cnt"],
            "SELECT workdept, AVG(salary), COUNT(*) FROM employee GROUP BY workdept",
            false,
        ),
        (
            "acts",
            vec!["deptno", "total"],
            "SELECT e.workdept, SUM(a.hours) FROM employee e, emp_act a \
             WHERE a.empno = e.empno GROUP BY e.workdept",
            false,
        ),
        (
            "allpeople",
            vec!["no", "dept"],
            "SELECT empno, workdept FROM employee \
             UNION SELECT mgrno, deptno FROM department",
            false,
        ),
        (
            "subord",
            vec!["mgr", "emp"],
            "SELECT d.mgrno, e.empno FROM department d, employee e \
             WHERE e.workdept = d.deptno \
             UNION \
             SELECT s.mgr, e2.empno FROM subord s, employee e2, department d2 \
             WHERE d2.mgrno = s.emp AND e2.workdept = d2.deptno",
            true,
        ),
    ] {
        catalog
            .add_view(
                ViewDef::new(
                    name,
                    columns.into_iter().map(String::from).collect(),
                    body,
                    recursive,
                )
                .unwrap(),
            )
            .unwrap();
    }
    Engine::new(catalog)
}

fn sorted(engine: &Engine, sql: &str, strategy: Strategy) -> Vec<Row> {
    let mut rows = engine
        .query_with(sql, strategy)
        .unwrap_or_else(|e| panic!("{strategy:?} failed for {sql}: {e}"))
        .rows;
    rows.sort_by(starmagic_common::Row::group_cmp);
    rows
}

/// Assert Original ≡ Magic ≡ CostBased on one query.
fn check(engine: &Engine, sql: &str) {
    let orig = sorted(engine, sql, Strategy::Original);
    let magic = sorted(engine, sql, Strategy::Magic);
    let cost = sorted(engine, sql, Strategy::CostBased);
    assert_eq!(orig, magic, "Original vs Magic differ for:\n{sql}");
    assert_eq!(orig, cost, "Original vs CostBased differ for:\n{sql}");
}

const QUERIES: &[&str] = &[
    // Plain joins and filters.
    "SELECT e.empno FROM employee e WHERE e.salary > 50000",
    "SELECT e.empno, d.deptname FROM employee e, department d WHERE e.workdept = d.deptno",
    "SELECT e.empno FROM employee e, department d \
     WHERE e.workdept = d.deptno AND d.deptname = 'Planning'",
    // Views with bindings of varying selectivity.
    "SELECT s.workdept, s.avgsalary FROM avgmgrsal s WHERE s.workdept = 3",
    "SELECT d.deptname, s.avgsalary FROM department d, avgmgrsal s \
     WHERE d.deptno = s.workdept AND d.deptname = 'Planning'",
    "SELECT d.deptname, s.avgsalary FROM department d, avgmgrsal s \
     WHERE d.deptno = s.workdept",
    "SELECT d.deptname, v.avgsal FROM department d, deptavg v \
     WHERE v.workdept = d.deptno AND d.division = 'Sales'",
    // Conditions (non-equality) through views.
    "SELECT e.empno FROM employee e, deptavg v \
     WHERE v.workdept = e.workdept AND e.salary > v.avgsal",
    "SELECT d.deptname, v.total FROM department d, acts v \
     WHERE v.deptno = d.deptno AND v.total > 100 AND d.division = 'Legal'",
    // Shared views (common subexpressions).
    "SELECT a.workdept FROM avgmgrsal a, avgmgrsal b \
     WHERE a.workdept = b.workdept AND a.avgsalary > b.avgsalary",
    "SELECT a.empno, b.empno FROM mgrsal a, mgrsal b, department d \
     WHERE a.workdept = d.deptno AND b.workdept = d.deptno AND d.deptname = 'Planning'",
    // Aggregation shapes.
    "SELECT COUNT(*) FROM mgrsal",
    "SELECT workdept, COUNT(*), MIN(salary), MAX(salary) FROM employee GROUP BY workdept \
     HAVING COUNT(*) > 5",
    "SELECT division, AVG(budget) FROM department GROUP BY division",
    // DISTINCT and set operations.
    "SELECT DISTINCT workdept FROM mgrsal",
    "SELECT no FROM allpeople WHERE dept = 4",
    "SELECT deptno FROM department EXCEPT SELECT workdept FROM employee",
    "SELECT deptno FROM department INTERSECT SELECT workdept FROM employee WHERE salary > 40000",
    // Subqueries.
    "SELECT d.deptname FROM department d WHERE EXISTS \
     (SELECT 1 FROM employee e WHERE e.workdept = d.deptno AND e.salary > 75000)",
    "SELECT d.deptname FROM department d WHERE NOT EXISTS \
     (SELECT 1 FROM project p WHERE p.deptno = d.deptno AND p.budget > 90000)",
    "SELECT e.empno FROM employee e WHERE e.workdept IN \
     (SELECT deptno FROM department WHERE division = 'Research')",
    "SELECT e.empno FROM employee e WHERE e.salary >= ALL \
     (SELECT f.salary FROM employee f WHERE f.workdept = e.workdept)",
    "SELECT e.empno FROM employee e WHERE e.salary > \
     (SELECT AVG(f.salary) FROM employee f WHERE f.workdept = e.workdept)",
    // NULL handling.
    "SELECT empno FROM employee WHERE bonus IS NULL",
    "SELECT empno FROM employee WHERE bonus IS NOT NULL AND bonus > 5000",
    "SELECT workdept, SUM(bonus) FROM employee GROUP BY workdept",
    // LIKE / BETWEEN / IN-list.
    "SELECT deptname FROM department WHERE deptname LIKE 'Dept_1%'",
    "SELECT empno FROM employee WHERE salary BETWEEN 40000 AND 45000",
    "SELECT empno FROM employee WHERE workdept IN (1, 3, 5)",
    // Derived tables.
    "SELECT v.d, v.c FROM (SELECT workdept AS d, COUNT(*) AS c FROM employee \
     GROUP BY workdept) AS v WHERE v.d < 5",
    // Outer joins (the §5 extensibility operation, via SQL syntax).
    "SELECT d.deptname, p.projname FROM department d \
     LEFT OUTER JOIN project p ON p.deptno = d.deptno \
     WHERE d.division = 'Legal'",
    "SELECT d.deptname, v.avgsalary FROM department d \
     LEFT JOIN avgmgrsal v ON v.workdept = d.deptno \
     WHERE d.deptname = 'Planning'",
    // Recursion (stratified).
    "SELECT mgr, emp FROM subord WHERE mgr = 0",
    // Multi-level views.
    "SELECT d.deptname, s.workdept, s.avgsalary \
     FROM department d, avgmgrsal s \
     WHERE d.deptno = s.workdept AND d.deptname = 'Planning'",
];

#[test]
fn original_and_magic_agree_on_the_battery() {
    let engine = engine();
    for sql in QUERIES {
        check(&engine, sql);
    }
}

#[test]
fn magic_strategy_is_exercised_not_bypassed() {
    // Sanity: a healthy share of the battery actually transforms.
    // (Single-use plain-select views are dissolved by the merge rule in
    // phase 1 — their predicate motion needs no magic — so EMST fires
    // on the aggregate-view and shared-view queries.)
    let engine = engine();
    let mut transformed = 0;
    for sql in QUERIES {
        let o = engine.optimize_sql(sql, Strategy::Magic).unwrap();
        if o.stats[1].count("emst") > 0 {
            transformed += 1;
        }
    }
    assert!(
        transformed >= 6,
        "only {transformed} queries were transformed by EMST"
    );
}

#[test]
fn cost_based_strategy_never_loses_to_original() {
    let engine = engine();
    for sql in QUERIES {
        let r = engine.query_with(sql, Strategy::CostBased).unwrap();
        assert!(
            r.cost_with_magic <= r.cost_without_magic || !r.used_magic,
            "cost-based picked the more expensive plan for:\n{sql}"
        );
    }
}

#[test]
fn work_metric_is_deterministic() {
    let engine = engine();
    let sql = QUERIES[4];
    let a = engine.query_with(sql, Strategy::Magic).unwrap().metrics;
    let b = engine.query_with(sql, Strategy::Magic).unwrap().metrics;
    assert_eq!(a, b);
}

#[test]
fn ablation_options_preserve_results_on_query_d() {
    use starmagic::PipelineOptions;
    let engine = engine();
    let sql = "SELECT d.deptname, s.workdept, s.avgsalary \
               FROM department d, avgmgrsal s \
               WHERE d.deptno = s.workdept AND d.deptname = 'Planning'";
    let base = sorted(&engine, sql, Strategy::Magic);
    for opts in [
        PipelineOptions {
            force_magic: true,
            use_supplementary: false,
            ..PipelineOptions::default()
        },
        PipelineOptions {
            force_magic: true,
            cleanup_phase3: false,
            ..PipelineOptions::default()
        },
        PipelineOptions {
            force_magic: true,
            use_supplementary: false,
            cleanup_phase3: false,
            ..PipelineOptions::default()
        },
    ] {
        let prepared = engine.prepare_with_options(sql, opts).unwrap();
        let mut rows = engine.execute_prepared(&prepared).unwrap().rows;
        rows.sort_by(starmagic_common::Row::group_cmp);
        assert_eq!(base, rows, "{opts:?}");
    }
}

#[test]
fn emst_never_makes_a_nonrecursive_query_recursive() {
    // Regression guard: magic bindings routed through a shared adorned
    // copy once created a cycle (the paper's "magic-sets transformation
    // can rewrite a nonrecursive query into a recursive query"), which
    // under our set-semantics fixpoint silently broke UNION ALL
    // multiplicities. EMST must keep nonrecursive graphs acyclic.
    let engine = engine();
    for sql in QUERIES {
        if sql.contains("subord") {
            continue; // genuinely recursive input
        }
        let o = engine.optimize_sql(sql, Strategy::Magic).unwrap();
        for g in [&o.phase2, &o.phase3] {
            assert!(
                !starmagic::qgm::strata::is_recursive(g),
                "EMST introduced recursion for:\n{sql}\n{}",
                starmagic::qgm::printer::print_graph(g)
            );
        }
    }
}
