//! Integration tests for the tracing and profiling layer: per-box
//! executor attribution, rewrite-trace determinism, the disabled-sink
//! no-op contract, and the EXPLAIN ANALYZE surface.

use starmagic::trace::TraceSink;
use starmagic::{optimize, Engine, PipelineOptions, Strategy};
use starmagic_catalog::generator::{benchmark_catalog, Scale};
use starmagic_catalog::{Catalog, ColumnDef, Table, TableSchema};
use starmagic_common::{DataType, Row, Value};
use starmagic_qgm::BoxKind;

fn paper_engine() -> Engine {
    let mut e = Engine::new(benchmark_catalog(Scale::small()).unwrap());
    e.run_sql(
        "CREATE VIEW mgrSal (empno, empname, workdept, salary) AS \
         SELECT e.empno, e.empname, e.workdept, e.salary \
         FROM employee e, department d WHERE e.empno = d.mgrno",
    )
    .unwrap();
    e.run_sql(
        "CREATE VIEW avgMgrSal (workdept, avgsalary) AS \
         SELECT workdept, AVG(salary) FROM mgrSal GROUP BY workdept",
    )
    .unwrap();
    e
}

const QUERY_D: &str = "SELECT d.deptname, s.workdept, s.avgsalary \
                       FROM department d, avgMgrSal s \
                       WHERE d.deptno = s.workdept AND d.deptname = 'Planning'";

/// Rows scanned from one stored table, summed across the boxes of the
/// executed plan that range over it.
fn table_scans(p: &starmagic::ProfiledQuery, table: &str) -> u64 {
    let qgm = p.optimized.chosen();
    let live: std::collections::BTreeSet<_> = qgm.box_ids().into_iter().collect();
    p.profile.rows_scanned_where(|b| {
        live.contains(&b)
            && matches!(
                &qgm.boxed(b).kind,
                BoxKind::BaseTable { table: t } if t == table
            )
    })
}

/// The paper's headline, now verifiable per box rather than only in
/// the aggregate: EMST touches strictly fewer employee rows than the
/// Original plan on query D, while scanning the department table just
/// as often (magic restricts the *view*, not the outer scan).
#[test]
fn emst_scans_fewer_employee_rows_per_box() {
    let e = paper_engine();
    let orig = e.query_profiled(QUERY_D, Strategy::Original).unwrap();
    let emst = e.query_profiled(QUERY_D, Strategy::Magic).unwrap();

    let orig_emp = table_scans(&orig, "employee");
    let emst_emp = table_scans(&emst, "employee");
    assert!(
        emst_emp < orig_emp,
        "EMST employee scans {emst_emp} !< Original {orig_emp}"
    );

    let orig_dept = table_scans(&orig, "department");
    let emst_dept = table_scans(&emst, "department");
    assert_eq!(
        emst_dept, orig_dept,
        "magic should not change how the outer department scan works"
    );

    // And the per-box totals reconcile with the flat aggregate.
    assert_eq!(orig.profile.aggregate(), orig.result.metrics);
    assert_eq!(emst.profile.aggregate(), emst.result.metrics);
}

/// The instrumented path must report exactly the same deterministic
/// metrics as the plain path — profiling is a view, not a behaviour
/// change.
#[test]
fn profiled_metrics_match_unprofiled_run() {
    let e = paper_engine();
    for strategy in [Strategy::Original, Strategy::Magic, Strategy::CostBased] {
        let plain = e.query_with(QUERY_D, strategy).unwrap();
        let profiled = e.query_profiled(QUERY_D, strategy).unwrap();
        assert_eq!(plain.metrics, profiled.result.metrics, "{strategy:?}");
        assert_eq!(plain.rows.len(), profiled.result.rows.len());
    }
}

/// Rule-fire counts (and no-op offer counts) are deterministic: two
/// identical optimizations report identical rewrite traces.
#[test]
fn rule_fire_counts_stable_across_runs() {
    let e = paper_engine();
    let a = e.optimize_sql(QUERY_D, Strategy::CostBased).unwrap();
    let b = e.optimize_sql(QUERY_D, Strategy::CostBased).unwrap();
    for phase in 0..3 {
        assert_eq!(
            a.stats[phase].fires,
            b.stats[phase].fires,
            "phase {} fires differ across runs",
            phase + 1
        );
        assert_eq!(
            a.stats[phase].no_op_offers,
            b.stats[phase].no_op_offers,
            "phase {} no-op offers differ across runs",
            phase + 1
        );
        assert_eq!(a.stats[phase].passes, b.stats[phase].passes);
    }
}

/// The no-overhead contract: with tracing off the pipeline records no
/// spans, and a disabled sink hands out no-op timers.
#[test]
fn disabled_trace_is_a_noop() {
    let e = paper_engine();
    let query = starmagic::sql::parse_query(QUERY_D).unwrap();
    let o = optimize(
        e.catalog(),
        e.registry(),
        &query,
        PipelineOptions {
            trace: false,
            ..PipelineOptions::default()
        },
    )
    .unwrap();
    assert!(!o.trace.is_enabled());
    assert!(o.trace.spans().is_empty(), "disabled trace recorded spans");

    let sink = TraceSink::disabled();
    assert!(sink.start("anything").is_noop());
}

/// The metrics twin of the no-overhead contract: a disabled registry
/// hands out no-op instruments, records nothing, and leaves query
/// results and the `ExecProfile` aggregation exactly as they were —
/// while an enabled registry observes the same run without changing
/// it.
#[test]
fn disabled_metrics_registry_is_a_noop() {
    let noop = starmagic::MetricsRegistry::noop();
    assert!(noop.is_noop());
    assert!(noop.counter("x").is_noop());
    assert!(noop.stopwatch().is_noop());

    // A fresh engine runs with the noop registry by default.
    let plain_engine = paper_engine();
    assert!(plain_engine.metrics_registry().is_noop());
    let plain = plain_engine
        .query_profiled(QUERY_D, Strategy::Magic)
        .unwrap();
    // Nothing was recorded anywhere: the snapshot is empty.
    assert!(plain_engine.metrics_registry().snapshot().is_empty());

    // The same query under a live registry: identical rows, metrics,
    // and per-box profile — observation is a view, not a behaviour
    // change.
    let mut metered_engine = paper_engine();
    let registry = starmagic::MetricsRegistry::enabled();
    metered_engine.set_metrics(registry.clone());
    let metered = metered_engine
        .query_profiled(QUERY_D, Strategy::Magic)
        .unwrap();
    assert_eq!(plain.result.rows, metered.result.rows);
    assert_eq!(plain.result.metrics, metered.result.metrics);
    // Profiled runs time themselves, so compare the deterministic
    // aggregation rather than per-box wall clocks.
    assert_eq!(plain.profile.aggregate(), metered.profile.aggregate());

    // And the live registry actually saw the run.
    let snap = registry.snapshot();
    assert_eq!(snap.counter("engine.queries"), 1);
    assert_eq!(
        snap.counter("exec.rows_scanned"),
        metered.result.metrics.rows_scanned
    );
}

/// Every phase the pipeline runs shows up as a span, in order.
#[test]
fn pipeline_spans_cover_all_phases() {
    let e = paper_engine();
    let p = e.query_profiled(QUERY_D, Strategy::CostBased).unwrap();
    let names: Vec<&str> = p
        .optimized
        .trace
        .spans()
        .iter()
        .map(|s| s.name.as_str())
        .collect();
    assert_eq!(
        names,
        [
            "parse",
            "build",
            "rewrite.phase1",
            "plan.1",
            "rewrite.phase2",
            "rewrite.phase3",
            "plan.2",
            "lint",
            "analysis",
            "execute",
        ]
    );
}

/// EXPLAIN ANALYZE renders every observability section.
#[test]
fn explain_analyze_has_all_sections() {
    let e = paper_engine();
    let text = e.explain_analyze(QUERY_D).unwrap();
    for section in [
        "== profile (executed plan, per box)",
        "== rewrite trace",
        "== cardinality (estimated vs actual, per eval)",
        "== spans",
        "box_evals",
        "misestimation histogram",
    ] {
        assert!(text.contains(section), "missing {section:?} in:\n{text}");
    }
    // Non-recursive queries run no fixpoint, so the section is absent.
    assert!(!text.contains("== fixpoint"), "spurious fixpoint section");
}

/// Plain EXPLAIN prints the path each box was lowered to; EXPLAIN
/// ANALYZE still prints the path each box took.
#[test]
fn explain_prints_the_path_decided_at_lowering() {
    let e = paper_engine();
    // A scalar subquery in WHERE keeps the query box off the batch path.
    let sql = format!("{QUERY_D} AND d.deptno > (SELECT MIN(deptno) FROM department)");
    let line = |text: &str, section: &str, name: &str| -> String {
        let body = text
            .split(section)
            .nth(1)
            .unwrap_or_else(|| panic!("missing {section:?} in:\n{text}"));
        body.lines()
            .take_while(|l| !l.starts_with("=="))
            .find(|l| l.trim_start().starts_with(name))
            .unwrap_or_else(|| panic!("no {name} line under {section:?} in:\n{text}"))
            .to_string()
    };
    let physical = "== physical plan (path per box, decided at lowering)";

    let plain = e.explain(&sql).unwrap();
    assert!(
        line(&plain, physical, "QUERY").ends_with(" row(subquery_predicate)"),
        "{plain}"
    );
    assert!(
        line(&plain, physical, "EMPLOYEE").ends_with(" batch"),
        "{plain}"
    );
    let analyzed = e.explain_analyze(&sql).unwrap();
    assert!(
        line(&analyzed, "== profile", "QUERY").ends_with("path=row(subquery_predicate)"),
        "{analyzed}"
    );

    // Every box of a batch-eligible plan reads `batch` before it runs.
    let plain = e.explain(QUERY_D).unwrap();
    let body = plain.split(physical).nth(1).expect("physical section");
    let paths: Vec<&str> = body
        .lines()
        .skip(1)
        .take_while(|l| !l.starts_with("=="))
        .map(|l| l.split_whitespace().last().unwrap_or(""))
        .collect();
    assert!(
        !paths.is_empty() && paths.iter().all(|p| *p == "batch"),
        "{plain}"
    );
}

/// A three-edge chain for the recursive observability checks.
fn graph_engine() -> Engine {
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
            [(0i64, 1i64), (1, 2), (2, 3)]
                .into_iter()
                .map(|(s, d)| Row::new(vec![Value::Int(s), Value::Int(d)]))
                .collect(),
        )
        .unwrap(),
    )
    .unwrap();
    Engine::new(c)
}

const QUERY_TC: &str = "WITH RECURSIVE tc (src, dst) AS ( \
                        SELECT src, dst FROM edge \
                        UNION \
                        SELECT tc.src, e.dst FROM tc, edge e WHERE e.src = tc.dst) \
                        SELECT src, dst FROM tc";

/// EXPLAIN ANALYZE on a recursive query appends the `== fixpoint`
/// section with the per-round delta history of each recursive union.
#[test]
fn explain_analyze_shows_fixpoint_convergence() {
    let e = graph_engine();
    let text = e.explain_analyze(QUERY_TC).unwrap();
    assert!(
        text.contains("== fixpoint (per recursive union)"),
        "missing fixpoint section in:\n{text}"
    );
    // The 0→1→2→3 chain converges after 3 productive rounds: seed 3
    // rows, then deltas 2, 1, and the empty round that proves it.
    assert!(text.contains("[3 2 1 0]"), "unexpected deltas in:\n{text}");
    // Nothing is derived twice on a chain; the step arm's join with the
    // edge table builds once and serves the two later rounds.
    assert!(
        text.contains("rejected as duplicates [0 0 0 0]"),
        "unexpected rejections in:\n{text}"
    );
    assert!(
        text.contains("join build built 1×, reused 2×"),
        "unexpected build reuse in:\n{text}"
    );
}

/// The fixpoint driver reports its convergence counters through the
/// metrics registry, so recursion depth is observable via METRICS.
#[test]
fn fixpoint_metrics_are_recorded() {
    let mut e = graph_engine();
    let registry = starmagic::MetricsRegistry::enabled();
    e.set_metrics(registry.clone());
    let p = e.query_profiled(QUERY_TC, Strategy::CostBased).unwrap();
    assert_eq!(p.result.rows.len(), 6, "chain closure has 6 pairs");

    let snap = registry.snapshot();
    let fs = p.profile.fixpoint.values().next().expect("one fixpoint");
    assert_eq!(snap.counter("exec.fixpoint.iterations"), fs.iterations);
    assert_eq!(
        snap.counter("exec.fixpoint.delta_rows"),
        fs.delta_rows.iter().sum::<u64>()
    );
    assert_eq!(snap.counter("exec.fixpoint.total_rows"), fs.total_rows);
    let reused: u64 = p.profile.builds.values().map(|b| b.reused).sum();
    assert!(reused > 0, "the step arm's build was never reused");
    assert_eq!(snap.counter("exec.fixpoint.build_reuses"), reused);
}
