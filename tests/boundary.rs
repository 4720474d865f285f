//! The box boundary is invisible from outside the executor.
//!
//! Inside, a box hands its consumer a batch, rows, or both, a columnar
//! producer gathers only its live columns, and group-by is one
//! vectorized kernel (DESIGN.md "The box boundary"). Outside, nothing
//! may move: for the 32 Table-1 plans and 8 transitive closures the
//! rows — in order — and the whole [`ExecProfile`] are the same with
//! the columnar knob on and off. The second pins that output itself, as
//! one digest over the same plans and a set of lookup-shape queries.
//!
//! The third test is the number ROADMAP item 5 asks for: how many box
//! evaluations stay on the batch path, and why the rest leave it, over
//! Table 1 and the fuzz corpus. DESIGN.md quotes its output; run it
//! with `--nocapture` to regenerate.
//!
//! The last three pin the physical plan (DESIGN.md "Physical plan"): a
//! cached entry, lowered once with its literals as parameter slots,
//! runs exactly like a plan freshly prepared with the literals in it —
//! with the columnar knob on and off, from eight threads at once, and as
//! seen by the misestimate feedback.
//!
//! Attached to the fuzz crate, which sees the bench experiments, the
//! recursion graphs and the query generator at once.

use std::collections::BTreeMap;

use starmagic::exec::{
    execute_plan, execute_with_options, ExecOptions, ExecProfile, Fallback, IndexCache,
};
use starmagic::qgm::Qgm;
use starmagic::sql::query_sql;
use starmagic::{Engine, MetricsRegistry as Registry, Prepared, Strategy};
use starmagic_bench::recursion::{graphs, recursion_engine, GraphSpec, RECURSION_SQL};
use starmagic_bench::{bench_engine, experiments};
use starmagic_catalog::generator::Scale;
use starmagic_common::{Result, Row, Value};
use starmagic_fuzz::{fuzz_engine, gen};

fn run(
    engine: &Engine,
    qgm: &Qgm,
    indexes: &IndexCache,
    columnar: bool,
    metrics: Registry,
) -> (Vec<Row>, ExecProfile) {
    let opts = ExecOptions {
        columnar,
        metrics,
        ..ExecOptions::default()
    };
    execute_with_options(qgm, engine.catalog(), indexes, opts).expect("execution")
}

/// The row path against the columnar run.
fn assert_invisible(engine: &Engine, qgm: &Qgm, what: &str) {
    let indexes = IndexCache::default();
    let base = run(engine, qgm, &indexes, true, Registry::noop());
    let other = run(engine, qgm, &indexes, false, Registry::noop());
    assert_eq!(base.0, other.0, "{what}: rows or their order differ");
    assert_eq!(base.1, other.1, "{what}: profile differs");
}

/// The 32 plans `table1_exec` prepares: each experiment's view
/// formulation under the three strategies, and its correlated one.
fn table1_plans(engine: &Engine) -> Vec<(String, Qgm)> {
    let mut plans = Vec::new();
    for exp in experiments() {
        for (label, sql, strategy) in [
            ("view/cost", exp.original_sql, Strategy::CostBased),
            ("view/magic", exp.original_sql, Strategy::Magic),
            ("view/original", exp.original_sql, Strategy::Original),
            ("correlated", exp.correlated_sql, Strategy::Original),
        ] {
            let prepared = engine.prepare(sql, strategy).expect("prepare");
            plans.push((format!("{} {label}", exp.id), prepared.qgm));
        }
    }
    plans
}

/// The bench crate's three graphs plus a small layered DAG (fan-in, so
/// UNION's dedup admits fewer rows than the step derives).
fn closure_graphs() -> Vec<GraphSpec> {
    let mut dag = Vec::new();
    for layer in 0..6i64 {
        for node in 0..8i64 {
            for k in 0..2i64 {
                dag.push((layer * 8 + node, (layer + 1) * 8 + (node + k) % 8));
            }
        }
    }
    let mut all = graphs();
    all.push(GraphSpec {
        name: "dag",
        edges: dag,
        bound: 3,
    });
    all
}

#[test]
fn table1_and_closures_are_identical_across_paths() {
    let engine = bench_engine(Scale::small()).unwrap();
    let plans = table1_plans(&engine);
    assert_eq!(plans.len(), 32);
    for (what, qgm) in &plans {
        assert_invisible(&engine, qgm, what);
    }

    // 4 graphs x (source-bound, destination-bound) = 8 closures, each
    // as the naive fixpoint and with magic on the recursion.
    let mut closures = 0;
    for g in closure_graphs() {
        let engine = recursion_engine(&g).unwrap();
        let source = format!("{RECURSION_SQL}{}", g.bound);
        let target = g.edges[g.edges.len() / 2].1;
        let dest = format!(
            "{}{target}",
            RECURSION_SQL.replace("WHERE src = ", "WHERE dst = ")
        );
        for (bound, sql) in [("source", &source), ("destination", &dest)] {
            closures += 1;
            for strategy in [Strategy::Original, Strategy::Magic] {
                let prepared = engine.prepare(sql, strategy).unwrap();
                let what = format!("closure {} {bound}-bound {strategy:?}", g.name);
                assert_invisible(&engine, &prepared.qgm, &what);
            }
        }
    }
    assert_eq!(closures, 8);
}

/// FNV-1a, 64-bit: a digest that is the same on every platform and
/// build profile.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn add(&mut self, text: &str) {
        for &byte in text.as_bytes().iter().chain(b"\n") {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// Queries over the fuzz database that reach every shape an equality
/// lookup can take, as index probes and as hash joins.
const LOOKUP_SHAPES: [&str; 10] = [
    // `employee.empno` is sparse: 0..640 plus the NULL-rich 9001..9006.
    "SELECT e.empname, a.hours FROM employee e, emp_act a WHERE a.empno = e.empno",
    "SELECT empname, salary FROM employee WHERE empno = 9003",
    // A negative literal, below every key.
    "SELECT empname FROM employee WHERE empno = -1",
    "SELECT d.deptname, e.empno FROM department d, employee e \
     WHERE e.workdept = d.deptno AND d.deptno = -3",
    // An index probe on a string column.
    "SELECT deptno, mgrno FROM department WHERE deptname = 'Planning'",
    // A composite-key hash join.
    "SELECT a.empno, b.hours FROM emp_act a, emp_act b \
     WHERE a.empno = b.empno AND a.projno = b.projno",
    // Double probes against Int keys, and Int probes against Doubles.
    "SELECT deptname FROM department d WHERE d.deptno = 3.0",
    "SELECT deptname FROM department d WHERE d.deptno = 2.5",
    "SELECT d.deptname, e.empno FROM department d, employee e \
     WHERE e.workdept * 1.0 = d.deptno",
    "SELECT d.deptname, e.empno FROM employee e, department d \
     WHERE d.deptno * 1.0 = e.workdept",
];

/// The executor's observable output, pinned: rows in order, the whole
/// profile (per-box counters and fixpoint rounds) and the path markers
/// of the 32 Table-1 plans, the source- and destination-bound closures,
/// and [`LOOKUP_SHAPES`], each with the columnar knob on and off. A
/// change to how the executor finds rows must leave every digit alone.
#[test]
fn executor_output_is_pinned() {
    let mut digest = Fnv::new();
    let mut add = |engine: &Engine, what: &str, qgm: &Qgm| {
        for columnar in [true, false] {
            let (rows, profile) = run(
                engine,
                qgm,
                &IndexCache::default(),
                columnar,
                Registry::noop(),
            );
            digest.add(&format!(
                "{what} columnar={columnar}\n{rows:?}\n{:?}\n{:?}\n{:?}",
                profile.boxes, profile.fixpoint, profile.paths
            ));
        }
    };
    let engine = bench_engine(Scale::small()).unwrap();
    for (what, qgm) in &table1_plans(&engine) {
        add(&engine, what, qgm);
    }
    for g in closure_graphs() {
        let engine = recursion_engine(&g).unwrap();
        let target = g.edges[g.edges.len() / 2].1;
        let source = format!("{RECURSION_SQL}{}", g.bound);
        let dest = format!(
            "{}{target}",
            RECURSION_SQL.replace("WHERE src = ", "WHERE dst = ")
        );
        for sql in [source, dest] {
            for strategy in [Strategy::Original, Strategy::Magic] {
                let prepared = engine.prepare(&sql, strategy).unwrap();
                add(&engine, &format!("{strategy:?} {sql}"), &prepared.qgm);
            }
        }
    }
    let engine = fuzz_engine().unwrap();
    for sql in LOOKUP_SHAPES {
        for strategy in [Strategy::Original, Strategy::Magic] {
            let prepared = engine.prepare(sql, strategy).unwrap();
            add(&engine, &format!("{strategy:?} {sql}"), &prepared.qgm);
        }
    }
    assert_eq!(
        digest.0, 6_915_138_973_350_929_048,
        "executor output digest"
    );
}

/// `exec.batch.boxes` and `exec.batch.fallback.*` over one corpus.
fn tally(engine: &Engine, plans: &[(String, Qgm)]) -> (u64, BTreeMap<&'static str, u64>) {
    let registry = Registry::enabled();
    let indexes = IndexCache::default();
    for (_, qgm) in plans {
        run(engine, qgm, &indexes, true, registry.clone());
    }
    let snap = registry.snapshot();
    let reasons = Fallback::ALL
        .iter()
        .map(|why| {
            let name = format!("exec.batch.fallback.{}", why.name());
            (why.name(), snap.counter(&name))
        })
        .filter(|(_, n)| *n > 0)
        .collect();
    (snap.counter("exec.batch.boxes"), reasons)
}

/// Evaluations that ran on the batch path, of all evaluations; a result
/// later materialized for a row-only consumer still ran as a batch.
fn eligibility(batch: u64, reasons: &BTreeMap<&'static str, u64>) -> f64 {
    let left: u64 = reasons
        .iter()
        .filter(|(why, _)| **why != Fallback::RowOnlyConsumer.name())
        .map(|(_, n)| n)
        .sum();
    batch as f64 / (batch + left) as f64
}

#[test]
fn eligibility_rate_over_table1_and_the_fuzz_corpus() {
    let engine = bench_engine(Scale::small()).unwrap();
    // The view formulations are scans, hash joins and group-bys: all
    // batch. The correlated formulations re-evaluate a scalar subquery
    // per outer row, and the select that owns it is the row path's.
    let (correlated, views): (Vec<_>, Vec<_>) = table1_plans(&engine)
        .into_iter()
        .partition(|(what, _)| what.ends_with("correlated"));
    for (label, plans, floor) in [
        ("table1, 24 view plans", &views, 0.99),
        ("table1, 8 correlated plans", &correlated, 0.5),
    ] {
        let (batch, reasons) = tally(&engine, plans);
        let rate = eligibility(batch, &reasons);
        println!(
            "{label} (Scale::small): {batch} evaluations on the batch path, \
             eligibility {:.1} %, left it: {reasons:?}",
            100.0 * rate
        );
        assert!(rate >= floor, "{label}: eligibility fell to {rate}");
        assert!(!reasons.contains_key(Fallback::KernelError.name()));
    }

    // The corpus plan_cold prepares: seed 11, the first 200 the engine
    // accepts, under the cost-based strategy.
    let engine = fuzz_engine().unwrap();
    let mut corpus = Vec::new();
    let mut case = 0;
    while corpus.len() < 200 {
        let sql = query_sql(&gen::generate(11, case));
        case += 1;
        if let Ok(prepared) = engine.prepare(&sql, Strategy::CostBased) {
            corpus.push((sql, prepared.qgm));
        }
    }
    let (batch, reasons) = tally(&engine, &corpus);
    let fuzz = eligibility(batch, &reasons);
    println!(
        "fuzz corpus (200 queries, seed 11): {batch} evaluations on the batch path, \
         eligibility {:.1} %, left it: {reasons:?}",
        100.0 * fuzz
    );
    assert!(batch > 0 && fuzz > 0.25, "fuzz eligibility fell to {fuzz}");
}

/// The four `wire_point` templates (benchmark/src/workloads/wire.rs)
/// for one department: the selective queries the plan cache serves.
fn wire_templates(dept: u64) -> [String; 4] {
    let name = if dept == 0 {
        "Planning".to_string()
    } else {
        format!("Dept_{dept}")
    };
    [
        format!(
            "SELECT d.deptname, v.avgsal FROM department d, deptAvgSal v \
             WHERE v.workdept = d.deptno AND d.deptno = {dept}"
        ),
        format!(
            "SELECT e.empno FROM employee e, department d, deptAvgSal v \
             WHERE e.workdept = d.deptno AND v.workdept = e.workdept \
             AND e.salary > v.avgsal AND d.deptname = '{name}'"
        ),
        format!(
            "SELECT d.deptname FROM department d, projCount v \
             WHERE d.deptno = {dept} AND v.deptno = d.deptno AND v.cnt > 2"
        ),
        format!(
            "SELECT d.deptname, s.workdept, s.avgsalary FROM department d, avgMgrSal s \
             WHERE d.deptno = s.workdept AND d.deptname = '{name}'"
        ),
    ]
}

/// One execution of a prepared plan on one path, through its lowered
/// form with `params` bound.
fn run_prepared(
    engine: &Engine,
    prepared: &Prepared,
    params: &[Value],
    columnar: bool,
) -> Result<(Vec<Row>, ExecProfile)> {
    let opts = ExecOptions {
        columnar,
        ..ExecOptions::default()
    };
    let indexes = IndexCache::default();
    execute_plan(
        &prepared.qgm,
        prepared.plan(),
        params,
        engine.catalog(),
        &indexes,
        opts,
    )
}

/// `sql` through the plan cache against `sql` prepared with its
/// literals: the engine's own entry points at the default setting,
/// then rows in order, profile, path markers and errors with the
/// columnar knob on and off.
fn assert_cached_is_literal(engine: &Engine, sql: &str, strategy: Strategy) {
    let what = format!("{strategy:?} {sql}");
    let literal = engine.prepare(sql, strategy).expect("prepare");
    let (entry, extracted, _) = engine
        .prepare_cached(sql, strategy)
        .expect("prepare_cached");
    let cached = engine.execute_cached(&entry, &[], &extracted);
    match (cached, engine.execute_prepared(&literal)) {
        (Ok(c), Ok(l)) => {
            assert_eq!(c.rows, l.rows, "{what}: rows or their order differ");
            assert_eq!(c.metrics, l.metrics, "{what}: work differs");
        }
        (Err(c), Err(l)) => assert_eq!(c, l, "{what}: errors differ"),
        (c, l) => panic!("{what}: cached {c:?} vs literal {l:?}"),
    }
    for columnar in [true, false] {
        let setting = format!("{what}: columnar={columnar}");
        let c = run_prepared(engine, &entry.prepared, &extracted, columnar);
        let l = run_prepared(engine, &literal, &[], columnar);
        match (c, l) {
            (Ok(c), Ok(l)) => {
                assert_eq!(c.0, l.0, "{setting}: rows or their order differ");
                assert_eq!(c.1, l.1, "{setting}: profile differs");
                assert_eq!(c.1.paths, l.1.paths, "{setting}: paths differ");
            }
            (Err(c), Err(l)) => assert_eq!(c, l, "{setting}: errors differ"),
            (c, l) => panic!("{setting}: cached {c:?} vs literal {l:?}"),
        }
    }
}

#[test]
fn a_cached_execution_equals_a_freshly_prepared_literal_plan() {
    let engine = bench_engine(Scale::small()).unwrap();
    for exp in experiments() {
        for strategy in [Strategy::Original, Strategy::Magic, Strategy::CostBased] {
            assert_cached_is_literal(&engine, exp.original_sql, strategy);
        }
        assert_cached_is_literal(&engine, exp.correlated_sql, Strategy::Original);
    }
    for dept in 0..20 {
        for sql in wire_templates(dept) {
            assert_cached_is_literal(&engine, &sql, Strategy::CostBased);
        }
    }
    // A literal that makes execution fail: the same error either way.
    let failing = "SELECT empno FROM employee WHERE salary / 0 > 1";
    assert!(engine.query(failing).is_err());
    assert_cached_is_literal(&engine, failing, Strategy::CostBased);

    for g in closure_graphs() {
        let engine = recursion_engine(&g).unwrap();
        let target = g.edges[g.edges.len() / 2].1;
        let source = format!("{RECURSION_SQL}{}", g.bound);
        let dest = format!(
            "{}{target}",
            RECURSION_SQL.replace("WHERE src = ", "WHERE dst = ")
        );
        for sql in [source, dest] {
            for strategy in [Strategy::Original, Strategy::Magic, Strategy::CostBased] {
                assert_cached_is_literal(&engine, &sql, strategy);
            }
        }
    }
}

#[test]
fn one_cached_plan_serves_eight_threads_and_is_lowered_once() {
    let mut engine = bench_engine(Scale::small()).unwrap();
    let registry = Registry::enabled();
    engine.set_metrics(registry.clone());
    let sql = "SELECT d.deptname, v.avgsal FROM department d, deptAvgSal v \
               WHERE v.workdept = d.deptno AND d.deptno = ?";
    let (entry, extracted, _) = engine.prepare_cached(sql, Strategy::CostBased).unwrap();
    assert_eq!(entry.user_params, 1);
    let lowerings = || registry.snapshot().histogram("engine.lower_us").count();
    assert_eq!(lowerings(), 0, "preparing lowers nothing");

    let concurrent: Vec<(Vec<Row>, usize)> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..8i64)
            .map(|dept| {
                let (engine, entry, extracted) = (&engine, &entry, &extracted);
                s.spawn(move || {
                    let r = engine
                        .execute_cached(entry, &[Value::Int(dept)], extracted)
                        .unwrap();
                    let lowered = std::ptr::from_ref(entry.prepared.plan()) as usize;
                    (r.rows, lowered)
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().unwrap()).collect()
    });
    assert_eq!(lowerings(), 1, "eight first executions, one lowering");
    for (dept, (rows, lowered)) in concurrent.iter().enumerate() {
        assert_eq!(*lowered, concurrent[0].1, "every thread ran the one plan");
        let serial = engine
            .execute_cached(&entry, &[Value::Int(dept as i64)], &extracted)
            .unwrap();
        assert_eq!(*rows, serial.rows, "department {dept}");
    }
    assert_eq!(lowerings(), 1, "later executions lower nothing");
    for (dept, (rows, _)) in concurrent.iter().enumerate() {
        let fresh = engine.query(&sql.replace('?', &dept.to_string())).unwrap();
        assert_eq!(*rows, fresh.rows, "department {dept}");
    }
}

/// A cached entry's misestimate feedback compares against estimates it
/// keeps from its first execution, made on the template; the planner
/// scores a parameter as it scores a literal, so the buckets equal
/// those of the same stream prepared fresh with its literals.
#[test]
fn cached_plans_feed_the_misestimate_buckets_literal_plans_would() {
    let buckets = |cached: bool| {
        let mut engine = bench_engine(Scale::small()).unwrap();
        let registry = Registry::enabled();
        engine.set_metrics(registry.clone());
        for dept in 0..20 {
            for sql in wire_templates(dept) {
                if cached {
                    engine.query_cached(&sql, Strategy::CostBased).unwrap();
                } else {
                    engine.query(&sql).unwrap();
                }
            }
        }
        let snap = registry.snapshot();
        ["within2x", "within10x", "within100x", "beyond100x"]
            .map(|b| snap.counter(&format!("planner.misestimate.{b}")))
    };
    let cached = buckets(true);
    assert!(
        cached.iter().sum::<u64>() > 0,
        "the stream recorded nothing"
    );
    assert_eq!(cached, buckets(false));
}
