//! What the executor answers, pinned, and where it uses its kernels of
//! last resort.
//!
//! Inside, every box hands its consumer one batch, a select gathers
//! only its live columns, and group-by and the set operations are
//! vectorized kernels (DESIGN.md "The box boundary"). The first two tests pin the output
//! as digests: rows in order, per-box counters and fixpoint rounds of
//! the 32 Table-1 plans, 8 transitive closures and a set of
//! lookup-shape queries, with each box's path marker; then, without
//! the markers, the same plus error text over the seed-11 fuzz corpus.
//!
//! The third is the number ROADMAP item 5 asks for: which boxes run an
//! expression on the scalar evaluator, and why, over Table 1 and the
//! fuzz corpus. DESIGN.md quotes its output; run it with `--nocapture`
//! to regenerate.
//!
//! The last three pin the physical plan (DESIGN.md "Physical plan"): a
//! cached entry, lowered once with its literals as parameter slots,
//! runs exactly like a plan freshly prepared with the literals in it —
//! through the engine and through the lowered plans, from eight threads
//! at once, and as seen by the misestimate feedback.
//!
//! Attached to the fuzz crate, which sees the bench experiments, the
//! recursion graphs and the query generator at once.

use std::collections::BTreeMap;

use starmagic::exec::{
    execute_plan, execute_with_options, BoxPath, ExecOptions, ExecProfile, Fallback, IndexCache,
};
use starmagic::qgm::Qgm;
use starmagic::sql::query_sql;
use starmagic::{Engine, MetricsRegistry as Registry, Prepared, Strategy};
use starmagic_bench::recursion::{graphs, recursion_engine, GraphSpec, RECURSION_SQL};
use starmagic_bench::{bench_engine, experiments};
use starmagic_catalog::generator::Scale;
use starmagic_common::{Result, Row, Value};
use starmagic_fuzz::{fuzz_engine, gen};

fn run(engine: &Engine, qgm: &Qgm, metrics: Registry) -> (Vec<Row>, ExecProfile) {
    let opts = ExecOptions {
        metrics,
        ..ExecOptions::default()
    };
    execute_with_options(qgm, engine.catalog(), &IndexCache::default(), opts).expect("execution")
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
/// and [`LOOKUP_SHAPES`]. A change to how the executor finds rows must
/// leave every digit alone.
#[test]
fn executor_output_is_pinned() {
    let mut digest = Fnv::new();
    let mut add = |engine: &Engine, what: &str, qgm: &Qgm| {
        let (rows, profile) = run(engine, qgm, Registry::noop());
        digest.add(&format!(
            "{what}\n{rows:?}\n{:?}\n{:?}\n{:?}",
            profile.boxes, profile.fixpoint, profile.paths
        ));
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
        digest.0, 14_696_752_750_490_749_939,
        "executor output digest"
    );
}

/// The corpus `plan_cold` prepares, and the row path's real traffic:
/// seed 11, the first 200 queries the engine accepts under the
/// cost-based strategy.
fn fuzz_corpus(engine: &Engine) -> Vec<String> {
    let mut corpus = Vec::new();
    let mut case = 0;
    while corpus.len() < 200 {
        let sql = query_sql(&gen::generate(11, case));
        case += 1;
        if engine.prepare(&sql, Strategy::CostBased).is_ok() {
            corpus.push(sql);
        }
    }
    corpus
}

/// What an execution answers, whichever select executor ran it: the
/// rows in order, the per-box counters and fixpoint rounds, or the
/// error text — over the 32 Table-1 plans, the source- and
/// destination-bound closures, [`LOOKUP_SHAPES`] and the seed-11 fuzz
/// corpus under the original and cost-based strategies. Path markers
/// are left out: they say which executor ran, not what it answered.
#[test]
fn executor_answers_are_pinned() {
    let mut digest = Fnv::new();
    let mut add = |engine: &Engine, what: &str, qgm: &Qgm| {
        let opts = ExecOptions::default();
        match execute_with_options(qgm, engine.catalog(), &IndexCache::default(), opts) {
            Ok((rows, profile)) => digest.add(&format!(
                "{what}\n{rows:?}\n{:?}\n{:?}",
                profile.boxes, profile.fixpoint
            )),
            Err(e) => digest.add(&format!("{what}\nerror: {e}")),
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
    for sql in fuzz_corpus(&engine) {
        for strategy in [Strategy::Original, Strategy::CostBased] {
            let prepared = engine.prepare(&sql, strategy).unwrap();
            add(&engine, &format!("{strategy:?} {sql}"), &prepared.qgm);
        }
    }
    assert_eq!(
        digest.0, 14_201_923_901_626_624_781,
        "executor answers digest"
    );
}

/// Over one corpus: `exec.batch.boxes`, the box evaluations that ran no
/// expression on the scalar evaluator; `exec.batch.fallback.*` for
/// those that did; and each box that did, with its reason.
fn scalar_report(
    engine: &Engine,
    plans: &[(String, Qgm)],
) -> (u64, BTreeMap<&'static str, u64>, Vec<String>) {
    let registry = Registry::enabled();
    let mut boxes = Vec::new();
    for (what, qgm) in plans {
        let (_, profile) = run(engine, qgm, registry.clone());
        for (b, path) in &profile.paths {
            if let BoxPath::Row(_) = path {
                boxes.push(format!("{what}: {} {path}", qgm.boxed(*b).name));
            }
        }
    }
    let snap = registry.snapshot();
    let reasons: BTreeMap<&'static str, u64> = Fallback::ALL
        .iter()
        .map(|why| {
            let name = format!("exec.batch.fallback.{}", why.name());
            (why.name(), snap.counter(&name))
        })
        .filter(|(_, n)| *n > 0)
        .collect();
    (snap.counter("exec.batch.boxes"), reasons, boxes)
}

/// The share of evaluations that ran no expression on the scalar
/// evaluator.
fn kernel_share(batch: u64, reasons: &BTreeMap<&'static str, u64>) -> f64 {
    batch as f64 / (batch + reasons.values().sum::<u64>()) as f64
}

/// Which boxes run an expression on the scalar evaluator, and why, over
/// Table 1 and the fuzz corpus. DESIGN.md quotes the output; run with
/// `--nocapture` to regenerate.
#[test]
fn eligibility_rate_over_table1_and_the_fuzz_corpus() {
    let engine = bench_engine(Scale::small()).unwrap();
    // The view formulations are scans, hash joins and group-bys. The
    // correlated ones test or read a subquery per outer row, and that
    // test or read is the scalar evaluator's.
    let (correlated, views): (Vec<_>, Vec<_>) = table1_plans(&engine)
        .into_iter()
        .partition(|(what, _)| what.ends_with("correlated"));
    for (label, plans, floor) in [
        ("table1, 24 view plans", &views, 1.0),
        ("table1, 8 correlated plans", &correlated, 0.98),
    ] {
        let (batch, reasons, boxes) = scalar_report(&engine, plans);
        let rate = kernel_share(batch, &reasons);
        println!(
            "{label} (Scale::small): {batch} evaluations on kernels only \
             ({:.1} %), scalar evaluator: {reasons:?}",
            100.0 * rate
        );
        for b in &boxes {
            println!("  {b}");
        }
        assert!(rate >= floor, "{label}: the kernel share fell to {rate}");
        assert!(!reasons.contains_key(Fallback::KernelError.name()));
    }

    let engine = fuzz_engine().unwrap();
    let corpus: Vec<(String, Qgm)> = fuzz_corpus(&engine)
        .into_iter()
        .map(|sql| {
            let qgm = engine.prepare(&sql, Strategy::CostBased).unwrap().qgm;
            (sql, qgm)
        })
        .collect();
    let (batch, reasons, boxes) = scalar_report(&engine, &corpus);
    let rate = kernel_share(batch, &reasons);
    println!(
        "fuzz corpus (200 queries, seed 11): {batch} evaluations on kernels only \
         ({:.1} %), scalar evaluator in {} boxes: {reasons:?}",
        100.0 * rate,
        boxes.len()
    );
    assert!(rate >= 0.97, "fuzz corpus: the kernel share fell to {rate}");
}

/// `-0.0` equals `0` in a predicate, whichever path compares them: a
/// filter kernel, the scalar evaluator, an ordering, a hash join, an
/// index probe and a hashed `IN`. Each query is paired with a twin that
/// takes another path, or with the answer itself. Grouping agrees: over
/// a DOUBLE column holding both zeros, DISTINCT and GROUP BY find one
/// zero, and EXCEPT and INTERSECT answer what NOT IN and IN do.
#[test]
fn negative_zero_equals_zero_on_every_path() {
    let mut engine = fuzz_engine().unwrap();
    for sql in [
        "CREATE TABLE zeros (a DOUBLE)",
        "INSERT INTO zeros VALUES (0.0), (-0.0), (NULL)",
        "CREATE TABLE negzero (a DOUBLE)",
        "INSERT INTO negzero VALUES (-0.0)",
    ] {
        engine.run_sql(sql).unwrap();
    }
    let answer = |sql: &str, strategy: Strategy| -> Vec<String> {
        let prepared = engine.prepare(sql, strategy).unwrap();
        let rows = engine.execute_prepared(&prepared).unwrap().rows;
        let mut rows: Vec<String> = rows.iter().map(ToString::to_string).collect();
        rows.sort();
        rows
    };
    let filter = "SELECT deptno FROM department d WHERE d.deptno * -1.0 = 0";
    let join = "SELECT d.deptno, e.empno FROM department d, employee e \
                WHERE e.workdept * -1.0 = d.deptno";
    let pairs = [
        // A vectorized filter, and the scalar evaluator under an OR
        // with an always-false subquery test.
        (
            filter.to_string(),
            format!("{filter} OR EXISTS (SELECT 1 FROM employee e WHERE e.empno = -5)"),
        ),
        // An ordering.
        (
            "SELECT deptno FROM department d WHERE d.deptno * -1.0 >= 0".to_string(),
            "SELECT deptno FROM department d WHERE d.deptno <= 0".to_string(),
        ),
        // A hash join, and the same join as a filter over the product.
        (join.to_string(), format!("{join} OR e.empno = -7")),
        // An index probe on the key, and the hashed IN over its values.
        (
            "SELECT deptno FROM department d WHERE d.deptno = 0 * -1.0".to_string(),
            "SELECT deptno FROM department d WHERE d.deptno * -1.0 IN \
             (SELECT x.deptno FROM department x WHERE x.deptno = 0)"
                .to_string(),
        ),
    ];
    for strategy in [Strategy::Original, Strategy::Magic, Strategy::CostBased] {
        for (sql, twin) in &pairs {
            let got = answer(sql, strategy);
            assert!(!got.is_empty(), "{strategy:?}: {sql} found no row");
            assert_eq!(got, answer(twin, strategy), "{strategy:?}: {sql}");
        }
        assert_eq!(answer(filter, strategy), ["(0)"], "{strategy:?}");
        let truth = "SELECT d.deptno * -1.0 = 0 FROM department d WHERE d.deptno = 0";
        assert_eq!(answer(truth, strategy), ["(TRUE)"], "{strategy:?}");
        // The first spelling of a group stays its representative.
        let grouped = [
            ("SELECT DISTINCT a FROM zeros", vec!["(0.0)", "(NULL)"]),
            (
                "SELECT a, COUNT(*) FROM zeros GROUP BY a",
                vec!["(0.0, 2)", "(NULL, 1)"],
            ),
        ];
        for (sql, want) in grouped {
            assert_eq!(answer(sql, strategy), want, "{strategy:?}: {sql}");
        }
        let set_ops = [
            (
                "SELECT a FROM zeros WHERE a IS NOT NULL EXCEPT SELECT a FROM negzero",
                "SELECT DISTINCT a FROM zeros WHERE a NOT IN (SELECT a FROM negzero)",
                vec![],
            ),
            (
                "SELECT a FROM zeros INTERSECT SELECT a FROM negzero",
                "SELECT DISTINCT a FROM zeros WHERE a IN (SELECT a FROM negzero)",
                vec!["(0.0)"],
            ),
        ];
        for (set_op, subquery, want) in set_ops {
            assert_eq!(answer(set_op, strategy), want, "{strategy:?}: {set_op}");
            assert_eq!(answer(subquery, strategy), want, "{strategy:?}: {subquery}");
        }
    }
}

/// Negation is IEEE `-x` wherever it runs: a negated literal and a
/// negated stored `0.0` on the vectorized path, the same inside an item
/// that reads a scalar subquery (which the scalar evaluator runs), and
/// an inserted `-0.0` all print `-0.0`; negating `-0.0` gives `0.0`.
#[test]
fn a_negated_double_zero_prints_negative_zero_on_every_path() {
    let mut engine = fuzz_engine().unwrap();
    for sql in [
        "CREATE TABLE z (a DOUBLE, b DOUBLE)",
        "INSERT INTO z VALUES (0.0, -0.0)",
    ] {
        engine.run_sql(sql).unwrap();
    }
    for strategy in [Strategy::Original, Strategy::Magic, Strategy::CostBased] {
        for (sql, want) in [
            ("SELECT -0.0, -a, b, -b FROM z", "(-0.0, -0.0, -0.0, 0.0)"),
            ("SELECT -(a + (SELECT MIN(x.a) FROM z x)) FROM z", "(-0.0)"),
        ] {
            let prepared = engine.prepare(sql, strategy).unwrap();
            let rows = engine.execute_prepared(&prepared).unwrap().rows;
            let text: Vec<String> = rows.iter().map(ToString::to_string).collect();
            assert_eq!(text, [want], "{strategy:?}: {sql}");
        }
    }
}

/// Beyond 2^53 an `Int` and a `Double` compare by exact value on every
/// path. `2^53 + 1` rounds onto the double `2^53`, yet only `2^53`
/// equals it, so for that cluster, stored in each of its six row orders
/// in an INT and in a DOUBLE column, an index probe, a hash-join key,
/// the projected predicate, `COUNT(*)` under the predicate and the
/// range form answer the same rows.
#[test]
fn the_rounding_cluster_beyond_2_pow_53_answers_alike_on_every_path() {
    // (literal, tag): `Int(2^53 + 1)`, `Double(2^53)`, `Int(2^53)`.
    let cluster = [
        ("9007199254740993", 1),
        ("9007199254740992.0", 2),
        ("9007199254740992", 3),
    ];
    // Per literal, the tags of the values that equal it.
    let equal = [vec!["(1)"], vec!["(2)", "(3)"], vec!["(2)", "(3)"]];
    let orders = [
        [0, 1, 2],
        [0, 2, 1],
        [1, 0, 2],
        [1, 2, 0],
        [2, 0, 1],
        [2, 1, 0],
    ];
    for order in orders {
        let mut engine = Engine::new(starmagic_catalog::Catalog::new());
        engine
            .run_sql("CREATE TABLE c (i INT, d DOUBLE, tag INT)")
            .unwrap();
        // Eight rows of filler: one lookup is few against the table, so
        // an equality on a bare column probes its index.
        let filler: Vec<String> = (1..=8).map(|k| format!("({k}, {k}.0, 0)")).collect();
        let insert = format!("INSERT INTO c VALUES {}", filler.join(", "));
        engine.run_sql(&insert).unwrap();
        for k in order {
            let (v, tag) = cluster[k];
            let insert = format!("INSERT INTO c VALUES ({v}, {v}, {tag})");
            engine.run_sql(&insert).unwrap();
        }
        let answer = |sql: &str, strategy: Strategy| -> Vec<String> {
            let prepared = engine.prepare(sql, strategy).unwrap();
            let rows = engine.execute_prepared(&prepared).unwrap().rows;
            let mut rows: Vec<String> = rows.iter().map(ToString::to_string).collect();
            rows.sort();
            rows
        };
        for strategy in [Strategy::Original, Strategy::Magic, Strategy::CostBased] {
            for column in ["i", "d"] {
                for ((literal, _), want) in cluster.iter().zip(&equal) {
                    let eq = format!("{column} = {literal}");
                    let at = format!("{order:?} {strategy:?}: {eq}");
                    let forms = [
                        format!("SELECT tag FROM c WHERE {eq}"),
                        format!("SELECT tag FROM c WHERE {column} + 0 = {literal}"),
                        format!("SELECT tag FROM c WHERE {column} >= {literal} AND {column} <= {literal}"),
                    ];
                    for sql in &forms {
                        assert_eq!(&answer(sql, strategy), want, "{at}: {sql}");
                    }
                    let projected: Vec<String> =
                        answer(&format!("SELECT tag, {eq} FROM c"), strategy)
                            .iter()
                            .filter_map(|r| r.strip_suffix(", TRUE)").map(|tag| format!("{tag})")))
                            .collect();
                    assert_eq!(&projected, want, "{at}: projected");
                    let count = answer(&format!("SELECT COUNT(*) FROM c WHERE {eq}"), strategy);
                    assert_eq!(count, [format!("({})", want.len())], "{at}: COUNT(*)");
                }
            }
        }
    }
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

/// One execution of a prepared plan, through its lowered form with
/// `params` bound.
fn run_prepared(
    engine: &Engine,
    prepared: &Prepared,
    params: &[Value],
) -> Result<(Vec<Row>, ExecProfile)> {
    execute_plan(
        &prepared.qgm,
        prepared.plan(),
        params,
        engine.catalog(),
        &IndexCache::default(),
        ExecOptions::default(),
    )
}

/// `sql` through the plan cache against `sql` prepared with its
/// literals: the engine's own entry points, then rows in order,
/// profile, path markers and errors through the lowered plans.
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
    let c = run_prepared(engine, &entry.prepared, &extracted);
    let l = run_prepared(engine, &literal, &[]);
    match (c, l) {
        (Ok(c), Ok(l)) => {
            assert_eq!(c.0, l.0, "{what}: rows or their order differ");
            assert_eq!(c.1, l.1, "{what}: profile differs");
            assert_eq!(c.1.paths, l.1.paths, "{what}: paths differ");
        }
        (Err(c), Err(l)) => assert_eq!(c, l, "{what}: errors differ"),
        (c, l) => panic!("{what}: cached {c:?} vs literal {l:?}"),
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
