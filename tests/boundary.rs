//! The box boundary is invisible from outside the executor.
//!
//! Inside, a box hands its consumer a batch, rows, or both, a columnar
//! producer gathers only its live columns, and group-by is one
//! vectorized kernel (DESIGN.md "The box boundary"). Outside, nothing
//! may move: for the 32 Table-1 plans and 8 transitive closures the
//! rows — in order — and the whole [`ExecProfile`] are the same with
//! the columnar knob on and off, at one worker thread and at four.
//!
//! The second test is the number ROADMAP item 5 asks for: how many box
//! evaluations stay on the batch path, and why the rest leave it, over
//! Table 1 and the fuzz corpus. DESIGN.md quotes its output; run it
//! with `--nocapture` to regenerate.
//!
//! Attached to the fuzz crate, which sees the bench experiments, the
//! recursion graphs and the query generator at once.

use std::collections::BTreeMap;

use starmagic::exec::{execute_with_options, ExecOptions, ExecProfile, Fallback, IndexCache};
use starmagic::qgm::Qgm;
use starmagic::sql::query_sql;
use starmagic::{Engine, MetricsRegistry as Registry, Strategy};
use starmagic_bench::recursion::{graphs, recursion_engine, GraphSpec, RECURSION_SQL};
use starmagic_bench::{bench_engine, experiments};
use starmagic_catalog::generator::Scale;
use starmagic_common::Row;
use starmagic_fuzz::{fuzz_engine, gen};

fn run(
    engine: &Engine,
    qgm: &Qgm,
    indexes: &IndexCache,
    threads: usize,
    columnar: bool,
    metrics: Registry,
) -> (Vec<Row>, ExecProfile) {
    let opts = ExecOptions {
        threads,
        columnar,
        metrics,
        ..ExecOptions::default()
    };
    execute_with_options(qgm, engine.catalog(), indexes, opts).expect("execution")
}

/// Every (threads, columnar) setting against the serial columnar run.
fn assert_invisible(engine: &Engine, qgm: &Qgm, what: &str) {
    let indexes = IndexCache::default();
    let base = run(engine, qgm, &indexes, 1, true, Registry::noop());
    for (threads, columnar) in [(1, false), (4, true), (4, false)] {
        let other = run(engine, qgm, &indexes, threads, columnar, Registry::noop());
        let setting = format!("{what}: threads={threads} columnar={columnar}");
        assert_eq!(base.0, other.0, "{setting}: rows or their order differ");
        assert_eq!(base.1, other.1, "{setting}: profile differs");
    }
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
fn table1_and_closures_are_identical_across_paths_and_threads() {
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

/// `exec.batch.boxes` and `exec.batch.fallback.*` over one corpus.
fn tally(engine: &Engine, plans: &[(String, Qgm)]) -> (u64, BTreeMap<&'static str, u64>) {
    let registry = Registry::enabled();
    let indexes = IndexCache::default();
    for (_, qgm) in plans {
        run(engine, qgm, &indexes, 1, true, registry.clone());
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
