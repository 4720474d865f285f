//! Determinism suite: the columnar batch path's contract is that
//! results are **byte-identical** to the row executor — same rows in the
//! same order, same metrics, same per-box profile counters.
//!
//! Every Table-1 experiment runs in all three formulations (Original,
//! Correlated, EMST) on both paths. Timing is off, so the whole
//! [`ExecProfile`] can be compared with `==`: elapsed stays zero and
//! every other field is a deterministic counter.
//!
//! The database is deliberately larger than `Scale::small()`:
//! 40 departments × 20 employees gives the employee scans and activity
//! joins stages that span many batches.

use starmagic::exec::{execute_with_options, ExecOptions, ExecProfile, IndexCache};
use starmagic::MetricsRegistry as Registry;
use starmagic::{Engine, Strategy};
use starmagic_bench::{bench_engine, experiments};
use starmagic_catalog::generator::Scale;
use starmagic_common::Row;

/// 800 employees / 2400 activity rows: many batches in the hot loops,
/// small enough to run every combination.
fn det_scale() -> Scale {
    Scale {
        departments: 40,
        emps_per_dept: 20,
        projects_per_dept: 5,
        acts_per_emp: 3,
        seed: 11,
    }
}

/// The three formulations of one experiment, labelled.
fn formulations(exp: &starmagic_bench::Experiment) -> [(&'static str, &'static str, Strategy); 3] {
    [
        ("original", exp.original_sql, Strategy::Original),
        ("correlated", exp.correlated_sql, Strategy::Original),
        ("emst", exp.original_sql, Strategy::Magic),
    ]
}

/// Run one prepared plan with the columnar knob and metrics registry
/// explicit, timing off.
fn run(
    engine: &Engine,
    qgm: &starmagic::qgm::Qgm,
    indexes: &IndexCache,
    columnar: bool,
    metrics: Registry,
) -> (Vec<Row>, ExecProfile) {
    execute_with_options(
        qgm,
        engine.catalog(),
        indexes,
        ExecOptions {
            columnar,
            metrics,
            ..ExecOptions::default()
        },
    )
    .expect("execution")
}

/// For every experiment × formulation, the columnar batch path
/// reproduces the row executor byte-for-byte — same rows in the same
/// order, same per-box profile, same aggregates. The test also proves
/// the columnar path actually engages (via the `exec.batch.batches`
/// counter) so a regression that silently falls back everywhere cannot
/// pass.
#[test]
fn columnar_matches_row_executor_byte_for_byte() {
    let engine = bench_engine(det_scale()).unwrap();
    let indexes = IndexCache::default();
    let registry = Registry::enabled();
    for exp in experiments() {
        for (label, sql, strat) in formulations(&exp) {
            let prepared = engine.prepare(sql, strat).unwrap();
            let (base_rows, base_profile) =
                run(&engine, &prepared.qgm, &indexes, false, Registry::noop());
            let (rows, profile) = run(&engine, &prepared.qgm, &indexes, true, registry.clone());
            assert_eq!(
                base_rows, rows,
                "experiment {} ({label}): columnar rows diverge from row executor",
                exp.id
            );
            assert_eq!(
                base_profile, profile,
                "experiment {} ({label}): columnar profile diverges from row executor",
                exp.id
            );
            assert_eq!(
                base_profile.aggregate(),
                profile.aggregate(),
                "experiment {} ({label}): columnar aggregates diverge",
                exp.id
            );
        }
    }
    let batches = registry
        .snapshot()
        .counters
        .get("exec.batch.batches")
        .copied()
        .unwrap_or(0);
    assert!(
        batches > 0,
        "columnar path never engaged across the whole suite"
    );
}
