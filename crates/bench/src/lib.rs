//! Benchmark harness regenerating the paper's evaluation.
//!
//! Table 1 of the paper compares, for eight experiments A–H, the
//! elapsed time of three formulations of the same logical query on
//! DB2 (normalized to Original = 100):
//!
//! * **Original** — the view formulation, evaluated without magic
//!   (views fully materialized);
//! * **Correlated** — the query rewritten with correlated subqueries
//!   ("a leading optimization technique for complex SQL queries"),
//!   evaluated tuple-at-a-time;
//! * **EMST** — the view formulation after the extended magic-sets
//!   transformation.
//!
//! The concrete workloads of \[MFPR90a\] are not published, so each
//! experiment here is a synthetic query engineered to land in the
//! regime the paper reports (see the per-experiment notes and
//! EXPERIMENTS.md): correlation is excellent on the very selective
//! experiments (A, F), catastrophic when the outer is large (C, D),
//! and EMST is stable everywhere.
//!
//! The crate holds the experiments and the engines they run on. The
//! `table1` and `figures` binaries print the paper's tables,
//! [`tracejson`] writes their per-box profile (estimated next to
//! actual cardinality), and [`recursion`] defines the graph shapes of
//! the bound-closure workload. Performance is measured in one place,
//! the repository benchmark under `benchmark/` (see its README), which
//! imports these definitions.

#![forbid(unsafe_code)]

pub mod recursion;
pub mod tracejson;

use std::time::{Duration, Instant};

use starmagic::{Engine, Strategy};
use starmagic_catalog::generator::{benchmark_catalog, Scale};
use starmagic_common::{Result, Row};

/// One Table 1 experiment.
#[derive(Debug, Clone)]
pub struct Experiment {
    pub id: char,
    pub title: &'static str,
    /// The view formulation (run as Original and as EMST).
    pub original_sql: &'static str,
    /// The correlated-subquery formulation (run without magic).
    pub correlated_sql: &'static str,
    /// The regime the paper reports for this experiment.
    pub paper: PaperRow,
    /// Why the workload reproduces that regime.
    pub note: &'static str,
}

/// The paper's Table 1 numbers (elapsed time, Original = 100).
#[derive(Debug, Clone, Copy)]
pub struct PaperRow {
    pub original: f64,
    pub correlated: f64,
    pub emst: f64,
}

/// One measured execution.
#[derive(Debug, Clone, Copy)]
pub struct Measurement {
    pub elapsed: Duration,
    /// Deterministic row-work metric from the executor.
    pub work: u64,
    pub rows: usize,
    /// Box evaluations the execution started: a correlated box counts
    /// once per outer binding, a cached one once.
    pub evals: u64,
}

impl Measurement {
    /// Elapsed time per box evaluation, in microseconds: what one
    /// re-evaluation of a correlated block costs, set-up included.
    pub fn us_per_eval(&self) -> f64 {
        self.elapsed.as_secs_f64() * 1e6 / self.evals.max(1) as f64
    }
}

/// A full Table 1 row: the three measurements.
#[derive(Debug, Clone)]
pub struct ExperimentResult {
    pub id: char,
    pub original: Measurement,
    pub correlated: Measurement,
    pub emst: Measurement,
}

impl ExperimentResult {
    /// Normalized elapsed times (Original = 100), like the paper.
    pub fn normalized_time(&self) -> (f64, f64, f64) {
        let base = self.original.elapsed.as_secs_f64().max(1e-12);
        (
            100.0,
            100.0 * self.correlated.elapsed.as_secs_f64() / base,
            100.0 * self.emst.elapsed.as_secs_f64() / base,
        )
    }

    /// Normalized work (Original = 100) — deterministic across runs.
    pub fn normalized_work(&self) -> (f64, f64, f64) {
        let base = self.original.work.max(1) as f64;
        (
            100.0,
            100.0 * self.correlated.work as f64 / base,
            100.0 * self.emst.work as f64 / base,
        )
    }
}

/// Build the benchmark engine: the generated database plus the views
/// every experiment shares.
pub fn bench_engine(scale: Scale) -> Result<Engine> {
    let catalog = benchmark_catalog(scale)?;
    let mut engine = Engine::new(catalog);
    for view in [
        // The paper's running example (Example 1.1).
        "CREATE VIEW mgrSal (empno, empname, workdept, salary) AS \
         SELECT e.empno, e.empname, e.workdept, e.salary \
         FROM employee e, department d WHERE e.empno = d.mgrno",
        "CREATE VIEW avgMgrSal (workdept, avgsalary) AS \
         SELECT workdept, AVG(salary) FROM mgrSal GROUP BY workdept",
        // Average salary and headcount per department (aggregate view
        // over the full employee table).
        "CREATE VIEW deptAvgSal (workdept, avgsal, headcount) AS \
         SELECT workdept, AVG(salary), COUNT(*) FROM employee GROUP BY workdept",
        // Activity hours rolled up to departments (aggregate over a
        // two-way join — the expensive decision-support view).
        "CREATE VIEW deptActHours (deptno, total) AS \
         SELECT e.workdept, SUM(a.hours) FROM employee e, emp_act a \
         WHERE a.empno = e.empno GROUP BY e.workdept",
        // Projects per department.
        "CREATE VIEW projCount (deptno, cnt) AS \
         SELECT deptno, COUNT(*) FROM project GROUP BY deptno",
        // Top salary per department.
        "CREATE VIEW topPay (workdept, maxsal) AS \
         SELECT workdept, MAX(salary) FROM employee GROUP BY workdept",
        // Two-level view: per-department summary combining two
        // aggregate views.
        "CREATE VIEW deptSummary (deptno, avgsal, maxsal) AS \
         SELECT a.workdept, a.avgsal, t.maxsal FROM deptAvgSal a, topPay t \
         WHERE t.workdept = a.workdept",
    ] {
        engine.run_sql(view)?;
    }
    Ok(engine)
}

/// The scale the differential fuzzer runs at: 640 employee rows plus
/// the NULL-rich tail, enough for a column to span several batches.
/// Lives here (not in `starmagic-fuzz`) so `starmagic-server --scale
/// fuzz` can host the identical database for `starmagic-fuzz
/// --server`.
pub fn fuzz_scale() -> Scale {
    Scale {
        departments: 8,
        emps_per_dept: 80,
        projects_per_dept: 2,
        acts_per_emp: 2,
        seed: 7,
    }
}

/// The engine every fuzz case runs against: the benchmark catalog and
/// views (shared with the Table-1 experiments via [`bench_engine`]),
/// plus a NULL-rich employee tail — rows with NULL
/// `workdept`/`salary`/`bonus`/`yearhired` — so joins, grouping, and
/// set operations constantly see NULL keys, and a small directed
/// `edge` graph for `WITH RECURSIVE` cases.
pub fn fuzz_engine() -> Result<Engine> {
    let mut engine = bench_engine(fuzz_scale())?;
    engine.run_sql(
        "INSERT INTO employee VALUES \
         (9001, 'Null_Dept_A', NULL, 52000.0, NULL, 1990), \
         (9002, 'Null_Dept_B', NULL, 52000.0, NULL, 1990), \
         (9003, 'Null_Sal', 3, NULL, NULL, NULL), \
         (9004, 'Null_Sal', 3, NULL, NULL, NULL), \
         (9005, 'Null_All', NULL, NULL, NULL, NULL), \
         (9006, 'Null_All', NULL, NULL, NULL, NULL)",
    )?;
    // A small directed graph for the recursive-grammar cases: a chain
    // with branches (0..6), a fan-in diamond (1→2→4, 1→3→4), a 3-cycle
    // (8→9→10→8) so dedup — not acyclicity — is what terminates the
    // fixpoint, and an isolated edge. Bounded: any closure over it is
    // at most 12 × 12 pairs.
    engine.run_sql("CREATE TABLE edge (src INTEGER, dst INTEGER, PRIMARY KEY (src, dst))")?;
    engine.run_sql(
        "INSERT INTO edge VALUES \
         (0, 1), (1, 2), (1, 3), (2, 4), (3, 4), (4, 5), (5, 6), \
         (8, 9), (9, 10), (10, 8), (8, 4), (11, 11)",
    )?;
    Ok(engine)
}

/// The eight experiments.
pub fn experiments() -> Vec<Experiment> {
    vec![
        Experiment {
            id: 'A',
            title: "point lookup on an aggregate view",
            original_sql: "SELECT d.deptname, v.avgsal \
                           FROM department d, deptAvgSal v \
                           WHERE v.workdept = d.deptno AND d.deptno = 7",
            correlated_sql: "SELECT d.deptname, \
                             (SELECT AVG(e.salary) FROM employee e \
                              WHERE e.workdept = d.deptno) \
                             FROM department d WHERE d.deptno = 7",
            paper: PaperRow {
                original: 100.0,
                correlated: 0.40,
                emst: 0.47,
            },
            note: "one binding: both correlation and magic touch one \
                   department's employees; the original aggregates all of them",
        },
        Experiment {
            id: 'B',
            title: "employees above their department average",
            original_sql: "SELECT e.empno \
                           FROM employee e, department d, deptAvgSal v \
                           WHERE e.workdept = d.deptno AND v.workdept = e.workdept \
                           AND e.salary > v.avgsal AND d.deptname = 'Planning'",
            correlated_sql: "SELECT e.empno \
                             FROM employee e, department d \
                             WHERE e.workdept = d.deptno AND d.deptname = 'Planning' \
                             AND e.salary > (SELECT AVG(f.salary) FROM employee f \
                                             WHERE f.workdept = e.workdept)",
            paper: PaperRow {
                original: 100.0,
                correlated: 2.12,
                emst: 0.28,
            },
            note: "one department's employees: correlation re-aggregates the \
                   department once per employee; magic aggregates it once",
        },
        Experiment {
            id: 'C',
            title: "division rollup per employee over the activity view",
            original_sql: "SELECT e.empno, v.total \
                           FROM employee e, department d, deptActHours v \
                           WHERE e.workdept = d.deptno AND v.deptno = e.workdept \
                           AND d.division = 'Research'",
            correlated_sql: "SELECT e.empno, \
                             (SELECT SUM(a.hours) FROM employee f, emp_act a \
                              WHERE f.workdept = e.workdept AND a.empno = f.empno) \
                             FROM employee e, department d \
                             WHERE e.workdept = d.deptno AND d.division = 'Research'",
            paper: PaperRow {
                original: 100.0,
                correlated: 513.27,
                emst: 50.24,
            },
            note: "thousands of outer employees: correlation re-joins the \
                   department's activity per employee and loses to the \
                   materialized view; magic restricts the view to one division",
        },
        Experiment {
            id: 'D',
            title: "activity rollup for every employee",
            original_sql: "SELECT e.empno, v.total \
                           FROM employee e, deptActHours v \
                           WHERE v.deptno = e.workdept",
            correlated_sql: "SELECT e.empno, \
                             (SELECT SUM(a.hours) FROM employee f, emp_act a \
                              WHERE f.workdept = e.workdept AND a.empno = f.empno) \
                             FROM employee e",
            paper: PaperRow {
                original: 100.0,
                correlated: 5136.49,
                emst: 109.00,
            },
            note: "unselective outer: every department is needed, so magic \
                   cannot reduce the view (EMST ≈ original) while correlation \
                   re-evaluates the rollup tens of thousands of times",
        },
        Experiment {
            id: 'E',
            title: "division report over the activity view",
            original_sql: "SELECT p.projname, v.total \
                           FROM project p, department d, deptActHours v \
                           WHERE p.deptno = d.deptno AND v.deptno = p.deptno \
                           AND d.division = 'Sales'",
            correlated_sql: "SELECT p.projname, \
                             (SELECT SUM(a.hours) FROM employee f, emp_act a \
                              WHERE f.workdept = p.deptno AND a.empno = f.empno) \
                             FROM project p, department d \
                             WHERE p.deptno = d.deptno AND d.division = 'Sales'",
            paper: PaperRow {
                original: 100.0,
                correlated: 52.56,
                emst: 7.62,
            },
            note: "a division's projects: correlation re-rolls the owning \
                   department's activity once per project; magic restricts \
                   the view once and joins set-oriented",
        },
        Experiment {
            id: 'F',
            title: "very selective existence test",
            original_sql: "SELECT d.deptname \
                           FROM department d, projCount v \
                           WHERE d.deptno = 3 AND v.deptno = d.deptno AND v.cnt > 2",
            correlated_sql: "SELECT d.deptname FROM department d \
                             WHERE d.deptno = 3 AND \
                             2 < (SELECT COUNT(*) FROM project p \
                                  WHERE p.deptno = d.deptno)",
            paper: PaperRow {
                original: 100.0,
                correlated: 0.54,
                emst: 0.84,
            },
            note: "a single binding over a cheap view: magic pays its extra \
                   joins and loses narrowly to correlation — the case the \
                   cost-based heuristic exists for",
        },
        Experiment {
            id: 'G',
            title: "the running example: average manager salary in Planning",
            original_sql: "SELECT d.deptname, s.workdept, s.avgsalary \
                           FROM department d, avgMgrSal s \
                           WHERE d.deptno = s.workdept AND d.deptname = 'Planning'",
            correlated_sql: "SELECT d.deptname, d.deptno, \
                             (SELECT AVG(e.salary) FROM employee e, department d2 \
                              WHERE e.empno = d2.mgrno AND e.workdept = d.deptno) \
                             FROM department d WHERE d.deptname = 'Planning'",
            paper: PaperRow {
                original: 100.0,
                correlated: 2.41,
                emst: 0.49,
            },
            note: "query D of Example 1.1: magic computes mgrSal for one \
                   department only",
        },
        Experiment {
            id: 'H',
            title: "two-level summary view for one division",
            original_sql: "SELECT p.projname, v.avgsal, v.maxsal \
                           FROM project p, department d, deptSummary v \
                           WHERE p.deptno = d.deptno AND v.deptno = p.deptno \
                           AND d.division = 'Legal'",
            correlated_sql: "SELECT p.projname, \
                             (SELECT AVG(e.salary) FROM employee e \
                              WHERE e.workdept = p.deptno), \
                             (SELECT MAX(f.salary) FROM employee f \
                              WHERE f.workdept = p.deptno) \
                             FROM project p, department d \
                             WHERE p.deptno = d.deptno AND d.division = 'Legal'",
            paper: PaperRow {
                original: 100.0,
                correlated: 19.91,
                emst: 4.46,
            },
            note: "stacked aggregate views: magic pushes one binding set \
                   through both levels",
        },
    ]
}

/// Run one SQL text under a strategy and measure its *execution*
/// (optimization — and lowering the chosen graph to its executable
/// form — happens outside the timer, as in the paper's elapsed-time
/// measurements).
pub fn measure(engine: &Engine, sql: &str, strategy: Strategy) -> Result<Measurement> {
    let prepared = engine.prepare(sql, strategy)?;
    prepared.plan();
    let start = Instant::now();
    let result = engine.execute_prepared(&prepared)?;
    let elapsed = start.elapsed();
    Ok(Measurement {
        elapsed,
        work: result.metrics.work(),
        rows: result.rows.len(),
        evals: result.metrics.box_evals,
    })
}

/// Run a whole experiment: Original and EMST on the view formulation,
/// Original on the correlated formulation. A warm-up execution of each
/// plan builds any indexes first (DB2's indexes pre-exist).
pub fn run_experiment(engine: &Engine, exp: &Experiment) -> Result<ExperimentResult> {
    for (sql, strat) in [
        (exp.original_sql, Strategy::Original),
        (exp.correlated_sql, Strategy::Original),
        (exp.original_sql, Strategy::Magic),
    ] {
        let prepared = engine.prepare(sql, strat)?;
        engine.execute_prepared(&prepared)?;
    }
    let original = measure(engine, exp.original_sql, Strategy::Original)?;
    let correlated = measure(engine, exp.correlated_sql, Strategy::Original)?;
    let emst = measure(engine, exp.original_sql, Strategy::Magic)?;
    Ok(ExperimentResult {
        id: exp.id,
        original,
        correlated,
        emst,
    })
}

/// Sorted rows of a query — used to verify the three formulations
/// agree before trusting any timing.
pub fn sorted_rows(engine: &Engine, sql: &str, strategy: Strategy) -> Result<Vec<Row>> {
    let mut rows = engine.query_with(sql, strategy)?.rows;
    rows.sort_by(starmagic_common::Row::group_cmp);
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_engine() -> Engine {
        bench_engine(Scale::small()).unwrap()
    }

    #[test]
    fn all_experiments_parse_and_run_at_small_scale() {
        let engine = small_engine();
        for exp in experiments() {
            let r = run_experiment(&engine, &exp)
                .unwrap_or_else(|e| panic!("experiment {} failed: {e}", exp.id));
            assert!(
                r.original.rows > 0,
                "experiment {} returned no rows",
                exp.id
            );
        }
    }

    #[test]
    fn three_formulations_agree_on_every_experiment() {
        let engine = small_engine();
        for exp in experiments() {
            let orig = sorted_rows(&engine, exp.original_sql, Strategy::Original).unwrap();
            let emst = sorted_rows(&engine, exp.original_sql, Strategy::Magic).unwrap();
            assert_eq!(orig, emst, "EMST changed results of experiment {}", exp.id);
            let corr = sorted_rows(&engine, exp.correlated_sql, Strategy::Original).unwrap();
            assert_eq!(
                orig.len(),
                corr.len(),
                "correlated formulation of {} disagrees on cardinality",
                exp.id
            );
        }
    }

    #[test]
    fn magic_reduces_work_where_the_paper_says_it_should() {
        let engine = small_engine();
        for exp in experiments() {
            let r = run_experiment(&engine, &exp).unwrap();
            if exp.paper.emst < 50.0 {
                assert!(
                    r.emst.work < r.original.work,
                    "experiment {}: emst work {} !< original {}",
                    exp.id,
                    r.emst.work,
                    r.original.work
                );
            }
        }
    }

    /// The whole Table 1 suite optimizes under per-fire lint checking:
    /// every rule application leaves the graph semantically valid, and
    /// the chosen plans carry zero error diagnostics.
    #[test]
    fn experiment_suite_lints_clean_under_per_fire() {
        use starmagic::rewrite::CheckLevel;
        use starmagic::{optimize, PipelineOptions};
        let engine = small_engine();
        let per_fire = PipelineOptions {
            check: CheckLevel::PerFire,
            ..PipelineOptions::default()
        };
        for exp in experiments() {
            for (sql, opts) in [
                (exp.original_sql, per_fire),
                (
                    exp.original_sql,
                    PipelineOptions {
                        force_magic: true,
                        ..per_fire
                    },
                ),
                (exp.correlated_sql, per_fire),
            ] {
                let query = starmagic::sql::parse_query(sql).unwrap();
                let o = optimize(engine.catalog(), engine.registry(), &query, opts).unwrap_or_else(
                    |e| panic!("experiment {}: a rule broke an invariant: {e}", exp.id),
                );
                assert!(
                    !o.lint.has_errors(),
                    "experiment {}: chosen plan has lint errors: {:?}",
                    exp.id,
                    o.lint.diagnostics
                );
            }
        }
    }

    #[test]
    fn correlation_is_catastrophic_on_d() {
        let engine = small_engine();
        let exp = experiments().into_iter().find(|e| e.id == 'D').unwrap();
        let r = run_experiment(&engine, &exp).unwrap();
        assert!(
            r.correlated.work > 3 * r.original.work,
            "correlated {} !>> original {}",
            r.correlated.work,
            r.original.work
        );
    }
}
