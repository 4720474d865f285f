//! The analysis regression gate: with the EMST null-strictness gate
//! disabled (`PipelineOptions::unsound_decorrelation`, re-introducing
//! the decorrelation bug class the fuzzer originally caught), the
//! static analysis must flag the bad magic join on the corpus repro —
//! an L200 ERROR in `Optimized::analysis` — while the sound pipeline
//! on the same query stays clean. This proves the analyzer would have
//! caught the bug before any query ran.

use starmagic::rewrite::engine::CheckLevel;
use starmagic::{Engine, PipelineOptions};
use starmagic_catalog::generator::{benchmark_catalog, Scale};
use starmagic_lint::{Code, Severity};

/// The corpus repro that motivated the null-strictness gate: the
/// correlation `t4.workdept = t1.workdept` sits under an OR, so the
/// magic join test `mb = t1.workdept` is Unknown for NULL-workdept
/// employees while the original EXISTS can still be true via the
/// other disjunct.
const CORPUS: &str = "tests/corpus/emst_null_strict_or.sql";

fn engine() -> Engine {
    let mut engine = Engine::new(benchmark_catalog(Scale::small()).unwrap());
    // The one view the repro references (same definition as the
    // benchmark suite's).
    engine
        .run_sql(
            "CREATE VIEW mgrSal (empno, empname, workdept, salary) AS \
             SELECT e.empno, e.empname, e.workdept, e.salary \
             FROM employee e, department d WHERE e.empno = d.mgrno",
        )
        .unwrap();
    engine
}

fn corpus_sql() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../", "tests/corpus/");
    let path = format!("{path}{}", CORPUS.rsplit('/').next().unwrap());
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

fn options(unsound: bool) -> PipelineOptions {
    PipelineOptions {
        force_magic: true,
        // PerFire would abort the rewrite at the first bad fire; the
        // gate wants the finished graph so the *analysis* is what
        // catches the bug.
        check: CheckLevel::Off,
        trace: false,
        unsound_decorrelation: unsound,
        ..PipelineOptions::default()
    }
}

#[test]
fn unsound_decorrelation_is_flagged_statically() {
    let engine = engine();
    let optimized = engine
        .optimize_with_options(&corpus_sql(), options(true))
        .expect("the unsound pipeline still optimizes");
    let l200: Vec<_> = optimized
        .analysis
        .report
        .diagnostics
        .iter()
        .filter(|d| d.code == Code::L200NullStrictnessViolation)
        .collect();
    assert!(
        !l200.is_empty(),
        "the analysis must flag the non-null-strict magic predicate;\n\
         report was:\n{}",
        optimized.analysis.report
    );
    for d in &l200 {
        assert_eq!(d.code.severity(), Severity::Error);
    }
    assert!(optimized.analysis.report.has_errors());
}

#[test]
fn sound_decorrelation_stays_clean() {
    let engine = engine();
    let optimized = engine
        .optimize_with_options(&corpus_sql(), options(false))
        .expect("the sound pipeline optimizes");
    let l200 = optimized
        .analysis
        .report
        .diagnostics
        .iter()
        .filter(|d| d.code == Code::L200NullStrictnessViolation)
        .count();
    assert_eq!(
        l200, 0,
        "the gated pipeline must not decorrelate the OR query into a \
         magic join at all;\nreport was:\n{}",
        optimized.analysis.report
    );
}

/// A release prepare runs the same checks and does not drop their
/// verdict: every error-severity finding on the fresh plan, the
/// `phase 2:` copies included, counts into `engine.plan_check_errors`.
#[test]
fn unsound_prepare_counts_its_check_errors() {
    let mut engine = engine();
    engine.set_metrics(starmagic::MetricsRegistry::enabled());
    let optimized = engine
        .optimize_with_options(&corpus_sql(), options(true))
        .unwrap();
    let expected = optimized.lint.errors().count() + optimized.analysis.report.errors().count();
    assert!(
        optimized
            .analysis
            .report
            .errors()
            .any(|d| d.message.starts_with("phase 2: ")),
        "the repro's evidence should survive in the phase-2 scan:\n{}",
        optimized.analysis.report
    );
    let counted = || {
        engine
            .metrics_registry()
            .snapshot()
            .counter("engine.plan_check_errors")
    };
    assert_eq!(counted(), 0, "optimize_with_options is not a prepare");
    engine
        .prepare_with_options(&corpus_sql(), options(true))
        .unwrap();
    assert!(expected > 0);
    assert_eq!(counted(), expected as u64);
    engine
        .prepare_with_options(&corpus_sql(), options(false))
        .unwrap();
    assert_eq!(counted(), expected as u64, "the sound plan adds nothing");
}

/// The flag must stay off by default — it exists only for this gate.
#[test]
fn unsound_flag_defaults_off() {
    assert!(!PipelineOptions::default().unsound_decorrelation);
}
