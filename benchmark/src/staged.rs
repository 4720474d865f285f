//! A stage-by-stage replica of `starmagic::pipeline::optimize`, built
//! from the layers' public functions so each stage can be timed from
//! outside. [`fidelity`] compares the replica with `Engine::prepare`'s
//! own result on the same query; a mismatch fails the run, so the
//! replica cannot drift from the engine unnoticed.

use std::time::{Duration, Instant};

use starmagic::magic::EmstRule;
use starmagic::qgm::{build_qgm, printer, strata, Qgm};
use starmagic::rewrite::rules::{
    DistinctPullup, LocalPredicatePushdown, Merge, RedundantSelfJoin, RewriteRule,
    SimplifyPredicates,
};
use starmagic::rewrite::{CheckLevel, RewriteEngine, RewriteStats};
use starmagic::{analysis, lint, planner, sql, Engine, Strategy};

use crate::spans::{SpanId, Tracer};
use crate::Res;

/// The stages of one cold prepare, in pipeline order. The names are the
/// span names; the prefix is the crate the stage calls into.
pub const STAGES: [&str; 10] = [
    "sql.parse",
    "qgm.build",
    "rewrite.phase1",
    "planner.plan1",
    "core.emst_phase2",
    "rewrite.phase3",
    "planner.plan2",
    "lint.check",
    "analysis.check",
    "engine.prepare.staged",
];
pub const STAGED_TOTAL: usize = 9;

/// What one staged prepare produced.
pub struct Staged {
    pub chosen: Qgm,
    pub chose_magic: bool,
    pub cost_without_magic: f64,
    pub cost_with_magic: f64,
    /// Rewrite telemetry of phases 1, 2 and 3.
    pub stats: [RewriteStats; 3],
    /// Box counts: as built, after phase 1, after phase 2, after phase 3.
    pub boxes: [usize; 4],
    /// Time per stage, indexed like [`STAGES`]; a stage the strategy
    /// skips stays zero.
    pub stage: [Duration; STAGES.len()],
}

struct StageClock<'t> {
    tracer: &'t mut Tracer,
    req: u64,
    parent: SpanId,
    stage: [Duration; STAGES.len()],
}

impl StageClock<'_> {
    fn time<T>(&mut self, idx: usize, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        let elapsed = start.elapsed();
        self.stage[idx] = elapsed;
        self.tracer
            .add(STAGES[idx], start, elapsed, self.req, self.parent);
        out
    }
}

/// Run the pipeline stage by stage for `strategy`, the way
/// `Engine::prepare` runs it in a release build (`CheckLevel::Off`, no
/// projection pruning, supplementary magic on, phase-3 cleanup on).
pub fn staged_prepare(
    engine: &Engine,
    sql_text: &str,
    strategy: Strategy,
    tracer: &mut Tracer,
    req: u64,
) -> Res<Staged> {
    let err = |e: starmagic::common::Error| format!("staged prepare of {sql_text:?}: {e}");
    let catalog = engine.catalog();
    let registry = engine.registry();
    let rewriter = RewriteEngine::with_check(CheckLevel::Off);
    let traditional: [&dyn RewriteRule; 5] = [
        &SimplifyPredicates,
        &Merge,
        &LocalPredicatePushdown,
        &DistinctPullup,
        &RedundantSelfJoin,
    ];

    let whole_start = Instant::now();
    let parent = tracer.begin(STAGES[STAGED_TOTAL], req, SpanId::NONE);
    let mut clock = StageClock {
        tracer,
        req,
        parent,
        stage: [Duration::ZERO; STAGES.len()],
    };

    let query = clock.time(0, || sql::parse_query(sql_text)).map_err(err)?;
    let mut g = clock.time(1, || build_qgm(catalog, &query)).map_err(err)?;
    let mut boxes = [g.box_count(); 4];

    let stats1 = clock
        .time(2, || -> starmagic::common::Result<RewriteStats> {
            let stats = rewriter.run(&mut g, catalog, registry, &traditional)?;
            g.garbage_collect(false);
            g.validate()?;
            strata::assign(&mut g);
            Ok(stats)
        })
        .map_err(err)?;
    let cost_without_magic = clock.time(3, || {
        planner::annotate_join_orders(&mut g, catalog);
        planner::estimate_graph_cost(&g, catalog)
    });
    boxes[1] = g.box_count();
    boxes[2] = boxes[1];
    boxes[3] = boxes[1];

    let mut stats = [stats1, RewriteStats::default(), RewriteStats::default()];
    let mut cost_with_magic = f64::INFINITY;
    let mut chose_magic = false;
    let mut phase2 = None;
    let mut chosen = g;
    if strategy != Strategy::Original {
        let phase1 = chosen.clone();
        let mut g = chosen;
        let emst = EmstRule::new();
        stats[1] = clock
            .time(4, || -> starmagic::common::Result<RewriteStats> {
                let stats = rewriter.run(
                    &mut g,
                    catalog,
                    registry,
                    &[&SimplifyPredicates, &emst, &DistinctPullup],
                )?;
                g.garbage_collect(true);
                g.validate()?;
                strata::assign(&mut g);
                Ok(stats)
            })
            .map_err(err)?;
        boxes[2] = g.box_count();
        phase2 = Some(g.clone());
        stats[2] = clock
            .time(5, || -> starmagic::common::Result<RewriteStats> {
                for b in g.box_ids() {
                    g.boxed_mut(b).magic_links.clear();
                }
                let stats = rewriter.run(&mut g, catalog, registry, &traditional)?;
                g.garbage_collect(false);
                g.validate()?;
                strata::assign(&mut g);
                Ok(stats)
            })
            .map_err(err)?;
        cost_with_magic = clock.time(6, || {
            planner::annotate_join_orders(&mut g, catalog);
            planner::estimate_graph_cost(&g, catalog)
        });
        boxes[3] = g.box_count();
        chose_magic = strategy == Strategy::Magic || cost_with_magic <= cost_without_magic;
        chosen = if chose_magic { g } else { phase1 };
    }

    let report = clock.time(7, || lint::lint(&chosen, catalog));
    if report.has_errors() {
        return Err(format!(
            "chosen plan of {sql_text:?} has lint errors: {report}"
        ));
    }
    let facts = clock.time(8, || {
        let facts = analysis::analyze(&chosen, catalog);
        // The engine also scans the pre-cleanup graph for error findings.
        let phase2_errors = phase2
            .as_ref()
            .is_some_and(|g| analysis::checks(g, catalog).has_errors());
        (facts, phase2_errors)
    });
    if facts.0.report.has_errors() || facts.1 {
        return Err(format!("analysis found errors in the plan of {sql_text:?}"));
    }

    let mut stage = clock.stage;
    let tracer = clock.tracer;
    tracer.end(parent);
    stage[STAGED_TOTAL] = whole_start.elapsed();
    Ok(Staged {
        chosen,
        chose_magic,
        cost_without_magic,
        cost_with_magic,
        stats,
        boxes,
        stage,
    })
}

/// Compare a staged prepare with the engine's own pipeline on the same
/// query: same chosen graph (as the `qgm` printer renders it), same
/// verdict, same two costs. `Err` describes the first difference.
pub fn fidelity(engine: &Engine, sql_text: &str, strategy: Strategy, staged: &Staged) -> Res<()> {
    let theirs = engine
        .optimize_sql(sql_text, strategy)
        .map_err(|e| format!("optimize {sql_text:?}: {e}"))?;
    let same_cost = |a: f64, b: f64| a == b || (a.is_nan() && b.is_nan());
    if theirs.chose_magic != staged.chose_magic {
        return Err(format!(
            "fidelity: engine chose_magic={} but the staged replica {} for {sql_text:?}",
            theirs.chose_magic, staged.chose_magic
        ));
    }
    if !same_cost(theirs.cost_without_magic, staged.cost_without_magic)
        || !same_cost(theirs.cost_with_magic, staged.cost_with_magic)
    {
        return Err(format!(
            "fidelity: costs differ for {sql_text:?}: engine ({}, {}) staged ({}, {})",
            theirs.cost_without_magic,
            theirs.cost_with_magic,
            staged.cost_without_magic,
            staged.cost_with_magic
        ));
    }
    if printer::print_graph(theirs.chosen()) != printer::print_graph(&staged.chosen) {
        return Err(format!("fidelity: chosen graphs differ for {sql_text:?}"));
    }
    Ok(())
}
