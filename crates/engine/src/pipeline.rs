//! The Starburst optimization pipeline (Figures 2 and 3).
//!
//! Query rewrite runs in three phases with tight control over the EMST
//! rule:
//!
//! * **Phase 1**: every rule except EMST (merge, local predicate
//!   pushdown, distinct pullup, redundant-join elimination) — nothing
//!   here needs a join order.
//! * **Plan optimization #1**: the cost-based join orders are
//!   deposited on each select box, and the plan cost recorded.
//! * **Phase 2**: EMST is enabled, consuming the join orders.
//! * **Phase 3**: EMST disabled; the magic links are consumed and the
//!   graph is simplified (merging the magic boxes away, Example 4.1).
//! * **Plan optimization #2**: fresh join orders and the post-EMST
//!   cost.
//!
//! The cheaper of the phase-1 and phase-3 graphs is chosen — the
//! heuristic's guarantee that "usage of the EMST rewrite rule cannot
//! degrade a query plan produced without using the EMST rule" (§3.2).

use std::time::{Duration, Instant};

use starmagic_analysis::Analysis;
use starmagic_catalog::Catalog;
use starmagic_common::Result;
use starmagic_lint::LintReport;
use starmagic_magic::EmstRule;
use starmagic_planner as planner;
use starmagic_qgm::keys::KeyTable;
use starmagic_qgm::{build_qgm, strata, Qgm};
use starmagic_rewrite::engine::{CheckLevel, RewriteEngine};
use starmagic_rewrite::rules::{
    DistinctPullup, LocalPredicatePushdown, Merge, RedundantSelfJoin, RewriteRule,
    SimplifyPredicates,
};
use starmagic_rewrite::{OpRegistry, RewriteStats};
use starmagic_sql::Query;
use starmagic_trace::TraceSink;

/// Everything the pipeline produced, kept for EXPLAIN and the figure
/// reproductions.
#[derive(Debug, Clone)]
pub struct Optimized {
    /// The graph as built from the AST (before any rewrite).
    pub initial: Qgm,
    /// After phase 1, with plan-optimizer join orders.
    pub phase1: Qgm,
    /// After phase 2 (EMST applied).
    pub phase2: Qgm,
    /// After phase 3 (simplified), with fresh join orders.
    pub phase3: Qgm,
    /// Estimated cost of the phase-1 plan (no EMST).
    pub cost_without_magic: f64,
    /// Estimated cost of the phase-3 plan (with EMST).
    pub cost_with_magic: f64,
    /// Rewrite-rule fire counts per phase.
    pub stats: [RewriteStats; 3],
    /// How many times the plan optimizer ran (always 2 — Figure 3).
    pub plan_optimizations: usize,
    /// Whether the chosen plan is the EMST one.
    pub chose_magic: bool,
    /// Lint report over the chosen graph (always computed, whatever
    /// the engine's [`CheckLevel`]); surfaced by EXPLAIN.
    pub lint: LintReport,
    /// Dataflow facts and L2xx checks over the chosen graph, plus any
    /// error-severity findings from the phase-2 graph (phase-3 merges
    /// can dissolve the magic boxes carrying the evidence, so the
    /// pre-cleanup graph is scanned too). Surfaced by EXPLAIN's
    /// `== analysis` section.
    pub analysis: starmagic_analysis::Analysis,
    /// Per-phase spans (build, rewrite phases, plan optimizations,
    /// lint). Empty when [`PipelineOptions::trace`] was off.
    pub trace: TraceSink,
}

impl Optimized {
    /// The graph the executor should run.
    pub fn chosen(&self) -> &Qgm {
        if self.chose_magic {
            &self.phase3
        } else {
            &self.phase1
        }
    }
}

/// Knobs for the pipeline.
#[derive(Debug, Clone, Copy)]
pub struct PipelineOptions {
    /// Run phases 2/3 (EMST). With `false`, `phase2`/`phase3` equal
    /// `phase1` and the original plan is chosen.
    pub enable_magic: bool,
    /// Force the magic plan even when the cost model prefers the
    /// original (used by benchmarks to measure both sides).
    pub force_magic: bool,
    /// Ablation: build supplementary-magic-boxes (§4.2 step 4a).
    pub use_supplementary: bool,
    /// Ablation: run the phase-3 cleanup. With `false`, the chosen
    /// magic plan is the raw phase-2 graph — the paper's point that
    /// EMST needs the other rewrite rules to remove the complexity it
    /// introduces.
    pub cleanup_phase3: bool,
    /// How aggressively the rewrite engine lints while rewriting:
    /// [`CheckLevel::PerFire`] aborts on the first rule application
    /// that leaves the graph semantically invalid, attributed to the
    /// rule. Defaults to PerFire in debug builds, Off in release.
    pub check: CheckLevel,
    /// Collect per-phase spans into [`Optimized::trace`]. When off the
    /// sink is disabled and records nothing (no clock reads).
    pub trace: bool,
    /// Test-only seeded unsoundness: run EMST with its null-strictness
    /// gate disabled, re-introducing the PR 4 decorrelation bug class.
    /// Exists so regression tests can prove the static analysis flags
    /// the bad graph (L200). Never enable outside tests.
    pub unsound_decorrelation: bool,
}

impl Default for PipelineOptions {
    fn default() -> PipelineOptions {
        PipelineOptions {
            enable_magic: true,
            force_magic: false,
            use_supplementary: true,
            cleanup_phase3: true,
            check: CheckLevel::default(),
            trace: true,
            unsound_decorrelation: false,
        }
    }
}

/// What a prepare keeps of a pipeline run: the chosen graph, moved out
/// of the pipeline rather than copied, and the verdicts on it.
#[derive(Debug)]
pub(crate) struct Compiled {
    /// The graph the executor should run.
    pub chosen: Qgm,
    /// Whether `chosen` is the EMST plan.
    pub chose_magic: bool,
    pub cost_without_magic: f64,
    pub cost_with_magic: f64,
    pub stats: [RewriteStats; 3],
    pub plan_optimizations: usize,
    /// As [`Optimized::lint`].
    pub lint: LintReport,
    /// As [`Optimized::analysis`].
    pub analysis: starmagic_analysis::Analysis,
    pub trace: TraceSink,
}

impl Compiled {
    /// Error-severity findings over the chosen plan: the lint's plus the
    /// analysis's, its `phase 2:` copies included.
    pub(crate) fn check_errors(&self) -> usize {
        self.lint.errors().count() + self.analysis.report.errors().count()
    }
}

/// Copies of the graphs that only EXPLAIN and the figure reproductions
/// read. [`optimize`] asks the pipeline for them; a prepare does not,
/// and its run copies one graph: the phase-1 plan the cost comparison
/// may fall back to.
#[derive(Default)]
struct Intermediates {
    initial: Option<Qgm>,
    phase2: Option<Qgm>,
    /// The plan the cost comparison did not choose (`None` when EMST
    /// did not run).
    unchosen: Option<Qgm>,
}

/// Run the full pipeline for a parsed query, keeping every
/// intermediate graph.
pub fn optimize(
    catalog: &Catalog,
    registry: &OpRegistry,
    query: &Query,
    opts: PipelineOptions,
) -> Result<Optimized> {
    let mut kept = Intermediates::default();
    let Compiled {
        chosen,
        chose_magic,
        cost_without_magic,
        cost_with_magic,
        stats,
        plan_optimizations,
        lint,
        analysis,
        trace,
    } = run(catalog, registry, query, opts, Some(&mut kept))?;
    let (phase1, phase3) = match kept.unchosen {
        // EMST did not run: every later phase is the phase-1 graph.
        None => (chosen.clone(), chosen),
        Some(other) if chose_magic => (other, chosen),
        Some(other) => (chosen, other),
    };
    Ok(Optimized {
        initial: kept.initial.expect("the pipeline keeps the built graph"),
        phase2: kept.phase2.unwrap_or_else(|| phase1.clone()),
        phase1,
        phase3,
        cost_without_magic,
        cost_with_magic,
        stats,
        plan_optimizations,
        chose_magic,
        lint,
        analysis,
        trace,
    })
}

/// Run the full pipeline for a parsed query, keeping only the chosen
/// graph: what a prepare and a plan-cache miss need.
pub(crate) fn compile(
    catalog: &Catalog,
    registry: &OpRegistry,
    query: &Query,
    opts: PipelineOptions,
) -> Result<Compiled> {
    run(catalog, registry, query, opts, None)
}

/// The pipeline. `keep`, when given, receives copies of the
/// intermediate graphs.
fn run(
    catalog: &Catalog,
    registry: &OpRegistry,
    query: &Query,
    opts: PipelineOptions,
    mut keep: Option<&mut Intermediates>,
) -> Result<Compiled> {
    let engine = RewriteEngine::with_check(opts.check);
    let mut trace = if opts.trace {
        TraceSink::enabled()
    } else {
        TraceSink::disabled()
    };

    let t = trace.start("build");
    let mut g = build_qgm(catalog, query)?;
    trace.finish(t);
    if let Some(k) = keep.as_deref_mut() {
        k.initial = Some(g.clone());
    }

    // The traditional rule set used by phases 1 and 3.
    let simplify = SimplifyPredicates;
    let merge = Merge;
    let pushdown = LocalPredicatePushdown;
    let pullup = DistinctPullup;
    let redundant = RedundantSelfJoin;
    let traditional: Vec<&dyn RewriteRule> =
        vec![&simplify, &merge, &pushdown, &pullup, &redundant];

    // Phase 1.
    let t = trace.start("rewrite.phase1");
    let stats1 = engine.run(&mut g, catalog, registry, &traditional)?;
    g.garbage_collect(false);
    g.validate()?;
    // Merges may have removed whole layers: renumber the strata so the
    // stored values stay authoritative (L104 hygiene).
    strata::assign(&mut g);
    trace.finish(t);

    // Plan optimization #1.
    let t = trace.start("plan.1");
    planner::annotate_join_orders(&mut g, catalog);
    let cost_without_magic = planner::estimate_graph_cost(&g, catalog);
    trace.finish(t);

    if !opts.enable_magic {
        let (lint, analysis) = check_chosen(
            &g,
            catalog,
            LintReport::default(),
            Duration::ZERO,
            &mut trace,
        );
        return Ok(Compiled {
            chosen: g,
            chose_magic: false,
            cost_without_magic,
            cost_with_magic: f64::INFINITY,
            stats: [stats1, RewriteStats::default(), RewriteStats::default()],
            plan_optimizations: 1,
            lint,
            analysis,
            trace,
        });
    }
    // The cost-based fallback, should the EMST plan cost more.
    let phase1 = g.clone();

    // Phase 2: EMST active (one rule instance per run: it memoizes
    // adorned copies).
    let mut emst = if opts.use_supplementary {
        EmstRule::new()
    } else {
        EmstRule::without_supplementary()
    };
    if opts.unsound_decorrelation {
        emst = emst.unsound_skip_null_strict_gate();
    }
    let t = trace.start("rewrite.phase2");
    let stats2 = engine.run(
        &mut g,
        catalog,
        registry,
        &[&SimplifyPredicates, &emst, &DistinctPullup],
    )?;
    g.garbage_collect(true);
    g.validate()?;
    // EMST rewired quantifiers onto fresh magic/adorned boxes without
    // renumbering; refresh the strata so phase 3's merges (which
    // collapse those unassigned buffer boxes away) never expose a
    // stale cross-stratum edge to the PerFire lint (L010).
    strata::assign(&mut g);
    trace.finish(t);

    // Phase-3 merges can dissolve the magic boxes that carry an L2xx
    // signature (the merge rule substitutes the magic quantifier away),
    // and the cost model may pick the phase-1 plan outright — either
    // way an unsound EMST fire would vanish from the chosen graph.
    // Scan the pre-cleanup phase-2 graph too, here, before phase 3
    // rewrites it in place, and keep its errors. The scan is analysis
    // work: its time goes to the `analysis` span.
    let scan_start = trace.is_enabled().then(Instant::now);
    let mut phase2_errors = starmagic_analysis::error_checks(&g, catalog);
    let scan_time = scan_start.map_or(Duration::ZERO, |s| s.elapsed());
    for d in &mut phase2_errors.diagnostics {
        d.message = format!("phase 2: {}", d.message);
    }
    if let Some(k) = keep.as_deref_mut() {
        k.phase2 = Some(g.clone());
    }

    // Phase 3: links are consumed; simplify.
    let t = trace.start("rewrite.phase3");
    for b in g.box_ids() {
        g.boxed_mut(b).magic_links.clear();
    }
    let stats3 = if !opts.cleanup_phase3 {
        RewriteStats::default()
    } else {
        engine.run(&mut g, catalog, registry, &traditional)?
    };
    g.garbage_collect(false);
    g.validate()?;
    // EMST copied and created boxes without renumbering: refresh the
    // strata now that the graph has its final shape.
    strata::assign(&mut g);
    trace.finish(t);

    // Plan optimization #2.
    let t = trace.start("plan.2");
    planner::annotate_join_orders(&mut g, catalog);
    let cost_with_magic = planner::estimate_graph_cost(&g, catalog);
    trace.finish(t);

    let chose_magic = opts.force_magic || cost_with_magic <= cost_without_magic;
    let (chosen, unchosen) = if chose_magic {
        (g, phase1)
    } else {
        (phase1, g)
    };
    if let Some(k) = keep {
        k.unchosen = Some(unchosen);
    }
    let (lint, analysis) = check_chosen(&chosen, catalog, phase2_errors, scan_time, &mut trace);
    Ok(Compiled {
        chosen,
        chose_magic,
        cost_without_magic,
        cost_with_magic,
        stats: [stats1, stats2, stats3],
        plan_optimizations: 2,
        lint,
        analysis,
        trace,
    })
}

/// The final check of the chosen plan: the lint and the analysis, which
/// share one `Strata` and one `KeyTable` of it. The phase-2 scan's
/// errors (already labelled) are appended to the analysis report and
/// its time to the `analysis` span.
fn check_chosen(
    chosen: &Qgm,
    catalog: &Catalog,
    phase2_errors: LintReport,
    scan_time: Duration,
    trace: &mut TraceSink,
) -> (LintReport, Analysis) {
    let t = trace.start("lint");
    let strata = strata::compute(chosen);
    let keys = KeyTable::for_strata(chosen, catalog, &strata);
    let lint = starmagic_lint::lint_with(chosen, &strata, &keys);
    trace.finish(t);
    let t = trace.start("analysis");
    let mut analysis = starmagic_analysis::analyze_with(chosen, catalog, &keys);
    analysis.report.extend(phase2_errors);
    trace.finish_with(t, scan_time);
    (lint, analysis)
}
