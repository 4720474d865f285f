//! EXPLAIN rendering: the optimization story of one query — per-phase
//! query graphs (the four quadrants of Figure 4), SQL renderings
//! (Figure 5), the path each box was lowered to, costs, and the
//! heuristic's decision. EXPLAIN ANALYZE
//! ([`render_analyze`]) appends what actually happened: the per-box
//! executor profile, the rewrite-rule fire trace, the cardinality
//! misestimation report, and the phase spans.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Duration;

use starmagic_catalog::Catalog;
use starmagic_exec::Plan;
use starmagic_magic::recursive_magic_cases;
use starmagic_planner::feedback;
use starmagic_qgm::{printer, render_sql, Qgm};
use starmagic_rewrite::RewriteStats;

use crate::cache::CacheStats;
use crate::pipeline::Optimized;
use crate::ProfiledQuery;

/// Render the full optimization trace.
pub fn render(o: &Optimized) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "== initial query graph ({} boxes)",
        o.initial.box_count()
    );
    out.push_str(&printer::print_graph(&o.initial));
    let _ = writeln!(
        out,
        "== after phase 1 rewrite ({} boxes), estimated cost {:.0}",
        o.phase1.box_count(),
        o.cost_without_magic
    );
    out.push_str(&printer::print_graph(&o.phase1));
    let _ = writeln!(
        out,
        "== after phase 2 (EMST) ({} boxes)",
        o.phase2.box_count()
    );
    out.push_str(&printer::print_graph(&o.phase2));
    for (b, case) in recursive_magic_cases(&o.phase2) {
        let _ = writeln!(
            out,
            "recursive magic: {} {case}",
            o.phase2.boxed(b).display_name()
        );
    }
    let _ = writeln!(
        out,
        "== after phase 3 cleanup ({} boxes), estimated cost {:.0}",
        o.phase3.box_count(),
        o.cost_with_magic
    );
    out.push_str(&printer::print_graph(&o.phase3));
    if o.lint.diagnostics.is_empty() {
        let _ = writeln!(out, "== lint (chosen plan): clean");
    } else {
        let errors = o.lint.errors().count();
        let warns = o.lint.warnings().count();
        let _ = writeln!(
            out,
            "== lint (chosen plan): {errors} error(s), {warns} warning(s)"
        );
        for d in &o.lint.diagnostics {
            let _ = writeln!(out, "  {d}");
        }
    }
    let _ = writeln!(out, "== analysis (chosen plan)");
    out.push_str(&o.analysis.render(o.chosen()));
    let _ = writeln!(out, "== SQL after optimization");
    out.push_str(&render_sql::render_graph(o.chosen()));
    render_physical(&mut out, o.chosen());
    let _ = writeln!(
        out,
        "== decision: {} plan (cost {:.0} vs {:.0}); rule fires: phase1 {:?}, phase2 {:?}, phase3 {:?}",
        if o.chose_magic { "magic" } else { "original" },
        if o.chose_magic {
            o.cost_with_magic
        } else {
            o.cost_without_magic
        },
        if o.chose_magic {
            o.cost_without_magic
        } else {
            o.cost_with_magic
        },
        o.stats[0].fires,
        o.stats[1].fires,
        o.stats[2].fires,
    );
    out
}

/// The chosen graph as lowered for execution: per box, in box-id
/// order, the path decided at lowering — `batch`, or `row(<reason>)`.
fn render_physical(out: &mut String, qgm: &Qgm) {
    let plan = Plan::lower(qgm);
    let _ = writeln!(out, "== physical plan (path per box, decided at lowering)");
    for b in qgm.box_ids() {
        let qb = qgm.boxed(b);
        let path = plan
            .path(b)
            .map_or_else(|| "-".to_string(), |p| p.to_string());
        let _ = writeln!(out, "  {:<14} {:<16} {path}", qb.name, qb.kind.label());
    }
}

/// Render the plan-cache counters (the `CACHE` frame and the tail of
/// every EXPLAIN).
pub fn render_cache(stats: CacheStats, entries: usize) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "== plan cache");
    let _ = writeln!(out, "  entries       {entries}");
    let _ = writeln!(out, "  hits          {}", stats.hits);
    let _ = writeln!(out, "  misses        {}", stats.misses);
    let _ = writeln!(out, "  evictions     {}", stats.evictions);
    let _ = writeln!(out, "  invalidations {}", stats.invalidations);
    let _ = writeln!(out, "  hit rate      {:.1}%", stats.hit_rate() * 100.0);
    out
}

/// [`render_cache`] plus one line per strategy (the `CACHE` frame
/// shows the split; strategies that have never looked up are
/// omitted).
pub fn render_cache_by_strategy(
    stats: CacheStats,
    by_strategy: &std::collections::BTreeMap<String, CacheStats>,
    entries: usize,
) -> String {
    let mut out = render_cache(stats, entries);
    for (strategy, s) in by_strategy {
        let _ = writeln!(
            out,
            "  {:<13} hits {} misses {} evictions {} invalidations {} ({:.1}%)",
            strategy,
            s.hits,
            s.misses,
            s.evictions,
            s.invalidations,
            s.hit_rate() * 100.0
        );
    }
    out
}

/// The `== cache` section EXPLAIN appends: the query's normalized
/// cache key plus the engine's counters.
pub fn render_cache_section(stats: CacheStats, entries: usize, key: &str) -> String {
    let mut out = render_cache(stats, entries);
    let _ = writeln!(out, "  key           {key}");
    out
}

/// Render EXPLAIN ANALYZE: everything [`render`] shows, plus the
/// observed execution profile, rewrite trace, cardinality report, and
/// phase spans from an instrumented run.
pub fn render_analyze(p: &ProfiledQuery, catalog: &Catalog) -> String {
    let mut out = render(&p.optimized);
    let qgm = p.optimized.chosen();
    let live: std::collections::BTreeSet<_> = qgm.box_ids().into_iter().collect();

    // Per-box executor profile, in box-id order.
    let _ = writeln!(out, "== profile (executed plan, per box)");
    let _ = writeln!(
        out,
        "  {:<14} {:<16} {:>10} {:>10} {:>10} {:>10} {:>7} {:>12}  path",
        "box", "kind", "scanned", "rows_in", "produced", "rows_out", "evals", "elapsed"
    );
    for (b, bp) in &p.profile.boxes {
        let (name, kind) = if live.contains(b) {
            let qb = qgm.boxed(*b);
            (qb.name.clone(), qb.kind.label())
        } else {
            (b.to_string(), "?")
        };
        // Which executor path evaluated the box; a box only ever
        // probed through an index was never evaluated and has none.
        let path = p
            .profile
            .paths
            .get(b)
            .map_or_else(|| "-".to_string(), ToString::to_string);
        let _ = writeln!(
            out,
            "  {:<14} {:<16} {:>10} {:>10} {:>10} {:>10} {:>7} {:>12}  path={path}",
            name,
            kind,
            bp.rows_scanned,
            bp.rows_in,
            bp.rows_produced,
            bp.rows_out,
            bp.evals,
            fmt_dur(bp.elapsed)
        );
    }
    let m = p.result.metrics;
    let _ = writeln!(
        out,
        "  totals: work {} (scanned {} + produced {}); box_evals {} (reported only — excluded from work, see Metrics::work)",
        m.work(),
        m.rows_scanned,
        m.rows_produced,
        m.box_evals
    );

    // Fixpoint convergence: per recursive union, the per-round delta
    // history and the candidates each round rejected as duplicates;
    // per step arm, how often its build side outside the recursion was
    // built and reused.
    if !p.profile.fixpoint.is_empty() {
        let name = |b: &starmagic_qgm::BoxId| {
            if live.contains(b) {
                qgm.boxed(*b).name.clone()
            } else {
                b.to_string()
            }
        };
        let rounds = |rows: &[u64]| {
            let rows: Vec<String> = rows.iter().map(ToString::to_string).collect();
            rows.join(" ")
        };
        let _ = writeln!(out, "== fixpoint (per recursive union)");
        let _ = writeln!(
            out,
            "  {:<14} {:>10} {:>10}  delta rows per round (round 0 = seed)",
            "box", "iters", "total"
        );
        for (b, fs) in &p.profile.fixpoint {
            let _ = writeln!(
                out,
                "  {:<14} {:>10} {:>10}  [{}]",
                name(b),
                fs.iterations,
                fs.total_rows,
                rounds(&fs.delta_rows)
            );
            let _ = writeln!(
                out,
                "  {:<36}  rejected as duplicates [{}]",
                "",
                rounds(&fs.rejected_rows)
            );
        }
        for (arm, builds) in &p.profile.builds {
            let _ = writeln!(
                out,
                "  step arm {:<14} join build built {}×, reused {}×",
                name(arm),
                builds.built,
                builds.reused
            );
        }
    }

    // Rewrite trace: per-phase rule fires, no-op offers, pass timings.
    let _ = writeln!(out, "== rewrite trace");
    for (i, stats) in p.optimized.stats.iter().enumerate() {
        render_phase_stats(&mut out, i + 1, stats);
    }

    // Cardinality feedback over the executed plan.
    let actuals: BTreeMap<_, _> = p
        .profile
        .boxes
        .iter()
        .filter(|(b, bp)| bp.evals > 0 && live.contains(b))
        .map(|(b, bp)| (*b, (bp.rows_out, bp.evals)))
        .collect();
    let report = feedback::cardinality_report(qgm, catalog, &actuals);
    let _ = writeln!(out, "== cardinality (estimated vs actual, per eval)");
    for r in &report {
        let _ = writeln!(
            out,
            "  {:<14} est {:>10.1}  actual {:>10.1}  x{:<8.1} {}",
            qgm.boxed(r.box_id).name,
            r.estimated,
            r.actual,
            r.ratio,
            r.bucket.label()
        );
    }
    let hist = feedback::bucket_histogram(&report);
    let _ = writeln!(
        out,
        "  misestimation histogram: {}",
        hist.iter()
            .map(|(b, n)| format!("{} {n}", b.label()))
            .collect::<Vec<_>>()
            .join(", ")
    );

    // Phase spans.
    let _ = writeln!(out, "== spans");
    for s in p.optimized.trace.spans() {
        let _ = writeln!(out, "  {:<16} {:>12}", s.name, fmt_dur(s.elapsed));
    }
    let _ = writeln!(
        out,
        "  {:<16} {:>12}",
        "total",
        fmt_dur(p.optimized.trace.total())
    );
    out
}

fn render_phase_stats(out: &mut String, phase: usize, stats: &RewriteStats) {
    let _ = writeln!(
        out,
        "  phase {}: {} pass(es), {} fire(s), {}",
        phase,
        stats.passes,
        stats.total_fires(),
        fmt_dur(stats.total_duration())
    );
    for (rule, fires) in &stats.fires {
        let _ = writeln!(
            out,
            "    {:<24} {:>5} fire(s), {:>5} no-op offer(s)",
            rule,
            fires,
            stats.no_op_count(rule)
        );
    }
    // Rules consulted but never applied still show up: a rule with
    // only no-op offers is pure overhead in this phase.
    for (rule, offers) in &stats.no_op_offers {
        if !stats.fires.contains_key(rule) {
            let _ = writeln!(
                out,
                "    {rule:<24} {:>5} fire(s), {offers:>5} no-op offer(s)",
                0
            );
        }
    }
}

/// Human-scale duration: microseconds below 1 ms, milliseconds above.
fn fmt_dur(d: Duration) -> String {
    let us = d.as_micros();
    if us < 1000 {
        format!("{us}us")
    } else {
        format!("{:.2}ms", d.as_secs_f64() * 1e3)
    }
}
