//! The forward-chaining rewrite engine.
//!
//! A cursor walks the query blocks depth-first from the top box; at
//! each box every enabled rule is offered the box; the engine repeats
//! full passes until no rule fires (fixpoint), with a pass budget as a
//! runaway guard.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use starmagic_catalog::Catalog;
use starmagic_common::{Error, Result};
use starmagic_lint::LintReport;
use starmagic_qgm::{printer, BoxId, Qgm};

use crate::props::OpRegistry;
use crate::rules::RewriteRule;

/// How much semantic checking the engine performs while rewriting.
///
/// Each level runs the full `starmagic-lint` pass set; they differ in
/// *when* and in how precisely a violation is attributed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckLevel {
    /// No checking. The release-build default: rules are trusted.
    Off,
    /// Lint once after each full pass over the graph. Cheap, but a
    /// violation can only be blamed on the pass, not the rule.
    PerPass,
    /// Lint after every rule application. Any error-severity finding
    /// aborts the run, attributed to the firing rule by name, with the
    /// pass number, the box the rule was offered, and the pre-/
    /// post-fire graph printouts. The debug-build (and test) default.
    PerFire,
}

impl Default for CheckLevel {
    fn default() -> CheckLevel {
        if cfg!(debug_assertions) {
            CheckLevel::PerFire
        } else {
            CheckLevel::Off
        }
    }
}

/// Everything a rule may consult or mutate.
pub struct RuleContext<'a> {
    pub qgm: &'a mut Qgm,
    pub catalog: &'a Catalog,
    pub registry: &'a OpRegistry,
}

/// Per-run rewrite telemetry: rule fire counts, no-op offers, and
/// per-pass durations — the data EXPLAIN's `== rewrite trace` section
/// and the bench `--trace-json` sink report.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct RewriteStats {
    /// How many times each rule fired (mutated the graph).
    pub fires: BTreeMap<String, usize>,
    /// Full depth-first sweeps performed (a no-fire pass ends the run).
    pub passes: usize,
    /// How many times each rule was offered a box and declined —
    /// the no-op-match count that tells you a rule is being consulted
    /// far more often than it applies.
    pub no_op_offers: BTreeMap<String, usize>,
    /// Wall time of each pass, monotonic clock, in pass order
    /// (`pass_durations.len() == passes`).
    pub pass_durations: Vec<Duration>,
}

impl RewriteStats {
    /// Fire count of a rule by name (0 when it never fired).
    pub fn count(&self, rule: &str) -> usize {
        self.fires.get(rule).copied().unwrap_or(0)
    }

    /// No-op-offer count of a rule by name.
    pub fn no_op_count(&self, rule: &str) -> usize {
        self.no_op_offers.get(rule).copied().unwrap_or(0)
    }

    /// Total fires across all rules.
    pub fn total_fires(&self) -> usize {
        self.fires.values().sum()
    }

    /// Total time across all passes.
    pub fn total_duration(&self) -> Duration {
        self.pass_durations.iter().sum()
    }
}

/// The engine itself. `max_passes` bounds the number of full
/// depth-first sweeps (a pass that fires nothing ends the run early);
/// `check` selects how aggressively the lint passes police each fire.
pub struct RewriteEngine {
    pub max_passes: usize,
    pub check: CheckLevel,
}

impl Default for RewriteEngine {
    fn default() -> RewriteEngine {
        RewriteEngine {
            max_passes: 64,
            check: CheckLevel::default(),
        }
    }
}

impl RewriteEngine {
    /// An engine with an explicit check level (other fields default).
    pub fn with_check(check: CheckLevel) -> RewriteEngine {
        RewriteEngine {
            check,
            ..RewriteEngine::default()
        }
    }

    /// Run `rules` to fixpoint over the graph. Rules fire one box at a
    /// time in depth-first order from the top box.
    pub fn run(
        &self,
        qgm: &mut Qgm,
        catalog: &Catalog,
        registry: &OpRegistry,
        rules: &[&dyn RewriteRule],
    ) -> Result<RewriteStats> {
        let mut stats = RewriteStats::default();
        // Fires and declined offers per rule, by position in `rules`:
        // an offer is a counter bump, and the named maps are filled
        // once, when the run ends.
        let mut fires = vec![0usize; rules.len()];
        let mut no_ops = vec![0usize; rules.len()];
        for pass in 0..self.max_passes {
            stats.passes += 1;
            let pass_start = Instant::now();
            let mut fired = false;
            // Parents before children, the order of the paper's cursor
            // facility.
            for b in qgm.preorder() {
                if !qgm.box_exists(b) {
                    continue; // a previous fire removed it
                }
                // In PerFire mode, keep a snapshot of the graph as it
                // was before the next fire, for the violation report.
                // Refreshed after each clean fire, so the cost is one
                // clone per visited box plus one per fire.
                let mut pre = (self.check == CheckLevel::PerFire).then(|| qgm.clone());
                for (i, rule) in rules.iter().enumerate() {
                    if !qgm.box_exists(b) {
                        break;
                    }
                    let mut ctx = RuleContext {
                        qgm,
                        catalog,
                        registry,
                    };
                    if rule.apply(&mut ctx, b)? {
                        fires[i] += 1;
                        fired = true;
                        if let Some(snapshot) = &pre {
                            let mut report = starmagic_lint::lint(qgm, catalog);
                            if !report.has_errors() {
                                report.extend(starmagic_analysis::checks(qgm, catalog));
                            }
                            if report.has_errors() {
                                return Err(fire_violation(
                                    rule.name(),
                                    pass + 1,
                                    b,
                                    snapshot,
                                    qgm,
                                    &report,
                                ));
                            }
                            pre = Some(qgm.clone());
                        }
                    } else {
                        no_ops[i] += 1;
                    }
                }
            }
            stats.pass_durations.push(pass_start.elapsed());
            if self.check == CheckLevel::PerPass {
                let mut report = starmagic_lint::lint(qgm, catalog);
                if !report.has_errors() {
                    report.extend(starmagic_analysis::checks(qgm, catalog));
                }
                if report.has_errors() {
                    return Err(pass_violation(pass + 1, qgm, &report));
                }
            }
            if !fired {
                for (i, rule) in rules.iter().enumerate() {
                    for (map, n) in [
                        (&mut stats.fires, fires[i]),
                        (&mut stats.no_op_offers, no_ops[i]),
                    ] {
                        if n > 0 {
                            *map.entry(rule.name().to_string()).or_insert(0) += n;
                        }
                    }
                }
                return Ok(stats);
            }
        }
        Err(Error::internal(format!(
            "rewrite did not reach fixpoint within {} passes (rule loop?)",
            self.max_passes
        )))
    }
}

/// Build the PerFire violation error: which rule, which pass, which
/// box, every error-severity finding, and the graph before and after
/// the fire.
fn fire_violation(
    rule: &str,
    pass: usize,
    b: BoxId,
    pre: &Qgm,
    post: &Qgm,
    report: &LintReport,
) -> Error {
    let box_name = if pre.box_exists(b) {
        pre.boxed(b).display_name()
    } else {
        "<removed>".to_string()
    };
    let mut msg = format!(
        "lint: rule `{rule}` broke invariant(s) firing at box {box_name} ({b}) on pass {pass}:\n"
    );
    for d in report.errors() {
        msg.push_str(&format!("  {d}\n"));
    }
    msg.push_str(&format!(
        "graph before `{rule}` fired:\n{}",
        printer::print_graph(pre)
    ));
    msg.push_str(&format!("graph after:\n{}", printer::print_graph(post)));
    Error::internal(msg)
}

/// Build the PerPass violation error (no rule attribution: any rule
/// that fired during the pass may be to blame).
fn pass_violation(pass: usize, qgm: &Qgm, report: &LintReport) -> Error {
    let mut msg = format!("lint: pass {pass} left the graph invalid:\n");
    for d in report.errors() {
        msg.push_str(&format!("  {d}\n"));
    }
    msg.push_str(&format!("graph:\n{}", printer::print_graph(qgm)));
    Error::internal(msg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use starmagic_catalog::generator;
    use starmagic_qgm::build_qgm;

    struct NopRule;
    impl RewriteRule for NopRule {
        fn name(&self) -> &'static str {
            "nop"
        }
        fn apply(&self, _ctx: &mut RuleContext<'_>, _b: BoxId) -> Result<bool> {
            Ok(false)
        }
    }

    struct AlwaysFires;
    impl RewriteRule for AlwaysFires {
        fn name(&self) -> &'static str {
            "always"
        }
        fn apply(&self, _ctx: &mut RuleContext<'_>, _b: BoxId) -> Result<bool> {
            Ok(true)
        }
    }

    fn graph() -> (Qgm, Catalog) {
        let cat = generator::benchmark_catalog(generator::Scale::small()).unwrap();
        let q = starmagic_sql::parse_query(
            "SELECT e.empno FROM employee e, department d WHERE e.workdept = d.deptno",
        )
        .unwrap();
        let g = build_qgm(&cat, &q).unwrap();
        (g, cat)
    }

    #[test]
    fn engine_reaches_fixpoint_with_inert_rules() {
        let (mut g, cat) = graph();
        let reg = OpRegistry::new();
        let stats = RewriteEngine::default()
            .run(&mut g, &cat, &reg, &[&NopRule])
            .unwrap();
        assert_eq!(stats.passes, 1);
        assert_eq!(stats.count("nop"), 0);
    }

    #[test]
    fn no_op_offers_count_every_declined_box() {
        let (mut g, cat) = graph();
        let boxes = g.box_count();
        let reg = OpRegistry::new();
        let stats = RewriteEngine::default()
            .run(&mut g, &cat, &reg, &[&NopRule])
            .unwrap();
        // One pass, every box offered once, every offer declined.
        assert_eq!(stats.no_op_count("nop"), boxes);
        assert_eq!(stats.total_fires(), 0);
    }

    #[test]
    fn pass_durations_match_pass_count() {
        let (mut g, cat) = graph();
        let reg = OpRegistry::new();
        let stats = RewriteEngine::default()
            .run(&mut g, &cat, &reg, &[&NopRule])
            .unwrap();
        assert_eq!(stats.pass_durations.len(), stats.passes);
        assert_eq!(stats.total_duration(), stats.pass_durations.iter().sum());
    }

    #[test]
    fn engine_detects_rule_loops() {
        let (mut g, cat) = graph();
        let reg = OpRegistry::new();
        let err = RewriteEngine {
            max_passes: 3,
            ..RewriteEngine::default()
        }
        .run(&mut g, &cat, &reg, &[&AlwaysFires])
        .unwrap_err();
        assert!(err.to_string().contains("fixpoint"));
    }

    /// A deliberately broken rule: on its first fire it injects an
    /// out-of-range column reference into the box it was offered.
    struct CorruptsGraph;
    impl RewriteRule for CorruptsGraph {
        fn name(&self) -> &'static str {
            "corrupts-graph"
        }
        fn apply(&self, ctx: &mut RuleContext<'_>, b: BoxId) -> Result<bool> {
            let Some(&q) = ctx.qgm.boxed(b).quants.first() else {
                return Ok(false);
            };
            let bad = starmagic_qgm::ScalarExpr::col(q, 99);
            if ctx.qgm.boxed(b).predicates.contains(&bad) {
                return Ok(false);
            }
            ctx.qgm.boxed_mut(b).predicates.push(bad);
            Ok(true)
        }
    }

    #[test]
    fn per_fire_attributes_violation_to_rule_pass_and_box() {
        let (mut g, cat) = graph();
        let reg = OpRegistry::new();
        let top_name = g.boxed(g.top()).name.clone();
        let err = RewriteEngine::with_check(CheckLevel::PerFire)
            .run(&mut g, &cat, &reg, &[&NopRule, &CorruptsGraph])
            .unwrap_err();
        let msg = err.to_string();
        assert!(
            msg.contains("`corrupts-graph`"),
            "rule name missing:\n{msg}"
        );
        assert!(msg.contains("on pass 1"), "pass number missing:\n{msg}");
        assert!(msg.contains(&top_name), "box name missing:\n{msg}");
        assert!(msg.contains("L005"), "diagnostic code missing:\n{msg}");
        assert!(
            msg.contains("graph before `corrupts-graph` fired:"),
            "pre-fire printout missing:\n{msg}"
        );
        assert!(
            msg.contains("graph after:"),
            "post-fire printout missing:\n{msg}"
        );
    }

    #[test]
    fn per_pass_reports_without_rule_attribution() {
        let (mut g, cat) = graph();
        let reg = OpRegistry::new();
        let err = RewriteEngine::with_check(CheckLevel::PerPass)
            .run(&mut g, &cat, &reg, &[&CorruptsGraph])
            .unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("pass 1 left the graph invalid"), "{msg}");
        assert!(
            !msg.contains("corrupts-graph`"),
            "per-pass must not attribute: {msg}"
        );
    }

    #[test]
    fn check_off_lets_corruption_through() {
        let (mut g, cat) = graph();
        let reg = OpRegistry::new();
        // With checking off the engine happily reaches fixpoint on a
        // corrupted graph — the violation only surfaces downstream.
        RewriteEngine::with_check(CheckLevel::Off)
            .run(&mut g, &cat, &reg, &[&CorruptsGraph])
            .unwrap();
        assert!(g.validate().is_err());
    }

    #[test]
    fn default_check_level_follows_build_profile() {
        let expected = if cfg!(debug_assertions) {
            CheckLevel::PerFire
        } else {
            CheckLevel::Off
        };
        assert_eq!(RewriteEngine::default().check, expected);
    }

    #[test]
    fn depth_first_visits_parents_before_children() {
        let (g, _) = graph();
        let order = g.preorder();
        assert_eq!(order[0], g.top());
        assert_eq!(order.len(), g.box_count());
    }
}
