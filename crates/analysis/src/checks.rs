//! Analysis-backed lint checks (the L2xx codes).
//!
//! Unlike the structural passes in `starmagic-lint`, these checks
//! consume the fixpoint facts, so they can judge *semantic* soundness
//! of a rewrite: whether a magic join could drop NULL-valued outer
//! rows (L200), whether a duplicate-freedom claim is a lie (L201),
//! whether declared bindings are actually enforced (L202), and whether
//! the planner's estimates agree with the proven bounds (L210).

use std::collections::BTreeMap;

use starmagic_catalog::Catalog;
use starmagic_lint::{Code, LintReport};
use starmagic_planner as planner;
use starmagic_qgm::{BoxId, DistinctMode, Qgm, QuantId, ScalarExpr};
use starmagic_sql::BinOp;

use crate::domains::{BoxFacts, DupVerdict};
use crate::transfer::null_propagating;

/// Multiplicative slack before an estimate counts as out of bounds
/// (L210): estimates are heuristics, bounds are proofs — flag only a
/// contradiction too large to be rounding.
const ESTIMATE_SLACK: f64 = 2.0;
const ESTIMATE_SLACK_ABS: f64 = 10.0;

/// Run every analysis-backed check over the solved graph.
pub fn run(qgm: &Qgm, catalog: &Catalog, facts: &BTreeMap<BoxId, BoxFacts>) -> LintReport {
    scan(qgm, catalog, facts, true)
}

/// [`run`], or with `warnings` off only its error-severity checks
/// (L200–L202): the same report without the warnings, which are then
/// never computed.
pub(crate) fn scan(
    qgm: &Qgm,
    catalog: &Catalog,
    facts: &BTreeMap<BoxId, BoxFacts>,
    warnings: bool,
) -> LintReport {
    let mut report = LintReport::default();
    for (&b, f) in facts {
        if !qgm.box_exists(b) {
            continue;
        }
        null_strictness(qgm, b, &mut report);
        duplicate_claims(qgm, b, f, &mut report);
        binding_flow(qgm, b, f, &mut report);
        if warnings {
            cardinality_estimate(qgm, catalog, b, f, &mut report);
        }
    }
    report
}

/// Whether a quantifier is a Foreach *binding* quantifier: magic, and
/// ranging over a Magic-flavored box (a duplicate-eliminated binding
/// set, joined in as the `mb = binding` filter). Quantifiers over
/// supplementary-magic boxes don't qualify — they *replace* the
/// original Foreach wholesale and carry full rows, so no NULL-binding
/// hazard exists. Condition-magic quantifiers are existential and
/// never filter the join directly.
fn is_magic_foreach(qgm: &Qgm, q: QuantId) -> bool {
    qgm.quant_exists(q) && {
        let quant = qgm.quant(q);
        quant.is_magic
            && quant.kind.is_foreach()
            && qgm.boxed(quant.input).flavor == starmagic_qgm::BoxFlavor::Magic
    }
}

/// L200: the EMST null-strictness gate, re-proven on the output graph.
///
/// A magic join filters the decorrelated side with `mb = binding`,
/// which is Unknown when the binding is NULL. That only preserves the
/// original semantics if every predicate touching the magic
/// quantifier is *null-strict* in those references — never True when
/// one is NULL. A predicate that routes a magic reference through OR,
/// NOT, IS NULL, or a nested quantified test (the PR 4 fuzzer bug
/// class) would silently drop NULL-valued outer rows.
fn null_strictness(qgm: &Qgm, b: BoxId, report: &mut LintReport) {
    let is_m = |q: QuantId| is_magic_foreach(qgm, q);
    for p in &qgm.boxed(b).predicates {
        if !p.quantifiers().into_iter().any(is_m) {
            continue;
        }
        if !strict_in_magic(p, &is_m) {
            report.push(
                Code::L200NullStrictnessViolation,
                Some(b),
                None,
                format!(
                    "predicate `{p}` references a magic quantifier but is not \
                     null-strict in it: a NULL binding could satisfy the \
                     predicate, so the magic restriction may drop rows"
                ),
            );
        }
    }
}

/// The same strictness predicate `starmagic-magic` gates decorrelation
/// on, applied to the *magic* references of the rewritten graph.
fn strict_in_magic(p: &ScalarExpr, is_m: &dyn Fn(QuantId) -> bool) -> bool {
    let has_m = |e: &ScalarExpr| e.quantifiers().into_iter().any(is_m);
    if !has_m(p) {
        return true;
    }
    match p {
        ScalarExpr::Bin { op, left, right } if *op == BinOp::And => {
            strict_in_magic(left, is_m) && strict_in_magic(right, is_m)
        }
        ScalarExpr::Bin { op, left, right } if op.is_comparison() => {
            (!has_m(left) || null_propagating(left)) && (!has_m(right) || null_propagating(right))
        }
        ScalarExpr::Like { expr, .. } => null_propagating(expr),
        _ => false,
    }
}

/// L201: duplicate-freedom claims, cross-checked against the
/// multiplicity domain. `keys::is_dup_free` proves claims; the bounds
/// can *refute* them — a box whose output is all-constant yet provably
/// produces two or more rows definitely emits duplicates.
fn duplicate_claims(qgm: &Qgm, b: BoxId, f: &BoxFacts, report: &mut LintReport) {
    if f.dup_free != DupVerdict::Refuted {
        return;
    }
    let qb = qgm.boxed(b);
    let claims = qb.distinct == DistinctMode::Preserve;
    if claims {
        report.push(
            Code::L201DuplicateClaimRefuted,
            Some(b),
            None,
            format!(
                "box claims Preserve (duplicate-free) but the multiplicity \
                 domain proves at least {} identical rows (all {} output \
                 columns constant)",
                f.card.lo,
                qb.arity()
            ),
        );
    }
}

/// L202: binding-flow soundness. While a magic Foreach quantifier is
/// attached to a box, (a) every column of the magic box must be
/// consumed by the box — an unused binding column would multiply the
/// join by the magic table's duplicate-eliminated width — and (b) the
/// box's declared Bound adornment columns must be provably restricted
/// by the binding flow. Once phase-3 merges dissolve the magic box the
/// quantifier disappears and both obligations become vacuous.
///
/// Obligation (a) is waived when the consuming box's output is
/// duplicate-free anyway — either because it enforces DISTINCT itself
/// or because the multiplicity domain proves it. A derived magic box
/// built from a wider binding set (an adornment with fewer bound
/// columns downstream, e.g. `M_X_GB` projecting `mc0` out of `M_X`'s
/// `(mc0, mc1)`) legitimately drops binding columns: any row
/// multiplication that introduces is removed again by the box's own
/// dedup (or provably never arises) before it can escape.
fn binding_flow(qgm: &Qgm, b: BoxId, f: &BoxFacts, report: &mut LintReport) {
    let qb = qgm.boxed(b);
    let magic_quants: Vec<QuantId> = qb
        .quants
        .iter()
        .copied()
        .filter(|&q| is_magic_foreach(qgm, q))
        .collect();
    if magic_quants.is_empty() {
        return;
    }

    // (a) Every magic binding column is referenced somewhere in the
    // box — unless the box's output is duplicate-free regardless
    // (enforced or proven), which makes a projected-away binding
    // column harmless.
    let dedupes = qb.distinct == DistinctMode::Enforce
        || matches!(
            f.dup_free,
            DupVerdict::ProvenKeys | DupVerdict::ProvenBounds
        );
    for &mq in &magic_quants {
        if dedupes {
            break;
        }
        let arity = qgm.boxed(qgm.quant(mq).input).arity();
        let mut used = vec![false; arity];
        let mut mark = |e: &ScalarExpr| {
            e.walk(&mut |sub| {
                if let ScalarExpr::ColRef { quant, col } = sub {
                    if *quant == mq && *col < arity {
                        used[*col] = true;
                    }
                }
            });
        };
        for p in &qb.predicates {
            mark(p);
        }
        for c in &qb.columns {
            mark(&c.expr);
        }
        for (j, u) in used.iter().enumerate() {
            if !u {
                report.push(
                    Code::L202BindingFlowUnsound,
                    Some(b),
                    Some(mq),
                    format!(
                        "magic binding column {j} of quantifier {mq} is never \
                         consumed: the duplicate-eliminated magic table would \
                         multiply the join's row count"
                    ),
                );
            }
        }
    }

    // (b) Declared Bound columns are actually restricted.
    if let Some(a) = &qb.adornment {
        for j in a.bound_cols() {
            if !f.restricted.contains(&j) {
                report.push(
                    Code::L202BindingFlowUnsound,
                    Some(b),
                    None,
                    format!(
                        "adornment declares output column {j} Bound, but the \
                         binding-flow domain cannot trace it to a magic \
                         binding"
                    ),
                );
            }
        }
    }
}

/// L210: the planner's per-evaluation row estimate against the proven
/// multiplicity bounds. An estimate far outside a *proof* means the
/// cost model and the semantics disagree — worth a warning, since the
/// magic-vs-original decision rides on these numbers.
fn cardinality_estimate(
    qgm: &Qgm,
    catalog: &Catalog,
    b: BoxId,
    f: &BoxFacts,
    report: &mut LintReport,
) {
    let est = planner::estimate_box_rows(qgm, catalog, b);
    if !est.is_finite() {
        return;
    }
    let below = est * ESTIMATE_SLACK + ESTIMATE_SLACK_ABS < f.card.lo as f64;
    let above = f
        .card
        .hi
        .is_some_and(|h| est > (h as f64) * ESTIMATE_SLACK + ESTIMATE_SLACK_ABS);
    if below || above {
        report.push(
            Code::L210CardinalityOutsideBounds,
            Some(b),
            None,
            format!(
                "planner estimates {est:.1} rows but the multiplicity domain \
                 proves {} — the cost model disagrees with a proof",
                f.card
            ),
        );
    }
}
