//! The EMST rewrite rule (Algorithm 4.2, magic-process).

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};

use starmagic_common::Result;
use starmagic_qgm::boxes::SetOpBox;
use starmagic_qgm::expr::QuantMode;
use starmagic_qgm::{
    strata, BoxFlavor, BoxId, BoxKind, DistinctMode, OutputCol, Qgm, QuantId, QuantKind,
    ScalarExpr, SetOpKind,
};
use starmagic_rewrite::{OpRegistry, RewriteRule, RuleContext};

use starmagic_sql::BinOp;

use crate::bindings::{adorn_quantifier, AdornResult, Binding};

/// Memoized adorned copy: a child box copied for one adornment, the
/// aggregation points for its magic and condition-magic inputs.
#[derive(Debug, Clone)]
struct CopyInfo {
    copy: BoxId,
    magic: Option<BoxId>,
    cond_magic: Option<BoxId>,
}

/// The EMST rule. One instance per optimization run: it memoizes
/// adorned copies so that a box referenced twice with the same
/// adornment shares one copy, whose magic box grows into a union.
///
/// **Phase discipline** (§3.3): EMST requires "tight control" — run it
/// with `SimplifyPredicates`/`DistinctPullup` only, *not* concurrently
/// with the merge rule. Merge dissolving a freshly created magic box
/// or adorned copy mid-transformation invalidates EMST's bookkeeping;
/// the paper's Figure 3 confines merge to phases 1 and 3 for exactly
/// this reason, and so does `starmagic::pipeline`.
pub struct EmstRule {
    copies: RefCell<BTreeMap<(BoxId, String), CopyInfo>>,
    use_supplementary: bool,
    skip_null_strict_gate: bool,
}

impl Default for EmstRule {
    fn default() -> EmstRule {
        EmstRule::new()
    }
}

impl EmstRule {
    pub fn new() -> EmstRule {
        EmstRule {
            copies: RefCell::new(BTreeMap::new()),
            use_supplementary: true,
            skip_null_strict_gate: false,
        }
    }

    /// Ablation variant: never split off supplementary-magic-boxes
    /// (magic boxes then re-derive the eligible joins themselves).
    pub fn without_supplementary() -> EmstRule {
        EmstRule {
            copies: RefCell::new(BTreeMap::new()),
            use_supplementary: false,
            skip_null_strict_gate: false,
        }
    }

    /// Test-only seeded unsoundness: disable the null-strictness gate
    /// so decorrelation fires on predicates a NULL binding could
    /// satisfy (the PR 4 fuzzer bug class). Exists so regression tests
    /// can prove `starmagic-analysis` catches the resulting graph
    /// statically (L200). Never enable outside tests.
    pub fn unsound_skip_null_strict_gate(mut self) -> EmstRule {
        self.skip_null_strict_gate = true;
        self
    }
}

impl RewriteRule for EmstRule {
    fn name(&self) -> &'static str {
        "emst"
    }

    fn apply(&self, ctx: &mut RuleContext<'_>, b: BoxId) -> Result<bool> {
        if ctx.qgm.boxed(b).magic_processed {
            return Ok(false);
        }
        // EMST never re-processes the boxes it creates (§4.1): magic
        // and supplementary-magic boxes are opaque to it. (We ground
        // condition-magic boxes at construction, so they are final
        // too — see the crate docs.)
        if ctx.qgm.boxed(b).flavor != BoxFlavor::Regular {
            ctx.qgm.boxed_mut(b).magic_processed = true;
            return Ok(false);
        }
        let changed = match ctx.qgm.boxed(b).kind.clone() {
            BoxKind::BaseTable { .. } => false,
            BoxKind::Select => self.process_select(ctx, b)?,
            // NMQ operations whose output columns are expressions over
            // their quantifiers — bindings translate through them.
            BoxKind::GroupBy(_) | BoxKind::OuterJoin(_) => self.process_nmq(ctx, b, true)?,
            // Set operations map output columns positionally.
            BoxKind::SetOp(_) => self.process_nmq(ctx, b, false)?,
        };
        if !changed {
            ctx.qgm.boxed_mut(b).magic_processed = true;
        }
        Ok(changed)
    }
}

impl EmstRule {
    /// Process an AMQ select box: walk the join order; for the first
    /// quantifier with a non-free adornment, either split off a
    /// supplementary-magic-box (when desirable) or create the adorned
    /// copy with its magic attachment. One transformation per fire —
    /// the engine re-offers the box until nothing is left.
    fn process_select(&self, ctx: &mut RuleContext<'_>, b: BoxId) -> Result<bool> {
        let order = ctx.qgm.join_order(b);
        for (i, &q) in order.iter().enumerate() {
            if ctx.qgm.quant(q).is_magic {
                continue;
            }
            let child = ctx.qgm.quant(q).input;
            if ctx.qgm.boxed(child).is_recursive_union() {
                // Magic on recursion takes a dedicated path: the copy
                // spans the whole fixpoint SCC, and the magic input may
                // itself become recursive (§6, magic on recursive
                // views). An already-adorned copy is final.
                if ctx.qgm.boxed(child).adornment.is_some() {
                    continue;
                }
                let eligible: BTreeSet<QuantId> = order[..i].iter().copied().collect();
                let ar = adorn_quantifier(ctx.qgm, ctx.registry, b, q, &eligible);
                if ar.bound.is_empty() {
                    continue;
                }
                if self.process_recursive_ref(ctx, b, q, child, &eligible, &ar) {
                    return Ok(true);
                }
                continue;
            }
            if !transformable(ctx.qgm, b, child) {
                continue;
            }
            let eligible: BTreeSet<QuantId> = order[..i].iter().copied().collect();
            let ar = adorn_quantifier(ctx.qgm, ctx.registry, b, q, &eligible);
            if ar.is_all_free() {
                continue;
            }
            // 4(a): supplementary-magic-box when desirable. Quantifiers
            // over already-adorned copies are never bundled into the
            // supplementary box: routing a later user's bindings through
            // a prefix that contains the shared copy would feed the copy
            // its own output — the nonrecursive-to-recursive rewrite the
            // paper's introduction warns about, which our executor's
            // set-semantics fixpoint must not see under bag outputs.
            let sm_eligible: Vec<QuantId> = order[..i]
                .iter()
                .copied()
                .filter(|&x| {
                    let inp = ctx.qgm.quant(x).input;
                    ctx.qgm.boxed(inp).adornment.is_none()
                })
                .collect();
            if self.use_supplementary && supplementary_desirable(ctx.qgm, b, &sm_eligible) {
                build_supplementary(ctx.qgm, b, &sm_eligible);
                return Ok(true);
            }
            // 4(b)/(c): magic boxes and the adorned copy.
            self.attach_adorned_copy(ctx, b, q, child, &eligible, &ar);
            return Ok(true);
        }
        // Correlated subqueries: decorrelate through magic ("EMST ...
        // can handle correlations", §7). The magic table supplies the
        // distinct binding combinations; the subquery joins it instead
        // of referencing the outer quantifiers, and the outer test
        // matches on the binding columns — turning tuple-at-a-time
        // evaluation into one set-oriented computation.
        if self.decorrelate_one_subquery(ctx, b)? {
            return Ok(true);
        }
        Ok(false)
    }

    /// Decorrelate the first eligible subquery quantifier of `b`.
    ///
    /// Scope (each restriction is a soundness condition, documented in
    /// DESIGN.md): the quantifier is a non-negated existential whose
    /// `Quantified` test is a whole top-level conjunct of `b` (there,
    /// Unknown and False are interchangeable, which the NULL-binding
    /// cases need); the subquery is a regular select box whose *only*
    /// external references are equality-comparable column references to
    /// `b`'s Foreach quantifiers, appearing in its own predicate list.
    fn decorrelate_one_subquery(&self, ctx: &mut RuleContext<'_>, b: BoxId) -> Result<bool> {
        let bquants = ctx.qgm.boxed(b).quants.clone();
        let fquants: BTreeSet<QuantId> = ctx.qgm.foreach_quants(b).into_iter().collect();
        for q in bquants {
            let quant = ctx.qgm.quant(q).clone();
            if quant.is_magic || quant.kind != (QuantKind::Existential { negated: false }) {
                continue;
            }
            let s = quant.input;
            if !matches!(ctx.qgm.boxed(s).kind, BoxKind::Select)
                || ctx.qgm.boxed(s).flavor != BoxFlavor::Regular
                || ctx.qgm.boxed(s).adornment.is_some()
                || ctx.qgm.reaches(s, b)
                || ctx.qgm.users(s).len() != 1
                || has_inward_correlation(ctx.qgm, s)
            {
                continue;
            }
            // The Quantified test must be a standalone conjunct.
            let Some(pos) =
                ctx.qgm.boxed(b).predicates.iter().position(
                    |p| matches!(p, ScalarExpr::Quantified { quant: qq, .. } if *qq == q),
                )
            else {
                continue;
            };
            // Collect the outer references; they must all sit in the
            // subquery's own predicates and point at b's F-quantifiers.
            let Some(outer_refs) =
                collect_decorrelatable_refs(ctx.qgm, s, &fquants, self.skip_null_strict_gate)
            else {
                continue;
            };
            if outer_refs.is_empty() {
                continue;
            }

            // Magic box over all of b's Foreach quantifiers.
            let bindings: Vec<Binding> = outer_refs
                .iter()
                .enumerate()
                .map(|(j, &(oq, oc))| Binding {
                    col: j,
                    op: BinOp::Eq,
                    other: ScalarExpr::col(oq, oc),
                    pred_index: 0,
                })
                .collect();
            let qgm = &mut *ctx.qgm;
            let m = build_magic_box(
                qgm,
                b,
                &fquants,
                &bindings,
                &format!("M_{}", qgm.boxed(s).name),
                BoxFlavor::Magic,
            );

            // Decorrelated copy of the subquery.
            let (s2, _) = qgm.copy_box(s, qgm.boxed(s).name.clone());
            let arity = qgm.boxed(s).arity();
            let mq = qgm.insert_quant_at(s2, 0, m, QuantKind::Foreach, "m");
            qgm.quant_mut(mq).is_magic = true;
            if let Some(order) = &mut qgm.boxed_mut(s2).join_order {
                order.insert(0, mq);
            }
            let rewrite = |e: &ScalarExpr| {
                e.map_colrefs(&mut |rq, rc| match outer_refs
                    .iter()
                    .position(|&(oq, oc)| oq == rq && oc == rc)
                {
                    Some(j) => ScalarExpr::col(mq, j),
                    None => ScalarExpr::ColRef { quant: rq, col: rc },
                })
            };
            {
                let sb = qgm.boxed_mut(s2);
                for p in &mut sb.predicates {
                    *p = rewrite(p);
                }
            }
            for (j, _) in outer_refs.iter().enumerate() {
                qgm.boxed_mut(s2).columns.push(OutputCol {
                    name: format!("mb{j}"),
                    expr: ScalarExpr::col(mq, j),
                });
            }
            qgm.retarget(q, s2);

            // Outer test: match the binding columns.
            let extra: Vec<ScalarExpr> = outer_refs
                .iter()
                .enumerate()
                .map(|(j, &(oq, oc))| {
                    ScalarExpr::eq(ScalarExpr::col(q, arity + j), ScalarExpr::col(oq, oc))
                })
                .collect();
            let pred = &mut qgm.boxed_mut(b).predicates[pos];
            if let ScalarExpr::Quantified { preds, .. } = pred {
                preds.extend(extra);
            }
            return Ok(true);
        }
        Ok(false)
    }

    /// Build (or reuse) the adorned copy of `child` for `ar`, with its
    /// magic and condition-magic boxes built from the eligible
    /// quantifiers of `b`, and retarget `q` onto it.
    fn attach_adorned_copy(
        &self,
        ctx: &mut RuleContext<'_>,
        b: BoxId,
        q: QuantId,
        child: BoxId,
        eligible: &BTreeSet<QuantId>,
        ar: &AdornResult,
    ) {
        let qgm = &mut *ctx.qgm;
        let magic = (!ar.bound.is_empty()).then(|| {
            build_magic_box(
                qgm,
                b,
                eligible,
                &ar.bound,
                &format!("M_{}", qgm.boxed(child).name),
                BoxFlavor::Magic,
            )
        });
        let cond_magic = (!ar.conditioned.is_empty()).then(|| {
            build_magic_box(
                qgm,
                b,
                eligible,
                &ar.conditioned,
                &format!("CM_{}", qgm.boxed(child).name),
                BoxFlavor::ConditionMagic,
            )
        });

        let key = (child, memo_key(ar));
        let mut copies = self.copies.borrow_mut();
        if let Some(info) = copies.get_mut(&key) {
            // Shared adorned copy: union the new contributions in —
            // unless sharing closes a cycle, in which case this user
            // gets its own private copy below.
            if may_share(qgm, info.copy, b, magic.into_iter().chain(cond_magic)) {
                if let (Some(existing), Some(addition)) = (info.magic, magic) {
                    info.magic = Some(extend_with_union(qgm, existing, addition));
                }
                if let (Some(existing), Some(addition)) = (info.cond_magic, cond_magic) {
                    info.cond_magic = Some(extend_with_union(qgm, existing, addition));
                }
                qgm.retarget(q, info.copy);
                return;
            }
        }

        let (copy, _) = qgm.copy_box(child, qgm.boxed(child).name.clone());
        qgm.boxed_mut(copy).adornment = Some(ar.adornment.clone());
        attach_magic(ctx.registry, qgm, copy, magic, cond_magic, ar);
        qgm.retarget(q, copy);
        // Memoize only the first copy for this key (a private cyclic
        // copy must not shadow the shared one).
        copies.entry(key).or_insert(CopyInfo {
            copy,
            magic,
            cond_magic,
        });
    }

    /// Restrict a reference to a recursive union through magic. The
    /// binding flow of [`recursive_magic_plan`] picks one of three
    /// shapes ([`RecursiveMagic`]):
    ///
    /// - *static seed*: the adorned copy spans the whole fixpoint SCC
    ///   (union plus step arms) and every arm joins the seed magic box;
    /// - *grown magic*: the same copy, but a step arm derives a bound
    ///   column, so its magic input grows alongside the deltas as a
    ///   recursive union of its own;
    /// - *reversal*: the SCC is separable, so the copy is a
    ///   non-recursive union of base arms over the seed and over a magic
    ///   fixpoint that records each derivation's final bound values
    ///   (see [`reverse_recursion`]).
    ///
    /// A magic union's SCC sits strictly below the adorned copy's, so
    /// the semi-naive executor converges it first — stratification for
    /// free. Returns false when the SCC fails the eligibility gates, or
    /// when sharing a prior copy would close a cycle.
    fn process_recursive_ref(
        &self,
        ctx: &mut RuleContext<'_>,
        b: BoxId,
        q: QuantId,
        r: BoxId,
        eligible: &BTreeSet<QuantId>,
        ar: &AdornResult,
    ) -> bool {
        // A prior user with the same adornment: grow its seed union.
        let key = (r, memo_key(ar));
        // Cloned out first: the memo is written below, and a borrow in
        // the `if let` scrutinee would live through the whole block.
        let shared = self.copies.borrow().get(&key).cloned();
        if let Some(info) = shared {
            let qgm = &mut *ctx.qgm;
            // The same guard as the non-recursive path; the copy's side
            // first, so a declined share builds no seed.
            if !may_share(qgm, info.copy, b, []) {
                return false;
            }
            let seed = build_recursive_seed(qgm, b, eligible, r, ar);
            if !may_share(qgm, info.copy, b, [seed]) {
                return false;
            }
            if let Some(existing) = info.magic {
                let grown = extend_with_union(qgm, existing, seed);
                self.copies.borrow_mut().get_mut(&key).unwrap().magic = Some(grown);
            }
            qgm.retarget(q, info.copy);
            return true;
        }

        let Some(plan) = recursive_magic_plan(ctx.qgm, b, r, &ar.bound) else {
            return false;
        };
        let qgm = &mut *ctx.qgm;
        // Seed magic: the classic DISTINCT projection of the caller's
        // binding expressions.
        let seed = build_recursive_seed(qgm, b, eligible, r, ar);
        let (copy, magic) = match plan.case {
            // Every step arm preserves the bound columns: the binding
            // restricts the whole derivation unchanged.
            RecursiveMagic::StaticSeed => (copy_scc(qgm, r, seed, ar, &plan.arms), seed),
            // A step arm derives a bound column: the arm copies join a
            // recursive union the growth arms feed.
            RecursiveMagic::GrownMagic => {
                let u = magic_union(qgm, r);
                qgm.add_quant(u, seed, QuantKind::Foreach, "seed");
                take_first_arm_columns(qgm, u);
                let copy = copy_scc(qgm, r, u, ar, &plan.arms);
                add_growth_arms(qgm, u, u, ar, &plan.arms, Heads::Dropped);
                (copy, u)
            }
            // The magic fixpoint starts one step away from the seed and
            // records the bound values that step produced.
            RecursiveMagic::Reversal => {
                let y = magic_union(qgm, r);
                add_growth_arms(qgm, seed, y, ar, &plan.arms, Heads::Recorded);
                take_first_arm_columns(qgm, y);
                let copy = reverse_recursion(qgm, r, seed, y, ar, &plan.arms);
                add_growth_arms(qgm, y, y, ar, &plan.arms, Heads::Carried);
                (copy, seed)
            }
        };
        qgm.retarget(q, copy);
        self.copies.borrow_mut().entry(key).or_insert(CopyInfo {
            copy,
            magic: Some(magic),
            cond_magic: None,
        });
        true
    }

    /// Process an NMQ box (group-by or set operation) that has linked
    /// magic boxes: translate the bindings through the operation and
    /// push them into the children (Example 4.1, the AVGMGRSAL step).
    fn process_nmq(&self, ctx: &mut RuleContext<'_>, b: BoxId, is_groupby: bool) -> Result<bool> {
        if ctx.qgm.boxed(b).magic_links.is_empty() {
            return Ok(false);
        }
        let Some(adorn) = ctx.qgm.boxed(b).adornment.clone() else {
            return Ok(false);
        };
        let bound_cols = adorn.bound_cols();
        if bound_cols.is_empty() {
            return Ok(false);
        }
        let m = combine_links(ctx.qgm, b);

        let mut quants = ctx.qgm.boxed(b).quants.clone();
        // For an outer join only the preserved (first) quantifier may
        // be restricted; the null-supplying side must stay complete.
        if matches!(ctx.qgm.boxed(b).kind, BoxKind::OuterJoin(_)) {
            quants.truncate(1);
        }
        for tq in quants {
            let child = ctx.qgm.quant(tq).input;
            if !transformable(ctx.qgm, b, child) {
                continue;
            }
            // Map each bound output column onto a child column.
            let mut child_bindings: Vec<(usize, usize)> = Vec::new(); // (child col, magic col)
            for (j, &col) in bound_cols.iter().enumerate() {
                let expr = if is_groupby {
                    // Output columns of a group-by box are the group
                    // keys (then aggregates); only plain column keys
                    // pass bindings through.
                    ctx.qgm.boxed(b).columns[col].expr.clone()
                } else {
                    // Set operations map positionally.
                    ScalarExpr::col(tq, col)
                };
                if let ScalarExpr::ColRef { quant, col: cc } = expr {
                    if quant == tq {
                        child_bindings.push((cc, j));
                    }
                }
            }
            child_bindings.sort_unstable();
            // Respect the child's own bindable columns.
            let bindable = ctx.registry.bindable_cols(ctx.qgm, child);
            child_bindings.retain(|(cc, _)| bindable.allows(*cc));
            if child_bindings.is_empty() {
                continue;
            }

            // Build the child's magic box by *copying the contents* of
            // the linked magic box (Algorithm 4.2 step 4b): a select of
            // the relevant columns over m.
            let arity = ctx.qgm.boxed(child).arity();
            let mut chars = vec![starmagic_qgm::AdornChar::Free; arity];
            for &(cc, _) in &child_bindings {
                chars[cc] = starmagic_qgm::AdornChar::Bound;
            }
            let child_adorn = starmagic_qgm::Adornment(chars);

            let qgm = &mut *ctx.qgm;
            let magic = qgm.add_box(format!("M_{}", qgm.boxed(child).name), BoxKind::Select);
            let mq = qgm.add_quant(magic, m, QuantKind::Foreach, "m");
            {
                let mb = qgm.boxed_mut(magic);
                mb.flavor = BoxFlavor::Magic;
                mb.distinct = DistinctMode::Enforce;
            }
            let cols: Vec<OutputCol> = child_bindings
                .iter()
                .map(|&(cc, j)| OutputCol {
                    name: format!("mc{cc}"),
                    expr: ScalarExpr::col(mq, j),
                })
                .collect();
            qgm.boxed_mut(magic).columns = cols;

            // Reuse or create the adorned copy.
            let bound_bindings: Vec<Binding> = child_bindings
                .iter()
                .map(|&(cc, _)| Binding {
                    col: cc,
                    op: BinOp::Eq,
                    other: ScalarExpr::Literal(starmagic_common::Value::Null), // placeholder
                    pred_index: 0,
                })
                .collect();
            let ar = AdornResult {
                adornment: child_adorn,
                bound: bound_bindings,
                conditioned: vec![],
            };
            let key = (child, memo_key(&ar));
            let mut copies = self.copies.borrow_mut();
            if let Some(info) = copies.get_mut(&key) {
                if may_share(qgm, info.copy, b, [magic]) {
                    if let Some(existing) = info.magic {
                        info.magic = Some(extend_with_union(qgm, existing, magic));
                    }
                    qgm.retarget(tq, info.copy);
                    return Ok(true);
                }
            }
            let (copy, _) = qgm.copy_box(child, qgm.boxed(child).name.clone());
            qgm.boxed_mut(copy).adornment = Some(ar.adornment.clone());
            attach_magic(ctx.registry, qgm, copy, Some(magic), None, &ar);
            qgm.retarget(tq, copy);
            copies.entry(key).or_insert(CopyInfo {
                copy,
                magic: Some(magic),
                cond_magic: None,
            });
            return Ok(true);
        }
        Ok(false)
    }
}

/// Find the external column references of subquery `s` (a child of
/// `b`). Returns `Some(refs)` when every external reference (a) sits
/// in `s`'s own top-level predicates — not in its outputs, grouping,
/// or deeper boxes — and (b) points at one of `b`'s Foreach
/// quantifiers. Returns `None` when any reference violates that.
fn collect_decorrelatable_refs(
    qgm: &Qgm,
    s: BoxId,
    fquants: &BTreeSet<QuantId>,
    skip_null_strict_gate: bool,
) -> Option<Vec<(QuantId, usize)>> {
    let subtree = qgm.descendants(s);
    let is_external = |qq: QuantId| !subtree.contains(&qgm.quant(qq).parent);
    let mut refs: Vec<(QuantId, usize)> = Vec::new();
    let mut ok = true;
    for x in &subtree {
        let qb = qgm.boxed(*x);
        // Output columns, group keys, aggregate args, ON clauses:
        // external references there block decorrelation.
        let mut sensitive: Vec<&ScalarExpr> = qb.columns.iter().map(|c| &c.expr).collect();
        if let BoxKind::GroupBy(g) = &qb.kind {
            sensitive.extend(g.group_keys.iter());
            sensitive.extend(g.aggs.iter().filter_map(|a| a.arg.as_ref()));
        }
        if let BoxKind::OuterJoin(oj) = &qb.kind {
            sensitive.extend(oj.on.iter());
        }
        for e in sensitive {
            if e.quantifiers().into_iter().any(is_external) {
                ok = false;
            }
        }
        for p in &qb.predicates {
            let mut p_has_external = false;
            for qq in p.quantifiers() {
                if is_external(qq) {
                    p_has_external = true;
                    if *x == s && fquants.contains(&qq) {
                        // Eligible: record all column refs of qq in p.
                        p.walk(&mut |sub| {
                            if let ScalarExpr::ColRef { quant, col } = sub {
                                if *quant == qq && !refs.contains(&(*quant, *col)) {
                                    refs.push((*quant, *col));
                                }
                            }
                        });
                    } else {
                        ok = false;
                    }
                }
            }
            // The magic rewrite stores the binding value and filters
            // the outer side with `mb = outer_col`, which is Unknown
            // when the outer value is NULL. That only matches the
            // original semantics if the predicate could never be True
            // under a NULL binding — e.g. a correlation under OR can
            // be satisfied by the other disjunct, and rewriting it
            // would silently drop NULL-valued outer rows.
            if p_has_external
                && *x == s
                && !skip_null_strict_gate
                && !strict_in_external(p, &is_external)
            {
                ok = false;
            }
        }
    }
    ok.then_some(refs)
}

/// Whether predicate `p` is *null-strict* in its external references:
/// whenever any externally-referenced column evaluates to NULL, `p`
/// must come out Unknown or False — never True. Conjuncts of
/// comparisons (and LIKE) over NULL-propagating scalar operands
/// qualify; anything routing an external reference through OR, NOT,
/// IS NULL, or a nested quantified test does not (conservatively).
fn strict_in_external(p: &ScalarExpr, is_external: &dyn Fn(QuantId) -> bool) -> bool {
    let has_ext = |e: &ScalarExpr| e.quantifiers().into_iter().any(is_external);
    if !has_ext(p) {
        return true;
    }
    match p {
        ScalarExpr::Bin { op, left, right } if *op == BinOp::And => {
            strict_in_external(left, is_external) && strict_in_external(right, is_external)
        }
        ScalarExpr::Bin { op, left, right } if op.is_comparison() => {
            (!has_ext(left) || null_propagating(left))
                && (!has_ext(right) || null_propagating(right))
        }
        ScalarExpr::Like { expr, .. } => null_propagating(expr),
        _ => false,
    }
}

/// Whether a scalar expression is guaranteed NULL when any column it
/// reads is NULL (column refs, literals, arithmetic, negation).
fn null_propagating(e: &ScalarExpr) -> bool {
    match e {
        // A parameter reads no columns, so the property holds
        // vacuously — like a literal.
        ScalarExpr::ColRef { .. } | ScalarExpr::Literal(_) | ScalarExpr::Param(_) => true,
        ScalarExpr::Neg(inner) => null_propagating(inner),
        ScalarExpr::Bin {
            op: BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div,
            left,
            right,
        } => null_propagating(left) && null_propagating(right),
        _ => false,
    }
}

/// How one bound column of a recursive union flows through a step arm.
#[derive(Debug, Clone)]
enum RecBindingFlow {
    /// The arm's head copies the column straight from the recursive
    /// quantifier: a binding restricts the entire derivation unchanged,
    /// so the seed magic alone covers the subgoal.
    Preserved,
    /// The head computes the column from non-recursive quantifiers
    /// (`head`), and an equality predicate pins the recursive
    /// quantifier's column to `subgoal` — the value the subgoal's own
    /// binding must take. Requires a growth arm in the magic union.
    Derived {
        head: ScalarExpr,
        subgoal: ScalarExpr,
    },
}

/// One arm of an eligible recursive union: base arms carry no flows,
/// step arms record how each bound column passes to the subgoal.
#[derive(Debug, Clone)]
struct RecArmPlan {
    arm: BoxId,
    /// The step arm's quantifier over the union (`None` for base arms).
    rec_quant: Option<QuantId>,
    /// Per bound binding, in `ar.bound` order (empty for base arms).
    flows: Vec<RecBindingFlow>,
}

/// The shape magic takes on a reference to a recursive union.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecursiveMagic {
    /// Case A: every step arm preserves the bound columns, so the seed
    /// magic box restricts the whole fixpoint unchanged.
    StaticSeed,
    /// Case B: a step arm derives a bound column, so the magic set
    /// grows through its own fixpoint to every binding a subgoal
    /// needs, and the copied fixpoint runs once per grown binding.
    GrownMagic,
    /// A derived binding on a separable SCC: the recursion is reversed
    /// into one magic fixpoint that records the values each
    /// derivation's last step gave the derived columns, and the adorned
    /// copy is a non-recursive union of base arms.
    Reversal,
}

impl std::fmt::Display for RecursiveMagic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            RecursiveMagic::StaticSeed => "static seed (case A)",
            RecursiveMagic::GrownMagic => "grown magic (case B)",
            RecursiveMagic::Reversal => "reversed (separable)",
        })
    }
}

/// The plan for one eligible recursive union: its arms and the shape
/// the rewrite takes.
#[derive(Debug, Clone)]
struct RecMagicPlan {
    arms: Vec<RecArmPlan>,
    case: RecursiveMagic,
}

/// Gate a recursive union for magic and plan the transformation.
/// Eligibility (each a soundness or well-formedness condition):
///
/// - `b` sits outside the union's SCC (a step arm never restricts its
///   own driver);
/// - the SCC contains exactly one recursive union whose members are
///   all its own arms — regular, unadorned select boxes referencing
///   only their own quantifiers, with no inward correlation (`copy_box`
///   is shallow);
/// - step arms use only Foreach quantifiers, exactly one of them over
///   the union (linear recursion) — this is also the aggregate
///   exemption: a GroupBy inside the cycle can never be adorned;
/// - every bound column is either preserved by each step arm's head or
///   derivable from an equality on the recursive quantifier; under
///   UNION ALL only fully-preserving arms qualify (a grown magic set
///   could otherwise change which derivations survive).
///
/// With no derived column the plan is a static seed. With one, it is a
/// reversal when the SCC is *separable* — every step arm copies each
/// unbound column verbatim from the recursive quantifier, which appears
/// in no predicate but the subgoal equalities of the derived columns,
/// and the step arms derive the same bound columns — and grown magic
/// otherwise.
fn recursive_magic_plan(qgm: &Qgm, b: BoxId, r: BoxId, bound: &[Binding]) -> Option<RecMagicPlan> {
    let BoxKind::SetOp(s) = &qgm.boxed(r).kind else {
        return None;
    };
    if s.op != SetOpKind::Union {
        return None;
    }
    let union_all = s.all;

    let members: BTreeSet<BoxId> = strata::sccs(qgm)
        .into_iter()
        .find(|scc| scc.contains(&r))
        .expect("every box lies in one SCC")
        .into_iter()
        .collect();
    if qgm.reaches(r, b) {
        return None;
    }
    if members
        .iter()
        .any(|&m| m != r && qgm.boxed(m).is_recursive_union())
    {
        return None; // mutual recursion: out of scope
    }
    let arm_boxes: Vec<BoxId> = {
        let mut seen = BTreeSet::new();
        qgm.boxed(r)
            .quants
            .iter()
            .map(|&aq| qgm.quant(aq).input)
            .filter(|&a| seen.insert(a))
            .collect()
    };
    // Every non-union member must be one of the arms (no deeper boxes
    // participate in the cycle).
    if members.iter().any(|&m| m != r && !arm_boxes.contains(&m)) {
        return None;
    }
    if qgm
        .boxed(r)
        .quants
        .iter()
        .any(|&aq| !qgm.quant(aq).kind.is_foreach())
    {
        return None;
    }

    let mut arms = Vec::new();
    let mut separable = true;
    for &arm in &arm_boxes {
        let ab = qgm.boxed(arm);
        if !matches!(ab.kind, BoxKind::Select)
            || ab.flavor != BoxFlavor::Regular
            || ab.adornment.is_some()
            || !refs_only_own_quants(qgm, arm)
            || has_inward_correlation(qgm, arm)
        {
            return None;
        }
        if !members.contains(&arm) {
            arms.push(RecArmPlan {
                arm,
                rec_quant: None,
                flows: Vec::new(),
            });
            continue;
        }
        // Step arm: all Foreach, exactly one quantifier over the union.
        if ab.quants.iter().any(|&q2| !qgm.quant(q2).kind.is_foreach()) {
            return None;
        }
        let rec_quants: Vec<QuantId> = ab
            .quants
            .iter()
            .copied()
            .filter(|&q2| members.contains(&qgm.quant(q2).input))
            .collect();
        let [rq] = rec_quants[..] else {
            return None; // nonlinear step
        };
        if qgm.quant(rq).input != r {
            return None;
        }
        let is_rec_col = |e: &ScalarExpr, c: usize| matches!(e, ScalarExpr::ColRef { quant, col } if *quant == rq && *col == c);
        let mut flows = Vec::new();
        for bnd in bound {
            let head = &ab.columns[bnd.col].expr;
            if is_rec_col(head, bnd.col) {
                flows.push(RecBindingFlow::Preserved);
                continue;
            }
            if union_all || head.quantifiers().contains(&rq) {
                return None;
            }
            // The subgoal's binding value: an equality predicate pinning
            // the recursive quantifier's bound column to an expression
            // over the arm's other quantifiers.
            let subgoal = ab.predicates.iter().find_map(|p| {
                let (op, l, rr) = p.as_comparison()?;
                if op != BinOp::Eq {
                    return None;
                }
                let free_of_rec = |e: &ScalarExpr| !e.quantifiers().contains(&rq);
                if is_rec_col(l, bnd.col) && free_of_rec(rr) {
                    Some(rr.clone())
                } else if is_rec_col(rr, bnd.col) && free_of_rec(l) {
                    Some(l.clone())
                } else {
                    None
                }
            })?;
            flows.push(RecBindingFlow::Derived {
                head: head.clone(),
                subgoal,
            });
        }
        // Separable: unbound columns pass through verbatim, and the
        // recursive quantifier sits in no predicate but one subgoal
        // equality per derived column (each derived column found its
        // own, so equal counts mean there is no other).
        let derived = flows
            .iter()
            .filter(|f| matches!(f, RecBindingFlow::Derived { .. }))
            .count();
        let on_rec = ab
            .predicates
            .iter()
            .filter(|p| p.quantifiers().contains(&rq))
            .count();
        separable &= on_rec == derived
            && ab
                .columns
                .iter()
                .enumerate()
                .all(|(c, oc)| bound.iter().any(|bnd| bnd.col == c) || is_rec_col(&oc.expr, c));
        arms.push(RecArmPlan {
            arm,
            rec_quant: Some(rq),
            flows,
        });
    }
    // At least one base arm, or the fixpoint could never seed.
    if !arms.iter().any(|p| p.rec_quant.is_none()) {
        return None;
    }
    // Each derived column is derived by every step arm, so a
    // derivation's last step fixes all of them at once: the reversal
    // records them at its first step.
    let derived_cols = |p: &RecArmPlan| -> Vec<bool> {
        p.flows
            .iter()
            .map(|f| matches!(f, RecBindingFlow::Derived { .. }))
            .collect()
    };
    let mut steps = arms
        .iter()
        .filter(|p| p.rec_quant.is_some())
        .map(derived_cols);
    if let Some(first) = steps.next() {
        separable &= steps.all(|d| d == first);
    }
    let derives = arms.iter().any(|p| {
        p.flows
            .iter()
            .any(|f| matches!(f, RecBindingFlow::Derived { .. }))
    });
    let case = match (derives, separable) {
        (false, _) => RecursiveMagic::StaticSeed,
        (true, true) => RecursiveMagic::Reversal,
        (true, false) => RecursiveMagic::GrownMagic,
    };
    Some(RecMagicPlan { arms, case })
}

/// The seed of a recursive reference's magic: `M_<name>`, the DISTINCT
/// projection of `b`'s binding expressions.
fn build_recursive_seed(
    qgm: &mut Qgm,
    b: BoxId,
    eligible: &BTreeSet<QuantId>,
    r: BoxId,
    ar: &AdornResult,
) -> BoxId {
    build_magic_box(
        qgm,
        b,
        eligible,
        &ar.bound,
        &format!("M_{}", qgm.boxed(r).name),
        BoxFlavor::Magic,
    )
}

/// The magic fixpoint `MR_<name>` of `r`: an empty recursive union its
/// caller gives seed arms, then growth arms.
fn magic_union(qgm: &mut Qgm, r: BoxId) -> BoxId {
    let u = qgm.add_box(
        format!("MR_{}", qgm.boxed(r).name),
        BoxKind::SetOp(SetOpBox {
            op: SetOpKind::Union,
            all: false,
        }),
    );
    let ub = qgm.boxed_mut(u);
    // Recursive flavor: the executor's fixpoint driver treats the magic
    // union exactly like a recursive CTE. Non-ALL, so admission dedups
    // and the iteration terminates.
    ub.flavor = BoxFlavor::Recursive;
    ub.distinct = DistinctMode::Preserve;
    ub.magic_processed = true;
    u
}

/// Give union `u` the columns of its first arm.
fn take_first_arm_columns(qgm: &mut Qgm, u: BoxId) {
    let first = qgm.boxed(u).quants[0];
    let cols: Vec<OutputCol> = qgm
        .boxed(qgm.quant(first).input)
        .columns
        .iter()
        .enumerate()
        .map(|(i, c)| OutputCol {
            name: c.name.clone(),
            expr: ScalarExpr::col(first, i),
        })
        .collect();
    qgm.boxed_mut(u).columns = cols;
}

/// What a growth arm outputs after its bindings (a reversal's record of
/// the bound values the last step of a derivation produced).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Heads {
    /// Nothing: grown magic.
    Dropped,
    /// The step's head value of each derived column: the first step
    /// away from the seed, which is a derivation's last.
    Recorded,
    /// The recorded values of the magic tuple it grows from.
    Carried,
}

/// Feed union `into` one growth arm `MG_<arm>` over magic box `src` per
/// step arm that derives a bound column. For each magic tuple, a growth
/// arm emits the binding the step arm's subgoal needs — preserved
/// columns pass through, derived ones connect the head to the magic
/// tuple and emit the subgoal-side expression (sideways information
/// passing) — followed by the derived columns' head values `heads` asks
/// for.
fn add_growth_arms(
    qgm: &mut Qgm,
    src: BoxId,
    into: BoxId,
    ar: &AdornResult,
    arms: &[RecArmPlan],
    heads: Heads,
) {
    let k = ar.bound.len();
    for plan in arms {
        let Some(rq) = plan.rec_quant else { continue };
        if plan
            .flows
            .iter()
            .all(|f| matches!(f, RecBindingFlow::Preserved))
        {
            continue;
        }
        let g = qgm.add_box(format!("MG_{}", qgm.boxed(plan.arm).name), BoxKind::Select);
        qgm.boxed_mut(g).flavor = BoxFlavor::Magic;
        qgm.boxed_mut(g).magic_processed = true;
        let gm = qgm.add_quant(g, src, QuantKind::Foreach, "m");
        qgm.quant_mut(gm).is_magic = true;
        let mut map: BTreeMap<QuantId, QuantId> = BTreeMap::new();
        let arm_quants = qgm.boxed(plan.arm).quants.clone();
        for aq in arm_quants {
            if aq == rq {
                continue;
            }
            let old = qgm.quant(aq).clone();
            let nq = qgm.add_quant(g, old.input, QuantKind::Foreach, old.name.clone());
            map.insert(aq, nq);
        }
        let mut preds: Vec<ScalarExpr> = qgm
            .boxed(plan.arm)
            .predicates
            .iter()
            .filter(|p| !p.quantifiers().contains(&rq))
            .map(|p| p.remap_quants(&map))
            .collect();
        let mut cols = Vec::new();
        let mut head_cols = Vec::new();
        for ((j, bnd), flow) in ar.bound.iter().enumerate().zip(&plan.flows) {
            let expr = match flow {
                RecBindingFlow::Preserved => ScalarExpr::col(gm, j),
                RecBindingFlow::Derived { head, subgoal } => {
                    let head = head.remap_quants(&map);
                    preds.push(ScalarExpr::eq(ScalarExpr::col(gm, j), head.clone()));
                    let recorded = match heads {
                        Heads::Dropped => None,
                        Heads::Recorded => Some(head),
                        Heads::Carried => Some(ScalarExpr::col(gm, k + head_cols.len())),
                    };
                    if let Some(expr) = recorded {
                        head_cols.push(OutputCol {
                            name: format!("mh{}", bnd.col),
                            expr,
                        });
                    }
                    subgoal.remap_quants(&map)
                }
            };
            cols.push(OutputCol {
                name: format!("mc{}", bnd.col),
                expr,
            });
        }
        cols.extend(head_cols);
        let gb = qgm.boxed_mut(g);
        gb.predicates = preds;
        gb.columns = cols;
        gb.distinct = DistinctMode::Enforce;
        let name = if heads == Heads::Recorded {
            "seed"
        } else {
            "grow"
        };
        qgm.add_quant(into, g, QuantKind::Foreach, name);
    }
}

/// Deep-copy the SCC of `r` for a static seed or grown magic: the union
/// and every arm, rewiring the step arms' recursive quantifiers onto
/// the copy so the cycle closes inside it, and joining `magic` into
/// every arm.
fn copy_scc(qgm: &mut Qgm, r: BoxId, magic: BoxId, ar: &AdornResult, arms: &[RecArmPlan]) -> BoxId {
    let (copy, _) = qgm.copy_box(r, qgm.boxed(r).name.clone());
    {
        let cb = qgm.boxed_mut(copy);
        cb.adornment = Some(ar.adornment.clone());
        cb.magic_processed = true;
    }
    let copy_quants = qgm.boxed(copy).quants.clone();
    for aq in copy_quants {
        let arm = qgm.quant(aq).input;
        let plan = arms
            .iter()
            .find(|p| p.arm == arm)
            .expect("plan covers every arm");
        let (ac, amap) = qgm.copy_box(arm, qgm.boxed(arm).name.clone());
        qgm.boxed_mut(ac).magic_processed = true;
        qgm.retarget(aq, ac);
        if let Some(rq) = plan.rec_quant {
            qgm.retarget(amap[&rq], copy);
        }
        let mq = join_magic(qgm, ac, magic, ar);
        // Join order: magic first (it is the smallest input), then the
        // recursive quantifier so each iteration is driven by the
        // magic-filtered delta and the remaining quantifiers can be
        // index-probed from it.
        let rec_copy = plan.rec_quant.map(|rq| amap[&rq]);
        if let Some(order) = &mut qgm.boxed_mut(ac).join_order {
            order.insert(0, mq);
            if let Some(rc) = rec_copy {
                order.retain(|&x| x != rc);
                order.insert(1, rc);
            }
        }
    }
    copy
}

/// Reverse a separable SCC (`RecursiveMagic::Reversal`). A step arm
/// keeps every unbound column and relates only bound ones, so under
/// UNION `R = B ∘ S*`: the base arms `B` followed by any number of
/// steps `S` on the bound columns. R's tuples bound by seed `m` then
/// come in two kinds, and the copy is a non-recursive union of base-arm
/// copies for each:
///
/// - no step: the base tuples whose bound columns match `m`, as they
///   are;
/// - one step or more: magic fixpoint `y` holds `(z̄, h̄)` when steps
///   lead from bound values `z̄` to a last step whose head values `h̄`
///   match a binding of `m`. The base tuples whose bound columns match
///   `z̄` then derive the tuple that carries `h̄` in its derived
///   columns.
///
/// The derived columns keep the values the steps produced, not the
/// bindings they match: `3` and `3.0` are equal, but not the same
/// output. The UNION keeps R's set semantics.
fn reverse_recursion(
    qgm: &mut Qgm,
    r: BoxId,
    m: BoxId,
    y: BoxId,
    ar: &AdornResult,
    arms: &[RecArmPlan],
) -> BoxId {
    let u = qgm.add_box(
        qgm.boxed(r).name.clone(),
        BoxKind::SetOp(SetOpBox {
            op: SetOpKind::Union,
            all: false,
        }),
    );
    // The bound columns every step arm derives, in `y`'s order (the
    // gate made the step arms agree).
    let derived: Vec<usize> = arms
        .iter()
        .find(|p| p.rec_quant.is_some())
        .map(|p| {
            ar.bound
                .iter()
                .zip(&p.flows)
                .filter(|(_, f)| matches!(f, RecBindingFlow::Derived { .. }))
                .map(|(bnd, _)| bnd.col)
                .collect()
        })
        .unwrap_or_default();
    let k = ar.bound.len();
    for aq in qgm.boxed(r).quants.clone() {
        let arm = qgm.quant(aq).input;
        if arms.iter().any(|p| p.arm == arm && p.rec_quant.is_some()) {
            continue;
        }
        let name = qgm.quant(aq).name.clone();
        for magic in [m, y] {
            let (ac, _) = qgm.copy_box(arm, qgm.boxed(arm).name.clone());
            qgm.boxed_mut(ac).magic_processed = true;
            let mq = join_magic(qgm, ac, magic, ar);
            let acb = qgm.boxed_mut(ac);
            if magic == y {
                for (i, &col) in derived.iter().enumerate() {
                    acb.columns[col].expr = ScalarExpr::col(mq, k + i);
                }
            }
            if let Some(order) = &mut acb.join_order {
                order.insert(0, mq);
            }
            qgm.add_quant(u, ac, QuantKind::Foreach, name.clone());
        }
    }
    let first = qgm.boxed(u).quants[0];
    let cols: Vec<OutputCol> = qgm
        .boxed(r)
        .columns
        .iter()
        .enumerate()
        .map(|(i, c)| OutputCol {
            name: c.name.clone(),
            expr: ScalarExpr::col(first, i),
        })
        .collect();
    qgm.boxed_mut(u).columns = cols;
    let distinct = qgm.boxed(r).distinct;
    let ub = qgm.boxed_mut(u);
    ub.distinct = distinct;
    ub.adornment = Some(ar.adornment.clone());
    ub.magic_processed = true;
    u
}

/// Join magic box `m` into arm copy `ac` as its first quantifier, with
/// one equality per binding between `m`'s leading columns and the
/// arm's bound output columns. Returns the magic quantifier.
fn join_magic(qgm: &mut Qgm, ac: BoxId, m: BoxId, ar: &AdornResult) -> QuantId {
    let mq = qgm.insert_quant_at(ac, 0, m, QuantKind::Foreach, "m");
    qgm.quant_mut(mq).is_magic = true;
    let preds: Vec<ScalarExpr> = ar
        .bound
        .iter()
        .enumerate()
        .map(|(j, bnd)| {
            ScalarExpr::eq(
                ScalarExpr::col(mq, j),
                qgm.boxed(ac).columns[bnd.col].expr.clone(),
            )
        })
        .collect();
    qgm.boxed_mut(ac).predicates.extend(preds);
    mq
}

/// The shape magic took on each recursive reference of a phase-2
/// graph, read back from its adorned union copies: a copy that is still
/// a fixpoint took a static seed or grown magic, depending on whether
/// an arm joins a magic fixpoint; a copy that no longer is one, but
/// with an arm that joins a magic fixpoint, is a reversal.
pub fn recursive_magic_cases(qgm: &Qgm) -> Vec<(BoxId, RecursiveMagic)> {
    qgm.box_ids()
        .into_iter()
        .filter_map(|x| {
            let xb = qgm.boxed(x);
            if xb.adornment.is_none() || !matches!(xb.kind, BoxKind::SetOp(_)) {
                return None;
            }
            let magics: Vec<BoxId> = xb
                .quants
                .iter()
                .flat_map(|&aq| &qgm.boxed(qgm.quant(aq).input).quants)
                .filter(|&&m| qgm.quant(m).is_magic)
                .map(|&m| qgm.quant(m).input)
                .collect();
            if magics.is_empty() {
                return None;
            }
            let grown = magics
                .iter()
                .any(|&m| qgm.boxed(m).flavor == BoxFlavor::Recursive);
            match (xb.flavor == BoxFlavor::Recursive, grown) {
                (true, false) => Some((x, RecursiveMagic::StaticSeed)),
                (true, true) => Some((x, RecursiveMagic::GrownMagic)),
                (false, true) => Some((x, RecursiveMagic::Reversal)),
                (false, false) => None,
            }
        })
        .collect()
}

/// Whether every column reference in `x`'s predicates and outputs is to
/// one of `x`'s own quantifiers (no correlation outward).
fn refs_only_own_quants(qgm: &Qgm, x: BoxId) -> bool {
    let own: BTreeSet<QuantId> = qgm.boxed(x).quants.iter().copied().collect();
    let qb = qgm.boxed(x);
    qb.predicates
        .iter()
        .chain(qb.columns.iter().map(|c| &c.expr))
        .all(|e| e.quantifiers().iter().all(|q2| own.contains(q2)))
}

/// A child is transformable when it is a regular, not-yet-adorned,
/// non-base box that does not participate in a cycle with `b`
/// (recursive references take the dedicated SCC-copy path in
/// [`EmstRule::process_recursive_ref`]; other cycles are left alone),
/// and whose descendants do not correlate back into it — `copy_box` is
/// shallow, so a subquery child referencing the box's own quantifiers
/// would still point at the *original* after the adorned copy is made.
fn transformable(qgm: &Qgm, b: BoxId, child: BoxId) -> bool {
    let cb = qgm.boxed(child);
    if matches!(cb.kind, BoxKind::BaseTable { .. }) {
        return false;
    }
    if cb.flavor != BoxFlavor::Regular || cb.adornment.is_some() {
        return false;
    }
    if qgm.reaches(child, b) {
        return false;
    }
    if has_inward_correlation(qgm, child) {
        return false;
    }
    true
}

/// Whether any box strictly below `x` references one of `x`'s own
/// quantifiers (a subquery correlating back into `x`).
fn has_inward_correlation(qgm: &Qgm, x: BoxId) -> bool {
    let own: BTreeSet<QuantId> = qgm.boxed(x).quants.iter().copied().collect();
    qgm.descendants(x).into_iter().filter(|&y| y != x).any(|y| {
        let qb = qgm.boxed(y);
        let mut exprs: Vec<&ScalarExpr> = qb.predicates.iter().collect();
        exprs.extend(qb.columns.iter().map(|c| &c.expr));
        if let BoxKind::GroupBy(g) = &qb.kind {
            exprs.extend(g.group_keys.iter());
            exprs.extend(g.aggs.iter().filter_map(|a| a.arg.as_ref()));
        }
        if let BoxKind::OuterJoin(oj) = &qb.kind {
            exprs.extend(oj.on.iter());
        }
        exprs
            .iter()
            .any(|e| e.quantifiers().iter().any(|q| own.contains(q)))
    })
}

/// Whether `consumer` may share the adorned `copy`, unioning the magic
/// boxes `contributions` into the copy's: only if the graph stays
/// acyclic. The copy must not reach its new consumer, and no
/// contribution may reach the copy (bindings derived from a prefix that
/// contains it). Either cycle would turn a nonrecursive query into a
/// recursive one — the hazard the paper's introduction names. Both
/// tests follow pending magic links ([`Qgm::reaches`]): a link becomes
/// a quantifier when `process_nmq` fires on a later pass.
fn may_share(
    qgm: &Qgm,
    copy: BoxId,
    consumer: BoxId,
    contributions: impl IntoIterator<Item = BoxId>,
) -> bool {
    !qgm.reaches(copy, consumer) && contributions.into_iter().all(|m| !qgm.reaches(m, copy))
}

/// Key for the adorned-copy memo: adornment plus the condition
/// signature (two users may share a copy only if their condition
/// shapes agree; equality-only users always share per adornment).
fn memo_key(ar: &AdornResult) -> String {
    let mut key = ar.adornment.to_string();
    for c in &ar.conditioned {
        key.push_str(&format!(";{}{}", c.col, c.op.sql()));
    }
    key
}

/// §4.2 step 4(a): a supplementary-magic-box is desirable unless it
/// would sit just before the magic quantifier / the first non-magic
/// quantifier, or would contain a single quantifier with no
/// predicates. We additionally require that no *other* box references
/// the eligible quantifiers (correlation into them), because those
/// references cannot be rewritten through the supplementary box.
fn supplementary_desirable(qgm: &Qgm, b: BoxId, eligible: &[QuantId]) -> bool {
    let non_magic: Vec<QuantId> = eligible
        .iter()
        .copied()
        .filter(|&q| !qgm.quant(q).is_magic)
        .collect();
    if non_magic.is_empty() {
        return false;
    }
    let preds_among = preds_among(qgm, b, eligible);
    if eligible.len() == 1 && preds_among.is_empty() {
        return false;
    }
    // External references into the eligible quantifiers block the split.
    for x in qgm.box_ids() {
        if x == b {
            continue;
        }
        let qb = qgm.boxed(x);
        let mut exprs: Vec<&ScalarExpr> = qb.predicates.iter().collect();
        exprs.extend(qb.columns.iter().map(|c| &c.expr));
        if let BoxKind::GroupBy(g) = &qb.kind {
            exprs.extend(g.group_keys.iter());
            exprs.extend(g.aggs.iter().filter_map(|a| a.arg.as_ref()));
        }
        for e in exprs {
            if e.quantifiers().iter().any(|q| eligible.contains(q)) {
                return false;
            }
        }
    }
    true
}

/// Indexes of `b`'s predicates entirely over the given quantifiers
/// (no subquery tests).
fn preds_among(qgm: &Qgm, b: BoxId, quants: &[QuantId]) -> Vec<usize> {
    qgm.boxed(b)
        .predicates
        .iter()
        .enumerate()
        .filter(|(_, p)| {
            let mut has_quantified = false;
            p.walk(&mut |e| {
                if matches!(e, ScalarExpr::Quantified { .. }) {
                    has_quantified = true;
                }
            });
            if has_quantified {
                return false;
            }
            let qs = p.quantifiers();
            !qs.is_empty() && qs.iter().all(|q| quants.contains(q))
        })
        .map(|(i, _)| i)
        .collect()
}

/// §4.2 step 4(a): move the eligible quantifiers and their predicates
/// into a fresh supplementary-magic-box, leaving a single quantifier
/// over it in `b` (Example 4.11, `sm_query`).
fn build_supplementary(qgm: &mut Qgm, b: BoxId, eligible: &[QuantId]) {
    let sm = qgm.add_box(format!("SM_{}", qgm.boxed(b).name), BoxKind::Select);
    qgm.boxed_mut(sm).flavor = BoxFlavor::SupplementaryMagic;

    // Move predicates among the eligible quantifiers.
    let moved_idxs = preds_among(qgm, b, eligible);
    let mut moved = Vec::new();
    {
        let preds = &mut qgm.boxed_mut(b).predicates;
        for &i in moved_idxs.iter().rev() {
            moved.push(preds.remove(i));
        }
        moved.reverse();
    }

    // Move the quantifiers.
    let position = qgm
        .boxed(b)
        .quants
        .iter()
        .position(|q| eligible.contains(q))
        .unwrap_or(0);
    {
        let bb = qgm.boxed_mut(b);
        bb.quants.retain(|q| !eligible.contains(q));
    }
    for &q in eligible {
        qgm.quant_mut(q).parent = sm;
        qgm.boxed_mut(sm).quants.push(q);
    }
    qgm.boxed_mut(sm).predicates = moved;

    // Output every eligible column still referenced by b.
    let mut referenced: BTreeSet<(QuantId, usize)> = BTreeSet::new();
    {
        let bb = qgm.boxed(b);
        let mut exprs: Vec<&ScalarExpr> = bb.predicates.iter().collect();
        exprs.extend(bb.columns.iter().map(|c| &c.expr));
        for e in exprs {
            e.walk(&mut |sub| {
                if let ScalarExpr::ColRef { quant, col } = sub {
                    if eligible.contains(quant) {
                        referenced.insert((*quant, *col));
                    }
                }
            });
        }
    }
    let referenced: Vec<(QuantId, usize)> = referenced.into_iter().collect();
    let mut offset_of: BTreeMap<(QuantId, usize), usize> = BTreeMap::new();
    let mut cols = Vec::new();
    for (off, &(q, c)) in referenced.iter().enumerate() {
        offset_of.insert((q, c), off);
        let name = qgm.boxed(qgm.quant(q).input).columns[c].name.clone();
        cols.push(OutputCol {
            name,
            expr: ScalarExpr::col(q, c),
        });
    }
    qgm.boxed_mut(sm).columns = cols;

    // Put a quantifier over the supplementary box into b, and rewrite
    // b's references to the moved quantifiers.
    let sm_quant = qgm.insert_quant_at(b, position, sm, QuantKind::Foreach, "sm");
    qgm.quant_mut(sm_quant).is_magic = true;
    {
        // Join order: the supplementary quantifier replaces its pieces.
        let bb = qgm.boxed_mut(b);
        if let Some(order) = &mut bb.join_order {
            order.retain(|q| !eligible.contains(q));
            order.insert(0, sm_quant);
        }
    }
    let rewrite = |e: &ScalarExpr| {
        e.map_colrefs(&mut |quant, col| match offset_of.get(&(quant, col)) {
            Some(&off) => ScalarExpr::col(sm_quant, off),
            None => ScalarExpr::ColRef { quant, col },
        })
    };
    let bb = qgm.boxed_mut(b);
    for p in &mut bb.predicates {
        *p = rewrite(p);
    }
    for c in &mut bb.columns {
        c.expr = rewrite(&c.expr);
    }
}

/// §4.2 step 4(b): build a magic-box (or condition-magic-box): a
/// DISTINCT projection of the binding expressions over fresh
/// quantifiers copied from the *connected* eligible quantifiers, with
/// the connecting predicates.
fn build_magic_box(
    qgm: &mut Qgm,
    b: BoxId,
    eligible: &BTreeSet<QuantId>,
    bindings: &[Binding],
    name: &str,
    flavor: BoxFlavor,
) -> BoxId {
    // Connected pruning: start from quantifiers in the binding
    // expressions, expand through predicates among eligible.
    let mut needed: BTreeSet<QuantId> = BTreeSet::new();
    for bnd in bindings {
        needed.extend(bnd.other.quantifiers());
    }
    needed.retain(|q| eligible.contains(q));
    let eligible_vec: Vec<QuantId> = eligible.iter().copied().collect();
    loop {
        let mut grew = false;
        for &i in &preds_among(qgm, b, &eligible_vec) {
            let qs = qgm.boxed(b).predicates[i].quantifiers();
            if qs.iter().any(|q| needed.contains(q)) {
                for q in qs {
                    // Never expand through adorned copies: joining a
                    // shared copy into its own (future) magic input
                    // would make the query recursive, and the slightly
                    // wider magic set from stopping early is always
                    // sound (magic only restricts).
                    let over_adorned = qgm.boxed(qgm.quant(q).input).adornment.is_some();
                    if eligible.contains(&q) && !over_adorned && needed.insert(q) {
                        grew = true;
                    }
                }
            }
        }
        if !grew {
            break;
        }
    }

    let magic = qgm.add_box(name.to_string(), BoxKind::Select);
    qgm.boxed_mut(magic).flavor = flavor;
    qgm.boxed_mut(magic).distinct = DistinctMode::Enforce;

    // Fresh quantifiers over the same inputs.
    let mut map: BTreeMap<QuantId, QuantId> = BTreeMap::new();
    for &q in &needed {
        let old = qgm.quant(q).clone();
        let nq = qgm.add_quant(magic, old.input, QuantKind::Foreach, old.name.clone());
        qgm.quant_mut(nq).is_magic = old.is_magic;
        map.insert(q, nq);
    }
    // Copy the connecting predicates.
    let needed_vec: Vec<QuantId> = needed.iter().copied().collect();
    let pred_idxs = preds_among(qgm, b, &needed_vec);
    let copied: Vec<ScalarExpr> = pred_idxs
        .iter()
        .map(|&i| qgm.boxed(b).predicates[i].remap_quants(&map))
        .collect();
    qgm.boxed_mut(magic).predicates = copied;

    // Output the binding expressions (ascending binding column).
    let cols: Vec<OutputCol> = bindings
        .iter()
        .map(|bnd| OutputCol {
            name: format!("mc{}", bnd.col),
            expr: bnd.other.remap_quants(&map),
        })
        .collect();
    qgm.boxed_mut(magic).columns = cols;
    magic
}

/// Attach magic inputs to a fresh adorned copy: a joined magic
/// quantifier for AMQ boxes (with the binding equalities), an
/// existential semi-join for condition magic, a link for NMQ boxes.
fn attach_magic(
    registry: &OpRegistry,
    qgm: &mut Qgm,
    copy: BoxId,
    magic: Option<BoxId>,
    cond_magic: Option<BoxId>,
    ar: &AdornResult,
) {
    if registry.accepts_magic_quantifier(qgm, copy) {
        if let Some(m) = magic {
            let mq = qgm.insert_quant_at(copy, 0, m, QuantKind::Foreach, "m");
            qgm.quant_mut(mq).is_magic = true;
            let preds: Vec<ScalarExpr> = ar
                .bound
                .iter()
                .enumerate()
                .map(|(j, bnd)| {
                    ScalarExpr::eq(
                        ScalarExpr::col(mq, j),
                        qgm.boxed(copy).columns[bnd.col].expr.clone(),
                    )
                })
                .collect();
            let cb = qgm.boxed_mut(copy);
            cb.predicates.extend(preds);
            if let Some(order) = &mut cb.join_order {
                order.insert(0, mq);
            }
        }
        if let Some(cm) = cond_magic {
            let cq = qgm.add_quant(copy, cm, QuantKind::Existential { negated: false }, "cm");
            qgm.quant_mut(cq).is_magic = true;
            let preds: Vec<ScalarExpr> = ar
                .conditioned
                .iter()
                .enumerate()
                .map(|(j, bnd)| ScalarExpr::Bin {
                    op: bnd.op,
                    left: Box::new(qgm.boxed(copy).columns[bnd.col].expr.clone()),
                    right: Box::new(ScalarExpr::col(cq, j)),
                })
                .collect();
            qgm.boxed_mut(copy).predicates.push(ScalarExpr::Quantified {
                mode: QuantMode::Exists,
                quant: cq,
                preds,
            });
        }
    } else {
        // NMQ: link the magic box; the restriction travels further when
        // the cursor reaches the copy (process_nmq).
        if let Some(m) = magic {
            qgm.boxed_mut(copy).magic_links.push(m);
        }
        // Conditions were cleared for NMQ children during adornment.
        debug_assert!(cond_magic.is_none());
    }
}

/// Grow an existing magic box into a union with an addition — "the
/// magic-box is either a select-box, or a union-box" (§4.1). Every
/// user of the existing box (quantifiers and links) is retargeted to
/// the union.
fn extend_with_union(qgm: &mut Qgm, existing: BoxId, addition: BoxId) -> BoxId {
    if existing == addition {
        return existing;
    }
    // Already a magic union? Just add an arm.
    if matches!(qgm.boxed(existing).kind, BoxKind::SetOp(s) if s.op == SetOpKind::Union)
        && qgm.boxed(existing).flavor != BoxFlavor::Regular
    {
        qgm.add_quant(existing, addition, QuantKind::Foreach, "arm");
        return existing;
    }
    let users = qgm.users(existing);
    let link_owners: Vec<BoxId> = qgm
        .box_ids()
        .into_iter()
        .filter(|&x| qgm.boxed(x).magic_links.contains(&existing))
        .collect();
    let flavor = qgm.boxed(existing).flavor;
    let u = qgm.add_box(
        format!("U_{}", qgm.boxed(existing).name),
        BoxKind::SetOp(SetOpBox {
            op: SetOpKind::Union,
            all: false,
        }),
    );
    let lq = qgm.add_quant(u, existing, QuantKind::Foreach, "l");
    qgm.add_quant(u, addition, QuantKind::Foreach, "r");
    let cols: Vec<OutputCol> = qgm
        .boxed(existing)
        .columns
        .iter()
        .enumerate()
        .map(|(i, c)| OutputCol {
            name: c.name.clone(),
            expr: ScalarExpr::col(lq, i),
        })
        .collect();
    {
        let ub = qgm.boxed_mut(u);
        ub.columns = cols;
        ub.flavor = flavor;
        ub.distinct = DistinctMode::Preserve; // non-ALL union dedups
    }
    for q in users {
        if qgm.quant(q).parent != u {
            qgm.retarget(q, u);
        }
    }
    for owner in link_owners {
        for l in &mut qgm.boxed_mut(owner).magic_links {
            if *l == existing {
                *l = u;
            }
        }
    }
    u
}

/// Combine multiple linked magic boxes of an NMQ box into one.
fn combine_links(qgm: &mut Qgm, b: BoxId) -> BoxId {
    let links = qgm.boxed(b).magic_links.clone();
    let mut it = links.into_iter();
    let first = it.next().expect("caller checked non-empty");
    let mut acc = first;
    for next in it {
        acc = extend_with_union(qgm, acc, next);
    }
    qgm.boxed_mut(b).magic_links = vec![acc];
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use starmagic_catalog::{generator, Catalog, ViewDef};
    use starmagic_qgm::{build_qgm, printer};
    use starmagic_rewrite::engine::RewriteEngine;
    use starmagic_rewrite::rules::{
        DistinctPullup, LocalPredicatePushdown, Merge, RedundantSelfJoin, SimplifyPredicates,
    };

    /// Catalog with the paper's views (Example 1.1).
    fn paper_catalog() -> Catalog {
        let mut c = generator::benchmark_catalog(generator::Scale::small()).unwrap();
        c.add_view(
            ViewDef::new(
                "mgrsal",
                vec![
                    "empno".into(),
                    "empname".into(),
                    "workdept".into(),
                    "salary".into(),
                ],
                "SELECT e.empno, e.empname, e.workdept, e.salary \
                       FROM employee e, department d WHERE e.empno = d.mgrno",
                false,
            )
            .unwrap(),
        )
        .unwrap();
        c.add_view(
            ViewDef::new(
                "avgmgrsal",
                vec!["workdept".into(), "avgsalary".into()],
                "SELECT workdept, AVG(salary) FROM mgrsal GROUP BY workdept",
                false,
            )
            .unwrap(),
        )
        .unwrap();
        c
    }

    const QUERY_D: &str = "SELECT d.deptname, s.workdept, s.avgsalary \
                           FROM department d, avgmgrsal s \
                           WHERE d.deptno = s.workdept AND d.deptname = 'Planning'";

    /// Run the three-phase pipeline of Figure 3 (without the plan
    /// optimizer in the loop — join orders fall back to FROM order,
    /// which for query D matches the paper's (department ⋈ avgMgrSal)).
    fn run_phases(cat: &Catalog, sql_text: &str) -> (Qgm, Qgm, Qgm) {
        let reg = OpRegistry::new();
        let engine = RewriteEngine::default();
        let mut g = build_qgm(cat, &starmagic_sql::parse_query(sql_text).unwrap()).unwrap();

        // Phase 1: everything except EMST.
        engine
            .run(
                &mut g,
                cat,
                &reg,
                &[
                    &SimplifyPredicates,
                    &Merge,
                    &LocalPredicatePushdown,
                    &DistinctPullup,
                    &RedundantSelfJoin,
                ],
            )
            .unwrap();
        g.garbage_collect(false);
        g.validate().unwrap();
        let phase1 = g.clone();

        // Plan optimization would deposit join orders here.
        starmagic_planner::annotate_join_orders(&mut g, cat);

        // Phase 2: EMST active (plus the other rules).
        let emst = EmstRule::new();
        engine
            .run(
                &mut g,
                cat,
                &reg,
                &[&SimplifyPredicates, &emst, &DistinctPullup],
            )
            .unwrap();
        g.garbage_collect(true);
        g.validate().unwrap();
        let phase2 = g.clone();

        // Phase 3: EMST disabled; links consumed; simplify the graph.
        for b in g.box_ids() {
            g.boxed_mut(b).magic_links.clear();
        }
        engine
            .run(
                &mut g,
                cat,
                &reg,
                &[
                    &SimplifyPredicates,
                    &Merge,
                    &LocalPredicatePushdown,
                    &DistinctPullup,
                    &RedundantSelfJoin,
                ],
            )
            .unwrap();
        g.garbage_collect(false);
        g.validate().unwrap();
        (phase1, phase2, g)
    }

    fn names(g: &Qgm) -> Vec<String> {
        g.box_ids()
            .into_iter()
            .map(|b| g.boxed(b).display_name())
            .collect()
    }

    #[test]
    fn query_d_phase2_creates_the_papers_boxes() {
        let cat = paper_catalog();
        let (_p1, p2, _p3) = run_phases(&cat, QUERY_D);
        let ns = names(&p2);
        let dump = printer::print_graph(&p2);
        // Supplementary box for the QUERY block (sm_query, SD5).
        assert!(
            ns.iter().any(|n| n.starts_with("SM_QUERY")),
            "supplementary box missing:\n{dump}"
        );
        // Adorned group-by copy avgMgrSal^bf: the group-by box carries
        // the bf adornment.
        assert!(
            ns.iter().any(|n| n.ends_with("^bf")),
            "bf adornment missing:\n{dump}"
        );
        // Adorned mgrSal^ffbf copy (the merged T1 join box).
        assert!(
            ns.iter().any(|n| n.ends_with("^ffbf")),
            "ffbf adornment missing:\n{dump}"
        );
        // Magic boxes for both (MD3/MD4 a.k.a. SD3/SD4).
        let magic_count = p2
            .box_ids()
            .into_iter()
            .filter(|&b| p2.boxed(b).flavor == BoxFlavor::Magic)
            .count();
        assert!(magic_count >= 2, "expected two magic boxes:\n{dump}");
    }

    #[test]
    fn query_d_phase2_magic_tables_proven_duplicate_free() {
        let cat = paper_catalog();
        let (_p1, p2, _p3) = run_phases(&cat, QUERY_D);
        // The distinct pullup must have fired on the magic boxes: none
        // of them still Enforce (paper: "no need to eliminate
        // duplicates from the magic tables").
        for b in p2.box_ids() {
            let qb = p2.boxed(b);
            if qb.flavor == BoxFlavor::Magic {
                assert_ne!(
                    qb.distinct,
                    DistinctMode::Enforce,
                    "magic box {} still enforces distinct:\n{}",
                    qb.display_name(),
                    printer::print_graph(&p2)
                );
            }
        }
    }

    #[test]
    fn query_d_phase3_merges_magic_boxes_away() {
        let cat = paper_catalog();
        let (_p1, p2, p3) = run_phases(&cat, QUERY_D);
        let dump = printer::print_graph(&p3);
        // SD3/SD4 eliminated: no magic-flavored select boxes survive.
        let magic_count = p3
            .box_ids()
            .into_iter()
            .filter(|&b| p3.boxed(b).flavor == BoxFlavor::Magic)
            .count();
        assert_eq!(magic_count, 0, "magic boxes should merge away:\n{dump}");
        // The supplementary box survives, shared by QUERY and the
        // mgrSal^ffbf copy (SD2' references sm_query).
        let sm = p3
            .box_ids()
            .into_iter()
            .find(|&b| p3.boxed(b).flavor == BoxFlavor::SupplementaryMagic)
            .unwrap_or_else(|| panic!("supplementary box missing:\n{dump}"));
        assert_eq!(p3.users(sm).len(), 2, "sm_query shared twice:\n{dump}");
        // Phase 3 has fewer boxes than phase 2.
        assert!(p3.box_count() < p2.box_count());
    }

    #[test]
    fn query_d_final_shape_matches_figure_4() {
        let cat = paper_catalog();
        let (p1, _p2, p3) = run_phases(&cat, QUERY_D);
        // Phase 1 (upper right): QUERY, groupby, T1, DEPARTMENT,
        // EMPLOYEE = 5 boxes.
        assert_eq!(p1.box_count(), 5, "\n{}", printer::print_graph(&p1));
        // Final (lower right): QUERY, SM_QUERY, groupby^bf, T1^ffbf,
        // DEPARTMENT, EMPLOYEE = 6 boxes — "only one extra box, and
        // only one extra join".
        assert_eq!(p3.box_count(), 6, "\n{}", printer::print_graph(&p3));
    }

    #[test]
    fn simple_filtered_view_gets_magic() {
        // Even a plain select view is restricted through magic when the
        // view is shared (phase-1 pushdown cannot touch shared views).
        let mut cat = generator::benchmark_catalog(generator::Scale::small()).unwrap();
        cat.add_view(
            ViewDef::new(
                "rich",
                vec!["empno".into(), "workdept".into()],
                "SELECT empno, workdept FROM employee WHERE salary > 50000",
                false,
            )
            .unwrap(),
        )
        .unwrap();
        let (_p1, p2, _p3) = run_phases(
            &cat,
            "SELECT a.empno, b.empno FROM rich a, rich b, department d \
             WHERE a.workdept = d.deptno AND b.workdept = d.deptno \
             AND d.deptname = 'Planning'",
        );
        let dump = printer::print_graph(&p2);
        // Both users have the same adornment — they share one adorned
        // copy whose magic input grew into a union.
        let adorned: Vec<_> = p2
            .box_ids()
            .into_iter()
            .filter(|&b| {
                p2.boxed(b)
                    .adornment
                    .as_ref()
                    .is_some_and(|a| !a.is_all_free())
            })
            .collect();
        assert_eq!(adorned.len(), 1, "shared adorned copy:\n{dump}");
        assert_eq!(p2.users(adorned[0]).len(), 2, "\n{dump}");
    }

    #[test]
    fn condition_predicates_push_as_condition_magic() {
        let mut cat = generator::benchmark_catalog(generator::Scale::small()).unwrap();
        cat.add_view(
            ViewDef::new(
                "pay",
                vec!["empno".into(), "salary".into()],
                "SELECT empno, salary FROM employee",
                false,
            )
            .unwrap(),
        )
        .unwrap();
        // Shared view forces magic (no local pushdown), and the join
        // predicate is a range: condition magic.
        let (_p1, p2, _p3) = run_phases(
            &cat,
            "SELECT a.empno FROM department d, pay a, pay b \
             WHERE a.salary > d.budget AND b.empno = d.mgrno",
        );
        let dump = printer::print_graph(&p2);
        let cm = p2
            .box_ids()
            .into_iter()
            .filter(|&b| p2.boxed(b).flavor == BoxFlavor::ConditionMagic)
            .count();
        assert!(cm >= 1, "condition-magic box expected:\n{dump}");
        // Some adorned copy carries a c adornment.
        assert!(
            names(&p2)
                .iter()
                .any(|n| n.contains('c') && n.contains('^')),
            "c adornment expected:\n{dump}"
        );
    }

    #[test]
    fn emst_is_idempotent_at_fixpoint() {
        let cat = paper_catalog();
        let (_p1, mut p2, _p3) = run_phases(&cat, QUERY_D);
        // Re-running EMST on the phase-2 output must change nothing.
        let reg = OpRegistry::new();
        let emst = EmstRule::new();
        let stats = RewriteEngine::default()
            .run(&mut p2, &cat, &reg, &[&emst])
            .unwrap();
        assert_eq!(stats.count("emst"), 0);
    }

    #[test]
    fn base_table_only_query_is_untouched() {
        let cat = paper_catalog();
        let (p1, p2, _p3) = run_phases(
            &cat,
            "SELECT e.empno FROM employee e, department d WHERE e.workdept = d.deptno",
        );
        // No views: EMST has nothing to restrict ("all referenced
        // tables are either magic tables or stored tables").
        assert_eq!(p1.box_count(), p2.box_count());
    }
}

#[cfg(test)]
mod decorrelation_tests {
    use super::*;
    use starmagic_catalog::{generator, Catalog};
    use starmagic_qgm::{build_qgm, printer};
    use starmagic_rewrite::engine::RewriteEngine;
    use starmagic_rewrite::rules::{DistinctPullup, SimplifyPredicates};

    fn run_emst(cat: &Catalog, sql_text: &str) -> Qgm {
        let mut g = build_qgm(cat, &starmagic_sql::parse_query(sql_text).unwrap()).unwrap();
        starmagic_planner::annotate_join_orders(&mut g, cat);
        let emst = EmstRule::new();
        RewriteEngine::default()
            .run(
                &mut g,
                cat,
                &OpRegistry::new(),
                &[&SimplifyPredicates, &emst, &DistinctPullup],
            )
            .unwrap();
        g.garbage_collect(true);
        g.validate().unwrap();
        g
    }

    fn catalog() -> Catalog {
        generator::benchmark_catalog(generator::Scale::small()).unwrap()
    }

    /// No subquery in the graph references quantifiers outside its
    /// subtree.
    fn is_fully_decorrelated(g: &Qgm) -> bool {
        g.box_ids().into_iter().all(|b| {
            g.boxed(b).quants.iter().all(|&q| {
                g.quant(q).kind.is_foreach()
                    || !starmagic_planner::cost::is_correlated_subtree(g, g.quant(q).input)
            })
        })
    }

    #[test]
    fn exists_subquery_is_decorrelated() {
        let cat = catalog();
        let g = run_emst(
            &cat,
            "SELECT d.deptname FROM department d WHERE EXISTS \
             (SELECT 1 FROM employee e WHERE e.workdept = d.deptno AND e.salary > 70000)",
        );
        let dump = printer::print_graph(&g);
        assert!(is_fully_decorrelated(&g), "still correlated:\n{dump}");
        // A magic box now feeds the subquery.
        assert!(dump.contains("[magic]"), "{dump}");
    }

    #[test]
    fn in_subquery_with_correlation_is_decorrelated() {
        let cat = catalog();
        let g = run_emst(
            &cat,
            "SELECT e.empno FROM employee e WHERE e.empno IN \
             (SELECT d.mgrno FROM department d WHERE d.deptno = e.workdept)",
        );
        assert!(is_fully_decorrelated(&g), "{}", printer::print_graph(&g));
    }

    #[test]
    fn not_exists_is_left_correlated() {
        // Negated existentials are excluded (Unknown/False are not
        // interchangeable under NOT) — the subquery must stay as is.
        let cat = catalog();
        let g = run_emst(
            &cat,
            "SELECT d.deptname FROM department d WHERE NOT EXISTS \
             (SELECT 1 FROM employee e WHERE e.workdept = d.deptno AND e.salary > 70000)",
        );
        assert!(!is_fully_decorrelated(&g));
    }

    #[test]
    fn correlated_aggregation_is_left_alone() {
        // The correlation sits below a group-by (inside the triplet's
        // T1), out of the safe pattern.
        let cat = catalog();
        let g = run_emst(
            &cat,
            "SELECT e.empno FROM employee e WHERE e.salary > \
             (SELECT AVG(f.salary) FROM employee f WHERE f.workdept = e.workdept)",
        );
        assert!(!is_fully_decorrelated(&g));
    }

    #[test]
    fn decorrelation_reduces_work() {
        let cat = generator::benchmark_catalog(generator::Scale {
            departments: 50,
            emps_per_dept: 20,
            projects_per_dept: 3,
            acts_per_emp: 2,
            seed: 7,
        })
        .unwrap();
        // The decorrelation win: the outer (employee) repeats each
        // binding ~20 times. Correlated evaluation re-runs the
        // subquery per employee; the decorrelated plan computes it
        // once over the DISTINCT magic bindings.
        let sql = "SELECT e.empno FROM employee e WHERE EXISTS \
                   (SELECT 1 FROM employee f, emp_act a \
                    WHERE f.workdept = e.workdept AND a.empno = f.empno AND a.hours > 30)";
        // Correlated evaluation (no EMST).
        let g1 = build_qgm(&cat, &starmagic_sql::parse_query(sql).unwrap()).unwrap();
        let (r1, m1) = starmagic_exec::execute_with_metrics(&g1, &cat).unwrap();
        // Decorrelated through magic.
        let g2 = run_emst(&cat, sql);
        let (r2, m2) = starmagic_exec::execute_with_metrics(&g2, &cat).unwrap();
        let mut r1s = r1;
        let mut r2s = r2;
        r1s.sort_by(starmagic_common::Row::group_cmp);
        r2s.sort_by(starmagic_common::Row::group_cmp);
        assert_eq!(r1s, r2s, "decorrelation changed results");
        assert!(
            m2.work() < m1.work(),
            "decorrelated {} !< correlated {}",
            m2.work(),
            m1.work()
        );
    }

    #[test]
    fn decorrelated_plan_matches_correlated_results_on_nulls() {
        // NULL workdept employees: the EXISTS must behave identically.
        let mut cat = Catalog::new();
        use starmagic_catalog::{ColumnDef, Table, TableSchema};
        use starmagic_common::{DataType, Row, Value};
        cat.add_table(
            Table::with_rows(
                TableSchema::new(
                    "t",
                    vec![
                        ColumnDef::new("id", DataType::Int),
                        ColumnDef::new("k", DataType::Int),
                    ],
                )
                .with_key(&["id"])
                .unwrap(),
                vec![
                    Row::new(vec![Value::Int(1), Value::Int(10)]),
                    Row::new(vec![Value::Int(2), Value::Null]),
                    Row::new(vec![Value::Int(3), Value::Int(30)]),
                ],
            )
            .unwrap(),
        )
        .unwrap();
        cat.add_table(
            Table::with_rows(
                TableSchema::new(
                    "u",
                    vec![
                        ColumnDef::new("uid", DataType::Int),
                        ColumnDef::new("k", DataType::Int),
                    ],
                )
                .with_key(&["uid"])
                .unwrap(),
                vec![
                    Row::new(vec![Value::Int(7), Value::Int(10)]),
                    Row::new(vec![Value::Int(8), Value::Null]),
                ],
            )
            .unwrap(),
        )
        .unwrap();
        let sql = "SELECT t.id FROM t WHERE EXISTS (SELECT 1 FROM u WHERE u.k = t.k)";
        let g1 = build_qgm(&cat, &starmagic_sql::parse_query(sql).unwrap()).unwrap();
        let (mut r1, _) = starmagic_exec::execute_with_metrics(&g1, &cat).unwrap();
        let g2 = run_emst(&cat, sql);
        let (mut r2, _) = starmagic_exec::execute_with_metrics(&g2, &cat).unwrap();
        r1.sort_by(starmagic_common::Row::group_cmp);
        r2.sort_by(starmagic_common::Row::group_cmp);
        assert_eq!(r1, r2);
        assert_eq!(r1.len(), 1, "only id=1 has a matching k");
    }
}

#[cfg(test)]
mod setop_magic_tests {
    use super::*;
    use starmagic_catalog::{generator, Catalog, ViewDef};
    use starmagic_qgm::{build_qgm, printer};
    use starmagic_rewrite::engine::RewriteEngine;
    use starmagic_rewrite::rules::{DistinctPullup, SimplifyPredicates};

    fn catalog() -> Catalog {
        let mut c = generator::benchmark_catalog(generator::Scale::small()).unwrap();
        // A union view shared by two users so phase-1 pushdown cannot
        // touch it: EMST must restrict it through a linked magic box.
        c.add_view(
            ViewDef::new(
                "people",
                vec!["no".into(), "dept".into()],
                "SELECT empno, workdept FROM employee \
                       UNION ALL SELECT mgrno, deptno FROM department",
                false,
            )
            .unwrap(),
        )
        .unwrap();
        c
    }

    fn run_emst(cat: &Catalog, sql_text: &str) -> Qgm {
        let mut g = build_qgm(cat, &starmagic_sql::parse_query(sql_text).unwrap()).unwrap();
        starmagic_planner::annotate_join_orders(&mut g, cat);
        let emst = EmstRule::new();
        RewriteEngine::default()
            .run(
                &mut g,
                cat,
                &OpRegistry::new(),
                &[&SimplifyPredicates, &emst, &DistinctPullup],
            )
            .unwrap();
        g.garbage_collect(true);
        g.validate().unwrap();
        g
    }

    const SQL: &str = "SELECT a.no, b.no FROM department d, people a, people b \
                       WHERE a.dept = d.deptno AND b.dept = d.deptno \
                       AND d.deptname = 'Planning'";

    #[test]
    fn union_view_gets_adorned_and_arms_get_magic() {
        let cat = catalog();
        let g = run_emst(&cat, SQL);
        let dump = printer::print_graph(&g);
        // The set-op copy carries the adornment.
        let adorned_setop = g
            .box_ids()
            .into_iter()
            .find(|&b| {
                matches!(g.boxed(b).kind, BoxKind::SetOp(_)) && g.boxed(b).adornment.is_some()
            })
            .unwrap_or_else(|| panic!("no adorned set-op box:\n{dump}"));
        // Both arms were copied and joined with magic quantifiers.
        let arms: Vec<BoxId> = g
            .boxed(adorned_setop)
            .quants
            .iter()
            .map(|&q| g.quant(q).input)
            .collect();
        for arm in arms {
            let has_magic_quant = g.boxed(arm).quants.iter().any(|&q| g.quant(q).is_magic);
            assert!(
                has_magic_quant,
                "arm {} not restricted:\n{dump}",
                g.boxed(arm).display_name()
            );
        }
    }

    #[test]
    fn union_magic_preserves_results() {
        let cat = catalog();
        let g0 = build_qgm(&cat, &starmagic_sql::parse_query(SQL).unwrap()).unwrap();
        let (mut r0, m0) = starmagic_exec::execute_with_metrics(&g0, &cat).unwrap();
        let g = run_emst(&cat, SQL);
        let (mut r1, m1) = starmagic_exec::execute_with_metrics(&g, &cat).unwrap();
        r0.sort_by(starmagic_common::Row::group_cmp);
        r1.sort_by(starmagic_common::Row::group_cmp);
        assert_eq!(r0, r1);
        assert!(
            m1.work() < m0.work(),
            "magic through union did not reduce work: {} vs {}",
            m1.work(),
            m0.work()
        );
    }

    #[test]
    fn shared_adorned_copy_gets_union_magic() {
        // Both `a` and `b` bind `people.dept` with the same adornment:
        // they must share one adorned copy whose magic inputs merged.
        let cat = catalog();
        let g = run_emst(&cat, SQL);
        let adorned: Vec<BoxId> = g
            .box_ids()
            .into_iter()
            .filter(|&b| {
                g.boxed(b)
                    .adornment
                    .as_ref()
                    .is_some_and(|a| !a.is_all_free())
                    && matches!(g.boxed(b).kind, BoxKind::SetOp(_))
            })
            .collect();
        assert_eq!(adorned.len(), 1, "one shared adorned copy");
        assert_eq!(g.users(adorned[0]).len(), 2);
    }
}
