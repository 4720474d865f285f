//! Binding analysis: from a box's predicates to a bcf adornment
//! (Algorithm 4.1, adorn-box).

use std::collections::BTreeSet;

use starmagic_qgm::{AdornChar, Adornment, BoxId, Qgm, QuantId, ScalarExpr};
use starmagic_rewrite::OpRegistry;
use starmagic_sql::BinOp;

/// One binding extracted from a predicate: child output column `col`
/// is restricted by `other` (an expression over eligible quantifiers
/// and literals) through comparison `op`. `pred_index` points back at
/// the predicate in the parent box.
#[derive(Debug, Clone, PartialEq)]
pub struct Binding {
    pub col: usize,
    pub op: BinOp,
    pub other: ScalarExpr,
    pub pred_index: usize,
}

impl Binding {
    /// Whether this is an equality binding (`b`) rather than a
    /// condition (`c`).
    pub fn is_equality(&self) -> bool {
        self.op == BinOp::Eq
    }
}

/// Result of adorning one quantifier.
#[derive(Debug, Clone, PartialEq)]
pub struct AdornResult {
    pub adornment: Adornment,
    /// Equality bindings, ascending by column (ties keep first).
    pub bound: Vec<Binding>,
    /// Condition bindings, ascending by column.
    pub conditioned: Vec<Binding>,
}

impl AdornResult {
    pub fn is_all_free(&self) -> bool {
        self.adornment.is_all_free()
    }
}

/// Adorn quantifier `q` of box `b`: find the predicates of `b` that
/// restrict `q` using only `eligible` quantifiers (and literals), map
/// them onto the child's output columns (only direct `ColRef(q, c)`
/// references can be mapped), and filter by the child operation's
/// bindable columns. Mirrors Algorithm 4.1 with the predicate-pushdown
/// knowledge supplied by the registry.
pub fn adorn_quantifier(
    qgm: &Qgm,
    registry: &OpRegistry,
    b: BoxId,
    q: QuantId,
    eligible: &BTreeSet<QuantId>,
) -> AdornResult {
    let child = qgm.quant(q).input;
    let arity = qgm.boxed(child).arity();
    let bindable = registry.bindable_cols(qgm, child);
    let mut bound: Vec<Binding> = Vec::new();
    let mut conditioned: Vec<Binding> = Vec::new();

    for (i, p) in qgm.boxed(b).predicates.iter().enumerate() {
        let Some(binding) = extract_binding(qgm, b, q, eligible, i, p) else {
            continue;
        };
        if !bindable.allows(binding.col) {
            continue;
        }
        if binding.is_equality() {
            if !bound.iter().any(|x| x.col == binding.col) {
                bound.push(binding);
            }
        } else if !conditioned
            .iter()
            .any(|x| x.col == binding.col && x.op == binding.op)
        {
            conditioned.push(binding);
        }
    }
    bound.sort_by_key(|x| x.col);
    conditioned.sort_by_key(|x| x.col);

    let mut chars = vec![AdornChar::Free; arity];
    for c in &conditioned {
        chars[c.col] = AdornChar::Conditioned;
    }
    for bnd in &bound {
        chars[bnd.col] = AdornChar::Bound;
    }
    // NMQ children cannot absorb the condition semi-join; conditions
    // only adorn AMQ children.
    if !registry.accepts_magic_quantifier(qgm, child) {
        for ch in chars.iter_mut() {
            if *ch == AdornChar::Conditioned {
                *ch = AdornChar::Free;
            }
        }
        conditioned.clear();
    }
    AdornResult {
        adornment: Adornment(chars),
        bound,
        conditioned,
    }
}

/// Try to read predicate `p` as `q.col ⟨op⟩ other` (either orientation)
/// where `other` references only eligible quantifiers and literals.
fn extract_binding(
    _qgm: &Qgm,
    b: BoxId,
    q: QuantId,
    eligible: &BTreeSet<QuantId>,
    pred_index: usize,
    p: &ScalarExpr,
) -> Option<Binding> {
    let (op, l, r) = p.as_comparison()?;
    if op == BinOp::Neq {
        return None; // <> restricts nothing useful
    }
    let try_side = |side: &ScalarExpr, other: &ScalarExpr, op: BinOp| -> Option<Binding> {
        let ScalarExpr::ColRef { quant, col } = side else {
            return None;
        };
        if *quant != q {
            return None;
        }
        // `other` must be computable from eligible quantifiers: every
        // referenced quantifier is eligible or correlated (outside b —
        // correlation bindings come from enclosing boxes and are
        // constant during this box's evaluation, so they count as
        // available; however pushing them requires decorrelation
        // machinery, so we restrict to eligible-local expressions).
        let refs = other.quantifiers();
        if refs.is_empty() || refs.iter().all(|x| eligible.contains(x)) {
            let mut has_quantified = false;
            other.walk(&mut |e| {
                if matches!(e, ScalarExpr::Quantified { .. } | ScalarExpr::Agg { .. }) {
                    has_quantified = true;
                }
            });
            if has_quantified {
                return None;
            }
            Some(Binding {
                col: *col,
                op,
                other: other.clone(),
                pred_index,
            })
        } else {
            None
        }
    };
    let _ = b;
    // q.col op other
    if let Some(bnd) = try_side(l, r, op) {
        return Some(bnd);
    }
    // other op q.col  →  q.col flipped(op) other
    let flipped = match op {
        BinOp::Eq => BinOp::Eq,
        BinOp::Lt => BinOp::Gt,
        BinOp::Le => BinOp::Ge,
        BinOp::Gt => BinOp::Lt,
        BinOp::Ge => BinOp::Le,
        other => other,
    };
    try_side(r, l, flipped)
}

#[cfg(test)]
mod tests {
    use super::*;
    use starmagic_catalog::generator;
    use starmagic_qgm::build_qgm;

    fn setup(sql_text: &str) -> (Qgm, OpRegistry) {
        // Wrap employee in a view: adornment targets view boxes (base
        // tables are never adorned — "all referenced tables are either
        // magic tables or stored tables").
        let mut cat = generator::benchmark_catalog(generator::Scale::small()).unwrap();
        cat.add_view(
            starmagic_catalog::ViewDef::new(
                "emp",
                vec![
                    "empno".into(),
                    "empname".into(),
                    "workdept".into(),
                    "salary".into(),
                    "bonus".into(),
                    "yearhired".into(),
                ],
                "SELECT empno, empname, workdept, salary, bonus, yearhired FROM employee",
                false,
            )
            .unwrap(),
        )
        .unwrap();
        let g = build_qgm(&cat, &starmagic_sql::parse_query(sql_text).unwrap()).unwrap();
        (g, OpRegistry::new())
    }

    fn quant_named(g: &Qgm, b: BoxId, name: &str) -> QuantId {
        *g.boxed(b)
            .quants
            .iter()
            .find(|&&q| g.quant(q).name == name)
            .unwrap()
    }

    #[test]
    fn equality_with_eligible_binds() {
        let (g, reg) = setup("SELECT e.empno FROM department d, emp e WHERE e.workdept = d.deptno");
        let top = g.top();
        let d = quant_named(&g, top, "d");
        let e = quant_named(&g, top, "e");
        let eligible: BTreeSet<_> = [d].into_iter().collect();
        let r = adorn_quantifier(&g, &reg, top, e, &eligible);
        assert_eq!(r.adornment.to_string(), "ffbfff");
        assert_eq!(r.bound.len(), 1);
        assert_eq!(r.bound[0].col, 2);
    }

    #[test]
    fn ineligible_source_does_not_bind() {
        let (g, reg) = setup("SELECT e.empno FROM department d, emp e WHERE e.workdept = d.deptno");
        let top = g.top();
        let e = quant_named(&g, top, "e");
        let r = adorn_quantifier(&g, &reg, top, e, &BTreeSet::new());
        assert!(r.is_all_free());
    }

    #[test]
    fn literal_equality_binds() {
        let (g, reg) = setup("SELECT e.empno FROM emp e WHERE e.workdept = 3");
        let top = g.top();
        let e = quant_named(&g, top, "e");
        let r = adorn_quantifier(&g, &reg, top, e, &BTreeSet::new());
        assert_eq!(r.adornment.to_string(), "ffbfff");
    }

    #[test]
    fn range_predicate_gives_condition_adornment() {
        let (g, reg) = setup("SELECT e.empno FROM department d, emp e WHERE e.salary > d.budget");
        let top = g.top();
        let d = quant_named(&g, top, "d");
        let e = quant_named(&g, top, "e");
        let eligible: BTreeSet<_> = [d].into_iter().collect();
        let r = adorn_quantifier(&g, &reg, top, e, &eligible);
        assert_eq!(r.adornment.to_string(), "fffcff");
        assert_eq!(r.conditioned.len(), 1);
        assert_eq!(r.conditioned[0].op, BinOp::Gt);
    }

    #[test]
    fn flipped_comparison_is_normalized() {
        let (g, reg) = setup("SELECT e.empno FROM department d, emp e WHERE d.budget < e.salary");
        let top = g.top();
        let d = quant_named(&g, top, "d");
        let e = quant_named(&g, top, "e");
        let eligible: BTreeSet<_> = [d].into_iter().collect();
        let r = adorn_quantifier(&g, &reg, top, e, &eligible);
        // d.budget < e.salary  ≡  e.salary > d.budget
        assert_eq!(r.conditioned[0].op, BinOp::Gt);
        assert_eq!(r.conditioned[0].col, 3);
    }

    #[test]
    fn groupby_child_binds_only_group_keys() {
        let cat = {
            let mut c = generator::benchmark_catalog(generator::Scale::small()).unwrap();
            c.add_view(
                starmagic_catalog::ViewDef::new(
                    "deptavg",
                    vec!["workdept".into(), "avgsal".into()],
                    "SELECT workdept, AVG(salary) FROM employee GROUP BY workdept",
                    false,
                )
                .unwrap(),
            )
            .unwrap();
            c
        };
        let g = build_qgm(
            &cat,
            &starmagic_sql::parse_query(
                "SELECT v.avgsal FROM department d, deptavg v \
                 WHERE v.workdept = d.deptno AND v.avgsal > d.budget",
            )
            .unwrap(),
        )
        .unwrap();
        let reg = OpRegistry::new();
        let top = g.top();
        let d = quant_named(&g, top, "d");
        let v = quant_named(&g, top, "v");
        let eligible: BTreeSet<_> = [d].into_iter().collect();
        // v ranges over the view shell (select box T3) — bindable All.
        // Force the interesting case: bind through the group-by by
        // checking a T3-over-T2 structure indirectly: the view shell is
        // a select box, so both columns bind; the c adornment survives
        // because select is AMQ.
        let r = adorn_quantifier(&g, &reg, top, v, &eligible);
        assert_eq!(r.adornment.to_string(), "bc");
    }

    #[test]
    fn neq_never_binds() {
        let (g, reg) =
            setup("SELECT e.empno FROM department d, emp e WHERE e.workdept <> d.deptno");
        let top = g.top();
        let d = quant_named(&g, top, "d");
        let e = quant_named(&g, top, "e");
        let eligible: BTreeSet<_> = [d].into_iter().collect();
        let r = adorn_quantifier(&g, &reg, top, e, &eligible);
        assert!(r.is_all_free());
    }
}
