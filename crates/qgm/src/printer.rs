//! Textual rendering of a query graph, used by EXPLAIN, the figure
//! reproduction binary, and the golden tests.

use std::fmt::Write as _;

use crate::boxes::{BoxKind, DistinctMode, QuantKind};
use crate::expr::ScalarExpr;
use crate::graph::Qgm;
use crate::ids::BoxId;

/// Render the whole graph, one block per box, in [`Qgm::preorder`].
pub fn print_graph(qgm: &Qgm) -> String {
    let mut out = String::new();
    for b in qgm.preorder() {
        out.push_str(&print_box(qgm, b));
        out.push('\n');
    }
    out
}

/// Render one box.
pub fn print_box(qgm: &Qgm, b: BoxId) -> String {
    let qb = qgm.boxed(b);
    let mut out = String::new();
    let flavor = match qb.flavor {
        crate::boxes::BoxFlavor::Regular => "",
        crate::boxes::BoxFlavor::Magic => " [magic]",
        crate::boxes::BoxFlavor::ConditionMagic => " [condition-magic]",
        crate::boxes::BoxFlavor::SupplementaryMagic => " [supplementary-magic]",
        crate::boxes::BoxFlavor::Recursive => " [recursive]",
    };
    let distinct = match qb.distinct {
        DistinctMode::Enforce => " DISTINCT",
        DistinctMode::Preserve => " dup-free",
        DistinctMode::Permit => "",
    };
    let _ = writeln!(
        out,
        "{} := {}{}{}",
        qb.display_name(),
        qb.kind.label(),
        distinct,
        flavor
    );
    if let BoxKind::BaseTable { table } = &qb.kind {
        let _ = writeln!(out, "  stored table '{table}'");
        return out;
    }
    if !qb.quants.is_empty() {
        let names: Vec<String> = qb
            .quants
            .iter()
            .map(|&q| {
                let quant = qgm.quant(q);
                format!(
                    "{}:{} over {}",
                    quant.kind.tag(),
                    quant.name,
                    qgm.boxed(quant.input).display_name()
                )
            })
            .collect();
        let _ = writeln!(out, "  from: {}", names.join(", "));
    }
    if let Some(order) = &qb.join_order {
        let names: Vec<&str> = order.iter().map(|&q| qgm.quant(q).name.as_str()).collect();
        let _ = writeln!(out, "  join order: {}", names.join(" >< "));
    }
    for p in &qb.predicates {
        let _ = writeln!(out, "  where: {}", expr_str(qgm, b, p));
    }
    if let BoxKind::GroupBy(g) = &qb.kind {
        if !g.group_keys.is_empty() {
            let keys: Vec<String> = g.group_keys.iter().map(|k| expr_str(qgm, b, k)).collect();
            let _ = writeln!(out, "  group by: {}", keys.join(", "));
        }
    }
    if let BoxKind::OuterJoin(oj) = &qb.kind {
        for p in &oj.on {
            let _ = writeln!(out, "  on: {}", expr_str(qgm, b, p));
        }
    }
    let cols: Vec<String> = qb
        .columns
        .iter()
        .map(|c| format!("{}={}", c.name, expr_str(qgm, b, &c.expr)))
        .collect();
    let _ = writeln!(out, "  cols: {}", cols.join(", "));
    if !qb.magic_links.is_empty() {
        let links: Vec<String> = qb
            .magic_links
            .iter()
            .map(|&m| qgm.boxed(m).display_name())
            .collect();
        let _ = writeln!(out, "  magic links: {}", links.join(", "));
    }
    out
}

/// Render an expression with quantifier/column names instead of ids.
/// Correlated references (to quantifiers of other boxes) are marked.
pub fn expr_str(qgm: &Qgm, home: BoxId, e: &ScalarExpr) -> String {
    match e {
        ScalarExpr::ColRef { quant, col } => {
            let q = qgm.quant(*quant);
            let colname = qgm
                .boxed(q.input)
                .columns
                .get(*col)
                .map_or_else(|| format!("#{col}"), |c| c.name.clone());
            if q.parent == home {
                format!("{}.{}", q.name, colname)
            } else {
                format!("outer({}).{}", q.name, colname)
            }
        }
        ScalarExpr::Literal(v) => v.to_string(),
        ScalarExpr::Param(i) => format!("?{}", i + 1),
        ScalarExpr::Bin { op, left, right } => format!(
            "{} {} {}",
            expr_str(qgm, home, left),
            op.sql(),
            expr_str(qgm, home, right)
        ),
        ScalarExpr::Neg(x) => format!("-({})", expr_str(qgm, home, x)),
        ScalarExpr::Not(x) => format!("NOT ({})", expr_str(qgm, home, x)),
        ScalarExpr::IsNull { expr, negated } => format!(
            "{} IS {}NULL",
            expr_str(qgm, home, expr),
            if *negated { "NOT " } else { "" }
        ),
        ScalarExpr::Like {
            expr,
            pattern,
            negated,
        } => format!(
            "{} {}LIKE '{}'",
            expr_str(qgm, home, expr),
            if *negated { "NOT " } else { "" },
            pattern
        ),
        ScalarExpr::Agg {
            func,
            distinct,
            arg,
        } => match arg {
            Some(a) => format!(
                "{}({}{})",
                func.sql(),
                if *distinct { "DISTINCT " } else { "" },
                expr_str(qgm, home, a)
            ),
            None => "COUNT(*)".to_string(),
        },
        ScalarExpr::Quantified { mode, quant, preds } => {
            let kw = match mode {
                crate::expr::QuantMode::Exists => "EXISTS",
                crate::expr::QuantMode::ForAll => "FORALL",
            };
            let q = qgm.quant(*quant);
            let inner: Vec<String> = preds.iter().map(|p| expr_str(qgm, home, p)).collect();
            format!("{kw}[{}]({})", q.name, inner.join(" AND "))
        }
    }
}

/// Which quantifier kinds exist in the printout of a box — handy for
/// assertions in tests.
pub fn quant_tags(qgm: &Qgm, b: BoxId) -> Vec<&'static str> {
    qgm.boxed(b)
        .quants
        .iter()
        .map(|&q| match qgm.quant(q).kind {
            QuantKind::Foreach => "F",
            QuantKind::Existential { negated: false } => "E",
            QuantKind::Existential { negated: true } => "!E",
            QuantKind::Universal => "A",
            QuantKind::Scalar => "S",
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::build_qgm;
    use starmagic_catalog::generator;

    fn build(sql_text: &str) -> Qgm {
        let cat = generator::benchmark_catalog(generator::Scale::small()).unwrap();
        let q = starmagic_sql::parse_query(sql_text).unwrap();
        build_qgm(&cat, &q).unwrap()
    }

    #[test]
    fn prints_every_reachable_box_once() {
        let g = build("SELECT e.empno FROM employee e, department d WHERE e.workdept = d.deptno");
        let s = print_graph(&g);
        assert_eq!(s.matches("QUERY :=").count(), 1);
        assert_eq!(s.matches("EMPLOYEE :=").count(), 1);
        assert_eq!(s.matches("DEPARTMENT :=").count(), 1);
    }

    #[test]
    fn renders_predicates_with_names() {
        let g = build("SELECT empno FROM employee e WHERE e.salary > 100");
        let s = print_graph(&g);
        assert!(s.contains("where: e.salary > 100"), "got:\n{s}");
    }

    #[test]
    fn marks_correlated_references() {
        let g = build(
            "SELECT e.empno FROM employee e WHERE EXISTS \
             (SELECT 1 FROM department d WHERE d.mgrno = e.empno)",
        );
        let s = print_graph(&g);
        assert!(s.contains("outer(e).empno"), "got:\n{s}");
    }

    #[test]
    fn shows_quant_kinds() {
        let g = build(
            "SELECT e.empno FROM employee e WHERE EXISTS \
             (SELECT 1 FROM department d WHERE d.mgrno = e.empno)",
        );
        assert_eq!(quant_tags(&g, g.top()), vec!["F", "E"]);
    }

    #[test]
    fn base_tables_print_storage() {
        let g = build("SELECT empno FROM employee");
        let s = print_graph(&g);
        assert!(s.contains("stored table 'employee'"));
    }
}
