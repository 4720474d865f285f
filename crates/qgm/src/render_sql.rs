//! Render a query graph back to SQL, one statement per box — the
//! format of the paper's Figure 5 (statements D0–D2, SD0–SD5, SD2′).

use std::fmt::Write as _;

use crate::boxes::{BoxKind, DistinctMode};
use crate::expr::ScalarExpr;
use crate::graph::Qgm;
use crate::ids::BoxId;
use crate::printer::expr_str;

/// Render every non-base box reachable from the top, in
/// [`Qgm::preorder`].
pub fn render_graph(qgm: &Qgm) -> String {
    let mut out = String::new();
    for b in qgm.preorder() {
        if !matches!(qgm.boxed(b).kind, BoxKind::BaseTable { .. }) {
            out.push_str(&render_box(qgm, b));
            out.push('\n');
        }
    }
    out
}

/// Render one box as an SQL statement. Group-by triplets render as
/// separate statements (the graph keeps them separate, so the SQL
/// does too).
pub fn render_box(qgm: &Qgm, b: BoxId) -> String {
    let qb = qgm.boxed(b);
    let mut out = String::new();
    let header = if b == qgm.top() {
        String::new()
    } else {
        let cols: Vec<&str> = qb.columns.iter().map(|c| c.name.as_str()).collect();
        format!("{}({}) AS\n  ", qb.display_name(), cols.join(", "))
    };
    out.push_str(&header);
    match &qb.kind {
        BoxKind::BaseTable { table } => {
            let _ = write!(out, "TABLE {table}");
        }
        BoxKind::Select => {
            out.push_str(&render_select(qgm, b));
        }
        BoxKind::GroupBy(g) => {
            let input_quant = qb.quants[0];
            let input = qgm.quant(input_quant).input;
            let sel: Vec<String> = qb
                .columns
                .iter()
                .map(|c| expr_str(qgm, b, &c.expr))
                .collect();
            let _ = write!(
                out,
                "SELECT {} FROM {} {}",
                sel.join(", "),
                qgm.boxed(input).display_name(),
                qgm.quant(input_quant).name,
            );
            if !g.group_keys.is_empty() {
                let keys: Vec<String> = g.group_keys.iter().map(|k| expr_str(qgm, b, k)).collect();
                let _ = write!(out, " GROUPBY {}", keys.join(", "));
            }
        }
        BoxKind::OuterJoin(oj) => {
            let quants = &qb.quants;
            let lq = quants[0];
            let rq = quants[1];
            let sel: Vec<String> = qb
                .columns
                .iter()
                .map(|c| expr_str(qgm, b, &c.expr))
                .collect();
            let on: Vec<String> = oj.on.iter().map(|p| expr_str(qgm, b, p)).collect();
            let _ = write!(
                out,
                "SELECT {} FROM {} {} LEFT OUTER JOIN {} {} ON {}",
                sel.join(", "),
                qgm.boxed(qgm.quant(lq).input).display_name(),
                qgm.quant(lq).name,
                qgm.boxed(qgm.quant(rq).input).display_name(),
                qgm.quant(rq).name,
                on.join(" AND ")
            );
        }
        BoxKind::SetOp(s) => {
            let kw = qb.kind.label();
            let arms: Vec<String> = qb
                .quants
                .iter()
                .map(|&q| qgm.boxed(qgm.quant(q).input).display_name())
                .collect();
            let _ = write!(out, "{}", arms.join(&format!(" {kw} ")));
            let _ = s;
        }
    }
    out.push('.');
    out.push('\n');
    out
}

fn render_select(qgm: &Qgm, b: BoxId) -> String {
    let qb = qgm.boxed(b);
    let mut out = String::new();
    let distinct = if qb.distinct == DistinctMode::Enforce {
        "DISTINCT "
    } else {
        ""
    };
    let sel: Vec<String> = qb
        .columns
        .iter()
        .map(|c| render_output(qgm, b, &c.expr, &c.name))
        .collect();
    let _ = write!(out, "SELECT {distinct}{}", sel.join(", "));
    if !qb.quants.is_empty() {
        let from: Vec<String> = qb
            .quants
            .iter()
            .map(|&q| {
                let quant = qgm.quant(q);
                let kind = match quant.kind {
                    crate::boxes::QuantKind::Foreach => "",
                    crate::boxes::QuantKind::Existential { negated: false } => "E:",
                    crate::boxes::QuantKind::Existential { negated: true } => "!E:",
                    crate::boxes::QuantKind::Universal => "A:",
                    crate::boxes::QuantKind::Scalar => "S:",
                };
                format!(
                    "{kind}{} {}",
                    qgm.boxed(quant.input).display_name(),
                    quant.name
                )
            })
            .collect();
        let _ = write!(out, " FROM {}", from.join(", "));
    }
    if !qb.predicates.is_empty() {
        let preds: Vec<String> = qb.predicates.iter().map(|p| expr_str(qgm, b, p)).collect();
        let _ = write!(out, " WHERE {}", preds.join(" AND "));
    }
    out
}

fn render_output(qgm: &Qgm, b: BoxId, e: &ScalarExpr, name: &str) -> String {
    let rendered = expr_str(qgm, b, e);
    // Suppress "x AS x" noise when the expression already ends with the
    // column name (`e.empno AS empno`).
    if rendered.ends_with(&format!(".{name}")) || rendered == name {
        rendered
    } else {
        format!("{rendered} AS {name}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::build_qgm;
    use starmagic_catalog::Catalog;
    use starmagic_catalog::{generator, ViewDef};

    fn catalog() -> Catalog {
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
        c
    }

    fn build(sql_text: &str) -> Qgm {
        let cat = catalog();
        let q = starmagic_sql::parse_query(sql_text).unwrap();
        build_qgm(&cat, &q).unwrap()
    }

    #[test]
    fn renders_top_query_without_header() {
        let g = build("SELECT empno FROM employee e WHERE e.salary > 100");
        let s = render_graph(&g);
        assert!(s.starts_with("SELECT e.empno FROM EMPLOYEE e WHERE e.salary > 100."));
    }

    #[test]
    fn renders_views_with_headers() {
        let g = build("SELECT workdept FROM mgrsal");
        let s = render_graph(&g);
        assert!(
            s.contains("MGRSAL(empno, empname, workdept, salary) AS"),
            "got:\n{s}"
        );
        assert!(s.contains("WHERE e.empno = d.mgrno"));
    }

    #[test]
    fn renders_distinct() {
        let g = build("SELECT DISTINCT workdept FROM employee");
        let s = render_graph(&g);
        assert!(s.contains("SELECT DISTINCT"));
    }

    #[test]
    fn renders_groupby_box() {
        let g = build("SELECT workdept, AVG(salary) FROM employee GROUP BY workdept");
        let s = render_graph(&g);
        assert!(s.contains("GROUPBY t1.workdept"), "got:\n{s}");
        assert!(s.contains("AVG(t1.salary)"), "got:\n{s}");
    }

    #[test]
    fn renders_union() {
        let g = build("SELECT deptno FROM department UNION SELECT workdept FROM employee");
        let s = render_graph(&g);
        assert!(s.contains(" UNION "), "got:\n{s}");
    }

    #[test]
    fn renders_subquery_quantifier_kinds() {
        let g = build(
            "SELECT e.empno FROM employee e WHERE EXISTS \
             (SELECT 1 FROM department d WHERE d.mgrno = e.empno)",
        );
        let s = render_graph(&g);
        assert!(s.contains("E:"), "existential quantifier shown, got:\n{s}");
    }
}

#[cfg(test)]
mod more_tests {
    use super::*;
    use crate::builder::build_qgm;
    use starmagic_catalog::generator;

    fn build(sql_text: &str) -> Qgm {
        let cat = generator::benchmark_catalog(generator::Scale::small()).unwrap();
        build_qgm(&cat, &starmagic_sql::parse_query(sql_text).unwrap()).unwrap()
    }

    #[test]
    fn renders_left_outer_join() {
        let g = build(
            "SELECT d.deptname, p.projname FROM department d \
             LEFT OUTER JOIN project p ON p.deptno = d.deptno",
        );
        let s = render_graph(&g);
        assert!(s.contains("LEFT OUTER JOIN"), "{s}");
        assert!(s.contains("ON "), "{s}");
    }

    #[test]
    fn renders_between_and_like_desugarings() {
        let g =
            build("SELECT empno FROM employee WHERE salary BETWEEN 1 AND 2 AND empname LIKE 'E%'");
        let s = render_graph(&g);
        assert!(s.contains(">="), "{s}");
        assert!(s.contains("<="), "{s}");
        assert!(s.contains("LIKE 'E%'"), "{s}");
    }

    #[test]
    fn renders_scalar_subquery_quantifier() {
        let g = build(
            "SELECT empno FROM employee e WHERE salary > \
             (SELECT AVG(salary) FROM employee f WHERE f.workdept = e.workdept)",
        );
        let s = render_graph(&g);
        assert!(s.contains("S:"), "scalar quantifier marker, got:\n{s}");
    }

    #[test]
    fn adorned_names_carry_superscripts() {
        // Adornment superscripts survive the SQL rendering (Figure 5's
        // avgMgrSal^bf style headers).
        let mut g = build("SELECT empno FROM employee");
        let top = g.top();
        g.boxed_mut(top).adornment = Some(crate::boxes::Adornment(vec![
            crate::boxes::AdornChar::Bound,
        ]));
        // Give it a fake header position by rendering the box directly.
        let s = render_box(&g, top);
        let _ = s; // top box renders without header; display_name covers it
        assert_eq!(g.boxed(top).display_name(), "QUERY^b");
    }
}
