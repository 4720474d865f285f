//! Golden reproductions of the paper's Figures 1, 4, and 5 on the
//! running example (query D of Example 1.1).

use starmagic::qgm::{printer, render_sql, BoxFlavor, BoxKind};
use starmagic::{Engine, Strategy};
use starmagic_catalog::generator::{benchmark_catalog, Scale};

const QUERY_D: &str = "SELECT d.deptname, s.workdept, s.avgsalary \
                       FROM department d, avgMgrSal s \
                       WHERE d.deptno = s.workdept AND d.deptname = 'Planning'";

fn engine() -> Engine {
    let mut e = Engine::new(benchmark_catalog(Scale::small()).unwrap());
    e.run_sql(
        "CREATE VIEW mgrSal (empno, empname, workdept, salary) AS \
         SELECT e.empno, e.empname, e.workdept, e.salary \
         FROM employee e, department d WHERE e.empno = d.mgrno",
    )
    .unwrap();
    e.run_sql(
        "CREATE VIEW avgMgrSal (workdept, avgsalary) AS \
         SELECT workdept, AVG(salary) FROM mgrSal GROUP BY workdept",
    )
    .unwrap();
    e
}

#[test]
fn figure_1_magic_adds_boxes_and_joins() {
    let e = engine();
    let o = e.optimize_sql(QUERY_D, Strategy::Magic).unwrap();
    // "The transformed query graph is more complex — it has more query
    // blocks, and more joins."
    assert!(o.phase2.box_count() > o.phase1.box_count());
    let dump = printer::print_graph(&o.phase2);
    // The two magic views of Figure 1.
    assert!(dump.contains("[magic]"), "{dump}");
    assert!(dump.contains("[supplementary-magic]"), "{dump}");
}

#[test]
fn figure_4_phase_box_counts() {
    let e = engine();
    let o = e.optimize_sql(QUERY_D, Strategy::Magic).unwrap();
    // Upper right (after merge): QUERY, groupby, T1, DEPARTMENT,
    // EMPLOYEE.
    assert_eq!(
        o.phase1.box_count(),
        5,
        "{}",
        printer::print_graph(&o.phase1)
    );
    // Lower right: "only one extra box, and only one extra join".
    assert_eq!(
        o.phase3.box_count(),
        6,
        "{}",
        printer::print_graph(&o.phase3)
    );
    let p1_joins = count_join_edges(&o.phase1);
    let p3_joins = count_join_edges(&o.phase3);
    assert_eq!(p3_joins, p1_joins + 1, "exactly one extra join");
}

fn count_join_edges(g: &starmagic::qgm::Qgm) -> usize {
    g.box_ids()
        .into_iter()
        .map(|b| g.boxed(b).quants.len().saturating_sub(1))
        .sum()
}

#[test]
fn figure_4_adornments_match_the_paper() {
    let e = engine();
    let o = e.optimize_sql(QUERY_D, Strategy::Magic).unwrap();
    let names: Vec<String> = o
        .phase3
        .box_ids()
        .into_iter()
        .map(|b| o.phase3.boxed(b).display_name())
        .collect();
    // avgMgrSal^bf (the group-by box) and mgrSal^ffbf (the join box).
    assert!(names.iter().any(|n| n.ends_with("^bf")), "{names:?}");
    assert!(names.iter().any(|n| n.ends_with("^ffbf")), "{names:?}");
}

#[test]
fn figure_4_sm_query_survives_shared() {
    let e = engine();
    let o = e.optimize_sql(QUERY_D, Strategy::Magic).unwrap();
    let sm = o
        .phase3
        .box_ids()
        .into_iter()
        .find(|&b| o.phase3.boxed(b).flavor == BoxFlavor::SupplementaryMagic)
        .expect("sm_query survives phase 3");
    // Shared by the QUERY box and the mgrSal^ffbf box (SD0 and SD2').
    assert_eq!(o.phase3.users(sm).len(), 2);
    // It holds the moved selection predicate (SD5).
    let dump = printer::print_box(&o.phase3, sm);
    assert!(dump.contains("'Planning'"), "{dump}");
}

#[test]
fn figure_5_sql_rendering_shapes() {
    let e = engine();
    let o = e.optimize_sql(QUERY_D, Strategy::Magic).unwrap();
    // Phase 2 SQL: magic tables exist and are DISTINCT-free after the
    // pullup (SD3/SD4 without DISTINCT).
    let sql2 = render_sql::render_graph(&o.phase2);
    assert!(sql2.contains("M_"), "{sql2}");
    assert!(sql2.contains("SM_QUERY"), "{sql2}");
    // Phase 3 SQL: magic boxes merged away; the ffbf box joins the
    // supplementary box directly (SD2').
    let sql3 = render_sql::render_graph(&o.phase3);
    assert!(!sql3.contains("M_AVGMGRSAL"), "{sql3}");
    assert!(sql3.contains("SM_QUERY"), "{sql3}");
    // The join-back predicate of SD2': sm.deptno = e.workdept.
    assert!(
        sql3.contains("sm.deptno = e.workdept") || sql3.contains("e.workdept = sm.deptno"),
        "{sql3}"
    );
}

#[test]
fn figure_5_no_distinct_needed_on_magic_tables() {
    let e = engine();
    let o = e.optimize_sql(QUERY_D, Strategy::Magic).unwrap();
    for b in o.phase2.box_ids() {
        let qb = o.phase2.boxed(b);
        if qb.flavor == BoxFlavor::Magic {
            assert_ne!(
                qb.distinct,
                starmagic::qgm::DistinctMode::Enforce,
                "distinct pullup must have fired on {}",
                qb.display_name()
            );
        }
    }
}

#[test]
fn figure_4_final_graph_still_evaluates_query_d_correctly() {
    let e = engine();
    let r = e.query_with(QUERY_D, Strategy::Magic).unwrap();
    assert_eq!(r.rows.len(), 1);
    // Average salary of the single manager of dept 0 ('Planning').
    let employee = e.catalog().table("employee").unwrap();
    let dept0_mgr = (0..employee.row_count())
        .map(|i| employee.row(i))
        .find(|r| r.get(0) == &starmagic_common::Value::Int(0))
        .unwrap();
    let expected = dept0_mgr.get(3).as_f64().unwrap();
    assert!((r.rows[0].get(2).as_f64().unwrap() - expected).abs() < 1e-9);
}

#[test]
fn query_d_without_magic_has_no_magic_boxes() {
    let e = engine();
    let o = e.optimize_sql(QUERY_D, Strategy::Original).unwrap();
    for b in o.phase3.box_ids() {
        assert_eq!(o.phase3.boxed(b).flavor, BoxFlavor::Regular);
        assert!(!matches!(o.phase3.boxed(b).kind, BoxKind::OuterJoin(_)));
    }
}
