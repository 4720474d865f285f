//! Regenerate the paper's figures for the running example (query D):
//!
//! * **Figure 1** — the query graph before magic and immediately after
//!   the magic transformation (phase 2), showing the extra boxes and
//!   joins the transformation introduces;
//! * **Figure 4** — the four quadrants: initial graph, after phase 1,
//!   after phase 2 (EMST), after phase 3 cleanup;
//! * **Figure 5** — the SQL statements before optimization and after
//!   (the SD0–SD5 / SD2′ forms).
//!
//! Usage: `cargo run -p starmagic-bench --bin figures [--trace-json <path>]`
//!
//! `--trace-json <path>` writes the instrumented profile of the
//! running example (experiment G, query D) to a JSON file.

use starmagic::qgm::{printer, render_sql};
use starmagic::Strategy;
use starmagic_bench::{bench_engine, experiments, tracejson};
use starmagic_catalog::generator::Scale;

const QUERY_D: &str = "SELECT d.deptname, s.workdept, s.avgsalary \
                       FROM department d, avgMgrSal s \
                       WHERE d.deptno = s.workdept AND d.deptname = 'Planning'";

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let trace_json = args
        .iter()
        .position(|a| a == "--trace-json")
        .map(|i| args.get(i + 1).expect("--trace-json needs a path").clone());
    let engine = bench_engine(Scale::small()).expect("catalog");
    let o = engine
        .optimize_sql(QUERY_D, Strategy::Magic)
        .expect("optimize query D");

    println!("================================================================");
    println!("Figure 1 — magic introduces more joins, but leads to better");
    println!("performance (left: original query graph; right: after magic)");
    println!("================================================================\n");
    println!(
        "--- original query graph ({} boxes) ---",
        o.initial.box_count()
    );
    println!("{}", printer::print_graph(&o.initial));
    println!(
        "--- after the magic transformation ({} boxes) ---",
        o.phase2.box_count()
    );
    println!("{}", printer::print_graph(&o.phase2));

    println!("================================================================");
    println!("Figure 4 — QGM query graph for query D, before, and after,");
    println!("phases 1, 2, and 3 of query-rewrite");
    println!("================================================================\n");
    for (title, g) in [
        ("upper left: initial", &o.initial),
        ("upper right: after phase 1 (merge)", &o.phase1),
        ("lower left: after phase 2 (EMST)", &o.phase2),
        ("lower right: after phase 3 (simplified)", &o.phase3),
    ] {
        println!("--- {title} ({} boxes) ---", g.box_count());
        println!("{}", printer::print_graph(g));
    }

    println!("================================================================");
    println!("Figure 5 — SQL queries before and after optimization by EMST");
    println!("================================================================\n");
    println!("--- original query (D0-D2) ---");
    println!("{}", render_sql::render_graph(&o.initial));
    println!("--- after EMST, phase 2 (SD0-SD5) ---");
    println!("{}", render_sql::render_graph(&o.phase2));
    println!("--- after simplification, phase 3 (SD2') ---");
    println!("{}", render_sql::render_graph(&o.phase3));

    println!("================================================================");
    println!(
        "costs: without magic {:.0}, with magic {:.0} — the optimizer {}",
        o.cost_without_magic,
        o.cost_with_magic,
        if o.cost_with_magic <= o.cost_without_magic {
            "chooses the magic plan"
        } else {
            "keeps the original plan"
        }
    );

    if let Some(path) = trace_json {
        let g: Vec<_> = experiments().into_iter().filter(|e| e.id == 'G').collect();
        let doc = tracejson::trace_report(&engine, Scale::small(), &g).expect("trace report");
        tracejson::write_trace_json(&path, &doc).expect("write trace json");
        eprintln!("instrumented trace of the running example written to {path}");
    }
}
