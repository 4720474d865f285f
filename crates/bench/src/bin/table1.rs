//! Regenerate the paper's Table 1: elapsed time of Original /
//! Correlated / EMST for experiments A–H, normalized to Original=100.
//!
//! Usage: `cargo run --release -p starmagic-bench --bin table1 \
//!   [--small] [--trace-json <path>]`
//!
//! Prints both wall-clock-normalized numbers (the paper's metric) and
//! the deterministic row-work normalization, plus the paper's own
//! numbers for comparison, and the Correlated formulation's time per
//! box evaluation: the cost of one re-evaluation of its subquery. Result agreement between the three
//! formulations is verified before any timing is trusted.
//! `--trace-json <path>` additionally runs every formulation fully
//! instrumented and writes the machine-readable profile document
//! (schema pinned in `starmagic_bench::tracejson`).

use starmagic::Strategy;
use starmagic_bench::{bench_engine, experiments, run_experiment, sorted_rows, tracejson};
use starmagic_catalog::generator::Scale;

/// Parse `--flag <value>`'s value, if the flag is present.
fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter().position(|a| a == flag).map(|i| {
        args.get(i + 1)
            .unwrap_or_else(|| panic!("{flag} needs a value"))
            .clone()
    })
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let small = args.iter().any(|a| a == "--small");
    let trace_json = flag_value(&args, "--trace-json");
    let scale = if small {
        Scale::small()
    } else {
        Scale::benchmark()
    };
    eprintln!(
        "building benchmark database ({} departments x {} employees/dept)...",
        scale.departments, scale.emps_per_dept
    );
    let engine = bench_engine(scale).expect("catalog build");

    // Verify the formulations agree before timing anything.
    for exp in experiments() {
        let orig = sorted_rows(&engine, exp.original_sql, Strategy::Original)
            .unwrap_or_else(|e| panic!("experiment {} (original): {e}", exp.id));
        let emst = sorted_rows(&engine, exp.original_sql, Strategy::Magic)
            .unwrap_or_else(|e| panic!("experiment {} (emst): {e}", exp.id));
        assert_eq!(orig, emst, "experiment {}: EMST changed results", exp.id);
        let corr = sorted_rows(&engine, exp.correlated_sql, Strategy::Original)
            .unwrap_or_else(|e| panic!("experiment {} (correlated): {e}", exp.id));
        assert_eq!(
            orig.len(),
            corr.len(),
            "experiment {}: cardinality mismatch",
            exp.id
        );
    }
    eprintln!("result agreement verified for all 8 experiments\n");

    println!("Table 1 — Elapsed Time (Original = 100.00)");
    println!("{}", "-".repeat(100));
    println!(
        "{:<6} | {:>9} {:>11} {:>8} | {:>9} {:>11} {:>8} | {:>9} {:>11} {:>8}",
        "", "paper", "", "", "measured (time)", "", "", "measured (work)", "", ""
    );
    println!(
        "{:<6} | {:>9} {:>11} {:>8} | {:>9} {:>11} {:>8} | {:>9} {:>11} {:>8}",
        "Query",
        "Original",
        "Correlated",
        "EMST",
        "Original",
        "Correlated",
        "EMST",
        "Original",
        "Correlated",
        "EMST"
    );
    println!("{}", "-".repeat(100));
    for exp in experiments() {
        let r = run_experiment(&engine, &exp)
            .unwrap_or_else(|e| panic!("experiment {} failed: {e}", exp.id));
        let (to, tc, te) = r.normalized_time();
        let (wo, wc, we) = r.normalized_work();
        println!(
            "Exp {:<2} | {:>9.2} {:>11.2} {:>8.2} | {:>9.2} {:>11.2} {:>8.2} | {:>9.2} {:>11.2} {:>8.2}",
            exp.id,
            exp.paper.original,
            exp.paper.correlated,
            exp.paper.emst,
            to,
            tc,
            te,
            wo,
            wc,
            we
        );
    }
    println!("{}", "-".repeat(100));
    println!("\nper-experiment detail:");
    for exp in experiments() {
        let r = run_experiment(&engine, &exp).expect("ran above");
        println!(
            "Exp {}: {}\n       original {:>10.3?} ({} rows work)   correlated {:>10.3?} ({})   emst {:>10.3?} ({})\n       correlated: {} box evaluations, {:.3} µs per evaluation",
            exp.id,
            exp.title,
            r.original.elapsed,
            r.original.work,
            r.correlated.elapsed,
            r.correlated.work,
            r.emst.elapsed,
            r.emst.work,
            r.correlated.evals,
            r.correlated.us_per_eval(),
        );
    }

    if let Some(path) = trace_json {
        eprintln!("\nwriting instrumented trace to {path}...");
        let doc = tracejson::trace_report(&engine, scale, &experiments()).expect("trace report");
        tracejson::write_trace_json(&path, &doc).expect("write trace json");
        eprintln!("trace written");
    }
}
