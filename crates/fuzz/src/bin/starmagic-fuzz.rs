//! Differential query fuzzer CLI.
//!
//! ```text
//! starmagic-fuzz [--seed N] [--count N] [--budget-ms N]
//!                [--corpus-dir PATH] [--server host:port]
//!                [--no-analysis-oracle]
//! ```
//!
//! Generates `count` seeded queries, runs each under Original /
//! CostBased / Magic and compares results as bags; each in-process
//! execution is additionally cross-checked against the static
//! analysis (disable with `--no-analysis-oracle`).
//! The summary line names the slowest case and its wall time, so a
//! seed dominated by one query shows in the log.
//! Divergences are minimized by the shrinker and printed (and, with
//! `--corpus-dir`, persisted as replayable `.sql` repros). Exits
//! nonzero if any divergence was found.

use std::process::ExitCode;

use starmagic_fuzz::{fuzz_engine, run_fuzz, FuzzConfig};

fn main() -> ExitCode {
    let mut cfg = FuzzConfig::default();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut take = |name: &str| {
            args.next()
                .unwrap_or_else(|| die(&format!("{name} needs a value")))
        };
        match arg.as_str() {
            "--seed" => cfg.seed = parse(&take("--seed"), "--seed"),
            "--count" => cfg.count = parse(&take("--count"), "--count"),
            "--budget-ms" => cfg.budget_ms = parse(&take("--budget-ms"), "--budget-ms"),
            "--corpus-dir" => cfg.corpus_dir = Some(take("--corpus-dir").into()),
            "--server" => cfg.server = Some(take("--server")),
            "--analysis-oracle" => cfg.analysis = true,
            "--no-analysis-oracle" => cfg.analysis = false,
            "--help" | "-h" => {
                println!(
                    "starmagic-fuzz: differential query fuzzer\n\n\
                     options:\n  \
                     --seed N          base seed (default 1)\n  \
                     --count N         queries to generate (default 100)\n  \
                     --budget-ms N     wall-clock budget, 0 = unlimited (default 0)\n  \
                     --corpus-dir DIR  persist minimized repros as .sql files\n  \
                     --server ADDR     run the Magic strategy over the wire against a\n                    \
                     running `starmagic-server --scale fuzz` at host:port\n  \
                     --analysis-oracle     cross-check executions against the static\n                        \
                     analysis (default on)\n  \
                     --no-analysis-oracle  disable that cross-check"
                );
                return ExitCode::SUCCESS;
            }
            other => die(&format!("unknown option {other} (try --help)")),
        }
    }

    let engine = match fuzz_engine() {
        Ok(e) => e,
        Err(e) => die(&format!("engine setup failed: {e}")),
    };
    let started = std::time::Instant::now();
    let report = run_fuzz(&engine, &cfg);
    let elapsed = started.elapsed();

    let slowest = report.slowest.map_or(String::new(), |(case, took)| {
        format!(", slowest case {case} in {:.2}s", took.as_secs_f64())
    });
    println!(
        "fuzz: seed {}, {} generated in {:.1}s{slowest} — {} agreed, {} rejected, {} divergence(s){}",
        cfg.seed,
        report.generated,
        elapsed.as_secs_f64(),
        report.agreed,
        report.rejected,
        report.repros.len(),
        if report.out_of_budget {
            " [budget exhausted]"
        } else {
            ""
        },
    );
    for r in &report.repros {
        println!("\ncase {} ({} vs {}):", r.case, r.left, r.right);
        println!("  original:  {}", r.original_sql);
        println!("  minimized: {}", r.minimized_sql);
        println!("  {}", r.detail);
        if let Some(p) = &r.path {
            println!("  written to {}", p.display());
        }
    }
    if report.repros.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn parse<T: std::str::FromStr>(s: &str, flag: &str) -> T {
    s.parse()
        .unwrap_or_else(|_| die(&format!("{flag}: cannot parse {s:?}")))
}

fn die(msg: &str) -> ! {
    eprintln!("starmagic-fuzz: {msg}");
    std::process::exit(2);
}
