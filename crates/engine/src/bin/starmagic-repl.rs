//! Interactive SQL shell over the starmagic engine.
//!
//! ```text
//! cargo run -p starmagic --bin starmagic-repl [--scale small|benchmark]
//! ```
//!
//! Statements end with `;`. Meta-commands:
//!
//! * `\explain <query>` — print the full optimization trace;
//! * `\profile <query>` — EXPLAIN ANALYZE: run the query and print the
//!   per-box profile, rewrite trace, cardinality report, and spans;
//! * `\lint <query>` — run the semantic linter over the chosen plan;
//! * `\strategy original|magic|cost` — pin the optimizer strategy;
//! * `\timing [on|off]` — toggle the per-query timing footer;
//! * `\trace on|off` — print optimizer phase spans after each query;
//! * `\cache [clear]` — plan-cache counters (optionally clearing it);
//! * `\tables` / `\views` — list catalog contents;
//! * `\?` or `\help` — this list;
//! * `\quit`.

use std::io::{self, BufRead, Write};

use starmagic::{Engine, Strategy};
use starmagic_catalog::generator::{benchmark_catalog, Scale};

/// REPL session state: the pinned strategy plus output toggles.
struct Session {
    strategy: Strategy,
    /// Print the rows/elapsed/work footer after each query (on by
    /// default).
    timing: bool,
    /// Print the optimizer's phase spans after each query (off by
    /// default; queries run instrumented while on).
    trace: bool,
}

const HELP: &str = "\
meta-commands:
  \\explain <q>                 full optimization trace for a query
  \\profile <q>                 EXPLAIN ANALYZE: run + per-box profile
  \\lint <q>                    semantic lint of the chosen plan
  \\analysis <q>                static dataflow facts + L2xx checks
  \\strategy original|magic|cost  pin the optimizer strategy
  \\timing [on|off]             toggle the per-query timing footer
  \\trace on|off                print phase spans after each query
  \\cache [clear]               plan-cache counters by strategy (clear to flush)
  \\metrics [json]              live metrics snapshot (json: one parseable line)
  \\tables                      list tables with row counts
  \\views                       list views
  \\? | \\help                   this list
  \\quit | \\q                   exit";

fn main() {
    let scale = if std::env::args().any(|a| a == "--scale=benchmark" || a == "benchmark") {
        Scale::benchmark()
    } else {
        Scale::small()
    };
    let mut engine = Engine::new(benchmark_catalog(scale).expect("catalog"));
    // The REPL is an observability surface, so it runs with a live
    // registry: \metrics always has counters to show.
    engine.set_metrics(starmagic::MetricsRegistry::enabled());
    let mut session = Session {
        strategy: Strategy::CostBased,
        timing: true,
        trace: false,
    };

    println!(
        "starmagic — magic-sets in a relational system (SIGMOD '94 reproduction)\n\
         database: {} departments × {} employees/dept; end statements with ';'\n\
         meta: \\? for help (\\explain, \\profile, \\lint, \\strategy, \\timing, \\trace, ...)",
        scale.departments, scale.emps_per_dept
    );

    let stdin = io::stdin();
    let mut buffer = String::new();
    prompt(&buffer);
    for line in stdin.lock().lines() {
        let Ok(line) = line else { break };
        let trimmed = line.trim();
        if buffer.is_empty() && trimmed.starts_with('\\') {
            if !meta_command(&mut engine, &mut session, trimmed) {
                break;
            }
            prompt(&buffer);
            continue;
        }
        buffer.push_str(&line);
        buffer.push('\n');
        if trimmed.ends_with(';') {
            let sql = buffer.trim().trim_end_matches(';').to_string();
            buffer.clear();
            run_statement(&mut engine, &session, &sql);
        }
        prompt(&buffer);
    }
}

fn prompt(buffer: &str) {
    if buffer.is_empty() {
        print!("magic> ");
    } else {
        print!("   ..> ");
    }
    let _ = io::stdout().flush();
}

/// Parse an on/off argument, defaulting to a toggle of `current` when
/// empty. `None` means the argument was unintelligible.
fn on_off(arg: &str, current: bool) -> Option<bool> {
    match arg.trim() {
        "on" => Some(true),
        "off" => Some(false),
        "" => Some(!current),
        _ => None,
    }
}

/// Returns false to quit.
fn meta_command(engine: &mut Engine, session: &mut Session, cmd: &str) -> bool {
    let (head, rest) = cmd.split_once(' ').unwrap_or((cmd, ""));
    match head {
        "\\quit" | "\\q" => return false,
        "\\?" | "\\help" => println!("{HELP}"),
        "\\tables" => {
            for t in engine.catalog().table_names() {
                let table = engine.catalog().table(t).expect("listed");
                println!(
                    "{t} ({} rows): {}",
                    table.row_count(),
                    table.schema().column_names().join(", ")
                );
            }
        }
        "\\views" => {
            for v in engine.catalog().view_names() {
                println!("{v}");
            }
        }
        "\\strategy" => {
            session.strategy = match rest.trim() {
                "" => Strategy::CostBased,
                name => match name.parse() {
                    Ok(strategy) => strategy,
                    Err(e) => {
                        println!("{e}; use original|magic|cost");
                        return true;
                    }
                },
            };
            println!("strategy set to {:?}", session.strategy);
        }
        "\\timing" => match on_off(rest, session.timing) {
            Some(v) => {
                session.timing = v;
                println!("timing is {}", if v { "on" } else { "off" });
            }
            None => println!("usage: \\timing [on|off]"),
        },
        "\\trace" => match on_off(rest, session.trace) {
            Some(v) => {
                session.trace = v;
                println!("trace is {}", if v { "on" } else { "off" });
            }
            None => println!("usage: \\trace on|off"),
        },
        "\\cache" => match rest.trim() {
            "" => print!(
                "{}",
                starmagic::explain::render_cache_by_strategy(
                    engine.cache_stats(),
                    &engine.cache_stats_by_strategy(),
                    engine.cache_len()
                )
            ),
            "clear" => {
                engine.cache_clear();
                println!("plan cache cleared");
            }
            _ => println!("usage: \\cache [clear]"),
        },
        "\\metrics" => match rest.trim() {
            "" => print!("{}", engine.metrics_text()),
            "json" => println!("{}", engine.metrics_report()),
            _ => println!("usage: \\metrics [json]"),
        },
        "\\explain" => match engine.explain(rest.trim().trim_end_matches(';')) {
            Ok(text) => println!("{text}"),
            Err(e) => println!("error: {e}"),
        },
        "\\profile" => match engine.explain_analyze(rest.trim().trim_end_matches(';')) {
            Ok(text) => println!("{text}"),
            Err(e) => println!("error: {e}"),
        },
        "\\lint" => match engine.lint(rest.trim().trim_end_matches(';')) {
            Ok(report) => print!("{report}"),
            Err(e) => println!("error: {e}"),
        },
        "\\analysis" => match engine.analyze(rest.trim().trim_end_matches(';')) {
            Ok(text) => print!("{text}"),
            Err(e) => println!("error: {e}"),
        },
        other => println!("unknown meta-command {other}; \\? for help"),
    }
    true
}

fn run_statement(engine: &mut Engine, session: &Session, sql: &str) {
    if sql.is_empty() {
        return;
    }
    let lowered = sql.to_ascii_lowercase();
    if lowered.starts_with("create") || lowered.starts_with("insert") {
        match engine.run_sql(sql) {
            Ok(_) => println!("ok"),
            Err(e) => println!("error: {e}"),
        }
        return;
    }
    let start = std::time::Instant::now();
    // With \trace on, run instrumented so the phase spans are real;
    // otherwise take the uninstrumented path.
    let (result, spans) = if session.trace {
        match engine.query_profiled(sql, session.strategy) {
            Ok(p) => (p.result, p.optimized.trace),
            Err(e) => {
                println!("error: {e}");
                return;
            }
        }
    } else {
        // The plain path goes through the shared plan cache (so
        // repeated statements skip rewrite/planning and `\cache`
        // reports real traffic) with request spans on, feeding the
        // `phase.*_us` histograms behind `\metrics`.
        match engine.query_cached_traced(sql, session.strategy) {
            Ok(c) => (c.result, starmagic::trace::TraceSink::disabled()),
            Err(e) => {
                println!("error: {e}");
                return;
            }
        }
    };
    println!("{}", result.columns.join(" | "));
    println!("{}", "-".repeat(result.columns.join(" | ").len().max(8)));
    for row in result.rows.iter().take(50) {
        let cells: Vec<String> = row
            .values()
            .iter()
            .map(std::string::ToString::to_string)
            .collect();
        println!("{}", cells.join(" | "));
    }
    if result.rows.len() > 50 {
        println!("... ({} rows total)", result.rows.len());
    }
    if session.timing {
        println!(
            "{} rows in {:?}; plan: {}; work: {} rows",
            result.rows.len(),
            start.elapsed(),
            if result.used_magic {
                "magic"
            } else {
                "original"
            },
            result.metrics.work()
        );
    }
    if session.trace {
        for s in spans.spans() {
            println!("  span {:<16} {:?}", s.name, s.elapsed);
        }
    }
}
