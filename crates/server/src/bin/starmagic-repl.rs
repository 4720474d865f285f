//! Interactive SQL shell over the starmagic engine: the server's
//! session dispatcher driven from stdin.
//!
//! ```text
//! cargo run -p starmagic-server --bin starmagic-repl [--scale small|benchmark]
//! ```
//!
//! A line whose first word is a wire verb (`HELP` lists them) is
//! dispatched as typed: `EXPLAIN <q>`, `ANALYZE <q>`, `SET STRATEGY
//! magic`, `CATALOG`, `CACHE CLEAR`, `METRICS JSON`, `QUIT`, ... Any
//! other text accumulates until a line ends with `;` and runs as
//! `QUERY`. Result sets print their first 50 rows and a footer with the
//! row count, elapsed time, plan and cache verdict.

use std::io::{self, BufRead, Write};
use std::time::{Duration, Instant};

use starmagic::{Engine, MetricsRegistry};
use starmagic_catalog::generator::{benchmark_catalog, Scale};
use starmagic_common::Result;
use starmagic_server::protocol::is_verb;
use starmagic_server::{Flow, Response, ServerConfig, Session, SharedEngine};

/// Rows printed per result set.
const ROW_LIMIT: usize = 50;

fn main() {
    let scale = if std::env::args().any(|a| a == "--scale=benchmark" || a == "benchmark") {
        Scale::benchmark()
    } else {
        Scale::small()
    };
    let mut engine = Engine::new(benchmark_catalog(scale).expect("catalog"));
    // The REPL is an observability surface, so it runs with a live
    // registry: METRICS always has counters to show.
    let cfg = ServerConfig {
        metrics: MetricsRegistry::enabled(),
        ..ServerConfig::default()
    };
    engine.set_metrics(cfg.metrics.clone());
    let mut session = Session::new(SharedEngine::new(engine), &cfg);

    println!(
        "starmagic — magic-sets in a relational system (SIGMOD '94 reproduction)\n\
         database: {} departments × {} employees/dept; end statements with ';'\n\
         HELP lists the verbs (EXPLAIN, ANALYZE, SET STRATEGY, CATALOG, CACHE, METRICS, QUIT, ...)",
        scale.departments, scale.emps_per_dept
    );

    let mut buffer = String::new();
    prompt(&buffer);
    for line in io::stdin().lock().lines() {
        let Ok(line) = line else { break };
        let trimmed = line.trim();
        let request =
            if buffer.is_empty() && is_verb(trimmed.split_whitespace().next().unwrap_or("")) {
                Some(trimmed.to_string())
            } else {
                buffer.push_str(&line);
                buffer.push('\n');
                trimmed.ends_with(';').then(|| {
                    let sql = std::mem::take(&mut buffer);
                    format!("QUERY {}", sql.trim().trim_end_matches(';'))
                })
            };
        if let Some(request) = request {
            let started = Instant::now();
            let (reply, flow) = session.dispatch(&request);
            print_reply(reply, started.elapsed());
            if flow != Flow::Continue {
                break;
            }
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

/// Print a reply for people: result sets as a table with a footer,
/// text frames verbatim, `OK` with its info, errors as `error: …`.
fn print_reply(reply: Result<Response>, elapsed: Duration) {
    match reply {
        Ok(Response::Rows {
            columns,
            rows,
            cache_hit,
            used_magic,
            ..
        }) => {
            let header = columns.join(" | ");
            println!("{header}");
            println!("{}", "-".repeat(header.len().max(8)));
            for row in rows.iter().take(ROW_LIMIT) {
                let cells: Vec<String> = row.values().iter().map(ToString::to_string).collect();
                println!("{}", cells.join(" | "));
            }
            if rows.len() > ROW_LIMIT {
                println!("... ({} rows total)", rows.len());
            }
            println!(
                "{} rows in {elapsed:?}; plan: {}; cache: {}",
                rows.len(),
                if used_magic { "magic" } else { "original" },
                if cache_hit { "hit" } else { "miss" },
            );
        }
        Ok(Response::Text(text)) => println!("{}", text.trim_end_matches('\n')),
        Ok(Response::Ok { info }) => {
            let info: Vec<String> = info.iter().map(|(k, v)| format!(" {k}={v}")).collect();
            println!("OK{}", info.concat());
        }
        Ok(Response::Busy(message)) => println!("busy: {message}"),
        Err(e) => println!("error: {e}"),
    }
}
