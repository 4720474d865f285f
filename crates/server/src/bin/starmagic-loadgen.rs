//! The load-generator binary.
//!
//! ```text
//! cargo run --release -p starmagic-server --bin starmagic-loadgen -- \
//!     [--addr host:port]        # target server; omit to self-host in-process
//!     [--connections 8] [--budget-ms 500]
//!     [--metrics-json PATH]     # save METRICS JSON; exit 1 unless it
//!                               # parses with sessions_opened > 0 and
//!                               # the latency cross-check agrees
//!     [--require-hits]          # exit 1 unless the concurrent cache
//!                               # hit rate > 0
//!     [--min-speedup X]         # exit 1 unless every strategy's
//!                               # N-vs-1-connection qps ratio is >= X;
//!                               # auto-skipped on hosts with fewer
//!                               # than 4 cores (no parallelism to show)
//! ```
//!
//! Replays the Table-1 suite per strategy from 1 and N connections and
//! prints a throughput/latency table. After the run it replays the
//! suite once more on a single idle connection and cross-checks its
//! client-side timing against the delta of the server's
//! `server.query_us` histogram over exactly that pass (the
//! self-hosted server runs with a live registry on the small
//! benchmark database), then fetches the final `METRICS JSON`
//! snapshot. Exits nonzero on any query error and on every failed
//! gate above, so CI can gate on it.

use std::time::Duration;

use starmagic_catalog::generator::Scale;
use starmagic_metrics::Registry;
use starmagic_server::loadgen::{self, LoadgenConfig, ServerSideMetrics};
use starmagic_server::{serve_engine, Client, ServerConfig};

fn flag_value(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
        .or_else(|| {
            args.iter()
                .find_map(|a| a.strip_prefix(&format!("{name}=")).map(String::from))
        })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let defaults = LoadgenConfig::default();
    let cfg = LoadgenConfig {
        connections: flag_value(&args, "--connections")
            .and_then(|v| v.parse().ok())
            .unwrap_or(defaults.connections),
        budget: flag_value(&args, "--budget-ms")
            .and_then(|v| v.parse().ok())
            .map_or(defaults.budget, Duration::from_millis),
    };
    let metrics_path = flag_value(&args, "--metrics-json");
    let require_hits = args.iter().any(|a| a == "--require-hits");
    let min_speedup: Option<f64> = flag_value(&args, "--min-speedup").map(|v| {
        v.parse()
            .expect("--min-speedup needs a number (e.g. --min-speedup 2.0)")
    });

    // Self-host unless a target address was given. The self-hosted
    // server runs with a live registry so the metrics cross-check has
    // something to read.
    let (addr, local) = match flag_value(&args, "--addr") {
        Some(a) => (a.parse().expect("bad --addr"), None),
        None => {
            let engine =
                starmagic_bench::bench_engine(Scale::small()).expect("build benchmark engine");
            let handle = serve_engine(
                engine,
                "127.0.0.1:0",
                ServerConfig {
                    metrics: Registry::enabled(),
                    ..ServerConfig::default()
                },
            )
            .expect("bind self-hosted server");
            (handle.addr(), Some(handle))
        }
    };

    eprintln!(
        "loadgen: {} connections, {}ms budget/window, target {addr}",
        cfg.connections,
        cfg.budget.as_millis()
    );
    let report = loadgen::run(addr, cfg).expect("load run failed");

    println!(
        "{:<10} {:>5} {:>10} {:>9} {:>9} {:>9} {:>8} {:>7}",
        "strategy", "conns", "qps", "p50us", "p95us", "p99us", "hitrate", "errors"
    );
    for s in &report.strategies {
        for w in [&s.serial, &s.concurrent] {
            println!(
                "{:<10} {:>5} {:>10.1} {:>9} {:>9} {:>9} {:>7.1}% {:>7}",
                s.strategy,
                w.connections,
                w.qps(),
                loadgen::percentile(&w.latencies_us, 50.0),
                loadgen::percentile(&w.latencies_us, 95.0),
                loadgen::percentile(&w.latencies_us, 99.0),
                w.hit_rate() * 100.0,
                w.errors
            );
        }
        println!("{:<10} speedup {:>5.2}x", s.strategy, s.speedup());
    }

    // Calibration cross-check: replay the suite from one idle
    // connection and compare client timing against the delta of the
    // server's query histogram over exactly that pass. (The loaded
    // windows above are incomparable — client latency there includes
    // queue wait the server never sees per query.) Missing histograms
    // (a metrics-off external target) degrade to "no cross-check",
    // but --metrics-json demands a live snapshot.
    let mut cross_check_failed = false;
    match Client::connect(addr)
        .map_err(|e| starmagic_common::Error::execution(format!("connect: {e}")))
        .and_then(|mut c| loadgen::cross_check(&mut c, &loadgen::suite(), 25))
    {
        Ok(cs) => {
            for c in &cs {
                println!(
                    "cross-check {}: client {}us vs server {}us -> {}",
                    c.quantile,
                    c.client_us,
                    c.server_us,
                    if c.agree { "agree" } else { "DISAGREE" }
                );
                cross_check_failed |= !c.agree;
            }
        }
        Err(e) => {
            eprintln!("loadgen: cross-check skipped: {e}");
            if metrics_path.is_some() {
                cross_check_failed = true;
            }
        }
    }

    // Fetch the server's final view of the run (load windows plus the
    // calibration pass) for the --metrics-json gate.
    let server_metrics = Client::connect(addr)
        .ok()
        .and_then(|mut c| c.metrics_json().ok())
        .map(|doc| {
            if let Some(path) = &metrics_path {
                std::fs::write(path, format!("{doc}\n")).expect("write metrics snapshot");
                eprintln!("wrote {path}");
            }
            doc
        })
        .as_ref()
        .and_then(ServerSideMetrics::from_doc);
    match &server_metrics {
        Some(s) => {
            println!(
                "server:    sessions_opened={} queries={} p50={}us p95={}us p99={}us",
                s.sessions_opened, s.queries, s.p50_us, s.p95_us, s.p99_us
            );
            if metrics_path.is_some() && s.sessions_opened == 0 {
                eprintln!("loadgen: METRICS JSON reports sessions_opened=0");
                cross_check_failed = true;
            }
        }
        None => {
            eprintln!("loadgen: target exposed no server-side query metrics");
            if metrics_path.is_some() {
                cross_check_failed = true;
            }
        }
    }

    if let Some(handle) = local {
        handle.shutdown();
    }

    if report.total_errors() > 0 {
        eprintln!("loadgen: {} query error(s)", report.total_errors());
        std::process::exit(1);
    }
    // The concurrency gate: with epoch-snapshot reads, N connections
    // must outrun 1 on a multi-core host. Meaningless on near-serial
    // hardware, so it self-skips below MIN_GATE_CPUS cores.
    if let Some(min) = min_speedup {
        let host_cpus = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
        if host_cpus < loadgen::MIN_GATE_CPUS {
            eprintln!(
                "loadgen: --min-speedup skipped ({host_cpus} core(s) < {} required for the gate)",
                loadgen::MIN_GATE_CPUS
            );
        } else {
            let got = loadgen::min_speedup(&report);
            if got < min {
                eprintln!(
                    "loadgen: concurrency gate FAILED: weakest strategy speedup \
                     {got:.2}x < required {min:.2}x"
                );
                std::process::exit(1);
            }
            eprintln!("loadgen: concurrency gate passed: {got:.2}x >= {min:.2}x");
        }
    }
    if require_hits && report.concurrent_hit_rate() <= 0.0 {
        eprintln!("loadgen: cache hit rate was zero");
        std::process::exit(1);
    }
    if cross_check_failed {
        eprintln!("loadgen: server/client metrics cross-check failed");
        std::process::exit(1);
    }
}
