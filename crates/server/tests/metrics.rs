//! End-to-end observability: a live server's `METRICS JSON` counters
//! move with the traffic, the slow-query log writes exactly the
//! records its threshold demands, and a metrics-off server answers
//! byte-identically while emitting nothing.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::Arc;

use starmagic::Engine;
use starmagic_catalog::generator::Scale;
use starmagic_metrics::Registry;
use starmagic_server::slowlog::{SlowLog, DEFAULT_MAX_BYTES};
use starmagic_server::{serve_engine, Client, ServerConfig, ServerHandle};
use starmagic_trace::json::Value;

const SUITE_QUERY: &str = "SELECT d.deptname, v.avgsal \
                           FROM department d, deptAvgSal v \
                           WHERE v.workdept = d.deptno AND d.deptno = 7";

fn test_engine() -> Engine {
    starmagic_bench::bench_engine(Scale::small()).expect("bench engine builds")
}

fn start(cfg: ServerConfig) -> (ServerHandle, SocketAddr) {
    let handle = serve_engine(test_engine(), "127.0.0.1:0", cfg).expect("bind ephemeral server");
    let addr = handle.addr();
    (handle, addr)
}

fn counter(doc: &Value, name: &str) -> u64 {
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    {
        doc.get("counters")
            .and_then(|c| c.get(name))
            .and_then(Value::as_f64)
            .unwrap_or(0.0) as u64
    }
}

fn gauge_value(doc: &Value, name: &str) -> f64 {
    doc.get("gauges")
        .and_then(|g| g.get(name))
        .and_then(|g| g.get("value"))
        .and_then(Value::as_f64)
        .unwrap_or(-1.0)
}

fn histogram_count(doc: &Value, name: &str) -> u64 {
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    {
        doc.get("histograms")
            .and_then(|h| h.get(name))
            .and_then(|h| h.get("count"))
            .and_then(Value::as_f64)
            .unwrap_or(0.0) as u64
    }
}

fn temp_path(tag: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!(
        "starmagic-server-metrics-{tag}-{}.jsonl",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&p);
    p
}

/// "Why was the read after a write slow" as a counter: after an
/// `INSERT INTO project`, of the four wire templates (experiments A,
/// B, F and G) only F, which reads `project`, builds anything, and
/// only once; the `employee` and `department` structures the others
/// probe outlive the write.
#[test]
fn a_read_after_an_insert_rebuilds_only_the_written_tables_structures() {
    let (handle, addr) = start(ServerConfig {
        metrics: Registry::enabled(),
        ..ServerConfig::default()
    });
    let mut client = Client::connect(addr).expect("connect");
    let templates: Vec<(char, &str)> = starmagic_bench::experiments()
        .into_iter()
        .filter(|e| "ABFG".contains(e.id))
        .map(|e| (e.id, e.original_sql))
        .collect();
    assert_eq!(templates.len(), 4);
    // `exec.index.builds` each template adds, in order.
    let builds_per_template = |client: &mut Client| -> Vec<u64> {
        templates
            .iter()
            .map(|(id, sql)| {
                let before = client.metrics_json().expect("METRICS JSON");
                client
                    .query(sql)
                    .unwrap_or_else(|e| panic!("template {id}: {e}"));
                let after = client.metrics_json().expect("METRICS JSON");
                counter(&after, "exec.index.builds") - counter(&before, "exec.index.builds")
            })
            .collect()
    };

    let cold = builds_per_template(&mut client);
    assert!(
        cold.iter().sum::<u64>() > 0,
        "nothing is built on a cold engine"
    );
    assert_eq!(builds_per_template(&mut client), [0, 0, 0, 0], "warm");

    let before = client.metrics_json().expect("METRICS JSON");
    client
        .query("INSERT INTO project VALUES (9000, 'Churn', 100000, 1.0)")
        .expect("INSERT");
    let after = client.metrics_json().expect("METRICS JSON");
    assert_eq!(
        histogram_count(&after, "engine.ddl_us") - histogram_count(&before, "engine.ddl_us"),
        1
    );
    assert_eq!(
        counter(&after, "exec.index.builds"),
        counter(&before, "exec.index.builds"),
        "an INSERT builds nothing itself"
    );

    let rebuilt = builds_per_template(&mut client);
    let f = templates.iter().position(|(id, _)| *id == 'F').expect("F");
    for (i, (id, _)) in templates.iter().enumerate() {
        if i == f {
            assert!(rebuilt[i] > 0, "F reads project and must rebuild");
        } else {
            assert_eq!(rebuilt[i], 0, "template {id} does not read project");
        }
    }
    assert_eq!(builds_per_template(&mut client), [0, 0, 0, 0], "warm again");
    handle.shutdown();
}

/// Counters across every layer move with wire traffic, and the
/// document round-trips through the strict parser.
#[test]
fn live_counters_track_queries_cache_and_sessions() {
    let (handle, addr) = start(ServerConfig {
        metrics: Registry::enabled(),
        ..ServerConfig::default()
    });
    let mut client = Client::connect(addr).expect("connect");
    client.set_strategy("magic").expect("SET STRATEGY");
    let before = client.metrics_json().expect("METRICS JSON");
    assert_eq!(before.get("enabled"), Some(&Value::Bool(true)));

    client.query(SUITE_QUERY).expect("miss");
    client.query(SUITE_QUERY).expect("hit");
    let after = client.metrics_json().expect("METRICS JSON");

    // Engine layer: two executions.
    assert_eq!(
        counter(&after, "engine.queries") - counter(&before, "engine.queries"),
        2
    );
    // Cache layer, split by strategy: one compulsory miss, one hit.
    assert_eq!(
        counter(&after, "cache.miss.magic") - counter(&before, "cache.miss.magic"),
        1
    );
    assert_eq!(
        counter(&after, "cache.hit.magic") - counter(&before, "cache.hit.magic"),
        1
    );
    assert_eq!(counter(&after, "cache.hit.cost"), 0);
    // Wire layer: both queries landed in the latency histogram and the
    // per-verb counter; this session was counted.
    assert_eq!(
        histogram_count(&after, "server.query_us") - histogram_count(&before, "server.query_us"),
        2
    );
    assert_eq!(
        counter(&after, "server.cmd.query") - counter(&before, "server.cmd.query"),
        2
    );
    assert!(counter(&after, "server.sessions_opened") >= 1);
    assert!(counter(&after, "server.bytes_out") > counter(&before, "server.bytes_out"));
    // Admission gate: both queries got a permit, none bounced, and the
    // published catalog epoch is live in the gauge.
    assert_eq!(
        counter(&after, "server.admission.admitted")
            - counter(&before, "server.admission.admitted"),
        2
    );
    assert_eq!(counter(&after, "server.admission.busy"), 0);
    assert!(
        gauge_value(&after, "server.epoch") >= 1.0,
        "server.epoch gauge must carry the snapshot epoch"
    );
    // Sharded cache: the miss and the hit each landed on exactly one
    // `cache.shard.<i>.*` counter.
    let shard_total = |doc: &Value, kind: &str| -> u64 {
        (0..16)
            .map(|i| counter(doc, &format!("cache.shard.{i}.{kind}")))
            .sum()
    };
    assert_eq!(
        shard_total(&after, "hits") - shard_total(&before, "hits"),
        1
    );
    assert_eq!(
        shard_total(&after, "misses") - shard_total(&before, "misses"),
        1
    );
    // Executor layer fed through the same registry.
    assert!(counter(&after, "exec.rows_scanned") > counter(&before, "exec.rows_scanned"));
    // Pipeline phases were timed (parse/bind/execute on every request).
    assert!(histogram_count(&after, "phase.execute_us") >= 2);

    // The plan-cache section mirrors the engine's per-strategy split.
    let by_strategy = after
        .get("plan_cache")
        .and_then(|p| p.get("by_strategy"))
        .expect("plan_cache.by_strategy");
    assert!(by_strategy.get("Magic").is_some());

    // The document survives its own serialization through the strict
    // parser (writer/parser fixpoint).
    let reparsed = starmagic_trace::json::parse(&after.to_string()).expect("round-trip");
    assert_eq!(
        counter(&reparsed, "engine.queries"),
        counter(&after, "engine.queries")
    );

    handle.shutdown();
}

/// The slow log writes exactly one well-formed JSONL record for the
/// one query over the threshold, and nothing below it.
#[test]
fn slowlog_writes_exactly_one_record_over_threshold() {
    let path = temp_path("threshold");
    let slowlog = Arc::new(SlowLog::new(&path, None, DEFAULT_MAX_BYTES));
    let (handle, addr) = start(ServerConfig {
        metrics: Registry::enabled(),
        slowlog: Some(Arc::clone(&slowlog)),
        ..ServerConfig::default()
    });
    let mut client = Client::connect(addr).expect("connect");
    client.set_strategy("magic").expect("SET STRATEGY");

    // Armed far above anything this query can take: no record.
    client.set_slowlog(Some(3_600_000)).expect("SET SLOWLOG");
    client.query(SUITE_QUERY).expect("fast query");
    assert_eq!(slowlog.records_written(), 0);
    assert!(!path.exists(), "no record may touch the file");

    // Threshold 0 logs everything: exactly one record for one query.
    client.set_slowlog(Some(0)).expect("SET SLOWLOG 0");
    client.query(SUITE_QUERY).expect("slow-by-decree query");
    client.set_slowlog(None).expect("SET SLOWLOG OFF");
    client.query(SUITE_QUERY).expect("disarmed query");
    assert_eq!(slowlog.records_written(), 1);

    let text = std::fs::read_to_string(&path).expect("slowlog file");
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 1, "exactly one JSONL record: {text:?}");
    let record = starmagic_trace::json::parse(lines[0]).expect("record parses");
    assert!(record
        .get("sql")
        .and_then(Value::as_str)
        .is_some_and(|s| s.contains("SELECT")));
    assert_eq!(
        record.get("strategy").and_then(Value::as_str),
        Some("magic")
    );
    assert_eq!(record.get("cache_hit"), Some(&Value::Bool(true)));
    assert!(record.get("duration_us").and_then(Value::as_f64).is_some());
    assert!(record.get("spans").is_some_and(Value::is_obj));

    // The write was counted in the registry too.
    let doc = client.metrics_json().expect("METRICS JSON");
    assert_eq!(counter(&doc, "server.slowlog.records"), 1);

    handle.shutdown();
    let _ = std::fs::remove_file(&path);
}

/// Raw wire exchange: send each command, collect its full response
/// frame as bytes.
fn raw_session(addr: SocketAddr, cmds: &[String]) -> Vec<String> {
    let stream = TcpStream::connect(addr).expect("connect");
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);
    let mut frames = Vec::new();
    for cmd in cmds {
        writer
            .write_all(format!("{cmd}\n").as_bytes())
            .expect("send");
        let mut frame = String::new();
        loop {
            let mut line = String::new();
            assert!(reader.read_line(&mut line).expect("recv") > 0, "EOF");
            frame.push_str(&line);
            let mut tokens = line.split_whitespace();
            match tokens.next().unwrap_or("") {
                "OK" | "ERR" => break,
                "TEXT" => {
                    let n: usize = tokens.next().unwrap().parse().unwrap();
                    for _ in 0..n {
                        let mut l = String::new();
                        reader.read_line(&mut l).expect("recv text line");
                        frame.push_str(&l);
                    }
                    break;
                }
                _ => {}
            }
        }
        frames.push(frame);
    }
    frames
}

/// A metrics-off server answers the same command sequence with
/// byte-identical frames, and its own snapshot stays empty — the noop
/// registry records nothing anywhere.
#[test]
fn disabled_metrics_server_is_byte_identical_and_emits_nothing() {
    let cmds: Vec<String> = vec![
        "PING".to_string(),
        "SET STRATEGY magic".to_string(),
        format!("QUERY {SUITE_QUERY}"),
        format!("QUERY {SUITE_QUERY}"),
        "SET STRATEGY original".to_string(),
        format!("QUERY {SUITE_QUERY}"),
        // Plan-cache counters live in the cache, not the registry, so
        // even the CACHE report must match.
        "CACHE".to_string(),
    ];
    let (live_handle, live_addr) = start(ServerConfig {
        metrics: Registry::enabled(),
        ..ServerConfig::default()
    });
    let (noop_handle, noop_addr) = start(ServerConfig::default());

    let live_frames = raw_session(live_addr, &cmds);
    let noop_frames = raw_session(noop_addr, &cmds);
    assert_eq!(
        live_frames, noop_frames,
        "metrics must never change a response byte"
    );

    // The noop server's snapshot is empty: disabled, no counters, no
    // gauges, no histograms — while the cache section still reports.
    let mut client = Client::connect(noop_addr).expect("connect");
    let doc = client.metrics_json().expect("METRICS JSON");
    assert_eq!(doc.get("enabled"), Some(&Value::Bool(false)));
    for section in ["counters", "gauges", "histograms"] {
        match doc.get(section) {
            Some(Value::Obj(entries)) => {
                assert!(entries.is_empty(), "{section} must be empty: {entries:?}");
            }
            other => panic!("missing {section}: {other:?}"),
        }
    }
    assert!(doc.get("plan_cache").is_some());
    let text = client.metrics().expect("METRICS");
    assert!(
        text.contains("(metrics disabled)"),
        "human report says so: {text}"
    );

    noop_handle.shutdown();
    live_handle.shutdown();
}
