//! End-to-end tests of the TCP service: wire round-trips, prepared
//! statements, per-session settings, admission control (`BUSY`),
//! epoch-snapshot DDL/cache interaction, deadline-bounded graceful
//! shutdown, and reader/DDL-writer consistency under load.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use starmagic::{Engine, Strategy};
use starmagic_catalog::generator::Scale;
use starmagic_common::{Error, Value};
use starmagic_server::protocol::{encode_row, Response};
use starmagic_server::{serve, serve_engine, Client, ServerConfig, SharedEngine};

fn test_engine() -> Engine {
    starmagic_bench::bench_engine(Scale::small()).expect("bench engine builds")
}

fn start() -> (starmagic_server::ServerHandle, std::net::SocketAddr) {
    start_with(ServerConfig::default())
}

fn start_with(cfg: ServerConfig) -> (starmagic_server::ServerHandle, std::net::SocketAddr) {
    let handle = serve_engine(test_engine(), "127.0.0.1:0", cfg).expect("bind ephemeral server");
    let addr = handle.addr();
    (handle, addr)
}

/// Sorted bag of encoded row tokens — the byte-identical comparison
/// unit shared with the determinism suite.
fn bag(rows: &[starmagic_common::Row]) -> Vec<String> {
    let mut b: Vec<String> = rows.iter().map(encode_row).collect();
    b.sort_unstable();
    b
}

const SUITE_QUERY: &str = "SELECT d.deptname, v.avgsal \
                           FROM department d, deptAvgSal v \
                           WHERE v.workdept = d.deptno AND d.deptno = 7";

/// A deliberately expensive query (three-way near-cartesian over the
/// small scale) that holds an admission permit for a couple of
/// seconds — long enough for another session to observe saturation or
/// for shutdown to hit the drain deadline while it runs.
const SLOW_QUERY: &str = "SELECT COUNT(*) AS n FROM employee e1, employee e2, department d \
                          WHERE e1.salary < e2.salary";

#[test]
fn query_round_trips_byte_identical_to_in_process() {
    let (handle, addr) = start();
    let engine = test_engine();
    let mut client = Client::connect(addr).expect("connect");

    for (name, strategy) in [
        ("original", Strategy::Original),
        ("cost", Strategy::CostBased),
        ("magic", Strategy::Magic),
    ] {
        client.set_strategy(name).expect("SET STRATEGY");
        let local = engine.query_with(SUITE_QUERY, strategy).expect("local run");
        match client.query(SUITE_QUERY).expect("wire run") {
            Response::Rows {
                columns,
                rows,
                epoch,
                ..
            } => {
                assert_eq!(columns, local.columns, "{name}: column names");
                assert_eq!(bag(&rows), bag(&local.rows), "{name}: row bag");
                assert_eq!(epoch, engine.epoch(), "{name}: snapshot epoch");
            }
            other => panic!("{name}: expected rows, got {other:?}"),
        }
    }
    handle.shutdown();
}

#[test]
fn prepared_statements_bind_constants_over_the_wire() {
    let (handle, addr) = start();
    let engine = test_engine();
    let mut client = Client::connect(addr).expect("connect");

    let params = client
        .prepare(
            "by_dept",
            "SELECT empname, salary FROM employee WHERE workdept = ?",
        )
        .expect("PREPARE");
    assert_eq!(params, 1, "one user parameter marker");

    // Two executions with different constants must match two fresh
    // single-shot runs — and the second must be a plan-cache hit.
    let mut hits = Vec::new();
    for dept in [3_i64, 5] {
        let local = engine
            .query_with(
                &format!("SELECT empname, salary FROM employee WHERE workdept = {dept}"),
                Strategy::CostBased,
            )
            .expect("local run");
        match client
            .execute("by_dept", &[Value::Int(dept)])
            .expect("EXECUTE")
        {
            Response::Rows {
                rows, cache_hit, ..
            } => {
                assert_eq!(bag(&rows), bag(&local.rows), "dept {dept}");
                assert!(!rows.is_empty(), "dept {dept} should have employees");
                hits.push(cache_hit);
            }
            other => panic!("expected rows, got {other:?}"),
        }
    }
    assert!(hits[1], "second execution must hit the shared plan cache");

    client.close("by_dept").expect("CLOSE");
    let err = client.execute("by_dept", &[Value::Int(3)]).unwrap_err();
    assert!(
        matches!(err, Error::NotFound(_)),
        "closed statement must be gone, got {err:?}"
    );
    handle.shutdown();
}

/// A session holds its prepared plan only for the epoch it was built
/// at: an INSERT from another connection moves the epoch, and the next
/// EXECUTE resolves again and sees the new row; repeats hit again.
#[test]
fn a_held_plan_never_outlives_its_epoch() {
    let (handle, addr) = start();
    let mut session = Client::connect(addr).expect("connect");
    let mut writer = Client::connect(addr).expect("connect");
    let sql = "SELECT projno FROM project WHERE deptno = ?";
    session.prepare("projects", sql).expect("PREPARE");
    let run = |client: &mut Client| match client
        .execute("projects", &[Value::Int(3)])
        .expect("EXECUTE")
    {
        Response::Rows {
            rows,
            cache_hit,
            epoch,
            ..
        } => (bag(&rows), cache_hit, epoch),
        other => panic!("expected rows, got {other:?}"),
    };
    let (before, hit, epoch) = run(&mut session);
    assert!(hit, "PREPARE resolved the plan: EXECUTE is a hit");

    let ack = writer
        .query("INSERT INTO project VALUES (9000, 'Held', 3, 1.0)")
        .expect("INSERT from another connection");
    assert_eq!(ack.info("epoch"), Some((epoch + 1).to_string().as_str()));

    let (after, hit, moved) = run(&mut session);
    assert_eq!(moved, epoch + 1, "EXECUTE reads the new snapshot");
    assert!(!hit, "the INSERT flushed the plan: EXECUTE re-plans");
    assert_eq!(after.len(), before.len() + 1, "the new row is seen");
    assert!(
        after.contains(&encode_row(&starmagic_common::Row::new(vec![Value::Int(
            9000
        )])))
    );
    let (again, hit, _) = run(&mut session);
    assert!(hit, "the re-resolved plan is held and hits");
    assert_eq!(again, after);
    handle.shutdown();
}

#[test]
fn arity_mismatch_is_rejected_over_the_wire() {
    let (handle, addr) = start();
    let mut client = Client::connect(addr).expect("connect");
    client
        .prepare("p", "SELECT empname FROM employee WHERE workdept = ?")
        .expect("PREPARE");
    let err = client.execute("p", &[]).unwrap_err();
    assert!(
        err.to_string().contains("parameter"),
        "expected an arity error, got {err:?}"
    );
    handle.shutdown();
}

#[test]
fn saturation_answers_busy_and_the_session_recovers() {
    // One permit, near-zero patience: while a slow query holds the
    // gate, any other query gets a retryable BUSY frame — the
    // connection stays open — and succeeds once the permit frees up.
    let (handle, addr) = start_with(ServerConfig {
        max_inflight: 1,
        admission_wait: Duration::from_millis(10),
        ..ServerConfig::default()
    });
    let mut blocked = Client::connect(addr).expect("connect holder");
    let holder = std::thread::spawn(move || blocked.query(SLOW_QUERY));

    let mut client = Client::connect(addr).expect("connect prober");
    client.ping().expect("non-gated commands bypass admission");
    // Wait until the slow query actually occupies the permit, then the
    // probe must bounce.
    let deadline = Instant::now() + Duration::from_secs(10);
    let busy = loop {
        match client.query(SUITE_QUERY).expect("probe query") {
            Response::Busy(msg) => break msg,
            Response::Rows { .. } => {
                assert!(
                    Instant::now() < deadline,
                    "never observed BUSY while the slow query ran"
                );
                std::thread::sleep(Duration::from_millis(5));
            }
            other => panic!("expected rows or BUSY, got {other:?}"),
        }
    };
    assert!(
        busy.contains("retry"),
        "BUSY message should invite a retry, got {busy:?}"
    );

    // The same connection keeps working: retried admission succeeds
    // once the holder finishes (query_admitted loops on BUSY).
    match holder.join().expect("holder thread").expect("slow query") {
        Response::Rows { rows, .. } => assert_eq!(rows.len(), 1, "COUNT(*) row"),
        other => panic!("expected rows, got {other:?}"),
    }
    match client.query_admitted(SUITE_QUERY).expect("retry succeeds") {
        Response::Rows { rows, .. } => assert!(!rows.is_empty()),
        other => panic!("expected rows, got {other:?}"),
    }
    handle.shutdown();
}

#[test]
fn connections_beyond_the_old_session_cap_are_served() {
    // Connections are no longer a capped resource: dozens of idle
    // sessions coexist and all of them answer queries, because the
    // gate bounds in-flight *queries*, not sockets.
    let (handle, addr) = start_with(ServerConfig {
        max_inflight: 2,
        ..ServerConfig::default()
    });
    let mut clients: Vec<Client> = (0..16)
        .map(|i| Client::connect(addr).unwrap_or_else(|e| panic!("connect {i}: {e}")))
        .collect();
    for (i, c) in clients.iter_mut().enumerate() {
        c.ping().unwrap_or_else(|e| panic!("ping {i}: {e}"));
        match c.query_admitted(SUITE_QUERY) {
            Ok(Response::Rows { rows, .. }) => assert!(!rows.is_empty(), "client {i}"),
            other => panic!("client {i}: expected rows, got {other:?}"),
        }
    }
    handle.shutdown();
}

#[test]
fn errors_travel_with_their_variant() {
    let (handle, addr) = start();
    let mut client = Client::connect(addr).expect("connect");

    let err = client.query("SELECT FROM").unwrap_err();
    assert!(
        matches!(err, Error::Parse { .. }),
        "parse failures must arrive as Error::Parse, got {err:?}"
    );
    let err = client.query("SELECT * FROM no_such_table").unwrap_err();
    assert!(
        !matches!(err, Error::Internal(_)),
        "unknown table is a user error, got {err:?}"
    );
    let err = client.request("FROBNICATE now").unwrap_err();
    assert!(
        matches!(err, Error::Unsupported(_)),
        "unknown verbs must be Unsupported, got {err:?}"
    );
    // The session survives all of the above.
    client.ping().expect("session still alive");
    handle.shutdown();
}

#[test]
fn explain_analyze_and_cache_frames_work_over_the_wire() {
    let (handle, addr) = start();
    let mut client = Client::connect(addr).expect("connect");

    let explain = client.explain(SUITE_QUERY).expect("EXPLAIN");
    assert!(explain.contains("== plan cache"), "explain:\n{explain}");
    assert!(explain.contains("key"), "explain carries the cache key");

    let analyze = client.explain_analyze(SUITE_QUERY).expect("ANALYZE");
    assert!(analyze.contains("== profile"), "analyze:\n{analyze}");
    assert!(analyze.contains("== plan cache"), "analyze:\n{analyze}");

    client.cache(true).expect("CACHE CLEAR");
    client.query(SUITE_QUERY).expect("miss");
    let hit = match client.query(SUITE_QUERY).expect("hit") {
        Response::Rows { cache_hit, .. } => cache_hit,
        other => panic!("expected rows, got {other:?}"),
    };
    assert!(hit, "identical query must hit the plan cache");
    let report = client.cache(false).expect("CACHE");
    assert!(report.contains("== plan cache"), "cache report:\n{report}");
    handle.shutdown();
}

#[test]
fn ddl_over_the_wire_bumps_the_epoch_and_flushes_the_shared_cache() {
    let (handle, addr) = start();
    let mut client = Client::connect(addr).expect("connect");

    client.cache(true).expect("CACHE CLEAR");
    let before = match client.query(SUITE_QUERY).expect("warm the cache") {
        Response::Rows { epoch, .. } => epoch,
        other => panic!("expected rows, got {other:?}"),
    };
    match client.query(SUITE_QUERY).expect("hit") {
        Response::Rows { cache_hit, .. } => assert!(cache_hit, "warmed plan must hit"),
        other => panic!("expected rows, got {other:?}"),
    }

    let ddl = client
        .query("CREATE VIEW wire_view (deptno) AS SELECT deptno FROM department")
        .expect("DDL over the wire");
    assert_eq!(ddl.info("rows"), Some("0"), "DDL returns no rows: {ddl:?}");
    let ddl_epoch: u64 = ddl
        .info("epoch")
        .expect("DDL OK line carries the new epoch")
        .parse()
        .expect("numeric epoch");
    assert_eq!(ddl_epoch, before + 1, "DDL bumps the catalog epoch");
    match client.query(SUITE_QUERY).expect("after DDL") {
        Response::Rows {
            cache_hit, epoch, ..
        } => {
            assert!(!cache_hit, "DDL must invalidate every cached plan");
            assert_eq!(epoch, ddl_epoch, "reads run on the new snapshot");
        }
        other => panic!("expected rows, got {other:?}"),
    }
    match client
        .query("SELECT deptno FROM wire_view")
        .expect("new view")
    {
        Response::Rows { rows, .. } => assert!(!rows.is_empty()),
        other => panic!("expected rows, got {other:?}"),
    }
    handle.shutdown();
}

#[test]
fn stale_snapshot_cannot_repopulate_the_cache_after_ddl() {
    // A query planned against a snapshot at epoch E must not land in
    // the shared cache once DDL has published epoch E+1. Under the
    // previous Arc<RwLock<Engine>> design this test fails: an
    // in-flight reader finished planning against the pre-DDL catalog
    // and its insert resurrected the stale plan right after the DDL
    // flush, to be served to every later session.
    let shared = SharedEngine::new(test_engine());
    let stale = shared.snapshot();
    let e = stale.epoch();

    let (_, bumped) = shared
        .run_ddl("CREATE VIEW epoch_probe (deptno) AS SELECT deptno FROM department")
        .expect("DDL");
    assert_eq!(bumped, e + 1);
    let fresh = shared.snapshot();
    assert_eq!(fresh.epoch(), e + 1);

    // The stale snapshot still answers queries (that is the point of
    // snapshot isolation) and its plan carries epoch E...
    let old = stale
        .query_cached_traced(SUITE_QUERY, Strategy::CostBased)
        .expect("stale snapshot still serves reads");
    assert!(!old.result.rows.is_empty());
    assert!(!old.hit);

    // ...but that plan was refused by the shared cache: the fresh
    // snapshot's first lookup is a miss, then a hit on repeat.
    let first = fresh
        .query_cached_traced(SUITE_QUERY, Strategy::CostBased)
        .expect("fresh run");
    assert!(
        !first.hit,
        "a plan built at epoch {e} leaked into the epoch {} cache",
        e + 1
    );
    let second = fresh
        .query_cached_traced(SUITE_QUERY, Strategy::CostBased)
        .expect("fresh rerun");
    assert!(second.hit, "current-epoch plans are cached normally");
}

#[test]
fn per_session_strategy_controls_the_executed_plan() {
    let (handle, addr) = start();
    let mut client = Client::connect(addr).expect("connect");

    client.set_strategy("magic").expect("SET STRATEGY magic");
    let magic = match client.query(SUITE_QUERY).expect("magic run") {
        Response::Rows {
            rows, used_magic, ..
        } => {
            assert!(used_magic, "forced magic must execute the magic plan");
            bag(&rows)
        }
        other => panic!("expected rows, got {other:?}"),
    };
    client
        .set_strategy("original")
        .expect("SET STRATEGY original");
    match client.query(SUITE_QUERY).expect("original run") {
        Response::Rows {
            rows, used_magic, ..
        } => {
            assert!(!used_magic, "original must not take the magic plan");
            assert_eq!(bag(&rows), magic, "strategies agree on results");
        }
        other => panic!("expected rows, got {other:?}"),
    }
    handle.shutdown();
}

#[test]
fn a_retired_thread_setting_is_unsupported_and_the_session_lives() {
    let (handle, addr) = start();
    let mut client = Client::connect(addr).expect("connect");
    let err = client.request("SET THREADS 4").unwrap_err();
    assert!(matches!(err, Error::Unsupported(_)), "got {err:?}");
    client.ping().expect("PING after the rejected SET");
    match client
        .query(SUITE_QUERY)
        .expect("QUERY after the rejected SET")
    {
        Response::Rows { rows, .. } => assert!(!rows.is_empty()),
        other => panic!("expected rows, got {other:?}"),
    }
    handle.shutdown();
}

#[test]
fn graceful_shutdown_drains_in_flight_sessions() {
    // Keep a handle on the shared engine so lock health is checkable
    // after the server is gone.
    let shared = SharedEngine::new(test_engine());
    let handle = serve(shared.clone(), "127.0.0.1:0", ServerConfig::default()).expect("bind");
    let addr = handle.addr();

    let mut client = Client::connect(addr).expect("connect");
    client.ping().expect("session established");
    let worker = std::thread::spawn(move || {
        // A burst of requests racing the shutdown flag: every one must
        // complete — drain semantics — because the session only exits
        // at an idle poll.
        for i in 0..50 {
            let r = client.query(SUITE_QUERY);
            assert!(
                r.is_ok(),
                "in-flight query {i} failed during shutdown: {r:?}"
            );
        }
        client.request("QUIT").expect("quit");
    });
    std::thread::sleep(Duration::from_millis(5));
    handle.request_shutdown();
    worker.join().expect("worker panicked");
    handle.shutdown(); // joins accept loop + sessions; must not hang

    // New connections are refused once the listener is down.
    match Client::connect(addr) {
        Err(_) => {}
        Ok(mut late) => {
            assert!(
                late.ping().is_err(),
                "server accepted a session after shutdown"
            );
        }
    }

    // No poisoned locks: the engine is immediately usable in-process.
    let rows = shared
        .snapshot()
        .query(SUITE_QUERY)
        .expect("engine healthy after shutdown")
        .rows;
    assert!(!rows.is_empty());
}

#[test]
fn shutdown_returns_by_the_drain_deadline_with_a_query_in_flight() {
    // The drain is bounded: with a multi-second query running,
    // shutdown() must come back within the configured deadline (plus
    // scheduling slack), not block until the straggler finishes. The
    // abandoned session still completes its request — the client gets
    // its rows — it just does so after the server has stopped waiting.
    let (handle, addr) = start_with(ServerConfig {
        drain_deadline: Duration::from_millis(150),
        ..ServerConfig::default()
    });
    let mut blocked = Client::connect(addr).expect("connect");
    let worker = std::thread::spawn(move || blocked.query(SLOW_QUERY));
    // Give the slow query time to reach the executor.
    std::thread::sleep(Duration::from_millis(300));

    let t = Instant::now();
    handle.shutdown();
    let waited = t.elapsed();
    assert!(
        waited < Duration::from_secs(1),
        "shutdown blocked {waited:?} past its 150ms drain deadline"
    );

    match worker.join().expect("worker").expect("abandoned query") {
        Response::Rows { rows, .. } => assert_eq!(rows.len(), 1, "COUNT(*) row"),
        other => panic!("expected rows, got {other:?}"),
    }
}

#[test]
fn shutdown_frame_from_a_client_stops_the_server() {
    let (handle, addr) = start();
    let mut client = Client::connect(addr).expect("connect");
    client.query(SUITE_QUERY).expect("server serves");
    client.shutdown_server().expect("SHUTDOWN acknowledged");
    // wait() returns only when the accept loop exits on its own.
    handle.wait();
}

#[test]
fn concurrent_readers_agree_with_exactly_one_epoch_under_ddl() {
    // The reader/writer consistency stress: readers hammer the server
    // while a writer publishes a new catalog epoch every few
    // milliseconds. Every response must be internally consistent with
    // exactly one epoch — the row bag for `epoch_log` at epoch K is
    // exactly the rows inserted by the time K was published, and the
    // Table-1 suite bag is byte-identical to the serial in-process run
    // at every epoch (that DDL never touches its inputs).
    const STEPS: i64 = 12;
    const READERS: usize = 4;

    let (handle, addr) = start();
    let serial = {
        let local = test_engine();
        bag(&local.query(SUITE_QUERY).expect("serial run").rows)
    };

    let mut writer = Client::connect(addr).expect("connect writer");
    let base: u64 = writer
        .query_admitted("CREATE TABLE epoch_log (step INT)")
        .expect("CREATE TABLE")
        .info("epoch")
        .expect("DDL OK line carries the new epoch")
        .parse()
        .expect("numeric epoch");

    let stop = Arc::new(AtomicBool::new(false));
    let readers: Vec<_> = (0..READERS)
        .map(|r| {
            let stop = Arc::clone(&stop);
            let serial = serial.clone();
            let mut c = Client::connect(addr).unwrap_or_else(|e| panic!("reader {r}: {e}"));
            std::thread::spawn(move || {
                let mut checked = 0_u64;
                while !stop.load(Ordering::Relaxed) {
                    // The log table: the epoch on the OK line fully
                    // determines which INSERTs the snapshot holds.
                    match c.query_admitted("SELECT step FROM epoch_log") {
                        Ok(Response::Rows { rows, epoch, .. }) => {
                            let inserted = (epoch - base).min(STEPS as u64) as i64;
                            let mut expect: Vec<String> = (1..=inserted)
                                .map(|k| {
                                    encode_row(&starmagic_common::Row::new(vec![Value::Int(k)]))
                                })
                                .collect();
                            expect.sort_unstable();
                            assert_eq!(
                                bag(&rows),
                                expect,
                                "reader {r}: epoch {epoch} bag is torn (base {base})"
                            );
                            checked += 1;
                        }
                        Ok(other) => panic!("reader {r}: unexpected {other:?}"),
                        Err(e) => panic!("reader {r}: {e}"),
                    }
                    // The suite query: untouched by the writer's DDL,
                    // so its bag never changes across epochs.
                    match c.query_admitted(SUITE_QUERY) {
                        Ok(Response::Rows { rows, epoch, .. }) => {
                            assert!(epoch >= base, "reader {r}: epoch went backwards");
                            assert_eq!(
                                bag(&rows),
                                serial,
                                "reader {r}: suite bag diverged at epoch {epoch}"
                            );
                        }
                        Ok(other) => panic!("reader {r}: unexpected {other:?}"),
                        Err(e) => panic!("reader {r}: {e}"),
                    }
                }
                checked
            })
        })
        .collect();

    for k in 1..=STEPS {
        let epoch: u64 = writer
            .query_admitted(&format!("INSERT INTO epoch_log VALUES ({k})"))
            .unwrap_or_else(|e| panic!("INSERT {k}: {e}"))
            .info("epoch")
            .unwrap_or_else(|| panic!("INSERT {k}: no epoch on the OK line"))
            .parse()
            .expect("numeric epoch");
        assert_eq!(epoch, base + k as u64, "each INSERT publishes one epoch");
        std::thread::sleep(Duration::from_millis(10));
    }

    stop.store(true, Ordering::Relaxed);
    for (r, h) in readers.into_iter().enumerate() {
        let checked = h.join().unwrap_or_else(|_| panic!("reader {r} panicked"));
        assert!(checked > 0, "reader {r} never verified a log read");
    }
    handle.shutdown();
}
