//! The TCP service: accept loop, session threads, admission control,
//! graceful shutdown.
//!
//! One thread per connection. Queries run against epoch snapshots
//! ([`SharedEngine::snapshot`]) so sessions never serialize on the
//! engine; overload is handled by an admission gate — a bounded
//! in-flight-query semaphore — that answers `BUSY` (a retryable
//! frame, the connection stays open) instead of dropping connections.
//! The accept loop blocks in `accept` and is woken by a loopback
//! connection when shutdown is requested; sessions poll their sockets
//! with a short read timeout so they observe the flag when idle.
//! Shutdown is *graceful with a deadline*: in-flight requests run to
//! completion and their responses are written, new connections are
//! refused with an error frame, and finished session threads are
//! reaped — but [`ServerHandle::shutdown`] waits at most
//! [`ServerConfig::drain_deadline`] before abandoning stragglers
//! (they still finish their request and exit on their own; the server
//! just stops waiting for them).

use std::collections::HashMap;
use std::io::{self, ErrorKind, Read, Write};
use std::net::{IpAddr, Ipv4Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use starmagic::{Engine, Strategy};
use starmagic_common::{Error, Value};
use starmagic_metrics::{Counter, Gauge, Histogram, Registry};

use crate::protocol::{decode_value, encode_error, encode_row, escape};
use crate::shared::SharedEngine;
use crate::slowlog::{SlowLog, SlowRecord};

/// How long a blocked session read waits before re-checking the
/// shutdown flag.
const POLL_INTERVAL: Duration = Duration::from_millis(50);

/// How often the drain loop re-checks session liveness.
const DRAIN_POLL: Duration = Duration::from_millis(5);

/// Server knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Admission-gate width: queries (QUERY/EXECUTE/ANALYZE) running
    /// concurrently across all sessions. A request that cannot get a
    /// permit within [`ServerConfig::admission_wait`] is answered
    /// with a retryable `BUSY` frame; the connection itself is never
    /// dropped for load. (This replaces the old hard session cap:
    /// connections are cheap — one parked thread — so the scarce
    /// resource worth gating is query execution.)
    pub max_inflight: usize,
    /// How long an over-limit query waits for a permit before `BUSY`.
    pub admission_wait: Duration,
    /// Upper bound on the graceful-shutdown drain: sessions still
    /// mid-request past the deadline are abandoned (left to finish in
    /// the background) so shutdown returns promptly.
    pub drain_deadline: Duration,
    /// Metrics registry for the wire layer. [`serve_engine`] also
    /// installs it into the engine when live, so one `METRICS`
    /// snapshot covers sessions, commands, cache, executor, and
    /// planner. The default (noop) registry records nothing and
    /// leaves every instrumented path free of clock reads and
    /// allocations.
    pub metrics: Registry,
    /// Structured slow-query log; `None` (the default) disables it
    /// entirely, including the wire `SET SLOWLOG` command.
    pub slowlog: Option<Arc<SlowLog>>,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            max_inflight: 64,
            admission_wait: Duration::from_millis(100),
            drain_deadline: Duration::from_secs(5),
            metrics: Registry::noop(),
            slowlog: None,
        }
    }
}

/// Pre-registered wire-level instrument handles (all noop when the
/// config's registry is). Naming: `server.*`, `_us` histograms in
/// microseconds.
#[derive(Debug, Clone)]
struct ServerMetrics {
    registry: Registry,
    /// `server.sessions_opened`: connections admitted.
    sessions_opened: Counter,
    /// `server.sessions_refused`: connections turned away (shutdown).
    sessions_refused: Counter,
    /// `server.sessions_active`: live sessions, with peak.
    sessions_active: Gauge,
    /// `server.bytes_in` / `server.bytes_out`: request/response bytes.
    bytes_in: Counter,
    bytes_out: Counter,
    /// `server.errors`: requests answered with an `ERR` frame.
    errors: Counter,
    /// `server.epoch`: the catalog epoch of the latest published
    /// snapshot (set at serve time, bumped on every successful DDL).
    epoch: Gauge,
    /// `server.admission.admitted`: gated commands that got a permit.
    admission_admitted: Counter,
    /// `server.admission.busy`: gated commands answered `BUSY`.
    admission_busy: Counter,
    /// `server.admission.inflight`: permits currently held, with peak.
    admission_inflight: Gauge,
    /// `server.command_us`: latency of every dispatched command.
    command_us: Histogram,
    /// `server.query_us`: latency of `QUERY`/`EXECUTE` commands only
    /// (the histogram the loadgen cross-checks its client-side
    /// percentiles against).
    query_us: Histogram,
    /// `server.drain_us`: graceful-shutdown drain time.
    drain_us: Histogram,
    /// `server.drain_abandoned`: sessions still running when the
    /// drain deadline expired.
    drain_abandoned: Counter,
    /// `server.slowlog.records`: slow-query records written.
    slowlog_records: Counter,
}

impl ServerMetrics {
    fn new(registry: Registry) -> Arc<ServerMetrics> {
        Arc::new(ServerMetrics {
            sessions_opened: registry.counter("server.sessions_opened"),
            sessions_refused: registry.counter("server.sessions_refused"),
            sessions_active: registry.gauge("server.sessions_active"),
            bytes_in: registry.counter("server.bytes_in"),
            bytes_out: registry.counter("server.bytes_out"),
            errors: registry.counter("server.errors"),
            epoch: registry.gauge("server.epoch"),
            admission_admitted: registry.counter("server.admission.admitted"),
            admission_busy: registry.counter("server.admission.busy"),
            admission_inflight: registry.gauge("server.admission.inflight"),
            command_us: registry.histogram("server.command_us"),
            query_us: registry.histogram("server.query_us"),
            drain_us: registry.histogram("server.drain_us"),
            drain_abandoned: registry.counter("server.drain_abandoned"),
            slowlog_records: registry.counter("server.slowlog.records"),
            registry,
        })
    }

    /// Count one dispatched command under `server.cmd.<verb>`. The
    /// per-verb counter is fetched from the registry's name map per
    /// call (a short read-lock) — acceptable at wire-command rate,
    /// and skipped entirely when metrics are off.
    fn note_command(&self, verb: &str) {
        if !self.registry.is_noop() {
            self.registry
                .counter(&format!("server.cmd.{}", verb.to_ascii_lowercase()))
                .inc();
        }
    }
}

/// The shutdown flag plus the listener's address, so any trigger site
/// (the handle, or a session's `SHUTDOWN` frame) can wake the accept
/// loop out of its blocking `accept` with a loopback connection.
struct ShutdownSignal {
    flag: AtomicBool,
    addr: SocketAddr,
}

impl ShutdownSignal {
    fn new(addr: SocketAddr) -> ShutdownSignal {
        ShutdownSignal {
            flag: AtomicBool::new(false),
            addr,
        }
    }

    fn requested(&self) -> bool {
        self.flag.load(Ordering::SeqCst)
    }

    /// Set the flag and poke the accept loop awake. Only the first
    /// trigger connects; the accepted probe is refused and closed by
    /// the exiting loop.
    fn trigger(&self) {
        if !self.flag.swap(true, Ordering::SeqCst) {
            let mut addr = self.addr;
            if addr.ip().is_unspecified() {
                addr.set_ip(IpAddr::V4(Ipv4Addr::LOCALHOST));
            }
            let _ = TcpStream::connect_timeout(&addr, Duration::from_millis(250));
        }
    }
}

/// Bounded in-flight-query semaphore (hand-rolled: `Mutex` +
/// `Condvar`, no external deps). Saturation is backpressure, not
/// failure — callers that cannot get a permit within the configured
/// wait answer `BUSY` and the client retries.
struct AdmissionGate {
    inflight: Mutex<usize>,
    freed: Condvar,
    max: usize,
    wait: Duration,
}

impl AdmissionGate {
    fn new(max: usize, wait: Duration) -> Arc<AdmissionGate> {
        Arc::new(AdmissionGate {
            inflight: Mutex::new(0),
            freed: Condvar::new(),
            max: max.max(1),
            wait,
        })
    }

    /// Acquire a permit, waiting up to the configured bound. `None`
    /// means the server is saturated and the caller should answer
    /// `BUSY`. The gauge tracks held permits (with peak).
    fn admit(self: &Arc<AdmissionGate>, gauge: &Gauge) -> Option<AdmissionPermit> {
        let mut n = self.inflight.lock().unwrap_or_else(PoisonError::into_inner);
        let deadline = Instant::now() + self.wait;
        while *n >= self.max {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return None;
            }
            n = self
                .freed
                .wait_timeout(n, left)
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        }
        *n += 1;
        drop(n);
        gauge.inc();
        Some(AdmissionPermit {
            gate: Arc::clone(self),
            gauge: gauge.clone(),
        })
    }
}

/// RAII permit: releases the admission slot (and wakes one waiter)
/// however the gated command ends.
struct AdmissionPermit {
    gate: Arc<AdmissionGate>,
    gauge: Gauge,
}

impl Drop for AdmissionPermit {
    fn drop(&mut self) {
        let mut n = self
            .gate
            .inflight
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        *n = n.saturating_sub(1);
        drop(n);
        self.gate.freed.notify_one();
        self.gauge.dec();
    }
}

/// A running server: the bound address plus the handle needed to stop
/// it.
pub struct ServerHandle {
    addr: SocketAddr,
    shutdown: Arc<ShutdownSignal>,
    accept: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The actual bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Flip the shutdown flag and wake the accept loop without
    /// waiting (a `SHUTDOWN` frame from any session does the same).
    pub fn request_shutdown(&self) {
        self.shutdown.trigger();
    }

    /// Graceful stop: refuse new connections, let in-flight requests
    /// finish (up to the drain deadline), join the accept loop.
    pub fn shutdown(mut self) {
        self.request_shutdown();
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
    }

    /// Block until the server stops on its own (a client sent
    /// `SHUTDOWN`, or the flag was flipped elsewhere).
    pub fn wait(mut self) {
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
    }
}

/// Bind `addr` and start serving `engine` on a background thread.
pub fn serve(engine: SharedEngine, addr: &str, cfg: ServerConfig) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    let local = listener.local_addr()?;
    let shutdown = Arc::new(ShutdownSignal::new(local));
    let flag = Arc::clone(&shutdown);
    let accept = std::thread::Builder::new()
        .name("starmagic-accept".to_string())
        .spawn(move || accept_loop(&listener, &engine, &flag, &cfg))?;
    Ok(ServerHandle {
        addr: local,
        shutdown,
        accept: Some(accept),
    })
}

fn accept_loop(
    listener: &TcpListener,
    engine: &SharedEngine,
    shutdown: &Arc<ShutdownSignal>,
    cfg: &ServerConfig,
) {
    let metrics = ServerMetrics::new(cfg.metrics.clone());
    metrics.epoch.set(engine.epoch());
    let gate = AdmissionGate::new(cfg.max_inflight, cfg.admission_wait);
    let mut sessions: Vec<JoinHandle<()>> = Vec::new();
    loop {
        if shutdown.requested() {
            break;
        }
        match listener.accept() {
            Ok((stream, _)) => {
                if shutdown.requested() {
                    metrics.sessions_refused.inc();
                    refuse(stream, "server is shutting down");
                    break;
                }
                metrics.sessions_opened.inc();
                metrics.sessions_active.inc();
                let engine = engine.clone();
                let flag = Arc::clone(shutdown);
                let gate = Arc::clone(&gate);
                let session_metrics = Arc::clone(&metrics);
                let slowlog = cfg.slowlog.clone();
                let spawned = std::thread::Builder::new()
                    .name("starmagic-session".to_string())
                    .spawn(move || {
                        let _guard = SessionGuard {
                            gauge: session_metrics.sessions_active.clone(),
                        };
                        Session::new(engine, flag, gate, session_metrics, slowlog).run(stream);
                    });
                match spawned {
                    Ok(h) => sessions.push(h),
                    Err(_) => metrics.sessions_active.dec(),
                }
                sessions.retain(|h| !h.is_finished());
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                sessions.retain(|h| !h.is_finished());
                std::thread::sleep(POLL_INTERVAL);
            }
            Err(_) => std::thread::sleep(POLL_INTERVAL),
        }
    }
    // Deadline-bounded drain: sessions observe the flag at their next
    // idle poll and exit after finishing whatever request is in
    // flight. A session stuck in a long-running query past the
    // deadline is abandoned — it still completes its request and
    // exits on its own, but shutdown no longer waits for it.
    let drain = metrics.registry.stopwatch();
    let deadline = Instant::now() + cfg.drain_deadline;
    loop {
        sessions.retain(|h| !h.is_finished());
        if sessions.is_empty() || Instant::now() >= deadline {
            break;
        }
        std::thread::sleep(DRAIN_POLL);
    }
    metrics.drain_abandoned.add(sessions.len() as u64);
    drop(sessions);
    metrics.drain_us.stop(&drain);
}

/// Decrements the live-session gauge however the session ends.
struct SessionGuard {
    gauge: Gauge,
}

impl Drop for SessionGuard {
    fn drop(&mut self) {
        self.gauge.dec();
    }
}

fn refuse(mut stream: TcpStream, why: &str) {
    let _ = stream.write_all(format!("ERR Execution {}\n", escape(why)).as_bytes());
}

/// Timeout-tolerant line reader: a partial line interrupted by the
/// poll timeout stays buffered instead of being lost (which is why
/// `BufReader::read_line` is not usable here).
struct LineReader {
    buf: Vec<u8>,
}

enum ReadOutcome {
    Line(String),
    TimedOut,
    Closed,
}

impl LineReader {
    fn new() -> LineReader {
        LineReader { buf: Vec::new() }
    }

    fn read_line(&mut self, stream: &mut TcpStream) -> ReadOutcome {
        loop {
            if let Some(pos) = self.buf.iter().position(|&b| b == b'\n') {
                let mut line: Vec<u8> = self.buf.drain(..=pos).collect();
                line.pop(); // the \n
                if line.last() == Some(&b'\r') {
                    line.pop();
                }
                return ReadOutcome::Line(String::from_utf8_lossy(&line).into_owned());
            }
            let mut chunk = [0u8; 4096];
            match stream.read(&mut chunk) {
                Ok(0) => return ReadOutcome::Closed,
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                    return ReadOutcome::TimedOut;
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => return ReadOutcome::Closed,
            }
        }
    }
}

/// A prepared statement: its text, and the plan it resolved to with the
/// literals the normalizer extracted, under the strategy it was
/// resolved for.
struct Statement {
    sql: String,
    strategy: Strategy,
    plan: Arc<starmagic::CachedPlan>,
    extracted: Vec<Value>,
}

/// Per-connection state.
struct Session {
    engine: SharedEngine,
    shutdown: Arc<ShutdownSignal>,
    gate: Arc<AdmissionGate>,
    strategy: Strategy,
    /// Named prepared statements, each holding its plan. A plan is run
    /// only at the epoch it was built for; after a DDL the statement
    /// resolves again through the shared plan cache, so a session never
    /// runs a stale plan.
    statements: HashMap<String, Statement>,
    /// Shared wire-level instruments (noop when metrics are off).
    metrics: Arc<ServerMetrics>,
    /// Shared slow-query log, when configured.
    slowlog: Option<Arc<SlowLog>>,
}

impl Session {
    fn new(
        engine: SharedEngine,
        shutdown: Arc<ShutdownSignal>,
        gate: Arc<AdmissionGate>,
        metrics: Arc<ServerMetrics>,
        slowlog: Option<Arc<SlowLog>>,
    ) -> Session {
        Session {
            engine,
            shutdown,
            gate,
            strategy: Strategy::CostBased,
            statements: HashMap::new(),
            metrics,
            slowlog,
        }
    }

    fn run(mut self, mut stream: TcpStream) {
        if stream.set_read_timeout(Some(POLL_INTERVAL)).is_err() {
            return;
        }
        let mut reader = LineReader::new();
        loop {
            match reader.read_line(&mut stream) {
                ReadOutcome::TimedOut => {
                    if self.shutdown.requested() {
                        return;
                    }
                }
                ReadOutcome::Closed => return,
                ReadOutcome::Line(line) => {
                    let line = line.trim().to_string();
                    if line.is_empty() {
                        continue;
                    }
                    self.metrics.bytes_in.add(line.len() as u64 + 1);
                    let sw = self.metrics.registry.stopwatch();
                    let (reply, quit) = self.dispatch(&line);
                    self.metrics.command_us.stop(&sw);
                    self.metrics.bytes_out.add(reply.len() as u64);
                    if reply.starts_with("ERR ") {
                        self.metrics.errors.inc();
                    }
                    if stream.write_all(reply.as_bytes()).is_err() || quit {
                        return;
                    }
                }
            }
        }
    }

    /// Acquire an admission permit for a gated (query-executing)
    /// command, or the `BUSY` frame to answer instead.
    fn admit(&self) -> Result<AdmissionPermit, String> {
        match self.gate.admit(&self.metrics.admission_inflight) {
            Some(permit) => {
                self.metrics.admission_admitted.inc();
                Ok(permit)
            }
            None => {
                self.metrics.admission_busy.inc();
                Err(format!(
                    "BUSY {}\n",
                    escape(&format!(
                        "server saturated ({} in-flight queries); retry",
                        self.gate.max
                    ))
                ))
            }
        }
    }

    /// Handle one request; returns the full response text (newline
    /// terminated) and whether the session should close.
    fn dispatch(&mut self, line: &str) -> (String, bool) {
        let (verb, rest) = split_word(line);
        let verb_upper = verb.to_ascii_uppercase();
        self.metrics.note_command(&verb_upper);
        match verb_upper.as_str() {
            "PING" => ("OK\n".to_string(), false),
            "QUIT" => ("OK\n".to_string(), true),
            "SHUTDOWN" => {
                self.shutdown.trigger();
                ("OK\n".to_string(), true)
            }
            "SET" => (self.set(rest), false),
            // The query-executing verbs pass the admission gate;
            // saturation answers a retryable BUSY frame.
            "QUERY" | "EXECUTE" | "ANALYZE" => {
                let permit = match self.admit() {
                    Ok(p) => p,
                    Err(busy) => return (busy, false),
                };
                let reply = match verb_upper.as_str() {
                    "QUERY" => {
                        let sw = self.metrics.registry.stopwatch();
                        let reply = self.query(rest);
                        self.metrics.query_us.stop(&sw);
                        reply
                    }
                    "EXECUTE" => {
                        let sw = self.metrics.registry.stopwatch();
                        let reply = self.execute(rest);
                        self.metrics.query_us.stop(&sw);
                        reply
                    }
                    _ => self.text_frame(self.engine.snapshot().explain_analyze(rest)),
                };
                drop(permit);
                (reply, false)
            }
            "PREPARE" => (self.prepare(rest), false),
            "METRICS" => (self.metrics_cmd(rest), false),
            "CLOSE" => {
                let name = rest.trim();
                if self.statements.remove(name).is_some() {
                    ("OK\n".to_string(), false)
                } else {
                    (
                        err_line(&Error::NotFound(format!("prepared statement {name}"))),
                        false,
                    )
                }
            }
            "EXPLAIN" => (self.text_frame(self.engine.snapshot().explain(rest)), false),
            "CACHE" => (self.cache(rest), false),
            _ => (
                err_line(&Error::unsupported(format!("unknown command {verb}"))),
                false,
            ),
        }
    }

    fn set(&mut self, rest: &str) -> String {
        let (what, value) = split_word(rest);
        match what.to_ascii_uppercase().as_str() {
            "STRATEGY" => match value.trim().to_ascii_lowercase().as_str() {
                "original" => {
                    self.strategy = Strategy::Original;
                    "OK\n".to_string()
                }
                "magic" => {
                    self.strategy = Strategy::Magic;
                    "OK\n".to_string()
                }
                "cost" | "costbased" | "cost-based" => {
                    self.strategy = Strategy::CostBased;
                    "OK\n".to_string()
                }
                other => err_line(&Error::unsupported(format!("unknown strategy {other}"))),
            },
            "SLOWLOG" => {
                let Some(log) = &self.slowlog else {
                    return err_line(&Error::unsupported(
                        "slow-query log not configured (start the server with --slowlog-path)",
                    ));
                };
                let v = value.trim();
                if v.eq_ignore_ascii_case("off") {
                    log.set_threshold_ms(None);
                    return "OK\n".to_string();
                }
                match v.parse::<u64>() {
                    Ok(ms) => {
                        log.set_threshold_ms(Some(ms));
                        "OK\n".to_string()
                    }
                    Err(_) => err_line(&Error::unsupported(
                        "SET SLOWLOG needs a millisecond threshold or OFF",
                    )),
                }
            }
            other => err_line(&Error::unsupported(format!("unknown setting {other}"))),
        }
    }

    /// `METRICS` (human text) / `METRICS JSON` (one `trace::json`
    /// line). Built from the *server's* registry — which
    /// [`serve_engine`] shares with the engine, so one document
    /// covers every layer — plus the engine's plan-cache counters
    /// (total, per strategy, and per shard).
    fn metrics_cmd(&self, rest: &str) -> String {
        let engine = self.engine.snapshot();
        let total = engine.cache_stats();
        let by_strategy = engine.cache_stats_by_strategy();
        let entries = engine.cache_len();
        let shards = engine.cache_shard_stats();
        drop(engine);
        let reg = &self.metrics.registry;
        let arg = rest.trim();
        if arg.eq_ignore_ascii_case("json") {
            let doc = starmagic::metrics::report_json(
                &reg.snapshot(),
                !reg.is_noop(),
                total,
                &by_strategy,
                entries,
                &shards,
            );
            self.text_frame(Ok(doc.to_string()))
        } else if arg.is_empty() {
            let report =
                starmagic::metrics::report_text(&reg.snapshot(), total, &by_strategy, entries);
            self.text_frame(Ok(report))
        } else {
            err_line(&Error::unsupported("usage: METRICS [JSON]"))
        }
    }

    fn query(&mut self, sql: &str) -> String {
        let sql = sql.trim();
        if sql.is_empty() {
            return err_line(&Error::unsupported("QUERY needs SQL text"));
        }
        if is_ddl(sql) {
            // Catalog mutation: clone-mutate-swap, serialized against
            // other DDL, never blocking readers.
            return match self.engine.run_ddl(sql) {
                Ok((result, epoch)) => {
                    self.metrics.epoch.set(epoch);
                    match result {
                        None => format!("OK rows=0 epoch={epoch}\n"),
                        Some(r) => rows_frame(&r.columns, &r.rows, false, r.used_magic, epoch),
                    }
                }
                Err(e) => err_line(&e),
            };
        }
        // The slow log takes its own clock so it works even with the
        // metrics registry off; inactive, it costs one atomic load.
        let slow = self
            .slowlog
            .as_ref()
            .filter(|log| log.active())
            .map(|log| (Arc::clone(log), Instant::now()));
        // The whole query — plan-cache lookup, optimization, execution
        // — runs against this one snapshot: one consistent catalog at
        // one epoch, no engine lock held.
        let engine = self.engine.snapshot();
        match engine.query_cached_traced(sql, self.strategy) {
            Ok(c) => {
                if let Some((log, started)) = slow {
                    let duration_us =
                        u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
                    if log.should_log(duration_us) {
                        self.note_slow(&log, &c, duration_us);
                    }
                }
                rows_frame(
                    &c.result.columns,
                    &c.result.rows,
                    c.hit,
                    c.result.used_magic,
                    engine.epoch(),
                )
            }
            Err(e) => err_line(&e),
        }
    }

    /// Write one slow-query record; a failed write drops telemetry,
    /// never the query.
    fn note_slow(&self, log: &SlowLog, c: &starmagic::CachedQuery, duration_us: u64) {
        let record = SlowRecord {
            // The key is `strategy|params|normalized sql` — keep only
            // the parameterized text.
            sql: c.key.splitn(3, '|').nth(2).unwrap_or(&c.key).to_string(),
            strategy: starmagic::strategy_token(self.strategy).to_string(),
            cache_hit: c.hit,
            rows: c.result.rows.len() as u64,
            duration_us,
            spans: c
                .trace
                .spans()
                .iter()
                .map(|s| {
                    let us = u64::try_from(s.elapsed.as_micros()).unwrap_or(u64::MAX);
                    (s.name.clone(), us)
                })
                .collect(),
        };
        if log.log(&record).is_ok() {
            self.metrics.slowlog_records.inc();
        }
    }

    fn prepare(&mut self, rest: &str) -> String {
        let (name, sql) = split_word(rest);
        let sql = sql.trim();
        if name.is_empty() || sql.is_empty() {
            return err_line(&Error::unsupported("usage: PREPARE <name> <sql>"));
        }
        // Resolve (and warm the shared cache) now: EXECUTE runs the
        // held plan while it is current.
        let engine = self.engine.snapshot();
        match engine.prepare_cached(sql, self.strategy) {
            Ok((plan, extracted, _)) => {
                let params = plan.user_params;
                let statement = Statement {
                    sql: sql.to_string(),
                    strategy: self.strategy,
                    plan,
                    extracted,
                };
                self.statements.insert(name.to_string(), statement);
                format!("OK params={params}\n")
            }
            Err(e) => err_line(&e),
        }
    }

    fn execute(&mut self, rest: &str) -> String {
        let (name, args_text) = split_word(rest);
        let Some(statement) = self.statements.get_mut(name) else {
            return err_line(&Error::NotFound(format!("prepared statement {name}")));
        };
        let mut args: Vec<Value> = Vec::new();
        for tok in args_text.split_whitespace() {
            match decode_value(tok) {
                Ok(v) => args.push(v),
                Err(e) => return err_line(&e),
            }
        }
        let slow = self
            .slowlog
            .as_ref()
            .filter(|log| log.active())
            .map(|log| (Arc::clone(log), Instant::now()));
        // The held plan runs only against a snapshot of the epoch it was
        // built for (and under the strategy it was built for), counted
        // as the cache hit a lookup would have been; otherwise it is
        // resolved again on this snapshot, exactly as a QUERY would be.
        let engine = self.engine.snapshot();
        let hit = if statement.strategy == self.strategy
            && engine.reuse_cached(&statement.plan, self.strategy)
        {
            true
        } else {
            match engine.prepare_cached(&statement.sql, self.strategy) {
                Ok((plan, extracted, hit)) => {
                    statement.strategy = self.strategy;
                    statement.plan = plan;
                    statement.extracted = extracted;
                    hit
                }
                Err(e) => return err_line(&e),
            }
        };
        let plan = &statement.plan;
        match engine.execute_cached(plan, &args, &statement.extracted) {
            Ok(r) => {
                if let Some((log, started)) = slow {
                    let duration_us =
                        u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
                    if log.should_log(duration_us) {
                        // EXECUTE has no trace sink: record
                        // the cached plan's key without spans.
                        let record = SlowRecord {
                            sql: plan
                                .key
                                .splitn(3, '|')
                                .nth(2)
                                .unwrap_or(&plan.key)
                                .to_string(),
                            strategy: starmagic::strategy_token(self.strategy).to_string(),
                            cache_hit: hit,
                            rows: r.rows.len() as u64,
                            duration_us,
                            spans: Vec::new(),
                        };
                        if log.log(&record).is_ok() {
                            self.metrics.slowlog_records.inc();
                        }
                    }
                }
                rows_frame(&r.columns, &r.rows, hit, r.used_magic, engine.epoch())
            }
            Err(e) => err_line(&e),
        }
    }

    fn cache(&mut self, rest: &str) -> String {
        let engine = self.engine.snapshot();
        if rest.trim().eq_ignore_ascii_case("clear") {
            engine.cache_clear();
        }
        let report = starmagic::explain::render_cache_by_strategy(
            engine.cache_stats(),
            &engine.cache_stats_by_strategy(),
            engine.cache_len(),
        );
        self.text_frame(Ok(report))
    }

    fn text_frame(&self, text: starmagic_common::Result<String>) -> String {
        match text {
            Ok(t) => {
                let lines: Vec<&str> = t.lines().collect();
                let mut out = format!("TEXT {}\n", lines.len());
                for l in &lines {
                    out.push_str(l);
                    out.push('\n');
                }
                out
            }
            Err(e) => err_line(&e),
        }
    }
}

fn rows_frame(
    columns: &[String],
    rows: &[starmagic_common::Row],
    hit: bool,
    magic: bool,
    epoch: u64,
) -> String {
    let mut out = format!("COLS {}", columns.len());
    for c in columns {
        out.push(' ');
        out.push_str(&escape(c));
    }
    out.push('\n');
    for r in rows {
        out.push_str(&encode_row(r));
        out.push('\n');
    }
    out.push_str(&format!(
        "OK rows={} hit={} magic={} epoch={}\n",
        rows.len(),
        u8::from(hit),
        u8::from(magic),
        epoch
    ));
    out
}

fn err_line(e: &Error) -> String {
    let mut line = encode_error(e);
    line.push('\n');
    line
}

/// First whitespace-delimited word and the remainder.
fn split_word(s: &str) -> (&str, &str) {
    let s = s.trim_start();
    match s.find(char::is_whitespace) {
        Some(i) => (&s[..i], &s[i..]),
        None => (s, ""),
    }
}

/// Statements that mutate the catalog and take the DDL path.
fn is_ddl(sql: &str) -> bool {
    let first = sql.split_whitespace().next().unwrap_or("");
    first.eq_ignore_ascii_case("CREATE") || first.eq_ignore_ascii_case("INSERT")
}

/// Convenience for tests and the binary: build a shared engine and
/// serve it on `addr` (use port 0 for an ephemeral port). A live
/// metrics registry in `cfg` is installed into the engine too, so one
/// `METRICS` snapshot covers the wire layer, cache, pipeline,
/// executor, and planner.
pub fn serve_engine(mut engine: Engine, addr: &str, cfg: ServerConfig) -> io::Result<ServerHandle> {
    if !cfg.metrics.is_noop() {
        engine.set_metrics(cfg.metrics.clone());
    }
    serve(SharedEngine::new(engine), addr, cfg)
}
