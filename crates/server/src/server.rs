//! The TCP service: accept loop, session threads, admission control,
//! graceful shutdown — and the session dispatcher both front ends run.
//!
//! [`Session::dispatch`] turns one request line into a [`Response`]
//! and owns no socket: the TCP session loop here and the REPL's stdin
//! loop (`starmagic-repl`) both run it. One thread per
//! connection. Queries run against epoch snapshots
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
use std::fmt::Write as _;
use std::io::{self, ErrorKind, Read, Write};
use std::net::{IpAddr, Ipv4Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use starmagic::{Engine, QueryResult, Strategy};
use starmagic_common::{Error, Result, Value};
use starmagic_metrics::{Counter, Gauge, Histogram, Registry, Stopwatch};
use starmagic_trace::Span;

use crate::protocol::{decode_value, write_frame, Response, VERBS};
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
    fn new(registry: Registry) -> ServerMetrics {
        ServerMetrics {
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
        }
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
    /// Acquire a permit, waiting up to the configured bound. `None`
    /// means the server is saturated and the caller should answer
    /// `BUSY`. The gauge tracks held permits (with peak).
    fn admit<'a>(&'a self, gauge: &'a Gauge) -> Option<AdmissionPermit<'a>> {
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
        Some(AdmissionPermit { gate: self, gauge })
    }
}

/// RAII permit: releases the admission slot (and wakes one waiter)
/// however the gated command ends.
struct AdmissionPermit<'a> {
    gate: &'a AdmissionGate,
    gauge: &'a Gauge,
}

impl Drop for AdmissionPermit<'_> {
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
    let shared = Arc::new(Shared::new(engine, &cfg));
    let accept = std::thread::Builder::new()
        .name("starmagic-accept".to_string())
        .spawn(move || accept_loop(&listener, &shared, &flag, cfg.drain_deadline))?;
    Ok(ServerHandle {
        addr: local,
        shutdown,
        accept: Some(accept),
    })
}

fn accept_loop(
    listener: &TcpListener,
    shared: &Arc<Shared>,
    shutdown: &Arc<ShutdownSignal>,
    drain_deadline: Duration,
) {
    let metrics = &shared.metrics;
    let mut sessions: Vec<JoinHandle<()>> = Vec::new();
    loop {
        if shutdown.requested() {
            break;
        }
        match listener.accept() {
            Ok((mut stream, _)) => {
                if shutdown.requested() {
                    metrics.sessions_refused.inc();
                    let refusal = write_frame(&Err(Error::execution("server is shutting down")));
                    let _ = stream.write_all(refusal.as_bytes());
                    break;
                }
                metrics.sessions_opened.inc();
                metrics.sessions_active.inc();
                let session = Session::attach(Arc::clone(shared));
                let flag = Arc::clone(shutdown);
                let spawned = std::thread::Builder::new()
                    .name("starmagic-session".to_string())
                    .spawn(move || serve_session(session, stream, &flag));
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
    let deadline = Instant::now() + drain_deadline;
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

/// The TCP loop of one session: read a line, dispatch it, write its
/// frame. Byte counters and the shutdown trigger are wire work and
/// live here, not in the dispatcher.
fn serve_session(mut session: Session, mut stream: TcpStream, shutdown: &ShutdownSignal) {
    let shared = Arc::clone(&session.shared);
    let metrics = &shared.metrics;
    // Decrements the live-session gauge however the session ends.
    struct Live<'a>(&'a Gauge);
    impl Drop for Live<'_> {
        fn drop(&mut self) {
            self.0.dec();
        }
    }
    let _live = Live(&metrics.sessions_active);
    if stream.set_read_timeout(Some(POLL_INTERVAL)).is_err() {
        return;
    }
    let mut reader = LineReader::new();
    loop {
        match reader.read_line(&mut stream) {
            ReadOutcome::TimedOut => {
                if shutdown.requested() {
                    return;
                }
            }
            ReadOutcome::Closed => return,
            ReadOutcome::Line(line) => {
                let line = line.trim();
                if line.is_empty() {
                    continue;
                }
                metrics.bytes_in.add(line.len() as u64 + 1);
                let (frame, flow) = session.dispatch_into(line, |reply| write_frame(&reply));
                metrics.bytes_out.add(frame.len() as u64);
                if flow == Flow::Shutdown {
                    shutdown.trigger();
                }
                if stream.write_all(frame.as_bytes()).is_err() || flow != Flow::Continue {
                    return;
                }
            }
        }
    }
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

/// What a session's front end does after writing a reply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flow {
    /// Read the next request.
    Continue,
    /// End this session (`QUIT`).
    Close,
    /// End this session and begin a graceful server shutdown
    /// (`SHUTDOWN`).
    Shutdown,
}

/// What every session of one server shares: the engine, the
/// admission gate, the wire-level instruments and the slow log.
struct Shared {
    engine: SharedEngine,
    gate: AdmissionGate,
    /// Wire-level instruments (noop when metrics are off).
    metrics: ServerMetrics,
    /// The slow-query log, when configured.
    slowlog: Option<Arc<SlowLog>>,
}

impl Shared {
    fn new(engine: SharedEngine, cfg: &ServerConfig) -> Shared {
        let metrics = ServerMetrics::new(cfg.metrics.clone());
        metrics.epoch.set(engine.epoch());
        Shared {
            engine,
            gate: AdmissionGate {
                inflight: Mutex::new(0),
                freed: Condvar::new(),
                max: cfg.max_inflight.max(1),
                wait: cfg.admission_wait,
            },
            metrics,
            slowlog: cfg.slowlog.clone(),
        }
    }

    /// The slow log's clock for one request: started only while the
    /// log is armed (it works with the metrics registry off, and
    /// disarmed costs one atomic load).
    fn slow_clock(&self) -> Option<Instant> {
        self.slowlog
            .as_ref()
            .filter(|log| log.active())
            .map(|_| Instant::now())
    }

    /// Write one slow-query record for a request whose clock ran past
    /// the threshold. A failed write drops telemetry, never the query.
    fn note_slow(
        &self,
        clock: Option<Instant>,
        strategy: Strategy,
        key: &str,
        cache_hit: bool,
        rows: usize,
        spans: &[Span],
    ) {
        let (Some(started), Some(log)) = (clock, &self.slowlog) else {
            return;
        };
        let duration_us = micros(started.elapsed());
        if !log.should_log(duration_us) {
            return;
        }
        let record = SlowRecord {
            // The key is `strategy|params|normalized sql` — keep only
            // the parameterized text.
            sql: key.splitn(3, '|').nth(2).unwrap_or(key).to_string(),
            strategy: starmagic::strategy_token(strategy).to_string(),
            cache_hit,
            rows: rows as u64,
            duration_us,
            spans: (spans.iter())
                .map(|s| (s.name.clone(), micros(s.elapsed)))
                .collect(),
        };
        if log.log(&record).is_ok() {
            self.metrics.slowlog_records.inc();
        }
    }
}

fn micros(d: Duration) -> u64 {
    u64::try_from(d.as_micros()).unwrap_or(u64::MAX)
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

/// One session's state and its dispatcher: the request line in, the
/// [`Response`] out.
pub struct Session {
    shared: Arc<Shared>,
    strategy: Strategy,
    /// Named prepared statements, each holding its plan. A plan is run
    /// only at the epoch it was built for; after a DDL the statement
    /// resolves again through the shared plan cache, so a session never
    /// runs a stale plan.
    statements: HashMap<String, Statement>,
}

impl Session {
    /// A session of its own over `engine`, outside any listener (the
    /// REPL's): its own admission gate, instruments and slow log, as
    /// `cfg` sets them.
    pub fn new(engine: SharedEngine, cfg: &ServerConfig) -> Session {
        Session::attach(Arc::new(Shared::new(engine, cfg)))
    }

    fn attach(shared: Arc<Shared>) -> Session {
        Session {
            shared,
            strategy: Strategy::CostBased,
            statements: HashMap::new(),
        }
    }

    /// Handle one request line: the reply, and what the front end does
    /// next.
    pub fn dispatch(&mut self, line: &str) -> (Result<Response>, Flow) {
        self.dispatch_into(line, |reply| reply)
    }

    /// [`Session::dispatch`], handing the reply to `render` while the
    /// command's clocks still run: `server.command_us` and
    /// `server.query_us` cover encoding the reply and dropping its
    /// rows, as the client that waits for the frame sees them.
    fn dispatch_into<T>(
        &mut self,
        line: &str,
        render: impl FnOnce(Result<Response>) -> T,
    ) -> (T, Flow) {
        let shared = Arc::clone(&self.shared);
        let sw = shared.metrics.registry.stopwatch();
        let (verb, rest) = split_word(line);
        let verb_upper = verb.to_ascii_uppercase();
        shared.metrics.note_command(&verb_upper);
        let mut flow = Flow::Continue;
        let mut query_clock = None;
        let reply = match verb_upper.as_str() {
            "PING" => Ok(done()),
            "QUIT" => {
                flow = Flow::Close;
                Ok(done())
            }
            "SHUTDOWN" => {
                flow = Flow::Shutdown;
                Ok(done())
            }
            "SET" => self.set(rest),
            // The query-executing verbs pass the admission gate;
            // saturation answers a retryable BUSY frame.
            "QUERY" => self.admitted(Some(&mut query_clock), |s| s.query(rest)),
            "EXECUTE" => self.admitted(Some(&mut query_clock), |s| s.execute(rest)),
            "ANALYZE" => self.admitted(None, |s| {
                s.shared
                    .engine
                    .snapshot()
                    .explain_analyze(rest)
                    .map(Response::Text)
            }),
            "PREPARE" => self.prepare(rest),
            "CLOSE" => {
                let name = rest.trim();
                match self.statements.remove(name) {
                    Some(_) => Ok(done()),
                    None => Err(Error::NotFound(format!("prepared statement {name}"))),
                }
            }
            "EXPLAIN" => shared.engine.snapshot().explain(rest).map(Response::Text),
            "CACHE" => Ok(self.cache(rest)),
            "METRICS" => self.metrics(rest),
            "CATALOG" => Ok(catalog(&shared.engine.snapshot())),
            "HELP" => Ok(Response::Text(VERBS.join("\n"))),
            _ => Err(Error::unsupported(format!("unknown command {verb}"))),
        };
        if reply.is_err() {
            shared.metrics.errors.inc();
        }
        let rendered = render(reply);
        if let Some(clock) = &query_clock {
            shared.metrics.query_us.stop(clock);
        }
        shared.metrics.command_us.stop(&sw);
        (rendered, flow)
    }

    /// Run a query-executing command under an admission permit, or
    /// answer `BUSY` without running it. `clock`, when given, is
    /// started once the permit is held.
    fn admitted(
        &mut self,
        clock: Option<&mut Option<Stopwatch>>,
        run: impl FnOnce(&mut Session) -> Result<Response>,
    ) -> Result<Response> {
        let shared = Arc::clone(&self.shared);
        let metrics = &shared.metrics;
        let Some(_permit) = shared.gate.admit(&metrics.admission_inflight) else {
            metrics.admission_busy.inc();
            return Ok(Response::Busy(format!(
                "server saturated ({} in-flight queries); retry",
                shared.gate.max
            )));
        };
        metrics.admission_admitted.inc();
        if let Some(clock) = clock {
            *clock = Some(metrics.registry.stopwatch());
        }
        run(self)
    }

    fn set(&mut self, rest: &str) -> Result<Response> {
        let (what, value) = split_word(rest);
        match what.to_ascii_uppercase().as_str() {
            "STRATEGY" => {
                self.strategy = value.trim().to_ascii_lowercase().parse()?;
            }
            "SLOWLOG" => {
                let Some(log) = &self.shared.slowlog else {
                    return Err(Error::unsupported(
                        "slow-query log not configured (start the server with --slowlog-path)",
                    ));
                };
                let v = value.trim();
                if v.eq_ignore_ascii_case("off") {
                    log.set_threshold_ms(None);
                } else {
                    let ms = v.parse::<u64>().map_err(|_| {
                        Error::unsupported("SET SLOWLOG needs a millisecond threshold or OFF")
                    })?;
                    log.set_threshold_ms(Some(ms));
                }
            }
            other => return Err(Error::unsupported(format!("unknown setting {other}"))),
        }
        Ok(done())
    }

    /// `METRICS` (human text) / `METRICS JSON` (one `trace::json`
    /// line). Built from the *server's* registry — which
    /// [`serve_engine`] shares with the engine, so one document
    /// covers every layer — plus the engine's plan-cache counters
    /// (total and per strategy).
    fn metrics(&self, rest: &str) -> Result<Response> {
        let engine = self.shared.engine.snapshot();
        let total = engine.cache_stats();
        let by_strategy = engine.cache_stats_by_strategy();
        let entries = engine.cache_len();
        drop(engine);
        let reg = &self.shared.metrics.registry;
        let arg = rest.trim();
        let text = if arg.eq_ignore_ascii_case("json") {
            starmagic::metrics::report_json(
                &reg.snapshot(),
                !reg.is_noop(),
                total,
                &by_strategy,
                entries,
            )
            .to_string()
        } else if arg.is_empty() {
            starmagic::metrics::report_text(&reg.snapshot(), total, &by_strategy, entries)
        } else {
            return Err(Error::unsupported("usage: METRICS [JSON]"));
        };
        Ok(Response::Text(text))
    }

    fn query(&mut self, sql: &str) -> Result<Response> {
        let sql = sql.trim();
        if sql.is_empty() {
            return Err(Error::unsupported("QUERY needs SQL text"));
        }
        let shared = &self.shared;
        if is_ddl(sql) {
            // Catalog mutation: clone-mutate-swap, serialized against
            // other DDL, never blocking readers.
            let (result, epoch) = shared.engine.run_ddl(sql)?;
            shared.metrics.epoch.set(epoch);
            return Ok(match result {
                None => Response::Ok {
                    info: vec![
                        ("rows".to_string(), "0".to_string()),
                        ("epoch".to_string(), epoch.to_string()),
                    ],
                },
                Some(r) => rows(r, false, epoch),
            });
        }
        let clock = shared.slow_clock();
        // The whole query — plan-cache lookup, optimization, execution
        // — runs against this one snapshot: one consistent catalog at
        // one epoch, no engine lock held.
        let engine = shared.engine.snapshot();
        let c = engine.query_cached_traced(sql, self.strategy)?;
        let spans = c.trace.spans();
        shared.note_slow(
            clock,
            self.strategy,
            &c.key,
            c.hit,
            c.result.rows.len(),
            spans,
        );
        Ok(rows(c.result, c.hit, engine.epoch()))
    }

    fn prepare(&mut self, rest: &str) -> Result<Response> {
        let (name, sql) = split_word(rest);
        let sql = sql.trim();
        if name.is_empty() || sql.is_empty() {
            return Err(Error::unsupported("usage: PREPARE <name> <sql>"));
        }
        // Resolve (and warm the shared cache) now: EXECUTE runs the
        // held plan while it is current.
        let (plan, extracted, _) =
            (self.shared.engine.snapshot()).prepare_cached(sql, self.strategy)?;
        let params = plan.user_params;
        let statement = Statement {
            sql: sql.to_string(),
            strategy: self.strategy,
            plan,
            extracted,
        };
        self.statements.insert(name.to_string(), statement);
        Ok(Response::Ok {
            info: vec![("params".to_string(), params.to_string())],
        })
    }

    fn execute(&mut self, rest: &str) -> Result<Response> {
        let (name, args_text) = split_word(rest);
        let Some(statement) = self.statements.get_mut(name) else {
            return Err(Error::NotFound(format!("prepared statement {name}")));
        };
        let args = (args_text.split_whitespace())
            .map(decode_value)
            .collect::<Result<Vec<Value>>>()?;
        let shared = &self.shared;
        let clock = shared.slow_clock();
        // The held plan runs only against a snapshot of the epoch it was
        // built for (and under the strategy it was built for), counted
        // as the cache hit a lookup would have been; otherwise it is
        // resolved again on this snapshot, exactly as a QUERY would be.
        let engine = shared.engine.snapshot();
        let hit = if statement.strategy == self.strategy
            && engine.reuse_cached(&statement.plan, self.strategy)
        {
            true
        } else {
            let (plan, extracted, hit) = engine.prepare_cached(&statement.sql, self.strategy)?;
            statement.strategy = self.strategy;
            statement.plan = plan;
            statement.extracted = extracted;
            hit
        };
        let r = engine.execute_cached(&statement.plan, &args, &statement.extracted)?;
        // EXECUTE has no trace sink: the record carries no spans.
        shared.note_slow(
            clock,
            self.strategy,
            &statement.plan.key,
            hit,
            r.rows.len(),
            &[],
        );
        Ok(rows(r, hit, engine.epoch()))
    }

    fn cache(&mut self, rest: &str) -> Response {
        let engine = self.shared.engine.snapshot();
        if rest.trim().eq_ignore_ascii_case("clear") {
            engine.cache_clear();
        }
        Response::Text(starmagic::explain::render_cache_by_strategy(
            engine.cache_stats(),
            &engine.cache_stats_by_strategy(),
            engine.cache_len(),
        ))
    }
}

/// A bare `OK`.
fn done() -> Response {
    Response::Ok { info: Vec::new() }
}

/// A result as its `Rows` reply, rows and columns moved, not copied.
fn rows(r: QueryResult, cache_hit: bool, epoch: u64) -> Response {
    Response::Rows {
        columns: r.columns,
        rows: r.rows,
        cache_hit,
        used_magic: r.used_magic,
        epoch,
    }
}

/// `CATALOG`: every table with its row count and columns, then every
/// view.
fn catalog(engine: &Engine) -> Response {
    let catalog = engine.catalog();
    let mut out = String::from("tables:\n");
    for name in catalog.table_names() {
        if let Ok(t) = catalog.table(name) {
            let columns = t.schema().column_names().join(", ");
            let _ = writeln!(out, "  {name} ({} rows): {columns}", t.row_count());
        }
    }
    out.push_str("views:\n");
    for name in catalog.view_names() {
        let _ = writeln!(out, "  {name}");
    }
    Response::Text(out)
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
