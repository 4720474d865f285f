//! Blocking client for the line protocol — used by the load
//! generator, the fuzzer's `--server` oracle, and the tests.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

use starmagic_common::{Error, Result, Value};

use crate::protocol::{encode_value, read_frame, Response};

/// How long [`Client::request_admitted`] keeps retrying `BUSY`
/// answers before giving up.
const BUSY_RETRY_DEADLINE: Duration = Duration::from_secs(30);

/// One protocol connection.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    /// Connect to a running server.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let writer = stream.try_clone()?;
        Ok(Client {
            reader: BufReader::new(stream),
            writer,
        })
    }

    /// Send one request line and decode the response.
    pub fn request(&mut self, line: &str) -> Result<Response> {
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .map_err(|e| Error::execution(format!("connection lost: {e}")))?;
        let reader = &mut self.reader;
        read_frame(|| {
            let mut line = String::new();
            let n = reader
                .read_line(&mut line)
                .map_err(|e| Error::execution(format!("connection lost: {e}")))?;
            if n == 0 {
                return Err(Error::execution("connection closed by server"));
            }
            while line.ends_with('\n') || line.ends_with('\r') {
                line.pop();
            }
            Ok(line)
        })
    }

    /// [`Client::request`], transparently retrying with exponential
    /// backoff while the server answers `BUSY` (the admission gate's
    /// retryable overload signal). Errors only if the server is still
    /// saturated after [`BUSY_RETRY_DEADLINE`].
    pub fn request_admitted(&mut self, line: &str) -> Result<Response> {
        let start = Instant::now();
        let mut backoff = Duration::from_millis(1);
        loop {
            match self.request(line)? {
                Response::Busy(m) => {
                    if start.elapsed() >= BUSY_RETRY_DEADLINE {
                        return Err(Error::execution(format!(
                            "server still busy after {}s: {m}",
                            BUSY_RETRY_DEADLINE.as_secs()
                        )));
                    }
                    std::thread::sleep(backoff);
                    backoff = (backoff * 2).min(Duration::from_millis(50));
                }
                r => return Ok(r),
            }
        }
    }

    /// Run a query; returns the result-set response.
    pub fn query(&mut self, sql: &str) -> Result<Response> {
        self.request(&format!("QUERY {}", single_line(sql)))
    }

    /// [`Client::query`] through the admission gate: retries `BUSY`
    /// answers until admitted (or the retry deadline expires).
    pub fn query_admitted(&mut self, sql: &str) -> Result<Response> {
        self.request_admitted(&format!("QUERY {}", single_line(sql)))
    }

    /// Prepare a named statement; returns its user-parameter count.
    pub fn prepare(&mut self, name: &str, sql: &str) -> Result<usize> {
        let r = self.request(&format!("PREPARE {name} {}", single_line(sql)))?;
        Ok(r.info("params").and_then(|v| v.parse().ok()).unwrap_or(0))
    }

    /// Execute a named statement with bound values.
    pub fn execute(&mut self, name: &str, args: &[Value]) -> Result<Response> {
        let mut line = format!("EXECUTE {name}");
        for v in args {
            line.push(' ');
            line.push_str(&encode_value(v));
        }
        self.request(&line)
    }

    /// Forget a named statement.
    pub fn close(&mut self, name: &str) -> Result<()> {
        self.request(&format!("CLOSE {name}")).map(|_| ())
    }

    /// Pin the session's optimizer strategy.
    pub fn set_strategy(&mut self, strategy: &str) -> Result<()> {
        self.request(&format!("SET STRATEGY {strategy}"))
            .map(|_| ())
    }

    /// EXPLAIN over the wire.
    pub fn explain(&mut self, sql: &str) -> Result<String> {
        match self.request(&format!("EXPLAIN {}", single_line(sql)))? {
            Response::Text(t) => Ok(t),
            other => Err(Error::internal(format!("expected TEXT, got {other:?}"))),
        }
    }

    /// EXPLAIN ANALYZE over the wire.
    pub fn explain_analyze(&mut self, sql: &str) -> Result<String> {
        match self.request(&format!("ANALYZE {}", single_line(sql)))? {
            Response::Text(t) => Ok(t),
            other => Err(Error::internal(format!("expected TEXT, got {other:?}"))),
        }
    }

    /// The server's plan-cache report (optionally clearing it).
    pub fn cache(&mut self, clear: bool) -> Result<String> {
        let line = if clear { "CACHE CLEAR" } else { "CACHE" };
        match self.request(line)? {
            Response::Text(t) => Ok(t),
            other => Err(Error::internal(format!("expected TEXT, got {other:?}"))),
        }
    }

    /// The server's human-readable metrics report.
    pub fn metrics(&mut self) -> Result<String> {
        match self.request("METRICS")? {
            Response::Text(t) => Ok(t),
            other => Err(Error::internal(format!("expected TEXT, got {other:?}"))),
        }
    }

    /// The `METRICS JSON` document, parsed strictly.
    pub fn metrics_json(&mut self) -> Result<starmagic_trace::json::Value> {
        match self.request("METRICS JSON")? {
            Response::Text(t) => starmagic_trace::json::parse(t.trim())
                .map_err(|e| Error::internal(format!("METRICS JSON did not parse: {e}"))),
            other => Err(Error::internal(format!("expected TEXT, got {other:?}"))),
        }
    }

    /// Arm (`Some(ms)`) or disarm (`None`) the server's slow-query
    /// log threshold.
    pub fn set_slowlog(&mut self, threshold_ms: Option<u64>) -> Result<()> {
        let line = match threshold_ms {
            Some(ms) => format!("SET SLOWLOG {ms}"),
            None => "SET SLOWLOG OFF".to_string(),
        };
        self.request(&line).map(|_| ())
    }

    /// Liveness check.
    pub fn ping(&mut self) -> Result<()> {
        self.request("PING").map(|_| ())
    }

    /// Ask the server to shut down gracefully.
    pub fn shutdown_server(&mut self) -> Result<()> {
        self.request("SHUTDOWN").map(|_| ())
    }
}

/// SQL travels on one line; fold any embedded newlines to spaces
/// (the grammar is whitespace-insensitive). Full-line `--` comments
/// are dropped first — folded onto one line they would comment out
/// everything after them (corpus repro files start with such
/// headers). A trailing `--` comment mid-line cannot be stripped
/// safely (it could sit inside a string literal), so those still
/// poison the remainder; keep them off wire-bound SQL.
fn single_line(sql: &str) -> String {
    if sql.contains('\n') || sql.contains('\r') {
        sql.lines()
            .filter(|l| !l.trim_start().starts_with("--"))
            .collect::<Vec<_>>()
            .join(" ")
    } else {
        sql.to_string()
    }
}
