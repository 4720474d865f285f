//! The wire protocol: newline-delimited text frames.
//!
//! Every request is one line: a verb of [`VERBS`] (any case) and its
//! arguments. Every response is one or more lines whose first token
//! says how to read the rest; [`write_frame`] writes them and
//! [`read_frame`] reads them back, and nothing else in the crate knows
//! their layout. The codec is lossless for every [`Value`] the engine
//! can produce — doubles travel as the hex of their IEEE-754 bits, so
//! a replayed bag compares byte-identically to an in-process run.
//!
//! Responses:
//!
//! ```text
//! COLS <n> <name>...          then <rows> ROW lines, then the OK line
//! ROW <value>...
//! OK [k=v]...                 success terminator (rows=, hit=, magic=, epoch=, params=)
//! TEXT <n>                    exactly n raw lines follow
//! BUSY <escaped message>      admission gate saturated — retry; the session stays open
//! ERR <kind> [<offset>] <escaped message>
//! ```
//!
//! Result frames carry `epoch=` on the OK line: the catalog epoch of
//! the snapshot the query executed against (bumped by every DDL).
//! `BUSY` is backpressure, not failure: the request was not executed,
//! the connection is still good, and an immediate or backed-off retry
//! is the expected client response ([`crate::Client::request_admitted`]).

use std::fmt::Write;

use starmagic_common::{Error, Result, Row, Value};

/// Every request verb with its synopsis: the text `HELP` answers
/// with, and how a front end tells a verb from SQL.
pub const VERBS: &[&str] = &[
    "QUERY <sql>                 run (plan-cached) with the session strategy",
    "PREPARE <name> <sql>        cache + register a named statement",
    "EXECUTE <name> [<value>..]  run a named statement with bound values",
    "CLOSE <name>                forget a named statement",
    "SET STRATEGY original|magic|cost",
    "SET SLOWLOG <ms>|OFF        arm/disarm the slow-query log threshold",
    "EXPLAIN <sql>               optimizer report (text frame)",
    "ANALYZE <sql>               EXPLAIN ANALYZE (text frame)",
    "CACHE [CLEAR]               plan-cache counters, split by strategy (text frame)",
    "METRICS [JSON]              metrics snapshot: human text, or one JSON line",
    "CATALOG                     tables with row counts and columns, then views (text frame)",
    "HELP                        this list (text frame)",
    "PING                        liveness check",
    "QUIT                        close this session",
    "SHUTDOWN                    begin graceful server shutdown",
];

/// Whether `word` is a request verb (any case).
pub fn is_verb(word: &str) -> bool {
    VERBS.iter().any(|v| {
        v.split(' ')
            .next()
            .is_some_and(|w| w.eq_ignore_ascii_case(word))
    })
}

/// Escape a string for single-token transport: backslash, whitespace
/// separators, and the empty string get escape sequences.
pub fn escape(s: &str) -> String {
    if s.is_empty() {
        return "\\0".to_string();
    }
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            ' ' => out.push_str("\\s"),
            _ => out.push(c),
        }
    }
    out
}

/// Invert [`escape`].
pub fn unescape(s: &str) -> Result<String> {
    if s == "\\0" {
        return Ok(String::new());
    }
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('\\') => out.push('\\'),
            Some('n') => out.push('\n'),
            Some('r') => out.push('\r'),
            Some('t') => out.push('\t'),
            Some('s') => out.push(' '),
            other => {
                return Err(Error::internal(format!(
                    "bad escape \\{} on the wire",
                    other.map_or_else(String::new, |c| c.to_string())
                )))
            }
        }
    }
    Ok(out)
}

/// Encode one value as a single whitespace-free token.
pub fn encode_value(v: &Value) -> String {
    match v {
        Value::Null => "N".to_string(),
        Value::Int(i) => format!("I{i}"),
        // Bit-exact: hex of the IEEE-754 representation.
        Value::Double(d) => format!("D{:016x}", d.to_bits()),
        Value::Str(s) => format!("S{}", escape(s)),
        Value::Bool(true) => "BT".to_string(),
        Value::Bool(false) => "BF".to_string(),
    }
}

/// Decode a token produced by [`encode_value`].
pub fn decode_value(tok: &str) -> Result<Value> {
    let bad = || Error::internal(format!("bad value token on the wire: {tok:?}"));
    let rest = tok.get(1..).ok_or_else(bad)?;
    match tok.as_bytes().first() {
        Some(b'N') if rest.is_empty() => Ok(Value::Null),
        Some(b'I') => rest.parse::<i64>().map(Value::Int).map_err(|_| bad()),
        Some(b'D') => u64::from_str_radix(rest, 16)
            .map(|bits| Value::Double(f64::from_bits(bits)))
            .map_err(|_| bad()),
        Some(b'S') => Ok(Value::str(unescape(rest)?)),
        Some(b'B') => match rest {
            "T" => Ok(Value::Bool(true)),
            "F" => Ok(Value::Bool(false)),
            _ => Err(bad()),
        },
        _ => Err(bad()),
    }
}

/// Encode a row as a `ROW` line (no trailing newline).
pub fn encode_row(row: &Row) -> String {
    let mut line = String::from("ROW");
    for v in row.values() {
        line.push(' ');
        line.push_str(&encode_value(v));
    }
    line
}

/// Decode a `ROW` line's payload tokens.
pub fn decode_row(line: &str) -> Result<Row> {
    let mut vals = Vec::new();
    for tok in line.split_whitespace().skip(1) {
        vals.push(decode_value(tok)?);
    }
    Ok(Row::new(vals))
}

/// Encode an engine error as an `ERR` line carrying the variant, so
/// the client can reconstruct the exact [`Error`] (the differential
/// oracle compares errors structurally).
pub fn encode_error(e: &Error) -> String {
    match e {
        Error::Parse { message, offset } => {
            format!("ERR Parse {offset} {}", escape(message))
        }
        Error::Semantic(m) => format!("ERR Semantic {}", escape(m)),
        Error::NotFound(m) => format!("ERR NotFound {}", escape(m)),
        Error::AlreadyExists(m) => format!("ERR AlreadyExists {}", escape(m)),
        Error::Execution(m) => format!("ERR Execution {}", escape(m)),
        Error::Internal(m) => format!("ERR Internal {}", escape(m)),
        Error::Unsupported(m) => format!("ERR Unsupported {}", escape(m)),
    }
}

/// Decode an `ERR` line back into the original [`Error`].
pub fn decode_error(line: &str) -> Error {
    let mut parts = line.splitn(3, ' ');
    let _err = parts.next();
    let kind = parts.next().unwrap_or("");
    let rest = parts.next().unwrap_or("");
    let msg = |s: &str| unescape(s).unwrap_or_else(|_| s.to_string());
    match kind {
        "Parse" => {
            let mut p = rest.splitn(2, ' ');
            let offset = p.next().and_then(|t| t.parse().ok()).unwrap_or(0);
            Error::Parse {
                message: msg(p.next().unwrap_or("")),
                offset,
            }
        }
        "Semantic" => Error::Semantic(msg(rest)),
        "NotFound" => Error::NotFound(msg(rest)),
        "AlreadyExists" => Error::AlreadyExists(msg(rest)),
        "Execution" => Error::Execution(msg(rest)),
        "Unsupported" => Error::Unsupported(msg(rest)),
        _ => Error::Internal(msg(rest)),
    }
}

/// A decoded server response.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// A result set plus the OK line's metadata.
    Rows {
        columns: Vec<String>,
        rows: Vec<Row>,
        /// Plan-cache hit (`hit=1` on the OK line).
        cache_hit: bool,
        /// The executed plan was the magic one.
        used_magic: bool,
        /// Catalog epoch of the snapshot that served the query
        /// (`epoch=` on the OK line).
        epoch: u64,
    },
    /// Bare success; `info` carries the OK line's `k=v` pairs.
    Ok { info: Vec<(String, String)> },
    /// A multi-line text frame (EXPLAIN, ANALYZE, CACHE).
    Text(String),
    /// The admission gate is saturated; the request was not executed
    /// and should be retried on the same connection.
    Busy(String),
}

impl Response {
    /// The `k=v` metadata value for `key` on an `Ok` response.
    pub fn info(&self, key: &str) -> Option<&str> {
        match self {
            Response::Ok { info } => info.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str()),
            _ => None,
        }
    }
}

/// Write one reply as its frame (newline-terminated): a result set
/// as `COLS`, `ROW`s and the `OK rows=… hit=… magic=… epoch=…` line,
/// an error as its `ERR` line. [`read_frame`] inverts it.
pub fn write_frame(reply: &Result<Response>) -> String {
    let mut out = String::new();
    match reply {
        Ok(Response::Rows {
            columns,
            rows,
            cache_hit,
            used_magic,
            epoch,
        }) => {
            let _ = write!(out, "COLS {}", columns.len());
            for c in columns {
                out.push(' ');
                out.push_str(&escape(c));
            }
            out.push('\n');
            for r in rows {
                out.push_str(&encode_row(r));
                out.push('\n');
            }
            let _ = writeln!(
                out,
                "OK rows={} hit={} magic={} epoch={epoch}",
                rows.len(),
                u8::from(*cache_hit),
                u8::from(*used_magic),
            );
        }
        Ok(Response::Ok { info }) => {
            out.push_str("OK");
            for (k, v) in info {
                let _ = write!(out, " {k}={v}");
            }
            out.push('\n');
        }
        Ok(Response::Text(text)) => {
            let _ = writeln!(out, "TEXT {}", text.lines().count());
            for line in text.lines() {
                out.push_str(line);
                out.push('\n');
            }
        }
        Ok(Response::Busy(message)) => {
            let _ = writeln!(out, "BUSY {}", escape(message));
        }
        Err(e) => {
            out.push_str(&encode_error(e));
            out.push('\n');
        }
    }
    out
}

/// Read one frame written by [`write_frame`], pulling its lines
/// (without their newline) from `next_line`. An `ERR` frame answers
/// the error it carries; a failing line source, its own error.
pub fn read_frame(mut next_line: impl FnMut() -> Result<String>) -> Result<Response> {
    let first = next_line()?;
    let (tag, rest) = first.split_once(' ').unwrap_or((first.as_str(), ""));
    match tag {
        "OK" => Ok(Response::Ok {
            info: ok_info(rest),
        }),
        "ERR" => Err(decode_error(&first)),
        "BUSY" => Ok(Response::Busy(
            unescape(rest).unwrap_or_else(|_| rest.to_string()),
        )),
        "TEXT" => {
            let n: usize = rest
                .parse()
                .map_err(|_| Error::internal("bad TEXT frame"))?;
            let mut text = String::new();
            for _ in 0..n {
                text.push_str(&next_line()?);
                text.push('\n');
            }
            Ok(Response::Text(text))
        }
        "COLS" => {
            let columns = (rest.split_whitespace().skip(1))
                .map(unescape)
                .collect::<Result<Vec<_>>>()?;
            let mut rows = Vec::new();
            loop {
                let line = next_line()?;
                if line.starts_with("ROW") {
                    rows.push(decode_row(&line)?);
                } else if let Some(rest) = line.strip_prefix("OK") {
                    let info = ok_info(rest);
                    let value = |k: &str| info.iter().find(|(key, _)| key == k).map(|(_, v)| v);
                    return Ok(Response::Rows {
                        columns,
                        rows,
                        cache_hit: value("hit").is_some_and(|v| v == "1"),
                        used_magic: value("magic").is_some_and(|v| v == "1"),
                        epoch: value("epoch").and_then(|v| v.parse().ok()).unwrap_or(0),
                    });
                } else if line.starts_with("ERR") {
                    return Err(decode_error(&line));
                } else {
                    return Err(Error::internal(format!(
                        "unexpected frame in result set: {line:?}"
                    )));
                }
            }
        }
        _ => Err(Error::internal(format!(
            "unexpected response frame: {first:?}"
        ))),
    }
}

/// The `k=v` tokens after an OK line's tag.
fn ok_info(tokens: &str) -> Vec<(String, String)> {
    tokens
        .split_whitespace()
        .filter_map(|tok| {
            tok.split_once('=')
                .map(|(k, v)| (k.to_string(), v.to_string()))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_codec_round_trips() {
        let vals = [
            Value::Null,
            Value::Int(-42),
            Value::Int(i64::MAX),
            Value::Double(0.1 + 0.2), // not representable exactly — bits must survive
            Value::Double(-0.0),
            Value::str(""),
            Value::str("two words\nand a line\tbreak \\ slash"),
            Value::Bool(true),
            Value::Bool(false),
        ];
        for v in vals {
            let tok = encode_value(&v);
            assert!(
                !tok.contains(' ') && !tok.contains('\n'),
                "token must be atomic: {tok:?}"
            );
            // `Debug` tells `-0.0` from `0.0`, which `==` equates.
            let back = decode_value(&tok).unwrap();
            assert_eq!(format!("{back:?}"), format!("{v:?}"), "token {tok:?}");
        }
    }

    #[test]
    fn double_is_bit_exact() {
        let d = Value::Double(std::f64::consts::PI);
        let back = decode_value(&encode_value(&d)).unwrap();
        let (Value::Double(a), Value::Double(b)) = (&d, &back) else {
            panic!()
        };
        assert_eq!(a.to_bits(), b.to_bits());
    }

    #[test]
    fn row_round_trips() {
        let row = Row::new(vec![Value::Int(1), Value::str("a b"), Value::Null]);
        let line = encode_row(&row);
        assert_eq!(decode_row(&line).unwrap(), row);
    }

    #[test]
    fn error_codec_round_trips() {
        let errs = [
            Error::Parse {
                message: "unexpected token `)`".to_string(),
                offset: 17,
            },
            Error::Semantic("unknown column x".to_string()),
            Error::NotFound("table t".to_string()),
            Error::AlreadyExists("view v".to_string()),
            Error::Execution("division by zero".to_string()),
            Error::Internal("oops".to_string()),
            Error::Unsupported("window functions".to_string()),
        ];
        for e in errs {
            let line = encode_error(&e);
            assert_eq!(decode_error(&line), e, "line {line:?}");
        }
    }

    #[test]
    fn bad_tokens_are_rejected() {
        for tok in ["", "X1", "Iabc", "Dzz", "B?", "N1"] {
            assert!(decode_value(tok).is_err(), "{tok:?} should not decode");
        }
    }
}
