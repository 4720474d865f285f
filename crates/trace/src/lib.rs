//! Lightweight structured tracing for the starmagic engine.
//!
//! The container builds offline, so this crate is a zero-dependency
//! stand-in for the `tracing` ecosystem: a [`TraceSink`] collects
//! named [`Span`]s (durations measured on the monotonic clock, with a
//! wall-clock start timestamp when the system clock is usable), and a
//! [`json`] module provides a minimal JSON value model — writer *and*
//! parser — so benchmark binaries can emit machine-readable profiles
//! and tests can pin their schema without serde.
//!
//! The cardinal rule is that a **disabled sink is a no-op**: no
//! allocation, no clock reads, no span storage. Every producer is
//! expected to guard its instrumentation on [`TraceSink::start`]
//! returning a no-op timer (checked by `SpanTimer::is_noop`), which is
//! what keeps benchmark runs with tracing off byte-identical in work
//! to the untraced engine.

#![forbid(unsafe_code)]

pub mod json;

use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

/// One completed span: a named region of work with its monotonic
/// duration and, when the system clock cooperated, the wall-clock
/// start time in microseconds since the Unix epoch. `wall_start_us`
/// is `None` when the wall clock was unavailable or behind the epoch —
/// the monotonic duration is always valid regardless.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: String,
    pub elapsed: Duration,
    pub wall_start_us: Option<u64>,
}

/// A started span. Holds `None` when produced by a disabled sink, in
/// which case finishing it is free and records nothing.
#[derive(Debug)]
pub struct SpanTimer {
    inner: Option<(String, Instant, Option<u64>)>,
}

impl SpanTimer {
    /// Whether this timer came from a disabled sink and will record
    /// nothing — the guard the no-overhead contract rests on.
    pub fn is_noop(&self) -> bool {
        self.inner.is_none()
    }
}

/// Collector of spans for one traced operation (an optimization run,
/// a query execution). Disabled sinks refuse all work.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceSink {
    enabled: bool,
    spans: Vec<Span>,
}

impl TraceSink {
    /// A sink that records spans.
    pub fn enabled() -> TraceSink {
        TraceSink {
            enabled: true,
            spans: Vec::new(),
        }
    }

    /// A sink that drops everything without touching the clock.
    pub fn disabled() -> TraceSink {
        TraceSink::default()
    }

    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Start a span. On a disabled sink this is a no-op timer: no
    /// allocation, no clock read.
    pub fn start(&self, name: &str) -> SpanTimer {
        if !self.enabled {
            return SpanTimer { inner: None };
        }
        SpanTimer {
            inner: Some((name.to_string(), Instant::now(), wall_now_us())),
        }
    }

    /// Finish a span started on this sink.
    pub fn finish(&mut self, timer: SpanTimer) {
        self.finish_with(timer, Duration::ZERO);
    }

    /// Finish a span that also owns `earlier`: work done on its behalf
    /// before it started, measured by the caller (zero when this sink
    /// is disabled, since nothing was timed).
    pub fn finish_with(&mut self, timer: SpanTimer, earlier: Duration) {
        if let Some((name, start, wall_start_us)) = timer.inner {
            self.spans.push(Span {
                name,
                elapsed: start.elapsed() + earlier,
                wall_start_us,
            });
        }
    }

    /// Record a span whose duration was measured externally.
    pub fn record(&mut self, name: &str, elapsed: Duration) {
        if self.enabled {
            self.spans.push(Span {
                name: name.to_string(),
                elapsed,
                wall_start_us: None,
            });
        }
    }

    /// Record a span at the front (used for work that happened before
    /// the sink existed, e.g. parsing before the pipeline ran).
    pub fn prepend(&mut self, name: &str, elapsed: Duration) {
        if self.enabled {
            self.spans.insert(
                0,
                Span {
                    name: name.to_string(),
                    elapsed,
                    wall_start_us: None,
                },
            );
        }
    }

    /// Append every span of `other`, preserving order. Used to fold a
    /// nested operation's sink (e.g. the optimizer pipeline's) into the
    /// sink of the surrounding request. A disabled receiver drops them.
    pub fn extend(&mut self, other: &TraceSink) {
        if self.enabled {
            self.spans.extend(other.spans.iter().cloned());
        }
    }

    /// The recorded spans, in completion order (except prepends).
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// First span with the given name, if any.
    pub fn get(&self, name: &str) -> Option<&Span> {
        self.spans.iter().find(|s| s.name == name)
    }

    /// Sum of all recorded span durations. Spans may nest, so this is
    /// an upper bound on distinct wall time, not a partition of it.
    pub fn total(&self) -> Duration {
        self.spans.iter().map(|s| s.elapsed).sum()
    }
}

/// Wall clock in microseconds since the epoch; `None` when the clock
/// is unusable (pre-epoch or unavailable) — the monotonic fallback.
fn wall_now_us() -> Option<u64> {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .ok()
        .map(|d| u64::try_from(d.as_micros()).unwrap_or(u64::MAX))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enabled_sink_records_spans() {
        let mut sink = TraceSink::enabled();
        let t = sink.start("work");
        assert!(!t.is_noop());
        sink.finish(t);
        assert_eq!(sink.spans().len(), 1);
        assert_eq!(sink.spans()[0].name, "work");
        assert!(sink.get("work").is_some());
    }

    #[test]
    fn disabled_sink_is_a_no_op() {
        let mut sink = TraceSink::disabled();
        assert!(!sink.is_enabled());
        let t = sink.start("work");
        assert!(t.is_noop(), "disabled sink must hand out no-op timers");
        sink.finish(t);
        sink.record("explicit", Duration::from_millis(5));
        sink.prepend("front", Duration::from_millis(5));
        assert!(sink.spans().is_empty());
        assert_eq!(sink.total(), Duration::ZERO);
    }

    #[test]
    fn prepend_puts_span_first() {
        let mut sink = TraceSink::enabled();
        sink.record("late", Duration::from_micros(1));
        sink.prepend("early", Duration::from_micros(2));
        assert_eq!(sink.spans()[0].name, "early");
        assert_eq!(sink.spans()[1].name, "late");
    }

    #[test]
    fn total_sums_durations() {
        let mut sink = TraceSink::enabled();
        sink.record("a", Duration::from_micros(3));
        sink.record("b", Duration::from_micros(4));
        assert_eq!(sink.total(), Duration::from_micros(7));
    }

    #[test]
    fn wall_clock_is_present_on_normal_systems() {
        // Not a guarantee of the API, but on the test machine the wall
        // clock should be readable; the fallback path is the Option.
        let mut sink = TraceSink::enabled();
        let t = sink.start("x");
        sink.finish(t);
        assert!(sink.spans()[0].wall_start_us.is_some());
    }
}
