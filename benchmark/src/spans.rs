//! The harness's own span recorder.
//!
//! The benchmark measures every layer from outside, so the spans live
//! here, around the calls into each layer's public functions — not in
//! the engine. A span has a name, a start and an end (nanoseconds from
//! the run's origin), the span that caused it, and the id of the
//! request it belongs to. Spans stay in memory and are written out
//! when the run ends. A layer's self time is its spans' duration minus
//! the part their child spans cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Index of a span inside its [`Tracer`]; [`SpanId::NONE`] is "no
/// parent" and also what a disabled tracer hands out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(u32);

impl SpanId {
    pub const NONE: SpanId = SpanId(u32::MAX);
}

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: SpanId,
    pub req: u64,
}

/// Per-name totals over a trace.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanTotals {
    pub count: u64,
    pub total_ns: u64,
    /// `total_ns` minus the time covered by direct children.
    pub self_ns: u64,
}

/// Most spans one trace file holds; the rest are counted, not written.
const MAX_WRITTEN_SPANS: usize = 200_000;

#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder whose timeline starts at `origin` (threads of one run
    /// share the origin so their spans line up).
    pub fn new(on: bool, origin: Instant) -> Tracer {
        Tracer {
            on,
            origin,
            spans: Vec::new(),
        }
    }

    pub fn off() -> Tracer {
        Tracer::new(false, Instant::now())
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    pub fn origin(&self) -> Instant {
        self.origin
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    fn ns(&self, at: Instant) -> u64 {
        u64::try_from(at.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Open a span now; close it with [`Tracer::end`]. For spans that
    /// enclose other spans.
    pub fn begin(&mut self, name: &'static str, req: u64, parent: SpanId) -> SpanId {
        if !self.on {
            return SpanId::NONE;
        }
        let now = self.ns(Instant::now());
        self.push(name, now, now, req, parent)
    }

    pub fn end(&mut self, id: SpanId) {
        if id != SpanId::NONE {
            self.spans[id.0 as usize].end_ns = self.ns(Instant::now());
        }
    }

    /// Record a finished span from a measurement the caller already
    /// took, so a timed call costs one pair of clock reads whether or
    /// not the trace is on.
    pub fn add(
        &mut self,
        name: &'static str,
        start: Instant,
        elapsed: Duration,
        req: u64,
        parent: SpanId,
    ) -> SpanId {
        if !self.on {
            return SpanId::NONE;
        }
        let s = self.ns(start);
        let e = s + u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
        self.push(name, s, e, req, parent)
    }

    fn push(&mut self, name: &'static str, s: u64, e: u64, req: u64, parent: SpanId) -> SpanId {
        let id = SpanId(u32::try_from(self.spans.len()).expect("fewer than 2^32 spans"));
        self.spans.push(Span {
            name,
            start_ns: s,
            end_ns: e,
            parent,
            req,
        });
        id
    }

    /// Append another recorder's spans (a client thread's), keeping
    /// their parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let base = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans");
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            if s.parent != SpanId::NONE {
                s.parent = SpanId(s.parent.0 + base);
            }
            s
        }));
    }

    /// Count, total and self time per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, SpanTotals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != SpanId::NONE {
                child_ns[s.parent.0 as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
        for (s, covered) in self.spans.iter().zip(child_ns) {
            let t = out.entry(s.name).or_default();
            let dur = s.end_ns - s.start_ns;
            t.count += 1;
            t.total_ns += dur;
            t.self_ns += dur.saturating_sub(covered);
        }
        out
    }

    /// The trace as one JSON document: a header, the per-name totals,
    /// and the spans themselves (`parent` is an index into `spans`, or
    /// null).
    pub fn to_json(&self, header: &[(&str, String)]) -> String {
        let mut out = String::from("{");
        for (k, v) in header {
            let _ = write!(out, "\"{k}\":{v},");
        }
        let _ = write!(
            out,
            "\"spans_recorded\":{},\"spans_written\":{},\"totals\":{{",
            self.spans.len(),
            self.spans.len().min(MAX_WRITTEN_SPANS)
        );
        for (i, (name, t)) in self.totals().iter().enumerate() {
            let sep = if i > 0 { "," } else { "" };
            let _ = write!(
                out,
                "{sep}\"{name}\":{{\"count\":{},\"total_ns\":{},\"self_ns\":{}}}",
                t.count, t.total_ns, t.self_ns
            );
        }
        out.push_str("},\"spans\":[");
        for (i, s) in self.spans.iter().take(MAX_WRITTEN_SPANS).enumerate() {
            let sep = if i > 0 { "," } else { "" };
            let parent = if s.parent == SpanId::NONE {
                "null".to_string()
            } else {
                s.parent.0.to_string()
            };
            let _ = write!(
                out,
                "{sep}\n{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"req\":{}}}",
                s.name, s.start_ns, s.end_ns, s.req
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_span_minus_children() {
        let origin = Instant::now();
        let mut t = Tracer::new(true, origin);
        let root = t.add("root", origin, Duration::from_nanos(1000), 1, SpanId::NONE);
        t.add("child", origin, Duration::from_nanos(300), 1, root);
        t.add("child", origin, Duration::from_nanos(200), 1, root);
        let totals = t.totals();
        assert_eq!(totals["root"].total_ns, 1000);
        assert_eq!(totals["root"].self_ns, 500);
        assert_eq!(totals["child"].count, 2);
        assert_eq!(totals["child"].self_ns, 500);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut t = Tracer::off();
        let id = t.begin("x", 0, SpanId::NONE);
        t.end(id);
        t.add("y", Instant::now(), Duration::from_nanos(5), 0, id);
        assert!(t.is_empty());
    }

    #[test]
    fn absorb_rebases_parents_and_json_parses() {
        let origin = Instant::now();
        let mut a = Tracer::new(true, origin);
        a.add("a", origin, Duration::from_nanos(10), 0, SpanId::NONE);
        let mut b = Tracer::new(true, origin);
        let p = b.add("p", origin, Duration::from_nanos(10), 7, SpanId::NONE);
        b.add("c", origin, Duration::from_nanos(4), 7, p);
        a.absorb(b);
        assert_eq!(a.totals()["p"].self_ns, 6);
        let doc = starmagic::trace::json::parse(&a.to_json(&[("seed", "3".to_string())])).unwrap();
        assert_eq!(
            doc.get("spans").and_then(|s| s.as_arr()).map(<[_]>::len),
            Some(3)
        );
        assert_eq!(
            doc.get("spans")
                .and_then(|s| s.at(2))
                .and_then(|s| s.get("parent"))
                .and_then(|p| p.as_f64()),
            Some(1.0)
        );
    }
}
