//! starmagic-metrics — a process-wide, lock-free metrics registry.
//!
//! The container builds offline, so this crate is a zero-dependency
//! stand-in for `prometheus`/`metrics-rs`: a [`Registry`] names three
//! kinds of instruments — monotonic [`Counter`]s, [`Gauge`]s with a
//! high-water mark, and fixed log2-bucket latency [`Histogram`]s —
//! and produces mergeable, point-in-time [`Snapshot`]s of all of
//! them.
//!
//! Two properties are load-bearing:
//!
//! 1. **Disabled is free.** A noop registry (the default) follows the
//!    same contract as `TraceSink::is_noop()` in `starmagic-trace`:
//!    handles vended by it hold no storage, recording on them is a
//!    branch on `None`, and [`Registry::stopwatch`] never reads the
//!    clock. Instrumented code paths stay byte-identical in work to
//!    their uninstrumented selves when metrics are off.
//! 2. **The hot path is lock-free.** The registry's name→instrument
//!    map is only locked at registration time; recording goes through
//!    pre-fetched `Arc` handles straight to atomics with relaxed
//!    ordering. Snapshots read the same atomics, so totals are
//!    *per-instrument* consistent (a snapshot never sees a partial
//!    increment) without any global stop-the-world.
//!
//! Histograms use fixed power-of-two buckets over `u64` values
//! (microseconds by convention): bucket 0 holds `[0, 2)`, bucket `i`
//! holds `[2^i, 2^(i+1))`, and the top bucket saturates. That makes
//! merge a plain element-wise add — associative and commutative —
//! and lets a client and a server compare tail latencies by bucket
//! index without agreeing on sample storage.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
use std::time::{Duration, Instant};

/// Number of log2 buckets in a histogram. Values are `u64`
/// microseconds by convention, so bucket 27 starts at `2^27` µs
/// (~134 s) and absorbs everything slower.
pub const BUCKETS: usize = 28;

/// Bucket index for a recorded value: 0 for `[0, 2)`, otherwise
/// `floor(log2(v))`, saturating at the top bucket.
#[must_use]
pub fn bucket_index(v: u64) -> usize {
    if v < 2 {
        return 0;
    }
    (63 - v.leading_zeros() as usize).min(BUCKETS - 1)
}

/// Inclusive lower bound of a bucket.
#[must_use]
pub fn bucket_floor(i: usize) -> u64 {
    if i == 0 {
        0
    } else {
        1u64 << i
    }
}

/// Inclusive upper bound of a bucket (`u64::MAX` for the saturating
/// top bucket).
#[must_use]
pub fn bucket_ceil(i: usize) -> u64 {
    if i + 1 >= BUCKETS {
        u64::MAX
    } else {
        (1u64 << (i + 1)) - 1
    }
}

// ---------------------------------------------------------------------------
// Instrument storage
// ---------------------------------------------------------------------------

#[derive(Debug, Default)]
struct CounterCell {
    value: AtomicU64,
}

#[derive(Debug, Default)]
struct GaugeCell {
    value: AtomicU64,
    peak: AtomicU64,
}

#[derive(Debug)]
struct HistogramCell {
    buckets: [AtomicU64; BUCKETS],
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for HistogramCell {
    fn default() -> HistogramCell {
        HistogramCell {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

impl HistogramCell {
    fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }
}

#[derive(Debug, Default)]
struct Inner {
    counters: RwLock<BTreeMap<String, Arc<CounterCell>>>,
    gauges: RwLock<BTreeMap<String, Arc<GaugeCell>>>,
    histograms: RwLock<BTreeMap<String, Arc<HistogramCell>>>,
}

// ---------------------------------------------------------------------------
// Handles
// ---------------------------------------------------------------------------

/// Monotonically increasing counter. A handle from a noop registry
/// holds no storage; recording on it is a branch.
#[derive(Debug, Clone, Default)]
pub struct Counter {
    cell: Option<Arc<CounterCell>>,
}

impl Counter {
    pub fn inc(&self) {
        self.add(1);
    }

    pub fn add(&self, n: u64) {
        if let Some(c) = &self.cell {
            c.value.fetch_add(n, Ordering::Relaxed);
        }
    }

    #[must_use]
    pub fn get(&self) -> u64 {
        self.cell
            .as_ref()
            .map_or(0, |c| c.value.load(Ordering::Relaxed))
    }

    /// Whether this handle came from a disabled registry and records
    /// nothing — the guard the no-overhead contract rests on.
    #[must_use]
    pub fn is_noop(&self) -> bool {
        self.cell.is_none()
    }
}

/// Up/down gauge with a monotonically tracked high-water mark.
#[derive(Debug, Clone, Default)]
pub struct Gauge {
    cell: Option<Arc<GaugeCell>>,
}

impl Gauge {
    /// Increment and fold the new value into the peak.
    pub fn inc(&self) {
        if let Some(c) = &self.cell {
            let now = c.value.fetch_add(1, Ordering::Relaxed) + 1;
            c.peak.fetch_max(now, Ordering::Relaxed);
        }
    }

    /// Decrement, saturating at zero.
    pub fn dec(&self) {
        if let Some(c) = &self.cell {
            // fetch_update never fails with this closure shape, but
            // saturate anyway rather than wrapping past zero.
            let _ = c
                .value
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                    Some(v.saturating_sub(1))
                });
        }
    }

    /// Set to an absolute value and fold it into the peak.
    pub fn set(&self, v: u64) {
        if let Some(c) = &self.cell {
            c.value.store(v, Ordering::Relaxed);
            c.peak.fetch_max(v, Ordering::Relaxed);
        }
    }

    #[must_use]
    pub fn get(&self) -> u64 {
        self.cell
            .as_ref()
            .map_or(0, |c| c.value.load(Ordering::Relaxed))
    }

    #[must_use]
    pub fn peak(&self) -> u64 {
        self.cell
            .as_ref()
            .map_or(0, |c| c.peak.load(Ordering::Relaxed))
    }

    #[must_use]
    pub fn is_noop(&self) -> bool {
        self.cell.is_none()
    }
}

/// Fixed log2-bucket latency histogram handle.
#[derive(Debug, Clone, Default)]
pub struct Histogram {
    cell: Option<Arc<HistogramCell>>,
}

impl Histogram {
    /// Record one observation (microseconds by convention).
    pub fn record(&self, v: u64) {
        if let Some(c) = &self.cell {
            c.record(v);
        }
    }

    /// Record a duration as whole microseconds (saturating).
    pub fn record_duration(&self, d: Duration) {
        if self.cell.is_some() {
            self.record(u64::try_from(d.as_micros()).unwrap_or(u64::MAX));
        }
    }

    /// Stop a registry stopwatch into this histogram. Free when
    /// either side is noop — in particular no clock read happens.
    pub fn stop(&self, sw: &Stopwatch) {
        if self.cell.is_some() {
            if let Some(us) = sw.elapsed_us() {
                self.record(us);
            }
        }
    }

    #[must_use]
    pub fn is_noop(&self) -> bool {
        self.cell.is_none()
    }

    #[must_use]
    pub fn snapshot(&self) -> HistogramSnapshot {
        self.cell
            .as_ref()
            .map_or_else(HistogramSnapshot::default, |c| HistogramSnapshot::read(c))
    }
}

/// A started latency measurement. Holds `None` when produced by a
/// disabled registry, in which case finishing it is free and reads
/// no clock.
#[derive(Debug)]
pub struct Stopwatch {
    start: Option<Instant>,
}

impl Stopwatch {
    #[must_use]
    pub fn is_noop(&self) -> bool {
        self.start.is_none()
    }

    /// Elapsed whole microseconds; `None` for a noop stopwatch.
    #[must_use]
    pub fn elapsed_us(&self) -> Option<u64> {
        self.start
            .map(|s| u64::try_from(s.elapsed().as_micros()).unwrap_or(u64::MAX))
    }
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

/// Named registry of counters, gauges, and histograms. `Clone` is a
/// cheap handle clone; all clones observe the same instruments. The
/// default registry is noop: it vends storage-free handles and its
/// snapshot is empty.
#[derive(Debug, Clone, Default)]
pub struct Registry {
    inner: Option<Arc<Inner>>,
}

impl Registry {
    /// A live registry that records.
    #[must_use]
    pub fn enabled() -> Registry {
        Registry {
            inner: Some(Arc::new(Inner::default())),
        }
    }

    /// A registry that drops everything without allocating.
    #[must_use]
    pub fn noop() -> Registry {
        Registry::default()
    }

    #[must_use]
    pub fn is_noop(&self) -> bool {
        self.inner.is_none()
    }

    /// Fetch-or-register a counter. Locks the name map; call once and
    /// keep the handle for hot paths.
    #[must_use]
    pub fn counter(&self, name: &str) -> Counter {
        Counter {
            cell: self.inner.as_ref().map(|i| fetch(&i.counters, name)),
        }
    }

    /// Fetch-or-register a gauge.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Gauge {
        Gauge {
            cell: self.inner.as_ref().map(|i| fetch(&i.gauges, name)),
        }
    }

    /// Fetch-or-register a histogram.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Histogram {
        Histogram {
            cell: self.inner.as_ref().map(|i| fetch(&i.histograms, name)),
        }
    }

    /// Start a latency measurement. Noop registries return a noop
    /// stopwatch without touching the clock.
    #[must_use]
    pub fn stopwatch(&self) -> Stopwatch {
        Stopwatch {
            start: self.inner.as_ref().map(|_| Instant::now()),
        }
    }

    /// Point-in-time copy of every instrument. Empty for a noop
    /// registry.
    #[must_use]
    pub fn snapshot(&self) -> Snapshot {
        let Some(inner) = &self.inner else {
            return Snapshot::default();
        };
        let counters = read_lock(&inner.counters)
            .iter()
            .map(|(k, v)| (k.clone(), v.value.load(Ordering::Relaxed)))
            .collect();
        let gauges = read_lock(&inner.gauges)
            .iter()
            .map(|(k, v)| {
                (
                    k.clone(),
                    GaugeSnapshot {
                        value: v.value.load(Ordering::Relaxed),
                        peak: v.peak.load(Ordering::Relaxed),
                    },
                )
            })
            .collect();
        let histograms = read_lock(&inner.histograms)
            .iter()
            .map(|(k, v)| (k.clone(), HistogramSnapshot::read(v)))
            .collect();
        Snapshot {
            counters,
            gauges,
            histograms,
        }
    }
}

fn fetch<T: Default>(map: &RwLock<BTreeMap<String, Arc<T>>>, name: &str) -> Arc<T> {
    if let Some(cell) = read_lock(map).get(name) {
        return Arc::clone(cell);
    }
    let mut w = match map.write() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    };
    Arc::clone(w.entry(name.to_string()).or_default())
}

fn read_lock<'a, T>(
    map: &'a RwLock<BTreeMap<String, Arc<T>>>,
) -> std::sync::RwLockReadGuard<'a, BTreeMap<String, Arc<T>>> {
    match map.read() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

// ---------------------------------------------------------------------------
// Snapshots
// ---------------------------------------------------------------------------

/// Gauge value + high-water mark at snapshot time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GaugeSnapshot {
    pub value: u64,
    pub peak: u64,
}

/// Point-in-time copy of one histogram. Merge is element-wise add,
/// so it is associative and commutative — histograms recorded on
/// different machines (or threads) can be folded in any order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    pub buckets: [u64; BUCKETS],
    pub sum: u64,
    pub max: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: [0; BUCKETS],
            sum: 0,
            max: 0,
        }
    }
}

impl HistogramSnapshot {
    fn read(cell: &HistogramCell) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| cell.buckets[i].load(Ordering::Relaxed)),
            sum: cell.sum.load(Ordering::Relaxed),
            max: cell.max.load(Ordering::Relaxed),
        }
    }

    /// Record into a snapshot directly (for client-side histograms
    /// that never touch a registry).
    pub fn record(&mut self, v: u64) {
        self.buckets[bucket_index(v)] += 1;
        self.sum = self.sum.saturating_add(v);
        self.max = self.max.max(v);
    }

    #[must_use]
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Mean value, zero when empty.
    #[must_use]
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count()).unwrap_or(0)
    }

    /// Fold another snapshot in (element-wise add; max of maxes).
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
    }

    /// Bucket index holding the nearest-rank p-th percentile, `None`
    /// when empty. `p` is clamped to `[0, 100]`.
    #[must_use]
    pub fn percentile_bucket(&self, p: u64) -> Option<usize> {
        let n = self.count();
        if n == 0 {
            return None;
        }
        let rank = (p.min(100) * n).div_ceil(100).max(1);
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= rank {
                return Some(i);
            }
        }
        Some(BUCKETS - 1)
    }

    /// Upper bound of the p-th percentile bucket — a deterministic,
    /// conservative percentile estimate. The top bucket reports the
    /// recorded max instead of `u64::MAX`.
    #[must_use]
    pub fn percentile_us(&self, p: u64) -> Option<u64> {
        self.percentile_bucket(p).map(|i| {
            if i + 1 >= BUCKETS {
                self.max
            } else {
                bucket_ceil(i)
            }
        })
    }
}

/// Point-in-time copy of an entire registry.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Snapshot {
    pub counters: BTreeMap<String, u64>,
    pub gauges: BTreeMap<String, GaugeSnapshot>,
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl Snapshot {
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Counter value by name, zero when absent.
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Gauge by name, zeros when absent.
    #[must_use]
    pub fn gauge(&self, name: &str) -> GaugeSnapshot {
        self.gauges.get(name).copied().unwrap_or_default()
    }

    /// Histogram by name, empty when absent.
    #[must_use]
    pub fn histogram(&self, name: &str) -> HistogramSnapshot {
        self.histograms.get(name).cloned().unwrap_or_default()
    }

    /// Human-readable multi-line rendering, sorted by name.
    #[must_use]
    pub fn render_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        if self.is_empty() {
            out.push_str("(metrics disabled)\n");
            return out;
        }
        out.push_str("== counters\n");
        for (name, v) in &self.counters {
            let _ = writeln!(out, "  {name:<40} {v}");
        }
        out.push_str("== gauges\n");
        for (name, g) in &self.gauges {
            let _ = writeln!(out, "  {name:<40} {} (peak {})", g.value, g.peak);
        }
        out.push_str("== histograms\n");
        for (name, h) in &self.histograms {
            let _ = writeln!(
                out,
                "  {name:<40} n={} mean={}us p50<={}us p95<={}us p99<={}us max={}us",
                h.count(),
                h.mean(),
                h.percentile_us(50).unwrap_or(0),
                h.percentile_us(95).unwrap_or(0),
                h.percentile_us(99).unwrap_or(0),
                h.max
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries() {
        // Bucket 0 is [0, 2); from then on bucket i is [2^i, 2^(i+1)).
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 0);
        assert_eq!(bucket_index(2), 1);
        assert_eq!(bucket_index(3), 1);
        assert_eq!(bucket_index(4), 2);
        for i in 1..BUCKETS - 1 {
            let lo = bucket_floor(i);
            let hi = bucket_ceil(i);
            assert_eq!(bucket_index(lo), i, "floor of bucket {i}");
            assert_eq!(bucket_index(hi), i, "ceil of bucket {i}");
            assert_eq!(bucket_index(hi + 1), i + 1, "first value past bucket {i}");
        }
    }

    #[test]
    fn top_bucket_saturates() {
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
        assert_eq!(bucket_ceil(BUCKETS - 1), u64::MAX);
        let reg = Registry::enabled();
        let h = reg.histogram("t");
        h.record(u64::MAX);
        h.record(bucket_floor(BUCKETS - 1));
        let snap = h.snapshot();
        assert_eq!(snap.buckets[BUCKETS - 1], 2);
        assert_eq!(snap.count(), 2);
        assert_eq!(snap.max, u64::MAX);
        // The top bucket reports the recorded max, not u64::MAX-ceil.
        assert_eq!(snap.percentile_us(99), Some(u64::MAX));
    }

    #[test]
    fn merge_is_associative_and_commutative() {
        let mk = |vals: &[u64]| {
            let mut s = HistogramSnapshot::default();
            for &v in vals {
                s.record(v);
            }
            s
        };
        let a = mk(&[1, 5, 100]);
        let b = mk(&[2, 2, 1 << 20]);
        let c = mk(&[7, 1 << 40]);

        // (a ⊕ b) ⊕ c == a ⊕ (b ⊕ c)
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ab_c = ab.clone();
        ab_c.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut a_bc = a.clone();
        a_bc.merge(&bc);
        assert_eq!(ab_c, a_bc);

        // a ⊕ b == b ⊕ a
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);

        // Totals survive the fold.
        assert_eq!(ab_c.count(), 8);
        assert_eq!(ab_c.sum, a.sum + b.sum + c.sum);
    }

    #[test]
    fn multi_thread_totals_add_up() {
        const THREADS: u64 = 8;
        const PER_THREAD: u64 = 10_000;
        let reg = Registry::enabled();
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let h = reg.histogram("mt");
                let c = reg.counter("mt.events");
                std::thread::spawn(move || {
                    for i in 0..PER_THREAD {
                        h.record(t * PER_THREAD + i);
                        c.inc();
                    }
                })
            })
            .collect();
        for j in handles {
            j.join().expect("recorder thread panicked");
        }
        let snap = reg.snapshot();
        let h = snap.histogram("mt");
        assert_eq!(h.count(), THREADS * PER_THREAD);
        // Sum of 0..(THREADS*PER_THREAD) — every event counted once.
        let n = THREADS * PER_THREAD;
        assert_eq!(h.sum, n * (n - 1) / 2);
        assert_eq!(h.max, n - 1);
        assert_eq!(snap.counter("mt.events"), n);
    }

    #[test]
    fn noop_registry_is_free_and_empty() {
        let reg = Registry::noop();
        assert!(reg.is_noop());
        let c = reg.counter("c");
        let g = reg.gauge("g");
        let h = reg.histogram("h");
        assert!(c.is_noop() && g.is_noop() && h.is_noop());
        c.inc();
        c.add(5);
        g.inc();
        g.set(9);
        h.record(123);
        let sw = reg.stopwatch();
        assert!(sw.is_noop(), "noop registry must not read the clock");
        assert_eq!(sw.elapsed_us(), None);
        h.stop(&sw);
        assert_eq!(c.get(), 0);
        assert_eq!(g.get(), 0);
        assert_eq!(g.peak(), 0);
        assert_eq!(h.snapshot().count(), 0);
        assert!(reg.snapshot().is_empty());
    }

    #[test]
    fn gauge_tracks_peak_and_saturates_at_zero() {
        let reg = Registry::enabled();
        let g = reg.gauge("sessions");
        g.inc();
        g.inc();
        g.inc();
        g.dec();
        assert_eq!(g.get(), 2);
        assert_eq!(g.peak(), 3);
        g.dec();
        g.dec();
        g.dec(); // below zero: saturates
        assert_eq!(g.get(), 0);
        assert_eq!(g.peak(), 3);
    }

    #[test]
    fn clones_share_instruments() {
        let reg = Registry::enabled();
        let a = reg.counter("shared");
        let b = reg.clone().counter("shared");
        a.inc();
        b.add(2);
        assert_eq!(reg.snapshot().counter("shared"), 3);
    }

    #[test]
    fn percentiles_are_nearest_rank_by_bucket() {
        let mut s = HistogramSnapshot::default();
        for v in [10u64, 10, 10, 10, 10, 10, 10, 10, 10, 5000] {
            s.record(v);
        }
        // p50 of 10 samples = 5th: value 10 → bucket 3, ceil 15.
        assert_eq!(s.percentile_bucket(50), Some(3));
        assert_eq!(s.percentile_us(50), Some(15));
        // p100 lands in the 5000 bucket (bucket 12, [4096, 8192)).
        assert_eq!(s.percentile_bucket(100), Some(12));
        assert_eq!(s.percentile_us(100), Some(8191));
        assert_eq!(HistogramSnapshot::default().percentile_us(50), None);
    }

    #[test]
    fn render_text_mentions_every_instrument() {
        let reg = Registry::enabled();
        reg.counter("a.count").inc();
        reg.gauge("b.gauge").set(4);
        reg.histogram("c.hist").record(100);
        let text = reg.snapshot().render_text();
        assert!(text.contains("a.count"));
        assert!(text.contains("b.gauge"));
        assert!(text.contains("c.hist"));
        assert!(Registry::noop()
            .snapshot()
            .render_text()
            .contains("disabled"));
    }
}
