//! Load generator: replay the Table-1 suite from N concurrent
//! connections and gate the server on what only a live server shows.
//!
//! Each worker owns one connection, pins the strategy under test, and
//! replays the eight experiments round-robin (starting at a
//! worker-specific offset so the workers don't move in lockstep)
//! until the wall-clock budget expires. Every response carries the
//! server's `hit=` flag, so the hit rate is measured at the protocol
//! level, not inferred. The run is repeated at one connection and at
//! `connections`, per strategy — the qps ratio is the concurrency
//! speedup the shared engine delivers on this hardware.
//!
//! Two checks ride on a run. [`min_speedup`] is the concurrency gate:
//! the weakest strategy's N-vs-1-connection qps ratio. [`cross_check`]
//! audits the server's `server.query_us` histogram against
//! client-side timing: it snapshots the histogram, replays the suite
//! over a single connection, snapshots again, and compares the
//! percentiles of the *delta* histogram (bucket-wise subtraction — the
//! merge operation run backwards) against the client-measured samples
//! of exactly those queries. Identical populations, measured from
//! opposite ends of the socket, must land within one log2 bucket of
//! each other. Latency and throughput as numbers to compare across
//! commits are the repository benchmark's (`benchmark/`), not this
//! module's.

use std::net::SocketAddr;
use std::time::{Duration, Instant};

use starmagic::trace::json::Value;
use starmagic_bench::Experiment;
use starmagic_common::{Error, Result};
use starmagic_metrics::HistogramSnapshot;

use crate::client::Client;
use crate::protocol::Response;

/// Cores below which the `--min-speedup` concurrency gate is
/// meaningless (a serial host cannot show parallel speedup).
pub const MIN_GATE_CPUS: usize = 4;

/// Load-generator knobs.
#[derive(Debug, Clone, Copy)]
pub struct LoadgenConfig {
    /// Concurrent connections in the loaded window.
    pub connections: usize,
    /// Wall-clock budget per measured window.
    pub budget: Duration,
}

impl Default for LoadgenConfig {
    fn default() -> LoadgenConfig {
        LoadgenConfig {
            connections: 8,
            budget: Duration::from_millis(500),
        }
    }
}

/// One measured window: every worker's samples merged.
#[derive(Debug, Clone)]
pub struct Window {
    pub connections: usize,
    pub queries: u64,
    pub errors: u64,
    pub cache_hits: u64,
    pub elapsed: Duration,
    /// Per-query latencies in microseconds, sorted ascending.
    pub latencies_us: Vec<u64>,
}

impl Window {
    pub fn qps(&self) -> f64 {
        #[allow(clippy::cast_precision_loss)]
        {
            self.queries as f64 / self.elapsed.as_secs_f64().max(1e-9)
        }
    }

    pub fn hit_rate(&self) -> f64 {
        if self.queries == 0 {
            return 0.0;
        }
        #[allow(clippy::cast_precision_loss)]
        {
            self.cache_hits as f64 / self.queries as f64
        }
    }
}

/// The `p`-th percentile of ascending-sorted samples: the sample at
/// index `round(p/100 · (n−1))`, i.e. the one closest to the linearly
/// interpolated percentile. This is not nearest-rank — the p50 of
/// 1..=10 is 6 here, where nearest-rank gives 5. 0 when empty.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    #[allow(
        clippy::cast_precision_loss,
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss
    )]
    let idx = ((p / 100.0) * (sorted.len() - 1) as f64).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// One strategy's serial and concurrent windows.
#[derive(Debug, Clone)]
pub struct StrategyLoad {
    /// Protocol token (`original`, `cost`, `magic`).
    pub strategy: &'static str,
    pub serial: Window,
    pub concurrent: Window,
}

impl StrategyLoad {
    /// Concurrent qps over serial qps.
    pub fn speedup(&self) -> f64 {
        self.concurrent.qps() / self.serial.qps().max(1e-12)
    }
}

/// A full load-generator run.
#[derive(Debug, Clone)]
pub struct LoadReport {
    pub strategies: Vec<StrategyLoad>,
}

impl LoadReport {
    /// Total errors across every window.
    pub fn total_errors(&self) -> u64 {
        self.strategies
            .iter()
            .map(|s| s.serial.errors + s.concurrent.errors)
            .sum()
    }

    /// Hit rate over the concurrent windows only (the serial windows
    /// include each strategy's compulsory misses).
    pub fn concurrent_hit_rate(&self) -> f64 {
        let (hits, queries) = self.strategies.iter().fold((0u64, 0u64), |(h, q), s| {
            (h + s.concurrent.cache_hits, q + s.concurrent.queries)
        });
        if queries == 0 {
            return 0.0;
        }
        #[allow(clippy::cast_precision_loss)]
        {
            hits as f64 / queries as f64
        }
    }
}

/// The strategies a run measures, as protocol tokens.
pub const STRATEGIES: [&str; 3] = ["original", "cost", "magic"];

/// The Table-1 suite the generator replays.
pub fn suite() -> Vec<String> {
    starmagic_bench::experiments()
        .iter()
        .map(|e: &Experiment| e.original_sql.to_string())
        .collect()
}

/// Run the full matrix against a server: per strategy, a one-
/// connection window then a `connections`-wide window.
pub fn run(addr: SocketAddr, cfg: LoadgenConfig) -> Result<LoadReport> {
    let suite = suite();
    let mut strategies = Vec::new();
    for strategy in STRATEGIES {
        let serial = window(addr, strategy, &suite, 1, cfg.budget)?;
        let concurrent = window(addr, strategy, &suite, cfg.connections, cfg.budget)?;
        strategies.push(StrategyLoad {
            strategy,
            serial,
            concurrent,
        });
    }
    Ok(LoadReport { strategies })
}

fn window(
    addr: SocketAddr,
    strategy: &str,
    suite: &[String],
    connections: usize,
    budget: Duration,
) -> Result<Window> {
    let start = Instant::now();
    let deadline = start + budget;
    let mut handles = Vec::new();
    for w in 0..connections.max(1) {
        let suite = suite.to_vec();
        let strategy = strategy.to_string();
        handles.push(std::thread::spawn(move || {
            worker(addr, &strategy, &suite, w, deadline)
        }));
    }
    let mut queries = 0u64;
    let mut errors = 0u64;
    let mut cache_hits = 0u64;
    let mut latencies_us = Vec::new();
    for h in handles {
        let w = h
            .join()
            .map_err(|_| Error::internal("loadgen worker panicked"))??;
        queries += w.queries;
        errors += w.errors;
        cache_hits += w.cache_hits;
        latencies_us.extend(w.latencies_us);
    }
    latencies_us.sort_unstable();
    Ok(Window {
        connections: connections.max(1),
        queries,
        errors,
        cache_hits,
        elapsed: start.elapsed(),
        latencies_us,
    })
}

struct WorkerStats {
    queries: u64,
    errors: u64,
    cache_hits: u64,
    latencies_us: Vec<u64>,
}

fn worker(
    addr: SocketAddr,
    strategy: &str,
    suite: &[String],
    offset: usize,
    deadline: Instant,
) -> Result<WorkerStats> {
    let mut client =
        Client::connect(addr).map_err(|e| Error::execution(format!("connect: {e}")))?;
    client.set_strategy(strategy)?;
    let mut stats = WorkerStats {
        queries: 0,
        errors: 0,
        cache_hits: 0,
        latencies_us: Vec::new(),
    };
    let mut i = offset % suite.len().max(1);
    while Instant::now() < deadline {
        let sql = &suite[i];
        i = (i + 1) % suite.len();
        let t = Instant::now();
        // BUSY is backpressure: the client retries with capped backoff
        // and gives up (an error) once the server stays saturated past
        // its retry deadline. The latency sample includes the retry
        // wait, as a real client's would.
        match client.query_admitted(sql) {
            Ok(Response::Rows { cache_hit, .. }) => {
                stats.queries += 1;
                if cache_hit {
                    stats.cache_hits += 1;
                }
            }
            Ok(_) => stats.queries += 1,
            Err(_) => stats.errors += 1,
        }
        stats
            .latencies_us
            .push(u64::try_from(t.elapsed().as_micros()).unwrap_or(u64::MAX));
    }
    Ok(stats)
}

/// The server's own view of the run, lifted from a `METRICS JSON`
/// document.
#[derive(Debug, Clone)]
pub struct ServerSideMetrics {
    /// `server.sessions_opened` counter.
    pub sessions_opened: u64,
    /// Samples in the `server.query_us` histogram.
    pub queries: u64,
    /// Server-side query-latency percentiles (bucket ceilings).
    pub p50_us: u64,
    pub p95_us: u64,
    pub p99_us: u64,
}

impl ServerSideMetrics {
    /// Lift the fields this module needs out of a parsed `METRICS
    /// JSON` document. `None` when the server ran with metrics off
    /// (no `server.query_us` histogram).
    pub fn from_doc(doc: &Value) -> Option<ServerSideMetrics> {
        let h = doc.get("histograms")?.get("server.query_us")?;
        Some(ServerSideMetrics {
            sessions_opened: num(doc
                .get("counters")
                .and_then(|c| c.get("server.sessions_opened"))),
            queries: num(h.get("count")),
            p50_us: num(h.get("p50_us")),
            p95_us: num(h.get("p95_us")),
            p99_us: num(h.get("p99_us")),
        })
    }
}

/// A `METRICS JSON` number as a count (0 when absent).
#[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
fn num(v: Option<&Value>) -> u64 {
    v.and_then(Value::as_f64).unwrap_or(0.0) as u64
}

/// One quantile's client/server comparison.
#[derive(Debug, Clone)]
pub struct CrossCheck {
    /// `p50` / `p95` / `p99`.
    pub quantile: &'static str,
    /// [`percentile`] over the calibration pass's client-side
    /// samples.
    pub client_us: u64,
    /// The server delta-histogram's percentile (bucket ceiling).
    pub server_us: u64,
    /// Whether the two land within one log2 bucket of each other.
    pub agree: bool,
}

/// Values below this floor are clamped before bucketing: at
/// single-digit microseconds one bucket is only a few µs wide and
/// scheduler noise dominates, so the comparison would be meaningless.
const CROSS_CHECK_FLOOR_US: u64 = 64;

/// Whether two latency measurements of the same population land
/// within one log2 bucket of each other (after the floor clamp) —
/// tight enough to catch real drift (a unit mix-up is ten buckets),
/// loose enough to absorb the client's round-trip overhead.
fn buckets_agree(client_us: u64, server_us: u64) -> bool {
    let c = starmagic_metrics::bucket_index(client_us.max(CROSS_CHECK_FLOOR_US));
    let s = starmagic_metrics::bucket_index(server_us.max(CROSS_CHECK_FLOOR_US));
    c.abs_diff(s) <= 1
}

/// Lift the `server.query_us` histogram out of a `METRICS JSON`
/// document.
fn query_histogram(doc: &Value) -> Option<HistogramSnapshot> {
    let h = doc.get("histograms")?.get("server.query_us")?;
    let Some(Value::Arr(arr)) = h.get("buckets") else {
        return None;
    };
    let mut buckets = [0u64; starmagic_metrics::BUCKETS];
    for (slot, v) in buckets.iter_mut().zip(arr) {
        *slot = num(Some(v));
    }
    Some(HistogramSnapshot {
        buckets,
        sum: num(h.get("sum")),
        max: num(h.get("max")),
    })
}

/// The histogram of events recorded between two snapshots: merge run
/// backwards. Sound because the bucket grid is fixed and counters
/// only grow; `max` is carried from `after` (an upper bound — it only
/// matters for the saturated top bucket).
fn histogram_delta(before: &HistogramSnapshot, after: &HistogramSnapshot) -> HistogramSnapshot {
    let mut delta = after.clone();
    for (d, b) in delta.buckets.iter_mut().zip(before.buckets) {
        *d = d.saturating_sub(b);
    }
    delta.sum = after.sum.saturating_sub(before.sum);
    delta
}

/// Build the per-quantile verdicts from a calibration pass: the
/// client's sorted samples vs the server's delta histogram covering
/// exactly those queries.
fn cross_check_verdicts(sorted_client_us: &[u64], delta: &HistogramSnapshot) -> Vec<CrossCheck> {
    [("p50", 50u64), ("p95", 95), ("p99", 99)]
        .into_iter()
        .map(|(quantile, p)| {
            #[allow(clippy::cast_precision_loss)]
            let client_us = percentile(sorted_client_us, p as f64);
            let server_us = delta.percentile_us(p).unwrap_or(0);
            CrossCheck {
                quantile,
                client_us,
                server_us,
                agree: buckets_agree(client_us, server_us),
            }
        })
        .collect()
}

/// Audit the server's latency telemetry against client-side timing.
///
/// The loaded windows can't be compared directly — under concurrency
/// a client-observed latency includes queue wait the server never
/// sees per query. So this runs a dedicated calibration pass on one
/// idle connection: snapshot `server.query_us`, replay the suite
/// `rounds` times timing each query client-side, snapshot again, and
/// compare percentiles of the two views of *exactly those queries*
/// (server side via [`histogram_delta`]). The only systematic
/// difference left is the socket round-trip, which one log2 bucket
/// absorbs. Errors if the server exposes no query histogram.
pub fn cross_check(
    client: &mut Client,
    suite: &[String],
    rounds: usize,
) -> Result<Vec<CrossCheck>> {
    let no_histogram =
        || Error::unsupported("target server exposes no server.query_us histogram (metrics off?)");
    let before = query_histogram(&client.metrics_json()?).ok_or_else(no_histogram)?;
    let mut samples = Vec::with_capacity(rounds * suite.len());
    for _ in 0..rounds.max(1) {
        for sql in suite {
            let t = Instant::now();
            client.query(sql)?;
            samples.push(u64::try_from(t.elapsed().as_micros()).unwrap_or(u64::MAX));
        }
    }
    let after = query_histogram(&client.metrics_json()?).ok_or_else(no_histogram)?;
    samples.sort_unstable();
    Ok(cross_check_verdicts(
        &samples,
        &histogram_delta(&before, &after),
    ))
}

/// The smallest concurrent/serial qps ratio across strategies — the
/// number the CI `--min-speedup` gate compares against. A regression
/// in *any* strategy (the RwLock bug hit all three) fails the gate.
pub fn min_speedup(report: &LoadReport) -> f64 {
    report
        .strategies
        .iter()
        .map(StrategyLoad::speedup)
        .fold(f64::INFINITY, f64::min)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_rounds_the_interpolated_index() {
        let samples: Vec<u64> = (1..=10).collect();
        // round(0.5 · 9) = 5 → the sixth sample; nearest-rank would
        // pick the fifth.
        assert_eq!(percentile(&samples, 50.0), 6);
        assert_eq!(percentile(&samples, 99.0), 10);
        assert_eq!(percentile(&samples, 0.0), 1);
        assert_eq!(percentile(&[], 50.0), 0);
    }

    #[test]
    fn cross_check_agrees_within_one_bucket() {
        // Below the 64µs floor everything clamps into one bucket.
        assert!(buckets_agree(1, 60));
        // One bucket apart (the client's round-trip allowance).
        assert!(buckets_agree(100, 200));
        assert!(buckets_agree(200, 100));
        // A 10x gap is several buckets — must disagree.
        assert!(!buckets_agree(100, 1_000));
        assert!(!buckets_agree(565, 7_043));

        // A delta histogram covers exactly the events recorded between
        // the two snapshots: client samples matching that population
        // agree, a unit-off server does not.
        let mut before = HistogramSnapshot::default();
        before.buckets[starmagic_metrics::bucket_index(100)] = 5;
        before.sum = 500;
        let mut after = before.clone();
        // 40 new events around ~150µs, 2 tail events around ~600µs.
        after.buckets[starmagic_metrics::bucket_index(150)] += 40;
        after.buckets[starmagic_metrics::bucket_index(600)] += 2;
        after.sum += 40 * 150 + 2 * 600;
        after.max = 640;
        let delta = histogram_delta(&before, &after);
        assert_eq!(delta.count(), 42, "delta must exclude the pre-existing 5");
        assert_eq!(delta.sum, 40 * 150 + 2 * 600);

        let mut client: Vec<u64> = std::iter::repeat_n(160u64, 40).chain([620, 630]).collect();
        client.sort_unstable();
        let verdicts = cross_check_verdicts(&client, &delta);
        assert_eq!(verdicts.len(), 3);
        assert!(
            verdicts.iter().all(|c| c.agree),
            "same population measured twice must agree: {verdicts:?}"
        );

        // Same client samples against a 10x-off delta must fail.
        let mut off = HistogramSnapshot::default();
        off.buckets[starmagic_metrics::bucket_index(1_500)] = 40;
        off.buckets[starmagic_metrics::bucket_index(6_000)] = 2;
        off.sum = 40 * 1_500 + 2 * 6_000;
        off.max = 6_000;
        let verdicts = cross_check_verdicts(&client, &off);
        assert!(
            verdicts.iter().all(|c| !c.agree),
            "a 10x-off server must fail the cross-check: {verdicts:?}"
        );
    }

    #[test]
    fn server_side_metrics_lift_from_a_metrics_doc() {
        let doc = starmagic_trace::json::parse(
            r#"{"schema_version":1,"enabled":true,
                "counters":{"server.sessions_opened":9},
                "histograms":{"server.query_us":
                    {"count":42,"sum":4200,"mean":100,"max":900,
                     "p50_us":127,"p95_us":511,"p99_us":1023,"buckets":[]}},
                "plan_cache":{}}"#,
        )
        .unwrap();
        let s = ServerSideMetrics::from_doc(&doc).expect("histogram present");
        assert_eq!(s.sessions_opened, 9);
        assert_eq!(s.queries, 42);
        assert_eq!((s.p50_us, s.p95_us, s.p99_us), (127, 511, 1023));
        let off = starmagic_trace::json::parse(r#"{"enabled":false,"histograms":{}}"#).unwrap();
        assert!(ServerSideMetrics::from_doc(&off).is_none());
    }
}
