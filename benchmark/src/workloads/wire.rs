//! `wire_point` and `wire_ddl_churn`: the server under two closed-loop
//! connections.
//!
//! A self-hosted `serve_engine` on `127.0.0.1:0` with the default
//! `ServerConfig` serves the benchmark database. Each connection replays
//! selective templates — experiments A, B, F and G with a seeded
//! department literal — through `QUERY`. Four cache keys against a
//! 128-entry plan cache: after the warm-up every request is a hit that
//! only rebinds its literal, so per-request overhead dominates (server
//! framing and admission, parse, parameterize, cache lookup, bind, a
//! tiny execution) and the optimizer is bypassed. Connection 1 replaces
//! every 50th operation by a `PING`, which costs the server's framing
//! and two system calls and no engine work.
//!
//! `wire_ddl_churn` is the same stream with a one-row `INSERT INTO
//! project` where `wire_point` has its `PING`. Each insert
//! clones the catalog copy-on-write, bumps the epoch, invalidates every
//! cached plan and drops the index cache, so the reads that follow pay
//! the miss path. The inserted rows belong to a department no query
//! asks for: every read has one right answer whatever the epoch.

use std::sync::Barrier;
use std::time::{Duration, Instant};

use starmagic::{Engine, Strategy};
use starmagic_bench::bench_engine;
use starmagic_common::Value;
use starmagic_server::protocol::Response;
use starmagic_server::{serve_engine, Client, ServerConfig, ServerHandle};

use super::{bag_checksum, table1::scale, LoopResult, Verdict, Workload};
use crate::rng::{fnv1a, SplitMix64, FNV_OFFSET};
use crate::spans::{SpanId, Tracer};
use crate::stats::{lower_quartile, median, percentile_sorted, upper_quartile};
use crate::{Res, RunConfig};

pub const CONNECTIONS: usize = 2;
pub const TEMPLATES: usize = 4;
/// Every 50th operation of connection 1 is the side operation: a `PING`
/// on `wire_point`, an `INSERT` on `wire_ddl_churn`.
pub const SIDE_EVERY: u64 = 50;
/// A request still `BUSY` after this many retries counts as failed.
pub const BUSY_RETRY_LIMIT: u32 = 100;
/// The department of the inserted projects; no department has it.
const CHURN_DEPT: i64 = 100_000;
const CHURN_FIRST_KEY: i64 = 10_000_000;

/// Experiments A, B, F and G with the department as the literal.
pub fn template_sql(template: usize, dept: u64) -> String {
    let name = if dept == 0 {
        "Planning".to_string()
    } else {
        format!("Dept_{dept}")
    };
    match template {
        0 => format!(
            "SELECT d.deptname, v.avgsal FROM department d, deptAvgSal v \
             WHERE v.workdept = d.deptno AND d.deptno = {dept}"
        ),
        1 => format!(
            "SELECT e.empno FROM employee e, department d, deptAvgSal v \
             WHERE e.workdept = d.deptno AND v.workdept = e.workdept \
             AND e.salary > v.avgsal AND d.deptname = '{name}'"
        ),
        2 => format!(
            "SELECT d.deptname FROM department d, projCount v \
             WHERE d.deptno = {dept} AND v.deptno = d.deptno AND v.cnt > 2"
        ),
        _ => format!(
            "SELECT d.deptname, s.workdept, s.avgsalary FROM department d, avgMgrSal s \
             WHERE d.deptno = s.workdept AND d.deptname = '{name}'"
        ),
    }
}

/// The seeded request stream of one connection.
pub fn request_stream(seed: u64, conn: usize) -> SplitMix64 {
    SplitMix64::stream(seed, 10 + conn as u64)
}

/// The next `(template, department)` of a stream.
pub fn next_request(rng: &mut SplitMix64, departments: u64) -> (usize, u64) {
    (rng.below(TEMPLATES as u64) as usize, rng.below(departments))
}

/// One client connection and what it has seen.
struct Conn {
    id: usize,
    client: Client,
    rng: SplitMix64,
    /// First answer seen per `(template, department)`: `(rows, checksum)`.
    observed: Vec<Option<(usize, u64)>>,
    ops_done: u64,
    acked_inserts: u64,
    last_epoch: u64,
    epoch_regressions: u64,
    busy_retries: u64,
    /// Timed reads answered from the plan cache / by a fresh prepare.
    hits: u64,
    misses: u64,
}

/// What one connection measured in one window.
#[derive(Default)]
struct WindowSamples {
    template_us: [Vec<f64>; TEMPLATES],
    /// The reads among them that missed the plan cache.
    miss_us: Vec<f64>,
    /// The side operations: pings or inserts.
    side_us: Vec<f64>,
    ops: u64,
    failed: u64,
}

impl Conn {
    /// Send one request line, retrying `BUSY` with the client's own
    /// back-off; `None` when it errored or stayed busy.
    fn request(&mut self, line: &str) -> Option<Response> {
        let mut backoff = Duration::from_millis(1);
        for _ in 0..=BUSY_RETRY_LIMIT {
            match self.client.request(line) {
                Ok(Response::Busy(_)) => {
                    self.busy_retries += 1;
                    std::thread::sleep(backoff);
                    backoff = (backoff * 2).min(Duration::from_millis(50));
                }
                Ok(r) => return Some(r),
                Err(_) => return None,
            }
        }
        None
    }

    fn note_epoch(&mut self, epoch: u64) {
        if epoch < self.last_epoch {
            self.epoch_regressions += 1;
        }
        self.last_epoch = epoch;
    }

    /// One operation of the stream: the side operation (an insert under
    /// `churn`, else a ping) when the schedule says so, else a read.
    /// Only the round trip is timed.
    fn step(
        &mut self,
        departments: u64,
        churn: bool,
        timed: Option<&mut WindowSamples>,
        tracer: &mut Tracer,
    ) {
        let req = ((self.id as u64) << 32) | self.ops_done;
        // The warm-up is reads only.
        let side = timed.is_some() && self.id == 1 && self.ops_done % SIDE_EVERY == SIDE_EVERY - 1;
        self.ops_done += 1;
        let (template, dept) = next_request(&mut self.rng, departments);
        let (line, span) = if side && churn {
            let key = CHURN_FIRST_KEY + i64::try_from(self.acked_inserts).unwrap_or(0);
            let row = format!("({key}, 'Churn', {CHURN_DEPT}, 1.0)");
            (
                format!("QUERY INSERT INTO project VALUES {row}"),
                "server.insert",
            )
        } else if side {
            ("PING".to_string(), "server.ping")
        } else {
            (
                format!("QUERY {}", template_sql(template, dept)),
                "server.query",
            )
        };
        let start = Instant::now();
        let response = self.request(&line);
        let elapsed = start.elapsed();
        tracer.add(span, start, elapsed, req, SpanId::NONE);
        let us = elapsed.as_secs_f64() * 1e6;

        let mut missed = false;
        let ok = match response {
            Some(Response::Ok { info }) if side && churn => {
                self.acked_inserts += 1;
                let epoch = info
                    .iter()
                    .find(|(k, _)| k == "epoch")
                    .and_then(|(_, v)| v.parse().ok());
                epoch.map(|e| self.note_epoch(e)).is_some()
            }
            Some(Response::Ok { .. }) if side => true,
            Some(Response::Rows {
                rows,
                cache_hit,
                epoch,
                ..
            }) if !side => {
                self.note_epoch(epoch);
                missed = !cache_hit;
                if timed.is_some() {
                    self.hits += u64::from(cache_hit);
                    self.misses += u64::from(missed);
                }
                let answer = (rows.len(), bag_checksum(&rows));
                let slot = &mut self.observed[template * departments as usize + dept as usize];
                *slot.get_or_insert(answer) == answer
            }
            _ => false,
        };
        if let Some(w) = timed {
            w.ops += 1;
            w.failed += u64::from(!ok);
            if side {
                w.side_us.push(us);
            } else {
                w.template_us[template].push(us);
                if missed {
                    w.miss_us.push(us);
                }
            }
        }
    }
}

pub struct Wire<const CHURN: bool> {
    /// Shares the served engine's plan cache (and so its counters).
    probe: Engine,
    server: Option<ServerHandle>,
    conns: Vec<Conn>,
    departments: u64,
    small: bool,
    seed: u64,
    initial_projects: usize,
    invalidations_at_start: u64,
}

pub type WirePoint = Wire<false>;
pub type WireDdlChurn = Wire<true>;

impl<const CHURN: bool> Wire<CHURN> {
    /// Timed windows per run. Each metric is the lower quartile of its
    /// per-window values (the upper quartile for the rate): a window is
    /// the unit the host either disturbed or left alone, see
    /// [`crate::stats::lower_quartile`]. `wire_point`'s windows are
    /// short and many because of its 99th percentile, see
    /// [`Self::tail_us`]; under churn a window must hold enough inserts
    /// and misses for a median of each.
    pub const WINDOWS: u32 = if CHURN { 20 } else { 80 };

    /// The run's 99th percentile from the per-window ones. Under churn
    /// the tail is the miss path, which every window pays alike: the
    /// lower quartile, like every other metric. On `wire_point` the
    /// tail is round trips that waited for a core (four threads on two
    /// cores, beside the host's other tenants): the per-window values
    /// of one run range over 1.5x, a quantile in the middle of that
    /// range moves with the share of disturbed windows (the lower
    /// quartile spread up to 29 % over ten runs of the same code), and
    /// the least disturbed window's value repeats within 4 to 8 %
    /// (`baseline/wire-p99-estimators.txt`).
    fn tail_us(per_window_p99: &[f64]) -> f64 {
        if CHURN {
            lower_quartile(per_window_p99)
        } else {
            per_window_p99.iter().copied().fold(f64::INFINITY, f64::min)
        }
    }
}

impl<const CHURN: bool> Workload for Wire<CHURN> {
    const SETUPS: usize = 7;

    fn setup(cfg: &RunConfig) -> Res<Self> {
        let scale = scale(cfg.small);
        let engine = bench_engine(scale).map_err(|e| format!("bench_engine: {e}"))?;
        let probe = engine.clone();
        let initial_projects = probe
            .catalog()
            .table("project")
            .map_err(|e| e.to_string())?
            .row_count();
        let server = serve_engine(engine, "127.0.0.1:0", ServerConfig::default())
            .map_err(|e| format!("serve_engine: {e}"))?;
        let departments = scale.departments as u64;
        let mut conns = Vec::new();
        for id in 0..CONNECTIONS {
            conns.push(Conn {
                id,
                client: Client::connect(server.addr()).map_err(|e| format!("connect: {e}"))?,
                rng: request_stream(cfg.seed, id),
                observed: vec![None; TEMPLATES * departments as usize],
                ops_done: 0,
                acked_inserts: 0,
                last_epoch: 0,
                epoch_regressions: 0,
                busy_retries: 0,
                hits: 0,
                misses: 0,
            });
        }
        // Warm-up: reads only, both connections at once like the timed
        // windows, so the four plans are cached and the indexes built
        // before anything is timed.
        let warm_ops = if cfg.small { 200 } else { 2000 };
        std::thread::scope(|scope| {
            for conn in &mut conns {
                scope.spawn(move || {
                    let mut off = Tracer::off();
                    for _ in 0..warm_ops {
                        conn.step(departments, false, None, &mut off);
                    }
                    conn.ops_done = 0;
                });
            }
        });
        let invalidations_at_start = probe.cache_stats().invalidations;
        Ok(Wire {
            probe,
            server: Some(server),
            conns,
            departments,
            small: cfg.small,
            seed: cfg.seed,
            initial_projects,
            invalidations_at_start,
        })
    }

    fn stream_hash(&self) -> u64 {
        let mut h = FNV_OFFSET;
        for conn in 0..CONNECTIONS {
            let mut rng = request_stream(self.seed, conn);
            for _ in 0..1000 {
                let (t, d) = next_request(&mut rng, self.departments);
                h = fnv1a(h, template_sql(t, d).as_bytes());
            }
        }
        h
    }

    fn measure(&mut self, budget: Duration, tracer: &mut Tracer) -> Res<LoopResult> {
        // A window no shorter than 10 ms, so that the smoke mode's
        // fraction of a second still holds a side operation per window.
        let windows = Self::WINDOWS.min((budget.as_millis() / 10) as u32).max(1);
        let window = budget / windows;
        let departments = self.departments;
        let (trace_on, origin) = (tracer.is_on(), tracer.origin());
        // Per window: template sum, read p50, slow path, side
        // operation, read p99, rate.
        let mut per_window: Vec<[f64; 6]> = Vec::new();
        let (mut ops, mut failed, mut samples) = (0u64, 0u64, [0usize; 3]);
        let run_start = Instant::now();
        for _ in 0..windows {
            let barrier = Barrier::new(CONNECTIONS);
            let results: Vec<(WindowSamples, Duration, Tracer)> = std::thread::scope(|scope| {
                let handles: Vec<_> = self
                    .conns
                    .iter_mut()
                    .map(|conn| {
                        let barrier = &barrier;
                        scope.spawn(move || {
                            let mut w = WindowSamples::default();
                            let mut tracer = Tracer::new(trace_on, origin);
                            barrier.wait();
                            let start = Instant::now();
                            while start.elapsed() < window {
                                conn.step(departments, CHURN, Some(&mut w), &mut tracer);
                            }
                            (w, start.elapsed(), tracer)
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("a client thread panicked"))
                    .collect()
            });
            let wall = results.iter().map(|r| r.1).max().unwrap_or(window);
            let mut reads: Vec<f64> = Vec::new();
            let (mut template_sum, mut slowest_template) = (0.0, 0.0f64);
            for t in 0..TEMPLATES {
                let of_template: Vec<f64> = results
                    .iter()
                    .flat_map(|r| r.0.template_us[t].iter().copied())
                    .collect();
                let typical = median(&of_template);
                template_sum += typical;
                slowest_template = slowest_template.max(typical);
                reads.extend(of_template);
            }
            let (mut misses, mut side) = (Vec::new(), Vec::new());
            let mut window_ops = 0;
            for (w, _, t) in results {
                window_ops += w.ops;
                failed += w.failed;
                misses.extend(w.miss_us);
                side.extend(w.side_us);
                tracer.absorb(t);
            }
            ops += window_ops;
            reads.sort_by(f64::total_cmp);
            samples = [
                samples[0] + reads.len(),
                samples[1] + side.len(),
                samples[2] + misses.len(),
            ];
            // A window too short to hold a side operation (or, under
            // churn, a miss) has no value for it and cannot be the
            // quartile.
            let or_none = |v: &[f64]| {
                if v.is_empty() {
                    f64::INFINITY
                } else {
                    median(v)
                }
            };
            per_window.push([
                template_sum,
                percentile_sorted(&reads, 50.0),
                if CHURN {
                    or_none(&misses)
                } else {
                    slowest_template
                },
                or_none(&side),
                percentile_sorted(&reads, 99.0),
                window_ops as f64 / wall.as_secs_f64(),
            ]);
        }
        let column = |i: usize| per_window.iter().map(|w| w[i]).collect::<Vec<_>>();
        let ms = |i: usize| lower_quartile(&column(i)) / 1e3;
        let p99_us = Self::tail_us(&column(4));
        let rate = upper_quartile(&column(5));
        let side_name = if CHURN {
            "ddl_latency_p50_us"
        } else {
            "ping_p50_us"
        };
        let mut detail = vec![
            ("read_samples".to_string(), samples[0] as f64, "count"),
            (
                "read_samples_per_window".to_string(),
                samples[0] as f64 / f64::from(windows),
                "count",
            ),
            ("latency_p50_us".to_string(), ms(1) * 1e3, "us"),
            ("latency_p99_us".to_string(), p99_us, "us"),
            (
                "latency_p99_us_median_window".to_string(),
                median(&column(4)),
                "us",
            ),
            ("side_samples".to_string(), samples[1] as f64, "count"),
            (side_name.to_string(), ms(3) * 1e3, "us"),
        ];
        if CHURN {
            detail.push(("miss_samples".to_string(), samples[2] as f64, "count"));
            detail.push(("miss_latency_p50_us".to_string(), ms(2) * 1e3, "us"));
        }
        Ok(LoopResult {
            suite_ms: ms(0),
            fast_path_ms: ms(1),
            slow_path_ms: ms(2),
            side_path_ms: ms(3),
            worst_case_ms: Some(p99_us / 1e3),
            throughput_ops: rate,
            ops,
            failed,
            wall: run_start.elapsed(),
            detail,
        })
    }

    fn verify(&mut self) -> Res<Verdict> {
        let mut v = Verdict::default();
        // Every answer seen on the wire equals the in-process result of
        // the same SQL on a database of its own.
        let reference = bench_engine(scale(self.small)).map_err(|e| e.to_string())?;
        let departments = self.departments as usize;
        for conn in &self.conns {
            for (slot, seen) in conn.observed.iter().enumerate() {
                let Some(seen) = seen else { continue };
                let sql = template_sql(slot / departments, (slot % departments) as u64);
                let want = reference
                    .query_cached(&sql, Strategy::CostBased)
                    .map(|r| (r.rows.len(), bag_checksum(&r.rows)))
                    .map_err(|e| e.to_string());
                v.check(want.as_ref() == Ok(seen), || {
                    format!("wire answer {seen:?} != in-process {want:?} for {sql}")
                });
            }
        }
        let sum = |f: fn(&Conn) -> u64| self.conns.iter().map(f).sum::<u64>();
        let (hits, misses) = (sum(|c| c.hits), sum(|c| c.misses));
        let acked = sum(|c| c.acked_inserts);
        let invalidations = self.probe.cache_stats().invalidations - self.invalidations_at_start;
        v.check(sum(|c| c.epoch_regressions) == 0, || {
            "a connection saw its epoch decrease".to_string()
        });
        if CHURN {
            let count = self.conns[0]
                .request("QUERY SELECT COUNT(*) FROM project")
                .and_then(|r| match r {
                    Response::Rows { rows, .. } => match rows.first().map(|r| r.get(0).clone()) {
                        Some(Value::Int(n)) => usize::try_from(n).ok(),
                        _ => None,
                    },
                    _ => None,
                });
            let want = self.initial_projects + acked as usize;
            v.check(count == Some(want), || {
                format!(
                    "project has {count:?} rows, expected {want} ({acked} acknowledged inserts)"
                )
            });
            // The premise: each insert invalidates the cached plans, and
            // reads then miss.
            v.check(acked > 0 && invalidations >= acked && misses >= 1, || {
                format!("{acked} inserts caused {invalidations} invalidations and {misses} misses")
            });
        } else {
            // The premise: every timed request is a cache hit.
            v.check(misses == 0 && hits > 0 && invalidations == 0, || {
                format!(
                    "wire_point: {misses} of {} timed reads missed the plan cache",
                    hits + misses
                )
            });
        }
        Ok(v)
    }

    fn teardown(mut self) {
        // Closing the sockets ends the sessions; then the server drains.
        self.conns.clear();
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
    }
}
