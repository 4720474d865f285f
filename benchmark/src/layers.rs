//! The per-layer battery of the traced run.
//!
//! Every layer is measured from outside, by timing calls into its
//! public functions; nothing here reads a clock inside the engine except
//! the executor's existing public `ExecProfile`. Each metric has a home
//! corpus (the workload whose end-to-end metric it should move — see
//! `README.md`) and is measured on that corpus whichever workload's
//! traced run executes the battery, because the driver wants every
//! per-layer metric from every workload. Repetition counts are
//! constants, so the counts repeat exactly.

use std::time::{Duration, Instant};

use starmagic::exec::{execute_with_options, ExecOptions, ExecProfile, IndexCache};
use starmagic::qgm::BoxKind;
use starmagic::rewrite::CheckLevel;
use starmagic::{sql, Engine, PipelineOptions, Prepared, Strategy};
use starmagic_bench::{bench_engine, fuzz_engine};
use starmagic_catalog::generator::benchmark_catalog;
use starmagic_common::{Row, Value};
use starmagic_metrics::Registry;
use starmagic_server::protocol::Response;
use starmagic_server::{serve_engine, Client, ServerConfig};

use crate::spans::{SpanId, Tracer};
use crate::staged::{fidelity, staged_prepare, STAGED_TOTAL, STAGES};
use crate::stats::{lower_quartile, median};
use crate::workloads::recursion::{closure_sql, engine_for, graphs, Bind};
use crate::workloads::table1::{prepare_suite, scale};
use crate::workloads::wire::{next_request, request_stream, template_sql, CONNECTIONS, TEMPLATES};
use crate::workloads::{plan_cold, Lane};
use crate::{Res, RunConfig};

type Values = Vec<(&'static str, f64)>;

/// Repetition counts of the battery, full size and `--check` size.
struct Reps {
    /// Passes over the compile corpus per timed variant.
    compile_passes: usize,
    /// Requests in the replayed wire sequence.
    replay: usize,
    /// Repetitions of each cache probe, per template.
    cache_probe: usize,
    pings: usize,
    inserts: usize,
}

fn reps(small: bool) -> Reps {
    if small {
        Reps {
            compile_passes: 2,
            replay: 400,
            cache_probe: 20,
            pings: 200,
            inserts: 10,
        }
    } else {
        Reps {
            compile_passes: 5,
            replay: 4000,
            cache_probe: 200,
            pings: 2000,
            inserts: 50,
        }
    }
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

/// Mean over the classes of each class's median.
fn mean_of_medians(per_class: &[Vec<f64>]) -> f64 {
    per_class.iter().map(|s| median(s)).sum::<f64>() / per_class.len().max(1) as f64
}

/// Run the whole battery; returns every per-layer value except the
/// three only the traced loop knows (`trace.harness_overhead_pct`,
/// `trace.loop_ops`, `trace.spans`).
pub fn battery(cfg: &RunConfig, tracer: &mut Tracer) -> Res<Values> {
    let mut out = Values::new();
    let reps = reps(cfg.small);
    catalog_layer(cfg, &mut out)?;
    compile_layers(cfg, &reps, tracer, &mut out)?;
    let mut kinds = KindMs::default();
    exec_layers(cfg, &mut kinds, &mut out)?;
    fixpoint_layers(cfg, &mut kinds, &mut out)?;
    out.extend([
        ("exec.select_ms", kinds.select),
        ("exec.groupby_ms", kinds.groupby),
        ("exec.scan_ms", kinds.scan),
        ("exec.setop_ms", kinds.setop),
    ]);
    cache_and_server_layers(cfg, &reps, tracer, &mut out)?;
    Ok(out)
}

// ---- catalog ------------------------------------------------------------

fn catalog_layer(cfg: &RunConfig, out: &mut Values) -> Res<()> {
    let mut times = Vec::new();
    let mut rows = 0;
    for _ in 0..3 {
        let (catalog, elapsed) = timed(|| benchmark_catalog(scale(cfg.small)));
        let catalog = catalog.map_err(|e| e.to_string())?;
        times.push(elapsed.as_secs_f64());
        rows = catalog
            .table_names()
            .iter()
            .map(|t| {
                catalog
                    .table(t)
                    .map_or(0, starmagic_catalog::Table::row_count)
            })
            .sum();
    }
    out.extend([
        ("catalog.generate_s", median(&times)),
        ("catalog.rows_total", rows as f64),
    ]);
    Ok(())
}

// ---- sql, qgm, rewrite, core, planner, lint, analysis, engine.prepare ---

/// Home corpus: `plan_cold`'s.
fn compile_layers(cfg: &RunConfig, reps: &Reps, tracer: &mut Tracer, out: &mut Values) -> Res<()> {
    let engine = fuzz_engine().map_err(|e| e.to_string())?;
    let corpus = plan_cold::corpus(&engine, cfg.small);
    let n = corpus.len();

    // Stage by stage, with spans; the first pass also counts and checks
    // the replica against the engine.
    let mut stage_us: Vec<Vec<Vec<f64>>> = vec![vec![Vec::new(); n]; STAGES.len()];
    let mut parameterize_us: Vec<Vec<f64>> = vec![Vec::new(); n];
    let mut counts = [0usize; 9];
    for pass in 0..reps.compile_passes {
        for (q, sql_text) in corpus.iter().enumerate() {
            let staged = staged_prepare(&engine, sql_text, Strategy::CostBased, tracer, q as u64)?;
            for (s, d) in staged.stage.iter().enumerate() {
                stage_us[s][q].push(us(*d));
            }
            let query = sql::parse_query(sql_text).map_err(|e| e.to_string())?;
            let start = Instant::now();
            let p = sql::parameterize(&query);
            let elapsed = start.elapsed();
            std::hint::black_box(p);
            tracer.add("sql.parameterize", start, elapsed, q as u64, SpanId::NONE);
            parameterize_us[q].push(us(elapsed));
            if pass == 0 {
                fidelity(&engine, sql_text, Strategy::CostBased, &staged)?;
                let [s1, s2, s3] = &staged.stats;
                let noop =
                    |s: &starmagic::rewrite::RewriteStats| s.no_op_offers.values().sum::<usize>();
                for (slot, v) in counts.iter_mut().zip([
                    sql_text.len(),
                    staged.boxes[0],
                    s1.total_fires(),
                    s3.total_fires(),
                    noop(s1) + noop(s3),
                    staged.boxes[1],
                    staged.boxes[3],
                    s2.count("emst"),
                    staged.boxes[2],
                ]) {
                    *slot += v;
                }
            }
        }
    }
    let stage = |i: usize| mean_of_medians(&stage_us[i]);
    let fires = (counts[2] + counts[3]) as f64;
    out.extend([
        ("sql.parse_us", stage(0)),
        ("sql.parameterize_us", mean_of_medians(&parameterize_us)),
        ("sql.corpus_bytes", counts[0] as f64),
        ("qgm.build_us", stage(1)),
        ("qgm.boxes_initial", counts[1] as f64),
        ("rewrite.phase1_us", stage(2)),
        ("rewrite.phase3_us", stage(5)),
        ("rewrite.phase1_fires", counts[2] as f64),
        ("rewrite.phase3_fires", counts[3] as f64),
        ("rewrite.noop_offers", counts[4] as f64),
        ("rewrite.fire_ratio", fires / (fires + counts[4] as f64)),
        ("rewrite.boxes_after_phase1", counts[5] as f64),
        ("rewrite.boxes_after_phase3", counts[6] as f64),
        ("core.emst_phase2_us", stage(4)),
        ("core.emst_fires", counts[7] as f64),
        ("core.boxes_after_phase2", counts[8] as f64),
        ("planner.plan1_us", stage(3)),
        ("planner.plan2_us", stage(6)),
        ("lint.check_us", stage(7)),
        ("analysis.check_us", stage(8)),
    ]);

    // The engine's own prepare, whole, under each check level and with
    // its pipeline trace off — variants interleaved pass by pass.
    let options = |check, trace| PipelineOptions {
        check,
        trace,
        ..PipelineOptions::default()
    };
    let variants = [
        ("engine.prepare_us", None, reps.compile_passes),
        (
            "engine.prepare_off_us",
            Some(options(CheckLevel::Off, true)),
            reps.compile_passes,
        ),
        (
            "trace-off",
            Some(options(CheckLevel::Off, false)),
            reps.compile_passes,
        ),
        (
            "engine.prepare_perpass_us",
            Some(options(CheckLevel::PerPass, true)),
            2,
        ),
        (
            "engine.prepare_perfire_us",
            Some(options(CheckLevel::PerFire, true)),
            1,
        ),
    ];
    let mut variant_us: Vec<Vec<Vec<f64>>> = vec![vec![Vec::new(); n]; variants.len()];
    for pass in 0..reps.compile_passes {
        for (v, (_, opts, passes)) in variants.iter().enumerate() {
            if pass >= *passes {
                continue;
            }
            for (q, sql_text) in corpus.iter().enumerate() {
                let (plan, elapsed) = timed(|| match opts {
                    None => engine.prepare(sql_text, Strategy::CostBased),
                    Some(o) => engine.prepare_with_options(sql_text, *o),
                });
                plan.map_err(|e| format!("prepare {sql_text:?}: {e}"))?;
                variant_us[v][q].push(us(elapsed));
            }
        }
    }
    let variant = |v: usize| mean_of_medians(&variant_us[v]);
    let staged_sum: f64 = (0..STAGED_TOTAL).map(stage).sum();
    out.extend([
        ("engine.prepare_us", variant(0)),
        ("engine.unattributed_us", variant(0) - staged_sum),
        ("engine.prepare_off_us", variant(1)),
        ("engine.prepare_perpass_us", variant(3)),
        ("engine.prepare_perfire_us", variant(4)),
        (
            "trace.pipeline_overhead_pct",
            100.0 * (variant(1) - variant(2)) / variant(2),
        ),
    ]);
    Ok(())
}

// ---- exec ---------------------------------------------------------------

/// Inclusive time per box kind, from `ExecProfile` (a parent's time
/// contains its children's).
#[derive(Default)]
struct KindMs {
    select: f64,
    groupby: f64,
    scan: f64,
    setop: f64,
}

impl KindMs {
    fn add(&mut self, plan: &Prepared, profile: &ExecProfile) {
        for (b, p) in &profile.boxes {
            if !plan.qgm.box_exists(*b) {
                continue;
            }
            let slot = match plan.qgm.boxed(*b).kind {
                BoxKind::Select | BoxKind::OuterJoin(_) => &mut self.select,
                BoxKind::GroupBy(_) => &mut self.groupby,
                BoxKind::BaseTable { .. } => &mut self.scan,
                BoxKind::SetOp(_) => &mut self.setop,
            };
            *slot += ms(p.elapsed);
        }
    }
}

fn execute(
    engine: &Engine,
    plan: &Prepared,
    indexes: &IndexCache,
    opts: ExecOptions,
) -> Res<(Vec<Row>, ExecProfile, Duration)> {
    let (r, elapsed) = timed(|| execute_with_options(&plan.qgm, engine.catalog(), indexes, opts));
    let (rows, profile) = r.map_err(|e| format!("execute: {e}"))?;
    Ok((rows, profile, elapsed))
}

/// Home corpus: `table1_exec`'s 32 plans.
fn exec_layers(cfg: &RunConfig, kinds: &mut KindMs, out: &mut Values) -> Res<()> {
    let engine = bench_engine(scale(cfg.small)).map_err(|e| e.to_string())?;
    let (classes, plans) = prepare_suite(&engine)?;
    let indexes = IndexCache::default();
    let live = Registry::enabled();
    let mut total = starmagic::exec::Metrics::default();
    // Work per lane: CostBased, EMST, Original.
    let mut work = [Vec::new(), Vec::new(), Vec::new()];
    let (mut correlated_ms, mut cold_ms, mut magic_chosen) = (0.0, 0.0, 0);
    let (mut original_t1, mut original_t2) = (0.0, 0.0);
    for (class, plan) in classes.iter().zip(&plans) {
        // First execution: builds this plan's indexes.
        execute(&engine, plan, &indexes, ExecOptions::default())?;
        let (_, _, plain) = execute(&engine, plan, &indexes, ExecOptions::default())?;
        let (_, profile, _) = execute(
            &engine,
            plan,
            &indexes,
            ExecOptions {
                timing: true,
                ..ExecOptions::default()
            },
        )?;
        // An untimed pass with a live registry for the batch counters.
        execute(
            &engine,
            plan,
            &indexes,
            ExecOptions {
                metrics: live.clone(),
                ..ExecOptions::default()
            },
        )?;
        kinds.add(plan, &profile);
        let m = profile.aggregate();
        total.rows_scanned += m.rows_scanned;
        total.rows_produced += m.rows_produced;
        total.box_evals += m.box_evals;
        match class.lane {
            Lane::Suite => {
                work[0].push(m.work());
                magic_chosen += usize::from(plan.used_magic);
                // What the first read after a DDL pays: no index yet.
                let (_, _, cold) = execute(
                    &engine,
                    plan,
                    &IndexCache::default(),
                    ExecOptions::default(),
                )?;
                cold_ms += ms(cold);
            }
            Lane::Fast => work[1].push(m.work()),
            Lane::Slow => {
                work[2].push(m.work());
                let two = ExecOptions {
                    threads: 2,
                    ..ExecOptions::default()
                };
                execute(&engine, plan, &indexes, two.clone())?;
                let (_, _, t2) = execute(&engine, plan, &indexes, two)?;
                original_t1 += ms(plain);
                original_t2 += ms(t2);
            }
            Lane::Side => correlated_ms += ms(plain),
        }
    }
    let sum = |v: &[u64]| v.iter().sum::<u64>() as f64;
    let best: u64 = work[1].iter().zip(&work[2]).map(|(a, b)| *a.min(b)).sum();
    let counters = live.snapshot();
    out.extend([
        ("exec.work_rows", total.work() as f64),
        ("exec.rows_scanned", total.rows_scanned as f64),
        ("exec.rows_produced", total.rows_produced as f64),
        ("exec.box_evals", total.box_evals as f64),
        ("exec.correlated_suite_ms", correlated_ms),
        (
            "exec.batch_batches",
            counters.counter("exec.batch.batches") as f64,
        ),
        (
            "exec.batch_gather_rows",
            counters.counter("exec.batch.gather_rows") as f64,
        ),
        ("exec.cold_first_exec_ms", cold_ms),
        ("exec.parallel_speedup_t2", original_t1 / original_t2),
        ("core.magic_work_pct", 100.0 * sum(&work[1]) / sum(&work[2])),
        ("planner.magic_chosen", magic_chosen as f64),
        (
            "planner.choice_regret_work_pct",
            100.0 * sum(&work[0]) / best as f64,
        ),
    ]);
    Ok(())
}

/// Home corpus: `recursion_fixpoint`'s closures, naive and magic.
fn fixpoint_layers(cfg: &RunConfig, kinds: &mut KindMs, out: &mut Values) -> Res<()> {
    let graphs = graphs(cfg.seed, cfg.small);
    let engine = engine_for(&graphs)?;
    let indexes = IndexCache::default();
    let (mut rounds, mut delta_rows, mut elapsed_us) = (0u64, 0u64, 0.0);
    let (mut naive_work, mut magic_work) = (0u64, 0u64);
    for g in &graphs {
        for strategy in [Strategy::Original, Strategy::Magic] {
            let plan = engine
                .prepare(&closure_sql(g, Bind::Source), strategy)
                .map_err(|e| e.to_string())?;
            execute(&engine, &plan, &indexes, ExecOptions::default())?;
            let (_, _, plain) = execute(&engine, &plan, &indexes, ExecOptions::default())?;
            let (_, profile, _) = execute(
                &engine,
                &plan,
                &indexes,
                ExecOptions {
                    timing: true,
                    ..ExecOptions::default()
                },
            )?;
            kinds.add(&plan, &profile);
            for f in profile.fixpoint.values() {
                rounds += f.iterations;
                delta_rows += f.delta_rows.iter().sum::<u64>();
            }
            elapsed_us += us(plain);
            let work = profile.aggregate().work();
            if strategy == Strategy::Magic {
                magic_work += work;
            } else {
                naive_work += work;
            }
        }
    }
    out.extend([
        ("exec.fixpoint_rounds", rounds as f64),
        ("exec.fixpoint_delta_rows", delta_rows as f64),
        (
            "exec.fixpoint_us_per_round",
            elapsed_us / rounds.max(1) as f64,
        ),
        (
            "exec.fixpoint_us_per_delta_row",
            elapsed_us / delta_rows.max(1) as f64,
        ),
        (
            "core.recursion_magic_work_pct",
            100.0 * magic_work as f64 / naive_work as f64,
        ),
    ]);
    Ok(())
}

// ---- engine cache path, server, metrics ---------------------------------

/// A template with a `?` marker where `template_sql` has its literal,
/// and the value to bind for a department.
fn template_marker(template: usize, dept: u64) -> (String, Value) {
    let literal = if template == 0 || template == 2 {
        Value::Int(dept as i64)
    } else if dept == 0 {
        Value::str("Planning")
    } else {
        Value::str(format!("Dept_{dept}"))
    };
    let needle = match &literal {
        Value::Int(d) => format!("= {d}"),
        other => format!("= {other}"),
    };
    (
        template_sql(template, dept).replacen(&needle, "= ?", 1),
        literal,
    )
}

/// Run `f` on [`CONNECTIONS`] threads at once, each with a span
/// recorder of its own that is folded into `tracer` afterwards; the
/// threads' results come back in order.
fn on_each_connection<T: Send>(
    tracer: &mut Tracer,
    f: impl Fn(&mut Tracer) -> Res<T> + Sync,
) -> Res<Vec<T>> {
    let (on, origin) = (tracer.is_on(), tracer.origin());
    let parts: Vec<(Res<T>, Tracer)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|_| {
                scope.spawn(|| {
                    let mut tracer = Tracer::new(on, origin);
                    (f(&mut tracer), tracer)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a probe thread panicked"))
            .collect()
    });
    let mut out = Vec::new();
    for (part, t) in parts {
        tracer.absorb(t);
        out.push(part?);
    }
    Ok(out)
}

/// What a wire probe sends.
#[derive(Clone, Copy)]
enum Probe {
    Ping,
    /// `QUERY` with the literal in the text.
    Query,
    /// `PREPARE` once, then `EXECUTE` with the literal as an argument.
    Execute,
}

/// The median round trip of each round, in microseconds, and
/// `[hits, busy answers, errors]` over all rounds.
type WireSamples = (Vec<f64>, [u64; 3]);

/// Rounds a probe of the request path splits its requests into. Where the scheduler
/// puts client and session threads decides whether a round trip costs
/// 60 us or 120 us, and the placement sticks for as long as the threads
/// live; each round starts fresh threads and connections, and the probe
/// reports the lower quartile of the rounds' medians, like the wire
/// workloads do with their windows.
const PROBE_ROUNDS: usize = 8;

fn probe_rounds(requests: &[(usize, u64)]) -> std::slice::Chunks<'_, (usize, u64)> {
    requests.chunks(requests.len().div_ceil(PROBE_ROUNDS))
}

fn wire_probe(
    addr: std::net::SocketAddr,
    requests: &[(usize, u64)],
    probe: Probe,
    span: &'static str,
    tracer: &mut Tracer,
) -> Res<WireSamples> {
    let mut out: WireSamples = (Vec::new(), [0; 3]);
    for round in probe_rounds(requests) {
        let (times, tally) = wire_round(addr, round, probe, span, tracer)?;
        out.0.push(median(&times));
        for (sum, n) in out.1.iter_mut().zip(tally) {
            *sum += n;
        }
    }
    Ok(out)
}

/// One round: `probe` over `requests` on [`CONNECTIONS`] connections at
/// once, the regime the wire workloads run in. Returns every round-trip
/// time.
fn wire_round(
    addr: std::net::SocketAddr,
    requests: &[(usize, u64)],
    probe: Probe,
    span: &'static str,
    tracer: &mut Tracer,
) -> Res<WireSamples> {
    let parts = on_each_connection(tracer, |tracer| -> Res<WireSamples> {
        let err = |e: starmagic_common::Error| e.to_string();
        let mut client = Client::connect(addr).map_err(|e| e.to_string())?;
        if matches!(probe, Probe::Execute) {
            for t in 0..TEMPLATES {
                client
                    .prepare(&format!("s{t}"), &template_marker(t, 1).0)
                    .map_err(err)?;
            }
        }
        let mut times = Vec::with_capacity(requests.len());
        let mut tally = [0u64; 3];
        for (i, (t, d)) in requests.iter().enumerate() {
            let start = Instant::now();
            let r = match probe {
                Probe::Ping => client.request("PING"),
                Probe::Query => client.query(&template_sql(*t, *d)),
                Probe::Execute => client.execute(&format!("s{t}"), &[template_marker(*t, *d).1]),
            };
            let elapsed = start.elapsed();
            tracer.add(span, start, elapsed, i as u64, SpanId::NONE);
            times.push(us(elapsed));
            match r {
                Ok(Response::Rows { cache_hit, .. }) => tally[0] += u64::from(cache_hit),
                Ok(Response::Ok { .. }) => {}
                Ok(Response::Busy(_)) => tally[1] += 1,
                _ => tally[2] += 1,
            }
        }
        Ok((times, tally))
    })?;
    let mut out: WireSamples = (Vec::new(), [0; 3]);
    for (times, tally) in parts {
        out.0.extend(times);
        for (sum, n) in out.1.iter_mut().zip(tally) {
            *sum += n;
        }
    }
    Ok(out)
}

/// Home corpus: the `wire_*` templates and request stream.
fn cache_and_server_layers(
    cfg: &RunConfig,
    reps: &Reps,
    tracer: &mut Tracer,
    out: &mut Values,
) -> Res<()> {
    let scale = scale(cfg.small);
    let departments = scale.departments as u64;
    let engine = bench_engine(scale).map_err(|e| e.to_string())?;
    let mut stream = request_stream(cfg.seed, 0);
    let requests: Vec<(usize, u64)> = (0..reps.replay)
        .map(|_| next_request(&mut stream, departments))
        .collect();
    let err = |e: starmagic_common::Error| e.to_string();

    // The cache path in process — miss, hit, bind + execute — as one
    // vector of samples per template each.
    let mut probes: [Vec<Vec<f64>>; 3] = Default::default();
    for t in 0..TEMPLATES {
        let mut samples: [Vec<f64>; 3] = Default::default();
        for i in 0..reps.cache_probe {
            let sql_text = template_sql(t, i as u64 % departments);
            if i < reps.cache_probe / 10 {
                engine.cache_clear();
                let (looked_up, miss) =
                    timed(|| engine.prepare_cached(&sql_text, Strategy::CostBased));
                if looked_up.map_err(err)?.2 {
                    return Err("a lookup after cache_clear hit".to_string());
                }
                samples[0].push(us(miss));
            }
            let (looked_up, hit_time) =
                timed(|| engine.prepare_cached(&sql_text, Strategy::CostBased));
            let (plan, extracted, hit) = looked_up.map_err(err)?;
            if !hit {
                return Err("a warm lookup missed".to_string());
            }
            samples[1].push(us(hit_time));
            let (r, run) = timed(|| engine.execute_cached(&plan, &[], &extracted));
            r.map_err(err)?;
            samples[2].push(us(run));
        }
        for (probe, s) in probes.iter_mut().zip(samples) {
            probe.push(s);
        }
    }

    // The request stream in process, through the function the server
    // calls: on as many threads as the wire probes use connections, in
    // the same rounds and with the same estimator, so that the wire's
    // overhead is a difference of like with like.
    let mut in_process = Vec::new();
    for round in probe_rounds(&requests) {
        let replayed = on_each_connection(tracer, |tracer| {
            let mut times = Vec::with_capacity(round.len());
            for (i, (t, d)) in round.iter().enumerate() {
                let sql_text = template_sql(*t, *d);
                let start = Instant::now();
                let r = engine.query_cached_traced_with(&sql_text, Strategy::CostBased, 1);
                let elapsed = start.elapsed();
                tracer.add(
                    "engine.query_cached",
                    start,
                    elapsed,
                    i as u64,
                    SpanId::NONE,
                );
                r.map_err(|e| e.to_string())?;
                times.push(us(elapsed));
            }
            Ok(times)
        })?;
        in_process.push(median(&replayed.concat()));
    }
    let query_cached_us = lower_quartile(&in_process);

    // The same requests over the wire; a second server with a live
    // registry for the cost of leaving metrics on.
    let noop = serve_engine(engine.clone(), "127.0.0.1:0", ServerConfig::default())
        .map_err(|e| e.to_string())?;
    let metered_engine = bench_engine(scale).map_err(|e| e.to_string())?;
    let metered_cfg = ServerConfig {
        metrics: Registry::enabled(),
        ..ServerConfig::default()
    };
    let metered =
        serve_engine(metered_engine, "127.0.0.1:0", metered_cfg).map_err(|e| e.to_string())?;
    let pings = &requests[..reps.pings.min(requests.len())];
    let (ping_us, _) = wire_probe(noop.addr(), pings, Probe::Ping, "server.ping", tracer)?;
    // Warm the metered server's cache before its timed replay.
    let mut off = Tracer::off();
    wire_round(metered.addr(), pings, Probe::Query, "", &mut off)?;
    let queried = wire_probe(noop.addr(), &requests, Probe::Query, "server.query", tracer)?;
    let (metered_us, _) = wire_probe(metered.addr(), &requests, Probe::Query, "", &mut off)?;
    let executed = wire_probe(
        noop.addr(),
        &requests,
        Probe::Execute,
        "server.execute",
        tracer,
    )?;
    noop.shutdown();
    metered.shutdown();

    // DDL in process, on a copy of the engine: each insert is a catalog
    // clone, an epoch bump and a flush of the cached plans.
    let mut writer = engine.clone();
    let before = writer.cache_stats().invalidations;
    let mut insert_us = Vec::with_capacity(reps.inserts);
    for i in 0..reps.inserts {
        writer
            .query_cached(&template_sql(0, 1), Strategy::CostBased)
            .map_err(err)?;
        let row = format!(
            "INSERT INTO project VALUES ({}, 'Probe', 100000, 1.0)",
            20_000_000 + i
        );
        let (r, elapsed) = timed(|| writer.run_sql(&row));
        r.map_err(err)?;
        insert_us.push(us(elapsed));
    }
    let invalidations = writer.cache_stats().invalidations - before;

    let roundtrip = lower_quartile(&queried.0);
    out.extend([
        ("engine.cache_miss_us", mean_of_medians(&probes[0])),
        ("engine.cache_hit_us", mean_of_medians(&probes[1])),
        ("engine.bind_execute_us", mean_of_medians(&probes[2])),
        ("engine.query_cached_us", query_cached_us),
        (
            "engine.cache_hit_rate",
            queried.1[0] as f64 / (CONNECTIONS * requests.len()) as f64,
        ),
        ("engine.cache_invalidations", invalidations as f64),
        ("engine.ddl_insert_us", median(&insert_us)),
        ("server.ping_roundtrip_us", lower_quartile(&ping_us)),
        ("server.query_roundtrip_us", roundtrip),
        ("server.wire_overhead_us", roundtrip - query_cached_us),
        ("server.execute_prepared_us", lower_quartile(&executed.0)),
        ("server.busy_retries", (queried.1[1] + executed.1[1]) as f64),
        ("server.errors", (queried.1[2] + executed.1[2]) as f64),
        (
            "metrics.registry_overhead_pct",
            100.0 * (lower_quartile(&metered_us) - roundtrip) / roundtrip,
        ),
    ]);
    Ok(())
}
