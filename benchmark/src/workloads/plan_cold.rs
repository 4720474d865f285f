//! `plan_cold`: `Engine::prepare(sql, CostBased)` with no cache and no
//! execution — parse, QGM build, rewrite phase 1, plan 1, EMST, phase 3,
//! plan 2, lint, analysis — over a 219-query corpus on the fuzz
//! database: the 16 Table-1 formulations, 3 recursive closures and 200
//! queries from the differential fuzzer's grammar. This is what a
//! plan-cache miss costs.
//!
//! The corpus is the same for every seed (the fuzzer's generator seed is
//! the constant below): corpora drawn from different seeds differ by
//! ±8 % in total compile cost, which would drown a 10 % bound. The seed
//! decides the order each pass visits the corpus in.

use std::time::Duration;

use starmagic::{Engine, Strategy};
use starmagic_bench::{experiments, fuzz_engine};

use super::{order_hash, run_cycles, Class, Lane, LoopResult, Verdict, Workload};
use crate::rng::{fnv1a, SplitMix64};
use crate::spans::Tracer;
use crate::staged::{fidelity, staged_prepare};
use crate::stats::{lower_quartile, percentile_sorted};
use crate::{Res, RunConfig};

/// Generator seed of the fuzz part of the corpus.
pub const FUZZ_CORPUS_SEED: u64 = 11;

/// Closures over the fuzz database's small `edge` graph: source bound,
/// source bound inside the cycle, and destination bound (grown magic).
const RECURSIVE: [&str; 3] = [
    "WITH RECURSIVE tc (src, dst) AS (SELECT src, dst FROM edge UNION \
     SELECT tc.src, e.dst FROM tc, edge e WHERE e.src = tc.dst) \
     SELECT src, dst FROM tc WHERE src = 0",
    "WITH RECURSIVE tc (src, dst) AS (SELECT src, dst FROM edge UNION \
     SELECT tc.src, e.dst FROM tc, edge e WHERE e.src = tc.dst) \
     SELECT src, dst FROM tc WHERE src = 8",
    "WITH RECURSIVE tc (src, dst) AS (SELECT src, dst FROM edge UNION \
     SELECT tc.src, e.dst FROM tc, edge e WHERE e.src = tc.dst) \
     SELECT src, dst FROM tc WHERE dst = 4",
];

/// Passes per window of the percentiles: 5 x 219 samples.
const WINDOW_PASSES: usize = 5;

/// The corpus starts with the 16 Table-1 formulations, then the 3
/// closures; the generated queries follow.
const TABLE1_QUERIES: usize = 16;
const HAND_WRITTEN: usize = TABLE1_QUERIES + RECURSIVE.len();

/// The corpus: every query prepares without error on `engine` (a
/// generated query that does not is skipped, deterministically).
pub fn corpus(engine: &Engine, small: bool) -> Vec<String> {
    let mut out: Vec<String> = Vec::new();
    for exp in experiments() {
        out.push(exp.original_sql.to_string());
        out.push(exp.correlated_sql.to_string());
    }
    out.extend(RECURSIVE.iter().map(ToString::to_string));
    let fuzz = if small { 30 } else { 200 };
    let mut case = 0;
    while out.len() < HAND_WRITTEN + fuzz {
        let sql = starmagic::sql::query_sql(&starmagic_fuzz::gen::generate(FUZZ_CORPUS_SEED, case));
        case += 1;
        if engine.prepare(&sql, Strategy::CostBased).is_ok() {
            out.push(sql);
        }
    }
    out
}

pub struct PlanCold {
    engine: Engine,
    corpus: Vec<String>,
    classes: Vec<Class>,
    rng: SplitMix64,
}

impl Workload for PlanCold {
    const SETUPS: usize = 9;

    fn setup(cfg: &RunConfig) -> Res<PlanCold> {
        let engine = fuzz_engine().map_err(|e| format!("fuzz_engine: {e}"))?;
        // Building the corpus prepares every query once: the warm-up.
        let corpus = corpus(&engine, cfg.small);
        let classes = (0..corpus.len())
            .map(|i| Class {
                name: format!("q{i}"),
                lane: Lane::Suite,
                per_cycle: 1,
            })
            .collect();
        Ok(PlanCold {
            engine,
            corpus,
            classes,
            rng: SplitMix64::stream(cfg.seed, 1),
        })
    }

    fn stream_hash(&self) -> u64 {
        self.corpus
            .iter()
            .fold(order_hash(&self.classes, &self.rng), |h, sql| {
                fnv1a(h, sql.as_bytes())
            })
    }

    fn measure(&mut self, budget: Duration, tracer: &mut Tracer) -> Res<LoopResult> {
        let (engine, corpus) = (&self.engine, &self.corpus);
        let samples = run_cycles(
            &self.classes,
            budget,
            &mut self.rng,
            tracer,
            "engine.prepare",
            |class| {
                let plan = engine.prepare(&corpus[class], Strategy::CostBased);
                Ok(std::hint::black_box(plan).is_ok())
            },
        )?;
        // One lower-quartile prepare time per query, summed over the
        // corpus and over its two hand-written parts. The median and
        // the 99th percentile are taken over every prepare of a window
        // of passes (a thousand samples or more), then the lower
        // quartile over the windows, as the wire workloads do.
        let per_query: Vec<f64> = samples
            .per_class_us
            .iter()
            .map(|s| lower_quartile(s))
            .collect();
        let part_ms =
            |queries: std::ops::Range<usize>| per_query[queries].iter().sum::<f64>() / 1e3;
        let passes = samples.cycles as usize;
        let windows = (passes / WINDOW_PASSES).max(1);
        let (mut p50, mut p99) = (Vec::new(), Vec::new());
        for w in 0..windows {
            let end = if w + 1 == windows {
                passes
            } else {
                (w + 1) * WINDOW_PASSES
            };
            let mut pooled: Vec<f64> = samples
                .per_class_us
                .iter()
                .flat_map(|s| s[w * WINDOW_PASSES..end].iter().copied())
                .collect();
            pooled.sort_by(f64::total_cmp);
            p50.push(percentile_sorted(&pooled, 50.0));
            p99.push(percentile_sorted(&pooled, 99.0));
        }
        Ok(LoopResult {
            suite_ms: part_ms(0..per_query.len()),
            fast_path_ms: lower_quartile(&p50) / 1e3,
            slow_path_ms: part_ms(0..TABLE1_QUERIES),
            side_path_ms: part_ms(TABLE1_QUERIES..HAND_WRITTEN),
            worst_case_ms: Some(lower_quartile(&p99) / 1e3),
            throughput_ops: samples.rate(),
            ops: samples.ops,
            failed: samples.failed,
            wall: samples.wall,
            detail: vec![
                ("passes".to_string(), samples.cycles as f64, "count"),
                ("corpus_queries".to_string(), corpus.len() as f64, "count"),
                ("prepare_samples".to_string(), samples.ops as f64, "count"),
                ("percentile_windows".to_string(), windows as f64, "count"),
            ],
        })
    }

    fn verify(&mut self) -> Res<Verdict> {
        let mut v = Verdict::default();
        // Every plan: lint- and analysis-clean, and the staged replica
        // of the pipeline agrees with the engine on it.
        let mut off = Tracer::off();
        for (i, sql) in self.corpus.iter().enumerate() {
            let outcome =
                staged_prepare(&self.engine, sql, Strategy::CostBased, &mut off, i as u64)
                    .and_then(|staged| fidelity(&self.engine, sql, Strategy::CostBased, &staged));
            v.check(outcome.is_ok(), || outcome.clone().unwrap_err());
        }
        // The premise: nothing went through the plan cache.
        let cache = self.engine.cache_stats();
        v.check(
            cache.hits + cache.misses == 0 && self.engine.cache_len() == 0,
            || format!("plan_cold touched the plan cache: {cache:?}"),
        );
        Ok(v)
    }
}
