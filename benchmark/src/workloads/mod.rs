//! The five workloads and what they share: the closed-loop cycle runner
//! of the three suite workloads and the result types.

pub mod plan_cold;
pub mod recursion;
pub mod table1;
pub mod wire;

use std::time::{Duration, Instant};

use starmagic::exec::{execute_with_options, ExecOptions, IndexCache};

use crate::rng::SplitMix64;
use crate::spans::{SpanId, Tracer};
use crate::stats::{lower_quartile, upper_quartile};
use crate::{Res, RunConfig};

/// One workload: built once per set-up, measured in a closed loop,
/// then checked outside every timer.
pub trait Workload: Sized {
    /// How many times a run sets the workload up (`setup_s` is the
    /// median): more often where set-up is cheap. A constant, so the
    /// allocator sees the same history in every run.
    const SETUPS: usize;

    /// Everything the timed loop needs: data, views, plans, warm
    /// indexes, a running server. Its wall time is `setup_s`.
    fn setup(cfg: &RunConfig) -> Res<Self>;

    /// Hash of the inputs generated from the seed (SQL texts, literals,
    /// edges, visit orders) — equal for equal seeds, different
    /// otherwise.
    fn stream_hash(&self) -> u64;

    /// Run the closed loop for about `budget`.
    fn measure(&mut self, budget: Duration, tracer: &mut Tracer) -> Res<LoopResult>;

    /// Check outputs and the workload's premise. Each check counts as
    /// one attempted operation; a failed one is described in `problems`.
    fn verify(&mut self) -> Res<Verdict>;

    /// What the first use after this set-up costs (an execution with no
    /// index built), as often as set-up measured it, for the workloads
    /// whose `worst_case_ms` is that (see [`LoopResult::worst_case_ms`]).
    fn first_use_ms(&self) -> &[f64] {
        &[]
    }

    /// Stop whatever `setup` started.
    fn teardown(self) {}
}

/// What one timed loop measured.
#[derive(Debug, Clone, Default)]
pub struct LoopResult {
    pub suite_ms: f64,
    pub fast_path_ms: f64,
    pub slow_path_ms: f64,
    pub side_path_ms: f64,
    /// The 99th percentile, where the loop takes a thousand samples or
    /// more of one kind of operation; `None` where the worst case is
    /// the first execution, which set-up measures
    /// ([`Workload::first_use_ms`]).
    pub worst_case_ms: Option<f64>,
    /// Operations completed per second of wall time, in the loop's
    /// better quarter of cycles or windows.
    pub throughput_ops: f64,
    /// Timed operations attempted, and how many of them failed (error,
    /// still `BUSY` after the retry limit, or a wrong result).
    pub ops: u64,
    pub failed: u64,
    pub wall: Duration,
    /// Named values worth printing beside the metrics (per-class
    /// medians, sample counts, hit rates).
    pub detail: Vec<(String, f64, &'static str)>,
}

#[derive(Debug, Clone, Default)]
pub struct Verdict {
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
}

impl Verdict {
    pub fn check(&mut self, ok: bool, problem: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.problems.len() < 20 {
                self.problems.push(problem());
            }
        }
    }
}

/// Which end-to-end sum a class's median goes into.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lane {
    /// What the engine does by default (`Strategy::CostBased`).
    Suite,
    /// The optimised path (`Strategy::Magic`).
    Fast,
    /// The unoptimised path (`Strategy::Original`).
    Slow,
    /// An operation beside those three: another formulation of the
    /// query, another way to bind it.
    Side,
}

/// One distinct operation of a suite workload.
#[derive(Debug, Clone)]
pub struct Class {
    pub name: String,
    pub lane: Lane,
    /// Visits per cycle. The cycle is the unit the loop repeats, so the
    /// operation mix `throughput_ops` is measured on is the same
    /// however long the run is.
    pub per_cycle: u32,
}

/// Samples of a cycle loop: per class, the latency of each visit in
/// microseconds.
#[derive(Debug, Clone)]
pub struct CycleSamples {
    pub per_class_us: Vec<Vec<f64>>,
    /// Wall time of each cycle, in seconds.
    pub cycle_secs: Vec<f64>,
    pub cycles: u64,
    pub ops: u64,
    pub failed: u64,
    pub wall: Duration,
}

impl CycleSamples {
    /// Operations completed per second of a cycle's wall time: the upper
    /// quartile over the cycles (see [`upper_quartile`]).
    pub fn rate(&self) -> f64 {
        let per_cycle = self.ops as f64 / self.cycles as f64;
        let rates: Vec<f64> = self.cycle_secs.iter().map(|s| per_cycle / s).collect();
        upper_quartile(&rates)
    }
}

/// Repeat whole cycles of `classes` in a seeded shuffled order until
/// the budget is spent (it stops at the cycle boundary nearest to the
/// budget, and runs at least one cycle). `op(class)` performs one
/// operation and says whether its output was right; only the call is
/// timed.
pub fn run_cycles(
    classes: &[Class],
    budget: Duration,
    rng: &mut SplitMix64,
    tracer: &mut Tracer,
    span: &'static str,
    mut op: impl FnMut(usize) -> Res<bool>,
) -> Res<CycleSamples> {
    let mut order: Vec<usize> = Vec::new();
    for (i, c) in classes.iter().enumerate() {
        order.extend(std::iter::repeat_n(i, c.per_cycle as usize));
    }
    let mut out = CycleSamples {
        per_class_us: vec![Vec::new(); classes.len()],
        cycle_secs: Vec::new(),
        cycles: 0,
        ops: 0,
        failed: 0,
        wall: Duration::ZERO,
    };
    let start = Instant::now();
    loop {
        rng.shuffle(&mut order);
        for &class in &order {
            let t = Instant::now();
            let ok = op(class)?;
            let elapsed = t.elapsed();
            tracer.add(span, t, elapsed, out.ops, SpanId::NONE);
            out.per_class_us[class].push(elapsed.as_secs_f64() * 1e6);
            out.ops += 1;
            out.failed += u64::from(!ok);
        }
        out.cycles += 1;
        let wall = start.elapsed();
        out.cycle_secs.push((wall - out.wall).as_secs_f64());
        out.wall = wall;
        if out.cycles == 1 {
            // Room for the whole run's samples, so that the vectors grow
            // by the page and peak memory does not jump with the number
            // of cycles a run happens to fit.
            let cycles = (1.25 * budget.as_secs_f64() / out.wall.as_secs_f64()) as usize;
            for (class, samples) in classes.iter().zip(&mut out.per_class_us) {
                samples.reserve(cycles * class.per_cycle as usize);
            }
        }
        let per_cycle = out.wall / u32::try_from(out.cycles).unwrap_or(u32::MAX);
        if out.wall + per_cycle / 2 >= budget {
            return Ok(out);
        }
    }
}

/// Sum over the classes of `lane` of each class's lower-quartile latency
/// (see [`lower_quartile`]), in milliseconds.
pub fn lane_ms(classes: &[Class], samples: &CycleSamples, lane: Lane) -> f64 {
    classes
        .iter()
        .zip(&samples.per_class_us)
        .filter(|(c, _)| c.lane == lane)
        .map(|(_, s)| lower_quartile(s) / 1e3)
        .sum()
}

/// Executions without indexes of each default plan per set-up.
pub const FIRST_USE_REPS: usize = 3;

/// Prepared plans executed in cycles: what `table1_exec` and
/// `recursion_fixpoint` time. Plans are prepared and executed once
/// (building the indexes — DB2's pre-exist) before anything is timed;
/// only `Engine::execute_prepared` is inside the timer.
pub struct PreparedSuite {
    pub engine: starmagic::Engine,
    pub classes: Vec<Class>,
    pub plans: Vec<starmagic::Prepared>,
    /// The rows each plan returned in the warm-up execution.
    pub warm: Vec<Vec<starmagic_common::Row>>,
    /// What an execution of the default (`Lane::Suite`) plans with no
    /// index built takes, summed: what the first read of each query pays
    /// on a fresh engine, or after a DDL has dropped the index cache.
    /// One sum per repetition.
    pub first_use_ms: [f64; FIRST_USE_REPS],
    pub rng: SplitMix64,
}

impl PreparedSuite {
    pub fn warm_up(
        engine: starmagic::Engine,
        classes: Vec<Class>,
        plans: Vec<starmagic::Prepared>,
        seed: u64,
    ) -> Res<PreparedSuite> {
        let mut warm = Vec::with_capacity(plans.len());
        let mut first_use_ms = [0.0; FIRST_USE_REPS];
        for (class, plan) in classes.iter().zip(&plans) {
            for sum in first_use_ms
                .iter_mut()
                .filter(|_| class.lane == Lane::Suite)
            {
                let start = Instant::now();
                let cold = execute_with_options(
                    &plan.qgm,
                    engine.catalog(),
                    &IndexCache::default(),
                    ExecOptions::default(),
                );
                *sum += start.elapsed().as_secs_f64() * 1e3;
                cold.map_err(|e| format!("first execution {}: {e}", class.name))?;
            }
            let r = engine
                .execute_prepared(plan)
                .map_err(|e| format!("warm-up {}: {e}", class.name))?;
            warm.push(r.rows);
        }
        Ok(PreparedSuite {
            engine,
            classes,
            plans,
            warm,
            first_use_ms,
            rng: SplitMix64::stream(seed, 1),
        })
    }

    /// The timed loop: the four lanes' sums, the measured rate, and
    /// every class's time as a detail line. An execution is right when it
    /// returns as many rows as the (fully checked) warm-up execution.
    pub fn measure(&mut self, budget: Duration, tracer: &mut Tracer) -> Res<LoopResult> {
        let (engine, plans, warm) = (&self.engine, &self.plans, &self.warm);
        let samples = run_cycles(
            &self.classes,
            budget,
            &mut self.rng,
            tracer,
            "exec.execute_prepared",
            |class| {
                let r = engine
                    .execute_prepared(&plans[class])
                    .map_err(|e| format!("execute: {e}"))?;
                Ok(std::hint::black_box(r).rows.len() == warm[class].len())
            },
        )?;
        let mut detail = vec![("cycles".to_string(), samples.cycles as f64, "count")];
        for (class, s) in self.classes.iter().zip(&samples.per_class_us) {
            detail.push((format!("{}_ms", class.name), lower_quartile(s) / 1e3, "ms"));
        }
        Ok(LoopResult {
            suite_ms: lane_ms(&self.classes, &samples, Lane::Suite),
            fast_path_ms: lane_ms(&self.classes, &samples, Lane::Fast),
            slow_path_ms: lane_ms(&self.classes, &samples, Lane::Slow),
            side_path_ms: lane_ms(&self.classes, &samples, Lane::Side),
            worst_case_ms: None,
            throughput_ops: samples.rate(),
            ops: samples.ops,
            failed: samples.failed,
            wall: samples.wall,
            detail,
        })
    }

    /// The premise of a prepared suite: plans were prepared outside the
    /// timer and the plan cache played no part.
    pub fn check_cache_untouched(&self, v: &mut Verdict) {
        let cache = self.engine.cache_stats();
        v.check(cache.hits + cache.misses == 0, || {
            format!("a prepared suite touched the plan cache: {cache:?}")
        });
    }
}

/// The visit order of the first cycles folded into a hash: the part of
/// a suite workload's input stream that the seed alone decides.
pub fn order_hash(classes: &[Class], rng: &SplitMix64) -> u64 {
    let mut rng = rng.clone();
    let mut order: Vec<usize> = (0..classes.len()).collect();
    let mut h = crate::rng::FNV_OFFSET;
    for _ in 0..4 {
        rng.shuffle(&mut order);
        for i in &order {
            h = crate::rng::fnv1a(h, classes[*i].name.as_bytes());
        }
    }
    h
}

/// Order-independent checksum of a result bag: the wrapping sum of each
/// row's FNV-1a hash over its display form.
pub fn bag_checksum<'a>(rows: impl IntoIterator<Item = &'a starmagic_common::Row>) -> u64 {
    rows.into_iter().fold(0u64, |acc, row| {
        acc.wrapping_add(crate::rng::fnv1a(
            crate::rng::FNV_OFFSET,
            row.to_string().as_bytes(),
        ))
    })
}
