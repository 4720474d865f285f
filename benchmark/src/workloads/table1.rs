//! `table1_exec`: the paper's Table 1 as prepared plans.
//!
//! The eight experiments are prepared once — the view formulation under
//! CostBased, Magic (EMST) and Original, the correlated formulation
//! under Original: 32 plans — and only `execute_prepared` is timed, so
//! `exec` does all the work and no compile layer does any. The data is
//! the fixed `Scale::benchmark()` database and the queries are the
//! paper's, so results are pinned in `expected.json`; the seed decides
//! the order plans are visited in.

use std::time::Duration;

use starmagic::{Engine, Prepared, Strategy};
use starmagic_bench::{bench_engine, experiments};
use starmagic_catalog::generator::Scale;

use super::{bag_checksum, order_hash, Class, Lane, LoopResult, PreparedSuite, Verdict, Workload};
use crate::spans::Tracer;
use crate::{Res, RunConfig};

/// The formulations of one experiment, in plan order.
pub const FORMULATIONS: [(&str, Lane, Strategy); 4] = [
    ("costbased", Lane::Suite, Strategy::CostBased),
    ("emst", Lane::Fast, Strategy::Magic),
    ("original", Lane::Slow, Strategy::Original),
    ("correlated", Lane::Side, Strategy::Original),
];

/// Visits per cycle. Correlated D re-evaluates its subquery once per
/// employee (about a second at benchmark scale), so it is visited once
/// per cycle and every other plan four times: a cycle takes two
/// seconds, and ten seconds give correlated D five samples and every
/// other plan twenty.
const VISITS: u32 = 4;
const HEAVY: (char, &str) = ('D', "correlated");

pub fn scale(small: bool) -> Scale {
    if small {
        Scale::small()
    } else {
        Scale::benchmark()
    }
}

/// The key of `expected.json`'s section for a scale.
pub fn scale_name(small: bool) -> &'static str {
    if small {
        "small"
    } else {
        "benchmark"
    }
}

pub struct Table1 {
    suite: PreparedSuite,
    small: bool,
}

/// Prepare the 32 plans of the suite on `engine`, in experiment order
/// and, within an experiment, in [`FORMULATIONS`] order.
pub fn prepare_suite(engine: &Engine) -> Res<(Vec<Class>, Vec<Prepared>)> {
    let mut classes = Vec::new();
    let mut plans = Vec::new();
    for exp in experiments() {
        for (form, lane, strategy) in FORMULATIONS {
            let sql = if form == "correlated" {
                exp.correlated_sql
            } else {
                exp.original_sql
            };
            let plan = engine
                .prepare(sql, strategy)
                .map_err(|e| format!("prepare {}/{form}: {e}", exp.id))?;
            classes.push(Class {
                name: format!("{}/{form}", exp.id),
                lane,
                per_cycle: if (exp.id, form) == HEAVY { 1 } else { VISITS },
            });
            plans.push(plan);
        }
    }
    Ok((classes, plans))
}

impl Workload for Table1 {
    const SETUPS: usize = 5;

    fn setup(cfg: &RunConfig) -> Res<Table1> {
        let engine = bench_engine(scale(cfg.small)).map_err(|e| format!("bench_engine: {e}"))?;
        let (classes, plans) = prepare_suite(&engine)?;
        Ok(Table1 {
            suite: PreparedSuite::warm_up(engine, classes, plans, cfg.seed)?,
            small: cfg.small,
        })
    }

    fn stream_hash(&self) -> u64 {
        order_hash(&self.suite.classes, &self.suite.rng)
    }

    fn first_use_ms(&self) -> &[f64] {
        &self.suite.first_use_ms
    }

    fn measure(&mut self, budget: Duration, tracer: &mut Tracer) -> Res<LoopResult> {
        self.suite.measure(budget, tracer)
    }

    fn verify(&mut self) -> Res<Verdict> {
        let mut v = Verdict::default();
        let pinned = crate::expected::table1(scale_name(self.small))?;
        for (e, exp) in experiments().iter().enumerate() {
            let bags: Vec<(usize, u64)> = (0..4)
                .map(|f| {
                    let rows = &self.suite.warm[4 * e + f];
                    (rows.len(), bag_checksum(rows))
                })
                .collect();
            let id = exp.id;
            // CostBased = EMST = Original, as bags.
            v.check(bags[0] == bags[1] && bags[1] == bags[2], || {
                format!("experiment {id}: the three strategies return different bags: {bags:?}")
            });
            v.check(bags[3].0 == bags[2].0, || {
                format!(
                    "experiment {id}: correlated returns {} rows, the view formulation {}",
                    bags[3].0, bags[2].0
                )
            });
            let want = pinned.iter().find(|p| p.0 == id);
            v.check(want.is_some_and(|p| (p.1, p.2) == bags[2]), || {
                format!(
                    "experiment {id}: result {{\"rows\": {}, \"checksum\": \"0x{:016x}\"}} \
                     is not the pinned {want:?}",
                    bags[2].0, bags[2].1
                )
            });
        }
        self.suite.check_cache_untouched(&mut v);
        Ok(v)
    }
}
