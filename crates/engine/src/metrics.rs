//! Engine-side metrics: pre-registered instrument handles for the
//! query hot paths, plus the JSON/text reports behind the
//! `METRICS [JSON]` command.
//!
//! Naming convention (dotted, lowercase, `_us` suffix for
//! microsecond histograms):
//!
//! * `engine.queries` — bound plan executions
//! * `engine.lower_us` — lowering a prepared plan for execution, paid
//!   once per plan by its first execution (a cache miss's, on the
//!   cached path)
//! * `engine.ddl_us` — latency of a published catalog change (`CREATE
//!   VIEW`, `CREATE TABLE`, `INSERT`): parse, the copy of the written
//!   table, validation, the append, the epoch bump
//! * `engine.plan_check_errors` — error-severity lint and analysis
//!   findings on freshly optimized plans (`prepare`, a plan-cache
//!   miss), the `phase 2:` scan of the pre-cleanup graph included.
//!   Every miss runs both checks whatever the `CheckLevel`; a nonzero
//!   value means an unsound plan was prepared and, on the cached path,
//!   cached and served
//! * `cache.hit.<strategy>` / `cache.miss.<strategy>` — plan-cache
//!   lookups split by strategy token (`cost`, `original`, `magic`)
//! * `exec.rows_scanned` / `exec.rows_produced` / `exec.box_evals` —
//!   the executor's flat work counters
//! * `exec.index.builds` — base-table row-id indexes an execution
//!   had to build because the index cache held none for the table's
//!   current contents (a scan builds nothing: it borrows the stored
//!   columns): nonzero
//!   on a cold engine and after a write to a table the query reads
//!   (registered by the executor)
//! * `exec.batch.batches` / `exec.batch.gather_rows` /
//!   `exec.batch.rows` / `exec.batch.selectivity_pct` — select
//!   executor telemetry: stage dispatches in 256-row units, rows
//!   gathered during late materialization, per-stage input rows, and
//!   filter selectivity (also registered by the executor; kept out of
//!   the deterministic `ExecProfile` on purpose — they describe how the
//!   executor touched the rows, the profile which rows it touched)
//! * `planner.misestimate.<bucket>` — cardinality feedback buckets
//!   (`within2x` … `beyond100x`)
//! * `phase.<span>_us` — request-span latencies (`phase.parse_us`,
//!   `phase.execute_us`, `phase.rewrite.phase2_us`, …)
//! * `rewrite.fires.<rule>` — per-rule fire counts on plan-cache
//!   misses, whichever entry point missed
//!
//! All handles come from one [`Registry`]; when it is noop (the
//! default) every field is a storage-free handle and the engine's
//! instrumentation reduces to branches on `None` — the same
//! guarantee `TraceSink` gives for spans.

use std::collections::BTreeMap;
use std::str::FromStr;

use starmagic_common::Error;
use starmagic_metrics::{Counter, GaugeSnapshot, Histogram, HistogramSnapshot, Registry, Snapshot};
use starmagic_planner::feedback::MisestimateBucket;
use starmagic_trace::json::Value;

use crate::cache::CacheStats;
use crate::Strategy;

/// Stable lowercase token for a strategy, matching the loadgen's
/// wire names (`SET STRATEGY cost|original|magic`).
pub fn strategy_token(strategy: Strategy) -> &'static str {
    match strategy {
        Strategy::CostBased => "cost",
        Strategy::Original => "original",
        Strategy::Magic => "magic",
    }
}

/// The inverse of [`strategy_token`], which also reads `costbased` and
/// `cost-based` as [`Strategy::CostBased`].
impl FromStr for Strategy {
    type Err = Error;

    fn from_str(s: &str) -> Result<Strategy, Error> {
        match s {
            "cost" | "costbased" | "cost-based" => Ok(Strategy::CostBased),
            "original" => Ok(Strategy::Original),
            "magic" => Ok(Strategy::Magic),
            other => Err(Error::unsupported(format!("unknown strategy {other}"))),
        }
    }
}

fn strategy_ix(strategy: Strategy) -> usize {
    match strategy {
        Strategy::CostBased => 0,
        Strategy::Original => 1,
        Strategy::Magic => 2,
    }
}

const STRATEGY_TOKENS: [&str; 3] = ["cost", "original", "magic"];

/// Metric-name-safe token for a misestimation bucket.
pub fn bucket_token(bucket: MisestimateBucket) -> &'static str {
    match bucket {
        MisestimateBucket::Within2x => "within2x",
        MisestimateBucket::Within10x => "within10x",
        MisestimateBucket::Within100x => "within100x",
        MisestimateBucket::Beyond100x => "beyond100x",
    }
}

const BUCKET_ORDER: [MisestimateBucket; 4] = [
    MisestimateBucket::Within2x,
    MisestimateBucket::Within10x,
    MisestimateBucket::Within100x,
    MisestimateBucket::Beyond100x,
];

/// Pre-registered handles for the engine's hot paths. Cloning shares
/// the underlying instruments; the default is fully noop.
#[derive(Debug, Clone, Default)]
pub struct EngineMetrics {
    pub registry: Registry,
    /// `engine.queries`: bound plan executions.
    pub queries: Counter,
    /// `engine.lower_us`: lowering a plan, once per plan.
    pub lower_us: Histogram,
    /// `engine.ddl_us`: a published `CREATE VIEW` / `CREATE TABLE` /
    /// `INSERT`, parse to epoch bump.
    pub ddl_us: Histogram,
    /// `engine.plan_check_errors`: error findings on fresh plans.
    pub plan_check_errors: Counter,
    /// `cache.hit.<strategy>` by [`strategy_ix`].
    pub cache_hit: [Counter; 3],
    /// `cache.miss.<strategy>` by [`strategy_ix`].
    pub cache_miss: [Counter; 3],
    /// `exec.rows_scanned`.
    pub rows_scanned: Counter,
    /// `exec.rows_produced`.
    pub rows_produced: Counter,
    /// `exec.box_evals`.
    pub box_evals: Counter,
    /// `planner.misestimate.<bucket>` in [`BUCKET_ORDER`].
    pub misestimate: [Counter; 4],
}

impl EngineMetrics {
    pub fn new(registry: Registry) -> EngineMetrics {
        if registry.is_noop() {
            return EngineMetrics::default();
        }
        EngineMetrics {
            queries: registry.counter("engine.queries"),
            lower_us: registry.histogram("engine.lower_us"),
            ddl_us: registry.histogram("engine.ddl_us"),
            plan_check_errors: registry.counter("engine.plan_check_errors"),
            cache_hit: std::array::from_fn(|i| {
                registry.counter(&format!("cache.hit.{}", STRATEGY_TOKENS[i]))
            }),
            cache_miss: std::array::from_fn(|i| {
                registry.counter(&format!("cache.miss.{}", STRATEGY_TOKENS[i]))
            }),
            rows_scanned: registry.counter("exec.rows_scanned"),
            rows_produced: registry.counter("exec.rows_produced"),
            box_evals: registry.counter("exec.box_evals"),
            misestimate: std::array::from_fn(|i| {
                registry.counter(&format!(
                    "planner.misestimate.{}",
                    bucket_token(BUCKET_ORDER[i])
                ))
            }),
            registry,
        }
    }

    pub fn is_noop(&self) -> bool {
        self.registry.is_noop()
    }

    /// Count a plan-cache lookup for a strategy.
    pub fn note_cache_lookup(&self, strategy: Strategy, hit: bool) {
        let i = strategy_ix(strategy);
        if hit {
            self.cache_hit[i].inc();
        } else {
            self.cache_miss[i].inc();
        }
    }

    /// Count one misestimation-bucket observation.
    pub fn note_misestimate(&self, bucket: MisestimateBucket) {
        self.misestimate[BUCKET_ORDER.iter().position(|b| *b == bucket).unwrap_or(0)].inc();
    }
}

// ---------------------------------------------------------------------------
// Reports
// ---------------------------------------------------------------------------

#[allow(clippy::cast_precision_loss)]
fn num(n: u64) -> Value {
    Value::Num(n as f64)
}

fn gauge_json(g: GaugeSnapshot) -> Value {
    Value::Obj(vec![
        ("value".to_string(), num(g.value)),
        ("peak".to_string(), num(g.peak)),
    ])
}

fn histogram_json(h: &HistogramSnapshot) -> Value {
    let buckets = Value::Arr(h.buckets.iter().map(|&b| num(b)).collect());
    Value::Obj(vec![
        ("count".to_string(), num(h.count())),
        ("sum".to_string(), num(h.sum)),
        ("mean".to_string(), num(h.mean())),
        ("max".to_string(), num(h.max)),
        ("p50_us".to_string(), num(h.percentile_us(50).unwrap_or(0))),
        ("p95_us".to_string(), num(h.percentile_us(95).unwrap_or(0))),
        ("p99_us".to_string(), num(h.percentile_us(99).unwrap_or(0))),
        ("buckets".to_string(), buckets),
    ])
}

fn cache_stats_json(s: CacheStats) -> Value {
    Value::Obj(vec![
        ("hits".to_string(), num(s.hits)),
        ("misses".to_string(), num(s.misses)),
        ("evictions".to_string(), num(s.evictions)),
        ("invalidations".to_string(), num(s.invalidations)),
        ("hit_rate".to_string(), Value::Num(s.hit_rate())),
    ])
}

/// Schema version of the `METRICS JSON` document.
pub const METRICS_SCHEMA_VERSION: u64 = 1;

/// Assemble the full metrics document: the registry snapshot plus the
/// plan-cache counters (global and per strategy). The document always
/// parses back through `starmagic_trace::json::parse`; when the
/// registry is noop, `enabled` is `false` and the instrument sections
/// are empty.
pub fn report_json(
    snapshot: &Snapshot,
    enabled: bool,
    cache_total: CacheStats,
    cache_by_strategy: &BTreeMap<String, CacheStats>,
    cache_entries: usize,
) -> Value {
    let counters = Value::Obj(
        snapshot
            .counters
            .iter()
            .map(|(k, &v)| (k.clone(), num(v)))
            .collect(),
    );
    let gauges = Value::Obj(
        snapshot
            .gauges
            .iter()
            .map(|(k, &g)| (k.clone(), gauge_json(g)))
            .collect(),
    );
    let histograms = Value::Obj(
        snapshot
            .histograms
            .iter()
            .map(|(k, h)| (k.clone(), histogram_json(h)))
            .collect(),
    );
    let by_strategy = Value::Obj(
        cache_by_strategy
            .iter()
            .map(|(k, &s)| (k.clone(), cache_stats_json(s)))
            .collect(),
    );
    let plan_cache = Value::Obj(vec![
        ("entries".to_string(), num(cache_entries as u64)),
        ("total".to_string(), cache_stats_json(cache_total)),
        ("by_strategy".to_string(), by_strategy),
    ]);
    Value::Obj(vec![
        ("schema_version".to_string(), num(METRICS_SCHEMA_VERSION)),
        ("enabled".to_string(), Value::Bool(enabled)),
        ("counters".to_string(), counters),
        ("gauges".to_string(), gauges),
        ("histograms".to_string(), histograms),
        ("plan_cache".to_string(), plan_cache),
    ])
}

/// Human-readable companion of [`report_json`] (`METRICS`).
pub fn report_text(
    snapshot: &Snapshot,
    cache_total: CacheStats,
    cache_by_strategy: &BTreeMap<String, CacheStats>,
    cache_entries: usize,
) -> String {
    let mut out = snapshot.render_text();
    out.push_str(&crate::explain::render_cache_by_strategy(
        cache_total,
        cache_by_strategy,
        cache_entries,
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokens_are_stable() {
        assert_eq!(strategy_token(Strategy::CostBased), "cost");
        assert_eq!(strategy_token(Strategy::Original), "original");
        assert_eq!(strategy_token(Strategy::Magic), "magic");
        for strategy in [Strategy::CostBased, Strategy::Original, Strategy::Magic] {
            assert_eq!(strategy_token(strategy).parse(), Ok(strategy));
        }
        assert_eq!("cost-based".parse(), Ok(Strategy::CostBased));
        assert_eq!(
            "fast".parse::<Strategy>(),
            Err(Error::unsupported("unknown strategy fast"))
        );
        assert_eq!(bucket_token(MisestimateBucket::Within2x), "within2x");
        assert_eq!(bucket_token(MisestimateBucket::Beyond100x), "beyond100x");
    }

    #[test]
    fn report_round_trips_through_strict_parser() {
        let reg = Registry::enabled();
        reg.counter("engine.queries").add(3);
        reg.gauge("server.sessions_active").set(2);
        reg.histogram("phase.execute_us").record(123);
        let mut by = BTreeMap::new();
        by.insert(
            "Magic".to_string(),
            CacheStats {
                hits: 1,
                misses: 2,
                evictions: 0,
                invalidations: 0,
            },
        );
        let doc = report_json(&reg.snapshot(), true, CacheStats::default(), &by, 1);
        let text = doc.to_string();
        let parsed = starmagic_trace::json::parse(&text).expect("strict parse");
        assert_eq!(parsed.to_string(), text, "writer/parser fixpoint");
        assert!(parsed.get("plan_cache").is_some());
        assert!(parsed
            .get("counters")
            .and_then(|c| c.get("engine.queries"))
            .is_some());
    }

    #[test]
    fn noop_metrics_vend_noop_handles() {
        let m = EngineMetrics::new(Registry::noop());
        assert!(m.is_noop());
        assert!(m.queries.is_noop());
        m.note_cache_lookup(Strategy::Magic, true);
        m.note_misestimate(MisestimateBucket::Beyond100x);
        assert!(m.registry.snapshot().is_empty());
    }
}
