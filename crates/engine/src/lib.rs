//! starmagic — a Starburst-style extensible relational query engine
//! with the Extended Magic-Sets Transformation (EMST), reproducing
//! Mumick & Pirahesh, *Implementation of Magic-sets in a Relational
//! Database System*, SIGMOD 1994.
//!
//! ```
//! use starmagic::Engine;
//! use starmagic_catalog::generator::{benchmark_catalog, Scale};
//!
//! let catalog = benchmark_catalog(Scale::small()).unwrap();
//! let mut engine = Engine::new(catalog);
//! engine
//!     .run_sql(
//!         "CREATE VIEW deptavg (workdept, avgsal) AS \
//!          SELECT workdept, AVG(salary) FROM employee GROUP BY workdept",
//!     )
//!     .unwrap();
//! let result = engine
//!     .query("SELECT avgsal FROM deptavg WHERE workdept = 3")
//!     .unwrap();
//! assert_eq!(result.rows.len(), 1);
//! ```
//!
//! The engine optimizes with the paper's two-pass cost heuristic:
//! rewrite without EMST, plan, rewrite with EMST using the planned
//! join orders, replan, and execute the cheaper plan — so magic can
//! never degrade a query. [`Strategy`] lets benchmarks pin either
//! side.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod cache;
pub mod explain;
pub mod metrics;
pub mod pipeline;

use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use pipeline::{compile, Compiled};
use starmagic_catalog::{Catalog, ViewDef};
use starmagic_common::{Error, Result, Row, Value};
use starmagic_exec::{ExecOptions, ExecProfile, Metrics, Plan};
use starmagic_qgm::{BoxId, Qgm};
use starmagic_rewrite::OpRegistry;
use starmagic_sql::{parse_statement, Statement};
use starmagic_trace::TraceSink;

pub use cache::{CacheStats, CachedPlan, PlanCache, DEFAULT_PLAN_CACHE_CAP};
pub use metrics::{strategy_token, EngineMetrics, METRICS_SCHEMA_VERSION};
pub use pipeline::{optimize, Optimized, PipelineOptions};
pub use starmagic_metrics::Registry as MetricsRegistry;

// Re-export the building blocks so downstream users need only this
// crate.
pub use starmagic_analysis as analysis;
pub use starmagic_catalog as catalog;
pub use starmagic_common as common;
pub use starmagic_exec as exec;
pub use starmagic_lint as lint;
pub use starmagic_magic as magic;
pub use starmagic_planner as planner;
pub use starmagic_qgm as qgm;
pub use starmagic_rewrite as rewrite;
pub use starmagic_sql as sql;
pub use starmagic_trace as trace;

/// How to optimize a query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Strategy {
    /// The paper's heuristic: plan both with and without EMST, run the
    /// cheaper (§3.2). The default.
    #[default]
    CostBased,
    /// Never apply EMST (phase 1 rewrite + plan only) — the "Original"
    /// column of Table 1.
    Original,
    /// Always apply EMST, even when the cost model prefers not to —
    /// the "EMST" column of Table 1.
    Magic,
}

/// A query result: rows plus everything EXPLAIN-worthy.
#[derive(Debug, Clone)]
pub struct QueryResult {
    pub rows: Vec<Row>,
    /// Output column names.
    pub columns: Vec<String>,
    /// Deterministic work counters from the executor.
    pub metrics: Metrics,
    /// Whether the executed plan was the magic-transformed one.
    pub used_magic: bool,
    /// Estimated costs of both alternatives.
    pub cost_without_magic: f64,
    pub cost_with_magic: f64,
}

/// A fully instrumented query run: the rows plus every layer's
/// observability output — pipeline spans ([`Optimized::trace`]),
/// per-rule rewrite stats, and the executor's per-box profile.
#[derive(Debug, Clone)]
pub struct ProfiledQuery {
    pub result: QueryResult,
    /// The whole optimization record, spans included.
    pub optimized: Optimized,
    /// Per-box executor counters and timings for the executed plan.
    pub profile: ExecProfile,
}

/// An optimized, executable plan: the chosen query graph, lowered for
/// execution by its first run ([`Prepared::plan`]).
#[derive(Debug, Clone)]
pub struct Prepared {
    /// The chosen graph. Must not change once the plan has run: the
    /// lowered form describes this graph and no other.
    pub qgm: Qgm,
    pub columns: Vec<String>,
    pub used_magic: bool,
    pub cost_without_magic: f64,
    pub cost_with_magic: f64,
    /// `qgm` lowered: built by the first execution, then shared by
    /// every later one — concurrent executions of a cached entry and
    /// clones of this `Prepared` included.
    lowered: OnceLock<Arc<Lowered>>,
}

/// A prepared graph's execution form: the lowered plan, and the
/// planner's per-box row estimates the misestimate feedback compares
/// executions against (computed by the first execution that records
/// metrics; a cached plan's catalog cannot change under it).
#[derive(Debug)]
struct Lowered {
    plan: Plan,
    estimates: OnceLock<BTreeMap<BoxId, f64>>,
}

impl Lowered {
    fn new(qgm: &Qgm) -> Lowered {
        Lowered {
            plan: Plan::lower(qgm),
            estimates: OnceLock::new(),
        }
    }

    fn estimates(&self, qgm: &Qgm, catalog: &Catalog) -> &BTreeMap<BoxId, f64> {
        self.estimates.get_or_init(|| {
            qgm.box_ids()
                .into_iter()
                .map(|b| {
                    (
                        b,
                        starmagic_planner::cost::estimate_box_rows(qgm, catalog, b),
                    )
                })
                .collect()
        })
    }
}

impl Prepared {
    fn new(qgm: Qgm, used_magic: bool, cost_without_magic: f64, cost_with_magic: f64) -> Prepared {
        let columns = qgm
            .boxed(qgm.top())
            .columns
            .iter()
            .map(|c| c.name.clone())
            .collect();
        Prepared {
            qgm,
            columns,
            used_magic,
            cost_without_magic,
            cost_with_magic,
            lowered: OnceLock::new(),
        }
    }

    /// The plan a pipeline run chose, moved in without a copy.
    fn compiled(c: Compiled) -> Prepared {
        Prepared::new(
            c.chosen,
            c.chose_magic,
            c.cost_without_magic,
            c.cost_with_magic,
        )
    }

    /// The lowered plan, lowering `qgm` if no execution has yet.
    pub fn plan(&self) -> &Plan {
        &self.lowered(&EngineMetrics::default()).plan
    }

    /// The lowered form; lowering counts into `engine.lower_us`.
    fn lowered(&self, metrics: &EngineMetrics) -> &Lowered {
        self.lowered.get_or_init(|| {
            let timer = metrics.registry.stopwatch();
            let lowered = Lowered::new(&self.qgm);
            metrics.lower_us.stop(&timer);
            Arc::new(lowered)
        })
    }
}

/// A cached-path query run: the rows plus the request's spans and the
/// cache verdict.
#[derive(Debug, Clone)]
pub struct CachedQuery {
    pub result: QueryResult,
    /// Request spans: `parse`, then — only on a miss — the pipeline's
    /// spans (`build`, `rewrite.*`, `plan.*`, `lint`), then `bind` and
    /// `execute`. A hit records no pipeline spans at all.
    pub trace: TraceSink,
    /// Whether the plan came out of the cache.
    pub hit: bool,
    /// The normalized cache key (`strategy|user params|parameterized
    /// SQL`).
    pub key: String,
}

/// The immutable state a query runs against: catalog (schema + data +
/// statistics), operation registry, and the cross-query index cache.
/// Swapped atomically as one `Arc` on every DDL — a query holds one
/// snapshot for its whole lifetime and can never observe a half-
/// applied catalog change.
///
/// `Clone` is the writer's private copy and costs a few pointer bumps:
/// the catalog shares every table and the view map with the original
/// ([`Catalog`]), and the index cache carries its entries forward
/// ([`starmagic_exec::IndexCache`]). The copy's map is its own, so
/// nothing a reader of the old snapshot builds later shows up in it.
#[derive(Clone)]
pub struct EngineSnapshot {
    catalog: Catalog,
    registry: OpRegistry,
    /// Cross-query index cache (the database's persistent indexes).
    /// Derived data only: each entry is tied to the table version it
    /// was built from and rebuilds lazily when that version is gone.
    indexes: starmagic_exec::IndexCache,
}

impl EngineSnapshot {
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    pub fn registry(&self) -> &OpRegistry {
        &self.registry
    }
}

/// The engine: an immutable snapshot behind an `Arc`, an epoch
/// counter, and the optimizer configuration.
///
/// Cloning an engine is cheap and shares the snapshot, the plan
/// cache, and the metric handles — that is how the server hands every
/// session a lock-free consistent view. DDL (`run_sql` on `&mut
/// self`) mutates a private copy of the snapshot — which copies the
/// one table it writes, nothing else — and, only if the statement
/// succeeded, publishes it and bumps the epoch; clones made before the
/// DDL keep reading the old snapshot at the old epoch, and a rejected
/// statement leaves this engine exactly as it was.
#[derive(Clone)]
pub struct Engine {
    snapshot: Arc<EngineSnapshot>,
    /// Catalog version: bumped by every DDL. Plan-cache entries are
    /// pinned to the epoch that built them.
    epoch: u64,
    /// Shared plan cache over normalized (parameterized) SQL.
    /// Interior mutability (one mutex) so the read-mostly server path
    /// (`&Engine` snapshots) can record hits and insert plans.
    plans: Arc<PlanCache>,
    /// Pre-registered metric handles. Noop (free) unless
    /// [`Engine::set_metrics`] installed a live registry.
    metrics: EngineMetrics,
    /// Semi-naive fixpoint iteration cap injected into every
    /// execution ([`Engine::set_max_recursion`]). Guards divergent
    /// UNION ALL recursion; UNION recursion terminates on its own.
    max_recursion: usize,
}

impl Engine {
    /// Build an engine over a catalog.
    pub fn new(catalog: Catalog) -> Engine {
        Engine::with_registry(catalog, OpRegistry::new())
    }

    /// Build an engine with a customized operation registry (§5
    /// extensibility: new operations register their AMQ/NMQ property
    /// and pushdown knowledge here).
    pub fn with_registry(catalog: Catalog, registry: OpRegistry) -> Engine {
        Engine {
            snapshot: Arc::new(EngineSnapshot {
                catalog,
                registry,
                indexes: starmagic_exec::IndexCache::default(),
            }),
            epoch: 0,
            plans: Arc::new(PlanCache::new(DEFAULT_PLAN_CACHE_CAP)),
            metrics: EngineMetrics::default(),
            max_recursion: 10_000,
        }
    }

    /// The catalog epoch: 0 at construction, +1 per DDL statement.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The immutable state this engine's queries run against.
    pub fn snapshot(&self) -> &Arc<EngineSnapshot> {
        &self.snapshot
    }

    /// Make a successfully mutated copy the current snapshot and
    /// advance the epoch: stale plan cache entries are purged and older
    /// in-flight inserts refused.
    fn publish(&mut self, next: EngineSnapshot) {
        self.snapshot = Arc::new(next);
        self.epoch += 1;
        self.plans.note_epoch(self.epoch);
    }

    /// Set the iteration cap for recursive-query fixpoints (default
    /// 10000). UNION recursion converges on finite data regardless;
    /// the cap turns divergent UNION ALL recursion into an error.
    pub fn set_max_recursion(&mut self, max: usize) {
        self.max_recursion = max.max(1);
    }

    /// The configured recursion iteration cap.
    pub fn max_recursion(&self) -> usize {
        self.max_recursion
    }

    /// Install a metrics registry: every subsequent query records
    /// counters, cache verdicts, phase latencies, and misestimation
    /// buckets into it. The default (noop) registry records nothing
    /// and costs nothing — the same contract as a disabled
    /// [`TraceSink`].
    pub fn set_metrics(&mut self, registry: starmagic_metrics::Registry) {
        self.metrics = EngineMetrics::new(registry);
    }

    /// The registry queries record into (noop unless
    /// [`Engine::set_metrics`] installed one).
    pub fn metrics_registry(&self) -> &starmagic_metrics::Registry {
        &self.metrics.registry
    }

    pub fn catalog(&self) -> &Catalog {
        &self.snapshot.catalog
    }

    pub fn registry(&self) -> &OpRegistry {
        &self.snapshot.registry
    }

    /// Execute a statement: `CREATE VIEW`, `CREATE TABLE` and `INSERT`
    /// change the catalog and answer `None`; a query returns rows
    /// (with the default cost-based strategy).
    ///
    /// A catalog change is applied to a private copy of the snapshot
    /// (`EngineSnapshot::clone`, a few pointer bumps) and published
    /// only if the whole statement succeeded: every `?` below leaves
    /// the engine untouched, so there is nothing to roll back.
    pub fn run_sql(&mut self, sql: &str) -> Result<Option<QueryResult>> {
        let timer = self.metrics.registry.stopwatch();
        let next = match parse_statement(sql)? {
            Statement::Query(_) => return self.query(sql).map(Some),
            Statement::CreateView {
                name,
                columns,
                query,
                recursive,
            } => {
                let mut next = EngineSnapshot::clone(&self.snapshot);
                // The body as parsed here is what every reference to
                // the view expands.
                next.catalog.add_view(ViewDef {
                    name: name.clone(),
                    columns,
                    body: Arc::new(query),
                    recursive,
                })?;
                // Validate the definition by building a graph over it.
                let probe = starmagic_sql::parse_query(&format!("SELECT * FROM {name}"))?;
                starmagic_qgm::build_qgm(&next.catalog, &probe)?;
                next
            }
            Statement::CreateTable { name, columns, key } => {
                let defs = columns
                    .iter()
                    .map(|(n, t)| starmagic_catalog::ColumnDef::new(n, *t))
                    .collect();
                let mut schema = starmagic_catalog::TableSchema::new(&name, defs);
                if !key.is_empty() {
                    let keys: Vec<&str> = key.iter().map(String::as_str).collect();
                    schema = schema.with_key(&keys)?;
                }
                let mut next = EngineSnapshot::clone(&self.snapshot);
                next.catalog
                    .add_table(starmagic_catalog::Table::new(schema))?;
                next
            }
            Statement::Insert { table, rows } => {
                let arity = self.snapshot.catalog.table(&table)?.schema().arity();
                let mut materialized = Vec::with_capacity(rows.len());
                for row in rows {
                    if row.len() != arity {
                        return Err(Error::semantic(format!(
                            "INSERT supplies {} values for {} columns",
                            row.len(),
                            arity
                        )));
                    }
                    let vals = row.iter().map(literal_value).collect::<Result<_>>()?;
                    materialized.push(Row::new(vals));
                }
                let mut next = EngineSnapshot::clone(&self.snapshot);
                // Copies this one table; the append checks types and
                // keys before it changes anything.
                let written = next.catalog.table_mut(&table)?;
                written.insert(materialized)?;
                // Only the written table's indexes are stale. Cached
                // plans all go (the epoch bump in `publish`): they
                // embed statistics-driven choices (join orders,
                // magic-vs-original) costed before this write.
                let name = written.schema().name.clone();
                next.indexes.forget(&name);
                next
            }
        };
        self.publish(next);
        self.metrics.ddl_us.stop(&timer);
        Ok(None)
    }

    /// Run a query with the default cost-based strategy.
    pub fn query(&self, sql: &str) -> Result<QueryResult> {
        self.query_with(sql, Strategy::CostBased)
    }

    /// Run a query with an explicit strategy.
    pub fn query_with(&self, sql: &str, strategy: Strategy) -> Result<QueryResult> {
        let prepared = self.prepare(sql, strategy)?;
        self.execute_prepared(&prepared)
    }

    /// Prepare with explicit pipeline options (ablations, projection
    /// pruning, forcing magic).
    pub fn prepare_with_options(&self, sql: &str, opts: PipelineOptions) -> Result<Prepared> {
        let query = starmagic_sql::parse_query(sql)?;
        let compiled = self.compile(&query, opts)?;
        Ok(Prepared::compiled(compiled))
    }

    /// Optimize a query for execution: the pipeline without its
    /// intermediate graphs ([`compile`]). The chosen plan's lint and
    /// analysis verdicts are not dropped unread: their error-severity
    /// findings count into `engine.plan_check_errors`.
    fn compile(&self, query: &starmagic_sql::Query, opts: PipelineOptions) -> Result<Compiled> {
        let compiled = compile(&self.snapshot.catalog, &self.snapshot.registry, query, opts)?;
        if !self.metrics.is_noop() {
            self.metrics
                .plan_check_errors
                .add(compiled.check_errors() as u64);
        }
        Ok(compiled)
    }

    /// Optimize with explicit pipeline options without executing —
    /// the full [`Optimized`] record, every intermediate graph and the
    /// static analysis included (the fuzzer's analysis oracle consumes
    /// the facts alongside the executable plan, via [`prepared_from`]).
    pub fn optimize_with_options(&self, sql: &str, opts: PipelineOptions) -> Result<Optimized> {
        let query = starmagic_sql::parse_query(sql)?;
        optimize(
            &self.snapshot.catalog,
            &self.snapshot.registry,
            &query,
            opts,
        )
    }

    /// Optimize a query down to an executable plan without running it.
    /// Lets benchmarks time execution separately from optimization
    /// (the paper's Table 1 reports execution elapsed time).
    pub fn prepare(&self, sql: &str, strategy: Strategy) -> Result<Prepared> {
        self.prepare_with_options(sql, strategy_options(strategy))
    }

    /// Execute a prepared plan. Each call evaluates from scratch (the
    /// materialization cache lives per execution); the first also
    /// lowers the plan.
    pub fn execute_prepared(&self, prepared: &Prepared) -> Result<QueryResult> {
        self.run_prepared(prepared, &[])
    }

    /// Run a prepared plan with `params` bound to its `?N` markers.
    fn run_prepared(&self, prepared: &Prepared, params: &[Value]) -> Result<QueryResult> {
        let lowered = prepared.lowered(&self.metrics);
        let (rows, profile) = starmagic_exec::execute_plan(
            &prepared.qgm,
            &lowered.plan,
            params,
            &self.snapshot.catalog,
            &self.snapshot.indexes,
            self.exec_options(false),
        )?;
        self.note_execution(lowered, &prepared.qgm, &profile);
        Ok(QueryResult {
            rows,
            columns: prepared.columns.clone(),
            metrics: profile.aggregate(),
            used_magic: prepared.used_magic,
            cost_without_magic: prepared.cost_without_magic,
            cost_with_magic: prepared.cost_with_magic,
        })
    }

    fn exec_options(&self, timing: bool) -> ExecOptions {
        ExecOptions {
            timing,
            metrics: self.metrics.registry.clone(),
            max_recursion: self.max_recursion,
            ..ExecOptions::default()
        }
    }

    /// Record one plan execution into the registry: the query count,
    /// the executor's flat work counters, and the cardinality-feedback
    /// misestimation buckets (the plan's estimates vs observed rows per
    /// box). Free when metrics are off — no estimate is computed.
    fn note_execution(&self, lowered: &Lowered, qgm: &Qgm, profile: &ExecProfile) {
        if self.metrics.is_noop() {
            return;
        }
        self.metrics.queries.inc();
        let m = profile.aggregate();
        self.metrics.rows_scanned.add(m.rows_scanned);
        self.metrics.rows_produced.add(m.rows_produced);
        self.metrics.box_evals.add(m.box_evals);
        let estimates = lowered.estimates(qgm, &self.snapshot.catalog);
        let actuals: BTreeMap<_, _> = profile
            .boxes
            .iter()
            .filter(|(b, bp)| bp.evals > 0 && estimates.contains_key(b))
            .map(|(b, bp)| (*b, (bp.rows_out, bp.evals)))
            .collect();
        for row in starmagic_planner::feedback::compare_cardinalities(|b| estimates[&b], &actuals) {
            self.metrics.note_misestimate(row.bucket);
        }
    }

    // ---- Plan-cache path -------------------------------------------

    /// The normalized cache key a query would use under a strategy.
    /// The user-marker count is part of the key: `WHERE c = ?` (one
    /// bound parameter) and `WHERE c = 1` (one extracted literal)
    /// normalize to the same SQL but bind differently, so they must
    /// not share a plan entry.
    pub fn cache_key(strategy: Strategy, user_params: usize, normalized_sql: &str) -> String {
        format!("{strategy:?}|{user_params}|{normalized_sql}")
    }

    /// Current cache counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.plans.stats()
    }

    /// Cache counters split by strategy (`CostBased` / `Original` /
    /// `Magic` — the key's strategy component).
    pub fn cache_stats_by_strategy(&self) -> std::collections::BTreeMap<String, CacheStats> {
        self.plans.stats_by_strategy()
    }

    /// Number of plans currently cached.
    pub fn cache_len(&self) -> usize {
        self.plans.len()
    }

    /// Drop every cached plan (`CACHE CLEAR`). Counters are
    /// preserved; this is not counted as an invalidation.
    pub fn cache_clear(&self) {
        self.plans.clear();
    }

    /// Parameterize a query, fetch or build its cached plan, and hand
    /// back the plan plus the literals the normalizer extracted (to be
    /// rebound at execution) and whether the lookup hit.
    ///
    /// The optimizer runs outside the cache lock, so two sessions
    /// missing on the same key may both optimize; the second insert
    /// simply replaces the first — identical by construction.
    pub fn prepare_cached(
        &self,
        sql: &str,
        strategy: Strategy,
    ) -> Result<(Arc<CachedPlan>, Vec<Value>, bool)> {
        let query = starmagic_sql::parse_query(sql)?;
        let p = starmagic_sql::parameterize(&query);
        let key = Engine::cache_key(strategy, p.first_index, &p.key);
        let (plan, hit) = self.lookup_or_compile(&p, key, strategy, None)?;
        Ok((plan, p.args, hit))
    }

    /// The cache entry under `key`, or — on a miss — `p` compiled and
    /// inserted there; and whether the lookup hit. Every miss feeds the
    /// per-rule fire counters, and `sink`, when given, the pipeline's
    /// spans.
    fn lookup_or_compile(
        &self,
        p: &starmagic_sql::Parameterized,
        key: String,
        strategy: Strategy,
        sink: Option<&mut TraceSink>,
    ) -> Result<(Arc<CachedPlan>, bool)> {
        let looked_up = self.plans.get(&key, self.epoch);
        let hit = looked_up.is_some();
        self.metrics.note_cache_lookup(strategy, hit);
        if let Some(plan) = looked_up {
            return Ok((plan, true));
        }
        let compiled = self.compile(&p.query, strategy_options(strategy))?;
        if let Some(sink) = sink {
            sink.extend(&compiled.trace);
        }
        self.note_rewrite_stats(&compiled.stats);
        let plan = CachedPlan {
            key,
            prepared: Prepared::compiled(compiled),
            param_count: p.first_index + p.args.len(),
            user_params: p.first_index,
            epoch: self.epoch,
        };
        Ok((self.plans.insert(plan), false))
    }

    /// Execute a cached plan with `user_args` filling the user-written
    /// `?N` markers and `extracted` the literals the normalizer lifted
    /// (as returned by [`Engine::prepare_cached`]).
    pub fn execute_cached(
        &self,
        plan: &CachedPlan,
        user_args: &[Value],
        extracted: &[Value],
    ) -> Result<QueryResult> {
        let params = self.bind_cached(plan, user_args, extracted)?;
        self.run_prepared(&plan.prepared, &params)
    }

    /// Run a query through the plan cache (parameterize, fetch or
    /// build the plan, rebind, execute). Equivalent in results to
    /// [`Engine::query_with`]; cheaper on repeats.
    pub fn query_cached(&self, sql: &str, strategy: Strategy) -> Result<QueryResult> {
        let (plan, extracted, _) = self.prepare_cached(sql, strategy)?;
        self.execute_cached(&plan, &[], &extracted)
    }

    /// [`Engine::query_cached`] with request spans and the cache
    /// verdict — the engine behind the server's per-request tracing
    /// and the cache-correctness tests.
    pub fn query_cached_traced(&self, sql: &str, strategy: Strategy) -> Result<CachedQuery> {
        let mut sink = TraceSink::enabled();
        let t = sink.start("parse");
        let query = starmagic_sql::parse_query(sql)?;
        sink.finish(t);
        let p = starmagic_sql::parameterize(&query);
        let key = Engine::cache_key(strategy, p.first_index, &p.key);
        let (plan, hit) = self.lookup_or_compile(&p, key.clone(), strategy, Some(&mut sink))?;

        let t = sink.start("bind");
        let params = self.bind_cached(&plan, &[], &p.args)?;
        sink.finish(t);
        let t = sink.start("execute");
        let result = self.run_prepared(&plan.prepared, &params)?;
        sink.finish(t);
        self.note_spans(&sink);
        Ok(CachedQuery {
            result,
            trace: sink,
            hit,
            key,
        })
    }

    /// [`Engine::query_cached_traced`]. The executor is serial and
    /// `_threads` is ignored; the signature stays only because the
    /// benchmark harness still calls it (`benchmark/src/layers.rs`, the
    /// in-process wire replay). Delete it with that call site.
    pub fn query_cached_traced_with(
        &self,
        sql: &str,
        strategy: Strategy,
        _threads: usize,
    ) -> Result<CachedQuery> {
        self.query_cached_traced(sql, strategy)
    }

    /// Feed a request's spans into the per-phase latency histograms
    /// (`phase.<span>_us`). Free when metrics are off.
    fn note_spans(&self, sink: &TraceSink) {
        if self.metrics.is_noop() {
            return;
        }
        for span in sink.spans() {
            self.metrics
                .registry
                .histogram(&format!("phase.{}_us", span.name))
                .record_duration(span.elapsed);
        }
    }

    /// Feed a cache miss's per-phase rewrite stats into the per-rule
    /// fire counters (`rewrite.fires.<rule>`). Free when metrics are
    /// off.
    fn note_rewrite_stats(&self, stats: &[starmagic_rewrite::RewriteStats; 3]) {
        if self.metrics.is_noop() {
            return;
        }
        for phase in stats {
            for (rule, fires) in &phase.fires {
                self.metrics
                    .registry
                    .counter(&format!("rewrite.fires.{rule}"))
                    .add(*fires as u64);
            }
        }
    }

    /// Check arities and NULL-freedom, then hand back the parameter
    /// vector the plan's `?N` slots read: user arguments first, the
    /// extracted literals after. Nothing is copied from the plan.
    fn bind_cached(
        &self,
        plan: &CachedPlan,
        user_args: &[Value],
        extracted: &[Value],
    ) -> Result<Vec<Value>> {
        if user_args.len() != plan.user_params {
            return Err(Error::execution(format!(
                "statement takes {} parameter(s), {} bound",
                plan.user_params,
                user_args.len()
            )));
        }
        if extracted.len() != plan.param_count - plan.user_params {
            return Err(Error::internal(format!(
                "cache entry expects {} extracted literal(s), got {}",
                plan.param_count - plan.user_params,
                extracted.len()
            )));
        }
        // NULL never equals anything; the optimizer treated every
        // parameter as one definite constant (key pinning, magic
        // filters), so hold the line and refuse NULL bindings.
        if let Some(i) = user_args.iter().position(|v| matches!(v, Value::Null)) {
            return Err(Error::execution(format!(
                "cannot bind NULL to parameter ?{} — use IS NULL",
                i + 1
            )));
        }
        let mut all = Vec::with_capacity(plan.param_count);
        all.extend_from_slice(user_args);
        all.extend_from_slice(extracted);
        plan.prepared
            .lowered(&self.metrics)
            .plan
            .check_params(&all)?;
        Ok(all)
    }

    /// Count a session's run of a plan it holds (the server's
    /// `EXECUTE`) as the cache hit the lookup it skips would have been.
    /// `false` — nothing counted — when the plan was not built at this
    /// engine's epoch: the caller must resolve it again.
    pub fn reuse_cached(&self, plan: &CachedPlan, strategy: Strategy) -> bool {
        if plan.epoch != self.epoch {
            return false;
        }
        self.plans.note_hit(&plan.key);
        self.metrics.note_cache_lookup(strategy, true);
        true
    }

    /// Optimize without executing (for EXPLAIN and the figure
    /// reproductions).
    pub fn optimize_sql(&self, sql: &str, strategy: Strategy) -> Result<Optimized> {
        let query = starmagic_sql::parse_query(sql)?;
        optimize(
            &self.snapshot.catalog,
            &self.snapshot.registry,
            &query,
            strategy_options(strategy),
        )
    }

    /// Run a query with full instrumentation: pipeline spans (with a
    /// `parse` span prepended and an `execute` span appended), the
    /// per-phase rewrite stats, and the executor's per-box profile
    /// with timings on. This is the engine behind EXPLAIN ANALYZE.
    pub fn query_profiled(&self, sql: &str, strategy: Strategy) -> Result<ProfiledQuery> {
        let parse_start = Instant::now();
        let query = starmagic_sql::parse_query(sql)?;
        let parse_elapsed = parse_start.elapsed();

        let mut optimized = optimize(
            &self.snapshot.catalog,
            &self.snapshot.registry,
            &query,
            strategy_options(strategy),
        )?;
        optimized.trace.prepend("parse", parse_elapsed);

        let chosen = optimized.chosen();
        let columns: Vec<String> = chosen
            .boxed(chosen.top())
            .columns
            .iter()
            .map(|c| c.name.clone())
            .collect();

        let exec_start = Instant::now();
        let lowered = Lowered::new(chosen);
        let (rows, profile) = starmagic_exec::execute_plan(
            chosen,
            &lowered.plan,
            &[],
            &self.snapshot.catalog,
            &self.snapshot.indexes,
            self.exec_options(true),
        )?;
        optimized.trace.record("execute", exec_start.elapsed());
        self.note_execution(&lowered, optimized.chosen(), &profile);

        let result = QueryResult {
            rows,
            columns,
            metrics: profile.aggregate(),
            used_magic: optimized.chose_magic,
            cost_without_magic: optimized.cost_without_magic,
            cost_with_magic: optimized.cost_with_magic,
        };
        Ok(ProfiledQuery {
            result,
            optimized,
            profile,
        })
    }

    /// Full EXPLAIN text: per-phase graphs, SQL renderings, costs,
    /// and the plan-cache section (counters + this query's normalized
    /// key).
    pub fn explain(&self, sql: &str) -> Result<String> {
        let optimized = self.optimize_sql(sql, Strategy::CostBased)?;
        let mut out = explain::render(&optimized);
        out.push_str(&self.cache_section(sql, Strategy::CostBased)?);
        Ok(out)
    }

    /// EXPLAIN ANALYZE: run the query with full instrumentation and
    /// render the plan sections plus the profile, rewrite trace,
    /// cardinality misestimation report, phase spans, and the
    /// plan-cache section.
    pub fn explain_analyze(&self, sql: &str) -> Result<String> {
        let p = self.query_profiled(sql, Strategy::CostBased)?;
        let mut out = explain::render_analyze(&p, &self.snapshot.catalog);
        out.push_str(&self.cache_section(sql, Strategy::CostBased)?);
        Ok(out)
    }

    /// The `== cache` section for a query: engine counters plus the
    /// normalized key the cached path would use.
    fn cache_section(&self, sql: &str, strategy: Strategy) -> Result<String> {
        let query = starmagic_sql::parse_query(sql)?;
        let p = starmagic_sql::parameterize(&query);
        Ok(explain::render_cache_section(
            self.cache_stats(),
            self.cache_len(),
            &Engine::cache_key(strategy, p.first_index, &p.key),
        ))
    }
}

/// Package an optimization result as an executable [`Prepared`] (a copy
/// of its chosen graph).
pub fn prepared_from(optimized: &Optimized) -> Prepared {
    Prepared::new(
        optimized.chosen().clone(),
        optimized.chose_magic,
        optimized.cost_without_magic,
        optimized.cost_with_magic,
    )
}

/// Pipeline options implementing each [`Strategy`].
fn strategy_options(strategy: Strategy) -> PipelineOptions {
    match strategy {
        Strategy::CostBased => PipelineOptions::default(),
        Strategy::Original => PipelineOptions {
            enable_magic: false,
            force_magic: false,
            ..PipelineOptions::default()
        },
        Strategy::Magic => PipelineOptions {
            force_magic: true,
            ..PipelineOptions::default()
        },
    }
}

/// Evaluate a literal INSERT expression (literals and negation only —
/// INSERT does not evaluate queries).
fn literal_value(e: &starmagic_sql::Expr) -> Result<starmagic_common::Value> {
    match e {
        starmagic_sql::Expr::Literal(v) => Ok(v.clone()),
        starmagic_sql::Expr::Neg(inner) => {
            let v = literal_value(inner)?;
            v.neg()
                .ok_or_else(|| Error::semantic(format!("cannot negate {v}")))
        }
        _ => Err(Error::semantic(
            "INSERT VALUES must be literals".to_string(),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use starmagic_catalog::generator::{benchmark_catalog, Scale};

    fn engine() -> Engine {
        Engine::new(benchmark_catalog(Scale::small()).unwrap())
    }

    fn paper_engine() -> Engine {
        let mut e = engine();
        e.run_sql(
            "CREATE VIEW mgrSal (empno, empname, workdept, salary) AS \
             SELECT e.empno, e.empname, e.workdept, e.salary \
             FROM employee e, department d WHERE e.empno = d.mgrno",
        )
        .unwrap();
        e.run_sql(
            "CREATE VIEW avgMgrSal (workdept, avgsalary) AS \
             SELECT workdept, AVG(salary) FROM mgrSal GROUP BY workdept",
        )
        .unwrap();
        e
    }

    const QUERY_D: &str = "SELECT d.deptname, s.workdept, s.avgsalary \
                           FROM department d, avgMgrSal s \
                           WHERE d.deptno = s.workdept AND d.deptname = 'Planning'";

    #[test]
    fn create_view_and_query() {
        let e = paper_engine();
        let r = e.query(QUERY_D).unwrap();
        assert_eq!(r.rows.len(), 1);
        assert_eq!(r.columns, vec!["deptname", "workdept", "avgsalary"]);
    }

    #[test]
    fn strategies_agree_on_results() {
        let e = paper_engine();
        let mut orig = e.query_with(QUERY_D, Strategy::Original).unwrap().rows;
        let mut magic = e.query_with(QUERY_D, Strategy::Magic).unwrap().rows;
        orig.sort_by(starmagic_common::Row::group_cmp);
        magic.sort_by(starmagic_common::Row::group_cmp);
        assert_eq!(orig, magic);
    }

    #[test]
    fn magic_does_less_work_on_query_d() {
        let e = paper_engine();
        let orig = e.query_with(QUERY_D, Strategy::Original).unwrap().metrics;
        let magic = e.query_with(QUERY_D, Strategy::Magic).unwrap().metrics;
        assert!(
            magic.work() < orig.work(),
            "magic {} !< original {}",
            magic.work(),
            orig.work()
        );
    }

    #[test]
    fn cost_based_picks_magic_for_query_d() {
        let e = paper_engine();
        let r = e.query(QUERY_D).unwrap();
        assert!(r.used_magic);
        assert!(r.cost_with_magic < r.cost_without_magic);
    }

    #[test]
    fn cost_based_never_degrades() {
        // A query with no binding to push: magic changes nothing and
        // the heuristic keeps the original plan's cost.
        let e = engine();
        let r = e
            .query("SELECT empno FROM employee WHERE salary > 0")
            .unwrap();
        assert!(r.cost_with_magic <= r.cost_without_magic * 1.001);
    }

    #[test]
    fn duplicate_view_rejected() {
        let mut e = paper_engine();
        let err = e
            .run_sql("CREATE VIEW mgrSal (x) AS SELECT empno FROM employee")
            .unwrap_err();
        assert!(matches!(err, Error::AlreadyExists(_)));
    }

    #[test]
    fn bad_view_body_rolls_back() {
        let mut e = engine();
        let err = e
            .run_sql("CREATE VIEW broken (x) AS SELECT nosuchcol FROM employee")
            .unwrap_err();
        assert!(matches!(err, Error::Semantic(_)), "{err}");
        assert!(e.catalog().view("broken").is_none());
    }

    #[test]
    fn create_view_stores_the_parsed_body() {
        let mut e = engine();
        e.run_sql("CREATE VIEW v (a, b) AS SELECT empno AS a, salary AS b FROM employee;")
            .unwrap();
        let body =
            starmagic_sql::parse_query("SELECT empno AS a, salary AS b FROM employee").unwrap();
        assert_eq!(*e.catalog().view("v").unwrap().body, body);
    }

    #[test]
    fn explain_mentions_phases_and_costs() {
        let e = paper_engine();
        let text = e.explain(QUERY_D).unwrap();
        assert!(text.contains("phase 1"), "{text}");
        assert!(text.contains("phase 2"));
        assert!(text.contains("phase 3"));
        assert!(text.contains("cost"));
    }

    #[test]
    fn plan_optimizer_runs_exactly_twice() {
        let e = paper_engine();
        let o = e.optimize_sql(QUERY_D, Strategy::CostBased).unwrap();
        assert_eq!(o.plan_optimizations, 2);
    }

    #[test]
    fn explain_includes_lint_verdict() {
        let e = paper_engine();
        let text = e.explain(QUERY_D).unwrap();
        assert!(text.contains("== lint (chosen plan):"), "{text}");
    }

    #[test]
    fn chosen_plans_lint_without_errors() {
        let e = paper_engine();
        for strategy in [Strategy::CostBased, Strategy::Original, Strategy::Magic] {
            let o = e.optimize_sql(QUERY_D, strategy).unwrap();
            assert!(
                !o.lint.has_errors(),
                "{strategy:?} plan has lint errors: {:?}",
                o.lint.diagnostics
            );
        }
    }

    #[test]
    fn lint_method_reports_on_the_chosen_plan() {
        let e = paper_engine();
        let report = e.optimize_sql(QUERY_D, Strategy::CostBased).unwrap().lint;
        assert!(!report.has_errors(), "{:?}", report.diagnostics);
    }
}

#[cfg(test)]
mod cache_tests {
    use super::*;
    use starmagic_catalog::generator::{benchmark_catalog, Scale};

    fn paper_engine() -> Engine {
        let mut e = Engine::new(benchmark_catalog(Scale::small()).unwrap());
        e.run_sql(
            "CREATE VIEW mgrSal (empno, empname, workdept, salary) AS \
             SELECT e.empno, e.empname, e.workdept, e.salary \
             FROM employee e, department d WHERE e.empno = d.mgrno",
        )
        .unwrap();
        e.run_sql(
            "CREATE VIEW avgMgrSal (workdept, avgsalary) AS \
             SELECT workdept, AVG(salary) FROM mgrSal GROUP BY workdept",
        )
        .unwrap();
        e
    }

    fn query_d(dept: &str) -> String {
        format!(
            "SELECT d.deptname, s.workdept, s.avgsalary \
             FROM department d, avgMgrSal s \
             WHERE d.deptno = s.workdept AND d.deptname = '{dept}'"
        )
    }

    #[test]
    fn different_constants_share_one_plan() {
        let e = paper_engine();
        for strategy in [Strategy::CostBased, Strategy::Original, Strategy::Magic] {
            e.cache_clear();
            let a = e
                .query_cached_traced(&query_d("Planning"), strategy)
                .unwrap();
            let b = e
                .query_cached_traced(&query_d("Research"), strategy)
                .unwrap();
            assert!(!a.hit);
            assert!(b.hit, "same shape, different literal must hit");
            assert_eq!(a.key, b.key);
            // Cached-path results equal fresh single-shot runs.
            let fresh_a = e.query_with(&query_d("Planning"), strategy).unwrap();
            let fresh_b = e.query_with(&query_d("Research"), strategy).unwrap();
            let sort = |mut rows: Vec<Row>| {
                rows.sort_by(Row::group_cmp);
                rows
            };
            assert_eq!(sort(a.result.rows), sort(fresh_a.rows), "{strategy:?}");
            assert_eq!(sort(b.result.rows), sort(fresh_b.rows), "{strategy:?}");
        }
    }

    #[test]
    fn hit_skips_rewrite_and_planning() {
        let e = paper_engine();
        let miss = e
            .query_cached_traced(&query_d("Planning"), Strategy::CostBased)
            .unwrap();
        assert!(!miss.hit);
        assert!(
            miss.trace
                .spans()
                .iter()
                .any(|s| s.name.starts_with("rewrite.")),
            "miss must run the rewrite pipeline"
        );
        let hit = e
            .query_cached_traced(&query_d("Research"), Strategy::CostBased)
            .unwrap();
        assert!(hit.hit);
        for s in hit.trace.spans() {
            assert!(
                !s.name.starts_with("rewrite.") && !s.name.starts_with("plan."),
                "hit must not re-optimize, saw span {}",
                s.name
            );
        }
        for name in ["parse", "bind", "execute"] {
            assert!(hit.trace.get(name).is_some(), "missing {name} span");
        }
    }

    #[test]
    fn strategies_get_distinct_entries() {
        let e = paper_engine();
        let a = e
            .query_cached_traced(&query_d("Planning"), Strategy::Original)
            .unwrap();
        let b = e
            .query_cached_traced(&query_d("Planning"), Strategy::Magic)
            .unwrap();
        assert!(!a.hit && !b.hit, "strategies must not share plans");
        assert_ne!(a.key, b.key);
        assert!(
            a.result.rows == b.result.rows || {
                let sort = |mut r: Vec<Row>| {
                    r.sort_by(Row::group_cmp);
                    r
                };
                sort(a.result.rows.clone()) == sort(b.result.rows.clone())
            }
        );
    }

    #[test]
    fn ddl_invalidates_cached_plans() {
        let mut e = paper_engine();
        let _ = e
            .query_cached(&query_d("Planning"), Strategy::CostBased)
            .unwrap();
        assert_eq!(e.cache_len(), 1);
        e.run_sql("CREATE TABLE scratch (x INT)").unwrap();
        assert_eq!(e.cache_len(), 0, "DDL must flush the plan cache");
        assert_eq!(e.cache_stats().invalidations, 1);
        // Data changes flush too: cached plans bake in statistics.
        let _ = e
            .query_cached(&query_d("Planning"), Strategy::CostBased)
            .unwrap();
        e.run_sql("INSERT INTO scratch VALUES (1)").unwrap();
        assert_eq!(e.cache_len(), 0);
    }

    #[test]
    fn view_resolution_change_cannot_serve_stale_plan() {
        let mut e = Engine::new(benchmark_catalog(Scale::small()).unwrap());
        e.run_sql("CREATE VIEW hi (empno) AS SELECT empno FROM employee WHERE salary > 90000")
            .unwrap();
        let before = e
            .query_cached("SELECT empno FROM hi", Strategy::CostBased)
            .unwrap();
        // New DDL flushes; re-running re-optimizes against the current
        // catalog rather than serving the old expansion.
        e.run_sql("CREATE TABLE unrelated (x INT)").unwrap();
        let after = e
            .query_cached("SELECT empno FROM hi", Strategy::CostBased)
            .unwrap();
        assert_eq!(before.rows, after.rows);
        assert_eq!(e.cache_stats().hits, 0);
    }

    #[test]
    fn user_markers_bind_through_execute_cached() {
        let e = paper_engine();
        let sql = "SELECT d.deptname, s.workdept, s.avgsalary \
                   FROM department d, avgMgrSal s \
                   WHERE d.deptno = s.workdept AND d.deptname = ?";
        let (plan, extracted, hit) = e.prepare_cached(sql, Strategy::Magic).unwrap();
        assert!(!hit);
        assert_eq!(plan.user_params, 1);
        let r1 = e
            .execute_cached(&plan, &[Value::str("Planning")], &extracted)
            .unwrap();
        let fresh = e.query_with(&query_d("Planning"), Strategy::Magic).unwrap();
        let sort = |mut r: Vec<Row>| {
            r.sort_by(Row::group_cmp);
            r
        };
        assert_eq!(sort(r1.rows), sort(fresh.rows));
        // A literal-bearing query of the same shape binds differently
        // (no user markers), so it gets its own entry rather than
        // colliding with the prepared one.
        let (plan2, extracted2, hit2) = e
            .prepare_cached(&query_d("Research"), Strategy::Magic)
            .unwrap();
        assert!(!hit2, "marker and literal forms must not share a key");
        assert_eq!(plan2.user_params, 0);
        assert_eq!(extracted2.len(), 1);
        let r2 = e.execute_cached(&plan2, &[], &extracted2).unwrap();
        let fresh2 = e.query_with(&query_d("Research"), Strategy::Magic).unwrap();
        assert_eq!(sort(r2.rows), sort(fresh2.rows));
    }

    #[test]
    fn arity_and_null_bindings_are_rejected() {
        let e = paper_engine();
        let (plan, extracted, _) = e
            .prepare_cached(
                "SELECT empno FROM employee WHERE workdept = ?",
                Strategy::CostBased,
            )
            .unwrap();
        assert!(e.execute_cached(&plan, &[], &extracted).is_err());
        let err = e
            .execute_cached(&plan, &[Value::Null], &extracted)
            .unwrap_err();
        assert!(err.to_string().contains("NULL"), "{err}");
    }
}

#[cfg(test)]
mod ddl_tests {
    use super::*;

    #[test]
    fn create_table_insert_query_roundtrip() {
        let mut e = Engine::new(Catalog::new());
        e.run_sql("CREATE TABLE dept (deptno INTEGER, name VARCHAR, PRIMARY KEY (deptno))")
            .unwrap();
        e.run_sql("INSERT INTO dept VALUES (1, 'Planning'), (2, 'Sales')")
            .unwrap();
        let r = e.query("SELECT name FROM dept WHERE deptno = 2").unwrap();
        assert_eq!(r.rows.len(), 1);
        assert_eq!(r.rows[0].get(0), &starmagic_common::Value::str("Sales"));
    }

    #[test]
    fn insert_respects_primary_key() {
        let mut e = Engine::new(Catalog::new());
        e.run_sql("CREATE TABLE t (id INT, PRIMARY KEY (id))")
            .unwrap();
        e.run_sql("INSERT INTO t VALUES (1)").unwrap();
        assert!(e.run_sql("INSERT INTO t VALUES (1)").is_err());
        // The failed insert must not have corrupted the table.
        let r = e.query("SELECT id FROM t").unwrap();
        assert_eq!(r.rows.len(), 1);
    }

    #[test]
    fn insert_arity_mismatch_is_rejected() {
        let mut e = Engine::new(Catalog::new());
        e.run_sql("CREATE TABLE t (a INT, b INT)").unwrap();
        assert!(e.run_sql("INSERT INTO t VALUES (1)").is_err());
    }

    #[test]
    fn insert_invalidates_cached_indexes() {
        let mut e = Engine::new(Catalog::new());
        e.run_sql("CREATE TABLE t (id INT, v INT, PRIMARY KEY (id))")
            .unwrap();
        e.run_sql("INSERT INTO t VALUES (1, 10)").unwrap();
        // Build the index through a point query.
        let r = e.query("SELECT v FROM t WHERE id = 1").unwrap();
        assert_eq!(r.rows.len(), 1);
        // Insert more data; the point query must see it.
        e.run_sql("INSERT INTO t VALUES (2, 20)").unwrap();
        let r = e.query("SELECT v FROM t WHERE id = 2").unwrap();
        assert_eq!(r.rows.len(), 1, "stale index served after INSERT");
    }

    /// An engine over the small benchmark database with a live
    /// registry, so `exec.index.builds` tells a warm read from one
    /// that had to rebuild.
    fn metered_engine() -> Engine {
        use starmagic_catalog::generator::{benchmark_catalog, Scale};
        let mut e = Engine::new(benchmark_catalog(Scale::small()).unwrap());
        e.set_metrics(MetricsRegistry::enabled());
        e
    }

    fn index_builds(e: &Engine) -> u64 {
        e.metrics_registry().snapshot().counter("exec.index.builds")
    }

    /// The `rewrite.fires.*` counters of an engine's registry.
    fn rule_fires(e: &Engine) -> BTreeMap<String, u64> {
        e.metrics_registry()
            .snapshot()
            .counters
            .into_iter()
            .filter(|(name, _)| name.starts_with("rewrite.fires."))
            .collect()
    }

    #[test]
    fn every_cache_miss_counts_rule_fires() {
        let fresh = || {
            let mut e = metered_engine();
            e.run_sql(
                "CREATE VIEW deptavg (workdept, avgsal) AS \
                 SELECT workdept, AVG(salary) FROM employee GROUP BY workdept",
            )
            .unwrap();
            e
        };
        let sql = "SELECT d.deptname, s.avgsal FROM department d, deptavg s \
                   WHERE d.deptno = s.workdept AND d.deptname = 'Planning'";
        let traced = fresh();
        traced.query_cached_traced(sql, Strategy::Magic).unwrap();
        let expected = rule_fires(&traced);
        assert!(!expected.is_empty(), "a magic plan fires rules");

        let prepared = fresh();
        let (_, _, hit) = prepared.prepare_cached(sql, Strategy::Magic).unwrap();
        assert!(!hit);
        assert_eq!(rule_fires(&prepared), expected);
        // A hit compiles nothing, so it counts nothing.
        prepared.query_cached(sql, Strategy::Magic).unwrap();
        assert_eq!(rule_fires(&prepared), expected);
    }

    /// One department row probing `project`'s index on `deptno`.
    const PROJECTS_OF_DEPT_3: &str = "SELECT p.projno FROM department d, project p \
                                      WHERE p.deptno = d.deptno AND d.deptno = 3";

    #[test]
    fn rejected_ddl_leaves_the_engine_untouched() {
        let mut e = metered_engine();
        let rows = e.query(PROJECTS_OF_DEPT_3).unwrap().rows.len();
        let warm = index_builds(&e);
        assert!(warm > 0, "the probe query must go through an index");
        let before = Arc::clone(e.snapshot());
        let invalidations = e.cache_stats().invalidations;
        for (rejected, why) in [
            (
                "INSERT INTO project VALUES (0, 'Dup', 3, 1.0)",
                "duplicate primary key",
            ),
            (
                "INSERT INTO project VALUES (9000, 'A', 3, 1.0), (9000, 'B', 3, 1.0)",
                "duplicate primary key",
            ),
            (
                "INSERT INTO project VALUES ('x', 1, 'y', 'z')",
                "project.projno",
            ),
            (
                "INSERT INTO project VALUES (9000, 'A', 3)",
                "3 values for 4 columns",
            ),
            (
                "INSERT INTO project VALUES (9000, 'A', 3, 1 + 1)",
                "must be literals",
            ),
            ("INSERT INTO nosuch VALUES (1)", "nosuch"),
            ("CREATE TABLE project (x INT)", "already exists"),
            (
                "CREATE VIEW department (x) AS SELECT projno FROM project",
                "already exists",
            ),
            (
                "CREATE VIEW broken (x) AS SELECT nosuchcol FROM project",
                "nosuchcol",
            ),
            (
                "CREATE TABLE t (a INT, a INT)",
                "duplicate column a in table t",
            ),
            (
                "CREATE TABLE x (A INT, a INT)",
                "duplicate column a in table x",
            ),
            (
                "CREATE VIEW vv (x, X) AS SELECT projno, deptno FROM project",
                "duplicate column x in view vv",
            ),
        ] {
            let err = e.run_sql(rejected).unwrap_err().to_string();
            assert!(err.contains(why), "{rejected}: {err}");
            assert!(
                Arc::ptr_eq(e.snapshot(), &before),
                "{rejected}: a rejected statement replaced the snapshot"
            );
            assert_eq!(e.epoch(), 0, "{rejected}");
        }
        assert_eq!(e.cache_stats().invalidations, invalidations);
        assert!(e.catalog().view("broken").is_none());
        assert_eq!(e.query(PROJECTS_OF_DEPT_3).unwrap().rows.len(), rows);
        assert_eq!(index_builds(&e), warm, "a warm index went cold");
    }

    #[test]
    fn a_read_after_a_write_builds_only_indexes() {
        let mut e = metered_engine();
        let staff = "SELECT e.empno FROM department d, employee e \
                     WHERE e.workdept = d.deptno AND d.deptno = 3";
        let rows = e.query(PROJECTS_OF_DEPT_3).unwrap().rows.len();
        let staff_rows = e.query(staff).unwrap().rows.len();
        e.run_sql("INSERT INTO project VALUES (9000, 'New', 3, 1.0)")
            .unwrap();
        // The next read of `project` builds the one index it probes,
        // `project.deptno`, and no batch: a scan borrows the stored
        // columns.
        let before = index_builds(&e);
        assert_eq!(e.query(PROJECTS_OF_DEPT_3).unwrap().rows.len(), rows + 1);
        assert_eq!(index_builds(&e) - before, 1);
        // A read of tables the write did not touch builds nothing.
        let before = index_builds(&e);
        assert_eq!(e.query(staff).unwrap().rows.len(), staff_rows);
        assert_eq!(index_builds(&e), before);
    }

    #[test]
    fn a_write_copies_one_table_and_readers_keep_their_snapshot() {
        let old = metered_engine();
        let rows = old.query(PROJECTS_OF_DEPT_3).unwrap().rows.len();
        // A second department-driven probe, into `employee`: its index
        // must survive the write to `project`.
        let staff = "SELECT e.empno FROM department d, employee e \
                     WHERE e.workdept = d.deptno AND d.deptno = 3";
        let staff_rows = old.query(staff).unwrap().rows.len();

        let mut new = old.clone();
        new.run_sql("INSERT INTO project VALUES (9000, 'New', 3, 1.0)")
            .unwrap();
        assert_eq!(new.epoch(), old.epoch() + 1);
        for table in old.catalog().table_names() {
            let shared = Arc::ptr_eq(
                old.catalog().table_arc(table).unwrap(),
                new.catalog().table_arc(table).unwrap(),
            );
            assert_eq!(shared, table != "project", "{table}");
        }

        // `employee`'s index came along; `project`'s is rebuilt, once.
        let warm = index_builds(&new);
        assert_eq!(new.query(staff).unwrap().rows.len(), staff_rows);
        assert_eq!(
            index_builds(&new),
            warm,
            "a write to project cooled employee"
        );
        assert_eq!(new.query(PROJECTS_OF_DEPT_3).unwrap().rows.len(), rows + 1);
        let rebuilt = index_builds(&new);
        assert!(rebuilt > warm, "a stale project index was served");
        assert_eq!(new.query(PROJECTS_OF_DEPT_3).unwrap().rows.len(), rows + 1);
        assert_eq!(index_builds(&new), rebuilt);

        // The old clone still answers from its own snapshot, through
        // the index it built before the write.
        assert_eq!(old.query(PROJECTS_OF_DEPT_3).unwrap().rows.len(), rows);
        assert_eq!(index_builds(&old), rebuilt);
        assert_eq!(old.catalog().table("project").unwrap().row_count() + 1, {
            new.catalog().table("project").unwrap().row_count()
        });
    }

    #[test]
    fn an_index_built_on_the_old_snapshot_after_the_write_stays_there() {
        let old = metered_engine();
        let rows = old.query(PROJECTS_OF_DEPT_3).unwrap().rows.len();
        let mut new = old.clone();
        new.run_sql("INSERT INTO project VALUES (9000, 'New', 3, 1.0)")
            .unwrap();
        // Only now does a reader of the old snapshot build the index on
        // `projno` — over the old rows.
        let by_projno = "SELECT p.projname FROM emp_act a, project p \
                         WHERE p.projno = a.projno AND a.empno = 1 AND a.projno = 9000";
        let cold = index_builds(&old);
        assert_eq!(old.query(by_projno).unwrap().rows.len(), 0);
        assert!(index_builds(&old) > cold, "the probe must build an index");
        new.run_sql("INSERT INTO emp_act VALUES (1, 9000, 1.0)")
            .unwrap();
        assert_eq!(new.query(by_projno).unwrap().rows.len(), 1);
        assert_eq!(new.query(PROJECTS_OF_DEPT_3).unwrap().rows.len(), rows + 1);
        assert_eq!(old.query(PROJECTS_OF_DEPT_3).unwrap().rows.len(), rows);
    }

    #[test]
    fn negative_literals_in_insert() {
        let mut e = Engine::new(Catalog::new());
        e.run_sql("CREATE TABLE t (a INT, b DOUBLE)").unwrap();
        e.run_sql("INSERT INTO t VALUES (-5, -1.5)").unwrap();
        let r = e.query("SELECT a, b FROM t").unwrap();
        assert_eq!(r.rows[0].get(0), &starmagic_common::Value::Int(-5));
        assert_eq!(r.rows[0].get(1), &starmagic_common::Value::Double(-1.5));
    }

    #[test]
    fn views_work_over_created_tables() {
        let mut e = Engine::new(Catalog::new());
        e.run_sql("CREATE TABLE emp (id INT, dept INT, sal INT, PRIMARY KEY (id))")
            .unwrap();
        e.run_sql("INSERT INTO emp VALUES (1, 1, 100), (2, 1, 200), (3, 2, 50)")
            .unwrap();
        e.run_sql(
            "CREATE VIEW davg (dept, avgsal) AS SELECT dept, AVG(sal) FROM emp GROUP BY dept",
        )
        .unwrap();
        let r = e
            .query_with("SELECT avgsal FROM davg WHERE dept = 1", Strategy::Magic)
            .unwrap();
        assert_eq!(r.rows.len(), 1);
        assert_eq!(r.rows[0].get(0).as_f64(), Some(150.0));
    }
}
