//! The query-graph interpreter.

use std::collections::{BTreeSet, HashMap};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use starmagic_catalog::{Catalog, Table};
use starmagic_common::{Error, Result, Row, Truth, Value};
use starmagic_metrics::Registry;
use starmagic_qgm::expr::QuantMode;
use starmagic_qgm::{BoxId, BoxKind, GroupByBox, Qgm, QuantId, QuantKind, ScalarExpr, SetOpKind};
use starmagic_sql::BinOp;

use crate::agg::{hash_aggregate, AggInput};
use crate::batch::{Batch, Column, RowSource};
use crate::boundary::{BoxOutput, BoxPath, Fallback};
use crate::columnar::JoinBuild;
use crate::dedup::dedupe;
use crate::like::like_match;
use crate::metrics::Metrics;
use crate::plan::{GroupByPlan, IndexProbe, Op, Plan, SelectPlan, Stage};
use crate::profile::ExecProfile;
use crate::rowids::RowIds;
use crate::vector::{self, Env, SlotView, Vector};

/// Execution knobs.
#[derive(Debug, Clone)]
pub struct ExecOptions {
    /// Collect per-box wall time in the profile. Off by default so the
    /// counters stay free of clock reads.
    pub timing: bool,
    /// Accepted and ignored: the executor is serial. Kept only because
    /// the benchmark harness still sets it (`benchmark/src/layers.rs`,
    /// the `exec.parallel_speedup_t2` probe); delete it with that probe.
    pub threads: usize,
    /// Evaluate eligible select boxes through the columnar batch path
    /// (vectorized filters and hash joins with late materialization).
    /// On by default; rows, order, profile counters, and errors are
    /// byte-identical either way — the fuzzer's columnar oracle and
    /// the determinism suite pin that contract — so this knob exists
    /// for differential testing and benchmarking, not correctness.
    /// Group-by runs the same aggregation kernel either way; with the
    /// knob off it is simply handed rows.
    pub columnar: bool,
    /// Metrics registry for batch, fixpoint and index telemetry. These
    /// live **outside** [`ExecProfile`] on purpose: the profile is
    /// pinned byte-identical between the columnar and row paths, while
    /// batch counts are a property of which path ran. The default
    /// (noop) registry records nothing and costs a branch.
    pub metrics: Registry,
    /// Iteration cap for semi-naive fixpoints. UNION recursion always
    /// terminates on finite domains, but UNION ALL recursion only
    /// stops when a step produces no rows — on a cyclic graph it never
    /// does, so this guard turns the runaway into an error instead of
    /// an unbounded loop.
    pub max_recursion: usize,
}

impl Default for ExecOptions {
    fn default() -> ExecOptions {
        ExecOptions {
            timing: false,
            threads: 1,
            columnar: true,
            metrics: Registry::noop(),
            max_recursion: 10_000,
        }
    }
}

/// Evaluate the graph's top box; returns the result rows.
pub fn execute(qgm: &Qgm, catalog: &Catalog) -> Result<Vec<Row>> {
    execute_with_metrics(qgm, catalog).map(|(rows, _)| rows)
}

/// Evaluate the graph's top box; returns rows plus work metrics.
pub fn execute_with_metrics(qgm: &Qgm, catalog: &Catalog) -> Result<(Vec<Row>, Metrics)> {
    let indexes = IndexCache::default();
    execute_with_indexes(qgm, catalog, &indexes)
}

/// Evaluate with a caller-owned index cache. Persistent callers (the
/// engine) share one cache across executions, modeling pre-existing
/// database indexes: building is amortized away exactly as on a real
/// system.
pub fn execute_with_indexes(
    qgm: &Qgm,
    catalog: &Catalog,
    indexes: &IndexCache,
) -> Result<(Vec<Row>, Metrics)> {
    let (rows, profile) = execute_profiled(qgm, catalog, indexes, false)?;
    Ok((rows, profile.aggregate()))
}

/// Evaluate and return the per-box execution profile. With `timing`
/// the profile also carries inclusive per-box wall time; without it no
/// clock is ever read, so the counters stay deterministic.
pub fn execute_profiled(
    qgm: &Qgm,
    catalog: &Catalog,
    indexes: &IndexCache,
    timing: bool,
) -> Result<(Vec<Row>, ExecProfile)> {
    execute_with_options(
        qgm,
        catalog,
        indexes,
        ExecOptions {
            timing,
            ..ExecOptions::default()
        },
    )
}

/// Evaluate with explicit execution options (timing, columnar path):
/// lower the graph, then run it with no parameters bound. The narrower
/// entry points above are serial shorthands for it.
pub fn execute_with_options(
    qgm: &Qgm,
    catalog: &Catalog,
    indexes: &IndexCache,
    opts: ExecOptions,
) -> Result<(Vec<Row>, ExecProfile)> {
    execute_plan(qgm, &Plan::lower(qgm), &[], catalog, indexes, opts)
}

/// Run a lowered plan — `plan` must be [`Plan::lower`] of `qgm` — with
/// `params` bound to its `?N` markers. This is the full-control entry
/// point the engine uses: a cached plan is lowered once and run by
/// every execution.
pub fn execute_plan(
    qgm: &Qgm,
    plan: &Plan,
    params: &[Value],
    catalog: &Catalog,
    indexes: &IndexCache,
    opts: ExecOptions,
) -> Result<(Vec<Row>, ExecProfile)> {
    let mut exec = Executor::new(qgm, plan, catalog);
    if opts.timing {
        exec.profile = ExecProfile::with_timing();
    }
    exec.columnar = opts.columnar;
    exec.shared_indexes = Some(indexes);
    exec.max_recursion = opts.max_recursion.max(1);
    if !opts.metrics.is_noop() {
        exec.batch_runs = opts.metrics.counter("exec.batch.batches");
        exec.batch_gather = opts.metrics.counter("exec.batch.gather_rows");
        exec.batch_rows = opts.metrics.histogram("exec.batch.rows");
        exec.batch_selectivity = opts.metrics.histogram("exec.batch.selectivity_pct");
        exec.fixpoint_iterations = opts.metrics.counter("exec.fixpoint.iterations");
        exec.fixpoint_delta_rows = opts.metrics.counter("exec.fixpoint.delta_rows");
        exec.fixpoint_total_rows = opts.metrics.counter("exec.fixpoint.total_rows");
        exec.fixpoint_build_reuses = opts.metrics.counter("exec.fixpoint.build_reuses");
        exec.index_builds = opts.metrics.counter("exec.index.builds");
    }
    let out = exec.eval_box(qgm.top(), &Frame::with_params(params))?;
    // The cache's handle goes first, so the root's rows move out.
    exec.cache.remove(&qgm.top());
    let rows = out.into_rows();
    exec.flush_path_counts(&opts.metrics);
    Ok((rows, exec.profile))
}

/// Semi-join index for quantified tests: non-NULL-keyed buckets plus
/// the NULL-keyed remainder (needed for Unknown accounting).
pub type SemiJoinIndex = Arc<(HashMap<Vec<Value>, Vec<Row>>, Vec<Row>)>;

/// An index on one base-table column: the ids of the table rows
/// holding each key, which both select paths read — the row path as
/// `table.rows()[id]`, the batch path through the shared [`Batch`].
/// `Arc`, not `Rc`: indexes are shared across engine threads through
/// the [`IndexCache`].
type IdIndex = Arc<RowIds>;

/// One map of an [`IndexCache`]: each structure is stored with the
/// table version it was built from.
type CacheMap<K, V> = Mutex<HashMap<K, (Arc<Table>, V)>>;

/// A shareable cache of base-table access structures: columnar batches
/// and id indexes. Interior mutability is a `Mutex`
/// (taken only on lookup/insert of whole entries, never per row) so
/// the cache can be shared across engine threads.
///
/// Every entry remembers the `Arc<Table>` it was built from and a
/// lookup serves it only to a catalog that holds that same `Arc`, so
/// a structure built before a write can never answer a query that runs
/// after it: freshness does not depend on anyone resetting the cache.
/// The entry's own handle is what makes the pointer a sound version
/// tag: while it lives the table is shared, so `Catalog::table_mut`
/// copies instead of writing in place, and the address cannot be
/// reused by a later version.
/// A clone copies the entries (pointer bumps) into independent maps,
/// which is how a new engine snapshot keeps the structures of every
/// table a write did not touch.
#[derive(Default)]
pub struct IndexCache {
    batches: CacheMap<String, Arc<Batch>>,
    ids: CacheMap<(String, usize), IdIndex>,
}

impl Clone for IndexCache {
    fn clone(&self) -> IndexCache {
        fn copy<K: Clone, V: Clone>(m: &CacheMap<K, V>) -> CacheMap<K, V> {
            Mutex::new(m.lock().expect("index cache poisoned").clone())
        }
        IndexCache {
            batches: copy(&self.batches),
            ids: copy(&self.ids),
        }
    }
}

impl IndexCache {
    /// Drop every structure built over `table` (case-sensitive: the
    /// catalog's lowercase name). The `Arc` check already keeps stale
    /// entries from being served; this releases their memory, and the
    /// old table version they pin, as soon as the table is written.
    pub fn forget(&mut self, table: &str) {
        fn exclusive<K, V>(m: &mut CacheMap<K, V>) -> &mut HashMap<K, (Arc<Table>, V)> {
            m.get_mut().expect("index cache poisoned")
        }
        exclusive(&mut self.batches).retain(|t, _| t != table);
        exclusive(&mut self.ids).retain(|(t, _), _| t != table);
    }
}

/// Fetch a structure over `table` from one map of the shared cache, or
/// build it (outside the lock: two racing executions may both build,
/// the later insert wins) and store it there.
fn cached_or_build<K: std::hash::Hash + Eq + Clone, V: Clone>(
    shared: Option<&CacheMap<K, V>>,
    key: &K,
    table: &Arc<Table>,
    builds: &starmagic_metrics::Counter,
    build: impl FnOnce(&Arc<Table>) -> V,
) -> V {
    if let Some(shared) = shared {
        if let Some((built_from, v)) = shared.lock().expect("index cache poisoned").get(key) {
            if Arc::ptr_eq(built_from, table) {
                return v.clone();
            }
        }
    }
    builds.inc();
    let v = build(table);
    if let Some(shared) = shared {
        shared
            .lock()
            .expect("index cache poisoned")
            .insert(key.clone(), (table.clone(), v.clone()));
    }
    v
}

/// Evaluation environment: quantifier → current row bindings, chained
/// to the enclosing frame for correlation, plus the execution's bound
/// parameters.
pub struct Frame<'f> {
    parent: Option<&'f Frame<'f>>,
    quants: &'f [QuantId],
    rows: &'f [Row],
    params: &'f [Value],
}

impl<'f> Frame<'f> {
    /// The root frame of an execution with no parameters bound.
    pub fn root() -> Frame<'static> {
        Frame::with_params(&[])
    }

    /// The root frame of an execution binding `params` to `?1..`.
    pub(crate) fn with_params(params: &[Value]) -> Frame<'_> {
        Frame {
            parent: None,
            quants: &[],
            rows: &[],
            params,
        }
    }

    fn extended<'a>(&'a self, quants: &'a [QuantId], rows: &'a [Row]) -> Frame<'a> {
        Frame {
            parent: Some(self),
            quants,
            rows,
            params: self.params,
        }
    }

    /// The execution's bound parameters.
    pub(crate) fn params(&self) -> &'f [Value] {
        self.params
    }

    /// The value bound to parameter `i` (0-based).
    fn param(&self, i: usize) -> Result<Value> {
        self.params.get(i).cloned().ok_or_else(|| {
            Error::internal(format!("unbound parameter ?{} reached the executor", i + 1))
        })
    }

    pub(crate) fn lookup(&self, q: QuantId) -> Option<&Row> {
        if let Some(i) = self.quants.iter().position(|&x| x == q) {
            return self.rows.get(i);
        }
        self.parent.and_then(|p| p.lookup(q))
    }
}

/// The interpreter. Holds the materialization cache and the work
/// counters for one execution.
pub struct Executor<'a> {
    pub(crate) qgm: &'a Qgm,
    /// The graph's lowered facts and kernels ([`Plan::lower`]).
    pub(crate) plan: &'a Plan,
    pub(crate) catalog: &'a Catalog,
    /// Per-box work counters (and, when enabled, timings). The legacy
    /// flat [`Metrics`] is this profile's aggregate: [`Executor::metrics`].
    pub profile: ExecProfile,
    /// Whether eligible select boxes go through the columnar path.
    pub(crate) columnar: bool,
    cache: HashMap<BoxId, Arc<BoxOutput>>,
    /// What a recursive reference reads during a fixpoint: the round's
    /// delta (semi-naive) or the accumulation so far (naive).
    pub(crate) recursive_acc: HashMap<BoxId, Arc<BoxOutput>>,
    /// Box evaluations per physical path: `[0]` stayed on the batch
    /// path, `[1 + reason]` left it. Flushed to the registry once per
    /// execution.
    path_counts: [u64; 1 + Fallback::ALL.len()],
    /// Recursive boxes currently being iterated.
    pub(crate) in_fixpoint: BTreeSet<BoxId>,
    /// SCC members of an active semi-naive fixpoint: evaluated fresh
    /// on every reference (no materialization cache, no nested
    /// fixpoint dispatch) so each iteration sees the current delta.
    pub(crate) no_cache: BTreeSet<BoxId>,
    /// Hash-join build sides of active fixpoints' step arms over inputs
    /// outside the recursion, by (step arm, quantifier): built on first
    /// use, probed by every later round (see
    /// [`Executor::step_build_site`]).
    pub(crate) step_builds: HashMap<(BoxId, QuantId), Arc<JoinBuild>>,
    /// Guard for runaway fixpoints.
    pub(crate) max_fixpoint_rounds: usize,
    /// Iteration cap for semi-naive fixpoints (see
    /// [`ExecOptions::max_recursion`]).
    pub(crate) max_recursion: usize,
    /// Optional cross-execution index cache supplied by the caller.
    shared_indexes: Option<&'a IndexCache>,
    /// Hash semi-join indexes for quantified tests: (quantifier,
    /// key columns) → (hash of non-NULL-key rows, rows with a NULL in
    /// the key — those need Unknown accounting).
    quantified_indexes: HashMap<(QuantId, Vec<usize>), SemiJoinIndex>,
    /// Lazily built columnar views of base tables.
    table_batches: HashMap<String, Arc<Batch>>,
    /// The column indexes this execution has probed, by table and
    /// column: a handful, so a scan that compares names finds one
    /// without building a key. The benchmark database is assumed fully
    /// indexed (as DB2's was): building is not charged to the query;
    /// probes charge only the matched rows.
    id_indexes: Vec<(String, usize, IdIndex)>,
    /// Columnar stage dispatches (in [`crate::columnar::BATCH_ROWS`]
    /// units). Noop by default; see [`ExecOptions::metrics`] for why
    /// batch telemetry stays out of the profile.
    pub(crate) batch_runs: starmagic_metrics::Counter,
    /// Rows gathered during late materialization.
    pub(crate) batch_gather: starmagic_metrics::Counter,
    /// Input rows per columnar stage.
    pub(crate) batch_rows: starmagic_metrics::Histogram,
    /// Filter-stage selectivity (surviving rows per hundred input).
    pub(crate) batch_selectivity: starmagic_metrics::Histogram,
    /// Fixpoint telemetry: step iterations run across all fixpoints.
    /// Like the batch metrics these live outside [`ExecProfile`]'s
    /// per-box counters — they are registry-visible operational
    /// telemetry (wire-observable via METRICS).
    pub(crate) fixpoint_iterations: starmagic_metrics::Counter,
    /// New rows admitted across all fixpoint rounds.
    pub(crate) fixpoint_delta_rows: starmagic_metrics::Counter,
    /// Accumulated totals at convergence, summed over fixpoints.
    pub(crate) fixpoint_total_rows: starmagic_metrics::Counter,
    /// Step-arm hash joins that probed a build made by an earlier round.
    pub(crate) fixpoint_build_reuses: starmagic_metrics::Counter,
    /// Base-table structures (batch, column index) actually
    /// built by this execution, i.e. not served by the shared cache:
    /// what a read pays after a write to a table it uses.
    index_builds: starmagic_metrics::Counter,
}

impl<'a> Executor<'a> {
    /// An executor over `qgm`, whose lowered form is `plan`.
    pub fn new(qgm: &'a Qgm, plan: &'a Plan, catalog: &'a Catalog) -> Executor<'a> {
        Executor {
            qgm,
            plan,
            catalog,
            profile: ExecProfile::default(),
            columnar: true,
            cache: HashMap::new(),
            recursive_acc: HashMap::new(),
            path_counts: [0; 1 + Fallback::ALL.len()],
            in_fixpoint: BTreeSet::new(),
            no_cache: BTreeSet::new(),
            step_builds: HashMap::new(),
            max_fixpoint_rounds: 100_000,
            max_recursion: 10_000,
            shared_indexes: None,
            quantified_indexes: HashMap::new(),
            table_batches: HashMap::new(),
            id_indexes: Vec::new(),
            batch_runs: starmagic_metrics::Counter::default(),
            batch_gather: starmagic_metrics::Counter::default(),
            batch_rows: starmagic_metrics::Histogram::default(),
            batch_selectivity: starmagic_metrics::Histogram::default(),
            fixpoint_iterations: starmagic_metrics::Counter::default(),
            fixpoint_delta_rows: starmagic_metrics::Counter::default(),
            fixpoint_total_rows: starmagic_metrics::Counter::default(),
            fixpoint_build_reuses: starmagic_metrics::Counter::default(),
            index_builds: starmagic_metrics::Counter::default(),
        }
    }

    /// The flat work counters — the aggregate view over the per-box
    /// profile, kept for the deterministic benchmark numbers.
    pub fn metrics(&self) -> Metrics {
        self.profile.aggregate()
    }

    /// Hash fast path for `EXISTS`-mode quantified tests.
    ///
    /// Splits the predicates into equalities `quant.col = outer-expr`
    /// (hashable) and a remainder. When every predicate is analyzable,
    /// the subquery is uncorrelated, and at least one equality exists,
    /// builds (once) a hash of the subquery rows on the key columns and
    /// probes it per outer row. Rows with NULL key values cannot match
    /// but can still make the overall answer Unknown, so they are kept
    /// aside and consulted only when the bucket produced no True.
    /// Returns `None` when the fast path does not apply.
    fn eval_quantified_hashed(
        &mut self,
        quant: QuantId,
        preds: &[ScalarExpr],
        frame: &Frame<'_>,
    ) -> Result<Option<Truth>> {
        let sub = self.qgm.quant(quant).input;
        if self.is_correlated(sub) || preds.is_empty() {
            return Ok(None);
        }
        // Partition predicates.
        let mut key_cols: Vec<usize> = Vec::new();
        let mut probe_exprs: Vec<&ScalarExpr> = Vec::new();
        let mut rest: Vec<&ScalarExpr> = Vec::new();
        for p in preds {
            let mut handled = false;
            if let Some((l, r)) = p.as_equality() {
                let classify = |side: &ScalarExpr, other: &ScalarExpr| -> Option<usize> {
                    if let ScalarExpr::ColRef { quant: q2, col } = side {
                        if *q2 == quant && !other.references(quant) {
                            return Some(*col);
                        }
                    }
                    None
                };
                if let Some(c) = classify(l, r) {
                    key_cols.push(c);
                    probe_exprs.push(r);
                    handled = true;
                } else if let Some(c) = classify(r, l) {
                    key_cols.push(c);
                    probe_exprs.push(l);
                    handled = true;
                }
            }
            if !handled {
                rest.push(p);
            }
        }
        if key_cols.is_empty() {
            return Ok(None);
        }
        // Build (or fetch) the index.
        let cache_key = (quant, key_cols.clone());
        let index = match self.quantified_indexes.get(&cache_key) {
            Some(i) => i.clone(),
            None => {
                let rows = self.eval_rows(sub, frame)?;
                let mut map: HashMap<Vec<Value>, Vec<Row>> = HashMap::new();
                let mut null_keyed: Vec<Row> = Vec::new();
                'row: for r in rows.rows() {
                    let mut key = Vec::with_capacity(key_cols.len());
                    for &c in &key_cols {
                        let v = r.get(c);
                        if v.is_null() {
                            null_keyed.push(r.clone());
                            continue 'row;
                        }
                        key.push(v.clone());
                    }
                    map.entry(key).or_default().push(r.clone());
                }
                let built = Arc::new((map, null_keyed));
                self.quantified_indexes.insert(cache_key, built.clone());
                built
            }
        };
        // Probe.
        let mut probe_key = Vec::with_capacity(probe_exprs.len());
        let mut probe_has_null = false;
        for e in &probe_exprs {
            let v = self.eval_expr(e, frame)?;
            if v.is_null() {
                probe_has_null = true;
                break;
            }
            probe_key.push(v);
        }
        let quants = [quant];
        let mut any_unknown = false;
        if !probe_has_null {
            if let Some(bucket) = index.0.get(&probe_key) {
                for r in bucket {
                    let rr = [r.clone()];
                    let cframe = frame.extended(&quants, &rr);
                    let mut t = Truth::True;
                    for p in &rest {
                        t = t.and(truth_of(&self.eval_expr(p, &cframe)?));
                        if t == Truth::False {
                            break;
                        }
                    }
                    match t {
                        Truth::True => return Ok(Some(Truth::True)),
                        Truth::Unknown => any_unknown = true,
                        Truth::False => {}
                    }
                }
            }
        } else {
            // NULL probe value: every key equality is Unknown; any row
            // whose remaining predicates are not False yields Unknown.
            for r in index.0.values().flatten() {
                let rr = [r.clone()];
                let cframe = frame.extended(&quants, &rr);
                let mut t = Truth::Unknown;
                for p in &rest {
                    t = t.and(truth_of(&self.eval_expr(p, &cframe)?));
                    if t == Truth::False {
                        break;
                    }
                }
                if t == Truth::Unknown {
                    any_unknown = true;
                    break;
                }
            }
        }
        // NULL-keyed subquery rows: their key equality is Unknown.
        if !any_unknown {
            for r in &index.1 {
                let rr = [r.clone()];
                let cframe = frame.extended(&quants, &rr);
                let mut t = Truth::Unknown;
                for p in &rest {
                    t = t.and(truth_of(&self.eval_expr(p, &cframe)?));
                    if t == Truth::False {
                        break;
                    }
                }
                if t == Truth::Unknown {
                    any_unknown = true;
                    break;
                }
            }
        }
        Ok(Some(if any_unknown {
            Truth::Unknown
        } else {
            Truth::False
        }))
    }

    /// Fetch (building lazily) the columnar view of a base table,
    /// shared across executions via [`IndexCache`].
    pub(crate) fn table_batch(&mut self, table: &str) -> Result<Arc<Batch>> {
        if let Some(batch) = self.table_batches.get(table) {
            return Ok(batch.clone());
        }
        let key = table.to_string();
        let batch = cached_or_build(
            self.shared_indexes.map(|s| &s.batches),
            &key,
            self.catalog.table_arc(table)?,
            &self.index_builds,
            // Lazy: a column is type-detected and copied by the first
            // execution that reads it, then shared like an index.
            |t| Arc::new(Batch::over(RowSource::Table(t.clone()))),
        );
        self.table_batches.insert(key, batch.clone());
        Ok(batch)
    }

    /// Fetch (building lazily) the index on one base-table column,
    /// shared across executions via [`IndexCache`].
    pub(crate) fn table_id_index(&mut self, table: &str, col: usize) -> Result<IdIndex> {
        if let Some((_, _, idx)) = self
            .id_indexes
            .iter()
            .find(|(t, c, _)| t == table && *c == col)
        {
            return Ok(idx.clone());
        }
        let key = (table.to_string(), col);
        let idx = cached_or_build(
            self.shared_indexes.map(|s| &s.ids),
            &key,
            self.catalog.table_arc(table)?,
            &self.index_builds,
            |t| {
                let keys = Vector::Col(Column::from_rows(t.rows(), col));
                Arc::new(RowIds::build(&[keys]))
            },
        );
        self.id_indexes.push((key.0, col, idx.clone()));
        Ok(idx)
    }

    /// A box result as a batch, for a columnar consumer. A stored
    /// table's is the shared cached one; any other result that exists
    /// only as rows gets a batch over them (columns built on first
    /// read), kept with the result so a second consumer — or the next
    /// reference inside one fixpoint round — reuses it.
    pub(crate) fn batch_of(&mut self, b: BoxId, out: &BoxOutput) -> Result<Arc<Batch>> {
        if let Some(batch) = out.built_batch() {
            return Ok(batch.clone());
        }
        let stored = match &self.qgm.boxed(b).kind {
            BoxKind::BaseTable { table } => Some(self.table_batch(table)?),
            _ => None,
        };
        Ok(out.batch_or(stored).clone())
    }

    /// A box result as rows, for a row-at-a-time consumer. Counts the
    /// materialization when the producer had handed over a batch.
    fn rows_of<'o>(&mut self, b: BoxId, out: &'o BoxOutput) -> &'o [Row] {
        if !out.has_rows() {
            self.note_path(b, BoxPath::Row(Fallback::RowOnlyConsumer));
        }
        out.rows()
    }

    /// Evaluate a box for a row-at-a-time consumer: the returned
    /// result's `rows()` are already materialized.
    fn eval_rows(&mut self, b: BoxId, frame: &Frame<'_>) -> Result<Arc<BoxOutput>> {
        let out = self.eval_box(b, frame)?;
        self.rows_of(b, &out);
        Ok(out)
    }

    /// Record which path one evaluation of `b` took: the tally behind
    /// `exec.batch.boxes` / `exec.batch.fallback.<reason>`, and the
    /// per-box marker (the first reason a box left the batch path
    /// sticks; `batch` only while it never did).
    pub(crate) fn note_path(&mut self, b: BoxId, path: BoxPath) {
        let slot = match path {
            BoxPath::Batch => 0,
            BoxPath::Row(why) => 1 + why as usize,
        };
        self.path_counts[slot] += 1;
        let marker = self.profile.paths.entry(b).or_insert(path);
        if *marker == BoxPath::Batch {
            *marker = path;
        }
    }

    /// One registry update per execution for the path tallies.
    fn flush_path_counts(&self, metrics: &Registry) {
        if metrics.is_noop() {
            return;
        }
        metrics.counter("exec.batch.boxes").add(self.path_counts[0]);
        for why in Fallback::ALL {
            let n = self.path_counts[1 + why as usize];
            if n > 0 {
                metrics
                    .counter(&format!("exec.batch.fallback.{}", why.name()))
                    .add(n);
            }
        }
    }

    /// The output columns of `b` some consumer reads; `None` is all of
    /// them (the top box).
    pub(crate) fn live_columns(&self, b: BoxId) -> Option<&'a [bool]> {
        self.plan.get(b).live.as_deref()
    }

    /// The stage's index probe, if it has one and the `combos`
    /// combinations are few against the table: the access-path choice
    /// a System-R optimizer would make, and the reason correlated
    /// evaluation is fast on selective outers (Table 1, Exp A). The one
    /// join decision left to run time — it depends on the data.
    pub(crate) fn index_probe<'p>(
        &self,
        stage: &'p Stage,
        combos: usize,
    ) -> Option<&'p IndexProbe> {
        let probe = stage.index.as_ref()?;
        let rows = self
            .catalog
            .table(&probe.table)
            .map_or(0, starmagic_catalog::Table::row_count);
        (combos.saturating_mul(4) < rows.max(1)).then_some(probe)
    }

    /// Flush one columnar select's batch telemetry. Called only after
    /// the columnar path succeeds (a fallback run contributes nothing),
    /// and free when metrics are off.
    pub(crate) fn note_batch_stats(
        &self,
        batches: u64,
        gather: u64,
        rows: &[u64],
        selectivity: &[u64],
    ) {
        if self.batch_runs.is_noop() {
            return;
        }
        self.batch_runs.add(batches);
        self.batch_gather.add(gather);
        for &r in rows {
            self.batch_rows.record(r);
        }
        for &s in selectivity {
            self.batch_selectivity.record(s);
        }
    }

    /// Whether `b`'s subtree reads a quantifier bound outside it.
    pub(crate) fn is_correlated(&self, b: BoxId) -> bool {
        self.plan.get(b).correlated
    }

    /// Evaluate a box under a frame. Uncorrelated boxes are cached.
    pub fn eval_box(&mut self, b: BoxId, frame: &Frame<'_>) -> Result<Arc<BoxOutput>> {
        // During fixpoint iteration, a recursive reference yields the
        // rows accumulated so far.
        if self.in_fixpoint.contains(&b) {
            return Ok(self
                .recursive_acc
                .get(&b)
                .cloned()
                .unwrap_or_else(|| Arc::new(BoxOutput::from_rows(Vec::new()))));
        }
        // A non-driver member of an active semi-naive fixpoint: always
        // evaluate fresh (its inputs include the round's delta) and
        // never dispatch a nested fixpoint on it.
        if self.no_cache.contains(&b) {
            self.profile.entry(b).evals += 1;
            let out = Arc::new(self.eval_inner(b, frame)?);
            self.profile.entry(b).rows_out += out.len() as u64;
            return Ok(out);
        }
        let lowered = self.plan.get(b);
        if !lowered.correlated {
            if let Some(out) = self.cache.get(&b) {
                return Ok(out.clone());
            }
        }
        let timer = self.profile.timing.then(Instant::now);
        self.profile.entry(b).evals += 1;
        let out = if lowered.fixpoint.is_some() {
            self.fixpoint(b, frame)?
        } else {
            Arc::new(self.eval_inner(b, frame)?)
        };
        {
            let p = self.profile.entry(b);
            p.rows_out += out.len() as u64;
            if let Some(t) = timer {
                p.elapsed += t.elapsed();
            }
        }
        if !lowered.correlated {
            self.cache.insert(b, out.clone());
        }
        Ok(out)
    }

    pub(crate) fn eval_inner(&mut self, b: BoxId, frame: &Frame<'_>) -> Result<BoxOutput> {
        let qb = self.qgm.boxed(b);
        let (out, path) = match (&self.plan.get(b).op, &qb.kind) {
            (Op::Scan, BoxKind::BaseTable { table }) => {
                // Rows borrowed in place; the batch, if a consumer asks
                // for one, is the cached one (`batch_of`).
                let t = self.catalog.table_arc(table)?;
                self.profile.entry(b).rows_scanned += t.row_count() as u64;
                let out = BoxOutput::from_source(RowSource::Table(t.clone()));
                (out, BoxPath::Batch)
            }
            (Op::Select(select), BoxKind::Select) => {
                let left = if self.columnar {
                    match crate::columnar::try_eval_select(self, b, select, frame)? {
                        Ok(out) => {
                            self.note_path(b, BoxPath::Batch);
                            return Ok(out);
                        }
                        Err(why) => why,
                    }
                } else {
                    Fallback::ColumnarOff
                };
                let rows = self.eval_select(b, select, frame)?;
                (BoxOutput::from_rows(rows), BoxPath::Row(left))
            }
            (Op::GroupBy(lowered), BoxKind::GroupBy(spec)) => {
                return self.eval_groupby(b, spec, lowered, frame)
            }
            (Op::Rows, BoxKind::SetOp(_)) => (
                BoxOutput::from_rows(self.eval_setop(b, frame)?),
                BoxPath::Row(Fallback::RowOperator),
            ),
            (Op::Rows, BoxKind::OuterJoin(_)) => (
                BoxOutput::from_rows(self.eval_outerjoin(b, frame)?),
                BoxPath::Row(Fallback::RowOperator),
            ),
            _ => {
                return Err(Error::internal(format!(
                    "{b} was lowered as another kind of box"
                )))
            }
        };
        self.note_path(b, path);
        Ok(out)
    }

    // ---- outer joins -----------------------------------------------------

    /// LEFT OUTER JOIN: every preserved-side row appears, joined with
    /// its ON matches or padded with NULLs.
    fn eval_outerjoin(&mut self, b: BoxId, frame: &Frame<'_>) -> Result<Vec<Row>> {
        let qb = self.qgm.boxed(b);
        let BoxKind::OuterJoin(spec) = qb.kind.clone() else {
            return Err(Error::internal("eval_outerjoin on wrong kind"));
        };
        let pq = qb.quants[0];
        let nq = qb.quants[1];
        let preserved = self.eval_rows(self.qgm.quant(pq).input, frame)?;
        let nullside = self.eval_rows(self.qgm.quant(nq).input, frame)?;
        self.profile.entry(b).rows_in += (preserved.len() + nullside.len()) as u64;
        let null_row = Row::new(vec![
            Value::Null;
            self.qgm.boxed(self.qgm.quant(nq).input).arity()
        ]);
        let quants = [pq, nq];
        let columns = qb.columns.clone();
        let mut out = Vec::new();
        for p in preserved.rows() {
            let mut matched = false;
            for n in nullside.rows() {
                let rows = [p.clone(), n.clone()];
                let cframe = frame.extended(&quants, &rows);
                let mut ok = Truth::True;
                for on in &spec.on {
                    ok = ok.and(truth_of(&self.eval_expr(on, &cframe)?));
                    if ok == Truth::False {
                        break;
                    }
                }
                if ok.passes() {
                    matched = true;
                    let mut vals = Vec::with_capacity(columns.len());
                    for c in &columns {
                        vals.push(self.eval_expr(&c.expr, &cframe)?);
                    }
                    out.push(Row::new(vals));
                }
            }
            if !matched {
                let rows = [p.clone(), null_row.clone()];
                let cframe = frame.extended(&quants, &rows);
                let mut vals = Vec::with_capacity(columns.len());
                for c in &columns {
                    vals.push(self.eval_expr(&c.expr, &cframe)?);
                }
                out.push(Row::new(vals));
            }
        }
        self.profile.entry(b).rows_produced += out.len() as u64;
        Ok(out)
    }

    // ---- select boxes -------------------------------------------------

    fn eval_select(
        &mut self,
        b: BoxId,
        select: &SelectPlan,
        frame: &Frame<'_>,
    ) -> Result<Vec<Row>> {
        let qb = self.qgm.boxed(b);
        let preds = &qb.predicates;
        let mut bound: Vec<QuantId> = Vec::new();
        let mut combos: Vec<Vec<Row>> = vec![Vec::new()];

        for stage in &select.stages {
            let (q, child) = (stage.quant, stage.child);
            let hash_preds = &stage.hash;
            let mut next: Vec<Vec<Row>> = Vec::new();
            if let Some(probe) = self.index_probe(stage, combos.len()) {
                let pred_idx = probe.pred;
                let index = self.table_id_index(&probe.table, probe.col)?;
                let table = self.catalog.table_arc(&probe.table)?;
                let mut matched = 0;
                let rest: Vec<&(ScalarExpr, ScalarExpr)> = hash_preds
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| *i != pred_idx)
                    .map(|(_, p)| p)
                    .collect();
                let cq = [q];
                for combo in &combos {
                    let cframe = frame.extended(&bound, combo);
                    let key = self.eval_expr(&hash_preds[pred_idx].0, &cframe)?;
                    let matches = index.get(std::slice::from_ref(&key));
                    matched += matches.len() as u64;
                    'probe: for m in matches.iter().map(|&id| &table.rows()[id as usize]) {
                        // Remaining equality predicates filter here.
                        for &(probe, build) in &rest {
                            let pv = self.eval_expr(probe, &cframe)?;
                            let mrows = [m.clone()];
                            let mframe = frame.extended(&cq, &mrows);
                            let bv = self.eval_expr(build, &mframe)?;
                            if !pv.sql_eq(&bv).passes() {
                                continue 'probe;
                            }
                        }
                        let mut c = combo.clone();
                        c.push(m.clone());
                        next.push(c);
                    }
                }
                // Probed rows are charged to the base table being
                // probed, not the probing select box.
                if matched > 0 {
                    self.profile.entry(child).rows_scanned += matched;
                    self.profile.entry(b).rows_in += matched;
                }
            } else if !hash_preds.is_empty() {
                // Hash join: build on the child once, probe per combo.
                // (A step arm rebuilds here every round; only the batch
                // path keeps a build for the fixpoint.)
                let child_rows = self.eval_rows(child, frame)?;
                self.profile.entry(b).rows_in += child_rows.len() as u64;
                if self.step_build_site(b, child) {
                    self.note_step_build(b, false);
                }
                let mut table: HashMap<Vec<Value>, Vec<Row>> = HashMap::new();
                let cq = [q];
                'build: for row in child_rows.rows() {
                    let crows = [row.clone()];
                    let cframe = frame.extended(&cq, &crows);
                    let mut key = Vec::with_capacity(hash_preds.len());
                    for (_, build) in hash_preds {
                        let v = self.eval_expr(build, &cframe)?;
                        if v.is_null() {
                            continue 'build; // NULL keys never join
                        }
                        key.push(v);
                    }
                    table.entry(key).or_default().push(row.clone());
                }
                // Scratch probe key, reused across combos instead of
                // allocated per probe row (this loop is the hottest
                // allocation site in the join path).
                let mut key: Vec<Value> = Vec::with_capacity(hash_preds.len());
                'probe_combo: for combo in &combos {
                    let cframe = frame.extended(&bound, combo);
                    key.clear();
                    for (probe, _) in hash_preds {
                        let v = self.eval_expr(probe, &cframe)?;
                        if v.is_null() {
                            continue 'probe_combo;
                        }
                        key.push(v);
                    }
                    if let Some(matches) = table.get(&key) {
                        for m in matches {
                            let mut c = combo.clone();
                            c.push(m.clone());
                            next.push(c);
                        }
                    }
                }
            } else {
                // Nested loop; the child may be correlated, in which
                // case it is re-evaluated per combo (tuple-at-a-time).
                let prefetched = if stage.child_correlated {
                    None
                } else {
                    let rows = self.eval_rows(child, frame)?;
                    self.profile.entry(b).rows_in += rows.len() as u64;
                    Some(rows)
                };
                for combo in &combos {
                    let child_rows = match &prefetched {
                        Some(rows) => rows.clone(),
                        None => {
                            let cframe = frame.extended(&bound, combo);
                            let rows = self.eval_rows(child, &cframe)?;
                            self.profile.entry(b).rows_in += rows.len() as u64;
                            rows
                        }
                    };
                    for row in child_rows.rows() {
                        let mut c = combo.clone();
                        c.push(row.clone());
                        next.push(c);
                    }
                }
            }
            bound.push(q);

            // Apply every predicate that just became available.
            let mut filtered: Vec<Vec<Row>> = Vec::with_capacity(next.len());
            let ready = &stage.ready;
            if ready.is_empty() {
                filtered = next;
            } else {
                'row: for combo in next {
                    let cframe = frame.extended(&bound, &combo);
                    for &i in ready {
                        let v = self.eval_expr(&preds[i], &cframe)?;
                        if !truth_of(&v).passes() {
                            continue 'row;
                        }
                    }
                    filtered.push(combo);
                }
            }
            combos = filtered;
            self.profile.entry(b).rows_produced += combos.len() as u64;
        }

        // Residual predicates: anything no stage applied (subquery
        // tests, purely-correlated predicates, ...).
        let residual = &select.residual;
        let mut result: Vec<Row> = Vec::with_capacity(combos.len());
        'combo: for combo in &combos {
            let cframe = frame.extended(&bound, combo);
            for &i in residual {
                let v = self.eval_expr(&preds[i], &cframe)?;
                if !truth_of(&v).passes() {
                    continue 'combo;
                }
            }
            // Project.
            let mut out = Vec::with_capacity(qb.columns.len());
            for c in &qb.columns {
                out.push(self.eval_expr(&c.expr, &cframe)?);
            }
            result.push(Row::new(out));
        }
        self.profile.entry(b).rows_produced += result.len() as u64;

        if qb.distinct.needs_dedup() {
            result = dedupe(result);
        }
        Ok(result)
    }

    // ---- group-by boxes -------------------------------------------------

    /// Group-by: keys and aggregate arguments — compiled when the plan
    /// was lowered — are evaluated as whole columns over the child's
    /// batch, then [`hash_aggregate`] groups and folds them. The child
    /// is asked for a batch whatever produced it — a row-path child
    /// gets one over its rows, of which only the referenced columns are
    /// ever built — so set-up per evaluation is O(referenced columns):
    /// the correlated formulations re-enter here once per outer row.
    fn eval_groupby(
        &mut self,
        b: BoxId,
        spec: &GroupByBox,
        lowered: &GroupByPlan,
        frame: &Frame<'_>,
    ) -> Result<BoxOutput> {
        let tq = self.qgm.boxed(b).quants[0];
        let child = self.qgm.quant(tq).input;
        let input = self.eval_box(child, frame)?;
        let n = input.len();
        self.profile.entry(b).rows_in += n as u64;

        // Every expression, in the order the row-at-a-time definition
        // evaluates them per row: keys, then arguments.
        let exprs = spec
            .group_keys
            .iter()
            .chain(spec.aggs.iter().filter_map(|a| a.arg.as_ref()));
        let outer = lowered.outer.resolve(frame);
        let env = Env {
            params: frame.params(),
            outer: &outer,
        };
        let batch = self.batch_of(child, &input)?;
        let ids: Vec<u32> = (0..n as u32).collect();
        let slots = [SlotView {
            batch: &batch,
            ids: &ids,
        }];
        let mut path = BoxPath::Batch;
        let mut vectors: Vec<Vector> = Vec::new();
        // The first (row, expression) at which evaluation fails; rows
        // from there on never reach the fold.
        let mut failed: Option<(usize, Error)> = None;
        for (e, compiled) in exprs.zip(&lowered.exprs) {
            let vectorized = match &compiled.kernel {
                Some((v, needs)) if needs.iter().all(|&k| outer[k].is_some()) => {
                    vector::eval(v, &slots, &ids, env).map_err(|_| Fallback::KernelError)
                }
                _ => Err(compiled.fallback),
            };
            vectors.push(match vectorized {
                Ok(v) => v,
                Err(why) => {
                    // Kernel of last resort: the scalar evaluator, row
                    // by row, up to the first row that fails.
                    if path == BoxPath::Batch {
                        path = BoxPath::Row(why);
                    }
                    let rows = self.rows_of(child, &input);
                    let limit = failed.as_ref().map_or(n, |(row, _)| *row);
                    let (values, error) = self.eval_column(e, tq, &rows[..limit], frame);
                    if let Some(error) = error {
                        failed = Some((values.len(), error));
                    }
                    Vector::Col(Column::Mixed(values))
                }
            });
        }
        self.note_path(b, path);

        let (keys, args) = vectors.split_at(spec.group_keys.len());
        let mut args = args.iter();
        let aggs: Vec<AggInput<'_>> = spec
            .aggs
            .iter()
            .map(|a| AggInput {
                func: a.func,
                distinct: a.distinct,
                arg: a.arg.as_ref().and_then(|_| args.next()),
            })
            .collect();
        // A fold fails on a row before `limit`, so its error comes first.
        let limit = failed.as_ref().map_or(n, |(row, _)| *row);
        let groups = hash_aggregate(keys, &aggs, limit)?;
        if let Some((_, error)) = failed {
            return Err(error);
        }
        self.profile.entry(b).rows_produced += (n + groups.len()) as u64;
        Ok(BoxOutput::from_rows(groups))
    }

    /// Evaluate `e` once per row of `rows` (bound to `quant`) with the
    /// scalar evaluator, stopping at the first error.
    fn eval_column(
        &mut self,
        e: &ScalarExpr,
        quant: QuantId,
        rows: &[Row],
        frame: &Frame<'_>,
    ) -> (Vec<Value>, Option<Error>) {
        let quants = [quant];
        let mut values = Vec::with_capacity(rows.len());
        for row in rows {
            let bound = [row.clone()];
            match self.eval_expr(e, &frame.extended(&quants, &bound)) {
                Ok(v) => values.push(v),
                Err(error) => return (values, Some(error)),
            }
        }
        (values, None)
    }

    // ---- set operations -------------------------------------------------

    fn eval_setop(&mut self, b: BoxId, frame: &Frame<'_>) -> Result<Vec<Row>> {
        let qb = self.qgm.boxed(b);
        let BoxKind::SetOp(spec) = qb.kind else {
            return Err(Error::internal("eval_setop on non-setop box"));
        };
        let arms: Vec<Arc<BoxOutput>> = qb
            .quants
            .iter()
            .map(|&q| self.eval_rows(self.qgm.quant(q).input, frame))
            .collect::<Result<_>>()?;
        let arm_rows: Vec<&[Row]> = arms.iter().map(|a| a.rows()).collect();
        self.profile.entry(b).rows_in += arm_rows.iter().map(|a| a.len() as u64).sum::<u64>();
        let mut result = match (spec.op, spec.all) {
            (SetOpKind::Union, true) => {
                let mut out = Vec::new();
                for arm in &arm_rows {
                    out.extend(arm.iter().cloned());
                }
                out
            }
            (SetOpKind::Union, false) => {
                let mut out = Vec::new();
                for arm in &arm_rows {
                    out.extend(arm.iter().cloned());
                }
                dedupe(out)
            }
            (SetOpKind::Except, all) => {
                let mut counts: HashMap<Row, i64> = HashMap::new();
                for arm in arm_rows.iter().skip(1) {
                    for r in arm.iter() {
                        *counts.entry(r.clone()).or_insert(0) += 1;
                    }
                }
                let left = arm_rows.first().copied().unwrap_or_default();
                if all {
                    // Bag difference: remove one occurrence per match.
                    let mut out = Vec::new();
                    for r in left.iter() {
                        match counts.get_mut(r) {
                            Some(c) if *c > 0 => *c -= 1,
                            _ => out.push(r.clone()),
                        }
                    }
                    out
                } else {
                    let kept = left.iter().filter(|r| !counts.contains_key(r));
                    dedupe(kept.cloned().collect())
                }
            }
            (SetOpKind::Intersect, all) => {
                let mut counts: HashMap<Row, i64> = HashMap::new();
                if let Some(right) = arm_rows.get(1) {
                    for r in right.iter() {
                        *counts.entry(r.clone()).or_insert(0) += 1;
                    }
                }
                let left = arm_rows.first().copied().unwrap_or_default();
                if all {
                    let mut out = Vec::new();
                    for r in left.iter() {
                        if let Some(c) = counts.get_mut(r) {
                            if *c > 0 {
                                *c -= 1;
                                out.push(r.clone());
                            }
                        }
                    }
                    out
                } else {
                    let kept = left.iter().filter(|r| counts.contains_key(r));
                    dedupe(kept.cloned().collect())
                }
            }
        };
        // Extra union arms beyond two are handled above for UNION; for
        // EXCEPT/INTERSECT the builder produces binary boxes, but a
        // magic union may have many arms (already covered by the UNION
        // path).
        if qb.distinct.needs_dedup() {
            result = dedupe(result);
        }
        self.profile.entry(b).rows_produced += result.len() as u64;
        Ok(result)
    }

    // ---- expressions -------------------------------------------------

    /// Evaluate a scalar expression. Unknown truth is represented as
    /// NULL (SQL's boolean domain).
    pub fn eval_expr(&mut self, e: &ScalarExpr, frame: &Frame<'_>) -> Result<Value> {
        match e {
            ScalarExpr::ColRef { quant, col } => {
                if let Some(row) = frame.lookup(*quant) {
                    return Ok(row.get(*col).clone());
                }
                // A scalar subquery quantifier evaluates on demand.
                if self.qgm.quant(*quant).kind == QuantKind::Scalar {
                    let rows = self.eval_rows(self.qgm.quant(*quant).input, frame)?;
                    return match rows.len() {
                        0 => Ok(Value::Null),
                        1 => Ok(rows.rows()[0].get(*col).clone()),
                        n => Err(Error::execution(format!(
                            "scalar subquery returned {n} rows"
                        ))),
                    };
                }
                Err(Error::internal(format!(
                    "unbound quantifier {quant} in expression"
                )))
            }
            ScalarExpr::Literal(v) => Ok(v.clone()),
            ScalarExpr::Param(i) => frame.param(*i),
            ScalarExpr::Bin { op, left, right } => self.eval_bin(*op, left, right, frame),
            ScalarExpr::Neg(x) => {
                let v = self.eval_expr(x, frame)?;
                if v.is_null() {
                    Ok(Value::Null)
                } else {
                    Value::Int(0).arith('-', &v)
                }
            }
            ScalarExpr::Not(x) => {
                let v = self.eval_expr(x, frame)?;
                Ok(truth_to_value(truth_of(&v).not()))
            }
            ScalarExpr::IsNull { expr, negated } => {
                let v = self.eval_expr(expr, frame)?;
                Ok(Value::Bool(v.is_null() != *negated))
            }
            ScalarExpr::Like {
                expr,
                pattern,
                negated,
            } => {
                let v = self.eval_expr(expr, frame)?;
                match v {
                    Value::Null => Ok(Value::Null),
                    Value::Str(s) => Ok(Value::Bool(like_match(&s, pattern) != *negated)),
                    other => Err(Error::execution(format!("LIKE on non-string {other}"))),
                }
            }
            ScalarExpr::Agg { .. } => Err(Error::internal(
                "aggregate call outside a group-by box".to_string(),
            )),
            ScalarExpr::Quantified { mode, quant, preds } => {
                let t = self.eval_quantified(*mode, *quant, preds, frame)?;
                Ok(truth_to_value(t))
            }
        }
    }

    fn eval_bin(
        &mut self,
        op: BinOp,
        left: &ScalarExpr,
        right: &ScalarExpr,
        frame: &Frame<'_>,
    ) -> Result<Value> {
        match op {
            BinOp::And => {
                let l = truth_of(&self.eval_expr(left, frame)?);
                // Short circuit only on False (Unknown must still look
                // right to distinguish False from Unknown).
                if l == Truth::False {
                    return Ok(Value::Bool(false));
                }
                let r = truth_of(&self.eval_expr(right, frame)?);
                Ok(truth_to_value(l.and(r)))
            }
            BinOp::Or => {
                let l = truth_of(&self.eval_expr(left, frame)?);
                if l == Truth::True {
                    return Ok(Value::Bool(true));
                }
                let r = truth_of(&self.eval_expr(right, frame)?);
                Ok(truth_to_value(l.or(r)))
            }
            BinOp::Eq | BinOp::Neq | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
                let l = self.eval_expr(left, frame)?;
                let r = self.eval_expr(right, frame)?;
                let t = match op {
                    BinOp::Eq => l.sql_eq(&r),
                    BinOp::Neq => l.sql_eq(&r).not(),
                    _ => match l.sql_cmp(&r) {
                        None => Truth::Unknown,
                        Some(ord) => match op {
                            BinOp::Lt => (ord == std::cmp::Ordering::Less).into(),
                            BinOp::Le => (ord != std::cmp::Ordering::Greater).into(),
                            BinOp::Gt => (ord == std::cmp::Ordering::Greater).into(),
                            BinOp::Ge => (ord != std::cmp::Ordering::Less).into(),
                            _ => unreachable!(),
                        },
                    },
                };
                Ok(truth_to_value(t))
            }
            BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div => {
                let l = self.eval_expr(left, frame)?;
                let r = self.eval_expr(right, frame)?;
                let ch = match op {
                    BinOp::Add => '+',
                    BinOp::Sub => '-',
                    BinOp::Mul => '*',
                    BinOp::Div => '/',
                    _ => unreachable!(),
                };
                l.arith(ch, &r)
            }
        }
    }

    /// SQL semantics of quantified subquery tests. For existential
    /// tests with equality predicates over an uncorrelated subquery,
    /// a hash semi-join index replaces the per-row scan — the
    /// set-oriented evaluation that makes magic-decorrelated and
    /// uncorrelated `IN` subqueries cheap.
    fn eval_quantified(
        &mut self,
        mode: QuantMode,
        quant: QuantId,
        preds: &[ScalarExpr],
        frame: &Frame<'_>,
    ) -> Result<Truth> {
        if mode == QuantMode::Exists {
            if let Some(t) = self.eval_quantified_hashed(quant, preds, frame)? {
                return Ok(t);
            }
        }
        let out = self.eval_rows(self.qgm.quant(quant).input, frame)?;
        let rows = out.rows();
        let quants = [quant];
        let mut any_unknown = false;
        match mode {
            QuantMode::Exists => {
                if preds.is_empty() {
                    return Ok((!rows.is_empty()).into());
                }
                for r in rows.iter() {
                    let rr = [r.clone()];
                    let cframe = frame.extended(&quants, &rr);
                    let mut t = Truth::True;
                    for p in preds {
                        t = t.and(truth_of(&self.eval_expr(p, &cframe)?));
                        if t == Truth::False {
                            break;
                        }
                    }
                    match t {
                        Truth::True => return Ok(Truth::True),
                        Truth::Unknown => any_unknown = true,
                        Truth::False => {}
                    }
                }
                Ok(if any_unknown {
                    Truth::Unknown
                } else {
                    Truth::False
                })
            }
            QuantMode::ForAll => {
                for r in rows.iter() {
                    let rr = [r.clone()];
                    let cframe = frame.extended(&quants, &rr);
                    let mut t = Truth::True;
                    for p in preds {
                        t = t.and(truth_of(&self.eval_expr(p, &cframe)?));
                        if t == Truth::False {
                            break;
                        }
                    }
                    match t {
                        Truth::False => return Ok(Truth::False),
                        Truth::Unknown => any_unknown = true,
                        Truth::True => {}
                    }
                }
                Ok(if any_unknown {
                    Truth::Unknown
                } else {
                    Truth::True
                })
            }
        }
    }
}

/// SQL boolean domain: NULL is Unknown.
pub fn truth_of(v: &Value) -> Truth {
    match v {
        Value::Null => Truth::Unknown,
        Value::Bool(b) => (*b).into(),
        // Non-boolean in a predicate position: treat as an error-free
        // false (the frontend rejects these; the executor stays total).
        _ => Truth::False,
    }
}

pub(crate) fn truth_to_value(t: Truth) -> Value {
    match t {
        Truth::True => Value::Bool(true),
        Truth::False => Value::Bool(false),
        Truth::Unknown => Value::Null,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use starmagic_catalog::{Catalog, ColumnDef, Table, TableSchema, ViewDef};
    use starmagic_common::DataType;
    use starmagic_qgm::build_qgm;

    /// Tiny hand-rolled catalog with known contents.
    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.add_table(
            Table::with_rows(
                TableSchema::new(
                    "dept",
                    vec![
                        ColumnDef::new("deptno", DataType::Int),
                        ColumnDef::new("name", DataType::Str),
                    ],
                )
                .with_key(&["deptno"])
                .unwrap(),
                vec![
                    Row::new(vec![Value::Int(1), Value::str("Planning")]),
                    Row::new(vec![Value::Int(2), Value::str("Sales")]),
                    Row::new(vec![Value::Int(3), Value::str("Legal")]),
                ],
            )
            .unwrap(),
        )
        .unwrap();
        c.add_table(
            Table::with_rows(
                TableSchema::new(
                    "emp",
                    vec![
                        ColumnDef::new("empno", DataType::Int),
                        ColumnDef::new("deptno", DataType::Int),
                        ColumnDef::new("salary", DataType::Int),
                        ColumnDef::new("bonus", DataType::Int),
                    ],
                )
                .with_key(&["empno"])
                .unwrap(),
                vec![
                    Row::new(vec![
                        Value::Int(10),
                        Value::Int(1),
                        Value::Int(100),
                        Value::Int(5),
                    ]),
                    Row::new(vec![
                        Value::Int(11),
                        Value::Int(1),
                        Value::Int(200),
                        Value::Null,
                    ]),
                    Row::new(vec![
                        Value::Int(12),
                        Value::Int(2),
                        Value::Int(300),
                        Value::Int(7),
                    ]),
                    Row::new(vec![
                        Value::Int(13),
                        Value::Null,
                        Value::Int(400),
                        Value::Int(9),
                    ]),
                ],
            )
            .unwrap(),
        )
        .unwrap();
        c.add_table(
            Table::with_rows(
                TableSchema::new(
                    "edge",
                    vec![
                        ColumnDef::new("src", DataType::Int),
                        ColumnDef::new("dst", DataType::Int),
                    ],
                )
                .with_key(&["src", "dst"])
                .unwrap(),
                vec![
                    Row::new(vec![Value::Int(1), Value::Int(2)]),
                    Row::new(vec![Value::Int(2), Value::Int(3)]),
                    Row::new(vec![Value::Int(3), Value::Int(4)]),
                ],
            )
            .unwrap(),
        )
        .unwrap();
        c
    }

    fn run(cat: &Catalog, sql_text: &str) -> Vec<Row> {
        let g = build_qgm(cat, &starmagic_sql::parse_query(sql_text).unwrap()).unwrap();
        let mut rows = execute(&g, cat).unwrap();
        rows.sort_by(starmagic_common::Row::group_cmp);
        rows
    }

    fn ints(rows: &[Row]) -> Vec<Vec<i64>> {
        rows.iter()
            .map(|r| {
                r.values()
                    .iter()
                    .map(|v| match v {
                        Value::Int(i) => *i,
                        Value::Double(d) => *d as i64,
                        Value::Null => -999,
                        other => panic!("unexpected {other}"),
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn scan_and_filter() {
        let cat = catalog();
        let rows = run(&cat, "SELECT empno FROM emp WHERE salary > 150");
        assert_eq!(ints(&rows), vec![vec![11], vec![12], vec![13]]);
    }

    #[test]
    fn join_with_null_keys_never_matches() {
        let cat = catalog();
        // emp 13 has NULL deptno: excluded by the join.
        let rows = run(
            &cat,
            "SELECT e.empno FROM emp e, dept d WHERE e.deptno = d.deptno",
        );
        assert_eq!(ints(&rows), vec![vec![10], vec![11], vec![12]]);
    }

    #[test]
    fn projection_expressions() {
        let cat = catalog();
        let rows = run(&cat, "SELECT empno + 1000 FROM emp WHERE empno = 10");
        assert_eq!(ints(&rows), vec![vec![1010]]);
    }

    #[test]
    fn null_arithmetic_propagates() {
        let cat = catalog();
        let rows = run(&cat, "SELECT salary + bonus FROM emp WHERE empno = 11");
        assert!(rows[0].get(0).is_null());
    }

    #[test]
    fn where_null_comparison_filters_row() {
        let cat = catalog();
        // bonus IS NULL for 11: bonus > 0 is Unknown → filtered.
        let rows = run(&cat, "SELECT empno FROM emp WHERE bonus > 0");
        assert_eq!(ints(&rows), vec![vec![10], vec![12], vec![13]]);
    }

    #[test]
    fn distinct_dedupes_with_null_group() {
        let cat = catalog();
        let rows = run(&cat, "SELECT DISTINCT deptno FROM emp");
        // 1, 1, 2, NULL → {NULL, 1, 2}
        assert_eq!(rows.len(), 3);
        assert!(rows[0].get(0).is_null());
    }

    #[test]
    fn group_by_with_avg_and_null_keys() {
        let cat = catalog();
        let rows = run(&cat, "SELECT deptno, AVG(salary) FROM emp GROUP BY deptno");
        // groups: NULL → 400, 1 → 150, 2 → 300
        assert_eq!(rows.len(), 3);
        let m: Vec<(String, f64)> = rows
            .iter()
            .map(|r| (r.get(0).to_string(), r.get(1).as_f64().unwrap()))
            .collect();
        assert!(m.contains(&("NULL".into(), 400.0)));
        assert!(m.contains(&("1".into(), 150.0)));
        assert!(m.contains(&("2".into(), 300.0)));
    }

    #[test]
    fn having_filters_groups() {
        let cat = catalog();
        let rows = run(
            &cat,
            "SELECT deptno, COUNT(*) FROM emp GROUP BY deptno HAVING COUNT(*) > 1",
        );
        assert_eq!(ints(&rows), vec![vec![1, 2]]);
    }

    #[test]
    fn global_aggregate_on_empty_input() {
        let cat = catalog();
        let rows = run(
            &cat,
            "SELECT COUNT(*), SUM(salary) FROM emp WHERE salary > 10000",
        );
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].get(0), &Value::Int(0));
        assert!(rows[0].get(1).is_null());
    }

    #[test]
    fn exists_subquery_correlated() {
        let cat = catalog();
        let rows = run(
            &cat,
            "SELECT d.name FROM dept d WHERE EXISTS \
             (SELECT 1 FROM emp e WHERE e.deptno = d.deptno)",
        );
        assert_eq!(rows.len(), 2); // Planning, Sales
    }

    #[test]
    fn not_exists_subquery() {
        let cat = catalog();
        let rows = run(
            &cat,
            "SELECT d.name FROM dept d WHERE NOT EXISTS \
             (SELECT 1 FROM emp e WHERE e.deptno = d.deptno)",
        );
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].get(0), &Value::str("Legal"));
    }

    #[test]
    fn in_subquery_with_nulls() {
        let cat = catalog();
        let rows = run(
            &cat,
            "SELECT name FROM dept WHERE deptno IN (SELECT deptno FROM emp)",
        );
        assert_eq!(rows.len(), 2);
    }

    #[test]
    fn not_in_with_null_in_subquery_is_empty() {
        let cat = catalog();
        // emp.deptno contains NULL → d NOT IN (...) is never True.
        let rows = run(
            &cat,
            "SELECT name FROM dept WHERE deptno NOT IN (SELECT deptno FROM emp)",
        );
        assert!(rows.is_empty(), "SQL NOT IN with NULL: no rows");
    }

    #[test]
    fn not_in_without_nulls_works() {
        let cat = catalog();
        let rows = run(
            &cat,
            "SELECT name FROM dept WHERE deptno NOT IN \
             (SELECT deptno FROM emp WHERE deptno IS NOT NULL)",
        );
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].get(0), &Value::str("Legal"));
    }

    #[test]
    fn scalar_subquery_value_and_empty() {
        let cat = catalog();
        let rows = run(
            &cat,
            "SELECT e.empno FROM emp e WHERE e.salary > \
             (SELECT AVG(salary) FROM emp f WHERE f.deptno = e.deptno)",
        );
        // dept 1 avg 150 → 11 qualifies; dept 2 avg 300 → no; NULL dept avg 400 → no.
        assert_eq!(ints(&rows), vec![vec![11]]);
    }

    #[test]
    fn all_quantifier() {
        let cat = catalog();
        let rows = run(
            &cat,
            "SELECT empno FROM emp WHERE salary >= ALL (SELECT salary FROM emp)",
        );
        assert_eq!(ints(&rows), vec![vec![13]]);
    }

    #[test]
    fn any_quantifier() {
        let cat = catalog();
        let rows = run(
            &cat,
            "SELECT empno FROM emp WHERE salary < ANY (SELECT salary FROM emp WHERE deptno = 2)",
        );
        assert_eq!(ints(&rows), vec![vec![10], vec![11]]);
    }

    #[test]
    fn union_dedupes_union_all_does_not() {
        let cat = catalog();
        let rows = run(
            &cat,
            "SELECT deptno FROM dept UNION SELECT deptno FROM dept",
        );
        assert_eq!(rows.len(), 3);
        let rows = run(
            &cat,
            "SELECT deptno FROM dept UNION ALL SELECT deptno FROM dept",
        );
        assert_eq!(rows.len(), 6);
    }

    #[test]
    fn except_and_intersect() {
        let cat = catalog();
        let rows = run(
            &cat,
            "SELECT deptno FROM dept EXCEPT SELECT deptno FROM emp WHERE deptno IS NOT NULL",
        );
        assert_eq!(ints(&rows), vec![vec![3]]);
        let rows = run(
            &cat,
            "SELECT deptno FROM dept INTERSECT SELECT deptno FROM emp WHERE deptno IS NOT NULL",
        );
        assert_eq!(ints(&rows), vec![vec![1], vec![2]]);
    }

    #[test]
    fn except_all_is_bag_difference() {
        let cat = catalog();
        // emp deptnos: 1,1,2,NULL ; dept deptnos: 1,2,3
        let rows = run(
            &cat,
            "SELECT deptno FROM emp EXCEPT ALL SELECT deptno FROM dept",
        );
        // multiset {1,1,2,NULL} - {1,2,3} = {1, NULL}
        assert_eq!(rows.len(), 2);
    }

    #[test]
    fn like_predicate() {
        let cat = catalog();
        let rows = run(&cat, "SELECT name FROM dept WHERE name LIKE 'P%'");
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].get(0), &Value::str("Planning"));
    }

    #[test]
    fn between_and_inlist() {
        let cat = catalog();
        let rows = run(
            &cat,
            "SELECT empno FROM emp WHERE salary BETWEEN 150 AND 350",
        );
        assert_eq!(ints(&rows), vec![vec![11], vec![12]]);
        let rows = run(&cat, "SELECT empno FROM emp WHERE empno IN (10, 13, 99)");
        assert_eq!(ints(&rows), vec![vec![10], vec![13]]);
    }

    #[test]
    fn view_expansion_executes() {
        let mut cat = catalog();
        cat.add_view(
            ViewDef::new(
                "rich",
                vec!["empno".into(), "deptno".into()],
                "SELECT empno, deptno FROM emp WHERE salary >= 200",
                false,
            )
            .unwrap(),
        )
        .unwrap();
        let rows = run(
            &cat,
            "SELECT r.empno FROM rich r, dept d WHERE r.deptno = d.deptno",
        );
        assert_eq!(ints(&rows), vec![vec![11], vec![12]]);
    }

    #[test]
    fn recursive_transitive_closure() {
        let mut cat = catalog();
        cat.add_view(
            ViewDef::new(
                "reach",
                vec!["src".into(), "dst".into()],
                "SELECT src, dst FROM edge \
                       UNION SELECT r.src, e.dst FROM reach r, edge e WHERE r.dst = e.src",
                true,
            )
            .unwrap(),
        )
        .unwrap();
        let rows = run(&cat, "SELECT src, dst FROM reach WHERE src = 1");
        // 1→2, 1→3, 1→4
        assert_eq!(ints(&rows), vec![vec![1, 2], vec![1, 3], vec![1, 4]]);
    }

    #[test]
    fn metrics_count_work() {
        let cat = catalog();
        let g = build_qgm(
            &cat,
            &starmagic_sql::parse_query("SELECT empno FROM emp WHERE salary > 150").unwrap(),
        )
        .unwrap();
        let (_, m) = execute_with_metrics(&g, &cat).unwrap();
        assert_eq!(m.rows_scanned, 4);
        assert!(m.rows_produced >= 3);
        assert!(m.box_evals >= 2);
    }

    #[test]
    fn shared_view_materialized_once() {
        let mut cat = catalog();
        cat.add_view(
            ViewDef::new(
                "v",
                vec!["deptno".into()],
                "SELECT deptno FROM emp WHERE deptno IS NOT NULL",
                false,
            )
            .unwrap(),
        )
        .unwrap();
        let g = build_qgm(
            &cat,
            &starmagic_sql::parse_query("SELECT a.deptno FROM v a, v b WHERE a.deptno = b.deptno")
                .unwrap(),
        )
        .unwrap();
        let (_, m) = execute_with_metrics(&g, &cat).unwrap();
        // emp scanned once (view cached), not twice.
        assert_eq!(m.rows_scanned, 4);
    }

    #[test]
    fn cross_join_without_predicates() {
        let cat = catalog();
        let rows = run(&cat, "SELECT d.deptno, e.empno FROM dept d, emp e");
        assert_eq!(rows.len(), 12);
    }

    #[test]
    fn empty_in_list_never_built() {
        // Guard: parser rejects empty IN (), nothing to execute.
        assert!(starmagic_sql::parse_query("SELECT x FROM t WHERE x IN ()").is_err());
    }
}

#[cfg(test)]
mod outerjoin_fixpoint_tests {
    use super::*;
    use starmagic_catalog::{Catalog, ColumnDef, Table, TableSchema, ViewDef};
    use starmagic_common::DataType;
    use starmagic_qgm::build_qgm;

    fn graph_catalog(edges: &[(i64, i64)]) -> Catalog {
        let mut c = Catalog::new();
        c.add_table(
            Table::with_rows(
                TableSchema::new(
                    "edge",
                    vec![
                        ColumnDef::new("src", DataType::Int),
                        ColumnDef::new("dst", DataType::Int),
                    ],
                )
                .with_key(&["src", "dst"])
                .unwrap(),
                edges
                    .iter()
                    .map(|&(s, d)| Row::new(vec![Value::Int(s), Value::Int(d)]))
                    .collect(),
            )
            .unwrap(),
        )
        .unwrap();
        c.add_view(
            ViewDef::new(
                "reach",
                vec!["src".into(), "dst".into()],
                "SELECT src, dst FROM edge \
                       UNION SELECT r.src, e.dst FROM reach r, edge e WHERE r.dst = e.src",
                true,
            )
            .unwrap(),
        )
        .unwrap();
        c
    }

    fn run(cat: &Catalog, sql_text: &str) -> Vec<Row> {
        let g = build_qgm(cat, &starmagic_sql::parse_query(sql_text).unwrap()).unwrap();
        let mut rows = execute(&g, cat).unwrap();
        rows.sort_by(starmagic_common::Row::group_cmp);
        rows
    }

    #[test]
    fn fixpoint_terminates_on_cyclic_data() {
        // 1 → 2 → 3 → 1: the closure is finite despite the cycle.
        let cat = graph_catalog(&[(1, 2), (2, 3), (3, 1)]);
        let rows = run(&cat, "SELECT src, dst FROM reach WHERE src = 1");
        assert_eq!(rows.len(), 3, "1 reaches 2, 3, and itself");
    }

    #[test]
    fn fixpoint_on_empty_input_is_empty() {
        let cat = graph_catalog(&[]);
        let rows = run(&cat, "SELECT src, dst FROM reach");
        assert!(rows.is_empty());
    }

    #[test]
    fn fixpoint_long_chain() {
        let edges: Vec<(i64, i64)> = (0..30).map(|i| (i, i + 1)).collect();
        let cat = graph_catalog(&edges);
        let rows = run(&cat, "SELECT dst FROM reach WHERE src = 0");
        assert_eq!(rows.len(), 30, "0 reaches 1..=30");
    }

    #[test]
    fn aggregate_stratified_over_recursion() {
        let cat = graph_catalog(&[(1, 2), (2, 3), (1, 4)]);
        let rows = run(
            &cat,
            "SELECT src, COUNT(*) FROM reach GROUP BY src HAVING COUNT(*) >= 2",
        );
        // src 1 reaches {2,3,4}; src 2 reaches {3}.
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].get(0), &Value::Int(1));
        assert_eq!(rows[0].get(1), &Value::Int(3));
    }

    fn oj_catalog() -> Catalog {
        let mut c = Catalog::new();
        c.add_table(
            Table::with_rows(
                TableSchema::new(
                    "l",
                    vec![
                        ColumnDef::new("id", DataType::Int),
                        ColumnDef::new("k", DataType::Int),
                    ],
                )
                .with_key(&["id"])
                .unwrap(),
                vec![
                    Row::new(vec![Value::Int(1), Value::Int(10)]),
                    Row::new(vec![Value::Int(2), Value::Int(20)]),
                    Row::new(vec![Value::Int(3), Value::Null]),
                ],
            )
            .unwrap(),
        )
        .unwrap();
        c.add_table(
            Table::with_rows(
                TableSchema::new(
                    "r",
                    vec![
                        ColumnDef::new("rid", DataType::Int),
                        ColumnDef::new("k", DataType::Int),
                    ],
                )
                .with_key(&["rid"])
                .unwrap(),
                vec![
                    Row::new(vec![Value::Int(7), Value::Int(10)]),
                    Row::new(vec![Value::Int(8), Value::Int(10)]),
                ],
            )
            .unwrap(),
        )
        .unwrap();
        c
    }

    #[test]
    fn outer_join_multiplicity_and_padding() {
        let cat = oj_catalog();
        let rows = run(
            &cat,
            "SELECT l.id, r.rid FROM l LEFT OUTER JOIN r ON r.k = l.k",
        );
        // id 1 matches rid 7 and 8; ids 2 and 3 are padded.
        assert_eq!(rows.len(), 4);
        let padded = rows.iter().filter(|r| r.get(1).is_null()).count();
        assert_eq!(padded, 2);
    }

    #[test]
    fn outer_join_null_key_never_matches_but_survives() {
        let cat = oj_catalog();
        let rows = run(
            &cat,
            "SELECT l.id FROM l LEFT JOIN r ON r.k = l.k WHERE r.rid IS NULL",
        );
        // Unmatched preserved rows: id 2 (no k=20 on the right) and
        // id 3 (NULL key never matches).
        assert_eq!(rows.len(), 2);
    }

    #[test]
    fn outer_join_on_clause_with_extra_condition() {
        let cat = oj_catalog();
        let rows = run(
            &cat,
            "SELECT l.id, r.rid FROM l LEFT JOIN r ON r.k = l.k AND r.rid > 7",
        );
        // id 1 matches only rid 8 now; 2 and 3 padded.
        assert_eq!(rows.len(), 3);
        assert!(rows
            .iter()
            .any(|row| row.get(0) == &Value::Int(1) && row.get(1) == &Value::Int(8)));
    }
}

#[cfg(test)]
mod access_path_tests {
    use super::*;
    use starmagic_catalog::generator::{benchmark_catalog, Scale};
    use starmagic_qgm::build_qgm;

    #[test]
    fn selective_point_query_uses_the_index() {
        let cat = benchmark_catalog(Scale::small()).unwrap();
        let g = build_qgm(
            &cat,
            &starmagic_sql::parse_query("SELECT empname FROM employee WHERE empno = 5").unwrap(),
        )
        .unwrap();
        let (rows, m) = execute_with_metrics(&g, &cat).unwrap();
        assert_eq!(rows.len(), 1);
        // Index probe touches 1 row, not a 240-row scan.
        assert!(m.rows_scanned <= 2, "scanned {} rows", m.rows_scanned);
    }

    #[test]
    fn unselective_join_uses_hash_not_index() {
        let cat = benchmark_catalog(Scale::small()).unwrap();
        let g = build_qgm(
            &cat,
            &starmagic_sql::parse_query(
                "SELECT e.empno FROM employee e, department d WHERE e.workdept = d.deptno",
            )
            .unwrap(),
        )
        .unwrap();
        let (rows, m) = execute_with_metrics(&g, &cat).unwrap();
        assert_eq!(rows.len(), 240);
        // Both tables scanned once (hash join), no per-row probing blowup.
        assert!(
            m.rows_scanned <= 240 + 20 + 240,
            "scanned {}",
            m.rows_scanned
        );
    }

    #[test]
    fn range_predicates_cannot_use_the_index() {
        let cat = benchmark_catalog(Scale::small()).unwrap();
        let g = build_qgm(
            &cat,
            &starmagic_sql::parse_query("SELECT empno FROM employee WHERE empno < 3").unwrap(),
        )
        .unwrap();
        let (rows, m) = execute_with_metrics(&g, &cat).unwrap();
        assert_eq!(rows.len(), 3);
        assert!(m.rows_scanned >= 240, "range scan must read the table");
    }

    #[test]
    fn an_index_probe_with_a_double_literal_finds_the_int_key() {
        let cat = benchmark_catalog(Scale::small()).unwrap();
        let query = |literal: &str| {
            let sql =
                format!("SELECT deptno, deptname FROM department d WHERE d.deptno = {literal}");
            let g = build_qgm(&cat, &starmagic_sql::parse_query(&sql).unwrap()).unwrap();
            [true, false].map(|columnar| {
                let opts = ExecOptions {
                    columnar,
                    ..ExecOptions::default()
                };
                let (rows, profile) =
                    execute_with_options(&g, &cat, &IndexCache::default(), opts).unwrap();
                assert!(
                    profile.aggregate().rows_scanned <= 1,
                    "{literal}: an index probe, not a scan"
                );
                rows
            })
        };
        let [by_int, _] = query("3");
        assert_eq!(by_int.len(), 1);
        assert_eq!(query("3.0"), [by_int.clone(), by_int]);
        assert_eq!(query("2.5"), [vec![], vec![]]);
    }

    #[test]
    fn shared_index_cache_avoids_rebuild_cost() {
        let cat = benchmark_catalog(Scale::small()).unwrap();
        let g = build_qgm(
            &cat,
            &starmagic_sql::parse_query("SELECT empname FROM employee WHERE empno = 5").unwrap(),
        )
        .unwrap();
        let cache = IndexCache::default();
        let (_, m1) = execute_with_indexes(&g, &cat, &cache).unwrap();
        let (_, m2) = execute_with_indexes(&g, &cat, &cache).unwrap();
        assert_eq!(m1, m2, "metrics identical with a warm shared cache");
    }

    #[test]
    fn a_cached_structure_is_served_only_to_the_table_it_was_built_from() {
        // One cache, two versions of the database: whatever order they
        // ask in, each gets an answer over its own rows, with or
        // without the columnar path (both probe the one column index).
        let old = benchmark_catalog(Scale::small()).unwrap();
        let mut new = old.clone();
        new.table_mut("employee")
            .unwrap()
            .insert(vec![Row::new(vec![
                Value::Int(9000),
                Value::str("Late"),
                Value::Int(3),
                Value::Null,
                Value::Null,
                Value::Null,
            ])])
            .unwrap();
        let g = build_qgm(
            &old,
            &starmagic_sql::parse_query(
                "SELECT e.empno FROM department d, employee e \
                 WHERE e.workdept = d.deptno AND d.deptno = 3",
            )
            .unwrap(),
        )
        .unwrap();
        let registry = Registry::enabled();
        let run = |cache: &IndexCache, cat: &Catalog, columnar: bool| {
            let opts = ExecOptions {
                columnar,
                metrics: registry.clone(),
                ..ExecOptions::default()
            };
            execute_with_options(&g, cat, cache, opts).unwrap().0.len()
        };
        let builds = || registry.snapshot().counter("exec.index.builds");
        let cache = IndexCache::default();
        for columnar in [true, false] {
            let rows = run(&cache, &old, columnar);
            assert!(builds() > 0, "the query must probe an index");
            assert_eq!(run(&cache, &new, columnar), rows + 1, "stale structure");
            assert_eq!(run(&cache, &old, columnar), rows, "newer structure");
            // Same version twice in a row: served, not rebuilt.
            let warm = builds();
            assert_eq!(run(&cache, &old, columnar), rows);
            assert_eq!(builds(), warm);
        }
        // A clone keeps the entries and their tags...
        let mut copy = cache.clone();
        let warm = builds();
        run(&copy, &old, true);
        run(&copy, &old, false);
        assert_eq!(builds(), warm);
        // ...until the table is forgotten.
        copy.forget("employee");
        run(&copy, &old, true);
        assert!(builds() > warm);
    }
}

/// The box boundary, from the inside: what a producer hands over, to
/// whom, and that nobody outside can tell.
#[cfg(test)]
mod boundary_tests {
    use super::*;
    use starmagic_catalog::{Catalog, ColumnDef, Table, TableSchema, ViewDef};
    use starmagic_common::DataType;
    use starmagic_qgm::build_qgm;

    /// `emp(empno, deptno, salary, bonus)`: 12 rows over 3 departments,
    /// NULL bonuses, one bonus of exactly 5.
    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        let rows = (0..12i64)
            .map(|i| {
                let bonus = match i % 4 {
                    0 => Value::Null,
                    1 => Value::Int(5),
                    _ => Value::Int(i),
                };
                Row::new(vec![
                    Value::Int(100 + i),
                    Value::Int(i % 3),
                    Value::Int(1000 + 10 * i),
                    bonus,
                ])
            })
            .collect();
        let cols = ["empno", "deptno", "salary", "bonus"];
        let schema = TableSchema::new(
            "emp",
            cols.iter()
                .map(|c| ColumnDef::new(c, DataType::Int))
                .collect(),
        )
        .with_key(&["empno"])
        .unwrap();
        c.add_table(Table::with_rows(schema, rows).unwrap())
            .unwrap();
        for (name, columns, body) in [
            (
                "wide",
                &cols[..],
                "SELECT empno, deptno, salary, bonus FROM emp WHERE empno >= 100",
            ),
            (
                "pairs",
                &["deptno", "bonus"][..],
                "SELECT DISTINCT deptno, bonus FROM emp",
            ),
        ] {
            c.add_view(
                ViewDef::new(
                    name,
                    columns.iter().map(|c| (*c).to_string()).collect(),
                    body,
                    false,
                )
                .unwrap(),
            )
            .unwrap();
        }
        c
    }

    fn graph(cat: &Catalog, sql: &str) -> Qgm {
        build_qgm(cat, &starmagic_sql::parse_query(sql).unwrap()).unwrap()
    }

    fn group_by(g: &Qgm) -> BoxId {
        g.box_ids()
            .into_iter()
            .find(|&b| matches!(g.boxed(b).kind, BoxKind::GroupBy(_)))
            .expect("a group-by box")
    }

    fn named(g: &Qgm, name: &str) -> BoxId {
        g.box_ids()
            .into_iter()
            .find(|&b| g.boxed(b).name == name)
            .unwrap_or_else(|| panic!("no box named {name}"))
    }

    /// Rows and profile with the columnar knob either way.
    fn both_ways(g: &Qgm, cat: &Catalog) -> (Vec<Row>, ExecProfile) {
        let run = |columnar| {
            let opts = ExecOptions {
                columnar,
                ..ExecOptions::default()
            };
            execute_with_options(g, cat, &IndexCache::default(), opts).unwrap()
        };
        let (on, off) = (run(true), run(false));
        assert_eq!(on.0, off.0, "rows differ between the two paths");
        assert_eq!(on.1, off.1, "profile differs between the two paths");
        on
    }

    #[test]
    fn a_shared_view_is_evaluated_once_and_serves_every_parents_columns() {
        let cat = catalog();
        // `a` reads empno and deptno, `b` salary and deptno; nobody
        // reads bonus.
        let g = graph(
            &cat,
            "SELECT a.empno, b.salary FROM wide a, wide b \
             WHERE a.deptno = b.deptno AND a.empno = b.empno",
        );
        let view = named(&g, "WIDE");
        assert_eq!(g.users(view).len(), 2, "the builder shares the view box");
        let (rows, profile) = both_ways(&g, &cat);
        assert_eq!(rows.len(), 12);
        assert_eq!(profile.get(view).evals, 1);

        let plan = Plan::lower(&g);
        let mut exec = Executor::new(&g, &plan, &cat);
        exec.eval_box(g.top(), &Frame::root()).unwrap();
        assert_eq!(exec.profile.paths[&view], BoxPath::Batch);
        let out = exec.cache[&view].clone();
        assert!(!out.has_rows(), "no consumer of the view reads rows");
        let batch = out.built_batch().expect("handed over as a batch");
        let built: Vec<bool> = (0..4).map(|c| batch.is_built(c)).collect();
        assert_eq!(
            built,
            [true, true, true, false],
            "live: both parents' columns"
        );
        // A row reader gets the arity and offsets right, NULL where dead.
        assert_eq!(out.rows()[0].arity(), 4);
        assert_eq!(out.rows()[0].get(2), &Value::Int(1000));
        assert!(out.rows()[0].get(3).is_null());
    }

    #[test]
    fn a_distinct_box_keeps_its_full_width() {
        let cat = catalog();
        // Only deptno is read, but bonus decides how many rows there are.
        let g = graph(&cat, "SELECT p.deptno FROM pairs p");
        let (rows, _) = both_ways(&g, &cat);
        let pairs = named(&g, "PAIRS");
        let plan = Plan::lower(&g);
        let mut exec = Executor::new(&g, &plan, &cat);
        exec.eval_box(g.top(), &Frame::root()).unwrap();
        let out = exec.cache[&pairs].clone();
        assert_eq!(out.len(), rows.len());
        assert!(
            rows.len() > 3,
            "more (deptno, bonus) pairs than departments"
        );
        assert!(out.rows().iter().any(|r| !r.get(1).is_null()), "bonus kept");
    }

    #[test]
    fn a_correlated_aggregate_argument_reads_the_outer_row() {
        let cat = catalog();
        let g = graph(
            &cat,
            "SELECT w.empno, (SELECT SUM(e.salary + w.bonus) FROM emp e \
                              WHERE e.deptno = w.deptno) \
             FROM wide w",
        );
        let (rows, profile) = both_ways(&g, &cat);
        assert_eq!(rows.len(), 12);
        // empno 102: deptno 2, bonus 2; dept 2 holds salaries
        // 1020 + 1050 + 1080 + 1110, each plus the outer bonus.
        let r = rows.iter().find(|r| r.get(0) == &Value::Int(102)).unwrap();
        assert_eq!(r.get(1), &Value::Int(1020 + 1050 + 1080 + 1110 + 4 * 2));
        // NULL outer bonus: every addend is NULL, SUM of none is NULL.
        let r = rows.iter().find(|r| r.get(0) == &Value::Int(100)).unwrap();
        assert!(r.get(1).is_null());
        // The outer reference froze to a literal: still the batch path.
        let gb = group_by(&g);
        assert_eq!(profile.get(gb).evals, 12);
        assert_eq!(profile.paths[&gb], BoxPath::Batch);
    }

    #[test]
    fn a_kernel_error_the_scalar_evaluator_would_not_hit_is_not_an_error() {
        let cat = catalog();
        // `bonus <> 5 AND ...` short-circuits row by row; the vector
        // kernel evaluates both sides and divides by zero at bonus = 5.
        let g = graph(
            &cat,
            "SELECT deptno, COUNT(bonus <> 5 AND salary / (bonus - 5) > 1) \
             FROM emp GROUP BY deptno",
        );
        let (rows, profile) = both_ways(&g, &cat);
        assert_eq!(rows.len(), 3);
        assert_eq!(
            profile.paths[&group_by(&g)],
            BoxPath::Row(Fallback::KernelError),
            "answered by the kernel of last resort"
        );
        // And an error the scalar evaluator does hit is the query's.
        let g = graph(&cat, "SELECT SUM(salary / (bonus - 5)) FROM emp");
        let err = execute(&g, &cat).unwrap_err();
        assert!(err.to_string().contains("division by zero"), "{err}");
    }

    #[test]
    fn path_tallies_reach_the_registry_once_per_execution() {
        let cat = catalog();
        let g = graph(
            &cat,
            "SELECT deptno FROM emp WHERE bonus IS NULL \
             UNION SELECT deptno FROM pairs",
        );
        let registry = Registry::enabled();
        let opts = ExecOptions {
            metrics: registry.clone(),
            ..ExecOptions::default()
        };
        let (_, profile) = execute_with_options(&g, &cat, &IndexCache::default(), opts).unwrap();
        let snap = registry.snapshot();
        // Two arms ran as batches and were materialized for the union,
        // the union itself is a row operator, the view body under
        // `pairs` deduplicates into rows.
        assert!(snap.counter("exec.batch.boxes") >= 3);
        assert_eq!(snap.counter("exec.batch.fallback.row_operator"), 1);
        assert!(snap.counter("exec.batch.fallback.row_only_consumer") >= 1);
        assert_eq!(profile.paths[&g.top()], BoxPath::Row(Fallback::RowOperator));
        assert_eq!(
            BoxPath::Row(Fallback::RowOperator).to_string(),
            "row(row_operator)"
        );
        assert_eq!(BoxPath::Batch.to_string(), "batch");
    }
}
