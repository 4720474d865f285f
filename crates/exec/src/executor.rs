//! The query-graph interpreter.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use starmagic_catalog::{Catalog, Table};
use starmagic_common::{Error, Result, Row, Truth, Value};
use starmagic_metrics::Registry;
use starmagic_qgm::expr::QuantMode;
use starmagic_qgm::{BoxId, BoxKind, GroupByBox, Qgm, QuantId, QuantKind, ScalarExpr, SetOpKind};
use starmagic_sql::BinOp;

use crate::agg::{hash_aggregate, AggInput};
use crate::batch::{Batch, Column};
use crate::boundary::{BoxPath, Fallback};
use crate::columnar::JoinBuild;
use crate::dedup::set_op;
use crate::metrics::Metrics;
use crate::plan::{GroupByPlan, IndexProbe, Op, Plan};
use crate::profile::{BoxProfile, ExecProfile, FixpointStats, StepBuilds};
use crate::rowids::RowIds;
use crate::vector::{self, Env, Sel, SlotView, Vector};

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
    /// Metrics registry for batch, fixpoint and index telemetry. These
    /// live **outside** [`ExecProfile`] on purpose: the profile counts
    /// the rows the query's definition touches, while batch counts
    /// describe how the executor happened to touch them. The default
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

/// Evaluate with explicit execution options (timing, metrics):
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
    exec.timing = opts.timing;
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
    let rows = exec
        .eval_box(qgm.top(), &Frame::with_params(params))?
        .rows();
    exec.flush_path_counts(&opts.metrics);
    Ok((rows, exec.into_profile()))
}

/// A hashed `EXISTS` test's build side: the subquery's batch, its rows
/// by key, and — in row order — the rows with a NULL in the key, which
/// match nothing but can make the test Unknown.
struct SemiJoin {
    batch: Arc<Batch>,
    ids: RowIds,
    null_keyed: Vec<u32>,
}

/// What one execution keeps about one box, at [`BoxId::index`]: its
/// counters and path marker until they are folded into the
/// [`ExecProfile`], its materialized result, and the state a fixpoint or
/// a re-evaluation carries from one evaluation to the next.
#[derive(Default)]
pub(crate) struct BoxState {
    /// `None` until the box is first charged, even with a zero: the
    /// profile lists every box some operator charged.
    counters: Option<BoxProfile>,
    path: Option<BoxPath>,
    pub(crate) fixpoint: Option<FixpointStats>,
    pub(crate) builds: Option<StepBuilds>,
    /// An uncorrelated box's result.
    cached: Option<Arc<Batch>>,
    /// While a fixpoint iterates the box: what a recursive reference to
    /// it reads, the round's delta (semi-naive) or the accumulation so
    /// far (naive).
    pub(crate) recursive: Option<Arc<Batch>>,
    /// A step arm of an active semi-naive fixpoint: evaluated fresh on
    /// every reference (no materialization cache, no nested fixpoint
    /// dispatch), so each round sees the current delta.
    pub(crate) fresh: bool,
    /// A step arm's hash-join build sides over inputs outside the
    /// recursion, by quantifier: built on first use, probed by every
    /// later round (see [`Executor::step_build_site`]).
    pub(crate) step_builds: Vec<(QuantId, Arc<JoinBuild>)>,
    /// The id buffers a re-evaluated select hands from one evaluation to
    /// the next ([`crate::columnar`]).
    pub(crate) spare: Vec<Vec<u32>>,
}

/// An index probe's handles, resolved on its first use in an execution:
/// the stored table (`None` when the catalog has no such table, so the
/// probe is never taken) and, once the probe is taken, its index.
struct ProbeHandle {
    table: Option<(Arc<Table>, Arc<Batch>)>,
    index: Option<IdIndex>,
}

/// An index on one base-table column: the ids of the table rows
/// holding each key, built straight from the stored column.
/// `Arc`, not `Rc`: indexes are shared across engine threads through
/// the [`IndexCache`].
pub(crate) type IdIndex = Arc<RowIds>;

/// A shareable cache of base-table row-id indexes, by table and
/// column. Interior mutability is a `Mutex` (taken only on
/// lookup/insert of whole entries, never per row) so the cache can be
/// shared across engine threads. A table's batch needs no entry: it
/// borrows the table's stored columns.
///
/// Every entry remembers the `Arc<Table>` it was built from and a
/// lookup serves it only to a catalog that holds that same `Arc`, so
/// an index built before a write can never answer a query that runs
/// after it: freshness does not depend on anyone resetting the cache.
/// The entry's own handle is what makes the pointer a sound version
/// tag: while it lives the table is shared, so `Catalog::table_mut`
/// copies instead of writing in place, and the address cannot be
/// reused by a later version.
/// A clone copies the entries (pointer bumps) into an independent map,
/// which is how a new engine snapshot keeps the indexes of every table
/// a write did not touch.
#[derive(Default)]
pub struct IndexCache {
    ids: Mutex<IndexEntries>,
}

/// The indexes by (table, column), each with the table version it was
/// built from.
type IndexEntries = HashMap<(String, usize), (Arc<Table>, IdIndex)>;

impl Clone for IndexCache {
    fn clone(&self) -> IndexCache {
        IndexCache {
            ids: Mutex::new(self.ids.lock().expect("index cache poisoned").clone()),
        }
    }
}

impl IndexCache {
    /// Drop every index built over `table` (case-sensitive: the
    /// catalog's lowercase name). The `Arc` check already keeps stale
    /// entries from being served; this releases their memory, and the
    /// old table version they pin, as soon as the table is written.
    pub fn forget(&mut self, table: &str) {
        self.ids
            .get_mut()
            .expect("index cache poisoned")
            .retain(|(t, _), _| t != table);
    }
}

/// The index on column `col` of `stored`, the current version of table
/// `table`: served by the shared cache when it was built from this very
/// version, else built from the stored column (and counted in
/// `builds`) and offered to the cache.
fn column_index(
    shared: Option<&IndexCache>,
    builds: &starmagic_metrics::Counter,
    table: &str,
    stored: &Arc<Table>,
    col: usize,
) -> IdIndex {
    let key = (table.to_string(), col);
    let shared = shared.map(|s| &s.ids);
    let cached = shared.and_then(|s| {
        let map = s.lock().expect("index cache poisoned");
        let (built_from, idx) = map.get(&key)?;
        Arc::ptr_eq(built_from, stored).then(|| idx.clone())
    });
    cached.unwrap_or_else(|| {
        // Built outside the lock: two racing executions may both build,
        // the later insert wins.
        builds.inc();
        let idx = Arc::new(RowIds::build(&stored.columns()[col..=col]));
        if let Some(s) = shared {
            s.lock()
                .expect("index cache poisoned")
                .insert(key, (stored.clone(), idx.clone()));
        }
        idx
    })
}

/// Evaluation environment: quantifier → current row bindings, chained
/// to the enclosing frame for correlation, plus the execution's bound
/// parameters. A binding is a position in a batch, read in place: a
/// frame never materializes a row.
pub struct Frame<'f> {
    parent: Option<&'f Frame<'f>>,
    quants: &'f [QuantId],
    rows: &'f [RowAt<'f>],
    params: &'f [Value],
}

/// A row of a batch, by position: what a [`Frame`] binds a quantifier
/// to.
#[derive(Clone, Copy)]
pub(crate) struct RowAt<'b>(pub(crate) &'b Batch, pub(crate) usize);

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

    pub(crate) fn extended<'a>(
        &'a self,
        quants: &'a [QuantId],
        rows: &'a [RowAt<'a>],
    ) -> Frame<'a> {
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

    /// Column `col` of the row bound to `q`, if some frame binds one.
    pub(crate) fn value(&self, q: QuantId, col: usize) -> Option<Value> {
        if let Some(i) = self.quants.iter().position(|&x| x == q) {
            return self
                .rows
                .get(i)
                .map(|&RowAt(batch, row)| batch.value(col, row));
        }
        self.parent.and_then(|p| p.value(q, col))
    }
}

/// The interpreter. Holds the materialization cache and the work
/// counters for one execution.
pub struct Executor<'a> {
    pub(crate) qgm: &'a Qgm,
    /// The graph's lowered facts and kernels ([`Plan::lower`]).
    pub(crate) plan: &'a Plan,
    pub(crate) catalog: &'a Catalog,
    /// Every box's state, at [`BoxId::index`]. The per-box counters are
    /// folded into an [`ExecProfile`] once, when the execution ends
    /// ([`Executor::into_profile`]).
    boxes: Vec<BoxState>,
    /// Whether per-box wall time is collected.
    timing: bool,
    /// Box evaluations per physical path: `[0]` stayed on the batch
    /// path, `[1 + reason]` left it. Flushed to the registry once per
    /// execution.
    path_counts: [u64; 1 + Fallback::ALL.len()],
    /// Guard for runaway fixpoints.
    pub(crate) max_fixpoint_rounds: usize,
    /// Iteration cap for semi-naive fixpoints (see
    /// [`ExecOptions::max_recursion`]).
    pub(crate) max_recursion: usize,
    /// Optional cross-execution index cache supplied by the caller.
    shared_indexes: Option<&'a IndexCache>,
    /// Hashed `EXISTS` tests' build sides, by quantifier
    /// ([`Plan::hashed_exists`]): built by the first outer row, probed
    /// by every later one.
    semi_joins: Vec<Option<Arc<SemiJoin>>>,
    /// Index probes' handles, by [`IndexProbe::slot`]. The benchmark
    /// database is assumed fully indexed (as DB2's was): building is not
    /// charged to the query; probes charge only the matched rows.
    probes: Vec<Option<ProbeHandle>>,
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
    /// Row-id indexes on base-table columns actually built by this
    /// execution, i.e. not served by the shared cache: what a read
    /// pays after a write to a table it uses.
    index_builds: starmagic_metrics::Counter,
}

impl<'a> Executor<'a> {
    /// An executor over `qgm`, whose lowered form is `plan`.
    pub fn new(qgm: &'a Qgm, plan: &'a Plan, catalog: &'a Catalog) -> Executor<'a> {
        Executor {
            qgm,
            plan,
            catalog,
            boxes: (0..plan.box_slots()).map(|_| BoxState::default()).collect(),
            timing: false,
            path_counts: [0; 1 + Fallback::ALL.len()],
            max_fixpoint_rounds: 100_000,
            max_recursion: 10_000,
            shared_indexes: None,
            semi_joins: (0..plan.exists_slots()).map(|_| None).collect(),
            probes: (0..plan.probe_slots()).map(|_| None).collect(),
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

    /// The execution's profile: every box's counters, path marker,
    /// convergence record and build reuse, each under the box it was
    /// charged to.
    pub fn into_profile(self) -> ExecProfile {
        let mut profile = ExecProfile {
            timing: self.timing,
            ..ExecProfile::default()
        };
        for (i, s) in self.boxes.into_iter().enumerate() {
            let b = BoxId(i as u32);
            if let Some(counters) = s.counters {
                profile.boxes.insert(b, counters);
            }
            if let Some(path) = s.path {
                profile.paths.insert(b, path);
            }
            if let Some(fixpoint) = s.fixpoint {
                profile.fixpoint.insert(b, fixpoint);
            }
            if let Some(builds) = s.builds {
                profile.builds.insert(b, builds);
            }
        }
        profile
    }

    /// Box `b`'s state in this execution.
    pub(crate) fn state(&mut self, b: BoxId) -> &mut BoxState {
        &mut self.boxes[b.index()]
    }

    /// Box `b`'s counters, zeroed on first touch.
    pub(crate) fn entry(&mut self, b: BoxId) -> &mut BoxProfile {
        self.boxes[b.index()]
            .counters
            .get_or_insert_with(BoxProfile::default)
    }

    /// Hash fast path for `EXISTS`-mode quantified tests.
    ///
    /// When the test has a hashed form ([`Plan::hashed_exists`]: an
    /// uncorrelated subquery and at least one equality `quant.col =
    /// outer-expr`), builds (once) a row-id table of the subquery's
    /// batch on the key columns and probes it per outer row. Rows with
    /// NULL key values cannot match but can still make the overall
    /// answer Unknown, so they are kept aside and consulted only when
    /// the bucket produced no True.
    /// Returns `None` when the fast path does not apply.
    fn eval_quantified_hashed(
        &mut self,
        quant: QuantId,
        frame: &Frame<'_>,
    ) -> Result<Option<Truth>> {
        let plan = self.plan;
        let Some(hashed) = plan.hashed_exists(quant) else {
            return Ok(None);
        };
        let semi = match &self.semi_joins[quant.index()] {
            Some(semi) => semi.clone(),
            None => {
                let batch = self.eval_box(self.qgm.quant(quant).input, frame)?;
                let keys: Vec<Vector> = (hashed.key_cols.iter())
                    .map(|&c| Vector::Col(batch.column(c).clone()))
                    .collect();
                let null_keyed = (0..batch.len())
                    .filter(|&i| keys.iter().any(|k| k.is_null_at(i)))
                    .map(|i| i as u32)
                    .collect();
                let semi = Arc::new(SemiJoin {
                    ids: RowIds::build(&keys),
                    batch,
                    null_keyed,
                });
                self.semi_joins[quant.index()] = Some(semi.clone());
                semi
            }
        };
        let (probe_exprs, rest) = (&hashed.probe, &hashed.rest);
        // Probe.
        let mut probe_key = Vec::with_capacity(probe_exprs.len());
        let mut probe_has_null = false;
        for e in probe_exprs {
            let v = self.eval_expr(e, frame)?;
            if v.is_null() {
                probe_has_null = true;
                break;
            }
            probe_key.push(v);
        }
        // The residual over one subquery row, starting from the truth of
        // its key equalities.
        let quants = [quant];
        let residual = |exec: &mut Self, id: u32, mut t: Truth| -> Result<Truth> {
            let row = [RowAt(&semi.batch, id as usize)];
            let cframe = frame.extended(&quants, &row);
            for p in rest {
                t = t.and(truth_of(&exec.eval_expr(p, &cframe)?));
                if t == Truth::False {
                    break;
                }
            }
            Ok(t)
        };
        let mut any_unknown = false;
        if !probe_has_null {
            for &id in semi.ids.get(&probe_key) {
                match residual(self, id, Truth::True)? {
                    Truth::True => return Ok(Some(Truth::True)),
                    Truth::Unknown => any_unknown = true,
                    Truth::False => {}
                }
            }
        } else {
            // NULL probe value: every key equality is Unknown; any row
            // whose remaining predicates are not False yields Unknown.
            let mut null_keyed = semi.null_keyed.iter().peekable();
            for id in 0..semi.batch.len() as u32 {
                if null_keyed.next_if_eq(&&id).is_some() {
                    continue;
                }
                if residual(self, id, Truth::Unknown)? == Truth::Unknown {
                    any_unknown = true;
                    break;
                }
            }
        }
        // NULL-keyed subquery rows: their key equality is Unknown.
        if !any_unknown {
            for &id in &semi.null_keyed {
                if residual(self, id, Truth::Unknown)? == Truth::Unknown {
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

    /// The batch over a base table: its stored columns, borrowed.
    pub(crate) fn table_batch(&self, table: &str) -> Result<Arc<Batch>> {
        let table = self.catalog.table_arc(table)?;
        Ok(Arc::new(Batch::over_table(table.clone())))
    }

    /// The table and index `probe` reads, if the `combos` combinations
    /// are few against the table: the access-path choice a System-R
    /// optimizer would make, and the reason correlated evaluation is
    /// fast on selective outers (Table 1, Exp A). The one join decision
    /// left to run time — it depends on the data. The table is resolved
    /// on the probe's first use in the execution and its index on the
    /// first use that takes it, so the shared cache is asked once per
    /// probe and execution.
    pub(crate) fn probe_target(
        &mut self,
        probe: &IndexProbe,
        combos: usize,
    ) -> Option<(IdIndex, Arc<Batch>)> {
        let catalog = self.catalog;
        let handle = self.probes[probe.slot].get_or_insert_with(|| ProbeHandle {
            table: (catalog.table_arc(&probe.table).ok()).map(|stored| {
                let batch = Arc::new(Batch::over_table(stored.clone()));
                (stored.clone(), batch)
            }),
            index: None,
        });
        let (stored, batch) = handle.table.as_ref()?;
        if combos.saturating_mul(4) >= stored.row_count().max(1) {
            return None;
        }
        let index = match &handle.index {
            Some(index) => index.clone(),
            None => {
                let index = column_index(
                    self.shared_indexes,
                    &self.index_builds,
                    &probe.table,
                    stored,
                    probe.col,
                );
                handle.index.insert(index).clone()
            }
        };
        Some((index, batch.clone()))
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
        let marker = self.state(b).path.get_or_insert(path);
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

    /// Count one batch stage over `n` rows; free when metrics are off.
    pub(crate) fn note_stage(&self, n: usize) {
        self.batch_runs
            .add(n.div_ceil(crate::columnar::BATCH_ROWS).max(1) as u64);
        self.batch_rows.record(n as u64);
    }

    /// Evaluate a box under a frame. Uncorrelated boxes are cached.
    pub fn eval_box(&mut self, b: BoxId, frame: &Frame<'_>) -> Result<Arc<Batch>> {
        let state = &self.boxes[b.index()];
        // During fixpoint iteration, a recursive reference yields the
        // rows published for this round.
        if let Some(rows) = &state.recursive {
            return Ok(rows.clone());
        }
        // A step arm of an active semi-naive fixpoint: always evaluate
        // fresh (its inputs include the round's delta) and never
        // dispatch a nested fixpoint on it.
        if state.fresh {
            self.entry(b).evals += 1;
            let out = self.eval_inner(b, frame)?;
            self.entry(b).rows_out += out.len() as u64;
            return Ok(out);
        }
        let lowered = self.plan.get(b);
        if let (false, Some(out)) = (lowered.correlated, &state.cached) {
            return Ok(out.clone());
        }
        let timer = self.timing.then(Instant::now);
        self.entry(b).evals += 1;
        let out = if lowered.fixpoint.is_some() {
            self.fixpoint(b, frame)?
        } else {
            self.eval_inner(b, frame)?
        };
        let p = self.entry(b);
        p.rows_out += out.len() as u64;
        if let Some(t) = timer {
            p.elapsed += t.elapsed();
        }
        if !lowered.correlated {
            self.state(b).cached = Some(out.clone());
        }
        Ok(out)
    }

    pub(crate) fn eval_inner(&mut self, b: BoxId, frame: &Frame<'_>) -> Result<Arc<Batch>> {
        let qb = self.qgm.boxed(b);
        let (out, path) = match (&self.plan.get(b).op, &qb.kind) {
            (Op::Scan, BoxKind::BaseTable { table }) => {
                // The table's stored columns, borrowed in place.
                let out = self.table_batch(table)?;
                self.entry(b).rows_scanned += out.len() as u64;
                (out, BoxPath::Batch)
            }
            (Op::Select(select), BoxKind::Select) => {
                let (out, path) = crate::columnar::run(self, b, select, frame)?;
                (Arc::new(out), path)
            }
            (Op::GroupBy(lowered), BoxKind::GroupBy(spec)) => {
                return self.eval_groupby(b, spec, lowered, frame).map(Arc::new)
            }
            (Op::SetOperation, BoxKind::SetOp(spec)) => (
                Arc::new(self.eval_setop(b, spec.op, spec.all, frame)?),
                BoxPath::Batch,
            ),
            (Op::OuterJoin, BoxKind::OuterJoin(spec)) => (
                Arc::new(self.eval_outerjoin(b, &spec.on, frame)?),
                BoxPath::Row(Fallback::OuterJoin),
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
    /// its ON matches or padded with NULLs. Pair by pair on the scalar
    /// evaluator, each output column collected as it goes.
    fn eval_outerjoin(&mut self, b: BoxId, on: &[ScalarExpr], frame: &Frame<'_>) -> Result<Batch> {
        let qb = self.qgm.boxed(b);
        let quants = [qb.quants[0], qb.quants[1]];
        let [preserved, nullside] = quants.map(|q| self.qgm.quant(q).input);
        let preserved = self.eval_box(preserved, frame)?;
        let nulls = Column::constant(&Value::Null, 1);
        let null_row = Batch::from_columns(vec![Some(nulls); self.qgm.boxed(nullside).arity()], 1);
        let nullside = self.eval_box(nullside, frame)?;
        self.entry(b).rows_in += (preserved.len() + nullside.len()) as u64;
        let mut columns: Vec<Vec<Value>> = vec![Vec::new(); qb.columns.len()];
        let mut len = 0;
        let mut emit = |exec: &mut Self, rows: &[RowAt<'_>; 2]| -> Result<()> {
            let cframe = frame.extended(&quants, rows);
            for (c, column) in qb.columns.iter().zip(&mut columns) {
                column.push(exec.eval_expr(&c.expr, &cframe)?);
            }
            len += 1;
            Ok(())
        };
        for p in 0..preserved.len() {
            let mut matched = false;
            for n in 0..nullside.len() {
                let rows = [RowAt(&preserved, p), RowAt(&nullside, n)];
                let cframe = frame.extended(&quants, &rows);
                let mut ok = Truth::True;
                for pred in on {
                    ok = ok.and(truth_of(&self.eval_expr(pred, &cframe)?));
                    if ok == Truth::False {
                        break;
                    }
                }
                if ok.passes() {
                    matched = true;
                    emit(self, &rows)?;
                }
            }
            if !matched {
                emit(self, &[RowAt(&preserved, p), RowAt(&null_row, 0)])?;
            }
        }
        self.entry(b).rows_produced += len as u64;
        let columns = columns.iter().map(|c| Some(Column::from_values(c)));
        Ok(Batch::from_columns(columns.collect(), len))
    }

    // ---- group-by boxes -------------------------------------------------

    /// Group-by: keys and aggregate arguments — compiled when the plan
    /// was lowered — are evaluated as whole columns over the child's
    /// batch, then [`hash_aggregate`] groups and folds them. Only the
    /// referenced columns of the child are ever built, so set-up per
    /// evaluation is O(referenced columns): the correlated formulations
    /// re-enter here once per outer row.
    fn eval_groupby(
        &mut self,
        b: BoxId,
        spec: &GroupByBox,
        lowered: &GroupByPlan,
        frame: &Frame<'_>,
    ) -> Result<Batch> {
        let tq = self.qgm.boxed(b).quants[0];
        let batch = self.eval_box(self.qgm.quant(tq).input, frame)?;
        let n = batch.len();
        self.entry(b).rows_in += n as u64;

        let outer = lowered.outer.resolve(frame);
        let env = Env {
            params: frame.params(),
            outer: &outer,
        };
        let all = Sel::All(n);
        let slots = [SlotView {
            batch: &batch,
            ids: all,
        }];
        let mut path = BoxPath::Batch;
        let mut vectors: Vec<Vector> = Vec::new();
        // The first (row, expression) at which evaluation fails; rows
        // from there on never reach the fold.
        let mut failed: Option<(usize, Error)> = None;
        // Every expression, in the order the row-at-a-time definition
        // evaluates them per row: keys, then arguments.
        for item in &lowered.exprs {
            let vectorized = match item.kernel(&outer) {
                Some(v) => vector::eval(v, &slots, all, env).map_err(|_| Fallback::KernelError),
                None => Err(item.why),
            };
            vectors.push(match vectorized {
                Ok(v) => v,
                Err(why) => {
                    // Kernel of last resort: the scalar evaluator, row
                    // by row, up to the first row that fails.
                    if path == BoxPath::Batch {
                        path = BoxPath::Row(why);
                    }
                    let limit = failed.as_ref().map_or(n, |(row, _)| *row);
                    let (values, error) = self.eval_column(&item.expr, tq, &batch, limit, frame);
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
        self.entry(b).rows_produced += (n + groups.len()) as u64;
        Ok(groups)
    }

    /// Evaluate `e` once per row of the first `limit` of `batch` (bound
    /// to `quant`) with the scalar evaluator, stopping at the first
    /// error.
    fn eval_column(
        &mut self,
        e: &ScalarExpr,
        quant: QuantId,
        batch: &Batch,
        limit: usize,
        frame: &Frame<'_>,
    ) -> (Vec<Value>, Option<Error>) {
        let quants = [quant];
        let mut values = Vec::with_capacity(limit);
        for i in 0..limit {
            let bound = [RowAt(batch, i)];
            match self.eval_expr(e, &frame.extended(&quants, &bound)) {
                Ok(v) => values.push(v),
                Err(error) => return (values, Some(error)),
            }
        }
        (values, None)
    }

    // ---- set operations -------------------------------------------------

    /// A set operation over its arms' batches ([`set_op`]).
    fn eval_setop(
        &mut self,
        b: BoxId,
        op: SetOpKind,
        all: bool,
        frame: &Frame<'_>,
    ) -> Result<Batch> {
        let qb = self.qgm.boxed(b);
        let arms: Vec<Arc<Batch>> = (qb.quants.iter())
            .map(|&q| self.eval_box(self.qgm.quant(q).input, frame))
            .collect::<Result<_>>()?;
        self.entry(b).rows_in += arms.iter().map(|a| a.len() as u64).sum::<u64>();
        let result = set_op(op, all, qb.distinct.needs_dedup(), qb.arity(), &arms);
        self.entry(b).rows_produced += result.len() as u64;
        Ok(result)
    }

    // ---- expressions -------------------------------------------------

    /// Evaluate a scalar expression. Unknown truth is represented as
    /// NULL (SQL's boolean domain).
    pub fn eval_expr(&mut self, e: &ScalarExpr, frame: &Frame<'_>) -> Result<Value> {
        match e {
            ScalarExpr::ColRef { quant, col } => {
                if let Some(v) = frame.value(*quant, *col) {
                    return Ok(v);
                }
                // A scalar subquery quantifier evaluates on demand.
                if self.qgm.quant(*quant).kind == QuantKind::Scalar {
                    let out = self.eval_box(self.qgm.quant(*quant).input, frame)?;
                    return match out.len() {
                        0 => Ok(Value::Null),
                        1 => Ok(out.column(*col).value(0)),
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
            ScalarExpr::Neg(x) => vector::neg_value(&self.eval_expr(x, frame)?),
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
            } => vector::like_value(self.eval_expr(expr, frame)?, pattern, *negated),
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
            _ => {
                let l = self.eval_expr(left, frame)?;
                let r = self.eval_expr(right, frame)?;
                vector::bin_values(op, &l, &r)
            }
        }
    }

    /// SQL semantics of quantified subquery tests. For existential
    /// tests with equality predicates over an uncorrelated subquery,
    /// a row-id table replaces the per-row scan — the
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
            if let Some(t) = self.eval_quantified_hashed(quant, frame)? {
                return Ok(t);
            }
        }
        let rows = self.eval_box(self.qgm.quant(quant).input, frame)?;
        let quants = [quant];
        let mut any_unknown = false;
        match mode {
            QuantMode::Exists => {
                if preds.is_empty() {
                    return Ok((!rows.is_empty()).into());
                }
                for i in 0..rows.len() {
                    let rr = [RowAt(&rows, i)];
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
                for i in 0..rows.len() {
                    let rr = [RowAt(&rows, i)];
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
    fn the_dense_counters_fold_into_the_profiles_maps() {
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
        let sql = "SELECT r.src, r.dst FROM reach r, dept d WHERE d.deptno = r.src";
        let g = build_qgm(&cat, &starmagic_sql::parse_query(sql).unwrap()).unwrap();
        let plan = Plan::lower(&g);

        // A box charged only a zero has its entry; an untouched one has
        // none, and neither has a path or a build.
        let mut exec = Executor::new(&g, &plan, &cat);
        exec.entry(g.top()).rows_in += 0;
        let profile = exec.into_profile();
        assert_eq!(profile.boxes.len(), 1);
        assert_eq!(profile.boxes[&g.top()], BoxProfile::default());
        assert!(profile.paths.is_empty() && profile.builds.is_empty());
        assert!(profile.fixpoint.is_empty() && !profile.timing);

        // A whole execution: every box it evaluated has counters, every
        // one but the fixpoint's driver a path, the driver its
        // convergence record, and the step arm one build over `edge`
        // that every later round reused.
        let (rows, profile) = execute_profiled(&g, &cat, &IndexCache::default(), true).unwrap();
        assert_eq!(rows.len(), 6, "1→2, 1→3, 1→4, 2→3, 2→4, 3→4");
        assert!(profile.timing);
        let evaluated: Vec<BoxId> = (profile.boxes.iter())
            .filter(|(_, p)| p.evals > 0)
            .map(|(b, _)| *b)
            .collect();
        assert_eq!(profile.boxes.len(), evaluated.len());
        let [(driver, stats)] = profile.fixpoint.iter().collect::<Vec<_>>()[..] else {
            panic!("one fixpoint")
        };
        assert!(g.boxed(*driver).is_recursive_union());
        let paths: Vec<BoxId> = (evaluated.iter().copied())
            .filter(|b| b != driver)
            .collect();
        assert_eq!(profile.paths.keys().copied().collect::<Vec<_>>(), paths);
        assert!(profile.paths.values().all(|p| *p == BoxPath::Batch));
        assert_eq!(stats.delta_rows, [3, 2, 1, 0]);
        let [(arm, builds)] = profile.builds.iter().collect::<Vec<_>>()[..] else {
            panic!("one step arm")
        };
        assert!(profile.get(*arm).evals > 0);
        assert_eq!(
            *builds,
            StepBuilds {
                built: 1,
                reused: stats.iterations - 1
            }
        );
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
            let (rows, profile) =
                execute_profiled(&g, &cat, &IndexCache::default(), false).unwrap();
            assert!(
                profile.aggregate().rows_scanned <= 1,
                "{literal}: an index probe, not a scan"
            );
            rows
        };
        let by_int = query("3");
        assert_eq!(by_int.len(), 1);
        assert_eq!(query("3.0"), by_int);
        assert!(query("2.5").is_empty());
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
        // ask in, each gets an answer over its own rows.
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
        let run = |cache: &IndexCache, cat: &Catalog| {
            let opts = ExecOptions {
                metrics: registry.clone(),
                ..ExecOptions::default()
            };
            execute_with_options(&g, cat, cache, opts).unwrap().0.len()
        };
        let builds = || registry.snapshot().counter("exec.index.builds");
        let cache = IndexCache::default();
        let rows = run(&cache, &old);
        assert!(builds() > 0, "the query must probe an index");
        assert_eq!(run(&cache, &new), rows + 1, "stale structure");
        assert_eq!(run(&cache, &old), rows, "newer structure");
        // Same version twice in a row: served, not rebuilt.
        let warm = builds();
        assert_eq!(run(&cache, &old), rows);
        assert_eq!(builds(), warm);
        // A clone keeps the entries and their tags...
        let mut copy = cache.clone();
        run(&copy, &old);
        assert_eq!(builds(), warm);
        // ...until the table is forgotten.
        copy.forget("employee");
        run(&copy, &old);
        assert!(builds() > warm);
    }
}

/// Which error a failing query reports: the first the row-at-a-time
/// definition meets, taking combinations in order and, within one,
/// its predicates, then its columns, with NULL keys and failed
/// predicates short-circuiting. Values of the wrong type make the
/// message name the row it came from. Plus the one shape these leave
/// out: a correlated child under several combinations.
#[cfg(test)]
mod error_order_tests {
    use super::*;
    use starmagic_catalog::{Catalog, ColumnDef, Table, TableSchema};
    use starmagic_common::DataType;
    use starmagic_qgm::build_qgm;

    fn table(c: &mut Catalog, name: &str, cols: &[&str], rows: Vec<Vec<Value>>) {
        let schema = TableSchema::new(
            name,
            cols.iter()
                .map(|c| ColumnDef::new(c, DataType::Int))
                .collect(),
        );
        let rows = rows.into_iter().map(Row::new).collect();
        c.add_table(Table::with_rows(schema, rows).unwrap())
            .unwrap();
    }

    fn int(i: i64) -> Value {
        Value::Int(i)
    }

    /// `t(id, a, b, c)` holds strings where integers are declared, so
    /// arithmetic fails on exactly the rows that hold one.
    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        let s = Value::str;
        table(
            &mut c,
            "t",
            &["id", "a", "b", "c"],
            vec![
                vec![int(1), s("a1"), int(10), Value::Null],
                vec![int(2), int(2), s("b2"), int(2)],
                vec![int(3), int(3), int(30), int(3)],
                vec![int(4), s("a4"), int(40), Value::Null],
                vec![int(5), int(5), s("b5"), int(5)],
            ],
        );
        table(
            &mut c,
            "m",
            &["k", "v"],
            [
                (1, int(1)),
                (2, int(2)),
                (3, s("v3")),
                (4, int(4)),
                (5, s("v5")),
            ]
            .into_iter()
            .map(|(k, v)| vec![int(k), v])
            .collect(),
        );
        table(
            &mut c,
            "dup",
            &["k", "v"],
            vec![
                vec![int(1), int(1)],
                vec![int(3), int(1)],
                vec![int(3), int(2)],
            ],
        );
        // Ten rows, so two combinations probe an index on `id`.
        let p = (1..=10)
            .map(|i| match i {
                2 => vec![int(2), s("a2"), int(2), Value::Null],
                7 => vec![int(7), int(7), s("b7"), Value::Null],
                _ => vec![int(i), int(i), int(i), int(i)],
            })
            .collect();
        table(&mut c, "p", &["id", "a", "b", "c"], p);
        c
    }

    fn run(sql: &str) -> std::result::Result<Vec<i64>, String> {
        let cat = catalog();
        let g = build_qgm(&cat, &starmagic_sql::parse_query(sql).unwrap()).unwrap();
        let rows = execute(&g, &cat).map_err(|e| e.to_string())?;
        Ok(rows
            .iter()
            .map(|r| match r.get(0) {
                Value::Int(i) => *i,
                other => panic!("unexpected {other}"),
            })
            .collect())
    }

    fn fails(sql: &str) -> String {
        run(sql).expect_err(sql)
    }

    #[test]
    fn a_later_predicate_failing_on_an_earlier_row_is_the_error() {
        assert_eq!(
            fails("SELECT id FROM t WHERE b + 1 > 0 AND a + 1 > 0"),
            "execution error: arithmetic on non-numeric values 'a1' + 1"
        );
    }

    #[test]
    fn a_null_hash_key_hides_the_keys_after_it() {
        let build = "SELECT x.id FROM t x, t y WHERE x.id = y.c AND x.id = y.a * 1";
        assert_eq!(run(build), Ok(vec![2, 3, 5]));
        let probe = "SELECT x.id FROM t x, t y WHERE x.c = y.id AND x.a * 1 = y.id";
        assert_eq!(run(probe), Ok(vec![2, 3, 5]));
    }

    #[test]
    fn a_false_left_side_of_and_hides_the_right() {
        assert_eq!(
            run("SELECT id FROM t WHERE (c IS NOT NULL AND a * 1 > 2) OR id = 1"),
            Ok(vec![1, 3, 5])
        );
    }

    #[test]
    fn a_column_failing_before_a_subquery_test_is_the_error() {
        assert_eq!(
            fails(
                "SELECT id, b + 1 FROM t \
                 WHERE EXISTS (SELECT 1 FROM m WHERE m.k = t.id AND m.v * 1 > 0)"
            ),
            "execution error: arithmetic on non-numeric values 'b2' + 1"
        );
    }

    #[test]
    fn a_scalar_subquery_column_with_two_rows_fails() {
        assert_eq!(
            fails("SELECT t.id, (SELECT dup.v FROM dup WHERE dup.k = t.id) FROM t"),
            "execution error: scalar subquery returned 2 rows"
        );
    }

    #[test]
    fn a_correlated_child_fails_on_the_first_combination_it_fails_on() {
        assert_eq!(
            fails(
                "SELECT t.id FROM t WHERE t.id IN \
                 (SELECT d.w FROM (SELECT m.v * 1 AS w FROM m WHERE m.k = t.id) d)"
            ),
            "execution error: arithmetic on non-numeric values 'v3' * 1"
        );
    }

    #[test]
    fn a_correlated_child_runs_once_per_combination() {
        // `dup` binds three combinations before the derived table, which
        // reads the outer `t.id`: 5 outer rows x 3 combinations.
        let cat = catalog();
        let sql = "SELECT t.id FROM t WHERE EXISTS (SELECT 1 FROM dup, \
                   (SELECT m.k FROM m WHERE m.k = t.id) d WHERE d.k = dup.k)";
        let g = build_qgm(&cat, &starmagic_sql::parse_query(sql).unwrap()).unwrap();
        let (rows, profile) = execute_profiled(&g, &cat, &IndexCache::default(), false).unwrap();
        assert_eq!(rows, [Row::new(vec![int(1)]), Row::new(vec![int(3)])]);
        assert!(profile
            .boxes
            .values()
            .any(|p| p.evals == 15 && p.rows_out == 15));
        let m = profile.aggregate();
        assert_eq!((m.rows_scanned, m.rows_produced, m.box_evals), (23, 58, 23));
    }

    #[test]
    fn a_dead_column_still_fails() {
        assert_eq!(
            fails("SELECT d.x FROM (SELECT id AS x, id / 0 AS y FROM t) d"),
            "execution error: division by zero"
        );
    }

    #[test]
    fn an_index_probe_checks_its_other_equalities_match_by_match() {
        assert_eq!(
            fails(
                "SELECT x.id FROM p x, p y WHERE x.c IS NULL AND y.id = x.id \
                 AND y.b * 1 = x.id AND y.a * 1 = x.id"
            ),
            "execution error: arithmetic on non-numeric values 'a2' * 1"
        );
    }

    /// Run `sql` after `patch` edits its graph: the builder alone never
    /// puts an expression in an outer join's columns or a residual next
    /// to a subquery test's equality, but rewrites do.
    fn patched(sql: &str, patch: impl FnOnce(&mut Qgm)) -> String {
        let cat = catalog();
        let mut g = build_qgm(&cat, &starmagic_sql::parse_query(sql).unwrap()).unwrap();
        patch(&mut g);
        execute(&g, &cat).map(|_| ()).expect_err(sql).to_string()
    }

    fn outer_join(g: &Qgm) -> BoxId {
        g.box_ids()
            .into_iter()
            .find(|&b| matches!(g.boxed(b).kind, BoxKind::OuterJoin(_)))
            .expect("an outer join")
    }

    /// `e * 1` over column `col` of `q`.
    fn times_one(q: QuantId, col: usize) -> ScalarExpr {
        ScalarExpr::bin(BinOp::Mul, ScalarExpr::col(q, col), ScalarExpr::lit(1))
    }

    #[test]
    fn an_outer_join_fails_on_the_first_pair_its_on_clause_fails_on() {
        // Pairs run preserved row by preserved row: (3, 'v3') comes
        // before (5, 'v5').
        assert_eq!(
            fails("SELECT x.id FROM t x LEFT JOIN m ON m.k = x.id AND m.v * 1 > 0"),
            "execution error: arithmetic on non-numeric values 'v3' * 1"
        );
    }

    #[test]
    fn an_outer_join_column_fails_in_preserved_row_order() {
        // x.b fails at the padded row 2 before m.v fails at the
        // matched pair (3, 'v3').
        let sql = "SELECT x.id FROM t x LEFT JOIN m ON m.k = x.id AND m.k > 2";
        let error = patched(sql, |g| {
            let oj = outer_join(g);
            let [l, r] = g.boxed(oj).quants[..] else {
                panic!("two quantifiers")
            };
            let columns = &mut g.boxed_mut(oj).columns;
            columns[2].expr = times_one(l, 2);
            columns[5].expr = times_one(r, 1);
        });
        assert_eq!(
            error,
            "execution error: arithmetic on non-numeric values 'b2' * 1"
        );
    }

    /// `sql`'s top box tests `EXISTS` over a two-column subquery; the
    /// test becomes `q.0 = <outer>.id AND q.1 * 1 > 0`, hashed on `q.0`.
    fn hashed_exists(sql: &str) -> String {
        patched(sql, |g| {
            let top = g.top();
            let [x, q] = g.boxed(top).quants[..] else {
                panic!("two quantifiers")
            };
            let keyed = ScalarExpr::eq(ScalarExpr::col(q, 0), ScalarExpr::col(x, 0));
            let residual = ScalarExpr::bin(BinOp::Gt, times_one(q, 1), ScalarExpr::lit(0));
            for p in &mut g.boxed_mut(top).predicates {
                if let ScalarExpr::Quantified { preds, .. } = p {
                    *preds = vec![keyed.clone(), residual.clone()];
                }
            }
        })
    }

    #[test]
    fn a_hashed_exists_residual_fails_inside_the_bucket() {
        assert_eq!(
            hashed_exists("SELECT t.id FROM t WHERE EXISTS (SELECT m.k, m.v FROM m)"),
            "execution error: arithmetic on non-numeric values 'v3' * 1"
        );
    }

    #[test]
    fn a_hashed_exists_residual_fails_on_the_null_keyed_rows() {
        // Outer row 1 finds no bucket; the rows whose key `c` is NULL
        // come next, and the first of them holds 'a1'.
        assert_eq!(
            hashed_exists("SELECT x.id FROM t x WHERE EXISTS (SELECT y.c, y.a FROM t y)"),
            "execution error: arithmetic on non-numeric values 'a1' * 1"
        );
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

    fn profiled(g: &Qgm, cat: &Catalog) -> (Vec<Row>, ExecProfile) {
        execute_profiled(g, cat, &IndexCache::default(), false).unwrap()
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
        let (rows, profile) = profiled(&g, &cat);
        assert_eq!(rows.len(), 12);
        assert_eq!(profile.get(view).evals, 1);

        let plan = Plan::lower(&g);
        let mut exec = Executor::new(&g, &plan, &cat);
        exec.eval_box(g.top(), &Frame::root()).unwrap();
        let batch = exec.state(view).cached.clone().unwrap();
        assert_eq!(exec.into_profile().paths[&view], BoxPath::Batch);
        let live: Vec<bool> = (0..4).map(|c| batch.is_live(c)).collect();
        assert_eq!(
            live,
            [true, true, true, false],
            "live: both parents' columns"
        );
        // A row reader gets the arity and offsets right, NULL where dead.
        let row = &batch.rows()[0];
        assert_eq!(row.arity(), 4);
        assert_eq!(row.get(2), &Value::Int(1000));
        assert!(row.get(3).is_null());
    }

    #[test]
    fn a_distinct_box_keeps_its_full_width() {
        let cat = catalog();
        // Only deptno is read, but bonus decides how many rows there are.
        let g = graph(&cat, "SELECT p.deptno FROM pairs p");
        let (rows, _) = profiled(&g, &cat);
        let pairs = named(&g, "PAIRS");
        let plan = Plan::lower(&g);
        let mut exec = Executor::new(&g, &plan, &cat);
        exec.eval_box(g.top(), &Frame::root()).unwrap();
        let out = exec.state(pairs).cached.clone().unwrap();
        assert_eq!(out.len(), rows.len());
        assert!(
            rows.len() > 3,
            "more (deptno, bonus) pairs than departments"
        );
        assert!(
            (0..out.len()).any(|i| !out.column(1).is_null(i)),
            "bonus kept"
        );
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
        let (rows, profile) = profiled(&g, &cat);
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
        let (rows, profile) = profiled(&g, &cat);
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
        let registry = Registry::enabled();
        let run = |sql: &str| {
            let g = graph(&cat, sql);
            let opts = ExecOptions {
                metrics: registry.clone(),
                ..ExecOptions::default()
            };
            let (_, profile) =
                execute_with_options(&g, &cat, &IndexCache::default(), opts).unwrap();
            (g, profile)
        };
        // The union, its two arms, the view body under `pairs` and the
        // scans: every box on the batch path.
        let (g, profile) = run("SELECT deptno FROM emp WHERE bonus IS NULL \
                                UNION SELECT deptno FROM pairs");
        assert_eq!(profile.paths[&g.top()], BoxPath::Batch);
        assert!(profile.paths.values().all(|p| *p == BoxPath::Batch));
        let batch_boxes = registry.snapshot().counter("exec.batch.boxes");
        assert!(batch_boxes >= 4);
        // An outer join runs its ON clause on the scalar evaluator.
        let (g, profile) =
            run("SELECT e.empno FROM emp e LEFT JOIN pairs p ON p.deptno = e.deptno");
        let oj = (g.box_ids().into_iter())
            .find(|&b| matches!(g.boxed(b).kind, BoxKind::OuterJoin(_)))
            .unwrap();
        assert_eq!(profile.paths[&oj], BoxPath::Row(Fallback::OuterJoin));
        let snap = registry.snapshot();
        assert_eq!(snap.counter("exec.batch.fallback.outer_join"), 1);
        assert!(snap.counter("exec.batch.boxes") > batch_boxes);
        assert_eq!(
            BoxPath::Row(Fallback::OuterJoin).to_string(),
            "row(outer_join)"
        );
        assert_eq!(BoxPath::Batch.to_string(), "batch");
    }
}

/// Set operations against the row-at-a-time definition they had before
/// they ran on batches.
#[cfg(test)]
mod setop_tests {
    use super::*;
    use proptest::prelude::*;
    use starmagic_catalog::{Catalog, ColumnDef, Table, TableSchema};
    use starmagic_common::DataType;
    use starmagic_qgm::build_qgm;
    use std::collections::HashSet;

    /// Order-preserving duplicate elimination under grouping equality:
    /// the first spelling of a key stays.
    fn first_spellings(rows: Vec<Row>) -> Vec<Row> {
        let mut seen = HashSet::new();
        rows.into_iter()
            .filter(|r| seen.insert(r.clone()))
            .collect()
    }

    /// The row set operation: UNION over every arm, EXCEPT of the first
    /// arm against all the others, INTERSECT of the first two; bags per
    /// key for the ALL forms; `distinct` for a box that also enforces
    /// DISTINCT.
    pub(super) fn reference(
        op: SetOpKind,
        all: bool,
        distinct: bool,
        arms: &[Vec<Row>],
    ) -> Vec<Row> {
        let left: &[Row] = arms.first().map_or(&[], Vec::as_slice);
        fn count(arms: &[Vec<Row>]) -> HashMap<&Row, i64> {
            let mut counts = HashMap::new();
            for r in arms.iter().flatten() {
                *counts.entry(r).or_insert(0) += 1;
            }
            counts
        }
        let result = match (op, all) {
            (SetOpKind::Union, true) => arms.concat(),
            (SetOpKind::Union, false) => first_spellings(arms.concat()),
            (SetOpKind::Except, all) => {
                let mut counts = count(arms.get(1..).unwrap_or_default());
                if all {
                    let mut out = Vec::new();
                    for r in left {
                        match counts.get_mut(r) {
                            Some(c) if *c > 0 => *c -= 1,
                            _ => out.push(r.clone()),
                        }
                    }
                    out
                } else {
                    let kept = left.iter().filter(|r| !counts.contains_key(r));
                    first_spellings(kept.cloned().collect())
                }
            }
            (SetOpKind::Intersect, all) => {
                let mut counts = count(arms.get(1..2).unwrap_or_default());
                if all {
                    let mut out = Vec::new();
                    for r in left {
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
                    first_spellings(kept.cloned().collect())
                }
            }
        };
        if distinct {
            first_spellings(result)
        } else {
            result
        }
    }

    /// `v(k, x)`: NULLs, `1` and `1.0`, `0` and `-0.0`, duplicates.
    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        let schema = TableSchema::new(
            "v",
            vec![
                ColumnDef::new("k", DataType::Int),
                ColumnDef::new("x", DataType::Int),
            ],
        );
        let rows = [
            (1, Value::Int(1)),
            (1, Value::Double(1.0)),
            (2, Value::Null),
            (2, Value::Null),
            (3, Value::Int(0)),
            (3, Value::Double(-0.0)),
            (4, Value::Int(1)),
            (4, Value::Int(7)),
        ]
        .into_iter()
        .map(|(k, x)| Row::new(vec![Value::Int(k), x]))
        .collect();
        c.add_table(Table::with_rows(schema, rows).unwrap())
            .unwrap();
        c
    }

    fn exact(rows: &[Row]) -> String {
        format!("{rows:?}")
    }

    /// One value: NULL, small `Int`s and the same numbers as `Double`s,
    /// `-0.0` and a fraction, so keys repeat under every spelling.
    fn cell() -> impl Strategy<Value = Value> {
        prop_oneof![
            Just(Value::Null),
            (0i64..3).prop_map(Value::Int),
            (0i64..3).prop_map(|i| Value::Double(i as f64)),
            Just(Value::Double(-0.0)),
            Just(Value::Double(0.5)),
        ]
    }

    /// Zero to four arms of zero to twelve two-column rows.
    fn arms() -> impl Strategy<Value = Vec<Vec<Row>>> {
        let row = (cell(), cell()).prop_map(|(a, b)| Row::new(vec![a, b]));
        prop::collection::vec(prop::collection::vec(row, 0..12), 0..5)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1000))]

        /// The batch kernel answers the row definition's rows, in order
        /// and spelled as they were, for all six forms.
        #[test]
        fn the_batch_kernel_agrees_with_the_row_definition(
            arms in arms(),
            distinct in any::<bool>(),
        ) {
            let batches: Vec<Arc<Batch>> =
                arms.iter().map(|a| Arc::new(Batch::from_rows(a))).collect();
            for op in [SetOpKind::Union, SetOpKind::Except, SetOpKind::Intersect] {
                for all in [false, true] {
                    let got = crate::dedup::set_op(op, all, distinct, 2, &batches).rows();
                    let want = reference(op, all, distinct, &arms);
                    prop_assert_eq!(exact(&got), exact(&want), "{:?} all={}", op, all);
                }
            }
        }
    }

    #[test]
    fn the_reference_answers_what_the_executor_answers() {
        let cat = catalog();
        let run = |sql: &str| {
            let g = build_qgm(&cat, &starmagic_sql::parse_query(sql).unwrap()).unwrap();
            execute(&g, &cat).unwrap()
        };
        let arms = [
            "SELECT x FROM v WHERE k <= 2",
            "SELECT x FROM v WHERE k >= 2",
            "SELECT x FROM v",
        ];
        let rows: Vec<Vec<Row>> = arms.iter().map(|sql| run(sql)).collect();
        for (op, word) in [
            (SetOpKind::Union, "UNION"),
            (SetOpKind::Except, "EXCEPT"),
            (SetOpKind::Intersect, "INTERSECT"),
        ] {
            for all in [false, true] {
                let joined = if all {
                    format!(" {word} ALL ")
                } else {
                    format!(" {word} ")
                };
                let sql = arms[..2].join(&joined);
                let want = reference(op, all, false, &rows[..2]);
                assert_eq!(exact(&run(&sql)), exact(&want), "{sql}");
            }
        }
        let three = arms.join(" UNION ALL ");
        assert_eq!(
            exact(&run(&three)),
            exact(&reference(SetOpKind::Union, true, false, &rows))
        );
    }
}
