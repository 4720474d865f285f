//! The vectorized select path: batch-at-a-time join/filter/project
//! with late materialization.
//!
//! [`try_eval_select`] is a *fast path*, not a second semantics. It
//! mirrors the row executor's `eval_select` stage for stage — the same
//! hash-predicate classification, the same index-nested-loop decision,
//! the same profile counters charged at the same points — but carries
//! the intermediate join state as id vectors into shared [`Batch`]es
//! instead of materialized `Vec<Row>` combinations. Values are only
//! gathered when a kernel touches them, and the box hands over its
//! projection vectors as a [`Batch`] of the output columns some
//! consumer reads (`boundary`): rows exist again only if a
//! row-at-a-time consumer — or the query root — asks for them.
//!
//! **Fallback-first.** A select box qualifies only when every
//! predicate is join-time (no subquery references) and compiles to a
//! [`VExpr`], every projection column compiles, and every input
//! quantifier is uncorrelated — decided once, when the plan is lowered
//! ([`crate::plan`]), which also compiles every kernel this module
//! runs. Anything else — and any error inside a vectorized kernel —
//! falls back with its reason, and the row path evaluates the box from
//! scratch. Two properties make the fallback free of observable drift:
//!
//! * Stage counters accumulate in a **scratch profile** merged into
//!   the executor's only on success, so an abandoned columnar attempt
//!   charges nothing. Child boxes evaluated before the abort were
//!   charged through `eval_box` exactly once — they are uncorrelated,
//!   so the row path's retry hits the materialization cache and
//!   charges nothing again.
//! * The kernels error on a **superset** of the rows the row path
//!   evaluates (they do not short-circuit), and on exactly the same
//!   per-value conditions. So if the row path would fail the query,
//!   some kernel fails first and the row path gets to report its own
//!   error; if the row path would succeed, the fallback result is the
//!   row path's own.
//!
//! The net contract, pinned by the determinism suite and the fuzzer's
//! columnar oracle: rows, order, profile, and errors are byte-for-byte
//! those of the row executor.

use std::sync::Arc;

use starmagic_common::{Error, Result};
use starmagic_qgm::BoxId;

use crate::batch::{Batch, Column};
use crate::boundary::{BoxOutput, Fallback};
use crate::dedup::distinct_ids;
use crate::executor::{Executor, Frame};
use crate::plan::SelectPlan;
use crate::profile::ExecProfile;
use crate::rowids::RowIds;
use crate::vector::{eval, Env, SlotView, VExpr, Vector};

/// The counting unit of `exec.batch.batches`: a stage over `n` rows
/// counts `ceil(n / BATCH_ROWS)` batches (at least one).
pub(crate) const BATCH_ROWS: usize = 256;

/// Why a columnar attempt stopped: fall back silently, or propagate a
/// real executor error (one the row path would hit identically).
enum Abort {
    Fallback(Fallback),
    Fatal(Error),
}

type StageResult<T> = std::result::Result<T, Abort>;

/// Unwrap a vectorized-kernel result; any error means "use the row
/// path" (see the module docs for why that is always sound).
macro_rules! vk {
    ($e:expr) => {
        match $e {
            Ok(v) => v,
            Err(_) => return Err(Abort::Fallback(Fallback::KernelError)),
        }
    };
}

/// Unwrap an executor call (child evaluation, catalog access): errors
/// here are real and deterministic — the row path would hit the same
/// one at the same point.
macro_rules! ex {
    ($e:expr) => {
        match $e {
            Ok(v) => v,
            Err(e) => return Err(Abort::Fatal(e)),
        }
    };
}

/// Evaluate a select box columnar if it qualifies. `Ok(Err(why))` means
/// "not eligible (or a kernel bailed) — run the row path".
pub(crate) fn try_eval_select(
    exec: &mut Executor<'_>,
    b: BoxId,
    select: &SelectPlan,
    frame: &Frame<'_>,
) -> Result<std::result::Result<BoxOutput, Fallback>> {
    match run(exec, b, select, frame) {
        Ok(out) => Ok(Ok(out)),
        Err(Abort::Fallback(why)) => Ok(Err(why)),
        Err(Abort::Fatal(e)) => Err(e),
    }
}

/// A hash join's build side: the child's batch and the row-id table
/// over its key columns. A step arm's build outlives one evaluation
/// (`Executor::step_builds`); a later round's delta may probe it with
/// keys of another type, which the table answers as well.
pub(crate) struct JoinBuild {
    batch: Arc<Batch>,
    ids: RowIds,
}

/// Join state: one shared batch + one id vector per bound quantifier.
/// All id vectors have length `len` — position `k` across them is one
/// join combination, never materialized as a row until projection.
struct State {
    batches: Vec<Arc<Batch>>,
    ids: Vec<Vec<u32>>,
    len: usize,
}

impl State {
    fn views(&self) -> Vec<SlotView<'_>> {
        self.batches
            .iter()
            .zip(&self.ids)
            .map(|(batch, ids)| SlotView {
                batch: batch.as_ref(),
                ids,
            })
            .collect()
    }

    /// Gather every id vector through `parent` positions, then append
    /// a new slot. One join stage's late materialization: only id
    /// vectors move, never values.
    fn advance(&mut self, parent: &[u32], batch: Arc<Batch>, new_ids: Vec<u32>) {
        for ids in &mut self.ids {
            *ids = parent.iter().map(|&p| ids[p as usize]).collect();
        }
        self.len = new_ids.len();
        self.batches.push(batch);
        self.ids.push(new_ids);
    }

    /// Keep only `keep` positions (a filter stage).
    fn retain(&mut self, keep: &[u32]) {
        for ids in &mut self.ids {
            *ids = keep.iter().map(|&p| ids[p as usize]).collect();
        }
        self.len = keep.len();
    }
}

/// Batch-stage telemetry accumulated locally and flushed only on
/// success, so a fallback leaves the registry untouched.
#[derive(Default)]
struct Stats {
    batches: u64,
    gather: u64,
    rows: Vec<u64>,
    selectivity: Vec<u64>,
}

impl Stats {
    fn stage(&mut self, n: usize) {
        self.batches += n.div_ceil(BATCH_ROWS).max(1) as u64;
        self.rows.push(n as u64);
    }
}

fn run(
    exec: &mut Executor<'_>,
    b: BoxId,
    select: &SelectPlan,
    frame: &Frame<'_>,
) -> StageResult<BoxOutput> {
    let program = &select.program;
    let outer = program.outer.resolve(frame);
    let kernels = program.kernels(&outer).map_err(Abort::Fallback)?;
    let env = Env {
        params: frame.params(),
        outer: &outer,
    };

    // ---- stage loop (mirrors eval_select) ----------------------------
    let mut scratch = ExecProfile::default();
    let mut stats = Stats::default();
    let mut state = State {
        batches: Vec::new(),
        ids: Vec::new(),
        len: 1, // the single empty combination
    };

    for (stage, compiled) in select.stages.iter().zip(&kernels.stages) {
        let (q, child) = (stage.quant, stage.child);
        stats.stage(state.len);

        let (parent, new_ids, stage_batch): (Vec<u32>, Vec<u32>, Arc<Batch>) =
            if let Some(probe) = exec.index_probe(stage, state.len) {
                // Index nested loop: probe the id index per
                // combination; charge the probed rows to the base
                // table, exactly like the row path.
                let index = ex!(exec.table_id_index(&probe.table, probe.col));
                let tbatch = ex!(exec.table_batch(&probe.table));
                let rest: Vec<(&VExpr, &VExpr)> = compiled
                    .probe
                    .iter()
                    .zip(&compiled.build)
                    .enumerate()
                    .filter(|&(i, _)| i != probe.pred)
                    .map(|(_, pair)| pair)
                    .collect();
                let slots = state.views();
                let positions: Vec<u32> = (0..state.len as u32).collect();
                let keys = vk!(eval(&compiled.probe[probe.pred], &slots, &positions, env));
                let mut parent: Vec<u32> = Vec::new();
                let mut mids: Vec<u32> = Vec::new();
                index.probe(&[keys], &mut parent, &mut mids);
                if !mids.is_empty() {
                    scratch.entry(child).rows_scanned += mids.len() as u64;
                    scratch.entry(b).rows_in += mids.len() as u64;
                }
                // Remaining equality predicates filter the expanded
                // candidates, in classification order.
                for &(pv, bv) in &rest {
                    if parent.is_empty() {
                        break;
                    }
                    let probe = vk!(eval(pv, &slots, &parent, env));
                    let bids: Vec<u32> = (0..mids.len() as u32).collect();
                    let bslots = [SlotView {
                        batch: tbatch.as_ref(),
                        ids: &mids,
                    }];
                    let build = vk!(eval(bv, &bslots, &bids, env));
                    let mut kept_parent = Vec::new();
                    let mut kept_mids = Vec::new();
                    for k in 0..parent.len() {
                        if probe.value_at(k).sql_eq(&build.value_at(k)).passes() {
                            kept_parent.push(parent[k]);
                            kept_mids.push(mids[k]);
                        }
                    }
                    parent = kept_parent;
                    mids = kept_mids;
                }
                (parent, mids, tbatch)
            } else if !compiled.probe.is_empty() {
                // Hash join: build on the child once, probe per
                // combination position. A step arm keeps a build over an
                // input outside the recursion for the whole fixpoint;
                // the child is still asked for (a cache hit) and charged
                // every round, exactly as a fresh build would be.
                let child_out = ex!(exec.eval_box(child, frame));
                scratch.entry(b).rows_in += child_out.len() as u64;
                let reusable = exec.step_build_site(b, child);
                let cached = reusable
                    .then(|| exec.step_builds.get(&(b, q)).cloned())
                    .flatten();
                let build = if let Some(build) = cached {
                    exec.note_step_build(b, true);
                    build
                } else {
                    let cbatch = ex!(exec.batch_of(child, &child_out));
                    let cids: Vec<u32> = (0..child_out.len() as u32).collect();
                    let bslots = [SlotView {
                        batch: cbatch.as_ref(),
                        ids: &cids,
                    }];
                    let mut keys: Vec<Vector> = Vec::with_capacity(compiled.build.len());
                    for bv in &compiled.build {
                        keys.push(vk!(eval(bv, &bslots, &cids, env)));
                    }
                    let build = Arc::new(JoinBuild {
                        batch: cbatch,
                        ids: RowIds::build(&keys),
                    });
                    if reusable {
                        exec.step_builds.insert((b, q), build.clone());
                        exec.note_step_build(b, false);
                    }
                    build
                };
                let slots = state.views();
                let positions: Vec<u32> = (0..state.len as u32).collect();
                let mut probe_cols: Vec<Vector> = Vec::with_capacity(compiled.probe.len());
                for pv in &compiled.probe {
                    probe_cols.push(vk!(eval(pv, &slots, &positions, env)));
                }
                let mut parent: Vec<u32> = Vec::new();
                let mut cid: Vec<u32> = Vec::new();
                build.ids.probe(&probe_cols, &mut parent, &mut cid);
                (parent, cid, build.batch.clone())
            } else {
                // Nested loop over an uncorrelated child: prefetch
                // once, cross product as id arithmetic.
                let child_out = ex!(exec.eval_box(child, frame));
                let m = child_out.len();
                scratch.entry(b).rows_in += m as u64;
                let cbatch = ex!(exec.batch_of(child, &child_out));
                let mut parent = Vec::with_capacity(state.len * m);
                let mut cid = Vec::with_capacity(state.len * m);
                for pos in 0..state.len as u32 {
                    for j in 0..m as u32 {
                        parent.push(pos);
                        cid.push(j);
                    }
                }
                (parent, cid, cbatch)
            };

        stats.gather += (parent.len() * (state.ids.len() + 1)) as u64;
        state.advance(&parent, stage_batch, new_ids);

        // Apply every predicate that just became available, in
        // declaration order with a shrinking selection — the same
        // (predicate, row) coverage as the row path's short-circuit.
        if !compiled.ready.is_empty() {
            let n = state.len;
            stats.stage(n);
            let slots = state.views();
            let mut keep: Vec<u32> = (0..n as u32).collect();
            for v in &compiled.ready {
                if keep.is_empty() {
                    break;
                }
                let tv = vk!(eval(v, &slots, &keep, env));
                keep = keep
                    .iter()
                    .enumerate()
                    .filter(|&(k, _)| tv.passes_at(k))
                    .map(|(_, &p)| p)
                    .collect();
            }
            drop(slots);
            if let Some(pct) = (keep.len() * 100).checked_div(n) {
                stats.selectivity.push(pct as u64);
            }
            stats.gather += (keep.len() * state.ids.len()) as u64;
            state.retain(&keep);
        }
        scratch.entry(b).rows_produced += state.len as u64;
    }

    // ---- projection: gather only the surviving rows, and of those only
    // the columns some consumer reads (a DISTINCT box's are all of
    // them: width is semantics). A dead column that is a bare reference
    // or a constant cannot fail and is skipped outright; any other dead
    // expression is still evaluated, for its errors alone.
    let col_vs = &kernels.columns;
    let all = vec![true; col_vs.len()];
    let live = exec.live_columns(b).unwrap_or(&all);
    stats.stage(state.len);
    stats.gather += (state.len * live.iter().filter(|&&l| l).count()) as u64;
    let slots = state.views();
    let positions: Vec<u32> = (0..state.len as u32).collect();
    let mut columns: Vec<Option<Column>> = Vec::with_capacity(col_vs.len());
    for (v, &live) in col_vs.iter().zip(live) {
        if !live && v.is_leaf() {
            columns.push(None);
            continue;
        }
        let column = vk!(eval(v, &slots, &positions, env)).into_column();
        columns.push(live.then_some(column));
    }
    drop(slots);
    let batch = Batch::from_columns(columns, state.len);
    scratch.entry(b).rows_produced += state.len as u64;
    let out = if exec.qgm.boxed(b).distinct.needs_dedup() {
        BoxOutput::from_batch(batch.take(&distinct_ids(&batch)))
    } else {
        BoxOutput::from_batch(batch)
    };

    // Success: commit the counters and the batch telemetry.
    exec.profile.merge(&scratch);
    exec.note_batch_stats(stats.batches, stats.gather, &stats.rows, &stats.selectivity);
    Ok(out)
}
