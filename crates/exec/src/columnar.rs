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
//! quantifier is uncorrelated. Anything else — and any error inside a
//! vectorized kernel — falls back with its reason, and the row path
//! evaluates the box from scratch. Two properties make the fallback
//! free of observable drift:
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
//! those of the row executor, at any thread count.

use std::collections::{BTreeSet, HashMap};
use std::sync::{Arc, OnceLock};

use starmagic_common::{Error, Result, Value};
use starmagic_qgm::{BoxId, BoxKind, QuantId, ScalarExpr};

use crate::batch::{Batch, Column};
use crate::boundary::{BoxOutput, Fallback};
use crate::dedup::distinct_ids;
use crate::executor::{Executor, Frame};
use crate::parallel::{run_batches, MORSEL_ROWS, PARALLEL_THRESHOLD};
use crate::profile::ExecProfile;
use crate::vector::{compile, eval, SlotView, VExpr, Vector};

/// Why a columnar attempt stopped: fall back silently, or propagate a
/// real executor error (one the row path would hit identically).
enum Abort {
    Fallback(Fallback),
    Fatal(Error),
}

type StageResult<T> = std::result::Result<T, Abort>;

/// A predicate side that compiled for the whole box during eligibility
/// must compile for a stage's slots too; if it ever does not, the row
/// path rules.
const UNCOMPILABLE: Abort = Abort::Fallback(Fallback::UncompilablePredicate);

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
    frame: &Frame<'_>,
) -> Result<std::result::Result<BoxOutput, Fallback>> {
    match run(exec, b, frame) {
        Ok(out) => Ok(Ok(out)),
        Err(Abort::Fallback(why)) => Ok(Err(why)),
        Err(Abort::Fatal(e)) => Err(e),
    }
}

/// A hash join's build side: the child's batch, its key columns, and a
/// hash table over them, built on first use in the shape the probe side
/// needs. Single-Int64 keys join through a raw `i64` table (no per-row
/// key vector); Int-Int equality is exact under both SQL and grouping
/// semantics, so its buckets match the generic map's. A step arm's build
/// outlives one evaluation (`Executor::step_builds`), and a later
/// round's delta may need the other shape (a probe column that is not
/// `Int64`), hence one lazily built table per shape.
pub(crate) struct JoinBuild {
    batch: Arc<Batch>,
    keys: Vec<Vector>,
    by_int: OnceLock<HashMap<i64, Vec<u32>>>,
    by_values: OnceLock<HashMap<Vec<Value>, Vec<u32>>>,
}

enum JoinMap<'m> {
    I64(&'m HashMap<i64, Vec<u32>>),
    Generic(&'m HashMap<Vec<Value>, Vec<u32>>),
}

impl JoinBuild {
    fn new(batch: Arc<Batch>, keys: Vec<Vector>) -> JoinBuild {
        JoinBuild {
            batch,
            keys,
            by_int: OnceLock::new(),
            by_values: OnceLock::new(),
        }
    }

    /// The table to probe with `probe` (one vector per key), buckets in
    /// build-row order.
    fn map(&self, probe: &[Vector]) -> JoinMap<'_> {
        let int_keyed = |v: &Vector| {
            matches!(
                v,
                Vector::Col(Column::Int64 { .. })
                    | Vector::Const {
                        value: Value::Int(_) | Value::Null,
                        ..
                    }
            )
        };
        let m = self.batch.len();
        if let ([key], [probe]) = (self.keys.as_slice(), probe) {
            if int_keyed(key) && int_keyed(probe) {
                return JoinMap::I64(self.by_int.get_or_init(|| {
                    let mut map: HashMap<i64, Vec<u32>> = HashMap::new();
                    for j in 0..m {
                        if let Value::Int(x) = key.value_at(j) {
                            map.entry(x).or_default().push(j as u32);
                        }
                    }
                    map
                }));
            }
        }
        JoinMap::Generic(self.by_values.get_or_init(|| {
            let mut map: HashMap<Vec<Value>, Vec<u32>> = HashMap::new();
            'build: for j in 0..m {
                let mut key = Vec::with_capacity(self.keys.len());
                for column in &self.keys {
                    let v = column.value_at(j);
                    if v.is_null() {
                        continue 'build; // NULL keys never join
                    }
                    key.push(v);
                }
                map.entry(key).or_default().push(j as u32);
            }
            map
        }))
    }
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
        self.batches += n.div_ceil(MORSEL_ROWS).max(1) as u64;
        self.rows.push(n as u64);
    }
}

/// Run one stage's per-position work serially or over position chunks
/// on the worker pool; chunk outputs come back in position order and
/// chunk counters merge into `scratch` (commutative sums), so the
/// result is byte-identical either way.
fn dispatch<R: Send>(
    exec: &Executor<'_>,
    n: usize,
    scratch: &mut ExecProfile,
    f: impl Fn(&[u32], &mut ExecProfile) -> Result<R> + Sync,
) -> Result<Vec<R>> {
    if exec.threads > 1 && n >= PARALLEL_THRESHOLD {
        exec.note_morsel_run(n);
        let (parts, profile) = run_batches(exec.threads, n, f)?;
        scratch.merge(&profile);
        Ok(parts)
    } else {
        let positions: Vec<u32> = (0..n as u32).collect();
        Ok(vec![f(&positions, scratch)?])
    }
}

fn run(exec: &mut Executor<'_>, b: BoxId, frame: &Frame<'_>) -> StageResult<BoxOutput> {
    let qgm = exec.qgm;
    let qb = qgm.boxed(b);
    let order = qgm.join_order(b);
    if order.is_empty() {
        return Err(Abort::Fallback(Fallback::NoInput));
    }
    let local_f: BTreeSet<QuantId> = order.iter().copied().collect();
    let local_sub: BTreeSet<QuantId> = qb
        .quants
        .iter()
        .copied()
        .filter(|&q| !qgm.quant(q).kind.is_foreach())
        .collect();
    let preds = qb.predicates.clone();

    // ---- eligibility (no side effects yet) ---------------------------
    let full_slot = |x: QuantId| order.iter().position(|&y| y == x);
    for p in &preds {
        if p.quantifiers().iter().any(|x| local_sub.contains(x)) {
            return Err(Abort::Fallback(Fallback::SubqueryPredicate));
        }
        if compile(p, &full_slot, frame).is_none() {
            return Err(Abort::Fallback(Fallback::UncompilablePredicate));
        }
    }
    if qb
        .columns
        .iter()
        .any(|c| compile(&c.expr, &full_slot, frame).is_none())
    {
        return Err(Abort::Fallback(Fallback::UncompilableColumn));
    }
    for &q in &order {
        if exec.is_correlated(qgm.quant(q).input) {
            return Err(Abort::Fallback(Fallback::CorrelatedInput));
        }
    }

    // ---- stage loop (mirrors eval_select) ----------------------------
    let mut scratch = ExecProfile::default();
    let mut stats = Stats::default();
    let mut applied = vec![false; preds.len()];
    let mut bound: Vec<QuantId> = Vec::new();
    let mut state = State {
        batches: Vec::new(),
        ids: Vec::new(),
        len: 1, // the single empty combination
    };

    for &q in &order {
        let child = qgm.quant(q).input;

        // Equality predicates usable for a hash join with q — the
        // same classification the row path makes (children here are
        // uncorrelated by eligibility).
        let mut hash_preds: Vec<(ScalarExpr, ScalarExpr)> = Vec::new();
        for (i, p) in preds.iter().enumerate() {
            if applied[i] {
                continue;
            }
            if let Some((l, r)) = p.as_equality() {
                let lq: Vec<QuantId> = l
                    .quantifiers()
                    .into_iter()
                    .filter(|x| local_f.contains(x))
                    .collect();
                let rq: Vec<QuantId> = r
                    .quantifiers()
                    .into_iter()
                    .filter(|x| local_f.contains(x))
                    .collect();
                let (probe, build) = if lq.iter().all(|x| bound.contains(x)) && rq == vec![q] {
                    (l.clone(), r.clone())
                } else if rq.iter().all(|x| bound.contains(x)) && lq == vec![q] {
                    (r.clone(), l.clone())
                } else {
                    continue;
                };
                hash_preds.push((probe, build));
                applied[i] = true;
            }
        }

        // Same index-nested-loop decision as the row path: combination
        // count vs table cardinality, never data-dependent.
        let index_plan: Option<(String, usize, usize)> = if hash_preds.is_empty() {
            None
        } else if let BoxKind::BaseTable { table } = &qgm.boxed(child).kind {
            let trows = exec
                .catalog
                .table(table)
                .map_or(0, starmagic_catalog::Table::row_count);
            if state.len.saturating_mul(4) < trows.max(1) {
                hash_preds
                    .iter()
                    .position(|(_, build)| {
                        matches!(build, ScalarExpr::ColRef { quant, .. } if *quant == q)
                    })
                    .map(|i| {
                        let ScalarExpr::ColRef { col, .. } = &hash_preds[i].1 else {
                            unreachable!("position matched ColRef")
                        };
                        (table.clone(), *col, i)
                    })
            } else {
                None
            }
        } else {
            None
        };

        let slot_of = |x: QuantId| bound.iter().position(|&y| y == x);
        let build_slot = |x: QuantId| (x == q).then_some(0);
        stats.stage(state.len);

        let (parent, new_ids, stage_batch): (Vec<u32>, Vec<u32>, Arc<Batch>) =
            if let Some((table, col, pred_idx)) = index_plan {
                // Index nested loop: probe the id index per
                // combination; charge the probed rows to the base
                // table, exactly like the row path.
                let index = ex!(exec.table_id_index(&table, col));
                let tbatch = ex!(exec.table_batch(&table));
                let probe_key =
                    compile(&hash_preds[pred_idx].0, &slot_of, frame).ok_or(UNCOMPILABLE)?;
                let rest: Vec<(VExpr, VExpr)> = hash_preds
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| *i != pred_idx)
                    .map(|(_, (p, bld))| {
                        let pv = compile(p, &slot_of, frame).ok_or(UNCOMPILABLE)?;
                        let bv = compile(bld, &build_slot, frame).ok_or(UNCOMPILABLE)?;
                        Ok((pv, bv))
                    })
                    .collect::<StageResult<_>>()?;
                let slots = state.views();
                let positions: Vec<u32> = (0..state.len as u32).collect();
                let keys = vk!(eval(&probe_key, &slots, &positions));
                let tbatch_ref = tbatch.as_ref();
                let parts = vk!(dispatch(exec, state.len, &mut scratch, |chunk, prof| {
                    let mut parent: Vec<u32> = Vec::new();
                    let mut mids: Vec<u32> = Vec::new();
                    for &pos in chunk {
                        let key = keys.value_at(pos as usize);
                        if key.is_null() {
                            continue;
                        }
                        let Some(matches) = index.get(&key) else {
                            continue;
                        };
                        prof.entry(child).rows_scanned += matches.len() as u64;
                        prof.entry(b).rows_in += matches.len() as u64;
                        for &m in matches {
                            parent.push(pos);
                            mids.push(m);
                        }
                    }
                    // Remaining equality predicates filter the
                    // expanded candidates, in classification order.
                    for (pv, bv) in &rest {
                        if parent.is_empty() {
                            break;
                        }
                        let probe = eval(pv, &slots, &parent)?;
                        let bids: Vec<u32> = (0..mids.len() as u32).collect();
                        let bslots = [SlotView {
                            batch: tbatch_ref,
                            ids: &mids,
                        }];
                        let build = eval(bv, &bslots, &bids)?;
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
                    Ok((parent, mids))
                }));
                let mut parent = Vec::new();
                let mut mids = Vec::new();
                for (p, m) in parts {
                    parent.extend(p);
                    mids.extend(m);
                }
                (parent, mids, tbatch)
            } else if !hash_preds.is_empty() {
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
                    let mut keys: Vec<Vector> = Vec::with_capacity(hash_preds.len());
                    for (_, build) in &hash_preds {
                        let bv = compile(build, &build_slot, frame).ok_or(UNCOMPILABLE)?;
                        keys.push(vk!(eval(&bv, &bslots, &cids)));
                    }
                    let build = Arc::new(JoinBuild::new(cbatch, keys));
                    if reusable {
                        exec.step_builds.insert((b, q), build.clone());
                        exec.note_step_build(b, false);
                    }
                    build
                };
                let slots = state.views();
                let positions: Vec<u32> = (0..state.len as u32).collect();
                let mut probe_cols: Vec<Vector> = Vec::with_capacity(hash_preds.len());
                for (probe, _) in &hash_preds {
                    let pv = compile(probe, &slot_of, frame).ok_or(UNCOMPILABLE)?;
                    probe_cols.push(vk!(eval(&pv, &slots, &positions)));
                }
                let join_map = build.map(&probe_cols);
                let parts = vk!(dispatch(exec, state.len, &mut scratch, |chunk, _| {
                    let mut parent: Vec<u32> = Vec::new();
                    let mut cid: Vec<u32> = Vec::new();
                    match join_map {
                        JoinMap::I64(map) => {
                            for &pos in chunk {
                                let Value::Int(key) = probe_cols[0].value_at(pos as usize) else {
                                    continue; // NULL probe keys never match
                                };
                                if let Some(bucket) = map.get(&key) {
                                    for &j in bucket {
                                        parent.push(pos);
                                        cid.push(j);
                                    }
                                }
                            }
                        }
                        JoinMap::Generic(map) => {
                            let mut key: Vec<Value> = Vec::with_capacity(probe_cols.len());
                            'pos: for &pos in chunk {
                                key.clear();
                                for pc in &probe_cols {
                                    let v = pc.value_at(pos as usize);
                                    if v.is_null() {
                                        continue 'pos;
                                    }
                                    key.push(v);
                                }
                                if let Some(bucket) = map.get(&key) {
                                    for &j in bucket {
                                        parent.push(pos);
                                        cid.push(j);
                                    }
                                }
                            }
                        }
                    }
                    Ok((parent, cid))
                }));
                let mut parent = Vec::new();
                let mut cid = Vec::new();
                for (p, c) in parts {
                    parent.extend(p);
                    cid.extend(c);
                }
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
        bound.push(q);

        // Apply every predicate that just became available, in
        // declaration order with a shrinking selection — the same
        // (predicate, row) coverage as the row path's short-circuit.
        let ready: Vec<usize> = preds
            .iter()
            .enumerate()
            .filter(|(i, p)| {
                !applied[*i]
                    && p.quantifiers()
                        .iter()
                        .all(|x| !local_f.contains(x) || bound.contains(x))
            })
            .map(|(i, _)| i)
            .collect();
        if !ready.is_empty() {
            let stage_slot = |x: QuantId| bound.iter().position(|&y| y == x);
            let ready_vs: Vec<VExpr> = ready
                .iter()
                .map(|&i| compile(&preds[i], &stage_slot, frame).ok_or(UNCOMPILABLE))
                .collect::<StageResult<_>>()?;
            let n = state.len;
            stats.stage(n);
            let slots = state.views();
            let ready_vs = &ready_vs;
            let parts = vk!(dispatch(exec, n, &mut scratch, |chunk, _| {
                let mut pos: Vec<u32> = chunk.to_vec();
                for v in ready_vs {
                    if pos.is_empty() {
                        break;
                    }
                    let tv = eval(v, &slots, &pos)?;
                    pos = pos
                        .iter()
                        .enumerate()
                        .filter(|&(k, _)| tv.passes_at(k))
                        .map(|(_, &p)| p)
                        .collect();
                }
                Ok(pos)
            }));
            drop(slots);
            let keep: Vec<u32> = parts.into_iter().flatten().collect();
            if let Some(pct) = (keep.len() * 100).checked_div(n) {
                stats.selectivity.push(pct as u64);
            }
            stats.gather += (keep.len() * state.ids.len()) as u64;
            state.retain(&keep);
            for &i in &ready {
                applied[i] = true;
            }
        }
        scratch.entry(b).rows_produced += state.len as u64;
    }

    // Every predicate is join-time by eligibility, so by now all are
    // applied; anything else is a logic drift — let the row path rule.
    if applied.iter().any(|a| !a) {
        return Err(UNCOMPILABLE);
    }

    // ---- projection: gather only the surviving rows, and of those only
    // the columns some consumer reads. A dead column that is a bare
    // reference or a literal cannot fail and is skipped outright; any
    // other dead expression is still evaluated, for its errors alone.
    let stage_slot = |x: QuantId| bound.iter().position(|&y| y == x);
    let col_vs: Vec<VExpr> = qb
        .columns
        .iter()
        .map(|c| compile(&c.expr, &stage_slot, frame).ok_or(UNCOMPILABLE))
        .collect::<StageResult<_>>()?;
    // Full width where width is semantics: DISTINCT compares whole rows.
    let all = vec![true; col_vs.len()];
    exec.find_live_columns();
    let live = match exec.live_columns(b) {
        Some(live) if !qb.distinct.needs_dedup() => live,
        _ => &all,
    };
    stats.stage(state.len);
    stats.gather += (state.len * live.iter().filter(|&&l| l).count()) as u64;
    let slots = state.views();
    let col_vs = &col_vs;
    let mut parts = vk!(dispatch(exec, state.len, &mut scratch, |chunk, _| {
        col_vs
            .iter()
            .zip(live)
            .map(|(v, &live)| {
                if !live && matches!(v, VExpr::Col { .. } | VExpr::Lit(_)) {
                    return Ok(None);
                }
                let column = eval(v, &slots, chunk)?.into_column();
                Ok(live.then_some(column))
            })
            .collect::<Result<Vec<Option<Column>>>>()
    }));
    drop(slots);
    let columns = if parts.len() == 1 {
        parts.pop().expect("one chunk")
    } else {
        // Chunk outputs back into whole columns, in chunk order. Every
        // chunk iterator advances (no short-circuiting collect): a
        // column is dead in all chunks or in none.
        let mut chunks: Vec<_> = parts.into_iter().map(Vec::into_iter).collect();
        (0..col_vs.len())
            .map(|_| {
                let parts: Vec<Option<Column>> = chunks
                    .iter_mut()
                    .map(|chunk| chunk.next().expect("one entry per column"))
                    .collect();
                let parts: Option<Vec<Column>> = parts.into_iter().collect();
                parts.map(Column::concat)
            })
            .collect()
    };
    let batch = Batch::from_columns(columns, state.len);
    scratch.entry(b).rows_produced += state.len as u64;
    let out = if qb.distinct.needs_dedup() {
        BoxOutput::from_batch(batch.take(&distinct_ids(&batch)))
    } else {
        BoxOutput::from_batch(batch)
    };

    // Success: commit the counters and the batch telemetry.
    exec.profile.merge(&scratch);
    exec.note_batch_stats(stats.batches, stats.gather, &stats.rows, &stats.selectivity);
    Ok(out)
}
