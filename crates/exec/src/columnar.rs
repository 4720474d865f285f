//! The select executor: every select box runs here, a batch at a time,
//! with late materialization.
//!
//! A select carries its join state as id vectors into shared
//! [`Batch`]es, one slot per bound quantifier, instead of materialized
//! row combinations. Values are gathered only when a kernel touches
//! them, and the box hands over its projection vectors as a [`Batch`]
//! of the output columns some consumer reads (`boundary`): rows exist
//! again only at the query root. A frame for the scalar evaluator binds
//! a combination's positions, read in place.
//!
//! Each stage binds one quantifier — by probing a stored table's index
//! per combination, by a hash join over the child's batch, or by a
//! nested loop: once over an uncorrelated child, once per combination
//! over a correlated one, under a frame binding that combination's rows
//! — then filters by the predicates that just became ready. The
//! predicates no stage applies (subquery tests) and the columns come
//! last. [`crate::plan`] derived the stages and compiled every item it
//! could, once per plan.
//!
//! **Kernels of last resort.** An item with no kernel — a subquery
//! test, a scalar-subquery read, an outer reference the frame leaves
//! unbound — runs row by row on the scalar evaluator, and so does an
//! item whose kernel raises an error: kernels do not short-circuit, so
//! the error may be one the row-at-a-time definition never meets.
//! Either marks the box `row(<reason>)`.
//!
//! **Error order.** A step runs item by item over all its positions.
//! The definition takes positions in order and, within one, its items
//! in order, stopping at a NULL key or a failed predicate. Both touch
//! the same (item, position) pairs — apart from hash keys after a NULL
//! one — so a step fails when the definition would, but it may meet
//! another error first. So when the scalar evaluator raises one, the
//! step is re-run row by row in the definition's order, and whatever
//! that re-run answers is the step's answer.

use std::sync::Arc;

use starmagic_common::{Result, Value};
use starmagic_qgm::{BoxId, QuantId};

use crate::batch::{Batch, Column};
use crate::boundary::{BoxPath, Fallback};
use crate::dedup::distinct_ids;
use crate::executor::{truth_of, Executor, Frame, IdIndex, RowAt};
use crate::plan::{IndexProbe, Item, SelectPlan, Stage};
use crate::rowids::RowIds;
use crate::vector::{eval, Env, SlotView, VExpr, Vector};

/// The counting unit of `exec.batch.batches`: a stage over `n` rows
/// counts `ceil(n / BATCH_ROWS)` batches (at least one).
pub(crate) const BATCH_ROWS: usize = 256;

/// A hash join's build side: the child's batch and the row-id table
/// over its key columns. A step arm's build outlives one evaluation
/// (`Executor::step_builds`); a later round's delta may probe it with
/// keys of another type, which the table answers as well.
pub(crate) struct JoinBuild {
    batch: Arc<Batch>,
    ids: RowIds,
}

/// Join state: per bound quantifier, one shared batch and one id
/// vector. All id vectors have length `len` — position `k` across them
/// is one join combination, never materialized as a row until a frame
/// needs it.
#[derive(Default)]
struct State {
    quants: Vec<QuantId>,
    batches: Vec<Arc<Batch>>,
    ids: Vec<Vec<u32>>,
    len: usize,
}

impl State {
    /// One quantifier bound to the `ids` rows of `batch`.
    fn over(quant: QuantId, batch: Arc<Batch>, ids: Vec<u32>) -> State {
        State {
            quants: vec![quant],
            batches: vec![batch],
            len: ids.len(),
            ids: vec![ids],
        }
    }

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

    fn positions(&self) -> Vec<u32> {
        (0..self.len as u32).collect()
    }

    /// Gather every id vector through `parent` positions, then bind
    /// `quant`. One join stage's late materialization: only id vectors
    /// move, never values.
    fn advance(&mut self, quant: QuantId, parent: &[u32], batch: Arc<Batch>, new_ids: Vec<u32>) {
        for ids in &mut self.ids {
            *ids = parent.iter().map(|&p| ids[p as usize]).collect();
        }
        self.len = new_ids.len();
        self.quants.push(quant);
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

    /// Fill `rows` with the rows position `p` binds, one per
    /// quantifier, each read in place.
    fn rows_at<'s>(&'s self, p: u32, rows: &mut Vec<RowAt<'s>>) {
        rows.clear();
        let bound = self.batches.iter().zip(&self.ids);
        rows.extend(bound.map(|(batch, ids)| RowAt(batch, ids[p as usize] as usize)));
    }
}

/// One evaluation of one select box.
struct Cx<'c, 'a> {
    exec: &'c mut Executor<'a>,
    frame: &'c Frame<'c>,
    env: Env<'c>,
    /// `row(<reason>)` once some item ran on the scalar evaluator.
    path: BoxPath,
}

/// Evaluate select `b` under `frame`; also says which path it took.
pub(crate) fn run(
    exec: &mut Executor<'_>,
    b: BoxId,
    select: &SelectPlan,
    frame: &Frame<'_>,
) -> Result<(Batch, BoxPath)> {
    let outer = select.outer.resolve(frame);
    let mut cx = Cx {
        exec,
        frame,
        env: Env {
            params: frame.params(),
            outer: &outer,
        },
        path: BoxPath::Batch,
    };
    // No quantifier bound yet: the single empty combination.
    let mut state = State {
        len: 1,
        ..State::default()
    };
    for stage in &select.stages {
        cx.exec.note_stage(state.len);
        let (parent, new_ids, batch) = cx.bind(b, stage, &state)?;
        cx.exec
            .batch_gather
            .add((parent.len() * (state.ids.len() + 1)) as u64);
        state.advance(stage.quant, &parent, batch, new_ids);

        // Apply every predicate that just became available.
        if !stage.ready.is_empty() {
            let n = state.len;
            cx.exec.note_stage(n);
            let keep = cx.filter_step(&stage.ready, &[], &state)?.0;
            if let Some(pct) = (keep.len() * 100).checked_div(n) {
                cx.exec.batch_selectivity.record(pct as u64);
            }
            cx.exec
                .batch_gather
                .add((keep.len() * state.ids.len()) as u64);
            state.retain(&keep);
        }
        cx.exec.profile.entry(b).rows_produced += state.len as u64;
    }
    let out = cx.project(b, select, &state)?;
    Ok((out, cx.path))
}

impl Cx<'_, '_> {
    /// Bind `stage`'s quantifier: each new combination's parent
    /// position, the id of its row in the returned batch.
    fn bind(
        &mut self,
        b: BoxId,
        stage: &Stage,
        state: &State,
    ) -> Result<(Vec<u32>, Vec<u32>, Arc<Batch>)> {
        let child = stage.child;
        if let Some(probe) = self.exec.index_probe(stage, state.len) {
            // Probed rows are charged to the base table being probed,
            // not the probing select box.
            let index = self.exec.table_id_index(&probe.table, probe.col)?;
            let table = self.exec.table_batch(&probe.table)?;
            let (matched, parent, ids) = match self.index_probe(stage, probe, &index, &table, state)
            {
                Ok(found) => found,
                Err(_) => self.index_probe_rowwise(stage, probe, &index, &table, state)?,
            };
            if matched > 0 {
                self.exec.profile.entry(child).rows_scanned += matched;
                self.exec.profile.entry(b).rows_in += matched;
            }
            return Ok((parent, ids, table));
        }
        if !stage.probe.is_empty() {
            // Hash join: build on the child once, probe per combination
            // position. A step arm keeps a build over an input outside
            // the recursion for the whole fixpoint; the child is still
            // asked for (a cache hit) and charged every round, exactly
            // as a fresh build would be.
            let batch = self.exec.eval_box(child, self.frame)?;
            self.exec.profile.entry(b).rows_in += batch.len() as u64;
            let reusable = self.exec.step_build_site(b, child);
            let cached = reusable
                .then(|| self.exec.step_builds.get(&(b, stage.quant)).cloned())
                .flatten();
            let build = if let Some(build) = cached {
                self.exec.note_step_build(b, true);
                build
            } else {
                let rows = State::over(
                    stage.quant,
                    batch.clone(),
                    (0..batch.len() as u32).collect(),
                );
                let keys = self.keys(&stage.build, &rows)?;
                let build = Arc::new(JoinBuild {
                    batch,
                    ids: RowIds::build(&keys),
                });
                if reusable {
                    self.exec
                        .step_builds
                        .insert((b, stage.quant), build.clone());
                    self.exec.note_step_build(b, false);
                }
                build
            };
            let keys = self.keys(&stage.probe, state)?;
            let (mut parent, mut ids) = (Vec::new(), Vec::new());
            build.ids.probe(&keys, &mut parent, &mut ids);
            return Ok((parent, ids, build.batch.clone()));
        }
        // Nested loop: an uncorrelated child once, a correlated one per
        // combination under a frame binding that combination's rows.
        let mut outs = Vec::new();
        if stage.child_correlated {
            let mut rows = Vec::new();
            for p in 0..state.len as u32 {
                state.rows_at(p, &mut rows);
                let frame = self.frame.extended(&state.quants, &rows);
                outs.push(self.exec.eval_box(child, &frame)?);
            }
        } else {
            outs.push(self.exec.eval_box(child, self.frame)?);
        }
        for out in &outs {
            self.exec.profile.entry(b).rows_in += out.len() as u64;
        }
        let (mut parent, mut ids) = (Vec::new(), Vec::new());
        let batch = if let [out] = &outs[..] {
            // One child result serves every combination as it is.
            for p in 0..state.len as u32 {
                parent.extend(std::iter::repeat(p).take(out.len()));
                ids.extend(0..out.len() as u32);
            }
            out.clone()
        } else {
            for (p, out) in outs.iter().enumerate() {
                parent.extend(std::iter::repeat(p as u32).take(out.len()));
            }
            ids.extend(0..parent.len() as u32);
            let arity = self.exec.qgm.boxed(child).arity();
            Arc::new(Batch::concat(arity, &outs))
        };
        Ok((parent, ids, batch))
    }

    /// Index nested loop: probe with each combination's key, then check
    /// the stage's other equalities one at a time over the candidates.
    fn index_probe(
        &mut self,
        stage: &Stage,
        probe: &IndexProbe,
        index: &IdIndex,
        table: &Arc<Batch>,
        state: &State,
    ) -> Result<(u64, Vec<u32>, Vec<u32>)> {
        let slots = state.views();
        let key = self.item(&stage.probe[probe.pred], state, &slots, &state.positions())?;
        let (mut parent, mut ids) = (Vec::new(), Vec::new());
        index.probe(&[key], &mut parent, &mut ids);
        let matched = ids.len() as u64;
        for (i, (pv, bv)) in stage.probe.iter().zip(&stage.build).enumerate() {
            if i == probe.pred || parent.is_empty() {
                continue;
            }
            let probed = self.item(pv, state, &slots, &parent)?;
            let candidates = State::over(stage.quant, table.clone(), ids.clone());
            let built = self.item(
                bv,
                &candidates,
                &candidates.views(),
                &candidates.positions(),
            )?;
            let keep: Vec<usize> = (0..parent.len())
                .filter(|&k| probed.value_at(k).sql_eq(&built.value_at(k)).passes())
                .collect();
            parent = keep.iter().map(|&k| parent[k]).collect();
            ids = keep.iter().map(|&k| ids[k]).collect();
        }
        Ok((matched, parent, ids))
    }

    /// [`Cx::index_probe`] in the definition's order: per combination
    /// its key, then per match the other equalities, each side in turn.
    fn index_probe_rowwise(
        &mut self,
        stage: &Stage,
        probe: &IndexProbe,
        index: &IdIndex,
        table: &Batch,
        state: &State,
    ) -> Result<(u64, Vec<u32>, Vec<u32>)> {
        let (mut matched, mut parent, mut ids) = (0, Vec::new(), Vec::new());
        let (quant, mut rows) = ([stage.quant], Vec::new());
        for p in 0..state.len as u32 {
            state.rows_at(p, &mut rows);
            let frame = self.frame.extended(&state.quants, &rows);
            let key = self.exec.eval_expr(&stage.probe[probe.pred].expr, &frame)?;
            let found = index.get(std::slice::from_ref(&key));
            matched += found.len() as u64;
            'matched: for &id in found {
                let row = [RowAt(table, id as usize)];
                let candidate = self.frame.extended(&quant, &row);
                for (i, (pv, bv)) in stage.probe.iter().zip(&stage.build).enumerate() {
                    if i == probe.pred {
                        continue;
                    }
                    let probed = self.exec.eval_expr(&pv.expr, &frame)?;
                    let built = self.exec.eval_expr(&bv.expr, &candidate)?;
                    if !probed.sql_eq(&built).passes() {
                        continue 'matched;
                    }
                }
                parent.push(p);
                ids.push(id);
            }
        }
        Ok((matched, parent, ids))
    }

    /// One key vector per hash equality at every position of `state`.
    /// On an error, the definition's order: position by position, the
    /// keys after a NULL one left unevaluated (NULL keys never join).
    fn keys(&mut self, items: &[Item], state: &State) -> Result<Vec<Vector>> {
        let slots = state.views();
        let positions = state.positions();
        let batched: Result<Vec<Vector>> = items
            .iter()
            .map(|item| self.item(item, state, &slots, &positions))
            .collect();
        if batched.is_ok() {
            return batched;
        }
        let mut keys = vec![Vec::with_capacity(state.len); items.len()];
        let mut rows = Vec::new();
        for p in positions {
            state.rows_at(p, &mut rows);
            let frame = self.frame.extended(&state.quants, &rows);
            let mut null = false;
            for (item, key) in items.iter().zip(&mut keys) {
                let v = if null {
                    Value::Null
                } else {
                    self.exec.eval_expr(&item.expr, &frame)?
                };
                null |= v.is_null();
                key.push(v);
            }
        }
        Ok(keys
            .into_iter()
            .map(|k| Vector::Col(Column::Mixed(k)))
            .collect())
    }

    /// The positions of `state` that pass every predicate in `preds`,
    /// and the values of `columns` at those: predicate by predicate over
    /// a shrinking selection, then column by column. On an error, the
    /// definition's order: position by position, the predicates up to
    /// the first that fails, then the columns.
    fn filter_step(
        &mut self,
        preds: &[Item],
        columns: &[(&Item, bool)],
        state: &State,
    ) -> Result<(Vec<u32>, Vec<Option<Column>>)> {
        if let Ok(done) = self.filter_items(preds, columns, state) {
            return Ok(done);
        }
        let (mut keep, mut rows) = (Vec::new(), Vec::new());
        let mut values = vec![Vec::new(); columns.len()];
        'position: for p in state.positions() {
            state.rows_at(p, &mut rows);
            let frame = self.frame.extended(&state.quants, &rows);
            for item in preds {
                if !truth_of(&self.exec.eval_expr(&item.expr, &frame)?).passes() {
                    continue 'position;
                }
            }
            for (&(item, _), column) in columns.iter().zip(&mut values) {
                column.push(self.exec.eval_expr(&item.expr, &frame)?);
            }
            keep.push(p);
        }
        let values = values
            .into_iter()
            .zip(columns)
            .map(|(v, &(_, live))| live.then_some(Column::Mixed(v)))
            .collect();
        Ok((keep, values))
    }

    /// [`Cx::filter_step`] item by item.
    fn filter_items(
        &mut self,
        preds: &[Item],
        columns: &[(&Item, bool)],
        state: &State,
    ) -> Result<(Vec<u32>, Vec<Option<Column>>)> {
        let slots = state.views();
        let mut keep = state.positions();
        for item in preds {
            if keep.is_empty() {
                break;
            }
            let truth = self.item(item, state, &slots, &keep)?;
            keep = keep
                .iter()
                .enumerate()
                .filter(|&(k, _)| truth.passes_at(k))
                .map(|(_, &p)| p)
                .collect();
        }
        // A dead column that is a bare reference or a constant cannot
        // fail and is skipped; any other dead one is still evaluated,
        // for its errors alone.
        let mut values = Vec::with_capacity(columns.len());
        for &(item, live) in columns {
            if !live && item.kernel(self.env.outer).is_some_and(VExpr::is_leaf) {
                values.push(None);
                continue;
            }
            let column = self.item(item, state, &slots, &keep)?.into_column();
            values.push(live.then_some(column));
        }
        Ok((keep, values))
    }

    /// The residual predicates, then the columns some consumer reads
    /// (a DISTINCT box's are all of them: width is semantics), gathered
    /// only for the surviving combinations.
    fn project(&mut self, b: BoxId, select: &SelectPlan, state: &State) -> Result<Batch> {
        let live = self.exec.live_columns(b);
        self.exec.note_stage(state.len);
        let columns: Vec<(&Item, bool)> = (select.columns.iter().enumerate())
            .map(|(c, item)| (item, live.map_or(true, |live| live[c])))
            .collect();
        let live_count = columns.iter().filter(|(_, live)| *live).count();
        let (keep, columns) = self.filter_step(&select.residual, &columns, state)?;
        self.exec.batch_gather.add((keep.len() * live_count) as u64);
        self.exec.profile.entry(b).rows_produced += keep.len() as u64;
        let batch = Batch::from_columns(columns, keep.len());
        Ok(if self.exec.qgm.boxed(b).distinct.needs_dedup() {
            batch.take(&distinct_ids(&batch))
        } else {
            batch
        })
    }

    /// `item` at `positions` of `state`: its kernel when this evaluation
    /// can run it and it succeeds, else the scalar evaluator's values.
    fn item(
        &mut self,
        item: &Item,
        state: &State,
        slots: &[SlotView<'_>],
        positions: &[u32],
    ) -> Result<Vector> {
        let why = match item.kernel(self.env.outer) {
            Some(v) => match eval(v, slots, positions, self.env) {
                Ok(vector) => return Ok(vector),
                Err(_) => Fallback::KernelError,
            },
            None => item.why,
        };
        if self.path == BoxPath::Batch {
            self.path = BoxPath::Row(why);
        }
        let (mut values, mut rows) = (Vec::with_capacity(positions.len()), Vec::new());
        for &p in positions {
            state.rows_at(p, &mut rows);
            let frame = self.frame.extended(&state.quants, &rows);
            values.push(self.exec.eval_expr(&item.expr, &frame)?);
        }
        Ok(Vector::Col(Column::Mixed(values)))
    }
}
