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
use crate::vector::{eval, Env, Sel, SlotView, VExpr, Vector};

/// The counting unit of `exec.batch.batches`: a stage over `n` rows
/// counts `ceil(n / BATCH_ROWS)` batches (at least one).
pub(crate) const BATCH_ROWS: usize = 256;

/// A hash join's build side: the child's batch and the row-id table
/// over its key columns. A step arm's build outlives one evaluation
/// (`BoxState::step_builds`); a later round's delta may probe it with
/// keys of another type, which the table answers as well.
pub(crate) struct JoinBuild {
    batch: Arc<Batch>,
    ids: RowIds,
}

/// Join state: per bound quantifier, one shared batch and its ids. All
/// id vectors have length `len` — position `k` across them is one join
/// combination, never materialized as a row until a frame needs it.
#[derive(Default)]
struct State {
    quants: Vec<QuantId>,
    batches: Vec<Arc<Batch>>,
    ids: Vec<Ids>,
    len: usize,
}

/// One slot's ids into its batch.
enum Ids {
    /// Every row of the batch, in order (`len` is the batch's length).
    All,
    Of(Vec<u32>),
}

impl State {
    /// One quantifier bound to every row of `batch`, in order.
    fn over(quant: QuantId, batch: Arc<Batch>) -> State {
        State {
            quants: vec![quant],
            len: batch.len(),
            batches: vec![batch],
            ids: vec![Ids::All],
        }
    }

    fn views(&self) -> Vec<SlotView<'_>> {
        self.batches
            .iter()
            .zip(&self.ids)
            .map(|(batch, ids)| SlotView {
                batch: batch.as_ref(),
                ids: match ids {
                    Ids::All => self.all(),
                    Ids::Of(ids) => Sel::Ids(ids),
                },
            })
            .collect()
    }

    /// Every position.
    fn all(&self) -> Sel<'static> {
        Sel::All(self.len)
    }

    /// Gather every id vector through `parent` positions, then bind
    /// `quant`. One join stage's late materialization: only id vectors
    /// move, never values.
    fn advance(
        &mut self,
        quant: QuantId,
        parent: Vec<u32>,
        batch: Arc<Batch>,
        new_ids: Vec<u32>,
        spare: &mut Spare,
    ) {
        self.gather(&parent, spare);
        spare.give(parent);
        self.len = new_ids.len();
        self.quants.push(quant);
        self.batches.push(batch);
        self.ids.push(Ids::Of(new_ids));
    }

    /// Keep only `keep` positions (a filter stage).
    fn retain(&mut self, keep: Vec<u32>, spare: &mut Spare) {
        self.gather(&keep, spare);
        self.len = keep.len();
        spare.give(keep);
    }

    /// Replace every id vector by its values at `positions`.
    fn gather(&mut self, positions: &[u32], spare: &mut Spare) {
        for ids in &mut self.ids {
            let mut out = spare.take();
            match ids {
                Ids::All => out.extend_from_slice(positions),
                Ids::Of(ids) => out.extend(positions.iter().map(|&p| ids[p as usize])),
            }
            if let Ids::Of(old) = std::mem::replace(ids, Ids::Of(out)) {
                spare.give(old);
            }
        }
    }

    /// Fill `rows` with the rows position `p` binds, one per
    /// quantifier, each read in place.
    fn rows_at<'s>(&'s self, p: u32, rows: &mut Vec<RowAt<'s>>) {
        rows.clear();
        let bound = self.batches.iter().zip(&self.ids);
        rows.extend(bound.map(|(batch, ids)| {
            let id = match ids {
                Ids::All => p,
                Ids::Of(ids) => ids[p as usize],
            };
            RowAt(batch, id as usize)
        }));
    }

    /// Hand every id vector to `spare`.
    fn release(self, spare: &mut Spare) {
        for ids in self.ids {
            if let Ids::Of(ids) = ids {
                spare.give(ids);
            }
        }
    }
}

/// The id buffers of one evaluation of a select. A re-evaluated box — a
/// correlated one, or a step arm of a running fixpoint — keeps its own
/// across evaluations: each buffer an evaluation is done with goes back,
/// cleared with its capacity kept, and a later take reuses it, so a
/// buffer grows to the sizes the box needs once, not once per
/// evaluation. The buffers are the box's alone, so they hold at most one
/// evaluation's worth. A box evaluated once allocates every buffer
/// afresh and drops it when done.
struct Spare {
    recycle: bool,
    bufs: Vec<Vec<u32>>,
}

impl Spare {
    /// An empty buffer, with the capacity of one given back before.
    fn take(&mut self) -> Vec<u32> {
        self.bufs.pop().unwrap_or_default()
    }

    fn give(&mut self, mut buf: Vec<u32>) {
        if self.recycle {
            buf.clear();
            self.bufs.push(buf);
        }
    }
}

/// What a filter step kept — its surviving positions, `None` when that
/// is all of them — and the columns it evaluated at those.
type Filtered = (Option<Vec<u32>>, Vec<Option<Column>>);

/// One evaluation of one select box.
struct Cx<'c, 'a> {
    exec: &'c mut Executor<'a>,
    frame: &'c Frame<'c>,
    env: Env<'c>,
    /// `row(<reason>)` once some item ran on the scalar evaluator.
    path: BoxPath,
    spare: Spare,
}

/// Evaluate select `b` under `frame`; also says which path it took.
pub(crate) fn run(
    exec: &mut Executor<'_>,
    b: BoxId,
    select: &SelectPlan,
    frame: &Frame<'_>,
) -> Result<(Batch, BoxPath)> {
    let outer = select.outer.resolve(frame);
    let recycle = exec.plan.get(b).correlated || exec.state(b).fresh;
    let spare = Spare {
        recycle,
        bufs: std::mem::take(&mut exec.state(b).spare),
    };
    let mut cx = Cx {
        exec,
        frame,
        env: Env {
            params: frame.params(),
            outer: &outer,
        },
        path: BoxPath::Batch,
        spare,
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
        state.advance(stage.quant, parent, batch, new_ids, &mut cx.spare);

        // Apply every predicate that just became available.
        if !stage.ready.is_empty() {
            let n = state.len;
            cx.exec.note_stage(n);
            // Every position kept is no position at all: `n` is zero.
            if let Some(keep) = cx.filter_step(&stage.ready, &[], &state)?.0 {
                if let Some(pct) = (keep.len() * 100).checked_div(n) {
                    cx.exec.batch_selectivity.record(pct as u64);
                }
                cx.exec
                    .batch_gather
                    .add((keep.len() * state.ids.len()) as u64);
                state.retain(keep, &mut cx.spare);
            }
        }
        cx.exec.entry(b).rows_produced += state.len as u64;
    }
    let out = cx.project(b, select, &state)?;
    state.release(&mut cx.spare);
    if recycle {
        cx.exec.state(b).spare = cx.spare.bufs;
    }
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
        let target = (stage.index.as_ref())
            .and_then(|probe| Some((probe, self.exec.probe_target(probe, state.len)?)));
        if let Some((probe, (index, table))) = target {
            // Probed rows are charged to the base table being probed,
            // not the probing select box.
            let (matched, parent, ids) = match self.index_probe(stage, probe, &index, &table, state)
            {
                Ok(found) => found,
                Err(_) => self.index_probe_rowwise(stage, probe, &index, &table, state)?,
            };
            if matched > 0 {
                self.exec.entry(child).rows_scanned += matched;
                self.exec.entry(b).rows_in += matched;
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
            self.exec.entry(b).rows_in += batch.len() as u64;
            let reusable = self.exec.step_build_site(b, child);
            let cached = reusable
                .then(|| {
                    let builds = &self.exec.state(b).step_builds;
                    let found = builds.iter().find(|(q, _)| *q == stage.quant);
                    found.map(|(_, build)| build.clone())
                })
                .flatten();
            let build = if let Some(build) = cached {
                self.exec.note_step_build(b, true);
                build
            } else {
                let rows = State::over(stage.quant, batch.clone());
                let keys = self.keys(&stage.build, &rows)?;
                let build = Arc::new(JoinBuild {
                    batch,
                    ids: RowIds::build(&keys),
                });
                if reusable {
                    let builds = &mut self.exec.state(b).step_builds;
                    builds.push((stage.quant, build.clone()));
                    self.exec.note_step_build(b, false);
                }
                build
            };
            let keys = self.keys(&stage.probe, state)?;
            let (mut parent, mut ids) = (self.spare.take(), self.spare.take());
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
            self.exec.entry(b).rows_in += out.len() as u64;
        }
        let (mut parent, mut ids) = (self.spare.take(), self.spare.take());
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
        let key = self.item(&stage.probe[probe.pred], state, &slots, state.all())?;
        let (mut parent, mut ids) = (self.spare.take(), self.spare.take());
        index.probe(&[key], &mut parent, &mut ids);
        let matched = ids.len() as u64;
        for (i, (pv, bv)) in stage.probe.iter().zip(&stage.build).enumerate() {
            if i == probe.pred || parent.is_empty() {
                continue;
            }
            let probed = self.item(pv, state, &slots, Sel::Ids(&parent))?;
            let candidates = State {
                quants: vec![stage.quant],
                batches: vec![table.clone()],
                ids: vec![Ids::Of(ids)],
                len: parent.len(),
            };
            let built = self.item(bv, &candidates, &candidates.views(), candidates.all())?;
            let Some(Ids::Of(candidates)) = candidates.ids.into_iter().next() else {
                unreachable!("the candidates are listed")
            };
            let keep: Vec<usize> = (0..parent.len())
                .filter(|&k| probed.value_at(k).sql_eq(&built.value_at(k)).passes())
                .collect();
            let mut kept = self.spare.take();
            kept.extend(keep.iter().map(|&k| parent[k]));
            self.spare.give(std::mem::replace(&mut parent, kept));
            ids = self.spare.take();
            ids.extend(keep.iter().map(|&k| candidates[k]));
            self.spare.give(candidates);
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
        let (mut matched, mut parent, mut ids) = (0, self.spare.take(), self.spare.take());
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
        let batched: Result<Vec<Vector>> = items
            .iter()
            .map(|item| self.item(item, state, &slots, state.all()))
            .collect();
        if batched.is_ok() {
            return batched;
        }
        let mut keys = vec![Vec::with_capacity(state.len); items.len()];
        let mut rows = Vec::new();
        for p in 0..state.len as u32 {
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

    /// The positions of `state` that pass every predicate in `preds` —
    /// `None` when that is all of them, as with no predicate — and the
    /// values of `columns` at those: predicate by predicate over a
    /// shrinking selection, then column by column. On an error, the
    /// definition's order: position by position, the predicates up to
    /// the first that fails, then the columns.
    fn filter_step(
        &mut self,
        preds: &[Item],
        columns: &[(&Item, bool)],
        state: &State,
    ) -> Result<Filtered> {
        if let Ok(done) = self.filter_items(preds, columns, state) {
            return Ok(done);
        }
        let (mut keep, mut rows) = (self.spare.take(), Vec::new());
        let mut values = vec![Vec::new(); columns.len()];
        'position: for p in 0..state.len as u32 {
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
        Ok((Some(keep), values))
    }

    /// [`Cx::filter_step`] item by item.
    fn filter_items(
        &mut self,
        preds: &[Item],
        columns: &[(&Item, bool)],
        state: &State,
    ) -> Result<Filtered> {
        let slots = state.views();
        let mut keep: Option<Vec<u32>> = None;
        for item in preds {
            let positions = keep.as_deref().map_or(state.all(), Sel::Ids);
            if positions.is_empty() {
                break;
            }
            let truth = self.item(item, state, &slots, positions)?;
            let mut kept = self.spare.take();
            kept.extend(
                (positions.iter().enumerate()).filter_map(|(k, p)| truth.passes_at(k).then_some(p)),
            );
            if let Some(old) = keep.replace(kept) {
                self.spare.give(old);
            }
        }
        // A dead column that is a bare reference or a constant cannot
        // fail and is skipped; any other dead one is still evaluated,
        // for its errors alone.
        let positions = keep.as_deref().map_or(state.all(), Sel::Ids);
        let mut values = Vec::with_capacity(columns.len());
        for &(item, live) in columns {
            if !live && item.kernel(self.env.outer).is_some_and(VExpr::is_leaf) {
                values.push(None);
                continue;
            }
            let column = self.item(item, state, &slots, positions)?.into_column();
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
        let kept = keep.as_ref().map_or(state.len, Vec::len);
        if let Some(keep) = keep {
            self.spare.give(keep);
        }
        self.exec.batch_gather.add((kept * live_count) as u64);
        self.exec.entry(b).rows_produced += kept as u64;
        let batch = Batch::from_columns(columns, kept);
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
        positions: Sel<'_>,
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
        for p in positions.iter() {
            state.rows_at(p, &mut rows);
            let frame = self.frame.extended(&state.quants, &rows);
            values.push(self.exec.eval_expr(&item.expr, &frame)?);
        }
        Ok(Vector::Col(Column::Mixed(values)))
    }
}

/// A re-evaluated box hands its id buffers from one evaluation to the
/// next; these check that nothing else goes with them.
#[cfg(test)]
mod recycle_tests {
    use std::collections::BTreeMap;

    use starmagic_catalog::{Catalog, ColumnDef, Table, TableSchema, ViewDef};
    use starmagic_common::{DataType, Row, Value};
    use starmagic_qgm::{build_qgm, QuantKind};

    use super::*;
    use crate::executor::{execute_plan, ExecOptions, IndexCache};
    use crate::plan::Plan;
    use crate::profile::{BoxProfile, ExecProfile};

    /// Departments 1..=5 hold 5, 0, 3, 1 and 7 employees: a probe
    /// output that grows, drops to zero, shrinks and grows again.
    const SIZES: [usize; 5] = [5, 0, 3, 1, 7];

    fn table(c: &mut Catalog, name: &str, cols: &[&str], key: &[&str], rows: Vec<Vec<i64>>) {
        let schema = TableSchema::new(
            name,
            cols.iter()
                .map(|c| ColumnDef::new(c, DataType::Int))
                .collect(),
        )
        .with_key(key)
        .unwrap();
        let rows = rows
            .into_iter()
            .map(|r| Row::new(r.into_iter().map(Value::Int).collect()))
            .collect();
        c.add_table(Table::with_rows(schema, rows).unwrap())
            .unwrap();
    }

    /// `dept`, `emp` (`SIZES` per department, salary `100 + 7·empno mod
    /// 50`) and `pay`, a bonus for every employee but each fourth, plus
    /// enough rows for nobody that every join in the tests below probes
    /// an index.
    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        table(
            &mut c,
            "dept",
            &["deptno"],
            &["deptno"],
            (1..=5).map(|d| vec![d]).collect(),
        );
        let mut emps = Vec::new();
        for (d, &size) in SIZES.iter().enumerate() {
            for _ in 0..size {
                let empno = emps.len() as i64;
                emps.push(vec![empno, d as i64 + 1, 100 + (7 * empno) % 50]);
            }
        }
        let pay = (0..40)
            .filter(|e| e % 4 != 3)
            .map(|e| vec![e, e % 5])
            .collect();
        table(
            &mut c,
            "emp",
            &["empno", "deptno", "salary"],
            &["empno"],
            emps,
        );
        table(&mut c, "pay", &["empno", "bonus"], &["empno"], pay);
        c
    }

    fn add(into: &mut BoxProfile, p: &BoxProfile) {
        into.rows_scanned += p.rows_scanned;
        into.rows_in += p.rows_in;
        into.rows_produced += p.rows_produced;
        into.rows_out += p.rows_out;
        into.evals += p.evals;
    }

    /// Run `SELECT d.deptno, (<subquery over d>) FROM dept d` once, then
    /// evaluate the subquery once per department on a fresh executor:
    /// the same values, row for row, and the same counters for every
    /// box below the top, summed over the fresh executors. Returns the
    /// rows.
    fn against_fresh_executors(cat: &Catalog, sql: &str) -> Vec<Row> {
        let g = build_qgm(cat, &starmagic_sql::parse_query(sql).unwrap()).unwrap();
        let plan = Plan::lower(&g);
        let indexes = IndexCache::default();
        let (rows, profile) =
            execute_plan(&g, &plan, &[], cat, &indexes, ExecOptions::default()).unwrap();
        let top = g.top();
        let quant = |kind: QuantKind| {
            let quants = g.boxed(top).quants.iter().copied();
            quants
                .filter(|&q| g.quant(q).kind == kind)
                .collect::<Vec<_>>()
        };
        let ([outer], [sub]) = (
            &quant(QuantKind::Foreach)[..],
            &quant(QuantKind::Scalar)[..],
        ) else {
            panic!("one department and one subquery")
        };
        let depts = g.quant(*outer).input;
        let outer_rows = Executor::new(&g, &plan, cat)
            .eval_box(depts, &Frame::root())
            .unwrap();
        assert_eq!(rows.len(), outer_rows.len());
        let mut fresh: BTreeMap<BoxId, BoxProfile> = BTreeMap::new();
        for (i, row) in rows.iter().enumerate() {
            let mut exec = Executor::new(&g, &plan, cat);
            let bound = [RowAt(&outer_rows, i)];
            let frame = Frame::root();
            let out =
                (exec.eval_box(g.quant(*sub).input, &frame.extended(&[*outer], &bound))).unwrap();
            let value = if out.is_empty() {
                Value::Null
            } else {
                out.value(0, 0)
            };
            assert_eq!(row.get(1), &value, "department {i}");
            for (b, p) in exec.into_profile().boxes {
                add(fresh.entry(b).or_default(), &p);
            }
        }
        let mut once: ExecProfile = profile;
        once.boxes.remove(&top);
        once.boxes.remove(&depts);
        assert_eq!(once.boxes, fresh, "per-box counters");
        rows
    }

    fn second(rows: &[Row]) -> Vec<Value> {
        rows.iter().map(|r| r.get(1).clone()).collect()
    }

    #[test]
    fn a_probe_output_that_grows_empties_and_shrinks_carries_nothing_over() {
        let cat = catalog();
        // Two index probes, a filter stage and a projection per
        // department; the departments' sizes move both ways.
        let rows = against_fresh_executors(
            &cat,
            "SELECT d.deptno, (SELECT SUM(e.salary + p.bonus) FROM emp e, pay p \
             WHERE e.deptno = d.deptno AND p.empno = e.empno AND e.salary > 105) \
             FROM dept d",
        );
        // The same sums, computed here.
        let emps: Vec<(i64, i64, i64)> = (SIZES.iter().enumerate())
            .flat_map(|(d, &n)| std::iter::repeat(d as i64 + 1).take(n))
            .enumerate()
            .map(|(e, d)| (e as i64, d, 100 + (7 * e as i64) % 50))
            .collect();
        let want: Vec<Value> = (1..=5)
            .map(|d| {
                let terms: Vec<i64> = (emps.iter())
                    .filter(|&&(e, dept, salary)| dept == d && salary > 105 && e % 4 != 3)
                    .map(|&(e, _, salary)| salary + e % 5)
                    .collect();
                if terms.is_empty() {
                    Value::Null
                } else {
                    Value::Int(terms.iter().sum())
                }
            })
            .collect();
        assert_eq!(second(&rows), want);
        assert!(want[1].is_null(), "the empty department");
    }

    #[test]
    fn a_correlated_block_inside_a_correlated_block_carries_nothing_over() {
        let cat = catalog();
        // Per department, the employees earning more than the average
        // of their department's others: the inner block re-evaluates
        // per (department, employee), over 4, 0, 2, 0 and 6 colleagues.
        let rows = against_fresh_executors(
            &cat,
            "SELECT d.deptno, (SELECT COUNT(*) FROM emp e WHERE e.deptno = d.deptno \
             AND e.salary > (SELECT AVG(f.salary) FROM emp f \
                             WHERE f.deptno = e.deptno AND f.empno <> e.empno)) \
             FROM dept d",
        );
        let mut start = 0;
        let want: Vec<Value> = SIZES
            .iter()
            .map(|&n| {
                let salaries: Vec<i64> = (start..start + n as i64)
                    .map(|e| 100 + (7 * e) % 50)
                    .collect();
                start += n as i64;
                let above = (0..n).filter(|&i| {
                    let others: Vec<i64> =
                        (0..n).filter(|&j| j != i).map(|j| salaries[j]).collect();
                    !others.is_empty()
                        && salaries[i] as f64
                            > others.iter().sum::<i64>() as f64 / others.len() as f64
                });
                Value::Int(above.count() as i64)
            })
            .collect();
        assert_eq!(second(&rows), want);
    }

    /// The nodes `edges` reach from node 1, in the order semi-naive
    /// evaluation admits them — node 1's successors, then per round the
    /// new nodes each delta row reaches, in edge order — and each
    /// round's admitted and rejected counts (round 0 is the seed).
    fn reach_from_one(edges: &[(i64, i64)]) -> (Vec<i64>, Vec<u64>, Vec<u64>) {
        let successors = |n: i64| edges.iter().filter(move |e| e.0 == n).map(|e| e.1);
        let (mut all, mut admitted, mut rejected) = (Vec::new(), Vec::new(), Vec::new());
        let mut candidates: Vec<i64> = successors(1).collect();
        loop {
            let before = all.len();
            for &c in &candidates {
                if !all.contains(&c) {
                    all.push(c);
                }
            }
            let new = all.len() - before;
            admitted.push(new as u64);
            rejected.push((candidates.len() - new) as u64);
            if new == 0 && before > 0 {
                break;
            }
            candidates = all[before..].iter().flat_map(|&n| successors(n)).collect();
        }
        (all, admitted, rejected)
    }

    #[test]
    fn a_fixpoint_whose_delta_grows_then_shrinks_carries_nothing_over() {
        // From node 1: a fan-out of 2, then 4, then a funnel into 8 and
        // a tail. The deltas grow and then shrink, round after round.
        let edges = [
            (1, 2),
            (1, 3),
            (2, 4),
            (2, 5),
            (3, 6),
            (3, 7),
            (4, 8),
            (5, 8),
            (6, 8),
            (7, 8),
            (8, 9),
            (9, 10),
        ];
        let mut cat = Catalog::new();
        let rows = edges.iter().map(|&(s, d)| vec![s, d]).collect();
        table(&mut cat, "edge", &["src", "dst"], &["src", "dst"], rows);
        cat.add_view(
            ViewDef::new(
                "reach",
                vec!["node".into()],
                "SELECT dst FROM edge WHERE src = 1 \
                 UNION SELECT e.dst FROM reach r, edge e WHERE r.node = e.src",
                true,
            )
            .unwrap(),
        )
        .unwrap();
        let sql = "SELECT node FROM reach";
        let g = build_qgm(&cat, &starmagic_sql::parse_query(sql).unwrap()).unwrap();
        let (rows, profile) =
            crate::execute_profiled(&g, &cat, &IndexCache::default(), false).unwrap();
        let (want, admitted, rejected) = reach_from_one(&edges);
        let got: Vec<Value> = rows.iter().map(|r| r.get(0).clone()).collect();
        let want_values: Vec<Value> = want.iter().map(|&n| Value::Int(n)).collect();
        assert_eq!(got, want_values, "the rows, in admission order");
        assert_eq!(admitted, [2, 4, 1, 1, 1, 0], "the deltas grow, then shrink");
        let [(driver, stats)] = profile.fixpoint.iter().collect::<Vec<_>>()[..] else {
            panic!("one fixpoint")
        };
        assert_eq!(stats.delta_rows, admitted);
        assert_eq!(stats.rejected_rows, rejected);
        let driver = profile.get(*driver);
        let offered = admitted.iter().sum::<u64>() + rejected.iter().sum::<u64>();
        assert_eq!(driver.rows_in, offered);
        assert_eq!(driver.rows_produced, want.len() as u64);
    }
}
