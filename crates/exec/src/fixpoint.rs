//! Fixpoint evaluation of recursive components.
//!
//! A recursive union in an eligible shape (see [`semi_naive_plan`],
//! decided once per plan) runs semi-naive: seed from the base
//! arms, then iterate the step arms over the previous round's *delta*
//! only. Everything else — hand-built cyclic graphs, nonlinear
//! recursion, cycles through subqueries — runs the naive iteration over
//! the whole accumulation.
//!
//! Both keep each accumulated result as an [`Accumulated`]: one batch
//! of append-only columns plus, under set semantics, the [`KeySet`]
//! that admits a row once. Admission hashes a round's candidates a
//! column at a time and compares a candidate with a stored row only on
//! equal hashes; a round's delta is the tail the round appended,
//! published to the step arms as a batch, and the converged result is
//! handed over as the accumulated batch itself.

use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

use starmagic_common::{Error, Result};
use starmagic_qgm::{BoxId, BoxKind, Qgm, QuantId, QuantKind, SetOpKind};

use crate::batch::{Batch, Column};
use crate::dedup::{hash_columns, same_row, KeySet};
use crate::executor::{Executor, Frame};
use crate::profile::{FixpointStats, StepBuilds};

/// One recursive box's accumulated result.
struct Accumulated {
    /// Every admitted row, in admission order. Shared with the output
    /// last published from it; grows in place once that is dropped.
    rows: Arc<Batch>,
    /// Set semantics: the keys of `rows`, position `k` being row `k`.
    /// `None` under UNION ALL, which appends every candidate.
    keys: Option<KeySet>,
}

impl Accumulated {
    fn new(arity: usize, set: bool) -> Accumulated {
        Accumulated {
            rows: Arc::new(Batch::empty(arity)),
            keys: set.then(KeySet::default),
        }
    }

    fn len(&self) -> usize {
        self.rows.len()
    }

    /// Offer `candidates`' rows in order and append those admitted —
    /// every one under bag semantics, else each whose key is new to the
    /// accumulation and to the candidates before it. Returns how many
    /// were admitted.
    fn admit(&mut self, candidates: &Batch) -> usize {
        let n = candidates.len();
        if n == 0 {
            return 0;
        }
        let ids: Vec<u32> = match &mut self.keys {
            None => (0..n as u32).collect(),
            Some(keys) => {
                let offered: Vec<&Column> = (0..candidates.arity())
                    .map(|c| candidates.column(c))
                    .collect();
                let stored: Vec<&Column> = (0..self.rows.arity())
                    .map(|c| self.rows.column(c))
                    .collect();
                let base = self.rows.len();
                let mut ids: Vec<u32> = Vec::new();
                for (i, h) in hash_columns(&offered, n).into_iter().enumerate() {
                    // Position `k` is an accumulated row, or a candidate
                    // admitted earlier in this call.
                    let same = |k: usize| match k.checked_sub(base) {
                        None => same_row(&stored, k, &offered, i),
                        Some(k) => same_row(&offered, ids[k] as usize, &offered, i),
                    };
                    if keys.insert(h, same) {
                        ids.push(i as u32);
                    }
                }
                ids
            }
        };
        if !ids.is_empty() {
            Arc::make_mut(&mut self.rows).append(candidates, &ids);
        }
        ids.len()
    }

    /// The rows admitted since the accumulation held `from`: a round's
    /// delta, as a batch of its own.
    fn since(&self, from: usize) -> Batch {
        let ids: Vec<u32> = (from as u32..self.len() as u32).collect();
        self.rows.take(&ids)
    }
}

/// A recursive box's component, classified once per plan.
#[derive(Debug)]
pub(crate) struct Fixpoint {
    /// The boxes on the box's cycles (its strongly connected component).
    members: Vec<BoxId>,
    /// Each driver's classified arms when the component runs
    /// semi-naive; `None` runs the naive iteration.
    semi_naive: Option<Vec<DriverArms>>,
}

/// Classified arms of one recursive-union driver.
#[derive(Debug)]
struct DriverArms {
    driver: BoxId,
    /// Arms referencing no SCC member: evaluated once to seed.
    base_arms: Vec<BoxId>,
    /// Arms referencing exactly one driver (linear): iterated over the
    /// delta each round.
    step_arms: Vec<BoxId>,
    /// UNION ALL — bag-append instead of set admission.
    all: bool,
}

/// Lower the recursive component of `b`: `members`, its strongly
/// connected component in ascending id order.
pub(crate) fn lower_fixpoint(qgm: &Qgm, b: BoxId, members: &[BoxId]) -> Fixpoint {
    Fixpoint {
        semi_naive: semi_naive_plan(qgm, b, members),
        members: members.to_vec(),
    }
}

/// Check the SCC for semi-naive eligibility and classify each driver's
/// arms. Returns `None` when any member falls outside the recognized
/// shape — the naive iteration remains the safety net.
fn semi_naive_plan(qgm: &Qgm, b: BoxId, members: &[BoxId]) -> Option<Vec<DriverArms>> {
    let member_set: BTreeSet<BoxId> = members.iter().copied().collect();
    let driver_set: BTreeSet<BoxId> = members
        .iter()
        .copied()
        .filter(|&m| qgm.boxed(m).is_recursive_union())
        .collect();
    if !driver_set.contains(&b) {
        return None;
    }
    // Every driver must be a UNION set operation; every other member
    // must be a select (a step arm or a box a step arm owns).
    let mut step_arm_set: BTreeSet<BoxId> = BTreeSet::new();
    let mut arms: Vec<DriverArms> = Vec::new();
    for &d in &driver_set {
        let qb = qgm.boxed(d);
        let BoxKind::SetOp(spec) = &qb.kind else {
            return None;
        };
        if spec.op != SetOpKind::Union {
            return None;
        }
        let mut base_arms = Vec::new();
        let mut step_arms = Vec::new();
        for &q in &qb.quants {
            let arm = qgm.quant(q).input;
            if driver_set.contains(&arm) {
                // A driver directly unioned into another driver has no
                // delta of its own to iterate.
                return None;
            }
            let arm_box = qgm.boxed(arm);
            let rec_refs: Vec<QuantId> = arm_box
                .quants
                .iter()
                .copied()
                .filter(|&aq| member_set.contains(&qgm.quant(aq).input))
                .collect();
            if rec_refs.is_empty() {
                base_arms.push(arm);
                continue;
            }
            // Step arm: a select referencing exactly one driver, through
            // a plain FROM-clause quantifier (linear recursion — delta
            // substitution is only sound when the step is linear in the
            // recursive relation).
            if !matches!(arm_box.kind, BoxKind::Select) || rec_refs.len() != 1 {
                return None;
            }
            let rq = qgm.quant(rec_refs[0]);
            if rq.kind != QuantKind::Foreach || !driver_set.contains(&rq.input) {
                return None;
            }
            step_arm_set.insert(arm);
            step_arms.push(arm);
        }
        if base_arms.is_empty() {
            // Nothing to seed from: the fixpoint is trivially empty, but
            // let the naive path prove that.
            return None;
        }
        arms.push(DriverArms {
            driver: d,
            base_arms,
            step_arms,
            all: spec.all,
        });
    }
    // No member may sit between a step arm and its driver: the shape
    // above must account for the whole SCC.
    members
        .iter()
        .all(|m| driver_set.contains(m) || step_arm_set.contains(m))
        .then_some(arms)
}

impl<'a> Executor<'a> {
    /// Fixpoint over the recursive component reachable from `b`.
    pub(crate) fn fixpoint(&mut self, b: BoxId, frame: &Frame<'_>) -> Result<Arc<Batch>> {
        let plan = self.plan;
        let Some(fixpoint) = &plan.get(b).fixpoint else {
            return Err(Error::internal(format!("{b} is not on a cycle")));
        };
        match &fixpoint.semi_naive {
            Some(arms) => self.semi_naive_fixpoint(arms, b, frame),
            None => self.naive_fixpoint(b, &fixpoint.members, frame),
        }
    }

    /// Semi-naive evaluation: each round publishes only the previous
    /// round's new rows (the delta) to recursive references, so step
    /// work is proportional to growth, not to the accumulated total.
    /// Mutually recursive drivers iterate jointly (Jacobi rounds: all
    /// deltas advance together). UNION admits a row once (set
    /// semantics against the accumulated total); UNION ALL appends
    /// bags and relies on [`crate::ExecOptions::max_recursion`] to stop
    /// divergent queries.
    fn semi_naive_fixpoint(
        &mut self,
        plan: &[DriverArms],
        b: BoxId,
        frame: &Frame<'_>,
    ) -> Result<Arc<Batch>> {
        // Step arms evaluate fresh on every reference while the
        // fixpoint runs.
        let fresh: Vec<BoxId> = plan
            .iter()
            .flat_map(|a| a.step_arms.iter().copied())
            .filter(|&m| !std::mem::replace(&mut self.state(m).fresh, true))
            .collect();
        let result = self.semi_naive_rounds(plan, b, frame);
        for &m in &fresh {
            self.state(m).fresh = false;
        }
        for da in plan {
            self.state(da.driver).recursive = None;
            // The builds cached for this fixpoint's step arms, and the
            // buffers their rounds handed on, end with it.
            for &arm in &da.step_arms {
                let arm = self.state(arm);
                arm.step_builds.clear();
                arm.spare.clear();
            }
        }
        result
    }

    fn semi_naive_rounds(
        &mut self,
        plan: &[DriverArms],
        b: BoxId,
        frame: &Frame<'_>,
    ) -> Result<Arc<Batch>> {
        let mut accs: Vec<Accumulated> = plan
            .iter()
            .map(|da| Accumulated::new(self.qgm.boxed(da.driver).arity(), !da.all))
            .collect();
        let mut stats = vec![FixpointStats::default(); plan.len()];
        // Seed from the base arms (no driver publishes rows yet;
        // base arms reference no SCC member by construction).
        for ((da, acc), st) in plan.iter().zip(&mut accs).zip(&mut stats) {
            self.offer(da.driver, acc, &da.base_arms, st, frame)?;
        }
        // Per driver, the accumulation's length when its last delta was
        // published: the next delta starts there.
        let mut published = vec![0; plan.len()];
        let mut iterations = 0usize;
        loop {
            iterations += 1;
            if iterations > self.max_recursion {
                return Err(Error::execution(format!(
                    "recursive query exceeded max_recursion ({}) iterations",
                    self.max_recursion
                )));
            }
            // Publish this round's deltas: recursive references inside
            // the step arms see exactly the new rows.
            for ((da, acc), from) in plan.iter().zip(&accs).zip(&mut published) {
                self.state(da.driver).recursive = Some(Arc::new(acc.since(*from)));
                *from = acc.len();
            }
            let mut grew = false;
            for ((da, acc), st) in plan.iter().zip(&mut accs).zip(&mut stats) {
                grew |= self.offer(da.driver, acc, &da.step_arms, st, frame)? > 0;
                st.iterations += 1;
            }
            if !grew {
                break;
            }
        }
        let mut result = None;
        for ((da, acc), mut st) in plan.iter().zip(accs).zip(stats) {
            st.total_rows = acc.len() as u64;
            self.record_fixpoint(da.driver, st);
            if da.driver == b {
                result = Some(acc.rows.clone());
            }
        }
        Ok(result.expect("the fixpoint's box is one of its drivers"))
    }

    /// Evaluate `arms` and offer their rows to `driver`'s accumulation,
    /// charging the driver and recording the round in `st`. Returns how
    /// many rows were admitted.
    fn offer(
        &mut self,
        driver: BoxId,
        acc: &mut Accumulated,
        arms: &[BoxId],
        st: &mut FixpointStats,
        frame: &Frame<'_>,
    ) -> Result<u64> {
        let (mut offered, mut admitted) = (0, 0);
        for &arm in arms {
            let candidates = self.eval_box(arm, frame)?;
            offered += candidates.len() as u64;
            admitted += acc.admit(&candidates) as u64;
        }
        let p = self.entry(driver);
        p.rows_in += offered;
        p.rows_produced += admitted;
        st.delta_rows.push(admitted);
        st.rejected_rows.push(offered - admitted);
        Ok(admitted)
    }

    /// Naive fixpoint over the recursive component: iterate until no
    /// member box of the cycle gains rows. Every member accumulates
    /// under set semantics — its key set persists across rounds, so a
    /// round hashes what the member derived, not what it holds — which
    /// terminates the iteration on finite domains.
    fn naive_fixpoint(
        &mut self,
        b: BoxId,
        members: &[BoxId],
        frame: &Frame<'_>,
    ) -> Result<Arc<Batch>> {
        let mut accs: HashMap<BoxId, Accumulated> = members
            .iter()
            .map(|&m| (m, Accumulated::new(self.qgm.boxed(m).arity(), true)))
            .collect();
        for &m in members {
            self.state(m).recursive = Some(accs[&m].rows.clone());
        }
        let mut st = FixpointStats::default();
        let mut rounds = 0usize;
        loop {
            rounds += 1;
            if rounds > self.max_fixpoint_rounds {
                return Err(Error::execution(
                    "recursive query exceeded fixpoint round limit",
                ));
            }
            let before = accs[&b].len();
            let mut grew = false;
            for &m in members {
                // Evaluate the member with recursive references frozen
                // at the current accumulation.
                let published = self.state(m).recursive.take();
                let derived = self.eval_inner(m, frame)?;
                // Let go of the published handle, so the accumulation
                // grows in place, then publish the grown one.
                drop(published);
                let acc = accs.get_mut(&m).expect("one accumulator per member");
                let admitted = acc.admit(&derived);
                self.state(m).recursive = Some(acc.rows.clone());
                if m == b {
                    st.rejected_rows.push((derived.len() - admitted) as u64);
                }
                grew |= admitted > 0;
            }
            st.iterations += 1;
            st.delta_rows.push((accs[&b].len() - before) as u64);
            if !grew {
                break;
            }
        }
        for &m in members {
            self.state(m).recursive = None;
        }
        let result = accs[&b].rows.clone();
        st.total_rows = result.len() as u64;
        self.record_fixpoint(b, st);
        Ok(result)
    }

    /// One fixpoint's convergence record: into the profile and, when
    /// metrics are on, the registry.
    fn record_fixpoint(&mut self, b: BoxId, st: FixpointStats) {
        if !self.fixpoint_iterations.is_noop() {
            self.fixpoint_iterations.add(st.iterations);
            self.fixpoint_delta_rows.add(st.delta_rows.iter().sum());
            self.fixpoint_total_rows.add(st.total_rows);
        }
        let e = (self.state(b).fixpoint).get_or_insert_with(FixpointStats::default);
        e.iterations += st.iterations;
        e.delta_rows.extend_from_slice(&st.delta_rows);
        e.rejected_rows.extend_from_slice(&st.rejected_rows);
        e.total_rows += st.total_rows;
    }

    /// Whether a hash join in select `b` over `child` may build once per
    /// fixpoint: `b` is a step arm of a running semi-naive fixpoint and
    /// `child` lies outside the recursion — so its output, already
    /// materialized and cached, cannot change between rounds.
    pub(crate) fn step_build_site(&mut self, b: BoxId, child: BoxId) -> bool {
        let child = self.state(child);
        let outside = !child.fresh && child.recursive.is_none();
        outside && self.state(b).fresh
    }

    /// Count one build-side use by step arm `b`.
    pub(crate) fn note_step_build(&mut self, b: BoxId, reused: bool) {
        let e = self.state(b).builds.get_or_insert_with(StepBuilds::default);
        if reused {
            e.reused += 1;
            self.fixpoint_build_reuses.inc();
        } else {
            e.built += 1;
        }
    }
}
