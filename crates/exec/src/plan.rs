//! Lowering: everything execution needs to know about a query graph
//! that does not depend on the data, derived once per plan.
//!
//! [`Plan::lower`] walks a chosen graph once and records, per box:
//!
//! * whether its subtree is correlated (evaluated per outer binding and
//!   never cached), and — for a box on a cycle — its recursive
//!   component with the semi-naive classification of its arms;
//! * the output columns some consumer reads ([`live_columns`]);
//! * for a select, its join stages — the hash-equality classification,
//!   the index-nested-loop candidate, the predicates each stage makes
//!   ready, the residue — shared by the batch and the row path, and the
//!   batch [`Program`]: the eligibility verdict (or the reason the box
//!   runs row by row) and every kernel, compiled;
//! * for a group-by, its keys and aggregate arguments, compiled.
//!
//! Kernels read literals inline, parameters from the bound values and
//! outer references from the frame ([`crate::vector::OuterRefs`]), so
//! one program serves every binding: every execution of a cached plan,
//! every round of a fixpoint's step arm, every outer row of a
//! correlated block. What depends on the data stays a run-time decision
//! of the executor: index-nested-loop vs hash join (combinations
//! against the table's row count), the build table's shape, a kernel
//! error's fallback, the morsel split, and the `columnar` option.

use std::collections::{BTreeSet, HashMap};

use starmagic_common::{Error, Result, Value};
use starmagic_planner::cost::is_correlated_subtree;
use starmagic_qgm::{BoxId, BoxKind, Qgm, QuantId, ScalarExpr};

use crate::boundary::{live_columns, BoxPath, Fallback};
use crate::fixpoint::{find_recursive_boxes, lower_fixpoint, Fixpoint};
use crate::vector::{compile, OuterRefs, VExpr};

/// A query graph lowered for execution. Immutable: one plan serves any
/// number of executions, concurrently, each with its own parameters.
/// It describes the graph it was lowered from and no other.
#[derive(Debug)]
pub struct Plan {
    boxes: Vec<Option<BoxPlan>>,
    /// Parameter markers in graph order (box by box: predicates,
    /// columns, keys, arguments, ON conditions), first occurrences.
    params: Vec<usize>,
}

/// One box's facts.
#[derive(Debug)]
pub(crate) struct BoxPlan {
    /// The subtree references a quantifier bound outside it.
    pub(crate) correlated: bool,
    /// The box's recursive component, when it lies on a cycle.
    pub(crate) fixpoint: Option<Fixpoint>,
    /// Output columns some consumer reads; `None` for the top box,
    /// whose every column is the answer.
    pub(crate) live: Option<Vec<bool>>,
    pub(crate) op: Op,
}

/// How a box evaluates.
#[derive(Debug)]
pub(crate) enum Op {
    Scan,
    Select(SelectPlan),
    GroupBy(GroupByPlan),
    /// A set operation or an outer join: row-at-a-time.
    Rows,
}

/// A select box: its join stages and its batch program.
#[derive(Debug)]
pub(crate) struct SelectPlan {
    pub(crate) stages: Vec<Stage>,
    /// Predicates no stage applies (subquery tests, references to a
    /// correlated child), checked per combination before projection.
    pub(crate) residual: Vec<usize>,
    /// Residual predicates and output columns may run in a parallel
    /// region ([`parallel_safe`]).
    pub(crate) residual_pure: bool,
    pub(crate) program: Program,
}

/// One join stage: bind `quant`, then filter.
#[derive(Debug)]
pub(crate) struct Stage {
    pub(crate) quant: QuantId,
    pub(crate) child: BoxId,
    /// The child is re-evaluated per combination (row path only: a
    /// select with one is not batch-eligible).
    pub(crate) child_correlated: bool,
    /// Equalities joining `quant` to the quantifiers bound before it,
    /// as (probe side, build side), in declaration order.
    pub(crate) hash: Vec<(ScalarExpr, ScalarExpr)>,
    /// The index-nested-loop candidate, taken when the combinations
    /// are few against the table.
    pub(crate) index: Option<IndexProbe>,
    /// Predicates every combination must pass once `quant` is bound,
    /// in declaration order.
    pub(crate) ready: Vec<usize>,
    /// Whether the probe sides, the build sides and the ready
    /// predicates may run in a parallel region.
    pub(crate) probe_pure: bool,
    pub(crate) build_pure: bool,
    pub(crate) ready_pure: bool,
}

/// Probe `table`'s index on `col` with hash equality `pred`'s probe
/// side (its build side is that bare column).
#[derive(Debug)]
pub(crate) struct IndexProbe {
    pub(crate) table: String,
    pub(crate) col: usize,
    pub(crate) pred: usize,
}

/// A select's batch program.
#[derive(Debug)]
pub(crate) struct Program {
    pub(crate) outer: OuterRefs,
    /// Eligibility items whose kernels read outer references, with the
    /// reason the box falls back when one is unbound — in the order
    /// eligibility examines them, up to the static verdict.
    checks: Vec<(Vec<usize>, Fallback)>,
    kernels: std::result::Result<Kernels, Fallback>,
}

/// The compiled kernels of a batch-eligible select, stage for stage.
#[derive(Debug)]
pub(crate) struct Kernels {
    pub(crate) stages: Vec<StageKernels>,
    pub(crate) columns: Vec<VExpr>,
}

#[derive(Debug)]
pub(crate) struct StageKernels {
    /// Per hash equality: the probe side over the bound slots and the
    /// build side over the child's batch (slot 0).
    pub(crate) probe: Vec<VExpr>,
    pub(crate) build: Vec<VExpr>,
    pub(crate) ready: Vec<VExpr>,
}

/// A group-by's compiled keys, then arguments.
#[derive(Debug)]
pub(crate) struct GroupByPlan {
    pub(crate) outer: OuterRefs,
    pub(crate) exprs: Vec<GroupExpr>,
}

/// One group key or aggregate argument.
#[derive(Debug)]
pub(crate) struct GroupExpr {
    /// The kernel and the outer references it reads; `None` when the
    /// expression does not compile.
    pub(crate) kernel: Option<(VExpr, Vec<usize>)>,
    /// Why the box leaves the batch path when the kernel cannot run.
    pub(crate) fallback: Fallback,
}

impl Program {
    /// The kernels, if one evaluation whose outer references resolved
    /// to `outer` can run them, else why not.
    pub(crate) fn kernels(
        &self,
        outer: &[Option<Value>],
    ) -> std::result::Result<&Kernels, Fallback> {
        for (needs, why) in &self.checks {
            if needs.iter().any(|&k| outer[k].is_none()) {
                return Err(*why);
            }
        }
        self.kernels.as_ref().map_err(|&why| why)
    }
}

impl Plan {
    /// Lower `qgm`. Costs a few walks of the graph; done once per plan.
    pub fn lower(qgm: &Qgm) -> Plan {
        let ids = qgm.box_ids();
        let top = qgm.top();
        let recursive = find_recursive_boxes(qgm);
        let correlated: HashMap<BoxId, bool> = ids
            .iter()
            .map(|&b| (b, is_correlated_subtree(qgm, top, b)))
            .collect();
        let mut live = live_columns(qgm, |b| recursive.contains(&b));
        let mut boxes: Vec<Option<BoxPlan>> = Vec::new();
        boxes.resize_with(ids.last().map_or(0, |b| b.index() + 1), || None);
        for &b in &ids {
            let op = match &qgm.boxed(b).kind {
                BoxKind::BaseTable { .. } => Op::Scan,
                BoxKind::Select => Op::Select(lower_select(qgm, b, &correlated)),
                BoxKind::GroupBy(_) => Op::GroupBy(lower_groupby(qgm, b)),
                BoxKind::SetOp(_) | BoxKind::OuterJoin(_) => Op::Rows,
            };
            boxes[b.index()] = Some(BoxPlan {
                correlated: correlated[&b],
                fixpoint: recursive
                    .contains(&b)
                    .then(|| lower_fixpoint(qgm, b, &recursive)),
                live: live.remove(&b).filter(|_| b != top),
                op,
            });
        }
        Plan {
            boxes,
            params: param_order(qgm),
        }
    }

    pub(crate) fn get(&self, b: BoxId) -> &BoxPlan {
        self.boxes
            .get(b.index())
            .and_then(Option::as_ref)
            .unwrap_or_else(|| panic!("box {b} is not in the lowered plan"))
    }

    /// The path box `b` takes, as decided at lowering: `batch`, or
    /// `row(<reason>)`. A select whose kernels read an outer reference
    /// the frame turns out not to bind still leaves the batch path at
    /// run time; `None` for a box not in the plan.
    pub fn path(&self, b: BoxId) -> Option<BoxPath> {
        let bp = self.boxes.get(b.index())?.as_ref()?;
        Some(match &bp.op {
            Op::Scan => BoxPath::Batch,
            Op::Select(sp) => match &sp.program.kernels {
                Ok(_) => BoxPath::Batch,
                Err(why) => BoxPath::Row(*why),
            },
            Op::GroupBy(gp) => gp
                .exprs
                .iter()
                .find(|e| e.kernel.is_none())
                .map_or(BoxPath::Batch, |e| BoxPath::Row(e.fallback)),
            Op::Rows => BoxPath::Row(Fallback::RowOperator),
        })
    }

    /// Check that `args` binds every parameter marker of the graph; the
    /// error names the first marker (in graph order) left unbound.
    pub fn check_params(&self, args: &[Value]) -> Result<()> {
        match self.params.iter().find(|&&i| i >= args.len()) {
            Some(i) => Err(Error::execution(format!(
                "parameter ?{} is not bound ({} given)",
                i + 1,
                args.len()
            ))),
            None => Ok(()),
        }
    }
}

fn lower_select(qgm: &Qgm, b: BoxId, correlated: &HashMap<BoxId, bool>) -> SelectPlan {
    let qb = qgm.boxed(b);
    let order = qgm.join_order(b);
    let local_f: BTreeSet<QuantId> = order.iter().copied().collect();
    let local_sub: BTreeSet<QuantId> = qb
        .quants
        .iter()
        .copied()
        .filter(|&q| !qgm.quant(q).kind.is_foreach())
        .collect();
    let preds = &qb.predicates;
    // Join-time predicates reference no subquery quantifier; the rest
    // are residual.
    let joinable: Vec<bool> = preds
        .iter()
        .map(|p| p.quantifiers().iter().all(|q| !local_sub.contains(q)))
        .collect();
    let mut applied = vec![false; preds.len()];
    let mut bound: Vec<QuantId> = Vec::new();
    let mut stages = Vec::with_capacity(order.len());
    for &q in &order {
        let child = qgm.quant(q).input;
        let child_correlated = correlated[&child];
        let mut hash: Vec<(ScalarExpr, ScalarExpr)> = Vec::new();
        if !child_correlated {
            for (i, p) in preds.iter().enumerate() {
                if applied[i] || !joinable[i] {
                    continue;
                }
                let Some((l, r)) = p.as_equality() else {
                    continue;
                };
                let local = |e: &ScalarExpr| -> Vec<QuantId> {
                    e.quantifiers()
                        .into_iter()
                        .filter(|x| local_f.contains(x))
                        .collect()
                };
                let (lq, rq) = (local(l), local(r));
                let (probe, build) = if lq.iter().all(|x| bound.contains(x)) && rq == [q] {
                    (l, r)
                } else if rq.iter().all(|x| bound.contains(x)) && lq == [q] {
                    (r, l)
                } else {
                    continue;
                };
                hash.push((probe.clone(), build.clone()));
                applied[i] = true;
            }
        }
        let index = match &qgm.boxed(child).kind {
            BoxKind::BaseTable { table } => {
                hash.iter()
                    .enumerate()
                    .find_map(|(pred, (_, build))| match build {
                        ScalarExpr::ColRef { quant, col } if *quant == q => Some(IndexProbe {
                            table: table.clone(),
                            col: *col,
                            pred,
                        }),
                        _ => None,
                    })
            }
            _ => None,
        };
        bound.push(q);
        let ready: Vec<usize> = preds
            .iter()
            .enumerate()
            .filter(|(i, p)| {
                !applied[*i]
                    && joinable[*i]
                    && p.quantifiers()
                        .iter()
                        .all(|x| !local_f.contains(x) || bound.contains(x))
            })
            .map(|(i, _)| i)
            .collect();
        for &i in &ready {
            applied[i] = true;
        }
        stages.push(Stage {
            quant: q,
            child,
            child_correlated,
            probe_pure: hash.iter().all(|(p, _)| parallel_safe(qgm, p)),
            build_pure: hash.iter().all(|(_, bld)| parallel_safe(qgm, bld)),
            ready_pure: ready.iter().all(|&i| parallel_safe(qgm, &preds[i])),
            hash,
            index,
            ready,
        });
    }
    let residual: Vec<usize> = (0..preds.len()).filter(|&i| !applied[i]).collect();
    let residual_pure = residual.iter().all(|&i| parallel_safe(qgm, &preds[i]))
        && qb.columns.iter().all(|c| parallel_safe(qgm, &c.expr));
    let mut outer = OuterRefs::default();
    let mut checks = Vec::new();
    let kernels = lower_program(
        qgm,
        b,
        &order,
        &local_sub,
        &stages,
        &residual,
        correlated,
        &mut outer,
        &mut checks,
    );
    SelectPlan {
        stages,
        residual,
        residual_pure,
        program: Program {
            outer,
            checks,
            kernels,
        },
    }
}

/// Decide batch eligibility in the order the executor always has —
/// no input, then each predicate (subquery test, compilable), each
/// output column, then correlated inputs — and compile the kernels of
/// an eligible select.
#[allow(clippy::too_many_arguments)]
fn lower_program(
    qgm: &Qgm,
    b: BoxId,
    order: &[QuantId],
    local_sub: &BTreeSet<QuantId>,
    stages: &[Stage],
    residual: &[usize],
    correlated: &HashMap<BoxId, bool>,
    outer: &mut OuterRefs,
    checks: &mut Vec<(Vec<usize>, Fallback)>,
) -> std::result::Result<Kernels, Fallback> {
    let qb = qgm.boxed(b);
    if order.is_empty() {
        return Err(Fallback::NoInput);
    }
    let full = |x: QuantId| order.iter().position(|&y| y == x);
    let mut item = |e: &ScalarExpr, why: Fallback, outer: &mut OuterRefs| {
        let v = compile(e, &full, outer).ok_or(why)?;
        let needs = v.outer_slots();
        if !needs.is_empty() {
            checks.push((needs, why));
        }
        Ok(v)
    };
    for p in &qb.predicates {
        if p.quantifiers().iter().any(|x| local_sub.contains(x)) {
            return Err(Fallback::SubqueryPredicate);
        }
        item(p, Fallback::UncompilablePredicate, outer)?;
    }
    // Every quantifier is bound at projection: these are its kernels.
    let columns = qb
        .columns
        .iter()
        .map(|c| item(&c.expr, Fallback::UncompilableColumn, outer))
        .collect::<std::result::Result<Vec<_>, _>>()?;
    if order.iter().any(|&q| correlated[&qgm.quant(q).input]) {
        return Err(Fallback::CorrelatedInput);
    }
    // Every predicate is join-time by now, so every one is some stage's.
    if !residual.is_empty() {
        return Err(Fallback::UncompilablePredicate);
    }
    let mut compiled = Vec::with_capacity(stages.len());
    let mut bound: Vec<QuantId> = Vec::new();
    for st in stages {
        let before = |x: QuantId| bound.iter().position(|&y| y == x);
        let probe = st
            .hash
            .iter()
            .map(|(p, _)| compile(p, &before, outer))
            .collect::<Option<Vec<_>>>();
        let build_slot = |x: QuantId| (x == st.quant).then_some(0);
        let build = st
            .hash
            .iter()
            .map(|(_, bld)| compile(bld, &build_slot, outer))
            .collect::<Option<Vec<_>>>();
        bound.push(st.quant);
        let after = |x: QuantId| bound.iter().position(|&y| y == x);
        let ready = st
            .ready
            .iter()
            .map(|&i| compile(&qb.predicates[i], &after, outer))
            .collect::<Option<Vec<_>>>();
        let (Some(probe), Some(build), Some(ready)) = (probe, build, ready) else {
            return Err(Fallback::UncompilablePredicate);
        };
        compiled.push(StageKernels {
            probe,
            build,
            ready,
        });
    }
    Ok(Kernels {
        stages: compiled,
        columns,
    })
}

fn lower_groupby(qgm: &Qgm, b: BoxId) -> GroupByPlan {
    let qb = qgm.boxed(b);
    let BoxKind::GroupBy(spec) = &qb.kind else {
        unreachable!("lower_groupby on a {}", qb.kind.label())
    };
    let input = qb.quants[0];
    let slot_of = |q: QuantId| (q == input).then_some(0);
    let mut outer = OuterRefs::default();
    // Keys, then arguments: the order the row-at-a-time definition
    // evaluates them in per row.
    let exprs = spec
        .group_keys
        .iter()
        .map(|k| (k, Fallback::UncompilableKey))
        .chain(
            spec.aggs
                .iter()
                .filter_map(|a| Some((a.arg.as_ref()?, Fallback::UncompilableArgument))),
        )
        .map(|(e, fallback)| GroupExpr {
            kernel: compile(e, &slot_of, &mut outer).map(|v| {
                let needs = v.outer_slots();
                (v, needs)
            }),
            fallback,
        })
        .collect();
    GroupByPlan { outer, exprs }
}

/// May `e` be evaluated inside a parallel region? Parallel workers
/// have no access to the executor, so the expression must need nothing
/// beyond frame lookups: no quantified subquery tests, no aggregates,
/// and every column reference bound to a Foreach quantifier (a Scalar
/// quantifier's column evaluates a subquery on demand; Existential and
/// Universal quantifiers re-enter the executor through their tests).
/// Anything unsafe runs the serial loop, which is always correct —
/// this only gates the optimization.
fn parallel_safe(qgm: &Qgm, e: &ScalarExpr) -> bool {
    let mut ok = true;
    e.walk(&mut |x| match x {
        ScalarExpr::Agg { .. } | ScalarExpr::Quantified { .. } => ok = false,
        ScalarExpr::ColRef { quant, .. } if !qgm.quant(*quant).kind.is_foreach() => ok = false,
        _ => {}
    });
    ok
}

/// Every parameter marker of the graph, first occurrences in graph
/// order.
fn param_order(qgm: &Qgm) -> Vec<usize> {
    let mut out: Vec<usize> = Vec::new();
    let mut note = |e: &ScalarExpr| {
        e.walk(&mut |x| {
            if let ScalarExpr::Param(i) = x {
                if !out.contains(i) {
                    out.push(*i);
                }
            }
        });
    };
    for b in qgm.box_ids() {
        let qb = qgm.boxed(b);
        qb.predicates.iter().for_each(&mut note);
        qb.columns.iter().for_each(|c| note(&c.expr));
        match &qb.kind {
            BoxKind::GroupBy(g) => {
                g.group_keys.iter().for_each(&mut note);
                g.aggs
                    .iter()
                    .filter_map(|a| a.arg.as_ref())
                    .for_each(&mut note);
            }
            BoxKind::OuterJoin(oj) => oj.on.iter().for_each(&mut note),
            BoxKind::BaseTable { .. } | BoxKind::Select | BoxKind::SetOp(_) => {}
        }
    }
    out
}
