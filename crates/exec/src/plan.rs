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
//!   ready — then its residue and its columns;
//! * for a group-by, its keys and aggregate arguments;
//! * for a hashed `EXISTS` test, its key columns, its probe expressions
//!   and its residue ([`HashedExists`]).
//!
//! Every such expression is an [`Item`]: the expression, its kernel
//! when it compiles, and the reason the box is marked `row(<reason>)`
//! when it runs on the scalar evaluator instead (a subquery test, a
//! scalar-subquery read). Kernels read literals inline, parameters from
//! the bound values and outer references from the frame
//! ([`crate::vector::OuterRefs`]), so one plan serves every binding:
//! every execution of a cached plan, every round of a fixpoint's step
//! arm, every outer row of a correlated block. What depends on the data
//! stays a run-time decision of the executor: index-nested-loop vs
//! hash join (combinations against the table's row count), the build
//! table's shape, and a kernel that raises an error.

use std::collections::{BTreeSet, HashMap};

use starmagic_common::{Error, Result, Value};
use starmagic_planner::cost::is_correlated_subtree;
use starmagic_qgm::expr::QuantMode;
use starmagic_qgm::{strata, BoxId, BoxKind, Qgm, QuantId, ScalarExpr};

use crate::boundary::{live_columns, BoxPath, Fallback};
use crate::fixpoint::{lower_fixpoint, Fixpoint};
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
    /// How many index probes the stages hold: [`IndexProbe::slot`] runs
    /// over `0..probes`.
    probes: usize,
    /// By [`QuantId::index`], the hashed form of the `EXISTS` test over
    /// that quantifier, when it has one.
    exists: Vec<Option<HashedExists>>,
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
    SetOperation,
    /// Pair by pair, on the scalar evaluator.
    OuterJoin,
}

/// A select box: its join stages, then its residue and its columns.
#[derive(Debug)]
pub(crate) struct SelectPlan {
    pub(crate) stages: Vec<Stage>,
    /// Predicates no stage applies (subquery tests; every predicate of
    /// a select with no input), checked per combination before the
    /// columns.
    pub(crate) residual: Vec<Item>,
    pub(crate) columns: Vec<Item>,
    /// The outer references the items' kernels read.
    pub(crate) outer: OuterRefs,
}

/// One join stage: bind `quant`, then filter.
#[derive(Debug)]
pub(crate) struct Stage {
    pub(crate) quant: QuantId,
    pub(crate) child: BoxId,
    /// The child is re-evaluated per combination.
    pub(crate) child_correlated: bool,
    /// Equalities joining `quant` to the quantifiers bound before it,
    /// in declaration order: the probe side over the bound quantifiers,
    /// the build side over `quant` alone.
    pub(crate) probe: Vec<Item>,
    pub(crate) build: Vec<Item>,
    /// The index-nested-loop candidate, taken when the combinations
    /// are few against the table.
    pub(crate) index: Option<IndexProbe>,
    /// Predicates every combination must pass once `quant` is bound,
    /// in declaration order.
    pub(crate) ready: Vec<Item>,
}

/// Probe `table`'s index on `col` with hash equality `pred`'s probe
/// side (its build side is that bare column).
#[derive(Debug)]
pub(crate) struct IndexProbe {
    pub(crate) table: String,
    pub(crate) col: usize,
    pub(crate) pred: usize,
    /// This probe's number in the plan, where an execution keeps the
    /// table and index it resolves on first use.
    pub(crate) slot: usize,
}

/// An `EXISTS` test whose equalities `quant.col = <expr over other
/// quantifiers>` key a row-id table over its uncorrelated subquery: the
/// key columns, the probe side of each, and the predicates left over,
/// in declaration order.
#[derive(Debug)]
pub(crate) struct HashedExists {
    pub(crate) key_cols: Vec<usize>,
    pub(crate) probe: Vec<ScalarExpr>,
    pub(crate) rest: Vec<ScalarExpr>,
}

/// A group-by's keys, then arguments.
#[derive(Debug)]
pub(crate) struct GroupByPlan {
    pub(crate) outer: OuterRefs,
    pub(crate) exprs: Vec<Item>,
}

/// One expression of a box — a hash key, a predicate, a column, a
/// group key or an aggregate argument — with its kernel when it
/// compiles.
#[derive(Debug)]
pub(crate) struct Item {
    pub(crate) expr: ScalarExpr,
    /// The kernel and the outer references it reads.
    kernel: Option<(VExpr, Vec<usize>)>,
    /// The reason the box is marked with when the item runs on the
    /// scalar evaluator instead.
    pub(crate) why: Fallback,
}

impl Item {
    fn new(
        expr: &ScalarExpr,
        slot_of: &dyn Fn(QuantId) -> Option<usize>,
        outer: &mut OuterRefs,
        why: Fallback,
    ) -> Item {
        let kernel = compile(expr, slot_of, outer).map(|v| {
            let needs = v.outer_slots();
            (v, needs)
        });
        Item {
            expr: expr.clone(),
            kernel,
            why,
        }
    }

    /// The kernel, if one evaluation whose outer references resolved to
    /// `outer` can run it.
    pub(crate) fn kernel(&self, outer: &[Option<Value>]) -> Option<&VExpr> {
        let (v, needs) = self.kernel.as_ref()?;
        needs.iter().all(|&k| outer[k].is_some()).then_some(v)
    }
}

/// `row(<why>)` of the first item that does not compile, else `batch`.
fn path_of<'i>(mut items: impl Iterator<Item = &'i Item>) -> BoxPath {
    items
        .find(|i| i.kernel.is_none())
        .map_or(BoxPath::Batch, |i| BoxPath::Row(i.why))
}

impl Plan {
    /// Lower `qgm`. Costs a few walks of the graph; done once per plan.
    pub fn lower(qgm: &Qgm) -> Plan {
        let ids = qgm.box_ids();
        let top = qgm.top();
        // Every box on a cycle, with its strongly connected component.
        let mut cycles: HashMap<BoxId, Vec<BoxId>> = HashMap::new();
        for mut scc in strata::sccs(qgm) {
            if strata::is_cycle(qgm, &scc) {
                scc.sort();
                for &b in &scc {
                    cycles.insert(b, scc.clone());
                }
            }
        }
        let correlated: HashMap<BoxId, bool> = ids
            .iter()
            .map(|&b| (b, is_correlated_subtree(qgm, b)))
            .collect();
        let mut live = live_columns(qgm, |b| cycles.contains_key(&b));
        let mut boxes: Vec<Option<BoxPlan>> = Vec::new();
        boxes.resize_with(ids.last().map_or(0, |b| b.index() + 1), || None);
        let mut probes = 0;
        for &b in &ids {
            let op = match &qgm.boxed(b).kind {
                BoxKind::BaseTable { .. } => Op::Scan,
                BoxKind::Select => Op::Select(lower_select(qgm, b, &correlated, &mut probes)),
                BoxKind::GroupBy(_) => Op::GroupBy(lower_groupby(qgm, b)),
                BoxKind::SetOp(_) => Op::SetOperation,
                BoxKind::OuterJoin(_) => Op::OuterJoin,
            };
            boxes[b.index()] = Some(BoxPlan {
                correlated: correlated[&b],
                fixpoint: cycles.get(&b).map(|scc| lower_fixpoint(qgm, b, scc)),
                live: live.remove(&b).filter(|_| b != top),
                op,
            });
        }
        Plan {
            boxes,
            params: param_order(qgm),
            probes,
            exists: lower_exists(qgm, &correlated),
        }
    }

    pub(crate) fn get(&self, b: BoxId) -> &BoxPlan {
        self.boxes
            .get(b.index())
            .and_then(Option::as_ref)
            .unwrap_or_else(|| panic!("box {b} is not in the lowered plan"))
    }

    /// One past the largest [`BoxId::index`] of the plan: the length of
    /// a vector with a place for every box.
    pub(crate) fn box_slots(&self) -> usize {
        self.boxes.len()
    }

    /// The number of index probes ([`IndexProbe::slot`]).
    pub(crate) fn probe_slots(&self) -> usize {
        self.probes
    }

    /// One past the largest quantifier index with a hashed `EXISTS`.
    pub(crate) fn exists_slots(&self) -> usize {
        self.exists.len()
    }

    /// The hashed form of the `EXISTS` test over `quant`, if it has one.
    pub(crate) fn hashed_exists(&self, quant: QuantId) -> Option<&HashedExists> {
        self.exists.get(quant.index())?.as_ref()
    }

    /// The path box `b` takes, as decided at lowering: `batch`, or
    /// `row(<reason>)` for the first of its items that does not compile.
    /// An item whose kernel reads an outer reference the frame turns out
    /// not to bind, or raises an error, still runs on the scalar
    /// evaluator at run time; `None` for a box not in the plan.
    pub fn path(&self, b: BoxId) -> Option<BoxPath> {
        let bp = self.boxes.get(b.index())?.as_ref()?;
        Some(match &bp.op {
            Op::Scan | Op::SetOperation => BoxPath::Batch,
            Op::Select(sp) => path_of(
                sp.stages
                    .iter()
                    .flat_map(|st| st.probe.iter().chain(&st.build).chain(&st.ready))
                    .chain(&sp.residual)
                    .chain(&sp.columns),
            ),
            Op::GroupBy(gp) => path_of(gp.exprs.iter()),
            Op::OuterJoin => BoxPath::Row(Fallback::OuterJoin),
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

fn lower_select(
    qgm: &Qgm,
    b: BoxId,
    correlated: &HashMap<BoxId, bool>,
    probes: &mut usize,
) -> SelectPlan {
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
    let mut outer = OuterRefs::default();
    let mut applied = vec![false; preds.len()];
    let mut bound: Vec<QuantId> = Vec::new();
    let mut stages = Vec::with_capacity(order.len());
    for &q in &order {
        let child = qgm.quant(q).input;
        let child_correlated = correlated[&child];
        let before = |x: QuantId| bound.iter().position(|&y| y == x);
        let build_slot = |x: QuantId| (x == q).then_some(0);
        let (mut probe, mut build) = (Vec::new(), Vec::new());
        let mut index = None;
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
                let (p_side, b_side) = if lq.iter().all(|x| bound.contains(x)) && rq == [q] {
                    (l, r)
                } else if rq.iter().all(|x| bound.contains(x)) && lq == [q] {
                    (r, l)
                } else {
                    continue;
                };
                if let (None, BoxKind::BaseTable { table }) = (&index, &qgm.boxed(child).kind) {
                    if let ScalarExpr::ColRef { quant, col } = b_side {
                        if *quant == q {
                            index = Some(IndexProbe {
                                table: table.clone(),
                                col: *col,
                                pred: probe.len(),
                                slot: *probes,
                            });
                            *probes += 1;
                        }
                    }
                }
                let why = Fallback::UncompilablePredicate;
                probe.push(Item::new(p_side, &before, &mut outer, why));
                build.push(Item::new(b_side, &build_slot, &mut outer, why));
                applied[i] = true;
            }
        }
        bound.push(q);
        let after = |x: QuantId| bound.iter().position(|&y| y == x);
        let mut ready = Vec::new();
        for (i, p) in preds.iter().enumerate() {
            let now = p
                .quantifiers()
                .iter()
                .all(|x| !local_f.contains(x) || bound.contains(x));
            if !applied[i] && joinable[i] && now {
                ready.push(Item::new(
                    p,
                    &after,
                    &mut outer,
                    Fallback::UncompilablePredicate,
                ));
                applied[i] = true;
            }
        }
        stages.push(Stage {
            quant: q,
            child,
            child_correlated,
            probe,
            build,
            index,
            ready,
        });
    }
    // Every quantifier is bound at the residue and the columns; what
    // reads a subquery of the box is the scalar evaluator's.
    let full = |x: QuantId| order.iter().position(|&y| y == x);
    let mut item = |e: &ScalarExpr, why| {
        if e.quantifiers().iter().any(|q| local_sub.contains(q)) {
            Item {
                expr: e.clone(),
                kernel: None,
                why,
            }
        } else {
            Item::new(e, &full, &mut outer, why)
        }
    };
    let residual = (0..preds.len())
        .filter(|&i| !applied[i])
        .map(|i| {
            let why = if joinable[i] {
                Fallback::UncompilablePredicate
            } else {
                Fallback::SubqueryPredicate
            };
            item(&preds[i], why)
        })
        .collect();
    let columns = qb
        .columns
        .iter()
        .map(|c| item(&c.expr, Fallback::UncompilableColumn))
        .collect();
    SelectPlan {
        stages,
        residual,
        columns,
        outer,
    }
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
        .map(|(e, why)| Item::new(e, &slot_of, &mut outer, why))
        .collect();
    GroupByPlan { outer, exprs }
}

/// Every expression a box evaluates: predicates, columns, group keys,
/// aggregate arguments and ON conditions.
fn box_exprs(qgm: &Qgm, b: BoxId, mut f: impl FnMut(&ScalarExpr)) {
    let qb = qgm.boxed(b);
    qb.predicates.iter().for_each(&mut f);
    qb.columns.iter().for_each(|c| f(&c.expr));
    match &qb.kind {
        BoxKind::GroupBy(g) => {
            g.group_keys.iter().for_each(&mut f);
            g.aggs.iter().filter_map(|a| a.arg.as_ref()).for_each(f);
        }
        BoxKind::OuterJoin(oj) => oj.on.iter().for_each(f),
        BoxKind::BaseTable { .. } | BoxKind::Select | BoxKind::SetOp(_) => {}
    }
}

/// The hashed form of every `EXISTS` test that has one, by quantifier:
/// the subquery is uncorrelated, and some predicate equates one of its
/// columns with an expression that does not read it. A quantifier
/// tested more than once gets none.
fn lower_exists(qgm: &Qgm, correlated: &HashMap<BoxId, bool>) -> Vec<Option<HashedExists>> {
    let mut tests: HashMap<QuantId, Option<HashedExists>> = HashMap::new();
    for b in qgm.box_ids() {
        box_exprs(qgm, b, |e| {
            e.walk(&mut |x| {
                if let ScalarExpr::Quantified { mode, quant, preds } = x {
                    let hashed = (*mode == QuantMode::Exists
                        && !correlated[&qgm.quant(*quant).input])
                        .then(|| hash_exists(*quant, preds))
                        .flatten();
                    tests
                        .entry(*quant)
                        .and_modify(|seen| *seen = None)
                        .or_insert(hashed);
                }
            });
        });
    }
    let mut exists: Vec<Option<HashedExists>> = Vec::new();
    for (quant, hashed) in tests {
        if let Some(hashed) = hashed {
            if exists.len() <= quant.index() {
                exists.resize_with(quant.index() + 1, || None);
            }
            exists[quant.index()] = Some(hashed);
        }
    }
    exists
}

/// Split an `EXISTS` test's predicates into hashable equalities
/// `quant.col = <expr not reading quant>` and the rest; `None` without
/// any equality.
fn hash_exists(quant: QuantId, preds: &[ScalarExpr]) -> Option<HashedExists> {
    let mut hashed = HashedExists {
        key_cols: Vec::new(),
        probe: Vec::new(),
        rest: Vec::new(),
    };
    let key = |side: &ScalarExpr, other: &ScalarExpr| match side {
        ScalarExpr::ColRef { quant: q, col } if *q == quant && !other.references(quant) => {
            Some(*col)
        }
        _ => None,
    };
    for p in preds {
        let keyed = p.as_equality().and_then(|(l, r)| {
            key(l, r)
                .map(|c| (c, r))
                .or_else(|| key(r, l).map(|c| (c, l)))
        });
        match keyed {
            Some((col, probe)) => {
                hashed.key_cols.push(col);
                hashed.probe.push(probe.clone());
            }
            None => hashed.rest.push(p.clone()),
        }
    }
    (!hashed.key_cols.is_empty()).then_some(hashed)
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
        box_exprs(qgm, b, &mut note);
    }
    out
}
