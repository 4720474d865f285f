//! Pass 7: hygiene warnings.
//!
//! None of these change query answers — they flag dead weight a rule
//! left behind: boxes no traversal can reach, quantifiers their parent
//! forgot, output columns nobody reads, and join orders referring to
//! quantifiers of other boxes. All findings here are `Warn`.

use std::collections::{BTreeMap, BTreeSet};

use starmagic_qgm::{BoxId, BoxKind, DistinctMode, Qgm, ScalarExpr};

use crate::diag::{Code, LintReport};

pub fn run(qgm: &Qgm, report: &mut LintReport) {
    unreachable_boxes(qgm, report);
    orphan_quants(qgm, report);
    unused_output_columns(qgm, report);
    join_order_foreign(qgm, report);
}

/// L100: boxes `Qgm::live_boxes(true)` does not reach from the top —
/// the walk `garbage_collect(true)` keeps boxes by, so anything flagged
/// here is one GC away from deletion.
fn unreachable_boxes(qgm: &Qgm, report: &mut LintReport) {
    let live = qgm.live_boxes(true);
    for id in qgm.box_ids() {
        if !live.contains(&id) {
            report.push(
                Code::L100UnreachableBox,
                Some(id),
                None,
                format!("{} is unreachable from the top box", qgm.boxed(id).name),
            );
        }
    }
}

/// L101: live quantifiers their parent box does not list (or whose
/// parent box is dead).
fn orphan_quants(qgm: &Qgm, report: &mut LintReport) {
    for q in qgm.quant_ids() {
        let quant = qgm.quant(q);
        if !qgm.box_exists(quant.parent) {
            report.push(
                Code::L101OrphanQuant,
                None,
                Some(q),
                format!("{q} belongs to dead box {}", quant.parent),
            );
        } else if !qgm.boxed(quant.parent).quants.contains(&q) {
            report.push(
                Code::L101OrphanQuant,
                Some(quant.parent),
                Some(q),
                format!(
                    "{q} claims parent {} but is not in its quantifier list",
                    qgm.boxed(quant.parent).name
                ),
            );
        }
    }
}

/// L102: output columns of interior boxes that no expression anywhere
/// references. Skips boxes whose projection is semantics rather than
/// plumbing: the top box (the query's answer shape), base tables (the
/// stored schema), set-op operands (positional), boxes feeding set-ops,
/// dedup boxes (the projected row *is* the dedup key), and magic
/// flavors (the projected row is the binding set).
fn unused_output_columns(qgm: &Qgm, report: &mut LintReport) {
    let mut used: BTreeMap<BoxId, BTreeSet<usize>> = BTreeMap::new();
    let mark = |e: &ScalarExpr, used: &mut BTreeMap<BoxId, BTreeSet<usize>>| {
        e.walk(&mut |sub| {
            if let ScalarExpr::ColRef { quant, col } = sub {
                if qgm.quant_exists(*quant) {
                    used.entry(qgm.quant(*quant).input)
                        .or_default()
                        .insert(*col);
                }
            }
        });
    };
    let mut setop_operand: BTreeSet<BoxId> = BTreeSet::new();
    for id in qgm.box_ids() {
        let b = qgm.boxed(id);
        for p in &b.predicates {
            mark(p, &mut used);
        }
        for c in &b.columns {
            mark(&c.expr, &mut used);
        }
        match &b.kind {
            BoxKind::GroupBy(g) => {
                for k in &g.group_keys {
                    mark(k, &mut used);
                }
                for a in &g.aggs {
                    if let Some(arg) = &a.arg {
                        mark(arg, &mut used);
                    }
                }
            }
            BoxKind::OuterJoin(oj) => {
                for p in &oj.on {
                    mark(p, &mut used);
                }
            }
            BoxKind::SetOp(_) => {
                for &q in &b.quants {
                    if qgm.quant_exists(q) {
                        setop_operand.insert(qgm.quant(q).input);
                    }
                }
            }
            _ => {}
        }
    }
    let empty = BTreeSet::new();
    for id in qgm.box_ids() {
        let b = qgm.boxed(id);
        if id == qgm.top()
            || matches!(b.kind, BoxKind::BaseTable { .. } | BoxKind::SetOp(_))
            || setop_operand.contains(&id)
            || b.distinct != DistinctMode::Permit
            || b.is_magic_flavor()
            || qgm.users(id).is_empty()
        {
            continue;
        }
        let used_cols = used.get(&id).unwrap_or(&empty);
        for (i, c) in b.columns.iter().enumerate() {
            if !used_cols.contains(&i) {
                report.push(
                    Code::L102UnusedOutputColumn,
                    Some(id),
                    None,
                    format!("column {i} ({}) of {} is never referenced", c.name, b.name),
                );
            }
        }
    }
}

/// L103: join-order entries that are live but belong to another box or
/// are not Foreach — the accessor silently drops them, so the planner's
/// deposited order is partly ignored.
fn join_order_foreign(qgm: &Qgm, report: &mut LintReport) {
    for id in qgm.box_ids() {
        let b = qgm.boxed(id);
        let Some(order) = &b.join_order else {
            continue;
        };
        for &q in order {
            if !qgm.quant_exists(q) {
                continue; // L009 (error) covers dead entries
            }
            let quant = qgm.quant(q);
            if quant.parent != id || !quant.kind.is_foreach() {
                report.push(
                    Code::L103JoinOrderForeignQuant,
                    Some(id),
                    Some(q),
                    format!(
                        "join order of {} lists {q} which is {}",
                        b.name,
                        if quant.parent != id {
                            "owned by another box"
                        } else {
                            "not a Foreach quantifier"
                        }
                    ),
                );
            }
        }
    }
}
