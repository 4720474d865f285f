//! Pass 2: stratum monotonicity.
//!
//! Strata are assigned once, at build time (`strata::assign`); rewrite
//! rules do not maintain them. New boxes start at stratum 0, which for
//! a non-base box means "unassigned". This pass compares the stored
//! strata with a recomputation (`strata::compute`, shared with the
//! recursion pass) and checks two things:
//!
//! * **L010 (error)** — stored strata must be *monotone*: a box whose
//!   stratum is assigned must sit strictly above every assigned input
//!   from a different SCC, and base tables must be at stratum 0.
//!   Edges touching an unassigned box are skipped (EMST and other
//!   rewrites create boxes mid-pipeline without renumbering).
//! * **L104 (warn)** — stored differs from recomputed: staleness, not
//!   corruption. Expected after structural rewrites; the pipeline
//!   refreshes strata during final cleanup.

use std::collections::BTreeMap;

use starmagic_qgm::strata::Strata;
use starmagic_qgm::{BoxId, BoxKind, Qgm};

use crate::diag::{Code, LintReport};

pub fn run(qgm: &Qgm, computed: &Strata, report: &mut LintReport) {
    let recomputed = &computed.strata;
    let mut scc_of: BTreeMap<BoxId, usize> = BTreeMap::new();
    for (i, scc) in computed.sccs.iter().enumerate() {
        for &b in scc {
            scc_of.insert(b, i);
        }
    }

    for id in qgm.box_ids() {
        let b = qgm.boxed(id);
        let is_base = matches!(b.kind, BoxKind::BaseTable { .. });

        if is_base && b.stratum != 0 {
            report.push(
                Code::L010StratumMonotonicity,
                Some(id),
                None,
                format!(
                    "base table {} must be at stratum 0, found {}",
                    b.name, b.stratum
                ),
            );
        }
        if let Some(&fresh) = recomputed.get(&id) {
            if b.stratum != fresh {
                report.push(
                    Code::L104StaleStratum,
                    Some(id),
                    None,
                    format!(
                        "{} stores stratum {} but recomputation gives {fresh}",
                        b.name, b.stratum
                    ),
                );
            }
        }

        // Monotonicity over assigned-to-assigned edges only. Adorned
        // copies and magic-flavored boxes are EMST work-in-progress:
        // a copy inherits its original's stratum but not its SCC
        // membership (a copy of a recursive box sits *outside* the
        // recursive clique), so the inherited number cannot be held
        // to cross-SCC monotonicity.
        if !assigned(qgm, id) || b.adornment.is_some() || b.is_magic_flavor() {
            continue;
        }
        for &q in &b.quants {
            let input = qgm.quant(q).input;
            if scc_of.get(&id) == scc_of.get(&input) {
                continue; // recursive clique: shared stratum is legal
            }
            if !assigned(qgm, input) {
                continue;
            }
            let is_ = qgm.boxed(input).stratum;
            if b.stratum <= is_ {
                report.push(
                    Code::L010StratumMonotonicity,
                    Some(id),
                    Some(q),
                    format!(
                        "{} (stratum {}) must sit strictly above its input {} (stratum {is_})",
                        b.name,
                        b.stratum,
                        qgm.boxed(input).name
                    ),
                );
            }
        }
    }
}

/// Whether a box's stored stratum is meaningful. `strata::assign`
/// gives every non-base box a stratum of at least 1, so a non-base box
/// at 0 was created by a rewrite and never renumbered.
fn assigned(qgm: &Qgm, b: BoxId) -> bool {
    let qb = qgm.boxed(b);
    matches!(qb.kind, BoxKind::BaseTable { .. }) || qb.stratum > 0
}
