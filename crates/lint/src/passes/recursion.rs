//! Pass 3: recursion well-formedness.
//!
//! Cycles in the box graph are legal in exactly one shape — the one the
//! `WITH RECURSIVE` builder produces and the rewrites preserve. Two
//! checks enforce it:
//!
//! * **L011 (error)** — every dependency cycle must thread through a
//!   `Recursive`-flavored union box. Since a set-op box's outgoing
//!   edges are its arm quantifiers, a cycle containing the union
//!   necessarily leaves it through a step arm's quantifier; checking
//!   "cycle contains a recursive union" is therefore the same as the
//!   builder invariant "every cycle passes through a recursive union's
//!   step quantifier". Mechanically: within each cyclic SCC, delete
//!   the recursive-reference edges (quantifiers ranging over a
//!   recursive union) and require the remainder to be acyclic. Edges
//!   are `Qgm::inputs`, so a cycle that a pending magic link will
//!   close is reported before `process_nmq` makes it a quantifier.
//! * **L024 (error)** — the aggregate exemption. A GROUP BY box on a
//!   cycle must never carry a Bound adornment: the magic
//!   transformation refuses to push bindings into an aggregate inside
//!   recursion (a bound subset would see partial groups), so a Bound
//!   adornment there means a rewrite broke the exemption.

use std::collections::{BTreeMap, BTreeSet};

use starmagic_qgm::{strata, BoxId, BoxKind, Edge, Qgm};

use crate::diag::{Code, LintReport};

/// `sccs`: the graph's strongly connected components, as
/// `strata::sccs` returns them.
pub fn run(qgm: &Qgm, sccs: &[Vec<BoxId>], report: &mut LintReport) {
    for scc in sccs {
        if !strata::is_cycle(qgm, scc) {
            continue;
        }
        let members: BTreeSet<BoxId> = scc.iter().copied().collect();

        // L024: the aggregate exemption on every cycle member.
        for &b in scc {
            let qb = qgm.boxed(b);
            if !matches!(qb.kind, BoxKind::GroupBy(_)) {
                continue;
            }
            if let Some(a) = &qb.adornment {
                if !a.bound_cols().is_empty() {
                    report.push(
                        Code::L024RecursiveAggregateAdorned,
                        Some(b),
                        None,
                        format!(
                            "GROUP BY box {} lies on a dependency cycle but carries \
                             bound adornment {a}; magic must never push bindings \
                             into an aggregate inside recursion",
                            qb.name
                        ),
                    );
                }
            }
        }

        // L011: delete recursive-reference edges, then Kahn-peel the
        // SCC. Anything left sits on a cycle that avoids every
        // recursive union.
        let mut indeg: BTreeMap<BoxId, usize> = members.iter().map(|&b| (b, 0)).collect();
        let mut edges: Vec<(BoxId, Edge, BoxId)> = Vec::new();
        for &b in scc {
            for (edge, input) in qgm.inputs(b) {
                if members.contains(&input) && !qgm.boxed(input).is_recursive_union() {
                    edges.push((b, edge, input));
                    *indeg.get_mut(&input).expect("member") += 1;
                }
            }
        }
        let mut queue: Vec<BoxId> = indeg
            .iter()
            .filter(|&(_, &d)| d == 0)
            .map(|(&b, _)| b)
            .collect();
        let mut remaining = members;
        while let Some(b) = queue.pop() {
            remaining.remove(&b);
            for &(src, _, dst) in &edges {
                if src == b {
                    let d = indeg.get_mut(&dst).expect("member");
                    *d -= 1;
                    if *d == 0 {
                        queue.push(dst);
                    }
                }
            }
        }
        if let Some(&b) = remaining.iter().next() {
            // Anchor the finding at one offending edge of the residual
            // cycle; one report per SCC keeps the output readable.
            let quant = edges
                .iter()
                .find(|(src, _, dst)| *src == b && remaining.contains(dst))
                .and_then(|&(_, edge, _)| match edge {
                    Edge::Quantifier(q) => Some(q),
                    Edge::MagicLink => None,
                });
            report.push(
                Code::L011RecursiveCycleShape,
                Some(b),
                quant,
                format!(
                    "dependency cycle through {} never passes a recursive union's \
                     step quantifier; only WITH RECURSIVE fixpoints may close cycles",
                    qgm.boxed(b).name
                ),
            );
        }
    }
}
