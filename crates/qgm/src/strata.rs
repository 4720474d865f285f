//! Stratum numbers (§2).
//!
//! Build the blob dependency graph (box U → box V when V depends on U
//! through a quantifier or a pending magic link, [`Qgm::inputs`]),
//! collapse strongly connected components (recursion), and assign
//! stratum numbers by topological order, with base tables at stratum 0.

use std::collections::{BTreeMap, BTreeSet};

use starmagic_common::{Error, Result};

use starmagic_sql::SetOpKind;

use crate::boxes::{BoxKind, QuantKind};
use crate::graph::Qgm;
use crate::ids::BoxId;

/// What [`compute`] derives from a graph: the stratum of every live box
/// and the strongly connected components it was layered from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Strata {
    /// Stratum per live box.
    pub strata: BTreeMap<BoxId, u32>,
    /// The SCCs of the box dependency graph, as [`sccs`] returns them.
    pub sccs: Vec<Vec<BoxId>>,
}

/// Assign stratum numbers to every live box in the graph, storing them
/// on the boxes and returning the map. Boxes in the same strongly
/// connected component (mutual recursion) share a stratum.
pub fn assign(qgm: &mut Qgm) -> BTreeMap<BoxId, u32> {
    let Strata { strata, .. } = compute(qgm);
    for (&id, &s) in &strata {
        qgm.boxed_mut(id).stratum = s;
    }
    strata
}

/// The strata [`assign`] would store, and the SCCs they come from,
/// without touching the graph: one Tarjan pass for readers that need
/// both (the lint's strata and recursion passes).
pub fn compute(qgm: &Qgm) -> Strata {
    let ids = qgm.box_ids();
    let sccs = tarjan_sccs(qgm, &ids);
    // Map box → SCC index.
    let mut scc_of: BTreeMap<BoxId, usize> = BTreeMap::new();
    for (i, scc) in sccs.iter().enumerate() {
        for &b in scc {
            scc_of.insert(b, i);
        }
    }
    // Longest-path layering over the SCC DAG: stratum(scc) =
    // 1 + max(stratum of scc's inputs), base tables at 0. Tarjan emits
    // SCCs in reverse topological order, so process in emission order:
    // every dependency of an SCC appears before it.
    let mut stratum_of_scc: Vec<u32> = vec![0; sccs.len()];
    for (i, scc) in sccs.iter().enumerate() {
        let mut s = 0u32;
        let mut is_base = true;
        for &b in scc {
            if !matches!(qgm.boxed(b).kind, BoxKind::BaseTable { .. }) {
                is_base = false;
            }
            for (_, input) in qgm.inputs(b) {
                let j = scc_of[&input];
                if j != i {
                    s = s.max(stratum_of_scc[j] + 1);
                }
            }
        }
        stratum_of_scc[i] = if is_base { 0 } else { s.max(1) };
    }
    let strata = ids
        .into_iter()
        .map(|id| (id, stratum_of_scc[scc_of[&id]]))
        .collect();
    Strata { strata, sccs }
}

/// The strongly connected components of the box dependency graph, in
/// reverse topological order. Exposed for the lint passes, which need
/// SCC membership (recursive cliques share a stratum) without mutating
/// the graph.
pub fn sccs(qgm: &Qgm) -> Vec<Vec<BoxId>> {
    tarjan_sccs(qgm, &qgm.box_ids())
}

/// Whether the graph contains recursion (a non-trivial SCC or a box
/// that references itself).
pub fn is_recursive(qgm: &Qgm) -> bool {
    let mut cyclic = false;
    tarjan(qgm, &qgm.box_ids(), |scc| cyclic |= is_cycle(qgm, scc));
    cyclic
}

impl Strata {
    /// [`is_recursive`] of the graph these strata were computed from,
    /// read off its SCCs.
    pub fn is_recursive(&self, qgm: &Qgm) -> bool {
        self.sccs.iter().any(|scc| is_cycle(qgm, scc))
    }
}

/// Whether an SCC is a cycle: more than one box, or one box that
/// depends on itself.
pub fn is_cycle(qgm: &Qgm, scc: &[BoxId]) -> bool {
    scc.len() > 1 || qgm.inputs(scc[0]).any(|(_, input)| input == scc[0])
}

/// Reject graphs whose recursion is not stratifiable: a cycle running
/// through negation (NOT EXISTS, ALL-quantified subqueries, EXCEPT),
/// through aggregation (GROUP BY), through an outer join's NULL
/// padding, or through a scalar subquery cannot be evaluated by a
/// monotone fixpoint. Called by the builder after constructing a graph
/// from SQL; hand-built graphs may opt in explicitly.
///
/// The diagnostics name the offending construct so the REPL/server can
/// surface them verbatim.
pub fn validate_stratification(qgm: &Qgm) -> Result<()> {
    for scc in sccs(qgm) {
        if !is_cycle(qgm, &scc) {
            continue;
        }
        let members: BTreeSet<BoxId> = scc.iter().copied().collect();
        for &b in &scc {
            let qb = qgm.boxed(b);
            match &qb.kind {
                BoxKind::GroupBy(_) => {
                    return Err(Error::semantic(format!(
                        "recursive query is not stratifiable: recursion through \
                         GROUP BY/aggregation in {}",
                        qb.name
                    )));
                }
                BoxKind::OuterJoin(_) => {
                    return Err(Error::semantic(format!(
                        "recursive query is not stratifiable: recursion through \
                         OUTER JOIN in {}",
                        qb.name
                    )));
                }
                BoxKind::SetOp(spec) if spec.op != SetOpKind::Union => {
                    let op = match spec.op {
                        SetOpKind::Except => "EXCEPT",
                        SetOpKind::Intersect => "INTERSECT",
                        SetOpKind::Union => unreachable!(),
                    };
                    return Err(Error::semantic(format!(
                        "recursive query is not stratifiable: recursion through \
                         {op} in {}",
                        qb.name
                    )));
                }
                _ => {}
            }
            // Cycle-closing quantifiers must be monotone references:
            // plain FROM-clause ranges or positive EXISTS.
            for &q in &qb.quants {
                let quant = qgm.quant(q);
                if !members.contains(&quant.input) {
                    continue;
                }
                match quant.kind {
                    QuantKind::Foreach | QuantKind::Existential { negated: false } => {}
                    QuantKind::Existential { negated: true } => {
                        return Err(Error::semantic(format!(
                            "recursive query is not stratifiable: recursion through \
                             NOT EXISTS/NOT IN in {}",
                            qb.name
                        )));
                    }
                    QuantKind::Universal => {
                        return Err(Error::semantic(format!(
                            "recursive query is not stratifiable: recursion through \
                             an ALL-quantified subquery in {}",
                            qb.name
                        )));
                    }
                    QuantKind::Scalar => {
                        return Err(Error::semantic(format!(
                            "recursive query is not stratifiable: recursion through \
                             a scalar subquery in {}",
                            qb.name
                        )));
                    }
                }
            }
        }
    }
    Ok(())
}

/// Iterative Tarjan SCC over the box graph (edges: [`Qgm::inputs`]).
/// Returns SCCs in reverse topological order.
fn tarjan_sccs(qgm: &Qgm, ids: &[BoxId]) -> Vec<Vec<BoxId>> {
    let mut sccs = Vec::new();
    tarjan(qgm, ids, |scc| {
        sccs.push(scc.iter().rev().copied().collect());
    });
    sccs
}

/// The Tarjan pass behind [`tarjan_sccs`]: hands each SCC to `emit` as
/// it completes, in reverse topological order, its boxes in the order
/// they were reached.
fn tarjan(qgm: &Qgm, ids: &[BoxId], mut emit: impl FnMut(&[BoxId])) {
    #[derive(Clone, Copy)]
    struct NodeState {
        index: u32,
        lowlink: u32,
        on_stack: bool,
        visited: bool,
    }
    let max = ids.iter().map(|b| b.index() + 1).max().unwrap_or(0);
    let mut state = vec![
        NodeState {
            index: 0,
            lowlink: 0,
            on_stack: false,
            visited: false
        };
        max
    ];
    let mut counter = 0u32;
    let mut stack: Vec<BoxId> = Vec::new();
    // Explicit DFS stack: (node, its inputs not yet followed), the
    // inputs taken when the node is first visited.
    let mut dfs = Vec::new();

    for &root in ids {
        if state[root.index()].visited {
            continue;
        }
        dfs.push((root, None));
        while let Some((node, children)) = dfs.last_mut() {
            let node = *node;
            let children = children.get_or_insert_with(|| {
                let st = &mut state[node.index()];
                st.visited = true;
                st.index = counter;
                st.lowlink = counter;
                st.on_stack = true;
                counter += 1;
                stack.push(node);
                qgm.inputs(node)
            });
            if let Some((_, child)) = children.next() {
                if !state[child.index()].visited {
                    dfs.push((child, None));
                } else if state[child.index()].on_stack {
                    let cl = state[child.index()].index;
                    let st = &mut state[node.index()];
                    st.lowlink = st.lowlink.min(cl);
                }
            } else {
                // Done with node.
                dfs.pop();
                if let Some(&mut (parent, _)) = dfs.last_mut() {
                    let nl = state[node.index()].lowlink;
                    let st = &mut state[parent.index()];
                    st.lowlink = st.lowlink.min(nl);
                }
                if state[node.index()].lowlink == state[node.index()].index {
                    let at = stack
                        .iter()
                        .rposition(|&w| w == node)
                        .expect("tarjan stack holds the root of its SCC");
                    for &w in &stack[at..] {
                        state[w.index()].on_stack = false;
                    }
                    emit(&stack[at..]);
                    stack.truncate(at);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::boxes::{BoxKind, QuantKind};

    fn base(g: &mut Qgm, name: &str) -> BoxId {
        g.add_box(
            name,
            BoxKind::BaseTable {
                table: name.to_ascii_lowercase(),
            },
        )
    }

    #[test]
    fn linear_chain_strata() {
        // top <- v2 <- v1 <- base
        let mut g = Qgm::new();
        let b = base(&mut g, "T");
        let v1 = g.add_box("V1", BoxKind::Select);
        g.add_quant(v1, b, QuantKind::Foreach, "t");
        let v2 = g.add_box("V2", BoxKind::Select);
        g.add_quant(v2, v1, QuantKind::Foreach, "v1");
        let top = g.top();
        g.add_quant(top, v2, QuantKind::Foreach, "v2");
        let strata = assign(&mut g);
        assert_eq!(strata[&b], 0);
        assert_eq!(strata[&v1], 1);
        assert_eq!(strata[&v2], 2);
        assert_eq!(strata[&top], 3);
        assert!(!is_recursive(&g));
    }

    #[test]
    fn diamond_takes_longest_path() {
        // top references both v (stratum 1) and w over v (stratum 2).
        let mut g = Qgm::new();
        let b = base(&mut g, "T");
        let v = g.add_box("V", BoxKind::Select);
        g.add_quant(v, b, QuantKind::Foreach, "t");
        let w = g.add_box("W", BoxKind::Select);
        g.add_quant(w, v, QuantKind::Foreach, "v");
        let top = g.top();
        g.add_quant(top, v, QuantKind::Foreach, "v2");
        g.add_quant(top, w, QuantKind::Foreach, "w");
        let strata = assign(&mut g);
        assert_eq!(strata[&top], 3);
        assert_eq!(strata[&w], 2);
        assert_eq!(strata[&v], 1);
    }

    #[test]
    fn recursion_collapses_to_one_stratum() {
        // rec references base and itself.
        let mut g = Qgm::new();
        let b = base(&mut g, "EDGE");
        let rec = g.add_box("REACH", BoxKind::Select);
        g.add_quant(rec, b, QuantKind::Foreach, "e");
        g.add_quant(rec, rec, QuantKind::Foreach, "r");
        let top = g.top();
        g.add_quant(top, rec, QuantKind::Foreach, "reach");
        let strata = assign(&mut g);
        assert!(is_recursive(&g));
        assert_eq!(strata[&rec], 1);
        assert_eq!(strata[&top], 2);
    }

    #[test]
    fn mutual_recursion_shares_stratum() {
        let mut g = Qgm::new();
        let b = base(&mut g, "T");
        let x = g.add_box("X", BoxKind::Select);
        let y = g.add_box("Y", BoxKind::Select);
        g.add_quant(x, y, QuantKind::Foreach, "y");
        g.add_quant(x, b, QuantKind::Foreach, "t");
        g.add_quant(y, x, QuantKind::Foreach, "x");
        let top = g.top();
        g.add_quant(top, x, QuantKind::Foreach, "x");
        let strata = assign(&mut g);
        assert_eq!(strata[&x], strata[&y]);
        assert!(is_recursive(&g));
    }

    #[test]
    fn base_tables_are_stratum_zero() {
        let mut g = Qgm::new();
        let b = base(&mut g, "T");
        let top = g.top();
        g.add_quant(top, b, QuantKind::Foreach, "t");
        let strata = assign(&mut g);
        assert_eq!(strata[&b], 0);
        assert_eq!(strata[&top], 1);
        assert_eq!(g.boxed(b).stratum, 0);
    }
}

#[cfg(test)]
mod nesting_tests {
    use super::*;
    use crate::boxes::{BoxKind, QuantKind};

    #[test]
    fn subquery_quantifiers_count_as_dependencies() {
        // A box's stratum is above its subquery inputs too.
        let mut g = Qgm::new();
        let b = g.add_box("T", BoxKind::BaseTable { table: "t".into() });
        let sub = g.add_box("SUB", BoxKind::Select);
        g.add_quant(sub, b, QuantKind::Foreach, "t");
        let top = g.top();
        g.add_quant(top, b, QuantKind::Foreach, "t2");
        g.add_quant(top, sub, QuantKind::Existential { negated: false }, "e");
        let strata = assign(&mut g);
        assert!(strata[&top] > strata[&sub]);
        assert_eq!(strata[&b], 0);
    }

    #[test]
    fn five_level_chain() {
        let mut g = Qgm::new();
        let mut prev = g.add_box("T", BoxKind::BaseTable { table: "t".into() });
        for i in 0..5 {
            let v = g.add_box(format!("V{i}"), BoxKind::Select);
            g.add_quant(v, prev, QuantKind::Foreach, "p");
            prev = v;
        }
        let top = g.top();
        g.add_quant(top, prev, QuantKind::Foreach, "v");
        let strata = assign(&mut g);
        assert_eq!(strata[&top], 6);
    }

    #[test]
    fn is_recursive_false_on_dag() {
        let mut g = Qgm::new();
        let b = g.add_box("T", BoxKind::BaseTable { table: "t".into() });
        let top = g.top();
        g.add_quant(top, b, QuantKind::Foreach, "a");
        g.add_quant(top, b, QuantKind::Foreach, "b"); // diamond, not a cycle
        assert!(!is_recursive(&g));
    }
}
