//! `recursion_fixpoint`: bound transitive closure on four graph shapes.
//!
//! A long chain (deep fixpoint, tiny deltas), a binary tree (shallow,
//! fanning deltas), four rings (cycles: dedup terminates the fixpoint)
//! and a layered DAG (many paths to the same pair). Each closure runs
//! with its source bound under Original (the fixpoint computes the
//! whole closure, the bound filters afterwards), Magic (the seed
//! restricts the fixpoint) and CostBased, and with its destination
//! bound under Magic, where the magic set itself has to be grown by a
//! fixpoint. Per-round semi-naive cost dominates set-up at these
//! sizes. The seed relabels the DAG's nodes and picks visit orders; the
//! shapes themselves are fixed so every seed does the same work.
//! Closures are checked against a breadth-first search written here.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::time::Duration;

use starmagic::{Engine, Strategy};
use starmagic_bench::recursion::RECURSION_SQL;
use starmagic_catalog::{Catalog, ColumnDef, Table, TableSchema};
use starmagic_common::{DataType, Row, Value};

use super::{order_hash, Class, Lane, LoopResult, PreparedSuite, Verdict, Workload};
use crate::rng::{fnv1a, SplitMix64, FNV_OFFSET};
use crate::spans::Tracer;
use crate::{Res, RunConfig};

pub struct Graph {
    pub name: &'static str,
    pub edges: Vec<(i64, i64)>,
    /// The source node the outer block binds.
    pub bound: i64,
    /// The destination it binds in the destination-bound closure: the
    /// middle one, in construction order, of the nodes `bound` reaches
    /// (half-way down the graph, so about half of them reach it).
    pub bound_dst: i64,
}

/// Graph sizes: `(chain edges, tree nodes, ring length, dag layers, dag width)`.
fn sizes(small: bool) -> (i64, i64, i64, i64, i64) {
    if small {
        (60, 255, 16, 6, 8)
    } else {
        (400, 8_191, 128, 16, 32)
    }
}

/// The DAG's edge structure comes from this constant, not from the run's
/// seed: a different structure has a different closure, and the time of
/// one run could not be compared with the next.
const DAG_STRUCTURE_SEED: u64 = 0x5EED_DA65;

pub fn graphs(seed: u64, small: bool) -> Vec<Graph> {
    let (chain_len, tree_nodes, ring_len, layers, width) = sizes(small);
    let chain = (0..chain_len).map(|i| (i, i + 1)).collect();
    let mut tree = Vec::new();
    for i in 0..tree_nodes {
        for child in [2 * i + 1, 2 * i + 2] {
            if child < tree_nodes {
                tree.push((i, child));
            }
        }
    }
    let mut rings = Vec::new();
    for ring in 0..4 {
        let base = ring * 1000;
        for i in 0..ring_len {
            rings.push((base + i, base + (i + 1) % ring_len));
        }
    }
    // Layered DAG, out-degree 2; node `layer * width + i`.
    let mut structure = SplitMix64::new(DAG_STRUCTURE_SEED);
    let mut dag = Vec::new();
    for layer in 0..layers - 1 {
        for node in 0..width {
            let a = structure.below(width as u64) as i64;
            let mut b = structure.below(width as u64) as i64;
            if b == a {
                b = (b + 1) % width;
            }
            dag.push((layer * width + node, (layer + 1) * width + a));
            dag.push((layer * width + node, (layer + 1) * width + b));
        }
    }
    // The seed relabels the DAG's nodes. Bounds are chosen before that,
    // by structure, so the work is the same under every labelling.
    let mut labels: Vec<i64> = (0..layers * width).collect();
    SplitMix64::stream(seed, 2).shuffle(&mut labels);
    let graph = |name, edges: Vec<(i64, i64)>, bound: i64, label: &dyn Fn(i64) -> i64| {
        let reached = reachable(&edges, bound, Bind::Source);
        let middle = reached.iter().nth(reached.len() / 2).copied();
        Graph {
            name,
            edges: edges.iter().map(|&(s, d)| (label(s), label(d))).collect(),
            bound: label(bound),
            bound_dst: label(middle.unwrap_or(bound)),
        }
    };
    let same = |n: i64| n;
    vec![
        graph("chain", chain, 0, &same),
        graph("tree", tree, 1, &same),
        graph("rings", rings, 0, &same),
        graph("dag", dag, 0, &|n| labels[n as usize]),
    ]
}

/// One engine hosting every graph as its own `edge_<name>` table.
pub fn engine_for(graphs: &[Graph]) -> Res<Engine> {
    let mut catalog = Catalog::new();
    for g in graphs {
        let schema = TableSchema::new(
            format!("edge_{}", g.name),
            vec![
                ColumnDef::new("src", DataType::Int),
                ColumnDef::new("dst", DataType::Int),
            ],
        )
        .with_key(&["src", "dst"])
        .map_err(|e| e.to_string())?;
        let rows = g
            .edges
            .iter()
            .map(|&(s, d)| Row::new(vec![Value::Int(s), Value::Int(d)]))
            .collect();
        let table = Table::with_rows(schema, rows).map_err(|e| e.to_string())?;
        catalog.add_table(table).map_err(|e| e.to_string())?;
    }
    Ok(Engine::new(catalog))
}

/// Which end of the closure the outer block binds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bind {
    Source,
    Destination,
}

/// The bench crate's closure query over this graph's table (it binds
/// the source; the destination-bound form swaps the column).
pub fn closure_sql(g: &Graph, bind: Bind) -> String {
    let sql = RECURSION_SQL.replace("edge", &format!("edge_{}", g.name));
    match bind {
        Bind::Source => format!("{sql}{}", g.bound),
        Bind::Destination => format!(
            "{}dst = {}",
            sql.strip_suffix("src = ")
                .expect("RECURSION_SQL ends in its bound column"),
            g.bound_dst
        ),
    }
}

/// Breadth-first search, the reference the engine's closures are
/// checked against: the nodes `node` reaches over one edge or more
/// (`Bind::Source`), or the nodes that reach it (`Bind::Destination`).
pub fn reachable(edges: &[(i64, i64)], node: i64, bind: Bind) -> BTreeSet<i64> {
    let mut next: BTreeMap<i64, Vec<i64>> = BTreeMap::new();
    for &(s, d) in edges {
        let (from, to) = if bind == Bind::Source { (s, d) } else { (d, s) };
        next.entry(from).or_default().push(to);
    }
    let mut seen = BTreeSet::new();
    let mut queue = VecDeque::from([node]);
    while let Some(n) = queue.pop_front() {
        for &d in next.get(&n).map_or(&[][..], Vec::as_slice) {
            if seen.insert(d) {
                queue.push_back(d);
            }
        }
    }
    seen
}

/// The closures of one graph: name, lane, strategy, bound end, visits
/// per cycle.
pub const CLOSURES: [(&str, Lane, Strategy, Bind, u32); 4] = [
    (
        "costbased",
        Lane::Suite,
        Strategy::CostBased,
        Bind::Source,
        4,
    ),
    ("magic", Lane::Fast, Strategy::Magic, Bind::Source, 4),
    // The naive closure takes 50-100 times longer: one visit per cycle.
    ("naive", Lane::Slow, Strategy::Original, Bind::Source, 1),
    (
        "magic_dst",
        Lane::Side,
        Strategy::Magic,
        Bind::Destination,
        1,
    ),
];

pub struct Recursion {
    suite: PreparedSuite,
    graphs: Vec<Graph>,
}

impl Workload for Recursion {
    const SETUPS: usize = 5;

    fn setup(cfg: &RunConfig) -> Res<Recursion> {
        let graphs = graphs(cfg.seed, cfg.small);
        let engine = engine_for(&graphs)?;
        let (mut classes, mut plans) = (Vec::new(), Vec::new());
        for g in &graphs {
            for (name, lane, strategy, bind, per_cycle) in CLOSURES {
                let plan = engine
                    .prepare(&closure_sql(g, bind), strategy)
                    .map_err(|e| format!("prepare {}/{name}: {e}", g.name))?;
                classes.push(Class {
                    name: format!("{}/{name}", g.name),
                    lane,
                    per_cycle,
                });
                plans.push(plan);
            }
        }
        Ok(Recursion {
            suite: PreparedSuite::warm_up(engine, classes, plans, cfg.seed)?,
            graphs,
        })
    }

    fn stream_hash(&self) -> u64 {
        let mut h = order_hash(&self.suite.classes, &self.suite.rng);
        for g in &self.graphs {
            for bind in [Bind::Source, Bind::Destination] {
                h = fnv1a(h, closure_sql(g, bind).as_bytes());
            }
            for (s, d) in &g.edges {
                h = fnv1a(fnv1a(h, &s.to_le_bytes()), &d.to_le_bytes());
            }
        }
        fnv1a(FNV_OFFSET, &h.to_le_bytes())
    }

    fn first_use_ms(&self) -> &[f64] {
        &self.suite.first_use_ms
    }

    fn measure(&mut self, budget: Duration, tracer: &mut Tracer) -> Res<LoopResult> {
        self.suite.measure(budget, tracer)
    }

    fn verify(&mut self) -> Res<Verdict> {
        let mut v = Verdict::default();
        for (g, graph) in self.graphs.iter().enumerate() {
            for (c, (closure, _, _, bind, _)) in CLOSURES.iter().enumerate() {
                let want: BTreeSet<(i64, i64)> = match bind {
                    Bind::Source => reachable(&graph.edges, graph.bound, *bind)
                        .into_iter()
                        .map(|d| (graph.bound, d))
                        .collect(),
                    Bind::Destination => reachable(&graph.edges, graph.bound_dst, *bind)
                        .into_iter()
                        .map(|s| (s, graph.bound_dst))
                        .collect(),
                };
                let rows = &self.suite.warm[CLOSURES.len() * g + c];
                let got: BTreeSet<(i64, i64)> = rows
                    .iter()
                    .filter_map(|r| match (r.get(0), r.get(1)) {
                        (Value::Int(s), Value::Int(d)) => Some((*s, *d)),
                        _ => None,
                    })
                    .collect();
                // UNION recursion returns a set: as many rows as pairs.
                v.check(got == want && rows.len() == want.len(), || {
                    format!(
                        "{}/{closure}: closure has {} rows ({} distinct pairs), BFS finds {}",
                        graph.name,
                        rows.len(),
                        got.len(),
                        want.len()
                    )
                });
            }
        }
        self.suite.check_cache_untouched(&mut v);
        Ok(v)
    }
}
