//! The benchmark's names — workloads, end-to-end metrics with their
//! regression bounds, per-layer metrics — read from `BENCHMARK.json` at
//! the repository root, the one table the driver and the harness share.

use std::sync::OnceLock;

use starmagic::trace::json::{self, Value};

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// One workload and why it is in the set.
pub struct WorkloadSpec {
    pub name: String,
    pub why: String,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    /// How much worse `new` is than `old`, as a share of `old`
    /// (negative when it got better).
    pub fn worsening(self, old: f64, new: f64) -> f64 {
        match self {
            Better::Lower => (new - old) / old,
            Better::Higher => (old - new) / old,
        }
    }
}

pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    pub better: Better,
    /// End-to-end only: the share of the parent's median by which the
    /// metric may worsen. Zero for a per-layer metric.
    pub bound: f64,
}

pub struct Spec {
    /// How long one run measures, in seconds.
    pub run_seconds: u32,
    pub workloads: Vec<WorkloadSpec>,
    /// Every workload reports every one of these (the driver requires
    /// it), so the names are roles; `README.md` says what fills each
    /// role on each workload.
    pub end_to_end: Vec<MetricSpec>,
    /// The traced run's metrics, prefix = crate.
    pub per_layer: Vec<MetricSpec>,
}

fn parse_spec(text: &str) -> Result<Spec, String> {
    let doc = json::parse(text)?;
    let list = |key: &str| {
        doc.get(key)
            .and_then(Value::as_arr)
            .ok_or_else(|| format!("no {key} list"))
    };
    let text_of = |entry: &Value, key: &str| {
        entry
            .get(key)
            .and_then(Value::as_str)
            .map(str::to_string)
            .ok_or_else(|| format!("an entry has no {key}"))
    };
    let metrics = |key: &str, bounded: bool| -> Result<Vec<MetricSpec>, String> {
        list(key)?
            .iter()
            .map(|m| {
                let name = text_of(m, "name")?;
                let better = match text_of(m, "better")?.as_str() {
                    "lower" => Better::Lower,
                    "higher" => Better::Higher,
                    other => return Err(format!("{name}: better is {other:?}")),
                };
                let bound = match m.get("bound").and_then(Value::as_f64) {
                    Some(b) if bounded => b,
                    None if !bounded => 0.0,
                    _ => return Err(format!("{name}: bound present or absent wrongly")),
                };
                Ok(MetricSpec {
                    unit: text_of(m, "unit")?,
                    name,
                    better,
                    bound,
                })
            })
            .collect()
    };
    Ok(Spec {
        run_seconds: doc
            .get("run_seconds")
            .and_then(Value::as_f64)
            .map(|s| s as u32)
            .ok_or("no run_seconds")?,
        workloads: list("workloads")?
            .iter()
            .map(|w| {
                Ok(WorkloadSpec {
                    name: text_of(w, "name")?,
                    why: text_of(w, "why")?,
                })
            })
            .collect::<Result<_, String>>()?,
        end_to_end: metrics("end_to_end", true)?,
        per_layer: metrics("per_layer", false)?,
    })
}

/// The table in `BENCHMARK.json`. The file is compiled in, so a
/// malformed one is a bug of this package, not an input error.
pub fn spec() -> &'static Spec {
    static SPEC: OnceLock<Spec> = OnceLock::new();
    SPEC.get_or_init(|| parse_spec(BENCHMARK_JSON).expect("BENCHMARK.json is well-formed"))
}

/// Per-layer counts that depend only on the code and the generated
/// inputs, never on timing: `--check` asserts they repeat exactly.
pub const EXACT_COUNTS: [&str; 24] = [
    "sql.corpus_bytes",
    "qgm.boxes_initial",
    "rewrite.phase1_fires",
    "rewrite.phase3_fires",
    "rewrite.noop_offers",
    "rewrite.fire_ratio",
    "rewrite.boxes_after_phase1",
    "rewrite.boxes_after_phase3",
    "core.emst_fires",
    "core.boxes_after_phase2",
    "core.magic_work_pct",
    "core.recursion_magic_work_pct",
    "planner.magic_chosen",
    "planner.choice_regret_work_pct",
    "engine.cache_invalidations",
    "exec.work_rows",
    "exec.rows_scanned",
    "exec.rows_produced",
    "exec.box_evals",
    "exec.batch_batches",
    "exec.batch_gather_rows",
    "exec.fixpoint_rounds",
    "exec.fixpoint_delta_rows",
    "catalog.rows_total",
];

/// One measured value, as printed and as written to the result line.
#[derive(Debug, Clone, PartialEq)]
pub struct Measured {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Pair `values` with `specs` by name, in the table's order. Errors on
/// a missing or an unknown name so a metric cannot silently go absent.
pub fn assemble(
    specs: &'static [MetricSpec],
    values: &[(&str, f64)],
) -> Result<Vec<Measured>, String> {
    for (name, _) in values {
        if !specs.iter().any(|s| s.name == *name) {
            return Err(format!("metric {name} is not in BENCHMARK.json"));
        }
    }
    specs
        .iter()
        .map(|s| {
            let hits: Vec<f64> = values
                .iter()
                .filter(|(n, _)| *n == s.name)
                .map(|(_, v)| *v)
                .collect();
            match hits[..] {
                [v] if v.is_finite() => Ok(Measured {
                    name: &s.name,
                    value: v,
                    unit: &s.unit,
                }),
                [v] => Err(format!("metric {} is not a finite number: {v}", s.name)),
                [] => Err(format!("metric {} was not measured", s.name)),
                _ => Err(format!("metric {} was measured twice", s.name)),
            }
        })
        .collect()
}
