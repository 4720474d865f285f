//! The repo benchmark.
//!
//! Five workloads, each run in a process of its own; eight end-to-end
//! metrics from an untraced run; and a traced run that wraps the same
//! calls in spans and measures every layer from outside, through the
//! crates' public functions. See `README.md` for the catalogue.

#![forbid(unsafe_code)]

pub mod check;
pub mod expected;
pub mod layers;
pub mod repeat;
pub mod rng;
pub mod spans;
pub mod spec;
pub mod staged;
pub mod stats;
pub mod workloads;

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use spans::Tracer;
use spec::Measured;
use starmagic::trace::json;
use workloads::{LoopResult, Verdict, Workload};

/// Errors are messages: the harness only ever prints them and exits.
pub type Res<T> = Result<T, String>;

/// The seed the committed baseline was measured with.
pub const BASELINE_SEED: u64 = 1994;

#[derive(Debug, Clone)]
pub struct RunConfig {
    pub workload: String,
    pub seed: u64,
    /// How long the closed loop measures.
    pub seconds: f64,
    pub trace: bool,
    /// `Scale::small()` data and reduced sizes (the `--check` mode).
    pub small: bool,
    /// Where a traced run writes its spans; `None` keeps them in memory
    /// only.
    pub trace_path: Option<PathBuf>,
    /// A file the traced run shares the per-layer battery's values
    /// through: read if it exists, else written. The no-argument run
    /// passes one so that its five traced runs execute the battery
    /// once; a run on its own (the driver's) has `None` and measures.
    pub battery_cache: Option<PathBuf>,
}

/// Everything one run of one workload produced.
#[derive(Debug, Clone)]
pub struct RunReport {
    pub workload: String,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// The end-to-end metrics (untraced run) or the per-layer metrics
    /// (traced run), in the order of `spec`'s tables.
    pub metrics: Vec<Measured>,
    pub stream_hash: u64,
    /// Lines for the human reader: detail values, problems found.
    pub notes: Vec<String>,
}

impl RunReport {
    /// The result line the driver reads.
    pub fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let value = json::Value::Num(m.value);
                format!(
                    "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Run the workload `cfg` names.
pub fn run(cfg: &RunConfig) -> Res<RunReport> {
    match cfg.workload.as_str() {
        "table1_exec" => run_workload::<workloads::table1::Table1>(cfg),
        "recursion_fixpoint" => run_workload::<workloads::recursion::Recursion>(cfg),
        "plan_cold" => run_workload::<workloads::plan_cold::PlanCold>(cfg),
        "wire_point" => run_workload::<workloads::wire::WirePoint>(cfg),
        "wire_ddl_churn" => run_workload::<workloads::wire::WireDdlChurn>(cfg),
        other => Err(format!(
            "unknown workload {other:?}; the workloads are {}",
            spec::spec()
                .workloads
                .iter()
                .map(|w| w.name.as_str())
                .collect::<Vec<_>>()
                .join(", ")
        )),
    }
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> Res<f64> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// One timed set-up: how long it took, and what the first use after it
/// cost where the workload measures that.
fn set_up<W: Workload>(cfg: &RunConfig, times: &mut Vec<f64>, first_use: &mut Vec<f64>) -> Res<W> {
    let start = Instant::now();
    let w = W::setup(cfg)?;
    times.push(start.elapsed().as_secs_f64());
    first_use.extend_from_slice(w.first_use_ms());
    Ok(w)
}

/// The per-layer battery's values: measured, or shared through
/// `cfg.battery_cache`.
fn battery_values(cfg: &RunConfig, tracer: &mut Tracer) -> Res<Vec<(&'static str, f64)>> {
    let per_layer = &spec::spec().per_layer;
    let cache = cfg.battery_cache.as_deref().filter(|p| p.exists());
    if let Some(path) = cache {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let doc = json::parse(&text)?;
        return Ok(per_layer
            .iter()
            .filter_map(|m| Some((m.name.as_str(), doc.get(&m.name)?.as_f64()?)))
            .collect());
    }
    let values = layers::battery(cfg, tracer)?;
    if let Some(path) = &cfg.battery_cache {
        let members = values
            .iter()
            .map(|(name, v)| (name.to_string(), json::Value::Num(*v)))
            .collect();
        write_under_out(path, &format!("{}\n", json::Value::Obj(members)))?;
    }
    Ok(values)
}

fn run_workload<W: Workload>(cfg: &RunConfig) -> Res<RunReport> {
    let budget = Duration::from_secs_f64(cfg.seconds);
    let (mut setups, mut first_use) = (Vec::new(), Vec::new());
    let mut w: W = set_up(cfg, &mut setups, &mut first_use)?;
    let stream_hash = w.stream_hash();

    let mut notes = Vec::new();
    let mut describe = |label: &str, r: &LoopResult| {
        for (name, value, unit) in &r.detail {
            notes.push(format!("  {label}{name} = {value:.4} {unit}"));
        }
    };
    let (loops, mut values) = if cfg.trace {
        // Half the budget untraced, half traced: the same loop, so the
        // difference is what the spans cost.
        let plain = w.measure(budget / 2, &mut Tracer::off())?;
        let mut tracer = Tracer::new(true, Instant::now());
        let traced = w.measure(budget / 2, &mut tracer)?;
        describe("traced loop: ", &traced);
        let overhead = 100.0 * (traced.suite_ms - plain.suite_ms) / plain.suite_ms;
        let loop_spans = tracer.len();
        let mut values = battery_values(cfg, &mut tracer)?;
        values.extend([
            ("trace.harness_overhead_pct", overhead),
            ("trace.loop_ops", traced.ops as f64),
            ("trace.spans", loop_spans as f64),
        ]);
        write_trace(cfg, &tracer)?;
        (vec![plain, traced], values)
    } else {
        let r = w.measure(budget, &mut Tracer::off())?;
        describe("", &r);
        // The peak so far is one instance of the workload and its loop:
        // the checks below and the further set-ups are the harness's.
        let values = vec![("peak_rss_mb", peak_rss_mb()?)];
        (vec![r], values)
    };

    let Verdict {
        attempted,
        failed,
        problems,
    } = w.verify()?;
    w.teardown();
    notes.extend(problems.iter().map(|p| format!("  FAILED: {p}")));

    let spec = spec::spec();
    let metrics = if cfg.trace {
        spec::assemble(&spec.per_layer, &values)?
    } else {
        // `setup_s` is the median of `W::SETUPS` set-ups: the measured
        // instance's and those of further instances built and torn down
        // now, one at a time.
        while setups.len() < W::SETUPS {
            set_up::<W>(cfg, &mut setups, &mut first_use)?.teardown();
        }
        notes.insert(0, format!("  set-ups = {setups:?} s"));
        let r = &loops[0];
        values.extend([
            ("suite_ms", r.suite_ms),
            ("fast_path_ms", r.fast_path_ms),
            ("slow_path_ms", r.slow_path_ms),
            ("side_path_ms", r.side_path_ms),
            (
                "worst_case_ms",
                r.worst_case_ms
                    .unwrap_or_else(|| stats::lower_quartile(&first_use)),
            ),
            ("throughput_ops", r.throughput_ops),
            ("setup_s", stats::median(&setups)),
        ]);
        spec::assemble(&spec.end_to_end, &values)?
    };
    let attempted = attempted + loops.iter().map(|l| l.ops).sum::<u64>();
    let failed = failed + loops.iter().map(|l| l.failed).sum::<u64>();
    Ok(RunReport {
        workload: cfg.workload.clone(),
        correct: failed == 0,
        attempted,
        failed,
        metrics,
        stream_hash,
        notes,
    })
}

/// Where the command-line traced run of `workload` leaves its spans,
/// relative to the repository root.
pub fn trace_path(workload: &str) -> PathBuf {
    format!("benchmark/out/trace-{workload}.json").into()
}

fn write_under_out(path: &Path, text: &str) -> Res<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

fn write_trace(cfg: &RunConfig, tracer: &Tracer) -> Res<()> {
    let Some(path) = &cfg.trace_path else {
        return Ok(());
    };
    let header = [
        ("workload", format!("\"{}\"", cfg.workload)),
        ("seed", cfg.seed.to_string()),
        ("seconds", cfg.seconds.to_string()),
    ];
    write_under_out(path, &tracer.to_json(&header))
}

/// Number of CPUs the host offers this process.
pub fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
}
