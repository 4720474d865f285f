//! `--check`: the smoke mode, also run by `cargo test`.
//!
//! Every workload at `Scale::small()` with reduced sizes: an untraced
//! and two traced runs with one seed, and an untraced run with another.
//! It asserts that every run is correct (which includes each workload's
//! premise: `plan_cold` never touches the plan cache, `wire_point`'s
//! timed windows are all hits, ...), that the generated input stream is
//! the same for the same seed and different for another, that every
//! exact count repeats, and that every metric is present and usable.

use crate::spec::{spec, EXACT_COUNTS};
use crate::{run, Res, RunConfig, RunReport, BASELINE_SEED};

fn small_run(workload: &str, seed: u64, trace: bool) -> Res<RunReport> {
    let report = run(&RunConfig {
        workload: workload.to_string(),
        seed,
        seconds: 0.4,
        trace,
        small: true,
        trace_path: None,
        battery_cache: None,
    })?;
    if report.correct {
        Ok(report)
    } else {
        Err(format!(
            "{workload} (seed {seed}, trace {trace}): {} of {} operations failed\n{}",
            report.failed,
            report.attempted,
            report.notes.join("\n")
        ))
    }
}

/// Run the smoke checks; `Ok` carries the lines to print.
pub fn check() -> Res<Vec<String>> {
    let mut lines = Vec::new();
    for w in &spec().workloads {
        let plain = small_run(&w.name, BASELINE_SEED, false)?;
        let traced = [
            small_run(&w.name, BASELINE_SEED, true)?,
            small_run(&w.name, BASELINE_SEED, true)?,
        ];
        let other = small_run(&w.name, BASELINE_SEED + 1, false)?;

        if traced.iter().any(|t| t.stream_hash != plain.stream_hash) {
            return Err(format!(
                "{}: the same seed generated different inputs",
                w.name
            ));
        }
        if other.stream_hash == plain.stream_hash {
            return Err(format!(
                "{}: another seed generated the same inputs",
                w.name
            ));
        }
        for m in plain.metrics.iter().chain(&other.metrics) {
            if m.value.is_nan() || m.value <= 0.0 {
                return Err(format!(
                    "{}: end-to-end metric {} is {}",
                    w.name, m.name, m.value
                ));
            }
        }
        for name in EXACT_COUNTS {
            let value = |r: &RunReport| r.metrics.iter().find(|m| m.name == name).map(|m| m.value);
            let (a, b) = (value(&traced[0]), value(&traced[1]));
            if a.is_none() || a != b {
                return Err(format!(
                    "{}: exact count {name} did not repeat: {a:?} vs {b:?}",
                    w.name
                ));
            }
        }
        lines.push(format!(
            "check {}: ok ({} + {} + {} + {} operations, stream {:016x})",
            w.name,
            plain.attempted,
            traced[0].attempted,
            traced[1].attempted,
            other.attempted,
            plain.stream_hash
        ));
    }
    Ok(lines)
}
