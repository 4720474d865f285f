//! `--repeat N`: the repeatability report.
//!
//! Runs the end-to-end set N times per workload — each run a process of
//! its own with a seed of its own — and prints, per (workload, metric),
//! the median, the quartiles as Python's `statistics.quantiles(n=4)`
//! gives them, and the spread (interquartile range over median) against
//! the metric's bound, then every value in run order. With `--sets S`
//! it does that S times and also prints how far each later set's median
//! is from the first set's: the two things the acceptance rule looks at.

use std::process::Command;

use starmagic::trace::json;

use crate::spec::spec;
use crate::stats::{quartiles, spread};
use crate::{host_cpus, Res};

/// One child run's end-to-end values, in the table's order.
fn child_run(workload: &str, seed: u64, seconds: f64) -> Res<Vec<f64>> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string(), "--trace", "0"])
        .output()
        .map_err(|e| format!("spawn: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    if !out.status.success() {
        return Err(format!(
            "{workload} seed {seed} exited with {}: {last}\n{}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    let doc = json::parse(last).map_err(|e| format!("{workload} seed {seed}: {e}: {last}"))?;
    spec()
        .end_to_end
        .iter()
        .map(|m| {
            doc.get("metrics")
                .and_then(|ms| ms.get(&m.name))
                .and_then(|v| v.get("value"))
                .and_then(json::Value::as_f64)
                .ok_or_else(|| format!("{workload} seed {seed}: no {} in {last}", m.name))
        })
        .collect()
}

fn tool_version(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_string(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        )
}

/// Run `sets` sets of `n` runs and print the report. `Ok(false)` when a
/// spread or a between-set drift exceeds its bound.
pub fn repeat(n: usize, sets: usize, base_seed: u64, seconds: f64) -> Res<bool> {
    println!("# repeatability report: {sets} set(s) of {n} run(s), {seconds} s each");
    println!("# commit {}", tool_version("git", &["rev-parse", "HEAD"]));
    println!("# {}", tool_version("rustc", &["-V"]));
    println!("# host_cpus {}", host_cpus());
    let mut within = true;
    // medians[set][workload][metric]
    let mut medians: Vec<Vec<Vec<f64>>> = Vec::new();
    for set in 0..sets {
        let seeds: Vec<u64> = (0..n).map(|i| base_seed + (set * n + i) as u64).collect();
        println!("\n## set {} — seeds {seeds:?}", set + 1);
        println!(
            "{:<20} {:<16} {:>3} {:>12} {:>12} {:>12} {:>8} {:>6}",
            "workload", "metric", "n", "median", "q1", "q3", "spread", "bound"
        );
        let mut set_medians = Vec::new();
        let mut in_run_order = Vec::new();
        for w in &spec().workloads {
            let mut runs = Vec::new();
            for seed in &seeds {
                runs.push(child_run(&w.name, *seed, seconds)?);
            }
            let mut workload_medians = Vec::new();
            for (i, m) in spec().end_to_end.iter().enumerate() {
                let values: Vec<f64> = runs.iter().map(|r| r[i]).collect();
                let listed: Vec<String> = values.iter().map(|v| format!("{v:.5}")).collect();
                in_run_order.push(format!(
                    "{:<20} {:<16} {}",
                    w.name,
                    m.name,
                    listed.join(" ")
                ));
                let [q1, q2, q3] = quartiles(&values).unwrap_or([values[0]; 3]);
                let spread = spread(&values).unwrap_or(0.0);
                // set-up time is held to its bound between sets only.
                let wide = spread > m.bound && m.name != "setup_s";
                within &= !wide;
                println!(
                    "{:<20} {:<16} {:>3} {:>12.4} {:>12.4} {:>12.4} {:>7.2}% {:>5.0}%{}",
                    w.name,
                    m.name,
                    values.len(),
                    q2,
                    q1,
                    q3,
                    100.0 * spread,
                    100.0 * m.bound,
                    if wide { "  SPREAD > BOUND" } else { "" }
                );
                workload_medians.push(q2);
            }
            set_medians.push(workload_medians);
        }
        // The host's speed shifts by minutes, not by runs: the order shows it.
        println!("\n### set {} — the values in run order", set + 1);
        for line in in_run_order {
            println!("{line}");
        }
        medians.push(set_medians);
    }
    for set in 1..sets {
        println!(
            "\n## set {} against set 1: how much worse each median is",
            set + 1
        );
        for (w, workload) in spec().workloads.iter().enumerate() {
            for (i, m) in spec().end_to_end.iter().enumerate() {
                let worse = m.better.worsening(medians[0][w][i], medians[set][w][i]);
                let over = worse > m.bound;
                within &= !over;
                println!(
                    "{:<20} {:<16} {:>+7.2}% of {:>3.0}%{}",
                    workload.name,
                    m.name,
                    100.0 * worse,
                    100.0 * m.bound,
                    if over { "  DRIFT > BOUND" } else { "" }
                );
            }
        }
    }
    Ok(within)
}
