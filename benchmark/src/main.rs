//! Command line of the repo benchmark. See `README.md`.

use std::process::{Command, ExitCode};

use starmagic_benchmark::spec::spec;
use starmagic_benchmark::{
    check, host_cpus, repeat, run, trace_path, Res, RunConfig, RunReport, BASELINE_SEED,
};

const USAGE: &str =
    "usage: starmagic-benchmark [--workload <name>] [--seed <n>] [--seconds <s>] [--trace <0|1>]
       starmagic-benchmark --check
       starmagic-benchmark --repeat <n> [--sets <s>] [--seed <n>] [--seconds <s>]
Run from the repository root. With no --workload, every workload runs in a
process of its own, untraced and then traced.";

/// Where the no-argument run's traced processes share the per-layer
/// battery's values, relative to the repository root.
const BATTERY_CACHE: &str = "benchmark/out/battery.json";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    check: bool,
    repeat: Option<usize>,
    sets: usize,
    /// Set by the no-argument run on the processes it starts.
    share_battery: bool,
}

fn parse_args() -> Res<Args> {
    let mut args = Args {
        workload: None,
        seed: BASELINE_SEED,
        seconds: f64::from(spec().run_seconds),
        trace: false,
        check: false,
        repeat: None,
        sets: 1,
        share_battery: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or_else(|| format!("{flag} needs {what}"));
        fn number<T: std::str::FromStr>(flag: &str, v: &str) -> Res<T> {
            v.parse()
                .map_err(|_| format!("{flag}: {v:?} is not a number"))
        }
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?),
            "--seed" => args.seed = number(&flag, &value("a number")?)?,
            "--seconds" => args.seconds = number(&flag, &value("a number")?)?,
            "--trace" => args.trace = number::<u8>(&flag, &value("0 or 1")?)? != 0,
            "--repeat" => args.repeat = Some(number(&flag, &value("a count")?)?),
            "--sets" => args.sets = number(&flag, &value("a count")?)?,
            "--check" => args.check = true,
            "--share-battery" => args.share_battery = true,
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
    }
    if !(args.seconds > 0.0 && args.seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".to_string());
    }
    Ok(args)
}

fn print_report(report: &RunReport, trace: bool) {
    println!(
        "workload {} ({}): {} operations attempted, {} failed, failed_share {}",
        report.workload,
        if trace {
            "traced run, per-layer metrics"
        } else {
            "untraced run, end-to-end metrics"
        },
        report.attempted,
        report.failed,
        report.failed as f64 / report.attempted.max(1) as f64
    );
    println!(
        "  host_cpus = {}, input stream {:016x}",
        host_cpus(),
        report.stream_hash
    );
    for m in &report.metrics {
        println!("  {} = {} {}", m.name, m.value, m.unit);
    }
    for note in &report.notes {
        println!("{note}");
    }
}

/// One workload, in this process.
fn single(args: &Args, workload: &str) -> Res<bool> {
    let trace_path = args.trace.then(|| trace_path(workload));
    let report = run(&RunConfig {
        workload: workload.to_string(),
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        small: false,
        trace_path: trace_path.clone(),
        battery_cache: args.share_battery.then(|| BATTERY_CACHE.into()),
    })?;
    print_report(&report, args.trace);
    if let Some(path) = trace_path {
        println!("  spans written to {}", path.display());
    }
    println!("{}", report.result_line());
    Ok(report.correct)
}

/// Every workload, each in a process of its own so that its peak memory
/// is its own: the end-to-end run first, then the traced one. The
/// per-layer battery does not depend on the workload, so the first
/// traced process measures it and the others read its values.
fn all(args: &Args) -> Res<bool> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    match std::fs::remove_file(BATTERY_CACHE) {
        Err(e) if e.kind() != std::io::ErrorKind::NotFound => {
            return Err(format!("{BATTERY_CACHE}: {e}"))
        }
        _ => {}
    }
    let spec = spec();
    let mut ok = true;
    for trace in ["0", "1"] {
        for w in &spec.workloads {
            let status = Command::new(&exe)
                .args(["--workload", &w.name, "--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string(), "--trace", trace])
                .args((trace == "1").then_some("--share-battery"))
                .status()
                .map_err(|e| format!("spawn: {e}"))?;
            ok &= status.success();
        }
    }
    println!(
        "{} workloads, {} end-to-end and {} per-layer metrics: {}",
        spec.workloads.len(),
        spec.end_to_end.len(),
        spec.per_layer.len(),
        if ok { "all correct" } else { "FAILURES above" }
    );
    Ok(ok)
}

fn dispatch() -> Res<bool> {
    let args = parse_args()?;
    if args.check {
        for line in check::check()? {
            println!("{line}");
        }
        Ok(true)
    } else if let Some(n) = args.repeat {
        repeat::repeat(n.max(1), args.sets.max(1), args.seed, args.seconds)
    } else if let Some(workload) = &args.workload {
        single(&args, workload)
    } else {
        all(&args)
    }
}

fn main() -> ExitCode {
    match dispatch() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}
