//! `BENCHMARK.json` at the repository root is what the driver reads and
//! what the harness reports from; it must stay inside the driver's
//! limits.

use starmagic::trace::json::{self, Value};
use starmagic_benchmark::spec::{spec, Better, EXACT_COUNTS};

#[test]
fn benchmark_json_keeps_the_drivers_limits() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    assert!(text.len() < 64 * 1024);
    let doc = json::parse(&text).expect("valid JSON");
    let Value::Obj(members) = &doc else {
        panic!("not an object")
    };
    let mut keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
    keys.sort_unstable();
    assert_eq!(
        keys,
        [
            "command",
            "end_to_end",
            "paths",
            "per_layer",
            "run_seconds",
            "workloads"
        ]
    );
    let command = doc.get("command").and_then(Value::as_arr).expect("command");
    assert!(command.len() <= 32);
    assert!(command.iter().all(|c| c
        .as_str()
        .is_some_and(|c| c.len() <= 200 && !c.starts_with('/'))));

    let spec = spec();
    assert!((1..=60).contains(&spec.run_seconds));
    assert!((2..=8).contains(&spec.workloads.len()));
    assert!((1..=16).contains(&spec.end_to_end.len()));
    assert!((1..=128).contains(&spec.per_layer.len()));
    let name_ok = |n: &str| {
        n.len() <= 64
            && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    };
    let unit_ok = |u: &str| {
        (1..=16).contains(&u.len())
            && u.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    };
    let metrics = || spec.end_to_end.iter().chain(&spec.per_layer);
    let mut names: Vec<&str> = spec.workloads.iter().map(|w| w.name.as_str()).collect();
    names.extend(metrics().map(|m| m.name.as_str()));
    for n in &names {
        assert!(name_ok(n), "bad name {n}");
    }
    let mut unique = names.clone();
    unique.sort_unstable();
    unique.dedup();
    assert_eq!(unique.len(), names.len(), "a name is used twice");
    for m in metrics() {
        assert!(unit_ok(&m.unit), "bad unit {}", m.unit);
    }
    for w in &spec.workloads {
        assert!(
            w.why.len() <= 200 && !w.why.contains('\n'),
            "why of {} too long",
            w.name
        );
    }
    for m in &spec.end_to_end {
        assert!(m.bound > 0.0 && m.bound <= 0.25, "bound of {}", m.name);
    }
    let setup = spec
        .end_to_end
        .iter()
        .find(|m| m.name == "setup_s")
        .expect("setup_s");
    assert_eq!((setup.unit.as_str(), setup.better), ("s", Better::Lower));
    assert!(
        spec.end_to_end.iter().all(|m| m.bound <= setup.bound),
        "setup_s has the largest bound"
    );
    for c in EXACT_COUNTS {
        assert!(
            spec.per_layer.iter().any(|m| m.name == c),
            "{c} is not a per-layer metric"
        );
    }
}
