//! Every workload, untraced and traced, on a trimmed program list: each
//! must pass its own output gate and report exactly the metrics
//! `BENCHMARK.json` lists.

use perfbench::{run, Args, Workload};

/// The `name`s listed in `section` of `BENCHMARK.json`.
fn listed(section: &str) -> Vec<String> {
    let text = std::fs::read_to_string("../BENCHMARK.json").expect("BENCHMARK.json at the root");
    let start = text
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("no {section} in BENCHMARK.json"));
    let body = &text[start..];
    let end = body.find(']').expect("the section is a list");
    body[..end]
        .split("\"name\":")
        .skip(1)
        .map(|rest| rest.split('"').nth(1).expect("a quoted name").to_string())
        .collect()
}

fn smoke(workload: Workload, trace: bool) {
    let args = Args {
        workload,
        seed: 1,
        seconds: 1,
        trace,
        smoke: true,
        record: false,
    };
    let outcome = run(&args).expect("set-up succeeds");
    assert!(outcome.correct, "{workload:?}: {:?}", outcome.first_failure);
    assert_eq!(outcome.failed, 0);
    assert!(outcome.attempted > 0);
    let names: Vec<String> = outcome.metrics.iter().map(|m| m.name.to_string()).collect();
    let section = if trace { "per_layer" } else { "end_to_end" };
    assert_eq!(names, listed(section), "{workload:?} trace={trace}");
    assert!(outcome.metrics.iter().all(|m| m.value.is_finite()));
    let last = outcome.result_json();
    assert!(
        last.starts_with("{\"correct\": true, \"attempted\": "),
        "{last}"
    );
}

#[test]
fn profile_stall_smoke() {
    smoke(Workload::ProfileStall, false);
    smoke(Workload::ProfileStall, true);
}

#[test]
fn profile_dispatch_smoke() {
    smoke(Workload::ProfileDispatch, false);
    smoke(Workload::ProfileDispatch, true);
}

#[test]
fn offline_fleet_smoke() {
    smoke(Workload::OfflineFleet, false);
    smoke(Workload::OfflineFleet, true);
}
