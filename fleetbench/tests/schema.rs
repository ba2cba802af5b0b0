//! The benchmark's output schema and its determinism, at a small size.

use std::collections::BTreeSet;

use fleetbench::gen::{Size, Workload};
use fleetbench::report::{result_json, valid_name};
use fleetbench::{run, Outcome, END_TO_END};

fn small(workload: Workload, seed: u64, trace: bool) -> Outcome {
    let outcome = run(workload, seed, 0.0, trace, Size::small());
    assert!(
        outcome.correct && outcome.failed == 0,
        "{} seed {seed} trace {trace}: {:#?}",
        workload.name(),
        outcome.notes
    );
    outcome
}

/// Every `"name": "…"` value in `BENCHMARK.json`.
fn benchmark_json_names() -> BTreeSet<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    text.split("\"name\": \"")
        .skip(1)
        .map(|rest| rest.split('"').next().unwrap_or_default().to_string())
        .collect()
}

fn names(outcome: &Outcome) -> Vec<&'static str> {
    outcome.metrics.iter().map(|m| m.name).collect()
}

#[test]
fn every_metric_has_a_valid_name_a_unit_and_a_finite_value() {
    for workload in Workload::ALL {
        for trace in [false, true] {
            let outcome = small(workload, 1, trace);
            for m in &outcome.metrics {
                assert!(valid_name(m.name), "bad name {:?}", m.name);
                assert!(valid_name(m.unit), "{} has no valid unit", m.name);
                assert!(m.value.is_finite(), "{} = {}", m.name, m.value);
            }
            let line = result_json(
                outcome.correct,
                outcome.attempted,
                outcome.failed,
                &outcome.metrics,
            );
            assert!(line.starts_with("{\"correct\": true, \"attempted\": "));
            assert!(!line.contains('\n'));
        }
    }
}

#[test]
fn workloads_report_the_metrics_benchmark_json_lists() {
    let listed = benchmark_json_names();
    let untraced = names(&small(Workload::SimUncached, 1, false));
    let e2e: Vec<&str> = END_TO_END.iter().map(|(n, _)| *n).collect();
    assert_eq!(untraced, e2e);
    let traced = names(&small(Workload::SimUncached, 1, true));
    for workload in Workload::ALL {
        assert_eq!(
            names(&small(workload, 2, true)),
            traced,
            "{}",
            workload.name()
        );
    }
    // BENCHMARK.json lists a subset of the workloads (README: why
    // `sim_uncached` is not among them) and exactly the metrics.
    let (workloads, metrics): (BTreeSet<String>, BTreeSet<String>) = listed
        .into_iter()
        .partition(|n| Workload::from_name(n).is_some());
    assert!(workloads.len() >= 2, "{workloads:?}");
    let reported: BTreeSet<String> = untraced
        .iter()
        .chain(&traced)
        .map(|n| n.to_string())
        .collect();
    assert_eq!(
        reported, metrics,
        "BENCHMARK.json and the benchmark disagree"
    );
}

#[test]
fn counts_repeat_exactly_across_runs_and_move_with_the_seed() {
    for workload in Workload::ALL {
        let a = small(workload, 3, false).counts;
        let b = small(workload, 3, true).counts;
        assert_eq!(
            a,
            b,
            "{}: untraced and traced counts differ",
            workload.name()
        );
        let c = small(workload, 3, false).counts;
        assert_eq!(a, c, "{}: two runs differ", workload.name());
    }
    let wfq = |seed| small(Workload::ServeWfq, seed, false).counts.digest;
    assert_ne!(wfq(3), wfq(4), "the seed must reach the arrival stream");
}

#[test]
fn the_binary_refuses_debug_builds_and_bad_arguments() {
    let bin = env!("CARGO_BIN_EXE_fleetbench");
    let run = |args: &[&str]| {
        std::process::Command::new(bin)
            .args(args)
            .output()
            .expect("the benchmark binary runs")
    };
    let bad = run(&["--workload", "nope"]);
    assert_eq!(bad.status.code(), Some(2));
    assert!(bad.stdout.is_empty());
    if cfg!(debug_assertions) {
        let debug = run(&[
            "--workload",
            "serve_wfq",
            "--seed",
            "0",
            "--seconds",
            "1",
            "--trace",
            "0",
        ]);
        assert_eq!(debug.status.code(), Some(3));
        assert!(
            debug.stdout.is_empty(),
            "a debug build must print no result"
        );
    }
}
