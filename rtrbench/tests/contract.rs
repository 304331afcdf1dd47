//! The benchmark's contract: `BENCHMARK.json` is well formed, every
//! workload emits exactly the metrics it declares, and the checker counts
//! tampered answers as failures. Tiny inputs keep this fast in a debug
//! build.

use rtr_benchmark::check::{check_exploration, check_hit, check_served, parse_served, CheckCost};
use rtr_benchmark::spec::{Better, Spec, BENCHMARK_JSON};
use rtr_benchmark::workload::{self, Scale, Workload};
use rtr_benchmark::RunOptions;
use rtr_core::{Placement, Solution, TemporalPartitioner};
use rtr_trace::{parse_value, JsonValue};
use std::time::Duration;

fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

#[test]
fn benchmark_json_is_well_formed() {
    let spec = Spec::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
    assert!((1..=60).contains(&spec.run_seconds));
    assert!((2..=8).contains(&spec.workloads.len()));
    assert!(
        (1..=16).contains(&spec.end_to_end.len()),
        "{} end-to-end metrics",
        spec.end_to_end.len()
    );
    assert!(
        (1..=128).contains(&spec.per_layer.len()),
        "{} per-layer metrics",
        spec.per_layer.len()
    );
    let names: Vec<&str> = spec
        .workloads
        .iter()
        .map(String::as_str)
        .chain(spec.end_to_end.iter().chain(&spec.per_layer).map(|m| m.name.as_str()))
        .collect();
    for (i, name) in names.iter().enumerate() {
        assert!(valid_name(name), "bad name `{name}`");
        assert!(!names[..i].contains(name), "`{name}` is used twice");
    }
    for m in spec.end_to_end.iter().chain(&spec.per_layer) {
        assert!(valid_unit(&m.unit), "bad unit `{}` of `{}`", m.unit, m.name);
    }
    for m in &spec.end_to_end {
        let bound = m.bound.expect("end-to-end metrics carry a bound");
        assert!(bound > 0.0 && bound <= 0.25, "bound {bound} of `{}`", m.name);
    }
    let setup = spec.end_to_end.iter().find(|m| m.name == "setup_s").expect("setup_s is declared");
    assert_eq!((setup.unit.as_str(), setup.better), ("s", Better::Lower));
    let largest = spec.end_to_end.iter().filter_map(|m| m.bound).fold(0.0, f64::max);
    assert_eq!(setup.bound, Some(largest), "setup_s has the largest bound");
    let known: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(spec.workloads, known);

    let value = parse_value(BENCHMARK_JSON).expect("parses");
    for w in match value.get("workloads") {
        Some(JsonValue::Arr(items)) => items,
        _ => panic!("workloads is an array"),
    } {
        let why = w.get("why").and_then(JsonValue::as_str).expect("every workload says why");
        assert!(!why.is_empty() && why.len() <= 200 && !why.contains('\n'), "why: {why}");
    }
}

#[test]
fn every_workload_emits_exactly_its_declared_metrics() {
    let spec = Spec::builtin();
    let scratch = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("rtrbench-contract");
    for workload in Workload::ALL {
        for traced in [false, true] {
            let opts = RunOptions {
                seed: 1,
                // A solver workload runs one pass; the service workload runs
                // until its tiny script ends.
                seconds: Duration::from_secs(if workload == Workload::RtrdMix { 30 } else { 0 }),
                traced,
                scale: Scale::Tiny,
                work_dir: scratch.join(format!("{}-{traced}", workload.name())),
            };
            let outcome = rtr_benchmark::run(workload, &opts, &spec).expect("the run completes");
            let declared = if traced { &spec.per_layer } else { &spec.end_to_end };
            assert_eq!(
                outcome.mismatches(declared),
                Vec::<String>::new(),
                "{} traced={traced}",
                workload.name()
            );
            assert!(outcome.attempted > 0);
            assert!(outcome.failures.is_empty(), "{}: {:?}", workload.name(), outcome.failures);
            if !traced {
                for m in &spec.end_to_end {
                    assert!(
                        outcome.metrics[&m.name].value > 0.0,
                        "{} reads 0 on {}",
                        m.name,
                        workload.name()
                    );
                }
            }
        }
    }
    let _ = std::fs::remove_dir_all(scratch);
}

/// An exploration with a solution to tamper with: the AR filter.
fn solved() -> (workload::Job, rtr_core::Exploration) {
    let job = workload::reference_pool(Workload::SuitePool2)
        .into_iter()
        .find(|j| j.key == "ar.fast")
        .expect("the suite explores the AR filter");
    let p = TemporalPartitioner::new(&job.graph, &job.arch, job.params.clone()).expect("valid job");
    let exploration = p.explore().expect("explores");
    assert!(exploration.best.is_some(), "the AR filter has a solution");
    (job, exploration)
}

#[test]
fn the_checker_fails_tampered_solutions() {
    let (job, exploration) = solved();
    let mut cost = CheckCost::default();
    check_exploration(&job.graph, &job.arch, &exploration, false, &mut cost)
        .expect("the real answer passes");

    let mut wrong_latency = exploration.clone();
    wrong_latency.best_latency =
        exploration.best_latency.map(|l| l + rtr_graph::Latency::from_ns(1.0));
    assert!(check_exploration(&job.graph, &job.arch, &wrong_latency, false, &mut cost).is_err());

    let best = exploration.best.as_ref().expect("solved");
    let crammed: Vec<Placement> = best
        .placements()
        .iter()
        .map(|p| Placement { partition: 1, design_point: p.design_point })
        .collect();
    let mut overfull = exploration.clone();
    overfull.best = Some(Solution::new(crammed, best.placements().len() as u32));
    assert!(check_exploration(&job.graph, &job.arch, &overfull, false, &mut cost).is_err());

    let mut cancelled = exploration.clone();
    cancelled.degradation.cancelled = true;
    assert!(check_exploration(&job.graph, &job.arch, &cancelled, false, &mut cost).is_err());
    check_exploration(&job.graph, &job.arch, &cancelled, true, &mut cost)
        .expect("a deadline job may be cancelled");
}

/// A `GET /v1/jobs/<id>/result` body as `rtrd` renders it.
fn result_body(latency_ns: f64, solution: &str, csv: &str, cached: bool) -> String {
    let escape = rtrd::jobs::escape_json;
    format!(
        "{{\"job\":1,\"state\":\"done\",\"fingerprint\":\"0\",\"cached\":{cached},\"resumed\":false,\
         \"result\":{{\"feasible\":true,\"best_latency_ns\":{latency_ns},\"solution\":\"{}\",\
         \"n_min_lower\":1,\"n_min_upper\":2,\"windows\":1,\"csv\":\"{}\",\"clean\":true,\
         \"cancelled\":false,\"degradation\":\"\"}}}}",
        escape(solution),
        escape(csv)
    )
}

#[test]
fn the_checker_fails_tampered_served_results_and_mismatched_hits() {
    let (job, exploration) = solved();
    let latency = exploration.best_latency.expect("solved").as_ns();
    let text = exploration.best.as_ref().expect("solved").to_text(&job.graph);
    let csv = exploration.to_csv();
    let mut cost = CheckCost::default();

    let miss = parse_served(&result_body(latency, &text, &csv, false)).expect("parses");
    check_served(&job.graph, &job.arch, &miss, false, &mut cost).expect("the real answer passes");
    let hit = parse_served(&result_body(latency, &text, &csv, true)).expect("parses");
    assert!(hit.cached && !miss.cached);
    check_hit(&miss, &hit).expect("identical results match");

    let lying = parse_served(&result_body(latency - 1.0, &text, &csv, false)).expect("parses");
    assert!(check_served(&job.graph, &job.arch, &lying, false, &mut cost).is_err());
    let drifted =
        parse_served(&result_body(latency, &text, &format!("{csv}\n"), true)).expect("parses");
    assert!(check_hit(&miss, &drifted).is_err(), "a hit with other bytes fails");
    assert!(parse_served("{\"job\":1,\"state\":\"failed\",\"error\":\"boom\"}").is_err());
}
