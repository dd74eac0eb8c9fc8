//! The benchmark's own tests: a tiny pass of every workload emits every
//! named metric with its unit and a well-formed span tree, the metric names
//! match `BENCHMARK.json`, single-client counts repeat for a seed, and wrong
//! histograms and a failed snapshot round trip are counted as failures.

use perfbench::check::{Checker, Exact, Expect};
use perfbench::layers::PER_LAYER;
use perfbench::{result_json, run, trace, Config, Report, Workload, END_TO_END};
use weaksim::ShotHistogram;

fn tiny(workload: Workload, trace: bool) -> Config {
    Config {
        workload,
        seed: 7,
        seconds: 0.0,
        trace,
        tiny: true,
        out_dir: Some(std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("perfbench-tests")),
        tamper: false,
    }
}

fn names_and_units(report: &Report) -> Vec<(&str, &str)> {
    report
        .metrics
        .iter()
        .map(|m| (m.name.as_str(), m.unit))
        .collect()
}

#[test]
fn every_workload_emits_every_end_to_end_metric() {
    for workload in Workload::ALL {
        let report = run(&tiny(workload, false));
        assert_eq!(
            report.failed,
            0,
            "{}: {:?}",
            workload.name(),
            report.failures
        );
        assert!(report.attempted >= perfbench::MIN_REQUESTS as u64);
        assert_eq!(
            names_and_units(&report),
            END_TO_END.to_vec(),
            "{}",
            workload.name()
        );
        for metric in &report.metrics {
            assert!(
                metric.value > 0.0,
                "{}: {} is {}",
                workload.name(),
                metric.name,
                metric.value
            );
        }
        assert!(result_json(&report).starts_with("{\"correct\": true, \"attempted\": "));
    }
}

#[test]
fn every_workload_emits_every_per_layer_metric_and_a_well_formed_span_tree() {
    let expected: Vec<(&str, &str)> = PER_LAYER.iter().map(|&(n, u, _)| (n, u)).collect();
    for workload in Workload::ALL {
        let report = run(&tiny(workload, true));
        assert_eq!(
            report.failed,
            0,
            "{}: {:?}",
            workload.name(),
            report.failures
        );
        assert_eq!(names_and_units(&report), expected, "{}", workload.name());
        assert!(!report.spans.is_empty(), "{}: no spans", workload.name());
        trace::validate(&report.spans).unwrap_or_else(|e| panic!("{}: {e}", workload.name()));
        // Every span hangs under a `request` or `check` root of its request.
        for span in &report.spans {
            let mut root = span;
            while let Some(parent) = root.parent {
                root = &report.spans[parent];
            }
            assert!(
                matches!(root.name, "request" | "check"),
                "{} rooted at {}",
                span.name,
                root.name
            );
            assert_eq!(root.request, span.request);
        }
        let share = |name: &str| {
            report
                .metrics
                .iter()
                .find(|m| m.name == name)
                .map(|m| m.value)
        };
        let total: f64 = report
            .metrics
            .iter()
            .filter(|m| m.name.ends_with(".share") && m.name != "circuit.fingerprint.share")
            .map(|m| m.value)
            .sum();
        assert!(
            total <= 1.0 + 1e-9,
            "{}: request shares sum to {total}",
            workload.name()
        );
        assert!(share("shots.render.share").is_some_and(|s| s > 0.0));
        // Layers each workload must reach: the samplers behind the paper's
        // comparison on warm_sample; on serve_mix, DD builds of
        // every Table I family, the trajectory engine (dynamic and noisy
        // requests), the tableau and the snapshot round trip.
        let reached: &[&str] = match workload {
            Workload::WarmSample => &[
                "dd.sample_shots_per_s",
                "statevector.sample_shots_per_s",
                "tableau.sample_shots_per_s",
            ],
            Workload::ServeMix => &[
                "dd.nodes.supremacy",
                "dd.nodes.qft",
                "dd.nodes.shor",
                "dd.nodes.jellium",
                "dd.nodes.grover",
                "trajectory.run_s",
                "tableau.simulate_s",
                "service.snapshot_write_s",
                "service.snapshot_load_s",
            ],
        };
        for name in reached {
            assert!(
                share(name).is_some_and(|s| s > 0.0),
                "{}: {name}",
                workload.name()
            );
        }
    }
}

#[test]
fn benchmark_json_names_what_the_binary_emits() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let declared: Vec<&str> = text
        .split("\"name\": \"")
        .skip(1)
        .map(|rest| rest.split('"').next().expect("a closing quote"))
        .collect();
    let mut emitted: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    emitted.extend(END_TO_END.iter().map(|&(n, _)| n));
    emitted.extend(PER_LAYER.iter().map(|&(n, _, _)| n));
    assert_eq!(declared, emitted);
    for &(name, unit) in END_TO_END {
        assert!(
            text.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
            "{name}"
        );
    }
    for &(name, unit, better) in PER_LAYER {
        let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"");
        assert!(text.contains(&entry), "{entry}");
    }
}

#[test]
fn single_client_counts_repeat_for_a_seed() {
    let counts = |report: &Report| -> Vec<(String, f64)> {
        report
            .metrics
            .iter()
            .filter(|m| {
                m.name.starts_with("dd.nodes.")
                    || m.name.starts_with("artifact.")
                    || matches!(
                        m.name.as_str(),
                        "service.builds" | "service.coalesced" | "service.shed"
                    )
            })
            .filter(|m| m.name != "artifact.sample_s" && !m.name.ends_with(".share"))
            .map(|m| (m.name.clone(), m.value))
            .collect()
    };
    let first = run(&tiny(Workload::WarmSample, true));
    let second = run(&tiny(Workload::WarmSample, true));
    assert_eq!(counts(&first), counts(&second));
}

#[test]
fn wrong_histograms_are_counted_as_failed() {
    let mut config = tiny(Workload::ServeMix, false);
    config.tamper = true;
    let report = run(&config);
    assert!(report.failed > 0 && report.failed <= report.attempted);
    assert!(report.failures.iter().any(|f| f.contains("shot count")));
    assert!(result_json(&report).starts_with("{\"correct\": false"));
    let failed_frac = report
        .details
        .iter()
        .find(|m| m.name == "failed_frac")
        .expect("failed_frac");
    assert!(failed_frac.value > 0.0);
}

#[test]
fn a_failed_snapshot_round_trip_is_counted_as_failed() {
    // A directory under a regular file cannot be created.
    let blocker = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("perfbench-not-a-dir");
    std::fs::write(&blocker, b"").expect("a scratch file");
    let mut config = tiny(Workload::ServeMix, true);
    config.out_dir = Some(blocker.join("out"));
    let report = run(&config);
    assert_eq!(report.failed, 1, "{:?}", report.failures);
    assert!(report.failures.iter().any(|f| f.contains("snapshot")));
    assert!(result_json(&report).starts_with("{\"correct\": false"));
    for name in ["service.snapshot_write_s", "service.snapshot_load_s"] {
        let metric = report.metrics.iter().find(|m| m.name == name).expect(name);
        assert_eq!(metric.value, 0.0, "{name} without a snapshot");
    }
}

#[test]
fn checker_rejects_wrong_distributions_and_changed_repeats() {
    let bell = algorithms::bell_pair();
    let exact = Exact::of(&bell).expect("a 2-qubit static circuit has an exact distribution");
    assert_eq!(exact.support(), 2);
    let expect = Expect::new(&bell, 1000, Some(exact));
    let checker = Checker::default();
    let key = [1, 2];

    let right =
        ShotHistogram::from_samples(2, (0..1000u64).map(|i| if i % 2 == 0 { 0 } else { 3 }));
    assert_eq!(checker.check(&expect, key, 5, &right), Ok(()));
    // Outcome |01> has probability 0: TVD 1.
    let wrong = ShotHistogram::from_samples(2, std::iter::repeat_n(1, 1000));
    let err = checker
        .check(&expect, [9, 9], 5, &wrong)
        .expect_err("a wrong distribution fails");
    assert!(err.contains("TVD"), "{err}");
    // Skewed but plausible-looking: 700/300 is far outside the bound at 1000 shots.
    let skewed = ShotHistogram::from_samples(2, (0..1000u64).map(|i| if i < 700 { 0 } else { 3 }));
    assert!(checker.check(&expect, [8, 8], 5, &skewed).is_err());
    // The same key and seed must reproduce the same histogram.
    let shuffled =
        ShotHistogram::from_samples(2, (0..1000u64).map(|i| if i % 2 == 0 { 3 } else { 0 }));
    assert_eq!(
        checker.check(&expect, key, 5, &shuffled),
        Ok(()),
        "same counts, same digest"
    );
    let drifted = ShotHistogram::from_samples(2, (0..1000u64).map(|i| if i < 499 { 0 } else { 3 }));
    let err = checker
        .check(&expect, key, 5, &drifted)
        .expect_err("a changed repeat fails");
    assert!(err.contains("repeated"), "{err}");
    // Shot count and register width.
    let short = ShotHistogram::from_samples(2, std::iter::repeat_n(0, 999));
    assert!(checker.check(&expect, [7, 7], 5, &short).is_err());
    let wide = ShotHistogram::from_samples(3, (0..1000u64).map(|i| if i % 2 == 0 { 0 } else { 3 }));
    assert!(checker.check(&expect, [6, 6], 5, &wide).is_err());
}
