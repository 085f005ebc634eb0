//! Every workload, run at a tiny size, finishes with zero failed ops and
//! prints every named metric with its unit; the catalogue matches
//! `BENCHMARK.json`.

use lopbench::report::{per_layer, Outcome, END_TO_END};
use lopbench::run::{run, Config};
use lopbench::workloads::{Scale, NAMES};

fn tiny(workload: &str, trace: bool) -> Outcome {
    let cfg = Config {
        workload: workload.to_string(),
        seed: 7,
        seconds: 0.05,
        trace,
        scale: Scale::TINY,
        span_dir: None,
    };
    run(&cfg).expect("known workload")
}

fn assert_clean(out: &Outcome, workload: &str) {
    assert!(out.correct, "{workload}: wrong outputs: {:?}", out.notes);
    assert!(out.attempted >= 1, "{workload}: no op attempted");
    assert_eq!(out.failed, 0, "{workload}: failed ops: {:?}", out.notes);
    let json = out.json();
    for (name, value) in &out.metrics {
        assert!(value.is_finite(), "{workload}: {name} = {value}");
        assert!(
            json.contains(&format!("\"{name}\": {{\"value\": ")),
            "{workload}: {name} not printed"
        );
    }
}

#[test]
fn every_workload_prints_every_end_to_end_metric() {
    for workload in NAMES {
        let out = tiny(workload, false);
        assert_clean(&out, workload);
        let names: Vec<&str> = out.metrics.iter().map(|(n, _)| n.as_str()).collect();
        let want: Vec<&str> = END_TO_END.iter().map(|&(n, _, _)| n).collect();
        assert_eq!(names, want, "{workload}");
        for &(name, unit, _) in END_TO_END {
            assert!(out.json().contains(&format!("\"{name}\": {{\"value\": ")));
            assert!(
                out.get(name).unwrap() > 0.0,
                "{workload}: {name} ({unit}) reads 0"
            );
        }
    }
}

#[test]
fn every_workload_prints_every_per_layer_metric_when_traced() {
    let want: Vec<String> = per_layer().into_iter().map(|(n, _, _)| n).collect();
    for workload in NAMES {
        let out = tiny(workload, true);
        assert_clean(&out, workload);
        let mut names: Vec<String> = out.metrics.iter().map(|(n, _)| n.clone()).collect();
        names.sort();
        let mut sorted = want.clone();
        sorted.sort();
        assert_eq!(names, sorted, "{workload}");
        assert_eq!(
            out.get("sim.fork_error"),
            Some(0.0),
            "{workload}: replay miscounts forks"
        );
        assert_eq!(out.get("trace.dropped_events"), Some(0.0), "{workload}");
        assert!(
            out.get("serve.attempts_per_job").unwrap() > 1.0,
            "{workload}: no job was retried"
        );
    }
}

#[test]
fn unknown_workload_is_refused() {
    let cfg = Config {
        workload: "nope".into(),
        seed: 1,
        seconds: 1.0,
        trace: false,
        scale: Scale::TINY,
        span_dir: None,
    };
    assert!(run(&cfg).is_err());
}

#[test]
fn benchmark_json_lists_the_catalogue() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    for workload in NAMES {
        assert!(
            json.contains(&format!("{{\"name\": \"{workload}\", \"why\": ")),
            "{workload}"
        );
    }
    for &(name, unit, better) in END_TO_END {
        let entry = format!(
            "{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\", \"bound\": "
        );
        assert!(json.contains(&entry), "end-to-end {name}");
    }
    for (name, unit, better) in per_layer() {
        let entry =
            format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"}}");
        assert!(json.contains(&entry), "per-layer {name}");
    }
    assert_eq!(
        json.matches("\"name\": ").count(),
        NAMES.len() + END_TO_END.len() + per_layer().len()
    );
}
