//! Tiny-size smoke tests: every workload runs untraced and traced, prints
//! every catalogued metric with its unit, and passes every check.

use perfbench::metrics::{MetricDef, END_TO_END, PER_LAYER};
use perfbench::{Opts, Size, WORKLOADS};

fn smoke(workload: &str) {
    for (trace, catalog) in [(false, END_TO_END), (true, PER_LAYER)] {
        let opts = Opts {
            seed: 7,
            seconds: 0.0,
            trace,
            size: Size::Tiny,
        };
        let report = perfbench::run(workload, &opts).expect("known workload");
        assert_eq!(
            report.checks.failed, 0,
            "{workload} trace={trace}: {:?}",
            report.checks.failures
        );
        assert!(
            report.checks.attempted > 0,
            "{workload}: no operation checked"
        );
        assert!(report.correct(), "{workload} trace={trace}: not correct");
        let json = report.json();
        assert!(json.starts_with("{\"correct\": true, \"attempted\": "));
        for MetricDef { name, unit, .. } in catalog {
            let printed = report
                .metrics
                .iter()
                .find(|m| m.name == *name)
                .unwrap_or_else(|| panic!("{workload}: {name} not printed"));
            assert_eq!(printed.unit, *unit);
            assert!(
                printed.value.is_finite(),
                "{workload}: {name} = {}",
                printed.value
            );
            assert!(
                json.contains(&format!("\"{name}\": {{\"value\": ")),
                "{workload}: {name} missing from the JSON line"
            );
            assert!(json.contains(&format!("\"unit\": \"{unit}\"")));
        }
        assert_eq!(report.metrics.len(), catalog.len());
        if !trace {
            for m in &report.metrics {
                assert!(
                    m.value > 0.0,
                    "{workload}: end-to-end {} is {}",
                    m.name,
                    m.value
                );
            }
        }
    }
}

#[test]
fn node_paper() {
    smoke("node-paper");
}

#[test]
fn fleet_batch() {
    smoke("fleet-batch");
}

#[test]
fn coord_plane() {
    smoke("coord-plane");
}

#[test]
fn serve_dag() {
    smoke("serve-dag");
}

#[test]
fn unknown_workload_is_refused() {
    let opts = Opts {
        seed: 1,
        seconds: 0.0,
        trace: false,
        size: Size::Tiny,
    };
    assert!(perfbench::run("no-such-workload", &opts).is_none());
}

/// `BENCHMARK.json` names exactly the catalogued workloads and metrics, in
/// catalog order (one metric per line, end-to-end first).
#[test]
fn benchmark_json_lists_the_catalog() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    for w in WORKLOADS {
        assert!(
            text.contains(&format!("{{\"name\": \"{w}\", \"why\": ")),
            "workload {w}"
        );
    }
    let listed: Vec<String> = text
        .lines()
        .filter(|l| l.contains("\"unit\": "))
        .map(|l| {
            let start = l.find('{').expect("entry opens");
            let key = "\"better\": \"";
            let value = l.find(key).expect("entry has better") + key.len();
            let end = value + l[value..].find('"').expect("better closes") + 1;
            l[start..end].to_string()
        })
        .collect();
    let expected: Vec<String> = END_TO_END
        .iter()
        .chain(PER_LAYER)
        .map(|d| {
            format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"",
                d.name, d.unit, d.better
            )
        })
        .collect();
    assert_eq!(listed, expected);
}
