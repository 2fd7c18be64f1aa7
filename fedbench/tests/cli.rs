//! The benchmark binary end to end at the self-test size: every workload
//! shape runs clean, and every metric `BENCHMARK.json` names is printed with
//! the unit it is listed with.

use std::path::Path;
use std::process::Command;

use fedbench::workloads::WORKLOADS;

/// `(section, name, unit)` of every metric in `BENCHMARK.json`, which lists
/// one metric object per line.
fn listed_metrics() -> Vec<(String, String, String)> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text =
        std::fs::read_to_string(&path).expect("BENCHMARK.json sits beside the benchmark directory");
    let field = |line: &str, key: &str| -> Option<String> {
        let start = line.find(&format!("\"{key}\": \""))? + key.len() + 5;
        let len = line[start..].find('"')?;
        Some(line[start..start + len].to_string())
    };
    let mut section = String::new();
    let mut out = Vec::new();
    for line in text.lines() {
        if let Some(s) = ["end_to_end", "per_layer", "workloads"]
            .iter()
            .find(|s| line.contains(&format!("\"{s}\": [")))
        {
            section = (*s).to_string();
        }
        if let (Some(name), Some(unit)) = (field(line, "name"), field(line, "unit")) {
            out.push((section.clone(), name, unit));
        }
    }
    out
}

/// Runs the binary and returns its exit success and last stdout line.
fn run(args: &[&str]) -> (bool, String) {
    let output = Command::new(env!("CARGO_BIN_EXE_fedbench"))
        .args(args)
        .output()
        .expect("the benchmark starts");
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().unwrap_or_default().to_string();
    (output.status.success(), last)
}

#[test]
fn every_workload_shape_runs_clean_and_prints_every_listed_metric() {
    let listed = listed_metrics();
    for section in ["end_to_end", "per_layer"] {
        assert!(
            listed.iter().any(|(s, _, _)| s == section),
            "BENCHMARK.json lists no {section} metric"
        );
    }
    for workload in WORKLOADS {
        for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
            let (ok, last) = run(&[
                "--workload",
                workload.name,
                "--tiny",
                "--seconds",
                "0.2",
                "--trace",
                trace,
            ]);
            assert!(ok, "{} --trace {trace} failed: {last}", workload.name);
            assert!(
                last.starts_with("{\"correct\": true, \"attempted\": "),
                "{last}"
            );
            assert!(last.contains("\"failed\": 0, "), "{last}");
            for (_, name, unit) in listed.iter().filter(|(s, _, _)| s == section) {
                let key = format!("\"{name}\": {{\"value\": ");
                let at = last
                    .find(&key)
                    .unwrap_or_else(|| panic!("{} does not print {name}: {last}", workload.name));
                let rest = &last[at + key.len()..];
                let value = &rest[..rest.find(',').expect("a unit follows the value")];
                assert!(
                    value.parse::<f64>().is_ok_and(f64::is_finite),
                    "{name} = {value}"
                );
                assert!(
                    rest.starts_with(&format!("{value}, \"unit\": \"{unit}\"}}")),
                    "{name} is not printed with unit {unit}: {last}"
                );
            }
        }
    }
}

#[test]
fn bad_arguments_exit_with_usage_and_no_result() {
    for args in [
        &["--workload", "no-such-workload"][..],
        &["--workload", "oft-n200-ideal", "--trace", "2"],
        &["--workload", "oft-n200-ideal", "--seed", "x"],
        &["--seconds", "1"],
    ] {
        let output = Command::new(env!("CARGO_BIN_EXE_fedbench"))
            .args(args)
            .output()
            .expect("the benchmark starts");
        assert_eq!(output.status.code(), Some(2), "{args:?}");
        assert!(output.stdout.is_empty(), "{args:?}");
    }
}
