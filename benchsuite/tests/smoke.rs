//! Smoke test at minimum size: every workload prints every end-to-end
//! metric with its unit and a zero failure ratio, and every traced run
//! emits every per-layer metric named in `BENCHMARK.json`.
//!
//! ```text
//! cargo test --release --manifest-path benchsuite/Cargo.toml
//! ```

use std::process::Command;

const WORKLOADS: [&str; 3] = ["grid_sweep", "serve_fresh", "serve_repeat"];

const END_TO_END: [(&str, &str); 6] = [
    ("cells_per_s", "1/s"),
    ("cell_p50_ms", "ms"),
    ("cell_p95_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("fail_ratio", "fraction"),
];

fn run(workload: &str, trace: &str) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_ccs-benchsuite"))
        .args([
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            "1",
            "--trace",
            trace,
            "--smoke",
        ])
        .output()
        .expect("benchmark runs");
    assert!(
        out.status.success(),
        "{workload}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 output")
}

/// The `name` values of one array of `BENCHMARK.json`.
fn benchmark_names(section: &str) -> Vec<String> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("array closes")];
    body.split("\"name\"")
        .skip(1)
        .map(|rest| rest.split('"').nth(1).expect("quoted name").to_string())
        .collect()
}

fn last_json(stdout: &str) -> &str {
    stdout.lines().last().expect("output has lines")
}

#[test]
fn every_workload_prints_every_end_to_end_metric() {
    for workload in WORKLOADS {
        let out = run(workload, "0");
        for (name, unit) in END_TO_END {
            let line = out
                .lines()
                .find(|l| l.starts_with(&format!("metric {name} = ")))
                .unwrap_or_else(|| panic!("{workload}: no {name} line in\n{out}"));
            assert!(line.ends_with(&format!(" {unit}")), "{workload}: {line}");
        }
        assert!(
            out.contains("metric fail_ratio = 0 fraction"),
            "{workload}:\n{out}"
        );
        assert!(
            out.contains("host.calib_ms start"),
            "{workload}: no calibration"
        );
        let json = last_json(&out);
        assert!(json.starts_with("{\"correct\":true,"), "{workload}: {json}");
        assert!(json.contains("\"failed\":0,"), "{workload}: {json}");
        for name in benchmark_names("end_to_end") {
            assert!(
                json.contains(&format!("\"{name}\":{{\"value\":")),
                "{workload}: {name}"
            );
        }
    }
}

#[test]
fn traced_runs_emit_every_per_layer_metric() {
    let names = benchmark_names("per_layer");
    assert!(names.len() > 20, "per_layer names parsed: {names:?}");
    for workload in WORKLOADS {
        let out = run(workload, "1");
        let json = last_json(&out);
        assert!(json.starts_with("{\"correct\":true,"), "{workload}: {json}");
        for name in &names {
            assert!(
                json.contains(&format!("\"{name}\":{{\"value\":")),
                "{workload}: {name}"
            );
        }
    }
}
