//! Runs every workload at a tiny scale and checks the output contract:
//! every metric `BENCHMARK.json` names is printed with its unit, no
//! operation fails, and the work counts repeat exactly run to run.

use std::path::PathBuf;
use std::process::Command;

const WORKLOADS: [&str; 3] = ["arena-paper-mix", "served-disk-small-window", "disk-churn"];

/// A metric's name and unit.
type Declared = Vec<(String, String)>;

/// `(name, unit)` of each end-to-end and per-layer metric, in
/// `BENCHMARK.json` order (one metric object per line).
fn declared() -> (Declared, Declared) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json");
    let field = |line: &str, key: &str| -> String {
        let start = line.find(&format!("\"{key}\": \"")).expect(key) + key.len() + 5;
        line[start..].split('"').next().unwrap().to_string()
    };
    let (mut e2e, mut layer) = (Vec::new(), Vec::new());
    for line in text.lines().filter(|l| l.contains("\"unit\"")) {
        let entry = (field(line, "name"), field(line, "unit"));
        if line.contains("\"bound\"") {
            e2e.push(entry);
        } else {
            layer.push(entry);
        }
    }
    (e2e, layer)
}

struct Run {
    correct: bool,
    failed: u64,
    metrics: Vec<(String, f64, String)>,
}

impl Run {
    fn value(&self, name: &str) -> f64 {
        self.metrics
            .iter()
            .find(|m| m.0 == name)
            .unwrap_or_else(|| panic!("{name} missing"))
            .1
    }
}

/// Parses the result line the benchmark prints.
fn parse(line: &str) -> Run {
    let flag = |key: &str| {
        line.split(&format!("\"{key}\": "))
            .nth(1)
            .unwrap()
            .split([',', '}'])
            .next()
            .unwrap()
            .trim()
            .to_string()
    };
    let body = line.split("\"metrics\": {").nth(1).expect("metrics");
    let metrics = body
        .split("}, ")
        .map(|m| {
            let name = m
                .trim_start_matches('"')
                .split('"')
                .next()
                .unwrap()
                .to_string();
            let value = m
                .split("\"value\": ")
                .nth(1)
                .unwrap()
                .split(',')
                .next()
                .unwrap()
                .parse()
                .unwrap();
            let unit = m
                .split("\"unit\": \"")
                .nth(1)
                .unwrap()
                .split('"')
                .next()
                .unwrap()
                .to_string();
            (name, value, unit)
        })
        .collect();
    Run {
        correct: flag("correct") == "true",
        failed: flag("failed").parse().unwrap(),
        metrics,
    }
}

/// Runs one workload at a tiny scale; `dir` keeps tests that run in
/// parallel off each other's page files.
fn run(dir: &str, workload: &str, trace: u8) -> Run {
    let out_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(dir);
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            "1",
            "--trace",
            &trace.to_string(),
        ])
        .args(["--scale", "0.05", "--out"])
        .arg(&out_dir)
        .output()
        .expect("run perfbench");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload}: {}\n{stdout}",
        String::from_utf8_lossy(&out.stderr)
    );
    parse(stdout.lines().last().expect("a result line"))
}

#[test]
fn every_declared_metric_is_printed_with_its_unit() {
    let (e2e, layer) = declared();
    assert!(e2e.iter().any(|(n, u)| n == "setup_s" && u == "s"));
    for workload in WORKLOADS {
        for (trace, want) in [(0, &e2e), (1, &layer)] {
            let r = run("printed", workload, trace);
            assert!(r.correct, "{workload}");
            assert_eq!(r.failed, 0, "{workload}");
            let got: Declared = r
                .metrics
                .iter()
                .map(|(n, _, u)| (n.clone(), u.clone()))
                .collect();
            assert_eq!(&got, want, "{workload} --trace {trace}");
            if trace == 0 {
                assert_eq!(r.value("ok_frac"), 1.0, "{workload}");
                assert!(r.value("setup_s") > 0.0 && r.value("node_accesses_per_query") > 0.0);
            }
        }
    }
}

#[test]
fn work_counts_repeat_exactly() {
    let is_count = |name: &str, unit: &str| {
        ["core.", "grid.", "rtree."]
            .iter()
            .any(|p| name.starts_with(p))
            && (unit == "count" || unit == "frac")
    };
    for workload in WORKLOADS {
        let (a, b) = (run("repeat", workload, 0), run("repeat", workload, 0));
        assert_eq!(
            a.value("node_accesses_per_query"),
            b.value("node_accesses_per_query"),
            "{workload}"
        );
        let (a, b) = (run("repeat", workload, 1), run("repeat", workload, 1));
        for (name, value, unit) in a.metrics.iter().filter(|(n, _, u)| is_count(n, u)) {
            assert_eq!(*value, b.value(name), "{workload} {name} {unit}");
        }
        assert!(
            a.value("core.candidate_windows_per_query") > 0.0,
            "{workload}"
        );
    }
}

#[test]
fn all_runs_every_workload() {
    let out_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("smoke-all");
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            "all",
            "--seed",
            "3",
            "--seconds",
            "1",
            "--trace",
            "0",
            "--scale",
            "0.05",
            "--out",
        ])
        .arg(&out_dir)
        .output()
        .expect("run perfbench");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    for workload in WORKLOADS {
        assert!(stdout.contains(&format!("{workload} (exit 0)")), "{stdout}");
    }
    assert_eq!(
        stdout.matches("query_p50_us").count(),
        6,
        "a table row and a JSON entry per workload"
    );
}
