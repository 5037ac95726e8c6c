//! A seconds-long run of each workload through the command line: the
//! correctness gate must pass, every declared metric must be printed,
//! and the result line must parse.

use lkmm_service::json::Json;
use std::process::Command;

fn run(workload: &str, trace: &str) -> (bool, Json, String) {
    let dir = std::env::temp_dir().join(format!(
        "lkmm-benchmark-smoke-{workload}-{trace}-{}",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_lkmm-benchmark"))
        .args([
            "--workload",
            workload,
            "--seed",
            "5",
            "--seconds",
            "1",
            "--trace",
            trace,
        ])
        .current_dir(&dir)
        .output()
        .expect("benchmark runs");
    let _ = std::fs::remove_dir_all(&dir);
    let stdout = String::from_utf8(out.stdout).unwrap();
    let last = stdout.lines().last().unwrap_or_default().to_string();
    let result = Json::parse(&last).unwrap_or_else(|e| panic!("{e}: {stdout}"));
    (out.status.success(), result, stdout)
}

fn metric_names(result: &Json) -> Vec<String> {
    match result.get("metrics") {
        Some(Json::Obj(fields)) => fields.iter().map(|(k, _)| k.clone()).collect(),
        _ => panic!("no metrics in {result}"),
    }
}

fn assert_clean(workload: &str, trace: &str, expected_metrics: usize) -> Json {
    let (ok, result, stdout) = run(workload, trace);
    assert!(ok, "{workload} exited non-zero:\n{stdout}");
    assert_eq!(result.get("correct"), Some(&Json::Bool(true)), "{stdout}");
    assert_eq!(
        result.get("failed").and_then(Json::as_u64),
        Some(0),
        "{stdout}"
    );
    assert!(result.get("attempted").and_then(Json::as_u64).unwrap() >= 1);
    assert_eq!(metric_names(&result).len(), expected_metrics, "{stdout}");
    assert!(stdout.contains("verdict_errors 0 count"), "{stdout}");
    assert!(
        stdout.lines().next().unwrap().starts_with("fingerprint {"),
        "{stdout}"
    );
    result
}

const END_TO_END: usize = 8;
const PER_LAYER: usize = 50;

#[test]
fn cycles_runs_clean() {
    assert_clean("cycles", "0", END_TO_END);
}

#[test]
fn contended_runs_clean() {
    assert_clean("contended", "0", END_TO_END);
}

#[test]
fn serve_mixed_runs_clean() {
    assert_clean("serve-mixed", "0", END_TO_END);
}

#[test]
fn traced_cycles_accounts_for_its_wall_time() {
    let result = assert_clean("cycles", "1", PER_LAYER);
    let value = |name: &str| {
        result
            .get("metrics")
            .and_then(|m| m.get(name))
            .and_then(|m| m.get("value"))
            .and_then(|v| match v {
                Json::Num(x) => Some(*x),
                _ => None,
            })
    };
    let coverage = value("trace.coverage").unwrap();
    assert!((coverage - 1.0).abs() <= 0.05, "coverage {coverage}");
    assert!(value("model.evals").unwrap() >= value("enumerate.candidates").unwrap());
    assert!(value("sim.runs").unwrap() > 0.0);
    assert!(value("store.appends").unwrap() > 0.0);
}

#[test]
fn traced_serve_mixed_runs_clean() {
    assert_clean("serve-mixed", "1", PER_LAYER);
}

#[test]
fn unknown_workloads_are_refused() {
    let out = Command::new(env!("CARGO_BIN_EXE_lkmm-benchmark"))
        .args([
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .current_dir(std::env::temp_dir())
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}
