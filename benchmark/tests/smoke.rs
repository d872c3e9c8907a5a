//! `run --smoke`: all four workloads at about a fiftieth of the work, with
//! every output check, through the same child-process path as a real run.

use std::process::Command;
use std::time::{Duration, Instant};

#[test]
fn smoke_run_passes_every_check_in_seconds() {
    let out = std::env::temp_dir().join(format!("qirana-smoke-{}.json", std::process::id()));
    let started = Instant::now();
    let output = Command::new(env!("CARGO_BIN_EXE_qirana-benchmark"))
        .args(["run", "--smoke", "--seed", "3", "--seconds", "0.2", "--out"])
        .arg(&out)
        .output()
        .expect("start the benchmark");
    let took = started.elapsed();
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "run --smoke failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    assert!(took < Duration::from_secs(10), "smoke run took {took:?}");

    let text = std::fs::read_to_string(&out).expect("result file");
    std::fs::remove_file(&out).ok();
    for workload in [
        "serve_warm",
        "serve_churn",
        "flight_cold",
        "history_entropy",
    ] {
        assert!(
            text.contains(&format!("\"{workload}\":{{\"correct\":true")),
            "{workload}: {text}"
        );
    }
    for metric in ["setup_s", "throughput_rps", "quote_mean_ms", "buy_mean_ms"] {
        assert_eq!(
            stdout.matches(&format!("\n{metric} ")).count(),
            4,
            "{metric}:\n{stdout}"
        );
    }
    for key in [
        "\"seed\":3",
        "\"nproc\":",
        "\"service_clients\":2",
        "\"flush_policy\":",
        "\"git_commit\":",
        "\"samples\":",
        "\"caveat\":",
    ] {
        assert!(text.contains(key), "provenance lacks {key}");
    }
    assert!(!stdout.contains("FAILED CHECK"));
}

#[test]
fn unknown_workload_is_a_usage_error_without_a_result_line() {
    let output = Command::new(env!("CARGO_BIN_EXE_qirana-benchmark"))
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
        .output()
        .expect("start the benchmark");
    assert_eq!(output.status.code(), Some(2));
    assert!(output.stdout.is_empty());
}
