//! A failed check or a feeder error must fail the command, promptly:
//! the self-check and `compare` are handed a doctored result, and the
//! `wire` feeder is pointed at a closed port and at a bad frame list.

use blameit_bench::Scale;
use blameit_benchmark::catalogue::{END_TO_END, WORKLOADS};
use blameit_benchmark::compare::compare;
use blameit_benchmark::daemon::Exact;
use blameit_benchmark::inputs::{DaemonInputs, Deadline, StateDir};
use blameit_benchmark::json::parse;
use blameit_benchmark::report::{set_json, HostInfo};
use blameit_benchmark::run::{check_same, Metric, RunResult};
use blameit_benchmark::spans::Tracer;
use blameit_benchmark::wire;
use blameit_daemon::Frame;
use std::net::TcpListener;
use std::time::{Duration, Instant};

fn exact(digest: u64) -> Exact {
    Exact {
        ticks: 16,
        alerts: 3,
        offered: 1000,
        admitted: 600,
        shed: 400,
        refused: 0,
        queue_peak: 700,
        verdict_digest: digest,
    }
}

/// Ten runs of every workload whose metrics all read `base * scale(i)`.
fn synthetic_set(digest: u64, scale: impl Fn(&str, usize) -> f64) -> blameit_benchmark::json::Json {
    let mut runs = Vec::new();
    for w in &WORKLOADS {
        for i in 0..10 {
            runs.push(RunResult {
                workload: w.name,
                seed: 100 + i as u64,
                trace: false,
                smoke: false,
                reps: 5,
                voided_reps: 0,
                attempted: 240,
                failed: 0,
                failed_share: 0.4,
                metrics: END_TO_END
                    .iter()
                    .map(|d| Metric {
                        name: d.name,
                        unit: d.unit,
                        value: 100.0 * scale(d.name, i),
                        samples: 240,
                    })
                    .collect(),
                exact: exact(digest),
                trace_jsonl: None,
            });
        }
    }
    // Through text, as `compare` reads it.
    parse(&set_json(&runs, &HostInfo::detect(), 10.0).to_string()).unwrap()
}

fn bound_of(metric: &str) -> f64 {
    END_TO_END.iter().find(|d| d.name == metric).unwrap().bound
}

/// ±0.5 % run-to-run noise.
fn quiet(i: usize) -> f64 {
    1.0 + (i as f64 - 4.5) * 0.001
}

#[test]
fn a_rep_with_one_altered_digest_fails_the_self_check() {
    assert!(check_same(&exact(0xABCD), &exact(0xABCD), "rep 1").is_ok());
    let err = check_same(&exact(0xABCD), &exact(0xABCE), "rep 1").unwrap_err();
    assert!(
        err.contains("rep 1") && err.contains("verdict_digest"),
        "{err}"
    );
    assert!(
        err.contains("000000000000abce") && err.contains("000000000000abcd"),
        "{err}"
    );
}

#[test]
fn compare_passes_two_sets_of_one_commit() {
    let a = synthetic_set(7, |_, i| quiet(i));
    let b = synthetic_set(7, |_, i| quiet(9 - i) * 1.01);
    let cmp = compare(&a, &b).unwrap();
    assert!(cmp.passed() && cmp.unresolved.is_empty(), "{}", cmp.report);
}

#[test]
fn compare_names_the_regressed_metric_and_only_in_the_worse_direction() {
    let a = synthetic_set(7, |_, i| quiet(i));
    // ack p50 slower by its bound and two points more; records/s
    // *higher* by as much is an improvement.
    let worse = 1.02 + bound_of("ack_ms_p50");
    let b = synthetic_set(7, |name, i| match name {
        "ack_ms_p50" | "records_per_s" => quiet(i) * worse,
        _ => quiet(i),
    });
    let cmp = compare(&a, &b).unwrap();
    assert!(!cmp.passed());
    let want: Vec<String> = WORKLOADS
        .iter()
        .map(|w| format!("{}/ack_ms_p50", w.name))
        .collect();
    assert_eq!(cmp.regressed, want, "{}", cmp.report);
    assert!(cmp.behaviour_changed.is_empty());
}

#[test]
fn compare_fails_on_one_altered_digest() {
    let a = synthetic_set(7, |_, i| quiet(i));
    let b = synthetic_set(8, |_, i| quiet(i));
    let cmp = compare(&a, &b).unwrap();
    assert!(!cmp.passed() && cmp.regressed.is_empty());
    assert!(cmp
        .behaviour_changed
        .contains(&"surge/104/verdict_digest".to_string()));
    assert!(cmp
        .behaviour_changed
        .iter()
        .all(|id| id.ends_with("verdict_digest")));
}

#[test]
fn compare_reports_a_noisy_metric_as_unresolved_not_unchanged() {
    // tick p95 swings run to run, on both sides, with a quartile
    // spread of 1.4x its bound.
    let step = bound_of("tick_ms_p95") / 4.0;
    let noisy = |name: &str, i: usize| match name {
        "tick_ms_p95" => 1.0 + (i as f64 - 4.5) * step,
        _ => quiet(i),
    };
    let cmp = compare(&synthetic_set(7, noisy), &synthetic_set(7, noisy)).unwrap();
    assert!(cmp.passed());
    assert_eq!(cmp.unresolved.len(), WORKLOADS.len());
    assert!(cmp.unresolved.iter().all(|k| k.ends_with("/tick_ms_p95")));
}

#[test]
fn compare_refuses_a_file_that_is_not_a_set() {
    let a = synthetic_set(7, |_, i| quiet(i));
    assert!(compare(&a, &parse("{\"schema\":\"something/else\"}").unwrap()).is_err());
}

#[test]
fn the_compare_command_exits_non_zero_on_a_doctored_file() {
    let dir = StateDir::new("compare-cli").unwrap();
    let (a, b) = (dir.path().join("a.json"), dir.path().join("b.json"));
    std::fs::write(&a, synthetic_set(7, |_, i| quiet(i)).to_string()).unwrap();
    std::fs::write(&b, synthetic_set(8, |_, i| quiet(i)).to_string()).unwrap();
    let run = |x: &std::path::Path, y: &std::path::Path| {
        std::process::Command::new(env!("CARGO_BIN_EXE_blameit-benchmark"))
            .arg("compare")
            .args([x, y])
            .output()
            .unwrap()
    };
    let same = run(&a, &a);
    let doctored = run(&a, &b);
    assert!(same.status.success());
    assert!(!doctored.status.success());
    assert!(String::from_utf8_lossy(&doctored.stderr).contains("verdict_digest"));
}

#[test]
fn the_feeder_fails_fast_on_a_closed_port() {
    let closed = {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.local_addr().unwrap()
    };
    let deadline = Deadline::new("wire", Duration::from_secs(30));
    let t0 = Instant::now();
    let err = wire::feed(closed, &[], 3, &mut Tracer::new(false), None, &deadline).unwrap_err();
    assert!(err.msg.contains("connect"), "{err:?}");
    // Nothing is there to retry against.
    assert!(!err.connection_broke);
    assert!(t0.elapsed() < Duration::from_secs(5));
}

#[test]
fn a_feeder_error_stops_the_server_thread_instead_of_hanging() {
    let inputs = DaemonInputs::build(Scale::Tiny, 7, 3, false).unwrap();
    let deadline = Deadline::new("wire", Duration::from_secs(30));
    // The second frame is not a BATCH: the feeder gives up after one
    // batch, with the server thread still serving the connection.
    let frames = vec![
        Frame::Batch {
            batch: inputs.batches[0].clone(),
        },
        Frame::Bye,
    ];
    let t0 = Instant::now();
    let err = wire::run_rep(
        &inputs,
        &frames,
        0,
        &mut Tracer::new(false),
        None,
        &deadline,
    )
    .err()
    .expect("the rep must fail");
    assert!(
        err.msg.contains("BATCH") && !err.connection_broke,
        "{err:?}"
    );
    assert!(t0.elapsed() < Duration::from_secs(10));
}

#[test]
fn a_passed_deadline_names_the_workload() {
    let deadline = Deadline::new("surge", Duration::ZERO);
    assert!(deadline.check().unwrap_err().contains("`surge`"));
}
