//! Integration tests: real multi-process supervision over a toy solve.
//!
//! Worker processes are this same test binary re-invoked with
//! `toy_worker_entry --exact` and the queue root in an environment
//! variable — the gated entry test runs the worker loop in the child and
//! returns immediately (skipping itself) in the normal suite.

#![expect(
    clippy::disallowed_methods,
    reason = "the test runs fleet workers as child processes"
)]

use dcn_fleet::{run_fleet, worker_main, FleetConfig, UnitOutcome, WorkUnit};
use dcn_guard::Budget;
use dcn_obs::json::Json;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Duration;

const WORKER_ENV: &str = "DCN_FLEET_TEST_WORKER_ROOT";

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dcn-fleet-test-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The toy work vocabulary the supervision tests drive:
/// `square` computes, `sleep_ms` shuffles completion order,
/// `abort_below` crashes its worker until a given attempt (0 = never),
/// `fail` returns a solve error (a result, not a crash).
fn toy_solve(unit: &WorkUnit, attempt: u64) -> Result<Json, String> {
    let op = unit
        .payload
        .get("op")
        .and_then(Json::as_str)
        .ok_or("missing op")?;
    match op {
        "square" => {
            let x = unit
                .payload
                .get("x")
                .and_then(Json::as_u64)
                .ok_or("missing x")?;
            Ok(Json::obj([("sq", Json::Num((x * x) as f64))]))
        }
        "sleep_ms" => {
            let ms = unit
                .payload
                .get("ms")
                .and_then(Json::as_u64)
                .ok_or("missing ms")?;
            std::thread::sleep(Duration::from_millis(ms));
            Ok(Json::obj([("slept", Json::Num(ms as f64))]))
        }
        "abort_below" => {
            let n = unit
                .payload
                .get("n")
                .and_then(Json::as_u64)
                .ok_or("missing n")?;
            if attempt < n {
                std::process::abort();
            }
            Ok(Json::obj([("survived_at", Json::Num(attempt as f64))]))
        }
        "fail" => Err("deliberate solve error".to_string()),
        other => Err(format!("unknown op {other:?}")),
    }
}

/// Child-process entrypoint (gated on [`WORKER_ENV`]); not a test of its
/// own in the normal suite.
#[test]
fn toy_worker_entry() {
    let Ok(root) = std::env::var(WORKER_ENV) else {
        return;
    };
    worker_main(Path::new(&root), toy_solve).expect("toy worker loop");
}

fn worker_cmd(root: &Path) -> Command {
    let mut c = Command::new(std::env::current_exe().expect("current_exe"));
    c.args(["toy_worker_entry", "--exact", "--nocapture"]);
    c.env(WORKER_ENV, root);
    c
}

fn cfg(root: &Path, workers: usize) -> FleetConfig {
    FleetConfig {
        workers,
        root: root.to_path_buf(),
        lease: Duration::from_secs(60),
        max_retries: 2,
        backoff_base: Duration::from_millis(10),
        poll: Duration::from_millis(10),
        inject_kill_after: None,
    }
}

fn square_units(n: u64) -> Vec<WorkUnit> {
    (0..n)
        .map(|i| WorkUnit {
            id: format!("sq-{i:02}"),
            payload: Json::obj([
                ("op", Json::Str("square".to_string())),
                ("x", Json::Num(i as f64)),
            ]),
        })
        .collect()
}

#[test]
fn completes_and_merges_in_input_order() {
    let root = scratch("complete");
    let units = square_units(8);
    let report = run_fleet(&cfg(&root, 2), &units, &Budget::unlimited(), &|| {
        worker_cmd(&root)
    })
    .expect("fleet run");
    assert_eq!(report.outcomes.len(), 8);
    assert_eq!(report.quarantined, 0);
    for (i, o) in report.outcomes.iter().enumerate() {
        match o {
            UnitOutcome::Ok(json) => {
                assert_eq!(
                    json.get("sq").and_then(Json::as_u64),
                    Some((i * i) as u64),
                    "unit {i}"
                );
            }
            other => panic!("unit {i}: expected Ok, got {other:?}"),
        }
    }
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn clean_campaign_lets_workers_exit_on_their_own() {
    // Workers exit by themselves once the pending queue is empty; the
    // supervisor must reap them, not SIGKILL them mid-flush.
    let root = scratch("clean-exit");
    let units = square_units(8);
    let report = run_fleet(&cfg(&root, 2), &units, &Budget::unlimited(), &|| {
        worker_cmd(&root)
    })
    .expect("fleet run");
    assert!(report.outcomes.iter().all(|o| matches!(o, UnitOutcome::Ok(_))), "{report:?}");
    assert_eq!(report.crashes, 0, "{report:?}");
    assert_eq!(report.shutdown_kills, 0, "{report:?}");
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn merge_is_deterministic_across_worker_counts_with_shuffled_completion() {
    // Induced sleeps shuffle which shard finishes first at every worker
    // count; the merged outcome list must not care.
    let units: Vec<WorkUnit> = (0..12u64)
        .map(|i| {
            if i % 3 == 0 {
                WorkUnit {
                    id: format!("mix-{i:02}"),
                    payload: Json::obj([
                        ("op", Json::Str("sleep_ms".to_string())),
                        ("ms", Json::Num(((i * 37) % 120) as f64)),
                    ]),
                }
            } else {
                WorkUnit {
                    id: format!("mix-{i:02}"),
                    payload: Json::obj([
                        ("op", Json::Str("square".to_string())),
                        ("x", Json::Num(i as f64)),
                    ]),
                }
            }
        })
        .collect();
    let mut merged: Vec<Vec<UnitOutcome>> = Vec::new();
    for workers in [1usize, 2, 4] {
        let root = scratch(&format!("order-{workers}"));
        let report = run_fleet(&cfg(&root, workers), &units, &Budget::unlimited(), &|| {
            worker_cmd(&root)
        })
        .expect("fleet run");
        merged.push(report.outcomes);
        let _ = std::fs::remove_dir_all(&root);
    }
    assert_eq!(merged[0], merged[1], "1 vs 2 workers diverged");
    assert_eq!(merged[0], merged[2], "1 vs 4 workers diverged");
}

#[test]
fn solve_errors_are_results_not_crashes() {
    let root = scratch("solve-err");
    let mut units = square_units(3);
    units.push(WorkUnit {
        id: "poison-free-failure".to_string(),
        payload: Json::obj([("op", Json::Str("fail".to_string()))]),
    });
    let report = run_fleet(&cfg(&root, 2), &units, &Budget::unlimited(), &|| {
        worker_cmd(&root)
    })
    .expect("fleet run");
    assert_eq!(report.crashes, 0, "a solve error must not count as a crash");
    assert_eq!(
        report.outcomes[3],
        UnitOutcome::Err("deliberate solve error".to_string())
    );
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn crashed_worker_unit_is_retried_and_survives() {
    let root = scratch("retry");
    let mut units = square_units(4);
    units.push(WorkUnit {
        id: "crash-once".to_string(),
        payload: Json::obj([
            ("op", Json::Str("abort_below".to_string())),
            ("n", Json::Num(1.0)),
        ]),
    });
    let report = run_fleet(&cfg(&root, 2), &units, &Budget::unlimited(), &|| {
        worker_cmd(&root)
    })
    .expect("fleet run");
    assert!(report.crashes >= 1, "the abort must register as a crash");
    assert!(report.retries >= 1, "the crashed unit must be retried");
    assert_eq!(report.quarantined, 0);
    match &report.outcomes[4] {
        UnitOutcome::Ok(json) => {
            assert_eq!(json.get("survived_at").and_then(Json::as_u64), Some(1));
        }
        other => panic!("expected retried Ok, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn poison_unit_is_quarantined_and_rest_completes() {
    let root = scratch("poison");
    let mut units = square_units(5);
    units.insert(
        2,
        WorkUnit {
            id: "always-aborts".to_string(),
            payload: Json::obj([
                ("op", Json::Str("abort_below".to_string())),
                ("n", Json::Num(99.0)),
            ]),
        },
    );
    let mut c = cfg(&root, 2);
    c.max_retries = 1;
    let report =
        run_fleet(&c, &units, &Budget::unlimited(), &|| worker_cmd(&root)).expect("fleet run");
    // max_retries = 1 → attempts 0 and 1 both crash → quarantined after
    // killing 2 workers.
    assert!(report.crashes >= 2, "poison must crash max_retries+1 workers");
    assert_eq!(report.quarantined, 1);
    match &report.outcomes[2] {
        UnitOutcome::Quarantined(reason) => {
            assert!(reason.contains("poison"), "reason: {reason}");
        }
        other => panic!("expected quarantine, got {other:?}"),
    }
    // Every other unit still completed.
    for (i, o) in report.outcomes.iter().enumerate() {
        if i != 2 {
            assert!(matches!(o, UnitOutcome::Ok(_)), "unit {i}: {o:?}");
        }
    }
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn restart_recovers_solved_units_without_respawning_work() {
    let root = scratch("recover");
    let units = square_units(6);
    let first = run_fleet(&cfg(&root, 2), &units, &Budget::unlimited(), &|| {
        worker_cmd(&root)
    })
    .expect("first run");
    assert_eq!(first.recovered, 0);
    // Same queue dir, same units: everything is already on disk.
    let second = run_fleet(&cfg(&root, 2), &units, &Budget::unlimited(), &|| {
        worker_cmd(&root)
    })
    .expect("second run");
    assert_eq!(second.recovered, 6);
    assert_eq!(second.crashes, 0);
    assert_eq!(first.outcomes, second.outcomes);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn duplicate_and_unsafe_ids_are_config_errors() {
    let root = scratch("ids");
    let dup = vec![
        WorkUnit {
            id: "same".to_string(),
            payload: Json::Null,
        },
        WorkUnit {
            id: "same".to_string(),
            payload: Json::Null,
        },
    ];
    let err = run_fleet(&cfg(&root, 1), &dup, &Budget::unlimited(), &|| worker_cmd(&root))
        .expect_err("duplicate ids must be rejected");
    assert!(err.to_string().contains("duplicate"), "{err}");
    let unsafe_id = vec![WorkUnit {
        id: "../escape".to_string(),
        payload: Json::Null,
    }];
    let err = run_fleet(&cfg(&root, 1), &unsafe_id, &Budget::unlimited(), &|| {
        worker_cmd(&root)
    })
    .expect_err("path-mischief ids must be rejected");
    assert!(err.to_string().contains("filename-safe"), "{err}");
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn exhausted_budget_stops_supervision() {
    let root = scratch("budget");
    let units = vec![WorkUnit {
        id: "slow".to_string(),
        payload: Json::obj([
            ("op", Json::Str("sleep_ms".to_string())),
            ("ms", Json::Num(60_000.0)),
        ]),
    }];
    let budget = Budget::unlimited().with_wall(Duration::from_millis(50));
    let err = run_fleet(&cfg(&root, 1), &units, &budget, &|| worker_cmd(&root))
        .expect_err("a spent budget must abort supervision");
    assert!(
        matches!(err, dcn_fleet::FleetError::Budget(_)),
        "expected budget error, got {err}"
    );
    let _ = std::fs::remove_dir_all(&root);
}
