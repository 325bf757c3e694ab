//! End-to-end sharded frontier sweep: real [`FrontierConfig`] cells,
//! real worker processes, and a pin that the merged result — and the CSV
//! rendered from it — is byte-identical to the serial sweep at 1, 2, and
//! 4 workers.
//!
//! This is the bench-level leg of the fleet determinism contract. The
//! worker child is this test binary re-invoked against a gated entry
//! test (experiment binaries use their own `--worker` flag instead, but
//! a libtest harness cannot accept unknown flags).

#![expect(
    clippy::disallowed_methods,
    reason = "the test drives the fleet binaries as child processes"
)]

use dcn_cache::prelude::*;
use dcn_core::frontier::{
    frontier_max_servers, frontier_sweep, Criterion, Family, FrontierConfig,
};
use dcn_core::MatchingBackend;
use dcn_fleet::{run_fleet, worker_main, FleetConfig, UnitOutcome, WorkUnit};
use dcn_guard::Budget;
use dcn_obs::json::Json;
use std::path::Path;
use std::time::Duration;

const WORKER_ENV: &str = "DCN_BENCH_TEST_FRONTIER_WORKER";

/// Four cheap real cells: two families, both frontier criteria.
fn tiny_configs() -> Vec<FrontierConfig> {
    let mut configs = Vec::new();
    for family in [Family::Jellyfish, Family::Xpander] {
        for criterion in [
            Criterion::FullThroughput {
                backend: MatchingBackend::Auto { exact_below: 600 },
            },
            Criterion::FullBisection { tries: 2 },
        ] {
            configs.push(FrontierConfig {
                family,
                radix: 8,
                h: 3,
                criterion,
                max_switches: 64,
                seed: 5,
            });
        }
    }
    configs
}

/// Gated worker entrypoint: solves real frontier cells from the queue.
#[test]
fn frontier_worker_entry() {
    let Ok(root) = std::env::var(WORKER_ENV) else {
        return;
    };
    let sctx = unlimited_ctx();
    worker_main(Path::new(&root), |unit, _attempt| {
        let config = FrontierConfig::from_json(&unit.payload)?;
        let servers = frontier_max_servers(
            config.family,
            config.radix,
            config.h,
            config.criterion,
            config.max_switches,
            config.seed,
            &sctx,
        )
        .map_err(|e| e.to_string())?;
        let value = match servers {
            Some(n) => Json::Num(n as f64),
            None => Json::Null,
        };
        Ok(Json::obj([("max_servers", value)]))
    })
    .expect("frontier worker loop");
}

fn worker_cmd(root: &Path) -> std::process::Command {
    let mut c = std::process::Command::new(std::env::current_exe().expect("current_exe"));
    c.args(["frontier_worker_entry", "--exact", "--nocapture"]);
    c.env(WORKER_ENV, root);
    c
}

fn csv_bytes(name: &str, frontiers: &[Option<u64>]) -> String {
    let mut table = dcn_bench::Table::new(name, &["cell", "max_servers"]);
    for (i, f) in frontiers.iter().enumerate() {
        let shown = match f {
            Some(n) => n.to_string(),
            None => "-".to_string(),
        };
        table.row(&[&i, &shown]);
    }
    table.write_csv();
    let path = dcn_bench::results_dir()
        .expect("results dir")
        .join(format!("{name}.csv"));
    let bytes = std::fs::read_to_string(&path).expect("csv written");
    let _ = std::fs::remove_file(&path);
    bytes
}

#[test]
fn sharded_real_sweep_is_byte_identical_to_serial() {
    let configs = tiny_configs();
    let serial = frontier_sweep(&configs, &unlimited_ctx()).expect("serial sweep");
    let serial_csv = csv_bytes("fleet_frontier_serial_test", &serial);
    let units: Vec<WorkUnit> = configs
        .iter()
        .map(|c| WorkUnit {
            id: c.work_key().to_hex(),
            payload: c.to_json(),
        })
        .collect();
    for workers in [1usize, 2, 4] {
        let root = std::env::temp_dir().join(format!(
            "dcn-bench-fleet-frontier-{workers}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&root);
        let cfg = FleetConfig {
            workers,
            root: root.clone(),
            lease: Duration::from_secs(120),
            max_retries: 2,
            backoff_base: Duration::from_millis(10),
            poll: Duration::from_millis(10),
            inject_kill_after: None,
        };
        let report = run_fleet(&cfg, &units, &Budget::unlimited(), &|| worker_cmd(&root))
            .expect("sharded sweep");
        let merged: Vec<Option<u64>> = report
            .outcomes
            .iter()
            .map(|o| match o {
                UnitOutcome::Ok(json) => match json.get("max_servers") {
                    Some(Json::Null) | None => None,
                    Some(v) => v.as_u64(),
                },
                other => panic!("undisturbed sweep must not fail: {other:?}"),
            })
            .collect();
        assert_eq!(merged, serial, "{workers} workers diverged from serial");
        let csv = csv_bytes(&format!("fleet_frontier_w{workers}_test"), &merged);
        assert_eq!(
            csv, serial_csv,
            "{workers}-worker CSV bytes diverged from serial"
        );
        let _ = std::fs::remove_dir_all(&root);
    }
}
