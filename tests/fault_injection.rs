//! Workspace-level fault-injection harness.
//!
//! Materializes every attack class in `dcn_guard::adversarial::CaseSpec`
//! into concrete topologies, traffic matrices, LPs, and budgets, and
//! drives them through the public solver entry points. The contract under
//! test is uniform: hostile input yields a **typed error** (or a sound
//! degraded result) — never a panic, never a hang, never a silent NaN.

#![expect(
    clippy::disallowed_methods,
    reason = "the harness times budgets, kills child processes and races threads"
)]

use dcn::graph::ksp::yen;
use dcn::graph::{Graph, GraphError};
use dcn::guard::adversarial::{all_cases, hostile_floats, CaseSpec, Xorshift};
use dcn::guard::{Budget, BudgetError, CancelFlag};
use dcn::lp::{Cmp, LinearProgram, LpError, LpStatus};
use dcn::matching::hungarian_max;
use dcn::mcf::{ksp_mcf_throughput, throughput_with_fallback, Engine, McfError, PathSet};
use dcn::model::{Demand, ModelError, Topology, TrafficMatrix};
use dcn::partition::bisection;
use dcn::core::{tub, MatchingBackend};
use std::time::{Duration, Instant};
use dcn_cache::prelude::*;

/// A 6-cycle with one server per switch: small enough that every solver
/// finishes instantly under a sane budget, structured enough (two paths
/// per antipodal pair) that path enumeration and the LP are non-trivial.
fn ring6() -> Topology {
    let g = Graph::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)])
        .expect("ring6 edges are valid");
    Topology::new(g, vec![1; 6], "ring6").expect("ring6 builds")
}

fn antipodal_tm(topo: &Topology) -> TrafficMatrix {
    TrafficMatrix::permutation(topo, &[(0, 3), (3, 0), (1, 4), (4, 1), (2, 5), (5, 2)])
        .expect("antipodal permutation is valid")
}

/// An LP whose phase-2 simplex needs several pivots: maximize x0 + x1
/// subject to a small polytope. Used wherever a case needs "an LP that
/// does real work".
fn working_lp() -> LinearProgram {
    let mut lp = LinearProgram::new(2);
    lp.set_objective(&[(0, 1.0), (1, 1.0)]);
    lp.add_constraint(&[(0, 1.0), (1, 2.0)], Cmp::Le, 4.0);
    lp.add_constraint(&[(0, 2.0), (1, 1.0)], Cmp::Le, 4.0);
    lp
}

fn materialize_and_assert(case: CaseSpec) {
    let topo = ring6();
    match case {
        CaseSpec::NanDemand => {
            let err = TrafficMatrix::new(
                &topo,
                vec![Demand { src: 0, dst: 3, amount: f64::NAN }],
            )
            .unwrap_err();
            assert!(matches!(err, ModelError::InvalidDemand { .. }), "{err:?}");
        }
        CaseSpec::NegativeDemand => {
            let err = TrafficMatrix::new(
                &topo,
                vec![Demand { src: 0, dst: 3, amount: -1.0 }],
            )
            .unwrap_err();
            assert!(matches!(err, ModelError::InvalidDemand { .. }), "{err:?}");
        }
        CaseSpec::ZeroDemand => {
            let err = TrafficMatrix::new(
                &topo,
                vec![Demand { src: 0, dst: 3, amount: 0.0 }],
            )
            .unwrap_err();
            assert!(matches!(err, ModelError::InvalidDemand { .. }), "{err:?}");
        }
        CaseSpec::SelfLoopDemand => {
            let err = TrafficMatrix::new(
                &topo,
                vec![Demand { src: 2, dst: 2, amount: 1.0 }],
            )
            .unwrap_err();
            assert!(matches!(err, ModelError::InvalidDemand { .. }), "{err:?}");
        }
        CaseSpec::ZeroCapacityEdge => {
            // A path graph 0-1-2 whose second hop has zero capacity: the
            // only route for the demand is dead, so θ must come out 0 (or
            // a typed error) — not NaN, not a hang.
            let g = Graph::from_weighted_edges(3, &[(0, 1, 1.0), (1, 2, 0.0)])
                .expect("zero capacity is representable");
            let t = Topology::new(g, vec![1; 3], "deadlink").expect("builds");
            let tm = TrafficMatrix::permutation(&t, &[(0, 2)]).expect("valid tm");
            match ksp_mcf_throughput(&t, &tm, 4, Engine::Exact, &unlimited_ctx()) {
                Ok(r) => {
                    assert!(r.theta_lb.is_finite() && r.theta_lb.abs() < 1e-9, "{r:?}");
                }
                Err(e) => {
                    assert!(
                        matches!(e, McfError::Certificate(_) | McfError::SolverFailure(_)),
                        "{e:?}"
                    );
                }
            }
        }
        CaseSpec::SelfLoopEdge => {
            let err = Graph::from_edges(3, &[(0, 1), (1, 1)]).unwrap_err();
            assert_eq!(err, GraphError::SelfLoop { node: 1 });
        }
        CaseSpec::DisconnectedGraph => {
            let g = Graph::from_edges(4, &[(0, 1), (2, 3)]).expect("two components");
            let t = Topology::new(g, vec![1; 4], "split").expect("builds");
            let tm = TrafficMatrix::permutation(&t, &[(0, 2)]).expect("valid tm");
            let err = ksp_mcf_throughput(&t, &tm, 4, Engine::Exact, &unlimited_ctx()).unwrap_err();
            assert_eq!(err, McfError::NoPath { src: 0, dst: 2 });
        }
        CaseSpec::EmptyTraffic => {
            let tm = TrafficMatrix::new(&topo, Vec::new()).expect("empty tm is legal");
            let err = ksp_mcf_throughput(&topo, &tm, 4, Engine::Exact, &unlimited_ctx()).unwrap_err();
            assert_eq!(err, McfError::EmptyTraffic);
        }
        CaseSpec::DegenerateLp => {
            // Many redundant copies of the same binding constraint — the
            // classic cycling trap. Must reach Optimal under a finite
            // iteration cap, proving the solver does not cycle forever.
            let mut lp = LinearProgram::new(2);
            lp.set_objective(&[(0, 1.0), (1, 1.0)]);
            for _ in 0..24 {
                lp.add_constraint(&[(0, 1.0), (1, 1.0)], Cmp::Le, 1.0);
            }
            let sol = lp
                .solve(&Budget::unlimited().with_iter_cap(10_000))
                .expect("degenerate LP must terminate");
            assert_eq!(sol.status, LpStatus::Optimal);
            assert!((sol.objective - 1.0).abs() < 1e-9);
        }
        CaseSpec::InfeasibleLp => {
            let mut lp = LinearProgram::new(1);
            lp.set_objective(&[(0, 1.0)]);
            lp.add_constraint(&[(0, 1.0)], Cmp::Ge, 2.0);
            lp.add_constraint(&[(0, 1.0)], Cmp::Le, 1.0);
            let sol = lp
                .solve(&Budget::unlimited())
                .expect("infeasibility is a status, not an error");
            assert_eq!(sol.status, LpStatus::Infeasible);
        }
        CaseSpec::UnboundedLp => {
            let mut lp = LinearProgram::new(2);
            lp.set_objective(&[(0, 1.0)]);
            lp.add_constraint(&[(1, 1.0)], Cmp::Le, 1.0);
            let sol = lp
                .solve(&Budget::unlimited())
                .expect("unboundedness is a status, not an error");
            assert_eq!(sol.status, LpStatus::Unbounded);
        }
        CaseSpec::NearExpiredBudget => {
            let tm = antipodal_tm(&topo);
            let budget = Budget::unlimited().with_wall(Duration::from_nanos(1));
            let started = Instant::now();
            let err = ksp_mcf_throughput(&topo, &tm, 8, Engine::Exact, &nocache_ctx(&budget)).unwrap_err();
            assert!(
                matches!(err, McfError::Budget(BudgetError::DeadlineExceeded { .. })),
                "{err:?}"
            );
            // Termination tolerance: deadline plus at most one iteration,
            // generously bounded here.
            assert!(started.elapsed() < Duration::from_secs(5));
        }
        CaseSpec::TinyIterationCap => {
            let zero_ticks = Budget::unlimited().with_iter_cap(0);
            // Simplex: the first pivot already exceeds the cap.
            assert!(matches!(
                working_lp().solve(&zero_ticks),
                Err(LpError::Budget(BudgetError::IterationsExceeded { .. }))
            ));
            // Yen: the spur loop ticks before any extra path is found.
            assert!(matches!(
                yen(topo.graph(), 0, 3, 8, &zero_ticks),
                Err(BudgetError::IterationsExceeded { .. })
            ));
            // Hungarian: ticks per augmenting-path step.
            assert!(matches!(
                hungarian_max(4, |i, j| (i + j) as i64, &zero_ticks),
                Err(BudgetError::IterationsExceeded { .. })
            ));
            // FM bisection: exhaustion before the first completed try.
            assert!(matches!(
                bisection(&topo, 2, 11, &zero_ticks),
                Err(BudgetError::IterationsExceeded { .. })
            ));
        }
        CaseSpec::PreCancelled => {
            let flag = CancelFlag::new();
            flag.cancel();
            let budget = Budget::unlimited().with_cancel(flag);
            let tm = antipodal_tm(&topo);
            let err = ksp_mcf_throughput(&topo, &tm, 8, Engine::Exact, &nocache_ctx(&budget)).unwrap_err();
            assert!(
                matches!(err, McfError::Budget(BudgetError::Cancelled { .. })),
                "{err:?}"
            );
        }
    }
}

#[test]
fn every_attack_class_yields_typed_errors() {
    for &case in all_cases() {
        materialize_and_assert(case);
    }
}

#[test]
fn hostile_floats_never_panic_model_constructors() {
    let topo = ring6();
    for &v in &hostile_floats() {
        // Demands: only positive finite values may survive.
        match TrafficMatrix::new(&topo, vec![Demand { src: 0, dst: 3, amount: v }]) {
            Ok(_) => assert!(v.is_finite() && v > 0.0, "accepted hostile demand {v}"),
            Err(ModelError::InvalidDemand { .. }) => {}
            Err(e) => panic!("unexpected error kind for demand {v}: {e:?}"),
        }
        // Traffic scaling must not manufacture NaN demands that later
        // solvers choke on without a typed error.
        let tm = antipodal_tm(&topo).scaled(v);
        match ksp_mcf_throughput(&topo, &tm, 4, Engine::Exact, &unlimited_ctx()) {
            Ok(r) => assert!(r.theta_lb.is_finite(), "theta from scale {v}: {r:?}"),
            Err(e) => assert!(
                matches!(e, McfError::Certificate(_) | McfError::SolverFailure(_)),
                "scale {v}: {e:?}"
            ),
        }
    }
}

/// A topology file is a CLI argument (`dcn eval <file>`): a nesting bomb
/// in it is refused as invalid topology JSON, not a stack overflow.
#[test]
fn deeply_nested_topology_json_is_refused() {
    for text in [
        "[".repeat(200_000),
        format!("{{\"name\":\"x\",\"switches\":{}", "[".repeat(200_000)),
    ] {
        match Topology::from_json(&text) {
            Err(ModelError::InfeasibleParams(msg)) => assert!(msg.contains("nesting"), "{msg}"),
            other => panic!("nesting bomb must be a typed refusal, got {other:?}"),
        }
    }
}

/// `perf_gate` reads run manifests named on its command line: a nesting
/// bomb in one is refused with the parser's message.
#[test]
fn deeply_nested_run_manifest_is_refused() {
    let text = format!("{{\"name\":\"x\",\"metrics\":{}", "[".repeat(200_000));
    let err = dcn::obs::manifest::RunManifest::from_json(&text).unwrap_err();
    assert!(err.contains("nesting"), "{err}");
}

#[test]
fn hostile_floats_screened_out_of_lps() {
    for &v in &hostile_floats() {
        if v.is_finite() {
            continue;
        }
        // Poisoned objective.
        let mut lp = working_lp();
        lp.set_objective(&[(0, v)]);
        assert!(
            matches!(lp.solve(&Budget::unlimited()), Err(LpError::BadInput(_))),
            "objective {v} must be screened"
        );
        // Poisoned rhs.
        let mut lp = working_lp();
        lp.add_constraint(&[(0, 1.0)], Cmp::Le, v);
        assert!(
            matches!(lp.solve(&Budget::unlimited()), Err(LpError::BadInput(_))),
            "rhs {v} must be screened"
        );
        // Poisoned coefficient.
        let mut lp = working_lp();
        lp.add_constraint(&[(0, v)], Cmp::Le, 1.0);
        assert!(
            matches!(lp.solve(&Budget::unlimited()), Err(LpError::BadInput(_))),
            "coefficient {v} must be screened"
        );
    }
}

#[test]
fn fallback_chains_absorb_exhaustion_end_to_end() {
    let topo = ring6();
    let tm = antipodal_tm(&topo);
    // Simplex starved, FPTAS viable: the chain degrades instead of failing.
    let ps = PathSet::k_shortest(&topo, &tm, 8, &Budget::unlimited()).expect("paths");
    let r = throughput_with_fallback(&ps, 0.05, &Budget::unlimited().with_iter_cap(8))
        .expect("fallback absorbs the exhaustion");
    assert!(r.provenance.is_degraded());
    assert!(r.theta_lb.is_finite() && r.theta_ub.is_finite());
    // Hungarian starved: tub degrades to the greedy witness, still sound.
    let t = tub(
        &topo,
        MatchingBackend::Exact,
        &nocache_ctx(&Budget::unlimited().with_iter_cap(0)),
    )
    .expect("greedy fallback absorbs the exhaustion");
    assert!(t.fallback);
    assert!(t.bound.is_finite() && t.bound > 0.0);
}

#[test]
fn cancellation_mid_run_stops_promptly() {
    // Cancel from another thread while a (budgeted but roomy) solve runs
    // on an instance large enough to take a moment.
    let g = {
        let mut rng = Xorshift::new(5);
        // Random 6-regular-ish multigraph on 64 nodes, deduplicated.
        let mut edges = Vec::new();
        let mut seen = std::collections::HashSet::new();
        while edges.len() < 192 {
            let u = rng.next_below(64) as u32;
            let v = rng.next_below(64) as u32;
            if u != v && seen.insert((u.min(v), u.max(v))) {
                edges.push((u, v));
            }
        }
        Graph::from_edges(64, &edges).expect("random graph builds")
    };
    let topo = Topology::new(g, vec![2; 64], "rand64").expect("builds");
    let flag = CancelFlag::new();
    let budget = Budget::unlimited().with_cancel(flag.clone());
    let canceller = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(2));
        flag.cancel();
    });
    let started = Instant::now();
    // Either it finishes before the flag trips (tiny instance, fast box)
    // or it reports Cancelled — never a wedge.
    match tub(&topo, MatchingBackend::Exact, &nocache_ctx(&budget)) {
        Ok(t) => assert!(t.bound.is_finite()),
        Err(e) => assert!(format!("{e}").contains("cancelled"), "{e:?}"),
    }
    assert!(started.elapsed() < Duration::from_secs(30));
    canceller.join().expect("canceller thread");
}

// ---------------------------------------------------------------------------
// Fleet kill injection
//
// The process-level analogue of the solver attacks above: workers are
// SIGKILLed mid-cell (via the supervisor's injection hook and via lease
// expiry), the supervisor itself is SIGKILLed and a successor resumes
// from the queue directory, and a deliberately poisonous unit crashes
// every worker that touches it. The uniform contract: every variant ends
// with a merged outcome list byte-identical to an undisturbed serial run
// — or an explicit quarantine report, never a wedge and never a torn
// merge. Worker (and supervisor) processes are this test binary
// re-invoked against gated entry tests.

use dcn::fleet::{run_fleet, worker_main, FleetConfig, FleetReport, UnitOutcome, WorkUnit};
use dcn::obs::json::Json;
use std::path::{Path, PathBuf};

const FLEET_WORKER_ENV: &str = "DCN_FAULT_TEST_FLEET_WORKER";
const FLEET_SUPERVISOR_ENV: &str = "DCN_FAULT_TEST_FLEET_SUPERVISOR";

fn fleet_scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dcn-fault-fleet-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// `square` computes; `sleep_once` stalls only on its first attempt (so
/// a lease kill is survivable on retry); `abort` kills every worker that
/// claims it (the poison).
fn fleet_toy_solve(unit: &WorkUnit, attempt: u64) -> Result<Json, String> {
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
        "sleep_once" => {
            if attempt == 0 {
                std::thread::sleep(Duration::from_secs(30));
            }
            Ok(Json::obj([("survived_at", Json::Num(attempt as f64))]))
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
        "abort" => std::process::abort(),
        other => Err(format!("unknown op {other:?}")),
    }
}

/// Gated worker entrypoint; a no-op in the normal suite.
#[test]
fn fleet_worker_entry() {
    let Ok(root) = std::env::var(FLEET_WORKER_ENV) else {
        return;
    };
    worker_main(Path::new(&root), fleet_toy_solve).expect("fault-injection worker");
}

fn fleet_worker_cmd(root: &Path) -> std::process::Command {
    let mut c = std::process::Command::new(std::env::current_exe().expect("current_exe"));
    c.args(["fleet_worker_entry", "--exact", "--nocapture"]);
    c.env(FLEET_WORKER_ENV, root);
    c
}

fn fleet_cfg(root: &Path, workers: usize) -> FleetConfig {
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

/// Serializes a report's merged outcomes so variants can be compared
/// byte-for-byte against an undisturbed serial run.
fn merged_bytes(report: &FleetReport) -> String {
    let rows: Vec<Json> = report
        .outcomes
        .iter()
        .map(|o| match o {
            UnitOutcome::Ok(v) => Json::obj([("ok", v.clone())]),
            UnitOutcome::Err(e) => Json::obj([("err", Json::Str(e.clone()))]),
            UnitOutcome::Quarantined(r) => Json::obj([("quarantined", Json::Str(r.clone()))]),
        })
        .collect();
    Json::Arr(rows).to_string_pretty()
}

fn square_unit(i: u64) -> WorkUnit {
    WorkUnit {
        id: format!("cell-{i:02}"),
        payload: Json::obj([
            ("op", Json::Str("square".to_string())),
            ("x", Json::Num(i as f64)),
        ]),
    }
}

/// Runs the same unit list undisturbed at one worker and returns the
/// reference merge bytes.
fn serial_reference(name: &str, units: &[WorkUnit]) -> String {
    let root = fleet_scratch(name);
    let report = run_fleet(&fleet_cfg(&root, 1), units, &Budget::unlimited(), &|| {
        fleet_worker_cmd(&root)
    })
    .expect("serial reference run");
    let _ = std::fs::remove_dir_all(&root);
    merged_bytes(&report)
}

#[test]
fn fleet_worker_sigkilled_mid_cell_still_merges_identically() {
    // Sleepy cells keep the campaign alive long enough for the injected
    // kill to land while a worker is mid-cell (instant cells can drain
    // before the supervisor's kill condition is ever evaluated).
    let units: Vec<WorkUnit> = (0..8)
        .map(|i| {
            if i % 2 == 0 {
                square_unit(i)
            } else {
                WorkUnit {
                    id: format!("cell-{i:02}"),
                    payload: Json::obj([
                        ("op", Json::Str("sleep_ms".to_string())),
                        ("ms", Json::Num(120.0)),
                    ]),
                }
            }
        })
        .collect();
    let reference = serial_reference("sigkill-ref", &units);
    let root = fleet_scratch("sigkill");
    let mut cfg = fleet_cfg(&root, 2);
    // The supervisor SIGKILLs one of its own workers after the first
    // completed cell; whatever that worker held must be retried.
    cfg.inject_kill_after = Some(1);
    let report = run_fleet(&cfg, &units, &Budget::unlimited(), &|| fleet_worker_cmd(&root))
        .expect("injected-kill run");
    assert!(report.crashes >= 1, "the injected SIGKILL must be observed");
    assert_eq!(report.quarantined, 0);
    assert_eq!(merged_bytes(&report), reference);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn fleet_lease_expiry_sigkills_stalled_worker_and_recovers() {
    let mut units: Vec<WorkUnit> = (0..4).map(square_unit).collect();
    units.insert(
        1,
        WorkUnit {
            id: "stall-first-attempt".to_string(),
            payload: Json::obj([("op", Json::Str("sleep_once".to_string()))]),
        },
    );
    let root = fleet_scratch("lease");
    let mut cfg = fleet_cfg(&root, 2);
    // The stalled cell sleeps 30s on attempt 0; a 300ms lease means the
    // supervisor SIGKILLs its worker and the retry (attempt 1) returns
    // instantly.
    cfg.lease = Duration::from_millis(300);
    let report = run_fleet(&cfg, &units, &Budget::unlimited(), &|| fleet_worker_cmd(&root))
        .expect("lease-kill run");
    assert!(report.lease_kills >= 1, "{report:?}");
    assert_eq!(report.quarantined, 0);
    match &report.outcomes[1] {
        UnitOutcome::Ok(v) => {
            assert_eq!(v.get("survived_at").and_then(Json::as_u64), Some(1))
        }
        other => panic!("stalled cell must survive its retry, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&root);
}

/// Gated supervisor entrypoint for the kill-and-resume test: supervises
/// the slow unit list in a child process the parent can SIGKILL.
#[test]
fn fleet_supervisor_entry() {
    let Ok(root) = std::env::var(FLEET_SUPERVISOR_ENV) else {
        return;
    };
    let root = PathBuf::from(root);
    let units = slow_units();
    run_fleet(&fleet_cfg(&root, 2), &units, &Budget::unlimited(), &|| {
        fleet_worker_cmd(&root)
    })
    .expect("child supervisor");
}

fn slow_units() -> Vec<WorkUnit> {
    (0..8)
        .map(|i| WorkUnit {
            id: format!("slow-{i:02}"),
            payload: Json::obj([
                ("op", Json::Str("sleep_ms".to_string())),
                ("ms", Json::Num(150.0)),
            ]),
        })
        .collect()
}

#[test]
fn fleet_supervisor_sigkilled_and_resumed_recovers_solved_cells() {
    let units = slow_units();
    let root = fleet_scratch("resume");
    std::fs::create_dir_all(&root).expect("create queue root");
    let mut supervisor = std::process::Command::new(std::env::current_exe().expect("current_exe"))
        .args(["fleet_supervisor_entry", "--exact", "--nocapture"])
        .env(FLEET_SUPERVISOR_ENV, &root)
        .spawn()
        .expect("spawn child supervisor");
    // Wait until at least two cells are solved, then SIGKILL the
    // supervisor mid-campaign (its workers become orphans).
    let results = root.join("results");
    let deadline = Instant::now() + Duration::from_secs(30);
    while dcn::cache::scan_keys(&results, "fleet-result").len() < 2 {
        assert!(Instant::now() < deadline, "child supervisor made no progress");
        if let Some(status) = supervisor.try_wait().expect("try_wait") {
            panic!("child supervisor exited early: {status}");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    supervisor.kill().expect("SIGKILL child supervisor");
    let _ = supervisor.wait();
    // A successor supervisor over the same queue directory recovers the
    // solved cells, re-queues whatever was claimed by the dead fleet's
    // workers, and completes the campaign.
    let report = run_fleet(&fleet_cfg(&root, 2), &units, &Budget::unlimited(), &|| {
        fleet_worker_cmd(&root)
    })
    .expect("successor supervisor");
    assert!(report.recovered >= 2, "{report:?}");
    assert_eq!(report.quarantined, 0);
    assert_eq!(merged_bytes(&report), serial_reference("resume-ref", &units));
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn fleet_poison_unit_yields_explicit_quarantine_report() {
    let mut units: Vec<WorkUnit> = (0..5).map(square_unit).collect();
    units.insert(
        3,
        WorkUnit {
            id: "poison".to_string(),
            payload: Json::obj([("op", Json::Str("abort".to_string()))]),
        },
    );
    // The poison quarantines identically at any worker count, so even
    // this variant's merge is byte-comparable to the serial run.
    let reference = serial_reference("poison-ref", &units);
    let root = fleet_scratch("poison");
    let report = run_fleet(&fleet_cfg(&root, 2), &units, &Budget::unlimited(), &|| {
        fleet_worker_cmd(&root)
    })
    .expect("poison run");
    assert_eq!(report.quarantined, 1);
    assert!(
        report.crashes >= 3,
        "poison must crash max_retries+1 workers: {report:?}"
    );
    assert!(matches!(&report.outcomes[3], UnitOutcome::Quarantined(_)));
    assert_eq!(merged_bytes(&report), reference);
    // The quarantine is also durable: the queue directory records the
    // unit and why it was pulled.
    let q = std::fs::read_to_string(root.join("quarantine").join("poison.json"))
        .expect("durable quarantine record");
    assert!(q.contains("attempts"), "{q}");
    let _ = std::fs::remove_dir_all(&root);
}

/// A queue directory may be shared, so a unit record is untrusted input:
/// a nesting bomb in `pending/` is quarantined as unreadable and the
/// worker carries on, rather than aborting on a stack overflow.
#[test]
fn deeply_nested_unit_record_is_quarantined_by_worker() {
    let root = fleet_scratch("nesting-bomb");
    let pending = root.join("pending");
    std::fs::create_dir_all(&pending).expect("create pending dir");
    std::fs::write(pending.join("bomb.json"), "[".repeat(200_000)).expect("plant bomb");
    let published = worker_main(&root, fleet_toy_solve).expect("worker survives");
    assert_eq!(published, 0);
    let q = std::fs::read_to_string(root.join("quarantine").join("bomb.json"))
        .expect("bomb quarantined");
    assert!(q.contains("unreadable unit record"), "{q}");
    assert!(q.contains("nesting"), "{q}");
    assert!(!pending.join("bomb.json").exists());
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn random_hostile_lps_terminate_under_budget() {
    // Fuzz-ish sweep: random small LPs with mixed constraint senses and
    // sign-varied coefficients. Every one must reach a status or a typed
    // error within the iteration cap — no panic, no spin.
    let mut rng = Xorshift::new(0xfau64);
    for case in 0..60 {
        let n = 1 + rng.next_below(4) as usize;
        let mut lp = LinearProgram::new(n);
        let obj: Vec<(usize, f64)> = (0..n)
            .map(|j| (j, rng.next_f64() * 4.0 - 2.0))
            .collect();
        lp.set_objective(&obj);
        let rows = 1 + rng.next_below(5);
        for _ in 0..rows {
            let coeffs: Vec<(usize, f64)> = (0..n)
                .map(|j| (j, rng.next_f64() * 4.0 - 2.0))
                .collect();
            let cmp = match rng.next_below(3) {
                0 => Cmp::Le,
                1 => Cmp::Ge,
                _ => Cmp::Eq,
            };
            let rhs = rng.next_f64() * 6.0 - 3.0;
            lp.add_constraint(&coeffs, cmp, rhs);
        }
        match lp.solve(&Budget::unlimited().with_iter_cap(50_000)) {
            Ok(sol) => {
                if sol.status == LpStatus::Optimal {
                    assert!(sol.objective.is_finite(), "case {case}: {sol:?}");
                }
            }
            Err(LpError::Budget(_)) | Err(LpError::Certificate(_)) => {}
            Err(e) => panic!("case {case}: unexpected error {e:?}"),
        }
    }
}
