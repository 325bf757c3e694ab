//! A warm rerun of a resilience sweep or a near-worst search must be
//! answered from the cache alone: bit-identical results, and no BFS row
//! or KSP expansion spent on a parent or a path set.
//!
//! A test target of its own because the work counters are process-global:
//! any other test running alongside would move them.

use dcn_cache::{CacheHandle, SolveCtx};
use dcn_core::nearworst::adversarial_search;
use dcn_core::resilience::failure_sweep;
use dcn_core::MatchingBackend;
use dcn_obs::names::{GRAPH_DIST_BFS_RUNS, GRAPH_KSP_SLACK_DFS_EXPANSIONS};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn work() -> (u64, u64) {
    (
        dcn_obs::counter_value(GRAPH_DIST_BFS_RUNS),
        dcn_obs::counter_value(GRAPH_KSP_SLACK_DFS_EXPANSIONS),
    )
}

#[test]
fn warm_rerun_does_no_graph_work() {
    let mut rng = StdRng::seed_from_u64(29);
    let topo = dcn_topo::jellyfish(32, 6, 3, &mut rng).unwrap();
    let cache = CacheHandle::in_memory(1 << 24);
    let ctx = SolveCtx::unlimited(&cache);
    let sweep = || {
        failure_sweep(&topo, &[0.0, 0.1, 0.2], 3, MatchingBackend::Exact, 7, &ctx)
            .unwrap()
            .iter()
            .map(|p| (p.nominal.to_bits(), p.actual.map(f64::to_bits), p.trials))
            .collect::<Vec<_>>()
    };
    let search = || {
        let r = adversarial_search(&topo, 10, 6, 0.1, 5, &ctx).unwrap();
        (r.theta.to_bits(), r.theta_start.to_bits(), r.improvements)
    };

    let before_cold = work();
    let cold = (sweep(), search());
    let after_cold = work();
    assert!(after_cold.0 > before_cold.0, "the cold run must do BFS work");
    assert!(after_cold.1 > before_cold.1, "the cold run must enumerate paths");

    let warm = (sweep(), search());
    assert_eq!(cold, warm, "a warm rerun must reproduce the cold run bit for bit");
    assert_eq!(work(), after_cold, "a warm rerun must run no BFS and no KSP expansion");
}
