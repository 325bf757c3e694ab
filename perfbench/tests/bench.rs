//! The benchmark's own tests: seeded inputs, tiny end-to-end runs, and
//! the output checkers. Run with
//! `cargo test --release --manifest-path perfbench/Cargo.toml`.

use dcn_cache::prelude::unlimited_ctx;
use dcn_cache::KeyBuilder;
use dcn_core::tub;
use dcn_mcf::ksp_mcf_throughput;
use dcn_perfbench::inputs::{self, FabricSpec};
use dcn_perfbench::workloads::{
    self, check_mcf, check_tub, engine, response_value, TubOut, BACKEND,
};
use dcn_perfbench::{Scale, Workload};

fn topo_key(spec: &FabricSpec) -> String {
    KeyBuilder::new("test")
        .topology(&spec.build().unwrap())
        .finish()
        .to_hex()
}

#[test]
fn inputs_are_a_pure_function_of_the_seed() {
    for scale in [Scale::Tiny, Scale::Full] {
        assert_eq!(inputs::tub_sweep(7, scale), inputs::tub_sweep(7, scale));
        assert_ne!(inputs::tub_sweep(7, scale), inputs::tub_sweep(8, scale));
        assert_eq!(inputs::ksp_mcf(7, scale), inputs::ksp_mcf(7, scale));
        assert_ne!(inputs::ksp_mcf(7, scale), inputs::ksp_mcf(8, scale));
        assert_eq!(inputs::dcnd_mix(7, scale), inputs::dcnd_mix(7, scale));
        assert_ne!(inputs::dcnd_mix(7, scale), inputs::dcnd_mix(8, scale));
    }
    // The generators are deterministic in the spec, so equal specs give
    // equal fabrics.
    for spec in inputs::tub_sweep(7, Scale::Tiny) {
        assert_eq!(topo_key(&spec), topo_key(&spec));
    }
}

#[test]
fn every_pass_spans_the_exact_threshold_and_both_engines() {
    let sweep = inputs::tub_sweep(1, Scale::Full);
    let exact = sweep.iter().filter(|s| s.switches < 600).count();
    assert!(
        exact * 4 >= sweep.len() * 2 && exact < sweep.len(),
        "{exact} of {}",
        sweep.len()
    );
    let mcf = inputs::ksp_mcf(1, Scale::Full);
    assert!(mcf.iter().any(|s| s.exact) && mcf.iter().any(|s| !s.exact));
    let stream = inputs::dcnd_mix(1, Scale::Full);
    let distinct = stream
        .iter()
        .map(|q| q.ident)
        .collect::<std::collections::BTreeSet<_>>()
        .len();
    let repeats = stream.len() - distinct;
    assert!(
        (stream.len() / 3..stream.len() * 2 / 3).contains(&repeats),
        "{repeats} repeats"
    );
}

#[test]
fn tiny_runs_pass_their_checks() {
    for w in Workload::ALL {
        let leg = workloads::run(w, 3, 0.0, Scale::Tiny).unwrap();
        assert!(leg.attempted >= 1, "{}", w.name());
        assert_eq!(leg.failed, 0, "{}", w.name());
        assert_eq!(leg.metrics["ok_frac"], 1.0, "{}", w.name());
        // The same seed gives the same outputs.
        let again = workloads::run(w, 3, 0.0, Scale::Tiny).unwrap();
        assert_eq!(leg.digest, again.digest, "{}", w.name());
    }
}

#[test]
fn tub_checker_rejects_a_doctored_bound() {
    let spec = inputs::tub_sweep(5, Scale::Tiny)[0];
    let topo = spec.build().unwrap();
    let good = TubOut::from(tub(&topo, BACKEND, &unlimited_ctx()).unwrap());
    check_tub(&topo, &good).unwrap();
    for factor in [0.5, 1.5, 1e3] {
        let doctored = TubOut {
            bound: good.bound * factor,
            ..good.clone()
        };
        assert!(
            check_tub(&topo, &doctored).is_err(),
            "bound x{factor} accepted"
        );
    }
    let mut swapped = good.clone();
    swapped.pairs[0].1 = swapped.pairs[1].1;
    assert!(
        check_tub(&topo, &swapped).is_err(),
        "a non-permutation accepted"
    );
}

#[test]
fn mcf_checker_rejects_a_doctored_throughput() {
    let spec = inputs::ksp_mcf(5, Scale::Tiny)
        .into_iter()
        .find(|s| s.exact)
        .unwrap();
    let topo = spec.fabric.build().unwrap();
    let ub = tub(&topo, dcn_core::MatchingBackend::Exact, &unlimited_ctx()).unwrap();
    let tm = ub.traffic_matrix(&topo).unwrap();
    let r = ksp_mcf_throughput(&topo, &tm, spec.k, engine(&spec), &unlimited_ctx()).unwrap();
    check_mcf(&topo, &tm, &spec, ub.bound, (r.theta_lb, r.theta_ub)).unwrap();
    let above_tub = ub.bound * 1.01;
    assert!(check_mcf(&topo, &tm, &spec, ub.bound, (above_tub, above_tub)).is_err());
    assert!(check_mcf(&topo, &tm, &spec, ub.bound, (r.theta_lb, r.theta_lb * 0.9)).is_err());
    let split = (r.theta_lb, r.theta_lb * 1.1);
    assert!(
        check_mcf(&topo, &tm, &spec, ub.bound, split).is_err(),
        "a bracket from the exact engine accepted"
    );
    assert!(
        check_mcf(&topo, &tm, &spec, ub.bound, (1e-6, 1e-6)).is_err(),
        "below a feasible flow accepted"
    );
}

#[test]
fn response_checker_rejects_unanswered_queries() {
    assert_eq!(
        response_value(r#"{"id":1,"status":"ok","value":0.5}"#),
        Ok(0.5)
    );
    assert!(response_value(r#"{"id":1,"status":"rejected","reason":"queue-full"}"#).is_err());
    assert!(response_value(r#"{"id":1,"status":"error","error":"x"}"#).is_err());
    assert!(response_value("not json").is_err());
}
