//! Incremental-solver benchmark: the delta paths of the fig10 resilience
//! sweep, the near-worst search, and a per-sample exact KSP-MCF failure
//! study, against cold references.
//!
//! Sweeps radix 16 and 32 Jellyfish fabrics at two sizes (the fig10
//! operating points). Each row reports cold, cached (a second run against
//! a warm in-memory cache) and delta (no cache) wall-clock:
//!
//! * `resilience` — the Figure 10 failure sweep (delta-TUB reuses the
//!   unfailed parent's distance matrix and Hungarian duals per sample);
//!   the cold leg is a reference loop calling `tub()` on every sample;
//! * `nearworst` — the adversarial 2-swap search (PairMemo reuses per-pair
//!   path enumerations across proposals); it has no cold search left to
//!   time, so its cold column prints `-`;
//! * `exact_mcf` — single-link failures solved exactly, cold
//!   (re-enumerate + fresh simplex) vs [`DeltaCtx`] (prune + warm-started
//!   simplex from the parent basis).
//!
//! Every delta result is checked against a cold oracle (`match`), and any
//! `match=false` row fails the run. The `delta.*` counters in the run manifest tell
//! whether the speedup came from the advertised reuse or from silent
//! fallbacks to cold.

use dcn_bench::{f3, quick_mode, run_guarded, timed, Table};
use dcn_cache::{CacheHandle, SolveCtx};
use dcn_core::frontier::Family;
use dcn_core::nearworst::adversarial_search;
use dcn_core::resilience::{failure_sweep, FailurePoint};
use dcn_core::{tub, CoreError, MatchingBackend};
use dcn_exec::task_seed;
use dcn_guard::prelude::*;
use dcn_mcf::{exact, ksp_mcf_throughput, DeltaCtx, Engine, PathSet, SharedPathSet};
use dcn_model::{Topology, TrafficMatrix};
use dcn_topo::fail_random_links;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::process::ExitCode;
use std::sync::Arc;

fn main() -> ExitCode {
    run_guarded("delta_resilience", run)
}

fn run() -> Result<(), Box<dyn std::error::Error>> {
    dcn_bench::set_run_seed(37);
    let radices: &[u32] = if quick_mode() { &[16] } else { &[16, 32] };
    let h = 4u32;
    let backend = MatchingBackend::Auto { exact_below: 500 };
    let fractions: &[f64] = if quick_mode() {
        &[0.0, 0.1, 0.2]
    } else {
        &[0.0, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3]
    };
    let sizes: &[usize] = if quick_mode() { &[96] } else { &[96, 320] };
    let trials = if quick_mode() { 1 } else { 3 };
    let iters = if quick_mode() { 6 } else { 12 };
    let (k_paths, eps) = (6, 0.1);

    let mut t = Table::new(
        "delta_resilience",
        &["radix", "switches", "phase", "cold_s", "cached_s", "delta_s", "speedup", "match"],
    );
    let budget = Budget::unlimited();
    let nocache = CacheHandle::disabled();
    let cold_ctx = SolveCtx::new(&nocache, &budget);
    let mut mismatches = 0;
    for &radix in radices {
    for &n_sw in sizes {
        let topo = Family::Jellyfish.build(n_sw, radix, h, 31)?;

        // Phase 1: the fig10 resilience sweep.
        let sweep = |ctx: &SolveCtx<'_>| {
            failure_sweep(&topo, fractions, trials, backend, 37, ctx)
        };
        let (cold, cold_s) =
            timed(|| cold_sweep(&topo, fractions, trials, backend, 37, &cold_ctx));
        let cold = cold?;
        let warm_cache = CacheHandle::in_memory(1 << 26);
        sweep(&SolveCtx::new(&warm_cache, &budget))?;
        let (cached, cached_s) = timed(|| sweep(&SolveCtx::new(&warm_cache, &budget)));
        let cached = cached?;
        let (delta, delta_s) = timed(|| sweep(&cold_ctx));
        let delta = delta?;
        let same = |a: &[FailurePoint]| {
            a.len() == cold.len()
                && a.iter().zip(&cold).all(|(x, &(actual, trials))| {
                    x.actual.map(f64::to_bits) == actual.map(f64::to_bits) && x.trials == trials
                })
        };
        let ok = same(&delta) && same(&cached);
        mismatches += usize::from(!ok);
        t.row(&[
            &radix,
            &topo.n_switches(),
            &"resilience",
            &f3(cold_s),
            &f3(cached_s),
            &f3(delta_s),
            &f3(cold_s / delta_s.max(1e-9)),
            &ok,
        ]);

        // Phase 2: the near-worst search.
        let search = |ctx: &SolveCtx<'_>| adversarial_search(&topo, iters, k_paths, eps, 37, ctx);
        search(&SolveCtx::new(&warm_cache, &budget))?;
        let (ncached, ncached_s) = timed(|| search(&SolveCtx::new(&warm_cache, &budget)));
        let ncached = ncached?;
        let (ndelta, ndelta_s) = timed(|| search(&cold_ctx));
        let ndelta = ndelta?;
        let oracle =
            ksp_mcf_throughput(&topo, &ndelta.tm, k_paths, Engine::Fptas { eps }, &cold_ctx)?;
        let ok = ndelta.theta.to_bits() == oracle.theta_lb.to_bits()
            && ncached.theta.to_bits() == ndelta.theta.to_bits()
            && ncached.improvements == ndelta.improvements;
        mismatches += usize::from(!ok);
        t.row(&[
            &radix,
            &topo.n_switches(),
            &"nearworst",
            &"-",
            &f3(ncached_s),
            &f3(ndelta_s),
            &"-",
            &ok,
        ]);

        // Phase 3: exact MCF under single-link failures — re-enumerate +
        // fresh simplex per failure vs prune + warm-started simplex off
        // the unfailed parent. The delta θ is a certified lower bound on
        // the re-enumerated θ (pruning only removes paths), so the check
        // here is `<=` plus exact equality of the common-path solve.
        // The exact phase is O(minutes) at the larger size (a fresh
        // simplex per failed link); the small size demonstrates the same
        // warm-vs-cold contrast at tractable cost.
        if n_sw == sizes[0] {
            let (ec, ed, eok) = exact_mcf_phase(&topo, &budget)?;
            mismatches += usize::from(!eok);
            t.row(&[
                &radix,
                &topo.n_switches(),
                &"exact_mcf",
                &f3(ec),
                &"-",
                &f3(ed),
                &f3(ec / ed.max(1e-9)),
                &eok,
            ]);
        }
    }
    }
    t.finish();
    if mismatches > 0 {
        return Err(format!("{mismatches} row(s) differ from their cold oracle (match=false)").into());
    }
    Ok(())
}

/// The cold reference for [`failure_sweep`]: a plain `tub()` on every
/// sample, drawn exactly as the sweep draws it, averaged per fraction.
/// Returns `(actual, trials)` per fraction.
fn cold_sweep(
    topo: &Topology,
    fractions: &[f64],
    trials: u32,
    backend: MatchingBackend,
    seed: u64,
    ctx: &SolveCtx<'_>,
) -> Result<Vec<(Option<f64>, u32)>, CoreError> {
    let mut i = 0u64;
    let mut out = Vec::with_capacity(fractions.len());
    for &f in fractions {
        let (mut sum, mut ok) = (0.0, 0u32);
        for _ in 0..trials {
            let mut rng = StdRng::seed_from_u64(task_seed(seed, i));
            i += 1;
            if let Ok(degraded) = fail_random_links(topo, f, &mut rng) {
                sum += tub(&degraded, backend, ctx)?.bound.min(1.0);
                ok += 1;
            }
        }
        out.push(((ok > 0).then(|| sum / ok as f64), ok));
    }
    Ok(out)
}

/// Cold vs delta exact solves over every single-link failure that leaves
/// the topology connected (capped to keep the quick mode quick). Returns
/// `(cold_seconds, delta_seconds, outputs_matched)`.
fn exact_mcf_phase(
    topo: &Topology,
    budget: &Budget,
) -> Result<(f64, f64, bool), Box<dyn std::error::Error>> {
    let k = 4usize;
    let n_failures = if quick_mode() { 8 } else { 24 };
    let nocache = CacheHandle::disabled();
    let ctx = SolveCtx::new(&nocache, budget);
    let bound = dcn_core::tub(topo, MatchingBackend::Auto { exact_below: 500 }, &ctx)?;
    let tm = TrafficMatrix::permutation(topo, &bound.pairs)?;
    let parent = Arc::new(PathSet::k_shortest(topo, &tm, k, budget)?);

    let mut children = Vec::new();
    for e in 0..topo.graph().m() as u32 {
        if children.len() >= n_failures {
            break;
        }
        let g = topo.graph().without_edges(&[e]);
        if !g.is_connected() {
            continue;
        }
        if let Ok(child) = topo.with_graph(g) {
            children.push(child.renamed(format!("{}-e{e}", topo.name())));
        }
    }

    let (cold_thetas, cold_s) = timed(|| -> Result<Vec<f64>, Box<dyn std::error::Error>> {
        let mut out = Vec::new();
        for child in &children {
            let ps = PathSet::k_shortest(child, &tm, k, budget)?;
            out.push(exact::solve(&ps, budget)?.theta_lb);
        }
        Ok(out)
    });
    let cold_thetas = cold_thetas?;

    let (delta_thetas, delta_s) = timed(|| -> Result<Vec<f64>, Box<dyn std::error::Error>> {
        let dctx = DeltaCtx::prepare(SharedPathSet(Arc::clone(&parent)), budget)?;
        let mut out = Vec::new();
        for child in &children {
            let theta = match dctx.solve_failure(child, budget) {
                Ok(r) => r.theta_lb,
                // A commodity lost every enumerated path: the documented
                // fallback signal. Re-enumerate cold, as production
                // callers do — its cost is part of the delta leg's time.
                Err(dcn_mcf::McfError::NoPath { .. }) => {
                    let ps = PathSet::k_shortest(child, &tm, k, budget)?;
                    exact::solve(&ps, budget)?.theta_lb
                }
                Err(e) => return Err(e.into()),
            };
            out.push(theta);
        }
        Ok(out)
    });
    let delta_thetas = delta_thetas?;

    // Sanity: pruning only removes paths, so delta θ lower-bounds the
    // re-enumerated θ; and both must agree with the FPTAS sandwich on the
    // parent (checked implicitly by the exact solver's own certificate).
    let ok = cold_thetas.len() == delta_thetas.len()
        && cold_thetas
            .iter()
            .zip(delta_thetas.iter())
            .all(|(c, d)| *d <= *c + 1e-9);
    Ok((cold_s, delta_s, ok))
}
