//! Adversarial traffic search: can anything beat the maximal permutation?
//!
//! §3.1 of the paper validates the maximal permutation as (near-)worst-case
//! by comparing against random permutations. This module goes one step
//! further: a local search over permutation space that starts from the
//! maximal permutation and accepts 2-swaps whenever they *reduce* the
//! routed KSP-MCF throughput. If the search cannot descend, the matching
//! heuristic really did find (a local minimum indistinguishable from) the
//! worst case — a stronger certificate than random sampling.

use crate::tub::{tub, MatchingBackend};
use crate::CoreError;
use dcn_cache::{CacheKey, SolveCtx};
use dcn_exec::Pool;
use dcn_graph::NodeId;
use dcn_mcf::{theta_key, throughput_on_paths, Engine, PairMemo, ThroughputResult};
use dcn_model::{Topology, TrafficMatrix};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Outcome of the adversarial search.
#[derive(Debug, Clone)]
pub struct AdversarialResult {
    /// The worst traffic matrix found.
    pub tm: TrafficMatrix,
    /// Its routed (FPTAS lower-bound) throughput.
    pub theta: f64,
    /// Throughput of the starting maximal permutation.
    pub theta_start: f64,
    /// Accepted descending swaps.
    pub improvements: u32,
}

/// Fixed number of 2-swap proposals evaluated per descent round.
///
/// Deliberately *not* derived from the pool's thread count: the proposal
/// sequence and acceptance decisions must be identical at any
/// `DCN_EXEC_THREADS`, so the batch boundary is part of the algorithm,
/// not the execution environment.
const PROPOSAL_BATCH: usize = 8;

/// Searches for a permutation with lower KSP-MCF throughput than the
/// maximal permutation, using `iters` random 2-swap proposals.
///
/// Each proposal exchanges the destinations of two sources. Proposals are
/// drawn in fixed batches of [`PROPOSAL_BATCH`] from a single seeded RNG,
/// the batch's MCF solves fan out across the [`dcn_exec`] pool, and the
/// *steepest* strictly-descending candidate of the batch (first on ties)
/// is accepted. Acceptance tests are expensive — every one is an MCF
/// solve — so keep `iters` modest (tens) and topologies small/medium.
///
/// Successive proposals reuse per-pair path enumerations through a
/// [`PairMemo`]: the fabric is fixed, so a commodity's K shortest paths
/// depend only on its endpoints, and each proposal only introduces the
/// two swapped pairs. A memo-assembled path set is bit-identical to a
/// from-scratch build, so every candidate is cached under the same key
/// [`ksp_mcf_throughput`] uses, and a warm rerun enumerates nothing.
/// Missing pairs are enumerated serially *before* each batch fans out, so
/// the memo is read-only under the pool and results stay byte-identical
/// at any `DCN_EXEC_THREADS`.
///
/// [`ksp_mcf_throughput`]: dcn_mcf::ksp_mcf_throughput
pub fn adversarial_search(
    topo: &Topology,
    iters: u32,
    k_paths: usize,
    eps: f64,
    seed: u64,
    ctx: &SolveCtx<'_>,
) -> Result<AdversarialResult, CoreError> {
    let bound = tub(topo, MatchingBackend::Auto { exact_below: 500 }, ctx)?;
    let mut pairs: Vec<(NodeId, NodeId)> = bound.pairs.clone();
    let engine = Engine::Fptas { eps };
    let mut memo = PairMemo::new(topo, k_paths);
    let pool = Pool::from_env();
    let mut batch = |candidates: &[Vec<(NodeId, NodeId)>]| {
        batch_theta(topo, &mut memo, k_paths, engine, candidates, &pool, ctx)
    };
    let mut theta = batch(std::slice::from_ref(&pairs))?[0];
    let theta_start = theta;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut improvements = 0u32;
    let mut proposed = 0u32;
    while proposed < iters && pairs.len() >= 2 {
        // Draw the whole batch serially from the shared RNG so the
        // proposal stream does not depend on evaluation order.
        let mut candidates: Vec<Vec<(NodeId, NodeId)>> = Vec::with_capacity(PROPOSAL_BATCH);
        while proposed < iters && candidates.len() < PROPOSAL_BATCH {
            proposed += 1;
            let a = rng.gen_range(0..pairs.len());
            // Draw b uniformly from the other len-1 indices directly,
            // rather than rejection-sampling until b != a.
            let mut b = rng.gen_range(0..pairs.len() - 1);
            if b >= a {
                b += 1;
            }
            let mut candidate = pairs.clone();
            let (da, db) = (candidate[a].1, candidate[b].1);
            // Swapping destinations can create self-pairs; skip those.
            if candidate[a].0 == db || candidate[b].0 == da {
                continue;
            }
            candidate[a].1 = db;
            candidate[b].1 = da;
            candidates.push(candidate);
        }
        if candidates.is_empty() {
            continue;
        }
        let thetas = batch(&candidates)?;
        let best = thetas
            .iter()
            .enumerate()
            .filter(|(_, &t)| t < theta - 1e-9)
            .min_by(|(_, x), (_, y)| x.total_cmp(y));
        if let Some((ci, &cand_theta)) = best {
            pairs = candidates.swap_remove(ci);
            theta = cand_theta;
            improvements += 1;
        }
    }
    Ok(AdversarialResult {
        tm: TrafficMatrix::permutation(topo, &pairs)?,
        theta,
        theta_start,
        improvements,
    })
}

/// Routed θ of each candidate permutation, in order. A candidate whose
/// answer is cached under [`theta_key`] costs one lookup. The pairs of
/// the others are enumerated into `memo` serially, then their solves fan
/// out across `pool` with the memo read-only, so results do not depend on
/// the pool width.
fn batch_theta(
    topo: &Topology,
    memo: &mut PairMemo,
    k_paths: usize,
    engine: Engine,
    candidates: &[Vec<(NodeId, NodeId)>],
    pool: &Pool,
    ctx: &SolveCtx<'_>,
) -> Result<Vec<f64>, CoreError> {
    let tms = candidates
        .iter()
        .map(|c| TrafficMatrix::permutation(topo, c))
        .collect::<Result<Vec<_>, _>>()?;
    let keys: Vec<CacheKey> = tms.iter().map(|tm| theta_key(topo, tm, k_paths, engine)).collect();
    let cached: Vec<Option<ThroughputResult>> = keys.iter().map(|&k| ctx.cache.peek(k)).collect();
    let missing: Vec<(NodeId, NodeId)> = candidates
        .iter()
        .zip(&cached)
        .filter(|(_, hit)| hit.is_none())
        .flat_map(|(c, _)| c.iter().copied())
        .collect();
    memo.ensure_pairs(&missing, ctx.budget)?;
    let memo = &*memo;
    pool.par_map(ctx.budget, &tms, |i, tm| -> Result<f64, CoreError> {
        let _cand = dcn_obs::span!(dcn_obs::names::CORE_NEARWORST_CANDIDATE);
        let r = match &cached[i] {
            Some(r) => r.clone(),
            None => ctx.cache.get_or_compute(
                || keys[i],
                || throughput_on_paths(&memo.pathset(tm)?, engine, ctx.budget),
            )?,
        };
        Ok(r.theta_lb)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcn_cache::prelude::*;
    use dcn_topo::jellyfish;

    #[test]
    fn search_never_increases_theta() {
        let mut rng = StdRng::seed_from_u64(3);
        let topo = jellyfish(20, 5, 4, &mut rng).unwrap();
        let r = adversarial_search(&topo, 10, 16, 0.1, 7, &unlimited_ctx()).unwrap();
        assert!(r.theta <= r.theta_start + 1e-9);
        assert!(r.tm.is_permutation(&topo));
        r.tm.check_hose(&topo).unwrap();
    }

    #[test]
    fn maximal_permutation_is_near_local_minimum() {
        // On a small expander the matching-based worst case should leave
        // little room for descent: any improvement found is small relative
        // to the throughput itself (within the FPTAS's eps plus slack).
        let mut rng = StdRng::seed_from_u64(5);
        let topo = jellyfish(16, 4, 3, &mut rng).unwrap();
        let r = adversarial_search(&topo, 20, 16, 0.05, 11, &unlimited_ctx()).unwrap();
        let descent = (r.theta_start - r.theta) / r.theta_start.max(1e-9);
        assert!(
            descent < 0.15,
            "local search descended {:.1}% below the maximal permutation \
             ({} -> {})",
            descent * 100.0,
            r.theta_start,
            r.theta
        );
    }
}
