//! Delta-TUB: incremental tub recomputation across perturbed siblings.
//!
//! A failure sweep solves thousands of degraded copies of one parent
//! topology. The tub pipeline (BFS distance matrix → maximum-weight
//! matching → Equation 1) recomputes everything per sample, yet a failed
//! trunk only perturbs the distances of sources it carried shortest paths
//! for, and only perturbs matching weights in those sources' rows. This
//! module keeps the parent's [`DistMatrix`] and Hungarian dual state and,
//! per sample:
//!
//! 1. diffs the child's edge list against the parent to find *vanished*
//!    endpoint pairs (a multigraph trunk must lose **all** its parallel
//!    links before any distance can change);
//! 2. marks a source dirty iff some vanished pair is *tight* for it
//!    (`|d(s,u) − d(s,v)| == 1`) — the necessary condition for the trunk
//!    to lie on any shortest path from `s`, so clean rows are provably
//!    unchanged and copied verbatim ([`DistMatrix::rebuild_rows`]);
//! 3. re-matches against the parent's dual potentials via
//!    [`HungarianState::rematch_auto`], which re-augments only rows whose
//!    dual feasibility or assigned-edge tightness is actually violated
//!    under the new weights — distance growth smaller than a row's dual
//!    slack perturbs nothing, so most rows survive even when most
//!    distances moved.
//!
//! The rematched permutation can differ from the cold Hungarian's — both
//! are optimal — but its total weight is integer-exact equal, so the
//! resulting `bound` is **bit-identical** to a cold exact tub. Any error
//! in the delta path (budget, disconnection races) falls back to the cold
//! solver, counted in `delta.fallback`.
//!
//! This is the only way a resilience sweep solves its samples. The parent
//! is solved lazily, at most once per sweep, and only when some lookup
//! misses the cache: the sweep's own θ0 (cached under the cold `tub` key
//! — it is the same Hungarian solve [`tub`] runs, so the entry is
//! interchangeable) or a sample (cached under a `tub_delta` key chained
//! off the parent's key). A warm rerun therefore runs no BFS and no
//! matching at all. Greedy backends have no dual state to reuse, so they
//! solve every sample with cold [`tub`], which also stays the library
//! entry point and the oracle the tests compare against.

use crate::tub::{equation_1, pair_weight, tub, tub_key, tub_uncached, MatchingBackend, TubResult};
use crate::CoreError;
use dcn_cache::{CacheKey, KeyBuilder, SolveCtx};
use dcn_graph::{DistMatrix, NodeId};
use dcn_guard::Budget;
use dcn_match::{hungarian_max_stateful, HungarianState};
use dcn_model::Topology;
use std::collections::HashSet;
use std::sync::OnceLock;

/// The per-sample tub of one failure sweep over `topo`.
pub(crate) struct TubDelta<'a> {
    topo: &'a Topology,
    backend: MatchingBackend,
    /// True when `backend` runs the exact Hungarian on `topo`, the only
    /// case with dual state to delta off.
    exact: bool,
    parent_key: CacheKey,
    /// Filled by the first lookup that misses; `None` inside means the
    /// parent could not be solved exactly and samples go cold.
    parent: OnceLock<Option<Parent>>,
}

/// The unfailed fabric's server-hosting switches, distance matrix, the
/// Hungarian dual state of its maximal permutation, and its own tub.
struct Parent {
    k: Vec<NodeId>,
    dist: DistMatrix,
    state: HungarianState,
    tub: TubResult,
}

impl<'a> TubDelta<'a> {
    /// Sets up the sweep without solving anything.
    pub(crate) fn new(topo: &'a Topology, backend: MatchingBackend) -> TubDelta<'a> {
        let n = topo.switches_with_servers().len();
        TubDelta {
            topo,
            backend,
            exact: n >= 2 && backend.runs_exact(n),
            parent_key: tub_key(topo, backend),
            parent: OnceLock::new(),
        }
    }

    /// The unfailed fabric's tub, identical to `tub(topo, backend, ctx)`
    /// and cached under the same key. On a miss it comes from the parent
    /// solve the samples delta off; if that solve fails, the cold
    /// pipeline (whose chain degrades to greedy) answers instead.
    pub(crate) fn parent_tub(&self, ctx: &SolveCtx<'_>) -> Result<TubResult, CoreError> {
        if !self.exact {
            return tub(self.topo, self.backend, ctx);
        }
        ctx.cache.get_or_compute(
            || self.parent_key,
            || match self.parent(ctx.budget) {
                Some(p) => Ok(p.tub.clone()),
                None => tub_uncached(self.topo, self.backend, ctx.budget),
            },
        )
    }

    /// The tub of a link-degraded copy of the parent, bit-identical in
    /// `bound` to `tub(child, backend, ctx)`. Any error in the delta path
    /// (budget exhaustion mid-rematch, a child that disconnected a
    /// source) bumps `delta.fallback` and recomputes from scratch, so the
    /// answer is never weaker than a cold one.
    pub(crate) fn child_tub(
        &self,
        child: &Topology,
        ctx: &SolveCtx<'_>,
    ) -> Result<TubResult, CoreError> {
        if !self.exact {
            return tub(child, self.backend, ctx);
        }
        ctx.cache.get_or_compute(
            || {
                KeyBuilder::new("tub_delta")
                    .key(&self.parent_key)
                    .topology(child)
                    .finish()
            },
            || {
                let Some(p) = self.parent(ctx.budget) else {
                    return tub_uncached(child, self.backend, ctx.budget);
                };
                p.rematch(self.topo, child, ctx.budget).or_else(|e| {
                    dcn_obs::counter!(dcn_obs::names::DELTA_FALLBACK).inc();
                    dcn_obs::obs_log!("core.delta: tub delta failed ({e}); cold recompute");
                    tub_uncached(child, self.backend, ctx.budget)
                })
            },
        )
    }

    fn parent(&self, budget: &Budget) -> Option<&Parent> {
        self.parent
            .get_or_init(|| Parent::solve(self.topo, budget))
            .as_ref()
    }
}

impl Parent {
    /// The exact half of the cold tub pipeline, keeping the dual state.
    /// `None` when the APSP or the Hungarian fails (a disconnected or
    /// budget-starved parent is not worth trusting).
    fn solve(topo: &Topology, budget: &Budget) -> Option<Parent> {
        let _span = dcn_obs::span!(dcn_obs::names::CORE_TUB);
        let k = topo.switches_with_servers();
        let dist = {
            let _apsp = dcn_obs::span!(dcn_obs::names::CORE_TUB_APSP);
            DistMatrix::from_sources(topo.graph(), &k).ok()?
        };
        let weight = |i: usize, j: usize| pair_weight(topo, &k, &dist, i, j);
        let (matching, state) = {
            let _m = dcn_obs::span!(dcn_obs::names::CORE_TUB_MATCHING);
            hungarian_max_stateful(k.len(), weight, budget).ok()?
        };
        let tub = equation_1(topo, &k, &matching.assignment, weight, "hungarian", false).ok()?;
        dcn_obs::gauge!(dcn_obs::names::CORE_TUB_BOUND).set(tub.bound);
        Some(Parent { k, dist, state, tub })
    }

    /// Incremental tub of a degraded sibling of `topo`.
    fn rematch(
        &self,
        topo: &Topology,
        child: &Topology,
        budget: &Budget,
    ) -> Result<TubResult, CoreError> {
        // The delta is only valid against a link-degraded copy of the
        // parent: same switches, same server placement. Anything else
        // routes to the cold fallback.
        if child.servers() != topo.servers() {
            return Err(CoreError::OutOfRegime(
                "delta child has different server placement than parent".into(),
            ));
        }
        // 1. Vanished endpoint pairs: trunks whose every parallel link
        // failed. Only these can change any distance.
        let norm = |&(u, v): &(NodeId, NodeId)| if u < v { (u, v) } else { (v, u) };
        let alive: HashSet<_> = child.graph().edges().iter().map(norm).collect();
        let vanished: HashSet<_> =
            topo.graph().edges().iter().map(norm).filter(|p| !alive.contains(p)).collect();
        // 2. Dirty sources: some vanished trunk is tight from their side.
        let dirty_nodes: Vec<NodeId> = self
            .k
            .iter()
            .copied()
            .filter(|&s| {
                let row = self.dist.row(s);
                vanished.iter().any(|&(u, v)| {
                    (row[u as usize] as i32 - row[v as usize] as i32).abs() == 1
                })
            })
            .collect();
        // 3. Selective BFS + warm rematch.
        let rebuilt;
        let dist: &DistMatrix = if dirty_nodes.is_empty() {
            &self.dist
        } else {
            rebuilt = self.dist.rebuild_rows(child.graph(), &dirty_nodes)?;
            &rebuilt
        };
        dcn_obs::counter!(dcn_obs::names::DELTA_DIST_ROWS_REBUILT).add(dirty_nodes.len() as u64);
        let weight = |i: usize, j: usize| pair_weight(child, &self.k, dist, i, j);
        // Tightness is only a *superset*: on an expander nearly every
        // source is tight for some vanished trunk, and most sources see
        // *some* distance grow — but the Hungarian duals carry slack, and
        // a weight that moved less than its slack perturbs nothing. Let
        // the matcher derive the rows that genuinely need re-augmenting
        // from its own feasibility/tightness conditions.
        let (matching, _, reaugmented) = self.state.rematch_auto(weight, budget)?;
        dcn_obs::counter!(dcn_obs::names::DELTA_MATCHING_PATCHED).inc();
        dcn_obs::obs_log!(
            "core.delta: re-augmented {reaugmented}/{} matching rows",
            self.k.len()
        );
        // 4. Equation 1, exactly as the cold path assembles it. The
        // weighted path length is an exact integer sum, so the bound is
        // bit-identical to the cold Hungarian's even when the matched
        // permutation differs.
        equation_1(child, &self.k, &matching.assignment, weight, "hungarian", false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcn_cache::prelude::*;
    use dcn_topo::{fail_random_links, jellyfish};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn delta_tub_bound_is_bit_identical_to_cold() {
        let mut rng = StdRng::seed_from_u64(11);
        let topo = jellyfish(32, 6, 3, &mut rng).unwrap();
        let ctx = unlimited_ctx();
        let delta = TubDelta::new(&topo, MatchingBackend::Exact);
        assert!(delta.exact);
        let mut fail_rng = StdRng::seed_from_u64(23);
        let mut compared = 0;
        for _ in 0..12 {
            let Ok(child) = fail_random_links(&topo, 0.15, &mut fail_rng) else {
                continue;
            };
            let warm = delta.child_tub(&child, &ctx).unwrap();
            let cold = tub(&child, MatchingBackend::Exact, &ctx).unwrap();
            assert_eq!(warm.bound.to_bits(), cold.bound.to_bits(), "delta bound must match cold");
            assert_eq!(warm.weighted_path_len.to_bits(), cold.weighted_path_len.to_bits());
            assert!(!warm.fallback);
            compared += 1;
        }
        assert!(compared > 0, "no connected failure sample to compare");
    }

    #[test]
    fn parent_tub_is_the_cold_tub() {
        let mut rng = StdRng::seed_from_u64(3);
        let topo = jellyfish(20, 5, 4, &mut rng).unwrap();
        let ctx = unlimited_ctx();
        let warm = TubDelta::new(&topo, MatchingBackend::Exact).parent_tub(&ctx).unwrap();
        let cold = tub(&topo, MatchingBackend::Exact, &ctx).unwrap();
        assert_eq!(warm.bound.to_bits(), cold.bound.to_bits());
        assert_eq!(warm.pairs, cold.pairs);
        assert_eq!(warm.backend, cold.backend);
    }

    #[test]
    fn unperturbed_child_reuses_everything() {
        let mut rng = StdRng::seed_from_u64(3);
        let topo = jellyfish(20, 5, 4, &mut rng).unwrap();
        let ctx = unlimited_ctx();
        // "Failing" zero links: no vanished pair, no dirty source, and the
        // bound must equal the parent tub exactly.
        let warm = TubDelta::new(&topo, MatchingBackend::Exact).child_tub(&topo, &ctx).unwrap();
        let cold = tub(&topo, MatchingBackend::Exact, &ctx).unwrap();
        assert_eq!(warm.bound.to_bits(), cold.bound.to_bits());
    }

    #[test]
    fn greedy_backend_has_no_delta_parent() {
        let mut rng = StdRng::seed_from_u64(3);
        let topo = jellyfish(20, 5, 4, &mut rng).unwrap();
        let greedy = MatchingBackend::Greedy {
            improvement_passes: 2,
        };
        assert!(!TubDelta::new(&topo, greedy).exact);
        assert!(!TubDelta::new(&topo, MatchingBackend::Auto { exact_below: 2 }).exact);
        // Greedy samples are plain cold tubs.
        let ctx = unlimited_ctx();
        let warm = TubDelta::new(&topo, greedy).child_tub(&topo, &ctx).unwrap();
        let cold = tub(&topo, greedy, &ctx).unwrap();
        assert_eq!(warm.bound.to_bits(), cold.bound.to_bits());
        assert_eq!(warm.backend, "greedy+2swap");
    }

    #[test]
    fn budget_starved_delta_falls_back_to_cold() {
        let mut rng = StdRng::seed_from_u64(7);
        let topo = jellyfish(24, 5, 3, &mut rng).unwrap();
        let delta = TubDelta::new(&topo, MatchingBackend::Exact);
        delta.parent_tub(&nocache_ctx(&Budget::unlimited())).unwrap();
        let mut fail_rng = StdRng::seed_from_u64(5);
        let child = loop {
            if let Ok(c) = fail_random_links(&topo, 0.2, &mut fail_rng) {
                break c;
            }
        };
        // One tick: the rematch cannot finish, so the chain degrades to
        // the cold tub — which itself degrades to greedy and still
        // produces a sound bound rather than an error.
        let tiny = Budget::unlimited().with_iter_cap(1);
        let r = delta.child_tub(&child, &nocache_ctx(&tiny)).unwrap();
        assert!(r.bound > 0.0);
    }
}
