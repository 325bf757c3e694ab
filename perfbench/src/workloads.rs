//! The three workloads: set-up, the timed operation, the output checks
//! (outside the timed region), and the per-layer readout.

use crate::inputs::{self, FabricSpec, McfSpec, QueryLine, BATCH, H};
use crate::passes::{self, median, percentile, run_passes, span_total, Ops, Timed};
use crate::{Scale, Workload};
use dcn_cache::prelude::unlimited_ctx;
use dcn_cache::{CacheHandle, KeyBuilder, SolveCtx, DEFAULT_CACHE_BYTES};
use dcn_core::universal::{universal_tub, UniRegularParams};
use dcn_core::{tub, MatchingBackend, TubResult};
use dcn_dcnd::{Daemon, DaemonConfig};
use dcn_estimators::{HoeflerMethod, ThroughputEstimator};
use dcn_graph::DistMatrix;
use dcn_mcf::{ksp_mcf_throughput, Engine};
use dcn_model::{Topology, TrafficMatrix};
use dcn_obs::json::Json;
use std::collections::BTreeMap;
use std::time::Instant;

/// The backend `fig8` and `dcnd` use, and so the one `tub_sweep` drives.
pub const BACKEND: MatchingBackend = MatchingBackend::Auto { exact_below: 600 };

/// Set-up repeats at least this often per run, and more (up to
/// [`SETUP_MAX`]) while the repeats so far took under [`SETUP_BUDGET_S`];
/// `setup_s` is their median.
const SETUP_MIN: usize = 3;
const SETUP_MAX: usize = 31;
const SETUP_BUDGET_S: f64 = 2.0;

/// Slack for floating-point comparisons in the bound chain.
const TOL: f64 = 1e-9;

/// The outcome of one leg (one process, one `DCN_OBS` mode).
#[derive(Debug)]
pub struct Leg {
    /// Operations run.
    pub attempted: u64,
    /// Operations that errored, disagreed with the first pass, or failed
    /// the output check.
    pub failed: u64,
    /// Latency samples above the p90 rank.
    pub beyond_p90: usize,
    /// Digest of the first pass's outputs.
    pub digest: String,
    /// End-to-end and per-layer metrics by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Counters the workload exists to exercise that read zero.
    pub silent: Vec<&'static str>,
}

/// Runs `w` once: set-up (repeated), the timed passes, the checks, and
/// the readout.
pub fn run(w: Workload, seed: u64, seconds: f64, scale: Scale) -> Result<Leg, String> {
    match w {
        Workload::TubSweep => run_with::<TubSweep>(seed, seconds, scale),
        Workload::KspMcf => run_with::<KspMcf>(seed, seconds, scale),
        Workload::DcndMix => run_with::<DcndMix>(seed, seconds, scale),
    }
}

/// What each workload adds to the generic pass loop.
trait Bench: Ops + Sized {
    /// Fresh inputs, and the seconds spent in `Family::build`.
    fn setup(seed: u64, scale: Scale) -> Result<(Self, f64), String>;
    /// One verdict per first-pass operation.
    fn check(&self, first: &[Result<Self::Out, String>]) -> Vec<Result<(), String>>;
    /// Folds the first pass's outputs into the digest.
    fn digest(&self, kb: KeyBuilder, out: &Self::Out) -> KeyBuilder;
    /// Workload-specific per-layer metrics.
    fn layer(&self, t: &Timed<Self::Out>, m: &mut BTreeMap<&'static str, f64>);
    /// Per-layer counters this workload exists to exercise.
    const NONZERO: &'static [&'static str];
}

fn run_with<B: Bench>(seed: u64, seconds: f64, scale: Scale) -> Result<Leg, String> {
    let mut setup_s = Vec::new();
    let mut build_s = Vec::new();
    let mut bench = None;
    while setup_s.len() < SETUP_MIN
        || (setup_s.len() < SETUP_MAX && setup_s.iter().sum::<f64>() < SETUP_BUDGET_S)
    {
        let start = Instant::now();
        let (b, build) = B::setup(seed, scale)?;
        setup_s.push(start.elapsed().as_secs_f64());
        build_s.push(build);
        // Drop the previous repetition's inputs outside the timer.
        bench = Some(b);
    }
    let mut bench = bench.expect("at least one set-up repetition");
    let min_ops = match scale {
        Scale::Full => 100,
        Scale::Tiny => 1,
    };
    let t = run_passes(&mut bench, seconds, min_ops);
    let peak_rss_mb = passes::peak_rss_mb();

    let verdicts = bench.check(&t.first);
    let mut failed = 0u64;
    for (k, &i) in t.index.iter().enumerate() {
        if t.bad[k] || verdicts[i].is_err() {
            failed += 1;
        }
    }
    for (i, v) in verdicts.iter().enumerate() {
        if let Err(e) = v {
            eprintln!("check failed on operation {i}: {e}");
        }
    }
    let mut kb = KeyBuilder::new("perfbench.digest");
    for out in &t.first {
        kb = match out {
            Ok(o) => bench.digest(kb, o),
            Err(e) => kb.str(e),
        };
    }

    let n = t.lat_s.len();
    let mut sorted = t.lat_s[t.timed_from..].to_vec();
    sorted.sort_by(f64::total_cmp);
    let p90_rank = (0.9 * sorted.len() as f64).ceil() as usize;
    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    m.insert("ops_per_s", median(&t.pass_rates));
    m.insert("op_p50_ms", 1e3 * percentile(&sorted, 0.5));
    m.insert("op_p90_ms", 1e3 * percentile(&sorted, 0.9));
    m.insert("ok_frac", 1.0 - failed as f64 / n as f64);
    m.insert("setup_s", median(&setup_s));
    m.insert("peak_rss_mb", peak_rss_mb);
    layer_metrics(&t, median(&build_s), &mut m);
    bench.layer(&t, &mut m);
    let silent = B::NONZERO
        .iter()
        .copied()
        .filter(|name| m.get(name).copied().unwrap_or(0.0) == 0.0)
        .collect();
    Ok(Leg {
        attempted: n as u64,
        failed,
        beyond_p90: sorted.len() - p90_rank,
        digest: kb.finish().to_hex(),
        metrics: m,
        silent,
    })
}

/// Per-layer metrics every workload reports, from the first pass's
/// counter and span deltas. Spans read zero unless `DCN_OBS` records them.
fn layer_metrics<T>(t: &Timed<T>, build_s: f64, m: &mut BTreeMap<&'static str, f64>) {
    use dcn_obs::names as n;
    let c = |name: &str| t.counters.get(name).copied().unwrap_or(0.0);
    let s = |leaf: &str| span_total(&t.spans, leaf);
    m.insert("topo.build_s", build_s);
    m.insert("match.matching_s", s(n::CORE_TUB_MATCHING));
    m.insert("graph.apsp_s", s(n::CORE_TUB_APSP));
    m.insert("graph.bfs_runs", c(n::GRAPH_DIST_BFS_RUNS));
    m.insert("core.tub_s", s(n::CORE_TUB));
    m.insert("core.tub.fallbacks", c(n::CORE_TUB_FALLBACKS));
    m.insert("lp.simplex_s", s(n::LP_SIMPLEX_SOLVE));
    m.insert("lp.pivots", c(n::LP_SIMPLEX_PIVOTS));
    m.insert("lp.degenerate_pivots", c(n::LP_SIMPLEX_DEGENERATE_PIVOTS));
    m.insert("lp.refactorizations", c(n::LP_SIMPLEX_REFACTORIZATIONS));
    m.insert("mcf.exact_s", s(n::MCF_EXACT_SOLVE));
    m.insert("mcf.exact.columns", c(n::MCF_EXACT_COLUMNS));
    m.insert("mcf.exact.rows", c(n::MCF_EXACT_ROWS));
    m.insert("mcf.fptas_s", s(n::MCF_FPTAS_SOLVE));
    m.insert("mcf.fptas.phases", c(n::MCF_FPTAS_PHASES));
    m.insert("mcf.fptas.augmentations", c(n::MCF_FPTAS_AUGMENTATIONS));
    m.insert(
        "graph.ksp.dfs_expansions",
        c(n::GRAPH_KSP_SLACK_DFS_EXPANSIONS),
    );
    m.insert("partition.bisection_s", s(n::PARTITION_BISECT_BISECTION));
    m.insert("partition.fm.passes", c(n::PARTITION_FM_PASSES));
    m.insert("partition.fm.moves", c(n::PARTITION_FM_MOVES));
    let (hit, miss) = (c(n::CACHE_HIT), c(n::CACHE_MISS));
    m.insert("cache.hit", hit);
    m.insert("cache.miss", miss);
    m.insert("cache.evict", c(n::CACHE_EVICT));
    m.insert(
        "cache.hit_ratio",
        if hit + miss > 0.0 {
            hit / (hit + miss)
        } else {
            0.0
        },
    );
    m.insert("exec.tasks", c(n::EXEC_POOL_TASKS));
    let threads = dcn_exec::Pool::from_env().threads() as f64;
    m.insert(
        "exec.busy_frac",
        c(n::EXEC_POOL_WORKER_BUSY_NS) * 1e-9 / (threads * t.first_pass_s),
    );
    m.insert("dcnd.solve_s", s(n::DCND_SOLVE));
    m.insert("dcnd.queries.ok", c(n::DCND_QUERIES_OK));
    m.insert("dcnd.queries.rejected", c(n::DCND_QUERIES_REJECTED));
    m.insert("dcnd.queries.error", c(n::DCND_QUERIES_ERROR));
    m.insert("dcnd.queries.deduped", c(n::DCND_QUERIES_DEDUPED));
    m.insert("match.exact_ops", 0.0);
    m.insert("match.greedy_ops", 0.0);
    m.insert("dcnd.batch_s", 0.0);
    m.insert("dcnd.overhead_s", 0.0);
}

/// Theorem 4.1's bound for a fabric, where it applies: every switch hosts
/// the same `H`, every link has unit capacity, and the network degree is
/// at most `radix − H` (fewer links only lower throughput).
fn universal(topo: &Topology) -> Option<f64> {
    let g = topo.graph();
    let uniform = topo.servers().iter().all(|&h| h == H) && g.total_capacity() == g.m() as f64;
    let r_net = (0..g.n() as u32).map(|u| g.degree(u)).max()? as u32;
    uniform
        .then(|| {
            universal_tub(UniRegularParams {
                n_servers: topo.n_servers(),
                radix: r_net + H,
                h: H,
            })
        })
        .flatten()
}

/// Checks that `r` is a valid bound for its own permutation: the pairs
/// form a partial permutation of the server switches, and recomputing
/// Equation 1 from fresh BFS distances gives the reported bound.
fn check_permutation(topo: &Topology, r: &TubOut) -> Result<DistMatrix, String> {
    let k = topo.switches_with_servers();
    let dist = DistMatrix::from_sources(topo.graph(), &k).map_err(|e| e.to_string())?;
    let n = topo.n_switches();
    let (mut src, mut dst) = (vec![false; n], vec![false; n]);
    let mut weighted = 0.0;
    for &(u, v) in &r.pairs {
        let (ui, vi) = (u as usize, v as usize);
        if ui >= n || vi >= n || u == v || src[ui] || dst[vi] {
            return Err(format!("pair ({u}, {v}) breaks the permutation"));
        }
        if topo.servers_at(u) == 0 || topo.servers_at(v) == 0 {
            return Err(format!("pair ({u}, {v}) breaks the permutation"));
        }
        src[ui] = true;
        dst[vi] = true;
        weighted += dist.dist(u, v) as f64 * topo.servers_at(u).min(topo.servers_at(v)) as f64;
    }
    let bound = 2.0 * topo.graph().total_capacity() / weighted;
    if (bound - r.bound).abs() > TOL * bound {
        return Err(format!(
            "reported bound {} but its permutation gives {bound}",
            r.bound
        ));
    }
    Ok(dist)
}

// ---------------------------------------------------------------------------
// tub_sweep

/// One `tub()` answer, compared bit for bit across passes.
#[derive(Debug, Clone, PartialEq)]
pub struct TubOut {
    /// The bound.
    pub bound: f64,
    /// The backend that produced it.
    pub backend: &'static str,
    /// The maximal permutation.
    pub pairs: Vec<(u32, u32)>,
    /// The fallback flag.
    pub fallback: bool,
}

impl From<TubResult> for TubOut {
    fn from(r: TubResult) -> TubOut {
        TubOut {
            bound: r.bound,
            backend: r.backend,
            pairs: r.pairs,
            fallback: r.fallback,
        }
    }
}

struct TubSweep {
    topos: Vec<Topology>,
    cache: CacheHandle,
}

fn build_all(specs: impl Iterator<Item = FabricSpec>) -> Result<(Vec<Topology>, f64), String> {
    let start = Instant::now();
    let topos = specs
        .map(|s| s.build().map_err(|e| format!("building {s:?}: {e}")))
        .collect::<Result<Vec<_>, _>>()?;
    Ok((topos, start.elapsed().as_secs_f64()))
}

impl Ops for TubSweep {
    type Out = TubOut;
    fn pass_len(&self) -> usize {
        self.topos.len()
    }
    fn fresh_pass(&mut self) {
        self.cache = CacheHandle::in_memory(DEFAULT_CACHE_BYTES);
    }
    fn run(&mut self, i: usize) -> Result<TubOut, String> {
        let _span = dcn_obs::span!("perfbench.tub_sweep.op");
        tub(&self.topos[i], BACKEND, &SolveCtx::unlimited(&self.cache))
            .map(TubOut::from)
            .map_err(|e| e.to_string())
    }
}

/// Verifies one `tub_sweep` answer: the reported bound matches its own
/// permutation, and the chain exact ≤ greedy ≤ universal holds. An exact
/// answer is compared against a fresh greedy solve; a greedy answer
/// against `2E / Σ_i max_j w_ij`, a certified lower bound on the exact
/// bound (no permutation weighs more than the sum of row maxima).
pub fn check_tub(topo: &Topology, r: &TubOut) -> Result<(), String> {
    let dist = check_permutation(topo, r)?;
    if r.fallback {
        return Err("unexpected fallback under an unlimited budget".into());
    }
    let capacity = 2.0 * topo.graph().total_capacity();
    let exact_floor = if r.backend == "hungarian" {
        let greedy = tub(
            topo,
            MatchingBackend::Greedy {
                improvement_passes: 2,
            },
            &unlimited_ctx(),
        )
        .map_err(|e| e.to_string())?;
        if r.bound > greedy.bound + TOL {
            return Err(format!(
                "exact bound {} above greedy bound {}",
                r.bound, greedy.bound
            ));
        }
        r.bound
    } else {
        let k = topo.switches_with_servers();
        let row_max_sum: f64 = k
            .iter()
            .map(|&u| {
                k.iter()
                    .map(|&v| {
                        dist.dist(u, v) as f64 * topo.servers_at(u).min(topo.servers_at(v)) as f64
                    })
                    .fold(0.0, f64::max)
            })
            .sum();
        capacity / row_max_sum
    };
    if exact_floor > r.bound + TOL {
        return Err(format!(
            "greedy bound {} below the exact floor {exact_floor}",
            r.bound
        ));
    }
    if let Some(u) = universal(topo) {
        if r.bound > u + TOL {
            return Err(format!("bound {} above the Theorem 4.1 bound {u}", r.bound));
        }
    }
    Ok(())
}

impl Bench for TubSweep {
    fn setup(seed: u64, scale: Scale) -> Result<(Self, f64), String> {
        let (topos, build_s) = build_all(inputs::tub_sweep(seed, scale).into_iter())?;
        Ok((
            TubSweep {
                topos,
                cache: CacheHandle::disabled(),
            },
            build_s,
        ))
    }

    fn check(&self, first: &[Result<TubOut, String>]) -> Vec<Result<(), String>> {
        first
            .iter()
            .zip(&self.topos)
            .map(|(out, topo)| check_tub(topo, out.as_ref().map_err(Clone::clone)?))
            .collect()
    }

    fn digest(&self, kb: KeyBuilder, o: &TubOut) -> KeyBuilder {
        let kb = kb.f64(o.bound).str(o.backend).bool(o.fallback);
        o.pairs
            .iter()
            .fold(kb, |kb, &(u, v)| kb.u64(u as u64).u64(v as u64))
    }

    fn layer(&self, t: &Timed<TubOut>, m: &mut BTreeMap<&'static str, f64>) {
        let count = |f: fn(&TubOut) -> bool| {
            t.first.iter().filter(|o| o.as_ref().is_ok_and(f)).count() as f64
        };
        m.insert("match.exact_ops", count(|o| o.backend == "hungarian"));
        m.insert(
            "match.greedy_ops",
            count(|o| o.backend.starts_with("greedy")),
        );
    }

    const NONZERO: &'static [&'static str] = &[
        "graph.bfs_runs",
        "match.exact_ops",
        "match.greedy_ops",
        "cache.miss",
    ];
}

// ---------------------------------------------------------------------------
// ksp_mcf

struct McfInstance {
    spec: McfSpec,
    topo: Topology,
    tm: TrafficMatrix,
    tub: f64,
}

struct KspMcf {
    insts: Vec<McfInstance>,
    cache: CacheHandle,
}

/// The engine a spec asks for: the dense simplex, or the `fig5` FPTAS.
pub fn engine(spec: &McfSpec) -> Engine {
    if spec.exact {
        Engine::Exact
    } else {
        Engine::Fptas { eps: 0.03 }
    }
}

impl Ops for KspMcf {
    type Out = (f64, f64);
    fn pass_len(&self) -> usize {
        self.insts.len()
    }
    fn fresh_pass(&mut self) {
        self.cache = CacheHandle::in_memory(DEFAULT_CACHE_BYTES);
    }
    fn run(&mut self, i: usize) -> Result<(f64, f64), String> {
        let inst = &self.insts[i];
        let _span = dcn_obs::span!(if inst.spec.exact {
            "perfbench.ksp_mcf.exact_op"
        } else {
            "perfbench.ksp_mcf.fptas_op"
        });
        let ctx = SolveCtx::unlimited(&self.cache);
        ksp_mcf_throughput(&inst.topo, &inst.tm, inst.spec.k, engine(&inst.spec), &ctx)
            .map(|r| (r.theta_lb, r.theta_ub))
            .map_err(|e| e.to_string())
    }
}

/// Verifies one `ksp_mcf` answer against the bound chain
/// `feasible ≤ θ ≤ TUB ≤ Thm 4.1 universal`. `feasible` is Hoefler's
/// equal-split flow on the same K paths, a feasible routing and so a
/// lower bound on the path LP's optimum. (The paper's Thm 8.4 lower bound
/// rests on an assumption about the optimal flow that the solver's output
/// cannot confirm, and it exceeds the exact θ on some of these fabrics;
/// see `NOTES.md`.) Exact answers must be a single point; FPTAS answers
/// must bracket it: θ_lb ≤ θ_ub, θ_lb ≤ TUB and feasible ≤ θ_ub.
pub fn check_mcf(
    topo: &Topology,
    tm: &TrafficMatrix,
    spec: &McfSpec,
    tub: f64,
    (theta_lb, theta_ub): (f64, f64),
) -> Result<(), String> {
    if theta_lb > theta_ub + TOL {
        return Err(format!("bracket [{theta_lb}, {theta_ub}] is inverted"));
    }
    if theta_lb > tub + TOL {
        return Err(format!("throughput {theta_lb} above TUB {tub}"));
    }
    if let Some(u) = universal(topo) {
        if tub > u + TOL {
            return Err(format!("TUB {tub} above the Theorem 4.1 bound {u}"));
        }
    }
    if spec.exact && theta_lb != theta_ub {
        return Err(format!(
            "exact solve returned a bracket [{theta_lb}, {theta_ub}]"
        ));
    }
    let feasible = HoeflerMethod { k: spec.k }
        .estimate(topo, tm, &unlimited_ctx())
        .map_err(|e| e.to_string())?;
    if feasible > theta_ub + TOL {
        return Err(format!(
            "a feasible flow reaches {feasible}, above θ_ub {theta_ub}"
        ));
    }
    Ok(())
}

impl Bench for KspMcf {
    fn setup(seed: u64, scale: Scale) -> Result<(Self, f64), String> {
        let specs = inputs::ksp_mcf(seed, scale);
        let (topos, build_s) = build_all(specs.iter().map(|s| s.fabric))?;
        let insts = specs
            .into_iter()
            .zip(topos)
            .map(|(spec, topo)| {
                // The maximal-permutation TM, from an uncached exact solve.
                let ub = tub(&topo, MatchingBackend::Exact, &unlimited_ctx())
                    .map_err(|e| e.to_string())?;
                let tm = ub.traffic_matrix(&topo).map_err(|e| e.to_string())?;
                Ok(McfInstance {
                    spec,
                    topo,
                    tm,
                    tub: ub.bound,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok((
            KspMcf {
                insts,
                cache: CacheHandle::disabled(),
            },
            build_s,
        ))
    }

    fn check(&self, first: &[Result<(f64, f64), String>]) -> Vec<Result<(), String>> {
        first
            .iter()
            .zip(&self.insts)
            .map(|(out, inst)| {
                let &theta = out.as_ref().map_err(Clone::clone)?;
                check_mcf(&inst.topo, &inst.tm, &inst.spec, inst.tub, theta)
            })
            .collect()
    }

    fn digest(&self, kb: KeyBuilder, o: &(f64, f64)) -> KeyBuilder {
        kb.f64(o.0).f64(o.1)
    }

    fn layer(&self, t: &Timed<(f64, f64)>, m: &mut BTreeMap<&'static str, f64>) {
        m.insert(
            "exact_ops_s",
            span_total(&t.spans, "perfbench.ksp_mcf.exact_op"),
        );
    }

    const NONZERO: &'static [&'static str] = &[
        "lp.pivots",
        "mcf.exact.columns",
        "mcf.fptas.phases",
        "mcf.fptas.augmentations",
        "graph.ksp.dfs_expansions",
        "exec.tasks",
        "cache.miss",
    ];
}

// ---------------------------------------------------------------------------
// dcnd_mix

struct DcndMix {
    lines: Vec<QueryLine>,
    batches: Vec<Vec<String>>,
    daemon: Daemon,
    seed: u64,
}

impl Ops for DcndMix {
    type Out = Vec<String>;
    fn pass_len(&self) -> usize {
        self.batches.len()
    }
    fn fresh_pass(&mut self) {
        self.daemon = Daemon::new(DaemonConfig::from_env());
    }
    fn run(&mut self, i: usize) -> Result<Vec<String>, String> {
        let _span = dcn_obs::span!("perfbench.dcnd_mix.op");
        Ok(self.daemon.process_batch(&self.batches[i]))
    }
}

/// The value of an `ok` response, or why the response is not one.
pub fn response_value(response: &str) -> Result<f64, String> {
    let j = Json::parse(response).map_err(|e| format!("bad response {response}: {e}"))?;
    match (
        j.get("status").and_then(Json::as_str),
        j.get("value").and_then(Json::as_f64),
    ) {
        (Some("ok"), Some(v)) => Ok(v),
        _ => Err(format!("not answered: {response}")),
    }
}

/// Size of the seeded subset re-solved on an uncached daemon.
const RESOLVE_SUBSET: usize = 24;

impl Bench for DcndMix {
    fn setup(seed: u64, scale: Scale) -> Result<(Self, f64), String> {
        let lines = inputs::dcnd_mix(seed, scale);
        let batches = lines
            .chunks(BATCH)
            .map(|c| c.iter().map(|q| q.line.clone()).collect())
            .collect();
        let daemon = Daemon::new(DaemonConfig::from_env());
        Ok((
            DcndMix {
                lines,
                batches,
                daemon,
                seed,
            },
            0.0,
        ))
    }

    /// Every query is answered; every occurrence of a triple (however
    /// spelled, hit, dedup or cold) answers bit-identically; and a seeded
    /// subset of triples re-solved on an uncached daemon matches too.
    fn check(&self, first: &[Result<Vec<String>, String>]) -> Vec<Result<(), String>> {
        let mut verdicts: Vec<Result<(), String>> = vec![Ok(()); first.len()];
        let mut answer: BTreeMap<usize, (u64, usize)> = BTreeMap::new();
        for (b, out) in first.iter().enumerate() {
            let responses = match out {
                Ok(r) if r.len() == self.batches[b].len() => r,
                Ok(r) => {
                    verdicts[b] = Err(format!(
                        "{} responses to {} queries",
                        r.len(),
                        self.batches[b].len()
                    ));
                    continue;
                }
                Err(e) => {
                    verdicts[b] = Err(e.clone());
                    continue;
                }
            };
            for (q, resp) in responses.iter().enumerate() {
                let ident = self.lines[b * BATCH + q].ident;
                let verdict = response_value(resp).and_then(|v| {
                    let &mut (bits, _) = answer.entry(ident).or_insert((v.to_bits(), b));
                    if bits == v.to_bits() {
                        Ok(())
                    } else {
                        Err(format!(
                            "triple {ident} answered {v} and {}",
                            f64::from_bits(bits)
                        ))
                    }
                });
                if verdict.is_err() && verdicts[b].is_ok() {
                    verdicts[b] = verdict;
                }
            }
        }
        // Re-solve a seeded subset of triples without a cache.
        let uncached = Daemon::with_cache(DaemonConfig::from_env(), CacheHandle::disabled());
        let idents: Vec<usize> = answer.keys().copied().collect();
        let step = (idents.len() / RESOLVE_SUBSET).max(1);
        let offset = (self.seed as usize) % step;
        let subset: Vec<usize> = idents.iter().copied().skip(offset).step_by(step).collect();
        let lines: Vec<String> = subset
            .iter()
            .map(|&id| {
                self.lines
                    .iter()
                    .find(|q| q.ident == id)
                    .expect("ident has a line")
                    .line
                    .clone()
            })
            .collect();
        for chunk in subset.iter().zip(&lines).collect::<Vec<_>>().chunks(BATCH) {
            let batch: Vec<String> = chunk.iter().map(|(_, l)| (*l).clone()).collect();
            for ((&ident, _), resp) in chunk.iter().zip(uncached.process_batch(&batch)) {
                let (bits, b) = answer[&ident];
                let verdict = response_value(&resp).and_then(|v| {
                    if v.to_bits() == bits {
                        Ok(())
                    } else {
                        Err(format!(
                            "triple {ident}: cached {} but uncached {v}",
                            f64::from_bits(bits)
                        ))
                    }
                });
                if verdict.is_err() && verdicts[b].is_ok() {
                    verdicts[b] = verdict;
                }
            }
        }
        verdicts
    }

    fn digest(&self, kb: KeyBuilder, o: &Vec<String>) -> KeyBuilder {
        o.iter().fold(kb, |kb, r| kb.str(r))
    }

    fn layer(&self, t: &Timed<Vec<String>>, m: &mut BTreeMap<&'static str, f64>) {
        let batch_s: f64 = t.lat_s[..self.batches.len()].iter().sum();
        m.insert("dcnd.batch_s", batch_s);
        m.insert("dcnd.overhead_s", batch_s - m["dcnd.solve_s"]);
    }

    const NONZERO: &'static [&'static str] = &[
        "cache.hit",
        "cache.miss",
        "dcnd.queries.ok",
        "dcnd.queries.deduped",
        "partition.fm.passes",
        "graph.ksp.dfs_expansions",
        "graph.bfs_runs",
        "exec.tasks",
    ];
}
