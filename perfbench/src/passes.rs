//! The timed loop shared by every workload, and the readouts taken around
//! it: latencies, per-pass rates, `dcn_obs` counter and span deltas, and
//! peak memory.
//!
//! A run replays one fixed pass of inputs: first one untimed warm-up pass,
//! then timed passes up to the pass boundary nearest to `--seconds`.
//! Each pass starts from a fresh cache (or a fresh daemon), so every pass
//! does the same work. The first (warm-up) pass is the deterministic unit:
//! its outputs are checked and digested, and the counters and spans are
//! read over it, so they repeat exactly between runs of one seed. Later
//! passes must reproduce the first pass's outputs bit for bit.

use dcn_obs::SpanStat;
use std::collections::BTreeMap;
use std::time::Instant;

/// A workload as the pass loop sees it: a fixed pass of operations.
pub trait Ops {
    /// One operation's output, compared bit for bit across passes.
    type Out: Clone + PartialEq;
    /// Operations per pass.
    fn pass_len(&self) -> usize;
    /// Resets per-pass state (a fresh cache or daemon); not timed.
    fn fresh_pass(&mut self);
    /// Runs operation `i` of the pass; timed.
    fn run(&mut self, i: usize) -> Result<Self::Out, String>;
}

/// Every counter the per-layer table reads, by `dcn_obs` name.
const COUNTERS: &[&str] = &[
    dcn_obs::names::GRAPH_DIST_BFS_RUNS,
    dcn_obs::names::CORE_TUB_FALLBACKS,
    dcn_obs::names::LP_SIMPLEX_PIVOTS,
    dcn_obs::names::LP_SIMPLEX_DEGENERATE_PIVOTS,
    dcn_obs::names::LP_SIMPLEX_REFACTORIZATIONS,
    dcn_obs::names::MCF_FPTAS_PHASES,
    dcn_obs::names::MCF_FPTAS_AUGMENTATIONS,
    dcn_obs::names::GRAPH_KSP_SLACK_DFS_EXPANSIONS,
    dcn_obs::names::PARTITION_FM_PASSES,
    dcn_obs::names::PARTITION_FM_MOVES,
    dcn_obs::names::CACHE_HIT,
    dcn_obs::names::CACHE_MISS,
    dcn_obs::names::CACHE_EVICT,
    dcn_obs::names::EXEC_POOL_TASKS,
    dcn_obs::names::DCND_QUERIES_OK,
    dcn_obs::names::DCND_QUERIES_REJECTED,
    dcn_obs::names::DCND_QUERIES_ERROR,
    dcn_obs::names::DCND_QUERIES_DEDUPED,
];

/// Histograms read as sums (total LP columns and rows, total worker busy
/// nanoseconds).
const HISTOGRAM_SUMS: &[&str] = &[
    dcn_obs::names::MCF_EXACT_COLUMNS,
    dcn_obs::names::MCF_EXACT_ROWS,
    dcn_obs::names::EXEC_POOL_WORKER_BUSY_NS,
];

/// Counter values and histogram sums, by name.
pub type Readings = BTreeMap<&'static str, f64>;

fn readings() -> Readings {
    let mut out: Readings = COUNTERS
        .iter()
        .map(|&n| (n, dcn_obs::counter_value(n) as f64))
        .collect();
    let snap = dcn_obs::snapshot();
    for &name in HISTOGRAM_SUMS {
        // One histogram is registered per call site; sum them all.
        let sum = snap
            .iter()
            .filter(|m| m.name == name && m.kind == "histogram")
            .map(|m| m.fields[0].1 * m.fields[1].1)
            .sum::<f64>();
        out.insert(name, sum.round());
    }
    out
}

fn spans() -> BTreeMap<String, SpanStat> {
    dcn_obs::span_snapshot().into_iter().collect()
}

/// The record of one timed run.
#[derive(Debug)]
pub struct Timed<T> {
    /// Latency of every operation, in seconds, in run order.
    pub lat_s: Vec<f64>,
    /// Operations in the warm-up pass: `lat_s[timed_from..]` are the
    /// timed ones.
    pub timed_from: usize,
    /// Pass index (`0..len`) of every operation, in run order.
    pub index: Vec<usize>,
    /// Operations that errored or disagreed with the first pass.
    pub bad: Vec<bool>,
    /// Operations per second of each timed pass.
    pub pass_rates: Vec<f64>,
    /// First-pass outputs.
    pub first: Vec<Result<T, String>>,
    /// First-pass counter deltas.
    pub counters: Readings,
    /// First-pass span deltas (empty unless `DCN_OBS` records spans).
    pub spans: BTreeMap<String, SpanStat>,
    /// Wall seconds of the first pass.
    pub first_pass_s: f64,
}

/// Runs one warm-up pass of `ops`, then replays whole timed passes up to
/// the pass boundary nearest to `seconds`, and at least until `min_ops`
/// timed operations have run. Stopping only between passes keeps every
/// run's sample an exact multiple of the pass, so the percentiles do not
/// depend on where the clock ran out.
pub fn run_passes<O: Ops>(ops: &mut O, seconds: f64, min_ops: usize) -> Timed<O::Out> {
    let n = ops.pass_len();
    assert!(n > 0, "a pass needs at least one operation");
    let mut start = Instant::now();
    let mut t = Timed {
        lat_s: Vec::new(),
        timed_from: n,
        index: Vec::new(),
        bad: Vec::new(),
        pass_rates: Vec::new(),
        first: Vec::with_capacity(n),
        counters: Readings::new(),
        spans: BTreeMap::new(),
        first_pass_s: 0.0,
    };
    for pass in 0.. {
        ops.fresh_pass();
        let (before, spans_before) = if pass == 0 {
            (readings(), spans())
        } else {
            Default::default()
        };
        let pass_start = Instant::now();
        for i in 0..n {
            let op_start = Instant::now();
            let out = ops.run(i);
            t.lat_s.push(op_start.elapsed().as_secs_f64());
            t.index.push(i);
            if pass == 0 {
                t.bad.push(out.is_err());
                t.first.push(out);
            } else {
                t.bad.push(out.is_err() || out != t.first[i]);
            }
        }
        let pass_s = pass_start.elapsed().as_secs_f64();
        if pass == 0 {
            t.first_pass_s = pass_s;
            let after = readings();
            t.counters = after.iter().map(|(&k, v)| (k, v - before[k])).collect();
            t.spans = span_delta(&spans_before, spans());
            start = Instant::now();
            continue;
        }
        t.pass_rates.push(n as f64 / pass_s);
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed + 0.5 * pass_s >= seconds && t.lat_s.len() - n >= min_ops {
            break;
        }
    }
    t
}

fn span_delta(
    before: &BTreeMap<String, SpanStat>,
    after: BTreeMap<String, SpanStat>,
) -> BTreeMap<String, SpanStat> {
    after
        .into_iter()
        .map(|(path, a)| {
            let b = before.get(&path).cloned().unwrap_or_default();
            let d = SpanStat {
                count: a.count - b.count,
                total_secs: a.total_secs - b.total_secs,
                self_secs: a.self_secs - b.self_secs,
            };
            (path, d)
        })
        .filter(|(_, d)| d.count > 0)
        .collect()
}

/// Total seconds spent in spans named `leaf`, counting each outermost
/// occurrence once (a span nested under itself is not double-counted).
pub fn span_total(spans: &BTreeMap<String, SpanStat>, leaf: &str) -> f64 {
    spans
        .iter()
        .filter(|(path, _)| {
            let mut parts = path.split('/').rev();
            parts.next() == Some(leaf) && parts.all(|p| p != leaf)
        })
        .map(|(_, s)| s.total_secs)
        .sum()
}

/// Nearest-rank percentile of an ascending slice (`q` in (0, 1]).
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Median of unsorted values (mean of the middle two for even counts).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        0.5 * (v[m - 1] + v[m])
    }
}

/// Peak resident memory of this process in MiB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
