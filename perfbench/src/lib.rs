//! The dcn benchmark: three seeded workloads driven through public entry
//! points only (`dcn_core::tub`, `dcn_mcf::ksp_mcf_throughput`,
//! `dcn_dcnd::Daemon::process_batch`), timed from outside, with per-layer
//! attribution read from the existing `dcn_obs` counters and spans.
//!
//! See `NOTES.md` in this directory for why each workload exists and which
//! layer metric should move which end-to-end metric.

pub mod inputs;
pub mod passes;
pub mod workloads;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Design-space sweep: one `tub()` call per distinct fabric.
    TubSweep,
    /// Bound-chain oracle: one `ksp_mcf_throughput` call per fabric.
    KspMcf,
    /// Serving: a closed loop of 8-query batches into `process_batch`.
    DcndMix,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [Workload::TubSweep, Workload::KspMcf, Workload::DcndMix];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::TubSweep => "tub_sweep",
            Workload::KspMcf => "ksp_mcf",
            Workload::DcndMix => "dcnd_mix",
        }
    }

    /// Inverse of [`Workload::name`].
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input size. `Full` is what the benchmark measures; `Tiny` keeps the
/// same structure at toy sizes so the benchmark's own tests run in
/// seconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The measured sizes.
    Full,
    /// Toy sizes for tests.
    Tiny,
}
