//! dcn-fleet: crash-tolerant multi-process sweep execution.
//!
//! [`dcn_exec::Pool::par_map`] fans a sweep out across threads inside one
//! process — fast, but a single crash (OOM kill, solver abort, node
//! preemption) loses the whole run. This crate is the multi-*process*
//! analogue for the paper's long sweep campaigns: work units are
//! serialized into a spill-to-disk queue, `DCN_FLEET_WORKERS` child
//! processes claim and solve them against the shared `DCN_CACHE_DIR`
//! tier, and the supervisor merges completed cells back **in input
//! order**, so the merged output is byte-identical to the single-process
//! path at any worker count.
//!
//! # Robustness model
//!
//! - **Claims are atomic renames**: a pending unit file is renamed into
//!   `claimed/<id>.<pid>.json`; exactly one worker wins the race.
//! - **Results are atomic renames** too, named
//!   `fleet-result-<id>.json` so crash recovery is a directory scan
//!   (via [`dcn_cache::scan_keys`]) — restarting a supervisor
//!   re-enqueues only the units with no result on disk.
//! - **Leases**: each claim is granted a wall-clock lease derived from
//!   the run's [`dcn_guard::Budget`] (see [`dcn_guard::Lease`]); a
//!   worker that holds a claim past its lease is SIGKILLed and the unit
//!   is retried.
//! - **Crash detection**: child exit status plus per-worker heartbeat
//!   files (`hb/<pid>.json`, recording which unit a pid was holding).
//! - **Bounded retry with exponential backoff**: a unit whose worker
//!   crashed is re-enqueued with `attempt + 1` after
//!   `backoff_base * 2^attempt`.
//! - **Poison quarantine**: a unit that out-lives `max_retries`
//!   attempts (i.e. killed `max_retries + 1` workers) is quarantined
//!   and *reported*, not retried forever — the rest of the sweep still
//!   completes.
//!
//! Duplicate computation is tolerated by design: an orphaned worker
//! from a killed supervisor may still write a result another worker
//! recomputes. Every cached computation in this workspace is
//! deterministic in its payload, so last-writer-wins renames always
//! converge on identical bytes.

mod queue;
mod supervisor;
mod worker;

pub use queue::{WorkUnit, RESULT_KIND};
pub use supervisor::{run_fleet, workers_from_env, FleetConfig, FleetReport, UnitOutcome};
pub use worker::worker_main;

use std::path::{Path, PathBuf};

/// Error from fleet supervision or worker execution.
#[derive(Debug)]
pub enum FleetError {
    /// A filesystem operation on the queue directory failed.
    Io {
        /// The path the operation targeted.
        path: PathBuf,
        /// The underlying IO error.
        source: std::io::Error,
    },
    /// The supervising budget expired or was cancelled.
    Budget(dcn_guard::BudgetError),
    /// Invalid configuration or unit list (duplicate/unsafe ids, zero workers).
    Config(String),
    /// Worker processes could not be spawned.
    Spawn(String),
    /// The queue reached a state with units unaccounted for but nothing
    /// pending, claimed, backing off, or running — a supervisor bug or
    /// external interference with the queue directory.
    Stalled(String),
}

impl std::fmt::Display for FleetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FleetError::Io { path, source } => {
                write!(f, "fleet queue IO error at {}: {source}", path.display())
            }
            FleetError::Budget(e) => write!(f, "fleet budget exhausted: {e}"),
            FleetError::Config(m) => write!(f, "fleet configuration error: {m}"),
            FleetError::Spawn(m) => write!(f, "fleet worker spawn failed: {m}"),
            FleetError::Stalled(m) => write!(f, "fleet stalled: {m}"),
        }
    }
}

impl std::error::Error for FleetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FleetError::Io { source, .. } => Some(source),
            FleetError::Budget(e) => Some(e),
            _ => None,
        }
    }
}

impl From<dcn_guard::BudgetError> for FleetError {
    fn from(e: dcn_guard::BudgetError) -> Self {
        FleetError::Budget(e)
    }
}

/// Builds the `<exe> --worker <root>` invocation under which experiment
/// binaries re-enter themselves as fleet workers. Lives here (not in the
/// caller) because process spawning is confined to this crate — clippy's
/// `disallowed_methods` keeps ad-hoc `Command` fan-out out of every other
/// crate, the same way thread spawning is confined to `dcn-exec`.
#[expect(
    clippy::disallowed_methods,
    reason = "the fleet is the one sanctioned process spawner"
)]
pub fn worker_command(exe: &Path, root: &Path) -> std::process::Command {
    let mut cmd = std::process::Command::new(exe);
    cmd.arg("--worker").arg(root);
    cmd
}

/// [`worker_command`] against the current executable. Experiment
/// binaries branch on [`worker_root_from_args`] at the top of `main`
/// before any sweep logic, so the child never recurses into supervision.
pub fn self_worker_command(root: &Path) -> Result<std::process::Command, FleetError> {
    let exe = std::env::current_exe().map_err(|source| FleetError::Io {
        path: PathBuf::from("<current_exe>"),
        source,
    })?;
    Ok(worker_command(&exe, root))
}

/// Parses `--worker <root>` out of the process arguments, the flag under
/// which [`self_worker_command`] re-invokes an experiment binary.
pub fn worker_root_from_args() -> Option<PathBuf> {
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == "--worker" {
            return args.next().map(PathBuf::from);
        }
    }
    None
}
