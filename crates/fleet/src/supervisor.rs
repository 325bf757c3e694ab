//! The supervisor: enqueue, spawn, lease, retry, quarantine, merge.
//!
//! [`run_fleet`] owns the whole lifecycle of one sharded sweep. It first
//! recovers — results already on disk (from a previous supervisor that
//! was killed mid-run) are counted done without re-enqueueing, and stale
//! claims left by dead workers are re-queued with a bumped attempt. It
//! then polls: releasing backed-off retries, reaping crashed children,
//! SIGKILLing workers that hold a claim past its lease, and topping the
//! worker pool back up while pending work remains. Termination is exact:
//! every input unit ends either *done* (a result record exists) or
//! *quarantined* (an explicit report), and the merge walks the input
//! order so the caller sees results exactly as `par_map` would have
//! returned them.

use crate::queue::{
    id_is_filename_safe, list_json_stems, read_json, write_json_atomic, write_quarantine,
    QueueDirs, UnitRecord, WorkUnit,
};
use crate::FleetError;
use dcn_guard::{Budget, Lease};
use dcn_obs::json::Json;
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::process::{Child, Command};
use std::time::{Duration, Instant};

/// Supervision parameters for one fleet run.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Number of worker processes to keep alive while work remains.
    pub workers: usize,
    /// Queue root directory (pending/claimed/results/quarantine/hb live
    /// under it).
    pub root: PathBuf,
    /// Default per-claim wall-clock lease; the effective lease is capped
    /// by the run budget's remaining wall time ([`Lease::from_budget`]).
    pub lease: Duration,
    /// Retries allowed per unit after its first crashed attempt; a unit
    /// crashing on attempt `max_retries` (its `max_retries + 1`-th
    /// worker kill) is quarantined.
    pub max_retries: u64,
    /// Base of the exponential retry backoff (`base * 2^attempt`).
    pub backoff_base: Duration,
    /// Supervisor poll interval.
    pub poll: Duration,
    /// Test hook: after this many units have completed, SIGKILL one live
    /// worker exactly once (`DCN_FLEET_INJECT_KILL_AFTER`).
    pub inject_kill_after: Option<u64>,
}

/// Reads `DCN_FLEET_WORKERS` (default 1). Sweeps shard only when this is
/// at least 2 — one worker would pay the process-spawn tax for no
/// isolation gain.
pub fn workers_from_env() -> usize {
    dcn_guard::env::FLEET_WORKERS.parsed::<usize>().unwrap_or(1)
}

fn env_u64(var: &dcn_guard::env::EnvVar, default: u64) -> u64 {
    var.parsed::<u64>().unwrap_or(default)
}

impl FleetConfig {
    /// Builds a config from the environment:
    /// `DCN_FLEET_WORKERS` (worker count, default 1),
    /// `DCN_FLEET_DIR` (queue root, default `default_root`),
    /// `DCN_FLEET_LEASE_SECS` (default 600),
    /// `DCN_FLEET_MAX_RETRIES` (default 2),
    /// `DCN_FLEET_BACKOFF_MS` (default 50), and the
    /// `DCN_FLEET_INJECT_KILL_AFTER` test hook.
    pub fn from_env(default_root: &Path) -> FleetConfig {
        let root = dcn_guard::env::FLEET_DIR
            .get_os()
            .map(PathBuf::from)
            .unwrap_or_else(|| default_root.to_path_buf());
        FleetConfig {
            workers: workers_from_env().max(1),
            root,
            lease: Duration::from_secs(env_u64(&dcn_guard::env::FLEET_LEASE_SECS, 600)),
            max_retries: env_u64(&dcn_guard::env::FLEET_MAX_RETRIES, 2),
            backoff_base: Duration::from_millis(env_u64(&dcn_guard::env::FLEET_BACKOFF_MS, 50)),
            poll: Duration::from_millis(20),
            inject_kill_after: dcn_guard::env::FLEET_INJECT_KILL_AFTER.parsed::<u64>(),
        }
    }
}

/// Final state of one input unit after a fleet run.
#[derive(Debug, Clone, PartialEq)]
pub enum UnitOutcome {
    /// The worker's `solve` succeeded; the payload it returned.
    Ok(Json),
    /// The worker's `solve` returned an error (a *result*, not a crash).
    Err(String),
    /// The unit exhausted its retries killing workers and was skipped.
    Quarantined(String),
}

/// Everything a caller learns from one fleet run.
#[derive(Debug)]
pub struct FleetReport {
    /// One outcome per input unit, in input order.
    pub outcomes: Vec<UnitOutcome>,
    /// Units whose results were already on disk at startup (crash
    /// recovery from a previous supervisor).
    pub recovered: usize,
    /// Units re-enqueued after a worker crash or lease kill.
    pub retries: u64,
    /// Worker processes that exited abnormally (including lease kills
    /// and injected kills).
    pub crashes: u64,
    /// Workers SIGKILLed for holding a claim past its lease.
    pub lease_kills: u64,
    /// Workers still running after the completed campaign's shutdown
    /// grace, and therefore SIGKILLed.
    pub shutdown_kills: u64,
    /// Units quarantined as poisonous.
    pub quarantined: usize,
}

/// A claim observed in `claimed/`: parsed `<id>.<pid>` filename parts.
fn parse_claim(stem: &str) -> Option<(String, u32)> {
    let (id, pid) = stem.rsplit_once('.')?;
    Some((id.to_string(), pid.parse::<u32>().ok()?))
}

/// Poll intervals a completed campaign gives its workers to exit on their
/// own before the stragglers are killed.
const SHUTDOWN_GRACE_POLLS: u32 = 100;

/// Gives each live worker up to `grace` poll intervals to exit by itself
/// (a worker that finds the pending queue empty exits and flushes its
/// obs/trace output on the way), then SIGKILLs the rest. Returns the
/// number killed.
fn reap(children: &mut Vec<(u32, Child)>, grace: u32, poll: Duration) -> u64 {
    for _ in 0..grace {
        children.retain_mut(|(_, child)| !matches!(child.try_wait(), Ok(Some(_))));
        if children.is_empty() {
            break;
        }
        std::thread::sleep(poll);
    }
    for (_, child) in children.iter_mut() {
        let _ = child.kill();
        let _ = child.wait();
    }
    let killed = children.len() as u64;
    children.clear();
    killed
}

/// Runs `units` through the queue at `cfg.root` using up to
/// `cfg.workers` child processes built by `make_worker`, and merges the
/// per-unit outcomes back in input order. See the module docs for the
/// full lifecycle; `budget` bounds the whole supervision loop (checked
/// every poll) and caps the per-claim lease.
#[expect(
    clippy::disallowed_methods,
    reason = "worker leases and retry backoff run on real wall time"
)]
pub fn run_fleet(
    cfg: &FleetConfig,
    units: &[WorkUnit],
    budget: &Budget,
    make_worker: &dyn Fn() -> Command,
) -> Result<FleetReport, FleetError> {
    let dirs = QueueDirs::open(&cfg.root)?;
    let mut want: BTreeSet<String> = BTreeSet::new();
    for u in units {
        if !id_is_filename_safe(&u.id) {
            return Err(FleetError::Config(format!(
                "unit id {:?} is not filename-safe ([A-Za-z0-9_-] only)",
                u.id
            )));
        }
        if !want.insert(u.id.clone()) {
            return Err(FleetError::Config(format!("duplicate unit id {:?}", u.id)));
        }
    }
    let lease = Lease::from_budget(budget, cfg.lease);

    // --- Recovery: results and quarantines already on disk count as
    // settled; stale claims from a dead supervisor's workers re-queue.
    let mut done: BTreeSet<String> = BTreeSet::new();
    let scan_done = |done: &mut BTreeSet<String>| {
        for id in dcn_cache::scan_keys(&dirs.results, crate::queue::RESULT_KIND) {
            if want.contains(&id) {
                done.insert(id);
            }
        }
    };
    scan_done(&mut done);
    let recovered = done.len();
    dcn_obs::counter!(dcn_obs::names::FLEET_UNITS_RECOVERED).add(recovered as u64);

    let scan_quarantine = |q: &mut BTreeMap<String, String>| {
        for id in list_json_stems(&dirs.quarantine) {
            if want.contains(&id) && !q.contains_key(&id) {
                let reason = read_json(&dirs.quarantine_path(&id))
                    .ok()
                    .and_then(|j| j.get("reason").and_then(Json::as_str).map(str::to_string))
                    .unwrap_or_else(|| "unreadable quarantine record".to_string());
                q.insert(id, reason);
            }
        }
    };
    let mut quarantined: BTreeMap<String, String> = BTreeMap::new();
    scan_quarantine(&mut quarantined);

    let mut retries = 0u64;
    let mut crashes = 0u64;
    let mut lease_kills = 0u64;
    // Backed-off retries: (release time, record to re-enqueue). Leases
    // and backoff are wall-clock mechanisms (fleet is a lint
    // CLOCK_CRATE); unit *results* never depend on time.
    let mut backoff: Vec<(Instant, UnitRecord)> = Vec::new();
    let now0 = Instant::now();

    // A unit crashed (or went stale): bump its attempt and either
    // schedule a backed-off retry or quarantine it as poisonous.
    let requeue = |rec: UnitRecord,
                   backoff: &mut Vec<(Instant, UnitRecord)>,
                   quarantined: &mut BTreeMap<String, String>,
                   retries: &mut u64,
                   at: Instant|
     -> Result<(), FleetError> {
        let attempt = rec.attempt + 1;
        if attempt > cfg.max_retries {
            let reason = format!(
                "poison unit: crashed its worker on all {attempt} attempts (max_retries {})",
                cfg.max_retries
            );
            write_quarantine(&dirs, &rec.id, attempt, &reason)?;
            dcn_obs::counter!(dcn_obs::names::FLEET_UNITS_QUARANTINED).inc();
            quarantined.insert(rec.id.clone(), reason);
            return Ok(());
        }
        *retries += 1;
        dcn_obs::counter!(dcn_obs::names::FLEET_UNITS_RETRIED).inc();
        let delay = cfg.backoff_base * 2u32.saturating_pow(rec.attempt.min(16) as u32);
        backoff.push((
            at + delay.min(Duration::from_secs(2)),
            UnitRecord { attempt, ..rec },
        ));
        Ok(())
    };

    for stem in list_json_stems(&dirs.claimed) {
        let path = dirs.claimed.join(format!("{stem}.json"));
        let Some((id, _pid)) = parse_claim(&stem) else {
            continue;
        };
        if !want.contains(&id) {
            continue;
        }
        // The claim's owner predates this supervisor (we have spawned no
        // workers yet). If its result made it to disk the claim is just
        // debris; otherwise the unit died with its worker — retry it.
        if !done.contains(&id) && !quarantined.contains_key(&id) {
            match read_json(&path).and_then(|j| UnitRecord::from_json(&j)) {
                Ok(rec) => requeue(rec, &mut backoff, &mut quarantined, &mut retries, now0)?,
                Err(reason) => {
                    write_quarantine(&dirs, &id, 0, &format!("unreadable stale claim: {reason}"))?;
                    dcn_obs::counter!(dcn_obs::names::FLEET_UNITS_QUARANTINED).inc();
                    quarantined.insert(id.clone(), format!("unreadable stale claim: {reason}"));
                }
            }
        }
        let _ = std::fs::remove_file(&path);
    }

    // --- Enqueue whatever is still missing.
    let already_pending: BTreeSet<String> = list_json_stems(&dirs.pending).into_iter().collect();
    let mut enqueued = 0u64;
    for u in units {
        if done.contains(&u.id)
            || quarantined.contains_key(&u.id)
            || already_pending.contains(&u.id)
            || backoff.iter().any(|(_, r)| r.id == u.id)
        {
            continue;
        }
        let rec = UnitRecord {
            id: u.id.clone(),
            attempt: 0,
            payload: u.payload.clone(),
        };
        write_json_atomic(&dirs.pending_path(&u.id), &rec.to_json())?;
        enqueued += 1;
    }
    dcn_obs::counter!(dcn_obs::names::FLEET_UNITS_ENQUEUED).add(enqueued);

    // --- Supervision loop.
    let mut children: Vec<(u32, Child)> = Vec::new();
    let mut claim_seen: BTreeMap<String, Instant> = BTreeMap::new();
    let mut injected = cfg.inject_kill_after.is_none();
    let mut spawn_failures = 0u32;
    let mut meter = budget.meter();
    let report = loop {
        if let Err(e) = meter.tick() {
            reap(&mut children, 0, cfg.poll);
            return Err(FleetError::Budget(e));
        }
        scan_done(&mut done);
        scan_quarantine(&mut quarantined);
        if done.len() + quarantined.len() >= want.len() {
            break Ok(());
        }
        let now = Instant::now();

        // Release retries whose backoff elapsed.
        let mut due = Vec::new();
        backoff.retain(|(at, rec)| {
            if *at <= now {
                due.push(rec.clone());
                false
            } else {
                true
            }
        });
        for rec in due {
            if done.contains(&rec.id) {
                continue; // an orphaned worker finished it meanwhile
            }
            write_json_atomic(&dirs.pending_path(&rec.id), &rec.to_json())?;
        }

        // Reap exited children; abnormal exits retry their held claims.
        let mut alive: Vec<(u32, Child)> = Vec::new();
        for (pid, mut child) in children.drain(..) {
            match child.try_wait() {
                Ok(Some(status)) => {
                    let _ = std::fs::remove_file(dirs.heartbeat_path(pid));
                    if !status.success() {
                        crashes += 1;
                        dcn_obs::counter!(dcn_obs::names::FLEET_WORKER_CRASHES).inc();
                        for stem in list_json_stems(&dirs.claimed) {
                            let Some((id, owner)) = parse_claim(&stem) else {
                                continue;
                            };
                            if owner != pid {
                                continue;
                            }
                            let path = dirs.claimed.join(format!("{stem}.json"));
                            if !done.contains(&id) && !quarantined.contains_key(&id) {
                                if let Ok(rec) =
                                    read_json(&path).and_then(|j| UnitRecord::from_json(&j))
                                {
                                    requeue(
                                        rec,
                                        &mut backoff,
                                        &mut quarantined,
                                        &mut retries,
                                        now,
                                    )?;
                                }
                            }
                            let _ = std::fs::remove_file(&path);
                        }
                    }
                }
                Ok(None) => alive.push((pid, child)),
                Err(_) => alive.push((pid, child)), // transient; retry next poll
            }
        }
        children = alive;

        // Lease enforcement: a claim first observed more than one lease
        // ago means its worker is wedged — SIGKILL it; the reap pass
        // above then recycles the claim like any other crash.
        let current_claims: BTreeSet<String> = list_json_stems(&dirs.claimed).into_iter().collect();
        claim_seen.retain(|stem, _| current_claims.contains(stem));
        for stem in &current_claims {
            let first = *claim_seen.entry(stem.clone()).or_insert(now);
            if !lease.is_expired(now.saturating_duration_since(first)) {
                continue;
            }
            let Some((id, owner)) = parse_claim(stem) else {
                continue;
            };
            if let Some((_, child)) = children.iter_mut().find(|(p, _)| *p == owner) {
                let _ = child.kill();
                lease_kills += 1;
                dcn_obs::counter!(dcn_obs::names::FLEET_WORKER_LEASE_KILLS).inc();
            } else if want.contains(&id) {
                // Orphan claim (owner is not ours and never reaped):
                // recycle it directly.
                let path = dirs.claimed.join(format!("{stem}.json"));
                if !done.contains(&id) && !quarantined.contains_key(&id) {
                    if let Ok(rec) = read_json(&path).and_then(|j| UnitRecord::from_json(&j)) {
                        requeue(rec, &mut backoff, &mut quarantined, &mut retries, now)?;
                    }
                }
                let _ = std::fs::remove_file(&path);
            }
            claim_seen.remove(stem);
        }

        // Kill-injection test hook: once enough units completed, crash
        // one live worker to exercise the retry path end-to-end.
        if let Some(after) = cfg.inject_kill_after {
            if !injected && (done.len() as u64) >= after && !children.is_empty() {
                let _ = children[0].1.kill();
                injected = true;
            }
        }

        // Top the pool back up while claimable work remains.
        let pending_count = list_json_stems(&dirs.pending).len();
        while children.len() < cfg.workers && pending_count > 0 {
            match make_worker().spawn() {
                Ok(child) => {
                    spawn_failures = 0;
                    dcn_obs::counter!(dcn_obs::names::FLEET_WORKER_SPAWNS).inc();
                    children.push((child.id(), child));
                }
                Err(e) => {
                    spawn_failures += 1;
                    if spawn_failures >= 8 {
                        reap(&mut children, 0, cfg.poll);
                        return Err(FleetError::Spawn(format!(
                            "worker spawn failed {spawn_failures} times in a row: {e}"
                        )));
                    }
                    break; // try again next poll
                }
            }
        }

        // Exactness check: with nothing running, queued, claimed, or
        // backing off, unresolved units can never resolve.
        if children.is_empty()
            && pending_count == 0
            && backoff.is_empty()
            && current_claims.is_empty()
            && spawn_failures == 0
        {
            scan_done(&mut done);
            scan_quarantine(&mut quarantined);
            if done.len() + quarantined.len() >= want.len() {
                break Ok(());
            }
            let missing: Vec<&String> = want
                .iter()
                .filter(|id| !done.contains(*id) && !quarantined.contains_key(*id))
                .take(4)
                .collect();
            break Err(FleetError::Stalled(format!(
                "{} unit(s) unaccounted for with no work in flight (e.g. {missing:?})",
                want.len() - done.len() - quarantined.len()
            )));
        }

        std::thread::sleep(cfg.poll);
    };
    let grace = if report.is_ok() { SHUTDOWN_GRACE_POLLS } else { 0 };
    let shutdown_kills = reap(&mut children, grace, cfg.poll);
    report?;
    dcn_obs::counter!(dcn_obs::names::FLEET_UNITS_COMPLETED)
        .add((done.len() - recovered) as u64);

    // --- Deterministic merge, in input order.
    let mut outcomes = Vec::with_capacity(units.len());
    for u in units {
        if let Some(reason) = quarantined.get(&u.id) {
            outcomes.push(UnitOutcome::Quarantined(reason.clone()));
            continue;
        }
        let path = dirs.result_path(&u.id);
        let outcome = match read_json(&path) {
            Ok(json) => {
                if let Some(ok) = json.get("ok") {
                    UnitOutcome::Ok(ok.clone())
                } else if let Some(err) = json.get("err").and_then(Json::as_str) {
                    UnitOutcome::Err(err.to_string())
                } else {
                    UnitOutcome::Err(format!(
                        "malformed result record {} (neither ok nor err)",
                        path.display()
                    ))
                }
            }
            Err(reason) => UnitOutcome::Err(format!("unreadable result record: {reason}")),
        };
        outcomes.push(outcome);
    }
    Ok(FleetReport {
        outcomes,
        recovered,
        retries,
        crashes,
        lease_kills,
        shutdown_kills,
        quarantined: quarantined.len(),
    })
}
