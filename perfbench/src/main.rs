//! The benchmark's command:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <tub_sweep|ksp_mcf|dcnd_mix> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`.
//!
//! Every measurement runs in a child process of this one (a *leg*) whose
//! environment holds no `DCN_*` variable except `DCN_OBS` and
//! `DCN_EXEC_THREADS=1`, so the program runs at its defaults apart from a
//! one-thread pool. `--trace 0` runs one untraced leg for `--seconds`.
//! `--trace 1` runs an untraced leg (exact counters, untraced throughput)
//! and then a traced leg with `DCN_OBS=summary` (span times), since the
//! mode is read once per process; each leg measures half of `--seconds`.

use dcn_obs::json::Json;
use dcn_perfbench::workloads;
use dcn_perfbench::{Scale, Workload};
use std::process::{Command, ExitCode, Stdio};

/// The metric lists (names and units) come from `BENCHMARK.json` at the
/// repository root, so the specification and the program cannot disagree.
const SPEC: &str = include_str!("../../BENCHMARK.json");

/// `(name, unit)` of every metric in the specification's `section`.
fn spec_metrics(section: &str) -> Result<Vec<(String, String)>, String> {
    let spec = Json::parse(SPEC).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let list = spec
        .get(section)
        .and_then(Json::as_array)
        .ok_or(format!("BENCHMARK.json has no {section}"))?;
    list.iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Json::as_str).map(str::to_string);
            field("name").zip(field("unit")).ok_or(format!(
                "BENCHMARK.json: a {section} entry lacks a name or unit"
            ))
        })
        .collect()
}

/// Span-time metrics, read from the traced leg.
const SPAN_METRICS: &[&str] = &[
    "match.matching_s",
    "graph.apsp_s",
    "core.tub_s",
    "lp.simplex_s",
    "mcf.exact_s",
    "mcf.fptas_s",
    "partition.bisection_s",
    "dcnd.solve_s",
    "dcnd.overhead_s",
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    leg: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut leg) = (None, None, None, None, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::from_name(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            "--leg" => leg = true,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        leg,
    })
}

/// Runs the workload in this process and prints the leg's JSON record.
fn run_leg(a: &Args) -> Result<(), String> {
    let leg = workloads::run(a.workload, a.seed, a.seconds, Scale::Full)?;
    if !leg.silent.is_empty() {
        return Err(format!(
            "{} measured nothing: {} read zero",
            a.workload.name(),
            leg.silent.join(", ")
        ));
    }
    let metrics = leg.metrics.iter().map(|(&k, &v)| (k, Json::Num(v)));
    let record = Json::obj([
        ("attempted", Json::Num(leg.attempted as f64)),
        ("failed", Json::Num(leg.failed as f64)),
        ("beyond_p90", Json::Num(leg.beyond_p90 as f64)),
        ("digest", Json::Str(leg.digest.clone())),
        ("metrics", Json::obj(metrics)),
    ]);
    println!("{}", record.to_string_compact());
    Ok(())
}

/// Runs one leg as a child process with `DCN_OBS=<mode>`,
/// `DCN_EXEC_THREADS=1` and no other `DCN_*` variable, and returns its
/// JSON record.
fn spawn_leg(a: &Args, mode: &str) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark binary: {e}"))?;
    let seconds = if a.trace { a.seconds / 2.0 } else { a.seconds };
    let mut cmd = Command::new(exe);
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("DCN_") {
            cmd.env_remove(key);
        }
    }
    let out = cmd
        .env("DCN_OBS", mode)
        .env("DCN_EXEC_THREADS", EXEC_THREADS)
        .args([
            "--workload",
            a.workload.name(),
            "--seed",
            &a.seed.to_string(),
        ])
        .args([
            "--seconds",
            &seconds.to_string(),
            "--trace",
            if a.trace { "1" } else { "0" },
        ])
        .args(["--leg", mode])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("running the {mode} leg: {e}"))?;
    if !out.status.success() {
        return Err(format!("the {mode} leg failed ({})", out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout
        .lines()
        .last()
        .ok_or(format!("the {mode} leg printed nothing"))?;
    Json::parse(last).map_err(|e| format!("the {mode} leg's record: {e}"))
}

/// Width of the `dcn-exec` pool in every leg. The load runs on one
/// thread, so a host with few shared cores measures the program rather
/// than the scheduler (see `NOTES.md`).
const EXEC_THREADS: &str = "1";

fn num(record: &Json, key: &str) -> f64 {
    record.get(key).and_then(Json::as_f64).unwrap_or(f64::NAN)
}

fn metric(record: &Json, name: &str) -> f64 {
    record.get("metrics").map_or(f64::NAN, |m| num(m, name))
}

fn orchestrate(a: &Args) -> Result<(), String> {
    let untraced = spawn_leg(a, "off")?;
    let traced = if a.trace {
        Some(spawn_leg(a, "summary")?)
    } else {
        None
    };
    let legs: Vec<&Json> = std::iter::once(&untraced).chain(traced.as_ref()).collect();
    let attempted: f64 = legs.iter().map(|l| num(l, "attempted")).sum();
    let failed: f64 = legs.iter().map(|l| num(l, "failed")).sum();

    let w = a.workload.name();
    println!("workload {w}  seed {}  seconds {}", a.seed, a.seconds);
    println!(
        "operations {}  beyond p90 {}  failed {}  digest {}",
        num(&untraced, "attempted"),
        num(&untraced, "beyond_p90"),
        num(&untraced, "failed"),
        untraced.get("digest").and_then(Json::as_str).unwrap_or("?")
    );
    let values: Vec<(String, String, f64)> = match &traced {
        None => spec_metrics("end_to_end")?
            .into_iter()
            .map(|(n, u)| {
                let v = metric(&untraced, &n);
                (n, u, v)
            })
            .collect(),
        Some(traced) => {
            if traced.get("digest") != untraced.get("digest") {
                return Err("traced and untraced legs disagree on the output digest".into());
            }
            spec_metrics("per_layer")?
                .into_iter()
                .map(|(n, u)| {
                    let v = match n.as_str() {
                        "trace.overhead_frac" => {
                            1.0 - metric(traced, "ops_per_s") / metric(&untraced, "ops_per_s")
                        }
                        _ if SPAN_METRICS.contains(&n.as_str()) => metric(traced, &n),
                        _ => metric(&untraced, &n),
                    };
                    (n, u, v)
                })
                .collect()
        }
    };
    if let Some((n, _, _)) = values.iter().find(|(_, _, v)| !v.is_finite()) {
        return Err(format!("metric {n} was not measured"));
    }
    for (n, u, v) in &values {
        println!("  {n:<26} {v:>16.6} {u}");
    }
    if traced.is_none() {
        // The counters count with tracing off too; show them on every run.
        println!("  per-layer counters (untraced, first pass):");
        for (n, u) in spec_metrics("per_layer")? {
            if u == "count" {
                println!("  {n:<26} {:>16} {u}", metric(&untraced, &n));
            }
        }
    }
    if let Some(traced) = &traced {
        let share = |part: &str, whole: &str| metric(traced, part) / metric(traced, whole);
        match a.workload {
            Workload::TubSweep => println!(
                "  share: matching / tub = {:.3}",
                share("match.matching_s", "core.tub_s")
            ),
            Workload::KspMcf => println!(
                "  share: simplex / exact ops = {:.3}",
                share("lp.simplex_s", "exact_ops_s")
            ),
            Workload::DcndMix => println!(
                "  share: solve / batch = {:.3}",
                share("dcnd.solve_s", "dcnd.batch_s")
            ),
        }
    }
    let metrics = values.iter().map(|(n, u, v)| {
        (
            n.as_str(),
            Json::obj([("value", Json::Num(*v)), ("unit", Json::Str(u.clone()))]),
        )
    });
    let result = Json::obj([
        ("correct", Json::Bool(failed == 0.0)),
        ("attempted", Json::Num(attempted)),
        ("failed", Json::Num(failed)),
        ("metrics", Json::obj(metrics)),
    ]);
    println!("{}", result.to_string_compact());
    Ok(())
}

fn main() -> ExitCode {
    let outcome = parse_args().and_then(|a| if a.leg { run_leg(&a) } else { orchestrate(&a) });
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
