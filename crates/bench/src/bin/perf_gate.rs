//! Perf-regression gate: compares run manifests against the committed
//! `BENCH_BASELINE.json` and exits non-zero when any tracked quantity
//! (wall seconds, per-span totals, cache hit rate) regressed beyond
//! tolerance.
//!
//! ```text
//! cargo run -p dcn-bench --bin perf_gate -- [options] [manifest.json ...]
//!   --baseline <path>    baseline file (default: BENCH_BASELINE.json at
//!                        the workspace root, or $DCN_BENCH_BASELINE)
//!   --tolerance <T>      relative growth allowed, default 0.25
//!   --min-seconds <S>    skip baseline timings below S, default 0.05
//!   --hit-rate-drop <D>  absolute hit-rate drop that fails, default 0.25
//! ```
//!
//! With no manifest arguments, every `results/*.manifest.json` whose run
//! name has a baseline entry is checked. Manifests without a baseline
//! entry are reported and skipped (they cannot regress against nothing).
//!
//! Exit codes: `0` gate passes, `1` regressions found, `2` usage or IO
//! error.

use dcn_bench::perf::{compare, entry_from_manifest, Baseline, GateConfig};
use dcn_obs::manifest::RunManifest;
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    baseline: PathBuf,
    config: GateConfig,
    manifests: Vec<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        baseline: dcn_bench::baseline_path(),
        config: GateConfig::default(),
        manifests: Vec::new(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut value = |flag: &str| it.next().ok_or(format!("{flag} needs a value"));
        match a.as_str() {
            "--baseline" => args.baseline = PathBuf::from(value("--baseline")?),
            "--tolerance" => {
                args.config.tolerance = value("--tolerance")?
                    .parse()
                    .map_err(|e| format!("--tolerance: {e}"))?;
            }
            "--min-seconds" => {
                args.config.min_seconds = value("--min-seconds")?
                    .parse()
                    .map_err(|e| format!("--min-seconds: {e}"))?;
            }
            "--hit-rate-drop" => {
                args.config.hit_rate_drop = value("--hit-rate-drop")?
                    .parse()
                    .map_err(|e| format!("--hit-rate-drop: {e}"))?;
            }
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            path => args.manifests.push(PathBuf::from(path)),
        }
    }
    Ok(args)
}

/// All `results/*.manifest.json` files, sorted for stable output.
fn default_manifests() -> Result<Vec<PathBuf>, String> {
    let dir = dcn_bench::results_dir().map_err(|e| e.to_string())?;
    let mut out = Vec::new();
    let entries = std::fs::read_dir(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for entry in entries {
        let path = entry.map_err(|e| e.to_string())?.path();
        if path
            .file_name()
            .and_then(|n| n.to_str())
            .is_some_and(|n| n.ends_with(".manifest.json"))
        {
            out.push(path);
        }
    }
    out.sort();
    Ok(out)
}

fn run() -> Result<bool, String> {
    let args = parse_args()?;
    let baseline = Baseline::load(&args.baseline)?;
    if baseline.entries.is_empty() {
        return Err(format!(
            "baseline {} is empty or missing; record one with `--baseline` on an experiment run",
            args.baseline.display()
        ));
    }
    let manifests = if args.manifests.is_empty() {
        default_manifests()?
    } else {
        args.manifests
    };
    let mut checked = 0usize;
    let mut regressions = Vec::new();
    for path in &manifests {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let manifest =
            RunManifest::from_json(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let Some(base) = baseline.entry(&manifest.name) else {
            println!("perf_gate: {}: no baseline entry, skipped", manifest.name);
            continue;
        };
        checked += 1;
        let current = entry_from_manifest(&manifest);
        let found = compare(&manifest.name, base, &current, &args.config);
        if found.is_empty() {
            println!(
                "perf_gate: {}: ok (wall {:.3}s vs baseline {:.3}s)",
                manifest.name, current.wall_seconds, base.wall_seconds
            );
        }
        regressions.extend(found);
    }
    if checked == 0 {
        return Err("no manifest matched a baseline entry; nothing was gated".to_string());
    }
    for r in &regressions {
        println!("perf_gate: REGRESSION {r}");
    }
    Ok(regressions.is_empty())
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("perf_gate: error: {e}");
            ExitCode::from(2)
        }
    }
}
