//! Perf-regression gate: compares fresh run manifests against a committed
//! baseline of per-figure wall-clock, span-total, and cache-hit-rate
//! summaries (`BENCH_BASELINE.json` at the workspace root).
//!
//! The baseline is written by running an experiment binary with
//! `--baseline` (see [`crate::baseline_mode`]): the harness folds the
//! run's manifest into the baseline file. The gate
//! (`cargo run -p dcn-bench --bin perf_gate`) then compares later
//! manifests against it and fails when any tracked quantity regresses
//! beyond tolerance.
//!
//! Only quantities large enough to be meaningfully measurable are gated:
//! spans (and walls) below [`GateConfig::min_seconds`] in the *baseline*
//! are skipped, since micro-timings jitter far beyond any useful
//! tolerance. Spans absent from the current manifest (e.g. a run under
//! `DCN_OBS=off` records no spans at all) are skipped rather than treated
//! as zero — the gate flags measured slowdowns, not missing measurements.

use dcn_obs::json::Json;
use dcn_obs::manifest::RunManifest;
use std::path::Path;

/// Default relative tolerance: a tracked quantity may grow by up to 25%
/// before the gate fails.
pub const DEFAULT_TOLERANCE: f64 = 0.25;

/// Default floor (seconds) under which baseline timings are not gated.
pub const DEFAULT_MIN_SECONDS: f64 = 0.05;

/// Default absolute cache-hit-rate drop that fails the gate.
pub const DEFAULT_HIT_RATE_DROP: f64 = 0.25;

/// The per-run summary tracked by the baseline: wall clock, cache hit
/// rate (when the run recorded one), and total seconds per span path.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BaselineEntry {
    /// Wall-clock seconds of the run.
    pub wall_seconds: f64,
    /// `cache.hit_rate` gauge at manifest time, when recorded.
    pub cache_hit_rate: Option<f64>,
    /// `(span path, total_secs)` pairs, in manifest order.
    pub spans: Vec<(String, f64)>,
}

/// The committed baseline: one [`BaselineEntry`] per run name.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Baseline {
    /// `(run name, entry)` pairs, kept sorted by name for diffable JSON.
    pub entries: Vec<(String, BaselineEntry)>,
}

/// Extracts the gated summary from a full run manifest.
pub fn entry_from_manifest(m: &RunManifest) -> BaselineEntry {
    let mut spans = Vec::new();
    for metric in &m.metrics {
        if metric.kind != "span" {
            continue;
        }
        let Some(path) = metric.name.strip_prefix("span:") else {
            continue;
        };
        if let Some((_, total)) = metric.fields.iter().find(|(k, _)| k == "total_secs") {
            spans.push((path.to_string(), *total));
        }
    }
    BaselineEntry {
        wall_seconds: m.wall_seconds,
        cache_hit_rate: m.metric_field(dcn_obs::names::CACHE_HIT_RATE, "value"),
        spans,
    }
}

impl BaselineEntry {
    fn to_json(&self) -> Json {
        let mut fields = vec![("wall_seconds".to_string(), Json::Num(self.wall_seconds))];
        if let Some(rate) = self.cache_hit_rate {
            fields.push(("cache_hit_rate".to_string(), Json::Num(rate)));
        }
        fields.push((
            "spans".to_string(),
            Json::Obj(
                self.spans
                    .iter()
                    .map(|(p, t)| (p.clone(), Json::Num(*t)))
                    .collect(),
            ),
        ));
        Json::Obj(fields)
    }

    fn from_json(v: &Json) -> Result<BaselineEntry, String> {
        let wall_seconds = v
            .get("wall_seconds")
            .and_then(Json::as_f64)
            .ok_or("entry missing wall_seconds")?;
        let cache_hit_rate = v.get("cache_hit_rate").and_then(Json::as_f64);
        let mut spans = Vec::new();
        if let Some(Json::Obj(pairs)) = v.get("spans") {
            for (path, total) in pairs {
                spans.push((
                    path.clone(),
                    total.as_f64().ok_or("span total not numeric")?,
                ));
            }
        }
        Ok(BaselineEntry {
            wall_seconds,
            cache_hit_rate,
            spans,
        })
    }

    /// The recorded total for a span path, if present.
    pub fn span_total(&self, path: &str) -> Option<f64> {
        self.spans
            .iter()
            .find(|(p, _)| p == path)
            .map(|(_, t)| *t)
    }
}

impl Baseline {
    /// The entry for a run name, if present.
    pub fn entry(&self, name: &str) -> Option<&BaselineEntry> {
        self.entries
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, e)| e)
    }

    /// Inserts or replaces the entry for a run name (kept sorted).
    pub fn upsert(&mut self, name: &str, entry: BaselineEntry) {
        match self.entries.iter_mut().find(|(n, _)| n == name) {
            Some((_, e)) => *e = entry,
            None => {
                self.entries.push((name.to_string(), entry));
                self.entries.sort_by(|(a, _), (b, _)| a.cmp(b));
            }
        }
    }

    /// Serialises to pretty JSON (stable key order: entries sorted).
    pub fn to_json(&self) -> String {
        let entries = Json::Obj(
            self.entries
                .iter()
                .map(|(n, e)| (n.clone(), e.to_json()))
                .collect(),
        );
        Json::obj([("entries", entries)]).to_string_pretty()
    }

    /// Parses a baseline back from JSON.
    pub fn from_json(text: &str) -> Result<Baseline, String> {
        let v = Json::parse(text).map_err(|e| e.to_string())?;
        let mut entries = Vec::new();
        if let Some(Json::Obj(pairs)) = v.get("entries") {
            for (name, ev) in pairs {
                entries.push((name.clone(), BaselineEntry::from_json(ev)?));
            }
        }
        entries.sort_by(|(a, _), (b, _)| a.cmp(b));
        Ok(Baseline { entries })
    }

    /// Loads a baseline file; a missing file is an empty baseline, a
    /// malformed one is an error.
    pub fn load(path: &Path) -> Result<Baseline, String> {
        match std::fs::read_to_string(path) {
            Ok(text) => Baseline::from_json(&text),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Baseline::default()),
            Err(e) => Err(format!("cannot read {}: {e}", path.display())),
        }
    }

    /// Writes the baseline file (pretty JSON with trailing newline).
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_json() + "\n")
    }
}

/// Gate thresholds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GateConfig {
    /// Relative growth allowed before a wall/span regression is flagged.
    pub tolerance: f64,
    /// Baseline timings below this many seconds are not gated (jitter).
    pub min_seconds: f64,
    /// Absolute cache-hit-rate drop that fails the gate.
    pub hit_rate_drop: f64,
}

impl Default for GateConfig {
    fn default() -> Self {
        GateConfig {
            tolerance: DEFAULT_TOLERANCE,
            min_seconds: DEFAULT_MIN_SECONDS,
            hit_rate_drop: DEFAULT_HIT_RATE_DROP,
        }
    }
}

/// One detected regression.
#[derive(Debug, Clone, PartialEq)]
pub struct Regression {
    /// Run name the regression was found in.
    pub run: String,
    /// What regressed: `wall_seconds`, `span:<path>`, or `cache.hit_rate`.
    pub what: String,
    /// Baseline value.
    pub baseline: f64,
    /// Current value.
    pub current: f64,
}

impl std::fmt::Display for Regression {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}: {} regressed: baseline {:.4} -> current {:.4} ({:+.1}%)",
            self.run,
            self.what,
            self.baseline,
            self.current,
            (self.current / self.baseline - 1.0) * 100.0
        )
    }
}

/// Compares a current run summary against its baseline entry; an empty
/// result means the gate passes for this run.
pub fn compare(
    run: &str,
    baseline: &BaselineEntry,
    current: &BaselineEntry,
    cfg: &GateConfig,
) -> Vec<Regression> {
    let mut out = Vec::new();
    let slow = |base: f64, cur: f64| base >= cfg.min_seconds && cur > base * (1.0 + cfg.tolerance);
    if slow(baseline.wall_seconds, current.wall_seconds) {
        out.push(Regression {
            run: run.to_string(),
            what: "wall_seconds".to_string(),
            baseline: baseline.wall_seconds,
            current: current.wall_seconds,
        });
    }
    for (path, base_total) in &baseline.spans {
        // Skip spans the current run did not measure (e.g. DCN_OBS=off):
        // the gate flags measured slowdowns, not missing measurements.
        let Some(cur_total) = current.span_total(path) else {
            continue;
        };
        if slow(*base_total, cur_total) {
            out.push(Regression {
                run: run.to_string(),
                what: format!("span:{path}"),
                baseline: *base_total,
                current: cur_total,
            });
        }
    }
    if let (Some(base_rate), Some(cur_rate)) = (baseline.cache_hit_rate, current.cache_hit_rate) {
        if base_rate - cur_rate > cfg.hit_rate_drop {
            out.push(Regression {
                run: run.to_string(),
                what: "cache.hit_rate".to_string(),
                baseline: base_rate,
                current: cur_rate,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(wall: f64, rate: Option<f64>, spans: &[(&str, f64)]) -> BaselineEntry {
        BaselineEntry {
            wall_seconds: wall,
            cache_hit_rate: rate,
            spans: spans.iter().map(|(p, t)| (p.to_string(), *t)).collect(),
        }
    }

    #[test]
    fn baseline_json_round_trips() {
        let mut b = Baseline::default();
        b.upsert("fig8_frontier", entry(1.5, Some(0.9), &[("core.tub", 0.8)]));
        b.upsert("fig3_gap", entry(0.4, None, &[]));
        let back = Baseline::from_json(&b.to_json()).expect("parse");
        assert_eq!(back, b);
        // Entries sorted by name for diffable output.
        assert_eq!(back.entries[0].0, "fig3_gap");
    }

    #[test]
    fn identical_run_passes() {
        let e = entry(1.0, Some(0.9), &[("core.tub", 0.6), ("core.frontier", 0.9)]);
        assert!(compare("r", &e, &e, &GateConfig::default()).is_empty());
    }

    #[test]
    fn synthetic_2x_slowdown_fails() {
        let base = entry(1.0, Some(0.9), &[("core.tub", 0.6)]);
        let slow = entry(2.0, Some(0.9), &[("core.tub", 1.2)]);
        let regressions = compare("r", &base, &slow, &GateConfig::default());
        let what: Vec<&str> = regressions.iter().map(|r| r.what.as_str()).collect();
        assert_eq!(what, vec!["wall_seconds", "span:core.tub"]);
    }

    #[test]
    fn within_tolerance_passes() {
        let base = entry(1.0, None, &[("core.tub", 0.6)]);
        let ok = entry(1.2, None, &[("core.tub", 0.7)]);
        assert!(compare("r", &base, &ok, &GateConfig::default()).is_empty());
    }

    #[test]
    fn tiny_baseline_spans_are_not_gated() {
        // 1ms baseline doubling is jitter, not a regression.
        let base = entry(0.001, None, &[("obs.tiny", 0.002)]);
        let slow = entry(0.004, None, &[("obs.tiny", 0.009)]);
        assert!(compare("r", &base, &slow, &GateConfig::default()).is_empty());
    }

    #[test]
    fn missing_current_span_is_skipped() {
        let base = entry(1.0, None, &[("core.tub", 0.6)]);
        let off = entry(1.0, None, &[]);
        assert!(compare("r", &base, &off, &GateConfig::default()).is_empty());
    }

    #[test]
    fn hit_rate_drop_fails() {
        let base = entry(1.0, Some(0.95), &[]);
        let cold = entry(1.0, Some(0.2), &[]);
        let regressions = compare("r", &base, &cold, &GateConfig::default());
        assert_eq!(regressions.len(), 1);
        assert_eq!(regressions[0].what, "cache.hit_rate");
    }

    #[test]
    fn entry_from_manifest_extracts_spans_and_rate() {
        use dcn_obs::manifest::{ManifestMetric, RunManifest};
        let m = RunManifest {
            name: "t".into(),
            seed: None,
            args: vec![],
            wall_seconds: 2.5,
            mode: "summary".into(),
            threads: 4,
            metrics: vec![
                ManifestMetric {
                    name: "span:core.tub".into(),
                    kind: "span".into(),
                    fields: vec![
                        ("count".into(), 3.0),
                        ("total_secs".into(), 1.5),
                        ("self_secs".into(), 1.0),
                    ],
                },
                ManifestMetric {
                    name: "cache.hit_rate".into(),
                    kind: "gauge".into(),
                    fields: vec![("value".into(), 0.75)],
                },
                ManifestMetric {
                    name: "mcf.fptas.phases".into(),
                    kind: "counter".into(),
                    fields: vec![("value".into(), 17.0)],
                },
            ],
        };
        let e = entry_from_manifest(&m);
        assert_eq!(e.wall_seconds, 2.5);
        assert_eq!(e.cache_hit_rate, Some(0.75));
        assert_eq!(e.spans, vec![("core.tub".to_string(), 1.5)]);
    }
}
