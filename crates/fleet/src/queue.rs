//! The spill-to-disk work queue: directory layout, atomic file protocol,
//! and the unit/result record formats.
//!
//! Layout under one queue root:
//!
//! ```text
//! pending/<id>.json            {"id", "attempt", "payload"}
//! claimed/<id>.<pid>.json      same record, renamed here by the claiming worker
//! results/fleet-result-<id>.json
//!                              {"id", "attempt", "ok": …} or {…, "err": "…"}
//! quarantine/<id>.json         {"id", "attempts", "reason"}
//! hb/<pid>.json                {"pid", "id", "attempt"} — worker heartbeat
//! ```
//!
//! Every write goes through a per-process uniquely named temp file plus
//! `rename`, and every claim *is* a rename, so concurrent workers never
//! observe torn records and exactly one wins each unit.

use crate::FleetError;
use dcn_obs::json::Json;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// The result-record prefix ("kind" in `dcn-cache` terms): completed
/// units live at `results/fleet-result-<id>.json`, which makes crash
/// recovery a [`dcn_cache::scan_keys`] call over the results directory.
pub const RESULT_KIND: &str = "fleet-result";

/// One serializable unit of sweep work.
///
/// The `id` doubles as the work's identity across crashes and restarts —
/// sweeps derive it from `dcn-cache`'s 128-bit content keys (rendered as
/// hex) so the same cell always maps to the same queue files. The
/// `payload` must be self-contained: a worker reconstructs the full cell
/// from it and nothing else.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkUnit {
    /// Stable content-derived identifier; must match
    /// [`id_is_filename_safe`] since it becomes part of file names.
    pub id: String,
    /// Self-contained JSON description of the work.
    pub payload: Json,
}

/// Ids become file names and are parsed back out of `<id>.<pid>.json`
/// claim names, so they are restricted to `[A-Za-z0-9_-]` (no dots, no
/// separators). Cache-key hex ids satisfy this trivially.
pub(crate) fn id_is_filename_safe(id: &str) -> bool {
    !id.is_empty()
        && id
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-')
}

/// Resolved subdirectories of one queue root.
#[derive(Debug, Clone)]
pub(crate) struct QueueDirs {
    pub(crate) pending: PathBuf,
    pub(crate) claimed: PathBuf,
    pub(crate) results: PathBuf,
    pub(crate) quarantine: PathBuf,
    pub(crate) heartbeats: PathBuf,
}

impl QueueDirs {
    /// Opens (creating if needed) the queue layout under `root`.
    pub(crate) fn open(root: &Path) -> Result<QueueDirs, FleetError> {
        let dirs = QueueDirs {
            pending: root.join("pending"),
            claimed: root.join("claimed"),
            results: root.join("results"),
            quarantine: root.join("quarantine"),
            heartbeats: root.join("hb"),
        };
        for d in [
            &dirs.pending,
            &dirs.claimed,
            &dirs.results,
            &dirs.quarantine,
            &dirs.heartbeats,
        ] {
            fs::create_dir_all(d).map_err(|source| FleetError::Io {
                path: d.clone(),
                source,
            })?;
        }
        Ok(dirs)
    }

    pub(crate) fn pending_path(&self, id: &str) -> PathBuf {
        self.pending.join(format!("{id}.json"))
    }

    pub(crate) fn claim_path(&self, id: &str, pid: u32) -> PathBuf {
        self.claimed.join(format!("{id}.{pid}.json"))
    }

    pub(crate) fn result_path(&self, id: &str) -> PathBuf {
        self.results.join(format!("{RESULT_KIND}-{id}.json"))
    }

    pub(crate) fn quarantine_path(&self, id: &str) -> PathBuf {
        self.quarantine.join(format!("{id}.json"))
    }

    pub(crate) fn heartbeat_path(&self, pid: u32) -> PathBuf {
        self.heartbeats.join(format!("{pid}.json"))
    }
}

/// A pending/claimed unit record: the unit plus its attempt number.
#[derive(Debug, Clone)]
pub(crate) struct UnitRecord {
    pub(crate) id: String,
    pub(crate) attempt: u64,
    pub(crate) payload: Json,
}

impl UnitRecord {
    pub(crate) fn to_json(&self) -> Json {
        Json::obj([
            ("id", Json::Str(self.id.clone())),
            ("attempt", Json::Num(self.attempt as f64)),
            ("payload", self.payload.clone()),
        ])
    }

    pub(crate) fn from_json(json: &Json) -> Result<UnitRecord, String> {
        let id = json
            .get("id")
            .and_then(Json::as_str)
            .ok_or("unit record missing id")?
            .to_string();
        let attempt = json
            .get("attempt")
            .and_then(Json::as_u64)
            .ok_or("unit record missing attempt")?;
        let payload = json.get("payload").ok_or("unit record missing payload")?;
        Ok(UnitRecord {
            id,
            attempt,
            payload: payload.clone(),
        })
    }
}

/// Writes `json` to `final_path` atomically: the bytes land in a temp
/// file whose name is unique to this process (pid + a process-local
/// counter), then a single `rename` publishes them. Readers of
/// `final_path` therefore always see a complete record.
pub(crate) fn write_json_atomic(final_path: &Path, json: &Json) -> Result<(), FleetError> {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = final_path.parent().unwrap_or(Path::new("."));
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    let tmp = dir.join(format!(".tmp-{}-{seq}", std::process::id()));
    let io_err = |source| FleetError::Io {
        path: final_path.to_path_buf(),
        source,
    };
    if let Err(e) = fs::write(&tmp, json.to_string_pretty()) {
        let _ = fs::remove_file(&tmp);
        return Err(io_err(e));
    }
    if let Err(e) = fs::rename(&tmp, final_path) {
        let _ = fs::remove_file(&tmp);
        return Err(io_err(e));
    }
    Ok(())
}

/// Reads and parses one JSON record file.
pub(crate) fn read_json(path: &Path) -> Result<Json, String> {
    let text = fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("parse {}: {e}", path.display()))
}

/// Lists the `<stem>.json` stems in a directory, sorted for determinism.
/// A missing directory reads as empty.
pub(crate) fn list_json_stems(dir: &Path) -> Vec<String> {
    let mut out = Vec::new();
    let Ok(entries) = fs::read_dir(dir) else {
        return out;
    };
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some(stem) = name.strip_suffix(".json") {
            out.push(stem.to_string());
        }
    }
    out.sort();
    out
}

/// Writes the quarantine record for a unit.
pub(crate) fn write_quarantine(
    dirs: &QueueDirs,
    id: &str,
    attempts: u64,
    reason: &str,
) -> Result<(), FleetError> {
    let record = Json::obj([
        ("id", Json::Str(id.to_string())),
        ("attempts", Json::Num(attempts as f64)),
        ("reason", Json::Str(reason.to_string())),
    ]);
    write_json_atomic(&dirs.quarantine_path(id), &record)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_reject_path_mischief() {
        assert!(id_is_filename_safe("0123abcdef-XYZ_9"));
        assert!(!id_is_filename_safe(""));
        assert!(!id_is_filename_safe("a.b"));
        assert!(!id_is_filename_safe("a/b"));
        assert!(!id_is_filename_safe(".."));
    }

    #[test]
    fn unit_record_round_trips() {
        let rec = UnitRecord {
            id: "abc123".to_string(),
            attempt: 3,
            payload: Json::obj([("x", Json::Num(7.0))]),
        };
        let back = UnitRecord::from_json(&rec.to_json()).unwrap();
        assert_eq!(back.id, "abc123");
        assert_eq!(back.attempt, 3);
        assert_eq!(back.payload.get("x").and_then(Json::as_u64), Some(7));
    }
}
