//! dcn-lint: a self-contained static-analysis pass over the workspace's
//! own Rust sources.
//!
//! The linter enforces the invariants that keep the TUB pipeline honest
//! and that no stock rustc/clippy lint expresses: every unbounded loop
//! answers to a [`Budget`](../dcn_guard/struct.Budget.html), float
//! comparisons go through tolerance helpers, metric names live in one
//! registry, locks are acquired in one declared order and never held
//! across blocking calls, atomics spell out their memory orderings, and
//! every `DCN_*` environment knob is registered in `dcn_guard::env` and
//! mirrored in the README. Panic-freedom, the clock/thread/process
//! confinement, `unsafe` and doc coverage are stock lints configured in
//! the root `Cargo.toml` and `clippy.toml`; dcn-lint's `workspace-lints`
//! rule checks that every crate manifest inherits them.
//!
//! It deliberately has **zero external dependencies** and no real Rust
//! parser: a lossy scanner ([`scan`]) masks comments and string contents
//! while preserving byte offsets, which is enough for the token-level
//! rules in [`rules`]. Since v2 the engine is two-pass: pass 1 builds a
//! workspace symbol [`index`] (each file parsed exactly once), pass 2
//! fans the per-file rules out over a `dcn_exec::Pool` — diagnostics are
//! merged in input order, so the report is byte-identical at any
//! `DCN_EXEC_THREADS` — and runs the cross-file registry and manifest
//! rules serially.
//! The trade-offs of the lossy scan are documented in DESIGN.md §9/§14.

pub mod index;
pub mod rules;
pub mod scan;

use dcn_guard::{Budget, BudgetError};
use index::WorkspaceIndex;
use rules::Diagnostic;
use scan::SourceFile;
use std::path::{Path, PathBuf};

/// Result of linting a tree.
pub struct Report {
    /// Surviving diagnostics, sorted by (file, line, rule).
    pub diagnostics: Vec<Diagnostic>,
    /// Justified allow annotations that suppressed at least one finding.
    pub allows_honored: usize,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
}

impl Report {
    /// True when any diagnostic survived (every rule is an error).
    pub fn has_errors(&self) -> bool {
        !self.diagnostics.is_empty()
    }
}

/// Directory names never descended into: build output, vendored deps,
/// VCS metadata, and the lint fixture corpus (which contains deliberate
/// violations).
const SKIP_DIRS: &[&str] = &["target", "vendor", ".git", "fixtures"];

/// Collects every `.rs` file under `root`, relative paths sorted.
fn collect_sources(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir)? {
            let entry = entry?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if entry.file_type()?.is_dir() {
                if !SKIP_DIRS.contains(&name.as_ref()) && !name.starts_with('.') {
                    stack.push(path);
                }
            } else if name.ends_with(".rs") {
                out.push(path);
            }
        }
    }
    out.sort();
    Ok(out)
}

/// The pool fan-outs run under an unlimited budget (linting is bounded
/// by the file set), so a `BudgetError` surfacing is a program bug, not
/// an environmental condition — map it to an opaque io::Error rather
/// than panicking.
fn budget_io(e: BudgetError) -> std::io::Error {
    std::io::Error::other(format!("lint pool budget: {e}"))
}

/// Errors inside the parallel scan stage: file I/O or (nominally) budget.
enum ScanError {
    Io(std::io::Error),
    Budget(BudgetError),
}

impl From<BudgetError> for ScanError {
    fn from(e: BudgetError) -> Self {
        ScanError::Budget(e)
    }
}

/// `(path, text)` of each manifest the `workspace-lints` rule checks: the
/// root package (when the root manifest declares one) and every
/// `crates/*/Cargo.toml`, in path order.
fn member_manifests(root: &Path) -> Vec<(String, String)> {
    let mut out = Vec::new();
    if let Ok(text) = std::fs::read_to_string(root.join("Cargo.toml")) {
        if text.lines().any(|l| l.trim() == "[package]") {
            out.push(("Cargo.toml".to_string(), text));
        }
    }
    let mut crates: Vec<String> = std::fs::read_dir(root.join("crates"))
        .into_iter()
        .flatten()
        .flatten()
        .map(|e| format!("crates/{}/Cargo.toml", e.file_name().to_string_lossy()))
        .collect();
    crates.sort();
    for rel in crates {
        if let Ok(text) = std::fs::read_to_string(root.join(&rel)) {
            out.push((rel, text));
        }
    }
    out
}

/// Reads and scans every source under `root`, in parallel, results in
/// path order.
fn scan_sources(
    root: &Path,
    pool: &dcn_exec::Pool,
    budget: &Budget,
) -> std::io::Result<Vec<SourceFile>> {
    let paths = collect_sources(root)?;
    pool.par_map(budget, &paths, |_, p: &PathBuf| {
        let raw = std::fs::read_to_string(p).map_err(ScanError::Io)?;
        let rel = p
            .strip_prefix(root)
            .unwrap_or(p)
            .to_string_lossy()
            .replace('\\', "/");
        Ok(SourceFile::new(rel, raw))
    })
    .map_err(|e| match e {
        ScanError::Io(e) => e,
        ScanError::Budget(e) => budget_io(e),
    })
}

/// Lints the workspace rooted at `root` and returns the report.
///
/// Pipeline: parallel read+scan (each file parsed exactly once), parallel
/// pass-1 indexing, parallel per-file rules, then the serial cross-file
/// rules and allow resolution. Every fan-out merges in input order, so
/// the report is identical at any worker count.
pub fn lint_root(root: &Path) -> std::io::Result<Report> {
    let pool = dcn_exec::Pool::from_env();
    let budget = Budget::unlimited();
    let files = scan_sources(root, &pool, &budget)?;
    let per_file = pool
        .par_map(&budget, &files, |_, f| {
            Ok::<_, BudgetError>(index::index_file(f))
        })
        .map_err(budget_io)?;
    let index = WorkspaceIndex::build(&files, per_file);
    let raw = pool
        .par_map(&budget, &files, |fi, f| {
            Ok::<_, BudgetError>(rules::per_file_diags(f, fi, &index))
        })
        .map_err(budget_io)?;
    let mut raw: Vec<Diagnostic> = raw.into_iter().flatten().collect();
    let readme = std::fs::read_to_string(root.join("README.md")).ok();
    raw.extend(rules::cross_file_diags(
        &files,
        &index,
        readme.as_deref(),
        &member_manifests(root),
    ));
    let outcome = rules::finish(&files, raw);
    Ok(Report {
        diagnostics: outcome.diagnostics,
        allows_honored: outcome.allows_honored,
        files_scanned: files.len(),
    })
}

/// Renders the expected README environment-variable table for the tree
/// at `root` (the `--env-table` CLI mode). Errors when the tree has no
/// env registry to generate from.
pub fn env_table_for_root(root: &Path) -> std::io::Result<String> {
    let path = root.join(index::ENV_REGISTRY_REL);
    let raw = std::fs::read_to_string(&path)?;
    let f = SourceFile::new(index::ENV_REGISTRY_REL.to_string(), raw);
    Ok(index::env_table(&index::parse_env_registry(&f)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn skip_list_covers_fixture_corpus() {
        assert!(SKIP_DIRS.contains(&"fixtures"));
        assert!(SKIP_DIRS.contains(&"vendor"));
    }
}
