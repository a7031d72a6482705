//! Deterministic workspace walk and rule orchestration.
//!
//! The walker visits `crates/`, `shims/`, `src/`, `tests/` and `examples/`
//! under the workspace root, in sorted order (so diagnostics are stable
//! across machines and runs — the lint's own output must honour the
//! no-hash-order invariant it enforces) and classifies each `.rs` file for
//! the per-file rules.
//!
//! Skipped: `target/` (build output) and any directory named `fixtures`
//! (lint test fixtures *contain* violations on purpose).

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::rules::{lint_source, Diagnostic, FileClass};

/// The top-level directories the walker scans for Rust sources.
const SCAN_DIRS: &[&str] = &["crates", "shims", "src", "tests", "examples"];

/// Directory names never descended into.
const SKIP_DIRS: &[&str] = &["target", "fixtures"];

/// The result of linting a workspace tree.
#[derive(Debug, Default)]
pub struct LintReport {
    /// All findings, sorted by `(file, line, rule)`.
    pub diagnostics: Vec<Diagnostic>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
}

impl LintReport {
    /// Whether the tree is clean.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }
}

/// Classifies a workspace-relative path (forward-slash separated) for the
/// per-file rules. Public so tests can pin the classification table.
pub fn classify(rel: &str) -> FileClass {
    let is_member_root = (rel.starts_with("crates/") || rel.starts_with("shims/"))
        && (rel.ends_with("/src/lib.rs") || rel.ends_with("/src/main.rs"))
        && rel.matches('/').count() == 3;
    let crate_root = rel == "src/lib.rs" || is_member_root;
    FileClass {
        crate_root,
        // Shim crates mirror external crate APIs; the docs policy applies
        // to the product crates (and the workspace-root package) only.
        require_missing_docs: crate_root && !rel.starts_with("shims/"),
        // The one sanctioned home of thread spawning: the slot-ordered
        // fan-out primitives themselves.
        thread_spawn_allowed: rel == "crates/stats/src/par.rs",
        // Snapshot bytes must flow through the checkpoint envelope codec;
        // `checkpoint.rs` is that codec, everything else in the sim crate
        // is guarded, the payload layout in `checkpoint/payload.rs` too.
        snapshot_guarded: rel.starts_with("crates/sim/src/")
            && rel != "crates/sim/src/checkpoint.rs",
    }
}

/// Lints the workspace rooted at `root`: every `.rs` file under the scan
/// directories.
///
/// # Errors
///
/// Returns an error when the tree cannot be read (missing root, unreadable
/// file). Lint findings are *not* errors; they come back in the report.
pub fn lint_workspace(root: &Path) -> io::Result<LintReport> {
    let mut report = LintReport::default();

    let mut files: Vec<PathBuf> = Vec::new();
    for dir in SCAN_DIRS {
        let dir = root.join(dir);
        if dir.is_dir() {
            collect_rs_files(&dir, &mut files)?;
        }
    }
    files.sort();

    for path in &files {
        let rel = relative_label(root, path);
        let source = fs::read_to_string(path)?;
        report
            .diagnostics
            .extend(lint_source(&rel, &source, &classify(&rel)));
        report.files_scanned += 1;
    }

    report
        .diagnostics
        .sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    Ok(report)
}

/// Recursively collects `.rs` files, skipping [`SKIP_DIRS`].
fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    let mut entries: Vec<_> = fs::read_dir(dir)?.collect::<io::Result<_>>()?;
    entries.sort_by_key(|e| e.file_name());
    for entry in entries {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if !SKIP_DIRS.contains(&name.as_ref()) {
                collect_rs_files(&path, out)?;
            }
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// The workspace-relative, forward-slash label used in diagnostics.
fn relative_label(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}
