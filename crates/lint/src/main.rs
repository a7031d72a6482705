//! Driver for the workspace lint: `cargo run -p consume-local-lint`.
//!
//! Lints the workspace this binary was built from (override the tree with
//! `CL_LINT_ROOT=/path`), prints every finding as `file:line: [rule]
//! message`, and exits nonzero when the tree is not clean — the CI `lint`
//! job gates on exactly this exit code.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use consume_local_lint::lint_workspace;

fn main() -> ExitCode {
    let root = std::env::var_os("CL_LINT_ROOT")
        .map(PathBuf::from)
        .unwrap_or_else(|| Path::new(env!("CARGO_MANIFEST_DIR")).join("../.."));

    let report = match lint_workspace(&root) {
        Ok(report) => report,
        Err(err) => {
            eprintln!("consume-local-lint: cannot read workspace at {root:?}: {err}");
            return ExitCode::from(2);
        }
    };

    for finding in &report.diagnostics {
        println!("{finding}");
    }
    println!(
        "consume-local-lint: {} file(s) scanned, {} finding(s)",
        report.files_scanned,
        report.diagnostics.len()
    );
    if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
