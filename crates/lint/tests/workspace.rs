//! Integration test: the live workspace lints clean, and the walker's file
//! classification matches the layout the rules assume.

use std::path::Path;

use consume_local_lint::{classify, lint_workspace};

fn workspace_root() -> &'static Path {
    // crates/lint -> crates -> workspace root
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .unwrap()
        .parent()
        .unwrap()
}

#[test]
fn live_workspace_lints_clean() {
    let report = lint_workspace(workspace_root()).expect("workspace walk");
    assert!(
        report.is_clean(),
        "workspace must lint clean; findings:\n{}",
        report
            .diagnostics
            .iter()
            .map(|d| d.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
    // Sanity: the walk actually visited the tree.
    assert!(
        report.files_scanned > 100,
        "only {} files scanned — walker misconfigured?",
        report.files_scanned
    );
}

#[test]
fn classification_matches_layout() {
    let root = classify("crates/core/src/lib.rs");
    assert!(root.crate_root && root.require_missing_docs);
    assert!(!root.thread_spawn_allowed);

    let shim = classify("shims/rand/src/lib.rs");
    assert!(shim.crate_root && !shim.require_missing_docs);

    let module = classify("crates/core/src/figures/fig4.rs");
    assert!(!module.crate_root);

    let par = classify("crates/stats/src/par.rs");
    assert!(par.thread_spawn_allowed && !par.crate_root);

    // The snapshot-format guard covers the sim crate, the engine's files
    // and the payload layout included, except the envelope codec itself.
    for guarded in [
        "crates/sim/src/engine.rs",
        "crates/sim/src/engine/machine.rs",
        "crates/sim/src/engine/run.rs",
        "crates/sim/src/engine/oracle.rs",
        "crates/sim/src/engine/tests.rs",
        "crates/sim/src/checkpoint/payload.rs",
        "crates/sim/src/online/faults.rs",
    ] {
        assert!(classify(guarded).snapshot_guarded, "{guarded}");
    }
    let codec = classify("crates/sim/src/checkpoint.rs");
    assert!(!codec.snapshot_guarded);
    assert!(!root.snapshot_guarded);
}
