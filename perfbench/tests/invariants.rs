//! The benchmark lives outside the workspace the lint walks, so this test
//! holds its sources to the workspace's rules under the strictest file
//! class: threads only through `par::parallel_join`, no ambient-entropy
//! RNG, clock reads only with a justified `lint:allow(no-wall-clock)`
//! pragma, no unsorted hash iteration.
//!
//! Run with `cargo test --manifest-path perfbench/Cargo.toml`.

use std::path::Path;

use consume_local_lint::{lint_source, FileClass};

#[test]
fn benchmark_sources_follow_the_workspace_rules() {
    let src = Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
    let mut files: Vec<_> = std::fs::read_dir(&src)
        .expect("src/ is readable")
        .map(|e| e.expect("directory entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "rs"))
        .collect();
    files.sort();
    assert!(files.len() >= 8, "only {} sources found", files.len());
    let mut findings = Vec::new();
    for path in &files {
        let label = format!(
            "perfbench/src/{}",
            path.file_name().unwrap().to_string_lossy()
        );
        let source = std::fs::read_to_string(path).expect("source is readable");
        findings.extend(lint_source(&label, &source, &FileClass::default()));
    }
    let report: Vec<String> = findings.iter().map(ToString::to_string).collect();
    assert!(report.is_empty(), "findings:\n{}", report.join("\n"));
}
