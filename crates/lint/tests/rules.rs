//! Fixture-based tests: one violating and one clean fixture per rule, plus
//! allow-pragma and false-positive cases (rule triggers inside strings and
//! comments must not fire).
//!
//! Fixtures are raw-string literals, so this test file itself lints clean
//! when the workspace pass scans it — the lexer skips string contents.

use consume_local_lint::{lint_source, Diagnostic, FileClass, Rule};

fn product() -> FileClass {
    FileClass::default()
}

fn findings(source: &str, class: &FileClass) -> Vec<Diagnostic> {
    lint_source("fixture.rs", source, class)
}

fn rules_of(diags: &[Diagnostic]) -> Vec<Rule> {
    diags.iter().map(|d| d.rule).collect()
}

// ---------------------------------------------------------------- no-thread-spawn

#[test]
fn thread_spawn_violates() {
    let src = r#"
fn fan_out() {
    std::thread::spawn(|| {});
}
"#;
    let diags = findings(src, &product());
    assert_eq!(rules_of(&diags), [Rule::NoThreadSpawn]);
    assert_eq!(diags[0].line, 3);
}

#[test]
fn thread_scope_violates_and_allowlisted_module_is_clean() {
    let src = r#"
fn fan_out() {
    std::thread::scope(|s| { let _ = s; });
}
"#;
    assert_eq!(rules_of(&findings(src, &product())), [Rule::NoThreadSpawn]);

    let par = FileClass {
        thread_spawn_allowed: true,
        ..FileClass::default()
    };
    assert!(findings(src, &par).is_empty(), "stats::par may spawn");
}

#[test]
fn thread_spawn_in_strings_and_comments_is_clean() {
    let src = r##"
// std::thread::spawn is banned outside stats::par.
/// Documentation may say thread::scope freely.
fn f() -> &'static str {
    let _block = /* thread::spawn */ 1;
    "call std::thread::spawn elsewhere"
}
"##;
    assert!(findings(src, &product()).is_empty());
}

#[test]
fn thread_spawn_allow_pragma_suppresses() {
    let src = r#"
fn f() {
    // lint:allow(no-thread-spawn) bootstrap thread before the pool exists
    std::thread::spawn(|| {});
}
"#;
    assert!(findings(src, &product()).is_empty());
}

// ---------------------------------------------------------------- no-entropy-rng

#[test]
fn entropy_rng_violates() {
    let src = r#"
fn f() {
    let mut r = rand::thread_rng();
    let _ = StdRng::from_entropy();
    let _: u64 = rand::random();
}
"#;
    let diags = findings(src, &product());
    assert_eq!(
        rules_of(&diags),
        [Rule::NoEntropyRng, Rule::NoEntropyRng, Rule::NoEntropyRng]
    );
    assert_eq!(diags[0].line, 3);
    assert_eq!(diags[1].line, 4);
    assert_eq!(diags[2].line, 5);
}

#[test]
fn seeded_rng_is_clean() {
    let src = r#"
fn f() {
    let mut r = StdRng::seed_from_u64(2018);
    let _ = r;
}
"#;
    assert!(findings(src, &product()).is_empty());
}

#[test]
fn entropy_rng_in_strings_and_comments_is_clean() {
    let src = r#"
// thread_rng and from_entropy are banned; this comment is fine.
fn f() -> &'static str {
    "never call thread_rng() or OsRng here"
}
"#;
    assert!(findings(src, &product()).is_empty());
}

// ---------------------------------------------------------------- no-wall-clock

#[test]
fn wall_clock_violates_with_line() {
    let src = r#"
use std::time::Instant;

fn f() -> u64 {
    let t = SystemTime::now();
    let _ = t;
    0
}
"#;
    let diags = findings(src, &product());
    assert_eq!(rules_of(&diags), [Rule::NoWallClock, Rule::NoWallClock]);
    assert_eq!(diags[0].line, 2);
    assert_eq!(diags[1].line, 5);
}

#[test]
fn instantiates_in_docs_does_not_trigger() {
    // `Instant` must match on identifier boundaries — and comments are
    // skipped entirely, so even a literal mention is fine.
    let src = r#"
/// Instantiates the matcher; an Instant here is just prose.
fn instantiate() {}
"#;
    assert!(findings(src, &product()).is_empty());
}

#[test]
fn wall_clock_allow_same_line_and_preceding_line() {
    let same_line = r#"
fn f() { let _ = std::time::Instant::now(); } // lint:allow(no-wall-clock) telemetry only
"#;
    assert!(findings(same_line, &product()).is_empty());

    let line_above = r#"
fn f() {
    // lint:allow(no-wall-clock) wall_ms telemetry, omitted from reports
    let _ = std::time::Instant::now();
}
"#;
    assert!(findings(line_above, &product()).is_empty());
}

#[test]
fn deleting_the_allow_makes_it_fail() {
    // The acceptance property, in miniature: the annotated fixture is
    // clean; stripping the pragma line yields a named file:line finding.
    let annotated = r#"
fn f() {
    // lint:allow(no-wall-clock) wall_ms telemetry, omitted from reports
    let _ = std::time::Instant::now();
}
"#;
    assert!(findings(annotated, &product()).is_empty());

    let stripped: String = annotated
        .lines()
        .filter(|l| !l.contains("lint:allow"))
        .collect::<Vec<_>>()
        .join("\n");
    let diags = findings(&stripped, &product());
    assert_eq!(rules_of(&diags), [Rule::NoWallClock]);
    assert_eq!(diags[0].line, 3, "diagnostic names the offending line");
}

// ---------------------------------------------------------------- hash-iter

#[test]
fn hash_map_iteration_violates() {
    let src = r#"
use std::collections::HashMap;

fn f() {
    let mut m: HashMap<u32, u32> = HashMap::new();
    m.insert(1, 2);
    for (k, v) in &m {
        println!("{k}{v}");
    }
    let _sum: u32 = m.values().sum();
}
"#;
    let diags = findings(src, &product());
    assert_eq!(rules_of(&diags), [Rule::HashIter, Rule::HashIter]);
    assert_eq!(diags[0].line, 7);
    assert_eq!(diags[1].line, 10);
}

#[test]
fn hash_set_field_iteration_violates_via_self() {
    let src = r#"
use std::collections::HashSet;

struct S {
    seen: HashSet<u32>,
}

impl S {
    fn f(&self) -> Vec<u32> {
        self.seen.iter().copied().collect()
    }
}
"#;
    let diags = findings(src, &product());
    assert_eq!(rules_of(&diags), [Rule::HashIter]);
    assert_eq!(diags[0].line, 10);
}

#[test]
fn hash_map_lookups_and_sorted_structures_are_clean() {
    let src = r#"
use std::collections::{BTreeMap, HashMap};

fn f() {
    let mut m: HashMap<u32, u32> = HashMap::new();
    let _ = m.get(&1);
    let _ = m.entry(2).or_insert(3);
    let _ = m.len();

    // BTreeMap iterates in key order: not a hash-iter concern.
    let b: BTreeMap<u32, u32> = BTreeMap::new();
    for (k, v) in &b {
        println!("{k}{v}");
    }
}
"#;
    assert!(findings(src, &product()).is_empty());
}

#[test]
fn foreign_field_sharing_a_hash_name_is_clean() {
    // `s.theory` is a Vec field on some other struct; the local HashMap
    // merely shares the name. Field accesses through a non-`self` receiver
    // are not flagged.
    let src = r#"
use std::collections::HashMap;

fn f(series: &[Series]) {
    for s in series {
        let theory: HashMap<u32, f64> = s.theory.iter().copied().collect();
        let _ = theory.get(&1);
    }
}
"#;
    assert!(findings(src, &product()).is_empty());
}

#[test]
fn hash_iter_allow_pragma_suppresses() {
    let src = r#"
use std::collections::HashMap;

fn f(m: &HashMap<u32, u32>) -> u32 {
    // lint:allow(hash-iter) commutative sum; order cannot reach the output
    m.values().sum()
}
"#;
    assert!(findings(src, &product()).is_empty());
}

// ---------------------------------------------------------------- crate-header

#[test]
fn crate_root_missing_headers_violates() {
    let src = "//! A crate.\n\npub fn f() {}\n";
    let root = FileClass {
        crate_root: true,
        require_missing_docs: true,
        ..FileClass::default()
    };
    let diags = findings(src, &root);
    assert_eq!(rules_of(&diags), [Rule::CrateHeader, Rule::CrateHeader]);
    assert!(diags.iter().all(|d| d.line == 1));
    assert!(diags[0].message.contains("forbid(unsafe_code)"));
    assert!(diags[1].message.contains("missing_docs"));
}

#[test]
fn crate_root_with_headers_is_clean() {
    let src = "//! A crate.\n\n#![forbid(unsafe_code)]\n#![warn(missing_docs)]\n\npub fn f() {}\n";
    let root = FileClass {
        crate_root: true,
        require_missing_docs: true,
        ..FileClass::default()
    };
    assert!(findings(src, &root).is_empty());
}

#[test]
fn shim_root_needs_only_unsafe_forbid() {
    let src = "//! A shim.\n\n#![forbid(unsafe_code)]\n\npub fn f() {}\n";
    let shim = FileClass {
        crate_root: true,
        require_missing_docs: false,
        ..FileClass::default()
    };
    assert!(findings(src, &shim).is_empty());
}

#[test]
fn non_root_files_skip_the_header_rule() {
    assert!(findings("pub fn f() {}\n", &product()).is_empty());
}

#[test]
fn header_inside_comment_or_string_does_not_count() {
    // The attribute must be real tokens: naming it in docs or a string
    // does not satisfy the rule.
    let src = r##"
//! This crate should carry #![forbid(unsafe_code)] someday.

pub fn f() -> &'static str {
    "#![forbid(unsafe_code)] #![warn(missing_docs)]"
}
"##;
    let root = FileClass {
        crate_root: true,
        require_missing_docs: true,
        ..FileClass::default()
    };
    assert_eq!(
        rules_of(&findings(src, &root)),
        [Rule::CrateHeader, Rule::CrateHeader]
    );
}

// ---------------------------------------------------------------- allow-pragma

#[test]
fn allow_without_justification_is_reported() {
    let src = r#"
fn f() {
    // lint:allow(no-wall-clock)
    let _ = std::time::Instant::now();
}
"#;
    let diags = findings(src, &product());
    // The pragma is invalid, so the wall-clock finding stands too.
    assert_eq!(rules_of(&diags), [Rule::AllowPragma, Rule::NoWallClock]);
    assert!(diags[0].message.contains("justification"));
}

#[test]
fn allow_with_unknown_rule_is_reported() {
    let src = r#"
// lint:allow(no-such-rule) some reason
fn f() {}
"#;
    let diags = findings(src, &product());
    assert_eq!(rules_of(&diags), [Rule::AllowPragma]);
    assert!(diags[0].message.contains("no-such-rule"));
}

#[test]
fn unused_allow_is_reported() {
    let src = r#"
fn f() {
    // lint:allow(no-wall-clock) stale: the Instant below was removed
    let _ = 1;
}
"#;
    let diags = findings(src, &product());
    assert_eq!(rules_of(&diags), [Rule::AllowPragma]);
    assert!(diags[0].message.contains("unused"));
    assert_eq!(diags[0].line, 3);
}

// ---------------------------------------------------------------- diagnostics

#[test]
fn diagnostics_render_file_line_rule() {
    let src = "fn f() { let _ = std::time::Instant::now(); }";
    let diags = findings(src, &product());
    let rendered = diags[0].to_string();
    assert!(
        rendered.starts_with("fixture.rs:1: [no-wall-clock]"),
        "{rendered}"
    );
}

// ---------------------------------------------------------------- snapshot-format

fn snapshot_guarded() -> FileClass {
    FileClass {
        snapshot_guarded: true,
        ..FileClass::default()
    }
}

#[test]
fn raw_codec_calls_violate_in_guarded_files() {
    let src = r#"
fn f(out: &mut impl std::io::Write, input: &mut impl std::io::Read) {
    out.write_all(&[1, 2, 3]).unwrap();
    let mut buf = [0u8; 8];
    input.read_exact(&mut buf).unwrap();
    let bytes = 7u64.to_le_bytes();
    let v = u64::from_le_bytes(bytes);
    let _ = v;
}
"#;
    let diags = findings(src, &snapshot_guarded());
    assert_eq!(
        rules_of(&diags),
        [Rule::SnapshotFormat; 4],
        "every raw codec call is flagged: {diags:?}"
    );
    assert_eq!(diags[0].line, 3);
    assert!(diags[0].message.contains("SnapshotWriter"));
}

#[test]
fn raw_codec_calls_are_clean_outside_guarded_files() {
    // The same source in an unguarded file (any crate but sim, or the
    // checkpoint module itself) is fine — the envelope codec has to call
    // these somewhere.
    let src = r#"
fn f(out: &mut impl std::io::Write) {
    out.write_all(&7u64.to_le_bytes()).unwrap();
}
"#;
    assert!(findings(src, &product()).is_empty());
}

#[test]
fn snapshot_format_docs_and_non_calls_are_clean() {
    let src = r#"
/// Docs may say `write_all` and `u64::from_le_bytes` freely.
fn f() {
    let _ = "input.read_exact(&mut buf) in a string";
    let write_all = 3; // an identifier, not a call
    let _ = write_all;
}
"#;
    assert!(findings(src, &snapshot_guarded()).is_empty());
}

#[test]
fn snapshot_format_allow_pragma_suppresses() {
    let src = r#"
fn f(out: &mut impl std::io::Write) {
    // lint:allow(snapshot-format) test-only tamper helper, not snapshot state
    out.write_all(&[0]).unwrap();
}
"#;
    assert!(findings(src, &snapshot_guarded()).is_empty());
}
