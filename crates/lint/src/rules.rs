//! The rule set and the per-file scan.
//!
//! Every rule guards one documented determinism / concurrency invariant of
//! the workspace (see ARCHITECTURE.md § Enforced invariants):
//!
//! | rule | invariant |
//! |---|---|
//! | `no-thread-spawn` | all parallelism flows through the slot-ordered `stats::par` primitives |
//! | `no-entropy-rng` | every RNG is explicitly seeded; no ambient entropy |
//! | `no-wall-clock` | wall-clock values never reach an output path; telemetry reads carry a justified pragma |
//! | `hash-iter` | hash-table iteration order never reaches an output path |
//! | `crate-header` | every crate root forbids `unsafe` and keeps the docs policy |
//! | `snapshot-format` | every snapshot byte flows through the `checkpoint` envelope codec — no raw byte I/O in the sim crate |
//!
//! A finding can be suppressed with an inline pragma on the same line or on
//! a comment line directly above the offending line:
//!
//! ```text
//! // lint:allow(no-wall-clock) wall_ms telemetry; omitted from deterministic JSON
//! let start = Instant::now();
//! ```
//!
//! The justification after the closing parenthesis is **mandatory** — an
//! empty one, an unknown rule name, or a pragma that suppresses nothing is
//! itself reported (as `allow-pragma`), so stale escape hatches cannot
//! accumulate.

use crate::lexer::{lex, Lexed, Token, TokenKind};

/// The lint rules. `AllowPragma` is the meta-rule for malformed or unused
/// `lint:allow` pragmas; it cannot itself be allowed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// `std::thread::{spawn,scope,Builder}` outside `stats::par`.
    NoThreadSpawn,
    /// Ambient-entropy RNG construction (`thread_rng`, `from_entropy`, ...).
    NoEntropyRng,
    /// `Instant` / `SystemTime` without a justified pragma.
    NoWallClock,
    /// Iteration over `HashMap` / `HashSet` without a justification.
    HashIter,
    /// Missing `#![forbid(unsafe_code)]` / missing-docs policy on a crate root.
    CrateHeader,
    /// Raw byte-level codec calls (`write_all`, `read_exact`,
    /// `to_le_bytes`, `from_le_bytes`) in the sim crate outside
    /// `checkpoint.rs` — snapshot bytes must flow through the versioned,
    /// digest-covered `SnapshotWriter` / `SnapshotReader` envelope.
    SnapshotFormat,
    /// Malformed or unused `lint:allow` pragma.
    AllowPragma,
}

impl Rule {
    /// The rule's diagnostic name (what `lint:allow(...)` takes).
    pub fn name(self) -> &'static str {
        match self {
            Rule::NoThreadSpawn => "no-thread-spawn",
            Rule::NoEntropyRng => "no-entropy-rng",
            Rule::NoWallClock => "no-wall-clock",
            Rule::HashIter => "hash-iter",
            Rule::CrateHeader => "crate-header",
            Rule::SnapshotFormat => "snapshot-format",
            Rule::AllowPragma => "allow-pragma",
        }
    }

    /// Parses a rule name as written in a pragma. `allow-pragma` is not
    /// accepted: the meta-rule cannot be silenced.
    pub fn from_name(name: &str) -> Option<Rule> {
        match name {
            "no-thread-spawn" => Some(Rule::NoThreadSpawn),
            "no-entropy-rng" => Some(Rule::NoEntropyRng),
            "no-wall-clock" => Some(Rule::NoWallClock),
            "hash-iter" => Some(Rule::HashIter),
            "crate-header" => Some(Rule::CrateHeader),
            "snapshot-format" => Some(Rule::SnapshotFormat),
            _ => None,
        }
    }
}

impl std::fmt::Display for Rule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One `file:line` finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Workspace-relative path of the offending file.
    pub file: String,
    /// 1-based line of the finding (1 for file-level findings).
    pub line: u32,
    /// The violated rule.
    pub rule: Rule,
    /// Human-readable explanation, including the invariant at stake.
    pub message: String,
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// How the workspace walker classified a file; drives which rules apply.
#[derive(Debug, Clone, Copy, Default)]
pub struct FileClass {
    /// A crate root (`src/lib.rs` / `src/main.rs` of a member): the
    /// `crate-header` rule applies.
    pub crate_root: bool,
    /// Crate roots of product crates must also carry the missing-docs
    /// policy (shims mirror external crate APIs and are exempt).
    pub require_missing_docs: bool,
    /// `std::thread::{spawn,scope}` is legitimate here — only
    /// `crates/stats/src/par.rs`, the home of the slot-ordered primitives.
    pub thread_spawn_allowed: bool,
    /// The `snapshot-format` rule applies: sim-crate sources (except
    /// `checkpoint.rs`, which *is* the envelope codec) may not do raw
    /// byte-level I/O.
    pub snapshot_guarded: bool,
}

/// Identifiers that construct ambient-entropy RNGs. None of these exist in
/// the offline `rand` shim today; the rule is the tripwire that keeps it
/// that way if the real `rand` crate is ever swapped back in.
const ENTROPY_IDENTS: &[&str] = &[
    "from_entropy",
    "thread_rng",
    "ThreadRng",
    "OsRng",
    "from_os_rng",
    "getrandom",
];

/// Methods whose receiver order is the hash order.
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "into_iter",
    "into_keys",
    "into_values",
    "drain",
    "retain",
    "extract_if",
];

/// Raw byte-codec calls that would let snapshot state bypass the
/// `checkpoint` envelope (its version header and FNV digest cover only
/// bytes that flow through `SnapshotWriter` / `SnapshotReader`).
const RAW_CODEC_CALLS: &[&str] = &["write_all", "read_exact", "to_le_bytes", "from_le_bytes"];

/// Lints one source file. `file` is the workspace-relative path used in
/// diagnostics; `class` is the walker's classification.
pub fn lint_source(file: &str, source: &str, class: &FileClass) -> Vec<Diagnostic> {
    let lexed = lex(source);
    let mut findings: Vec<Diagnostic> = Vec::new();
    let diag = |line: u32, rule: Rule, message: String| Diagnostic {
        file: file.to_string(),
        line,
        rule,
        message,
    };

    scan_tokens(&lexed, class, &mut |line, rule, message| {
        findings.push(diag(line, rule, message));
    });

    if class.crate_root {
        check_crate_header(file, &lexed, class, &mut findings);
    }

    apply_pragmas(file, &lexed, findings)
}

/// Matches `pattern` against the token texts starting at `at`.
fn matches_seq(tokens: &[Token<'_>], at: usize, pattern: &[&str]) -> bool {
    tokens.len() >= at + pattern.len()
        && pattern
            .iter()
            .zip(&tokens[at..])
            .all(|(want, tok)| *want == tok.text)
}

fn is_ident(tok: &Token<'_>) -> bool {
    tok.kind == TokenKind::Ident
}

/// Runs the token-pattern rules, emitting `(line, rule, message)` findings.
fn scan_tokens(lexed: &Lexed<'_>, class: &FileClass, emit: &mut dyn FnMut(u32, Rule, String)) {
    let ts = &lexed.tokens;

    // Pass 1: identifiers bound to a hash collection in this file (let
    // bindings and struct fields with `: HashMap<...>` ascriptions, and
    // `name = HashMap::new()`-style initialisations).
    let mut hash_bound: Vec<&str> = Vec::new();
    for (i, tok) in ts.iter().enumerate() {
        if !(tok.text == "HashMap" || tok.text == "HashSet") || !is_ident(tok) {
            continue;
        }
        // Walk back over a qualified-path prefix (`std :: collections ::`).
        let mut j = i;
        while j >= 2 && ts[j - 1].text == ":" && ts[j - 2].text == ":" {
            j -= 2;
            if j >= 1 && is_ident(&ts[j - 1]) {
                j -= 1;
            } else {
                break;
            }
        }
        // Skip reference/mutability sigils: `m: &HashMap<..>`, `&mut HashMap`.
        while j >= 1 && matches!(ts[j - 1].text, "&" | "mut") {
            j -= 1;
        }
        if j == 0 {
            continue;
        }
        let before = &ts[j - 1];
        let name = match before.text {
            // `name: HashMap<...>` (let ascription, struct field, fn param).
            ":" if j >= 2 && is_ident(&ts[j - 2]) => ts[j - 2].text,
            // `name = HashMap::new()` / `let mut name = HashMap::new()`.
            "=" if j >= 2 && is_ident(&ts[j - 2]) => ts[j - 2].text,
            _ => continue,
        };
        if !matches!(name, "let" | "mut" | "pub") && !hash_bound.contains(&name) {
            hash_bound.push(name);
        }
    }

    for (i, tok) in ts.iter().enumerate() {
        if !is_ident(tok) {
            continue;
        }
        // no-thread-spawn: `thread :: spawn | scope | Builder`.
        if tok.text == "thread" && !class.thread_spawn_allowed {
            for target in ["spawn", "scope", "Builder"] {
                if matches_seq(ts, i + 1, &[":", ":", target]) {
                    emit(
                        ts[i + 3].line,
                        Rule::NoThreadSpawn,
                        format!(
                            "`thread::{target}` outside `stats::par` — all fan-out must go \
                             through the slot-ordered `parallel_map` / `parallel_map_slices` \
                             primitives so results are byte-identical at any worker count"
                        ),
                    );
                }
            }
        }
        // no-entropy-rng: ambient-entropy constructors, plus `rand::random`.
        if ENTROPY_IDENTS.contains(&tok.text) {
            emit(
                tok.line,
                Rule::NoEntropyRng,
                format!(
                    "`{}` draws ambient entropy — every RNG in this workspace must be \
                     explicitly seeded (SeedDerive streams / indexed per-item streams) so \
                     runs are reproducible from the master seed",
                    tok.text
                ),
            );
        }
        if tok.text == "rand" && matches_seq(ts, i + 1, &[":", ":", "random"]) {
            emit(
                ts[i + 3].line,
                Rule::NoEntropyRng,
                "`rand::random` draws from the ambient thread RNG — seed an explicit \
                 `StdRng` stream instead"
                    .to_string(),
            );
        }
        // no-wall-clock: every `Instant` / `SystemTime`; the pragma is the
        // only escape.
        if tok.text == "Instant" || tok.text == "SystemTime" {
            emit(
                tok.line,
                Rule::NoWallClock,
                format!(
                    "`{}` is wall-clock time — wall-clock values must never reach an \
                     output path (deterministic reports omit them); telemetry-only uses \
                     take `// lint:allow(no-wall-clock) <why>`",
                    tok.text
                ),
            );
        }
        // snapshot-format: raw byte-codec calls in snapshot-guarded files.
        // Both shapes matter: `.write_all(` / `.to_le_bytes(` method calls
        // and `u64::from_le_bytes(` associated-function calls; bare
        // mentions in docs or identifiers that merely share a suffix don't
        // match (the `(` is required).
        if class.snapshot_guarded
            && RAW_CODEC_CALLS.contains(&tok.text)
            && matches_seq(ts, i + 1, &["("])
        {
            emit(
                tok.line,
                Rule::SnapshotFormat,
                format!(
                    "`{}` is raw byte-level codec I/O — snapshot state must flow through \
                     the `checkpoint` envelope (`SnapshotWriter` / `SnapshotReader`) so \
                     the format version and FNV digest cover every byte",
                    tok.text
                ),
            );
        }
        // hash-iter: iteration over identifiers bound to hash collections.
        // A name preceded by `<expr>.` (other than `self.`) is a field of
        // some *other* value that merely shares the name — skip it; the
        // struct-field case that matters (`self.field.iter()`) is kept.
        let foreign_field = i >= 2 && ts[i - 1].text == "." && ts[i - 2].text != "self";
        if hash_bound.contains(&tok.text) && !foreign_field {
            if matches_seq(ts, i + 1, &["."])
                && ts.len() > i + 3
                && is_ident(&ts[i + 2])
                && ITER_METHODS.contains(&ts[i + 2].text)
                && ts[i + 3].text == "("
            {
                emit(
                    ts[i + 2].line,
                    Rule::HashIter,
                    format!(
                        "`{}.{}()` visits entries in hash order — sort before anything \
                         order-sensitive (or justify with `// lint:allow(hash-iter) <why>`); \
                         hash order must never reach an output path",
                        tok.text,
                        ts[i + 2].text
                    ),
                );
            }
            let after_in = i >= 1 && ts[i - 1].text == "in"
                || i >= 2 && ts[i - 1].text == "&" && ts[i - 2].text == "in"
                || i >= 3
                    && ts[i - 1].text == "mut"
                    && ts[i - 2].text == "&"
                    && ts[i - 3].text == "in";
            if after_in && matches_seq(ts, i + 1, &["{"]) {
                emit(
                    tok.line,
                    Rule::HashIter,
                    format!(
                        "`for ... in {}` visits entries in hash order — sort before \
                         anything order-sensitive (or justify with \
                         `// lint:allow(hash-iter) <why>`)",
                        tok.text
                    ),
                );
            }
        }
    }
}

/// Checks the crate-root header attributes (`crate-header` rule).
fn check_crate_header(
    file: &str,
    lexed: &Lexed<'_>,
    class: &FileClass,
    findings: &mut Vec<Diagnostic>,
) {
    let ts = &lexed.tokens;
    let has_inner_attr = |lint: &str, levels: &[&str]| {
        (0..ts.len()).any(|i| {
            matches_seq(ts, i, &["#", "!", "["])
                && ts.len() > i + 6
                && levels.contains(&ts[i + 3].text)
                && matches_seq(ts, i + 4, &["(", lint, ")", "]"])
        })
    };
    if !has_inner_attr("unsafe_code", &["forbid"]) {
        findings.push(Diagnostic {
            file: file.to_string(),
            line: 1,
            rule: Rule::CrateHeader,
            message: "crate root lacks `#![forbid(unsafe_code)]` — the workspace proves its \
                      parallelism safe with types (disjoint `split_at_mut` slices), never \
                      with `unsafe`"
                .to_string(),
        });
    }
    if class.require_missing_docs && !has_inner_attr("missing_docs", &["warn", "deny", "forbid"]) {
        findings.push(Diagnostic {
            file: file.to_string(),
            line: 1,
            rule: Rule::CrateHeader,
            message: "crate root lacks `#![warn(missing_docs)]` — every public item in the \
                      product crates is documented (the CI clippy/doc gates escalate the warn)"
                .to_string(),
        });
    }
}

/// One parsed `lint:allow` pragma.
struct Allow {
    /// Line of the pragma comment itself.
    comment_line: u32,
    /// The code line it suppresses (same line, or first code line below).
    anchor: Option<u32>,
    rule: Rule,
    used: bool,
}

/// Parses pragmas out of the comments, suppresses matching findings, and
/// reports malformed or unused pragmas.
fn apply_pragmas(file: &str, lexed: &Lexed<'_>, findings: Vec<Diagnostic>) -> Vec<Diagnostic> {
    let mut allows: Vec<Allow> = Vec::new();
    let mut out: Vec<Diagnostic> = Vec::new();

    for comment in &lexed.comments {
        // Accept the pragma in `//`, `///` and `//!` comments alike.
        let text = comment.text.trim_start_matches(['/', '!']).trim_start();
        let Some(rest) = text.strip_prefix("lint:allow(") else {
            continue;
        };
        let Some(close) = rest.find(')') else {
            out.push(Diagnostic {
                file: file.to_string(),
                line: comment.line,
                rule: Rule::AllowPragma,
                message: "malformed `lint:allow` — missing `)` after the rule name".to_string(),
            });
            continue;
        };
        let name = rest[..close].trim();
        let justification = rest[close + 1..].trim();
        let Some(rule) = Rule::from_name(name) else {
            out.push(Diagnostic {
                file: file.to_string(),
                line: comment.line,
                rule: Rule::AllowPragma,
                message: format!("`lint:allow({name})` names no known rule"),
            });
            continue;
        };
        if justification.is_empty() {
            out.push(Diagnostic {
                file: file.to_string(),
                line: comment.line,
                rule: Rule::AllowPragma,
                message: format!(
                    "`lint:allow({name})` without a justification — the escape hatch \
                     requires a reason after the closing parenthesis"
                ),
            });
            continue;
        }
        let anchor = if lexed.has_token_on_line(comment.line) {
            Some(comment.line)
        } else {
            lexed.next_code_line(comment.line + 1)
        };
        allows.push(Allow {
            comment_line: comment.line,
            anchor,
            rule,
            used: false,
        });
    }

    'finding: for finding in findings {
        for allow in allows.iter_mut() {
            if allow.anchor == Some(finding.line) && allow.rule == finding.rule {
                allow.used = true;
                continue 'finding;
            }
        }
        out.push(finding);
    }

    for allow in &allows {
        if !allow.used {
            out.push(Diagnostic {
                file: file.to_string(),
                line: allow.comment_line,
                rule: Rule::AllowPragma,
                message: format!(
                    "unused `lint:allow({})` — the next code line triggers no such \
                     finding; delete the stale escape hatch",
                    allow.rule
                ),
            });
        }
    }

    out.sort_by_key(|d| (d.line, d.rule));
    out
}
