//! **consume-local-lint**: the workspace static-analysis pass that enforces
//! the determinism and concurrency invariants.
//!
//! The repo's headline guarantee — byte-identical reports at any worker
//! count — rests on invariants that documentation alone cannot defend
//! through refactors: all parallelism flows through the slot-ordered
//! `stats::par` primitives, all RNG is explicitly seeded, and no wall-clock
//! or hash-order value ever reaches an output path. This crate turns each
//! of those invariants into a machine-checked rule with `file:line`
//! diagnostics:
//!
//! * [`Rule::NoThreadSpawn`] — `std::thread::{spawn,scope}` only inside
//!   `stats::par`;
//! * [`Rule::NoEntropyRng`] — no ambient-entropy RNG construction;
//! * [`Rule::NoWallClock`] — `Instant`/`SystemTime` only with a justified
//!   pragma;
//! * [`Rule::HashIter`] — hash-table iteration needs a sort or a
//!   justification;
//! * [`Rule::CrateHeader`] — crate roots carry `#![forbid(unsafe_code)]`
//!   and the missing-docs policy.
//!
//! The scanner is a hand-rolled lexer ([`lexer`]) that skips strings, char
//! literals, raw strings and comments, so rule names inside documentation
//! or test fixtures never trigger. The escape hatch is an inline
//! `// lint:allow(<rule>) <justification>` pragma whose justification is
//! mandatory ([`rules`] documents the semantics). Run it with:
//!
//! ```text
//! cargo run -p consume-local-lint
//! ```
//!
//! which exits nonzero on any finding — CI runs it alongside clippy/fmt.
//!
//! # Example
//!
//! ```
//! use consume_local_lint::{lint_source, FileClass, Rule};
//!
//! let findings = lint_source(
//!     "demo.rs",
//!     "fn f() { let _ = std::time::Instant::now(); }",
//!     &FileClass::default(),
//! );
//! assert_eq!(findings.len(), 1);
//! assert_eq!(findings[0].rule, Rule::NoWallClock);
//! assert_eq!(findings[0].line, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod lexer;
pub mod rules;
pub mod walk;

pub use rules::{lint_source, Diagnostic, FileClass, Rule};
pub use walk::{classify, lint_workspace, LintReport};
